//! The SherLock-rs benchmark: one command runs a named workload, prints
//! every metric by name with its unit and sample count, checks that the
//! program's outputs are correct, and ends with one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <infer|serve-hot|serve-cold|explore> --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare OLD NEW
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes of fixed size and reports the per-layer
//! metrics, a layer table and the tracing overhead. Every run also writes a
//! full result file (metadata, all metrics, layer tables, exactly-repeating
//! counts) under `perfbench/out/`, which `--compare` reads. See
//! `perfbench/README.md` for the workloads and the metric-to-layer map.

mod compare;
mod explore;
mod infer;
mod layers;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sherlock_obs::json::Json;
use sherlock_obs::Snapshot;

use layers::{counter, ratio, self_ns, span_count, span_total, LayerTable};
use stats::{median, Metric};

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["infer", "serve-hot", "explore"];

/// Runnable but not listed in `BENCHMARK.json`: its figures do not repeat
/// within the bounds on a 2-vCPU machine (see `perfbench/README.md`).
const UNGATED_WORKLOADS: [&str; 1] = ["serve-cold"];

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1` (0 where the
/// layer does no work on that workload).
pub const PER_LAYER: [(&str, &str); 58] = [
    // Workload-level figures behind the generic end-to-end metrics; the
    // tail is reported, not bounded (see perfbench/README.md).
    ("op_ms_p95", "ms"),
    ("apps_per_s", "1/s"),
    ("app_ms_p50", "ms"),
    ("app_ms_p95", "ms"),
    ("precision", "ratio"),
    ("recall", "ratio"),
    ("absorb_ms_p50", "ms"),
    ("absorb_ms_p99", "ms"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p95", "ms"),
    ("sched_per_s", "1/s"),
    ("distinct_sched", "count"),
    // sim (kernel, fibers)
    ("sim.run_ns", "ns"),
    ("sim.steps", "count"),
    ("sim.context_switches", "count"),
    ("sim.events_traced", "count"),
    // sim.campaign
    ("campaign.runs", "count"),
    ("campaign.distinct", "count"),
    ("campaign.dedup_hits", "count"),
    ("campaign.fresh_ratio", "ratio"),
    ("campaign.dedup_ns", "ns"),
    // trace (windows)
    ("windows.extract_ns", "ns"),
    ("windows.extracted", "count"),
    ("windows.racy", "count"),
    // core.perturber
    ("perturber.refine_ns", "ns"),
    ("perturber.delays_injected", "count"),
    ("perturber.confirmations", "count"),
    ("perturber.exclusions", "count"),
    // core.session
    ("session.absorb_self_ns", "ns"),
    ("session.window_memo_hit_ratio", "ratio"),
    // core.solver
    ("solver.encode_ns", "ns"),
    ("solver.solve_memo_hit_ratio", "ratio"),
    // lp
    ("lp.simplex_ns", "ns"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.refactorizations", "count"),
    ("lp.warm_hit_ratio", "ratio"),
    // store (serial replay of the workload's op stream)
    ("store.append_ns", "ns"),
    ("store.oplog_bytes_per_trace_byte", "ratio"),
    ("store.snapshot_ns", "ns"),
    ("store.snapshots", "count"),
    ("store.replay_ns", "ns"),
    ("store.snapshot_load_ns", "ns"),
    ("store.replayed_records", "count"),
    ("store.rehydrations", "count"),
    ("store.evictions", "count"),
    // serve
    ("serve.parse_ns", "ns"),
    ("serve.queue_wait_ns_p50", "ns"),
    ("serve.queue_wait_ns_p99", "ns"),
    ("serve.handler_ns_mean", "ns"),
    ("serve.batch_size_mean", "count"),
    ("serve.busy", "count"),
    ("serve.deadline_expired", "count"),
    // load generator validity
    ("gen.late_ms_p99", "ms"),
    // tracing
    ("obs.overhead_pct", "%"),
    ("layer.unattributed_share", "ratio"),
    ("layer.attributed_ms", "ms"),
    ("layer.total_ms", "ms"),
];

/// Environment variables that change the program being measured.
const REFUSED_ENV: [&str; 3] = ["SHERLOCK_LP_CHECK", "SHERLOCK_SIM_BACKEND", "SHERLOCK_LOG"];

/// Set-up repeats at least this often and for at least `SETUP_MIN_S`
/// seconds (up to `SETUP_MAX_REPEATS` times); `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 1000;

/// One run's parameters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// How much work one pass does: until a deadline, or a fixed count.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Time(f64),
    Ops(usize),
}

impl Budget {
    /// Whether operation `i` (0-based) should not start.
    pub fn done(self, i: usize, start: Instant) -> bool {
        match self {
            Budget::Ops(n) => i >= n,
            Budget::Time(s) => i > 0 && start.elapsed().as_secs_f64() >= s,
        }
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Report {
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub tables: Vec<LayerTable>,
    /// Counts that repeat exactly for a fixed seed (traced runs).
    pub exact: Vec<(String, u64)>,
    pub info: Vec<(String, Json)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    pub fn info(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    fn value(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Runs a workload's set-up repeatedly, recording each duration in
/// `report.setup_s`, and returns the last result; earlier results go to
/// `discard` (which may release resources without being timed).
pub fn repeat_setup<T>(
    report: &mut Report,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> T {
    let started = Instant::now();
    let mut last: Option<T> = None;
    while report.setup_s.len() < SETUP_MIN_REPEATS
        || (started.elapsed().as_secs_f64() < SETUP_MIN_S
            && report.setup_s.len() < SETUP_MAX_REPEATS)
    {
        if let Some(old) = last.take() {
            discard(old);
        }
        let t0 = Instant::now();
        let value = setup();
        report.setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    last.expect("set-up ran at least once")
}

/// Tracing overhead of a traced pass against the untraced pass of the
/// same work, in percent.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

/// Per-layer metrics read from the program's own counters and spans, the
/// same way on every workload that runs the layer.
pub fn common_counts(report: &mut Report, snap: &Snapshot, samples: u64) {
    let mut m =
        |name: &str, v: u64, unit: &'static str| report.metric(name, v as f64, unit, samples);
    m("sim.steps", counter(snap, "kernel.steps"), "count");
    m(
        "sim.context_switches",
        counter(snap, "kernel.context_switches"),
        "count",
    );
    m(
        "sim.events_traced",
        counter(snap, "kernel.events_traced"),
        "count",
    );
    m(
        "windows.extract_ns",
        self_ns(snap, "phase.windows") + self_ns(snap, "windows.extract"),
        "ns",
    );
    m(
        "windows.extracted",
        counter(snap, "windows.extracted"),
        "count",
    );
    m("windows.racy", counter(snap, "windows.racy"), "count");
    m(
        "perturber.confirmations",
        counter(snap, "perturber.confirmations"),
        "count",
    );
    m(
        "perturber.exclusions",
        counter(snap, "perturber.exclusions"),
        "count",
    );
    m(
        "session.absorb_self_ns",
        self_ns(snap, "session.absorb")
            + self_ns(snap, "session.absorb_batch")
            + self_ns(snap, "driver.absorb_trace"),
        "ns",
    );
    m("solver.encode_ns", self_ns(snap, "phase.solve"), "ns");
    m("lp.simplex_ns", span_total(snap, "lp.simplex"), "ns");
    m("lp.solves", counter(snap, "simplex.solves"), "count");
    m("lp.pivots", counter(snap, "simplex.pivots"), "count");
    m(
        "lp.refactorizations",
        counter(snap, "lp.refactorizations"),
        "count",
    );
    let hits = counter(snap, "session.window_memo.hits");
    let misses = counter(snap, "session.window_memo.misses");
    report.metric(
        "session.window_memo_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        hits + misses,
    );
    let memo = counter(snap, "session.solve_memo.hits");
    let solves = span_count(snap, "phase.solve");
    report.metric(
        "solver.solve_memo_hit_ratio",
        ratio(memo, memo + solves),
        "ratio",
        memo + solves,
    );
    let lp_solves = counter(snap, "simplex.solves");
    report.metric(
        "lp.warm_hit_ratio",
        ratio(counter(snap, "lp.warm_hits"), lp_solves),
        "ratio",
        lp_solves,
    );
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory inside the benchmark's own tree, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> Self {
        let dir = bench_dir().join(".work").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos())
        ));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let git = bench_dir().join("..").join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

enum Mode {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut it = argv.iter();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let old = PathBuf::from(value()?);
                let new = PathBuf::from(value()?);
                return Ok(Mode::Compare(old, new));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) && !UNGATED_WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or {UNGATED_WORKLOADS:?}"
        ));
    }
    Ok(Mode::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    }))
}

fn refused_env() -> Vec<&'static str> {
    REFUSED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Mode::Compare(old, new)) => return compare::run(&old, &new),
        Ok(Mode::Run(a)) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let refused = refused_env();
    if !refused.is_empty() {
        eprintln!(
            "error: refusing to run with {refused:?} set: each changes the program being measured"
        );
        return ExitCode::from(2);
    }
    sherlock_sim::install_sim_panic_hook();

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let started = Instant::now();
    let mut report = match args.workload.as_str() {
        "infer" => infer::run(&ctx),
        "serve-hot" => serve::run(&ctx, &serve::HOT),
        "serve-cold" => serve::run(&ctx, &serve::COLD),
        "explore" => explore::run(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    finish(&args, &mut report, started.elapsed().as_secs_f64())
}

fn finish(args: &Args, report: &mut Report, run_s: f64) -> ExitCode {
    let n_setup = report.setup_s.len() as u64;
    report.metric("setup_s", median(&report.setup_s), "s", n_setup);
    match peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB", 1),
        None => report
            .errors
            .push("cannot read VmHWM from /proc/self/status".into()),
    }
    if args.trace {
        if let Some(t) = report.tables.first() {
            let (un, att, total) = (t.unattributed_ns(), t.attributed_ns(), t.total_ns);
            report.metric("layer.unattributed_share", ratio(un, total), "ratio", 1);
            report.metric("layer.attributed_ms", att as f64 / 1e6, "ms", 1);
            report.metric("layer.total_ms", total as f64 / 1e6, "ms", 1);
        }
        let table_errors: Vec<String> = report
            .tables
            .iter()
            .filter_map(|t| t.check().err())
            .collect();
        report.errors.extend(table_errors);
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut line = Vec::new();
    for &(name, unit) in wanted {
        let value = match report.value(name) {
            Some(m) if m.value.is_finite() => m.value,
            Some(m) => {
                report
                    .errors
                    .push(format!("{name} is not finite: {}", m.value));
                0.0
            }
            None if args.trace => 0.0,
            None => {
                report.errors.push(format!("{name} was not measured"));
                0.0
            }
        };
        line.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::from(unit)),
            ]),
        ));
    }
    let correct = report.errors.is_empty();

    println!(
        "workload {} seed {} seconds {} trace {} (run took {run_s:.1} s)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{:<34} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        println!(
            "{:<34} {:>16.4} {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "operations: {} attempted, {} succeeded, {} failed",
        report.attempted,
        report.attempted - report.failed.min(report.attempted),
        report.failed
    );
    for t in &report.tables {
        print!("\n{}", t.render());
    }
    for m in &report.metrics {
        let pct = m
            .name
            .rsplit_once("_p")
            .and_then(|(_, p)| p.parse::<usize>().ok());
        if let Some(pct) = pct.filter(|p| (1..100).contains(p)) {
            let need = stats::min_samples_for(pct);
            if (m.samples as usize) < need {
                println!(
                    "note: {} rests on {} samples; p{pct} needs {need} for ten beyond it",
                    m.name, m.samples
                );
            }
        }
    }
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }

    let doc = result_doc(args, report, correct);
    let path = args.out.clone().unwrap_or_else(|| {
        bench_dir().join("out").join(format!(
            "{}-s{}-t{}-{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis())
        ))
    });
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, doc.render_pretty()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }

    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::from(report.attempted.max(1))),
        ("failed".to_string(), Json::from(report.failed)),
        ("metrics".to_string(), Json::Obj(line)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_doc(args: &Args, report: &Report, correct: bool) -> Json {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".to_string(), Json::from(m.name.as_str())),
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::from(m.unit)),
                ("samples".to_string(), Json::from(m.samples)),
            ])
        })
        .collect();
    let mut info = vec![
        ("workload".to_string(), Json::from(args.workload.as_str())),
        ("seed".to_string(), Json::from(args.seed)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("commit".to_string(), Json::from(commit())),
        ("nproc".to_string(), Json::from(nproc())),
        ("rustc".to_string(), Json::from(rustc_version())),
    ];
    info.extend(report.info.iter().cloned());
    Json::Obj(vec![
        ("meta".to_string(), Json::Obj(info)),
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::from(report.attempted)),
        ("failed".to_string(), Json::from(report.failed)),
        (
            "errors".to_string(),
            Json::Arr(
                report
                    .errors
                    .iter()
                    .map(|e| Json::from(e.as_str()))
                    .collect(),
            ),
        ),
        ("metrics".to_string(), Json::Arr(metrics)),
        (
            "exact".to_string(),
            report
                .exact
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        ),
        (
            "tables".to_string(),
            Json::Arr(report.tables.iter().map(LayerTable::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let Ok(Mode::Run(a)) =
            parse_args(&args("--workload infer --seed 7 --seconds 10 --trace 1"))
        else {
            panic!("expected a run");
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("infer", 7, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload infer --seconds 1")).is_err());
        assert!(parse_args(&args("--workload infer --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn benchmark_json_names_exactly_these_workloads_and_metrics() {
        let text = std::fs::read_to_string(bench_dir().join("..").join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let get = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn incorrect_outputs_make_the_run_fail() {
        let scratch = WorkDir::new("test-finish");
        let a = Args {
            workload: "infer".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            out: Some(scratch.0.join("result.json")),
        };
        let mut r = Report::default();
        r.setup_s.push(0.1);
        for (name, unit) in END_TO_END {
            r.metric(name, 1.0, unit, 1);
        }
        r.errors.push("a wrong result".into());
        assert_eq!(finish(&a, &mut r, 0.0), ExitCode::FAILURE);
        let mut ok = Report::default();
        ok.setup_s.push(0.1);
        for (name, unit) in END_TO_END {
            ok.metric(name, 1.0, unit, 1);
        }
        assert_eq!(finish(&a, &mut ok, 0.0), ExitCode::SUCCESS);
    }
}
