//! Implementations of the `sherlock` subcommands.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use sherlock_apps::{all_apps, app_by_id, App};
use sherlock_core::{Session, SherLock, SherLockConfig};
use sherlock_fleet::{generate_fleet, score_fleet, GrammarConfig};
use sherlock_obs::json::Json;
use sherlock_racer::{detect, differential, first_race, SyncSpec};
use sherlock_sim::{Campaign, CampaignConfig, CampaignProgress, SimConfig, StrategyKind};
use sherlock_trace::{windows, Time, Trace};

type Flags = BTreeMap<String, String>;

fn flag_u64(flags: &Flags, name: &str, default: u64) -> Result<u64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects an integer, got {v:?}")),
    }
}

fn flag_f64(flags: &Flags, name: &str, default: f64) -> Result<f64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got {v:?}")),
    }
}

fn the_app(positional: &[String]) -> Result<App, String> {
    let name = positional
        .first()
        .ok_or_else(|| "expected an application (try `sherlock list`)".to_string())?;
    app_by_id(name).ok_or_else(|| format!("unknown application {name:?} (try `sherlock list`)"))
}

fn config_from(flags: &Flags) -> Result<SherLockConfig, String> {
    let mut cfg = SherLockConfig::default();
    cfg.lambda = flag_f64(flags, "lambda", cfg.lambda)?;
    cfg.near = Time::from_millis(flag_u64(flags, "near-ms", 1000)?);
    cfg.delay = Time::from_millis(flag_u64(flags, "delay-ms", 100)?);
    cfg.delay_probability = flag_f64(flags, "delay-probability", 1.0)?;
    cfg.soft_single_role = flags.contains_key("soft-single-role");
    Ok(cfg)
}

/// Implements `--profile`: marks command start, and on [`Profiler::finish`]
/// prints the per-phase time/count breakdown of everything that ran in
/// between, with percentages against this command's wall-clock time.
struct Profiler {
    enabled: bool,
    start: std::time::Instant,
    base: sherlock_obs::Snapshot,
}

impl Profiler {
    fn new(flags: &Flags) -> Self {
        Profiler {
            enabled: flags.contains_key("profile"),
            start: std::time::Instant::now(),
            base: sherlock_obs::snapshot(),
        }
    }

    fn finish(self) {
        if self.enabled {
            let wall_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let delta = sherlock_obs::snapshot().delta(&self.base);
            println!("\n-- profile --");
            print!("{}", delta.render_profile(wall_ns));
        }
    }
}

/// `sherlock list`
pub fn list() -> Result<(), String> {
    for app in all_apps() {
        println!(
            "{}  {} ({} LoC, {} tests)",
            app.id,
            app.name,
            app.loc,
            app.num_tests()
        );
        for t in &app.tests {
            println!("    - {}", t.name());
        }
    }
    Ok(())
}

/// Serializes an inference report (the `--out` file): inferred sites, LP
/// size, and the session's telemetry snapshot.
fn report_to_json(report: &sherlock_core::InferenceReport) -> Json {
    let sites = |ops: Vec<String>| Json::Arr(ops.into_iter().map(Json::Str).collect());
    Json::Obj(vec![
        (
            "releases".to_string(),
            sites(
                report
                    .releases()
                    .map(|op| op.resolve().to_string())
                    .collect(),
            ),
        ),
        (
            "acquires".to_string(),
            sites(
                report
                    .acquires()
                    .map(|op| op.resolve().to_string())
                    .collect(),
            ),
        ),
        ("num_windows".to_string(), Json::from(report.num_windows)),
        (
            "num_variables".to_string(),
            Json::from(report.num_variables),
        ),
        ("racy_pairs".to_string(), Json::from(report.racy_pairs)),
        ("objective".to_string(), Json::Num(report.objective)),
        ("telemetry".to_string(), report.telemetry.to_json()),
    ])
}

fn emit_report(report: &sherlock_core::InferenceReport, flags: &Flags) -> Result<(), String> {
    print!("{}", report.render());
    println!(
        "({} windows, {} variables, {} racy pairs pruned)",
        report.num_windows, report.num_variables, report.racy_pairs
    );
    if let Some(path) = flags.get("out") {
        let json = report_to_json(report).render_pretty();
        fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("report written to {path}");
    }
    Ok(())
}

/// `sherlock infer <app> [...]`
pub fn infer(positional: &[String], flags: &Flags) -> Result<(), String> {
    let app = the_app(positional)?;
    let rounds = flag_u64(flags, "rounds", 3)? as usize;
    let cfg = config_from(flags)?;
    let profiler = Profiler::new(flags);
    let mut sl = SherLock::new(cfg);
    sl.run_rounds(&app.tests, rounds)
        .map_err(|e| format!("solver failed: {e}"))?;
    println!("== {} ({}) after {rounds} round(s)", app.id, app.name);
    emit_report(sl.report(), flags)?;
    profiler.finish();
    Ok(())
}

/// `sherlock observe <app> [...]`
pub fn observe(positional: &[String], flags: &Flags) -> Result<(), String> {
    let app = the_app(positional)?;
    let seed = flag_u64(flags, "seed", 0)?;
    let default_dir = format!("traces/{}", app.id);
    let dir = flags.get("out-dir").cloned().unwrap_or(default_dir);
    fs::create_dir_all(&dir).map_err(|e| format!("creating {dir}: {e}"))?;
    for (i, test) in app.tests.iter().enumerate() {
        let run = test.run(SimConfig::with_seed(seed.wrapping_add(i as u64)));
        let path = Path::new(&dir).join(format!("{}.trace.json", test.name()));
        let json = sherlock_trace::json::to_json(&run.trace);
        fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "{:40} {:>6} events, {:>2} panics -> {}",
            test.name(),
            run.trace.len(),
            run.panics.len(),
            path.display()
        );
    }
    Ok(())
}

/// `sherlock solve <trace.json>... [...]` — the one-shot shape of the same
/// [`Session`] API the service uses: absorb every trace, solve once.
pub fn solve(positional: &[String], flags: &Flags) -> Result<(), String> {
    if positional.is_empty() {
        return Err("expected at least one trace file".into());
    }
    let profiler = Profiler::new(flags);
    let mut session = Session::new(config_from(flags)?);
    for path in positional {
        let json = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let trace: Trace =
            sherlock_trace::json::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
        session.absorb_trace(&trace);
    }
    session.solve().map_err(|e| format!("solver failed: {e}"))?;
    session.refresh_telemetry();
    println!("== inference over {} trace file(s)", positional.len());
    emit_report(session.report(), flags)?;
    profiler.finish();
    Ok(())
}

/// `sherlock serve [...]` — runs the long-lived inference daemon until a
/// protocol `shutdown` request drains it.
pub fn serve(flags: &Flags) -> Result<(), String> {
    let mut cfg = sherlock_serve::ServeConfig::default();
    cfg.sherlock = config_from(flags)?;
    if let Some(addr) = flags.get("addr") {
        cfg.addr = addr.clone();
    }
    cfg.workers = flag_u64(flags, "workers", 0)? as usize;
    cfg.queue_capacity = flag_u64(flags, "queue-capacity", cfg.queue_capacity as u64)? as usize;
    cfg.max_sessions = flag_u64(flags, "max-sessions", cfg.max_sessions as u64)? as usize;
    cfg.batch_max = flag_u64(flags, "batch-max", cfg.batch_max as u64)? as usize;
    cfg.data_dir = flags.get("data-dir").map(std::path::PathBuf::from);
    cfg.shards = flag_u64(flags, "shards", cfg.shards as u64)? as usize;
    cfg.snapshot_every = flag_u64(flags, "snapshot-every", cfg.snapshot_every)?;

    let server = sherlock_serve::Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    println!("sherlock-serve listening on {}", server.local_addr());
    let summary = server.serve();
    println!("drained: {}", summary.to_json().render());
    Ok(())
}

/// Renders one `metrics` response compactly: pool state, latency and
/// solver-flight-recorder quantiles, per-session tallies.
fn render_metrics(doc: &Json) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let n = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "uptime {:>6}ms  workers {}  pending {}/{}  sessions {}  busy {}  evictions {}",
        n("uptime_ms"),
        n("workers"),
        n("pending"),
        n("queue_capacity"),
        n("sessions"),
        n("busy_rejections"),
        n("evictions"),
    );
    if let Some(hists) = doc.get("histograms").and_then(Json::as_object) {
        let interesting = [
            "serve.request_ns",
            "serve.queue_wait_ns",
            "lp.pivots",
            "lp.phase1_iters",
            "lp.phase2_iters",
            "lp.resolve_rounds",
        ];
        for (name, h) in hists {
            if !interesting.contains(&name.as_str()) {
                continue;
            }
            let q = |k: &str| h.get(k).and_then(Json::as_u64).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {name:<24} count {:>8}  p50 {:>12}  p99 {:>12}  max {:>12}",
                q("count"),
                q("p50"),
                q("p99"),
                q("max"),
            );
        }
    }
    if let Some(sessions) = doc.get("per_session").and_then(Json::as_object) {
        for (key, s) in sessions {
            let q = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0);
            let _ = writeln!(
                out,
                "  session {key:<16} requests {:>8}  errors {:>4}  total {:>10}",
                q("requests"),
                q("errors"),
                sherlock_obs::fmt_ns(q("total_ns")),
            );
        }
    }
    out
}

/// `sherlock metrics [--addr HOST:PORT] [--watch] [--interval-ms N]
/// [--json]` — polls a running daemon's `metrics` verb.
pub fn metrics(flags: &Flags) -> Result<(), String> {
    let default_addr = sherlock_serve::ServeConfig::default().addr;
    let addr = flags.get("addr").cloned().unwrap_or(default_addr);
    let watch = flags.contains_key("watch");
    let interval = flag_u64(flags, "interval-ms", 1000)?;
    let raw = flags.contains_key("json");
    let mut client =
        sherlock_serve::Client::connect(&addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    loop {
        let resp = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        if !resp.ok {
            return Err(format!(
                "metrics failed: {}",
                resp.error.unwrap_or_default()
            ));
        }
        if raw {
            println!("{}", resp.doc.render_pretty());
        } else {
            print!("{}", render_metrics(&resp.doc));
        }
        if !watch {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval.max(50)));
        println!();
    }
}

fn parse_strategy(flags: &Flags) -> Result<StrategyKind, String> {
    let name = flags
        .get("strategy")
        .map(String::as_str)
        .unwrap_or("random");
    match name {
        "random" => Ok(StrategyKind::RandomWalk),
        "pct" => Ok(StrategyKind::Pct {
            depth: flag_u64(flags, "depth", 3)? as u32,
        }),
        "rr" => Ok(StrategyKind::RoundRobin {
            quantum: flag_u64(flags, "quantum", 4)?,
        }),
        other => Err(format!("--strategy expects random|pct|rr, got {other:?}")),
    }
}

/// `sherlock explore <app> [...]` — the schedule-exploration harness: fans
/// each unit test across many seeds under the chosen strategy (a one-arm
/// [`Campaign`] per test), deduplicates schedules by trace hash, and (unless
/// `--no-oracle`) runs the differential FastTrack oracle comparing the
/// ground-truth spec against the spec SherLock infers after absorbing every
/// distinct explored trace.
pub fn explore(positional: &[String], flags: &Flags) -> Result<(), String> {
    let app = the_app(positional)?;
    if flags.contains_key("campaign") {
        return explore_campaign(&app, flags);
    }
    let runs = flag_u64(flags, "runs", 64)?;
    let base_seed = flag_u64(flags, "seed", 0)?;
    let jobs = flag_u64(flags, "jobs", 0)? as usize;
    let strategy = parse_strategy(flags)?;
    let cfg = config_from(flags)?;
    let profiler = Profiler::new(flags);
    let explore_start = sherlock_obs::snapshot();

    let wcfg = windows::WindowConfig {
        near: cfg.near,
        cap_per_pair: cfg.cap_per_pair,
    };
    let ground = app.truth.full_spec();

    println!(
        "== exploring {} ({}) — {} run(s), strategy {}",
        app.id,
        app.name,
        runs,
        strategy.name()
    );

    // Distribute the run budget round-robin over the test suite; each test's
    // campaign gets a disjoint seed block so schedules never reuse a seed.
    let num_tests = app.tests.len().max(1) as u64;
    let mut distinct_reports = Vec::new();
    let mut total_runs = 0u64;
    let mut racy_schedules = 0usize;
    let mut racy_windows = 0usize;
    let mut deadlocks = 0u64;
    let mut panics = 0u64;
    let mut per_test_json = Vec::new();
    for (t, test) in app.tests.iter().enumerate() {
        let test_runs = runs / num_tests + u64::from((t as u64) < runs % num_tests);
        if test_runs == 0 {
            continue;
        }
        let mut ccfg = CampaignConfig {
            max_schedules: test_runs,
            base_seed: base_seed.wrapping_add((t as u64) << 32),
            jobs,
            arms: vec![strategy],
            report_cap: usize::MAX,
            ..CampaignConfig::default()
        };
        ccfg.sim.instrument = cfg.instrument.clone();
        let result = Campaign::new(ccfg).run(test.body());
        total_runs += result.runs;

        let mut test_racy = 0usize;
        let mut test_windows = 0usize;
        let mut hashes = Vec::new();
        for report in &result.reports {
            let seeded_race = detect(&report.trace, &ground)
                .iter()
                .any(|r| app.truth.is_true_race(&r.location));
            if seeded_race {
                test_racy += 1;
            }
            test_windows += windows::extract(&report.trace, &wcfg)
                .iter()
                .filter(|w| w.is_racy())
                .count();
            hashes.push(report.trace.stable_hash());
        }
        racy_schedules += test_racy;
        racy_windows += test_windows;
        deadlocks += result.deadlocks;
        panics += result.panics;
        println!(
            "  {:40} {:>4} runs, {:>3} distinct, {:>2} with a seeded race",
            test.name(),
            result.runs,
            result.distinct,
            test_racy
        );
        per_test_json.push(Json::Obj(vec![
            ("test".to_string(), Json::Str(test.name().to_string())),
            ("runs".to_string(), Json::from(result.runs)),
            ("distinct".to_string(), Json::from(result.distinct)),
            ("seeded_racy".to_string(), Json::from(test_racy as u64)),
            (
                "hashes".to_string(),
                Json::Arr(
                    hashes
                        .iter()
                        .map(|h| Json::Str(format!("{h:016x}")))
                        .collect(),
                ),
            ),
        ]));
        distinct_reports.extend(result.reports);
    }
    println!(
        "{} run(s): {} distinct schedule(s), {} with a seeded race, {} racy window(s), {} deadlock(s), {} panic schedule(s)",
        total_runs,
        distinct_reports.len(),
        racy_schedules,
        racy_windows,
        deadlocks,
        panics
    );

    // Differential oracle: infer normally, then absorb every distinct
    // explored trace and re-solve, so the inferred spec has seen exactly the
    // schedules it will be judged on.
    let mut oracle_json = Json::Null;
    if !flags.contains_key("no-oracle") {
        let rounds = flag_u64(flags, "rounds", 3)? as usize;
        let mut sl = SherLock::new(cfg);
        sl.run_rounds(&app.tests, rounds)
            .map_err(|e| format!("solver failed: {e}"))?;
        for report in &distinct_reports {
            sl.absorb_trace(&report.trace);
        }
        let inferred =
            SyncSpec::from_report(sl.resolve().map_err(|e| format!("solver failed: {e}"))?);
        let traces: Vec<&Trace> = distinct_reports.iter().map(|r| &r.trace).collect();
        let diff = differential(&traces, &ground, &inferred, &app.truth.race_locations);
        print!("{}", diff.render());
        oracle_json = Json::Obj(vec![
            ("traces".to_string(), Json::from(diff.traces as u64)),
            (
                "disagreements".to_string(),
                Json::from(diff.disagreements.len() as u64),
            ),
            (
                "ground_reports".to_string(),
                Json::from(diff.ground_reports as u64),
            ),
            (
                "inferred_reports".to_string(),
                Json::from(diff.inferred_reports as u64),
            ),
        ]);
        if !diff.agrees() {
            return Err(format!(
                "differential oracle found {} spec disagreement(s)",
                diff.disagreements.len()
            ));
        }
    }

    // Exploration counters (per arm and in total) accumulated by this command.
    let delta = sherlock_obs::snapshot().delta(&explore_start);
    for (name, v) in delta.counters_with_prefix("explore.") {
        println!("  {name:<40} {v:>10}");
    }

    if let Some(path) = flags.get("out") {
        let doc = Json::Obj(vec![
            ("app".to_string(), Json::Str(app.id.to_string())),
            (
                "strategy".to_string(),
                Json::Str(strategy.name().to_string()),
            ),
            ("runs".to_string(), Json::from(total_runs)),
            (
                "distinct".to_string(),
                Json::from(distinct_reports.len() as u64),
            ),
            (
                "seeded_racy_schedules".to_string(),
                Json::from(racy_schedules as u64),
            ),
            ("racy_windows".to_string(), Json::from(racy_windows as u64)),
            ("deadlocks".to_string(), Json::from(deadlocks)),
            ("panic_schedules".to_string(), Json::from(panics)),
            ("tests".to_string(), Json::Arr(per_test_json)),
            ("oracle".to_string(), oracle_json),
            ("telemetry".to_string(), delta.to_json()),
        ]);
        fs::write(path, doc.render_pretty()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("exploration report written to {path}");
    }
    profiler.finish();
    Ok(())
}

/// One metrics-style progress line per campaign batch (shared by the local
/// and server-side `--campaign` paths).
fn render_campaign_progress(
    runs: u64,
    max: u64,
    distinct: u64,
    dedup: u64,
    rate: f64,
    occupancy: f64,
    arms: &[(String, u64, u64)],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = write!(
        out,
        "  runs {runs:>8}/{max}  distinct {distinct:>7}  dedup {dedup:>8}  sched/s {:>8}  occ {:>5.2}%",
        rate.round() as u64,
        occupancy * 100.0,
    );
    let _ = write!(out, "  [");
    for (i, (label, runs, fresh)) in arms.iter().enumerate() {
        let _ = write!(
            out,
            "{}{label} {runs}/{fresh}",
            if i == 0 { "" } else { "  " }
        );
    }
    let _ = write!(out, "]");
    out
}

/// `sherlock explore <app> --campaign [...]` — the streaming campaign
/// engine: a novelty-guided bandit over (strategy, depth) arms with
/// probabilistic dedup, run locally or (with `--addr`) server-side via the
/// daemon's `explore` verb.
fn explore_campaign(app: &App, flags: &Flags) -> Result<(), String> {
    let max_schedules = flag_u64(flags, "max-schedules", 2048)?;
    let seed = flag_u64(flags, "seed", 0)?;
    let jobs = flag_u64(flags, "jobs", 1)? as usize;
    let batch = flag_u64(flags, "batch", 64)?;
    let filter_bits = match flags.get("filter-bits") {
        None => None,
        Some(v) => Some(
            v.parse::<u32>()
                .map_err(|_| format!("--filter-bits expects an integer, got {v:?}"))?,
        ),
    };
    let progress = flags.contains_key("progress");
    let campaign_start = sherlock_obs::snapshot();

    println!(
        "== campaign over {} ({}) — {} schedule(s), batch {}, seed {}",
        app.id, app.name, max_schedules, batch, seed
    );

    if let Some(addr) = flags.get("addr") {
        // Server-side: the daemon runs the campaign against a session and
        // streams the same per-batch frames over the wire.
        let mut client =
            sherlock_serve::Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let mut fields = vec![
            ("max_schedules".to_string(), Json::from(max_schedules)),
            ("seed".to_string(), Json::from(seed)),
            ("jobs".to_string(), Json::from(jobs as u64)),
            ("batch".to_string(), Json::from(batch)),
            ("progress".to_string(), Json::Bool(progress)),
        ];
        if let Some(bits) = filter_bits {
            fields.push(("filter_bits".to_string(), Json::from(u64::from(bits))));
        }
        if let Some(test) = flags.get("test") {
            fields.push(("test".to_string(), Json::from(test.as_str())));
        }
        let session = flags
            .get("session")
            .cloned()
            .unwrap_or_else(|| app.id.to_string());
        let resp = client
            .explore(&session, app.id, fields, |frame| {
                let n = |k: &str| frame.get(k).and_then(Json::as_u64).unwrap_or(0);
                let arms: Vec<(String, u64, u64)> = frame
                    .get("arms")
                    .and_then(|a| match a {
                        Json::Arr(v) => Some(v),
                        _ => None,
                    })
                    .map(|v| {
                        v.iter()
                            .map(|a| {
                                (
                                    a.get("label")
                                        .and_then(Json::as_str)
                                        .unwrap_or("?")
                                        .to_string(),
                                    a.get("runs").and_then(Json::as_u64).unwrap_or(0),
                                    a.get("fresh").and_then(Json::as_u64).unwrap_or(0),
                                )
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                println!(
                    "{}",
                    render_campaign_progress(
                        n("runs"),
                        n("max_schedules"),
                        n("distinct"),
                        n("dedup_hits"),
                        n("sched_per_sec") as f64,
                        frame
                            .get("occupancy")
                            .and_then(|v| match v {
                                Json::Num(f) => Some(*f),
                                _ => None,
                            })
                            .unwrap_or(0.0),
                        &arms,
                    )
                );
            })
            .map_err(|e| format!("explore: {e}"))?;
        if !resp.ok {
            return Err(format!(
                "explore failed: {}",
                resp.error.unwrap_or_default()
            ));
        }
        let n = |k: &str| resp.doc.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "{} run(s): {} distinct, {} dedup hit(s), {} deadlock(s), {} panic schedule(s)",
            n("runs"),
            n("distinct"),
            n("dedup_hits"),
            n("deadlocks"),
            n("panics"),
        );
        println!(
            "  {} sched/s, filter {} KiB, digest {}, absorbed {} into session {:?}",
            n("sched_per_sec"),
            n("filter_bytes") / 1024,
            resp.doc
                .get("distinct_digest")
                .and_then(Json::as_str)
                .unwrap_or("?"),
            n("absorbed"),
            session,
        );
        if let Some(path) = flags.get("out") {
            fs::write(path, resp.doc.render_pretty())
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("campaign report written to {path}");
        }
        return Ok(());
    }

    // Local campaign over the whole test suite (one schedule = the suite
    // sequentially, matching the server-side default).
    let bodies: Vec<_> = app.tests.iter().map(|t| t.body()).collect();
    let workload: std::sync::Arc<dyn Fn() + Send + Sync> = std::sync::Arc::new(move || {
        for body in &bodies {
            body();
        }
    });
    let ccfg = CampaignConfig {
        max_schedules,
        base_seed: seed,
        jobs,
        batch,
        filter_bits,
        ..CampaignConfig::default()
    };
    let result = Campaign::new(ccfg).run_with_progress(workload, |p: &CampaignProgress| {
        if progress {
            let arms: Vec<(String, u64, u64)> = p
                .arms
                .iter()
                .map(|(label, runs, fresh, _)| (label.clone(), *runs, *fresh))
                .collect();
            println!(
                "{}",
                render_campaign_progress(
                    p.runs,
                    p.max_schedules,
                    p.distinct,
                    p.dedup_hits,
                    p.sched_per_sec,
                    p.occupancy,
                    &arms,
                )
            );
        }
    });

    println!(
        "{} run(s): {} distinct, {} dedup hit(s), {} deadlock(s), {} panic schedule(s)",
        result.runs, result.distinct, result.dedup_hits, result.deadlocks, result.panics,
    );
    println!(
        "  {:.0} sched/s over {:.2?}, filter {} KiB at {:.2}% occupancy (fp bound {:.2e}), digest {:016x}",
        result.sched_per_sec,
        result.elapsed,
        result.filter_bytes / 1024,
        result.filter_occupancy * 100.0,
        result.est_fp_rate,
        result.distinct_digest,
    );
    for arm in &result.arms {
        println!(
            "  arm {:<10} {:>8} run(s)  {:>7} fresh  ({:.1}% fresh)",
            arm.label,
            arm.runs,
            arm.fresh,
            if arm.runs > 0 {
                arm.fresh as f64 / arm.runs as f64 * 100.0
            } else {
                0.0
            }
        );
    }
    let delta = sherlock_obs::snapshot().delta(&campaign_start);
    for (name, v) in delta.counters_with_prefix("explore.") {
        println!("  {name:<40} {v:>10}");
    }

    if let Some(path) = flags.get("out") {
        let arms: Vec<Json> = result
            .arms
            .iter()
            .map(|a| {
                Json::Obj(vec![
                    ("label".to_string(), Json::from(a.label.as_str())),
                    ("runs".to_string(), Json::from(a.runs)),
                    ("fresh".to_string(), Json::from(a.fresh)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("app".to_string(), Json::Str(app.id.to_string())),
            ("max_schedules".to_string(), Json::from(max_schedules)),
            ("seed".to_string(), Json::from(seed)),
            ("runs".to_string(), Json::from(result.runs)),
            ("distinct".to_string(), Json::from(result.distinct)),
            ("dedup_hits".to_string(), Json::from(result.dedup_hits)),
            ("deadlocks".to_string(), Json::from(result.deadlocks)),
            ("panics".to_string(), Json::from(result.panics)),
            (
                "distinct_digest".to_string(),
                Json::Str(format!("{:016x}", result.distinct_digest)),
            ),
            ("sched_per_sec".to_string(), Json::Num(result.sched_per_sec)),
            (
                "filter_bytes".to_string(),
                Json::from(result.filter_bytes as u64),
            ),
            (
                "filter_occupancy".to_string(),
                Json::Num(result.filter_occupancy),
            ),
            ("est_fp_rate".to_string(), Json::Num(result.est_fp_rate)),
            ("arms".to_string(), Json::Arr(arms)),
            ("telemetry".to_string(), delta.to_json()),
        ]);
        fs::write(path, doc.render_pretty()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("campaign report written to {path}");
    }
    Ok(())
}

/// `sherlock races <app> [...]`
pub fn races(positional: &[String], flags: &Flags) -> Result<(), String> {
    let app = the_app(positional)?;
    let spec_name = flags.get("spec").map(String::as_str).unwrap_or("inferred");
    let profiler = Profiler::new(flags);
    let spec = match spec_name {
        "manual" => app.truth.manual_spec(),
        "none" => SyncSpec::empty(),
        "inferred" => {
            let rounds = flag_u64(flags, "rounds", 3)? as usize;
            let mut sl = SherLock::new(config_from(flags)?);
            sl.run_rounds(&app.tests, rounds)
                .map_err(|e| format!("solver failed: {e}"))?;
            SyncSpec::from_report(sl.report())
        }
        other => {
            return Err(format!(
                "--spec expects manual|inferred|none, got {other:?}"
            ))
        }
    };
    println!(
        "== {} under the {} spec ({} acquires, {} releases)",
        app.id,
        spec_name,
        spec.acquires.len(),
        spec.releases.len()
    );
    let seed = flag_u64(flags, "seed", 0xD00D)?;
    let mut trues = 0;
    let mut falses = 0;
    for (i, test) in app.tests.iter().enumerate() {
        let run = {
            let _s = sherlock_obs::span("phase.observe");
            test.run(SimConfig::with_seed(seed.wrapping_add(i as u64)))
        };
        match first_race(&run.trace, &spec) {
            Some(r) => {
                let verdict = if app.truth.is_true_race(&r.location) {
                    trues += 1;
                    "TRUE "
                } else {
                    falses += 1;
                    "false"
                };
                println!(
                    "  {:40} {verdict} {:?} at {}",
                    test.name(),
                    r.kind,
                    r.location
                );
            }
            None => println!("  {:40} no race", test.name()),
        }
    }
    println!("{trues} true, {falses} false first reports");
    profiler.finish();
    Ok(())
}

/// `sherlock fleet [--count N] [--seed N] [--rounds N] [--min-precision X]
/// [--min-recall X] [--out scores.json]`
pub fn fleet(flags: &Flags) -> Result<(), String> {
    let count = flag_u64(flags, "count", 32)? as usize;
    let base_seed = flag_u64(flags, "seed", 0xf1ee7)?;
    let rounds = flag_u64(flags, "rounds", 2)? as usize;
    let min_precision = flag_f64(flags, "min-precision", 0.95)?;
    let min_recall = flag_f64(flags, "min-recall", 0.95)?;
    let profiler = Profiler::new(flags);

    let apps = generate_fleet(&GrammarConfig::default(), count, base_seed);
    let score = score_fleet(&apps, rounds)?;
    print!("{}", score.render());
    if let Some(path) = flags.get("out") {
        fs::write(path, score.to_json().render_pretty())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("fleet scores written to {path}");
    }
    profiler.finish();
    if score.precision() < min_precision || score.recall() < min_recall {
        return Err(format!(
            "fleet gate failed: precision {:.3} (min {min_precision:.2}), \
             recall {:.3} (min {min_recall:.2})",
            score.precision(),
            score.recall()
        ));
    }
    Ok(())
}
