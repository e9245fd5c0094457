//! Schedule-exploration throughput benchmark.
//!
//! Headline number: **schedules/sec of the streaming campaign engine vs. a
//! fixed-strategy baseline at equal worker count (`jobs = 1`)**. The
//! baseline row is a one-arm random-walk campaign on the OS-thread
//! simulator backend that retains every distinct report, so the speedup
//! column isolates what the default campaign buys: fiber scheduling, the
//! arm bandit, and bounded retention.
//!
//! Also measured and recorded, because the campaign's claims are about
//! more than throughput:
//!
//! - **memory bound**: the bloom filter's byte size, the retention caps,
//!   and the process peak RSS (`VmHWM`) before/after the campaign;
//! - **replay determinism**: the same `(config, seed)` is run twice and
//!   the distinct-hash digests must be identical;
//! - **per-strategy breakdown**: the bandit's per-arm runs/fresh split
//!   plus a per-strategy table of one-arm campaigns per unit test.
//!
//! Writes `results/BENCH_explore.json` and prints summary tables.

use std::sync::Arc;
use std::time::Instant;

use sherlock_apps::{all_apps, App};
use sherlock_bench::{cells, TablePrinter};
use sherlock_obs::json::Json;
use sherlock_sim::{Campaign, CampaignConfig, SimBackend, StrategyKind};

const APPS: [&str; 2] = ["App-1", "App-7"];
/// Baseline runs are expensive (one OS thread per simulated spawn), so the
/// sample is small; rates are reported per second regardless.
const BASELINE_RUNS: u64 = 96;
const CAMPAIGN_RUNS: u64 = 2048;
const REPLAY_RUNS: u64 = 512;
const RUNS_PER_TEST: u64 = 24;

/// The whole test suite run back to back — the campaign's native workload
/// shape, and what the `explore` verb executes server-side.
fn suite_workload(app: &App) -> Arc<dyn Fn() + Send + Sync> {
    let bodies: Vec<_> = app.tests.iter().map(|t| t.body()).collect();
    Arc::new(move || {
        for body in &bodies {
            body();
        }
    })
}

/// Peak resident set size in bytes, from `/proc/self/status` (Linux only).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn main() {
    sherlock_sim::install_sim_panic_hook();
    sherlock_obs::init_from_env();

    let apps: Vec<_> = all_apps()
        .into_iter()
        .filter(|a| APPS.contains(&a.id))
        .collect();
    let wall_start = Instant::now();
    let t = TablePrinter::new(&[10, 18, 8, 10, 8, 10, 12, 10]);

    println!("Exploration benchmark (jobs=1, equal worker count)\n");
    println!(
        "{}",
        t.row(cells![
            "app",
            "engine",
            "runs",
            "distinct",
            "dedup%",
            "wall(ms)",
            "sched/sec",
            "speedup"
        ])
    );
    println!("{}", t.rule());

    let mut app_rows: Vec<Json> = Vec::new();
    let mut min_speedup = f64::INFINITY;
    let mut headline_sched_per_sec = 0f64;
    for app in &apps {
        let workload = suite_workload(app);

        // The speedup column's denominator (see the module docs).
        let mut bcfg = CampaignConfig {
            max_schedules: BASELINE_RUNS,
            jobs: 1,
            arms: vec![StrategyKind::RandomWalk],
            report_cap: usize::MAX,
            ..CampaignConfig::default()
        };
        bcfg.sim.backend = SimBackend::OsThreads;
        let start = Instant::now();
        let baseline = Campaign::new(bcfg).run(Arc::clone(&workload));
        let baseline_secs = start.elapsed().as_secs_f64().max(1e-9);
        let baseline_rate = baseline.runs as f64 / baseline_secs;
        println!(
            "{}",
            t.row(cells![
                app.id,
                "fixed-os(base)",
                baseline.runs,
                baseline.distinct,
                format!(
                    "{:.1}",
                    100.0 * baseline.dedup_hits as f64 / baseline.runs as f64
                ),
                format!("{:.1}", baseline_secs * 1e3),
                format!("{baseline_rate:.0}"),
                "1.0x"
            ])
        );

        // The streaming campaign at the same worker count.
        let mut ccfg = CampaignConfig::default();
        ccfg.max_schedules = CAMPAIGN_RUNS;
        ccfg.jobs = 1;
        ccfg.report_cap = 0;
        let result = Campaign::new(ccfg).run(Arc::clone(&workload));
        let campaign_rate = result.sched_per_sec;
        let speedup = campaign_rate / baseline_rate;
        min_speedup = min_speedup.min(speedup);
        headline_sched_per_sec = headline_sched_per_sec.max(campaign_rate);
        let dedup_rate = result.dedup_hits as f64 / result.runs.max(1) as f64;
        println!(
            "{}",
            t.row(cells![
                app.id,
                "campaign(fibers)",
                result.runs,
                result.distinct,
                format!("{:.1}", 100.0 * dedup_rate),
                format!("{:.1}", result.elapsed.as_secs_f64() * 1e3),
                format!("{campaign_rate:.0}"),
                format!("{speedup:.1}x")
            ])
        );

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
        app_rows.push(Json::Obj(vec![
            ("app".to_string(), Json::from(app.id)),
            (
                "baseline".to_string(),
                Json::Obj(vec![
                    (
                        "engine".to_string(),
                        Json::from("fixed-arm-campaign-os-threads"),
                    ),
                    ("runs".to_string(), Json::from(baseline.runs)),
                    ("distinct".to_string(), Json::from(baseline.distinct)),
                    ("runs_per_sec".to_string(), Json::Num(baseline_rate)),
                ]),
            ),
            (
                "campaign".to_string(),
                Json::Obj(vec![
                    ("engine".to_string(), Json::from("campaign-fibers")),
                    ("runs".to_string(), Json::from(result.runs)),
                    ("distinct".to_string(), Json::from(result.distinct)),
                    ("dedup_hits".to_string(), Json::from(result.dedup_hits)),
                    ("dedup_rate".to_string(), Json::Num(dedup_rate)),
                    ("sched_per_sec".to_string(), Json::Num(campaign_rate)),
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
                ]),
            ),
            ("speedup".to_string(), Json::Num(speedup)),
        ]));
    }
    println!("{}", t.rule());

    // Replay determinism: same (config, seed) twice → identical digests.
    let replay_app = &apps[0];
    let replay = |seed: u64| {
        let mut ccfg = CampaignConfig::default();
        ccfg.max_schedules = REPLAY_RUNS;
        ccfg.base_seed = seed;
        ccfg.jobs = 1;
        ccfg.report_cap = 0;
        Campaign::new(ccfg).run(suite_workload(replay_app))
    };
    let (ra, rb) = (replay(7), replay(7));
    let replay_identical = ra.distinct_digest == rb.distinct_digest;
    assert!(
        replay_identical,
        "replay diverged: {:016x} vs {:016x}",
        ra.distinct_digest, rb.distinct_digest
    );
    println!(
        "\nreplay: 2x {} runs on {} -> digest {:016x} both times: identical",
        REPLAY_RUNS, replay_app.id, ra.distinct_digest
    );

    // Memory bound: retention is capped and the dedup set is the fixed-size
    // bloom filter, so peak RSS stays flat as runs grow.
    let peak_rss = peak_rss_bytes();
    if let Some(rss) = peak_rss {
        println!(
            "memory: filter {} KiB, report cap 0, peak RSS {} MiB",
            ra.filter_bytes / 1024,
            rss / (1024 * 1024)
        );
    }

    // Per-strategy table: a one-arm campaign per unit test, with the same
    // per-test seed blocks as `sherlock explore`.
    let strategies = [
        StrategyKind::RandomWalk,
        StrategyKind::Pct { depth: 3 },
        StrategyKind::RoundRobin { quantum: 4 },
    ];
    let lt = TablePrinter::new(&[10, 10, 8, 10, 12, 14]);
    println!("\nPer-strategy campaigns ({RUNS_PER_TEST} runs per test, fibers)\n");
    println!(
        "{}",
        lt.row(cells![
            "app", "strategy", "runs", "distinct", "wall(ms)", "runs/sec"
        ])
    );
    println!("{}", lt.rule());
    let mut strategy_rows: Vec<Json> = Vec::new();
    for app in &apps {
        for strategy in strategies {
            let start = Instant::now();
            let mut runs = 0u64;
            let mut distinct = 0u64;
            for (i, test) in app.tests.iter().enumerate() {
                let ccfg = CampaignConfig {
                    max_schedules: RUNS_PER_TEST,
                    base_seed: (i as u64) << 32,
                    arms: vec![strategy],
                    report_cap: usize::MAX,
                    ..CampaignConfig::default()
                };
                let result = Campaign::new(ccfg).run(test.body());
                runs += result.runs;
                distinct += result.distinct;
            }
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            println!(
                "{}",
                lt.row(cells![
                    app.id,
                    strategy.name(),
                    runs,
                    distinct,
                    format!("{:.1}", secs * 1e3),
                    format!("{:.0}", runs as f64 / secs)
                ])
            );
            strategy_rows.push(Json::Obj(vec![
                ("app".to_string(), Json::from(app.id)),
                ("strategy".to_string(), Json::from(strategy.name())),
                ("runs".to_string(), Json::from(runs)),
                ("distinct".to_string(), Json::from(distinct)),
                ("runs_per_sec".to_string(), Json::Num(runs as f64 / secs)),
            ]));
        }
    }
    println!("{}", lt.rule());
    let wall_ns = wall_start.elapsed().as_nanos() as u64;

    let mut doc = vec![
        ("benchmark".to_string(), Json::from("explore")),
        ("jobs".to_string(), Json::from(1u64)),
        ("campaign_runs".to_string(), Json::from(CAMPAIGN_RUNS)),
        ("baseline_runs".to_string(), Json::from(BASELINE_RUNS)),
        ("wall_ns".to_string(), Json::from(wall_ns)),
        (
            "headline_sched_per_sec".to_string(),
            Json::Num(headline_sched_per_sec),
        ),
        (
            "min_speedup_vs_prechange".to_string(),
            Json::Num(min_speedup),
        ),
        ("apps".to_string(), Json::Arr(app_rows)),
        ("replay_identical".to_string(), Json::Bool(replay_identical)),
        (
            "replay_digest".to_string(),
            Json::from(format!("{:016x}", ra.distinct_digest)),
        ),
        (
            "memory".to_string(),
            Json::Obj(vec![
                (
                    "filter_bytes".to_string(),
                    Json::from(ra.filter_bytes as u64),
                ),
                ("report_cap".to_string(), Json::from(0u64)),
                (
                    "peak_rss_bytes".to_string(),
                    peak_rss.map(Json::from).unwrap_or(Json::Null),
                ),
            ]),
        ),
        ("per_strategy".to_string(), Json::Arr(strategy_rows)),
        ("telemetry".to_string(), sherlock_obs::snapshot().to_json()),
    ];
    doc.retain(|(_, v)| !matches!(v, Json::Null));

    let path = sherlock_bench::results_path("BENCH_explore.json");
    std::fs::write(&path, Json::Obj(doc).render_pretty()).expect("write BENCH_explore.json");
    println!(
        "\ntotal {:.1} ms wall, min speedup vs fixed-strategy baseline: {min_speedup:.1}x",
        wall_ns as f64 / 1e6
    );
    println!("wrote {}", path.display());
}
