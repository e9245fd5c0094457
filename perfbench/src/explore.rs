//! `explore`: fiber-backed schedule campaigns (`jobs = 1`) over the bundled
//! apps' test suites at a fixed schedule budget. No LP, store or serve work:
//! the bypass workload for every solver and store change.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sherlock_apps::all_apps;
use sherlock_obs::json::Json;
use sherlock_sim::{Campaign, CampaignConfig, CampaignResult, Sim};

use crate::layers::{counter, ratio, span_total, LayerTable, Row};
use crate::stats::{percentile, sorted};
use crate::{overhead_pct, repeat_setup, Budget, Ctx, Report};

/// Schedules per campaign.
const BUDGET: u64 = 128;
/// Campaigns per pass of the traced run.
const TRACE_CAMPAIGNS: usize = 24;
/// Campaigns whose digests must repeat exactly for a seed.
const DIGEST_PREFIX: usize = 8;

type Workload = Arc<dyn Fn() + Send + Sync>;

/// One campaign to run: which app's suite, from which base seed.
#[derive(Clone, Copy)]
struct Job {
    app: usize,
    base_seed: u64,
}

/// SplitMix64: the benchmark's own seeded stream for choosing inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Setup {
    workloads: Vec<Workload>,
    order: Vec<usize>,
    seed: u64,
}

impl Setup {
    /// Campaign `i` walks the apps in a seeded order, each visit with its
    /// own seeded base seed.
    fn job(&self, i: usize) -> Job {
        let mut s = self.seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        Job {
            app: self.order[i % self.order.len()],
            base_seed: splitmix(&mut s),
        }
    }
}

fn setup(seed: u64) -> Setup {
    let workloads: Vec<Workload> = all_apps()
        .iter()
        .map(|app| {
            let bodies: Vec<_> = app.tests.iter().map(|t| t.body()).collect();
            Arc::new(move || {
                for body in &bodies {
                    body();
                }
            }) as Workload
        })
        .collect();
    let mut order: Vec<usize> = (0..workloads.len()).collect();
    let mut s = seed;
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix(&mut s) % (i as u64 + 1)) as usize);
    }
    Setup {
        workloads,
        order,
        seed,
    }
}

fn config(job: Job) -> CampaignConfig {
    CampaignConfig {
        max_schedules: BUDGET,
        base_seed: job.base_seed,
        jobs: 1,
        ..CampaignConfig::default()
    }
}

/// Runs one campaign; with `arm_runs` it also records, per batch, how many
/// runs each arm got (enough to replay the exact schedules afterwards).
fn campaign(s: &Setup, job: Job, arm_runs: Option<&mut Vec<Vec<u64>>>) -> CampaignResult {
    let c = Campaign::new(config(job));
    let w = Arc::clone(&s.workloads[job.app]);
    match arm_runs {
        None => c.run(w),
        Some(batches) => c.run_with_progress(w, |p| {
            batches.push(p.arms.iter().map(|a| a.1).collect());
        }),
    }
}

struct Pass {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    runs: u64,
    distinct: u64,
    errors: Vec<String>,
}

fn run_pass(s: &Setup, budget: Budget) -> Pass {
    let start = Instant::now();
    let mut pass = Pass {
        latencies_ms: Vec::new(),
        wall_s: 0.0,
        runs: 0,
        distinct: 0,
        errors: Vec::new(),
    };
    for i in 0.. {
        if budget.done(i, start) {
            break;
        }
        let t0 = Instant::now();
        let r = campaign(s, s.job(i), None);
        pass.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if r.runs != BUDGET {
            pass.errors
                .push(format!("campaign {i} ran {} of {BUDGET} schedules", r.runs));
        }
        pass.runs += r.runs;
        pass.distinct += r.distinct;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// The traced pass: the same campaigns as [`run_pass`], each replayed
/// right after it runs (so both see the same machine state) to split its
/// time into the simulator and the dedup step. Program counters are summed
/// over the campaigns only, not the replays.
struct TracedPass {
    /// Time inside the campaigns, replays excluded.
    wall_ns: u64,
    campaign_ns: u64,
    sim_ns: u64,
    dedup_ns: u64,
    runs: u64,
    counters: BTreeMap<String, u64>,
    errors: Vec<String>,
}

fn traced_pass(s: &Setup) -> TracedPass {
    let mut t = TracedPass {
        wall_ns: 0,
        campaign_ns: 0,
        sim_ns: 0,
        dedup_ns: 0,
        runs: 0,
        counters: BTreeMap::new(),
        errors: Vec::new(),
    };
    for i in 0..TRACE_CAMPAIGNS {
        let job = s.job(i);
        let mut batches = Vec::new();
        let before = sherlock_obs::snapshot();
        let t0 = Instant::now();
        let r = campaign(s, job, Some(&mut batches));
        t.wall_ns += t0.elapsed().as_nanos() as u64;
        let delta = sherlock_obs::snapshot().delta(&before);
        t.campaign_ns += span_total(&delta, "explore.campaign");
        for (k, v) in delta.counters {
            *t.counters.entry(k).or_default() += v;
        }
        t.runs += r.runs;
        let (sim, dedup, same) = replay(s, job, r.distinct_digest, &batches);
        if !same {
            t.errors.push(format!(
                "replaying campaign {i}'s schedules gave a different digest"
            ));
        }
        t.sim_ns += sim;
        t.dedup_ns += dedup;
    }
    t
}

/// The first [`DIGEST_PREFIX`] campaigns of a seed, folded into one digest
/// and one distinct count: both must repeat exactly across runs.
fn prefix_signature(s: &Setup) -> (u64, u64) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut distinct = 0;
    for i in 0..DIGEST_PREFIX {
        let r = campaign(s, s.job(i), None);
        digest = (digest ^ r.distinct_digest).wrapping_mul(0x0000_0100_0000_01b3);
        distinct += r.distinct;
    }
    (digest, distinct)
}

/// Replays a traced campaign's schedules one by one straight through the
/// simulator, timing the kernel and the dedup step (hash + bloom insert)
/// apart. Returns `(sim_ns, dedup_ns, matches the campaign's digest)`.
fn replay(s: &Setup, job: Job, digest: u64, batches: &[Vec<u64>]) -> (u64, u64, bool) {
    let cfg = config(job);
    let mut filter = sherlock_sim::filter::ScheduleFilter::for_expected(cfg.max_schedules);
    let mut replayed = 0xcbf2_9ce4_8422_2325u64;
    let (mut sim_ns, mut dedup_ns) = (0u64, 0u64);
    let mut run = 0u64;
    let mut prev = vec![0u64; cfg.arms.len()];
    for cumulative in batches {
        for (arm, (&now, before)) in cumulative.iter().zip(prev.iter_mut()).enumerate() {
            for _ in *before..now {
                let mut sim_cfg = cfg.sim.clone();
                sim_cfg.seed = cfg.base_seed.wrapping_add(run);
                sim_cfg.strategy = cfg.arms[arm];
                let w = Arc::clone(&s.workloads[job.app]);
                let t0 = Instant::now();
                let report = Sim::new(sim_cfg).run(move || w());
                let t1 = Instant::now();
                let hash = report.trace.stable_hash();
                let fresh = filter.insert(hash);
                dedup_ns += t1.elapsed().as_nanos() as u64;
                sim_ns += (t1 - t0).as_nanos() as u64;
                if fresh {
                    for byte in hash.to_le_bytes() {
                        replayed = (replayed ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
                run += 1;
            }
            *before = now;
        }
    }
    (
        sim_ns,
        dedup_ns,
        replayed == digest && run == cfg.max_schedules,
    )
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    // Set-up builds the suites and runs the seed's first campaigns, the
    // warm-up and determinism reference; every repeat must agree.
    let mut signatures = Vec::new();
    let (s, reference) = repeat_setup(
        &mut report,
        || {
            let s = setup(ctx.seed);
            let signature = prefix_signature(&s);
            (s, signature)
        },
        |(_, signature)| signatures.push(signature),
    );
    if signatures.iter().any(|&sig| sig != reference) {
        report
            .errors
            .push("the first campaigns of one seed gave different digests across set-ups".into());
    }
    let (digest, distinct) = reference;

    let mut untraced = Vec::new();
    let mut overheads = Vec::new();
    let mut first_traced = None;
    let deadline = Instant::now();
    if ctx.trace {
        while untraced.is_empty() || deadline.elapsed().as_secs_f64() < ctx.seconds {
            let plain = run_pass(&s, Budget::Ops(TRACE_CAMPAIGNS));
            let traced = traced_pass(&s);
            overheads.push(overhead_pct(traced.wall_ns as f64 / 1e9, plain.wall_s));
            untraced.push(plain);
            first_traced.get_or_insert(traced);
        }
    } else {
        untraced.push(run_pass(&s, Budget::Time(ctx.seconds)));
    }
    if prefix_signature(&s) != (digest, distinct) {
        report
            .errors
            .push("campaign digests changed between two replays of one seed".into());
    }
    // Result files store numbers as JSON doubles: keep the digest's low 53
    // bits so it round-trips exactly.
    report
        .exact
        .push(("campaign.prefix_digest".into(), digest & ((1 << 53) - 1)));
    report
        .exact
        .push(("campaign.prefix_distinct".into(), distinct));

    let lat = sorted(
        untraced
            .iter()
            .flat_map(|p| p.latencies_ms.clone())
            .collect(),
    );
    let n = lat.len() as u64;
    let wall: f64 = untraced.iter().map(|p| p.wall_s).sum();
    let runs: u64 = untraced.iter().map(|p| p.runs).sum();
    let distinct_total: u64 = untraced.iter().map(|p| p.distinct).sum();
    report.attempted = n;
    for p in &untraced {
        report.errors.extend(p.errors.iter().cloned());
    }
    report.failed = untraced.iter().map(|p| p.errors.len() as u64).sum();
    report.metric("ops_per_s", n as f64 / wall, "1/s", n);
    report.metric("op_ms_p50", percentile(&lat, 50), "ms", n);
    report.metric("op_ms_p95", percentile(&lat, 95), "ms", n);
    report.metric("sched_per_s", runs as f64 / wall, "1/s", runs);
    report.metric(
        "distinct_sched",
        distinct_total as f64 / n as f64,
        "count",
        n,
    );
    report.info("schedules_per_campaign", Json::from(BUDGET));
    report.info("jobs", Json::from(1u64));

    if let Some(traced) = first_traced {
        report.errors.extend(traced.errors.iter().cloned());
        let (sim_ns, dedup_ns, campaign_ns) = (traced.sim_ns, traced.dedup_ns, traced.campaign_ns);
        // The replay re-runs each campaign's exact schedules right after
        // it; when it ran longer than the campaign itself, its split is
        // scaled down to the campaign's time (the overshoot is recorded).
        let replay_ns = sim_ns + dedup_ns;
        let scale = |ns: u64| {
            if replay_ns > campaign_ns {
                (ns as f64 * campaign_ns as f64 / replay_ns as f64) as u64
            } else {
                ns
            }
        };
        report.info(
            "replay_over_campaign",
            Json::Num(replay_ns as f64 / campaign_ns.max(1) as f64),
        );
        let rows = vec![
            Row {
                layer: "sim (schedule replay)".into(),
                self_ns: scale(sim_ns),
                calls: traced.runs,
            },
            Row {
                layer: "sim.campaign.dedup (replay)".into(),
                self_ns: scale(dedup_ns),
                calls: traced.runs,
            },
            Row {
                layer: "sim.campaign".into(),
                self_ns: campaign_ns.saturating_sub(replay_ns),
                calls: TRACE_CAMPAIGNS as u64,
            },
        ];
        let table = LayerTable::from_rows("traced campaigns' wall", traced.wall_ns, rows);
        report.tables.push(table);
        let samples = TRACE_CAMPAIGNS as u64;
        let snap = sherlock_obs::Snapshot {
            counters: traced.counters,
            ..Default::default()
        };
        crate::common_counts(&mut report, &snap, samples);
        report.metric("sim.run_ns", sim_ns as f64, "ns", traced.runs);
        report.metric("campaign.dedup_ns", dedup_ns as f64, "ns", traced.runs);
        let c = |name: &str| counter(&snap, name);
        report.metric("campaign.runs", c("explore.runs") as f64, "count", samples);
        report.metric(
            "campaign.distinct",
            c("explore.distinct_traces") as f64,
            "count",
            samples,
        );
        report.metric(
            "campaign.dedup_hits",
            c("explore.dedup_hits") as f64,
            "count",
            samples,
        );
        report.metric(
            "campaign.fresh_ratio",
            ratio(c("explore.distinct_traces"), c("explore.runs")),
            "ratio",
            c("explore.runs"),
        );
        for name in [
            "kernel.steps",
            "kernel.context_switches",
            "kernel.events_traced",
            "explore.runs",
            "explore.distinct_traces",
            "explore.dedup_hits",
        ] {
            report.exact.push((name.to_string(), c(name)));
        }
        report.metric(
            "obs.overhead_pct",
            crate::stats::median(&overheads),
            "%",
            overheads.len() as u64,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_replay_with_another_digest_is_caught() {
        let s = setup(7);
        let job = s.job(0);
        let mut batches = Vec::new();
        let r = campaign(&s, job, Some(&mut batches));
        assert_eq!(r.runs, BUDGET);
        assert!(replay(&s, job, r.distinct_digest, &batches).2);
        assert!(!replay(&s, job, r.distinct_digest ^ 1, &batches).2);
    }

    #[test]
    fn the_prefix_signature_repeats_for_a_seed_and_differs_across_seeds() {
        let a = prefix_signature(&setup(3));
        assert_eq!(a, prefix_signature(&setup(3)));
        assert_ne!(a, prefix_signature(&setup(4)));
    }
}
