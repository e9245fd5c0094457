//! Acceptance tests for the schedule-exploration harness: PCT must buy real
//! schedule coverage over a single random-walk run, and exploration must be
//! deterministic — the same campaign yields the same distinct-schedule set
//! regardless of how many worker threads fan it out.

use std::collections::BTreeSet;

use sherlock_apps::{all_apps, App};
use sherlock_racer::detect;
use sherlock_sim::{Campaign, CampaignConfig, CampaignResult, StrategyKind};

const CANARY: &str = "App-1";
const PCT_RUNS: u64 = 24;

/// Fixed-strategy exploration of one unit test: a one-arm campaign that
/// keeps every distinct report, with the same per-test seed-block layout as
/// `sherlock explore`.
fn explore_test(
    app: &App,
    t: usize,
    strategy: StrategyKind,
    runs: u64,
    jobs: usize,
) -> CampaignResult {
    let cfg = CampaignConfig {
        max_schedules: runs,
        base_seed: (t as u64) << 32,
        jobs,
        arms: vec![strategy],
        report_cap: usize::MAX,
        ..CampaignConfig::default()
    };
    Campaign::new(cfg).run(app.tests[t].body())
}

fn canary() -> App {
    all_apps()
        .into_iter()
        .find(|a| a.id == CANARY)
        .expect("canary app exists")
}

/// Runs one exploration campaign per unit test and returns the stable
/// hashes of every distinct schedule in which FastTrack (under the
/// ground-truth spec) reports a seeded race.
fn racy_schedule_hashes(
    app: &App,
    strategy: StrategyKind,
    runs: u64,
    jobs: usize,
) -> BTreeSet<u64> {
    let ground = app.truth.full_spec();
    let mut racy = BTreeSet::new();
    for t in 0..app.tests.len() {
        let result = explore_test(app, t, strategy, runs, jobs);
        for report in &result.reports {
            let seeded = detect(&report.trace, &ground)
                .iter()
                .any(|r| app.truth.is_true_race(&r.location));
            if seeded {
                racy.insert(report.trace.stable_hash());
            }
        }
    }
    racy
}

/// The headline acceptance property: PCT at depth 3 deterministically finds
/// at least two distinct racy schedules on the canary app that a single
/// random-walk run at seed 0 (the old one-seed workflow) does not see.
#[test]
fn pct_finds_racy_schedules_single_random_walk_misses() {
    let app = canary();
    let baseline = racy_schedule_hashes(&app, StrategyKind::RandomWalk, 1, 1);
    let pct = racy_schedule_hashes(&app, StrategyKind::Pct { depth: 3 }, PCT_RUNS, 0);
    let novel: BTreeSet<u64> = pct.difference(&baseline).copied().collect();
    assert!(
        novel.len() >= 2,
        "PCT found {} racy schedule(s) beyond the seed-0 random walk \
         (pct: {} racy, baseline: {} racy) — expected at least 2",
        novel.len(),
        pct.len(),
        baseline.len()
    );
}

/// The racy-schedule set a campaign discovers is a pure function of its
/// configuration: repeating the campaign — and changing only the worker
/// fan-out — reproduces the exact same hash set.
#[test]
fn exploration_is_deterministic_across_invocations_and_jobs() {
    let app = canary();
    let strategy = StrategyKind::Pct { depth: 3 };
    let first = racy_schedule_hashes(&app, strategy, PCT_RUNS, 1);
    let second = racy_schedule_hashes(&app, strategy, PCT_RUNS, 1);
    assert_eq!(first, second, "same campaign, different racy sets");
    let wide = racy_schedule_hashes(&app, strategy, PCT_RUNS, 4);
    assert_eq!(first, wide, "worker count changed the racy set");
}

/// Every strategy contributes: on the canary app each of the three
/// strategies discovers more than one distinct schedule across the suite,
/// i.e. none of them degenerates into replaying a single interleaving.
#[test]
fn every_strategy_expands_schedule_coverage() {
    let app = canary();
    for strategy in [
        StrategyKind::RandomWalk,
        StrategyKind::Pct { depth: 3 },
        StrategyKind::RoundRobin { quantum: 4 },
    ] {
        let mut distinct = BTreeSet::new();
        for t in 0..app.tests.len() {
            let result = explore_test(&app, t, strategy, 8, 0);
            distinct.extend(result.reports.iter().map(|r| r.trace.stable_hash()));
        }
        assert!(
            distinct.len() > 1,
            "strategy {} collapsed to {} distinct schedule(s)",
            strategy.name(),
            distinct.len()
        );
    }
}
