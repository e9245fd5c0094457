//! `infer`: single-threaded batch inference, the paper's 3 rounds per app,
//! over a seeded sample of generated fleet apps scored against the ground
//! truth their construction defines.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use sherlock_core::{infer_seeded, InferenceReport};
use sherlock_fleet::{evaluate, generate_fleet, GeneratedApp, GrammarConfig};
use sherlock_obs::json::Json;

use crate::layers::{self, counter, LayerTable};
use crate::stats::{percentile, sorted};
use crate::{overhead_pct, repeat_setup, Budget, Ctx, Report};

/// Rounds per app, as in the paper's evaluation.
pub const ROUNDS: usize = 3;
/// Distinct apps drawn per seed; a run cycles through them.
const SAMPLE_APPS: usize = 1024;
/// Apps per pass of the traced run (fixed, so its counts repeat exactly).
const TRACE_APPS: usize = 64;
/// Apps inferred before timing starts.
const WARMUP_APPS: usize = 4;
/// The precision and recall floors the CI fleet gate uses.
pub const FLOOR: f64 = 0.95;

/// Spec-quality tally over the distinct apps of a run, plus a digest of
/// each app's first report so repeated visits must reproduce it.
#[derive(Default)]
pub struct Scorer {
    first: BTreeMap<usize, u64>,
    true_sync: usize,
    not_sync: usize,
    covered: usize,
    total: usize,
    not_sync_by_idiom: BTreeMap<String, usize>,
    pub errors: Vec<String>,
}

fn digest(report: &InferenceReport) -> u64 {
    let mut h = DefaultHasher::new();
    report.render().hash(&mut h);
    h.finish()
}

impl Scorer {
    /// Grades `report` the first time app `index` is seen; afterwards only
    /// checks that inference reproduced the same report.
    pub fn check(&mut self, index: usize, app: &GeneratedApp, report: &InferenceReport) {
        let d = digest(report);
        if let Some(&seen) = self.first.get(&index) {
            if seen != d {
                self.errors.push(format!(
                    "{}: repeated inference gave a different report",
                    app.id
                ));
            }
            return;
        }
        self.first.insert(index, d);
        let score = evaluate(app, report);
        self.true_sync += score.counts.true_sync;
        self.not_sync += score.counts.not_sync;
        self.covered += score.groups_covered;
        self.total += score.groups_total;
        for (idiom, s) in &score.per_idiom {
            if s.counts.not_sync > 0 {
                *self
                    .not_sync_by_idiom
                    .entry(idiom.name().to_string())
                    .or_default() += s.counts.not_sync;
            }
        }
    }

    pub fn apps(&self) -> usize {
        self.first.len()
    }

    pub fn precision(&self) -> f64 {
        let denom = self.true_sync + self.not_sync;
        if denom == 0 {
            1.0
        } else {
            self.true_sync as f64 / denom as f64
        }
    }

    pub fn recall(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.covered as f64 / self.total as f64
        }
    }

    /// Fails when spec quality fell below the floors.
    pub fn floor_errors(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, v) in [("precision", self.precision()), ("recall", self.recall())] {
            if v < FLOOR {
                out.push(format!(
                    "{name} {v:.4} over {} apps is below the {FLOOR} floor",
                    self.apps()
                ));
            }
        }
        out
    }
}

struct Pass {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    failed: u64,
}

fn run_pass(apps: &[GeneratedApp], budget: Budget, traced: bool, scorer: &mut Scorer) -> Pass {
    let start = Instant::now();
    let mut pass = Pass {
        latencies_ms: Vec::new(),
        wall_s: 0.0,
        failed: 0,
    };
    for i in 0.. {
        if budget.done(i, start) {
            break;
        }
        let index = i % apps.len();
        let app = &apps[index];
        let t0 = Instant::now();
        let result = {
            let _s = traced.then(|| sherlock_obs::span("bench.app"));
            infer_seeded(&app.tests, ROUNDS, app.seed)
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(report) => {
                pass.latencies_ms.push(ms);
                let _s = traced.then(|| sherlock_obs::span("bench.score"));
                scorer.check(index, app, &report);
            }
            Err(e) => {
                pass.failed += 1;
                scorer
                    .errors
                    .push(format!("{}: solver failed: {e:?}", app.id));
            }
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let apps = repeat_setup(
        &mut report,
        || generate_fleet(&GrammarConfig::default(), SAMPLE_APPS, ctx.seed),
        drop,
    );
    let mut scorer = Scorer::default();
    run_pass(&apps, Budget::Ops(WARMUP_APPS), false, &mut scorer);

    let mut untraced: Vec<Pass> = Vec::new();
    let mut overheads = Vec::new();
    let mut traced_pass = None;
    let deadline = Instant::now();
    if ctx.trace {
        // Alternate untraced and traced passes over the same apps; the
        // first traced pass gives the layer table and the counts.
        while untraced.is_empty() || deadline.elapsed().as_secs_f64() < ctx.seconds {
            let plain = run_pass(&apps, Budget::Ops(TRACE_APPS), false, &mut scorer);
            let before = sherlock_obs::snapshot();
            let traced = run_pass(&apps, Budget::Ops(TRACE_APPS), true, &mut scorer);
            let delta = sherlock_obs::snapshot().delta(&before);
            overheads.push(overhead_pct(traced.wall_s, plain.wall_s));
            untraced.push(plain);
            traced_pass.get_or_insert((traced, delta));
        }
    } else {
        untraced.push(run_pass(
            &apps,
            Budget::Time(ctx.seconds),
            false,
            &mut scorer,
        ));
    }

    let lat = sorted(
        untraced
            .iter()
            .flat_map(|p| p.latencies_ms.clone())
            .collect(),
    );
    let wall: f64 = untraced.iter().map(|p| p.wall_s).sum();
    let failed: u64 = untraced.iter().map(|p| p.failed).sum();
    report.attempted = lat.len() as u64 + failed;
    report.failed = failed;
    let n = lat.len() as u64;
    let apps_per_s = n as f64 / wall;
    report.metric("ops_per_s", apps_per_s, "1/s", n);
    report.metric("op_ms_p50", percentile(&lat, 50), "ms", n);
    report.metric("op_ms_p95", percentile(&lat, 95), "ms", n);
    report.metric("apps_per_s", apps_per_s, "1/s", n);
    report.metric("app_ms_p50", percentile(&lat, 50), "ms", n);
    report.metric("app_ms_p95", percentile(&lat, 95), "ms", n);
    let scored = scorer.apps() as u64;
    report.metric("precision", scorer.precision(), "ratio", scored);
    report.metric("recall", scorer.recall(), "ratio", scored);
    report.errors.extend(scorer.errors.iter().cloned());
    report.errors.extend(scorer.floor_errors());
    report.info("rounds", Json::from(ROUNDS));
    report.info("sample_apps", Json::from(SAMPLE_APPS));
    report.info(
        "not_sync_by_idiom",
        scorer
            .not_sync_by_idiom
            .iter()
            .map(|(k, &v)| (k.clone(), Json::from(v)))
            .collect(),
    );

    if let Some((traced, snap)) = traced_pass {
        let wall_ns = (traced.wall_s * 1e9) as u64;
        report
            .tables
            .push(LayerTable::from_spans("traced pass wall", wall_ns, &snap));
        layer_metrics(&mut report, &snap, TRACE_APPS as u64);
        report.metric(
            "obs.overhead_pct",
            crate::stats::median(&overheads),
            "%",
            overheads.len() as u64,
        );
    }
    report
}

/// Per-layer metrics of a traced inference pass.
fn layer_metrics(report: &mut Report, snap: &sherlock_obs::Snapshot, apps: u64) {
    let m = |report: &mut Report, name: &str, v: f64, unit: &'static str| {
        report.metric(name, v, unit, apps)
    };
    m(
        report,
        "sim.run_ns",
        layers::self_ns(snap, "phase.observe") as f64,
        "ns",
    );
    crate::common_counts(report, snap, apps);
    m(
        report,
        "perturber.refine_ns",
        layers::self_ns(snap, "phase.perturb") as f64,
        "ns",
    );
    m(
        report,
        "perturber.delays_injected",
        counter(snap, "perturber.delays_injected") as f64,
        "count",
    );
    let exact = [
        "simplex.pivots",
        "simplex.solves",
        "windows.extracted",
        "windows.racy",
        "kernel.steps",
        "kernel.context_switches",
        "perturber.confirmations",
        "perturber.exclusions",
        "perturber.delays_injected",
    ];
    for name in exact {
        report.exact.push((name.to_string(), counter(snap, name)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherlock_core::{InferredOp, Role};
    use sherlock_fleet::generate;
    use sherlock_trace::OpRef;

    #[test]
    fn a_changed_report_on_a_repeat_visit_is_caught() {
        let app = generate(&GrammarConfig::default(), 11);
        let report = infer_seeded(&app.tests, 1, app.seed).unwrap();
        let mut scorer = Scorer::default();
        scorer.check(0, &app, &report);
        scorer.check(0, &app, &report);
        assert!(scorer.errors.is_empty());
        let mut other = report.clone();
        other.inferred.push(InferredOp {
            op: OpRef::field_write("Nowhere", "x").intern(),
            role: Role::Release,
            probability: 1.0,
        });
        scorer.check(0, &app, &other);
        assert_eq!(scorer.errors.len(), 1);
    }

    #[test]
    fn precision_or_recall_below_the_floor_fails() {
        let mut s = Scorer {
            true_sync: 96,
            not_sync: 4,
            covered: 19,
            total: 20,
            ..Scorer::default()
        };
        assert!(s.floor_errors().is_empty());
        s.not_sync = 6;
        assert_eq!(s.floor_errors().len(), 1, "precision 0.941");
        s.covered = 18;
        assert_eq!(s.floor_errors().len(), 2, "recall 0.9");
    }
}
