//! A reusable incremental inference session.
//!
//! Everything upstream of the Solver is additive: absorbing a trace only
//! ever *accumulates* windows, exclusions, and durations into
//! [`Observations`]. [`Session`] packages that incremental state behind a
//! public API so long-lived clients (the [`SherLock`](crate::SherLock)
//! driver, `sherlock solve`, the `sherlock-serve` daemon) can stream traces
//! run-by-run and re-solve only over the delta — instead of rebuilding
//! windows, constraints, and the LP from zero on every query, which is what
//! the paper's §4.3 feedback loop explicitly accumulates between runs.
//!
//! Two layers of memoization keep repeated queries cheap:
//!
//! * **Window extraction** — absorbing a trace whose full content hash was
//!   seen before reuses the cached (already refined) windows, exclusions,
//!   and durations rather than re-running extraction
//!   (`session.window_memo.*` counters; bounded FIFO cache).
//! * **Solving** — [`Session::solve`] re-runs the LP only when observations
//!   changed since the last solve; otherwise the cached
//!   [`InferenceReport`] is returned as-is (`session.solve_memo.hits`).
//!
//! Determinism is preserved: a session that absorbed traces `t1..tk` in any
//! order holds exactly the same observations — and therefore solves to a
//! byte-identical report — as a fresh session absorbing the same multiset
//! from scratch (see `tests/serve_parity.rs`).

use std::collections::{HashMap, VecDeque};

use sherlock_lp::LpError;
use sherlock_obs as obs;
use sherlock_trace::durations::{self, DurationMap};
use sherlock_trace::windows::{self, Window, WindowConfig};
use sherlock_trace::Trace;

use crate::config::SherLockConfig;
use crate::observations::Observations;
use crate::perturber;
use crate::report::InferenceReport;
use crate::solver;

/// Per-run diagnostics collected when a trace is absorbed (and, in the
/// driver, per round).
#[derive(Clone, Debug, Default)]
pub struct RoundStats {
    /// Windows extracted this round (before deduplication).
    pub windows_extracted: usize,
    /// Racy windows witnessed this round.
    pub racy_windows: usize,
    /// Delay-propagation confirmations this round.
    pub confirmations: usize,
    /// New release exclusions this round.
    pub exclusions: usize,
    /// Trace events observed this round.
    pub events: usize,
    /// Simulated-thread panics (e.g. racy assertion failures) this round.
    pub panics: usize,
}

/// Everything absorbing one trace contributes, cached by full content hash
/// so re-absorbing an identical trace skips extraction and refinement.
struct AbsorbedTrace {
    /// Refined windows (delay-propagation already applied).
    windows: Vec<Window>,
    /// Release candidates disproven by failed delay propagation.
    exclusions: Vec<(
        (sherlock_trace::OpId, sherlock_trace::OpId),
        sherlock_trace::OpId,
    )>,
    /// Windows whose injected delay propagated.
    confirmations: usize,
    /// Per-op duration samples.
    durations: DurationMap,
    /// Events in the trace.
    events: usize,
}

/// [`Trace::stable_hash`] deliberately ignores timestamps (it identifies
/// *schedules*); window extraction depends on them, so the memo key mixes
/// every event and delay time back in.
fn content_hash(trace: &Trace) -> u64 {
    let mut h = trace.stable_hash();
    let mut mix = |v: u64| {
        h ^= v
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
    };
    for e in trace.events() {
        mix(e.time.as_nanos());
    }
    for d in trace.delays() {
        mix(d.start.as_nanos());
        mix(d.end.as_nanos());
    }
    h
}

/// Default bound on the window-extraction memo (absorbed-trace cache).
pub const DEFAULT_MEMO_CAPACITY: usize = 128;

/// An incremental inference session: accumulated [`Observations`], the last
/// solved [`InferenceReport`], and the memo caches described in the
/// [module docs](self).
pub struct Session {
    config: SherLockConfig,
    observations: Observations,
    report: InferenceReport,
    /// Observations changed since the last solve.
    dirty: bool,
    /// At least one solve has completed.
    solved: bool,
    traces_absorbed: usize,
    memo: HashMap<u64, AbsorbedTrace>,
    memo_order: VecDeque<u64>,
    memo_capacity: usize,
    /// Optimal basis of the last LP round, warm-starting the next solve
    /// (active when [`SherLockConfig::warm_start`] is set).
    basis: sherlock_lp::Basis,
    /// Metric values at session start; report telemetry is the delta.
    session_start: obs::Snapshot,
}

impl Session {
    /// Creates an empty session.
    pub fn new(config: SherLockConfig) -> Self {
        Session {
            config,
            observations: Observations::new(),
            report: InferenceReport::default(),
            dirty: false,
            solved: false,
            traces_absorbed: 0,
            memo: HashMap::new(),
            memo_order: VecDeque::new(),
            memo_capacity: DEFAULT_MEMO_CAPACITY,
            basis: sherlock_lp::Basis::new(),
            session_start: obs::snapshot(),
        }
    }

    /// Bounds the window-extraction memo (0 disables it).
    pub fn set_memo_capacity(&mut self, capacity: usize) {
        self.memo_capacity = capacity;
        while self.memo.len() > capacity {
            if let Some(old) = self.memo_order.pop_front() {
                self.memo.remove(&old);
            } else {
                break;
            }
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SherLockConfig {
        &self.config
    }

    /// The accumulated observations.
    pub fn observations(&self) -> &Observations {
        &self.observations
    }

    /// The last solved report (default-empty before the first solve).
    pub fn report(&self) -> &InferenceReport {
        &self.report
    }

    /// Whether observations changed since the last solve.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Traces absorbed over the session's lifetime.
    pub fn traces_absorbed(&self) -> usize {
        self.traces_absorbed
    }

    /// Entries currently held by the window-extraction memo.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Drops all accumulated observations (used by the driver's
    /// `accumulate = false` ablation); the memo caches survive.
    pub fn clear_observations(&mut self) {
        self.observations = Observations::new();
        // The old optimum says nothing about the next (unrelated) model.
        self.basis.clear();
        self.dirty = true;
    }

    /// Re-stamps the current report's telemetry as the metric delta since
    /// session start (the driver calls this after its round span closes).
    pub fn refresh_telemetry(&mut self) {
        self.report.telemetry = obs::snapshot().delta(&self.session_start);
    }

    fn extract(trace: &Trace, wcfg: &WindowConfig) -> AbsorbedTrace {
        let mut ws = {
            let _s = obs::span("phase.windows");
            windows::extract(trace, wcfg)
        };
        let refinement = {
            let _s = obs::span("phase.perturb");
            perturber::refine_windows(trace, &mut ws)
        };
        AbsorbedTrace {
            windows: ws,
            exclusions: refinement.exclusions,
            confirmations: refinement.confirmations,
            durations: durations::extract(trace),
            events: trace.len(),
        }
    }

    /// Feeds one trace into the session's observations: windows are
    /// extracted (or recalled from the memo), refined against any delay
    /// records the trace carries, racy pairs marked, and durations
    /// accumulated. Call [`solve`](Self::solve) afterwards to fold the new
    /// evidence into the report.
    pub fn absorb_trace(&mut self, trace: &Trace) -> RoundStats {
        let _s = obs::span("session.absorb");
        obs::counter!("session.traces_absorbed").incr();
        let wcfg = WindowConfig {
            near: self.config.near,
            cap_per_pair: self.config.cap_per_pair,
        };

        // A miss is inserted into the memo once and applied by reference;
        // only a disabled memo keeps the extraction locally.
        let key = content_hash(trace);
        let memo_hit = self.memo.contains_key(&key);
        let mut unmemoized = None;
        if memo_hit {
            obs::counter!("session.window_memo.hits").incr();
        } else {
            obs::counter!("session.window_memo.misses").incr();
            let a = Self::extract(trace, &wcfg);
            if self.memo_capacity > 0 {
                if self.memo.len() >= self.memo_capacity {
                    if let Some(old) = self.memo_order.pop_front() {
                        self.memo.remove(&old);
                        obs::counter!("session.window_memo.evictions").incr();
                    }
                }
                self.memo.insert(key, a);
                self.memo_order.push_back(key);
            } else {
                unmemoized = Some(a);
            }
        }
        let absorbed = match &unmemoized {
            Some(a) => a,
            None => &self.memo[&key],
        };

        let mut stats = RoundStats::default();
        stats.events = absorbed.events;
        stats.windows_extracted = absorbed.windows.len();
        stats.confirmations = absorbed.confirmations;
        stats.exclusions = absorbed.exclusions.len();
        obs::counter!("perturber.confirmations").add(absorbed.confirmations as u64);
        obs::counter!("perturber.exclusions").add(absorbed.exclusions.len() as u64);
        for (pair, op) in &absorbed.exclusions {
            self.observations.exclude_release(*pair, *op);
        }
        for w in &absorbed.windows {
            if w.is_racy() {
                stats.racy_windows += 1;
                self.observations.mark_racy(w.pair());
            }
            self.observations.add_window(w);
        }
        self.observations.add_durations(&absorbed.durations);
        self.observations.finish_run();
        self.traces_absorbed += 1;
        self.dirty = true;
        if obs::jsonl_enabled() {
            use obs::json::Json;
            obs::event(
                "session.absorb",
                &[
                    ("memo_hit", Json::Bool(memo_hit)),
                    ("events", Json::from(stats.events as u64)),
                    ("windows", Json::from(stats.windows_extracted as u64)),
                    ("racy", Json::from(stats.racy_windows as u64)),
                    ("exclusions", Json::from(stats.exclusions as u64)),
                ],
            );
        }
        stats
    }

    /// Feeds a batch of traces into the session — the campaign-engine path,
    /// where serve's `explore` verb absorbs every distinct schedule a
    /// campaign discovered. Returns the aggregate [`RoundStats`] summed over
    /// the batch. Equivalent to calling [`absorb_trace`](Self::absorb_trace)
    /// in order; exists so batch callers get one span and one counter bump
    /// instead of per-trace bookkeeping at the call site.
    pub fn absorb_traces<'a>(&mut self, traces: impl IntoIterator<Item = &'a Trace>) -> RoundStats {
        let _s = obs::span("session.absorb_batch");
        let mut total = RoundStats::default();
        let mut n = 0u64;
        for trace in traces {
            let stats = self.absorb_trace(trace);
            total.events += stats.events;
            total.windows_extracted += stats.windows_extracted;
            total.racy_windows += stats.racy_windows;
            total.confirmations += stats.confirmations;
            total.exclusions += stats.exclusions;
            total.panics += stats.panics;
            n += 1;
        }
        obs::counter!("session.absorb_batches").incr();
        obs::counter!("session.batch_traces_absorbed").add(n);
        total
    }

    /// Serializes the session's durable state for a `sherlock-store`
    /// snapshot: the accumulated [`Observations`] plus the absorb counter.
    ///
    /// The memo caches, warm-start basis, and cached report are deliberately
    /// *not* serialized — they are recomputed state, and the warm-vs-cold
    /// byte-parity suite (`tests/warm_parity.rs`) plus the solver's
    /// name-derived ordering guarantee a rehydrated session re-solves to a
    /// byte-identical report without them.
    pub fn to_snapshot_value(&self) -> obs::json::Json {
        use obs::json::Json;
        Json::Obj(vec![
            ("format".to_string(), Json::from(1u64)),
            (
                "traces_absorbed".to_string(),
                Json::from(self.traces_absorbed as u64),
            ),
            ("observations".to_string(), self.observations.to_value()),
        ])
    }

    /// Rebuilds a session from a value produced by
    /// [`to_snapshot_value`](Self::to_snapshot_value). The session starts
    /// dirty (the first solve after rehydration runs the LP from scratch).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first schema violation or an
    /// unsupported format version.
    pub fn from_snapshot_value(
        config: SherLockConfig,
        v: &obs::json::Json,
    ) -> Result<Self, String> {
        use obs::json::Json;
        match v.get("format").and_then(Json::as_u64) {
            Some(1) => {}
            other => return Err(format!("snapshot: unsupported format {other:?}")),
        }
        let traces_absorbed = v
            .get("traces_absorbed")
            .and_then(Json::as_u64)
            .ok_or("snapshot: missing traces_absorbed")?;
        let observations = Observations::from_value(
            v.get("observations")
                .ok_or("snapshot: missing observations")?,
        )?;
        let mut s = Session::new(config);
        s.observations = observations;
        s.traces_absorbed = usize::try_from(traces_absorbed)
            .map_err(|_| "snapshot: traces_absorbed out of range")?;
        s.dirty = true;
        Ok(s)
    }

    /// Solves over the accumulated observations, memoized: when nothing was
    /// absorbed since the last solve the cached report is returned without
    /// touching the LP.
    ///
    /// # Errors
    ///
    /// Propagates [`LpError`] from the Solver.
    pub fn solve(&mut self) -> Result<&InferenceReport, LpError> {
        if self.solved && !self.dirty {
            obs::counter!("session.solve_memo.hits").incr();
            if obs::jsonl_enabled() {
                obs::event(
                    "session.solve",
                    &[("memo_hit", obs::json::Json::Bool(true))],
                );
            }
            return Ok(&self.report);
        }
        if obs::jsonl_enabled() {
            obs::event(
                "session.solve",
                &[("memo_hit", obs::json::Json::Bool(false))],
            );
        }
        self.report = {
            let _s = obs::span("phase.solve");
            if self.config.warm_start {
                solver::solve_warm(&self.observations, &self.config, &mut self.basis)?
            } else {
                solver::solve(&self.observations, &self.config)?
            }
        };
        self.report.telemetry = obs::snapshot().delta(&self.session_start);
        self.dirty = false;
        self.solved = true;
        Ok(&self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testcase::TestCase;
    use sherlock_sim::prims::TracedVar;
    use sherlock_sim::SimConfig;

    fn sample_trace(seed: u64) -> Trace {
        let t = TestCase::new("session_sample", || {
            let v = TracedVar::new("Sess", "x", 0u32);
            let v2 = v.clone();
            let h = sherlock_sim::api::spawn("w", move || v2.set(1));
            v.set(2);
            let _ = v.get();
            h.join();
        });
        t.run(SimConfig::with_seed(seed)).trace
    }

    #[test]
    fn incremental_absorb_matches_from_scratch() {
        let traces: Vec<Trace> = (0..4).map(sample_trace).collect();

        let mut incremental = Session::new(SherLockConfig::default());
        for t in &traces {
            incremental.absorb_trace(t);
            incremental.solve().unwrap();
        }

        let mut scratch = Session::new(SherLockConfig::default());
        for t in &traces {
            scratch.absorb_trace(t);
        }
        scratch.solve().unwrap();

        assert_eq!(incremental.report().render(), scratch.report().render());
        assert_eq!(incremental.traces_absorbed(), scratch.traces_absorbed());
    }

    #[test]
    fn solve_is_memoized_until_dirty() {
        let mut s = Session::new(SherLockConfig::default());
        s.absorb_trace(&sample_trace(7));
        assert!(s.is_dirty());
        let first = s.solve().unwrap().render();
        assert!(!s.is_dirty());
        // A second solve with no new evidence must be a cache hit returning
        // the identical report.
        let again = s.solve().unwrap().render();
        assert_eq!(first, again);
        s.absorb_trace(&sample_trace(8));
        assert!(s.is_dirty());
    }

    #[test]
    fn window_memo_reuses_identical_traces() {
        let trace = sample_trace(3);
        let mut memoized = Session::new(SherLockConfig::default());
        memoized.absorb_trace(&trace);
        memoized.absorb_trace(&trace);
        assert_eq!(memoized.memo_len(), 1, "identical traces share one entry");

        let mut unmemoized = Session::new(SherLockConfig::default());
        unmemoized.set_memo_capacity(0);
        unmemoized.absorb_trace(&trace);
        unmemoized.absorb_trace(&trace);
        assert_eq!(unmemoized.memo_len(), 0);

        // The memo is an optimization only: double absorption accumulates
        // the same observations either way.
        memoized.solve().unwrap();
        unmemoized.solve().unwrap();
        assert_eq!(memoized.report().render(), unmemoized.report().render());
        assert_eq!(
            memoized.observations().runs(),
            unmemoized.observations().runs()
        );
    }

    #[test]
    fn memo_capacity_is_bounded() {
        let mut s = Session::new(SherLockConfig::default());
        s.set_memo_capacity(2);
        for seed in 0..5 {
            s.absorb_trace(&sample_trace(seed));
        }
        assert!(s.memo_len() <= 2);
    }

    #[test]
    fn snapshot_round_trip_solves_identically() {
        let mut original = Session::new(SherLockConfig::default());
        for seed in 0..4 {
            original.absorb_trace(&sample_trace(seed));
        }
        let snap = original.to_snapshot_value();
        let mut restored =
            Session::from_snapshot_value(SherLockConfig::default(), &snap).expect("restore");
        assert!(restored.is_dirty());
        assert_eq!(restored.traces_absorbed(), original.traces_absorbed());
        assert_eq!(
            restored.observations().runs(),
            original.observations().runs()
        );
        let a = original.solve().unwrap().render();
        let b = restored.solve().unwrap().render();
        assert_eq!(a, b, "rehydrated session must solve byte-identical");
    }

    #[test]
    fn snapshot_rejects_unknown_format() {
        use obs::json::Json;
        let v = Json::Obj(vec![("format".to_string(), Json::from(9u64))]);
        assert!(Session::from_snapshot_value(SherLockConfig::default(), &v).is_err());
    }

    #[test]
    fn content_hash_distinguishes_timestamps() {
        // Two runs of the same schedule-insensitive workload at different
        // seeds may share a stable hash; the content hash must include
        // times, so absorbing distinct-timing traces never aliases.
        let a = sample_trace(1);
        let b = sample_trace(1);
        assert_eq!(content_hash(&a), content_hash(&b), "same run, same hash");
    }
}
