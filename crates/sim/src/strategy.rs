//! Pluggable scheduling strategies for the kernel.
//!
//! The kernel's only nondeterministic-looking decision is which runnable
//! thread gets the "go" token next. That decision point is this trait: the
//! historical behaviour (a seeded uniform pick) becomes [`RandomWalk`], and
//! two coverage-oriented alternatives ride the same hook — [`Pct`]
//! (probabilistic concurrency testing: random thread priorities with `d − 1`
//! priority-change points, Burckhardt et al., ASPLOS 2010) and
//! [`RoundRobin`] (a bounded quantum sweep). Which schedules the Observer
//! sees bounds what SherLock can infer, so a schedule [`Campaign`] fans a
//! workload out across seeds and strategies.
//!
//! [`Campaign`]: crate::Campaign

use crate::rng::SplitMix64;

/// A deterministic scheduling policy: given the runnable set, picks who runs.
///
/// Implementations must be pure functions of their own seeded state plus the
/// arguments — the kernel guarantees `on_spawn` and `pick` are called in a
/// deterministic order for a fixed `(workload, SimConfig)`, which is what
/// keeps every strategy's runs reproducible.
pub trait Strategy: Send {
    /// Short stable name, used for per-strategy telemetry counters.
    fn name(&self) -> &'static str;

    /// Notifies the strategy that thread `tid` now exists. Called exactly
    /// once per thread, in spawn order (tids are sequential from 0).
    fn on_spawn(&mut self, _tid: u32) {}

    /// Picks the index *into `runnable`* of the thread to run next.
    ///
    /// `runnable` is non-empty and sorted by tid; `step` is the number of
    /// scheduled steps executed so far; `rng` is the kernel's own seeded
    /// stream (shared with op-cost jitter), so strategies that draw from it
    /// perturb downstream jitter exactly like the historical scheduler did.
    fn pick(&mut self, runnable: &[u32], step: u64, rng: &mut SplitMix64) -> usize;
}

/// Data-only description of a strategy, kept in [`SimConfig`] so the config
/// stays `Clone + Debug`; the kernel builds the boxed state at run start.
///
/// [`SimConfig`]: crate::SimConfig
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StrategyKind {
    /// The historical scheduler: a uniform pick from the kernel RNG. With
    /// equal seeds this reproduces pre-Strategy traces byte-for-byte.
    #[default]
    RandomWalk,
    /// PCT-style priority scheduling: random per-thread priorities, with
    /// `depth − 1` priority-change points sampled over the step horizon.
    /// Higher depth targets bugs needing more ordering constraints.
    Pct {
        /// The PCT bug-depth parameter `d` (≥ 1).
        depth: u32,
    },
    /// A bounded round-robin sweep: each thread runs for at most `quantum`
    /// consecutive steps before the sweep moves to the next runnable tid.
    /// The seed rotates the starting position.
    RoundRobin {
        /// Steps a thread may run before being rotated out (≥ 1).
        quantum: u64,
    },
}

impl StrategyKind {
    /// Short stable name (matches [`Strategy::name`] of the built value).
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::RandomWalk => "random",
            StrategyKind::Pct { .. } => "pct",
            StrategyKind::RoundRobin { .. } => "rr",
        }
    }

    /// Instantiates the strategy state for a run with the given seed.
    pub fn build(self, seed: u64) -> Box<dyn Strategy> {
        match self {
            StrategyKind::RandomWalk => Box::new(RandomWalk),
            StrategyKind::Pct { depth } => Box::new(Pct::new(depth, seed)),
            StrategyKind::RoundRobin { quantum } => Box::new(RoundRobin::new(quantum, seed)),
        }
    }
}

/// The historical scheduler: uniform over the runnable set, drawn from the
/// kernel's RNG stream (so `RandomWalk` at seed `s` replays exactly the
/// schedule the pre-Strategy kernel produced at seed `s`).
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomWalk;

impl Strategy for RandomWalk {
    fn name(&self) -> &'static str {
        "random"
    }

    fn pick(&mut self, runnable: &[u32], _step: u64, rng: &mut SplitMix64) -> usize {
        rng.gen_index(runnable.len())
    }
}

/// Virtual-step horizon over which PCT samples its priority-change points.
/// Classic PCT samples change points uniformly over the run length `k`; runs
/// here are not known in advance, so a fixed horizon plays that role (apps'
/// unit tests run well under this many steps).
const PCT_HORIZON: u64 = 8_192;

/// PCT-style priority scheduler.
///
/// Every thread gets a random high priority at spawn; the highest-priority
/// runnable thread always runs. At each of the `depth − 1` change points the
/// currently running thread's priority drops below every initial priority,
/// forcing the schedule through a different ordering — PCT's guarantee is
/// that any bug of depth `d` is hit with probability ≥ 1/(n·k^(d−1)) per run.
pub struct Pct {
    rng: SplitMix64,
    /// Priority per tid (indexes align with spawn order).
    priorities: Vec<u64>,
    /// Sorted ascending step numbers at which a demotion fires.
    change_points: Vec<u64>,
    next_cp: usize,
    /// Next demotion value; starts at `depth` and decreases, always below
    /// every initial priority (which are ≥ `depth + 1`).
    next_low: u64,
    last: Option<u32>,
    depth: u32,
}

impl Pct {
    /// Builds a PCT scheduler of the given depth (clamped to ≥ 1).
    pub fn new(depth: u32, seed: u64) -> Self {
        let depth = depth.max(1);
        // A distinct stream from the kernel's op-cost jitter: xor with a
        // fixed tweak so (seed, pct) and (seed, random-walk) decorrelate.
        let mut rng = SplitMix64::new(seed ^ 0x9c7e_e6a5_bb25_u64);
        let mut change_points: Vec<u64> =
            (1..depth).map(|_| rng.gen_range(1, PCT_HORIZON)).collect();
        change_points.sort_unstable();
        Pct {
            rng,
            priorities: Vec::new(),
            change_points,
            next_cp: 0,
            next_low: u64::from(depth),
            last: None,
            depth,
        }
    }
}

impl Strategy for Pct {
    fn name(&self) -> &'static str {
        "pct"
    }

    fn on_spawn(&mut self, tid: u32) {
        debug_assert_eq!(tid as usize, self.priorities.len());
        // Initial priorities live strictly above every demotion value.
        let p = u64::from(self.depth) + 1 + (self.rng.next_u64() >> 1);
        self.priorities.push(p);
    }

    fn pick(&mut self, runnable: &[u32], step: u64, _rng: &mut SplitMix64) -> usize {
        while self.next_cp < self.change_points.len() && step >= self.change_points[self.next_cp] {
            if let Some(last) = self.last {
                self.priorities[last as usize] = self.next_low;
                self.next_low = self.next_low.saturating_sub(1).max(1);
            }
            self.next_cp += 1;
        }
        let (idx, &tid) = runnable
            .iter()
            .enumerate()
            .max_by_key(|&(_, &tid)| (self.priorities[tid as usize], std::cmp::Reverse(tid)))
            .expect("runnable set is non-empty");
        self.last = Some(tid);
        idx
    }
}

/// Bounded round-robin sweep: cycles over tids in order, letting each
/// runnable thread execute at most `quantum` consecutive steps. The seed
/// offsets the starting cursor so different seeds sweep different rotations.
pub struct RoundRobin {
    quantum: u64,
    used: u64,
    cursor: u32,
}

impl RoundRobin {
    /// Builds a sweep with the given per-thread quantum (clamped to ≥ 1).
    pub fn new(quantum: u64, seed: u64) -> Self {
        RoundRobin {
            quantum: quantum.max(1),
            used: 0,
            // The cyclic-next rule below snaps an arbitrary start onto a real
            // tid, so the raw seed is a fine rotation offset.
            cursor: (seed % 64) as u32,
        }
    }
}

impl Strategy for RoundRobin {
    fn name(&self) -> &'static str {
        "rr"
    }

    fn pick(&mut self, runnable: &[u32], _step: u64, _rng: &mut SplitMix64) -> usize {
        if self.used < self.quantum {
            if let Some(idx) = runnable.iter().position(|&t| t == self.cursor) {
                self.used += 1;
                return idx;
            }
        }
        // Quantum exhausted (or cursor not runnable): cyclic-next runnable
        // tid strictly after the cursor, wrapping to the smallest.
        let idx = runnable.iter().position(|&t| t > self.cursor).unwrap_or(0);
        self.cursor = runnable[idx];
        self.used = 1;
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(strategy: &mut dyn Strategy, runnable: &[u32], steps: u64) -> Vec<u32> {
        let mut rng = SplitMix64::new(7);
        for &t in runnable {
            strategy.on_spawn(t);
        }
        (0..steps)
            .map(|s| runnable[strategy.pick(runnable, s, &mut rng)])
            .collect()
    }

    #[test]
    fn random_walk_matches_kernel_rng_stream() {
        // RandomWalk must consume exactly one gen_index per pick from the
        // shared RNG — the byte-compat contract with the historical kernel.
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut s = RandomWalk;
        let runnable = [0u32, 1, 2];
        for step in 0..100 {
            let idx = s.pick(&runnable, step, &mut a);
            assert_eq!(idx, b.gen_index(3));
        }
    }

    #[test]
    fn pct_is_deterministic_and_priority_driven() {
        let picks1 = drive(&mut Pct::new(3, 11), &[0, 1, 2, 3], 200);
        let picks2 = drive(&mut Pct::new(3, 11), &[0, 1, 2, 3], 200);
        assert_eq!(picks1, picks2);
        // Between change points PCT is a fixed-priority scheduler: with the
        // full runnable set offered every step, long constant stretches
        // dominate (unlike a uniform random walk).
        let switches = picks1.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches <= 2 * 3, "too many switches: {switches}");
    }

    #[test]
    fn pct_change_points_demote_the_running_thread() {
        let mut pct = Pct::new(2, 1);
        pct.change_points = vec![5];
        pct.next_cp = 0;
        let runnable = [0u32, 1];
        let mut rng = SplitMix64::new(0);
        for &t in &runnable {
            pct.on_spawn(t);
        }
        let before = runnable[pct.pick(&runnable, 0, &mut rng)];
        let after = runnable[pct.pick(&runnable, 5, &mut rng)];
        assert_ne!(before, after, "change point must switch threads");
    }

    #[test]
    fn pct_depth_clamps_to_one() {
        // depth 0 builds (clamped), has no change points, never switches.
        let picks = drive(&mut Pct::new(0, 3), &[0, 1], 50);
        assert!(picks.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn round_robin_sweeps_with_quantum() {
        let picks = drive(&mut RoundRobin::new(2, 0), &[0, 1, 2], 12);
        // Quantum 2, cursor snaps from 0: each thread runs twice, in cyclic
        // tid order.
        assert_eq!(picks, vec![0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn round_robin_seed_rotates_start() {
        let a = drive(&mut RoundRobin::new(1, 0), &[0, 1, 2], 3);
        let b = drive(&mut RoundRobin::new(1, 1), &[0, 1, 2], 3);
        assert_ne!(a[0], b[0]);
    }

    #[test]
    fn round_robin_skips_unrunnable_cursor() {
        let mut rr = RoundRobin::new(4, 0);
        let mut rng = SplitMix64::new(0);
        // Cursor thread 0 vanishes from the runnable set: sweep moves on.
        assert_eq!(rr.pick(&[0, 1], 0, &mut rng), 0);
        assert_eq!(rr.pick(&[1, 2], 1, &mut rng), 0); // tid 1
        assert_eq!(rr.cursor, 1);
    }

    #[test]
    fn kind_builds_matching_names() {
        for (kind, name) in [
            (StrategyKind::RandomWalk, "random"),
            (StrategyKind::Pct { depth: 3 }, "pct"),
            (StrategyKind::RoundRobin { quantum: 4 }, "rr"),
        ] {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.build(0).name(), name);
        }
        assert_eq!(StrategyKind::default(), StrategyKind::RandomWalk);
    }
}
