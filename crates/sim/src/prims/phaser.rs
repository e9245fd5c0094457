use std::sync::{Arc, Mutex};

use crate::api;
use crate::kernel;

const CLASS: &str = "System.Threading.Phaser";

/// A traced phaser — the multi-phase barrier of "Formalization of Phase
/// Ordering" (PAPERS.md), surfaced under the split `Arrive` /
/// `AwaitAdvance` API (java.util.concurrent.Phaser's vocabulary, traced
/// under a .NET-style class name for consistency with the rest of the
/// fleet).
///
/// Unlike [`super::Barrier`], arrival and waiting are separate operations:
/// a party may `arrive` (non-blocking, releasing the phase it participated
/// in) and independently `await_advance` on a phase number (blocking,
/// acquiring the writes of every party that arrived in that phase). This
/// split is exactly what makes phasers interesting for inference — the
/// release site and the acquire site are different methods, so SherLock
/// must discover `Arrive` as a release and `AwaitAdvance` as an acquire
/// rather than a single self-synchronizing barrier call.
#[derive(Clone)]
pub struct Phaser {
    inner: Arc<PhaserInner>,
}

struct PhaserInner {
    object: u64,
    state: Mutex<PhaserState>,
}

struct PhaserState {
    parties: u32,
    arrived: u32,
    phase: u64,
    waiters: Vec<u32>,
}

impl Phaser {
    /// Creates a phaser with `parties` registered parties, at phase 0.
    pub fn new(parties: u32) -> Self {
        assert!(parties > 0, "phaser needs at least one registered party");
        Phaser {
            inner: Arc::new(PhaserInner {
                object: api::alloc_object(),
                state: Mutex::new(PhaserState {
                    parties,
                    arrived: 0,
                    phase: 0,
                    waiters: Vec::new(),
                }),
            }),
        }
    }

    /// Registers an additional party (`Phaser.Register`); returns the phase
    /// the new party joins at.
    pub fn register(&self) -> u64 {
        prim_op!(CLASS, "Register").call(self.inner.object, || {
            let mut s = self.inner.state.lock().expect("phaser poisoned");
            s.parties += 1;
            s.phase
        })
    }

    /// Arrives at the current phase without waiting (`Phaser.Arrive`);
    /// returns the phase number this arrival belongs to. The last party to
    /// arrive advances the phase and wakes every `await_advance` waiter.
    pub fn arrive(&self) -> u64 {
        prim_op!(CLASS, "Arrive").call(self.inner.object, || self.arrive_untraced())
    }

    /// Blocks until the phaser's phase number exceeds `phase`
    /// (`Phaser.AwaitAdvance`). Returns immediately if it already has.
    pub fn await_advance(&self, phase: u64) {
        prim_op!(CLASS, "AwaitAdvance").call(self.inner.object, || {
            self.await_untraced(phase);
        });
    }

    /// Arrives and blocks until the phase it arrived in completes
    /// (`Phaser.ArriveAndAwaitAdvance`) — the symmetric barrier-style call,
    /// traced as a single operation.
    pub fn arrive_and_await_advance(&self) -> u64 {
        prim_op!(CLASS, "ArriveAndAwaitAdvance").call(self.inner.object, || {
            let phase = self.arrive_untraced();
            self.await_untraced(phase);
            phase
        })
    }

    /// The current phase number; untraced (test-harness introspection only).
    pub fn phase_untraced(&self) -> u64 {
        self.inner.state.lock().expect("phaser poisoned").phase
    }

    fn arrive_untraced(&self) -> u64 {
        let mut s = self.inner.state.lock().expect("phaser poisoned");
        let phase = s.phase;
        s.arrived += 1;
        if s.arrived == s.parties {
            s.arrived = 0;
            s.phase += 1;
            let waiters = std::mem::take(&mut s.waiters);
            drop(s);
            for t in waiters {
                kernel::kernel_wake(t);
            }
        }
        phase
    }

    fn await_untraced(&self, phase: u64) {
        let me = api::current_thread();
        loop {
            {
                let mut s = self.inner.state.lock().expect("phaser poisoned");
                if s.phase > phase {
                    return;
                }
                // Re-register on every pass: a spurious wake (or a wake for
                // an earlier phase) must not drop us from the waiter list.
                if !s.waiters.contains(&me) {
                    s.waiters.push(me);
                }
            }
            kernel::kernel_block_current();
        }
    }
}
