use std::sync::{Arc, Mutex};

use crate::api;
use crate::kernel;

const CLASS: &str = "Expresso.ImplicitMonitor";

/// A traced implicit-signal monitor in the style of Ferles et al.
/// ("Verified lifting of implicit-signal monitors", PAPERS.md): the
/// programmer states a *predicate* to wait on (`EnterWhen(pred)`) and the
/// runtime decides when to signal — every `Exit` implicitly re-evaluates
/// all pending predicates, so there is no explicit `Pulse`/`Signal` call
/// anywhere in the program text.
///
/// For inference this is the adversarial cousin of [`super::Monitor`]:
/// the only release-shaped operation is `Exit`, and the only
/// acquire-shaped one is `EnterWhen`, but nothing in the trace vocabulary
/// says which condition a given `EnterWhen` waited for. SherLock must
/// still recover `Exit -> EnterWhen` as the synchronizing pair purely
/// from ordering evidence.
///
/// The guarded state is a single `u64` cell manipulated through
/// owner-checked accessors; accesses are untraced (monitor-internal),
/// mirroring how the paper's instrumentation cannot see inside the
/// synthesized monitor implementation.
#[derive(Clone)]
pub struct ImplicitMonitor {
    inner: Arc<ImInner>,
}

struct ImInner {
    object: u64,
    state: Mutex<ImState>,
}

struct ImState {
    value: u64,
    owner: Option<u32>,
    waiters: Vec<u32>,
}

impl ImplicitMonitor {
    /// Creates an implicit monitor whose guarded cell starts at `initial`.
    pub fn new(initial: u64) -> Self {
        ImplicitMonitor {
            inner: Arc::new(ImInner {
                object: api::alloc_object(),
                state: Mutex::new(ImState {
                    value: initial,
                    owner: None,
                    waiters: Vec::new(),
                }),
            }),
        }
    }

    /// Enters the monitor once it is unowned **and** `pred` holds on the
    /// guarded cell (`ImplicitMonitor.EnterWhen`). Blocks otherwise; every
    /// `Exit` re-evaluates the predicate (implicit broadcast signalling).
    pub fn enter_when(&self, pred: impl Fn(u64) -> bool) {
        prim_op!(CLASS, "EnterWhen").call(self.inner.object, || {
            let me = api::current_thread();
            loop {
                {
                    let mut s = self.inner.state.lock().expect("implicit monitor poisoned");
                    if s.owner.is_none() && pred(s.value) {
                        s.owner = Some(me);
                        s.waiters.retain(|&t| t != me);
                        return;
                    }
                    if !s.waiters.contains(&me) {
                        s.waiters.push(me);
                    }
                }
                kernel::kernel_block_current();
            }
        });
    }

    /// Leaves the monitor (`ImplicitMonitor.Exit`), waking **all** waiters
    /// so each re-evaluates its predicate — the runtime, not the
    /// programmer, decides who proceeds.
    pub fn exit(&self) {
        prim_op!(CLASS, "Exit").call(self.inner.object, || {
            let waiters = {
                let mut s = self.inner.state.lock().expect("implicit monitor poisoned");
                assert_eq!(
                    s.owner,
                    Some(api::current_thread()),
                    "ImplicitMonitor.Exit by a non-owner"
                );
                s.owner = None;
                std::mem::take(&mut s.waiters)
            };
            for t in waiters {
                kernel::kernel_wake(t);
            }
        });
    }

    /// Runs `body` inside the monitor once `pred` admits it.
    pub fn with_when<R>(&self, pred: impl Fn(u64) -> bool, body: impl FnOnce(&Self) -> R) -> R {
        self.enter_when(pred);
        let r = body(self);
        self.exit();
        r
    }

    /// Reads the guarded cell; caller must hold the monitor. Untraced —
    /// the cell lives inside the synthesized monitor.
    pub fn value(&self) -> u64 {
        let s = self.inner.state.lock().expect("implicit monitor poisoned");
        assert_eq!(
            s.owner,
            Some(api::current_thread()),
            "guarded read outside the monitor"
        );
        s.value
    }

    /// Writes the guarded cell; caller must hold the monitor. Untraced.
    pub fn set_value(&self, v: u64) {
        let mut s = self.inner.state.lock().expect("implicit monitor poisoned");
        assert_eq!(
            s.owner,
            Some(api::current_thread()),
            "guarded write outside the monitor"
        );
        s.value = v;
    }
}
