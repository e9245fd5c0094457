//! Traced synchronization primitives.
//!
//! Each primitive mirrors a C# synchronization mechanism the paper's
//! benchmark applications use (Tables 8–9), emitting exactly the trace events
//! the paper's instrumentation would record at its call sites, while
//! enforcing the corresponding blocking semantics in virtual time. The
//! inference pipeline never sees these implementations — only their traces —
//! which is precisely the paper's setting ("the actual implementation of the
//! threading library or framework that enforces this happens-before relation
//! is irrelevant to SherLock").

use std::sync::OnceLock;

use sherlock_trace::{AccessClass, MethodKind, OpId, OpKind};

/// One primitive's library call site, `class::method` with constant names.
/// Its begin and end operations are interned once per process, each on
/// first use — the order [`crate::api::lib_call`] interns them in, without
/// its registry lookup on every call.
pub(crate) struct PrimOp {
    class: &'static str,
    method: &'static str,
    begin: OnceLock<OpId>,
    end: OnceLock<OpId>,
}

impl PrimOp {
    pub(crate) const fn new(class: &'static str, method: &'static str) -> Self {
        PrimOp {
            class,
            method,
            begin: OnceLock::new(),
            end: OnceLock::new(),
        }
    }

    fn intern(&self, slot: &OnceLock<OpId>, kind: OpKind) -> OpId {
        *slot.get_or_init(|| OpId::intern(kind, self.class, self.method))
    }

    /// [`crate::api::lib_call`] at this call site.
    pub(crate) fn call<R>(&self, object: u64, body: impl FnOnce() -> R) -> R {
        self.call_classified(object, AccessClass::None, body)
    }

    /// [`crate::api::lib_call_classified`] at this call site.
    pub(crate) fn call_classified<R>(
        &self,
        object: u64,
        access: AccessClass,
        body: impl FnOnce() -> R,
    ) -> R {
        crate::api::traced_call(
            self.intern(&self.begin, OpKind::MethodBegin(MethodKind::Lib)),
            || self.intern(&self.end, OpKind::MethodEnd(MethodKind::Lib)),
            object,
            access,
            body,
        )
    }
}

/// The [`PrimOp`] of this call site: `prim_op!(CLASS, "Enter").call(obj, body)`.
macro_rules! prim_op {
    ($class:expr, $method:expr) => {{
        static OP: $crate::prims::PrimOp = $crate::prims::PrimOp::new($class, $method);
        &OP
    }};
}

mod collections;
mod dataflow;
mod gc;
mod implicit;
mod lazy;
mod monitor;
mod phaser;
mod queue;
mod sync;
mod task;
mod thread;
mod var;

pub mod testfx;

pub use collections::{ConcurrentMap, UnsafeList};
pub use dataflow::DataflowBlock;
pub use gc::GcHeap;
pub use implicit::ImplicitMonitor;
pub use lazy::StaticCtor;
pub use monitor::Monitor;
pub use phaser::Phaser;
pub use queue::{BlockingCollection, Interlocked};
pub use sync::{Barrier, CountdownEvent, EventWaitHandle, RwLock, Semaphore};
pub use task::{Task, ThreadPool};
pub use thread::SimThread;
pub use var::TracedVar;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimConfig};

    #[test]
    fn prim_ops_intern_begin_and_end_in_call_order() {
        static OP: PrimOp = PrimOp::new("PrimOpOrder", "Call");
        let body = || OpId::intern(OpKind::FieldRead, "PrimOpOrder", "body");
        let run = || {
            Sim::new(SimConfig::with_seed(1)).run(move || {
                OP.call(0, || {
                    body();
                })
            })
        };
        let first = run();
        let ops: Vec<OpId> = first.trace.events().iter().map(|e| e.op).collect();
        // Fresh names: ids follow intern order, so the begin was interned
        // before the body ran and the end after it.
        assert!(ops[0] < body() && body() < ops[1], "{ops:?}");
        assert_eq!(
            ops,
            [
                OpId::intern(OpKind::MethodBegin(MethodKind::Lib), "PrimOpOrder", "Call"),
                OpId::intern(OpKind::MethodEnd(MethodKind::Lib), "PrimOpOrder", "Call"),
            ]
        );
        let again: Vec<OpId> = run().trace.events().iter().map(|e| e.op).collect();
        assert_eq!(again, ops);
    }
}
