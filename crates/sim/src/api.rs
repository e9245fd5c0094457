//! Workload-facing API: spawning, sleeping, and tracing hooks.
//!
//! Everything here must be called from inside a simulated thread (i.e. from
//! code running under [`Sim::run`](crate::Sim::run)); calling it elsewhere
//! panics with a descriptive message.

use sherlock_trace::{AccessClass, MethodKind, OpId, OpKind, OpRef, Time};

use crate::kernel;

/// Handle to a spawned simulated thread.
///
/// Unlike `std::thread::JoinHandle`, joining takes `&self` — a thread may be
/// awaited from several places.
#[derive(Clone, Debug)]
pub struct JoinHandle {
    tid: u32,
}

impl JoinHandle {
    /// Blocks (in virtual time) until the thread finishes. Untraced; the
    /// traced equivalent is [`SimThread::join`](crate::prims::SimThread).
    pub fn join(&self) {
        kernel::kernel_join(self.tid);
    }

    /// Whether the thread has finished.
    pub fn is_finished(&self) -> bool {
        kernel::kernel_is_finished(self.tid)
    }

    /// The simulated thread index.
    pub fn tid(&self) -> u32 {
        self.tid
    }
}

/// Spawns a new simulated (non-daemon) thread. The run ends when all
/// non-daemon threads finish.
pub fn spawn(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle {
    JoinHandle {
        tid: kernel::kernel_spawn(name, false, f),
    }
}

/// Spawns a *daemon* thread (background service such as a garbage collector
/// or a dataflow consumer). Daemons do not keep the run alive and are aborted
/// once all non-daemon threads finish.
pub fn spawn_daemon(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle {
    JoinHandle {
        tid: kernel::kernel_spawn(name, true, f),
    }
}

/// Sleeps for `d` of virtual time.
pub fn sleep(d: Time) {
    kernel::kernel_sleep(d);
}

/// Current virtual time.
pub fn now() -> Time {
    kernel::kernel_now()
}

/// Index of the calling simulated thread.
pub fn current_thread() -> u32 {
    kernel::kernel_current_tid()
}

/// Name the calling thread was spawned with.
pub fn current_thread_name() -> String {
    kernel::kernel_thread_name(kernel::kernel_current_tid())
}

/// Yields to the scheduler without tracing anything (a plain preemption
/// point).
pub fn yield_now() {
    kernel::kernel_step();
}

/// Allocates a fresh object identity for a traced heap object.
pub fn alloc_object() -> u64 {
    kernel::kernel_alloc_object()
}

/// Emits a raw traced operation (advances the clock and yields). Most code
/// should prefer the typed primitives in [`crate::prims`]; this is the
/// low-level hook they are built on.
pub fn trace_op(op: &OpRef, object: u64, access: AccessClass) {
    kernel::kernel_trace(op.intern(), object, access);
}

/// Traces the begin and end events of a method call around `body`,
/// classifying the begin event as `access`. The end op is interned only
/// once `body` has run, keeping the process-wide intern order.
pub(crate) fn traced_call<R>(
    begin: OpId,
    end: impl FnOnce() -> OpId,
    object: u64,
    access: AccessClass,
    body: impl FnOnce() -> R,
) -> R {
    kernel::kernel_trace(begin, object, access);
    let r = body();
    kernel::kernel_trace(end(), object, AccessClass::None);
    r
}

/// [`traced_call`] of `class::method`, interning its ops on every call.
fn traced_method<R>(
    kind: MethodKind,
    class: &str,
    method: &str,
    object: u64,
    access: AccessClass,
    body: impl FnOnce() -> R,
) -> R {
    traced_call(
        OpId::intern(OpKind::MethodBegin(kind), class, method),
        || OpId::intern(OpKind::MethodEnd(kind), class, method),
        object,
        access,
        body,
    )
}

/// Traces entry and exit of an *application* method around `body`
/// (paper §4.1: "For application methods, SherLock instruments entry and
/// exit points of their implementations").
pub fn app_method<R>(class: &str, method: &str, object: u64, body: impl FnOnce() -> R) -> R {
    traced_method(
        MethodKind::App,
        class,
        method,
        object,
        AccessClass::None,
        body,
    )
}

/// Traces an opaque *library* call around `body` (paper §4.1: "For library
/// or system API calls, SherLock instruments immediately before and after
/// the call sites").
pub fn lib_call<R>(class: &str, method: &str, object: u64, body: impl FnOnce() -> R) -> R {
    traced_method(
        MethodKind::Lib,
        class,
        method,
        object,
        AccessClass::None,
        body,
    )
}

/// Like [`lib_call`] but classifies the call site as a read- or write-like
/// access to `object`, making concurrent calls on the same object form
/// conflicting pairs (the paper's thread-unsafe collection API list).
pub fn lib_call_classified<R>(
    class: &str,
    method: &str,
    object: u64,
    access: AccessClass,
    body: impl FnOnce() -> R,
) -> R {
    traced_method(MethodKind::Lib, class, method, object, access, body)
}
