use std::sync::{Arc, Mutex};

use super::PrimOp;
use crate::api;
use crate::kernel;

const CLASS: &str = "System.Threading.Tasks.Task";
const FACTORY: &str = "System.Threading.Tasks.TaskFactory";

/// A traced task: `Task.Run`, `TaskFactory.StartNew`, `Task.Wait`, and
/// `Task.ContinueWith`.
///
/// Continuations reproduce paper Fig. 3.D: `a2` registered via `ContinueWith`
/// runs strictly after `a1` returns, so SherLock infers `a1`'s exit as a
/// release and `a2`'s entry as the acquire without knowing anything about the
/// task machinery.
#[derive(Clone)]
pub struct Task {
    inner: Arc<TaskInner>,
}

struct TaskInner {
    object: u64,
    state: Mutex<TaskState>,
}

#[derive(Default)]
struct TaskState {
    done: bool,
    waiters: Vec<u32>,
}

impl Task {
    fn spawn_body(
        api_op: &'static PrimOp,
        class: String,
        method: String,
        f: impl FnOnce() + Send + 'static,
    ) -> Task {
        let object = api::alloc_object();
        let inner = Arc::new(TaskInner {
            object,
            state: Mutex::new(TaskState::default()),
        });
        let inner2 = Arc::clone(&inner);
        api_op.call(object, || {
            api::spawn(&format!("task:{class}.{method}"), move || {
                api::app_method(&class, &method, object, f);
                let waiters = {
                    let mut s = inner2.state.lock().expect("task poisoned");
                    s.done = true;
                    std::mem::take(&mut s.waiters)
                };
                for t in waiters {
                    kernel::kernel_wake(t);
                }
            });
        });
        Task { inner }
    }

    /// `Task.Run(() => class::method())`.
    pub fn run(
        class: impl Into<String>,
        method: impl Into<String>,
        f: impl FnOnce() + Send + 'static,
    ) -> Task {
        Task::spawn_body(prim_op!(CLASS, "Run"), class.into(), method.into(), f)
    }

    /// `TaskFactory.StartNew(...)` — same semantics as [`Task::run`], traced
    /// under the factory API name (one of the "numerous ways of creating and
    /// executing tasks" Manual_dr misses, paper §5.4).
    pub fn start_new(
        class: impl Into<String>,
        method: impl Into<String>,
        f: impl FnOnce() + Send + 'static,
    ) -> Task {
        Task::spawn_body(
            prim_op!(FACTORY, "StartNew"),
            class.into(),
            method.into(),
            f,
        )
    }

    /// Blocks until the task's delegate returns (`Task.Wait`).
    pub fn wait(&self) {
        prim_op!(CLASS, "Wait").call(self.inner.object, || {
            self.block_until_done();
        });
    }

    /// Registers a continuation that runs after this task completes
    /// (`Task.ContinueWith`); returns the continuation task.
    pub fn continue_with(
        &self,
        class: impl Into<String>,
        method: impl Into<String>,
        f: impl FnOnce() + Send + 'static,
    ) -> Task {
        let class = class.into();
        let method = method.into();
        let object = api::alloc_object();
        let cont = Arc::new(TaskInner {
            object,
            state: Mutex::new(TaskState::default()),
        });
        let cont2 = Arc::clone(&cont);
        let antecedent = self.clone();
        prim_op!(CLASS, "ContinueWith").call(self.inner.object, || {
            api::spawn(&format!("cont:{class}.{method}"), move || {
                // Framework-internal wait: untraced, like the scheduler
                // machinery inside the TPL the paper cannot see.
                antecedent.block_until_done();
                api::app_method(&class, &method, object, f);
                let waiters = {
                    let mut s = cont2.state.lock().expect("task poisoned");
                    s.done = true;
                    std::mem::take(&mut s.waiters)
                };
                for t in waiters {
                    kernel::kernel_wake(t);
                }
            });
        });
        Task { inner: cont }
    }

    /// Whether the delegate has completed.
    pub fn is_done(&self) -> bool {
        self.inner.state.lock().expect("task poisoned").done
    }

    fn block_until_done(&self) {
        let me = api::current_thread();
        loop {
            let done = {
                let mut s = self.inner.state.lock().expect("task poisoned");
                if !s.done {
                    s.waiters.push(me);
                }
                s.done
            };
            if done {
                return;
            }
            kernel::kernel_block_current();
        }
    }
}

/// The traced thread pool: `ThreadPool.QueueUserWorkItem`.
pub struct ThreadPool;

impl ThreadPool {
    /// Queues `class::method` onto the pool; returns a [`Task`]-like handle
    /// usable for untraced completion tracking in tests.
    pub fn queue_user_work_item(
        class: impl Into<String>,
        method: impl Into<String>,
        f: impl FnOnce() + Send + 'static,
    ) -> Task {
        Task::spawn_body(
            prim_op!("System.Threading.ThreadPool", "QueueUserWorkItem"),
            class.into(),
            method.into(),
            f,
        )
    }
}
