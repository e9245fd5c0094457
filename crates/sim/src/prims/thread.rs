use crate::api::{self, JoinHandle};

const CLASS: &str = "System.Threading.Thread";

/// A traced fork-join thread: `Thread.Start` / `Thread.Join`.
///
/// The call site of `Start` is the release and the entry of the delegate
/// method (an application method, traced in the child) is the matching
/// acquire — the paper's canonical example of a release/acquire pair spanning
/// a system class and an application class (§2, Mostly-Paired discussion).
#[derive(Clone, Debug)]
pub struct SimThread {
    handle: JoinHandle,
    object: u64,
}

impl SimThread {
    /// Starts a thread running the delegate `class::method` (traced as an
    /// application method in the child).
    pub fn start(
        class: impl Into<String>,
        method: impl Into<String>,
        f: impl FnOnce() + Send + 'static,
    ) -> SimThread {
        let class = class.into();
        let method = method.into();
        let object = api::alloc_object();
        let handle = prim_op!(CLASS, "Start").call(object, || {
            let name = format!("{class}.{method}");
            api::spawn(&name, move || {
                api::app_method(&class, &method, object, f);
            })
        });
        SimThread { handle, object }
    }

    /// Blocks until the thread's delegate returns (`Thread.Join`).
    pub fn join(&self) {
        prim_op!(CLASS, "Join").call(self.object, || self.handle.join());
    }

    /// Whether the delegate has returned.
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// The underlying untraced handle.
    pub fn handle(&self) -> &JoinHandle {
        &self.handle
    }
}
