use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::api;
use crate::kernel;

const CLASS: &str = "System.Threading.Tasks.Dataflow.DataflowBlock";

/// A traced dataflow block (paper Fig. 3.A, from App-7/Stastd): `Post` hands
/// an item to a handler running on the block's own consumer thread, and
/// `Receive` blocks for the handler's output.
///
/// `Post` is the release that happens before the handler's entry; `Receive`
/// is the acquire that happens after the handler's exit.
#[derive(Clone)]
pub struct DataflowBlock<T> {
    inner: Arc<DfInner<T>>,
}

struct DfInner<T> {
    object: u64,
    state: Mutex<DfState<T>>,
}

struct DfState<T> {
    input: VecDeque<T>,
    output: VecDeque<T>,
    input_waiters: Vec<u32>,
    output_waiters: Vec<u32>,
}

impl<T: Send + 'static> DataflowBlock<T> {
    /// Creates a block whose handler `class::method` transforms each posted
    /// item on a dedicated consumer (daemon) thread.
    pub fn new(
        class: impl Into<String>,
        method: impl Into<String>,
        handler: impl Fn(T) -> T + Send + 'static,
    ) -> Self {
        let class = class.into();
        let method = method.into();
        let object = api::alloc_object();
        let inner = Arc::new(DfInner {
            object,
            state: Mutex::new(DfState {
                input: VecDeque::new(),
                output: VecDeque::new(),
                input_waiters: Vec::new(),
                output_waiters: Vec::new(),
            }),
        });
        let consumer = Arc::clone(&inner);
        api::spawn_daemon(&format!("dataflow:{class}.{method}"), move || loop {
            let me = api::current_thread();
            let item = loop {
                let taken = {
                    let mut s = consumer.state.lock().expect("dataflow poisoned");
                    match s.input.pop_front() {
                        Some(v) => Some(v),
                        None => {
                            s.input_waiters.push(me);
                            None
                        }
                    }
                };
                match taken {
                    Some(v) => break v,
                    None => kernel::kernel_block_current(),
                }
            };
            let out = api::app_method(&class, &method, object, || handler(item));
            let waiters = {
                let mut s = consumer.state.lock().expect("dataflow poisoned");
                s.output.push_back(out);
                std::mem::take(&mut s.output_waiters)
            };
            for t in waiters {
                kernel::kernel_wake(t);
            }
        });
        DataflowBlock { inner }
    }

    /// Posts an item to the block (`DataflowBlock.Post`).
    pub fn post(&self, item: T) {
        prim_op!(CLASS, "Post").call(self.inner.object, || {
            let waiters = {
                let mut s = self.inner.state.lock().expect("dataflow poisoned");
                s.input.push_back(item);
                std::mem::take(&mut s.input_waiters)
            };
            for t in waiters {
                kernel::kernel_wake(t);
            }
        });
    }

    /// Blocks for the next handler output (`DataflowBlock.Receive`).
    pub fn receive(&self) -> T {
        prim_op!(CLASS, "Receive").call(self.inner.object, || {
            let me = api::current_thread();
            loop {
                let taken = {
                    let mut s = self.inner.state.lock().expect("dataflow poisoned");
                    match s.output.pop_front() {
                        Some(v) => Some(v),
                        None => {
                            s.output_waiters.push(me);
                            None
                        }
                    }
                };
                match taken {
                    Some(v) => return v,
                    None => kernel::kernel_block_current(),
                }
            }
        })
    }
}
