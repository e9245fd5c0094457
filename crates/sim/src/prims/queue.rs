use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::api;
use crate::kernel;

const CLASS: &str = "System.Collections.Concurrent.BlockingCollection";

/// A traced `BlockingCollection<T>`: the classic bounded producer/consumer
/// queue. `Add` blocks while the collection is full; `Take` blocks while it
/// is empty; `CompleteAdding` unblocks pending consumers.
///
/// Both `Add` and `Take` are synchronizations in both directions — an `Add`
/// releases the item to a `Take`, and a `Take` on a full queue releases
/// capacity back to a blocked `Add`.
#[derive(Clone)]
pub struct BlockingCollection<T> {
    inner: Arc<BcInner<T>>,
}

struct BcInner<T> {
    object: u64,
    capacity: usize,
    state: Mutex<BcState<T>>,
}

struct BcState<T> {
    items: VecDeque<T>,
    completed: bool,
    waiters: Vec<u32>,
}

impl<T: Send + 'static> BlockingCollection<T> {
    /// Creates a collection with the given capacity bound.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        BlockingCollection {
            inner: Arc::new(BcInner {
                object: api::alloc_object(),
                capacity,
                state: Mutex::new(BcState {
                    items: VecDeque::new(),
                    completed: false,
                    waiters: Vec::new(),
                }),
            }),
        }
    }

    /// Adds an item, blocking while the collection is at capacity
    /// (`BlockingCollection.Add`).
    ///
    /// # Panics
    ///
    /// Panics if called after [`BlockingCollection::complete_adding`].
    pub fn add(&self, item: T) {
        prim_op!(CLASS, "Add").call(self.inner.object, || {
            let me = api::current_thread();
            let mut item = Some(item);
            loop {
                let (done, waiters) = {
                    let mut s = self.inner.state.lock().expect("collection poisoned");
                    assert!(!s.completed, "Add after CompleteAdding");
                    if s.items.len() < self.inner.capacity {
                        s.items.push_back(item.take().expect("item still pending"));
                        (true, std::mem::take(&mut s.waiters))
                    } else {
                        s.waiters.push(me);
                        (false, Vec::new())
                    }
                };
                for t in waiters {
                    kernel::kernel_wake(t);
                }
                if done {
                    return;
                }
                kernel::kernel_block_current();
            }
        });
    }

    /// Takes the next item, blocking while the collection is empty
    /// (`BlockingCollection.Take`). Returns `None` once the collection is
    /// completed and drained.
    pub fn take(&self) -> Option<T> {
        prim_op!(CLASS, "Take").call(self.inner.object, || {
            let me = api::current_thread();
            loop {
                let (result, waiters) = {
                    let mut s = self.inner.state.lock().expect("collection poisoned");
                    match s.items.pop_front() {
                        Some(v) => (Some(Some(v)), std::mem::take(&mut s.waiters)),
                        None if s.completed => (Some(None), Vec::new()),
                        None => {
                            s.waiters.push(me);
                            (None, Vec::new())
                        }
                    }
                };
                for t in waiters {
                    kernel::kernel_wake(t);
                }
                match result {
                    Some(v) => return v,
                    None => kernel::kernel_block_current(),
                }
            }
        })
    }

    /// Marks the collection complete (`BlockingCollection.CompleteAdding`):
    /// pending and future `Take`s drain the remaining items then return
    /// `None`.
    pub fn complete_adding(&self) {
        prim_op!(CLASS, "CompleteAdding").call(self.inner.object, || {
            let waiters = {
                let mut s = self.inner.state.lock().expect("collection poisoned");
                s.completed = true;
                std::mem::take(&mut s.waiters)
            };
            for t in waiters {
                kernel::kernel_wake(t);
            }
        });
    }

    /// Untraced current length (for assertions in tests).
    pub fn len_untraced(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("collection poisoned")
            .items
            .len()
    }
}

/// Traced `Interlocked` operations: lock-free atomic read-modify-writes.
///
/// As the paper's introduction notes, atomic operations "do not always
/// induce happens-before relationship, like when an atomic operation is used
/// to increment a statistics variable" — so `Interlocked` calls are traced
/// (and write-classified, so they form conflicting pairs) but carry no
/// blocking semantics whatsoever. Whether they get inferred as
/// synchronization depends entirely on how the program uses them.
#[derive(Clone)]
pub struct Interlocked {
    object: u64,
    value: Arc<Mutex<i64>>,
}

const INTERLOCKED: &str = "System.Threading.Interlocked";

impl Interlocked {
    /// Creates an atomic cell.
    pub fn new(initial: i64) -> Self {
        Interlocked {
            object: api::alloc_object(),
            value: Arc::new(Mutex::new(initial)),
        }
    }

    /// `Interlocked.Increment` — atomic, traced, write-classified.
    pub fn increment(&self) -> i64 {
        prim_op!(INTERLOCKED, "Increment").call_classified(
            self.object,
            sherlock_trace::AccessClass::Write,
            || {
                let mut v = self.value.lock().expect("interlocked poisoned");
                *v += 1;
                *v
            },
        )
    }

    /// `Interlocked.Exchange` — atomic swap.
    pub fn exchange(&self, new: i64) -> i64 {
        prim_op!(INTERLOCKED, "Exchange").call_classified(
            self.object,
            sherlock_trace::AccessClass::Write,
            || {
                let mut v = self.value.lock().expect("interlocked poisoned");
                std::mem::replace(&mut *v, new)
            },
        )
    }

    /// `Interlocked.Read` — atomic read, read-classified.
    pub fn read(&self) -> i64 {
        prim_op!(INTERLOCKED, "Read").call_classified(
            self.object,
            sherlock_trace::AccessClass::Read,
            || *self.value.lock().expect("interlocked poisoned"),
        )
    }
}
