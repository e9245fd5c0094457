use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use sherlock_trace::AccessClass;

use crate::api;
use crate::kernel;

/// A traced `ConcurrentDictionary.GetOrAdd` (paper Fig. 3.C).
///
/// The value delegate passed to `get_or_add` runs only when the key is
/// absent and is atomic with respect to delegates from concurrent calls on
/// the same dictionary — so the exit of one delegate happens before the entry
/// of the next, a happens-before relation SherLock infers with no knowledge
/// of the dictionary's semantics.
#[derive(Clone)]
pub struct ConcurrentMap<K, V> {
    inner: Arc<CmInner<K, V>>,
}

const CM_CLASS: &str = "System.Collections.Concurrent.ConcurrentDictionary";

struct CmInner<K, V> {
    object: u64,
    state: Mutex<CmState<K, V>>,
}

struct CmState<K, V> {
    map: HashMap<K, V>,
    busy: bool,
    waiters: Vec<u32>,
}

impl<K: Eq + Hash + Clone + Send + 'static, V: Clone + Send + 'static> ConcurrentMap<K, V> {
    /// Creates an empty concurrent dictionary.
    pub fn new() -> Self {
        ConcurrentMap {
            inner: Arc::new(CmInner {
                object: api::alloc_object(),
                state: Mutex::new(CmState {
                    map: HashMap::new(),
                    busy: false,
                    waiters: Vec::new(),
                }),
            }),
        }
    }

    /// Returns the value for `key`, running the traced delegate
    /// `class::delegate` to produce it if absent. Delegates from concurrent
    /// calls are mutually exclusive (via an internal, untraced latch).
    pub fn get_or_add(&self, key: K, class: &str, delegate: &str, f: impl FnOnce() -> V) -> V {
        prim_op!(CM_CLASS, "GetOrAdd").call(self.inner.object, || {
            let me = api::current_thread();
            // Enter the internal atomic region.
            loop {
                let entered = {
                    let mut s = self.inner.state.lock().expect("concurrent map poisoned");
                    if s.busy {
                        s.waiters.push(me);
                        false
                    } else {
                        s.busy = true;
                        true
                    }
                };
                if entered {
                    break;
                }
                kernel::kernel_block_current();
            }
            let existing = {
                let s = self.inner.state.lock().expect("concurrent map poisoned");
                s.map.get(&key).cloned()
            };
            let value = match existing {
                Some(v) => v,
                None => {
                    let v = api::app_method(class, delegate, self.inner.object, f);
                    self.inner
                        .state
                        .lock()
                        .expect("concurrent map poisoned")
                        .map
                        .insert(key, v.clone());
                    v
                }
            };
            let waiters = {
                let mut s = self.inner.state.lock().expect("concurrent map poisoned");
                s.busy = false;
                std::mem::take(&mut s.waiters)
            };
            for t in waiters {
                kernel::kernel_wake(t);
            }
            value
        })
    }

    /// Untraced read of a key (for assertions in tests).
    pub fn peek(&self, key: &K) -> Option<V> {
        self.inner
            .state
            .lock()
            .expect("concurrent map poisoned")
            .map
            .get(key)
            .cloned()
    }
}

impl<K: Eq + Hash + Clone + Send + 'static, V: Clone + Send + 'static> Default
    for ConcurrentMap<K, V>
{
    fn default() -> Self {
        ConcurrentMap::new()
    }
}

/// A *thread-unsafe* traced collection, standing in for the 14
/// `System.Collections.Generic` classes the paper instruments: its call
/// sites are classified read/write so concurrent operations on the same list
/// form conflicting pairs (and are TSVD's thread-safety-violation targets).
#[derive(Clone)]
pub struct UnsafeList<T> {
    object: u64,
    items: Arc<Mutex<Vec<T>>>,
}

const LIST_CLASS: &str = "System.Collections.Generic.List";

impl<T: Clone + Send + 'static> UnsafeList<T> {
    /// Creates an empty list.
    pub fn new() -> Self {
        UnsafeList {
            object: api::alloc_object(),
            items: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// `List.Add` — a write-like call site.
    pub fn add(&self, v: T) {
        prim_op!(LIST_CLASS, "Add").call_classified(self.object, AccessClass::Write, || {
            self.items.lock().expect("list poisoned").push(v);
        });
    }

    /// `List.get_Item` — a read-like call site.
    pub fn get(&self, index: usize) -> Option<T> {
        prim_op!(LIST_CLASS, "get_Item").call_classified(self.object, AccessClass::Read, || {
            self.items
                .lock()
                .expect("list poisoned")
                .get(index)
                .cloned()
        })
    }

    /// `List.get_Count` — a read-like call site.
    pub fn len(&self) -> usize {
        prim_op!(LIST_CLASS, "get_Count").call_classified(self.object, AccessClass::Read, || {
            self.items.lock().expect("list poisoned").len()
        })
    }

    /// Whether the list is empty (read-like call site).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `List.Clear` — a write-like call site.
    pub fn clear(&self) {
        prim_op!(LIST_CLASS, "Clear").call_classified(self.object, AccessClass::Write, || {
            self.items.lock().expect("list poisoned").clear();
        });
    }

    /// The object identity of this list instance.
    pub fn object(&self) -> u64 {
        self.object
    }
}

impl<T: Clone + Send + 'static> Default for UnsafeList<T> {
    fn default() -> Self {
        UnsafeList::new()
    }
}
