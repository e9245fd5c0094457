use std::sync::{Arc, Mutex};

use crate::api;
use crate::kernel;

/// A traced `EventWaitHandle` (manual- or auto-reset event): `Set`,
/// `WaitOne`, `Reset`, and the n-to-1 `WaitHandle.WaitAll`.
#[derive(Clone)]
pub struct EventWaitHandle {
    inner: Arc<EwInner>,
}

struct EwInner {
    object: u64,
    auto_reset: bool,
    state: Mutex<EwState>,
}

#[derive(Default)]
struct EwState {
    signaled: bool,
    waiters: Vec<u32>,
}

impl EventWaitHandle {
    /// Creates an unsignaled event. Auto-reset events consume the signal on
    /// each successful wait.
    pub fn new(auto_reset: bool) -> Self {
        EventWaitHandle {
            inner: Arc::new(EwInner {
                object: api::alloc_object(),
                auto_reset,
                state: Mutex::new(EwState::default()),
            }),
        }
    }

    /// Signals the event (`EventWaitHandle.Set`), waking waiters.
    pub fn set(&self) {
        prim_op!("System.Threading.EventWaitHandle", "Set").call(self.inner.object, || {
            let waiters = {
                let mut s = self.inner.state.lock().expect("event poisoned");
                s.signaled = true;
                std::mem::take(&mut s.waiters)
            };
            for t in waiters {
                kernel::kernel_wake(t);
            }
        });
    }

    /// Unsignals the event (`EventWaitHandle.Reset`).
    pub fn reset(&self) {
        prim_op!("System.Threading.EventWaitHandle", "Reset").call(self.inner.object, || {
            self.inner.state.lock().expect("event poisoned").signaled = false;
        });
    }

    /// Blocks until the event is signaled (`WaitHandle.WaitOne`).
    pub fn wait_one(&self) {
        prim_op!("System.Threading.WaitHandle", "WaitOne").call(self.inner.object, || {
            self.block_untraced();
        });
    }

    /// Blocks until *all* the given events are signaled
    /// (`WaitHandle.WaitAll`) — the paper's example of an n-to-1 acquire
    /// (Table 8, Radical).
    pub fn wait_all(handles: &[&EventWaitHandle]) {
        let object = handles.first().map_or(0, |h| h.inner.object);
        prim_op!("System.Threading.WaitHandle", "WaitAll").call(object, || {
            for h in handles {
                h.block_untraced();
            }
        });
    }

    /// Signals the event *without tracing* — models framework-internal
    /// handoffs the paper's instrumentation cannot see (e.g. inside skipped
    /// compiler-generated code).
    pub fn set_untraced(&self) {
        let waiters = {
            let mut s = self.inner.state.lock().expect("event poisoned");
            s.signaled = true;
            std::mem::take(&mut s.waiters)
        };
        for t in waiters {
            kernel::kernel_wake(t);
        }
    }

    /// Waits for the event *without tracing* (see [`EventWaitHandle::set_untraced`]).
    pub fn wait_one_untraced(&self) {
        self.block_untraced();
    }

    fn block_untraced(&self) {
        let me = api::current_thread();
        loop {
            let ok = {
                let mut s = self.inner.state.lock().expect("event poisoned");
                if s.signaled {
                    if self.inner.auto_reset {
                        s.signaled = false;
                    }
                    true
                } else {
                    s.waiters.push(me);
                    false
                }
            };
            if ok {
                return;
            }
            kernel::kernel_block_current();
        }
    }

    /// Whether the event is currently signaled.
    pub fn is_set(&self) -> bool {
        self.inner.state.lock().expect("event poisoned").signaled
    }
}

/// A traced counting semaphore: `Semaphore.Release` / `Semaphore.WaitOne`.
#[derive(Clone)]
pub struct Semaphore {
    inner: Arc<SemInner>,
}

struct SemInner {
    object: u64,
    state: Mutex<SemState>,
}

#[derive(Default)]
struct SemState {
    count: u32,
    waiters: Vec<u32>,
}

impl Semaphore {
    /// Creates a semaphore with an initial permit count.
    pub fn new(initial: u32) -> Self {
        Semaphore {
            inner: Arc::new(SemInner {
                object: api::alloc_object(),
                state: Mutex::new(SemState {
                    count: initial,
                    waiters: Vec::new(),
                }),
            }),
        }
    }

    /// Releases `n` permits.
    pub fn release(&self, n: u32) {
        prim_op!("System.Threading.Semaphore", "Release").call(self.inner.object, || {
            let waiters = {
                let mut s = self.inner.state.lock().expect("semaphore poisoned");
                s.count += n;
                std::mem::take(&mut s.waiters)
            };
            for t in waiters {
                kernel::kernel_wake(t);
            }
        });
    }

    /// Blocks until a permit is available, then takes it.
    pub fn wait_one(&self) {
        prim_op!("System.Threading.Semaphore", "WaitOne").call(self.inner.object, || {
            let me = api::current_thread();
            loop {
                let ok = {
                    let mut s = self.inner.state.lock().expect("semaphore poisoned");
                    if s.count > 0 {
                        s.count -= 1;
                        true
                    } else {
                        s.waiters.push(me);
                        false
                    }
                };
                if ok {
                    return;
                }
                kernel::kernel_block_current();
            }
        });
    }
}

/// A traced `System.Threading.ReaderWriterLock`, including
/// `UpgradeToWriterLock` — the API that *violates* SherLock's Single-Role
/// assumption because it releases a reader lock and acquires a writer lock
/// inside one call (paper §5.5, the Double-Roles false-positive category).
#[derive(Clone)]
pub struct RwLock {
    inner: Arc<RwInner>,
}

const RW_CLASS: &str = "System.Threading.ReaderWriterLock";

struct RwInner {
    object: u64,
    state: Mutex<RwState>,
}

#[derive(Default)]
struct RwState {
    readers: Vec<u32>,
    writer: Option<u32>,
    waiters: Vec<u32>,
}

impl RwLock {
    /// Creates an uncontended reader-writer lock.
    pub fn new() -> Self {
        RwLock {
            inner: Arc::new(RwInner {
                object: api::alloc_object(),
                state: Mutex::new(RwState::default()),
            }),
        }
    }

    /// Acquires a shared reader lock.
    pub fn acquire_reader_lock(&self) {
        prim_op!(RW_CLASS, "AcquireReaderLock").call(self.inner.object, || {
            self.lock_reader_untraced();
        });
    }

    /// Releases the calling thread's reader lock.
    pub fn release_reader_lock(&self) {
        prim_op!(RW_CLASS, "ReleaseReaderLock").call(self.inner.object, || {
            self.unlock_reader_untraced();
        });
    }

    /// Acquires the exclusive writer lock.
    pub fn acquire_writer_lock(&self) {
        prim_op!(RW_CLASS, "AcquireWriterLock").call(self.inner.object, || {
            self.lock_writer_untraced();
        });
    }

    /// Releases the writer lock.
    pub fn release_writer_lock(&self) {
        prim_op!(RW_CLASS, "ReleaseWriterLock").call(self.inner.object, || {
            self.unlock_writer_untraced();
        });
    }

    /// Atomically (from the caller's view) releases the reader lock and
    /// acquires the writer lock — *one* traced API performing both a release
    /// and an acquire.
    pub fn upgrade_to_writer_lock(&self) {
        prim_op!(RW_CLASS, "UpgradeToWriterLock").call(self.inner.object, || {
            self.unlock_reader_untraced();
            self.lock_writer_untraced();
        });
    }

    /// Downgrades the writer lock back to a reader lock.
    pub fn downgrade_from_writer_lock(&self) {
        prim_op!(RW_CLASS, "DowngradeFromWriterLock").call(self.inner.object, || {
            self.unlock_writer_untraced();
            self.lock_reader_untraced();
        });
    }

    fn lock_reader_untraced(&self) {
        let me = api::current_thread();
        loop {
            let ok = {
                let mut s = self.inner.state.lock().expect("rwlock poisoned");
                if s.writer.is_none() {
                    s.readers.push(me);
                    true
                } else {
                    s.waiters.push(me);
                    false
                }
            };
            if ok {
                return;
            }
            kernel::kernel_block_current();
        }
    }

    fn unlock_reader_untraced(&self) {
        let me = api::current_thread();
        let waiters = {
            let mut s = self.inner.state.lock().expect("rwlock poisoned");
            if let Some(pos) = s.readers.iter().position(|&r| r == me) {
                s.readers.swap_remove(pos);
            }
            std::mem::take(&mut s.waiters)
        };
        for t in waiters {
            kernel::kernel_wake(t);
        }
    }

    fn lock_writer_untraced(&self) {
        let me = api::current_thread();
        loop {
            let ok = {
                let mut s = self.inner.state.lock().expect("rwlock poisoned");
                if s.writer.is_none() && s.readers.is_empty() {
                    s.writer = Some(me);
                    true
                } else {
                    s.waiters.push(me);
                    false
                }
            };
            if ok {
                return;
            }
            kernel::kernel_block_current();
        }
    }

    fn unlock_writer_untraced(&self) {
        let waiters = {
            let mut s = self.inner.state.lock().expect("rwlock poisoned");
            assert_eq!(
                s.writer,
                Some(api::current_thread()),
                "writer unlock by non-owner"
            );
            s.writer = None;
            std::mem::take(&mut s.waiters)
        };
        for t in waiters {
            kernel::kernel_wake(t);
        }
    }
}

impl Default for RwLock {
    fn default() -> Self {
        RwLock::new()
    }
}

/// A traced `System.Threading.Barrier`: participants block at
/// [`Barrier::signal_and_wait`] until all of them arrive, then proceed
/// together into the next phase. Manual_dr's annotation list covers barriers
/// (paper §5.4); SherLock infers the same call site as both roles' home.
#[derive(Clone)]
pub struct Barrier {
    inner: Arc<BarrierInner>,
}

struct BarrierInner {
    object: u64,
    participants: u32,
    state: Mutex<BarrierState>,
}

#[derive(Default)]
struct BarrierState {
    arrived: u32,
    generation: u64,
    waiters: Vec<u32>,
}

impl Barrier {
    /// Creates a barrier for `participants` threads.
    pub fn new(participants: u32) -> Self {
        assert!(participants > 0, "barrier needs at least one participant");
        Barrier {
            inner: Arc::new(BarrierInner {
                object: api::alloc_object(),
                participants,
                state: Mutex::new(BarrierState::default()),
            }),
        }
    }

    /// Arrives at the barrier and blocks until the phase completes
    /// (`Barrier.SignalAndWait`). Returns the completed phase number.
    pub fn signal_and_wait(&self) -> u64 {
        prim_op!("System.Threading.Barrier", "SignalAndWait").call(self.inner.object, || {
            let me = api::current_thread();
            let my_generation = {
                let mut s = self.inner.state.lock().expect("barrier poisoned");
                let gen = s.generation;
                s.arrived += 1;
                if s.arrived == self.inner.participants {
                    s.arrived = 0;
                    s.generation += 1;
                    let waiters = std::mem::take(&mut s.waiters);
                    drop(s);
                    for t in waiters {
                        kernel::kernel_wake(t);
                    }
                    return gen;
                }
                s.waiters.push(me);
                gen
            };
            loop {
                kernel::kernel_block_current();
                let s = self.inner.state.lock().expect("barrier poisoned");
                if s.generation > my_generation {
                    return my_generation;
                }
                // Spurious wake: re-register.
                drop(s);
                let mut s = self.inner.state.lock().expect("barrier poisoned");
                s.waiters.push(me);
            }
        })
    }
}

/// A traced `System.Threading.CountdownEvent`: [`CountdownEvent::signal`]
/// decrements the count; [`CountdownEvent::wait`] blocks until it reaches
/// zero — the n-to-1 join idiom.
#[derive(Clone)]
pub struct CountdownEvent {
    inner: Arc<CdInner>,
}

struct CdInner {
    object: u64,
    state: Mutex<CdState>,
}

#[derive(Default)]
struct CdState {
    count: u32,
    waiters: Vec<u32>,
}

impl CountdownEvent {
    /// Creates an event expecting `count` signals.
    pub fn new(count: u32) -> Self {
        CountdownEvent {
            inner: Arc::new(CdInner {
                object: api::alloc_object(),
                state: Mutex::new(CdState {
                    count,
                    waiters: Vec::new(),
                }),
            }),
        }
    }

    /// Signals once (`CountdownEvent.Signal`), waking waiters when the count
    /// reaches zero. Returns `true` when this signal released the event.
    pub fn signal(&self) -> bool {
        prim_op!("System.Threading.CountdownEvent", "Signal").call(self.inner.object, || {
            let (zero, waiters) = {
                let mut s = self.inner.state.lock().expect("countdown poisoned");
                assert!(s.count > 0, "CountdownEvent signaled below zero");
                s.count -= 1;
                if s.count == 0 {
                    (true, std::mem::take(&mut s.waiters))
                } else {
                    (false, Vec::new())
                }
            };
            for t in waiters {
                kernel::kernel_wake(t);
            }
            zero
        })
    }

    /// Blocks until the count reaches zero (`CountdownEvent.Wait`).
    pub fn wait(&self) {
        prim_op!("System.Threading.CountdownEvent", "Wait").call(self.inner.object, || {
            let me = api::current_thread();
            loop {
                let done = {
                    let mut s = self.inner.state.lock().expect("countdown poisoned");
                    if s.count == 0 {
                        true
                    } else {
                        s.waiters.push(me);
                        false
                    }
                };
                if done {
                    return;
                }
                kernel::kernel_block_current();
            }
        })
    }

    /// Untraced current count (for assertions in tests).
    pub fn count_untraced(&self) -> u32 {
        self.inner.state.lock().expect("countdown poisoned").count
    }
}
