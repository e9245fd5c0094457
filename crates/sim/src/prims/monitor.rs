use std::sync::{Arc, Mutex};

use crate::api;
use crate::kernel;

const CLASS: &str = "System.Threading.Monitor";

/// The C# `lock` primitive: `Monitor.Enter` / `Monitor.Exit`, reentrant.
///
/// `Enter` blocks until the monitor is free; the paper infers `Enter` as an
/// acquire and the exit of `Exit` as the matching release (Table 8), guided
/// by the Mostly-Paired hypothesis — both live in class
/// `System.Threading.Monitor`.
#[derive(Clone)]
pub struct Monitor {
    inner: Arc<MonitorInner>,
}

struct MonitorInner {
    object: u64,
    state: Mutex<MonState>,
}

#[derive(Default)]
struct MonState {
    owner: Option<u32>,
    depth: u32,
    waiters: Vec<u32>,
    /// Threads parked in `Monitor.Wait`, pending a pulse.
    sleepers: Vec<u32>,
    /// Sleepers moved back to contention by a pulse.
    pulsed: Vec<u32>,
}

impl Monitor {
    /// Creates a monitor on a fresh object. Must be called from inside a
    /// simulated thread.
    pub fn new() -> Self {
        Monitor {
            inner: Arc::new(MonitorInner {
                object: api::alloc_object(),
                state: Mutex::new(MonState::default()),
            }),
        }
    }

    /// Acquires the monitor, blocking while another thread holds it.
    pub fn enter(&self) {
        prim_op!(CLASS, "Enter").call(self.inner.object, || {
            let me = api::current_thread();
            loop {
                let acquired = {
                    let mut s = self.inner.state.lock().expect("monitor poisoned");
                    match s.owner {
                        None => {
                            s.owner = Some(me);
                            s.depth = 1;
                            true
                        }
                        Some(o) if o == me => {
                            s.depth += 1;
                            true
                        }
                        Some(_) => {
                            s.waiters.push(me);
                            false
                        }
                    }
                };
                if acquired {
                    return;
                }
                kernel::kernel_block_current();
            }
        });
    }

    /// Releases the monitor.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread does not hold the monitor.
    pub fn exit(&self) {
        prim_op!(CLASS, "Exit").call(self.inner.object, || {
            let me = api::current_thread();
            let to_wake = {
                let mut s = self.inner.state.lock().expect("monitor poisoned");
                assert_eq!(s.owner, Some(me), "Monitor.Exit by non-owner");
                s.depth -= 1;
                if s.depth == 0 {
                    s.owner = None;
                    std::mem::take(&mut s.waiters)
                } else {
                    Vec::new()
                }
            };
            for t in to_wake {
                kernel::kernel_wake(t);
            }
        });
    }

    /// Releases the monitor, blocks until another thread pulses it, then
    /// reacquires (`Monitor.Wait` — the classic condition-variable wait).
    ///
    /// # Panics
    ///
    /// Panics if the calling thread does not hold the monitor.
    pub fn wait(&self) {
        prim_op!(CLASS, "Wait").call(self.inner.object, || {
            let me = api::current_thread();
            let (depth, to_wake) = {
                let mut s = self.inner.state.lock().expect("monitor poisoned");
                assert_eq!(s.owner, Some(me), "Monitor.Wait by non-owner");
                let depth = s.depth;
                s.owner = None;
                s.depth = 0;
                s.sleepers.push(me);
                (depth, std::mem::take(&mut s.waiters))
            };
            for t in to_wake {
                kernel::kernel_wake(t);
            }
            // Park until pulsed.
            loop {
                kernel::kernel_block_current();
                let mut st = self.inner.state.lock().expect("monitor poisoned");
                if let Some(pos) = st.pulsed.iter().position(|&t| t == me) {
                    st.pulsed.swap_remove(pos);
                    break;
                }
                // Spurious wake while still a sleeper: keep waiting.
            }
            // Reacquire at the original depth.
            loop {
                let acquired = {
                    let mut s = self.inner.state.lock().expect("monitor poisoned");
                    if s.owner.is_none() {
                        s.owner = Some(me);
                        s.depth = depth;
                        true
                    } else {
                        s.waiters.push(me);
                        false
                    }
                };
                if acquired {
                    return;
                }
                kernel::kernel_block_current();
            }
        });
    }

    /// Wakes one `Monitor.Wait` sleeper (`Monitor.Pulse`).
    ///
    /// # Panics
    ///
    /// Panics if the calling thread does not hold the monitor.
    pub fn pulse(&self) {
        prim_op!(CLASS, "Pulse").call(self.inner.object, || {
            let woken = {
                let mut s = self.inner.state.lock().expect("monitor poisoned");
                assert_eq!(
                    s.owner,
                    Some(api::current_thread()),
                    "Monitor.Pulse by non-owner"
                );
                if s.sleepers.is_empty() {
                    None
                } else {
                    let t = s.sleepers.remove(0);
                    s.pulsed.push(t);
                    Some(t)
                }
            };
            if let Some(t) = woken {
                kernel::kernel_wake(t);
            }
        });
    }

    /// Wakes every `Monitor.Wait` sleeper (`Monitor.PulseAll`).
    ///
    /// # Panics
    ///
    /// Panics if the calling thread does not hold the monitor.
    pub fn pulse_all(&self) {
        prim_op!(CLASS, "PulseAll").call(self.inner.object, || {
            let woken = {
                let mut s = self.inner.state.lock().expect("monitor poisoned");
                assert_eq!(
                    s.owner,
                    Some(api::current_thread()),
                    "Monitor.PulseAll by non-owner"
                );
                let all = std::mem::take(&mut s.sleepers);
                s.pulsed.extend(all.iter().copied());
                all
            };
            for t in woken {
                kernel::kernel_wake(t);
            }
        });
    }

    /// Runs `body` under the monitor (the C# `lock (obj) { ... }` statement).
    pub fn with_lock<R>(&self, body: impl FnOnce() -> R) -> R {
        self.enter();
        let r = body();
        self.exit();
        r
    }

    /// The object identity of this monitor.
    pub fn object(&self) -> u64 {
        self.inner.object
    }
}

impl Default for Monitor {
    fn default() -> Self {
        Monitor::new()
    }
}
