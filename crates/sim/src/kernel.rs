//! The cooperative virtual-time scheduler.
//!
//! Every simulated thread runs in isolation: exactly one executes at any
//! instant. The scheduler hands a single "go" token to one runnable thread,
//! which runs until its next traced operation (a *yield point*). A seeded RNG
//! picks the next runnable thread, so a run is a deterministic function of
//! `(workload, SimConfig)` — the property the paper's wall-clock executions
//! lack and the reason inference results here are exactly reproducible.
//!
//! One function, `decide`, makes every scheduling decision: it wakes due
//! sleepers, collects the runnable set, runs the idle and deadlock checks,
//! asks the [`Strategy`] to pick and counts context switches. Two transports
//! carry the token (see [`crate::config::SimBackend`]):
//!
//! * **Fibers** (default on x86-64 unix): each simulated thread is a stackful
//!   coroutine on the scheduler's own OS thread (`crate::fiber`). A yield
//!   point calls `decide` itself, under the kernel lock it already holds. If
//!   the pick is the running thread, that thread simply continues; only a
//!   pick of another thread (or the end of the run) suspends the fiber, and
//!   the scheduler then carries out the decision the fiber left behind.
//! * **OS threads** (fallback + differential oracle): each simulated thread
//!   is a real OS thread parked on a channel; every yield point hands the
//!   token back to the scheduler loop, which calls `decide`. Each step costs
//!   two OS context switches.
//!
//! Both transports make the same decisions in the same order, so RNG
//! consumption and trace emission agree byte for byte — asserted by
//! `tests/backend_parity.rs`.

use std::cell::{Cell, RefCell};

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use sherlock_obs::counter;
use sherlock_trace::{AccessClass, IdMap, OpId, OpRef, ThreadId, Time, Trace, TraceBuilder};

use crate::config::{SimBackend, SimConfig};
use crate::fiber;
use crate::rng::SplitMix64;
use crate::strategy::Strategy;

/// Panic payload used to unwind simulated threads when a run is aborted.
struct AbortToken;

#[derive(Clone, Copy)]
enum GoMsg {
    Run,
    Abort,
}

impl GoMsg {
    /// Encoding used when the token travels over a fiber switch.
    fn payload(self) -> usize {
        match self {
            GoMsg::Run => fiber::MSG_RUN,
            GoMsg::Abort => fiber::MSG_ABORT,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Blocked,
    Sleeping(Time),
    Finished,
}

/// How the go token reaches one simulated thread.
enum Transport {
    Os {
        go: Sender<GoMsg>,
        handle: Option<std::thread::JoinHandle<()>>,
    },
    /// `None` while the scheduler holds the fiber mid-resume.
    Fiber(Option<fiber::Fiber>),
}

struct ThreadSlot {
    name: String,
    state: ThreadState,
    daemon: bool,
    transport: Transport,
    join_waiters: Vec<u32>,
}

pub(crate) struct KState {
    pub(crate) config: SimConfig,
    clock: Time,
    rng: SplitMix64,
    strategy: Box<dyn Strategy>,
    trace: TraceBuilder,
    threads: Vec<ThreadSlot>,
    next_object: u64,
    steps: u64,
    context_switches: u64,
    events_traced: u64,
    /// How this run traces each operation it has met, keyed by op.
    plans: IdMap<OpId, OpPlan>,
    panics: Vec<PanicReport>,
    live_nondaemon: usize,
    /// Resolved once per run; `spawn_on` uses it to pick the transport.
    fibers: bool,
    /// The runnable set, rebuilt by every [`decide`] (kept to reuse its
    /// allocation).
    runnable: Vec<u32>,
    /// The thread the last decision picked, for context-switch counting.
    last_run: Option<u32>,
    /// The last virtual time at which a non-daemon thread was runnable or
    /// sleeping; the idle-timeout check measures from here.
    last_nondaemon_activity: Time,
    /// A decision made by a yielding fiber, left for the scheduler to carry
    /// out.
    pending: Option<Act>,
    /// Whether fiber yield points decide the next step themselves. Cleared
    /// when the scheduler loop ends, so a thread that yields while being
    /// aborted always returns to the scheduler.
    deciding: bool,
    /// Yields that handed the token back to the scheduler.
    handoffs: u64,
}

/// What the scheduler does next.
enum Act {
    /// Hand the go token to this thread.
    Run(u32),
    /// Nothing is runnable: move the clock to the earliest wake-up.
    AdvanceTo(Time),
    /// Every non-daemon thread has finished.
    Done,
    /// No non-daemon thread can make progress; these are blocked.
    Deadlock(Vec<ThreadId>),
    /// The run has used up [`SimConfig::max_steps`].
    StepLimit,
}

/// What the Observer does with every dynamic instance of one static
/// operation in this run. Decided from the run's [`SimConfig`] the first time
/// the operation is traced.
#[derive(Clone, Copy)]
struct OpPlan {
    /// A method the instrumentation filter hides.
    skipped: bool,
    /// A method event whose access class is dropped because
    /// `classify_unsafe_apis` is off.
    unclassified: bool,
    /// The delay plan's `(duration, probability)` entry.
    delay: Option<(Time, f64)>,
}

pub(crate) struct Kernel {
    pub(crate) state: Mutex<KState>,
    to_sched: Sender<u32>,
}

enum CtxKind {
    Os { go_rx: Receiver<GoMsg> },
    Fiber,
}

struct Ctx {
    kernel: Arc<Kernel>,
    /// Fixed for an OS-thread context; retargeted before every resume for
    /// the (shared, per-scheduler) fiber context.
    tid: Cell<u32>,
    kind: CtxKind,
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<Ctx>>> = const { RefCell::new(None) };
}

fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> R {
    // Clone the Rc out and release the borrow *before* running `f`: in fiber
    // mode `f` may suspend back to the scheduler, which then needs to mutate
    // CURRENT while this frame is parked on the fiber stack.
    let ctx = CURRENT
        .with(|c| c.borrow().as_ref().map(Rc::clone))
        .expect("sherlock-sim operation used outside Sim::run");
    f(&ctx)
}

/// Whether the calling code is executing simulated code (either an OS-backed
/// sim thread or a fiber resumed by a scheduler on this thread). Used by the
/// panic hook; must never panic itself.
pub(crate) fn in_sim_context() -> bool {
    CURRENT
        .try_with(|c| match c.try_borrow() {
            Ok(b) => b.is_some(),
            // A held borrow means we are inside a kernel service — sim code.
            Err(_) => true,
        })
        .unwrap_or(false)
}

impl Ctx {
    /// Ends the current step at a yield point; `st` is the kernel lock the
    /// yield point holds. A fiber decides the next step itself: when the
    /// pick is this thread again it continues without a switch, otherwise it
    /// leaves the decision in [`KState::pending`] and suspends. An OS-backed
    /// thread hands the token back and parks until re-scheduled.
    fn yield_to_scheduler(&self, mut st: MutexGuard<'_, KState>) {
        match &self.kind {
            CtxKind::Os { go_rx } => {
                st.handoffs += 1;
                drop(st);
                self.kernel
                    .to_sched
                    .send(self.tid.get())
                    .expect("scheduler channel closed");
                match go_rx.recv() {
                    Ok(GoMsg::Run) => {}
                    Ok(GoMsg::Abort) | Err(_) => resume_unwind(Box::new(AbortToken)),
                }
            }
            CtxKind::Fiber => {
                if st.deciding {
                    let me = self.tid.get();
                    let act = loop {
                        match decide(&mut st) {
                            Act::AdvanceTo(t) => st.clock = st.clock.max(t),
                            Act::Run(tid) if tid == me => return,
                            act => break act,
                        }
                    };
                    st.pending = Some(act);
                }
                st.handoffs += 1;
                drop(st);
                if fiber::suspend(self.tid.get() as usize) == fiber::MSG_ABORT {
                    resume_unwind(Box::new(AbortToken));
                }
            }
        }
    }
}

/// A panic observed on a simulated thread (e.g. a failing test assertion —
/// the paper notes two seeded data races manifest exactly this way, §5.5).
#[derive(Clone, Debug)]
pub struct PanicReport {
    /// Thread the panic occurred on.
    pub thread: ThreadId,
    /// Thread name at spawn time.
    pub thread_name: String,
    /// Rendered panic message.
    pub message: String,
}

/// How a simulated run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// All non-daemon threads ran to completion.
    Completed,
    /// Every non-daemon thread was blocked with nothing left to wake it.
    Deadlock(Vec<ThreadId>),
    /// The run exceeded [`SimConfig::max_steps`].
    StepLimit,
}

/// The result of one simulated run.
#[derive(Debug)]
pub struct RunReport {
    /// The execution trace the Observer collected.
    pub trace: Trace,
    /// Virtual time at the end of the run.
    pub end_time: Time,
    /// Scheduled steps executed.
    pub steps: u64,
    /// Panics caught on simulated threads.
    pub panics: Vec<PanicReport>,
    /// How the run ended.
    pub outcome: Outcome,
    /// Spawn-time names of all simulated threads, indexed by tid — the
    /// deadlock report uses these to name the blocked threads.
    pub thread_names: Vec<String>,
}

impl RunReport {
    /// Whether the run completed with no panics.
    pub fn is_clean(&self) -> bool {
        self.outcome == Outcome::Completed && self.panics.is_empty()
    }

    /// A human-readable deadlock report naming every blocked non-daemon
    /// thread, or `None` when the run did not deadlock.
    pub fn deadlock_message(&self) -> Option<String> {
        let Outcome::Deadlock(blocked) = &self.outcome else {
            return None;
        };
        let names: Vec<String> = blocked
            .iter()
            .map(|t| {
                let idx = t.0 as usize;
                match self.thread_names.get(idx) {
                    Some(n) => format!("\"{n}\" (tid {})", t.0),
                    None => format!("tid {}", t.0),
                }
            })
            .collect();
        Some(format!(
            "deadlock: {} non-daemon thread(s) blocked with nothing to wake them: {}",
            blocked.len(),
            names.join(", ")
        ))
    }
}

/// Resolves the configured backend against the environment override and
/// platform support.
fn use_fibers(config: &SimConfig) -> bool {
    fn env_backend() -> Option<SimBackend> {
        static ENV: OnceLock<Option<SimBackend>> = OnceLock::new();
        *ENV.get_or_init(|| {
            std::env::var("SHERLOCK_SIM_BACKEND")
                .ok()
                .and_then(|s| SimBackend::parse(&s))
        })
    }
    let choice = match config.backend {
        SimBackend::Auto => env_backend().unwrap_or(SimBackend::Auto),
        explicit => explicit,
    };
    match choice {
        SimBackend::OsThreads => false,
        SimBackend::Fibers | SimBackend::Auto => fiber::is_supported(),
    }
}

/// A deterministic simulated execution.
///
/// ```
/// use sherlock_sim::{Sim, SimConfig, api};
/// use sherlock_trace::Time;
///
/// let report = Sim::new(SimConfig::with_seed(7)).run(|| {
///     let h = api::spawn("child", || api::sleep(Time::from_millis(1)));
///     h.join();
/// });
/// assert!(report.is_clean());
/// ```
pub struct Sim {
    config: SimConfig,
}

impl Sim {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Sim { config }
    }

    /// Runs `root` as the first simulated thread, scheduling all threads it
    /// spawns until every non-daemon thread finishes (or the run deadlocks /
    /// exhausts its step budget). Returns the collected trace and outcome.
    pub fn run(self, root: impl FnOnce() + Send + 'static) -> RunReport {
        let (to_sched, sched_rx) = channel::<u32>();
        let fibers = use_fibers(&self.config);
        // Strategy state is built before the root spawn so `on_spawn`
        // notifications cover every thread, root included.
        let strategy = self.config.strategy.build(self.config.seed);
        let kernel = Arc::new(Kernel {
            state: Mutex::new(KState {
                clock: Time::ZERO,
                rng: SplitMix64::new(self.config.seed),
                strategy,
                trace: TraceBuilder::new(),
                threads: Vec::new(),
                next_object: 1,
                steps: 0,
                context_switches: 0,
                events_traced: 0,
                plans: IdMap::default(),
                panics: Vec::new(),
                live_nondaemon: 0,
                fibers,
                runnable: Vec::new(),
                last_run: None,
                last_nondaemon_activity: Time::ZERO,
                pending: None,
                deciding: true,
                handoffs: 0,
                config: self.config,
            }),
            to_sched,
        });
        // One shared context serves every fiber; its tid is retargeted
        // before each resume. OS-backed threads build their own contexts.
        let fiber_ctx = fibers.then(|| {
            Rc::new(Ctx {
                kernel: Arc::clone(&kernel),
                tid: Cell::new(0),
                kind: CtxKind::Fiber,
            })
        });
        spawn_on(&kernel, "root", false, root);

        // One critical section per handoff: carry out the decision a
        // yielding fiber left behind (or make it), take the next thread's
        // transport, and on its return put the transport back.
        let mut st = kernel.state.lock().expect("kernel state poisoned");
        let outcome = loop {
            let act = match st.pending.take() {
                Some(act) => act,
                None => decide(&mut st),
            };
            match act {
                Act::Run(tid) => {
                    let via = take_transport(&mut st, tid);
                    drop(st);
                    st = dispatch(&kernel, &sched_rx, fiber_ctx.as_ref(), tid, via, GoMsg::Run);
                }
                Act::AdvanceTo(t) => st.clock = st.clock.max(t),
                Act::Done => break Outcome::Completed,
                Act::Deadlock(blocked) => break Outcome::Deadlock(blocked),
                Act::StepLimit => break Outcome::StepLimit,
            }
        };
        st.deciding = false;
        drop(st);

        abort_all(&kernel, &sched_rx, fiber_ctx.as_ref());

        let handles: Vec<_> = {
            let mut st = kernel.state.lock().expect("kernel state poisoned");
            st.threads
                .iter_mut()
                .filter_map(|s| match &mut s.transport {
                    Transport::Os { handle, .. } => handle.take(),
                    Transport::Fiber(_) => None,
                })
                .collect()
        };
        for h in handles {
            let _ = h.join();
        }

        // The shared fiber context holds the last outstanding kernel Arc.
        drop(fiber_ctx);
        let st = Arc::try_unwrap(kernel)
            .unwrap_or_else(|_| panic!("kernel still referenced after join"))
            .state
            .into_inner()
            .expect("kernel state poisoned");
        counter!("kernel.steps").add(st.steps);
        counter!("kernel.context_switches").add(st.context_switches);
        counter!("kernel.events_traced").add(st.events_traced);
        counter!("kernel.handoffs").add(st.handoffs);
        counter!("kernel.runs").add(1);
        if fibers {
            counter!("kernel.fiber_runs").add(1);
        }
        RunReport {
            trace: st.trace.finish(),
            end_time: st.clock,
            steps: st.steps,
            panics: st.panics,
            outcome,
            thread_names: st.threads.iter().map(|s| s.name.clone()).collect(),
        }
    }
}

/// The next scheduling decision: wakes due sleepers, collects the runnable
/// set, runs the idle-timeout and deadlock checks, lets the strategy pick and
/// counts a context switch when the pick changes threads. Every decision of
/// a run, on either transport, goes through here under the kernel lock.
fn decide(st: &mut KState) -> Act {
    if st.live_nondaemon == 0 {
        return Act::Done;
    }
    if st.steps >= st.config.max_steps {
        return Act::StepLimit;
    }
    // One pass wakes due sleepers and collects the runnable set and the
    // earliest remaining wake-up.
    let clock = st.clock;
    let mut nondaemon_live = false;
    let mut wake: Option<Time> = None;
    st.runnable.clear();
    for (i, slot) in st.threads.iter_mut().enumerate() {
        if let ThreadState::Sleeping(until) = slot.state {
            if until <= clock {
                slot.state = ThreadState::Runnable;
            } else {
                wake = Some(wake.map_or(until, |w| w.min(until)));
            }
        }
        match slot.state {
            ThreadState::Runnable => {
                st.runnable.push(i as u32);
                nondaemon_live |= !slot.daemon;
            }
            ThreadState::Sleeping(_) => nondaemon_live |= !slot.daemon,
            ThreadState::Blocked | ThreadState::Finished => {}
        }
    }
    if nondaemon_live {
        st.last_nondaemon_activity = clock;
    }
    if !nondaemon_live && clock.saturating_sub(st.last_nondaemon_activity) > st.config.idle_timeout
    {
        return Act::Deadlock(blocked_nondaemons(st));
    }
    if st.runnable.is_empty() {
        return match wake {
            Some(t) => Act::AdvanceTo(t),
            None => Act::Deadlock(blocked_nondaemons(st)),
        };
    }
    let idx = st.strategy.pick(&st.runnable, st.steps, &mut st.rng);
    let tid = st.runnable[idx];
    if st.last_run != Some(tid) {
        st.context_switches += 1;
        st.last_run = Some(tid);
    }
    Act::Run(tid)
}

/// Non-daemon threads that are blocked, for a deadlock report.
fn blocked_nondaemons(st: &KState) -> Vec<ThreadId> {
    st.threads
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.daemon && s.state == ThreadState::Blocked)
        .map(|(i, _)| ThreadId(i as u32))
        .collect()
}

/// How the go token reaches the thread picked to run next.
enum Via {
    Os(Sender<GoMsg>),
    Fiber(fiber::Fiber),
}

/// Takes what [`dispatch`] needs to resume `tid`; a fiber leaves its slot
/// until it hands the token back.
fn take_transport(st: &mut KState, tid: u32) -> Via {
    match &mut st.threads[tid as usize].transport {
        Transport::Os { go, .. } => Via::Os(go.clone()),
        Transport::Fiber(f) => Via::Fiber(f.take().expect("fiber resumed while running")),
    }
}

/// Delivers one go token to `tid` and waits for the thread to hand it back
/// (by yielding or finishing). The kernel lock is *not* held across the
/// handoff — the target immediately re-enters kernel services. Returns the
/// kernel lock, re-taken once the token is back, with a fiber's transport
/// returned to its slot.
fn dispatch<'k>(
    kernel: &'k Kernel,
    sched_rx: &Receiver<u32>,
    fiber_ctx: Option<&Rc<Ctx>>,
    tid: u32,
    via: Via,
    msg: GoMsg,
) -> MutexGuard<'k, KState> {
    match via {
        Via::Os(go) => {
            go.send(msg).expect("sim thread channel closed");
            sched_rx.recv().expect("all sim threads vanished");
            kernel.state.lock().expect("kernel state poisoned")
        }
        Via::Fiber(mut f) => {
            let ctx = fiber_ctx.expect("fiber transport without a fiber ctx");
            ctx.tid.set(tid);
            // Save/restore CURRENT so a nested Sim::run driven from inside a
            // fiber keeps its outer context.
            let prev = CURRENT.with(|c| c.borrow_mut().replace(Rc::clone(ctx)));
            let _ = f.resume(msg.payload());
            CURRENT.with(|c| *c.borrow_mut() = prev);
            let mut st = kernel.state.lock().expect("kernel state poisoned");
            st.threads[tid as usize].transport = Transport::Fiber(Some(f));
            st
        }
    }
}

/// Resumes each unfinished thread with the abort token until its stack has
/// fully unwound, one thread at a time on either transport. A thread that
/// yields while unwinding (a destructor that traces) comes back here and is
/// aborted again.
fn abort_all(kernel: &Kernel, sched_rx: &Receiver<u32>, fiber_ctx: Option<&Rc<Ctx>>) {
    let mut st = kernel.state.lock().expect("kernel state poisoned");
    while let Some(i) = st
        .threads
        .iter()
        .position(|s| s.state != ThreadState::Finished)
    {
        let tid = i as u32;
        let via = take_transport(&mut st, tid);
        drop(st);
        st = dispatch(kernel, sched_rx, fiber_ctx, tid, via, GoMsg::Abort);
    }
}

/// Registers a new thread slot (state bookkeeping shared by both transports).
fn alloc_slot(st: &mut KState, name: &str, daemon: bool, transport: Transport) -> u32 {
    let tid = u32::try_from(st.threads.len()).expect("too many sim threads");
    st.threads.push(ThreadSlot {
        name: name.to_string(),
        state: ThreadState::Runnable,
        daemon,
        transport,
        join_waiters: Vec::new(),
    });
    if !daemon {
        st.live_nondaemon += 1;
    }
    st.strategy.on_spawn(tid);
    tid
}

pub(crate) fn spawn_on(
    kernel: &Arc<Kernel>,
    name: &str,
    daemon: bool,
    f: impl FnOnce() + Send + 'static,
) -> u32 {
    let fibers = kernel.state.lock().expect("kernel state poisoned").fibers;
    if fibers {
        spawn_fiber_on(kernel, name, daemon, f)
    } else {
        spawn_os_on(kernel, name, daemon, f)
    }
}

fn spawn_fiber_on(
    kernel: &Arc<Kernel>,
    name: &str,
    daemon: bool,
    f: impl FnOnce() + Send + 'static,
) -> u32 {
    let tname = name.to_string();
    // Mirrors the OS-thread body below: first token decides whether the
    // workload runs at all; the abort token unwinds via AbortToken inside
    // `catch_unwind`; finish bookkeeping always happens. CURRENT is set by
    // the scheduler around every resume, so `with_ctx` works here untouched.
    let fib = fiber::Fiber::new(move |first| {
        let panic_msg = if first == fiber::MSG_RUN {
            match catch_unwind(AssertUnwindSafe(f)) {
                Ok(()) => None,
                Err(p) if p.is::<AbortToken>() => None,
                Err(p) => Some(render_panic(&*p)),
            }
        } else {
            None
        };
        with_ctx(|ctx| finish_current(ctx, panic_msg, &tname));
    });
    let mut st = kernel.state.lock().expect("kernel state poisoned");
    alloc_slot(&mut st, name, daemon, Transport::Fiber(Some(fib)))
}

fn spawn_os_on(
    kernel: &Arc<Kernel>,
    name: &str,
    daemon: bool,
    f: impl FnOnce() + Send + 'static,
) -> u32 {
    let (go_tx, go_rx) = channel::<GoMsg>();
    let tid = {
        let mut st = kernel.state.lock().expect("kernel state poisoned");
        alloc_slot(
            &mut st,
            name,
            daemon,
            Transport::Os {
                go: go_tx,
                handle: None,
            },
        )
    };
    let k = Arc::clone(kernel);
    let tname = name.to_string();
    let handle = std::thread::Builder::new()
        .name(format!("sim-{tname}"))
        .spawn(move || {
            let ctx = Rc::new(Ctx {
                kernel: k,
                tid: Cell::new(tid),
                kind: CtxKind::Os { go_rx },
            });
            CURRENT.with(|c| *c.borrow_mut() = Some(Rc::clone(&ctx)));
            let first = match &ctx.kind {
                CtxKind::Os { go_rx } => go_rx.recv(),
                CtxKind::Fiber => unreachable!("os thread with fiber ctx"),
            };
            let panic_msg = match first {
                Ok(GoMsg::Run) => match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(()) => None,
                    Err(p) if p.is::<AbortToken>() => None,
                    Err(p) => Some(render_panic(&*p)),
                },
                _ => None,
            };
            finish_current(&ctx, panic_msg, &tname);
            CURRENT.with(|c| *c.borrow_mut() = None);
        })
        .expect("failed to spawn OS thread for sim thread");
    match &mut kernel.state.lock().expect("kernel state poisoned").threads[tid as usize].transport {
        Transport::Os { handle: h, .. } => *h = Some(handle),
        Transport::Fiber(_) => unreachable!("os spawn produced a fiber slot"),
    }
    tid
}

fn render_panic(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn finish_current(ctx: &Ctx, panic_msg: Option<String>, name: &str) {
    let tid = ctx.tid.get();
    {
        let mut st = ctx.kernel.state.lock().expect("kernel state poisoned");
        let slot = &mut st.threads[tid as usize];
        let was_finished = slot.state == ThreadState::Finished;
        slot.state = ThreadState::Finished;
        let daemon = slot.daemon;
        let waiters = std::mem::take(&mut slot.join_waiters);
        if !was_finished && !daemon {
            st.live_nondaemon -= 1;
        }
        for w in waiters {
            let ws = &mut st.threads[w as usize];
            if ws.state == ThreadState::Blocked {
                ws.state = ThreadState::Runnable;
            }
        }
        if let Some(msg) = panic_msg {
            st.panics.push(PanicReport {
                thread: ThreadId(tid),
                thread_name: name.to_string(),
                message: msg,
            });
        }
    }
    // Fibers return the token by returning from their entry closure; only
    // OS-backed threads must signal the scheduler explicitly.
    if let CtxKind::Os { .. } = ctx.kind {
        let _ = ctx.kernel.to_sched.send(tid);
    }
}

// ---------------------------------------------------------------------------
// Crate-internal kernel services used by `api` and the primitives.
// ---------------------------------------------------------------------------

impl KState {
    fn advance_clock(&mut self) {
        let min = self.config.min_op_cost.as_nanos();
        let max = self.config.max_op_cost.as_nanos().max(min + 1);
        let mut cost = self.rng.gen_range(min, max);
        // Real executions have heavy-tailed per-operation noise (cache
        // misses, GC pauses, preemption); without it, long methods would
        // average their jitter away (CLT) and show unrealistically uniform
        // durations, starving the Acquisition-Time-Varies statistic.
        if self.rng.gen_range(0, 16) == 0 {
            cost = cost.saturating_mul(20);
        }
        self.clock = self.clock.saturating_add(Time::from_nanos(cost));
        self.steps += 1;
    }
}

/// Current virtual time.
pub(crate) fn kernel_now() -> Time {
    with_ctx(|ctx| {
        ctx.kernel
            .state
            .lock()
            .expect("kernel state poisoned")
            .clock
    })
}

/// Index of the current simulated thread.
pub(crate) fn kernel_current_tid() -> u32 {
    with_ctx(|ctx| ctx.tid.get())
}

/// Name of a simulated thread.
pub(crate) fn kernel_thread_name(tid: u32) -> String {
    with_ctx(|ctx| {
        ctx.kernel
            .state
            .lock()
            .expect("kernel state poisoned")
            .threads[tid as usize]
            .name
            .clone()
    })
}

/// Allocates a fresh object identity.
pub(crate) fn kernel_alloc_object() -> u64 {
    with_ctx(|ctx| {
        let mut st = ctx.kernel.state.lock().expect("kernel state poisoned");
        let id = st.next_object;
        st.next_object += 1;
        id
    })
}

/// Spawns a new simulated thread from inside a running one.
pub(crate) fn kernel_spawn(name: &str, daemon: bool, f: impl FnOnce() + Send + 'static) -> u32 {
    with_ctx(|ctx| spawn_on(&ctx.kernel, name, daemon, f))
}

/// An untraced scheduling step: advances the clock and yields.
pub(crate) fn kernel_step() {
    with_ctx(|ctx| {
        let mut st = ctx.kernel.state.lock().expect("kernel state poisoned");
        st.advance_clock();
        ctx.yield_to_scheduler(st);
    })
}

/// Puts the current thread to sleep for `d` of virtual time.
pub(crate) fn kernel_sleep(d: Time) {
    with_ctx(|ctx| {
        let mut st = ctx.kernel.state.lock().expect("kernel state poisoned");
        st.advance_clock();
        let until = st.clock.saturating_add(d);
        st.threads[ctx.tid.get() as usize].state = ThreadState::Sleeping(until);
        ctx.yield_to_scheduler(st);
    })
}

/// Parks the current thread as Blocked and yields. Execution resumes after
/// some other thread calls [`kernel_wake`] on it. Because execution is fully
/// serialized, a primitive can register itself in a wait queue and then call
/// this without any lost-wakeup race: no other thread runs in between.
pub(crate) fn kernel_block_current() {
    with_ctx(|ctx| {
        let mut st = ctx.kernel.state.lock().expect("kernel state poisoned");
        st.advance_clock();
        st.threads[ctx.tid.get() as usize].state = ThreadState::Blocked;
        ctx.yield_to_scheduler(st);
    })
}

/// Marks a blocked thread runnable (no-op for other states).
pub(crate) fn kernel_wake(tid: u32) {
    with_ctx(|ctx| {
        let mut st = ctx.kernel.state.lock().expect("kernel state poisoned");
        let slot = &mut st.threads[tid as usize];
        if slot.state == ThreadState::Blocked {
            slot.state = ThreadState::Runnable;
        }
    })
}

/// Whether a simulated thread has finished.
pub(crate) fn kernel_is_finished(tid: u32) -> bool {
    with_ctx(|ctx| {
        ctx.kernel
            .state
            .lock()
            .expect("kernel state poisoned")
            .threads[tid as usize]
            .state
            == ThreadState::Finished
    })
}

/// Blocks the current thread until `target` finishes.
pub(crate) fn kernel_join(target: u32) {
    with_ctx(|ctx| loop {
        let mut st = ctx.kernel.state.lock().expect("kernel state poisoned");
        st.advance_clock();
        let done = st.threads[target as usize].state == ThreadState::Finished;
        if !done {
            let me = ctx.tid.get();
            st.threads[target as usize].join_waiters.push(me);
            st.threads[me as usize].state = ThreadState::Blocked;
        }
        ctx.yield_to_scheduler(st);
        if done {
            return;
        }
    })
}

impl KState {
    /// This run's plan for `op`, decided on first sight and cached.
    fn plan(&mut self, op: OpId) -> OpPlan {
        match self.plans.get(&op) {
            Some(&plan) => plan,
            None => self.decide_plan(op),
        }
    }

    /// Kept out of line so the per-step path stays small on fiber stacks.
    #[cold]
    #[inline(never)]
    fn decide_plan(&mut self, op: OpId) -> OpPlan {
        let instrument = &self.config.instrument;
        let (method, skipped) = op.with_resolved(|r| match r {
            OpRef::MethodBegin { method, .. } | OpRef::MethodEnd { method, .. } => {
                (true, instrument.skips(method))
            }
            OpRef::FieldRead { .. } | OpRef::FieldWrite { .. } => (false, false),
        });
        let plan = OpPlan {
            skipped,
            unclassified: method && !instrument.classify_unsafe_apis,
            delay: self.config.delay_plan.delay_entry(op),
        };
        self.plans.insert(op, plan);
        plan
    }
}

/// The Observer hook: applies the instrumentation filter and delay plan,
/// advances the clock, emits the event, and yields. Without a delay this
/// takes the kernel lock once, and on the fiber transport a step that
/// re-picks this thread takes no other.
///
/// Skipped methods still execute and consume a step — they are merely
/// invisible to the trace, exactly like methods the paper's heuristics
/// mistakenly skipped.
pub(crate) fn kernel_trace(op: OpId, object: u64, access: AccessClass) {
    with_ctx(|ctx| {
        let tid = ctx.tid.get();
        let mut st = ctx.kernel.state.lock().expect("kernel state poisoned");
        let plan = st.plan(op);
        if plan.skipped {
            st.advance_clock();
            ctx.yield_to_scheduler(st);
            return;
        }
        let access = if plan.unclassified {
            AccessClass::None
        } else {
            access
        };
        let mut delay_start = None;
        if let Some((d, probability)) = plan.delay {
            if st.rng.gen_bool(probability) {
                st.advance_clock();
                delay_start = Some(st.clock);
                let until = st.clock.saturating_add(d);
                st.threads[tid as usize].state = ThreadState::Sleeping(until);
                ctx.yield_to_scheduler(st);
                st = ctx.kernel.state.lock().expect("kernel state poisoned");
            }
        }
        st.advance_clock();
        let t = st.clock;
        // The delay record's end is the delayed operation's own timestamp,
        // so window refinement bounds of the form `[a, rec.end]` keep the
        // delayed release inside the window.
        if let Some(start) = delay_start {
            counter!("perturber.delays_injected").add(1);
            sherlock_obs::histogram!("perturber.delay_ns")
                .observe((t.saturating_sub(start)).as_nanos());
            st.trace.push_delay(tid, op, start, t);
        }
        st.events_traced += 1;
        st.trace.push_classified(t, tid, op, object, access);
        ctx.yield_to_scheduler(st);
    })
}
