//! Differential oracle for the kernel's two thread transports.
//!
//! The fiber backend must be invisible to everything downstream: same RNG
//! consumption, same virtual clock, same trace bytes. On fibers a yield
//! point decides the next step itself and keeps running when it re-picks
//! its own thread; on OS threads every step goes back to the scheduler loop.
//! These tests run the same workloads under `SimBackend::Fibers` and
//! `SimBackend::OsThreads` across seeds and scheduling strategies and require
//! the full JSON rendering of the traces (timestamps included) to match
//! exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use sherlock_sim::prims::{EventWaitHandle, Monitor, TracedVar};
use sherlock_sim::{api, DelayPlan, Outcome, RunReport, Sim, SimBackend, SimConfig, StrategyKind};
use sherlock_trace::json::to_json;
use sherlock_trace::{MethodKind, OpId, OpKind, Time};

/// Runs `workload` under `base` on both transports and requires the same
/// outcome, steps, end time, threads, panic count and trace bytes. Returns
/// the fiber run for further checks, or `None` where fibers are unsupported.
fn assert_parity(base: &SimConfig, workload: Arc<dyn Fn() + Send + Sync>) -> Option<RunReport> {
    if !cfg!(all(target_arch = "x86_64", unix)) {
        // Fiber transport unavailable: nothing to differentiate.
        return None;
    }
    let (seed, strategy) = (base.seed, base.strategy);

    let mut fib_cfg = base.clone();
    fib_cfg.backend = SimBackend::Fibers;
    let w = Arc::clone(&workload);
    let fib = Sim::new(fib_cfg).run(move || w());

    let mut os_cfg = base.clone();
    os_cfg.backend = SimBackend::OsThreads;
    let w = Arc::clone(&workload);
    let os = Sim::new(os_cfg).run(move || w());

    assert_eq!(fib.outcome, os.outcome, "outcome @ seed {seed}");
    assert_eq!(fib.steps, os.steps, "steps @ seed {seed}");
    assert_eq!(fib.end_time, os.end_time, "end_time @ seed {seed}");
    assert_eq!(fib.thread_names, os.thread_names, "threads @ seed {seed}");
    assert_eq!(
        fib.panics.len(),
        os.panics.len(),
        "panic count @ seed {seed}"
    );
    assert_eq!(
        to_json(&fib.trace),
        to_json(&os.trace),
        "trace bytes @ seed {seed} ({strategy:?})"
    );
    Some(fib)
}

fn run_both(seed: u64, strategy: StrategyKind, workload: Arc<dyn Fn() + Send + Sync>) {
    let mut base = SimConfig::with_seed(seed);
    base.strategy = strategy;
    assert_parity(&base, workload);
}

fn racy_workload() -> Arc<dyn Fn() + Send + Sync> {
    Arc::new(|| {
        let v = TracedVar::new("Parity", "x", 0u32);
        let m = Monitor::new();
        let v2 = v.clone();
        let m2 = m.clone();
        let a = api::spawn("writer", move || {
            m2.enter();
            v2.set(1);
            m2.exit();
        });
        let v3 = v.clone();
        let b = api::spawn("reader", move || {
            let _ = v3.get();
            v3.set(2);
        });
        v.set(3);
        a.join();
        b.join();
    })
}

#[test]
fn traces_are_byte_identical_across_backends() {
    for seed in [0u64, 1, 7, 42, 1337] {
        run_both(seed, StrategyKind::RandomWalk, racy_workload());
    }
}

#[test]
fn parity_holds_for_every_strategy() {
    for strategy in [
        StrategyKind::RandomWalk,
        StrategyKind::Pct { depth: 3 },
        StrategyKind::RoundRobin { quantum: 2 },
    ] {
        for seed in [5u64, 99] {
            run_both(seed, strategy, racy_workload());
        }
    }
}

#[test]
fn parity_holds_for_sleep_and_blocking() {
    let workload: Arc<dyn Fn() + Send + Sync> = Arc::new(|| {
        let ev = EventWaitHandle::new(false);
        let ev2 = ev.clone();
        let h = api::spawn("waiter", move || {
            ev2.wait_one();
        });
        api::sleep(Time::from_micros(50));
        ev.set();
        h.join();
    });
    for seed in [3u64, 17] {
        run_both(seed, StrategyKind::RandomWalk, Arc::clone(&workload));
    }
}

#[test]
fn parity_holds_for_deadlocked_runs() {
    let workload: Arc<dyn Fn() + Send + Sync> = Arc::new(|| {
        let ev = EventWaitHandle::new(false);
        ev.wait_one();
    });
    if !cfg!(all(target_arch = "x86_64", unix)) {
        return;
    }
    let mut base = SimConfig::with_seed(11);
    base.idle_timeout = Time::from_millis(1);
    let mut fib_cfg = base.clone();
    fib_cfg.backend = SimBackend::Fibers;
    let w = Arc::clone(&workload);
    let fib = Sim::new(fib_cfg).run(move || w());
    let mut os_cfg = base;
    os_cfg.backend = SimBackend::OsThreads;
    let w = Arc::clone(&workload);
    let os = Sim::new(os_cfg).run(move || w());
    assert!(matches!(fib.outcome, sherlock_sim::Outcome::Deadlock(_)));
    assert_eq!(fib.outcome, os.outcome);
    assert_eq!(to_json(&fib.trace), to_json(&os.trace));
}

#[test]
fn parity_holds_for_panicking_threads() {
    let workload: Arc<dyn Fn() + Send + Sync> = Arc::new(|| {
        let v = TracedVar::new("Parity", "boom", 0u32);
        let v2 = v.clone();
        let h = api::spawn("asserter", move || {
            v2.set(1);
            assert_eq!(v2.get(), 99, "seeded failure");
        });
        v.set(2);
        h.join();
    });
    sherlock_sim::install_sim_panic_hook();
    for seed in [2u64, 8] {
        run_both(seed, StrategyKind::RandomWalk, Arc::clone(&workload));
    }
}

#[test]
fn parity_holds_when_a_delay_fires() {
    // Every write of `Parity.x` and every `Monitor.Enter` sleeps mid-op
    // before its event is emitted.
    let mut base = SimConfig::with_seed(4);
    base.delay_plan = DelayPlan::before_all(
        [
            OpId::intern(OpKind::FieldWrite, "Parity", "x"),
            OpId::intern(
                OpKind::MethodBegin(MethodKind::Lib),
                "System.Threading.Monitor",
                "Enter",
            ),
        ],
        Time::from_micros(30),
    );
    for seed in [4u64, 21] {
        base.seed = seed;
        if let Some(fib) = assert_parity(&base, racy_workload()) {
            assert!(
                !fib.trace.delays().is_empty(),
                "no delay fired @ seed {seed}"
            );
        }
    }
}

#[test]
fn parity_holds_at_the_step_limit() {
    // A lone thread re-picks itself at every yield, so the limit is hit
    // inside a decision the yielding thread makes itself; the two-thread
    // case hits it on either side of a switch.
    let lone: Arc<dyn Fn() + Send + Sync> = Arc::new(|| {
        let v = TracedVar::new("Parity", "spin", 0u32);
        loop {
            v.update(|x| x + 1);
        }
    });
    let pair: Arc<dyn Fn() + Send + Sync> = Arc::new(|| {
        let v = TracedVar::new("Parity", "spin", 0u32);
        let v2 = v.clone();
        let _h = api::spawn("spinner", move || loop {
            v2.set(1);
        });
        loop {
            v.set(2);
            api::yield_now();
        }
    });
    for (workload, limit) in [(lone, 57u64), (pair, 58)] {
        let mut base = SimConfig::with_seed(6);
        base.max_steps = limit;
        if let Some(fib) = assert_parity(&base, workload) {
            assert_eq!(fib.outcome, Outcome::StepLimit);
            assert_eq!(fib.steps, limit);
        }
    }
}

#[test]
fn parity_holds_for_a_daemon_that_outlives_main() {
    let workload: Arc<dyn Fn() + Send + Sync> = Arc::new(|| {
        let v = TracedVar::new("Parity", "beat", 0u32);
        let v2 = v.clone();
        api::spawn_daemon("heartbeat", move || loop {
            v2.update(|x| x + 1);
            api::sleep(Time::from_micros(5));
        });
        for _ in 0..4 {
            let _ = v.get();
        }
    });
    for seed in [1u64, 9, 30] {
        let base = SimConfig::with_seed(seed);
        if let Some(fib) = assert_parity(&base, Arc::clone(&workload)) {
            assert_eq!(fib.outcome, Outcome::Completed);
        }
    }
}

#[test]
fn parity_holds_for_an_idle_deadlock_with_a_sleeping_daemon() {
    // Main blocks for good while a daemon keeps sleeping: the clock moves
    // on, and the idle timeout declares the deadlock.
    let workload: Arc<dyn Fn() + Send + Sync> = Arc::new(|| {
        let v = TracedVar::new("Parity", "tick", 0u32);
        api::spawn_daemon("ticker", move || loop {
            v.set(1);
            api::sleep(Time::from_micros(200));
        });
        EventWaitHandle::new(false).wait_one();
    });
    for seed in [2u64, 13] {
        let mut base = SimConfig::with_seed(seed);
        base.idle_timeout = Time::from_millis(1);
        if let Some(fib) = assert_parity(&base, Arc::clone(&workload)) {
            assert!(matches!(fib.outcome, Outcome::Deadlock(_)));
        }
    }
}

/// Dropped while its thread is aborted: spawns a thread, so the run has a
/// live non-daemon again, then writes twice. The first write's yield must
/// still go back to be aborted again, which skips the second write.
struct WriteOnDrop(TracedVar<u32>);

impl Drop for WriteOnDrop {
    fn drop(&mut self) {
        let _ = api::spawn("late", || {});
        // The re-raised abort token must not escape a destructor that is
        // itself running during an unwind.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            self.0.set(7);
            self.0.set(8);
        }));
    }
}

#[test]
fn parity_holds_when_a_destructor_traces_during_abort() {
    let workload: Arc<dyn Fn() + Send + Sync> = Arc::new(|| {
        let v = TracedVar::new("Parity", "loop", 0u32);
        let armed = EventWaitHandle::new(false);
        let armed2 = armed.clone();
        api::spawn_daemon("guarded", move || {
            let _guard = WriteOnDrop(TracedVar::new("Parity", "dtor", 0u32));
            armed2.set();
            loop {
                v.set(1);
            }
        });
        armed.wait_one();
    });
    let dtor_write = OpId::intern(OpKind::FieldWrite, "Parity", "dtor");
    sherlock_sim::install_sim_panic_hook();
    for seed in 1u64..=6 {
        let base = SimConfig::with_seed(seed);
        if let Some(fib) = assert_parity(&base, Arc::clone(&workload)) {
            assert_eq!(fib.outcome, Outcome::Completed);
            assert_eq!(fib.thread_names.last().map(String::as_str), Some("late"));
            // Exactly one destructor write, by the aborted daemon, ends the
            // trace.
            let events = fib.trace.events();
            let last = events.last().expect("events traced");
            assert_eq!((last.thread.0, last.op), (1, dtor_write));
            assert_eq!(events.iter().filter(|e| e.op == dtor_write).count(), 1);
        }
    }
}

#[test]
fn parity_holds_for_a_run_nested_in_a_simulated_thread() {
    // The inner run uses each transport inside each outer transport.
    let inner_traces: Arc<Mutex<Vec<String>>> = Arc::default();
    for backend in [SimBackend::Fibers, SimBackend::OsThreads] {
        let sink = Arc::clone(&inner_traces);
        let workload: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            let v = TracedVar::new("Parity", "outer", 0u32);
            let v2 = v.clone();
            let h = api::spawn("outer-child", move || v2.set(1));
            let mut cfg = SimConfig::with_seed(77);
            cfg.backend = backend;
            let inner = Sim::new(cfg).run(|| {
                let w = TracedVar::new("Parity", "inner", 0u32);
                let w2 = w.clone();
                let h = api::spawn("inner-child", move || w2.set(1));
                w.set(2);
                h.join();
            });
            assert!(inner.is_clean());
            sink.lock().unwrap().push(to_json(&inner.trace));
            v.set(2);
            h.join();
        });
        for seed in [5u64, 6] {
            assert_parity(&SimConfig::with_seed(seed), Arc::clone(&workload));
        }
    }
    // Every inner run, on either transport inside either outer transport,
    // produced the same trace.
    let traces = inner_traces.lock().unwrap();
    assert!(traces.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn parity_holds_for_every_bundled_app_suite() {
    sherlock_sim::install_sim_panic_hook();
    let strategies = [
        StrategyKind::RandomWalk,
        StrategyKind::Pct { depth: 3 },
        StrategyKind::RoundRobin { quantum: 4 },
    ];
    for app in sherlock_apps::all_apps() {
        for test in &app.tests {
            for strategy in strategies {
                for seed in [1u64, 2, 3] {
                    run_both(seed, strategy, test.body());
                }
            }
        }
    }
}
