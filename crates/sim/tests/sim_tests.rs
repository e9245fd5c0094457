//! Behavioural tests for the simulator kernel and every traced primitive.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use sherlock_sim::prims::{
    testfx, Barrier, BlockingCollection, ConcurrentMap, CountdownEvent, DataflowBlock,
    EventWaitHandle, GcHeap, ImplicitMonitor, Interlocked, Monitor, Phaser, RwLock, Semaphore,
    SimThread, StaticCtor, Task, ThreadPool, TracedVar, UnsafeList,
};
use sherlock_sim::{api, DelayPlan, Outcome, Sim, SimConfig};
use sherlock_trace::{AccessClass, OpRef, Time, Trace};

fn run_seeded(seed: u64, f: impl FnOnce() + Send + 'static) -> sherlock_sim::RunReport {
    Sim::new(SimConfig::with_seed(seed)).run(f)
}

fn op_count(trace: &Trace, op: &OpRef) -> usize {
    let id = op.intern();
    trace.events().iter().filter(|e| e.op == id).count()
}

// --- kernel ---------------------------------------------------------------

#[test]
fn empty_root_completes() {
    let r = run_seeded(0, || {});
    assert!(r.is_clean());
    assert!(r.trace.is_empty());
}

#[test]
fn identical_seeds_give_identical_traces() {
    fn workload() {
        let v = TracedVar::new("Det", "x", 0u32);
        let v2 = v.clone();
        let h = api::spawn("w", move || {
            for i in 0..10 {
                v2.set(i);
            }
        });
        for _ in 0..10 {
            v.get();
        }
        h.join();
    }
    let a = run_seeded(42, workload);
    let b = run_seeded(42, workload);
    assert_eq!(a.trace.events().len(), b.trace.events().len());
    for (x, y) in a.trace.events().iter().zip(b.trace.events()) {
        assert_eq!(x, y);
    }
}

#[test]
fn different_seeds_usually_interleave_differently() {
    fn workload() {
        let v = TracedVar::new("Seed", "y", 0u32);
        let v2 = v.clone();
        let h = api::spawn("w", move || {
            for i in 0..20 {
                v2.set(i);
            }
        });
        for _ in 0..20 {
            v.get();
        }
        h.join();
    }
    let a = run_seeded(1, workload);
    let b = run_seeded(2, workload);
    let order = |t: &Trace| t.events().iter().map(|e| e.thread.0).collect::<Vec<_>>();
    assert_ne!(order(&a.trace), order(&b.trace), "seeds 1 and 2 coincided");
}

#[test]
fn virtual_clock_is_strictly_monotonic_per_event() {
    let r = run_seeded(3, || {
        let v = TracedVar::new("Clock", "z", 0u32);
        for i in 0..50 {
            v.set(i);
        }
    });
    let times: Vec<_> = r.trace.events().iter().map(|e| e.time).collect();
    assert!(times.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn sleep_advances_virtual_time() {
    let r = run_seeded(4, || {
        api::sleep(Time::from_secs(5));
    });
    assert!(r.end_time >= Time::from_secs(5));
}

#[test]
fn panic_in_workload_is_reported_not_propagated() {
    let r = run_seeded(5, || {
        let h = api::spawn("boom", || panic!("seeded failure"));
        h.join();
    });
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.panics.len(), 1);
    assert!(r.panics[0].message.contains("seeded failure"));
}

#[test]
fn deadlock_is_detected() {
    let r = run_seeded(6, || {
        let ev = EventWaitHandle::new(false);
        ev.wait_one(); // nobody ever sets it
    });
    assert!(matches!(r.outcome, Outcome::Deadlock(_)));
    let msg = r.deadlock_message().expect("deadlocked run has a message");
    assert!(
        msg.contains("1 non-daemon thread(s)") && msg.contains("\"root\" (tid 0)"),
        "message should name the blocked root thread: {msg}"
    );
}

#[test]
fn deadlock_report_names_every_blocked_thread() {
    let r = run_seeded(6, || {
        let ev = EventWaitHandle::new(false);
        for name in ["consumer-a", "consumer-b"] {
            let e2 = ev.clone();
            api::spawn(name, move || e2.wait_one());
        }
        // The root also waits, so all three non-daemon threads deadlock.
        ev.wait_one();
    });
    assert!(matches!(r.outcome, Outcome::Deadlock(_)));
    let msg = r.deadlock_message().expect("deadlocked run has a message");
    for needle in [
        "3 non-daemon thread(s)",
        "\"root\"",
        "\"consumer-a\"",
        "\"consumer-b\"",
    ] {
        assert!(msg.contains(needle), "missing {needle:?} in: {msg}");
    }
    // Daemons are exempt: they are allowed to be blocked at exit and must
    // not appear in the report.
    let r = run_seeded(6, || {
        let ev = EventWaitHandle::new(false);
        let e2 = ev.clone();
        api::spawn_daemon("idle-daemon", move || e2.wait_one());
        ev.wait_one();
    });
    let msg = r.deadlock_message().expect("deadlocked run has a message");
    assert!(
        msg.contains("1 non-daemon thread(s)") && !msg.contains("idle-daemon"),
        "daemons must not be reported: {msg}"
    );
}

#[test]
fn daemons_do_not_keep_the_run_alive() {
    let r = run_seeded(7, || {
        api::spawn_daemon("spinner", || loop {
            api::sleep(Time::from_millis(10));
        });
    });
    assert_eq!(r.outcome, Outcome::Completed);
}

#[test]
fn join_handle_reports_finished() {
    let r = run_seeded(8, || {
        let h = api::spawn("quick", api::yield_now);
        h.join();
        assert!(h.is_finished());
    });
    assert!(r.is_clean());
}

#[test]
fn delay_plan_injects_and_records_delays() {
    let op = OpRef::field_write("Delayed", "f").intern();
    let mut cfg = SimConfig::with_seed(9);
    cfg.delay_plan = DelayPlan::before_all([op], Time::from_millis(100));
    let r = Sim::new(cfg).run(|| {
        let v = TracedVar::new("Delayed", "f", 0u32);
        v.set(1);
        v.set(2);
    });
    assert_eq!(r.trace.delays().len(), 2);
    for d in r.trace.delays() {
        assert!(d.end.saturating_sub(d.start) >= Time::from_millis(100));
    }
    assert!(r.end_time >= Time::from_millis(200));
}

#[test]
fn instrument_filter_hides_methods_from_trace() {
    let r = run_seeded(10, || {
        api::app_method("Hidden", "<Run>b__hidden0", 1, || {});
        api::app_method("Visible", "Run", 1, || {});
    });
    assert_eq!(
        op_count(&r.trace, &OpRef::app_begin("Hidden", "<Run>b__hidden0")),
        0
    );
    assert_eq!(op_count(&r.trace, &OpRef::app_begin("Visible", "Run")), 1);
    assert_eq!(op_count(&r.trace, &OpRef::app_end("Visible", "Run")), 1);
}

#[test]
fn skip_decisions_do_not_leak_between_runs() {
    // The kernel caches each op's skip decision for the length of one run;
    // a second run in the same process with another filter must decide anew.
    let traced = |skip: &[&str]| {
        let mut cfg = SimConfig::with_seed(12);
        cfg.instrument.skip_method_substrings = skip.iter().map(|s| s.to_string()).collect();
        Sim::new(cfg).run(|| api::app_method("PerRun", "Refresh", 1, || {}))
    };
    let hidden = traced(&["Refresh"]);
    let recorded = traced(&[]);
    assert!(hidden.is_clean() && recorded.is_clean());
    assert_eq!(
        op_count(&hidden.trace, &OpRef::app_begin("PerRun", "Refresh")),
        0
    );
    assert_eq!(
        op_count(&recorded.trace, &OpRef::app_begin("PerRun", "Refresh")),
        1
    );
    assert_eq!(
        op_count(&recorded.trace, &OpRef::app_end("PerRun", "Refresh")),
        1
    );
    // A hidden method still costs its scheduling steps.
    assert_eq!(hidden.steps, recorded.steps);
}

#[test]
fn unclassified_lib_calls_record_no_access() {
    let run = |classify: bool| {
        let mut cfg = SimConfig::with_seed(13);
        cfg.instrument.classify_unsafe_apis = classify;
        Sim::new(cfg).run(|| {
            api::lib_call_classified("Unclassified.List", "Add", 3, AccessClass::Write, || {});
        })
    };
    let begin = OpRef::lib_begin("Unclassified.List", "Add").intern();
    let access_of = |r: &sherlock_sim::RunReport| {
        r.trace
            .events()
            .iter()
            .find(|e| e.op == begin)
            .map(|e| e.access)
    };
    assert_eq!(access_of(&run(true)), Some(AccessClass::Write));
    assert_eq!(access_of(&run(false)), Some(AccessClass::None));
}

#[test]
fn delay_plan_records_delays_on_method_events() {
    let begin = OpRef::lib_begin("DelayedLib", "Signal").intern();
    let mut cfg = SimConfig::with_seed(14);
    cfg.delay_plan = DelayPlan::before_all([begin], Time::from_millis(50));
    let r = Sim::new(cfg).run(|| {
        api::lib_call("DelayedLib", "Signal", 4, || {});
        api::lib_call("DelayedLib", "Other", 4, || {});
    });
    assert!(r.is_clean());
    assert_eq!(r.trace.delays().len(), 1);
    let d = &r.trace.delays()[0];
    assert_eq!(d.op, begin);
    assert!(d.end.saturating_sub(d.start) >= Time::from_millis(50));
    // The record ends at the delayed event's own timestamp.
    let ev = r.trace.events().iter().find(|e| e.op == begin).unwrap();
    assert_eq!(ev.time, d.end);
}

// --- TracedVar ------------------------------------------------------------

#[test]
fn traced_var_reads_writes_and_traces() {
    let r = run_seeded(11, || {
        let v = TracedVar::new("Var", "count", 5u64);
        assert_eq!(v.get(), 5);
        v.set(7);
        assert_eq!(v.get(), 7);
        assert_eq!(v.update(|x| x + 1), 8);
    });
    assert!(r.is_clean());
    assert_eq!(op_count(&r.trace, &OpRef::field_read("Var", "count")), 3);
    assert_eq!(op_count(&r.trace, &OpRef::field_write("Var", "count")), 2);
}

#[test]
fn spin_until_sees_other_threads_write() {
    let r = run_seeded(12, || {
        let flag = TracedVar::new("Spin", "done", false);
        let f2 = flag.clone();
        let h = api::spawn("setter", move || {
            api::sleep(Time::from_millis(3));
            f2.set(true);
        });
        let v = flag.spin_until(Time::from_micros(200), |v| v);
        assert!(v);
        h.join();
    });
    assert!(r.is_clean());
    assert!(op_count(&r.trace, &OpRef::field_read("Spin", "done")) >= 2);
}

// --- Monitor ----------------------------------------------------------------

#[test]
fn monitor_provides_mutual_exclusion() {
    let r = run_seeded(13, || {
        let m = Monitor::new();
        let hits = Arc::new(AtomicU32::new(0));
        let in_cs = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for i in 0..4 {
            let m = m.clone();
            let hits = Arc::clone(&hits);
            let in_cs = Arc::clone(&in_cs);
            handles.push(api::spawn(&format!("locker{i}"), move || {
                for _ in 0..5 {
                    m.with_lock(|| {
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                        api::yield_now();
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 20);
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
    assert_eq!(
        op_count(
            &r.trace,
            &OpRef::lib_begin("System.Threading.Monitor", "Enter")
        ),
        20
    );
    assert_eq!(
        op_count(
            &r.trace,
            &OpRef::lib_end("System.Threading.Monitor", "Exit")
        ),
        20
    );
}

#[test]
fn monitor_is_reentrant() {
    let r = run_seeded(14, || {
        let m = Monitor::new();
        m.enter();
        m.enter();
        m.exit();
        m.exit();
    });
    assert!(r.is_clean());
}

// --- SimThread / Task / ThreadPool ----------------------------------------

#[test]
fn sim_thread_traces_start_join_and_delegate() {
    let r = run_seeded(15, || {
        let t = SimThread::start("Worker", "Run", api::yield_now);
        t.join();
        assert!(t.is_finished());
    });
    assert!(r.is_clean());
    assert_eq!(
        op_count(
            &r.trace,
            &OpRef::lib_begin("System.Threading.Thread", "Start")
        ),
        1
    );
    assert_eq!(
        op_count(&r.trace, &OpRef::lib_end("System.Threading.Thread", "Join")),
        1
    );
    assert_eq!(op_count(&r.trace, &OpRef::app_begin("Worker", "Run")), 1);
    assert_eq!(op_count(&r.trace, &OpRef::app_end("Worker", "Run")), 1);
}

#[test]
fn task_wait_blocks_until_delegate_finishes() {
    let r = run_seeded(16, || {
        let done = Arc::new(AtomicU32::new(0));
        let d = Arc::clone(&done);
        let t = Task::run("Jobs", "Produce", move || {
            api::sleep(Time::from_millis(2));
            d.store(1, Ordering::SeqCst);
        });
        t.wait();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert!(t.is_done());
    });
    assert!(r.is_clean());
}

#[test]
fn continuation_runs_after_antecedent() {
    let r = run_seeded(17, || {
        let order = Arc::new(AtomicUsize::new(0));
        let o1 = Arc::clone(&order);
        let t1 = Task::run("Cont", "A1", move || {
            o1.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                .unwrap();
        });
        let o2 = Arc::clone(&order);
        let t2 = t1.continue_with("Cont", "A2", move || {
            o2.compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst)
                .unwrap();
        });
        t2.wait();
        assert_eq!(order.load(Ordering::SeqCst), 2);
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
    // A1's end must precede A2's begin in the trace.
    let end_a1 = OpRef::app_end("Cont", "A1").intern();
    let begin_a2 = OpRef::app_begin("Cont", "A2").intern();
    let pos = |op| r.trace.events().iter().position(|e| e.op == op).unwrap();
    assert!(pos(end_a1) < pos(begin_a2));
}

#[test]
fn thread_pool_work_items_run() {
    let r = run_seeded(18, || {
        let n = Arc::new(AtomicU32::new(0));
        let mut items = Vec::new();
        for _ in 0..3 {
            let n = Arc::clone(&n);
            items.push(ThreadPool::queue_user_work_item(
                "Pool",
                "Work",
                move || {
                    n.fetch_add(1, Ordering::SeqCst);
                },
            ));
        }
        for t in &items {
            t.wait();
        }
        assert_eq!(n.load(Ordering::SeqCst), 3);
    });
    assert!(r.is_clean());
    assert_eq!(
        op_count(
            &r.trace,
            &OpRef::lib_begin("System.Threading.ThreadPool", "QueueUserWorkItem")
        ),
        3
    );
}

// --- events, semaphores, rwlock --------------------------------------------

#[test]
fn event_wait_handle_orders_threads() {
    let r = run_seeded(19, || {
        let ev = EventWaitHandle::new(false);
        let flag = Arc::new(AtomicU32::new(0));
        let (e2, f2) = (ev.clone(), Arc::clone(&flag));
        let h = api::spawn("waiter", move || {
            e2.wait_one();
            assert_eq!(f2.load(Ordering::SeqCst), 1);
        });
        api::sleep(Time::from_millis(1));
        flag.store(1, Ordering::SeqCst);
        ev.set();
        h.join();
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn auto_reset_event_admits_one_waiter_per_set() {
    let r = run_seeded(20, || {
        let ev = EventWaitHandle::new(true);
        ev.set();
        ev.wait_one();
        assert!(!ev.is_set());
    });
    assert!(r.is_clean());
}

#[test]
fn wait_all_needs_every_handle() {
    let r = run_seeded(21, || {
        let a = EventWaitHandle::new(false);
        let b = EventWaitHandle::new(false);
        let (a2, b2) = (a.clone(), b.clone());
        let waiter = api::spawn("w", move || {
            EventWaitHandle::wait_all(&[&a2, &b2]);
        });
        a.set();
        api::sleep(Time::from_millis(1));
        assert!(!waiter.is_finished());
        b.set();
        waiter.join();
    });
    assert!(r.is_clean());
    assert_eq!(
        op_count(
            &r.trace,
            &OpRef::lib_begin("System.Threading.WaitHandle", "WaitAll")
        ),
        1
    );
}

#[test]
fn semaphore_counts_permits() {
    let r = run_seeded(22, || {
        let s = Semaphore::new(0);
        let s2 = s.clone();
        let h = api::spawn("consumer", move || {
            s2.wait_one();
            s2.wait_one();
        });
        s.release(2);
        h.join();
    });
    assert!(r.is_clean());
}

#[test]
fn rwlock_allows_concurrent_readers_blocks_writer() {
    let r = run_seeded(23, || {
        let rw = RwLock::new();
        rw.acquire_reader_lock();
        let rw2 = rw.clone();
        let writer = api::spawn("writer", move || {
            rw2.acquire_writer_lock();
            rw2.release_writer_lock();
        });
        api::sleep(Time::from_millis(1));
        assert!(!writer.is_finished(), "writer got in past a reader");
        rw.release_reader_lock();
        writer.join();
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn rwlock_upgrade_is_one_traced_call() {
    let r = run_seeded(24, || {
        let rw = RwLock::new();
        rw.acquire_reader_lock();
        rw.upgrade_to_writer_lock();
        rw.release_writer_lock();
    });
    assert!(r.is_clean());
    assert_eq!(
        op_count(
            &r.trace,
            &OpRef::lib_begin("System.Threading.ReaderWriterLock", "UpgradeToWriterLock")
        ),
        1
    );
}

// --- dataflow, lazy, gc, collections ---------------------------------------

#[test]
fn dataflow_post_receive_round_trip() {
    let r = run_seeded(25, || {
        let block = DataflowBlock::new("Parser", "MessageHandler", |x: u32| x * 2);
        block.post(21);
        assert_eq!(block.receive(), 42);
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
    let post = OpRef::lib_begin("System.Threading.Tasks.Dataflow.DataflowBlock", "Post").intern();
    let handler = OpRef::app_begin("Parser", "MessageHandler").intern();
    let pos = |op| r.trace.events().iter().position(|e| e.op == op).unwrap();
    assert!(pos(post) < pos(handler), "Post must precede the handler");
}

#[test]
fn static_ctor_runs_once_and_blocks_racers() {
    let r = run_seeded(26, || {
        let runs = Arc::new(AtomicU32::new(0));
        let cctor = StaticCtor::new("ClassFactory");
        let mut handles = Vec::new();
        for i in 0..4 {
            let c = cctor.clone();
            let runs = Arc::clone(&runs);
            handles.push(api::spawn(&format!("user{i}"), move || {
                c.ensure(|| {
                    api::sleep(Time::from_millis(1));
                    runs.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(runs.load(Ordering::SeqCst), 1);
            }));
        }
        for h in handles {
            h.join();
        }
        assert!(cctor.is_initialized());
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
    assert_eq!(
        op_count(&r.trace, &OpRef::app_begin("ClassFactory", ".cctor")),
        1
    );
    assert_eq!(
        op_count(&r.trace, &OpRef::app_end("ClassFactory", ".cctor")),
        1
    );
}

#[test]
fn gc_runs_finalizer_after_drop_last_ref() {
    let r = run_seeded(27, || {
        let heap = GcHeap::new();
        let finalized = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&finalized);
        let obj = api::alloc_object();
        let reg = heap.register("Entity", "Finalize", obj, move || {
            f.store(1, Ordering::SeqCst);
        });
        heap.drop_last_ref(reg, Time::from_millis(5));
        // Wait (in virtual time) for the GC to run it.
        while finalized.load(Ordering::SeqCst) == 0 {
            api::sleep(Time::from_millis(2));
        }
    });
    assert!(r.is_clean(), "outcome: {:?}", r.outcome);
    assert_eq!(
        op_count(&r.trace, &OpRef::app_begin("Entity", "Finalize")),
        1
    );
}

#[test]
fn get_or_add_runs_delegate_once_per_key_atomically() {
    let r = run_seeded(28, || {
        let map: ConcurrentMap<u32, u32> = ConcurrentMap::new();
        let calls = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for i in 0..3 {
            let map = map.clone();
            let calls = Arc::clone(&calls);
            handles.push(api::spawn(&format!("adder{i}"), move || {
                let v = map.get_or_add(2020, "DayCache", "<GetOrAdd>d1", move || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    api::yield_now();
                    99
                });
                assert_eq!(v, 99);
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "delegate ran more than once"
        );
        assert_eq!(map.peek(&2020), Some(99));
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn unsafe_list_calls_are_classified() {
    let r = run_seeded(29, || {
        let list: UnsafeList<u32> = UnsafeList::new();
        list.add(1);
        assert_eq!(list.get(0), Some(1));
        assert_eq!(list.len(), 1);
        list.clear();
        assert!(list.is_empty());
    });
    assert!(r.is_clean());
    use sherlock_trace::AccessClass;
    let add = OpRef::lib_begin("System.Collections.Generic.List", "Add").intern();
    let ev = r.trace.events().iter().find(|e| e.op == add).unwrap();
    assert_eq!(ev.access, AccessClass::Write);
}

#[test]
fn unsafe_api_classification_can_be_disabled() {
    let mut cfg = SimConfig::with_seed(30);
    cfg.instrument.classify_unsafe_apis = false;
    let r = Sim::new(cfg).run(|| {
        let list: UnsafeList<u32> = UnsafeList::new();
        list.add(1);
    });
    use sherlock_trace::AccessClass;
    let add = OpRef::lib_begin("System.Collections.Generic.List", "Add").intern();
    let ev = r.trace.events().iter().find(|e| e.op == add).unwrap();
    assert_eq!(ev.access, AccessClass::None);
}

// --- test framework shim ----------------------------------------------------

#[test]
fn fixture_runs_init_before_every_test() {
    let r = run_seeded(31, || {
        let ready = Arc::new(AtomicU32::new(0));
        let r1 = Arc::clone(&ready);
        let r2 = Arc::clone(&ready);
        let r3 = Arc::clone(&ready);
        let handles = testfx::run_fixture(
            "TelemetryTests",
            "TestInitialize",
            move || {
                api::sleep(Time::from_millis(1));
                r1.store(1, Ordering::SeqCst);
            },
            vec![
                (
                    "BasicStartOperation".to_string(),
                    Box::new(move || assert_eq!(r2.load(Ordering::SeqCst), 1)),
                ),
                (
                    "SecondOperation".to_string(),
                    Box::new(move || assert_eq!(r3.load(Ordering::SeqCst), 1)),
                ),
            ],
        );
        for h in handles {
            h.join();
        }
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
    let init_end = OpRef::app_end("TelemetryTests", "TestInitialize").intern();
    let t1 = OpRef::app_begin("TelemetryTests", "BasicStartOperation").intern();
    let pos = |op| r.trace.events().iter().position(|e| e.op == op).unwrap();
    assert!(pos(init_end) < pos(t1));
}

#[test]
fn assert_helpers_trace_and_fail() {
    let r = run_seeded(32, || {
        testfx::Assert::is_true(true, "fine");
        testfx::Assert::is_false(false, "fine");
        testfx::Assert::are_equal(3, 3, "fine");
    });
    assert!(r.is_clean());
    assert_eq!(
        op_count(
            &r.trace,
            &OpRef::lib_begin(
                "Microsoft.VisualStudio.TestTools.UnitTesting.Assert",
                "IsTrue"
            )
        ),
        1
    );

    let r = run_seeded(33, || {
        testfx::Assert::is_true(false, "seeded assertion failure");
    });
    assert_eq!(r.panics.len(), 1);
    assert!(r.panics[0].message.contains("seeded assertion failure"));
}

// --- condition variables, barriers, countdowns, blocking collections -------

#[test]
fn monitor_wait_pulse_round_trip() {
    let r = run_seeded(40, || {
        let m = Monitor::new();
        let queue = Arc::new(AtomicU32::new(0));
        let (m2, q2) = (m.clone(), Arc::clone(&queue));
        let consumer = api::spawn("consumer", move || {
            m2.enter();
            while q2.load(Ordering::SeqCst) == 0 {
                m2.wait();
            }
            q2.store(99, Ordering::SeqCst);
            m2.exit();
        });
        api::sleep(Time::from_millis(1));
        m.enter();
        queue.store(7, Ordering::SeqCst);
        m.pulse();
        m.exit();
        consumer.join();
        assert_eq!(queue.load(Ordering::SeqCst), 99);
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
    assert_eq!(
        op_count(
            &r.trace,
            &OpRef::lib_begin("System.Threading.Monitor", "Wait")
        ),
        1
    );
    assert_eq!(
        op_count(
            &r.trace,
            &OpRef::lib_begin("System.Threading.Monitor", "Pulse")
        ),
        1
    );
}

#[test]
fn monitor_pulse_all_wakes_every_sleeper() {
    let r = run_seeded(41, || {
        let m = Monitor::new();
        let go = Arc::new(AtomicU32::new(0));
        let mut hs = Vec::new();
        for i in 0..3 {
            let (m2, g2) = (m.clone(), Arc::clone(&go));
            hs.push(api::spawn(&format!("sleeper{i}"), move || {
                m2.enter();
                while g2.load(Ordering::SeqCst) == 0 {
                    m2.wait();
                }
                m2.exit();
            }));
        }
        api::sleep(Time::from_millis(2));
        m.enter();
        go.store(1, Ordering::SeqCst);
        m.pulse_all();
        m.exit();
        for h in hs {
            h.join();
        }
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn barrier_synchronizes_phases() {
    let r = run_seeded(42, || {
        let barrier = Barrier::new(3);
        let arrived = Arc::new(AtomicU32::new(0));
        let mut hs = Vec::new();
        for i in 0..3u64 {
            let (b2, a2) = (barrier.clone(), Arc::clone(&arrived));
            hs.push(api::spawn(&format!("p{i}"), move || {
                api::sleep(Time::from_micros(200 * (i + 1)));
                a2.fetch_add(1, Ordering::SeqCst);
                let phase = b2.signal_and_wait();
                assert_eq!(phase, 0);
                // Everyone arrived before anyone proceeds.
                assert_eq!(a2.load(Ordering::SeqCst), 3);
                let phase = b2.signal_and_wait();
                assert_eq!(phase, 1);
            }));
        }
        for h in hs {
            h.join();
        }
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn phaser_split_arrive_await_orders_phases() {
    let r = run_seeded(45, || {
        let phaser = Phaser::new(2);
        let produced = Arc::new(AtomicU32::new(0));
        let mut hs = Vec::new();
        for i in 0..2u64 {
            let (p2, d2) = (phaser.clone(), Arc::clone(&produced));
            hs.push(api::spawn(&format!("p{i}"), move || {
                for phase in 0..3u64 {
                    api::sleep(Time::from_micros(100 * (i + 1)));
                    d2.fetch_add(1, Ordering::SeqCst);
                    let arrived_in = p2.arrive();
                    assert_eq!(arrived_in, phase);
                    // An arrival is per-call, not per-party: wait for the
                    // phase to complete before arriving again.
                    p2.await_advance(arrived_in);
                }
            }));
        }
        for phase in 0..3u64 {
            phaser.await_advance(phase);
            // Both parties arrived in this phase before the await returned.
            assert!(produced.load(Ordering::SeqCst) >= 2 * (phase as u32 + 1));
        }
        for h in hs {
            h.join();
        }
        assert_eq!(phaser.phase_untraced(), 3);
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn phaser_arrive_and_await_is_a_barrier() {
    let r = run_seeded(46, || {
        let phaser = Phaser::new(3);
        let arrived = Arc::new(AtomicU32::new(0));
        let mut hs = Vec::new();
        for i in 0..3u64 {
            let (p2, a2) = (phaser.clone(), Arc::clone(&arrived));
            hs.push(api::spawn(&format!("b{i}"), move || {
                api::sleep(Time::from_micros(150 * (i + 1)));
                a2.fetch_add(1, Ordering::SeqCst);
                let phase = p2.arrive_and_await_advance();
                assert_eq!(phase, 0);
                assert_eq!(a2.load(Ordering::SeqCst), 3);
            }));
        }
        for h in hs {
            h.join();
        }
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn phaser_register_adds_a_party() {
    let r = run_seeded(47, || {
        let phaser = Phaser::new(1);
        assert_eq!(phaser.register(), 0);
        let p2 = phaser.clone();
        let h = api::spawn("late", move || {
            api::sleep(Time::from_micros(300));
            p2.arrive();
        });
        phaser.arrive();
        phaser.await_advance(0); // needs BOTH parties, not just the original
        assert_eq!(phaser.phase_untraced(), 1);
        h.join();
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn implicit_monitor_handoff_alternates() {
    let r = run_seeded(48, || {
        let m = ImplicitMonitor::new(0);
        let seen = Arc::new(AtomicU32::new(0));
        let m2 = m.clone();
        let producer = api::spawn("producer", move || {
            for i in 1..=4u64 {
                // Wait for the cell to be empty, then fill it.
                m2.with_when(|v| v == 0, |mon| mon.set_value(i));
            }
        });
        let (m3, s3) = (m.clone(), Arc::clone(&seen));
        let consumer = api::spawn("consumer", move || {
            for i in 1..=4u64 {
                m3.with_when(
                    |v| v != 0,
                    |mon| {
                        assert_eq!(mon.value(), i); // strict alternation
                        s3.fetch_add(1, Ordering::SeqCst);
                        mon.set_value(0);
                    },
                );
            }
        });
        producer.join();
        consumer.join();
        assert_eq!(seen.load(Ordering::SeqCst), 4);
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn implicit_monitor_exit_broadcasts_to_all_predicates() {
    let r = run_seeded(49, || {
        let m = ImplicitMonitor::new(0);
        let mut hs = Vec::new();
        // Two waiters with different predicates; one Exit wakes both and
        // each re-evaluates its own.
        for want in [7u64, 9u64] {
            let m2 = m.clone();
            hs.push(api::spawn(&format!("w{want}"), move || {
                m2.with_when(move |v| v == want, |mon| mon.set_value(want + 1));
                // Chain: 7 -> 8 is nobody's predicate; set 9 below.
            }));
        }
        api::sleep(Time::from_micros(500));
        m.with_when(|_| true, |mon| mon.set_value(7));
        // w7 runs, leaves 8; bump to 9 so w9 can proceed.
        m.with_when(|v| v == 8, |mon| mon.set_value(9));
        for h in hs {
            h.join();
        }
        m.enter_when(|v| v == 10);
        m.exit();
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn countdown_event_joins_n_signals() {
    let r = run_seeded(43, || {
        let cd = CountdownEvent::new(3);
        let done = Arc::new(AtomicU32::new(0));
        for i in 0..3 {
            let (c2, d2) = (cd.clone(), Arc::clone(&done));
            api::spawn(&format!("s{i}"), move || {
                api::sleep(Time::from_micros(100 * (i + 1)));
                d2.fetch_add(1, Ordering::SeqCst);
                c2.signal();
            });
        }
        cd.wait();
        assert_eq!(done.load(Ordering::SeqCst), 3);
        assert_eq!(cd.count_untraced(), 0);
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn blocking_collection_bounds_and_drains() {
    let r = run_seeded(44, || {
        let q: BlockingCollection<u32> = BlockingCollection::with_capacity(2);
        let total = Arc::new(AtomicU32::new(0));
        let (q2, t2) = (q.clone(), Arc::clone(&total));
        let consumer = api::spawn("consumer", move || {
            while let Some(v) = q2.take() {
                t2.fetch_add(v, Ordering::SeqCst);
                api::sleep(Time::from_micros(300));
            }
        });
        for i in 1..=5 {
            q.add(i); // blocks when 2 items are pending
        }
        q.complete_adding();
        consumer.join();
        assert_eq!(total.load(Ordering::SeqCst), 15);
        assert_eq!(q.len_untraced(), 0);
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
}

#[test]
fn take_returns_none_after_completion() {
    let r = run_seeded(45, || {
        let q: BlockingCollection<u32> = BlockingCollection::with_capacity(4);
        q.add(1);
        q.complete_adding();
        assert_eq!(q.take(), Some(1));
        assert_eq!(q.take(), None);
        assert_eq!(q.take(), None);
    });
    assert!(r.is_clean());
}

#[test]
fn interlocked_is_atomic_but_not_blocking() {
    let r = run_seeded(46, || {
        let counter = Interlocked::new(0);
        let mut hs = Vec::new();
        for i in 0..3 {
            let c2 = counter.clone();
            hs.push(api::spawn(&format!("inc{i}"), move || {
                for _ in 0..4 {
                    c2.increment();
                }
            }));
        }
        for h in hs {
            h.join();
        }
        assert_eq!(counter.read(), 12);
        assert_eq!(counter.exchange(0), 12);
    });
    assert!(r.is_clean(), "panics: {:?}", r.panics);
    use sherlock_trace::AccessClass;
    let inc = OpRef::lib_begin("System.Threading.Interlocked", "Increment").intern();
    let ev = r.trace.events().iter().find(|e| e.op == inc).unwrap();
    assert_eq!(ev.access, AccessClass::Write);
}
