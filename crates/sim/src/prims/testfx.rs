//! A minimal test-framework shim with
//! `Microsoft.VisualStudio.TestTools.UnitTesting` semantics.
//!
//! The framework guarantees that the fixture's `TestInitialize` method
//! completes before any test method runs (paper Fig. 3.E): the framework's
//! internal ordering is untraced, so SherLock must *infer* that the return of
//! `TestInitialize` is a release and the entry of each test method the
//! matching acquire.

use crate::api::{self, JoinHandle};
use crate::kernel;
use std::sync::{Arc, Mutex};

/// Traced assertion helpers matching the `Assert` class the paper's Radical
/// rows list (`Assert::IsTrue — end of last access`, Table 8).
pub struct Assert;

const ASSERT_CLASS: &str = "Microsoft.VisualStudio.TestTools.UnitTesting.Assert";

impl Assert {
    /// `Assert.IsTrue` — traced; panics (test failure) if `cond` is false.
    pub fn is_true(cond: bool, message: &str) {
        prim_op!(ASSERT_CLASS, "IsTrue").call(0, || {
            if !cond {
                panic!("Assert.IsTrue failed: {message}");
            }
        });
    }

    /// `Assert.IsFalse` — traced; panics (test failure) if `cond` is true.
    pub fn is_false(cond: bool, message: &str) {
        prim_op!(ASSERT_CLASS, "IsFalse").call(0, || {
            if cond {
                panic!("Assert.IsFalse failed: {message}");
            }
        });
    }

    /// `Assert.AreEqual` — traced equality check.
    pub fn are_equal<T: PartialEq + std::fmt::Debug>(a: T, b: T, message: &str) {
        prim_op!(ASSERT_CLASS, "AreEqual").call(0, || {
            if a != b {
                panic!("Assert.AreEqual failed ({a:?} != {b:?}): {message}");
            }
        });
    }
}

/// Runs `init` as the fixture's `TestInitialize` method on one thread, then
/// starts each test method on its own thread once initialization completes.
/// The completion ordering is enforced by an *untraced* framework latch.
///
/// Returns the join handles of the test threads (already-ordered; callers
/// usually join them all).
pub fn run_fixture(
    class: &str,
    init_name: &str,
    init: impl FnOnce() + Send + 'static,
    tests: Vec<(String, Box<dyn FnOnce() + Send>)>,
) -> Vec<JoinHandle> {
    let fixture_object = api::alloc_object();
    let ready: Arc<Mutex<(bool, Vec<u32>)>> = Arc::new(Mutex::new((false, Vec::new())));

    let class_owned = class.to_string();
    let init_name_owned = init_name.to_string();
    let ready_init = Arc::clone(&ready);
    let init_handle = api::spawn(&format!("{class}.{init_name}"), move || {
        api::app_method(&class_owned, &init_name_owned, fixture_object, init);
        let waiters = {
            let mut r = ready_init.lock().expect("fixture latch poisoned");
            r.0 = true;
            std::mem::take(&mut r.1)
        };
        for t in waiters {
            kernel::kernel_wake(t);
        }
    });

    let mut handles = vec![init_handle];
    for (name, body) in tests {
        let class_owned = class.to_string();
        let ready_test = Arc::clone(&ready);
        let handle = api::spawn(&format!("{class}.{name}"), move || {
            // Framework-internal wait for TestInitialize (untraced).
            let me = api::current_thread();
            loop {
                let ok = {
                    let mut r = ready_test.lock().expect("fixture latch poisoned");
                    if !r.0 {
                        r.1.push(me);
                    }
                    r.0
                };
                if ok {
                    break;
                }
                kernel::kernel_block_current();
            }
            api::app_method(&class_owned, &name, fixture_object, body);
        });
        handles.push(handle);
    }
    handles
}
