//! `kernel.handoffs` counts the yields that went back to the scheduler. On
//! fibers a yield point that re-picks its own thread keeps running, so a
//! lone thread never hands off; on OS threads every yield does. (Its own
//! test binary: the counter is process-wide, and no other run may add to it
//! while this one is measured.)

use sherlock_sim::prims::TracedVar;
use sherlock_sim::{api, Sim, SimBackend, SimConfig};

fn handoffs_of(backend: SimBackend, body: impl FnOnce() + Send + 'static) -> (u64, u64) {
    let mut cfg = SimConfig::with_seed(3);
    cfg.backend = backend;
    let before = sherlock_obs::snapshot();
    let report = Sim::new(cfg).run(body);
    let delta = sherlock_obs::snapshot().delta(&before);
    let handoffs = delta.counters.get("kernel.handoffs").copied().unwrap_or(0);
    (handoffs, report.steps)
}

fn lone_writer() {
    let v = TracedVar::new("Handoffs", "x", 0u32);
    for i in 0..40 {
        v.set(i);
    }
}

fn two_writers() {
    let v = TracedVar::new("Handoffs", "y", 0u32);
    let v2 = v.clone();
    let h = api::spawn("other", move || {
        for i in 0..20 {
            v2.set(i);
        }
    });
    for i in 0..20 {
        v.set(i);
    }
    h.join();
}

#[test]
fn only_real_switches_hand_off() {
    if !cfg!(all(target_arch = "x86_64", unix)) {
        return;
    }
    let (fiber, steps) = handoffs_of(SimBackend::Fibers, lone_writer);
    assert_eq!(steps, 40);
    assert_eq!(fiber, 0, "a lone fiber re-picks itself at every yield");
    let (os, _) = handoffs_of(SimBackend::OsThreads, lone_writer);
    assert_eq!(os, steps, "every OS-thread yield goes to the scheduler");

    // Two threads switch sometimes: fewer handoffs than steps, but some.
    let (fiber, steps) = handoffs_of(SimBackend::Fibers, two_writers);
    assert!(
        fiber > 0 && fiber < steps,
        "{fiber} handoffs in {steps} steps"
    );
}
