//! Deterministic virtual-time concurrency simulator for SherLock-rs.
//!
//! The paper's Observer instruments C# binaries (Mono.Cecil) and runs their
//! unit tests on a real OS scheduler; this crate is the substitution that
//! preserves what the inference pipeline actually consumes: timestamped
//! traces of field accesses and method entry/exit events, blocking-induced
//! duration variance, and the ability to inject delays before chosen
//! operations.
//!
//! * [`Sim`] — a cooperative scheduler: real OS threads, but exactly one
//!   executes at a time; a seeded RNG picks interleavings and a virtual clock
//!   stamps events, so every run is a deterministic function of the workload
//!   and [`SimConfig`].
//! * [`api`] — spawning, sleeping, and the raw tracing hooks.
//! * [`prims`] — traced shims for the synchronization idioms the paper's
//!   benchmark suite exercises: monitors, fork-join threads, tasks and
//!   continuations, thread pools, events/semaphores/reader-writer locks,
//!   dataflow blocks, static constructors, finalizers, `GetOrAdd` delegates,
//!   thread-unsafe collections, and a unit-test framework shim.
//!
//! # Example
//!
//! ```
//! use sherlock_sim::{Sim, SimConfig};
//! use sherlock_sim::prims::TracedVar;
//! use sherlock_trace::Time;
//!
//! let report = Sim::new(SimConfig::with_seed(1)).run(|| {
//!     let flag = TracedVar::new("Demo", "ready", false);
//!     let f2 = flag.clone();
//!     let h = sherlock_sim::api::spawn("waiter", move || {
//!         f2.spin_until(Time::from_micros(100), |v| v);
//!     });
//!     flag.set(true);
//!     h.join();
//! });
//! assert!(report.is_clean());
//! assert!(!report.trace.is_empty());
//! ```

pub mod api;
pub mod campaign;
mod config;
mod fiber;
pub mod filter;
mod hook;
mod kernel;
pub mod prims;
pub mod rng;
pub mod strategy;
pub mod testutil;

pub use campaign::{
    arm_label, default_arms, ArmReport, Campaign, CampaignConfig, CampaignProgress, CampaignResult,
};
pub use config::{DelayPlan, InstrumentConfig, SimBackend, SimConfig};
pub use hook::install_sim_panic_hook;
pub use kernel::{Outcome, PanicReport, RunReport, Sim};
pub use strategy::{Strategy, StrategyKind};
