//! Trace event model for SherLock-rs.
//!
//! SherLock's Observer (paper §4.1) records, for every traced operation, a
//! timestamp, a thread id, the operation type (heap read, heap write, method
//! entry, method exit), the field or method identity, and the object it acts
//! on. This crate defines that vocabulary and the analyses that operate
//! directly on raw traces:
//!
//! * [`OpRef`]/[`OpId`] — static operation identities, interned process-wide
//!   so that every dynamic instance of `Class::Field` or `Class::Method`
//!   maps to one inference variable (paper §4.2 "Variables").
//! * [`Event`]/[`Trace`] — the per-run execution log, including the delay
//!   records the Perturber needs for its propagation check.
//! * [`windows`] — conflicting-access detection and acquire/release window
//!   extraction with the paper's `Near` filter and per-location-pair cap.
//! * [`durations`] — method duration extraction feeding the
//!   Acquisition-Time-Mostly-Varies hypothesis.
//!
//! # Example
//!
//! ```
//! use sherlock_trace::{OpRef, Time, TraceBuilder, windows::{self, WindowConfig}};
//!
//! let mut tb = TraceBuilder::new();
//! let w = OpRef::field_write("Buffer", "ready").intern();
//! let r = OpRef::field_read("Buffer", "ready").intern();
//! tb.push(Time::from_millis(1), 0, w, 7);
//! tb.push(Time::from_millis(2), 1, r, 7);
//! let trace = tb.finish();
//! let ws = windows::extract(&trace, &WindowConfig::default());
//! assert_eq!(ws.len(), 1);
//! ```

mod event;
mod op;
mod time;

pub mod durations;
pub mod json;
pub mod windows;

pub use event::{AccessClass, DelayRecord, Event, ObjectId, ThreadId, Trace, TraceBuilder};
pub use op::{IdHasher, IdMap, MethodKind, OpId, OpKind, OpRef};
pub use time::Time;
