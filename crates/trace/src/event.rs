use std::fmt;

use crate::op::{Fingerprints, OpId, OpKind};
use crate::time::Time;

/// Identifier of a simulated thread within one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identity of the object an operation acts on.
///
/// For field accesses this plays the role of the paper's "memory address";
/// for method events it is the "parent object id". `ObjectId::STATIC` marks
/// static members and free functions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The shared identity used for static fields and static methods.
    pub const STATIC: ObjectId = ObjectId(0);
}

/// Memory-access classification of a dynamic event, used for conflicting-pair
/// detection.
///
/// Heap reads/writes classify themselves. Call sites of *thread-unsafe
/// library APIs* (the paper instruments 14 `System.Collections.Generic`
/// classes) are additionally classified read- or write-like so that e.g. two
/// concurrent `List.Add` calls on the same object form a conflicting pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Not a memory access (plain method entry/exit).
    #[default]
    None,
    /// Read-like access.
    Read,
    /// Write-like access.
    Write,
}

impl AccessClass {
    /// Whether two accesses on the same location conflict (at least one is a
    /// write).
    pub fn conflicts_with(self, other: AccessClass) -> bool {
        matches!(
            (self, other),
            (AccessClass::Write, AccessClass::Write)
                | (AccessClass::Write, AccessClass::Read)
                | (AccessClass::Read, AccessClass::Write)
        )
    }
}

/// One log entry: a dynamic instance of a static operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual timestamp at which the operation executed.
    pub time: Time,
    /// Executing thread.
    pub thread: ThreadId,
    /// Interned static identity.
    pub op: OpId,
    /// Object acted upon (memory identity for conflict detection).
    pub object: ObjectId,
    /// Memory-access classification (set for field accesses and for
    /// thread-unsafe library call sites).
    pub access: AccessClass,
}

/// A delay the Perturber injected before a dynamic operation instance.
///
/// The Perturber injects a delay right before every dynamic instance of every
/// currently inferred release (paper §4.3) and then checks whether the delay
/// propagated to the other thread of each window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelayRecord {
    /// Thread that was delayed.
    pub thread: ThreadId,
    /// Operation the delay was injected before.
    pub op: OpId,
    /// Virtual time at which the delay began.
    pub start: Time,
    /// Virtual time at which the delayed operation finally executed.
    pub end: Time,
}

/// The execution log of one run: time-ordered events plus delay records.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<Event>,
    delays: Vec<DelayRecord>,
}

impl Trace {
    /// Reassembles a trace from parts (used by [`crate::json`] after
    /// validating event ordering).
    pub(crate) fn from_parts(events: Vec<Event>, delays: Vec<DelayRecord>) -> Trace {
        Trace { events, delays }
    }

    /// All events, in nondecreasing timestamp order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// All delays injected during this run.
    pub fn delays(&self) -> &[DelayRecord] {
        &self.delays
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Timestamp of the final event, or zero for an empty trace.
    pub fn end_time(&self) -> Time {
        self.events.last().map_or(Time::ZERO, |e| e.time)
    }

    /// Distinct static operations appearing in the trace.
    pub fn distinct_ops(&self) -> std::collections::BTreeSet<OpId> {
        self.events.iter().map(|e| e.op).collect()
    }

    /// A 64-bit fingerprint of the schedule this trace records.
    ///
    /// Operations enter the hash through their *name* fingerprints rather
    /// than their raw [`OpId`]s: interning order is process-global and
    /// depends on which workload ran first, so raw ids would make equal
    /// schedules hash differently across processes and across parallel
    /// explorer workers. An operation's name fingerprint is FNV-1a over the
    /// bytes of its kind tag ([`OpKind::tag`](crate::OpKind::tag): `r`, `w`,
    /// `a` or `l`) followed by its `Display` form, e.g.
    /// `"aWorker::Run-Begin"`; the tag keeps App and Lib method events with
    /// the same printed name apart. It is computed once per operation, when
    /// the operation is interned.
    ///
    /// Starting from `0xcbf29ce484222325`, the hash folds three words per
    /// event, in trace order:
    ///
    /// 1. `thread | access << 32 | 0x45 << 56` (`access` as `None = 0`,
    ///    `Read = 1`, `Write = 2`),
    /// 2. the object id,
    /// 3. the operation's name fingerprint,
    ///
    /// then two words per delay record: `thread | 0x44 << 56` and the
    /// delayed operation's name fingerprint. Folding word `w` into `h` is
    /// `h = (h ^ w) * 0x9e3779b97f4a7c15; h ^= h >> 29` (wrapping).
    ///
    /// Timestamps are deliberately excluded — per-operation cost jitter is a
    /// function of the seed, so including the clock would make every seed
    /// look like a new schedule. Two traces hash equally iff they interleave
    /// the same operations on the same threads/objects in the same order
    /// (with the same delay placements) — the identity the schedule Explorer
    /// deduplicates on.
    pub fn stable_hash(&self) -> u64 {
        const EVENT_TAG: u64 = 0x45 << 56;
        const DELAY_TAG: u64 = 0x44 << 56;
        fn fold(h: u64, w: u64) -> u64 {
            let h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^ (h >> 29)
        }
        let names = Fingerprints::lock();
        let mut h = 0xcbf2_9ce4_8422_2325;
        for ev in &self.events {
            h = fold(
                h,
                u64::from(ev.thread.0) | (ev.access as u64) << 32 | EVENT_TAG,
            );
            h = fold(h, ev.object.0);
            h = fold(h, names.of(ev.op));
        }
        for d in &self.delays {
            h = fold(h, u64::from(d.thread.0) | DELAY_TAG);
            h = fold(h, names.of(d.op));
        }
        h
    }
}

/// Incremental builder for a [`Trace`].
///
/// The simulator's Observer hook appends events as threads execute; events
/// must be pushed in nondecreasing timestamp order (the virtual clock is
/// monotonic).
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event, deriving its [`AccessClass`] from the operation kind
    /// (field reads/writes classify themselves; everything else is
    /// [`AccessClass::None`]).
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the previous event's timestamp.
    pub fn push(&mut self, time: Time, thread: u32, op: OpId, object: u64) {
        let access = match op.kind() {
            OpKind::FieldRead => AccessClass::Read,
            OpKind::FieldWrite => AccessClass::Write,
            _ => AccessClass::None,
        };
        self.push_classified(time, thread, op, object, access);
    }

    /// Appends an event with an explicit access classification (used for
    /// thread-unsafe library call sites).
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the previous event's timestamp.
    pub fn push_classified(
        &mut self,
        time: Time,
        thread: u32,
        op: OpId,
        object: u64,
        access: AccessClass,
    ) {
        if let Some(last) = self.trace.events.last() {
            assert!(
                time >= last.time,
                "events must be pushed in timestamp order ({time:?} < {:?})",
                last.time
            );
        }
        self.trace.events.push(Event {
            time,
            thread: ThreadId(thread),
            op,
            object: ObjectId(object),
            access,
        });
    }

    /// Records an injected delay.
    pub fn push_delay(&mut self, thread: u32, op: OpId, start: Time, end: Time) {
        self.trace.delays.push(DelayRecord {
            thread: ThreadId(thread),
            op,
            start,
            end,
        });
    }

    /// Finishes the builder, returning the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpRef;

    fn op() -> OpId {
        OpRef::field_write("Evt", "x").intern()
    }

    #[test]
    fn builder_orders_and_classifies() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_nanos(1), 0, op(), 1);
        tb.push(
            Time::from_nanos(2),
            1,
            OpRef::field_read("Evt", "x").intern(),
            1,
        );
        tb.push(
            Time::from_nanos(2),
            0,
            OpRef::app_begin("Evt", "m").intern(),
            1,
        );
        let t = tb.finish();
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[0].access, AccessClass::Write);
        assert_eq!(t.events()[1].access, AccessClass::Read);
        assert_eq!(t.events()[2].access, AccessClass::None);
        assert_eq!(t.end_time(), Time::from_nanos(2));
    }

    #[test]
    #[should_panic(expected = "timestamp order")]
    fn builder_rejects_time_travel() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_nanos(5), 0, op(), 1);
        tb.push(Time::from_nanos(4), 0, op(), 1);
    }

    #[test]
    fn conflict_matrix() {
        use AccessClass::*;
        assert!(Write.conflicts_with(Write));
        assert!(Write.conflicts_with(Read));
        assert!(Read.conflicts_with(Write));
        assert!(!Read.conflicts_with(Read));
        assert!(!None.conflicts_with(Write));
        assert!(!Write.conflicts_with(None));
    }

    #[test]
    fn empty_trace_properties() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.end_time(), Time::ZERO);
        assert!(t.distinct_ops().is_empty());
    }

    #[test]
    fn delay_records_survive() {
        let mut tb = TraceBuilder::new();
        tb.push_delay(3, op(), Time::from_millis(1), Time::from_millis(101));
        let t = tb.finish();
        assert_eq!(t.delays().len(), 1);
        assert_eq!(t.delays()[0].thread, ThreadId(3));
        assert_eq!(
            t.delays()[0].end - t.delays()[0].start,
            Time::from_millis(100)
        );
    }

    #[test]
    fn stable_hash_distinguishes_schedules() {
        let w = OpRef::field_write("Hash", "x").intern();
        let r = OpRef::field_read("Hash", "x").intern();
        let build = |order: &[(u64, u32, OpId)]| {
            let mut tb = TraceBuilder::new();
            for &(t, thread, op) in order {
                tb.push(Time::from_nanos(t), thread, op, 1);
            }
            tb.finish()
        };
        let a = build(&[(1, 0, w), (2, 1, r)]);
        let b = build(&[(1, 0, w), (2, 1, r)]);
        let c = build(&[(1, 1, r), (2, 0, w)]);
        assert_eq!(a.stable_hash(), b.stable_hash());
        assert_ne!(a.stable_hash(), c.stable_hash());
        // Clock jitter does not perturb the fingerprint: the hash captures
        // the interleaving, not the seeded per-op costs.
        let jittered = build(&[(10, 0, w), (250, 1, r)]);
        assert_eq!(a.stable_hash(), jittered.stable_hash());
        // App vs Lib method events with the same printed name stay distinct.
        let app = build(&[(1, 0, OpRef::app_begin("Hash", "m").intern())]);
        let lib = build(&[(1, 0, OpRef::lib_begin("Hash", "m").intern())]);
        assert_ne!(app.stable_hash(), lib.stable_hash());
        // Delays contribute to the fingerprint.
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_nanos(1), 0, w, 1);
        tb.push(Time::from_nanos(2), 1, r, 1);
        tb.push_delay(0, w, Time::ZERO, Time::from_nanos(1));
        assert_ne!(tb.finish().stable_hash(), a.stable_hash());
    }

    #[test]
    fn stable_hash_value_is_pinned() {
        // Schedule digests in archived results depend on these values: a
        // change to the definition must show up here first.
        let mut tb = TraceBuilder::new();
        let w = OpRef::field_write("Pin", "x").intern();
        tb.push(Time::from_nanos(1), 0, w, 1);
        tb.push(
            Time::from_nanos(2),
            1,
            OpRef::lib_begin("Pin", "Enter").intern(),
            2,
        );
        tb.push_delay(0, w, Time::ZERO, Time::from_nanos(1));
        assert_eq!(tb.finish().stable_hash(), 0x29d2_099d_c572_1519);
    }

    #[test]
    fn distinct_ops_deduplicates() {
        let mut tb = TraceBuilder::new();
        for i in 0..5 {
            tb.push(Time::from_nanos(i), 0, op(), 1);
        }
        assert_eq!(tb.finish().distinct_ops().len(), 1);
    }
}
