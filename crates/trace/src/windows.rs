//! Conflicting-access detection and acquire/release window extraction
//! (paper §4.1, "Forming acquire/release windows").
//!
//! For every pair of conflicting accesses `a` (earlier) and `b` (later) that
//! are temporally close (`T_b − T_a ≤ Near`), SherLock extracts the
//! operations executing between them: those from `a`'s thread form the
//! *release window* and those from `b`'s thread the *acquire window*. The
//! endpoints themselves are included — for variable-based synchronization the
//! conflicting write *is* the release and the conflicting read *is* the
//! acquire (paper Fig. 3.B).
//!
//! A static location pair may execute many times (e.g. inside a loop), so at
//! most [`WindowConfig::cap_per_pair`] windows are formed per pair of static
//! locations (15 in the paper).

use std::collections::{BTreeMap, HashMap};

use crate::event::{AccessClass, Event, ObjectId, ThreadId, Trace};
use crate::op::{IdMap, OpId, OpRef};
use crate::time::Time;

/// Parameters of window extraction.
#[derive(Clone, Debug)]
pub struct WindowConfig {
    /// Maximum physical-time gap between two conflicting accesses for them to
    /// form a window (the paper's `Near`, 1 s by default; Table 7 sweeps it).
    pub near: Time,
    /// Upper bound on the number of windows one static location pair can
    /// form (15 in the paper).
    pub cap_per_pair: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            near: Time::from_secs(1),
            cap_per_pair: 15,
        }
    }
}

/// A synchronization candidate inside a window: a static operation and the
/// number of its dynamic instances observed in the window.
///
/// The Solver subtracts each candidate's probability variable only once no
/// matter how many instances appear (paper §4.2), but the occurrence count
/// feeds the Synchronizations-are-Rare penalty (Eq. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Static operation identity.
    pub op: OpId,
    /// Dynamic instances of `op` inside this window.
    pub count: u32,
}

/// An acquire/release window extracted around one dynamic conflicting pair.
#[derive(Clone, Debug)]
pub struct Window {
    /// Static location of the earlier access `a`.
    pub a_op: OpId,
    /// Static location of the later access `b`.
    pub b_op: OpId,
    /// Thread of `a` (the releasing side).
    pub a_thread: ThreadId,
    /// Thread of `b` (the acquiring side).
    pub b_thread: ThreadId,
    /// Timestamp of `a`.
    pub a_time: Time,
    /// Timestamp of `b`.
    pub b_time: Time,
    /// Object both accesses touched.
    pub object: ObjectId,
    /// Release candidates: operations from `a`'s thread in `[T_a, T_b]`,
    /// deduplicated, with occurrence counts.
    pub release: Vec<Candidate>,
    /// Acquire candidates: operations from `b`'s thread in `[T_a, T_b]`.
    pub acquire: Vec<Candidate>,
    /// Whether any release candidate is release-capable under the
    /// Read-Acquire & Write-Release property.
    pub release_capable: bool,
    /// Whether any acquire candidate is acquire-capable.
    pub acquire_capable: bool,
}

impl Window {
    /// The ordered static location pair identifying this window's origin.
    pub fn pair(&self) -> (OpId, OpId) {
        (self.a_op, self.b_op)
    }

    /// Whether this window witnesses a data race: no operation in the
    /// release window can release, or none in the acquire window can acquire
    /// (paper §4.3, "A special type of observation").
    pub fn is_racy(&self) -> bool {
        !self.release_capable || !self.acquire_capable
    }
}

/// Location id of library call sites: thread-unsafe library calls conflict
/// per object, so the object id alone identifies the location.
const OBJECT_LOC: u32 = u32::MAX;

/// What extraction needs to know about one static operation.
#[derive(Clone, Copy)]
struct OpMeta {
    /// Interned `Class::field` location of a field access, or
    /// [`OBJECT_LOC`] for a method event.
    loc: u32,
    can_release: bool,
    can_acquire: bool,
}

/// Per-extraction cache of [`OpMeta`], resolved once per distinct operation.
#[derive(Default)]
struct OpTable {
    metas: IdMap<OpId, OpMeta>,
    locs: HashMap<String, u32>,
}

impl OpTable {
    fn meta(&mut self, op: OpId) -> OpMeta {
        if let Some(&m) = self.metas.get(&op) {
            return m;
        }
        let r = op.resolve();
        let loc = match &r {
            OpRef::FieldRead { class, field } | OpRef::FieldWrite { class, field } => {
                let next = u32::try_from(self.locs.len()).expect("location table overflow");
                *self.locs.entry(format!("{class}::{field}")).or_insert(next)
            }
            OpRef::MethodBegin { .. } | OpRef::MethodEnd { .. } => OBJECT_LOC,
        };
        let m = OpMeta {
            loc,
            can_release: r.can_release(),
            can_acquire: r.can_acquire(),
        };
        self.metas.insert(op, m);
        m
    }
}

/// Trace positions, ascending, of the accesses one thread made with one
/// access class to one location through one static operation.
struct Lane {
    thread: ThreadId,
    access: AccessClass,
    positions: Vec<usize>,
}

/// The accesses seen so far at one location (object plus field), indexed
/// by static operation and then by (thread, access class).
#[derive(Default)]
struct Group {
    ops: Vec<(OpId, Vec<Lane>)>,
}

impl Group {
    fn push(&mut self, pos: usize, ev: &Event) {
        let k = match self.ops.iter().position(|(op, _)| *op == ev.op) {
            Some(k) => k,
            None => {
                self.ops.push((ev.op, Vec::new()));
                self.ops.len() - 1
            }
        };
        let lanes = &mut self.ops[k].1;
        match lanes
            .iter_mut()
            .find(|l| l.thread == ev.thread && l.access == ev.access)
        {
            Some(lane) => lane.positions.push(pos),
            None => lanes.push(Lane {
                thread: ev.thread,
                access: ev.access,
                positions: vec![pos],
            }),
        }
    }
}

/// Extracts all acquire/release windows from a trace.
///
/// Two events conflict when they touch the same location (same object and —
/// for field accesses — the same fully-qualified field), come from different
/// threads, at least one is a write, and their time gap is at most
/// [`WindowConfig::near`]. At most [`WindowConfig::cap_per_pair`] windows
/// are formed per static location pair, keeping a pair's conflicting
/// instances in order of their later endpoint and, for one later endpoint,
/// nearest earlier endpoint first. Windows are returned in order of their
/// later endpoint, then their earlier one.
///
/// Precondition: event timestamps never decrease along the trace. Both
/// [`TraceBuilder::push_classified`](crate::TraceBuilder::push_classified)
/// and [`crate::json::from_value`] enforce it, and the scan relies on it to
/// stop at the first earlier access more than `near` away.
///
/// Work is linear in the number of access events plus the windows formed
/// (see `select_pairs`), not quadratic in the accesses per location.
pub fn extract(trace: &Trace, cfg: &WindowConfig) -> Vec<Window> {
    let _s = sherlock_obs::span("windows.extract");
    let mut table = OpTable::default();
    let (pairs, _visited) = select_pairs(trace, cfg, &mut table);
    let out: Vec<Window> = pairs
        .into_iter()
        .map(|(i, j)| {
            sherlock_obs::histogram!("windows.span_events").observe((j - i + 1) as u64);
            build_window(trace, i, j, &mut table)
        })
        .collect();
    sherlock_obs::counter!("windows.extracted").add(out.len() as u64);
    out
}

/// The conflicting pairs `(i, j)` (trace positions, `i < j`) that survive
/// the per-pair cap, sorted by `(j, i)`, and the number of earlier accesses
/// the scan visited.
///
/// The cap keeps, per static pair, the first `cap_per_pair` conflicting
/// instances in the order `(j ascending, i descending)`. A static pair can
/// span several locations (the same field on different objects), so the
/// order is global over the trace. Visiting each access `j` in trace order
/// and its earlier partners nearest first walks exactly that order, so the
/// cap is counted on the fly. For each static operation `x` seen earlier at
/// `j`'s location, the scan skips `x` outright once `(x, op_j)` is capped;
/// otherwise it merges the position lanes of `x` on the other threads whose
/// access class conflicts with `j`'s, latest first, and stops at the cap or
/// at the first access more than `near` before `j` (all earlier ones are
/// older still, by the timestamp precondition). Every visit thus either
/// forms a window or ends the scan of one `(x, j)`, so the visits number at
/// most the windows formed plus the access events times the static
/// operations per location.
fn select_pairs(
    trace: &Trace,
    cfg: &WindowConfig,
    table: &mut OpTable,
) -> (Vec<(usize, usize)>, u64) {
    let events = trace.events();
    let mut group_of: IdMap<(u64, u32), usize> = IdMap::default();
    let mut groups: Vec<Group> = Vec::new();
    let mut per_pair: IdMap<(OpId, OpId), usize> = IdMap::default();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    // Merge cursors: (lane index, positions of that lane not yet visited).
    let mut heads: Vec<(usize, usize)> = Vec::new();
    let mut visited = 0u64;
    for (j, ej) in events.iter().enumerate() {
        if ej.access == AccessClass::None {
            continue;
        }
        let key = (ej.object.0, table.meta(ej.op).loc);
        let g = *group_of.entry(key).or_insert_with(|| {
            groups.push(Group::default());
            groups.len() - 1
        });
        let group = &mut groups[g];
        let first = pairs.len();
        for (x, lanes) in &group.ops {
            let count = per_pair.entry((*x, ej.op)).or_insert(0);
            if *count >= cfg.cap_per_pair {
                continue;
            }
            heads.clear();
            heads.extend(
                lanes
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.thread != ej.thread && l.access.conflicts_with(ej.access))
                    .map(|(k, l)| (k, l.positions.len())),
            );
            while *count < cfg.cap_per_pair {
                let Some((h, i)) = heads
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, left))| left > 0)
                    .map(|(h, &(k, left))| (h, lanes[k].positions[left - 1]))
                    .max_by_key(|&(_, i)| i)
                else {
                    break;
                };
                visited += 1;
                if ej.time - events[i].time > cfg.near {
                    break;
                }
                heads[h].1 -= 1;
                *count += 1;
                pairs.push((i, j));
            }
        }
        pairs[first..].sort_unstable();
        group.push(j, ej);
    }
    (pairs, visited)
}

fn build_window(trace: &Trace, i: usize, j: usize, table: &mut OpTable) -> Window {
    let events = trace.events();
    let a = &events[i];
    let b = &events[j];
    let mut release: BTreeMap<OpId, u32> = BTreeMap::new();
    let mut acquire: BTreeMap<OpId, u32> = BTreeMap::new();
    for ev in &events[i..=j] {
        if ev.thread == a.thread {
            *release.entry(ev.op).or_insert(0) += 1;
        } else if ev.thread == b.thread {
            *acquire.entry(ev.op).or_insert(0) += 1;
        }
    }
    let release: Vec<Candidate> = release
        .into_iter()
        .map(|(op, count)| Candidate { op, count })
        .collect();
    let acquire: Vec<Candidate> = acquire
        .into_iter()
        .map(|(op, count)| Candidate { op, count })
        .collect();
    let release_capable = release.iter().any(|c| table.meta(c.op).can_release);
    let acquire_capable = acquire.iter().any(|c| table.meta(c.op).can_acquire);
    Window {
        a_op: a.op,
        b_op: b.op,
        a_thread: a.thread,
        b_thread: b.thread,
        a_time: a.time,
        b_time: b.time,
        object: a.object,
        release,
        acquire,
        release_capable,
        acquire_capable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceBuilder;

    fn w(class: &str, field: &str) -> OpId {
        OpRef::field_write(class, field).intern()
    }
    fn r(class: &str, field: &str) -> OpId {
        OpRef::field_read(class, field).intern()
    }

    /// The quadratic extraction the single-pass scan replaced, kept as its
    /// reference: collect every conflicting pair within `near` per location
    /// group, sort them all by `(j, Reverse(i))`, apply the per-pair cap in
    /// that order, then sort the kept pairs by `(j, i)`.
    fn extract_quadratic(trace: &Trace, cfg: &WindowConfig) -> Vec<Window> {
        #[derive(PartialEq, Eq, Hash)]
        enum LocKey {
            Field(u64, String),
            Object(u64),
        }
        let events = trace.events();
        let mut groups: HashMap<LocKey, Vec<usize>> = HashMap::new();
        for (idx, ev) in events.iter().enumerate() {
            if ev.access == AccessClass::None {
                continue;
            }
            let key = match ev.op.resolve() {
                OpRef::FieldRead { class, field } | OpRef::FieldWrite { class, field } => {
                    LocKey::Field(ev.object.0, format!("{class}::{field}"))
                }
                OpRef::MethodBegin { .. } | OpRef::MethodEnd { .. } => LocKey::Object(ev.object.0),
            };
            groups.entry(key).or_default().push(idx);
        }
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for group in groups.values() {
            for (gj, &j) in group.iter().enumerate() {
                let ej = &events[j];
                for &i in group[..gj].iter().rev() {
                    let ei = &events[i];
                    if ej.time - ei.time > cfg.near {
                        break;
                    }
                    if ei.thread == ej.thread || !ei.access.conflicts_with(ej.access) {
                        continue;
                    }
                    candidates.push((i, j));
                }
            }
        }
        candidates.sort_unstable_by_key(|&(i, j)| (j, std::cmp::Reverse(i)));
        let mut per_pair: HashMap<(OpId, OpId), usize> = HashMap::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (i, j) in candidates {
            let count = per_pair.entry((events[i].op, events[j].op)).or_insert(0);
            if *count >= cfg.cap_per_pair {
                continue;
            }
            *count += 1;
            pairs.push((i, j));
        }
        pairs.sort_unstable_by_key(|&(i, j)| (j, i));
        let mut table = OpTable::default();
        pairs
            .into_iter()
            .map(|(i, j)| build_window(trace, i, j, &mut table))
            .collect()
    }

    /// Asserts `extract` and the quadratic reference agree window by window.
    fn assert_matches_reference(trace: &Trace, cfg: &WindowConfig, what: &str) {
        let got = extract(trace, cfg);
        let want = extract_quadratic(trace, cfg);
        assert_eq!(got.len(), want.len(), "{what}: window count");
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}: window {k}");
        }
    }

    /// SplitMix64, so the randomized tests need no RNG dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A random trace over 2–5 threads and up to 3 objects mixing field
    /// accesses of two classes, library call sites classified read- or
    /// write-like (the same call site both ways), plain method events, and
    /// runs of equal timestamps.
    fn random_trace(rng: &mut Rng) -> Trace {
        let threads = 2 + rng.below(4);
        let objects = 1 + rng.below(3);
        let classes = ["A", "B"];
        let fields = ["f", "g", "h"];
        let calls = [("List", "Add"), ("Dict", "TryGetValue")];
        let len = 1 + rng.below(160);
        let mut tb = TraceBuilder::new();
        let mut t = 0;
        for _ in 0..len {
            t += [0, 0, 1, 2, 7][rng.below(5) as usize];
            let time = Time::from_micros(t);
            let thread = rng.below(threads) as u32;
            let object = 1 + rng.below(objects);
            let class = classes[rng.below(2) as usize];
            let field = fields[rng.below(3) as usize];
            match rng.below(8) {
                0..=2 => tb.push(time, thread, r(class, field), object),
                3..=4 => tb.push(time, thread, w(class, field), object),
                5..=6 => {
                    let (c, m) = calls[rng.below(2) as usize];
                    let access = if rng.below(2) == 0 {
                        AccessClass::Read
                    } else {
                        AccessClass::Write
                    };
                    tb.push_classified(
                        time,
                        thread,
                        OpRef::lib_begin(c, m).intern(),
                        object,
                        access,
                    );
                }
                _ => tb.push(time, thread, OpRef::app_begin(class, "m").intern(), object),
            }
        }
        tb.finish()
    }

    #[test]
    fn matches_quadratic_reference_on_random_traces() {
        let mut rng = Rng(0x5eed_0001);
        for case in 0..600 {
            let trace = random_trace(&mut rng);
            let cfg = WindowConfig {
                near: Time::from_micros([0, 1, 3, 10, 1_000][rng.below(5) as usize]),
                cap_per_pair: 1 + rng.below(3) as usize,
            };
            assert_matches_reference(&trace, &cfg, &format!("case {case} ({cfg:?})"));
        }
    }

    #[test]
    fn cap_order_is_global_across_objects() {
        // One static (write, read) pair on two objects. With a cap of 1 the
        // window goes to the earliest later endpoint over the whole trace
        // (the read of object 1), whichever group is scanned first.
        let cfg = WindowConfig {
            cap_per_pair: 1,
            ..WindowConfig::default()
        };
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(1), 0, w("G", "x"), 2);
        tb.push(Time::from_micros(2), 0, w("G", "x"), 1);
        tb.push(Time::from_micros(3), 1, r("G", "x"), 1);
        tb.push(Time::from_micros(4), 1, r("G", "x"), 2);
        let trace = tb.finish();
        let ws = extract(&trace, &cfg);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].object, ObjectId(1));
        assert_eq!(ws[0].b_time, Time::from_micros(3));
        assert_matches_reference(&trace, &cfg, "two objects");
    }

    #[test]
    fn spin_scan_work_is_linear() {
        // Thread 1 spins on a flag 20k times; thread 0 writes it five times.
        // The quadratic scan visits ~2e8 earlier accesses here.
        let mut tb = TraceBuilder::new();
        for k in 0..20_000u64 {
            if k % 4_000 == 2_000 {
                tb.push(Time::from_micros(k), 0, w("Spin", "flag"), 1);
            }
            tb.push(Time::from_micros(k), 1, r("Spin", "flag"), 1);
        }
        let trace = tb.finish();
        for near in [Time::from_secs(1), Time::from_micros(50)] {
            let cfg = WindowConfig {
                near,
                ..WindowConfig::default()
            };
            let (pairs, visited) = select_pairs(&trace, &cfg, &mut OpTable::default());
            let static_pairs = pairs
                .iter()
                .map(|&(i, j)| (trace.events()[i].op, trace.events()[j].op))
                .collect::<std::collections::HashSet<_>>()
                .len();
            let bound = 2 * (trace.len() + cfg.cap_per_pair * static_pairs) as u64;
            assert!(
                visited <= bound,
                "near {near:?}: visited {visited} > {bound}"
            );
            assert_matches_reference(&trace, &cfg, &format!("spin, near {near:?}"));
        }
    }

    #[test]
    fn basic_write_read_window() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(1), 0, w("W", "flag"), 9);
        tb.push(
            Time::from_millis(2),
            0,
            OpRef::app_end("W", "produce").intern(),
            9,
        );
        tb.push(
            Time::from_millis(3),
            1,
            OpRef::app_begin("W", "consume").intern(),
            9,
        );
        tb.push(Time::from_millis(4), 1, r("W", "flag"), 9);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert_eq!(ws.len(), 1);
        let win = &ws[0];
        assert_eq!(win.a_op, w("W", "flag"));
        assert_eq!(win.b_op, r("W", "flag"));
        assert_eq!(win.release.len(), 2); // flag write + produce-End
        assert_eq!(win.acquire.len(), 2); // consume-Begin + flag read
        assert!(win.release_capable && win.acquire_capable);
        assert!(!win.is_racy());
    }

    #[test]
    fn near_filter_drops_distant_pairs() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(0), 0, w("N", "x"), 1);
        tb.push(Time::from_secs(2), 1, r("N", "x"), 1);
        assert!(extract(&tb.finish(), &WindowConfig::default()).is_empty());

        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(0), 0, w("N", "x"), 1);
        tb.push(Time::from_secs(2), 1, r("N", "x"), 1);
        let wide = WindowConfig {
            near: Time::from_secs(100),
            ..WindowConfig::default()
        };
        assert_eq!(extract(&tb.finish(), &wide).len(), 1);
    }

    #[test]
    fn same_thread_accesses_do_not_conflict() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(1), 0, w("S", "x"), 1);
        tb.push(Time::from_millis(2), 0, r("S", "x"), 1);
        assert!(extract(&tb.finish(), &WindowConfig::default()).is_empty());
    }

    #[test]
    fn read_read_does_not_conflict() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(1), 0, r("RR", "x"), 1);
        tb.push(Time::from_millis(2), 1, r("RR", "x"), 1);
        assert!(extract(&tb.finish(), &WindowConfig::default()).is_empty());
    }

    #[test]
    fn different_objects_do_not_conflict() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(1), 0, w("O", "x"), 1);
        tb.push(Time::from_millis(2), 1, r("O", "x"), 2);
        assert!(extract(&tb.finish(), &WindowConfig::default()).is_empty());
    }

    #[test]
    fn different_fields_on_same_object_do_not_conflict() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(1), 0, w("F", "x"), 1);
        tb.push(Time::from_millis(2), 1, r("F", "y"), 1);
        assert!(extract(&tb.finish(), &WindowConfig::default()).is_empty());
    }

    #[test]
    fn cap_limits_windows_per_static_pair() {
        let cfg = WindowConfig {
            cap_per_pair: 3,
            ..WindowConfig::default()
        };
        let mut tb = TraceBuilder::new();
        let mut t = 0;
        for _ in 0..10 {
            tb.push(Time::from_micros(t), 0, w("Cap", "x"), 1);
            t += 1;
            tb.push(Time::from_micros(t), 1, r("Cap", "x"), 1);
            t += 1;
        }
        let ws = extract(&tb.finish(), &cfg);
        // Both (write→read) and (read→write) static pairs exist; each capped.
        let wr = ws
            .iter()
            .filter(|x| x.pair() == (w("Cap", "x"), r("Cap", "x")))
            .count();
        let rw = ws
            .iter()
            .filter(|x| x.pair() == (r("Cap", "x"), w("Cap", "x")))
            .count();
        assert_eq!(wr, 3);
        assert_eq!(rw, 3);
    }

    #[test]
    fn candidates_deduplicate_with_counts() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(1), 0, w("Dup", "x"), 1);
        for k in 2..7 {
            tb.push(
                Time::from_micros(k),
                1,
                OpRef::app_begin("Dup", "poll").intern(),
                1,
            );
        }
        tb.push(Time::from_micros(7), 1, r("Dup", "x"), 1);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert_eq!(ws.len(), 1);
        let poll = OpRef::app_begin("Dup", "poll").intern();
        let cand = ws[0].acquire.iter().find(|c| c.op == poll).unwrap();
        assert_eq!(cand.count, 5);
    }

    #[test]
    fn racy_when_release_side_has_only_reads() {
        // Spin-loop reads *before* the write: the (read → write) pair has a
        // release window of pure reads, which cannot release — a witnessed
        // race (the reason flags "should be marked volatile", paper §5.5).
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(1), 1, r("Spin", "f"), 1);
        tb.push(Time::from_micros(2), 1, r("Spin", "f"), 1);
        tb.push(Time::from_micros(3), 0, w("Spin", "f"), 1);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        // Two (read→write) windows, both racy.
        assert!(!ws.is_empty());
        assert!(ws.iter().all(|x| x.is_racy()));
        assert!(ws.iter().all(|x| !x.release_capable));
    }

    #[test]
    fn write_write_conflicts() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(1), 0, w("WW", "x"), 1);
        tb.push(Time::from_micros(2), 1, w("WW", "x"), 1);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert_eq!(ws.len(), 1);
        // The acquire window holds only a write → cannot acquire → racy.
        assert!(ws[0].is_racy());
        assert!(!ws[0].acquire_capable);
        assert!(ws[0].release_capable);
    }

    #[test]
    fn thread_unsafe_api_calls_conflict_per_object() {
        let add_b = OpRef::lib_begin("List", "Add").intern();
        let add_e = OpRef::lib_end("List", "Add").intern();
        let mut tb = TraceBuilder::new();
        tb.push_classified(Time::from_micros(1), 0, add_b, 5, AccessClass::Write);
        tb.push_classified(Time::from_micros(2), 0, add_e, 5, AccessClass::None);
        tb.push_classified(Time::from_micros(3), 1, add_b, 5, AccessClass::Write);
        tb.push_classified(Time::from_micros(4), 1, add_e, 5, AccessClass::None);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].pair(), (add_b, add_b));
        // Lib begins are release- and acquire-capable.
        assert!(!ws[0].is_racy());
    }

    #[test]
    fn third_party_thread_events_are_excluded_from_candidates() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(1), 0, w("TP", "x"), 1);
        tb.push(
            Time::from_micros(2),
            2,
            OpRef::app_begin("TP", "noise").intern(),
            1,
        );
        tb.push(Time::from_micros(3), 1, r("TP", "x"), 1);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert_eq!(ws.len(), 1);
        let noise = OpRef::app_begin("TP", "noise").intern();
        assert!(ws[0].release.iter().all(|c| c.op != noise));
        assert!(ws[0].acquire.iter().all(|c| c.op != noise));
    }

    #[test]
    fn windows_sorted_by_later_endpoint() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(1), 0, w("Ord", "x"), 1);
        tb.push(Time::from_micros(2), 1, r("Ord", "x"), 1);
        tb.push(Time::from_micros(3), 0, w("Ord", "y"), 1);
        tb.push(Time::from_micros(4), 1, r("Ord", "y"), 1);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert!(ws.windows(2).all(|p| p[0].b_time <= p[1].b_time));
    }
}
