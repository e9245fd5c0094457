//! `Trace::stable_hash` against a from-scratch reference of its documented
//! definition, built only from `OpId::resolve` names. The trace crate caches
//! each op's name fingerprint at interning time; these tests show the cached
//! values are exactly the documented ones.

use sherlock_trace::{AccessClass, OpId, OpRef, Time, Trace, TraceBuilder};

/// SplitMix64, the tests' own seeded stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    next(state) % n
}

/// FNV-1a over the kind tag and the printed name of the resolved op.
fn name_fingerprint(op: OpId) -> u64 {
    let r = op.resolve();
    let tag = match &r {
        OpRef::FieldRead { .. } => 'r',
        OpRef::FieldWrite { .. } => 'w',
        OpRef::MethodBegin { kind, .. } | OpRef::MethodEnd { kind, .. } => match kind {
            sherlock_trace::MethodKind::App => 'a',
            sherlock_trace::MethodKind::Lib => 'l',
        },
    };
    format!("{tag}{r}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn fold(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 29)
}

fn reference_hash(trace: &Trace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for ev in trace.events() {
        let access: u64 = match ev.access {
            AccessClass::None => 0,
            AccessClass::Read => 1,
            AccessClass::Write => 2,
        };
        h = fold(h, u64::from(ev.thread.0) | access << 32 | 0x45 << 56);
        h = fold(h, ev.object.0);
        h = fold(h, name_fingerprint(ev.op));
    }
    for d in trace.delays() {
        h = fold(h, u64::from(d.thread.0) | 0x44 << 56);
        h = fold(h, name_fingerprint(d.op));
    }
    h
}

/// Ops with App/Lib twins of one printed name, field twins of one field,
/// and names long and short enough to cross word boundaries.
fn op_pool() -> Vec<OpId> {
    let mut ops = Vec::new();
    for class in ["Twin", "System.Collections.Generic.Dictionary`2"] {
        for method in ["m", "TryGetValue<TKey>b__0"] {
            ops.push(OpRef::app_begin(class, method).intern());
            ops.push(OpRef::lib_begin(class, method).intern());
            ops.push(OpRef::app_end(class, method).intern());
            ops.push(OpRef::lib_end(class, method).intern());
        }
        ops.push(OpRef::field_read(class, "m").intern());
        ops.push(OpRef::field_write(class, "m").intern());
    }
    ops
}

/// One scheduled event before timestamps are assigned.
#[derive(Clone, Copy)]
struct Step {
    thread: u32,
    op: OpId,
    object: u64,
    access: AccessClass,
}

fn random_schedule(seed: u64, ops: &[OpId]) -> (Vec<Step>, Vec<(u32, OpId)>) {
    let mut s = seed;
    let len = below(&mut s, 64) as usize;
    let steps = (0..len)
        .map(|_| Step {
            thread: below(&mut s, 4) as u32,
            op: ops[below(&mut s, ops.len() as u64) as usize],
            object: below(&mut s, 3) + u64::from(below(&mut s, 8) == 0) * (1 << 40),
            access: match below(&mut s, 3) {
                0 => AccessClass::None,
                1 => AccessClass::Read,
                _ => AccessClass::Write,
            },
        })
        .collect();
    let delays = (0..below(&mut s, 4))
        .map(|_| {
            (
                below(&mut s, 4) as u32,
                ops[below(&mut s, ops.len() as u64) as usize],
            )
        })
        .collect();
    (steps, delays)
}

/// Builds the schedule with timestamps drawn from `clock_seed`.
fn build(steps: &[Step], delays: &[(u32, OpId)], clock_seed: u64) -> Trace {
    let mut s = clock_seed;
    let mut tb = TraceBuilder::new();
    let mut t = 0;
    for st in steps {
        t += below(&mut s, 1_000);
        tb.push_classified(Time::from_nanos(t), st.thread, st.op, st.object, st.access);
    }
    for &(thread, op) in delays {
        let start = below(&mut s, 1_000_000);
        tb.push_delay(
            thread,
            op,
            Time::from_nanos(start),
            Time::from_nanos(start + below(&mut s, 1_000)),
        );
    }
    tb.finish()
}

#[test]
fn stable_hash_matches_reference_fold_over_resolved_names() {
    let ops = op_pool();
    for seed in 0..300 {
        let (steps, delays) = random_schedule(seed, &ops);
        let trace = build(&steps, &delays, seed);
        assert_eq!(
            trace.stable_hash(),
            reference_hash(&trace),
            "seed {seed}: cached fingerprints disagree with resolved names"
        );
        // Jittered timestamps leave the schedule, and so the hash, alone.
        let jittered = build(&steps, &delays, seed ^ 0xdead_beef);
        assert_eq!(trace.stable_hash(), jittered.stable_hash(), "seed {seed}");
    }
}

#[test]
fn app_and_lib_twins_hash_apart() {
    let ops = op_pool();
    let app = OpRef::app_begin("Twin", "m").intern();
    let lib = OpRef::lib_begin("Twin", "m").intern();
    assert_eq!(app.to_string(), lib.to_string());
    for seed in 0..50 {
        let (mut steps, delays) = random_schedule(seed, &ops);
        if steps.is_empty() {
            continue;
        }
        let at = (seed as usize) % steps.len();
        steps[at].op = app;
        let with_app = build(&steps, &delays, seed);
        steps[at].op = lib;
        let with_lib = build(&steps, &delays, seed);
        assert_ne!(
            with_app.stable_hash(),
            with_lib.stable_hash(),
            "seed {seed}"
        );
        assert_eq!(with_lib.stable_hash(), reference_hash(&with_lib));
    }
}

#[test]
fn delays_enter_the_hash() {
    let ops = op_pool();
    for seed in 0..50 {
        let (steps, mut delays) = random_schedule(seed, &ops);
        let plain = build(&steps, &[], seed);
        delays.push((1, ops[0]));
        let delayed = build(&steps, &delays, seed);
        assert_ne!(plain.stable_hash(), delayed.stable_hash(), "seed {seed}");
        assert_eq!(delayed.stable_hash(), reference_hash(&delayed));
    }
}
