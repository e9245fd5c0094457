//! `serve-hot` and `serve-cold`: a durable in-process `sherlock-serve`
//! daemon under an open-loop load. Each session replays a bounded list of
//! bundled-app traces as visits of `k` absorbs then a solve; sessions are
//! visited cyclically. In `serve-hot` every session fits in the store; in
//! `serve-cold` there are far more sessions than `max_sessions`, so every
//! visit's first request rehydrates a spilled session and evicts another.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sherlock_apps::all_apps;
use sherlock_core::{Session, SherLockConfig};
use sherlock_obs::json::Json;
use sherlock_obs::Snapshot;
use sherlock_serve::protocol::{parse_request, parse_response};
use sherlock_serve::{spawn, Client, ServeConfig, SessionStore, SpawnedServer, StoreOptions};
use sherlock_sim::SimConfig;
use sherlock_trace::{json as trace_json, Trace};

use crate::explore::splitmix;
use crate::layers::{counter, span_count, span_total, LayerTable};
use crate::stats::{median, percentile, sorted};
use crate::{nproc, overhead_pct, repeat_setup, Ctx, Report, WorkDir};

/// The traffic shape of one serve workload.
pub struct Shape {
    pub name: &'static str,
    /// Sessions visited cyclically.
    pub sessions: usize,
    /// The store's live-session bound.
    pub max_sessions: usize,
    /// Offered load, requests per second over all connections.
    pub rate: f64,
    /// Absorbs per visit (a solve follows them).
    pub absorbs: usize,
    /// Every visit after the first touches a spilled session.
    pub cold: bool,
}

pub const HOT: Shape = Shape {
    name: "serve-hot",
    sessions: 48,
    max_sessions: 64,
    rate: 200.0,
    absorbs: 3,
    cold: false,
};

pub const COLD: Shape = Shape {
    name: "serve-cold",
    sessions: 24,
    max_sessions: 4,
    rate: 24.0,
    absorbs: 5,
    cold: true,
};

/// Traces in each session's replay list (each from its own sim seed).
const TRACES_PER_SESSION: usize = 8;
/// Per-request deadline; an expired request counts as failed.
const DEADLINE_MS: u64 = 10_000;
/// A run whose generator sent its p99 request later than this is invalid.
const LATE_LIMIT_MS: f64 = 25.0;
/// Requests per pass of the traced run.
const TRACE_REQUESTS: usize = 600;
/// How long the generator waits without any response before giving up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-session replay lists: `(trace, rendered trace JSON)`.
struct Corpus {
    traces: Vec<Vec<(Trace, String)>>,
}

fn corpus(shape: &Shape, seed: u64) -> Corpus {
    let apps = all_apps();
    let instrument = SherLockConfig::default().instrument;
    let mut state = seed;
    let traces = (0..shape.sessions)
        .map(|s| {
            let app = &apps[s % apps.len()];
            (0..TRACES_PER_SESSION)
                .map(|j| {
                    let test = &app.tests[j % app.tests.len()];
                    let mut cfg = SimConfig::with_seed(splitmix(&mut state));
                    cfg.instrument = instrument.clone();
                    let trace = test.run(cfg).trace;
                    let rendered = trace_json::to_value(&trace).render();
                    (trace, rendered)
                })
                .collect()
        })
        .collect();
    Corpus { traces }
}

fn key(session: usize) -> String {
    format!("s{session}")
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Absorb(usize),
    Solve,
}

/// One request as sent, with how it ended.
#[derive(Clone, Debug)]
struct Op {
    session: usize,
    kind: Kind,
    /// First request of a visit (the rehydrating one in `serve-cold`).
    first: bool,
    /// Latency from the moment the request was due; `None` if it failed.
    latency_ms: Option<f64>,
    /// The spec a successful solve returned.
    spec: Option<String>,
}

/// The request sequence of one visit to `session` (its `visit`-th).
fn visit(shape: &Shape, visit: usize) -> Vec<(Kind, bool)> {
    let mut v: Vec<(Kind, bool)> = (0..shape.absorbs)
        .map(|j| {
            let idx = (visit * shape.absorbs + j) % TRACES_PER_SESSION;
            (Kind::Absorb(idx), j == 0)
        })
        .collect();
    v.push((Kind::Solve, false));
    v
}

fn request_line(c: &Corpus, id: u64, session: usize, kind: Kind) -> String {
    let k = key(session);
    match kind {
        Kind::Absorb(i) => format!(
            "{{\"id\":{id},\"type\":\"absorb_trace\",\"session\":\"{k}\",\"deadline_ms\":{DEADLINE_MS},\"trace\":{}}}\n",
            c.traces[session][i].1
        ),
        Kind::Solve => format!(
            "{{\"id\":{id},\"type\":\"solve\",\"session\":\"{k}\",\"deadline_ms\":{DEADLINE_MS}}}\n"
        ),
    }
}

/// What the load generator saw.
#[derive(Default)]
struct LoadOutcome {
    ops: Vec<Op>,
    late_ms: Vec<f64>,
    errors: Vec<String>,
    /// The lines sent (kept only on traced passes, for parse timing).
    lines: Vec<String>,
    last_arrival: Option<Instant>,
}

/// A sent request awaiting its response: `(id, due, index into ops)`.
type Pending = (u64, Instant, usize);

/// How often the generator polls for responses while nothing is due.
const POLL: Duration = Duration::from_micros(100);

/// One generator connection and the sessions it carries.
struct Lane {
    stream: TcpStream,
    sessions: Vec<usize>,
    cursor: usize,
    plan: VecDeque<(usize, Kind, bool)>,
    pending: VecDeque<Pending>,
    /// Bytes not yet accepted by the socket.
    out: Vec<u8>,
    buf: Vec<u8>,
}

/// Drives the load open-loop from this one thread over `lanes`
/// connections: request `j` is due at `start + j * period` whatever the
/// daemon's progress and goes to lane `j % lanes`, each lane cycling
/// through its own sessions. Latency runs from the due time to the
/// response's arrival, so a stall also delays the requests queued behind
/// it. Sockets are non-blocking and polled every [`POLL`] while nothing is
/// due; responses are parsed only after the load ends.
#[allow(clippy::too_many_arguments)]
fn drive(
    shape: &Shape,
    c: &Corpus,
    addr: SocketAddr,
    lanes: usize,
    visits: &mut [usize],
    requests: usize,
    start: Instant,
    period: Duration,
    keep_lines: bool,
) -> LoadOutcome {
    let mut out = LoadOutcome::default();
    let mut ls = Vec::new();
    for k in 0..lanes {
        let stream = TcpStream::connect(addr).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        });
        match stream {
            Ok(stream) => ls.push(Lane {
                stream,
                sessions: (k..shape.sessions).step_by(lanes).collect(),
                cursor: 0,
                plan: VecDeque::new(),
                pending: VecDeque::new(),
                out: Vec::new(),
                buf: Vec::new(),
            }),
            Err(e) => {
                out.errors.push(format!("connect: {e}"));
                return out;
            }
        }
    }
    let mut arrivals: Vec<(Pending, Instant, Vec<u8>)> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut j = 0usize;
    let mut last_progress = Instant::now();
    'run: loop {
        let due = start + period * j as u32;
        let now = Instant::now();
        if j < requests && now >= due {
            let lane = &mut ls[j % lanes];
            if lane.plan.is_empty() {
                let s = lane.sessions[lane.cursor % lane.sessions.len()];
                lane.plan
                    .extend(visit(shape, visits[s]).into_iter().map(|(k, f)| (s, k, f)));
                visits[s] += 1;
                lane.cursor += 1;
            }
            let (session, kind, first) = lane.plan.pop_front().expect("plan refilled above");
            let line = request_line(c, j as u64, session, kind);
            out.late_ms
                .push(now.duration_since(due).as_secs_f64() * 1e3);
            out.ops.push(Op {
                session,
                kind,
                first,
                latency_ms: None,
                spec: None,
            });
            lane.pending.push_back((j as u64, due, out.ops.len() - 1));
            lane.out.extend_from_slice(line.as_bytes());
            if keep_lines {
                out.lines.push(line);
            }
            j += 1;
        }
        let mut progressed = false;
        for lane in &mut ls {
            while !lane.out.is_empty() {
                match lane.stream.write(&lane.out) {
                    Ok(n) => {
                        lane.out.drain(..n);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => {
                        out.errors.push(format!("send: {e}"));
                        break 'run;
                    }
                }
            }
            loop {
                match lane.stream.read(&mut chunk) {
                    Ok(0) => {
                        out.errors.push("daemon closed the connection".into());
                        break 'run;
                    }
                    Ok(n) => {
                        let arrived = Instant::now();
                        progressed = true;
                        lane.buf.extend_from_slice(&chunk[..n]);
                        while let Some(pos) = lane.buf.iter().position(|&b| b == b'\n') {
                            let line: Vec<u8> = lane.buf.drain(..=pos).collect();
                            match lane.pending.pop_front() {
                                Some(p) => arrivals.push((p, arrived, line)),
                                None => out.errors.push("response without a request".into()),
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => {
                        out.errors.push(format!("receive: {e}"));
                        break 'run;
                    }
                }
            }
        }
        let idle = ls.iter().all(|l| l.pending.is_empty() && l.out.is_empty());
        if j >= requests && idle {
            break;
        }
        let now = Instant::now();
        if progressed {
            last_progress = now;
        } else if now.duration_since(last_progress) > DRAIN_TIMEOUT {
            out.errors.push("the daemon stopped responding".into());
            break;
        }
        let next = start + period * j as u32;
        if !progressed && (j >= requests || next > now) {
            let until_due = if j < requests { next - now } else { POLL };
            std::thread::sleep(until_due.min(POLL));
        }
    }
    let answered = arrivals.len();
    if answered < out.ops.len() {
        out.errors.push(format!(
            "{} of {} responses never arrived",
            out.ops.len() - answered,
            out.ops.len()
        ));
    }
    out.last_arrival = arrivals.iter().map(|a| a.1).max();
    for ((id, due, index), arrived, line) in arrivals {
        settle(&mut out, id, index, &line, arrived.duration_since(due));
    }
    out
}

/// Checks one response against the request it answers and records how the
/// request ended.
fn settle(out: &mut LoadOutcome, id: u64, index: usize, line: &[u8], latency: Duration) {
    let text = String::from_utf8_lossy(line);
    let resp = match parse_response(text.trim()) {
        Ok(r) => r,
        Err(e) => {
            out.errors.push(format!("protocol error: {e}"));
            return;
        }
    };
    if resp.id.as_u64() != Some(id) {
        out.errors.push(format!(
            "response id {:?} arrived where {id} was due (out of order)",
            resp.id
        ));
    }
    let op = &mut out.ops[index];
    // A busy response leaves the request failed (counted, not an error).
    if !resp.ok && !resp.busy {
        out.errors.push(format!(
            "{} on {}: {}",
            if op.kind == Kind::Solve {
                "solve"
            } else {
                "absorb"
            },
            key(op.session),
            resp.error.unwrap_or_default()
        ));
    } else if resp.ok {
        op.latency_ms = Some(latency.as_secs_f64() * 1e3);
        if op.kind == Kind::Solve {
            op.spec = resp
                .doc
                .get("spec")
                .and_then(Json::as_str)
                .map(str::to_string);
        }
    }
}

fn spawn_daemon(shape: &Shape) -> std::io::Result<(SpawnedServer, WorkDir)> {
    let dir = WorkDir::new(shape.name);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: workers(),
        max_sessions: shape.max_sessions,
        data_dir: Some(dir.0.clone()),
        ..ServeConfig::default()
    };
    Ok((spawn(cfg)?, dir))
}

/// Daemon workers and generator connections: at most `nproc`, at most 2.
fn workers() -> usize {
    nproc().min(2)
}

/// One closed-loop visit per session through a blocking client.
fn closed_loop(
    shape: &Shape,
    c: &Corpus,
    addr: SocketAddr,
    ops: &mut [Vec<Op>],
    visits: &mut [usize],
    errors: &mut Vec<String>,
) {
    let mut client = match Client::connect(addr) {
        Ok(cl) => cl,
        Err(e) => {
            errors.push(format!("connect: {e}"));
            return;
        }
    };
    for s in 0..shape.sessions {
        for (kind, first) in visit(shape, visits[s]) {
            let resp = match kind {
                Kind::Absorb(i) => {
                    let line = client.absorb_trace_line(&key(s), &c.traces[s][i].1);
                    client.call_raw(&line)
                }
                Kind::Solve => client.solve(&key(s)),
            };
            let mut op = Op {
                session: s,
                kind,
                first,
                latency_ms: None,
                spec: None,
            };
            match resp {
                Ok(r) if r.ok => {
                    op.latency_ms = Some(0.0);
                    op.spec = r.doc.get("spec").and_then(Json::as_str).map(str::to_string);
                }
                Ok(r) => errors.push(format!(
                    "warm-up on {}: {}",
                    key(s),
                    r.error.unwrap_or_default()
                )),
                Err(e) => errors.push(format!("warm-up on {}: {e}", key(s))),
            }
            ops[s].push(op);
        }
        visits[s] += 1;
    }
}

/// Final solve of every session, recorded like any other op.
fn final_solves(shape: &Shape, addr: SocketAddr, ops: &mut [Vec<Op>], errors: &mut Vec<String>) {
    let mut client = match Client::connect(addr) {
        Ok(cl) => cl,
        Err(e) => {
            errors.push(format!("connect: {e}"));
            return;
        }
    };
    for (s, session_ops) in ops.iter_mut().enumerate().take(shape.sessions) {
        match client.solve(&key(s)) {
            Ok(r) if r.ok => session_ops.push(Op {
                session: s,
                kind: Kind::Solve,
                first: false,
                latency_ms: Some(0.0),
                spec: r.doc.get("spec").and_then(Json::as_str).map(str::to_string),
            }),
            Ok(r) => errors.push(format!(
                "final solve on {}: {}",
                key(s),
                r.error.unwrap_or_default()
            )),
            Err(e) => errors.push(format!("final solve on {}: {e}", key(s))),
        }
    }
}

/// Feeds each session's successful ops, in order, to an in-process
/// [`Session`] and checks every solve's spec byte for byte.
fn check_parity(c: &Corpus, ops: &[Vec<Op>]) -> Vec<String> {
    let mut errors = Vec::new();
    for (s, session_ops) in ops.iter().enumerate() {
        let mut reference = Session::new(SherLockConfig::default());
        for (n, op) in session_ops.iter().enumerate() {
            if op.latency_ms.is_none() {
                continue;
            }
            match op.kind {
                Kind::Absorb(i) => {
                    reference.absorb_trace(&c.traces[s][i].0);
                }
                Kind::Solve => {
                    let want = match reference.solve() {
                        Ok(r) => r.render(),
                        Err(e) => {
                            errors.push(format!("{}: reference solve failed: {e:?}", key(s)));
                            break;
                        }
                    };
                    if op.spec.as_deref() != Some(want.as_str()) {
                        errors.push(format!(
                            "{}: spec after op {n} differs from an in-process session fed the same ops",
                            key(s)
                        ));
                        break;
                    }
                }
            }
        }
    }
    errors
}

struct Pass {
    /// What the generator sent and saw; its errors also hold the pass's
    /// failed checks.
    out: LoadOutcome,
    wall_s: f64,
    /// Metric delta over the open-loop part only.
    snap: Snapshot,
    /// `(session, op)` in send order, warm-up included, for the store replay.
    stream: Vec<(usize, Kind)>,
}

/// One pass: fresh daemon, warm-up visits, `requests` open-loop requests,
/// final solves, drain, and the output checks.
fn run_pass(
    shape: &Shape,
    c: &Corpus,
    daemon: (SpawnedServer, WorkDir),
    requests: usize,
    traced: bool,
) -> Pass {
    let (server, _dir) = daemon;
    let addr = server.addr();
    let mut errors = Vec::new();
    let mut by_session: Vec<Vec<Op>> = vec![Vec::new(); shape.sessions];
    let mut visits = vec![0usize; shape.sessions];
    // Warm-up: enough closed-loop visits that every session has absorbed
    // its whole replay list once, so the measured load sees sessions in
    // their steady state rather than their first-touch transient.
    for _ in 0..TRACES_PER_SESSION.div_ceil(shape.absorbs) {
        closed_loop(shape, c, addr, &mut by_session, &mut visits, &mut errors);
    }
    let mut stream: Vec<(usize, Kind)> = by_session
        .iter()
        .flatten()
        .map(|op| (op.session, op.kind))
        .collect();

    let period = Duration::from_secs_f64(1.0 / shape.rate);
    let before = sherlock_obs::snapshot();
    let start = Instant::now() + Duration::from_millis(5);
    let outcome = drive(
        shape,
        c,
        addr,
        workers(),
        &mut visits,
        requests,
        start,
        period,
        traced,
    );
    let snap = sherlock_obs::snapshot().delta(&before);
    let end = outcome.last_arrival.unwrap_or_else(Instant::now);
    let wall_s = end.saturating_duration_since(start).as_secs_f64();

    for op in &outcome.ops {
        by_session[op.session].push(op.clone());
    }
    stream.extend(outcome.ops.iter().map(|op| (op.session, op.kind)));
    errors.extend(store_check(shape, &outcome.ops, &snap));
    final_solves(shape, addr, &mut by_session, &mut errors);
    server.shutdown();
    let summary = server.join();
    if summary.protocol_errors > 0 {
        errors.push(format!(
            "daemon counted {} protocol errors",
            summary.protocol_errors
        ));
    }
    errors.extend(check_parity(c, &by_session));
    let mut out = outcome;
    out.errors.extend(errors);
    Pass {
        out,
        wall_s,
        snap,
        stream,
    }
}

/// Cross-checks the daemon's store counters over the open-loop part
/// against the traffic: on a cold shape every visit touches a spilled
/// session, so rehydrations must equal the visits answered; on a hot shape
/// nothing may be evicted or rehydrated.
fn store_check(shape: &Shape, ops: &[Op], snap: &Snapshot) -> Option<String> {
    let rehydrations = counter(snap, "store.rehydrations");
    if shape.cold {
        let visits = ops
            .iter()
            .filter(|op| op.first && op.latency_ms.is_some())
            .count() as u64;
        (rehydrations != visits).then(|| {
            format!("daemon counted {rehydrations} rehydrations for {visits} visits to spilled sessions")
        })
    } else {
        (rehydrations + counter(snap, "store.sessions.evicted") > 0).then(|| {
            "sessions were evicted or rehydrated although all fit in the store".to_string()
        })
    }
}

/// A run whose generator fell behind is invalid, not slow.
fn lateness_check(late_p99_ms: f64) -> Option<String> {
    (late_p99_ms > LATE_LIMIT_MS).then(|| {
        format!(
            "run invalid: the load generator sent its p99 request {late_p99_ms:.1} ms late \
             (limit {LATE_LIMIT_MS} ms), so latencies would understate queueing"
        )
    })
}

/// Latency percentiles over successful requests, with failed ones counted
/// as missing every limit.
fn latency(ops: &[&Op]) -> Vec<f64> {
    sorted(
        ops.iter()
            .map(|op| op.latency_ms.unwrap_or(f64::INFINITY))
            .collect(),
    )
}

/// Replays the pass's op stream straight into [`SessionStore`]s, timing
/// the store's own work from outside: appends (durable minus in-memory
/// absorbs), `persist_all` snapshots, and on reopen the first touch of each
/// session (log replay, or snapshot load) apart from the cold solve that
/// follows it.
fn store_replay(shape: &Shape, c: &Corpus, stream: &[(usize, Kind)], report: &mut Report) {
    let cfg = SherLockConfig::default;
    let feed = |store: &SessionStore| -> (u64, u64, u64) {
        let (mut ns, mut n, mut bytes) = (0u64, 0u64, 0u64);
        for &(s, kind) in stream {
            let k = key(s);
            match kind {
                Kind::Absorb(i) => {
                    let t0 = Instant::now();
                    store.with_session(&k, |h| {
                        h.absorb_trace(&c.traces[s][i].0);
                    });
                    ns += t0.elapsed().as_nanos() as u64;
                    n += 1;
                    bytes += c.traces[s][i].1.len() as u64;
                }
                Kind::Solve => store.with_session(&k, |h| {
                    let _ = h.solve();
                }),
            }
        }
        (ns, n, bytes)
    };
    // Each session's first touch after a reopen, then its solve.
    let reopen = |store: &SessionStore| -> (Vec<f64>, Vec<f64>) {
        let mut open_ns = Vec::new();
        let mut solve_ns = Vec::new();
        for s in 0..shape.sessions {
            let t0 = Instant::now();
            store.with_session(&key(s), |_| ());
            let t1 = Instant::now();
            store.with_session(&key(s), |h| {
                let _ = h.solve();
            });
            open_ns.push((t1 - t0).as_nanos() as f64);
            solve_ns.push(t1.elapsed().as_nanos() as f64);
        }
        (open_ns, solve_ns)
    };
    let durable = |dir: &WorkDir| {
        SessionStore::open(
            cfg(),
            StoreOptions {
                max_sessions: 0,
                data_dir: Some(dir.0.clone()),
                ..StoreOptions::default()
            },
        )
    };
    let (logged, snapshotted) = (WorkDir::new("store-log"), WorkDir::new("store-snap"));
    let (Ok(a), Ok(b)) = (durable(&logged), durable(&snapshotted)) else {
        report
            .errors
            .push("store replay: cannot open a durable store".into());
        return;
    };
    let (mem_ns, _, _) = feed(&SessionStore::in_memory(cfg(), 0));
    let before = sherlock_obs::snapshot();
    let (dur_ns, n, trace_bytes) = feed(&a);
    let oplog_bytes = counter(
        &sherlock_obs::snapshot().delta(&before),
        "store.oplog_bytes",
    );
    feed(&b);
    let t0 = Instant::now();
    b.persist_all();
    let snapshot_ns = t0.elapsed().as_nanos() as f64;
    drop((a, b));
    let (Ok(a), Ok(b)) = (durable(&logged), durable(&snapshotted)) else {
        report
            .errors
            .push("store replay: cannot reopen a durable store".into());
        return;
    };
    let before = sherlock_obs::snapshot();
    let (replay_ns, _) = reopen(&a);
    let replayed = counter(
        &sherlock_obs::snapshot().delta(&before),
        "store.replayed_records",
    );
    let (load_ns, cold_solve_ns) = reopen(&b);

    let sessions = shape.sessions as u64;
    report.metric(
        "store.append_ns",
        dur_ns.saturating_sub(mem_ns) as f64,
        "ns",
        n,
    );
    report.metric(
        "store.oplog_bytes_per_trace_byte",
        oplog_bytes as f64 / trace_bytes.max(1) as f64,
        "ratio",
        n,
    );
    report.metric("store.snapshot_ns", snapshot_ns, "ns", sessions);
    report.metric("store.replay_ns", replay_ns.iter().sum(), "ns", sessions);
    report.metric(
        "store.snapshot_load_ns",
        load_ns.iter().sum(),
        "ns",
        sessions,
    );
    report.metric("store.replayed_records", replayed as f64, "count", sessions);
    let ms = |v: &[f64]| {
        Json::Arr(
            v.iter()
                .map(|ns| Json::Num((ns / 1e4).round() / 100.0))
                .collect(),
        )
    };
    report.info(
        "store_replay_ms_by_session",
        Json::Obj(vec![
            ("log_replay".to_string(), ms(&replay_ns)),
            ("snapshot_load".to_string(), ms(&load_ns)),
            ("cold_solve".to_string(), ms(&cold_solve_ns)),
        ]),
    );
    if shape.cold {
        // The serial rehydrate of a spilled session: snapshot load plus the
        // cold solve, plus the loaded run's median queue wait.
        let queue_p50 = pass_queue_p50(report);
        let serial = (median(&load_ns) + median(&cold_solve_ns) + queue_p50) / 1e6;
        report.metric("rehydrate_serial_ms", serial, "ms", sessions);
    }
}

fn pass_queue_p50(report: &Report) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == "serve.queue_wait_ns_p50")
        .map_or(0.0, |m| m.value)
}

pub fn run(ctx: &Ctx, shape: &Shape) -> Report {
    let mut report = Report::default();
    let (c, daemon) = repeat_setup(
        &mut report,
        || (corpus(shape, ctx.seed), spawn_daemon(shape)),
        |(_, daemon)| {
            if let Ok((server, _dir)) = daemon {
                server.shutdown();
                server.join();
            }
        },
    );
    let daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            report.errors.push(format!("cannot spawn the daemon: {e}"));
            return report;
        }
    };

    let mut untraced: Vec<Pass> = Vec::new();
    let mut overheads = Vec::new();
    let mut traced_pass = None;
    if ctx.trace {
        let deadline = Instant::now();
        let mut daemon = Some(daemon);
        while untraced.is_empty() || deadline.elapsed().as_secs_f64() < ctx.seconds {
            let fresh = || spawn_daemon(shape).expect("spawn a fresh daemon");
            let plain = run_pass(
                shape,
                &c,
                daemon.take().unwrap_or_else(fresh),
                TRACE_REQUESTS,
                false,
            );
            let traced = run_pass(shape, &c, fresh(), TRACE_REQUESTS, true);
            let p50 = |p: &Pass| percentile(&latency(&p.out.ops.iter().collect::<Vec<_>>()), 50);
            overheads.push(overhead_pct(p50(&traced), p50(&plain)));
            untraced.push(plain);
            if traced_pass.is_none() {
                traced_pass = Some(traced);
            }
        }
    } else {
        let requests = (ctx.seconds * shape.rate).round().max(1.0) as usize;
        untraced.push(run_pass(shape, &c, daemon, requests, false));
    }

    let ops: Vec<&Op> = untraced.iter().flat_map(|p| p.out.ops.iter()).collect();
    let wall: f64 = untraced.iter().map(|p| p.wall_s).sum();
    report.attempted = ops.len() as u64;
    report.failed = ops.iter().filter(|op| op.latency_ms.is_none()).count() as u64;
    for p in &untraced {
        report.errors.extend(p.out.errors.iter().cloned());
    }
    let all = latency(&ops);
    let n = all.len() as u64;
    report.metric("ops_per_s", (n - report.failed) as f64 / wall, "1/s", n);
    report.metric("op_ms_p50", percentile(&all, 50), "ms", n);
    report.metric("op_ms_p95", percentile(&all, 95), "ms", n);
    let pick = |f: &dyn Fn(&Op) -> bool| -> Vec<f64> {
        latency(&ops.iter().copied().filter(|op| f(op)).collect::<Vec<_>>())
    };
    let absorbs = pick(&|op| matches!(op.kind, Kind::Absorb(_)) && !(shape.cold && op.first));
    let solves = pick(&|op| op.kind == Kind::Solve);
    let mut named = vec![
        ("absorb_ms_p50", percentile(&absorbs, 50), absorbs.len()),
        ("absorb_ms_p99", percentile(&absorbs, 99), absorbs.len()),
        ("solve_ms_p50", percentile(&solves, 50), solves.len()),
        ("solve_ms_p95", percentile(&solves, 95), solves.len()),
    ];
    if shape.cold {
        let rehydrate = pick(&|op| op.first);
        named.push((
            "rehydrate_ms_p50",
            percentile(&rehydrate, 50),
            rehydrate.len(),
        ));
        named.push((
            "rehydrate_ms_p90",
            percentile(&rehydrate, 90),
            rehydrate.len(),
        ));
    }
    for (name, v, samples) in named {
        report.metric(name, v, "ms", samples as u64);
    }
    let late = sorted(
        untraced
            .iter()
            .flat_map(|p| p.out.late_ms.clone())
            .collect(),
    );
    let late_p99 = percentile(&late, 99);
    report.metric("gen.late_ms_p99", late_p99, "ms", late.len() as u64);
    report.errors.extend(lateness_check(late_p99));
    report.info("offered_rate_per_s", Json::Num(shape.rate));
    report.info("connections", Json::from(workers()));
    report.info("generator_threads", Json::from(1u64));
    report.info("workers", Json::from(workers()));
    report.info("sessions", Json::from(shape.sessions));
    report.info("max_sessions", Json::from(shape.max_sessions));
    report.info("absorbs_per_visit", Json::from(shape.absorbs));
    report.info("traces_per_session", Json::from(TRACES_PER_SESSION));

    if let Some(traced) = traced_pass {
        report.errors.extend(traced.out.errors.iter().cloned());
        let snap = &traced.snap;
        let samples = traced.out.ops.len() as u64;
        crate::common_counts(&mut report, snap, samples);
        let h = |name: &str| snap.histograms.get(name).cloned().unwrap_or_default();
        let queue = h("serve.queue_wait_ns");
        let residence = h("serve.request_ns");
        report.metric(
            "serve.queue_wait_ns_p50",
            queue.quantile(0.50) as f64,
            "ns",
            queue.count,
        );
        report.metric(
            "serve.queue_wait_ns_p99",
            queue.quantile(0.99) as f64,
            "ns",
            queue.count,
        );
        let handled = span_count(snap, "serve.request");
        report.metric(
            "serve.handler_ns_mean",
            span_total(snap, "serve.request") as f64 / handled.max(1) as f64,
            "ns",
            handled,
        );
        let batches = h("serve.batch.size");
        report.metric(
            "serve.batch_size_mean",
            batches.mean(),
            "count",
            batches.count,
        );
        report.metric(
            "serve.busy",
            counter(snap, "serve.busy") as f64,
            "count",
            samples,
        );
        report.metric(
            "serve.deadline_expired",
            counter(snap, "serve.deadline_expired") as f64,
            "count",
            samples,
        );
        report.metric(
            "store.snapshots",
            counter(snap, "store.snapshots") as f64,
            "count",
            samples,
        );
        report.metric(
            "store.rehydrations",
            counter(snap, "store.rehydrations") as f64,
            "count",
            samples,
        );
        report.metric(
            "store.evictions",
            counter(snap, "store.sessions.evicted") as f64,
            "count",
            samples,
        );
        let t0 = Instant::now();
        let mut parse_errors = 0;
        for line in &traced.out.lines {
            if parse_request(line.trim_end()).is_err() {
                parse_errors += 1;
            }
        }
        report.metric(
            "serve.parse_ns",
            t0.elapsed().as_nanos() as f64,
            "ns",
            traced.out.lines.len() as u64,
        );
        if parse_errors > 0 {
            report.errors.push(format!(
                "{parse_errors} sent lines do not parse as requests"
            ));
        }

        let mut table = LayerTable::from_spans(
            "daemon request residence (enqueue to response)",
            residence.sum,
            snap,
        );
        table.push("serve.queue", queue.sum, queue.count);
        report.tables.push(table);
        store_replay(shape, &c, &traced.stream, &mut report);
        if !shape.cold {
            for name in [
                "simplex.pivots",
                "simplex.solves",
                "windows.extracted",
                "store.oplog_records",
            ] {
                report.exact.push((name.to_string(), counter(snap, name)));
            }
        }
        report.metric(
            "obs.overhead_pct",
            median(&overheads),
            "%",
            overheads.len() as u64,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Corpus {
        let app = &all_apps()[1];
        let trace = app.tests[0].run(SimConfig::with_seed(3)).trace;
        let rendered = trace_json::to_value(&trace).render();
        Corpus {
            traces: vec![vec![(trace, rendered)]],
        }
    }

    fn op(kind: Kind, spec: Option<String>) -> Op {
        Op {
            session: 0,
            kind,
            first: false,
            latency_ms: Some(1.0),
            spec,
        }
    }

    #[test]
    fn a_spec_that_differs_from_the_in_process_session_is_caught() {
        let c = tiny_corpus();
        let mut reference = Session::new(SherLockConfig::default());
        reference.absorb_trace(&c.traces[0][0].0);
        let right = reference.solve().unwrap().render();
        let ops = |spec: &str| {
            vec![vec![
                op(Kind::Absorb(0), None),
                op(Kind::Solve, Some(spec.to_string())),
            ]]
        };
        assert!(check_parity(&c, &ops(&right)).is_empty());
        assert_eq!(check_parity(&c, &ops("Releasing sites:\n")).len(), 1);
    }

    #[test]
    fn out_of_order_error_and_busy_responses_are_caught() {
        let mut out = LoadOutcome::default();
        out.ops.push(op(Kind::Solve, None));
        out.ops[0].latency_ms = None;
        let ok = br#"{"id":7,"ok":true,"type":"solve","spec":"s"}"#;
        settle(&mut out, 7, 0, ok, Duration::from_millis(2));
        assert!(out.errors.is_empty());
        assert_eq!(out.ops[0].spec.as_deref(), Some("s"));
        settle(&mut out, 8, 0, ok, Duration::from_millis(2));
        assert_eq!(out.errors.len(), 1, "id 7 where 8 was due");
        settle(
            &mut out,
            9,
            0,
            br#"{"id":9,"ok":false,"error":"deadline exceeded"}"#,
            Duration::ZERO,
        );
        assert_eq!(out.errors.len(), 2);
        out.ops.push(op(Kind::Absorb(0), None));
        out.ops[1].latency_ms = None;
        settle(
            &mut out,
            10,
            1,
            br#"{"id":10,"ok":false,"busy":true,"error":"busy"}"#,
            Duration::ZERO,
        );
        assert!(
            out.ops[1].latency_ms.is_none(),
            "a refused request counts as failed"
        );
        assert_eq!(out.errors.len(), 2, "busy is a failure, not a wrong output");
        settle(&mut out, 11, 0, b"not json", Duration::ZERO);
        assert_eq!(out.errors.len(), 3);
    }

    #[test]
    fn store_counters_must_match_the_traffic() {
        let mut visit = op(Kind::Absorb(0), None);
        visit.first = true;
        let ops = vec![visit.clone(), op(Kind::Solve, None), visit];
        let mut snap = Snapshot::default();
        snap.counters.insert("store.rehydrations".into(), 2);
        assert!(store_check(&COLD, &ops, &snap).is_none());
        assert!(
            store_check(&HOT, &ops, &snap).is_some(),
            "hot sessions must not rehydrate"
        );
        snap.counters.insert("store.rehydrations".into(), 1);
        assert!(store_check(&COLD, &ops, &snap).is_some());
    }

    #[test]
    fn a_late_generator_invalidates_the_run() {
        assert!(lateness_check(1.0).is_none());
        assert!(lateness_check(LATE_LIMIT_MS + 1.0).is_some());
    }
}
