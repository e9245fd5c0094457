//! The daemon: TCP listener, per-connection readers, a worker pool over
//! per-session mailboxes, and graceful drain.
//!
//! # Scheduling
//!
//! Each session key owns a **mailbox** (FIFO of queued jobs). Readers push
//! parsed requests into the target session's mailbox and, when no worker is
//! already responsible for it, enqueue the session key as a token; workers
//! pop tokens and process that session's mailbox to exhaustion, taking up
//! to `batch_max` jobs per session-lock acquisition (**request batching**:
//! a burst of `absorb_trace` requests against one session pays for the
//! session lock and solve-dirtying once). This gives:
//!
//! * per-session FIFO semantics — a pipelined `absorb, absorb, solve` is
//!   always solved after both absorbs;
//! * cross-session parallelism — independent sessions run on independent
//!   workers;
//! * bounded admission — at most `queue_capacity` jobs may be queued
//!   across all mailboxes; beyond that, clients get an explicit `busy`
//!   response (**backpressure**) instead of unbounded memory growth.
//!
//! # Response ordering
//!
//! Responses are written strictly in request order per connection: the
//! reader stamps every request with a sequence number and writers
//! reassemble out-of-order completions (`Conn::send`), so clients can
//! pipeline freely and never observe reordering.
//!
//! # Drain
//!
//! A `shutdown` request (or [`ShutdownHandle::shutdown`]) stops the
//! listener and new admissions, lets every already-admitted job finish and
//! flush its response, then joins workers and readers. `stats` and
//! `shutdown` are handled inline by the reader, so the daemon stays
//! responsive under full queues.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sherlock_apps::app_by_id;
use sherlock_core::SherLockConfig;
use sherlock_obs as obs;
use sherlock_obs::json::Json;
use sherlock_racer::{detect, differential, SyncSpec};
use sherlock_store::{SessionHandle, SessionStore, StoreOptions};

use sherlock_sim::{Campaign, CampaignConfig, CampaignProgress};

use crate::protocol::{
    busy_response, error_response, ok_response, parse_request, progress_frame, Request, RequestBody,
};

/// Configuration of one daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Worker OS threads; 0 means `std::thread::available_parallelism`.
    pub workers: usize,
    /// Maximum jobs queued across all session mailboxes before clients get
    /// explicit `busy` responses.
    pub queue_capacity: usize,
    /// Session-store LRU bound (0 = unbounded).
    pub max_sessions: usize,
    /// Maximum jobs a worker takes per session-lock acquisition.
    pub batch_max: usize,
    /// Root directory for session oplogs and snapshots. `None` (the
    /// default) keeps every session in memory only — eviction and restart
    /// then lose state, the pre-durability behavior.
    pub data_dir: Option<PathBuf>,
    /// Session-store shards (independent map locks and disk directories).
    pub shards: usize,
    /// Absorbed traces logged per session between snapshots.
    pub snapshot_every: u64,
    /// Inference configuration shared by all sessions.
    pub sherlock: SherLockConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let store = StoreOptions::default();
        ServeConfig {
            addr: "127.0.0.1:7477".to_string(),
            workers: 0,
            queue_capacity: 256,
            max_sessions: store.max_sessions,
            batch_max: 16,
            data_dir: None,
            shards: store.shards,
            snapshot_every: store.snapshot_every,
            sherlock: SherLockConfig::default(),
        }
    }
}

/// End-of-life statistics returned by [`Server::serve`].
#[derive(Clone, Debug, Default)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Requests parsed (including inline-handled ones).
    pub requests: u64,
    /// Response lines written (or attempted on closed peers).
    pub responses: u64,
    /// Malformed lines answered with structured errors.
    pub protocol_errors: u64,
    /// Requests rejected with `busy`.
    pub busy_rejections: u64,
    /// Requests that expired in the queue.
    pub deadline_expired: u64,
    /// Multi-job session batches processed.
    pub batches: u64,
    /// Sessions live at shutdown.
    pub sessions: usize,
    /// Sessions evicted (spilled to disk when durable) by the LRU cap.
    pub evictions: u64,
    /// Sessions rehydrated from disk.
    pub rehydrations: u64,
}

impl ServeSummary {
    /// JSON rendering (the CLI prints this after drain).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("connections".to_string(), Json::from(self.connections)),
            ("requests".to_string(), Json::from(self.requests)),
            ("responses".to_string(), Json::from(self.responses)),
            (
                "protocol_errors".to_string(),
                Json::from(self.protocol_errors),
            ),
            (
                "busy_rejections".to_string(),
                Json::from(self.busy_rejections),
            ),
            (
                "deadline_expired".to_string(),
                Json::from(self.deadline_expired),
            ),
            ("batches".to_string(), Json::from(self.batches)),
            ("sessions".to_string(), Json::from(self.sessions)),
            ("evictions".to_string(), Json::from(self.evictions)),
            ("rehydrations".to_string(), Json::from(self.rehydrations)),
        ])
    }
}

/// One admitted unit of work.
struct Job {
    conn: Arc<Conn>,
    seq: u64,
    request: Request,
    enqueued: Instant,
    /// Trace context minted by the reader (connection trace id + session +
    /// seq); the worker re-enters it so the request's spans and events
    /// reconstruct into one causal tree across the thread hop.
    ctx: obs::TraceCtx,
}

/// Per-connection state: the write half plus the response-reordering
/// buffer.
struct Conn {
    stream: Mutex<TcpStream>,
    /// `(next sequence to write, completed-but-not-yet-writable lines)`.
    pending: Mutex<(u64, BTreeMap<u64, String>)>,
    open: AtomicBool,
}

impl Conn {
    /// Queues the response for `seq` and flushes every contiguously ready
    /// line, preserving request order no matter which worker finished
    /// first.
    fn send(&self, seq: u64, line: String, shared: &Shared) {
        let mut ready = String::new();
        {
            let mut p = self
                .pending
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            p.1.insert(seq, line);
            loop {
                let next = p.0;
                let Some(l) = p.1.remove(&next) else { break };
                ready.push_str(&l);
                ready.push('\n');
                p.0 += 1;
                shared.responses.fetch_add(1, Ordering::Relaxed);
            }
            if !ready.is_empty() && self.open.load(Ordering::Relaxed) {
                // Written under the pending lock so interleaved flushes from
                // two workers cannot split lines.
                let mut s = self
                    .stream
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if s.write_all(ready.as_bytes())
                    .and_then(|()| s.flush())
                    .is_err()
                {
                    self.open.store(false, Ordering::Relaxed);
                }
            }
        }
    }

    /// Writes one progress frame immediately, bypassing the response-order
    /// buffer — incremental frames must reach the client *before* their
    /// request's final response, which ordered delivery can't express. The
    /// stream lock keeps each frame one unsplit line; frames may land
    /// between other requests' response lines (documented in
    /// [`progress_frame`]).
    fn emit(&self, line: &str) {
        if !self.open.load(Ordering::Relaxed) {
            return;
        }
        let mut s = self
            .stream
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if s.write_all(line.as_bytes())
            .and_then(|()| s.write_all(b"\n"))
            .and_then(|()| s.flush())
            .is_err()
        {
            self.open.store(false, Ordering::Relaxed);
        }
    }
}

/// A session's job queue and scheduling state.
#[derive(Default)]
struct Mailbox {
    /// `(jobs, a worker currently owns this mailbox)`.
    inner: Mutex<(VecDeque<Job>, bool)>,
}

/// The token queue feeding workers: session keys with non-empty mailboxes.
#[derive(Default)]
struct TokenQueue {
    inner: Mutex<(VecDeque<String>, bool)>,
    cv: Condvar,
}

impl TokenQueue {
    fn push(&self, key: String) {
        let mut q = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        q.0.push_back(key);
        drop(q);
        self.cv.notify_one();
    }

    /// Blocks for the next token; `None` once closed *and* empty.
    fn pop(&self) -> Option<String> {
        let mut q = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(k) = q.0.pop_front() {
                return Some(k);
            }
            if q.1 {
                return None;
            }
            q = self
                .cv
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .1 = true;
        self.cv.notify_all();
    }
}

/// Lifetime request tallies for one session key (kept even if the session
/// itself is later evicted from the store).
#[derive(Clone, Copy, Debug, Default)]
struct SessStats {
    requests: u64,
    errors: u64,
    total_ns: u64,
}

struct Shared {
    cfg: ServeConfig,
    store: SessionStore,
    mailboxes: Mutex<HashMap<String, Arc<Mailbox>>>,
    tokens: TokenQueue,
    /// Jobs admitted and not yet responded to (queued + in flight).
    pending: AtomicUsize,
    draining: AtomicBool,
    start: Instant,
    /// Resolved worker-pool size (set once by [`Server::serve`]).
    workers: AtomicUsize,
    /// Per-session request tallies for the `metrics` verb.
    session_stats: Mutex<BTreeMap<String, SessStats>>,
    // Lifetime tallies for the summary.
    connections: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    protocol_errors: AtomicU64,
    busy_rejections: AtomicU64,
    deadline_expired: AtomicU64,
    batches: AtomicU64,
}

/// Triggers a graceful drain from outside the protocol (tests, CLI signal
/// bridges).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Begins graceful drain: stop accepting, finish admitted work, exit.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }
}

/// A bound daemon, ready to [`serve`](Server::serve).
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Binds the listen socket without serving yet.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let store = SessionStore::open(
            cfg.sherlock.clone(),
            StoreOptions {
                max_sessions: cfg.max_sessions,
                shards: cfg.shards,
                data_dir: cfg.data_dir.clone(),
                snapshot_every: cfg.snapshot_every,
            },
        )?;
        Ok(Server {
            shared: Arc::new(Shared {
                cfg,
                store,
                mailboxes: Mutex::new(HashMap::new()),
                tokens: TokenQueue::default(),
                pending: AtomicUsize::new(0),
                draining: AtomicBool::new(false),
                start: Instant::now(),
                workers: AtomicUsize::new(0),
                session_stats: Mutex::new(BTreeMap::new()),
                connections: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                responses: AtomicU64::new(0),
                protocol_errors: AtomicU64::new(0),
                busy_rejections: AtomicU64::new(0),
                deadline_expired: AtomicU64::new(0),
                batches: AtomicU64::new(0),
            }),
            listener,
            addr,
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can trigger graceful drain from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until drained: accepts connections, spawns readers, runs the
    /// worker pool, and on shutdown (protocol request or
    /// [`ShutdownHandle`]) drains every admitted job, flushes every
    /// response, and joins all threads.
    pub fn serve(self) -> ServeSummary {
        let shared = self.shared;
        let workers = if shared.cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            shared.cfg.workers
        }
        .max(1);
        shared.workers.store(workers, Ordering::Relaxed);

        let mut worker_handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker"),
            );
        }

        let mut reader_handles = Vec::new();
        let conns: Arc<Mutex<Vec<Arc<Conn>>>> = Arc::new(Mutex::new(Vec::new()));
        while !shared.draining.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    obs::counter!("serve.connections").incr();
                    let _ = stream.set_nodelay(true);
                    let conn = Arc::new(Conn {
                        stream: Mutex::new(stream.try_clone().expect("clone stream")),
                        pending: Mutex::new((0, BTreeMap::new())),
                        open: AtomicBool::new(true),
                    });
                    conns
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(Arc::clone(&conn));
                    let shared = Arc::clone(&shared);
                    reader_handles.push(
                        std::thread::Builder::new()
                            .name("serve-reader".to_string())
                            .spawn(move || reader_loop(&shared, &conn, stream))
                            .expect("spawn reader"),
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }

        // Drain: every admitted job completes and flushes its response.
        while shared.pending.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        shared.tokens.close();
        for h in worker_handles {
            let _ = h.join();
        }
        // Unblock readers stuck in read_line, then join them.
        for conn in conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            let s = conn
                .stream
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for h in reader_handles {
            let _ = h.join();
        }

        // All workers joined: every session is quiescent, so one final
        // snapshot pass makes a clean restart rehydrate without log replay.
        shared.store.persist_all();

        ServeSummary {
            connections: shared.connections.load(Ordering::Relaxed),
            requests: shared.requests.load(Ordering::Relaxed),
            responses: shared.responses.load(Ordering::Relaxed),
            protocol_errors: shared.protocol_errors.load(Ordering::Relaxed),
            busy_rejections: shared.busy_rejections.load(Ordering::Relaxed),
            deadline_expired: shared.deadline_expired.load(Ordering::Relaxed),
            batches: shared.batches.load(Ordering::Relaxed),
            sessions: shared.store.len(),
            evictions: shared.store.evictions(),
            rehydrations: shared.store.rehydrations(),
        }
    }
}

/// Binds and serves on a background thread; the common entry point for
/// tests and the in-process load generator.
///
/// # Errors
///
/// Propagates socket bind errors.
pub fn spawn(cfg: ServeConfig) -> io::Result<SpawnedServer> {
    let server = Server::bind(cfg)?;
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = std::thread::Builder::new()
        .name("serve-main".to_string())
        .spawn(move || server.serve())
        .expect("spawn server");
    Ok(SpawnedServer { addr, handle, join })
}

/// A daemon running on a background thread (see [`spawn`]).
pub struct SpawnedServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    join: std::thread::JoinHandle<ServeSummary>,
}

impl SpawnedServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers graceful drain without a protocol request.
    pub fn shutdown(&self) {
        self.handle.shutdown();
    }

    /// Waits for drain to complete and returns the summary.
    pub fn join(self) -> ServeSummary {
        self.join.join().expect("server thread panicked")
    }
}

fn mailbox(shared: &Shared, key: &str) -> Arc<Mailbox> {
    let mut map = shared
        .mailboxes
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(map.entry(key.to_string()).or_default())
}

/// Reader half of one connection: parse lines, answer
/// `stats`/`metrics`/`shutdown` inline, admit everything else into the
/// target session's mailbox.
fn reader_loop(shared: &Shared, conn: &Arc<Conn>, stream: TcpStream) {
    // One trace id per connection: every request on the connection shares
    // it and is distinguished by `seq`, so a pipelined client burst
    // reconstructs as one trace of ordered requests.
    let trace_id = obs::mint_trace_id();
    let mut reader = BufReader::new(stream);
    let mut seq = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let this_seq = seq;
        seq += 1;
        shared.requests.fetch_add(1, Ordering::Relaxed);

        let request = match parse_request(trimmed) {
            Ok(r) => r,
            Err(msg) => {
                // A bad request yields a structured error — never a dead
                // connection or a killed worker. Salvage the id when the
                // line at least parses as JSON.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                obs::counter!("serve.protocol_errors").incr();
                let id = Json::parse(trimmed)
                    .ok()
                    .and_then(|d| d.get("id").cloned())
                    .unwrap_or(Json::Null);
                conn.send(this_seq, error_response(&id, &msg), shared);
                continue;
            }
        };
        obs::counter!("serve.requests").incr();

        let ctx = obs::TraceCtx {
            trace_id,
            session: Some(request.session.clone()),
            seq: Some(this_seq),
        };
        match &request.body {
            RequestBody::Stats => {
                conn.send(this_seq, stats_response(shared, &request.id), shared);
            }
            RequestBody::Metrics => {
                conn.send(this_seq, metrics_response(shared, &request.id), shared);
            }
            RequestBody::Shutdown => {
                conn.send(
                    this_seq,
                    ok_response(&request.id, "shutdown", vec![]),
                    shared,
                );
                obs::counter!("serve.shutdowns").incr();
                shared.draining.store(true, Ordering::SeqCst);
            }
            _ => {
                if obs::jsonl_enabled() {
                    // Causality marker on the reader thread: ties the
                    // admission to the worker-side spans sharing this ctx.
                    let _scope = obs::trace_scope(ctx.clone());
                    obs::event(
                        "serve.enqueue",
                        &[("request", Json::from(request.body.type_name()))],
                    );
                }
                enqueue(shared, conn, this_seq, request, ctx);
            }
        }
    }
    conn.open.store(false, Ordering::Relaxed);
}

/// Admission control: bounded queue with explicit backpressure.
fn enqueue(shared: &Shared, conn: &Arc<Conn>, seq: u64, request: Request, ctx: obs::TraceCtx) {
    // Count first, check flags second: the drain loop can then trust that
    // `pending == 0` after `draining` was set means no admitted job is
    // still on its way into a mailbox.
    shared.pending.fetch_add(1, Ordering::SeqCst);
    if shared.draining.load(Ordering::SeqCst) {
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        conn.send(seq, error_response(&request.id, "shutting down"), shared);
        return;
    }
    if shared.pending.load(Ordering::SeqCst) > shared.cfg.queue_capacity {
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
        obs::counter!("serve.busy").incr();
        conn.send(seq, busy_response(&request.id), shared);
        return;
    }

    let key = request.session.clone();
    let mb = mailbox(shared, &key);
    let needs_token = {
        let mut inner = mb
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.0.push_back(Job {
            conn: Arc::clone(conn),
            seq,
            request,
            enqueued: Instant::now(),
            ctx,
        });
        if inner.1 {
            false
        } else {
            inner.1 = true;
            true
        }
    };
    if needs_token {
        shared.tokens.push(key);
    }
}

/// Worker: claim a session token, process its mailbox to exhaustion in
/// FIFO order, batching up to `batch_max` jobs per session-lock
/// acquisition.
fn worker_loop(shared: &Shared) {
    while let Some(key) = shared.tokens.pop() {
        let mb = mailbox(shared, &key);
        loop {
            let batch: Vec<Job> = {
                let mut inner = mb
                    .inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if inner.0.is_empty() {
                    inner.1 = false;
                    break;
                }
                let n = inner.0.len().min(shared.cfg.batch_max.max(1));
                inner.0.drain(..n).collect()
            };
            if batch.len() > 1 {
                shared.batches.fetch_add(1, Ordering::Relaxed);
                obs::counter!("serve.batch.requests").add(batch.len() as u64);
                obs::histogram!("serve.batch.size").observe(batch.len() as u64);
            }
            shared.store.with_session(&key, |session| {
                for job in batch {
                    process_job(shared, session, job);
                }
            });
        }
    }
}

/// Runs one job against its (already locked) session and sends exactly one
/// response.
fn process_job(shared: &Shared, session: &mut SessionHandle<'_>, job: Job) {
    let Job {
        conn,
        seq,
        request,
        enqueued,
        ctx,
    } = job;
    let queued_for = enqueued.elapsed();
    // Re-enter the trace context minted by the reader: every span and event
    // below (session absorb, phase.solve, lp.simplex, ...) now carries this
    // request's trace_id/session/seq.
    let _scope = obs::trace_scope(ctx);
    obs::histogram!("serve.queue_wait_ns")
        .observe(u64::try_from(queued_for.as_nanos()).unwrap_or(u64::MAX));

    let (line, ok) = if request
        .deadline_ms
        .is_some_and(|d| queued_for.as_millis() as u64 > d)
    {
        shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
        obs::counter!("serve.deadline_expired").incr();
        (error_response(&request.id, "deadline exceeded"), false)
    } else {
        // The request's root span: depth 0 on this worker thread, so the
        // nested session/solver spans hang off it in the reconstruction.
        let _req = obs::span("serve.request");
        let typ = request.body.type_name();
        let outcome = catch_unwind(AssertUnwindSafe(|| handle(session, &request, &conn)));
        match outcome {
            Ok(Ok(fields)) => (ok_response(&request.id, typ, fields), true),
            Ok(Err(msg)) => (error_response(&request.id, &msg), false),
            Err(_) => {
                obs::counter!("serve.handler_panics").incr();
                (error_response(&request.id, "internal error"), false)
            }
        }
    };

    let total_ns = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
    obs::histogram!("serve.request_ns").observe(total_ns);
    {
        let mut stats = shared
            .session_stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let s = stats.entry(request.session.clone()).or_default();
        s.requests += 1;
        s.errors += u64::from(!ok);
        s.total_ns = s.total_ns.saturating_add(total_ns);
    }
    conn.send(seq, line, shared);
    shared.pending.fetch_sub(1, Ordering::SeqCst);
}

/// The session-targeted request handlers. `conn` is only used by `explore`
/// to emit incremental progress frames.
fn handle(
    session: &mut SessionHandle<'_>,
    request: &Request,
    conn: &Conn,
) -> Result<Vec<(String, Json)>, String> {
    match &request.body {
        RequestBody::AbsorbTrace { trace } => {
            let stats = session.absorb_trace(trace);
            Ok(vec![
                ("events".to_string(), Json::from(stats.events)),
                ("windows".to_string(), Json::from(stats.windows_extracted)),
                ("racy_windows".to_string(), Json::from(stats.racy_windows)),
                ("confirmations".to_string(), Json::from(stats.confirmations)),
                ("exclusions".to_string(), Json::from(stats.exclusions)),
                (
                    "traces_absorbed".to_string(),
                    Json::from(session.traces_absorbed()),
                ),
            ])
        }
        RequestBody::Solve => {
            let traces_absorbed = session.traces_absorbed();
            let report = session.solve().map_err(|e| format!("solver failed: {e}"))?;
            let sites = |ops: Vec<String>| Json::Arr(ops.into_iter().map(Json::Str).collect());
            Ok(vec![
                (
                    "releases".to_string(),
                    sites(
                        report
                            .releases()
                            .map(|op| op.resolve().to_string())
                            .collect(),
                    ),
                ),
                (
                    "acquires".to_string(),
                    sites(
                        report
                            .acquires()
                            .map(|op| op.resolve().to_string())
                            .collect(),
                    ),
                ),
                ("spec".to_string(), Json::from(report.render())),
                ("num_windows".to_string(), Json::from(report.num_windows)),
                (
                    "num_variables".to_string(),
                    Json::from(report.num_variables),
                ),
                ("racy_pairs".to_string(), Json::from(report.racy_pairs)),
                ("objective".to_string(), Json::Num(report.objective)),
                ("traces_absorbed".to_string(), Json::from(traces_absorbed)),
            ])
        }
        RequestBody::RaceCheck { trace, app } => {
            if session.traces_absorbed() == 0 {
                return Err("session has no observations; absorb traces first".into());
            }
            // Memoized: only re-solves when observations changed.
            let report = session.solve().map_err(|e| format!("solver failed: {e}"))?;
            let inferred = SyncSpec::from_report(report);
            let races = detect(trace, &inferred);
            let mut fields = vec![
                ("races".to_string(), Json::from(races.len())),
                (
                    "locations".to_string(),
                    Json::Arr(
                        races
                            .iter()
                            .map(|r| Json::from(r.location.clone()))
                            .collect(),
                    ),
                ),
            ];
            if let Some(app_id) = app {
                let app =
                    app_by_id(app_id).ok_or_else(|| format!("unknown application {app_id:?}"))?;
                let ground = app.truth.full_spec();
                let diff = differential(&[trace], &ground, &inferred, &app.truth.race_locations);
                fields.push(("app".to_string(), Json::from(app.id)));
                fields.push((
                    "disagreements".to_string(),
                    Json::from(diff.disagreements.len()),
                ));
                fields.push(("agrees".to_string(), Json::Bool(diff.agrees())));
                fields.push((
                    "ground_reports".to_string(),
                    Json::from(diff.ground_reports),
                ));
                fields.push((
                    "inferred_reports".to_string(),
                    Json::from(diff.inferred_reports),
                ));
            }
            Ok(fields)
        }
        RequestBody::Explore {
            app,
            test,
            max_schedules,
            seed,
            jobs,
            batch,
            filter_bits,
            progress,
            absorb,
        } => {
            let app = app_by_id(app).ok_or_else(|| format!("unknown application {app:?}"))?;
            let workload: std::sync::Arc<dyn Fn() + Send + Sync> = match test {
                Some(name) => app
                    .tests
                    .iter()
                    .find(|t| t.name() == name)
                    .ok_or_else(|| format!("unknown test {name:?} in {}", app.id))?
                    .body(),
                None => {
                    // One schedule = the whole suite sequentially, so a
                    // single campaign covers every test's interleavings.
                    let bodies: Vec<_> = app.tests.iter().map(|t| t.body()).collect();
                    std::sync::Arc::new(move || {
                        for body in &bodies {
                            body();
                        }
                    })
                }
            };
            let ccfg = CampaignConfig {
                max_schedules: *max_schedules,
                base_seed: *seed,
                jobs: (*jobs).max(1),
                batch: *batch,
                filter_bits: *filter_bits,
                // Absorbing needs the distinct traces themselves; otherwise
                // a few exemplars suffice.
                report_cap: if *absorb { 4096 } else { 16 },
                ..CampaignConfig::default()
            };
            let id = request.id.clone();
            let on_batch = |p: &CampaignProgress| {
                if !*progress {
                    return;
                }
                let arms: Vec<Json> = p
                    .arms
                    .iter()
                    .map(|(label, runs, fresh, weight)| {
                        Json::Obj(vec![
                            ("label".to_string(), Json::from(label.as_str())),
                            ("runs".to_string(), Json::from(*runs)),
                            ("fresh".to_string(), Json::from(*fresh)),
                            ("weight".to_string(), Json::from(*weight)),
                        ])
                    })
                    .collect();
                conn.emit(&progress_frame(
                    &id,
                    "explore",
                    vec![
                        ("runs".to_string(), Json::from(p.runs)),
                        ("max_schedules".to_string(), Json::from(p.max_schedules)),
                        ("distinct".to_string(), Json::from(p.distinct)),
                        ("dedup_hits".to_string(), Json::from(p.dedup_hits)),
                        (
                            "sched_per_sec".to_string(),
                            Json::Num(p.sched_per_sec.round()),
                        ),
                        ("occupancy".to_string(), Json::Num(p.occupancy)),
                        ("arms".to_string(), Json::Arr(arms)),
                    ],
                ));
            };
            let result = Campaign::new(ccfg).run_with_progress(workload, on_batch);

            let mut absorbed = 0u64;
            if *absorb {
                session.absorb_traces(result.reports.iter().map(|r| &r.trace));
                absorbed = result.reports.len() as u64;
            }
            let arms: Vec<Json> = result
                .arms
                .iter()
                .map(|a| {
                    Json::Obj(vec![
                        ("label".to_string(), Json::from(a.label.as_str())),
                        ("runs".to_string(), Json::from(a.runs)),
                        ("fresh".to_string(), Json::from(a.fresh)),
                    ])
                })
                .collect();
            Ok(vec![
                ("app".to_string(), Json::from(app.id)),
                ("runs".to_string(), Json::from(result.runs)),
                ("distinct".to_string(), Json::from(result.distinct)),
                ("dedup_hits".to_string(), Json::from(result.dedup_hits)),
                ("deadlocks".to_string(), Json::from(result.deadlocks)),
                ("panics".to_string(), Json::from(result.panics)),
                (
                    "distinct_digest".to_string(),
                    Json::Str(format!("{:016x}", result.distinct_digest)),
                ),
                (
                    "sched_per_sec".to_string(),
                    Json::Num(result.sched_per_sec.round()),
                ),
                (
                    "elapsed_ms".to_string(),
                    Json::from(result.elapsed.as_millis() as u64),
                ),
                (
                    "filter_bytes".to_string(),
                    Json::from(result.filter_bytes as u64),
                ),
                (
                    "filter_occupancy".to_string(),
                    Json::Num(result.filter_occupancy),
                ),
                ("est_fp_rate".to_string(), Json::Num(result.est_fp_rate)),
                ("absorbed".to_string(), Json::from(absorbed)),
                (
                    "traces_absorbed".to_string(),
                    Json::from(session.traces_absorbed()),
                ),
                ("arms".to_string(), Json::Arr(arms)),
            ])
        }
        RequestBody::Ping { delay_ms } => {
            if *delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(*delay_ms));
            }
            Ok(vec![])
        }
        // Handled inline by the reader.
        RequestBody::Stats | RequestBody::Metrics | RequestBody::Shutdown => {
            unreachable!("inline request in worker")
        }
    }
}

/// Builds the `stats` response from store internals and the `serve.*` /
/// `session.*` slices of the process-wide metric registry.
fn stats_response(shared: &Shared, id: &Json) -> String {
    let snap = obs::snapshot();
    let counters: Vec<(String, Json)> = snap
        .counters
        .iter()
        .filter(|(k, _)| {
            k.starts_with("serve.") || k.starts_with("session.") || k.starts_with("store.")
        })
        .map(|(k, &v)| (k.clone(), Json::from(v)))
        .collect();
    let latency = snap.histograms.get("serve.request_ns");
    let quant = |q: f64| latency.map_or(0, |h| h.quantile(q));
    let uptime_ms = u64::try_from(shared.start.elapsed().as_millis()).unwrap_or(u64::MAX);
    ok_response(
        id,
        "stats",
        vec![
            ("uptime_ms".to_string(), Json::from(uptime_ms)),
            ("sessions".to_string(), Json::from(shared.store.len())),
            (
                "session_keys".to_string(),
                Json::Arr(shared.store.keys().into_iter().map(Json::from).collect()),
            ),
            (
                "evictions".to_string(),
                Json::from(shared.store.evictions()),
            ),
            (
                "rehydrations".to_string(),
                Json::from(shared.store.rehydrations()),
            ),
            (
                "pending".to_string(),
                Json::from(shared.pending.load(Ordering::SeqCst) as u64),
            ),
            (
                "queue_capacity".to_string(),
                Json::from(shared.cfg.queue_capacity),
            ),
            (
                "latency_ns".to_string(),
                Json::Obj(vec![
                    ("p50".to_string(), Json::from(quant(0.50))),
                    ("p95".to_string(), Json::from(quant(0.95))),
                    ("p99".to_string(), Json::from(quant(0.99))),
                    (
                        "count".to_string(),
                        Json::from(latency.map_or(0, |h| h.count)),
                    ),
                ]),
            ),
            ("counters".to_string(), Json::Obj(counters)),
        ],
    )
}

/// Builds the `metrics` response: the full live metric registry (every
/// counter, span aggregate, and histogram quantile summary — including the
/// solver flight-recorder series `lp.pivots` / `session.solve_memo.*`),
/// plus worker-pool state (queue depths per mailbox, pending, busy
/// rejections) and per-session request tallies. Handled inline by the
/// reader so it stays live under a saturated worker pool.
fn metrics_response(shared: &Shared, id: &Json) -> String {
    let snap = obs::snapshot();
    let counters: Json = snap
        .counters
        .iter()
        .map(|(k, &v)| (k.clone(), Json::from(v)))
        .collect();
    let spans: Json = snap
        .spans
        .iter()
        .map(|(k, s)| {
            let obj: Json = vec![
                ("count", Json::from(s.count)),
                ("total_ns", Json::from(s.total_ns)),
                ("max_ns", Json::from(s.max_ns)),
            ]
            .into_iter()
            .collect();
            (k.clone(), obj)
        })
        .collect();
    let histograms: Json = snap
        .histograms
        .iter()
        .map(|(k, h)| (k.clone(), h.summary_json()))
        .collect();
    let queue_depths: Json = {
        let map = shared
            .mailboxes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.iter()
            .map(|(k, mb)| {
                let depth = mb
                    .inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0
                    .len();
                (k.clone(), Json::from(depth as u64))
            })
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .collect()
    };
    let per_session: Json = {
        let stats = shared
            .session_stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        stats
            .iter()
            .map(|(k, s)| {
                let obj: Json = vec![
                    ("requests", Json::from(s.requests)),
                    ("errors", Json::from(s.errors)),
                    ("total_ns", Json::from(s.total_ns)),
                ]
                .into_iter()
                .collect();
                (k.clone(), obj)
            })
            .collect()
    };
    let uptime_ms = u64::try_from(shared.start.elapsed().as_millis()).unwrap_or(u64::MAX);
    ok_response(
        id,
        "metrics",
        vec![
            ("uptime_ms".to_string(), Json::from(uptime_ms)),
            (
                "workers".to_string(),
                Json::from(shared.workers.load(Ordering::Relaxed) as u64),
            ),
            (
                "pending".to_string(),
                Json::from(shared.pending.load(Ordering::SeqCst) as u64),
            ),
            (
                "queue_capacity".to_string(),
                Json::from(shared.cfg.queue_capacity),
            ),
            (
                "busy_rejections".to_string(),
                Json::from(shared.busy_rejections.load(Ordering::Relaxed)),
            ),
            ("sessions".to_string(), Json::from(shared.store.len())),
            (
                "evictions".to_string(),
                Json::from(shared.store.evictions()),
            ),
            (
                "rehydrations".to_string(),
                Json::from(shared.store.rehydrations()),
            ),
            ("queue_depths".to_string(), queue_depths),
            ("per_session".to_string(), per_session),
            ("counters".to_string(), counters),
            ("spans".to_string(), spans),
            ("histograms".to_string(), histograms),
        ],
    )
}
