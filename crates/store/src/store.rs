//! The sharded, durable session store.
//!
//! # Sharding
//!
//! Keys hash (FNV-1a) onto `W` independent shards, each with its own map
//! lock and its own on-disk directory. Requests for sessions on different
//! shards never touch the same map lock, so cross-session contention is
//! bounded by the shard count rather than a single global mutex; requests
//! for the *same* session still serialize on exactly one per-session lock.
//!
//! # Durability
//!
//! With a data directory configured, every absorbed trace is appended to
//! the session's oplog *before* it is applied (write-ahead), stamped with a
//! monotonically increasing per-session operation id. After
//! `snapshot_every` logged operations the whole session state is serialized
//! to `snapshot.json` (atomic tmp-write + rename) and the log truncated.
//!
//! **Crash consistency**: the only non-atomic window is between the
//! snapshot rename and the log truncate. A crash there leaves records with
//! `op ≤ snapshot.last_op` in the log; replay skips them by op-id dedup, so
//! applying "snapshot + every log record with a greater op id" is correct
//! in every interleaving. A torn final append is discarded by CRC recovery
//! (see [`crate::framing`]). Replay is deterministic — sessions absorb
//! traces in log order and the solver orders everything by resolved
//! operation names — so a rehydrated session re-solves byte-identical to
//! the process that wrote the log.
//!
//! # Eviction
//!
//! Evicting a durable session is a *spill*: a snapshot captures its state,
//! the log is truncated, and the next request under the key transparently
//! rebuilds it. Only without a data directory does eviction lose state
//! (the pre-durability LRU behavior).
//!
//! # Concurrency protocol
//!
//! Exactly one `Entry` per key ever exists, and the key's on-disk files
//! are only touched under that entry's session lock:
//!
//! * A miss *reserves* the key by inserting a `Slot::Vacant` entry under
//!   the shard's map lock (allocation only, no I/O). The first
//!   `with_session` holder then opens — possibly rehydrates — the state
//!   under the session lock. Losing a create race therefore costs an
//!   allocation, never a second oplog handle on the same file.
//! * Eviction re-checks the victim under its shard's map lock and skips it
//!   if any worker still holds a reference (`Arc::strong_count > 1`): a
//!   live handle keeps appending to the entry it already owns, and that
//!   entry stays authoritative in the map. The spill snapshot runs *before*
//!   the `remove`, while the map lock excludes new lookups for the key, so
//!   a rehydrator can never observe the half-spilled window (new snapshot
//!   renamed, log not yet truncated) — by the time the key misses, the
//!   spill is complete and the oplog handle is closed.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use sherlock_core::{InferenceReport, RoundStats, Session, SherLockConfig};
use sherlock_obs as obs;
use sherlock_obs::json::Json;
use sherlock_trace::{json as trace_json, Trace};

use crate::keys::escape_key;
use crate::oplog::Oplog;

/// Store-wide tunables.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Live-session bound across all shards (0 = unbounded).
    pub max_sessions: usize,
    /// Independent shards (clamped to ≥ 1).
    pub shards: usize,
    /// Root directory for oplogs and snapshots; `None` keeps every session
    /// in memory only.
    pub data_dir: Option<PathBuf>,
    /// Logged operations between snapshots (0 = snapshot only on
    /// spill/persist).
    pub snapshot_every: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            max_sessions: 64,
            shards: 8,
            data_dir: None,
            snapshot_every: 256,
        }
    }
}

/// Durable bookkeeping for one live session.
struct Durable {
    dir: PathBuf,
    log: Oplog,
    /// Id the next logged operation receives.
    next_op: u64,
    /// Highest op id captured by the on-disk snapshot.
    last_snapshot_op: u64,
    /// Logged (not yet snapshotted) operations.
    ops_since_snapshot: u64,
    snapshot_every: u64,
}

/// One live session plus its optional durability state, behind the
/// per-session lock.
struct SessionState {
    session: Session,
    durable: Option<Durable>,
}

/// What the per-session lock guards: a reserved-but-unopened key, or the
/// live state.
enum Slot {
    /// The key is claimed in the shard map but no on-disk files have been
    /// touched; the first `with_session` holder opens the state.
    Vacant,
    Ready(Box<SessionState>),
}

struct Entry {
    state: Mutex<Slot>,
    touched: AtomicU64,
}

struct Shard {
    map: Mutex<HashMap<String, Arc<Entry>>>,
    dir: Option<PathBuf>,
}

/// Exclusive view of one session inside
/// [`SessionStore::with_session`]. Mutations that change durable state
/// (absorbing traces) go through the handle so they hit the oplog first;
/// everything read-only is reachable through `Deref<Target = Session>`.
pub struct SessionHandle<'a> {
    state: &'a mut SessionState,
}

impl std::ops::Deref for SessionHandle<'_> {
    type Target = Session;

    fn deref(&self) -> &Session {
        &self.state.session
    }
}

impl SessionHandle<'_> {
    /// Write-ahead logs (when durable) and absorbs one trace.
    pub fn absorb_trace(&mut self, trace: &Trace) -> RoundStats {
        self.log_traces(std::slice::from_ref(trace));
        let stats = self.state.session.absorb_trace(trace);
        self.maybe_snapshot();
        stats
    }

    /// Write-ahead logs (when durable) and absorbs a batch of traces.
    pub fn absorb_traces<'t>(&mut self, traces: impl IntoIterator<Item = &'t Trace>) -> RoundStats {
        let traces: Vec<&Trace> = traces.into_iter().collect();
        self.log_traces(traces.iter().copied());
        let stats = self.state.session.absorb_traces(traces);
        self.maybe_snapshot();
        stats
    }

    /// Solves over the session's accumulated observations (memoized; see
    /// [`Session::solve`]).
    ///
    /// # Errors
    ///
    /// Propagates [`sherlock_lp::LpError`] from the Solver.
    pub fn solve(&mut self) -> Result<&InferenceReport, sherlock_lp::LpError> {
        self.state.session.solve()
    }

    fn log_traces<'t>(&mut self, traces: impl IntoIterator<Item = &'t Trace>) {
        let Some(d) = self.state.durable.as_mut() else {
            return;
        };
        for trace in traces {
            let payload = Json::Obj(vec![
                ("op".to_string(), Json::from(d.next_op)),
                ("trace".to_string(), trace_json::to_value(trace)),
            ])
            .render();
            match d.log.append(payload.as_bytes()) {
                Ok(n) => {
                    obs::counter!("store.oplog_bytes").add(n);
                    obs::counter!("store.oplog_records").incr();
                    d.next_op += 1;
                    d.ops_since_snapshot += 1;
                }
                Err(_) => {
                    // Degrade to in-memory for this record: the session
                    // stays correct for the life of the process, the next
                    // rehydration just misses this trace.
                    obs::counter!("store.oplog_errors").incr();
                }
            }
        }
    }

    fn maybe_snapshot(&mut self) {
        let due = self
            .state
            .durable
            .as_ref()
            .is_some_and(|d| d.snapshot_every > 0 && d.ops_since_snapshot >= d.snapshot_every);
        if due {
            snapshot_locked(self.state);
        }
    }
}

/// Serializes the session to `snapshot.json` and truncates the oplog. Must
/// run under the per-session lock (it is the session lock that makes the
/// snapshot + truncate pair atomic with respect to concurrent absorbs).
fn snapshot_locked(state: &mut SessionState) {
    let Some(d) = state.durable.as_mut() else {
        return;
    };
    if d.ops_since_snapshot == 0 {
        return; // nothing new since the last snapshot
    }
    let last_op = d.next_op - 1;
    let doc = Json::Obj(vec![
        ("format".to_string(), Json::from(1u64)),
        ("last_op".to_string(), Json::from(last_op)),
        ("session".to_string(), state.session.to_snapshot_value()),
    ]);
    let result: io::Result<()> = (|| {
        let tmp = d.dir.join("snapshot.json.tmp");
        std::fs::write(&tmp, doc.render())?;
        std::fs::rename(&tmp, d.dir.join("snapshot.json"))?;
        // Crash window: snapshot renamed, log not yet truncated. Replay
        // dedups on `op ≤ last_op`, so the stale records are harmless.
        d.log.truncate()
    })();
    match result {
        Ok(()) => {
            d.last_snapshot_op = last_op;
            d.ops_since_snapshot = 0;
            obs::counter!("store.snapshots").incr();
        }
        Err(_) => obs::counter!("store.snapshot_errors").incr(),
    }
}

/// Bounded, sharded map of session key → incremental inference session,
/// with optional oplog + snapshot durability per session.
pub struct SessionStore {
    config: SherLockConfig,
    max_sessions: usize,
    snapshot_every: u64,
    shards: Vec<Shard>,
    clock: AtomicU64,
    evictions: AtomicU64,
    rehydrations: AtomicU64,
}

impl SessionStore {
    /// Creates a store. With `options.data_dir` set, shard directories are
    /// created eagerly so configuration errors surface at startup, not on
    /// the first request.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the data directory tree.
    pub fn open(config: SherLockConfig, options: StoreOptions) -> io::Result<Self> {
        let nshards = options.shards.max(1);
        let mut shards = Vec::with_capacity(nshards);
        for i in 0..nshards {
            let dir = match &options.data_dir {
                Some(root) => {
                    let dir = root.join(format!("shard-{i:02}"));
                    std::fs::create_dir_all(&dir)?;
                    Some(dir)
                }
                None => None,
            };
            shards.push(Shard {
                map: Mutex::new(HashMap::new()),
                dir,
            });
        }
        // Register the flight-recorder series up front: the `metrics` verb
        // reports every interned series, so `store.*` is visible (at zero)
        // from the first request even before any durability event fires.
        for name in [
            "store.oplog_bytes",
            "store.oplog_records",
            "store.snapshots",
            "store.rehydrations",
            "store.replayed_records",
            "store.oplog_errors",
            "store.snapshot_errors",
            "store.sessions.created",
            "store.sessions.evicted",
        ] {
            obs::counter(name);
        }
        obs::histogram("store.replay_ms");
        Ok(SessionStore {
            config,
            max_sessions: options.max_sessions,
            snapshot_every: options.snapshot_every,
            shards,
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
        })
    }

    /// An in-memory store (no durability) — the pre-durability constructor
    /// shape, used by tests and embedders without a data directory.
    pub fn in_memory(config: SherLockConfig, max_sessions: usize) -> Self {
        SessionStore::open(
            config,
            StoreOptions {
                max_sessions,
                data_dir: None,
                ..StoreOptions::default()
            },
        )
        .expect("in-memory store cannot fail")
    }

    /// Live sessions across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_map(s).len()).sum()
    }

    /// Whether the store holds no live sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sessions evicted (spilled) over the store's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Sessions rebuilt from disk over the store's lifetime.
    pub fn rehydrations(&self) -> u64 {
        self.rehydrations.load(Ordering::Relaxed)
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Sorted keys of the live sessions. Each shard's keys are collected
    /// under that shard's lock only; the merge and sort happen after every
    /// lock is released.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = Vec::new();
        for shard in &self.shards {
            let collected: Vec<String> = lock_map(shard).keys().cloned().collect();
            keys.extend(collected);
        }
        keys.sort();
        keys
    }

    fn shard_of(&self, key: &str) -> &Shard {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    fn touch(&self, entry: &Entry) {
        entry.touched.store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Opens (possibly rehydrating) the state for `key`. Runs *without* any
    /// map lock held: rehydration replays arbitrarily many traces.
    fn open_state(&self, shard: &Shard, key: &str) -> SessionState {
        let Some(shard_dir) = &shard.dir else {
            return SessionState {
                session: Session::new(self.config.clone()),
                durable: None,
            };
        };
        let dir = shard_dir.join(escape_key(key));
        match self.load_durable(&dir) {
            Ok(state) => state,
            Err(_) => {
                // Filesystem trouble: keep serving from memory.
                obs::counter!("store.oplog_errors").incr();
                SessionState {
                    session: Session::new(self.config.clone()),
                    durable: None,
                }
            }
        }
    }

    fn load_durable(&self, dir: &Path) -> io::Result<SessionState> {
        std::fs::create_dir_all(dir)?;
        let started = Instant::now();

        let mut last_snapshot_op = 0u64;
        let mut next_op = 1u64;
        let mut session = None;
        let snap_path = dir.join("snapshot.json");
        let mut had_state = false;
        let snapshot_text = match std::fs::read_to_string(&snap_path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            // Any other error (permissions, transient EIO) means a snapshot
            // may exist that we failed to read. Propagate so the session
            // degrades to memory-only: rehydrating from the log alone while
            // staying durable would let the next snapshot overwrite the
            // good snapshot.json with the reduced state.
            Err(e) => return Err(e),
        };
        if let Some(text) = snapshot_text {
            match parse_snapshot(&self.config, &text) {
                Ok((s, last_op)) => {
                    session = Some(s);
                    last_snapshot_op = last_op;
                    next_op = last_op + 1;
                    had_state = true;
                }
                Err(_) => {
                    // A corrupt snapshot cannot be partially trusted; fall
                    // back to replaying whatever the log still holds.
                    obs::counter!("store.snapshot_errors").incr();
                }
            }
        }
        let mut session = session.unwrap_or_else(|| Session::new(self.config.clone()));

        let (log, recovered) = Oplog::open(&dir.join("oplog.bin"))?;
        let mut replayed = 0u64;
        for payload in &recovered.payloads {
            let Ok((op, trace)) = parse_record(payload) else {
                obs::counter!("store.oplog_errors").incr();
                continue;
            };
            next_op = next_op.max(op + 1);
            if op <= last_snapshot_op {
                continue; // captured by the snapshot (crash before truncate)
            }
            session.absorb_trace(&trace);
            replayed += 1;
            had_state = true;
        }

        if had_state {
            self.rehydrations.fetch_add(1, Ordering::Relaxed);
            obs::counter!("store.rehydrations").incr();
            obs::counter!("store.replayed_records").add(replayed);
            obs::histogram!("store.replay_ms")
                .observe(u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX));
        }

        Ok(SessionState {
            session,
            durable: Some(Durable {
                dir: dir.to_path_buf(),
                log,
                next_op,
                last_snapshot_op,
                ops_since_snapshot: 0,
                snapshot_every: self.snapshot_every,
            }),
        })
    }

    fn get_or_create(&self, key: &str) -> Arc<Entry> {
        let shard = self.shard_of(key);
        if let Some(entry) = lock_map(shard).get(key) {
            self.touch(entry);
            return Arc::clone(entry);
        }
        if self.max_sessions > 0 && self.len() >= self.max_sessions {
            self.evict_lru();
        }
        let mut map = lock_map(shard);
        if let Some(entry) = map.get(key) {
            // Lost a create race; the winner's entry is authoritative. No
            // on-disk files were touched, so losing is free.
            self.touch(entry);
            return Arc::clone(entry);
        }
        // Reserve the key with a vacant slot (allocation only — the map
        // lock is never held across I/O). The first `with_session` holder
        // opens the on-disk state under the entry's session lock, so only
        // one thread ever opens a given session's oplog.
        obs::counter!("store.sessions.created").incr();
        let entry = Arc::new(Entry {
            state: Mutex::new(Slot::Vacant),
            touched: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        });
        map.insert(key.to_string(), Arc::clone(&entry));
        entry
    }

    /// Evicts the globally least-recently-touched idle session. Shard locks
    /// are taken one at a time (never nested), so eviction cannot deadlock
    /// with concurrent lookups.
    fn evict_lru(&self) {
        let mut oldest: Option<(usize, String, u64)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let map = lock_map(shard);
            for (k, e) in map.iter() {
                let stamp = e.touched.load(Ordering::Relaxed);
                if oldest.as_ref().is_none_or(|(_, _, s)| stamp < *s) {
                    oldest = Some((i, k.clone(), stamp));
                }
            }
        }
        let Some((i, key, _)) = oldest else { return };
        let mut map = lock_map(&self.shards[i]);
        let Some(entry) = map.get(&key) else { return };
        // A strong count above 1 means some worker holds (or is acquiring)
        // a handle to this session. Removing it now would let a later miss
        // rehydrate from files the live handle still appends to — two
        // oplog handles on one file. Skip this round; the store runs over
        // budget by at most the number of in-flight requests.
        if Arc::strong_count(entry) > 1 {
            return;
        }
        // Spill snapshot *before* the remove, while the map lock excludes
        // lookups for this key: a rehydrator can only start once the key
        // misses, by which point snapshot + truncate are both done — it can
        // never observe the new snapshot with the untruncated log, whose
        // replay it would otherwise lose on its next snapshot. The strong
        // count of 1 guarantees the session lock is free, so `try_lock`
        // cannot fail; it is used to stay deadlock-proof regardless.
        if let Ok(mut slot) = entry.state.try_lock() {
            if let Slot::Ready(state) = &mut *slot {
                snapshot_locked(state);
            }
        }
        map.remove(&key); // drops the only Arc: the oplog handle closes here
        drop(map);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        obs::counter!("store.sessions.evicted").incr();
    }

    /// Runs `f` with exclusive access to the session stored under `key`,
    /// creating — or rehydrating from disk — if absent. No map lock is held
    /// while `f` runs, only the per-session lock, so long solves on one
    /// session never block other sessions.
    pub fn with_session<R>(&self, key: &str, f: impl FnOnce(&mut SessionHandle<'_>) -> R) -> R {
        let entry = self.get_or_create(key);
        let mut slot = entry
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if matches!(*slot, Slot::Vacant) {
            // First holder of a reserved key: open (possibly rehydrate) the
            // state. Runs under the session lock but *not* the map lock, so
            // long replays never stall the shard.
            *slot = Slot::Ready(Box::new(self.open_state(self.shard_of(key), key)));
        }
        let Slot::Ready(state) = &mut *slot else {
            unreachable!("slot initialized above")
        };
        let mut handle = SessionHandle { state };
        f(&mut handle)
    }

    /// Snapshots every live durable session (graceful-shutdown path), so a
    /// clean restart rehydrates from snapshots alone.
    pub fn persist_all(&self) {
        for shard in &self.shards {
            let entries: Vec<Arc<Entry>> = lock_map(shard).values().cloned().collect();
            for entry in entries {
                let mut slot = entry
                    .state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if let Slot::Ready(state) = &mut *slot {
                    snapshot_locked(state);
                }
            }
        }
    }
}

fn lock_map(shard: &Shard) -> MutexGuard<'_, HashMap<String, Arc<Entry>>> {
    // A panic while holding a map lock (never expected: the critical
    // sections are allocation-only) must not wedge the daemon.
    shard
        .map
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn parse_snapshot(config: &SherLockConfig, text: &str) -> Result<(Session, u64), String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("format").and_then(Json::as_u64) {
        Some(1) => {}
        other => return Err(format!("snapshot: unsupported format {other:?}")),
    }
    let last_op = doc
        .get("last_op")
        .and_then(Json::as_u64)
        .ok_or("snapshot: missing last_op")?;
    let session = Session::from_snapshot_value(
        config.clone(),
        doc.get("session").ok_or("snapshot: missing session")?,
    )?;
    Ok((session, last_op))
}

fn parse_record(payload: &[u8]) -> Result<(u64, Trace), String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let op = doc
        .get("op")
        .and_then(Json::as_u64)
        .ok_or("record: missing op id")?;
    let trace = trace_json::from_value(doc.get("trace").ok_or("record: missing trace")?)?;
    Ok((op, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherlock_sim::SimConfig;

    fn sample_trace(seed: u64) -> Trace {
        let app = &sherlock_apps::all_apps()[0];
        let mut sim_cfg = SimConfig::with_seed(seed);
        sim_cfg.instrument = SherLockConfig::default().instrument.clone();
        app.tests[0].run(sim_cfg).trace
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sherlock-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sessions_are_created_on_demand_and_reused() {
        let store = SessionStore::in_memory(SherLockConfig::default(), 8);
        assert!(store.is_empty());
        let n = store.with_session("a", |s| {
            assert_eq!(s.traces_absorbed(), 0);
            41
        });
        assert_eq!(n, 41);
        assert_eq!(store.len(), 1);
        store.with_session("a", |_| ());
        assert_eq!(store.len(), 1, "same key reuses the entry");
        store.with_session("b", |_| ());
        assert_eq!(store.keys(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted_across_shards() {
        let store = SessionStore::in_memory(SherLockConfig::default(), 2);
        assert!(store.shard_count() > 1, "default options shard the map");
        store.with_session("a", |_| ());
        store.with_session("b", |_| ());
        store.with_session("a", |_| ()); // refresh a; b is now oldest
        store.with_session("c", |_| ());
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.keys(), vec!["a".to_string(), "c".to_string()]);
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let store = SessionStore::in_memory(SherLockConfig::default(), 0);
        for i in 0..32 {
            store.with_session(&format!("k{i}"), |_| ());
        }
        assert_eq!(store.len(), 32);
        assert_eq!(store.evictions(), 0);
    }

    #[test]
    fn absorbed_traces_survive_a_store_restart() {
        let dir = tmp_dir("restart");
        let options = StoreOptions {
            data_dir: Some(dir.clone()),
            ..StoreOptions::default()
        };
        let traces: Vec<Trace> = (0..3).map(sample_trace).collect();

        let first = SessionStore::open(SherLockConfig::default(), options.clone()).unwrap();
        let live = first.with_session("app", |s| {
            for t in &traces {
                s.absorb_trace(t);
            }
            s.solve().unwrap().render()
        });
        drop(first); // simulate a crash: no persist_all, oplog only

        let second = SessionStore::open(SherLockConfig::default(), options).unwrap();
        let rebuilt = second.with_session("app", |s| {
            assert_eq!(s.traces_absorbed(), traces.len());
            s.solve().unwrap().render()
        });
        assert_eq!(live, rebuilt, "rehydrated session re-solves identically");
        assert_eq!(second.rehydrations(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_spills_and_rehydrates_instead_of_losing_state() {
        let dir = tmp_dir("spill");
        let options = StoreOptions {
            max_sessions: 1,
            data_dir: Some(dir.clone()),
            ..StoreOptions::default()
        };
        let store = SessionStore::open(SherLockConfig::default(), options).unwrap();
        let trace = sample_trace(11);
        store.with_session("victim", |s| {
            s.absorb_trace(&trace);
        });
        store.with_session("usurper", |_| ()); // evicts (spills) "victim"
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.keys(), vec!["usurper".to_string()]);
        store.with_session("victim", |s| {
            assert_eq!(s.traces_absorbed(), 1, "state came back from disk");
        });
        assert!(store.rehydrations() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_cadence_truncates_the_oplog() {
        let dir = tmp_dir("cadence");
        let options = StoreOptions {
            data_dir: Some(dir.clone()),
            snapshot_every: 2,
            ..StoreOptions::default()
        };
        let store = SessionStore::open(SherLockConfig::default(), options.clone()).unwrap();
        store.with_session("app", |s| {
            s.absorb_trace(&sample_trace(1));
            s.absorb_trace(&sample_trace(2)); // triggers the snapshot
            s.absorb_trace(&sample_trace(3)); // logged after the truncate
        });
        let session_dir = dir.join("shard-00").join("app");
        // The key "app" may land on any shard; find it.
        let session_dir = if session_dir.exists() {
            session_dir
        } else {
            (0..store.shard_count())
                .map(|i| dir.join(format!("shard-{i:02}")).join("app"))
                .find(|p| p.exists())
                .expect("session directory exists")
        };
        assert!(session_dir.join("snapshot.json").exists());
        let log_len = std::fs::metadata(session_dir.join("oplog.bin"))
            .unwrap()
            .len();
        let (_, recovered) = Oplog::open(&session_dir.join("oplog.bin")).unwrap();
        assert!(
            log_len > 0 && recovered.payloads.len() == 1,
            "one post-snapshot record"
        );

        drop(store);
        let store = SessionStore::open(SherLockConfig::default(), options).unwrap();
        store.with_session("app", |s| {
            assert_eq!(s.traces_absorbed(), 3, "snapshot + replayed tail");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_all_snapshots_every_session() {
        let dir = tmp_dir("persist");
        let options = StoreOptions {
            data_dir: Some(dir.clone()),
            ..StoreOptions::default()
        };
        let store = SessionStore::open(SherLockConfig::default(), options.clone()).unwrap();
        store.with_session("a", |s| {
            s.absorb_trace(&sample_trace(5));
        });
        store.with_session("b", |s| {
            s.absorb_trace(&sample_trace(6));
        });
        store.persist_all();
        for key in ["a", "b"] {
            let session_dir = (0..store.shard_count())
                .map(|i| dir.join(format!("shard-{i:02}")).join(key))
                .find(|p| p.exists())
                .expect("session directory exists");
            assert!(
                session_dir.join("snapshot.json").exists(),
                "{key} snapshotted"
            );
            assert_eq!(
                std::fs::metadata(session_dir.join("oplog.bin"))
                    .unwrap()
                    .len(),
                0,
                "{key} oplog truncated"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_use_sessions_are_not_evicted() {
        let store = SessionStore::in_memory(SherLockConfig::default(), 1);
        store.with_session("held", |_| {
            // "held" has a live handle, so the miss for "other" must not
            // evict it out from under us.
            store.with_session("other", |_| ());
        });
        assert_eq!(store.evictions(), 0);
        assert_eq!(store.len(), 2, "over budget beats evicting a held session");
        store.with_session("third", |_| ());
        assert_eq!(store.evictions(), 1, "idle sessions evict normally");
    }

    #[test]
    fn concurrent_absorbs_under_eviction_pressure_lose_nothing() {
        // Regression for the spill/rehydrate race: with max_sessions far
        // below the live key count and a snapshot after every op, sessions
        // continually spill and rehydrate while other threads absorb. Every
        // logged op must survive to a fresh store.
        const THREADS: usize = 4;
        const KEYS: usize = 6;
        const ITERS: usize = 24;
        let dir = tmp_dir("race");
        let options = StoreOptions {
            max_sessions: 2,
            snapshot_every: 1,
            data_dir: Some(dir.clone()),
            ..StoreOptions::default()
        };
        let trace = sample_trace(42);
        let store = SessionStore::open(SherLockConfig::default(), options.clone()).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..ITERS {
                        store.with_session(&format!("k{}", i % KEYS), |s| {
                            s.absorb_trace(&trace);
                        });
                    }
                });
            }
        });
        drop(store);

        let reopened = SessionStore::open(SherLockConfig::default(), options).unwrap();
        for k in 0..KEYS {
            reopened.with_session(&format!("k{k}"), |s| {
                assert_eq!(
                    s.traces_absorbed(),
                    THREADS * ITERS / KEYS,
                    "k{k} lost absorbed traces across spill/rehydrate"
                );
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_snapshot_degrades_to_memory_only() {
        let dir = tmp_dir("unreadable");
        let options = StoreOptions {
            data_dir: Some(dir.clone()),
            ..StoreOptions::default()
        };
        let store = SessionStore::open(SherLockConfig::default(), options.clone()).unwrap();
        store.with_session("app", |s| {
            s.absorb_trace(&sample_trace(7));
        });
        store.persist_all();
        drop(store);
        let session_dir = (0..StoreOptions::default().shards)
            .map(|i| dir.join(format!("shard-{i:02}")).join("app"))
            .find(|p| p.exists())
            .expect("session directory exists");
        // Make snapshot.json readable-as-a-path but unreadable-as-a-file
        // (EISDIR), standing in for EACCES/EIO: the snapshot may hold good
        // state we just cannot see right now.
        let snap = session_dir.join("snapshot.json");
        std::fs::remove_file(&snap).unwrap();
        std::fs::create_dir(&snap).unwrap();

        let store = SessionStore::open(SherLockConfig::default(), options).unwrap();
        store.with_session("app", |s| {
            assert_eq!(s.traces_absorbed(), 0, "degraded, not wedged");
            s.absorb_trace(&sample_trace(8));
        });
        store.persist_all();
        // Memory-only degradation must leave the on-disk state untouched —
        // a transient read error must never become permanent data loss by
        // overwriting the (possibly good) snapshot with reduced state.
        assert!(snap.is_dir(), "snapshot path not overwritten");
        assert_eq!(store.rehydrations(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_degrades_to_log_replay() {
        let dir = tmp_dir("corrupt");
        let options = StoreOptions {
            data_dir: Some(dir.clone()),
            ..StoreOptions::default()
        };
        let store = SessionStore::open(SherLockConfig::default(), options.clone()).unwrap();
        store.with_session("app", |s| {
            s.absorb_trace(&sample_trace(9));
        });
        store.persist_all(); // state now lives in the snapshot only
        drop(store);
        let session_dir = (0..StoreOptions::default().shards)
            .map(|i| dir.join(format!("shard-{i:02}")).join("app"))
            .find(|p| p.exists())
            .expect("session directory exists");
        std::fs::write(session_dir.join("snapshot.json"), "{ not json").unwrap();

        let store = SessionStore::open(SherLockConfig::default(), options).unwrap();
        store.with_session("app", |s| {
            // The snapshot was trash and the log was truncated by the
            // snapshot, so the session starts empty — degraded, not wedged.
            assert_eq!(s.traces_absorbed(), 0);
            s.absorb_trace(&sample_trace(10));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
