//! The concurrent routing core: name → actor resolution, the keyed
//! session table, and everything that must outlive any single session
//! (auto-portfolio winners, crash-recovery snapshots, request metering,
//! graceful shutdown).
//!
//! The router owns no verification state. Each loaded program lives in
//! its own actor thread ([`crate::actor`]); the router's table maps
//! client names and `(structural hash, backend)` keys onto actor
//! mailboxes. Reader threads call [`route_line`] concurrently; the
//! table lock is held only for map lookups and rebinds — never across
//! an elaboration, a session build, or a solve — so routing for one
//! client never serializes behind another client's sweep.
//!
//! Lock order (outermost first): an actor's `send_lock`, then `table`,
//! then `auto_winners`. An actor's `published`, `mailbox_wait` and
//! `breaker` locks are leaves ([`Router::snapshot`] reads them under
//! `table`). `persist_lock`, `snap_stop`, `timeseries` and the reply
//! counter are leaves taken while holding none of the above (except
//! `mark_dirty`, which takes `snap_stop` alone).

use crate::actor::{spawn_actor, ActorMsg, ActorShared, ReplySender, RequestCtx, MAILBOX_CAP};
use crate::daemon::ServerLimits;
use crate::json::Json;
use crate::protocol::{
    coded_error_response, error_response, overloaded_response, unavailable_response, Request,
};
use crate::snapshot::{DaemonSnapshot, RecorderCounts, SessionRow, TOP_WINDOW_NS};
use qb_core::{initial_values, AutoPreference, BackendKind, VerifyOptions, VerifySession};
use qb_lang::{elaborate, gate_diff, parse, structural_hash, ElaboratedProgram};
use qb_obs::{FlightRecorder, RecordedRequest, SpanEvent, TimeSeries};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Key of a warm session: programs are shared by structural hash *per
/// decision backend*, so `--backend bdd` and the daemon default each get
/// their own warm state for the same circuit.
pub(crate) type SessionKey = (u64, BackendKind);

/// Stable identity of one actor (one worker thread). Keys can be
/// rekeyed by edits; the id never changes for the life of the thread.
pub(crate) type ActorId = u64;

/// Remembered auto-portfolio winners kept across session eviction,
/// least-recently-touched entries evicted beyond this.
const AUTO_WINNERS_CAP: usize = 1024;

/// Snapshot file name inside the state directory.
pub(crate) const STATE_FILE: &str = "state.json";

/// Sampler-ring capacity: ten minutes of history at the default 1s
/// cadence.
const TIMESERIES_CAP: usize = 600;

/// Daemon health states, ordered by severity. The numeric values are
/// what the `qb_health` gauge exports.
pub(crate) const HEALTH_OK: u8 = 0;
pub(crate) const HEALTH_DEGRADED: u8 = 1;
pub(crate) const HEALTH_OVERLOADED: u8 = 2;

pub(crate) fn health_name(health: u8) -> &'static str {
    match health {
        HEALTH_OK => "ok",
        HEALTH_DEGRADED => "degraded",
        _ => "overloaded",
    }
}

/// Every reason a request can be shed, the label space of
/// `qb_shed_total`: the mailbox was full, the deadline could not beat
/// the drain estimate, brownout shed an unbounded verify, or the
/// session's circuit breaker was open.
pub(crate) const SHED_REASONS: [&str; 4] = ["mailbox_full", "deadline", "brownout", "breaker"];

/// Floor/ceiling for the `retry_after_ms` hint: even an instantly-
/// draining queue deserves a breather, and no estimate should park a
/// client for more than a few seconds.
fn retry_after_ms(queue_est_ms: u64) -> u64 {
    queue_est_ms.clamp(25, 5_000)
}

/// Exemplar file name for a request id. Zero-padded so lexicographic
/// directory order is chronological (retention deletes the oldest).
pub(crate) fn exemplar_file_name(request_id: u64) -> String {
    format!("req-{request_id:012}.trace.json")
}

pub(crate) fn hash_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// An `ok:false` response carrying the machine-readable `not_loaded`
/// code, so clients (notably `qborrow watch` across a daemon restart)
/// can fall back to a fresh `load` instead of failing forever.
pub(crate) fn not_loaded_response(name: &str) -> Json {
    coded_error_response(&format!("program {name:?} is not loaded"), "not_loaded")
}

pub(crate) fn elaborate_source(source: &str) -> Result<ElaboratedProgram, String> {
    let ast = parse(source).map_err(|e| e.to_string())?;
    elaborate(&ast).map_err(|e| e.to_string())
}

/// The request's wire command name, the label requests are metered
/// under.
fn request_cmd(request: &Request) -> &'static str {
    match request {
        Request::Load { .. } => "load",
        Request::Verify { .. } => "verify",
        Request::Edit { .. } => "edit",
        Request::Status => "status",
        Request::Metrics => "metrics",
        Request::Top => "top",
        Request::Trace { .. } => "trace",
        Request::Unload { .. } => "unload",
        Request::Shutdown => "shutdown",
    }
}

/// FNV-1a 64-bit, the snapshot checksum: torn or bit-flipped state files
/// are detected and discarded on restore instead of resurrecting a
/// corrupt session table.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Atomically replaces the snapshot: payload line + checksum line to a
/// temp file, fsync'd, then renamed over the live name — a crash at any
/// instant leaves either the old complete snapshot or the new one.
pub(crate) fn write_snapshot(dir: &Path, payload: &str) -> std::io::Result<()> {
    if qb_testutil::failpoints::should_fail("snapshot_write") {
        return Err(std::io::Error::other("injected snapshot_write failure"));
    }
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join("state.json.tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(payload.as_bytes())?;
        file.write_all(b"\n")?;
        file.write_all(format!("{:016x}\n", fnv1a64(payload.as_bytes())).as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(STATE_FILE))
}

/// One live actor as the router sees it: its mailbox, shared state, the
/// key it currently serves, and LRU/idle stamps.
pub(crate) struct ActorEntry {
    tx: SyncSender<ActorMsg>,
    shared: Arc<ActorShared>,
    key: SessionKey,
    /// Request-counter stamp of the last touch (LRU eviction order).
    last_used: u64,
    /// Wall-clock time of the last touch (idle eviction).
    last_used_at: Instant,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ActorEntry {
    /// This session's row of a [`DaemonSnapshot`], aliased by `names`.
    fn row(&self, names: Vec<String>) -> SessionRow {
        let shared = &self.shared;
        // A poisoned record is still a readable (if stale) record:
        // `publish` only ever overwrites it whole.
        let record = shared
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        SessionRow {
            label: format!("{}/{}", hash_hex(self.key.0), self.key.1),
            names,
            idle_ms: self.last_used_at.elapsed().as_millis() as u64,
            queue_depth: shared.queue_depth.load(Ordering::SeqCst),
            worker_alive: shared.alive.load(Ordering::SeqCst),
            breaker_open: shared.breaker.lock().is_ok_and(|b| b.is_open()),
            mailbox_wait: shared.mailbox_wait.lock().map(|h| *h).unwrap_or_default(),
            record,
        }
    }
}

/// Everything behind the table lock: actors by id, key → actor, client
/// names aliasing actors, and the retained sources the snapshot payload
/// and fork-path diffs read.
#[derive(Default)]
struct Table {
    actors: HashMap<ActorId, ActorEntry>,
    keys: HashMap<SessionKey, ActorId>,
    names: HashMap<String, ActorId>,
    /// name → (backend, retained source). A mirror kept on the router
    /// side so snapshots never queue behind a mailbox.
    sources: BTreeMap<String, (BackendKind, String)>,
    next_actor: ActorId,
    session_evictions: u64,
}

/// Removes `aid` and everything referencing it. Does not count an
/// eviction; callers that evict do that themselves.
fn remove_actor(t: &mut Table, aid: ActorId) -> bool {
    let Some(entry) = t.actors.remove(&aid) else {
        return false;
    };
    if t.keys.get(&entry.key) == Some(&aid) {
        t.keys.remove(&entry.key);
    }
    let dropped: Vec<String> = t
        .names
        .iter()
        .filter(|(_, &a)| a == aid)
        .map(|(n, _)| n.clone())
        .collect();
    for name in dropped {
        t.names.remove(&name);
        t.sources.remove(&name);
    }
    // Dropping the entry closes the mailbox; the worker drains what is
    // queued (answering each message) and exits.
    drop(entry);
    true
}

fn evict(t: &mut Table, aid: ActorId) {
    if remove_actor(t, aid) {
        t.session_evictions += 1;
    }
}

/// Drops `aid` if no client name aliases it any more.
fn drop_if_unaliased(t: &mut Table, aid: ActorId) {
    if !t.names.values().any(|&a| a == aid) {
        remove_actor(t, aid);
    }
}

/// Enforces the LRU bound, never evicting `protect` (the actor the
/// current request just created or touched).
fn evict_over_capacity(t: &mut Table, max: Option<usize>, protect: ActorId) {
    let Some(max) = max else {
        return;
    };
    let max = max.max(1);
    while t.actors.len() > max {
        let victim = t
            .actors
            .iter()
            .filter(|(&a, _)| a != protect)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(&a, _)| a);
        match victim {
            Some(a) => evict(t, a),
            None => return,
        }
    }
}

/// Evicts every actor idle past the configured timeout. Returns whether
/// anything was evicted (the caller marks the snapshot dirty).
fn sweep_idle(t: &mut Table, timeout: Option<Duration>) -> bool {
    let Some(timeout) = timeout else {
        return false;
    };
    let stale: Vec<ActorId> = t
        .actors
        .iter()
        .filter(|(_, e)| e.last_used_at.elapsed() >= timeout)
        .map(|(&a, _)| a)
        .collect();
    let any = !stale.is_empty();
    for aid in stale {
        evict(t, aid);
    }
    any
}

/// Binds `name` to `aid`, retaining the source for snapshots and
/// dropping the previously bound actor if this name was its last alias.
fn bind_name(t: &mut Table, name: &str, aid: ActorId, backend: BackendKind, source: &str) {
    t.sources
        .insert(name.to_string(), (backend, source.to_string()));
    if let Some(old) = t.names.insert(name.to_string(), aid) {
        if old != aid {
            drop_if_unaliased(t, old);
        }
    }
}

fn touch(t: &mut Table, aid: ActorId, stamp: u64) {
    if let Some(entry) = t.actors.get_mut(&aid) {
        entry.last_used = stamp;
        entry.last_used_at = Instant::now();
    }
}

/// Self-heals a dangling name→actor alias (a broken internal
/// invariant): the alias is dropped and the client told to reload,
/// instead of killing the daemon — and every other loaded program —
/// with an `expect` panic. Caller must `mark_dirty` after unlocking.
fn desync(t: &mut Table, name: &str) -> Json {
    t.names.remove(name);
    t.sources.remove(name);
    coded_error_response(
        &format!("session table desynchronised for {name:?}; alias dropped, please reload"),
        "internal_error",
    )
}

/// What [`route_line`] tells the caller to do next: keep serving, or
/// run the graceful-shutdown sequence (the reply is deferred until the
/// drain completes).
pub(crate) enum Routed {
    Done,
    Shutdown { request_id: u64, started: Instant },
}

/// How a shutdown request reaches the accept loops: flip `stop`, then
/// poke each listener with a dummy connection so blocked `accept`s
/// return and observe the flag.
#[derive(Clone)]
pub(crate) struct ShutdownGate {
    pub stop: Arc<AtomicBool>,
    pub socket: PathBuf,
    pub tcp: Option<std::net::SocketAddr>,
}

/// The concurrent daemon core. All state is internally synchronised;
/// reader threads share one `Arc<Router>`.
pub(crate) struct Router {
    verify: VerifyOptions,
    limits: ServerLimits,
    table: Mutex<Table>,
    /// Per-circuit auto-ladder memory: the rung the circuit settled on,
    /// keyed by structural hash. Survives session eviction and unload,
    /// so a reloaded circuit skips the losing backend attempts
    /// immediately.
    /// LRU-bounded ([`AUTO_WINNERS_CAP`]) like every other piece of
    /// per-circuit daemon state.
    auto_winners: Mutex<HashMap<u64, (AutoPreference, u64)>>,
    requests: AtomicU64,
    quarantines: AtomicU64,
    accept_errors: AtomicU64,
    snapshot_failures: AtomicU64,
    /// Sum of every mailbox's depth: the daemon-wide queue pressure the
    /// health state machine runs on. Maintained by [`Router::note_enqueue`]
    /// / [`Router::note_dequeue`] around every mailbox send/recv.
    total_queued: AtomicUsize,
    /// Current health state ([`HEALTH_OK`]/[`HEALTH_DEGRADED`]/
    /// [`HEALTH_OVERLOADED`]), driven by `total_queued` against the
    /// queue budget with hysteresis so it cannot flap.
    health: AtomicU8,
    /// Cumulative shed counts, indexed like [`SHED_REASONS`].
    sheds: [AtomicU64; SHED_REASONS.len()],
    state_dir: Mutex<Option<PathBuf>>,
    /// Set by mutating requests; cleared when a snapshot is written.
    state_dirty: AtomicBool,
    /// Serialises snapshot writes (the dedicated writer thread vs the
    /// synchronous flush `status` and shutdown perform).
    persist_lock: Mutex<()>,
    /// Signal for the snapshot writer thread: `true` = exit.
    snap_stop: Mutex<bool>,
    snap_cvar: Condvar,
    log_sink: Mutex<Option<std::fs::File>>,
    /// Always-on flight recorder: the bounded ring of recently
    /// completed request traces and the tail-sampling exemplar policy.
    recorder: FlightRecorder,
    /// Span trees actors deposited under their request id, claimed by
    /// [`Router::finish`] when the response funnels through.
    pending_spans: Mutex<HashMap<u64, Vec<SpanEvent>>>,
    /// The sampler thread's ring of periodic metrics snapshots; `top`
    /// computes its rates from this.
    timeseries: Mutex<TimeSeries>,
    /// Where exemplar traces are written, with the retention cap
    /// (newest N kept). `None` keeps exemplars in memory only.
    trace_dir: Mutex<Option<(PathBuf, usize)>>,
    /// Signal for the sampler thread: `true` = exit.
    sampler_stop: Mutex<bool>,
    sampler_cvar: Condvar,
    shutting_down: AtomicBool,
    /// Responses handed to writer threads but not yet flushed to their
    /// sockets; graceful shutdown waits for this to reach zero so no
    /// in-flight request gets a torn response.
    pending_replies: Mutex<usize>,
    replies_cvar: Condvar,
    gate: Mutex<Option<ShutdownGate>>,
}

// ---- request entry points (free functions: they clone the Arc into
// ---- newly spawned actor threads) -------------------------------------

/// Parses and routes one request line. Replies are delivered through
/// `reply` (possibly from another thread, after this returns);
/// `queue_ns` is how long the line sat received-but-unrouted.
pub(crate) fn route_line(
    router: &Arc<Router>,
    line: &str,
    queue_ns: u64,
    reply: &ReplySender,
) -> Routed {
    let request_id = router.requests.fetch_add(1, Ordering::SeqCst) + 1;
    let started = Instant::now();
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            router.finish(
                request_id,
                "malformed",
                error_response(&e),
                queue_ns,
                started.elapsed().as_nanos() as u64,
                reply,
            );
            return Routed::Done;
        }
    };
    let cmd = request_cmd(&request);
    if router.shutting_down.load(Ordering::SeqCst)
        && !matches!(request, Request::Status | Request::Shutdown)
    {
        router.finish(
            request_id,
            cmd,
            coded_error_response("daemon is shutting down", "shutting_down"),
            queue_ns,
            started.elapsed().as_nanos() as u64,
            reply,
        );
        return Routed::Done;
    }
    // The mailbox-wait clock starts when the line was *received*: fold
    // the connection-buffer wait into the enqueue instant so queue-wait
    // and mailbox-wait agree about when queueing began.
    let enqueued = started
        .checked_sub(Duration::from_nanos(queue_ns))
        .unwrap_or(started);
    let ctx = |cmd: &'static str| RequestCtx {
        request_id,
        cmd,
        enqueued,
        reply: reply.clone(),
    };
    // Session work is answered by its actor; control-lane requests are
    // answered right here.
    let answer = match request {
        Request::Load {
            name,
            source,
            backend,
        } => {
            route_load(router, name, &source, &backend, ctx("load"));
            None
        }
        Request::Verify {
            name,
            targets,
            deadline_ms,
            trace,
        } => match router.resolve(&name) {
            Err(response) => Some(response),
            Ok(pair) => {
                let msg = ActorMsg::Verify {
                    name,
                    targets,
                    deadline_ms,
                    trace,
                    ctx: ctx("verify"),
                };
                router.dispatch(pair, msg);
                None
            }
        },
        Request::Edit {
            name,
            source,
            backend,
        } => {
            route_edit(router, name, &source, &backend, ctx("edit"));
            None
        }
        Request::Status => {
            // `status` flushes any pending snapshot synchronously first,
            // so state read over the socket is already on disk if the
            // process dies right after (kill -9 determinism for the
            // crash-recovery tests).
            router.persist_once();
            Some(router.snapshot().status())
        }
        Request::Metrics => Some(router.snapshot().metrics()),
        Request::Top => {
            // Gather first: the ring is locked afterwards so it never
            // nests inside the table lock.
            let snapshot = router.snapshot();
            Some(snapshot.top(&router.timeseries.lock().unwrap()))
        }
        Request::Trace { request_id: traced } => Some(router.trace_of(traced)),
        Request::Unload { name } => Some(router.unload(&name)),
        Request::Shutdown => {
            // The reply is deferred: the caller drains and persists
            // first, so a shutdown acknowledgement means the final
            // snapshot is on disk.
            return Routed::Shutdown {
                request_id,
                started,
            };
        }
    };
    if let Some(response) = answer {
        router.finish(
            request_id,
            cmd,
            response,
            queue_ns,
            started.elapsed().as_nanos() as u64,
            reply,
        );
    }
    router.after_request();
    Routed::Done
}

fn route_load(
    router: &Arc<Router>,
    name: String,
    source: &str,
    requested: &Option<String>,
    ctx: RequestCtx,
) {
    let program = match elaborate_source(source) {
        Ok(p) => p,
        Err(e) => return router.finish_direct(ctx, error_response(&e)),
    };
    let hash = structural_hash(&program);
    // Backend selection is sticky: a backend-less load of a name that
    // already holds a session keeps that session's backend, so a plain
    // `client verify` after a `--backend bdd` one stays on BDD instead
    // of silently rebuilding on the daemon default.
    let backend = match requested {
        Some(_) => match router.resolve_backend(requested) {
            Ok(b) => b,
            Err(e) => return router.finish_direct(ctx, error_response(&e)),
        },
        None => {
            let t = router.table.lock().unwrap();
            t.names
                .get(&name)
                .and_then(|aid| t.actors.get(aid))
                .map(|e| e.key.1)
                .unwrap_or(router.verify.backend)
        }
    };
    let key = (hash, backend);
    // Fast path: the key is already warm — re-alias without building a
    // session.
    if let Some(pair) = router.try_alias_load(&name, key, source) {
        router.mark_dirty();
        return router.dispatch(
            pair,
            ActorMsg::Describe {
                name,
                extra: vec![("ok", Json::Bool(true)), ("reused", Json::Bool(true))],
                ctx,
            },
        );
    }
    // Build the session outside every lock: this is the expensive part
    // (full encode of the circuit) and must not serialize other
    // clients' routing.
    let session = match router.new_session(&program, hash, backend) {
        Ok(s) => s,
        Err(e) => return router.finish_direct(ctx, error_response(&e)),
    };
    let (pair, reused) = bind_or_spawn(router, &name, key, program, session, source);
    router.mark_dirty();
    router.dispatch(
        pair,
        ActorMsg::Describe {
            name,
            extra: vec![("ok", Json::Bool(true)), ("reused", Json::Bool(reused))],
            ctx,
        },
    );
}

/// Binds `name` to the session for `key` under one table lock: the warm
/// actor if a concurrent request already built one (our freshly built
/// `session` is dropped), else a new actor over `program`/`session`.
/// Returns the mailbox and whether an existing actor was reused.
fn bind_or_spawn(
    router: &Arc<Router>,
    name: &str,
    key: SessionKey,
    program: ElaboratedProgram,
    session: VerifySession,
    source: &str,
) -> ((SyncSender<ActorMsg>, Arc<ActorShared>), bool) {
    let mut t = router.table.lock().unwrap();
    let stamp = router.requests.load(Ordering::SeqCst);
    let (aid, reused) = match t.keys.get(&key) {
        Some(&aid) => (aid, true),
        None => {
            let aid = t.next_actor;
            t.next_actor += 1;
            let (tx, shared, handle) = spawn_actor(
                Arc::clone(router),
                aid,
                key,
                program,
                session,
                source.to_string(),
            );
            let entry = ActorEntry {
                tx,
                shared,
                key,
                last_used: stamp,
                last_used_at: Instant::now(),
                handle: Some(handle),
            };
            t.actors.insert(aid, entry);
            t.keys.insert(key, aid);
            (aid, false)
        }
    };
    bind_name(&mut t, name, aid, key.1, source);
    touch(&mut t, aid, stamp);
    evict_over_capacity(&mut t, router.limits.max_sessions, aid);
    let e = &t.actors[&aid];
    ((e.tx.clone(), Arc::clone(&e.shared)), reused)
}

/// What an edit should do, decided under the table lock. The exclusive
/// path must take the actor's send lock *first* (lock order), so the
/// decision is revalidated after reacquiring in order — a concurrent
/// rebind between the two locks sends us around the loop again.
enum EditDecision {
    Send(
        (SyncSender<ActorMsg>, Arc<ActorShared>),
        Vec<(&'static str, Json)>,
    ),
    ExclusiveEdit {
        aid: ActorId,
        old_key: SessionKey,
        new_key: SessionKey,
        shared: Arc<ActorShared>,
        tx: SyncSender<ActorMsg>,
    },
    Fork {
        backend: BackendKind,
        old_source: Option<String>,
    },
}

fn route_edit(
    router: &Arc<Router>,
    name: String,
    source: &str,
    requested: &Option<String>,
    ctx: RequestCtx,
) {
    let program = match elaborate_source(source) {
        Ok(p) => p,
        Err(e) => return router.finish_direct(ctx, error_response(&e)),
    };
    let new_hash = structural_hash(&program);
    let requested_backend = match requested {
        None => None,
        Some(_) => match router.resolve_backend(requested) {
            Ok(b) => Some(b),
            Err(e) => return router.finish_direct(ctx, error_response(&e)),
        },
    };
    // `program` is consumed by the mailbox message on the exclusive
    // path; held as an Option so the retry loop can keep it.
    let mut program = Some(program);
    for _attempt in 0..8 {
        let decision = {
            let mut t = router.table.lock().unwrap();
            let Some(&aid) = t.names.get(&name) else {
                return router.finish_direct(ctx, not_loaded_response(&name));
            };
            let Some(entry) = t.actors.get(&aid) else {
                let response = desync(&mut t, &name);
                drop(t);
                router.mark_dirty();
                return router.finish_direct(ctx, response);
            };
            let old_key = entry.key;
            // An edit keeps its session's backend unless one is
            // requested.
            let backend = requested_backend.unwrap_or(old_key.1);
            let new_key = (new_hash, backend);
            if new_key == old_key {
                touch(&mut t, aid, router.requests.load(Ordering::SeqCst));
                let e = &t.actors[&aid];
                EditDecision::Send(
                    (e.tx.clone(), Arc::clone(&e.shared)),
                    vec![
                        ("ok", Json::Bool(true)),
                        ("changed", Json::Bool(false)),
                        ("strategy", Json::Str("identical".into())),
                    ],
                )
            } else if let Some(&other) = t.keys.get(&new_key) {
                // An identical program is already warm under another
                // name (or backend): just re-alias.
                bind_name(&mut t, &name, other, backend, source);
                touch(&mut t, other, router.requests.load(Ordering::SeqCst));
                let e = &t.actors[&other];
                EditDecision::Send(
                    (e.tx.clone(), Arc::clone(&e.shared)),
                    vec![
                        ("ok", Json::Bool(true)),
                        ("changed", Json::Bool(true)),
                        ("strategy", Json::Str("aliased".into())),
                    ],
                )
            } else {
                let aliased = t.names.values().filter(|&&a| a == aid).count() > 1;
                if !aliased && backend == old_key.1 {
                    let e = &t.actors[&aid];
                    EditDecision::ExclusiveEdit {
                        aid,
                        old_key,
                        new_key,
                        shared: Arc::clone(&e.shared),
                        tx: e.tx.clone(),
                    }
                } else {
                    EditDecision::Fork {
                        backend,
                        old_source: t.sources.get(&name).map(|(_, s)| s.clone()),
                    }
                }
            }
        };
        match decision {
            EditDecision::Send(pair, extra) => {
                let aliased = extra
                    .iter()
                    .any(|(k, v)| *k == "strategy" && *v == Json::Str("aliased".into()));
                if aliased {
                    router.mark_dirty();
                }
                return router.dispatch(pair, ActorMsg::Describe { name, extra, ctx });
            }
            EditDecision::ExclusiveEdit {
                aid,
                old_key,
                new_key,
                shared,
                tx,
            } => {
                // Rekey-then-send must be atomic with respect to other
                // senders to this mailbox: take the actor's send lock
                // first (lock order), then revalidate the table —
                // another thread may have rebound the name between the
                // two lock acquisitions.
                let guard = shared.send_lock.lock().unwrap();
                // Capacity check before the rekey (exact under the send
                // lock): a full mailbox sheds the edit with nothing to
                // roll back, instead of the old blocking send.
                let depth = shared.queue_depth.load(Ordering::SeqCst);
                if depth >= MAILBOX_CAP {
                    drop(guard);
                    let est = router.drain_estimate_ms(&shared, depth);
                    router.note_shed("mailbox_full");
                    return router.finish_direct(
                        ctx,
                        overloaded_response(
                            "session mailbox is full",
                            retry_after_ms(est),
                            depth,
                            est,
                        ),
                    );
                }
                let valid = {
                    let mut t = router.table.lock().unwrap();
                    let still_bound = t.names.get(&name) == Some(&aid)
                        && t.actors.get(&aid).map(|e| e.key) == Some(old_key)
                        && t.names.values().filter(|&&a| a == aid).count() == 1
                        && !t.keys.contains_key(&new_key);
                    if still_bound {
                        t.keys.remove(&old_key);
                        t.keys.insert(new_key, aid);
                        if let Some(e) = t.actors.get_mut(&aid) {
                            e.key = new_key;
                        }
                        touch(&mut t, aid, router.requests.load(Ordering::SeqCst));
                        t.sources
                            .insert(name.clone(), (new_key.1, source.to_string()));
                    }
                    still_bound
                };
                if !valid {
                    drop(guard);
                    continue; // decide again under the current table
                }
                router.mark_dirty();
                shared.queue_depth.fetch_add(1, Ordering::SeqCst);
                router.note_enqueue();
                let msg = ActorMsg::Edit {
                    name: name.clone(),
                    program: program.take().expect("edit program consumed once"),
                    source: source.to_string(),
                    ctx,
                };
                if let Err(err) = tx.try_send(msg) {
                    shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    router.note_dequeue();
                    drop(guard);
                    // The actor died between resolve and send (`Full` is
                    // unreachable: the depth check above ran under the
                    // send lock): heal the dangling rekey so a later
                    // load of this program does not alias a dead
                    // mailbox.
                    {
                        let mut t = router.table.lock().unwrap();
                        if t.keys.get(&new_key) == Some(&aid) {
                            t.keys.remove(&new_key);
                        }
                    }
                    let msg = match err {
                        TrySendError::Full(m) | TrySendError::Disconnected(m) => m,
                    };
                    let (bounced_name, ctx) = msg.into_name_and_ctx();
                    router.finish_direct(ctx, not_loaded_response(&bounced_name));
                }
                return;
            }
            EditDecision::Fork {
                backend,
                old_source,
            } => {
                // Aliased (or backend-changing) edit: other names keep
                // the old session; this name gets a fresh one. Built
                // outside every lock, like a load.
                let forked = program.take().expect("edit program consumed once");
                let session = match router.new_session(&forked, new_hash, backend) {
                    Ok(s) => s,
                    Err(e) => return router.finish_direct(ctx, error_response(&e)),
                };
                // The single-threaded daemon reported the gate diff
                // against the replaced program; recover it from the
                // retained source (skipped if it no longer elaborates).
                let mut extra = vec![
                    ("ok", Json::Bool(true)),
                    ("changed", Json::Bool(true)),
                    ("strategy", Json::Str("reload".into())),
                ];
                if let Some(old_program) =
                    old_source.as_deref().and_then(|s| elaborate_source(s).ok())
                {
                    let diff = gate_diff(old_program.circuit.gates(), forked.circuit.gates());
                    extra.push(("common_prefix", Json::Int(diff.common_prefix as i64)));
                    extra.push(("removed_gates", Json::Int(diff.removed as i64)));
                    extra.push(("added_gates", Json::Int(diff.added as i64)));
                }
                let new_key = (new_hash, backend);
                let (pair, _) = bind_or_spawn(router, &name, new_key, forked, session, source);
                router.mark_dirty();
                return router.dispatch(pair, ActorMsg::Describe { name, extra, ctx });
            }
        }
    }
    router.finish_direct(
        ctx,
        coded_error_response(
            &format!("edit of {name:?} kept racing concurrent rebinds; please retry"),
            "retry",
        ),
    );
}

/// Replays the snapshot in the configured state directory, if any:
/// seeds the auto-portfolio winners, then re-loads every program under
/// its name and backend. Returns the number of programs restored. A
/// missing, torn or checksum-failing snapshot starts cold (logged,
/// never fatal).
pub(crate) fn restore_state(router: &Arc<Router>) -> usize {
    let Some(dir) = router.state_dir.lock().unwrap().clone() else {
        return 0;
    };
    let path = dir.join(STATE_FILE);
    let data = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(_) => return 0,
    };
    let mut lines = data.lines();
    let (payload, checksum) = match (lines.next(), lines.next()) {
        (Some(p), Some(c)) => (p, c),
        _ => {
            eprintln!(
                "qb-serve: snapshot {} is truncated; starting cold",
                path.display()
            );
            return 0;
        }
    };
    if checksum.trim() != format!("{:016x}", fnv1a64(payload.as_bytes())) {
        eprintln!(
            "qb-serve: snapshot {} fails its checksum; starting cold",
            path.display()
        );
        return 0;
    }
    let Ok(state) = Json::parse(payload) else {
        eprintln!(
            "qb-serve: snapshot {} is not valid JSON; starting cold",
            path.display()
        );
        return 0;
    };
    // Winners first, so the replayed loads seed their auto sessions
    // with the learned preference instead of re-learning it.
    if let Some(winners) = state.get("auto_winners").and_then(Json::as_arr) {
        let stamp = router.requests.load(Ordering::SeqCst);
        let mut map = router.auto_winners.lock().unwrap();
        for winner in winners {
            let Some(pair) = winner.as_arr() else {
                continue;
            };
            let (Some(hash), Some(pref)) = (
                pair.first().and_then(Json::as_str),
                pair.get(1).and_then(Json::as_str),
            ) else {
                continue;
            };
            if let (Ok(hash), Some(pref)) =
                (u64::from_str_radix(hash, 16), AutoPreference::parse(pref))
            {
                map.insert(hash, (pref, stamp));
            }
        }
    }
    let mut restored = 0;
    if let Some(programs) = state.get("programs").and_then(Json::as_arr) {
        for program in programs {
            let (Some(name), Some(source)) = (
                program.get("name").and_then(Json::as_str),
                program.get("source").and_then(Json::as_str),
            ) else {
                continue;
            };
            let backend = program
                .get("backend")
                .and_then(Json::as_str)
                .map(String::from);
            // Replays route like live loads (same code path, same
            // verdicts) but meter as "restore" so traffic counters only
            // reflect client requests.
            let (tx, rx) = std::sync::mpsc::channel();
            let ctx = RequestCtx {
                request_id: router.requests.fetch_add(1, Ordering::SeqCst) + 1,
                cmd: "restore",
                enqueued: Instant::now(),
                reply: tx,
            };
            route_load(router, name.to_string(), source, &backend, ctx);
            let line = rx.recv().unwrap_or_default();
            router.reply_flushed();
            let ok = Json::parse(&line)
                .ok()
                .and_then(|r| r.get("ok").and_then(Json::as_bool))
                == Some(true);
            if ok {
                restored += 1;
            } else {
                eprintln!("qb-serve: snapshot replay of {name:?} failed: {line}");
            }
        }
    }
    // Replaying loads marked the state dirty; the snapshot on disk
    // already says exactly this, so suppress the rewrite.
    router.state_dirty.store(false, Ordering::SeqCst);
    restored
}

/// The full graceful-shutdown sequence for a socket-served daemon:
/// refuse new work, drain every mailbox, wait for in-flight replies to
/// flush, write the final snapshot, acknowledge, unblock accepts.
pub(crate) fn graceful_shutdown(
    router: &Arc<Router>,
    request_id: u64,
    started: Instant,
    reply: &ReplySender,
) {
    if !router.shutting_down.swap(true, Ordering::SeqCst) {
        router.drain_actors();
        let grace = router
            .limits
            .default_deadline
            .unwrap_or(Duration::from_secs(10))
            .max(Duration::from_millis(100));
        router.wait_replies_flushed(grace);
        router.persist_once();
    }
    router.finish_shutdown(request_id, started, reply);
    router.trigger_gate();
}

impl Router {
    pub(crate) fn new(verify: VerifyOptions, limits: ServerLimits) -> Router {
        Router {
            verify,
            limits,
            table: Mutex::new(Table::default()),
            auto_winners: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            snapshot_failures: AtomicU64::new(0),
            total_queued: AtomicUsize::new(0),
            health: AtomicU8::new(HEALTH_OK),
            sheds: Default::default(),
            state_dir: Mutex::new(None),
            state_dirty: AtomicBool::new(false),
            persist_lock: Mutex::new(()),
            snap_stop: Mutex::new(false),
            snap_cvar: Condvar::new(),
            log_sink: Mutex::new(None),
            recorder: FlightRecorder::new(qb_obs::DEFAULT_RECORDER_CAPACITY),
            pending_spans: Mutex::new(HashMap::new()),
            timeseries: Mutex::new(TimeSeries::new(TIMESERIES_CAP)),
            trace_dir: Mutex::new(None),
            sampler_stop: Mutex::new(false),
            sampler_cvar: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            pending_replies: Mutex::new(0),
            replies_cvar: Condvar::new(),
            gate: Mutex::new(None),
        }
    }

    /// Post-request housekeeping: the idle sweep (the request just
    /// handled refreshed its own session's stamps, so only genuinely
    /// idle sessions are reaped).
    fn after_request(&self) {
        let evicted = {
            let mut t = self.table.lock().unwrap();
            sweep_idle(&mut t, self.limits.idle_timeout)
        };
        if evicted {
            self.mark_dirty();
        }
    }

    /// Load fast path: under one table lock, re-alias `name` onto an
    /// already-warm key. Returns the mailbox to describe through.
    fn try_alias_load(
        &self,
        name: &str,
        key: SessionKey,
        source: &str,
    ) -> Option<(SyncSender<ActorMsg>, Arc<ActorShared>)> {
        let mut t = self.table.lock().unwrap();
        let &aid = t.keys.get(&key)?;
        bind_name(&mut t, name, aid, key.1, source);
        touch(&mut t, aid, self.requests.load(Ordering::SeqCst));
        evict_over_capacity(&mut t, self.limits.max_sessions, aid);
        let e = t.actors.get(&aid)?;
        Some((e.tx.clone(), Arc::clone(&e.shared)))
    }

    // ---- resolution and dispatch ---------------------------------------

    /// Resolves `name` to its actor's mailbox, touching its LRU stamp.
    fn resolve(&self, name: &str) -> Result<(SyncSender<ActorMsg>, Arc<ActorShared>), Json> {
        let mut t = self.table.lock().unwrap();
        let Some(&aid) = t.names.get(name) else {
            return Err(not_loaded_response(name));
        };
        touch(&mut t, aid, self.requests.load(Ordering::SeqCst));
        let Some(entry) = t.actors.get(&aid) else {
            let response = desync(&mut t, name);
            drop(t);
            self.mark_dirty();
            return Err(response);
        };
        Ok((entry.tx.clone(), Arc::clone(&entry.shared)))
    }

    /// Enqueues `msg`, answering `not_loaded` directly if the actor died
    /// between resolution and send, and shedding (`overloaded` /
    /// `unavailable`) instead of ever blocking on a full mailbox. The
    /// send lock is taken *after* every table lock is released (lock
    /// order) and keeps rekeying edits from interleaving between our
    /// resolve and our enqueue; because every sender serialises on it
    /// and increments `queue_depth` before sending, a depth check under
    /// the lock is exact — an admitted message always finds a slot.
    fn dispatch(&self, pair: (SyncSender<ActorMsg>, Arc<ActorShared>), msg: ActorMsg) {
        let (tx, shared) = pair;
        let guard = shared.send_lock.lock().unwrap();
        if let Some(response) = self.admission_check(&shared, &msg) {
            drop(guard);
            self.finish_direct(msg.into_name_and_ctx().1, response);
            return;
        }
        shared.queue_depth.fetch_add(1, Ordering::SeqCst);
        self.note_enqueue();
        if let Err(err) = tx.try_send(msg) {
            shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
            self.note_dequeue();
            drop(guard);
            match err {
                // Unreachable given the admission check above, kept as
                // a defensive mirror: shed rather than lose the reply.
                TrySendError::Full(msg) => {
                    self.note_shed("mailbox_full");
                    let depth = shared.queue_depth.load(Ordering::SeqCst);
                    let est = self.drain_estimate_ms(&shared, depth);
                    let response = overloaded_response(
                        "session mailbox is full",
                        retry_after_ms(est),
                        depth,
                        est,
                    );
                    self.finish_direct(msg.into_name_and_ctx().1, response);
                }
                TrySendError::Disconnected(msg) => {
                    let (name, ctx) = msg.into_name_and_ctx();
                    self.finish_direct(ctx, not_loaded_response(&name));
                }
            }
        }
    }

    /// The admission decision for one message about to enter a mailbox,
    /// made under the actor's send lock. Returns the shed response, or
    /// `None` to admit. Order matters: capacity first (full is full for
    /// everyone), then the deadline/brownout rules (verifies only), and
    /// the breaker last — its half-open probe admission mutates breaker
    /// state, so it must only run when nothing else can still reject.
    fn admission_check(&self, shared: &ActorShared, msg: &ActorMsg) -> Option<Json> {
        let depth = shared.queue_depth.load(Ordering::SeqCst);
        if depth >= MAILBOX_CAP {
            let est = self.drain_estimate_ms(shared, depth);
            self.note_shed("mailbox_full");
            return Some(overloaded_response(
                "session mailbox is full",
                retry_after_ms(est),
                depth,
                est,
            ));
        }
        let ActorMsg::Verify { deadline_ms, .. } = msg else {
            // Edits, loads and describes stay fast in every health
            // state: they are cheap, and edits are how a poisoned or
            // overloaded program gets fixed.
            return None;
        };
        match self.effective_deadline(*deadline_ms) {
            // An unbounded verify can hold its worker for an arbitrary
            // time; in degraded/overloaded those are exactly the
            // requests brownout sheds.
            None => {
                if self.health.load(Ordering::SeqCst) != HEALTH_OK {
                    let est = self.drain_estimate_ms(shared, depth);
                    self.note_shed("brownout");
                    return Some(overloaded_response(
                        "daemon is under load and shedding verifies without a deadline; \
                         retry with --deadline-ms or after the queue drains",
                        retry_after_ms(est),
                        depth,
                        est,
                    ));
                }
            }
            // A deadline the queued work already outlasts is dead on
            // arrival: reject now instead of queueing it to fail.
            Some(deadline) => {
                if depth > 0 {
                    let est = self.drain_estimate_ms(shared, depth);
                    if est > deadline.as_millis() as u64 {
                        self.note_shed("deadline");
                        return Some(overloaded_response(
                            "queued work cannot drain before the request deadline",
                            retry_after_ms(est),
                            depth,
                            est,
                        ));
                    }
                }
            }
        }
        if let Ok(mut breaker) = shared.breaker.lock() {
            if let Err(retry_ms) = breaker.admit(self.limits.breaker_cooldown, Instant::now()) {
                self.note_shed("breaker");
                return Some(unavailable_response(
                    "session circuit breaker is open after repeated crashes; \
                     retry after the cooldown or edit the program",
                    retry_ms,
                ));
            }
        }
        None
    }

    /// Estimated milliseconds for `depth` queued messages to drain:
    /// depth × the windowed per-verify handle-time p95 (from the
    /// sampler ring), plus this session's mailbox-wait p95. Both are
    /// leaf locks, safe under the send lock.
    fn drain_estimate_ms(&self, shared: &ActorShared, depth: usize) -> u64 {
        let handle_p95_ns = self
            .timeseries
            .lock()
            .unwrap()
            .histogram_delta("request_handle", "verify", TOP_WINDOW_NS)
            .filter(|h| h.count() > 0)
            .map(|h| h.p95())
            .unwrap_or(0);
        let wait_p95_ns = shared.mailbox_wait.lock().map(|h| h.p95()).unwrap_or(0);
        (depth as u64)
            .saturating_mul(handle_p95_ns)
            .saturating_add(wait_p95_ns)
            / 1_000_000
    }

    /// One message entered a mailbox: track daemon-wide pressure and
    /// re-evaluate health.
    pub(crate) fn note_enqueue(&self) {
        self.total_queued.fetch_add(1, Ordering::SeqCst);
        self.eval_health();
    }

    /// One message left a mailbox (dequeued by its actor, or backed out
    /// after a failed send).
    pub(crate) fn note_dequeue(&self) {
        // Saturating: a drained actor's bounced messages must never
        // wrap the gauge.
        let _ = self
            .total_queued
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                Some(n.saturating_sub(1))
            });
        self.eval_health();
    }

    /// Advances the health state machine one step against the queue
    /// budget `B`. Hysteresis: up-transitions happen at `B/2` (ok →
    /// degraded) and `B` (→ overloaded), down-transitions only at `B/2`
    /// (overloaded → degraded) and `B/4` (degraded → ok), so a queue
    /// hovering near a boundary cannot flap the state every request.
    fn eval_health(&self) {
        let depth = self.total_queued.load(Ordering::SeqCst);
        let budget = self.limits.queue_budget.max(4);
        loop {
            let cur = self.health.load(Ordering::SeqCst);
            let next = match cur {
                HEALTH_OK => {
                    if depth >= budget {
                        HEALTH_OVERLOADED
                    } else if depth >= budget / 2 {
                        HEALTH_DEGRADED
                    } else {
                        HEALTH_OK
                    }
                }
                HEALTH_DEGRADED => {
                    if depth >= budget {
                        HEALTH_OVERLOADED
                    } else if depth <= budget / 4 {
                        HEALTH_OK
                    } else {
                        HEALTH_DEGRADED
                    }
                }
                _ => {
                    if depth <= budget / 4 {
                        HEALTH_OK
                    } else if depth <= budget / 2 {
                        HEALTH_DEGRADED
                    } else {
                        HEALTH_OVERLOADED
                    }
                }
            };
            if next == cur {
                return;
            }
            if self
                .health
                .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Counts one shed request under `reason` (a [`SHED_REASONS`]
    /// label).
    fn note_shed(&self, reason: &str) {
        let i = SHED_REASONS
            .iter()
            .position(|&r| r == reason)
            .expect("known shed reason");
        self.sheds[i].fetch_add(1, Ordering::SeqCst);
    }

    /// Answers a request that never reached a mailbox.
    fn finish_direct(&self, ctx: RequestCtx, response: Json) {
        let queue_ns = ctx.enqueued.elapsed().as_nanos() as u64;
        self.finish(ctx.request_id, ctx.cmd, response, queue_ns, 0, &ctx.reply);
    }

    /// Meters, stamps, logs and delivers one finished response. The
    /// single exit point every request funnels through, on whatever
    /// thread finished the work.
    pub(crate) fn finish(
        &self,
        request_id: u64,
        cmd: &str,
        mut response: Json,
        queue_ns: u64,
        handle_ns: u64,
        reply: &ReplySender,
    ) {
        qb_obs::counter_add("requests", cmd, 1);
        qb_obs::observe_ns("request_handle", cmd, handle_ns);
        qb_obs::observe_ns("request_queue_wait", cmd, queue_ns);
        self.record_request(request_id, cmd, &response, queue_ns, handle_ns);
        if let Json::Obj(members) = &mut response {
            members.insert("request_id".into(), Json::Int(request_id as i64));
            // The daemon-side time split, so clients (notably `watch`)
            // can tell mailbox contention from slow solves.
            members.insert("queue_ns".into(), Json::Int(queue_ns as i64));
            members.insert("handle_ns".into(), Json::Int(handle_ns as i64));
            // Every response carries the daemon health, so any client
            // (notably `watch`) can back off while it is non-`ok`
            // without a separate status round-trip.
            members.insert(
                "health".into(),
                Json::Str(health_name(self.health.load(Ordering::SeqCst)).to_string()),
            );
        }
        self.log_request(request_id, cmd, &response, queue_ns, handle_ns);
        self.send_reply(reply, response.to_string());
    }

    /// Feeds one finished request to the flight recorder, claiming the
    /// span tree its actor stashed, and writes the exemplar file when
    /// the tail-sampling policy promotes it.
    fn record_request(
        &self,
        request_id: u64,
        cmd: &str,
        response: &Json,
        queue_ns: u64,
        handle_ns: u64,
    ) {
        let spans = self
            .pending_spans
            .lock()
            .unwrap()
            .remove(&request_id)
            .unwrap_or_default();
        let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
        let unknowns = response
            .get("unknowns")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            .max(0) as u64;
        let quarantined = response.get("quarantined").is_some();
        let reason = self.recorder.record(RecordedRequest {
            request_id,
            cmd: cmd.to_string(),
            ok,
            unknowns,
            quarantined,
            queue_ns,
            handle_ns,
            spans,
            exemplar: None,
        });
        if let Some(reason) = reason {
            qb_obs::counter_add("exemplars", reason.name(), 1);
            self.write_exemplar(request_id);
        }
    }

    /// Writes a promoted request's trace to the exemplar directory and
    /// enforces the retention cap (newest N by file name, which is
    /// chronological by construction). Failures are counted, never
    /// fatal.
    fn write_exemplar(&self, request_id: u64) {
        let Some((dir, retain)) = self.trace_dir.lock().unwrap().clone() else {
            return;
        };
        let Some(rec) = self.recorder.get(request_id) else {
            return;
        };
        let path = dir.join(exemplar_file_name(request_id));
        let trace = qb_obs::chrome_trace(&rec.spans);
        if std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace))
            .is_err()
        {
            qb_obs::counter_add("exemplar_write_failures", "io", 1);
            return;
        }
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return;
        };
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("req-") && n.ends_with(".trace.json"))
            })
            .collect();
        if files.len() > retain {
            files.sort();
            let excess = files.len() - retain;
            for old in files.into_iter().take(excess) {
                let _ = std::fs::remove_file(old);
            }
        }
    }

    /// Appends one request record to the JSONL log, if one is open.
    /// Write failures are silently dropped: logging must never take the
    /// daemon down.
    fn log_request(&self, id: u64, cmd: &str, response: &Json, queue_ns: u64, handle_ns: u64) {
        let mut sink = self.log_sink.lock().unwrap();
        let Some(sink) = sink.as_mut() else {
            return;
        };
        let ts_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as i64)
            .unwrap_or(0);
        let record = Json::obj(vec![
            ("ts_ms", Json::Int(ts_ms)),
            ("request_id", Json::Int(id as i64)),
            ("cmd", Json::Str(cmd.to_string())),
            (
                "ok",
                Json::Bool(response.get("ok").and_then(Json::as_bool) == Some(true)),
            ),
            ("queue_ns", Json::Int(queue_ns as i64)),
            ("handle_ns", Json::Int(handle_ns as i64)),
        ]);
        let _ = writeln!(sink, "{record}");
    }

    // ---- reply accounting (graceful shutdown's torn-response guard) ----

    /// Hands a rendered line to a reply channel, counting it as pending
    /// until the owning writer calls [`Router::reply_flushed`].
    pub(crate) fn send_reply(&self, reply: &ReplySender, line: String) {
        *self.pending_replies.lock().unwrap() += 1;
        if reply.send(line).is_err() {
            // The connection's writer is gone; nothing will flush it.
            self.reply_flushed();
        }
    }

    /// A writer thread (or the synchronous facade) flushed one line.
    pub(crate) fn reply_flushed(&self) {
        let mut pending = self.pending_replies.lock().unwrap();
        *pending = pending.saturating_sub(1);
        if *pending == 0 {
            self.replies_cvar.notify_all();
        }
    }

    /// Blocks until every handed-out reply was flushed (or `timeout`).
    pub(crate) fn wait_replies_flushed(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut pending = self.pending_replies.lock().unwrap();
        while *pending > 0 {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (p, _) = self
                .replies_cvar
                .wait_timeout(pending, deadline - now)
                .unwrap();
            pending = p;
        }
    }

    // ---- control-lane rendering ----------------------------------------

    /// Gathers every daemon fact the views render: the session rows
    /// under one table lock (with each actor's leaf locks inside it),
    /// then the daemon-wide counters.
    pub(crate) fn snapshot(&self) -> DaemonSnapshot {
        let (sessions, session_evictions) = {
            let t = self.table.lock().unwrap();
            let mut names: HashMap<ActorId, Vec<String>> = HashMap::new();
            for (name, &aid) in &t.names {
                names.entry(aid).or_default().push(name.clone());
            }
            let mut rows: Vec<SessionRow> = t
                .actors
                .iter()
                .map(|(aid, entry)| entry.row(names.remove(aid).unwrap_or_default()))
                .collect();
            rows.sort_by(|a, b| a.label.cmp(&b.label));
            (rows, t.session_evictions)
        };
        let load = |n: &AtomicU64| n.load(Ordering::SeqCst);
        DaemonSnapshot {
            sessions,
            health: self.health.load(Ordering::SeqCst),
            queued: self.total_queued.load(Ordering::SeqCst),
            sheds: self.sheds.each_ref().map(load),
            quarantines: load(&self.quarantines),
            accept_errors: load(&self.accept_errors),
            snapshot_failures: load(&self.snapshot_failures),
            requests: load(&self.requests),
            session_evictions,
            auto_winners: self.auto_winners.lock().unwrap().len(),
            dropped_spans: qb_obs::dropped_spans(),
            recorder: RecorderCounts {
                recorded: self.recorder.recorded(),
                retained: self.recorder.len(),
                overflow: self.recorder.overflowed(),
                exemplars: self.recorder.exemplars(),
            },
            limits: self.limits,
            state_persisted: self.state_dir.lock().unwrap().is_some(),
        }
    }

    /// Fetches a retained request trace: from the flight-recorder ring
    /// if it is still there, else from the exemplar directory. The
    /// traced request's own facts use `trace_`-prefixed keys so they
    /// never collide with the members [`Router::finish`] stamps onto
    /// this (the fetching) request's response.
    fn trace_of(&self, traced: u64) -> Json {
        if let Some(rec) = self.recorder.get(traced) {
            return Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("trace_request_id", Json::Int(traced as i64)),
                ("trace_cmd", Json::Str(rec.cmd.clone())),
                ("trace_ok", Json::Bool(rec.ok)),
                (
                    "exemplar",
                    rec.exemplar
                        .map_or(Json::Null, |r| Json::Str(r.name().to_string())),
                ),
                ("trace_queue_ns", Json::Int(rec.queue_ns as i64)),
                ("trace_handle_ns", Json::Int(rec.handle_ns as i64)),
                ("spans", Json::Int(rec.spans.len() as i64)),
                ("trace", Json::Str(qb_obs::chrome_trace(&rec.spans))),
            ]);
        }
        // Ring-evicted, but a promoted request may survive on disk.
        if let Some((dir, _)) = self.trace_dir.lock().unwrap().clone() {
            let path = dir.join(exemplar_file_name(traced));
            if let Ok(contents) = std::fs::read_to_string(&path) {
                return Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("trace_request_id", Json::Int(traced as i64)),
                    ("source", Json::Str("exemplar_file".into())),
                    ("trace", Json::Str(contents)),
                ]);
            }
        }
        coded_error_response(
            &format!("request {traced} is not retained by the flight recorder"),
            "not_recorded",
        )
    }

    fn unload(&self, name: &str) -> Json {
        let sessions = {
            let mut t = self.table.lock().unwrap();
            let Some(aid) = t.names.remove(name) else {
                return not_loaded_response(name);
            };
            t.sources.remove(name);
            drop_if_unaliased(&mut t, aid);
            t.actors.len()
        };
        self.mark_dirty();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("unloaded", Json::Str(name.to_string())),
            ("sessions", Json::Int(sessions as i64)),
        ])
    }

    // ---- flight recorder and sampler -----------------------------------

    /// Deposits a request's captured span tree for [`Router::finish`]
    /// to claim. Called from actor threads right after a capture ends.
    pub(crate) fn stash_spans(&self, request_id: u64, spans: Vec<SpanEvent>) {
        self.pending_spans.lock().unwrap().insert(request_id, spans);
    }

    /// Configures the exemplar directory and retention cap.
    pub(crate) fn set_trace_dir(&self, dir: PathBuf, retain: usize) {
        *self.trace_dir.lock().unwrap() = Some((dir, retain.max(1)));
    }

    /// Configures the fixed slow-request threshold (otherwise the
    /// recorder's rolling p99 rule applies).
    pub(crate) fn set_slow_threshold(&self, threshold: Option<Duration>) {
        self.recorder.set_slow_threshold(threshold);
    }

    /// One sampler beat: append the registry, joined with the daemon's
    /// own facts, to the ring.
    pub(crate) fn sample_tick(&self) {
        // Health is re-evaluated on a timer too, not only on queue
        // traffic: a daemon that went quiet after a storm still decays
        // back to `ok` and the ring tracks the current state.
        self.eval_health();
        let mut metrics = qb_obs::metrics_snapshot();
        self.snapshot().merge_into(&mut metrics);
        self.timeseries
            .lock()
            .unwrap()
            .tick(qb_obs::now_ns(), metrics);
    }

    /// Tells the sampler thread to exit.
    pub(crate) fn stop_sampler(&self) {
        let mut stop = self.sampler_stop.lock().unwrap();
        *stop = true;
        self.sampler_cvar.notify_all();
    }

    // ---- actor-facing services -----------------------------------------

    /// Builds a session for `program` on `backend`, applying the
    /// configured per-session memory bounds and seeding the auto
    /// ladder with the rung this circuit's structural hash is
    /// remembered on. Takes no table lock: safe from actors.
    pub(crate) fn new_session(
        &self,
        program: &ElaboratedProgram,
        hash: u64,
        backend: BackendKind,
    ) -> Result<VerifySession, String> {
        let opts = VerifyOptions {
            backend,
            ..self.verify
        };
        let mut session = VerifySession::new(&program.circuit, &initial_values(program), &opts)
            .map_err(|e| e.to_string())?;
        if self.limits.arena_gc_floor.is_some() || self.limits.decision_cache_cap.is_some() {
            session.set_memory_limits(self.limits.arena_gc_floor, self.limits.decision_cache_cap);
        }
        if backend == BackendKind::Auto {
            if let Some(&(pref, _)) = self.auto_winners.lock().unwrap().get(&hash) {
                session.set_auto_preference(pref);
            }
        }
        Ok(session)
    }

    /// Resolves a request's optional backend name (`None` = the daemon
    /// default), rejecting unknown names with the valid list.
    fn resolve_backend(&self, requested: &Option<String>) -> Result<BackendKind, String> {
        match requested {
            None => Ok(self.verify.backend),
            Some(name) => BackendKind::parse(name).ok_or_else(|| {
                format!(
                    "unknown backend {name:?} (valid backends: {})",
                    BackendKind::valid_names()
                )
            }),
        }
    }

    /// A request's effective deadline: its own, or the daemon default —
    /// which brownout halves while health is non-`ok`, so defaulted
    /// verifies finish (or give a structured `unknown`) twice as fast
    /// exactly when queues need draining. An explicit client deadline
    /// is honoured as given.
    pub(crate) fn effective_deadline(&self, deadline_ms: Option<u64>) -> Option<Duration> {
        if let Some(ms) = deadline_ms {
            return Some(Duration::from_millis(ms));
        }
        let default = self.limits.default_deadline?;
        if self.health.load(Ordering::SeqCst) != HEALTH_OK {
            Some(default / 2)
        } else {
            Some(default)
        }
    }

    /// Quarantine strikes within the window that trip a session's
    /// circuit breaker open.
    pub(crate) fn breaker_threshold(&self) -> u32 {
        self.limits.breaker_threshold
    }

    /// Records what the auto portfolio learned about a circuit, so the
    /// next session over the same structural hash skips the losing
    /// backend attempt.
    pub(crate) fn remember_auto(&self, key: SessionKey, pref: AutoPreference) {
        if self.remember_auto_inner(key, pref) {
            self.mark_dirty();
        }
    }

    /// [`Router::remember_auto`] without the dirty mark, for the
    /// persist-time fold (which is already writing a snapshot). Returns
    /// whether the winner map changed.
    fn remember_auto_inner(&self, key: SessionKey, pref: AutoPreference) -> bool {
        if key.1 != BackendKind::Auto || pref == AutoPreference::Undecided {
            return false;
        }
        let stamp = self.requests.load(Ordering::SeqCst);
        let mut winners = self.auto_winners.lock().unwrap();
        // A newly learned (or changed) winner is worth a snapshot; mere
        // stamp refreshes are not.
        let changed = winners.get(&key.0).map(|&(p, _)| p) != Some(pref);
        winners.insert(key.0, (pref, stamp));
        qb_formula::lru_evict_batch(
            &mut winners,
            AUTO_WINNERS_CAP,
            |&(_, stamp)| stamp,
            |_, _| {},
        );
        changed
    }

    /// Drops `id` from the table (quarantine-rebuild failure, or an edit
    /// whose fresh session could not be built): every alias falls, so
    /// clients see `not_loaded` and re-`load`.
    pub(crate) fn deregister(&self, id: ActorId) {
        {
            let mut t = self.table.lock().unwrap();
            remove_actor(&mut t, id);
        }
        self.mark_dirty();
    }

    pub(crate) fn note_quarantine(&self) {
        self.quarantines.fetch_add(1, Ordering::SeqCst);
        self.mark_dirty();
    }

    /// Restores `id`'s table binding to `key` after an in-actor edit
    /// failed *after* the router had already rekeyed the table: the
    /// session still holds the old program, so the table must say so.
    pub(crate) fn restore_binding(&self, id: ActorId, key: SessionKey, name: &str, source: String) {
        let mut t = self.table.lock().unwrap();
        let Some(entry) = t.actors.get(&id) else {
            return;
        };
        let wrong = entry.key;
        if wrong != key && t.keys.get(&wrong) == Some(&id) {
            t.keys.remove(&wrong);
        }
        match t.keys.get(&key) {
            None => {
                t.keys.insert(key, id);
            }
            Some(&aid) if aid == id => {}
            Some(_) => return, // another actor now owns the key; leave it
        }
        if let Some(entry) = t.actors.get_mut(&id) {
            entry.key = key;
        }
        t.sources.insert(name.to_string(), (key.1, source));
    }

    // ---- snapshots -----------------------------------------------------

    pub(crate) fn set_log_file(&self, path: &Path) -> std::io::Result<()> {
        let sink = std::fs::File::options()
            .create(true)
            .append(true)
            .open(path)?;
        *self.log_sink.lock().unwrap() = Some(sink);
        Ok(())
    }

    pub(crate) fn set_state_dir(&self, dir: Option<PathBuf>) {
        *self.state_dir.lock().unwrap() = dir;
    }

    /// Flags the snapshot stale and wakes the writer thread. Holding
    /// `snap_stop` across the store+notify closes the lost-wakeup window
    /// (the writer re-checks the flag under the same lock).
    pub(crate) fn mark_dirty(&self) {
        let _guard = self.snap_stop.lock().unwrap();
        self.state_dirty.store(true, Ordering::SeqCst);
        self.snap_cvar.notify_all();
    }

    /// Writes the snapshot if one is due. Failures are counted and
    /// logged, never fatal: a daemon that cannot persist still serves.
    /// Callable from any thread; concurrent callers serialise on the
    /// persist lock and the loser sees a clean flag.
    pub(crate) fn persist_once(&self) {
        let Some(dir) = self.state_dir.lock().unwrap().clone() else {
            return;
        };
        if !self.state_dirty.load(Ordering::SeqCst) {
            return;
        }
        let _guard = self.persist_lock.lock().unwrap();
        if !self.state_dirty.swap(false, Ordering::SeqCst) {
            return;
        }
        // Fold what live auto sessions have learned into the winner map
        // before serialising, so a crash right after this write already
        // knows the preference.
        let learned: Vec<(SessionKey, AutoPreference)> = {
            let t = self.table.lock().unwrap();
            t.actors
                .values()
                .filter_map(|e| {
                    let published = e.shared.published.lock().ok()?;
                    Some((e.key, published.stats.auto_preference))
                })
                .collect()
        };
        for (key, pref) in learned {
            self.remember_auto_inner(key, pref);
        }
        let payload = self.state_payload().to_string();
        if let Err(e) = write_snapshot(&dir, &payload) {
            // Still dirty on failure: the next handled request retries.
            self.state_dirty.store(true, Ordering::SeqCst);
            self.snapshot_failures.fetch_add(1, Ordering::SeqCst);
            eprintln!("qb-serve: snapshot write failed ({e}); will retry after next request");
        }
    }

    /// The snapshot payload: every name with its retained source and
    /// backend (sorted for a deterministic file), plus the learned
    /// auto-portfolio winners. Sessions are *not* serialised — solver
    /// state is rebuilt by replaying the loads, which provably reaches
    /// the same verdicts (it is the same code path a cold client takes).
    fn state_payload(&self) -> Json {
        let programs: Vec<Json> = {
            let t = self.table.lock().unwrap();
            t.sources
                .iter()
                .map(|(name, (backend, source))| {
                    Json::obj(vec![
                        ("name", Json::Str(name.clone())),
                        ("backend", Json::Str(backend.to_string())),
                        ("source", Json::Str(source.clone())),
                    ])
                })
                .collect()
        };
        let winners = {
            let winners = self.auto_winners.lock().unwrap();
            let mut sorted: Vec<(u64, AutoPreference)> =
                winners.iter().map(|(&h, &(p, _))| (h, p)).collect();
            sorted.sort_by_key(|&(hash, _)| hash);
            sorted
                .into_iter()
                .map(|(hash, pref)| {
                    Json::Arr(vec![
                        Json::Str(hash_hex(hash)),
                        Json::Str(pref.name().to_string()),
                    ])
                })
                .collect::<Vec<Json>>()
        };
        Json::obj(vec![
            ("auto_winners", Json::Arr(winners)),
            ("programs", Json::Arr(programs)),
        ])
    }

    // ---- shutdown ------------------------------------------------------

    /// Acknowledges a shutdown request (after whatever draining the
    /// caller chose to do).
    pub(crate) fn finish_shutdown(&self, request_id: u64, started: Instant, reply: &ReplySender) {
        self.finish(
            request_id,
            "shutdown",
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("shutdown", Json::Bool(true)),
            ]),
            0,
            started.elapsed().as_nanos() as u64,
            reply,
        );
    }

    /// Closes every mailbox and joins every worker: queued requests are
    /// answered, then the threads exit (folding their auto-portfolio
    /// learning on the way out). The sources mirror survives so the
    /// final snapshot still lists every program.
    pub(crate) fn drain_actors(&self) {
        let entries: Vec<ActorEntry> = {
            let mut t = self.table.lock().unwrap();
            t.keys.clear();
            t.names.clear();
            std::mem::take(&mut t.actors).into_values().collect()
        };
        let mut handles = Vec::new();
        for entry in entries {
            let ActorEntry { tx, handle, .. } = entry;
            drop(tx); // closes the mailbox; the worker drains and exits
            if let Some(handle) = handle {
                handles.push(handle);
            }
        }
        for handle in handles {
            let _ = handle.join();
        }
    }

    pub(crate) fn set_gate(&self, gate: ShutdownGate) {
        *self.gate.lock().unwrap() = Some(gate);
    }

    /// Unblocks the accept loops: flip the stop flag, then poke each
    /// listener with a throwaway connection so a blocked `accept`
    /// returns and sees it.
    fn trigger_gate(&self) {
        let Some(gate) = self.gate.lock().unwrap().clone() else {
            return;
        };
        gate.stop.store(true, Ordering::SeqCst);
        let _ = std::os::unix::net::UnixStream::connect(&gate.socket);
        if let Some(addr) = gate.tcp {
            let _ = std::net::TcpStream::connect(addr);
        }
    }

    /// Counts one failed `accept` (status + metrics surface this so a
    /// daemon spinning on EMFILE is visible).
    pub(crate) fn note_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::SeqCst);
    }

    /// Tells the snapshot writer thread to exit.
    pub(crate) fn stop_snapshot_writer(&self) {
        let mut stop = self.snap_stop.lock().unwrap();
        *stop = true;
        self.snap_cvar.notify_all();
    }
}

/// The metrics sampler: appends one cumulative snapshot to the
/// `TimeSeries` ring every `interval` (first beat immediately, so `top`
/// has a baseline as soon as the daemon is up), until
/// [`Router::stop_sampler`].
pub(crate) fn spawn_sampler(
    router: &Arc<Router>,
    interval: Duration,
) -> std::thread::JoinHandle<()> {
    let router = Arc::clone(router);
    std::thread::Builder::new()
        .name("qb-sampler".into())
        .spawn(move || loop {
            router.sample_tick();
            let stop = router.sampler_stop.lock().unwrap();
            if *stop {
                return;
            }
            let (stop, _) = router.sampler_cvar.wait_timeout(stop, interval).unwrap();
            if *stop {
                return;
            }
        })
        .expect("spawn metrics sampler")
}

/// The dedicated snapshot writer: wakes on [`Router::mark_dirty`],
/// persists outside every request path (so a mutating request never
/// blocks on fsync), retries failed writes on a timer.
pub(crate) fn spawn_snapshot_writer(router: &Arc<Router>) -> std::thread::JoinHandle<()> {
    let router = Arc::clone(router);
    std::thread::Builder::new()
        .name("qb-snap".into())
        .spawn(move || loop {
            {
                let mut stop = router.snap_stop.lock().unwrap();
                loop {
                    if *stop {
                        return;
                    }
                    if router.state_dirty.load(Ordering::SeqCst) {
                        break;
                    }
                    stop = router.snap_cvar.wait(stop).unwrap();
                }
            }
            router.persist_once();
            if router.state_dirty.load(Ordering::SeqCst) {
                // The write failed (still dirty): pace the retries.
                let stop = router.snap_stop.lock().unwrap();
                if *stop {
                    return;
                }
                let _ = router
                    .snap_cvar
                    .wait_timeout(stop, Duration::from_millis(200))
                    .unwrap();
            }
        })
        .expect("spawn snapshot writer")
}
