//! Per-session actors: one owned worker thread per `(structural hash,
//! backend)` session.
//!
//! Each actor owns its [`VerifySession`] outright — no lock is ever held
//! across a solve — and is fed through a bounded MPSC mailbox by the
//! router ([`crate::router`]). Requests to the same session pipeline
//! through the mailbox in order, so per-session semantics are exactly
//! the single-threaded daemon's; requests to different sessions run on
//! different threads and never serialize behind each other.
//!
//! The actor also owns the failure domain: a panic unwinding out of a
//! solve is caught here, the poisoned session is rebuilt from its
//! retained source, and the reply carries a structured `internal_error`
//! — one bad circuit never takes down a neighbouring editor's session.

use crate::json::Json;
use crate::protocol::{coded_error_response, error_response, render_verdict};
use crate::router::{elaborate_source, hash_hex, not_loaded_response, ActorId, Router, SessionKey};
use crate::snapshot::SessionRecord;
use qb_core::{VerifyError, VerifyLimits, VerifySession};
use qb_lang::{gate_diff, structural_hash, ElaboratedProgram};
use qb_obs::Histogram;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Mailbox bound: enough to absorb a pipelining client's burst, small
/// enough that overload surfaces immediately. Senders never block on a
/// full mailbox — the router's admission check rejects the request with
/// a structured `overloaded` error instead (see [`crate::router`]).
pub(crate) const MAILBOX_CAP: usize = 256;

/// Where a request's rendered response line goes: the per-connection
/// writer thread (or the synchronous [`crate::Server`] facade).
pub(crate) type ReplySender = std::sync::mpsc::Sender<String>;

/// Everything needed to finish a request far from where it was parsed:
/// id for stamping, command label for metering, enqueue instant for the
/// mailbox-wait histogram, and the reply channel.
pub(crate) struct RequestCtx {
    pub request_id: u64,
    pub cmd: &'static str,
    pub enqueued: Instant,
    pub reply: ReplySender,
}

/// One mailbox message. The router resolves names to actors; the actor
/// only ever sees work for its own session.
pub(crate) enum ActorMsg {
    Verify {
        name: String,
        targets: Option<Vec<usize>>,
        deadline_ms: Option<u64>,
        trace: bool,
        ctx: RequestCtx,
    },
    /// An already-elaborated edit. The router rekeyed the session table
    /// under the actor's send lock before enqueueing, so by the time
    /// this is processed the table already names the post-edit key.
    Edit {
        name: String,
        program: ElaboratedProgram,
        source: String,
        ctx: RequestCtx,
    },
    /// Render a summary reply (load / identical edit / alias rebind):
    /// `extra` carries the leading response members, the actor appends
    /// its program summary.
    Describe {
        name: String,
        extra: Vec<(&'static str, Json)>,
        ctx: RequestCtx,
    },
}

impl ActorMsg {
    fn ctx(&self) -> &RequestCtx {
        match self {
            ActorMsg::Verify { ctx, .. }
            | ActorMsg::Edit { ctx, .. }
            | ActorMsg::Describe { ctx, .. } => ctx,
        }
    }

    /// Recovers the name and reply context from a message that never
    /// reached (or bounced off) a mailbox, so the router can still
    /// answer the client.
    pub(crate) fn into_name_and_ctx(self) -> (String, RequestCtx) {
        match self {
            ActorMsg::Verify { name, ctx, .. }
            | ActorMsg::Edit { name, ctx, .. }
            | ActorMsg::Describe { name, ctx, .. } => (name, ctx),
        }
    }
}

/// State shared between an actor and the router/readers: routing needs
/// queue depth, liveness, the mailbox-wait histogram and the breaker
/// without a mailbox round-trip.
pub(crate) struct ActorShared {
    /// Messages enqueued but not yet dequeued.
    pub queue_depth: AtomicUsize,
    /// Cleared when the worker thread exits (drain or quarantine death).
    pub alive: AtomicBool,
    /// Serialises "mutate the routing table, then enqueue" sequences
    /// (edit rekeys) against plain sends, so mailbox order always agrees
    /// with table order. Lock order: `send_lock` strictly before the
    /// router's table lock; plain senders take it only after releasing
    /// the table lock.
    pub send_lock: Mutex<()>,
    /// How long messages sat in this mailbox before being dequeued.
    pub mailbox_wait: Mutex<Histogram>,
    /// Per-session circuit breaker over the quarantine-rebuild path.
    pub breaker: Mutex<Breaker>,
    /// The actor's record as of its last handled request: status and
    /// metrics read this instead of queueing behind the mailbox, so a
    /// `status` request never waits for a slow sweep to finish (the
    /// daemon-control lane).
    pub published: Mutex<SessionRecord>,
}

/// Per-session circuit breaker: a session that panics (quarantine-
/// rebuilds) repeatedly trips the breaker open, and the router fast-
/// fails its verifies `unavailable` instead of burning CPU in a rebuild
/// loop. After a cooldown one half-open probe is admitted; its outcome
/// closes or re-opens the breaker. Edits pass the breaker — replacing
/// the poisoned program is the cure — and a successful verify or edit
/// closes it.
#[derive(Default)]
pub(crate) struct Breaker {
    /// Recent quarantine strikes (oldest aged out past the window).
    strikes: Vec<Instant>,
    /// Set while the breaker is open (fast-fail `unavailable`).
    opened_at: Option<Instant>,
    /// A half-open probe is in flight; the next strike or success
    /// decides the breaker's fate.
    probing: bool,
}

impl Breaker {
    /// Strikes older than this don't count toward tripping: a panic a
    /// minute ago says little about the session's health now.
    const STRIKE_WINDOW: Duration = Duration::from_secs(30);

    /// Records a quarantine strike. Trips open at `threshold` strikes
    /// within the window; a strike while probing re-opens immediately
    /// (the probe just proved the session is still poisoned).
    pub fn strike(&mut self, threshold: u32, now: Instant) {
        if self.probing {
            self.probing = false;
            self.opened_at = Some(now);
            return;
        }
        self.strikes
            .retain(|t| now.duration_since(*t) <= Self::STRIKE_WINDOW);
        self.strikes.push(now);
        if self.strikes.len() >= threshold.max(1) as usize {
            self.strikes.clear();
            self.opened_at = Some(now);
        }
    }

    /// A verify or edit completed cleanly: close the breaker and forget
    /// the strike history.
    pub fn note_ok(&mut self) {
        self.strikes.clear();
        self.opened_at = None;
        self.probing = false;
    }

    /// Admission check for verifies. `Ok(())` admits (including the one
    /// half-open probe once `cooldown` has elapsed); `Err(ms)` fast-
    /// fails with the suggested retry delay.
    pub fn admit(&mut self, cooldown: Duration, now: Instant) -> Result<(), u64> {
        let Some(opened) = self.opened_at else {
            return Ok(());
        };
        let elapsed = now.duration_since(opened);
        if elapsed < cooldown {
            return Err((cooldown - elapsed).as_millis().max(1) as u64);
        }
        if self.probing {
            // A probe is already in flight; hold further traffic until
            // it reports back.
            return Err(cooldown.as_millis().max(1) as u64);
        }
        self.probing = true;
        Ok(())
    }

    /// Whether the breaker is currently open (for status surfacing).
    pub fn is_open(&self) -> bool {
        self.opened_at.is_some()
    }
}

/// Count of in-flight span captures. Span recording is a process
/// global; refcounting keeps it enabled until the *last* concurrent
/// capture finishes instead of the first one switching everyone else
/// off mid-sweep.
static TRACE_DEPTH: AtomicU32 = AtomicU32::new(0);

/// RAII over the global span-recording flag, scoped to one request on
/// one actor thread. The flight recorder captures *every* verify, so
/// recording is effectively on whenever any session is mid-sweep and
/// back to the one-relaxed-load fast path when the daemon is idle.
/// Spans stay in the per-thread ring, so concurrent actors never see
/// each other's events; `Drop` releases the refcount even when a solve
/// panics, and anything a panic strands in this thread's ring is
/// discarded by the next capture here.
struct CaptureGuard;

fn capture_begin() -> CaptureGuard {
    // Discard leftovers from an earlier untaken capture on this thread
    // so they cannot pollute this request's trace.
    let _ = qb_obs::take_spans();
    if TRACE_DEPTH.fetch_add(1, Ordering::SeqCst) == 0 {
        qb_obs::set_enabled(true);
    }
    CaptureGuard
}

impl CaptureGuard {
    /// This request's span tree: the actor thread recorded nothing else
    /// since [`capture_begin`].
    fn take(self) -> Vec<qb_obs::SpanEvent> {
        qb_obs::take_spans()
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        if TRACE_DEPTH.fetch_sub(1, Ordering::SeqCst) == 1 {
            qb_obs::set_enabled(false);
        }
    }
}

/// Best-effort text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One session worker. Owns the program, its session and the retained
/// source; everything else reaches it through the mailbox.
struct SessionActor {
    router: Arc<Router>,
    id: ActorId,
    shared: Arc<ActorShared>,
    key: SessionKey,
    program: ElaboratedProgram,
    session: VerifySession,
    source: String,
    verifies: u64,
    /// Set when a quarantine rebuild failed: the session is gone, the
    /// table entry was dropped, and remaining queued messages are
    /// answered `not_loaded` until the mailbox drains.
    dead: bool,
}

/// Publishes the initial record and spawns the worker thread.
pub(crate) fn spawn_actor(
    router: Arc<Router>,
    id: ActorId,
    key: SessionKey,
    program: ElaboratedProgram,
    session: VerifySession,
    source: String,
) -> (
    SyncSender<ActorMsg>,
    Arc<ActorShared>,
    std::thread::JoinHandle<()>,
) {
    let (tx, rx) = std::sync::mpsc::sync_channel(MAILBOX_CAP);
    let actor = SessionActor {
        router,
        id,
        shared: Arc::new(ActorShared {
            queue_depth: AtomicUsize::new(0),
            alive: AtomicBool::new(true),
            send_lock: Mutex::new(()),
            mailbox_wait: Mutex::new(Histogram::new()),
            breaker: Mutex::new(Breaker::default()),
            // Published before the spawn: a `status` racing the first
            // message already sees the session (read-your-writes for
            // the loading client).
            published: Mutex::new(SessionRecord::new(key, &program, &session, 0)),
        }),
        key,
        program,
        session,
        source,
        verifies: 0,
        dead: false,
    };
    let shared = Arc::clone(&actor.shared);
    let handle = std::thread::Builder::new()
        .name(format!("qb-session-{}", hash_hex(key.0)))
        .spawn(move || actor.run(rx))
        .expect("spawn session actor");
    (tx, shared, handle)
}

impl SessionActor {
    fn run(mut self, rx: Receiver<ActorMsg>) {
        while let Ok(msg) = rx.recv() {
            self.shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
            self.router.note_dequeue();
            self.handle_one(msg);
        }
        // Mailbox closed: the router dropped this actor's entry (unload,
        // eviction, edit rebind or shutdown drain). Fold what the auto
        // portfolio learned into the winner map before the session dies.
        if !self.dead {
            self.router
                .remember_auto(self.key, self.session.auto_preference());
        }
        self.shared.alive.store(false, Ordering::SeqCst);
    }

    fn handle_one(&mut self, msg: ActorMsg) {
        // Queue time ends here, at dequeue; everything after is handle
        // time.
        let queue_ns = self.note_wait(msg.ctx());
        let t0 = Instant::now();
        // Retained so a panic mid-edit rebuilds to the *post-edit*
        // program the routing table was already rekeyed to.
        let mut pending_source: Option<String> = None;
        let (name, ctx, result) = match msg {
            ActorMsg::Verify {
                name,
                targets,
                deadline_ms,
                trace,
                ctx,
            } => {
                let rid = ctx.request_id;
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    self.verify(&name, targets, deadline_ms, trace, rid)
                }));
                (name, ctx, r)
            }
            ActorMsg::Edit {
                name,
                program,
                source,
                ctx,
            } => {
                pending_source = Some(source.clone());
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    self.edit(&name, program, source)
                }));
                (name, ctx, r)
            }
            ActorMsg::Describe { name, extra, ctx } => {
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| self.describe(&name, extra)));
                (name, ctx, r)
            }
        };
        let response = match result {
            Ok(response) => {
                // A clean verify or edit proves the session healthy:
                // close the breaker. (Describe summaries prove nothing.)
                if matches!(ctx.cmd, "verify" | "edit") {
                    if let Ok(mut breaker) = self.shared.breaker.lock() {
                        breaker.note_ok();
                    }
                }
                response
            }
            Err(payload) => {
                // The panic unwound out of the session: quarantine it
                // (any state left behind is untrusted), rebuild from the
                // retained source, keep serving. Whatever the request
                // recorded before dying is salvaged first so the flight
                // recorder still retains a (partial) trace of it.
                self.router
                    .stash_spans(ctx.request_id, qb_obs::take_spans());
                self.router.note_quarantine();
                if let Ok(mut breaker) = self.shared.breaker.lock() {
                    breaker.strike(self.router.breaker_threshold(), Instant::now());
                }
                if let Some(source) = pending_source {
                    self.source = source;
                }
                let rebuilt = self.rebuild();
                Json::obj(vec![
                    ("ok", Json::Bool(false)),
                    (
                        "error",
                        Json::Str(format!(
                            "internal panic while handling the request: {}",
                            panic_text(payload.as_ref())
                        )),
                    ),
                    ("code", Json::Str("internal_error".to_string())),
                    ("quarantined", Json::Str(name)),
                    ("rebuilt", Json::Bool(rebuilt)),
                ])
            }
        };
        let handle_ns = t0.elapsed().as_nanos() as u64;
        self.publish();
        self.router.finish(
            ctx.request_id,
            ctx.cmd,
            response,
            queue_ns,
            handle_ns,
            &ctx.reply,
        );
    }

    /// Records this message's mailbox wait (the concurrent daemon's
    /// queue wait: time between receipt and dequeue) and returns it.
    fn note_wait(&self, ctx: &RequestCtx) -> u64 {
        let ns = ctx.enqueued.elapsed().as_nanos() as u64;
        if let Ok(mut h) = self.shared.mailbox_wait.lock() {
            h.record(ns);
        }
        ns
    }

    /// Tears down the (presumed poisoned) session and rebuilds it from
    /// the retained source. On failure the actor deregisters itself —
    /// every alias drops, clients see `not_loaded` and re-`load`.
    fn rebuild(&mut self) -> bool {
        let rebuilt = elaborate_source(&self.source).and_then(|program| {
            let hash = structural_hash(&program);
            self.router
                .new_session(&program, hash, self.key.1)
                .map(|session| (program, hash, session))
        });
        match rebuilt {
            Ok((program, hash, session)) => {
                self.program = program;
                self.session = session;
                self.key = (hash, self.key.1);
                self.verifies = 0;
                true
            }
            Err(_) => {
                self.router.deregister(self.id);
                self.dead = true;
                false
            }
        }
    }

    fn verify(
        &mut self,
        name: &str,
        targets: Option<Vec<usize>>,
        deadline_ms: Option<u64>,
        trace: bool,
        request_id: u64,
    ) -> Json {
        if self.dead {
            return not_loaded_response(name);
        }
        let deadline = self.router.effective_deadline(deadline_ms);
        let targets = targets.unwrap_or_else(|| self.program.qubits_to_verify());
        let t0 = Instant::now();
        // Every verify captures its span tree for the flight recorder;
        // `trace` only decides whether the rendered Chrome trace also
        // rides in this response.
        let capture = capture_begin();
        let limits = VerifyLimits {
            deadline,
            ..VerifyLimits::default()
        };
        let verdicts = self.session.verify_targets_limited(&targets, &limits);
        let spans = capture.take();
        let trace_json = trace.then(|| qb_obs::chrome_trace(&spans));
        // Hand the span tree to the router before any early return, so
        // error responses are still recorded with their trace.
        self.router.stash_spans(request_id, spans);
        let verdicts = match verdicts {
            Ok(v) => v,
            Err(e) => return error_response(&e.to_string()),
        };
        let solve_ns = t0.elapsed().as_nanos() as i64;
        self.verifies += 1;
        let all_safe = verdicts.iter().all(|v| v.safe);
        let unknowns = verdicts.iter().filter(|v| v.verdict.is_unknown()).count();
        let rendered: Vec<Json> = verdicts
            .iter()
            .map(|v| render_verdict(&self.program, v))
            .collect();
        self.router
            .remember_auto(self.key, self.session.auto_preference());
        let mut pairs = vec![
            ("ok", Json::Bool(true)),
            ("name", Json::Str(name.to_string())),
            ("all_safe", Json::Bool(all_safe)),
            ("unknowns", Json::Int(unknowns as i64)),
            ("verdicts", Json::Arr(rendered)),
            ("solve_ns", Json::Int(solve_ns)),
        ];
        pairs.extend(self.record().pairs());
        if let Ok(wait) = self.shared.mailbox_wait.lock() {
            pairs.push((
                "mailbox_wait_p50_us",
                Json::Int((wait.p50() / 1_000) as i64),
            ));
            pairs.push((
                "mailbox_wait_p95_us",
                Json::Int((wait.p95() / 1_000) as i64),
            ));
        }
        if let Some(budget) = deadline {
            pairs.push(("deadline_ms", Json::Int(budget.as_millis() as i64)));
        }
        if let Some(trace_json) = trace_json {
            pairs.push(("trace", Json::Str(trace_json)));
        }
        Json::obj(pairs)
    }

    /// Applies an already-rekeyed edit: incrementally when the qubit
    /// layout held, by rebuilding a fresh session (same actor, same
    /// mailbox) when it did not.
    fn edit(&mut self, name: &str, program: ElaboratedProgram, source: String) -> Json {
        if self.dead {
            return not_loaded_response(name);
        }
        let new_key = (structural_hash(&program), self.key.1);
        let kinds_match = self.program.qubit_kinds == program.qubit_kinds;
        let diff = gate_diff(self.program.circuit.gates(), program.circuit.gates());
        if kinds_match {
            match self.session.apply_edit(&program.circuit) {
                Ok(stats) => {
                    self.program = program;
                    self.source = source;
                    self.key = new_key;
                    let mut pairs = vec![
                        ("ok", Json::Bool(true)),
                        ("changed", Json::Bool(true)),
                        ("strategy", Json::Str("incremental".into())),
                        ("common_prefix", Json::Int(stats.common_prefix as i64)),
                        ("removed_gates", Json::Int(diff.removed as i64)),
                        ("added_gates", Json::Int(diff.added as i64)),
                        ("permanent_prefix", Json::Int(stats.permanent_prefix as i64)),
                        ("suffix_clauses", Json::Int(stats.suffix_clauses as i64)),
                        ("edit_ns", Json::Int(stats.elapsed.as_nanos() as i64)),
                    ];
                    pairs.extend(self.summary_pairs(name));
                    return Json::obj(pairs);
                }
                Err(VerifyError::IncompatibleEdit { .. }) => {
                    // Fall through to the rebuild path below.
                }
                Err(e) => {
                    // The router already rekeyed the table to the new
                    // hash, but the session still holds the old program:
                    // rekey back so the table matches reality.
                    self.router
                        .restore_binding(self.id, self.key, name, self.source.clone());
                    return error_response(&e.to_string());
                }
            }
        }
        // Layout changed (or the edit was incompatible): rebuild a fresh
        // session for the new program. The routing table already maps
        // the new key to this actor, so only local state moves.
        match self.router.new_session(&program, new_key.0, new_key.1) {
            Ok(session) => {
                self.router
                    .remember_auto(self.key, self.session.auto_preference());
                self.session = session;
                self.program = program;
                self.source = source;
                self.key = new_key;
                self.verifies = 0;
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("changed", Json::Bool(true)),
                    ("strategy", Json::Str("reload".into())),
                    ("common_prefix", Json::Int(diff.common_prefix as i64)),
                    ("removed_gates", Json::Int(diff.removed as i64)),
                    ("added_gates", Json::Int(diff.added as i64)),
                ];
                pairs.extend(self.summary_pairs(name));
                Json::obj(pairs)
            }
            Err(e) => {
                // No session can exist for the reserved key: deregister
                // so clients see `not_loaded` and re-load, matching what
                // a fresh load of this source would report.
                self.router.deregister(self.id);
                self.dead = true;
                coded_error_response(&e, "internal_error")
            }
        }
    }

    fn describe(&mut self, name: &str, extra: Vec<(&'static str, Json)>) -> Json {
        if self.dead {
            return not_loaded_response(name);
        }
        let mut pairs = extra;
        pairs.extend(self.summary_pairs(name));
        Json::obj(pairs)
    }

    /// The program summary behind `load`, `edit` and alias rebinds.
    fn summary_pairs(&self, name: &str) -> Vec<(&'static str, Json)> {
        let mut pairs = vec![
            ("name", Json::Str(name.to_string())),
            ("idle_ms", Json::Int(0)),
        ];
        pairs.extend(self.record().pairs());
        pairs
    }

    fn record(&self) -> SessionRecord {
        SessionRecord::new(self.key, &self.program, &self.session, self.verifies)
    }

    /// Publishes the record `status`/`metrics` read without queueing
    /// behind this mailbox.
    fn publish(&mut self) {
        if self.dead {
            return;
        }
        let record = self.record();
        if let Ok(mut published) = self.shared.published.lock() {
            *published = record;
        }
    }
}
