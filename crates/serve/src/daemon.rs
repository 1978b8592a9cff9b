//! The verify-on-change daemon: warm per-program verification sessions
//! served concurrently to many clients.
//!
//! The daemon holds one [`qb_core::VerifySession`] per loaded program,
//! keyed by the *structural hash* of the elaborated circuit
//! ([`qb_lang::structural_hash`]) and its decision backend: client-chosen
//! names are aliases onto the keyed session table, so two editors looking
//! at structurally identical programs on the same backend share one warm
//! session.
//!
//! Each session lives in its own *actor*: an owned worker thread fed by a
//! bounded mailbox ([`crate::actor`]). This module is the transport
//! layer around the routing core ([`crate::router`]):
//!
//! * the accept loops (Unix socket, and optionally a u32-length-prefixed
//!   TCP framing behind [`ServeOptions::tcp`]) spawn one reader thread
//!   per connection;
//! * readers parse lines, route them ([`crate::router::route_line`]) and
//!   hand rendered replies to a per-connection writer thread, so a slow
//!   sweep for one client never blocks another client's warm edit —
//!   requests to the *same* session pipeline through its mailbox in
//!   order, requests to different sessions run in parallel;
//! * [`Server`] is the socket-free synchronous facade over the same
//!   router, used by tests and embedders.

use crate::json::Json;
use crate::protocol::coded_error_response;
#[cfg(test)]
use crate::protocol::Request;
#[cfg(test)]
use crate::router::STATE_FILE;
use crate::router::{
    graceful_shutdown, restore_state, route_line, spawn_sampler, spawn_snapshot_writer, Routed,
    Router, ShutdownGate,
};
use qb_core::VerifyOptions;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Memory and overload bounds of a long-lived daemon (see `README.md`,
/// "Memory behaviour of long-lived sessions" and "Overload behaviour").
/// Memory knobs default to unbounded / session defaults; the overload
/// knobs carry serving-grade defaults.
#[derive(Debug, Clone, Copy)]
pub struct ServerLimits {
    /// Upper bound on concurrently loaded (hash-distinct) sessions; the
    /// least-recently-used session (and every name aliasing it) is
    /// evicted past it. `None` = unbounded.
    pub max_sessions: Option<usize>,
    /// Sessions untouched for this long are evicted by the sweep that
    /// runs after every handled request. `None` = never.
    pub idle_timeout: Option<Duration>,
    /// Per-session formula-arena GC watermark floor handed to
    /// [`qb_core::VerifySession::set_memory_limits`]. `None` = session
    /// default.
    pub arena_gc_floor: Option<usize>,
    /// Per-session decision-cache capacity. `None` = session default.
    pub decision_cache_cap: Option<usize>,
    /// Wall-clock budget applied to every `verify` request that does not
    /// carry its own `deadline_ms`. `None` = unbounded.
    pub default_deadline: Option<Duration>,
    /// Daemon-wide queued-request budget driving the `ok → degraded →
    /// overloaded` health state (degraded from half the budget,
    /// overloaded at the full budget, with hysteresis on the way down).
    pub queue_budget: usize,
    /// Quarantine-rebuilds within the strike window that trip a
    /// session's circuit breaker open.
    pub breaker_threshold: u32,
    /// How long an open breaker fast-fails before admitting one
    /// half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for ServerLimits {
    fn default() -> Self {
        ServerLimits {
            max_sessions: None,
            idle_timeout: None,
            arena_gc_floor: None,
            decision_cache_cap: None,
            default_deadline: None,
            queue_budget: 256,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(5),
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Path of the Unix domain socket to listen on.
    pub socket: PathBuf,
    /// Additionally listen on this TCP address (e.g. `127.0.0.1:7691`)
    /// with u32-big-endian-length-prefixed JSON frames. `None` = Unix
    /// socket only.
    pub tcp: Option<String>,
    /// Verifier configuration shared by every session.
    pub verify: VerifyOptions,
    /// Print one line per handled request to stderr.
    pub log: bool,
    /// Memory bounds (session LRU, idle sweep, per-session GC knobs).
    pub limits: ServerLimits,
    /// Directory for crash-recovery snapshots: loaded sources, their
    /// backends and the learned auto-portfolio winners are persisted
    /// after every mutating request, and a restarted daemon replays them
    /// so it comes back warm. `None` = no persistence.
    pub state_dir: Option<PathBuf>,
    /// Append one JSON object per handled request (id, cmd, outcome,
    /// queue-wait and handle latency) to this file. `None` = no log.
    pub log_file: Option<PathBuf>,
    /// Directory exemplar traces are auto-written to (Chrome trace-event
    /// JSON, one file per promoted request). `None` = exemplars stay in
    /// the in-memory flight-recorder ring only.
    pub trace_dir: Option<PathBuf>,
    /// Retention cap for `trace_dir`: only the newest N exemplar files
    /// are kept.
    pub trace_retain: usize,
    /// Fixed slow-request threshold: a verify handled slower than this
    /// is promoted to an exemplar. `None` = promote above the rolling
    /// p99 of the request type instead.
    pub slow_threshold: Option<Duration>,
    /// Cadence of the metrics sampler feeding the `top` time-series
    /// ring.
    pub sample_interval: Duration,
}

impl ServeOptions {
    /// Options for `socket` with default verification settings.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeOptions {
            socket: socket.into(),
            tcp: None,
            verify: VerifyOptions::default(),
            log: false,
            limits: ServerLimits::default(),
            state_dir: None,
            log_file: None,
            trace_dir: None,
            trace_retain: 32,
            slow_threshold: None,
            sample_interval: Duration::from_secs(1),
        }
    }
}

/// The socket-free request handler: the same concurrent routing core the
/// socket transports drive ([`crate::router`]), behind a synchronous
/// line-in/line-out facade. Requests still execute on the per-session
/// actor threads; the facade blocks until the response is rendered, so
/// callers observe the single-threaded semantics the wire protocol
/// promises per connection.
pub struct Server {
    router: Arc<Router>,
}

impl Server {
    /// A server with unbounded limits.
    pub fn new(verify: VerifyOptions) -> Server {
        Server::with_limits(verify, ServerLimits::default())
    }

    /// A server with explicit memory bounds.
    pub fn with_limits(verify: VerifyOptions, limits: ServerLimits) -> Server {
        Server {
            router: Arc::new(Router::new(verify, limits)),
        }
    }

    /// Opens (appending) the JSONL request log.
    pub fn set_log_file(&mut self, path: &Path) -> std::io::Result<()> {
        self.router.set_log_file(path)
    }

    /// Sets (or clears) the crash-recovery snapshot directory. Snapshots
    /// are written after every mutating request once set.
    pub fn set_state_dir(&mut self, dir: Option<PathBuf>) {
        self.router.set_state_dir(dir);
    }

    /// Configures the exemplar-trace directory and its retention cap.
    pub fn set_trace_dir(&mut self, dir: PathBuf, retain: usize) {
        self.router.set_trace_dir(dir, retain);
    }

    /// Configures the fixed slow-request exemplar threshold (`None` =
    /// promote above the rolling p99 of the request type).
    pub fn set_slow_threshold(&mut self, threshold: Option<Duration>) {
        self.router.set_slow_threshold(threshold);
    }

    /// Appends one metrics snapshot to the `top` time-series ring. The
    /// facade has no sampler thread; tests and embedders beat it
    /// manually.
    pub fn sample_metrics(&mut self) {
        self.router.sample_tick();
    }

    /// Replays the snapshot in the configured state directory, if any.
    /// Returns the number of programs restored. Torn or corrupt
    /// snapshots are discarded (the daemon starts cold), never fatal.
    pub fn restore_state(&mut self) -> usize {
        restore_state(&self.router)
    }

    /// Handles one request line; returns the response line and whether a
    /// shutdown was requested.
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        self.handle_line_queued(line, 0)
    }

    /// [`Server::handle_line`] with an externally measured queue wait
    /// (time the line spent buffered before handling), folded into the
    /// queue-wait histogram.
    pub fn handle_line_queued(&mut self, line: &str, queue_ns: u64) -> (String, bool) {
        let (tx, rx) = std::sync::mpsc::channel();
        let shutdown = match route_line(&self.router, line, queue_ns, &tx) {
            Routed::Done => false,
            Routed::Shutdown {
                request_id,
                started,
            } => {
                // The facade acknowledges without draining: its caller
                // owns the sessions' lifetime (and tests rely on drop
                // *not* flushing state, as a crash stand-in).
                self.router.finish_shutdown(request_id, started, &tx);
                true
            }
        };
        let response = rx.recv().expect("every routed request is answered");
        self.router.reply_flushed();
        // Persist synchronously: the facade has no snapshot-writer
        // thread, and callers expect state on disk when the call
        // returns (kill -9 determinism).
        self.router.persist_once();
        (response, shutdown)
    }

    /// Number of live (hash-distinct) sessions.
    pub fn loaded_sessions(&self) -> usize {
        self.router.snapshot().sessions.len()
    }

    /// Total sessions evicted by the LRU bound or the idle sweep.
    pub fn session_evictions(&self) -> u64 {
        self.router.snapshot().session_evictions
    }

    /// Total sessions quarantined after a panic.
    pub fn quarantined_sessions(&self) -> u64 {
        self.router.snapshot().quarantines
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Join the actor threads, but do *not* persist: dropping the
        // facade is the tests' crash stand-in, and the daemon path
        // persists explicitly before its router is dropped.
        self.router.drain_actors();
    }
}

/// Runs the daemon: binds `opts.socket` (and `opts.tcp`, when set),
/// serves connections concurrently until a `shutdown` request arrives,
/// then removes the socket file.
///
/// # Errors
///
/// Fails when a listener cannot be bound. Per-connection I/O errors are
/// logged and do not stop the daemon; failed `accept`s back off
/// exponentially (capped at 1s) and are counted in `status` under
/// `accept_errors`.
pub fn run(opts: &ServeOptions) -> std::io::Result<()> {
    if opts.socket.exists() {
        // Only reclaim the path if nothing is listening on it: unlinking
        // a live daemon's socket would strand it (and its warm sessions)
        // unreachable forever.
        if UnixStream::connect(&opts.socket).is_ok() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!("a daemon is already serving on {}", opts.socket.display()),
            ));
        }
        // A previous daemon crashed or was killed: reclaim the path.
        std::fs::remove_file(&opts.socket)?;
    }
    let listener = UnixListener::bind(&opts.socket)?;
    let tcp_listener = match &opts.tcp {
        Some(addr) => Some(TcpListener::bind(addr)?),
        None => None,
    };
    if opts.log {
        let bound = match opts.limits.max_sessions {
            Some(n) => format!(", max {n} sessions"),
            None => String::new(),
        };
        let tcp = match &tcp_listener {
            Some(l) => match l.local_addr() {
                Ok(addr) => format!(" and tcp {addr}"),
                Err(_) => " and tcp".to_string(),
            },
            None => String::new(),
        };
        eprintln!(
            "qb-serve: listening on {}{tcp} (backend {}, {:?}{bound})",
            opts.socket.display(),
            opts.verify.backend,
            opts.verify.simplify
        );
    }
    let router = Arc::new(Router::new(opts.verify, opts.limits));
    if let Some(dir) = &opts.trace_dir {
        router.set_trace_dir(dir.clone(), opts.trace_retain);
    }
    router.set_slow_threshold(opts.slow_threshold);
    if let Some(path) = &opts.log_file {
        if let Err(e) = router.set_log_file(path) {
            eprintln!(
                "qb-serve: cannot open request log {} ({e}); continuing without one",
                path.display()
            );
        }
    }
    if let Some(dir) = &opts.state_dir {
        router.set_state_dir(Some(dir.clone()));
        let restored = restore_state(&router);
        if opts.log && restored > 0 {
            eprintln!(
                "qb-serve: restored {restored} program(s) from {}",
                dir.display()
            );
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    router.set_gate(ShutdownGate {
        stop: Arc::clone(&stop),
        socket: opts.socket.clone(),
        tcp: tcp_listener.as_ref().and_then(|l| l.local_addr().ok()),
    });
    let snapshot_writer = spawn_snapshot_writer(&router);
    let sampler = spawn_sampler(&router, opts.sample_interval);
    let tcp_thread = tcp_listener.map(|listener| {
        let router = Arc::clone(&router);
        let stop = Arc::clone(&stop);
        let log = opts.log;
        std::thread::Builder::new()
            .name("qb-accept-tcp".into())
            .spawn(move || accept_loop(Listener::Tcp(listener), &router, &stop, log))
            .expect("spawn tcp accept loop")
    });
    accept_loop(Listener::Unix(listener), &router, &stop, opts.log);
    if let Some(thread) = tcp_thread {
        let _ = thread.join();
    }
    // The shutdown acknowledgement (and any other in-flight response)
    // is flushed by a per-connection writer thread; don't let process
    // exit truncate it mid-write.
    router.wait_replies_flushed(Duration::from_secs(5));
    router.stop_snapshot_writer();
    let _ = snapshot_writer.join();
    router.stop_sampler();
    let _ = sampler.join();
    let _ = std::fs::remove_file(&opts.socket);
    if opts.log {
        eprintln!("qb-serve: shut down");
    }
    Ok(())
}

/// A bound listener of either transport.
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn transport(&self) -> &'static str {
        match self {
            Listener::Unix(_) => "unix",
            Listener::Tcp(_) => "tcp",
        }
    }

    /// Accepts one connection and spawns the thread that serves it.
    fn accept_and_serve(&self, router: &Arc<Router>, log: bool) -> std::io::Result<()> {
        type Halves = (Box<dyn Read + Send>, Box<dyn Write + Send>, Framing);
        let (reader, writer, framing): Halves = match self {
            Listener::Unix(listener) => {
                let (stream, _) = listener.accept()?;
                let reader = stream.try_clone()?;
                (Box::new(reader), Box::new(stream), Framing::Newline)
            }
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                let _ = stream.set_nodelay(true);
                let reader = stream.try_clone()?;
                (Box::new(reader), Box::new(stream), Framing::LengthPrefixed)
            }
        };
        let router = Arc::clone(router);
        std::thread::Builder::new()
            .name(format!("qb-conn-{}", self.transport()))
            .spawn(move || {
                if let Err(e) = serve_connection(reader, writer, framing, &router, log) {
                    eprintln!("qb-serve: connection error: {e}");
                }
            })?;
        Ok(())
    }
}

/// Accepts until the shutdown gate trips. A failed accept (EMFILE,
/// transient network errors) is counted and backed off exponentially —
/// 10ms doubling to a 1s cap, reset on the next success — instead of
/// spinning hot on a persistent error.
fn accept_loop(listener: Listener, router: &Arc<Router>, stop: &Arc<AtomicBool>, log: bool) {
    let floor = Duration::from_millis(10);
    let cap = Duration::from_secs(1);
    let mut backoff = floor;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept_and_serve(router, log) {
            Ok(()) => {
                backoff = floor;
                // The connection may be the shutdown gate's wake-up
                // poke; its reader sees EOF and exits on its own.
            }
            Err(e) => {
                router.note_accept_error();
                eprintln!(
                    "qb-serve: {} accept failed: {e}; retrying in {backoff:?}",
                    listener.transport()
                );
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(cap);
            }
        }
    }
}

/// Upper bound on one request line or frame (16 MiB). Program sources
/// are at most a few hundred KiB even at paper scale; anything larger is
/// a confused or malicious client, and buffering it unchecked would let
/// one connection exhaust the daemon's memory.
const MAX_REQUEST_LINE: u64 = 16 * 1024 * 1024;

/// How requests and responses are delimited on a connection:
/// newline-terminated JSON on the Unix socket, a u32 big-endian byte
/// length before each JSON payload on TCP.
#[derive(Clone, Copy)]
enum Framing {
    Newline,
    LengthPrefixed,
}

impl Framing {
    /// What one request is called in error messages.
    fn unit(self) -> &'static str {
        match self {
            Framing::Newline => "line",
            Framing::LengthPrefixed => "frame",
        }
    }

    /// Reads one request. `Ok(None)` is the client hanging up cleanly;
    /// `Ok(Some(Err(response)))` an oversized or non-UTF-8 request,
    /// already skipped so the stream stays in sync, with the error to
    /// answer it with.
    fn read(self, reader: &mut impl BufRead) -> std::io::Result<Option<Result<String, Json>>> {
        let oversized = || {
            coded_error_response(
                &format!("request {} exceeds {MAX_REQUEST_LINE} bytes", self.unit()),
                "oversized",
            )
        };
        let bytes = match self {
            Framing::Newline => {
                let mut buf = Vec::new();
                let mut capped = reader.by_ref().take(MAX_REQUEST_LINE + 1);
                if capped.read_until(b'\n', &mut buf)? == 0 {
                    return Ok(None);
                }
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                } else if buf.len() as u64 > MAX_REQUEST_LINE {
                    // The cap truncated the line mid-way: discard the
                    // rest of it so the stream resynchronises on the
                    // next newline.
                    drain_to_newline(reader)?;
                    return Ok(Some(Err(oversized())));
                }
                buf
            }
            Framing::LengthPrefixed => {
                let mut len = [0u8; 4];
                match reader.read_exact(&mut len) {
                    Ok(()) => {}
                    // A clean EOF between frames is the client hanging up.
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
                    Err(e) => return Err(e),
                }
                let len = u32::from_be_bytes(len) as u64;
                if len > MAX_REQUEST_LINE {
                    // The length prefix makes skipping the frame exact.
                    std::io::copy(&mut reader.by_ref().take(len), &mut std::io::sink())?;
                    return Ok(Some(Err(oversized())));
                }
                let mut payload = vec![0u8; len as usize];
                reader.read_exact(&mut payload)?;
                payload
            }
        };
        Ok(Some(String::from_utf8(bytes).map_err(|_| {
            coded_error_response(
                &format!("request {} is not valid UTF-8", self.unit()),
                "invalid_utf8",
            )
        })))
    }

    fn write(self, writer: &mut impl Write, line: &str) -> std::io::Result<()> {
        match self {
            Framing::Newline => {
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
            }
            Framing::LengthPrefixed => {
                writer.write_all(&(line.len() as u32).to_be_bytes())?;
                writer.write_all(line.as_bytes())?;
            }
        }
        writer.flush()
    }
}

/// Spawns the per-connection writer thread: responses are rendered on
/// whatever thread finished the request and arrive here via the reply
/// channel, in routing order for this connection. After a write error
/// the writer keeps draining (and acknowledging flushes — graceful
/// shutdown waits on that count) without touching the dead socket.
fn spawn_conn_writer<W: Write + Send + 'static>(
    mut writer: W,
    router: &Arc<Router>,
    framing: Framing,
) -> (crate::actor::ReplySender, std::thread::JoinHandle<()>) {
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let router = Arc::clone(router);
    let handle = std::thread::Builder::new()
        .name("qb-conn-writer".into())
        .spawn(move || {
            let mut healthy = true;
            for line in rx {
                if healthy {
                    healthy = framing.write(&mut writer, &line).is_ok();
                }
                router.reply_flushed();
            }
        })
        .expect("spawn connection writer");
    (tx, handle)
}

/// Routes one parsed-off-the-wire line, returning `true` when it was a
/// shutdown request (the connection stops reading afterwards).
fn route_one(
    router: &Arc<Router>,
    line: &str,
    queue_ns: u64,
    tx: &crate::actor::ReplySender,
    log: bool,
) -> bool {
    let t0 = Instant::now();
    let routed = route_line(router, line, queue_ns, tx);
    if log {
        let cmd = Json::parse(line)
            .ok()
            .and_then(|v| v.get("cmd").and_then(Json::as_str).map(String::from))
            .unwrap_or_else(|| "<malformed>".into());
        eprintln!("qb-serve: {cmd} routed in {:?}", t0.elapsed());
    }
    match routed {
        Routed::Done => false,
        Routed::Shutdown {
            request_id,
            started,
        } => {
            graceful_shutdown(router, request_id, started, tx);
            true
        }
    }
}

/// Serves one connection in either framing: reads requests, routes
/// them, and hands replies to the connection's writer thread.
///
/// Malformed input never drops the connection: an oversized request is
/// skipped and answered with an `"oversized"`-coded error, invalid UTF-8
/// with `"invalid_utf8"`, and the client can keep sending requests.
fn serve_connection(
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    framing: Framing,
    router: &Arc<Router>,
    log: bool,
) -> std::io::Result<()> {
    let (tx, writer_handle) = spawn_conn_writer(writer, router, framing);
    let mut reader = BufReader::new(reader);
    // Stamp of the last routed request (or connection start): a request
    // that was already buffered when it was taken has been queuing since
    // then.
    let mut idle_since = Instant::now();
    let result = loop {
        let pipelined = !reader.buffer().is_empty();
        let line = match framing.read(&mut reader) {
            Ok(Some(Ok(line))) => line,
            Ok(Some(Err(response))) => {
                router.send_reply(&tx, response.to_string());
                continue;
            }
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        // A pipelined request sat in the read buffer while earlier ones
        // were routed; an idle connection's request waited ~nothing.
        let queue_ns = if pipelined {
            idle_since.elapsed().as_nanos() as u64
        } else {
            0
        };
        let shutdown = route_one(router, &line, queue_ns, &tx, log);
        idle_since = Instant::now();
        if shutdown {
            break Ok(());
        }
    };
    drop(tx); // close the reply channel so the writer drains and exits
    let _ = writer_handle.join();
    result
}

/// Discards bytes up to and including the next newline (or EOF), in
/// bounded chunks so an adversarial endless line cannot pin memory.
fn drain_to_newline(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let mut chunk: Vec<u8> = Vec::new();
        let n = reader
            .by_ref()
            .take(1 << 20)
            .read_until(b'\n', &mut chunk)?;
        if n == 0 || chunk.last() == Some(&b'\n') {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(v: &Json) -> bool {
        v.get("ok").and_then(Json::as_bool) == Some(true)
    }

    fn handle(server: &mut Server, line: &str) -> Json {
        let (resp, _) = server.handle_line(line);
        Json::parse(&resp).unwrap()
    }

    const GOOD: &str = "borrow@ q[4]; borrow a; CCNOT[q[1], q[2], a]; CCNOT[a, q[3], q[4]]; \
                        CCNOT[q[1], q[2], a]; CCNOT[a, q[3], q[4]]; release a;";
    const BROKEN: &str = "borrow@ q[4]; borrow a; CCNOT[q[1], q[2], a]; CCNOT[a, q[3], q[4]]; \
                          CCNOT[q[1], q[2], a];";

    #[test]
    fn load_verify_edit_cycle() {
        let mut server = Server::new(VerifyOptions::default());
        let load = handle(
            &mut server,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load), "{load}");
        assert_eq!(load.get("qubits").unwrap().as_i64(), Some(5));
        assert_eq!(load.get("reused").unwrap().as_bool(), Some(false));

        let verify = handle(
            &mut server,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&verify));
        assert_eq!(verify.get("all_safe").unwrap().as_bool(), Some(true));

        let edit = handle(
            &mut server,
            &Request::Edit {
                name: "cccnot".into(),
                source: BROKEN.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&edit), "{edit}");
        assert_eq!(edit.get("strategy").unwrap().as_str(), Some("incremental"));
        assert_eq!(edit.get("common_prefix").unwrap().as_i64(), Some(3));

        let verify = handle(
            &mut server,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&verify));
        assert_eq!(verify.get("all_safe").unwrap().as_bool(), Some(false));
        assert_eq!(server.loaded_sessions(), 1, "edit rekeys, not duplicates");
    }

    #[test]
    fn responses_carry_monotonic_request_ids() {
        let mut server = Server::new(VerifyOptions::default());
        let first = handle(&mut server, &Request::Status.to_line());
        let second = handle(&mut server, &Request::Status.to_line());
        let id = |v: &Json| v.get("request_id").and_then(Json::as_i64).unwrap();
        assert_eq!(id(&second), id(&first) + 1);
        // Even malformed requests are metered and stamped.
        let bad = handle(&mut server, "not json");
        assert_eq!(id(&bad), id(&second) + 1);
    }

    #[test]
    fn metrics_request_returns_prometheus_text() {
        let mut server = Server::new(VerifyOptions::default());
        let load = handle(
            &mut server,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load), "{load}");
        let verify = handle(
            &mut server,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&verify), "{verify}");
        let metrics = handle(&mut server, &Request::Metrics.to_line());
        assert!(ok(&metrics), "{metrics}");
        let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
        // Request latency histograms and solver-phase counters both
        // surface in the exposition (the registry is process-global, so
        // other tests only ever add to these series).
        assert!(
            text.contains("qb_request_handle_seconds_bucket"),
            "missing request-latency histogram:\n{text}"
        );
        assert!(
            text.contains("qb_solver_propagations_total"),
            "missing solver counters:\n{text}"
        );
        assert!(
            text.contains("qb_target_latency_seconds_count"),
            "missing session target-latency histogram:\n{text}"
        );
    }

    #[test]
    fn top_reports_rates_and_sessions_once_two_samples_exist() {
        let mut server = Server::new(VerifyOptions::default());
        let load = handle(
            &mut server,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load), "{load}");

        // No samples yet: the dashboard answers, but with null rates.
        let top = handle(&mut server, &Request::Top.to_line());
        assert!(ok(&top), "{top}");
        assert_eq!(top.get("samples").and_then(Json::as_i64), Some(0));
        assert!(matches!(
            top.get("rates").and_then(|r| r.get("req_per_s")),
            Some(Json::Null)
        ));

        server.sample_metrics();
        let verify = handle(
            &mut server,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&verify), "{verify}");
        std::thread::sleep(std::time::Duration::from_millis(2));
        server.sample_metrics();

        let top = handle(&mut server, &Request::Top.to_line());
        assert!(ok(&top), "{top}");
        assert!(top.get("samples").and_then(Json::as_i64).unwrap() >= 2);
        let verify_rate = top
            .get("rates")
            .and_then(|r| r.get("verify_per_s"))
            .and_then(Json::as_f64)
            .expect("verify rate should be computable from two samples");
        assert!(verify_rate > 0.0, "one verify between samples: {top}");
        let sessions = top.get("sessions").and_then(Json::as_arr).unwrap();
        assert_eq!(sessions.len(), 1);
        assert_eq!(
            sessions[0].get("queue_depth").and_then(Json::as_i64),
            Some(0)
        );
        assert!(top.get("request_types").and_then(Json::as_arr).is_some());
        assert!(top.get("recorder").is_some(), "{top}");
    }

    #[test]
    fn trace_request_replays_a_recorded_verify() {
        let mut server = Server::new(VerifyOptions::default());
        let load = handle(
            &mut server,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load), "{load}");
        let verify = handle(
            &mut server,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&verify), "{verify}");
        let rid = verify.get("request_id").and_then(Json::as_i64).unwrap();

        let fetched = handle(
            &mut server,
            &Request::Trace {
                request_id: rid as u64,
            }
            .to_line(),
        );
        assert!(ok(&fetched), "{fetched}");
        assert_eq!(
            fetched.get("trace_request_id").and_then(Json::as_i64),
            Some(rid)
        );
        assert_eq!(
            fetched.get("trace_cmd").and_then(Json::as_str),
            Some("verify")
        );
        let trace = fetched.get("trace").and_then(Json::as_str).unwrap();
        assert!(
            trace.contains("\"sweep\""),
            "verify spans captured: {trace}"
        );

        // Never-issued ids are a coded error, not a panic.
        let missing = handle(
            &mut server,
            &Request::Trace {
                request_id: 999_999,
            }
            .to_line(),
        );
        assert!(!ok(&missing));
        assert_eq!(
            missing.get("code").and_then(Json::as_str),
            Some("not_recorded")
        );
    }

    #[test]
    fn traced_verify_returns_balanced_chrome_trace() {
        let mut server = Server::new(VerifyOptions::default());
        let load = handle(
            &mut server,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load), "{load}");
        let verify = handle(
            &mut server,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: None,
                trace: true,
            }
            .to_line(),
        );
        assert!(ok(&verify), "{verify}");
        let trace = verify.get("trace").and_then(Json::as_str).unwrap();
        let parsed = Json::parse(trace).expect("trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "traced sweep recorded no spans");
        let begins = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("E"))
            .count();
        assert_eq!(begins, ends, "unbalanced B/E events");
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("sweep")),
            "missing sweep span"
        );
        // The untraced latency fields ride along too.
        assert!(verify.get("target_p95_us").and_then(Json::as_i64).is_some());
    }

    #[test]
    fn request_log_appends_one_json_line_per_request() {
        let dir = std::env::temp_dir().join(format!("qb-reqlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("requests.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut server = Server::new(VerifyOptions::default());
        server.set_log_file(&path).unwrap();
        handle(&mut server, &Request::Status.to_line());
        handle(&mut server, &Request::Metrics.to_line());
        let data = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = data.lines().collect();
        assert_eq!(lines.len(), 2, "{data}");
        for (line, cmd) in lines.iter().zip(["status", "metrics"]) {
            let v = Json::parse(line).expect("log line is JSON");
            assert_eq!(v.get("cmd").and_then(Json::as_str), Some(cmd));
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
            assert!(v.get("handle_ns").and_then(Json::as_i64).is_some());
            assert!(v.get("queue_ns").and_then(Json::as_i64).is_some());
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn structurally_identical_loads_share_one_session() {
        let mut server = Server::new(VerifyOptions::default());
        let a = handle(
            &mut server,
            &Request::Load {
                name: "a".into(),
                source: "borrow x[2]; X[x[1]]; X[x[1]];".into(),
                backend: None,
            }
            .to_line(),
        );
        let b = handle(
            &mut server,
            &Request::Load {
                name: "b".into(),
                source: "// same circuit, different name\nborrow y[2]; for i = 1 to 2 { X[y[1]]; }"
                    .into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&a) && ok(&b));
        assert_eq!(a.get("hash"), b.get("hash"));
        assert_eq!(b.get("reused").unwrap().as_bool(), Some(true));
        assert_eq!(server.loaded_sessions(), 1);

        // Editing one alias forks rather than corrupting the other.
        let edit = handle(
            &mut server,
            &Request::Edit {
                name: "b".into(),
                source: "borrow y[2]; X[y[1]];".into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&edit));
        assert_eq!(edit.get("strategy").unwrap().as_str(), Some("reload"));
        assert_eq!(server.loaded_sessions(), 2);

        let unload = handle(&mut server, &Request::Unload { name: "a".into() }.to_line());
        assert!(ok(&unload));
        assert_eq!(server.loaded_sessions(), 1);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut server = Server::new(VerifyOptions::default());
        let (resp, shutdown) = server.handle_line("{\"cmd\":");
        assert!(!shutdown);
        assert!(resp.contains("malformed"));

        let bad = handle(
            &mut server,
            &Request::Load {
                name: "bad".into(),
                source: "borrow a; X[zzz];".into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(!ok(&bad));

        let missing = handle(
            &mut server,
            &Request::Verify {
                name: "ghost".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(!ok(&missing));

        let edit_unloaded = handle(
            &mut server,
            &Request::Edit {
                name: "ghost".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(!ok(&edit_unloaded));

        // The server still works.
        let load = handle(
            &mut server,
            &Request::Load {
                name: "ok".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load));
    }

    #[test]
    fn edit_changing_layout_reloads() {
        let mut server = Server::new(VerifyOptions::default());
        handle(
            &mut server,
            &Request::Load {
                name: "p".into(),
                source: "borrow a[2]; X[a[1]];".into(),
                backend: None,
            }
            .to_line(),
        );
        let edit = handle(
            &mut server,
            &Request::Edit {
                name: "p".into(),
                source: "borrow a[3]; X[a[1]];".into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&edit), "{edit}");
        assert_eq!(edit.get("strategy").unwrap().as_str(), Some("reload"));
        assert_eq!(edit.get("qubits").unwrap().as_i64(), Some(3));
    }

    #[test]
    fn backends_get_separate_sessions_and_status_reports_them() {
        let mut server = Server::new(VerifyOptions::default());
        for (name, backend) in [("s", None), ("b", Some("bdd")), ("a", Some("auto"))] {
            let load = handle(
                &mut server,
                &Request::Load {
                    name: name.into(),
                    source: GOOD.into(),
                    backend: backend.map(str::to_string),
                }
                .to_line(),
            );
            assert!(ok(&load), "{load}");
        }
        // Same structural hash, three backends: three warm sessions.
        assert_eq!(server.loaded_sessions(), 3);

        // Every backend agrees on the verdict; the BDD session reports
        // resident diagram nodes and no SAT state.
        for name in ["s", "b", "a"] {
            let verify = handle(
                &mut server,
                &Request::Verify {
                    name: name.into(),
                    targets: None,
                    deadline_ms: None,
                    trace: false,
                }
                .to_line(),
            );
            assert!(ok(&verify), "{verify}");
            assert_eq!(verify.get("all_safe").and_then(Json::as_bool), Some(true));
        }
        let status = handle(&mut server, &Request::Status.to_line());
        let programs = status.get("programs").and_then(Json::as_arr).unwrap();
        let by_name = |n: &str| {
            programs
                .iter()
                .find(|p| p.get("name").and_then(Json::as_str) == Some(n))
                .unwrap()
        };
        assert_eq!(
            by_name("s").get("backend").and_then(Json::as_str),
            Some("sat")
        );
        assert_eq!(
            by_name("b").get("backend").and_then(Json::as_str),
            Some("bdd")
        );
        assert_eq!(
            by_name("a").get("backend").and_then(Json::as_str),
            Some("auto")
        );
        assert!(
            by_name("b")
                .get("bdd_resident_nodes")
                .and_then(Json::as_i64)
                > Some(0)
        );
        assert_eq!(
            by_name("b").get("solver_vars").and_then(Json::as_i64),
            Some(0)
        );
        assert_eq!(
            by_name("s")
                .get("bdd_resident_nodes")
                .and_then(Json::as_i64),
            Some(0)
        );
        assert!(status.get("resident_bdd_nodes").and_then(Json::as_i64) > Some(0));

        // A backend-less reload of an unchanged program is sticky: the
        // warm BDD session is re-used, not rebuilt on the daemon default.
        let reload = handle(
            &mut server,
            &Request::Load {
                name: "b".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&reload), "{reload}");
        assert_eq!(reload.get("reused").and_then(Json::as_bool), Some(true));
        assert_eq!(reload.get("backend").and_then(Json::as_str), Some("bdd"));
        assert_eq!(server.loaded_sessions(), 3);

        // ...and stickiness follows the name even when the source
        // changed: a backend-less load of an edited program stays on
        // the name's backend instead of reverting to the default.
        let changed = handle(
            &mut server,
            &Request::Load {
                name: "b".into(),
                source: format!("{GOOD} X[q[1]]; X[q[1]];"),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&changed), "{changed}");
        assert_eq!(changed.get("backend").and_then(Json::as_str), Some("bdd"));
        // Restore the original source for the steps below.
        let restore = handle(
            &mut server,
            &Request::Load {
                name: "b".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert_eq!(restore.get("backend").and_then(Json::as_str), Some("bdd"));

        // Editing the BDD alias stays incremental on its own backend.
        let edit = handle(
            &mut server,
            &Request::Edit {
                name: "b".into(),
                source: BROKEN.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&edit), "{edit}");
        assert_eq!(edit.get("strategy").unwrap().as_str(), Some("incremental"));
        assert_eq!(edit.get("backend").unwrap().as_str(), Some("bdd"));
        let verify = handle(
            &mut server,
            &Request::Verify {
                name: "b".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert_eq!(verify.get("all_safe").and_then(Json::as_bool), Some(false));

        // An unknown backend is rejected with the valid list.
        let bad = handle(
            &mut server,
            &Request::Load {
                name: "x".into(),
                source: GOOD.into(),
                backend: Some("cvc5".into()),
            }
            .to_line(),
        );
        assert!(!ok(&bad));
        assert!(
            bad.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("sat, anf, bdd, auto"),
            "{bad}"
        );
    }

    #[test]
    fn lru_bound_evicts_least_recently_used_session() {
        let mut server = Server::with_limits(
            VerifyOptions::default(),
            ServerLimits {
                max_sessions: Some(2),
                ..ServerLimits::default()
            },
        );
        let srcs = [
            ("p1", "borrow a[2]; X[a[1]];"),
            ("p2", "borrow a[2]; X[a[2]];"),
            ("p3", "borrow a[2]; CNOT[a[1], a[2]];"),
            ("p4", "borrow a[3]; X[a[1]];"),
        ];
        for (name, src) in &srcs[..2] {
            let load = handle(
                &mut server,
                &Request::Load {
                    name: (*name).into(),
                    source: (*src).into(),
                    backend: None,
                }
                .to_line(),
            );
            assert!(ok(&load));
        }
        assert_eq!(server.loaded_sessions(), 2);

        // Third distinct program evicts the least-recently-used (p1).
        let load = handle(
            &mut server,
            &Request::Load {
                name: "p3".into(),
                source: srcs[2].1.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load));
        assert_eq!(server.loaded_sessions(), 2);
        assert_eq!(server.session_evictions(), 1);
        let gone = handle(
            &mut server,
            &Request::Verify {
                name: "p1".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(!ok(&gone));
        assert_eq!(gone.get("code").and_then(Json::as_str), Some("not_loaded"));

        // Touch p2, then load p4: p3 is now the LRU victim, p2 survives.
        let v2 = handle(
            &mut server,
            &Request::Verify {
                name: "p2".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&v2));
        let load = handle(
            &mut server,
            &Request::Load {
                name: "p4".into(),
                source: srcs[3].1.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load));
        let p3 = handle(
            &mut server,
            &Request::Verify {
                name: "p3".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(!ok(&p3), "p3 was the least recently used");
        let p2 = handle(
            &mut server,
            &Request::Verify {
                name: "p2".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&p2), "recently touched p2 stays warm");

        let status = handle(&mut server, &Request::Status.to_line());
        assert_eq!(status.get("max_sessions").and_then(Json::as_i64), Some(2));
        assert_eq!(
            status.get("session_evictions").and_then(Json::as_i64),
            Some(2)
        );
        assert!(status.get("resident_arena_nodes").and_then(Json::as_i64) > Some(0));
    }

    #[test]
    fn aliases_share_the_lru_slot_and_fall_together() {
        let mut server = Server::with_limits(
            VerifyOptions::default(),
            ServerLimits {
                max_sessions: Some(1),
                ..ServerLimits::default()
            },
        );
        // Two names, one structure: a single session, no eviction.
        handle(
            &mut server,
            &Request::Load {
                name: "a".into(),
                source: "borrow x[2]; X[x[1]]; X[x[1]];".into(),
                backend: None,
            }
            .to_line(),
        );
        handle(
            &mut server,
            &Request::Load {
                name: "b".into(),
                source: "borrow y[2]; X[y[1]]; X[y[1]];".into(),
                backend: None,
            }
            .to_line(),
        );
        assert_eq!(server.loaded_sessions(), 1);
        assert_eq!(server.session_evictions(), 0);

        // A structurally new load evicts the shared session and both
        // aliases with it.
        handle(
            &mut server,
            &Request::Load {
                name: "c".into(),
                source: "borrow z[2]; CNOT[z[1], z[2]];".into(),
                backend: None,
            }
            .to_line(),
        );
        assert_eq!(server.loaded_sessions(), 1);
        for name in ["a", "b"] {
            let r = handle(
                &mut server,
                &Request::Verify {
                    name: name.into(),
                    targets: None,
                    deadline_ms: None,
                    trace: false,
                }
                .to_line(),
            );
            assert_eq!(r.get("code").and_then(Json::as_str), Some("not_loaded"));
        }
    }

    #[test]
    fn idle_sessions_are_swept() {
        let mut server = Server::with_limits(
            VerifyOptions::default(),
            ServerLimits {
                idle_timeout: Some(std::time::Duration::from_millis(25)),
                ..ServerLimits::default()
            },
        );
        let load = handle(
            &mut server,
            &Request::Load {
                name: "p".into(),
                source: "borrow a[2]; X[a[1]];".into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load));
        assert_eq!(server.loaded_sessions(), 1);

        // Still fresh: a status round-trip does not evict it.
        let status = handle(&mut server, &Request::Status.to_line());
        assert_eq!(status.get("sessions").and_then(Json::as_i64), Some(1));

        std::thread::sleep(std::time::Duration::from_millis(40));
        // Any request triggers the sweep afterwards.
        let _ = handle(&mut server, &Request::Status.to_line());
        assert_eq!(server.loaded_sessions(), 0);
        assert_eq!(server.session_evictions(), 1);
        let gone = handle(
            &mut server,
            &Request::Verify {
                name: "p".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert_eq!(gone.get("code").and_then(Json::as_str), Some("not_loaded"));
    }

    #[test]
    fn shutdown_is_signalled() {
        let mut server = Server::new(VerifyOptions::default());
        let (resp, shutdown) = server.handle_line(&Request::Shutdown.to_line());
        assert!(shutdown);
        assert!(resp.contains("\"shutdown\":true"));
    }

    /// Failpoints are process-global; the tests that arm one (or could
    /// trip an armed one via an installed cancel token) serialise here.
    static FAILPOINT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn expired_deadline_returns_unknowns_and_daemon_stays_responsive() {
        let _guard = FAILPOINT_LOCK.lock().unwrap();
        let mut server = Server::new(VerifyOptions::default());
        let load = handle(
            &mut server,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load), "{load}");

        // A zero budget is already expired at sweep entry: every target
        // must come back as a structured unknown, never a fake verdict.
        let bounded = handle(
            &mut server,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: Some(0),
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&bounded), "{bounded}");
        assert_eq!(bounded.get("all_safe").and_then(Json::as_bool), Some(false));
        let verdicts = bounded.get("verdicts").and_then(Json::as_arr).unwrap();
        assert!(!verdicts.is_empty());
        for v in verdicts {
            assert_eq!(v.get("verdict").and_then(Json::as_str), Some("unknown"));
            assert_eq!(v.get("safe").and_then(Json::as_bool), Some(false));
            assert!(v.get("reason").and_then(Json::as_str).is_some(), "{v}");
            assert!(v.get("witness").is_none(), "an unknown carries no witness");
        }
        assert_eq!(
            bounded.get("unknowns").and_then(Json::as_usize),
            Some(verdicts.len())
        );

        // The session survived the interruption: an unbounded re-verify
        // on the same warm session reaches the true verdict.
        let full = handle(
            &mut server,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&full), "{full}");
        assert_eq!(full.get("all_safe").and_then(Json::as_bool), Some(true));
        assert_eq!(full.get("unknowns").and_then(Json::as_usize), Some(0));
    }

    /// `queue_ns` is the wait before the actor dequeued the request, not
    /// the time to its reply: a slowed verify on an idle mailbox queues
    /// for microseconds while its handle time carries the whole delay.
    #[test]
    fn queue_ns_excludes_handle_time() {
        let _guard = FAILPOINT_LOCK.lock().unwrap();
        let mut server = Server::new(VerifyOptions::default());
        let load = handle(
            &mut server,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load), "{load}");
        // Every hit, not one-shot: a verify in a test that does not hold
        // the lock must not use the delay up.
        qb_testutil::failpoints::arm(
            "slow_solve",
            qb_testutil::failpoints::Action::Delay(150),
            None,
        );
        let verify = handle(
            &mut server,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        qb_testutil::failpoints::clear("slow_solve");
        assert!(ok(&verify), "{verify}");
        let ns = |key: &str| verify.get(key).and_then(Json::as_i64).unwrap();
        assert!(ns("handle_ns") >= 150_000_000, "{verify}");
        assert!(ns("queue_ns") * 10 < ns("handle_ns"), "{verify}");
    }

    #[test]
    fn default_deadline_applies_when_request_has_none() {
        let _guard = FAILPOINT_LOCK.lock().unwrap();
        let mut server = Server::with_limits(
            VerifyOptions::default(),
            ServerLimits {
                default_deadline: Some(Duration::ZERO),
                ..ServerLimits::default()
            },
        );
        handle(
            &mut server,
            &Request::Load {
                name: "p".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        let bounded = handle(
            &mut server,
            &Request::Verify {
                name: "p".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&bounded), "{bounded}");
        assert!(bounded.get("unknowns").and_then(Json::as_usize) > Some(0));
        let status = handle(&mut server, &Request::Status.to_line());
        assert_eq!(
            status.get("default_deadline_ms").and_then(Json::as_i64),
            Some(0)
        );
    }

    #[test]
    fn panicking_session_is_quarantined_and_rebuilt() {
        let _guard = FAILPOINT_LOCK.lock().unwrap();
        let mut server = Server::new(VerifyOptions::default());
        let load = handle(
            &mut server,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load));

        // Arm a one-shot panic on the cancellation-injection site (it is
        // polled once per target when a token is installed, so a bounded
        // verify deterministically reaches it).
        qb_testutil::failpoints::arm(
            "spurious_cancel",
            qb_testutil::failpoints::Action::Panic,
            Some(1),
        );
        let poisoned = handle(
            &mut server,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: Some(60_000),
                trace: false,
            }
            .to_line(),
        );
        qb_testutil::failpoints::clear("spurious_cancel");
        assert!(!ok(&poisoned), "{poisoned}");
        assert_eq!(
            poisoned.get("code").and_then(Json::as_str),
            Some("internal_error")
        );
        assert_eq!(
            poisoned.get("quarantined").and_then(Json::as_str),
            Some("cccnot")
        );
        assert_eq!(poisoned.get("rebuilt").and_then(Json::as_bool), Some(true));
        assert_eq!(server.quarantined_sessions(), 1);

        // The rebuilt session answers correctly and the daemon never
        // stopped serving.
        let verify = handle(
            &mut server,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&verify), "{verify}");
        assert_eq!(verify.get("all_safe").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn status_surfaces_health_and_shed_counters() {
        let mut server = Server::new(VerifyOptions::default());
        let status = handle(&mut server, &Request::Status.to_line());
        assert!(ok(&status), "{status}");
        assert_eq!(status.get("health").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            status.get("queued_requests").and_then(Json::as_i64),
            Some(0)
        );
        assert_eq!(status.get("queue_budget").and_then(Json::as_i64), Some(256));
        assert_eq!(status.get("sheds_total").and_then(Json::as_i64), Some(0));
        assert_eq!(status.get("breakers_open").and_then(Json::as_i64), Some(0));
        // Every shed reason is pre-listed at zero so dashboards see a
        // stable key set.
        let sheds = status.get("sheds").expect("sheds object");
        for reason in ["mailbox_full", "deadline", "brownout", "breaker"] {
            assert_eq!(
                sheds.get(reason).and_then(Json::as_i64),
                Some(0),
                "{reason}"
            );
        }
    }

    #[test]
    fn circuit_breaker_trips_fast_fails_and_recovers_via_probe() {
        let _guard = FAILPOINT_LOCK.lock().unwrap();
        let limits = ServerLimits {
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(50),
            ..ServerLimits::default()
        };
        let mut server = Server::with_limits(VerifyOptions::default(), limits);
        let load = handle(
            &mut server,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load));
        let verify_line = Request::Verify {
            name: "cccnot".into(),
            targets: None,
            deadline_ms: Some(60_000),
            trace: false,
        }
        .to_line();

        // Two crashing verifies: each panics inside the session and is
        // quarantine-rebuilt; the second strike trips the breaker.
        for _ in 0..2 {
            qb_testutil::failpoints::arm(
                "spurious_cancel",
                qb_testutil::failpoints::Action::Panic,
                Some(1),
            );
            let poisoned = handle(&mut server, &verify_line);
            assert_eq!(
                poisoned.get("code").and_then(Json::as_str),
                Some("internal_error"),
                "{poisoned}"
            );
        }
        qb_testutil::failpoints::clear("spurious_cancel");

        // Open breaker: verifies fast-fail `unavailable` with a sane
        // retry hint, without touching the session.
        let shed = handle(&mut server, &verify_line);
        assert_eq!(
            shed.get("code").and_then(Json::as_str),
            Some("unavailable"),
            "{shed}"
        );
        let retry = shed
            .get("retry_after_ms")
            .and_then(Json::as_i64)
            .unwrap_or(-1);
        assert!((1..=60_000).contains(&retry), "{shed}");

        // The shed is visible in status: breaker counter and open count.
        let status = handle(&mut server, &Request::Status.to_line());
        assert_eq!(status.get("breakers_open").and_then(Json::as_i64), Some(1));
        assert!(
            status
                .get("sheds")
                .and_then(|s| s.get("breaker"))
                .and_then(Json::as_i64)
                .unwrap_or(0)
                >= 1,
            "{status}"
        );

        // After the cooldown one half-open probe is admitted; a probe
        // that crashes re-opens the breaker immediately.
        std::thread::sleep(Duration::from_millis(60));
        qb_testutil::failpoints::arm(
            "spurious_cancel",
            qb_testutil::failpoints::Action::Panic,
            Some(1),
        );
        let failed_probe = handle(&mut server, &verify_line);
        qb_testutil::failpoints::clear("spurious_cancel");
        assert_eq!(
            failed_probe.get("code").and_then(Json::as_str),
            Some("internal_error"),
            "{failed_probe}"
        );
        let shed_again = handle(&mut server, &verify_line);
        assert_eq!(
            shed_again.get("code").and_then(Json::as_str),
            Some("unavailable"),
            "{shed_again}"
        );

        // A clean probe after the next cooldown closes the breaker for
        // good.
        std::thread::sleep(Duration::from_millis(60));
        let probe = handle(&mut server, &verify_line);
        assert!(ok(&probe), "{probe}");
        let verify = handle(&mut server, &verify_line);
        assert!(ok(&verify), "{verify}");
        let status = handle(&mut server, &Request::Status.to_line());
        assert_eq!(status.get("breakers_open").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn edit_closes_an_open_breaker() {
        let _guard = FAILPOINT_LOCK.lock().unwrap();
        let limits = ServerLimits {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(3600),
            ..ServerLimits::default()
        };
        let mut server = Server::with_limits(VerifyOptions::default(), limits);
        let load = handle(
            &mut server,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load));
        let verify_line = Request::Verify {
            name: "cccnot".into(),
            targets: None,
            deadline_ms: Some(60_000),
            trace: false,
        }
        .to_line();
        qb_testutil::failpoints::arm(
            "spurious_cancel",
            qb_testutil::failpoints::Action::Panic,
            Some(1),
        );
        let poisoned = handle(&mut server, &verify_line);
        qb_testutil::failpoints::clear("spurious_cancel");
        assert_eq!(
            poisoned.get("code").and_then(Json::as_str),
            Some("internal_error")
        );
        let shed = handle(&mut server, &verify_line);
        assert_eq!(shed.get("code").and_then(Json::as_str), Some("unavailable"));

        // Edits pass the breaker — replacing the program is the likely
        // fix for a crashing session — and a clean edit closes it with
        // no cooldown wait (the cooldown above is an hour).
        let edit = handle(
            &mut server,
            &Request::Edit {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&edit), "{edit}");
        let verify = handle(&mut server, &verify_line);
        assert!(ok(&verify), "{verify}");
    }

    #[test]
    fn responses_carry_daemon_health() {
        let mut server = Server::new(VerifyOptions::default());
        let load = handle(
            &mut server,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        // Every response is stamped with the daemon health so clients
        // (notably `watch`) can back off without a status round-trip.
        assert_eq!(load.get("health").and_then(Json::as_str), Some("ok"));
    }

    fn temp_state_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qb-serve-{tag}-{}", std::process::id()))
    }

    // The snapshot tests write state files, so they hold
    // FAILPOINT_LOCK: a write racing `snapshot_write_failure_is_not_fatal`
    // would use up its one-shot `snapshot_write` failpoint.
    #[test]
    fn snapshot_restores_programs_backends_and_auto_winners() {
        let _guard = FAILPOINT_LOCK.lock().unwrap();
        let dir = temp_state_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let mut first = Server::new(VerifyOptions::default());
        first.set_state_dir(Some(dir.clone()));
        let load = handle(
            &mut first,
            &Request::Load {
                name: "cccnot".into(),
                source: GOOD.into(),
                backend: Some("auto".into()),
            }
            .to_line(),
        );
        assert!(ok(&load), "{load}");
        // Learn the auto winner, then edit to the broken source: the
        // snapshot must retain the *post-edit* program.
        let verify = handle(
            &mut first,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&verify));
        let learned = verify
            .get("auto_preference")
            .and_then(Json::as_str)
            .map(String::from)
            .unwrap();
        let edit = handle(
            &mut first,
            &Request::Edit {
                name: "cccnot".into(),
                source: BROKEN.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&edit), "{edit}");
        drop(first); // crash stand-in: nothing flushed at drop

        let mut second = Server::new(VerifyOptions::default());
        second.set_state_dir(Some(dir.clone()));
        assert_eq!(second.restore_state(), 1);
        let status = handle(&mut second, &Request::Status.to_line());
        let programs = status.get("programs").and_then(Json::as_arr).unwrap();
        assert_eq!(programs.len(), 1);
        assert_eq!(
            programs[0].get("name").and_then(Json::as_str),
            Some("cccnot")
        );
        assert_eq!(
            programs[0].get("backend").and_then(Json::as_str),
            Some("auto")
        );
        if learned != "undecided" {
            assert!(
                status.get("auto_winners_remembered").and_then(Json::as_i64) > Some(0),
                "learned winner {learned:?} survives the restart: {status}"
            );
        }
        // The restored session re-verifies the edited program to the
        // same verdict the pre-crash daemon held.
        let verify = handle(
            &mut second,
            &Request::Verify {
                name: "cccnot".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        assert!(ok(&verify), "{verify}");
        assert_eq!(verify.get("all_safe").and_then(Json::as_bool), Some(false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_restores_learned_auto_rungs_without_relearning() {
        let _guard = FAILPOINT_LOCK.lock().unwrap();
        let dir = temp_state_dir("ladder");
        let _ = std::fs::remove_dir_all(&dir);
        // MCX stays on the ANF rung; the adder's carry chain overflows
        // the ANF cap once and settles on BDD.
        let programs = [
            ("mcx", qb_lang::mcx_source(64), "anf", 0),
            ("adder", qb_lang::adder_source(16), "bdd", 1),
        ];
        let auto_verify = |server: &mut Server, name: &str| {
            let verify = handle(
                server,
                &Request::Verify {
                    name: name.into(),
                    targets: None,
                    deadline_ms: None,
                    trace: false,
                }
                .to_line(),
            );
            assert!(ok(&verify), "{verify}");
            assert_eq!(verify.get("all_safe").and_then(Json::as_bool), Some(true));
            verify
        };
        let mut first = Server::new(VerifyOptions::default());
        first.set_state_dir(Some(dir.clone()));
        for (name, source, rung, demotions) in &programs {
            let load = handle(
                &mut first,
                &Request::Load {
                    name: (*name).into(),
                    source: source.clone(),
                    backend: Some("auto".into()),
                }
                .to_line(),
            );
            assert!(ok(&load), "{load}");
            let verify = auto_verify(&mut first, name);
            assert_eq!(
                verify.get("auto_preference").and_then(Json::as_str),
                Some(*rung),
                "{verify}"
            );
            assert_eq!(
                verify.get("anf_fallbacks").and_then(Json::as_i64),
                Some(*demotions),
                "{verify}"
            );
        }
        drop(first);

        let mut second = Server::new(VerifyOptions::default());
        second.set_state_dir(Some(dir.clone()));
        assert_eq!(second.restore_state(), 2);
        let status = handle(&mut second, &Request::Status.to_line());
        assert_eq!(
            status.get("auto_winners_remembered").and_then(Json::as_i64),
            Some(2),
            "{status}"
        );
        let rows = status.get("programs").and_then(Json::as_arr).unwrap();
        for (name, _, rung, _) in &programs {
            let row = rows
                .iter()
                .find(|p| p.get("name").and_then(Json::as_str) == Some(*name))
                .unwrap_or_else(|| panic!("{name} restored: {status}"));
            assert_eq!(
                row.get("auto_preference").and_then(Json::as_str),
                Some(*rung),
                "restored before any verify: {status}"
            );
            // The restored session starts on its rung: the adder does
            // not pay the losing ANF attempt again.
            let verify = auto_verify(&mut second, name);
            assert_eq!(
                verify.get("auto_preference").and_then(Json::as_str),
                Some(*rung),
                "{verify}"
            );
            assert_eq!(
                verify.get("anf_fallbacks").and_then(Json::as_i64),
                Some(0),
                "{verify}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_snapshot_is_rejected_and_daemon_starts_cold() {
        let _guard = FAILPOINT_LOCK.lock().unwrap();
        let dir = temp_state_dir("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let mut first = Server::new(VerifyOptions::default());
        first.set_state_dir(Some(dir.clone()));
        let load = handle(
            &mut first,
            &Request::Load {
                name: "p".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load));
        drop(first);

        // Tear the snapshot mid-file, as a crash during a non-atomic
        // write would; the checksum (or the missing line) must reject it.
        let path = dir.join(STATE_FILE);
        let data = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &data[..data.len() / 2]).unwrap();

        let mut second = Server::new(VerifyOptions::default());
        second.set_state_dir(Some(dir.clone()));
        assert_eq!(second.restore_state(), 0);
        assert_eq!(second.loaded_sessions(), 0);
        // Cold but healthy: a fresh load and snapshot cycle works.
        let load = handle(
            &mut second,
            &Request::Load {
                name: "p".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        assert!(ok(&load));
        let mut third = Server::new(VerifyOptions::default());
        third.set_state_dir(Some(dir.clone()));
        assert_eq!(third.restore_state(), 1, "the rewritten snapshot is whole");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_write_failure_is_not_fatal() {
        let _guard = FAILPOINT_LOCK.lock().unwrap();
        let dir = temp_state_dir("failpoint");
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = Server::new(VerifyOptions::default());
        server.set_state_dir(Some(dir.clone()));
        qb_testutil::failpoints::arm(
            "snapshot_write",
            qb_testutil::failpoints::Action::Error,
            Some(1),
        );
        let load = handle(
            &mut server,
            &Request::Load {
                name: "p".into(),
                source: GOOD.into(),
                backend: None,
            }
            .to_line(),
        );
        qb_testutil::failpoints::clear("snapshot_write");
        assert!(ok(&load), "a failed snapshot write must not fail the load");
        assert!(!dir.join(STATE_FILE).exists());
        // The state stayed dirty, so the very next request retries the
        // write — and this one succeeds.
        let status = handle(&mut server, &Request::Status.to_line());
        assert_eq!(
            status.get("snapshot_failures").and_then(Json::as_i64),
            Some(1)
        );
        assert!(dir.join(STATE_FILE).exists());
        let mut second = Server::new(VerifyOptions::default());
        second.set_state_dir(Some(dir.clone()));
        assert_eq!(second.restore_state(), 1, "nothing was lost to the fault");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
