//! The warm daemon edit loop (`serve-edit`) against the release
//! `qborrow serve` with default verification options.
//!
//! One load-generator thread, two connections: the Unix-socket
//! connection drives adder-64 under `sat`, the TCP connection drives
//! adder-64 under `auto`. At most one request is in flight, so the
//! daemon and the generator take turns on the one CPU `run.sh` pins the
//! run to. The run has two phases:
//!
//! * open loop — edit→verify pairs on the TCP connection on a fixed
//!   schedule (latency counts from the scheduled send time, so a stall
//!   is charged to every pair it delays);
//! * closed loop — back-to-back pairs on the two connections in turn,
//!   and one scrape round (`status`+`metrics`+`top`) per second on the
//!   Unix connection.
//!
//! The host probe runs between pairs at most every `PROBE_EVERY`, and
//! each phase's timings are rescaled by that phase's probes (see
//! `probe.rs`).

use crate::gen::EditStream;
use crate::probe::HostProbe;
use crate::trace::{Span, Tracer};
use qb_lang::{elaborate, parse};
use qb_serve::{Client, Json};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Share of the run spent open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.5;
/// Open-loop pairs per second on the TCP (`auto`) connection: about a
/// quarter of that connection's closed-loop capacity on a 2-core VM in
/// a fast host phase, so a slow phase (up to 2.5× slower) still leaves
/// the daemon idle between pairs, with room for a probe.
const OPEN_RATE: f64 = 15.0;
const SCRAPE_EVERY: Duration = Duration::from_secs(1);
const PROBE_EVERY: Duration = Duration::from_millis(500);
/// An open-loop gap shorter than this is not used for a probe, so the
/// probe never makes a pair late.
const PROBE_ROOM: Duration = Duration::from_millis(30);
/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const ADDER_N: usize = 64;
/// Index of the open-loop (TCP, `auto`) connection in `ROLES`.
pub const OPEN_CONN: usize = 1;

/// One connection's fixed role.
struct Role {
    transport: &'static str,
    program: &'static str,
    backend: &'static str,
}

const ROLES: [Role; 2] = [
    Role {
        transport: "unix",
        program: "adder-64-sat",
        backend: "sat",
    },
    Role {
        transport: "tcp",
        program: "adder-64-auto",
        backend: "auto",
    },
];

/// One request as the client saw it.
pub struct Req {
    pub cmd: &'static str,
    pub transport: &'static str,
    pub rt_ms: f64,
    pub handle_ms: f64,
    /// Traced requests only: `Json::parse` of the response text, and
    /// its length.
    pub decode_ms: Option<f64>,
    pub bytes: Option<f64>,
}

#[derive(Default)]
pub struct ConnRun {
    pub program: &'static str,
    /// Open loop: scheduled send → verify response, ms, rescaled; and
    /// whether the pair was traced.
    pub verdict_ms: Vec<(f64, bool)>,
    pub lateness_ms: Vec<f64>,
    /// Closed loop: send → verify response, s, rescaled.
    pub service_s: Vec<f64>,
    /// The same, as measured.
    pub raw_service_s: Vec<f64>,
    /// Untraced scrape rounds, ms, as measured (a per-layer metric,
    /// like the request times it is made of).
    pub scrape_round_ms: Vec<f64>,
    /// Traced scrape rounds: `Json::parse` time of the three replies.
    pub scrape_decode_ms: Vec<f64>,
    pub reqs: Vec<Req>,
    /// Per pair with a following edit: layer values inside the verify.
    pub core_rows: Vec<BTreeMap<&'static str, f64>>,
    /// Per edit: (edit_ns in ms, suffix clauses, incremental?).
    pub edits: Vec<(f64, f64, bool)>,
    pub mailbox_wait_ms: Vec<f64>,
    pub lang_rows: Vec<(f64, f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub shed: u64,
    pub health_nonok: u64,
    pub wrong: Vec<String>,
    pub spans: Vec<Span>,
    /// Instants behind the timings above, rescaled once the run is over:
    /// open-loop (due, done, traced) and closed-loop (sent, done).
    open: Vec<(Instant, Instant, bool)>,
    closed: Vec<(Instant, Instant)>,
}

impl ConnRun {
    /// Rescales the open-loop and closed-loop timings by the host factor
    /// of their phase.
    fn rescale(&mut self, open_host: f64, closed_host: f64) {
        self.verdict_ms = self
            .open
            .iter()
            .map(|&(due, done, traced)| (ms(due, done) / open_host, traced))
            .collect();
        self.raw_service_s = self
            .closed
            .iter()
            .map(|&(sent, done)| (done - sent).as_secs_f64())
            .collect();
        self.service_s = self.raw_service_s.iter().map(|s| s / closed_host).collect();
    }
}

pub struct ServeRun {
    /// Set-up times (s), rescaled.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub conns: Vec<ConnRun>,
    /// `status` at the end of the run.
    pub status: Json,
    pub probe: HostProbe,
}

impl ServeRun {
    /// Closed-loop edit→verify pairs per second on the `auto` connection:
    /// one client that sends its next pair when the last one is answered,
    /// so pairs over the (rescaled) time spent in pairs.
    pub fn capacity_rps(&self) -> f64 {
        let busy: f64 = self.conns[OPEN_CONN].service_s.iter().sum();
        if busy > 0.0 {
            self.conns[OPEN_CONN].service_s.len() as f64 / busy
        } else {
            0.0
        }
    }
}

struct Daemon {
    child: Child,
    socket: PathBuf,
    addr: String,
}

impl Daemon {
    fn spawn(qborrow: &Path, socket: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        // Reserve a free port, release it, and hand it to the daemon.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .to_string();
        let child = Command::new(qborrow)
            .args(["serve", "--quiet", "--tcp", &addr, "--socket"])
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", qborrow.display()))?;
        Ok(Daemon {
            child,
            socket: socket.to_path_buf(),
            addr,
        })
    }

    fn connect(&self, role: &Role) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let c = if role.transport == "unix" {
                Client::connect(&self.socket)
            } else {
                Client::connect_tcp(&self.addr)
            };
            match c {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("daemon not ready on {}: {e}", role.transport))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// VmHWM of the daemon process, MB.
    fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks for a graceful shutdown over `client` and waits up to 10 s
    /// for the process to exit; `Drop` kills it if it has not.
    fn stop(mut self, client: &mut Client) {
        let _ = client.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Spawn → socket ready → load and first cold verify of both programs.
fn set_up(qborrow: &Path, socket: &Path, base: &str) -> Result<(Daemon, Vec<Client>), String> {
    let daemon = Daemon::spawn(qborrow, socket)?;
    let clients = ROLES
        .iter()
        .map(|role| {
            let mut c = daemon.connect(role)?;
            let load = c
                .load_with(role.program, base, Some(role.backend))
                .map_err(|e| e.to_string())?;
            let verify = c.verify(role.program, None).map_err(|e| e.to_string())?;
            for r in [&load, &verify] {
                if r.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("{}: set-up request failed: {r}", role.program));
                }
            }
            if verify.get("all_safe").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "{}: the base program is not all safe",
                    role.program
                ));
            }
            Ok(c)
        })
        .collect::<Result<_, String>>()?;
    Ok((daemon, clients))
}

pub fn run(
    qborrow: &Path,
    run_dir: &Path,
    seed: u64,
    seconds: f64,
    tracing: bool,
) -> Result<ServeRun, String> {
    let socket = run_dir.join(format!("qb-{}.sock", std::process::id()));
    let streams: Vec<EditStream> = (0..ROLES.len() as u64)
        .map(|k| EditStream::new(ADDER_N, seed.wrapping_mul(2).wrapping_add(k)))
        .collect();
    let base = streams[0].base().to_string();
    let mut probe = HostProbe::new();
    let mut setup = Vec::new();
    let mut kept = None;
    probe.probe();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (daemon, mut clients) = set_up(qborrow, &socket, &base)?;
        setup.push((t0, Instant::now()));
        if rep + 1 < SETUP_REPS {
            daemon.stop(&mut clients[0]);
        } else {
            kept = Some((daemon, clients));
        }
        probe.probe();
    }
    let host = probe.factor(setup[0].0, setup[setup.len() - 1].1);
    let setup_s = setup
        .iter()
        .map(|&(t0, t1)| (t1 - t0).as_secs_f64() / host)
        .collect();
    let (mut daemon, clients) = kept.expect("at least one set-up");
    let start = Instant::now();
    let open_end = start + Duration::from_secs_f64(seconds * OPEN_SHARE);
    let closed_end = start + Duration::from_secs_f64(seconds);
    let mut conns: Vec<Conn> = clients
        .into_iter()
        .zip(streams)
        .enumerate()
        .map(|(k, (client, stream))| Conn {
            role: &ROLES[k],
            client,
            stream,
            tracer: Tracer::new(start, tracing),
            out: ConnRun {
                program: ROLES[k].program,
                ..ConnRun::default()
            },
            last_summary: None,
            pending_verify: None,
            pair_id: (k as u64) << 40,
            pairs: 0,
        })
        .collect();
    let (mut conns, mut probe) = std::thread::scope(|s| {
        let generator = s.spawn(move || {
            drive(&mut conns, &mut probe, start, open_end, closed_end);
            (conns, probe)
        });
        // Watchdog: a daemon that stops answering fails the run's
        // pending requests instead of hanging it.
        let hard_stop = closed_end + Duration::from_secs(30);
        let mut killed = false;
        while !generator.is_finished() {
            if Instant::now() > hard_stop && !killed {
                eprintln!("serve-edit: daemon unresponsive, killing it");
                let _ = daemon.child.kill();
                killed = true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        generator.join().expect("load-generator thread panicked")
    });
    probe.probe();
    let open_host = probe.factor(start, open_end);
    let closed_host = probe.factor(open_end, closed_end);
    let status = conns[0].client.status().unwrap_or(Json::Null);
    let peak_rss_mb = daemon.peak_rss_mb();
    let mut first = conns.remove(0);
    daemon.stop(&mut first.client);
    let conns = std::iter::once(first)
        .chain(conns)
        .map(|c| {
            let mut out = c.out;
            out.spans = c.tracer.into_spans();
            out.rescale(open_host, closed_host);
            out
        })
        .collect();
    Ok(ServeRun {
        setup_s,
        peak_rss_mb,
        conns,
        status,
        probe,
    })
}

/// The load generator: the open-loop phase on the `auto` connection, then
/// the closed-loop phase on both connections in turn.
fn drive(
    conns: &mut [Conn],
    probe: &mut HostProbe,
    start: Instant,
    open_end: Instant,
    closed_end: Instant,
) {
    let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let conn = &mut conns[OPEN_CONN];
    for pair in 0u32.. {
        let due = start + interval * pair;
        if due >= open_end && pair > 0 {
            break;
        }
        if Instant::now() + PROBE_ROOM < due {
            probe.probe_every(PROBE_EVERY);
        }
        // Wait by yielding, not by sleeping: with the load generator
        // asleep the VM's vCPU halts between pairs, and every pair pays
        // the host's vCPU rescheduling (measured: open-loop pairs took
        // 23.7 ms against 15.3 ms closed loop, and the extra moved with
        // the host's load). The woken daemon threads still preempt the
        // yielding thread.
        while Instant::now() < due {
            std::thread::yield_now();
        }
        let sent = Instant::now();
        conn.out.lateness_ms.push(ms(due, sent));
        let traced = conn.next_traced();
        if let Some(done) = conn.pair(traced) {
            conn.out.open.push((due, done, traced));
        }
    }
    let mut next_scrape = Instant::now();
    let mut turn = 0usize;
    while Instant::now() < closed_end || turn < conns.len() {
        probe.probe_every(PROBE_EVERY);
        if Instant::now() >= next_scrape {
            conns[0].scrape();
            next_scrape += SCRAPE_EVERY;
        }
        let conn = &mut conns[turn % conns.len()];
        let traced = conn.next_traced();
        let sent = Instant::now();
        if let Some(done) = conn.pair(traced) {
            if !traced {
                conn.out.closed.push((sent, done));
            }
        }
        turn += 1;
    }
}

/// Milliseconds between two instants.
fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn int(r: &Json, key: &str) -> f64 {
    r.get(key).and_then(Json::as_i64).unwrap_or(0) as f64
}

/// One connection's load generator.
struct Conn<'a> {
    role: &'a Role,
    client: Client,
    stream: EditStream,
    tracer: Tracer,
    out: ConnRun,
    /// The previous edit's session summary (cumulative `SessionStats`).
    last_summary: Option<Json>,
    /// The previous verify: its handle span, handle time and the
    /// encode time its response reported, awaiting attribution.
    pending_verify: Option<(Option<usize>, f64, f64)>,
    pair_id: u64,
    /// Pairs sent on this connection.
    pairs: u32,
}

impl Conn<'_> {
    /// Whether the next pair is traced: in a trace run every other pair
    /// on each connection is, so traced and untraced latencies interleave
    /// and their difference is the tracing overhead.
    fn next_traced(&mut self) -> bool {
        self.pairs += 1;
        self.tracer.enabled() && self.pairs % 2 == 0
    }

    /// One edit→verify pair; the verify's response instant when both
    /// succeeded with the known answer.
    fn pair(&mut self, traced: bool) -> Option<Instant> {
        let edit = self.stream.next_edit();
        self.pair_id += 1;
        let group = self.pair_id;
        let name = self.role.program;
        let (r, _, _) = self.request("edit", group, traced, |c| c.edit(name, &edit.source))?;
        self.note_edit(&r, traced);
        let (r, done, span) = self.request("verify", group, traced, |c| c.verify(name, None))?;
        let handle = int(&r, "handle_ns") / 1e6;
        self.pending_verify = Some((span, handle, int(&r, "encode_ns")));
        if traced {
            // The daemon parses and elaborates every edit; perfbench
            // times the same calls on the same source, after the pair.
            let t0 = Instant::now();
            let ast = parse(&edit.source).expect("generated source parses");
            let t1 = Instant::now();
            let program = elaborate(&ast).expect("generated source elaborates");
            let t2 = Instant::now();
            let gates = program.circuit.size() as f64;
            self.out.lang_rows.push((ms(t0, t1), ms(t1, t2), gates));
        }
        self.out
            .mailbox_wait_ms
            .push(int(&r, "mailbox_wait_p50_us") / 1e3);
        let verdicts = r.get("verdicts").and_then(Json::as_arr).unwrap_or(&[]);
        let named = |v: &Json| {
            v.get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let mut unknown = false;
        for v in verdicts {
            let qubit = named(v);
            let verdict = v.get("verdict").and_then(Json::as_str).unwrap_or("?");
            let expect_unsafe = edit.unsafe_names.contains(&qubit);
            match verdict {
                "unknown" => unknown = true,
                "safe" if !expect_unsafe => {}
                "unsafe" if expect_unsafe => {}
                _ => self.out.wrong.push(format!(
                    "{name} after a {:?} edit: {qubit} reported {verdict}",
                    edit.kind
                )),
            }
        }
        for u in &edit.unsafe_names {
            if !verdicts.iter().any(|v| &named(v) == u) {
                self.out.wrong.push(format!("{name}: no verdict for {u}"));
            }
        }
        if unknown {
            self.out.failed += 1;
            return None;
        }
        Some(done)
    }

    /// Attributes the previous verify's handle time using the cumulative
    /// counters of this edit's summary, and records the edit itself.
    fn note_edit(&mut self, r: &Json, traced: bool) {
        self.out.edits.push((
            int(r, "edit_ns") / 1e6,
            int(r, "suffix_clauses"),
            r.get("strategy").and_then(Json::as_str) == Some("incremental"),
        ));
        if let (Some(prev), Some((span, handle, encode_ns))) =
            (self.last_summary.take(), self.pending_verify.take())
        {
            let d = |k: &str| (int(r, k) - int(&prev, k)).max(0.0);
            let encode = (encode_ns - int(&prev, "encode_ns")).max(0.0) / 1e6;
            let parts = [
                ("core.cofactor", d("cofactor_ns") / 1e6),
                ("formula.encode", encode),
                ("sat.solve", (d("sat_ns") / 1e6 - encode).max(0.0)),
                ("bdd.decide", d("bdd_ns") / 1e6),
                ("anf.decide", d("anf_ns") / 1e6),
            ];
            let mut row = BTreeMap::from([
                ("core.decision_hits", d("decision_hits")),
                ("sat.propagations", d("solver_propagations")),
                ("sat.conflicts", d("solver_conflicts")),
                ("bdd.fallbacks", d("bdd_fallbacks")),
                ("handle_ms", handle),
            ]);
            let mut other = handle;
            for (name, v) in parts {
                if traced {
                    self.tracer
                        .attribute(span, name, Duration::from_secs_f64(v / 1e3));
                }
                row.insert(name, v);
                other -= v;
            }
            row.insert("core.other_ms", other);
            self.out.core_rows.push(row);
        }
        self.last_summary = Some(r.clone());
    }

    /// One request with its accounting: the response, its arrival and
    /// (traced) its span. `None` when it failed, was shed or the
    /// connection broke.
    fn request(
        &mut self,
        cmd: &'static str,
        group: u64,
        traced: bool,
        send: impl FnOnce(&mut Client) -> std::io::Result<Json>,
    ) -> Option<(Json, Instant, Option<usize>)> {
        self.out.attempted += 1;
        let t0 = Instant::now();
        let result = send(&mut self.client);
        let t1 = Instant::now();
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{} {cmd}: {e}", self.role.transport);
                self.out.failed += 1;
                return None;
            }
        };
        if r.get("health").and_then(Json::as_str) != Some("ok") {
            self.out.health_nonok += 1;
        }
        if qb_serve::shed_retry_after(&r).is_some() {
            self.out.shed += 1;
        }
        if r.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("{} {cmd}: {r}", self.role.transport);
            self.out.failed += 1;
            return None;
        }
        let handle_ms = int(&r, "handle_ns") / 1e6;
        let (mut decode_ms, mut bytes, mut span) = (None, None, None);
        if traced {
            span = self
                .tracer
                .record(group, format!("serve.{cmd}"), None, t0, t1);
            self.tracer.attribute(
                span,
                &format!("serve.{cmd}.handle"),
                Duration::from_secs_f64(handle_ms / 1e3),
            );
            let text = r.to_string();
            let d0 = Instant::now();
            std::hint::black_box(Json::parse(std::hint::black_box(&text)).ok());
            let d1 = Instant::now();
            self.tracer.record(group, "serve.decode", None, d0, d1);
            decode_ms = Some(ms(d0, d1));
            bytes = Some(text.len() as f64);
        }
        self.out.reqs.push(Req {
            cmd,
            transport: self.role.transport,
            rt_ms: ms(t0, t1),
            handle_ms,
            decode_ms,
            bytes,
        });
        Some((r, t1, span))
    }

    /// `status` + `metrics` + `top`, back to back. In a trace run every
    /// other round is traced; only untraced rounds are timed as a whole,
    /// since tracing decodes each reply a second time inside the round.
    fn scrape(&mut self) {
        self.pair_id += 1;
        let group = self.pair_id;
        let traced = self.tracer.enabled() && group % 2 == 1;
        let t0 = Instant::now();
        let ok = self
            .request("status", group, traced, Client::status)
            .is_some()
            && self
                .request("metrics", group, traced, Client::metrics)
                .is_some()
            && self.request("top", group, traced, Client::top).is_some();
        if !ok {
            return;
        }
        if traced {
            let decode = self.out.reqs[self.out.reqs.len() - 3..]
                .iter()
                .filter_map(|q| q.decode_ms)
                .sum();
            self.out.scrape_decode_ms.push(decode);
        } else {
            self.out.scrape_round_ms.push(ms(t0, Instant::now()));
        }
    }
}
