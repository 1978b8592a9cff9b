//! End-to-end checks for the observability surface: a traced adder-16
//! sweep must yield a properly nested, balanced Chrome trace; a metrics
//! scrape over a real daemon socket must parse as Prometheus text with
//! coherent histogram series; and a traced verify over the socket must
//! return a valid trace while leaving tracing off afterwards; and a sweep
//! with tracing switched off again must cost no more than 1.05× of one
//! before tracing was switched on.
//!
//! The span ring and the enable flag are process-global, so every test
//! that toggles tracing serialises on [`OBS_LOCK`]. So does every other
//! test here, so the overhead test's timed sweeps run alone.

use qborrow::lang::adder_source;
use qborrow::obs;
use qborrow::serve::{run, Client, Json, ServeOptions};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static OBS_LOCK: Mutex<()> = Mutex::new(());
static SOCKET_COUNTER: AtomicU32 = AtomicU32::new(0);

fn start_daemon() -> (PathBuf, Client, std::thread::JoinHandle<()>) {
    start_daemon_with(|_| {})
}

fn start_daemon_with(
    configure: impl FnOnce(&mut ServeOptions),
) -> (PathBuf, Client, std::thread::JoinHandle<()>) {
    let socket = std::env::temp_dir().join(format!(
        "qborrow-obs-test-{}-{}.sock",
        std::process::id(),
        SOCKET_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let mut opts = ServeOptions {
        log: false,
        ..ServeOptions::new(socket.clone())
    };
    configure(&mut opts);
    let handle = std::thread::spawn(move || run(&opts).expect("daemon runs"));
    for _ in 0..200 {
        if let Ok(client) = Client::connect(&socket) {
            return (socket, client, handle);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon did not come up on {}", socket.display());
}

/// A unique throwaway directory for exemplar traces.
fn temp_trace_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qborrow-obs-traces-{}-{}",
        std::process::id(),
        SOCKET_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("trace dir");
    dir
}

/// The exemplar files currently present, sorted by name (which sorts by
/// request id because the names zero-pad it).
fn exemplar_files(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("trace dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("req-") && n.ends_with(".trace.json"))
        .collect();
    names.sort();
    names
}

fn shutdown(mut client: Client, handle: std::thread::JoinHandle<()>) {
    let resp = client.shutdown().expect("shutdown round-trips");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("daemon thread exits cleanly");
}

/// Replays a Chrome trace's `B`/`E` events per thread and asserts they
/// form a balanced, name-matched bracket sequence. Returns events seen.
fn assert_trace_balanced(trace: &Json) -> usize {
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let mut stacks: HashMap<i64, Vec<String>> = HashMap::new();
    for ev in events {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_string();
        let tid = ev.get("tid").and_then(Json::as_i64).expect("tid");
        let stack = stacks.entry(tid).or_default();
        match ev.get("ph").and_then(Json::as_str) {
            Some("B") => stack.push(name),
            Some("E") => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!("E event for {name:?} on tid {tid} with empty stack")
                });
                assert_eq!(open, name, "mismatched E on tid {tid}");
            }
            ph => panic!("unexpected phase {ph:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
    events.len()
}

/// Parses the Prometheus text of a `metrics` response into `(name,
/// labels, value)` samples, asserting every sample line is well formed.
fn prometheus_samples(resp: &Json) -> Vec<(String, String, f64)> {
    let text = resp
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics text");
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric sample value in {line:?}"));
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => (n, rest.strip_suffix('}').expect("closed label set")),
            None => (series, ""),
        };
        assert!(
            name.starts_with("qb_") && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name in {line:?}"
        );
        samples.push((name.to_string(), labels.to_string(), value));
    }
    samples
}

/// Tentpole acceptance: tracing an adder-16 SAT sweep end-to-end yields
/// spans whose intervals nest properly per thread and whose Chrome
/// export replays as balanced brackets with the full hierarchy present.
#[test]
fn traced_adder16_sweep_produces_nested_balanced_trace() {
    use qborrow::core::{verify_circuit, InitialValue, VerifyOptions};
    use qborrow::lang::{elaborate, parse, QubitKind};

    let _guard = OBS_LOCK.lock().unwrap();
    obs::set_enabled(false);
    let _ = obs::take_all_spans();

    let program = elaborate(&parse(&adder_source(32)).unwrap()).unwrap();
    let initial: Vec<InitialValue> = (0..program.num_qubits())
        .map(|q| match program.qubit_kinds[q] {
            QubitKind::Clean => InitialValue::Zero,
            _ => InitialValue::Free,
        })
        .collect();
    obs::set_enabled(true);
    let report = verify_circuit(
        &program.circuit,
        &initial,
        &program.qubits_to_verify(),
        &VerifyOptions::default(),
    );
    obs::set_enabled(false);
    let spans = obs::take_spans();
    assert!(report.expect("sweep completes").all_safe());

    // The hierarchy's levels all show up.
    for expected in ["sweep", "target", "root", "encode", "backend"] {
        assert!(
            spans.iter().any(|s| s.name == expected),
            "no {expected:?} span in {:?}",
            spans
                .iter()
                .map(|s| s.name)
                .collect::<std::collections::BTreeSet<_>>()
        );
    }
    // Spans on one thread nest: any two either disjoint or contained.
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            if a.tid != b.tid {
                continue;
            }
            let (a0, a1) = (a.start_ns, a.start_ns + a.dur_ns);
            let (b0, b1) = (b.start_ns, b.start_ns + b.dur_ns);
            let disjoint = a1 <= b0 || b1 <= a0;
            let contained = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
            assert!(
                disjoint || contained,
                "spans overlap without nesting: {a:?} vs {b:?}"
            );
        }
    }
    // The Chrome export parses and replays balanced.
    let trace = Json::parse(obs::chrome_trace(&spans).trim()).expect("trace is valid JSON");
    assert_eq!(assert_trace_balanced(&trace), 2 * spans.len());
}

/// Tracing costs nothing once it is switched off again. Three arms are
/// interleaved round by round, so machine noise hits each alike: an
/// adder-32 SAT sweep with tracing off, the same sweep traced, and the
/// sweep with tracing off again after that enable cycle. (SAT sweeping
/// halved the adder-16 sweep and cut its spans from 580 to 111, which
/// doubled the spread of the median ratio; the 32-bit sweep takes about
/// as long as the 16-bit one did and records 222 spans.) In the median
/// round, the off-again sweep must stay within 1.05× of the first off
/// sweep. A span site that keeps doing work after `set_enabled(false)`
/// (an allocation, a lock, a label `format!`) fails this, and a sweep
/// that still records spans with tracing off fails it outright. The
/// traced arm's own overhead is not bounded: recording real spans may
/// cost a few percent.
///
/// The median of per-round ratios, not the ratio of per-arm minima: on
/// a shared host a rare fast sweep lands in one arm only, and a minimum
/// keeps it for good.
#[test]
fn disabled_tracing_overhead_stays_within_five_percent_after_an_enable_cycle() {
    use qborrow::core::{InitialValue, VerifyOptions, VerifySession};
    use qborrow::lang::{elaborate, parse, QubitKind};
    const ROUNDS: usize = 11;
    const BOUND: f64 = 1.05;

    let _guard = OBS_LOCK.lock().unwrap();
    obs::set_enabled(false);
    let _ = obs::take_all_spans();

    let program = elaborate(&parse(&adder_source(32)).unwrap()).unwrap();
    let initial: Vec<InitialValue> = (0..program.num_qubits())
        .map(|q| match program.qubit_kinds[q] {
            QubitKind::Clean => InitialValue::Zero,
            _ => InitialValue::Free,
        })
        .collect();
    let targets = program.qubits_to_verify();
    let sweep = || {
        let t0 = Instant::now();
        let mut session =
            VerifySession::new(&program.circuit, &initial, &VerifyOptions::default()).unwrap();
        let verdicts = session.verify_targets(&targets).unwrap();
        assert!(verdicts.iter().all(|v| v.safe), "the adder is all-safe");
        t0.elapsed().as_secs_f64()
    };

    // Untimed warm-up: the process's first sweep pays one-off costs
    // (page faults, allocator growth).
    sweep();
    let mut off_again = Vec::with_capacity(ROUNDS);
    let mut traced = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let off = sweep();
        obs::set_enabled(true);
        let on = sweep();
        obs::set_enabled(false);
        let spans = obs::take_all_spans();
        assert!(
            spans.iter().any(|s| s.name == "sweep") && spans.iter().any(|s| s.name == "target"),
            "the traced sweep records its top-level spans"
        );
        off_again.push(sweep() / off);
        assert!(
            obs::take_all_spans().is_empty(),
            "a sweep with tracing off again records no spans"
        );
        traced.push(on / off);
    }
    off_again.sort_by(f64::total_cmp);
    traced.sort_by(f64::total_cmp);
    let median = off_again[ROUNDS / 2];
    assert!(
        median <= BOUND,
        "tracing off again costs {median:.3}x of tracing off before in the median round \
         (off-again ratios {off_again:.3?}, traced ratios {traced:.3?})"
    );
}

/// A metrics scrape over a live daemon socket parses as Prometheus text:
/// every sample line is `name{labels} value`, request counters cover the
/// traffic we just generated, and each histogram's cumulative buckets
/// are monotone and agree with its `_count` series.
#[test]
fn daemon_metrics_scrape_parses_as_prometheus_text() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::reset_metrics();
    let (_socket, mut client, handle) = start_daemon();

    client.load("adder", &adder_source(8)).unwrap();
    client.verify("adder", None).unwrap();
    client.verify("adder", None).unwrap();
    let resp = client.metrics().unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let samples = prometheus_samples(&resp);
    shutdown(client, handle);

    let count = |name: &str, label_frag: &str| {
        samples
            .iter()
            .filter(|(n, l, _)| n == name && l.contains(label_frag))
            .count()
    };
    // The traffic we generated is visible: 1 load + 2 verifies + metrics.
    let counter = |name: &str, label_frag: &str| {
        samples
            .iter()
            .find(|(n, l, _)| n == name && l.contains(label_frag))
            .map(|(_, _, v)| *v)
    };
    assert_eq!(counter("qb_requests_total", "kind=\"load\""), Some(1.0));
    assert_eq!(counter("qb_requests_total", "kind=\"verify\""), Some(2.0));
    assert!(counter("qb_solver_propagations_total", "").unwrap_or(0.0) > 0.0);
    assert!(count("qb_request_handle_seconds_bucket", "kind=\"verify\"") > 0);
    assert!(count("qb_target_latency_seconds_bucket", "") > 0);

    // Histogram coherence: per (name, kind) the cumulative buckets are
    // monotone in `le`, end at `+Inf`, and match the `_count` series.
    let mut by_series: HashMap<(String, String), Vec<(f64, f64)>> = HashMap::new();
    for (name, labels, value) in &samples {
        let Some(base) = name.strip_suffix("_seconds_bucket") else {
            continue;
        };
        let kind = labels
            .split(',')
            .find(|kv| kv.starts_with("kind="))
            .unwrap_or("")
            .to_string();
        let le = labels
            .split(',')
            .find_map(|kv| kv.strip_prefix("le=\""))
            .and_then(|v| v.strip_suffix('"'))
            .expect("bucket has le");
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().unwrap()
        };
        by_series
            .entry((base.to_string(), kind))
            .or_default()
            .push((le, *value));
    }
    assert!(!by_series.is_empty(), "no histogram series in scrape");
    for ((base, kind), mut buckets) in by_series {
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut last = 0.0;
        for (le, v) in &buckets {
            assert!(*v >= last, "{base}/{kind}: bucket le={le} decreased");
            last = *v;
        }
        let (top_le, top) = *buckets.last().unwrap();
        assert!(top_le.is_infinite(), "{base}/{kind}: missing +Inf bucket");
        let total = samples
            .iter()
            .find(|(n, l, _)| n == &format!("{base}_seconds_count") && l.contains(kind.as_str()))
            .map(|(_, _, v)| *v)
            .unwrap_or_else(|| panic!("{base}/{kind}: no _count series"));
        assert_eq!(top, total, "{base}/{kind}: +Inf bucket != count");
    }
}

/// A traced verify over the socket returns a balanced Chrome trace in
/// the response and leaves process-wide tracing off afterwards.
#[test]
fn daemon_traced_verify_over_socket_returns_valid_trace() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::set_enabled(false);
    let _ = obs::take_all_spans();
    let (_socket, mut client, handle) = start_daemon();

    client.load("adder", &adder_source(16)).unwrap();
    let resp = client.verify_traced("adder", None, None, true).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("all_safe").and_then(Json::as_bool), Some(true));
    let trace = resp
        .get("trace")
        .and_then(Json::as_str)
        .expect("trace member");
    let trace = Json::parse(trace.trim()).expect("trace is valid JSON");
    let events = assert_trace_balanced(&trace);
    assert!(events >= 2, "trace has no spans");
    // Latency summaries ride along on every verify response.
    assert!(resp.get("target_p95_us").and_then(Json::as_i64).is_some());
    assert!(!obs::enabled(), "daemon left tracing enabled");

    // The next, untraced verify must not carry a trace.
    let resp = client.verify("adder", None).unwrap();
    assert!(resp.get("trace").is_none());
    shutdown(client, handle);
}

/// Tail-sampling end to end: with a high fixed slow threshold, healthy
/// requests leave no exemplar files, a deadline-expired verify (all
/// verdicts unknown) promotes exactly one — named after its request id
/// and holding a balanced Chrome trace — and the trace of any recent
/// request can still be fetched from the flight-recorder ring over the
/// socket.
#[test]
fn deadline_expired_verify_leaves_exactly_one_exemplar() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::set_enabled(false);
    let _ = obs::take_all_spans();
    let dir = temp_trace_dir();
    let (_socket, mut client, handle) = start_daemon_with(|opts| {
        opts.trace_dir = Some(dir.clone());
        opts.slow_threshold = Some(Duration::from_secs(3600));
    });

    let resp = client.load("adder", &adder_source(8)).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let resp = client.verify("adder", None).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let healthy_rid = resp.get("request_id").and_then(Json::as_i64).unwrap() as u64;
    assert!(
        exemplar_files(&dir).is_empty(),
        "healthy traffic must not shed exemplars: {:?}",
        exemplar_files(&dir)
    );

    // An already-expired deadline turns every verdict unknown; that is
    // the tail-sampling trigger.
    let resp = client.verify_with_deadline("adder", None, Some(0)).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert!(resp.get("unknowns").and_then(Json::as_i64).unwrap() > 0);
    let slow_rid = resp.get("request_id").and_then(Json::as_i64).unwrap() as u64;

    let files = exemplar_files(&dir);
    assert_eq!(files, vec![format!("req-{slow_rid:012}.trace.json")]);
    let trace = std::fs::read_to_string(dir.join(&files[0])).expect("exemplar file readable");
    let trace = Json::parse(trace.trim()).expect("exemplar is valid JSON");
    assert_trace_balanced(&trace);

    // Another healthy verify adds nothing.
    let resp = client.verify("adder", None).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(exemplar_files(&dir).len(), 1);

    // The healthy request never hit disk but its trace is still in the
    // ring, request-id keyed, with the sweep hierarchy captured.
    let fetched = client.trace(healthy_rid).unwrap();
    assert_eq!(fetched.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        fetched.get("trace_request_id").and_then(Json::as_i64),
        Some(healthy_rid as i64)
    );
    let text = fetched.get("trace").and_then(Json::as_str).unwrap();
    assert!(text.contains("\"sweep\""), "sweep span missing: {text}");
    assert_trace_balanced(&Json::parse(text.trim()).unwrap());

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exemplar directory never grows past `trace_retain`: a burst of
/// failing requests (verifies of a name that was never loaded) each
/// writes an exemplar, and only the newest `retain` files survive.
#[test]
fn exemplar_retention_keeps_only_the_newest_files() {
    let _guard = OBS_LOCK.lock().unwrap();
    let dir = temp_trace_dir();
    let (_socket, mut client, handle) = start_daemon_with(|opts| {
        opts.trace_dir = Some(dir.clone());
        opts.trace_retain = 3;
    });

    let mut rids = Vec::new();
    for _ in 0..6 {
        let resp = client.verify("never-loaded", None).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        rids.push(resp.get("request_id").and_then(Json::as_i64).unwrap() as u64);
    }
    let files = exemplar_files(&dir);
    let expected: Vec<String> = rids[3..]
        .iter()
        .map(|rid| format!("req-{rid:012}.trace.json"))
        .collect();
    assert_eq!(files, expected, "retention must keep the newest 3");

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `top` surface over a real socket: with a fast sampler cadence the
/// ring accrues snapshots, `client.top()` reports rates computed from at
/// least two of them, and the compiled CLI's `client top --once --json`
/// prints the same JSON on stdout. `status` carries the flight-recorder
/// counters as well.
#[test]
fn client_top_once_json_reports_rates_over_a_real_socket() {
    let _guard = OBS_LOCK.lock().unwrap();
    let (socket, mut client, handle) = start_daemon_with(|opts| {
        opts.sample_interval = Duration::from_millis(50);
    });

    client.load("adder", &adder_source(8)).unwrap();
    for _ in 0..3 {
        let resp = client.verify("adder", None).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    }
    // Let the sampler take at least two snapshots spanning the traffic.
    std::thread::sleep(Duration::from_millis(250));

    let top = client.top().unwrap();
    assert_eq!(top.get("ok").and_then(Json::as_bool), Some(true));
    assert!(
        top.get("samples").and_then(Json::as_i64).unwrap() >= 2,
        "sampler should have ticked at least twice: {top}"
    );
    let req_rate = top
        .get("rates")
        .and_then(|r| r.get("req_per_s"))
        .and_then(|v| match v {
            Json::Float(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        })
        .expect("req/s computable from two snapshots");
    assert!(req_rate > 0.0, "traffic happened between snapshots: {top}");
    let sessions = top.get("sessions").and_then(Json::as_arr).unwrap();
    assert_eq!(sessions.len(), 1);
    assert!(sessions[0]
        .get("queue_depth")
        .and_then(Json::as_i64)
        .is_some());
    assert!(sessions[0]
        .get("mailbox_wait_p95_us")
        .and_then(Json::as_i64)
        .is_some());

    // Satellite: the recorder surfaces in status too.
    let status = client.status().unwrap();
    for key in [
        "dropped_spans",
        "recorder_recorded",
        "recorder_overflow",
        "exemplars",
    ] {
        assert!(
            status.get(key).and_then(Json::as_i64).is_some(),
            "status lacks {key}: {status}"
        );
    }

    // The compiled CLI speaks the same protocol: one-shot JSON dashboard.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_qborrow"))
        .args(["client", "top", "--socket"])
        .arg(&socket)
        .args(["--once", "--json"])
        .output()
        .expect("qborrow binary runs");
    assert!(output.status.success(), "client top failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let parsed = Json::parse(stdout.trim()).expect("client top --json emits JSON");
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
    assert!(parsed.get("samples").and_then(Json::as_i64).unwrap() >= 2);
    assert!(parsed.get("rates").is_some());

    shutdown(client, handle);
}

/// A `qborrow serve` child process, killed if the test fails before it
/// shuts the daemon down.
struct DaemonProcess(std::process::Child);

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Every fact shown on more than one daemon surface reads the same on
/// all of them: `status`, `top` and the Prometheus `metrics` text. The
/// daemon is the compiled binary in its own process, so the metrics
/// registry holds only its traffic and registry totals compare exactly.
/// It still takes [`OBS_LOCK`]: its daemon's sweeps would share the CPU
/// with the disabled-tracing overhead test's timed sweeps.
#[test]
fn daemon_facts_agree_across_status_top_and_metrics() {
    let _guard = OBS_LOCK.lock().unwrap();
    let socket = std::env::temp_dir().join(format!(
        "qborrow-obs-xsurface-{}-{}.sock",
        std::process::id(),
        SOCKET_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    // Every sweep takes 300ms longer, so a pipelined burst is still
    // queued when the shed probe arrives; a queue budget of 4 turns two
    // queued requests into `degraded` health.
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_qborrow"))
        .args(["serve", "--quiet", "--queue-budget", "4"])
        .args(["--sample-interval-ms", "50", "--socket"])
        .arg(&socket)
        .env("QB_FAILPOINTS", "slow_solve=delay-300")
        .spawn()
        .expect("qborrow serve starts");
    let mut daemon = DaemonProcess(child);
    let mut client = (0..500)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            Client::connect(&socket).ok()
        })
        .expect("daemon comes up");
    let ok = |resp: &Json| resp.get("ok").and_then(Json::as_bool) == Some(true);

    // Warm traffic on both decision pipelines, and an incremental edit.
    let sat_source = adder_source(16);
    assert!(ok(&client
        .load_with("sat", &sat_source, Some("sat"))
        .unwrap()));
    assert!(ok(&client
        .load_with("auto", &adder_source(8), Some("auto"))
        .unwrap()));
    let verified = client.verify("sat", None).unwrap();
    assert!(ok(&verified));
    assert!(
        verified.get("sweep_merged").and_then(Json::as_i64) > Some(0),
        "the verify response carries the SAT sweep's counters: {verified}"
    );
    assert!(ok(&client.verify("auto", None).unwrap()));
    let edit = client
        .edit("sat", &format!("{sat_source}X[q[1]];\nX[q[1]];\n"))
        .unwrap();
    assert_eq!(
        edit.get("strategy").and_then(Json::as_str),
        Some("incremental")
    );
    assert!(ok(&client.verify("sat", None).unwrap()));

    // Force exactly one shed: three deadline-carrying verifies (never
    // brownout-shed) queue behind the slowed sweep, which degrades
    // health; an unbounded verify is then shed by brownout.
    let mut burst = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    let verify_line =
        |deadline: &str| format!("{{\"cmd\":\"verify\",\"name\":\"sat\"{deadline}}}\n");
    let queued = verify_line(",\"deadline_ms\":600000").repeat(3);
    burst.write_all(queued.as_bytes()).unwrap();
    // Polls `status` until health reads `want`; panics with the last
    // status after 30s rather than hanging the run.
    let wait_for_health = |client: &mut Client, want: &str, poll: Duration| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let status = client.status().unwrap();
            if status.get("health").and_then(Json::as_str) == Some(want) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "health never became {want}; last status: {status}"
            );
            std::thread::sleep(poll);
        }
    };
    wait_for_health(&mut client, "degraded", Duration::from_millis(1));
    burst.write_all(verify_line("").as_bytes()).unwrap();
    let mut replies = BufReader::new(burst);
    // Replies come in completion order: the shed one first.
    let mut codes: Vec<Option<String>> = (0..4)
        .map(|_| {
            let mut line = String::new();
            replies.read_line(&mut line).unwrap();
            let resp = Json::parse(line.trim()).unwrap();
            resp.get("code").and_then(Json::as_str).map(String::from)
        })
        .collect();
    codes.sort();
    assert_eq!(
        codes,
        vec![None, None, None, Some("overloaded".to_string())]
    );
    wait_for_health(&mut client, "ok", Duration::from_millis(5));

    // One read of each surface, nothing else in flight.
    let status = client.status().unwrap();
    let top = client.top().unwrap();
    let metrics = client.metrics().unwrap();
    let samples = prometheus_samples(&metrics);
    let prom = |name: &str, label: &str| -> i64 {
        samples
            .iter()
            .filter(|(n, l, _)| {
                n == name && (label.is_empty() || *l == format!("kind=\"{label}\""))
            })
            .map(|(_, _, v)| *v as i64)
            .sum()
    };
    let int = |v: &Json, key: &str| -> i64 {
        v.get(key)
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("{key} missing from {v}"))
    };
    let programs = status.get("programs").and_then(Json::as_arr).unwrap();
    let rows = top.get("sessions").and_then(Json::as_arr).unwrap();
    let sum = |items: &[Json], key: &str| items.iter().map(|v| int(v, key)).sum::<i64>();

    // Sessions (one name each) and their resident nodes.
    assert_eq!(int(&status, "sessions"), 2);
    for count in [
        programs.len() as i64,
        int(&top, "sessions_count"),
        rows.len() as i64,
        int(&metrics, "sessions"),
        prom("qb_sessions", "daemon"),
    ] {
        assert_eq!(count, 2);
    }
    for key in ["resident_arena_nodes", "resident_bdd_nodes"] {
        let per_session = key
            .replace("resident_", "")
            .replace("bdd_nodes", "bdd_resident_nodes");
        let total = int(&status, key);
        assert!(total > 0 || key == "resident_bdd_nodes", "{key}: {status}");
        assert_eq!(int(&top, key), total, "{key}");
        assert_eq!(sum(programs, &per_session), total, "{key}");
        assert_eq!(sum(rows, &per_session), total, "{key}");
    }

    // Health, queue pressure and sheds.
    assert_eq!(status.get("health"), top.get("health"));
    assert_eq!(prom("qb_health", "daemon"), 0);
    assert_eq!(int(&status, "queued_requests"), 0);
    assert_eq!(int(&top, "queued_requests"), 0);
    assert_eq!(prom("qb_queued_requests", "daemon"), 0);
    let sheds = status.get("sheds").unwrap();
    for reason in ["mailbox_full", "deadline", "brownout", "breaker"] {
        let expected = i64::from(reason == "brownout");
        assert_eq!(int(sheds, reason), expected, "{reason}");
        assert_eq!(prom("qb_shed_total", reason), expected, "{reason}");
    }
    assert_eq!(int(&status, "sheds_total"), 1);
    assert_eq!(int(&top, "sheds_total"), 1);

    // Requests: each read is itself a request, and a counter of finished
    // requests (the registry's, the recorder's) does not yet include the
    // one being answered.
    let requests = int(&status, "requests");
    assert_eq!(int(&top, "requests"), requests + 1);
    assert_eq!(int(&metrics, "requests"), requests + 2);
    assert_eq!(prom("qb_requests_total", ""), requests + 1);
    let recorder = top.get("recorder").unwrap();
    assert_eq!(int(&status, "recorder_recorded"), requests - 1);
    assert_eq!(int(recorder, "recorded"), requests);
    assert_eq!(prom("qb_recorder_recorded", "all"), requests + 1);
    assert_eq!(int(&status, "recorder_overflow"), int(recorder, "overflow"));
    assert_eq!(
        int(&status, "recorder_overflow"),
        prom("qb_recorder_overflow", "all")
    );
    // The shed answered `ok: false`, which promotes it to an exemplar.
    assert!(int(&status, "exemplars") >= 1);
    assert_eq!(int(&status, "exemplars"), int(recorder, "exemplars"));
    assert_eq!(int(&status, "exemplars"), prom("qb_exemplars_total", ""));
    assert_eq!(int(&status, "dropped_spans"), int(&top, "dropped_spans"));
    assert_eq!(
        int(&status, "dropped_spans"),
        prom("qb_obs_dropped_spans", "all")
    );

    // Solver work: the sessions' own counters add up to the registry's,
    // vivification included.
    let propagations = sum(programs, "solver_propagations");
    assert!(propagations > 0, "{status}");
    assert_eq!(prom("qb_solver_propagations_total", "sat"), propagations);
    // Sweep work likewise: `status`'s per-session counters add up to the
    // registry's `sweep` series.
    assert!(sum(programs, "sweep_merged") > 0, "{status}");
    for kind in ["merged", "refuted", "capped"] {
        assert_eq!(
            prom("qb_sweep_total", kind),
            sum(programs, &format!("sweep_{kind}")),
            "{kind}"
        );
    }

    let resp = client.shutdown().unwrap();
    assert!(ok(&resp));
    let exit = daemon.0.wait().expect("daemon exits");
    assert!(exit.success(), "daemon exit: {exit:?}");
}
