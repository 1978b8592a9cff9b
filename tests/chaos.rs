//! Overload and chaos soak tests against a real daemon (`run()`), not
//! the synchronous test facade: a saturating pipelined burst must be
//! shed with structured `overloaded` errors while health walks
//! `ok → overloaded → ok`; a full mailbox must never stall the
//! connection's reader thread (requests for other sessions keep
//! flowing); and a mixed multi-client soak under failpoint-injected
//! panics, snapshot-write failures, spurious cancels and artificial
//! slow-solves must deliver exactly one well-formed response per
//! request, never a wrong verdict, and recover to `ok` health.

use qborrow::core::{initial_values, verify_circuit_fresh, VerifyOptions};
use qborrow::lang::{adder_source, elaborate, parse};
use qborrow::serve::{run, Client, Json, Request, RetryBudget, ServeOptions, ServerLimits};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

static COUNTER: AtomicU32 = AtomicU32::new(0);

/// Failpoints are process-global, and so are the `qb_obs` metric
/// registries the health gauge lands in: every test in this binary
/// serializes on this lock.
static FAILPOINT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Starts an in-process daemon with the given limits on a fresh Unix
/// socket, optionally also on TCP and with a state directory.
fn start_daemon(
    tag: &str,
    with_tcp: bool,
    limits: ServerLimits,
    state_dir: Option<PathBuf>,
) -> (PathBuf, Option<String>, std::thread::JoinHandle<()>) {
    let socket = std::env::temp_dir().join(format!(
        "qborrow-chaos-{tag}-{}-{}.sock",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let tcp = with_tcp.then(|| {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        probe.local_addr().expect("probe addr").to_string()
    });
    let opts = ServeOptions {
        log: false,
        tcp: tcp.clone(),
        limits,
        state_dir,
        ..ServeOptions::new(socket.clone())
    };
    let handle = std::thread::spawn(move || run(&opts).expect("daemon runs"));
    for _ in 0..600 {
        if let Ok(client) = Client::connect(&socket) {
            drop(client);
            return (socket, tcp, handle);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon did not come up on {}", socket.display());
}

fn shutdown(mut client: Client, handle: std::thread::JoinHandle<()>) {
    let resp = client.shutdown().expect("shutdown round-trips");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("daemon thread exits cleanly");
}

/// Fresh-pipeline oracle: `(qubit, safe)` per borrow qubit of `source`.
fn fresh_verdicts(source: &str) -> Vec<(usize, bool)> {
    let program = elaborate(&parse(source).expect("parses")).expect("elaborates");
    let initial = initial_values(&program);
    let report = verify_circuit_fresh(
        &program.circuit,
        &initial,
        &program.qubits_to_verify(),
        &VerifyOptions::default(),
    )
    .expect("fresh verification completes");
    report.verdicts.iter().map(|v| (v.qubit, v.safe)).collect()
}

/// Asserts a fully-decided daemon verify response equals the oracle.
fn assert_matches_oracle(response: &Json, expected: &[(usize, bool)], tag: &str) {
    let verdicts = response
        .get("verdicts")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{tag}: no verdicts in {response}"));
    assert_eq!(verdicts.len(), expected.len(), "{tag}: verdict count");
    for (v, (qubit, safe)) in verdicts.iter().zip(expected) {
        assert_eq!(
            v.get("qubit").and_then(Json::as_i64),
            Some(*qubit as i64),
            "{tag}"
        );
        assert_eq!(
            v.get("safe").and_then(Json::as_bool),
            Some(*safe),
            "{tag}: qubit {qubit}"
        );
    }
}

fn health_of(client: &mut Client) -> String {
    client
        .status()
        .expect("status")
        .get("health")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string()
}

/// Polls `status` until the daemon reports `want` health (and, when
/// asked, an empty queue), panicking after `timeout`.
fn await_health(client: &mut Client, want: &str, drained: bool, timeout: Duration) -> Json {
    let t0 = Instant::now();
    loop {
        let status = client.status().expect("status");
        let health = status.get("health").and_then(Json::as_str).unwrap_or("?");
        let queued = status
            .get("queued_requests")
            .and_then(Json::as_i64)
            .unwrap_or(-1);
        if health == want && (!drained || queued == 0) {
            return status;
        }
        assert!(
            t0.elapsed() < timeout,
            "health stuck at {health:?} (queued {queued}), wanted {want:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn sane_retry_after(response: &Json) -> i64 {
    let retry = response
        .get("retry_after_ms")
        .and_then(Json::as_i64)
        .unwrap_or(-1);
    assert!(
        (1..=60_000).contains(&retry),
        "retry_after_ms out of range: {response}"
    );
    retry
}

/// A saturating pipelined burst at one session: the queue blows
/// through the daemon budget, health walks `ok → overloaded → ok`, a
/// concurrent unbounded verify is brownout-rejected immediately with a
/// structured `overloaded` error (sane `retry_after_ms`, queue
/// estimate), and the shed counters surface in `status`, `top` and the
/// Prometheus text.
#[test]
fn saturating_burst_sheds_structured_and_health_recovers() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    qb_testutil::failpoints::clear_all();
    let limits = ServerLimits {
        queue_budget: 64,
        ..ServerLimits::default()
    };
    let (socket, _tcp, handle) = start_daemon("burst", false, limits, None);

    let source = adder_source(5);
    let expected = fresh_verdicts(&source);
    let mut setup = Client::connect(&socket).expect("setup connect");
    setup.load("burst", &source).expect("load");
    let mut control = Client::connect(&socket).expect("control connect");
    assert_eq!(health_of(&mut control), "ok");

    // Slow every solve down so the mailbox actually fills: the reader
    // admits requests far faster than the actor drains them.
    qb_testutil::failpoints::arm(
        "slow_solve",
        qb_testutil::failpoints::Action::Delay(100),
        None,
    );

    // Pipeline a burst well past the queue budget but below the
    // mailbox capacity, all with an explicit (far) deadline so every
    // request is admitted: health deterministically reaches
    // `overloaded` while the capacity check stays out of the way, so
    // the probe below exercises the brownout path. (Mailbox overflow
    // itself is covered by the reader-stall test.)
    const BURST: usize = 200;
    let stream = std::os::unix::net::UnixStream::connect(&socket).expect("raw connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut batch = String::new();
    for _ in 0..BURST {
        batch.push_str(
            &Request::Verify {
                name: "burst".into(),
                targets: None,
                deadline_ms: Some(600_000),
                trace: false,
            }
            .to_line(),
        );
        batch.push('\n');
    }
    writer.write_all(batch.as_bytes()).expect("burst write");
    writer.flush().expect("burst flush");

    // The queue blows through the budget: health reaches `overloaded`.
    await_health(&mut control, "overloaded", false, Duration::from_secs(5));

    // While overloaded, an unbounded verify from a fresh client is
    // rejected immediately (brownout shed), well under the drain time.
    let mut probe = Client::connect(&socket).expect("probe connect");
    let t0 = Instant::now();
    let shed = probe.verify("burst", None).expect("probe verify");
    let elapsed = t0.elapsed();
    assert_eq!(
        shed.get("code").and_then(Json::as_str),
        Some("overloaded"),
        "{shed}"
    );
    sane_retry_after(&shed);
    assert!(
        shed.get("queue_est_ms").and_then(Json::as_i64).is_some(),
        "overloaded response lost its queue estimate: {shed}"
    );
    let bound = if cfg!(debug_assertions) { 500 } else { 100 };
    assert!(
        elapsed < Duration::from_millis(bound),
        "overloaded rejection took {elapsed:?}"
    );

    // Un-slow the solves so the accepted backlog drains quickly.
    qb_testutil::failpoints::clear("slow_solve");

    // Every burst request gets exactly one well-formed response. The
    // burst stayed below the mailbox capacity and carried a far
    // deadline, so each one is an accepted verify matching the fresh
    // oracle — any rejection here must still be `overloaded`-coded
    // (a dequeue race against the capacity check), never anything else.
    let mut accepted = 0usize;
    let mut shed_count = 0usize;
    for i in 0..BURST {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("response read");
        assert!(n > 0, "connection closed after {i} of {BURST} responses");
        let resp = Json::parse(line.trim_end())
            .unwrap_or_else(|e| panic!("unparseable response {i}: {e}: {line:?}"));
        assert!(
            resp.get("request_id").and_then(Json::as_i64).is_some(),
            "response {i} lost its request id: {resp}"
        );
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            assert_eq!(
                resp.get("unknowns").and_then(Json::as_i64),
                Some(0),
                "accepted verify {i} timed out: {resp}"
            );
            assert_matches_oracle(&resp, &expected, &format!("burst verify {i}"));
            accepted += 1;
        } else {
            assert_eq!(
                resp.get("code").and_then(Json::as_str),
                Some("overloaded"),
                "unexpected rejection for request {i}: {resp}"
            );
            sane_retry_after(&resp);
            shed_count += 1;
        }
    }
    assert!(accepted > 0, "burst was shed entirely");

    // Health decays back to `ok` once the queue drains, and the probe's
    // brownout shed is accounted in `status`.
    let status = await_health(&mut control, "ok", true, Duration::from_secs(30));
    let sheds = status.get("sheds").expect("sheds object");
    assert!(
        sheds.get("brownout").and_then(Json::as_i64).unwrap_or(0) > 0,
        "{status}"
    );
    assert!(
        status
            .get("sheds_total")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= (shed_count + 1) as i64,
        "{status}"
    );

    // The same surface rides in `top` and the Prometheus exposition.
    let top = control.top().expect("top");
    assert_eq!(top.get("health").and_then(Json::as_str), Some("ok"));
    assert!(top.get("shed").is_some(), "{top}");
    assert!(
        top.get("sheds_total").and_then(Json::as_i64).unwrap_or(0) >= 1,
        "{top}"
    );
    let metrics = control.metrics().expect("metrics");
    let text = metrics.get("metrics").and_then(Json::as_str).unwrap_or("");
    assert!(
        text.contains("qb_shed_total{kind=\"brownout\"}"),
        "missing shed counter in:\n{text}"
    );
    assert!(
        text.contains("qb_health{kind=\"daemon\"} 0"),
        "health gauge not back to ok in:\n{text}"
    );

    shutdown(control, handle);
}

/// Regression for the blocking-send hazard: a burst that fills one
/// session's mailbox must not stall the connection's reader thread — a
/// request for a *different* session pipelined behind the burst on the
/// same connection is answered while the saturated session is still
/// draining.
#[test]
fn full_mailbox_does_not_stall_other_sessions_on_same_connection() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    qb_testutil::failpoints::clear_all();
    let (socket, _tcp, handle) = start_daemon("reader", false, ServerLimits::default(), None);

    let slow_source = adder_source(5);
    let fast_source = adder_source(4);
    let expected_slow = fresh_verdicts(&slow_source);
    let expected_fast = fresh_verdicts(&fast_source);
    let mut setup = Client::connect(&socket).expect("setup connect");
    setup.load("slowprog", &slow_source).expect("load slow");
    setup.load("fastprog", &fast_source).expect("load fast");
    // Learn the daemon's request-id watermark so the fast session's
    // response can be identified among the interleaved completions.
    let baseline = setup
        .verify_with_deadline("fastprog", None, Some(60_000))
        .expect("baseline verify");
    let base_id = baseline
        .get("request_id")
        .and_then(Json::as_i64)
        .expect("request id");

    qb_testutil::failpoints::arm(
        "slow_solve",
        qb_testutil::failpoints::Action::Delay(50),
        None,
    );

    // One connection: a mailbox-overflowing burst at the slow session,
    // then a single verify for the fast session behind it.
    const BURST: usize = 320;
    let stream = std::os::unix::net::UnixStream::connect(&socket).expect("raw connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut batch = String::new();
    for _ in 0..BURST {
        batch.push_str(
            &Request::Verify {
                name: "slowprog".into(),
                targets: None,
                deadline_ms: Some(600_000),
                trace: false,
            }
            .to_line(),
        );
        batch.push('\n');
    }
    batch.push_str(
        &Request::Verify {
            name: "fastprog".into(),
            targets: None,
            deadline_ms: Some(60_000),
            trace: false,
        }
        .to_line(),
    );
    batch.push('\n');
    let t0 = Instant::now();
    writer.write_all(batch.as_bytes()).expect("burst write");
    writer.flush().expect("burst flush");

    // Requests get consecutive ids in arrival order on this (only
    // active) connection, so the fast verify is `base_id + BURST + 1`.
    let fast_id = base_id + BURST as i64 + 1;
    let mut lines_read = 0usize;
    let fast_elapsed = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("response read");
        assert!(n > 0, "connection closed before the fast response");
        lines_read += 1;
        let resp = Json::parse(line.trim_end()).expect("parseable response");
        if resp.get("request_id").and_then(Json::as_i64) == Some(fast_id) {
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(true),
                "fast verify rejected: {resp}"
            );
            assert_matches_oracle(&resp, &expected_fast, "fast verify");
            break t0.elapsed();
        }
    };
    // With the old blocking send the reader would sit on the full slow
    // mailbox and the fast verify would only be admitted after most of
    // the 50ms-per-solve backlog drained (multiple seconds).
    assert!(
        fast_elapsed < Duration::from_secs(2),
        "fast session stalled behind a saturated one: {fast_elapsed:?}"
    );

    // Un-slow the backlog, then account for every remaining response.
    qb_testutil::failpoints::clear("slow_solve");
    for _ in lines_read..BURST + 1 {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("response read");
        assert!(n > 0, "connection closed mid-drain");
        let resp = Json::parse(line.trim_end()).expect("parseable response");
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            assert_matches_oracle(&resp, &expected_slow, "drained slow verify");
        } else {
            assert_eq!(
                resp.get("code").and_then(Json::as_str),
                Some("overloaded"),
                "unexpected rejection: {resp}"
            );
        }
    }

    let mut control = Client::connect(&socket).expect("control connect");
    let status = await_health(&mut control, "ok", true, Duration::from_secs(30));
    assert!(
        status
            .get("sheds")
            .and_then(|s| s.get("mailbox_full"))
            .and_then(Json::as_i64)
            .unwrap_or(0)
            > 0,
        "mailbox never filled: {status}"
    );
    shutdown(control, handle);
}

/// The chaos soak: mixed multi-client traffic on both transports while
/// failpoints inject spurious cancels, actor panics, snapshot-write
/// failures and artificial slow-solves. Invariants: every request gets
/// exactly one well-formed response; a fully-decided verify never
/// disagrees with the fresh-pipeline oracle; rejections carry only
/// `overloaded`/`unavailable`/`internal_error`/`not_loaded` codes; and
/// after the chaos stops the daemon recovers to `ok` health with every
/// breaker closed and every session alive.
#[test]
fn chaos_soak_never_lies_and_recovers() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    qb_testutil::failpoints::clear_all();
    let state_dir = std::env::temp_dir().join(format!(
        "qborrow-chaos-state-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&state_dir);
    let (socket, tcp, handle) = start_daemon(
        "soak",
        true,
        ServerLimits::default(),
        Some(state_dir.clone()),
    );
    let tcp = tcp.expect("tcp listener requested");

    struct Worker {
        name: String,
        source: String,
        expected: Vec<(usize, bool)>,
    }
    let workers: Vec<Worker> = (0..4)
        .map(|i| {
            let source = adder_source(4 + i);
            let expected = fresh_verdicts(&source);
            Worker {
                name: format!("chaos{}", 4 + i),
                source,
                expected,
            }
        })
        .collect();

    let threads: Vec<_> = workers
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let socket = socket.clone();
            let tcp = tcp.clone();
            let name = w.name.clone();
            let source = w.source.clone();
            let expected = w.expected.clone();
            std::thread::spawn(move || {
                let mut client = if i % 2 == 0 {
                    Client::connect_with_retry(&socket, 8, Duration::from_millis(25))
                        .expect("unix connect")
                } else {
                    Client::connect_tcp_with_retry(&tcp, 8, Duration::from_millis(25))
                        .expect("tcp connect")
                };
                let mut budget = RetryBudget::new(3);
                let verify = Request::Verify {
                    name: name.clone(),
                    targets: None,
                    deadline_ms: Some(60_000),
                    trace: false,
                };
                let mut clean = 0u32;
                for round in 0..10 {
                    let tag = format!("{name} round {round}");
                    let load = client.load(&name, &source).expect("load round-trips");
                    if load.get("ok").and_then(Json::as_bool) != Some(true) {
                        // A load only fails under chaos via a shed or a
                        // panic-quarantine; both are tolerated.
                        continue;
                    }
                    for _ in 0..2 {
                        let resp = client
                            .request_with_retry(&verify, &mut budget, 2)
                            .expect("verify round-trips");
                        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                            if resp.get("unknowns").and_then(Json::as_i64) == Some(0) {
                                // The core invariant: a fully-decided
                                // verify never disagrees with the
                                // fresh-pipeline oracle, chaos or not.
                                assert_matches_oracle(&resp, &expected, &tag);
                                clean += 1;
                            }
                        } else {
                            let code = resp.get("code").and_then(Json::as_str).unwrap_or("?");
                            assert!(
                                matches!(
                                    code,
                                    "overloaded" | "unavailable" | "internal_error" | "not_loaded"
                                ),
                                "{tag}: unexpected code: {resp}"
                            );
                            if code == "not_loaded" {
                                let _ = client.load(&name, &source);
                            }
                        }
                    }
                    let edit = client.edit(&name, &source).expect("edit round-trips");
                    if edit.get("ok").and_then(Json::as_bool) != Some(true) {
                        let code = edit.get("code").and_then(Json::as_str).unwrap_or("?");
                        assert!(
                            matches!(
                                code,
                                "overloaded" | "unavailable" | "internal_error" | "not_loaded"
                            ),
                            "{tag}: unexpected edit code: {edit}"
                        );
                    }
                }
                clean
            })
        })
        .collect();

    // The chaos driver: cycle through the failure modes while the
    // workers hammer the daemon. Bounded hit counts keep every wave
    // finite so the soak always converges.
    for wave in 0..8 {
        match wave % 4 {
            0 => qb_testutil::failpoints::arm(
                "spurious_cancel",
                qb_testutil::failpoints::Action::Cancel,
                Some(3),
            ),
            1 => qb_testutil::failpoints::arm(
                "spurious_cancel",
                qb_testutil::failpoints::Action::Panic,
                Some(1),
            ),
            2 => qb_testutil::failpoints::arm(
                "snapshot_write",
                qb_testutil::failpoints::Action::Error,
                Some(2),
            ),
            _ => qb_testutil::failpoints::arm(
                "slow_solve",
                qb_testutil::failpoints::Action::Delay(10),
                Some(10),
            ),
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    qb_testutil::failpoints::clear_all();

    let clean: u32 = threads.into_iter().map(|t| t.join().expect("worker")).sum();
    assert!(clean > 0, "no verify ever completed cleanly under chaos");
    qb_testutil::failpoints::clear_all();

    // Recovery: an edit closes any breaker a panic wave tripped, then
    // every program must verify cleanly against the oracle again.
    let mut client = Client::connect(&socket).expect("recovery connect");
    for w in &workers {
        let load = client.load(&w.name, &w.source).expect("recovery load");
        assert_eq!(load.get("ok").and_then(Json::as_bool), Some(true), "{load}");
        let edit = client.edit(&w.name, &w.source).expect("recovery edit");
        assert_eq!(edit.get("ok").and_then(Json::as_bool), Some(true), "{edit}");
        let resp = client.verify(&w.name, None).expect("recovery verify");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        assert_matches_oracle(&resp, &w.expected, &format!("{} recovery", w.name));
    }

    // The daemon is healthy again: `ok`, drained, every breaker closed,
    // every worker thread alive, and the session table holds exactly
    // the four programs (bounded state, no leaked sessions).
    let status = await_health(&mut client, "ok", true, Duration::from_secs(30));
    assert_eq!(status.get("breakers_open").and_then(Json::as_i64), Some(0));
    assert_eq!(status.get("sessions").and_then(Json::as_i64), Some(4));
    let programs = status.get("programs").and_then(Json::as_arr).unwrap();
    assert_eq!(programs.len(), 4);
    for p in programs {
        assert_eq!(
            p.get("worker_alive").and_then(Json::as_bool),
            Some(true),
            "{p}"
        );
        assert_eq!(p.get("queue_depth").and_then(Json::as_i64), Some(0), "{p}");
    }

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&state_dir);
}
