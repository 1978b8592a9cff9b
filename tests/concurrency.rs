//! Concurrent-serving tests: N client threads driving mixed workloads
//! over both transports (newline-JSON Unix socket, length-prefixed TCP)
//! against the fresh-pipeline oracle; a latency assertion that a slow,
//! deadline-unbounded sweep on one session does not block warm edits on
//! another; graceful shutdown answering every in-flight request with a
//! complete (untorn) response; and the per-session routing fields
//! (`queue_depth`, `mailbox_wait_p95_us`, `worker_alive`) in `status`.

use qborrow::core::{initial_values, verify_circuit_fresh, VerifyOptions};
use qborrow::lang::{adder_source, elaborate, parse};
use qborrow::serve::{run, Client, Json, Request, ServeOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static COUNTER: AtomicU32 = AtomicU32::new(0);

/// Starts an in-process daemon on a fresh Unix socket, optionally also
/// listening on a fresh local TCP port. Returns the socket path, the
/// TCP address (when requested) and the daemon thread's handle.
fn start_daemon(
    tag: &str,
    with_tcp: bool,
) -> (PathBuf, Option<String>, std::thread::JoinHandle<()>) {
    let socket = std::env::temp_dir().join(format!(
        "qborrow-conc-{tag}-{}-{}.sock",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let tcp = with_tcp.then(|| {
        // Reserve a free port, then hand the address to the daemon. The
        // tiny window between drop and rebind is harmless in tests.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        probe.local_addr().expect("probe addr").to_string()
    });
    let opts = ServeOptions {
        log: false,
        tcp: tcp.clone(),
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

/// Asserts a daemon verify response equals the fresh oracle's verdicts.
fn assert_matches_oracle(response: &Json, expected: &[(usize, bool)], tag: &str) {
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{tag}: {response}"
    );
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

/// The soak: six worker threads, half on the Unix socket and half on
/// TCP, each running load → verify → edit → verify → status rounds on
/// its own program, with every verify checked against the fresh oracle.
/// Distinct programs never share a session, so the workers exercise
/// cross-session parallelism; re-running rounds exercises the warm
/// re-alias and identical-edit paths under contention.
#[test]
fn concurrent_mixed_soak_matches_fresh_oracle_on_both_transports() {
    let (socket, tcp, handle) = start_daemon("soak", true);
    let tcp = tcp.expect("tcp listener requested");

    struct Worker {
        name: String,
        source: String,
        expected: Vec<(usize, bool)>,
    }
    let workers: Vec<Worker> = (0..6)
        .map(|i| {
            let source = adder_source(4 + i);
            let expected = fresh_verdicts(&source);
            Worker {
                name: format!("adder{}", 4 + i),
                source,
                expected,
            }
        })
        .collect();

    let threads: Vec<_> = workers
        .into_iter()
        .enumerate()
        .map(
            |(
                i,
                Worker {
                    name,
                    source,
                    expected,
                },
            )| {
                let socket = socket.clone();
                let tcp = tcp.clone();
                std::thread::spawn(move || {
                    let mut client = if i % 2 == 0 {
                        Client::connect_with_retry(&socket, 8, Duration::from_millis(25))
                            .expect("unix connect")
                    } else {
                        Client::connect_tcp_with_retry(&tcp, 8, Duration::from_millis(25))
                            .expect("tcp connect")
                    };
                    for round in 0..5 {
                        let tag = format!("{name} round {round}");
                        let resp = client.load(&name, &source).expect("load");
                        assert_eq!(
                            resp.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "{tag}: {resp}"
                        );
                        let resp = client.verify(&name, None).expect("verify");
                        assert_matches_oracle(&resp, &expected, &tag);
                        let resp = client.edit(&name, &source).expect("edit");
                        assert_eq!(
                            resp.get("strategy").and_then(Json::as_str),
                            Some("identical"),
                            "{tag}: {resp}"
                        );
                        let resp = client.verify(&name, None).expect("re-verify");
                        assert_matches_oracle(&resp, &expected, &tag);
                        let status = client.status().expect("status");
                        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
                    }
                })
            },
        )
        .collect();
    for t in threads {
        t.join().expect("soak worker");
    }

    // Every worker's program is resident (six distinct hashes).
    let mut client = Client::connect(&socket).expect("post-soak connect");
    let status = client.status().expect("status");
    assert_eq!(status.get("sessions").and_then(Json::as_i64), Some(6));
    shutdown(client, handle);
}

/// A deliberately slow, deadline-unbounded sweep pinned to one session
/// must not serialize another session's warm edits: the fast client's
/// edit+verify latency stays in the same order of magnitude as its
/// single-client baseline, and its mailbox-wait p95 stays far below the
/// seconds-long sweep it would queue behind on a single-threaded daemon.
#[test]
fn slow_sweep_does_not_block_fast_edits_on_another_session() {
    let (socket, _tcp, handle) = start_daemon("latency", false);

    // The slow session: keep its actor continuously busy with unbounded
    // verifies until told to stop, guaranteeing overlap with the fast
    // client regardless of single-sweep duration.
    let slow_source = adder_source(20);
    let mut slow_client = Client::connect(&socket).expect("slow connect");
    slow_client.load("slow", &slow_source).expect("slow load");
    let stop = Arc::new(AtomicBool::new(false));
    let slow_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut sweeps = 0u32;
            while !stop.load(Ordering::SeqCst) {
                let resp = slow_client.verify("slow", None).expect("slow verify");
                assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
                sweeps += 1;
            }
            sweeps
        })
    };

    let fast_source = adder_source(4);
    let mut fast = Client::connect(&socket).expect("fast connect");
    fast.load("fast", &fast_source).expect("fast load");
    let cycle = |client: &mut Client| -> Duration {
        let t0 = Instant::now();
        let resp = client.edit("fast", &fast_source).expect("fast edit");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        let resp = client.verify("fast", None).expect("fast verify");
        assert_eq!(resp.get("all_safe").and_then(Json::as_bool), Some(true));
        t0.elapsed()
    };
    // Warm-up + single-client baseline (the slow loop just started, but
    // a couple of cycles absorb cold-cache noise either way).
    let baseline = (0..5).map(|_| cycle(&mut fast)).min().unwrap();

    let during: Vec<Duration> = (0..20).map(|_| cycle(&mut fast)).collect();
    let worst = during.iter().max().copied().unwrap();

    // "Same order of magnitude": generous ×100 over the warm baseline
    // (plus a floor for timer noise), and an absolute ceiling far below
    // the multi-second serialization a single-threaded daemon shows.
    let bound = (baseline * 100).max(Duration::from_millis(250));
    assert!(
        worst < bound && worst < Duration::from_secs(2),
        "fast path stalled behind slow sweep: worst {worst:?}, baseline {baseline:?}"
    );

    // The queue-wait surface agrees: the fast session's mailbox p95 is
    // far below the sweep length.
    let status = fast.status().expect("status");
    let programs = status.get("programs").and_then(Json::as_arr).unwrap();
    let fast_entry = programs
        .iter()
        .find(|p| p.get("name").and_then(Json::as_str) == Some("fast"))
        .expect("fast session listed");
    let p95_us = fast_entry
        .get("mailbox_wait_p95_us")
        .and_then(Json::as_i64)
        .expect("mailbox_wait_p95_us");
    assert!(
        p95_us < 500_000,
        "fast session queued {p95_us}us behind the slow sweep"
    );

    stop.store(true, Ordering::SeqCst);
    let sweeps = slow_thread.join().expect("slow worker");
    assert!(sweeps > 0, "slow sweep never ran");
    shutdown(fast, handle);
}

/// Graceful shutdown: requests pipelined before (or racing) a shutdown
/// all get complete, parseable responses — a full verdict set or a
/// coded `shutting_down`/`not_loaded` refusal — never a torn line.
#[test]
fn graceful_shutdown_answers_every_in_flight_request_untorn() {
    use std::io::{BufRead, BufReader, Write};
    let (socket, _tcp, handle) = start_daemon("drain", false);

    let mut setup = Client::connect(&socket).expect("setup connect");
    let source = adder_source(8);
    setup.load("adder", &source).expect("load");
    let expected = fresh_verdicts(&source);

    // Pipeline a burst of verifies raw, without reading any responses.
    let stream = std::os::unix::net::UnixStream::connect(&socket).expect("raw connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    const BURST: usize = 8;
    let mut batch = String::new();
    for _ in 0..BURST {
        batch.push_str(
            &Request::Verify {
                name: "adder".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            }
            .to_line(),
        );
        batch.push('\n');
    }
    writer.write_all(batch.as_bytes()).expect("burst write");
    writer.flush().expect("burst flush");

    // Race a shutdown from another connection against the burst.
    let resp = setup.shutdown().expect("shutdown round-trips");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    // Every burst request gets exactly one complete response line.
    for i in 0..BURST {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("response read");
        assert!(n > 0, "connection closed after {i} of {BURST} responses");
        assert!(
            line.ends_with('\n'),
            "torn response line for request {i}: {line:?}"
        );
        let resp = Json::parse(line.trim_end())
            .unwrap_or_else(|e| panic!("unparseable response {i}: {e}: {line:?}"));
        assert!(
            resp.get("request_id").and_then(Json::as_i64).is_some(),
            "response {i} lost its request id: {resp}"
        );
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            assert_matches_oracle(&resp, &expected, &format!("drained verify {i}"));
        } else {
            let code = resp.get("code").and_then(Json::as_str);
            assert!(
                code == Some("shutting_down") || code == Some("not_loaded"),
                "unexpected refusal for request {i}: {resp}"
            );
        }
    }
    handle.join().expect("daemon thread exits cleanly");
}

/// `status` exposes the per-session routing surface operators need to
/// spot imbalance: queue depth, mailbox-wait percentiles and worker
/// liveness per program, plus the daemon-wide accept-error counter.
#[test]
fn status_surfaces_per_session_routing_fields() {
    let (_socket, tcp, handle) = start_daemon("statusfields", true);
    let mut client =
        Client::connect_tcp_with_retry(&tcp.expect("tcp addr"), 8, Duration::from_millis(25))
            .expect("tcp connect");
    client.load("adder", &adder_source(6)).expect("load");
    client.verify("adder", None).expect("verify");

    let status = client.status().expect("status");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(status.get("accept_errors").and_then(Json::as_i64), Some(0));
    let programs = status.get("programs").and_then(Json::as_arr).unwrap();
    assert_eq!(programs.len(), 1);
    let p = &programs[0];
    assert_eq!(p.get("worker_alive").and_then(Json::as_bool), Some(true));
    // The status round-trip itself proves the mailbox is drained.
    assert_eq!(p.get("queue_depth").and_then(Json::as_i64), Some(0));
    for field in ["mailbox_wait_p50_us", "mailbox_wait_p95_us"] {
        assert!(
            p.get(field).and_then(Json::as_i64).is_some(),
            "missing {field} in {p}"
        );
    }
    shutdown(client, handle);
}
