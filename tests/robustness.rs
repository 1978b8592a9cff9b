//! Crash-recovery and fault-injection tests driving the real `qborrow`
//! binary as a child process: SIGKILL mid-session with `--state-dir`
//! snapshots, environment-armed failpoints (`QB_FAILPOINTS`) panicking
//! inside a live daemon, protocol hardening against oversized and
//! non-UTF-8 request lines, and the `client verify --deadline-ms`
//! CLI path degrading to structured UNKNOWN verdicts.

use qborrow::core::{initial_values, verify_circuit_fresh, VerifyOptions};
use qborrow::lang::{adder_source, elaborate, mcx_source, parse};
use qborrow::serve::{Client, Json};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

static COUNTER: AtomicU32 = AtomicU32::new(0);

/// Fresh socket + state-dir paths for one test.
fn paths(tag: &str) -> (PathBuf, PathBuf) {
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let pid = std::process::id();
    (
        std::env::temp_dir().join(format!("qborrow-robust-{tag}-{pid}-{n}.sock")),
        std::env::temp_dir().join(format!("qborrow-robust-{tag}-{pid}-{n}.state")),
    )
}

/// Spawns a real daemon process (`qborrow serve`) on `socket`.
fn spawn_daemon(socket: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qborrow"));
    cmd.arg("serve")
        .arg("--socket")
        .arg(socket)
        .arg("--quiet")
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn().expect("daemon process spawns")
}

/// Waits for the daemon to accept connections.
fn connect(socket: &Path) -> Client {
    for _ in 0..600 {
        if let Ok(client) = Client::connect(socket) {
            return client;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon did not come up on {}", socket.display());
}

fn shutdown(mut client: Client, mut child: Child) {
    let resp = client.shutdown().expect("shutdown round-trips");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    drop(client);
    let status = child.wait().expect("daemon process exits");
    assert!(status.success(), "clean daemon exit, got {status}");
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

/// Asserts a daemon verify response equals the fresh oracle.
fn assert_matches_fresh(response: &Json, source: &str, tag: &str) {
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{tag}: {response}"
    );
    let expected = fresh_verdicts(source);
    let verdicts = response
        .get("verdicts")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{tag}: no verdicts in {response}"));
    assert_eq!(verdicts.len(), expected.len(), "{tag}: verdict count");
    for (v, (qubit, safe)) in verdicts.iter().zip(&expected) {
        assert_eq!(
            v.get("qubit").and_then(Json::as_usize),
            Some(*qubit),
            "{tag}"
        );
        assert_eq!(
            v.get("safe").and_then(Json::as_bool),
            Some(*safe),
            "{tag}: qubit {qubit}"
        );
    }
}

/// A Gidney MCX whose ancilla leaks into a control (unsafe on `anc`).
fn sabotaged_mcx(m: usize) -> String {
    let good = mcx_source(m);
    let moved = good.replace("release anc;\n", "");
    format!("{moved}\nCNOT[anc, q[1]];\nrelease anc;\n")
}

/// SIGKILL a snapshotting daemon mid-session; a restarted daemon on the
/// same `--state-dir` must come back with every program loaded, the
/// learned auto winner intact, and verdicts identical to the oracle.
#[test]
fn kill_nine_then_restart_recovers_programs_backends_and_winners() {
    let (socket, state_dir) = paths("kill9");
    let _ = std::fs::remove_dir_all(&state_dir);
    let state = state_dir.to_str().unwrap().to_string();
    let adder = adder_source(8);
    let mcx = sabotaged_mcx(4);

    let mut child = spawn_daemon(&socket, &["--state-dir", &state], &[]);
    let (winners_before, auto_pref) = {
        let mut client = connect(&socket);
        let load = client.load("adder", &adder).unwrap();
        assert_eq!(load.get("ok").and_then(Json::as_bool), Some(true), "{load}");
        let load = client.load_with("mcx", &mcx, Some("auto")).unwrap();
        assert_eq!(load.get("ok").and_then(Json::as_bool), Some(true), "{load}");
        let verify = client.verify("adder", None).unwrap();
        assert_matches_fresh(&verify, &adder, "adder before kill");
        let verify = client.verify("mcx", None).unwrap();
        assert_matches_fresh(&verify, &mcx, "mcx before kill");
        let auto_pref = verify
            .get("auto_preference")
            .and_then(Json::as_str)
            .map(String::from);
        let status = client.status().unwrap();
        assert_eq!(
            status.get("state_persisted").and_then(Json::as_bool),
            Some(true)
        );
        (
            status
                .get("auto_winners_remembered")
                .and_then(Json::as_i64)
                .unwrap_or(0),
            auto_pref,
        )
    };
    // The snapshot writer is asynchronous (dirty flag + dedicated
    // thread); wait until the on-disk state actually contains what the
    // kill is supposed to preserve. Reads are sound because the writer
    // replaces the file atomically via rename.
    let state_file = state_dir.join("state.json");
    let flushed = |contents: &str| {
        contents.contains("\"mcx\"")
            && contents.contains("\"adder\"")
            && (winners_before == 0 || contents.contains("\"auto_winners\":[["))
    };
    for _ in 0..600 {
        if std::fs::read_to_string(&state_file).is_ok_and(|contents| flushed(&contents)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    child.kill().expect("SIGKILL delivered");
    child.wait().expect("killed process reaped");

    // Same socket, same state dir: the restart must reclaim the stale
    // socket file and replay the snapshot.
    let child = spawn_daemon(&socket, &["--state-dir", &state], &[]);
    let mut client = connect(&socket);
    let status = client.status().unwrap();
    let programs = status.get("programs").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = programs
        .iter()
        .filter_map(|p| p.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["adder", "mcx"], "all programs restored: {status}");
    let mcx_entry = &programs[1];
    assert_eq!(
        mcx_entry.get("backend").and_then(Json::as_str),
        Some("auto"),
        "per-program backend survives the crash"
    );
    assert_eq!(
        status.get("auto_winners_remembered").and_then(Json::as_i64),
        Some(winners_before),
        "learned auto winners survive the crash"
    );
    if auto_pref.as_deref().is_some_and(|p| p != "undecided") {
        assert!(winners_before > 0, "a decided preference was remembered");
    }

    // The restored sessions re-verify to the exact pre-crash verdicts.
    let verify = client.verify("adder", None).unwrap();
    assert_matches_fresh(&verify, &adder, "adder after restart");
    let verify = client.verify("mcx", None).unwrap();
    assert_matches_fresh(&verify, &mcx, "mcx after restart");

    shutdown(client, child);
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// `QB_FAILPOINTS=spurious_cancel=panic:1` on a real daemon process: the
/// first bounded verify panics inside the session, the daemon answers
/// with a structured `internal_error`, quarantines and rebuilds only
/// that session, and every later request is answered correctly.
#[test]
fn env_armed_failpoint_quarantines_only_the_poisoned_session() {
    let (socket, _state) = paths("failpoint");
    let adder = adder_source(8);
    let mcx = mcx_source(4);
    let child = spawn_daemon(
        &socket,
        &[],
        &[("QB_FAILPOINTS", "spurious_cancel=panic:1")],
    );
    let mut client = connect(&socket);
    client.load("adder", &adder).unwrap();
    client.load("mcx", &mcx).unwrap();

    // A bounded verify installs a cancellation token, which is what the
    // `spurious_cancel` failpoint keys on — armed as `panic`, it unwinds
    // out of the session mid-request.
    let poisoned = client
        .verify_with_deadline("adder", None, Some(60_000))
        .unwrap();
    assert_eq!(
        poisoned.get("ok").and_then(Json::as_bool),
        Some(false),
        "{poisoned}"
    );
    assert_eq!(
        poisoned.get("code").and_then(Json::as_str),
        Some("internal_error")
    );
    assert_eq!(
        poisoned.get("quarantined").and_then(Json::as_str),
        Some("adder")
    );
    assert_eq!(poisoned.get("rebuilt").and_then(Json::as_bool), Some(true));

    // The failpoint self-disarmed after one hit: the rebuilt session
    // verifies correctly, and the sibling session was never touched.
    let verify = client
        .verify_with_deadline("adder", None, Some(60_000))
        .unwrap();
    assert_matches_fresh(&verify, &adder, "rebuilt session");
    let verify = client.verify("mcx", None).unwrap();
    assert_matches_fresh(&verify, &mcx, "untouched sibling session");
    let status = client.status().unwrap();
    assert_eq!(status.get("quarantines").and_then(Json::as_i64), Some(1));

    shutdown(client, child);
}

/// Oversized and non-UTF-8 request lines get machine-readable error
/// codes and the connection survives both.
#[test]
fn hostile_request_lines_get_coded_errors_without_dropping_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    let (socket, _state) = paths("hostile");
    let child = spawn_daemon(&socket, &[], &[]);
    drop(connect(&socket)); // wait for startup, then free the slot

    let stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut read_response = |tag: &str| -> Json {
        let mut line = String::new();
        reader.read_line(&mut line).expect(tag);
        Json::parse(line.trim_end()).unwrap_or_else(|e| panic!("{tag}: {e}"))
    };

    // 17 MiB of garbage on one line: past the 16 MiB request cap.
    let big = vec![b'a'; 17 << 20];
    writer.write_all(&big).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let resp = read_response("oversized line answered");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(resp.get("code").and_then(Json::as_str), Some("oversized"));

    // Same connection still works.
    writer.write_all(b"{\"cmd\":\"status\"}\n").unwrap();
    writer.flush().unwrap();
    let resp = read_response("status after oversized");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    // Invalid UTF-8 bytes on one line.
    writer.write_all(b"{\"cmd\":\xff\xfe}\n").unwrap();
    writer.flush().unwrap();
    let resp = read_response("invalid utf8 answered");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("invalid_utf8")
    );

    // And the connection still works after that too.
    writer.write_all(b"{\"cmd\":\"status\"}\n").unwrap();
    writer.flush().unwrap();
    let resp = read_response("status after invalid utf8");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    drop(writer);
    drop(reader);

    shutdown(connect(&socket), child);
}

/// The `client verify --deadline-ms` CLI path: an expired budget prints
/// structured UNKNOWN verdicts and fails the exit code; re-running
/// without the flag on the same warm daemon decides everything.
#[test]
fn cli_deadline_flag_degrades_to_unknown_and_unbounded_rerun_decides() {
    let (socket, _state) = paths("cli");
    let child = spawn_daemon(&socket, &[], &[]);
    drop(connect(&socket)); // wait for startup, then free the slot
    let source_path = std::env::temp_dir().join(format!(
        "qborrow-robust-cli-{}-{}.qbr",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::write(&source_path, adder_source(64)).unwrap();
    let client_cmd = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_qborrow"))
            .arg("client")
            .arg("verify")
            .arg(&source_path)
            .arg("--socket")
            .arg(&socket)
            .arg("--name")
            .arg("big")
            .args(extra)
            .output()
            .expect("client runs")
    };

    // A 1 ms budget cannot decide 63 qubits: UNKNOWNs, non-zero exit.
    let bounded = client_cmd(&["--deadline-ms", "1"]);
    let stdout = String::from_utf8_lossy(&bounded.stdout);
    assert!(
        !bounded.status.success(),
        "unknowns fail the exit code: {stdout}"
    );
    assert!(
        stdout.contains("UNKNOWN ("),
        "structured unknown verdicts rendered: {stdout}"
    );
    assert!(
        stdout.contains("unknown: deadline expired"),
        "summary names the degradation: {stdout}"
    );

    // Unbounded re-run on the same warm daemon decides every qubit.
    let full = client_cmd(&[]);
    let stdout = String::from_utf8_lossy(&full.stdout);
    assert!(full.status.success(), "adder-64 is all-safe: {stdout}");
    assert!(!stdout.contains("UNKNOWN"), "everything decided: {stdout}");
    assert!(stdout.contains("(warm session re-used)"), "{stdout}");

    let _ = std::fs::remove_file(&source_path);
    shutdown(connect(&socket), child);
}
