//! Protocol round-trip tests for the verify-on-change daemon, driving a
//! real Unix socket: load → verify → edit → verify cycles on the paper's
//! two benchmark families (the Håner carry adder behind `adder.qbr` and
//! the borrowed-bit Gidney MCX), in clean, dirty and sabotaged variants.
//! Every verdict the daemon returns is cross-checked against the
//! independent fresh-solver pipeline [`verify_circuit_fresh`].

use qborrow::core::{initial_values, verify_circuit_fresh, VerifyOptions};
use qborrow::lang::{adder_source, elaborate, mcx_source, parse};
use qborrow::serve::{run, Client, Json, ServeOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

static SOCKET_COUNTER: AtomicU32 = AtomicU32::new(0);

/// Starts a daemon on a fresh socket; returns the socket path, a
/// connected client, and the join handle.
fn start_daemon() -> (PathBuf, Client, std::thread::JoinHandle<()>) {
    let socket = std::env::temp_dir().join(format!(
        "qborrow-test-{}-{}.sock",
        std::process::id(),
        SOCKET_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let opts = ServeOptions {
        log: false,
        ..ServeOptions::new(socket.clone())
    };
    let handle = std::thread::spawn(move || run(&opts).expect("daemon runs"));
    for _ in 0..200 {
        if let Ok(client) = Client::connect(&socket) {
            return (socket, client, handle);
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

/// Independent oracle: fresh-pipeline verdicts for a source.
/// Returns `(qubit, safe, violation-display)` per `borrow` qubit.
fn fresh_verdicts(source: &str) -> Vec<(usize, bool, Option<String>)> {
    let program = elaborate(&parse(source).expect("parses")).expect("elaborates");
    let initial = initial_values(&program);
    let report = verify_circuit_fresh(
        &program.circuit,
        &initial,
        &program.qubits_to_verify(),
        &VerifyOptions::default(),
    )
    .expect("fresh verification completes");
    report
        .verdicts
        .iter()
        .map(|v| {
            (
                v.qubit,
                v.safe,
                v.counterexample.as_ref().map(|ce| ce.violation.to_string()),
            )
        })
        .collect()
}

/// Asserts a daemon verify response matches the fresh oracle exactly.
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
    for (v, (qubit, safe, violation)) in verdicts.iter().zip(&expected) {
        assert_eq!(
            v.get("qubit").and_then(Json::as_usize),
            Some(*qubit),
            "{tag}: qubit order"
        );
        assert_eq!(
            v.get("safe").and_then(Json::as_bool),
            Some(*safe),
            "{tag}: safety of qubit {qubit}"
        );
        let daemon_violation = v.get("violation").and_then(Json::as_str).map(String::from);
        assert_eq!(
            &daemon_violation, violation,
            "{tag}: violation kind of qubit {qubit}"
        );
    }
    assert_eq!(
        response.get("all_safe").and_then(Json::as_bool),
        Some(expected.iter().all(|(_, safe, _)| *safe)),
        "{tag}: all_safe"
    );
}

/// A sabotaged Håner adder: an extra X on a dirty qubit after the
/// uncompute — a pure suffix append, violating condition (6.1) on a[1].
fn sabotaged_adder(n: usize) -> String {
    format!("{}X[a[1]];\n", adder_source(n))
}

/// A Gidney MCX whose ancilla leaks into a control: `release` is moved
/// to the very end so the extra CNOT elaborates, and the suffix gains a
/// gate that makes `anc` violate condition (6.2).
fn sabotaged_mcx(m: usize) -> String {
    let good = mcx_source(m);
    let moved = good.replace("release anc;\n", "");
    format!("{moved}\nCNOT[anc, q[1]];\nrelease anc;\n")
}

#[test]
fn socket_load_verify_edit_cycle_on_haner_adder() {
    let (_socket, mut client, handle) = start_daemon();
    let good = adder_source(8);
    let bad = sabotaged_adder(8);

    let load = client.load("adder", &good).unwrap();
    assert_eq!(load.get("ok").and_then(Json::as_bool), Some(true), "{load}");
    assert_eq!(load.get("qubits").and_then(Json::as_i64), Some(15));
    assert_eq!(load.get("reused").and_then(Json::as_bool), Some(false));

    let verify = client.verify("adder", None).unwrap();
    assert_matches_fresh(&verify, &good, "clean load");

    // Sabotage: a 1-gate suffix append must take the incremental path
    // and flip the verdict.
    let edit = client.edit("adder", &bad).unwrap();
    assert_eq!(
        edit.get("strategy").and_then(Json::as_str),
        Some("incremental"),
        "{edit}"
    );
    let old_gates = load.get("gates").and_then(Json::as_i64).unwrap();
    assert_eq!(
        edit.get("common_prefix").and_then(Json::as_i64),
        Some(old_gates),
        "append keeps the whole old circuit as prefix"
    );
    assert_eq!(edit.get("added_gates").and_then(Json::as_i64), Some(1));
    let verify = client.verify("adder", None).unwrap();
    assert_matches_fresh(&verify, &bad, "sabotaged edit");
    assert_eq!(verify.get("all_safe").and_then(Json::as_bool), Some(false));

    // Heal: editing back must flip every verdict back to safe.
    let edit = client.edit("adder", &good).unwrap();
    assert_eq!(
        edit.get("strategy").and_then(Json::as_str),
        Some("incremental")
    );
    let verify = client.verify("adder", None).unwrap();
    assert_matches_fresh(&verify, &good, "healed edit");
    assert_eq!(verify.get("all_safe").and_then(Json::as_bool), Some(true));

    shutdown(client, handle);
}

#[test]
fn socket_gidney_mcx_dirty_and_sabotaged() {
    let (_socket, mut client, handle) = start_daemon();
    let good = mcx_source(5);
    let bad = sabotaged_mcx(5);

    client.load("mcx", &good).unwrap();
    let verify = client.verify("mcx", None).unwrap();
    assert_matches_fresh(&verify, &good, "good mcx");
    assert_eq!(verify.get("all_safe").and_then(Json::as_bool), Some(true));

    let edit = client.edit("mcx", &bad).unwrap();
    assert_eq!(edit.get("ok").and_then(Json::as_bool), Some(true), "{edit}");
    let verify = client.verify("mcx", None).unwrap();
    assert_matches_fresh(&verify, &bad, "sabotaged mcx");
    assert_eq!(verify.get("all_safe").and_then(Json::as_bool), Some(false));

    let edit = client.edit("mcx", &good).unwrap();
    assert_eq!(edit.get("ok").and_then(Json::as_bool), Some(true));
    let verify = client.verify("mcx", None).unwrap();
    assert_matches_fresh(&verify, &good, "healed mcx");

    shutdown(client, handle);
}

#[test]
fn socket_clean_variant_and_target_subsets() {
    let (_socket, mut client, handle) = start_daemon();
    // Clean variant of the Håner adder: the working register is
    // `alloc`ed (known |0…0⟩) instead of trusted-dirty.
    let clean = adder_source(6).replace("borrow@ q[n];", "alloc q[n];");
    client.load("clean-adder", &clean).unwrap();
    let verify = client.verify("clean-adder", None).unwrap();
    assert_matches_fresh(&verify, &clean, "clean-initial adder");

    // Subset verify: only the first two dirty qubits.
    let program = elaborate(&parse(&clean).unwrap()).unwrap();
    let targets = program.qubits_to_verify();
    let subset = vec![targets[0], targets[1]];
    let verify = client.verify("clean-adder", Some(subset.clone())).unwrap();
    let verdicts = verify.get("verdicts").and_then(Json::as_arr).unwrap();
    assert_eq!(verdicts.len(), 2);
    for (v, q) in verdicts.iter().zip(&subset) {
        assert_eq!(v.get("qubit").and_then(Json::as_usize), Some(*q));
        assert_eq!(v.get("safe").and_then(Json::as_bool), Some(true));
    }

    // Out-of-range targets surface as protocol errors, not crashes.
    let bad = client.verify("clean-adder", Some(vec![999])).unwrap();
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));

    shutdown(client, handle);
}

#[test]
fn socket_survives_malformed_requests_and_sessions_dedupe() {
    use std::io::{BufRead, BufReader, Write};
    let (socket, client, handle) = start_daemon();
    // Connections are served one at a time: release the probe connection
    // before opening a raw one.
    drop(client);

    // Raw garbage on a fresh connection: one error line back, daemon
    // stays up.
    {
        let stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"cmd\": nope}\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim_end()).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    }
    let mut client = Client::connect(&socket).expect("reconnect after raw probe");

    // Structurally identical programs under two names share a session.
    let src_a = "borrow a[2]; CNOT[a[1], a[2]]; CNOT[a[1], a[2]];";
    let src_b = "borrow b[2]; for i = 1 to 2 { CNOT[b[1], b[2]]; }";
    let first = client.load("a.qbr", src_a).unwrap();
    let second = client.load("b.qbr", src_b).unwrap();
    assert_eq!(first.get("hash"), second.get("hash"));
    assert_eq!(second.get("reused").and_then(Json::as_bool), Some(true));

    let status = client.status().unwrap();
    assert_eq!(status.get("sessions").and_then(Json::as_i64), Some(1));
    assert_eq!(
        status
            .get("programs")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(2)
    );

    let unload = client.unload("a.qbr").unwrap();
    assert_eq!(unload.get("ok").and_then(Json::as_bool), Some(true));
    let status = client.status().unwrap();
    assert_eq!(status.get("sessions").and_then(Json::as_i64), Some(1));

    let unload = client.unload("b.qbr").unwrap();
    assert_eq!(unload.get("sessions").and_then(Json::as_i64), Some(0));

    // Editing a never-loaded name carries the machine-readable code that
    // lets `qborrow watch` fall back to a fresh load.
    let ghost = client.edit("ghost.qbr", src_a).unwrap();
    assert_eq!(ghost.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(ghost.get("code").and_then(Json::as_str), Some("not_loaded"));

    // A second daemon refuses to hijack the live socket.
    let second = run(&ServeOptions {
        log: false,
        ..ServeOptions::new(socket.clone())
    });
    assert!(second.is_err(), "second daemon must not steal the socket");
    assert_eq!(second.unwrap_err().kind(), std::io::ErrorKind::AddrInUse);

    shutdown(client, handle);
}
