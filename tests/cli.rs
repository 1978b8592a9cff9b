//! CLI-level tests of the `qborrow` binary: backend selection flags and
//! their failure modes (exit code 2 + a list of valid backends for a
//! typo, per the documented exit-code contract).

use std::process::Command;

fn qborrow() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qborrow"))
}

fn fixture(name: &str) -> String {
    format!("{}/programs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn unknown_backend_exits_2_and_lists_valid_backends() {
    let out = qborrow()
        .args(["verify", &fixture("cccnot.qbr"), "--backend", "cvc5"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "bad usage exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown backend \"cvc5\""),
        "names the offender: {stderr}"
    );
    assert!(
        stderr.contains("sat, anf, bdd, auto"),
        "lists every valid backend: {stderr}"
    );
}

#[test]
fn missing_backend_value_exits_2() {
    let out = qborrow()
        .args(["verify", &fixture("cccnot.qbr"), "--backend"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sat, anf, bdd, auto"), "{stderr}");
}

#[test]
fn every_backend_verifies_the_safe_fixture() {
    for backend in ["sat", "anf", "bdd", "auto"] {
        let out = qborrow()
            .args(["verify", &fixture("cccnot.qbr"), "--backend", backend])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "backend {backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("SAFE"), "backend {backend}: {stdout}");
    }
}

#[test]
fn unsafe_fixture_exits_1_under_bdd_with_witnessed_violation() {
    let out = qborrow()
        .args(["verify", &fixture("unsafe_copy.qbr"), "--backend", "bdd"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "unsafe program exits 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UNSAFE"), "{stdout}");
    assert!(
        stdout.contains("witness"),
        "the canonical BDD produces a concrete witness: {stdout}"
    );
}

#[test]
fn client_rejects_unknown_backend_before_connecting() {
    // No daemon is running on this socket; the typo must fail fast with
    // exit 2 (local validation) rather than a connection error.
    let out = qborrow()
        .args([
            "client",
            "verify",
            &fixture("cccnot.qbr"),
            "--socket",
            "/tmp/qborrow-cli-test-no-daemon.sock",
            "--backend",
            "zdd",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sat, anf, bdd, auto"), "{stderr}");
}

/// `--stats-json` reports the SAT sweep's registry counters: on the
/// Håner adder under `--backend sat` the base pass merges every
/// restored qubit's formula into its input variable.
#[test]
fn stats_json_reports_sat_sweep_counters() {
    let out = qborrow()
        .args(["verify", &fixture("adder.qbr"), "--backend", "sat"])
        .arg("--stats-json")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "the adder is safe");
    let json = qborrow::serve::Json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("one JSON object");
    let counter = |label: &str| {
        json.get("counters")
            .and_then(|c| c.as_arr())
            .unwrap()
            .iter()
            .find(|c| {
                c.get("name").and_then(|n| n.as_str()) == Some("sweep")
                    && c.get("label").and_then(|l| l.as_str()) == Some(label)
            })
            .and_then(|c| c.get("value").and_then(|v| v.as_i64()))
    };
    assert!(counter("merged") > Some(0), "{json}");
    for label in ["refuted", "capped"] {
        assert!(counter(label).is_some(), "sweep/{label} missing: {json}");
    }
}
