//! CLI-level tests of the `qborrow` binary: backend selection flags and
//! their failure modes (exit code 2 + a list of valid backends for a
//! typo, per the documented exit-code contract), and the message every
//! value-taking flag gives for a missing or malformed value.

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

    // `--stats-json` reports the verdict as the daemon does: with the
    // violated condition and the witness assignment.
    let out = qborrow()
        .args(["verify", &fixture("unsafe_copy.qbr"), "--backend", "bdd"])
        .arg("--stats-json")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "unsafe program exits 1");
    let json = qborrow::serve::Json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("one JSON object");
    let verdicts = json.get("verdicts").and_then(|v| v.as_arr()).unwrap();
    let unsafe_verdict = verdicts
        .iter()
        .find(|v| v.get("verdict").and_then(|s| s.as_str()) == Some("unsafe"))
        .unwrap_or_else(|| panic!("no unsafe verdict: {json}"));
    assert!(
        unsafe_verdict
            .get("violation")
            .and_then(|s| s.as_str())
            .is_some(),
        "{json}"
    );
    assert!(
        unsafe_verdict
            .get("witness")
            .and_then(|w| w.as_arr())
            .is_some(),
        "{json}"
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
    // One sequential session, reporting every session fact.
    let sessions = json.get("sessions").and_then(|s| s.as_arr()).unwrap();
    assert_eq!(sessions.len(), 1, "{json}");
    for (name, _) in qborrow::core::SessionStats::default().facts() {
        assert!(sessions[0].get(name).is_some(), "{name} missing: {json}");
    }
    assert!(
        sessions[0].get("sweep_merged").and_then(|n| n.as_i64()) > Some(0),
        "{json}"
    );
}

/// `watch` parses its flags as the client does: a zero poll interval
/// (a busy spin) is refused with exit 2 before any connection attempt.
#[test]
fn watch_rejects_zero_interval_before_connecting() {
    let out = qborrow()
        .args(["watch", &fixture("cccnot.qbr"), "--interval-ms", "0"])
        .args(["--socket", "/tmp/qborrow-cli-test-no-daemon.sock"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--interval-ms expects a positive number"),
        "{stderr}"
    );
}

/// How a value-taking flag reads its value, and so how it fails.
#[derive(Clone, Copy)]
enum Value {
    /// Any text; only a missing value is an error.
    Text(&'static str),
    /// A non-negative integer.
    Number,
    /// An integer above zero.
    Positive,
    Backend,
    Simplify,
}

/// Every value-taking flag of every subcommand: the flag, its kind,
/// and the subcommand prefix it is passed after.
const VALUE_FLAGS: &[(&str, &[&str], Value)] = {
    use Value::*;
    const VERIFY: &[&str] = &["verify", "<fixture>"];
    const SERVE: &[&str] = &["serve", "--socket", "<sock>"];
    const CLIENT: &[&str] = &["client", "verify", "<fixture>", "--socket", "<sock>"];
    const WATCH: &[&str] = &["watch", "<fixture>", "--socket", "<sock>"];
    &[
        ("--backend", VERIFY, Backend),
        ("--simplify", VERIFY, Simplify),
        ("--jobs", VERIFY, Number),
        ("--trace-out", VERIFY, Text("a path")),
        ("--socket", SERVE, Text("a path")),
        ("--tcp", SERVE, Text("an address (e.g. 127.0.0.1:7691)")),
        ("--backend", SERVE, Backend),
        ("--simplify", SERVE, Simplify),
        ("--max-sessions", SERVE, Positive),
        ("--idle-timeout-ms", SERVE, Positive),
        ("--arena-gc-floor", SERVE, Number),
        ("--decision-cache", SERVE, Positive),
        ("--default-deadline-ms", SERVE, Positive),
        ("--queue-budget", SERVE, Positive),
        ("--breaker-threshold", SERVE, Positive),
        ("--breaker-cooldown-ms", SERVE, Positive),
        ("--state-dir", SERVE, Text("a directory path")),
        ("--log-file", SERVE, Text("a path")),
        ("--trace-dir", SERVE, Text("a directory path")),
        ("--trace-retain", SERVE, Positive),
        ("--slow-ms", SERVE, Positive),
        ("--sample-interval-ms", SERVE, Positive),
        ("--socket", CLIENT, Text("a path")),
        (
            "--addr",
            CLIENT,
            Text("a TCP address (e.g. 127.0.0.1:7691)"),
        ),
        ("--name", CLIENT, Text("a value")),
        ("--backend", CLIENT, Backend),
        ("--deadline-ms", CLIENT, Positive),
        ("--trace-out", CLIENT, Text("a path")),
        ("--interval-ms", CLIENT, Positive),
        ("--socket", WATCH, Text("a path")),
        ("--addr", WATCH, Text("a TCP address (e.g. 127.0.0.1:7691)")),
        ("--backend", WATCH, Backend),
        ("--interval-ms", WATCH, Positive),
    ]
};

/// Every value-taking flag, once with its value missing and once with a
/// malformed value, exits 2 with that flag's message as the first line
/// of stderr (then the usage text). A bad `--simplify` mode is named
/// and the valid modes listed; a missing one says what is expected. `serve`/`client`/`watch` point at a
/// socket in a fresh directory that must still not exist afterwards:
/// flags are checked before anything binds or connects.
#[test]
fn every_value_flag_rejects_a_missing_and_a_malformed_value() {
    let dir = std::env::temp_dir().join(format!("qborrow-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("qb.sock");
    let valid_backends = "valid backends: sat, anf, bdd, auto";
    for &(flag, prefix, kind) in VALUE_FLAGS {
        let missing = match kind {
            Value::Text(noun) => format!("{flag} expects {noun}"),
            Value::Number => format!("{flag} expects a number"),
            Value::Positive => format!("{flag} expects a positive number"),
            Value::Backend => format!("{flag} expects a name ({valid_backends})"),
            Value::Simplify => format!("{flag} expects raw or full"),
        };
        let malformed = match kind {
            Value::Text(_) => None,
            Value::Number => Some(("x", missing.clone())),
            Value::Positive => Some(("0", missing.clone())),
            Value::Backend => Some(("zdd", format!("unknown backend \"zdd\" ({valid_backends})"))),
            Value::Simplify => Some((
                "fast",
                "unknown simplify mode \"fast\" (valid modes: raw, full)".to_string(),
            )),
        };
        let runs = std::iter::once((None, missing)).chain(malformed.map(|(v, m)| (Some(v), m)));
        for (value, expected) in runs {
            let mut cmd = qborrow();
            for &arg in prefix {
                match arg {
                    "<fixture>" => cmd.arg(fixture("cccnot.qbr")),
                    "<sock>" => cmd.arg(&sock),
                    _ => cmd.arg(arg),
                };
            }
            cmd.arg(flag).args(value);
            let out = cmd.output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let call = format!("{} {flag} {value:?}", prefix[0]);
            assert_eq!(out.status.code(), Some(2), "{call}: {stderr}");
            assert_eq!(stderr.lines().next(), Some(expected.as_str()), "{call}");
            assert!(stderr.contains("usage:"), "{call}: {stderr}");
            assert!(!sock.exists(), "{call} touched the socket");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
