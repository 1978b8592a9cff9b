//! The `qborrow` command-line verifier — the counterpart of the paper
//! artifact's `./qborrow ../examples/adder.qbr` binary, plus the
//! verify-on-change serving layer.
//!
//! `usage()` lists every subcommand and flag; each command's flags are one
//! table of `Flag` rows read by the one parser, `parse_flags`.
//!
//! `<file.qbr>` may be `-` to read the program from stdin (for editor
//! integrations). Exit codes: `0` success/all-safe, `1` verification
//! found unsafe qubits or a runtime error occurred, `2` malformed input
//! (unreadable file, parse or elaboration error) or bad usage, `3` the
//! daemon shed the request.
//!
//! The daemon keeps one warm verification session per loaded program;
//! `client verify` loads (or re-uses) and verifies over the daemon, and
//! `watch` re-verifies on every file change — tracked as a
//! (device, inode, mtime, length) stamp so save-via-rename within the
//! mtime granularity is caught — paying only for the edited gate suffix.

use qborrow::circuit::render_with_labels;
use qborrow::core::{
    verify_program, verify_program_parallel, BackendKind, VerifyOptions, Violation,
};
use qborrow::formula::Simplify;
use qborrow::lang::{elaborate, parse, ElaboratedProgram};
use qborrow::serve::{render_facts, render_verdict, Client, Json, ServeOptions, ServerLimits};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Exit code for malformed input / bad usage.
const EXIT_BAD_INPUT: u8 = 2;
/// Exit code when the daemon sheds the request (`overloaded` /
/// `unavailable`): the program was not judged unsafe, the daemon just
/// declined the work. Scripts can distinguish "retry later" from a
/// real verification failure.
const EXIT_SHED: u8 = 3;

fn usage() -> ExitCode {
    eprintln!(
        "\
usage:
  qborrow verify <file.qbr|-> [--backend sat|anf|bdd|auto] [--simplify raw|full] [--jobs N]
          [--trace-out <path>] [--stats-json]
  qborrow info   <file.qbr|->
  qborrow render <file.qbr|->
  qborrow serve  --socket <path> [--tcp <addr>] [--backend sat|anf|bdd|auto]
          [--simplify raw|full] [--max-sessions N] [--idle-timeout-ms N]
          [--arena-gc-floor N] [--decision-cache N] [--default-deadline-ms N]
          [--queue-budget N] [--breaker-threshold N] [--breaker-cooldown-ms N]
          [--state-dir <dir>] [--log-file <path>] [--quiet]
          [--trace-dir <dir>] [--trace-retain N] [--slow-ms N] [--sample-interval-ms N]
  qborrow client verify|edit <file.qbr|-> [--socket <path>|--addr <tcp>] [--name <name>]
          [--backend <name>] [--deadline-ms N] [--trace-out <path>]
  qborrow client status [--socket <path>|--addr <tcp>] [--json]
  qborrow client top [--socket <path>|--addr <tcp>] [--interval-ms N] [--once] [--json]
  qborrow client trace <request_id> [--socket <path>|--addr <tcp>] [--trace-out <path>]
  qborrow client metrics|shutdown [--socket <path>|--addr <tcp>]
  qborrow client unload <name> [--socket <path>|--addr <tcp>]
  qborrow watch  <file.qbr> [--socket <path>|--addr <tcp>] [--interval-ms N] [--backend <name>]"
    );
    ExitCode::from(EXIT_BAD_INPUT)
}

/// Reads a program source; `-` means stdin.
fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut source = String::new();
        std::io::stdin()
            .read_to_string(&mut source)
            .map_err(|e| format!("<stdin>: {e}"))?;
        Ok(source)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

fn load(path: &str) -> Result<ElaboratedProgram, String> {
    let source = read_source(path)?;
    let ast = parse(&source).map_err(|e| format!("{path}: {e}"))?;
    elaborate(&ast).map_err(|e| format!("{path}: {e}"))
}

/// How a flag reads its value. The parser derives each flag's error
/// message from its kind.
#[derive(Clone, Copy)]
enum Kind {
    /// Takes no value.
    Switch,
    /// Any text; the noun completes `--X expects <noun>`.
    Text(&'static str),
    /// An integer in `min..=max`: "a number" from 0, "a positive number"
    /// from 1.
    Int { min: u64, max: u64 },
    /// A backend name, checked here so a typo fails before any daemon
    /// round trip.
    Backend,
    /// `raw` or `full`.
    Simplify,
}

const NUMBER: Kind = Kind::Int {
    min: 0,
    max: u64::MAX,
};
const POSITIVE: Kind = Kind::Int {
    min: 1,
    max: u64::MAX,
};
const PATH: Kind = Kind::Text("a path");
const DIR: Kind = Kind::Text("a directory path");

/// One row of a command's flag table: the flag and how it reads its value.
type Flag = (&'static str, Kind);

const VERIFY_FLAGS: &[Flag] = &[
    ("--backend", Kind::Backend),
    ("--simplify", Kind::Simplify),
    ("--jobs", NUMBER),
    ("--trace-out", PATH),
    ("--stats-json", Kind::Switch),
];

const SERVE_FLAGS: &[Flag] = &[
    ("--socket", PATH),
    ("--tcp", Kind::Text("an address (e.g. 127.0.0.1:7691)")),
    ("--backend", Kind::Backend),
    ("--simplify", Kind::Simplify),
    ("--max-sessions", POSITIVE),
    ("--idle-timeout-ms", POSITIVE),
    ("--arena-gc-floor", NUMBER),
    ("--decision-cache", POSITIVE),
    ("--default-deadline-ms", POSITIVE),
    ("--queue-budget", POSITIVE),
    (
        "--breaker-threshold",
        Kind::Int {
            min: 1,
            max: u32::MAX as u64,
        },
    ),
    ("--breaker-cooldown-ms", POSITIVE),
    ("--state-dir", DIR),
    ("--log-file", PATH),
    ("--trace-dir", DIR),
    ("--trace-retain", POSITIVE),
    ("--slow-ms", POSITIVE),
    ("--sample-interval-ms", POSITIVE),
    ("--quiet", Kind::Switch),
];

const ADDR: Kind = Kind::Text("a TCP address (e.g. 127.0.0.1:7691)");

/// Every `qborrow client` subcommand takes every client flag.
const CLIENT_FLAGS: &[Flag] = &[
    ("--socket", PATH),
    ("--addr", ADDR),
    ("--name", Kind::Text("a value")),
    ("--backend", Kind::Backend),
    ("--deadline-ms", POSITIVE),
    ("--trace-out", PATH),
    ("--json", Kind::Switch),
    ("--once", Kind::Switch),
    ("--interval-ms", POSITIVE),
];

const WATCH_FLAGS: &[Flag] = &[
    ("--socket", PATH),
    ("--addr", ADDR),
    ("--backend", Kind::Backend),
    ("--interval-ms", POSITIVE),
];

/// One parsed flag value.
enum Value {
    On,
    Text(String),
    Int(u64),
    Backend(BackendKind),
    Simplify(Simplify),
}

/// The flags of one command line; a repeated flag keeps its last value.
struct Flags(Vec<(&'static str, Value)>);

/// Parses `args` against a command's flag `table`. A flag missing from
/// the table, a missing value or a malformed one prints its message and
/// the usage text, and ends the command with exit code 2.
fn parse_flags(args: &[String], table: &[Flag]) -> Result<Flags, ExitCode> {
    read_flags(args, table).map_err(|e| {
        eprintln!("{e}");
        usage()
    })
}

fn read_flags(args: &[String], table: &[Flag]) -> Result<Flags, String> {
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(&(flag, kind)) = table.iter().find(|(name, _)| name == arg) else {
            return Err(format!("unknown flag {arg:?}"));
        };
        let mut next = || args.next().map(String::as_str);
        let value = match kind {
            Kind::Switch => Value::On,
            Kind::Text(noun) => Value::Text(next().ok_or(format!("{flag} expects {noun}"))?.into()),
            Kind::Int { min, max } => match next().and_then(|s| s.parse().ok()) {
                Some(n) if (min..=max).contains(&n) => Value::Int(n),
                _ if min == 0 => return Err(format!("{flag} expects a number")),
                _ => return Err(format!("{flag} expects a positive number")),
            },
            Kind::Backend => {
                let valid = BackendKind::valid_names();
                let name =
                    next().ok_or(format!("{flag} expects a name (valid backends: {valid})"))?;
                match BackendKind::parse(name) {
                    Some(backend) => Value::Backend(backend),
                    None => {
                        return Err(format!(
                            "unknown backend {name:?} (valid backends: {valid})"
                        ))
                    }
                }
            }
            Kind::Simplify => match next() {
                Some("raw") => Value::Simplify(Simplify::Raw),
                Some("full") => Value::Simplify(Simplify::Full),
                Some(mode) => {
                    return Err(format!(
                        "unknown simplify mode {mode:?} (valid modes: raw, full)"
                    ))
                }
                None => return Err(format!("{flag} expects raw or full")),
            },
        };
        flags.push((flag, value));
    }
    Ok(Flags(flags))
}

impl Flags {
    fn get(&self, flag: &str) -> Option<&Value> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v)
    }

    fn on(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn text(&self, flag: &str) -> Option<&str> {
        match self.get(flag)? {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.text(flag).map(PathBuf::from)
    }

    fn int(&self, flag: &str) -> Option<u64> {
        match self.get(flag)? {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    fn count(&self, flag: &str) -> Option<usize> {
        self.int(flag)
            .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
    }

    fn millis(&self, flag: &str) -> Option<Duration> {
        self.int(flag).map(Duration::from_millis)
    }

    fn backend(&self) -> Option<BackendKind> {
        match self.get("--backend")? {
            Value::Backend(kind) => Some(*kind),
            _ => None,
        }
    }

    /// The verification settings `--backend` and `--simplify` select.
    fn verify_options(&self) -> VerifyOptions {
        let defaults = VerifyOptions::default();
        let simplify = match self.get("--simplify") {
            Some(Value::Simplify(mode)) => *mode,
            _ => defaults.simplify,
        };
        VerifyOptions {
            backend: self.backend().unwrap_or(defaults.backend),
            simplify,
            ..defaults
        }
    }

    /// The daemon's Unix socket: `--socket`, else `$QBORROW_SOCKET`,
    /// else `<tmpdir>/qborrow.sock`.
    fn socket(&self) -> PathBuf {
        self.path("--socket").unwrap_or_else(|| {
            std::env::var_os("QBORROW_SOCKET")
                .map(PathBuf::from)
                .unwrap_or_else(|| std::env::temp_dir().join("qborrow.sock"))
        })
    }

    /// Connects over `--addr` (TCP) when given, else over the Unix
    /// socket, retrying so the command rides out a daemon restart.
    fn dial(&self, attempts: u32, delay: Duration) -> std::io::Result<Client> {
        match self.text("--addr") {
            Some(addr) => Client::connect_tcp_with_retry(addr, attempts, delay),
            None => Client::connect_with_retry(self.socket(), attempts, delay),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        return usage();
    };
    match command {
        "serve" => return cmd_serve(&args[1..]),
        "client" => return cmd_client(&args[1..]),
        "watch" => return cmd_watch(&args[1..]),
        _ => {}
    }
    let Some(path) = args.get(1) else {
        return usage();
    };
    let program = match load(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_BAD_INPUT);
        }
    };
    match command {
        "info" => {
            println!(
                "{path}: {} qubits, {} gates, depth {}, classical: {}",
                program.num_qubits(),
                program.circuit.size(),
                program.circuit.depth(),
                program.circuit.is_classical()
            );
            for reg in &program.registers {
                println!(
                    "  register {:<8} kind={:<14} qubits {:?} live from gate {}{}",
                    reg.name,
                    format!("{:?}", reg.kind),
                    reg.qubits(),
                    reg.live_from,
                    reg.released_at
                        .map(|g| format!(", released at {g}"))
                        .unwrap_or_default()
                );
            }
            ExitCode::SUCCESS
        }
        "render" => {
            let labels: Vec<String> = (0..program.num_qubits())
                .map(|q| program.qubit_name(q).to_string())
                .collect();
            print!("{}", render_with_labels(&program.circuit, &labels));
            ExitCode::SUCCESS
        }
        "verify" => cmd_verify(path, &program, &args[2..]),
        _ => usage(),
    }
}

fn cmd_verify(path: &str, program: &ElaboratedProgram, args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, VERIFY_FLAGS) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let opts = flags.verify_options();
    let jobs = flags.count("--jobs").unwrap_or(1);
    let trace_out = flags.path("--trace-out");
    let stats_json = flags.on("--stats-json");
    let targets = program.qubits_to_verify();
    if targets.is_empty() {
        println!("{path}: no `borrow` qubits to verify (only borrow@/alloc)");
        return ExitCode::SUCCESS;
    }
    // The metrics registry is process-global; starting clean makes the
    // --stats-json counters attributable to exactly this run.
    if stats_json {
        qborrow::obs::reset_metrics();
    }
    if trace_out.is_some() {
        let _ = qborrow::obs::take_all_spans();
        qborrow::obs::set_enabled(true);
    }
    let outcome = if jobs == 1 {
        verify_program(program, &opts)
    } else {
        verify_program_parallel(program, &opts, jobs)
    };
    if let Some(out) = &trace_out {
        qborrow::obs::set_enabled(false);
        let trace = qborrow::obs::chrome_trace(&qborrow::obs::take_all_spans());
        if let Err(code) = write_trace(out, &trace, "trace") {
            return code;
        }
    }
    match outcome {
        Err(e) => {
            eprintln!("verification error: {e}");
            ExitCode::FAILURE
        }
        Ok(report) if stats_json => {
            println!(
                "{}",
                verify_stats_json(path, program, opts.backend, &report)
            );
            if report.all_safe() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(report) => {
            for v in &report.verdicts {
                if v.safe {
                    println!(
                        "  {:<8} SAFE   (|0>: {:?}, |+>: {:?})",
                        program.qubit_name(v.qubit),
                        v.zero_time,
                        v.plus_time
                    );
                } else {
                    let ce = v.counterexample.as_ref().expect("unsafe has witness");
                    println!(
                        "  {:<8} UNSAFE ({})",
                        program.qubit_name(v.qubit),
                        ce.violation
                    );
                    if let Some(bits) = &ce.basis_assignment {
                        let rendered: Vec<String> = bits
                            .iter()
                            .enumerate()
                            .filter(|&(_, &b)| b)
                            .map(|(q, _)| program.qubit_name(q).to_string())
                            .collect();
                        let detail = match ce.violation {
                            Violation::ZeroNotRestored => "initial basis state",
                            Violation::PlusNotRestored => "background on which |+> decoheres",
                        };
                        println!(
                            "           witness ({detail}): {{{}}} set, rest 0",
                            rendered.join(", ")
                        );
                    }
                }
            }
            println!(
                "{path}: {}/{} dirty qubits safe | backend {} ({:?}) | construct {:?} | solve {:?}",
                report.verdicts.iter().filter(|v| v.safe).count(),
                report.verdicts.len(),
                opts.backend,
                opts.simplify,
                report.construction_time,
                report.solver_time
            );
            if report.all_safe() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Renders a one-shot verify as a single machine-readable JSON object:
/// verdicts as the daemon reports them, wall-clock phases, each
/// session's facts as the daemon's `status` reports them, and the
/// per-phase counters the run left in the process metrics registry
/// (solver propagations/conflicts, backend cache rates, …).
fn verify_stats_json(
    path: &str,
    program: &ElaboratedProgram,
    backend: BackendKind,
    report: &qborrow::core::VerificationReport,
) -> Json {
    let verdicts: Vec<Json> = report
        .verdicts
        .iter()
        .map(|v| render_verdict(program, v))
        .collect();
    let sessions: Vec<Json> = report
        .sessions
        .iter()
        .map(|stats| Json::obj(render_facts(stats.facts())))
        .collect();
    let snapshot = qborrow::obs::metrics_snapshot();
    let counters: Vec<Json> = snapshot
        .counters
        .iter()
        .map(|(name, label, value)| {
            Json::obj(vec![
                ("name", Json::Str(name.clone())),
                ("label", Json::Str(label.clone())),
                ("value", Json::Int(*value as i64)),
            ])
        })
        .collect();
    let phases: Vec<Json> = snapshot
        .histograms
        .iter()
        .map(|(name, label, hist)| {
            Json::obj(vec![
                ("name", Json::Str(name.clone())),
                ("label", Json::Str(label.clone())),
                ("count", Json::Int(hist.count() as i64)),
                ("sum_ns", Json::Int(hist.sum() as i64)),
                ("p50_ns", Json::Int(hist.p50() as i64)),
                ("p95_ns", Json::Int(hist.p95() as i64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("file", Json::Str(path.to_string())),
        ("backend", Json::Str(backend.to_string())),
        ("all_safe", Json::Bool(report.all_safe())),
        ("qubits", Json::Int(program.num_qubits() as i64)),
        ("gates", Json::Int(program.circuit.size() as i64)),
        ("formula_nodes", Json::Int(report.formula_nodes as i64)),
        (
            "construct_ns",
            Json::Int(report.construction_time.as_nanos() as i64),
        ),
        ("solve_ns", Json::Int(report.solver_time.as_nanos() as i64)),
        ("verdicts", Json::Arr(verdicts)),
        ("sessions", Json::Arr(sessions)),
        ("counters", Json::Arr(counters)),
        ("latencies", Json::Arr(phases)),
    ])
}

/// Writes a Chrome trace to `out` and names the file on stderr; `what`
/// says whose trace it is.
fn write_trace(out: &Path, trace: &str, what: &str) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::write(out, trace) {
        eprintln!("error: cannot write trace to {}: {e}", out.display());
        return Err(ExitCode::FAILURE);
    }
    eprintln!(
        "{what} written to {} (open in Perfetto or chrome://tracing)",
        out.display()
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, SERVE_FLAGS) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let defaults = ServeOptions::new(flags.socket());
    let limits = defaults.limits;
    let opts = ServeOptions {
        tcp: flags.text("--tcp").map(str::to_string),
        verify: flags.verify_options(),
        log: !flags.on("--quiet"),
        limits: ServerLimits {
            max_sessions: flags.count("--max-sessions").or(limits.max_sessions),
            idle_timeout: flags.millis("--idle-timeout-ms").or(limits.idle_timeout),
            arena_gc_floor: flags.count("--arena-gc-floor").or(limits.arena_gc_floor),
            decision_cache_cap: flags
                .count("--decision-cache")
                .or(limits.decision_cache_cap),
            default_deadline: flags
                .millis("--default-deadline-ms")
                .or(limits.default_deadline),
            queue_budget: flags.count("--queue-budget").unwrap_or(limits.queue_budget),
            breaker_threshold: flags
                .int("--breaker-threshold")
                .map_or(limits.breaker_threshold, |n| {
                    u32::try_from(n).expect("the flag table bounds it to u32")
                }),
            breaker_cooldown: flags
                .millis("--breaker-cooldown-ms")
                .unwrap_or(limits.breaker_cooldown),
        },
        state_dir: flags.path("--state-dir"),
        log_file: flags.path("--log-file"),
        trace_dir: flags.path("--trace-dir"),
        trace_retain: flags
            .count("--trace-retain")
            .unwrap_or(defaults.trace_retain),
        slow_threshold: flags.millis("--slow-ms"),
        sample_interval: flags
            .millis("--sample-interval-ms")
            .unwrap_or(defaults.sample_interval),
        ..defaults
    };
    match qborrow::serve::run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qborrow serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints an `ok:false` response; returns `true` when one was printed.
fn print_error(response: &Json) -> bool {
    match response.get("ok").and_then(Json::as_bool) {
        Some(true) => false,
        _ => {
            let msg = response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown daemon error");
            eprintln!("error: {msg}");
            true
        }
    }
}

/// Renders a daemon verify response; returns `all_safe`.
fn print_verify_response(label: &str, response: &Json) -> bool {
    let verdicts = response
        .get("verdicts")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    for v in verdicts {
        let name = v.get("name").and_then(Json::as_str).unwrap_or("?");
        if v.get("safe").and_then(Json::as_bool) == Some(true) {
            println!("  {name:<8} SAFE");
        } else if v.get("verdict").and_then(Json::as_str) == Some("unknown") {
            let reason = v
                .get("reason")
                .and_then(Json::as_str)
                .unwrap_or("interrupted");
            println!("  {name:<8} UNKNOWN ({reason}; re-run without --deadline-ms to decide)");
        } else {
            let violation = v
                .get("violation")
                .and_then(Json::as_str)
                .unwrap_or("violation");
            println!("  {name:<8} UNSAFE ({violation})");
        }
    }
    let all_safe = response.get("all_safe").and_then(Json::as_bool) == Some(true);
    let safe = verdicts
        .iter()
        .filter(|v| v.get("safe").and_then(Json::as_bool) == Some(true))
        .count();
    let unknown = response.get("unknowns").and_then(Json::as_i64).unwrap_or(0);
    let solve_ms = response
        .get("solve_ns")
        .and_then(Json::as_i64)
        .map(|ns| ns as f64 / 1e6)
        .unwrap_or(0.0);
    let unknown_note = if unknown > 0 {
        format!(" ({unknown} unknown: deadline expired)")
    } else {
        String::new()
    };
    println!(
        "{label}: {safe}/{} dirty qubits safe{unknown_note} | daemon solve {solve_ms:.2}ms",
        verdicts.len()
    );
    all_safe
}

fn print_edit_response(label: &str, response: &Json) {
    let strategy = response
        .get("strategy")
        .and_then(Json::as_str)
        .unwrap_or("?");
    match strategy {
        "incremental" => {
            let common = response
                .get("common_prefix")
                .and_then(Json::as_i64)
                .unwrap_or(0);
            let gates = response.get("gates").and_then(Json::as_i64).unwrap_or(0);
            let added = response
                .get("added_gates")
                .and_then(Json::as_i64)
                .unwrap_or(0);
            let removed = response
                .get("removed_gates")
                .and_then(Json::as_i64)
                .unwrap_or(0);
            println!(
                "{label}: incremental edit (prefix {common}/{gates} warm, -{removed}/+{added} gates)"
            );
        }
        "identical" => println!("{label}: no structural change"),
        other => println!("{label}: {other}"),
    }
}

/// One daemon round trip that ends the command when it fails: an I/O
/// error exits 1; a shed reply (`overloaded` admission reject or
/// `unavailable` circuit breaker) prints its retry hint and exits
/// `EXIT_SHED`, so scripts can tell "retry later" from a genuine
/// failure; any other `ok:false` reply prints its error and exits `code`.
fn ask(response: std::io::Result<Json>, code: u8) -> Result<Json, ExitCode> {
    let response = response.map_err(io_failure)?;
    if let Some(retry_after) = qborrow::serve::shed_retry_after(&response) {
        let shed = response
            .get("code")
            .and_then(Json::as_str)
            .unwrap_or("overloaded");
        let msg = response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("daemon shed the request");
        eprintln!("shed ({shed}): {msg} (retry after {retry_after}ms)");
        return Err(ExitCode::from(EXIT_SHED));
    }
    if print_error(&response) {
        return Err(ExitCode::from(code));
    }
    Ok(response)
}

fn io_failure(e: std::io::Error) -> ExitCode {
    eprintln!("qborrow client: {e}");
    ExitCode::FAILURE
}

fn cmd_client(args: &[String]) -> ExitCode {
    let Some(sub) = args.first().map(String::as_str) else {
        return usage();
    };
    // Positionals come before the first `--flag`.
    let rest = &args[1..];
    let (positional, rest) = rest.split_at(
        rest.iter()
            .position(|a| a.starts_with("--"))
            .unwrap_or(rest.len()),
    );
    let flags = match parse_flags(rest, CLIENT_FLAGS) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    // The subcommand and its positional are checked before connecting.
    let target = positional.first().map(String::as_str);
    let mut source = String::new();
    let mut request_id = 0;
    match (sub, target) {
        ("verify" | "edit", Some(path)) => match read_source(path) {
            Ok(text) => source = text,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_BAD_INPUT);
            }
        },
        ("status" | "metrics" | "top" | "shutdown", _) | ("unload", Some(_)) => {}
        ("trace", _) => match target.and_then(|s| s.parse().ok()) {
            Some(rid) => request_id = rid,
            None => {
                eprintln!("client trace expects a numeric <request_id>");
                return usage();
            }
        },
        _ => return usage(),
    }
    let mut client = match flags.dial(5, Duration::from_millis(25)) {
        Ok(client) => client,
        Err(e) => {
            let (at, serve) = match flags.text("--addr") {
                Some(addr) => (addr.to_string(), format!("--tcp {addr}")),
                None => {
                    let socket = flags.socket().display().to_string();
                    (socket.clone(), format!("--socket {socket}"))
                }
            };
            eprintln!(
                "qborrow client: cannot reach daemon at {at} ({e}); start one with \
                 `qborrow serve {serve}`"
            );
            return ExitCode::FAILURE;
        }
    };
    let target = target.unwrap_or_default();
    client_round_trips(&mut client, sub, target, &source, request_id, &flags)
        .unwrap_or_else(|code| code)
}

/// The daemon requests of one checked `client` subcommand and the
/// rendering of their replies.
fn client_round_trips(
    client: &mut Client,
    sub: &str,
    target: &str,
    source: &str,
    request_id: u64,
    flags: &Flags,
) -> Result<ExitCode, ExitCode> {
    let json = flags.on("--json");
    let name = flags.text("--name").unwrap_or(target);
    let backend = flags.backend().map(BackendKind::name);
    match sub {
        "edit" => {
            let response = ask(client.edit_with(name, source, backend), EXIT_BAD_INPUT)?;
            print_edit_response(name, &response);
        }
        "verify" => {
            let loaded = ask(client.load_with(name, source, backend), EXIT_BAD_INPUT)?;
            let trace_out = flags.path("--trace-out");
            let deadline_ms = flags.int("--deadline-ms");
            let response = ask(
                client.verify_traced(name, None, deadline_ms, trace_out.is_some()),
                1,
            )?;
            if let Some(out) = &trace_out {
                let trace = response.get("trace").and_then(Json::as_str).unwrap_or("");
                std::fs::write(out, trace).map_err(io_failure)?;
                eprintln!(
                    "trace written to {} (open in Perfetto or chrome://tracing)",
                    out.display()
                );
            }
            let all_safe = print_verify_response(name, &response);
            if loaded.get("reused").and_then(Json::as_bool) == Some(true) {
                println!("(warm session re-used)");
            }
            if !all_safe {
                return Ok(ExitCode::FAILURE);
            }
        }
        "status" => {
            let response = ask(client.status(), 1)?;
            if json {
                println!("{response}");
                return Ok(ExitCode::SUCCESS);
            }
            let programs = response
                .get("programs")
                .and_then(Json::as_arr)
                .unwrap_or(&[]);
            println!("{} loaded program(s)", programs.len());
            for p in programs {
                println!(
                    "  {:<24} hash {} backend {:<4} qubits {:>4} gates {:>6} verifies {:>4} \
                     edits {:>4} arena nodes {:>7} solver vars {:>7} clauses {:>7} \
                     bdd nodes {:>7} compactions {}",
                    p.get("name").and_then(Json::as_str).unwrap_or("?"),
                    p.get("hash").and_then(Json::as_str).unwrap_or("?"),
                    p.get("backend").and_then(Json::as_str).unwrap_or("?"),
                    p.get("qubits").and_then(Json::as_i64).unwrap_or(0),
                    p.get("gates").and_then(Json::as_i64).unwrap_or(0),
                    p.get("verifies").and_then(Json::as_i64).unwrap_or(0),
                    p.get("edits").and_then(Json::as_i64).unwrap_or(0),
                    p.get("arena_nodes").and_then(Json::as_i64).unwrap_or(0),
                    p.get("solver_vars").and_then(Json::as_i64).unwrap_or(0),
                    p.get("live_clauses").and_then(Json::as_i64).unwrap_or(0),
                    p.get("bdd_resident_nodes")
                        .and_then(Json::as_i64)
                        .unwrap_or(0),
                    p.get("compactions").and_then(Json::as_i64).unwrap_or(0),
                );
            }
        }
        "unload" => {
            ask(client.unload(target), 1)?;
            println!("unloaded {target}");
        }
        "metrics" => {
            let response = ask(client.metrics(), 1)?;
            // Raw Prometheus text exposition, scrape-ready.
            print!(
                "{}",
                response.get("metrics").and_then(Json::as_str).unwrap_or("")
            );
        }
        "top" => {
            let once = flags.on("--once");
            let interval = flags
                .millis("--interval-ms")
                .unwrap_or(Duration::from_secs(1));
            loop {
                let response = ask(client.top(), 1)?;
                if json {
                    println!("{response}");
                } else {
                    if !once {
                        // Clear the terminal and home the cursor so the
                        // dashboard repaints in place.
                        print!("\x1b[2J\x1b[H");
                    }
                    print!("{}", render_top(&response));
                }
                if once {
                    break;
                }
                std::thread::sleep(interval);
            }
        }
        "trace" => {
            let response = ask(client.trace(request_id), 1)?;
            let trace = response.get("trace").and_then(Json::as_str).unwrap_or("");
            match flags.path("--trace-out") {
                Some(out) => write_trace(&out, trace, &format!("trace for request {request_id}"))?,
                None => print!("{trace}"),
            }
        }
        _ => {
            ask(client.shutdown(), 1)?;
            println!("daemon shut down");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders one `top` response as the text dashboard: windowed request
/// rates, per-request-type latency percentiles, and per-session gauges.
/// Rates and percentiles the sampler ring cannot answer yet (fewer than
/// two snapshots, no samples in the window) render as `-`.
fn render_top(response: &Json) -> String {
    use std::fmt::Write as _;
    let int = |key: &str| response.get(key).and_then(Json::as_i64).unwrap_or(0);
    let rate = |key: &str| -> String {
        match response
            .get("rates")
            .and_then(|r| r.get(key))
            .and_then(Json::as_f64)
        {
            Some(x) => format!("{x:.1}"),
            None => "-".to_string(),
        }
    };
    let cell = |v: Option<&Json>| -> String {
        match v.and_then(Json::as_i64) {
            Some(n) => n.to_string(),
            None => "-".to_string(),
        }
    };
    let mut out = String::new();
    let health = response
        .get("health")
        .and_then(Json::as_str)
        .unwrap_or("ok");
    let _ = writeln!(
        out,
        "qborrow top | health {} | window {:.0}s ({} samples) | {} requests | {} session(s) | \
         dropped spans {}",
        health,
        int("window_ms") as f64 / 1e3,
        int("samples"),
        int("requests"),
        int("sessions_count"),
        int("dropped_spans"),
    );
    let _ = writeln!(
        out,
        "rates: {} req/s | {} verify/s | {} conflicts/s | {} propagations/s",
        rate("req_per_s"),
        rate("verify_per_s"),
        rate("conflicts_per_s"),
        rate("propagations_per_s"),
    );
    // Windowed shed rate by reason, plus the lifetime total and the
    // live queue occupancy the health state is derived from.
    let shed_rate = |key: &str| -> String {
        match response
            .get("shed")
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
        {
            Some(x) => format!("{x:.1}"),
            None => "-".to_string(),
        }
    };
    let _ = writeln!(
        out,
        "shed/s: {} (mailbox_full {} | deadline {} | brownout {} | breaker {}) | {} shed total | \
         {} queued",
        shed_rate("per_s"),
        shed_rate("mailbox_full"),
        shed_rate("deadline"),
        shed_rate("brownout"),
        shed_rate("breaker"),
        int("sheds_total"),
        int("queued_requests"),
    );
    if let Some(rec) = response.get("recorder") {
        let ri = |key: &str| rec.get(key).and_then(Json::as_i64).unwrap_or(0);
        let _ = writeln!(
            out,
            "recorder: {} recorded ({} retained, {} overflowed) | {} exemplars | resident arena \
             {} bdd {}",
            ri("recorded"),
            ri("retained"),
            ri("overflow"),
            ri("exemplars"),
            int("resident_arena_nodes"),
            int("resident_bdd_nodes"),
        );
    }
    let types = response
        .get("request_types")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    if !types.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<12} {:>10} {:>10} {:>10}",
            "request", "rate/s", "p50_us", "p95_us"
        );
        for t in types {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>10} {:>10}",
                t.get("cmd").and_then(Json::as_str).unwrap_or("?"),
                t.get("rate_per_s")
                    .and_then(Json::as_f64)
                    .map_or_else(|| "-".to_string(), |x| format!("{x:.1}")),
                cell(t.get("p50_us")),
                cell(t.get("p95_us")),
            );
        }
    }
    let sessions = response
        .get("sessions")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    if !sessions.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<24} {:>6} {:>6} {:>12} {:>12} {:>10} {:>10}",
            "session", "queue", "q.max", "wait_p50_us", "wait_p95_us", "arena", "bdd"
        );
        for s in sessions {
            let _ = writeln!(
                out,
                "{:<24} {:>6} {:>6} {:>12} {:>12} {:>10} {:>10}",
                s.get("session").and_then(Json::as_str).unwrap_or("?"),
                cell(s.get("queue_depth")),
                cell(s.get("queue_depth_max")),
                cell(s.get("mailbox_wait_p50_us")),
                cell(s.get("mailbox_wait_p95_us")),
                cell(s.get("arena_nodes")),
                cell(s.get("bdd_resident_nodes")),
            );
        }
    }
    out
}

fn cmd_watch(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    if path == "-" {
        eprintln!("qborrow watch: needs a real file to poll (not stdin)");
        return usage();
    }
    let flags = match parse_flags(&args[1..], WATCH_FLAGS) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let interval_ms = flags.int("--interval-ms").unwrap_or(200);

    /// Identity + content stamp of the watched file. mtime alone misses
    /// an editor's save-via-rename landing within the filesystem's mtime
    /// granularity; tracking (device, inode, mtime, mtime_nsec, length)
    /// catches both in-place writes and atomic replacements.
    #[derive(PartialEq, Eq, Clone, Copy)]
    struct FileStamp {
        dev: u64,
        ino: u64,
        mtime: i64,
        mtime_nsec: i64,
        len: u64,
    }

    let stamp = |path: &str| -> Option<FileStamp> {
        use std::os::unix::fs::MetadataExt;
        let m = std::fs::metadata(path).ok()?;
        Some(FileStamp {
            dev: m.dev(),
            ino: m.ino(),
            mtime: m.mtime(),
            mtime_nsec: m.mtime_nsec(),
            len: m.len(),
        })
    };

    /// What one watch round learned about the daemon: `busy` widens the
    /// poll interval (daemon health was non-`ok`), `retry` re-runs the
    /// round on the next tick even without a file change (the daemon
    /// shed the request or was unreachable).
    struct RoundStatus {
        busy: bool,
        retry: bool,
    }
    let health_busy = |response: &Json| -> bool {
        // Every daemon response carries its health state; anything but
        // `ok` means we should poll more gently.
        matches!(response.get("health").and_then(Json::as_str), Some(h) if h != "ok")
    };

    // Initial load + verify. A fresh connection per round keeps the
    // single-connection daemon available to other clients in between,
    // and the retrying connect rides out a daemon restart (the socket
    // vanishes for the restart window, then a retry lands on the fresh
    // listener and the `not_loaded` fallback below re-loads).
    let run_round = |first: bool| -> std::io::Result<RoundStatus> {
        let done = |busy: bool| RoundStatus { busy, retry: false };
        let source = match read_source(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("watch: {e}");
                return Ok(done(false));
            }
        };
        let mut client = flags.dial(8, Duration::from_millis(50))?;
        let backend = flags.backend().map(BackendKind::name);
        let response = if first {
            client.load_with(path, &source, backend)?
        } else {
            let mut response = client.edit_with(path, &source, backend)?;
            if response.get("code").and_then(Json::as_str) == Some("not_loaded") {
                // The daemon restarted (or the program was unloaded by
                // another client): recover by loading from scratch.
                eprintln!("watch: {path} not loaded on the daemon; reloading");
                response = client.load_with(path, &source, backend)?;
            }
            response
        };
        if let Some(retry_after) = qborrow::serve::shed_retry_after(&response) {
            eprintln!("watch: daemon shed the update (retry in {retry_after}ms); backing off");
            return Ok(RoundStatus {
                busy: true,
                retry: true,
            });
        }
        if print_error(&response) {
            // Parse error while editing: keep watching.
            return Ok(done(health_busy(&response)));
        }
        if response.get("strategy").is_some() {
            print_edit_response(path, &response);
        }
        let response = client.verify(path, None)?;
        if let Some(retry_after) = qborrow::serve::shed_retry_after(&response) {
            eprintln!("watch: daemon shed the verify (retry in {retry_after}ms); backing off");
            return Ok(RoundStatus {
                busy: true,
                retry: true,
            });
        }
        if !print_error(&response) {
            print_verify_response(path, &response);
            // One latency line per round: this round's daemon-side time
            // split into mailbox queue-wait vs handle time, then the
            // warm-session percentiles from the daemon's per-target/
            // per-root histograms (log-bucketed, so these are bucket
            // upper bounds).
            let us = |key: &str| response.get(key).and_then(Json::as_i64).unwrap_or(0);
            let ms = |key: &str| us(key) as f64 / 1e6;
            println!(
                "  latency: queue {:.2}ms + handle {:.2}ms (mailbox wait p95 {}us) | \
                 target p50 {}us p95 {}us | root p50 {}us p95 {}us",
                ms("queue_ns"),
                ms("handle_ns"),
                us("mailbox_wait_p95_us"),
                us("target_p50_us"),
                us("target_p95_us"),
                us("root_p50_us"),
                us("root_p95_us"),
            );
        }
        Ok(done(health_busy(&response)))
    };

    let mut backoff = match run_round(true) {
        Ok(status) => status.busy,
        Err(e) => {
            eprintln!("qborrow watch: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut last = stamp(path);
    // A failed round (daemon crashed mid-request, restart outlasting the
    // connect retries) is retried on the next poll tick even without a
    // file change, so watch survives daemon downtime of any length.
    let mut pending = false;
    eprintln!("watching {path} (every {interval_ms}ms; Ctrl-C to stop)");
    loop {
        // While the daemon reports non-`ok` health, poll 5x more gently
        // (capped at 5s) so a fleet of watchers doesn't pile onto an
        // already-overloaded daemon; the next `ok` response restores
        // the configured cadence.
        let sleep_ms = if backoff {
            interval_ms.max(interval_ms.saturating_mul(5).min(5_000))
        } else {
            interval_ms
        };
        std::thread::sleep(Duration::from_millis(sleep_ms));
        let now = stamp(path);
        if now != last || pending {
            last = now;
            (backoff, pending) = match run_round(false) {
                Ok(status) => (status.busy, status.retry),
                Err(e) => {
                    eprintln!("qborrow watch: daemon unreachable ({e}); retrying");
                    (backoff, true)
                }
            };
        }
    }
}
