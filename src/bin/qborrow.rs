//! The `qborrow` command-line verifier — the counterpart of the paper
//! artifact's `./qborrow ../examples/adder.qbr` binary, plus the
//! verify-on-change serving layer.
//!
//! ```text
//! qborrow verify <file.qbr|-> [--backend sat|anf|bdd|auto] [--simplify raw|full]
//!                             [--jobs N] [--trace-out <path>] [--stats-json]
//! qborrow info   <file.qbr|->
//! qborrow render <file.qbr|->
//!
//! qborrow serve  --socket <path> [--tcp <addr>] [--backend ...] [--simplify ...] [--quiet]
//!                [--default-deadline-ms N] [--state-dir <dir>] [--log-file <path>]
//!                [--trace-dir <dir>] [--trace-retain N] [--slow-ms N] [--sample-interval-ms N]
//! qborrow client verify <file.qbr|-> [--socket <path>|--addr <tcp>] [--name <name>]
//!                       [--backend <name>] [--deadline-ms N] [--trace-out <path>]
//! qborrow client edit   <file.qbr|-> [--socket <path>|--addr <tcp>] [--name <name>] [--backend <name>]
//! qborrow client status [--socket <path>|--addr <tcp>] [--json]
//! qborrow client top    [--socket <path>|--addr <tcp>] [--interval-ms N] [--once] [--json]
//! qborrow client trace  <request_id> [--socket <path>|--addr <tcp>] [--trace-out <path>]
//! qborrow client metrics|shutdown [--socket <path>|--addr <tcp>]
//! qborrow client unload <name> [--socket <path>|--addr <tcp>]
//! qborrow watch  <file.qbr> [--socket <path>|--addr <tcp>] [--interval-ms N] [--backend <name>]
//! ```
//!
//! `<file.qbr>` may be `-` to read the program from stdin (for editor
//! integrations). Exit codes: `0` success/all-safe, `1` verification
//! found unsafe qubits or a runtime error occurred, `2` malformed input
//! (unreadable file, parse or elaboration error) or bad usage.
//!
//! The daemon keeps one warm verification session per loaded program;
//! `client verify` loads (or re-uses) and verifies over the daemon, and
//! `watch` re-verifies on every file change — tracked as a
//! (device, inode, mtime, length) stamp so save-via-rename within the
//! mtime granularity is caught — paying only for the edited gate suffix.

use qborrow::circuit::render_with_labels;
use qborrow::core::{
    verify_program, verify_program_parallel, BackendKind, BackendOptions, VerifyOptions, Violation,
};
use qborrow::formula::Simplify;
use qborrow::lang::{elaborate, parse, ElaboratedProgram};
use qborrow::serve::{render_facts, render_verdict, Client, Json, ServeOptions, ServerLimits};
use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;

/// Exit code for malformed input / bad usage.
const EXIT_BAD_INPUT: u8 = 2;
/// Exit code when the daemon sheds the request (`overloaded` /
/// `unavailable`): the program was not judged unsafe, the daemon just
/// declined the work. Scripts can distinguish "retry later" from a
/// real verification failure.
const EXIT_SHED: u8 = 3;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         qborrow verify <file.qbr|-> [--backend sat|anf|bdd|auto] [--simplify raw|full] [--jobs N]\n  \
                 [--trace-out <path>] [--stats-json]\n  \
         qborrow info   <file.qbr|->\n  \
         qborrow render <file.qbr|->\n  \
         qborrow serve  --socket <path> [--tcp <addr>] [--backend sat|anf|bdd|auto]\n  \
                 [--simplify raw|full] [--max-sessions N] [--idle-timeout-ms N]\n  \
                 [--arena-gc-floor N] [--decision-cache N] [--default-deadline-ms N]\n  \
                 [--queue-budget N] [--breaker-threshold N] [--breaker-cooldown-ms N]\n  \
                 [--state-dir <dir>] [--log-file <path>] [--quiet]\n  \
                 [--trace-dir <dir>] [--trace-retain N] [--slow-ms N] [--sample-interval-ms N]\n  \
         qborrow client verify|edit <file.qbr|-> [--socket <path>|--addr <tcp>] [--name <name>]\n  \
                 [--backend <name>] [--deadline-ms N] [--trace-out <path>]\n  \
         qborrow client status [--socket <path>|--addr <tcp>] [--json]\n  \
         qborrow client top [--socket <path>|--addr <tcp>] [--interval-ms N] [--once] [--json]\n  \
         qborrow client trace <request_id> [--socket <path>|--addr <tcp>] [--trace-out <path>]\n  \
         qborrow client metrics|shutdown [--socket <path>|--addr <tcp>]\n  \
         qborrow client unload <name> [--socket <path>|--addr <tcp>]\n  \
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

fn default_socket() -> PathBuf {
    std::env::var_os("QBORROW_SOCKET")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("qborrow.sock"))
}

/// Parses `--backend`/`--simplify` at position `i`; returns whether the
/// flag was consumed.
fn parse_backend_flag(
    args: &[String],
    i: &mut usize,
    backend: &mut BackendKind,
    simplify: &mut Simplify,
) -> Result<bool, String> {
    match args[*i].as_str() {
        "--backend" => {
            *backend = match args.get(*i + 1).map(String::as_str) {
                Some(name) => match BackendKind::parse(name) {
                    Some(kind) => kind,
                    None => {
                        return Err(format!(
                            "unknown backend {name:?} (valid backends: {})",
                            BackendKind::valid_names()
                        ))
                    }
                },
                None => {
                    return Err(format!(
                        "--backend expects a name (valid backends: {})",
                        BackendKind::valid_names()
                    ))
                }
            };
            *i += 2;
            Ok(true)
        }
        "--simplify" => {
            *simplify = match args.get(*i + 1).map(String::as_str) {
                Some("raw") => Simplify::Raw,
                Some("full") => Simplify::Full,
                other => return Err(format!("unknown simplify mode {other:?}")),
            };
            *i += 2;
            Ok(true)
        }
        _ => Ok(false),
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

fn cmd_verify(path: &str, program: &ElaboratedProgram, flags: &[String]) -> ExitCode {
    let mut backend = BackendKind::Sat;
    let mut simplify = Simplify::Raw;
    let mut jobs = 1usize;
    let mut trace_out: Option<PathBuf> = None;
    let mut stats_json = false;
    let mut i = 0;
    while i < flags.len() {
        match parse_backend_flag(flags, &mut i, &mut backend, &mut simplify) {
            Err(e) => {
                eprintln!("{e}");
                return usage();
            }
            Ok(true) => continue,
            Ok(false) => {}
        }
        match flags[i].as_str() {
            "--jobs" => {
                jobs = match flags.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--jobs expects a number");
                        return usage();
                    }
                };
                i += 2;
            }
            "--trace-out" => {
                let Some(out) = flags.get(i + 1) else {
                    eprintln!("--trace-out expects a path");
                    return usage();
                };
                trace_out = Some(PathBuf::from(out));
                i += 2;
            }
            "--stats-json" => {
                stats_json = true;
                i += 1;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                return usage();
            }
        }
    }
    let opts = VerifyOptions {
        backend,
        simplify,
        backend_options: BackendOptions::default(),
    };
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
        if let Err(e) = std::fs::write(out, trace) {
            eprintln!("error: cannot write trace to {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "trace written to {} (open in Perfetto or chrome://tracing)",
            out.display()
        );
    }
    match outcome {
        Err(e) => {
            eprintln!("verification error: {e}");
            ExitCode::FAILURE
        }
        Ok(report) if stats_json => {
            println!("{}", verify_stats_json(path, program, backend, &report));
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
                backend,
                simplify,
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

fn cmd_serve(flags: &[String]) -> ExitCode {
    let mut socket = default_socket();
    let mut tcp: Option<String> = None;
    let mut backend = BackendKind::Sat;
    let mut simplify = Simplify::Raw;
    let mut log = true;
    let mut limits = ServerLimits::default();
    let mut state_dir: Option<PathBuf> = None;
    let mut log_file: Option<PathBuf> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut trace_retain = 32usize;
    let mut slow_threshold: Option<std::time::Duration> = None;
    let mut sample_interval = std::time::Duration::from_secs(1);
    let mut i = 0;
    while i < flags.len() {
        match parse_backend_flag(flags, &mut i, &mut backend, &mut simplify) {
            Err(e) => {
                eprintln!("{e}");
                return usage();
            }
            Ok(true) => continue,
            Ok(false) => {}
        }
        match flags[i].as_str() {
            "--socket" => {
                let Some(path) = flags.get(i + 1) else {
                    eprintln!("--socket expects a path");
                    return usage();
                };
                socket = PathBuf::from(path);
                i += 2;
            }
            "--tcp" => {
                let Some(addr) = flags.get(i + 1) else {
                    eprintln!("--tcp expects an address (e.g. 127.0.0.1:7691)");
                    return usage();
                };
                tcp = Some(addr.to_string());
                i += 2;
            }
            "--max-sessions" => {
                limits.max_sessions = match flags.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => Some(n),
                    _ => {
                        eprintln!("--max-sessions expects a positive number");
                        return usage();
                    }
                };
                i += 2;
            }
            "--idle-timeout-ms" => {
                limits.idle_timeout = match flags.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => Some(std::time::Duration::from_millis(ms)),
                    _ => {
                        eprintln!("--idle-timeout-ms expects a positive number");
                        return usage();
                    }
                };
                i += 2;
            }
            "--arena-gc-floor" => {
                limits.arena_gc_floor = match flags.get(i + 1).and_then(|s| s.parse::<usize>().ok())
                {
                    Some(n) => Some(n),
                    None => {
                        eprintln!("--arena-gc-floor expects a number");
                        return usage();
                    }
                };
                i += 2;
            }
            "--decision-cache" => {
                limits.decision_cache_cap =
                    match flags.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                        Some(n) if n > 0 => Some(n),
                        _ => {
                            eprintln!("--decision-cache expects a positive number");
                            return usage();
                        }
                    };
                i += 2;
            }
            "--default-deadline-ms" => {
                limits.default_deadline = match flags.get(i + 1).and_then(|s| s.parse::<u64>().ok())
                {
                    Some(ms) if ms > 0 => Some(std::time::Duration::from_millis(ms)),
                    _ => {
                        eprintln!("--default-deadline-ms expects a positive number");
                        return usage();
                    }
                };
                i += 2;
            }
            "--queue-budget" => {
                limits.queue_budget = match flags.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--queue-budget expects a positive number");
                        return usage();
                    }
                };
                i += 2;
            }
            "--breaker-threshold" => {
                limits.breaker_threshold =
                    match flags.get(i + 1).and_then(|s| s.parse::<u32>().ok()) {
                        Some(n) if n > 0 => n,
                        _ => {
                            eprintln!("--breaker-threshold expects a positive number");
                            return usage();
                        }
                    };
                i += 2;
            }
            "--breaker-cooldown-ms" => {
                limits.breaker_cooldown = match flags.get(i + 1).and_then(|s| s.parse::<u64>().ok())
                {
                    Some(ms) if ms > 0 => std::time::Duration::from_millis(ms),
                    _ => {
                        eprintln!("--breaker-cooldown-ms expects a positive number");
                        return usage();
                    }
                };
                i += 2;
            }
            "--state-dir" => {
                let Some(dir) = flags.get(i + 1) else {
                    eprintln!("--state-dir expects a directory path");
                    return usage();
                };
                state_dir = Some(PathBuf::from(dir));
                i += 2;
            }
            "--log-file" => {
                let Some(file) = flags.get(i + 1) else {
                    eprintln!("--log-file expects a path");
                    return usage();
                };
                log_file = Some(PathBuf::from(file));
                i += 2;
            }
            "--trace-dir" => {
                let Some(dir) = flags.get(i + 1) else {
                    eprintln!("--trace-dir expects a directory path");
                    return usage();
                };
                trace_dir = Some(PathBuf::from(dir));
                i += 2;
            }
            "--trace-retain" => {
                trace_retain = match flags.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--trace-retain expects a positive number");
                        return usage();
                    }
                };
                i += 2;
            }
            "--slow-ms" => {
                slow_threshold = match flags.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => Some(std::time::Duration::from_millis(ms)),
                    _ => {
                        eprintln!("--slow-ms expects a positive number");
                        return usage();
                    }
                };
                i += 2;
            }
            "--sample-interval-ms" => {
                sample_interval = match flags.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => std::time::Duration::from_millis(ms),
                    _ => {
                        eprintln!("--sample-interval-ms expects a positive number");
                        return usage();
                    }
                };
                i += 2;
            }
            "--quiet" => {
                log = false;
                i += 1;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                return usage();
            }
        }
    }
    let opts = ServeOptions {
        socket,
        tcp,
        verify: VerifyOptions {
            backend,
            simplify,
            backend_options: BackendOptions::default(),
        },
        log,
        limits,
        state_dir,
        log_file,
        trace_dir,
        trace_retain,
        slow_threshold,
        sample_interval,
    };
    match qborrow::serve::run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qborrow serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Trailing flags shared by the `qborrow client` subcommands.
struct ClientFlags {
    socket: PathBuf,
    addr: Option<String>,
    name: Option<String>,
    backend: Option<String>,
    deadline_ms: Option<u64>,
    trace_out: Option<PathBuf>,
    json: bool,
    once: bool,
    interval_ms: Option<u64>,
}

/// Every flag the `qborrow client` subcommands take.
const CLIENT_FLAGS: [&str; 9] = [
    "--socket",
    "--addr",
    "--name",
    "--backend",
    "--deadline-ms",
    "--trace-out",
    "--json",
    "--once",
    "--interval-ms",
];

/// The flags `qborrow watch` takes.
const WATCH_FLAGS: [&str; 4] = ["--socket", "--addr", "--backend", "--interval-ms"];

/// Parses trailing client flags, rejecting any not in `accepted` (a
/// subset of [`CLIENT_FLAGS`]). The backend name is validated locally
/// so a typo fails fast with exit code 2 instead of a daemon
/// round-trip.
fn parse_client_flags(flags: &[String], accepted: &[&str]) -> Result<ClientFlags, String> {
    let mut socket = default_socket();
    let mut addr = None;
    let mut name = None;
    let mut backend = None;
    let mut deadline_ms = None;
    let mut trace_out = None;
    let mut json = false;
    let mut once = false;
    let mut interval_ms = None;
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            other if !accepted.contains(&other) => return Err(format!("unknown flag {other:?}")),
            "--socket" => {
                socket = PathBuf::from(
                    flags
                        .get(i + 1)
                        .ok_or("--socket expects a path")?
                        .to_string(),
                );
                i += 2;
            }
            "--addr" => {
                addr = Some(
                    flags
                        .get(i + 1)
                        .ok_or("--addr expects a TCP address (e.g. 127.0.0.1:7691)")?
                        .to_string(),
                );
                i += 2;
            }
            "--name" => {
                name = Some(
                    flags
                        .get(i + 1)
                        .ok_or("--name expects a value")?
                        .to_string(),
                );
                i += 2;
            }
            "--backend" => {
                let value = flags.get(i + 1).ok_or_else(|| {
                    format!(
                        "--backend expects a name (valid backends: {})",
                        BackendKind::valid_names()
                    )
                })?;
                if BackendKind::parse(value).is_none() {
                    return Err(format!(
                        "unknown backend {value:?} (valid backends: {})",
                        BackendKind::valid_names()
                    ));
                }
                backend = Some(value.to_string());
                i += 2;
            }
            "--deadline-ms" => {
                deadline_ms = match flags.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => Some(ms),
                    _ => return Err("--deadline-ms expects a positive number".into()),
                };
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    flags
                        .get(i + 1)
                        .ok_or("--trace-out expects a path")?
                        .to_string(),
                ));
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--once" => {
                once = true;
                i += 1;
            }
            "--interval-ms" => {
                interval_ms = match flags.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => Some(ms),
                    _ => return Err("--interval-ms expects a positive number".into()),
                };
                i += 2;
            }
            other => unreachable!("accepted flag {other:?} has no parser"),
        }
    }
    Ok(ClientFlags {
        socket,
        addr,
        name,
        backend,
        deadline_ms,
        trace_out,
        json,
        once,
        interval_ms,
    })
}

/// Connects with a short retry window so one-shot client commands ride
/// out a daemon restart instead of failing into its downtime. `--addr`
/// selects the TCP transport; the Unix socket is the default.
fn connect(socket: &PathBuf, addr: &Option<String>) -> Result<Client, ExitCode> {
    let retries = 5;
    let delay = std::time::Duration::from_millis(25);
    if let Some(addr) = addr {
        return Client::connect_tcp_with_retry(addr, retries, delay).map_err(|e| {
            eprintln!(
                "qborrow client: cannot reach daemon at {addr} ({e}); start one with \
                 `qborrow serve --tcp {addr}`"
            );
            ExitCode::FAILURE
        });
    }
    Client::connect_with_retry(socket, retries, delay).map_err(|e| {
        eprintln!(
            "qborrow client: cannot reach daemon at {} ({e}); start one with \
             `qborrow serve --socket {}`",
            socket.display(),
            socket.display()
        );
        ExitCode::FAILURE
    })
}

/// Prints an `ok:false` response; returns `true` when one was printed.
/// If the daemon shed the request (`overloaded` admission reject or
/// `unavailable` circuit breaker), prints the retry hint and returns
/// the dedicated shed exit code so scripts can tell "retry later"
/// apart from a genuine failure.
fn print_shed(response: &Json) -> Option<ExitCode> {
    let retry_after = qborrow::serve::shed_retry_after(response)?;
    let code = response
        .get("code")
        .and_then(Json::as_str)
        .unwrap_or("overloaded");
    let msg = response
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("daemon shed the request");
    eprintln!("shed ({code}): {msg} (retry after {retry_after}ms)");
    Some(ExitCode::from(EXIT_SHED))
}

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

fn cmd_client(args: &[String]) -> ExitCode {
    let Some(sub) = args.first().map(String::as_str) else {
        return usage();
    };
    let (positional, flags): (Vec<&String>, Vec<&String>) = {
        // Positionals come before the first `--flag`.
        let split = args[1..]
            .iter()
            .position(|a| a.starts_with("--"))
            .map(|p| p + 1)
            .unwrap_or(args.len());
        (
            args[1..split].iter().collect(),
            args[split..].iter().collect(),
        )
    };
    let flags: Vec<String> = flags.into_iter().cloned().collect();
    let ClientFlags {
        socket,
        addr,
        name,
        backend,
        deadline_ms,
        trace_out,
        json,
        once,
        interval_ms,
    } = match parse_client_flags(&flags, &CLIENT_FLAGS) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    match sub {
        "verify" | "edit" => {
            let Some(path) = positional.first() else {
                return usage();
            };
            let source = match read_source(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(EXIT_BAD_INPUT);
                }
            };
            let name = name.unwrap_or_else(|| path.to_string());
            let mut client = match connect(&socket, &addr) {
                Ok(c) => c,
                Err(code) => return code,
            };
            let result = (|| -> std::io::Result<ExitCode> {
                if sub == "edit" {
                    let response = client.edit_with(&name, &source, backend.as_deref())?;
                    if let Some(code) = print_shed(&response) {
                        return Ok(code);
                    }
                    if print_error(&response) {
                        return Ok(ExitCode::from(EXIT_BAD_INPUT));
                    }
                    print_edit_response(&name, &response);
                } else {
                    let response = client.load_with(&name, &source, backend.as_deref())?;
                    if let Some(code) = print_shed(&response) {
                        return Ok(code);
                    }
                    if print_error(&response) {
                        return Ok(ExitCode::from(EXIT_BAD_INPUT));
                    }
                    let reused = response.get("reused").and_then(Json::as_bool) == Some(true);
                    let response =
                        client.verify_traced(&name, None, deadline_ms, trace_out.is_some())?;
                    if let Some(code) = print_shed(&response) {
                        return Ok(code);
                    }
                    if print_error(&response) {
                        return Ok(ExitCode::FAILURE);
                    }
                    if let Some(out) = &trace_out {
                        let trace = response.get("trace").and_then(Json::as_str).unwrap_or("");
                        std::fs::write(out, trace)?;
                        eprintln!(
                            "trace written to {} (open in Perfetto or chrome://tracing)",
                            out.display()
                        );
                    }
                    let all_safe = print_verify_response(&name, &response);
                    if reused {
                        println!("(warm session re-used)");
                    }
                    return Ok(if all_safe {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    });
                }
                Ok(ExitCode::SUCCESS)
            })();
            result.unwrap_or_else(|e| {
                eprintln!("qborrow client: {e}");
                ExitCode::FAILURE
            })
        }
        "status" => {
            let mut client = match connect(&socket, &addr) {
                Ok(c) => c,
                Err(code) => return code,
            };
            match client.status() {
                Err(e) => {
                    eprintln!("qborrow client: {e}");
                    ExitCode::FAILURE
                }
                Ok(response) => {
                    if print_error(&response) {
                        return ExitCode::FAILURE;
                    }
                    if json {
                        println!("{response}");
                        return ExitCode::SUCCESS;
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
                            p.get("bdd_resident_nodes").and_then(Json::as_i64).unwrap_or(0),
                            p.get("compactions").and_then(Json::as_i64).unwrap_or(0),
                        );
                    }
                    ExitCode::SUCCESS
                }
            }
        }
        "unload" => {
            let Some(target) = positional.first() else {
                return usage();
            };
            let mut client = match connect(&socket, &addr) {
                Ok(c) => c,
                Err(code) => return code,
            };
            match client.unload(target) {
                Err(e) => {
                    eprintln!("qborrow client: {e}");
                    ExitCode::FAILURE
                }
                Ok(response) => {
                    if print_error(&response) {
                        ExitCode::FAILURE
                    } else {
                        println!("unloaded {target}");
                        ExitCode::SUCCESS
                    }
                }
            }
        }
        "metrics" => {
            let mut client = match connect(&socket, &addr) {
                Ok(c) => c,
                Err(code) => return code,
            };
            match client.metrics() {
                Err(e) => {
                    eprintln!("qborrow client: {e}");
                    ExitCode::FAILURE
                }
                Ok(response) => {
                    if print_error(&response) {
                        return ExitCode::FAILURE;
                    }
                    // Raw Prometheus text exposition, scrape-ready.
                    print!(
                        "{}",
                        response.get("metrics").and_then(Json::as_str).unwrap_or("")
                    );
                    ExitCode::SUCCESS
                }
            }
        }
        "top" => {
            let mut client = match connect(&socket, &addr) {
                Ok(c) => c,
                Err(code) => return code,
            };
            let interval = std::time::Duration::from_millis(interval_ms.unwrap_or(1000));
            loop {
                let response = match client.top() {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("qborrow client: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if print_error(&response) {
                    return ExitCode::FAILURE;
                }
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
                    return ExitCode::SUCCESS;
                }
                std::thread::sleep(interval);
            }
        }
        "trace" => {
            let Some(rid) = positional.first().and_then(|s| s.parse::<u64>().ok()) else {
                eprintln!("client trace expects a numeric <request_id>");
                return usage();
            };
            let mut client = match connect(&socket, &addr) {
                Ok(c) => c,
                Err(code) => return code,
            };
            match client.trace(rid) {
                Err(e) => {
                    eprintln!("qborrow client: {e}");
                    ExitCode::FAILURE
                }
                Ok(response) => {
                    if print_error(&response) {
                        return ExitCode::FAILURE;
                    }
                    let trace = response.get("trace").and_then(Json::as_str).unwrap_or("");
                    match &trace_out {
                        Some(out) => {
                            if let Err(e) = std::fs::write(out, trace) {
                                eprintln!("error: cannot write trace to {}: {e}", out.display());
                                return ExitCode::FAILURE;
                            }
                            eprintln!(
                                "trace for request {rid} written to {} (open in Perfetto or \
                                 chrome://tracing)",
                                out.display()
                            );
                        }
                        None => print!("{trace}"),
                    }
                    ExitCode::SUCCESS
                }
            }
        }
        "shutdown" => {
            let mut client = match connect(&socket, &addr) {
                Ok(c) => c,
                Err(code) => return code,
            };
            match client.shutdown() {
                Err(e) => {
                    eprintln!("qborrow client: {e}");
                    ExitCode::FAILURE
                }
                Ok(_) => {
                    println!("daemon shut down");
                    ExitCode::SUCCESS
                }
            }
        }
        _ => usage(),
    }
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
    let ClientFlags {
        socket,
        addr,
        backend,
        interval_ms,
        ..
    } = match parse_client_flags(&args[1..], &WATCH_FLAGS) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let interval_ms = interval_ms.unwrap_or(200);

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
        let mut client = match &addr {
            Some(a) => Client::connect_tcp_with_retry(a, 8, std::time::Duration::from_millis(50))?,
            None => Client::connect_with_retry(&socket, 8, std::time::Duration::from_millis(50))?,
        };
        let backend = backend.as_deref();
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
        std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
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
