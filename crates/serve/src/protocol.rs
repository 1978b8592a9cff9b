//! The `qb-serve` wire protocol: JSON-lines request/response over a Unix
//! domain socket.
//!
//! Every request is one JSON object on one line with a `"cmd"` member;
//! every response is one JSON object on one line with an `"ok"` boolean.
//! Program sources travel as JSON strings (newlines escaped), so the
//! framing stays trivially line-based.
//!
//! | cmd | members | effect |
//! |-----|---------|--------|
//! | `load` | `name`, `source`, optional `backend` | elaborate + create/reuse a warm session |
//! | `verify` | `name`, optional `targets`, optional `deadline_ms`, optional `trace` | decide conditions on the warm session |
//! | `edit` | `name`, `source`, optional `backend` | diff against the cached circuit, re-verify incrementally |
//! | `status` | — | list loaded programs and session statistics |
//! | `metrics` | — | Prometheus text exposition of daemon metrics |
//! | `top` | — | windowed rates and per-session gauges from the sampler ring |
//! | `trace` | `request_id` | fetch a retained request trace from the flight recorder |
//! | `unload` | `name` | drop a program (and its session if unaliased) |
//! | `shutdown` | — | stop the daemon |
//!
//! The optional `backend` member (`"sat"`, `"anf"`, `"bdd"`, `"auto"`)
//! selects the decision backend for the named program's session.
//! Absent, the choice is sticky: a name already holding a session for
//! the same program keeps that session's backend, and fresh loads use
//! the daemon's default. Sessions are keyed by (structural hash,
//! backend), so the same program loaded under two backends gets two
//! independent warm sessions.

use crate::json::Json;
use qb_core::{Fact, QubitVerdict, Verdict};
use qb_lang::ElaboratedProgram;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Load (or re-use) a program under a client-chosen name.
    Load {
        /// Client-side identifier (usually the file path).
        name: String,
        /// QBorrow surface source.
        source: String,
        /// Decision backend name (`None` = the daemon's default).
        backend: Option<String>,
    },
    /// Verify targets of a loaded program (`None` = all `borrow` qubits).
    Verify {
        /// Program name from a prior `load`.
        name: String,
        /// Optional explicit target qubits.
        targets: Option<Vec<usize>>,
        /// Wall-clock budget for the sweep in milliseconds (`None` = the
        /// daemon's default deadline, unbounded unless configured).
        /// Targets the budget does not reach come back with
        /// `"verdict":"unknown"` instead of stalling the daemon.
        deadline_ms: Option<u64>,
        /// Capture a span trace of the sweep: the response gains a
        /// `"trace"` member holding Chrome trace-event JSON.
        trace: bool,
    },
    /// Re-submit an edited source for incremental re-verification.
    Edit {
        /// Program name from a prior `load`.
        name: String,
        /// The edited source.
        source: String,
        /// Decision backend name (`None` = keep the session's backend).
        backend: Option<String>,
    },
    /// Report loaded programs and session statistics.
    Status,
    /// Report daemon metrics in the Prometheus text exposition format
    /// (the response's `"metrics"` member).
    Metrics,
    /// Report windowed request rates and per-session gauges computed
    /// from the daemon's `TimeSeries` sampler ring, as compact JSON.
    Top,
    /// Fetch a retained request trace (span tree as Chrome trace-event
    /// JSON) from the flight recorder — or from the exemplar directory
    /// if the ring has already evicted it.
    Trace {
        /// The `request_id` a prior response reported.
        request_id: u64,
    },
    /// Unload one program.
    Unload {
        /// Program name from a prior `load`.
        name: String,
    },
    /// Stop the daemon.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Describes the first syntactic or structural problem; the daemon
    /// reports it in an `ok:false` response without dropping the
    /// connection.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing string member \"cmd\"")?;
        let name = |v: &Json| -> Result<String, String> {
            Ok(v.get("name")
                .and_then(Json::as_str)
                .ok_or("missing string member \"name\"")?
                .to_string())
        };
        let source = |v: &Json| -> Result<String, String> {
            Ok(v.get("source")
                .and_then(Json::as_str)
                .ok_or("missing string member \"source\"")?
                .to_string())
        };
        let backend = |v: &Json| -> Result<Option<String>, String> {
            match v.get("backend") {
                None | Some(Json::Null) => Ok(None),
                Some(b) => Ok(Some(
                    b.as_str()
                        .ok_or("\"backend\" must be a string")?
                        .to_string(),
                )),
            }
        };
        match cmd {
            "load" => Ok(Request::Load {
                name: name(&v)?,
                source: source(&v)?,
                backend: backend(&v)?,
            }),
            "verify" => {
                let targets = match v.get("targets") {
                    None | Some(Json::Null) => None,
                    Some(arr) => {
                        let items = arr.as_arr().ok_or("\"targets\" must be an array")?;
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            out.push(
                                item.as_usize()
                                    .ok_or("\"targets\" entries must be non-negative integers")?,
                            );
                        }
                        Some(out)
                    }
                };
                let deadline_ms = match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(d) => Some(
                        d.as_usize()
                            .ok_or("\"deadline_ms\" must be a non-negative integer")?
                            as u64,
                    ),
                };
                let trace = match v.get("trace") {
                    None | Some(Json::Null) => false,
                    Some(t) => t.as_bool().ok_or("\"trace\" must be a boolean")?,
                };
                Ok(Request::Verify {
                    name: name(&v)?,
                    targets,
                    deadline_ms,
                    trace,
                })
            }
            "edit" => Ok(Request::Edit {
                name: name(&v)?,
                source: source(&v)?,
                backend: backend(&v)?,
            }),
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "top" => Ok(Request::Top),
            "trace" => {
                let request_id = v
                    .get("request_id")
                    .and_then(Json::as_usize)
                    .ok_or("\"request_id\" must be a non-negative integer")?
                    as u64;
                Ok(Request::Trace { request_id })
            }
            "unload" => Ok(Request::Unload { name: name(&v)? }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd {other:?}")),
        }
    }

    /// Serialises the request to its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::Load {
                name,
                source,
                backend,
            } => {
                let mut pairs = vec![
                    ("cmd", Json::Str("load".into())),
                    ("name", Json::Str(name.clone())),
                    ("source", Json::Str(source.clone())),
                ];
                if let Some(b) = backend {
                    pairs.push(("backend", Json::Str(b.clone())));
                }
                Json::obj(pairs)
            }
            Request::Verify {
                name,
                targets,
                deadline_ms,
                trace,
            } => {
                let mut pairs = vec![
                    ("cmd", Json::Str("verify".into())),
                    ("name", Json::Str(name.clone())),
                ];
                if let Some(targets) = targets {
                    pairs.push((
                        "targets",
                        Json::Arr(targets.iter().map(|&t| Json::Int(t as i64)).collect()),
                    ));
                }
                if let Some(ms) = deadline_ms {
                    pairs.push(("deadline_ms", Json::Int(*ms as i64)));
                }
                if *trace {
                    pairs.push(("trace", Json::Bool(true)));
                }
                Json::obj(pairs)
            }
            Request::Edit {
                name,
                source,
                backend,
            } => {
                let mut pairs = vec![
                    ("cmd", Json::Str("edit".into())),
                    ("name", Json::Str(name.clone())),
                    ("source", Json::Str(source.clone())),
                ];
                if let Some(b) = backend {
                    pairs.push(("backend", Json::Str(b.clone())));
                }
                Json::obj(pairs)
            }
            Request::Status => Json::obj(vec![("cmd", Json::Str("status".into()))]),
            Request::Metrics => Json::obj(vec![("cmd", Json::Str("metrics".into()))]),
            Request::Top => Json::obj(vec![("cmd", Json::Str("top".into()))]),
            Request::Trace { request_id } => Json::obj(vec![
                ("cmd", Json::Str("trace".into())),
                ("request_id", Json::Int(*request_id as i64)),
            ]),
            Request::Unload { name } => Json::obj(vec![
                ("cmd", Json::Str("unload".into())),
                ("name", Json::Str(name.clone())),
            ]),
            Request::Shutdown => Json::obj(vec![("cmd", Json::Str("shutdown".into()))]),
        };
        v.to_string()
    }
}

/// Builds an `ok:false` response line.
pub fn error_response(message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ])
}

/// Builds an `ok:false` response carrying a machine-readable `code`
/// (`"not_loaded"`, `"oversized"`, `"invalid_utf8"`, `"internal_error"`,
/// `"overloaded"`, `"unavailable"`) so clients can branch on the
/// failure class instead of matching message text.
pub fn coded_error_response(message: &str, code: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
        ("code", Json::Str(code.to_string())),
    ])
}

/// Builds the structured load-shed refusal: `code:"overloaded"` plus
/// `retry_after_ms` (when the client should try again) and the queue
/// estimate that justified the shed (`queue_depth` slots ahead,
/// `queue_est_ms` estimated drain time). Sheds are decided at
/// admission, so clients see this in microseconds, never after
/// queueing behind work that would outlive their deadline.
pub fn overloaded_response(
    message: &str,
    retry_after_ms: u64,
    queue_depth: usize,
    queue_est_ms: u64,
) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
        ("code", Json::Str("overloaded".to_string())),
        ("retry_after_ms", Json::Int(retry_after_ms as i64)),
        ("queue_depth", Json::Int(queue_depth as i64)),
        ("queue_est_ms", Json::Int(queue_est_ms as i64)),
    ])
}

/// Builds the circuit-breaker refusal: `code:"unavailable"` plus
/// `retry_after_ms` (the breaker's remaining cooldown). A session whose
/// worker keeps quarantine-rebuilding answers this instead of burning
/// CPU on another doomed rebuild.
pub fn unavailable_response(message: &str, retry_after_ms: u64) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
        ("code", Json::Str("unavailable".to_string())),
        ("retry_after_ms", Json::Int(retry_after_ms as i64)),
    ])
}

/// Renders session facts ([`qb_core::SessionStats::facts`]) as response
/// members: the one renderer behind every surface that reports a
/// session's counters, sizes, durations and latencies.
pub fn render_facts(
    facts: impl IntoIterator<Item = (&'static str, Fact)>,
) -> Vec<(&'static str, Json)> {
    facts
        .into_iter()
        .map(|(name, fact)| {
            let value = match fact {
                Fact::Count(n) | Fact::Size(n) | Fact::Nanos(n) | Fact::Micros(n) => {
                    Json::Int(n.try_into().unwrap_or(i64::MAX))
                }
                Fact::Name(s) => Json::Str(s.to_string()),
            };
            (name, value)
        })
        .collect()
}

/// Renders one qubit's verdict: its timings, and for an unsafe qubit
/// the violated condition and the witness assignment (when the backend
/// produced one), for an unknown one the interruption reason.
pub fn render_verdict(program: &ElaboratedProgram, v: &QubitVerdict) -> Json {
    let mut pairs = vec![
        ("qubit", Json::Int(v.qubit as i64)),
        ("name", Json::Str(program.qubit_name(v.qubit).to_string())),
        ("safe", Json::Bool(v.safe)),
        ("verdict", Json::Str(v.verdict.name().to_string())),
        ("zero_ns", Json::Int(v.zero_time.as_nanos() as i64)),
        ("plus_ns", Json::Int(v.plus_time.as_nanos() as i64)),
    ];
    if let Verdict::Unknown { reason } = &v.verdict {
        pairs.push(("reason", Json::Str(reason.clone())));
    }
    if let Some(ce) = &v.counterexample {
        pairs.push(("violation", Json::Str(ce.violation.to_string())));
        if let Some(bits) = &ce.basis_assignment {
            pairs.push((
                "witness",
                Json::Arr(bits.iter().map(|&b| Json::Bool(b)).collect()),
            ));
        }
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Load {
                name: "adder".into(),
                source: "borrow a;\nX[a];\n".into(),
                backend: None,
            },
            Request::Load {
                name: "adder".into(),
                source: "borrow a;\nX[a];\n".into(),
                backend: Some("bdd".into()),
            },
            Request::Verify {
                name: "adder".into(),
                targets: None,
                deadline_ms: None,
                trace: false,
            },
            Request::Verify {
                name: "adder".into(),
                targets: Some(vec![3, 1, 4]),
                deadline_ms: None,
                trace: false,
            },
            Request::Verify {
                name: "adder".into(),
                targets: None,
                deadline_ms: Some(250),
                trace: false,
            },
            Request::Verify {
                name: "adder".into(),
                targets: None,
                deadline_ms: Some(250),
                trace: true,
            },
            Request::Edit {
                name: "adder".into(),
                source: "// v2\nborrow a;".into(),
                backend: None,
            },
            Request::Edit {
                name: "adder".into(),
                source: "// v2\nborrow a;".into(),
                backend: Some("auto".into()),
            },
            Request::Status,
            Request::Metrics,
            Request::Top,
            Request::Trace { request_id: 42 },
            Request::Unload {
                name: "adder".into(),
            },
            Request::Shutdown,
        ];
        for r in requests {
            let line = r.to_line();
            assert!(!line.contains('\n'), "one line per request: {line:?}");
            assert_eq!(Request::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn parse_rejects_structural_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{}").is_err());
        assert!(Request::parse(r#"{"cmd":"load","name":"x"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"warp"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"verify","name":"x","targets":[-1]}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"verify","name":"x","targets":"all"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"verify","name":"x","deadline_ms":"fast"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"verify","name":"x","deadline_ms":-5}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"verify","name":"x","trace":"yes"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"load","name":"x","source":"","backend":7}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"trace"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"trace","request_id":-1}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"trace","request_id":"7"}"#).is_err());
    }
}
