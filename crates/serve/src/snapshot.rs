//! One typed snapshot of the daemon, and the views that render it.
//!
//! [`crate::router::Router::snapshot`] gathers every fact a daemon view
//! shows, once per request: the per-session rows under the table lock,
//! then the daemon-wide counters. `status`, `top`, the Prometheus
//! `metrics` text and the sampler tick are renderers of that value, so a
//! fact shown on several surfaces has one source and reads the same on
//! each of them.
//!
//! Solver and backend counters and the request histograms live in the
//! process-wide `qb-obs` registry. The daemon's own facts (health, queue
//! pressure, sheds, quarantines, …) stay per-router, because several
//! in-process servers must not add into each other's counts. They join
//! the registry snapshot only when it is rendered or sampled
//! ([`DaemonSnapshot::merge_into`]).

use crate::daemon::ServerLimits;
use crate::json::Json;
use crate::protocol::render_facts;
use crate::router::{hash_hex, health_name, SessionKey, SHED_REASONS};
use qb_core::{Fact, SessionStats, VerifySession};
use qb_lang::ElaboratedProgram;
use qb_obs::{Histogram, MetricsSnapshot, TimeSeries};

/// The trailing window `top` computes its rates and percentiles over.
pub(crate) const TOP_WINDOW_NS: u64 = 60_000_000_000;

/// What a session reports: its program facts and its [`SessionStats`].
/// Each actor publishes one after every request; `status`, `top` and
/// `metrics` read the published record instead of queueing behind the
/// actor's mailbox.
#[derive(Clone)]
pub(crate) struct SessionRecord {
    pub key: SessionKey,
    pub qubits: usize,
    pub gates: usize,
    pub targets: Vec<usize>,
    /// Verifies served since the session was (re)built.
    pub verifies: u64,
    pub stats: SessionStats,
}

impl SessionRecord {
    pub(crate) fn new(
        key: SessionKey,
        program: &ElaboratedProgram,
        session: &VerifySession,
        verifies: u64,
    ) -> SessionRecord {
        SessionRecord {
            key,
            qubits: program.num_qubits(),
            gates: program.circuit.size(),
            targets: program.qubits_to_verify(),
            verifies,
            stats: session.stats(),
        }
    }

    /// The record's response members: the program facts, then every
    /// session fact.
    pub(crate) fn pairs(&self) -> Vec<(&'static str, Json)> {
        let mut pairs = vec![
            ("hash", Json::Str(hash_hex(self.key.0))),
            ("backend", Json::Str(self.key.1.to_string())),
            ("qubits", int(self.qubits)),
            ("gates", int(self.gates)),
            (
                "targets",
                Json::Arr(self.targets.iter().map(|&q| int(q)).collect()),
            ),
            ("verifies", int(self.verifies)),
        ];
        pairs.extend(render_facts(self.stats.facts()));
        pairs
    }
}

/// One live session as every daemon view sees it.
pub(crate) struct SessionRow {
    /// `<hash>/<backend>`: the session's label in `top` and the scrape.
    pub label: String,
    /// Client names aliasing the session.
    pub names: Vec<String>,
    pub idle_ms: u64,
    pub queue_depth: usize,
    pub worker_alive: bool,
    pub breaker_open: bool,
    pub mailbox_wait: Histogram,
    /// The actor's published record.
    pub record: SessionRecord,
}

/// Flight-recorder counters.
pub(crate) struct RecorderCounts {
    pub recorded: u64,
    pub retained: usize,
    pub overflow: u64,
    pub exemplars: u64,
}

/// Every daemon fact at one instant.
pub(crate) struct DaemonSnapshot {
    /// Live sessions, sorted by label.
    pub sessions: Vec<SessionRow>,
    pub health: u8,
    pub queued: usize,
    /// Cumulative sheds, indexed like [`SHED_REASONS`].
    pub sheds: [u64; SHED_REASONS.len()],
    pub quarantines: u64,
    pub accept_errors: u64,
    pub snapshot_failures: u64,
    /// Request ids issued so far (the request being answered included).
    pub requests: u64,
    pub session_evictions: u64,
    pub auto_winners: usize,
    pub dropped_spans: u64,
    pub recorder: RecorderCounts,
    pub limits: ServerLimits,
    pub state_persisted: bool,
}

fn int(v: impl TryInto<i64>) -> Json {
    Json::Int(v.try_into().unwrap_or(i64::MAX))
}

fn us(ns: u64) -> Json {
    int(ns / 1_000)
}

fn rate(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Float)
}

impl DaemonSnapshot {
    fn health_json(&self) -> Json {
        Json::Str(health_name(self.health).to_string())
    }

    fn sheds_total(&self) -> u64 {
        self.sheds.iter().sum()
    }

    /// Resident formula-arena and BDD nodes summed over live sessions.
    fn resident(&self) -> (usize, usize) {
        self.sessions.iter().fold((0, 0), |(arena, bdd), row| {
            let stats = &row.record.stats;
            (arena + stats.arena_nodes, bdd + stats.bdd_resident_nodes)
        })
    }

    /// The `status` response: daemon facts plus one entry per client
    /// name, sorted by name.
    pub(crate) fn status(&self) -> Json {
        let mut named: Vec<(&String, &SessionRow)> = self
            .sessions
            .iter()
            .flat_map(|row| row.names.iter().map(move |name| (name, row)))
            .collect();
        named.sort_by(|a, b| a.0.cmp(b.0));
        let programs = named
            .into_iter()
            .map(|(name, row)| {
                let mut pairs = vec![
                    ("name", Json::Str(name.clone())),
                    ("idle_ms", int(row.idle_ms)),
                    ("queue_depth", int(row.queue_depth)),
                    ("worker_alive", Json::Bool(row.worker_alive)),
                    ("mailbox_wait_p50_us", us(row.mailbox_wait.p50())),
                    ("mailbox_wait_p95_us", us(row.mailbox_wait.p95())),
                ];
                pairs.extend(row.record.pairs());
                Json::obj(pairs)
            })
            .collect();
        let sheds = SHED_REASONS
            .iter()
            .zip(self.sheds)
            .map(|(&reason, n)| (reason, int(n)))
            .collect();
        let (arena, bdd) = self.resident();
        let optional = |v: Option<i64>| v.map_or(Json::Null, Json::Int);
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("health", self.health_json()),
            ("queued_requests", int(self.queued)),
            ("queue_budget", int(self.limits.queue_budget)),
            ("sheds_total", int(self.sheds_total())),
            ("sheds", Json::obj(sheds)),
            (
                "breakers_open",
                int(self.sessions.iter().filter(|r| r.breaker_open).count()),
            ),
            ("programs", Json::Arr(programs)),
            ("sessions", int(self.sessions.len())),
            (
                "max_sessions",
                optional(self.limits.max_sessions.map(|n| n as i64)),
            ),
            ("session_evictions", int(self.session_evictions)),
            ("resident_arena_nodes", int(arena)),
            ("resident_bdd_nodes", int(bdd)),
            ("auto_winners_remembered", int(self.auto_winners)),
            ("quarantines", int(self.quarantines)),
            ("accept_errors", int(self.accept_errors)),
            ("snapshot_failures", int(self.snapshot_failures)),
            ("state_persisted", Json::Bool(self.state_persisted)),
            (
                "default_deadline_ms",
                optional(self.limits.default_deadline.map(|d| d.as_millis() as i64)),
            ),
            ("requests", int(self.requests)),
            ("dropped_spans", int(self.dropped_spans)),
            ("recorder_recorded", int(self.recorder.recorded)),
            ("recorder_overflow", int(self.recorder.overflow)),
            ("exemplars", int(self.recorder.exemplars)),
        ])
    }

    /// The live dashboard: windowed rates and per-request-type latency
    /// from the sampler ring `ts`, per-session gauges from the snapshot.
    pub(crate) fn top(&self, ts: &TimeSeries) -> Json {
        const W: u64 = TOP_WINDOW_NS;
        let rates = Json::obj(vec![
            ("req_per_s", rate(ts.counter_rate("requests", W))),
            (
                "verify_per_s",
                rate(ts.counter_rate_for("requests", "verify", W)),
            ),
            (
                "conflicts_per_s",
                rate(ts.counter_rate("solver_conflicts", W)),
            ),
            (
                "propagations_per_s",
                rate(ts.counter_rate("solver_propagations", W)),
            ),
        ]);
        // Windowed shed rates, total and by reason, so a dashboard
        // shows *why* load is being turned away, not just that it is.
        let mut shed = vec![("per_s", rate(ts.counter_rate("shed", W)))];
        shed.extend(
            SHED_REASONS
                .iter()
                .map(|&reason| (reason, rate(ts.counter_rate_for("shed", reason, W)))),
        );
        // One row per request type seen by the newest sample (snapshot
        // series are sorted and unique): its windowed rate and the
        // latency percentiles of just the window.
        let cmds: Vec<&str> = ts.latest().map_or_else(Vec::new, |p| {
            p.snapshot
                .counters
                .iter()
                .filter(|(n, _, _)| n == "requests")
                .map(|(_, l, _)| l.as_str())
                .collect()
        });
        let request_types = cmds
            .into_iter()
            .map(|cmd| {
                let (p50, p95) = match ts.histogram_delta("request_handle", cmd, W) {
                    Some(h) if h.count() > 0 => (us(h.p50()), us(h.p95())),
                    _ => (Json::Null, Json::Null),
                };
                Json::obj(vec![
                    ("cmd", Json::Str(cmd.to_string())),
                    ("rate_per_s", rate(ts.counter_rate_for("requests", cmd, W))),
                    ("p50_us", p50),
                    ("p95_us", p95),
                ])
            })
            .collect();
        let sessions = self
            .sessions
            .iter()
            .map(|row| {
                let depth_max = ts.gauge_max("session_queue_depth", &row.label, W);
                let mut pairs = vec![
                    ("session", Json::Str(row.label.clone())),
                    ("queue_depth", int(row.queue_depth)),
                    ("queue_depth_max", depth_max.map_or(Json::Null, Json::Int)),
                    ("mailbox_wait_p50_us", us(row.mailbox_wait.p50())),
                    ("mailbox_wait_p95_us", us(row.mailbox_wait.p95())),
                ];
                // The session's gauges: its resident sizes.
                let sizes = row.record.stats.facts().into_iter();
                pairs.extend(render_facts(
                    sizes.filter(|(_, fact)| matches!(fact, Fact::Size(_))),
                ));
                Json::obj(pairs)
            })
            .collect();
        let (arena, bdd) = self.resident();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("samples", int(ts.len())),
            ("window_ms", int(ts.span_ns().min(W) / 1_000_000)),
            ("health", self.health_json()),
            ("queued_requests", int(self.queued)),
            ("shed", Json::obj(shed)),
            ("sheds_total", int(self.sheds_total())),
            ("rates", rates),
            ("request_types", Json::Arr(request_types)),
            ("sessions", Json::Arr(sessions)),
            ("sessions_count", int(self.sessions.len())),
            ("resident_arena_nodes", int(arena)),
            ("resident_bdd_nodes", int(bdd)),
            ("requests", int(self.requests)),
            ("dropped_spans", int(self.dropped_spans)),
            (
                "recorder",
                Json::obj(vec![
                    ("recorded", int(self.recorder.recorded)),
                    ("retained", int(self.recorder.retained)),
                    ("overflow", int(self.recorder.overflow)),
                    ("exemplars", int(self.recorder.exemplars)),
                ]),
            ),
        ])
    }

    /// Joins the daemon's own facts to a registry snapshot, for the
    /// Prometheus text and the sampler ring. Gauges are always present;
    /// a counter series appears with its first increment, as registry
    /// counters do.
    pub(crate) fn merge_into(&self, metrics: &mut MetricsSnapshot) {
        metrics.set_gauge("health", "daemon", self.health as i64);
        metrics.set_gauge("queued_requests", "daemon", self.queued as i64);
        metrics.set_gauge("sessions", "daemon", self.sessions.len() as i64);
        for row in &self.sessions {
            metrics.set_gauge("session_queue_depth", &row.label, row.queue_depth as i64);
        }
        // Observability of the observability: span loss and
        // flight-recorder ring overflow.
        metrics.set_gauge("obs_dropped_spans", "all", self.dropped_spans as i64);
        metrics.set_gauge("recorder_recorded", "all", self.recorder.recorded as i64);
        metrics.set_gauge("recorder_overflow", "all", self.recorder.overflow as i64);
        let counters = SHED_REASONS
            .iter()
            .zip(self.sheds)
            .map(|(&reason, n)| ("shed", reason, n))
            .chain([
                ("accept_errors", "accept", self.accept_errors),
                ("quarantines", "session", self.quarantines),
                ("snapshot_failures", "write", self.snapshot_failures),
                ("session_evictions", "daemon", self.session_evictions),
            ]);
        for (name, label, n) in counters {
            if n > 0 {
                metrics.add_counter(name, label, n);
            }
        }
    }

    /// The `metrics` response: the registry plus the daemon's facts in
    /// the Prometheus text format, with every session's target, root and
    /// mailbox-wait histograms folded into daemon-wide series.
    pub(crate) fn metrics(&self) -> Json {
        let mut registry = qb_obs::metrics_snapshot();
        self.merge_into(&mut registry);
        let (mut target, mut root, mut wait) =
            (Histogram::new(), Histogram::new(), Histogram::new());
        for row in &self.sessions {
            target.merge(&row.record.stats.target_latency);
            root.merge(&row.record.stats.root_latency);
            wait.merge(&row.mailbox_wait);
        }
        let text = qb_obs::prometheus_text(
            &registry,
            &[
                ("target_latency", "all", target),
                ("root_latency", "all", root),
                ("session_mailbox_wait", "all", wait),
            ],
        );
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("metrics", Json::Str(text)),
            ("sessions", int(self.sessions.len())),
            ("requests", int(self.requests)),
        ])
    }
}
