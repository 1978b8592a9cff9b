//! perfbench: the qborrow benchmark.
//!
//! ```text
//! perfbench --qborrow <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see NOTES.md for why each one exists):
//! * `sweep-sat`  — cold one-shot `--backend sat` verification of
//!   adder-128, adder-256 and mcx-128 on one thread;
//! * `sweep-auto` — cold one-shot `--backend auto` verification of
//!   adder-128, mcx-256, mcx-512 and two seeded unsafe mutants;
//! * `serve-edit` — warm edit→verify pairs against `qborrow serve`.
//!
//! Every verdict is checked against an answer fixed by construction; a
//! wrong verdict makes the run exit 1. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Before it, a table gives each metric's quartiles and
//! sample count; the same detail, and the trace run's spans, are written
//! under `.perfbench-run/`.

mod gen;
mod probe;
mod serve;
mod stats;
mod sweep;
mod trace;

use qb_serve::Json;
use stats::{geomean, median, percentile, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["sweep-sat", "sweep-auto", "serve-edit"];
const RUN_DIR: &str = ".perfbench-run";

struct Args {
    qborrow: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let mut take = |k: &str| flags.remove(k).ok_or(format!("missing --{k}"));
    let args = Args {
        qborrow: PathBuf::from(take("qborrow")?),
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got {other}")),
        },
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; expected one of {WORKLOADS:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// VmHWM (peak resident set) from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric with the spread behind it.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    spread: Summary,
}

fn metric(name: &str, unit: &'static str, value: f64, spread: Summary) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        spread,
    }
}

/// The outcome of one run, before printing.
struct Outcome {
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (trace run).
    metrics: Vec<Metric>,
    /// Rows reported but not gated (per-program medians).
    rows: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(RUN_DIR);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {RUN_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let (outcome, spans) = if args.workload == "serve-edit" {
        match serve::run(&args.qborrow, &run_dir, args.seed, args.seconds, args.trace) {
            Ok(r) => {
                let spans: Vec<_> = r.conns.iter().map(|c| c.spans.clone()).collect();
                (serve_outcome(&r, args.trace), spans)
            }
            Err(e) => {
                eprintln!("perfbench: serve-edit: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let r = sweep::run(&args.workload, args.seed, args.seconds, args.trace);
        let out = sweep_outcome(&r, args.trace);
        (out, vec![r.spans])
    };
    if args.trace {
        let path = run_dir.join(format!("{tag}.trace.json"));
        if let Err(e) = std::fs::write(&path, trace::chrome_trace(&spans)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    report(&args, &tag, &run_dir, &outcome)
}

fn report(args: &Args, tag: &str, run_dir: &std::path::Path, o: &Outcome) -> ExitCode {
    let correct = o.wrong.is_empty();
    for w in &o.wrong {
        eprintln!("WRONG VERDICT: {w}");
    }
    println!(
        "# {} seed {} trace {}: {} attempted, {} failed (failed_ratio {:.6})",
        args.workload,
        args.seed,
        args.trace as u8,
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    println!(
        "# {:<32} {:>6} {:>14} {:>14} {:>14} {:>6}",
        "metric", "unit", "value", "q1", "q3", "n"
    );
    let detail = |m: &Metric| {
        println!(
            "# {:<32} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>6}",
            m.name, m.unit, m.value, m.spread.q1, m.spread.q3, m.spread.n
        );
        Json::obj(vec![
            ("name", Json::Str(m.name.clone())),
            ("unit", Json::Str(m.unit.into())),
            ("value", Json::Float(m.value)),
            ("q1", Json::Float(m.spread.q1)),
            ("q3", Json::Float(m.spread.q3)),
            ("n", Json::Int(m.spread.n as i64)),
        ])
    };
    let metrics: Vec<Json> = o.metrics.iter().map(detail).collect();
    let rows: Vec<Json> = o.rows.iter().map(detail).collect();
    let record = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("attempted", Json::Int(o.attempted as i64)),
        ("failed", Json::Int(o.failed as i64)),
        (
            "wrong",
            Json::Arr(o.wrong.iter().map(|w| Json::Str(w.clone())).collect()),
        ),
        ("metrics", Json::Arr(metrics)),
        ("rows", Json::Arr(rows)),
    ]);
    let path = run_dir.join(format!("{tag}.json"));
    if let Err(e) = std::fs::write(&path, record.to_string()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(o.attempted as i64)),
        ("failed", Json::Int(o.failed as i64)),
        (
            "metrics",
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|m| {
                        let v = Json::obj(vec![
                            ("value", Json::Float(m.value)),
                            ("unit", Json::Str(m.unit.into())),
                        ]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer metric names and units, in report order. Every trace run
/// reports all of them; a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 57] = [
    ("lang.parse_ms", "ms"),
    ("lang.elaborate_ms", "ms"),
    ("lang.gates", "count"),
    ("core.session_new_ms", "ms"),
    ("core.arena_nodes", "count"),
    ("core.cofactor_ms", "ms"),
    ("core.cofactor_hits", "count"),
    ("core.decision_hits", "count"),
    ("core.decision_hit_ratio", "ratio"),
    ("core.apply_edit_ms", "ms"),
    ("core.edit_suffix_clauses", "count"),
    ("core.edits_incremental", "count"),
    ("core.edits_reload", "count"),
    ("core.other_ms", "ms"),
    ("core.other_share", "ratio"),
    ("formula.encode_ms", "ms"),
    ("sat.solve_ms", "ms"),
    ("sat.propagations", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.ns_per_prop", "ns"),
    ("bdd.decide_ms", "ms"),
    ("bdd.resident_nodes", "count"),
    ("bdd.translation_hits", "count"),
    ("bdd.fallbacks", "count"),
    ("bdd.fallback_ratio", "ratio"),
    ("anf.decide_ms", "ms"),
    ("anf.hits", "count"),
    ("serve.edit.rt_ms", "ms"),
    ("serve.edit.handle_ms", "ms"),
    ("serve.edit.outside_ms", "ms"),
    ("serve.verify.rt_ms", "ms"),
    ("serve.verify.handle_ms", "ms"),
    ("serve.verify.outside_ms", "ms"),
    ("serve.status.rt_ms", "ms"),
    ("serve.status.handle_ms", "ms"),
    ("serve.status.outside_ms", "ms"),
    ("serve.metrics.rt_ms", "ms"),
    ("serve.metrics.handle_ms", "ms"),
    ("serve.metrics.outside_ms", "ms"),
    ("serve.top.rt_ms", "ms"),
    ("serve.top.handle_ms", "ms"),
    ("serve.top.outside_ms", "ms"),
    ("serve.unix.outside_ms", "ms"),
    ("serve.tcp.outside_ms", "ms"),
    ("serve.mailbox_wait_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.health_nonok", "count"),
    ("serve.scrape_round_ms", "ms"),
    ("obs.status_bytes", "bytes"),
    ("obs.metrics_bytes", "bytes"),
    ("obs.top_bytes", "bytes"),
    ("bench.lateness_p50_ms", "ms"),
    ("bench.lateness_max_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.traced_samples", "count"),
];

fn per_layer(value: impl Fn(&str) -> Option<f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            metric(name, unit, v, Summary::default())
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-sample-set summaries combined by geometric mean, one set per
/// program or connection: a percentile of the pooled samples would sit
/// on the boundary between two sets' clusters and jump between them from
/// run to run.
fn geomean_summary(sets: &[Summary]) -> Summary {
    let gm = |f: fn(&Summary) -> f64| geomean(&sets.iter().map(f).collect::<Vec<_>>());
    Summary {
        median: gm(|s| s.median),
        q1: gm(|s| s.q1),
        q3: gm(|s| s.q3),
        n: sets.iter().map(|s| s.n).sum(),
    }
}

/// Ungated rows shared by every workload: the host factor (probe time
/// over nominal) and a timing as measured, before rescaling.
fn host_rows(probe: &probe::HostProbe, raw_name: &str, raw: Summary) -> Vec<Metric> {
    let f = Summary::of(&probe.factors());
    vec![
        metric("host.factor", "ratio", f.median, f),
        metric(raw_name, "s", raw.median, raw),
    ]
}

fn sweep_outcome(r: &sweep::SweepRun, tracing: bool) -> Outcome {
    let mut rows: Vec<Metric> = r
        .programs
        .iter()
        .zip(&r.walls)
        .map(|(p, w)| {
            let s = Summary::of(w);
            metric(&format!("prog.{}.wall_s", p.name), "s", s.median, s)
        })
        .collect();
    let raw: Vec<Summary> = r.raw_walls.iter().map(|w| Summary::of(w)).collect();
    rows.extend(host_rows(&r.probe, "raw.sweep_s", geomean_summary(&raw)));
    let metrics = if tracing {
        let mut v = sweep::round_layers(r);
        let get = |v: &BTreeMap<&str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
        let roots = get(&v, "core.roots");
        v.insert(
            "core.decision_hit_ratio",
            ratio(get(&v, "core.decision_hits"), roots),
        );
        v.insert(
            "core.other_share",
            ratio(get(&v, "core.other_ms"), get(&v, "wall_ms")),
        );
        v.insert(
            "sat.ns_per_prop",
            ratio(get(&v, "sat.solve_ms") * 1e6, get(&v, "sat.propagations")),
        );
        v.insert("bdd.fallback_ratio", ratio(get(&v, "bdd.fallbacks"), roots));
        let overhead: Vec<f64> = r
            .walls
            .iter()
            .zip(&r.traced_walls)
            .filter(|(u, t)| !u.is_empty() && !t.is_empty())
            .map(|(u, t)| median(t) / median(u))
            .collect();
        if !overhead.is_empty() {
            v.insert(
                "bench.trace_overhead_pct",
                (geomean(&overhead) - 1.0) * 100.0,
            );
        }
        v.insert("bench.traced_samples", r.traced_groups.len() as f64);
        per_layer(|k| v.get(k).copied())
    } else {
        let per_program: Vec<Summary> = r.walls.iter().map(|w| Summary::of(w)).collect();
        let pooled: Vec<f64> = r.walls.iter().flatten().copied().collect();
        let rates: Vec<f64> = pooled.iter().map(|s| 1.0 / s).collect();
        let sweep = geomean_summary(&per_program);
        let ms = |s: Summary| Summary {
            median: s.median * 1e3,
            q1: s.q1 * 1e3,
            q3: s.q3 * 1e3,
            ..s
        };
        let p95 = geomean(
            &r.walls
                .iter()
                .map(|w| percentile(w, 95.0))
                .collect::<Vec<_>>(),
        );
        // Reported, not gated: with 3–25 samples per program a p95 is
        // the slowest sample, not a percentile.
        rows.push(metric("verdict_p95_ms", "ms", p95 * 1e3, ms(sweep)));
        let setup = Summary::of(&r.setup_s);
        let rss = peak_rss_mb("/proc/self/status");
        vec![
            metric("setup_s", "s", setup.median, setup),
            metric("sweep_s", "s", sweep.median, sweep),
            metric("verdict_p50_ms", "ms", sweep.median * 1e3, ms(sweep)),
            metric(
                "capacity_rps",
                "1/s",
                ratio(pooled.len() as f64, pooled.iter().sum()),
                Summary::of(&rates),
            ),
            metric("peak_rss_mb", "MB", rss, Summary::of(&[rss])),
        ]
    };
    Outcome {
        attempted: r.attempted,
        failed: r.failed,
        wrong: r.wrong.clone(),
        metrics,
        rows,
    }
}

fn serve_outcome(r: &serve::ServeRun, tracing: bool) -> Outcome {
    let conns = &r.conns;
    let all = |f: &dyn Fn(&serve::ConnRun) -> Vec<f64>| -> Vec<f64> {
        conns.iter().flat_map(f).collect()
    };
    let verdict_ms = |traced: bool| {
        all(&|c| {
            c.verdict_ms
                .iter()
                .filter(|(_, t)| *t == traced)
                .map(|(v, _)| *v)
                .collect()
        })
    };
    let untraced = verdict_ms(false);
    let scrape = all(&|c| c.scrape_round_ms.clone());
    let mut rows: Vec<Metric> = conns
        .iter()
        .map(|c| {
            let s = Summary::of(&c.service_s);
            metric(&format!("prog.{}.wall_s", c.program), "s", s.median, s)
        })
        .collect();
    let raw: Vec<Summary> = conns.iter().map(|c| Summary::of(&c.raw_service_s)).collect();
    rows.extend(host_rows(&r.probe, "raw.sweep_s", geomean_summary(&raw)));
    let metrics = if tracing {
        let mut v: BTreeMap<String, f64> = BTreeMap::new();
        let reqs: Vec<&serve::Req> = conns.iter().flat_map(|c| &c.reqs).collect();
        let med = |xs: Vec<f64>| if xs.is_empty() { 0.0 } else { median(&xs) };
        for cmd in ["edit", "verify", "status", "metrics", "top"] {
            let of: Vec<&&serve::Req> = reqs.iter().filter(|q| q.cmd == cmd).collect();
            let key = |suffix: &str| format!("serve.{cmd}.{suffix}");
            v.insert(key("rt_ms"), med(of.iter().map(|q| q.rt_ms).collect()));
            v.insert(
                key("handle_ms"),
                med(of.iter().map(|q| q.handle_ms).collect()),
            );
            v.insert(
                key("outside_ms"),
                med(of.iter().map(|q| q.rt_ms - q.handle_ms).collect()),
            );
            if ["status", "metrics", "top"].contains(&cmd) {
                v.insert(
                    format!("obs.{cmd}_bytes"),
                    med(of.iter().filter_map(|q| q.bytes).collect()),
                );
            }
        }
        for transport in ["unix", "tcp"] {
            v.insert(
                format!("serve.{transport}.outside_ms"),
                med(reqs
                    .iter()
                    .filter(|q| q.transport == transport && ["edit", "verify"].contains(&q.cmd))
                    .map(|q| q.rt_ms - q.handle_ms)
                    .collect()),
            );
        }
        v.insert(
            "serve.decode_ms".into(),
            med(all(&|c| c.scrape_decode_ms.clone())),
        );
        v.insert(
            "serve.mailbox_wait_ms".into(),
            med(all(&|c| c.mailbox_wait_ms.clone())),
        );
        v.insert(
            "serve.shed".into(),
            conns.iter().map(|c| c.shed).sum::<u64>() as f64,
        );
        v.insert(
            "serve.health_nonok".into(),
            conns.iter().map(|c| c.health_nonok).sum::<u64>() as f64,
        );
        v.insert("serve.scrape_round_ms".into(), med(scrape.clone()));
        let lang: Vec<(f64, f64, f64)> = conns.iter().flat_map(|c| c.lang_rows.clone()).collect();
        v.insert(
            "lang.parse_ms".into(),
            med(lang.iter().map(|l| l.0).collect()),
        );
        v.insert(
            "lang.elaborate_ms".into(),
            med(lang.iter().map(|l| l.1).collect()),
        );
        v.insert("lang.gates".into(), med(lang.iter().map(|l| l.2).collect()));
        let edits: Vec<(f64, f64, bool)> = conns.iter().flat_map(|c| c.edits.clone()).collect();
        v.insert(
            "core.apply_edit_ms".into(),
            med(edits.iter().filter(|e| e.2).map(|e| e.0).collect()),
        );
        v.insert(
            "core.edit_suffix_clauses".into(),
            med(edits.iter().filter(|e| e.2).map(|e| e.1).collect()),
        );
        v.insert(
            "core.edits_incremental".into(),
            edits.iter().filter(|e| e.2).count() as f64,
        );
        v.insert(
            "core.edits_reload".into(),
            edits.iter().filter(|e| !e.2).count() as f64,
        );
        let core_rows: Vec<&BTreeMap<&str, f64>> =
            conns.iter().flat_map(|c| &c.core_rows).collect();
        for key in [
            "core.cofactor",
            "formula.encode",
            "sat.solve",
            "bdd.decide",
            "anf.decide",
        ] {
            v.insert(
                format!("{key}_ms"),
                med(core_rows.iter().map(|r| r[key]).collect()),
            );
        }
        for key in [
            "core.decision_hits",
            "sat.propagations",
            "sat.conflicts",
            "bdd.fallbacks",
            "core.other_ms",
        ] {
            v.insert(key.into(), med(core_rows.iter().map(|r| r[key]).collect()));
        }
        let sum = |k: &str| core_rows.iter().map(|r| r[k]).sum::<f64>();
        v.insert(
            "core.other_share".into(),
            ratio(sum("core.other_ms"), sum("handle_ms")),
        );
        v.insert(
            "sat.ns_per_prop".into(),
            ratio(sum("sat.solve") * 1e6, sum("sat.propagations")),
        );
        let programs = r
            .status
            .get("programs")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        let total = |k: &str| {
            programs
                .iter()
                .map(|p| p.get(k).and_then(Json::as_i64).unwrap_or(0) as f64)
                .sum::<f64>()
        };
        v.insert("core.arena_nodes".into(), total("arena_nodes"));
        v.insert("bdd.resident_nodes".into(), total("bdd_resident_nodes"));
        let lateness = all(&|c| c.lateness_ms.clone());
        v.insert("bench.lateness_p50_ms".into(), med(lateness.clone()));
        v.insert(
            "bench.lateness_max_ms".into(),
            lateness.iter().copied().fold(0.0, f64::max),
        );
        let traced = verdict_ms(true);
        if !traced.is_empty() && !untraced.is_empty() {
            v.insert(
                "bench.trace_overhead_pct".into(),
                (median(&traced) / median(&untraced) - 1.0) * 100.0,
            );
        }
        v.insert("bench.traced_samples".into(), traced.len() as f64);
        per_layer(|k| v.get(k).copied())
    } else {
        let per_conn: Vec<Summary> = conns.iter().map(|c| Summary::of(&c.service_s)).collect();
        let sweep = geomean_summary(&per_conn);
        let verdicts = Summary::of(&untraced);
        // Reported, not gated, like the sweeps' (where it has too few
        // samples to be a percentile): the gated metrics are one list.
        rows.push(metric(
            "verdict_p95_ms",
            "ms",
            percentile(&untraced, 95.0),
            verdicts,
        ));
        let setup = Summary::of(&r.setup_s);
        vec![
            metric("setup_s", "s", setup.median, setup),
            metric("sweep_s", "s", sweep.median, sweep),
            metric("verdict_p50_ms", "ms", verdicts.median, verdicts),
            metric(
                "capacity_rps",
                "1/s",
                r.capacity_rps(),
                Summary {
                    n: r.conns[serve::OPEN_CONN].service_s.len(),
                    ..Summary::default()
                },
            ),
            metric(
                "peak_rss_mb",
                "MB",
                r.peak_rss_mb,
                Summary::of(&[r.peak_rss_mb]),
            ),
        ]
    };
    let wrong = conns.iter().flat_map(|c| c.wrong.clone()).collect();
    Outcome {
        attempted: conns.iter().map(|c| c.attempted).sum(),
        failed: conns.iter().map(|c| c.failed).sum(),
        wrong,
        metrics,
        rows,
    }
}
