//! Cold one-shot verification sweeps (`sweep-sat`, `sweep-auto`): each
//! sample runs one program from source text to its last verdict on a
//! fresh session, on one thread, the way `qborrow verify` does.

use crate::gen::{self, Program};
use crate::probe::HostProbe;
use crate::trace::{self, Span, Tracer};
use qb_core::{BackendKind, InitialValue, QubitVerdict, VerifyOptions, VerifySession};
use qb_lang::{elaborate, parse, ElaboratedProgram, QubitKind};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Probes between two samples: the samples are long enough that more
/// readings cost little, and they steady the run's host factor.
const PROBES_PER_SAMPLE: usize = 2;
/// Probes before and after the set-up.
const SETUP_PROBES: usize = 3;

pub struct SweepRun {
    pub programs: Vec<Program>,
    /// Set-up times (s), rescaled to a nominal host.
    pub setup_s: Vec<f64>,
    /// Untraced wall times (s) per program, in sample order, rescaled to
    /// a nominal host.
    pub walls: Vec<Vec<f64>>,
    /// The same samples as measured, not rescaled.
    pub raw_walls: Vec<Vec<f64>>,
    /// Traced wall times (s) per program (trace runs only), rescaled.
    pub traced_walls: Vec<Vec<f64>>,
    pub probe: HostProbe,
    /// Per traced sample: (program index, group id).
    pub traced_groups: Vec<(usize, u64)>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

fn backend(workload: &str) -> BackendKind {
    if workload == "sweep-sat" {
        BackendKind::Sat
    } else {
        BackendKind::Auto
    }
}

/// Runs round-robin rounds over the workload's programs until `seconds`
/// would be exceeded. A round visits every program
/// once, starting at a seeded offset, so a slow phase of the host hits
/// every program alike. The host probe runs before every sample and
/// after the last, and the samples are rescaled by the run's probes.
/// In a trace run, odd rounds are traced and even rounds are not, which
/// measures the tracing overhead in one process.
pub fn run(workload: &str, seed: u64, seconds: f64, tracing: bool) -> SweepRun {
    let mut probe = HostProbe::new();
    let mut setup_s = Vec::new();
    let mut programs = Vec::new();
    let probed_from = Instant::now();
    for _ in 0..SETUP_PROBES {
        probe.probe();
    }
    // Set-up: generate the sources and check that each one parses and
    // elaborates before any sample is timed.
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        programs = gen::sweep_programs(workload, seed);
        for p in &programs {
            let ast = parse(&p.source).expect("generated source parses");
            std::hint::black_box(elaborate(&ast).expect("generated source elaborates"));
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    for _ in 0..SETUP_PROBES {
        probe.probe();
    }
    let host = probe.factor(probed_from, Instant::now());
    for s in &mut setup_s {
        *s /= host;
    }
    let opts = VerifyOptions {
        backend: backend(workload),
        ..VerifyOptions::default()
    };
    let n = programs.len();
    let mut out = SweepRun {
        programs,
        setup_s,
        walls: vec![Vec::new(); n],
        raw_walls: vec![Vec::new(); n],
        traced_walls: vec![Vec::new(); n],
        probe,
        traced_groups: Vec::new(),
        spans: Vec::new(),
        attempted: 0,
        failed: 0,
        wrong: Vec::new(),
    };
    let start = Instant::now();
    let mut tracer = Tracer::new(start, tracing);
    let mut untraced = Tracer::new(start, false);
    let mut last_round = Duration::ZERO;
    let mut group = 0u64;
    // (program, traced, seconds) per sample; rescaled once the last
    // probe has run.
    let mut samples = Vec::new();
    // A trace run needs a traced and an untraced round.
    let min_rounds = if tracing { 2 } else { 1 };
    for round in 0usize.. {
        if round >= min_rounds && (start.elapsed() + last_round).as_secs_f64() > seconds {
            break;
        }
        let round_start = Instant::now();
        let traced = tracing && round % 2 == 1;
        for k in 0..n {
            let idx = (k + round + seed as usize) % n;
            group += 1;
            let t = if traced { &mut tracer } else { &mut untraced };
            out.attempted += 1;
            for _ in 0..PROBES_PER_SAMPLE {
                out.probe.probe();
            }
            match sample(&out.programs[idx], &opts, t, group) {
                Ok((t0, t1, verdicts, program)) => {
                    let check = check(&out.programs[idx], &program, &verdicts);
                    out.failed += u64::from(check.unknown);
                    out.wrong.extend(check.wrong);
                    samples.push((idx, traced, (t1 - t0).as_secs_f64()));
                    if traced {
                        out.traced_groups.push((idx, group));
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("{}: {e}", out.programs[idx].name);
                }
            }
        }
        last_round = round_start.elapsed();
    }
    out.probe.probe();
    let host = out.probe.factor(start, Instant::now());
    for (idx, traced, raw) in samples {
        let wall = raw / host;
        if traced {
            out.traced_walls[idx].push(wall);
        } else {
            out.walls[idx].push(wall);
            out.raw_walls[idx].push(raw);
        }
    }
    out.spans = tracer.into_spans();
    out
}

/// One cold sample: parse → elaborate → session → every verdict. Returns
/// the instants it started and ended.
fn sample(
    p: &Program,
    opts: &VerifyOptions,
    tracer: &mut Tracer,
    group: u64,
) -> Result<(Instant, Instant, Vec<QubitVerdict>, ElaboratedProgram), String> {
    let t0 = Instant::now();
    let ast = parse(&p.source).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let program = elaborate(&ast).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let initial: Vec<InitialValue> = program
        .qubit_kinds
        .iter()
        .map(|k| match k {
            QubitKind::Clean => InitialValue::Zero,
            _ => InitialValue::Free,
        })
        .collect();
    let targets = program.qubits_to_verify();
    let t3 = Instant::now();
    let mut session =
        VerifySession::new(&program.circuit, &initial, opts).map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    let verdicts = session
        .verify_targets(&targets)
        .map_err(|e| e.to_string())?;
    let t5 = Instant::now();
    if tracer.enabled() {
        let s = session.stats();
        let root = tracer.record(group, "sweep", None, t0, t5);
        tracer.record(group, "lang.parse", root, t0, t1);
        tracer.record(group, "lang.elaborate", root, t1, t2);
        tracer.record(group, "core.session_new", root, t3, t4);
        let vt = tracer.record(group, "core.verify_targets", root, t4, t5);
        tracer.attribute(vt, "core.cofactor", s.cofactor_time);
        tracer.attribute(vt, "formula.encode", s.encode_time);
        tracer.attribute(vt, "sat.solve", s.sat_time.saturating_sub(s.encode_time));
        tracer.attribute(vt, "bdd.decide", s.bdd_time);
        tracer.attribute(vt, "anf.decide", s.anf_time);
        for (name, v) in [
            ("gates", program.circuit.size() as f64),
            ("arena_nodes", s.arena_nodes as f64),
            ("cofactor_hits", s.cofactor_hits as f64),
            ("decision_hits", s.decision_hits as f64),
            ("roots", s.root_latency.count() as f64),
            ("propagations", s.solver_propagations as f64),
            ("conflicts", s.solver_conflicts as f64),
            ("decisions", s.solver_decisions as f64),
            ("bdd_resident_nodes", s.bdd_resident_nodes as f64),
            ("bdd_translation_hits", s.bdd_translation_hits as f64),
            ("bdd_fallbacks", s.bdd_fallbacks as f64),
            ("anf_hits", s.anf_hits as f64),
        ] {
            tracer.count(root, name, v);
        }
    }
    Ok((t0, t5, verdicts, program))
}

struct Check {
    /// Some target came back `unknown`.
    unknown: bool,
    wrong: Vec<String>,
}

/// Compares verdicts with the program's known answer. An `unknown`
/// verdict is a failure, not a wrong answer.
fn check(p: &Program, program: &ElaboratedProgram, verdicts: &[QubitVerdict]) -> Check {
    let mut out = Check {
        unknown: false,
        wrong: Vec::new(),
    };
    for v in verdicts {
        let name = program.qubit_name(v.qubit);
        if v.verdict.is_unknown() {
            out.unknown = true;
        } else if v.safe == p.unsafe_names.iter().any(|u| u == name) {
            out.wrong
                .push(format!("{}: {name} reported {}", p.name, v.verdict.name()));
        }
    }
    for u in &p.unsafe_names {
        if !verdicts.iter().any(|v| program.qubit_name(v.qubit) == u) {
            out.wrong.push(format!("{}: no verdict for {u}", p.name));
        }
    }
    out
}

/// Per-layer values of one traced sample, keyed by metric name.
fn layer_row(g: &BTreeMap<String, f64>) -> BTreeMap<&'static str, f64> {
    let v = |k: &str| g.get(k).copied().unwrap_or(0.0);
    let wall: f64 = g
        .iter()
        .filter(|(k, _)| !k.starts_with("sweep."))
        .map(|(_, ms)| ms)
        .sum();
    BTreeMap::from([
        ("wall_ms", wall),
        ("lang.parse_ms", v("lang.parse")),
        ("lang.elaborate_ms", v("lang.elaborate")),
        ("lang.gates", v("sweep.gates")),
        ("core.session_new_ms", v("core.session_new")),
        ("core.arena_nodes", v("sweep.arena_nodes")),
        ("core.cofactor_ms", v("core.cofactor")),
        ("core.cofactor_hits", v("sweep.cofactor_hits")),
        ("core.decision_hits", v("sweep.decision_hits")),
        ("core.roots", v("sweep.roots")),
        ("core.other_ms", v("sweep") + v("core.verify_targets")),
        ("formula.encode_ms", v("formula.encode")),
        ("sat.solve_ms", v("sat.solve")),
        ("sat.propagations", v("sweep.propagations")),
        ("sat.conflicts", v("sweep.conflicts")),
        ("sat.decisions", v("sweep.decisions")),
        ("bdd.decide_ms", v("bdd.decide")),
        ("bdd.resident_nodes", v("sweep.bdd_resident_nodes")),
        ("bdd.translation_hits", v("sweep.bdd_translation_hits")),
        ("bdd.fallbacks", v("sweep.bdd_fallbacks")),
        ("anf.decide_ms", v("anf.decide")),
        ("anf.hits", v("sweep.anf_hits")),
    ])
}

/// Per-layer values of one round: per program, the median over its
/// traced samples; summed over the programs.
pub fn round_layers(r: &SweepRun) -> BTreeMap<&'static str, f64> {
    let groups = trace::self_times(&r.spans);
    let mut per_program: Vec<BTreeMap<&'static str, Vec<f64>>> =
        vec![BTreeMap::new(); r.programs.len()];
    for &(idx, group) in &r.traced_groups {
        for (k, v) in layer_row(&groups[&group]) {
            per_program[idx].entry(k).or_default().push(v);
        }
    }
    let mut out = BTreeMap::new();
    for rows in &per_program {
        for (k, vs) in rows {
            *out.entry(*k).or_insert(0.0) += crate::stats::median(vs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The count metrics later changes may rest claims on: they must
    /// repeat exactly across runs at one seed (`SessionStats` is their
    /// one source).
    const EXACT: [&str; 7] = [
        "sat.propagations",
        "sat.conflicts",
        "sat.decisions",
        "core.arena_nodes",
        "bdd.resident_nodes",
        "core.cofactor_hits",
        "core.decision_hits",
    ];

    fn counts(workload: &str) -> Vec<f64> {
        // Two rounds so exactly one is traced.
        let r = run(workload, 11, 1e-9, true);
        assert!(r.wrong.is_empty(), "{:?}", r.wrong);
        assert_eq!(r.failed, 0);
        let layers = round_layers(&r);
        EXACT.iter().map(|k| layers[k]).collect()
    }

    #[test]
    fn sweep_layer_counts_repeat_exactly() {
        for workload in ["sweep-sat", "sweep-auto"] {
            let first = counts(workload);
            assert!(first.iter().any(|&c| c > 0.0));
            assert_eq!(first, counts(workload), "{workload}: {EXACT:?}");
        }
    }
}
