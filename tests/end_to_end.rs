//! End-to-end integration tests: parse the shipped `.qbr` fixtures,
//! elaborate, verify with every backend, and cross-check against the
//! direct circuit generators.

use qborrow::core::{
    initial_values, verify_program, AutoPreference, BackendKind, BackendOptions, SessionStats,
    VerifyOptions, VerifySession, Violation,
};
use qborrow::formula::Simplify;
use qborrow::lang::{adder_source, elaborate, mcx_source, parse};

fn fixture(name: &str) -> String {
    let path = format!("{}/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn adder_fixture_matches_generator() {
    let from_file = elaborate(&parse(&fixture("adder.qbr")).unwrap()).unwrap();
    let generated = elaborate(&parse(&adder_source(50)).unwrap()).unwrap();
    assert_eq!(from_file.circuit, generated.circuit);
    assert_eq!(from_file.num_qubits(), 99);
    assert_eq!(from_file.qubits_to_verify().len(), 49);
}

#[test]
fn mcx_fixture_matches_generator() {
    let from_file = elaborate(&parse(&fixture("mcx.qbr")).unwrap()).unwrap();
    let generated = elaborate(&parse(&mcx_source(1750)).unwrap()).unwrap();
    assert_eq!(from_file.circuit, generated.circuit);
    // n = 2m − 1 controls + t + anc.
    assert_eq!(from_file.num_qubits(), 2 * 1750 - 1 + 2);
    assert_eq!(from_file.circuit.size(), 16 * (1750 - 2));
    assert_eq!(from_file.qubits_to_verify().len(), 1);
}

#[test]
fn cccnot_fixture_verifies_safe_on_all_backends() {
    let program = elaborate(&parse(&fixture("cccnot.qbr")).unwrap()).unwrap();
    for backend in [
        BackendKind::Sat,
        BackendKind::Anf,
        BackendKind::Bdd,
        BackendKind::Auto,
    ] {
        for simplify in [Simplify::Raw, Simplify::Full] {
            let opts = VerifyOptions {
                backend,
                simplify,
                backend_options: BackendOptions::default(),
            };
            let report = verify_program(&program, &opts).unwrap();
            assert!(report.all_safe(), "{backend} {simplify:?}");
        }
    }
}

#[test]
fn unsafe_fixture_is_rejected_with_witness() {
    let program = elaborate(&parse(&fixture("unsafe_copy.qbr")).unwrap()).unwrap();
    let report = verify_program(&program, &VerifyOptions::default()).unwrap();
    assert!(!report.all_safe());
    let verdict = &report.verdicts[0];
    let ce = verdict.counterexample.as_ref().unwrap();
    assert_eq!(ce.violation, Violation::PlusNotRestored);
}

#[test]
fn small_adder_verifies_on_every_backend_mode() {
    let program = elaborate(&parse(&adder_source(10)).unwrap()).unwrap();
    for backend in [BackendKind::Sat, BackendKind::Bdd, BackendKind::Auto] {
        for simplify in [Simplify::Raw, Simplify::Full] {
            let opts = VerifyOptions {
                backend,
                simplify,
                backend_options: BackendOptions::default(),
            };
            let report = verify_program(&program, &opts).unwrap();
            assert!(report.all_safe(), "{backend} {simplify:?}");
            assert_eq!(report.verdicts.len(), 9);
        }
    }
}

#[test]
fn small_mcx_verifies_on_every_backend_mode() {
    let program = elaborate(&parse(&mcx_source(8)).unwrap()).unwrap();
    for backend in [
        BackendKind::Sat,
        BackendKind::Anf,
        BackendKind::Bdd,
        BackendKind::Auto,
    ] {
        for simplify in [Simplify::Raw, Simplify::Full] {
            let opts = VerifyOptions {
                backend,
                simplify,
                backend_options: BackendOptions::default(),
            };
            let report = verify_program(&program, &opts).unwrap();
            assert!(report.all_safe(), "{backend} {simplify:?}");
        }
    }
}

#[test]
fn sabotaged_benchmarks_are_caught_by_every_backend() {
    // Injecting a fault into the adder's uncompute section must flip the
    // verdict, whatever the backend.
    let program = elaborate(&parse(&adder_source(8)).unwrap()).unwrap();
    let gates = program.circuit.gates();
    let mut broken = qborrow::circuit::Circuit::new(program.num_qubits());
    for (i, g) in gates.iter().enumerate() {
        // Drop one Toffoli from the middle of the uncompute phase.
        if i == gates.len() - 5 {
            continue;
        }
        broken.push(g.clone());
    }
    let initial: Vec<qborrow::core::InitialValue> =
        vec![qborrow::core::InitialValue::Free; program.num_qubits()];
    let targets = program.qubits_to_verify();
    for backend in [BackendKind::Sat, BackendKind::Bdd, BackendKind::Auto] {
        let opts = VerifyOptions {
            backend,
            simplify: Simplify::Raw,
            backend_options: BackendOptions::default(),
        };
        let report = qborrow::core::verify_circuit(&broken, &initial, &targets, &opts).unwrap();
        assert!(!report.all_safe(), "{backend} missed the fault");
    }
}

#[test]
fn verification_pipeline_is_deterministic() {
    let program = elaborate(&parse(&adder_source(12)).unwrap()).unwrap();
    let opts = VerifyOptions::default();
    let a = verify_program(&program, &opts).unwrap();
    let b = verify_program(&program, &opts).unwrap();
    let verdicts_a: Vec<bool> = a.verdicts.iter().map(|v| v.safe).collect();
    let verdicts_b: Vec<bool> = b.verdicts.iter().map(|v| v.safe).collect();
    assert_eq!(verdicts_a, verdicts_b);
    assert_eq!(a.formula_nodes, b.formula_nodes);
}

#[test]
fn scheduler_composes_with_verifier_end_to_end() {
    // Verify → reduce → re-verify: the reduced circuit of the Fig. 3.1
    // example still passes the remaining checks.
    use qborrow::sched::reduce_width;
    let circuit = qborrow::synth::fig_3_1a();
    let (reduced, plan) = reduce_width(&circuit, &[5, 6], &VerifyOptions::default()).unwrap();
    assert_eq!(plan.saved(), 1);
    assert!(reduced.is_classical());
    // The reduced circuit is still a permutation (sanity via simulation).
    let perm = qborrow::circuit::permutation_of(&reduced).unwrap();
    let mut sorted = perm.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..perm.len()).collect::<Vec<_>>());
}

/// Verifies every target of `source` on one cold `auto` session and
/// returns the session's counters.
fn auto_sweep(source: &str) -> SessionStats {
    let program = elaborate(&parse(source).unwrap()).unwrap();
    let initial = initial_values(&program);
    let opts = VerifyOptions {
        backend: BackendKind::Auto,
        ..VerifyOptions::default()
    };
    let mut session = VerifySession::new(&program.circuit, &initial, &opts).unwrap();
    let verdicts = session.verify_targets(&program.qubits_to_verify()).unwrap();
    assert!(
        verdicts.iter().all(|v| v.safe),
        "the paper's programs are safe"
    );
    session.stats()
}

#[test]
fn auto_ladder_decides_the_paper_mcx_on_anf() {
    // m = 1750: ANF stays within its small term cap on every root, so
    // BDD and SAT never run.
    let stats = auto_sweep(&fixture("mcx.qbr"));
    assert_eq!(stats.auto_preference, AutoPreference::Anf, "{stats:?}");
    assert_eq!(stats.anf_fallbacks, 0, "{stats:?}");
    assert_eq!(stats.bdd_fallbacks, 0, "{stats:?}");
    assert_eq!(stats.bdd_cached_translations, 0, "{stats:?}");
    assert_eq!(stats.solver_decisions, 0, "{stats:?}");
    assert_eq!(
        stats.cofactor_memo_entries, 0,
        "(6.2) by support: {stats:?}"
    );
    assert!(stats.support_memo_entries > 0, "{stats:?}");
}

#[test]
fn auto_ladder_demotes_the_paper_adder_to_bdd_once() {
    // The carry chain overflows the ANF cap: one demotion, after which
    // BDD decides every target within its budget and the ANF cache is
    // gone. Neither rung builds cofactors: (6.2) is a support test.
    let stats = auto_sweep(&fixture("adder.qbr"));
    assert_eq!(stats.auto_preference, AutoPreference::Bdd, "{stats:?}");
    assert_eq!(stats.anf_fallbacks, 1, "{stats:?}");
    assert_eq!(stats.bdd_fallbacks, 0, "{stats:?}");
    assert_eq!(stats.anf_cached_polys, 0, "{stats:?}");
    assert_eq!(
        stats.cofactor_memo_entries, 0,
        "(6.2) by support: {stats:?}"
    );
    assert!(stats.support_memo_entries > 0, "{stats:?}");
}
