//! Cross-checks of the incremental verification session against the
//! fresh-solver pipeline on the paper's two benchmark families (the
//! Håner carry gadget behind `adder.qbr` and the borrowed-bit Gidney
//! MCX), in clean and dirty initial-value variants, plus parallel
//! fan-out ordering guarantees.

use qborrow::circuit::{simulate_classical, BitState, Circuit};
use qborrow::core::{
    verify_circuit, verify_circuit_fresh, verify_circuit_parallel, BackendKind, EditStats,
    InitialValue, SessionStats, VerificationReport, VerifyOptions, VerifySession, Violation,
};
use qborrow::formula::Simplify;
use qborrow::lang::{adder_source, elaborate, mcx_source, parse, QubitKind};
use qborrow::synth::{carry_gadget, gidney_mcx};

fn sat_options() -> Vec<VerifyOptions> {
    [Simplify::Raw, Simplify::Full]
        .into_iter()
        .map(|simplify| VerifyOptions {
            backend: BackendKind::Sat,
            simplify,
            ..VerifyOptions::default()
        })
        .collect()
}

fn assert_same_verdicts(a: &VerificationReport, b: &VerificationReport, tag: &str) {
    assert_eq!(a.verdicts.len(), b.verdicts.len(), "{tag}");
    for (x, y) in a.verdicts.iter().zip(&b.verdicts) {
        assert_eq!(x.qubit, y.qubit, "{tag}");
        assert_eq!(x.safe, y.safe, "{tag}: qubit {}", x.qubit);
        assert_eq!(
            x.counterexample.as_ref().map(|ce| ce.violation),
            y.counterexample.as_ref().map(|ce| ce.violation),
            "{tag}: qubit {}",
            x.qubit
        );
    }
}

/// Witnesses from any pipeline must replay on the concrete circuit.
fn assert_witnesses_replay(circuit: &Circuit, report: &VerificationReport, tag: &str) {
    let n = circuit.num_qubits();
    for v in &report.verdicts {
        let Some(ce) = &v.counterexample else {
            continue;
        };
        let bits = ce
            .basis_assignment
            .as_ref()
            .unwrap_or_else(|| panic!("{tag}: every backend produces witnesses"));
        match ce.violation {
            Violation::ZeroNotRestored => {
                let mut input = bits.clone();
                input[v.qubit] = false;
                let out = simulate_classical(circuit, &BitState::from_bits(&input)).unwrap();
                assert!(
                    out.get(v.qubit),
                    "{tag}: |0> witness must flip qubit {}",
                    v.qubit
                );
            }
            Violation::PlusNotRestored => {
                let mut in0 = bits.clone();
                in0[v.qubit] = false;
                let mut in1 = bits.clone();
                in1[v.qubit] = true;
                let out0 = simulate_classical(circuit, &BitState::from_bits(&in0)).unwrap();
                let out1 = simulate_classical(circuit, &BitState::from_bits(&in1)).unwrap();
                let differs = (0..n)
                    .filter(|&p| p != v.qubit)
                    .any(|p| out0.get(p) != out1.get(p));
                assert!(differs, "{tag}: |+> witness must leak qubit {}", v.qubit);
            }
        }
    }
}

#[test]
fn haner_carry_session_matches_fresh_dirty_and_clean() {
    let n = 8;
    let (circuit, layout) = carry_gadget(n);
    let width = circuit.num_qubits();
    // All borrowed address qubits are dirty verification targets.
    let targets: Vec<usize> = (0..n - 1).map(|i| layout.a + i).collect();

    // Dirty variant: every qubit unconstrained (the paper's default).
    let dirty = vec![InitialValue::Free; width];
    // Clean variant: the working register is known-zero, which the
    // verifier exploits — verdicts must still agree across pipelines.
    let mut clean = vec![InitialValue::Free; width];
    for i in 0..n - 1 {
        clean[layout.q + i] = InitialValue::Zero;
    }

    for (variant, initial) in [("dirty", &dirty), ("clean", &clean)] {
        for opts in sat_options() {
            let fresh = verify_circuit_fresh(&circuit, initial, &targets, &opts).unwrap();
            let session = verify_circuit(&circuit, initial, &targets, &opts).unwrap();
            let parallel = verify_circuit_parallel(&circuit, initial, &targets, &opts, 3).unwrap();
            let tag = format!("haner/{variant}/{:?}", opts.simplify);
            assert_same_verdicts(&fresh, &session, &tag);
            assert_same_verdicts(&session, &parallel, &tag);
            assert!(
                session.all_safe(),
                "{tag}: carry gadget restores its dirty qubits"
            );
        }
    }
}

#[test]
fn broken_haner_carry_counterexamples_agree_and_replay() {
    let (good, layout) = carry_gadget(6);
    // Drop the final uncompute gate: some address qubit leaks.
    let mut broken = Circuit::new(good.num_qubits());
    for g in &good.gates()[..good.size() - 1] {
        broken.push(g.clone());
    }
    let targets: Vec<usize> = (0..5).map(|i| layout.a + i).collect();
    let initial = vec![InitialValue::Free; broken.num_qubits()];
    for opts in sat_options() {
        let fresh = verify_circuit_fresh(&broken, &initial, &targets, &opts).unwrap();
        let session = verify_circuit(&broken, &initial, &targets, &opts).unwrap();
        let tag = format!("broken-haner/{:?}", opts.simplify);
        assert_same_verdicts(&fresh, &session, &tag);
        assert!(!session.all_safe(), "{tag}: fault must be caught");
        assert_witnesses_replay(&broken, &session, &tag);
        assert_witnesses_replay(&broken, &fresh, &tag);
    }
}

#[test]
fn gidney_mcx_session_matches_fresh_dirty_and_clean() {
    let (circuit, layout) = gidney_mcx(6);
    let width = circuit.num_qubits();
    let anc = layout.dirty.expect("gidney mcx borrows a dirty qubit");
    let targets = vec![anc];

    let dirty = vec![InitialValue::Free; width];
    // Clean variant: the borrowed ancilla itself starts in |0⟩.
    let mut clean = dirty.clone();
    clean[anc] = InitialValue::Zero;

    for (variant, initial) in [("dirty", &dirty), ("clean", &clean)] {
        for opts in sat_options() {
            let fresh = verify_circuit_fresh(&circuit, initial, &targets, &opts).unwrap();
            let session = verify_circuit(&circuit, initial, &targets, &opts).unwrap();
            let tag = format!("mcx/{variant}/{:?}", opts.simplify);
            assert_same_verdicts(&fresh, &session, &tag);
            assert!(session.all_safe(), "{tag}: the MCX ancilla is restored");
        }
    }
}

#[test]
fn broken_mcx_session_matches_fresh_with_witness() {
    let (good, layout) = gidney_mcx(5);
    let anc = layout.dirty.unwrap();
    // Sabotage: an extra CNOT copies the ancilla into the target wire.
    let mut broken = good.clone();
    broken.cnot(anc, layout.target);
    let initial = vec![InitialValue::Free; broken.num_qubits()];
    for opts in sat_options() {
        let fresh = verify_circuit_fresh(&broken, &initial, &[anc], &opts).unwrap();
        let session = verify_circuit(&broken, &initial, &[anc], &opts).unwrap();
        let tag = format!("broken-mcx/{:?}", opts.simplify);
        assert_same_verdicts(&fresh, &session, &tag);
        assert!(!session.all_safe(), "{tag}");
        assert_witnesses_replay(&broken, &session, &tag);
    }
}

#[test]
fn parallel_fanout_preserves_request_order_on_haner_sweep() {
    let n = 8;
    let (circuit, layout) = carry_gadget(n);
    let initial = vec![InitialValue::Free; circuit.num_qubits()];
    // Deliberately interleaved, non-monotone request order.
    let mut targets: Vec<usize> = (0..n - 1).map(|i| layout.a + i).collect();
    targets.reverse();
    targets.swap(0, 3);
    let opts = VerifyOptions::default();
    for jobs in [0, 2, 5] {
        let report = verify_circuit_parallel(&circuit, &initial, &targets, &opts, jobs).unwrap();
        let order: Vec<usize> = report.verdicts.iter().map(|v| v.qubit).collect();
        assert_eq!(order, targets, "jobs={jobs}");
    }
}

/// The session exposes its solver's work counters through the public
/// [`qborrow::core::SessionStats`] surface only — this test (and the
/// soak suite) deliberately never reaches into solver internals, so
/// clause-layout rewrites (e.g. the PR-5 flat arena) cannot churn it.
#[test]
fn solver_counters_are_observable_through_session_stats() {
    let n = 8;
    let (circuit, layout) = carry_gadget(n);
    let initial = vec![InitialValue::Free; circuit.num_qubits()];
    let targets: Vec<usize> = (0..n - 1).map(|i| layout.a + i).collect();
    let opts = VerifyOptions {
        backend: BackendKind::Sat,
        simplify: qborrow::formula::Simplify::Raw,
        ..VerifyOptions::default()
    };
    let mut session = VerifySession::new(&circuit, &initial, &opts).unwrap();
    session.verify_targets(&targets).unwrap();
    let stats = session.stats();
    assert!(
        stats.solver_propagations > 0,
        "a SAT sweep propagates: {stats:?}"
    );
    assert!(stats.solver_decisions > 0, "{stats:?}");
    assert!(
        stats.live_clauses <= stats.clause_slots,
        "slot accounting stays sane: {stats:?}"
    );
    assert!(
        stats.sat_time.as_nanos() > 0,
        "backend time is attributed: {stats:?}"
    );
    // Counters are cumulative: a second sweep (decision-cache warm)
    // never decreases them.
    let before = stats.solver_propagations;
    session.verify_targets(&targets).unwrap();
    assert!(session.stats().solver_propagations >= before);

    // A pure-BDD session reports zero solver work through the same API.
    let opts = VerifyOptions {
        backend: BackendKind::Bdd,
        ..VerifyOptions::default()
    };
    let mut session = VerifySession::new(&circuit, &initial, &opts).unwrap();
    session.verify_targets(&targets).unwrap();
    let stats = session.stats();
    assert_eq!(stats.solver_propagations, 0, "{stats:?}");
    assert_eq!(stats.solver_vars, 0, "{stats:?}");
}

/// ANF and the auto ladder return witnesses too, in both pipelines: on
/// the missing-uncompute MCX mutant (`CNOT[anc, t]` before `release
/// anc`, decided on the ANF rung) and on leaky Håner adders (an appended
/// `CNOT[a[2], q[3]]`; auto stays on ANF at 8 bits and demotes to BDD at
/// 32), every unsafe verdict replays on the concrete circuit.
#[test]
fn anf_and_auto_witnesses_replay() {
    let mcx_leak = mcx_source(128).replacen("release anc;", "CNOT[anc, t];\nrelease anc;", 1);
    let adder_leak = |n: usize| adder_source(n) + "CNOT[a[2], q[3]];\n";
    let cases = [
        ("mcx-128-leak", mcx_leak.clone(), BackendKind::Anf),
        ("mcx-128-leak", mcx_leak, BackendKind::Auto),
        ("adder-8-leak", adder_leak(8), BackendKind::Anf),
        ("adder-8-leak", adder_leak(8), BackendKind::Auto),
        ("adder-32-leak", adder_leak(32), BackendKind::Auto),
    ];
    for (name, source, backend) in cases {
        let program = elaborate(&parse(&source).unwrap()).unwrap();
        let initial = vec![InitialValue::Free; program.num_qubits()];
        let targets = program.qubits_to_verify();
        let opts = VerifyOptions {
            backend,
            ..VerifyOptions::default()
        };
        let session = verify_circuit(&program.circuit, &initial, &targets, &opts).unwrap();
        let fresh = verify_circuit_fresh(&program.circuit, &initial, &targets, &opts).unwrap();
        for (pipeline, report) in [("session", &session), ("fresh", &fresh)] {
            let tag = format!("{name}/{backend}/{pipeline}");
            assert_eq!(
                report.verdicts.iter().filter(|v| !v.safe).count(),
                1,
                "{tag}: exactly one leaking qubit"
            );
            assert_witnesses_replay(&program.circuit, report, &tag);
        }
    }
}

/// The ANF and BDD rungs decide the plus condition (6.2) by support
/// membership instead of one cofactor XOR root per other qubit. On
/// seeded leaks — appended `CNOT[a[i], q[j]]` on the adder, a leak
/// conditioned on a second qubit (whose witness must set that qubit),
/// the missing-uncompute MCX mutant, and a fan-out copying one dirty
/// qubit into three others (so the witness comes from the first of
/// several dependent qubits) — `bdd`, `anf` and `auto` must reproduce the
/// fresh SAT pipeline's verdicts and violation kinds under both
/// simplification modes, and every witness must replay on the concrete
/// circuit. The oracle runs once per program under `Full` (verdicts do
/// not depend on the mode; its `Raw` run is 40× slower on the 64-bit
/// adder). ANF's carry polynomials overflow its term cap on wide adders,
/// so its adder rows use 12 bits.
#[test]
fn support_plus_condition_matches_fresh_sat_and_witnesses_replay() {
    let adder_leak = |n: usize, leak: &str| (format!("adder-{n} + {leak}"), adder_source(n) + leak);
    let fan_out = "CCNOT[a[3], q[5], q[9]];\nCCNOT[a[3], q[6], q[2]];\nCNOT[a[3], q[11]];\n";
    let mcx_leak = (
        "mcx-128-leak".to_string(),
        mcx_source(128).replacen("release anc;", "CNOT[anc, t];\nrelease anc;", 1),
    );
    use BackendKind::{Anf, Auto, Bdd};
    let wide = [
        "CNOT[a[1], q[2]];\n",
        "CNOT[a[20], q[50]];\n",
        "CNOT[a[63], q[64]];\n",
        "CCNOT[a[40], q[41], q[7]];\n",
        fan_out,
    ];
    let narrow = [
        "CNOT[a[1], q[2]];\n",
        "CCNOT[a[11], q[8], q[4]];\n",
        fan_out,
    ];
    let mut cases: Vec<((String, String), &[BackendKind])> = Vec::new();
    cases.extend(wide.map(|leak| (adder_leak(64, leak), &[Bdd, Auto][..])));
    cases.extend(narrow.map(|leak| (adder_leak(12, leak), &[Anf][..])));
    cases.push((mcx_leak, &[Bdd, Anf, Auto]));
    for ((name, source), backends) in cases {
        let program = elaborate(&parse(&source).unwrap()).unwrap();
        let initial = vec![InitialValue::Free; program.num_qubits()];
        let targets = program.qubits_to_verify();
        let oracle_opts = VerifyOptions {
            backend: BackendKind::Sat,
            simplify: Simplify::Full,
            ..VerifyOptions::default()
        };
        let oracle =
            verify_circuit_fresh(&program.circuit, &initial, &targets, &oracle_opts).unwrap();
        assert!(
            oracle.verdicts.iter().any(|v| !v.safe),
            "{name}: the seeded leak is unsafe"
        );
        for &backend in backends {
            for simplify in [Simplify::Raw, Simplify::Full] {
                let opts = VerifyOptions {
                    backend,
                    simplify,
                    ..VerifyOptions::default()
                };
                let session = verify_circuit(&program.circuit, &initial, &targets, &opts).unwrap();
                let tag = format!("{name}/{backend}/{simplify:?}");
                assert_same_verdicts(&oracle, &session, &tag);
                assert_witnesses_replay(&program.circuit, &session, &tag);
            }
        }
    }
}

/// The 16-bit Håner adder with its clean qubits known-zero, and the same
/// circuit after the one-gate suffix edit the daemon's edit loop sees
/// most: an appended X on `q[1]`, whose formula depends on no dirty
/// qubit, so every condition root keeps its node id.
fn adder16_and_suffix_edit() -> (Circuit, Circuit, Vec<InitialValue>, Vec<usize>) {
    let program = elaborate(&parse(&adder_source(16)).unwrap()).unwrap();
    let initial = (0..program.num_qubits())
        .map(|q| match program.qubit_kinds[q] {
            QubitKind::Clean => InitialValue::Zero,
            _ => InitialValue::Free,
        })
        .collect();
    let targets = program.qubits_to_verify();
    let mut edited = program.circuit.clone();
    edited.x(0);
    (program.circuit, edited, initial, targets)
}

/// Verifies `original`, applies the edit to `edited` and re-verifies.
/// Returns the re-verify's report, the edit's stats and the session
/// stats before and after the edit.
fn warm_reverify(
    original: &Circuit,
    edited: &Circuit,
    initial: &[InitialValue],
    targets: &[usize],
    opts: &VerifyOptions,
) -> (VerificationReport, EditStats, SessionStats, SessionStats) {
    let mut session = VerifySession::new(original, initial, opts).unwrap();
    session.verify_targets(targets).unwrap();
    let before = session.stats();
    let edit = session.apply_edit(edited).unwrap();
    let report = session.verify_report(targets).unwrap();
    (report, edit, before, session.stats())
}

/// Edit incrementality on the SAT backend: after the one-gate suffix
/// edit, the warm session keeps the whole old circuit as its permanent
/// prefix, and its re-verify does at most half the unit propagations of
/// a cold session sweeping the edited circuit. Verdicts match the cold
/// sweep.
#[test]
fn warm_sat_reverify_after_suffix_edit_propagates_at_most_half_of_cold() {
    let (original, edited, initial, targets) = adder16_and_suffix_edit();
    let opts = VerifyOptions::default();
    let mut cold = VerifySession::new(&edited, &initial, &opts).unwrap();
    let cold_report = cold.verify_report(&targets).unwrap();
    let cold_props = cold.stats().solver_propagations;

    let (report, edit, before, after) =
        warm_reverify(&original, &edited, &initial, &targets, &opts);
    assert_same_verdicts(&cold_report, &report, "adder-16 sat");
    assert_eq!(edit.common_prefix, original.size(), "{edit:?}");
    assert_eq!(edit.permanent_prefix, edit.common_prefix, "{edit:?}");
    let warm_props = after.solver_propagations - before.solver_propagations;
    assert!(
        2 * warm_props <= cold_props,
        "warm re-verify propagated {warm_props}, cold sweep {cold_props}"
    );
}

/// Edit incrementality on the BDD backend: after the one-gate suffix
/// edit, the warm session keeps every arena→BDD translation it had, its
/// re-verify translates at most a quarter of the arena nodes a cold BDD
/// sweep of the edited circuit translates, and it answers from its
/// translation cache. Verdicts match the cold sweep.
#[test]
fn warm_bdd_reverify_after_suffix_edit_translates_at_most_a_quarter_of_cold() {
    let (original, edited, initial, targets) = adder16_and_suffix_edit();
    let opts = VerifyOptions {
        backend: BackendKind::Bdd,
        ..VerifyOptions::default()
    };
    let mut cold = VerifySession::new(&edited, &initial, &opts).unwrap();
    let cold_report = cold.verify_report(&targets).unwrap();
    let cold_translations = cold.stats().bdd_translation_misses;

    let (report, _, before, after) = warm_reverify(&original, &edited, &initial, &targets, &opts);
    assert_same_verdicts(&cold_report, &report, "adder-16 bdd");
    assert!(
        after.bdd_cached_translations >= before.bdd_cached_translations,
        "the edit keeps every cached translation: {before:?} -> {after:?}"
    );
    let warm_translations = after.bdd_translation_misses - before.bdd_translation_misses;
    assert!(
        4 * warm_translations <= cold_translations,
        "warm re-verify translated {warm_translations} nodes, cold sweep {cold_translations}"
    );
    assert!(
        after.bdd_translation_hits > before.bdd_translation_hits,
        "warm re-verify reuses cached translations: {after:?}"
    );
}

/// The SAT rung sweeps its arena (the session's `sweep` module): merges
/// proven by conflict-capped solver calls reshape the conditions, and a
/// simulation pattern that sets a condition root is its witness. On
/// seeded leaks under `--backend sat` and `Simplify::Raw` — appended
/// `CNOT[a[i], q[j]]` on the 64-bit adder, a leak conditioned on a second
/// qubit, a fan-out copying one dirty qubit into three others, and the
/// missing-uncompute MCX mutant — the session's verdicts and violation
/// kinds equal the fresh pipeline's (which never sweeps), every witness
/// replays on the concrete circuit, and at least one witness came from a
/// simulation pattern with no solver call. The fresh oracle runs under
/// `Full`: verdicts do not depend on the mode, and its `Raw` run of the
/// 64-bit adder is 40× slower.
#[test]
fn sat_sweep_matches_fresh_and_simulation_witnesses_replay() {
    let fan_out = "CCNOT[a[3], q[5], q[9]];\nCCNOT[a[3], q[6], q[2]];\nCNOT[a[3], q[11]];\n";
    let mut cases: Vec<(String, String)> = [
        "CNOT[a[1], q[2]];\n",
        "CNOT[a[20], q[50]];\n",
        "CNOT[a[63], q[64]];\n",
        "CCNOT[a[40], q[41], q[7]];\n",
        fan_out,
    ]
    .iter()
    .map(|leak| (format!("adder-64 + {leak}"), adder_source(64) + leak))
    .collect();
    cases.push((
        "mcx-128-leak".to_string(),
        mcx_source(128).replacen("release anc;", "CNOT[anc, t];\nrelease anc;", 1),
    ));
    let opts = VerifyOptions {
        backend: BackendKind::Sat,
        simplify: Simplify::Raw,
        ..VerifyOptions::default()
    };
    let oracle_opts = VerifyOptions {
        simplify: Simplify::Full,
        ..opts
    };
    let mut sim_witnesses = 0;
    for (name, source) in cases {
        let program = elaborate(&parse(&source).unwrap()).unwrap();
        let initial = vec![InitialValue::Free; program.num_qubits()];
        let targets = program.qubits_to_verify();
        let oracle =
            verify_circuit_fresh(&program.circuit, &initial, &targets, &oracle_opts).unwrap();
        assert!(!oracle.all_safe(), "{name}: the seeded leak is unsafe");
        let mut session = VerifySession::new(&program.circuit, &initial, &opts).unwrap();
        let report = session.verify_report(&targets).unwrap();
        assert_same_verdicts(&oracle, &report, &name);
        assert_witnesses_replay(&program.circuit, &report, &name);
        let stats = session.stats();
        assert!(stats.sweep_merges > 0, "{name}: the base pass merges");
        sim_witnesses += stats.sweep_sim_witnesses;
    }
    assert!(
        sim_witnesses > 0,
        "some witness comes from a simulation pattern"
    );
}

/// Sweep merges survive arena collection: adder-32 under a GC floor low
/// enough that the arena is collected between targets of one sweep. The
/// verdicts equal the fresh pipeline's, and a second sweep adds no merge
/// (every representative the first sweep proved is still mapped).
#[test]
fn sat_sweep_merges_survive_arena_collection() {
    let program = elaborate(&parse(&adder_source(32)).unwrap()).unwrap();
    let initial: Vec<InitialValue> = (0..program.num_qubits())
        .map(|q| match program.qubit_kinds[q] {
            QubitKind::Clean => InitialValue::Zero,
            _ => InitialValue::Free,
        })
        .collect();
    let targets = program.qubits_to_verify();
    let opts = VerifyOptions {
        backend: BackendKind::Sat,
        simplify: Simplify::Raw,
        ..VerifyOptions::default()
    };
    let mut session = VerifySession::new(&program.circuit, &initial, &opts).unwrap();
    session.set_memory_limits(Some(64), None);
    let first = session.verify_report(&targets).unwrap();
    let after_first = session.stats();
    assert!(
        after_first.arena_collections >= 1,
        "a collection ran mid-sweep: {after_first:?}"
    );
    assert!(after_first.sweep_merges > 0, "{after_first:?}");
    let fresh = verify_circuit_fresh(&program.circuit, &initial, &targets, &opts).unwrap();
    assert_same_verdicts(&fresh, &first, "adder-32 gc");
    // Re-arm at the floor: the second sweep collects again.
    session.set_memory_limits(Some(64), None);
    let second = session.verify_report(&targets).unwrap();
    assert_same_verdicts(&fresh, &second, "adder-32 gc, second sweep");
    let after_second = session.stats();
    assert_eq!(
        after_second.sweep_merges, after_first.sweep_merges,
        "the second sweep proves nothing again"
    );
    assert!(after_second.arena_collections > after_first.arena_collections);
}
