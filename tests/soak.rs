//! Bounded-memory soak tests: hundreds of edit cycles through one
//! long-lived [`VerifySession`] and through the daemon socket, asserting
//! that the formula arena and the decision cache stay under fixed bounds
//! (the PR-3 reclamation machinery: arena mark-sweep collection past a
//! watermark, LRU decision-cache eviction, solver compaction) while
//! every verdict still cross-checks against the independent fresh
//! pipeline [`verify_circuit_fresh`].

use qb_testutil::Rng;
use qborrow::circuit::Circuit;
use qborrow::core::{
    initial_values, verify_circuit_fresh, AutoPreference, BackendKind, CancelToken, InitialValue,
    VerifyLimits, VerifyOptions, VerifySession,
};
use qborrow::lang::{adder_source, elaborate, parse};
use qborrow::serve::{run, Client, Json, ServeOptions, ServerLimits};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

/// One session, 220 random edit cycles under tight memory limits: the
/// arena must stay bounded (collections fire and reclaim), the decision
/// cache must respect its cap, and verdicts must stay exact throughout.
#[test]
fn session_soak_memory_stays_bounded_over_200_edit_cycles() {
    const N: usize = 4;
    const CYCLES: usize = 220;
    const ARENA_BOUND: usize = 600;
    const CACHE_CAP: usize = 8;

    let mut rng = Rng::new(0x50A1_0001);
    let opts = VerifyOptions::default();
    let initial = vec![InitialValue::Free; N];
    let targets: Vec<usize> = (0..N).collect();
    let base = {
        let mut c = Circuit::new(N);
        c.toffoli(0, 1, 2).cnot(2, 3);
        c
    };
    let mut session = VerifySession::new(&base, &initial, &opts).expect("session builds");
    session.set_memory_limits(Some(64), Some(CACHE_CAP));

    let mut peak_arena = 0usize;
    for cycle in 0..CYCLES {
        let mut edited = Circuit::new(N);
        edited.toffoli(0, 1, 2).cnot(2, 3);
        for _ in 0..rng.gen_below(5) {
            match rng.gen_below(3) {
                0 => {
                    edited.x(rng.gen_below(N));
                }
                1 => {
                    let (c, t) = rng.gen_distinct2(N);
                    edited.cnot(c, t);
                }
                _ => {
                    let (c1, c2, t) = rng.gen_distinct3(N);
                    edited.toffoli(c1, c2, t);
                }
            }
        }
        session.apply_edit(&edited).expect("edit applies");
        let warm = session.verify_targets(&targets).expect("warm sweep");
        let fresh = verify_circuit_fresh(&edited, &initial, &targets, &opts).expect("fresh sweep");
        for (w, f) in warm.iter().zip(&fresh.verdicts) {
            assert_eq!(w.qubit, f.qubit);
            assert_eq!(w.safe, f.safe, "cycle {cycle}, qubit {}", w.qubit);
            assert_eq!(
                w.counterexample.as_ref().map(|ce| ce.violation),
                f.counterexample.as_ref().map(|ce| ce.violation),
                "cycle {cycle}, qubit {}",
                w.qubit
            );
        }
        let stats = session.stats();
        peak_arena = peak_arena.max(stats.arena_nodes);
        assert!(
            stats.arena_nodes < ARENA_BOUND,
            "cycle {cycle}: arena bounded, got {stats:?}"
        );
        assert!(
            stats.cached_decisions <= CACHE_CAP,
            "cycle {cycle}: decision cache bounded, got {stats:?}"
        );
    }

    let stats = session.stats();
    assert!(
        stats.arena_collections >= 2,
        "collections fire repeatedly over a long session: {stats:?}"
    );
    assert!(stats.arena_nodes_collected > 0);
    assert!(
        stats.decision_evictions > 0,
        "LRU evictions happen under a tight cap: {stats:?}"
    );
    assert!(
        stats.compactions >= 1,
        "solver compaction also fires: {stats:?}"
    );
    assert!(peak_arena < ARENA_BOUND);
}

/// The circuit of edit cycle `c` over the `bits`-bit Håner adder. Even
/// cycles toggle an X on `q[1]`: its formula depends on no dirty qubit,
/// so every condition root keeps its node id and the sweep answers from
/// the decision cache. Odd cycles append [`GC_CYCLE_PAIRS`] cancelling
/// CNOT pairs with dirty controls: the identity, but in `Raw` mode novel
/// structure every cycle (the slow `c / k` terms keep the pairs from
/// repeating), so the arena, encoder and solver keep allocating.
fn gc_cycle_circuit(base: &Circuit, bits: usize, c: usize) -> Circuit {
    let mut edited = base.clone();
    if c.is_multiple_of(2) {
        if (c / 2) % 2 == 1 {
            edited.x(0);
        }
    } else {
        let w = bits - 1;
        for k in 0..GC_CYCLE_PAIRS {
            let dirty = bits + (c / (k + 7) + c * (2 * k + 3) + k) % w;
            let working = (c / (k + w) + c * (4 * k + 7) + 3 * k + 3) % w;
            edited.cnot(dirty, working).cnot(dirty, working);
        }
    }
    edited
}

/// Cancelling CNOT pairs per odd cycle of [`gc_cycle_circuit`]. The SAT
/// sweep merges each pair back into the formula it toggles, so a cycle
/// leaves only its own few suffix nodes behind (no cofactor structure);
/// enough pairs keep the arena outgrowing its GC watermark.
const GC_CYCLE_PAIRS: usize = 32;

/// Arena collection costs no solver work and no cached decisions: over
/// the same 200 edit cycles of the 16-bit adder, a session whose arena
/// is collected past a low watermark answers exactly as many targets
/// from the decision cache as an append-only session, propagates at
/// most 1.2× as much, collects repeatedly, and ends with a smaller
/// arena. Both sessions agree on every verdict, and on sampled cycles
/// of both edit profiles with the fresh pipeline.
#[test]
fn arena_gc_keeps_decision_hits_and_solver_work_of_append_only() {
    const BITS: usize = 16;
    const CYCLES: usize = 200;
    let program = elaborate(&parse(&adder_source(BITS)).unwrap()).unwrap();
    let initial = initial_values(&program);
    let targets = program.qubits_to_verify();
    let opts = VerifyOptions::default();
    let soak = |arena_gc_floor: usize| {
        let mut session =
            VerifySession::new(&program.circuit, &initial, &opts).expect("session builds");
        session.set_memory_limits(Some(arena_gc_floor), None);
        session.verify_targets(&targets).expect("warm-up sweep");
        let verdicts: Vec<Vec<bool>> = (0..CYCLES)
            .map(|c| {
                let edited = gc_cycle_circuit(&program.circuit, BITS, c);
                session.apply_edit(&edited).expect("edit applies");
                let sweep = session.verify_targets(&targets).expect("warm sweep");
                sweep.iter().map(|v| v.safe).collect()
            })
            .collect();
        (verdicts, session.stats())
    };
    let (gc_verdicts, gc) = soak(2048);
    let (append_verdicts, append_only) = soak(usize::MAX);

    assert_eq!(gc_verdicts, append_verdicts);
    for c in [0, 1, 2, CYCLES / 2 + 1, CYCLES - 1] {
        let edited = gc_cycle_circuit(&program.circuit, BITS, c);
        let fresh = verify_circuit_fresh(&edited, &initial, &targets, &opts).expect("fresh sweep");
        let fresh: Vec<bool> = fresh.verdicts.iter().map(|v| v.safe).collect();
        assert_eq!(gc_verdicts[c], fresh, "cycle {c} vs fresh");
    }
    assert_eq!(append_only.arena_collections, 0, "{append_only:?}");
    assert_eq!(gc.decision_hits, append_only.decision_hits);
    assert!(
        gc.solver_propagations * 10 <= append_only.solver_propagations * 12,
        "gc session propagated {}, append-only {}",
        gc.solver_propagations,
        append_only.solver_propagations
    );
    assert!(gc.arena_collections >= 2, "{gc:?}");
    assert!(
        gc.arena_nodes < append_only.arena_nodes,
        "gc arena {}, append-only {}",
        gc.arena_nodes,
        append_only.arena_nodes
    );
}

/// Cross-backend soak: 110 random edit cycles through warm `bdd`, `anf`
/// and `auto` sessions under tight memory limits. Every verdict is
/// cross-checked against the independent fresh pipeline, the formula
/// arena stays bounded (collections fire, the backend memo tables follow
/// the node remap), and the BDD manager's resident node count stays
/// bounded across `Arena::collect` cycles instead of growing
/// monotonically with edit history. The final-formula support memo
/// follows the remap too and is revisited across edits. `auto` runs twice: from the top of
/// its ladder (ANF decides these small circuits) and seeded on the BDD
/// rung, so both of its memoising backends are soaked.
#[test]
fn cross_backend_soak_bdd_anf_auto_stay_exact_and_bounded() {
    const N: usize = 4;
    const CYCLES: usize = 110;
    const ARENA_BOUND: usize = 600;
    const BDD_BOUND: usize = 600;
    const CACHE_CAP: usize = 8;

    for (backend, seed_rung) in [
        (BackendKind::Bdd, None),
        (BackendKind::Anf, None),
        (BackendKind::Auto, None),
        (BackendKind::Auto, Some(AutoPreference::Bdd)),
    ] {
        let mut rng = Rng::new(0x50A1_0002 ^ backend as u64);
        let opts = VerifyOptions {
            backend,
            ..VerifyOptions::default()
        };
        let initial = vec![InitialValue::Free; N];
        let targets: Vec<usize> = (0..N).collect();
        let base = {
            let mut c = Circuit::new(N);
            c.toffoli(0, 1, 2).cnot(2, 3);
            c
        };
        let mut session = VerifySession::new(&base, &initial, &opts).expect("session builds");
        if let Some(rung) = seed_rung {
            session.set_auto_preference(rung);
        }
        session.set_memory_limits(Some(64), Some(CACHE_CAP));
        session.set_backend_limits(Some(64), Some(128), Some(64));

        let mut peak_arena = 0usize;
        let mut peak_bdd = 0usize;
        let mut bdd_shrank = false;
        let mut last_bdd = 0usize;
        for cycle in 0..CYCLES {
            let mut edited = Circuit::new(N);
            edited.toffoli(0, 1, 2).cnot(2, 3);
            for _ in 0..rng.gen_below(5) {
                match rng.gen_below(3) {
                    0 => {
                        edited.x(rng.gen_below(N));
                    }
                    1 => {
                        let (c, t) = rng.gen_distinct2(N);
                        edited.cnot(c, t);
                    }
                    _ => {
                        let (c1, c2, t) = rng.gen_distinct3(N);
                        edited.toffoli(c1, c2, t);
                    }
                }
            }
            session.apply_edit(&edited).expect("edit applies");
            let warm = session.verify_targets(&targets).expect("warm sweep");
            let fresh =
                verify_circuit_fresh(&edited, &initial, &targets, &opts).expect("fresh sweep");
            for (w, f) in warm.iter().zip(&fresh.verdicts) {
                assert_eq!(w.qubit, f.qubit);
                assert_eq!(
                    w.safe, f.safe,
                    "{backend}: cycle {cycle}, qubit {}",
                    w.qubit
                );
                assert_eq!(
                    w.counterexample.as_ref().map(|ce| ce.violation),
                    f.counterexample.as_ref().map(|ce| ce.violation),
                    "{backend}: cycle {cycle}, qubit {}",
                    w.qubit
                );
            }
            let stats = session.stats();
            peak_arena = peak_arena.max(stats.arena_nodes);
            peak_bdd = peak_bdd.max(stats.bdd_resident_nodes);
            if stats.bdd_resident_nodes < last_bdd {
                bdd_shrank = true;
            }
            last_bdd = stats.bdd_resident_nodes;
            assert!(
                stats.arena_nodes < ARENA_BOUND,
                "{backend}: cycle {cycle}: arena bounded, got {stats:?}"
            );
            assert!(
                stats.bdd_resident_nodes < BDD_BOUND,
                "{backend}: cycle {cycle}: BDD manager bounded, got {stats:?}"
            );
            assert!(
                stats.cached_decisions <= CACHE_CAP,
                "{backend}: cycle {cycle}: decision cache bounded, got {stats:?}"
            );
            assert!(
                stats.support_memo_entries <= stats.arena_nodes,
                "{backend}: cycle {cycle}: support memo keys are resident arena nodes \
                 (collections drop the rest), so the arena bound holds for it: {stats:?}"
            );
        }

        let stats = session.stats();
        assert!(
            stats.arena_collections >= 2,
            "{backend}: arena collections fire repeatedly: {stats:?}"
        );
        assert!(
            stats.support_hits > 0,
            "{backend}: revisited final formulas answer from the support memo: {stats:?}"
        );
        assert!(stats.arena_nodes_collected > 0, "{backend}: {stats:?}");
        assert!(
            stats.decision_hits > 0,
            "{backend}: revisited roots answer from the shared decision cache: {stats:?}"
        );
        // The backend that decided the roots: auto's is its rung.
        let decided_by = match backend {
            BackendKind::Auto => stats.auto_preference.backend(),
            other => other,
        };
        match decided_by {
            BackendKind::Bdd => {
                assert!(
                    stats.bdd_collections >= 1,
                    "{backend}: manager GC fires: {stats:?}"
                );
                assert!(stats.bdd_nodes_collected > 0, "{backend}: {stats:?}");
                assert!(
                    bdd_shrank,
                    "{backend}: resident BDD nodes must not grow monotonically \
                     (peak {peak_bdd}, final {last_bdd}): {stats:?}"
                );
                assert!(
                    stats.bdd_translation_hits > 0,
                    "{backend}: warm diagrams reused: {stats:?}"
                );
            }
            BackendKind::Anf => {
                assert!(
                    stats.anf_hits > 0,
                    "{backend}: memoised polynomials reused: {stats:?}"
                );
                assert!(
                    stats.anf_cached_polys <= 64,
                    "{backend}: polynomial cache bounded: {stats:?}"
                );
            }
            _ => unreachable!("{backend} decided on {decided_by}: {stats:?}"),
        }
    }
}

/// Cancellation-soundness soak: 100 random edit cycles where every
/// bounded sweep gets an interruption injected a different way — a
/// pre-cancelled token, an already-expired deadline, a tiny per-solve
/// conflict budget, or the `spurious_cancel` failpoint firing mid-sweep.
/// The contract under test: a bounded sweep never returns a *wrong*
/// verdict (completed verdicts equal the fresh-pipeline oracle, the rest
/// come back [`Verdict::Unknown`]), and the same session then re-runs
/// unlimited to the exact oracle verdicts — an interrupt never poisons
/// warm state.
#[test]
fn cancellation_soak_interrupted_sweeps_never_lie() {
    use qb_testutil::failpoints::{self, Action};
    use qborrow::core::Verdict;

    const N: usize = 4;
    const CYCLES: usize = 100;

    let mut rng = Rng::new(0x50A1_0003);
    let opts = VerifyOptions::default();
    let initial = vec![InitialValue::Free; N];
    let targets: Vec<usize> = (0..N).collect();
    let base = {
        let mut c = Circuit::new(N);
        c.toffoli(0, 1, 2).cnot(2, 3);
        c
    };
    let mut session = VerifySession::new(&base, &initial, &opts).expect("session builds");

    let mut total_unknowns = 0usize;
    for cycle in 0..CYCLES {
        let mut edited = Circuit::new(N);
        edited.toffoli(0, 1, 2).cnot(2, 3);
        for _ in 0..rng.gen_below(5) {
            match rng.gen_below(3) {
                0 => {
                    edited.x(rng.gen_below(N));
                }
                1 => {
                    let (c, t) = rng.gen_distinct2(N);
                    edited.cnot(c, t);
                }
                _ => {
                    let (c1, c2, t) = rng.gen_distinct3(N);
                    edited.toffoli(c1, c2, t);
                }
            }
        }
        session.apply_edit(&edited).expect("edit applies");
        let oracle = verify_circuit_fresh(&edited, &initial, &targets, &opts)
            .expect("fresh sweep")
            .verdicts;

        let limits = match rng.gen_below(4) {
            0 => {
                // Cancelled before the sweep even starts (a client gone
                // away): every target must come back Unknown.
                let token = CancelToken::default();
                token.cancel();
                VerifyLimits {
                    token: Some(token),
                    ..VerifyLimits::default()
                }
            }
            1 => VerifyLimits {
                deadline: Some(Duration::ZERO),
                ..VerifyLimits::default()
            },
            2 => VerifyLimits {
                conflict_budget: Some(rng.gen_below(3) as u64),
                ..VerifyLimits::default()
            },
            _ => {
                // Mid-sweep cancellation: the failpoint cancels the
                // installed token when the second target is checked.
                failpoints::arm("spurious_cancel", Action::Cancel, Some(1));
                VerifyLimits {
                    deadline: Some(Duration::from_secs(600)),
                    ..VerifyLimits::default()
                }
            }
        };
        let bounded = session
            .verify_targets_limited(&targets, &limits)
            .expect("bounded sweep returns, never errors on exhaustion");
        failpoints::clear("spurious_cancel");
        assert_eq!(bounded.len(), targets.len(), "cycle {cycle}");
        for (b, o) in bounded.iter().zip(&oracle) {
            assert_eq!(b.qubit, o.qubit, "cycle {cycle}");
            if b.verdict.is_unknown() {
                total_unknowns += 1;
                assert!(!b.safe, "cycle {cycle}: Unknown is never reported safe");
                assert!(
                    matches!(&b.verdict, Verdict::Unknown { reason }
                        if ["deadline", "budget", "cancelled"].contains(&reason.as_str())),
                    "cycle {cycle}: structured reason, got {:?}",
                    b.verdict
                );
            } else {
                assert_eq!(
                    b.safe, o.safe,
                    "cycle {cycle}, qubit {}: a completed verdict under limits \
                     must equal the oracle",
                    b.qubit
                );
            }
        }

        // The interrupted session re-runs unlimited to the oracle.
        let rerun = session.verify_targets(&targets).expect("unlimited re-run");
        for (r, o) in rerun.iter().zip(&oracle) {
            assert!(!r.verdict.is_unknown(), "cycle {cycle}: unlimited decides");
            assert_eq!(
                r.safe, o.safe,
                "cycle {cycle}, qubit {}: re-run matches oracle",
                r.qubit
            );
            assert_eq!(
                r.counterexample.as_ref().map(|ce| ce.violation),
                o.counterexample.as_ref().map(|ce| ce.violation),
                "cycle {cycle}, qubit {}",
                r.qubit
            );
        }
    }

    assert!(
        total_unknowns > 0,
        "the injection modes must actually interrupt some sweeps"
    );
    let stats = session.stats();
    assert!(
        stats.interrupts > 0,
        "interrupt accounting survives the soak: {stats:?}"
    );
}

// ---- daemon-socket soak --------------------------------------------------

static SOCKET_COUNTER: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

fn start_daemon(limits: ServerLimits) -> (PathBuf, Client, std::thread::JoinHandle<()>) {
    let socket = std::env::temp_dir().join(format!(
        "qborrow-soak-{}-{}.sock",
        std::process::id(),
        SOCKET_COUNTER.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
    ));
    let opts = ServeOptions {
        log: false,
        limits,
        ..ServeOptions::new(socket.clone())
    };
    let handle = std::thread::spawn(move || run(&opts).expect("daemon runs"));
    for _ in 0..200 {
        if let Ok(client) = Client::connect(&socket) {
            return (socket, client, handle);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon did not come up on {}", socket.display());
}

/// Fresh-pipeline oracle for a source: `(qubit, safe)` per borrow qubit.
fn fresh_verdicts(source: &str) -> Vec<(usize, bool)> {
    let program = elaborate(&parse(source).expect("parses")).expect("elaborates");
    let initial = initial_values(&program);
    let report = verify_circuit_fresh(
        &program.circuit,
        &initial,
        &program.qubits_to_verify(),
        &VerifyOptions::default(),
    )
    .expect("fresh verification completes");
    report.verdicts.iter().map(|v| (v.qubit, v.safe)).collect()
}

/// 200 edit cycles against the daemon over a real Unix socket, rotating
/// through distinct variants of the 8-bit Håner adder. The per-program
/// arena must stay bounded by the GC watermark (the daemon reports
/// resident sizes per session) and every daemon verdict must equal the
/// memoised fresh-pipeline oracle.
#[test]
fn daemon_soak_arena_bounded_and_verdicts_exact_over_200_cycles() {
    const CYCLES: usize = 200;
    // The daemon runs its sessions with a 128-node GC floor: the arena
    // may reach twice the live graph before a sweep reclaims it, but it
    // must never grow monotonically past that pacing bound. (The SAT
    // sweep merges the edits' suffix structure away, so this session's
    // arena stays near 300 nodes: a higher floor would never collect.)
    const GC_FLOOR: usize = 128;
    const ARENA_BOUND: i64 = 2_500;
    const CACHE_CAP: usize = 512;

    let base = adder_source(8);
    // Appended-gate pool over the adder's registers (q[1..n], a[1..n-1]).
    let pool = [
        "X[q[1]];",
        "X[q[2]];",
        "X[a[1]];",
        "CNOT[q[1], q[2]];",
        "CNOT[a[1], q[3]];",
        "CNOT[q[2], a[2]];",
    ];
    // 12 distinct suffix variants (pairs from the pool) + the base.
    let mut variants: Vec<String> = vec![base.clone()];
    for i in 0..12 {
        let g1 = pool[i % pool.len()];
        let g2 = pool[(i * 5 + 2) % pool.len()];
        variants.push(format!("{base}{g1}\n{g2}\n"));
    }

    let (_socket, mut client, handle) = start_daemon(ServerLimits {
        arena_gc_floor: Some(GC_FLOOR),
        decision_cache_cap: Some(CACHE_CAP),
        ..ServerLimits::default()
    });
    let load = client.load("soak", &base).expect("load round-trips");
    assert_eq!(load.get("ok").and_then(Json::as_bool), Some(true), "{load}");

    let mut oracle: HashMap<usize, Vec<(usize, bool)>> = HashMap::new();
    let mut peak_arena: i64 = 0;
    for cycle in 0..CYCLES {
        let v = cycle % variants.len();
        let edit = client.edit("soak", &variants[v]).expect("edit round-trips");
        assert_eq!(
            edit.get("ok").and_then(Json::as_bool),
            Some(true),
            "cycle {cycle}: {edit}"
        );
        let verify = client.verify("soak", None).expect("verify round-trips");
        assert_eq!(
            verify.get("ok").and_then(Json::as_bool),
            Some(true),
            "cycle {cycle}: {verify}"
        );
        let expected = oracle
            .entry(v)
            .or_insert_with(|| fresh_verdicts(&variants[v]));
        let verdicts = verify.get("verdicts").and_then(Json::as_arr).unwrap();
        assert_eq!(verdicts.len(), expected.len(), "cycle {cycle}");
        for (got, (qubit, safe)) in verdicts.iter().zip(expected.iter()) {
            assert_eq!(got.get("qubit").and_then(Json::as_usize), Some(*qubit));
            assert_eq!(
                got.get("safe").and_then(Json::as_bool),
                Some(*safe),
                "cycle {cycle}, qubit {qubit}"
            );
        }

        let arena = edit
            .get("arena_nodes")
            .and_then(Json::as_i64)
            .expect("edit responses report resident arena size");
        peak_arena = peak_arena.max(arena);
        assert!(
            arena < ARENA_BOUND,
            "cycle {cycle}: arena bounded under the daemon, got {arena}"
        );
    }

    // The daemon's status must show the reclamation machinery at work
    // and a decision cache within its bound.
    let status = client.status().expect("status round-trips");
    let programs = status.get("programs").and_then(Json::as_arr).unwrap();
    assert_eq!(programs.len(), 1);
    let p = &programs[0];
    assert!(
        p.get("arena_collections").and_then(Json::as_i64) >= Some(1),
        "GC fired at least once under the daemon: {p}"
    );
    assert!(p.get("arena_nodes_collected").and_then(Json::as_i64) > Some(0));
    assert!(
        p.get("arena_gc_ns").and_then(Json::as_i64) > Some(0),
        "collection time is booked: {p}"
    );
    assert!(
        p.get("cached_decisions").and_then(Json::as_i64) <= Some(CACHE_CAP as i64),
        "decision cache within its configured bound: {p}"
    );
    assert!(
        p.get("decision_hits").and_then(Json::as_i64) > Some(0),
        "revisited variants answer from the warm cache: {p}"
    );
    assert!(status.get("resident_arena_nodes").and_then(Json::as_i64) < Some(ARENA_BOUND));

    let resp = client.shutdown().expect("shutdown round-trips");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("daemon thread exits cleanly");
}
