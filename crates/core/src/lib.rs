//! # qb-core
//!
//! The paper's primary contribution: **verification of safe uncomputation
//! of dirty qubits** in quantum programs (Su, Zhou, Feng, Ying,
//! *Borrowing Dirty Qubits in Quantum Programs*, ASPLOS 2026).
//!
//! A borrowed dirty qubit is *safely uncomputed* when every execution of
//! the program acts as the identity on it (Def. 5.1) — equivalently, when
//! arbitrary pure states are restored (Thm. 5.3) and external
//! entanglement is preserved (Thm. 5.4). For circuits implementing
//! classical functions this reduces to two Boolean unsatisfiability
//! queries (Thms. 6.2/6.4):
//!
//! 1. the **zero condition** `¬(b_q → q)` — restoring `|0⟩`;
//! 2. the **plus condition** `⋁_{q'≠q} b_{q'}[0/q] ⊕ b_{q'}[1/q]` —
//!    restoring `|+⟩`.
//!
//! This crate provides the full pipeline:
//!
//! * [`symbolic_execute`] — the Fig. 6.1 linear scan building per-qubit
//!   Boolean formulas over a hash-consed XOR-AND graph;
//! * [`build_conditions`] / [`build_clean_condition`] — the condition
//!   formulas;
//! * [`decide_unsat`] with three complete backends ([`BackendKind::Sat`],
//!   [`BackendKind::Anf`], [`BackendKind::Bdd`]) replacing the paper's
//!   external CVC5/Bitwuzla solvers;
//! * [`verify_circuit`] / [`verify_program`] — end-to-end verification
//!   with timings and counterexample witnesses;
//! * [`exact`] — exponential ground-truth checkers (Def. 3.1, Thm. 6.1)
//!   used to cross-validate the symbolic verdicts on small systems.
//!
//! # Examples
//!
//! Verify the paper's benchmark adder end to end:
//!
//! ```
//! use qb_core::{verify_program, VerifyOptions};
//! use qb_lang::{adder_source, elaborate, parse};
//!
//! let program = elaborate(&parse(&adder_source(8)).unwrap()).unwrap();
//! let report = verify_program(&program, &VerifyOptions::default()).unwrap();
//! assert!(report.all_safe());
//! assert_eq!(report.verdicts.len(), 7); // the dirty qubits a[1..7]
//! ```

mod backend;
mod conditions;
pub mod exact;
mod session;
mod support;
mod sweep;
mod symbolic;
mod verifier;

pub use backend::{
    decide_unsat, AutoPreference, BackendError, BackendKind, BackendOptions, Decision,
    AUTO_ANF_TERM_CAP,
};
pub use conditions::{build_clean_condition, build_conditions, Conditions};
pub use qb_sat::CancelToken;
pub use session::{
    verify_circuit_parallel, verify_program_parallel, EditStats, Fact, SessionStats, VerifyLimits,
    VerifySession,
};
pub use symbolic::{symbolic_execute, InitialValue, NotClassicalCircuit, SymbolicState};
pub use verifier::{
    check_clean_uncomputation, initial_values, verify_circuit, verify_circuit_fresh,
    verify_program, Counterexample, QubitVerdict, Verdict, VerificationReport, VerifyError,
    VerifyOptions, Violation,
};

#[cfg(test)]
mod cross_validation {
    use super::*;
    use qb_circuit::{Circuit, Gate};
    use qb_formula::Simplify;
    use qb_testutil::Rng;

    const NQ: usize = 4;
    const CASES: usize = 48;

    fn rand_gate(rng: &mut Rng) -> Gate {
        match rng.gen_below(4) {
            0 => Gate::X(rng.gen_below(NQ)),
            1 => {
                let (c, t) = rng.gen_distinct2(NQ);
                Gate::Cnot { c, t }
            }
            2 => {
                let (c1, c2, t) = rng.gen_distinct3(NQ);
                Gate::Toffoli { c1, c2, t }
            }
            _ => {
                let (a, b) = rng.gen_distinct2(NQ);
                Gate::Swap(a, b)
            }
        }
    }

    fn rand_circuit(rng: &mut Rng) -> Circuit {
        let len = rng.gen_below(16);
        let mut c = Circuit::new(NQ);
        for _ in 0..len {
            c.push(rand_gate(rng));
        }
        c
    }

    /// E8: the symbolic verdict (every backend, both simplify modes,
    /// fresh and incremental-session pipelines) equals the exact
    /// Definition-3.1 verdict for every qubit of random classical
    /// circuits.
    #[test]
    fn symbolic_matches_exact() {
        let mut rng = Rng::new(0xE8_01);
        for _ in 0..CASES {
            let c = rand_circuit(&mut rng);
            let initial = vec![InitialValue::Free; NQ];
            for q in 0..NQ {
                let expect = exact::classical_circuit_safely_uncomputes(&c, q).unwrap();
                let expect_unitary = exact::circuit_safely_uncomputes(&c, q, 1e-9);
                assert_eq!(expect, expect_unitary, "permutation vs unitary, q={q}");
                for backend in BackendKind::ALL {
                    for simplify in [Simplify::Raw, Simplify::Full] {
                        let opts = VerifyOptions {
                            backend,
                            simplify,
                            backend_options: BackendOptions::default(),
                        };
                        let report = verify_circuit(&c, &initial, &[q], &opts).unwrap();
                        assert_eq!(
                            report.verdicts[0].safe, expect,
                            "qubit {q} backend {backend} mode {simplify:?}"
                        );
                        let fresh = verify_circuit_fresh(&c, &initial, &[q], &opts).unwrap();
                        assert_eq!(
                            fresh.verdicts[0].safe, expect,
                            "fresh pipeline, qubit {q} backend {backend}"
                        );
                    }
                }
            }
        }
    }

    /// Counterexamples returned by the SAT backend are genuine: on the
    /// witness background, flipping the dirty qubit changes another
    /// qubit's output (plus violations) or |0> maps off |0> (zero
    /// violations).
    #[test]
    fn counterexamples_replay() {
        use qb_circuit::{simulate_classical, BitState};
        let mut rng = Rng::new(0xE8_02);
        for _ in 0..CASES {
            let c = rand_circuit(&mut rng);
            let initial = vec![InitialValue::Free; NQ];
            for q in 0..NQ {
                let report = verify_circuit(&c, &initial, &[q], &VerifyOptions::default()).unwrap();
                let verdict = &report.verdicts[0];
                if verdict.safe {
                    continue;
                }
                let ce = verdict.counterexample.as_ref().unwrap();
                let bits = ce.basis_assignment.as_ref().unwrap();
                match ce.violation {
                    Violation::ZeroNotRestored => {
                        let mut input = bits.clone();
                        input[q] = false;
                        let out = simulate_classical(&c, &BitState::from_bits(&input)).unwrap();
                        assert!(out.get(q), "witness must flip q off |0>");
                    }
                    Violation::PlusNotRestored => {
                        let mut in0 = bits.clone();
                        in0[q] = false;
                        let mut in1 = bits.clone();
                        in1[q] = true;
                        let out0 = simulate_classical(&c, &BitState::from_bits(&in0)).unwrap();
                        let out1 = simulate_classical(&c, &BitState::from_bits(&in1)).unwrap();
                        let differs = (0..NQ)
                            .filter(|&p| p != q)
                            .any(|p| out0.get(p) != out1.get(p));
                        assert!(differs, "witness must leak q into another qubit");
                    }
                }
            }
        }
    }

    /// The naive clean-uncomputation check is implied by dirty safety
    /// (safe ⇒ clean-safe), but not conversely.
    #[test]
    fn dirty_safety_implies_clean_safety() {
        let mut rng = Rng::new(0xE8_03);
        for _ in 0..CASES {
            let c = rand_circuit(&mut rng);
            let initial = vec![InitialValue::Free; NQ];
            for q in 0..NQ {
                let opts = VerifyOptions::default();
                let report = verify_circuit(&c, &initial, &[q], &opts).unwrap();
                if report.verdicts[0].safe {
                    assert!(check_clean_uncomputation(&c, &initial, q, &opts).unwrap());
                }
            }
        }
    }
}
