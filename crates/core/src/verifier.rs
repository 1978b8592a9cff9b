//! The safe-uncomputation verifier (paper §6): symbolic execution,
//! condition construction, and backend dispatch with per-stage timing.

use crate::backend::{decide_unsat, BackendError, BackendKind, BackendOptions, Decision};
use crate::conditions::{build_clean_condition, build_conditions};
use crate::symbolic::{symbolic_execute, InitialValue, NotClassicalCircuit, SymbolicState};
use qb_circuit::Circuit;
use qb_formula::Simplify;
use qb_lang::{ElaboratedProgram, QubitKind};
use std::fmt;
use std::time::{Duration, Instant};

/// Verifier configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyOptions {
    /// Decision backend.
    pub backend: BackendKind,
    /// Frontend simplification mode (the DESIGN.md ablation: `Raw` pushes
    /// the cancellation work into the solver, as in the paper's measured
    /// regime; `Full` collapses uncompute structure during construction).
    pub simplify: Simplify,
    /// Backend-specific knobs.
    pub backend_options: BackendOptions,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            backend: BackendKind::Sat,
            simplify: Simplify::Raw,
            backend_options: BackendOptions::default(),
        }
    }
}

/// Why a qubit failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Formula (6.1) was satisfiable: `|0⟩` is not restored.
    ZeroNotRestored,
    /// Formula (6.2) was satisfiable: `|+⟩` is not restored (some other
    /// qubit's final value depends on the dirty qubit).
    PlusNotRestored,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ZeroNotRestored => write!(f, "|0> is not restored (condition 6.1)"),
            Violation::PlusNotRestored => write!(f, "|+> is not restored (condition 6.2)"),
        }
    }
}

/// A concrete witness that a dirty qubit is unsafe.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Which condition failed.
    pub violation: Violation,
    /// An initial computational-basis assignment (indexed by qubit)
    /// exhibiting the failure, when the backend produced a model. For a
    /// [`Violation::PlusNotRestored`] witness the assignment is one on
    /// which some other qubit's output differs between the dirty qubit
    /// starting in `|0⟩` versus `|1⟩` — i.e. starting the dirty qubit in
    /// `|+⟩` on this background entangles or dephases it.
    pub basis_assignment: Option<Vec<bool>>,
}

/// Three-valued outcome of one dirty-qubit verification.
///
/// Bounded runs ([`crate::VerifyLimits`]) cannot always finish: an
/// interrupted target is reported as [`Verdict::Unknown`] — explicitly
/// *no* verdict, never a partial one. The paper's own evaluation hits
/// the same wall (its external solvers time out at the largest sizes),
/// so "unknown under a budget" is a first-class outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Both conditions are unsatisfiable: safely uncomputed.
    Safe,
    /// A condition is satisfiable: a counterexample exists.
    Unsafe,
    /// The run was interrupted before reaching a verdict.
    Unknown {
        /// What interrupted it: `"deadline"`, `"budget"` or
        /// `"cancelled"`.
        reason: String,
    },
}

impl Verdict {
    /// Wire/status name.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Safe => "safe",
            Verdict::Unsafe => "unsafe",
            Verdict::Unknown { .. } => "unknown",
        }
    }

    /// `true` for [`Verdict::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown { .. })
    }
}

/// Verdict for one dirty qubit.
#[derive(Debug, Clone, PartialEq)]
pub struct QubitVerdict {
    /// The verified qubit.
    pub qubit: usize,
    /// `true` when both conditions are unsatisfiable. Stays `false` for
    /// [`Verdict::Unknown`]; check [`QubitVerdict::verdict`] to tell an
    /// unknown from a refuted target.
    pub safe: bool,
    /// The three-valued outcome ([`Verdict::Unknown`] only ever appears
    /// under [`crate::VerifyLimits`]).
    pub verdict: Verdict,
    /// Witness when unsafe.
    pub counterexample: Option<Counterexample>,
    /// Time spent deciding condition (6.1).
    pub zero_time: Duration,
    /// Time spent deciding condition (6.2).
    pub plus_time: Duration,
    /// Backend size statistic (clauses / terms / nodes), summed over both
    /// conditions.
    pub backend_size: usize,
}

/// Result of verifying a set of dirty qubits in one circuit.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Per-qubit verdicts, in request order.
    pub verdicts: Vec<QubitVerdict>,
    /// Time spent building the symbolic formulas (the paper's "linear
    /// scan", excluded from its reported solver times).
    pub construction_time: Duration,
    /// Total time spent in backend decisions.
    pub solver_time: Duration,
    /// Shared node count of the final formulas.
    pub formula_nodes: usize,
    /// The options used.
    pub options: VerifyOptions,
    /// The final statistics of each session that ran the sweep: one
    /// from [`verify_circuit`], one per worker from
    /// [`crate::verify_circuit_parallel`], none from
    /// [`verify_circuit_fresh`].
    pub sessions: Vec<crate::SessionStats>,
}

impl VerificationReport {
    /// `true` when every verified qubit is safe.
    pub fn all_safe(&self) -> bool {
        self.verdicts.iter().all(|v| v.safe)
    }
}

/// Verification errors.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The circuit contains non-classical gates.
    NotClassical(NotClassicalCircuit),
    /// The backend could not complete.
    Backend(BackendError),
    /// A requested qubit index is out of range.
    QubitOutOfRange {
        /// The offending index.
        qubit: usize,
        /// The circuit width.
        num_qubits: usize,
    },
    /// An edited circuit cannot be applied incrementally to an existing
    /// session (the qubit layout changed, so every formula and the whole
    /// encoding would be invalidated — load a fresh session instead).
    IncompatibleEdit {
        /// Width of the session's circuit.
        old_qubits: usize,
        /// Width of the edited circuit.
        new_qubits: usize,
    },
    /// A backend was interrupted by a cancellation token (deadline,
    /// budget or explicit cancel) before reaching a verdict. Session
    /// sweeps convert this into [`Verdict::Unknown`] per target; it only
    /// escapes as an error from APIs without a per-target report.
    Interrupted,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NotClassical(e) => write!(f, "{e}"),
            VerifyError::Backend(e) => write!(f, "{e}"),
            VerifyError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit {qubit} out of range for {num_qubits}-qubit circuit"
                )
            }
            VerifyError::IncompatibleEdit {
                old_qubits,
                new_qubits,
            } => {
                write!(
                    f,
                    "edit changes the qubit layout ({old_qubits} -> {new_qubits} qubits); \
                     reload the program instead of editing the session"
                )
            }
            VerifyError::Interrupted => {
                write!(f, "verification interrupted before reaching a verdict")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<NotClassicalCircuit> for VerifyError {
    fn from(e: NotClassicalCircuit) -> Self {
        VerifyError::NotClassical(e)
    }
}

impl From<BackendError> for VerifyError {
    fn from(e: BackendError) -> Self {
        VerifyError::Backend(e)
    }
}

impl From<qb_bdd::BddBuildError> for VerifyError {
    fn from(e: qb_bdd::BddBuildError) -> Self {
        match e {
            qb_bdd::BddBuildError::Overflow(o) => {
                VerifyError::Backend(BackendError::BddOverflow { budget: o.budget })
            }
            qb_bdd::BddBuildError::Interrupted => VerifyError::Interrupted,
        }
    }
}

impl From<qb_formula::AnfOverflow> for VerifyError {
    fn from(e: qb_formula::AnfOverflow) -> Self {
        VerifyError::Backend(BackendError::AnfOverflow { cap: e.cap })
    }
}

pub(crate) fn model_to_assignment(
    decision: &Decision,
    num_qubits: usize,
    initial: &[InitialValue],
) -> Option<Vec<bool>> {
    decision.model.as_ref().map(|m| {
        (0..num_qubits)
            .map(|q| match initial[q] {
                InitialValue::Zero => false,
                InitialValue::Free => m.get(&(q as u32)).copied().unwrap_or(false),
            })
            .collect()
    })
}

/// Verifies the safe uncomputation of each qubit in `targets` within a
/// classical circuit whose qubits start as described by `initial`.
///
/// Runs an incremental [`crate::VerifySession`]: the symbolic execution
/// runs once, cofactor nodes are hash-consed into the shared arena, and
/// (for the SAT backend) one persistent solver answers every query under
/// activation-literal assumptions with learnt-clause reuse. For the
/// one-shot-per-query ablation see [`verify_circuit_fresh`]; for
/// multi-core sweeps see [`crate::verify_circuit_parallel`].
///
/// # Errors
///
/// See [`VerifyError`].
///
/// # Examples
///
/// ```
/// use qb_circuit::Circuit;
/// use qb_core::{verify_circuit, InitialValue, VerifyOptions};
///
/// // Fig. 1.3: CCCNOT from four Toffolis and a dirty qubit at index 2.
/// let mut c = Circuit::new(5);
/// c.toffoli(0, 1, 2).toffoli(2, 3, 4).toffoli(0, 1, 2).toffoli(2, 3, 4);
/// let report = verify_circuit(
///     &c,
///     &[InitialValue::Free; 5],
///     &[2],
///     &VerifyOptions::default(),
/// ).unwrap();
/// assert!(report.all_safe());
/// ```
pub fn verify_circuit(
    circuit: &Circuit,
    initial: &[InitialValue],
    targets: &[usize],
    opts: &VerifyOptions,
) -> Result<VerificationReport, VerifyError> {
    for &q in targets {
        if q >= circuit.num_qubits() {
            return Err(VerifyError::QubitOutOfRange {
                qubit: q,
                num_qubits: circuit.num_qubits(),
            });
        }
    }
    let mut session = crate::session::VerifySession::new(circuit, initial, opts)?;
    session.verify_report(targets)
}

/// The pre-session verification pipeline: each target qubit gets a fresh
/// clone of the formula arena, a from-scratch Tseitin encoding, and a
/// brand-new solver per condition. Verdicts are identical to
/// [`verify_circuit`]; this entry point is kept as an independent
/// cross-check of the incremental session in tests.
///
/// # Errors
///
/// See [`VerifyError`].
pub fn verify_circuit_fresh(
    circuit: &Circuit,
    initial: &[InitialValue],
    targets: &[usize],
    opts: &VerifyOptions,
) -> Result<VerificationReport, VerifyError> {
    for &q in targets {
        if q >= circuit.num_qubits() {
            return Err(VerifyError::QubitOutOfRange {
                qubit: q,
                num_qubits: circuit.num_qubits(),
            });
        }
    }
    let t0 = Instant::now();
    let state = symbolic_execute(circuit, initial, opts.simplify)?;
    let construction_time = t0.elapsed();
    let formula_nodes = state.formula_size();

    let mut verdicts = Vec::with_capacity(targets.len());
    let mut solver_time = Duration::ZERO;
    for &q in targets {
        let verdict = verify_target(&state, initial, q, opts)?;
        solver_time += verdict.zero_time + verdict.plus_time;
        verdicts.push(verdict);
    }
    Ok(VerificationReport {
        verdicts,
        construction_time,
        solver_time,
        formula_nodes,
        options: *opts,
        sessions: Vec::new(),
    })
}

fn verify_target(
    shared: &SymbolicState,
    initial: &[InitialValue],
    q: usize,
    opts: &VerifyOptions,
) -> Result<QubitVerdict, VerifyError> {
    // Clone so cofactor nodes from this qubit don't accumulate globally.
    let mut state = shared.clone();
    let n = state.num_qubits();
    let conditions = build_conditions(&mut state, q);

    let t_zero = Instant::now();
    let zero = decide_unsat(
        &mut state.arena,
        &[conditions.zero],
        opts.backend,
        &opts.backend_options,
    )?;
    let zero_time = t_zero.elapsed();

    let t_plus = Instant::now();
    let plus = decide_unsat(
        &mut state.arena,
        &conditions.plus_parts,
        opts.backend,
        &opts.backend_options,
    )?;
    let plus_time = t_plus.elapsed();

    let counterexample = if !zero.unsat {
        Some(Counterexample {
            violation: Violation::ZeroNotRestored,
            basis_assignment: model_to_assignment(&zero, n, initial).map(|mut a| {
                // The (6.1) model has the dirty qubit at 0 by construction.
                a[q] = false;
                a
            }),
        })
    } else if !plus.unsat {
        Some(Counterexample {
            violation: Violation::PlusNotRestored,
            basis_assignment: model_to_assignment(&plus, n, initial),
        })
    } else {
        None
    };

    Ok(QubitVerdict {
        qubit: q,
        safe: counterexample.is_none(),
        verdict: if counterexample.is_none() {
            Verdict::Safe
        } else {
            Verdict::Unsafe
        },
        counterexample,
        zero_time,
        plus_time,
        backend_size: zero.size + plus.size,
    })
}

/// Checks the *naive clean-uncomputation* property of `q`: every
/// computational-basis value is restored (`b_q ≡ q`). This is the
/// condition the paper's introduction shows is insufficient for dirty
/// qubits (Fig. 1.4).
///
/// # Errors
///
/// See [`VerifyError`].
pub fn check_clean_uncomputation(
    circuit: &Circuit,
    initial: &[InitialValue],
    q: usize,
    opts: &VerifyOptions,
) -> Result<bool, VerifyError> {
    if q >= circuit.num_qubits() {
        return Err(VerifyError::QubitOutOfRange {
            qubit: q,
            num_qubits: circuit.num_qubits(),
        });
    }
    let mut state = symbolic_execute(circuit, initial, opts.simplify)?;
    let root = build_clean_condition(&mut state, q);
    let d = decide_unsat(
        &mut state.arena,
        &[root],
        opts.backend,
        &opts.backend_options,
    )?;
    Ok(d.unsat)
}

/// Verifies an elaborated QBorrow program: every `borrow` qubit must be
/// safely uncomputed; `borrow@` qubits are skipped (as in the paper's
/// `adder.qbr`), and `alloc` qubits contribute known-zero initial values.
///
/// # Errors
///
/// See [`VerifyError`].
pub fn verify_program(
    program: &ElaboratedProgram,
    opts: &VerifyOptions,
) -> Result<VerificationReport, VerifyError> {
    let targets = program.qubits_to_verify();
    verify_circuit(&program.circuit, &initial_values(program), &targets, opts)
}

/// Each qubit's initial value in `program`: `alloc` qubits start at
/// `|0⟩`, `borrow` and `borrow@` qubits are free.
pub fn initial_values(program: &ElaboratedProgram) -> Vec<InitialValue> {
    program
        .qubit_kinds
        .iter()
        .map(|kind| match kind {
            QubitKind::Clean => InitialValue::Zero,
            QubitKind::BorrowedDirty | QubitKind::TrustedDirty => InitialValue::Free,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_lang::{adder_source, elaborate, mcx_source, parse};

    fn all_backends() -> Vec<VerifyOptions> {
        let mut out = Vec::new();
        for backend in BackendKind::ALL {
            for simplify in [Simplify::Raw, Simplify::Full] {
                out.push(VerifyOptions {
                    backend,
                    simplify,
                    backend_options: BackendOptions::default(),
                });
            }
        }
        out
    }

    #[test]
    fn cccnot_is_safe_under_every_backend() {
        let mut c = Circuit::new(5);
        c.toffoli(0, 1, 2)
            .toffoli(2, 3, 4)
            .toffoli(0, 1, 2)
            .toffoli(2, 3, 4);
        for opts in all_backends() {
            let report = verify_circuit(&c, &[InitialValue::Free; 5], &[2], &opts).unwrap();
            assert!(report.all_safe(), "{opts:?}");
        }
    }

    #[test]
    fn fig_1_4_counterexample_detected_with_witness() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        for opts in all_backends() {
            let clean = check_clean_uncomputation(&c, &[InitialValue::Free; 2], 0, &opts).unwrap();
            assert!(clean, "clean uncomputation holds, {opts:?}");
            let report = verify_circuit(&c, &[InitialValue::Free; 2], &[0], &opts).unwrap();
            assert!(!report.all_safe(), "{opts:?}");
            let v = &report.verdicts[0];
            let ce = v.counterexample.as_ref().unwrap();
            assert_eq!(ce.violation, Violation::PlusNotRestored);
        }
    }

    #[test]
    fn sat_counterexample_is_genuine() {
        // Toffoli leaking into q2: unsafe for q0.
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        let opts = VerifyOptions::default();
        let report = verify_circuit(&c, &[InitialValue::Free; 3], &[0], &opts).unwrap();
        let ce = report.verdicts[0].counterexample.as_ref().unwrap();
        assert_eq!(ce.violation, Violation::PlusNotRestored);
        let background = ce.basis_assignment.as_ref().unwrap();
        // On this background, flipping q0 must change some other qubit's
        // output: with q1 = 1 the Toffoli copies q0's value into q2.
        assert!(background[1], "witness must set the second control");
    }

    #[test]
    fn adder_program_verifies_safe() {
        let program = elaborate(&parse(&adder_source(8)).unwrap()).unwrap();
        for opts in all_backends() {
            // Raw-mode ANF on the adder can blow up by design; skip it
            // here (covered by EXPERIMENTS.md) with a small cap guard.
            if opts.backend == BackendKind::Anf && opts.simplify == Simplify::Raw {
                continue;
            }
            let report = verify_program(&program, &opts).unwrap();
            assert_eq!(report.verdicts.len(), 7);
            assert!(report.all_safe(), "{opts:?}");
        }
    }

    #[test]
    fn mcx_program_verifies_safe() {
        let program = elaborate(&parse(&mcx_source(6)).unwrap()).unwrap();
        for opts in all_backends() {
            let report = verify_program(&program, &opts).unwrap();
            assert_eq!(report.verdicts.len(), 1, "only anc is verified");
            assert!(report.all_safe(), "{opts:?}");
        }
    }

    #[test]
    fn broken_adder_is_caught() {
        // Drop the final gate of the adder's uncompute: some a-qubit leaks.
        let program = elaborate(&parse(&adder_source(5)).unwrap()).unwrap();
        let mut broken = Circuit::new(program.num_qubits());
        for g in &program.circuit.gates()[..program.circuit.size() - 1] {
            broken.push(g.clone());
        }
        let initial = vec![InitialValue::Free; program.num_qubits()];
        let targets = program.qubits_to_verify();
        let opts = VerifyOptions::default();
        let report = verify_circuit(&broken, &initial, &targets, &opts).unwrap();
        assert!(!report.all_safe());
    }

    #[test]
    fn out_of_range_target_is_rejected() {
        let c = Circuit::new(2);
        let err = verify_circuit(
            &c,
            &[InitialValue::Free; 2],
            &[5],
            &VerifyOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::QubitOutOfRange { qubit: 5, .. }));
    }

    #[test]
    fn non_classical_circuit_is_rejected() {
        let mut c = Circuit::new(1);
        c.h(0);
        let err =
            verify_circuit(&c, &[InitialValue::Free], &[0], &VerifyOptions::default()).unwrap_err();
        assert!(matches!(err, VerifyError::NotClassical(_)));
    }
}
