//! Decision backends for the verification conditions.
//!
//! The paper discharges its Boolean queries with CVC5 and Bitwuzla; this
//! reproduction offers three independent, complete in-repo procedures
//! plus a portfolio mode:
//!
//! * [`BackendKind::Sat`] — Tseitin encoding + the `qb-sat` CDCL solver
//!   (the workhorse; produces concrete counterexample models);
//! * [`BackendKind::Anf`] — canonical algebraic-normal-form
//!   normalisation: a formula is unsatisfiable iff its ANF is `0`, and a
//!   minimum-degree term of a nonzero ANF is a witness. Exact but may
//!   blow up (reported as [`BackendError::AnfOverflow`]);
//! * [`BackendKind::Bdd`] — reduced ordered BDDs (complement edges) in
//!   circuit variable order: unsatisfiable iff the diagram is the false
//!   edge. Bounded by [`BackendOptions::bdd_node_budget`] (reported as
//!   [`BackendError::BddOverflow`]);
//! * [`BackendKind::Auto`] — a cheapest-first ladder ANF → BDD → SAT
//!   (see [`AutoPreference`]): ANF under the small
//!   [`AUTO_ANF_TERM_CAP`], BDD under its node budget, SAT for the rest.
//!   An overflow moves down one rung.
//!
//! [`decide_unsat`] decides a disjunction of condition roots, so the
//! plus condition (6.2) reaches it as one cofactor XOR root per other
//! qubit. That construction now serves the SAT backend and the one-shot
//! fresh pipeline (`verify_circuit_fresh`, the cross-check) only: a
//! verification session on the ANF or BDD rung normalises each final
//! formula once and decides (6.2) by support membership instead.
//!
//! Mirroring the paper's CVC5-vs-Bitwuzla comparison, the backends have
//! different scaling behaviour on the two benchmark families (see
//! EXPERIMENTS.md and README.md, "Choosing a backend").

use qb_bdd::BddSession;
use qb_formula::{encode, Anf, Arena, NodeId, Var};
use qb_sat::{Lit, SatResult, Solver};
use std::collections::HashMap;
use std::fmt;

/// Which decision procedure to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// CDCL SAT on the Tseitin encoding.
    #[default]
    Sat,
    /// Canonical ANF normalisation.
    Anf,
    /// Reduced ordered BDDs.
    Bdd,
    /// Ladder: ANF under [`AUTO_ANF_TERM_CAP`], then BDD under its node
    /// budget, then SAT.
    Auto,
}

impl BackendKind {
    /// Every backend, in the order the CLI documents them.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Sat,
        BackendKind::Anf,
        BackendKind::Bdd,
        BackendKind::Auto,
    ];

    /// The CLI/wire name of the backend.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sat => "sat",
            BackendKind::Anf => "anf",
            BackendKind::Bdd => "bdd",
            BackendKind::Auto => "auto",
        }
    }

    /// Parses a CLI/wire backend name.
    pub fn parse(name: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Comma-separated list of valid backend names (for error messages).
    pub fn valid_names() -> String {
        BackendKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Backend failure (distinct from a condition being violated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The ANF backend exceeded its term cap.
    AnfOverflow {
        /// The cap that was exceeded.
        cap: usize,
    },
    /// The BDD backend exceeded its node budget.
    BddOverflow {
        /// The budget that was exceeded.
        budget: usize,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::AnfOverflow { cap } => {
                write!(f, "ANF backend exceeded {cap} terms; use SAT, BDD or auto")
            }
            BackendError::BddOverflow { budget } => {
                write!(
                    f,
                    "BDD backend exceeded {budget} nodes; use SAT or the auto portfolio"
                )
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Outcome of deciding one condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// `true` when the disjunction of the roots is unsatisfiable (the
    /// condition holds).
    pub unsat: bool,
    /// A satisfying assignment of the *circuit input variables* when the
    /// condition is violated (variables it leaves out are `false`).
    pub model: Option<HashMap<Var, bool>>,
    /// Backend-specific size statistic: CNF clauses, total ANF terms, or
    /// peak BDD nodes.
    pub size: usize,
}

/// Per-backend knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendOptions {
    /// Term cap for the ANF backend (the auto ladder's ANF rung uses
    /// [`AUTO_ANF_TERM_CAP`] instead).
    pub anf_cap: usize,
    /// Resident-node budget for the BDD backend; the auto ladder moves
    /// down to SAT once a query's diagrams would exceed it.
    pub bdd_node_budget: usize,
}

impl Default for BackendOptions {
    fn default() -> Self {
        BackendOptions {
            anf_cap: 1 << 22,
            bdd_node_budget: 1 << 20,
        }
    }
}

/// Per-node term cap of the auto ladder's ANF rung. ANF decides the
/// paper's MCX family in milliseconds with polynomials far below it,
/// while an adder's carry chain overflows it on the first root within a
/// few milliseconds, so a wrong first guess is cheap.
pub const AUTO_ANF_TERM_CAP: usize = 256;

/// The rung of the [`BackendKind::Auto`] ladder a circuit sits on: what
/// the ladder has learned about which backend wins its condition roots.
///
/// The ladder is ANF → BDD → SAT, cheapest first. Each root is tried on
/// the current rung; an overflow (ANF past [`AUTO_ANF_TERM_CAP`], BDD
/// past its node budget) moves the circuit down one rung for good and
/// retries the root there, so a circuit pays each losing attempt at most
/// once. The daemon persists the rung per structural hash and seeds
/// reloaded sessions with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AutoPreference {
    /// No evidence yet: start at ANF.
    #[default]
    Undecided,
    /// ANF decided a root within its term cap.
    Anf,
    /// ANF overflowed on this circuit: start at BDD.
    Bdd,
    /// BDD blew its budget on this circuit: go straight to SAT.
    Sat,
}

impl AutoPreference {
    /// Wire/status name.
    pub fn name(self) -> &'static str {
        match self {
            AutoPreference::Undecided => "undecided",
            AutoPreference::Anf => "anf",
            AutoPreference::Bdd => "bdd",
            AutoPreference::Sat => "sat",
        }
    }

    /// Inverse of [`AutoPreference::name`], for persisted daemon state.
    pub fn parse(name: &str) -> Option<AutoPreference> {
        [
            AutoPreference::Undecided,
            AutoPreference::Anf,
            AutoPreference::Bdd,
            AutoPreference::Sat,
        ]
        .into_iter()
        .find(|p| p.name() == name)
    }

    /// The backend this rung runs.
    pub fn backend(self) -> BackendKind {
        match self {
            AutoPreference::Undecided | AutoPreference::Anf => BackendKind::Anf,
            AutoPreference::Bdd => BackendKind::Bdd,
            AutoPreference::Sat => BackendKind::Sat,
        }
    }

    /// The rung an overflow on this one moves to (SAT is the floor).
    pub fn demoted(self) -> AutoPreference {
        match self {
            AutoPreference::Undecided | AutoPreference::Anf => AutoPreference::Bdd,
            AutoPreference::Bdd | AutoPreference::Sat => AutoPreference::Sat,
        }
    }
}

/// Decides whether `⋁ roots` is unsatisfiable over `arena`.
///
/// The SAT backend materialises the disjunction exactly as the paper's
/// formula (6.2) does (one query); the ANF and BDD backends decide each
/// disjunct separately (the disjunction is unsatisfiable iff every
/// disjunct is), which avoids needless structure. The auto ladder walks
/// ANF → BDD → SAT from the top for every call (a one-shot call has no
/// session to remember a demotion in).
///
/// # Errors
///
/// Returns [`BackendError`] when the chosen backend cannot complete
/// (never for `Sat` and `Auto`).
pub fn decide_unsat(
    arena: &mut Arena,
    roots: &[NodeId],
    kind: BackendKind,
    opts: &BackendOptions,
) -> Result<Decision, BackendError> {
    match kind {
        BackendKind::Sat => Ok(decide_sat(arena, roots)),
        BackendKind::Anf => decide_anf(arena, roots, opts.anf_cap),
        BackendKind::Bdd => decide_bdd(arena, roots, opts.bdd_node_budget),
        BackendKind::Auto => {
            let mut rung = AutoPreference::Undecided;
            loop {
                let attempt = match rung.backend() {
                    BackendKind::Anf => decide_anf(arena, roots, AUTO_ANF_TERM_CAP),
                    BackendKind::Bdd => decide_bdd(arena, roots, opts.bdd_node_budget),
                    _ => return Ok(decide_sat(arena, roots)),
                };
                match attempt {
                    Ok(d) => return Ok(d),
                    Err(_) => rung = rung.demoted(),
                }
            }
        }
    }
}

fn decide_sat(arena: &mut Arena, roots: &[NodeId]) -> Decision {
    let enc = encode(arena, roots);
    let mut solver = Solver::from_cnf(&enc.cnf);
    // Assert the disjunction: at least one root literal true. A fresh
    // selector clause keeps the encoding satisfiability-equivalent.
    let clause: Vec<Lit> = enc.root_lits.iter().map(|&l| Lit::from_dimacs(l)).collect();
    let size = enc.cnf.clauses().len() + 1;
    if clause.is_empty() {
        return Decision {
            unsat: true,
            model: None,
            size,
        };
    }
    let ok = solver_add_clause(&mut solver, &clause);
    if !ok {
        return Decision {
            unsat: true,
            model: None,
            size,
        };
    }
    match solver.solve() {
        // One-shot deciders build their own solver and never install a
        // cancellation token, so a solve here always completes.
        SatResult::Interrupted => unreachable!("no cancel token installed on one-shot solver"),
        SatResult::Unsat => Decision {
            unsat: true,
            model: None,
            size,
        },
        SatResult::Sat => {
            let model = solver.model();
            let mut assignment = HashMap::new();
            for (&var, &lit) in &enc.var_lits {
                let idx = (lit.unsigned_abs() - 1) as usize;
                let value = model.get(idx).copied().unwrap_or(false);
                assignment.insert(var, if lit > 0 { value } else { !value });
            }
            Decision {
                unsat: false,
                model: Some(assignment),
                size,
            }
        }
    }
}

fn solver_add_clause(solver: &mut Solver, clause: &[Lit]) -> bool {
    solver.add_clause(clause)
}

fn decide_anf(arena: &Arena, roots: &[NodeId], cap: usize) -> Result<Decision, BackendError> {
    let polys =
        Anf::from_arena(arena, roots, cap).map_err(|e| BackendError::AnfOverflow { cap: e.cap })?;
    let model = polys.iter().find_map(anf_witness);
    Ok(Decision {
        unsat: model.is_none(),
        model,
        size: polys.iter().map(Anf::len).sum(),
    })
}

/// The witness of a nonzero polynomial (see [`Anf::satisfying_vars`]);
/// `None` when it is zero, i.e. unsatisfiable.
pub(crate) fn anf_witness(poly: &Anf) -> Option<HashMap<Var, bool>> {
    poly.satisfying_vars()
        .map(|ones| ones.iter().map(|&v| (v, true)).collect())
}

/// One-shot BDD decision (a throwaway [`BddSession`]; long-lived
/// verification sessions keep a persistent one instead — see
/// `qb_core::VerifySession`).
fn decide_bdd(arena: &Arena, roots: &[NodeId], budget: usize) -> Result<Decision, BackendError> {
    let mut session = BddSession::new(budget);
    let bdds = session.build(arena, roots).map_err(|e| match e {
        qb_bdd::BddBuildError::Overflow(o) => BackendError::BddOverflow { budget: o.budget },
        // One-shot sessions never install a cancellation token.
        qb_bdd::BddBuildError::Interrupted => {
            unreachable!("no cancel token installed on one-shot BDD session")
        }
    })?;
    let size = session.resident_nodes();
    for b in &bdds {
        if let Some(path) = session.manager().any_sat(*b) {
            let model = path.into_iter().collect();
            return Ok(Decision {
                unsat: false,
                model: Some(model),
                size,
            });
        }
    }
    Ok(Decision {
        unsat: true,
        model: None,
        size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_formula::Simplify;

    /// All backends (portfolio included) agree on a small suite.
    #[test]
    fn backends_agree() {
        type CaseBuilder = Box<dyn Fn(&mut Arena) -> Vec<NodeId>>;
        let cases: Vec<(CaseBuilder, bool)> = vec![
            // x ∧ ¬x — unsat.
            (
                Box::new(|f: &mut Arena| {
                    let x = f.var(0);
                    let nx = f.not(x);
                    vec![f.and2(x, nx)]
                }),
                true,
            ),
            // x ∧ y — sat.
            (
                Box::new(|f: &mut Arena| {
                    let x = f.var(0);
                    let y = f.var(1);
                    vec![f.and2(x, y)]
                }),
                false,
            ),
            // Disjunction where only the second disjunct is satisfiable.
            (
                Box::new(|f: &mut Arena| {
                    let x = f.var(0);
                    let nx = f.not(x);
                    let contra = f.and2(x, nx);
                    let y = f.var(1);
                    vec![contra, y]
                }),
                false,
            ),
            // (x⊕y) ⊕ (x⊕y) — unsat after cancellation.
            (
                Box::new(|f: &mut Arena| {
                    let x = f.var(0);
                    let y = f.var(1);
                    let a = f.xor2(x, y);
                    let b = f.xor2(x, y);
                    vec![f.xor2(a, b)]
                }),
                true,
            ),
        ];
        for mode in [Simplify::Raw, Simplify::Full] {
            for (i, (build, expect_unsat)) in cases.iter().enumerate() {
                for kind in BackendKind::ALL {
                    let mut arena = Arena::new(mode);
                    let roots = build(&mut arena);
                    let d =
                        decide_unsat(&mut arena, &roots, kind, &BackendOptions::default()).unwrap();
                    assert_eq!(
                        d.unsat, *expect_unsat,
                        "case {i}, backend {kind}, mode {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sat_backend_produces_model() {
        let mut arena = Arena::new(Simplify::Raw);
        let x = arena.var(3);
        let y = arena.var(7);
        let ny = arena.not(y);
        let root = arena.and2(x, ny);
        let d = decide_unsat(
            &mut arena,
            &[root],
            BackendKind::Sat,
            &BackendOptions::default(),
        )
        .unwrap();
        assert!(!d.unsat);
        let model = d.model.unwrap();
        assert!(model[&3]);
        assert!(!model[&7]);
    }

    #[test]
    fn bdd_backend_produces_model() {
        let mut arena = Arena::new(Simplify::Full);
        let x = arena.var(0);
        let y = arena.var(1);
        let root = arena.and2(x, y);
        let d = decide_unsat(
            &mut arena,
            &[root],
            BackendKind::Bdd,
            &BackendOptions::default(),
        )
        .unwrap();
        assert!(!d.unsat);
        let model = d.model.unwrap();
        assert!(model[&0]);
        assert!(model[&1]);
    }

    #[test]
    fn anf_overflow_is_reported() {
        let mut arena = Arena::new(Simplify::Raw);
        // Product of disjoint (xᵢ ⊕ yᵢ): 2^10 terms.
        let factors: Vec<NodeId> = (0..10)
            .map(|i| {
                let a = arena.var(2 * i);
                let b = arena.var(2 * i + 1);
                arena.xor2(a, b)
            })
            .collect();
        let root = arena.and(&factors);
        let err = decide_unsat(
            &mut arena,
            &[root],
            BackendKind::Anf,
            &BackendOptions {
                anf_cap: 64,
                ..BackendOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, BackendError::AnfOverflow { cap: 64 });
    }

    #[test]
    fn anf_backend_produces_model() {
        // (x ∧ ¬y) ⊕ z = x ⊕ xy ⊕ z: setting one degree-1 term satisfies it.
        let mut arena = Arena::new(Simplify::Raw);
        let x = arena.var(0);
        let y = arena.var(1);
        let z = arena.var(2);
        let ny = arena.not(y);
        let xny = arena.and2(x, ny);
        let root = arena.xor2(xny, z);
        let d = decide_unsat(
            &mut arena,
            &[root],
            BackendKind::Anf,
            &BackendOptions::default(),
        )
        .unwrap();
        assert!(!d.unsat);
        let model = d.model.unwrap();
        let value = |v: Var| model.get(&v).copied().unwrap_or(false);
        assert!(arena.eval(root, &[value(0), value(1), value(2)]));
    }

    #[test]
    fn bdd_overflow_is_reported_and_auto_falls_back() {
        // 2^12 ANF terms: past the auto ladder's ANF cap too, so auto
        // walks all three rungs.
        let build = |arena: &mut Arena| -> Vec<NodeId> {
            let factors: Vec<NodeId> = (0..12)
                .map(|i| {
                    let a = arena.var(2 * i);
                    let b = arena.var(2 * i + 1);
                    arena.xor2(a, b)
                })
                .collect();
            vec![arena.and(&factors)]
        };
        let opts = BackendOptions {
            bdd_node_budget: 4,
            ..BackendOptions::default()
        };
        let mut arena = Arena::new(Simplify::Raw);
        let roots = build(&mut arena);
        let err = decide_unsat(&mut arena, &roots, BackendKind::Bdd, &opts).unwrap_err();
        assert_eq!(err, BackendError::BddOverflow { budget: 4 });

        // The ladder decides the same query via SAT instead.
        let mut arena = Arena::new(Simplify::Raw);
        let roots = build(&mut arena);
        let d = decide_unsat(&mut arena, &roots, BackendKind::Auto, &opts).unwrap();
        assert!(!d.unsat, "product of xors is satisfiable");
        assert!(d.model.is_some(), "SAT fallback produces a witness");
    }

    #[test]
    fn backend_names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("cvc5"), None);
        assert_eq!(BackendKind::valid_names(), "sat, anf, bdd, auto");
    }

    #[test]
    fn auto_ladder_runs_anf_then_bdd_then_sat() {
        let ladder: Vec<BackendKind> = [
            AutoPreference::Undecided,
            AutoPreference::Anf,
            AutoPreference::Bdd,
            AutoPreference::Sat,
        ]
        .into_iter()
        .map(|p| p.backend())
        .collect();
        use BackendKind::{Anf, Bdd, Sat};
        assert_eq!(ladder, [Anf, Anf, Bdd, Sat]);
        assert_eq!(AutoPreference::Undecided.demoted(), AutoPreference::Bdd);
        assert_eq!(AutoPreference::Anf.demoted(), AutoPreference::Bdd);
        assert_eq!(AutoPreference::Bdd.demoted(), AutoPreference::Sat);
        assert_eq!(AutoPreference::Sat.demoted(), AutoPreference::Sat);
        for name in ["undecided", "anf", "bdd", "sat"] {
            assert_eq!(AutoPreference::parse(name).map(|p| p.name()), Some(name));
        }
        assert_eq!(AutoPreference::parse("cvc5"), None);
    }

    #[test]
    fn empty_roots_are_unsat() {
        let mut arena = Arena::new(Simplify::Full);
        for kind in BackendKind::ALL {
            let d = decide_unsat(&mut arena, &[], kind, &BackendOptions::default()).unwrap();
            assert!(d.unsat, "{kind}");
        }
    }
}
