//! Scenario tests decided twice: by the production [`Solver`] and by the
//! [`dpll_solve`] reference oracle.
//!
//! [`Checked`] wraps a [`Solver`] and keeps a copy of the formula in the
//! variables it was built with. Every solve re-decides the same query
//! with the oracle and asserts that both verdicts agree. A satisfying
//! model is also checked against the assumptions and against every
//! recorded clause whose variables are all still mapped. Compaction
//! renumbers the solver's variables; the wrapper follows each returned
//! map, so the oracle checks every verdict made after compaction too.

use crate::{dpll_solve, Lit, SatResult, SatVar, Solver};
use qb_formula::Cnf;
use std::ops::{Deref, DerefMut};

/// A [`Solver`] whose every verdict is cross-checked by [`dpll_solve`].
///
/// The oracle formula holds the base clauses, each guarded clause as
/// `¬selector ∨ lits`, and the unit `¬selector` of each retired
/// selector. Deadened variables are not mirrored. The session contract
/// is that they occur in no live clause, so fixing them changes no
/// verdict.
struct Checked {
    solver: Solver,
    /// Variables of the oracle formula, dense from 0.
    oracle_vars: usize,
    clauses: Vec<Vec<Lit>>,
    /// The oracle variable of each solver variable.
    to_oracle: Vec<SatVar>,
}

impl Deref for Checked {
    type Target = Solver;

    fn deref(&self) -> &Solver {
        &self.solver
    }
}

impl DerefMut for Checked {
    fn deref_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }
}

impl Checked {
    fn new() -> Self {
        Checked {
            solver: Solver::new(),
            oracle_vars: 0,
            clauses: Vec::new(),
            to_oracle: Vec::new(),
        }
    }

    fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Checked::new();
        for _ in 0..cnf.num_vars() {
            s.new_var();
        }
        for c in cnf.clauses() {
            let lits: Vec<Lit> = c.iter().map(|&l| Lit::from_dimacs(l)).collect();
            s.add_clause(&lits);
        }
        s
    }

    fn new_var(&mut self) -> SatVar {
        let v = self.solver.new_var();
        assert_eq!(v.index(), self.to_oracle.len());
        self.to_oracle.push(SatVar::from_index(self.oracle_vars));
        self.oracle_vars += 1;
        v
    }

    fn new_selector(&mut self) -> SatVar {
        self.new_var()
    }

    fn oracle_lit(&self, l: Lit) -> Lit {
        Lit::new(self.to_oracle[l.var().index()], l.is_neg())
    }

    fn record(&mut self, lits: &[Lit]) {
        let clause = lits.iter().map(|&l| self.oracle_lit(l)).collect();
        self.clauses.push(clause);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.record(lits);
        self.solver.add_clause(lits)
    }

    fn add_guarded_clause(&mut self, selector: Lit, lits: &[Lit]) -> bool {
        let mut guarded = vec![selector.negate()];
        guarded.extend_from_slice(lits);
        self.record(&guarded);
        self.solver.add_guarded_clause(selector, lits)
    }

    fn retire_selector(&mut self, selector: Lit) {
        self.record(&[selector.negate()]);
        self.solver.retire_selector(selector);
    }

    fn compact(&mut self, pinned: &[SatVar]) -> Vec<Option<SatVar>> {
        let map = self.solver.compact(pinned);
        let mut to_oracle: Vec<Option<SatVar>> = vec![None; self.solver.num_vars()];
        for (old, m) in map.iter().enumerate() {
            if let Some(m) = m {
                assert!(
                    to_oracle[m.index()].replace(self.to_oracle[old]).is_none(),
                    "compaction merged two variables"
                );
            }
        }
        self.to_oracle = to_oracle
            .into_iter()
            .map(|o| o.expect("every surviving variable has a preimage"))
            .collect();
        map
    }

    fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        let got = self.solver.solve_with_assumptions(assumptions);
        let mut cnf = Cnf::new();
        for _ in 0..self.oracle_vars {
            cnf.fresh_var();
        }
        for c in &self.clauses {
            cnf.add_clause(&c.iter().map(|l| l.to_dimacs()).collect::<Vec<_>>());
        }
        for a in assumptions {
            cnf.add_clause(&[self.oracle_lit(*a).to_dimacs()]);
        }
        assert_eq!(got, dpll_solve(&cnf), "solver and oracle disagree");
        if got == SatResult::Sat {
            let model = self.solver.model();
            let holds = |l: Lit| model[l.var().index()] ^ l.is_neg();
            assert!(
                assumptions.iter().all(|&a| holds(a)),
                "model violates an assumption"
            );
            let mut value: Vec<Option<bool>> = vec![None; self.oracle_vars];
            for (v, o) in self.to_oracle.iter().enumerate() {
                value[o.index()] = Some(model[v]);
            }
            for c in &self.clauses {
                let vals: Option<Vec<bool>> = c
                    .iter()
                    .map(|l| value[l.var().index()].map(|b| b ^ l.is_neg()))
                    .collect();
                if let Some(vals) = vals {
                    assert!(vals.contains(&true), "model violates a clause");
                }
            }
        }
        got
    }
}

mod tests {
    use super::*;

    fn lits(dimacs: &[i32]) -> Vec<Lit> {
        dimacs.iter().map(|&l| Lit::from_dimacs(l)).collect()
    }

    fn solver_with(num_vars: usize, clauses: &[&[i32]]) -> Checked {
        let mut s = Checked::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(&lits(c));
        }
        s
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = solver_with(1, &[&[1]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model()[0]);

        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        // 1, 1→2, 2→3, 3→¬1 is unsat.
        let mut s = solver_with(3, &[&[1], &[-1, 2], &[-2, 3], &[-3, -1]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn requires_search() {
        // XOR-like constraints: x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 ⊕ x3 = 1: unsat.
        let mut s = solver_with(
            3,
            &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1, 3], &[-1, -3]],
        );
        assert_eq!(s.solve(), SatResult::Unsat);
        // Drop one parity constraint: sat.
        let mut s = solver_with(3, &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3]]);
        assert_eq!(s.solve(), SatResult::Sat);
        let m = s.model();
        assert_ne!(m[0], m[1]);
        assert_ne!(m[1], m[2]);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // Pigeons p∈{0,1,2}, holes h∈{0,1}; var(p,h) = 2p+h+1.
        let v = |p: i32, h: i32| 2 * p + h + 1;
        let mut cls: Vec<Vec<i32>> = Vec::new();
        for p in 0..3 {
            cls.push(vec![v(p, 0), v(p, 1)]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    cls.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i32]> = cls.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(6, &refs);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautology_clauses_ignored() {
        let mut s = solver_with(2, &[&[1, -1], &[2]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model()[1]);
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = solver_with(2, &[&[1, 2]]);
        assert_eq!(s.solve_with_assumptions(&lits(&[-1, -2])), SatResult::Unsat);
        // The solver is reusable: without assumptions it is sat again.
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.solve_with_assumptions(&lits(&[-1])), SatResult::Sat);
        assert!(s.model()[1]);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: Vec<Vec<i32>> = vec![
            vec![1, 2, -3],
            vec![-1, 3],
            vec![2, 3],
            vec![-2, -3, 4],
            vec![-4, 1],
        ];
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(4, &refs);
        assert_eq!(s.solve(), SatResult::Sat);
        let m = s.model().to_vec();
        for c in &clauses {
            assert!(c.iter().any(|&l| {
                let val = m[(l.unsigned_abs() - 1) as usize];
                if l > 0 {
                    val
                } else {
                    !val
                }
            }));
        }
    }

    #[test]
    fn compaction_shrinks_slots_and_preserves_verdicts() {
        // A base formula plus a stream of guarded "queries": after
        // retiring the selectors, compaction must shrink both the
        // variable and clause arenas while every verdict on the base
        // formula is unchanged.
        let mut s = Checked::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&lits(&[1, 2]));
        s.add_clause(&[Lit::neg(a), Lit::pos(c)]);

        for round in 0..20 {
            let sel = Lit::pos(s.new_selector());
            let x = s.new_var();
            let y = s.new_var();
            // Guarded structure: x ↔ ¬y plus a round-dependent unit.
            s.add_guarded_clause(sel, &[Lit::pos(x), Lit::pos(y)]);
            s.add_guarded_clause(sel, &[Lit::neg(x), Lit::neg(y)]);
            let polarity = round % 2 == 0;
            s.add_guarded_clause(sel, &[Lit::new(x, polarity)]);
            assert_eq!(s.solve_with_assumptions(&[sel]), SatResult::Sat);
            s.retire_selector(sel);
            s.simplify_satisfied();
            s.deaden_vars(&[x, y]);
        }

        let vars_before = s.num_vars();
        let slots_before = s.clause_slots();
        assert!(s.retired_since_compaction() >= 20);

        let map = s.compact(&[a, b, c]);
        assert_eq!(s.retired_since_compaction(), 0);
        assert!(
            s.num_vars() < vars_before,
            "variables shrink: {} -> {}",
            vars_before,
            s.num_vars()
        );
        assert!(
            s.clause_slots() < slots_before,
            "clause slots shrink: {} -> {}",
            slots_before,
            s.clause_slots()
        );
        assert_eq!(s.clause_slots(), s.live_clauses());

        // Pinned variables survive and the base formula still decides
        // identically through the remapped handles.
        let a2 = Lit::pos(map[a.index()].unwrap());
        let b2 = Lit::pos(map[b.index()].unwrap());
        let c2 = Lit::pos(map[c.index()].unwrap());
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(
            s.solve_with_assumptions(&[a2.negate(), b2.negate()]),
            SatResult::Unsat
        );
        assert_eq!(
            s.solve_with_assumptions(&[a2, c2.negate()]),
            SatResult::Unsat
        );
        assert_eq!(s.solve_with_assumptions(&[a2]), SatResult::Sat);
        assert!(s.model()[c2.var().index()], "a → c still propagates");
    }

    #[test]
    fn compaction_keeps_level_zero_facts() {
        let mut s = Checked::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a)]); // unit fact
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
        // `b` was forced at level zero; after compaction the fact must
        // persist even though its reason clause is satisfied-swept.
        let map = s.compact(&[a, b]);
        let a2 = map[a.index()].unwrap();
        let b2 = map[b.index()].unwrap();
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(b2)]), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(a2)]), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model()[a2.index()]);
        assert!(s.model()[b2.index()]);
    }

    /// Compacts `clauses` over `num_vars` DIMACS variables, pinning
    /// `pinned`. Compaction renumbers but never merges: every pinned
    /// variable survives as its own variable, unpinned level-zero units
    /// are dropped, and the oracle checks every verdict under each
    /// assumption set over the remapped handles.
    fn assert_compaction_keeps_pinned(num_vars: usize, clauses: &[&[i32]], pinned: &[i32]) {
        let mut s = solver_with(num_vars, clauses);
        let vars: Vec<SatVar> = pinned
            .iter()
            .map(|&d| SatVar::from_index(d as usize - 1))
            .collect();
        let map = s.compact(&vars);
        let kept: Vec<SatVar> = vars.iter().map(|v| map[v.index()].unwrap()).collect();
        assert_eq!(
            s.num_vars(),
            kept.len(),
            "unpinned level-zero unit is dropped"
        );
        for code in 0..3usize.pow(kept.len() as u32) {
            let mut assumptions = Vec::new();
            let mut rest = code;
            for &v in &kept {
                if rest % 3 != 0 {
                    assumptions.push(Lit::new(v, rest % 3 == 2));
                }
                rest /= 3;
            }
            s.solve_with_assumptions(&assumptions);
        }
    }

    #[test]
    fn compaction_substitutes_unit_strengthened_equivalences() {
        // A level-zero unit strengthens two ternary clauses into the
        // binary pair (¬x∨y), (x∨¬y), i.e. x ≡ y. Compaction keeps x
        // and y apart rather than substituting one for the other.
        let (a, x, y, z) = (1, 2, 3, 4);
        assert_compaction_keeps_pinned(
            4,
            &[&[a], &[-a, -x, y], &[-a, x, -y], &[-y, z]],
            &[x, y, z],
        );
    }

    #[test]
    fn compaction_substitutes_negated_equivalence_with_polarity() {
        // (x∨y) ∧ (¬x∨¬y) force x ≡ ¬y; both survive compaction and
        // every assumption over them keeps its polarity.
        assert_compaction_keeps_pinned(2, &[&[1, 2], &[-1, -2]], &[1, 2]);
    }

    #[test]
    fn compaction_never_dissolves_live_guard_selectors() {
        // A live guard survives compaction under its new number, so
        // retirement still detaches the right clauses.
        let mut s = Checked::new();
        let x = s.new_var();
        let sel = Lit::pos(s.new_selector());
        s.add_guarded_clause(sel, &[Lit::pos(x)]);
        let map = s.compact(&[x, sel.var()]);
        // The guarded clause still activates and retires correctly.
        let new_sel = Lit::pos(map[sel.var().index()].unwrap());
        let mx = Lit::pos(map[x.index()].unwrap());
        assert_eq!(
            s.solve_with_assumptions(&[new_sel, mx.negate()]),
            SatResult::Unsat
        );
        s.retire_selector(new_sel);
        assert_eq!(s.solve_with_assumptions(&[mx.negate()]), SatResult::Sat);
    }

    #[test]
    fn from_cnf_round_trip() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        cnf.add_clause(&[a, b]);
        cnf.add_clause(&[-a, b]);
        cnf.add_clause(&[-b]);
        let mut s = Checked::from_cnf(&cnf);
        assert_eq!(s.solve(), SatResult::Unsat);
    }
}
