//! # qb-sat
//!
//! A self-contained CDCL SAT solver, standing in for the external
//! CVC5/Bitwuzla solvers of the paper's evaluation (§6.2).
//!
//! The paper reduces safe uncomputation of dirty qubits in classical
//! circuits to the *unsatisfiability* of two Boolean formulas. Those
//! queries land here: the verifier Tseitin-encodes its XOR-AND graphs
//! (`qb_formula::encode`), feeds the clauses to [`Solver`], and interprets
//! [`SatResult::Unsat`] as "condition verified". A satisfying model, when
//! one exists, is a concrete counterexample: a computational-basis initial
//! state on which the circuit fails to restore the dirty qubit.
//!
//! A deliberately naive [`dpll_solve`] oracle is included for differential
//! testing of the CDCL implementation.
//!
//! # Examples
//!
//! ```
//! use qb_formula::{encode, Arena, Simplify};
//! use qb_sat::{Lit, SatResult, Solver};
//!
//! // ¬(x → x) is unsatisfiable.
//! let mut f = Arena::new(Simplify::Raw);
//! let x = f.var(0);
//! let imp = f.implies(x, x);
//! let root = f.not(imp);
//! let enc = encode(&f, &[root]);
//! let mut solver = Solver::from_cnf(&enc.cnf);
//! let root_lit = Lit::from_dimacs(enc.root_lits[0]);
//! assert_eq!(solver.solve_with_assumptions(&[root_lit]), SatResult::Unsat);
//! ```

mod cancel;
mod dpll;
mod heap;
mod lit;
#[cfg(test)]
mod reference;
mod solver;

pub use cancel::CancelToken;
pub use dpll::dpll_solve;
pub use lit::{LBool, Lit, SatVar};
pub use solver::{SatResult, Solver, SolverStats};

#[cfg(test)]
mod cancellation {
    use super::*;

    /// A pigeonhole-flavoured hard-ish instance: n+1 pigeons, n holes.
    fn pigeonhole(n: usize) -> Vec<Vec<i32>> {
        let var = |p: usize, h: usize| (p * n + h + 1) as i32;
        let mut clauses = Vec::new();
        for p in 0..=n {
            clauses.push((0..n).map(|h| var(p, h)).collect());
        }
        for h in 0..n {
            for p1 in 0..=n {
                for p2 in p1 + 1..=n {
                    clauses.push(vec![-var(p1, h), -var(p2, h)]);
                }
            }
        }
        clauses
    }

    fn load(clauses: &[Vec<i32>]) -> Solver {
        let mut s = Solver::new();
        let nv = clauses
            .iter()
            .flatten()
            .map(|l| l.unsigned_abs() as usize)
            .max()
            .unwrap_or(0);
        for _ in 0..nv {
            s.new_var();
        }
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&l| Lit::from_dimacs(l)).collect();
            s.add_clause(&lits);
        }
        s
    }

    /// A pre-cancelled token interrupts the solver before any work,
    /// and resetting it restores the correct verdict.
    #[test]
    fn pre_cancelled_token_interrupts_then_recovers() {
        let clauses = pigeonhole(6);
        let mut s = load(&clauses);
        let token = CancelToken::new();
        s.set_cancel_token(Some(token.clone()));
        token.cancel();
        assert_eq!(s.solve_with_assumptions(&[]), SatResult::Interrupted);
        token.reset();
        assert_eq!(s.solve_with_assumptions(&[]), SatResult::Unsat);
    }

    /// A tiny conflict budget interrupts a hard instance; lifting the
    /// budget lets the *same* solver finish with the sound verdict.
    #[test]
    fn conflict_budget_interrupts_then_full_rerun_is_sound() {
        let clauses = pigeonhole(7);
        let mut s = load(&clauses);
        let token = CancelToken::new();
        token.set_conflict_budget(5);
        s.set_cancel_token(Some(token.clone()));
        assert_eq!(s.solve_with_assumptions(&[]), SatResult::Interrupted);
        // Budgets are per solve call: the retry gets a fresh 5.
        assert_eq!(s.solve_with_assumptions(&[]), SatResult::Interrupted);
        token.reset();
        assert_eq!(s.solve_with_assumptions(&[]), SatResult::Unsat);
    }

    /// An expired deadline interrupts mid-solve.
    #[test]
    fn expired_deadline_interrupts() {
        let clauses = pigeonhole(7);
        let mut s = load(&clauses);
        let token = CancelToken::new();
        token.set_deadline_in(std::time::Duration::ZERO);
        s.set_cancel_token(Some(token.clone()));
        assert_eq!(s.solve(), SatResult::Interrupted);
        token.reset();
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    /// `solve_limited` stops at its own conflict cap, reports the stop
    /// as a cap rather than a token trip, and leaves the solver sound:
    /// an unlimited re-solve of the same query agrees with the DPLL
    /// oracle.
    #[test]
    fn solve_limited_stops_at_the_cap_then_unlimited_rerun_matches_dpll() {
        for (n, cap) in [(6, 1), (7, 10), (7, 100)] {
            let clauses = pigeonhole(n);
            let mut s = load(&clauses);
            let before = s.stats().conflicts;
            assert_eq!(s.solve_limited(&[], cap), SatResult::Interrupted);
            assert_eq!(
                s.stats().conflicts - before,
                cap,
                "stops exactly at the cap"
            );
            assert!(s.hit_conflict_cap());
            let mut cnf = qb_formula::Cnf::new();
            for _ in 0..n * (n + 1) {
                cnf.fresh_var();
            }
            for c in &clauses {
                cnf.add_clause(c);
            }
            let oracle = dpll_solve(&cnf);
            assert_eq!(s.solve_limited(&[], u64::MAX), oracle);
            assert!(!s.hit_conflict_cap());
            assert_eq!(s.solve(), oracle);
        }
        // A satisfiable query under assumptions finishes below a generous
        // cap with a model the oracle confirms.
        let clauses = vec![vec![1, 2, 3], vec![-1, -2], vec![-2, -3], vec![-1, -3]];
        let mut s = load(&clauses);
        let assume = [Lit::from_dimacs(-1)];
        assert_eq!(s.solve_limited(&assume, 1_000), SatResult::Sat);
        assert!(!s.model()[0] && (s.model()[1] || s.model()[2]));
    }

    /// The cancellation token stops a capped call before its cap, and
    /// the stop is not mistaken for the cap.
    #[test]
    fn solve_limited_honours_the_token_first() {
        let clauses = pigeonhole(7);
        let mut s = load(&clauses);
        let token = CancelToken::new();
        token.set_conflict_budget(3);
        s.set_cancel_token(Some(token.clone()));
        assert_eq!(s.solve_limited(&[], 1_000), SatResult::Interrupted);
        assert!(!s.hit_conflict_cap(), "the token stopped it, not the cap");
        token.cancel();
        assert_eq!(s.solve_limited(&[], 1_000), SatResult::Interrupted);
        assert!(!s.hit_conflict_cap());
        token.reset();
        assert_eq!(s.solve_limited(&[], u64::MAX), SatResult::Unsat);
    }

    /// An uninstalled or never-tripped token changes nothing: verdicts
    /// and models match a token-free solver.
    #[test]
    fn untripped_token_is_transparent() {
        let clauses = vec![vec![1, 2], vec![-1, 3], vec![-2, -3]];
        let mut plain = load(&clauses);
        let mut tokened = load(&clauses);
        tokened.set_cancel_token(Some(CancelToken::new()));
        assert_eq!(plain.solve(), tokened.solve());
        assert_eq!(plain.model(), tokened.model());
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use qb_formula::Cnf;
    use qb_testutil::Rng;

    const CASES: usize = 192;

    /// Random k-SAT instance generator.
    fn rand_cnf(rng: &mut Rng, max_vars: usize, max_clauses: usize) -> Cnf {
        let nv = rng.gen_range(1, max_vars + 1);
        let nc = rng.gen_below(max_clauses + 1);
        let mut cnf = Cnf::new();
        for _ in 0..nv {
            cnf.fresh_var();
        }
        for _ in 0..nc {
            let len = rng.gen_range(1, 4);
            let clause: Vec<i32> = (0..len)
                .map(|_| {
                    let v = rng.gen_range(1, nv + 1) as i32;
                    if rng.gen_bool() {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            cnf.add_clause(&clause);
        }
        cnf
    }

    /// CDCL and DPLL agree on every random instance.
    #[test]
    fn cdcl_matches_dpll() {
        let mut rng = Rng::new(0x5A70);
        for _ in 0..CASES {
            let cnf = rand_cnf(&mut rng, 12, 50);
            let mut cdcl = Solver::from_cnf(&cnf);
            let expected = dpll_solve(&cnf);
            assert_eq!(cdcl.solve(), expected);
        }
    }

    /// When CDCL reports SAT, the model satisfies the original CNF.
    #[test]
    fn models_are_genuine() {
        let mut rng = Rng::new(0x5A71);
        for _ in 0..CASES {
            let cnf = rand_cnf(&mut rng, 14, 60);
            let mut cdcl = Solver::from_cnf(&cnf);
            if cdcl.solve() == SatResult::Sat {
                let model = cdcl.model().to_vec();
                assert!(cnf.eval(&model));
            }
        }
    }

    /// Solving twice (with solver reuse) gives consistent answers.
    #[test]
    fn solver_reuse_is_consistent() {
        let mut rng = Rng::new(0x5A72);
        for _ in 0..CASES {
            let cnf = rand_cnf(&mut rng, 10, 40);
            let mut cdcl = Solver::from_cnf(&cnf);
            let first = cdcl.solve();
            let second = cdcl.solve();
            assert_eq!(first, second);
        }
    }

    /// Solving under assumptions equals solving the strengthened CNF.
    #[test]
    fn assumptions_match_baked_units() {
        let mut rng = Rng::new(0x5A73);
        for _ in 0..CASES {
            let cnf = rand_cnf(&mut rng, 10, 40);
            let nv = cnf.num_vars();
            let var = rng.gen_range(1, nv + 1) as i32;
            let lit = if rng.gen_bool() { var } else { -var };

            let mut strengthened = cnf.clone();
            strengthened.add_clause(&[lit]);
            let expected = dpll_solve(&strengthened);

            let mut cdcl = Solver::from_cnf(&cnf);
            let got = cdcl.solve_with_assumptions(&[Lit::from_dimacs(lit)]);
            assert_eq!(got, expected);
        }
    }

    /// Guarded clauses behave like plain clauses while their selector is
    /// assumed, and disappear (for satisfiability) once retired.
    #[test]
    fn guarded_clauses_match_baked_clauses() {
        let mut rng = Rng::new(0x5A74);
        for _ in 0..CASES / 2 {
            let base = rand_cnf(&mut rng, 8, 24);
            let extra = rand_cnf(&mut rng, 8, 6);

            // Reference: base ∪ extra solved from scratch.
            let mut baked = Solver::from_cnf(&base);
            for _ in baked.num_vars()..extra.num_vars() {
                baked.new_var();
            }
            let mut expected_ok = true;
            for c in extra.clauses() {
                let lits: Vec<Lit> = c.iter().map(|&l| Lit::from_dimacs(l)).collect();
                expected_ok &= baked.add_clause(&lits);
            }
            let expected = if expected_ok {
                baked.solve()
            } else {
                SatResult::Unsat
            };

            // Incremental: extra guarded behind one selector.
            let mut inc = Solver::from_cnf(&base);
            for _ in inc.num_vars()..extra.num_vars() {
                inc.new_var();
            }
            let base_answer = inc.solve();
            let sel = Lit::pos(inc.new_selector());
            for c in extra.clauses() {
                let lits: Vec<Lit> = c.iter().map(|&l| Lit::from_dimacs(l)).collect();
                inc.add_guarded_clause(sel, &lits);
            }
            assert_eq!(inc.solve_with_assumptions(&[sel]), expected);

            // Retiring the selector restores the base verdict.
            inc.retire_selector(sel);
            assert_eq!(inc.solve(), base_answer);
        }
    }

    /// One randomized round of the incremental session protocol.
    struct Round {
        /// Guarded clauses: literals are (base-or-fresh, index, negated).
        guarded: Vec<Vec<(bool, usize, bool)>>,
        fresh: usize,
        /// Optional extra assumption on a base variable.
        assume_base: Option<(usize, bool)>,
        compact: bool,
    }

    struct Script {
        nv: usize,
        base: Vec<Vec<(usize, bool)>>,
        rounds: Vec<Round>,
    }

    fn rand_script(rng: &mut Rng) -> Script {
        let nv = rng.gen_range(3, 9);
        let mut base = Vec::new();
        for _ in 0..rng.gen_below(13) {
            let len = rng.gen_range(1, 4);
            base.push(
                (0..len)
                    .map(|_| (rng.gen_below(nv), rng.gen_bool()))
                    .collect(),
            );
        }
        let mut rounds = Vec::new();
        for r in 0..rng.gen_below(6) {
            let fresh = rng.gen_below(3);
            let mut guarded = Vec::new();
            for _ in 0..rng.gen_range(1, 5) {
                let len = rng.gen_range(1, 4);
                guarded.push(
                    (0..len)
                        .map(|_| {
                            let use_fresh = fresh > 0 && rng.gen_below(3) == 0;
                            if use_fresh {
                                (false, rng.gen_below(fresh), rng.gen_bool())
                            } else {
                                (true, rng.gen_below(nv), rng.gen_bool())
                            }
                        })
                        .collect(),
                );
            }
            let assume_base = rng.gen_bool().then(|| (rng.gen_below(nv), rng.gen_bool()));
            // A retired per-round option drew here; the draw stays so
            // every seed keeps generating the same scripts.
            rng.gen_bool();
            rounds.push(Round {
                guarded,
                fresh,
                assume_base,
                compact: r % 2 == 1,
            });
        }
        Script { nv, base, rounds }
    }

    /// Drives the solver through the whole incremental protocol a
    /// session performs — guarded query scopes, selector retirement,
    /// satisfied-clause sweeps, variable deadening and compaction with
    /// handle remapping — recording every verdict.
    fn run_protocol(script: &Script) -> Vec<SatResult> {
        let mut s = Solver::new();
        let mut handles: Vec<SatVar> = (0..script.nv).map(|_| s.new_var()).collect();
        let mut results = Vec::new();
        for c in &script.base {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&(v, neg)| Lit::new(handles[v], neg))
                .collect();
            s.add_clause(&lits);
        }
        for round in &script.rounds {
            let sel = Lit::pos(s.new_selector());
            let fresh: Vec<SatVar> = (0..round.fresh).map(|_| s.new_var()).collect();
            for cl in &round.guarded {
                let lits: Vec<Lit> = cl
                    .iter()
                    .map(|&(is_base, i, neg)| {
                        Lit::new(if is_base { handles[i] } else { fresh[i] }, neg)
                    })
                    .collect();
                s.add_guarded_clause(sel, &lits);
            }
            let mut assumptions = vec![sel];
            if let Some((v, neg)) = round.assume_base {
                assumptions.push(Lit::new(handles[v], neg));
            }
            results.push(s.solve_with_assumptions(&assumptions));
            s.retire_selector(sel);
            s.simplify_satisfied();
            s.deaden_vars(&fresh);
            if round.compact {
                let map = s.compact(&handles);
                for h in &mut handles {
                    *h = map[h.index()].expect("pinned base variable survives");
                }
                // Post-compaction verdict: the base formula must decide
                // identically through the remapped handles.
                results.push(s.solve_with_assumptions(&[]));
            }
        }
        results
    }

    /// The verdict stream [`run_protocol`] must produce for `script`,
    /// with each query decided from scratch by `decide`. Each round's
    /// query is the monolithic equivalent of the round (base ∪ active
    /// guarded clauses ∪ assumptions). Each post-compaction query is the
    /// base clauses alone: by then the round's guarded clauses are
    /// retired and its fresh variables deadened, so only the base
    /// formula remains.
    fn expected_verdicts(script: &Script, decide: impl Fn(&Cnf) -> SatResult) -> Vec<SatResult> {
        // Variables: base vars 1..=nv, then per-round fresh vars
        // appended (dead after their round, so reusing the tail ids is
        // fine).
        let signed = |v: usize, neg: bool| (v as i32 + 1) * if neg { -1 } else { 1 };
        let base_cnf: Vec<Vec<i32>> = script
            .base
            .iter()
            .map(|c| c.iter().map(|&(v, neg)| signed(v, neg)).collect())
            .collect();
        let query = |num_vars: usize, extra: &[Vec<i32>]| {
            let mut cnf = Cnf::new();
            for _ in 0..num_vars {
                cnf.fresh_var();
            }
            for c in base_cnf.iter().chain(extra) {
                cnf.add_clause(c);
            }
            decide(&cnf)
        };
        let mut expected = Vec::new();
        for round in &script.rounds {
            let mut extra: Vec<Vec<i32>> = round
                .guarded
                .iter()
                .map(|cl| {
                    cl.iter()
                        .map(|&(is_base, i, neg)| {
                            signed(if is_base { i } else { script.nv + i }, neg)
                        })
                        .collect()
                })
                .collect();
            if let Some((v, neg)) = round.assume_base {
                extra.push(vec![signed(v, neg)]);
            }
            expected.push(query(script.nv + round.fresh, &extra));
            if round.compact {
                expected.push(query(script.nv, &[]));
            }
        }
        expected
    }

    /// The solver's verdict stream matches the DPLL oracle on every
    /// query of randomized incremental sessions, post-compaction checks
    /// included.
    #[test]
    fn incremental_protocol_matches_dpll_oracle() {
        let mut rng = Rng::new(0x1C5A_0002);
        for case in 0..CASES {
            let script = rand_script(&mut rng);
            let got = run_protocol(&script);
            assert_eq!(got, expected_verdicts(&script, dpll_solve), "case {case}");
        }
    }

    /// The incremental verdict stream matches a reference solve of each
    /// query by a fresh, non-incremental [`Solver`]. The reference run
    /// uses none of the guarded scopes, retirement, deadening or
    /// compaction, so a disagreement is theirs.
    #[test]
    fn incremental_protocol_matches_reference_solver() {
        let mut rng = Rng::new(0x1C5A_0001);
        for case in 0..CASES {
            let script = rand_script(&mut rng);
            let got = run_protocol(&script);
            let fresh = |cnf: &Cnf| Solver::from_cnf(cnf).solve();
            assert_eq!(got, expected_verdicts(&script, fresh), "case {case}");
        }
    }
}
