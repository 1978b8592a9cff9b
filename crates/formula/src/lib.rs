//! # qb-formula
//!
//! Boolean formula infrastructure for the QBorrow safe-uncomputation
//! verifier: hash-consed XOR-AND graphs ([`Arena`]), canonical algebraic
//! normal form ([`Anf`]), and Tseitin CNF encoding ([`encode`]).
//!
//! The paper (§6.1) reduces safe uncomputation of a dirty qubit in a
//! classical circuit to the unsatisfiability of two Boolean formulas:
//!
//! * (6.1) `¬(b_q → q)` — the `|0⟩` restoration condition;
//! * (6.2) `⋁_{q'≠q} b_{q'}[0/q] ⊕ b_{q'}[1/q]` — the `|+⟩` restoration
//!   condition (every other qubit's final value is independent of `q`).
//!
//! This crate supplies everything needed to build, manipulate and encode
//! those formulas; the decision procedures live in `qb-sat` (CDCL) and
//! `qb-bdd` (BDDs), with [`Anf`] itself acting as a third, canonicity-based
//! decision procedure.
//!
//! # Examples
//!
//! ```
//! use qb_formula::{Anf, AnfCache, Arena, Simplify};
//!
//! // b_a after the first Toffoli of Fig. 6.1: a ⊕ q1·q2
//! let mut f = Arena::new(Simplify::Full);
//! let a = f.var(0);
//! let q1 = f.var(1);
//! let q2 = f.var(2);
//! let prod = f.and2(q1, q2);
//! let b_a = f.xor2(a, prod);
//!
//! // After the uncomputing Toffoli the formula collapses back to `a`.
//! let restored = f.xor2(b_a, prod);
//! assert_eq!(restored, a);
//!
//! // ANF is canonical: independence from q1 is a zero derivative.
//! let mut cache = AnfCache::new();
//! let anf = Anf::from_arena_cached(&f, &[restored], 1 << 20, &mut cache).unwrap();
//! assert!(cache.derivative(&anf[0], 1).is_zero());
//! ```

mod anf;
mod arena;
mod cnf;
mod incremental;
mod lru;

pub use anf::{Anf, AnfCache, AnfCacheStats, AnfOverflow, ANF_STORE_FLOOR};
pub use arena::{sim_input, Arena, Node, NodeId, NodeRemap, Simplify, Var};
pub use cnf::{encode, Cnf, Encoding};
pub use incremental::{CnfSink, IncrementalEncoder};
pub use lru::lru_evict_batch;

#[cfg(test)]
mod randomized {
    use super::*;
    use qb_testutil::Rng;

    /// A random formula expression tree over `nvars` variables.
    #[derive(Debug, Clone)]
    enum Expr {
        Var(Var),
        Const(bool),
        Not(Box<Expr>),
        And(Box<Expr>, Box<Expr>),
        Xor(Box<Expr>, Box<Expr>),
        Or(Box<Expr>, Box<Expr>),
    }

    fn rand_expr(rng: &mut Rng, nvars: u32, depth: usize) -> Expr {
        if depth == 0 || rng.gen_below(4) == 0 {
            return if rng.gen_bool() {
                Expr::Var(rng.gen_below(nvars as usize) as Var)
            } else {
                Expr::Const(rng.gen_bool())
            };
        }
        match rng.gen_below(4) {
            0 => Expr::Not(Box::new(rand_expr(rng, nvars, depth - 1))),
            1 => Expr::And(
                Box::new(rand_expr(rng, nvars, depth - 1)),
                Box::new(rand_expr(rng, nvars, depth - 1)),
            ),
            2 => Expr::Xor(
                Box::new(rand_expr(rng, nvars, depth - 1)),
                Box::new(rand_expr(rng, nvars, depth - 1)),
            ),
            _ => Expr::Or(
                Box::new(rand_expr(rng, nvars, depth - 1)),
                Box::new(rand_expr(rng, nvars, depth - 1)),
            ),
        }
    }

    fn build(arena: &mut Arena, e: &Expr) -> NodeId {
        match e {
            Expr::Var(v) => arena.var(*v),
            Expr::Const(b) => arena.constant(*b),
            Expr::Not(a) => {
                let x = build(arena, a);
                arena.not(x)
            }
            Expr::And(a, b) => {
                let x = build(arena, a);
                let y = build(arena, b);
                arena.and2(x, y)
            }
            Expr::Xor(a, b) => {
                let x = build(arena, a);
                let y = build(arena, b);
                arena.xor2(x, y)
            }
            Expr::Or(a, b) => {
                let x = build(arena, a);
                let y = build(arena, b);
                arena.or2(x, y)
            }
        }
    }

    fn eval_expr(e: &Expr, env: &[bool]) -> bool {
        match e {
            Expr::Var(v) => env[*v as usize],
            Expr::Const(b) => *b,
            Expr::Not(a) => !eval_expr(a, env),
            Expr::And(a, b) => eval_expr(a, env) & eval_expr(b, env),
            Expr::Xor(a, b) => eval_expr(a, env) ^ eval_expr(b, env),
            Expr::Or(a, b) => eval_expr(a, env) | eval_expr(b, env),
        }
    }

    const NVARS: u32 = 5;
    const CASES: usize = 128;

    /// Raw and Full arenas both evaluate identically to the source
    /// expression on every assignment, also after a collection that
    /// reclaims unrelated garbage: the remapped root keeps its function,
    /// the rebuilt cons table finds it again, and the constants keep
    /// their ids.
    #[test]
    fn arena_modes_agree_with_expression() {
        let mut rng = Rng::new(0xF0A0);
        let mut junk_rng = Rng::new(0xF0A5);
        for _ in 0..CASES {
            let e = rand_expr(&mut rng, NVARS, 5);
            let garbage = rand_expr(&mut junk_rng, NVARS, 5);
            for mode in [Simplify::Raw, Simplify::Full] {
                let mut f = Arena::new(mode);
                let root = build(&mut f, &e);
                let junk = build(&mut f, &garbage);
                f.and2(junk, root);
                f.xor2(junk, root);
                let remap = f.collect(&[root]);
                let kept = remap.remap(root).expect("the root survives");
                for bits in 0u32..(1 << NVARS) {
                    let env: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
                    assert_eq!(f.eval(kept, &env), eval_expr(&e, &env), "{mode:?}");
                }
                assert_eq!(build(&mut f, &e), kept, "{mode:?}: rebuilt cons table");
                assert_eq!(f.node(NodeId::FALSE), Node::Const(false));
                assert_eq!(f.node(NodeId::TRUE), Node::Const(true));
            }
        }
    }

    /// ANF built from either arena mode evaluates like the expression.
    #[test]
    fn anf_agrees_with_expression() {
        let mut rng = Rng::new(0xF0A1);
        for _ in 0..CASES {
            let e = rand_expr(&mut rng, NVARS, 5);
            let mut raw = Arena::new(Simplify::Raw);
            let root = build(&mut raw, &e);
            let mut cache = AnfCache::new();
            let anf = Anf::from_arena_cached(&raw, &[root], 1 << 16, &mut cache).unwrap();
            let terms = cache.terms(&anf[0]);
            for bits in 0u32..(1 << NVARS) {
                let env: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
                let value = terms
                    .iter()
                    .fold(false, |acc, t| acc ^ t.iter().all(|&v| env[v as usize]));
                assert_eq!(value, eval_expr(&e, &env));
            }
        }
    }

    /// ANF canonicity: two different constructions of equivalent
    /// functions produce identical polynomials.
    #[test]
    fn anf_is_canonical_across_modes() {
        let mut rng = Rng::new(0xF0A2);
        for _ in 0..CASES {
            let e = rand_expr(&mut rng, NVARS, 5);
            let mut raw = Arena::new(Simplify::Raw);
            let mut full = Arena::new(Simplify::Full);
            let r_raw = build(&mut raw, &e);
            let r_full = build(&mut full, &e);
            let (mut ca, mut cb) = (AnfCache::new(), AnfCache::new());
            let a = Anf::from_arena_cached(&raw, &[r_raw], 1 << 16, &mut ca).unwrap();
            let b = Anf::from_arena_cached(&full, &[r_full], 1 << 16, &mut cb).unwrap();
            assert_eq!(ca.terms(&a[0]), cb.terms(&b[0]));
        }
    }

    /// The Tseitin encoding is satisfiability-preserving (checked by
    /// brute force over original + auxiliary variables).
    #[test]
    fn tseitin_preserves_satisfiability() {
        let mut rng = Rng::new(0xF0A3);
        let mut checked = 0;
        while checked < 48 {
            let e = rand_expr(&mut rng, 4, 4);
            let mut raw = Arena::new(Simplify::Raw);
            let root = build(&mut raw, &e);
            let enc = encode(&raw, &[root]);
            if enc.cnf.num_vars() > 18 {
                continue;
            }
            checked += 1;
            let n = enc.cnf.num_vars();
            let mut cnf_sat = false;
            for bits in 0u64..(1 << n) {
                let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                let root_true = {
                    let l = enc.root_lits[0];
                    let v = assignment[(l.unsigned_abs() - 1) as usize];
                    if l > 0 {
                        v
                    } else {
                        !v
                    }
                };
                if root_true && enc.cnf.eval(&assignment) {
                    cnf_sat = true;
                    break;
                }
            }
            let expr_sat = (0u32..(1 << 4)).any(|bits| {
                let env: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
                eval_expr(&e, &env)
            });
            assert_eq!(cnf_sat, expr_sat);
        }
    }

    /// Cofactoring in the arena matches semantic substitution in both
    /// modes: for one root, and for two roots cofactored in one walk of
    /// their cone, with unrelated garbage in the arena left as it is.
    #[test]
    fn cofactor_matches_semantics() {
        let mut rng = Rng::new(0xF0A4);
        let mut junk_rng = Rng::new(0xF0A6);
        for _ in 0..CASES {
            let e = rand_expr(&mut rng, NVARS, 5);
            let var = rng.gen_below(NVARS as usize) as Var;
            let val = rng.gen_bool();
            let other = rand_expr(&mut junk_rng, NVARS, 5);
            let garbage = rand_expr(&mut junk_rng, NVARS, 5);
            for mode in [Simplify::Raw, Simplify::Full] {
                let mut f = Arena::new(mode);
                let root = build(&mut f, &e);
                let cof = f.cofactor(root, var, val);
                let second = build(&mut f, &other);
                let junk = build(&mut f, &garbage);
                let junk = f.and2(junk, cof);
                let map = f.cofactor_reachable(&[root, second], var, val);
                for bits in 0u32..(1 << NVARS) {
                    let env: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
                    let mut fixed = env.clone();
                    fixed[var as usize] = val;
                    let expect = eval_expr(&e, &fixed);
                    assert_eq!(f.eval(cof, &env), expect, "{mode:?}");
                    assert_eq!(f.eval(map[root.index()], &env), expect, "{mode:?}");
                    let expect = eval_expr(&other, &fixed);
                    assert_eq!(f.eval(map[second.index()], &env), expect, "{mode:?}");
                }
                if !f.reachable(&[root, second])[junk.index()] {
                    assert_eq!(map[junk.index()], junk, "{mode:?}: outside the cone");
                }
            }
        }
    }
}
