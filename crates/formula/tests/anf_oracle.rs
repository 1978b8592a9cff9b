//! The ANF rung checked against an oracle that shares no code with
//! `anf.rs`: the Möbius transform of a formula's truth table (taken by
//! `Arena::eval`) gives its ANF coefficients, from which the expected
//! terms, derivatives and witnesses follow. Products are checked against
//! a small copy of the term-set rule the ANF rung has always used for its
//! overflow: a running count of a sorted term set, in lexicographic order.

use qb_formula::{Anf, AnfCache, Arena, NodeId, Simplify, Var};
use std::collections::BTreeSet;

/// A term: its variables, ascending. The constant 1 is the empty term.
type Term = Vec<Var>;

/// A small deterministic generator (xorshift64*).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

/// A random formula over `nvars` variables, created in a shuffled order
/// so that the order of creation is not the order of the variables.
/// Returns the arena and a few of its latest nodes as roots.
fn random_formula(rng: &mut Rng, mode: Simplify, nvars: usize) -> (Arena, Vec<NodeId>) {
    let mut f = Arena::new(mode);
    let mut order: Vec<Var> = (0..nvars as Var).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut pool: Vec<NodeId> = order.iter().map(|&v| f.var(v)).collect();
    for _ in 0..4 + rng.below(24) {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let c = pool[rng.below(pool.len())];
        let node = match rng.below(6) {
            0 => f.and2(a, b),
            1 => f.xor2(a, b),
            2 => f.or2(a, b),
            3 => f.not(a),
            4 => f.and(&[a, b, c]),
            _ => f.xor(&[a, b, c]),
        };
        pool.push(node);
    }
    let roots = pool[pool.len() - 3..].to_vec();
    (f, roots)
}

/// The truth table of `root`: entry `x` is its value with variable `v`
/// set to bit `v` of `x`.
fn truth_table(f: &Arena, root: NodeId, nvars: usize) -> Vec<bool> {
    (0..1usize << nvars)
        .map(|x| {
            let env: Vec<bool> = (0..nvars).map(|v| x >> v & 1 == 1).collect();
            f.eval(root, &env)
        })
        .collect()
}

/// The ANF terms of a truth table by the Möbius transform, in
/// lexicographic order.
fn mobius(table: &[bool]) -> Vec<Term> {
    let mut c = table.to_vec();
    let mut step = 1;
    while step < c.len() {
        for x in 0..c.len() {
            if x & step != 0 {
                c[x] ^= c[x ^ step];
            }
        }
        step <<= 1;
    }
    let mut terms: Vec<Term> = (0..c.len())
        .filter(|&x| c[x])
        .map(|x| (0..usize::BITS).filter(|v| x >> v & 1 == 1).collect())
        .collect();
    terms.sort();
    terms
}

/// The term-set product rule: reject more than `4 · cap` term pairs up
/// front, then toggle each pair's product in a sorted set and fail once
/// the set holds more than `cap` terms.
fn reference_mul(a: &[Term], b: &[Term], cap: usize) -> Option<Vec<Term>> {
    if a.len().saturating_mul(b.len()) > 4 * cap.max(1) {
        return None;
    }
    let mut set: BTreeSet<Term> = BTreeSet::new();
    for x in a {
        for y in b {
            let mut m: Term = x.iter().chain(y).copied().collect();
            m.sort_unstable();
            m.dedup();
            if !set.remove(&m) {
                set.insert(m);
                if set.len() > cap {
                    return None;
                }
            }
        }
    }
    Some(set.into_iter().collect())
}

/// The largest term count [`reference_mul`] holds on its way.
fn reference_peak(a: &[Term], b: &[Term]) -> usize {
    let mut set: BTreeSet<Term> = BTreeSet::new();
    let mut peak = 0;
    for x in a {
        for y in b {
            let mut m: Term = x.iter().chain(y).copied().collect();
            m.sort_unstable();
            m.dedup();
            if !set.remove(&m) {
                set.insert(m);
            }
            peak = peak.max(set.len());
        }
    }
    peak
}

#[test]
fn conversion_derivative_and_witness_match_the_mobius_transform() {
    let mut rng = Rng(0x00A1_F0AC_1E5E_ED01);
    for case in 0..300 {
        let mode = [Simplify::Raw, Simplify::Full][case % 2];
        let nvars = 1 + rng.below(10);
        let (f, roots) = random_formula(&mut rng, mode, nvars);
        let mut cache = AnfCache::new();
        let polys = Anf::from_arena_cached(&f, &roots, 1 << 12, &mut cache).unwrap();
        for (&root, poly) in roots.iter().zip(&polys) {
            let table = truth_table(&f, root, nvars);
            let expected = mobius(&table);
            assert_eq!(cache.terms(poly), expected, "case {case} ({mode:?})");

            // The witness: the lexicographically first minimum-degree term.
            let min = expected.iter().map(Vec::len).min();
            let first = expected.iter().find(|t| Some(t.len()) == min);
            assert_eq!(cache.satisfying_vars(poly).as_ref(), first, "case {case}");

            for v in 0..nvars as Var {
                let bit = 1usize << v;
                let flipped: Vec<bool> = (0..table.len())
                    .map(|x| table[x & !bit] ^ table[x | bit])
                    .collect();
                let d = cache.derivative(poly, v);
                assert_eq!(cache.terms(&d), mobius(&flipped), "case {case}, ∂/∂x{v}");
            }
        }
    }
}

#[test]
fn products_overflow_exactly_where_the_term_set_rule_does() {
    let mut rng = Rng(0x0DDC_0FFE_E0F0_0D02);
    let mut overflows = 0;
    for case in 0..300 {
        let mode = [Simplify::Raw, Simplify::Full][case % 2];
        let nvars = 1 + rng.below(10);
        let (f, roots) = random_formula(&mut rng, mode, nvars);
        let mut cache = AnfCache::new();
        let polys = Anf::from_arena_cached(&f, &roots, 1 << 12, &mut cache).unwrap();
        let terms: Vec<Vec<Term>> = roots
            .iter()
            .map(|&r| mobius(&truth_table(&f, r, nvars)))
            .collect();
        for (i, j) in [(0, 1), (1, 2), (2, 0), (0, 0)] {
            let (a, b) = (&terms[i], &terms[j]);
            let peak = reference_peak(a, b);
            let quarter = (a.len() * b.len()).div_ceil(4);
            for cap in [
                peak.saturating_sub(1),
                peak,
                quarter.saturating_sub(1),
                quarter,
            ] {
                let expected = reference_mul(a, b, cap);
                let got = cache.mul(&polys[i], &polys[j], cap);
                overflows += usize::from(expected.is_none());
                assert_eq!(
                    got.as_ref().ok().map(|p| cache.terms(p)),
                    expected,
                    "case {case}: product {i}·{j} at cap {cap}"
                );
            }
        }
    }
    assert!(
        overflows > 100,
        "the caps straddle the overflow: {overflows}"
    );
}
