//! Algebraic normal form (ANF) — XOR of AND-monomials over GF(2).
//!
//! ANF is a *canonical* representation: a formula is unsatisfiable exactly
//! when its ANF is the empty polynomial, and two formulas are equivalent
//! exactly when their ANFs are equal. Normalising a formula graph into ANF
//! therefore yields a complete decision procedure for the verification
//! conditions of the paper's §6.1 — one of the three backends this
//! reproduction offers in place of CVC5/Bitwuzla.
//!
//! The representation can blow up exponentially (e.g. carry chains of wide
//! adders), so every conversion takes a term cap and fails gracefully with
//! [`AnfOverflow`]; callers treat that as "backend inapplicable".

use crate::arena::{Arena, Node, NodeId, NodeRemap, Var};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A product of distinct variables; the empty product is the constant `1`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Monomial(Box<[Var]>);

impl Monomial {
    /// The constant-one monomial (empty product).
    pub fn one() -> Self {
        Monomial(Box::new([]))
    }

    /// The single-variable monomial.
    pub fn var(v: Var) -> Self {
        Monomial(Box::new([v]))
    }

    /// Builds a monomial from an iterator of variables (deduplicated).
    pub fn from_vars<I: IntoIterator<Item = Var>>(vars: I) -> Self {
        let mut v: Vec<Var> = vars.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Monomial(v.into_boxed_slice())
    }

    /// The variables of this monomial, sorted ascending.
    pub fn vars(&self) -> &[Var] {
        &self.0
    }

    /// Number of variables (polynomial degree of this term).
    pub fn degree(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if `v` occurs in the monomial.
    pub fn contains(&self, v: Var) -> bool {
        self.0.binary_search(&v).is_ok()
    }

    /// Product of two monomials (`x² = x` over GF(2)).
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut out = Vec::with_capacity(self.0.len() + other.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.0[i..]);
        out.extend_from_slice(&other.0[j..]);
        Monomial(out.into_boxed_slice())
    }

    /// Removes `v` from the monomial (used by the formal derivative).
    fn without(&self, v: Var) -> Monomial {
        Monomial(
            self.0
                .iter()
                .copied()
                .filter(|&x| x != v)
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        )
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "1");
        }
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            write!(f, "x{v}")?;
        }
        Ok(())
    }
}

/// Error raised when an ANF conversion exceeds its term cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnfOverflow {
    /// The cap that was exceeded.
    pub cap: usize,
}

impl fmt::Display for AnfOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ANF term count exceeded cap of {}", self.cap)
    }
}

impl std::error::Error for AnfOverflow {}

/// A polynomial over GF(2) in algebraic normal form.
///
/// # Examples
///
/// ```
/// use qb_formula::Anf;
/// let x = Anf::var(0);
/// let y = Anf::var(1);
/// let p = x.xor(&y).xor(&x); // x ⊕ y ⊕ x = y
/// assert_eq!(p, Anf::var(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Anf {
    /// Sorted, duplicate-free terms; empty means the zero polynomial.
    terms: Vec<Monomial>,
}

impl Anf {
    /// The zero polynomial (constant false).
    pub fn zero() -> Self {
        Anf { terms: Vec::new() }
    }

    /// The one polynomial (constant true).
    pub fn one() -> Self {
        Anf {
            terms: vec![Monomial::one()],
        }
    }

    /// The polynomial consisting of a single variable.
    pub fn var(v: Var) -> Self {
        Anf {
            terms: vec![Monomial::var(v)],
        }
    }

    /// Builds a polynomial from arbitrary terms (pairs cancel mod 2).
    pub fn from_terms<I: IntoIterator<Item = Monomial>>(terms: I) -> Self {
        let mut set: BTreeSet<Monomial> = BTreeSet::new();
        for t in terms {
            if !set.remove(&t) {
                set.insert(t);
            }
        }
        Anf {
            terms: set.into_iter().collect(),
        }
    }

    /// The terms, sorted ascending.
    pub fn terms(&self) -> &[Monomial] {
        &self.terms
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when the polynomial has no terms (alias of
    /// [`Anf::is_zero`], provided for container-style call sites).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` for the zero polynomial — i.e. the formula is
    /// unsatisfiable.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` for the constant-one polynomial (tautology).
    pub fn is_one(&self) -> bool {
        self.terms.len() == 1 && self.terms[0].degree() == 0
    }

    /// Polynomial degree (0 for constants).
    pub fn degree(&self) -> usize {
        self.terms.iter().map(Monomial::degree).max().unwrap_or(0)
    }

    /// A satisfying assignment, as the variables to set to `1` (every
    /// other variable `0`): those of a minimum-degree term. No other term
    /// is a subset of it, so under that assignment exactly one term is
    /// `1` and the polynomial evaluates to `1`. `None` for the zero
    /// polynomial, which no assignment satisfies.
    pub fn satisfying_vars(&self) -> Option<&[Var]> {
        self.terms
            .iter()
            .min_by_key(|t| t.degree())
            .map(Monomial::vars)
    }

    /// GF(2) sum (exclusive-or) of two polynomials.
    pub fn xor(&self, other: &Anf) -> Anf {
        let mut out = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            match self.terms[i].cmp(&other.terms[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.terms[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.terms[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.terms[i..]);
        out.extend_from_slice(&other.terms[j..]);
        Anf { terms: out }
    }

    /// GF(2) product, failing if the result would exceed `cap` terms.
    ///
    /// # Errors
    ///
    /// Returns [`AnfOverflow`] if the intermediate or final term count
    /// exceeds `cap`.
    pub fn mul(&self, other: &Anf, cap: usize) -> Result<Anf, AnfOverflow> {
        if self.terms.len().saturating_mul(other.terms.len()) > 4 * cap.max(1) {
            return Err(AnfOverflow { cap });
        }
        let mut set: BTreeSet<Monomial> = BTreeSet::new();
        for a in &self.terms {
            for b in &other.terms {
                let m = a.mul(b);
                if !set.remove(&m) {
                    set.insert(m);
                    if set.len() > cap {
                        return Err(AnfOverflow { cap });
                    }
                }
            }
        }
        Ok(Anf {
            terms: set.into_iter().collect(),
        })
    }

    /// Logical negation: `¬p = p ⊕ 1`.
    pub fn not(&self) -> Anf {
        self.xor(&Anf::one())
    }

    /// The sorted support: every variable some term mentions. ANF is
    /// canonical, so these are exactly the variables the function
    /// depends on.
    pub fn support(&self) -> Vec<Var> {
        let mut vars: Vec<Var> = self.terms.iter().flat_map(|t| t.vars()).copied().collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Substitutes a constant for `v`.
    pub fn cofactor(&self, v: Var, val: bool) -> Anf {
        let mut set: BTreeSet<Monomial> = BTreeSet::new();
        for t in &self.terms {
            let keep = if t.contains(v) {
                if !val {
                    continue; // monomial containing v vanishes when v = 0
                }
                t.without(v)
            } else {
                t.clone()
            };
            if !set.remove(&keep) {
                set.insert(keep);
            }
        }
        Anf {
            terms: set.into_iter().collect(),
        }
    }

    /// Formal (Boolean) derivative `∂p/∂v = p[v:=0] ⊕ p[v:=1]`.
    ///
    /// The derivative is zero exactly when the function is independent of
    /// `v` — the semantic core of the paper's condition (6.2).
    pub fn derivative(&self, v: Var) -> Anf {
        let mut set: BTreeSet<Monomial> = BTreeSet::new();
        for t in &self.terms {
            if t.contains(v) {
                let m = t.without(v);
                if !set.remove(&m) {
                    set.insert(m);
                }
            }
        }
        Anf {
            terms: set.into_iter().collect(),
        }
    }

    /// Evaluates the polynomial under `env` (indexed by variable).
    pub fn eval(&self, env: &[bool]) -> bool {
        self.terms.iter().fold(false, |acc, t| {
            acc ^ t.vars().iter().all(|&v| env[v as usize])
        })
    }

    /// Converts the nodes reachable from `roots` into ANF, bottom-up with
    /// sharing, failing if any node's polynomial exceeds `cap` terms.
    ///
    /// # Errors
    ///
    /// Returns [`AnfOverflow`] on blow-up.
    pub fn from_arena(
        arena: &Arena,
        roots: &[NodeId],
        cap: usize,
    ) -> Result<Vec<Anf>, AnfOverflow> {
        let reach = arena.reachable(roots);
        let mut table: Vec<Option<Anf>> = vec![None; arena.len()];
        for i in 0..arena.len() {
            if !reach[i] {
                continue;
            }
            let id = NodeId::from_index(i);
            let anf = match arena.node(id) {
                Node::Const(b) => {
                    if b {
                        Anf::one()
                    } else {
                        Anf::zero()
                    }
                }
                Node::Var(v) => Anf::var(v),
                Node::And(children) => {
                    let mut acc = Anf::one();
                    for c in children.iter() {
                        let child = table[c.index()].as_ref().expect("children precede parents");
                        acc = acc.mul(child, cap)?;
                    }
                    acc
                }
                Node::Xor(children, parity) => {
                    let mut acc = if parity { Anf::one() } else { Anf::zero() };
                    for c in children.iter() {
                        let child = table[c.index()].as_ref().expect("children precede parents");
                        acc = acc.xor(child);
                    }
                    if acc.len() > cap {
                        return Err(AnfOverflow { cap });
                    }
                    acc
                }
            };
            table[i] = Some(anf);
        }
        Ok(roots
            .iter()
            .map(|r| table[r.index()].clone().expect("root is reachable"))
            .collect())
    }

    /// Like [`Anf::from_arena`], but memoising per-node polynomials in
    /// `cache` across calls. Hash-consing makes a [`NodeId`] permanently
    /// denote one Boolean function (in an append-only arena), so a
    /// cached polynomial answers any later conversion over the same
    /// structure — across targets, repeat sweeps and edits — and the
    /// bottom-up pass stops descending at cached nodes entirely.
    ///
    /// Results are identical to [`Anf::from_arena`]; only the work
    /// profile differs.
    ///
    /// # Errors
    ///
    /// Returns [`AnfOverflow`] on blow-up past `cap` terms, exactly as
    /// the uncached conversion does.
    pub fn from_arena_cached(
        arena: &Arena,
        roots: &[NodeId],
        cap: usize,
        cache: &mut AnfCache,
    ) -> Result<Vec<Anf>, AnfOverflow> {
        // Frontier traversal: descend only into nodes without a
        // memoised polynomial, so a warm root costs O(1).
        let mut visited = vec![false; arena.len()];
        let mut need: Vec<NodeId> = Vec::new();
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if visited[id.index()] {
                continue;
            }
            visited[id.index()] = true;
            if cache.touch(id) {
                continue;
            }
            need.push(id);
            stack.extend_from_slice(arena.children(id));
        }
        // Children precede parents in arena order; oversized polynomials
        // are not admitted into the cache and live in `local` instead.
        need.sort_unstable();
        // Children are borrowed from `local` or the cache — mul/xor only
        // need references, so no polynomial is copied per operand.
        fn child_poly<'a>(
            id: NodeId,
            local: &'a HashMap<NodeId, Anf>,
            cache: &'a AnfCache,
        ) -> &'a Anf {
            local
                .get(&id)
                .or_else(|| cache.peek_ref(id))
                .expect("children precede parents")
        }
        let mut local: HashMap<NodeId, Anf> = HashMap::new();
        for id in need {
            let anf = match arena.node(id) {
                Node::Const(b) => {
                    if b {
                        Anf::one()
                    } else {
                        Anf::zero()
                    }
                }
                Node::Var(v) => Anf::var(v),
                Node::And(children) => {
                    let mut acc = Anf::one();
                    for c in children.iter() {
                        acc = acc.mul(child_poly(*c, &local, cache), cap)?;
                    }
                    acc
                }
                Node::Xor(children, parity) => {
                    let mut acc = if parity { Anf::one() } else { Anf::zero() };
                    for c in children.iter() {
                        acc = acc.xor(child_poly(*c, &local, cache));
                    }
                    if acc.len() > cap {
                        return Err(AnfOverflow { cap });
                    }
                    acc
                }
            };
            if !cache.admit(id, &anf) {
                local.insert(id, anf);
            }
        }
        let out = roots
            .iter()
            .map(|r| {
                local
                    .get(r)
                    .cloned()
                    .or_else(|| cache.peek(*r))
                    .expect("root is reachable")
            })
            .collect();
        cache.evict_over_capacity();
        Ok(out)
    }
}

/// A memoised ANF polynomial for one arena node.
#[derive(Debug, Clone)]
struct AnfEntry {
    poly: Anf,
    /// Logical timestamp of the last hit or insertion (LRU order).
    last_used: u64,
}

/// Reuse counters of an [`AnfCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnfCacheStats {
    /// Polynomials currently memoised.
    pub cached_polys: usize,
    /// Total terms across the memoised polynomials.
    pub cached_terms: usize,
    /// Conversions answered from the cache.
    pub hits: u64,
    /// Nodes converted fresh.
    pub misses: u64,
    /// Entries dropped by LRU eviction or arena remap.
    pub evictions: u64,
}

/// Default bound on memoised per-node polynomials.
const ANF_CACHE_CAPACITY: usize = 1 << 12;

/// Polynomials above this many terms are never admitted (a handful of
/// huge entries would defeat the entry-count bound).
const ANF_CACHE_MAX_TERMS: usize = 1 << 12;

/// A size-bounded memo of per-node ANF polynomials keyed by [`NodeId`],
/// used by [`Anf::from_arena_cached`] so long-lived verification
/// sessions stop recomputing shared subcircuits per target. Eviction is
/// least-recently-used in batches; [`AnfCache::remap_nodes`] follows
/// `Arena::collect`'s [`NodeRemap`] (entries whose node was reclaimed
/// are dropped — sound, because a collected id is never issued for its
/// old structure again).
#[derive(Debug, Clone)]
pub struct AnfCache {
    map: HashMap<NodeId, AnfEntry>,
    clock: u64,
    cap: usize,
    max_terms: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for AnfCache {
    fn default() -> Self {
        AnfCache::new()
    }
}

impl AnfCache {
    /// Creates a cache with the default entry bound.
    pub fn new() -> Self {
        AnfCache::with_capacity(ANF_CACHE_CAPACITY)
    }

    /// Creates a cache bounded to `cap` memoised polynomials.
    pub fn with_capacity(cap: usize) -> Self {
        AnfCache {
            map: HashMap::new(),
            clock: 0,
            cap: cap.max(1),
            max_terms: ANF_CACHE_MAX_TERMS,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Rebounds the cache to `cap` entries, evicting immediately.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap.max(1);
        self.evict_over_capacity();
    }

    /// Number of memoised polynomials.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when nothing is memoised.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Reuse counters.
    pub fn stats(&self) -> AnfCacheStats {
        AnfCacheStats {
            cached_polys: self.map.len(),
            cached_terms: self.map.values().map(|e| e.poly.len()).sum(),
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// Stamps `id` as used; returns whether it is cached.
    fn touch(&mut self, id: NodeId) -> bool {
        self.clock += 1;
        match self.map.get_mut(&id) {
            Some(entry) => {
                entry.last_used = self.clock;
                self.hits += 1;
                true
            }
            None => false,
        }
    }

    /// The cached polynomial of `id`, if any (no stamp update).
    fn peek(&self, id: NodeId) -> Option<Anf> {
        self.peek_ref(id).cloned()
    }

    /// Borrows the cached polynomial of `id` (no stamp update, no copy).
    fn peek_ref(&self, id: NodeId) -> Option<&Anf> {
        self.map.get(&id).map(|e| &e.poly)
    }

    /// Admits a freshly computed polynomial unless it is oversized;
    /// returns whether it was cached.
    fn admit(&mut self, id: NodeId, poly: &Anf) -> bool {
        self.misses += 1;
        if poly.len() > self.max_terms {
            return false;
        }
        self.clock += 1;
        self.map.insert(
            id,
            AnfEntry {
                poly: poly.clone(),
                last_used: self.clock,
            },
        );
        true
    }

    /// Keeps the cache within its LRU bound (batch eviction down to ¾
    /// capacity, amortising the stamp sort).
    fn evict_over_capacity(&mut self) {
        self.evictions +=
            crate::lru_evict_batch(&mut self.map, self.cap, |e| e.last_used, |_, _| {});
    }

    /// Follows a formula-arena collection: keys are rewritten through
    /// `remap` and entries whose node was reclaimed are dropped.
    pub fn remap_nodes(&mut self, remap: &NodeRemap) {
        let map = std::mem::take(&mut self.map);
        for (id, entry) in map {
            match remap.remap(id) {
                Some(new) => {
                    self.map.insert(new, entry);
                }
                None => self.evictions += 1,
            }
        }
    }
}

impl fmt::Display for Anf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " ⊕ ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Simplify;

    #[test]
    fn xor_cancels_pairs() {
        let x = Anf::var(0);
        assert!(x.xor(&x).is_zero());
    }

    #[test]
    fn mul_is_idempotent_on_vars() {
        let x = Anf::var(0);
        let xx = x.mul(&x, 100).unwrap();
        assert_eq!(xx, x);
    }

    #[test]
    fn distributes() {
        // (x ⊕ y)·z = xz ⊕ yz
        let x = Anf::var(0);
        let y = Anf::var(1);
        let z = Anf::var(2);
        let lhs = x.xor(&y).mul(&z, 100).unwrap();
        let rhs = x.mul(&z, 100).unwrap().xor(&y.mul(&z, 100).unwrap());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn derivative_detects_dependence() {
        // p = x ⊕ yz depends on x, y, z but not w.
        let p = Anf::var(0).xor(&Anf::var(1).mul(&Anf::var(2), 10).unwrap());
        assert!(!p.derivative(0).is_zero());
        assert!(!p.derivative(1).is_zero());
        assert!(p.derivative(3).is_zero());
        // ∂p/∂x = 1, ∂p/∂y = z.
        assert!(p.derivative(0).is_one());
        assert_eq!(p.derivative(1), Anf::var(2));
        // The support is exactly the variables with a nonzero derivative.
        assert_eq!(p.support(), vec![0, 1, 2]);
        assert!(Anf::one().support().is_empty());
    }

    #[test]
    fn cofactor_agrees_with_derivative() {
        let p = Anf::var(0)
            .xor(&Anf::var(1).mul(&Anf::var(0), 10).unwrap())
            .xor(&Anf::one());
        let d = p.cofactor(0, false).xor(&p.cofactor(0, true));
        assert_eq!(d, p.derivative(0));
    }

    #[test]
    fn overflow_is_reported() {
        // Product of t many disjoint (xᵢ ⊕ yᵢ) factors has 2^t terms.
        let mut acc = Anf::one();
        let mut failed = false;
        for i in 0..20 {
            let f = Anf::var(2 * i).xor(&Anf::var(2 * i + 1));
            match acc.mul(&f, 64) {
                Ok(next) => acc = next,
                Err(AnfOverflow { cap }) => {
                    assert_eq!(cap, 64);
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "expected blow-up past the cap");
    }

    #[test]
    fn satisfying_vars_satisfy_every_nonzero_polynomial() {
        // Every polynomial over three variables: each subset of the
        // eight monomials.
        let monomials: Vec<Monomial> = (0..8u32)
            .map(|m| Monomial::from_vars((0..3).filter(|v| m & (1 << v) != 0)))
            .collect();
        for subset in 0..256u32 {
            let p = Anf::from_terms(
                (0..8)
                    .filter(|i| subset & (1 << i) != 0)
                    .map(|i| monomials[i].clone()),
            );
            match p.satisfying_vars() {
                None => assert!(p.is_zero()),
                Some(ones) => {
                    let env: Vec<bool> = (0..3).map(|v| ones.contains(&v)).collect();
                    assert!(p.eval(&env), "{p} at {env:?}");
                }
            }
        }
    }

    #[test]
    fn from_arena_matches_eval() {
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut f = Arena::new(mode);
            let x = f.var(0);
            let y = f.var(1);
            let z = f.var(2);
            let xy = f.and2(x, y);
            let t = f.xor2(xy, z);
            let root = f.not(t);
            let anf = Anf::from_arena(&f, &[root], 1000).unwrap().remove(0);
            for bits in 0..8u32 {
                let env = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
                assert_eq!(anf.eval(&env), f.eval(root, &env), "mode {mode:?}");
            }
        }
    }

    #[test]
    fn canonical_unsat_detection() {
        let mut f = Arena::new(Simplify::Raw);
        let x = f.var(0);
        let nx = f.not(x);
        let contradiction = f.and2(x, nx);
        let anf = Anf::from_arena(&f, &[contradiction], 100)
            .unwrap()
            .remove(0);
        assert!(anf.is_zero());
    }

    #[test]
    fn display_renders_terms() {
        let p = Anf::var(1).xor(&Anf::one());
        assert_eq!(p.to_string(), "1 ⊕ x1");
    }

    #[test]
    fn cached_conversion_matches_uncached() {
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut f = Arena::new(mode);
            let x = f.var(0);
            let y = f.var(1);
            let z = f.var(2);
            let xy = f.and2(x, y);
            let t = f.xor2(xy, z);
            let r1 = f.not(t);
            let r2 = f.or2(x, z);
            let mut cache = AnfCache::new();
            let cached = Anf::from_arena_cached(&f, &[r1, r2], 1 << 16, &mut cache).unwrap();
            let plain = Anf::from_arena(&f, &[r1, r2], 1 << 16).unwrap();
            assert_eq!(cached, plain, "mode {mode:?}");
            // Warm re-conversion answers from the cache without fresh work.
            let misses = cache.stats().misses;
            let again = Anf::from_arena_cached(&f, &[r1, r2], 1 << 16, &mut cache).unwrap();
            assert_eq!(again, plain);
            assert_eq!(cache.stats().misses, misses, "no re-conversion");
            assert!(cache.stats().hits >= 2);
        }
    }

    #[test]
    fn cached_conversion_still_reports_overflow() {
        let mut f = Arena::new(Simplify::Raw);
        let factors: Vec<NodeId> = (0..10)
            .map(|i| {
                let a = f.var(2 * i);
                let b = f.var(2 * i + 1);
                f.xor2(a, b)
            })
            .collect();
        let root = f.and(&factors);
        let mut cache = AnfCache::new();
        let err = Anf::from_arena_cached(&f, &[root], 64, &mut cache).unwrap_err();
        assert_eq!(err.cap, 64);
    }

    #[test]
    fn cache_is_lru_bounded_and_oversized_polys_are_skipped() {
        let mut f = Arena::new(Simplify::Raw);
        let mut roots = Vec::new();
        for i in 0..24u32 {
            let a = f.var(2 * i);
            let b = f.var(2 * i + 1);
            roots.push(f.and2(a, b));
        }
        let mut cache = AnfCache::with_capacity(8);
        for r in &roots {
            Anf::from_arena_cached(&f, &[*r], 1 << 16, &mut cache).unwrap();
        }
        let stats = cache.stats();
        assert!(stats.cached_polys <= 8, "{stats:?}");
        assert!(stats.evictions > 0);

        // A product blowing past the admission bound is computed but
        // not cached.
        let mut wide = Arena::new(Simplify::Raw);
        let factors: Vec<NodeId> = (0..13)
            .map(|i| {
                let a = wide.var(2 * i);
                let b = wide.var(2 * i + 1);
                wide.xor2(a, b)
            })
            .collect();
        let root = wide.and(&factors); // 2^13 terms > admission bound
        let mut cache = AnfCache::new();
        let polys = Anf::from_arena_cached(&wide, &[root], 1 << 20, &mut cache).unwrap();
        assert_eq!(polys[0].len(), 1 << 13);
        assert!(
            cache.peek(root).is_none(),
            "oversized root not admitted: {:?}",
            cache.stats()
        );
    }

    #[test]
    fn cache_follows_arena_collection() {
        let mut f = Arena::new(Simplify::Full);
        let x = f.var(0);
        let y = f.var(1);
        let xy = f.and2(x, y);
        let root = f.xor2(xy, x);
        let dead = {
            let z = f.var(2);
            f.and2(z, root)
        };
        let mut cache = AnfCache::new();
        let before = Anf::from_arena_cached(&f, &[root, dead], 1 << 16, &mut cache).unwrap();
        let remap = f.collect(&[root]);
        let new_root = remap.remap(root).unwrap();
        cache.remap_nodes(&remap);
        assert!(cache.stats().evictions > 0, "dead entries dropped");
        let misses = cache.stats().misses;
        let after = Anf::from_arena_cached(&f, &[new_root], 1 << 16, &mut cache).unwrap();
        assert_eq!(before[0], after[0], "warm polynomial survived the remap");
        assert_eq!(cache.stats().misses, misses, "renumbered root still hits");
    }
}
