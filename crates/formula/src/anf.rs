//! Algebraic normal form (ANF) — XOR of AND-monomials over GF(2).
//!
//! ANF is a *canonical* representation: a formula is unsatisfiable exactly
//! when its ANF is the empty polynomial, and two formulas are equivalent
//! exactly when their ANFs are equal. Normalising a formula graph into ANF
//! therefore yields a complete decision procedure for the verification
//! conditions of the paper's §6.1 — one of the three backends this
//! reproduction offers in place of CVC5/Bitwuzla.
//!
//! Monomials are hash-consed in the store of an [`AnfCache`], as PolyBoRi's
//! ZDDs share them (Brickenstein and Dreyer, J. Symb. Comput. 2009): a
//! monomial is one (prefix, largest variable) node, and a polynomial is a
//! sorted run of `u32` monomial ids.
//!
//! The representation can blow up exponentially (e.g. carry chains of wide
//! adders), so every conversion takes a term cap and fails gracefully with
//! [`AnfOverflow`]; callers treat that as "backend inapplicable".

use crate::arena::{Arena, Node, NodeId, NodeRemap, Var};
use std::collections::HashMap;
use std::fmt;

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

/// A polynomial over GF(2) in algebraic normal form: the ids of its
/// monomials in the store of the [`AnfCache`] that made it. Within one
/// cache, equal polynomials compare equal; the ids mean nothing to
/// another cache.
///
/// # Examples
///
/// ```
/// use qb_formula::AnfCache;
/// let mut cache = AnfCache::new();
/// let x = cache.var(0);
/// let y = cache.var(1);
/// let p = x.xor(&y).xor(&x); // x ⊕ y ⊕ x = y
/// assert_eq!(p, y);
/// assert_eq!(cache.render(&x.xor(&y).not()), "1 ⊕ x0 ⊕ x1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Anf {
    /// Sorted monomial ids (0 is the constant 1); none for the zero.
    terms: Vec<u32>,
}

impl Anf {
    /// The constant polynomial `b`.
    pub fn constant(b: bool) -> Self {
        Anf {
            terms: if b { vec![0] } else { Vec::new() },
        }
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when the polynomial has no terms (as [`Anf::is_zero`]).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// `true` for the zero polynomial: the formula is unsatisfiable.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// GF(2) sum (exclusive-or) of two polynomials of one cache: a merge
    /// of their id runs that drops the ids both hold.
    pub fn xor(&self, other: &Anf) -> Anf {
        let (a, b) = (&self.terms, &other.terms);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
            if x != y {
                out.push(x.min(y));
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Anf { terms: out }
    }

    /// Logical negation: `¬p = p ⊕ 1`.
    pub fn not(&self) -> Anf {
        self.xor(&Anf::constant(true))
    }

    /// Converts the nodes reachable from `roots` into ANF, bottom-up with
    /// sharing, memoising per-node polynomials in `cache` across calls: a
    /// hash-consed [`NodeId`] denotes one function for good, so the pass
    /// stops at cached nodes (a one-off conversion passes a fresh cache).
    /// The results read through `cache` until its next conversion, which
    /// may compact the store and renumber the polynomials it holds.
    ///
    /// # Errors
    ///
    /// Returns [`AnfOverflow`] if a node's polynomial, or a product's
    /// running term count, exceeds `cap` terms.
    pub fn from_arena_cached(
        arena: &Arena,
        roots: &[NodeId],
        cap: usize,
        cache: &mut AnfCache,
    ) -> Result<Vec<Anf>, AnfOverflow> {
        cache.compact_if_sparse();
        // Descend only into nodes without a memoised polynomial.
        let mut visited = vec![false; arena.len()];
        let mut need: Vec<NodeId> = Vec::new();
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut visited[id.index()], true) {
                continue;
            } else if cache.stamp(id) {
                cache.counts.hits += 1;
                continue;
            }
            need.push(id);
            stack.extend_from_slice(arena.children(id));
        }
        // Children precede parents; oversized polynomials live in `local`.
        need.sort_unstable();
        let mut local: Map<Anf> = HashMap::new();
        type Map<T> = HashMap<NodeId, T>;
        fn poly<'a>(id: NodeId, local: &'a Map<Anf>, map: &'a Map<AnfEntry>) -> &'a Anf {
            let cached = map.get(&id).map(|e| &e.poly);
            local.get(&id).or(cached).expect("children precede parents")
        }
        for id in need {
            let anf = match arena.node(id) {
                Node::Const(b) => Anf::constant(b),
                Node::Var(v) => cache.var(v),
                Node::And(children) => {
                    let mut acc = vec![0];
                    for c in children {
                        let child = &poly(*c, &local, &cache.map).terms;
                        acc = cache.store.mul(&acc, child, cap)?;
                    }
                    Anf { terms: acc }
                }
                Node::Xor(children, parity) => {
                    let sum = |acc: Anf, c: &NodeId| acc.xor(poly(*c, &local, &cache.map));
                    let acc = children.iter().fold(Anf::constant(parity), sum);
                    if acc.len() > cap {
                        return Err(AnfOverflow { cap });
                    }
                    acc
                }
            };
            if let Some(oversized) = cache.admit(id, anf) {
                local.insert(id, oversized);
            }
        }
        let out = roots
            .iter()
            .map(|r| poly(*r, &local, &cache.map).clone())
            .collect();
        // Stamped last, the roots survive this batch's eviction.
        for r in roots {
            cache.stamp(*r);
        }
        cache.evict_over_capacity();
        Ok(out)
    }
}

/// The hash-consed monomials of one [`AnfCache`]: id 0 is the empty
/// product `1`, id `i > 0` is `prefix[i] · x_top[i]` with `top[i]` above
/// every variable of `prefix[i]`, an older (smaller) id.
#[derive(Debug, Clone, Default)]
struct Store {
    prefix: Vec<u32>,
    top: Vec<Var>,
    /// Per-monomial stamps: a product's toggles, a mark pass's visits.
    mark: Vec<u32>,
    epoch: u32,
    /// Open-addressed cons table of ids (0 is empty), at most half full.
    table: Vec<u32>,
    /// Lossy product memo, direct-mapped: `[a, b, a·b]` with `a < b`.
    memo: Vec<[u32; 3]>,
    /// Reused buffers: a chain walk's steps, a product's toggled ids, and
    /// a lexicographic sort's variables, (start, end, id) spans and ids.
    steps: Vec<(Var, u32)>,
    touched: Vec<u32>,
    lex: Vec<Var>,
    spans: Vec<(usize, usize, u32)>,
    order: Vec<u32>,
}

/// Slots of the product memo.
const PRODUCT_MEMO_SLOTS: usize = 1 << 12;

fn hash(a: u32, b: u32) -> usize {
    ((u64::from(a) << 32 | u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
}

impl Store {
    fn new() -> Self {
        Store {
            prefix: vec![0],
            top: vec![0],
            mark: vec![0],
            memo: vec![[0; 3]; PRODUCT_MEMO_SLOTS],
            ..Store::default()
        }
    }

    fn len(&self) -> usize {
        self.prefix.len()
    }

    /// The monomial `prefix · x_var`; `var` lies above every variable of
    /// `prefix`.
    fn cons(&mut self, prefix: u32, var: Var) -> u32 {
        if 2 * self.len() >= self.table.len() {
            self.rehash((2 * self.table.len()).max(64));
        }
        let mask = self.table.len() - 1;
        let mut slot = hash(prefix, var) & mask;
        while self.table[slot] != 0 {
            let id = self.table[slot];
            if self.prefix[id as usize] == prefix && self.top[id as usize] == var {
                return id;
            }
            slot = (slot + 1) & mask;
        }
        self.table[slot] = self.len() as u32;
        self.prefix.push(prefix);
        self.top.push(var);
        self.mark.push(0);
        self.table[slot]
    }

    fn rehash(&mut self, slots: usize) {
        self.table = vec![0; slots];
        for id in 1..self.len() {
            let mut slot = hash(self.prefix[id], self.top[id]) & (slots - 1);
            while self.table[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            self.table[slot] = id as u32;
        }
    }

    /// A fresh stamp pair for [`Store::mark`]: `(off, on)`.
    fn next_epoch(&mut self) -> (u32, u32) {
        if self.epoch >= u32::MAX - 2 {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        (self.epoch - 1, self.epoch)
    }

    /// Conses the `steps` (taken top-down) back onto `base`; a step whose
    /// node already sits on `base` is that node, with no lookup.
    fn rebuild(&mut self, mut base: u32, steps: &[(Var, u32)]) -> u32 {
        for &(var, node) in steps.iter().rev() {
            let on_base = self.prefix[node as usize] == base;
            base = if on_base { node } else { self.cons(base, var) };
        }
        base
    }

    /// The product of two monomials (`x² = x`): a loop down both prefix
    /// chains that takes the larger top variable each step, until a chain
    /// ends or the two meet, then conses the taken variables back. So
    /// `m·x` with `x` above `m` is one lookup, and nothing recurses.
    fn mono_mul(&mut self, a: u32, b: u32) -> u32 {
        let (a, b) = (a.min(b), a.max(b));
        if a == 0 || a == b {
            return b;
        }
        let slot = hash(a, b) & (PRODUCT_MEMO_SLOTS - 1);
        if self.memo[slot][..2] == [a, b] {
            return self.memo[slot][2];
        }
        let mut steps = std::mem::take(&mut self.steps);
        steps.clear();
        let (mut x, mut y) = (a as usize, b as usize);
        while x != 0 && y != 0 && x != y {
            let (tx, ty) = (self.top[x], self.top[y]);
            let node = if tx >= ty { x } else { y };
            steps.push((tx.max(ty), node as u32));
            x = if tx >= ty { self.prefix[x] as usize } else { x };
            y = if ty >= tx { self.prefix[y] as usize } else { y };
        }
        let m = self.rebuild(x.max(y) as u32, &steps);
        self.steps = steps;
        self.memo[slot] = [a, b, m];
        m
    }

    /// `m` with `var` removed, or `None` when `m` lacks it.
    fn without(&mut self, m: u32, var: Var) -> Option<u32> {
        let mut steps = std::mem::take(&mut self.steps);
        steps.clear();
        let mut x = m as usize;
        while x != 0 && self.top[x] > var {
            steps.push((self.top[x], x as u32));
            x = self.prefix[x] as usize;
        }
        let found = (x != 0 && self.top[x] == var).then(|| self.rebuild(self.prefix[x], &steps));
        self.steps = steps;
        found
    }

    /// `a` then `b`, each sorted lexicographically by its terms' variables,
    /// in the `order` buffer (for the caller to put back).
    fn lex_order(&mut self, a: &[u32], b: &[u32]) -> Vec<u32> {
        let (mut vars, mut spans) = (
            std::mem::take(&mut self.lex),
            std::mem::take(&mut self.spans),
        );
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        vars.clear();
        for terms in [a, b] {
            for &m in terms {
                let start = vars.len();
                vars.extend(self.chain(m).map(|m| self.top[m as usize]));
                vars[start..].reverse();
                spans.push((start, vars.len(), m));
            }
            spans.sort_unstable_by(|x, y| vars[x.0..x.1].cmp(&vars[y.0..y.1]));
            order.extend(spans.drain(..).map(|s| s.2));
        }
        (self.lex, self.spans) = (vars, spans);
        order
    }

    /// Toggles the product of every pair of `a × b` in [`Store::mark`]
    /// under a fresh epoch, listing first-touched ids in `touched`, until
    /// `stop(live, left)` holds for the running term count and the pairs
    /// left. Returns the `on` stamp, or `None` when stopped.
    fn toggle(&mut self, a: &[u32], b: &[u32], stop: impl Fn(usize, usize) -> bool) -> Option<u32> {
        let (off, on) = self.next_epoch();
        self.touched.clear();
        let (mut live, mut left) = (0usize, a.len() * b.len());
        for (&x, &y) in a.iter().flat_map(|x| b.iter().map(move |y| (x, y))) {
            let m = self.mono_mul(x, y);
            let stamp = &mut self.mark[m as usize];
            if *stamp != off && *stamp != on {
                self.touched.push(m);
            }
            live = if *stamp == on { live - 1 } else { live + 1 };
            *stamp = if *stamp == on { off } else { on };
            left -= 1;
            if stop(live, left) {
                return None;
            }
        }
        Some(on)
    }

    /// GF(2) product of two id runs. It fails past `4 · cap` pairs, or
    /// once the running term count of a sorted term set, taking the pairs
    /// in lexicographic term order, exceeds `cap`.
    fn mul(&mut self, a: &[u32], b: &[u32], cap: usize) -> Result<Vec<u32>, AnfOverflow> {
        let pairs = a.len().saturating_mul(b.len());
        if a == [0] && b.len() <= cap {
            return Ok(b.to_vec());
        } else if pairs > 4 * cap.max(1) {
            return Err(AnfOverflow { cap });
        }
        // In id order, stopped once the pairs left cannot bring the count
        // back within `cap` (then every order overflows).
        let on = self.toggle(a, b, |live, left| live > cap + left);
        self.touched.retain(|&m| Some(self.mark[m as usize]) == on);
        let mut out = self.touched.clone();
        out.sort_unstable();
        // Only a product of more than `cap` pairs can pass `cap` on the
        // way; its count is replayed in lexicographic order.
        let mut within = on.is_some();
        if within && pairs > cap {
            let order = self.lex_order(a, b);
            let (a, b) = order.split_at(a.len());
            within = self.toggle(a, b, |live, _| live > cap).is_some();
            self.order = order;
        }
        within.then_some(out).ok_or(AnfOverflow { cap })
    }

    /// `m` and its prefixes, down to (not including) the constant 1.
    fn chain(&self, m: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(m), |&m| Some(self.prefix[m as usize])).take_while(|&m| m != 0)
    }

    /// The variables of `m`, ascending.
    fn vars(&self, m: u32) -> Vec<Var> {
        let mut vars: Vec<Var> = self.chain(m).map(|m| self.top[m as usize]).collect();
        vars.reverse();
        vars
    }

    /// Marks `m` and its prefix chain with `on`, pushing the top
    /// variable of each monomial not marked yet onto `tops`.
    fn mark_chain(&mut self, mut m: u32, on: u32, tops: &mut Vec<Var>) {
        while m != 0 && self.mark[m as usize] != on {
            self.mark[m as usize] = on;
            tops.push(self.top[m as usize]);
            m = self.prefix[m as usize];
        }
    }
}

/// A memoised polynomial and the logical time of its last use (LRU order).
#[derive(Debug, Clone)]
struct AnfEntry {
    poly: Anf,
    last_used: u64,
}

/// Reuse counters of an [`AnfCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnfCacheStats {
    /// Polynomials currently memoised.
    pub cached_polys: usize,
    /// Total terms across the memoised polynomials.
    pub cached_terms: usize,
    /// Monomials held by the store, the constant 1 included.
    pub monomials: usize,
    /// Nodes answered from the cache.
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

/// The monomial store is never compacted below this many monomials.
pub const ANF_STORE_FLOOR: usize = 1 << 16;

/// A size-bounded memo of per-node ANF polynomials keyed by [`NodeId`]
/// (see [`Anf::from_arena_cached`]), evicted least-recently-used in
/// batches and following `Arena::collect` through
/// [`AnfCache::remap_nodes`]; and the monomial store they point into,
/// which a conversion first compacts once it holds more than twice the
/// monomials the memoised polynomials use, above [`ANF_STORE_FLOOR`].
#[derive(Debug, Clone)]
pub struct AnfCache {
    map: HashMap<NodeId, AnfEntry>,
    store: Store,
    /// Store size above which the next conversion looks for garbage.
    compact_at: usize,
    clock: u64,
    cap: usize,
    /// The hit, miss and eviction counters.
    counts: AnfCacheStats,
}

impl Default for AnfCache {
    fn default() -> Self {
        AnfCache::new()
    }
}

impl AnfCache {
    /// Creates a cache with the default entry bound.
    pub fn new() -> Self {
        AnfCache {
            map: HashMap::new(),
            store: Store::new(),
            compact_at: ANF_STORE_FLOOR,
            clock: 0,
            cap: ANF_CACHE_CAPACITY,
            counts: AnfCacheStats::default(),
        }
    }

    /// Rebounds the cache to `cap` entries, evicting immediately.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap.max(1);
        self.evict_over_capacity();
    }

    /// Reuse counters.
    pub fn stats(&self) -> AnfCacheStats {
        AnfCacheStats {
            cached_polys: self.map.len(),
            cached_terms: self.map.values().map(|e| e.poly.len()).sum(),
            monomials: self.store.len(),
            ..self.counts
        }
    }

    /// The polynomial consisting of a single variable.
    pub fn var(&mut self, v: Var) -> Anf {
        Anf {
            terms: vec![self.store.cons(0, v)],
        }
    }

    /// GF(2) product.
    ///
    /// # Errors
    ///
    /// [`AnfOverflow`] past `4 · cap` term pairs, or once the running
    /// term count exceeds `cap`.
    pub fn mul(&mut self, a: &Anf, b: &Anf, cap: usize) -> Result<Anf, AnfOverflow> {
        let terms = self.store.mul(&a.terms, &b.terms, cap)?;
        Ok(Anf { terms })
    }

    /// The sorted support: every variable some term mentions. ANF is
    /// canonical, so these are exactly the variables the function
    /// depends on.
    pub fn support(&mut self, p: &Anf) -> Vec<Var> {
        let (_, on) = self.store.next_epoch();
        let mut vars = Vec::new();
        for &m in &p.terms {
            self.store.mark_chain(m, on, &mut vars);
        }
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Formal (Boolean) derivative `∂p/∂v = p[v:=0] ⊕ p[v:=1]`: the
    /// terms holding `v`, with `v` removed (distinct terms stay
    /// distinct, so nothing cancels). It is zero exactly when the
    /// function is independent of `v` — the core of condition (6.2).
    pub fn derivative(&mut self, p: &Anf, v: Var) -> Anf {
        let without = |m: &u32| self.store.without(*m, v);
        let mut terms: Vec<u32> = p.terms.iter().filter_map(without).collect();
        terms.sort_unstable();
        Anf { terms }
    }

    /// The variables to set to `1` (the rest `0`) to satisfy `p`: those of
    /// its lexicographically first minimum-degree term, a subset of no
    /// other term, so exactly one term is `1`. `None` for zero.
    pub fn satisfying_vars(&self, p: &Anf) -> Option<Vec<Var>> {
        let degree = |&m: &u32| self.store.chain(m).count();
        let min = p.terms.iter().map(degree).min()?;
        let vars = p.terms.iter().filter(|m| degree(m) == min);
        vars.map(|&m| self.store.vars(m)).min()
    }

    /// The terms of `p` as ascending variable lists, in lexicographic
    /// order (the constant 1 is the empty list, first).
    pub fn terms(&self, p: &Anf) -> Vec<Vec<Var>> {
        let mut terms: Vec<Vec<Var>> = p.terms.iter().map(|&m| self.store.vars(m)).collect();
        terms.sort_unstable();
        terms
    }

    /// `p` written out, terms in lexicographic order: `1 ⊕ x0·x2`, or
    /// `0`.
    pub fn render(&self, p: &Anf) -> String {
        let var = |v: &Var| format!("x{v}");
        let term = |t: Vec<Var>| t.iter().map(var).reduce(|a, b| a + "·" + &b);
        let terms = self
            .terms(p)
            .into_iter()
            .map(|t| term(t).unwrap_or("1".into()));
        terms.reduce(|a, b| a + " ⊕ " + &b).unwrap_or("0".into())
    }

    /// Stamps `id` as used; returns whether it is cached.
    fn stamp(&mut self, id: NodeId) -> bool {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&id).map(|e| e.last_used = clock).is_some()
    }

    /// Admits a freshly computed polynomial, or hands it back when it
    /// is oversized.
    fn admit(&mut self, id: NodeId, poly: Anf) -> Option<Anf> {
        self.counts.misses += 1;
        if poly.len() > ANF_CACHE_MAX_TERMS {
            return Some(poly);
        }
        self.clock += 1;
        let last_used = self.clock;
        self.map.insert(id, AnfEntry { poly, last_used });
        None
    }

    /// Keeps the cache within its LRU bound (batch eviction down to ¾
    /// capacity, amortising the stamp sort).
    fn evict_over_capacity(&mut self) {
        self.counts.evictions +=
            crate::lru_evict_batch(&mut self.map, self.cap, |e| e.last_used, |_, _| {});
    }

    /// Compacts the store once it outgrows the last pass's threshold and
    /// more than half of it is garbage (the live monomials are the
    /// memoised polynomials' terms and their prefixes). Renumbering
    /// keeps id order, so every memoised run stays sorted.
    fn compact_if_sparse(&mut self) {
        if self.store.len() <= self.compact_at {
            return;
        }
        let (_, on) = self.store.next_epoch();
        let mut tops = Vec::new();
        for &m in self.map.values().flat_map(|e| &e.poly.terms) {
            self.store.mark_chain(m, on, &mut tops);
        }
        let live = tops.len() + 1;
        self.compact_at = ANF_STORE_FLOOR.max(2 * live);
        if self.store.len() <= 2 * live {
            return;
        }
        // Keep the marked monomials (every prefix of one is marked),
        // renumbered in order.
        let store = &mut self.store;
        let mut renumber = vec![0u32; store.len()];
        let mut next = 1;
        for old in 1..store.len() {
            if store.mark[old] == on {
                renumber[old] = next as u32;
                store.prefix[next] = renumber[store.prefix[old] as usize];
                store.top[next] = store.top[old];
                next += 1;
            }
        }
        store.prefix.truncate(next);
        store.top.truncate(next);
        (store.mark, store.epoch) = (vec![0; next], 0);
        store.rehash((2 * next + 1).next_power_of_two().max(64));
        store.memo.fill([0; 3]);
        for m in self.map.values_mut().flat_map(|e| &mut e.poly.terms) {
            *m = renumber[*m as usize];
        }
    }

    /// Follows a formula-arena collection: keys are rewritten through
    /// `remap` and entries whose node was reclaimed are dropped.
    pub fn remap_nodes(&mut self, remap: &NodeRemap) {
        let before = self.map.len();
        let map = std::mem::take(&mut self.map).into_iter();
        self.map = map
            .filter_map(|(id, e)| Some((remap.remap(id)?, e)))
            .collect();
        self.counts.evictions += (before - self.map.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Simplify;

    /// One conversion of `roots` on a fresh cache.
    fn convert(f: &Arena, roots: &[NodeId], cap: usize) -> (AnfCache, Vec<Anf>) {
        let mut cache = AnfCache::new();
        let polys = Anf::from_arena_cached(f, roots, cap, &mut cache).unwrap();
        (cache, polys)
    }

    fn eval(cache: &AnfCache, p: &Anf, env: &[bool]) -> bool {
        cache
            .terms(p)
            .iter()
            .fold(false, |acc, t| acc ^ t.iter().all(|&v| env[v as usize]))
    }

    #[test]
    fn xor_cancels_pairs() {
        let x = AnfCache::new().var(0);
        assert!(x.xor(&x).is_zero());
    }

    #[test]
    fn mul_is_idempotent_on_vars() {
        let mut cache = AnfCache::new();
        let x = cache.var(0);
        let xx = cache.mul(&x, &x, 100).unwrap();
        assert_eq!(xx, x);
    }

    #[test]
    fn distributes() {
        // (x ⊕ y)·z = xz ⊕ yz
        let mut c = AnfCache::new();
        let (x, y, z) = (c.var(0), c.var(1), c.var(2));
        let lhs = c.mul(&x.xor(&y), &z, 100).unwrap();
        let rhs = c
            .mul(&x, &z, 100)
            .unwrap()
            .xor(&c.mul(&y, &z, 100).unwrap());
        assert_eq!(lhs, rhs);
        assert_eq!(c.render(&lhs), "x0·x2 ⊕ x1·x2");
    }

    #[test]
    fn derivative_detects_dependence() {
        // p = x ⊕ yz depends on x, y, z but not w.
        let mut c = AnfCache::new();
        let (x, y, z) = (c.var(0), c.var(1), c.var(2));
        let p = x.xor(&c.mul(&y, &z, 10).unwrap());
        assert!(!c.derivative(&p, 0).is_zero());
        assert!(!c.derivative(&p, 1).is_zero());
        assert!(c.derivative(&p, 3).is_zero());
        // ∂p/∂x = 1, ∂p/∂y = z.
        assert_eq!(c.derivative(&p, 0), Anf::constant(true));
        assert_eq!(c.derivative(&p, 1), z);
        // The support is exactly the variables with a nonzero derivative.
        assert_eq!(c.support(&p), vec![0, 1, 2]);
        assert!(c.support(&Anf::constant(true)).is_empty());
    }

    #[test]
    fn cofactor_agrees_with_derivative() {
        // p = x ⊕ xy ⊕ 1: the ANF of p[x:=0] ⊕ p[x:=1] is ∂p/∂x.
        let mut f = Arena::new(Simplify::Raw);
        let (x, y) = (f.var(0), f.var(1));
        let xy = f.and2(x, y);
        let t = f.xor2(x, xy);
        let p = f.not(t);
        let p0 = f.cofactor(p, 0, false);
        let p1 = f.cofactor(p, 0, true);
        let d = f.xor2(p0, p1);
        let (mut cache, polys) = convert(&f, &[p, d], 1 << 10);
        assert_eq!(cache.derivative(&polys[0], 0), polys[1]);
        assert_eq!(cache.render(&polys[1]), "1 ⊕ x1");
    }

    #[test]
    fn overflow_is_reported() {
        // Product of t many disjoint (xᵢ ⊕ yᵢ) factors has 2^t terms.
        let mut c = AnfCache::new();
        let mut acc = Anf::constant(true);
        let mut failed = false;
        for i in 0..20 {
            let f = c.var(2 * i).xor(&c.var(2 * i + 1));
            match c.mul(&acc, &f, 64) {
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
        let mut c = AnfCache::new();
        let monomials: Vec<Anf> = (0..8u32)
            .map(|m| {
                (0..3)
                    .filter(|v| m & (1 << v) != 0)
                    .fold(Anf::constant(true), |acc, v| {
                        let x = c.var(v);
                        c.mul(&acc, &x, 8).unwrap()
                    })
            })
            .collect();
        for subset in 0..256u32 {
            let p = (0..8)
                .filter(|i| subset & (1 << i) != 0)
                .fold(Anf::constant(false), |acc, i| acc.xor(&monomials[i]));
            match c.satisfying_vars(&p) {
                None => assert!(p.is_zero()),
                Some(ones) => {
                    let env: Vec<bool> = (0..3).map(|v| ones.contains(&v)).collect();
                    assert!(eval(&c, &p, &env), "{} at {env:?}", c.render(&p));
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
            let (cache, polys) = convert(&f, &[root], 1000);
            for bits in 0..8u32 {
                let env = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
                assert_eq!(
                    eval(&cache, &polys[0], &env),
                    f.eval(root, &env),
                    "{mode:?}"
                );
            }
        }
    }

    #[test]
    fn canonical_unsat_detection() {
        let mut f = Arena::new(Simplify::Raw);
        let x = f.var(0);
        let nx = f.not(x);
        let contradiction = f.and2(x, nx);
        let (_, polys) = convert(&f, &[contradiction], 100);
        assert!(polys[0].is_zero());
    }

    #[test]
    fn display_renders_terms() {
        // Ids follow creation order; the rendering is lexicographic.
        let mut c = AnfCache::new();
        let (x2, x1, x0) = (c.var(2), c.var(1), c.var(0));
        let x0x2 = c.mul(&x0, &x2, 8).unwrap();
        let p = x2.xor(&x1).xor(&x0x2).not();
        assert_eq!(c.render(&p), "1 ⊕ x0·x2 ⊕ x1 ⊕ x2");
        assert_eq!(c.render(&Anf::constant(false)), "0");
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
            let (fresh, plain) = convert(&f, &[r1, r2], 1 << 16);
            for (a, b) in cached.iter().zip(&plain) {
                assert_eq!(cache.terms(a), fresh.terms(b), "mode {mode:?}");
            }
            // Warm re-conversion answers from the cache without fresh work.
            let misses = cache.stats().misses;
            let again = Anf::from_arena_cached(&f, &[r1, r2], 1 << 16, &mut cache).unwrap();
            assert_eq!(again, cached);
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
        let mut cache = {
            let mut c = AnfCache::new();
            c.set_capacity(8);
            c
        };
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
            !cache.map.contains_key(&root),
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

    #[test]
    fn a_batch_keeps_its_own_roots() {
        // Eight roots, each over its own cone, through a cache of four:
        // the batch's eviction drops inner nodes, never the roots.
        let mut f = Arena::new(Simplify::Raw);
        let roots: Vec<NodeId> = (0..8u32)
            .map(|i| {
                let (a, b, c) = (f.var(3 * i), f.var(3 * i + 1), f.var(3 * i + 2));
                let ab = f.xor2(a, b);
                f.and2(ab, c)
            })
            .collect();
        let mut cache = {
            let mut c = AnfCache::new();
            c.set_capacity(12);
            c
        };
        Anf::from_arena_cached(&f, &roots, 1 << 10, &mut cache).unwrap();
        assert!(cache.stats().evictions > 0, "{:?}", cache.stats());
        let misses = cache.stats().misses;
        Anf::from_arena_cached(&f, &roots, 1 << 10, &mut cache).unwrap();
        assert_eq!(cache.stats().misses, misses, "every root answered warm");
    }

    #[test]
    fn products_are_loops_not_recursion() {
        // Degree-20000 monomials: a recursive chain walk would need a
        // stack frame per variable.
        let mut f = Arena::new(Simplify::Raw);
        let evens: Vec<NodeId> = (0..20_000).map(|v| f.var(2 * v)).collect();
        let odds: Vec<NodeId> = (0..20_000).map(|v| f.var(2 * v + 1)).collect();
        let (a, b) = (f.and(&evens), f.and(&odds));
        let ab = f.and2(a, b);
        let root = f.xor2(ab, a);
        let handle = std::thread::Builder::new()
            .stack_size(64 << 10)
            .spawn(move || {
                let (mut cache, polys) = convert(&f, &[root], 16);
                let d = cache.derivative(&polys[0], 1);
                (cache.satisfying_vars(&polys[0]).unwrap().len(), d.len())
            })
            .unwrap();
        assert_eq!(handle.join().unwrap(), (20_000, 1));
    }

    #[test]
    fn store_compaction_keeps_sorted_polynomials() {
        // Distinct 2^k-term products churn the store past its floor; an
        // LRU of four keeps few of them alive, so the store compacts.
        let mut f = Arena::new(Simplify::Raw);
        let mut roots = Vec::new();
        for r in 0..40u32 {
            let factors: Vec<NodeId> = (0..11)
                .map(|i| {
                    let a = f.var(40 * r + 2 * i);
                    let b = f.var(40 * r + 2 * i + 1);
                    f.xor2(a, b)
                })
                .collect();
            roots.push(f.and(&factors));
        }
        let mut cache = {
            let mut c = AnfCache::new();
            c.set_capacity(4);
            c
        };
        let mut peak = 0;
        let mut kept = Vec::new();
        for (i, r) in roots.iter().enumerate() {
            let p = Anf::from_arena_cached(&f, &[*r], 1 << 12, &mut cache).unwrap();
            peak = peak.max(cache.stats().monomials);
            if i == 0 {
                kept = cache.terms(&p[0]);
            }
        }
        assert!(
            cache.stats().monomials < 2 * ANF_STORE_FLOOR,
            "{:?}",
            cache.stats()
        );
        assert!(peak > ANF_STORE_FLOOR, "the churn passed the floor: {peak}");
        // Memoised runs stay sorted through renumbering, and a root
        // reconverted after compaction reads the same terms.
        for e in cache.map.values() {
            assert!(e.poly.terms.windows(2).all(|w| w[0] < w[1]));
        }
        let again = Anf::from_arena_cached(&f, &roots[..1], 1 << 12, &mut cache).unwrap();
        assert_eq!(cache.terms(&again[0]), kept);
    }
}
