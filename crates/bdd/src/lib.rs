//! # qb-bdd
//!
//! A session-grade reduced-ordered-BDD manager — the persistent BDD
//! backend of the safe-uncomputation verifier.
//!
//! BDDs are canonical for a fixed variable order, so checking the paper's
//! conditions becomes structural:
//!
//! * condition (6.1) — `b_q ∧ ¬q` unsatisfiable ⟺ its BDD is the `0`
//!   terminal (with complement edges: the complemented `1` edge);
//! * condition (6.2) — every other qubit's final formula is independent
//!   of the dirty qubit `q` ⟺ `q` does not occur in that formula's BDD
//!   support (equivalently the two cofactors coincide).
//!
//! The verifier uses circuit qubit indices directly as the BDD variable
//! order, which interleaves carry and data bits of the benchmark adders
//! and keeps their diagrams polynomial.
//!
//! Unlike the throwaway builder this crate used to be, [`BddManager`] is
//! built to live for a whole verification *session*:
//!
//! * **complement edges** — negation is an O(1) bit flip, `f` and `¬f`
//!   share every node, and there is a single terminal;
//! * a **bounded computed table** for `apply`/`restrict` results,
//!   evicted least-recently-used, so a long-lived manager's memoisation
//!   state cannot grow without bound;
//! * **external reference counts** plus **mark-sweep garbage
//!   collection** ([`BddManager::collect`]) with dense renumbering and a
//!   [`BddRemap`] for handle holders, mirroring
//!   `qb_formula::Arena::collect`;
//! * a **node budget** — every constructor fails with [`BddOverflow`]
//!   instead of blowing up, which is what lets an auto-portfolio backend
//!   try BDDs first and fall back to SAT;
//! * [`BddSession`] — a manager plus a memoised, LRU-bounded
//!   formula-arena→BDD translation cache keyed by `qb_formula::NodeId`,
//!   following `Arena::collect`'s [`NodeRemap`] so warm diagrams survive
//!   formula-graph GC.

use qb_formula::{Arena, Node, NodeId as FormulaId, NodeRemap, Var};
use qb_sat::CancelToken;
use std::collections::HashMap;

/// Error raised when a construction would exceed the manager's node
/// budget. Callers treat it as "backend inapplicable" (the auto
/// ladder moves down to SAT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddOverflow {
    /// The node budget that was exceeded.
    pub budget: usize,
}

impl std::fmt::Display for BddOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BDD node count exceeded budget of {}", self.budget)
    }
}

impl std::error::Error for BddOverflow {}

/// Error raised by [`BddSession::build`]: either the node budget
/// overflowed, or an installed [`CancelToken`] interrupted the build
/// (deadline, budget or explicit cancel). Both roll the partially built
/// cone back, leaving the session reusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BddBuildError {
    /// The manager's node budget was exceeded.
    Overflow(BddOverflow),
    /// The build was interrupted by the installed [`CancelToken`]
    /// before completing; no verdict is implied.
    Interrupted,
}

impl std::fmt::Display for BddBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BddBuildError::Overflow(o) => o.fmt(f),
            BddBuildError::Interrupted => write!(f, "BDD build interrupted by cancellation"),
        }
    }
}

impl std::error::Error for BddBuildError {}

impl From<BddOverflow> for BddBuildError {
    fn from(o: BddOverflow) -> Self {
        BddBuildError::Overflow(o)
    }
}

/// An edge to a BDD node, with a complement bit in the low bit.
///
/// With complement edges there is a single terminal node (index 0);
/// [`BddRef::TRUE`] is its regular edge and [`BddRef::FALSE`] its
/// complemented edge. Negation is [`BddRef::complement`] — an O(1) bit
/// flip that allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-true function (regular edge to the terminal).
    pub const TRUE: BddRef = BddRef(0);
    /// The constant-false function (complemented edge to the terminal).
    pub const FALSE: BddRef = BddRef(1);

    #[inline]
    fn new(index: u32, complement: bool) -> BddRef {
        BddRef(index << 1 | complement as u32)
    }

    /// The index of the node this edge points to.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the edge carries a complement.
    #[inline]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Logical negation — flips the complement bit, allocating nothing.
    #[inline]
    #[must_use]
    pub fn complement(self) -> BddRef {
        BddRef(self.0 ^ 1)
    }

    /// This edge with the complement bit cleared.
    #[inline]
    fn regular(self) -> BddRef {
        BddRef(self.0 & !1)
    }

    /// Complements the edge when `c` is true.
    #[inline]
    fn complement_if(self, c: bool) -> BddRef {
        BddRef(self.0 ^ c as u32)
    }

    /// Returns `true` for the two terminal edges.
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Returns `true` for the constant-false function.
    #[inline]
    pub fn is_false(self) -> bool {
        self == BddRef::FALSE
    }

    /// Returns `true` for the constant-true function.
    #[inline]
    pub fn is_true(self) -> bool {
        self == BddRef::TRUE
    }
}

/// An interned decision node. The `hi` (then) edge is always regular —
/// the normalisation that makes complement-edge BDDs canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BddNode {
    var: Var,
    lo: BddRef,
    hi: BddRef,
}

/// Binary connective selector for [`BddManager::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BddOp {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Exclusive or.
    Xor,
}

/// Computed-table operation tags (`restrict` reuses the table with the
/// variable/value packed into the second operand slot).
const OP_AND: u8 = 0;
const OP_XOR: u8 = 1;
const OP_RESTRICT0: u8 = 2;
const OP_RESTRICT1: u8 = 3;

/// A bounded, LRU-evicted memo table for `apply`/`restrict` results.
/// Keys hold raw edge words, so the table must be cleared (not remapped)
/// across [`BddManager::collect`].
#[derive(Debug, Clone)]
struct ComputedTable {
    map: HashMap<(u8, u32, u32), CacheSlot>,
    clock: u64,
    cap: usize,
    evictions: u64,
}

#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    result: BddRef,
    last_used: u64,
}

impl ComputedTable {
    fn new(cap: usize) -> Self {
        ComputedTable {
            map: HashMap::new(),
            clock: 0,
            cap: cap.max(16),
            evictions: 0,
        }
    }

    fn get(&mut self, key: (u8, u32, u32)) -> Option<BddRef> {
        self.clock += 1;
        let slot = self.map.get_mut(&key)?;
        slot.last_used = self.clock;
        Some(slot.result)
    }

    fn insert(&mut self, key: (u8, u32, u32), result: BddRef) {
        self.clock += 1;
        self.map.insert(
            key,
            CacheSlot {
                result,
                last_used: self.clock,
            },
        );
        self.evictions +=
            qb_formula::lru_evict_batch(&mut self.map, self.cap, |s| s.last_used, |_, _| {});
    }

    fn clear(&mut self) {
        self.map.clear();
    }
}

/// The dense old→new edge mapping produced by [`BddManager::collect`].
#[derive(Debug, Clone)]
pub struct BddRemap {
    /// `map[old_index]` is the surviving node's new index.
    map: Vec<Option<u32>>,
    live: usize,
}

impl BddRemap {
    /// The new edge for `old`, preserving its complement bit, or `None`
    /// if the node was collected.
    #[inline]
    pub fn remap(&self, old: BddRef) -> Option<BddRef> {
        self.map
            .get(old.index())
            .copied()
            .flatten()
            .map(|idx| BddRef::new(idx, old.is_complemented()))
    }

    /// Number of nodes that survived collection.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of nodes the collection reclaimed.
    pub fn collected(&self) -> usize {
        self.map.len() - self.live
    }
}

/// A shared-node BDD manager with complement edges.
///
/// Nodes are hash-consed against a unique table, so semantic equality of
/// functions is equality of [`BddRef`]s (including the complement bit).
///
/// # Examples
///
/// ```
/// use qb_bdd::{BddManager, BddOp, BddRef};
/// let mut m = BddManager::new();
/// let x = m.var(0).unwrap();
/// let y = m.var(1).unwrap();
/// let a = m.apply(BddOp::Xor, x, y).unwrap();
/// let b = m.apply(BddOp::Xor, y, x).unwrap();
/// assert_eq!(a, b); // canonical
/// let back = m.apply(BddOp::Xor, a, y).unwrap();
/// assert_eq!(back, x); // x ⊕ y ⊕ y = x
/// assert_eq!(m.not(x), x.complement()); // negation is free
/// ```
#[derive(Debug, Clone)]
pub struct BddManager {
    nodes: Vec<BddNode>,
    unique: HashMap<(Var, BddRef, BddRef), u32>,
    cache: ComputedTable,
    /// External reference counts by node index (GC roots).
    refs: Vec<u32>,
    node_budget: usize,
    collections: u64,
    nodes_collected: u64,
    applies: u64,
}

impl Default for BddManager {
    fn default() -> Self {
        BddManager::new()
    }
}

/// Default bound on memoised apply/restrict results.
const COMPUTED_TABLE_CAPACITY: usize = 1 << 16;

impl BddManager {
    /// Creates an unbudgeted manager containing only the terminal.
    pub fn new() -> Self {
        BddManager::with_budget(usize::MAX)
    }

    /// Creates a manager whose constructors fail with [`BddOverflow`]
    /// once `node_budget` nodes are resident.
    pub fn with_budget(node_budget: usize) -> Self {
        BddManager {
            // Index 0 is the terminal sentinel.
            nodes: vec![BddNode {
                var: Var::MAX,
                lo: BddRef::TRUE,
                hi: BddRef::TRUE,
            }],
            unique: HashMap::new(),
            cache: ComputedTable::new(COMPUTED_TABLE_CAPACITY),
            refs: vec![0],
            node_budget: node_budget.max(2),
            collections: 0,
            nodes_collected: 0,
            applies: 0,
        }
    }

    /// Resident node count (including the terminal and any garbage not
    /// yet collected).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when only the terminal exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The configured node budget.
    pub fn node_budget(&self) -> usize {
        self.node_budget
    }

    /// Bounds the computed table to `cap` memoised results.
    pub fn set_computed_table_capacity(&mut self, cap: usize) {
        self.cache.cap = cap.max(16);
    }

    /// Mark-sweep collections performed over the manager's lifetime.
    pub fn collections(&self) -> u64 {
        self.collections
    }

    /// Total nodes reclaimed across all collections.
    pub fn nodes_collected(&self) -> u64 {
        self.nodes_collected
    }

    /// Computed-table entries dropped by LRU eviction.
    pub fn computed_evictions(&self) -> u64 {
        self.cache.evictions
    }

    /// Apply steps (including recursive cofactor expansions) performed
    /// over the manager's lifetime.
    pub fn applies(&self) -> u64 {
        self.applies
    }

    /// The terminal edge for `b`.
    pub fn constant(&self, b: bool) -> BddRef {
        if b {
            BddRef::TRUE
        } else {
            BddRef::FALSE
        }
    }

    /// Interns `(var, lo, hi)`, normalising the complement of the `hi`
    /// edge onto the output edge.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] when a fresh node would exceed the budget.
    fn mk(&mut self, var: Var, lo: BddRef, hi: BddRef) -> Result<BddRef, BddOverflow> {
        if lo == hi {
            return Ok(lo);
        }
        // Canonical form: the hi (then) edge is never complemented.
        let (lo, hi, out) = if hi.is_complemented() {
            (lo.complement(), hi.complement(), true)
        } else {
            (lo, hi, false)
        };
        if let Some(&idx) = self.unique.get(&(var, lo, hi)) {
            return Ok(BddRef::new(idx, out));
        }
        if self.nodes.len() >= self.node_budget {
            return Err(BddOverflow {
                budget: self.node_budget,
            });
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(BddNode { var, lo, hi });
        self.refs.push(0);
        self.unique.insert((var, lo, hi), idx);
        Ok(BddRef::new(idx, out))
    }

    /// The single-variable function `v`.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] past the node budget.
    pub fn var(&mut self, v: Var) -> Result<BddRef, BddOverflow> {
        self.mk(v, BddRef::FALSE, BddRef::TRUE)
    }

    /// Negation — free with complement edges.
    pub fn not(&mut self, x: BddRef) -> BddRef {
        x.complement()
    }

    #[inline]
    fn var_of(&self, x: BddRef) -> Var {
        self.nodes[x.index()].var
    }

    /// The `top`-variable cofactors of `x` (identity when `x`'s root is
    /// below `top`), pushing the edge complement into the children.
    #[inline]
    fn cofactors(&self, x: BddRef, top: Var) -> (BddRef, BddRef) {
        let node = &self.nodes[x.index()];
        if x.is_terminal() || node.var != top {
            return (x, x);
        }
        let c = x.is_complemented();
        (node.lo.complement_if(c), node.hi.complement_if(c))
    }

    /// Shannon-expansion apply of a binary connective.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] past the node budget.
    pub fn apply(&mut self, op: BddOp, a: BddRef, b: BddRef) -> Result<BddRef, BddOverflow> {
        match op {
            BddOp::And => self.and(a, b),
            BddOp::Xor => self.xor(a, b),
            BddOp::Or => {
                // De Morgan through the free negation.
                let r = self.and(a.complement(), b.complement())?;
                Ok(r.complement())
            }
        }
    }

    /// Conjunction.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] past the node budget.
    pub fn and(&mut self, a: BddRef, b: BddRef) -> Result<BddRef, BddOverflow> {
        self.applies += 1;
        if a.is_true() {
            return Ok(b);
        }
        if b.is_true() {
            return Ok(a);
        }
        if a.is_false() || b.is_false() {
            return Ok(BddRef::FALSE);
        }
        if a == b {
            return Ok(a);
        }
        if a == b.complement() {
            return Ok(BddRef::FALSE);
        }
        // Normalise commutative operands for better cache hits.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let key = (OP_AND, a.0, b.0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        let top = self.var_of(a).min(self.var_of(b));
        let (alo, ahi) = self.cofactors(a, top);
        let (blo, bhi) = self.cofactors(b, top);
        let lo = self.and(alo, blo)?;
        let hi = self.and(ahi, bhi)?;
        let r = self.mk(top, lo, hi)?;
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Exclusive or.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] past the node budget.
    pub fn xor(&mut self, a: BddRef, b: BddRef) -> Result<BddRef, BddOverflow> {
        self.applies += 1;
        // XOR commutes with complement: strip both complements onto the
        // result parity, then memoise on the regular pair.
        let parity = a.is_complemented() ^ b.is_complemented();
        let (a, b) = (a.regular(), b.regular());
        if a == b {
            return Ok(BddRef::FALSE.complement_if(parity));
        }
        if a.is_terminal() {
            // Regular terminal = TRUE: 1 ⊕ b = ¬b.
            return Ok(b.complement().complement_if(parity));
        }
        if b.is_terminal() {
            return Ok(a.complement().complement_if(parity));
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let key = (OP_XOR, a.0, b.0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r.complement_if(parity));
        }
        let top = self.var_of(a).min(self.var_of(b));
        let (alo, ahi) = self.cofactors(a, top);
        let (blo, bhi) = self.cofactors(b, top);
        let lo = self.xor(alo, blo)?;
        let hi = self.xor(ahi, bhi)?;
        let r = self.mk(top, lo, hi)?;
        self.cache.insert(key, r);
        Ok(r.complement_if(parity))
    }

    /// Substitutes a constant for `v` (restrict), memoised in the
    /// computed table.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] past the node budget.
    pub fn restrict(&mut self, x: BddRef, v: Var, val: bool) -> Result<BddRef, BddOverflow> {
        if x.is_terminal() {
            return Ok(x);
        }
        let node = self.nodes[x.index()];
        if node.var > v {
            // Ordered: v cannot appear below.
            return Ok(x);
        }
        let parity = x.is_complemented();
        if node.var == v {
            let child = if val { node.hi } else { node.lo };
            return Ok(child.complement_if(parity));
        }
        let op = if val { OP_RESTRICT1 } else { OP_RESTRICT0 };
        let key = (op, x.regular().0, v);
        if let Some(r) = self.cache.get(key) {
            return Ok(r.complement_if(parity));
        }
        let lo = self.restrict(node.lo, v, val)?;
        let hi = self.restrict(node.hi, v, val)?;
        let r = self.mk(node.var, lo, hi)?;
        self.cache.insert(key, r);
        Ok(r.complement_if(parity))
    }

    /// Returns `true` if the function depends on `v` (i.e. `v` labels a
    /// node reachable from `x`). Complement bits are irrelevant.
    pub fn depends_on(&self, x: BddRef, v: Var) -> bool {
        let mut stack = vec![x.index()];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(idx) = stack.pop() {
            if idx == 0 || std::mem::replace(&mut seen[idx], true) {
                continue;
            }
            let node = &self.nodes[idx];
            if node.var == v {
                return true;
            }
            if node.var < v {
                stack.push(node.lo.index());
                stack.push(node.hi.index());
            }
        }
        false
    }

    /// The sorted support (set of variables the function depends on).
    pub fn support(&self, x: BddRef) -> Vec<Var> {
        self.supports(&[x]).remove(0)
    }

    /// The sorted supports of several functions. The traversals share one
    /// dense visited array, stamped with the root's position, so the
    /// whole call costs one allocation plus the sum of the diagram sizes.
    pub fn supports(&self, roots: &[BddRef]) -> Vec<Vec<Var>> {
        let mut stamp = vec![usize::MAX; self.nodes.len()];
        let mut stack = Vec::new();
        roots
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let mut vars = Vec::new();
                stack.push(x.index());
                while let Some(idx) = stack.pop() {
                    if idx == 0 || stamp[idx] == i {
                        continue;
                    }
                    stamp[idx] = i;
                    let node = &self.nodes[idx];
                    vars.push(node.var);
                    stack.push(node.lo.index());
                    stack.push(node.hi.index());
                }
                vars.sort_unstable();
                vars.dedup();
                vars
            })
            .collect()
    }

    /// The Boolean derivative `x[0/v] ⊕ x[1/v]`: false exactly when the
    /// function is independent of `v`, and any path to true is an
    /// assignment under which flipping `v` flips the function.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] past the node budget.
    pub fn derivative(&mut self, x: BddRef, v: Var) -> Result<BddRef, BddOverflow> {
        let c0 = self.restrict(x, v, false)?;
        let c1 = self.restrict(x, v, true)?;
        self.xor(c0, c1)
    }

    /// The constant value of a terminal edge.
    #[inline]
    fn terminal_value(x: BddRef) -> bool {
        debug_assert!(x.is_terminal());
        !x.is_complemented()
    }

    /// Returns a satisfying partial assignment (pairs of variable and
    /// value along one path to true), or `None` when the function is
    /// constant false. Variables not mentioned may take any value.
    pub fn any_sat(&self, x: BddRef) -> Option<Vec<(Var, bool)>> {
        if x.is_false() {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = x;
        let mut want = true;
        while !cur.is_terminal() {
            // The regular node function must take `want` adjusted for
            // this edge's complement.
            let want_inner = want ^ cur.is_complemented();
            let node = &self.nodes[cur.index()];
            // A non-terminal child is non-constant (complement edges),
            // so it can realise either value; a terminal child must
            // already carry the wanted constant.
            if !node.lo.is_terminal() || Self::terminal_value(node.lo) == want_inner {
                path.push((node.var, false));
                cur = node.lo;
            } else {
                path.push((node.var, true));
                cur = node.hi;
            }
            want = want_inner;
        }
        debug_assert_eq!(Self::terminal_value(cur), want);
        Some(path)
    }

    /// Evaluates the function under `env` (indexed by variable).
    pub fn eval(&self, x: BddRef, env: &[bool]) -> bool {
        let mut parity = false;
        let mut cur = x;
        while !cur.is_terminal() {
            parity ^= cur.is_complemented();
            let node = &self.nodes[cur.index()];
            cur = if env[node.var as usize] {
                node.hi
            } else {
                node.lo
            };
        }
        Self::terminal_value(cur) ^ parity
    }

    /// Number of nodes reachable from `x` (a size measure for
    /// reporting; the terminal counts once, complement bits not at all).
    pub fn size(&self, x: BddRef) -> usize {
        let mut count = 0;
        let mut stack = vec![x.index()];
        let mut seen: HashMap<usize, ()> = HashMap::new();
        while let Some(idx) = stack.pop() {
            if seen.insert(idx, ()).is_some() {
                continue;
            }
            count += 1;
            if idx != 0 {
                let node = &self.nodes[idx];
                stack.push(node.lo.index());
                stack.push(node.hi.index());
            }
        }
        count
    }

    /// Takes an external reference on `x`'s node, protecting it (and its
    /// cone) across [`BddManager::collect`].
    pub fn ref_inc(&mut self, x: BddRef) {
        self.refs[x.index()] += 1;
    }

    /// Releases an external reference taken with [`BddManager::ref_inc`].
    pub fn ref_dec(&mut self, x: BddRef) {
        let r = &mut self.refs[x.index()];
        debug_assert!(*r > 0, "unbalanced ref_dec");
        *r = r.saturating_sub(1);
    }

    /// Mark-sweep garbage collection: keeps the terminal and every node
    /// reachable from an externally referenced node, renumbers survivors
    /// densely (children keep smaller indices than parents), rebuilds
    /// the unique table and clears the computed table.
    ///
    /// Every [`BddRef`] issued before the call is invalidated; holders
    /// must translate through the returned [`BddRemap`].
    pub fn collect(&mut self) -> BddRemap {
        let n = self.nodes.len();
        let mut mark = vec![false; n];
        mark[0] = true;
        let mut stack: Vec<usize> = (1..n).filter(|&i| self.refs[i] > 0).collect();
        while let Some(idx) = stack.pop() {
            if mark[idx] {
                continue;
            }
            mark[idx] = true;
            let node = &self.nodes[idx];
            stack.push(node.lo.index());
            stack.push(node.hi.index());
        }
        let mut map: Vec<Option<u32>> = vec![None; n];
        let mut kept: Vec<BddNode> = Vec::new();
        let mut kept_refs: Vec<u32> = Vec::new();
        for i in 0..n {
            if !mark[i] {
                continue;
            }
            let node = self.nodes[i];
            let remap_edge = |e: BddRef, map: &[Option<u32>]| -> BddRef {
                BddRef::new(
                    map[e.index()].expect("child of a live node is live"),
                    e.is_complemented(),
                )
            };
            let remapped = if i == 0 {
                node
            } else {
                BddNode {
                    var: node.var,
                    lo: remap_edge(node.lo, &map),
                    hi: remap_edge(node.hi, &map),
                }
            };
            map[i] = Some(kept.len() as u32);
            kept.push(remapped);
            kept_refs.push(self.refs[i]);
        }
        self.unique = kept
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, node)| ((node.var, node.lo, node.hi), i as u32))
            .collect();
        let live = kept.len();
        self.nodes = kept;
        self.refs = kept_refs;
        self.cache.clear();
        self.collections += 1;
        self.nodes_collected += (n - live) as u64;
        BddRemap { map, live }
    }
}

/// A memoised arena-node→BDD translation entry.
#[derive(Debug, Clone, Copy)]
struct TransEntry {
    bdd: BddRef,
    last_used: u64,
}

/// Reuse and residency counters of a [`BddSession`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddSessionStats {
    /// Resident manager nodes (live + uncollected garbage).
    pub resident_nodes: usize,
    /// Memoised arena-node translations currently held.
    pub cached_translations: usize,
    /// Translation-cache hits (arena nodes never re-translated).
    pub translation_hits: u64,
    /// Translation-cache misses (nodes translated this session).
    pub translation_misses: u64,
    /// Translation entries dropped by LRU eviction or arena remap.
    pub translation_evictions: u64,
    /// Manager mark-sweep collections performed.
    pub collections: u64,
    /// Total manager nodes reclaimed across collections.
    pub nodes_collected: u64,
}

/// Default bound on memoised arena-node translations.
const TRANSLATION_CACHE_CAPACITY: usize = 1 << 15;

/// Manager node count below which session GC never runs.
const BDD_GC_MIN_NODES: usize = 1 << 12;

/// Watermark growth factor for session GC pacing (semispace-style).
const BDD_GC_GROWTH: usize = 2;

/// A persistent BDD manager bound to a formula arena: translations of
/// arena nodes are memoised by `NodeId` (hash-consing makes node
/// identity semantic identity, so a warm entry answers any later query
/// over the same structure — across targets, sweeps and edits — without
/// touching the apply machinery), reference-counted into the manager,
/// LRU-bounded, and remapped through `Arena::collect`'s [`NodeRemap`].
///
/// # Examples
///
/// ```
/// use qb_bdd::BddSession;
/// use qb_formula::{Arena, Simplify};
///
/// let mut f = Arena::new(Simplify::Raw);
/// let x = f.var(0);
/// let nx = f.not(x);
/// let contra = f.and2(x, nx);
/// let mut session = BddSession::new(usize::MAX);
/// let b = session.build(&f, &[contra]).unwrap()[0];
/// assert!(b.is_false()); // canonical: unsat is the false edge
/// // A second build over the same root is answered from the cache.
/// let again = session.build(&f, &[contra]).unwrap()[0];
/// assert_eq!(b, again);
/// assert!(session.stats().translation_hits > 0);
/// ```
#[derive(Debug, Clone)]
pub struct BddSession {
    manager: BddManager,
    cache: HashMap<FormulaId, TransEntry>,
    clock: u64,
    cache_cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    gc_floor: usize,
    gc_watermark: usize,
    /// Cooperative cancellation handle, polled once per translated node.
    cancel: Option<CancelToken>,
}

impl BddSession {
    /// Creates a session whose manager fails with [`BddOverflow`] past
    /// `node_budget` resident nodes (`usize::MAX` = unbudgeted).
    pub fn new(node_budget: usize) -> Self {
        BddSession {
            manager: BddManager::with_budget(node_budget),
            cache: HashMap::new(),
            clock: 0,
            cache_cap: TRANSLATION_CACHE_CAPACITY,
            hits: 0,
            misses: 0,
            evictions: 0,
            gc_floor: BDD_GC_MIN_NODES,
            gc_watermark: BDD_GC_MIN_NODES,
            cancel: None,
        }
    }

    /// Installs (or removes) a cooperative cancellation token, polled
    /// once per translated node during [`BddSession::build`].
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The underlying manager (for support/model queries on built refs).
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }

    /// Resident manager node count.
    pub fn resident_nodes(&self) -> usize {
        self.manager.len()
    }

    /// Session counters.
    pub fn stats(&self) -> BddSessionStats {
        BddSessionStats {
            resident_nodes: self.manager.len(),
            cached_translations: self.cache.len(),
            translation_hits: self.hits,
            translation_misses: self.misses,
            translation_evictions: self.evictions,
            collections: self.manager.collections(),
            nodes_collected: self.manager.nodes_collected(),
        }
    }

    /// Tightens (or relaxes) the session's memory bounds: manager GC
    /// never runs below `gc_floor` resident nodes, and at most
    /// `translation_cap` arena-node translations are memoised. `None`
    /// keeps the current value.
    pub fn set_limits(&mut self, gc_floor: Option<usize>, translation_cap: Option<usize>) {
        if let Some(floor) = gc_floor {
            self.gc_floor = floor.max(2);
            // Re-arm at the floor: the next maybe_gc past it collects
            // and re-paces to twice the live size.
            self.gc_watermark = self.gc_floor;
        }
        if let Some(cap) = translation_cap {
            self.cache_cap = cap.max(1);
            self.evict_over_capacity();
        }
    }

    /// Builds BDDs for formula-arena `roots` bottom-up with full
    /// sharing, reusing every memoised translation: traversal stops at
    /// cached nodes, so a warm root costs O(1).
    ///
    /// # Errors
    ///
    /// Returns [`BddBuildError::Overflow`] when the manager's node
    /// budget is exceeded, and [`BddBuildError::Interrupted`] when an
    /// installed [`CancelToken`] fires mid-build; either way the
    /// partially built cone is rolled back (entries added by this call
    /// are dropped and the manager collected), leaving the session as
    /// it was before the call.
    pub fn build(
        &mut self,
        arena: &Arena,
        roots: &[FormulaId],
    ) -> Result<Vec<BddRef>, BddBuildError> {
        let _span = qb_obs::span("bdd.build", "");
        let (hits0, misses0, applies0) = (self.hits, self.misses, self.manager.applies());
        // Frontier traversal: descend only into nodes without a memoised
        // translation.
        let mut visited = vec![false; arena.len()];
        let mut need: Vec<FormulaId> = Vec::new();
        let mut stack: Vec<FormulaId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if visited[id.index()] {
                continue;
            }
            visited[id.index()] = true;
            if let Some(entry) = self.cache.get_mut(&id) {
                self.clock += 1;
                entry.last_used = self.clock;
                self.hits += 1;
                continue;
            }
            need.push(id);
            stack.extend_from_slice(arena.children(id));
        }
        // Children precede parents in arena order, so ascending index
        // order computes every dependency first.
        need.sort_unstable();
        let fresh: Vec<FormulaId> = need.clone();
        for id in need {
            // Cancellation poll: a translated node is the unit of work
            // (each costs at least one apply), so per-node granularity
            // bounds interrupt latency without touching the apply loop.
            if let Some(token) = &self.cancel {
                if token.should_stop(0, 0) {
                    self.rollback_fresh(&fresh, id);
                    self.flush_build_metrics(hits0, misses0, applies0, "interrupted");
                    return Err(BddBuildError::Interrupted);
                }
            }
            let result = match arena.node(id) {
                Node::Const(b) => Ok(self.manager.constant(b)),
                Node::Var(v) => self.manager.var(v),
                Node::And(children) => {
                    let mut acc = Ok(BddRef::TRUE);
                    for c in children.iter() {
                        let child = self.cache[c].bdd;
                        acc = acc.and_then(|a| self.manager.and(a, child));
                        if acc.is_err() {
                            break;
                        }
                    }
                    acc
                }
                Node::Xor(children, parity) => {
                    let mut acc = Ok(self.manager.constant(parity));
                    for c in children.iter() {
                        let child = self.cache[c].bdd;
                        acc = acc.and_then(|a| self.manager.xor(a, child));
                        if acc.is_err() {
                            break;
                        }
                    }
                    acc
                }
            };
            let bdd = match result {
                Ok(bdd) => bdd,
                Err(overflow) => {
                    self.rollback_fresh(&fresh, id);
                    self.flush_build_metrics(hits0, misses0, applies0, "overflow");
                    return Err(BddBuildError::Overflow(overflow));
                }
            };
            self.clock += 1;
            self.manager.ref_inc(bdd);
            self.cache.insert(
                id,
                TransEntry {
                    bdd,
                    last_used: self.clock,
                },
            );
            self.misses += 1;
        }
        let out = roots.iter().map(|r| self.cache[r].bdd).collect();
        self.evict_over_capacity();
        self.flush_build_metrics(hits0, misses0, applies0, "ok");
        Ok(out)
    }

    /// The sorted supports of formula-arena `roots` (see
    /// [`BddManager::supports`]), building their diagrams first.
    ///
    /// # Errors
    ///
    /// As [`BddSession::build`].
    pub fn supports(
        &mut self,
        arena: &Arena,
        roots: &[FormulaId],
    ) -> Result<Vec<Vec<Var>>, BddBuildError> {
        let built = self.build(arena, roots)?;
        Ok(self.manager.supports(&built))
    }

    /// A witness that `root`'s function depends on `v`: a partial
    /// assignment (never mentioning `v`) under which its two
    /// `v`-cofactors differ, read off [`BddManager::derivative`].
    /// `None` when the function is independent of `v`.
    ///
    /// # Errors
    ///
    /// As [`BddSession::build`]; the derivative's fresh nodes count
    /// against the node budget too.
    pub fn dependence_witness(
        &mut self,
        arena: &Arena,
        root: FormulaId,
        v: Var,
    ) -> Result<Option<Vec<(Var, bool)>>, BddBuildError> {
        let f = self.build(arena, &[root])?[0];
        let diff = self.manager.derivative(f, v)?;
        Ok(self.manager.any_sat(diff))
    }

    /// Publishes one build call's translation-cache and apply-step
    /// deltas to the global metrics registry; aborted builds are counted
    /// by outcome so overflow storms show up on the metrics surface.
    fn flush_build_metrics(&self, hits0: u64, misses0: u64, applies0: u64, outcome: &'static str) {
        qb_obs::counter_add("bdd_cache", "hit", self.hits - hits0);
        qb_obs::counter_add("bdd_cache", "miss", self.misses - misses0);
        qb_obs::counter_add("bdd_applies", "", self.manager.applies() - applies0);
        if outcome != "ok" {
            qb_obs::counter_add("bdd_build_aborts", outcome, 1);
        }
    }

    /// Rolls back a failed [`BddSession::build`] call: entries inserted
    /// by this call (fresh ids strictly below `failed_at`) are dropped
    /// so the failed cone doesn't pin budget-exhausting garbage. The
    /// collection renumbers every node, so surviving warm translations
    /// must follow the remap — force_gc does both.
    fn rollback_fresh(&mut self, fresh: &[FormulaId], failed_at: FormulaId) {
        for &f in fresh {
            if f >= failed_at {
                break;
            }
            if let Some(entry) = self.cache.remove(&f) {
                self.manager.ref_dec(entry.bdd);
                self.evictions += 1;
            }
        }
        self.force_gc();
    }

    /// Keeps the translation cache within its LRU bound (batch eviction
    /// down to ¾ capacity). Evicted diagrams stay resident until the
    /// next manager collection.
    fn evict_over_capacity(&mut self) {
        let manager = &mut self.manager;
        self.evictions += qb_formula::lru_evict_batch(
            &mut self.cache,
            self.cache_cap,
            |e| e.last_used,
            |_, entry| manager.ref_dec(entry.bdd),
        );
    }

    /// Collects the manager once it has outgrown its watermark,
    /// remapping every cached translation through the [`BddRemap`]
    /// (cache entries hold references, so they always survive).
    pub fn maybe_gc(&mut self) {
        if self.manager.len() < self.gc_watermark || self.manager.len() < self.gc_floor {
            return;
        }
        self.force_gc();
    }

    /// Unconditionally collects the manager and remaps the cache.
    pub fn force_gc(&mut self) {
        let _span = qb_obs::span("bdd.gc", "");
        qb_obs::counter_add("bdd_gc", "collect", 1);
        let remap = self.manager.collect();
        for entry in self.cache.values_mut() {
            entry.bdd = remap
                .remap(entry.bdd)
                .expect("referenced translations survive collection");
        }
        self.gc_watermark = (self.manager.len() * BDD_GC_GROWTH).max(self.gc_floor);
    }

    /// Follows a formula-arena collection: cache keys are rewritten
    /// through `remap`; entries whose arena node was reclaimed are
    /// dropped (sound — a collected id is never issued for its old
    /// structure again) and their diagrams released for the next
    /// manager GC.
    pub fn remap_nodes(&mut self, remap: &NodeRemap) {
        let cache = std::mem::take(&mut self.cache);
        for (id, entry) in cache {
            match remap.remap(id) {
                Some(new) => {
                    self.cache.insert(new, entry);
                }
                None => {
                    self.manager.ref_dec(entry.bdd);
                    self.evictions += 1;
                }
            }
        }
        self.maybe_gc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_formula::Simplify;

    #[test]
    fn canonicity_of_terminals() {
        let mut m = BddManager::new();
        let x = m.var(0).unwrap();
        let nx = m.not(x);
        assert_eq!(m.apply(BddOp::And, x, nx).unwrap(), BddRef::FALSE);
        assert_eq!(m.apply(BddOp::Or, x, nx).unwrap(), BddRef::TRUE);
        assert_eq!(m.apply(BddOp::Xor, x, x).unwrap(), BddRef::FALSE);
    }

    #[test]
    fn complement_edges_share_nodes() {
        let mut m = BddManager::new();
        let x = m.var(0).unwrap();
        let y = m.var(1).unwrap();
        let f = m.and(x, y).unwrap();
        let len = m.len();
        let nf = m.not(f);
        assert_eq!(m.len(), len, "negation allocates nothing");
        assert_eq!(nf.complement(), f);
        for (e0, e1) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(m.eval(nf, &[e0, e1]), !(e0 & e1));
        }
    }

    #[test]
    fn shannon_ordering_respected() {
        let mut m = BddManager::new();
        let x0 = m.var(0).unwrap();
        let x1 = m.var(1).unwrap();
        let both = m.apply(BddOp::And, x1, x0).unwrap();
        assert!(!both.is_terminal());
        assert_eq!(m.support(both), vec![0, 1]);
        for (e0, e1) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(m.eval(both, &[e0, e1]), e0 & e1);
        }
    }

    #[test]
    fn restrict_eliminates_variable() {
        let mut m = BddManager::new();
        let x = m.var(0).unwrap();
        let y = m.var(1).unwrap();
        let f = m.xor(x, y).unwrap();
        let f0 = m.restrict(f, 0, false).unwrap();
        let f1 = m.restrict(f, 0, true).unwrap();
        assert_eq!(f0, y);
        assert_eq!(f1, m.not(y));
        assert!(!m.depends_on(f0, 0));
    }

    #[test]
    fn depends_on_matches_restrict_equality() {
        let mut m = BddManager::new();
        let x = m.var(0).unwrap();
        let y = m.var(1).unwrap();
        let z = m.var(2).unwrap();
        let xy = m.and(x, y).unwrap();
        let f = m.apply(BddOp::Or, xy, z).unwrap();
        for v in 0..4u32 {
            let c0 = m.restrict(f, v, false).unwrap();
            let c1 = m.restrict(f, v, true).unwrap();
            assert_eq!(c0 != c1, m.depends_on(f, v), "var {v}");
        }
    }

    #[test]
    fn shared_supports_match_per_root_support_and_derivative() {
        let mut m = BddManager::new();
        let x = m.var(0).unwrap();
        let y = m.var(1).unwrap();
        let z = m.var(2).unwrap();
        let xy = m.and(x, y).unwrap();
        let f = m.xor(xy, z).unwrap();
        let g = m.xor(f, xy).unwrap(); // = z
        let roots = [f, g, y.complement(), BddRef::TRUE];
        let shared = m.supports(&roots);
        for (r, s) in roots.iter().zip(&shared) {
            assert_eq!(*s, m.support(*r));
        }
        assert_eq!(shared, [vec![0, 1, 2], vec![2], vec![1], vec![]]);
        for v in 0..4u32 {
            let d = m.derivative(f, v).unwrap();
            assert_eq!(!d.is_false(), m.depends_on(f, v), "var {v}");
            if let Some(path) = m.any_sat(d) {
                assert!(path.iter().all(|&(p, _)| p != v));
                let mut env = [false; 4];
                for (p, val) in path {
                    env[p as usize] = val;
                }
                let before = m.eval(f, &env);
                env[v as usize] ^= true;
                assert_ne!(m.eval(f, &env), before, "flipping var {v} flips f");
            }
        }
    }

    #[test]
    fn xor_cancellation_through_apply() {
        let mut m = BddManager::new();
        let x = m.var(3).unwrap();
        let y = m.var(5).unwrap();
        let a = m.xor(x, y).unwrap();
        let b = m.xor(a, y).unwrap();
        assert_eq!(b, x);
        // Complements strip through XOR: ¬x ⊕ ¬y = x ⊕ y.
        let c = m.xor(x.complement(), y.complement()).unwrap();
        assert_eq!(c, a);
        let d = m.xor(x.complement(), y).unwrap();
        assert_eq!(d, a.complement());
    }

    #[test]
    fn any_sat_finds_models_through_complements() {
        let mut m = BddManager::new();
        let x = m.var(0).unwrap();
        let y = m.var(1).unwrap();
        let ny = m.not(y);
        let f = m.and(x, ny).unwrap();
        let model: HashMap<Var, bool> = m.any_sat(f).unwrap().into_iter().collect();
        assert!(model[&0]);
        assert!(!model[&1]);
        // Negation's models satisfy the negation.
        let nf = m.not(f);
        let path = m.any_sat(nf).unwrap();
        let mut env = [false, false];
        for (v, val) in path {
            env[v as usize] = val;
        }
        assert!(m.eval(nf, &env));
        assert!(m.any_sat(BddRef::FALSE).is_none());
        assert_eq!(m.any_sat(BddRef::TRUE).unwrap(), vec![]);
    }

    #[test]
    fn session_build_matches_eval() {
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut f = Arena::new(mode);
            let x = f.var(0);
            let y = f.var(1);
            let z = f.var(2);
            let xy = f.and2(x, y);
            let t = f.xor2(xy, z);
            let root = f.not(t);
            let other = f.or2(x, z);
            let mut s = BddSession::new(usize::MAX);
            let bdds = s.build(&f, &[root, other]).unwrap();
            for bits in 0..8u32 {
                let env = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
                assert_eq!(
                    s.manager().eval(bdds[0], &env),
                    f.eval(root, &env),
                    "{mode:?}"
                );
                assert_eq!(
                    s.manager().eval(bdds[1], &env),
                    f.eval(other, &env),
                    "{mode:?}"
                );
            }
        }
    }

    #[test]
    fn unsat_is_false_edge() {
        let mut f = Arena::new(Simplify::Raw);
        let x = f.var(0);
        let nx = f.not(x);
        let contra = f.and2(x, nx);
        let mut s = BddSession::new(usize::MAX);
        let b = s.build(&f, &[contra]).unwrap()[0];
        assert!(b.is_false());
    }

    #[test]
    fn warm_roots_cost_no_translation() {
        let mut f = Arena::new(Simplify::Raw);
        let x = f.var(0);
        let y = f.var(1);
        let xy = f.and2(x, y);
        let root = f.xor2(xy, x);
        let mut s = BddSession::new(usize::MAX);
        s.build(&f, &[root]).unwrap();
        let misses_after_cold = s.stats().translation_misses;
        s.build(&f, &[root]).unwrap();
        let stats = s.stats();
        assert_eq!(
            stats.translation_misses, misses_after_cold,
            "no re-translation"
        );
        assert!(stats.translation_hits >= 1);
        // A superstructure over the warm root translates only the new top.
        let z = f.var(2);
        let bigger = f.and2(root, z);
        s.build(&f, &[bigger]).unwrap();
        assert_eq!(
            s.stats().translation_misses,
            misses_after_cold + 2,
            "only z and the new AND are fresh"
        );
    }

    #[test]
    fn node_budget_overflows_and_rolls_back() {
        let mut f = Arena::new(Simplify::Raw);
        // Product of disjoint (xᵢ ⊕ yᵢ) — BDD stays linear, so overflow
        // comes from a deliberately tiny budget instead.
        let factors: Vec<_> = (0..6)
            .map(|i| {
                let a = f.var(2 * i);
                let b = f.var(2 * i + 1);
                f.xor2(a, b)
            })
            .collect();
        let root = f.and(&factors);
        let mut s = BddSession::new(4);
        let err = s.build(&f, &[root]).unwrap_err();
        assert_eq!(err, BddBuildError::Overflow(BddOverflow { budget: 4 }));
        // Rollback: the failed cone left no cache entries behind.
        assert_eq!(s.stats().cached_translations, 0);
        assert!(s.resident_nodes() <= 4);
        // The same session still answers within-budget queries.
        let x = f.var(0);
        let nx = f.not(x);
        let contra = f.and2(x, nx);
        let b = s.build(&f, &[contra]).unwrap()[0];
        assert!(b.is_false());
    }

    #[test]
    fn cancelled_build_rolls_back_and_session_stays_usable() {
        let mut f = Arena::new(Simplify::Raw);
        let factors: Vec<_> = (0..6)
            .map(|i| {
                let a = f.var(2 * i);
                let b = f.var(2 * i + 1);
                f.xor2(a, b)
            })
            .collect();
        let root = f.and(&factors);
        let mut s = BddSession::new(usize::MAX);
        let token = CancelToken::new();
        s.set_cancel_token(Some(token.clone()));
        token.cancel();
        let err = s.build(&f, &[root]).unwrap_err();
        assert_eq!(err, BddBuildError::Interrupted);
        // Rollback: the interrupted cone left no cache entries behind.
        assert_eq!(s.stats().cached_translations, 0);
        // Clearing the token makes the same query complete, with the
        // right semantics: ⋀ᵢ(xᵢ⊕yᵢ) is true iff every pair differs.
        token.reset();
        let b = s.build(&f, &[root]).unwrap()[0];
        let mut env = vec![false; 12];
        assert!(!s.manager().eval(b, &env));
        for i in 0..6 {
            env[2 * i + 1] = true;
        }
        assert!(s.manager().eval(b, &env));
    }

    #[test]
    fn overflow_rollback_remaps_surviving_translations() {
        // A warm session whose translation cache sits above collected
        // garbage: LRU-evicted diagrams occupy low node indices, so the
        // rollback collection renumbers the survivors. Warm entries must
        // follow the remap or later builds read the wrong nodes.
        let mut f = Arena::new(Simplify::Raw);
        let mut junk_roots = Vec::new();
        for i in 5..12u32 {
            let a = f.var(2 * i);
            let b = f.var(2 * i + 1);
            junk_roots.push(f.and2(a, b));
        }
        let keep = {
            let a = f.var(0);
            let b = f.var(1);
            f.and2(a, b)
        };
        let mut s = BddSession::new(64);
        s.set_limits(Some(usize::MAX), Some(4)); // GC floor huge: only rollback collects
        for r in &junk_roots {
            s.build(&f, &[*r]).unwrap(); // LRU-evicts earlier entries
        }
        // Translate `keep` last: its diagram sits *above* the evicted
        // junk diagrams in the node array, so the rollback collection
        // renumbers it downward.
        let before = s.build(&f, &[keep]).unwrap()[0];
        assert!(s.stats().translation_evictions > 0, "garbage exists");

        // Blow the budget: a wide conjunction of fresh xors.
        let factors: Vec<FormulaId> = (0..40)
            .map(|i| {
                let a = f.var(100 + 2 * i);
                let b = f.var(101 + 2 * i);
                f.xor2(a, b)
            })
            .collect();
        let big = f.and(&factors);
        s.build(&f, &[big]).unwrap_err();

        // The warm entry must still denote x0 ∧ x1 — and a post-rollback
        // cache hit must agree with it.
        let after = s.build(&f, &[keep]).unwrap()[0];
        assert_eq!(before.index() == after.index(), before == after);
        let mut env = vec![false; 200];
        for (e0, e1) in [(false, false), (false, true), (true, false), (true, true)] {
            env[0] = e0;
            env[1] = e1;
            assert_eq!(
                s.manager().eval(after, &env),
                e0 & e1,
                "post-rollback translation is exact"
            );
        }
    }

    #[test]
    fn manager_gc_keeps_referenced_cones_and_remaps() {
        let mut m = BddManager::new();
        let x = m.var(0).unwrap();
        let y = m.var(1).unwrap();
        let keep = m.and(x, y).unwrap();
        let junk = m.xor(x, y).unwrap();
        let junk2 = m.and(junk, y).unwrap();
        m.ref_inc(keep);
        let before = m.len();
        let remap = m.collect();
        assert!(m.len() < before, "xor cone reclaimed");
        assert_eq!(remap.collected(), before - m.len());
        let keep2 = remap.remap(keep).unwrap();
        for (e0, e1) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(m.eval(keep2, &[e0, e1]), e0 & e1);
        }
        assert!(remap.remap(junk2).is_none());
        // Rebuilding collected structure re-interns cleanly.
        let x2 = m.var(0).unwrap();
        let y2 = m.var(1).unwrap();
        assert_eq!(m.and(x2, y2).unwrap(), keep2);
    }

    #[test]
    fn session_survives_arena_collection() {
        let mut f = Arena::new(Simplify::Full);
        let x = f.var(0);
        let y = f.var(1);
        let xy = f.and2(x, y);
        let root = f.xor2(xy, x);
        let dead = {
            let z = f.var(2);
            f.and2(z, root)
        };
        let mut s = BddSession::new(usize::MAX);
        let before = s.build(&f, &[root, dead]).unwrap();
        let remap = f.collect(&[root]);
        let new_root = remap.remap(root).unwrap();
        s.remap_nodes(&remap);
        assert!(s.stats().translation_evictions > 0, "dead entries dropped");
        let hits_before = s.stats().translation_hits;
        let after = s.build(&f, &[new_root]).unwrap();
        assert_eq!(before[0], after[0], "warm diagram survived the remap");
        assert!(s.stats().translation_hits > hits_before);
    }

    #[test]
    fn translation_cache_is_lru_bounded() {
        let mut f = Arena::new(Simplify::Raw);
        let mut roots = Vec::new();
        for i in 0..32u32 {
            let a = f.var(2 * i);
            let b = f.var(2 * i + 1);
            roots.push(f.and2(a, b));
        }
        let mut s = BddSession::new(usize::MAX);
        s.set_limits(None, Some(16));
        for r in &roots {
            s.build(&f, &[*r]).unwrap();
        }
        let stats = s.stats();
        assert!(stats.cached_translations <= 16, "{stats:?}");
        assert!(stats.translation_evictions > 0);
        // Evicted diagrams are reclaimed by the next collection.
        s.force_gc();
        assert!(s.stats().collections >= 1);
        // Verdicts stay exact after eviction + collection.
        let b = s.build(&f, &[roots[0]]).unwrap()[0];
        for (e0, e1) in [(false, false), (true, false), (true, true)] {
            let mut env = vec![false; 64];
            env[0] = e0;
            env[1] = e1;
            assert_eq!(s.manager().eval(b, &env), e0 & e1);
        }
    }

    #[test]
    fn computed_table_stays_bounded() {
        let mut m = BddManager::new();
        m.set_computed_table_capacity(64);
        let vars: Vec<BddRef> = (0..40).map(|v| m.var(v).unwrap()).collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                m.and(vars[i], vars[j]).unwrap();
                m.xor(vars[i], vars[j]).unwrap();
            }
        }
        assert!(m.cache.map.len() <= 64);
        assert!(m.computed_evictions() > 0);
    }

    #[test]
    fn size_counts_reachable() {
        let mut m = BddManager::new();
        let x = m.var(0).unwrap();
        let y = m.var(1).unwrap();
        let f = m.and(x, y).unwrap();
        // nodes: f-root(var0), var1 node, the shared terminal.
        assert_eq!(m.size(f), 3);
    }
}
