//! Hash-consed XOR-AND formula graphs (XAGs).
//!
//! The verification algorithm of the paper (§6.1) tracks, for every qubit
//! `q`, a Boolean formula `b_q` describing the qubit's final value as a
//! function of all initial values. Circuits built from X and
//! multi-controlled-NOT gates only ever need two connectives:
//!
//! * `X[q]`            updates `b_q := ¬b_q` (XOR with constant true);
//! * `CᵐNOT[..., q]`   updates `b_q := b_q ⊕ (b_{c₁} ∧ ⋯ ∧ b_{cₘ})`.
//!
//! Nodes are interned (structurally hashed) in an append-only [`Arena`], so
//! shared sub-circuits are stored once and children always precede parents,
//! which lets every analysis run as a single bottom-up pass without
//! recursion.
//!
//! Two construction modes implement the ablation described in DESIGN.md §4:
//!
//! * [`Simplify::Raw`] — structural hashing only (binary connectives,
//!   constant folding). The uncompute structure of a circuit stays visible
//!   and the satisfiability backend has to do the cancellation work, which
//!   is the regime the paper measures.
//! * [`Simplify::Full`] — n-ary XOR with pairwise cancellation (`x ⊕ x = 0`,
//!   the identity used in the paper's Fig. 6.1) and n-ary AND with
//!   idempotence and annihilation. Compute/uncompute pairs collapse at
//!   construction time.
//!
//! # Storage
//!
//! The layout is that of an AIG manager (as behind FRAIG sweeping,
//! Mishchenko et al.). Each node is one fixed-size head: its tag, the
//! XOR parity, and either the constant/variable or a range of one shared
//! `Vec<NodeId>` child pool, so a node is stored once. The cons table is
//! an open-addressed `Vec<u32>` of node indices that hashes a node's tag,
//! parity and pool slice and holds no key. Constructors look a node up
//! with a slice on the caller's stack, so a hit allocates nothing.
//!
//! [`Arena::node`] returns a [`Node`] view whose child slices borrow the
//! pool: it lives as long as the shared borrow of the arena, so copy the
//! children out (or re-read them by position) before calling a
//! constructor. [`Arena::collect`] compacts heads and pool in place in
//! one ascending pass and refiles the survivors in the cons table; it
//! allocates the mark vector and the returned [`NodeRemap`], whatever the
//! arena's size.

use std::fmt;
use std::ops::Range;

/// Index of a Boolean input variable (one per qubit in the verifier).
pub type Var = u32;

/// Identifier of an interned formula node inside an [`Arena`].
///
/// Ids are ordered: children always have smaller ids than their parents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The constant-false node (present in every arena).
    pub const FALSE: NodeId = NodeId(0);
    /// The constant-true node (present in every arena).
    pub const TRUE: NodeId = NodeId(1);

    /// The position of this node in the arena's node table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Crate-internal constructor from a dense arena index.
    #[inline]
    pub(crate) fn from_index(index: usize) -> NodeId {
        debug_assert!(index <= u32::MAX as usize);
        NodeId(index as u32)
    }
}

/// A borrowed view of an interned formula node (see [`Arena::node`]).
///
/// Child slices point into the arena's pool, so a view lives as long as
/// the shared borrow of the arena that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node<'a> {
    /// A Boolean constant.
    Const(bool),
    /// An input variable.
    Var(Var),
    /// Conjunction of the children (each child id < this node's id).
    And(&'a [NodeId]),
    /// Exclusive-or of the children, XORed with the parity flag.
    ///
    /// `Xor([x], true)` is negation; in [`Simplify::Full`] mode children are
    /// sorted, duplicate-free and never themselves `Xor` or `Const` nodes.
    Xor(&'a [NodeId], bool),
}

/// How aggressively the smart constructors canonicalise (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Simplify {
    /// Structural hashing and constant folding only.
    Raw,
    /// Full n-ary flattening with XOR cancellation and AND idempotence.
    #[default]
    Full,
}

/// The stored form of one node: [`Node`] with its children replaced by
/// their range in the arena's pool.
#[derive(Debug, Clone, Copy)]
enum Head {
    Const(bool),
    Var(Var),
    And(Span),
    Xor(Span, bool),
}

/// A range of the child pool.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The span of `len` children starting at pool position `start`.
    fn new(start: usize, len: usize) -> Span {
        let fits = |n: usize| u32::try_from(n).expect("the child pool fits u32 positions");
        Span {
            start: fits(start),
            len: fits(len),
        }
    }

    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// An empty slot of the cons table.
const EMPTY: u32 = u32::MAX;

/// Smallest cons-table size (a power of two).
const MIN_TABLE: usize = 16;

/// The cons-table hash of a node: Fx-style mixing of its tag, parity,
/// payload and children.
fn hash_node(node: Node<'_>) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(K);
    match node {
        Node::Const(b) => mix(0, u64::from(b)),
        Node::Var(v) => mix(1, u64::from(v)),
        Node::And(children) => children.iter().fold(2, |h, c| mix(h, u64::from(c.0))),
        Node::Xor(children, parity) => children
            .iter()
            .fold(4 | u64::from(parity), |h, c| mix(h, u64::from(c.0))),
    }
}

/// An append-only, hash-consed store of formula nodes (layout and costs
/// in the module docs).
///
/// # Examples
///
/// ```
/// use qb_formula::{Arena, Simplify};
/// let mut f = Arena::new(Simplify::Full);
/// let x = f.var(0);
/// let y = f.var(1);
/// let a = f.xor2(x, y);
/// let b = f.xor2(a, y); // y ⊕ y cancels
/// assert_eq!(b, x);
/// ```
#[derive(Debug, Clone)]
pub struct Arena {
    /// One head per node, indexed by [`NodeId`].
    heads: Vec<Head>,
    /// The children of every `And`/`Xor` node, in node order.
    pool: Vec<NodeId>,
    /// Open-addressed (linear probing) cons table of node indices, at
    /// most half full; its length is a power of two.
    table: Vec<u32>,
    mode: Simplify,
}

impl Arena {
    /// Creates an empty arena (the two constants are pre-interned).
    pub fn new(mode: Simplify) -> Self {
        let mut arena = Arena {
            heads: Vec::new(),
            pool: Vec::new(),
            table: vec![EMPTY; MIN_TABLE],
            mode,
        };
        let f = arena.intern(Node::Const(false));
        let t = arena.intern(Node::Const(true));
        debug_assert_eq!(f, NodeId::FALSE);
        debug_assert_eq!(t, NodeId::TRUE);
        arena
    }

    /// The simplification mode this arena was created with.
    #[inline]
    pub fn mode(&self) -> Simplify {
        self.mode
    }

    /// Total number of interned nodes (including the two constants).
    #[inline]
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Returns `true` if only the constants are interned.
    pub fn is_empty(&self) -> bool {
        self.heads.len() <= 2
    }

    /// A view of the node `id`, borrowing the arena.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arena.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        match self.heads[id.index()] {
            Head::Const(b) => Node::Const(b),
            Head::Var(v) => Node::Var(v),
            Head::And(span) => Node::And(&self.pool[span.range()]),
            Head::Xor(span, parity) => Node::Xor(&self.pool[span.range()], parity),
        }
    }

    /// The children of `id` (empty for constants and variables).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arena.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        match self.heads[id.index()] {
            Head::And(span) | Head::Xor(span, _) => &self.pool[span.range()],
            Head::Const(_) | Head::Var(_) => &[],
        }
    }

    /// The id stored at dense position `index` (inverse of
    /// [`NodeId::index`]); useful for bottom-up passes over the arena.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn id_at(&self, index: usize) -> NodeId {
        assert!(index < self.heads.len(), "node index out of range");
        NodeId::from_index(index)
    }

    /// The cons-table slot holding `node`, or the empty slot where it
    /// belongs.
    fn find(&self, node: Node<'_>) -> Result<NodeId, usize> {
        let mask = self.table.len() - 1;
        let shift = 64 - self.table.len().trailing_zeros();
        let mut slot = (hash_node(node) >> shift) as usize;
        loop {
            match self.table[slot] {
                EMPTY => return Err(slot),
                index if self.node(NodeId(index)) == node => return Ok(NodeId(index)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Interns `node`, whose children are not borrowed from this arena.
    fn intern(&mut self, node: Node<'_>) -> NodeId {
        let slot = match self.find(node) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let mut push = |children: &[NodeId]| {
            let span = Span::new(self.pool.len(), children.len());
            self.pool.extend_from_slice(children);
            span
        };
        let head = match node {
            Node::Const(b) => Head::Const(b),
            Node::Var(v) => Head::Var(v),
            Node::And(children) => Head::And(push(children)),
            Node::Xor(children, parity) => Head::Xor(push(children), parity),
        };
        self.insert(head, slot)
    }

    /// Interns `Xor(children of x, parity)`, copying the children within
    /// the pool.
    fn intern_xor_of(&mut self, x: NodeId, parity: bool) -> NodeId {
        let (Head::And(span) | Head::Xor(span, _)) = self.heads[x.index()] else {
            unreachable!("only inner nodes have children");
        };
        let slot = match self.find(Node::Xor(&self.pool[span.range()], parity)) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let copy = Span::new(self.pool.len(), span.len as usize);
        self.pool.extend_from_within(span.range());
        self.insert(Head::Xor(copy, parity), slot)
    }

    /// Appends `head` as a new node filed at the empty `slot`.
    fn insert(&mut self, head: Head, slot: usize) -> NodeId {
        let id = NodeId::from_index(self.heads.len());
        self.heads.push(head);
        self.table[slot] = id.0;
        if self.heads.len() * 2 > self.table.len() {
            self.rebuild_table(self.table.len() * 2);
        }
        id
    }

    /// Refiles every node in an empty cons table of `size` slots.
    fn rebuild_table(&mut self, size: usize) {
        self.table.clear();
        self.table.resize(size, EMPTY);
        for index in 0..self.heads.len() {
            let id = NodeId::from_index(index);
            let Err(slot) = self.find(self.node(id)) else {
                unreachable!("interned nodes are distinct");
            };
            self.table[slot] = id.0;
        }
    }

    /// The constant node for `b`.
    #[inline]
    pub fn constant(&self, b: bool) -> NodeId {
        if b {
            NodeId::TRUE
        } else {
            NodeId::FALSE
        }
    }

    /// The input-variable node for `v`.
    pub fn var(&mut self, v: Var) -> NodeId {
        self.intern(Node::Var(v))
    }

    /// Looks up the node of an already-interned variable.
    pub fn find_var(&self, v: Var) -> Option<NodeId> {
        self.find(Node::Var(v)).ok()
    }

    /// Logical negation `¬x`.
    pub fn not(&mut self, x: NodeId) -> NodeId {
        match self.node(x) {
            Node::Const(b) => self.constant(!b),
            // Fold double negation / flip parity in both modes: a negation is
            // parity bookkeeping, not structure.
            Node::Xor(children, parity) => {
                if children.len() == 1 && parity {
                    children[0]
                } else {
                    self.intern_xor_of(x, !parity)
                }
            }
            _ => self.intern(Node::Xor(&[x], true)),
        }
    }

    /// Binary exclusive-or.
    pub fn xor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.xor(&[a, b])
    }

    /// Binary conjunction.
    pub fn and2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.and(&[a, b])
    }

    /// Binary disjunction (expressed as `¬(¬a ∧ ¬b)`).
    pub fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.or(&[a, b])
    }

    /// n-ary exclusive-or of `operands`.
    pub fn xor(&mut self, operands: &[NodeId]) -> NodeId {
        match self.mode {
            Simplify::Raw => {
                let mut parity = false;
                let mut acc: Option<NodeId> = None;
                for &op in operands {
                    // Parity normalisation: a negation is parity
                    // bookkeeping, not structure, so strip it from the
                    // operand and fold it into the chain parity. This
                    // makes `¬x ⊕ ¬y` cons to the same node as `x ⊕ y`,
                    // which keeps cofactor-diff node ids stable across
                    // negation-only edits (an appended X on a shared
                    // qubit) and lets session decision caches hit.
                    let base = match self.node(op) {
                        Node::Const(b) => {
                            parity ^= b;
                            continue;
                        }
                        Node::Xor(children, true) => {
                            parity = !parity;
                            if children.len() == 1 {
                                children[0]
                            } else {
                                // The parity-false sibling exists: a
                                // parity-true XOR is only ever created by
                                // negating it.
                                self.intern_xor_of(op, false)
                            }
                        }
                        _ => op,
                    };
                    acc = Some(match acc {
                        None => base,
                        Some(prev) => self.intern(Node::Xor(&[prev, base], false)),
                    });
                }
                match (acc, parity) {
                    (None, p) => self.constant(p),
                    (Some(id), false) => id,
                    (Some(id), true) => self.not(id),
                }
            }
            Simplify::Full => {
                let mut parity = false;
                let mut leaves: Vec<NodeId> = Vec::with_capacity(operands.len());
                for &op in operands {
                    match self.node(op) {
                        Node::Const(b) => parity ^= b,
                        Node::Xor(children, p) => {
                            parity ^= p;
                            leaves.extend_from_slice(children);
                        }
                        _ => leaves.push(op),
                    }
                }
                leaves.sort_unstable();
                // Cancel equal pairs: x ⊕ x = 0 (the Fig. 6.1 identity).
                let mut kept: Vec<NodeId> = Vec::with_capacity(leaves.len());
                let mut i = 0;
                while i < leaves.len() {
                    let mut run = 1;
                    while i + run < leaves.len() && leaves[i + run] == leaves[i] {
                        run += 1;
                    }
                    if run % 2 == 1 {
                        kept.push(leaves[i]);
                    }
                    i += run;
                }
                match (kept.len(), parity) {
                    (0, p) => self.constant(p),
                    (1, false) => kept[0],
                    _ => self.intern(Node::Xor(&kept, parity)),
                }
            }
        }
    }

    /// n-ary conjunction of `operands`.
    pub fn and(&mut self, operands: &[NodeId]) -> NodeId {
        match self.mode {
            Simplify::Raw => {
                let mut acc: Option<NodeId> = None;
                for &op in operands {
                    match self.node(op) {
                        Node::Const(false) => return NodeId::FALSE,
                        Node::Const(true) => {}
                        _ => {
                            acc = Some(match acc {
                                None => op,
                                Some(prev) => self.intern(Node::And(&[prev, op])),
                            });
                        }
                    }
                }
                acc.unwrap_or(NodeId::TRUE)
            }
            Simplify::Full => {
                let mut leaves: Vec<NodeId> = Vec::with_capacity(operands.len());
                for &op in operands {
                    match self.node(op) {
                        Node::Const(false) => return NodeId::FALSE,
                        Node::Const(true) => {}
                        Node::And(children) => leaves.extend_from_slice(children),
                        _ => leaves.push(op),
                    }
                }
                leaves.sort_unstable();
                leaves.dedup();
                // x ∧ ¬x = 0: a negation is Xor([y], true); check for pairs.
                for &id in &leaves {
                    if let Node::Xor(&[child], true) = self.node(id) {
                        if leaves.binary_search(&child).is_ok() {
                            return NodeId::FALSE;
                        }
                    }
                }
                match leaves.len() {
                    0 => NodeId::TRUE,
                    1 => leaves[0],
                    _ => self.intern(Node::And(&leaves)),
                }
            }
        }
    }

    /// n-ary disjunction, expressed through De Morgan over AND.
    pub fn or(&mut self, operands: &[NodeId]) -> NodeId {
        let negated: Vec<NodeId> = operands.iter().map(|&x| self.not(x)).collect();
        let conj = self.and(&negated);
        self.not(conj)
    }

    /// Logical implication `a → b`.
    pub fn implies(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let na = self.not(a);
        self.or2(na, b)
    }

    /// Evaluates every node of the arena under the assignment `env`
    /// (indexed by variable) and returns one Boolean per node.
    ///
    /// Runs bottom-up in one pass; useful when many roots share structure.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of bounds for `env`.
    pub fn eval_all(&self, env: &[bool]) -> Vec<bool> {
        let mut values = Vec::with_capacity(self.heads.len());
        for i in 0..self.heads.len() {
            let value = match self.node(NodeId::from_index(i)) {
                Node::Const(b) => b,
                Node::Var(v) => env[v as usize],
                Node::And(children) => children.iter().all(|c| values[c.index()]),
                Node::Xor(children, parity) => children
                    .iter()
                    .fold(parity, |acc, c| acc ^ values[c.index()]),
            };
            values.push(value);
        }
        values
    }

    /// Evaluates a single root under `env`.
    pub fn eval(&self, root: NodeId, env: &[bool]) -> bool {
        self.eval_all(env)[root.index()]
    }

    /// Bit-parallel simulation: extends `sigs` to one word per arena node,
    /// where bit `k` of `sigs[i]` is node `i`'s value under input pattern
    /// `k` and `input(v)` supplies variable `v`'s 64 pattern bits. Only
    /// nodes past `sigs.len()` are evaluated, so a caller keeping `sigs`
    /// across calls pays once per node; nothing is appended to the arena.
    pub fn simulate(&self, sigs: &mut Vec<u64>, input: impl Fn(Var) -> u64) {
        sigs.reserve(self.heads.len().saturating_sub(sigs.len()));
        for i in sigs.len()..self.heads.len() {
            let word = match self.node(NodeId::from_index(i)) {
                Node::Const(b) => 0u64.wrapping_sub(u64::from(b)),
                Node::Var(v) => input(v),
                Node::And(children) => children.iter().fold(!0, |acc, c| acc & sigs[c.index()]),
                Node::Xor(children, parity) => children
                    .iter()
                    .fold(0u64.wrapping_sub(u64::from(parity)), |acc, c| {
                        acc ^ sigs[c.index()]
                    }),
            };
            sigs.push(word);
        }
    }

    /// Substitutes the constant `val` for `var` in a single root
    /// (convenience over [`Arena::cofactor_reachable`]).
    pub fn cofactor(&mut self, root: NodeId, var: Var, val: bool) -> NodeId {
        self.cofactor_reachable(&[root], var, val)[root.index()]
    }

    /// Substitutes the constant `val` for `var` in the nodes reachable
    /// from `roots`, returning a map from old node id to the cofactored
    /// node id; every other position of the map is the identity.
    ///
    /// Only the cone is visited, in ascending order, so in a long-lived
    /// session arena (where earlier queries have appended their own
    /// cofactor nodes) the per-query work follows the live formula graph
    /// instead of the whole arena history. A node whose children all map
    /// to themselves maps to itself without a constructor call, so no
    /// node id changes needlessly. New nodes may be appended; only ids
    /// that existed when the call started are positions of the map.
    pub fn cofactor_reachable(&mut self, roots: &[NodeId], var: Var, val: bool) -> Vec<NodeId> {
        let live = self.reachable(roots);
        let mut map: Vec<NodeId> = (0..live.len()).map(NodeId::from_index).collect();
        let mut mapped: Vec<NodeId> = Vec::new();
        for i in (0..live.len()).filter(|&i| live[i]) {
            let id = NodeId::from_index(i);
            // `None` is an AND, `Some(parity)` an XOR.
            let parity = match self.node(id) {
                Node::Var(v) if v == var => {
                    map[i] = self.constant(val);
                    continue;
                }
                Node::Const(_) | Node::Var(_) => continue,
                Node::And(_) => None,
                Node::Xor(_, parity) => Some(parity),
            };
            mapped.clear();
            mapped.extend(self.children(id).iter().map(|c| map[c.index()]));
            if mapped == self.children(id) {
                continue;
            }
            map[i] = match parity {
                None => self.and(&mapped),
                Some(parity) => {
                    let x = self.xor(&mapped);
                    if parity {
                        self.not(x)
                    } else {
                        x
                    }
                }
            };
        }
        map
    }

    /// Number of nodes reachable from `roots` (shared nodes counted once).
    pub fn reachable_size(&self, roots: &[NodeId]) -> usize {
        self.reachable(roots).iter().filter(|&&m| m).count()
    }

    /// Marks every node reachable from `roots`: one descending pass over
    /// the positions below the highest root (children precede parents),
    /// which reads the children of marked nodes only.
    pub fn reachable(&self, roots: &[NodeId]) -> Vec<bool> {
        let mut mark = vec![false; self.heads.len()];
        for r in roots {
            mark[r.index()] = true;
        }
        let top = roots.iter().map(|r| r.index() + 1).max().unwrap_or(0);
        for i in (0..top).rev() {
            if mark[i] {
                for c in self.children(NodeId::from_index(i)) {
                    mark[c.index()] = true;
                }
            }
        }
        mark
    }

    /// Garbage-collects the arena: a mark-sweep over the hash-consed DAG
    /// keeps only the two constants and every node reachable from
    /// `roots`, renumbers the survivors densely (preserving relative
    /// order, so children still precede parents and canonically sorted
    /// child lists stay sorted) and rebuilds the cons table.
    ///
    /// Heads and pool are compacted in place in one ascending pass (a
    /// survivor's children only move down), so the call allocates the
    /// mark vector and the returned map, whatever the arena's size.
    ///
    /// Every [`NodeId`] issued before the call is invalidated; holders
    /// must translate their ids through the returned [`NodeRemap`] (or
    /// drop entries whose nodes were collected — hash-consing guarantees
    /// a collected id can never be handed out for its old structure
    /// again without re-interning, which yields a *new* id).
    ///
    /// Long-lived verification sessions call this once enough dead
    /// cofactor/edit structure has accumulated; without it the
    /// append-only arena grows monotonically with session history.
    pub fn collect(&mut self, roots: &[NodeId]) -> NodeRemap {
        let mark = self.reachable(roots);
        let mut map: Vec<Option<NodeId>> = vec![None; self.heads.len()];
        let (mut live, mut pool_end) = (0, 0);
        for (i, &marked) in mark.iter().enumerate() {
            // The constants are structural anchors of every arena
            // ([`NodeId::FALSE`]/[`NodeId::TRUE`] are stable).
            if !marked && i >= 2 {
                continue;
            }
            let mut compact = |span: Span| {
                let start = pool_end;
                for k in span.range() {
                    let child = self.pool[k];
                    self.pool[pool_end] = map[child.index()].expect("child of a live node is live");
                    pool_end += 1;
                }
                Span::new(start, span.len as usize)
            };
            self.heads[live] = match self.heads[i] {
                Head::And(span) => Head::And(compact(span)),
                Head::Xor(span, parity) => Head::Xor(compact(span), parity),
                leaf => leaf,
            };
            map[i] = Some(NodeId::from_index(live));
            live += 1;
        }
        self.heads.truncate(live);
        self.pool.truncate(pool_end);
        self.rebuild_table((live * 2).next_power_of_two().max(MIN_TABLE));
        NodeRemap { map, live }
    }

    /// Renders a formula with variable names supplied by `name`.
    ///
    /// Intended for small formulas (tests, documentation); shared nodes are
    /// expanded, so do not call this on large graphs.
    pub fn render(&self, root: NodeId, name: &dyn Fn(Var) -> String) -> String {
        let mut out = String::new();
        self.render_into(root, name, &mut out, false);
        out
    }

    fn render_into(
        &self,
        id: NodeId,
        name: &dyn Fn(Var) -> String,
        out: &mut String,
        parens: bool,
    ) {
        match self.node(id) {
            Node::Const(b) => out.push_str(if b { "1" } else { "0" }),
            Node::Var(v) => out.push_str(&name(v)),
            Node::And(children) => {
                for child in children {
                    self.render_into(*child, name, out, true);
                }
            }
            Node::Xor(children, parity) => {
                if children.len() == 1 && parity {
                    out.push('~');
                    self.render_into(children[0], name, out, true);
                    return;
                }
                if parens {
                    out.push('(');
                }
                for (i, child) in children.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" + ");
                    }
                    self.render_into(*child, name, out, false);
                }
                if parity {
                    out.push_str(" + 1");
                }
                if parens {
                    out.push(')');
                }
            }
        }
    }
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new(Simplify::Full)
    }
}

/// The fixed-seed simulation word of input variable `v` for
/// [`Arena::simulate`]: 64 patterns (bit `k` is `v`'s value in pattern
/// `k`), the same in every run. Bits 0–47 are uniform; bits 48–55 set
/// each variable with probability 31/32 and bits 56–61 with 1/32, so
/// long products of positive (or of negated) inputs still see a 1; bit
/// 62 is the all-zero pattern and bit 63 the all-one pattern.
pub fn sim_input(v: Var) -> u64 {
    // SplitMix64 finaliser over the variable index and a stream number.
    let mix = |stream: u64| {
        let mut z = (u64::from(v) << 3 | stream).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let (a, b, c, d, e) = (mix(0), mix(1), mix(2), mix(3), mix(4));
    let dense = b | c | d | e;
    let sparse = b & c & d & e;
    (a & 0xFFFF_FFFF_FFFF) | (dense & 0xFF << 48) | (sparse & 0x3F << 56) | 1 << 63
}

/// The dense old→new node mapping produced by [`Arena::collect`].
#[derive(Debug, Clone)]
pub struct NodeRemap {
    /// `map[old.index()]` is the surviving node's new id, `None` when the
    /// node was collected.
    map: Vec<Option<NodeId>>,
    live: usize,
}

impl NodeRemap {
    /// The new id of `old`, or `None` if the node was collected.
    #[inline]
    pub fn remap(&self, old: NodeId) -> Option<NodeId> {
        self.map.get(old.index()).copied().flatten()
    }

    /// The new id of the node at dense position `old` before the
    /// collection, or `None` if it was collected.
    #[inline]
    pub fn remap_index(&self, old: usize) -> Option<NodeId> {
        self.map.get(old).copied().flatten()
    }

    /// Number of nodes that survived collection (the arena's new length).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of nodes the collection reclaimed.
    pub fn collected(&self) -> usize {
        self.map.len() - self.live
    }

    /// Arena length before collection (the domain of the map).
    pub fn len_before(&self) -> usize {
        self.map.len()
    }
}

impl fmt::Display for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Arena({} nodes, {:?})", self.heads.len(), self.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_preinterned() {
        let f = Arena::new(Simplify::Full);
        assert_eq!(f.constant(false), NodeId::FALSE);
        assert_eq!(f.constant(true), NodeId::TRUE);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut f = Arena::new(Simplify::Raw);
        let x = f.var(0);
        let y = f.var(1);
        let a = f.and2(x, y);
        let b = f.and2(x, y);
        assert_eq!(a, b);
    }

    #[test]
    fn full_mode_xor_cancels() {
        let mut f = Arena::new(Simplify::Full);
        let x = f.var(0);
        let y = f.var(1);
        let xy = f.and2(x, y);
        // x ⊕ (x∧y) ⊕ (x∧y) = x, the Fig. 6.1 simplification.
        let s1 = f.xor2(x, xy);
        let s2 = f.xor2(s1, xy);
        assert_eq!(s2, x);
    }

    #[test]
    fn raw_mode_xor_does_not_cancel() {
        let mut f = Arena::new(Simplify::Raw);
        let x = f.var(0);
        let y = f.var(1);
        let xy = f.and2(x, y);
        let s1 = f.xor2(x, xy);
        let s2 = f.xor2(s1, xy);
        assert_ne!(s2, x);
        // ...but it still evaluates correctly.
        for env in [[false, false], [false, true], [true, false], [true, true]] {
            assert_eq!(f.eval(s2, &env), env[0]);
        }
    }

    #[test]
    fn double_negation_folds() {
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut f = Arena::new(mode);
            let x = f.var(0);
            let nx = f.not(x);
            let nnx = f.not(nx);
            assert_eq!(nnx, x, "mode {mode:?}");
        }
    }

    #[test]
    fn and_annihilates_on_complement() {
        let mut f = Arena::new(Simplify::Full);
        let x = f.var(0);
        let nx = f.not(x);
        assert_eq!(f.and2(x, nx), NodeId::FALSE);
    }

    #[test]
    fn and_idempotent_in_full_mode() {
        let mut f = Arena::new(Simplify::Full);
        let x = f.var(0);
        assert_eq!(f.and2(x, x), x);
    }

    #[test]
    fn or_and_implies_truth_tables() {
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut f = Arena::new(mode);
            let x = f.var(0);
            let y = f.var(1);
            let or = f.or2(x, y);
            let imp = f.implies(x, y);
            for env in [[false, false], [false, true], [true, false], [true, true]] {
                assert_eq!(f.eval(or, &env), env[0] | env[1]);
                assert_eq!(f.eval(imp, &env), !env[0] | env[1]);
            }
        }
    }

    #[test]
    fn cofactor_substitutes() {
        let mut f = Arena::new(Simplify::Full);
        let x = f.var(0);
        let y = f.var(1);
        let xy = f.and2(x, y);
        let root = f.xor2(xy, y);
        // root[x:=1] = y ⊕ y = 0... careful: (1∧y) ⊕ y = y ⊕ y = 0.
        let c1 = f.cofactor(root, 0, true);
        assert_eq!(c1, NodeId::FALSE);
        // root[x:=0] = 0 ⊕ y = y.
        let c0 = f.cofactor(root, 0, false);
        assert_eq!(c0, y);
    }

    #[test]
    fn cofactor_raw_mode_matches_semantics() {
        let mut f = Arena::new(Simplify::Raw);
        let x = f.var(0);
        let y = f.var(1);
        let z = f.var(2);
        let xy = f.and2(x, y);
        let root0 = f.xor2(xy, z);
        let root = f.not(root0);
        for val in [false, true] {
            let c = f.cofactor(root, 1, val);
            for ex in [false, true] {
                for ez in [false, true] {
                    let env = [ex, val, ez];
                    assert_eq!(f.eval(c, &env), f.eval(root, &env));
                }
            }
        }
    }

    #[test]
    fn cofactor_reachable_matches_single_root_cofactors() {
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut f = Arena::new(mode);
            let x = f.var(0);
            let y = f.var(1);
            let z = f.var(2);
            let xy = f.and2(x, y);
            let r1 = f.xor2(xy, z);
            let r2 = f.not(xy);
            // A node NOT reachable from the roots below.
            let junk = f.and2(z, r1);

            let mut clone = f.clone();
            let single = [clone.cofactor(r1, 1, true), clone.cofactor(r2, 1, true)];
            let shared = f.cofactor_reachable(&[r1, r2], 1, true);
            assert_eq!([shared[r1.index()], shared[r2.index()]], single, "{mode:?}");
            // Unreachable positions are identity, not cofactored.
            assert_eq!(shared[junk.index()], junk, "mode {mode:?}");
        }
    }

    #[test]
    fn reachable_size_counts_shared_once() {
        let mut f = Arena::new(Simplify::Raw);
        let x = f.var(0);
        let y = f.var(1);
        let a = f.and2(x, y);
        let r1 = f.xor2(a, x);
        let r2 = f.xor2(a, y);
        // nodes: x, y, a, r1, r2 (+shared leaves) — a counted once.
        let n = f.reachable_size(&[r1, r2]);
        assert_eq!(n, 5);
    }

    #[test]
    fn render_produces_readable_formula() {
        let mut f = Arena::new(Simplify::Full);
        let a = f.var(0);
        let q1 = f.var(1);
        let q2 = f.var(2);
        let prod = f.and2(q1, q2);
        let root = f.xor2(a, prod);
        let names = |v: Var| ["a", "q1", "q2"][v as usize].to_string();
        assert_eq!(f.render(root, &names), "a + q1q2");
    }

    #[test]
    fn raw_mode_xor_of_negations_keeps_node_identity() {
        // ¬x ⊕ ¬y must cons to the same node as x ⊕ y: the parity of a
        // negation bubbles out of the chain instead of creating a
        // structurally distinct node. This is what keeps cofactor-diff
        // ids stable across a negation-only circuit edit.
        let mut f = Arena::new(Simplify::Raw);
        let x = f.var(0);
        let y = f.var(1);
        let xy = f.and2(x, y);
        let plain = f.xor2(x, xy);
        let nx = f.not(x);
        let nxy = f.not(xy);
        let negated = f.xor2(nx, nxy);
        assert_eq!(plain, negated, "double negation cancels in the chain");
        // A single negation surfaces as the chain's negation.
        let single = f.xor2(nx, xy);
        assert_eq!(single, f.not(plain));
        // Semantics preserved.
        for env in [[false, false], [false, true], [true, false], [true, true]] {
            assert_eq!(f.eval(plain, &env), env[0] ^ (env[0] & env[1]));
            assert_eq!(f.eval(single, &env), !env[0] ^ (env[0] & env[1]));
        }
    }

    #[test]
    fn raw_mode_multichild_negation_strips_to_sibling() {
        // A parity-true XOR with several children (created by `not`)
        // strips back to its parity-false sibling inside a chain.
        let mut f = Arena::new(Simplify::Raw);
        let x = f.var(0);
        let y = f.var(1);
        let z = f.var(2);
        let s = f.xor2(x, y); // Xor([x, y], false)
        let ns = f.not(s); // Xor([x, y], true)
        let a = f.xor2(s, z);
        let b = f.xor2(ns, z);
        assert_eq!(b, f.not(a));
        for bits in 0..8u32 {
            let env: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(f.eval(b, &env), !f.eval(a, &env));
        }
    }

    #[test]
    fn collect_drops_unreachable_and_renumbers_densely() {
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut f = Arena::new(mode);
            let x = f.var(0);
            let y = f.var(1);
            let xy = f.and2(x, y);
            let root = f.xor2(xy, x);
            // Dead structure: never reachable from `root`.
            let z = f.var(2);
            let dead = f.and2(z, root);
            let dead2 = f.not(dead);
            let before = f.len();

            let remap = f.collect(&[root]);
            assert_eq!(remap.len_before(), before);
            assert_eq!(remap.live(), f.len());
            assert!(remap.collected() >= 3, "z, dead, dead2 reclaimed");
            assert!(f.len() < before);
            // Constants are stable anchors.
            assert_eq!(remap.remap(NodeId::FALSE), Some(NodeId::FALSE));
            assert_eq!(remap.remap(NodeId::TRUE), Some(NodeId::TRUE));
            assert_eq!(remap.remap(z), None, "mode {mode:?}");
            assert_eq!(remap.remap(dead), None);
            assert_eq!(remap.remap(dead2), None);

            // Live ids remapped; re-interning the same structure finds
            // the renumbered nodes (cons table rebuilt consistently).
            let new_root = remap.remap(root).unwrap();
            let nx = f.var(0);
            let ny = f.var(1);
            assert_eq!(remap.remap(x), Some(nx));
            assert_eq!(remap.remap(y), Some(ny));
            let nxy = f.and2(nx, ny);
            assert_eq!(remap.remap(xy), Some(nxy));
            assert_eq!(f.xor2(nxy, nx), new_root, "mode {mode:?}");
            // Semantics of the surviving root unchanged.
            for env in [[false, false], [false, true], [true, false], [true, true]] {
                assert_eq!(f.eval(new_root, &env), (env[0] & env[1]) ^ env[0]);
            }
        }
    }

    #[test]
    fn collect_preserves_child_order_invariants() {
        // Children precede parents after renumbering, and rebuilding
        // collected structure reproduces ids exactly (hash-consing
        // equivalence after GC).
        let mut f = Arena::new(Simplify::Full);
        let vars: Vec<NodeId> = (0..6).map(|v| f.var(v)).collect();
        let mut roots = Vec::new();
        for w in vars.windows(3) {
            let a = f.and2(w[0], w[1]);
            let r = f.xor2(a, w[2]);
            roots.push(r);
        }
        // Garbage interleaved with live structure.
        let g1 = f.not(roots[0]);
        let _g2 = f.and2(g1, vars[5]);
        let remap = f.collect(&roots);
        for i in 0..f.len() {
            for c in f.children(f.id_at(i)) {
                assert!(c.index() < i, "children precede parents");
            }
        }
        for (old, r) in roots.iter().enumerate() {
            assert!(remap.remap(*r).is_some(), "root {old} survives");
        }
    }

    #[test]
    fn simulate_matches_eval_on_every_pattern() {
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut f = Arena::new(mode);
            let vars: Vec<NodeId> = (0..4).map(|v| f.var(v)).collect();
            let a = f.and2(vars[0], vars[1]);
            let x = f.xor(&[a, vars[2], vars[3]]);
            let n = f.not(x);
            let o = f.or2(n, vars[0]);
            let mut sigs = Vec::new();
            f.simulate(&mut sigs, sim_input);
            assert_eq!(sigs.len(), f.len());
            let y = f.var(1);
            let more = f.and2(o, y);
            f.simulate(&mut sigs, sim_input);
            assert_eq!(sigs.len(), f.len(), "extends to the new nodes");
            for k in 0..64 {
                let env: Vec<bool> = (0..4).map(|v| sim_input(v) >> k & 1 == 1).collect();
                let values = f.eval_all(&env);
                for (i, &value) in values.iter().enumerate() {
                    assert_eq!(
                        sigs[i] >> k & 1 == 1,
                        value,
                        "{mode:?} node {i} pattern {k}"
                    );
                }
            }
            assert_eq!(sigs[more.index()], sigs[o.index()] & sigs[y.index()]);
        }
        assert_ne!(sim_input(0), sim_input(1));
    }

    #[test]
    fn nary_xor_parity_folding() {
        let mut f = Arena::new(Simplify::Full);
        let x = f.var(0);
        let t = f.constant(true);
        // x ⊕ 1 ⊕ 1 = x
        let r = f.xor(&[x, t, t]);
        assert_eq!(r, x);
        // 1 ⊕ 1 = 0
        let r = f.xor(&[t, t]);
        assert_eq!(r, NodeId::FALSE);
    }
}
