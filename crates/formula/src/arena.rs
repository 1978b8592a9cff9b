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

use std::collections::HashMap;
use std::fmt;

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

/// An interned formula node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// A Boolean constant.
    Const(bool),
    /// An input variable.
    Var(Var),
    /// Conjunction of the children (each child id < this node's id).
    And(Box<[NodeId]>),
    /// Exclusive-or of the children, XORed with the parity flag.
    ///
    /// `Xor([x], true)` is negation; in [`Simplify::Full`] mode children are
    /// sorted, duplicate-free and never themselves `Xor` or `Const` nodes.
    Xor(Box<[NodeId]>, bool),
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

/// An append-only, hash-consed store of formula nodes.
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
    nodes: Vec<Node>,
    interned: HashMap<Node, NodeId>,
    mode: Simplify,
}

impl Arena {
    /// Creates an empty arena (the two constants are pre-interned).
    pub fn new(mode: Simplify) -> Self {
        let mut arena = Arena {
            nodes: Vec::new(),
            interned: HashMap::new(),
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
        self.nodes.len()
    }

    /// Returns `true` if only the constants are interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// Borrow a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arena.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The id stored at dense position `index` (inverse of
    /// [`NodeId::index`]); useful for bottom-up passes over the arena.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn id_at(&self, index: usize) -> NodeId {
        assert!(index < self.nodes.len(), "node index out of range");
        NodeId::from_index(index)
    }

    fn intern(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.interned.get(&node) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.interned.insert(node, id);
        id
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
        self.interned.get(&Node::Var(v)).copied()
    }

    /// Logical negation `¬x`.
    pub fn not(&mut self, x: NodeId) -> NodeId {
        match self.node(x) {
            Node::Const(b) => self.constant(!b),
            // Fold double negation / flip parity in both modes: a negation is
            // parity bookkeeping, not structure.
            Node::Xor(children, parity) => {
                let flipped = !parity;
                if children.len() == 1 && !flipped {
                    children[0]
                } else {
                    let node = Node::Xor(children.clone(), flipped);
                    self.intern(node)
                }
            }
            _ => self.intern(Node::Xor(Box::new([x]), true)),
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
                    let stripped = match self.node(op) {
                        Node::Const(b) => {
                            parity ^= b;
                            continue;
                        }
                        Node::Xor(children, true) => Some(children.clone()),
                        _ => None,
                    };
                    let base = match stripped {
                        Some(children) => {
                            parity = !parity;
                            if children.len() == 1 {
                                children[0]
                            } else {
                                // The parity-false sibling exists: a
                                // parity-true XOR is only ever created by
                                // negating it.
                                self.intern(Node::Xor(children, false))
                            }
                        }
                        None => op,
                    };
                    acc = Some(match acc {
                        None => base,
                        Some(prev) => self.intern(Node::Xor(Box::new([prev, base]), false)),
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
                    _ => self.intern(Node::Xor(kept.into_boxed_slice(), parity)),
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
                                Some(prev) => self.intern(Node::And(Box::new([prev, op]))),
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
                    if let Node::Xor(children, true) = self.node(id) {
                        if children.len() == 1 && leaves.binary_search(&children[0]).is_ok() {
                            return NodeId::FALSE;
                        }
                    }
                }
                match leaves.len() {
                    0 => NodeId::TRUE,
                    1 => leaves[0],
                    _ => self.intern(Node::And(leaves.into_boxed_slice())),
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
        let mut values = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node {
                Node::Const(b) => *b,
                Node::Var(v) => env[*v as usize],
                Node::And(children) => children.iter().all(|c| values[c.index()]),
                Node::Xor(children, parity) => children
                    .iter()
                    .fold(*parity, |acc, c| acc ^ values[c.index()]),
            };
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
        sigs.reserve(self.nodes.len().saturating_sub(sigs.len()));
        for i in sigs.len()..self.nodes.len() {
            let word = match &self.nodes[i] {
                Node::Const(b) => 0u64.wrapping_sub(u64::from(*b)),
                Node::Var(v) => input(*v),
                Node::And(children) => children.iter().fold(!0, |acc, c| acc & sigs[c.index()]),
                Node::Xor(children, parity) => children
                    .iter()
                    .fold(0u64.wrapping_sub(u64::from(*parity)), |acc, c| {
                        acc ^ sigs[c.index()]
                    }),
            };
            sigs.push(word);
        }
    }

    /// Substitutes the constant `val` for `var` in every node, returning a
    /// map from old node id to the cofactored node id.
    ///
    /// New nodes may be appended to the arena; only ids that existed when
    /// the call started appear as keys (positions) of the returned map.
    pub fn cofactor_all(&mut self, var: Var, val: bool) -> Vec<NodeId> {
        self.cofactor_where(|_| true, var, val)
    }

    /// Substitutes a single root (convenience over [`Arena::cofactor_all`]).
    pub fn cofactor(&mut self, root: NodeId, var: Var, val: bool) -> NodeId {
        self.cofactor_all(var, val)[root.index()]
    }

    /// Like [`Arena::cofactor_all`], but only cofactors nodes reachable
    /// from `roots`; every other position of the returned map is the
    /// identity. In a long-lived session arena (where earlier queries
    /// have appended their own cofactor nodes) this keeps the per-query
    /// work proportional to the live formula graph instead of the whole
    /// arena history.
    pub fn cofactor_reachable(&mut self, roots: &[NodeId], var: Var, val: bool) -> Vec<NodeId> {
        let live = self.reachable(roots);
        self.cofactor_where(|i| live[i], var, val)
    }

    /// The cofactor map of [`Arena::cofactor_all`] over the nodes at the
    /// positions `live` accepts; every other position maps to itself. A
    /// node whose children all map to themselves maps to itself without
    /// a constructor call, so no node id changes needlessly.
    fn cofactor_where(&mut self, live: impl Fn(usize) -> bool, var: Var, val: bool) -> Vec<NodeId> {
        let original_len = self.nodes.len();
        let mut map: Vec<NodeId> = Vec::with_capacity(original_len);
        let mut mapped: Vec<NodeId> = Vec::new();
        for i in 0..original_len {
            let id = NodeId(i as u32);
            let (children, parity) = match &self.nodes[i] {
                Node::Var(v) if *v == var && live(i) => {
                    map.push(self.constant(val));
                    continue;
                }
                Node::And(children) if live(i) => (children, None),
                Node::Xor(children, parity) if live(i) => (children, Some(*parity)),
                _ => {
                    map.push(id);
                    continue;
                }
            };
            mapped.clear();
            mapped.extend(children.iter().map(|c| map[c.index()]));
            if mapped.iter().zip(children.iter()).all(|(m, c)| m == c) {
                map.push(id);
                continue;
            }
            let cofactored = match parity {
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
            map.push(cofactored);
        }
        map
    }

    /// Number of nodes reachable from `roots` (shared nodes counted once).
    pub fn reachable_size(&self, roots: &[NodeId]) -> usize {
        let mut mark = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = roots.to_vec();
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if mark[id.index()] {
                continue;
            }
            mark[id.index()] = true;
            count += 1;
            match self.node(id) {
                Node::And(children) | Node::Xor(children, _) => stack.extend_from_slice(children),
                _ => {}
            }
        }
        count
    }

    /// Marks every node reachable from `roots`.
    pub fn reachable(&self, roots: &[NodeId]) -> Vec<bool> {
        let mut mark = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if mark[id.index()] {
                continue;
            }
            mark[id.index()] = true;
            match self.node(id) {
                Node::And(children) | Node::Xor(children, _) => stack.extend_from_slice(children),
                _ => {}
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
        let n = self.nodes.len();
        let mut map: Vec<Option<NodeId>> = vec![None; n];
        let mut kept: Vec<Node> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            // The constants are structural anchors of every arena
            // ([`NodeId::FALSE`]/[`NodeId::TRUE`] are stable).
            if !mark[i] && i >= 2 {
                continue;
            }
            let remapped = match node {
                Node::And(children) => Node::And(
                    children
                        .iter()
                        .map(|c| map[c.index()].expect("child of a live node is live"))
                        .collect(),
                ),
                Node::Xor(children, parity) => Node::Xor(
                    children
                        .iter()
                        .map(|c| map[c.index()].expect("child of a live node is live"))
                        .collect(),
                    *parity,
                ),
                other => other.clone(),
            };
            map[i] = Some(NodeId::from_index(kept.len()));
            kept.push(remapped);
        }
        self.interned = kept
            .iter()
            .enumerate()
            .map(|(i, node)| (node.clone(), NodeId::from_index(i)))
            .collect();
        self.nodes = kept;
        NodeRemap {
            map,
            live: self.nodes.len(),
        }
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
            Node::Const(b) => out.push_str(if *b { "1" } else { "0" }),
            Node::Var(v) => out.push_str(&name(*v)),
            Node::And(children) => {
                for child in children.iter() {
                    self.render_into(*child, name, out, true);
                }
            }
            Node::Xor(children, parity) => {
                if children.len() == 1 && *parity {
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
                if *parity {
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
        write!(f, "Arena({} nodes, {:?})", self.nodes.len(), self.mode)
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
    fn cofactor_reachable_matches_cofactor_all_on_roots() {
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
            let all = clone.cofactor_all(1, true);
            let restricted = f.cofactor_reachable(&[r1, r2], 1, true);
            assert_eq!(restricted[r1.index()], all[r1.index()], "mode {mode:?}");
            assert_eq!(restricted[r2.index()], all[r2.index()], "mode {mode:?}");
            // Unreachable positions are identity, not cofactored.
            assert_eq!(restricted[junk.index()], junk, "mode {mode:?}");
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
        for (i, node) in (0..f.len()).map(|i| (i, f.node(f.id_at(i)).clone())) {
            if let Node::And(children) | Node::Xor(children, _) = node {
                for c in children.iter() {
                    assert!(c.index() < i, "children precede parents");
                }
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
