//! Incremental Tseitin encoding for shared-solver verification sessions.
//!
//! The one-shot [`crate::encode`] walks every node reachable from its
//! roots and emits a fresh CNF. A verification session, however, asks
//! many queries against one monotonically growing [`Arena`]: the
//! symbolic-execution graph is shared by all 2·k per-qubit conditions and
//! only the cofactor nodes of each target are new. Re-encoding the whole
//! reachable graph per query throws away both the encoding work and —
//! far worse — the solver's learnt clauses about the encoded structure.
//!
//! [`IncrementalEncoder`] keeps a persistent node→literal map across
//! calls and appends CNF **only for newly interned nodes**. Clauses are
//! emitted through the [`CnfSink`] abstraction so they can go straight
//! into a live SAT solver (which implements fresh-variable allocation
//! natively) instead of an intermediate [`Cnf`].

use crate::arena::{Arena, Node, NodeId, NodeRemap, Var};
use crate::cnf::Cnf;
use std::collections::HashMap;

/// A consumer of DIMACS-style clauses with variable allocation.
///
/// Implemented by [`Cnf`] (batch encoding) and, in `qb-core`, by a live
/// CDCL solver (incremental sessions).
pub trait CnfSink {
    /// Allocates a fresh variable, returned as a positive literal.
    fn fresh_var(&mut self) -> i32;
    /// Adds one clause (a disjunction of non-zero DIMACS literals).
    fn add_clause(&mut self, lits: &[i32]);
}

impl CnfSink for Cnf {
    fn fresh_var(&mut self) -> i32 {
        Cnf::fresh_var(self)
    }

    fn add_clause(&mut self, lits: &[i32]) {
        Cnf::add_clause(self, lits)
    }
}

/// A persistent Tseitin encoder: node→literal state survives across
/// queries, so each call encodes only the not-yet-encoded frontier.
///
/// # Examples
///
/// ```
/// use qb_formula::{Arena, Cnf, IncrementalEncoder, Simplify};
/// let mut f = Arena::new(Simplify::Raw);
/// let mut enc = IncrementalEncoder::new();
/// let mut cnf = Cnf::new();
///
/// let x = f.var(0);
/// let y = f.var(1);
/// let a = f.and2(x, y);
/// let first = enc.encode_roots(&f, &[a], &mut cnf);
/// let after_first = cnf.clauses().len();
///
/// // A second query over `a ⊕ x` re-uses the encoding of `a` and `x`.
/// let r = f.xor2(a, x);
/// let second = enc.encode_roots(&f, &[r], &mut cnf);
/// assert_eq!(first.len(), 1);
/// assert_eq!(second.len(), 1);
/// assert!(cnf.clauses().len() > after_first, "new node encoded");
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalEncoder {
    /// Literal backing each arena node (indexed densely; `0` = not yet
    /// encoded).
    lits: Vec<i32>,
    /// CNF literal backing each input variable encountered so far.
    var_lits: HashMap<Var, i32>,
    /// The literal asserted true (allocated on first constant; `0` until
    /// then).
    true_lit: i32,
    /// Total clauses emitted through this encoder.
    clauses_emitted: usize,
    /// Stack of open retractable scopes (innermost last). Encoding
    /// records always land in the top scope; retraction pops in LIFO
    /// order, so a named checkpoint deep in the stack can be rolled back
    /// together with everything opened above it.
    scopes: Vec<ScopeRecord>,
    /// Frontier-walk marks, all `false` between calls (each call clears
    /// the marks it set), so a call costs its frontier, not the arena.
    visiting: Vec<bool>,
}

/// What a retractable scope has to undo: which node literals were
/// assigned, which input variables were first seen, and whether the
/// shared true-literal was allocated inside the scope.
#[derive(Debug, Clone, Default)]
struct ScopeRecord {
    /// Checkpoint name, when the scope was opened with
    /// [`IncrementalEncoder::begin_named_scope`].
    name: Option<String>,
    nodes: Vec<usize>,
    vars: Vec<Var>,
    true_lit_allocated: bool,
}

impl IncrementalEncoder {
    /// Creates an encoder with no nodes encoded.
    pub fn new() -> Self {
        IncrementalEncoder::default()
    }

    /// Number of arena nodes already encoded.
    pub fn encoded_nodes(&self) -> usize {
        self.lits.iter().filter(|&&l| l != 0).count()
    }

    /// Total clauses emitted across all [`IncrementalEncoder::encode_roots`] calls.
    pub fn clauses_emitted(&self) -> usize {
        self.clauses_emitted
    }

    /// The CNF literal backing input variable `v`, if it has been
    /// encoded.
    pub fn lit_of_var(&self, v: Var) -> Option<i32> {
        self.var_lits.get(&v).copied()
    }

    /// CNF literals of every encoded input variable.
    pub fn var_lits(&self) -> &HashMap<Var, i32> {
        &self.var_lits
    }

    /// The literal backing `id`, if that node has been encoded.
    pub fn lit_of(&self, id: NodeId) -> Option<i32> {
        match self.lits.get(id.index()) {
            Some(&l) if l != 0 => Some(l),
            _ => None,
        }
    }

    /// Opens a retractable scope: every node literal, input-variable
    /// literal, and true-literal allocation made by subsequent
    /// [`IncrementalEncoder::encode_roots`] calls is recorded until
    /// [`IncrementalEncoder::retract_scope`] undoes them. Scopes nest:
    /// records always land in the innermost open scope, and retraction is
    /// strictly LIFO.
    ///
    /// Callers that emit into a live incremental solver must guard the
    /// clauses produced inside a scope (e.g. behind a selector literal
    /// they later retire): after retraction the encoder may hand out
    /// *fresh* literals for the same nodes, so the old defining clauses
    /// must no longer constrain anything.
    pub fn begin_scope(&mut self) {
        self.scopes.push(ScopeRecord::default());
    }

    /// [`IncrementalEncoder::begin_scope`], additionally naming the scope
    /// as a checkpoint so [`IncrementalEncoder::retract_through`] can
    /// later roll the encoder back to the state at this call — undoing
    /// this scope *and* every scope opened above it.
    pub fn begin_named_scope(&mut self, name: &str) {
        self.scopes.push(ScopeRecord {
            name: Some(name.to_string()),
            ..ScopeRecord::default()
        });
    }

    /// Number of currently open scopes.
    pub fn open_scopes(&self) -> usize {
        self.scopes.len()
    }

    /// Closes the innermost open scope, forgetting every literal it
    /// assigned: the affected nodes read as not-yet-encoded again.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn retract_scope(&mut self) {
        let scope = self.scopes.pop().expect("no open scope to retract");
        self.undo(scope);
    }

    /// Rolls back to the checkpoint `name`: retracts every scope above
    /// the named one (in LIFO order) and then the named scope itself.
    ///
    /// # Panics
    ///
    /// Panics if no open scope is named `name`.
    pub fn retract_through(&mut self, name: &str) {
        assert!(
            self.scopes.iter().any(|s| s.name.as_deref() == Some(name)),
            "no open checkpoint named {name:?}"
        );
        loop {
            let scope = self.scopes.pop().expect("checkpoint existence checked");
            let found = scope.name.as_deref() == Some(name);
            self.undo(scope);
            if found {
                break;
            }
        }
    }

    fn undo(&mut self, scope: ScopeRecord) {
        for i in scope.nodes {
            self.lits[i] = 0;
        }
        for v in scope.vars {
            self.var_lits.remove(&v);
        }
        if scope.true_lit_allocated {
            self.true_lit = 0;
        }
    }

    /// The ids of every arena node this encoder currently holds a
    /// literal for (all open scopes included). These are the nodes an
    /// [`Arena::collect`] pass must keep alive so the encoder's
    /// node→literal map stays aligned with the permanent solver
    /// encoding.
    pub fn encoded_node_ids(&self) -> Vec<NodeId> {
        self.lits
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l != 0)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Follows an [`Arena::collect`] pass: re-indexes the node→literal
    /// map (and every open scope's records) through `remap`. Literals of
    /// collected nodes are forgotten — their ids can never be handed out
    /// again, and their defining clauses are satisfiability-neutral.
    pub fn remap_nodes(&mut self, remap: &NodeRemap) {
        self.visiting.truncate(remap.live());
        let mut lits = vec![0i32; remap.live()];
        for (old, &lit) in self.lits.iter().enumerate() {
            if lit == 0 {
                continue;
            }
            if let Some(new) = remap.remap(NodeId::from_index(old)) {
                lits[new.index()] = lit;
            }
        }
        self.lits = lits;
        for scope in &mut self.scopes {
            scope.nodes = scope
                .nodes
                .iter()
                .filter_map(|&i| remap.remap(NodeId::from_index(i)).map(NodeId::index))
                .collect();
        }
    }

    /// The 1-based DIMACS indices of every solver variable this encoder
    /// currently references (node literals of all scopes, input-variable
    /// literals, and the true-literal). A solver compaction pass must
    /// keep these variables alive; see
    /// [`IncrementalEncoder::remap_vars`].
    pub fn referenced_dimacs_vars(&self) -> Vec<u32> {
        let mut vars: Vec<u32> = self
            .lits
            .iter()
            .filter(|&&l| l != 0)
            .map(|&l| l.unsigned_abs())
            .chain(self.var_lits.values().map(|&l| l.unsigned_abs()))
            .collect();
        if self.true_lit != 0 {
            vars.push(self.true_lit.unsigned_abs());
        }
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Rewrites every stored literal after a solver variable compaction:
    /// `map[old]` is the new 0-based index of the variable with old
    /// 0-based index `old`, or `None` if the solver dropped the variable.
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable was dropped (the caller must pin
    /// [`IncrementalEncoder::referenced_dimacs_vars`]).
    pub fn remap_vars(&mut self, map: &[Option<usize>]) {
        let remap = |l: i32| -> i32 {
            if l == 0 {
                return 0;
            }
            let old = (l.unsigned_abs() - 1) as usize;
            let new = map
                .get(old)
                .copied()
                .flatten()
                .expect("encoder-referenced variable survives compaction");
            (new as i32 + 1) * l.signum()
        };
        for l in &mut self.lits {
            *l = remap(*l);
        }
        for l in self.var_lits.values_mut() {
            *l = remap(*l);
        }
        self.true_lit = remap(self.true_lit);
    }

    /// Encodes every node reachable from `roots` that is not already
    /// encoded, emitting defining clauses into `sink`, and returns one
    /// literal per root (in request order). Asserting a returned literal
    /// asserts the corresponding formula; satisfiability is preserved
    /// exactly as for [`crate::encode`].
    ///
    /// # Panics
    ///
    /// Panics if a root does not belong to `arena`.
    pub fn encode_roots<S: CnfSink>(
        &mut self,
        arena: &Arena,
        roots: &[NodeId],
        sink: &mut S,
    ) -> Vec<i32> {
        self.lits.resize(arena.len(), 0);
        self.visiting.resize(arena.len(), false);
        let visiting = &mut self.visiting;

        // Frontier discovery: nodes reachable from the roots through
        // not-yet-encoded territory. Children of an encoded node are
        // themselves encoded, so the walk stops at the old watermark.
        let mut pending: Vec<usize> = Vec::new();
        let mut stack: Vec<NodeId> = roots
            .iter()
            .filter(|r| self.lits[r.index()] == 0)
            .copied()
            .collect();
        while let Some(id) = stack.pop() {
            let i = id.index();
            if visiting[i] || self.lits[i] != 0 {
                continue;
            }
            visiting[i] = true;
            pending.push(i);
            let children = arena.children(id);
            stack.extend(children.iter().filter(|c| self.lits[c.index()] == 0));
        }
        for &i in &pending {
            visiting[i] = false;
        }
        // Children always precede parents in arena order.
        pending.sort_unstable();

        for i in pending {
            let id = NodeId::from_index(i);
            let lit = match arena.node(id) {
                Node::Const(b) => {
                    if self.true_lit == 0 {
                        self.true_lit = sink.fresh_var();
                        sink.add_clause(&[self.true_lit]);
                        self.clauses_emitted += 1;
                        if let Some(scope) = self.scopes.last_mut() {
                            scope.true_lit_allocated = true;
                        }
                    }
                    if b {
                        self.true_lit
                    } else {
                        -self.true_lit
                    }
                }
                Node::Var(v) => match self.var_lits.get(&v) {
                    Some(&l) => l,
                    None => {
                        let l = sink.fresh_var();
                        self.var_lits.insert(v, l);
                        if let Some(scope) = self.scopes.last_mut() {
                            scope.vars.push(v);
                        }
                        l
                    }
                },
                Node::And(children) => {
                    let child_lits: Vec<i32> =
                        children.iter().map(|c| self.lits[c.index()]).collect();
                    let y = sink.fresh_var();
                    // y → cᵢ for every child.
                    for &c in &child_lits {
                        sink.add_clause(&[-y, c]);
                        self.clauses_emitted += 1;
                    }
                    // (∧ cᵢ) → y.
                    let mut big: Vec<i32> = child_lits.iter().map(|&c| -c).collect();
                    big.push(y);
                    sink.add_clause(&big);
                    self.clauses_emitted += 1;
                    y
                }
                Node::Xor(children, parity) => {
                    let mut acc = self.lits[children[0].index()];
                    for c in &children[1..] {
                        let b = self.lits[c.index()];
                        let y = sink.fresh_var();
                        // y ↔ acc ⊕ b.
                        sink.add_clause(&[-acc, -b, -y]);
                        sink.add_clause(&[acc, b, -y]);
                        sink.add_clause(&[acc, -b, y]);
                        sink.add_clause(&[-acc, b, y]);
                        self.clauses_emitted += 4;
                        acc = y;
                    }
                    if parity {
                        -acc
                    } else {
                        acc
                    }
                }
            };
            debug_assert!(lit != 0, "every node gets a non-zero literal");
            self.lits[i] = lit;
            if let Some(scope) = self.scopes.last_mut() {
                scope.nodes.push(i);
            }
        }

        roots.iter().map(|r| self.lits[r.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Simplify;
    use crate::cnf::encode;

    /// Brute-force satisfiability of `cnf ∧ root` over its variables.
    fn brute_sat(cnf: &Cnf, root: i32) -> bool {
        let n = cnf.num_vars();
        assert!(n <= 20, "brute force limited to 20 vars");
        for bits in 0u64..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let root_val = {
                let v = assignment[(root.unsigned_abs() - 1) as usize];
                if root > 0 {
                    v
                } else {
                    !v
                }
            };
            if root_val && cnf.eval(&assignment) {
                return true;
            }
        }
        false
    }

    #[test]
    fn matches_one_shot_encoding_semantics() {
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut f = Arena::new(mode);
            let a = f.var(0);
            let b = f.var(1);
            let ab = f.and2(a, b);
            let nb = f.not(b);
            let root = f.xor2(ab, nb);

            let one_shot = encode(&f, &[root]);
            let mut enc = IncrementalEncoder::new();
            let mut cnf = Cnf::new();
            let lits = enc.encode_roots(&f, &[root], &mut cnf);
            assert_eq!(
                brute_sat(&cnf, lits[0]),
                brute_sat(&one_shot.cnf, one_shot.root_lits[0]),
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn second_query_appends_only_new_nodes() {
        let mut f = Arena::new(Simplify::Raw);
        let x = f.var(0);
        let y = f.var(1);
        let z = f.var(2);
        let xy = f.and2(x, y);
        let mut enc = IncrementalEncoder::new();
        let mut cnf = Cnf::new();
        enc.encode_roots(&f, &[xy], &mut cnf);
        let clauses_after_first = cnf.clauses().len();
        let vars_after_first = cnf.num_vars();

        // Re-encoding the same root emits nothing.
        let again = enc.encode_roots(&f, &[xy], &mut cnf);
        assert_eq!(cnf.clauses().len(), clauses_after_first);
        assert_eq!(cnf.num_vars(), vars_after_first);
        assert_eq!(again, enc.encode_roots(&f, &[xy], &mut cnf));

        // A new node over old structure only encodes the delta.
        let root = f.xor2(xy, z);
        let lits = enc.encode_roots(&f, &[root], &mut cnf);
        assert_eq!(lits.len(), 1);
        // Delta: one fresh var for z, one XOR chain var; 4 XOR clauses.
        assert_eq!(cnf.num_vars(), vars_after_first + 2);
        assert_eq!(cnf.clauses().len(), clauses_after_first + 4);
    }

    #[test]
    fn incremental_queries_stay_satisfiability_correct() {
        // Build formulas in stages, checking each root against brute
        // force of a freshly encoded copy.
        let mut f = Arena::new(Simplify::Raw);
        let mut enc = IncrementalEncoder::new();
        let mut cnf = Cnf::new();
        let x = f.var(0);
        let y = f.var(1);

        let nx = f.not(x);
        let contra = f.and2(x, nx);
        let tauto = f.or2(x, nx);
        let mixed = f.and2(tauto, y);

        for root in [contra, tauto, mixed] {
            let lit = enc.encode_roots(&f, &[root], &mut cnf)[0];
            let fresh = encode(&f, &[root]);
            assert_eq!(
                brute_sat(&cnf, lit),
                brute_sat(&fresh.cnf, fresh.root_lits[0])
            );
        }
    }

    #[test]
    fn constants_share_one_true_literal() {
        let f = Arena::new(Simplify::Raw);
        let mut enc = IncrementalEncoder::new();
        let mut cnf = Cnf::new();
        let t = f.constant(true);
        let fl = f.constant(false);
        let lt = enc.encode_roots(&f, &[t], &mut cnf)[0];
        let lf = enc.encode_roots(&f, &[fl], &mut cnf)[0];
        assert_eq!(lt, -lf);
        assert!(brute_sat(&cnf, lt));
        assert!(!brute_sat(&cnf, lf));
    }

    #[test]
    fn nested_scopes_retract_in_lifo_order() {
        let mut f = Arena::new(Simplify::Raw);
        let mut enc = IncrementalEncoder::new();
        let mut cnf = Cnf::new();
        let x = f.var(0);
        enc.encode_roots(&f, &[x], &mut cnf);

        enc.begin_named_scope("suffix");
        let y = f.var(1);
        let xy = f.and2(x, y);
        enc.encode_roots(&f, &[xy], &mut cnf);
        assert!(enc.lit_of(xy).is_some());

        enc.begin_scope(); // anonymous query scope on top
        let z = f.var(2);
        let q = f.xor2(xy, z);
        enc.encode_roots(&f, &[q], &mut cnf);
        assert!(enc.lit_of(q).is_some());
        assert_eq!(enc.open_scopes(), 2);

        enc.retract_scope();
        assert!(enc.lit_of(q).is_none(), "query scope rolled back");
        assert!(enc.lit_of(xy).is_some(), "checkpointed scope survives");

        enc.begin_scope();
        enc.encode_roots(&f, &[q], &mut cnf);
        enc.retract_through("suffix");
        assert_eq!(enc.open_scopes(), 0);
        assert!(enc.lit_of(q).is_none());
        assert!(enc.lit_of(xy).is_none(), "checkpoint rolls back the suffix");
        assert!(enc.lit_of_var(1).is_none());
        assert_eq!(enc.lit_of(x), Some(enc.lit_of_var(0).unwrap()));
    }

    #[test]
    #[should_panic(expected = "no open checkpoint")]
    fn retract_through_unknown_checkpoint_panics() {
        let mut enc = IncrementalEncoder::new();
        enc.begin_scope();
        enc.retract_through("missing");
    }

    #[test]
    fn remap_vars_rewrites_every_literal() {
        let mut f = Arena::new(Simplify::Raw);
        let mut enc = IncrementalEncoder::new();
        let mut cnf = Cnf::new();
        let x = f.var(0);
        let nx = f.not(x);
        let t = f.constant(true);
        let root = f.and2(nx, t);
        let lit = enc.encode_roots(&f, &[root], &mut cnf)[0];

        let referenced = enc.referenced_dimacs_vars();
        assert!(referenced.contains(&lit.unsigned_abs()));

        // Shift every variable up by one slot (as a compaction that
        // dropped variable 0 of a larger solver would).
        let max = referenced.iter().max().copied().unwrap() as usize;
        let map: Vec<Option<usize>> = (0..max).map(|v| Some(v + 1)).collect();
        let old_var_lit = enc.lit_of_var(0).unwrap();
        enc.remap_vars(&map);
        assert_eq!(
            enc.lit_of_var(0).unwrap(),
            old_var_lit + old_var_lit.signum()
        );
        assert_eq!(
            enc.lit_of(root).unwrap().unsigned_abs(),
            lit.unsigned_abs() + 1
        );
        assert_eq!(
            enc.lit_of(root).unwrap().signum(),
            lit.signum(),
            "polarity preserved"
        );
    }

    #[test]
    fn remap_nodes_follows_arena_collection() {
        let mut f = Arena::new(Simplify::Raw);
        let mut enc = IncrementalEncoder::new();
        let mut cnf = Cnf::new();
        let x = f.var(0);
        let y = f.var(1);
        let root = f.and2(x, y);
        // Dead structure encoded in a scope, then retracted: its nodes
        // stay interned but carry no literal.
        enc.begin_scope();
        let z = f.var(2);
        let dead = f.xor2(root, z);
        enc.encode_roots(&f, &[dead], &mut cnf);
        enc.retract_scope();
        let lit_root = enc.encode_roots(&f, &[root], &mut cnf)[0];

        let remap = f.collect(&[root]);
        assert!(remap.collected() >= 2, "z and the dead xor reclaimed");
        enc.remap_nodes(&remap);
        let new_root = remap.remap(root).unwrap();
        assert_eq!(enc.lit_of(new_root), Some(lit_root));
        assert_eq!(enc.lit_of_var(0), enc.lit_of(remap.remap(x).unwrap()));
        assert_eq!(enc.encoded_nodes(), enc.encoded_node_ids().len());

        // Re-encoding after collection is a no-op for surviving nodes
        // and freshly encodes re-interned structure.
        let before = cnf.clauses().len();
        let again = enc.encode_roots(&f, &[new_root], &mut cnf)[0];
        assert_eq!(again, lit_root);
        assert_eq!(cnf.clauses().len(), before);
        let z2 = f.var(2);
        let revived = f.xor2(new_root, z2);
        let lits = enc.encode_roots(&f, &[revived], &mut cnf);
        assert_eq!(lits.len(), 1);
        assert!(cnf.clauses().len() > before, "revived structure re-encoded");
    }

    #[test]
    fn remap_nodes_keeps_open_scope_records_consistent() {
        let mut f = Arena::new(Simplify::Raw);
        let mut enc = IncrementalEncoder::new();
        let mut cnf = Cnf::new();
        let x = f.var(0);
        enc.encode_roots(&f, &[x], &mut cnf);

        enc.begin_named_scope("suffix");
        let y = f.var(1);
        let xy = f.and2(x, y);
        enc.encode_roots(&f, &[xy], &mut cnf);
        // Garbage outside the scope's records.
        let z = f.var(9);
        let dead = f.and2(xy, z);
        let _ = dead;

        let mut roots = vec![xy];
        roots.extend(enc.encoded_node_ids());
        let remap = f.collect(&roots);
        enc.remap_nodes(&remap);
        let new_xy = remap.remap(xy).unwrap();
        assert!(enc.lit_of(new_xy).is_some());

        // Retracting through the checkpoint must zero exactly the
        // remapped scope nodes — and leave the permanent layer intact.
        enc.retract_through("suffix");
        assert!(enc.lit_of(new_xy).is_none());
        assert!(enc.lit_of_var(1).is_none());
        assert!(enc.lit_of(remap.remap(x).unwrap()).is_some());
    }

    #[test]
    fn var_lits_are_stable_across_queries() {
        let mut f = Arena::new(Simplify::Full);
        let mut enc = IncrementalEncoder::new();
        let mut cnf = Cnf::new();
        let x = f.var(7);
        enc.encode_roots(&f, &[x], &mut cnf);
        let first = enc.lit_of_var(7).unwrap();
        let y = f.var(9);
        let root = f.and2(x, y);
        enc.encode_roots(&f, &[root], &mut cnf);
        assert_eq!(enc.lit_of_var(7).unwrap(), first);
        assert_eq!(enc.var_lits().len(), 2);
    }
}
