//! Simulation-guided SAT sweeping for the SAT rung (FRAIG-style;
//! Kuehlmann et al., TCAD 2002; Mishchenko et al., "FRAIGs", 2005).
//!
//! Under [`qb_formula::Simplify::Raw`] a circuit's compute/uncompute
//! structure stays in the arena, and every (6.2) disjunct — a miter
//! between two cofactors — makes the solver refute that structure again.
//! Sweeping proves the cancellations once per arena node instead:
//!
//! * every node is simulated on 64 fixed-seed input patterns
//!   ([`qb_formula::Arena::simulate`]), and nodes whose signatures agree,
//!   or agree after complementing, land in one candidate class;
//! * nodes are visited bottom-up and rebuilt over their children's
//!   representatives (hash-consed, so rebuilt structure is shared);
//! * a rebuilt node is proven equal to a member of its class by small,
//!   conflict-capped calls on the session's own solver ([`Prover`]); a
//!   proof records a merge, a refutation or a capped call does not;
//! * a few shapes merge without a solver call — negations, `x ⊕ x`,
//!   `(u ⊕ v) ⊕ v` and reordered operands — and nodes whose signature
//!   is nearly constant (sparse products) are never candidates: their
//!   collisions are mostly false, and each refutation costs a full model
//!   search.
//!
//! Each swept node maps to a representative: the class member it was
//! proven equal to (possibly complemented), or itself. The map is flat —
//! the first member to enter a class stays its representative, so
//! structure built over a representative never goes stale. Condition
//! construction then cofactors the final formulas' representatives: a
//! restored qubit's formula reduces to its `Var` node, whose cofactor
//! pair is one node, and the pair of every remaining disjunct is swept
//! too, so the identity check in `conditions.rs` drops every disjunct
//! whose two sides merged before any solver call.
//!
//! Only proven merges are recorded and the arena stays append-only, so a
//! [`NodeId`] still names one function: the decision cache and the
//! cofactor memo stay sound. The state persists across targets, sweeps
//! and edits (a suffix edit sweeps only nodes it has not seen), follows
//! arena collections ([`Sweep::remap_nodes`]), and is deterministic:
//! fixed patterns, and caps counted in conflicts.

use crate::verifier::VerifyError;
use qb_formula::{sim_input, Arena, Node, NodeId, NodeRemap, Var};
use std::collections::HashMap;
use std::time::Duration;

/// Conflict cap of one candidate-proof call. Sweeping proofs are local
/// (both sides are built over already-merged representatives); a pair
/// the cap stops stays unmerged and its disjunct goes to the full query.
pub(crate) const SWEEP_CONFLICT_CAP: u64 = 100;

/// Class members a node is tried against before it becomes a member
/// itself (distinct functions that share a signature).
const CLASS_TRIES: usize = 2;

/// Signatures with at most this many bits set (after phase
/// normalisation) take part in no candidate proof.
const SPARSE_SIG: u32 = 2;

/// Members kept per candidate class.
const CLASS_CAP: usize = 4;

/// Outcome of one candidate proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Proof {
    /// The two nodes compute the same function (up to the complement).
    Equal,
    /// A satisfying assignment tells them apart.
    Differ,
    /// The conflict cap stopped the call.
    Capped,
}

/// Proves or refutes candidate pairs on a SAT solver.
pub(crate) trait Prover {
    /// Decides whether `a ≡ b` (`a ≡ ¬b` when `complement`). A
    /// cancellation-token stop is [`VerifyError::Interrupted`].
    fn prove(
        &mut self,
        arena: &Arena,
        a: NodeId,
        b: NodeId,
        complement: bool,
    ) -> Result<Proof, VerifyError>;
}

/// Per-session sweeping state (see the module docs).
#[derive(Debug)]
pub(crate) struct Sweep {
    /// Per arena node: `None` until swept, then its representative and
    /// whether the node is the representative's complement.
    rep: Vec<Option<(NodeId, bool)>>,
    /// Per arena node: its values on the 64 simulation patterns.
    sigs: Vec<u64>,
    /// Candidate classes keyed by phase-normalised signature (bit 0
    /// clear); members are representatives, first member first.
    classes: HashMap<u64, Vec<NodeId>>,
    /// The final formulas of the last base pass, and their
    /// representatives (the roots condition construction cofactors).
    formulas: Vec<NodeId>,
    roots: Vec<NodeId>,
    pub(crate) merged: u64,
    pub(crate) refuted: u64,
    pub(crate) capped: u64,
    pub(crate) sat_calls: u64,
    /// Published as it happens (`sweep/sim_witnesses`), not per pass.
    pub(crate) sim_witnesses: u64,
    /// Wall time of every sweep pass and simulation check.
    pub(crate) time: Duration,
    /// Counter values last published to the metrics registry.
    published: [u64; 3],
}

impl Default for Sweep {
    fn default() -> Self {
        let mut sweep = Sweep {
            rep: Vec::new(),
            sigs: Vec::new(),
            classes: HashMap::new(),
            formulas: Vec::new(),
            roots: Vec::new(),
            merged: 0,
            refuted: 0,
            capped: 0,
            sat_calls: 0,
            sim_witnesses: 0,
            time: Duration::ZERO,
            published: [0; 3],
        };
        sweep.seed_constants();
        sweep
    }
}

impl Sweep {
    /// The constants are swept from the start: `TRUE` is `¬FALSE`.
    fn seed_constants(&mut self) {
        if self.rep.len() < 2 {
            self.rep.resize(2, None);
        }
        self.rep[NodeId::FALSE.index()] = Some((NodeId::FALSE, false));
        self.rep[NodeId::TRUE.index()] = Some((NodeId::FALSE, true));
    }

    /// The representatives of the final formulas of the last base pass.
    pub(crate) fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Base pass: sweeps the cones of the final `formulas` and records
    /// their representatives (see [`Sweep::roots`]).
    pub(crate) fn sweep_formulas(
        &mut self,
        arena: &mut Arena,
        prover: &mut dyn Prover,
        formulas: &[NodeId],
    ) -> Result<(), VerifyError> {
        let mut roots = Vec::with_capacity(formulas.len());
        for &f in formulas {
            roots.push(self.canon(arena, prover, f)?);
        }
        self.formulas = formulas.to_vec();
        self.roots = roots;
        Ok(())
    }

    /// Whether the last base pass swept exactly `formulas`.
    pub(crate) fn covers(&self, formulas: &[NodeId]) -> bool {
        self.formulas == formulas
    }

    /// Brings signatures and the representative map up to the arena.
    fn grow(&mut self, arena: &Arena) {
        arena.simulate(&mut self.sigs, sim_input);
        if self.rep.len() < arena.len() {
            self.rep.resize(arena.len(), None);
        }
    }

    /// `id`'s representative and complement flag, if `id` was swept.
    pub(crate) fn lookup(&self, id: NodeId) -> Option<(NodeId, bool)> {
        self.rep.get(id.index()).copied().flatten()
    }

    /// The signature of `id` (simulating any nodes appended since the
    /// last call).
    pub(crate) fn sig(&mut self, arena: &Arena, id: NodeId) -> u64 {
        self.grow(arena);
        self.sigs[id.index()]
    }

    /// The input assignment of simulation pattern `k` over `vars`.
    pub(crate) fn pattern(vars: &[Var], k: u32) -> HashMap<Var, bool> {
        vars.iter()
            .map(|&v| (v, sim_input(v) >> k & 1 == 1))
            .collect()
    }

    /// Sweeps the cone of `root` and returns the node standing for its
    /// representative (the negation node when complemented).
    pub(crate) fn canon(
        &mut self,
        arena: &mut Arena,
        prover: &mut dyn Prover,
        root: NodeId,
    ) -> Result<NodeId, VerifyError> {
        let (rep, complement) = self.sweep_cone(arena, prover, root)?;
        Ok(self.node_of(arena, rep, complement))
    }

    /// The node computing `rep` (negated when `complement`); a negation
    /// node created here is swept on the spot.
    fn node_of(&mut self, arena: &mut Arena, rep: NodeId, complement: bool) -> NodeId {
        if !complement {
            return rep;
        }
        let negated = arena.not(rep);
        self.grow(arena);
        if self.lookup(negated).is_none() {
            self.rep[negated.index()] = Some((rep, true));
        }
        negated
    }

    /// Sweeps every unswept node of `root`'s cone, children first.
    fn sweep_cone(
        &mut self,
        arena: &mut Arena,
        prover: &mut dyn Prover,
        root: NodeId,
    ) -> Result<(NodeId, bool), VerifyError> {
        self.grow(arena);
        if let Some(r) = self.lookup(root) {
            return Ok(r);
        }
        let mut stack = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if self.lookup(id).is_some() {
                continue;
            }
            if expanded {
                self.sweep_node(arena, prover, id)?;
                continue;
            }
            stack.push((id, true));
            if let Node::And(children) | Node::Xor(children, _) = arena.node(id) {
                for &c in children.iter() {
                    if self.lookup(c).is_none() {
                        stack.push((c, false));
                    }
                }
            }
        }
        Ok(self.lookup(root).expect("the root was swept"))
    }

    /// Sweeps `id`, whose children are swept: rebuilds it over their
    /// representatives, then classifies the rebuilt node.
    fn sweep_node(
        &mut self,
        arena: &mut Arena,
        prover: &mut dyn Prover,
        id: NodeId,
    ) -> Result<(), VerifyError> {
        let rebuilt = match arena.node(id).clone() {
            Node::Const(_) | Node::Var(_) => id,
            Node::And(children) => {
                let kids: Vec<NodeId> = children
                    .iter()
                    .map(|&c| {
                        let (r, complement) = self.lookup(c).expect("children are swept");
                        self.node_of(arena, r, complement)
                    })
                    .collect();
                arena.and(&kids)
            }
            Node::Xor(children, parity) => {
                let mut parity = parity;
                let kids: Vec<NodeId> = children
                    .iter()
                    .map(|&c| {
                        let (r, complement) = self.lookup(c).expect("children are swept");
                        parity ^= complement;
                        r
                    })
                    .collect();
                let x = arena.xor(&kids);
                if parity {
                    arena.not(x)
                } else {
                    x
                }
            }
        };
        self.grow(arena);
        let rep = match self.lookup(rebuilt) {
            Some(r) => r,
            None if rebuilt == id => self.classify(arena, prover, id)?,
            // The rebuild appended structure over representatives
            // (possibly an inner XOR under a negation): classify it
            // as built, children first.
            None => self.classify_fresh(arena, prover, rebuilt)?,
        };
        self.rep[id.index()] = Some(rep);
        Ok(())
    }

    /// Classifies `id` and any unswept descendants as built (no further
    /// rebuild): nodes a rebuild appended have representative children.
    fn classify_fresh(
        &mut self,
        arena: &mut Arena,
        prover: &mut dyn Prover,
        id: NodeId,
    ) -> Result<(NodeId, bool), VerifyError> {
        if let Node::And(children) | Node::Xor(children, _) = arena.node(id).clone() {
            for c in children.iter() {
                if self.lookup(*c).is_none() {
                    let r = self.classify_fresh(arena, prover, *c)?;
                    self.rep[c.index()] = Some(r);
                }
            }
        }
        let r = self.classify(arena, prover, id)?;
        self.rep[id.index()] = Some(r);
        Ok(r)
    }

    /// Finds `id`'s representative among the members of its candidate
    /// class (newest first), or makes `id` a member. The structural
    /// shapes of the module docs are resolved without a solver call.
    fn classify(
        &mut self,
        arena: &Arena,
        prover: &mut dyn Prover,
        id: NodeId,
    ) -> Result<(NodeId, bool), VerifyError> {
        match arena.node(id) {
            Node::Const(b) => return Ok((NodeId::FALSE, *b)),
            Node::Xor(children, parity) if children.len() == 1 => {
                let (r, complement) = self.lookup(children[0]).expect("children are swept");
                return Ok((r, complement != *parity));
            }
            // `x ⊕ x` and `x ∧ x`: the Raw constructors keep them, and a
            // rebuild over merged children creates them.
            Node::Xor(children, parity) if children.len() == 2 && children[0] == children[1] => {
                return Ok((NodeId::FALSE, *parity));
            }
            Node::And(children) if children.iter().all(|&c| c == children[0]) => {
                return Ok(self.lookup(children[0]).expect("children are swept"));
            }
            // `(u ⊕ v) ⊕ v`: a gate and its inverse next to each other.
            Node::Xor(children, parity) if children.len() == 2 => {
                if let Some(r) = self.cancel_pair(arena, children[0], children[1], *parity) {
                    return Ok(r);
                }
                if let Some(r) = self.cancel_pair(arena, children[1], children[0], *parity) {
                    return Ok(r);
                }
            }
            _ => {}
        }
        let sig = self.sigs[id.index()];
        let flip = sig & 1 == 1;
        let key = if flip { !sig } else { sig };
        if key.count_ones() <= SPARSE_SIG {
            // Near-constant signatures mostly belong to sparse products
            // that few patterns set, and they collide with each other;
            // refuting each pair would cost a full model search, so such
            // nodes only merge by the structural rules above.
            return Ok((id, false));
        }
        let tries: Vec<NodeId> = self
            .classes
            .get(&key)
            .map(|m| m.iter().rev().take(CLASS_TRIES).copied().collect())
            .unwrap_or_default();
        for m in tries {
            let complement = (self.sigs[m.index()] & 1 == 1) != flip;
            if permuted(arena, id, m, complement) {
                self.merged += 1;
                return Ok((m, complement));
            }
            match prover.prove(arena, id, m, complement)? {
                Proof::Equal => {
                    self.merged += 1;
                    return Ok((m, complement));
                }
                Proof::Differ => self.refuted += 1,
                Proof::Capped => self.capped += 1,
            }
        }
        let members = self.classes.entry(key).or_default();
        if members.len() < CLASS_CAP {
            members.push(id);
        }
        Ok((id, false))
    }

    /// `x ⊕ y` with `x = u ⊕ v` and `y = v` (either order) is `u`,
    /// complemented by the two parities.
    fn cancel_pair(
        &self,
        arena: &Arena,
        x: NodeId,
        y: NodeId,
        parity: bool,
    ) -> Option<(NodeId, bool)> {
        let Node::Xor(inner, inner_parity) = arena.node(x) else {
            return None;
        };
        let keep = match inner[..] {
            [u, v] if v == y => u,
            [u, v] if u == y => v,
            _ => return None,
        };
        let (r, complement) = self.lookup(keep)?;
        Some((r, complement ^ parity ^ inner_parity))
    }

    /// Publishes the counters accumulated since the last call to the
    /// metrics registry (`sweep/{merged,refuted,capped}`), once per sweep
    /// pass.
    pub(crate) fn publish(&mut self) {
        let now = [self.merged, self.refuted, self.capped];
        for ((label, n), old) in ["merged", "refuted", "capped"]
            .into_iter()
            .zip(now)
            .zip(&mut self.published)
        {
            qb_obs::counter_add("sweep", label, n - *old);
            *old = n;
        }
    }

    /// Follows an arena collection: entries over collected nodes are
    /// dropped (a node whose representative was collected reads as
    /// unswept again), surviving entries, signatures and class members
    /// are renumbered.
    pub(crate) fn remap_nodes(&mut self, remap: &NodeRemap) {
        let mut rep = vec![None; remap.live()];
        for (old, &entry) in self.rep.iter().enumerate() {
            let Some((target, complement)) = entry else {
                continue;
            };
            if let (Some(new), Some(r)) = (remap.remap_index(old), remap.remap(target)) {
                rep[new.index()] = Some((r, complement));
            }
        }
        self.rep = rep;
        let mut sigs = Vec::with_capacity(self.sigs.len().min(remap.live()));
        for (old, &sig) in self.sigs.iter().enumerate() {
            if let Some(new) = remap.remap_index(old) {
                debug_assert_eq!(new.index(), sigs.len(), "collection keeps node order");
                sigs.push(sig);
            }
        }
        self.sigs = sigs;
        for members in self.classes.values_mut() {
            members.retain_mut(|m| match remap.remap(*m) {
                Some(new) => {
                    *m = new;
                    true
                }
                None => false,
            });
        }
        self.classes.retain(|_, m| !m.is_empty());
        // The base pass's formulas and roots are collection roots; should
        // one be gone anyway, the next base pass recomputes them.
        let remapped: Option<Vec<NodeId>> = self
            .formulas
            .iter()
            .chain(&self.roots)
            .map(|&n| remap.remap(n))
            .collect();
        let remapped = remapped.unwrap_or_default();
        let (formulas, roots) = remapped.split_at(remapped.len() / 2);
        self.formulas = formulas.to_vec();
        self.roots = roots.to_vec();
        self.seed_constants();
    }

    /// Nodes that an arena collection must keep alive so the merges of
    /// `roots` survive it: the representative of every swept root.
    pub(crate) fn extend_live_roots(&self, roots: &mut Vec<NodeId>) {
        let reps: Vec<NodeId> = roots
            .iter()
            .filter_map(|&r| self.lookup(r).map(|(rep, _)| rep))
            .collect();
        roots.extend(reps);
    }
}

/// Whether `a` is `b` (`¬b` when `complement`) with its children
/// reordered: the Raw constructors keep operand order, so `x ⊕ y` and
/// `y ⊕ x` are two nodes.
fn permuted(arena: &Arena, a: NodeId, b: NodeId, complement: bool) -> bool {
    let sorted = |children: &[NodeId]| {
        let mut c = children.to_vec();
        c.sort_unstable();
        c
    };
    match (arena.node(a), arena.node(b)) {
        (Node::Xor(x, p), Node::Xor(y, q)) => p ^ q == complement && sorted(x) == sorted(y),
        (Node::And(x), Node::And(y)) => !complement && sorted(x) == sorted(y),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_formula::Simplify;

    /// Decides candidate pairs by truth table over the first `vars`
    /// variables; `fail_after` calls it reports a token stop instead.
    struct TruthTable {
        vars: usize,
        calls: u64,
        fail_after: Option<u64>,
    }

    impl TruthTable {
        fn new(vars: usize) -> Self {
            TruthTable {
                vars,
                calls: 0,
                fail_after: None,
            }
        }
    }

    impl Prover for TruthTable {
        fn prove(
            &mut self,
            arena: &Arena,
            a: NodeId,
            b: NodeId,
            complement: bool,
        ) -> Result<Proof, VerifyError> {
            if self.fail_after == Some(self.calls) {
                return Err(VerifyError::Interrupted);
            }
            self.calls += 1;
            for bits in 0..1u32 << self.vars {
                let env: Vec<bool> = (0..self.vars).map(|i| bits >> i & 1 == 1).collect();
                let values = arena.eval_all(&env);
                if values[a.index()] != (values[b.index()] ^ complement) {
                    return Ok(Proof::Differ);
                }
            }
            Ok(Proof::Equal)
        }
    }

    /// `(x ⊕ w) ⊕ (y∧z) ⊕ (y ⊕ y∧¬z)`: a compute/uncompute pair whose
    /// halves differ in structure, which Raw construction keeps.
    fn uncompute(f: &mut Arena) -> (NodeId, NodeId) {
        let [x, y, z, w] = [0, 1, 2, 3].map(|v| f.var(v));
        let t = f.and2(y, z);
        let nz = f.not(z);
        let y_not_z = f.and2(y, nz);
        let t2 = f.xor2(y, y_not_z);
        let a = f.xor2(x, w);
        let b = f.xor2(a, t);
        let c = f.xor2(b, t2);
        (c, a)
    }

    #[test]
    fn compute_uncompute_merges_into_its_input() {
        let mut f = Arena::new(Simplify::Raw);
        let (root, expected) = uncompute(&mut f);
        assert_ne!(root, expected, "Raw construction keeps the pair");
        let mut sweep = Sweep::default();
        let mut prover = TruthTable::new(4);
        assert_eq!(sweep.canon(&mut f, &mut prover, root).unwrap(), expected);
        assert!(sweep.merged > 0);
        // A second pass over the same cone is a lookup.
        let calls = prover.calls;
        assert_eq!(sweep.canon(&mut f, &mut prover, root).unwrap(), expected);
        assert_eq!(prover.calls, calls);
    }

    #[test]
    fn complement_candidates_merge_negated() {
        let mut f = Arena::new(Simplify::Raw);
        let [x, y, z] = [0, 1, 2].map(|v| f.var(v));
        let xy = f.xor2(x, y);
        let parity = f.xor2(xy, z);
        // ¬(x ⊕ y) ⊕ z built from AND/OR: (x∧y ∨ ¬x∧¬y) ⊕ z.
        let both = f.and2(x, y);
        let (nx, ny) = (f.not(x), f.not(y));
        let neither = f.and2(nx, ny);
        let same = f.or2(both, neither);
        let root = f.xor2(same, z);
        let mut sweep = Sweep::default();
        let mut prover = TruthTable::new(3);
        assert_eq!(sweep.canon(&mut f, &mut prover, parity).unwrap(), parity);
        let canon = sweep.canon(&mut f, &mut prover, root).unwrap();
        assert_eq!(canon, f.not(parity));
        assert_eq!(sweep.lookup(root), Some((parity, true)));
    }

    #[test]
    fn distinct_nodes_with_one_signature_stay_apart() {
        // `x ⊕ (a product of eight inputs)` matches `x` on every uniform
        // pattern that leaves some factor 0: a candidate the prover
        // refutes, never a merge.
        let mut f = Arena::new(Simplify::Raw);
        let vars: Vec<NodeId> = (0..9).map(|v| f.var(v)).collect();
        let product = f.and(&vars[1..]);
        let root = f.xor2(vars[0], product);
        let mut sweep = Sweep::default();
        let mut prover = TruthTable::new(9);
        assert_eq!(sweep.canon(&mut f, &mut prover, root).unwrap(), root);
        assert_eq!(sweep.merged, 0);
    }

    #[test]
    fn interrupted_pass_keeps_only_proven_merges_and_resumes() {
        let mut f = Arena::new(Simplify::Raw);
        let (root, expected) = uncompute(&mut f);
        let mut sweep = Sweep::default();
        let mut prover = TruthTable::new(4);
        prover.fail_after = Some(0);
        assert!(matches!(
            sweep.canon(&mut f, &mut prover, root),
            Err(VerifyError::Interrupted)
        ));
        assert_eq!(sweep.lookup(root), None, "the stopped node stays unswept");
        prover.fail_after = None;
        assert_eq!(sweep.canon(&mut f, &mut prover, root).unwrap(), expected);
    }

    #[test]
    fn merges_follow_an_arena_collection() {
        let mut f = Arena::new(Simplify::Raw);
        let (root, _) = uncompute(&mut f);
        // Dead structure below the live cone's ids.
        let dead = f.var(7);
        let _ = f.and2(dead, root);
        let mut sweep = Sweep::default();
        let mut prover = TruthTable::new(8);
        let canon = sweep.canon(&mut f, &mut prover, root).unwrap();
        let mut roots = vec![root];
        sweep.extend_live_roots(&mut roots);
        let remap = f.collect(&roots);
        assert!(remap.collected() > 0);
        sweep.remap_nodes(&remap);
        let (root, canon) = (remap.remap(root).unwrap(), remap.remap(canon).unwrap());
        assert_eq!(sweep.lookup(root), Some((canon, false)));
        let calls = prover.calls;
        assert_eq!(sweep.canon(&mut f, &mut prover, root).unwrap(), canon);
        assert_eq!(prover.calls, calls, "no merge is proven twice");
    }
}
