//! The Boolean verification conditions of §6.1 (formulas (6.1), (6.2)).
//!
//! For a dirty qubit `q` in a classical circuit with final formulas
//! `b_{q'}`:
//!
//! * **Zero condition** (6.1): `¬(b_q → q)` must be unsatisfiable — the
//!   circuit restores `|0⟩` on `q` (given the permutation property this
//!   also forces `|1⟩` restoration);
//! * **Plus condition** (6.2): `⋁_{q'≠q} b_{q'}[0/q] ⊕ b_{q'}[1/q]` must
//!   be unsatisfiable — every other qubit's final value is independent of
//!   `q`, which is exactly restoration of `|+⟩` (Thm. 6.2/6.4).
//!
//! [`build_conditions`] materialises (6.2) as one cofactor XOR root per
//! other qubit. That construction serves the SAT backend and the one-shot
//! fresh pipeline; sessions on the canonical ANF/BDD rungs decide (6.2)
//! by support membership instead (see `crate::support`) and only build
//! the (6.1) root here.
//!
//! The naive *clean-uncomputation* condition (`b_q ⊕ q` unsatisfiable,
//! i.e. basis states are restored) is also provided: it is what the
//! introduction's Fig. 1.4 counterexample satisfies while still being
//! unsafe as a dirty qubit.

use crate::symbolic::SymbolicState;
use qb_formula::{NodeId, NodeRemap, Var};
use std::collections::HashMap;

/// The two §6.1 conditions, as roots in the state's arena.
#[derive(Debug, Clone)]
pub struct Conditions {
    /// Root of formula (6.1); safe iff unsatisfiable.
    pub zero: NodeId,
    /// The per-qubit disjuncts of formula (6.2) (one XOR-difference per
    /// other qubit); safe iff *all* are unsatisfiable.
    pub plus_parts: Vec<NodeId>,
}

/// Builds both conditions for dirty qubit `q` (appends nodes to the
/// state's arena).
///
/// # Panics
///
/// Panics when `q` is out of range.
pub fn build_conditions(state: &mut SymbolicState, q: usize) -> Conditions {
    let zero = zero_condition(state, q);
    let var: Var = state.vars[q];

    // (6.2): for each other qubit, b_{q'}[0/q] ⊕ b_{q'}[1/q]. The
    // cofactor is restricted to nodes reachable from the final formulas,
    // so session arenas that have accumulated earlier targets' cofactor
    // nodes don't pay (or grow) for dead structure.
    let formulas = state.formulas.clone();
    let cof0 = state.arena.cofactor_reachable(&formulas, var, false);
    let cof1 = state.arena.cofactor_reachable(&formulas, var, true);
    let mut plus_parts = Vec::with_capacity(state.num_qubits().saturating_sub(1));
    for q_prime in 0..state.num_qubits() {
        if q_prime == q {
            continue;
        }
        let f = state.formulas[q_prime];
        // Hash-consing makes cofactor identity visible: identical node
        // ids mean `b_{q'}` is independent of `q`, so the XOR difference
        // is identically false and the disjunct can be dropped without
        // consulting a backend.
        if cof0[f.index()] == cof1[f.index()] {
            continue;
        }
        let diff = state.arena.xor2(cof0[f.index()], cof1[f.index()]);
        plus_parts.push(diff);
    }
    Conditions { zero, plus_parts }
}

/// A session-level memo of per-root cofactors, keyed by
/// `(root, var, value)`.
///
/// Rebuilding the (6.2) disjuncts is the backend-independent floor of a
/// warm sweep: two [`qb_formula::Arena::cofactor_reachable`] passes over
/// the whole live formula graph per target, even when hash-consing
/// re-derives every node id unchanged. The arena is append-only, so a
/// root's id permanently denotes one function and its cofactor under
/// `(var, value)` is fixed — which makes the result memoisable across
/// sweeps *and edits*: after a suffix edit, only formulas whose node id
/// actually changed recompute their cofactor cones; every other root is
/// a map lookup.
#[derive(Debug, Default)]
pub(crate) struct CofactorMemo {
    map: HashMap<(NodeId, Var, bool), NodeId>,
    hits: u64,
    misses: u64,
    /// Entries the most recent primed sweep needs resident all at once
    /// (2 · vars · roots). The flush bound never drops below a multiple
    /// of this, so a paper-scale sweep (adder-512 primes ≈ 1M entries)
    /// is not wiped by the pathological-edit-stream cap mid-sweep.
    sweep_floor: usize,
}

/// Flush bound: the memo holds (formula × target-var × 2) entries per
/// circuit shape, but a pathological edit stream could grow it without
/// bound, so it is cleared wholesale past this size (a rare, cheap,
/// correctness-free event). The effective bound is raised to a multiple
/// of the last primed sweep's working set (see
/// [`CofactorMemo::sweep_floor`]), which a whole-circuit sweep needs
/// resident simultaneously.
const COFACTOR_MEMO_CAP: usize = 1 << 14;

/// Headroom multiplier over the primed working set before a flush.
const COFACTOR_MEMO_SLACK: usize = 4;

impl CofactorMemo {
    /// Memoised sweep: ensures `(f, var, val)` is cached for every root
    /// in `formulas`, running one restricted cofactor pass over the
    /// missing roots only.
    fn ensure(&mut self, state: &mut SymbolicState, formulas: &[NodeId], var: Var, val: bool) {
        let missing: Vec<NodeId> = formulas
            .iter()
            .copied()
            .filter(|&f| !self.map.contains_key(&(f, var, val)))
            .collect();
        self.hits += (formulas.len() - missing.len()) as u64;
        if missing.is_empty() {
            return;
        }
        self.misses += missing.len() as u64;
        let map = state.arena.cofactor_reachable(&missing, var, val);
        for f in missing {
            self.map.insert((f, var, val), map[f.index()]);
        }
    }

    /// Batched warm-up for a whole sweep: ensures the cofactor pairs of
    /// every root in `formulas` under every variable in `vars` are
    /// memoised, computing all missing cones in **one** shared arena
    /// traversal ([`qb_formula::Arena::cofactor_batch`]). Cold
    /// multi-target construction drops from O(k·DAG) to
    /// O(DAG + Σ cones); warm sweeps skip the traversal entirely.
    pub(crate) fn prime(&mut self, state: &mut SymbolicState, vars: &[Var]) {
        let formulas = state.formulas.clone();
        self.sweep_floor = 2 * vars.len() * formulas.len();
        let missing: Vec<Var> = vars
            .iter()
            .copied()
            .filter(|&v| {
                formulas.iter().any(|&f| {
                    !self.map.contains_key(&(f, v, false)) || !self.map.contains_key(&(f, v, true))
                })
            })
            .collect();
        if missing.is_empty() {
            return;
        }
        let pairs = state.arena.cofactor_batch(&formulas, &missing);
        for (vi, &var) in missing.iter().enumerate() {
            for (ri, &f) in formulas.iter().enumerate() {
                let (c0, c1) = pairs[vi][ri];
                if self.map.insert((f, var, false), c0).is_none() {
                    self.misses += 1;
                }
                if self.map.insert((f, var, true), c1).is_none() {
                    self.misses += 1;
                }
            }
        }
    }

    /// Appends the cofactor nodes of every entry whose root is a
    /// *current* formula to `roots` — the live set an arena collection
    /// must preserve. A batch-primed sweep's cones are reachable only
    /// through the memo until their targets are verified; without this,
    /// a mid-sweep collection would reclaim them and silently revert
    /// construction to the per-target path. Entries for stale roots
    /// (pre-edit formulas) are deliberately *not* kept alive: they are
    /// only useful again if an edit restores the old node ids, in which
    /// case hash-consing re-derives them.
    pub(crate) fn extend_live_roots(
        &self,
        roots: &mut Vec<NodeId>,
        current: &std::collections::HashSet<NodeId>,
    ) {
        for ((root, _, _), &cof) in &self.map {
            if current.contains(root) {
                roots.push(cof);
            }
        }
    }

    /// Entries currently memoised.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Lookups answered without a cofactor pass.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Follows an arena collection: keys and values are rewritten
    /// through `remap`; entries touching a collected node are dropped
    /// (sound — a collected id is never issued for its old structure
    /// again).
    pub(crate) fn remap_nodes(&mut self, remap: &NodeRemap) {
        let map = std::mem::take(&mut self.map);
        for ((root, var, val), cof) in map {
            if let (Some(root), Some(cof)) = (remap.remap(root), remap.remap(cof)) {
                self.map.insert((root, var, val), cof);
            }
        }
    }
}

/// [`build_conditions`] with a session cofactor memo: identical output
/// (hash-consing makes the memoised and recomputed node ids equal), but
/// warm sweeps skip the per-target graph walks entirely.
pub(crate) fn build_conditions_memo(
    state: &mut SymbolicState,
    q: usize,
    memo: &mut CofactorMemo,
) -> Conditions {
    assert!(q < state.num_qubits(), "qubit out of range");
    // Flush up front (never between the sweeps and the lookups below,
    // which rely on the entries both sweeps just ensured). The bound
    // respects the working set of a primed whole-circuit sweep.
    let cap = COFACTOR_MEMO_CAP.max(COFACTOR_MEMO_SLACK * memo.sweep_floor);
    if memo.map.len() > cap {
        memo.map.clear();
    }
    let zero = zero_condition(state, q);
    let var: Var = state.vars[q];

    // (6.2): per-qubit cofactor diffs, served from the memo.
    let formulas = state.formulas.clone();
    memo.ensure(state, &formulas, var, false);
    memo.ensure(state, &formulas, var, true);
    let mut plus_parts = Vec::with_capacity(state.num_qubits().saturating_sub(1));
    for q_prime in 0..state.num_qubits() {
        if q_prime == q {
            continue;
        }
        let f = state.formulas[q_prime];
        let cof0 = memo.map[&(f, var, false)];
        let cof1 = memo.map[&(f, var, true)];
        if cof0 == cof1 {
            continue;
        }
        let diff = state.arena.xor2(cof0, cof1);
        plus_parts.push(diff);
    }
    Conditions { zero, plus_parts }
}

/// Builds the root of the zero condition (6.1) for `q`: `b_q ∧ ¬q`.
///
/// # Panics
///
/// Panics when `q` is out of range.
pub(crate) fn zero_condition(state: &mut SymbolicState, q: usize) -> NodeId {
    assert!(q < state.num_qubits(), "qubit out of range");
    let b_q = state.formulas[q];
    let q_node = state.arena.var(state.vars[q]);
    let not_q = state.arena.not(q_node);
    state.arena.and2(b_q, not_q)
}

/// Builds the naive clean-uncomputation condition for `q`: `b_q ⊕ q`,
/// unsatisfiable exactly when every computational-basis value of `q` is
/// restored. Sufficient for *clean* ancilla reuse, insufficient for dirty
/// qubits (paper §1, Fig. 1.4).
pub fn build_clean_condition(state: &mut SymbolicState, q: usize) -> NodeId {
    assert!(q < state.num_qubits(), "qubit out of range");
    let var = state.vars[q];
    let b_q = state.formulas[q];
    let q_node = state.arena.var(var);
    state.arena.xor2(b_q, q_node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::{symbolic_execute, InitialValue};
    use qb_circuit::Circuit;
    use qb_formula::{Anf, Simplify};

    fn exec(c: &Circuit, mode: Simplify) -> SymbolicState {
        symbolic_execute(c, &vec![InitialValue::Free; c.num_qubits()], mode).unwrap()
    }

    fn all_unsat(state: &SymbolicState, roots: &[NodeId]) -> bool {
        Anf::from_arena(&state.arena, roots, 1 << 20)
            .unwrap()
            .iter()
            .all(Anf::is_zero)
    }

    #[test]
    fn cccnot_dirty_qubit_passes_both_conditions() {
        let mut c = Circuit::new(5);
        c.toffoli(0, 1, 2)
            .toffoli(2, 3, 4)
            .toffoli(0, 1, 2)
            .toffoli(2, 3, 4);
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut s = exec(&c, mode);
            let conds = build_conditions(&mut s, 2);
            assert!(all_unsat(&s, &[conds.zero]), "zero condition, {mode:?}");
            assert!(all_unsat(&s, &conds.plus_parts), "plus condition, {mode:?}");
        }
    }

    #[test]
    fn fig_1_4_clean_safe_but_dirty_unsafe() {
        // CNOT with the dirty qubit as control: basis values of `a` are
        // restored (clean-safe) but the target leaks a's value.
        let mut c = Circuit::new(2);
        c.cnot(0, 1); // a = qubit 0
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut s = exec(&c, mode);
            let clean = build_clean_condition(&mut s, 0);
            assert!(all_unsat(&s, &[clean]), "clean condition should pass");
            let conds = build_conditions(&mut s, 0);
            assert!(all_unsat(&s, &[conds.zero]), "zero condition passes");
            assert!(
                !all_unsat(&s, &conds.plus_parts),
                "plus condition must fail: |+> is not restored"
            );
        }
    }

    #[test]
    fn x_on_dirty_qubit_fails_zero_condition() {
        let mut c = Circuit::new(1);
        c.x(0);
        let mut s = exec(&c, Simplify::Full);
        let conds = build_conditions(&mut s, 0);
        assert!(!all_unsat(&s, &[conds.zero]));
    }

    #[test]
    fn plus_parts_skip_structurally_independent_qubits() {
        // The double Toffoli is the identity: every b_{q'} is its own
        // input variable, so no other qubit depends on q2 and every
        // disjunct is dropped structurally.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2).toffoli(0, 1, 2);
        let mut s = exec(&c, Simplify::Full);
        let conds = build_conditions(&mut s, 2);
        assert!(conds.plus_parts.is_empty());

        // A leaking Toffoli keeps exactly the dependent target's part.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        for mode in [Simplify::Raw, Simplify::Full] {
            let mut s = exec(&c, mode);
            let conds = build_conditions(&mut s, 0);
            assert_eq!(conds.plus_parts.len(), 1, "{mode:?}: only q2 depends on q0");
        }
    }

    #[test]
    fn clean_start_makes_more_circuits_safe() {
        // q1 ⊕= q0 where q0 is clean: b_{q1} is unchanged, so q0 is
        // trivially safe — the clean initial value removes the leak.
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let mut s = symbolic_execute(
            &c,
            &[InitialValue::Zero, InitialValue::Free],
            Simplify::Full,
        )
        .unwrap();
        let conds = build_conditions(&mut s, 0);
        assert!(all_unsat(&s, &[conds.zero]));
        assert!(all_unsat(&s, &conds.plus_parts));
    }
}
