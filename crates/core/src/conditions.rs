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
//! other qubit, for the one-shot fresh pipeline. A disjunct whose two
//! cofactors are one node is dropped without a backend call. Sessions
//! answer "which other qubits depend on `q`" from a support index (see
//! `crate::support`). On the canonical ANF/BDD rungs that index is exact
//! and decides (6.2) outright; only the (6.1) root is built here. On the
//! SAT rung the index holds the structural supports of the
//! representatives the SAT sweep proved equal to the final formulas
//! (see `crate::sweep`), so it names candidates only:
//! [`build_conditions_swept`] cofactors just those, sweeps each cofactor
//! pair so every merge makes more identities visible, and memoises each
//! candidate's outcome in an [`OutcomeMemo`].
//!
//! The naive *clean-uncomputation* condition (`b_q ⊕ q` unsatisfiable,
//! i.e. basis states are restored) is also provided: it is what the
//! introduction's Fig. 1.4 counterexample satisfies while still being
//! unsafe as a dirty qubit.

use crate::support::memo_full;
use crate::symbolic::SymbolicState;
use crate::verifier::VerifyError;
use qb_formula::{Arena, NodeId, NodeRemap, Var};
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
        // consulting a backend. (A session's SAT sweep merges proven-equal
        // nodes first, which makes more of these identities visible.)
        if cof0[f.index()] == cof1[f.index()] {
            continue;
        }
        let diff = state.arena.xor2(cof0[f.index()], cof1[f.index()]);
        plus_parts.push(diff);
    }
    Conditions { zero, plus_parts }
}

/// The SAT rung's memo of (6.2) disjunct outcomes, keyed by
/// `(root, var)`: `None` when the disjunct of `root` under `var` was
/// dropped (its two cofactors are one node, or the sweep proved them
/// equal), else the XOR-difference root handed to the backend. Only
/// candidates get an entry — roots whose structural support holds `var`
/// (see `crate::support`) — so warm construction is lookups only.
///
/// The arena is append-only, so a root's id permanently denotes one
/// function, and its outcome under `var` is a fact about that function:
/// entries stay valid across sweeps and edits, and an edit only
/// recomputes the outcomes of candidates whose root it changed.
#[derive(Debug, Default)]
pub(crate) struct OutcomeMemo {
    map: HashMap<(NodeId, Var), Option<NodeId>>,
    hits: u64,
}

impl OutcomeMemo {
    /// Entries currently memoised.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Candidates whose outcome was answered from the memo.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Follows an arena collection: keys and difference roots are
    /// rewritten through `remap`; entries touching a collected node are
    /// dropped (sound — a collected id is never issued for its old
    /// structure again).
    pub(crate) fn remap_nodes(&mut self, remap: &NodeRemap) {
        let map = std::mem::take(&mut self.map);
        for ((root, var), diff) in map {
            let diff = match diff.map(|d| remap.remap(d)) {
                Some(None) => continue,
                diff => diff.flatten(),
            };
            if let Some(root) = remap.remap(root) {
                self.map.insert((root, var), diff);
            }
        }
    }
}

/// The conditions of `q` on the SAT rung, over `roots` — nodes proven
/// equal to the final formulas (the sweep representatives) — and
/// `candidates`: the other qubits whose root structurally depends on
/// `q`, in qubit order. Every other qubit's disjunct is identically
/// false. The candidates without a memoised outcome are cofactored in
/// one shared pass; each pair is mapped through `canon` (a node proven
/// equal to its argument), and the disjunct is dropped when the two
/// sides are one node, before or after. With the final formulas and the
/// identity `canon` this is [`build_conditions`]' output (hash-consing
/// makes the node ids equal). A pair that `canon` stops records no
/// outcome.
///
/// # Errors
///
/// Whatever `canon` returns (an interrupted sweep).
pub(crate) fn build_conditions_swept(
    state: &mut SymbolicState,
    roots: &[NodeId],
    q: usize,
    candidates: &[usize],
    memo: &mut OutcomeMemo,
    mut canon: impl FnMut(&mut Arena, NodeId) -> Result<NodeId, VerifyError>,
) -> Result<Conditions, VerifyError> {
    assert!(q < state.num_qubits(), "qubit out of range");
    // Flush up front, never between the cofactor pass and the lookups.
    if memo_full(memo.map.len(), roots.len()) {
        memo.map.clear();
    }
    let var: Var = state.vars[q];
    let arena = &mut state.arena;
    let q_node = arena.var(var);
    let not_q = arena.not(q_node);
    let zero = arena.and2(roots[q], not_q);

    let uncached: Vec<NodeId> = candidates
        .iter()
        .map(|&p| roots[p])
        .filter(|&r| !memo.map.contains_key(&(r, var)))
        .collect();
    let (cof0, cof1) = if uncached.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        (
            arena.cofactor_reachable(&uncached, var, false),
            arena.cofactor_reachable(&uncached, var, true),
        )
    };
    let mut plus_parts = Vec::new();
    for &p in candidates {
        let root = roots[p];
        let diff = match memo.map.get(&(root, var)) {
            Some(&diff) => {
                memo.hits += 1;
                diff
            }
            None => {
                let (c0, c1) = (cof0[root.index()], cof1[root.index()]);
                // The identity check of `build_conditions`, made twice:
                // on the cofactors, then on the nodes `canon` proved
                // them equal to — a merge makes more identities visible.
                let diff = if c0 == c1 {
                    None
                } else {
                    let (c0, c1) = (canon(arena, c0)?, canon(arena, c1)?);
                    (c0 != c1).then(|| arena.xor2(c0, c1))
                };
                memo.map.insert((root, var), diff);
                diff
            }
        };
        plus_parts.extend(diff);
    }
    Ok(Conditions { zero, plus_parts })
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

    /// The candidates of `q`: the other qubits whose formula reaches its
    /// variable.
    fn candidates(s: &SymbolicState, q: usize) -> Vec<usize> {
        let supports = crate::support::structural_supports(&s.arena, &s.formulas);
        (0..s.num_qubits())
            .filter(|&p| p != q && supports[p].contains(&s.vars[q]))
            .collect()
    }

    #[test]
    fn swept_construction_matches_the_fresh_one_and_memoises_outcomes() {
        // A leaking Toffoli, and a CNOT pair Raw construction keeps: q3
        // reaches q0's variable but does not depend on it.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2).cnot(0, 3).cnot(0, 3);
        let mut s = exec(&c, Simplify::Raw);
        let formulas = s.formulas.clone();
        let fresh = build_conditions(&mut s, 0);
        let cands = candidates(&s, 0);
        assert_eq!(cands, vec![2, 3]);
        let mut memo = OutcomeMemo::default();
        for round in 0..2 {
            let swept =
                build_conditions_swept(&mut s, &formulas, 0, &cands, &mut memo, |_, n| Ok(n))
                    .unwrap();
            assert_eq!(swept.zero, fresh.zero);
            assert_eq!(swept.plus_parts, fresh.plus_parts, "round {round}");
            assert_eq!(memo.len(), 2);
            assert_eq!(memo.hits(), 2 * round as u64);
        }
    }

    #[test]
    fn an_interrupted_pair_records_no_outcome() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        let mut s = exec(&c, Simplify::Raw);
        let formulas = s.formulas.clone();
        let cands = candidates(&s, 0);
        let mut memo = OutcomeMemo::default();
        let stopped = build_conditions_swept(&mut s, &formulas, 0, &cands, &mut memo, |_, _| {
            Err(VerifyError::Interrupted)
        });
        assert!(matches!(stopped, Err(VerifyError::Interrupted)));
        assert_eq!(memo.len(), 0);
        let built =
            build_conditions_swept(&mut s, &formulas, 0, &cands, &mut memo, |_, n| Ok(n)).unwrap();
        assert_eq!(built.plus_parts.len(), 1);
        assert_eq!((memo.len(), memo.hits()), (1, 0));
    }
}
