//! The plus condition (6.2) decided by support on the canonical rungs.
//!
//! Formula (6.2) for dirty qubit `q` asks whether some other qubit's
//! final formula `b_{q'}` depends on `q` (Thm. 6.2/6.4). On a canonical
//! representation that is exact support membership: `q` labels a node of
//! `b_{q'}`'s reduced BDD, or occurs in a term of its ANF polynomial. A
//! session on the ANF or BDD rung therefore normalises every final
//! formula once per circuit version, records each support in a
//! [`SupportMemo`] keyed by formula node, and answers each target with
//! one lookup in an inverted index (variable → dependent qubits) instead
//! of one cofactor XOR root per (target, other qubit).

use qb_formula::{NodeId, NodeRemap, Var};
use std::collections::HashMap;

/// Flush bound of the memo: past `max(cap, slack · qubits)` entries it
/// is cleared wholesale (a rare, correctness-free event), so an edit
/// stream that keeps minting new formulas cannot grow it without bound
/// while one circuit version's formulas always fit.
const SUPPORT_MEMO_CAP: usize = 1 << 14;

/// Headroom multiplier over one circuit version's formula count.
const SUPPORT_MEMO_SLACK: usize = 4;

/// Memoised supports of final formulas, keyed by formula [`NodeId`].
///
/// The arena is append-only and hash-consed, so an id denotes one Boolean
/// function and its support never changes: entries stay valid across
/// sweeps and edits, and an edit only normalises the formulas whose node
/// id it changed. Arena collections remap the keys like the cofactor
/// memo's.
#[derive(Debug, Default)]
pub(crate) struct SupportMemo {
    map: HashMap<NodeId, Box<[Var]>>,
    hits: u64,
    index: Option<SupportIndex>,
}

/// The inverted index over one circuit version's supports.
#[derive(Debug)]
struct SupportIndex {
    /// The final formulas it indexes (the circuit version).
    formulas: Vec<NodeId>,
    /// `dependents[v]`: the qubits whose final formula depends on
    /// variable `v`, ascending.
    dependents: Vec<Vec<usize>>,
}

impl SupportMemo {
    /// The distinct formulas of `formulas` without a memoised support;
    /// every other formula counts as a hit. Empty when the index already
    /// covers this circuit version.
    pub(crate) fn missing(&mut self, formulas: &[NodeId]) -> Vec<NodeId> {
        if self.indexes(formulas) {
            return Vec::new();
        }
        if self.map.len() > SUPPORT_MEMO_CAP.max(SUPPORT_MEMO_SLACK * formulas.len()) {
            self.map.clear();
        }
        let mut missing = Vec::new();
        for &f in formulas {
            if self.map.contains_key(&f) {
                self.hits += 1;
            } else {
                missing.push(f);
            }
        }
        missing.sort_unstable();
        missing.dedup();
        missing
    }

    /// Records the support of formula `f`.
    pub(crate) fn insert(&mut self, f: NodeId, support: Vec<Var>) {
        self.map.insert(f, support.into_boxed_slice());
    }

    /// The first qubit other than `q` whose formula in `formulas` depends
    /// on `var` — the first violated (6.2) disjunct, in the order the
    /// cofactor construction visits them. Indexes `formulas` first if
    /// needed; every one of them must be memoised (see
    /// [`SupportMemo::missing`]).
    pub(crate) fn first_dependent(
        &mut self,
        formulas: &[NodeId],
        q: usize,
        var: Var,
    ) -> Option<usize> {
        if !self.indexes(formulas) {
            let mut dependents: Vec<Vec<usize>> = Vec::new();
            for (qubit, f) in formulas.iter().enumerate() {
                for &v in self.map[f].iter() {
                    let v = v as usize;
                    if dependents.len() <= v {
                        dependents.resize_with(v + 1, Vec::new);
                    }
                    dependents[v].push(qubit);
                }
            }
            self.index = Some(SupportIndex {
                formulas: formulas.to_vec(),
                dependents,
            });
        }
        let index = self.index.as_ref().expect("index built above");
        index
            .dependents
            .get(var as usize)?
            .iter()
            .copied()
            .find(|&p| p != q)
    }

    /// Whether the index covers the circuit version `formulas`.
    fn indexes(&self, formulas: &[NodeId]) -> bool {
        self.index.as_ref().is_some_and(|i| i.formulas == formulas)
    }

    /// Entries currently memoised.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Formulas whose support was answered from the memo.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Follows an arena collection: keys (and the index's circuit
    /// version) are rewritten through `remap`; entries over collected
    /// formulas are dropped (sound — a collected id is never issued for
    /// its old structure again).
    pub(crate) fn remap_nodes(&mut self, remap: &NodeRemap) {
        let map = std::mem::take(&mut self.map);
        self.map = map
            .into_iter()
            .filter_map(|(f, s)| remap.remap(f).map(|new| (new, s)))
            .collect();
        self.index = self.index.take().and_then(|mut index| {
            for f in &mut index.formulas {
                *f = remap.remap(*f)?;
            }
            Some(index)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_formula::{Arena, Simplify};

    #[test]
    fn first_dependent_skips_the_target_and_follows_qubit_order() {
        let mut arena = Arena::new(Simplify::Full);
        let x: Vec<NodeId> = (0..4).map(|v| arena.var(v)).collect();
        // q0 = x0, q1 = x1 ⊕ x0, q2 = x2, q3 = x3 ⊕ x0.
        let formulas = vec![x[0], arena.xor2(x[1], x[0]), x[2], arena.xor2(x[3], x[0])];
        let mut memo = SupportMemo::default();
        let missing = memo.missing(&formulas);
        assert_eq!(missing.len(), 4);
        let supports = [vec![0], vec![0, 1], vec![2], vec![0, 3]];
        for (f, s) in formulas.iter().zip(supports) {
            memo.insert(*f, s);
        }
        assert_eq!(memo.first_dependent(&formulas, 0, 0), Some(1));
        assert_eq!(memo.first_dependent(&formulas, 1, 1), None);
        assert_eq!(memo.first_dependent(&formulas, 2, 2), None);
        assert!(memo.missing(&formulas).is_empty(), "indexed version");
        assert_eq!(memo.hits(), 0);

        // A new version sharing three formulas hits on them.
        let mut edited = formulas.clone();
        edited[2] = arena.xor2(x[2], x[0]);
        assert_eq!(memo.missing(&edited), vec![edited[2]]);
        assert_eq!(memo.hits(), 3);
    }
}
