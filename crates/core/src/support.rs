//! The plus condition (6.2) decided by support.
//!
//! Formula (6.2) for dirty qubit `q` asks whether some other qubit's
//! final formula `b_{q'}` depends on `q` (Thm. 6.2/6.4). A
//! [`SupportMemo`] records one support per formula node and answers a
//! target from an inverted index (variable → dependent qubits), through
//! [`SupportMemo::dependents`]. A session keeps two instances, which
//! never share entries:
//!
//! * On the canonical ANF and BDD rungs the supports are exact: `q`
//!   labels a node of `b_{q'}`'s reduced BDD, or occurs in a term of its
//!   ANF polynomial. The session normalises every final formula once per
//!   circuit version, and the first dependent is the violated disjunct.
//! * On the SAT rung the supports are *structural*
//!   ([`structural_supports`]): the variables whose `Var` node a sweep
//!   representative reaches. They over-approximate the true supports, so
//!   the dependents are only candidates. Condition construction
//!   (`crate::conditions`) cofactors each candidate, and every other
//!   qubit's disjunct is identically false without a cofactor pass.

use qb_formula::{Arena, Node, NodeId, NodeRemap, Var};
use std::collections::HashMap;

/// Flush bound of a memo: past `max(cap, slack · qubits)` entries it is
/// cleared wholesale (a rare, correctness-free event), so an edit stream
/// that keeps minting new formulas cannot grow it without bound while
/// one circuit version's formulas always fit.
const SUPPORT_MEMO_CAP: usize = 1 << 14;

/// Headroom multiplier over one circuit version's formula count.
const SUPPORT_MEMO_SLACK: usize = 4;

/// Whether a memo holding `entries` for a circuit of `qubits` formulas
/// is past its flush bound (see [`SUPPORT_MEMO_CAP`]).
pub(crate) fn memo_full(entries: usize, qubits: usize) -> bool {
    entries > SUPPORT_MEMO_CAP.max(SUPPORT_MEMO_SLACK * qubits)
}

/// Memoised supports of formulas, keyed by formula [`NodeId`].
///
/// The arena is append-only and hash-consed, so an id denotes one Boolean
/// function and one structure, and neither its support nor its structural
/// support ever changes: entries stay valid across sweeps and edits, and
/// an edit only recomputes the supports of the formulas whose node id it
/// changed. Arena collections remap the keys.
#[derive(Debug, Default)]
pub(crate) struct SupportMemo {
    map: HashMap<NodeId, Box<[Var]>>,
    hits: u64,
    index: Option<SupportIndex>,
}

/// The inverted index over one circuit version's supports.
#[derive(Debug)]
struct SupportIndex {
    /// The formulas it indexes (the circuit version).
    formulas: Vec<NodeId>,
    /// `dependents[v]`: the qubits whose formula depends on variable
    /// `v`, ascending.
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
        if memo_full(self.map.len(), formulas.len()) {
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

    /// The qubits other than `q` whose formula in `formulas` depends on
    /// `var`, in qubit order — the order the cofactor construction visits
    /// the (6.2) disjuncts. Indexes `formulas` first if needed; every one
    /// of them must be memoised (see [`SupportMemo::missing`]).
    pub(crate) fn dependents(
        &mut self,
        formulas: &[NodeId],
        q: usize,
        var: Var,
    ) -> impl Iterator<Item = usize> + '_ {
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
            .get(var as usize)
            .into_iter()
            .flatten()
            .copied()
            .filter(move |&p| p != q)
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

/// The structural supports of `roots`: for each, the variables whose
/// `Var` node it reaches, ascending. One bottom-up pass of per-node
/// bitsets over the nodes reachable from `roots` (children precede
/// parents in the arena).
pub(crate) fn structural_supports(arena: &Arena, roots: &[NodeId]) -> Vec<Vec<Var>> {
    let live = arena.reachable(roots);
    // One bitset row per reachable node.
    let mut row = vec![usize::MAX; live.len()];
    let (mut rows, mut vars) = (0, 0);
    for (i, _) in live.iter().enumerate().filter(|(_, &l)| l) {
        row[i] = rows;
        rows += 1;
        if let Node::Var(v) = arena.node(arena.id_at(i)) {
            vars = vars.max(v as usize + 1);
        }
    }
    let words = vars.div_ceil(64).max(1);
    let mut bits = vec![0u64; rows * words];
    for (i, &r) in row.iter().enumerate() {
        if r == usize::MAX {
            continue;
        }
        let at = r * words;
        match arena.node(arena.id_at(i)) {
            Node::Const(_) => {}
            Node::Var(v) => bits[at + v as usize / 64] |= 1 << (v % 64),
            Node::And(children) | Node::Xor(children, _) => {
                for c in children.iter() {
                    let from = row[c.index()] * words;
                    for w in 0..words {
                        let word = bits[from + w];
                        bits[at + w] |= word;
                    }
                }
            }
        }
    }
    roots
        .iter()
        .map(|r| {
            let at = row[r.index()] * words;
            let mut support = Vec::new();
            for (w, &word) in bits[at..at + words].iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    support.push((w * 64) as Var + word.trailing_zeros());
                    word &= word - 1;
                }
            }
            support
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_formula::{Arena, Simplify};

    #[test]
    fn dependents_skip_the_target_and_follow_qubit_order() {
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
        let dependents = |memo: &mut SupportMemo, q, var| -> Vec<usize> {
            memo.dependents(&formulas, q, var).collect()
        };
        assert_eq!(dependents(&mut memo, 0, 0), vec![1, 3]);
        assert_eq!(dependents(&mut memo, 1, 0), vec![0, 3]);
        assert_eq!(dependents(&mut memo, 1, 1), Vec::<usize>::new());
        assert_eq!(dependents(&mut memo, 2, 2), Vec::<usize>::new());
        assert!(memo.missing(&formulas).is_empty(), "indexed version");
        assert_eq!(memo.hits(), 0);

        // A new version sharing three formulas hits on them.
        let mut edited = formulas.clone();
        edited[2] = arena.xor2(x[2], x[0]);
        assert_eq!(memo.missing(&edited), vec![edited[2]]);
        assert_eq!(memo.hits(), 3);
    }

    #[test]
    fn structural_supports_over_approximate_and_span_words() {
        let mut arena = Arena::new(Simplify::Raw);
        let (x0, x1, x70) = (arena.var(0), arena.var(1), arena.var(70));
        // Raw construction keeps `x0 ⊕ x0`: x0 is reached, not depended on.
        let cancel = arena.xor2(x0, x0);
        let f = arena.xor2(x1, cancel);
        let g = arena.and2(x70, f);
        let supports = structural_supports(&arena, &[f, g, x70, NodeId::TRUE]);
        assert_eq!(supports, vec![vec![0, 1], vec![0, 1, 70], vec![70], vec![]]);
    }
}
