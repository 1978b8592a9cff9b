//! The solver's branching order: a variable-move-to-front queue.

use crate::lit::SatVar;

const VNONE: u32 = u32::MAX;

/// Variable-move-to-front (VMTF) decision queue, CaDiCaL style: a
/// doubly-linked list of variables ordered by bump recency, with an
/// enqueue timestamp per variable and a `searched` cursor maintaining
/// the invariant *every variable more recently stamped than `searched`
/// is assigned*. All operations are O(1) except the decision walk,
/// which is amortised O(1) (each skipped variable was assigned after
/// the cursor passed it).
///
/// Compared to an activity heap this removes the decision/backtrack
/// sift-chain thrash entirely: bumping is list relinking, unassignment
/// is one timestamp comparison, and no per-variable float activity is
/// maintained on the search path.
#[derive(Debug, Clone, Default)]
pub struct VmtfQueue {
    /// More recently bumped neighbour (towards the front), [`VNONE`] at
    /// the front.
    newer: Vec<u32>,
    /// Less recently bumped neighbour, [`VNONE`] at the back.
    older: Vec<u32>,
    /// Enqueue timestamp (monotone; re-stamped on every bump).
    stamp: Vec<u64>,
    front: u32,
    back: u32,
    /// Cursor of the decision walk (a variable id, or [`VNONE`] when
    /// empty).
    searched: u32,
    counter: u64,
}

impl VmtfQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        VmtfQueue {
            newer: Vec::new(),
            older: Vec::new(),
            stamp: Vec::new(),
            front: VNONE,
            back: VNONE,
            searched: VNONE,
            counter: 0,
        }
    }

    /// Registers and enqueues fresh variables up to `num_vars` at the
    /// front (fresh variables are the most interesting to branch on —
    /// incremental sessions allocate them for the newest query).
    pub fn grow_to(&mut self, num_vars: usize) {
        while self.newer.len() < num_vars {
            let v = self.newer.len() as u32;
            self.newer.push(VNONE);
            self.older.push(VNONE);
            self.counter += 1;
            self.stamp.push(self.counter);
            if self.front == VNONE {
                self.front = v;
                self.back = v;
            } else {
                self.older[v as usize] = self.front;
                self.newer[self.front as usize] = v;
                self.front = v;
            }
            // A fresh variable is unassigned and most recent: the cursor
            // must start (or restart) at it.
            self.searched = v;
        }
    }

    /// Moves `v` to the front with a fresh stamp. The caller must
    /// afterwards call [`VmtfQueue::unassigned_hint`] if `v` is
    /// currently unassigned (the queue does not track assignments).
    #[inline]
    pub fn bump(&mut self, v: SatVar) {
        let v = v.0;
        if self.front == v {
            self.counter += 1;
            self.stamp[v as usize] = self.counter;
            return;
        }
        // Unlink.
        let n = self.newer[v as usize];
        let o = self.older[v as usize];
        if n != VNONE {
            self.older[n as usize] = o;
        }
        if o != VNONE {
            self.newer[o as usize] = n;
        }
        if self.back == v {
            self.back = n;
        }
        if self.searched == v {
            // Keep the cursor valid: everything newer than the old
            // position was assigned, and `v` moves out of it.
            self.searched = if n != VNONE { n } else { self.front };
        }
        // Relink at the front.
        self.newer[v as usize] = VNONE;
        self.older[v as usize] = self.front;
        self.newer[self.front as usize] = v;
        self.front = v;
        self.counter += 1;
        self.stamp[v as usize] = self.counter;
    }

    /// Tells the queue `v` is unassigned (after a bump or a backtrack):
    /// the cursor jumps to it when it is more recent than the current
    /// cursor, restoring the walk invariant in O(1).
    #[inline]
    pub fn unassigned_hint(&mut self, v: SatVar) {
        if self.searched == VNONE || self.stamp[v.0 as usize] > self.stamp[self.searched as usize] {
            self.searched = v.0;
        }
    }

    /// The next decision candidate: walks from the cursor towards older
    /// variables until `is_assigned` says no, parks the cursor there and
    /// returns the variable. Returns `None` when every variable is
    /// assigned.
    #[inline]
    pub fn next_unassigned(
        &mut self,
        mut is_assigned: impl FnMut(SatVar) -> bool,
    ) -> Option<SatVar> {
        let mut v = self.searched;
        while v != VNONE && is_assigned(SatVar(v)) {
            v = self.older[v as usize];
        }
        if v == VNONE {
            return None;
        }
        self.searched = v;
        Some(SatVar(v))
    }

    /// Rebuilds the queue for a renumbered variable space: `order` lists
    /// the surviving variables from most to least recently bumped.
    pub fn rebuild(&mut self, order_most_recent_first: &[SatVar]) {
        let n = self.newer.len().max(
            order_most_recent_first
                .iter()
                .map(|v| v.index() + 1)
                .max()
                .unwrap_or(0),
        );
        self.newer = vec![VNONE; n];
        self.older = vec![VNONE; n];
        self.stamp = vec![0; n];
        self.front = VNONE;
        self.back = VNONE;
        self.counter = 0;
        // Enqueue back-to-front so the most recent ends up at the front.
        for &v in order_most_recent_first.iter().rev() {
            let v = v.0;
            self.counter += 1;
            self.stamp[v as usize] = self.counter;
            if self.front == VNONE {
                self.front = v;
                self.back = v;
            } else {
                self.older[v as usize] = self.front;
                self.newer[self.front as usize] = v;
                self.front = v;
            }
        }
        self.searched = self.front;
    }

    /// Variables currently enqueued, most recently bumped first (the
    /// order [`VmtfQueue::rebuild`] consumes).
    pub fn order_most_recent_first(&self) -> Vec<SatVar> {
        let mut out = Vec::new();
        let mut v = self.front;
        while v != VNONE {
            out.push(SatVar(v));
            v = self.older[v as usize];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(i: u32) -> SatVar {
        SatVar(i)
    }

    #[test]
    fn vmtf_bump_moves_to_front_and_walk_skips_assigned() {
        let mut q = VmtfQueue::new();
        q.grow_to(4); // queue front..back = 3,2,1,0
        assert_eq!(q.next_unassigned(|_| false), Some(var(3)));
        q.bump(var(1)); // front: 1,3,2,0
        q.unassigned_hint(var(1));
        assert_eq!(q.next_unassigned(|_| false), Some(var(1)));
        // With 1 and 3 assigned, the walk lands on 2.
        let assigned = [false, true, false, true];
        assert_eq!(q.next_unassigned(|v| assigned[v.index()]), Some(var(2)));
        // All assigned: none.
        assert_eq!(q.next_unassigned(|_| true), None);
        // Backtrack: 3 unassigns; it is staler than the cursor… the
        // cursor is at the back after the exhausted walk, so the hint
        // moves it to 3.
        q.unassigned_hint(var(3));
        assert_eq!(q.next_unassigned(|_| false), Some(var(3)));
    }

    #[test]
    fn vmtf_rebuild_preserves_order() {
        let mut q = VmtfQueue::new();
        q.grow_to(5);
        q.bump(var(2));
        let order = q.order_most_recent_first();
        assert_eq!(order[0], var(2));
        let mut q2 = VmtfQueue::new();
        q2.rebuild(&order);
        assert_eq!(q2.order_most_recent_first(), order);
        assert_eq!(q2.next_unassigned(|_| false), Some(var(2)));
    }
}
