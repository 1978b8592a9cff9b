//! Cooperative cancellation for long-running solves.
//!
//! PR 5 reached the paper's full benchmark sizes, where a single solve
//! legitimately runs for minutes (adder-512: ~2M conflicts). A serving
//! deployment cannot block on such a solve forever: the paper's own
//! evaluation reports its external solvers (CVC5/Bitwuzla) *timing out*
//! at these scales, making "unknown under a budget" a first-class
//! outcome. [`CancelToken`] is the mechanism: a cheaply cloneable handle
//! holding an atomic cancel flag, an optional wall-clock deadline and
//! optional conflict/propagation budgets. Solvers poll it once per
//! conflict — a few thousand times per second at most — so the hot
//! propagation path pays nothing.
//!
//! A token is *shared*: the owner keeps one clone (to cancel from
//! another thread) and installs another into each backend via
//! [`crate::Solver::set_cancel_token`]. An interrupted solve returns
//! [`crate::SatResult::Interrupted`] and leaves the solver in a sound
//! state (level zero, learnt clauses retained), so the same query can be
//! retried with a larger budget.
//!
//! # Examples
//!
//! ```
//! use qb_sat::{CancelToken, Lit, SatResult, Solver};
//!
//! let token = CancelToken::new();
//! let mut s = Solver::new();
//! let a = s.new_var();
//! s.add_clause(&[Lit::pos(a)]);
//! s.set_cancel_token(Some(token.clone()));
//! token.cancel();
//! assert_eq!(s.solve(), SatResult::Interrupted);
//! // Clearing the flag makes the solver usable again.
//! token.reset();
//! assert_eq!(s.solve(), SatResult::Sat);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel for "no deadline/budget configured".
const UNSET: u64 = u64::MAX;

#[derive(Debug)]
struct CancelState {
    /// The hard cancel flag ([`CancelToken::cancel`] sets it).
    flag: AtomicBool,
    /// Reference instant for the deadline; captured at construction so
    /// the deadline itself can live in a lock-free `u64`.
    base: Instant,
    /// Deadline as milliseconds after `base`; [`UNSET`] when absent.
    deadline_ms: AtomicU64,
    /// Per-solve conflict budget; [`UNSET`] when absent.
    conflict_budget: AtomicU64,
    /// Per-solve propagation budget; [`UNSET`] when absent.
    propagation_budget: AtomicU64,
}

/// A shared cancellation handle for cooperative solver interruption.
///
/// Clones share one underlying state: cancelling (or re-arming) any
/// clone is visible to all. Deadlines are wall-clock and span however
/// long the token stays installed; conflict/propagation budgets are
/// *per solve call* — the solver measures them as deltas from the
/// counters at solve entry.
#[derive(Debug, Clone)]
pub struct CancelToken(Arc<CancelState>);

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh token: not cancelled, no deadline, no budgets.
    pub fn new() -> Self {
        CancelToken(Arc::new(CancelState {
            flag: AtomicBool::new(false),
            base: Instant::now(),
            deadline_ms: AtomicU64::new(UNSET),
            conflict_budget: AtomicU64::new(UNSET),
            propagation_budget: AtomicU64::new(UNSET),
        }))
    }

    /// Requests cancellation; every installed solver observes it at its
    /// next conflict (or BDD build step).
    pub fn cancel(&self) {
        self.0.flag.store(true, Ordering::Release);
    }

    /// Whether the hard cancel flag is set (does not consult deadline
    /// or budgets).
    pub fn is_cancelled(&self) -> bool {
        self.0.flag.load(Ordering::Acquire)
    }

    /// Clears the cancel flag and removes the deadline and budgets,
    /// making the token (and any solver it is installed in) reusable.
    pub fn reset(&self) {
        self.0.flag.store(false, Ordering::Release);
        self.0.deadline_ms.store(UNSET, Ordering::Release);
        self.0.conflict_budget.store(UNSET, Ordering::Release);
        self.0.propagation_budget.store(UNSET, Ordering::Release);
    }

    /// Arms a wall-clock deadline `after` from now. Saturates to the
    /// token's maximum representable horizon (~584M years).
    pub fn set_deadline_in(&self, after: Duration) {
        let elapsed = self.0.base.elapsed().as_millis() as u64;
        let ms = elapsed.saturating_add(after.as_millis().min(u128::from(UNSET - 1)) as u64);
        self.0
            .deadline_ms
            .store(ms.min(UNSET - 1), Ordering::Release);
    }

    /// Time remaining until the deadline, `None` when no deadline is
    /// armed. Returns `Duration::ZERO` once expired.
    pub fn remaining(&self) -> Option<Duration> {
        let ms = self.0.deadline_ms.load(Ordering::Acquire);
        if ms == UNSET {
            return None;
        }
        let deadline = self.0.base + Duration::from_millis(ms);
        Some(deadline.saturating_duration_since(Instant::now()))
    }

    /// Whether an armed deadline has passed.
    pub fn deadline_expired(&self) -> bool {
        let ms = self.0.deadline_ms.load(Ordering::Acquire);
        ms != UNSET && self.0.base.elapsed().as_millis() as u64 >= ms
    }

    /// Limits each solve call to at most `conflicts` conflicts.
    pub fn set_conflict_budget(&self, conflicts: u64) {
        self.0
            .conflict_budget
            .store(conflicts.min(UNSET - 1), Ordering::Release);
    }

    /// Limits each solve call to roughly `propagations` propagated
    /// literals (checked at conflict granularity).
    pub fn set_propagation_budget(&self, propagations: u64) {
        self.0
            .propagation_budget
            .store(propagations.min(UNSET - 1), Ordering::Release);
    }

    /// The solver-side poll: should the current solve stop now?
    ///
    /// `conflicts`/`propagations` are the counts accumulated *by this
    /// solve call* (deltas from the stats at solve entry). Called once
    /// per conflict; the flag load is the only cost on the common path.
    pub fn should_stop(&self, conflicts: u64, propagations: u64) -> bool {
        if self.0.flag.load(Ordering::Relaxed) {
            return true;
        }
        if conflicts >= self.0.conflict_budget.load(Ordering::Relaxed)
            || propagations >= self.0.propagation_budget.load(Ordering::Relaxed)
        {
            return true;
        }
        let ms = self.0.deadline_ms.load(Ordering::Relaxed);
        ms != UNSET && self.0.base.elapsed().as_millis() as u64 >= ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_never_stops() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.should_stop(1 << 40, 1 << 40));
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        assert!(t.should_stop(0, 0));
        t.reset();
        assert!(!c.is_cancelled());
    }

    #[test]
    fn budgets_trip_at_threshold() {
        let t = CancelToken::new();
        t.set_conflict_budget(100);
        assert!(!t.should_stop(99, 0));
        assert!(t.should_stop(100, 0));
        t.reset();
        t.set_propagation_budget(1_000);
        assert!(!t.should_stop(0, 999));
        assert!(t.should_stop(0, 1_000));
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::new();
        t.set_deadline_in(Duration::ZERO);
        assert!(t.deadline_expired());
        assert!(t.should_stop(0, 0));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        t.reset();
        t.set_deadline_in(Duration::from_secs(3600));
        assert!(!t.deadline_expired());
        assert!(t.remaining().unwrap() > Duration::from_secs(3500));
    }
}
