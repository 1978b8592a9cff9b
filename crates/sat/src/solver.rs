//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! Feature set (MiniSat/Glucose lineage): a single flat `u32` clause
//! arena (header and literals inline, dense [`ClauseRef`] offsets — no
//! per-clause heap allocation, no pointer chasing), two-watched-literal
//! propagation with blocker literals and binary clauses specialised
//! directly into the watch lists (the binary-propagation fast path never
//! dereferences clause storage), 1UIP conflict analysis with recursive
//! clause minimisation, VMTF (variable-move-to-front) branching with
//! phase saving, Glucose-style dual-EMA LBD adaptive restarts with
//! trail-size restart blocking, and activity/LBD-based learnt clause
//! database reduction. The clause database changes only by adding,
//! learning, level-zero strengthening and deletion.
//!
//! This solver stands in for the external CVC5/Bitwuzla backends used by
//! the paper: the verification conditions of §6.1 are plain Boolean
//! (un)satisfiability queries, so a complete SAT procedure decides exactly
//! the same instances.

use crate::heap::VmtfQueue;
use crate::lit::{LBool, Lit, SatVar};
use qb_formula::Cnf;
use std::collections::HashMap;
use std::time::Instant;

/// Outcome of a solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found (see [`Solver::model`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The solve was interrupted by an installed [`crate::CancelToken`]
    /// (cancel flag, deadline, or budget) before reaching a verdict.
    /// The solver state stays sound: learnt clauses are kept and the
    /// same query can be retried.
    Interrupted,
}

/// Counters describing the work a solve performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnt_clauses: u64,
}

/// A clause handle: the word offset of the clause header in the flat
/// arena. The top bit is reserved for the binary-clause tag carried by
/// watchers, so offsets stay below 2³¹ words (8 GiB of clause storage).
type ClauseRef = u32;

// Flat clause arena layout: `[flags|lbd, len, activity, lit₀ … litₙ₋₁]`.
const H_FLAGS: usize = 0;
const H_LEN: usize = 1;
const H_ACT: usize = 2;
const HEADER_WORDS: usize = 3;
const F_LEARNT: u32 = 1;
const F_DELETED: u32 = 1 << 1;
const LBD_SHIFT: u32 = 2;
const LBD_MAX: u32 = u32::MAX >> LBD_SHIFT;
/// Watcher tag marking a binary clause: its blocker *is* the whole rest
/// of the clause, so propagation never touches the arena for it.
const BIN_FLAG: u32 = 1 << 31;
/// Variable assignment codes (MiniSat lbool encoding).
const VAL_TRUE: u8 = 0;
const VAL_FALSE: u8 = 1;
const VAL_UNDEF: u8 = 2;
/// `reason` sentinel: no reason clause (decision or level-zero fact).
/// Distinct from every real [`ClauseRef`] (offsets stay below 2³¹).
const CREF_NONE: ClauseRef = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    /// Clause offset, with [`BIN_FLAG`] set for binary clauses.
    cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and the watcher need not be visited.
    /// For binary clauses this is the *only* other literal.
    blocker: Lit,
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use qb_sat::{Lit, SatResult, Solver};
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert!(s.model()[b.index()]);
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    /// Flat clause arena: every clause is a header plus its literals,
    /// stored inline.
    ca: Vec<u32>,
    /// Header offset of every clause slot, live and deleted, in
    /// allocation order (the iteration index for whole-database sweeps).
    starts: Vec<ClauseRef>,
    /// Dead words in `ca` (deleted clauses, in-place strengthening).
    garbage: usize,
    learnt_refs: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,
    /// Per-variable assignment code: [`VAL_TRUE`], [`VAL_FALSE`] or
    /// [`VAL_UNDEF`]; a literal's value is `assigns[var] ^ sign`
    /// (branchless — undef codes are unaffected by the flip because
    /// both 2 and 3 mean undef).
    assigns: Vec<u8>,
    level: Vec<u32>,
    /// Reason clause per variable; [`CREF_NONE`] for decisions/facts.
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    order: VmtfQueue,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// False once an empty clause is derived at level zero.
    ok: bool,
    model: Vec<bool>,
    stats: SolverStats,
    /// `stats.propagations` as last published to the metrics registry.
    published_propagations: u64,
    max_learnts: f64,
    cla_inc: f32,
    /// Clauses guarded by each selector variable (see
    /// [`Solver::add_guarded_clause`]), for physical removal on
    /// retirement.
    guarded: HashMap<u32, Vec<ClauseRef>>,
    /// Scratch for recursive learnt-clause minimisation.
    redundant_stack: Vec<Lit>,
    /// Reusable conflict-analysis buffers (no per-conflict allocation).
    learnt_scratch: Vec<Lit>,
    /// Clause-literal copy buffer for analysis inner loops.
    lits_scratch: Vec<u32>,
    minimize_scratch: Vec<Lit>,
    clear_scratch: Vec<SatVar>,
    /// Stamp array + counter for allocation-free LBD computation
    /// (indexed by decision level).
    lbd_seen: Vec<u32>,
    lbd_stamp: u32,
    /// Selectors retired since the last [`Solver::compact`] (the GC
    /// trigger for long incremental sessions).
    retired_selectors: usize,
    /// Fast (recent) exponential moving average of learnt-clause LBD.
    lbd_fast: f64,
    /// Slow (long-term) exponential moving average of learnt-clause LBD.
    lbd_slow: f64,
    /// Long-term EMA of the trail size at conflicts (restart blocking).
    trail_avg: f64,
    /// Conflicts since the last restart (or solve start).
    restart_conflicts: u64,
    /// Cooperative cancellation handle, polled once per conflict.
    cancel: Option<crate::CancelToken>,
    /// The last solve stopped at its own conflict cap
    /// ([`Solver::solve_limited`]).
    capped: bool,
}

const CLA_DECAY: f32 = 0.999;
const CLA_RESCALE_LIMIT: f32 = 1e20;
/// Glucose-style restarts: restart when the recent learnt-LBD average
/// exceeds the long-term average by this margin…
const RESTART_MARGIN: f64 = 1.25;
/// …but never within this many conflicts of the previous restart…
const RESTART_MIN_CONFLICTS: u64 = 50;
/// …and block the restart entirely while the trail is this much larger
/// than its long-term average (the solver is likely deep in a satisfying
/// region; throwing the assignment away would be counterproductive).
const RESTART_BLOCK_MARGIN: f64 = 1.4;
const LBD_FAST_ALPHA: f64 = 1.0 / 32.0;
const LBD_SLOW_ALPHA: f64 = 1.0 / 4096.0;
const TRAIL_ALPHA: f64 = 1.0 / 4096.0;

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            ca: Vec::new(),
            starts: Vec::new(),
            garbage: 0,
            learnt_refs: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VmtfQueue::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            published_propagations: 0,
            max_learnts: 0.0,
            cla_inc: 1.0,
            guarded: HashMap::new(),
            redundant_stack: Vec::new(),
            learnt_scratch: Vec::new(),
            lits_scratch: Vec::new(),
            minimize_scratch: Vec::new(),
            clear_scratch: Vec::new(),
            lbd_seen: Vec::new(),
            lbd_stamp: 0,
            retired_selectors: 0,
            lbd_fast: 0.0,
            lbd_slow: 0.0,
            trail_avg: 0.0,
            restart_conflicts: 0,
            cancel: None,
            capped: false,
        }
    }

    /// Installs (or removes) a cooperative cancellation token, polled
    /// once per conflict during [`Solver::solve_with_assumptions`].
    pub fn set_cancel_token(&mut self, token: Option<crate::CancelToken>) {
        self.cancel = token;
    }

    /// Builds a solver from a DIMACS-style [`Cnf`]; DIMACS variable `v`
    /// maps to the solver variable with index `v - 1`.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new();
        for _ in 0..cnf.num_vars() {
            s.new_var();
        }
        for clause in cnf.clauses() {
            let lits: Vec<Lit> = clause.iter().map(|&l| Lit::from_dimacs(l)).collect();
            s.add_clause(&lits);
        }
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> SatVar {
        let v = SatVar(self.assigns.len() as u32);
        self.assigns.push(VAL_UNDEF);
        self.level.push(0);
        self.reason.push(CREF_NONE);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.lbd_seen.push(0);
        self.order.grow_to(self.assigns.len());
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Work counters for the most recent activity.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    // ---- flat-arena clause accessors ----

    #[inline]
    fn c_len(&self, c: ClauseRef) -> usize {
        self.ca[c as usize + H_LEN] as usize
    }

    #[inline]
    fn c_lit(&self, c: ClauseRef, i: usize) -> Lit {
        Lit::from_code(self.ca[c as usize + HEADER_WORDS + i])
    }

    #[inline]
    fn c_flags(&self, c: ClauseRef) -> u32 {
        self.ca[c as usize + H_FLAGS]
    }

    #[inline]
    fn c_is_deleted(&self, c: ClauseRef) -> bool {
        self.c_flags(c) & F_DELETED != 0
    }

    #[inline]
    fn c_is_learnt(&self, c: ClauseRef) -> bool {
        self.c_flags(c) & F_LEARNT != 0
    }

    #[inline]
    fn c_lbd(&self, c: ClauseRef) -> u32 {
        self.c_flags(c) >> LBD_SHIFT
    }

    #[inline]
    fn c_act(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.ca[c as usize + H_ACT])
    }

    #[inline]
    fn c_set_act(&mut self, c: ClauseRef, a: f32) {
        self.ca[c as usize + H_ACT] = a.to_bits();
    }

    /// Marks a clause slot dead. Watchers must already be gone (or about
    /// to be rebuilt); the storage is reclaimed by the next arena GC.
    fn mark_deleted(&mut self, c: ClauseRef) {
        let len = self.c_len(c);
        self.ca[c as usize + H_FLAGS] |= F_DELETED;
        self.garbage += HEADER_WORDS + len;
    }

    /// Branchless literal-value code: `VAL_TRUE`/`VAL_FALSE`, or ≥ 2 for
    /// unassigned.
    #[inline]
    fn vcode(&self, l: Lit) -> u8 {
        self.assigns[l.var().index()] ^ (l.is_neg() as u8)
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> LBool {
        match self.vcode(l) {
            VAL_TRUE => LBool::True,
            VAL_FALSE => LBool::False,
            _ => LBool::Undef,
        }
    }

    /// Adds a clause; returns `false` if the solver is already in an
    /// unsatisfiable state (conflicting units at level zero).
    ///
    /// # Panics
    ///
    /// Panics if called after a decision has been made (clauses must be
    /// added at decision level zero) or if a literal names an unallocated
    /// variable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        let ok = self.add_clause_ref(lits).0;
        self.publish_propagations();
        ok
    }

    /// [`Solver::add_clause`], additionally reporting the attached clause
    /// (when the normalised clause was neither dropped nor reduced to a
    /// unit).
    fn add_clause_ref(&mut self, lits: &[Lit]) -> (bool, Option<ClauseRef>) {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at decision level zero"
        );
        if !self.ok {
            return (false, None);
        }
        for l in lits {
            assert!(l.var().index() < self.num_vars(), "unallocated variable");
        }
        // Normalise: sort, dedupe, drop false-at-0, detect tautology.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut filtered = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            if i + 1 < c.len() && c[i + 1] == l.negate() {
                return (true, None); // tautology: l and ¬l both present
            }
            match self.value_lit(l) {
                LBool::True => return (true, None), // satisfied at level 0
                LBool::False => continue,           // falsified at level 0: drop
                LBool::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                (false, None)
            }
            1 => {
                self.enqueue(filtered[0], CREF_NONE);
                self.ok = self.propagate().is_none();
                (self.ok, None)
            }
            _ => {
                let cref = self.attach_clause(&filtered, false, 0);
                (true, Some(cref))
            }
        }
    }

    /// Allocates a fresh *selector* variable for activation-literal
    /// incremental solving. A selector is an ordinary variable; the
    /// convention is that clauses guarded by it (via
    /// [`Solver::add_guarded_clause`]) are active exactly in solves that
    /// assume the positive selector literal.
    pub fn new_selector(&mut self) -> SatVar {
        self.new_var()
    }

    /// Adds `lits` guarded by `selector`: the stored clause is
    /// `¬selector ∨ lits`, so it only constrains solves that assume
    /// `selector` (pass it to [`Solver::solve_with_assumptions`]). Learnt
    /// clauses derived from it mention `¬selector` and therefore stay
    /// sound after the guard is dropped. Returns `false` if the solver is
    /// already unsatisfiable.
    ///
    /// # Panics
    ///
    /// As [`Solver::add_clause`].
    pub fn add_guarded_clause(&mut self, selector: Lit, lits: &[Lit]) -> bool {
        let mut guarded: Vec<Lit> = Vec::with_capacity(lits.len() + 1);
        guarded.push(selector.negate());
        guarded.extend_from_slice(lits);
        let (ok, cref) = self.add_clause_ref(&guarded);
        if let Some(cref) = cref {
            self.guarded.entry(selector.var().0).or_default().push(cref);
        }
        self.publish_propagations();
        ok
    }

    /// Fixes every currently unassigned variable in `vars` at level zero
    /// (to `false`; the polarity is arbitrary), permanently removing it
    /// from future branching. Incremental sessions call this for the
    /// auxiliary variables of a retracted encoding scope: their defining
    /// clauses are gone, so leaving them undecided would only feed the
    /// VSIDS queue dead weight.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level zero.
    pub fn deaden_vars(&mut self, vars: &[SatVar]) {
        assert!(self.trail_lim.is_empty(), "level-zero operation only");
        for &v in vars {
            if self.assigns[v.index()] == VAL_UNDEF {
                self.add_clause_ref(&[Lit::neg(v)]);
            }
        }
        self.publish_propagations();
    }

    /// Detaches every clause (problem or learnt) that is satisfied by
    /// the level-zero trail — MiniSat's `removeSatisfied`. In an
    /// incremental session, retiring a selector fixes `¬selector` at
    /// level zero, which permanently satisfies every learnt clause
    /// derived under that assumption; without this sweep those clauses
    /// sit in the watch lists forever.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level zero.
    pub fn simplify_satisfied(&mut self) {
        assert!(self.trail_lim.is_empty(), "level-zero simplification only");
        if !self.ok {
            return;
        }
        for si in 0..self.starts.len() {
            let cref = self.starts[si];
            if self.c_is_deleted(cref) {
                continue;
            }
            let len = self.c_len(cref);
            let satisfied = (0..len).any(|k| self.value_lit(self.c_lit(cref, k)).is_true());
            if satisfied {
                // Level-zero reasons are never expanded by conflict
                // analysis (it stops at level zero), so detaching a
                // locked satisfied clause is sound.
                self.detach_clause(cref);
            }
        }
        self.learnt_refs.retain(|&r| {
            let flags = self.ca[r as usize + H_FLAGS];
            flags & F_DELETED == 0
        });
        self.stats.learnt_clauses = self.learnt_refs.len() as u64;
    }

    /// Permanently retires `selector`: asserts `¬selector` at level zero
    /// (so no future solve can activate its clauses) and physically
    /// detaches every clause that was guarded by it, so dead root clauses
    /// stop burdening watched-literal propagation.
    pub fn retire_selector(&mut self, selector: Lit) {
        if let Some(crefs) = self.guarded.remove(&selector.var().0) {
            for cref in crefs {
                if !self.c_is_deleted(cref) {
                    self.detach_clause(cref);
                }
            }
        }
        self.retired_selectors += 1;
        self.add_clause(&[selector.negate()]);
    }

    /// Selectors retired since the last [`Solver::compact`] call — the
    /// trigger statistic for periodic garbage collection in long
    /// incremental sessions.
    pub fn retired_since_compaction(&self) -> usize {
        self.retired_selectors
    }

    /// Number of clause slots (live *and* deleted) in the arena — what
    /// [`Solver::simplify_satisfied`] and whole-database sweeps scale
    /// with before a GC pass.
    pub fn clause_slots(&self) -> usize {
        self.starts.len()
    }

    /// Number of live (non-deleted) clauses.
    pub fn live_clauses(&self) -> usize {
        self.starts
            .iter()
            .filter(|&&c| !self.c_is_deleted(c))
            .count()
    }

    /// Publishes the propagations made since the last publish to the
    /// metrics registry, so the registry agrees with [`Solver::stats`].
    /// Every public operation that can propagate (solving, adding or
    /// retiring clauses) ends here, once per call.
    fn publish_propagations(&mut self) {
        let made = self.stats.propagations - self.published_propagations;
        if made > 0 {
            qb_obs::counter_add("solver_propagations", "sat", made);
            self.published_propagations = self.stats.propagations;
        }
    }

    /// Compacts the solver's arenas: strengthens the clause database with
    /// every level-zero fact (satisfied clauses are dropped, falsified
    /// literals removed, resulting units applied to fixpoint), then drops
    /// deleted clause slots and every variable that neither occurs in a
    /// live clause nor is `pinned`, renumbering the survivors densely so the
    /// per-variable arrays (assignments, activity, phase, watch lists,
    /// branching heap) and the flat clause arena shrink back to the live
    /// working set. Long incremental sessions retire selectors and deaden
    /// query variables monotonically; without this GC pass the arrays —
    /// and every scan over them — grow with session *history* instead of
    /// live state.
    ///
    /// Returns the old→new variable mapping: `map[v]` is the variable `v`
    /// became (`None` = dropped). **Every externally held
    /// [`SatVar`]/[`Lit`] handle is invalidated**: callers must pin the
    /// variables they intend to keep referencing and remap their handles
    /// through the returned table. Satisfiability is unchanged: live clauses,
    /// level-zero facts of surviving variables, learnt clauses, and
    /// activities all carry over.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level zero.
    pub fn compact(&mut self, pinned: &[SatVar]) -> Vec<Option<SatVar>> {
        assert!(self.trail_lim.is_empty(), "level-zero operation only");
        qb_testutil::failpoints::hit("solver_compact");
        self.retired_selectors = 0;
        let n = self.num_vars();
        if self.ok {
            // Fold every level-zero fact into the clause database (this
            // subsumes the satisfied-clause sweep) so dead false literals
            // don't pin their variables through another GC cycle.
            self.strengthen_level_zero();
        }
        if !self.ok {
            // Permanently unsat: nothing to renumber usefully.
            return (0..n as u32).map(|v| Some(SatVar(v))).collect();
        }

        let mut keep = vec![false; n];
        for &v in pinned {
            keep[v.index()] = true;
        }
        // Collect live clause slots, marking variable occurrences.
        let mut live: Vec<ClauseRef> = Vec::new();
        for &cref in &self.starts {
            if self.c_flags(cref) & F_DELETED != 0 {
                continue;
            }
            let base = cref as usize + HEADER_WORDS;
            for k in 0..self.ca[cref as usize + H_LEN] as usize {
                keep[Lit::from_code(self.ca[base + k]).var().index()] = true;
            }
            live.push(cref);
        }

        let mut var_map: Vec<Option<u32>> = vec![None; n];
        let mut next = 0u32;
        for (old, kept) in keep.iter().enumerate() {
            if *kept {
                var_map[old] = Some(next);
                next += 1;
            }
        }
        let new_n = next as usize;
        let remap = |l: Lit| {
            Lit::new(
                SatVar(var_map[l.var().index()].expect("kept-variable literal")),
                l.is_neg(),
            )
        };

        // Rebuild the flat arena densely with remapped literals, and the
        // watch lists from the (still valid) first-two-literal watch
        // positions.
        let mut ca: Vec<u32> = Vec::with_capacity(self.ca.len() - self.garbage);
        let mut starts: Vec<ClauseRef> = Vec::with_capacity(live.len());
        let mut clause_map: HashMap<ClauseRef, ClauseRef> = HashMap::with_capacity(live.len());
        let mut watches: Vec<Vec<Watcher>> = vec![Vec::new(); 2 * new_n];
        for &old in &live {
            let len = self.c_len(old);
            let new = ca.len() as ClauseRef;
            ca.push(self.ca[old as usize + H_FLAGS]);
            ca.push(len as u32);
            ca.push(self.ca[old as usize + H_ACT]);
            for k in 0..len {
                ca.push(remap(self.c_lit(old, k)).code());
            }
            let l0 = Lit::from_code(ca[new as usize + HEADER_WORDS]);
            let l1 = Lit::from_code(ca[new as usize + HEADER_WORDS + 1]);
            let tag = if len == 2 { new | BIN_FLAG } else { new };
            watches[l0.negate().index()].push(Watcher {
                cref: tag,
                blocker: l1,
            });
            watches[l1.negate().index()].push(Watcher {
                cref: tag,
                blocker: l0,
            });
            starts.push(new);
            clause_map.insert(old, new);
        }

        // Compact the per-variable arrays. Reasons are cleared: every
        // surviving assignment is a level-zero fact, and conflict
        // analysis never expands level-zero reasons.
        let mut assigns = vec![VAL_UNDEF; new_n];
        let mut level = vec![0u32; new_n];
        let mut phase = vec![false; new_n];
        let mut model = vec![false; new_n];
        for (old, &slot) in var_map.iter().enumerate() {
            let Some(new) = slot else { continue };
            assigns[new as usize] = self.assigns[old];
            level[new as usize] = self.level[old];
            phase[new as usize] = self.phase[old];
            model[new as usize] = self.model.get(old).copied().unwrap_or(false);
        }
        // The level-zero trail keeps (remapped) entries of surviving
        // variables; assignments of dropped variables only ever fed
        // clauses that are gone.
        let trail: Vec<Lit> = self
            .trail
            .iter()
            .filter(|l| var_map[l.var().index()].is_some())
            .map(|&l| remap(l))
            .collect();
        let mut order = VmtfQueue::new();
        let recency: Vec<SatVar> = self
            .order
            .order_most_recent_first()
            .into_iter()
            .filter_map(|v| var_map[v.index()].map(SatVar))
            .collect();
        order.rebuild(&recency);
        let guarded = self
            .guarded
            .iter()
            .filter_map(|(&sel, crefs)| {
                let sel_new = var_map[sel as usize]?;
                let crefs: Vec<ClauseRef> = crefs
                    .iter()
                    .filter_map(|&c| clause_map.get(&c).copied())
                    .collect();
                Some((sel_new, crefs))
            })
            .collect();
        let learnt_refs: Vec<ClauseRef> = self
            .learnt_refs
            .iter()
            .filter_map(|&c| clause_map.get(&c).copied())
            .collect();
        self.stats.learnt_clauses = learnt_refs.len() as u64;

        self.ca = ca;
        self.starts = starts;
        self.garbage = 0;
        self.learnt_refs = learnt_refs;
        self.watches = watches;
        self.assigns = assigns;
        self.level = level;
        self.reason = vec![CREF_NONE; new_n];
        self.qhead = trail.len();
        self.trail = trail;
        self.order = order;
        self.phase = phase;
        self.seen = vec![false; new_n];
        self.model = model;
        self.guarded = guarded;
        var_map.into_iter().map(|v| v.map(SatVar)).collect()
    }

    /// Level-zero clause strengthening used by [`Solver::compact`]:
    /// deletes satisfied clauses, removes falsified literals in place,
    /// and applies the resulting units until fixpoint. Operates directly
    /// on clause storage — watch lists are stale afterwards and must be
    /// rebuilt (compaction does) before any propagation.
    fn strengthen_level_zero(&mut self) {
        let mut changed = true;
        while changed && self.ok {
            changed = false;
            for si in 0..self.starts.len() {
                let cref = self.starts[si];
                if self.c_is_deleted(cref) {
                    continue;
                }
                let len = self.c_len(cref);
                let base = cref as usize + HEADER_WORDS;
                let mut satisfied = false;
                let mut n_false = 0usize;
                for k in 0..len {
                    match self.value_lit(Lit::from_code(self.ca[base + k])) {
                        LBool::True => {
                            satisfied = true;
                            break;
                        }
                        LBool::False => n_false += 1,
                        LBool::Undef => {}
                    }
                }
                if satisfied {
                    self.mark_deleted(cref);
                    continue;
                }
                if n_false == 0 {
                    continue;
                }
                changed = true;
                let mut w = 0usize;
                for k in 0..len {
                    let l = Lit::from_code(self.ca[base + k]);
                    if !self.value_lit(l).is_false() {
                        self.ca[base + w] = l.code();
                        w += 1;
                    }
                }
                self.garbage += len - w;
                self.ca[cref as usize + H_LEN] = w as u32;
                match w {
                    0 => {
                        self.ok = false;
                        return;
                    }
                    1 => {
                        let unit = Lit::from_code(self.ca[base]);
                        self.mark_deleted(cref);
                        self.enqueue(unit, CREF_NONE);
                    }
                    _ => {}
                }
            }
        }
        self.learnt_refs
            .retain(|&r| self.ca[r as usize + H_FLAGS] & F_DELETED == 0);
        self.stats.learnt_clauses = self.learnt_refs.len() as u64;
    }

    /// Appends a clause to the flat arena and watches its first two
    /// literals — binary clauses are tagged in the watch lists so
    /// propagation decides them from the watcher alone.
    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.ca.len() as ClauseRef;
        let mut flags = lbd.min(LBD_MAX) << LBD_SHIFT;
        if learnt {
            flags |= F_LEARNT;
        }
        self.ca.push(flags);
        self.ca.push(lits.len() as u32);
        self.ca.push(0f32.to_bits());
        for l in lits {
            self.ca.push(l.code());
        }
        self.starts.push(cref);
        let tag = if lits.len() == 2 {
            cref | BIN_FLAG
        } else {
            cref
        };
        self.watches[lits[0].negate().index()].push(Watcher {
            cref: tag,
            blocker: lits[1],
        });
        self.watches[lits[1].negate().index()].push(Watcher {
            cref: tag,
            blocker: lits[0],
        });
        if learnt {
            self.learnt_refs.push(cref);
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    /// Removes the clause's two watchers (current watch positions 0/1).
    fn detach_watchers(&mut self, cref: ClauseRef) {
        let w0 = self.c_lit(cref, 0).negate().index();
        let w1 = self.c_lit(cref, 1).negate().index();
        self.watches[w0].retain(|w| w.cref & !BIN_FLAG != cref);
        self.watches[w1].retain(|w| w.cref & !BIN_FLAG != cref);
    }

    fn detach_clause(&mut self, cref: ClauseRef) {
        self.detach_watchers(cref);
        // Detached clauses are never read again (they leave every watch
        // list, and only reasons of level-zero assignments can still
        // reference them — conflict analysis never expands level-zero
        // reasons). The storage is reclaimed by the next arena GC.
        self.mark_deleted(cref);
    }

    /// Reclaims dead words from the flat clause arena: live clauses are
    /// copied front-to-back (preserving allocation order), watchers,
    /// learnt refs and the guarded map are rebased, and deleted slots
    /// disappear. Only runs at decision level zero, where every reason
    /// reference is a level-zero fact that conflict analysis never
    /// expands (reasons are cleared wholesale).
    fn collect_garbage(&mut self) {
        debug_assert!(self.trail_lim.is_empty());
        if self.ca.len() < 1024 || self.garbage * 2 < self.ca.len() {
            return;
        }
        let _span = qb_obs::span("sat.clause_gc", "");
        qb_obs::counter_add("solver_clause_gc", "sat", 1);
        let mut map: HashMap<ClauseRef, ClauseRef> = HashMap::with_capacity(self.starts.len());
        let mut ca: Vec<u32> = Vec::with_capacity(self.ca.len() - self.garbage);
        let mut starts: Vec<ClauseRef> = Vec::with_capacity(self.starts.len());
        for &old in &self.starts {
            if self.c_is_deleted(old) {
                continue;
            }
            let len = self.c_len(old);
            let new = ca.len() as ClauseRef;
            ca.extend_from_slice(&self.ca[old as usize..old as usize + HEADER_WORDS + len]);
            starts.push(new);
            map.insert(old, new);
        }
        self.ca = ca;
        self.starts = starts;
        self.garbage = 0;
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                let flag = w.cref & BIN_FLAG;
                w.cref = map[&(w.cref & !BIN_FLAG)] | flag;
            }
        }
        self.learnt_refs = self
            .learnt_refs
            .iter()
            .filter_map(|r| map.get(r).copied())
            .collect();
        self.stats.learnt_clauses = self.learnt_refs.len() as u64;
        for crefs in self.guarded.values_mut() {
            *crefs = crefs.iter().filter_map(|c| map.get(c).copied()).collect();
        }
        for r in &mut self.reason {
            *r = CREF_NONE;
        }
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, from: ClauseRef) {
        debug_assert!(self.value_lit(l).is_undef());
        let v = l.var();
        self.assigns[v.index()] = l.is_neg() as u8;
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = from;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    ///
    /// This is the solver's innermost loop (≈ 80% of search time), so
    /// the watcher scan uses unchecked indexing. Safety rests on two
    /// structural invariants maintained by every clause-database
    /// mutation: (1) every literal stored in a clause or watcher names
    /// an allocated variable (`add_clause` asserts it, `compact`
    /// renumbers consistently), so `assigns[lit.var()]` is in bounds;
    /// (2) every non-binary watcher's `cref` is a live clause header in
    /// `ca` whose two watch positions mirror the watch lists (attach,
    /// detach and the GC rebuilds keep them in lockstep), so
    /// `ca[cref..cref+3+len]` is in bounds. The randomized differential
    /// tests against [`crate::dpll_solve`] exercise these invariants
    /// continuously.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses that watch ¬p must be visited. The list is taken
            // out and compacted with a write pointer (MiniSat style):
            // moved watchers are dropped, survivors slide forward, and
            // no other code path pushes onto this literal's list while
            // it is detached (a new watch literal is never false, but
            // ¬p is).
            let watch_idx = p.index();
            let mut ws = std::mem::take(&mut self.watches[watch_idx]);
            let mut j = 0;
            let mut i = 0;
            'watchers: while i < ws.len() {
                let Watcher { cref, blocker } = unsafe { *ws.get_unchecked(i) };
                let bcode = unsafe {
                    *self.assigns.get_unchecked(blocker.var().index()) ^ (blocker.is_neg() as u8)
                };
                if cref & BIN_FLAG != 0 {
                    // Binary fast path: the blocker is the whole rest of
                    // the clause — no arena access.
                    match bcode {
                        VAL_TRUE => {}
                        VAL_FALSE => {
                            self.qhead = self.trail.len();
                            let n = ws.len();
                            ws.copy_within(i..n, j);
                            ws.truncate(j + n - i);
                            self.watches[watch_idx] = ws;
                            return Some(cref & !BIN_FLAG);
                        }
                        _ => self.enqueue(blocker, cref & !BIN_FLAG),
                    }
                    ws[j] = ws[i];
                    j += 1;
                    i += 1;
                    continue;
                }
                if bcode == VAL_TRUE {
                    ws[j] = ws[i];
                    j += 1;
                    i += 1;
                    continue;
                }
                let false_lit = p.negate();
                let base = cref as usize + HEADER_WORDS;
                // Ensure the false literal is at position 1.
                unsafe {
                    if *self.ca.get_unchecked(base) == false_lit.code() {
                        let ptr = self.ca.as_mut_ptr();
                        std::ptr::swap(ptr.add(base), ptr.add(base + 1));
                    }
                }
                debug_assert_eq!(self.ca[base + 1], false_lit.code());
                let first = Lit::from_code(unsafe { *self.ca.get_unchecked(base) });
                let fcode = unsafe {
                    *self.assigns.get_unchecked(first.var().index()) ^ (first.is_neg() as u8)
                };
                if first != blocker && fcode == VAL_TRUE {
                    ws[j] = Watcher {
                        cref,
                        blocker: first,
                    };
                    j += 1;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = unsafe { *self.ca.get_unchecked(cref as usize + H_LEN) } as usize;
                for k in 2..len {
                    let lk = Lit::from_code(unsafe { *self.ca.get_unchecked(base + k) });
                    let kcode = unsafe {
                        *self.assigns.get_unchecked(lk.var().index()) ^ (lk.is_neg() as u8)
                    };
                    if kcode != VAL_FALSE {
                        unsafe {
                            let ptr = self.ca.as_mut_ptr();
                            std::ptr::swap(ptr.add(base + 1), ptr.add(base + k));
                        }
                        self.watches[lk.negate().index()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        i += 1;
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                if fcode == VAL_FALSE {
                    self.qhead = self.trail.len();
                    let n = ws.len();
                    ws.copy_within(i..n, j);
                    ws.truncate(j + n - i);
                    self.watches[watch_idx] = ws;
                    return Some(cref);
                }
                self.enqueue(first, cref);
                ws[j] = ws[i];
                j += 1;
                i += 1;
            }
            ws.truncate(j);
            self.watches[watch_idx] = ws;
        }
        None
    }

    #[inline]
    fn bump_var(&mut self, v: SatVar) {
        self.order.bump(v);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let act = self.c_act(cref) + self.cla_inc;
        self.c_set_act(cref, act);
        if act > CLA_RESCALE_LIMIT {
            for i in 0..self.learnt_refs.len() {
                let r = self.learnt_refs[i];
                let a = self.c_act(r) / CLA_RESCALE_LIMIT;
                self.c_set_act(r, a);
            }
            self.cla_inc /= CLA_RESCALE_LIMIT;
        }
    }

    /// 1UIP conflict analysis; returns the learnt clause (asserting literal
    /// first, in a reusable buffer the caller hands back via
    /// [`Solver::learnt_scratch`]) and the backjump level.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt = std::mem::take(&mut self.learnt_scratch);
        learnt.clear();
        learnt.push(Lit::pos(SatVar(0))); // placeholder slot 0
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            if self.c_is_learnt(confl) {
                self.bump_clause(confl);
            }
            let len = self.c_len(confl);
            let base = confl as usize + HEADER_WORDS;
            let mut lits = std::mem::take(&mut self.lits_scratch);
            lits.clear();
            lits.extend_from_slice(&self.ca[base..base + len]);
            let skip = p.map(Lit::var);
            for &code in &lits {
                let q = Lit::from_code(code);
                let v = q.var();
                // Skip the literal this clause propagated (binary-watcher
                // enqueues don't normalise its position to slot 0).
                if skip == Some(v) {
                    continue;
                }
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            self.lits_scratch = lits;
            // Select the next literal to expand from the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = lit.negate();
                break;
            }
            confl = self.reason[lit.var().index()];
            debug_assert_ne!(confl, CREF_NONE, "non-decision on conflict path");
            p = Some(lit);
        }

        // Recursive minimisation: drop literals whose negation is implied
        // by the remaining clause literals and level-zero facts.
        let mut to_clear = std::mem::take(&mut self.clear_scratch);
        to_clear.clear();
        let mut minimized = std::mem::take(&mut self.minimize_scratch);
        minimized.clear();
        minimized.push(learnt[0]);
        for &l in learnt.iter().skip(1) {
            if !self.literal_redundant(l, &mut to_clear) {
                minimized.push(l);
            }
        }

        // Clear seen flags (clause literals and redundancy-walk marks).
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        for &v in &to_clear {
            self.seen[v.index()] = false;
        }
        self.clear_scratch = to_clear;
        self.learnt_scratch = learnt;

        // Compute backjump level: the highest level among minimized[1..].
        let backjump = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };
        (minimized, backjump)
    }

    /// Recursive learnt-clause minimisation (MiniSat's `litRedundant`,
    /// implemented iteratively): `l` is redundant when every path from it
    /// backwards through the implication graph terminates at literals
    /// already in the learnt clause (marked `seen`) or fixed at level
    /// zero. Variables proven on-path are marked `seen` and recorded in
    /// `to_clear` — both as memoisation across the clause's literals and
    /// so the caller can unmark them afterwards.
    fn literal_redundant(&mut self, l: Lit, to_clear: &mut Vec<SatVar>) -> bool {
        if self.reason[l.var().index()] == CREF_NONE {
            return false; // decisions are never redundant
        }
        let top = to_clear.len();
        let mut stack = std::mem::take(&mut self.redundant_stack);
        stack.clear();
        stack.push(l);
        let mut redundant = true;
        'walk: while let Some(p) = stack.pop() {
            let cref = self.reason[p.var().index()];
            debug_assert_ne!(cref, CREF_NONE, "walk reached a decision");
            // Every literal other than the one this clause propagated
            // (p's variable) must itself be accounted for.
            let len = self.c_len(cref);
            let base = cref as usize + HEADER_WORDS;
            let mut lits = std::mem::take(&mut self.lits_scratch);
            lits.clear();
            lits.extend_from_slice(&self.ca[base..base + len]);
            for &code in &lits {
                let q = Lit::from_code(code);
                let v = q.var();
                if v == p.var() {
                    continue;
                }
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                if self.reason[v.index()] == CREF_NONE {
                    // A decision outside the clause: `l` must be kept.
                    // Undo the marks this walk added.
                    for &x in &to_clear[top..] {
                        self.seen[x.index()] = false;
                    }
                    to_clear.truncate(top);
                    redundant = false;
                    self.lits_scratch = lits;
                    break 'walk;
                }
                self.seen[v.index()] = true;
                to_clear.push(v);
                stack.push(q);
            }
            self.lits_scratch = lits;
        }
        stack.clear();
        self.redundant_stack = stack;
        redundant
    }

    fn lbd_of(&mut self, lits: &[Lit]) -> u32 {
        // Decision levels can exceed the variable count: every
        // already-implied assumption opens an *empty* level to keep the
        // level↔assumption indexing aligned. Grow the stamp array to
        // the deepest level in the clause before indexing by level.
        let max_level = lits
            .iter()
            .map(|l| self.level[l.var().index()] as usize)
            .max()
            .unwrap_or(0);
        if max_level >= self.lbd_seen.len() {
            self.lbd_seen.resize(max_level + 1, 0);
        }
        self.lbd_stamp = self.lbd_stamp.wrapping_add(1);
        if self.lbd_stamp == 0 {
            // Wrapped: invalidate every stale stamp once.
            self.lbd_seen.iter_mut().for_each(|s| *s = u32::MAX);
            self.lbd_stamp = 1;
        }
        let mut lbd = 0u32;
        for l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if self.lbd_seen[lvl] != self.lbd_stamp {
                self.lbd_seen[lvl] = self.lbd_stamp;
                lbd += 1;
            }
        }
        lbd
    }

    fn backtrack_to(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            // Phase saving: remember the last value on unassignment.
            self.phase[v.index()] = self.assigns[v.index()] == VAL_TRUE;
            self.assigns[v.index()] = VAL_UNDEF;
            self.reason[v.index()] = CREF_NONE;
            self.order.unassigned_hint(v);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        let assigns = &self.assigns;
        let v = self
            .order
            .next_unassigned(|v| assigns[v.index()] != VAL_UNDEF)?;
        Some(Lit::new(v, !self.phase[v.index()]))
    }

    fn reduce_db(&mut self) {
        let _span = qb_obs::span("sat.reduce_db", "");
        qb_obs::counter_add("solver_reduce_db", "sat", 1);
        // Sort learnt clauses: high LBD and low activity first (to delete).
        let mut refs = self.learnt_refs.clone();
        refs.sort_by(|&a, &b| {
            self.c_lbd(b).cmp(&self.c_lbd(a)).then(
                self.c_act(a)
                    .partial_cmp(&self.c_act(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let target = refs.len() / 2;
        let mut removed = 0;
        for &cref in refs.iter() {
            if removed >= target {
                break;
            }
            if self.c_is_deleted(cref)
                || !self.c_is_learnt(cref)
                || self.c_len(cref) <= 2
                || self.c_lbd(cref) <= 2
            {
                continue;
            }
            // Never delete a clause that is the reason for an assignment.
            let first = self.c_lit(cref, 0);
            let locked =
                self.reason[first.var().index()] == cref && !self.value_lit(first).is_undef();
            if locked {
                continue;
            }
            self.detach_clause(cref);
            removed += 1;
        }
        self.learnt_refs
            .retain(|&r| self.ca[r as usize + H_FLAGS] & F_DELETED == 0);
        self.stats.learnt_clauses = self.learnt_refs.len() as u64;
    }

    /// Decides satisfiability of the accumulated clauses.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Decides satisfiability under temporary `assumptions` (unit literals
    /// that hold for this call only).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        let _solve_span = qb_obs::span("sat.solve", "");
        self.solve_capped(assumptions, u64::MAX)
    }

    /// [`Solver::solve_with_assumptions`] stopped after `max_conflicts`
    /// conflicts of this call: returns [`SatResult::Interrupted`] at the
    /// cap or when the installed [`crate::CancelToken`] trips, whichever
    /// comes first (the token is polled first, so a call stopped by both
    /// at one conflict counts as cancelled). Either way the solver is left
    /// sound at level zero with its learnt clauses, and
    /// [`Solver::hit_conflict_cap`] tells the two stops apart.
    ///
    /// Meant for many small probing calls (SAT sweeping), so it records no
    /// trace span of its own; the caller spans the batch.
    pub fn solve_limited(&mut self, assumptions: &[Lit], max_conflicts: u64) -> SatResult {
        self.solve_capped(assumptions, max_conflicts)
    }

    /// Whether the last solve call stopped at the `max_conflicts` cap of
    /// [`Solver::solve_limited`] (as opposed to a verdict or the
    /// cancellation token).
    pub fn hit_conflict_cap(&self) -> bool {
        self.capped
    }

    fn solve_capped(&mut self, assumptions: &[Lit], max_conflicts: u64) -> SatResult {
        self.capped = false;
        if !self.ok {
            return SatResult::Unsat;
        }
        // Tracing state is sampled once per solve: the hot loop below
        // branches on a local bool, not the global flag, and per-phase
        // clocks only tick when a trace is being captured.
        let traced = qb_obs::enabled();
        let mut propagate_ns = 0u64;
        let mut analyze_ns = 0u64;
        // The solve starts at level zero: reclaim clause-arena garbage
        // once enough of it has accumulated (dead learnt clauses from
        // earlier solves, retired query scopes).
        self.collect_garbage();
        let floor = (self.starts.len() as f64 / 6.0).max(500.0);
        // A capped probing call keeps the learnt-clause budget earlier
        // calls grew: resetting it each time would make a stream of
        // small calls reduce the database on nearly every call.
        self.max_learnts = if max_conflicts == u64::MAX {
            floor
        } else {
            self.max_learnts.max(floor)
        };
        self.restart_conflicts = 0;
        // Budgets on the cancel token are per solve call: measure them
        // as deltas from the counters at solve entry.
        let start_conflicts = self.stats.conflicts;
        let start_propagations = self.stats.propagations;
        let start_decisions = self.stats.decisions;
        let start_restarts = self.stats.restarts;
        if let Some(token) = &self.cancel {
            if token.should_stop(0, 0) {
                return SatResult::Interrupted;
            }
        }

        let result = loop {
            let confl = if traced {
                let clock = Instant::now();
                let confl = self.propagate();
                propagate_ns += clock.elapsed().as_nanos() as u64;
                confl
            } else {
                self.propagate()
            };
            if let Some(confl) = confl {
                self.stats.conflicts += 1;
                self.restart_conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break SatResult::Unsat;
                }
                if let Some(token) = &self.cancel {
                    if token.should_stop(
                        self.stats.conflicts - start_conflicts,
                        self.stats.propagations - start_propagations,
                    ) {
                        // The trailing backtrack_to(0) below restores a
                        // sound level-zero state; learnt clauses stay.
                        break SatResult::Interrupted;
                    }
                }
                if self.stats.conflicts - start_conflicts >= max_conflicts {
                    self.capped = true;
                    break SatResult::Interrupted;
                }
                let (learnt, backjump) = if traced {
                    let clock = Instant::now();
                    let analyzed = self.analyze(confl);
                    analyze_ns += clock.elapsed().as_nanos() as u64;
                    analyzed
                } else {
                    self.analyze(confl)
                };
                // Glucose-style adaptive restarts: track a fast and a
                // slow EMA of learnt-clause LBD (seeded on the first
                // conflict) plus a long-term trail-size EMA used to
                // block restarts while the assignment is unusually deep.
                let lbd = self.lbd_of(&learnt);
                if self.lbd_slow == 0.0 {
                    self.lbd_fast = lbd as f64;
                    self.lbd_slow = lbd as f64;
                } else {
                    self.lbd_fast += LBD_FAST_ALPHA * (lbd as f64 - self.lbd_fast);
                    self.lbd_slow += LBD_SLOW_ALPHA * (lbd as f64 - self.lbd_slow);
                }
                self.trail_avg += TRAIL_ALPHA * (self.trail.len() as f64 - self.trail_avg);
                self.backtrack_to(backjump);
                self.learn(&learnt, lbd);
                self.minimize_scratch = learnt;
                self.cla_inc /= CLA_DECAY;
                if self.restart_conflicts >= RESTART_MIN_CONFLICTS
                    && self.lbd_fast > RESTART_MARGIN * self.lbd_slow
                {
                    if (self.trail.len() as f64) > RESTART_BLOCK_MARGIN * self.trail_avg {
                        // Deep trail: likely approaching a model; hold
                        // the restart and re-open the conflict window.
                        self.restart_conflicts = 0;
                    } else {
                        self.stats.restarts += 1;
                        self.restart_conflicts = 0;
                        self.lbd_fast = self.lbd_slow;
                        self.backtrack_to(0);
                    }
                }
                if self.learnt_refs.len() as f64 >= self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.5;
                }
            } else {
                // Apply pending assumptions as pseudo-decisions.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value_lit(a) {
                        LBool::True => {
                            // Already implied: open an empty level to keep
                            // the level↔assumption indexing aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => break SatResult::Unsat,
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, CREF_NONE);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => {
                        self.model = self.assigns.iter().map(|&a| a == VAL_TRUE).collect();
                        break SatResult::Sat;
                    }
                    Some(decision) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(decision, CREF_NONE);
                    }
                }
            }
        };
        self.backtrack_to(0);
        // Always-on phase counters: one registry update per solve call,
        // negligible next to the solve itself.
        self.publish_propagations();
        qb_obs::counter_add(
            "solver_conflicts",
            "sat",
            self.stats.conflicts - start_conflicts,
        );
        qb_obs::counter_add(
            "solver_decisions",
            "sat",
            self.stats.decisions - start_decisions,
        );
        qb_obs::counter_add(
            "solver_restarts",
            "sat",
            self.stats.restarts - start_restarts,
        );
        if traced {
            qb_obs::counter_add("solver_phase_ns", "propagate", propagate_ns);
            qb_obs::counter_add("solver_phase_ns", "analyze", analyze_ns);
        }
        result
    }

    fn learn(&mut self, learnt: &[Lit], lbd: u32) {
        debug_assert!(!learnt.is_empty());
        if learnt.len() == 1 {
            self.enqueue(learnt[0], CREF_NONE);
        } else {
            let asserting = learnt[0];
            let cref = self.attach_clause(learnt, true, lbd);
            self.enqueue(asserting, cref);
        }
    }

    /// The satisfying assignment found by the last [`Solver::solve`] call
    /// that returned [`SatResult::Sat`], indexed by variable.
    pub fn model(&self) -> &[bool] {
        &self.model
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(dimacs: &[i32]) -> Vec<Lit> {
        dimacs.iter().map(|&l| Lit::from_dimacs(l)).collect()
    }

    fn solver_with(num_vars: usize, clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(&lits(c));
        }
        s
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = solver_with(1, &[&[1]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model()[0]);

        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        // 1, 1→2, 2→3, 3→¬1 is unsat.
        let mut s = solver_with(3, &[&[1], &[-1, 2], &[-2, 3], &[-3, -1]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn requires_search() {
        // XOR-like constraints: x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 ⊕ x3 = 1: unsat.
        let mut s = solver_with(
            3,
            &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1, 3], &[-1, -3]],
        );
        assert_eq!(s.solve(), SatResult::Unsat);
        // Drop one parity constraint: sat.
        let mut s = solver_with(3, &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3]]);
        assert_eq!(s.solve(), SatResult::Sat);
        let m = s.model();
        assert_ne!(m[0], m[1]);
        assert_ne!(m[1], m[2]);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // Pigeons p∈{0,1,2}, holes h∈{0,1}; var(p,h) = 2p+h+1.
        let v = |p: i32, h: i32| 2 * p + h + 1;
        let mut cls: Vec<Vec<i32>> = Vec::new();
        for p in 0..3 {
            cls.push(vec![v(p, 0), v(p, 1)]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    cls.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i32]> = cls.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(6, &refs);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautology_clauses_ignored() {
        let mut s = solver_with(2, &[&[1, -1], &[2]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model()[1]);
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = solver_with(2, &[&[1, 2]]);
        assert_eq!(s.solve_with_assumptions(&lits(&[-1, -2])), SatResult::Unsat);
        // The solver is reusable: without assumptions it is sat again.
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.solve_with_assumptions(&lits(&[-1])), SatResult::Sat);
        assert!(s.model()[1]);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: Vec<Vec<i32>> = vec![
            vec![1, 2, -3],
            vec![-1, 3],
            vec![2, 3],
            vec![-2, -3, 4],
            vec![-4, 1],
        ];
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(4, &refs);
        assert_eq!(s.solve(), SatResult::Sat);
        let m = s.model().to_vec();
        for c in &clauses {
            assert!(c.iter().any(|&l| {
                let val = m[(l.unsigned_abs() - 1) as usize];
                if l > 0 {
                    val
                } else {
                    !val
                }
            }));
        }
    }

    #[test]
    fn compaction_shrinks_slots_and_preserves_verdicts() {
        // A base formula plus a stream of guarded "queries": after
        // retiring the selectors, compaction must shrink both the
        // variable and clause arenas while every verdict on the base
        // formula is unchanged.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&lits(&[1, 2]));
        s.add_clause(&[Lit::neg(a), Lit::pos(c)]);

        for round in 0..20 {
            let sel = Lit::pos(s.new_selector());
            let x = s.new_var();
            let y = s.new_var();
            // Guarded structure: x ↔ ¬y plus a round-dependent unit.
            s.add_guarded_clause(sel, &[Lit::pos(x), Lit::pos(y)]);
            s.add_guarded_clause(sel, &[Lit::neg(x), Lit::neg(y)]);
            let polarity = round % 2 == 0;
            s.add_guarded_clause(sel, &[Lit::new(x, polarity)]);
            assert_eq!(s.solve_with_assumptions(&[sel]), SatResult::Sat);
            s.retire_selector(sel);
            s.simplify_satisfied();
            s.deaden_vars(&[x, y]);
        }

        let vars_before = s.num_vars();
        assert!(s.retired_since_compaction() >= 20);

        let map = s.compact(&[a, b, c]);
        assert_eq!(s.retired_since_compaction(), 0);
        assert!(
            s.num_vars() < vars_before,
            "variables shrink: {} -> {}",
            vars_before,
            s.num_vars()
        );
        assert_eq!(s.clause_slots(), s.live_clauses());

        // Pinned variables survive and the base formula still decides
        // identically through the remapped handles.
        let a2 = Lit::pos(map[a.index()].unwrap());
        let b2 = Lit::pos(map[b.index()].unwrap());
        let c2 = Lit::pos(map[c.index()].unwrap());
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(
            s.solve_with_assumptions(&[a2.negate(), b2.negate()]),
            SatResult::Unsat
        );
        assert_eq!(
            s.solve_with_assumptions(&[a2, c2.negate()]),
            SatResult::Unsat
        );
        assert_eq!(s.solve_with_assumptions(&[a2]), SatResult::Sat);
        assert!(s.model()[c2.var().index()], "a → c still propagates");
    }

    #[test]
    fn compaction_keeps_level_zero_facts() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a)]); // unit fact
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
        // `b` was forced at level zero; after compaction the fact must
        // persist even though its reason clause is satisfied-swept.
        let map = s.compact(&[a, b]);
        let a2 = map[a.index()].unwrap();
        let b2 = map[b.index()].unwrap();
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(b2)]), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(a2)]), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model()[a2.index()]);
        assert!(s.model()[b2.index()]);
    }

    /// Asserts that `s` decides every assumption set over `kept`, each
    /// variable fixed either way or left free, as [`crate::dpll_solve`]
    /// decides `cnf` under the same assumptions on `pinned`: `kept[i]`
    /// is the solver variable DIMACS variable `pinned[i]` became.
    fn assert_matches_dpll(s: &mut Solver, cnf: &Cnf, pinned: &[i32], kept: &[SatVar]) {
        for code in 0..3usize.pow(kept.len() as u32) {
            let mut assumptions = Vec::new();
            let mut oracle = cnf.clone();
            let mut rest = code;
            for (&d, &v) in pinned.iter().zip(kept) {
                if rest % 3 != 0 {
                    let neg = rest % 3 == 2;
                    assumptions.push(Lit::new(v, neg));
                    oracle.add_clause(&[if neg { -d } else { d }]);
                }
                rest /= 3;
            }
            assert_eq!(
                s.solve_with_assumptions(&assumptions),
                crate::dpll_solve(&oracle),
                "assumptions {assumptions:?}"
            );
        }
    }

    /// Compacts `clauses` over `num_vars` DIMACS variables, pinning
    /// `pinned`. Compaction renumbers but never merges: every pinned
    /// variable survives as its own variable, unpinned level-zero units
    /// are dropped, and every verdict through the remapped handles
    /// matches the oracle.
    fn assert_compaction_keeps_pinned(num_vars: usize, clauses: &[&[i32]], pinned: &[i32]) {
        let mut cnf = Cnf::new();
        for _ in 0..num_vars {
            cnf.fresh_var();
        }
        for c in clauses {
            cnf.add_clause(c);
        }
        let mut s = Solver::from_cnf(&cnf);
        let vars: Vec<SatVar> = pinned
            .iter()
            .map(|&d| SatVar::from_index(d as usize - 1))
            .collect();
        let map = s.compact(&vars);
        let kept: Vec<SatVar> = vars.iter().map(|v| map[v.index()].unwrap()).collect();
        let mut distinct = kept.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), kept.len(), "no two pinned variables merge");
        assert_eq!(
            s.num_vars(),
            kept.len(),
            "unpinned level-zero unit is dropped"
        );
        assert_matches_dpll(&mut s, &cnf, pinned, &kept);
    }

    #[test]
    fn compaction_substitutes_unit_strengthened_equivalences() {
        // A level-zero unit strengthens two ternary clauses into the
        // binary pair (¬x∨y), (x∨¬y), i.e. x ≡ y. Compaction keeps x
        // and y apart rather than substituting one for the other.
        let (a, x, y, z) = (1, 2, 3, 4);
        assert_compaction_keeps_pinned(
            4,
            &[&[a], &[-a, -x, y], &[-a, x, -y], &[-y, z]],
            &[x, y, z],
        );
    }

    #[test]
    fn compaction_substitutes_negated_equivalence_with_polarity() {
        // (x∨y) ∧ (¬x∨¬y) force x ≡ ¬y; both survive compaction and
        // every assumption over them keeps its polarity.
        assert_compaction_keeps_pinned(2, &[&[1, 2], &[-1, -2]], &[1, 2]);
    }

    #[test]
    fn compaction_never_dissolves_live_guard_selectors() {
        // A live guard survives compaction under its new number, so
        // retirement still detaches the right clauses.
        let mut s = Solver::new();
        let x = s.new_var();
        let sel = Lit::pos(s.new_selector());
        s.add_guarded_clause(sel, &[Lit::pos(x)]);
        let map = s.compact(&[x, sel.var()]);
        // The guarded clause still activates and retires correctly.
        let new_sel = Lit::pos(map[sel.var().index()].unwrap());
        let mx = Lit::pos(map[x.index()].unwrap());
        assert_eq!(
            s.solve_with_assumptions(&[new_sel, mx.negate()]),
            SatResult::Unsat
        );
        s.retire_selector(new_sel);
        assert_eq!(s.solve_with_assumptions(&[mx.negate()]), SatResult::Sat);
    }

    #[test]
    fn from_cnf_round_trip() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        cnf.add_clause(&[a, b]);
        cnf.add_clause(&[-a, b]);
        cnf.add_clause(&[-b]);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn binary_clauses_propagate_and_conflict_via_watchers() {
        // A pure-binary implication chain exercises the specialised
        // binary watcher path for propagation, conflict and analysis.
        let mut s = solver_with(
            5,
            &[&[1], &[-1, 2], &[-2, 3], &[-3, 4], &[-4, 5], &[-5, -1]],
        );
        assert_eq!(s.solve(), SatResult::Unsat);
        let mut s = solver_with(4, &[&[-1, 2], &[-2, 3], &[-3, 4]]);
        assert_eq!(s.solve_with_assumptions(&lits(&[1])), SatResult::Sat);
        assert!(s.model()[3], "chain propagates to the end");
        assert_eq!(s.solve_with_assumptions(&lits(&[1, -4])), SatResult::Unsat);
    }

    #[test]
    fn duplicate_implied_assumptions_do_not_overflow_lbd_stamps() {
        // Already-implied assumptions each open an *empty* decision
        // level, so a conflict can fire at a level deeper than the
        // variable count; the level-indexed LBD stamp array must grow
        // with levels, not variables.
        let mut s = Solver::new();
        let x = s.new_var();
        let z = s.new_var();
        let y = s.new_var();
        s.add_clause(&[Lit::neg(x), Lit::neg(z), Lit::pos(y)]);
        s.add_clause(&[Lit::neg(x), Lit::neg(z), Lit::neg(y)]);
        let a = [
            Lit::pos(x),
            Lit::pos(x),
            Lit::pos(x),
            Lit::pos(x),
            Lit::pos(z),
        ];
        assert_eq!(s.solve_with_assumptions(&a), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn garbage_collection_preserves_verdicts() {
        // Build and retire many guarded scopes so the arena accumulates
        // garbage, then force solves that trigger the level-zero GC; the
        // base formula must keep deciding identically.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        for _ in 0..200 {
            let sel = Lit::pos(s.new_selector());
            let xs: Vec<SatVar> = (0..6).map(|_| s.new_var()).collect();
            for w in xs.windows(2) {
                s.add_guarded_clause(sel, &[Lit::neg(w[0]), Lit::pos(w[1]), Lit::pos(a)]);
            }
            assert_eq!(s.solve_with_assumptions(&[sel]), SatResult::Sat);
            s.retire_selector(sel);
            s.simplify_satisfied();
            s.deaden_vars(&xs);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(
            s.solve_with_assumptions(&[Lit::neg(a), Lit::neg(b)]),
            SatResult::Unsat
        );
    }
}
