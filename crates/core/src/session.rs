//! Incremental, shared-solver verification sessions with parallel
//! target fan-out.
//!
//! [`crate::verify_circuit`]'s queries are highly repetitive: the
//! symbolic state is shared by every target qubit, the two conditions of
//! each target re-use the same cofactored sub-graphs, and the paper's
//! headline experiments sweep *all* borrowable qubits of one circuit.
//! The one-shot pipeline (clone arena → re-encode reachable graph →
//! fresh CDCL solver per query) discards all of that overlap — most
//! painfully the solver's learnt clauses about the circuit structure.
//!
//! A [`VerifySession`] instead owns one growing [`qb_formula::Arena`],
//! one [`IncrementalEncoder`] and one [`Solver`] for its whole lifetime:
//!
//! * cofactor nodes appended per target are hash-consed against the
//!   shared graph, so overlapping structure is interned once;
//! * only newly interned nodes are Tseitin-encoded, straight into the
//!   live solver;
//! * each condition's root disjunction is added as a *guarded* clause
//!   behind a fresh selector literal and solved under assumptions, so
//!   learnt clauses carry over between all 2·k queries;
//! * after a query its selector is retired, physically detaching the
//!   dead root clause from the watch lists.
//!
//! That is the SAT rung, where the session also SAT-sweeps its arena
//! (`crate::sweep`): a base pass per circuit version proves the final
//! formulas equal to simpler representatives. Every rung answers "which
//! other qubits depend on `q`" from a support index built once per
//! circuit version (the `support` module). On the SAT rung it holds the
//! representatives' structural supports, which name candidates: a
//! per-target pass cofactors only those, proves cofactor pairs equal,
//! and drops every disjunct whose two sides merged. On the canonical ANF
//! and BDD rungs (`--backend anf|bdd`, and `auto` until it reaches SAT)
//! the supports are exact, so (6.2) is decided by support membership and
//! no cofactor is built; only the (6.1) root goes through the decision
//! cache.
//!
//! [`verify_circuit_parallel`] shards independent targets across
//! `std::thread::scope` workers (one session per worker, no external
//! dependencies) and reassembles verdicts in request order.

use crate::backend::{anf_witness, AutoPreference, BackendKind, Decision, AUTO_ANF_TERM_CAP};
use crate::conditions::{build_conditions_swept, zero_condition, OutcomeMemo};
use crate::support::{structural_supports, SupportMemo};
use crate::sweep::{Proof, Prover, Sweep, SWEEP_CONFLICT_CAP};
use crate::symbolic::{
    initial_formulas, symbolic_apply, symbolic_execute, InitialValue, SymbolicState,
};
use crate::verifier::{
    model_to_assignment, Counterexample, QubitVerdict, Verdict, VerificationReport, VerifyError,
    VerifyOptions, Violation,
};
use qb_bdd::{BddBuildError, BddSession};
use qb_circuit::{Circuit, Gate};
use qb_formula::{Anf, AnfCache, AnfOverflow, Arena, CnfSink, IncrementalEncoder, NodeId, Var};
use qb_lang::{gate_common_prefix, ElaboratedProgram};
use qb_obs::Histogram;
use qb_sat::{CancelToken, Lit, SatResult, SatVar, Solver};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Encoder checkpoint name guarding the editable suffix of the circuit.
const SUFFIX_CHECKPOINT: &str = "suffix";

/// Retired-selector count that triggers a solver compaction pass. A pass
/// costs one linear rebuild of the clause/variable arrays — noise next
/// to the solving it amortises — so the interval is set low enough that
/// even cache-friendly daemon workloads (where most queries never retire
/// a selector) still reclaim their garbage.
const COMPACT_RETIRED_INTERVAL: usize = 64;

/// Arena node count below which formula-graph collection never runs:
/// small sessions keep their whole history (collection would cost more
/// than the bytes it frees).
const ARENA_GC_MIN_NODES: usize = 1 << 12;

/// Watermark growth factor: after a collection leaves `live` nodes, the
/// next one triggers at `live * ARENA_GC_GROWTH` — classic semispace
/// pacing, bounding resident size to a constant factor of the live graph
/// with amortised-linear total GC work.
const ARENA_GC_GROWTH: usize = 2;

/// Default bound on memoised condition-root decisions. Entries beyond it
/// are evicted least-recently-used; evicted roots stay live only until
/// the next arena collection.
const DECISION_CACHE_CAPACITY: usize = 1 << 13;

/// Adapter letting the incremental encoder emit clauses directly into a
/// live CDCL solver (no intermediate [`qb_formula::Cnf`]). With `guard`
/// set, every emitted clause is activation-guarded so a whole encoding
/// scope can later be detached in one selector retirement. Records the
/// variables it allocates so the session can deaden them after
/// retraction.
struct SolverSink<'a> {
    solver: &'a mut Solver,
    guard: Option<Lit>,
    clauses: usize,
    new_vars: Vec<SatVar>,
}

impl CnfSink for SolverSink<'_> {
    fn fresh_var(&mut self) -> i32 {
        let v = self.solver.new_var();
        self.new_vars.push(v);
        (v.index() + 1) as i32
    }

    fn add_clause(&mut self, lits: &[i32]) {
        let lits: Vec<Lit> = lits.iter().map(|&l| Lit::from_dimacs(l)).collect();
        match self.guard {
            Some(g) => self.solver.add_guarded_clause(g, &lits),
            None => self.solver.add_clause(&lits),
        };
        self.clauses += 1;
    }
}

/// Persistent SAT backend state of a session.
struct SatSession {
    encoder: IncrementalEncoder,
    solver: Solver,
    /// The retractable encoding of the circuit's editable suffix: an
    /// encoder checkpoint named [`SUFFIX_CHECKPOINT`] plus the selector
    /// guarding its clauses. On [`VerifySession::apply_edit`] the whole
    /// scope is rolled back and re-encoded; everything below it (the
    /// permanent prefix structure and the learnt clauses derived from it)
    /// stays warm.
    suffix: SuffixScope,
    /// Compaction passes performed (see [`SessionStats`]).
    compactions: u64,
    /// Cumulative CNF-encoding time (suffix re-encodes and per-query
    /// frontier encoding; see [`SessionStats::encode_time`]).
    encode_time: Duration,
}

/// Solver-side bookkeeping of the suffix scope.
struct SuffixScope {
    selector: Lit,
    vars: Vec<SatVar>,
}

/// The retractable SAT scope of one target: its selector once a query
/// or sweep call opened it, and the variables its encoding allocated.
#[derive(Default)]
struct TargetScope {
    selector: Option<Lit>,
    vars: Vec<SatVar>,
}

impl TargetScope {
    /// The scope's selector, opening the scope on first use.
    fn guard(&mut self, sat: &mut SatSession) -> Lit {
        *self.selector.get_or_insert_with(|| {
            sat.encoder.begin_scope();
            Lit::pos(sat.solver.new_selector())
        })
    }
}

/// Candidate proofs of a sweep pass on the session's own solver, so
/// `solver_propagations`/`solver_conflicts` count all SAT work. A pass
/// encodes into a retractable scope — the target's, or its own for the
/// base pass — which is rolled back like a target's when it closes.
/// Merges are arena facts and outlive the scope.
struct SatProver<'a> {
    sat: &'a mut SatSession,
    scope: &'a mut TargetScope,
    /// Solver calls made.
    calls: u64,
}

impl Prover for SatProver<'_> {
    fn prove(
        &mut self,
        arena: &Arena,
        a: NodeId,
        b: NodeId,
        complement: bool,
    ) -> Result<Proof, VerifyError> {
        let sat = &mut *self.sat;
        let guard = self.scope.guard(sat);
        let mut assumptions = vec![sat.suffix.selector, guard];
        let clock = Instant::now();
        let mut sink = SolverSink {
            solver: &mut sat.solver,
            guard: Some(guard),
            clauses: 0,
            new_vars: Vec::new(),
        };
        let lits = sat.encoder.encode_roots(arena, &[a, b], &mut sink);
        sat.encode_time += clock.elapsed();
        self.scope.vars.extend(sink.new_vars);
        let la = Lit::from_dimacs(lits[0]);
        let lb = Lit::from_dimacs(if complement { -lits[1] } else { lits[1] });
        // `a ≢ b` needs a model of `a ∧ ¬b` or of `¬a ∧ b`.
        let base = assumptions.len();
        for (x, y) in [(la, lb.negate()), (la.negate(), lb)] {
            assumptions.truncate(base);
            assumptions.extend([x, y]);
            self.calls += 1;
            match sat.solver.solve_limited(&assumptions, SWEEP_CONFLICT_CAP) {
                SatResult::Sat => return Ok(Proof::Differ),
                SatResult::Unsat => {}
                SatResult::Interrupted if sat.solver.hit_conflict_cap() => {
                    return Ok(Proof::Capped)
                }
                SatResult::Interrupted => return Err(VerifyError::Interrupted),
            }
        }
        Ok(Proof::Equal)
    }
}

/// A memoised backend decision for one condition-root node.
///
/// The session arena is append-only and hash-consed, so a [`NodeId`]
/// permanently denotes one Boolean function of the circuit inputs —
/// which makes satisfiability verdicts cacheable across targets, repeat
/// sweeps *and edits*: when an edit leaves a condition root's node id
/// unchanged, the old verdict (and witness) provably still holds and the
/// solver is never consulted. This is the cross-edit analogue of
/// dropping structurally independent (6.2) disjuncts at construction.
struct CachedDecision {
    unsat: bool,
    model: Option<HashMap<Var, bool>>,
    /// Logical timestamp of the last hit or insertion (LRU eviction
    /// order; see [`VerifySession::evict_decisions_over_capacity`]).
    last_used: u64,
}

impl SatSession {
    /// Permanently encodes the base graph — the per-qubit final formulas
    /// and the input variables — unguarded: every query of every target
    /// builds on these literals, and learnt clauses about them carry
    /// across the session. Then opens an (initially empty) suffix scope
    /// so the session is editable: the first edit rolls this scope back
    /// and re-encodes the changed tail behind a fresh selector.
    fn new(state: &mut SymbolicState) -> Self {
        let mut encoder = IncrementalEncoder::new();
        let mut solver = Solver::default();
        let mut base_roots = state.formulas.clone();
        for q in 0..state.num_qubits() {
            let var_node = state.arena.var(state.vars[q]);
            base_roots.push(var_node);
        }
        let mut sink = SolverSink {
            solver: &mut solver,
            guard: None,
            clauses: 0,
            new_vars: Vec::new(),
        };
        encoder.encode_roots(&state.arena, &base_roots, &mut sink);
        let selector = Lit::pos(solver.new_selector());
        encoder.begin_named_scope(SUFFIX_CHECKPOINT);
        SatSession {
            encoder,
            solver,
            suffix: SuffixScope {
                selector,
                vars: Vec::new(),
            },
            compactions: 0,
            encode_time: Duration::ZERO,
        }
    }

    /// Opens a fresh suffix scope and encodes `roots` (the current final
    /// formulas) into it, guarded by a new selector.
    fn open_suffix(&mut self, arena: &qb_formula::Arena, roots: &[NodeId]) -> usize {
        let _span = qb_obs::span("encode", "suffix");
        let clock = Instant::now();
        self.encoder.begin_named_scope(SUFFIX_CHECKPOINT);
        let selector = Lit::pos(self.solver.new_selector());
        let mut sink = SolverSink {
            solver: &mut self.solver,
            guard: Some(selector),
            clauses: 0,
            new_vars: Vec::new(),
        };
        self.encoder.encode_roots(arena, roots, &mut sink);
        self.encode_time += clock.elapsed();
        let clauses = sink.clauses;
        self.suffix = SuffixScope {
            selector,
            vars: sink.new_vars,
        };
        clauses
    }

    /// Rolls the suffix scope back: retracts its encoder checkpoint,
    /// retires its selector (physically detaching the guarded clauses and
    /// permanently satisfying every learnt clause derived under it), and
    /// deadens its auxiliary variables.
    fn retract_suffix(&mut self) {
        self.encoder.retract_through(SUFFIX_CHECKPOINT);
        self.solver.retire_selector(self.suffix.selector);
        self.solver.simplify_satisfied();
        self.solver.deaden_vars(&self.suffix.vars);
        self.suffix.vars.clear();
    }

    /// Periodic GC: once enough selectors have been retired, compacts the
    /// solver's clause/variable arenas and remaps the encoder and the
    /// suffix scope's handles through the returned variable map.
    fn maybe_compact(&mut self) {
        if self.solver.retired_since_compaction() < COMPACT_RETIRED_INTERVAL {
            return;
        }
        let mut pinned: Vec<SatVar> = self
            .encoder
            .referenced_dimacs_vars()
            .iter()
            .map(|&v| SatVar::from_index((v - 1) as usize))
            .collect();
        pinned.push(self.suffix.selector.var());
        pinned.extend(self.suffix.vars.iter().copied());
        let map = self.solver.compact(&pinned);
        let indices: Vec<Option<usize>> = map.iter().map(|m| m.map(SatVar::index)).collect();
        self.encoder.remap_vars(&indices);
        let sel = self.suffix.selector;
        let mapped = map[sel.var().index()].expect("pinned variable survives compaction");
        self.suffix.selector = Lit::new(mapped, sel.is_neg());
        for v in &mut self.suffix.vars {
            *v = map[v.index()].expect("pinned variable survives compaction");
        }
        self.compactions += 1;
    }
}

/// Resource and reuse counters of a [`VerifySession`] — what the serving
/// layer reports per loaded program and what the compaction tests assert
/// on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Nodes interned in the shared formula arena.
    pub arena_nodes: usize,
    /// Variables currently allocated in the SAT solver (0 for non-SAT
    /// backends).
    pub solver_vars: usize,
    /// Clause slots (live and deleted) in the solver arena.
    pub clause_slots: usize,
    /// Live (non-deleted) clauses.
    pub live_clauses: usize,
    /// Compaction passes performed over the session's lifetime.
    pub compactions: u64,
    /// Edits applied via [`VerifySession::apply_edit`].
    pub edits: u64,
    /// Distinct condition roots with a memoised decision. The cache is
    /// keyed by [`NodeId`] and shared across backends: a root decided by
    /// the BDD manager is never re-decided by SAT (or by any other rung
    /// of the auto ladder).
    pub cached_decisions: usize,
    /// Queries answered from the decision cache (no backend call).
    pub decision_hits: u64,
    /// Decision-cache entries dropped by LRU eviction.
    pub decision_evictions: u64,
    /// Memoised (6.2) disjunct outcomes of the SAT rung, one per
    /// (candidate root, target variable); 0 on the ANF and BDD rungs.
    pub cofactor_memo_entries: usize,
    /// Candidate outcomes answered without a cofactor pass.
    pub cofactor_hits: u64,
    /// Memoised final-formula supports (the plus condition on the ANF
    /// and BDD rungs).
    pub support_memo_entries: usize,
    /// Final formulas whose support a new circuit version found in the
    /// memo instead of normalising them again.
    pub support_hits: u64,
    /// Formula-arena mark-sweep collections performed.
    pub arena_collections: u64,
    /// Total arena nodes reclaimed across all collections.
    pub arena_nodes_collected: u64,
    /// Cumulative wall time of arena collections and the table remaps
    /// that follow them.
    pub arena_gc_time: Duration,
    /// Arena length at which the next collection triggers.
    pub arena_gc_watermark: usize,
    /// Resident BDD-manager nodes (0 for non-BDD backends).
    pub bdd_resident_nodes: usize,
    /// Memoised arena-node→BDD translations currently held.
    pub bdd_cached_translations: usize,
    /// Arena nodes answered from the BDD translation cache.
    pub bdd_translation_hits: u64,
    /// Arena nodes translated to BDDs (translation-cache misses).
    pub bdd_translation_misses: u64,
    /// BDD-manager mark-sweep collections performed.
    pub bdd_collections: u64,
    /// Total BDD-manager nodes reclaimed across collections.
    pub bdd_nodes_collected: u64,
    /// Auto-ladder demotions from ANF to BDD (an ANF attempt overflowed
    /// [`crate::AUTO_ANF_TERM_CAP`]); at most one per session unless the
    /// rung is re-seeded.
    pub anf_fallbacks: u64,
    /// Auto-ladder queries that blew the BDD node budget and fell back
    /// to SAT.
    pub bdd_fallbacks: u64,
    /// Backend solves interrupted by a cancellation token (deadline,
    /// budget or explicit cancel) under [`crate::VerifyLimits`].
    pub interrupts: u64,
    /// Auto-ladder roots where the BDD or SAT rung was interrupted and
    /// the other of the two was raced with the remaining budget.
    pub deadline_fallbacks: u64,
    /// The auto-ladder rung this circuit sits on.
    pub auto_preference: AutoPreference,
    /// Memoised per-node ANF polynomials currently held.
    pub anf_cached_polys: usize,
    /// ANF conversions answered from the polynomial cache.
    pub anf_hits: u64,
    /// Monomials held by the ANF cache's hash-consed store.
    pub anf_monomials: usize,
    /// Literals propagated by the SAT solver over the session lifetime
    /// (0 for non-SAT backends). Together with [`SessionStats::sat_time`]
    /// this yields the ns/propagation figure the scaling benches gate on,
    /// so solver-core regressions are observable without a profiler.
    pub solver_propagations: u64,
    /// Conflicts analysed by the SAT solver.
    pub solver_conflicts: u64,
    /// Branching decisions taken by the SAT solver.
    pub solver_decisions: u64,
    /// Restarts performed by the SAT solver.
    pub solver_restarts: u64,
    /// Cumulative wall time spent inside the SAT backend.
    pub sat_time: Duration,
    /// Cumulative wall time spent inside the BDD backend (including
    /// budget-exceeded attempts that fell back).
    pub bdd_time: Duration,
    /// Cumulative wall time spent inside the ANF backend.
    pub anf_time: Duration,
    /// Cumulative CNF-encoding time inside the SAT backend (a slice of
    /// [`SessionStats::sat_time`]).
    pub encode_time: Duration,
    /// Cumulative SAT-sweeping time: base and per-target passes and
    /// simulation witness checks (a slice of [`SessionStats::sat_time`]).
    pub sweep_time: Duration,
    /// Arena nodes the SAT sweep proved equal to an earlier class member.
    pub sweep_merges: u64,
    /// Sweep candidate pairs a solver call told apart.
    pub sweep_refuted: u64,
    /// Sweep candidate pairs left unmerged at the per-call conflict cap.
    pub sweep_capped: u64,
    /// Conflict-capped solver calls made by the SAT sweep (counted in
    /// the `solver_*` totals as well).
    pub sweep_sat_calls: u64,
    /// Condition roots shown satisfiable by a simulation pattern, with
    /// no solver call.
    pub sweep_sim_witnesses: u64,
    /// Cumulative condition-construction time of the SAT rung: structural
    /// supports and cofactor passes, without the sweep passes.
    pub cofactor_time: Duration,
    /// Wall-latency histogram over completed [`VerifySession::verify_target`]
    /// calls (nanosecond samples; the daemon folds these into its
    /// per-round p50/p95 report).
    pub target_latency: Histogram,
    /// Wall-latency histogram over condition-root decisions, cache hits
    /// included — the cache-hit spike and the solve tail land in visibly
    /// different buckets.
    pub root_latency: Histogram,
}

/// The value of one session fact ([`SessionStats::facts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fact {
    /// Events counted over the session's lifetime.
    Count(u64),
    /// A resident size at this instant (a gauge).
    Size(u64),
    /// Cumulative wall time, in nanoseconds.
    Nanos(u64),
    /// A latency-histogram percentile, in microseconds.
    Micros(u64),
    /// The auto-ladder rung ([`AutoPreference::name`]), the one
    /// string-valued fact.
    Name(&'static str),
}

impl SessionStats {
    /// Every session fact under its wire name, in field order: the one
    /// table the daemon's `verify`, `load`/`edit` and `status` responses
    /// and one-shot `--stats-json` render. Durations carry `_ns` names;
    /// each latency histogram reports its p50 and p95.
    pub fn facts(&self) -> Vec<(&'static str, Fact)> {
        use Fact::{Count, Micros, Nanos, Size};
        let size = |n: usize| Size(n as u64);
        let ns = |d: Duration| Nanos(d.as_nanos().try_into().unwrap_or(u64::MAX));
        let us = |ns: u64| Micros(ns / 1_000);
        vec![
            ("arena_nodes", size(self.arena_nodes)),
            ("solver_vars", size(self.solver_vars)),
            ("clause_slots", size(self.clause_slots)),
            ("live_clauses", size(self.live_clauses)),
            ("compactions", Count(self.compactions)),
            ("edits", Count(self.edits)),
            ("cached_decisions", size(self.cached_decisions)),
            ("decision_hits", Count(self.decision_hits)),
            ("decision_evictions", Count(self.decision_evictions)),
            ("cofactor_memo_entries", size(self.cofactor_memo_entries)),
            ("cofactor_hits", Count(self.cofactor_hits)),
            ("support_memo_entries", size(self.support_memo_entries)),
            ("support_hits", Count(self.support_hits)),
            ("arena_collections", Count(self.arena_collections)),
            ("arena_nodes_collected", Count(self.arena_nodes_collected)),
            ("arena_gc_ns", ns(self.arena_gc_time)),
            ("arena_gc_watermark", size(self.arena_gc_watermark)),
            ("bdd_resident_nodes", size(self.bdd_resident_nodes)),
            (
                "bdd_cached_translations",
                size(self.bdd_cached_translations),
            ),
            ("bdd_translation_hits", Count(self.bdd_translation_hits)),
            ("bdd_translation_misses", Count(self.bdd_translation_misses)),
            ("bdd_collections", Count(self.bdd_collections)),
            ("bdd_nodes_collected", Count(self.bdd_nodes_collected)),
            ("anf_fallbacks", Count(self.anf_fallbacks)),
            ("bdd_fallbacks", Count(self.bdd_fallbacks)),
            ("interrupts", Count(self.interrupts)),
            ("deadline_fallbacks", Count(self.deadline_fallbacks)),
            ("auto_preference", Fact::Name(self.auto_preference.name())),
            ("anf_cached_polys", size(self.anf_cached_polys)),
            ("anf_hits", Count(self.anf_hits)),
            ("anf_monomials", size(self.anf_monomials)),
            ("solver_propagations", Count(self.solver_propagations)),
            ("solver_conflicts", Count(self.solver_conflicts)),
            ("solver_decisions", Count(self.solver_decisions)),
            ("solver_restarts", Count(self.solver_restarts)),
            ("sat_ns", ns(self.sat_time)),
            ("bdd_ns", ns(self.bdd_time)),
            ("anf_ns", ns(self.anf_time)),
            ("encode_ns", ns(self.encode_time)),
            ("sweep_ns", ns(self.sweep_time)),
            ("sweep_merged", Count(self.sweep_merges)),
            ("sweep_refuted", Count(self.sweep_refuted)),
            ("sweep_capped", Count(self.sweep_capped)),
            ("sweep_sat_calls", Count(self.sweep_sat_calls)),
            ("sweep_sim_witnesses", Count(self.sweep_sim_witnesses)),
            ("cofactor_ns", ns(self.cofactor_time)),
            ("target_p50_us", us(self.target_latency.p50())),
            ("target_p95_us", us(self.target_latency.p95())),
            ("root_p50_us", us(self.root_latency.p50())),
            ("root_p95_us", us(self.root_latency.p95())),
        ]
    }
}

/// Resource limits for one bounded verification sweep
/// ([`VerifySession::verify_targets_limited`]).
///
/// The default is fully unlimited — identical to
/// [`VerifySession::verify_targets`]. The `deadline` spans the *whole*
/// sweep; `conflict_budget`/`propagation_budget` bound each individual
/// solver call. An explicit `token` lets the caller keep a handle for
/// out-of-band cancellation (from another thread); the sweep
/// arms it with the other limits and installs it into every backend.
#[derive(Debug, Clone, Default)]
pub struct VerifyLimits {
    /// Wall-clock budget for the whole sweep.
    pub deadline: Option<Duration>,
    /// Per-solve conflict cap for the SAT backend.
    pub conflict_budget: Option<u64>,
    /// Per-solve propagation cap for the SAT backend.
    pub propagation_budget: Option<u64>,
    /// Externally held cancellation handle (a fresh token is created
    /// when absent).
    pub token: Option<CancelToken>,
}

impl VerifyLimits {
    /// A deadline-only limit.
    pub fn deadline(after: Duration) -> Self {
        VerifyLimits {
            deadline: Some(after),
            ..VerifyLimits::default()
        }
    }

    /// `true` when no limit is set and no external token is installed.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.conflict_budget.is_none()
            && self.propagation_budget.is_none()
            && self.token.is_none()
    }
}

/// What an [`VerifySession::apply_edit`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditStats {
    /// Longest common gate-sequence prefix between old and new circuit.
    pub common_prefix: usize,
    /// Gate count before the edit.
    pub old_gates: usize,
    /// Gate count after the edit.
    pub new_gates: usize,
    /// Gates whose encoding was kept permanently (never re-encoded).
    pub permanent_prefix: usize,
    /// Clauses emitted for the re-encoded suffix (SAT backend).
    pub suffix_clauses: usize,
    /// `false` when the edit was a structural no-op.
    pub changed: bool,
    /// Time spent diffing, replaying and re-encoding.
    pub elapsed: Duration,
}

/// A long-lived verification session over one circuit.
///
/// Created once per circuit (and, for parallel sweeps, once per worker),
/// then queried per target qubit via [`VerifySession::verify_target`].
/// Verdicts are identical to [`crate::verify_circuit_fresh`]; only the
/// work profile differs.
///
/// # Examples
///
/// ```
/// use qb_circuit::Circuit;
/// use qb_core::{InitialValue, VerifyOptions, VerifySession};
///
/// let mut c = Circuit::new(5);
/// c.toffoli(0, 1, 2).toffoli(2, 3, 4).toffoli(0, 1, 2).toffoli(2, 3, 4);
/// let mut session =
///     VerifySession::new(&c, &[InitialValue::Free; 5], &VerifyOptions::default()).unwrap();
/// let verdict = session.verify_target(2).unwrap();
/// assert!(verdict.safe);
/// ```
pub struct VerifySession {
    state: SymbolicState,
    /// The session's current gate sequence (diffed against on edit).
    gates: Vec<Gate>,
    initial: Vec<InitialValue>,
    opts: VerifyOptions,
    construction_time: Duration,
    sat: Option<SatSession>,
    /// Persistent BDD manager + arena-node translation cache
    /// ([`BackendKind::Bdd`] and the [`BackendKind::Auto`] ladder).
    bdd: Option<BddSession>,
    /// Memoised per-node ANF polynomials ([`BackendKind::Anf`], and the
    /// auto ladder until it demotes past ANF).
    anf: Option<AnfCache>,
    /// Number of leading gates whose symbolic structure is encoded
    /// *permanently* (unguarded). Edits shrink this to the common prefix;
    /// everything past it lives in the retractable suffix scope.
    permanent_len: usize,
    /// Memoised decisions keyed by condition-root node id, shared across
    /// every backend (see [`CachedDecision`]). Hash-consing makes node
    /// identity semantic identity, so entries stay valid across sweeps
    /// and edits; arena collections remap the keys (or drop entries
    /// whose roots were reclaimed — such a root can never be queried
    /// under its old id again), and the cache itself is LRU-bounded.
    decisions: HashMap<NodeId, CachedDecision>,
    /// Memoised final-formula supports (the plus condition on the ANF
    /// and BDD rungs; see [`SupportMemo`]).
    supports: SupportMemo,
    /// Memoised structural supports of the sweep representatives (the
    /// (6.2) candidates of the SAT rung). Never shares entries with
    /// `supports`, whose entries are all real dependencies.
    structural: SupportMemo,
    /// Memoised (6.2) candidate outcomes of the SAT rung (see
    /// [`OutcomeMemo`]).
    outcomes: OutcomeMemo,
    /// SAT-sweeping state of the SAT rung (see [`Sweep`]).
    sweep: Sweep,
    decision_hits: u64,
    /// Logical clock stamping decision-cache use (LRU order).
    decision_clock: u64,
    /// Maximum retained decision-cache entries.
    decision_cap: usize,
    decision_evictions: u64,
    /// Arena length that triggers the next mark-sweep collection.
    arena_watermark: usize,
    /// Floor for the watermark (collection never runs below this size).
    arena_watermark_min: usize,
    arena_collections: u64,
    arena_nodes_collected: u64,
    arena_gc_time: Duration,
    edits: u64,
    /// Auto-ladder demotions from ANF (see [`SessionStats`]).
    anf_fallbacks: u64,
    /// Auto-ladder roots whose BDD attempt blew the node budget.
    bdd_fallbacks: u64,
    /// Backend solves interrupted by the installed cancellation token.
    interrupts: u64,
    /// Auto-ladder interrupt races (see [`SessionStats`]).
    deadline_fallbacks: u64,
    /// The token installed for the duration of a bounded sweep
    /// ([`VerifyLimits`]); `None` during unlimited verification.
    cancel: Option<CancelToken>,
    /// The auto-ladder rung (see [`AutoPreference`]).
    auto_pref: AutoPreference,
    /// Cumulative per-backend wall time (see [`SessionStats`]).
    sat_time: Duration,
    bdd_time: Duration,
    anf_time: Duration,
    /// Cumulative condition-construction time (see [`SessionStats`]).
    cofactor_time: Duration,
    /// Latency histograms folded into [`SessionStats`].
    target_hist: Histogram,
    root_hist: Histogram,
}

/// The daemon moves each session into a dedicated actor thread, so the
/// whole backend stack (arena, solver, BDD manager, ANF cache) must be
/// [`Send`]. This assertion makes any future regression — say, an `Rc`
/// slipping into a backend cache — a compile error here rather than a
/// trait-bound error at a distant spawn site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<VerifySession>();
};

impl VerifySession {
    /// Symbolically executes `circuit` once and prepares the shared
    /// backend state.
    ///
    /// # Errors
    ///
    /// See [`VerifyError`].
    pub fn new(
        circuit: &Circuit,
        initial: &[InitialValue],
        opts: &VerifyOptions,
    ) -> Result<Self, VerifyError> {
        let t0 = Instant::now();
        let mut state = symbolic_execute(circuit, initial, opts.simplify)?;
        // The auto ladder builds its SAT state on first use (see
        // `ensure_sat`): a circuit decided on the ANF or BDD rung never
        // pays for the base encoding.
        let sat = (opts.backend == BackendKind::Sat).then(|| SatSession::new(&mut state));
        let bdd = match opts.backend {
            BackendKind::Bdd | BackendKind::Auto => {
                Some(BddSession::new(opts.backend_options.bdd_node_budget))
            }
            _ => None,
        };
        let anf = matches!(opts.backend, BackendKind::Anf | BackendKind::Auto).then(AnfCache::new);
        let construction_time = t0.elapsed();
        let arena_watermark = (state.arena.len() * ARENA_GC_GROWTH).max(ARENA_GC_MIN_NODES);
        Ok(VerifySession {
            state,
            gates: circuit.gates().to_vec(),
            initial: initial.to_vec(),
            opts: *opts,
            construction_time,
            sat,
            bdd,
            anf,
            permanent_len: circuit.size(),
            decisions: HashMap::new(),
            supports: SupportMemo::default(),
            structural: SupportMemo::default(),
            outcomes: OutcomeMemo::default(),
            sweep: Sweep::default(),
            decision_hits: 0,
            decision_clock: 0,
            decision_cap: DECISION_CACHE_CAPACITY,
            decision_evictions: 0,
            arena_watermark,
            arena_watermark_min: ARENA_GC_MIN_NODES,
            arena_collections: 0,
            arena_nodes_collected: 0,
            arena_gc_time: Duration::ZERO,
            edits: 0,
            anf_fallbacks: 0,
            bdd_fallbacks: 0,
            interrupts: 0,
            deadline_fallbacks: 0,
            cancel: None,
            auto_pref: AutoPreference::default(),
            sat_time: Duration::ZERO,
            bdd_time: Duration::ZERO,
            anf_time: Duration::ZERO,
            cofactor_time: Duration::ZERO,
            target_hist: Histogram::new(),
            root_hist: Histogram::new(),
        })
    }

    /// Tightens (or relaxes) the session's memory bounds: collection of
    /// the formula arena never runs below `arena_watermark_min` nodes,
    /// and at most `decision_cache_capacity` condition-root decisions are
    /// memoised (least-recently-used entries are evicted beyond it).
    /// `None` keeps the current value. Memory-bounded daemons, soak tests
    /// and benchmarks use small values to exercise the reclamation
    /// machinery; the defaults suit interactive sessions.
    pub fn set_memory_limits(
        &mut self,
        arena_watermark_min: Option<usize>,
        decision_cache_capacity: Option<usize>,
    ) {
        if let Some(min) = arena_watermark_min {
            self.arena_watermark_min = min.max(2);
        }
        if let Some(cap) = decision_cache_capacity {
            self.decision_cap = cap.max(1);
        }
        // Re-arm at the floor: the next opportunity past it collects and
        // re-paces to twice the live size.
        self.arena_watermark = self.arena_watermark_min;
        self.evict_decisions_over_capacity();
    }

    /// Tightens (or relaxes) the per-backend memoisation bounds: the BDD
    /// manager's GC floor and translation-cache capacity, and the ANF
    /// polynomial-cache capacity. `None` keeps the current value; knobs
    /// for backends the session does not run are ignored.
    pub fn set_backend_limits(
        &mut self,
        bdd_gc_floor: Option<usize>,
        bdd_translation_cap: Option<usize>,
        anf_cache_cap: Option<usize>,
    ) {
        if let Some(bdd) = &mut self.bdd {
            bdd.set_limits(bdd_gc_floor, bdd_translation_cap);
        }
        if let (Some(anf), Some(cap)) = (&mut self.anf, anf_cache_cap) {
            anf.set_capacity(cap);
        }
    }

    /// The auto-ladder rung (meaningful for [`BackendKind::Auto`]
    /// sessions; `Undecided` otherwise).
    pub fn auto_preference(&self) -> AutoPreference {
        self.auto_pref
    }

    /// Seeds the auto-ladder rung, typically from a serving layer that
    /// remembered which backend won this circuit (keyed by structural
    /// hash) in an earlier session. A `Bdd` or `Sat` seed makes the first
    /// sweep skip the losing attempts it would otherwise re-discover;
    /// `Undecided` starts again at ANF. An auto session below the ANF
    /// rung holds no ANF cache.
    pub fn set_auto_preference(&mut self, pref: AutoPreference) {
        self.auto_pref = pref;
        if self.opts.backend == BackendKind::Auto {
            if pref.backend() == BackendKind::Anf {
                self.anf.get_or_insert_with(AnfCache::new);
            } else {
                self.anf = None;
            }
        }
    }

    /// The options the session was created with.
    pub fn options(&self) -> &VerifyOptions {
        &self.opts
    }

    /// Number of qubits of the underlying circuit.
    pub fn num_qubits(&self) -> usize {
        self.state.num_qubits()
    }

    /// Time spent building the symbolic formulas (the construction part
    /// of [`VerificationReport`]).
    pub fn construction_time(&self) -> Duration {
        self.construction_time
    }

    /// Shared node count of the final formulas.
    pub fn formula_nodes(&self) -> usize {
        self.state.formula_size()
    }

    /// The gate sequence the session currently verifies.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Resource and reuse counters (arena/solver sizes, compactions,
    /// edits) — what the serving layer reports per loaded program.
    pub fn stats(&self) -> SessionStats {
        let (solver_vars, clause_slots, live_clauses, compactions) = match &self.sat {
            Some(s) => (
                s.solver.num_vars(),
                s.solver.clause_slots(),
                s.solver.live_clauses(),
                s.compactions,
            ),
            None => (0, 0, 0, 0),
        };
        let solver = self
            .sat
            .as_ref()
            .map(|s| s.solver.stats())
            .unwrap_or_default();
        let bdd = self.bdd.as_ref().map(BddSession::stats).unwrap_or_default();
        let anf = self.anf.as_ref().map(|c| c.stats()).unwrap_or_default();
        SessionStats {
            arena_nodes: self.state.arena.len(),
            solver_vars,
            clause_slots,
            live_clauses,
            compactions,
            edits: self.edits,
            cached_decisions: self.decisions.len(),
            decision_hits: self.decision_hits,
            decision_evictions: self.decision_evictions,
            cofactor_memo_entries: self.outcomes.len(),
            cofactor_hits: self.outcomes.hits(),
            support_memo_entries: self.supports.len(),
            support_hits: self.supports.hits(),
            arena_collections: self.arena_collections,
            arena_nodes_collected: self.arena_nodes_collected,
            arena_gc_time: self.arena_gc_time,
            arena_gc_watermark: self.arena_watermark,
            bdd_resident_nodes: bdd.resident_nodes,
            bdd_cached_translations: bdd.cached_translations,
            bdd_translation_hits: bdd.translation_hits,
            bdd_translation_misses: bdd.translation_misses,
            bdd_collections: bdd.collections,
            bdd_nodes_collected: bdd.nodes_collected,
            anf_fallbacks: self.anf_fallbacks,
            bdd_fallbacks: self.bdd_fallbacks,
            interrupts: self.interrupts,
            deadline_fallbacks: self.deadline_fallbacks,
            anf_cached_polys: anf.cached_polys,
            anf_hits: anf.hits,
            anf_monomials: anf.monomials,
            auto_preference: self.auto_pref,
            solver_propagations: solver.propagations,
            solver_conflicts: solver.conflicts,
            solver_decisions: solver.decisions,
            solver_restarts: solver.restarts,
            sat_time: self.sat_time,
            bdd_time: self.bdd_time,
            anf_time: self.anf_time,
            encode_time: self
                .sat
                .as_ref()
                .map(|s| s.encode_time)
                .unwrap_or(Duration::ZERO),
            sweep_time: self.sweep.time,
            sweep_merges: self.sweep.merged,
            sweep_refuted: self.sweep.refuted,
            sweep_capped: self.sweep.capped,
            sweep_sat_calls: self.sweep.sat_calls,
            sweep_sim_witnesses: self.sweep.sim_witnesses,
            cofactor_time: self.cofactor_time,
            target_latency: self.target_hist,
            root_latency: self.root_hist,
        }
    }

    /// Mark-sweep collection of the formula arena, triggered once the
    /// arena has outgrown its watermark. The live roots are the current
    /// final formulas, every node the encoder holds a literal for (the
    /// permanent encoding, the suffix checkpoint and any open scope), and
    /// the decision-cache keys; everything else — cofactor structure of
    /// retracted targets, pre-edit formula history, evicted cache roots —
    /// is reclaimed. Survivors are renumbered, so the encoder map and the
    /// decision cache are rewritten through the remap table (entries
    /// whose root was collected are dropped, which is sound: identity was
    /// the cache key, and a collected id is never issued for that
    /// structure again). Hash-consing then rebuilds identical renumbered
    /// ids for re-derived structure, so cache hits survive collection.
    fn maybe_collect_arena(&mut self) {
        if self.state.arena.len() < self.arena_watermark
            || self.state.arena.len() < self.arena_watermark_min
        {
            return;
        }
        qb_testutil::failpoints::hit("arena_gc");
        let clock = Instant::now();
        let mut roots: Vec<NodeId> = self.state.formulas.clone();
        if let Some(sat) = &self.sat {
            roots.extend(sat.encoder.encoded_node_ids());
        }
        roots.extend(self.decisions.keys().copied());
        roots.extend(self.sweep.roots());
        // Keep every root's representative, so merges survive.
        self.sweep.extend_live_roots(&mut roots);
        let before = self.state.arena.len();
        let remap = self.state.arena.collect(&roots);
        for f in &mut self.state.formulas {
            *f = remap.remap(*f).expect("final formulas are live roots");
        }
        if let Some(sat) = &mut self.sat {
            sat.encoder.remap_nodes(&remap);
        }
        let decisions = std::mem::take(&mut self.decisions);
        self.decisions = decisions
            .into_iter()
            .filter_map(|(root, d)| remap.remap(root).map(|new| (new, d)))
            .collect();
        // Backend memo tables follow the remap: entries over surviving
        // nodes keep their renumbered keys, entries over collected nodes
        // are dropped (and their BDDs released for the next manager GC).
        if let Some(bdd) = &mut self.bdd {
            bdd.remap_nodes(&remap);
        }
        if let Some(anf) = &mut self.anf {
            anf.remap_nodes(&remap);
        }
        self.supports.remap_nodes(&remap);
        self.structural.remap_nodes(&remap);
        self.outcomes.remap_nodes(&remap);
        self.sweep.remap_nodes(&remap);
        let collected = (before - self.state.arena.len()) as u64;
        self.arena_collections += 1;
        self.arena_nodes_collected += collected;
        // Published as it happens, so the registry agrees with the
        // session counters.
        qb_obs::counter_add("arena_collections", "", 1);
        qb_obs::counter_add("arena_nodes_collected", "", collected);
        self.arena_watermark =
            (self.state.arena.len() * ARENA_GC_GROWTH).max(self.arena_watermark_min);
        self.arena_gc_time += clock.elapsed();
    }

    /// Keeps the decision cache within its LRU bound. Eviction runs in
    /// batches (down to ¾ of capacity) so the O(n log n) stamp sort
    /// amortises to O(log n) per insertion.
    fn evict_decisions_over_capacity(&mut self) {
        self.decision_evictions += qb_formula::lru_evict_batch(
            &mut self.decisions,
            self.decision_cap,
            |d| d.last_used,
            |_, _| {},
        );
    }

    /// Replaces the session's circuit with an edited one, re-using as
    /// much accumulated state as the edit allows.
    ///
    /// The new gate sequence is diffed against the current one; the
    /// common prefix's symbolic structure is replayed into the persistent
    /// arena (hash-consing reproduces identical node ids, so its
    /// permanent encoding — and every learnt clause the solver derived
    /// about it — stays warm). Only the changed suffix is re-encoded,
    /// behind a fresh suffix selector: the previous suffix scope is
    /// rolled back via its encoder checkpoint and its guarded clauses are
    /// physically retired. A pure-suffix edit of a large circuit
    /// therefore costs the solver nothing but the edited tail.
    ///
    /// Verdicts after an edit are identical to a fresh session over the
    /// edited circuit; only the work profile differs.
    ///
    /// # Errors
    ///
    /// [`VerifyError::IncompatibleEdit`] when the qubit count changes
    /// (load a fresh session instead), [`VerifyError::NotClassical`] when
    /// the edited circuit leaves the classical fragment. On error the
    /// session is left unchanged.
    pub fn apply_edit(&mut self, circuit: &Circuit) -> Result<EditStats, VerifyError> {
        let _span = qb_obs::span("edit", "");
        let n = self.state.num_qubits();
        if circuit.num_qubits() != n {
            return Err(VerifyError::IncompatibleEdit {
                old_qubits: n,
                new_qubits: circuit.num_qubits(),
            });
        }
        // Validate up front so a failed edit leaves the session intact.
        for (position, gate) in circuit.gates().iter().enumerate() {
            if !gate.is_classical() {
                return Err(VerifyError::NotClassical(
                    crate::symbolic::NotClassicalCircuit {
                        gate: gate.name(),
                        position,
                    },
                ));
            }
        }
        let t0 = Instant::now();
        let new_gates = circuit.gates();
        let old_len = self.gates.len();
        let common = gate_common_prefix(&self.gates, new_gates);
        if common == old_len && common == new_gates.len() {
            return Ok(EditStats {
                common_prefix: common,
                old_gates: old_len,
                new_gates: common,
                permanent_prefix: self.permanent_len,
                suffix_clauses: 0,
                changed: false,
                elapsed: t0.elapsed(),
            });
        }
        self.edits += 1;
        self.permanent_len = self.permanent_len.min(common);

        // Replay the edited circuit into the persistent arena, capturing
        // the formulas at the permanent-prefix boundary. The prefix
        // replay is allocation-free: every node is already interned.
        let mut formulas = initial_formulas(&mut self.state.arena, &self.initial);
        symbolic_apply(
            &mut self.state.arena,
            &mut formulas,
            &new_gates[..self.permanent_len],
            0,
        )?;
        let prefix_roots = formulas.clone();
        symbolic_apply(
            &mut self.state.arena,
            &mut formulas,
            &new_gates[self.permanent_len..],
            self.permanent_len,
        )?;

        let mut suffix_clauses = 0;
        if let Some(sat) = self.sat.as_mut() {
            sat.retract_suffix();
            // Pin the prefix-boundary formulas into the permanent
            // encoding (usually a no-op — their nodes were interior to a
            // previously encoded graph — but simplification can leave
            // boundary nodes unreachable from old final formulas).
            let mut sink = SolverSink {
                solver: &mut sat.solver,
                guard: None,
                clauses: 0,
                new_vars: Vec::new(),
            };
            sat.encoder
                .encode_roots(&self.state.arena, &prefix_roots, &mut sink);
            suffix_clauses = sat.open_suffix(&self.state.arena, &formulas);
            sat.maybe_compact();
        }
        self.state.formulas = formulas;
        self.gates = new_gates.to_vec();
        // Pre-edit suffix structure (and cofactor cones hanging off it)
        // just became garbage; collect once past the watermark.
        self.maybe_collect_arena();
        Ok(EditStats {
            common_prefix: common,
            old_gates: old_len,
            new_gates: new_gates.len(),
            permanent_prefix: self.permanent_len,
            suffix_clauses,
            changed: true,
            elapsed: t0.elapsed(),
        })
    }

    /// Runs one condition query inside the current target scope: encode
    /// the frontier (clauses guarded by the target selector `guard`),
    /// assert the root disjunction behind a per-query selector, solve
    /// under both assumptions, then retire the query selector.
    fn run_query(
        sat: &mut SatSession,
        arena: &qb_formula::Arena,
        roots: &[NodeId],
        guard: Lit,
        scope_vars: &mut Vec<SatVar>,
    ) -> Result<Decision, VerifyError> {
        let mut sink = SolverSink {
            solver: &mut sat.solver,
            guard: Some(guard),
            clauses: 0,
            new_vars: Vec::new(),
        };
        let enc_span = qb_obs::span("encode", "query");
        let clock = Instant::now();
        let root_lits = sat.encoder.encode_roots(arena, roots, &mut sink);
        sat.encode_time += clock.elapsed();
        drop(enc_span);
        let emitted = sink.clauses;
        scope_vars.extend(sink.new_vars);
        let size = emitted + 1;
        if root_lits.is_empty() {
            return Ok(Decision {
                unsat: true,
                model: None,
                size,
            });
        }
        let selector = Lit::pos(sat.solver.new_selector());
        let clause: Vec<Lit> = root_lits.iter().map(|&l| Lit::from_dimacs(l)).collect();
        let added = sat.solver.add_guarded_clause(selector, &clause);
        let result = if added {
            // Assume the suffix selector too: post-edit final-formula
            // structure is guarded behind it.
            let assumptions = [sat.suffix.selector, guard, selector];
            sat.solver.solve_with_assumptions(&assumptions)
        } else {
            SatResult::Unsat
        };
        let decision = match result {
            SatResult::Unsat => Decision {
                unsat: true,
                model: None,
                size,
            },
            SatResult::Sat => {
                let model = sat.solver.model();
                let assignment = sat
                    .encoder
                    .var_lits()
                    .iter()
                    .map(|(&var, &lit)| {
                        let idx = (lit.unsigned_abs() - 1) as usize;
                        let value = model.get(idx).copied().unwrap_or(false);
                        (var, if lit > 0 { value } else { !value })
                    })
                    .collect();
                Decision {
                    unsat: false,
                    model: Some(assignment),
                    size,
                }
            }
            SatResult::Interrupted => {
                // No verdict: retire the query selector (the scope
                // itself is cleaned up by decide_target) and signal the
                // interruption upward.
                sat.solver.retire_selector(selector);
                return Err(VerifyError::Interrupted);
            }
        };
        sat.solver.retire_selector(selector);
        Ok(decision)
    }

    /// Runs one root query on the shared SAT state, opening the target
    /// scope lazily and timing the solver work. A simulation pattern that
    /// sets the root is its witness, and no solver call is made.
    fn run_sat_root(
        &mut self,
        root: NodeId,
        scope: &mut TargetScope,
    ) -> Result<Decision, VerifyError> {
        let _span = qb_obs::span("backend", "sat");
        let t0 = Instant::now();
        self.ensure_sat();
        let sig = self.sweep.sig(&self.state.arena, root);
        if sig != 0 {
            self.sweep.sim_witnesses += 1;
            qb_obs::counter_add("sweep", "sim_witnesses", 1);
            let model = Sweep::pattern(&self.state.vars, sig.trailing_zeros());
            let elapsed = t0.elapsed();
            self.sweep.time += elapsed;
            self.sat_time += elapsed;
            return Ok(Decision {
                unsat: false,
                model: Some(model),
                size: 0,
            });
        }
        let sat = self.sat.as_mut().expect("SAT backend state");
        let guard = scope.guard(sat);
        let d = Self::run_query(sat, &self.state.arena, &[root], guard, &mut scope.vars);
        self.sat_time += t0.elapsed();
        d
    }

    /// The base pass, once per circuit version: sweeps the final
    /// formulas' cones (restored qubits reduce to their `Var` nodes) and
    /// returns their representatives. A later call on the same formulas
    /// is a lookup.
    fn sweep_base(&mut self) -> Result<Vec<NodeId>, VerifyError> {
        if !self.sweep.covers(&self.state.formulas) {
            let _span = qb_obs::span("sweep", "base");
            let clock = Instant::now();
            self.ensure_sat();
            let mut scope = TargetScope::default();
            let mut prover = SatProver {
                sat: self.sat.as_mut().expect("SAT backend state"),
                scope: &mut scope,
                calls: 0,
            };
            let swept =
                self.sweep
                    .sweep_formulas(&mut self.state.arena, &mut prover, &self.state.formulas);
            self.sweep.sat_calls += prover.calls;
            self.sweep.publish();
            self.sweep.time += clock.elapsed();
            // Closing the pass's scope is SAT cleanup, timed as such.
            self.close_target(scope);
            swept?;
        }
        Ok(self.sweep.roots().to_vec())
    }

    /// Condition construction on the SAT path: the base pass, the
    /// structural supports of its representatives (once per circuit
    /// version), then the cofactors of `q`'s candidates, each pair swept
    /// in this target's scope (one per-target pass).
    fn sat_conditions(
        &mut self,
        q: usize,
        scope: &mut TargetScope,
    ) -> Result<crate::conditions::Conditions, VerifyError> {
        let _span = qb_obs::span("cofactor", "");
        let clock = Instant::now();
        let (swept_before, sat_before) = (self.sweep.time, self.sat_time);
        let built = (|| {
            let roots = self.sweep_base()?;
            let missing = self.structural.missing(&roots);
            if !missing.is_empty() {
                let supports = structural_supports(&self.state.arena, &missing);
                for (f, support) in missing.into_iter().zip(supports) {
                    self.structural.insert(f, support);
                }
            }
            let var = self.state.vars[q];
            let candidates: Vec<usize> = self.structural.dependents(&roots, q, var).collect();
            let _span = qb_obs::span("sweep", "target");
            let mut prover = SatProver {
                sat: self.sat.as_mut().expect("SAT backend state"),
                scope,
                calls: 0,
            };
            let sweep = &mut self.sweep;
            let built = build_conditions_swept(
                &mut self.state,
                &roots,
                q,
                &candidates,
                &mut self.outcomes,
                |arena, node| {
                    let clock = Instant::now();
                    let canon = sweep.canon(arena, &mut prover, node);
                    sweep.time += clock.elapsed();
                    canon
                },
            );
            sweep.sat_calls += prover.calls;
            sweep.publish();
            built
        })();
        // Sweep work is SAT work: it moves from construction time to the
        // SAT backend's (which already holds the base pass's scope
        // cleanup).
        let swept = self.sweep.time - swept_before;
        let cleanup = self.sat_time - sat_before;
        self.sat_time += swept;
        self.cofactor_time += clock.elapsed().saturating_sub(swept + cleanup);
        if matches!(built, Err(VerifyError::Interrupted)) {
            self.interrupts += 1;
        }
        built
    }

    /// Builds the SAT state on first use (auto sessions), counting the
    /// base encoding as encoding time and arming the installed
    /// cancellation token. Encoding the *current* final formulas is sound
    /// after edits too: permanent Tseitin definitions constrain only
    /// their own auxiliary variables.
    fn ensure_sat(&mut self) {
        if self.sat.is_none() {
            let clock = Instant::now();
            let mut sat = SatSession::new(&mut self.state);
            sat.encode_time += clock.elapsed();
            sat.solver.set_cancel_token(self.cancel.clone());
            self.sat = Some(sat);
        }
    }

    /// Decides one root on the persistent BDD manager: translate (warm
    /// via the arena-node cache), then read the answer off the canonical
    /// form — unsat is the false edge, otherwise any path to true is a
    /// witness.
    fn run_bdd_root(&mut self, root: NodeId) -> Result<Decision, BddBuildError> {
        let _span = qb_obs::span("backend", "bdd");
        let t0 = Instant::now();
        let bdd = self.bdd.as_mut().expect("BDD backend state");
        let built = bdd.build(&self.state.arena, &[root]);
        self.bdd_time += t0.elapsed();
        let f = built?[0];
        let bdd = self.bdd.as_ref().expect("BDD backend state");
        let model = bdd
            .manager()
            .any_sat(f)
            .map(|path| path.into_iter().collect::<HashMap<Var, bool>>());
        Ok(Decision {
            unsat: model.is_none(),
            model,
            size: bdd.resident_nodes(),
        })
    }

    /// Decides one root by canonical ANF normalisation under the
    /// session's per-node term cap, memoised per arena node: unsat
    /// exactly when the polynomial is zero, otherwise a minimum-degree
    /// term is the witness.
    fn run_anf_root(&mut self, root: NodeId) -> Result<Decision, AnfOverflow> {
        let _span = qb_obs::span("backend", "anf");
        let t0 = Instant::now();
        let cap = self.anf_cap();
        let cache = self.anf.as_mut().expect("ANF backend state");
        let polys = Anf::from_arena_cached(&self.state.arena, &[root], cap, cache);
        self.anf_time += t0.elapsed();
        let poly = polys?.remove(0);
        let model = anf_witness(cache, &poly);
        Ok(Decision {
            unsat: model.is_none(),
            model,
            size: poly.len(),
        })
    }

    /// Decides one root on the auto ladder (see [`AutoPreference`]): try
    /// the current rung; an overflow demotes the session one rung for
    /// good (dropping the ANF cache once past ANF) and retries the root
    /// there. An interrupt is circumstance, not evidence: it leaves the
    /// rung alone and races the other of BDD and SAT with whatever
    /// budget remains.
    fn run_auto_root(
        &mut self,
        root: NodeId,
        scope: &mut TargetScope,
    ) -> Result<Decision, VerifyError> {
        loop {
            match self.auto_pref.backend() {
                BackendKind::Anf => match self.run_anf_root(root) {
                    Ok(d) => {
                        self.auto_pref = AutoPreference::Anf;
                        return Ok(d);
                    }
                    Err(_) => self.anf_fallbacks += 1,
                },
                BackendKind::Bdd => match self.run_bdd_root(root) {
                    Ok(d) => return Ok(d),
                    Err(BddBuildError::Overflow(_)) => self.bdd_fallbacks += 1,
                    Err(BddBuildError::Interrupted) => {
                        self.interrupts += 1;
                        self.deadline_fallbacks += 1;
                        return self.run_sat_root(root, scope);
                    }
                },
                _ => {
                    return match self.run_sat_root(root, scope) {
                        Err(VerifyError::Interrupted) => {
                            self.interrupts += 1;
                            self.deadline_fallbacks += 1;
                            self.run_bdd_root(root)
                                .map_err(|_| VerifyError::Interrupted)
                        }
                        other => other,
                    }
                }
            }
            self.set_auto_preference(self.auto_pref.demoted());
        }
    }

    /// The backend deciding (6.2) by support — the session's ANF or BDD
    /// rung — or `None` on the SAT rung.
    fn canonical_rung(&self) -> Option<BackendKind> {
        let rung = match self.opts.backend {
            BackendKind::Auto => self.auto_pref.backend(),
            backend => backend,
        };
        (rung != BackendKind::Sat).then_some(rung)
    }

    /// The ANF term cap of the session: the auto ladder's small cap, or
    /// the configured one.
    fn anf_cap(&self) -> usize {
        match self.opts.backend {
            BackendKind::Auto => AUTO_ANF_TERM_CAP,
            _ => self.opts.backend_options.anf_cap,
        }
    }

    /// Decides the plus condition (6.2) of target `q` by support on the
    /// canonical rung (see [`crate::support`]). `None` means the target
    /// takes the SAT path: the session sits on the SAT rung, or the auto
    /// ladder reached it here.
    ///
    /// On the auto ladder an overflow — while normalising the final
    /// formulas or deriving the witness — demotes the session for good
    /// and retries one rung down, as [`VerifySession::run_auto_root`]
    /// does; an interrupted BDD build hands the target to SAT with the
    /// remaining budget.
    fn plus_by_support(&mut self, q: usize) -> Result<Option<Decision>, VerifyError> {
        if self.canonical_rung().is_none() {
            return Ok(None);
        }
        let auto = self.opts.backend == BackendKind::Auto;
        let mut missing = self.supports.missing(&self.state.formulas);
        while let Some(rung) = self.canonical_rung() {
            let t0 = Instant::now();
            let attempt = self.support_attempt(rung, &mut missing, q);
            if rung == BackendKind::Bdd {
                self.bdd_time += t0.elapsed();
            } else {
                self.anf_time += t0.elapsed();
            }
            match attempt {
                Ok(plus) => {
                    if auto && rung == BackendKind::Anf {
                        self.auto_pref = AutoPreference::Anf;
                    }
                    return Ok(Some(plus));
                }
                Err(VerifyError::Interrupted) => {
                    self.interrupts += 1;
                    if !auto {
                        return Err(VerifyError::Interrupted);
                    }
                    self.deadline_fallbacks += 1;
                    return Ok(None);
                }
                Err(VerifyError::Backend(_)) if auto => {
                    if rung == BackendKind::Anf {
                        self.anf_fallbacks += 1;
                    } else {
                        self.bdd_fallbacks += 1;
                    }
                    self.set_auto_preference(self.auto_pref.demoted());
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// One attempt of [`VerifySession::plus_by_support`] on
    /// `rung`: normalise the `missing` final formulas in one batch
    /// (draining them into the memo), then take the first other qubit
    /// whose support holds `q`'s variable and read a witness off its
    /// formula's derivative — `any_sat(b[0/q] ⊕ b[1/q])` on the BDD, the
    /// terms containing `q` with `q` removed on the ANF.
    fn support_attempt(
        &mut self,
        rung: BackendKind,
        missing: &mut Vec<NodeId>,
        q: usize,
    ) -> Result<Decision, VerifyError> {
        let _span = qb_obs::span("backend", rung.name());
        let cap = self.anf_cap();
        let arena = &self.state.arena;
        if !missing.is_empty() {
            let supports = if rung == BackendKind::Bdd {
                let bdd = self.bdd.as_mut().expect("BDD backend state");
                bdd.supports(arena, missing)?
            } else {
                let cache = self.anf.as_mut().expect("ANF backend state");
                let polys = Anf::from_arena_cached(arena, missing, cap, cache)?;
                polys.iter().map(|p| cache.support(p)).collect()
            };
            for (f, support) in missing.drain(..).zip(supports) {
                self.supports.insert(f, support);
            }
        }
        let var = self.state.vars[q];
        let Some(p) = self
            .supports
            .dependents(&self.state.formulas, q, var)
            .next()
        else {
            return Ok(Decision {
                unsat: true,
                model: None,
                size: 0,
            });
        };
        let f = self.state.formulas[p];
        let (model, size) = if rung == BackendKind::Bdd {
            let bdd = self.bdd.as_mut().expect("BDD backend state");
            let path = bdd.dependence_witness(arena, f, var)?;
            let path = path.expect("a canonical support holds only real dependencies");
            (path.into_iter().collect(), bdd.resident_nodes())
        } else {
            let cache = self.anf.as_mut().expect("ANF backend state");
            let poly = Anf::from_arena_cached(arena, &[f], cap, cache)?.remove(0);
            let derivative = cache.derivative(&poly, var);
            let model = anf_witness(cache, &derivative);
            let model = model.expect("a canonical support holds only real dependencies");
            (model, derivative.len())
        };
        Ok(Decision {
            unsat: false,
            model: Some(model),
            size,
        })
    }

    /// Decides one condition root, consulting the shared memoised
    /// decision cache first, then dispatching on the session backend
    /// ([`VerifySession::run_auto_root`] for the auto ladder). A
    /// fully cached target never touches any backend at all.
    fn decide_root(
        &mut self,
        root: NodeId,
        scope: &mut TargetScope,
    ) -> Result<Decision, VerifyError> {
        let _span = qb_obs::span("root", "");
        let clock = Instant::now();
        let decided = self.decide_root_inner(root, scope);
        self.root_hist.record(clock.elapsed().as_nanos() as u64);
        decided
    }

    /// [`VerifySession::decide_root`] without the latency
    /// bookkeeping (split out so every return path is sampled).
    fn decide_root_inner(
        &mut self,
        root: NodeId,
        scope: &mut TargetScope,
    ) -> Result<Decision, VerifyError> {
        self.decision_clock += 1;
        if let Some(hit) = self.decisions.get_mut(&root) {
            hit.last_used = self.decision_clock;
            self.decision_hits += 1;
            qb_obs::counter_add("decision_cache", "hit", 1);
            return Ok(Decision {
                unsat: hit.unsat,
                model: hit.model.clone(),
                size: 0,
            });
        }
        qb_obs::counter_add("decision_cache", "miss", 1);
        let decided = match self.opts.backend {
            BackendKind::Sat => self.run_sat_root(root, scope),
            BackendKind::Bdd => self.run_bdd_root(root).map_err(VerifyError::from),
            BackendKind::Anf => self.run_anf_root(root).map_err(VerifyError::from),
            BackendKind::Auto => self.run_auto_root(root, scope),
        };
        let d = match decided {
            Ok(d) => d,
            Err(e) => {
                if matches!(e, VerifyError::Interrupted) {
                    self.interrupts += 1;
                }
                // Never memoise a non-verdict: the cache must only ever
                // serve completed decisions.
                return Err(e);
            }
        };
        self.decisions.insert(
            root,
            CachedDecision {
                unsat: d.unsat,
                model: d.model.clone(),
                last_used: self.decision_clock,
            },
        );
        self.evict_decisions_over_capacity();
        Ok(d)
    }

    /// Decides both conditions of one target on the warm backend state.
    ///
    /// For the SAT backend (and auto fallbacks), the target's cofactor
    /// structure lives in a retractable scope: its defining clauses are
    /// guarded by a per-target selector and its node→literal assignments
    /// are rolled back afterwards, so later targets never propagate
    /// through (or branch on) this target's dead structure. The *base*
    /// encoding and every learnt clause derived purely from it stay warm
    /// for the whole session. The BDD/ANF backends instead reuse their
    /// per-node memo tables (and pass only the (6.1) root, with no
    /// `plus_roots`: they decide (6.2) by support), and condition roots
    /// whose node ids were decided before — in an earlier sweep or
    /// before an edit that left them untouched — are answered from the
    /// shared decision cache without running any backend.
    fn decide_target(
        &mut self,
        zero_root: NodeId,
        plus_roots: &[NodeId],
        scope: &mut TargetScope,
    ) -> Result<(Decision, Duration, Decision, Duration), VerifyError> {
        let (zero, zero_time, plus, t_plus) =
            self.decide_target_roots(zero_root, plus_roots, scope)?;
        Ok((zero, zero_time, plus, t_plus.elapsed()))
    }

    /// Closes a target: SAT cleanup (only when a query or a sweep call
    /// opened the scope) rolls back the scope's literals, detaches its
    /// clauses (and, via the level-zero sweep, every learnt clause that
    /// mentioned its selector), and deadens its variables. Then the
    /// periodic GCs get a chance to reclaim retired slots and dead
    /// diagrams. This runs even when a root was *interrupted* — a
    /// dangling scope would corrupt every later query of the session.
    fn close_target(&mut self, scope: TargetScope) {
        if let Some(target_selector) = scope.selector {
            let t0 = Instant::now();
            let sat = self.sat.as_mut().expect("SAT backend state");
            sat.encoder.retract_scope();
            sat.solver.retire_selector(target_selector);
            sat.solver.simplify_satisfied();
            sat.solver.deaden_vars(&scope.vars);
            sat.maybe_compact();
            self.sat_time += t0.elapsed();
        }
        if let Some(bdd) = &mut self.bdd {
            bdd.maybe_gc();
        }
    }

    /// The decision half of [`VerifySession::decide_target`]:
    /// decides the zero condition, then the (6.2) disjunction one
    /// disjunct at a time — each refutation then stays inside one
    /// qubit's cofactor cone, instead of one search entangling every
    /// disjunct through a wide root clause. Split out so the caller's
    /// scope cleanup runs on the error path too.
    fn decide_target_roots(
        &mut self,
        zero_root: NodeId,
        plus_roots: &[NodeId],
        scope: &mut TargetScope,
    ) -> Result<(Decision, Duration, Decision, Instant), VerifyError> {
        let t_zero = Instant::now();
        let zero = self.decide_root(zero_root, scope)?;
        let zero_time = t_zero.elapsed();

        let t_plus = Instant::now();
        let mut plus = Decision {
            unsat: true,
            model: None,
            size: 0,
        };
        for &part in plus_roots {
            let d = self.decide_root(part, scope)?;
            plus.size += d.size;
            if !d.unsat {
                plus.unsat = false;
                plus.model = d.model;
                break;
            }
        }
        Ok((zero, zero_time, plus, t_plus))
    }

    /// Verifies safe uncomputation of dirty qubit `q`, re-using all
    /// state accumulated by earlier queries in this session.
    ///
    /// # Errors
    ///
    /// See [`VerifyError`].
    pub fn verify_target(&mut self, q: usize) -> Result<QubitVerdict, VerifyError> {
        let _span = qb_obs::span_with("target", || format!("q{q}"));
        let clock = Instant::now();
        let verdict = self.verify_target_inner(q);
        if verdict.is_ok() {
            self.target_hist.record(clock.elapsed().as_nanos() as u64);
        }
        verdict
    }

    /// [`VerifySession::verify_target`] without the latency
    /// bookkeeping (split out so cancelled short-circuits and interrupted
    /// targets are sampled too — their fast Unknowns are part of the
    /// latency story a bounded sweep serves).
    fn verify_target_inner(&mut self, q: usize) -> Result<QubitVerdict, VerifyError> {
        let n = self.state.num_qubits();
        if q >= n {
            return Err(VerifyError::QubitOutOfRange {
                qubit: q,
                num_qubits: n,
            });
        }
        // A tripped token (deadline long past, or a sweep already
        // cancelled) short-circuits before condition construction: the
        // remaining targets of a bounded sweep return Unknown in
        // microseconds instead of building cofactors they cannot solve.
        if let Some(token) = &self.cancel {
            if qb_testutil::failpoints::should_cancel("spurious_cancel") {
                token.cancel();
            }
            if token.is_cancelled() || token.deadline_expired() {
                return Ok(self.unknown_verdict(q));
            }
        }
        let t_plus = Instant::now();
        let mut scope = TargetScope::default();
        let decided = match self.plus_by_support(q) {
            // Canonical rung: (6.2) is decided; (6.1) stays one root
            // through the decision cache.
            Ok(Some(plus)) => {
                let support_time = t_plus.elapsed();
                let zero_root = zero_condition(&mut self.state, q);
                self.decide_target(zero_root, &[], &mut scope)
                    .map(|(zero, zero_time, _, _)| (zero, zero_time, plus, support_time))
            }
            // SAT rung: the (6.2) construction is charged to the plus
            // time, as the support normalisation is above.
            Ok(None) => self.sat_conditions(q, &mut scope).and_then(|c| {
                let built = t_plus.elapsed();
                self.decide_target(c.zero, &c.plus_parts, &mut scope).map(
                    |(zero, zero_time, plus, plus_time)| (zero, zero_time, plus, built + plus_time),
                )
            }),
            Err(e) => Err(e),
        };
        self.close_target(scope);
        let (zero, zero_time, plus, plus_time) = match decided {
            Ok(decided) => decided,
            Err(VerifyError::Interrupted) => {
                self.maybe_collect_arena();
                return Ok(self.unknown_verdict(q));
            }
            Err(e) => return Err(e),
        };

        let counterexample = if !zero.unsat {
            Some(Counterexample {
                violation: Violation::ZeroNotRestored,
                basis_assignment: model_to_assignment(&zero, n, &self.initial).map(|mut a| {
                    // The (6.1) model has the dirty qubit at 0 by construction.
                    a[q] = false;
                    a
                }),
            })
        } else if !plus.unsat {
            Some(Counterexample {
                violation: Violation::PlusNotRestored,
                basis_assignment: model_to_assignment(&plus, n, &self.initial),
            })
        } else {
            None
        };

        // Per-target cofactor structure is now either retracted (scope
        // rolled back) or memoised; give the arena GC a chance to
        // reclaim the dead portion.
        self.maybe_collect_arena();

        Ok(QubitVerdict {
            qubit: q,
            safe: counterexample.is_none(),
            verdict: if counterexample.is_none() {
                Verdict::Safe
            } else {
                Verdict::Unsafe
            },
            counterexample,
            zero_time,
            plus_time,
            backend_size: zero.size + plus.size,
        })
    }

    /// The [`Verdict::Unknown`] verdict for an interrupted target, with
    /// the reason read off the installed token.
    fn unknown_verdict(&self, q: usize) -> QubitVerdict {
        let reason = match &self.cancel {
            Some(t) if t.deadline_expired() => "deadline",
            Some(t) if t.is_cancelled() => "cancelled",
            Some(_) => "budget",
            None => "interrupted",
        };
        QubitVerdict {
            qubit: q,
            safe: false,
            verdict: Verdict::Unknown {
                reason: reason.to_string(),
            },
            counterexample: None,
            zero_time: Duration::ZERO,
            plus_time: Duration::ZERO,
            backend_size: 0,
        }
    }

    /// Verifies a sequence of targets, returning verdicts in request
    /// order.
    ///
    /// Every rung answers (6.2) from a support index built once per
    /// circuit version. The ANF and BDD rungs normalise each final
    /// formula and decide (6.2) by exact support. The SAT rung indexes
    /// the structural supports of its sweep representatives, and each
    /// target cofactors only the candidates the index names; their
    /// memoised outcomes make a warm sweep lookups only.
    ///
    /// # Errors
    ///
    /// See [`VerifyError`].
    pub fn verify_targets(&mut self, targets: &[usize]) -> Result<Vec<QubitVerdict>, VerifyError> {
        let _span = qb_obs::span_with("sweep", || format!("{} targets", targets.len()));
        // Overload tests arm this with `delay-<ms>` to make any sweep
        // artificially slow without needing a large circuit.
        qb_testutil::failpoints::hit("slow_solve");
        targets.iter().map(|&q| self.verify_target(q)).collect()
    }

    /// [`VerifySession::verify_targets`] under [`VerifyLimits`]:
    /// targets the budget does not reach come back as
    /// [`Verdict::Unknown`] instead of hanging — never a partial or
    /// wrong verdict. Completed verdicts are identical to an unlimited
    /// sweep's, the session stays fully usable afterwards (interrupted
    /// scopes are rolled back, nothing partial is memoised), and
    /// re-running without limits yields the oracle verdict.
    ///
    /// # Errors
    ///
    /// See [`VerifyError`]; an exhausted budget is *not* an error.
    pub fn verify_targets_limited(
        &mut self,
        targets: &[usize],
        limits: &VerifyLimits,
    ) -> Result<Vec<QubitVerdict>, VerifyError> {
        if limits.is_unlimited() {
            return self.verify_targets(targets);
        }
        let token = limits.token.clone().unwrap_or_default();
        if let Some(after) = limits.deadline {
            token.set_deadline_in(after);
        }
        if let Some(conflicts) = limits.conflict_budget {
            token.set_conflict_budget(conflicts);
        }
        if let Some(props) = limits.propagation_budget {
            token.set_propagation_budget(props);
        }
        self.install_cancel_token(Some(token));
        let result = self.verify_targets(targets);
        self.install_cancel_token(None);
        result
    }

    /// Installs `token` into every live backend (and remembers it for
    /// between-target checks), or removes it with `None`.
    fn install_cancel_token(&mut self, token: Option<CancelToken>) {
        if let Some(sat) = &mut self.sat {
            sat.solver.set_cancel_token(token.clone());
        }
        if let Some(bdd) = &mut self.bdd {
            bdd.set_cancel_token(token.clone());
        }
        self.cancel = token;
    }

    /// Runs a full sweep and assembles the standard report.
    ///
    /// # Errors
    ///
    /// See [`VerifyError`].
    pub fn verify_report(&mut self, targets: &[usize]) -> Result<VerificationReport, VerifyError> {
        let verdicts = self.verify_targets(targets)?;
        let solver_time = verdicts.iter().map(|v| v.zero_time + v.plus_time).sum();
        Ok(VerificationReport {
            verdicts,
            construction_time: self.construction_time,
            solver_time,
            formula_nodes: self.formula_nodes(),
            options: self.opts,
            sessions: vec![self.stats()],
        })
    }
}

/// How many worker threads a parallel sweep should use: explicit
/// request, clamped to the target count; `0` means "all available
/// parallelism".
fn effective_jobs(jobs: usize, targets: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let requested = if jobs == 0 { hw } else { jobs };
    requested.clamp(1, targets.max(1))
}

/// Verifies `targets` by sharding them across `jobs` worker threads
/// (`0` = use all available parallelism), one [`VerifySession`] per
/// worker. Verdicts are returned in request order, identical to the
/// sequential [`crate::verify_circuit`]; `construction_time` is the
/// maximum over workers (they run concurrently) and `solver_time` is the
/// CPU total across workers.
///
/// # Errors
///
/// See [`VerifyError`].
pub fn verify_circuit_parallel(
    circuit: &Circuit,
    initial: &[InitialValue],
    targets: &[usize],
    opts: &VerifyOptions,
    jobs: usize,
) -> Result<VerificationReport, VerifyError> {
    for &q in targets {
        if q >= circuit.num_qubits() {
            return Err(VerifyError::QubitOutOfRange {
                qubit: q,
                num_qubits: circuit.num_qubits(),
            });
        }
    }
    let jobs = effective_jobs(jobs, targets.len());
    if jobs <= 1 || targets.len() <= 1 {
        return crate::verifier::verify_circuit(circuit, initial, targets, opts);
    }

    // Round-robin sharding: target i goes to worker i mod jobs, which
    // balances the typically size-sorted sweeps of the experiments.
    let shards: Vec<Vec<(usize, usize)>> = (0..jobs)
        .map(|w| {
            targets
                .iter()
                .enumerate()
                .filter(|(i, _)| i % jobs == w)
                .map(|(i, &q)| (i, q))
                .collect()
        })
        .collect();

    struct WorkerOut {
        construction_time: Duration,
        formula_nodes: usize,
        verdicts: Vec<(usize, QubitVerdict)>,
        stats: SessionStats,
    }

    let results: Vec<Result<WorkerOut, VerifyError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                scope.spawn(move || -> Result<WorkerOut, VerifyError> {
                    let out = (|| {
                        let mut session = VerifySession::new(circuit, initial, opts)?;
                        let mut verdicts = Vec::with_capacity(shard.len());
                        for &(idx, q) in shard {
                            verdicts.push((idx, session.verify_target(q)?));
                        }
                        Ok(WorkerOut {
                            construction_time: session.construction_time(),
                            formula_nodes: session.formula_nodes(),
                            verdicts,
                            stats: session.stats(),
                        })
                    })();
                    // Hand the spans over before the join returns, so a
                    // `take_all_spans` right after the sweep sees them.
                    qb_obs::flush_thread_spans();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verification worker panicked"))
            .collect()
    });

    let mut construction_time = Duration::ZERO;
    let mut solver_time = Duration::ZERO;
    let mut formula_nodes = 0;
    let mut slots: Vec<Option<QubitVerdict>> = vec![None; targets.len()];
    let mut sessions = Vec::with_capacity(jobs);
    for r in results {
        let out = r?;
        sessions.push(out.stats);
        construction_time = construction_time.max(out.construction_time);
        formula_nodes = formula_nodes.max(out.formula_nodes);
        for (idx, v) in out.verdicts {
            solver_time += v.zero_time + v.plus_time;
            slots[idx] = Some(v);
        }
    }
    Ok(VerificationReport {
        verdicts: slots
            .into_iter()
            .map(|s| s.expect("every requested target produced a verdict"))
            .collect(),
        construction_time,
        solver_time,
        formula_nodes,
        options: *opts,
        sessions,
    })
}

/// Parallel counterpart of [`crate::verify_program`]: verifies every
/// `borrow` qubit of an elaborated program across `jobs` workers
/// (`0` = all available parallelism).
///
/// # Errors
///
/// See [`VerifyError`].
pub fn verify_program_parallel(
    program: &ElaboratedProgram,
    opts: &VerifyOptions,
    jobs: usize,
) -> Result<VerificationReport, VerifyError> {
    let targets = program.qubits_to_verify();
    verify_circuit_parallel(
        &program.circuit,
        &crate::initial_values(program),
        &targets,
        opts,
        jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::{verify_circuit, verify_circuit_fresh};
    use qb_formula::Simplify;

    fn assert_reports_agree(c: &Circuit, initial: &[InitialValue], targets: &[usize]) {
        for backend in BackendKind::ALL {
            for simplify in [Simplify::Raw, Simplify::Full] {
                let opts = VerifyOptions {
                    backend,
                    simplify,
                    ..VerifyOptions::default()
                };
                let fresh = verify_circuit_fresh(c, initial, targets, &opts).unwrap();
                let session = verify_circuit(c, initial, targets, &opts).unwrap();
                let parallel = verify_circuit_parallel(c, initial, targets, &opts, 3).unwrap();
                for ((f, s), p) in fresh
                    .verdicts
                    .iter()
                    .zip(&session.verdicts)
                    .zip(&parallel.verdicts)
                {
                    assert_eq!(f.qubit, s.qubit);
                    assert_eq!(f.safe, s.safe, "backend {backend} mode {simplify:?}");
                    assert_eq!(s.qubit, p.qubit);
                    assert_eq!(s.safe, p.safe, "parallel, backend {backend}");
                    assert_eq!(
                        f.counterexample.as_ref().map(|ce| ce.violation),
                        s.counterexample.as_ref().map(|ce| ce.violation),
                    );
                }
            }
        }
    }

    /// The reference CCCNOT circuit used by the bounded-verification
    /// tests: all five qubits dirty, all safe.
    fn cccnot() -> Circuit {
        let mut c = Circuit::new(5);
        c.toffoli(0, 1, 2)
            .toffoli(2, 3, 4)
            .toffoli(0, 1, 2)
            .toffoli(2, 3, 4);
        c
    }

    #[test]
    fn cancelled_sweep_returns_unknown_and_session_recovers() {
        for backend in [BackendKind::Sat, BackendKind::Bdd, BackendKind::Auto] {
            let c = cccnot();
            let opts = VerifyOptions {
                backend,
                ..VerifyOptions::default()
            };
            let mut session = VerifySession::new(&c, &[InitialValue::Free; 5], &opts).unwrap();
            let token = CancelToken::new();
            token.cancel();
            let limits = VerifyLimits {
                token: Some(token.clone()),
                ..VerifyLimits::default()
            };
            let verdicts = session
                .verify_targets_limited(&[0, 1, 2, 3, 4], &limits)
                .unwrap();
            for v in &verdicts {
                assert_eq!(
                    v.verdict,
                    Verdict::Unknown {
                        reason: "cancelled".into()
                    },
                    "backend {backend}"
                );
                assert!(!v.safe);
                assert!(v.counterexample.is_none());
            }
            assert!(session.stats().interrupts <= 10);
            // The session stays fully usable: an unlimited re-run gives
            // the oracle verdicts.
            let fresh = verify_circuit_fresh(&c, &[InitialValue::Free; 5], &[0, 1, 2, 3, 4], &opts)
                .unwrap();
            let rerun = session.verify_targets(&[0, 1, 2, 3, 4]).unwrap();
            for (f, r) in fresh.verdicts.iter().zip(&rerun) {
                assert_eq!(f.safe, r.safe, "backend {backend}");
                assert_eq!(r.verdict.name(), if r.safe { "safe" } else { "unsafe" });
            }
        }
    }

    #[test]
    fn expired_deadline_reports_deadline_reason() {
        let c = cccnot();
        let mut session =
            VerifySession::new(&c, &[InitialValue::Free; 5], &VerifyOptions::default()).unwrap();
        let limits = VerifyLimits::deadline(Duration::ZERO);
        let verdicts = session.verify_targets_limited(&[2, 4], &limits).unwrap();
        for v in &verdicts {
            assert_eq!(
                v.verdict,
                Verdict::Unknown {
                    reason: "deadline".into()
                }
            );
        }
        assert!(session.stats().deadline_fallbacks <= session.stats().interrupts);
    }

    #[test]
    fn generous_limits_change_nothing() {
        // A sweep under limits it never hits is verdict-identical to an
        // unlimited sweep — for every backend, on a mixed-safety circuit.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2); // leaks q0/q1 into q2; q3 untouched
        for backend in BackendKind::ALL {
            let opts = VerifyOptions {
                backend,
                ..VerifyOptions::default()
            };
            let mut session = VerifySession::new(&c, &[InitialValue::Free; 4], &opts).unwrap();
            let limits = VerifyLimits {
                deadline: Some(Duration::from_secs(3600)),
                conflict_budget: Some(u64::MAX / 2),
                propagation_budget: None,
                token: None,
            };
            let bounded = session
                .verify_targets_limited(&[0, 1, 2, 3], &limits)
                .unwrap();
            let fresh =
                verify_circuit_fresh(&c, &[InitialValue::Free; 4], &[0, 1, 2, 3], &opts).unwrap();
            for (b, f) in bounded.iter().zip(&fresh.verdicts) {
                assert_eq!(b.safe, f.safe, "backend {backend}");
                assert!(!b.verdict.is_unknown());
            }
            assert_eq!(session.stats().interrupts, 0, "backend {backend}");
        }
    }

    #[test]
    fn tiny_conflict_budget_yields_unknown_then_oracle_on_rerun() {
        // An 8-bit adder is big enough that its SAT queries cannot
        // finish within one conflict... unless simplification already
        // decided a root. Either way: no wrong verdicts, and the
        // unlimited re-run matches the oracle.
        let program =
            qb_lang::elaborate(&qb_lang::parse(&qb_lang::adder_source(8)).unwrap()).unwrap();
        let initial = crate::initial_values(&program);
        let targets = program.qubits_to_verify();
        let opts = VerifyOptions {
            backend: BackendKind::Sat,
            simplify: Simplify::Raw,
            ..VerifyOptions::default()
        };
        let mut session = VerifySession::new(&program.circuit, &initial, &opts).unwrap();
        let limits = VerifyLimits {
            conflict_budget: Some(1),
            ..VerifyLimits::default()
        };
        let bounded = session.verify_targets_limited(&targets, &limits).unwrap();
        let fresh = verify_circuit_fresh(&program.circuit, &initial, &targets, &opts).unwrap();
        let mut unknowns = 0;
        for (b, f) in bounded.iter().zip(&fresh.verdicts) {
            if b.verdict.is_unknown() {
                unknowns += 1;
            } else {
                // A completed verdict under budget must be the oracle's.
                assert_eq!(b.safe, f.safe);
            }
        }
        assert!(unknowns > 0, "a 1-conflict budget must interrupt something");
        assert!(session.stats().interrupts > 0);
        // The same session, unlimited, reaches every oracle verdict.
        let rerun = session.verify_targets(&targets).unwrap();
        for (r, f) in rerun.iter().zip(&fresh.verdicts) {
            assert_eq!(r.safe, f.safe);
            assert!(!r.verdict.is_unknown());
        }
    }

    #[test]
    fn session_agrees_with_fresh_on_cccnot() {
        let mut c = Circuit::new(5);
        c.toffoli(0, 1, 2)
            .toffoli(2, 3, 4)
            .toffoli(0, 1, 2)
            .toffoli(2, 3, 4);
        assert_reports_agree(&c, &[InitialValue::Free; 5], &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn session_agrees_with_fresh_on_leaky_circuit() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2).cnot(2, 0);
        assert_reports_agree(&c, &[InitialValue::Free; 3], &[0, 1, 2]);
    }

    #[test]
    fn out_of_range_target_is_rejected() {
        let c = Circuit::new(2);
        let mut session =
            VerifySession::new(&c, &[InitialValue::Free; 2], &VerifyOptions::default()).unwrap();
        let err = session.verify_target(9).unwrap_err();
        assert!(matches!(err, VerifyError::QubitOutOfRange { qubit: 9, .. }));
        let err = verify_circuit_parallel(
            &c,
            &[InitialValue::Free; 2],
            &[0, 9],
            &VerifyOptions::default(),
            2,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::QubitOutOfRange { qubit: 9, .. }));
    }

    #[test]
    fn parallel_returns_verdicts_in_request_order() {
        // A circuit where safety differs per qubit, verified in a
        // deliberately shuffled order.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2); // leaks q0/q1 into q2; q3 untouched
        let targets = [3, 0, 2, 1];
        for jobs in [2, 3, 4] {
            let report = verify_circuit_parallel(
                &c,
                &[InitialValue::Free; 4],
                &targets,
                &VerifyOptions::default(),
                jobs,
            )
            .unwrap();
            let order: Vec<usize> = report.verdicts.iter().map(|v| v.qubit).collect();
            assert_eq!(order, targets, "jobs={jobs}");
            assert!(report.verdicts[0].safe, "q3 is untouched");
            assert!(!report.verdicts[1].safe, "q0 leaks");
            assert!(!report.verdicts[2].safe, "q2 is the target");
        }
    }

    /// Oracle for edits: after each `apply_edit`, every verdict must
    /// equal a fresh pipeline run over the edited circuit.
    fn assert_edit_matches_fresh(session: &mut VerifySession, c: &Circuit, opts: &VerifyOptions) {
        let n = c.num_qubits();
        let initial = vec![InitialValue::Free; n];
        let targets: Vec<usize> = (0..n).collect();
        let fresh = verify_circuit_fresh(c, &initial, &targets, opts).unwrap();
        let warm = session.verify_targets(&targets).unwrap();
        for (f, w) in fresh.verdicts.iter().zip(&warm) {
            assert_eq!(f.qubit, w.qubit);
            assert_eq!(f.safe, w.safe, "qubit {} after edit", f.qubit);
            assert_eq!(
                f.counterexample.as_ref().map(|ce| ce.violation),
                w.counterexample.as_ref().map(|ce| ce.violation),
            );
        }
    }

    #[test]
    fn suffix_edit_flips_verdicts_and_back() {
        // The CCCNOT gadget: safe as written; dropping the final
        // uncompute Toffoli leaks the dirty qubit; restoring it heals.
        let mut good = Circuit::new(5);
        good.toffoli(0, 1, 2)
            .toffoli(2, 3, 4)
            .toffoli(0, 1, 2)
            .toffoli(2, 3, 4);
        let mut broken = Circuit::new(5);
        broken.toffoli(0, 1, 2).toffoli(2, 3, 4).toffoli(0, 1, 2);

        for backend in BackendKind::ALL {
            for simplify in [Simplify::Raw, Simplify::Full] {
                let opts = VerifyOptions {
                    backend,
                    simplify,
                    ..VerifyOptions::default()
                };
                let mut session =
                    VerifySession::new(&good, &[InitialValue::Free; 5], &opts).unwrap();
                assert_edit_matches_fresh(&mut session, &good, &opts);

                let stats = session.apply_edit(&broken).unwrap();
                assert!(stats.changed);
                assert_eq!(stats.common_prefix, 3);
                assert_eq!((stats.old_gates, stats.new_gates), (4, 3));
                assert_edit_matches_fresh(&mut session, &broken, &opts);

                let stats = session.apply_edit(&good).unwrap();
                assert!(stats.changed);
                assert_eq!(stats.common_prefix, 3);
                assert_edit_matches_fresh(&mut session, &good, &opts);
                assert_eq!(session.stats().edits, 2);
            }
        }
    }

    #[test]
    fn identity_edit_is_a_structural_noop() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2).toffoli(0, 1, 2);
        let mut session =
            VerifySession::new(&c, &[InitialValue::Free; 3], &VerifyOptions::default()).unwrap();
        let stats = session.apply_edit(&c).unwrap();
        assert!(!stats.changed);
        assert_eq!(stats.suffix_clauses, 0);
        assert_eq!(session.stats().edits, 0);
        assert_edit_matches_fresh(&mut session, &c, &VerifyOptions::default());
    }

    #[test]
    fn prefix_edit_falls_back_to_narrower_permanent_prefix() {
        // Edit the *first* gate: the common prefix is empty, so the
        // permanent watermark drops to zero but verdicts stay exact.
        let mut a = Circuit::new(4);
        a.toffoli(0, 1, 3).cnot(1, 2).toffoli(0, 1, 3).cnot(1, 2);
        let mut b = Circuit::new(4);
        b.cnot(0, 3).cnot(1, 2).cnot(0, 3).cnot(1, 2);
        let opts = VerifyOptions::default();
        let mut session = VerifySession::new(&a, &[InitialValue::Free; 4], &opts).unwrap();
        assert_edit_matches_fresh(&mut session, &a, &opts);
        let stats = session.apply_edit(&b).unwrap();
        assert_eq!(stats.common_prefix, 0);
        assert_eq!(stats.permanent_prefix, 0);
        assert_edit_matches_fresh(&mut session, &b, &opts);
        // Edit back up: the permanent prefix can only shrink, never grow.
        let stats = session.apply_edit(&a).unwrap();
        assert_eq!(stats.permanent_prefix, 0);
        assert_edit_matches_fresh(&mut session, &a, &opts);
    }

    #[test]
    fn incompatible_and_nonclassical_edits_are_rejected_without_damage() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2).toffoli(0, 1, 2);
        let opts = VerifyOptions::default();
        let mut session = VerifySession::new(&c, &[InitialValue::Free; 3], &opts).unwrap();

        let wider = Circuit::new(4);
        let err = session.apply_edit(&wider).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::IncompatibleEdit {
                old_qubits: 3,
                new_qubits: 4
            }
        ));

        let mut quantum = Circuit::new(3);
        quantum.toffoli(0, 1, 2).h(0);
        let err = session.apply_edit(&quantum).unwrap_err();
        assert!(matches!(err, VerifyError::NotClassical(_)));

        // The failed edits left the session fully functional.
        assert_edit_matches_fresh(&mut session, &c, &opts);
    }

    #[test]
    fn long_edit_sessions_compact_and_stay_exact() {
        // Randomised compile–verify loop: enough suffix edits and sweeps
        // to trip the periodic compaction, cross-checked against fresh
        // runs throughout. Uses a fixed base so edits share a prefix.
        use qb_testutil::Rng;
        let mut rng = Rng::new(0x5EED_ED17);
        const N: usize = 4;
        let opts = VerifyOptions::default();
        let base = {
            let mut c = Circuit::new(N);
            c.toffoli(0, 1, 2).cnot(2, 3);
            c
        };
        let mut session = VerifySession::new(&base, &[InitialValue::Free; N], &opts).unwrap();
        let mut peak_slots = 0usize;
        // The SAT sweep decides many roots without a query (and so
        // without retiring a selector): the loop runs long enough to
        // retire the compaction interval's worth anyway.
        for _ in 0..64 {
            let mut edited = Circuit::new(N);
            edited.toffoli(0, 1, 2).cnot(2, 3);
            for _ in 0..rng.gen_below(4) {
                match rng.gen_below(3) {
                    0 => {
                        edited.x(rng.gen_below(N));
                    }
                    1 => {
                        let (c, t) = rng.gen_distinct2(N);
                        edited.cnot(c, t);
                    }
                    _ => {
                        let (c1, c2, t) = rng.gen_distinct3(N);
                        edited.toffoli(c1, c2, t);
                    }
                }
            }
            session.apply_edit(&edited).unwrap();
            assert_edit_matches_fresh(&mut session, &edited, &opts);
            peak_slots = peak_slots.max(session.stats().clause_slots);
        }
        let stats = session.stats();
        assert!(
            stats.compactions >= 1,
            "compaction must trigger over a long session: {stats:?}"
        );
        // The flat-arena solver also reclaims deleted slots continuously
        // (level-zero garbage collection between solves), so the peak may
        // already be tight; compaction must never leave slots above it.
        assert!(
            stats.clause_slots <= peak_slots,
            "clause slots stay bounded: peak {peak_slots}, now {}",
            stats.clause_slots
        );
    }

    #[test]
    fn negation_only_edit_keeps_decision_cache_warm_in_raw_mode() {
        // Appending an X on a shared qubit only negates its formula; Raw
        // mode's XOR parity normalisation must keep every cofactor-diff
        // node id stable so the whole re-sweep answers from the decision
        // cache without touching the solver.
        let mut base = Circuit::new(4);
        base.toffoli(0, 1, 2);
        let opts = VerifyOptions {
            backend: BackendKind::Sat,
            simplify: Simplify::Raw,
            ..VerifyOptions::default()
        };
        let mut session = VerifySession::new(&base, &[InitialValue::Free; 4], &opts).unwrap();
        session.verify_target(0).unwrap();
        let before = session.stats();
        assert!(before.cached_decisions >= 2, "zero + q2-diff memoised");

        let mut edited = base.clone();
        edited.x(2);
        session.apply_edit(&edited).unwrap();
        let verdict = session.verify_target(0).unwrap();
        assert!(!verdict.safe, "q0 still leaks into q2 after the X");
        let after = session.stats();
        assert_eq!(
            after.cached_decisions, before.cached_decisions,
            "no new condition roots: cofactor-diff ids survived the negation"
        );
        assert_eq!(
            after.decision_hits - before.decision_hits,
            2,
            "zero condition and the q2 diff both hit the cache"
        );
        assert_edit_matches_fresh(&mut session, &edited, &opts);
    }

    #[test]
    fn decision_cache_hits_survive_arena_collection() {
        // Each Toffoli pair cancels. Nested like this, the SAT sweep
        // merges the inner pair, rebuilds the outer one over the merged
        // node and merges that too, so the rebuilt node is dead structure
        // for the collection below to reclaim.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 3)
            .toffoli(0, 1, 3)
            .toffoli(1, 2, 3)
            .toffoli(1, 2, 3);
        let opts = VerifyOptions::default();
        let mut session = VerifySession::new(&c, &[InitialValue::Free; 4], &opts).unwrap();
        session.verify_targets(&[0, 1, 2, 3]).unwrap();
        let cached = session.stats().cached_decisions;
        let hits_before = session.stats().decision_hits;
        assert!(cached > 0);

        // Re-arm the watermark at a tiny floor: the next target sweep
        // collects, remapping every cache key through the node remap.
        session.set_memory_limits(Some(2), Some(1024));
        let second = session.verify_targets(&[0, 1, 2, 3]).unwrap();
        let stats = session.stats();
        assert!(
            stats.arena_collections >= 1,
            "tight watermark forces a collection: {stats:?}"
        );
        assert!(stats.arena_nodes_collected > 0);
        assert_eq!(
            stats.cached_decisions, cached,
            "cache keys are remapped, not dropped"
        );
        assert!(
            stats.decision_hits > hits_before,
            "renumbered roots still hit: {stats:?}"
        );
        let fresh =
            verify_circuit_fresh(&c, &[InitialValue::Free; 4], &[0, 1, 2, 3], &opts).unwrap();
        for (s, f) in second.iter().zip(&fresh.verdicts) {
            assert_eq!(s.safe, f.safe, "post-collection verdict, qubit {}", s.qubit);
        }
    }

    #[test]
    fn long_sessions_bound_arena_and_decision_cache() {
        // Randomised edit churn under tight memory limits: the arena
        // must stay bounded (collections fire and reclaim), the decision
        // cache must respect its LRU cap, and every verdict must stay
        // identical to the fresh pipeline.
        use qb_testutil::Rng;
        let mut rng = Rng::new(0x6C_0113C7);
        const N: usize = 4;
        let opts = VerifyOptions::default();
        let base = {
            let mut c = Circuit::new(N);
            c.toffoli(0, 1, 2).cnot(2, 3);
            c
        };
        let mut session = VerifySession::new(&base, &[InitialValue::Free; N], &opts).unwrap();
        session.set_memory_limits(Some(64), Some(8));
        let mut peak_nodes = 0usize;
        for _ in 0..40 {
            let mut edited = Circuit::new(N);
            edited.toffoli(0, 1, 2).cnot(2, 3);
            for _ in 0..rng.gen_below(4) {
                match rng.gen_below(3) {
                    0 => {
                        edited.x(rng.gen_below(N));
                    }
                    1 => {
                        let (c, t) = rng.gen_distinct2(N);
                        edited.cnot(c, t);
                    }
                    _ => {
                        let (c1, c2, t) = rng.gen_distinct3(N);
                        edited.toffoli(c1, c2, t);
                    }
                }
            }
            session.apply_edit(&edited).unwrap();
            assert_edit_matches_fresh(&mut session, &edited, &opts);
            let stats = session.stats();
            peak_nodes = peak_nodes.max(stats.arena_nodes);
            assert!(stats.cached_decisions <= 8, "LRU cap respected: {stats:?}");
        }
        let stats = session.stats();
        assert!(
            stats.arena_collections >= 1,
            "collections fire over a long session: {stats:?}"
        );
        assert!(stats.arena_nodes_collected > 0);
        assert!(
            stats.decision_evictions > 0,
            "cap 8 forces evictions: {stats:?}"
        );
        assert!(
            peak_nodes < 600,
            "arena bounded by watermark pacing, peak {peak_nodes}"
        );
    }

    #[test]
    fn bdd_session_reuses_translations_and_decisions_across_sweeps() {
        let mut c = Circuit::new(5);
        c.toffoli(0, 1, 2)
            .toffoli(2, 3, 4)
            .toffoli(0, 1, 2)
            .toffoli(2, 3, 4);
        let opts = VerifyOptions {
            backend: BackendKind::Bdd,
            ..VerifyOptions::default()
        };
        let mut session = VerifySession::new(&c, &[InitialValue::Free; 5], &opts).unwrap();
        let first = session.verify_targets(&[0, 1, 2, 3, 4]).unwrap();
        let cold = session.stats();
        assert!(cold.bdd_resident_nodes > 0, "{cold:?}");
        assert!(cold.bdd_cached_translations > 0);
        assert_eq!(cold.solver_vars, 0, "no SAT state for a pure BDD session");

        // The second sweep re-derives identical condition-root node ids,
        // so every verdict comes from the shared decision cache and no
        // new translation happens.
        let second = session.verify_targets(&[0, 1, 2, 3, 4]).unwrap();
        let warm = session.stats();
        assert!(warm.decision_hits > cold.decision_hits, "{warm:?}");
        assert_eq!(
            warm.cached_decisions, cold.cached_decisions,
            "no new condition roots on a repeat sweep"
        );
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.safe, b.safe);
        }
        assert!(warm.bdd_time > Duration::ZERO);
        assert_eq!(warm.sat_time, Duration::ZERO);
    }

    #[test]
    fn auto_portfolio_falls_back_to_sat_under_a_tiny_bdd_budget() {
        // A leaky circuit (unsafe verdicts need witnesses) under a BDD
        // budget too small for any diagram: every root falls back to
        // SAT, verdicts and witnesses still match the fresh pipeline.
        // The session is seeded on the BDD rung: ANF would decide this
        // small circuit before BDD is ever tried.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2).cnot(2, 3);
        let opts = VerifyOptions {
            backend: BackendKind::Auto,
            backend_options: crate::BackendOptions {
                bdd_node_budget: 3,
                ..crate::BackendOptions::default()
            },
            ..VerifyOptions::default()
        };
        let mut session = VerifySession::new(&c, &[InitialValue::Free; 4], &opts).unwrap();
        session.set_auto_preference(AutoPreference::Bdd);
        let verdicts = session.verify_targets(&[0, 1, 2, 3]).unwrap();
        let stats = session.stats();
        assert!(stats.bdd_fallbacks > 0, "{stats:?}");
        assert!(stats.sat_time > Duration::ZERO);
        let fresh = verify_circuit_fresh(
            &c,
            &[InitialValue::Free; 4],
            &[0, 1, 2, 3],
            &VerifyOptions::default(),
        )
        .unwrap();
        for (w, f) in verdicts.iter().zip(&fresh.verdicts) {
            assert_eq!(w.safe, f.safe, "qubit {}", w.qubit);
        }

        // With a generous budget the same circuit never falls back.
        let opts = VerifyOptions {
            backend: BackendKind::Auto,
            ..VerifyOptions::default()
        };
        let mut session = VerifySession::new(&c, &[InitialValue::Free; 4], &opts).unwrap();
        session.verify_targets(&[0, 1, 2, 3]).unwrap();
        let stats = session.stats();
        assert_eq!(stats.bdd_fallbacks, 0, "{stats:?}");
        assert_eq!(stats.sat_time, Duration::ZERO);
    }

    #[test]
    fn auto_builds_its_sat_state_only_when_the_ladder_reaches_sat() {
        // Edits on the ANF rung leave no SAT state behind. Once seeded on
        // the SAT rung, the first query encodes the *current* circuit and
        // later edits re-encode suffixes on top of it; verdicts match the
        // fresh pipeline throughout.
        use qb_testutil::Rng;
        let mut rng = Rng::new(0xA070_05A7);
        const N: usize = 4;
        let opts = VerifyOptions {
            backend: BackendKind::Auto,
            ..VerifyOptions::default()
        };
        let mut base = Circuit::new(N);
        base.toffoli(0, 1, 2).cnot(2, 3);
        let mut session = VerifySession::new(&base, &[InitialValue::Free; N], &opts).unwrap();
        for cycle in 0..30 {
            if cycle == 10 {
                let stats = session.stats();
                assert_eq!(stats.auto_preference, AutoPreference::Anf, "{stats:?}");
                assert_eq!(stats.solver_vars, 0, "no SAT state yet: {stats:?}");
                session.set_auto_preference(AutoPreference::Sat);
                assert_eq!(session.stats().anf_cached_polys, 0, "ANF cache dropped");
            }
            let mut edited = base.clone();
            for _ in 0..rng.gen_below(4) {
                match rng.gen_below(3) {
                    0 => {
                        edited.x(rng.gen_below(N));
                    }
                    1 => {
                        let (c, t) = rng.gen_distinct2(N);
                        edited.cnot(c, t);
                    }
                    _ => {
                        let (c1, c2, t) = rng.gen_distinct3(N);
                        edited.toffoli(c1, c2, t);
                    }
                }
            }
            session.apply_edit(&edited).unwrap();
            assert_edit_matches_fresh(&mut session, &edited, &opts);
        }
        let stats = session.stats();
        assert_eq!(stats.auto_preference, AutoPreference::Sat, "{stats:?}");
        assert!(stats.solver_vars > 0, "{stats:?}");
    }

    #[test]
    fn bdd_manager_stays_bounded_across_edits_and_arena_collections() {
        use qb_testutil::Rng;
        let mut rng = Rng::new(0xBDD_0001);
        const N: usize = 4;
        let opts = VerifyOptions {
            backend: BackendKind::Bdd,
            ..VerifyOptions::default()
        };
        let base = {
            let mut c = Circuit::new(N);
            c.toffoli(0, 1, 2).cnot(2, 3);
            c
        };
        let mut session = VerifySession::new(&base, &[InitialValue::Free; N], &opts).unwrap();
        session.set_memory_limits(Some(64), Some(8));
        session.set_backend_limits(Some(32), Some(64), None);
        let mut peak_resident = 0usize;
        for _ in 0..40 {
            let mut edited = Circuit::new(N);
            edited.toffoli(0, 1, 2).cnot(2, 3);
            for _ in 0..rng.gen_below(4) {
                match rng.gen_below(3) {
                    0 => {
                        edited.x(rng.gen_below(N));
                    }
                    1 => {
                        let (c, t) = rng.gen_distinct2(N);
                        edited.cnot(c, t);
                    }
                    _ => {
                        let (c1, c2, t) = rng.gen_distinct3(N);
                        edited.toffoli(c1, c2, t);
                    }
                }
            }
            session.apply_edit(&edited).unwrap();
            assert_edit_matches_fresh(&mut session, &edited, &opts);
            let stats = session.stats();
            peak_resident = peak_resident.max(stats.bdd_resident_nodes);
            assert!(
                stats.bdd_resident_nodes < 600,
                "BDD manager bounded: {stats:?}"
            );
        }
        let stats = session.stats();
        assert!(
            stats.bdd_collections >= 1,
            "manager GC fires over a long session: {stats:?}"
        );
        assert!(stats.bdd_nodes_collected > 0);
        assert!(
            stats.arena_collections >= 1,
            "arena GC also fires (and the translation cache follows): {stats:?}"
        );
    }

    #[test]
    fn session_reuse_across_many_targets_is_consistent() {
        // One session, every qubit of a toffoli chain, twice over: the
        // second pass re-uses cofactor nodes interned by the first.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 3)
            .toffoli(1, 2, 3)
            .toffoli(0, 1, 3)
            .toffoli(1, 2, 3);
        let opts = VerifyOptions::default();
        let mut session = VerifySession::new(&c, &[InitialValue::Free; 4], &opts).unwrap();
        let first = session.verify_targets(&[0, 1, 2, 3]).unwrap();
        let second = session.verify_targets(&[0, 1, 2, 3]).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.safe, b.safe);
            assert_eq!(
                a.counterexample.as_ref().map(|ce| ce.violation),
                b.counterexample.as_ref().map(|ce| ce.violation)
            );
        }
        let fresh =
            verify_circuit_fresh(&c, &[InitialValue::Free; 4], &[0, 1, 2, 3], &opts).unwrap();
        for (a, f) in first.iter().zip(&fresh.verdicts) {
            assert_eq!(a.safe, f.safe);
        }
    }
}
