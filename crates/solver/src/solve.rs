//! The high-level constraint solver: caching, slicing, incremental
//! contexts, statistics.
//!
//! A [`Solver`] answers a query from the first of three stages that can:
//!
//! 1. the **verdict ladder** ([`crate::tiers`]) — exact-match caches,
//!    model reuse and the counterexample caches;
//! 2. **incremental contexts** — for prefix-shaped queries
//!    ([`Solver::check_assuming`]), a [`SolverContext`] from the
//!    **fork-aware context tree** keeps the path-condition prefix
//!    bit-blasted and decides the branch conjunct under assumptions.
//!    Contexts live at the trie node addressed by their asserted prefix;
//!    longest-shared-prefix lookup is a structural walk, a divergence
//!    forks the warm parent context for both children instead of
//!    re-blasting the shared prefix per child, and eviction is
//!    subtree-LRU over *leaves* only, so a live ancestor that resident
//!    descendants still extend is never evicted from under them;
//! 3. **re-blast** — the paper's KLEE + STP scheme: partition into
//!    independent slices, build a fresh CNF and CDCL solver per slice.
//!
//! Every tier can be ablated through [`SolverConfig`].

use crate::bitblast::BitBlaster;
use crate::context::{minimize_model, SolverContext};
use crate::model::Model;
use crate::sat::{SatSolver, SolveOutcome};
use crate::tiers::VerdictLadder;
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};
use symmerge_expr::{ExprId, ExprPool, SymbolId};

/// Result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a model for the referenced inputs.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Resource budget exhausted (treated as "maybe" by clients).
    Unknown,
}

impl SatResult {
    /// Whether the result is [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether the result is [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }
}

/// Configuration for [`Solver`].
///
/// [`SolverConfig::default`] is a constant: every tier on, at the
/// measured defaults. It never reads the environment. The `symmerge`
/// facade's `config` module maps the `SYMMERGE_*` variables onto these
/// fields for the command-line and benchmark binaries, and the
/// workspace's `tests/ablation.rs` walks the ablation configurations
/// (each tier off, and all of them off at once) in process, asserting
/// every one result-invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Enable the query result cache (exact match on the constraint set).
    pub use_cache: bool,
    /// Try recently produced models on new queries before invoking SAT
    /// (the cheap half of KLEE's counterexample cache).
    pub use_model_reuse: bool,
    /// Partition the constraint set into independent slices by shared
    /// input symbols and decide each slice separately (re-blast path
    /// only; incremental contexts are monolithic by construction).
    pub use_independence: bool,
    /// Enable the subset/superset counterexample cache: stored unsat
    /// cores answer superset queries, stored sat sets answer subset
    /// queries.
    pub use_cex_cache: bool,
    /// Prefilter counterexample-cache subset scans with per-set 64-bit
    /// membership signatures (the OR of each element's hash mapped to
    /// one of 64 bits). `a ⊆ b` requires `sig(a) & !sig(b) == 0`, so one
    /// AND/compare rejects most stored sets before the O(n·m) linear
    /// merge runs — the scan over up to [`SolverConfig::cex_capacity`]
    /// stored sets was a per-query cost charged even when the cache
    /// never hit. `false` restores the unfiltered scans (an ablation
    /// row; results are identical, only the scan cost moves).
    pub cex_prefilter: bool,
    /// Query-size gate for the model-reuse and counterexample tiers on
    /// **warm context-served** queries: a prefix-shaped query whose
    /// normalized set has at most this many conjuncts, and whose
    /// prefix a resident context covers up to at most one uncovered
    /// conjunct, skips the model re-evaluation and cex subset scans —
    /// for those queries a context hit (one incremental solve under
    /// assumptions on an already-blasted prefix) is cheaper than the
    /// tiers that were supposed to short-circuit it. The coverage
    /// condition matters: the context's cost scales with the tail it
    /// still has to blast — tail ≤ 1 is the steady-state branch query,
    /// while a longer tail (a migrated state on a sharded worker whose
    /// context holds only the trunk) pays a real blast-and-solve,
    /// which the tiers *do* profitably shield (gating all context
    /// routes at `wc`@6 jobs = 2 doubled the wall). The exact-match
    /// cache (tier 1) stays on for every query, and re-blast-path
    /// queries are never gated (there a tier hit still saves a full
    /// CNF build). `0` disables the gate (an ablation row). Both
    /// measurements: EXPERIMENTS.md, "The cache-tier pipeline,
    /// re-priced"; see [`SolverConfig::default`].
    pub tier_gate: usize,
    /// Answer prefix-shaped queries ([`Solver::check_assuming`]) on
    /// persistent incremental [`SolverContext`]s instead of re-blasting.
    pub use_incremental: bool,
    /// Fork a warm context at branch divergences (clone the clause
    /// database, learnt clauses and heuristic state) so both children
    /// extend the shared prefix, instead of one child inheriting the
    /// context and its sibling re-blasting the prefix from scratch.
    /// `false` restores the move-only (re-blast fallback) behaviour.
    pub ctx_fork: bool,
    /// Recursive conflict-clause minimization (MiniSat-style ccmin) in
    /// the CDCL solver's first-UIP analysis: drop learnt literals whose
    /// reason antecedents are dominated by the clause. Shrinks learnt
    /// clauses — observable as `learnt_lits` — without changing any
    /// verdict. `false` is an ablation row.
    pub sat_ccmin: bool,
    /// Ite-aware blasting for merge-produced ite-chains: factor the
    /// shared selector conditions into a one-hot arm vector encoded once
    /// per chain instead of per output bit, and hash-cons gates at the
    /// CNF level (`gates_reused`) so sibling chains share circuitry.
    /// Pure CNF-size lever; verdicts and canonical models are
    /// unchanged. `false` is an ablation row.
    pub ite_factor: bool,
    /// Return the *canonical minimal model* for every sat query (the
    /// lexicographically least model by symbol **name**, each value
    /// minimized MSB first). Makes models — and therefore generated
    /// tests — identical across solver paths, runs, and the per-worker
    /// expression pools of a sharded parallel run (name order, unlike
    /// [`symmerge_expr::SymbolId`] order, does not depend on interning
    /// history), at the cost of extra incremental probes per sat answer.
    /// Disables model reuse and sat-superset donation, which would
    /// return non-minimal models.
    pub canonical_models: bool,
    /// Conflict budget *per query* (shared across independence slices and
    /// canonicalization probes); `None` means unbounded.
    pub max_conflicts: Option<u64>,
    /// Budget multipliers for the `Unknown`-retry ladder. When a query
    /// exhausts [`SolverConfig::max_conflicts`], it is retried once per
    /// rung with the base budget scaled by that rung's multiplier
    /// ([`ladder_budget`] — saturating, capped), and a warm-context
    /// query that is still `Unknown` after the last rung falls back to
    /// one fresh re-blast (escaping a degenerate incremental context,
    /// the warm-DB pathology). Retry fuel is *conflicts*, never
    /// wall-clock, so retries are deterministic. Empty disables the
    /// ladder (an ablation row; `[4, 16]` is the default). Unbounded-budget solvers never return
    /// budget `Unknown`s, so the ladder is inert for them.
    pub retry_ladder: Vec<u64>,
    /// How many recent models to retain for model reuse.
    pub model_history: usize,
    /// The context-count *floor* of the fork-aware tree's residency
    /// policy (evicted subtree-LRU, leaves first — a live ancestor of a
    /// resident context is never evicted); `0` disables the incremental
    /// path even if `use_incremental` is set.
    ///
    /// Under clause-weighted eviction ([`SolverConfig::
    /// ctx_evict_by_clauses`]) the effective count capacity *adapts*:
    /// it is `max(max_contexts, frontier hint)` (the engine reports its
    /// live worklist size through [`Solver::set_frontier_hint`]), so a
    /// deep exploration whose divergence frontier outgrows the floor no
    /// longer churns forks through a fixed-size pool — residency is
    /// then bounded by [`SolverConfig::max_context_clauses`], the
    /// measure that actually tracks memory. With clause weighting off
    /// this is the fixed capacity, exactly the pre-PR-5 policy.
    pub max_contexts: usize,
    /// Charge context residency by **live SAT clauses** (CNF + learnt)
    /// instead of context count, and let the count capacity track the
    /// engine's frontier (see [`SolverConfig::max_contexts`]). Contexts
    /// differ in size by orders of magnitude — a root context is a few
    /// clauses, a deep loop prefix tens of thousands — so counting them
    /// equally either wastes the budget on tiny contexts or blows the
    /// memory bound on huge ones. `false` restores count-based
    /// eviction (an ablation row).
    pub ctx_evict_by_clauses: bool,
    /// Total live-clause budget for resident contexts under
    /// clause-weighted eviction.
    /// Eviction frees least-recently-used leaves until the tree is back
    /// under budget; the budget may transiently overshoot by one
    /// context's growth between queries.
    pub max_context_clauses: u64,
    /// How many unsat cores / sat sets the counterexample cache retains
    /// (each, FIFO-evicted).
    pub cex_capacity: usize,
    /// Frozen for `mergebench`, and ignored: it switched the fleet's
    /// cross-worker verdict store, which is gone. The standalone
    /// `mergebench` package writes every field of this struct, so the
    /// field stays until that package's next change.
    pub shared_cache: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            use_cache: true,
            use_model_reuse: true,
            use_independence: true,
            use_cex_cache: true,
            cex_prefilter: true,
            // Swept on `wc`@6 Random (EXPERIMENTS.md, "The cache-tier
            // pipeline, re-priced"): query sizes concentrate at 20–36
            // conjuncts and a context hit beats the skipped tiers across
            // the whole range, so the default sits above them; larger
            // values were indistinguishable (the tiers only win on
            // re-blast queries, which are never gated).
            tier_gate: 64,
            use_incremental: true,
            ctx_fork: true,
            sat_ccmin: true,
            ite_factor: true,
            canonical_models: false,
            max_conflicts: None,
            retry_ladder: vec![4, 16],
            model_history: 32,
            // 4 → 16 in PR 3 (measured rebuild thrash under interleaving
            // strategies); 16 → 64 with the fork-aware tree: forked
            // divergence contexts are only worth keeping if they survive
            // until the sibling returns, and EXPERIMENTS.md ("the
            // fork-aware solver-context tree") measured eviction churn
            // at 16 costing ~25% wall on `wc`@Random (fork-on@16 220 ms
            // vs fork-on@64 166 ms at stdin 4, equal results). Since
            // clause-weighted eviction, 64 is only the *floor*: the
            // effective capacity tracks the engine's frontier hint and
            // residency is bounded by `max_context_clauses`.
            max_contexts: 64,
            ctx_evict_by_clauses: true,
            // Measured on `wc`@Random stdin 6 (EXPERIMENTS.md, "Heapified
            // scheduling + clause-weighted residency"): the live frontier's
            // contexts fit in ~1M clauses (~tens of MB), which ends the
            // forks≈evictions churn of a fixed 64-slot capacity while
            // keeping residency bounded on deeper runs.
            max_context_clauses: 1_000_000,
            cex_capacity: 256,
            shared_cache: true,
        }
    }
}

/// Hard ceiling on any retry rung's conflict budget — the ladder
/// escalates, it never becomes effectively unbounded.
pub const RETRY_BUDGET_CAP: u64 = 1 << 30;

/// The conflict budget of one retry rung: the base budget scaled by the
/// rung's multiplier, saturating, capped at [`RETRY_BUDGET_CAP`].
pub fn ladder_budget(base: u64, multiplier: u64) -> u64 {
    base.saturating_mul(multiplier).min(RETRY_BUDGET_CAP)
}

/// Counters describing the queries a [`Solver`] answered.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Total `check` calls.
    pub queries: u64,
    /// Queries answered sat.
    pub sat: u64,
    /// Queries answered unsat.
    pub unsat: u64,
    /// Queries answered unknown (budget exhausted).
    pub unknown: u64,
    /// Queries answered from the exact-match cache.
    pub cache_hits: u64,
    /// Queries answered by re-evaluating a recent model.
    pub model_reuse_hits: u64,
    /// Queries proved unsat by a stored unsat core (subset of the query).
    pub cex_unsat_hits: u64,
    /// Queries answered by a stored sat superset's model.
    pub cex_sat_hits: u64,
    /// Queries decided on a reused incremental context (exact prefix
    /// match or warm ancestor).
    pub ctx_hits: u64,
    /// Incremental contexts (re)built from scratch — the prefix
    /// re-blasts the fork-aware tree exists to eliminate.
    pub ctx_rebuilds: u64,
    /// Contexts forked from a warm ancestor at a divergence (the cheap
    /// alternative to a rebuild).
    pub ctx_forks: u64,
    /// Contexts evicted from the tree (subtree-LRU, leaves only).
    pub ctx_evictions: u64,
    /// Live clauses currently resident across the context tree (a gauge:
    /// the last observed total, not a cumulative count; the parallel
    /// reduction sums it into a fleet-wide residency figure).
    pub ctx_clauses_resident: u64,
    /// Cumulative live clauses freed by context eviction — the
    /// clause-weighted counterpart of `ctx_evictions`, and the real cost
    /// signal: evicting one giant context and one empty root both count
    /// one eviction, but differ by orders of magnitude here.
    pub ctx_clauses_evicted: u64,
    /// Queries that reached the SAT solver.
    pub sat_calls: u64,
    /// Cumulative time spent inside `check`.
    pub time: Duration,
    /// Cumulative time spent inside the SAT solver proper.
    pub sat_time: Duration,
    /// Cumulative time spent in the verdict ladder: the lookups a query
    /// pays before routing to a solving path, plus feeding the fresh
    /// result back into the stores. Disjoint from `sat_time` and
    /// `route_time` and contained (with them) in `time`.
    pub cache_time: Duration,
    /// Cumulative time spent routing a query to its solving path and
    /// preparing that path: per-query set hashing, context-tree lookup /
    /// fork / rebuild — including bit-blasting prefix conjuncts into a
    /// context — and the re-blast path's CNF construction. Disjoint
    /// from `sat_time` and `cache_time` and contained (with them) in
    /// `time`, so `time >= sat_time + cache_time + route_time` always
    /// holds; the (small) remainder is counter upkeep.
    pub route_time: Duration,
    /// Cumulative SAT conflicts.
    pub conflicts: u64,
    /// Cumulative SAT decisions.
    pub decisions: u64,
    /// Cumulative SAT propagations.
    pub propagations: u64,
    /// Cumulative clauses learnt by the SAT solver.
    pub learnt: u64,
    /// Total literals across stored learnt clauses, counted after
    /// conflict-clause minimization — `learnt_lits / learnt` is the mean
    /// learnt-clause width, the observable ccmin shrinks.
    pub learnt_lits: u64,
    /// CNF gates answered from the blaster's structural memo instead of
    /// freshly encoded — the ite-factoring / gate-sharing observable.
    pub gates_reused: u64,
    /// Clauses removed or strengthened by fork-time clause-DB
    /// compaction (level-0 satisfied-clause sweep over the whole DB +
    /// learnt-store self-subsumption on `SolverContext::fork`).
    pub ctx_clauses_compacted: u64,
    /// Frozen for `mergebench`, and always 0, like `shared_cex_hits`
    /// and `shared_sync_time`: the three counters of the fleet's
    /// cross-worker verdict store, which is gone. The standalone
    /// `mergebench` package reads them, so they stay until that
    /// package's next change.
    pub shared_query_hits: u64,
    /// Always 0 (see `shared_query_hits`).
    pub shared_cex_hits: u64,
    /// Always 0 (see `shared_query_hits`).
    pub shared_sync_time: Duration,
    /// Retry-ladder re-dispatches: one per rung actually run after a
    /// query came back `Unknown` (including the injection-free recovery
    /// rung a forced `Unknown` always gets).
    pub retry_attempts: u64,
    /// Warm-context queries that exhausted every ladder rung and fell
    /// back to a fresh re-blast (the escape hatch from a degenerate
    /// incremental context).
    pub retry_reblasts: u64,
    /// Queries whose initial answer was `Unknown` but whose retry
    /// ladder (or re-blast fallback) produced a definite verdict — work
    /// that used to be silently dropped.
    pub retry_recovered: u64,
    /// `Unknown`s injected by the fault harness
    /// ([`Solver::set_forced_unknowns`]) rather than earned by budget
    /// exhaustion. Each is followed by at least one injection-free
    /// retry at the base budget, so forcing never changes results.
    pub forced_unknowns: u64,
}

impl SolverStats {
    /// Accumulates another stats block into this one (counters summed,
    /// durations added). Used by the parallel engine's deterministic
    /// reduction, where each worker owns a solver and the run report
    /// presents the fleet's total work.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.queries += other.queries;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.unknown += other.unknown;
        self.cache_hits += other.cache_hits;
        self.model_reuse_hits += other.model_reuse_hits;
        self.cex_unsat_hits += other.cex_unsat_hits;
        self.cex_sat_hits += other.cex_sat_hits;
        self.ctx_hits += other.ctx_hits;
        self.ctx_rebuilds += other.ctx_rebuilds;
        self.ctx_forks += other.ctx_forks;
        self.ctx_evictions += other.ctx_evictions;
        self.ctx_clauses_resident += other.ctx_clauses_resident;
        self.ctx_clauses_evicted += other.ctx_clauses_evicted;
        self.sat_calls += other.sat_calls;
        self.time += other.time;
        self.sat_time += other.sat_time;
        self.cache_time += other.cache_time;
        self.route_time += other.route_time;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.learnt += other.learnt;
        self.learnt_lits += other.learnt_lits;
        self.gates_reused += other.gates_reused;
        self.ctx_clauses_compacted += other.ctx_clauses_compacted;
        self.retry_attempts += other.retry_attempts;
        self.retry_reblasts += other.retry_reblasts;
        self.retry_recovered += other.retry_recovered;
        self.forced_unknowns += other.forced_unknowns;
    }
}

/// The fork-aware prefix tree of incremental [`SolverContext`]s.
///
/// One trie edge per path-condition conjunct; a materialized context
/// lives at the node addressed by its asserted prefix, so
/// longest-shared-prefix lookup falls out of the walk structurally (the
/// flat pool this replaces scanned every context per query and could
/// hold at most one warm copy of a shared prefix). `live` counts the
/// resident contexts per subtree, which makes "never evict a live
/// ancestor of a resident context" expressible: eviction only considers
/// nodes with `live == 1` — leaves of the resident-context tree — and
/// `leaves` keeps exactly those, ordered least recently used first.
#[derive(Debug)]
struct ContextTree {
    nodes: Vec<CtxNode>,
    /// Recycled node slots (pruned branches).
    free: Vec<usize>,
    /// Total resident contexts.
    resident: usize,
    /// Total live clauses charged across resident contexts (the sum of
    /// the per-node `charged` snapshots; refreshed after in-place
    /// context growth by [`ContextTree::refresh_charge`]).
    resident_clauses: u64,
    /// The eviction candidates: `(last_used stamp, node)` of every
    /// resident context that is a *leaf* of the resident-context tree
    /// (`live == 1`), updated on every place, take and touch. Stamps are
    /// unique per touch, so the first entry is the least recently used
    /// leaf.
    leaves: BTreeSet<(u64, usize)>,
}

#[derive(Debug, Default)]
struct CtxNode {
    parent: Option<usize>,
    /// Children keyed by the pc conjunct on the edge, in creation order.
    children: Vec<(ExprId, usize)>,
    ctx: Option<SolverContext>,
    /// Resident contexts in this node's subtree (including this node's).
    live: u32,
    /// Live clauses this node's context was last charged for.
    charged: u64,
}

impl ContextTree {
    fn new() -> ContextTree {
        ContextTree {
            nodes: vec![CtxNode::default()],
            free: Vec::new(),
            resident: 0,
            resident_clauses: 0,
            leaves: BTreeSet::new(),
        }
    }

    fn ctx(&self, node: usize) -> &SolverContext {
        self.nodes[node].ctx.as_ref().expect("node holds a context")
    }

    fn ctx_mut(&mut self, node: usize) -> &mut SolverContext {
        self.nodes[node].ctx.as_mut().expect("node holds a context")
    }

    /// Walks `prefix` from the root; returns the deepest node holding a
    /// context together with how many conjuncts it matched.
    fn lookup(&self, prefix: &[ExprId]) -> (Option<usize>, usize) {
        let mut node = 0;
        let mut best = if self.nodes[0].ctx.is_some() { Some(0) } else { None };
        let mut best_len = 0;
        for (i, &c) in prefix.iter().enumerate() {
            let Some(&(_, child)) = self.nodes[node].children.iter().find(|&&(e, _)| e == c) else {
                break;
            };
            node = child;
            if self.nodes[node].ctx.is_some() {
                best = Some(node);
                best_len = i + 1;
            }
        }
        (best, best_len)
    }

    /// Materializes the node addressed by `prefix`, creating edges as
    /// needed, and returns its index.
    fn ensure_path(&mut self, prefix: &[ExprId]) -> usize {
        let mut node = 0;
        for &c in prefix {
            node = match self.nodes[node].children.iter().find(|&&(e, _)| e == c) {
                Some(&(_, child)) => child,
                None => {
                    let idx = self.alloc();
                    self.nodes[idx].parent = Some(node);
                    self.nodes[node].children.push((c, idx));
                    idx
                }
            };
        }
        node
    }

    fn alloc(&mut self) -> usize {
        match self.free.pop() {
            Some(i) => i,
            None => {
                self.nodes.push(CtxNode::default());
                self.nodes.len() - 1
            }
        }
    }

    /// The eviction-candidate entry of `node`'s context.
    fn leaf_key(&self, node: usize) -> (u64, usize) {
        (self.ctx(node).last_used, node)
    }

    /// Installs `ctx` at `node` and bumps the `live` counts up the spine
    /// (an ancestor context whose subtree gains its first resident
    /// descendant stops being a leaf).
    fn place(&mut self, node: usize, ctx: SolverContext) {
        debug_assert!(self.nodes[node].ctx.is_none(), "double placement");
        let charged = ctx.clause_count() as u64;
        self.nodes[node].ctx = Some(ctx);
        self.nodes[node].charged = charged;
        self.resident += 1;
        self.resident_clauses += charged;
        let mut n = Some(node);
        while let Some(i) = n {
            self.nodes[i].live += 1;
            if i != node && self.nodes[i].live == 2 && self.nodes[i].ctx.is_some() {
                self.leaves.remove(&self.leaf_key(i));
            }
            n = self.nodes[i].parent;
        }
        if self.nodes[node].live == 1 {
            self.leaves.insert(self.leaf_key(node));
        }
    }

    /// Removes and returns the context at `node` (the node itself stays,
    /// as routing, until pruned). Ancestors whose last resident
    /// descendant left become leaves.
    fn take(&mut self, node: usize) -> SolverContext {
        if self.nodes[node].live == 1 {
            self.leaves.remove(&self.leaf_key(node));
        }
        let ctx = self.nodes[node].ctx.take().expect("take on empty node");
        self.resident -= 1;
        self.resident_clauses -= self.nodes[node].charged;
        self.nodes[node].charged = 0;
        let mut n = Some(node);
        while let Some(i) = n {
            self.nodes[i].live -= 1;
            if i != node && self.nodes[i].live == 1 && self.nodes[i].ctx.is_some() {
                self.leaves.insert(self.leaf_key(i));
            }
            n = self.nodes[i].parent;
        }
        ctx
    }

    /// Stamps the context at `node` as just used, moving its candidate
    /// entry if it is a leaf.
    fn touch(&mut self, node: usize, clock: u64) {
        if self.nodes[node].live == 1 {
            self.leaves.remove(&self.leaf_key(node));
            self.leaves.insert((clock, node));
        }
        self.ctx_mut(node).last_used = clock;
    }

    /// Re-snapshots the clause charge of a resident context after it may
    /// have grown in place (solving learns clauses, blasting an extra
    /// adds circuitry).
    fn refresh_charge(&mut self, node: usize) {
        let now = self.ctx(node).clause_count() as u64;
        let prev = std::mem::replace(&mut self.nodes[node].charged, now);
        self.resident_clauses = self.resident_clauses - prev + now;
    }

    /// Frees empty, childless nodes from `node` upward (never the root).
    fn prune_up(&mut self, mut node: usize) {
        while node != 0 {
            let n = &self.nodes[node];
            if n.ctx.is_some() || !n.children.is_empty() {
                break;
            }
            let parent = n.parent.expect("non-root node has a parent");
            self.nodes[parent].children.retain(|&(_, c)| c != node);
            self.nodes[node] = CtxNode::default();
            self.free.push(node);
            node = parent;
        }
    }

    /// Whether eviction could free a slot without touching `keep`.
    fn has_evictable(&self, keep: usize) -> bool {
        let keep_is_leaf = self.nodes[keep].ctx.is_some() && self.nodes[keep].live == 1;
        self.leaves.len() > usize::from(keep_is_leaf)
    }

    /// Evicts the least-recently-used context that has no resident
    /// descendant (skipping `keep`). Returns the live clauses the victim
    /// freed, or `None` when no victim exists — ancestors of resident
    /// contexts are never candidates, so a warm divergence point
    /// siblings still extend survives arbitrarily much leaf churn below
    /// and beside it.
    fn evict_leaf(&mut self, keep: Option<usize>) -> Option<u64> {
        let victim = self.leaves.iter().map(|&(_, n)| n).find(|&n| Some(n) != keep)?;
        let freed = self.nodes[victim].charged;
        let _ = self.take(victim);
        self.prune_up(victim);
        Some(freed)
    }
}

/// The incremental-path routing data [`Solver::check_set`] threads from
/// [`Solver::check_assuming`] down to the context tree: the raw
/// `(prefix, extra)` split (`may_extend` is false for probe queries,
/// which must not leave sibling evidence on the context) plus the
/// already-performed tree lookup, so the walk happens once per query —
/// the cache tiers in between never mutate the tree, which is what keeps
/// the pre-walked result valid.
struct CtxRoute<'a> {
    prefix: &'a [ExprId],
    extra: ExprId,
    may_extend: bool,
    /// `(deepest resident node, conjuncts matched)` as returned by
    /// [`ContextTree::lookup`] for `prefix`.
    prefound: (Option<usize>, usize),
}

/// A caching, slicing, incrementally solving bitvector solver.
///
/// See the [crate-level docs](crate) for the architecture. Plain
/// [`Solver::check`] queries follow the paper's KLEE + STP scheme (every
/// query re-blasts its constraints); [`Solver::check_assuming`] queries
/// additionally reuse pooled [`SolverContext`]s so that sequences of
/// branch-feasibility checks along one path share a single growing CNF.
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    /// The query tiers in front of the solving paths (see
    /// [`crate::tiers`]).
    verdicts: VerdictLadder,
    tree: ContextTree,
    ctx_clock: u64,
    last_affinity: u64,
    /// The engine's last-reported live worklist size; under
    /// clause-weighted eviction the context-count capacity tracks it
    /// (see [`SolverConfig::max_contexts`]).
    frontier_hint: usize,
    /// Per-conjunct input-symbol sets. Sound to memoize because a
    /// solver serves one (append-only) pool, and profitable because
    /// prefix-shaped queries repeat conjuncts across thousands of
    /// queries.
    input_syms: HashMap<ExprId, Box<[SymbolId]>>,
    /// Active retry-rung budget, overriding
    /// [`SolverConfig::max_conflicts`] while a ladder re-dispatch runs
    /// (see [`Solver::effective_budget`]).
    budget_override: Option<Option<u64>>,
    /// Deterministic forced-`Unknown` stream, when the fault harness
    /// installed one ([`Solver::set_forced_unknowns`]).
    forced: Option<ForcedUnknowns>,
    stats: SolverStats,
}

/// The fault harness's forced-`Unknown` stream: a splitmix64 sequence
/// drawn once per query reaching the solving dispatch; a draw below
/// `num/den` forces that query's first answer to `Unknown`.
#[derive(Debug)]
struct ForcedUnknowns {
    num: u64,
    den: u64,
    state: u64,
}

impl Solver {
    /// Creates a solver with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Solver {
            verdicts: VerdictLadder::new(&config),
            config,
            tree: ContextTree::new(),
            ctx_clock: 0,
            last_affinity: 0,
            frontier_hint: 0,
            input_syms: HashMap::new(),
            budget_override: None,
            forced: None,
            stats: SolverStats::default(),
        }
    }

    /// Installs a deterministic forced-`Unknown` stream: roughly
    /// `num/den` of the queries reaching the solving dispatch have their
    /// first answer forced to `Unknown`, selected by a splitmix64
    /// sequence seeded with `seed`. Every forced `Unknown` is followed
    /// by at least one injection-free retry at the base budget — before
    /// any ladder rung — so installing a stream never changes verdicts
    /// or models, only exercises the retry path. `num = 0` uninstalls.
    pub fn set_forced_unknowns(&mut self, num: u64, den: u64, seed: u64) {
        self.forced = (num > 0 && den > 0).then_some(ForcedUnknowns { num, den, state: seed });
    }

    /// Draws the next forced-`Unknown` decision (false without a stream).
    fn forced_unknown_hit(&mut self) -> bool {
        let Some(f) = self.forced.as_mut() else { return false };
        let z = splitmix64(f.state);
        f.state = f.state.wrapping_add(SPLITMIX_GAMMA);
        z % f.den < f.num
    }

    /// The conflict budget the current dispatch runs under: the active
    /// retry rung's override when one is set, the configured base
    /// budget otherwise.
    fn effective_budget(&self) -> Option<u64> {
        self.budget_override.unwrap_or(self.config.max_conflicts)
    }

    /// Reports the caller's live exploration-frontier size. Under
    /// clause-weighted eviction the context tree's count capacity tracks
    /// this hint (never dropping below [`SolverConfig::max_contexts`]),
    /// so residency follows the frontier instead of churning forked
    /// contexts through a fixed-size pool; the clause budget
    /// ([`SolverConfig::max_context_clauses`]) remains the memory bound.
    /// Cheap (a field store) — callers may invoke it every step.
    pub fn set_frontier_hint(&mut self, live_states: usize) {
        self.frontier_hint = live_states;
    }

    /// The effective context-count capacity (see
    /// [`SolverConfig::max_contexts`]): under clause-weighted eviction
    /// it tracks **twice** the frontier hint — the tree usefully holds
    /// up to one leaf context per live state *plus* the divergence
    /// ancestors their pending siblings will come back for, and the
    /// clause budget (not the count) is the real memory bound.
    fn ctx_capacity(&self) -> usize {
        if self.config.ctx_evict_by_clauses {
            self.config.max_contexts.max(self.frontier_hint.saturating_mul(2))
        } else {
            self.config.max_contexts
        }
    }

    /// Whether the tree currently needs an eviction before another
    /// context can be placed.
    fn ctx_over_budget(&self) -> bool {
        self.tree.resident >= self.ctx_capacity()
            || (self.config.ctx_evict_by_clauses
                && self.tree.resident_clauses > self.config.max_context_clauses)
    }

    /// Evicts LRU leaves (sparing `keep`) until the tree is back under
    /// both the count capacity and the clause budget, or no evictable
    /// leaf remains.
    fn ctx_make_room(&mut self, keep: Option<usize>) {
        while self.ctx_over_budget() {
            match self.tree.evict_leaf(keep) {
                Some(freed) => {
                    self.stats.ctx_evictions += 1;
                    self.stats.ctx_clauses_evicted += freed;
                }
                None => break,
            }
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// The **affinity token** of the most recent context activity: an
    /// opaque value that compares higher the more recently the solver
    /// touched (hit, forked or built) an incremental context. A state
    /// whose last prefix query carries a higher token is more likely to
    /// find its context still resident, so schedulers use the token as a
    /// deterministic tie-break toward warm states. Tokens are derived
    /// from a per-solver monotone counter — never from wall-clock — so
    /// identical runs produce identical tokens; they carry no meaning
    /// across solvers (each engine shard derives its own stream).
    pub fn last_affinity(&self) -> u64 {
        self.last_affinity
    }

    /// Decides whether the conjunction of `constraints` is satisfiable.
    ///
    /// Constant `true` conjuncts are dropped; a constant `false` conjunct
    /// short-circuits to unsat without touching the SAT solver (these fast
    /// paths are *not* counted as queries, mirroring how KLEE's expression
    /// simplifier absorbs trivial branch checks).
    pub fn check(&mut self, pool: &ExprPool, constraints: &[ExprId]) -> SatResult {
        match normalize_query(pool, constraints.iter().copied()) {
            Ok(set) => self.check_set(pool, None, &set, None),
            Err(early) => early,
        }
    }

    /// Decides `prefix ∧ extra`, where `prefix` is a path-condition the
    /// caller will keep extending (the engine's branch-feasibility
    /// pattern).
    ///
    /// Semantically identical to `check(prefix ++ [extra])` — same fast
    /// paths, same caches, same statistics — but when
    /// [`SolverConfig::use_incremental`] is on, the query is decided on a
    /// pooled [`SolverContext`]: the prefix stays bit-blasted in an
    /// incremental SAT solver and `extra` is solved *under assumptions*,
    /// so both polarities of a branch and every later query on the same
    /// path reuse the CNF, learnt clauses and heuristic state. Pass a
    /// constant-true `extra` to check the prefix alone (e.g. for test
    /// generation at path completion).
    pub fn check_assuming(
        &mut self,
        pool: &ExprPool,
        prefix: &[ExprId],
        extra: ExprId,
    ) -> SatResult {
        self.check_assuming_inner(pool, prefix, extra, true)
    }

    /// [`Solver::check_assuming`] for **probe** queries: `extra` is a
    /// one-off hypothetical that will never become a path-condition
    /// extension (an assertion's failing side, a failure-reproducer
    /// query). Identical answers and caching; the only difference is
    /// that the context does not record `extra` as sibling evidence, so
    /// the probe cannot claim a child that never returns and trigger a
    /// spurious context fork at the next real extension.
    pub fn check_assuming_probe(
        &mut self,
        pool: &ExprPool,
        prefix: &[ExprId],
        extra: ExprId,
    ) -> SatResult {
        self.check_assuming_inner(pool, prefix, extra, false)
    }

    fn check_assuming_inner(
        &mut self,
        pool: &ExprPool,
        prefix: &[ExprId],
        extra: ExprId,
        may_extend: bool,
    ) -> SatResult {
        let mut route = None;
        if self.config.use_incremental && self.config.max_contexts > 0 {
            // Fast path: when a resident context covers (part of) the
            // prefix, start from its *carried* normalized set and hash
            // and fold in only the uncovered tail plus `extra` — an
            // O(log n) ordered insert and an O(1) hash update per new
            // conjunct, instead of re-sorting and re-hashing the whole
            // set on every query of the path. The walk result is handed
            // down as `prefound` so the context routing below does not
            // repeat it (sound: the cache tiers never mutate the tree).
            let (found, matched) = self.tree.lookup(prefix);
            route = Some(CtxRoute { prefix, extra, may_extend, prefound: (found, matched) });
            if let Some(n) = found {
                let ctx = self.tree.ctx(n);
                if ctx.norm_false {
                    return SatResult::Unsat;
                }
                let mut set = ctx.norm_set.clone();
                let mut hash = ctx.norm_hash;
                for c in prefix[matched..].iter().copied().chain(std::iter::once(extra)) {
                    debug_assert!(pool.sort(c).is_bool(), "constraint must be boolean");
                    if pool.is_false(c) {
                        return SatResult::Unsat;
                    }
                    if !pool.is_true(c) {
                        if let Err(i) = set.binary_search(&c) {
                            set.insert(i, c);
                            hash = hash.wrapping_add(elem_hash(c));
                        }
                    }
                }
                if set.is_empty() {
                    return SatResult::Sat(Model::new());
                }
                debug_assert_eq!(hash, set_hash(&set), "carried hash out of step");
                return self.check_set(pool, route, &set, Some(hash));
            }
        }
        match normalize_query(pool, prefix.iter().copied().chain(std::iter::once(extra))) {
            Ok(set) => self.check_set(pool, route, &set, None),
            Err(early) => early,
        }
    }

    /// [`Solver::check_assuming`] for callers that only need a yes/no:
    /// maps `Unknown` to "possibly satisfiable" (`true`), which keeps
    /// exploration sound.
    pub fn may_be_sat_assuming(
        &mut self,
        pool: &ExprPool,
        prefix: &[ExprId],
        extra: ExprId,
    ) -> bool {
        !matches!(self.check_assuming(pool, prefix, extra), SatResult::Unsat)
    }

    /// [`Solver::check_assuming_probe`] for callers that only need a
    /// yes/no; `Unknown` maps to `true` (possibly satisfiable).
    pub fn may_be_sat_assuming_probe(
        &mut self,
        pool: &ExprPool,
        prefix: &[ExprId],
        extra: ExprId,
    ) -> bool {
        !matches!(self.check_assuming_probe(pool, prefix, extra), SatResult::Unsat)
    }

    /// The shared query pipeline over a normalized set. `route` carries
    /// the raw `(prefix, extra)` split plus the pre-walked tree lookup
    /// for the incremental path; `hash` is the set's [`set_hash`] when
    /// the caller already knows it (the incremental fast path carries it
    /// on the context), computed here otherwise.
    fn check_set(
        &mut self,
        pool: &ExprPool,
        route: Option<CtxRoute>,
        set: &[ExprId],
        hash: Option<u64>,
    ) -> SatResult {
        let start = Instant::now();
        self.stats.queries += 1;
        let h = hash.unwrap_or_else(|| set_hash(set));
        // Set hashing is the first `route_time` slice; the ladder and
        // sat windows below are measured separately, keeping the three
        // counters disjoint inside `time`.
        self.stats.route_time += start.elapsed();
        // Tier gate (`SolverConfig::tier_gate`): a small query whose
        // prefix a resident context covers up to at most one conjunct
        // skips the ladder's rungs below the exact caches.
        let warm = route
            .as_ref()
            .is_some_and(|r| r.prefound.0.is_some() && r.prefix.len() - r.prefound.1 <= 1);
        let gated = warm && self.config.tier_gate > 0 && set.len() <= self.config.tier_gate;

        let cache_start = Instant::now();
        let hit = self.verdicts.lookup(&self.config, &mut self.stats, pool, h, set, gated);
        self.stats.cache_time += cache_start.elapsed();
        if let Some(hit) = hit {
            self.stats.time += start.elapsed();
            return hit;
        }

        let forced = self.forced_unknown_hit();
        let mut result = if forced {
            self.stats.forced_unknowns += 1;
            SatResult::Unknown
        } else {
            self.dispatch(pool, route.as_ref(), set)
        };
        if matches!(result, SatResult::Unknown) {
            result = self.retry_unknown(pool, route.as_ref(), set, forced);
        }
        let record_start = Instant::now();
        self.verdicts.record(&self.config, &mut self.stats, pool, h, set, &result);
        self.stats.cache_time += record_start.elapsed();
        self.stats.time += start.elapsed();
        result
    }

    /// Routes one (re-)dispatch of a normalized set to its solving path.
    fn dispatch(&mut self, pool: &ExprPool, route: Option<&CtxRoute>, set: &[ExprId]) -> SatResult {
        match route {
            Some(r) => self.check_in_context(pool, r, set),
            None if self.config.use_independence => self.check_sliced(pool, set),
            None => self.solve_slice(pool, set, self.effective_budget()),
        }
    }

    /// The `Unknown`-retry ladder: re-dispatches a query whose first
    /// answer was `Unknown` under escalating conflict budgets, then —
    /// for warm-context routes still `Unknown` after the last rung —
    /// once more on the fresh re-blast path (an incremental context can
    /// accumulate a clause database pathologically bad for *this* query;
    /// a cold CNF of just the set often decides it within the same
    /// fuel). A *forced* `Unknown` (fault injection) always gets one
    /// injection-free rung at the base budget first, which restores the
    /// uninjected answer exactly: nothing ran before it, so the solver
    /// state the retry sees is the state the original dispatch saw.
    ///
    /// All fuel is conflicts, never wall-clock, so the ladder is
    /// deterministic. Contextual retries re-walk the tree
    /// ([`ContextTree::lookup`]) because the failed dispatch may have
    /// moved, forked or evicted contexts since the caller's walk.
    fn retry_unknown(
        &mut self,
        pool: &ExprPool,
        route: Option<&CtxRoute>,
        set: &[ExprId],
        forced: bool,
    ) -> SatResult {
        // A retried contextual dispatch must not reuse the caller's
        // (now stale) tree walk.
        let fresh_route = |solver: &Self| {
            route.map(|r| {
                let prefound = solver.tree.lookup(r.prefix);
                CtxRoute { prefix: r.prefix, extra: r.extra, may_extend: r.may_extend, prefound }
            })
        };
        let mut result = SatResult::Unknown;
        if forced {
            // Injection-free recovery rung at the base budget.
            self.stats.retry_attempts += 1;
            let r = fresh_route(self);
            result = self.dispatch(pool, r.as_ref(), set);
        }
        let mut last_budget = self.config.max_conflicts;
        if let Some(base) = self.config.max_conflicts {
            let ladder = std::mem::take(&mut self.config.retry_ladder);
            for &m in &ladder {
                if !matches!(result, SatResult::Unknown) {
                    break;
                }
                let budget = ladder_budget(base, m);
                last_budget = Some(budget);
                self.stats.retry_attempts += 1;
                self.budget_override = Some(Some(budget));
                let r = fresh_route(self);
                result = self.dispatch(pool, r.as_ref(), set);
                self.budget_override = None;
            }
            self.config.retry_ladder = ladder;
            // Re-blast fallback: only for warm-context routes (the
            // re-blast paths already solved a cold CNF), and only when
            // the ladder is enabled at all.
            if matches!(result, SatResult::Unknown)
                && route.is_some()
                && !self.config.retry_ladder.is_empty()
            {
                self.stats.retry_attempts += 1;
                self.stats.retry_reblasts += 1;
                self.budget_override = Some(last_budget);
                result = self.dispatch(pool, None, set);
                self.budget_override = None;
            }
        }
        if !matches!(result, SatResult::Unknown) {
            self.stats.retry_recovered += 1;
        }
        result
    }

    // ----- incremental context path ------------------------------------

    /// Finds (or builds) the tree context for exactly `prefix` and
    /// returns its node index.
    ///
    /// The walk finds the resident context with the longest shared
    /// prefix. An exact match is used in place. A *partial* match is a
    /// warm ancestor: if the ancestor has sibling evidence (some other
    /// extra answered sat at its prefix — another child state will come
    /// back for it; see [`SolverContext`]'s `sat_extras`), it is
    /// **forked** and the fork extended, leaving the ancestor warm for
    /// the sibling; otherwise the context is *moved* down the path — the
    /// pre-fork behaviour, free of clone cost, right for straight-line
    /// extension. A dead ancestor is returned as-is (its prefix already
    /// proves the query unsat; extending it would blast circuitry for
    /// nothing). Only a complete miss pays a rebuild.
    ///
    /// `prefound` is the caller's already-performed
    /// [`ContextTree::lookup`] for `prefix`, if it has one (the query
    /// fast path walks the tree to reach the carried normalized set
    /// before the cache tiers run, and nothing in between mutates the
    /// tree). `force_fork` names prefixes to treat as fork points
    /// regardless of sibling evidence — the batch prewarm path passes
    /// the divergence points of the migrated-state batch, which carry no
    /// `sat_extras` (the evidence stayed on the donor worker) but are
    /// known upfront to serve multiple children. (Keyed by prefix, not
    /// node index: mid-batch eviction can prune a node and recycle its
    /// index for an unrelated path.)
    fn context_node_for(
        &mut self,
        pool: &ExprPool,
        prefix: &[ExprId],
        force_fork: Option<&std::collections::HashSet<&[ExprId]>>,
        prefound: Option<(Option<usize>, usize)>,
    ) -> usize {
        self.ctx_clock += 1;
        let clock = self.ctx_clock;
        let (found, matched) = prefound.unwrap_or_else(|| self.tree.lookup(prefix));
        debug_assert_eq!((found, matched), self.tree.lookup(prefix), "stale prefound walk");
        let node = match found {
            Some(n) if matched == prefix.len() || self.tree.ctx(n).is_dead() => {
                self.stats.ctx_hits += 1;
                n
            }
            Some(n) => {
                self.stats.ctx_hits += 1;
                let first = prefix[matched];
                let sibling_evidence = self.tree.ctx(n).sat_extras.iter().any(|&e| e != first)
                    || force_fork.is_some_and(|s| s.contains(&prefix[..matched]));
                // Forking adds a net context; only do it when a slot is
                // free or some *other* leaf can make room (evicting the
                // ancestor we fork to preserve would defeat the point).
                let fork = self.config.ctx_fork
                    && sibling_evidence
                    && (self.tree.resident < self.ctx_capacity() || self.tree.has_evictable(n));
                let mut ctx = if fork {
                    self.stats.ctx_forks += 1;
                    self.ctx_make_room(Some(n));
                    let parent = self.tree.ctx_mut(n);
                    parent.sat_extras.retain(|&e| e != first);
                    let compacted_before = parent.clauses_compacted();
                    let child = parent.fork();
                    self.stats.ctx_clauses_compacted +=
                        parent.clauses_compacted() - compacted_before;
                    child
                } else {
                    self.tree.take(n)
                };
                let gates_before = ctx.gates_reused();
                for &c in &prefix[matched..] {
                    ctx.assert_constraint(pool, c);
                }
                self.stats.gates_reused += ctx.gates_reused() - gates_before;
                let target = self.tree.ensure_path(prefix);
                self.tree.place(target, ctx);
                target
            }
            None => {
                self.stats.ctx_rebuilds += 1;
                self.ctx_make_room(None);
                let mut ctx =
                    SolverContext::with_options(self.config.sat_ccmin, self.config.ite_factor);
                for &c in prefix {
                    ctx.assert_constraint(pool, c);
                }
                self.stats.gates_reused += ctx.gates_reused();
                let target = self.tree.ensure_path(prefix);
                self.tree.place(target, ctx);
                target
            }
        };
        self.tree.touch(node, clock);
        self.last_affinity = clock;
        self.stats.ctx_clauses_resident = self.tree.resident_clauses;
        node
    }

    /// Decides `prefix ∧ extra` on a tree incremental context.
    /// `route.may_extend` tells the context whether `extra` can ever
    /// become a prefix extension (and hence counts as sibling evidence).
    fn check_in_context(&mut self, pool: &ExprPool, route: &CtxRoute, set: &[ExprId]) -> SatResult {
        let route_start = Instant::now();
        let CtxRoute { prefix, extra, may_extend, prefound } = *route;
        let node = self.context_node_for(pool, prefix, None, Some(prefound));
        if self.tree.ctx(node).is_dead() {
            // The context's asserted prefix — possibly a strict subset
            // of the query's, when a dead ancestor answered — is unsat
            // on its own: donate it as a core and skip solving.
            self.note_dead_prefix(pool, node);
            self.stats.route_time += route_start.elapsed();
            return SatResult::Unsat;
        }
        self.stats.sat_calls += 1;
        let extras: Vec<ExprId> = if pool.is_true(extra) { Vec::new() } else { vec![extra] };
        let before = self.tree.ctx(node).sat_stats();
        let gates_before = self.tree.ctx(node).gates_reused();
        // Context lookup / fork / rebuild — including blasting the
        // uncovered prefix tail into the solver — is routing work, not
        // SAT search: charge it to `route_time` and open the sat window
        // only now.
        self.stats.route_time += route_start.elapsed();
        let sat_start = Instant::now();
        let budget = self.effective_budget();
        let ctx = self.tree.ctx_mut(node);
        let outcome = if may_extend {
            ctx.solve_assuming(pool, &extras, budget)
        } else {
            ctx.solve_assuming_probe(pool, &extras, budget)
        };
        let result = match &outcome {
            SolveOutcome::Sat(_) => {
                let syms: Vec<SymbolId> = self.inputs_for_set(pool, set);
                let model = if self.config.canonical_models {
                    // The minimization probes share whatever conflict
                    // budget the main solve left over.
                    let consumed = self.tree.ctx(node).sat_stats().conflicts - before.conflicts;
                    let remaining = self.effective_budget().map(|b| b.saturating_sub(consumed));
                    self.tree.ctx_mut(node).minimize(pool, &extras, &syms, &outcome, remaining)
                } else {
                    self.tree.ctx(node).extract_model_for(&outcome, &syms)
                };
                SatResult::Sat(model)
            }
            SolveOutcome::Unsat => {
                if self.tree.ctx(node).is_dead() {
                    // A level-0 conflict is assumption-independent: the
                    // prefix *alone* is unsat — a strictly smaller core
                    // than the full query set.
                    self.note_dead_prefix(pool, node);
                }
                SatResult::Unsat
            }
            SolveOutcome::Unknown => SatResult::Unknown,
        };
        let after = self.tree.ctx(node).sat_stats();
        self.stats.sat_time += sat_start.elapsed();
        self.stats.conflicts += after.conflicts - before.conflicts;
        self.stats.decisions += after.decisions - before.decisions;
        self.stats.propagations += after.propagations - before.propagations;
        self.stats.learnt += after.learnt - before.learnt;
        self.stats.learnt_lits += after.learnt_lits - before.learnt_lits;
        self.stats.gates_reused += self.tree.ctx(node).gates_reused() - gates_before;
        // Solving may have grown the context in place (blasted extras,
        // learnt clauses): re-snapshot its clause charge so the
        // residency gauge and the next eviction decision see it.
        self.tree.refresh_charge(node);
        self.stats.ctx_clauses_resident = self.tree.resident_clauses;
        result
    }

    /// The input symbols of `set`, unioned from per-conjunct memoized
    /// lists — the model projection every sat context answer needs,
    /// without re-walking DAGs that prefix-shaped queries share across
    /// thousands of calls.
    fn inputs_for_set(&mut self, pool: &ExprPool, set: &[ExprId]) -> Vec<SymbolId> {
        let mut syms: Vec<SymbolId> = Vec::new();
        for &c in set {
            let per = self
                .input_syms
                .entry(c)
                .or_insert_with(|| pool.collect_inputs(c).into_boxed_slice());
            syms.extend_from_slice(per);
        }
        syms.sort_unstable();
        syms.dedup();
        syms
    }

    /// How many leading conjuncts of `prefix` are covered by a resident
    /// incremental context — the donor-side half of warm-context
    /// migration: a migrating state ships this length as its
    /// *warm-prefix seed* so the receiving worker knows which part of
    /// the path condition was warm where the state came from. Returns 0
    /// when the incremental path is disabled or nothing matches.
    pub fn resident_prefix_len(&self, prefix: &[ExprId]) -> usize {
        if !self.config.use_incremental || self.config.max_contexts == 0 {
            return 0;
        }
        self.tree.lookup(prefix).1
    }

    /// Pre-warms the context tree for a **batch** of path-condition
    /// prefixes (the warm-prefix seeds of one migration round's inbox),
    /// returning one affinity token per input prefix (0 for prefixes
    /// left cold).
    ///
    /// Only the batch's **divergence points** are materialized — the
    /// pairwise common prefixes, computed from adjacent pairs after
    /// sorting (which covers all pairs), built shallow-first so deeper
    /// trunks fork off shallower ones. Each shared trunk is therefore
    /// bit-blasted **once**; the per-lineage tails are *not* built
    /// eagerly (an early eager design did, and wasted a context clone
    /// per migrated state on work that was often evicted unused — the
    /// lineages that actually run extend the trunk lazily at their
    /// first query). To make that lazy extension fork rather than move,
    /// each trunk context is seeded with the batch's child conjuncts as
    /// **sibling evidence** (`sat_extras`): migrated states carry none
    /// (it stayed on the donor worker), and without it the first
    /// lineage's extension would move the trunk context away and strand
    /// its siblings cold — the 871-fleet-rebuild pathology of
    /// EXPERIMENTS.md, "Heapified scheduling + clause-weighted residency".
    ///
    /// Costs are charged to the ordinary counters (`ctx_rebuilds` /
    /// `ctx_forks` / `ctx_evictions`), and eviction policy applies as
    /// usual. Deterministic: the build order depends only on the prefix
    /// sets. With `ctx_fork` off the seeded evidence is moot — the
    /// ablated solver never clones contexts — and prewarming degrades
    /// to building the shared trunks that straight-line extension then
    /// consumes.
    pub fn prewarm_contexts(
        &mut self,
        pool: &ExprPool,
        seeds: &[(&[ExprId], Option<ExprId>)],
    ) -> Vec<u64> {
        if !self.config.use_incremental || self.config.max_contexts == 0 {
            return vec![0; seeds.len()];
        }
        let mut targets: Vec<&[ExprId]> =
            seeds.iter().map(|&(p, _)| p).filter(|p| !p.is_empty()).collect();
        targets.sort_unstable();
        // Divergence points: the LCP of every adjacent sorted pair (this
        // covers all pairwise LCPs of the batch), built shallow-first —
        // ties broken lexicographically — so each trunk is resident
        // before deeper trunks fork off it. Duplicates are kept in
        // `targets` on purpose: two states carrying the *same* seed make
        // that seed itself a shared trunk (its adjacent LCP is the full
        // prefix), which dedup-first would silently discard.
        let mut trunks: Vec<&[ExprId]> = targets
            .windows(2)
            .map(|w| {
                let n = w[0].iter().zip(w[1]).take_while(|(a, b)| a == b).count();
                &w[0][..n]
            })
            .filter(|p| !p.is_empty())
            .collect();
        trunks.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then(a.cmp(b)));
        trunks.dedup();
        let trunk_set: std::collections::HashSet<&[ExprId]> = trunks.iter().copied().collect();
        for p in &trunks {
            self.context_node_for(pool, p, Some(&trunk_set), None);
        }
        // Seed sibling evidence: each state's first conjunct beyond its
        // deepest resident ancestor is a child that will come back — the
        // seed's own next conjunct when the trunk covers part of it, or
        // the state's next *pc* conjunct when the whole seed is resident
        // (two states sharing one seed diverge only beyond it).
        for &(p, next) in seeds {
            if p.is_empty() {
                continue;
            }
            if let (Some(n), matched) = self.tree.lookup(p) {
                let edge = if matched < p.len() { Some(p[matched]) } else { next };
                if let Some(edge) = edge {
                    let ctx = self.tree.ctx_mut(n);
                    if !ctx.sat_extras.contains(&edge) {
                        ctx.sat_extras.push(edge);
                    }
                }
            }
        }
        // Token per input prefix: the stamp of the deepest resident
        // context on its path (partial warmth is still warmth).
        seeds
            .iter()
            .map(|(p, _)| match self.tree.lookup(p) {
                (Some(n), matched) if matched > 0 => self.tree.ctx(n).last_used,
                _ => 0,
            })
            .collect()
    }

    /// Donates a dead context's asserted prefix to the counterexample
    /// cache as an unsat core: dead-prefix cores are the finest cores
    /// the incremental path produces, and a later query that extends
    /// the dead prefix is refuted by subset without building a context.
    fn note_dead_prefix(&mut self, pool: &ExprPool, node: usize) {
        if !self.config.use_cex_cache {
            return;
        }
        let mut p: Vec<ExprId> =
            self.tree.ctx(node).prefix().iter().copied().filter(|&c| !pool.is_true(c)).collect();
        p.sort_unstable();
        p.dedup();
        self.verdicts.note_core(&p);
    }

    // ----- re-blast path ------------------------------------------------

    /// Partitions `set` into connected components under "shares an input
    /// symbol" and decides each component separately. The conjunction is
    /// sat iff all components are; models merge disjointly.
    ///
    /// The conflict budget is *shared* across the slices: each slice gets
    /// whatever the previous slices left over, so one `check` can never
    /// burn more than `max_conflicts` in total (it used to apply the full
    /// budget per slice).
    fn check_sliced(&mut self, pool: &ExprPool, set: &[ExprId]) -> SatResult {
        // Partitioning is routing work (it decides the solving path's
        // shape), priced as such; the input-symbol walks are served
        // from the per-solver `input_syms` memo — prefix-shaped
        // queries repeat conjuncts across thousands of queries, and
        // re-walking each conjunct's DAG per query was measurable.
        let route_start = Instant::now();
        let slices = partition_by_inputs(pool, set, &mut self.input_syms);
        self.stats.route_time += route_start.elapsed();
        let mut combined = Model::new();
        let mut remaining = self.effective_budget();
        for slice in &slices {
            if remaining == Some(0) {
                return SatResult::Unknown; // shared budget exhausted
            }
            // Slice-level refutation: a stored unsat core inside one
            // slice kills the whole conjunction before any CNF is built.
            // Only multi-slice queries are checked — a single slice is
            // the full set, which the ladder already screened — and the
            // scan is charged to the cache window like every other tier.
            if slices.len() > 1 && self.config.use_cex_cache {
                let cex_start = Instant::now();
                let hit = self.verdicts.refutes(&mut self.stats, slice);
                self.stats.cache_time += cex_start.elapsed();
                if hit {
                    return SatResult::Unsat;
                }
            }
            let before = self.stats.conflicts;
            let result = self.solve_slice(pool, slice, remaining);
            if let Some(rem) = remaining.as_mut() {
                *rem = rem.saturating_sub(self.stats.conflicts - before);
            }
            match result {
                SatResult::Sat(m) => combined.absorb(&m),
                SatResult::Unsat => {
                    if slices.len() > 1 && self.config.use_cex_cache {
                        // The slice is a finer unsat core than the query.
                        self.verdicts.note_core(slice);
                    }
                    return SatResult::Unsat;
                }
                SatResult::Unknown => return SatResult::Unknown,
            }
        }
        SatResult::Sat(combined)
    }

    fn solve_slice(&mut self, pool: &ExprPool, slice: &[ExprId], budget: Option<u64>) -> SatResult {
        self.stats.sat_calls += 1;
        // Re-blast CNF construction is routing/preparation work, kept
        // out of the sat window (which opens below at solver start).
        let route_start = Instant::now();
        let mut bb = BitBlaster::with_ite_factor(self.config.ite_factor);
        for &c in slice {
            bb.assert_true(pool, c);
        }
        self.stats.gates_reused += bb.gates_reused();
        self.stats.route_time += route_start.elapsed();
        let sat_start = Instant::now();
        let mut sat = SatSolver::from_cnf(bb.cnf());
        sat.set_ccmin(self.config.sat_ccmin);
        sat.set_conflict_budget(budget);
        let outcome = sat.solve();
        let result = match &outcome {
            SolveOutcome::Sat(_) => {
                let model = if self.config.canonical_models {
                    let inputs = bb.inputs_sorted_by_name(pool);
                    // The probes share the budget the main solve left.
                    let remaining = budget.map(|b| b.saturating_sub(sat.stats().conflicts));
                    minimize_model(&mut sat, &inputs, &[], &outcome, remaining)
                } else {
                    bb.extract_model(&outcome)
                };
                SatResult::Sat(model)
            }
            SolveOutcome::Unsat => SatResult::Unsat,
            SolveOutcome::Unknown => SatResult::Unknown,
        };
        self.stats.sat_time += sat_start.elapsed();
        self.stats.conflicts += sat.stats().conflicts;
        self.stats.decisions += sat.stats().decisions;
        self.stats.propagations += sat.stats().propagations;
        self.stats.learnt += sat.stats().learnt;
        self.stats.learnt_lits += sat.stats().learnt_lits;
        result
    }
}

/// Drops constant-true conjuncts, short-circuits on constant-false, and
/// returns the sorted, deduplicated constraint set (or the early verdict
/// for trivial queries, which are not counted as queries).
fn normalize_query(
    pool: &ExprPool,
    constraints: impl Iterator<Item = ExprId>,
) -> Result<Vec<ExprId>, SatResult> {
    let mut set = Vec::new();
    for c in constraints {
        debug_assert!(pool.sort(c).is_bool(), "constraint must be boolean");
        if pool.is_false(c) {
            return Err(SatResult::Unsat);
        }
        if !pool.is_true(c) {
            set.push(c);
        }
    }
    if set.is_empty() {
        return Err(SatResult::Sat(Model::new()));
    }
    set.sort_unstable();
    set.dedup();
    Ok(set)
}

/// The golden-ratio increment of the splitmix64 sequence.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 output: `x` advanced by the golden-ratio increment,
/// then finalized. The workspace's one mixer for reproducible streams
/// and hashes: the per-element set hash, the forced-`Unknown` stream,
/// and the fleet's per-worker seeds.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-element hash ([`splitmix64`] of the id): the shared primitive
/// under the commutative set hash and the membership signatures, and
/// the increment a [`SolverContext`] adds when its carried normalized
/// set grows by one conjunct.
pub(crate) fn elem_hash(id: ExprId) -> u64 {
    splitmix64(id.index() as u64)
}

/// 64-bit hash of a normalized constraint set: the **wrapping sum** of
/// the per-element hashes. Commutative by construction, so it is
/// order-independent (a normalized set is a set, not a sequence) and —
/// the point — *incrementally maintainable*: extending a set by one
/// element adds one [`elem_hash`] in O(1), which is how a
/// [`SolverContext`] carries the hash of its normalized prefix across
/// queries instead of re-hashing the full set each time. Collisions are
/// harmless: the query cache stores and verifies full keys per bucket.
pub(crate) fn set_hash(set: &[ExprId]) -> u64 {
    set.iter().fold(0u64, |h, &c| h.wrapping_add(elem_hash(c)))
}

/// Groups constraints into connected components by shared input symbols.
///
/// `input_syms` memoizes each conjunct's input-symbol set (sound for the
/// same reason as every other `ExprId`-keyed memo in this module: a
/// solver serves one append-only pool), so repeated partitioning of
/// prefix-shaped sets walks each conjunct's DAG once, not once per
/// query.
fn partition_by_inputs(
    pool: &ExprPool,
    set: &[ExprId],
    input_syms: &mut HashMap<ExprId, Box<[SymbolId]>>,
) -> Vec<Vec<ExprId>> {
    let n = set.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut owner: HashMap<SymbolId, usize> = HashMap::new();
    for (i, &c) in set.iter().enumerate() {
        let syms = input_syms.entry(c).or_insert_with(|| pool.collect_inputs(c).into_boxed_slice());
        for &sym in syms.iter() {
            match owner.get(&sym) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
                None => {
                    owner.insert(sym, i);
                }
            }
        }
    }
    let mut groups: HashMap<usize, Vec<ExprId>> = HashMap::new();
    for (i, &c) in set.iter().enumerate() {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(c);
    }
    let mut out: Vec<Vec<ExprId>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ExprPool {
        ExprPool::new(8)
    }

    /// A config with every tier pinned off except what the test enables.
    fn bare() -> SolverConfig {
        SolverConfig {
            use_cache: false,
            use_model_reuse: false,
            use_independence: false,
            use_cex_cache: false,
            use_incremental: false,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn empty_query_is_sat() {
        let p = pool();
        let mut s = Solver::new(Default::default());
        assert!(s.check(&p, &[]).is_sat());
        // Trivial queries do not count against the stats.
        assert_eq!(s.stats().queries, 0);
    }

    #[test]
    fn constant_false_short_circuits() {
        let p = pool();
        let mut s = Solver::new(Default::default());
        let f = p.false_();
        assert!(s.check(&p, &[f]).is_unsat());
        assert_eq!(s.stats().sat_calls, 0);
    }

    #[test]
    fn cache_hit_on_repeat_query() {
        let mut p = pool();
        let x = p.input("x", 8);
        let five = p.bv_const(5, 8);
        let c = p.eq(x, five);
        let mut s = Solver::new(SolverConfig { use_cache: true, ..SolverConfig::default() });
        assert!(s.check(&p, &[c]).is_sat());
        let calls_before = s.stats().sat_calls;
        assert!(s.check(&p, &[c]).is_sat());
        assert_eq!(s.stats().sat_calls, calls_before);
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn model_history_zero_is_safe() {
        // `remember_model` used to call `Vec::remove(0)` on an empty vec
        // when `model_history == 0`, panicking on the first sat query.
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let one = p.bv_const(1, 8);
        let two = p.bv_const(2, 8);
        let c1 = p.eq(x, one);
        let c2 = p.eq(y, two);
        let mut s = Solver::new(SolverConfig { model_history: 0, ..bare() });
        assert!(s.check(&p, &[c1]).is_sat());
        assert!(s.check(&p, &[c2]).is_sat());
        assert!(s.check(&p, &[c1, c2]).is_sat());
        assert_eq!(s.stats().model_reuse_hits, 0);
    }

    #[test]
    fn model_reuse_avoids_sat_calls() {
        let mut p = pool();
        let x = p.input("x", 8);
        let ten = p.bv_const(10, 8);
        let five = p.bv_const(5, 8);
        let c1 = p.ult(x, ten);
        let c2 = p.ult(x, five); // implied by any model with x < 5
        let mut s = Solver::new(SolverConfig { use_model_reuse: true, ..SolverConfig::default() });
        // First query: x < 5 gives a model (likely x = 0).
        assert!(s.check(&p, &[c2]).is_sat());
        // Second query x < 10 can reuse the model.
        assert!(s.check(&p, &[c1]).is_sat());
        assert_eq!(s.stats().model_reuse_hits, 1);
    }

    #[test]
    fn independence_slicing_solves_components_separately() {
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let one = p.bv_const(1, 8);
        let two = p.bv_const(2, 8);
        let c1 = p.eq(x, one);
        let c2 = p.eq(y, two);
        let mut s = Solver::new(SolverConfig { use_independence: true, ..bare() });
        match s.check(&p, &[c1, c2]) {
            SatResult::Sat(m) => {
                assert_eq!(m.value_by_name(&p, "x"), Some(1));
                assert_eq!(m.value_by_name(&p, "y"), Some(2));
            }
            o => panic!("expected sat, got {o:?}"),
        }
        // Two independent slices → two SAT calls.
        assert_eq!(s.stats().sat_calls, 2);
    }

    #[test]
    fn unsat_component_fails_the_whole_query() {
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let one = p.bv_const(1, 8);
        let c1 = p.eq(x, one);
        let c2 = p.ne(y, y); // folds to false
        let c3 = p.ult(y, one);
        let zero = p.bv_const(0, 8);
        let c4 = p.ne(y, zero); // y < 1 ∧ y != 0 unsat
        assert!(p.is_false(c2));
        let mut s = Solver::new(Default::default());
        assert!(s.check(&p, &[c1, c3, c4]).is_unsat());
    }

    #[test]
    fn shared_conflict_budget_across_slices() {
        // Three structurally identical hard slices over disjoint symbols.
        // The budget is sized so one slice fits but three do not: the
        // query must give up with a *total* conflict spend near the
        // budget, instead of granting every slice the full budget (the
        // old behaviour, which could burn budget × slices conflicts).
        fn hard(p: &mut ExprPool, tag: &str) -> [ExprId; 2] {
            let x = p.input(&format!("x{tag}"), 8);
            let y = p.input(&format!("y{tag}"), 8);
            let prod = p.mul(x, y);
            let target = p.bv_const(143, 8); // 11 × 13: needs real search
            [p.eq(prod, target), p.ult(x, y)]
        }
        let mut p = pool();
        let slices: Vec<ExprId> = [hard(&mut p, "a"), hard(&mut p, "b"), hard(&mut p, "c")]
            .into_iter()
            .flatten()
            .collect();
        // Measure one slice's conflict cost without any budget.
        let mut probe = Solver::new(bare());
        assert!(probe.check(&p, &slices[0..2]).is_sat());
        let per_slice = probe.stats().conflicts;
        assert!(per_slice >= 4, "instance too easy to exercise budgets ({per_slice} conflicts)");
        let budget = per_slice + per_slice / 2; // 1 fits, 3 would not
        let mut s = Solver::new(SolverConfig {
            use_independence: true,
            max_conflicts: Some(budget),
            retry_ladder: Vec::new(), // pin the ladder off: the trip itself is under test
            ..bare()
        });
        let result = s.check(&p, &slices);
        assert_eq!(result, SatResult::Unknown, "shared budget must trip before slice 3");
        assert!(
            s.stats().conflicts <= budget + 1,
            "spent {} conflicts, budget was {budget}",
            s.stats().conflicts
        );
    }

    #[test]
    fn cex_cache_unsat_subset_answers_superset() {
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let five = p.bv_const(5, 8);
        let ten = p.bv_const(10, 8);
        let a = p.ult(x, five);
        let b = p.ugt(x, ten);
        let c = p.ult(y, five);
        let mut s = Solver::new(SolverConfig { use_cex_cache: true, ..bare() });
        assert!(s.check(&p, &[a, b]).is_unsat());
        let calls = s.stats().sat_calls;
        // {a, b, c} ⊇ {a, b}: answered from the stored core, no SAT call.
        assert!(s.check(&p, &[a, b, c]).is_unsat());
        assert_eq!(s.stats().sat_calls, calls);
        assert_eq!(s.stats().cex_unsat_hits, 1);
    }

    #[test]
    fn cex_cache_sat_superset_answers_subset() {
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let ten = p.bv_const(10, 8);
        let c1 = p.ult(x, ten);
        let c2 = p.ult(y, ten);
        let mut s = Solver::new(SolverConfig { use_cex_cache: true, ..bare() });
        assert!(s.check(&p, &[c1, c2]).is_sat());
        let calls = s.stats().sat_calls;
        // {c1} ⊆ {c1, c2}: the stored model answers it outright.
        assert!(s.check(&p, &[c1]).is_sat());
        assert_eq!(s.stats().sat_calls, calls);
        assert_eq!(s.stats().cex_sat_hits, 1);
    }

    #[test]
    fn incremental_context_reuses_prefix() {
        let mut p = pool();
        let x = p.input("x", 8);
        let hundred = p.bv_const(100, 8);
        let fifty = p.bv_const(50, 8);
        let twenty = p.bv_const(20, 8);
        let pre = p.ult(x, hundred);
        let mid = p.ult(x, fifty);
        let deep = p.ugt(x, twenty);
        let contra = p.uge(x, hundred);
        let mut s = Solver::new(SolverConfig { use_incremental: true, ..bare() });
        // Both polarities on the same prefix: one context build.
        assert!(s.check_assuming(&p, &[pre], mid).is_sat());
        assert!(s.check_assuming(&p, &[pre], contra).is_unsat());
        assert_eq!(s.stats().ctx_rebuilds, 1);
        assert_eq!(s.stats().ctx_hits, 1);
        // Extending the prefix keeps the same context.
        assert!(s.check_assuming(&p, &[pre, mid], deep).is_sat());
        assert_eq!(s.stats().ctx_rebuilds, 1);
        // Agreement with the re-blast path.
        let mut mono = Solver::new(bare());
        assert!(mono.check(&p, &[pre, mid]).is_sat());
        assert!(mono.check(&p, &[pre, contra]).is_unsat());
        assert!(mono.check(&p, &[pre, mid, deep]).is_sat());
    }

    #[test]
    fn divergence_forks_instead_of_reblasting_the_sibling_prefix() {
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let hundred = p.bv_const(100, 8);
        let fifty = p.bv_const(50, 8);
        let ten = p.bv_const(10, 8);
        let pre = p.ult(x, hundred);
        let c = p.ult(x, fifty);
        let not_c = p.uge(x, fifty);
        let d = p.ult(y, ten);
        let e = p.ugt(y, ten);
        let mut s = Solver::new(SolverConfig { use_incremental: true, ctx_fork: true, ..bare() });
        // The branch: both polarities on the same prefix (one build).
        assert!(s.check_assuming(&p, &[pre], c).is_sat());
        assert!(s.check_assuming(&p, &[pre], not_c).is_sat());
        assert_eq!(s.stats().ctx_rebuilds, 1);
        // Child 1 extends the divergence point: fork, parent stays warm.
        assert!(s.check_assuming(&p, &[pre, c], d).is_sat());
        assert_eq!(s.stats().ctx_forks, 1);
        assert_eq!(s.stats().ctx_rebuilds, 1);
        // Child 2 finds the warm parent and takes it over (no sibling
        // evidence remains, so no second fork and *no rebuild* — the
        // re-blast the flat pool used to pay here).
        assert!(s.check_assuming(&p, &[pre, not_c], e).is_sat());
        assert_eq!(s.stats().ctx_forks, 1, "second child moves, not forks");
        assert_eq!(s.stats().ctx_rebuilds, 1, "sibling prefix must not re-blast");
        // Both children's contexts are now resident and exact-hit.
        let t = p.true_();
        assert!(s.check_assuming(&p, &[pre, c, d], t).is_sat());
        assert!(s.check_assuming(&p, &[pre, not_c, e], t).is_sat());
        assert_eq!(s.stats().ctx_rebuilds, 1);
    }

    #[test]
    fn probe_queries_leave_no_sibling_evidence() {
        // An assertion's failing side is probed but never extends the
        // pc; recording it would trigger a spurious fork (and strand a
        // resident context) when the surviving path extends by `ok`.
        let mut p = pool();
        let x = p.input("x", 8);
        let hundred = p.bv_const(100, 8);
        let forty = p.bv_const(40, 8);
        let pre = p.ult(x, hundred);
        let ok = p.ne(x, forty);
        let bad = p.eq(x, forty);
        let t = p.true_();
        let mut s = Solver::new(SolverConfig { use_incremental: true, ctx_fork: true, ..bare() });
        // The assert pattern: probe the violation, continue with `ok`.
        assert!(s.check_assuming_probe(&p, &[pre], bad).is_sat());
        assert!(s.check_assuming(&p, &[pre], ok).is_sat());
        // The surviving path extends by `ok`: no sibling exists, so the
        // context must move, not fork.
        assert!(s.check_assuming(&p, &[pre, ok], t).is_sat());
        assert_eq!(s.stats().ctx_forks, 0, "a probe must not fake a sibling");
        assert_eq!(s.stats().ctx_rebuilds, 1);
    }

    #[test]
    fn ctx_fork_off_restores_the_reblast_fallback() {
        let mut p = pool();
        let x = p.input("x", 8);
        let hundred = p.bv_const(100, 8);
        let fifty = p.bv_const(50, 8);
        let pre = p.ult(x, hundred);
        let c = p.ult(x, fifty);
        let not_c = p.uge(x, fifty);
        let t = p.true_();
        let mut s = Solver::new(SolverConfig { use_incremental: true, ctx_fork: false, ..bare() });
        assert!(s.check_assuming(&p, &[pre], c).is_sat());
        assert!(s.check_assuming(&p, &[pre], not_c).is_sat());
        // Child 1 moves the context; child 2's prefix re-blasts.
        assert!(s.check_assuming(&p, &[pre, c], t).is_sat());
        assert_eq!(s.stats().ctx_forks, 0);
        assert_eq!(s.stats().ctx_rebuilds, 1);
        assert!(s.check_assuming(&p, &[pre, not_c], t).is_sat());
        assert_eq!(s.stats().ctx_forks, 0, "ablated solver must never fork");
        assert_eq!(s.stats().ctx_rebuilds, 2, "ablated solver re-blasts the sibling");
    }

    #[test]
    fn eviction_spares_live_ancestors_of_resident_contexts() {
        // Regression for the PR 3 thrash case: the flat LRU treated all
        // contexts equally, so a warm shared-prefix context was evicted
        // from under the sibling that was about to extend it. The tree
        // only ever evicts leaves of the resident-context tree.
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let hundred = p.bv_const(100, 8);
        let fifty = p.bv_const(50, 8);
        let ten = p.bv_const(10, 8);
        let a = p.ult(x, hundred);
        let c = p.ult(x, fifty);
        let not_c = p.uge(x, fifty);
        let b = p.ult(y, ten);
        let t = p.true_();
        let mut s = Solver::new(SolverConfig {
            use_incremental: true,
            ctx_fork: true,
            max_contexts: 2,
            ..bare()
        });
        // Divergence at [a]: both polarities recorded, then child 1
        // forks — [a] (live ancestor) and [a, c] (leaf) resident.
        assert!(s.check_assuming(&p, &[a], c).is_sat());
        assert!(s.check_assuming(&p, &[a], not_c).is_sat());
        assert!(s.check_assuming(&p, &[a, c], t).is_sat());
        assert_eq!(s.stats().ctx_forks, 1);
        // An unrelated rebuild needs a slot. [a] is the LRU *and* an
        // ancestor of [a, c]: the old pool would evict it; the tree must
        // pick the leaf [a, c] instead.
        assert!(s.check_assuming(&p, &[b], t).is_sat());
        assert_eq!(s.stats().ctx_evictions, 1);
        let rebuilds = s.stats().ctx_rebuilds;
        // The divergence point is still warm: the sibling extends it
        // without a rebuild.
        assert!(s.check_assuming(&p, &[a, not_c], t).is_sat());
        assert_eq!(s.stats().ctx_rebuilds, rebuilds, "protected ancestor must still be resident");
    }

    #[test]
    fn clause_pressure_never_evicts_an_ancestor_from_under_its_descendant() {
        // The size-weighted policy keeps the subtree-LRU invariant: when
        // the clause budget forces eviction, only leaves of the
        // resident-context tree are candidates — the shared divergence
        // ancestor survives even though evicting it would free the most
        // clauses at once.
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let hundred = p.bv_const(100, 8);
        let fifty = p.bv_const(50, 8);
        let ten = p.bv_const(10, 8);
        let a = p.ult(x, hundred);
        let c = p.ult(x, fifty);
        let not_c = p.uge(x, fifty);
        let b = p.ult(y, ten);
        let t = p.true_();
        // Probe: how many clauses does the [a] context alone hold after
        // answering both branch polarities (the extras' circuitry is
        // blasted into the context too)?
        let probe_cfg = SolverConfig {
            use_incremental: true,
            ctx_fork: true,
            ctx_evict_by_clauses: true,
            ..bare()
        };
        let mut probe = Solver::new(probe_cfg.clone());
        assert!(probe.check_assuming(&p, &[a], c).is_sat());
        assert!(probe.check_assuming(&p, &[a], not_c).is_sat());
        let a_clauses = probe.stats().ctx_clauses_resident;
        assert!(a_clauses > 0, "the [a] context must hold clauses");
        // Budget fits [a] alone: anything beyond it is clause pressure.
        let mut s = Solver::new(SolverConfig { max_context_clauses: a_clauses, ..probe_cfg });
        assert!(s.check_assuming(&p, &[a], c).is_sat());
        assert!(s.check_assuming(&p, &[a], not_c).is_sat());
        // Child 1 forks: [a] (ancestor) + [a, c] (leaf) resident, over
        // budget — tolerated until the next placement needs room.
        assert!(s.check_assuming(&p, &[a, c], t).is_sat());
        assert_eq!(s.stats().ctx_forks, 1);
        assert!(s.stats().ctx_clauses_resident > a_clauses, "over budget by the fork");
        // An unrelated rebuild must make room: the only candidate is the
        // leaf [a, c] — the ancestor is protected while it has a
        // resident descendant, and once the leaf is gone the tree is
        // back under budget, so exactly one eviction happens.
        assert!(s.check_assuming(&p, &[b], t).is_sat());
        assert_eq!(s.stats().ctx_evictions, 1, "leaf only; the ancestor must survive");
        assert!(s.stats().ctx_clauses_evicted > 0, "evictions are clause-charged");
        let rebuilds = s.stats().ctx_rebuilds;
        // The divergence point is still warm.
        assert!(s.check_assuming(&p, &[a, not_c], t).is_sat());
        assert_eq!(s.stats().ctx_rebuilds, rebuilds, "protected ancestor must still be resident");
    }

    /// The resident leaves of `t`, as `(last_used, node)` in eviction
    /// order — the brute-force reference for `ContextTree::leaves`.
    fn brute_leaves(t: &ContextTree) -> Vec<(u64, usize)> {
        let mut v: Vec<(u64, usize)> = (0..t.nodes.len())
            .filter(|&i| t.nodes[i].live == 1 && t.nodes[i].ctx.is_some())
            .map(|i| t.leaf_key(i))
            .collect();
        v.sort_unstable();
        v
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256).seed(0x7EE_5EED))]

        /// Drives a `ContextTree` through random placements, takes,
        /// touches and evictions: every victim must be the brute-force
        /// minimum of `(last_used, node)` over the resident leaves other
        /// than `keep`, and the candidate set must equal those leaves
        /// after every operation.
        #[test]
        fn eviction_takes_the_least_recently_used_leaf(
            ops in proptest::collection::vec((0u8..4, 0usize..1000, proptest::bool::ANY), 1..120)
        ) {
            let mut p = pool();
            let x = p.input("x", 8);
            let conj: Vec<ExprId> = (0..3u64)
                .map(|i| {
                    let k = p.bv_const(i, 8);
                    p.ult(x, k)
                })
                .collect();
            // Every prefix of length ≤ 3 over the three conjuncts.
            let mut prefixes: Vec<Vec<ExprId>> = vec![Vec::new()];
            for at in 0.. {
                if at == prefixes.len() || prefixes[at].len() == 3 {
                    break;
                }
                for &c in &conj {
                    let mut q = prefixes[at].clone();
                    q.push(c);
                    prefixes.push(q);
                }
            }
            let mut tree = ContextTree::new();
            let mut clock = 0;
            for (op, pick, keep_one) in ops {
                let resident: Vec<usize> =
                    (0..tree.nodes.len()).filter(|&i| tree.nodes[i].ctx.is_some()).collect();
                let chosen = (!resident.is_empty()).then(|| resident[pick % resident.len()]);
                clock += 1;
                match (op, chosen) {
                    (0, _) => {
                        let node = tree.ensure_path(&prefixes[pick % prefixes.len()]);
                        if tree.nodes[node].ctx.is_none() {
                            let mut ctx = SolverContext::with_options(true, true);
                            ctx.last_used = clock;
                            tree.place(node, ctx);
                        }
                    }
                    (1, Some(n)) => {
                        let _ = tree.take(n);
                        tree.prune_up(n);
                    }
                    (2, Some(n)) => tree.touch(n, clock),
                    (3, _) => {
                        let keep = chosen.filter(|_| keep_one);
                        let want =
                            brute_leaves(&tree).into_iter().map(|(_, n)| n).find(|&n| Some(n) != keep);
                        if let Some(k) = keep {
                            proptest::prop_assert_eq!(tree.has_evictable(k), want.is_some());
                        }
                        let evicted = tree.evict_leaf(keep).is_some();
                        proptest::prop_assert_eq!(evicted, want.is_some());
                        let gone: Vec<usize> = resident
                            .iter()
                            .copied()
                            .filter(|&i| tree.nodes[i].ctx.is_none())
                            .collect();
                        proptest::prop_assert_eq!(gone, want.into_iter().collect::<Vec<_>>());
                    }
                    _ => {}
                }
                let leaves: Vec<(u64, usize)> = tree.leaves.iter().copied().collect();
                proptest::prop_assert_eq!(leaves, brute_leaves(&tree));
            }
        }
    }

    #[test]
    fn adaptive_capacity_tracks_the_frontier_hint() {
        // Three unrelated prefixes against a count floor of 2: the fixed
        // count policy churns, the clause-weighted policy lets the
        // capacity follow the reported frontier and keeps all three.
        let mut p = pool();
        let syms: Vec<_> = (0..3).map(|i| p.input(&format!("v{i}"), 8)).collect();
        let ten = p.bv_const(10, 8);
        let prefixes: Vec<ExprId> = syms.iter().map(|&v| p.ult(v, ten)).collect();
        let t = p.true_();
        let run = |by_clauses: bool| {
            let mut s = Solver::new(SolverConfig {
                use_incremental: true,
                max_contexts: 2,
                ctx_evict_by_clauses: by_clauses,
                ..bare()
            });
            s.set_frontier_hint(10);
            for &pre in &prefixes {
                assert!(s.check_assuming(&p, &[pre], t).is_sat());
            }
            // Revisit the first prefix: resident iff nothing churned.
            assert!(s.check_assuming(&p, &[prefixes[0]], t).is_sat());
            *s.stats()
        };
        let adaptive = run(true);
        let fixed = run(false);
        assert_eq!(adaptive.ctx_evictions, 0, "capacity must follow the frontier hint");
        assert_eq!(adaptive.ctx_rebuilds, 3, "each prefix built once, all stay resident");
        assert!(fixed.ctx_evictions >= 1, "the fixed-count ablation must still churn");
        assert!(fixed.ctx_rebuilds > adaptive.ctx_rebuilds, "churn re-blasts the first prefix");
    }

    #[test]
    fn prewarm_batch_blasts_the_shared_prefix_once() {
        // Two migrated lineages share [pre] and diverge: without sibling
        // evidence (it stayed on the donor) each would rebuild its full
        // prefix cold at first query. The batch prewarm materializes the
        // divergence point once and forks it for both.
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let hundred = p.bv_const(100, 8);
        let fifty = p.bv_const(50, 8);
        let ten = p.bv_const(10, 8);
        let pre = p.ult(x, hundred);
        let c = p.ult(x, fifty);
        let not_c = p.uge(x, fifty);
        let d = p.ult(y, ten);
        let mut s = Solver::new(SolverConfig { use_incremental: true, ctx_fork: true, ..bare() });
        let p1 = [pre, c];
        let p2 = [pre, not_c];
        let tokens = s.prewarm_contexts(&p, &[(&p1, None), (&p2, None)]);
        assert_eq!(tokens.len(), 2);
        assert!(tokens.iter().all(|&t| t > 0), "the shared trunk warms both lineages");
        assert_eq!(s.stats().ctx_rebuilds, 1, "the shared [pre] trunk is blasted exactly once");
        assert_eq!(s.stats().ctx_forks, 0, "tails are extended lazily, not built eagerly");
        // Prewarming the same batch again is free: the trunk exact-hits.
        let again = s.prewarm_contexts(&p, &[(&p1, None), (&p2, None)]);
        assert!(again.iter().all(|&t| t > 0));
        assert_eq!(s.stats().ctx_rebuilds, 1);
        // First queries: lineage 1 must FORK the trunk (the seeded
        // sibling evidence says lineage 2 will come back for it), and
        // lineage 2 then consumes the still-warm trunk — no rebuild.
        assert!(s.check_assuming(&p, &p1, d).is_sat());
        assert_eq!(s.stats().ctx_forks, 1, "seeded evidence must make the first tail fork");
        assert!(s.check_assuming(&p, &p2, d).is_sat());
        assert_eq!(s.stats().ctx_rebuilds, 1, "no lineage re-blasts the shared prefix");
    }

    #[test]
    fn prewarm_is_a_no_op_when_incremental_is_off() {
        let mut p = pool();
        let x = p.input("x", 8);
        let ten = p.bv_const(10, 8);
        let pre = p.ult(x, ten);
        let mut s = Solver::new(bare()); // use_incremental: false
        let tokens = s.prewarm_contexts(&p, &[(&[pre], None)]);
        assert_eq!(tokens, vec![0]);
        assert_eq!(s.stats().ctx_rebuilds, 0);
    }

    #[test]
    fn prewarm_duplicate_seeds_still_form_a_shared_trunk() {
        // Two migrated siblings whose donor only had the shared trunk
        // resident carry *identical* seeds. The trunk must still be
        // built (a seed occurring twice is itself a divergence point)
        // and seeded with each state's next pc conjunct as evidence, so
        // the first lineage forks instead of moving the trunk away.
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let hundred = p.bv_const(100, 8);
        let fifty = p.bv_const(50, 8);
        let ten = p.bv_const(10, 8);
        let pre = p.ult(x, hundred);
        let c = p.ult(x, fifty);
        let not_c = p.uge(x, fifty);
        let d = p.ult(y, ten);
        let mut s = Solver::new(SolverConfig { use_incremental: true, ctx_fork: true, ..bare() });
        let seed = [pre];
        let tokens = s.prewarm_contexts(&p, &[(&seed, Some(c)), (&seed, Some(not_c))]);
        assert!(tokens.iter().all(|&t| t > 0), "the duplicated seed must materialize");
        assert_eq!(s.stats().ctx_rebuilds, 1, "one trunk build for both seeds");
        // Lineage 1 extends the trunk: the next-conjunct evidence must
        // make it fork, leaving the trunk warm for lineage 2.
        assert!(s.check_assuming(&p, &[pre, c], d).is_sat());
        assert_eq!(s.stats().ctx_forks, 1, "evidence from the duplicate seed forces a fork");
        assert!(s.check_assuming(&p, &[pre, not_c], d).is_sat());
        assert_eq!(s.stats().ctx_rebuilds, 1, "lineage 2 must find the trunk warm");
    }

    #[test]
    fn affinity_tokens_are_monotone_and_deterministic() {
        let mut p = pool();
        let x = p.input("x", 8);
        let ten = p.bv_const(10, 8);
        let five = p.bv_const(5, 8);
        let pre = p.ult(x, ten);
        let c = p.ugt(x, five);
        let run = || {
            let mut s =
                Solver::new(SolverConfig { use_incremental: true, ctx_fork: true, ..bare() });
            assert_eq!(s.last_affinity(), 0, "no context activity yet");
            let _ = s.check_assuming(&p, &[pre], c);
            let t1 = s.last_affinity();
            let _ = s.check_assuming(&p, &[pre, c], c);
            let t2 = s.last_affinity();
            assert!(t2 > t1, "affinity grows with context activity");
            (t1, t2)
        };
        assert_eq!(run(), run(), "tokens derive from deterministic counters");
    }

    #[test]
    fn dead_context_prefix_feeds_the_cex_cache() {
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let five = p.bv_const(5, 8);
        let ten = p.bv_const(10, 8);
        let a = p.ult(x, five);
        let b = p.ugt(x, ten);
        let c = p.ult(y, five);
        let mut s =
            Solver::new(SolverConfig { use_incremental: true, use_cex_cache: true, ..bare() });
        // The prefix {a, b} itself is unsat: the context dies and donates
        // the prefix (not the full query) as an unsat core.
        assert!(s.check_assuming(&p, &[a, b], c).is_unsat());
        // Any superset of {a, b} is now answered without solving.
        let calls = s.stats().sat_calls;
        assert!(s.check(&p, &[a, b]).is_unsat());
        assert_eq!(s.stats().sat_calls, calls);
        assert!(s.stats().cex_unsat_hits >= 1);
    }

    #[test]
    fn canonical_models_agree_across_all_paths() {
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let hundred = p.bv_const(100, 8);
        let three = p.bv_const(3, 8);
        let c1 = p.ugt(x, hundred); // canonical x = 101
        let c2 = p.ugt(y, three); // canonical y = 4
        let canonical = |cfg: SolverConfig| SolverConfig { canonical_models: true, ..cfg };
        let mut sliced = Solver::new(canonical(SolverConfig { use_independence: true, ..bare() }));
        let mut mono = Solver::new(canonical(bare()));
        let mut inc = Solver::new(canonical(SolverConfig { use_incremental: true, ..bare() }));
        let want = |r: SatResult| match r {
            SatResult::Sat(m) => m,
            o => panic!("expected sat, got {o:?}"),
        };
        let m1 = want(sliced.check(&p, &[c1, c2]));
        let m2 = want(mono.check(&p, &[c1, c2]));
        let m3 = want(inc.check_assuming(&p, &[c1], c2));
        assert_eq!(m1, m2, "sliced vs monolithic canonical models differ");
        assert_eq!(m1, m3, "re-blast vs incremental canonical models differ");
        assert_eq!(m1.value_by_name(&p, "x"), Some(101));
        assert_eq!(m1.value_by_name(&p, "y"), Some(4));
    }

    #[test]
    fn check_assuming_matches_check_without_incremental() {
        let mut p = pool();
        let x = p.input("x", 8);
        let ten = p.bv_const(10, 8);
        let pre = p.ult(x, ten);
        let five = p.bv_const(5, 8);
        let extra = p.ugt(x, five);
        let mut s = Solver::new(bare()); // use_incremental: false
        let via_assuming = s.check_assuming(&p, &[pre], extra);
        let mut s2 = Solver::new(bare());
        let via_check = s2.check(&p, &[pre, extra]);
        assert_eq!(via_assuming.is_sat(), via_check.is_sat());
        assert_eq!(s.stats().ctx_rebuilds, 0, "fallback must not build contexts");
    }

    #[test]
    fn partition_groups_by_shared_symbols() {
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let z = p.input("z", 8);
        let one = p.bv_const(1, 8);
        let cx = p.ult(x, one);
        let cxy = p.ult(x, y);
        let cz = p.ult(z, one);
        let mut memo = HashMap::new();
        let groups = partition_by_inputs(&p, &[cx, cxy, cz], &mut memo);
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
        // The memo now covers every conjunct; a second partition serves
        // the symbol walks from it and must agree.
        assert_eq!(memo.len(), 3);
        assert_eq!(partition_by_inputs(&p, &[cx, cxy, cz], &mut memo), groups);
    }

    #[test]
    fn may_be_sat_treats_unknown_as_true() {
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let prod = p.mul(x, y);
        let target = p.bv_const(143, 8);
        let c = p.eq(prod, target);
        let mut s = Solver::new(SolverConfig { max_conflicts: Some(1), ..Default::default() });
        // Whatever the outcome (Unknown or Sat within a single conflict),
        // may_be_sat_assuming must not claim unsat.
        assert!(s.may_be_sat_assuming(&p, &[], c));
    }

    #[test]
    fn stats_accumulate() {
        let mut p = pool();
        let x = p.input("x", 8);
        let k = p.bv_const(200, 8);
        let c = p.ugt(x, k);
        let mut s = Solver::new(Default::default());
        let _ = s.check(&p, &[c]);
        assert_eq!(s.stats().queries, 1);
        assert!(s.stats().time > Duration::ZERO);
    }

    #[test]
    fn cache_time_is_contained_in_time_beside_sat_time() {
        let mut p = pool();
        let x = p.input("x", 8);
        let ten = p.bv_const(10, 8);
        let five = p.bv_const(5, 8);
        let pre = p.ult(x, ten);
        let c = p.ugt(x, five);
        let mut s = Solver::new(Default::default());
        for _ in 0..3 {
            assert!(s.check(&p, &[pre, c]).is_sat()); // repeats exercise the caches
            assert!(s.check_assuming(&p, &[pre], c).is_sat());
        }
        let st = s.stats();
        assert!(st.cache_hits > 0, "repeat queries must hit the exact cache");
        assert!(
            st.time >= st.sat_time + st.cache_time + st.route_time,
            "cache_time ({:?}), sat_time ({:?}) and route_time ({:?}) are disjoint slices \
             of time ({:?})",
            st.cache_time,
            st.sat_time,
            st.route_time,
            st.time
        );
        assert!(
            st.route_time > std::time::Duration::ZERO,
            "queries that reached a solving path must have accrued routing time"
        );
    }

    #[test]
    fn tier_gate_skips_cex_scans_on_small_context_queries() {
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let five = p.bv_const(5, 8);
        let ten = p.bv_const(10, 8);
        let a = p.ult(x, five);
        let b = p.ugt(x, ten);
        let c = p.ult(y, five);
        let run = |tier_gate: usize| {
            let mut s = Solver::new(SolverConfig {
                use_incremental: true,
                use_cex_cache: true,
                tier_gate,
                ..bare()
            });
            // Warm a context covering the full prefix [a] (the first
            // context-served query rebuilds; partial or cold coverage
            // is never gated).
            assert!(s.check_assuming(&p, &[a], c).is_sat());
            // Seed a stored core via the (never gated) re-blast path.
            assert!(s.check(&p, &[a, b]).is_unsat());
            // A fully-warm context-served superset query of the core:
            // with the gate at or above its size the cex scan is
            // skipped and the verdict comes from the warm context;
            // ungated it comes from the stored core.
            assert!(s.check_assuming(&p, &[a], b).is_unsat());
            s.stats().cex_unsat_hits
        };
        assert_eq!(run(0), 1, "ungated reference answers from the stored core");
        assert_eq!(run(64), 0, "gated query must bypass the cex scan");
    }

    #[test]
    fn carried_norm_set_fast_path_matches_full_normalization() {
        // The second query walks the carried-set fast path (the [pre]
        // context is resident) and must land on the exact-cache entry
        // the first query stored under the full `set_hash` — which pins
        // the incremental hash to the from-scratch hash.
        let mut p = pool();
        let x = p.input("x", 8);
        let ten = p.bv_const(10, 8);
        let five = p.bv_const(5, 8);
        let pre = p.ult(x, ten);
        let c = p.ugt(x, five);
        let t = p.true_();
        let mut s = Solver::new(SolverConfig { use_incremental: true, use_cache: true, ..bare() });
        assert!(s.check_assuming(&p, &[pre], c).is_sat());
        assert!(s.check_assuming(&p, &[pre], c).is_sat());
        assert_eq!(s.stats().cache_hits, 1, "fast-path hash must match the stored key");
        // Trivial queries keep their uncounted early exits on the fast
        // path: constant-true extra over a resident empty-set prefix.
        let queries = s.stats().queries;
        assert!(s.check_assuming(&p, &[t], t).is_sat());
        assert_eq!(s.stats().queries, queries, "trivial query must stay uncounted");
    }

    /// The default is a constant, field for field the literal the
    /// `mergebench` harness writes out (an exhaustive literal, so a new
    /// field fails to compile here until its default is pinned).
    #[test]
    fn default_equals_the_benchmark_literal() {
        let literal = SolverConfig {
            use_cache: true,
            use_model_reuse: true,
            use_independence: true,
            use_cex_cache: true,
            cex_prefilter: true,
            tier_gate: 64,
            use_incremental: true,
            ctx_fork: true,
            sat_ccmin: true,
            ite_factor: true,
            canonical_models: false,
            max_conflicts: None,
            retry_ladder: vec![4, 16],
            model_history: 32,
            max_contexts: 64,
            ctx_evict_by_clauses: true,
            max_context_clauses: 1_000_000,
            cex_capacity: 256,
            shared_cache: true,
        };
        assert_eq!(SolverConfig::default(), literal);
    }

    #[test]
    fn ladder_budgets_multiply_and_cap() {
        assert_eq!(ladder_budget(100, 4), 400);
        assert_eq!(ladder_budget(100, 16), 1600);
        assert_eq!(ladder_budget(0, 16), 0);
        assert_eq!(ladder_budget(1, 1), 1);
        // The cap clamps both plain overshoot and saturating overflow.
        assert_eq!(ladder_budget(RETRY_BUDGET_CAP, 2), RETRY_BUDGET_CAP);
        assert_eq!(ladder_budget(u64::MAX, u64::MAX), RETRY_BUDGET_CAP);
        assert_eq!(ladder_budget((1 << 30) - 1, 1), (1 << 30) - 1);
    }

    #[test]
    fn retry_ladder_recovers_a_budget_unknown() {
        // x * y == 143 ∧ x < y needs real CDCL search (measured by an
        // unbudgeted probe); a base budget below its conflict cost
        // returns Unknown, and the ladder's escalated rung decides it.
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let prod = p.mul(x, y);
        let target = p.bv_const(143, 8);
        let query = [p.eq(prod, target), p.ult(x, y)];
        let mut probe = Solver::new(bare());
        assert!(probe.check(&p, &query).is_sat());
        let cost = probe.stats().conflicts;
        assert!(cost >= 4, "instance too easy to exercise the ladder ({cost} conflicts)");
        let mut s = Solver::new(SolverConfig {
            max_conflicts: Some(1),
            retry_ladder: vec![1 << 20],
            ..bare()
        });
        let result = s.check(&p, &query);
        assert!(result.is_sat(), "the escalated rung must decide the query");
        assert!(s.stats().retry_attempts >= 1);
        assert_eq!(s.stats().retry_recovered, 1);
        assert_eq!(s.stats().unknown, 0, "a recovered query is not an Unknown");
    }

    #[test]
    fn forced_unknowns_are_result_transparent() {
        // Forcing every query's first answer to Unknown must not change
        // any verdict or model: each forced Unknown gets an
        // injection-free recovery rung at the base budget — even with
        // the ladder disabled.
        let mut p = pool();
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let ten = p.bv_const(10, 8);
        let five = p.bv_const(5, 8);
        let queries: Vec<Vec<ExprId>> = vec![
            vec![p.ult(x, ten)],
            vec![p.ult(x, five), p.ugt(x, ten)],
            vec![p.ugt(y, five), p.ult(y, ten)],
        ];
        let cfg = SolverConfig {
            canonical_models: true,
            retry_ladder: Vec::new(),
            use_cache: false,
            ..bare()
        };
        let mut plain = Solver::new(cfg.clone());
        let mut faulty = Solver::new(cfg);
        faulty.set_forced_unknowns(1, 1, 0xFEED);
        for q in &queries {
            assert_eq!(plain.check(&p, q), faulty.check(&p, q), "forcing changed a verdict");
        }
        assert_eq!(faulty.stats().forced_unknowns, queries.len() as u64);
        assert_eq!(faulty.stats().retry_recovered, queries.len() as u64);
        assert_eq!(faulty.stats().unknown, 0);
        assert_eq!(plain.stats().forced_unknowns, 0);
    }

    #[test]
    fn forced_unknown_stream_is_seed_deterministic() {
        let draws = |seed: u64| {
            let mut s = Solver::new(bare());
            s.set_forced_unknowns(1, 4, seed);
            (0..64).map(|_| s.forced_unknown_hit()).collect::<Vec<bool>>()
        };
        assert_eq!(draws(7), draws(7), "same seed, same stream");
        assert_ne!(draws(7), draws(8), "distinct seeds must decorrelate");
        assert!(draws(7).iter().any(|&b| b), "1/4 rate must fire within 64 draws");
        assert!(!draws(7).iter().all(|&b| b), "1/4 rate must also miss");
    }

    /// The forced-`Unknown` stream is pinned draw for draw: bit `i` is
    /// the `i`-th draw at rate 1/4 and seed 7.
    #[test]
    fn forced_unknown_stream_is_pinned() {
        let mut s = Solver::new(bare());
        s.set_forced_unknowns(1, 4, 7);
        let draws = (0..64).fold(0u64, |m, i| m | u64::from(s.forced_unknown_hit()) << i);
        assert_eq!(draws, 9223948257200744450);
    }

    /// The per-element set hash is pinned value for value.
    #[test]
    fn elem_hash_is_pinned() {
        let mut p = pool();
        let ids = [p.input("x", 8), p.bv_const(3, 8), p.bv_const(200, 8)];
        let hashes: Vec<(usize, u64)> = ids.iter().map(|&id| (id.index(), elem_hash(id))).collect();
        let want = [(2, 10905525725756348110), (3, 2092789425003139053), (4, 7958955049054603978)];
        assert_eq!(hashes, want);
    }
}
