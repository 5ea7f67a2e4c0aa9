//! The symbolic execution engine — the paper's Algorithm 1, parameterized
//! by `pickNext` (a [`Strategy`]), `follow` (solver feasibility checks) and
//! `∼` (the QCE similarity relation), with static or dynamic state merging
//! layered on top.

use crate::checkpoint::{import_frontier, PortableState};
use crate::dsm::{DsmConfig, DsmIndex, DsmStats};
use crate::exec::{AssertFailure, Completion, ExecCtx};
use crate::merge::{classify_pair, merge_signature, merge_states, similar_qce, MergeConfig};
use crate::qce::{HotSet, QceAnalysis, QceConfig};
use crate::shard::{RegionId, RegionMap, StolenState};
use crate::state::{LiveState, State, StateId};
use crate::strategy::{make_strategy, Oracle, StateMeta, Strategy, StrategyKind};
use crate::testgen::{TestCase, TestKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use symmerge_expr::{ExprPool, SharedExprPool};
use symmerge_ir::{BlockId, FuncId, Instr, Program, ValidateError};
use symmerge_solver::{SatResult, SharedSolverCache, Solver, SolverConfig, SolverStats};

/// When and whether to merge states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// Never merge (plain search-based symbolic execution — the baseline).
    None,
    /// Static state merging: merge at matching locations (paper §5.4's
    /// SSM). Pair it with [`StrategyKind::Topological`], the order SSM
    /// requires.
    Static,
    /// Dynamic state merging: Algorithm 2 over the configured driving
    /// strategy.
    Dynamic,
}

/// Exploration budgets; exploration stops at whichever hits first.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budgets {
    /// Wall-clock limit.
    pub max_time: Option<Duration>,
    /// Limit on executed instructions.
    pub max_steps: Option<u64>,
    /// Limit on completed paths (merged states count once).
    pub max_completed: Option<u64>,
    /// Limit on picked states.
    pub max_picks: Option<u64>,
}

impl Budgets {
    /// Whether a run that started at `started` and has reached the
    /// `(steps, picks, completed)` totals has hit any budget — the one
    /// rule the sequential engine, the BSP coordinator and the steal
    /// fleet all stop by.
    pub(crate) fn exhausted(
        &self,
        started: Instant,
        (steps, picks, completed): (u64, u64, u64),
    ) -> bool {
        self.stops_run(started, steps)
            || self.max_picks.is_some_and(|p| picks >= p)
            || self.max_completed.is_some_and(|c| completed >= c)
    }

    /// Whether a state's run must stop before its next instruction:
    /// the time and step limits. The pick and completion totals cannot
    /// move mid-run (a completion ends the run), so the check before the
    /// pick covers them.
    fn stops_run(&self, started: Instant, steps: u64) -> bool {
        self.max_time.is_some_and(|t| started.elapsed() >= t)
            || self.max_steps.is_some_and(|s| steps >= s)
    }
}

/// Full engine configuration: the one way to configure an [`Engine`],
/// passed whole to [`EngineBuilder::config`]. Callers set the fields
/// they need and take the rest from the default:
///
/// ```
/// use symmerge_core::{EngineConfig, MergeMode, StrategyKind};
///
/// let config = EngineConfig {
///     merge_mode: MergeMode::Static,
///     strategy: StrategyKind::Topological,
///     ..EngineConfig::default()
/// };
/// ```
///
/// No field changes another: static merging pays only when states meet
/// at join points in topological order, so a static-merging caller
/// chooses [`StrategyKind::Topological`] itself.
///
/// [`EngineConfig::default`] is a constant and never reads the
/// environment; binaries that take `SYMMERGE_*` variables map them onto
/// these fields at their edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Merging mode.
    pub merge_mode: MergeMode,
    /// The (driving) search strategy.
    pub strategy: StrategyKind,
    /// QCE parameters (α, β, κ).
    pub qce: QceConfig,
    /// DSM parameters (δ).
    pub dsm: DsmConfig,
    /// Merge-operation options.
    pub merge: MergeConfig,
    /// Solver options.
    pub solver: SolverConfig,
    /// Exploration budgets.
    pub budgets: Budgets,
    /// Whether to solve for and record concrete test cases.
    pub generate_tests: bool,
    /// Context-affinity scheduling: carry the solver's affinity token
    /// ([`symmerge_solver::Solver::last_affinity`]) on each state and
    /// let ranking strategies use it as a deterministic tie-break toward
    /// states whose path-condition prefix is still resident in the
    /// solver's context tree. Affinity is derived from deterministic
    /// counters (never wall-clock), so runs remain reproducible per
    /// seed; under [`MergeMode::None`] the explored path set is
    /// schedule-invariant, so results are identical with it off.
    pub affinity_scheduling: bool,
    /// Warm-context migration (fleet workers only): when a migrated
    /// state arrives with a warm-prefix seed (the pc-conjunct prefix that
    /// was resident in the *donor's* context tree, see
    /// the `shard` module's `StolenState`), pre-warm the local solver's
    /// context tree for the whole incoming batch before any of the
    /// states run. Batching is what makes it pay: shared prefixes
    /// and divergence points across the inbox are bit-blasted **once**
    /// and forked, instead of once per migrated lineage at first query.
    /// Purely a solver-residency (and affinity-stamp) effect — results
    /// are unchanged, only rebuild counts and wall time move.
    pub warm_migration: bool,
    /// Seeded fault-injection plan ([`crate::fault`]): deterministic
    /// worker panics and forced solver `Unknown`s, for exercising the
    /// fault-tolerance layer. `None` (the default) injects nothing.
    /// Injected faults never change results — see the [`crate::fault`]
    /// module docs.
    pub fault_plan: Option<Arc<crate::fault::FaultPlan>>,
    /// Panic isolation: snapshot each picked state *before* running
    /// it, so a panic caught anywhere in the run can quarantine and
    /// re-queue the state (`Engine::drain_after_panic`) instead of
    /// losing it. The snapshot clones the state at every pick, so it is
    /// armed only when asked for: this flag, or a
    /// [`EngineConfig::fault_plan`] that schedules panics.
    pub panic_isolation: bool,
    /// Periodic checkpointing ([`crate::checkpoint`]): snapshot the
    /// run's results and frontier to a file every
    /// [`CheckpointConfig::every`] picks, so a killed run can resume
    /// and still produce the uninterrupted run's final results. `None`
    /// (the default) writes nothing.
    ///
    /// [`CheckpointConfig::every`]: crate::checkpoint::CheckpointConfig
    pub checkpoint: Option<crate::checkpoint::CheckpointConfig>,
    /// RNG seed (strategies, tie-breaking) — runs are deterministic per
    /// seed.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            merge_mode: MergeMode::None,
            strategy: StrategyKind::CoverageOptimized,
            qce: QceConfig::default(),
            dsm: DsmConfig::default(),
            merge: MergeConfig::default(),
            solver: SolverConfig::default(),
            budgets: Budgets::default(),
            generate_tests: true,
            affinity_scheduling: true,
            warm_migration: true,
            fault_plan: None,
            panic_isolation: false,
            checkpoint: None,
            seed: 0,
        }
    }
}

/// Builder for [`Engine`]: one [`EngineConfig`] value, plus the fleet
/// wiring ([`EngineBuilder::shared_pool`],
/// [`EngineBuilder::shared_solver_cache`]).
#[derive(Debug)]
pub struct EngineBuilder {
    program: Program,
    config: EngineConfig,
    shared_pool: Option<Arc<SharedExprPool>>,
    shared_cache: Option<Arc<SharedSolverCache>>,
}

impl EngineBuilder {
    /// Sets the configuration, replacing [`EngineConfig::default`].
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Interns this engine's expressions into `pool` (a fleet-shared
    /// concurrent pool) instead of a private per-engine table. `ExprId`s
    /// then resolve identically on every engine built over the same
    /// pool, so states cross worker threads directly — the substrate of
    /// every [`crate::parallel::ParallelEngine`] fleet, under both
    /// schedulers.
    pub fn shared_pool(mut self, pool: Arc<SharedExprPool>) -> Self {
        self.shared_pool = Some(pool);
        self
    }

    /// Joins a fleet-shared [`SharedSolverCache`]: the engine's solver
    /// queues fresh verdicts for it and consults a private read mirror
    /// after its own caches miss. Both move only when the caller says
    /// so: [`Engine::publish_shared_cache`] hands the queue to the
    /// store (until then it keeps growing), [`Engine::sync_shared_cache`]
    /// catches the mirror up.
    /// Requires globally stable `ExprId`s — i.e. every engine over the
    /// store must be built over the same [`EngineBuilder::shared_pool`]
    /// — since cache keys are `ExprId` sets. A no-op when [`SolverConfig::shared_cache`] is off (the
    /// fleet then builds no store at all, though its workers still
    /// share the pool), which is how `SYMMERGE_SHARED_CACHE=0` ablates
    /// the verdict store.
    pub fn shared_solver_cache(mut self, cache: Arc<SharedSolverCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Validates the program, runs the QCE static analysis, and constructs
    /// the engine.
    ///
    /// # Errors
    ///
    /// Returns the program's structural [`ValidateError`], if any.
    pub fn build(self) -> Result<Engine, ValidateError> {
        self.program.validate()?;
        Ok(Engine::from_parts(self.program, self.config, self.shared_pool, self.shared_cache))
    }
}

/// Aggregate results of one exploration run.
///
/// The same type carries a run's totals everywhere: the engine
/// accumulates into one, fleet workers report one each, and a
/// checkpoint persists a subset of one. [`RunReport::absorb`] is the
/// one place that states how two parts of a run combine.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Completed feasible paths (merged states count once).
    pub completed_paths: u64,
    /// Sum of completed-state multiplicities — the paper's §5.2 path-count
    /// proxy under merging (equals `completed_paths` without merging).
    pub completed_multiplicity: f64,
    /// Paths killed by `assume`.
    pub pruned_by_assume: u64,
    /// Assertion failures discovered.
    pub assert_failures: Vec<AssertFailure>,
    /// Generated test cases (including assertion-failure reproducers).
    pub tests: Vec<TestCase>,
    /// Completed paths / failures whose test-generation query came back
    /// [`SatResult::Unknown`] (solver budget), silently losing the test
    /// case. Nonzero values mean `tests` under-reports the explored
    /// behaviours.
    pub tests_dropped_unknown: u64,
    /// States picked from the worklist. Without merging each pick runs
    /// its state until it branches (see [`Engine::explore_step`]), and a
    /// run cut short by a budget, the caller's step allowance or a region
    /// boundary is counted by the pick that resumes it, not the one that
    /// started it: the count is then the number of runs, however rounds
    /// or budgets cut them.
    pub picks: u64,
    /// Ranked (worklist-ordering) picks the scheduler served — each one
    /// used to cost an O(n) scan; see
    /// [`SchedStats`](crate::strategy::SchedStats).
    pub sched_picks: u64,
    /// Heap maintenance performed inside ranked picks (lazy deletions
    /// discarded + stale entries recomputed and re-pushed).
    pub sched_heap_repairs: u64,
    /// Instructions executed.
    pub steps: u64,
    /// Successful merges.
    pub merges: u64,
    /// Similarity checks that failed (pairs considered but not merged).
    pub merge_rejects: u64,
    /// Largest worklist size observed.
    pub max_worklist: usize,
    /// States remaining unexplored when the run stopped.
    pub leftover_states: usize,
    /// States handed between workers at BSP round barriers (zero for a
    /// sequential run and under the steal scheduler, which counts its
    /// traffic in `stolen_states`). Kept under its historical name for
    /// the benchmark harness.
    pub envelope_exports: u64,
    /// Always 0: fleet states cross workers as `StolenState`s over one
    /// shared expression pool, so nothing is serialized. Kept for the
    /// benchmark harness.
    pub envelope_nodes: u64,
    /// Successful steal batches (steal scheduler only; zero elsewhere).
    pub steals: u64,
    /// States moved by those steal batches.
    pub stolen_states: u64,
    /// Times an idle worker found nothing to steal and had to back off
    /// (steal scheduler only) — the residual idleness the scheduler
    /// could not fill.
    pub idle_waits: u64,
    /// States quarantined out of panicking workers and re-queued for
    /// the surviving fleet to finish (the fault-tolerance layer's
    /// `Engine::drain_after_panic`; zero without worker panics).
    /// Quarantine changes *which* worker finishes a state, never the
    /// result set.
    pub quarantined_states: u64,
    /// Covered basic blocks.
    pub covered_blocks: usize,
    /// Total basic blocks in the program.
    pub total_blocks: usize,
    /// Fast-forwarding picks that subsequently merged (paper §5.5).
    pub ff_merged: u64,
    /// DSM scheduling counters.
    pub dsm: DsmStats,
    /// Solver counters. `solver.time` splits into `sat_time` (SAT search
    /// proper) and `cache_time` (cache-tier bookkeeping) plus a routing
    /// remainder — use those, not `time` alone, when attributing wall
    /// clock between solving and caching.
    pub solver: SolverStats,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Whether a budget stopped the run before exhaustion.
    pub hit_budget: bool,
}

impl RunReport {
    /// Statement (block) coverage in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total_blocks == 0 {
            return 0.0;
        }
        self.covered_blocks as f64 / self.total_blocks as f64
    }

    /// The §5.5 fast-forwarding success rate, if DSM ran.
    pub fn ff_success_rate(&self) -> Option<f64> {
        if self.dsm.ff_picks == 0 {
            return None;
        }
        Some(self.ff_merged as f64 / self.dsm.ff_picks as f64)
    }

    /// Folds another part of the same run into this one: a fleet
    /// worker's report, a crashed worker's final totals, or the totals
    /// a resumed checkpoint carried. This is where each field's
    /// reduction is stated. Counters sum; `max_worklist`, `wall_time`
    /// and `total_blocks` take the maximum; `hit_budget` is an or; test
    /// and failure lists concatenate in call order. `covered_blocks` is
    /// left alone, because a count cannot be unioned:
    /// [`ShardOutput::fold`] recounts it from the covered pairs.
    pub fn absorb(&mut self, other: &RunReport) {
        // Exhaustive, so a new field does not compile until its
        // reduction is chosen here.
        let RunReport {
            completed_paths,
            completed_multiplicity,
            pruned_by_assume,
            assert_failures,
            tests,
            tests_dropped_unknown,
            picks,
            sched_picks,
            sched_heap_repairs,
            steps,
            merges,
            merge_rejects,
            max_worklist,
            leftover_states,
            envelope_exports,
            envelope_nodes,
            steals,
            stolen_states,
            idle_waits,
            quarantined_states,
            covered_blocks: _,
            total_blocks,
            ff_merged,
            dsm,
            solver,
            wall_time,
            hit_budget,
        } = other;
        self.completed_paths += completed_paths;
        self.completed_multiplicity += completed_multiplicity;
        self.pruned_by_assume += pruned_by_assume;
        self.assert_failures.extend(assert_failures.iter().cloned());
        self.tests.extend(tests.iter().cloned());
        self.tests_dropped_unknown += tests_dropped_unknown;
        self.picks += picks;
        self.sched_picks += sched_picks;
        self.sched_heap_repairs += sched_heap_repairs;
        self.steps += steps;
        self.merges += merges;
        self.merge_rejects += merge_rejects;
        self.max_worklist = self.max_worklist.max(*max_worklist);
        self.leftover_states += leftover_states;
        self.envelope_exports += envelope_exports;
        self.envelope_nodes += envelope_nodes;
        self.steals += steals;
        self.stolen_states += stolen_states;
        self.idle_waits += idle_waits;
        self.quarantined_states += quarantined_states;
        self.total_blocks = self.total_blocks.max(*total_blocks);
        self.ff_merged += ff_merged;
        self.dsm.absorb(dsm);
        self.solver.absorb(solver);
        self.wall_time = self.wall_time.max(*wall_time);
        self.hit_budget |= hit_budget;
    }
}

/// One part of a run's results: a fleet worker's report, or the totals
/// a checkpoint carries, plus the concrete covered-block set (the report
/// only carries the count, but combining parts needs the elements).
#[derive(Debug, Clone, Default)]
pub struct ShardOutput {
    /// The part's report.
    pub report: RunReport,
    /// Covered `(func, block)` pairs, sorted.
    pub covered: Vec<(u32, u32)>,
}

impl ShardOutput {
    /// Combines the parts of one run, in the given order, through
    /// [`RunReport::absorb`]. The covered pairs are unioned and
    /// `covered_blocks` is their count.
    pub fn fold<'a>(parts: impl IntoIterator<Item = &'a ShardOutput>) -> ShardOutput {
        let mut out = ShardOutput::default();
        for part in parts {
            out.report.absorb(&part.report);
            out.covered.extend_from_slice(&part.covered);
        }
        out.covered.sort_unstable();
        out.covered.dedup();
        out.report.covered_blocks = out.covered.len();
        out
    }
}

/// The outcome of one [`Engine::explore_step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreStep {
    /// A state was picked and (unless it was stale) run; the engine can
    /// step again.
    Progressed,
    /// The worklist is empty: exploration is exhausted.
    Exhausted,
    /// A configured [`Budgets`] limit tripped before the pick.
    BudgetExhausted,
}

/// Shard-mode bookkeeping (see [`crate::parallel`]): which regions this
/// engine owns, the outbox of states that crossed into foreign regions,
/// and the sequence its hand-offs are numbered by. Region membership is
/// not indexed: the coordinator asks for it once per round
/// ([`Engine::held_counts`], [`Engine::set_region_map`]), and one pass
/// over the worklist answers it.
struct ShardCtl {
    me: u32,
    owner: RegionMap,
    /// Free placement (no region ownership): every integration is local
    /// and the coordinator steals by count instead of by region. Used
    /// for [`MergeMode::None`], where no states ever merge and therefore
    /// no two states ever need to be co-located.
    free: bool,
    outbox: Vec<StolenState>,
    seq: u64,
}

/// The symbolic execution engine.
pub struct Engine {
    program: Program,
    pool: ExprPool,
    solver: Solver,
    /// The QCE tables and the per-function CFG facts they were built on.
    qce: QceAnalysis,
    config: EngineConfig,
    strategy: Box<dyn Strategy + Send>,
    /// Present iff merging dynamically: Algorithm 2's laggard index,
    /// consulted before `strategy` at every pick.
    dsm: Option<DsmIndex>,
    /// The worklist.
    states: HashMap<StateId, LiveState>,
    /// Present iff merging: the live states by control key, which is
    /// where merge candidates come from.
    by_control: Option<HashMap<u64, Vec<StateId>>>,
    hot_cache: HashMap<u64, Arc<HotSet>>,
    covered: HashSet<(FuncId, BlockId)>,
    /// Bumped whenever a new block is covered — the coverage generation
    /// heap strategies stamp their cached distance keys with.
    cov_gen: u64,
    dist_cache: Option<HashMap<(FuncId, BlockId), u32>>,
    rng: StdRng,
    next_id: u64,
    /// Set when the first state is seeded; budgets and `wall_time`
    /// measure from here.
    started: Option<Instant>,
    /// Present iff this engine runs as one shard of a
    /// [`crate::parallel::ParallelEngine`].
    shard: Option<ShardCtl>,
    /// This engine's worker index in the fault plan's coordinate system
    /// (0 for a sequential run; [`Engine::set_fault_worker`] re-aims it
    /// for fleet workers).
    fault_worker: u32,
    /// The steal fleet's shared pick sequence, which replaces the local
    /// pick index as the panic coordinate there (see [`crate::fault`]);
    /// `None` on sequential engines and BSP workers.
    fault_clock: Option<Arc<AtomicU64>>,
    /// Panic-isolation snapshot of the state currently being stepped,
    /// with the history and flag its successors inherit: exactly what
    /// [`Engine::integrate`] needs to re-queue it after a caught panic.
    in_flight: Option<LiveState>,
    /// Set by [`Engine::restore_checkpoint`]; [`Engine::run`] then skips
    /// seeding the initial state (the restored frontier already holds
    /// the live work).
    resumed: bool,
    /// The run's totals so far. Its gauge fields (coverage, scheduler,
    /// DSM and solver stats, wall time, budget flag) stay at their
    /// defaults; [`Engine::report`] fills them in.
    totals: RunReport,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("worklist", &self.states.len())
            .field("picks", &self.totals.picks)
            .finish()
    }
}

// The BSP coordinator reads and drains worker engines at its round
// barriers, so an engine must be able to live behind a shared lock.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Engine>();
};

struct OracleImpl<'a> {
    program: &'a Program,
    covered: &'a HashSet<(FuncId, BlockId)>,
    cov_gen: u64,
    dist_cache: &'a mut Option<HashMap<(FuncId, BlockId), u32>>,
    rng: &'a mut StdRng,
}

impl Oracle for OracleImpl<'_> {
    fn distance_to_uncovered(&mut self, func: FuncId, block: BlockId) -> Option<u32> {
        if self.dist_cache.is_none() {
            *self.dist_cache = Some(compute_distances(self.program, self.covered));
        }
        self.dist_cache.as_ref().unwrap().get(&(func, block)).copied()
    }

    fn coverage_generation(&self) -> u64 {
        // Distances are a pure function of the covered set, which only
        // grows — so within one generation they are stable, and across
        // generations non-decreasing (the heap strategies' contract).
        self.cov_gen
    }

    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// Distance (in blocks, descending into calls) to the nearest uncovered
/// block, via a Bellman-Ford-style fixpoint over all `(func, block)` nodes.
fn compute_distances(
    program: &Program,
    covered: &HashSet<(FuncId, BlockId)>,
) -> HashMap<(FuncId, BlockId), u32> {
    const INF: u32 = u32::MAX / 4;
    let mut dist: HashMap<(FuncId, BlockId), u32> = HashMap::new();
    for (fi, f) in program.functions.iter().enumerate() {
        for bi in 0..f.blocks.len() {
            let key = (FuncId(fi as u32), BlockId(bi as u32));
            dist.insert(key, if covered.contains(&key) { INF } else { 0 });
        }
    }
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 64 {
        changed = false;
        rounds += 1;
        for (fi, f) in program.functions.iter().enumerate() {
            for (bi, b) in f.blocks.iter().enumerate() {
                let key = (FuncId(fi as u32), BlockId(bi as u32));
                let mut best = dist[&key];
                for s in b.terminator.successors() {
                    let d = dist[&(FuncId(fi as u32), s)];
                    best = best.min(d.saturating_add(1));
                }
                for instr in &b.instrs {
                    if let Instr::Call { func, .. } = instr {
                        let d = dist[&(*func, BlockId(0))];
                        best = best.min(d.saturating_add(1));
                    }
                }
                if best < dist[&key] {
                    dist.insert(key, best);
                    changed = true;
                }
            }
        }
    }
    dist.retain(|_, &mut d| d < INF);
    dist
}

impl Engine {
    /// Starts building an engine for a program, under
    /// [`EngineConfig::default`] until [`EngineBuilder::config`] sets
    /// another: `Engine::builder(program).config(config).build()`.
    pub fn builder(program: Program) -> EngineBuilder {
        EngineBuilder {
            program,
            config: EngineConfig::default(),
            shared_pool: None,
            shared_cache: None,
        }
    }

    fn from_parts(
        program: Program,
        config: EngineConfig,
        shared_pool: Option<Arc<SharedExprPool>>,
        shared_cache: Option<Arc<SharedSolverCache>>,
    ) -> Engine {
        let qce = QceAnalysis::run(&program, config.qce);
        let pool = match shared_pool {
            Some(shared) => {
                debug_assert_eq!(
                    shared.default_width(),
                    program.width,
                    "shared pool width must match the program"
                );
                shared.handle()
            }
            None => ExprPool::new(program.width),
        };
        let mut solver = Solver::new(config.solver.clone());
        if let Some(cache) = shared_cache {
            debug_assert!(
                pool.is_shared(),
                "a shared solver cache requires the shared expression pool \
                 (cache keys are ExprId sets, which must be globally stable)"
            );
            solver.attach_shared_cache(cache);
        }
        // Worker 0 is the construction-time default coordinate, which a
        // sequential run keeps; fleet workers re-aim via
        // `set_fault_worker`, which re-derives this stream per worker.
        if let Some((num, den, seed)) = config.fault_plan.as_ref().and_then(|p| p.unknown_spec(0)) {
            solver.set_forced_unknowns(num, den, seed);
        }
        let rng = StdRng::seed_from_u64(config.seed);
        Engine {
            program,
            pool,
            solver,
            qce,
            strategy: make_strategy(config.strategy),
            dsm: (config.merge_mode == MergeMode::Dynamic).then(|| DsmIndex::new(config.dsm)),
            states: HashMap::new(),
            by_control: (config.merge_mode != MergeMode::None).then(HashMap::new),
            hot_cache: HashMap::new(),
            covered: HashSet::new(),
            cov_gen: 0,
            dist_cache: None,
            rng,
            next_id: 0,
            started: None,
            shard: None,
            fault_worker: 0,
            fault_clock: None,
            in_flight: None,
            resumed: false,
            totals: RunReport::default(),
            config,
        }
    }

    /// The expression pool (for inspecting report expressions).
    pub fn pool(&self) -> &ExprPool {
        &self.pool
    }

    /// The program under execution.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The QCE analysis computed at build time.
    pub fn qce(&self) -> &QceAnalysis {
        &self.qce
    }

    fn fresh_id(&mut self) -> StateId {
        let id = StateId(self.next_id);
        self.next_id += 1;
        id
    }

    fn meta_for(&self, state: &State) -> StateMeta {
        let (func, block, _) = state.loc();
        let topo = state
            .frames
            .iter()
            .map(|f| {
                // Loop-aware topological position: a loop's body orders
                // before its exits, so SSM finishes loops before join
                // points beyond them (plain RPO would do the opposite).
                let pos = self.qce.cfgs[f.func.index()].topo_index[f.block.index()];
                (pos, f.instr)
            })
            .collect();
        // Zeroing the stamp (rather than skipping it downstream) is the
        // ablation: strategies see uniform affinity and fall back to
        // their pre-affinity tie-breaks.
        let affinity = if self.config.affinity_scheduling { state.affinity } else { 0 };
        StateMeta { func, block, topo, steps: state.steps, affinity }
    }

    fn hot_set_for(&mut self, state: &State) -> Arc<HotSet> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (f, b) in state.stack_blocks() {
            (f.0, b.0).hash(&mut h);
        }
        let key = h.finish();
        if let Some(hot) = self.hot_cache.get(&key) {
            return hot.clone();
        }
        let hot = Arc::new(self.qce.hot_set(&self.program, &state.stack_blocks()));
        self.hot_cache.insert(key, hot.clone());
        hot
    }

    fn mark_covered(&mut self, state: &State) {
        let (func, block, _) = state.loc();
        if self.covered.insert((func, block)) {
            self.dist_cache = None;
            self.cov_gen += 1;
        }
    }

    /// Whether this engine explores `state` where it stands: always,
    /// unless it is a shard under region placement and another worker
    /// owns the state's region.
    fn owns(&self, state: &State) -> bool {
        !self
            .shard
            .as_ref()
            .is_some_and(|ctl| !ctl.free && ctl.owner.owner_of(self.region_of(state)) != ctl.me)
    }

    /// The state's topological region: the loop-aware topo index of its
    /// outermost frame's block. Merge candidates (equal control keys)
    /// always share a region, so region sharding never splits them.
    fn region_of(&self, state: &State) -> RegionId {
        let f = &state.frames[0];
        self.qce.cfgs[f.func.index()].topo_index[f.block.index()]
    }

    /// Inserts a new state into the worklist, first attempting to merge it
    /// with a matching state (Algorithm 1, lines 17–22).
    ///
    /// In shard mode, a state whose region this engine does not own is
    /// handed off to the outbox instead; the owning worker integrates it
    /// (and marks its coverage) on the next round.
    fn integrate(&mut self, live: LiveState) {
        if !self.owns(&live.state) {
            let out = self.hand_off(live);
            self.shard.as_mut().expect("checked above").outbox.push(out);
            return;
        }
        let state = &live.state;
        self.mark_covered(state);
        let hot = self.by_control.is_some().then(|| self.hot_set_for(state));
        if let Some(hot) = &hot {
            let ck = state.control_key();
            let candidates: Vec<StateId> =
                self.by_control.as_ref().and_then(|m| m.get(&ck)).cloned().unwrap_or_default();
            for cand_id in candidates {
                let id = self.fresh_id();
                let cand = &self.states[&cand_id];
                // Output traces merge element-wise, so lengths must match.
                if cand.state.outputs.len() != state.outputs.len() {
                    continue;
                }
                let similar = match self.config.qce.zeta {
                    // The prototype criterion (Eq. 1): hot-variable set.
                    None => similar_qce(&self.pool, hot, state, &cand.state),
                    // The full §3.3 criterion (Eq. 7) pricing introduced ites.
                    Some(zeta) => self.qce.similar_full(
                        &self.program,
                        &state.stack_blocks(),
                        zeta,
                        |fi, key| classify_pair(&self.pool, state, &cand.state, fi, key),
                    ),
                };
                if similar {
                    let merged =
                        merge_states(&mut self.pool, self.config.merge, state, &cand.state, id);
                    self.totals.merges += 1;
                    if live.ff || cand.ff {
                        self.totals.ff_merged += 1;
                    }
                    self.remove_from_worklist(cand_id, false);
                    // A merged state starts a fresh history: its signature
                    // changed discontinuously. Try to cascade with further
                    // candidates.
                    return self.integrate(LiveState::fresh(merged));
                }
                self.totals.merge_rejects += 1;
            }
        }
        let id = state.id;
        let meta = self.meta_for(state);
        if let Some(dsm) = self.dsm.as_mut() {
            // The state was not merged above, so `hot` is its own
            // hot set (dynamic merging always computes one).
            let hot = hot.as_deref().expect("dynamic merging computes the hot set");
            let sig = merge_signature(&self.pool, hot, state);
            dsm.add(id, meta.clone(), sig, &live.history);
        }
        self.strategy.add(id, meta);
        if let Some(by_control) = self.by_control.as_mut() {
            by_control.entry(state.control_key()).or_default().push(id);
        }
        self.states.insert(id, live);
        self.totals.max_worklist = self.totals.max_worklist.max(self.states.len());
    }

    /// Takes `id` out of the worklist and every index over it and returns
    /// its record. `picked` says the strategy already dropped `id` when it
    /// picked it; the record then comes back ready for the successors:
    /// under DSM the state's own signature joins its history, and a
    /// fast-forward pick sets its flag.
    fn remove_from_worklist(&mut self, id: StateId, picked: bool) -> Option<LiveState> {
        let mut live = self.states.remove(&id)?;
        if let Some(by_control) = self.by_control.as_mut() {
            let ck = live.state.control_key();
            if let Some(v) = by_control.get_mut(&ck) {
                v.retain(|&x| x != id);
                if v.is_empty() {
                    by_control.remove(&ck);
                }
            }
        }
        if !picked {
            self.strategy.remove(id);
        }
        if let Some(dsm) = self.dsm.as_mut() {
            let removed = dsm.remove(id, &live.history);
            if let Some((sig, was_ff)) = removed.filter(|_| picked) {
                live.ff |= was_ff;
                dsm.push_history(&mut live.history, sig);
            }
        }
        Some(live)
    }

    fn record_completion(&mut self, state: State, completion: Completion) {
        match completion {
            Completion::AssumeViolated => {
                self.totals.pruned_by_assume += 1;
                return;
            }
            Completion::Halted | Completion::Returned => {}
        }
        self.totals.completed_paths += 1;
        self.totals.completed_multiplicity += state.multiplicity;
        if self.config.generate_tests {
            let kind = match completion {
                Completion::Halted => TestKind::Halted,
                Completion::Returned => TestKind::Returned,
                Completion::AssumeViolated => unreachable!(),
            };
            // The pc was just explored, so the incremental context for it
            // is typically still warm: query it prefix-shaped.
            let t = self.pool.true_();
            match self.solver.check_assuming(&self.pool, &state.pc, t) {
                SatResult::Sat(model) => {
                    self.totals.tests.push(TestCase::from_model(
                        &self.pool,
                        &model,
                        &state.pc,
                        &state.outputs,
                        kind,
                    ));
                }
                SatResult::Unknown => self.totals.tests_dropped_unknown += 1,
                SatResult::Unsat => {}
            }
        }
    }

    fn record_failure(&mut self, failure: AssertFailure, outputs: &[symmerge_expr::ExprId]) {
        if self.config.generate_tests {
            // failure.pc is the state's pc plus the negated assertion. The
            // state *continues* with the assertion's positive side, so the
            // negation must be assumed — not asserted — to keep the warm
            // incremental context reusable for the surviving path; and it
            // is a probe (no state will ever extend the pc by it).
            let (prefix, last) = failure.pc.split_at(failure.pc.len().saturating_sub(1));
            let extra = last.first().copied().unwrap_or_else(|| self.pool.true_());
            match self.solver.check_assuming_probe(&self.pool, prefix, extra) {
                SatResult::Sat(model) => {
                    self.totals.tests.push(TestCase::from_model(
                        &self.pool,
                        &model,
                        &failure.pc,
                        outputs,
                        TestKind::AssertFailure { msg: failure.msg.clone() },
                    ));
                }
                SatResult::Unknown => self.totals.tests_dropped_unknown += 1,
                SatResult::Unsat => {}
            }
        }
        self.totals.assert_failures.push(failure);
    }

    /// Seeds the worklist with the program's initial state and starts the
    /// budget clock. [`Engine::run`] calls this automatically; call it
    /// directly only when driving the engine step-by-step with
    /// [`Engine::explore_step`].
    pub fn seed_initial(&mut self) {
        self.started.get_or_insert_with(Instant::now);
        let initial_id = self.fresh_id();
        let initial = State::initial(&self.program, &mut self.pool, initial_id);
        self.integrate(LiveState::fresh(initial));
    }

    /// Runs the exploration to exhaustion or until a budget trips.
    pub fn run(&mut self) -> RunReport {
        if self.resumed {
            // The restored frontier is the live work; re-seeding would
            // explore the program a second time.
            self.started.get_or_insert_with(Instant::now);
        } else {
            self.seed_initial();
        }
        let mut hit_budget = false;
        loop {
            match self.explore_step() {
                ExploreStep::Progressed => {}
                ExploreStep::Exhausted => break,
                ExploreStep::BudgetExhausted => {
                    hit_budget = !self.states.is_empty();
                    break;
                }
            }
            self.maybe_checkpoint();
        }
        self.report(hit_budget)
    }

    /// Writes a periodic checkpoint when one is due (sequential runs;
    /// fleet runs checkpoint through their coordinator instead). A
    /// write failure is reported loudly on stderr but does not abort
    /// the run: losing resumability is strictly better than losing the
    /// run.
    fn maybe_checkpoint(&mut self) {
        let Some(ck) = &self.config.checkpoint else { return };
        let picks = self.totals.picks;
        if ck.every == 0 || picks == 0 || picks % ck.every != 0 {
            return;
        }
        let path = ck.path.clone();
        let snap = self.snapshot();
        if let Err(e) = crate::checkpoint::write_checkpoint(&path, &snap) {
            eprintln!("symmerge: checkpoint write to {} failed: {e}", path.display());
        }
    }

    /// Advances the exploration by one scheduling step: checks budgets,
    /// picks the next state (Algorithm 1 line 3 / Algorithm 2), runs it
    /// and integrates the successors.
    ///
    /// Under the merging modes a pick executes one instruction, because
    /// merges happen where successors integrate. Without merging the
    /// picked state runs until it branches: its lone successor keeps
    /// executing in place, with every block it enters marked covered,
    /// until a step forks into two successors, completes, records an
    /// assertion failure, trips a time or step budget, or leaves the
    /// regions this engine owns.
    ///
    /// This is the re-entrant core of [`Engine::run`]: callers that need
    /// to interleave exploration with other work — the sharded
    /// [`crate::parallel::ParallelEngine`] workers, or a library user
    /// implementing a custom outer loop — call it repeatedly after
    /// [`Engine::seed_initial`] and stop on
    /// [`ExploreStep::Exhausted`] / [`ExploreStep::BudgetExhausted`].
    pub fn explore_step(&mut self) -> ExploreStep {
        self.explore_within(u64::MAX)
    }

    /// [`Engine::explore_step`] with a run of at most `allowance`
    /// instructions (one at least): what is left of a fleet worker's
    /// round quota or step budget. A run the allowance cuts short goes
    /// back to the worklist.
    pub(crate) fn explore_within(&mut self, allowance: u64) -> ExploreStep {
        let started = *self.started.get_or_insert_with(Instant::now);
        if self.config.budgets.exhausted(started, self.progress_counters()) {
            return ExploreStep::BudgetExhausted;
        }
        // Let the solver's adaptive context capacity track the live
        // frontier (a field store — free at this frequency). Without
        // merging that includes the picked state, which stays out of the
        // worklist while its whole run queries; a merging mode's pick
        // runs one instruction and counts the worklist alone.
        let running = usize::from(self.by_control.is_none());
        self.solver.set_frontier_hint(self.states.len() + running);
        let picked = {
            let mut oracle = OracleImpl {
                program: &self.program,
                covered: &self.covered,
                cov_gen: self.cov_gen,
                dist_cache: &mut self.dist_cache,
                rng: &mut self.rng,
            };
            match self.dsm.as_mut() {
                Some(dsm) => dsm.pick(&mut *self.strategy, &mut oracle),
                None => self.strategy.pick(&mut oracle),
            }
        };
        let Some(id) = picked else { return ExploreStep::Exhausted };
        self.totals.picks += 1;
        let Some(live) = self.remove_from_worklist(id, true) else {
            return ExploreStep::Progressed;
        };

        // Fault-tolerance layer. While armed, snapshot the in-flight
        // state so a panic caught anywhere in the rest of the step can
        // re-queue it ([`Engine::drain_after_panic`]); then fire any
        // injected panic scheduled for this exact pick. The injection
        // point — after the pick, before execution — is exactly where
        // quarantine is lossless: nothing about the state has been
        // recorded yet, so re-running it elsewhere neither loses nor
        // duplicates work. A run records nothing but (idempotent)
        // coverage before it ends, so the snapshot stays lossless for
        // the whole run.
        if self.isolation_armed() {
            self.in_flight = Some(live.clone());
        }
        if let Some(plan) = &self.config.fault_plan {
            let fires = match &self.fault_clock {
                // Relaxed: the sequence only has to hand out each index
                // once; it publishes no other data.
                Some(clock) => plan.panics_at_fleet_pick(clock.fetch_add(1, Ordering::Relaxed)),
                // 0-based local pick index (picks was just incremented).
                None => plan.panics_at(self.fault_worker, self.totals.picks - 1),
            };
            if fires {
                panic!("injected fault: worker {} panics", self.fault_worker);
            }
        }

        let LiveState { mut state, history, ff } = live;
        // Instructions run since the pick; committed to the totals when
        // the run ends, so a panic mid-run counts none of them.
        let mut ran = 0;
        let result = loop {
            let affinity_before = self.solver.last_affinity();
            let mut result = ExecCtx {
                program: &self.program,
                pool: &mut self.pool,
                solver: &mut self.solver,
                next_id: &mut self.next_id,
            }
            .step(state);
            ran += 1;
            // If the step's branch queries touched (or built) the context
            // of this state's pc prefix, the successors extend exactly
            // that prefix and inherit the token the queries stamped —
            // read before test generation below advances the solver
            // clock. A step whose queries never reached a context
            // (cache-served, or no query at all) leaves the token
            // unchanged; stamping the stale value would mark cold states
            // warm, so the successors keep the affinity they inherited
            // from their parent instead.
            let affinity_after = self.solver.last_affinity();
            if affinity_after != affinity_before {
                for succ in &mut result.successors {
                    succ.affinity = affinity_after;
                }
            }
            let straight = self.by_control.is_none()
                && result.successors.len() == 1
                && result.completed.is_none()
                && result.failure.is_none();
            if !straight {
                break result;
            }
            let next = &result.successors[0];
            let steps = self.totals.steps + ran;
            if ran >= allowance || self.config.budgets.stops_run(started, steps) || !self.owns(next)
            {
                // Cut short: the state goes back to the worklist, and
                // the pick that resumes its run counts it.
                self.totals.picks -= 1;
                break result;
            }
            state = result.successors.pop().expect("one successor");
            if state.frame().instr == 0 {
                // A block entry (a branch, a jump or a call): the only
                // steps that reach a block not yet passed.
                self.mark_covered(&state);
            }
        };
        self.totals.steps += ran;
        if let Some(failure) = result.failure {
            let outputs: Vec<symmerge_expr::ExprId> =
                result.successors.first().map(|s| s.outputs.clone()).unwrap_or_default();
            self.record_failure(failure, &outputs);
        }
        if let Some((s, completion)) = result.completed {
            self.record_completion(s, completion);
        }
        for succ in result.successors {
            self.integrate(LiveState { state: succ, history: history.clone(), ff });
        }
        // The step committed; the quarantine snapshot is dead weight now
        // (and re-queueing it after this point would duplicate work).
        self.in_flight = None;
        ExploreStep::Progressed
    }

    /// Whether the panic-isolation snapshot is armed (see
    /// [`EngineConfig::panic_isolation`]): explicitly, or implicitly by
    /// a fault plan that schedules panics.
    pub(crate) fn isolation_armed(&self) -> bool {
        self.config.panic_isolation
            || self.config.fault_plan.as_ref().is_some_and(|p| p.has_panics())
    }

    /// Re-aims the engine at worker `worker`'s coordinates in the fault
    /// plan: panic schedules match against it, and the forced-`Unknown`
    /// stream is re-derived from the plan's per-worker seed
    /// decorrelation ([`crate::fault::FaultPlan::unknown_spec`]).
    pub(crate) fn set_fault_worker(&mut self, worker: u32) {
        self.fault_worker = worker;
        if let Some((num, den, seed)) =
            self.config.fault_plan.as_ref().and_then(|p| p.unknown_spec(worker))
        {
            self.solver.set_forced_unknowns(num, den, seed);
        }
    }

    /// Catches the solver's shared-cache mirror up with everything the
    /// store holds. The engine never syncs on its own: the fleet does,
    /// BSP workers at each round start and steal workers before each
    /// run.
    pub fn sync_shared_cache(&mut self) {
        self.solver.sync_shared_cache();
    }

    /// Publishes to the shared store what the solver queued since the
    /// last publication. The engine never publishes on its own: the
    /// fleet does, the BSP coordinator for every worker at each barrier
    /// and steal workers before each run.
    pub fn publish_shared_cache(&mut self) {
        self.solver.publish_shared_cache();
    }

    /// Makes the fault plan's panic coordinate the fleet-global pick
    /// sequence `clock`, shared by every steal worker.
    pub(crate) fn set_fault_clock(&mut self, clock: Arc<AtomicU64>) {
        self.fault_clock = Some(clock);
    }

    /// Quarantine recovery after a caught worker panic, and the crash
    /// drain both fleet schedulers retire a worker with: re-queues the
    /// in-flight snapshot (the state that was picked but whose step
    /// never committed; none when the panic struck outside a step, where
    /// every live state is still safely in the worklist), then hands off
    /// everything the engine still holds — its worklist in
    /// [`Engine::steal_order`], then its shard outbox — for the
    /// surviving workers.
    ///
    /// Soundness: the snapshot is taken before execution and cleared
    /// after the step's results are recorded, so re-running the state on
    /// another worker repeats no completed work. Under
    /// [`MergeMode::None`] with canonical models the final test set is
    /// therefore byte-identical to the fault-free run's; quarantine
    /// changes *which* worker finishes a state, never the result set.
    pub(crate) fn drain_after_panic(&mut self, newest_first: bool) -> Vec<StolenState> {
        if let Some(live) = self.in_flight.take() {
            self.totals.quarantined_states += 1;
            self.integrate(live);
        }
        let mut handoffs = self.shed_states(self.worklist_len(), newest_first);
        handoffs.extend(self.take_outbox());
        handoffs
    }

    /// Snapshots the run accumulators into a [`RunReport`]. Called by
    /// [`Engine::run`] at the end of the loop; step-by-step drivers call
    /// it when they decide the run is over (passing whether a budget —
    /// theirs or the engine's — cut exploration short).
    ///
    /// Fleet-level hand-off counters (`envelope_exports`, `steals`, …)
    /// belong to the scheduler, not to any one engine, and stay zero;
    /// `ParallelEngine` fills them in after reduction.
    pub fn report(&self, hit_budget: bool) -> RunReport {
        let sched = self.strategy.sched_stats();
        RunReport {
            sched_picks: sched.sched_picks,
            sched_heap_repairs: sched.sched_heap_repairs,
            leftover_states: self.states.len(),
            covered_blocks: self.covered.len(),
            total_blocks: self.program.num_blocks(),
            dsm: self.dsm.as_ref().map(DsmIndex::stats).unwrap_or_default(),
            solver: *self.solver.stats(),
            wall_time: self.started.map(|s| s.elapsed()).unwrap_or_default(),
            hit_budget,
            ..self.totals.clone()
        }
    }

    /// The engine's report with its covered pairs: a fleet worker's
    /// part of the run (the fleet, not the worker, tracks budgets).
    pub(crate) fn output(&self) -> ShardOutput {
        ShardOutput { report: self.report(false), covered: self.covered_pairs() }
    }

    // ----- shard-mode plumbing (used by `crate::parallel`) --------------

    /// Puts the engine into shard mode as worker `me` under `map`.
    /// `free` selects count-based placement (no region ownership) — only
    /// sound when the merge mode is [`MergeMode::None`].
    pub(crate) fn enable_shard(&mut self, me: u32, map: RegionMap, free: bool) {
        debug_assert!(
            !free || self.config.merge_mode == MergeMode::None,
            "free placement would split merge candidates across workers"
        );
        self.shard = Some(ShardCtl { me, owner: map, free, outbox: Vec::new(), seq: 0 });
    }

    /// The deterministic order steals serve states in
    /// ([`Engine::shed_states`]), so `steal_newest` means the same thing
    /// to the BSP free-placement stealer and the steal-scheduler deques.
    ///
    /// The direction matters. *Oldest*-first (the default, the Cilk
    /// convention of stealing from the cold end) ships shallow states
    /// that root the largest unexplored subtrees, so a steal genuinely
    /// transfers work — measured per-worker step counts come out within a
    /// few percent of uniform. *Newest*-first ships paths that are about
    /// to complete: the thief starves within a few steps (measured: 95%
    /// of all steps stayed on the victim), but the victim's solver
    /// contexts stay warmer — a throughput-over-balance trade a
    /// single-core host can prefer.
    ///
    /// With `warm_migration` on, cold-affinity states go first among
    /// non-newest orders: a state whose prefix context is long gone
    /// pays a rebuild wherever it runs, so shipping it costs the fleet
    /// nothing extra, while warm states keep exploiting the donor's
    /// resident contexts. Among equal warmth, oldest id first, so the
    /// work-transfer property is preserved. Deterministic: ids are
    /// per-engine integration counters and affinity tokens derive from
    /// the solver's counters.
    fn steal_order(&self, newest_first: bool) -> Vec<StateId> {
        let mut ids: Vec<StateId> = self.states.keys().copied().collect();
        if newest_first {
            ids.sort_unstable_by(|a, b| b.cmp(a));
        } else if self.config.warm_migration {
            ids.sort_unstable_by_key(|id| (self.states[id].state.affinity, *id));
        } else {
            ids.sort_unstable();
        }
        ids
    }

    /// Packages a state leaving this engine for another worker: its
    /// routing region, its warm-prefix seed (how much of its pc is
    /// resident here) and, in shard mode, the next BSP integration key.
    fn hand_off(&mut self, live: LiveState) -> StolenState {
        let region = self.region_of(&live.state);
        let warm_len = self.solver.resident_prefix_len(&live.state.pc) as u32;
        let (origin_shard, origin_seq) = match self.shard.as_mut() {
            Some(ctl) => {
                ctl.seq += 1;
                (ctl.me, ctl.seq)
            }
            None => (self.fault_worker, 0),
        };
        StolenState { live, warm_len, region, origin_shard, origin_seq }
    }

    /// Takes `id` out of the worklist for hand-off to another worker.
    fn take_for_hand_off(&mut self, id: StateId) -> Option<StolenState> {
        let live = self.remove_from_worklist(id, false)?;
        Some(self.hand_off(live))
    }

    /// The worklist's `(region, id)` pairs in ascending order: one pass
    /// answers the coordinator's per-round region questions.
    fn worklist_by_region(&self) -> Vec<(RegionId, StateId)> {
        let mut held: Vec<(RegionId, StateId)> =
            self.states.iter().map(|(&id, live)| (self.region_of(&live.state), id)).collect();
        held.sort_unstable();
        held
    }

    /// Installs a new region assignment and hands off every held state
    /// whose region this worker no longer owns, in deterministic
    /// (region, id) order. The coordinator routes them to the new owners.
    pub(crate) fn set_region_map(&mut self, map: RegionMap) -> Vec<StolenState> {
        let me = self.shard.as_ref().expect("set_region_map outside shard mode").me;
        let lost: Vec<StateId> = self
            .worklist_by_region()
            .into_iter()
            .filter(|&(r, _)| map.owner_of(r) != me)
            .map(|(_, id)| id)
            .collect();
        self.shard.as_mut().expect("checked above").owner = map;
        lost.into_iter().filter_map(|id| self.take_for_hand_off(id)).collect()
    }

    /// Number of states currently in the worklist.
    pub(crate) fn worklist_len(&self) -> usize {
        self.states.len()
    }

    /// Removes up to `n` states in [`Engine::steal_order`] for hand-off
    /// to other workers — the BSP free-placement steal, the
    /// steal-scheduler shed, and both schedulers' crash drain. The
    /// expression pool is shared, so every `ExprId` stays valid on the
    /// receiving worker.
    pub(crate) fn shed_states(&mut self, n: usize, newest_first: bool) -> Vec<StolenState> {
        debug_assert!(self.pool.is_shared(), "direct state transfer needs the shared pool");
        let mut ids = self.steal_order(newest_first);
        ids.truncate(n);
        ids.into_iter().filter_map(|id| self.take_for_hand_off(id)).collect()
    }

    /// Integrates states handed over by other workers (or imported from
    /// a checkpoint frontier), in the caller-given order. The pool is
    /// synced once so every shipped `ExprId` resolves locally, and each
    /// state gets a fresh local id.
    ///
    /// With [`EngineConfig::warm_migration`] on, the whole batch's
    /// warm-prefix seeds are pre-warmed into the solver's context tree
    /// *before* any state integrates: the batch's shared conjuncts are
    /// bit-blasted once and its divergence points forked
    /// ([`symmerge_solver::Solver::prewarm_contexts`]), instead of each
    /// migrated lineage paying a cold rebuild at its first query. States
    /// whose seed materialized are stamped with the *local* solver's
    /// affinity token for it, so ranking strategies run them while their
    /// context is still resident. Both effects are deterministic and
    /// purely residency-side: results are unchanged.
    pub(crate) fn inject_direct(&mut self, mut batch: Vec<StolenState>) {
        if batch.is_empty() {
            return;
        }
        // Donor workers may have interned nodes this handle has not yet
        // mirrored; make every shipped ExprId resolvable first.
        self.pool.sync();
        for stolen in &mut batch {
            stolen.live.state.id = self.fresh_id();
            // Affinity tokens index the donor's solver clock; the prefix
            // context is cold here by definition. The prewarm below
            // re-stamps whatever materializes locally.
            stolen.live.state.affinity = 0;
        }
        if self.config.warm_migration {
            // The frontier is about to grow by the whole batch; let the
            // adaptive capacity see it before the batch builds.
            self.solver.set_frontier_hint(self.states.len() + batch.len());
            // Each seed travels with the state's next pc conjunct beyond
            // it (if any): when two states share an identical seed, that
            // is the only evidence of where they diverge.
            let seeds: Vec<(&[symmerge_expr::ExprId], Option<symmerge_expr::ExprId>)> = batch
                .iter()
                .map(|stolen| {
                    let pc = &stolen.live.state.pc;
                    let warm = (stolen.warm_len as usize).min(pc.len());
                    (&pc[..warm], pc.get(warm).copied())
                })
                .collect();
            let tokens = self.solver.prewarm_contexts(&self.pool, &seeds);
            if self.config.affinity_scheduling {
                for (stolen, token) in batch.iter_mut().zip(tokens) {
                    if token != 0 {
                        stolen.live.state.affinity = token;
                    }
                }
            }
        }
        for stolen in batch {
            self.integrate(stolen.live);
        }
    }

    /// Drains the outbox of states that crossed into foreign regions.
    pub(crate) fn take_outbox(&mut self) -> Vec<StolenState> {
        match self.shard.as_mut() {
            Some(ctl) => std::mem::take(&mut ctl.outbox),
            None => Vec::new(),
        }
    }

    /// Worklist sizes per held region, sorted by region id: the load
    /// signal a region-placement coordinator rebalances on, counted in
    /// one pass over the worklist.
    pub(crate) fn held_counts(&self) -> Vec<(RegionId, u64)> {
        let mut counts: Vec<(RegionId, u64)> = Vec::new();
        for (region, _) in self.worklist_by_region() {
            match counts.last_mut() {
                Some((r, n)) if *r == region => *n += 1,
                _ => counts.push((region, 1)),
            }
        }
        counts
    }

    /// Cumulative `(steps, picks, completed_paths)` — the coordinator's
    /// per-round budget signal, without the full-report clone
    /// [`Engine::report`] performs.
    pub(crate) fn progress_counters(&self) -> (u64, u64, u64) {
        (self.totals.steps, self.totals.picks, self.totals.completed_paths)
    }

    /// The covered `(func, block)` pairs, sorted — for the parallel
    /// reduction's coverage union.
    pub(crate) fn covered_pairs(&self) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = self.covered.iter().map(|&(f, b)| (f.0, b.0)).collect();
        v.sort_unstable();
        v
    }

    // ----- checkpoint/resume (see `crate::checkpoint`) ------------------

    /// Snapshots the run into a [`crate::checkpoint::Checkpoint`]:
    /// the run's totals, coverage, the RNG stream, and the whole
    /// frontier as [`PortableState`]s (in deterministic id order).
    /// Read-only — exploration continues unchanged afterwards.
    pub(crate) fn snapshot(&self) -> crate::checkpoint::Checkpoint {
        let mut ids: Vec<StateId> = self.states.keys().copied().collect();
        ids.sort_unstable();
        let frontier: Vec<PortableState> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let live = &self.states[id];
                let region = self.region_of(&live.state);
                PortableState::export(&self.pool, live, region, self.fault_worker, i as u64 + 1, 0)
            })
            .collect();
        crate::checkpoint::Checkpoint {
            seed: self.config.seed,
            next_id: self.next_id,
            rng: self.rng.state(),
            results: ShardOutput { report: self.totals.clone(), covered: self.covered_pairs() },
            frontier,
        }
    }

    /// Restores a checkpoint into a freshly built engine: the run's
    /// totals, coverage, tests and failures, the RNG stream, and
    /// the frontier (imported and integrated like any hand-off batch, so
    /// warm-prefix prewarming applies). The
    /// next [`Engine::run`] then *continues* the interrupted
    /// exploration instead of starting over.
    ///
    /// Restored assertion failures carry an empty path condition —
    /// their test cases were already generated before the checkpoint,
    /// and `ExprId`s do not survive the pool boundary.
    ///
    /// # Errors
    ///
    /// Refuses, before restoring anything, a checkpoint whose frontier
    /// does not fit this engine's program
    /// ([`Checkpoint::check_program`](crate::Checkpoint::check_program)).
    ///
    /// # Panics
    ///
    /// Panics if the engine has already explored anything (restoring
    /// over live work would double-count it).
    pub fn restore_checkpoint(&mut self, ck: &crate::checkpoint::Checkpoint) -> Result<(), String> {
        ck.check_program(&self.program)?;
        self.restore(ck);
        Ok(())
    }

    /// [`Engine::restore_checkpoint`] without the program check, for a
    /// caller that has made it already.
    pub(crate) fn restore(&mut self, ck: &crate::checkpoint::Checkpoint) {
        assert!(
            self.states.is_empty() && self.totals.picks == 0 && self.next_id == 0,
            "restore_checkpoint needs a freshly built engine"
        );
        self.next_id = ck.next_id;
        self.rng = StdRng::from_state(ck.rng);
        self.totals = ck.results.report.clone();
        // Coverage first: integrating the frontier below re-marks its
        // own locations, which must not look newly covered.
        self.covered = ck.results.covered.iter().map(|&(f, b)| (FuncId(f), BlockId(b))).collect();
        self.inject_frontier(&ck.frontier);
        self.resumed = true;
    }

    /// Imports a checkpoint frontier into this engine's pool and
    /// integrates it as one hand-off batch.
    pub(crate) fn inject_frontier(&mut self, frontier: &[PortableState]) {
        let batch = import_frontier(frontier, &mut self.pool);
        self.inject_direct(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmerge_ir::minic;

    fn engine_for(src: &str, config: EngineConfig) -> Engine {
        let program = minic::compile_with_width(src, 8).unwrap();
        Engine::builder(program).config(config).build().unwrap()
    }

    /// Merge-everything (α = ∞) under `mode`, over the topological order
    /// static merging requires.
    fn merge_all(mode: MergeMode) -> EngineConfig {
        EngineConfig {
            merge_mode: mode,
            strategy: if mode == MergeMode::Static {
                StrategyKind::Topological
            } else {
                StrategyKind::CoverageOptimized
            },
            qce: QceConfig { alpha: f64::INFINITY, ..Default::default() },
            ..EngineConfig::default()
        }
    }

    /// The default is a constant, field for field the literal the
    /// `mergebench` harness writes out (exhaustive literals, so a new
    /// field fails to compile here until its default is pinned).
    #[test]
    fn default_equals_the_benchmark_literal() {
        let literal = EngineConfig {
            merge_mode: MergeMode::None,
            strategy: StrategyKind::CoverageOptimized,
            qce: QceConfig { alpha: 1e-12, beta: 0.8, kappa: 10, zeta: None },
            dsm: DsmConfig { delta: 8 },
            merge: MergeConfig { factor_common_prefix: true },
            solver: SolverConfig::default(),
            budgets: Budgets {
                max_time: None,
                max_steps: None,
                max_completed: None,
                max_picks: None,
            },
            generate_tests: true,
            affinity_scheduling: true,
            warm_migration: true,
            fault_plan: None,
            panic_isolation: false,
            checkpoint: None,
            seed: 0,
        };
        assert_eq!(EngineConfig::default(), literal);
    }

    // `y` feeds the second branch condition, so QCE sees future queries
    // for it (it is *hot* at the first join for small α).
    const TWO_BRANCH: &str = r#"
        fn main() {
            let x = sym_int("x");
            let y = 0;
            if (x > 10) { y = 1; } else { y = 2; }
            if (x + y > 100) { putchar(y); } else { putchar(y + 1); }
        }
    "#;

    #[test]
    fn plain_exploration_counts_paths() {
        let mut e = engine_for(TWO_BRANCH, EngineConfig::default());
        let report = e.run();
        // x>10/x>100 give 3 feasible combinations (x>100 ⊆ x>10 at 8 bits
        // signed: x>100 implies x>10).
        assert_eq!(report.completed_paths, 3);
        assert_eq!(report.completed_multiplicity, 3.0);
        assert!(report.merges == 0);
        assert_eq!(report.tests.len(), 3);
        assert!(!report.hit_budget);
    }

    #[test]
    fn tests_replay_correctly() {
        let mut e = engine_for(TWO_BRANCH, EngineConfig::default());
        let report = e.run();
        for t in &report.tests {
            t.validate(e.program()).unwrap();
        }
    }

    #[test]
    fn static_merging_reduces_paths_but_preserves_tests() {
        // Merge-everything (α = ∞): y is merged at the join point, so the
        // second branch runs once instead of twice.
        let mut e = engine_for(TWO_BRANCH, merge_all(MergeMode::Static));
        let report = e.run();
        assert!(report.merges >= 1, "expected at least one merge");
        assert!(
            report.completed_paths < 3,
            "merging must reduce completed states ({} >= 3)",
            report.completed_paths
        );
        // Multiplicity still accounts for all represented paths.
        assert!(report.completed_multiplicity >= 3.0);
        for t in &report.tests {
            t.validate(e.program()).unwrap();
        }
    }

    #[test]
    fn merging_never_loses_assertion_failures() {
        let src = r#"
            fn main() {
                let x = sym_int("x");
                let y = 0;
                if (x > 10) { y = 1; } else { y = 2; }
                assert(y + x != 43, "boom");
            }
        "#;
        for mode in [MergeMode::None, MergeMode::Static, MergeMode::Dynamic] {
            let mut e = engine_for(src, merge_all(mode));
            let report = e.run();
            assert!(!report.assert_failures.is_empty(), "{mode:?} lost the assertion failure");
            // The reproducer test must actually trigger the assert.
            let repro = report
                .tests
                .iter()
                .find(|t| matches!(t.kind, TestKind::AssertFailure { .. }))
                .expect("failure test generated");
            repro.validate(e.program()).unwrap();
        }
    }

    #[test]
    fn dynamic_merging_merges_under_bfs() {
        // BFS interleaves the two branch sides, so the slower one becomes a
        // laggard (its signature appears in the faster one's history) and
        // is fast-forwarded into the join-point merge.
        let mut e = engine_for(
            TWO_BRANCH,
            EngineConfig { strategy: StrategyKind::Bfs, ..merge_all(MergeMode::Dynamic) },
        );
        let report = e.run();
        assert!(report.merges >= 1, "DSM should find the join-point merge");
        assert!(report.completed_multiplicity >= 3.0);
    }

    #[test]
    fn dsm_under_pure_dfs_finds_no_coexisting_states() {
        // Depth-first runs each lineage to completion before starting its
        // sibling, so merge partners never coexist — documenting why DSM
        // needs interleaving strategies to shine (paper §4.1).
        let mut e = engine_for(
            TWO_BRANCH,
            EngineConfig { strategy: StrategyKind::Dfs, ..merge_all(MergeMode::Dynamic) },
        );
        let report = e.run();
        assert_eq!(report.completed_multiplicity, 3.0);
    }

    #[test]
    fn alpha_zero_blocks_merging_while_variables_live() {
        let mut strict = engine_for(
            TWO_BRANCH,
            EngineConfig {
                qce: QceConfig { alpha: 0.0, ..Default::default() },
                ..merge_all(MergeMode::Static)
            },
        );
        let strict_report = strict.run();
        // y differs concretely (1 vs 2) and is still read by the second
        // branch, so the first join must NOT merge: the similarity check
        // rejects at least once, and all 3 paths stay represented.
        assert!(strict_report.merge_rejects >= 1, "live-y join must be rejected");
        assert_eq!(strict_report.completed_multiplicity, 3.0);
        // Merging where y is dead (after its last read) is still allowed —
        // that is QCE subsuming RWset-style pruning (paper §6) — so we only
        // require α = 0 to merge strictly less than α = ∞.
        let mut lax = engine_for(TWO_BRANCH, merge_all(MergeMode::Static));
        let lax_report = lax.run();
        assert!(lax_report.merges > 0);
        assert!(strict_report.merge_rejects > lax_report.merge_rejects);
    }

    #[test]
    fn full_criterion_zeta_prices_symbolic_merges() {
        // With an enormous ζ, merging states whose differing hot variable
        // is symbolic becomes unprofitable under Eq. 7: the engine must
        // reject merge opportunities the prototype criterion accepts.
        let src = r#"
            fn main() {
                let x = sym_int("x");
                let y = 0;
                if (x > 10) { y = x + 1; } else { y = x + 2; }   // y symbolic, differing
                if (x + y > 100) { putchar(y); } else { putchar(y + 1); }
            }
        "#;
        let run = |zeta: Option<f64>| {
            let mut e = engine_for(
                src,
                EngineConfig {
                    qce: QceConfig { alpha: 1e-12, zeta, ..Default::default() },
                    ..merge_all(MergeMode::Static)
                },
            );
            e.run()
        };
        let prototype = run(None);
        let priced = run(Some(1e18));
        assert!(prototype.merges >= 1, "prototype criterion should merge");
        assert!(
            priced.merge_rejects > prototype.merge_rejects,
            "huge zeta must reject symbolic-differ merges the prototype accepts \
             ({} <= {})",
            priced.merge_rejects,
            prototype.merge_rejects
        );
        // Soundness is mode-independent either way.
        assert_eq!(priced.covered_blocks, prototype.covered_blocks);
    }

    #[test]
    fn budgets_stop_the_run() {
        let src = r#"
            fn main() {
                let n = sym_int("n");
                let s = 0;
                for (let i = 0; i < n; i = i + 1) { s = s + i; }
                putchar(s);
            }
        "#;
        let mut e = engine_for(
            src,
            EngineConfig {
                budgets: Budgets { max_steps: Some(50), ..Budgets::default() },
                ..EngineConfig::default()
            },
        );
        let report = e.run();
        assert!(report.hit_budget);
        assert!(report.steps <= 51);
        assert!(report.leftover_states > 0);
    }

    #[test]
    fn unknown_test_generation_drops_are_counted() {
        // x * y == 12345 at 16 bits needs real CDCL search; with a
        // 1-conflict budget the branch check returns Unknown (explored as
        // "maybe feasible") and the completion-time test-generation query
        // returns Unknown again — which used to lose the test case
        // silently. The else-side (x * y != 12345) is propagation-easy,
        // so exactly one test survives.
        let src = r#"
            fn main() {
                let x = sym_int("x");
                let y = sym_int("y");
                if (x * y == 12345) { putchar(1); } else { putchar(0); }
            }
        "#;
        let program = minic::compile_with_width(src, 16).unwrap();
        let config = EngineConfig {
            solver: SolverConfig {
                max_conflicts: Some(1),
                // Pin the retry ladder off: this test is about the drop
                // accounting that fires only once every retry fails.
                retry_ladder: Vec::new(),
                ..Default::default()
            },
            ..EngineConfig::default()
        };
        let mut e = Engine::builder(program).config(config).build().unwrap();
        let report = e.run();
        assert_eq!(report.completed_paths, 2);
        assert!(
            report.tests_dropped_unknown >= 1,
            "the hard path's test drop must be counted (tests: {})",
            report.tests.len()
        );
        assert_eq!(
            report.tests.len() as u64 + report.tests_dropped_unknown,
            report.completed_paths,
            "every completed path is either a test or a counted drop"
        );
    }

    #[test]
    fn clause_weighted_eviction_bounds_churn_at_a_small_count_floor() {
        // A 4-level branch tree: the frontier (and with it the set of
        // forked divergence contexts) outgrows a count floor of 2. The
        // fixed count policy churns — forked contexts are evicted about
        // as fast as they are created, the `wc`@6 pathology — while the
        // clause-weighted policy lets capacity track the engine's
        // frontier hint, so the forks survive until their siblings
        // return. Results must be identical either way.
        let src = r#"
            fn main() {
                let a = sym_int("a");
                let b = sym_int("b");
                let c = sym_int("c");
                let d = sym_int("d");
                let s = 0;
                if (a > 10) { s = s + 1; }
                if (b > 10) { s = s + 2; }
                if (c > 10) { s = s + 4; }
                if (d > 10) { s = s + 8; }
                putchar(s);
            }
        "#;
        let run = |by_clauses: bool| {
            let solver = SolverConfig {
                use_incremental: true,
                ctx_fork: true,
                max_contexts: 2,
                ctx_evict_by_clauses: by_clauses,
                canonical_models: true,
                ..SolverConfig::default()
            };
            let mut e = engine_for(src, EngineConfig { solver, ..EngineConfig::default() });
            e.run()
        };
        let adaptive = run(true);
        let fixed = run(false);
        // Result invariance: eviction policy is residency-only.
        assert_eq!(adaptive.completed_paths, 16);
        assert_eq!(adaptive.completed_paths, fixed.completed_paths);
        assert_eq!(adaptive.tests.len(), fixed.tests.len());
        assert_eq!(adaptive.covered_blocks, fixed.covered_blocks);
        // The churn bound: the fixed floor churns, the adaptive policy
        // keeps the whole (small) frontier resident.
        assert!(
            fixed.solver.ctx_evictions > adaptive.solver.ctx_evictions,
            "fixed count floor must churn more ({} <= {})",
            fixed.solver.ctx_evictions,
            adaptive.solver.ctx_evictions
        );
        assert!(
            adaptive.solver.ctx_evictions * 2 < adaptive.solver.ctx_forks.max(1),
            "adaptive policy must break the forks ≈ evictions churn \
             ({} forks / {} evictions)",
            adaptive.solver.ctx_forks,
            adaptive.solver.ctx_evictions
        );
    }

    #[test]
    fn steal_newest_order_is_pinned_and_shared_across_schedulers() {
        // `steal_newest` must mean the same thing to the BSP
        // free-placement stealer and the steal-scheduler deques: both
        // take states through `shed_states`, oldest id first by default,
        // descending id when set. Pinned here in both modes.
        const SRC: &str = r#"
            fn main() {
                let a = sym_int("a");
                let b = sym_int("b");
                if (a > 10) { putchar(1); } else { putchar(2); }
                if (b > 10) { putchar(3); } else { putchar(4); }
            }
        "#;
        let prep = |shard: bool| {
            let program = minic::compile_with_width(SRC, 8).unwrap();
            let config = EngineConfig {
                strategy: StrategyKind::Bfs,
                warm_migration: false,
                seed: 3,
                ..EngineConfig::default()
            };
            let mut e = Engine::builder(program)
                .config(config)
                .shared_pool(SharedExprPool::new(8))
                .build()
                .unwrap();
            if shard {
                e.enable_shard(1, RegionMap::all_to_zero(2), true);
            }
            e.seed_initial();
            while e.worklist_len() < 3 {
                assert_eq!(e.explore_step(), ExploreStep::Progressed, "ran out before 3 states");
            }
            e
        };
        for shard in [false, true] {
            for newest in [false, true] {
                let mut e = prep(shard);
                let n = e.worklist_len();
                let shed = e.shed_states(n, newest);
                assert_eq!(shed.len(), n);
                let shed_ids: Vec<u64> = shed.iter().map(|s| s.live.state.id.0).collect();
                let mut expect = shed_ids.clone();
                expect.sort_unstable();
                if newest {
                    expect.reverse();
                }
                assert_eq!(shed_ids, expect, "shard={shard} newest={newest}: pinned id order");
                if shard {
                    // BSP integrates by (origin worker, sequence): the
                    // keys follow the hand-off order.
                    let keys: Vec<(u32, u64)> = shed.iter().map(StolenState::order_key).collect();
                    assert_eq!(keys, (1..=n as u64).map(|q| (1, q)).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn coverage_is_tracked() {
        let mut e = engine_for(TWO_BRANCH, EngineConfig::default());
        let report = e.run();
        assert!(report.covered_blocks > 0);
        assert!(report.coverage() > 0.5, "simple program should be mostly covered");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut e = engine_for(
                TWO_BRANCH,
                EngineConfig { strategy: StrategyKind::Random, seed, ..EngineConfig::default() },
            );
            let r = e.run();
            (r.completed_paths, r.steps, r.picks)
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn multiplicity_equals_paths_of_unmerged_run() {
        // Merged multiplicity must equal the plain run's path count
        // (soundness invariant 3 of DESIGN.md).
        let src = r#"
            fn main() {
                let a = sym_int("a");
                let b = sym_int("b");
                let x = 0;
                if (a > 0) { x = 1; } else { x = 2; }
                if (b > 0) { putchar(x); } else { putchar(x + 1); }
            }
        "#;
        let mut plain = engine_for(src, EngineConfig::default());
        let plain_paths = plain.run().completed_paths as f64;
        let mut merged = engine_for(src, merge_all(MergeMode::Static));
        let m = merged.run();
        assert_eq!(m.completed_multiplicity, plain_paths);
    }
}
