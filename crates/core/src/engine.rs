//! The symbolic execution engine — the paper's Algorithm 1, parameterized
//! by `pickNext` (a [`Strategy`]), `follow` (solver feasibility checks) and
//! `∼` (the QCE similarity relation), with static or dynamic state merging
//! layered on top.

use crate::dsm::{DsmConfig, DsmStats, DsmStrategy};
use crate::exec::{AssertFailure, Completion, ExecCtx};
use crate::merge::{classify_pair, merge_signature, merge_states, similar_qce, MergeConfig};
use crate::qce::{HotSet, QceAnalysis, QceConfig};
use crate::shard::{import_frontier, PortableState, RegionId, RegionMap, StolenState};
use crate::state::{State, StateId};
use crate::strategy::{make_strategy, Oracle, StateMeta, Strategy, StrategyKind};
use crate::testgen::{TestCase, TestKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use symmerge_expr::{ExprPool, SharedExprPool};
use symmerge_ir::cfg::CfgInfo;
use symmerge_ir::{BlockId, FuncId, Instr, Program, ValidateError};
use symmerge_solver::{SatResult, SharedSolverCache, Solver, SolverConfig, SolverStats};

/// When and whether to merge states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// Never merge (plain search-based symbolic execution — the baseline).
    None,
    /// Static state merging: topological exploration, merge at matching
    /// locations (paper §5.4's SSM).
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

/// Full engine configuration.
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
    /// [`crate::shard::StolenState`]), pre-warm the local solver's
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
    /// Panic isolation: snapshot each picked state *before* executing
    /// it, so a panic caught anywhere in the step can quarantine and
    /// re-queue the state (`Engine::recover_from_panic`) instead of
    /// losing it. The snapshot clones the state every step, so it is
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

/// Builder for [`Engine`].
#[derive(Debug)]
pub struct EngineBuilder {
    program: Program,
    config: EngineConfig,
    strategy_set: bool,
    shared_pool: Option<Arc<SharedExprPool>>,
    shared_cache: Option<Arc<SharedSolverCache>>,
}

impl EngineBuilder {
    /// Selects the merging mode. Choosing [`MergeMode::Static`] also
    /// switches the default strategy to topological order (the order SSM
    /// requires) unless a strategy was set explicitly.
    pub fn merging(mut self, mode: MergeMode) -> Self {
        self.config.merge_mode = mode;
        if mode == MergeMode::Static && !self.strategy_set {
            self.config.strategy = StrategyKind::Topological;
        }
        self
    }

    /// Selects the (driving) search strategy.
    pub fn strategy(mut self, kind: StrategyKind) -> Self {
        self.config.strategy = kind;
        self.strategy_set = true;
        self
    }

    /// Sets the QCE parameters.
    pub fn qce(mut self, qce: QceConfig) -> Self {
        self.config.qce = qce;
        self
    }

    /// Sets the DSM parameters.
    pub fn dsm(mut self, dsm: DsmConfig) -> Self {
        self.config.dsm = dsm;
        self
    }

    /// Sets the merge-operation options.
    pub fn merge_config(mut self, merge: MergeConfig) -> Self {
        self.config.merge = merge;
        self
    }

    /// Sets the solver options.
    pub fn solver(mut self, solver: SolverConfig) -> Self {
        self.config.solver = solver;
        self
    }

    /// Sets the exploration budgets.
    pub fn budgets(mut self, budgets: Budgets) -> Self {
        self.config.budgets = budgets;
        self
    }

    /// Convenience: wall-clock budget only.
    pub fn max_time(mut self, d: Duration) -> Self {
        self.config.budgets.max_time = Some(d);
        self
    }

    /// Convenience: instruction budget only.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.config.budgets.max_steps = Some(n);
        self
    }

    /// Whether to generate test cases for completed paths.
    pub fn generate_tests(mut self, yes: bool) -> Self {
        self.config.generate_tests = yes;
        self
    }

    /// Toggles context-affinity scheduling (see
    /// [`EngineConfig::affinity_scheduling`]).
    pub fn affinity_scheduling(mut self, yes: bool) -> Self {
        self.config.affinity_scheduling = yes;
        self
    }

    /// Toggles warm-context migration (see
    /// [`EngineConfig::warm_migration`]).
    pub fn warm_migration(mut self, yes: bool) -> Self {
        self.config.warm_migration = yes;
        self
    }

    /// Seeds the engine's RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replaces the entire configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.strategy_set = true;
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
    /// publishes fresh verdicts to it and consults a private read
    /// mirror (synced once per exploration step) after its own caches
    /// miss. Requires globally stable `ExprId`s — i.e. every engine
    /// over the store must be built over the same
    /// [`EngineBuilder::shared_pool`] — since cache keys are `ExprId`
    /// sets. A no-op when [`SolverConfig::shared_cache`] is off (the
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
#[derive(Debug, Clone)]
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
    /// States picked from the worklist.
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
    /// Always 0: fleet states cross workers as [`StolenState`]s over one
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
    /// `Engine::recover_from_panic`; zero without worker panics).
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
}

/// The outcome of one [`Engine::explore_step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreStep {
    /// A state was picked (and, unless it was stale, executed one
    /// instruction); the engine can step again.
    Progressed,
    /// The worklist is empty: exploration is exhausted.
    Exhausted,
    /// A configured [`Budgets`] limit tripped before the pick.
    BudgetExhausted,
}

/// Shard-mode bookkeeping (see [`crate::parallel`]): which regions this
/// engine owns, the outbox of states that crossed into foreign regions,
/// and a per-region index of the local worklist for whole-region
/// eviction.
struct ShardCtl {
    me: u32,
    owner: RegionMap,
    /// Free placement (no region ownership): every integration is local
    /// and the coordinator steals by count instead of by region. Used
    /// for [`MergeMode::None`], where no states ever merge and therefore
    /// no two states ever need to be co-located.
    free: bool,
    outbox: Vec<StolenState>,
    by_region: BTreeMap<RegionId, BTreeSet<StateId>>,
    seq: u64,
}

impl ShardCtl {
    fn owns(&self, region: RegionId) -> bool {
        self.free || self.owner.owner_of(region) == self.me
    }
}

enum Scheduler {
    Plain(Box<dyn Strategy>),
    Dsm(Box<DsmStrategy>),
}

impl Scheduler {
    fn remove(&mut self, id: StateId) -> bool {
        match self {
            Scheduler::Plain(s) => s.remove(id),
            Scheduler::Dsm(d) => d.remove(id),
        }
    }

    fn sched_stats(&self) -> crate::strategy::SchedStats {
        match self {
            Scheduler::Plain(s) => s.sched_stats(),
            Scheduler::Dsm(d) => d.sched_stats(),
        }
    }
}

/// The symbolic execution engine.
pub struct Engine {
    program: Program,
    pool: ExprPool,
    solver: Solver,
    qce: QceAnalysis,
    cfgs: Vec<CfgInfo>,
    config: EngineConfig,
    scheduler: Scheduler,
    states: HashMap<StateId, State>,
    by_control: HashMap<u64, Vec<StateId>>,
    /// DSM: per-live-state inherited histories.
    histories: HashMap<StateId, VecDeque<u64>>,
    /// States currently being fast-forwarded (for the §5.5 counter).
    ff_active: HashSet<StateId>,
    hot_cache: HashMap<u64, Rc<HotSet>>,
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
    /// Panic-isolation snapshot of the state currently being stepped:
    /// `(state, child history, fast-forward flag)`, exactly what
    /// [`Engine::integrate`] needs to re-queue it after a caught panic.
    in_flight: Option<(State, VecDeque<u64>, bool)>,
    /// Set by [`Engine::restore_checkpoint`]; [`Engine::run`] then skips
    /// seeding the initial state (the restored frontier already holds
    /// the live work).
    resumed: bool,
    // Run accumulators.
    completed_paths: u64,
    completed_multiplicity: f64,
    pruned_by_assume: u64,
    assert_failures: Vec<AssertFailure>,
    tests: Vec<TestCase>,
    tests_dropped_unknown: u64,
    picks: u64,
    steps: u64,
    merges: u64,
    merge_rejects: u64,
    max_worklist: usize,
    ff_merged: u64,
    quarantined_states: u64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("worklist", &self.states.len())
            .field("picks", &self.picks)
            .finish()
    }
}

struct OracleImpl<'a> {
    program: &'a Program,
    cfgs: &'a [CfgInfo],
    covered: &'a HashSet<(FuncId, BlockId)>,
    cov_gen: u64,
    dist_cache: &'a mut Option<HashMap<(FuncId, BlockId), u32>>,
    rng: &'a mut StdRng,
}

impl Oracle for OracleImpl<'_> {
    fn distance_to_uncovered(&mut self, func: FuncId, block: BlockId) -> Option<u32> {
        if self.dist_cache.is_none() {
            *self.dist_cache = Some(compute_distances(self.program, self.cfgs, self.covered));
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
    cfgs: &[CfgInfo],
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
    let _ = cfgs;
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
    /// Starts building an engine for a program.
    pub fn builder(program: Program) -> EngineBuilder {
        EngineBuilder {
            program,
            config: EngineConfig::default(),
            strategy_set: false,
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
        let cfgs: Vec<CfgInfo> = program.functions.iter().map(CfgInfo::analyze).collect();
        let scheduler = match config.merge_mode {
            MergeMode::Dynamic => Scheduler::Dsm(Box::new(DsmStrategy::new(
                make_strategy(config.strategy),
                config.dsm,
            ))),
            _ => Scheduler::Plain(make_strategy(config.strategy)),
        };
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
            cfgs,
            scheduler,
            states: HashMap::new(),
            by_control: HashMap::new(),
            histories: HashMap::new(),
            ff_active: HashSet::new(),
            hot_cache: HashMap::new(),
            covered: HashSet::new(),
            cov_gen: 0,
            dist_cache: None,
            rng,
            next_id: 0,
            started: None,
            shard: None,
            fault_worker: 0,
            in_flight: None,
            resumed: false,
            completed_paths: 0,
            completed_multiplicity: 0.0,
            pruned_by_assume: 0,
            assert_failures: Vec::new(),
            tests: Vec::new(),
            tests_dropped_unknown: 0,
            picks: 0,
            steps: 0,
            merges: 0,
            merge_rejects: 0,
            max_worklist: 0,
            ff_merged: 0,
            quarantined_states: 0,
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
                let pos = self.cfgs[f.func.index()].topo_index[f.block.index()];
                (pos, f.instr)
            })
            .collect();
        // Zeroing the stamp (rather than skipping it downstream) is the
        // ablation: strategies see uniform affinity and fall back to
        // their pre-affinity tie-breaks.
        let affinity = if self.config.affinity_scheduling { state.affinity } else { 0 };
        StateMeta { func, block, topo, steps: state.steps, affinity }
    }

    fn hot_set_for(&mut self, state: &State) -> Rc<HotSet> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (f, b) in state.stack_blocks() {
            (f.0, b.0).hash(&mut h);
        }
        let key = h.finish();
        if let Some(hot) = self.hot_cache.get(&key) {
            return hot.clone();
        }
        let hot = Rc::new(self.qce.hot_set(&self.program, &state.stack_blocks()));
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

    /// The state's topological region: the loop-aware topo index of its
    /// outermost frame's block. Merge candidates (equal control keys)
    /// always share a region, so region sharding never splits them.
    fn region_of(&self, state: &State) -> RegionId {
        let f = &state.frames[0];
        self.cfgs[f.func.index()].topo_index[f.block.index()]
    }

    /// Inserts a new state into the worklist, first attempting to merge it
    /// with a matching state (Algorithm 1, lines 17–22).
    ///
    /// In shard mode, a state whose region this engine does not own is
    /// handed off to the outbox instead; the owning worker integrates it
    /// (and marks its coverage) on the next round.
    fn integrate(&mut self, mut state: State, mut history: VecDeque<u64>, ff: bool) {
        let region = self.region_of(&state);
        if self.shard.as_ref().is_some_and(|ctl| !ctl.owns(region)) {
            let out = self.hand_off(state, history, ff);
            self.shard.as_mut().expect("checked above").outbox.push(out);
            return;
        }
        self.mark_covered(&state);
        if self.config.merge_mode != MergeMode::None {
            let ck = state.control_key();
            let hot = self.hot_set_for(&state);
            let candidates: Vec<StateId> = self.by_control.get(&ck).cloned().unwrap_or_default();
            for cand_id in candidates {
                let id = self.fresh_id();
                let cand = &self.states[&cand_id];
                // Output traces merge element-wise, so lengths must match.
                if cand.outputs.len() != state.outputs.len() {
                    continue;
                }
                let similar = match self.config.qce.zeta {
                    // The prototype criterion (Eq. 1): hot-variable set.
                    None => similar_qce(&self.pool, &hot, &state, cand),
                    // The full §3.3 criterion (Eq. 7) pricing introduced ites.
                    Some(zeta) => self.qce.similar_full(
                        &self.program,
                        &state.stack_blocks(),
                        zeta,
                        |fi, key| classify_pair(&self.pool, &state, cand, fi, key),
                    ),
                };
                if similar {
                    let merged = merge_states(&mut self.pool, self.config.merge, &state, cand, id);
                    self.merges += 1;
                    if ff || self.ff_active.contains(&cand_id) {
                        self.ff_merged += 1;
                    }
                    self.remove_from_worklist(cand_id);
                    // A merged state starts a fresh history: its signature
                    // changed discontinuously.
                    state = merged;
                    history = VecDeque::new();
                    // Try to cascade with further candidates.
                    return self.integrate(state, history, false);
                }
                self.merge_rejects += 1;
            }
        }
        let id = state.id;
        let meta = self.meta_for(&state);
        let ck = state.control_key();
        match &mut self.scheduler {
            Scheduler::Plain(s) => s.add(id, meta),
            Scheduler::Dsm(d) => {
                let hot = self.qce.hot_set(&self.program, &state.stack_blocks());
                let sig = merge_signature(&self.pool, &hot, &state);
                d.add_with_sig(id, meta, sig, history.clone());
            }
        }
        self.histories.insert(id, history);
        if ff {
            self.ff_active.insert(id);
        }
        self.by_control.entry(ck).or_default().push(id);
        if let Some(ctl) = self.shard.as_mut() {
            ctl.by_region.entry(region).or_default().insert(id);
        }
        self.states.insert(id, state);
        self.max_worklist = self.max_worklist.max(self.states.len());
    }

    /// Drops `id` from the shard-mode region index, if present.
    fn unindex_region(&mut self, id: StateId, region: RegionId) {
        if let Some(ctl) = self.shard.as_mut() {
            if let Some(set) = ctl.by_region.get_mut(&region) {
                set.remove(&id);
                if set.is_empty() {
                    ctl.by_region.remove(&region);
                }
            }
        }
    }

    fn remove_from_worklist(&mut self, id: StateId) -> Option<State> {
        let state = self.states.remove(&id)?;
        let ck = state.control_key();
        if let Some(v) = self.by_control.get_mut(&ck) {
            v.retain(|&x| x != id);
            if v.is_empty() {
                self.by_control.remove(&ck);
            }
        }
        self.scheduler.remove(id);
        self.histories.remove(&id);
        self.ff_active.remove(&id);
        let region = self.region_of(&state);
        self.unindex_region(id, region);
        Some(state)
    }

    fn record_completion(&mut self, state: State, completion: Completion) {
        match completion {
            Completion::AssumeViolated => {
                self.pruned_by_assume += 1;
                return;
            }
            Completion::Halted | Completion::Returned => {}
        }
        self.completed_paths += 1;
        self.completed_multiplicity += state.multiplicity;
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
                    self.tests.push(TestCase::from_model(
                        &self.pool,
                        &model,
                        &state.pc,
                        &state.outputs,
                        kind,
                    ));
                }
                SatResult::Unknown => self.tests_dropped_unknown += 1,
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
                    self.tests.push(TestCase::from_model(
                        &self.pool,
                        &model,
                        &failure.pc,
                        outputs,
                        TestKind::AssertFailure { msg: failure.msg.clone() },
                    ));
                }
                SatResult::Unknown => self.tests_dropped_unknown += 1,
                SatResult::Unsat => {}
            }
        }
        self.assert_failures.push(failure);
    }

    /// Seeds the worklist with the program's initial state and starts the
    /// budget clock. [`Engine::run`] calls this automatically; call it
    /// directly only when driving the engine step-by-step with
    /// [`Engine::explore_step`].
    pub fn seed_initial(&mut self) {
        self.started.get_or_insert_with(Instant::now);
        let initial_id = self.fresh_id();
        let initial = State::initial(&self.program, &mut self.pool, initial_id);
        self.integrate(initial, VecDeque::new(), false);
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
        if ck.every == 0 || self.picks == 0 || self.picks % ck.every != 0 {
            return;
        }
        let path = ck.path.clone();
        let snap = self.snapshot();
        if let Err(e) = crate::checkpoint::write_checkpoint(&path, &snap) {
            eprintln!("symmerge: checkpoint write to {} failed: {e}", path.display());
        }
    }

    /// Advances the exploration by one scheduling step: checks budgets,
    /// picks the next state (Algorithm 1 line 3 / Algorithm 2), executes
    /// one instruction, and integrates the successors.
    ///
    /// This is the re-entrant core of [`Engine::run`]: callers that need
    /// to interleave exploration with other work — the sharded
    /// [`crate::parallel::ParallelEngine`] workers, or a library user
    /// implementing a custom outer loop — call it repeatedly after
    /// [`Engine::seed_initial`] and stop on
    /// [`ExploreStep::Exhausted`] / [`ExploreStep::BudgetExhausted`].
    pub fn explore_step(&mut self) -> ExploreStep {
        let started = *self.started.get_or_insert_with(Instant::now);
        let b = self.config.budgets;
        if b.max_time.is_some_and(|t| started.elapsed() >= t)
            || b.max_steps.is_some_and(|s| self.steps >= s)
            || b.max_completed.is_some_and(|c| self.completed_paths >= c)
            || b.max_picks.is_some_and(|p| self.picks >= p)
        {
            return ExploreStep::BudgetExhausted;
        }
        // Let the solver's adaptive context capacity track the live
        // frontier (a field store — free at this frequency).
        self.solver.set_frontier_hint(self.states.len());
        // Step boundary: pull in whatever the other workers published
        // to the shared solver cache since the last step (one atomic
        // load when nothing changed; a no-op without a fleet).
        self.solver.sync_shared_cache();
        let picked = {
            let mut oracle = OracleImpl {
                program: &self.program,
                cfgs: &self.cfgs,
                covered: &self.covered,
                cov_gen: self.cov_gen,
                dist_cache: &mut self.dist_cache,
                rng: &mut self.rng,
            };
            match &mut self.scheduler {
                Scheduler::Plain(s) => s.pick(&mut oracle),
                Scheduler::Dsm(d) => d.pick(&mut oracle),
            }
        };
        let Some(id) = picked else { return ExploreStep::Exhausted };
        self.picks += 1;
        // DSM bookkeeping must survive the state's exit from the
        // worklist: grab history and ff-ness first.
        let parent_hist = self.histories.remove(&id).unwrap_or_default();
        let mut parent_ff = self.ff_active.remove(&id);
        if let Scheduler::Dsm(d) = &self.scheduler {
            parent_ff |= d.picked_was_ff(id);
        }
        let parent_sig = match &self.scheduler {
            // The state's live bookkeeping was torn down inside pick();
            // the strategy stashes the signature for exactly this query.
            Scheduler::Dsm(d) => d.picked_sig(id),
            Scheduler::Plain(_) => None,
        };
        let Some(state) = self.remove_from_worklist_after_pick(id) else {
            return ExploreStep::Progressed;
        };
        let child_hist = match parent_sig {
            Some(sig) => {
                let delta = self.config.dsm.delta;
                let mut h = parent_hist.clone();
                h.push_back(sig);
                while h.len() > delta {
                    h.pop_front();
                }
                h
            }
            None => parent_hist,
        };

        // Fault-tolerance layer. While armed, snapshot the in-flight
        // state so a panic caught anywhere in the rest of the step can
        // re-queue it ([`Engine::recover_from_panic`]); then fire any
        // injected panic scheduled for this exact pick. The injection
        // point — after the pick, before execution — is exactly where
        // quarantine is lossless: nothing about the state has been
        // recorded yet, so re-running it elsewhere neither loses nor
        // duplicates work.
        if self.isolation_armed() {
            self.in_flight = Some((state.clone(), child_hist.clone(), parent_ff));
        }
        if let Some(plan) = &self.config.fault_plan {
            // 0-based local pick index (picks was just incremented).
            let pick = self.picks - 1;
            if plan.panics_at(self.fault_worker, pick) {
                panic!("injected fault: worker {} panics at pick {pick}", self.fault_worker);
            }
        }

        let affinity_before = self.solver.last_affinity();
        let result = {
            let mut ctx = ExecCtx {
                program: &self.program,
                pool: &mut self.pool,
                solver: &mut self.solver,
                next_id: &mut self.next_id,
            };
            ctx.step(state)
        };
        self.steps += 1;
        // If the step's branch queries touched (or built) the context of
        // this state's pc prefix, the successors extend exactly that
        // prefix and inherit the token the queries stamped — read before
        // test generation below advances the solver clock. A step whose
        // queries never reached a context (cache-served, or no query at
        // all) leaves the token unchanged; stamping the stale value
        // would mark cold states warm, so the successors keep the
        // affinity they inherited from their parent instead.
        let affinity_after = self.solver.last_affinity();
        if let Some(failure) = result.failure {
            let outputs: Vec<symmerge_expr::ExprId> =
                result.successors.first().map(|s| s.outputs.clone()).unwrap_or_default();
            self.record_failure(failure, &outputs);
        }
        if let Some((s, completion)) = result.completed {
            self.record_completion(s, completion);
        }
        for mut succ in result.successors {
            if affinity_after != affinity_before {
                succ.affinity = affinity_after;
            }
            self.integrate(succ, child_hist.clone(), parent_ff);
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

    /// Quarantine recovery after a caught worker panic: re-queues the
    /// in-flight snapshot (the state that was picked but whose step
    /// never committed), so the state is neither lost nor
    /// half-recorded. Returns how many states were quarantined (0 or
    /// 1 — 0 when the panic struck outside a step, where every live
    /// state is still safely in the worklist).
    ///
    /// Soundness: the snapshot is taken before execution and cleared
    /// after the step's results are recorded, so re-running the state —
    /// here or, after a hand-off, on another worker — repeats no
    /// completed work. Under [`MergeMode::None`] with canonical models
    /// the final test set is therefore byte-identical to the fault-free
    /// run's; quarantine changes *which* worker finishes a state, never
    /// the result set.
    pub(crate) fn recover_from_panic(&mut self) -> u64 {
        let Some((state, history, ff)) = self.in_flight.take() else { return 0 };
        self.quarantined_states += 1;
        self.integrate(state, history, ff);
        1
    }

    /// Snapshots the run accumulators into a [`RunReport`]. Called by
    /// [`Engine::run`] at the end of the loop; step-by-step drivers call
    /// it when they decide the run is over (passing whether a budget —
    /// theirs or the engine's — cut exploration short).
    pub fn report(&self, hit_budget: bool) -> RunReport {
        let sched = self.scheduler.sched_stats();
        RunReport {
            completed_paths: self.completed_paths,
            completed_multiplicity: self.completed_multiplicity,
            pruned_by_assume: self.pruned_by_assume,
            assert_failures: self.assert_failures.clone(),
            tests: self.tests.clone(),
            tests_dropped_unknown: self.tests_dropped_unknown,
            picks: self.picks,
            sched_picks: sched.sched_picks,
            sched_heap_repairs: sched.sched_heap_repairs,
            steps: self.steps,
            merges: self.merges,
            merge_rejects: self.merge_rejects,
            max_worklist: self.max_worklist,
            leftover_states: self.states.len(),
            // Fleet-level hand-off counters belong to the scheduler, not
            // to any one engine; `ParallelEngine` fills them in after
            // reduction.
            envelope_exports: 0,
            envelope_nodes: 0,
            steals: 0,
            stolen_states: 0,
            idle_waits: 0,
            quarantined_states: self.quarantined_states,
            covered_blocks: self.covered.len(),
            total_blocks: self.program.num_blocks(),
            ff_merged: self.ff_merged,
            dsm: match &self.scheduler {
                Scheduler::Dsm(d) => d.stats(),
                Scheduler::Plain(_) => DsmStats::default(),
            },
            solver: *self.solver.stats(),
            wall_time: self.started.map(|s| s.elapsed()).unwrap_or_default(),
            hit_budget,
        }
    }

    /// Like [`Engine::remove_from_worklist`] but the scheduler has already
    /// dropped the id during `pick`.
    fn remove_from_worklist_after_pick(&mut self, id: StateId) -> Option<State> {
        let state = self.states.remove(&id)?;
        let ck = state.control_key();
        if let Some(v) = self.by_control.get_mut(&ck) {
            v.retain(|&x| x != id);
            if v.is_empty() {
                self.by_control.remove(&ck);
            }
        }
        let region = self.region_of(&state);
        self.unindex_region(id, region);
        Some(state)
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
        self.shard = Some(ShardCtl {
            me,
            owner: map,
            free,
            outbox: Vec::new(),
            by_region: BTreeMap::new(),
            seq: 0,
        });
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
            ids.sort_unstable_by_key(|id| (self.states[id].affinity, *id));
        } else {
            ids.sort_unstable();
        }
        ids
    }

    /// Packages a state leaving this engine for another worker: its
    /// routing region, its warm-prefix seed (how much of its pc is
    /// resident here) and, in shard mode, the next BSP integration key.
    fn hand_off(&mut self, state: State, history: VecDeque<u64>, ff: bool) -> StolenState {
        let region = self.region_of(&state);
        let warm_len = self.solver.resident_prefix_len(&state.pc) as u32;
        let (origin_shard, origin_seq) = match self.shard.as_mut() {
            Some(ctl) => {
                ctl.seq += 1;
                (ctl.me, ctl.seq)
            }
            None => (self.fault_worker, 0),
        };
        StolenState { state, history, ff, warm_len, region, origin_shard, origin_seq }
    }

    /// Takes `id` out of the worklist, with its DSM history and
    /// fast-forward flag, for hand-off to another worker.
    fn take_for_hand_off(&mut self, id: StateId) -> Option<StolenState> {
        let history = self.histories.remove(&id).unwrap_or_default();
        let ff = self.ff_active.contains(&id);
        let state = self.remove_from_worklist(id)?;
        Some(self.hand_off(state, history, ff))
    }

    /// Installs a new region assignment and hands off every held state
    /// whose region this worker no longer owns, in deterministic
    /// (region, id) order. The coordinator routes them to the new owners.
    pub(crate) fn set_region_map(&mut self, map: RegionMap) -> Vec<StolenState> {
        let ctl = self.shard.as_mut().expect("set_region_map outside shard mode");
        ctl.owner = map;
        let me = ctl.me;
        let lost: Vec<StateId> = ctl
            .by_region
            .iter()
            .filter(|(&r, _)| ctl.owner.owner_of(r) != me)
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
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
    pub(crate) fn inject_direct(&mut self, batch: Vec<StolenState>) {
        if batch.is_empty() {
            return;
        }
        // Donor workers may have interned nodes this handle has not yet
        // mirrored; make every shipped ExprId resolvable first. The
        // shared-cache mirror catches up too: the donor likely solved
        // along these states' prefixes, so its published verdicts are
        // exactly the entries the prewarm and next steps will ask for.
        self.pool.sync();
        self.solver.sync_shared_cache();
        let mut imported: Vec<(State, VecDeque<u64>, bool, usize)> = batch
            .into_iter()
            .map(|stolen| {
                let StolenState { mut state, history, ff, warm_len, .. } = stolen;
                state.id = self.fresh_id();
                // Affinity tokens index the donor's solver clock; the
                // prefix context is cold here by definition. The prewarm
                // below re-stamps whatever materializes locally.
                state.affinity = 0;
                let warm = (warm_len as usize).min(state.pc.len());
                (state, history, ff, warm)
            })
            .collect();
        if self.config.warm_migration {
            // The frontier is about to grow by the whole batch; let the
            // adaptive capacity see it before the batch builds.
            self.solver.set_frontier_hint(self.states.len() + imported.len());
            // Each seed travels with the state's next pc conjunct beyond
            // it (if any): when two states share an identical seed, that
            // is the only evidence of where they diverge.
            let seeds: Vec<(&[symmerge_expr::ExprId], Option<symmerge_expr::ExprId>)> = imported
                .iter()
                .map(|(s, _, _, warm)| (&s.pc[..*warm], s.pc.get(*warm).copied()))
                .collect();
            let tokens = self.solver.prewarm_contexts(&self.pool, &seeds);
            if self.config.affinity_scheduling {
                for ((state, _, _, _), token) in imported.iter_mut().zip(tokens) {
                    if token != 0 {
                        state.affinity = token;
                    }
                }
            }
        }
        for (state, history, ff, _) in imported {
            self.integrate(state, history, ff);
        }
    }

    /// Drains the outbox of states that crossed into foreign regions.
    pub(crate) fn take_outbox(&mut self) -> Vec<StolenState> {
        match self.shard.as_mut() {
            Some(ctl) => std::mem::take(&mut ctl.outbox),
            None => Vec::new(),
        }
    }

    /// Worklist sizes per held region (sorted by region id) — the load
    /// signal the coordinator rebalances on.
    pub(crate) fn held_counts(&self) -> Vec<(RegionId, u64)> {
        match self.shard.as_ref() {
            Some(ctl) => ctl.by_region.iter().map(|(&r, ids)| (r, ids.len() as u64)).collect(),
            None => Vec::new(),
        }
    }

    /// Cumulative `(steps, picks, completed_paths)` — the coordinator's
    /// per-round budget signal, without the full-report clone
    /// [`Engine::report`] performs.
    pub(crate) fn progress_counters(&self) -> (u64, u64, u64) {
        (self.steps, self.picks, self.completed_paths)
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
    /// result accumulators, coverage, the RNG stream, and the whole
    /// frontier as [`PortableState`]s (in deterministic id order).
    /// Read-only — exploration continues unchanged afterwards.
    pub(crate) fn snapshot(&self) -> crate::checkpoint::Checkpoint {
        let mut ids: Vec<StateId> = self.states.keys().copied().collect();
        ids.sort_unstable();
        let frontier: Vec<PortableState> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let state = &self.states[id];
                let history = self.histories.get(id).cloned().unwrap_or_default();
                let ff = self.ff_active.contains(id);
                let region = self.region_of(state);
                PortableState::export(
                    &self.pool,
                    state,
                    &history,
                    ff,
                    region,
                    self.fault_worker,
                    i as u64 + 1,
                )
            })
            .collect();
        crate::checkpoint::Checkpoint {
            seed: self.config.seed,
            next_id: self.next_id,
            rng: self.rng.state(),
            completed_paths: self.completed_paths,
            completed_multiplicity: self.completed_multiplicity,
            pruned_by_assume: self.pruned_by_assume,
            tests_dropped_unknown: self.tests_dropped_unknown,
            picks: self.picks,
            steps: self.steps,
            merges: self.merges,
            merge_rejects: self.merge_rejects,
            max_worklist: self.max_worklist as u64,
            ff_merged: self.ff_merged,
            quarantined_states: self.quarantined_states,
            covered: self.covered_pairs(),
            tests: self.tests.clone(),
            failures: self.assert_failures.iter().map(|f| (f.msg.clone(), f.loc)).collect(),
            frontier,
        }
    }

    /// Restores a checkpoint into a freshly built engine: result
    /// accumulators, coverage, tests and failures, the RNG stream, and
    /// the frontier (imported and integrated like any hand-off batch, so
    /// warm-prefix prewarming applies). The
    /// next [`Engine::run`] then *continues* the interrupted
    /// exploration instead of starting over.
    ///
    /// Restored assertion failures carry an empty path condition —
    /// their test cases were already generated before the checkpoint,
    /// and `ExprId`s do not survive the pool boundary.
    ///
    /// # Panics
    ///
    /// Panics if the engine has already explored anything (restoring
    /// over live work would double-count it).
    pub fn restore_checkpoint(&mut self, ck: &crate::checkpoint::Checkpoint) {
        assert!(
            self.states.is_empty() && self.picks == 0 && self.next_id == 0,
            "restore_checkpoint needs a freshly built engine"
        );
        self.next_id = ck.next_id;
        self.rng = StdRng::from_state(ck.rng);
        self.completed_paths = ck.completed_paths;
        self.completed_multiplicity = ck.completed_multiplicity;
        self.pruned_by_assume = ck.pruned_by_assume;
        self.tests_dropped_unknown = ck.tests_dropped_unknown;
        self.picks = ck.picks;
        self.steps = ck.steps;
        self.merges = ck.merges;
        self.merge_rejects = ck.merge_rejects;
        self.max_worklist = ck.max_worklist as usize;
        self.ff_merged = ck.ff_merged;
        self.quarantined_states = ck.quarantined_states;
        // Coverage first: integrating the frontier below re-marks its
        // own locations, which must not look newly covered.
        self.covered = ck.covered.iter().map(|&(f, b)| (FuncId(f), BlockId(b))).collect();
        self.tests = ck.tests.clone();
        self.assert_failures = ck
            .failures
            .iter()
            .map(|(msg, loc)| AssertFailure { msg: msg.clone(), loc: *loc, pc: Vec::new() })
            .collect();
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

    fn engine_for(src: &str, f: impl FnOnce(EngineBuilder) -> EngineBuilder) -> Engine {
        let program = minic::compile_with_width(src, 8).unwrap();
        f(Engine::builder(program)).build().unwrap()
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
        let mut e = engine_for(TWO_BRANCH, |b| b.merging(MergeMode::None));
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
        let mut e = engine_for(TWO_BRANCH, |b| b.merging(MergeMode::None));
        let report = e.run();
        for t in &report.tests {
            t.validate(e.program()).unwrap();
        }
    }

    #[test]
    fn static_merging_reduces_paths_but_preserves_tests() {
        // Merge-everything (α = ∞): y is merged at the join point, so the
        // second branch runs once instead of twice.
        let mut e = engine_for(TWO_BRANCH, |b| {
            b.merging(MergeMode::Static)
                .qce(QceConfig { alpha: f64::INFINITY, ..Default::default() })
        });
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
            let mut e = engine_for(src, |b| {
                b.merging(mode).qce(QceConfig { alpha: f64::INFINITY, ..Default::default() })
            });
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
        let mut e = engine_for(TWO_BRANCH, |b| {
            b.merging(MergeMode::Dynamic)
                .strategy(StrategyKind::Bfs)
                .qce(QceConfig { alpha: f64::INFINITY, ..Default::default() })
        });
        let report = e.run();
        assert!(report.merges >= 1, "DSM should find the join-point merge");
        assert!(report.completed_multiplicity >= 3.0);
    }

    #[test]
    fn dsm_under_pure_dfs_finds_no_coexisting_states() {
        // Depth-first runs each lineage to completion before starting its
        // sibling, so merge partners never coexist — documenting why DSM
        // needs interleaving strategies to shine (paper §4.1).
        let mut e = engine_for(TWO_BRANCH, |b| {
            b.merging(MergeMode::Dynamic)
                .strategy(StrategyKind::Dfs)
                .qce(QceConfig { alpha: f64::INFINITY, ..Default::default() })
        });
        let report = e.run();
        assert_eq!(report.completed_multiplicity, 3.0);
    }

    #[test]
    fn alpha_zero_blocks_merging_while_variables_live() {
        let mut strict = engine_for(TWO_BRANCH, |b| {
            b.merging(MergeMode::Static).qce(QceConfig { alpha: 0.0, ..Default::default() })
        });
        let strict_report = strict.run();
        // y differs concretely (1 vs 2) and is still read by the second
        // branch, so the first join must NOT merge: the similarity check
        // rejects at least once, and all 3 paths stay represented.
        assert!(strict_report.merge_rejects >= 1, "live-y join must be rejected");
        assert_eq!(strict_report.completed_multiplicity, 3.0);
        // Merging where y is dead (after its last read) is still allowed —
        // that is QCE subsuming RWset-style pruning (paper §6) — so we only
        // require α = 0 to merge strictly less than α = ∞.
        let mut lax = engine_for(TWO_BRANCH, |b| {
            b.merging(MergeMode::Static)
                .qce(QceConfig { alpha: f64::INFINITY, ..Default::default() })
        });
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
            let mut e = engine_for(src, |b| {
                b.merging(MergeMode::Static).qce(QceConfig {
                    alpha: 1e-12,
                    zeta,
                    ..Default::default()
                })
            });
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
        let mut e = engine_for(src, |b| b.merging(MergeMode::None).max_steps(50));
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
        let mut e = Engine::builder(program)
            .merging(MergeMode::None)
            .solver(symmerge_solver::SolverConfig {
                max_conflicts: Some(1),
                // Pin the retry ladder off: this test is about the drop
                // accounting that fires only once every retry fails.
                retry_ladder: Vec::new(),
                ..Default::default()
            })
            .build()
            .unwrap();
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
            let mut e = engine_for(src, |bld| {
                bld.merging(MergeMode::None).solver(symmerge_solver::SolverConfig {
                    use_incremental: true,
                    ctx_fork: true,
                    max_contexts: 2,
                    ctx_evict_by_clauses: by_clauses,
                    canonical_models: true,
                    ..symmerge_solver::SolverConfig::default()
                })
            });
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
            let mut e = Engine::builder(program)
                .merging(MergeMode::None)
                .strategy(crate::strategy::StrategyKind::Bfs)
                .warm_migration(false)
                .seed(3)
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
                let shed_ids: Vec<u64> = shed.iter().map(|s| s.state.id.0).collect();
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
        let mut e = engine_for(TWO_BRANCH, |b| b.merging(MergeMode::None));
        let report = e.run();
        assert!(report.covered_blocks > 0);
        assert!(report.coverage() > 0.5, "simple program should be mostly covered");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut e = engine_for(TWO_BRANCH, |b| {
                b.merging(MergeMode::None).strategy(StrategyKind::Random).seed(seed)
            });
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
        let mut plain = engine_for(src, |b| b.merging(MergeMode::None));
        let plain_paths = plain.run().completed_paths as f64;
        let mut merged = engine_for(src, |b| {
            b.merging(MergeMode::Static)
                .qce(QceConfig { alpha: f64::INFINITY, ..Default::default() })
        });
        let m = merged.run();
        assert_eq!(m.completed_multiplicity, plain_paths);
    }
}
