//! The sharded, work-stealing parallel exploration engine.
//!
//! [`ParallelEngine`] runs the same exploration [`Engine::run`] performs,
//! split across `jobs` worker threads. Every worker owns a full engine —
//! its own [`symmerge_solver::Solver`] with its own incremental-context
//! LRU pool, its own scheduler and RNG stream — built over one
//! fleet-shared [`symmerge_expr::SharedExprPool`], so `ExprId`s are
//! globally stable and a state moves between workers directly, as a
//! [`StolenState`], with nothing serialized or re-interned. With
//! [`SolverConfig::shared_cache`](symmerge_solver::SolverConfig) on (the
//! default) the workers also share one verdict store. Two scheduling
//! disciplines ([`SchedulerKind`]) drive the fleet:
//!
//! * **BSP** (the default, and the deterministic reference oracle):
//!   bulk-synchronous rounds; states change workers only at round
//!   barriers, in a deterministic order.
//! * **Steal** ([`MergeMode::None`] only): per-worker deques; idle
//!   workers steal instead of waiting at a barrier. Results are
//!   set-identical to BSP (schedule-invariant path set + canonical
//!   models); only per-`(seed, jobs)` trace reproducibility relaxes.
//!
//! A [`PortableState`] is only the checkpoint form of a state: fleet
//! checkpoints write the frontier in it, and resuming reads it back.
//!
//! Under BSP, placement follows the merge mode:
//!
//! * **Merging modes** partition the worklist by **topological region**
//!   (the outermost frame's topo index, see [`crate::shard`]): states
//!   that QCE/DSM could ever merge have equal control keys, hence equal
//!   regions, hence always meet on the same worker, and regions move
//!   between workers only whole.
//! * **[`MergeMode::None`]** has no
//!   merges, so placement is *free*: states stay on the worker where
//!   they forked (every integration is local) and load balances by
//!   count, which spreads far better when the frontier clusters in a
//!   few hot regions.
//!
//! # Execution model: deterministic rounds
//!
//! The coordinator drives bulk-synchronous rounds. In each round every
//! worker (in parallel) integrates the states routed to it — in the
//! deterministic `(origin worker, sequence)` order — and advances its
//! local exploration by at most a fixed step quota; under region
//! placement, successors that cross into a region the worker does not
//! own go to its outbox. At the barrier, the coordinator steals for the
//! next round: under region placement it recomputes the region
//! assignment from the observed loads ([`RegionMap::balance`]) and
//! workers evict whole regions they lost; under free placement it asks
//! overloaded workers to shed their oldest states (shallow subtree
//! roots, the Cilk steal) to the underloaded ones. Because quotas are
//! counted in scheduler steps (not wall time) and every stealing input
//! is a deterministic count, the complete run — every merge, every test —
//! is a pure function of `(program, config, jobs)`; thread scheduling
//! cannot change it.
//!
//! # Determinism contract
//!
//! Context-affinity scheduling does not weaken any layer of the
//! contract: affinity tokens are derived from each worker's solver
//! clock (a deterministic counter), and a migrating state **drops** its
//! token at hand-off — the receiving worker re-derives it as 0 ("context
//! cold here"), so no cross-solver clock value can leak into scheduling
//! (see [`crate::shard`]).
//!
//! * `jobs = 1` takes the exact legacy sequential path (same code, same
//!   report, byte for byte).
//! * Any `jobs`, [`MergeMode::None`]:
//!   the set of explored paths is
//!   schedule-invariant, so — with
//!   [`SolverConfig::canonical_models`](symmerge_solver::SolverConfig)
//!   enabled — the reduced report's generated tests are **byte-identical**
//!   to the sequential engine's (the differential harness asserts this
//!   for `jobs ∈ {1, 2, 4}` on every workload).
//! * Merging modes with `jobs > 1`: results are deterministic per
//!   `(seed, jobs)` and sound (the mode-invariance oracle holds), but the
//!   round structure can schedule merge partners apart, so the *merge
//!   count* — and therefore which representative test a merged disjunction
//!   samples — may differ from the sequential schedule.
//! * [`SchedulerKind::Steal`] (any `jobs`, [`MergeMode::None`] enforced):
//!   the explored path set — and with canonical models, every generated
//!   test byte — is schedule-invariant, so results are *set-identical*
//!   to BSP and the sequential engine (the differential harness asserts
//!   this at `jobs ∈ {1, 2, 4}`). What is **not** promised is trace
//!   reproducibility: thread interleaving decides shared-pool id
//!   allocation order and which worker explores which subtree, so
//!   per-worker counters and steal telemetry vary run to run.
//!
//! Budgets are enforced at round granularity: the coordinator stops
//! issuing rounds once the fleet's summed steps/picks/completions (or the
//! wall clock) cross the configured [`Budgets`], so a parallel run can
//! overshoot a budget by at most one round's quota per worker.
//!
//! # Example
//!
//! ```
//! use symmerge_core::{Engine, EngineConfig, MergeMode, ParallelConfig, ParallelEngine};
//! use symmerge_ir::minic;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     fn main() {
//!         let x = sym_int("x");
//!         let y = sym_int("y");
//!         if (x > 10) { putchar(1); } else { putchar(2); }
//!         if (y > 10) { putchar(3); } else { putchar(4); }
//!     }
//! "#;
//! let program = minic::compile(src)?;
//! let config = EngineConfig { merge_mode: MergeMode::None, ..EngineConfig::default() };
//!
//! let sequential = Engine::builder(program.clone()).config(config.clone()).build()?.run();
//! let parallel = ParallelEngine::new(program, config, ParallelConfig { jobs: 2, ..Default::default() })?
//!     .run();
//!
//! assert_eq!(parallel.completed_paths, sequential.completed_paths);
//! assert_eq!(parallel.covered_blocks, sequential.covered_blocks);
//! # Ok(())
//! # }
//! ```

use crate::checkpoint::{merge_parts, write_checkpoint, Checkpoint};
use crate::engine::{Budgets, Engine, EngineConfig, ExploreStep, MergeMode, RunReport};
use crate::exec::AssertFailure;
use crate::shard::{import_frontier, PortableState, RegionId, RegionMap, StolenState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use symmerge_expr::SharedExprPool;
use symmerge_ir::{Program, ValidateError};
use symmerge_solver::SharedSolverCache;

/// Which scheduling discipline [`ParallelEngine`] drives the fleet with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Deterministic bulk-synchronous rounds — the reference oracle.
    /// States change workers at round barriers; results are a pure
    /// function of `(program, config, jobs)`.
    Bsp,
    /// Work stealing: per-worker deques, no barrier — idle workers
    /// steal directly. Only active under
    /// [`MergeMode::None`] (merging modes silently fall back to BSP,
    /// whose region placement they need for merge-candidate
    /// co-location); promises *set-identical* results vs BSP, not
    /// per-`(seed, jobs)` trace reproducibility.
    Steal,
}

/// Parallelism knobs for [`ParallelEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelConfig {
    /// Number of worker threads. Under [`SchedulerKind::Bsp`], `1` (the
    /// default) bypasses the round machinery entirely and runs the
    /// legacy sequential engine; under [`SchedulerKind::Steal`] even
    /// `jobs = 1` runs the shared-pool machinery (so its overhead is
    /// honestly measurable).
    pub jobs: u32,
    /// Per-worker scheduler-step quota per round (BSP only). Smaller
    /// quotas rebalance (steal) more often at the cost of more barriers;
    /// the quota is counted in steps, not time, to keep runs
    /// deterministic. Clamped to at least 1 (a zero quota could never
    /// finish a round).
    pub steps_per_round: u64,
    /// Steal direction, honored identically by the BSP free-placement
    /// stealer and the steal-mode deques. `false` (default) steals the
    /// *oldest* states — shallow subtree roots, the Cilk convention,
    /// which measured within a few percent of uniform per-worker load.
    /// `true` steals the *newest* states, which starves thieves but
    /// keeps the victim's incremental solver contexts warm — worth it
    /// only when workers outnumber usable cores.
    pub steal_newest: bool,
    /// The scheduling discipline (default BSP).
    pub scheduler: SchedulerKind,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            jobs: 1,
            steps_per_round: 512,
            steal_newest: false,
            scheduler: SchedulerKind::Bsp,
        }
    }
}

/// One worker's contribution to a parallel run: its engine's report plus
/// the concrete covered-block set (the report only carries the count, but
/// the union over workers needs the elements).
#[derive(Debug, Clone)]
pub struct ShardOutput {
    /// The worker engine's final report.
    pub report: RunReport,
    /// Covered `(func, block)` pairs, sorted.
    pub covered: Vec<(u32, u32)>,
}

/// Deterministically reduces per-worker reports into one fleet report.
///
/// Counters are summed, coverage is unioned, `max_worklist` takes the
/// per-worker maximum, and the merged test/failure lists are sorted by
/// total-order keys ([`crate::testgen::TestCase::sort_key`]) — so the
/// result does not depend on the order the shard outputs are given in
/// (multiplicities are sums of per-path multiplicities and remain exact
/// in `f64` for all realistic path counts). `wall_time` and `hit_budget`
/// describe the fleet (max / or); [`ParallelEngine::run`] overwrites them
/// with the coordinator's own measurements.
pub fn reduce_reports(parts: &[ShardOutput], total_blocks: usize) -> RunReport {
    let mut out = RunReport {
        completed_paths: 0,
        completed_multiplicity: 0.0,
        pruned_by_assume: 0,
        assert_failures: Vec::new(),
        tests: Vec::new(),
        tests_dropped_unknown: 0,
        picks: 0,
        sched_picks: 0,
        sched_heap_repairs: 0,
        steps: 0,
        merges: 0,
        merge_rejects: 0,
        max_worklist: 0,
        leftover_states: 0,
        envelope_exports: 0,
        envelope_nodes: 0,
        steals: 0,
        stolen_states: 0,
        idle_waits: 0,
        quarantined_states: 0,
        covered_blocks: 0,
        total_blocks,
        ff_merged: 0,
        dsm: Default::default(),
        solver: Default::default(),
        wall_time: Default::default(),
        hit_budget: false,
    };
    let mut covered: Vec<(u32, u32)> = Vec::new();
    for part in parts {
        let r = &part.report;
        out.completed_paths += r.completed_paths;
        out.completed_multiplicity += r.completed_multiplicity;
        out.pruned_by_assume += r.pruned_by_assume;
        out.assert_failures.extend(r.assert_failures.iter().cloned());
        out.tests.extend(r.tests.iter().cloned());
        out.tests_dropped_unknown += r.tests_dropped_unknown;
        out.picks += r.picks;
        out.sched_picks += r.sched_picks;
        out.sched_heap_repairs += r.sched_heap_repairs;
        out.steps += r.steps;
        out.merges += r.merges;
        out.merge_rejects += r.merge_rejects;
        out.max_worklist = out.max_worklist.max(r.max_worklist);
        out.leftover_states += r.leftover_states;
        out.envelope_exports += r.envelope_exports;
        out.envelope_nodes += r.envelope_nodes;
        out.steals += r.steals;
        out.stolen_states += r.stolen_states;
        out.idle_waits += r.idle_waits;
        out.quarantined_states += r.quarantined_states;
        out.ff_merged += r.ff_merged;
        out.dsm.absorb(&r.dsm);
        out.solver.absorb(&r.solver);
        out.wall_time = out.wall_time.max(r.wall_time);
        out.hit_budget |= r.hit_budget;
        covered.extend(part.covered.iter().copied());
    }
    covered.sort_unstable();
    covered.dedup();
    out.covered_blocks = covered.len();
    out.tests.sort_by_cached_key(|t| t.sort_key());
    out.assert_failures.sort_by(|a, b| (&a.msg, a.loc, &a.pc).cmp(&(&b.msg, b.loc, &b.pc)));
    out
}

/// Wraps a resumed-from [`Checkpoint`]'s accumulated results as one
/// more [`ShardOutput`] for [`reduce_reports`] — the pre-interruption
/// half of the run, reduced exactly like a worker's. Restored
/// assertion failures carry an empty path condition (their tests were
/// generated before the checkpoint; `ExprId`s do not survive it).
fn base_output(ck: &Checkpoint) -> ShardOutput {
    ShardOutput {
        report: RunReport {
            completed_paths: ck.completed_paths,
            completed_multiplicity: ck.completed_multiplicity,
            pruned_by_assume: ck.pruned_by_assume,
            assert_failures: ck
                .failures
                .iter()
                .map(|(msg, loc)| AssertFailure { msg: msg.clone(), loc: *loc, pc: Vec::new() })
                .collect(),
            tests: ck.tests.clone(),
            tests_dropped_unknown: ck.tests_dropped_unknown,
            picks: ck.picks,
            sched_picks: 0,
            sched_heap_repairs: 0,
            steps: ck.steps,
            merges: ck.merges,
            merge_rejects: ck.merge_rejects,
            max_worklist: ck.max_worklist as usize,
            leftover_states: 0,
            envelope_exports: 0,
            envelope_nodes: 0,
            steals: 0,
            stolen_states: 0,
            idle_waits: 0,
            quarantined_states: ck.quarantined_states,
            covered_blocks: 0,
            total_blocks: 0,
            ff_merged: ck.ff_merged,
            dsm: Default::default(),
            solver: Default::default(),
            wall_time: Default::default(),
            hit_budget: false,
        },
        covered: ck.covered.clone(),
    }
}

/// The inverse wrapping: a crashed worker's final [`ShardOutput`] as a
/// [`Checkpoint`] part (no frontier — its states were handed off at
/// crash time and live on inside the surviving workers), so fleet
/// checkpoints written after a crash still carry its results. The RNG
/// field is a fresh seed-derived stream: it is only consumed if this
/// part ends up first in a merge *and* the merged checkpoint is
/// resumed sequentially with a random-choice strategy — any fixed
/// value keeps that resume deterministic.
fn output_as_part(seed: u64, out: &ShardOutput) -> Checkpoint {
    Checkpoint {
        seed,
        next_id: 0,
        rng: StdRng::seed_from_u64(seed).state(),
        completed_paths: out.report.completed_paths,
        completed_multiplicity: out.report.completed_multiplicity,
        pruned_by_assume: out.report.pruned_by_assume,
        tests_dropped_unknown: out.report.tests_dropped_unknown,
        picks: out.report.picks,
        steps: out.report.steps,
        merges: out.report.merges,
        merge_rejects: out.report.merge_rejects,
        max_worklist: out.report.max_worklist as u64,
        ff_merged: out.report.ff_merged,
        quarantined_states: out.report.quarantined_states,
        covered: out.covered.clone(),
        tests: out.report.tests.clone(),
        failures: out.report.assert_failures.iter().map(|f| (f.msg.clone(), f.loc)).collect(),
        frontier: Vec::new(),
    }
}

/// Messages from the coordinator to a worker.
enum ToWorker {
    Round {
        /// Region assignment for this round (region policy only).
        map: RegionMap,
        /// Migrated states this worker now owns.
        inbox: Vec<StolenState>,
        /// Scheduler-step quota for the round.
        quota: u64,
        /// Seed the initial state this round (worker 0, round 0).
        seed: bool,
        /// Free-placement policy: evict down to this many held states
        /// (`None` = no eviction requested this round).
        keep: Option<u64>,
    },
    /// Snapshot request (quiescent, between rounds): reply with a
    /// [`Checkpoint`] part covering this worker's results + frontier.
    Checkpoint,
    Finish,
}

/// A worker's end-of-round reply.
struct RoundDone {
    shard: u32,
    /// Evicted + outbox states, to be routed next round.
    handoffs: Vec<StolenState>,
    /// Post-round worklist sizes per held region.
    held: Vec<(RegionId, u64)>,
    /// Cumulative engine totals (for coordinator-side budget tracking).
    steps: u64,
    picks: u64,
    completed: u64,
}

enum FromWorker {
    Done(RoundDone),
    /// The worker panicked mid-round (with panic isolation armed). Its
    /// quarantined in-flight state and remaining worklist travel out
    /// for the surviving workers; its final report comes along so its
    /// pre-crash results are not lost. The worker thread exits after
    /// sending this — the fleet degrades from N to N−1.
    Crashed {
        shard: u32,
        handoffs: Vec<StolenState>,
        output: Box<ShardOutput>,
    },
    /// Reply to [`ToWorker::Checkpoint`].
    CheckpointPart {
        shard: u32,
        part: Box<Checkpoint>,
    },
    Report {
        shard: u32,
        output: Box<ShardOutput>,
    },
}

/// Derives worker `shard`'s RNG stream from the run seed (splitmix64 of
/// the pair, so streams are decorrelated but reproducible).
fn shard_seed(seed: u64, shard: u32) -> u64 {
    if shard == 0 {
        // Worker 0 keeps the run seed: a 1-worker round-driven run then
        // matches the sequential engine's RNG stream exactly.
        return seed;
    }
    let mut z = seed ^ (u64::from(shard).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What every fleet worker's engine is built from, under either
/// scheduler.
struct Substrate {
    /// The worker configuration: budgets and checkpointing cleared, since
    /// the coordinator (BSP) or the shared counters (steal) enforce the
    /// real budgets and only the BSP coordinator writes checkpoints.
    config: EngineConfig,
    /// The one expression pool every worker interns into.
    pool: Arc<SharedExprPool>,
    /// The fleet's verdict store, withheld when
    /// [`symmerge_solver::SolverConfig::shared_cache`] is off.
    cache: Option<Arc<SharedSolverCache>>,
}

impl Substrate {
    fn new(config: &EngineConfig, width: u32) -> Substrate {
        let mut worker = config.clone();
        worker.budgets = Budgets::default();
        worker.checkpoint = None;
        // The counterexample logs are append-only (no eviction — mirrors
        // must never lose entries), so they get 4× the private per-worker
        // capacity: the store serves the whole fleet, and refusing
        // publications early would waste its best tier.
        let cache = config
            .solver
            .shared_cache
            .then(|| SharedSolverCache::new(config.solver.cex_capacity.saturating_mul(4)));
        Substrate { config: worker, pool: SharedExprPool::new(width), cache }
    }

    /// Worker `shard`'s engine (built on the worker's own thread: an
    /// engine is not `Send`), on the shard's own RNG stream.
    fn engine(
        config: EngineConfig,
        pool: Arc<SharedExprPool>,
        cache: Option<Arc<SharedSolverCache>>,
        program: Program,
        shard: u32,
    ) -> Engine {
        let mut config = config;
        config.seed = shard_seed(config.seed, shard);
        let mut builder = Engine::builder(program).config(config).shared_pool(pool);
        if let Some(cache) = cache {
            builder = builder.shared_solver_cache(cache);
        }
        let mut engine = builder.build().expect("program validated in ParallelEngine::new");
        engine.set_fault_worker(shard);
        engine
    }
}

/// The sharded parallel exploration engine. See the [module docs](self).
#[derive(Debug)]
pub struct ParallelEngine {
    program: Program,
    config: EngineConfig,
    par: ParallelConfig,
}

impl ParallelEngine {
    /// Validates the program and builds a parallel engine.
    ///
    /// # Errors
    ///
    /// Returns the program's structural [`ValidateError`], if any.
    pub fn new(
        program: Program,
        config: EngineConfig,
        par: ParallelConfig,
    ) -> Result<ParallelEngine, ValidateError> {
        program.validate()?;
        Ok(ParallelEngine { program, config, par })
    }

    /// Runs the exploration across the configured workers and reduces
    /// the per-worker reports deterministically.
    pub fn run(&mut self) -> RunReport {
        self.run_with(None)
    }

    /// Resumes a checkpointed exploration (see [`crate::checkpoint`]):
    /// the checkpoint's frontier is re-injected as the initial
    /// worklist, its accumulated results fold into the final report,
    /// and — under [`MergeMode::None`] with canonical models — the
    /// combined report's result fields match the uninterrupted run's
    /// byte for byte, regardless of which scheduler or job count wrote
    /// the checkpoint.
    pub fn resume(&mut self, ck: &Checkpoint) -> RunReport {
        self.run_with(Some(ck))
    }

    fn run_with(&mut self, resume: Option<&Checkpoint>) -> RunReport {
        // The steal scheduler only applies where results are
        // schedule-invariant; merging modes need BSP's region placement
        // to co-locate merge candidates and fall back to it.
        if self.par.scheduler == SchedulerKind::Steal && self.config.merge_mode == MergeMode::None {
            return self.run_steal(resume);
        }
        if self.par.jobs <= 1 {
            // The legacy sequential path, bit for bit.
            let mut engine = Engine::builder(self.program.clone())
                .config(self.config.clone())
                .build()
                .expect("program validated in ParallelEngine::new");
            if let Some(ck) = resume {
                engine.restore_checkpoint(ck);
            }
            return engine.run();
        }
        self.run_sharded(resume)
    }

    fn run_sharded(&self, resume: Option<&Checkpoint>) -> RunReport {
        let jobs = self.par.jobs;
        let start = Instant::now();
        let budgets = self.config.budgets;
        // Placement policy: merging modes shard by region so merge
        // candidates stay co-located; `MergeMode::None` has no merges and
        // uses free placement — states stay where they fork and the
        // coordinator steals by count, which balances far better when the
        // frontier clusters in a few regions (e.g. one hot loop).
        let free = self.config.merge_mode == crate::engine::MergeMode::None;

        // The coordinator enforces the budgets at round granularity and
        // snapshots the whole fleet at round barriers. Every worker
        // interns into one pool, merging modes included: every engine
        // decision that could see interning order goes through
        // id-invariant fingerprints. `jobs = 1` never reaches this path,
        // so the sequential engine keeps its private pool bit for bit.
        let ck_cfg = self.config.checkpoint.as_ref().filter(|c| c.every > 0);
        let Substrate { config, pool, cache } = Substrate::new(&self.config, self.program.width);
        // The coordinator's own view of the pool: it imports a resumed
        // frontier and exports `pending` into fleet checkpoints.
        let mut view = pool.handle();

        let (to_coord, from_workers): (Sender<FromWorker>, Receiver<FromWorker>) = channel();
        let mut to_workers: Vec<Sender<ToWorker>> = Vec::with_capacity(jobs as usize);

        std::thread::scope(|scope| {
            for shard in 0..jobs {
                let (tx, rx): (Sender<ToWorker>, Receiver<ToWorker>) = channel();
                to_workers.push(tx);
                let (program, config) = (self.program.clone(), config.clone());
                let (pool, cache) = (Arc::clone(&pool), cache.clone());
                let reply = to_coord.clone();
                let spec = WorkerSpec { shard, jobs, free, par: self.par };
                scope.spawn(move || {
                    let engine = Substrate::engine(config, pool, cache, program, shard);
                    worker_main(spec, engine, rx, reply)
                });
            }
            drop(to_coord);

            let mut map = RegionMap::all_to_zero(jobs);
            // Resume: the checkpointed frontier replaces the seed state;
            // the checkpoint's accumulated results fold in at reduction.
            let mut pending: Vec<StolenState> =
                resume.map(|ck| import_frontier(&ck.frontier, &mut view)).unwrap_or_default();
            // States handed between workers (`RunReport::envelope_exports`).
            let mut handed_off = 0u64;
            let mut held: Vec<Vec<(RegionId, u64)>> = vec![Vec::new(); jobs as usize];
            // Counters carried by workers no longer in the round loop:
            // the resumed-from checkpoint and crashed workers' final
            // totals, so budget enforcement stays truthful.
            let mut carry =
                resume.map_or((0u64, 0u64, 0u64), |ck| (ck.steps, ck.picks, ck.completed_paths));
            let mut totals = carry; // (steps, picks, completed)
            let mut first = true;
            let mut hit_budget = false;
            // Panic isolation: which workers are still serving rounds.
            let mut live = vec![true; jobs as usize];
            let mut crashed: Vec<Option<ShardOutput>> = vec![None; jobs as usize];
            let mut last_ck_mark = match (ck_cfg, resume) {
                (Some(c), Some(ck)) => ck.picks / c.every,
                _ => 0,
            };

            loop {
                let n_live = live.iter().filter(|&&l| l).count() as u64;
                // Coordinator-side budget enforcement.
                let work_remains =
                    first || !pending.is_empty() || held.iter().any(|h| !h.is_empty());
                if (!first && !work_remains) || n_live == 0 {
                    break;
                }
                // A zero quota would make every round a no-op and spin
                // the coordinator forever; one step per round is the
                // (degenerate but terminating) floor.
                let mut quota = self.par.steps_per_round.max(1);
                if let Some(t) = budgets.max_time {
                    if start.elapsed() >= t {
                        hit_budget = work_remains;
                        break;
                    }
                }
                if let Some(limit) = budgets.max_steps {
                    let remaining = limit.saturating_sub(totals.0);
                    if remaining == 0 {
                        hit_budget = work_remains;
                        break;
                    }
                    quota = quota.min(remaining.div_ceil(n_live));
                }
                if let Some(limit) = budgets.max_picks {
                    let remaining = limit.saturating_sub(totals.1);
                    if remaining == 0 {
                        hit_budget = work_remains;
                        break;
                    }
                    quota = quota.min(remaining.div_ceil(n_live));
                }
                if budgets.max_completed.is_some_and(|c| totals.2 >= c) {
                    hit_budget = work_remains;
                    break;
                }

                let mut inboxes: Vec<Vec<StolenState>> = (0..jobs).map(|_| Vec::new()).collect();
                let mut keeps: Vec<Option<u64>> = vec![None; jobs as usize];
                if free {
                    // Count-based stealing: spread pending states over the
                    // workers furthest below the balanced share, and ask
                    // workers holding >1.5× the share to shed the excess.
                    let counts: Vec<u64> =
                        held.iter().map(|h| h.iter().map(|&(_, n)| n).sum()).collect();
                    let total: u64 = counts.iter().sum::<u64>() + pending.len() as u64;
                    let desired = total.div_ceil(n_live).max(1);
                    pending.sort_by_key(StolenState::order_key);
                    let mut fill: Vec<u64> = counts.clone();
                    for s in pending.drain(..) {
                        let target = (0..jobs as usize)
                            .filter(|&w| live[w])
                            .min_by_key(|&w| (fill[w], w))
                            .expect("a live worker");
                        fill[target] += 1;
                        inboxes[target].push(s);
                    }
                    for w in 0..jobs as usize {
                        if live[w] && counts[w] * 2 > desired * 3 {
                            keeps[w] = Some(desired);
                        }
                    }
                } else {
                    // Region policy: steal by reassigning whole regions
                    // (dead workers get empty region ranges).
                    if !first {
                        let mut loads: BTreeMap<RegionId, u64> = BTreeMap::new();
                        for h in &held {
                            for &(r, n) in h {
                                *loads.entry(r).or_default() += n;
                            }
                        }
                        for s in &pending {
                            *loads.entry(s.region).or_default() += 1;
                        }
                        let loads: Vec<(RegionId, u64)> = loads.into_iter().collect();
                        map = RegionMap::balance_live(&loads, jobs, &live);
                    }
                    for s in pending.drain(..) {
                        inboxes[map.owner_of(s.region) as usize].push(s);
                    }
                }

                let mut round_sent = 0u64;
                for (shard, (inbox, keep)) in inboxes.into_iter().zip(keeps).enumerate() {
                    if !live[shard] {
                        // Only reachable transiently (round 0's
                        // all-to-zero map before the first rebalance):
                        // re-queue rather than lose the states.
                        pending.extend(inbox);
                        continue;
                    }
                    round_sent += 1;
                    to_workers[shard]
                        .send(ToWorker::Round {
                            map: map.clone(),
                            inbox,
                            quota,
                            seed: first && shard == 0 && resume.is_none(),
                            keep,
                        })
                        .expect("worker alive");
                }
                first = false;

                let mut steps = 0;
                let mut picks = 0;
                let mut completed = 0;
                for _ in 0..round_sent {
                    match from_workers.recv().expect("worker alive") {
                        FromWorker::Done(done) => {
                            handed_off += done.handoffs.len() as u64;
                            pending.extend(done.handoffs);
                            held[done.shard as usize] = done.held;
                            steps += done.steps;
                            picks += done.picks;
                            completed += done.completed;
                        }
                        FromWorker::Crashed { shard, handoffs, output } => {
                            // Quarantined + drained states come back for
                            // redistribution; the fleet degrades to N−1
                            // and the worker's results fold in at
                            // reduction.
                            live[shard as usize] = false;
                            held[shard as usize] = Vec::new();
                            handed_off += handoffs.len() as u64;
                            pending.extend(handoffs);
                            carry.0 += output.report.steps;
                            carry.1 += output.report.picks;
                            carry.2 += output.report.completed_paths;
                            crashed[shard as usize] = Some(*output);
                        }
                        FromWorker::CheckpointPart { .. } => {
                            unreachable!("no checkpoint requested this round")
                        }
                        FromWorker::Report { .. } => unreachable!("no report before Finish"),
                    }
                }
                totals = (steps + carry.0, picks + carry.1, completed + carry.2);

                // Fleet checkpoint at the (quiescent) round barrier:
                // per-worker snapshots merged with the coordinator's
                // pending states and, when resumed, the base
                // checkpoint's accumulated results.
                if let Some(ckc) = ck_cfg {
                    let mark = totals.1 / ckc.every;
                    if mark > last_ck_mark {
                        last_ck_mark = mark;
                        let mut n_parts = 0;
                        for (w, tx) in to_workers.iter().enumerate() {
                            if live[w] {
                                tx.send(ToWorker::Checkpoint).expect("worker alive");
                                n_parts += 1;
                            }
                        }
                        let mut parts: Vec<Option<Checkpoint>> = vec![None; jobs as usize];
                        for _ in 0..n_parts {
                            match from_workers.recv().expect("worker alive") {
                                FromWorker::CheckpointPart { shard, part } => {
                                    parts[shard as usize] = Some(*part);
                                }
                                _ => unreachable!("fleet is quiescent during checkpoint"),
                            }
                        }
                        // Crashed workers' results still belong in the
                        // checkpoint; shard order keeps the merge (and
                        // its worker-0 RNG pick) deterministic.
                        let parts: Vec<Checkpoint> = parts
                            .into_iter()
                            .zip(&crashed)
                            .filter_map(|(p, c)| {
                                p.or_else(|| {
                                    c.as_ref().map(|out| output_as_part(self.config.seed, out))
                                })
                            })
                            .collect();
                        view.sync();
                        let extra: Vec<PortableState> = pending
                            .iter()
                            .map(|s| {
                                PortableState::export(
                                    &view,
                                    &s.state,
                                    &s.history,
                                    s.ff,
                                    s.region,
                                    s.origin_shard,
                                    s.origin_seq,
                                )
                                .with_warm_len(s.warm_len)
                            })
                            .collect();
                        let merged = merge_parts(&parts, extra, resume);
                        if let Err(e) = write_checkpoint(&ckc.path, &merged) {
                            eprintln!(
                                "symmerge: checkpoint write to {} failed: {e}",
                                ckc.path.display()
                            );
                        }
                    }
                }
            }

            // States stranded by a budget stop (or by every worker
            // crashing) are unexplored work.
            let stranded = pending.len();

            let mut n_live = 0;
            for (w, tx) in to_workers.iter().enumerate() {
                if live[w] {
                    tx.send(ToWorker::Finish).expect("worker alive");
                    n_live += 1;
                }
            }
            // Collect reports into shard order so the reduction (and in
            // particular its float summation order) is independent of
            // which worker replied first. Crashed workers already
            // reported through their `Crashed` message.
            let mut parts: Vec<Option<ShardOutput>> = crashed;
            for _ in 0..n_live {
                match from_workers.recv().expect("worker alive") {
                    FromWorker::Report { shard, output } => {
                        parts[shard as usize] = Some(*output);
                    }
                    _ => unreachable!("no rounds after Finish"),
                }
            }
            let mut parts: Vec<ShardOutput> =
                parts.into_iter().map(|p| p.expect("all reported")).collect();
            if let Some(ck) = resume {
                parts.push(base_output(ck));
            }
            let mut report = reduce_reports(&parts, self.program.num_blocks());
            report.leftover_states += stranded;
            report.envelope_exports = handed_off;
            report.wall_time = start.elapsed();
            report.hit_budget = hit_budget;
            report
        })
    }
}

/// Shared coordination block of a work-stealing run: the per-worker
/// steal deques plus the fleet-global atomics that replace the BSP
/// barrier (termination detection, budget counters, steal telemetry).
struct Fleet {
    /// Per-worker steal deques. Only the owner pushes (sheds); any
    /// worker pops. Oldest states sit at the front.
    queues: Vec<Mutex<VecDeque<StolenState>>>,
    /// Live states anywhere in the fleet — worklists, deques, or in
    /// flight between them. Exploration is over exactly when this
    /// reaches zero: a state being stepped stays counted until its
    /// successor delta is published, so the count never dips to zero
    /// spuriously while work is in flight.
    outstanding: AtomicI64,
    /// Workers currently starved for work — the shed signal loaded
    /// workers answer by moving half their worklist into their deque.
    hungry: AtomicU32,
    /// Set when a budget trips; workers drain out cooperatively.
    stop: AtomicBool,
    /// Fleet-total progress counters (budget enforcement).
    steps: AtomicU64,
    picks: AtomicU64,
    completed: AtomicU64,
    /// Successful steal batches / states they moved / futile idle waits.
    steals: AtomicU64,
    stolen_states: AtomicU64,
    idle_waits: AtomicU64,
}

/// Whether any configured budget has tripped fleet-wide.
fn steal_budget_tripped(b: &Budgets, start: Instant, fleet: &Fleet) -> bool {
    b.max_time.is_some_and(|t| start.elapsed() >= t)
        || b.max_steps.is_some_and(|s| fleet.steps.load(Ordering::Relaxed) >= s)
        || b.max_picks.is_some_and(|p| fleet.picks.load(Ordering::Relaxed) >= p)
        || b.max_completed.is_some_and(|c| fleet.completed.load(Ordering::Relaxed) >= c)
}

impl ParallelEngine {
    /// The work-stealing run ([`SchedulerKind::Steal`]): idle workers
    /// steal [`StolenState`]s from per-worker deques instead of waiting
    /// at a round barrier.
    ///
    /// Runs the full multi-worker machinery even at `jobs = 1`, so the
    /// shared pool's single-thread overhead is honestly measurable
    /// against the BSP/sequential baseline.
    fn run_steal(&self, resume: Option<&Checkpoint>) -> RunReport {
        let jobs = self.par.jobs.max(1);
        let start = Instant::now();
        let budgets = self.config.budgets;
        // The pool and verdict store are built even at jobs = 1, so
        // their overhead is honestly measurable against the
        // BSP/sequential baseline. The steal fleet has no quiescent
        // point to snapshot at, so it never writes checkpoints — it can
        // *resume* one (worker 0 injects the frontier instead of
        // seeding), but periodic checkpointing needs the BSP or
        // sequential path.
        let Substrate { config, pool, cache } = Substrate::new(&self.config, self.program.width);
        let resume_frontier: Option<&[PortableState]> = resume.map(|ck| ck.frontier.as_slice());

        let fleet = Fleet {
            queues: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
            // Worker 0 seeds the initial state (or the resumed
            // frontier) before its first step; pre-count it so an
            // early-starting peer cannot observe a spuriously empty
            // fleet and exit.
            outstanding: AtomicI64::new(resume_frontier.as_ref().map_or(1, |f| f.len() as i64)),
            hungry: AtomicU32::new(0),
            stop: AtomicBool::new(false),
            steps: AtomicU64::new(0),
            picks: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            stolen_states: AtomicU64::new(0),
            idle_waits: AtomicU64::new(0),
        };

        let parts: Vec<ShardOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|shard| {
                    let (program, config) = (self.program.clone(), config.clone());
                    let (pool, cache) = (Arc::clone(&pool), cache.clone());
                    let (par, fleet) = (self.par, &fleet);
                    let seed_frontier = if shard == 0 { resume_frontier } else { None };
                    scope.spawn(move || {
                        let engine = Substrate::engine(config, pool, cache, program, shard);
                        steal_worker(shard, par, budgets, start, engine, fleet, seed_frontier)
                    })
                })
                .collect();
            // Joining in spawn (shard) order keeps the reduction's input
            // order — and its float summation — deterministic.
            handles.into_iter().map(|h| h.join().expect("steal worker panicked")).collect()
        });

        // States stranded in deques by a budget stop (or abandoned by
        // crashed-and-retired workers nobody could steal from, e.g. at
        // jobs = 1) are unexplored work.
        let stranded: usize = fleet.queues.iter().map(|q| lock_deque(q).len()).sum();
        let mut parts = parts;
        if let Some(ck) = resume {
            parts.push(base_output(ck));
        }
        let mut report = reduce_reports(&parts, self.program.num_blocks());
        report.leftover_states += stranded;
        report.steals = fleet.steals.load(Ordering::Relaxed);
        report.stolen_states = fleet.stolen_states.load(Ordering::Relaxed);
        report.idle_waits = fleet.idle_waits.load(Ordering::Relaxed);
        report.wall_time = start.elapsed();
        report.hit_budget = fleet.stop.load(Ordering::Relaxed) && report.leftover_states > 0;
        report
    }
}

/// Locks a steal deque, recovering from a poisoned mutex: every push
/// and drain leaves the deque structurally consistent before the guard
/// drops, so after a peer's panic the deque still holds exactly the
/// live states it held — refusing to serve them would strand work that
/// the panic-isolation layer just went to the trouble of preserving.
fn lock_deque<'q>(q: &'q Mutex<VecDeque<StolenState>>) -> MutexGuard<'q, VecDeque<StolenState>> {
    q.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A work-stealing worker: owns one shared-pool [`Engine`] and loops
/// "work locally, shed when peers starve, steal when empty" until the
/// fleet's outstanding-state count hits zero or a budget trips.
///
/// `seed_frontier` is worker 0's resume payload: a checkpointed
/// frontier to inject instead of seeding the initial state.
fn steal_worker(
    shard: u32,
    par: ParallelConfig,
    budgets: Budgets,
    start: Instant,
    mut engine: Engine,
    fleet: &Fleet,
    seed_frontier: Option<&[PortableState]>,
) -> ShardOutput {
    let jobs = fleet.queues.len() as u32;
    if shard == 0 {
        // The matching pre-count is in `Fleet::outstanding`.
        match seed_frontier {
            Some(front) => engine.inject_frontier(front),
            None => engine.seed_initial(),
        }
    }
    // Mirrors of the engine's cumulative counters, for publishing deltas
    // to the fleet totals after each step.
    let (mut pub_steps, mut pub_picks, mut pub_completed) = (0u64, 0u64, 0u64);
    loop {
        if fleet.stop.load(Ordering::Acquire) {
            break;
        }
        if steal_budget_tripped(&budgets, start, fleet) {
            fleet.stop.store(true, Ordering::Release);
            break;
        }
        if engine.worklist_len() == 0 {
            // Reclaim the own deque first: those states were shed for
            // starving peers, but none took them.
            let own: Vec<StolenState> = {
                let mut q = lock_deque(&fleet.queues[shard as usize]);
                q.drain(..).collect()
            };
            if !own.is_empty() {
                engine.inject_direct(own);
                continue;
            }
            // Steal: round-robin over the peers, taking half a victim's
            // deque from the configured end (`steal_newest` means the
            // same thing here as in the BSP free-placement stealer).
            let mut stolen: Vec<StolenState> = Vec::new();
            for step in 1..jobs {
                let victim = ((shard + step) % jobs) as usize;
                let mut q = lock_deque(&fleet.queues[victim]);
                for _ in 0..q.len().div_ceil(2) {
                    let s = if par.steal_newest { q.pop_back() } else { q.pop_front() };
                    stolen.extend(s);
                }
                if !stolen.is_empty() {
                    break;
                }
            }
            if !stolen.is_empty() {
                fleet.steals.fetch_add(1, Ordering::Relaxed);
                fleet.stolen_states.fetch_add(stolen.len() as u64, Ordering::Relaxed);
                engine.inject_direct(stolen);
                continue;
            }
            if fleet.outstanding.load(Ordering::Acquire) == 0 {
                break; // fleet-wide exhaustion: nothing live anywhere
            }
            // Work exists but is in flight on other workers: signal
            // hunger so they shed, and back off briefly.
            fleet.hungry.fetch_add(1, Ordering::AcqRel);
            fleet.idle_waits.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(20));
            fleet.hungry.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        // Feed starving peers: when someone is hungry and the own deque
        // is empty, move half the worklist into it (a deque-to-worklist
        // move is outstanding-neutral — the states stay live).
        if fleet.hungry.load(Ordering::Acquire) > 0 && engine.worklist_len() > 1 {
            let deque_empty = lock_deque(&fleet.queues[shard as usize]).is_empty();
            if deque_empty {
                let batch = engine.shed_states(engine.worklist_len() / 2, par.steal_newest);
                lock_deque(&fleet.queues[shard as usize]).extend(batch);
            }
        }
        let before = engine.worklist_len() as i64;
        let stepped = catch_unwind(AssertUnwindSafe(|| engine.explore_step()));
        let step = match stepped {
            Ok(step) => step,
            Err(payload) => {
                if !engine.isolation_armed() {
                    resume_unwind(payload);
                }
                // Quarantine the in-flight state, then retire: the
                // whole worklist moves into the own deque — an
                // outstanding-neutral move, like any shed — where the
                // surviving workers steal it. Publish the exact
                // worklist delta first so `outstanding` stays truthful
                // even for a panic that landed mid-integration.
                engine.recover_from_panic();
                let delta = engine.worklist_len() as i64 - before;
                if delta != 0 {
                    fleet.outstanding.fetch_add(delta, Ordering::AcqRel);
                }
                let batch = engine.shed_states(engine.worklist_len(), par.steal_newest);
                if !batch.is_empty() {
                    lock_deque(&fleet.queues[shard as usize]).extend(batch);
                }
                let (s, p, c) = engine.progress_counters();
                fleet.steps.fetch_add(s - pub_steps, Ordering::Relaxed);
                fleet.picks.fetch_add(p - pub_picks, Ordering::Relaxed);
                fleet.completed.fetch_add(c - pub_completed, Ordering::Relaxed);
                break;
            }
        };
        match step {
            ExploreStep::Progressed => {}
            // The worklist was non-empty, so neither arm should be
            // reachable; re-entering the loop is safe regardless.
            ExploreStep::Exhausted | ExploreStep::BudgetExhausted => continue,
        }
        // Publish the step's worklist delta (successors minus the
        // consumed state): completions drive `outstanding` toward zero,
        // forks away from it. The stepped state stayed counted for the
        // step's whole duration, so no peer saw a false zero.
        let delta = engine.worklist_len() as i64 - before;
        if delta != 0 {
            fleet.outstanding.fetch_add(delta, Ordering::AcqRel);
        }
        let (s, p, c) = engine.progress_counters();
        fleet.steps.fetch_add(s - pub_steps, Ordering::Relaxed);
        fleet.picks.fetch_add(p - pub_picks, Ordering::Relaxed);
        fleet.completed.fetch_add(c - pub_completed, Ordering::Relaxed);
        (pub_steps, pub_picks, pub_completed) = (s, p, c);
    }
    ShardOutput { report: engine.report(false), covered: engine.covered_pairs() }
}

/// Everything a worker thread needs to know about its place in the
/// fleet (the per-worker engine configuration travels separately).
struct WorkerSpec {
    shard: u32,
    jobs: u32,
    free: bool,
    par: ParallelConfig,
}

/// A BSP worker thread: puts its fleet [`Engine`] into shard mode and
/// serves rounds until told to finish.
fn worker_main(
    spec: WorkerSpec,
    mut engine: Engine,
    rx: Receiver<ToWorker>,
    reply: Sender<FromWorker>,
) {
    let WorkerSpec { shard, jobs, free, par } = spec;
    engine.enable_shard(shard, RegionMap::all_to_zero(jobs), free);

    while let Ok(msg) = rx.recv() {
        match msg {
            ToWorker::Round { map, mut inbox, quota, seed, keep } => {
                // The whole round body runs under `catch_unwind` so a
                // panicking worker (injected or organic) degrades the
                // fleet instead of tearing down the run — but only
                // while panic isolation is armed; otherwise the panic
                // propagates exactly as before.
                let round = catch_unwind(AssertUnwindSafe(|| {
                    let mut handoffs = match keep {
                        // Free placement: steal by count, regions ignored.
                        Some(keep) => {
                            let excess = engine.worklist_len().saturating_sub(keep as usize);
                            engine.shed_states(excess, par.steal_newest)
                        }
                        // Region policy: install the new map, evict lost regions.
                        None if free => Vec::new(),
                        None => engine.set_region_map(map),
                    };
                    if seed {
                        engine.seed_initial();
                    }
                    // Deterministic integration order regardless of the
                    // timing-dependent order replies reached the coordinator.
                    // The inbox integrates as one batch so its warm-prefix
                    // seeds pre-warm the local context tree together
                    // (shared prefixes blasted once).
                    inbox.sort_by_key(StolenState::order_key);
                    engine.inject_direct(inbox);
                    let mut steps = 0u64;
                    while steps < quota {
                        match engine.explore_step() {
                            ExploreStep::Progressed => steps += 1,
                            ExploreStep::Exhausted => break,
                            // Worker budgets are cleared; unreachable, but
                            // stopping is the right response regardless.
                            ExploreStep::BudgetExhausted => break,
                        }
                    }
                    handoffs.extend(engine.take_outbox());
                    let (steps, picks, completed) = engine.progress_counters();
                    RoundDone {
                        shard,
                        handoffs,
                        held: engine.held_counts(),
                        steps,
                        picks,
                        completed,
                    }
                }));
                match round {
                    Ok(done) => {
                        if reply.send(FromWorker::Done(done)).is_err() {
                            return;
                        }
                    }
                    Err(payload) => {
                        if !engine.isolation_armed() {
                            resume_unwind(payload);
                        }
                        // Crash protocol: quarantine the in-flight
                        // state, hand off everything this worker still
                        // holds (worklist and outbox), and send it all
                        // out with the final report. The thread then
                        // retires — the fleet runs on at N−1.
                        engine.recover_from_panic();
                        let mut handoffs =
                            engine.shed_states(engine.worklist_len(), par.steal_newest);
                        handoffs.extend(engine.take_outbox());
                        let output = ShardOutput {
                            report: engine.report(false),
                            covered: engine.covered_pairs(),
                        };
                        let _ = reply.send(FromWorker::Crashed {
                            shard,
                            handoffs,
                            output: Box::new(output),
                        });
                        return;
                    }
                }
            }
            ToWorker::Checkpoint => {
                let part = Box::new(engine.snapshot());
                if reply.send(FromWorker::CheckpointPart { shard, part }).is_err() {
                    return;
                }
            }
            ToWorker::Finish => {
                let output =
                    ShardOutput { report: engine.report(false), covered: engine.covered_pairs() };
                let _ = reply.send(FromWorker::Report { shard, output: Box::new(output) });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MergeMode;
    use crate::qce::QceConfig;
    use crate::strategy::StrategyKind;
    use symmerge_ir::minic;
    use symmerge_solver::SolverConfig;

    const BRANCHY: &str = r#"
        fn main() {
            let a = sym_int("a");
            let b = sym_int("b");
            let c = sym_int("c");
            let x = 0;
            if (a > 10) { x = 1; } else { x = 2; }
            if (b > 20) { putchar(x); } else { putchar(x + 1); }
            if (c > 30) { putchar(b); } else { putchar(a); }
            assert(a + b != 77, "boom");
        }
    "#;

    fn config(mode: MergeMode, strategy: StrategyKind) -> EngineConfig {
        EngineConfig {
            merge_mode: mode,
            strategy,
            qce: QceConfig { alpha: f64::INFINITY, ..QceConfig::default() },
            solver: SolverConfig { canonical_models: true, ..SolverConfig::default() },
            seed: 7,
            ..EngineConfig::default()
        }
    }

    fn run_jobs(src: &str, cfg: EngineConfig, jobs: u32, quota: u64) -> RunReport {
        run_sched(src, cfg, jobs, quota, SchedulerKind::Bsp)
    }

    fn run_sched(
        src: &str,
        cfg: EngineConfig,
        jobs: u32,
        quota: u64,
        scheduler: SchedulerKind,
    ) -> RunReport {
        let program = minic::compile_with_width(src, 8).unwrap();
        ParallelEngine::new(
            program,
            cfg,
            ParallelConfig { jobs, steps_per_round: quota, scheduler, ..Default::default() },
        )
        .unwrap()
        .run()
    }

    type TestBytes = (String, Vec<(String, u64)>, Vec<u64>);

    fn test_bytes(r: &RunReport) -> Vec<TestBytes> {
        let mut v: Vec<_> = r.tests.iter().map(|t| t.sort_key()).collect();
        v.sort();
        v
    }

    #[test]
    fn unmerged_parallel_matches_sequential_byte_for_byte() {
        let cfg = config(MergeMode::None, StrategyKind::Bfs);
        let seq = run_jobs(BRANCHY, cfg.clone(), 1, 512);
        for jobs in [2, 3, 4] {
            // A tiny quota forces many rounds and real cross-worker
            // migration even on this small program.
            let par = run_jobs(BRANCHY, cfg.clone(), jobs, 2);
            assert_eq!(par.completed_paths, seq.completed_paths, "jobs={jobs}");
            assert_eq!(par.completed_multiplicity, seq.completed_multiplicity);
            assert_eq!(par.steps, seq.steps, "jobs={jobs}");
            assert_eq!(par.picks, seq.picks, "jobs={jobs}");
            assert_eq!(par.covered_blocks, seq.covered_blocks);
            assert_eq!(par.assert_failures.len(), seq.assert_failures.len());
            assert_eq!(test_bytes(&par), test_bytes(&seq), "jobs={jobs}");
            assert!(!par.hit_budget);
            assert_eq!(par.leftover_states, 0);
        }
    }

    #[test]
    fn parallel_runs_are_deterministic() {
        // Steal is not trace-reproducible, but its results (and, under
        // MergeMode::None, its step count) are; merging modes fall back
        // to BSP.
        for scheduler in [SchedulerKind::Bsp, SchedulerKind::Steal] {
            for mode in [MergeMode::None, MergeMode::Static, MergeMode::Dynamic] {
                let strategy = match mode {
                    MergeMode::Static => StrategyKind::Topological,
                    _ => StrategyKind::CoverageOptimized,
                };
                let cfg = config(mode, strategy);
                let a = run_sched(BRANCHY, cfg.clone(), 4, 3, scheduler);
                let b = run_sched(BRANCHY, cfg.clone(), 4, 3, scheduler);
                let who = format!("{scheduler:?} {mode:?}");
                assert_eq!(a.completed_paths, b.completed_paths, "{who}");
                assert_eq!(a.completed_multiplicity, b.completed_multiplicity, "{who}");
                assert_eq!(a.merges, b.merges, "{who}");
                assert_eq!(a.steps, b.steps, "{who}");
                assert_eq!(test_bytes(&a), test_bytes(&b), "{who}: tests must be byte-identical");
            }
        }
    }

    #[test]
    fn merged_parallel_preserves_soundness_invariants() {
        let baseline = run_jobs(BRANCHY, config(MergeMode::None, StrategyKind::Bfs), 1, 512);
        for mode in [MergeMode::Static, MergeMode::Dynamic] {
            let strategy = match mode {
                MergeMode::Static => StrategyKind::Topological,
                _ => StrategyKind::Bfs,
            };
            let par = run_jobs(BRANCHY, config(mode, strategy), 3, 2);
            assert_eq!(par.covered_blocks, baseline.covered_blocks, "{mode:?}");
            assert_eq!(
                par.completed_multiplicity, baseline.completed_multiplicity,
                "{mode:?}: merging must not lose or invent paths"
            );
            assert!(par.completed_paths <= baseline.completed_paths, "{mode:?}");
            // The assertion failure must survive sharded merging.
            assert!(!par.assert_failures.is_empty(), "{mode:?} lost the assertion failure");
        }
    }

    #[test]
    fn warm_migration_is_result_invariant_and_never_adds_rebuilds() {
        // Warm-context migration changes *residency* (prewarmed trees,
        // affinity stamps, cold-biased steal order) but never results:
        // under MergeMode::None the explored path set is
        // schedule-invariant, so generated tests stay byte-identical
        // with it off — and the fleet's rebuild count must not regress.
        let cfg = config(MergeMode::None, StrategyKind::Bfs);
        let cold_cfg = EngineConfig { warm_migration: false, ..cfg.clone() };
        for scheduler in [SchedulerKind::Bsp, SchedulerKind::Steal] {
            // Tiny quota → many rounds → real migration traffic.
            let warm = run_sched(BRANCHY, cfg.clone(), 4, 2, scheduler);
            let cold = run_sched(BRANCHY, cold_cfg.clone(), 4, 2, scheduler);
            assert_eq!(warm.completed_paths, cold.completed_paths, "{scheduler:?}");
            assert_eq!(warm.steps, cold.steps, "{scheduler:?}");
            assert_eq!(
                test_bytes(&warm),
                test_bytes(&cold),
                "{scheduler:?}: warmth changed results"
            );
            if scheduler == SchedulerKind::Bsp {
                // Only BSP's migration schedule is deterministic, so only
                // there can rebuild counts be compared run against run.
                assert!(
                    warm.solver.ctx_rebuilds <= cold.solver.ctx_rebuilds,
                    "prewarming must not add rebuilds ({} > {})",
                    warm.solver.ctx_rebuilds,
                    cold.solver.ctx_rebuilds
                );
            }
        }
    }

    #[test]
    fn coordinator_enforces_step_budget() {
        let src = r#"
            fn main() {
                let n = sym_int("n");
                let s = 0;
                for (let i = 0; i < n; i = i + 1) { s = s + i; }
                putchar(s);
            }
        "#;
        let mut cfg = config(MergeMode::None, StrategyKind::Bfs);
        cfg.budgets.max_steps = Some(40);
        let par = run_jobs(src, cfg, 2, 8);
        assert!(par.hit_budget, "budget must trip");
        // Round granularity: at most one quota per worker of overshoot.
        assert!(par.steps <= 40 + 2 * 8, "steps {} overshot the budget too far", par.steps);
        assert!(par.leftover_states > 0);
    }

    #[test]
    fn reduction_is_permutation_invariant() {
        let cfg = config(MergeMode::None, StrategyKind::Bfs);
        let program = minic::compile_with_width(BRANCHY, 8).unwrap();
        let mk = |seed: u64| {
            let mut c = cfg.clone();
            c.seed = seed;
            let mut e = Engine::builder(program.clone()).config(c).build().unwrap();
            let report = e.run();
            ShardOutput { covered: e.covered_pairs(), report }
        };
        let parts = vec![mk(1), mk(2), mk(3)];
        let forward = reduce_reports(&parts, 10);
        let reversed: Vec<ShardOutput> = parts.into_iter().rev().collect();
        let backward = reduce_reports(&reversed, 10);
        assert_eq!(forward.completed_paths, backward.completed_paths);
        assert_eq!(forward.completed_multiplicity, backward.completed_multiplicity);
        assert_eq!(forward.covered_blocks, backward.covered_blocks);
        assert_eq!(test_bytes(&forward), test_bytes(&backward));
        assert_eq!(
            forward.tests.iter().map(|t| t.sort_key()).collect::<Vec<_>>(),
            backward.tests.iter().map(|t| t.sort_key()).collect::<Vec<_>>(),
            "reduced test order itself must be canonical"
        );
    }

    fn run_steal_jobs(src: &str, cfg: EngineConfig, jobs: u32) -> RunReport {
        run_sched(src, cfg, jobs, 512, SchedulerKind::Steal)
    }

    #[test]
    fn steal_scheduler_is_set_identical_to_bsp_with_zero_envelopes() {
        let cfg = config(MergeMode::None, StrategyKind::Bfs);
        let seq = run_jobs(BRANCHY, cfg.clone(), 1, 512);
        // Tiny-quota BSP migrates states at its barriers, under free
        // placement and under region placement alike, and serializes
        // none of them.
        let region_cfg = config(MergeMode::Static, StrategyKind::Topological);
        for (placement, cfg) in [("free", &cfg), ("region", &region_cfg)] {
            for jobs in [2, 4] {
                let bsp = run_jobs(BRANCHY, cfg.clone(), jobs, 2);
                assert!(bsp.envelope_exports > 0, "{placement} jobs={jobs}: BSP must migrate");
                assert_eq!(bsp.envelope_nodes, 0, "{placement} jobs={jobs}: nothing serialized");
            }
        }
        // The steal path lands on the same path set, coverage and test
        // bytes as the sequential engine.
        for jobs in [1, 2, 4] {
            let par = run_steal_jobs(BRANCHY, cfg.clone(), jobs);
            assert_eq!(par.completed_paths, seq.completed_paths, "jobs={jobs}");
            assert_eq!(par.completed_multiplicity, seq.completed_multiplicity);
            assert_eq!(par.steps, seq.steps, "jobs={jobs}");
            assert_eq!(par.picks, seq.picks, "jobs={jobs}");
            assert_eq!(par.covered_blocks, seq.covered_blocks);
            assert_eq!(par.assert_failures.len(), seq.assert_failures.len());
            assert_eq!(test_bytes(&par), test_bytes(&seq), "jobs={jobs}");
            assert_eq!(par.merges, 0);
            assert_eq!(par.leftover_states, 0);
            assert!(!par.hit_budget);
            assert_eq!(par.envelope_exports, 0, "jobs={jobs}: steal counts no BSP hand-offs");
        }
    }

    #[test]
    fn steal_scheduler_enforces_budgets() {
        let src = r#"
            fn main() {
                let n = sym_int("n");
                let s = 0;
                for (let i = 0; i < n; i = i + 1) { s = s + i; }
                putchar(s);
            }
        "#;
        let mut cfg = config(MergeMode::None, StrategyKind::Bfs);
        cfg.budgets.max_steps = Some(40);
        let par = run_steal_jobs(src, cfg, 2);
        assert!(par.hit_budget, "budget must trip");
        // Each worker re-checks the fleet counters before every step and
        // publishes right after it, so the overshoot is at most one
        // unpublished step per worker.
        assert!(par.steps <= 40 + 2, "steps {} overshot the budget too far", par.steps);
        assert!(par.leftover_states > 0);
    }

    #[test]
    fn steal_scheduler_falls_back_to_bsp_for_merging_modes() {
        // Merging modes need BSP's region placement; requesting steal
        // must transparently produce the BSP result (deterministic per
        // (seed, jobs) — so two runs agree byte for byte).
        let program = minic::compile_with_width(BRANCHY, 8).unwrap();
        let cfg = config(MergeMode::Static, StrategyKind::Topological);
        let run = |scheduler: SchedulerKind| {
            ParallelEngine::new(
                program.clone(),
                cfg.clone(),
                ParallelConfig { jobs: 3, steps_per_round: 2, scheduler, ..Default::default() },
            )
            .unwrap()
            .run()
        };
        let bsp = run(SchedulerKind::Bsp);
        let steal = run(SchedulerKind::Steal);
        assert_eq!(steal.completed_paths, bsp.completed_paths);
        assert_eq!(steal.merges, bsp.merges);
        assert_eq!(steal.steps, bsp.steps);
        assert_eq!(test_bytes(&steal), test_bytes(&bsp));
        assert_eq!(steal.steals, 0, "fallback must not run the steal machinery");
    }

    #[test]
    fn shard_seed_streams_are_distinct_and_stable() {
        assert_eq!(shard_seed(7, 0), 7, "worker 0 keeps the run seed");
        let s: Vec<u64> = (0..4).map(|w| shard_seed(7, w)).collect();
        for i in 0..s.len() {
            for j in i + 1..s.len() {
                assert_ne!(s[i], s[j], "streams {i} and {j} collide");
            }
        }
        assert_eq!(shard_seed(7, 3), shard_seed(7, 3));
    }
}
