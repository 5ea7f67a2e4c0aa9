//! The sharded, work-stealing parallel exploration engine.
//!
//! [`ParallelEngine`] runs the same exploration [`Engine::run`] performs,
//! split across `jobs` worker threads. Every worker owns a full engine —
//! its own [`symmerge_solver::Solver`] with its own incremental-context
//! LRU pool, its own scheduler and RNG stream — built over one
//! fleet-shared [`symmerge_expr::SharedExprPool`], so `ExprId`s are
//! globally stable and a state moves between workers directly, as a
//! `StolenState`, with nothing serialized or re-interned. With
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
//!   (the outermost frame's topo index, see the `shard` module): states
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
//! The coordinator drives bulk-synchronous rounds. Each worker thread
//! builds its own engine and parks it in a slot; two barrier waits
//! bracket every round, and between them, while every worker is parked,
//! the coordinator reads the engines directly: it collects the round's
//! hand-offs, drains a crashed engine, sums the budget counters, writes
//! checkpoints and posts each worker's plan for the next round. In each
//! round every worker (in parallel) integrates the states routed to it —
//! in the deterministic `(origin worker, sequence)` order — and advances its
//! local exploration by a fixed quota of executed instructions (each
//! run gets what is left of the quota; a run the quota cuts short goes
//! back to the worklist, and the pick that resumes it counts the run, so
//! pick counts do not depend on where rounds fall); under region
//! placement, successors that cross into a region the worker does not
//! own go to its outbox. At the barrier, the coordinator steals for the
//! next round: under region placement it recomputes the region
//! assignment from the observed loads (`RegionMap::balance`) and
//! workers evict whole regions they lost; under free placement it asks
//! overloaded workers to shed their oldest states (shallow subtree
//! roots, the Cilk steal) to the underloaded ones. The shared verdict
//! store moves at the barrier too: workers only queue what they solve,
//! the coordinator publishes every worker's queue in worker order
//! ([`Engine::publish_shared_cache`]), and each worker syncs its private
//! read mirror before playing the round, so a verdict found mid-round
//! stays invisible to peers until the next one, and the store's
//! contents and order follow from the rounds alone. Because quotas are
//! counted in executed instructions (not wall time), every stealing input is
//! a deterministic count and every cache lookup sees the same store, the
//! complete run — every merge, every test — is a pure function of
//! `(program, config, jobs)`; thread scheduling cannot change it.
//!
//! # Determinism contract
//!
//! Context-affinity scheduling does not weaken any layer of the
//! contract: affinity tokens are derived from each worker's solver
//! clock (a deterministic counter), and a migrating state **drops** its
//! token at hand-off — the receiving worker re-derives it as 0 ("context
//! cold here"), so no cross-solver clock value can leak into scheduling
//! (see the `shard` module).
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

use crate::checkpoint::{
    import_frontier, merge_parts, write_checkpoint, Checkpoint, PortableState,
};
use crate::engine::{
    Budgets, Engine, EngineConfig, ExploreStep, MergeMode, RunReport, ShardOutput,
};
use crate::shard::{RegionId, RegionMap, StolenState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use symmerge_expr::SharedExprPool;
use symmerge_ir::{Program, ValidateError};
use symmerge_solver::{splitmix64, SharedSolverCache};

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
    /// Per-worker quota of executed instructions per round (BSP only).
    /// Smaller quotas rebalance (steal) more often at the cost of more
    /// barriers; the quota is counted in instructions, not time, to keep
    /// runs deterministic. Clamped to at least 1 (a zero quota could
    /// never finish a round).
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

/// Deterministically reduces per-worker reports into one fleet report.
///
/// The parts fold through [`ShardOutput::fold`], which states each
/// field's reduction once ([`RunReport::absorb`]); the merged
/// test/failure lists are then sorted by total-order keys
/// ([`crate::testgen::TestCase::sort_key`]), so the result does not
/// depend on the order the shard outputs are given in (multiplicities
/// are sums of per-path multiplicities and remain exact in `f64` for
/// all realistic path counts). `wall_time` and `hit_budget` describe the
/// fleet (max / or); [`ParallelEngine::run`] overwrites them with the
/// coordinator's own measurements.
pub fn reduce_reports(parts: &[ShardOutput], total_blocks: usize) -> RunReport {
    let mut out = ShardOutput::fold(parts).report;
    out.total_blocks = total_blocks;
    out.tests.sort_by_cached_key(|t| t.sort_key());
    out.assert_failures.sort_by(|a, b| (&a.msg, a.loc, &a.pc).cmp(&(&b.msg, b.loc, &b.pc)));
    out
}

/// Derives worker `shard`'s RNG stream from the run seed (the
/// splitmix64 finalizer of `seed ^ shard·γ`, so streams are decorrelated
/// but reproducible).
fn shard_seed(seed: u64, shard: u32) -> u64 {
    if shard == 0 {
        // Worker 0 keeps the run seed: a 1-worker round-driven run then
        // matches the sequential engine's RNG stream exactly.
        return seed;
    }
    // `splitmix64` adds γ before finalizing; this stream never did, so
    // γ is taken back out first.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    splitmix64((seed ^ u64::from(shard).wrapping_mul(GAMMA)).wrapping_sub(GAMMA))
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

    /// Worker `shard`'s engine, on the shard's own RNG stream. Workers
    /// build it on their own thread, and BSP workers also drop it there:
    /// dropping the engines on the coordinator thread instead measured
    /// about 13 % higher peak RSS on `fleet-wc6` (2-vCPU VM, glibc
    /// malloc; the runs are in EXPERIMENTS.md).
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
    ///
    /// # Errors
    ///
    /// Refuses, before running anything, a checkpoint whose frontier
    /// does not fit the program ([`Checkpoint::check_program`]).
    pub fn resume(&mut self, ck: &Checkpoint) -> Result<RunReport, String> {
        ck.check_program(&self.program)?;
        Ok(self.run_with(Some(ck)))
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
                engine.restore(ck);
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
        let free = self.config.merge_mode == MergeMode::None;

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
        // Resume: the checkpointed frontier replaces the seed state;
        // the checkpoint's accumulated results fold in at reduction, and
        // its counters count toward the budgets.
        let mut pending: Vec<StolenState> =
            resume.map(|ck| import_frontier(&ck.frontier, &mut view)).unwrap_or_default();
        let base = resume.map_or((0, 0, 0), |ck| {
            let r = &ck.results.report;
            (r.steps, r.picks, r.completed_paths)
        });

        let slots: Vec<Mutex<Slot>> = (0..jobs).map(|_| Mutex::default()).collect();
        let rounds =
            Rounds { barrier: Barrier::new(jobs as usize + 1), stop: AtomicBool::new(false) };

        // States handed between workers (`RunReport::envelope_exports`).
        let mut handed_off = 0u64;
        // The scope's value: whether a budget cut the run short.
        let hit_budget = std::thread::scope(|scope| {
            for shard in 0..jobs {
                let (program, config) = (self.program.clone(), config.clone());
                let (pool, cache) = (Arc::clone(&pool), cache.clone());
                let (slot, rounds) = (&slots[shard as usize], &rounds);
                let steal_newest = self.par.steal_newest;
                scope.spawn(move || {
                    let mut engine = Substrate::engine(config, pool, cache, program, shard);
                    engine.enable_shard(shard, RegionMap::all_to_zero(jobs), free);
                    bsp_worker(engine, slot, rounds, steal_newest);
                });
            }
            // However the coordinator leaves the scope (a panic
            // included), this releases the workers from their barrier:
            // each parks its output, drops its engine and exits.
            let _release = Release(&rounds);

            let mut map = RegionMap::all_to_zero(jobs);
            let mut first = true;
            // Panic isolation: which workers are still serving rounds.
            let mut live = vec![true; jobs as usize];
            let mut last_ck_mark = ck_cfg.map_or(0, |c| base.1 / c.every);

            loop {
                // From here to the next `wait` every worker is parked, so
                // the coordinator has their engines to itself.
                rounds.barrier.wait();
                let mut parked: Vec<MutexGuard<'_, Slot>> = slots.iter().map(lock).collect();
                for (shard, slot) in parked.iter_mut().enumerate() {
                    let handoffs = match slot.done.take() {
                        None => continue,
                        Some(Ok(handoffs)) => handoffs,
                        Some(Err(payload)) => {
                            let engine = slot.engine();
                            if !engine.isolation_armed() {
                                resume_unwind(payload);
                            }
                            // Crash drain: the quarantined in-flight state
                            // and everything else the worker held come back
                            // for redistribution, and the fleet degrades to
                            // N−1. The engine stays parked: its pre-crash
                            // results fold in at reduction.
                            live[shard] = false;
                            engine.drain_after_panic(self.par.steal_newest)
                        }
                    };
                    handed_off += handoffs.len() as u64;
                    pending.extend(handoffs);
                }
                // Post-round worklist sizes (0 for a drained worker), per
                // held region only where placement is by region, and the
                // fleet totals — crashed workers' included, so budget
                // enforcement stays truthful.
                let counts: Vec<u64> =
                    parked.iter_mut().map(|s| s.engine().worklist_len() as u64).collect();
                let held: Vec<Vec<(RegionId, u64)>> = if free {
                    Vec::new()
                } else {
                    parked.iter_mut().map(|s| s.engine().held_counts()).collect()
                };
                let totals = parked
                    .iter_mut()
                    .map(|s| s.engine().progress_counters())
                    .fold(base, |(s, p, c), (ds, dp, dc)| (s + ds, p + dp, c + dc));

                // Fleet checkpoint at the (quiescent) round barrier:
                // per-worker snapshots merged with the coordinator's
                // pending states and, when resumed, the base
                // checkpoint's accumulated results.
                if let Some(ckc) = ck_cfg {
                    let mark = totals.1 / ckc.every;
                    if mark > last_ck_mark {
                        last_ck_mark = mark;
                        // Crashed workers' results still belong in the
                        // checkpoint, as parts without a frontier (their
                        // states were handed off at crash time); shard
                        // order keeps the merge (and its worker-0 RNG
                        // pick) deterministic. A crashed part's RNG is
                        // a fresh seed-derived stream: any fixed value
                        // keeps a sequential resume deterministic.
                        let parts: Vec<Checkpoint> = parked
                            .iter_mut()
                            .zip(&live)
                            .map(|(slot, &is_live)| match (slot.engine(), is_live) {
                                (engine, true) => engine.snapshot(),
                                (engine, false) => Checkpoint {
                                    seed: self.config.seed,
                                    next_id: 0,
                                    rng: StdRng::seed_from_u64(self.config.seed).state(),
                                    results: engine.output(),
                                    frontier: Vec::new(),
                                },
                            })
                            .collect();
                        view.sync();
                        let extra = pending
                            .iter()
                            .map(|s| {
                                let (shard, seq) = s.order_key();
                                PortableState::export(
                                    &view, &s.live, s.region, shard, seq, s.warm_len,
                                )
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

                // Coordinator-side budget enforcement.
                let n_live = live.iter().filter(|&&l| l).count() as u64;
                let work_remains = first || !pending.is_empty() || counts.iter().any(|&n| n > 0);
                if !work_remains || n_live == 0 {
                    break false;
                }
                if budgets.exhausted(start, totals) {
                    break true;
                }
                // A zero quota would make every round a no-op and spin
                // the coordinator forever; one step per round is the
                // (degenerate but terminating) floor. A step budget
                // shrinks the last rounds' quotas so the fleet lands near
                // it (`exhausted` guarantees `used < limit`).
                let mut quota = self.par.steps_per_round.max(1);
                if let Some(limit) = budgets.max_steps {
                    quota = quota.min((limit - totals.0).div_ceil(n_live));
                }

                // The round's verdicts reach the store here, in worker
                // order, so the store's contents and order are the
                // same on every run; each worker then syncs its mirror
                // on its own thread before playing.
                for slot in parked.iter_mut() {
                    slot.engine().publish_shared_cache();
                }
                let mut inboxes: Vec<Vec<StolenState>> = (0..jobs).map(|_| Vec::new()).collect();
                let mut keeps: Vec<Option<u64>> = vec![None; jobs as usize];
                if free {
                    // Count-based stealing: spread pending states over the
                    // workers furthest below the balanced share, and ask
                    // workers holding >1.5× the share to shed the excess.
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

                for (shard, (inbox, keep)) in inboxes.into_iter().zip(keeps).enumerate() {
                    if !live[shard] {
                        // Only reachable transiently (round 0's
                        // all-to-zero map before the first rebalance):
                        // re-queue rather than lose the states.
                        pending.extend(inbox);
                        continue;
                    }
                    parked[shard].plan = Some(RoundPlan {
                        map: (!free).then(|| map.clone()),
                        inbox,
                        quota,
                        seed: first && shard == 0 && resume.is_none(),
                        keep,
                    });
                }
                first = false;
                // The plans are posted: the workers play the round.
                drop(parked);
                rounds.barrier.wait();
            }
        });

        // Outputs in shard order, so the reduction (and in particular its
        // float summation order) is fixed. A crashed worker's output holds
        // its pre-crash results.
        let mut parts: Vec<ShardOutput> = slots
            .iter()
            .map(|slot| lock(slot).output.take().expect("a stopping worker parks its output"))
            .collect();
        // A resumed run's pre-interruption half reduces like a worker's
        // part.
        if let Some(ck) = resume {
            parts.push(ck.results.clone());
        }
        let mut report = reduce_reports(&parts, self.program.num_blocks());
        // States stranded by a budget stop (or by every worker crashing)
        // are unexplored work.
        report.leftover_states += pending.len();
        report.envelope_exports = handed_off;
        report.wall_time = start.elapsed();
        report.hit_budget = hit_budget;
        report
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

impl Fleet {
    /// Fleet-total `(steps, picks, completed)`, for the budget rule.
    fn totals(&self) -> (u64, u64, u64) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (load(&self.steps), load(&self.picks), load(&self.completed))
    }
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
        // The steal fleet has no quiescent point to snapshot at, so it
        // never writes checkpoints — it can *resume* one (worker 0
        // injects the frontier instead of seeding), but periodic
        // checkpointing needs the BSP or sequential path.
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

        // The fault plan's panic coordinate: under steal, how many
        // picks each worker makes depends on thread timing, but the
        // fleet's n-th pick always exists once the run makes n picks.
        let fault_clock = Arc::new(AtomicU64::new(0));

        let parts: Vec<ShardOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|shard| {
                    let (program, config) = (self.program.clone(), config.clone());
                    let (pool, cache) = (Arc::clone(&pool), cache.clone());
                    let (par, fleet) = (self.par, &fleet);
                    let fault_clock = Arc::clone(&fault_clock);
                    let seed_frontier = if shard == 0 { resume_frontier } else { None };
                    scope.spawn(move || {
                        let mut engine = Substrate::engine(config, pool, cache, program, shard);
                        engine.set_fault_clock(fault_clock);
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
        let stranded: usize = fleet.queues.iter().map(|q| lock(q).len()).sum();
        let mut parts = parts;
        if let Some(ck) = resume {
            parts.push(ck.results.clone());
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

/// Locks a steal deque or a BSP slot, recovering from a poisoned mutex.
/// Every push and drain leaves a deque structurally consistent before the
/// guard drops, so after a peer's panic the deque still holds exactly the
/// live states it held — refusing to serve them would strand work that
/// the panic-isolation layer just went to the trouble of preserving. A
/// slot is only ever poisoned by a panicking coordinator, and the worker
/// that then locks it only drops its engine.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
    // to the fleet totals after each run.
    let (mut pub_steps, mut pub_picks, mut pub_completed) = (0u64, 0u64, 0u64);
    // Under a step budget every run is one instruction long, so each
    // worker still re-checks the fleet total before every instruction and
    // holds at most one unpublished step.
    let run_cap = if budgets.max_steps.is_some() { 1 } else { u64::MAX };
    loop {
        if fleet.stop.load(Ordering::Acquire) {
            break;
        }
        // Reading the fleet totals touches three contended counters, so
        // an unbudgeted run skips it.
        if budgets != Budgets::default() && budgets.exhausted(start, fleet.totals()) {
            fleet.stop.store(true, Ordering::Release);
            break;
        }
        if engine.worklist_len() == 0 {
            // Reclaim the own deque first: those states were shed for
            // starving peers, but none took them.
            let own: Vec<StolenState> = {
                let mut q = lock(&fleet.queues[shard as usize]);
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
                let mut q = lock(&fleet.queues[victim]);
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
            let deque_empty = lock(&fleet.queues[shard as usize]).is_empty();
            if deque_empty {
                let batch = engine.shed_states(engine.worklist_len() / 2, par.steal_newest);
                lock(&fleet.queues[shard as usize]).extend(batch);
            }
        }
        let before = engine.worklist_len() as i64;
        // Publish what the last run solved and pull in whatever the
        // peers published since (one atomic load when nothing changed).
        engine.publish_shared_cache();
        engine.sync_shared_cache();
        let drained = match catch_unwind(AssertUnwindSafe(|| engine.explore_within(run_cap))) {
            Ok(ExploreStep::Progressed) => None,
            // The worklist was non-empty, so these are unreachable;
            // re-entering the loop is safe regardless.
            Ok(ExploreStep::Exhausted | ExploreStep::BudgetExhausted) => continue,
            Err(payload) => {
                if !engine.isolation_armed() {
                    resume_unwind(payload);
                }
                // Quarantine the in-flight state and drain the worklist;
                // the worker retires below, once its delta is published.
                Some(engine.drain_after_panic(par.steal_newest))
            }
        };
        // Publish the run's worklist delta (successors minus the
        // consumed state): completions drive `outstanding` toward zero,
        // forks away from it. The running state stayed counted for the
        // run's whole duration, so no peer saw a false zero — and the
        // delta is exact even for a panic that landed mid-integration
        // (drained states are still live, on their way to the deque).
        let held = engine.worklist_len() + drained.as_ref().map_or(0, Vec::len);
        let delta = held as i64 - before;
        if delta != 0 {
            fleet.outstanding.fetch_add(delta, Ordering::AcqRel);
        }
        let (s, p, c) = engine.progress_counters();
        fleet.steps.fetch_add(s - pub_steps, Ordering::Relaxed);
        fleet.picks.fetch_add(p - pub_picks, Ordering::Relaxed);
        fleet.completed.fetch_add(c - pub_completed, Ordering::Relaxed);
        (pub_steps, pub_picks, pub_completed) = (s, p, c);
        if let Some(batch) = drained {
            // Retire: the drained states move into the own deque — an
            // outstanding-neutral move, like any shed — where the
            // surviving workers steal them.
            lock(&fleet.queues[shard as usize]).extend(batch);
            break;
        }
    }
    engine.output()
}

/// One BSP round's orders for a worker, posted into its [`Slot`] by the
/// coordinator at the barrier.
struct RoundPlan {
    /// Region policy: the assignment to install (the worker evicts the
    /// regions it lost). `None` under free placement.
    map: Option<RegionMap>,
    /// Migrated states this worker now owns.
    inbox: Vec<StolenState>,
    /// Instruction quota for the round.
    quota: u64,
    /// Seed the initial state this round (worker 0, round 0).
    seed: bool,
    /// Free placement: evict down to this many held states (`None` = no
    /// eviction requested this round).
    keep: Option<u64>,
}

/// Where a BSP worker parks its engine. The worker locks it while it
/// plays a round; the coordinator locks it only while every worker is
/// parked at the barrier, and after the workers have exited.
#[derive(Default)]
struct Slot {
    engine: Option<Engine>,
    /// The next round's orders; a crashed worker gets none and sits the
    /// round out.
    plan: Option<RoundPlan>,
    /// How the last round ended: the states leaving the worker (evicted
    /// and outbox), or the payload of the panic that stopped it.
    done: Option<std::thread::Result<Vec<StolenState>>>,
    /// The worker's final output, parked when it stops.
    output: Option<ShardOutput>,
}

impl Slot {
    fn engine(&mut self) -> &mut Engine {
        self.engine.as_mut().expect("the worker parks its engine before the first barrier")
    }
}

/// The BSP round barrier (every worker plus the coordinator) and the
/// flag the coordinator raises to end the run.
struct Rounds {
    barrier: Barrier,
    stop: AtomicBool,
}

/// Raises the stop flag and meets the parked workers at their barrier,
/// so each parks its output, drops its engine and exits, when the
/// coordinator leaves the scope by return or by panic (it only ever runs
/// while they are parked).
struct Release<'a>(&'a Rounds);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
        self.0.barrier.wait();
    }
}

/// A BSP worker thread. It parks its engine in `slot`, then serves
/// rounds, each bracketed by two barrier waits: between them the
/// coordinator owns the parked engine (reads the round's outcome, drains
/// a crash, snapshots, posts the next plan); after the second the worker
/// plays its plan, if it got one. Once the coordinator raises `stop`,
/// the worker parks the engine's output and drops the engine itself
/// (see [`Substrate::engine`]).
fn bsp_worker(engine: Engine, slot: &Mutex<Slot>, rounds: &Rounds, steal_newest: bool) {
    lock(slot).engine = Some(engine);
    loop {
        rounds.barrier.wait(); // parked: the coordinator reads and plans
        rounds.barrier.wait(); // the plans are posted
        if rounds.stop.load(Ordering::Acquire) {
            break;
        }
        let mut slot = lock(slot);
        let Slot { engine, plan, done, .. } = &mut *slot;
        if let (Some(engine), Some(plan)) = (engine.as_mut(), plan.take()) {
            // The whole round runs under `catch_unwind` so a panicking
            // worker (injected or organic) degrades the fleet instead of
            // tearing down the run. The coordinator decides at the
            // barrier: it drains the engine while panic isolation is
            // armed and re-raises the panic otherwise.
            *done = Some(catch_unwind(AssertUnwindSafe(|| play_round(engine, plan, steal_newest))));
        }
    }
    // The output is built here, on the engine's own thread: building it
    // on the coordinator measured ~5 % more CPU on `fleet-wc6`
    // (EXPERIMENTS.md).
    let mut slot = lock(slot);
    let engine = slot.engine.take();
    slot.output = engine.as_ref().map(|engine| engine.output());
}

/// One BSP round on a worker's engine: sync the verdict mirror, evict what the plan gives up, seed or integrate the
/// inbox, and explore up to the quota. Returns the states leaving this
/// worker (evicted and outbox), which the coordinator routes at the
/// next barrier.
fn play_round(engine: &mut Engine, plan: RoundPlan, steal_newest: bool) -> Vec<StolenState> {
    let RoundPlan { map, mut inbox, quota, seed, keep } = plan;
    engine.sync_shared_cache();
    let mut handoffs = match (map, keep) {
        // Region policy: install the new map, evict lost regions.
        (Some(map), _) => engine.set_region_map(map),
        // Free placement: steal by count, regions ignored.
        (None, Some(keep)) => {
            let excess = engine.worklist_len().saturating_sub(keep as usize);
            engine.shed_states(excess, steal_newest)
        }
        (None, None) => Vec::new(),
    };
    if seed {
        engine.seed_initial();
    }
    // Deterministic integration order regardless of the order the
    // hand-offs reached the coordinator. The inbox integrates as one
    // batch so its warm-prefix seeds pre-warm the local context tree
    // together (shared prefixes blasted once).
    inbox.sort_by_key(StolenState::order_key);
    engine.inject_direct(inbox);
    // The quota counts executed instructions: each run gets what is left
    // of it, so a round covers exactly `quota` of them (a stale pick,
    // which runs none, uses up one).
    let mut used = 0;
    while used < quota {
        let before = engine.progress_counters().0;
        match engine.explore_within(quota - used) {
            ExploreStep::Progressed => {}
            // Worker budgets are cleared, so only exhaustion ends a round
            // early; stopping is the right response to either.
            ExploreStep::Exhausted | ExploreStep::BudgetExhausted => break,
        }
        used += (engine.progress_counters().0 - before).max(1);
    }
    handoffs.extend(engine.take_outbox());
    handoffs
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
        // Each worker re-checks the fleet counters before every run and
        // publishes right after it, and the step budget caps runs at one
        // instruction, so the overshoot is at most one unpublished step
        // per worker.
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

    /// Worker RNG streams are pinned value for value (worker 1's drives
    /// a 2-worker fleet's picks).
    #[test]
    fn shard_seeds_are_pinned() {
        let s: Vec<u64> = (1..=3).map(|w| shard_seed(7, w)).collect();
        assert_eq!(s, [17824971123127853533, 12918135221727111561, 16731224329868871185]);
    }
}
