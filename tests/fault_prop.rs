//! Fault-tolerance differential: injected faults never change results.
//!
//! The robustness layer's contract mirrors the paper's merging contract —
//! it may change *performance* (retries, re-picks, worker counts) but
//! never *results*. Under `MergeMode::None` the explored path set is
//! schedule-invariant and canonical models pin the generated-test bytes,
//! so every leg here can assert full byte-identity of the result fields:
//!
//! * **panic equivalence** — a seeded worker panic (`panic=<w>:<pick>`)
//!   quarantines the in-flight state, re-queues it, and retires the
//!   worker; the surviving fleet must reproduce the fault-free run's
//!   tests, verdicts, coverage and path counts exactly, on both the BSP
//!   and the work-stealing scheduler;
//! * **Unknown equivalence** — seeded solver `Unknown`s
//!   (`unknown=<num>/<den>:<seed>`) are absorbed by the retry ladder
//!   (injection applies only to a query's *first* attempt), so the run
//!   drops nothing and matches the fault-free run byte-for-byte;
//! * **checkpoint → kill → resume** — a run killed mid-flight (simulated
//!   with a pick budget) and resumed from its last checkpoint produces
//!   the uninterrupted run's final report byte-identically, sequentially
//!   and across schedulers.

mod common;

use common::{assert_mode_invariant, fleet, harness_config, observe, observe_parallel};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use symmerge::prelude::*;
use symmerge::workloads::by_name;

/// Representative slice of the differential workloads: one arg-driven
/// branchy program, one with assertion failures reachable, one
/// stdin-driven. Enough to exercise forks, failures and both input
/// channels without multiplying wall time by the full 12-workload suite.
const WORKLOADS: &[(&str, InputConfig)] = &[
    ("echo", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("test", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("wc", InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 }),
];

fn engine_config(fault: Option<&str>) -> EngineConfig {
    EngineConfig {
        merge_mode: MergeMode::None,
        strategy: StrategyKind::Bfs,
        qce: QceConfig { alpha: 1e-12, ..QceConfig::default() },
        solver: SolverConfig { canonical_models: true, ..SolverConfig::default() },
        seed: 11,
        fault_plan: fault.map(|s| Arc::new(FaultPlan::parse(s).expect("test fault plan parses"))),
        ..EngineConfig::default()
    }
}

fn run_jobs(
    workload: &str,
    cfg: InputConfig,
    fault: Option<&str>,
    scheduler: SchedulerKind,
    jobs: u32,
) -> RunReport {
    let program = by_name(workload).unwrap().program(&cfg);
    let par = ParallelConfig { jobs, steps_per_round: 48, scheduler, ..Default::default() };
    ParallelEngine::new(program, engine_config(fault), par)
        .expect("workload programs validate")
        .run()
}

/// The result fields two equivalent runs must agree on byte-for-byte.
/// Deliberately excludes scheduling effort (picks/steps/steals/rounds):
/// a quarantined state is legitimately re-picked by its rescuer, so a
/// faulted run does strictly more work for identical results.
type ResultKey = (
    Vec<(String, Vec<(String, u64)>, Vec<u64>)>,
    BTreeSet<(String, (u32, u32, u32))>,
    u64,
    u64,
    u64,
    u64,
    usize,
);

fn result_key(r: &RunReport) -> ResultKey {
    let mut tests: Vec<_> = r.tests.iter().map(TestCase::sort_key).collect();
    tests.sort();
    let failures: BTreeSet<_> = r.assert_failures.iter().map(|f| (f.msg.clone(), f.loc)).collect();
    (
        tests,
        failures,
        r.completed_paths,
        r.completed_multiplicity as u64,
        r.pruned_by_assume,
        r.tests_dropped_unknown,
        r.covered_blocks,
    )
}

fn assert_equivalent(who: &str, baseline: &RunReport, faulted: &RunReport) {
    assert!(!baseline.hit_budget, "{who}: baseline must be exhaustive");
    assert!(!faulted.hit_budget, "{who}: faulted run must be exhaustive");
    assert_eq!(faulted.leftover_states, 0, "{who}: faulted run left states behind");
    assert_eq!(
        result_key(faulted),
        result_key(baseline),
        "{who}: injected faults changed observable results"
    );
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

/// BSP: a worker panicking mid-round quarantines its in-flight state,
/// hands its remaining worklist back to the coordinator, and the fleet
/// finishes degraded — with results identical to the fault-free run.
#[test]
fn bsp_worker_panic_preserves_results() {
    // Worker 1 (never worker 0: jobs=1 legs elsewhere must not panic)
    // panics at its 3rd local pick — early enough to fire on every
    // workload, late enough that it holds real states when it dies.
    let plan = "panic=1:2";
    for &(workload, cfg) in WORKLOADS {
        for jobs in [2u32, 4] {
            let baseline = run_jobs(workload, cfg, None, SchedulerKind::Bsp, jobs);
            let faulted = run_jobs(workload, cfg, Some(plan), SchedulerKind::Bsp, jobs);
            let who = format!("{workload} bsp jobs={jobs} {plan}");
            assert_equivalent(&who, &baseline, &faulted);
            assert_eq!(baseline.quarantined_states, 0, "{who}: baseline quarantined");
            assert_eq!(
                faulted.quarantined_states, 1,
                "{who}: exactly the one scheduled panic must fire and quarantine"
            );
        }
    }
}

/// BSP under region placement: in a merging mode, a worker that panics
/// is drained by the coordinator at the barrier and its regions move
/// whole to the survivors. Merge counts may differ from the fault-free
/// run, so the check is the paper's mode-invariance contract against the
/// unmerged sequential baseline. Region placement starts with every
/// region on worker 0 and hands a dead worker's regions to the lowest
/// live one, so the plans panic worker 0 and then each heir in turn:
/// every scheduled panic fires, and jobs=4 ends on one worker.
#[test]
fn bsp_worker_panic_under_merging_preserves_mode_invariance() {
    let solver = SolverConfig { canonical_models: true, ..SolverConfig::default() };
    for &(workload, cfg) in WORKLOADS {
        let unmerged = harness_config(MergeMode::None, StrategyKind::Bfs, solver.clone());
        let baseline = observe(workload, cfg, unmerged);
        for (mode, strategy) in [
            (MergeMode::Static, StrategyKind::Topological),
            (MergeMode::Dynamic, StrategyKind::CoverageOptimized),
        ] {
            for (jobs, plan, fired) in
                [(2u32, "panic=0:5", 1u64), (4, "panic=0:3,panic=1:3,panic=2:3", 3)]
            {
                let config = EngineConfig {
                    fault_plan: Some(Arc::new(FaultPlan::parse(plan).expect("plan parses"))),
                    ..harness_config(mode, strategy, solver.clone())
                };
                let obs = observe_parallel(workload, cfg, config, fleet(jobs, SchedulerKind::Bsp));
                let who = format!("{workload} {mode:?}/{strategy:?} bsp jobs={jobs} {plan}");
                assert_mode_invariant(&who, &baseline, &obs);
                assert_eq!(obs.report.leftover_states, 0, "{who}: states left behind");
                assert_eq!(
                    obs.report.quarantined_states, fired,
                    "{who}: every scheduled panic must fire and quarantine once"
                );
            }
        }
    }
}

/// Steal: a panicking worker publishes its worklist back to the shared
/// deques and retires; the survivors drain it to the identical result
/// set. Also covers the two-panic case (two workers retire, fleet of 4
/// degrades to 2). Under steal a plan's pick counts the whole fleet's
/// picks, so every scheduled panic fires whatever the thread timing.
#[test]
fn steal_worker_panic_preserves_results() {
    for &(workload, cfg) in WORKLOADS {
        for (jobs, plan, expect_fired) in [(2u32, "panic=1:2", 1u64), (4, "panic=1:2,panic=3:4", 2)]
        {
            let baseline = run_jobs(workload, cfg, None, SchedulerKind::Steal, jobs);
            let faulted = run_jobs(workload, cfg, Some(plan), SchedulerKind::Steal, jobs);
            let who = format!("{workload} steal jobs={jobs} {plan}");
            assert_equivalent(&who, &baseline, &faulted);
            assert_eq!(
                faulted.quarantined_states, expect_fired,
                "{who}: every scheduled panic must fire exactly once"
            );
        }
    }
}

/// A panic scheduled past the end of the run simply never fires: the
/// plan arms isolation but the run is byte-identical to fault-free,
/// including zero quarantines.
#[test]
fn unfired_panic_plan_is_inert() {
    let (workload, cfg) = WORKLOADS[0];
    let baseline = run_jobs(workload, cfg, None, SchedulerKind::Bsp, 2);
    let faulted = run_jobs(workload, cfg, Some("panic=1:1000000"), SchedulerKind::Bsp, 2);
    assert_equivalent("echo bsp jobs=2 unfired panic", &baseline, &faulted);
    assert_eq!(faulted.quarantined_states, 0, "unscheduled pick must never quarantine");
}

// ---------------------------------------------------------------------
// Unknown-retry ladder
// ---------------------------------------------------------------------

/// Seeded `Unknown`s on first attempts are fully absorbed by the retry
/// ladder: nothing drops, and because retries re-solve the identical
/// query, results are byte-identical to the fault-free run. Checked
/// sequentially and on both parallel schedulers (per-worker seed
/// decorrelation gives every shard its own Unknown stream).
#[test]
fn forced_unknowns_are_absorbed_by_the_retry_ladder() {
    let plan = "unknown=1/4:7";
    for &(workload, cfg) in WORKLOADS {
        for (scheduler, jobs) in
            [(SchedulerKind::Bsp, 1u32), (SchedulerKind::Bsp, 4), (SchedulerKind::Steal, 4)]
        {
            let baseline = run_jobs(workload, cfg, None, scheduler, jobs);
            let faulted = run_jobs(workload, cfg, Some(plan), scheduler, jobs);
            let who = format!("{workload} {scheduler:?} jobs={jobs} {plan}");
            assert_equivalent(&who, &baseline, &faulted);
            assert!(
                faulted.solver.forced_unknowns > 0,
                "{who}: a 1/4 Unknown rate must actually fire"
            );
            assert_eq!(
                faulted.solver.retry_recovered, faulted.solver.forced_unknowns,
                "{who}: every injected Unknown must be recovered by the ladder"
            );
            assert_eq!(faulted.tests_dropped_unknown, 0, "{who}: nothing may drop");
        }
    }
}

/// Panics and Unknowns injected together — the combined plan the CI
/// fault-inject leg runs — still reproduce the clean results.
#[test]
fn combined_fault_plan_preserves_results() {
    let (workload, cfg) = WORKLOADS[0];
    let plan = "panic=1:3,unknown=1/8:5";
    for scheduler in [SchedulerKind::Bsp, SchedulerKind::Steal] {
        let baseline = run_jobs(workload, cfg, None, scheduler, 4);
        let faulted = run_jobs(workload, cfg, Some(plan), scheduler, 4);
        let who = format!("{workload} {scheduler:?} jobs=4 {plan}");
        assert_equivalent(&who, &baseline, &faulted);
        assert_eq!(faulted.quarantined_states, 1, "{who}: the scheduled panic must fire");
        assert!(faulted.solver.forced_unknowns > 0, "{who}: Unknowns must fire");
    }
}

// ---------------------------------------------------------------------
// Checkpoint → kill → resume
// ---------------------------------------------------------------------

fn ck_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("symmerge-fault-prop-{}-{tag}.ck", std::process::id()))
}

fn with_checkpoint(mut config: EngineConfig, path: PathBuf, every: u64) -> EngineConfig {
    config.checkpoint = Some(CheckpointConfig { path, every });
    config
}

fn with_pick_budget(mut config: EngineConfig, max_picks: u64) -> EngineConfig {
    config.budgets = Budgets { max_picks: Some(max_picks), ..Budgets::default() };
    config
}

/// Sequential kill/resume: run with a pick budget standing in for the
/// kill, resume a *fresh* engine from the last checkpoint, and demand
/// the uninterrupted run's report — including the effort counters,
/// since sequential resume restores them exactly.
#[test]
fn sequential_kill_and_resume_reproduces_the_run() {
    let (workload, cfg) = WORKLOADS[0];
    let program = by_name(workload).unwrap().program(&cfg);
    let path = ck_path("seq");

    let uninterrupted =
        Engine::builder(program.clone()).config(engine_config(None)).build().unwrap().run();
    assert!(!uninterrupted.hit_budget, "{workload}: reference run must be exhaustive");

    // "Kill" the run 30 picks in; the engine checkpointed at pick 24.
    let killed_cfg = with_pick_budget(with_checkpoint(engine_config(None), path.clone(), 8), 30);
    let killed = Engine::builder(program.clone()).config(killed_cfg).build().unwrap().run();
    assert!(killed.hit_budget, "{workload}: the killed run must stop early");

    let ck = read_checkpoint(&path).expect("checkpoint written before the kill");
    std::fs::remove_file(&path).ok();
    assert_eq!(ck.results.report.picks % 8, 0, "checkpoints land on the cadence");
    assert!(!ck.frontier.is_empty(), "mid-run checkpoint must carry a frontier");

    let mut resumed_engine = Engine::builder(program).config(engine_config(None)).build().unwrap();
    resumed_engine.restore_checkpoint(&ck).unwrap();
    let resumed = resumed_engine.run();

    let who = format!("{workload} sequential resume");
    assert_equivalent(&who, &uninterrupted, &resumed);
    assert_eq!(resumed.picks, uninterrupted.picks, "{who}: pick counts differ");
    assert_eq!(resumed.steps, uninterrupted.steps, "{who}: step counts differ");
}

/// BSP kill/resume at jobs=4: the coordinator writes fleet checkpoints
/// at round barriers; resuming a fresh `ParallelEngine` from one
/// reproduces the uninterrupted run, total effort included.
#[test]
fn bsp_kill_and_resume_reproduces_the_run() {
    let (workload, cfg) = WORKLOADS[0];
    let program = by_name(workload).unwrap().program(&cfg);
    let path = ck_path("bsp");
    let par = || ParallelConfig { jobs: 4, steps_per_round: 8, ..Default::default() };

    let uninterrupted =
        ParallelEngine::new(program.clone(), engine_config(None), par()).unwrap().run();
    assert!(!uninterrupted.hit_budget, "{workload}: reference run must be exhaustive");

    let killed_cfg = with_pick_budget(with_checkpoint(engine_config(None), path.clone(), 8), 30);
    let killed = ParallelEngine::new(program.clone(), killed_cfg, par()).unwrap().run();
    assert!(killed.hit_budget, "{workload}: the killed run must stop early");

    let ck = read_checkpoint(&path).expect("coordinator checkpoint written before the kill");
    std::fs::remove_file(&path).ok();
    let picks = ck.results.report.picks;
    assert!(picks > 0 && picks < uninterrupted.picks, "checkpoint is mid-run");

    let resumed =
        ParallelEngine::new(program, engine_config(None), par()).unwrap().resume(&ck).unwrap();

    let who = format!("{workload} bsp jobs=4 resume");
    assert_equivalent(&who, &uninterrupted, &resumed);
    assert_eq!(resumed.picks, uninterrupted.picks, "{who}: pick counts differ");
    assert_eq!(resumed.steps, uninterrupted.steps, "{who}: step counts differ");
}

/// BSP resume from a barrier where the coordinator still holds states
/// between workers: the fleet checkpoint writes them out of the
/// coordinator's own pending list, and resuming must still reproduce
/// the uninterrupted run.
#[test]
fn bsp_resume_carries_the_coordinators_pending_states() {
    let (workload, cfg) = WORKLOADS[2];
    let program = by_name(workload).unwrap().program(&cfg);
    let path = ck_path("bsp-pending");
    let par = || ParallelConfig { jobs: 4, steps_per_round: 8, ..Default::default() };

    let uninterrupted =
        ParallelEngine::new(program.clone(), engine_config(None), par()).unwrap().run();

    // BSP is deterministic per (seed, jobs), so the barrier a pick
    // budget stops at is fixed. At 2 picks it is the barrier right
    // after worker 0's first hand-off, with that state still pending;
    // checkpointing every pick writes exactly that barrier.
    let killed_cfg = with_pick_budget(with_checkpoint(engine_config(None), path.clone(), 1), 2);
    let killed = ParallelEngine::new(program.clone(), killed_cfg, par()).unwrap().run();
    assert!(killed.hit_budget, "{workload}: the killed run must stop early");

    let ck = read_checkpoint(&path).expect("coordinator checkpoint written before the kill");
    std::fs::remove_file(&path).ok();
    assert_eq!(ck.results.report.picks, 2, "{workload}: checkpoint at the last barrier");
    // Worker 0's first hand-off and its own snapshot both carry the key
    // (0, 1), so two copies show the pending state was written.
    let firsts = ck.frontier.iter().filter(|s| s.order_key() == (0, 1)).count();
    assert_eq!(firsts, 2, "{workload}: the checkpoint must carry the pending state");

    let resumed =
        ParallelEngine::new(program, engine_config(None), par()).unwrap().resume(&ck).unwrap();
    let who = format!("{workload} bsp jobs=4 resume with pending states");
    assert_equivalent(&who, &uninterrupted, &resumed);
    assert_eq!(resumed.picks, uninterrupted.picks, "{who}: pick counts differ");
    assert_eq!(resumed.steps, uninterrupted.steps, "{who}: step counts differ");
}

/// Cross-scheduler resume: a checkpoint written by the *sequential*
/// engine resumes on the work-stealing fleet (and vice versa is covered
/// by the schedulers sharing `Checkpoint`). Under `MergeMode::None` the
/// result set is scheduler-invariant, so the resumed steal run must
/// still match the uninterrupted sequential run's results.
#[test]
fn checkpoint_resumes_across_schedulers() {
    let (workload, cfg) = WORKLOADS[0];
    let program = by_name(workload).unwrap().program(&cfg);
    let path = ck_path("xsched");

    let uninterrupted =
        Engine::builder(program.clone()).config(engine_config(None)).build().unwrap().run();

    let killed_cfg = with_pick_budget(with_checkpoint(engine_config(None), path.clone(), 8), 30);
    Engine::builder(program.clone()).config(killed_cfg).build().unwrap().run();
    let ck = read_checkpoint(&path).expect("checkpoint written before the kill");
    std::fs::remove_file(&path).ok();

    let par = ParallelConfig {
        jobs: 4,
        steps_per_round: 48,
        scheduler: SchedulerKind::Steal,
        ..Default::default()
    };
    let resumed =
        ParallelEngine::new(program, engine_config(None), par).unwrap().resume(&ck).unwrap();

    let who = format!("{workload} sequential checkpoint resumed on steal jobs=4");
    assert_equivalent(&who, &uninterrupted, &resumed);
    assert_eq!(resumed.picks, uninterrupted.picks, "{who}: pick counts differ");
}

/// A worker panic *during the interrupted segment* must not corrupt the
/// checkpoint: kill a faulted BSP run, resume fault-free, and still get
/// the clean uninterrupted report.
#[test]
fn checkpoint_survives_a_worker_panic_before_the_kill() {
    let (workload, cfg) = WORKLOADS[0];
    let program = by_name(workload).unwrap().program(&cfg);
    let path = ck_path("panic-then-kill");
    let par = || ParallelConfig { jobs: 4, steps_per_round: 8, ..Default::default() };

    let uninterrupted =
        ParallelEngine::new(program.clone(), engine_config(None), par()).unwrap().run();

    let killed_cfg =
        with_pick_budget(with_checkpoint(engine_config(Some("panic=1:2")), path.clone(), 8), 30);
    let killed = ParallelEngine::new(program.clone(), killed_cfg, par()).unwrap().run();
    assert!(killed.hit_budget, "{workload}: the killed run must stop early");

    let ck = read_checkpoint(&path).expect("checkpoint written despite the panic");
    std::fs::remove_file(&path).ok();

    let resumed =
        ParallelEngine::new(program, engine_config(None), par()).unwrap().resume(&ck).unwrap();
    let who = format!("{workload} bsp jobs=4 panic-then-kill resume");
    assert_equivalent(&who, &uninterrupted, &resumed);
}

/// A checkpoint resumes only on a program it fits. A checkpoint written
/// by a `wc` run is refused, with an error and before anything runs, on
/// programs whose frames it does not fit: by the sequential engine and
/// by the fleet under both schedulers.
#[test]
fn checkpoint_from_another_program_is_refused() {
    let cfg = InputConfig { n_args: 0, arg_len: 1, stdin_len: 4 };
    let program = by_name("wc").unwrap().program(&cfg);
    let path = ck_path("foreign");
    let killed_cfg = with_pick_budget(with_checkpoint(engine_config(None), path.clone(), 8), 8);
    Engine::builder(program).config(killed_cfg).build().unwrap().run();
    let ck = read_checkpoint(&path).expect("checkpoint written before the kill");
    std::fs::remove_file(&path).ok();
    assert!(!ck.frontier.is_empty(), "mid-run checkpoint must carry a frontier");

    for (workload, cfg) in
        [("link", InputConfig::args(2, 2)), ("basename", InputConfig::args(1, 3))]
    {
        let other = by_name(workload).unwrap().program(&cfg);
        let mut engine =
            Engine::builder(other.clone()).config(engine_config(None)).build().unwrap();
        let err = engine.restore_checkpoint(&ck).expect_err("sequential resume must refuse");
        assert!(err.contains("frontier state"), "{workload}: {err}");
        for scheduler in [SchedulerKind::Bsp, SchedulerKind::Steal] {
            let par = ParallelConfig { jobs: 2, scheduler, ..Default::default() };
            let mut fleet = ParallelEngine::new(other.clone(), engine_config(None), par).unwrap();
            let err = fleet.resume(&ck).expect_err("fleet resume must refuse");
            assert!(err.contains("frontier state"), "{workload} {scheduler:?}: {err}");
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint byte layout
// ---------------------------------------------------------------------

/// FNV-1a: a digest fixed by its definition, so it pins across
/// toolchains (unlike `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The checkpoint bytes of two real runs are pinned (format version 1).
/// The sequential `wc` snapshot runs under dynamic merging, so merges,
/// rejects, fast-forward merges and DSM histories are in it. The BSP
/// jobs=2 barrier checkpoint loses worker 1 to a panic first, so it
/// merges a live worker's snapshot, a crashed worker's final totals and
/// the coordinator's pending states. A change to how runs keep their
/// totals must not move a byte; a deliberate layout change bumps the
/// format version and re-pins. Each file also survives a read and a
/// rewrite byte for byte.
#[test]
fn checkpoint_bytes_are_pinned() {
    let (workload, cfg) = WORKLOADS[2];
    let program = by_name(workload).unwrap().program(&cfg);
    let digest = |path: &PathBuf| {
        let bytes = std::fs::read(path).expect("checkpoint written before the kill");
        // Reading a real file back and writing it again is the identity.
        let ck = read_checkpoint(path).expect("a written checkpoint reads back");
        write_checkpoint(path, &ck).expect("the checkpoint rewrites");
        let rewritten = std::fs::read(path).expect("the rewritten checkpoint");
        assert!(rewritten == bytes, "{}: rewriting moved a byte", path.display());
        std::fs::remove_file(path).ok();
        (bytes.len(), fnv1a(&bytes))
    };

    let seq_path = ck_path("pin-seq");
    let merging = EngineConfig { merge_mode: MergeMode::Dynamic, ..engine_config(None) };
    let seq_cfg = with_pick_budget(with_checkpoint(merging, seq_path.clone(), 100), 450);
    Engine::builder(program.clone()).config(seq_cfg).build().unwrap().run();

    let bsp_path = ck_path("pin-bsp");
    let par = ParallelConfig { jobs: 2, steps_per_round: 8, ..Default::default() };
    let faulted = engine_config(Some("panic=1:2"));
    let bsp_cfg = with_pick_budget(with_checkpoint(faulted, bsp_path.clone(), 4), 14);
    ParallelEngine::new(program, bsp_cfg, par).unwrap().run();

    assert_eq!(digest(&seq_path), (14412, 13684487964213741232), "sequential dsm snapshot");
    assert_eq!(digest(&bsp_path), (3848, 13541679318571554366), "bsp jobs=2 barrier checkpoint");
}
