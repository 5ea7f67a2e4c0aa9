//! Cross-layer differential soundness harness.
//!
//! For a spread of workloads and every `MergeMode` × search-strategy
//! combination at small input sizes, this suite runs the symbolic engine,
//! replays every generated test case through the concrete interpreter
//! (`common::observe`), and asserts the paper's central invariant — that
//! `∼qce` state merging is result-preserving — against the unmerged
//! baseline (`common::assert_mode_invariant`).
//!
//! The workload list spans all three input channels (args, stdin, both)
//! and the sizes are chosen so every configuration explores exhaustively
//! quickly; the point here is breadth of configurations, not input scale
//! (scale sweeps live in `symmerge-bench`). 21 of the 26 workloads run by
//! default; set `SYMMERGE_DIFF_FULL=1` to include the five expensive
//! stragglers and sweep all 26.
//!
//! A second axis (`solver_differential_*`) varies the *solver* instead of
//! the engine: the incremental prefix-context path vs the monolithic
//! re-blast path, both in canonical-model mode, must produce
//! byte-identical runs.
//!
//! Every run's configuration is a value built from the library's
//! constant defaults, so no result here depends on the ambient
//! environment: `SYMMERGE_DIFF_FULL` only selects how many workloads
//! run. The per-knob ablations (each solver tier off, all of them off,
//! fault injection, panic isolation) are walked in process by
//! `tests/ablation.rs`.

mod common;

use common::{
    assert_exact_baseline, assert_mode_invariant, assert_parallel_matches_sequential,
    assert_solver_config_invariant, fleet, harness_config, observe, observe_parallel, run_parallel,
    run_parallel_steal, run_with_solver, WORKLOADS,
};
use symmerge::prelude::*;

/// The harness configuration under the default solver.
fn config(mode: MergeMode, strategy: StrategyKind) -> EngineConfig {
    harness_config(mode, strategy, SolverConfig::default())
}

/// Second wave, run by default: the 9 workloads whose exhaustive
/// explorations stay cheap at these sizes (each full mode × strategy
/// sweep is well under a second in debug). Together with the core
/// `WORKLOADS` the default suite covers 21 of the 26 workloads.
const WORKLOADS_WAVE2: &[(&str, InputConfig)] = &[
    ("join", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("yes", InputConfig { n_args: 1, arg_len: 2, stdin_len: 0 }),
    ("pr", InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 }),
    ("head", InputConfig { n_args: 1, arg_len: 1, stdin_len: 2 }),
    ("od", InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 }),
    ("cksum", InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 }),
    ("uniq", InputConfig { n_args: 1, arg_len: 1, stdin_len: 2 }),
    ("tr", InputConfig { n_args: 1, arg_len: 2, stdin_len: 2 }),
    ("fold", InputConfig { n_args: 1, arg_len: 1, stdin_len: 2 }),
];

/// The expensive tail (multi-second exhaustive explorations even at the
/// smallest meaningful sizes — `tsort` alone is ~15 s per baseline in
/// debug). Gated behind `SYMMERGE_DIFF_FULL=1` so the default CI run
/// stays bounded; with the gate set, all 26 workloads are differentially
/// tested.
const WORKLOADS_FULL_ONLY: &[(&str, InputConfig)] = &[
    ("seq", InputConfig { n_args: 1, arg_len: 2, stdin_len: 0 }),
    ("paste", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("comm", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("expand", InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 }),
    ("tsort", InputConfig { n_args: 0, arg_len: 1, stdin_len: 2 }),
];

/// Whether the `SYMMERGE_DIFF_FULL=1` gate is set.
fn full_sweep() -> bool {
    std::env::var("SYMMERGE_DIFF_FULL").is_ok_and(|v| !matches!(v.trim(), "" | "0" | "off"))
}

/// The strategies each merge mode is crossed with. `Topological` is the
/// paper's natural order for static merging but soundness must not depend
/// on the schedule, so every mode is exercised under every strategy.
const STRATEGIES: &[StrategyKind] = &[
    StrategyKind::Bfs,
    StrategyKind::Dfs,
    StrategyKind::Random,
    StrategyKind::CoverageOptimized,
    StrategyKind::Topological,
];

fn differential_for(workloads: &[(&str, InputConfig)]) {
    for &(name, cfg) in workloads {
        let baseline = observe(name, cfg, config(MergeMode::None, StrategyKind::Bfs));
        assert_exact_baseline(name, &baseline);
        for &strategy in STRATEGIES {
            for mode in [MergeMode::None, MergeMode::Static, MergeMode::Dynamic] {
                if mode == MergeMode::None && strategy == StrategyKind::Bfs {
                    continue; // that's the baseline itself
                }
                let obs = observe(name, cfg, config(mode, strategy));
                assert_mode_invariant(name, &baseline, &obs);
            }
        }
    }
}

// The workload matrix is split into a few #[test] functions so the suite
// parallelizes across the test harness's threads and a failure names the
// offending group.

#[test]
fn differential_args_workloads_echo_link_sleep() {
    differential_for(&WORKLOADS[0..3]);
}

#[test]
fn differential_args_workloads_nice_basename_dirname() {
    differential_for(&WORKLOADS[3..6]);
}

#[test]
fn differential_args_workloads_cut_test() {
    differential_for(&WORKLOADS[6..8]);
}

#[test]
fn differential_stdin_workloads() {
    differential_for(&WORKLOADS[8..11]);
}

#[test]
fn differential_mixed_input_workloads() {
    differential_for(&WORKLOADS[11..]);
}

#[test]
fn differential_wave2_join_yes_pr_head() {
    differential_for(&WORKLOADS_WAVE2[0..4]);
}

#[test]
fn differential_wave2_od_cksum_uniq_tr_fold() {
    differential_for(&WORKLOADS_WAVE2[4..]);
}

/// All 26 workloads: the five expensive stragglers run only under
/// `SYMMERGE_DIFF_FULL=1` (multi-minute in debug otherwise — `tsort`'s
/// exhaustive baseline alone is ~15 s per strategy).
#[test]
fn differential_full_sweep_seq_paste_comm_expand_tsort() {
    if !full_sweep() {
        eprintln!("skipping full-sweep workloads (set SYMMERGE_DIFF_FULL=1 to run all 26)");
        return;
    }
    differential_for(WORKLOADS_FULL_ONLY);
}

/// The solver-config differential: for every workload, run the *same*
/// engine configuration once on the incremental solver (persistent
/// prefix contexts, assumption solving) and once on the monolithic
/// re-blast path, both in canonical-model mode, and require the runs to
/// be observationally identical — same verdicts, same coverage, same
/// path counts, and byte-identical generated tests. Satisfiability
/// equivalence alone would allow the two solver paths to pick different
/// models; canonical (minimal) models close that gap, so this asserts
/// strict equality.
fn solver_differential_for(workloads: &[(&str, InputConfig)]) {
    let incremental =
        SolverConfig { use_incremental: true, canonical_models: true, ..SolverConfig::default() };
    let reblast =
        SolverConfig { use_incremental: false, canonical_models: true, ..SolverConfig::default() };
    for &(name, cfg) in workloads {
        for (mode, strategy) in
            [(MergeMode::None, StrategyKind::Bfs), (MergeMode::Static, StrategyKind::Topological)]
        {
            let a = run_with_solver(name, cfg, mode, strategy, incremental.clone());
            let b = run_with_solver(name, cfg, mode, strategy, reblast.clone());
            assert_solver_config_invariant(name, "incremental vs re-blast", &a, &b);
        }
    }
}

#[test]
fn solver_differential_args_workloads_first_half() {
    solver_differential_for(&WORKLOADS[0..4]);
}

#[test]
fn solver_differential_args_workloads_second_half() {
    solver_differential_for(&WORKLOADS[4..8]);
}

#[test]
fn solver_differential_stdin_and_mixed_workloads() {
    solver_differential_for(&WORKLOADS[8..]);
}

/// The cache-tier differential: the cex signature prefilter is a pure
/// shortcut — it may skip a subset merge, never change an answer.
/// Running the prefiltered pipeline against an unfiltered reference on
/// the re-blast path, the only path that scans the counterexample cache,
/// must be byte-identical under canonical models.
fn tier_pipeline_differential_for(workloads: &[(&str, InputConfig)]) {
    for &(name, cfg) in workloads {
        let plain = SolverConfig {
            use_incremental: false,
            canonical_models: true,
            cex_prefilter: false,
            ..SolverConfig::default()
        };
        let filtered = SolverConfig { cex_prefilter: true, ..plain.clone() };
        for (mode, strategy) in
            [(MergeMode::None, StrategyKind::Bfs), (MergeMode::Static, StrategyKind::Topological)]
        {
            let b = run_with_solver(name, cfg, mode, strategy, plain.clone());
            let a = run_with_solver(name, cfg, mode, strategy, filtered.clone());
            assert_solver_config_invariant(name, "prefiltered vs unfiltered", &a, &b);
        }
    }
}

#[test]
fn tier_pipeline_differential_args_workloads() {
    tier_pipeline_differential_for(&WORKLOADS[0..8]);
}

#[test]
fn tier_pipeline_differential_stdin_and_mixed_workloads() {
    tier_pipeline_differential_for(&WORKLOADS[8..]);
}

/// The parallel differential: for every workload, the sharded engine at
/// `jobs ∈ {1, 2, 4}` must be byte-identical to the sequential engine —
/// same counters, verdicts and coverage, and (under canonical models,
/// whose minimal model depends only on the path condition's semantics,
/// not on which worker's expression pool represented it) the exact same
/// generated tests. `MergeMode::None` makes the explored path set
/// schedule-invariant, which is what turns "same answers" into "same
/// bytes"; the tiny round quota in `run_parallel` forces heavy
/// cross-worker migration on every workload.
fn parallel_differential_for(workloads: &[(&str, InputConfig)]) {
    let solver = SolverConfig { canonical_models: true, ..SolverConfig::default() };
    for &(name, cfg) in workloads {
        let sequential =
            run_with_solver(name, cfg, MergeMode::None, StrategyKind::Bfs, solver.clone());
        for jobs in [1, 2, 4] {
            let parallel =
                run_parallel(name, cfg, MergeMode::None, StrategyKind::Bfs, solver.clone(), jobs);
            assert_parallel_matches_sequential(name, jobs, &sequential, &parallel);
        }
    }
}

#[test]
fn parallel_differential_args_workloads_first_half() {
    parallel_differential_for(&WORKLOADS[0..4]);
}

#[test]
fn parallel_differential_args_workloads_second_half() {
    parallel_differential_for(&WORKLOADS[4..8]);
}

#[test]
fn parallel_differential_stdin_and_mixed_workloads() {
    parallel_differential_for(&WORKLOADS[8..]);
}

/// The scheduler differential: under `MergeMode::None` with canonical
/// models the work-stealing scheduler must reproduce the sequential
/// engine's result set exactly — same counters, verdicts, coverage and
/// generated-test bytes — at every worker count. Unlike the BSP rounds, steal-mode
/// scheduling is timing-dependent; `MergeMode::None`'s schedule-invariant
/// path set is what keeps the *results* byte-comparable anyway.
fn steal_differential_for(workloads: &[(&str, InputConfig)]) {
    let solver = SolverConfig { canonical_models: true, ..SolverConfig::default() };
    for &(name, cfg) in workloads {
        let sequential =
            run_with_solver(name, cfg, MergeMode::None, StrategyKind::Bfs, solver.clone());
        for jobs in [1, 2, 4] {
            let steal = run_parallel_steal(
                name,
                cfg,
                MergeMode::None,
                StrategyKind::Bfs,
                solver.clone(),
                jobs,
            );
            assert_parallel_matches_sequential(name, jobs, &sequential, &steal);
        }
    }
}

#[test]
fn steal_differential_args_workloads_first_half() {
    steal_differential_for(&WORKLOADS[0..4]);
}

#[test]
fn steal_differential_args_workloads_second_half() {
    steal_differential_for(&WORKLOADS[4..8]);
}

#[test]
fn steal_differential_stdin_and_mixed_workloads() {
    steal_differential_for(&WORKLOADS[8..]);
}

/// Merged-mode sharded runs: region sharding keeps merge candidates
/// co-located, so SSM/DSM still merge across workers' rounds; the results
/// must satisfy the same mode-invariance contract as sequential merged
/// runs (identical verdicts and coverage, no lost or invented paths).
#[test]
fn parallel_merged_modes_preserve_mode_invariance() {
    for &(name, cfg) in &[WORKLOADS[0], WORKLOADS[4], WORKLOADS[8], WORKLOADS[11]] {
        let baseline = observe(name, cfg, config(MergeMode::None, StrategyKind::Bfs));
        for (mode, strategy) in [
            (MergeMode::Static, StrategyKind::Topological),
            (MergeMode::Dynamic, StrategyKind::Bfs),
        ] {
            for jobs in [2, 4] {
                let par = fleet(jobs, SchedulerKind::Bsp);
                let obs = observe_parallel(name, cfg, config(mode, strategy), par);
                assert_mode_invariant(name, &baseline, &obs);
            }
        }
    }
}

/// Sharded runs are deterministic per `(seed, jobs)`: re-running the
/// exact configuration — including a merging mode, where the round
/// structure influences *which* merges happen — reproduces the report
/// byte for byte. The steal scheduler, whose trace is not reproducible,
/// must still reproduce its results under `MergeMode::None`.
#[test]
fn parallel_runs_are_reproducible_per_seed_and_jobs() {
    let solver = SolverConfig { canonical_models: true, ..SolverConfig::default() };
    for &(name, cfg) in &[WORKLOADS[1], WORKLOADS[9]] {
        for (mode, strategy, scheduler) in [
            (MergeMode::None, StrategyKind::Random, SchedulerKind::Bsp),
            (MergeMode::None, StrategyKind::Random, SchedulerKind::Steal),
            (MergeMode::Static, StrategyKind::Topological, SchedulerKind::Bsp),
        ] {
            let run = || match scheduler {
                SchedulerKind::Bsp => run_parallel(name, cfg, mode, strategy, solver.clone(), 4),
                SchedulerKind::Steal => {
                    run_parallel_steal(name, cfg, mode, strategy, solver.clone(), 4)
                }
            };
            let (a, b) = (run(), run());
            let mode = format!("{mode:?}/{scheduler:?}");
            assert_eq!(a.completed_paths, b.completed_paths, "{name} {mode}");
            assert_eq!(a.completed_multiplicity, b.completed_multiplicity, "{name} {mode}");
            assert_eq!(a.merges, b.merges, "{name} {mode}: merge structure must reproduce");
            assert_eq!(a.steps, b.steps, "{name} {mode}");
            assert_eq!(a.covered_blocks, b.covered_blocks, "{name} {mode}");
            let bytes = |r: &RunReport| {
                r.tests
                    .iter()
                    .map(|t| (t.inputs.clone(), t.predicted_outputs.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bytes(&a), bytes(&b), "{name} {mode}: reports must be byte-identical");
        }
    }
}

/// Affinity-aware scheduling is seed-reproducible: the exact same
/// configuration (affinity on, the affinity-sensitive coverage-optimized
/// strategy) reproduces the run byte for byte — affinity tokens derive
/// from the solver's deterministic context clock, never from wall-clock.
#[test]
fn affinity_scheduling_is_seed_reproducible() {
    let solver = SolverConfig { canonical_models: true, ..SolverConfig::default() };
    for &(name, cfg) in &[WORKLOADS[8], WORKLOADS[0]] {
        let run = || {
            run_with_solver(
                name,
                cfg,
                MergeMode::None,
                StrategyKind::CoverageOptimized,
                solver.clone(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.picks, b.picks, "{name}: pick counts differ across identical runs");
        assert_eq!(a.steps, b.steps, "{name}: step counts differ across identical runs");
        let bytes = |r: &RunReport| {
            r.tests
                .iter()
                .map(|t| (t.inputs.clone(), t.predicted_outputs.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bytes(&a), bytes(&b), "{name}: affinity scheduling broke reproducibility");
    }
}

/// For `MergeMode::None` the explored path set is schedule-invariant, so
/// affinity-aware scheduling must be *result*-identical to affinity-off:
/// same verdicts, same coverage, and (under canonical models) the same
/// generated-test bytes — only the order of exploration may differ.
#[test]
fn affinity_scheduling_is_result_invariant_without_merging() {
    let solver = SolverConfig { canonical_models: true, ..SolverConfig::default() };
    for &(name, cfg) in &[WORKLOADS[8], WORKLOADS[6]] {
        let run = |affinity: bool| {
            let program = symmerge::workloads::by_name(name).unwrap().program(&cfg);
            let config = EngineConfig {
                merge_mode: MergeMode::None,
                strategy: StrategyKind::CoverageOptimized,
                qce: QceConfig { alpha: 1e-12, ..QceConfig::default() },
                solver: solver.clone(),
                affinity_scheduling: affinity,
                seed: 11,
                ..EngineConfig::default()
            };
            let report = Engine::builder(program).config(config).build().unwrap().run();
            assert!(!report.hit_budget, "{name}: affinity differential needs exhaustive runs");
            report
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.completed_paths, off.completed_paths, "{name}: path counts differ");
        assert_eq!(on.covered_blocks, off.covered_blocks, "{name}: coverage differs");
        assert_eq!(on.assert_failures.len(), off.assert_failures.len(), "{name}: verdicts differ");
        let bytes = |r: &RunReport| {
            let mut v: Vec<_> =
                r.tests.iter().map(|t| (t.inputs.clone(), t.predicted_outputs.clone())).collect();
            v.sort();
            v
        };
        assert_eq!(bytes(&on), bytes(&off), "{name}: affinity changed the result set");
    }
}

/// The baseline itself must not depend on the schedule: unmerged
/// exploration discovers the same behaviours, verdicts and coverage under
/// every strategy (it is the ground truth the merged modes are judged
/// against).
#[test]
fn unmerged_baseline_is_strategy_invariant() {
    for &(name, cfg) in &[WORKLOADS[0], WORKLOADS[8]] {
        let baseline = observe(name, cfg, config(MergeMode::None, StrategyKind::Bfs));
        for &strategy in &STRATEGIES[1..] {
            let other = observe(name, cfg, config(MergeMode::None, strategy));
            assert_eq!(
                other.termination_classes(),
                baseline.termination_classes(),
                "{name}: unmerged {strategy:?} changed the discovered termination classes"
            );
            assert_eq!(other.completed_paths, baseline.completed_paths);
            assert_eq!(other.covered_blocks, baseline.covered_blocks);
        }
    }
}
