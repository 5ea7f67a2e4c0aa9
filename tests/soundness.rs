//! Cross-crate soundness tests: merging must change *performance*, never
//! *results* (DESIGN.md invariants 1, 3, 4). These exercise MiniC →
//! IR → QCE → engine → solver → test generation → concrete replay.

use std::time::Duration;
use symmerge::prelude::*;
use symmerge::workloads::by_name;

/// The default configuration under a merge mode, over the topological
/// order when merging statically (the order SSM requires).
fn mode_config(mode: MergeMode) -> EngineConfig {
    let strategy = match mode {
        MergeMode::Static => StrategyKind::Topological,
        _ => StrategyKind::CoverageOptimized,
    };
    EngineConfig { merge_mode: mode, strategy, ..EngineConfig::default() }
}

/// [`mode_config`] with QCE's α set.
fn alpha_config(mode: MergeMode, alpha: f64) -> EngineConfig {
    EngineConfig { qce: QceConfig { alpha, ..QceConfig::default() }, ..mode_config(mode) }
}

/// Runs `program` under `config`.
fn explore(program: &Program, config: EngineConfig) -> RunReport {
    Engine::builder(program.clone()).config(config).build().unwrap().run()
}

/// Runs a workload exhaustively under a merge mode.
fn run(name: &str, cfg: InputConfig, mode: MergeMode, alpha: f64) -> (RunReport, Program) {
    let program = by_name(name).unwrap().program(&cfg);
    let report = explore(&program, EngineConfig { seed: 7, ..alpha_config(mode, alpha) });
    assert!(!report.hit_budget, "{name} must explore exhaustively");
    (report, program)
}

fn failure_msgs(r: &RunReport) -> Vec<String> {
    let mut v: Vec<String> = r.assert_failures.iter().map(|f| f.msg.clone()).collect();
    v.sort();
    v.dedup();
    v
}

#[test]
fn merging_preserves_path_counts_and_coverage() {
    for (name, cfg) in [
        ("echo", InputConfig::args(2, 2)),
        ("link", InputConfig::args(2, 2)),
        ("sleep", InputConfig::args(2, 1)),
        ("cut", InputConfig::args(2, 2)),
    ] {
        let (base, _) = run(name, cfg, MergeMode::None, 1e-12);
        for mode in [MergeMode::Static, MergeMode::Dynamic] {
            let (merged, _) = run(name, cfg, mode, 1e-12);
            // Multiplicity over-approximates but never loses paths (§5.2).
            assert!(
                merged.completed_multiplicity >= base.completed_paths as f64,
                "{name} {mode:?}: multiplicity {} < exact paths {}",
                merged.completed_multiplicity,
                base.completed_paths
            );
            // Merging cannot *increase* the number of completed states.
            assert!(
                merged.completed_paths <= base.completed_paths,
                "{name} {mode:?}: more completed states with merging"
            );
            // Exhaustive exploration covers the same blocks.
            assert_eq!(
                merged.covered_blocks, base.covered_blocks,
                "{name} {mode:?}: coverage differs"
            );
        }
    }
}

#[test]
fn merging_preserves_assertion_verdicts() {
    // wc and tsort carry internal assertions; they must hold in all modes.
    for (name, cfg) in [("wc", InputConfig::stdin(3)), ("tsort", InputConfig::stdin(2))] {
        let (base, _) = run(name, cfg, MergeMode::None, 1e-12);
        assert!(failure_msgs(&base).is_empty(), "{name} baseline found spurious bugs");
        for mode in [MergeMode::Static, MergeMode::Dynamic] {
            let (merged, _) = run(name, cfg, mode, 1e-12);
            assert!(
                failure_msgs(&merged).is_empty(),
                "{name} {mode:?} fabricated failures: {:?}",
                failure_msgs(&merged)
            );
        }
    }
}

#[test]
fn injected_bug_found_in_every_mode_and_alpha() {
    let src = r#"
        fn main() {
            let a = sym_int("a");
            let b = sym_int("b");
            let mode = 0;
            if (a == 'x') { mode = 1; } else { if (a == 'y') { mode = 2; } }
            let v = 0;
            if (mode == 1) { v = b + 1; } else { v = b; }
            assert(v != 77, "v hit 77");
            putchar(v);
        }
    "#;
    let program = minic::compile_with_width(src, 8).unwrap();
    for mode in [MergeMode::None, MergeMode::Static, MergeMode::Dynamic] {
        for alpha in [0.0, 1e-12, 0.5, f64::INFINITY] {
            let report = explore(&program, alpha_config(mode, alpha));
            assert_eq!(
                failure_msgs(&report),
                vec!["v hit 77".to_string()],
                "{mode:?} alpha={alpha} missed (or fabricated) the bug"
            );
            // The reproducer must replay to the same assertion.
            let repro = report
                .tests
                .iter()
                .find(|t| matches!(t.kind, TestKind::AssertFailure { .. }))
                .expect("reproducer generated");
            repro.validate(&program).unwrap();
        }
    }
}

#[test]
fn alpha_changes_cost_not_results() {
    let cfg = InputConfig::args(2, 2);
    let program = by_name("echo").unwrap().program(&cfg);
    let (exact, _) = run("echo", cfg, MergeMode::None, 1e-12);
    for alpha in [0.0, 1e-12, 0.1, f64::INFINITY] {
        let report = explore(&program, alpha_config(MergeMode::Static, alpha));
        assert!(!report.hit_budget);
        assert!(failure_msgs(&report).is_empty());
        // Coverage is invariant; multiplicity may over-approximate
        // differently per alpha but never drops below the exact count.
        assert_eq!(report.covered_blocks, exact.covered_blocks, "alpha={alpha} changed coverage");
        assert!(
            report.completed_multiplicity >= exact.completed_paths as f64,
            "alpha={alpha} lost paths"
        );
    }
}

#[test]
fn deterministic_across_repeat_runs() {
    let cfg = InputConfig::args(2, 2);
    for mode in [MergeMode::None, MergeMode::Static, MergeMode::Dynamic] {
        let go = || {
            let program = by_name("nice").unwrap().program(&cfg);
            let r = explore(&program, EngineConfig { seed: 99, ..mode_config(mode) });
            (r.completed_paths, r.completed_multiplicity, r.merges, r.steps, r.picks)
        };
        assert_eq!(go(), go(), "{mode:?} not deterministic");
    }
}

/// Every test above leans on `!report.hit_budget` to mean "exploration was
/// exhaustive". Guard that assumption: a budget must actually stop a
/// path-exploding run *and* be reported via `hit_budget`, so a budget
/// regression can never silently turn a truncated run into a fake
/// exhaustive one.
#[test]
fn budgets_halt_path_explosion_and_set_hit_budget() {
    // echo at N=3, L=3 has far too many paths to finish within the budgets
    // below (the exhaustive runs elsewhere in this file use N=L=2).
    let big = InputConfig::args(3, 3);
    let program = by_name("echo").unwrap().program(&big);
    for mode in [MergeMode::None, MergeMode::Static, MergeMode::Dynamic] {
        for budgets in [
            Budgets { max_steps: Some(500), ..Budgets::default() },
            Budgets { max_picks: Some(20), ..Budgets::default() },
            Budgets { max_completed: Some(2), ..Budgets::default() },
        ] {
            let report = explore(&program, EngineConfig { budgets, ..mode_config(mode) });
            assert!(
                report.hit_budget,
                "{mode:?} {budgets:?}: run on a path-exploding workload claims exhaustiveness"
            );
            assert!(
                report.leftover_states > 0,
                "{mode:?} {budgets:?}: hit a budget yet left no unexplored states"
            );
            // Whatever was explored before the cut must still be sound.
            for test in &report.tests {
                test.validate(&program).unwrap();
            }
        }
    }
    // And the budgeted limits really bound the run (with slack for the
    // final in-flight state): a budget that is hit must have stopped the
    // engine near the limit, not merely been recorded after the fact.
    let budgets = Budgets { max_steps: Some(500), ..Budgets::default() };
    let report = explore(&program, EngineConfig { budgets, ..EngineConfig::default() });
    assert!(report.hit_budget);
    assert!(report.steps < 5_000, "max_steps=500 run executed {} steps", report.steps);
}

/// FNV-1a over a byte stream: a digest that, unlike `DefaultHasher`, is
/// fixed by its definition and can be pinned across toolchains.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The stable digest of a run's generated tests, in generation order:
/// kind, inputs and predicted outputs of each.
fn tests_digest(report: &RunReport) -> u64 {
    keys_digest(report.tests.iter().map(TestCase::sort_key))
}

/// The digest of a run's tests sorted by their canonical keys: the same
/// for every search order that generates the same tests.
fn canonical_digest(report: &RunReport) -> u64 {
    let mut keys: Vec<_> = report.tests.iter().map(TestCase::sort_key).collect();
    keys.sort();
    keys_digest(keys)
}

fn keys_digest(keys: impl IntoIterator<Item = (String, Vec<(String, u64)>, Vec<u64>)>) -> u64 {
    let mut bytes = Vec::new();
    for (class, inputs, outputs) in keys {
        bytes.extend_from_slice(class.as_bytes());
        bytes.push(0);
        for (name, value) in inputs {
            bytes.extend_from_slice(name.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&value.to_le_bytes());
        }
        for o in outputs {
            bytes.extend_from_slice(&o.to_le_bytes());
        }
        bytes.push(0xff);
    }
    fnv1a(bytes)
}

/// Pins the search-order-dependent output of the library defaults.
///
/// Every other differential compares canonical models, or configurations
/// with one another. This test pins the exact bytes the benchmark
/// measures under `canonical_models: false`: the generated tests in
/// generation order and the SAT-level counters, which any change to
/// clause order, watch order or decision order in the CDCL core moves.
/// The Random row is the benchmark's `explore-wc6` setup at a smaller
/// input; the Dfs and Bfs rows pin the two deterministic worklist
/// orders; the Topological row is the paper's static merging (the
/// benchmark's `ssm-basename10` setup); the dynamic-merging row reaches
/// the most conflicts, so learnt clauses and their compaction at fork
/// time are pinned too. A change meant to alter the
/// search (a new heuristic) updates the pinned values; a change meant to
/// be a pure speed-up must leave them alone. Every row also runs with
/// the fields frozen for `mergebench` flipped ([`frozen_variants`]),
/// which must not move it.
#[test]
fn default_search_order_is_pinned() {
    type Pin = (u64, u64, u64, u64, u64, u64, u64, usize, u64);
    let rows: [(u32, MergeMode, StrategyKind, Pin); 5] = [
        (
            3,
            MergeMode::None,
            StrategyKind::Random,
            (2868, 240, 1320, 9642, 0, 71, 18975, 85, 2889807311675795582),
        ),
        (
            3,
            MergeMode::None,
            StrategyKind::Dfs,
            (2868, 240, 1320, 9642, 0, 71, 18293, 85, 928238929201085142),
        ),
        (
            3,
            MergeMode::None,
            StrategyKind::Bfs,
            (2868, 240, 1320, 9642, 0, 71, 19141, 85, 6222404444366571234),
        ),
        (
            3,
            MergeMode::Static,
            StrategyKind::Topological,
            (465, 80, 1125, 8995, 3, 17, 6646, 1, 11216982687399032055),
        ),
        (
            5,
            MergeMode::Dynamic,
            StrategyKind::CoverageOptimized,
            (4666, 499, 8652, 92054, 50, 179, 38770, 112, 7799235925872557257),
        ),
    ];
    for (stdin_len, merge_mode, strategy, pinned) in rows {
        let cfg = InputConfig { n_args: 0, arg_len: 1, stdin_len };
        for (flipped, solver) in frozen_variants(SolverConfig::default()).into_iter().enumerate() {
            let program = by_name("wc").unwrap().program(&cfg);
            let config =
                EngineConfig { merge_mode, strategy, solver, seed: 0, ..EngineConfig::default() };
            let r = Engine::builder(program).config(config).build().unwrap().run();
            let s = &r.solver;
            let got = (
                r.steps,
                s.sat_calls,
                s.decisions,
                s.propagations,
                s.conflicts,
                s.ctx_forks,
                s.ctx_clauses_resident,
                r.tests.len(),
                tests_digest(&r),
            );
            let row = (stdin_len, merge_mode, strategy, flipped == 1);
            assert_eq!(got, pinned, "wc@{stdin_len} {row:?}");
        }
    }
}

/// `solver`, then `solver` with the four fields frozen for `mergebench`
/// flipped together (`use_model_reuse`, `model_history`, `tier_gate`,
/// `shared_cache`). The library ignores them, so a pin that moves
/// between the two has wired a frozen field back into a decision.
fn frozen_variants(solver: SolverConfig) -> [SolverConfig; 2] {
    let flipped = SolverConfig {
        use_model_reuse: !solver.use_model_reuse,
        model_history: if solver.model_history == 0 { 32 } else { 0 },
        tier_gate: if solver.tier_gate == 0 { 64 } else { 0 },
        shared_cache: !solver.shared_cache,
        ..solver.clone()
    };
    [solver, flipped]
}

/// Pins the search order of a two-worker BSP fleet, as
/// `default_search_order_is_pinned` does for a sequential run.
///
/// `parallel_runs_are_deterministic` compares two runs of one build, so
/// it cannot see a change in hand-off order or DSM order; these pins can.
/// The rows are region placement under static merging (Topological) and
/// dynamic merging (CoverageOptimized), and free placement under
/// `MergeMode::None`, all at jobs 2 with 48 steps per round. Between them
/// they hand states off, merge, reject merges and fast-forward laggards.
/// The last two rows re-blast every query (`use_incremental: false`),
/// the one path that consults the counterexample cache. The fields
/// frozen for `mergebench` must not move a row ([`frozen_variants`]),
/// and the three frozen `shared_*` counters must read 0.
#[test]
fn fleet_search_order_is_pinned() {
    type Pin = (u64, u64, u64, u64, u64, u64, u64, u64, usize, u64);
    let rows: [(MergeMode, StrategyKind, bool, Pin); 5] = [
        (
            MergeMode::Static,
            StrategyKind::Topological,
            true,
            (465, 465, 38, 540, 0, 0, 0, 80, 1, 11216982687399032055),
        ),
        (
            MergeMode::Dynamic,
            StrategyKind::CoverageOptimized,
            true,
            (1518, 1518, 13, 163, 8, 39, 1, 147, 39, 12902910254162403314),
        ),
        (
            MergeMode::None,
            StrategyKind::CoverageOptimized,
            true,
            (2868, 175, 0, 0, 0, 0, 8, 243, 85, 16270553411640764902),
        ),
        (
            MergeMode::None,
            StrategyKind::CoverageOptimized,
            false,
            (2868, 175, 0, 0, 0, 0, 6, 613, 85, 2708986401831329950),
        ),
        (
            MergeMode::None,
            StrategyKind::Random,
            false,
            (2868, 175, 0, 0, 0, 0, 9, 619, 85, 2708986401831329950),
        ),
    ];
    let cfg = InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 };
    for (merge_mode, strategy, use_incremental, pinned) in rows {
        let solver = SolverConfig { use_incremental, ..SolverConfig::default() };
        for (flipped, solver) in frozen_variants(solver).into_iter().enumerate() {
            let program = by_name("wc").unwrap().program(&cfg);
            let config =
                EngineConfig { merge_mode, strategy, solver, seed: 0, ..EngineConfig::default() };
            let par = ParallelConfig { jobs: 2, steps_per_round: 48, ..ParallelConfig::default() };
            let r = ParallelEngine::new(program, config, par).unwrap().run();
            let row = (merge_mode, strategy, use_incremental, flipped == 1);
            let got = (
                r.steps,
                r.picks,
                r.merges,
                r.merge_rejects,
                r.ff_merged,
                r.dsm.ff_picks,
                r.envelope_exports,
                r.solver.sat_calls,
                r.tests.len(),
                tests_digest(&r),
            );
            assert_eq!(got, pinned, "wc@3 jobs=2 {row:?}");
            let frozen =
                (r.solver.shared_query_hits, r.solver.shared_cex_hits, r.solver.shared_sync_time);
            assert_eq!(frozen, (0, 0, Duration::ZERO), "wc@3 jobs=2 {row:?}");
        }
    }
}

/// Pins what an unmerged run finds, independently of its search order:
/// completed paths, covered blocks and the digest of the sorted
/// canonical tests. Under `MergeMode::None` with canonical models these
/// are a function of the program alone, so the sequential engine, a BSP
/// fleet and a steal fleet must all land on the pinned values, and a
/// change to how the engine schedules or steps states must never move
/// them.
#[test]
fn unmerged_results_are_pinned_across_engines() {
    let rows: [(&str, InputConfig, (u64, usize, u64)); 3] = [
        ("wc", InputConfig::stdin(3), (85, 28, 4132762724694942552)),
        ("echo", InputConfig::args(2, 2), (18, 40, 18007379985165895530)),
        ("basename", InputConfig::args(1, 3), (15, 45, 3567166064428918570)),
    ];
    for (workload, cfg, pinned) in rows {
        let program = by_name(workload).unwrap().program(&cfg);
        let config = EngineConfig {
            merge_mode: MergeMode::None,
            solver: SolverConfig { canonical_models: true, ..SolverConfig::default() },
            ..EngineConfig::default()
        };
        let sequential =
            Engine::builder(program.clone()).config(config.clone()).build().unwrap().run();
        let mut runs = vec![("sequential", sequential)];
        for (label, scheduler) in [("bsp", SchedulerKind::Bsp), ("steal", SchedulerKind::Steal)] {
            let par =
                ParallelConfig { jobs: 2, steps_per_round: 48, scheduler, ..Default::default() };
            runs.push((
                label,
                ParallelEngine::new(program.clone(), config.clone(), par).unwrap().run(),
            ));
        }
        for (label, r) in runs {
            assert!(!r.hit_budget, "{workload} {label}: must be exhaustive");
            let got = (r.completed_paths, r.covered_blocks, canonical_digest(&r));
            assert_eq!(got, pinned, "{workload} {label}");
        }
    }
}

/// Pins what a merging run finds: completed paths, covered blocks,
/// assertion failures and the digest of the sorted canonical tests, for
/// static merging over the topological order and dynamic merging over
/// coverage-optimized search. With canonical models the sequential
/// engine and a two-worker BSP fleet land on the same values. They were
/// captured before any change to how merging runs are scheduled or
/// stepped, and such a change must never move them.
#[test]
fn merged_results_are_pinned() {
    type Pin = (u64, usize, usize, u64);
    let rows: [(&str, InputConfig, MergeMode, StrategyKind, Pin); 4] = [
        (
            "wc",
            InputConfig::stdin(3),
            MergeMode::Static,
            StrategyKind::Topological,
            (1, 28, 0, 17452741504002899575),
        ),
        (
            "wc",
            InputConfig::stdin(3),
            MergeMode::Dynamic,
            StrategyKind::CoverageOptimized,
            (39, 28, 0, 18106414161910045707),
        ),
        (
            "basename",
            InputConfig::args(1, 3),
            MergeMode::Static,
            StrategyKind::Topological,
            (3, 45, 0, 5966314116321287873),
        ),
        (
            "basename",
            InputConfig::args(1, 3),
            MergeMode::Dynamic,
            StrategyKind::CoverageOptimized,
            (8, 45, 0, 9448890429996533912),
        ),
    ];
    for (workload, cfg, merge_mode, strategy, pinned) in rows {
        let program = by_name(workload).unwrap().program(&cfg);
        let config = EngineConfig {
            merge_mode,
            strategy,
            solver: SolverConfig { canonical_models: true, ..SolverConfig::default() },
            ..EngineConfig::default()
        };
        let sequential =
            Engine::builder(program.clone()).config(config.clone()).build().unwrap().run();
        let par = ParallelConfig { jobs: 2, steps_per_round: 48, ..ParallelConfig::default() };
        let bsp = ParallelEngine::new(program, config, par).unwrap().run();
        for (label, r) in [("sequential", sequential), ("bsp", bsp)] {
            assert!(!r.hit_budget, "{workload} {merge_mode:?} {label}: must be exhaustive");
            let got = (
                r.completed_paths,
                r.covered_blocks,
                r.assert_failures.len(),
                canonical_digest(&r),
            );
            assert_eq!(got, pinned, "{workload} {merge_mode:?}/{strategy:?} {label}");
        }
    }
}

/// A step budget binds exactly, and coverage is counted per block: on a
/// program that is one long path (concrete loops, calls, straight-line
/// code) with a symbolic branch at its end, a run stopped by
/// `max_steps = k` has executed exactly `k` instructions, each further
/// instruction covers at most the blocks it enters (one, or two at the
/// fork), and the last budgeted run has covered what the unbudgeted run
/// covers, which is every block of the program.
#[test]
fn step_budget_binds_exactly_and_coverage_is_per_block() {
    let src = r#"
        fn twice(v) { return v + v; }
        fn main() {
            let s = 0;
            for (let i = 0; i < 6; i = i + 1) { s = s + twice(i); }
            let t = 0;
            while (t < 3) { t = t + 1; s = s - t; }
            putchar(s);
            let x = sym_int("x");
            if (x > s) { putchar(1); } else { putchar(2); }
        }
    "#;
    let program = minic::compile_with_width(src, 8).unwrap();
    let run =
        |budgets: Budgets| explore(&program, EngineConfig { budgets, ..EngineConfig::default() });
    let full = run(Budgets::default());
    assert!(!full.hit_budget);
    assert_eq!(full.covered_blocks, full.total_blocks, "the one path passes every block");
    let mut covered = 0;
    for k in 1..full.steps {
        let r = run(Budgets { max_steps: Some(k), ..Budgets::default() });
        assert!(r.hit_budget, "k={k}: the budget must stop the run");
        assert_eq!(r.steps, k, "k={k}: max_steps must bind exactly");
        assert!(
            (covered..=covered + 2).contains(&r.covered_blocks),
            "k={k}: one instruction covers at most the blocks it enters ({covered} -> {})",
            r.covered_blocks
        );
        covered = r.covered_blocks;
    }
    assert_eq!(covered, full.covered_blocks, "the last budgeted run has covered every block");
}
