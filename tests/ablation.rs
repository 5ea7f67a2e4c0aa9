//! In-process ablation walk: every optimization layer and every fault
//! the engine tolerates may change effort, never results.
//!
//! The solver tiers inherited from KLEE (query cache, model reuse,
//! independence slicing, counterexample cache), the incremental context
//! tree, the query-shrinking levers and the fault-tolerance layer are
//! each switched off (or, for faults, injected) through one named row
//! of [`ROWS`]. Each row is an explicit [`EngineConfig`] value, so the
//! walk needs no environment. For each row, over the 12 core
//! `WORKLOADS`:
//!
//! * every exploration is exhaustive and every generated test is
//!   replayed on the concrete interpreter (`common::observe`);
//! * the row is mode-invariant against the default unmerged baseline
//!   under None/Bfs, Static/Topological and Dynamic/CoverageOptimized;
//! * under canonical models, the row generates byte-identical tests to
//!   the default config under None/Bfs and Static/Topological;
//! * the rows that touch fleet machinery (`fleet: true`) also match
//!   their own sequential run byte for byte at jobs {2, 4} under both
//!   the BSP and the work-stealing scheduler.

mod common;

use common::{
    assert_exact_baseline, assert_mode_invariant, assert_parallel_matches_sequential,
    assert_solver_config_invariant, fleet, harness_config, observe, observe_parallel, Observation,
    WORKLOADS,
};
use std::sync::{Arc, OnceLock};
use symmerge::prelude::*;

/// One ablation configuration: a named edit of the default config.
struct Row {
    name: &'static str,
    edit: fn(&mut EngineConfig),
    /// Whether the row also runs on fleets (it changes something the
    /// parallel engine consults).
    fleet: bool,
}

/// Every tier off at once.
fn bare(c: &mut EngineConfig) {
    let s = &mut c.solver;
    s.use_cache = false;
    s.use_model_reuse = false;
    s.use_independence = false;
    s.use_cex_cache = false;
    s.use_incremental = false;
    s.ctx_fork = false;
    s.ctx_evict_by_clauses = false;
    s.tier_gate = 0;
    s.cex_prefilter = false;
    s.sat_ccmin = false;
    s.ite_factor = false;
    s.retry_ladder = Vec::new();
}

const ROWS: &[Row] = &[
    Row { name: "no-cache", edit: |c| c.solver.use_cache = false, fleet: false },
    Row { name: "no-model-reuse", edit: |c| c.solver.use_model_reuse = false, fleet: false },
    Row { name: "no-independence", edit: |c| c.solver.use_independence = false, fleet: false },
    Row { name: "no-cex-cache", edit: |c| c.solver.use_cex_cache = false, fleet: false },
    Row { name: "no-incremental", edit: |c| c.solver.use_incremental = false, fleet: false },
    Row { name: "no-ctx-fork", edit: |c| c.solver.ctx_fork = false, fleet: false },
    Row { name: "ctx-evict-count", edit: |c| c.solver.ctx_evict_by_clauses = false, fleet: false },
    Row { name: "tier-gate-off", edit: |c| c.solver.tier_gate = 0, fleet: false },
    Row { name: "cex-prefilter-off", edit: |c| c.solver.cex_prefilter = false, fleet: false },
    Row { name: "sat-ccmin-off", edit: |c| c.solver.sat_ccmin = false, fleet: false },
    Row { name: "ite-factor-off", edit: |c| c.solver.ite_factor = false, fleet: false },
    Row { name: "retry-ladder-off", edit: |c| c.solver.retry_ladder = Vec::new(), fleet: false },
    Row { name: "bare", edit: bare, fleet: true },
    // Worker 1 panics at its 40th pick (so only fleets see the panic)
    // and 1/16 of solver queries answer Unknown on their first attempt,
    // absorbed by the default ladder. A plan that schedules panics arms
    // panic isolation on every worker, so this row's fleet runs also
    // cover armed isolation on fleets; the next row covers it on the
    // sequential engine.
    Row {
        name: "fault-plan",
        edit: |c| {
            let plan = FaultPlan::parse("panic=1:40,unknown=1/16:7").unwrap();
            c.fault_plan = Some(Arc::new(plan));
            c.solver.retry_ladder = vec![4, 16];
        },
        fleet: true,
    },
    Row { name: "panic-isolation", edit: |c| c.panic_isolation = true, fleet: false },
];

/// The mode/strategy pairs every row is checked under.
const MODES: &[(MergeMode, StrategyKind)] = &[
    (MergeMode::None, StrategyKind::Bfs),
    (MergeMode::Static, StrategyKind::Topological),
    (MergeMode::Dynamic, StrategyKind::CoverageOptimized),
];

/// The pairs whose canonical test bytes are a pure function of the
/// solver's answers (coverage-optimized picks depend on solver-side
/// affinity stamps, and dynamic merging on the pick order).
const CANONICAL_MODES: &[(MergeMode, StrategyKind)] =
    &[(MergeMode::None, StrategyKind::Bfs), (MergeMode::Static, StrategyKind::Topological)];

fn config(
    row: Option<&Row>,
    (mode, strategy): (MergeMode, StrategyKind),
    canonical: bool,
) -> EngineConfig {
    let solver = SolverConfig { canonical_models: canonical, ..SolverConfig::default() };
    let mut config = harness_config(mode, strategy, solver);
    if let Some(row) = row {
        (row.edit)(&mut config);
    }
    config
}

/// The default config's observations of one workload, computed once per
/// test binary and shared by every row.
struct Reference {
    /// The unmerged baseline (None/Bfs).
    baseline: Observation,
    /// Canonical-model runs under each of [`CANONICAL_MODES`].
    canonical: Vec<Observation>,
}

/// The reference for `WORKLOADS[i]`. One cell per workload, so tests
/// running concurrently compute different workloads' references instead
/// of all waiting on one.
fn reference(i: usize) -> &'static Reference {
    static REFS: OnceLock<Vec<OnceLock<Reference>>> = OnceLock::new();
    let cells = REFS.get_or_init(|| WORKLOADS.iter().map(|_| OnceLock::new()).collect());
    cells[i].get_or_init(|| {
        let (name, cfg) = WORKLOADS[i];
        let baseline = observe(name, cfg, config(None, MODES[0], false));
        assert_exact_baseline(name, &baseline);
        let canonical = CANONICAL_MODES
            .iter()
            .map(|&pair| observe(name, cfg, config(None, pair, true)))
            .collect();
        Reference { baseline, canonical }
    })
}

fn walk(row_name: &str) {
    let row = ROWS.iter().find(|r| r.name == row_name).expect("row exists");
    for (i, &(name, cfg)) in WORKLOADS.iter().enumerate() {
        let reference = reference(i);
        let who = format!("{name} [{}]", row.name);
        for &pair in MODES {
            let obs = observe(name, cfg, config(Some(row), pair, false));
            assert_mode_invariant(&who, &reference.baseline, &obs);
        }
        for (&pair, default) in CANONICAL_MODES.iter().zip(&reference.canonical) {
            let obs = observe(name, cfg, config(Some(row), pair, true));
            assert_solver_config_invariant(
                &who,
                "default vs ablated",
                &default.report,
                &obs.report,
            );
            if row.fleet && pair == MODES[0] {
                for scheduler in [SchedulerKind::Bsp, SchedulerKind::Steal] {
                    for jobs in [2, 4] {
                        let config = config(Some(row), pair, true);
                        let par = observe_parallel(name, cfg, config, fleet(jobs, scheduler));
                        let who = format!("{who} {scheduler:?}");
                        assert_parallel_matches_sequential(&who, jobs, &obs.report, &par.report);
                    }
                }
            }
        }
    }
}

/// Every row is named once and actually changes the default config.
#[test]
fn rows_are_distinct_and_each_changes_the_config() {
    for (i, row) in ROWS.iter().enumerate() {
        assert!(ROWS[..i].iter().all(|r| r.name != row.name), "{} listed twice", row.name);
        assert_ne!(
            config(Some(row), MODES[0], false),
            config(None, MODES[0], false),
            "{}",
            row.name
        );
    }
}

macro_rules! ablation_tests {
    ($($test:ident => $row:literal,)*) => {
        $(
            #[test]
            fn $test() {
                walk($row);
            }
        )*

        #[test]
        fn every_row_has_a_test() {
            let tested = [$($row),*];
            for row in ROWS {
                assert!(tested.contains(&row.name), "row {} is never walked", row.name);
            }
            assert_eq!(tested.len(), ROWS.len());
        }
    };
}

ablation_tests! {
    ablation_no_cache => "no-cache",
    ablation_no_model_reuse => "no-model-reuse",
    ablation_no_independence => "no-independence",
    ablation_no_cex_cache => "no-cex-cache",
    ablation_no_incremental => "no-incremental",
    ablation_no_ctx_fork => "no-ctx-fork",
    ablation_ctx_evict_count => "ctx-evict-count",
    ablation_tier_gate_off => "tier-gate-off",
    ablation_cex_prefilter_off => "cex-prefilter-off",
    ablation_sat_ccmin_off => "sat-ccmin-off",
    ablation_ite_factor_off => "ite-factor-off",
    ablation_retry_ladder_off => "retry-ladder-off",
    ablation_bare => "bare",
    ablation_fault_plan => "fault-plan",
    ablation_panic_isolation => "panic-isolation",
}
