//! **tier_sweep** — cache-tier gate threshold sweep and byte-identity
//! check.
//!
//! Two questions about the tiered solver pipeline, answered on the
//! pipeline's motivating workload (`wc` at 6 symbolic stdin bytes under
//! Random search, the configuration whose cache-tier bookkeeping
//! dominated solver time before the gate):
//!
//! 1. **Where should the tier gate sit?** For each threshold on the
//!    axis (0 disables the gate), run the default engine configuration
//!    exhaustively with tests on and print the timing split — the gate
//!    is pure routing, so the generated-test count must not move.
//! 2. **Is the gated pipeline really result-identical?** For each
//!    threshold, re-run in canonical-model mode and require the
//!    generated tests to be *byte-identical* to the ungated, unfiltered
//!    reference (`gate = 0`, prefilter off) — the same contract the
//!    solver differential asserts at small sizes, checked here at the
//!    size the sweep actually tunes.
//!
//! ```sh
//! cargo run --release -p symmerge-bench --bin tier_sweep
//! ```

use symmerge_bench::env_config;
use symmerge_bench::harness::{CsvOut, HarnessOpts};
use symmerge_core::{
    Budgets, Engine, EngineConfig, MergeMode, QceConfig, RunReport, SolverConfig, StrategyKind,
};
use symmerge_workloads::{by_name, InputConfig};

/// One exhaustive `wc`@6 Random run with the given solver pipeline.
fn run(opts: &HarnessOpts, solver: SolverConfig) -> RunReport {
    let cfg = InputConfig { n_args: 0, arg_len: 1, stdin_len: 6 };
    let config = EngineConfig {
        merge_mode: MergeMode::None,
        strategy: StrategyKind::Random,
        qce: QceConfig { alpha: opts.alpha, ..QceConfig::default() },
        budgets: Budgets { max_time: Some(opts.budget), ..Budgets::default() },
        generate_tests: true,
        seed: opts.seed,
        solver,
        ..env_config().engine.clone()
    };
    let engine = Engine::builder(by_name("wc").unwrap().program(&cfg))
        .config(config)
        .build()
        .expect("workload programs validate");
    let report = { engine }.run();
    assert!(!report.hit_budget, "raise --budget-ms, the sweep needs exhaustive runs");
    report
}

type TestBytes = Vec<(String, Vec<(String, u64)>, Vec<u64>)>;

/// Generated tests collapsed to comparable bytes (sorted, since the gate
/// may legitimately reorder completion under identical results).
fn test_bytes(report: &RunReport) -> TestBytes {
    let mut v: Vec<_> = report
        .tests
        .iter()
        .map(|t| (format!("{:?}", t.kind), t.inputs.clone(), t.predicted_outputs.clone()))
        .collect();
    v.sort();
    v
}

fn main() {
    let opts = HarnessOpts::parse(240_000);
    // (label, gate, prefilter): the gate axis plus a prefilter ablation
    // at the default threshold.
    let axis: &[(&str, usize, bool)] = &[
        ("ungated", 0, false),
        ("gate-8", 8, true),
        ("gate-16", 16, true),
        ("gate-32", 32, true),
        ("gate-64", 64, true),
        ("gate-64-nofilter", 64, false),
    ];
    let solver_for = |gate: usize, prefilter: bool, canonical: bool| SolverConfig {
        tier_gate: gate,
        cex_prefilter: prefilter,
        canonical_models: canonical,
        ..env_config().engine.solver.clone()
    };

    let mut csv = CsvOut::create(
        "tier_sweep",
        "config,tier_gate,cex_prefilter,tests,sat_calls,cex_unsat_hits,cache_hits,\
         solver_ms,sat_ms,cache_ms,wall_ms,canonical_identical",
    );
    println!("# tier_sweep: wc@6 Random, cache-tier gate axis (exhaustive, tests on)");
    println!("# ident: canonical-model tests byte-identical to the ungated reference");
    println!(
        "{:18} {:>5} {:>7} {:>7} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "config",
        "gate",
        "filter",
        "tests",
        "sat_calls",
        "cex_hits",
        "cache",
        "solver",
        "sat",
        "cache_t",
        "wall",
        "ident"
    );
    // The byte-identity reference: canonical models, every shortcut off.
    let reference = test_bytes(&run(&opts, solver_for(0, false, true)));
    for &(label, gate, prefilter) in axis {
        let report = run(&opts, solver_for(gate, prefilter, false));
        let canonical = test_bytes(&run(&opts, solver_for(gate, prefilter, true)));
        assert_eq!(
            canonical, reference,
            "{label}: canonical tests diverged from the ungated reference"
        );
        let s = &report.solver;
        println!(
            "{label:18} {gate:>5} {prefilter:>7} {:>7} {:>9} {:>9} {:>9} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?} {:>6}",
            report.tests.len(),
            s.sat_calls,
            s.cex_unsat_hits,
            s.cache_hits,
            s.time,
            s.sat_time,
            s.cache_time,
            report.wall_time,
            "yes"
        );
        csv.row(&format!(
            "{label},{gate},{prefilter},{},{},{},{},{:.3},{:.3},{:.3},{:.3},yes",
            report.tests.len(),
            s.sat_calls,
            s.cex_unsat_hits,
            s.cache_hits,
            s.time.as_secs_f64() * 1e3,
            s.sat_time.as_secs_f64() * 1e3,
            s.cache_time.as_secs_f64() * 1e3,
            report.wall_time.as_secs_f64() * 1e3,
        ));
    }
    println!("# csv: {}", csv.path.display());
}
