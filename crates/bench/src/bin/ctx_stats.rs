//! **ctx_stats** — solver-context pool behaviour under interleaving
//! search strategies.
//!
//! Runs a workload exhaustively under an explicit strategy (default:
//! `wc` under Random, the configuration whose context-pool thrash the
//! PR 3 scaling sweeps measured) with test generation on, and prints
//! the context counters next to the run totals. This is the harness
//! behind the EXPERIMENTS.md "fork-aware context tree" datum: at equal
//! generated tests, `ctx_rebuilds` is the prefix re-blast count the
//! fork-aware tree is supposed to eliminate.
//!
//! ```sh
//! cargo run --release -p symmerge-bench --bin ctx_stats            # wc + rev sweep
//! SYMMERGE_SOLVER_CTX_FORK=0 cargo run --release -p symmerge-bench --bin ctx_stats
//! SYMMERGE_MAX_CONTEXTS=16 cargo run --release -p symmerge-bench --bin ctx_stats
//! SYMMERGE_CTX_EVICT=count cargo run --release -p symmerge-bench --bin ctx_stats
//! SYMMERGE_MAX_CTX_CLAUSES=100000 cargo run --release -p symmerge-bench --bin ctx_stats
//! ```
//!
//! `SYMMERGE_MAX_CONTEXTS` overrides the context-count floor (the knob
//! behind the 16 → 64 default bump this harness motivated);
//! `SYMMERGE_CTX_EVICT=count` ablates clause-weighted adaptive eviction
//! back to the fixed-capacity count policy, and
//! `SYMMERGE_MAX_CTX_CLAUSES` probes the clause budget.

use symmerge_bench::env_config;
use symmerge_bench::harness::{CsvOut, HarnessOpts};
use symmerge_core::{
    Budgets, Engine, EngineConfig, MergeMode, ParallelConfig, ParallelEngine, QceConfig,
    SchedulerKind, StrategyKind,
};
use symmerge_workloads::{by_name, InputConfig};

fn main() {
    let opts = HarnessOpts::parse(120_000);
    // (tool, sizing, mode, strategy, jobs, shared, incremental): the
    // `jobs > 1` rows run the BSP fleet with the cross-worker shared
    // solver-cache fabric off vs on — the hit-rate data behind the
    // EXPERIMENTS.md shared-cache table (jobs = 1 rows never attach the
    // fabric, so the shared flag is moot there). The `incr = off` rows
    // re-blast every query (the paper's KLEE + STP scheme): that path
    // slices each query by independent input groups, and unsat slices
    // are exactly the subset structure the counterexample tiers refute —
    // the incremental free-mode rows can't show cex hits because their
    // queries are feasible-prefix-only and monotonically growing.
    type Row = (&'static str, InputConfig, MergeMode, StrategyKind, u32, bool, bool);
    let wc = |n| InputConfig { n_args: 0, arg_len: 1, stdin_len: n };
    let sweeps: Vec<Row> = vec![
        ("wc", wc(3), MergeMode::None, StrategyKind::Random, 1, true, true),
        ("wc", wc(4), MergeMode::None, StrategyKind::Random, 1, true, true),
        ("wc", wc(5), MergeMode::None, StrategyKind::Random, 1, true, true),
        ("wc", wc(6), MergeMode::None, StrategyKind::Random, 1, true, true),
        ("wc", wc(4), MergeMode::None, StrategyKind::CoverageOptimized, 1, true, true),
        ("rev", wc(4), MergeMode::None, StrategyKind::Random, 1, true, true),
        ("cut", InputConfig::args(2, 2), MergeMode::None, StrategyKind::Random, 1, true, true),
        ("wc", wc(6), MergeMode::None, StrategyKind::Random, 2, false, true),
        ("wc", wc(6), MergeMode::None, StrategyKind::Random, 2, true, true),
        ("wc", wc(6), MergeMode::None, StrategyKind::Random, 4, false, true),
        ("wc", wc(6), MergeMode::None, StrategyKind::Random, 4, true, true),
        ("wc", wc(6), MergeMode::None, StrategyKind::Random, 2, false, false),
        ("wc", wc(6), MergeMode::None, StrategyKind::Random, 2, true, false),
        ("wc", wc(6), MergeMode::None, StrategyKind::Random, 4, false, false),
        ("wc", wc(6), MergeMode::None, StrategyKind::Random, 4, true, false),
        ("wc", wc(6), MergeMode::Dynamic, StrategyKind::CoverageOptimized, 2, false, true),
        ("wc", wc(6), MergeMode::Dynamic, StrategyKind::CoverageOptimized, 2, true, true),
        ("wc", wc(6), MergeMode::Dynamic, StrategyKind::CoverageOptimized, 4, false, true),
        ("wc", wc(6), MergeMode::Dynamic, StrategyKind::CoverageOptimized, 4, true, true),
    ];
    let mut csv = CsvOut::create(
        "ctx_stats",
        "tool,symbolic_bytes,mode,strategy,jobs,shared,incremental,tests,sat_calls,ctx_hits,ctx_rebuilds,ctx_forks,\
         ctx_evictions,clauses_resident,clauses_evicted,clauses_compacted,learnt_lits,\
         gates_reused,sched_picks,sched_heap_repairs,\
         shared_query_hits,shared_cex_hits,shared_publishes,\
         solver_ms,sat_ms,cache_ms,route_ms,wall_ms,dropped_unknown",
    );
    println!("# ctx_stats: solver-context pool behaviour (exhaustive runs, tests on)");
    println!("# clauses res/evict: clause-weighted residency (final gauge / cumulative evicted)");
    println!("# shrink ll/gr/cc: learnt lits stored (post-ccmin) / blaster gates reused /");
    println!("#   clauses compacted at fork (the query-shrinking observables)");
    println!("# sched p/r: ranked scheduler picks / heap repairs (0 for O(1)-pick strategies)");
    println!("# shr q/c/p: cross-worker shared-cache exact hits / cex hits / publications");
    println!("#   (nonzero only on jobs>1 rows with the fabric on)");
    println!("# incr: off rows re-blast every query (KLEE+STP scheme); their sliced queries");
    println!("#   are where the subset/superset counterexample tiers fire");
    println!("# solver time splits as sat + cache (tier bookkeeping, incl. mirror sync) +");
    println!("#   route (context routing / blast prep / normalization) + residual upkeep");
    println!(
        "{:6} {:>6} {:>8} {:>10} {:>4} {:>4} {:>4} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>17} {:>20} {:>13} {:>13} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "tool",
        "bytes",
        "mode",
        "strategy",
        "jobs",
        "shr",
        "incr",
        "tests",
        "sat_calls",
        "ctx_hits",
        "rebuilds",
        "forks",
        "evicts",
        "clauses res/evict",
        "shrink ll/gr/cc",
        "sched p/r",
        "shr q/c/p",
        "solver",
        "sat",
        "cache",
        "route",
        "wall"
    );
    let mut dropped_total = 0u64;
    for (tool, cfg, mode, strategy, jobs, shared, incremental) in sweeps {
        let w = by_name(tool).unwrap();
        let mut config = EngineConfig {
            merge_mode: mode,
            strategy,
            qce: QceConfig { alpha: opts.alpha, ..QceConfig::default() },
            budgets: Budgets { max_time: Some(opts.budget), ..Budgets::default() },
            generate_tests: true,
            seed: opts.seed,
            ..env_config().engine.clone()
        };
        config.solver.shared_cache = shared;
        config.solver.use_incremental = incremental;
        let report = if jobs > 1 {
            let par = ParallelConfig { jobs, scheduler: SchedulerKind::Bsp, ..Default::default() };
            ParallelEngine::new(w.program(&cfg), config, par)
                .expect("workload programs validate")
                .run()
        } else {
            let mut engine = Engine::builder(w.program(&cfg))
                .config(config)
                .build()
                .expect("workload programs validate");
            engine.run()
        };
        assert!(!report.hit_budget, "{tool}: raise --budget-ms, counters need exhaustive runs");
        let s = &report.solver;
        let strat = format!("{strategy:?}");
        let clauses = format!("{}/{}", s.ctx_clauses_resident, s.ctx_clauses_evicted);
        let shrink = format!("{}/{}/{}", s.learnt_lits, s.gates_reused, s.ctx_clauses_compacted);
        let sched = format!("{}/{}", report.sched_picks, report.sched_heap_repairs);
        let shr = format!("{}/{}/{}", s.shared_query_hits, s.shared_cex_hits, s.shared_publishes);
        let shared_label = if shared { "on" } else { "off" };
        let incr_label = if incremental { "on" } else { "off" };
        let mode_label = format!("{mode:?}");
        println!(
            "{tool:6} {:>6} {mode_label:>8} {strat:>10} {jobs:>4} {shared_label:>4} {incr_label:>4} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {clauses:>17} \
             {shrink:>20} {sched:>13} {shr:>13} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?}",
            cfg.symbolic_bytes(),
            report.tests.len(),
            s.sat_calls,
            s.ctx_hits,
            s.ctx_rebuilds,
            s.ctx_forks,
            s.ctx_evictions,
            s.time,
            s.sat_time,
            s.cache_time,
            s.route_time,
            report.wall_time,
        );
        csv.row(&format!(
            "{tool},{},{mode_label},{strat},{jobs},{shared_label},{incr_label},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{}",
            cfg.symbolic_bytes(),
            report.tests.len(),
            s.sat_calls,
            s.ctx_hits,
            s.ctx_rebuilds,
            s.ctx_forks,
            s.ctx_evictions,
            s.ctx_clauses_resident,
            s.ctx_clauses_evicted,
            s.ctx_clauses_compacted,
            s.learnt_lits,
            s.gates_reused,
            report.sched_picks,
            report.sched_heap_repairs,
            s.shared_query_hits,
            s.shared_cex_hits,
            s.shared_publishes,
            s.time.as_secs_f64() * 1e3,
            s.sat_time.as_secs_f64() * 1e3,
            s.cache_time.as_secs_f64() * 1e3,
            s.route_time.as_secs_f64() * 1e3,
            report.wall_time.as_secs_f64() * 1e3,
            report.tests_dropped_unknown,
        ));
        dropped_total += report.tests_dropped_unknown;
    }
    if dropped_total > 0 {
        eprintln!(
            "# WARNING: {dropped_total} completed path(s) dropped on solver Unknown across \
             the sweep — path counts undercount; see the dropped_unknown column"
        );
    }
    println!("# csv: {}", csv.path.display());
}
