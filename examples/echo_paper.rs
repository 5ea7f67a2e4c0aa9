//! The paper's Figure 1 walk-through: the simplified `echo` utility, its
//! QCE analysis, and the effect of merging decisions.
//!
//! Reproduces §3.1's observations end to end:
//! * merging the post-`strcmp` states is profitable for `r` (used once,
//!   far away) but the loop counter `arg` drives later branch conditions
//!   and array indexing — QCE marks it hot;
//! * SSM+QCE explores far fewer states than the non-merging baseline.
//!
//! ```sh
//! cargo run --release --example echo_paper
//! ```

use symmerge::core::{QceAnalysis, VarKey};
use symmerge::prelude::*;
use symmerge::workloads::by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let echo = by_name("echo").expect("echo workload exists");
    let cfg = InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 };
    println!("== the generated MiniC source (paper Fig. 1 shape) ==\n{}", echo.source(&cfg));

    let program = echo.program(&cfg);

    // --- the QCE analysis on `run` --------------------------------------
    let qce = QceAnalysis::run(&program, QceConfig::default());
    let run_fn = program.function_by_name("run").expect("run exists");
    let f = program.func(run_fn);
    let fq = &qce.funcs[run_fn.index()];
    println!(
        "== QCE at the entry of run() (α = {:.0e}, β = {}, κ = {}) ==",
        qce.config.alpha, qce.config.beta, qce.config.kappa
    );
    let entry = symmerge::ir::BlockId(0);
    println!("Q_t(entry) = {:.2}", fq.qt(entry));
    for (li, decl) in f.locals.iter().enumerate() {
        if decl.name.starts_with("%t") {
            continue; // lowering temps
        }
        let q = fq.qadd(entry, VarKey::Local(symmerge::ir::LocalId(li as u32)));
        if q > 0.0 {
            println!("Q_add(entry, {:8}) = {q:8.2}", decl.name);
        }
    }

    // --- run all three configurations ------------------------------------
    println!("\n== exploration ({} symbolic bytes) ==", cfg.symbolic_bytes());
    for (label, mode, strategy) in [
        ("baseline (no merging)", MergeMode::None, StrategyKind::CoverageOptimized),
        ("static merging + QCE ", MergeMode::Static, StrategyKind::Topological),
        ("dynamic merging + QCE", MergeMode::Dynamic, StrategyKind::CoverageOptimized),
    ] {
        let config = EngineConfig {
            merge_mode: mode,
            strategy,
            generate_tests: false,
            ..EngineConfig::default()
        };
        let report = Engine::builder(program.clone()).config(config).build()?.run();
        println!(
            "{label}: picks={:6}  completed states={:4}  represented paths={:6}  merges={:4}  solver queries={:5}",
            report.picks,
            report.completed_paths,
            report.completed_multiplicity,
            report.merges,
            report.solver.queries,
        );
    }
    Ok(())
}
