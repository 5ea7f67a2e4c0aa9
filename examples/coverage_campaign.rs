//! A time-budgeted coverage campaign over several mini-COREUTILS — the
//! test-generation scenario that motivates dynamic state merging (§4):
//! a coverage-oriented search strategy must keep control of exploration
//! while merging still happens opportunistically.
//!
//! ```sh
//! cargo run --release --example coverage_campaign
//! ```

use std::time::Duration;
use symmerge::prelude::*;
use symmerge::workloads::by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget = Duration::from_millis(1500);
    println!(
        "{:10} {:>10} {:>10} {:>10} {:>8} {:>12}",
        "tool", "cov(base)", "cov(ssm)", "cov(dsm)", "merges", "ff merged"
    );
    for name in ["echo", "cat", "wc", "nice", "uniq", "fold"] {
        let w = by_name(name).expect("workload exists");
        // Inputs sized so the budget, not exhaustion, ends the run.
        let cfg = match w.kind {
            workloads::InputKind::Args => InputConfig::args(3, 5),
            workloads::InputKind::Stdin => InputConfig::stdin(16),
            workloads::InputKind::Both => InputConfig { n_args: 2, arg_len: 4, stdin_len: 10 },
        };
        let mut cov = Vec::new();
        let mut merges = 0;
        let mut ff = 0;
        for mode in [MergeMode::None, MergeMode::Static, MergeMode::Dynamic] {
            let config = EngineConfig {
                merge_mode: mode,
                // SSM must run in topological order; the others drive coverage.
                strategy: match mode {
                    MergeMode::Static => StrategyKind::Topological,
                    _ => StrategyKind::CoverageOptimized,
                },
                budgets: Budgets { max_time: Some(budget), ..Budgets::default() },
                generate_tests: false,
                ..EngineConfig::default()
            };
            let report = Engine::builder(w.program(&cfg)).config(config).build()?.run();
            cov.push(report.coverage() * 100.0);
            if mode == MergeMode::Dynamic {
                merges = report.merges;
                ff = report.ff_merged;
            }
        }
        println!(
            "{:10} {:>9.1}% {:>9.1}% {:>9.1}% {:>8} {:>12}",
            name, cov[0], cov[1], cov[2], merges, ff
        );
    }
    println!(
        "\nExpected shape (paper Fig. 8): SSM lags the baseline's coverage;\n\
         DSM roughly matches it while still merging states."
    );
    Ok(())
}
