//! The paper's Figure 2: why static merging conflicts with search
//! strategies. Depending on a flag, a packet handler either computes an
//! expensive hash of the whole packet (a per-byte loop over symbolic
//! data) or logs cheaply; the interesting code (`handle_packet`) comes
//! after the join.
//!
//! Static merging must exhaust *every* path through `compute_hash` before
//! anything past the join runs, so with a small budget it never reaches
//! `handle_packet`. A coverage-driven search (with or without DSM) gets
//! there immediately.
//!
//! ```sh
//! cargo run --release --example packet_logger
//! ```

use std::time::Duration;
use symmerge::prelude::*;

const SRC: &str = r#"
global pkt[20];

fn compute_hash() {
    let h = 1;
    let ones = 0;
    for (let i = 0; i < 20; i = i + 1) {
        // `ones` stays concrete and differs between sibling paths, and the
        // next iteration branches on it — QCE marks it hot, so merging
        // cannot collapse this loop: paths double every iteration, exactly
        // the expensive exploration Figure 2 describes.
        if (pkt[i] > 64) { ones = ones + 1; }
        if (ones & 1) { h = h ^ pkt[i]; } else { h = h + pkt[i]; }
    }
    return h;
}

fn handle_packet() {
    if (pkt[0] == 'H') {
        putchar('H');
    } else {
        putchar('.');
    }
    assert(pkt[0] != 'X' || pkt[1] != 'X', "XX packets are rejected upstream");
}

fn main() {
    sym_array(pkt, "pkt");
    let log_packet_hash = sym_int("flag");
    if (log_packet_hash) {
        let h = compute_hash();
        putchar('h');
        putchar(h & 15);
    } else {
        putchar('p');
    }
    handle_packet();
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget = Duration::from_millis(1200);
    println!("budget per run: {budget:?}\n");
    println!("{:34} {:>10} {:>8} {:>8}", "configuration", "coverage", "merges", "bugs");
    for (label, mode, strategy) in [
        ("baseline + coverage search", MergeMode::None, StrategyKind::CoverageOptimized),
        ("static merging (topological)", MergeMode::Static, StrategyKind::Topological),
        ("dynamic merging + coverage", MergeMode::Dynamic, StrategyKind::CoverageOptimized),
    ] {
        let program = minic::compile_with_width(SRC, 16)?;
        let config = EngineConfig {
            merge_mode: mode,
            strategy,
            budgets: Budgets { max_time: Some(budget), ..Budgets::default() },
            generate_tests: false,
            seed: 1,
            ..EngineConfig::default()
        };
        let report = Engine::builder(program).config(config).build()?.run();
        println!(
            "{label:34} {:>9.1}% {:>8} {:>8}",
            report.coverage() * 100.0,
            report.merges,
            report.assert_failures.len()
        );
    }
    println!(
        "\nExpected: the static-merging run burns its budget inside\n\
         compute_hash and reaches neither branch of handle_packet, while\n\
         the coverage-driven runs (baseline and DSM) cover it and find the\n\
         'XX' assertion bug."
    );
    Ok(())
}
