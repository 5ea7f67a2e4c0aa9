//! End-to-end replay validation: every test case the engine generates —
//! under every merge mode — must drive the concrete interpreter to exactly
//! the predicted outputs and termination class.

use symmerge::prelude::*;
use symmerge::workloads::{all, by_name, InputKind};

fn check_workload(name: &str, cfg: InputConfig, mode: MergeMode) -> usize {
    let program = by_name(name).unwrap().program(&cfg);
    let strategy = match mode {
        MergeMode::Static => StrategyKind::Topological,
        _ => StrategyKind::CoverageOptimized,
    };
    let config = EngineConfig { merge_mode: mode, strategy, seed: 3, ..EngineConfig::default() };
    let report = Engine::builder(program.clone()).config(config).build().unwrap().run();
    assert!(!report.hit_budget, "{name} must finish");
    assert!(!report.tests.is_empty(), "{name} generated no tests");
    for (i, test) in report.tests.iter().enumerate() {
        if let Err(e) = test.validate(&program) {
            panic!("{name} ({mode:?}) test {i} diverged: {e}\ninputs: {:?}", test.inputs);
        }
    }
    report.tests.len()
}

#[test]
fn baseline_tests_replay_exactly() {
    for (name, cfg) in [
        ("echo", InputConfig::args(2, 2)),
        ("seq", InputConfig::args(1, 2)),
        ("basename", InputConfig::args(1, 3)),
        ("wc", InputConfig::stdin(3)),
        ("test", InputConfig::args(2, 2)),
    ] {
        let n = check_workload(name, cfg, MergeMode::None);
        assert!(n >= 2, "{name} should have several paths, got {n}");
    }
}

#[test]
fn merged_tests_replay_exactly() {
    // Merged states have disjunctive path conditions and ite-laden
    // outputs; the solver model must still pick a concrete path whose
    // replay matches the predicted (ite-evaluated) outputs.
    for (name, cfg) in [
        ("echo", InputConfig::args(2, 2)),
        ("link", InputConfig::args(2, 2)),
        ("sleep", InputConfig::args(2, 1)),
        ("dirname", InputConfig::args(1, 3)),
    ] {
        check_workload(name, cfg, MergeMode::Static);
        check_workload(name, cfg, MergeMode::Dynamic);
    }
}

#[test]
fn quick_replay_sweep_over_all_workloads() {
    // One tiny configuration per workload, static merging (the mode that
    // stresses merged outputs hardest).
    for w in all() {
        let cfg = match w.kind {
            InputKind::Args => InputConfig::args(1, 1),
            InputKind::Stdin => InputConfig::stdin(2),
            InputKind::Both => InputConfig { n_args: 1, arg_len: 1, stdin_len: 1 },
        };
        let program = w.program(&cfg);
        let config = EngineConfig {
            merge_mode: MergeMode::Static,
            strategy: StrategyKind::Topological,
            ..EngineConfig::default()
        };
        let report = Engine::builder(program.clone()).config(config).build().unwrap().run();
        assert!(!report.hit_budget, "{} must finish at minimal size", w.name);
        for test in &report.tests {
            test.validate(&program).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }
}
