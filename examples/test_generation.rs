//! End-to-end test generation with replay validation: explore `sleep`
//! (the paper's §5.4 example) symbolically, solve every completed path
//! for concrete inputs, and re-run each input on the concrete
//! interpreter, checking that outputs match the symbolic prediction.
//!
//! ```sh
//! cargo run --release --example test_generation
//! ```

use symmerge::prelude::*;
use symmerge::workloads::by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sleep = by_name("sleep").expect("sleep workload exists");
    let cfg = InputConfig { n_args: 2, arg_len: 1, stdin_len: 0 };
    let program = sleep.program(&cfg);

    let config = EngineConfig {
        merge_mode: MergeMode::Dynamic,
        strategy: StrategyKind::Bfs,
        ..EngineConfig::default()
    };
    let report = Engine::builder(program.clone()).config(config).build()?.run();

    println!(
        "sleep with {} symbolic bytes: {} paths completed ({} merged states), {} tests",
        cfg.symbolic_bytes(),
        report.completed_multiplicity,
        report.completed_paths,
        report.tests.len()
    );

    let mut ok = 0;
    for (i, test) in report.tests.iter().enumerate() {
        match test.validate(&program) {
            Ok(()) => ok += 1,
            Err(e) => println!("test {i} diverged: {e}"),
        }
    }
    println!("{ok}/{} tests replayed identically on the concrete interpreter", report.tests.len());

    // Show a few generated inputs with their observed behaviour.
    for test in report.tests.iter().take(5) {
        let result = test.replay(&program);
        let rendered: Vec<String> = test
            .inputs
            .iter()
            .map(|(name, v)| {
                let c = *v as u8;
                if c.is_ascii_graphic() {
                    format!("{name}='{}'", c as char)
                } else {
                    format!("{name}={v}")
                }
            })
            .collect();
        println!("  inputs [{}] → output {:?}", rendered.join(", "), result.output_string());
    }
    assert_eq!(ok, report.tests.len(), "all generated tests must validate");
    Ok(())
}
