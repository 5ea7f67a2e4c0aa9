//! Quickstart: compile a MiniC program, explore it symbolically with
//! dynamic state merging, and generate concrete test cases.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use symmerge::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little access-control checker with a bug: the `admin` shortcut
    // skips the PIN length check.
    let program = minic::compile(
        r#"
        fn pin_ok(p) {
            return p >= 1000 && p <= 9999;
        }
        fn main() {
            let role = sym_int("role");   // 0 = guest, 1 = user, 2 = admin
            let pin = sym_int("pin");
            assume(role >= 0 && role <= 2);
            let access = 0;
            if (role == 2) {
                access = 1;               // bug: no PIN check for admins
            } else if (role == 1 && pin_ok(pin)) {
                access = 1;
            }
            if (access == 1) {
                // The security policy says every access needs a valid PIN —
                // the admin shortcut above violates it.
                assert(pin_ok(pin), "access without valid pin");
                putchar('+');
            } else {
                putchar('-');
            }
        }
        "#,
    )?;

    // One configuration value: dynamic merging over coverage-optimized
    // search, every other field at its default.
    let config = EngineConfig {
        merge_mode: MergeMode::Dynamic,
        strategy: StrategyKind::CoverageOptimized,
        ..EngineConfig::default()
    };
    let report = Engine::builder(program.clone()).config(config).build()?.run();

    println!(
        "explored {} paths ({} after merging; {} merges)",
        report.completed_multiplicity, report.completed_paths, report.merges
    );
    println!("block coverage: {:.0}%", report.coverage() * 100.0);
    println!("assertion failures: {}", report.assert_failures.len());

    // Every completed path yields a concrete test; replay them against the
    // concrete interpreter to double-check the engine's predictions.
    let mut validated = 0;
    for test in &report.tests {
        test.validate(&program).map_err(|e| format!("replay diverged: {e}"))?;
        validated += 1;
    }
    println!("{validated} generated tests replayed and validated");

    for test in &report.tests {
        if let TestKind::AssertFailure { msg } = &test.kind {
            println!("reproducer for '{msg}': {:?}", test.inputs);
        }
    }
    Ok(())
}
