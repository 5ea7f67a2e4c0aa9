//! Test-case generation and replay validation.
//!
//! Every completed path's condition is handed to the solver; the model
//! becomes a concrete input vector (KLEE's core use case). Replaying the
//! inputs on the concrete interpreter and comparing observable behaviour
//! against the symbolic prediction is the strongest end-to-end soundness
//! check in the repository: it exercises expressions, the solver, the
//! engine *and* merging at once.

use symmerge_expr::{ExprId, ExprPool, Value};
use symmerge_ir::interp::{ExecOutcome, ExecResult, InputMap, Interp};
use symmerge_ir::Program;
use symmerge_solver::Model;

/// How the generating path ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestKind {
    /// Reached `halt`.
    Halted,
    /// Returned from `main`.
    Returned,
    /// Triggers the named assertion.
    AssertFailure {
        /// The assertion message.
        msg: String,
    },
}

/// A concrete test input with its predicted observable behaviour.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Input symbol assignments (symbol label → value).
    pub inputs: Vec<(String, u64)>,
    /// The outputs the symbolic path predicts for these inputs.
    pub predicted_outputs: Vec<u64>,
    /// How the path ends.
    pub kind: TestKind,
}

impl TestCase {
    /// Builds a test case from a satisfiable path condition.
    pub(crate) fn from_model(
        pool: &ExprPool,
        model: &Model,
        pc: &[ExprId],
        outputs: &[ExprId],
        kind: TestKind,
    ) -> TestCase {
        let roots: Vec<ExprId> = pc.iter().chain(outputs).copied().collect();
        let syms = pool.collect_inputs_many(&roots);
        let mut inputs: Vec<(String, u64)> =
            syms.iter().map(|&s| (pool.symbol_name(s).to_owned(), model.value(s))).collect();
        // Order by name, not by symbol id: ids depend on the pool's
        // interning history, which differs between the per-worker pools
        // of a sharded run, while names are pool-independent. This is
        // what lets the differential harness compare generated tests
        // byte-for-byte between sequential and parallel runs.
        inputs.sort();
        // One walk for all outputs: a merged state's outputs share ites.
        let predicted_outputs =
            pool.eval_many(outputs, &|s| model.value(s)).into_iter().map(Value::as_bv).collect();
        TestCase { inputs, predicted_outputs, kind }
    }

    /// The inputs as an interpreter [`InputMap`].
    pub fn input_map(&self) -> InputMap {
        self.inputs.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// A total-order key over everything a test case observes: the
    /// termination class, the (name-sorted) input assignments and the
    /// predicted outputs. The parallel engine's reduction sorts merged
    /// test lists by this key so the final report is independent of
    /// which shard produced which test and of the order shard reports
    /// arrive in.
    pub fn sort_key(&self) -> (String, Vec<(String, u64)>, Vec<u64>) {
        let class = match &self.kind {
            TestKind::Halted => "halted".to_string(),
            TestKind::Returned => "returned".to_string(),
            TestKind::AssertFailure { msg } => format!("assert:{msg}"),
        };
        (class, self.inputs.clone(), self.predicted_outputs.clone())
    }

    /// Replays the test on the concrete interpreter.
    pub fn replay(&self, program: &Program) -> ExecResult {
        Interp::new(program, self.input_map()).run()
    }

    /// Replays and checks that the concrete run matches the prediction:
    /// same outputs, and the expected termination class.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub fn validate(&self, program: &Program) -> Result<(), String> {
        let result = self.replay(program);
        match (&self.kind, &result.outcome) {
            (TestKind::AssertFailure { msg }, ExecOutcome::AssertFailed { msg: got }) => {
                if msg != got {
                    return Err(format!("expected assert '{msg}', got '{got}'"));
                }
                // Outputs up to the failure point must still match.
            }
            (TestKind::AssertFailure { msg }, other) => {
                return Err(format!("expected assert '{msg}', got {other:?}"));
            }
            (TestKind::Halted, ExecOutcome::Halted) => {}
            (TestKind::Returned, ExecOutcome::Returned) => {}
            (expected, got) => {
                return Err(format!("expected {expected:?}, concrete run ended {got:?}"));
            }
        }
        if result.outputs != self.predicted_outputs {
            return Err(format!(
                "output mismatch: predicted {:?}, observed {:?}",
                self.predicted_outputs, result.outputs
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmerge_ir::minic;

    #[test]
    fn test_case_round_trips_through_interpreter() {
        let program = minic::compile(
            r#"fn main() { let x = sym_int("x"); assume(x == 7); putchar(x + 1); }"#,
        )
        .unwrap();
        let tc = TestCase {
            inputs: vec![("x".into(), 7)],
            predicted_outputs: vec![8],
            kind: TestKind::Returned,
        };
        tc.validate(&program).unwrap();
    }

    #[test]
    fn validation_detects_wrong_prediction() {
        let program = minic::compile(r#"fn main() { let x = sym_int("x"); putchar(x); }"#).unwrap();
        let tc = TestCase {
            inputs: vec![("x".into(), 7)],
            predicted_outputs: vec![9],
            kind: TestKind::Returned,
        };
        assert!(tc.validate(&program).is_err());
    }

    #[test]
    fn assert_failure_test_kind_checked() {
        let program =
            minic::compile(r#"fn main() { let x = sym_int("x"); assert(x != 3, "boom"); }"#)
                .unwrap();
        let tc = TestCase {
            inputs: vec![("x".into(), 3)],
            predicted_outputs: vec![],
            kind: TestKind::AssertFailure { msg: "boom".into() },
        };
        tc.validate(&program).unwrap();
        let wrong = TestCase {
            inputs: vec![("x".into(), 4)],
            predicted_outputs: vec![],
            kind: TestKind::AssertFailure { msg: "boom".into() },
        };
        assert!(wrong.validate(&program).is_err());
    }
}
