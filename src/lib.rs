//! # symmerge — efficient state merging in symbolic execution
//!
//! A from-scratch Rust reproduction of *“Efficient State Merging in
//! Symbolic Execution”* (Kuznetsov, Kinder, Bucur, Candea; PLDI 2012):
//! **query count estimation (QCE)** and **dynamic state merging (DSM)** on
//! top of a complete symbolic-execution stack — hash-consed expressions, a
//! CDCL-SAT-based bitvector solver, a CFG IR with a MiniC frontend and
//! concrete interpreter, search strategies, and test generation.
//!
//! This crate is a facade re-exporting the workspace crates:
//!
//! * [`expr`] — hash-consed symbolic expressions,
//! * [`solver`] — CDCL SAT + bit-blasting bitvector solver,
//! * [`ir`] — CFG IR, MiniC frontend, concrete interpreter,
//! * [`core`] — the engine, QCE, SSM and DSM,
//! * [`workloads`] — mini-COREUTILS benchmark programs.
//!
//! It adds one module of its own: [`config`], which maps the
//! `SYMMERGE_*` environment variables onto the library configuration for
//! binaries. The library crates never read the environment.
//!
//! # Quickstart
//!
//! ```
//! use symmerge::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = minic::compile(
//!     r#"
//!     fn main() {
//!       let x = sym_int("x");
//!       if (x > 10) { assert(x != 42, "bug"); } else { putchar('o'); }
//!     }
//!     "#,
//! )?;
//! // One configuration value; every field not named keeps its default.
//! let config = EngineConfig {
//!     merge_mode: MergeMode::Dynamic,
//!     strategy: StrategyKind::CoverageOptimized,
//!     ..EngineConfig::default()
//! };
//! let report = Engine::builder(program).config(config).build()?.run();
//! assert_eq!(report.assert_failures.len(), 1); // x = 42 found
//! # Ok(())
//! # }
//! ```

pub use symmerge_core as core;
pub use symmerge_expr as expr;
pub use symmerge_ir as ir;
pub use symmerge_solver as solver;
pub use symmerge_workloads as workloads;

pub mod config;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use symmerge_core::{
        read_checkpoint, write_checkpoint, Budgets, Checkpoint, CheckpointConfig, DsmConfig,
        Engine, EngineBuilder, EngineConfig, FaultPlan, MergeConfig, MergeMode, ParallelConfig,
        ParallelEngine, QceConfig, RunReport, SchedulerKind, StrategyKind, TestCase, TestKind,
    };
    pub use symmerge_ir::interp::{ExecOutcome, InputMap, Interp};
    pub use symmerge_ir::{minic, Program};
    pub use symmerge_solver::{SatResult, Solver, SolverConfig};
    pub use symmerge_workloads::{self as workloads, InputConfig};
}
