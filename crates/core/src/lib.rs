//! # symmerge-core — efficient state merging in symbolic execution
//!
//! The paper's primary contribution (*Efficient State Merging in Symbolic
//! Execution*, Kuznetsov, Kinder, Bucur, Candea; PLDI 2012), implemented
//! over the `symmerge` substrates:
//!
//! * [`engine`] — the generic exploration loop (the paper's Algorithm 1),
//!   parameterized by `pickNext` (a [`Strategy`]), `follow` (solver
//!   feasibility checks) and the similarity relation `∼`;
//! * [`qce`] — **query count estimation** (§3): a static analysis
//!   estimating, for every location and variable, how many future solver
//!   queries the variable will participate in; defines the *hot variables*
//!   whose concrete inequality blocks a merge;
//! * [`merge`] — the precise merge operation (`pc₁ ∨ pc₂`,
//!   `ite(pc₁, s₁[v], s₂[v])`) with common-prefix factoring, plus the
//!   `∼qce` similarity relation (Eq. 1) and its hash-based approximation;
//! * [`dsm`] — **dynamic state merging** (§4, Algorithm 2): a scheduling
//!   layer that fast-forwards states lagging at most `δ` steps behind a
//!   similar state, while an arbitrary *driving* strategy keeps control;
//! * [`strategy`] — DFS/BFS/random/coverage-optimized/topological search;
//! * [`testgen`] — test-case generation from path conditions and replay
//!   validation against the concrete interpreter.
//!
//! # Quickstart
//!
//! ```
//! use symmerge_core::{Engine, EngineConfig, MergeMode, StrategyKind};
//! use symmerge_ir::minic;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = minic::compile(r#"
//!     fn main() {
//!         let x = sym_int("x");
//!         let r = 0;
//!         if (x == '-') { r = 1; }
//!         if (r == 1) { putchar('n'); } else { putchar('y'); }
//!     }
//! "#)?;
//! // One configuration value; every field not named keeps its default.
//! let config = EngineConfig {
//!     merge_mode: MergeMode::Dynamic,
//!     strategy: StrategyKind::CoverageOptimized,
//!     ..EngineConfig::default()
//! };
//! let report = Engine::builder(program).config(config).build()?.run();
//! assert_eq!(report.completed_multiplicity, 2.0);
//! assert!(report.assert_failures.is_empty());
//! # Ok(())
//! # }
//! ```

pub mod checkpoint;
pub mod dsm;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod merge;
pub mod parallel;
pub mod qce;
mod shard;
pub mod state;
pub mod strategy;
pub mod testgen;

pub use checkpoint::{
    read_checkpoint, write_checkpoint, Checkpoint, CheckpointConfig, PortableState,
};
pub use dsm::{DsmConfig, DsmStats};
pub use engine::{
    Budgets, Engine, EngineBuilder, EngineConfig, ExploreStep, MergeMode, RunReport, ShardOutput,
};
pub use exec::{AssertFailure, Completion};
pub use fault::FaultPlan;
pub use merge::MergeConfig;
pub use parallel::{reduce_reports, ParallelConfig, ParallelEngine, SchedulerKind};
pub use qce::{QceAnalysis, QceConfig, VarKey};
pub use state::{State, StateId};
pub use strategy::{Strategy, StrategyKind};
pub use symmerge_solver::{SolverConfig, SolverStats};
pub use testgen::{TestCase, TestKind};
