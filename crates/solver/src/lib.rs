//! # symmerge-solver — a SAT-based bitvector constraint solver
//!
//! The constraint-solving substrate for the `symmerge` stack, standing in
//! for STP in the original paper (*Efficient State Merging in Symbolic
//! Execution*, Kuznetsov et al., PLDI 2012). Like STP, it decides
//! quantifier-free fixed-width bitvector formulas by **eager translation to
//! SAT**: expressions from [`symmerge_expr`] are bit-blasted through a
//! Tseitin encoder ([`bitblast`]) into CNF and decided by a from-scratch
//! CDCL solver ([`sat`]) with watched literals, first-UIP clause learning,
//! VSIDS branching, phase saving and Luby restarts.
//!
//! The high-level entry points are [`Solver::check`] and the
//! prefix-aware [`Solver::check_assuming`], which layer the query
//! optimizations KLEE relies on — and one the paper's prototype lacked —
//! over the raw bit-blast pipeline:
//!
//! * an **exact-match result cache** keyed on the full constraint set
//!   (hash-bucketed with key verification, so collisions cannot alias);
//! * a **counterexample cache** with subset/superset reasoning, in front
//!   of the re-blast path: stored unsat cores refute superset queries,
//!   stored sat sets donate their model to subset queries (a query routed
//!   to an incremental context goes from the exact cache straight to its
//!   context);
//! * **independent-constraint slicing**: the constraint set is partitioned
//!   into connected components by shared input symbols and each component
//!   is decided separately, under one *shared* conflict budget;
//! * **incremental solving contexts** ([`SolverContext`]): the
//!   path-condition prefix stays bit-blasted inside a persistent CDCL
//!   solver and branch conjuncts are decided *under assumptions*, so a
//!   whole sequence of feasibility checks along one path shares its CNF,
//!   learnt clauses and heuristic state;
//! * an optional **canonical minimal-model mode** that makes every sat
//!   answer the lexicographically least model, so generated tests are
//!   identical across solver configurations and runs.
//!
//! Every cache is private to the one [`Solver`] that fills it, as
//! KLEE's are to its process: a parallel fleet gives each worker its
//! own solver and shares nothing but the expression pool. Each tier can
//! be disabled through [`SolverConfig`] for ablation benchmarks. The
//! library never reads the environment; binaries map `SYMMERGE_*`
//! variables onto the config at their edge.
//!
//! # Example
//!
//! ```
//! use symmerge_expr::ExprPool;
//! use symmerge_solver::{SatResult, Solver};
//!
//! let mut pool = ExprPool::new(8);
//! let x = pool.input("x", 8);
//! let y = pool.input("y", 8);
//! let sum = pool.add(x, y);
//! let target = pool.bv_const(77, 8);
//! let c1 = pool.eq(sum, target);
//! let ten = pool.bv_const(10, 8);
//! let c2 = pool.ult(x, ten);
//!
//! let mut solver = Solver::new(Default::default());
//! match solver.check(&pool, &[c1, c2]) {
//!     SatResult::Sat(model) => {
//!         let xv = model.value_by_name(&pool, "x").unwrap();
//!         let yv = model.value_by_name(&pool, "y").unwrap();
//!         assert!(xv < 10);
//!         assert_eq!((xv + yv) & 0xff, 77);
//!     }
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```

pub mod bitblast;
pub mod cnf;
pub mod context;
pub mod sat;

mod fxhash;
mod model;
mod solve;
mod tiers;

pub use cnf::{Cnf, Lit, Var};
pub use context::SolverContext;
pub use model::Model;
pub use sat::{SatSolver, SatStats, SolveOutcome};
pub use solve::{
    ladder_budget, splitmix64, SatResult, Solver, SolverConfig, SolverStats, RETRY_BUDGET_CAP,
};
