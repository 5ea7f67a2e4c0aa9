//! # symmerge-expr — hash-consed symbolic expressions
//!
//! The expression substrate for the `symmerge` symbolic-execution stack
//! (a reproduction of *Efficient State Merging in Symbolic Execution*,
//! Kuznetsov et al., PLDI 2012).
//!
//! Expressions are fixed-width bitvectors and booleans, stored as a
//! hash-consed DAG inside an [`ExprPool`]. Hash-consing gives:
//!
//! * O(1) structural equality (`ExprId == ExprId`),
//! * O(1) *input-dependence* tests — the paper's `I ⊳ s[v]` check that
//!   decides whether a variable is symbolic ([`ExprPool::depends_on_input`]),
//! * cheap structural hashing, which dynamic state merging (§4.3 of the
//!   paper) uses to fingerprint states.
//!
//! Smart constructors perform aggressive local simplification (constant
//! folding, identity/annihilator rules, `ite` collapsing). This mirrors the
//! paper's observation (§2.1) that merged stores should simplify
//! `ite(c, x, x)` to `x` and that disjunctive path conditions should factor
//! common prefixes.
//!
//! # Example
//!
//! ```
//! use symmerge_expr::{ExprPool, Value};
//!
//! let mut pool = ExprPool::new(32);
//! let x = pool.input("x", 32);
//! let five = pool.bv_const(5, 32);
//! let sum = pool.add(x, five);
//! let ten = pool.bv_const(10, 32);
//! let cond = pool.ult(sum, ten);
//!
//! // Evaluate under an assignment x = 3.
//! let v = pool.eval(cond, &|sym| if pool.symbol_name(sym) == "x" { 3 } else { 0 });
//! assert_eq!(v, Value::Bool(true));
//! ```

mod eval;
mod kind;
mod pool;
mod portable;
mod print;
mod scratch;
mod sort;
mod visit;

pub use eval::Value;
pub use kind::{BoolBinOp, BvBinOp, CmpOp, ExprKind};
pub use pool::{ExprId, ExprPool, SharedExprPool, SymbolId};
pub use portable::{DagExporter, PortableDag, PortableNode, PortableRef};
#[doc(hidden)]
pub use scratch::force_walk_generation;
pub use sort::Sort;
pub use visit::Postorder;

/// Shared concrete semantics of the bitvector operators, used by the
/// evaluator, the concrete interpreter and (as a test oracle) the solver.
pub mod semantics {
    pub use crate::pool::{eval_bv_binop, eval_cmp};
    pub use crate::sort::{mask, to_signed};
}
