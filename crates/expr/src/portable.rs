//! Pool-independent expression transport.
//!
//! [`ExprId`]s are only meaningful relative to the [`ExprPool`] that
//! created them, which is exactly wrong for anything that outlives the
//! pool: a checkpoint written by one process and resumed by another
//! must carry its expressions across the pool boundary. A
//! [`PortableDag`] is the format for that trip: a self-contained,
//! pool-free rendering of an expression DAG (symbols by *name*, nodes in
//! child-before-parent order) that any pool can re-intern.
//!
//! Importing goes through the ordinary smart constructors, so the
//! destination pool re-canonicalizes operand order and re-runs the local
//! simplifications. The imported expression is therefore semantically
//! identical to the source — same value under every assignment — even
//! though its [`ExprId`] (and occasionally its shape) differs.
//!
//! The dividing line for what belongs in a portable rendering: anything
//! whose meaning is a function of the expression *semantics* travels
//! (symbol names, structure, constants); anything that indexes host-local
//! machinery must not (raw [`ExprId`]s, and by the same token the
//! engine-side solver-affinity stamps, which index one solver's context
//! clock — `symmerge-core`'s `PortableState`, the checkpoint form of a
//! state, drops them at export and re-derives them on import).
//!
//! ```
//! use symmerge_expr::{DagExporter, ExprPool, Value};
//!
//! let mut src = ExprPool::new(8);
//! let x = src.input("x", 8);
//! let five = src.bv_const(5, 8);
//! let sum = src.add(x, five);
//! let ten = src.bv_const(10, 8);
//! let cond = src.ult(sum, ten);
//!
//! let mut exp = DagExporter::new(&src);
//! let root = exp.add(cond);
//! let dag = exp.finish();
//!
//! // A brand-new pool, with a different interning history.
//! let mut dst = ExprPool::new(8);
//! let _decoy = dst.input("decoy", 8);
//! let ids = dag.import(&mut dst);
//! let moved = ids[root as usize];
//! let v = dst.eval(moved, &|sym| if dst.symbol_name(sym) == "x" { 3 } else { 0 });
//! assert_eq!(v, Value::Bool(true)); // 3 + 5 < 10
//! ```

use crate::kind::{BoolBinOp, BvBinOp, CmpOp, ExprKind};
use crate::pool::{ExprId, ExprPool, SymbolId};
use std::collections::HashMap;

/// A reference to a node inside a [`PortableDag`] (an index into its node
/// table).
pub type PortableRef = u32;

/// One node of a [`PortableDag`]. Mirrors [`ExprKind`] with pool-local
/// handles replaced by table indices and symbols replaced by an index
/// into the dag's name table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortableNode {
    /// A bitvector constant.
    BvConst {
        /// The (masked) constant value.
        value: u64,
        /// Bit width.
        width: u32,
    },
    /// A boolean constant.
    BoolConst(bool),
    /// A symbolic input; `sym` indexes the dag's symbol-name table.
    Input {
        /// Index into [`PortableDag::symbols`].
        sym: u32,
        /// Bit width.
        width: u32,
    },
    /// A binary bitvector operation.
    Bv {
        /// The operator.
        op: BvBinOp,
        /// Left operand node.
        lhs: PortableRef,
        /// Right operand node.
        rhs: PortableRef,
    },
    /// A comparison.
    Cmp {
        /// The operator.
        op: CmpOp,
        /// Left operand node.
        lhs: PortableRef,
        /// Right operand node.
        rhs: PortableRef,
    },
    /// Boolean negation.
    Not(PortableRef),
    /// A binary boolean connective.
    Bool {
        /// The operator.
        op: BoolBinOp,
        /// Left operand node.
        lhs: PortableRef,
        /// Right operand node.
        rhs: PortableRef,
    },
    /// If-then-else.
    Ite {
        /// Condition node.
        cond: PortableRef,
        /// Then-branch node.
        then: PortableRef,
        /// Else-branch node.
        els: PortableRef,
    },
}

/// A self-contained expression DAG, detached from any [`ExprPool`].
///
/// Nodes are stored child-before-parent (the exporter emits them in
/// post-order), so [`PortableDag::import`] is a single forward pass.
/// Symbols travel by name: two pools that interned the same name in
/// different orders still agree on what the imported expression means.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortableDag {
    /// Input-symbol names referenced by the nodes.
    pub symbols: Vec<String>,
    /// The node table, children before parents.
    pub nodes: Vec<PortableNode>,
}

impl PortableDag {
    /// Re-interns every node into `pool` and returns the mapping from
    /// node index ([`PortableRef`]) to the pool's [`ExprId`].
    ///
    /// Goes through the smart constructors, so the destination pool may
    /// simplify further; the result is semantically equal to the source.
    pub fn import(&self, pool: &mut ExprPool) -> Vec<ExprId> {
        let syms: Vec<SymbolId> =
            self.symbols.iter().map(|name| pool.intern_symbol(name)).collect();
        let mut ids: Vec<ExprId> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let id = match *node {
                PortableNode::BvConst { value, width } => pool.bv_const(value, width),
                PortableNode::BoolConst(b) => pool.bool_const(b),
                PortableNode::Input { sym, width } => pool.input_for(syms[sym as usize], width),
                PortableNode::Bv { op, lhs, rhs } => {
                    pool.bv(op, ids[lhs as usize], ids[rhs as usize])
                }
                PortableNode::Cmp { op, lhs, rhs } => {
                    pool.cmp(op, ids[lhs as usize], ids[rhs as usize])
                }
                PortableNode::Not(e) => pool.not(ids[e as usize]),
                PortableNode::Bool { op, lhs, rhs } => {
                    pool.bool_op(op, ids[lhs as usize], ids[rhs as usize])
                }
                PortableNode::Ite { cond, then, els } => {
                    pool.ite(ids[cond as usize], ids[then as usize], ids[els as usize])
                }
            };
            ids.push(id);
        }
        ids
    }

    /// Number of nodes in the table.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the dag contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Incrementally extracts expressions from one pool into a
/// [`PortableDag`], sharing nodes across all added roots.
#[derive(Debug)]
pub struct DagExporter<'p> {
    pool: &'p ExprPool,
    dag: PortableDag,
    node_map: HashMap<ExprId, PortableRef>,
    sym_map: HashMap<SymbolId, u32>,
}

impl<'p> DagExporter<'p> {
    /// Creates an exporter reading from `pool`.
    pub fn new(pool: &'p ExprPool) -> Self {
        DagExporter {
            pool,
            dag: PortableDag::default(),
            node_map: HashMap::new(),
            sym_map: HashMap::new(),
        }
    }

    /// Adds `root` (and its transitive children) to the dag, returning
    /// the root's [`PortableRef`]. Nodes already added by earlier calls
    /// are shared, not duplicated.
    pub fn add(&mut self, root: ExprId) -> PortableRef {
        if let Some(&r) = self.node_map.get(&root) {
            return r;
        }
        for id in self.pool.postorder(&[root]) {
            if self.node_map.contains_key(&id) {
                continue;
            }
            let node = match self.pool.kind(id) {
                ExprKind::BvConst { value, width } => PortableNode::BvConst { value, width },
                ExprKind::BoolConst(b) => PortableNode::BoolConst(b),
                ExprKind::Input { sym, width } => {
                    PortableNode::Input { sym: self.sym_ref(sym), width }
                }
                ExprKind::Bv { op, lhs, rhs } => {
                    PortableNode::Bv { op, lhs: self.node_map[&lhs], rhs: self.node_map[&rhs] }
                }
                ExprKind::Cmp { op, lhs, rhs } => {
                    PortableNode::Cmp { op, lhs: self.node_map[&lhs], rhs: self.node_map[&rhs] }
                }
                ExprKind::Not(e) => PortableNode::Not(self.node_map[&e]),
                ExprKind::Bool { op, lhs, rhs } => {
                    PortableNode::Bool { op, lhs: self.node_map[&lhs], rhs: self.node_map[&rhs] }
                }
                ExprKind::Ite { cond, then, els } => PortableNode::Ite {
                    cond: self.node_map[&cond],
                    then: self.node_map[&then],
                    els: self.node_map[&els],
                },
            };
            let r = self.dag.nodes.len() as PortableRef;
            self.dag.nodes.push(node);
            self.node_map.insert(id, r);
        }
        self.node_map[&root]
    }

    fn sym_ref(&mut self, sym: SymbolId) -> u32 {
        if let Some(&r) = self.sym_map.get(&sym) {
            return r;
        }
        let r = self.dag.symbols.len() as u32;
        self.dag.symbols.push(self.pool.symbol_name(sym).to_owned());
        self.sym_map.insert(sym, r);
        r
    }

    /// Finishes the export, yielding the dag.
    pub fn finish(self) -> PortableDag {
        self.dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ExprPool;

    /// Round-trips `build(pool)` through a portable dag into a fresh pool
    /// and checks semantic equality on a grid of assignments.
    fn round_trip(build: impl Fn(&mut ExprPool) -> ExprId) {
        let mut src = ExprPool::new(8);
        let root = build(&mut src);
        let mut exp = DagExporter::new(&src);
        let r = exp.add(root);
        let dag = exp.finish();
        // Destination pool with a deliberately different history.
        let mut dst = ExprPool::new(8);
        let _ = dst.input("zz", 8);
        let _ = dst.input("y", 8);
        let ids = dag.import(&mut dst);
        let moved = ids[r as usize];
        for a in [0u64, 1, 7, 127, 200, 255] {
            for b in [0u64, 3, 255] {
                let env_src = |sym| match src.symbol_name(sym) {
                    "x" => a,
                    "y" => b,
                    _ => 0,
                };
                let env_dst = |sym| match dst.symbol_name(sym) {
                    "x" => a,
                    "y" => b,
                    _ => 0,
                };
                assert_eq!(
                    src.eval(root, &env_src),
                    dst.eval(moved, &env_dst),
                    "semantic drift at x={a}, y={b}"
                );
            }
        }
    }

    #[test]
    fn round_trips_arithmetic_and_comparisons() {
        round_trip(|p| {
            let x = p.input("x", 8);
            let y = p.input("y", 8);
            let s = p.add(x, y);
            let m = p.mul(s, x);
            let k = p.bv_const(42, 8);
            p.ult(m, k)
        });
    }

    #[test]
    fn round_trips_ite_and_boolean_structure() {
        round_trip(|p| {
            let x = p.input("x", 8);
            let y = p.input("y", 8);
            let zero = p.bv_const(0, 8);
            let c = p.eq(x, zero);
            let picked = p.ite(c, x, y);
            let ten = p.bv_const(10, 8);
            let lt = p.slt(picked, ten);
            let nc = p.not(c);
            p.or(lt, nc)
        });
    }

    #[test]
    fn shares_nodes_across_roots() {
        let mut src = ExprPool::new(8);
        let x = src.input("x", 8);
        let one = src.bv_const(1, 8);
        let inc = src.add(x, one);
        let two = src.bv_const(2, 8);
        let r1 = src.ult(inc, two);
        let r2 = src.mul(inc, inc);
        let mut exp = DagExporter::new(&src);
        let a = exp.add(r1);
        let b = exp.add(r2);
        let dag = exp.finish();
        // x, 1, inc, 2, r1, r2: the shared subgraph is emitted once.
        assert_eq!(dag.len(), 6);
        let mut dst = ExprPool::new(8);
        let ids = dag.import(&mut dst);
        assert!(dst.sort(ids[a as usize]).is_bool());
        assert_eq!(dst.width(ids[b as usize]), 8);
    }

    #[test]
    fn import_reinterns_symbols_by_name() {
        let mut src = ExprPool::new(8);
        let x = src.input("x", 8);
        let y = src.input("y", 8);
        let e = src.add(x, y);
        let mut exp = DagExporter::new(&src);
        let r = exp.add(e);
        let dag = exp.finish();
        // Destination interned the same names in the opposite order.
        let mut dst = ExprPool::new(8);
        let y2 = dst.input("y", 8);
        let x2 = dst.input("x", 8);
        let ids = dag.import(&mut dst);
        let expect = dst.add(x2, y2);
        assert_eq!(ids[r as usize], expect, "must hash-cons onto the existing nodes");
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        let mut src = ExprPool::new(8);
        let x = src.input("x", 8);
        let one = src.bv_const(1, 8);
        let mut e = x;
        for _ in 0..50_000 {
            e = src.add(e, one);
            e = src.mul(e, x); // defeat constant folding and consing
        }
        let mut exp = DagExporter::new(&src);
        let r = exp.add(e);
        let dag = exp.finish();
        let mut dst = ExprPool::new(8);
        let ids = dag.import(&mut dst);
        assert_eq!(dst.width(ids[r as usize]), 8);
    }
}
