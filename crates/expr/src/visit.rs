//! DAG traversal utilities.

use crate::kind::ExprKind;
use crate::pool::{ExprId, ExprPool, SymbolId};
use crate::scratch;
use std::collections::HashSet;

/// Iterator yielding the unique nodes reachable from a set of roots in
/// post-order (children before parents). Produced by
/// [`ExprPool::postorder`].
#[derive(Debug)]
pub struct Postorder<'p> {
    pool: &'p ExprPool,
    stack: Vec<(ExprId, bool)>,
    visited: HashSet<ExprId>,
}

impl<'p> Iterator for Postorder<'p> {
    type Item = ExprId;

    fn next(&mut self) -> Option<ExprId> {
        while let Some((id, expanded)) = self.stack.pop() {
            if expanded {
                return Some(id);
            }
            if !self.visited.insert(id) {
                continue;
            }
            self.stack.push((id, true));
            for child in self.pool.children(id) {
                if !self.visited.contains(&child) {
                    self.stack.push((child, false));
                }
            }
        }
        None
    }
}

impl ExprPool {
    /// The direct children of a node in operand order (none for leaves).
    /// Allocates nothing.
    pub fn children(&self, id: ExprId) -> impl Iterator<Item = ExprId> {
        let (ids, n) = match self.kind(id) {
            ExprKind::BvConst { .. } | ExprKind::BoolConst(_) | ExprKind::Input { .. } => {
                ([id; 3], 0)
            }
            ExprKind::Bv { lhs, rhs, .. }
            | ExprKind::Cmp { lhs, rhs, .. }
            | ExprKind::Bool { lhs, rhs, .. } => ([lhs, rhs, rhs], 2),
            ExprKind::Not(e) => ([e; 3], 1),
            ExprKind::Ite { cond, then, els } => ([cond, then, els], 3),
        };
        ids.into_iter().take(n)
    }

    /// Post-order traversal over the unique nodes reachable from `roots`.
    pub fn postorder<'p>(&'p self, roots: &[ExprId]) -> Postorder<'p> {
        Postorder {
            pool: self,
            stack: roots.iter().rev().map(|&r| (r, false)).collect(),
            visited: HashSet::new(),
        }
    }

    /// Number of unique DAG nodes reachable from `root` (a proxy for query
    /// size used by the statistics and benchmarks).
    pub fn dag_size(&self, root: ExprId) -> usize {
        self.postorder(&[root]).count()
    }

    /// The set of input symbols referenced by `root`, sorted and de-duplicated.
    ///
    /// Used by the solver's independent-constraint slicing and by test-case
    /// generation.
    pub fn collect_inputs(&self, root: ExprId) -> Vec<SymbolId> {
        self.collect_inputs_many(&[root])
    }

    /// The set of input symbols referenced by any of `roots`, sorted and
    /// de-duplicated.
    ///
    /// One walk in the per-thread scratch (see [`ExprPool::eval`]) that
    /// never descends into an input-free subgraph.
    pub fn collect_inputs_many(&self, roots: &[ExprId]) -> Vec<SymbolId> {
        let mut out = Vec::new();
        scratch::walk(self.len(), |s| {
            s.stack.extend(roots.iter().filter(|&&r| self.depends_on_input(r)));
            while let Some(id) = s.stack.pop() {
                if s.done(id) {
                    continue;
                }
                s.mark(id);
                if let ExprKind::Input { sym, .. } = self.kind(id) {
                    out.push(sym);
                }
                for child in self.children(id) {
                    if self.depends_on_input(child) && !s.done(child) {
                        s.stack.push(child);
                    }
                }
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Counts the `ite` nodes reachable from `root` — the paper's
    /// `Q_ite`-style cost signal (§3.3), exposed for diagnostics.
    pub fn count_ite(&self, root: ExprId) -> usize {
        self.postorder(&[root]).filter(|&id| matches!(self.kind(id), ExprKind::Ite { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postorder_children_first() {
        let mut p = ExprPool::new(32);
        let x = p.input("x", 32);
        let y = p.input("y", 32);
        let s = p.add(x, y);
        let order: Vec<ExprId> = p.postorder(&[s]).collect();
        let pos = |id| order.iter().position(|&e| e == id).unwrap();
        assert!(pos(x) < pos(s));
        assert!(pos(y) < pos(s));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn dag_size_counts_unique_nodes() {
        let mut p = ExprPool::new(32);
        let x = p.input("x", 32);
        let s = p.add(x, x); // add(x, x) has 2 unique nodes
        assert_eq!(p.dag_size(s), 2);
        let sq = p.mul(s, s);
        assert_eq!(p.dag_size(sq), 3);
    }

    #[test]
    fn collect_inputs_sorted_dedup() {
        let mut p = ExprPool::new(32);
        let a = p.input("a", 32);
        let b = p.input("b", 32);
        let e1 = p.add(a, b);
        let e2 = p.mul(e1, a);
        let inputs = p.collect_inputs(e2);
        assert_eq!(inputs.len(), 2);
        let names: Vec<&str> = inputs.iter().map(|&s| p.symbol_name(s)).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn count_ite_nodes() {
        let mut p = ExprPool::new(32);
        let x = p.input("x", 32);
        let zero = p.bv_const(0, 32);
        let one = p.bv_const(1, 32);
        let two = p.bv_const(2, 32);
        let c = p.eq(x, zero);
        let i = p.ite(c, one, two);
        let j = p.add(i, one);
        assert_eq!(p.count_ite(j), 1);
        assert_eq!(p.count_ite(c), 0);
    }
}
