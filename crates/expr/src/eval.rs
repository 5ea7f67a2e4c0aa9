//! Concrete evaluation of expressions under an input assignment.

use crate::kind::{BoolBinOp, ExprKind};
use crate::pool::{eval_bv_binop, eval_cmp, ExprId, ExprPool, SymbolId};
use crate::scratch::{self, Scratch};
use crate::sort::{mask, Sort};

/// A concrete value: either a bitvector (masked to its width) or a boolean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// A bitvector value (already masked to the expression's width).
    Bv(u64),
    /// A boolean value.
    Bool(bool),
}

impl Value {
    /// Extracts the bitvector payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a boolean.
    pub fn as_bv(self) -> u64 {
        match self {
            Value::Bv(v) => v,
            Value::Bool(b) => panic!("expected bitvector value, got bool {b}"),
        }
    }

    /// Extracts the boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a bitvector.
    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Bv(v) => panic!("expected boolean value, got bv {v}"),
        }
    }
}

impl ExprPool {
    /// Evaluates `root` under the input assignment `env` (mapping each
    /// [`SymbolId`] to a raw `u64`, masked to the input's declared width).
    ///
    /// Evaluation is iterative (no recursion) and memoizes shared subgraphs
    /// in a reusable per-thread scratch, so it is linear in the DAG size of
    /// `root` and allocates nothing once the scratch has grown to the pool.
    ///
    /// `env` must not evaluate expressions itself: a walk started from
    /// inside another walk on the same thread panics instead of clobbering
    /// the memo the outer walk is using.
    ///
    /// ```
    /// use symmerge_expr::{ExprPool, Value};
    /// let mut p = ExprPool::new(8);
    /// let x = p.input("x", 8);
    /// let e = p.add(x, x);
    /// assert_eq!(p.eval(e, &|_| 200), Value::Bv(144)); // wraps at 8 bits
    /// ```
    pub fn eval(&self, root: ExprId, env: &dyn Fn(SymbolId) -> u64) -> Value {
        scratch::walk(self.len(), |s| self.eval_in(s, root, env))
    }

    /// Evaluates every root in one walk, so subgraphs the roots share (the
    /// outputs of a merged state, say) are evaluated once. Same rules as
    /// [`ExprPool::eval`].
    pub fn eval_many(&self, roots: &[ExprId], env: &dyn Fn(SymbolId) -> u64) -> Vec<Value> {
        scratch::walk(self.len(), |s| roots.iter().map(|&r| self.eval_in(s, r, env)).collect())
    }

    /// Whether every root in `roots` evaluates to `true` under `env`.
    ///
    /// Equivalent to `roots.iter().all(|&r| self.eval_bool(r, env))` but
    /// evaluates the whole conjunction in one walk, so subgraphs shared
    /// between conjuncts (ubiquitous in path conditions, where every
    /// conjunct reads the same inputs) are evaluated once instead of once
    /// per conjunct. Short-circuits on the first false root. Same rules
    /// as [`ExprPool::eval`].
    ///
    /// # Panics
    ///
    /// Panics if any evaluated root is bitvector-sorted.
    pub fn all_true(&self, roots: &[ExprId], env: &dyn Fn(SymbolId) -> u64) -> bool {
        scratch::walk(self.len(), |s| roots.iter().all(|&r| self.eval_in(s, r, env).as_bool()))
    }

    /// Evaluates `root` within the walk `s`, reusing every node an earlier
    /// root of the same walk already evaluated.
    fn eval_in(&self, s: &mut Scratch, root: ExprId, env: &dyn Fn(SymbolId) -> u64) -> Value {
        s.stack.push(root);
        while let Some(&id) = s.stack.last() {
            if s.done(id) {
                s.stack.pop();
                continue;
            }
            // A node stays on the stack until its children are done: it
            // is visited once to push them and once more to evaluate.
            let pending = s.stack.len();
            for child in self.children(id) {
                if !s.done(child) {
                    s.stack.push(child);
                }
            }
            if s.stack.len() > pending {
                continue;
            }
            s.stack.pop();
            let value = match self.kind(id) {
                ExprKind::BvConst { value, .. } => value,
                ExprKind::BoolConst(b) => u64::from(b),
                ExprKind::Input { sym, width } => mask(env(sym), width),
                ExprKind::Bv { op, lhs, rhs } => {
                    eval_bv_binop(op, s.value(lhs), s.value(rhs), self.width(id))
                }
                ExprKind::Cmp { op, lhs, rhs } => {
                    u64::from(eval_cmp(op, s.value(lhs), s.value(rhs), self.width(lhs)))
                }
                ExprKind::Not(e) => u64::from(s.value(e) == 0),
                ExprKind::Bool { op, lhs, rhs } => {
                    let (a, b) = (s.value(lhs) != 0, s.value(rhs) != 0);
                    u64::from(match op {
                        BoolBinOp::And => a && b,
                        BoolBinOp::Or => a || b,
                        BoolBinOp::Xor => a ^ b,
                    })
                }
                ExprKind::Ite { cond, then, els } => {
                    s.value(if s.value(cond) != 0 { then } else { els })
                }
            };
            s.set(id, value);
        }
        match self.sort(root) {
            Sort::Bool => Value::Bool(s.value(root) != 0),
            Sort::Bv(_) => Value::Bv(s.value(root)),
        }
    }

    /// Evaluates a boolean expression, returning its truth value.
    ///
    /// # Panics
    ///
    /// Panics if `root` is bitvector-sorted.
    pub fn eval_bool(&self, root: ExprId, env: &dyn Fn(SymbolId) -> u64) -> bool {
        self.eval(root, env).as_bool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arithmetic_dag() {
        let mut p = ExprPool::new(32);
        let x = p.input("x", 32);
        let y = p.input("y", 32);
        let sum = p.add(x, y);
        let prod = p.mul(sum, sum); // shared subgraph
        let env = |s: SymbolId| if p.symbol_name(s) == "x" { 3 } else { 4 };
        assert_eq!(p.eval(prod, &env), Value::Bv(49));
    }

    #[test]
    fn eval_ite_and_bools() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let ten = p.bv_const(10, 8);
        let one = p.bv_const(1, 8);
        let two = p.bv_const(2, 8);
        let c = p.ult(x, ten);
        let e = p.ite(c, one, two);
        assert_eq!(p.eval(e, &|_| 5), Value::Bv(1));
        assert_eq!(p.eval(e, &|_| 200), Value::Bv(2));
        let nc = p.not(c);
        assert_eq!(p.eval(nc, &|_| 5), Value::Bool(false));
    }

    #[test]
    fn eval_masks_env_values() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        // env returns an over-wide value; it must be masked to 8 bits
        assert_eq!(p.eval(x, &|_| 0x1ff), Value::Bv(0xff));
    }

    #[test]
    fn all_true_matches_per_root_eval_and_short_circuits() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let ten = p.bv_const(10, 8);
        let five = p.bv_const(5, 8);
        let c1 = p.ult(x, ten);
        let c2 = p.ugt(x, five); // shares x with c1
        let c3 = p.eq(x, five);
        let env7 = |_: SymbolId| 7u64;
        assert!(p.all_true(&[c1, c2], &env7));
        assert!(!p.all_true(&[c1, c3], &env7));
        assert!(!p.all_true(&[c3, c1], &env7), "order must not matter for the verdict");
        assert!(p.all_true(&[], &env7), "empty conjunction is vacuously true");
    }

    #[test]
    fn eval_many_matches_per_root_eval() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let one = p.bv_const(1, 8);
        let sum = p.add(x, one);
        let c = p.ult(sum, x);
        let roots = [sum, c, x, sum];
        let env = |_: SymbolId| 0xff;
        let want: Vec<Value> = roots.iter().map(|&r| p.eval(r, &env)).collect();
        assert_eq!(p.eval_many(&roots, &env), want);
        assert_eq!(want[..2], [Value::Bv(0), Value::Bool(true)]);
    }

    #[test]
    #[should_panic(expected = "re-entrant expression walk")]
    fn env_closure_must_not_reenter_the_evaluator() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let _ = p.eval(x, &|_| p.eval(x, &|_| 1).as_bv());
    }

    #[test]
    #[should_panic(expected = "expected boolean")]
    fn eval_bool_on_bv_panics() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let _ = p.eval_bool(x, &|_| 0);
    }
}
