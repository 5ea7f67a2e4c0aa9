//! The reference evaluator the scratch-based walks are checked against.
//!
//! This is the evaluator `ExprPool::eval` used before it moved onto the
//! per-thread dense scratch: a fresh `HashMap` memo per walk, and input
//! collection through `Postorder`'s visited set. It is slow and obviously
//! right, and it shares no walk code with the library.

use std::collections::HashMap;
use symmerge_expr::semantics::{eval_bv_binop, eval_cmp, mask};
use symmerge_expr::{BoolBinOp, ExprId, ExprKind, ExprPool, SymbolId, Value};

/// `pool.eval(root, env)`, one fresh memo per call.
pub fn eval(pool: &ExprPool, root: ExprId, env: &dyn Fn(SymbolId) -> u64) -> Value {
    eval_memo(pool, &mut HashMap::new(), root, env)
}

/// `pool.all_true(roots, env)`: one memo shared by the conjunction,
/// short-circuiting on the first false root.
pub fn all_true(pool: &ExprPool, roots: &[ExprId], env: &dyn Fn(SymbolId) -> u64) -> bool {
    let mut memo = HashMap::new();
    roots.iter().all(|&r| eval_memo(pool, &mut memo, r, env).as_bool())
}

/// `pool.collect_inputs_many(roots)`: every input node in the post-order,
/// sorted and de-duplicated.
pub fn collect_inputs_many(pool: &ExprPool, roots: &[ExprId]) -> Vec<SymbolId> {
    let mut out: Vec<SymbolId> = pool
        .postorder(roots)
        .filter_map(|id| match pool.kind(id) {
            ExprKind::Input { sym, .. } => Some(sym),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn eval_memo(
    pool: &ExprPool,
    memo: &mut HashMap<ExprId, Value>,
    root: ExprId,
    env: &dyn Fn(SymbolId) -> u64,
) -> Value {
    let mut stack = vec![(root, false)];
    while let Some((id, expanded)) = stack.pop() {
        if memo.contains_key(&id) {
            continue;
        }
        let kind = pool.kind(id);
        if !expanded {
            stack.push((id, true));
            match kind {
                ExprKind::Bv { lhs, rhs, .. }
                | ExprKind::Cmp { lhs, rhs, .. }
                | ExprKind::Bool { lhs, rhs, .. } => {
                    stack.push((lhs, false));
                    stack.push((rhs, false));
                }
                ExprKind::Not(e) => stack.push((e, false)),
                ExprKind::Ite { cond, then, els } => {
                    stack.push((cond, false));
                    stack.push((then, false));
                    stack.push((els, false));
                }
                _ => {}
            }
            continue;
        }
        let value = match kind {
            ExprKind::BvConst { value, .. } => Value::Bv(value),
            ExprKind::BoolConst(b) => Value::Bool(b),
            ExprKind::Input { sym, width } => Value::Bv(mask(env(sym), width)),
            ExprKind::Bv { op, lhs, rhs } => {
                let (a, b) = (memo[&lhs].as_bv(), memo[&rhs].as_bv());
                Value::Bv(eval_bv_binop(op, a, b, pool.width(id)))
            }
            ExprKind::Cmp { op, lhs, rhs } => {
                let (a, b) = (memo[&lhs].as_bv(), memo[&rhs].as_bv());
                Value::Bool(eval_cmp(op, a, b, pool.width(lhs)))
            }
            ExprKind::Not(e) => Value::Bool(!memo[&e].as_bool()),
            ExprKind::Bool { op, lhs, rhs } => {
                let (a, b) = (memo[&lhs].as_bool(), memo[&rhs].as_bool());
                Value::Bool(match op {
                    BoolBinOp::And => a && b,
                    BoolBinOp::Or => a || b,
                    BoolBinOp::Xor => a ^ b,
                })
            }
            ExprKind::Ite { cond, then, els } => {
                if memo[&cond].as_bool() {
                    memo[&then]
                } else {
                    memo[&els]
                }
            }
        };
        memo.insert(id, value);
    }
    memo[&root]
}
