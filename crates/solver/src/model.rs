//! Satisfying assignments for bitvector queries.

use std::collections::BTreeMap;
use symmerge_expr::{ExprId, ExprPool, SymbolId};

/// A satisfying assignment mapping input symbols to concrete values.
///
/// Symbols not mentioned by the query are unconstrained; [`Model::value`]
/// returns 0 for them, which keeps replay deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: BTreeMap<SymbolId, u64>,
}

impl Model {
    /// Creates an empty model (all inputs zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value of a symbol (masked by the caller).
    pub fn set(&mut self, sym: SymbolId, value: u64) {
        self.values.insert(sym, value);
    }

    /// The value assigned to `sym` (0 if unconstrained).
    pub fn value(&self, sym: SymbolId) -> u64 {
        self.values.get(&sym).copied().unwrap_or(0)
    }

    /// The value assigned to the symbol with the given name, if any
    /// constraint mentioned it.
    pub fn value_by_name(&self, pool: &ExprPool, name: &str) -> Option<u64> {
        self.values.iter().find(|(sym, _)| pool.symbol_name(**sym) == name).map(|(_, &v)| v)
    }

    /// Iterates over the explicitly assigned symbols.
    pub fn iter(&self) -> impl Iterator<Item = (SymbolId, u64)> + '_ {
        self.values.iter().map(|(&s, &v)| (s, v))
    }

    /// Number of explicitly assigned symbols.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model assigns no symbols.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Merges another model's assignments into this one (used when
    /// independent constraint slices are solved separately).
    pub fn absorb(&mut self, other: &Model) {
        for (s, v) in other.iter() {
            self.values.insert(s, v);
        }
    }

    /// Evaluates a boolean expression under this model.
    pub fn eval_bool(&self, pool: &ExprPool, e: ExprId) -> bool {
        pool.eval_bool(e, &|sym| self.value(sym))
    }

    /// Checks that every constraint evaluates to true under this model.
    ///
    /// Evaluates the whole conjunction in one walk ([`ExprPool::all_true`])
    /// — path-condition conjuncts overwhelmingly share subgraphs, so one
    /// memoized walk beats the per-conjunct re-walk of the naive
    /// `iter().all(eval_bool)`.
    pub fn satisfies(&self, pool: &ExprPool, constraints: &[ExprId]) -> bool {
        pool.all_true(constraints, &|sym| self.value(sym))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_value_is_zero() {
        let mut pool = ExprPool::new(8);
        let _x = pool.input("x", 8);
        let sym = pool.intern_symbol("x");
        let m = Model::new();
        assert_eq!(m.value(sym), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn satisfies_checks_all_constraints() {
        let mut pool = ExprPool::new(8);
        let x = pool.input("x", 8);
        let five = pool.bv_const(5, 8);
        let ten = pool.bv_const(10, 8);
        let c1 = pool.eq(x, five);
        let c2 = pool.ult(x, ten);
        let sym = pool.intern_symbol("x");
        let mut m = Model::new();
        m.set(sym, 5);
        assert!(m.satisfies(&pool, &[c1, c2]));
        m.set(sym, 11);
        assert!(!m.satisfies(&pool, &[c1, c2]));
    }

    #[test]
    fn absorb_unions_assignments() {
        let mut pool = ExprPool::new(8);
        let _ = pool.input("a", 8);
        let _ = pool.input("b", 8);
        let a = pool.intern_symbol("a");
        let b = pool.intern_symbol("b");
        let mut m1 = Model::new();
        m1.set(a, 1);
        let mut m2 = Model::new();
        m2.set(b, 2);
        m1.absorb(&m2);
        assert_eq!(m1.value(a), 1);
        assert_eq!(m1.value(b), 2);
        assert_eq!(m1.len(), 2);
    }
}
