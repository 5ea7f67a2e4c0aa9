//! CNF representation and Tseitin gate constructors.

use std::collections::HashMap;
use std::fmt;
use std::ops::Not;

/// A propositional variable (0-based index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The raw index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }
}

/// A literal: a variable or its negation, packed as `var << 1 | sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is negated.
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// Packed code (used to index watch lists).
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Builds a literal from a variable and a sign.
    pub fn new(var: Var, negative: bool) -> Lit {
        if negative {
            var.negative()
        } else {
            var.positive()
        }
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

/// Structural key of an emitted gate: tag plus canonicalized operands.
/// Binary gates leave the third slot as [`GATE_KEY_FILL`]; constant
/// operands never reach the memo (they are folded first), so the filler
/// cannot collide with a real literal.
type GateKey = (u8, Lit, Lit, Lit);

const GATE_AND: u8 = 0;
const GATE_XOR: u8 = 1;
const GATE_MUX: u8 = 2;
const GATE_KEY_FILL: Lit = Lit(u32::MAX);

/// A CNF formula under construction, with Tseitin gate helpers.
///
/// Variable 0 is reserved as the constant-`true` variable: a unit clause
/// asserting it is added at construction, so [`Cnf::lit_true`] /
/// [`Cnf::lit_false`] can be used to represent constants uniformly.
///
/// With gate sharing on (the default, see [`Cnf::set_gate_sharing`]),
/// gates are hash-consed: a structurally identical gate over the same
/// operands returns the literal already constrained to that function
/// instead of emitting a fresh variable and clauses. Merge-produced
/// ite-chains are the motivating workload — sibling chains repeat the
/// same selector circuitry per output bit, and consing collapses the
/// duplicates. Operands are canonicalized first (commutative gates by
/// operand order, xor/mux additionally by polarity), so e.g.
/// `xor(a, b)`, `xor(b, a)` and `¬xor(¬a, b)` all share one gate.
#[derive(Debug, Clone)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
    share: bool,
    gate_memo: HashMap<GateKey, Lit>,
    gates_reused: u64,
}

impl Default for Cnf {
    fn default() -> Self {
        Self::new()
    }
}

impl Cnf {
    /// Creates an empty formula with the constant-`true` variable asserted
    /// and gate sharing on.
    pub fn new() -> Self {
        let mut cnf = Cnf {
            num_vars: 1,
            clauses: Vec::new(),
            share: true,
            gate_memo: HashMap::new(),
            gates_reused: 0,
        };
        cnf.add_clause(&[cnf.lit_true()]);
        cnf
    }

    /// Enables or disables hash-consed gate reuse. Sharing never changes
    /// the functions the gates compute, only how many variables and
    /// clauses encode them, so solve verdicts (and canonical models) are
    /// identical either way.
    pub fn set_gate_sharing(&mut self, on: bool) {
        self.share = on;
        if !on {
            self.gate_memo.clear();
        }
    }

    /// Number of gate constructions answered from the memo instead of
    /// emitting fresh clauses.
    pub fn gates_reused(&self) -> u64 {
        self.gates_reused
    }

    /// The literal that is always true.
    pub fn lit_true(&self) -> Lit {
        Var(0).positive()
    }

    /// The literal that is always false.
    pub fn lit_false(&self) -> Lit {
        Var(0).negative()
    }

    /// Whether a literal is one of the two constants.
    pub fn is_const(&self, l: Lit) -> Option<bool> {
        if l == self.lit_true() {
            Some(true)
        } else if l == self.lit_false() {
            Some(false)
        } else {
            None
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Allocates a fresh positive literal.
    pub fn new_lit(&mut self) -> Lit {
        self.new_var().positive()
    }

    /// Number of variables allocated (including the constant).
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// The clauses added so far (since the last
    /// [`Cnf::drain_clauses`]).
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Removes and yields the clauses added so far, in order. An
    /// incremental consumer drains the formula into its solver, so the
    /// CNF is only a staging buffer: variables and the gate memo stay,
    /// clauses are held once, by the solver.
    pub fn drain_clauses(&mut self) -> std::vec::Drain<'_, Vec<Lit>> {
        self.clauses.drain(..)
    }

    /// Number of clauses (since the last [`Cnf::drain_clauses`]).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Adds a clause (a disjunction of literals).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }

    /// Asserts that a literal holds.
    pub fn assert_lit(&mut self, l: Lit) {
        self.add_clause(&[l]);
    }

    // ----- Tseitin gates -------------------------------------------------
    //
    // Each gate returns a literal constrained to equal the gate's output.
    // Constant inputs are folded so no spurious variables are created.

    /// `out ↔ a ∧ b`.
    pub fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) | (_, Some(false)) => self.lit_false(),
            (Some(true), _) => b,
            (_, Some(true)) => a,
            _ if a == b => a,
            _ if a == !b => self.lit_false(),
            _ => {
                let key = (GATE_AND, a.min(b), a.max(b), GATE_KEY_FILL);
                if self.share {
                    if let Some(&out) = self.gate_memo.get(&key) {
                        self.gates_reused += 1;
                        return out;
                    }
                }
                let out = self.new_lit();
                self.add_clause(&[!out, a]);
                self.add_clause(&[!out, b]);
                self.add_clause(&[out, !a, !b]);
                if self.share {
                    self.gate_memo.insert(key, out);
                }
                out
            }
        }
    }

    /// `out ↔ a ∨ b`.
    pub fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and_gate(!a, !b)
    }

    /// `out ↔ a ⊕ b`.
    pub fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) => b,
            (_, Some(false)) => a,
            (Some(true), _) => !b,
            (_, Some(true)) => !a,
            _ if a == b => self.lit_false(),
            _ if a == !b => self.lit_true(),
            _ if self.share => {
                // xor(a, b) = ¬xor(¬a, b): normalize to positive operands
                // and carry the polarity on the output, so all four
                // polarity variants share one gate.
                let parity = a.is_negative() ^ b.is_negative();
                let (a0, b0) = {
                    let (pa, pb) = (Lit::new(a.var(), false), Lit::new(b.var(), false));
                    (pa.min(pb), pa.max(pb))
                };
                let key = (GATE_XOR, a0, b0, GATE_KEY_FILL);
                let out = match self.gate_memo.get(&key) {
                    Some(&o) => {
                        self.gates_reused += 1;
                        o
                    }
                    None => {
                        let o = self.new_lit();
                        self.add_clause(&[!o, a0, b0]);
                        self.add_clause(&[!o, !a0, !b0]);
                        self.add_clause(&[o, !a0, b0]);
                        self.add_clause(&[o, a0, !b0]);
                        self.gate_memo.insert(key, o);
                        o
                    }
                };
                if parity {
                    !out
                } else {
                    out
                }
            }
            _ => {
                let out = self.new_lit();
                self.add_clause(&[!out, a, b]);
                self.add_clause(&[!out, !a, !b]);
                self.add_clause(&[out, !a, b]);
                self.add_clause(&[out, a, !b]);
                out
            }
        }
    }

    /// `out ↔ (a ↔ b)`.
    pub fn iff_gate(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor_gate(a, b)
    }

    /// `out ↔ ite(c, a, b)` (a 2-to-1 multiplexer).
    pub fn mux_gate(&mut self, c: Lit, a: Lit, b: Lit) -> Lit {
        match self.is_const(c) {
            Some(true) => return a,
            Some(false) => return b,
            None => {}
        }
        if a == b {
            return a;
        }
        match (self.is_const(a), self.is_const(b)) {
            (Some(true), Some(false)) => return c,
            (Some(false), Some(true)) => return !c,
            (Some(true), None) => return self.or_gate(c, b),
            (Some(false), None) => {
                let nc = !c;
                return self.and_gate(nc, b);
            }
            (None, Some(true)) => {
                let nc = !c;
                return self.or_gate(nc, a);
            }
            (None, Some(false)) => return self.and_gate(c, a),
            _ => {}
        }
        if self.share {
            // mux(¬c, a, b) = mux(c, b, a) and mux(c, ¬a, ¬b) = ¬mux(c, a, b):
            // normalize to a positive selector and a positive then-branch.
            let (mut c, mut a, mut b) = (c, a, b);
            if c.is_negative() {
                c = !c;
                std::mem::swap(&mut a, &mut b);
            }
            let mut neg_out = false;
            if a.is_negative() {
                a = !a;
                b = !b;
                neg_out = true;
            }
            let key = (GATE_MUX, c, a, b);
            let out = match self.gate_memo.get(&key) {
                Some(&o) => {
                    self.gates_reused += 1;
                    o
                }
                None => {
                    let o = self.new_lit();
                    self.add_clause(&[!o, !c, a]);
                    self.add_clause(&[!o, c, b]);
                    self.add_clause(&[o, !c, !a]);
                    self.add_clause(&[o, c, !b]);
                    // Redundant but propagation-strengthening clause.
                    self.add_clause(&[o, !a, !b]);
                    self.gate_memo.insert(key, o);
                    o
                }
            };
            return if neg_out { !out } else { out };
        }
        let out = self.new_lit();
        self.add_clause(&[!out, !c, a]);
        self.add_clause(&[!out, c, b]);
        self.add_clause(&[out, !c, !a]);
        self.add_clause(&[out, c, !b]);
        // Redundant but propagation-strengthening clause.
        self.add_clause(&[out, !a, !b]);
        out
    }

    /// N-way one-hot selector: `sᵢ → (out ↔ vᵢ)` for each `(sᵢ, vᵢ)` arm.
    ///
    /// The factored ite-chain encoding's workhorse. The caller must
    /// guarantee the selectors are *exhaustive and mutually exclusive*
    /// (exactly one true in every total assignment) — the one-hot
    /// construction in the blaster provides this — which makes `out`
    /// fully defined at 2 clauses per arm, versus ~5 per link of a
    /// nested mux chain.
    pub fn select_gate(&mut self, arms: &[(Lit, Lit)]) -> Lit {
        let mut live: Vec<(Lit, Lit)> = Vec::with_capacity(arms.len());
        for &(s, v) in arms {
            match self.is_const(s) {
                Some(false) => {}
                // A constant-true selector excludes every other arm.
                Some(true) => return v,
                None => live.push((s, v)),
            }
        }
        match live.as_slice() {
            // Unreachable under the exhaustiveness contract.
            [] => self.lit_false(),
            // A lone live selector must be the one that fired.
            [(_, v)] => *v,
            _ if live.iter().all(|&(_, v)| v == live[0].1) => live[0].1,
            _ => {
                let out = self.new_lit();
                for &(s, v) in &live {
                    match self.is_const(v) {
                        Some(true) => self.add_clause(&[!s, out]),
                        Some(false) => self.add_clause(&[!s, !out]),
                        None => {
                            self.add_clause(&[!s, !v, out]);
                            self.add_clause(&[!s, v, !out]);
                        }
                    }
                }
                out
            }
        }
    }

    /// Full adder: returns `(sum, carry_out)` for `a + b + cin`.
    pub fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor_gate(a, b);
        let sum = self.xor_gate(axb, cin);
        let ab = self.and_gate(a, b);
        let axb_cin = self.and_gate(axb, cin);
        let carry = self.or_gate(ab, axb_cin);
        (sum, carry)
    }

    /// `out ↔ (a₀ ∧ a₁ ∧ … ∧ aₙ)`.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_true();
        for &l in lits {
            acc = self.and_gate(acc, l);
        }
        acc
    }

    /// `out ↔ (a₀ ∨ a₁ ∨ … ∨ aₙ)`.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_false();
        for &l in lits {
            acc = self.or_gate(acc, l);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{SatSolver, SolveOutcome};

    fn solve(cnf: &Cnf) -> SolveOutcome {
        SatSolver::from_cnf(cnf).solve()
    }

    #[test]
    fn literal_packing() {
        let v = Var(5);
        assert_eq!(v.positive().var(), v);
        assert!(!v.positive().is_negative());
        assert!(v.negative().is_negative());
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(!!v.positive(), v.positive());
        assert_eq!(v.positive().to_string(), "x5");
        assert_eq!(v.negative().to_string(), "¬x5");
    }

    #[test]
    fn const_folding_in_gates() {
        let mut cnf = Cnf::new();
        let t = cnf.lit_true();
        let f = cnf.lit_false();
        let a = cnf.new_lit();
        assert_eq!(cnf.and_gate(t, a), a);
        assert_eq!(cnf.and_gate(f, a), f);
        assert_eq!(cnf.or_gate(f, a), a);
        assert_eq!(cnf.or_gate(t, a), t);
        assert_eq!(cnf.xor_gate(f, a), a);
        assert_eq!(cnf.xor_gate(t, a), !a);
        assert_eq!(cnf.mux_gate(t, a, f), a);
        assert_eq!(cnf.and_gate(a, a), a);
        assert_eq!(cnf.and_gate(a, !a), f);
        assert_eq!(cnf.xor_gate(a, a), f);
        assert_eq!(cnf.xor_gate(a, !a), t);
    }

    #[test]
    fn and_gate_truth_table() {
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut cnf = Cnf::new();
            let a = cnf.new_lit();
            let b = cnf.new_lit();
            let out = cnf.and_gate(a, b);
            cnf.assert_lit(if va { a } else { !a });
            cnf.assert_lit(if vb { b } else { !b });
            cnf.assert_lit(if va && vb { out } else { !out });
            assert!(matches!(solve(&cnf), SolveOutcome::Sat(_)), "and({va},{vb})");
            // Asserting the opposite output must be unsat.
            let mut cnf2 = Cnf::new();
            let a = cnf2.new_lit();
            let b = cnf2.new_lit();
            let out = cnf2.and_gate(a, b);
            cnf2.assert_lit(if va { a } else { !a });
            cnf2.assert_lit(if vb { b } else { !b });
            cnf2.assert_lit(if va && vb { !out } else { out });
            assert!(matches!(solve(&cnf2), SolveOutcome::Unsat), "¬and({va},{vb})");
        }
    }

    #[test]
    fn full_adder_truth_table() {
        for bits in 0u8..8 {
            let (va, vb, vc) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let expected_sum = va ^ vb ^ vc;
            let expected_carry = (va && vb) || ((va || vb) && vc);
            let mut cnf = Cnf::new();
            let a = cnf.new_lit();
            let b = cnf.new_lit();
            let c = cnf.new_lit();
            let (s, co) = cnf.full_adder(a, b, c);
            cnf.assert_lit(if va { a } else { !a });
            cnf.assert_lit(if vb { b } else { !b });
            cnf.assert_lit(if vc { c } else { !c });
            cnf.assert_lit(if expected_sum { s } else { !s });
            cnf.assert_lit(if expected_carry { co } else { !co });
            assert!(matches!(solve(&cnf), SolveOutcome::Sat(_)), "adder({va},{vb},{vc})");
        }
    }

    #[test]
    fn mux_gate_selects() {
        for (vc, va, vb) in [(true, true, false), (false, true, false), (true, false, true)] {
            let mut cnf = Cnf::new();
            let c = cnf.new_lit();
            let a = cnf.new_lit();
            let b = cnf.new_lit();
            let out = cnf.mux_gate(c, a, b);
            cnf.assert_lit(if vc { c } else { !c });
            cnf.assert_lit(if va { a } else { !a });
            cnf.assert_lit(if vb { b } else { !b });
            let expected = if vc { va } else { vb };
            cnf.assert_lit(if expected { out } else { !out });
            assert!(matches!(solve(&cnf), SolveOutcome::Sat(_)));
        }
    }
}
