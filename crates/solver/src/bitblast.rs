//! Bit-blasting: compiling bitvector expressions into CNF circuits.
//!
//! Every [`ExprId`] is translated once (the translation is cached on the
//! DAG), so shared subexpressions share circuitry. Booleans become single
//! literals, bitvectors become LSB-first literal vectors.
//!
//! The circuits implement exactly the concrete semantics documented on
//! [`symmerge_expr::BvBinOp`] (SMT-LIB total division, saturating shifts),
//! which the crate's property tests cross-check against the expression
//! evaluator.

use crate::cnf::{Cnf, Lit};
use crate::fxhash::FxHashMap;
use crate::model::Model;
use crate::sat::SolveOutcome;
use symmerge_expr::{BoolBinOp, BvBinOp, CmpOp, ExprId, ExprKind, ExprPool, SymbolId};

/// The circuit-level value of an expression.
#[derive(Debug, Clone)]
enum Bits {
    Bool(Lit),
    Bv(Vec<Lit>), // LSB first
}

/// Where a memoized translation lives: a bitvector's `len` bits start at
/// `start` in [`BitBlaster`]'s literal arena; a boolean keeps its literal
/// in `start` and [`BOOL_SLOT`] in `len`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    start: u32,
    len: u32,
}

/// The `len` tag of a boolean [`Slot`].
const BOOL_SLOT: u32 = u32::MAX;

/// Translates expressions from an [`ExprPool`] into a growing [`Cnf`].
///
/// The blaster does not hold a borrow of the pool — every translating
/// method takes it as an argument — so a `BitBlaster` can live inside a
/// persistent [`SolverContext`](crate::SolverContext) across engine steps
/// that keep extending the pool. The per-[`ExprId`] translation cache
/// stays valid because pools are append-only: existing ids never change
/// meaning.
/// Cloning a blaster snapshots the CNF and both caches; together with
/// [`SatSolver::fork`](crate::sat::SatSolver::fork) this is what makes a
/// [`SolverContext`](crate::SolverContext) forkable — the clone keeps
/// translating from where the original stood, without re-blasting any
/// shared circuitry. Both caches map to `(start, len)` slots in one
/// literal arena, so a clone copies two tables and one buffer, with no
/// allocation per entry. Inside a context the CNF is only a staging buffer: the context
/// drains each new clause into its SAT solver
/// ([`BitBlaster::drain_clauses`]), so a clone copies variables and the
/// gate memo but no clauses.
#[derive(Debug, Clone)]
pub struct BitBlaster {
    cnf: Cnf,
    /// The bits (LSB first) of every memoized bitvector, back to back.
    arena: Vec<Lit>,
    cache: FxHashMap<ExprId, Slot>,
    /// Each blasted input's bits; the input's [`ExprId`] in `cache`
    /// points at the same slot.
    inputs: FxHashMap<SymbolId, Slot>,
    factor: bool,
}

/// Longest ite-chain the factored encoding collects in one pass; longer
/// chains simply continue with a nested chain at the tail.
const ITE_CHAIN_MAX: usize = 64;

impl Default for BitBlaster {
    fn default() -> Self {
        BitBlaster {
            cnf: Cnf::new(),
            arena: Vec::new(),
            cache: FxHashMap::default(),
            inputs: FxHashMap::default(),
            factor: true,
        }
    }
}

impl BitBlaster {
    /// Creates an empty blaster with ite-chain factoring and gate
    /// sharing on.
    pub fn new() -> Self {
        BitBlaster::default()
    }

    /// Creates an empty blaster with ite-chain factoring (and the
    /// underlying hash-consed gate reuse) explicitly on or off. Both
    /// encodings compute the same functions; only CNF size differs.
    pub fn with_ite_factor(on: bool) -> Self {
        let mut bb = BitBlaster { factor: on, ..BitBlaster::default() };
        bb.cnf.set_gate_sharing(on);
        bb
    }

    /// Number of gates answered from the CNF's structural memo instead
    /// of freshly encoded (see [`Cnf::gates_reused`]).
    pub fn gates_reused(&self) -> u64 {
        self.cnf.gates_reused()
    }

    /// The CNF built so far.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Hands each clause emitted since the last drain to `sink`, in
    /// order, and removes them (see [`Cnf::drain_clauses`]).
    pub fn drain_clauses(&mut self, sink: impl FnMut(&[Lit])) {
        self.cnf.drain_clauses(sink);
    }

    /// Consumes the blaster, returning the CNF.
    pub fn into_cnf(self) -> Cnf {
        self.cnf
    }

    /// Asserts that a boolean expression holds.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not boolean-sorted.
    pub fn assert_true(&mut self, pool: &ExprPool, e: ExprId) {
        let l = self.blast_bool(pool, e);
        self.cnf.assert_lit(l);
    }

    /// Translates a boolean expression to its output literal.
    pub fn blast_bool(&mut self, pool: &ExprPool, e: ExprId) -> Lit {
        match self.blast(pool, e) {
            Bits::Bool(l) => l,
            Bits::Bv(_) => panic!("blast_bool on bitvector expression"),
        }
    }

    /// Translates a bitvector expression to its output bits (LSB first).
    pub fn blast_bv(&mut self, pool: &ExprPool, e: ExprId) -> Vec<Lit> {
        match self.blast(pool, e) {
            Bits::Bv(bits) => bits,
            Bits::Bool(_) => panic!("blast_bv on boolean expression"),
        }
    }

    /// Appends `bits` to the arena.
    fn store_bv(&mut self, bits: &[Lit]) -> Slot {
        let start = u32::try_from(self.arena.len()).expect("the blaster arena fits in u32");
        let len = u32::try_from(bits.len()).expect("bitvector widths fit in u32");
        debug_assert_ne!(len, BOOL_SLOT);
        self.arena.extend_from_slice(bits);
        Slot { start, len }
    }

    /// The bits of a bitvector slot.
    fn slice(&self, slot: Slot) -> &[Lit] {
        debug_assert_ne!(slot.len, BOOL_SLOT);
        &self.arena[slot.start as usize..(slot.start + slot.len) as usize]
    }

    fn load(&self, slot: Slot) -> Bits {
        if slot.len == BOOL_SLOT {
            Bits::Bool(Lit(slot.start))
        } else {
            Bits::Bv(self.slice(slot).to_vec())
        }
    }

    fn blast(&mut self, pool: &ExprPool, e: ExprId) -> Bits {
        if let Some(&slot) = self.cache.get(&e) {
            return self.load(slot);
        }
        let bits = match pool.kind(e) {
            ExprKind::BvConst { value, width } => {
                let t = self.cnf.lit_true();
                let f = self.cnf.lit_false();
                Bits::Bv((0..width).map(|i| if value >> i & 1 == 1 { t } else { f }).collect())
            }
            ExprKind::BoolConst(b) => {
                Bits::Bool(if b { self.cnf.lit_true() } else { self.cnf.lit_false() })
            }
            ExprKind::Input { sym, width } => {
                let slot = match self.inputs.get(&sym) {
                    Some(&slot) => {
                        assert_eq!(
                            slot.len as usize,
                            width as usize,
                            "input {} used at two widths",
                            pool.symbol_name(sym)
                        );
                        slot
                    }
                    None => {
                        let bits: Vec<Lit> = (0..width).map(|_| self.cnf.new_lit()).collect();
                        let slot = self.store_bv(&bits);
                        self.inputs.insert(sym, slot);
                        slot
                    }
                };
                self.cache.insert(e, slot);
                return self.load(slot);
            }
            ExprKind::Bv { op, lhs, rhs } => {
                let a = self.blast_bv(pool, lhs);
                let b = self.blast_bv(pool, rhs);
                Bits::Bv(self.blast_bv_op(op, &a, &b))
            }
            ExprKind::Cmp { op, lhs, rhs } => {
                let a = self.blast_bv(pool, lhs);
                let b = self.blast_bv(pool, rhs);
                Bits::Bool(self.blast_cmp(op, &a, &b))
            }
            ExprKind::Not(x) => {
                let l = self.blast_bool(pool, x);
                Bits::Bool(!l)
            }
            ExprKind::Bool { op, lhs, rhs } => {
                let a = self.blast_bool(pool, lhs);
                let b = self.blast_bool(pool, rhs);
                Bits::Bool(match op {
                    BoolBinOp::And => self.cnf.and_gate(a, b),
                    BoolBinOp::Or => self.cnf.or_gate(a, b),
                    BoolBinOp::Xor => self.cnf.xor_gate(a, b),
                })
            }
            ExprKind::Ite { cond, then, els } => {
                let mut conds = vec![cond];
                let mut leaves = vec![then];
                let mut tail = els;
                if self.factor {
                    // Collect the merge-produced chain `if c₁ then v₁
                    // elif c₂ …`, stopping at already-blasted suffixes
                    // (their circuitry is shared through the cache, so
                    // re-encoding them would add clauses, not save any).
                    while conds.len() < ITE_CHAIN_MAX && !self.cache.contains_key(&tail) {
                        match pool.kind(tail) {
                            ExprKind::Ite { cond: c, then: t, els: e } => {
                                conds.push(c);
                                leaves.push(t);
                                tail = e;
                            }
                            _ => break,
                        }
                    }
                }
                if conds.len() >= 2 {
                    self.blast_ite_chain(pool, &conds, &leaves, tail)
                } else {
                    let c = self.blast_bool(pool, cond);
                    match (self.blast(pool, then), self.blast(pool, els)) {
                        (Bits::Bool(t), Bits::Bool(f)) => Bits::Bool(self.cnf.mux_gate(c, t, f)),
                        (Bits::Bv(t), Bits::Bv(f)) => Bits::Bv(self.mux_bv(c, &t, &f)),
                        _ => unreachable!("ite branches have mismatched sorts"),
                    }
                }
            }
        };
        let slot = match &bits {
            Bits::Bool(l) => Slot { start: l.0, len: BOOL_SLOT },
            Bits::Bv(v) => self.store_bv(v),
        };
        self.cache.insert(e, slot);
        bits
    }

    /// Factored encoding for a merge-produced ite-chain
    /// `if c₁ then v₁ elif c₂ then v₂ … else tail`.
    ///
    /// The per-link encoding emits ~5 mux clauses per link *per output
    /// bit*, duplicating the selector logic across the whole width. Here
    /// the selectors are factored out once: a one-hot arm vector (arm
    /// *j* fires iff `cⱼ` is the first true condition) built from shared
    /// `and` gates, then each output bit is one n-way
    /// [`Cnf::select_gate`] at 2 clauses per arm. Sibling chains from
    /// the same merge point reuse the selector gates through the CNF's
    /// structural memo.
    fn blast_ite_chain(
        &mut self,
        pool: &ExprPool,
        conds: &[ExprId],
        leaves: &[ExprId],
        tail: ExprId,
    ) -> Bits {
        let cs: Vec<Lit> = conds.iter().map(|&c| self.blast_bool(pool, c)).collect();
        let mut sels = Vec::with_capacity(cs.len() + 1);
        let mut none_before = self.cnf.lit_true();
        for &c in &cs {
            sels.push(self.cnf.and_gate(none_before, c));
            none_before = self.cnf.and_gate(none_before, !c);
        }
        // The default arm: no condition fired. Together the selectors
        // are exhaustive and mutually exclusive, which is exactly the
        // `select_gate` contract.
        sels.push(none_before);
        let mut vals: Vec<Bits> = leaves.iter().map(|&l| self.blast(pool, l)).collect();
        vals.push(self.blast(pool, tail));
        match &vals[0] {
            Bits::Bool(_) => {
                let arms: Vec<(Lit, Lit)> = sels
                    .iter()
                    .zip(&vals)
                    .map(|(&s, v)| match v {
                        Bits::Bool(l) => (s, *l),
                        Bits::Bv(_) => unreachable!("ite branches have mismatched sorts"),
                    })
                    .collect();
                Bits::Bool(self.cnf.select_gate(&arms))
            }
            Bits::Bv(first) => {
                let width = first.len();
                let out = (0..width)
                    .map(|i| {
                        let arms: Vec<(Lit, Lit)> = sels
                            .iter()
                            .zip(&vals)
                            .map(|(&s, v)| match v {
                                Bits::Bv(bits) => (s, bits[i]),
                                Bits::Bool(_) => {
                                    unreachable!("ite branches have mismatched sorts")
                                }
                            })
                            .collect();
                        self.cnf.select_gate(&arms)
                    })
                    .collect();
                Bits::Bv(out)
            }
        }
    }

    // ----- bitvector circuits ------------------------------------------

    fn blast_bv_op(&mut self, op: BvBinOp, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        match op {
            BvBinOp::Add => self.adder(a, b, None).0,
            BvBinOp::Sub => self.subtractor(a, b),
            BvBinOp::Mul => self.multiplier(a, b),
            BvBinOp::UDiv => self.udiv_urem(a, b).0,
            BvBinOp::URem => self.udiv_urem(a, b).1,
            BvBinOp::SDiv => self.sdiv_srem(a, b).0,
            BvBinOp::SRem => self.sdiv_srem(a, b).1,
            BvBinOp::And => self.zip_gate(a, b, |cnf, x, y| cnf.and_gate(x, y)),
            BvBinOp::Or => self.zip_gate(a, b, |cnf, x, y| cnf.or_gate(x, y)),
            BvBinOp::Xor => self.zip_gate(a, b, |cnf, x, y| cnf.xor_gate(x, y)),
            BvBinOp::Shl => self.shifter(a, b, ShiftKind::Left),
            BvBinOp::LShr => self.shifter(a, b, ShiftKind::LogicalRight),
            BvBinOp::AShr => self.shifter(a, b, ShiftKind::ArithmeticRight),
        }
    }

    fn zip_gate(
        &mut self,
        a: &[Lit],
        b: &[Lit],
        gate: impl Fn(&mut Cnf, Lit, Lit) -> Lit,
    ) -> Vec<Lit> {
        a.iter().zip(b).map(|(&x, &y)| gate(&mut self.cnf, x, y)).collect()
    }

    /// Ripple-carry adder; returns `(sum, carry_out)`.
    fn adder(&mut self, a: &[Lit], b: &[Lit], carry_in: Option<Lit>) -> (Vec<Lit>, Lit) {
        let mut carry = carry_in.unwrap_or(self.cnf.lit_false());
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.cnf.full_adder(x, y, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// `a - b` as `a + ¬b + 1`.
    fn subtractor(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
        let one = self.cnf.lit_true();
        self.adder(a, &nb, Some(one)).0
    }

    /// Two's-complement negation.
    fn negate(&mut self, a: &[Lit]) -> Vec<Lit> {
        let zero: Vec<Lit> = vec![self.cnf.lit_false(); a.len()];
        self.subtractor(&zero, a)
    }

    /// Shift-and-add multiplier, truncated to the operand width.
    fn multiplier(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc: Vec<Lit> = vec![self.cnf.lit_false(); w];
        for i in 0..w {
            // Partial product row i: (b << i) & a_i, truncated to w bits.
            let ai = a[i];
            let mut row: Vec<Lit> = vec![self.cnf.lit_false(); w];
            for j in 0..w - i {
                row[i + j] = self.cnf.and_gate(b[j], ai);
            }
            acc = self.adder(&acc, &row, None).0;
        }
        acc
    }

    /// Restoring division; returns `(quotient, remainder)` with SMT-LIB
    /// division-by-zero semantics.
    fn udiv_urem(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let f = self.cnf.lit_false();
        // Work in w+1 bits so the partial remainder never overflows.
        let mut bx: Vec<Lit> = b.to_vec();
        bx.push(f);
        let mut rem: Vec<Lit> = vec![f; w + 1];
        let mut quot: Vec<Lit> = vec![f; w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a_i. The shifted-out bit is always 0:
            // the loop invariant keeps rem < 2^w before each shift.
            rem.rotate_right(1);
            rem[0] = a[i];
            // geq = rem >= bx
            let lt = self.ult_circuit(&rem, &bx);
            let geq = !lt;
            quot[i] = geq;
            let diff = self.subtractor(&rem, &bx);
            rem = self.mux_bv(geq, &diff, &rem);
        }
        let rem_w: Vec<Lit> = rem[..w].to_vec();
        // b == 0 → quot = all-ones, rem = a.
        let b_is_zero = self.is_zero(b);
        let ones = vec![self.cnf.lit_true(); w];
        let quot = self.mux_bv(b_is_zero, &ones, &quot);
        let rem = self.mux_bv(b_is_zero, a, &rem_w);
        (quot, rem)
    }

    /// Signed division via sign/magnitude around [`Self::udiv_urem`].
    fn sdiv_srem(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let sa = a[w - 1];
        let sb = b[w - 1];
        let na = self.negate(a);
        let nb = self.negate(b);
        let abs_a = self.mux_bv(sa, &na, a);
        let abs_b = self.mux_bv(sb, &nb, b);
        let (q, r) = self.udiv_urem(&abs_a, &abs_b);
        let q_neg = self.negate(&q);
        let r_neg = self.negate(&r);
        let sign_differs = self.cnf.xor_gate(sa, sb);
        let quot = self.mux_bv(sign_differs, &q_neg, &q);
        let rem = self.mux_bv(sa, &r_neg, &r);
        (quot, rem)
    }

    fn is_zero(&mut self, a: &[Lit]) -> Lit {
        let any = self.cnf.or_many(a);
        !any
    }

    fn mux_bv(&mut self, c: Lit, t: &[Lit], f: &[Lit]) -> Vec<Lit> {
        t.iter().zip(f).map(|(&x, &y)| self.cnf.mux_gate(c, x, y)).collect()
    }

    /// Barrel shifter with overflow clamping.
    fn shifter(&mut self, a: &[Lit], shift: &[Lit], kind: ShiftKind) -> Vec<Lit> {
        let w = a.len();
        let fill = match kind {
            ShiftKind::Left | ShiftKind::LogicalRight => self.cnf.lit_false(),
            ShiftKind::ArithmeticRight => a[w - 1],
        };
        // Staged shift by powers of two for every stage that matters.
        let mut cur: Vec<Lit> = a.to_vec();
        let mut stage = 0;
        while (1usize << stage) < w {
            let amount = 1usize << stage;
            let sel = shift[stage];
            let shifted: Vec<Lit> = (0..w)
                .map(|i| match kind {
                    ShiftKind::Left => {
                        if i >= amount {
                            cur[i - amount]
                        } else {
                            fill
                        }
                    }
                    ShiftKind::LogicalRight | ShiftKind::ArithmeticRight => {
                        if i + amount < w {
                            cur[i + amount]
                        } else {
                            fill
                        }
                    }
                })
                .collect();
            cur = self.mux_bv(sel, &shifted, &cur);
            stage += 1;
        }
        // If shift >= w, the result is all fill bits. That happens when any
        // shift bit at position >= `stage` is set, or the low `stage` bits
        // encode a value >= w (only possible for non-power-of-two widths).
        let mut overflow = self.cnf.lit_false();
        for &s in &shift[stage.min(shift.len())..] {
            overflow = self.cnf.or_gate(overflow, s);
        }
        if !w.is_power_of_two() {
            // Compare the low bits against the constant w.
            let mut low: Vec<Lit> = shift[..stage.min(shift.len())].to_vec();
            while low.len() < 64 {
                low.push(self.cnf.lit_false());
            }
            let t = self.cnf.lit_true();
            let f = self.cnf.lit_false();
            let wconst: Vec<Lit> =
                (0..64).map(|i| if (w as u64) >> i & 1 == 1 { t } else { f }).collect();
            let lt_w = self.ult_circuit(&low, &wconst);
            overflow = self.cnf.or_gate(overflow, !lt_w);
        }
        let all_fill = vec![fill; w];
        self.mux_bv(overflow, &all_fill, &cur)
    }

    // ----- comparisons ----------------------------------------------------

    fn blast_cmp(&mut self, op: CmpOp, a: &[Lit], b: &[Lit]) -> Lit {
        match op {
            CmpOp::Eq => self.eq_circuit(a, b),
            CmpOp::Ult => self.ult_circuit(a, b),
            CmpOp::Ule => {
                let gt = self.ult_circuit(b, a);
                !gt
            }
            CmpOp::Slt => {
                let (fa, fb) = (self.flip_msb(a), self.flip_msb(b));
                self.ult_circuit(&fa, &fb)
            }
            CmpOp::Sle => {
                let (fa, fb) = (self.flip_msb(a), self.flip_msb(b));
                let gt = self.ult_circuit(&fb, &fa);
                !gt
            }
        }
    }

    fn flip_msb(&self, a: &[Lit]) -> Vec<Lit> {
        let mut v = a.to_vec();
        let last = v.len() - 1;
        v[last] = !v[last];
        v
    }

    fn eq_circuit(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.cnf.lit_true();
        for (&x, &y) in a.iter().zip(b) {
            let same = self.cnf.iff_gate(x, y);
            acc = self.cnf.and_gate(acc, same);
        }
        acc
    }

    fn ult_circuit(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // MSB-down: lt = lt' ∨ (eq-above ∧ ¬aᵢ ∧ bᵢ)
        let mut lt = self.cnf.lit_false();
        let mut eq_above = self.cnf.lit_true();
        for i in (0..a.len()).rev() {
            let bit_lt = self.cnf.and_gate(!a[i], b[i]);
            let here = self.cnf.and_gate(eq_above, bit_lt);
            lt = self.cnf.or_gate(lt, here);
            let same = self.cnf.iff_gate(a[i], b[i]);
            eq_above = self.cnf.and_gate(eq_above, same);
        }
        lt
    }

    // ----- models -----------------------------------------------------------

    /// The CNF literal vectors (LSB first) of every blasted input symbol,
    /// sorted by [`SymbolId`] so iteration order is deterministic.
    pub fn inputs_sorted(&self) -> Vec<(SymbolId, Vec<Lit>)> {
        let mut v: Vec<(SymbolId, Vec<Lit>)> =
            self.inputs.iter().map(|(&s, &slot)| (s, self.slice(slot).to_vec())).collect();
        v.sort_unstable_by_key(|(s, _)| *s);
        v
    }

    /// Like [`BitBlaster::inputs_sorted`], but sorted by symbol *name*.
    ///
    /// Symbol ids depend on the order a pool interned its names, which
    /// differs between the per-worker pools of a sharded run; names do
    /// not. Canonical model minimization iterates inputs in this order so
    /// that the minimal model — and therefore every generated test — is
    /// identical no matter which pool's representation a query used.
    pub fn inputs_sorted_by_name(&self, pool: &ExprPool) -> Vec<(SymbolId, Vec<Lit>)> {
        let mut v = self.inputs_sorted();
        v.sort_by(|(a, _), (b, _)| pool.symbol_name(*a).cmp(pool.symbol_name(*b)));
        v
    }

    /// The CNF literals of one blasted input, if it appeared in any
    /// translated expression.
    pub fn input_bits(&self, sym: SymbolId) -> Option<&[Lit]> {
        self.inputs.get(&sym).map(|&slot| self.slice(slot))
    }

    /// Extracts a [`Model`] for all blasted inputs from a SAT assignment.
    ///
    /// # Panics
    ///
    /// Panics if `outcome` is not [`SolveOutcome::Sat`].
    pub fn extract_model(&self, outcome: &SolveOutcome) -> Model {
        let syms: Vec<SymbolId> = self.inputs.keys().copied().collect();
        self.extract_model_for(outcome, &syms)
    }

    /// Extracts a [`Model`] restricted to the given symbols (symbols never
    /// blasted are skipped). Used by incremental contexts, whose CNF can
    /// contain circuitry for constraints beyond the current query.
    ///
    /// # Panics
    ///
    /// Panics if `outcome` is not [`SolveOutcome::Sat`].
    pub fn extract_model_for(&self, outcome: &SolveOutcome, syms: &[SymbolId]) -> Model {
        let SolveOutcome::Sat(assignment) = outcome else {
            panic!("extract_model on non-sat outcome");
        };
        let mut model = Model::new();
        for &sym in syms {
            let Some(&slot) = self.inputs.get(&sym) else { continue };
            let bits = self.slice(slot);
            let mut v: u64 = 0;
            for (i, lit) in bits.iter().enumerate() {
                let bit = assignment[lit.var().index()] != lit.is_negative();
                if bit {
                    v |= 1 << i;
                }
            }
            model.set(sym, v);
        }
        model
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithmeticRight,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatSolver;

    /// Asserts `e` and solves; on sat, cross-checks the model against the
    /// expression evaluator.
    fn solve_and_check(pool: &ExprPool, e: ExprId) -> Option<Model> {
        let mut bb = BitBlaster::new();
        bb.assert_true(pool, e);
        let outcome = SatSolver::from_cnf(bb.cnf()).solve();
        match outcome {
            SolveOutcome::Sat(_) => {
                let model = bb.extract_model(&outcome);
                assert!(
                    model.eval_bool(pool, e),
                    "model {model:?} does not satisfy {}",
                    pool.display(e)
                );
                Some(model)
            }
            SolveOutcome::Unsat => None,
            SolveOutcome::Unknown => panic!("unexpected Unknown"),
        }
    }

    #[test]
    fn simple_equation_has_solution() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let three = p.bv_const(3, 8);
        let e = p.mul(x, three);
        let target = p.bv_const(33, 8);
        let c = p.eq(e, target);
        let m = solve_and_check(&p, c).expect("3x = 33 solvable mod 256");
        let xv = m.value_by_name(&p, "x").unwrap();
        assert_eq!(xv.wrapping_mul(3) & 0xff, 33);
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let five = p.bv_const(5, 8);
        let c1 = p.ult(x, five);
        let c2 = p.ugt(x, five);
        let both = p.and(c1, c2);
        assert!(solve_and_check(&p, both).is_none());
    }

    #[test]
    fn overflow_is_modeled() {
        // x + 1 == 0 has the solution x = 0xff at 8 bits.
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let one = p.bv_const(1, 8);
        let zero = p.bv_const(0, 8);
        let inc = p.add(x, one);
        let c = p.eq(inc, zero);
        let m = solve_and_check(&p, c).unwrap();
        assert_eq!(m.value_by_name(&p, "x").unwrap(), 0xff);
    }

    #[test]
    fn division_circuit_agrees_with_eval() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let q = p.bv(BvBinOp::UDiv, x, y);
        let seven = p.bv_const(7, 8);
        let c1 = p.eq(q, seven);
        let three = p.bv_const(3, 8);
        let r = p.bv(BvBinOp::URem, x, y);
        let c2 = p.eq(r, three);
        let five = p.bv_const(5, 8);
        let c3 = p.eq(y, five);
        let all = p.and_many(&[c1, c2, c3]);
        let m = solve_and_check(&p, all).expect("x = 7*5+3 = 38");
        assert_eq!(m.value_by_name(&p, "x").unwrap(), 38);
    }

    #[test]
    fn division_by_zero_semantics() {
        // udiv(x, 0) == 0xff must be valid for any x: its negation is unsat.
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let zero = p.bv_const(0, 8);
        let q = p.bv(BvBinOp::UDiv, x, zero);
        let ff = p.bv_const(0xff, 8);
        let eq = p.eq(q, ff);
        let neg = p.not(eq);
        assert!(solve_and_check(&p, neg).is_none(), "udiv(x,0) must equal 0xff");
    }

    #[test]
    fn signed_comparison() {
        // x < 0 signed, x > 100 unsigned: satisfiable (e.g. 0xff = -1).
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let zero = p.bv_const(0, 8);
        let hundred = p.bv_const(100, 8);
        let c1 = p.slt(x, zero);
        let c2 = p.ugt(x, hundred);
        let both = p.and(c1, c2);
        let m = solve_and_check(&p, both).unwrap();
        let xv = m.value_by_name(&p, "x").unwrap();
        assert!(xv >= 0x80, "x must be negative as a signed byte, got {xv:#x}");
    }

    #[test]
    fn symbolic_shift() {
        // (1 << s) == 16 forces s == 4.
        let mut p = ExprPool::new(8);
        let s = p.input("s", 8);
        let one = p.bv_const(1, 8);
        let sixteen = p.bv_const(16, 8);
        let shifted = p.bv(BvBinOp::Shl, one, s);
        let c = p.eq(shifted, sixteen);
        let m = solve_and_check(&p, c).unwrap();
        assert_eq!(m.value_by_name(&p, "s").unwrap(), 4);
    }

    #[test]
    fn ite_circuit() {
        // ite(x < 10, x + 1, 0) == 5  →  x == 4.
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let ten = p.bv_const(10, 8);
        let one = p.bv_const(1, 8);
        let zero = p.bv_const(0, 8);
        let five = p.bv_const(5, 8);
        let c = p.ult(x, ten);
        let inc = p.add(x, one);
        let ite = p.ite(c, inc, zero);
        let eq = p.eq(ite, five);
        let m = solve_and_check(&p, eq).unwrap();
        assert_eq!(m.value_by_name(&p, "x").unwrap(), 4);
    }

    #[test]
    fn exhaustive_4bit_operator_equivalence() {
        // For every op and all 4-bit operand pairs, the circuit must agree
        // with the evaluator: assert op(a_const, b_const) != eval-result is unsat.
        let ops = [
            BvBinOp::Add,
            BvBinOp::Sub,
            BvBinOp::Mul,
            BvBinOp::UDiv,
            BvBinOp::URem,
            BvBinOp::SDiv,
            BvBinOp::SRem,
            BvBinOp::Shl,
            BvBinOp::LShr,
            BvBinOp::AShr,
        ];
        for op in ops {
            let mut p = ExprPool::new(4);
            let x = p.input("x", 4);
            let y = p.input("y", 4);
            let applied = p.bv(op, x, y);
            // Pin (x, y) to concrete pairs and check the op circuit agrees
            // with the constant-folded reference in both polarities.
            for (a, b) in [(0u64, 0u64), (7, 3), (15, 1), (8, 15), (5, 0), (12, 13), (1, 15)] {
                let ac = p.bv_const(a, 4);
                let bc = p.bv_const(b, 4);
                let cx = p.eq(x, ac);
                let cy = p.eq(y, bc);
                let folded = p.bv(op, ac, bc);
                let want = p.as_bv_const(folded).unwrap();
                let matches = p.eq(applied, folded);
                let agree = p.and_many(&[cx, cy, matches]);
                assert!(solve_and_check(&p, agree).is_some(), "{op}({a},{b}) != {want} in circuit");
                let differs = p.not(matches);
                let disagree = p.and_many(&[cx, cy, differs]);
                assert!(
                    solve_and_check(&p, disagree).is_none(),
                    "{op}({a},{b}) circuit admits a value other than {want}"
                );
            }
        }
    }
}
