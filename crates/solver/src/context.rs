//! Persistent incremental solving contexts.
//!
//! A [`SolverContext`] keeps the bit-blasted CNF of a path-condition
//! *prefix* alive inside a single incremental [`SatSolver`]. Branch
//! feasibility queries that extend the prefix by one conjunct are decided
//! *under assumptions*: the new conjunct is blasted to a literal (reusing
//! all the circuitry the prefix already built) and assumed rather than
//! asserted, so both polarities of a branch — and every later query on
//! the same path — share one CNF, the learnt clauses, the variable
//! activities and the saved phases. This replaces the re-blast-per-query
//! scheme the paper inherited from KLEE + STP, and is what makes the
//! merged (ite-heavy) queries of §2–3 amortizable.
//!
//! Contexts are append-only: the prefix can grow
//! ([`SolverContext::assert_constraint`]) but never shrink — and it can
//! **fork** ([`SolverContext::fork`]): a branch divergence snapshots the
//! warm context (clause database, learnt clauses, variable activities,
//! saved phases, blasting caches) so *both* children extend the shared
//! prefix instead of one inheriting it and the other re-blasting it from
//! scratch. The [`Solver`](crate::Solver) arranges contexts in a prefix
//! tree and decides per divergence whether to fork or to move the
//! context down the path (see `solve.rs`).

use crate::bitblast::BitBlaster;
use crate::cnf::Lit;
use crate::model::Model;
use crate::sat::{SatSolver, SatStats, SolveOutcome};
use crate::solve::elem_hash;
use symmerge_expr::{ExprId, ExprPool, SymbolId};

/// An incremental solving context for one path-condition prefix.
#[derive(Debug)]
pub struct SolverContext {
    blaster: BitBlaster,
    sat: SatSolver,
    prefix: Vec<ExprId>,
    /// The *normalized* view of `prefix` — sorted, deduplicated, with
    /// constant-`true` conjuncts dropped — maintained incrementally as
    /// the prefix grows. A query on this context's exact prefix needs
    /// the normalized set as its cache key; carrying it here turns the
    /// per-query re-sort/re-hash of the full set into a binary insert
    /// per *prefix extension* plus an O(1) hash update (the set hash is
    /// a commutative per-element sum, see [`crate::solve::elem_hash`]).
    pub(crate) norm_set: Vec<ExprId>,
    /// Commutative hash of `norm_set` (sum of per-element hashes).
    pub(crate) norm_hash: u64,
    /// Whether a constant-`false` conjunct was ever asserted: the query
    /// normalizer short-circuits such sets to unsat without counting a
    /// query, and the carried-set fast path must mirror that.
    pub(crate) norm_false: bool,
    /// LRU stamp managed by the owning [`Solver`](crate::Solver).
    pub(crate) last_used: u64,
    /// Extras answered sat (or unknown) *at the current prefix* since it
    /// last changed — the solver's evidence that sibling states exist
    /// whose path conditions extend this prefix differently. At a branch
    /// the engine checks both polarities as assumptions before forking,
    /// so a context about to be extended by `c` that also answered some
    /// `e ≠ c` knows another child will come back for this prefix: that
    /// is the fork-vs-move signal (see `Solver::context_node_for`).
    pub(crate) sat_extras: Vec<ExprId>,
    /// Cumulative fork-time compaction work (see
    /// [`SolverContext::clauses_compacted`]).
    compacted: u64,
}

impl Default for SolverContext {
    fn default() -> Self {
        Self::new()
    }
}

impl SolverContext {
    /// Creates a context with an empty prefix, with SAT-level ccmin and
    /// blaster ite-factoring both on; see [`SolverContext::with_options`]
    /// for explicit control.
    pub fn new() -> Self {
        SolverContext::with_options(true, true)
    }

    /// Creates a context with conflict-clause minimization and ite-chain
    /// factoring explicitly on or off, independent of the environment.
    /// Both knobs are pure query-shrinking levers: verdicts and canonical
    /// models are identical either way.
    pub fn with_options(sat_ccmin: bool, ite_factor: bool) -> Self {
        let mut blaster = BitBlaster::with_ite_factor(ite_factor);
        let mut sat = SatSolver::from_cnf(blaster.cnf());
        sat.set_ccmin(sat_ccmin);
        // The solver holds the constant's unit clause now.
        blaster.drain_clauses(|_| {});
        SolverContext {
            blaster,
            sat,
            prefix: Vec::new(),
            norm_set: Vec::new(),
            norm_hash: 0,
            norm_false: false,
            last_used: 0,
            sat_extras: Vec::new(),
            compacted: 0,
        }
    }

    /// Snapshots the context: the fork shares nothing with the original
    /// but starts from the identical bit-blasted prefix, clause database
    /// (learnt clauses included — sound, because the prefix is
    /// append-only and learnt clauses are implied by the clause database
    /// alone), variable activities and saved phases. Extending the fork
    /// costs only the *new* conjuncts; the shared prefix is never
    /// re-blasted.
    ///
    /// The clause database exists once, inside the SAT solver, as a few
    /// flat buffers (the blaster's CNF holds no clauses between queries),
    /// and the blaster's memo is one literal arena plus two tables of
    /// slots, so a fork is a handful of `memcpy`s — no allocation per
    /// clause or per memo entry, and dropping a context frees as few.
    /// Before snapshotting, the clause database is compacted
    /// ([`SatSolver::compact_learnts`]: a level-0 satisfied-clause sweep
    /// over the *whole* DB — original Tseitin clauses included — plus
    /// self-subsumption over the learnt store, then arena garbage
    /// collection), so parent and fork both carry the smaller DB — the
    /// clause-weighted residency a warm fork charges drops with it. The
    /// work is observable through [`SolverContext::clauses_compacted`].
    pub fn fork(&mut self) -> SolverContext {
        self.compacted += self.sat.compact_learnts();
        SolverContext {
            blaster: self.blaster.clone(),
            sat: self.sat.fork(),
            prefix: self.prefix.clone(),
            norm_set: self.norm_set.clone(),
            norm_hash: self.norm_hash,
            norm_false: self.norm_false,
            last_used: 0,
            sat_extras: Vec::new(),
            compacted: 0,
        }
    }

    /// Cumulative clauses removed or strengthened by fork-time
    /// compaction on *this* context (forks start at zero).
    pub fn clauses_compacted(&self) -> u64 {
        self.compacted
    }

    /// The constraints permanently asserted so far, in assertion order.
    pub fn prefix(&self) -> &[ExprId] {
        &self.prefix
    }

    /// Whether the asserted prefix is already known unsatisfiable (every
    /// further query on this context is unsat).
    pub fn is_dead(&self) -> bool {
        !self.sat.is_consistent()
    }

    /// Cumulative SAT counters of the underlying solver (callers diff
    /// snapshots around a query to attribute work).
    pub fn sat_stats(&self) -> SatStats {
        self.sat.stats()
    }

    /// Cumulative gate-memo hits of this context's blaster (callers diff
    /// snapshots around a query, like [`SolverContext::sat_stats`]).
    pub fn gates_reused(&self) -> u64 {
        self.blaster.gates_reused()
    }

    /// Compacts the clause database in place (level-0 satisfied-clause
    /// sweep + learnt-store self-subsumption; see
    /// [`SatSolver::compact_learnts`]), returning the number of clauses
    /// removed or strengthened. [`fork`] does this automatically; the
    /// explicit entry point exists for tests ablating compaction against
    /// a pristine clone.
    ///
    /// [`fork`]: SolverContext::fork
    pub fn compact_learnts(&mut self) -> u64 {
        let n = self.sat.compact_learnts();
        self.compacted += n;
        n
    }

    /// Live clauses held by this context's SAT solver (original CNF +
    /// learnt, minus reductions) — the size clause-weighted eviction
    /// charges residency by. A context's clause count only grows with
    /// its prefix (and its learnt set), so it doubles as a proxy for how
    /// expensive the context would be to rebuild.
    pub fn clause_count(&self) -> usize {
        self.sat.num_clauses()
    }

    /// Permanently asserts `c`, extending the prefix. Constant-`true`
    /// conjuncts are recorded in the prefix but add no clauses. Extending
    /// the prefix invalidates the sibling evidence (`sat_extras`
    /// describes the *previous* prefix), so it is cleared.
    pub fn assert_constraint(&mut self, pool: &ExprPool, c: ExprId) {
        let lit = self.blaster.blast_bool(pool, c);
        self.sync();
        self.sat.add_clause(&[lit]);
        self.prefix.push(c);
        // Keep the carried normalized view in step: O(log n) search plus
        // an ordered insert per extension, instead of a full re-sort of
        // the set on every later query.
        if pool.is_false(c) {
            self.norm_false = true;
        } else if !pool.is_true(c) {
            if let Err(i) = self.norm_set.binary_search(&c) {
                self.norm_set.insert(i, c);
                self.norm_hash = self.norm_hash.wrapping_add(elem_hash(c));
            }
        }
        self.sat_extras.clear();
    }

    /// Decides `prefix ∧ extras`, with `extras` held as assumptions only:
    /// the prefix CNF, learnt clauses and heuristics survive for the next
    /// query. `budget` limits the conflicts of this call.
    pub fn solve_assuming(
        &mut self,
        pool: &ExprPool,
        extras: &[ExprId],
        budget: Option<u64>,
    ) -> SolveOutcome {
        let outcome = self.solve_assuming_probe(pool, extras, budget);
        // Record single-extra queries that were not refuted: each such
        // extra is a path the engine may fork a child state onto, and
        // that child's next query will extend this prefix by exactly this
        // conjunct. (Unknown counts — `may_be_sat_assuming` explores it.)
        if let [e] = extras {
            if !matches!(outcome, SolveOutcome::Unsat) && !self.sat_extras.contains(e) {
                self.sat_extras.push(*e);
            }
        }
        outcome
    }

    /// [`SolverContext::solve_assuming`] without the sibling-evidence
    /// recording: for one-off probes whose extra will never become a
    /// path-condition extension (an assertion's failing side, a test
    /// reproducer query). Recording those would claim a sibling that
    /// never returns and trigger a spurious fork — a full context clone
    /// plus an abandoned resident slot — at the next real extension.
    pub fn solve_assuming_probe(
        &mut self,
        pool: &ExprPool,
        extras: &[ExprId],
        budget: Option<u64>,
    ) -> SolveOutcome {
        let lits: Vec<Lit> = extras.iter().map(|&e| self.blaster.blast_bool(pool, e)).collect();
        self.sync();
        self.sat.set_conflict_budget(budget);
        self.sat.solve_under_assumptions(&lits)
    }

    /// Moves newly blasted variables and clauses into the SAT solver,
    /// leaving the blaster's CNF empty of clauses.
    fn sync(&mut self) {
        self.sat.ensure_vars(self.blaster.cnf().num_vars());
        let sat = &mut self.sat;
        self.blaster.drain_clauses(|clause| sat.add_clause(clause));
    }

    /// Extracts a model restricted to `syms` from a sat outcome.
    pub fn extract_model_for(&self, outcome: &SolveOutcome, syms: &[SymbolId]) -> Model {
        self.blaster.extract_model_for(outcome, syms)
    }

    /// The blasted literal vectors of `syms` (symbols the CNF never saw
    /// are skipped), sorted by symbol *name* — the pool-independent order
    /// canonical minimization requires (see
    /// [`BitBlaster::inputs_sorted_by_name`]).
    pub(crate) fn inputs_for(
        &self,
        pool: &ExprPool,
        syms: &[SymbolId],
    ) -> Vec<(SymbolId, Vec<Lit>)> {
        let mut v: Vec<(SymbolId, Vec<Lit>)> = syms
            .iter()
            .filter_map(|&s| self.blaster.input_bits(s).map(|bits| (s, bits.to_vec())))
            .collect();
        v.sort_unstable_by(|(a, _), (b, _)| pool.symbol_name(*a).cmp(pool.symbol_name(*b)));
        v
    }

    /// Canonically minimizes a sat outcome: see [`minimize_model`].
    /// `budget` bounds the conflicts of the whole minimization pass.
    pub(crate) fn minimize(
        &mut self,
        pool: &ExprPool,
        extras: &[ExprId],
        syms: &[SymbolId],
        outcome: &SolveOutcome,
        budget: Option<u64>,
    ) -> Model {
        let base: Vec<Lit> = extras.iter().map(|&e| self.blaster.blast_bool(pool, e)).collect();
        let inputs = self.inputs_for(pool, syms);
        minimize_model(&mut self.sat, &inputs, &base, outcome, budget)
    }
}

/// Computes the *canonical minimal model* of the formula currently loaded
/// in `sat` (conjoined with the `base` assumption literals), projected on
/// `inputs`: the unique model that is lexicographically smallest in the
/// order the caller passed `inputs` — by convention sorted by symbol
/// *name* (see [`BitBlaster`](crate::bitblast::BitBlaster)'s
/// `inputs_sorted_by_name`), so the minimum does not depend on the order
/// any particular pool interned its symbols — with each symbol's value
/// minimized most-significant-bit first.
///
/// The minimization runs bit-by-bit under assumptions on the *same*
/// incremental solver, so each probe reuses all learnt clauses; bits that
/// are already 0 in the best model found so far are fixed without a
/// solver call. Because the minimum is unique, every solving path
/// (incremental context, monolithic re-blast, independence slices) lands
/// on the same model — which is what makes whole-behaviour sets
/// comparable across runs and lets the differential harness assert exact
/// generated-test equality.
///
/// `budget` bounds the conflicts of the *entire* minimization pass (it
/// is the caller's leftover query budget, shared across all probes, not
/// a per-probe allowance). If a probe returns [`SolveOutcome::Unknown`]
/// or the budget runs dry, the remaining bits are filled from the best
/// model found so far (sound but possibly non-minimal).
///
/// # Panics
///
/// Panics if `outcome` is not [`SolveOutcome::Sat`].
pub(crate) fn minimize_model(
    sat: &mut SatSolver,
    inputs: &[(SymbolId, Vec<Lit>)],
    base: &[Lit],
    outcome: &SolveOutcome,
    budget: Option<u64>,
) -> Model {
    let SolveOutcome::Sat(assignment) = outcome else {
        panic!("minimize_model on non-sat outcome");
    };
    let lit_is_true = |a: &[bool], l: Lit| a[l.var().index()] != l.is_negative();
    let conflicts_at_entry = sat.stats().conflicts;
    let mut cur: Vec<bool> = assignment.clone();
    let mut assumptions: Vec<Lit> = base.to_vec();
    let mut aborted = false;
    let mut model = Model::new();
    for (sym, bits) in inputs {
        let mut value = 0u64;
        for i in (0..bits.len()).rev() {
            let l = bits[i];
            let bit_now = lit_is_true(&cur, l);
            if aborted {
                if bit_now {
                    value |= 1 << i;
                }
                continue;
            }
            if !bit_now {
                // The current best model already has this bit at 0; 0 is
                // trivially achievable, fix it without a solver call.
                assumptions.push(!l);
                continue;
            }
            // Re-arm the shared budget with whatever the pass has left.
            let remaining =
                budget.map(|b| b.saturating_sub(sat.stats().conflicts - conflicts_at_entry));
            if remaining == Some(0) {
                aborted = true;
                value |= 1 << i;
                continue;
            }
            sat.set_conflict_budget(remaining);
            assumptions.push(!l);
            match sat.solve_under_assumptions(&assumptions) {
                SolveOutcome::Sat(m) => {
                    cur = m;
                }
                SolveOutcome::Unsat => {
                    debug_assert!(sat.is_consistent(), "prefix cannot be unsat while minimizing");
                    assumptions.pop();
                    assumptions.push(l);
                    value |= 1 << i;
                }
                SolveOutcome::Unknown => {
                    assumptions.pop();
                    aborted = true;
                    value |= 1 << i;
                }
            }
        }
        model.set(*sym, value);
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_reuses_prefix_across_polarities() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let ten = p.bv_const(10, 8);
        let c = p.ult(x, ten);
        let not_c = p.not(c);
        let mut ctx = SolverContext::new();
        // No prefix: both polarities of the branch are feasible.
        assert!(matches!(ctx.solve_assuming(&p, &[c], None), SolveOutcome::Sat(_)));
        assert!(matches!(ctx.solve_assuming(&p, &[not_c], None), SolveOutcome::Sat(_)));
        // Assert x < 10, then the negation becomes unsat — incrementally.
        ctx.assert_constraint(&p, c);
        assert!(matches!(ctx.solve_assuming(&p, &[not_c], None), SolveOutcome::Unsat));
        assert!(!ctx.is_dead(), "assumption unsat must not kill the context");
        assert!(matches!(ctx.solve_assuming(&p, &[c], None), SolveOutcome::Sat(_)));
    }

    #[test]
    fn contradictory_prefix_marks_context_dead() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let five = p.bv_const(5, 8);
        let c1 = p.ult(x, five);
        let c2 = p.ugt(x, five);
        let mut ctx = SolverContext::new();
        ctx.assert_constraint(&p, c1);
        ctx.assert_constraint(&p, c2);
        assert!(matches!(ctx.solve_assuming(&p, &[], None), SolveOutcome::Unsat));
        assert!(ctx.is_dead());
        // Dead contexts answer everything unsat without panicking.
        let t = p.true_();
        assert!(matches!(ctx.solve_assuming(&p, &[t], None), SolveOutcome::Unsat));
    }

    #[test]
    fn minimize_finds_the_least_model() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let hundred = p.bv_const(100, 8);
        let c1 = p.ugt(x, hundred); // minimal x = 101
        let c2 = p.ult(y, hundred); // minimal y = 0
        let mut ctx = SolverContext::new();
        ctx.assert_constraint(&p, c1);
        ctx.assert_constraint(&p, c2);
        let outcome = ctx.solve_assuming(&p, &[], None);
        let syms = p.collect_inputs_many(&[c1, c2]);
        let m = ctx.minimize(&p, &[], &syms, &outcome, None);
        assert_eq!(m.value_by_name(&p, "x"), Some(101));
        assert_eq!(m.value_by_name(&p, "y"), Some(0));
    }

    #[test]
    fn fork_diverges_independently_from_the_shared_prefix() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let hundred = p.bv_const(100, 8);
        let ten = p.bv_const(10, 8);
        let shared = p.ult(x, hundred);
        let low = p.ult(x, ten);
        let high = p.uge(x, ten);
        let mut parent = SolverContext::new();
        parent.assert_constraint(&p, shared);
        // Fork, then send the two copies down contradictory branches.
        let mut child = parent.fork();
        assert_eq!(child.prefix(), parent.prefix());
        child.assert_constraint(&p, low);
        parent.assert_constraint(&p, high);
        assert!(matches!(child.solve_assuming(&p, &[high], None), SolveOutcome::Unsat));
        assert!(matches!(child.solve_assuming(&p, &[low], None), SolveOutcome::Sat(_)));
        assert!(matches!(parent.solve_assuming(&p, &[low], None), SolveOutcome::Unsat));
        assert!(matches!(parent.solve_assuming(&p, &[high], None), SolveOutcome::Sat(_)));
        assert!(!child.is_dead() && !parent.is_dead());
    }

    #[test]
    fn fork_blasts_a_new_conjunct_exactly_as_its_parent() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let y = p.input("y", 8);
        let sum = p.add(x, y);
        let hundred = p.bv_const(100, 8);
        let shared = p.ult(sum, hundred);
        let mut parent = SolverContext::new();
        parent.assert_constraint(&p, shared);
        let _ = parent.solve_assuming(&p, &[shared], None);
        let mut child = parent.fork();
        // The new conjunct reuses the prefix's circuitry (`sum`, `x`) and
        // adds its own.
        let prod = p.mul(sum, x);
        let seven = p.bv_const(7, 8);
        let next = p.eq(prod, seven);
        let mut streams = Vec::new();
        for ctx in [&mut parent, &mut child] {
            let lit = ctx.blaster.blast_bool(&p, next);
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            ctx.blaster.drain_clauses(|c| clauses.push(c.to_vec()));
            let (vars, reused) = (ctx.blaster.cnf().num_vars(), ctx.blaster.gates_reused());
            streams.push((lit, vars, reused, clauses, ctx.blaster.inputs_sorted()));
        }
        assert!(!streams[0].3.is_empty(), "the conjunct must emit clauses");
        assert_eq!(streams[0], streams[1]);
    }

    #[test]
    fn fork_of_dead_context_stays_dead() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let five = p.bv_const(5, 8);
        let c1 = p.ult(x, five);
        let c2 = p.ugt(x, five);
        let mut ctx = SolverContext::new();
        ctx.assert_constraint(&p, c1);
        ctx.assert_constraint(&p, c2);
        assert!(matches!(ctx.solve_assuming(&p, &[], None), SolveOutcome::Unsat));
        let mut forked = ctx.fork();
        assert!(forked.is_dead());
        assert!(matches!(forked.solve_assuming(&p, &[c1], None), SolveOutcome::Unsat));
    }

    #[test]
    fn sat_extras_record_sibling_evidence_until_the_prefix_grows() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let ten = p.bv_const(10, 8);
        let c = p.ult(x, ten);
        let not_c = p.not(c);
        let mut ctx = SolverContext::new();
        let hundred = p.bv_const(100, 8);
        let pre = p.ult(x, hundred);
        ctx.assert_constraint(&p, pre);
        // Both polarities sat: evidence for two children.
        let _ = ctx.solve_assuming(&p, &[c], None);
        let _ = ctx.solve_assuming(&p, &[not_c], None);
        let _ = ctx.solve_assuming(&p, &[c], None); // repeats dedup
        assert_eq!(ctx.sat_extras, vec![c, not_c]);
        // An unsat extra is not a child.
        let contra = p.uge(x, hundred);
        assert!(matches!(ctx.solve_assuming(&p, &[contra], None), SolveOutcome::Unsat));
        assert_eq!(ctx.sat_extras, vec![c, not_c]);
        // Growing the prefix invalidates the evidence; forks start clean.
        assert!(ctx.fork().sat_extras.is_empty());
        ctx.assert_constraint(&p, c);
        assert!(ctx.sat_extras.is_empty());
    }

    #[test]
    fn minimize_respects_assumed_extras() {
        let mut p = ExprPool::new(8);
        let x = p.input("x", 8);
        let three = p.bv_const(3, 8);
        let extra = p.ugt(x, three);
        let mut ctx = SolverContext::new();
        let outcome = ctx.solve_assuming(&p, &[extra], None);
        let syms = p.collect_inputs(extra);
        let m = ctx.minimize(&p, &[extra], &syms, &outcome, None);
        assert_eq!(m.value_by_name(&p, "x"), Some(4), "least x with x > 3");
    }
}
