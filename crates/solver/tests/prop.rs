//! End-to-end property tests: the bit-blast + CDCL pipeline must agree with
//! the expression evaluator on random expressions and assignments.

use proptest::prelude::*;
use symmerge_expr::{BvBinOp, CmpOp, ExprId, ExprPool};
use symmerge_solver::{Cnf, Lit, SatResult, SatSolver, SolveOutcome, Solver, SolverConfig};

const WIDTH: u32 = 8;
const NUM_INPUTS: usize = 3;

/// A pool-independent recipe for a bitvector expression.
#[derive(Debug, Clone)]
enum Recipe {
    Const(u64),
    Input(u8),
    Bv(BvBinOp, Box<Recipe>, Box<Recipe>),
    Ite(CmpOp, Box<Recipe>, Box<Recipe>, Box<Recipe>, Box<Recipe>),
}

fn bv_op() -> impl Strategy<Value = BvBinOp> {
    prop_oneof![
        Just(BvBinOp::Add),
        Just(BvBinOp::Sub),
        Just(BvBinOp::Mul),
        Just(BvBinOp::UDiv),
        Just(BvBinOp::URem),
        Just(BvBinOp::SDiv),
        Just(BvBinOp::SRem),
        Just(BvBinOp::And),
        Just(BvBinOp::Or),
        Just(BvBinOp::Xor),
        Just(BvBinOp::Shl),
        Just(BvBinOp::LShr),
        Just(BvBinOp::AShr),
    ]
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ult),
        Just(CmpOp::Ule),
        Just(CmpOp::Slt),
        Just(CmpOp::Sle),
    ]
}

fn recipe() -> impl Strategy<Value = Recipe> {
    let leaf = prop_oneof![
        (0u64..256).prop_map(Recipe::Const),
        (0u8..NUM_INPUTS as u8).prop_map(Recipe::Input),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (bv_op(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Recipe::Bv(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (cmp_op(), inner.clone(), inner.clone(), inner.clone(), inner).prop_map(
                |(op, a, b, t, e)| Recipe::Ite(
                    op,
                    Box::new(a),
                    Box::new(b),
                    Box::new(t),
                    Box::new(e)
                )
            ),
        ]
    })
}

fn build(p: &mut ExprPool, r: &Recipe) -> ExprId {
    match r {
        Recipe::Const(v) => p.bv_const(*v, WIDTH),
        Recipe::Input(i) => p.input(&format!("in{i}"), WIDTH),
        Recipe::Bv(op, a, b) => {
            let (a, b) = (build(p, a), build(p, b));
            p.bv(*op, a, b)
        }
        Recipe::Ite(op, a, b, t, e) => {
            let (a, b) = (build(p, a), build(p, b));
            let c = p.cmp(*op, a, b);
            let (t, e) = (build(p, t), build(p, e));
            p.ite(c, t, e)
        }
    }
}

fn no_cache_config() -> SolverConfig {
    SolverConfig {
        use_cache: false,
        use_cex_cache: false,
        use_incremental: false,
        ..Default::default()
    }
}

proptest! {
    // Cases and seed are pinned so CI runs are exactly reproducible.
    #![proptest_config(ProptestConfig::with_cases(96).seed(0x5EED_501E))]

    /// Pinning the inputs to a random environment, the circuit value of a
    /// random expression must equal the evaluator's value (both polarities).
    #[test]
    fn circuit_agrees_with_evaluator(
        r in recipe(),
        env in proptest::collection::vec(0u64..256, NUM_INPUTS),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let e = build(&mut p, &r);
        // Pin inputs.
        let mut pins = Vec::new();
        for (i, &v) in env.iter().enumerate() {
            let x = p.input(&format!("in{i}"), WIDTH);
            let k = p.bv_const(v, WIDTH);
            pins.push(p.eq(x, k));
        }
        let lookup = |sym: symmerge_expr::SymbolId| {
            let idx: usize = p.symbol_name(sym).strip_prefix("in").unwrap().parse().unwrap();
            env[idx]
        };
        let want = p.eval(e, &lookup).as_bv();
        let wantc = p.bv_const(want, WIDTH);
        let agree = p.eq(e, wantc);
        let mut cs = pins.clone();
        cs.push(agree);
        let mut solver = Solver::new(no_cache_config());
        prop_assert!(solver.check(&p, &cs).is_sat(), "circuit disagrees with evaluator");
        let differ = p.not(agree);
        let mut cs = pins;
        cs.push(differ);
        prop_assert!(solver.check(&p, &cs).is_unsat(), "circuit is under-constrained");
    }

    /// Any model returned for a satisfiable random constraint actually
    /// satisfies it under the evaluator.
    #[test]
    fn models_are_genuine(
        r1 in recipe(),
        r2 in recipe(),
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let c = p.cmp(op, a, b);
        let mut solver = Solver::new(no_cache_config());
        match solver.check(&p, &[c]) {
            SatResult::Sat(m) => prop_assert!(m.eval_bool(&p, c)),
            SatResult::Unsat => {
                // Cross-check with brute force over the (≤ 2^24) assignments
                // only when few inputs are involved; otherwise trust CDCL and
                // simply re-verify determinism.
                let syms = p.collect_inputs(c);
                if syms.len() <= 2 {
                    let n = syms.len() as u32;
                    let mut found = false;
                    'outer: for bits in 0u64..(1u64 << (8 * n)) {
                        let env = |sym: symmerge_expr::SymbolId| {
                            let pos = syms.iter().position(|&s| s == sym).unwrap();
                            bits >> (8 * pos) & 0xff
                        };
                        if p.eval_bool(c, &env) {
                            found = true;
                            break 'outer;
                        }
                    }
                    prop_assert!(!found, "solver said unsat but a witness exists");
                }
            }
            SatResult::Unknown => unreachable!("no budget configured"),
        }
    }

    /// Slicing on/off must agree on satisfiability.
    #[test]
    fn slicing_preserves_results(
        r1 in recipe(),
        r2 in recipe(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let k = p.bv_const(3, WIDTH);
        let c1 = p.ult(a, k);
        let c2 = p.ugt(b, k);
        let mut with = Solver::new(no_cache_config());
        let mut without = Solver::new(SolverConfig {
            use_independence: false,
            ..no_cache_config()
        });
        let ra = with.check(&p, &[c1, c2]);
        let rb = without.check(&p, &[c1, c2]);
        prop_assert_eq!(ra.is_sat(), rb.is_sat());
        prop_assert_eq!(ra.is_unsat(), rb.is_unsat());
    }

    /// The incremental assumption path (persistent context, extra solved
    /// under assumptions) must agree with the monolithic re-blast path on
    /// random prefix/extra splits, and its models must be genuine.
    #[test]
    fn incremental_agrees_with_reblast(
        r1 in recipe(),
        r2 in recipe(),
        r3 in recipe(),
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let c = build(&mut p, &r3);
        let k = p.bv_const(3, WIDTH);
        let c1 = p.ult(a, k);
        let c2 = p.ugt(b, k);
        let extra = p.cmp(op, c, k);
        let mut inc = Solver::new(SolverConfig {
            use_incremental: true,
            ..no_cache_config()
        });
        let mut mono = Solver::new(SolverConfig {
            use_independence: false,
            ..no_cache_config()
        });
        // Two queries on the shared prefix exercise context reuse.
        let ri1 = inc.check_assuming(&p, &[c1, c2], extra);
        let not_extra = p.not(extra);
        let ri2 = inc.check_assuming(&p, &[c1, c2], not_extra);
        let rm1 = mono.check(&p, &[c1, c2, extra]);
        let rm2 = mono.check(&p, &[c1, c2, not_extra]);
        prop_assert_eq!(ri1.is_sat(), rm1.is_sat(), "positive polarity diverged");
        prop_assert_eq!(ri2.is_sat(), rm2.is_sat(), "negative polarity diverged");
        if let SatResult::Sat(m) = &ri1 {
            prop_assert!(m.satisfies(&p, &[c1, c2, extra]), "bogus incremental model");
        }
        if let SatResult::Sat(m) = &ri2 {
            prop_assert!(m.satisfies(&p, &[c1, c2, not_extra]), "bogus incremental model");
        }
    }

    /// In canonical-model mode, every solving path — independence slices,
    /// monolithic re-blast, incremental context — must return *exactly*
    /// the same (minimal) model, which is what lets the differential
    /// harness compare generated tests byte-for-byte.
    #[test]
    fn canonical_models_are_path_independent(
        r1 in recipe(),
        r2 in recipe(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let k = p.bv_const(3, WIDTH);
        let c1 = p.ult(a, k);
        let c2 = p.ugt(b, k);
        let canonical = |cfg: SolverConfig| SolverConfig { canonical_models: true, ..cfg };
        let mut sliced = Solver::new(canonical(no_cache_config()));
        let mut mono = Solver::new(canonical(SolverConfig {
            use_independence: false,
            ..no_cache_config()
        }));
        let mut inc = Solver::new(canonical(SolverConfig {
            use_incremental: true,
            ..no_cache_config()
        }));
        let rs = sliced.check(&p, &[c1, c2]);
        let rm = mono.check(&p, &[c1, c2]);
        let ri = inc.check_assuming(&p, &[c1], c2);
        match (&rs, &rm, &ri) {
            (SatResult::Sat(ms), SatResult::Sat(mm), SatResult::Sat(mi)) => {
                prop_assert_eq!(ms, mm, "sliced vs monolithic canonical models differ");
                prop_assert_eq!(ms, mi, "sliced vs incremental canonical models differ");
                prop_assert!(ms.satisfies(&p, &[c1, c2]));
            }
            (SatResult::Unsat, SatResult::Unsat, SatResult::Unsat) => {}
            other => prop_assert!(false, "paths disagree on satisfiability: {other:?}"),
        }
    }
}

/// The incremental config with context forking pinned on (caches off so
/// every query really exercises the context tree).
fn fork_config() -> SolverConfig {
    SolverConfig { use_incremental: true, ctx_fork: true, ..no_cache_config() }
}

proptest! {
    // Cases and seed are pinned so CI runs are exactly reproducible.
    #![proptest_config(ProptestConfig::with_cases(96).seed(0xF0_4BED))]

    /// fork() ≡ fresh-blast: over random prefix/extension pairs, a solver
    /// driven down the fork path (divergence evidence seeded by querying
    /// both polarities, then both children extending the shared prefix)
    /// must return the same sat/unsat verdicts — and, in canonical-model
    /// mode, *byte-identical* models — as a solver that re-blasts every
    /// query from scratch.
    #[test]
    fn fork_equals_fresh_blast(
        r1 in recipe(),
        r2 in recipe(),
        r3 in recipe(),
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let c = build(&mut p, &r3);
        let k = p.bv_const(5, WIDTH);
        let pre = p.ult(a, k);
        let ext = p.ugt(b, k);
        let not_ext = p.not(ext);
        let extra = p.cmp(op, c, k);
        let canonical = |cfg: SolverConfig| SolverConfig { canonical_models: true, ..cfg };
        let mut forked = Solver::new(canonical(fork_config()));
        let mut fresh = Solver::new(canonical(SolverConfig {
            use_incremental: false,
            use_independence: false,
            ..no_cache_config()
        }));
        // The branch: both polarities on [pre] record sibling evidence.
        let _ = forked.check_assuming(&p, &[pre], ext);
        let _ = forked.check_assuming(&p, &[pre], not_ext);
        // Both children extend the divergence point (fork, then move).
        let f1 = forked.check_assuming(&p, &[pre, ext], extra);
        let f2 = forked.check_assuming(&p, &[pre, not_ext], extra);
        let g1 = fresh.check(&p, &[pre, ext, extra]);
        let g2 = fresh.check(&p, &[pre, not_ext, extra]);
        for (who, f, g) in [("ext child", &f1, &g1), ("¬ext child", &f2, &g2)] {
            match (f, g) {
                (SatResult::Sat(mf), SatResult::Sat(mg)) => {
                    prop_assert_eq!(mf, mg, "{}: forked canonical model differs", who);
                }
                (SatResult::Unsat, SatResult::Unsat) => {}
                other => prop_assert!(false, "{who}: verdicts diverge: {other:?}"),
            }
        }
        if let SatResult::Sat(m) = &f1 {
            prop_assert!(m.satisfies(&p, &[pre, ext, extra]), "bogus forked model");
        }
    }

    /// The `ctx_fork` ablation is result-invariant: the same query
    /// sequence on fork-on and fork-off solvers produces identical
    /// verdicts and identical canonical models — forking only changes
    /// *where* the work happens, never the answer.
    #[test]
    fn fork_ablation_is_result_invariant(
        r1 in recipe(),
        r2 in recipe(),
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let k = p.bv_const(9, WIDTH);
        let pre = p.ult(a, k);
        let ext = p.cmp(op, b, k);
        let not_ext = p.not(ext);
        let t = p.true_();
        let canonical = |cfg: SolverConfig| SolverConfig { canonical_models: true, ..cfg };
        let mut on = Solver::new(canonical(fork_config()));
        let mut off = Solver::new(canonical(SolverConfig { ctx_fork: false, ..fork_config() }));
        for s in [&mut on, &mut off] {
            let _ = s.check_assuming(&p, &[pre], ext);
            let _ = s.check_assuming(&p, &[pre], not_ext);
        }
        let queries: [(&[ExprId], ExprId); 3] =
            [(&[pre, ext], t), (&[pre, not_ext], t), (&[pre, ext], not_ext)];
        for (prefix, extra) in queries {
            let ra = on.check_assuming(&p, prefix, extra);
            let rb = off.check_assuming(&p, prefix, extra);
            prop_assert_eq!(ra, rb, "fork ablation changed a result");
        }
        prop_assert_eq!(off.stats().ctx_forks, 0, "ablated solver must not fork");
    }
}

/// The default pipeline on the re-blast path, the one path that scans
/// the counterexample cache — every cache tier and independence slicing
/// on — with canonical models so byte-equality of models is meaningful,
/// and the cex signature prefilter pinned explicitly.
fn reblast_config(cex_prefilter: bool) -> SolverConfig {
    SolverConfig {
        use_incremental: false,
        canonical_models: true,
        cex_prefilter,
        ..Default::default()
    }
}

proptest! {
    // Cases and seed are pinned so CI runs are exactly reproducible.
    #![proptest_config(ProptestConfig::with_cases(96).seed(0x6A7E_D00F))]

    /// The cex signature prefilter is a pure scan shortcut: the same
    /// query sequence on a prefiltered re-blast pipeline and on an
    /// unfiltered reference must produce identical verdicts and
    /// byte-identical canonical models — the prefilter may skip a subset
    /// merge, never change the answer. Repeated queries and polarity
    /// flips drive every tier: exact-cache hits, cex subsumption and
    /// slice refutation.
    #[test]
    fn prefilter_is_result_invariant(
        r1 in recipe(),
        r2 in recipe(),
        r3 in recipe(),
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let c = build(&mut p, &r3);
        let k = p.bv_const(5, WIDTH);
        let pre = p.ult(a, k);
        let ext = p.cmp(op, b, k);
        let not_ext = p.not(ext);
        let extra = p.cmp(op, c, k);
        let not_extra = p.not(extra);
        let t = p.true_();
        let mut filtered = Solver::new(reblast_config(true));
        let mut plain = Solver::new(reblast_config(false));
        let queries: [(&[ExprId], ExprId); 6] = [
            (&[pre], ext),
            (&[pre], not_ext),
            (&[pre, ext], extra),
            (&[pre, ext], not_extra),
            (&[pre, ext], extra),
            (&[pre, not_ext], t),
        ];
        for (prefix, e) in queries {
            let rf = filtered.check_assuming(&p, prefix, e);
            let rp = plain.check_assuming(&p, prefix, e);
            prop_assert_eq!(&rf, &rp, "prefilter ablation changed a result");
            if let SatResult::Sat(m) = &rf {
                let mut set: Vec<ExprId> = prefix.to_vec();
                set.push(e);
                prop_assert!(m.satisfies(&p, &set), "bogus prefiltered model");
            }
        }
        // The timing split holds on both pipelines: cache bookkeeping,
        // query routing and sat solving are disjoint segments of total
        // solver time.
        for s in [&filtered, &plain] {
            let st = s.stats();
            prop_assert!(
                st.time >= st.sat_time + st.cache_time + st.route_time,
                "sat_time + cache_time + route_time exceed total solver time"
            );
        }
    }
}

/// A deterministic xorshift stream for the SAT-level generators below.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A random literal over `vars` (positive literals).
    fn lit(&mut self, vars: &[Lit]) -> Lit {
        let v = vars[self.below(vars.len() as u64) as usize];
        if self.next() & 1 == 0 {
            v
        } else {
            !v
        }
    }

    /// `n` random ternary clauses.
    fn clauses(&mut self, vars: &[Lit], n: usize) -> Vec<Vec<Lit>> {
        (0..n).map(|_| (0..3).map(|_| self.lit(vars)).collect()).collect()
    }
}

/// A CNF over `n` fresh variables (after `Cnf`'s constant) and `clauses`.
fn cnf_of(n: usize, clauses: &[Vec<Lit>]) -> Cnf {
    let mut cnf = Cnf::new();
    for _ in 0..n {
        cnf.new_var();
    }
    for c in clauses {
        cnf.add_clause(c);
    }
    cnf
}

/// Decides `assumptions` on `s`, checking a sat model against `clauses`.
fn verdict(s: &mut SatSolver, clauses: &[Vec<Lit>], assumptions: &[Lit]) -> bool {
    let holds = |m: &[bool], l: &Lit| m[l.var().index()] != l.is_negative();
    match s.solve_under_assumptions(assumptions) {
        SolveOutcome::Sat(m) => {
            assert!(
                clauses.iter().all(|c| c.iter().any(|l| holds(&m, l))),
                "model misses a clause"
            );
            assert!(assumptions.iter().all(|l| holds(&m, l)), "model misses an assumption");
            true
        }
        SolveOutcome::Unsat => false,
        SolveOutcome::Unknown => panic!("no budget set"),
    }
}

/// The verdict of a fresh solver over exactly `clauses`.
fn fresh_verdict(n: usize, clauses: &[Vec<Lit>], assumptions: &[Lit]) -> bool {
    verdict(&mut SatSolver::from_cnf(&cnf_of(n, clauses)), clauses, assumptions)
}

proptest! {
    // Cases and seed are pinned so CI runs are exactly reproducible.
    #![proptest_config(ProptestConfig::with_cases(64).seed(0x5A7_F04C))]

    /// `SatSolver::fork` after compaction shares no storage with its
    /// parent. A warm solver (several assumption queries, so learnt
    /// clauses exist and watches have moved) is compacted and forked;
    /// parent and child then take different clauses and queries. Every
    /// verdict on either side equals a fresh solver over the same clause
    /// list, and the parent answers its queries the same before and after
    /// everything done to the child.
    #[test]
    fn sat_fork_is_independent_of_its_parent(seed in 1u64..u64::MAX, n in 30usize..50) {
        let mut rng = Stream(seed);
        // Variables 1..=n, numbered as `cnf_of` allocates them.
        let mut numbering = Cnf::new();
        let vars: Vec<Lit> = (0..n).map(|_| numbering.new_lit()).collect();
        // Random 3-SAT just below its threshold: mostly sat, but the
        // queries conflict and learn.
        let mut base = rng.clauses(&vars, n * 4);
        let mut parent = SatSolver::from_cnf(&cnf_of(n, &base));
        let queries: Vec<Vec<Lit>> = (0..6)
            .map(|_| {
                let k = 1 + rng.below(3);
                (0..k).map(|_| rng.lit(&vars)).collect()
            })
            .collect();
        for q in &queries {
            prop_assert_eq!(verdict(&mut parent, &base, q), fresh_verdict(n, &base, q));
        }
        // Level-0 facts so the compaction sweep strips and deletes.
        let units: Vec<Vec<Lit>> = (0..2).map(|_| vec![rng.lit(&vars)]).collect();
        for u in &units {
            parent.add_clause(u);
        }
        base.extend(units);
        parent.compact_learnts();
        let mut child = parent.fork();
        let before: Vec<bool> = queries.iter().map(|q| verdict(&mut parent, &base, q)).collect();
        for (q, &v) in queries.iter().zip(&before) {
            prop_assert_eq!(v, fresh_verdict(n, &base, q), "compacted parent verdict");
        }
        // The child diverges: its own clauses, queries and compactions.
        let mut child_clauses = base.clone();
        for extra in rng.clauses(&vars, 6) {
            child.add_clause(&extra);
            child_clauses.push(extra);
            for q in &queries {
                let want = fresh_verdict(n, &child_clauses, q);
                prop_assert_eq!(verdict(&mut child, &child_clauses, q), want, "child verdict");
            }
            child.compact_learnts();
        }
        let after: Vec<bool> = queries.iter().map(|q| verdict(&mut parent, &base, q)).collect();
        prop_assert_eq!(&before, &after, "the child's work changed the parent's answers");
        // The parent diverges the other way; the child is unaffected.
        let child_answers: Vec<bool> =
            queries.iter().map(|q| verdict(&mut child, &child_clauses, q)).collect();
        for (q, &v) in queries.iter().zip(&child_answers) {
            prop_assert_eq!(v, fresh_verdict(n, &child_clauses, q), "compacted child verdict");
        }
        let mut parent_clauses = base.clone();
        for extra in rng.clauses(&vars, 6) {
            parent.add_clause(&extra);
            parent_clauses.push(extra);
            for q in &queries {
                let want = fresh_verdict(n, &parent_clauses, q);
                prop_assert_eq!(verdict(&mut parent, &parent_clauses, q), want, "parent verdict");
            }
        }
        let child_again: Vec<bool> =
            queries.iter().map(|q| verdict(&mut child, &child_clauses, q)).collect();
        prop_assert_eq!(&child_answers, &child_again, "the parent's work changed the child's answers");
    }
}
