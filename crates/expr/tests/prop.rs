//! Property-based tests for the expression pool.
//!
//! Strategy: generate random expression trees over a small set of inputs,
//! then check that (a) the smart-constructor simplifications are
//! semantics-preserving w.r.t. an independently generated unsimplified
//! evaluation, (b) structural invariants of the pool hold, and (c) the
//! scratch-based walks agree with the hash-map reference evaluator in
//! `oracle` on random mixed-sort DAGs.

mod oracle;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use symmerge_expr::{BoolBinOp, BvBinOp, CmpOp, ExprId, ExprPool, SymbolId, Value};

/// A symbolic recipe for building an expression, independent of any pool.
#[derive(Debug, Clone)]
enum Recipe {
    Const(u64),
    Input(u8),
    Bv(BvBinOp, Box<Recipe>, Box<Recipe>),
    Ite(Box<CondRecipe>, Box<Recipe>, Box<Recipe>),
}

#[derive(Debug, Clone)]
enum CondRecipe {
    Cmp(CmpOp, Box<Recipe>, Box<Recipe>),
    Not(Box<CondRecipe>),
    And(Box<CondRecipe>, Box<CondRecipe>),
    Or(Box<CondRecipe>, Box<CondRecipe>),
}

const WIDTH: u32 = 16;
const NUM_INPUTS: u8 = 4;

fn bv_op_strategy() -> impl Strategy<Value = BvBinOp> {
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

fn cmp_op_strategy() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ult),
        Just(CmpOp::Ule),
        Just(CmpOp::Slt),
        Just(CmpOp::Sle),
    ]
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    let leaf = prop_oneof![
        (0u64..=0xffff).prop_map(Recipe::Const),
        (0u8..NUM_INPUTS).prop_map(Recipe::Input),
    ];
    leaf.prop_recursive(4, 64, 3, |inner| {
        let cmp = (cmp_op_strategy(), inner.clone(), inner.clone())
            .prop_map(|(op, a, b)| CondRecipe::Cmp(op, Box::new(a), Box::new(b)))
            .boxed();
        let cond = prop_oneof![
            cmp.clone(),
            cmp.clone().prop_map(|c| CondRecipe::Not(Box::new(c))),
            (cmp.clone(), cmp.clone()).prop_map(|(a, b)| CondRecipe::And(Box::new(a), Box::new(b))),
            (cmp.clone(), cmp).prop_map(|(a, b)| CondRecipe::Or(Box::new(a), Box::new(b))),
        ];
        prop_oneof![
            (bv_op_strategy(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Recipe::Bv(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (cond, inner.clone(), inner).prop_map(|(c, a, b)| Recipe::Ite(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

/// Builds the recipe through the pool's smart constructors.
fn build(pool: &mut ExprPool, r: &Recipe) -> ExprId {
    match r {
        Recipe::Const(v) => pool.bv_const(*v, WIDTH),
        Recipe::Input(i) => pool.input(&format!("in{i}"), WIDTH),
        Recipe::Bv(op, a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.bv(*op, a, b)
        }
        Recipe::Ite(c, a, b) => {
            let c = build_cond(pool, c);
            let (a, b) = (build(pool, a), build(pool, b));
            pool.ite(c, a, b)
        }
    }
}

fn build_cond(pool: &mut ExprPool, r: &CondRecipe) -> ExprId {
    match r {
        CondRecipe::Cmp(op, a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.cmp(*op, a, b)
        }
        CondRecipe::Not(c) => {
            let c = build_cond(pool, c);
            pool.not(c)
        }
        CondRecipe::And(a, b) => {
            let (a, b) = (build_cond(pool, a), build_cond(pool, b));
            pool.and(a, b)
        }
        CondRecipe::Or(a, b) => {
            let (a, b) = (build_cond(pool, a), build_cond(pool, b));
            pool.or(a, b)
        }
    }
}

/// Reference evaluation of the recipe, *without* any simplification.
fn eval_recipe(r: &Recipe, env: &[u64]) -> u64 {
    // Mirror the documented concrete semantics directly.
    fn m(v: u64) -> u64 {
        v & 0xffff
    }
    fn sgn(v: u64) -> i64 {
        if v & 0x8000 != 0 {
            (v | !0xffffu64) as i64
        } else {
            v as i64
        }
    }
    match r {
        Recipe::Const(v) => m(*v),
        Recipe::Input(i) => m(env[*i as usize]),
        Recipe::Bv(op, a, b) => {
            let (x, y) = (eval_recipe(a, env), eval_recipe(b, env));
            match op {
                BvBinOp::Add => m(x.wrapping_add(y)),
                BvBinOp::Sub => m(x.wrapping_sub(y)),
                BvBinOp::Mul => m(x.wrapping_mul(y)),
                BvBinOp::UDiv => match x.checked_div(y) {
                    Some(q) => m(q),
                    None => 0xffff,
                },
                BvBinOp::URem => {
                    if y == 0 {
                        x
                    } else {
                        m(x % y)
                    }
                }
                BvBinOp::SDiv => {
                    let (sx, sy) = (sgn(x), sgn(y));
                    if sy == 0 {
                        if sx < 0 {
                            1
                        } else {
                            0xffff
                        }
                    } else {
                        m(sx.wrapping_div(sy) as u64)
                    }
                }
                BvBinOp::SRem => {
                    let (sx, sy) = (sgn(x), sgn(y));
                    if sy == 0 {
                        x
                    } else {
                        m(sx.wrapping_rem(sy) as u64)
                    }
                }
                BvBinOp::And => x & y,
                BvBinOp::Or => x | y,
                BvBinOp::Xor => x ^ y,
                BvBinOp::Shl => {
                    if y >= 16 {
                        0
                    } else {
                        m(x << y)
                    }
                }
                BvBinOp::LShr => {
                    if y >= 16 {
                        0
                    } else {
                        x >> y
                    }
                }
                BvBinOp::AShr => {
                    if y >= 16 {
                        if sgn(x) < 0 {
                            0xffff
                        } else {
                            0
                        }
                    } else {
                        m((sgn(x) >> y) as u64)
                    }
                }
            }
        }
        Recipe::Ite(c, a, b) => {
            if eval_cond(c, env) {
                eval_recipe(a, env)
            } else {
                eval_recipe(b, env)
            }
        }
    }
}

fn eval_cond(r: &CondRecipe, env: &[u64]) -> bool {
    fn sgn(v: u64) -> i64 {
        if v & 0x8000 != 0 {
            (v | !0xffffu64) as i64
        } else {
            v as i64
        }
    }
    match r {
        CondRecipe::Cmp(op, a, b) => {
            let (x, y) = (eval_recipe(a, env), eval_recipe(b, env));
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ult => x < y,
                CmpOp::Ule => x <= y,
                CmpOp::Slt => sgn(x) < sgn(y),
                CmpOp::Sle => sgn(x) <= sgn(y),
            }
        }
        CondRecipe::Not(c) => !eval_cond(c, env),
        CondRecipe::And(a, b) => eval_cond(a, env) && eval_cond(b, env),
        CondRecipe::Or(a, b) => eval_cond(a, env) || eval_cond(b, env),
    }
}

/// One step of a random mixed-sort DAG. Operands are indices into the
/// nodes built so far of the sort the operator needs (taken modulo their
/// count), so later steps share earlier nodes.
#[derive(Debug, Clone)]
enum Step {
    Const(u64),
    Bv(BvBinOp, usize, usize),
    Cmp(CmpOp, usize, usize),
    Not(usize),
    Bool(BoolBinOp, usize, usize),
    /// `ite` over the bitvector nodes, or over the boolean ones when set.
    Ite(usize, usize, usize, bool),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let bool_op = prop_oneof![Just(BoolBinOp::And), Just(BoolBinOp::Or), Just(BoolBinOp::Xor)];
    prop_oneof![
        (0u64..=0xffff).prop_map(Step::Const),
        (bv_op_strategy(), 0usize..64, 0usize..64).prop_map(|(op, a, b)| Step::Bv(op, a, b)),
        (cmp_op_strategy(), 0usize..64, 0usize..64).prop_map(|(op, a, b)| Step::Cmp(op, a, b)),
        (0usize..64).prop_map(Step::Not),
        (bool_op, 0usize..64, 0usize..64).prop_map(|(op, a, b)| Step::Bool(op, a, b)),
        (0usize..64, 0usize..64, 0usize..64, proptest::bool::ANY)
            .prop_map(|(c, a, b, bools)| Step::Ite(c, a, b, bools)),
    ]
}

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(step_strategy(), 1..48)
}

/// Input values, sometimes wider than [`WIDTH`] so masking is exercised.
fn env_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..=0x3_ffff, NUM_INPUTS as usize)
}

/// The nodes of a DAG built from [`Step`]s, by sort.
struct Dag {
    bvs: Vec<ExprId>,
    bools: Vec<ExprId>,
}

impl Dag {
    /// Every node, alternating sorts.
    fn roots(&self) -> Vec<ExprId> {
        let n = self.bvs.len().max(self.bools.len());
        (0..n)
            .flat_map(|i| [self.bvs[i % self.bvs.len()], self.bools[i % self.bools.len()]])
            .collect()
    }
}

fn build_dag(pool: &mut ExprPool, steps: &[Step]) -> Dag {
    let mut bvs: Vec<ExprId> =
        (0..NUM_INPUTS).map(|i| pool.input(&format!("in{i}"), WIDTH)).collect();
    let mut bools = vec![pool.true_()];
    for step in steps {
        let bv = |i: usize| bvs[i % bvs.len()];
        let b = |i: usize| bools[i % bools.len()];
        match *step {
            Step::Const(v) => bvs.push(pool.bv_const(v, WIDTH)),
            Step::Bv(op, x, y) => bvs.push(pool.bv(op, bv(x), bv(y))),
            Step::Cmp(op, x, y) => bools.push(pool.cmp(op, bv(x), bv(y))),
            Step::Not(x) => bools.push(pool.not(b(x))),
            Step::Bool(op, x, y) => bools.push(pool.bool_op(op, b(x), b(y))),
            Step::Ite(c, x, y, false) => bvs.push(pool.ite(b(c), bv(x), bv(y))),
            Step::Ite(c, x, y, true) => bools.push(pool.ite(b(c), b(x), b(y))),
        }
    }
    Dag { bvs, bools }
}

/// The assignment `env` as an evaluator lookup over `pool`'s symbols.
fn lookup<'a>(pool: &'a ExprPool, env: &'a [u64]) -> impl Fn(SymbolId) -> u64 + 'a {
    move |sym| {
        let idx: usize = pool.symbol_name(sym).strip_prefix("in").unwrap().parse().unwrap();
        env[idx]
    }
}

/// Checks every scratch walk on `dag` against the oracle, interleaving
/// single evaluations, conjunctions, batch evaluations and input
/// collection so each walk starts where a different kind of walk left
/// the scratch.
fn check_walks(pool: &ExprPool, dag: &Dag, env: &[u64]) -> Result<(), TestCaseError> {
    let env = lookup(pool, env);
    let roots = dag.roots();
    for (i, &root) in roots.iter().enumerate() {
        prop_assert_eq!(pool.eval(root, &env), oracle::eval(pool, root, &env));
        let window = &dag.bools[i % dag.bools.len()..];
        prop_assert_eq!(pool.all_true(window, &env), oracle::all_true(pool, window, &env));
        let window = &roots[i..];
        prop_assert_eq!(
            pool.collect_inputs_many(window),
            oracle::collect_inputs_many(pool, window)
        );
    }
    let want: Vec<Value> = roots.iter().map(|&r| oracle::eval(pool, r, &env)).collect();
    prop_assert_eq!(pool.eval_many(&roots, &env), want);
    Ok(())
}

proptest! {
    // Cases and seed are pinned so CI runs are exactly reproducible.
    #![proptest_config(ProptestConfig::with_cases(256).seed(0x5EED_E4B2))]

    /// Scratch `eval`, `eval_many`, `all_true` and `collect_inputs_many`
    /// agree with the hash-map oracle on random mixed-sort DAGs.
    #[test]
    fn scratch_walks_agree_with_oracle(steps in steps_strategy(), env in env_strategy()) {
        let mut pool = ExprPool::new(WIDTH);
        let dag = build_dag(&mut pool, &steps);
        check_walks(&pool, &dag, &env)?;
    }

    /// One thread's scratch serves pools of different sizes in turn, and
    /// grows when a pool it already walked gains nodes.
    #[test]
    fn scratch_is_shared_across_pools_of_different_sizes(
        small in steps_strategy(),
        big in proptest::collection::vec(steps_strategy(), 2..4),
        env in env_strategy(),
    ) {
        let mut small_pool = ExprPool::new(WIDTH);
        let small_dag = build_dag(&mut small_pool, &small);
        let mut big_pool = ExprPool::new(WIDTH);
        let big_dag = build_dag(&mut big_pool, &big.concat());
        check_walks(&big_pool, &big_dag, &env)?;
        check_walks(&small_pool, &small_dag, &env)?;
        check_walks(&big_pool, &big_dag, &env)?;
        // Grow the small pool past everything walked so far.
        let grown = build_dag(&mut small_pool, &[small.as_slice(), &big.concat()].concat());
        check_walks(&small_pool, &grown, &env)?;
        check_walks(&small_pool, &small_dag, &env)?;
    }

    /// Walks stay right across the `u32` generation wrap-around: stamps
    /// written in the previous cycle of generations, under another
    /// assignment, never read as current after the wrap.
    #[test]
    fn scratch_survives_generation_wrap(
        steps in steps_strategy(),
        before in env_strategy(),
        after in env_strategy(),
    ) {
        let mut pool = ExprPool::new(WIDTH);
        let dag = build_dag(&mut pool, &steps);
        let roots = dag.roots();
        // Stamp every node with the first generation of a cycle...
        symmerge_expr::force_walk_generation(u32::MAX);
        let env = lookup(&pool, &before);
        let want: Vec<Value> = roots.iter().map(|&r| oracle::eval(&pool, r, &env)).collect();
        prop_assert_eq!(pool.eval_many(&roots, &env), want);
        // ...then run walks across the next wrap, which reuse it.
        symmerge_expr::force_walk_generation(u32::MAX - 2);
        check_walks(&pool, &dag, &after)?;
    }

    /// Smart-constructor simplification preserves semantics.
    #[test]
    fn simplification_preserves_semantics(
        recipe in recipe_strategy(),
        env in proptest::collection::vec(0u64..=0xffff, NUM_INPUTS as usize),
    ) {
        let mut pool = ExprPool::new(WIDTH);
        let id = build(&mut pool, &recipe);
        let expected = eval_recipe(&recipe, &env);
        let lookup = |sym: symmerge_expr::SymbolId| {
            let name = pool.symbol_name(sym);
            let idx: usize = name.strip_prefix("in").unwrap().parse().unwrap();
            env[idx]
        };
        prop_assert_eq!(pool.eval(id, &lookup), Value::Bv(expected));
    }

    /// Any expression with no inputs must have been folded to a constant.
    #[test]
    fn input_free_expressions_fold_to_constants(recipe in recipe_strategy()) {
        fn strip_inputs(r: &Recipe) -> Recipe {
            match r {
                Recipe::Const(v) => Recipe::Const(*v),
                Recipe::Input(i) => Recipe::Const(u64::from(*i) * 31 + 7),
                Recipe::Bv(op, a, b) =>
                    Recipe::Bv(*op, Box::new(strip_inputs(a)), Box::new(strip_inputs(b))),
                Recipe::Ite(c, a, b) => Recipe::Ite(
                    Box::new(strip_cond(c)),
                    Box::new(strip_inputs(a)),
                    Box::new(strip_inputs(b)),
                ),
            }
        }
        fn strip_cond(r: &CondRecipe) -> CondRecipe {
            match r {
                CondRecipe::Cmp(op, a, b) =>
                    CondRecipe::Cmp(*op, Box::new(strip_inputs(a)), Box::new(strip_inputs(b))),
                CondRecipe::Not(c) => CondRecipe::Not(Box::new(strip_cond(c))),
                CondRecipe::And(a, b) =>
                    CondRecipe::And(Box::new(strip_cond(a)), Box::new(strip_cond(b))),
                CondRecipe::Or(a, b) =>
                    CondRecipe::Or(Box::new(strip_cond(a)), Box::new(strip_cond(b))),
            }
        }
        let concrete = strip_inputs(&recipe);
        let mut pool = ExprPool::new(WIDTH);
        let id = build(&mut pool, &concrete);
        prop_assert!(pool.as_bv_const(id).is_some(),
            "input-free expression did not fold: {}", pool.display(id));
        prop_assert!(!pool.depends_on_input(id));
    }

    /// Hash-consing: building the same recipe twice yields identical ids,
    /// and the pool does not grow on the second build.
    #[test]
    fn hash_consing_is_idempotent(recipe in recipe_strategy()) {
        let mut pool = ExprPool::new(WIDTH);
        let a = build(&mut pool, &recipe);
        let size_after_first = pool.len();
        let b = build(&mut pool, &recipe);
        prop_assert_eq!(a, b);
        prop_assert_eq!(pool.len(), size_after_first);
    }

    /// `not` is an involution on booleans.
    #[test]
    fn not_is_involution(
        recipe in recipe_strategy(),
    ) {
        let mut pool = ExprPool::new(WIDTH);
        let e = build(&mut pool, &recipe);
        let k = pool.bv_const(42, WIDTH);
        let c = pool.eq(e, k);
        let n = pool.not(c);
        let nn = pool.not(n);
        prop_assert_eq!(nn, c);
    }

    /// Fingerprint tokens: symbolic expressions map to the marker, concrete
    /// ones never do.
    #[test]
    fn fingerprint_marker_iff_symbolic(recipe in recipe_strategy()) {
        let mut pool = ExprPool::new(WIDTH);
        let id = build(&mut pool, &recipe);
        let token = pool.fingerprint_token(id);
        if pool.depends_on_input(id) {
            prop_assert_eq!(token, u64::MAX);
        } else {
            prop_assert_ne!(token, u64::MAX);
        }
    }
}
