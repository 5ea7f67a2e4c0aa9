//! State merging: the `∼` relation and the merge operation of Algorithm 1
//! (lines 17–22), with QCE similarity (paper Eq. 1).

use crate::qce::{HotSet, PairClass, VarKey};
use crate::state::{Slot, State, StateId};
use std::hash::{Hash, Hasher};
use symmerge_expr::{ExprId, ExprPool};

/// Options controlling the merge operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeConfig {
    /// Factor the common prefix out of the two path conditions instead of
    /// disjoining them wholesale (paper §2.1); disabling this is an
    /// ablation knob for the benchmarks.
    pub factor_common_prefix: bool,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig { factor_common_prefix: true }
    }
}

/// Reads the value a [`VarKey`] denotes in `state`'s frame `frame_idx`.
/// Array-summary keys have no single value and return `None`.
fn value_of(state: &State, frame_idx: usize, key: VarKey) -> Option<ExprId> {
    match key {
        VarKey::Local(l) => Some(state.frames[frame_idx].locals[l.index()].as_int()),
        VarKey::LocalCell(l, c) => match &state.frames[frame_idx].locals[l.index()] {
            Slot::Array(cells) => cells.get(c as usize).copied(),
            Slot::Int(_) => None,
        },
        VarKey::Global(g) => Some(state.globals[g.index()].as_int()),
        VarKey::GlobalCell(g, c) => match &state.globals[g.index()] {
            Slot::Array(cells) => cells.get(c as usize).copied(),
            Slot::Int(_) => None,
        },
        VarKey::LocalArray(_) | VarKey::GlobalArray(_) => None,
    }
}

/// The QCE similarity relation `∼qce` (paper Eq. 1): two states at the same
/// location are similar iff every hot variable is either equal in both or
/// symbolic in at least one. Callers must already have checked
/// [`State::control_key`] equality.
pub fn similar_qce(pool: &ExprPool, hot: &HotSet, a: &State, b: &State) -> bool {
    debug_assert_eq!(a.frames.len(), b.frames.len());
    debug_assert_eq!(hot.frame_locals.len(), a.frames.len());
    let ok = |va: Option<ExprId>, vb: Option<ExprId>| -> bool {
        match (va, vb) {
            (Some(x), Some(y)) => x == y || pool.depends_on_input(x) || pool.depends_on_input(y),
            _ => true,
        }
    };
    for (fi, frame_hot) in hot.frame_locals.iter().enumerate() {
        for &key in frame_hot {
            if !ok(value_of(a, fi, key), value_of(b, fi, key)) {
                return false;
            }
        }
    }
    let top = a.frames.len() - 1;
    for &key in &hot.globals {
        if !ok(value_of(a, top, key), value_of(b, top, key)) {
            return false;
        }
    }
    true
}

/// Classifies how one tracked variable relates between two merge
/// candidates, feeding the full Eq. 7 criterion
/// ([`crate::qce::QceAnalysis::similar_full`]).
pub fn classify_pair(
    pool: &ExprPool,
    a: &State,
    b: &State,
    frame_idx: usize,
    key: VarKey,
) -> PairClass {
    match (value_of(a, frame_idx, key), value_of(b, frame_idx, key)) {
        (Some(x), Some(y)) if x != y => {
            if pool.depends_on_input(x) || pool.depends_on_input(y) {
                PairClass::SymbolicDiffer
            } else {
                PairClass::ConcreteDiffer
            }
        }
        _ => PairClass::Equal,
    }
}

/// The hash-based approximation of `∼qce` used by dynamic state merging
/// (paper §4.3): `h(v) = ite(I ⊳ v, ⋆, v)`. Equal signatures mean the
/// states are *likely* similar; the engine re-checks [`similar_qce`] before
/// actually merging, so collisions are harmless.
pub fn merge_signature(pool: &ExprPool, hot: &HotSet, state: &State) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    state.control_key().hash(&mut h);
    for (fi, frame_hot) in hot.frame_locals.iter().enumerate() {
        for &key in frame_hot {
            match value_of(state, fi, key) {
                Some(v) => pool.fingerprint_token(v).hash(&mut h),
                None => 0u64.hash(&mut h),
            }
        }
    }
    let top = state.frames.len() - 1;
    for &key in &hot.globals {
        match value_of(state, top, key) {
            Some(v) => pool.fingerprint_token(v).hash(&mut h),
            None => 0u64.hash(&mut h),
        }
    }
    h.finish()
}

/// Merges two states at the same control position into one that represents
/// exactly the union of their paths (paper line 20 of Algorithm 1):
///
/// * `pc = common-prefix ∧ (suffix_a ∨ suffix_b)`,
/// * every differing slot becomes `ite(suffix_a, a[v], b[v])`,
/// * multiplicities add.
///
/// # Panics
///
/// Panics if the states' control keys differ (callers guarantee equality).
pub fn merge_states(
    pool: &mut ExprPool,
    config: MergeConfig,
    a: &State,
    b: &State,
    id: StateId,
) -> State {
    assert_eq!(a.control_key(), b.control_key(), "merge of misaligned states");
    assert_eq!(a.outputs.len(), b.outputs.len(), "merge of unequal output traces");
    // Split the path conditions into common prefix and suffixes.
    let (prefix_len, cond_a, cond_b) = if config.factor_common_prefix {
        let mut k = 0;
        while k < a.pc.len() && k < b.pc.len() && a.pc[k] == b.pc[k] {
            k += 1;
        }
        (k, pool.and_many(&a.pc[k..]), pool.and_many(&b.pc[k..]))
    } else {
        (0, pool.and_many(&a.pc), pool.and_many(&b.pc))
    };
    let mut pc: Vec<ExprId> = a.pc[..prefix_len].to_vec();
    let disjunct = pool.or(cond_a, cond_b);
    if !pool.is_true(disjunct) {
        pc.push(disjunct);
    }

    let merge_expr = |pool: &mut ExprPool, x: ExprId, y: ExprId| -> ExprId {
        if x == y {
            x
        } else {
            pool.ite(cond_a, x, y)
        }
    };
    let merge_slot = |pool: &mut ExprPool, x: &Slot, y: &Slot| -> Slot {
        match (x, y) {
            (Slot::Int(ex), Slot::Int(ey)) => Slot::Int(merge_expr(pool, *ex, *ey)),
            (Slot::Array(cx), Slot::Array(cy)) => {
                Slot::Array(cx.iter().zip(cy).map(|(&ex, &ey)| merge_expr(pool, ex, ey)).collect())
            }
            _ => unreachable!("control-key-equal states share slot shapes"),
        }
    };

    let frames = a
        .frames
        .iter()
        .zip(&b.frames)
        .map(|(fa, fb)| {
            let mut f = fa.clone();
            f.locals =
                fa.locals.iter().zip(&fb.locals).map(|(x, y)| merge_slot(pool, x, y)).collect();
            f
        })
        .collect();
    let globals = a.globals.iter().zip(&b.globals).map(|(x, y)| merge_slot(pool, x, y)).collect();
    let outputs = a.outputs.iter().zip(&b.outputs).map(|(&x, &y)| merge_expr(pool, x, y)).collect();

    State {
        id,
        frames,
        globals,
        pc,
        outputs,
        multiplicity: a.multiplicity + b.multiplicity,
        steps: a.steps.max(b.steps),
        sym_counters: a.sym_counters.clone(),
        // The warmer constituent's context serves the merged prefix too
        // (the common prefix is what the solver keeps blasted).
        affinity: a.affinity.max(b.affinity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateId;
    use symmerge_ir::minic;

    #[test]
    fn merge_layer_is_send() {
        // Send audit for the pieces the parallel engine moves between (or
        // constructs inside) worker threads. `ExprPool` and `Solver` never
        // migrate — each worker owns one — but they must still be `Send`
        // so a worker can be built inside its thread; fingerprints and
        // merge signatures are plain `u64`s and survive pool boundaries.
        fn assert_send<T: Send>() {}
        assert_send::<MergeConfig>();
        assert_send::<crate::qce::HotSet>();
        assert_send::<symmerge_expr::ExprPool>();
        assert_send::<symmerge_solver::Solver>();
        assert_send::<crate::shard::StolenState>();
        assert_send::<crate::engine::RunReport>();
        assert_send::<symmerge_ir::Program>();
    }

    fn two_states() -> (ExprPool, State, State) {
        let p = minic::compile("fn main() { let r = 0; let arg = 0; }").unwrap();
        let mut pool = ExprPool::new(32);
        let base = State::initial(&p, &mut pool, StateId(0));
        // Simulate the paper's echo example: fork on C, then assign
        // different concrete values.
        let c_src = pool.input("c", 32);
        let zero = pool.bv_const(0, 32);
        let c = pool.eq(c_src, zero);
        let not_c = pool.not(c);
        let mut a = base.clone();
        a.pc.push(c);
        a.frames[0].locals[0] = Slot::Int(pool.bv_const(0, 32)); // r = 0
        a.frames[0].locals[1] = Slot::Int(pool.bv_const(2, 32)); // arg = 2
        let mut b = base;
        b.id = StateId(1);
        b.pc.push(not_c);
        b.frames[0].locals[0] = Slot::Int(pool.bv_const(1, 32)); // r = 1
        b.frames[0].locals[1] = Slot::Int(pool.bv_const(2, 32)); // arg = 2
        (pool, a, b)
    }

    #[test]
    fn merged_store_uses_ite_only_where_values_differ() {
        let (mut pool, a, b) = two_states();
        let m = merge_states(&mut pool, MergeConfig::default(), &a, &b, StateId(2));
        // r differs → ite; arg equal → untouched constant.
        let r = m.frames[0].locals[0].as_int();
        let arg = m.frames[0].locals[1].as_int();
        assert!(pool.depends_on_input(r), "r must be ite(C, 0, 1)");
        assert_eq!(pool.as_bv_const(arg), Some(2));
        assert_eq!(m.multiplicity, 2.0);
    }

    #[test]
    fn merged_pc_is_disjunction_of_suffixes() {
        let (mut pool, a, b) = two_states();
        let m = merge_states(&mut pool, MergeConfig::default(), &a, &b, StateId(2));
        // pc was [C] vs [¬C]: disjunction C ∨ ¬C = true, so pc empties.
        assert!(m.pc.is_empty(), "C ∨ ¬C simplifies away, pc = {:?}", m.pc);
    }

    #[test]
    fn common_prefix_is_preserved() {
        let (mut pool, mut a, mut b) = two_states();
        let x = pool.input("x", 32);
        let ten = pool.bv_const(10, 32);
        let shared = pool.ult(x, ten);
        a.pc.insert(0, shared);
        b.pc.insert(0, shared);
        let m = merge_states(&mut pool, MergeConfig::default(), &a, &b, StateId(2));
        assert_eq!(m.pc, vec![shared]);
    }

    #[test]
    fn unfactored_merge_still_sound_but_bigger() {
        let (mut pool, mut a, mut b) = two_states();
        let x = pool.input("x", 32);
        let ten = pool.bv_const(10, 32);
        let shared = pool.ult(x, ten);
        a.pc.insert(0, shared);
        b.pc.insert(0, shared);
        let m = merge_states(
            &mut pool,
            MergeConfig { factor_common_prefix: false },
            &a,
            &b,
            StateId(2),
        );
        // Same logical content, one big disjunct.
        assert_eq!(m.pc.len(), 1);
        assert!(pool.depends_on_input(m.pc[0]));
    }

    #[test]
    fn similarity_respects_hot_variables() {
        let (pool, a, b) = two_states();
        // Hot = {r} (local 0): r differs concretely → not similar.
        let hot_r = HotSet {
            frame_locals: vec![vec![VarKey::Local(symmerge_ir::LocalId(0))]],
            globals: vec![],
        };
        assert!(!similar_qce(&pool, &hot_r, &a, &b));
        // Hot = {arg} (local 1): equal → similar.
        let hot_arg = HotSet {
            frame_locals: vec![vec![VarKey::Local(symmerge_ir::LocalId(1))]],
            globals: vec![],
        };
        assert!(similar_qce(&pool, &hot_arg, &a, &b));
        // Empty hot set (α = ∞): always similar.
        let empty = HotSet { frame_locals: vec![vec![]], globals: vec![] };
        assert!(similar_qce(&pool, &empty, &a, &b));
    }

    #[test]
    fn symbolic_hot_variable_permits_merge() {
        let (mut pool, mut a, b) = two_states();
        // Make r symbolic in a: Eq. 1 allows the merge.
        let sym = pool.input("fresh", 32);
        a.frames[0].locals[0] = Slot::Int(sym);
        let hot_r = HotSet {
            frame_locals: vec![vec![VarKey::Local(symmerge_ir::LocalId(0))]],
            globals: vec![],
        };
        assert!(similar_qce(&pool, &hot_r, &a, &b));
    }

    #[test]
    fn signatures_match_iff_hot_tokens_match() {
        let (pool, a, b) = two_states();
        let hot_arg = HotSet {
            frame_locals: vec![vec![VarKey::Local(symmerge_ir::LocalId(1))]],
            globals: vec![],
        };
        assert_eq!(
            merge_signature(&pool, &hot_arg, &a),
            merge_signature(&pool, &hot_arg, &b),
            "equal hot values ⇒ equal signatures"
        );
        let hot_r = HotSet {
            frame_locals: vec![vec![VarKey::Local(symmerge_ir::LocalId(0))]],
            globals: vec![],
        };
        assert_ne!(
            merge_signature(&pool, &hot_r, &a),
            merge_signature(&pool, &hot_r, &b),
            "differing concrete hot values ⇒ different signatures"
        );
    }

    #[test]
    fn merged_state_is_logically_the_union() {
        // Evaluate both the originals and the merged state under inputs
        // satisfying each side; the merged store must agree.
        let (mut pool, a, b) = two_states();
        let m = merge_states(&mut pool, MergeConfig::default(), &a, &b, StateId(2));
        let r = m.frames[0].locals[0].as_int();
        // Input c = 0 satisfies C (a-side): r must evaluate to 0.
        assert_eq!(pool.eval(r, &|_| 0), symmerge_expr::Value::Bv(0));
        // Input c = 5 violates C (b-side): r must evaluate to 1.
        assert_eq!(pool.eval(r, &|_| 5), symmerge_expr::Value::Bv(1));
    }
}
