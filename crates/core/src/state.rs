//! Symbolic execution states — the `(ℓ, pc, s)` triples of the paper's
//! Algorithm 1, extended with a call stack, outputs and multiplicity.

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use symmerge_expr::{ExprId, ExprPool};
use symmerge_ir::{BlockId, FuncId, LocalId, Program, Ty};

/// A unique, monotonically increasing state identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u64);

/// One slot of the symbolic store: a scalar expression or an array of cell
/// expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// A scalar value.
    Int(ExprId),
    /// A fixed-size array of cell values.
    Array(Vec<ExprId>),
}

impl Slot {
    /// The scalar payload.
    ///
    /// # Panics
    ///
    /// Panics when called on an array slot (validated programs never do).
    pub fn as_int(&self) -> ExprId {
        match self {
            Slot::Int(e) => *e,
            Slot::Array(_) => panic!("scalar read of array slot"),
        }
    }
}

/// One call-stack frame of a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The function this frame executes.
    pub func: FuncId,
    /// Current block.
    pub block: BlockId,
    /// Next instruction index within the block (`len` = terminator).
    pub instr: u32,
    /// Local slots (parameters first).
    pub locals: Vec<Slot>,
    /// Where the return value goes in the caller frame.
    pub ret_dest: Option<LocalId>,
}

/// A symbolic execution state.
///
/// The path condition is kept as a *vector of conjuncts*: forks append one
/// conjunct, so two states that recently diverged share a literal common
/// prefix. Merging exploits this (paper §2.1: "the disjunction … can be
/// simplified by factoring out common prefixes").
#[derive(Debug, Clone)]
pub struct State {
    /// Unique id (fresh for every fork/merge product).
    pub id: StateId,
    /// The call stack; `frames.last()` is the active frame.
    pub frames: Vec<Frame>,
    /// Global slots.
    pub globals: Vec<Slot>,
    /// Path-condition conjuncts, in the order they were added.
    pub pc: Vec<ExprId>,
    /// Values passed to `putchar` so far.
    pub outputs: Vec<ExprId>,
    /// Number of single paths this state represents (§5.2). 1 until the
    /// state participates in a merge; merging sums multiplicities.
    pub multiplicity: f64,
    /// Instructions executed along this state's history.
    pub steps: u64,
    /// Per-input-label counters so a `sym_int("x")` executed repeatedly
    /// (e.g. in a loop) yields distinct symbols `x`, `x#2`, `x#3`, …
    pub sym_counters: HashMap<String, u32>,
    /// The opaque solver **affinity token** stamped when this state was
    /// last integrated ([`symmerge_solver::Solver::last_affinity`]):
    /// compares higher the more recently the solver touched the
    /// incremental context of this state's path-condition prefix.
    /// Schedulers use it as a deterministic tie-break toward states
    /// whose context is likely still resident. Derived from per-solver
    /// monotone counters — never wall-clock — so it is reproducible per
    /// seed; it is meaningless across solvers and therefore dropped when
    /// a state migrates to another shard and re-derived *locally* on
    /// arrival: 0 ("context cold here"), or the receiving solver's stamp
    /// for the warm-prefix trunk the incoming batch pre-warmed (see
    /// the `shard` module's `StolenState`).
    pub affinity: u64,
}

/// One worklist entry: a live state with the dynamic-merging data the
/// paper's §4 attaches to it. It is the one record of a live state; the
/// engine's worklist, its panic snapshot, a hand-off and a checkpoint
/// all carry it whole.
#[derive(Debug, Clone)]
pub(crate) struct LiveState {
    /// The state itself.
    pub state: State,
    /// Signatures of the state's δ nearest predecessors, oldest first
    /// (empty unless merging dynamically, and after every merge).
    pub history: VecDeque<u64>,
    /// Whether the state descends from a fast-forwarded pick since its
    /// last merge (the §5.5 fast-forward success statistic).
    pub ff: bool,
}

impl LiveState {
    /// A state with an empty history that is not being fast-forwarded.
    pub fn fresh(state: State) -> LiveState {
        LiveState { state, history: VecDeque::new(), ff: false }
    }
}

impl State {
    /// The initial state of a program: entry frame, empty path condition,
    /// globals from their initializers.
    pub fn initial(program: &Program, pool: &mut ExprPool, id: StateId) -> State {
        let w = program.width;
        let globals = program
            .globals
            .iter()
            .zip(&program.global_inits)
            .map(|(decl, init)| match decl.ty {
                Ty::Int => Slot::Int(pool.bv_const_i64(init[0], w)),
                Ty::Array(_) => {
                    Slot::Array(init.iter().map(|&v| pool.bv_const_i64(v, w)).collect())
                }
            })
            .collect();
        let entry_frame = fresh_frame(program, pool, program.entry, &[], None);
        State {
            id,
            frames: vec![entry_frame],
            globals,
            pc: Vec::new(),
            outputs: Vec::new(),
            multiplicity: 1.0,
            steps: 0,
            sym_counters: HashMap::new(),
            affinity: 0,
        }
    }

    /// The active frame.
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("states always have a frame")
    }

    /// The active frame, mutably.
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("states always have a frame")
    }

    /// The current program location `(func, block, instr)`.
    pub fn loc(&self) -> (FuncId, BlockId, u32) {
        let f = self.frame();
        (f.func, f.block, f.instr)
    }

    /// The stack as `(function, block)` pairs — the shape QCE's dynamic
    /// interprocedural accumulation consumes.
    pub fn stack_blocks(&self) -> Vec<(FuncId, BlockId)> {
        self.frames.iter().map(|f| (f.func, f.block)).collect()
    }

    /// A hash identifying the full control position: every frame's
    /// function, block, instruction index and return slot. Two states are
    /// merge candidates only when their control keys are equal (same `ℓ`
    /// *and* same call stack, since our states are not summaries).
    ///
    /// The parallel engine's *region tag* (the topological index of the
    /// outermost frame's block, see `symmerge_core::shard`) is a function
    /// of this position: equal control keys imply equal regions, which is
    /// what lets region sharding keep every merge candidate pair on one
    /// worker.
    pub fn control_key(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for f in &self.frames {
            (f.func.0, f.block.0, f.instr, f.ret_dest.map(|d| d.0)).hash(&mut h);
        }
        // States that issued a different number of symbolic inputs must not
        // merge (their future input labels would collide).
        let mut counters: Vec<(&str, u32)> =
            self.sym_counters.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        counters.sort_unstable();
        counters.hash(&mut h);
        // Note: the *output trace length* is deliberately NOT part of the
        // key. Keying on it would make sibling paths that printed different
        // amounts unmatchable forever, starving DSM's fingerprint history;
        // instead the engine checks output-shape compatibility right before
        // merging.
        h.finish()
    }

    /// Allocates (or reuses) the symbol name for the next `sym_int` /
    /// `sym_array` with this label on this path.
    pub fn next_sym_name(&mut self, label: &str) -> String {
        let n = self.sym_counters.entry(label.to_owned()).or_insert(0);
        *n += 1;
        if *n == 1 {
            label.to_owned()
        } else {
            format!("{label}#{n}")
        }
    }
}

/// Builds a frame for calling `func` with the given argument expressions.
pub fn fresh_frame(
    program: &Program,
    pool: &mut ExprPool,
    func: FuncId,
    args: &[ExprId],
    ret_dest: Option<LocalId>,
) -> Frame {
    let w = program.width;
    let f = program.func(func);
    let zero = pool.bv_const(0, w);
    let mut locals: Vec<Slot> = f
        .locals
        .iter()
        .map(|d| match d.ty {
            Ty::Int => Slot::Int(zero),
            Ty::Array(n) => Slot::Array(vec![zero; n as usize]),
        })
        .collect();
    for (i, &a) in args.iter().enumerate() {
        locals[i] = Slot::Int(a);
    }
    Frame { func, block: f.entry(), instr: 0, locals, ret_dest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmerge_ir::minic;

    #[test]
    fn initial_state_reflects_global_inits() {
        let p = minic::compile("global g = 7; global a[3] = \"hi\"; fn main() { }").unwrap();
        let mut pool = ExprPool::new(p.width);
        let s = State::initial(&p, &mut pool, StateId(0));
        assert_eq!(s.frames.len(), 1);
        assert_eq!(pool.as_bv_const(s.globals[0].as_int()), Some(7));
        let Slot::Array(cells) = &s.globals[1] else { panic!() };
        assert_eq!(pool.as_bv_const(cells[0]), Some(b'h' as u64));
        assert_eq!(pool.as_bv_const(cells[2]), Some(0));
        assert_eq!(s.multiplicity, 1.0);
        assert!(s.pc.is_empty());
    }

    #[test]
    fn control_key_distinguishes_positions_not_outputs() {
        let p = minic::compile("fn main() { putchar(1); putchar(2); }").unwrap();
        let mut pool = ExprPool::new(p.width);
        let a = State::initial(&p, &mut pool, StateId(0));
        let mut b = a.clone();
        assert_eq!(a.control_key(), b.control_key());
        b.frame_mut().instr = 1;
        assert_ne!(a.control_key(), b.control_key());
        b.frame_mut().instr = 0;
        // Outputs do NOT affect the key (merge-time shape check instead).
        b.outputs.push(pool.bv_const(1, 32));
        assert_eq!(a.control_key(), b.control_key());
    }

    #[test]
    fn state_layer_is_send() {
        // The parallel engine moves programs and reports between threads
        // and rebuilds states inside worker threads; everything a state
        // holds must therefore be `Send`. `ExprId`s are plain indices
        // (meaningful on every worker of a fleet, which all intern into
        // one shared pool — `StolenState` is the cross-thread form), so
        // `State` itself is `Send` by composition; this is the
        // compile-time audit.
        fn assert_send<T: Send>() {}
        assert_send::<State>();
        assert_send::<Frame>();
        assert_send::<Slot>();
        assert_send::<StateId>();
    }

    #[test]
    fn sym_names_are_unique_per_path() {
        let p = minic::compile("fn main() { }").unwrap();
        let mut pool = ExprPool::new(p.width);
        let mut s = State::initial(&p, &mut pool, StateId(0));
        assert_eq!(s.next_sym_name("x"), "x");
        assert_eq!(s.next_sym_name("x"), "x#2");
        assert_eq!(s.next_sym_name("y"), "y");
        assert_eq!(s.next_sym_name("x"), "x#3");
    }
}
