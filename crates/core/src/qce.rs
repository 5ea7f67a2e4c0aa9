//! Query count estimation (QCE) — the paper's §3.
//!
//! For every program location `ℓ` and variable `v`, QCE statically
//! estimates `Q_add(ℓ, v)`: the number of *additional* solver queries that
//! would be issued after `ℓ` if `v` became symbolic, and `Q_t(ℓ)`: the
//! total number of queries expected after `ℓ`. A variable is *hot* at `ℓ`
//! when `Q_add(ℓ, v) > α · Q_t(ℓ)` (Eq. 2); two states may merge only if
//! every hot variable is equal in both or already symbolic in one (Eq. 1).
//!
//! The estimate follows the recursive `q` of Eq. 3: a conditional branch
//! contributes `c(ℓ', e) + β·q(then) + β·q(else)`, straight-line code
//! passes through, returns contribute nothing. Loops are unrolled with
//! their static trip count when [`symmerge_ir::cfg`] can determine it, and
//! with the bound `κ` otherwise (both clamped by [`MAX_UNROLL`]; with
//! `β < 1` contributions decay geometrically, so the clamp loses almost
//! nothing). Following the paper's footnote 1, assertions and memory
//! accesses with potentially-symbolic offsets also count as query sources,
//! not just branches.
//!
//! The analysis is compositional (paper §3.2 “Interprocedural QCE”): it
//! processes the call graph bottom-up and summarizes each function by its
//! entry counts; call sites absorb callee summaries. The remaining
//! context-sensitivity — queries issued *after the caller returns* — is
//! accumulated dynamically by the engine, which sums the per-block tables
//! over the call stack ([`QceAnalysis::hot_set`]).

use std::collections::{BTreeMap, HashMap, HashSet};
use symmerge_ir::cfg::{CallGraph, CfgInfo};
use symmerge_ir::{
    ArrayRef, BlockId, FuncId, GlobalId, Instr, LocalId, Operand, Program, Rvalue, Terminator, Ty,
};

/// Hard cap on analysis-time loop unrolling. With `β < 1` the contribution
/// of iteration `k` decays like `β^k`, so truncation error is tiny.
pub const MAX_UNROLL: u64 = 12;

/// Tunable parameters of QCE (paper §3.2 “Parameters”).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QceConfig {
    /// The hot-variable threshold. `0` ⇒ any variable with future queries
    /// is hot (states with differing concrete values never merge);
    /// `+∞` ⇒ nothing is hot (merge everything). Paper default: `1e-12`.
    pub alpha: f64,
    /// Branch feasibility probability (Assumption 3). Paper default: 0.8.
    pub beta: f64,
    /// Iteration bound for loops without a static trip count.
    /// Paper default: 10.
    pub kappa: u64,
    /// When set, use the *full* Eq. 7 criterion of §3.3, which also prices
    /// the `ite` expressions a merge introduces:
    /// `(ζ−1)·max Q_ite + max Q_add < α·Q_t` with `Q_ite(ℓ,v) = Q_add(ℓ,v)`.
    /// The paper's prototype (and our default, `None`) drops the `Q_ite`
    /// term, reducing to the per-variable hot-set test of Eq. 1.
    pub zeta: Option<f64>,
}

impl Default for QceConfig {
    fn default() -> Self {
        QceConfig { alpha: 1e-12, beta: 0.8, kappa: 10, zeta: None }
    }
}

/// A trackable variable, the `v` of `Q_add(ℓ, v)`.
///
/// Mirrors the paper's prototype: scalar locals (including parameters),
/// scalar globals, and array cells addressed by constant offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarKey {
    /// A scalar local of the current function.
    Local(LocalId),
    /// A scalar global.
    Global(GlobalId),
    /// One cell of a global array.
    GlobalCell(GlobalId, u32),
    /// One cell of a local array.
    LocalCell(LocalId, u32),
    /// The "somewhere in this local array" summary node (symbolic-index
    /// stores land here).
    LocalArray(LocalId),
    /// The "somewhere in this global array" summary node.
    GlobalArray(GlobalId),
}

impl VarKey {
    /// Whether this key survives the current function frame (globals do,
    /// locals do not).
    pub fn is_global(self) -> bool {
        matches!(self, VarKey::Global(_) | VarKey::GlobalCell(..) | VarKey::GlobalArray(_))
    }
}

/// Per-function QCE tables.
#[derive(Debug)]
pub struct FuncQce {
    /// Dense index of tracked variables for this function.
    pub vars: Vec<VarKey>,
    var_index: HashMap<VarKey, usize>,
    /// `q[block][0]` = Q_t at block start; `q[block][1 + vi]` = Q_add for
    /// variable index `vi`.
    q: Vec<Vec<f64>>,
    /// Q_t at the function entry (the callee summary).
    pub qt_entry: f64,
    /// Q_add at entry per parameter (callee summary, applied at call sites).
    pub qadd_param: Vec<f64>,
    /// Q_add at entry per global key (callee summary). Ordered so call
    /// sites accumulate float contributions deterministically.
    pub qadd_global: BTreeMap<VarKey, f64>,
}

impl FuncQce {
    /// Q_t from the start of `block` to the function return.
    pub fn qt(&self, block: BlockId) -> f64 {
        self.q[block.index()][0]
    }

    /// Q_add for `v` from the start of `block`.
    pub fn qadd(&self, block: BlockId, v: VarKey) -> f64 {
        match self.var_index.get(&v) {
            Some(&vi) => self.q[block.index()][1 + vi],
            None => 0.0,
        }
    }
}

/// The hot-variable set for one state (one call stack).
///
/// Frame-local entries are `(frame index, VarKey)`; global entries are
/// plain keys valid in every frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotSet {
    /// Hot locals per frame (frame 0 = entry frame).
    pub frame_locals: Vec<Vec<VarKey>>,
    /// Hot globals (shared by all frames).
    pub globals: Vec<VarKey>,
}

impl HotSet {
    /// Total number of hot variables.
    pub fn len(&self) -> usize {
        self.globals.len() + self.frame_locals.iter().map(Vec::len).sum::<usize>()
    }

    /// Whether no variable is hot.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The whole-program QCE analysis result.
#[derive(Debug)]
pub struct QceAnalysis {
    /// Per-function tables, indexed by [`FuncId`].
    pub funcs: Vec<FuncQce>,
    /// The configuration the analysis was run with.
    pub config: QceConfig,
}

impl QceAnalysis {
    /// Runs the analysis over a program (paper §3.2): bottom-up over
    /// call-graph SCCs, two rounds per SCC so simple recursion sees its
    /// own first-round summary.
    pub fn run(program: &Program, config: QceConfig) -> QceAnalysis {
        let cg = CallGraph::analyze(program);
        let cfgs: Vec<CfgInfo> = program.functions.iter().map(CfgInfo::analyze).collect();
        let mut funcs: Vec<Option<FuncQce>> = (0..program.functions.len()).map(|_| None).collect();
        for scc in &cg.sccs {
            let rounds =
                if scc.len() > 1 || scc.iter().any(|&f| cg.is_recursive(f)) { 2 } else { 1 };
            for _ in 0..rounds {
                for &fid in scc {
                    let fq = analyze_function(program, fid, &cfgs[fid.index()], &funcs, config);
                    funcs[fid.index()] = Some(fq);
                }
            }
        }
        QceAnalysis { funcs: funcs.into_iter().map(Option::unwrap).collect(), config }
    }

    /// Computes the hot set `H(ℓ)` for a call stack, following the paper's
    /// dynamic interprocedural accumulation: `Q_t` is the sum of the local
    /// counts at the current location and at every return location on the
    /// stack; a variable is hot if its accumulated `Q_add` exceeds
    /// `α · Q_t`.
    ///
    /// `stack` lists `(function, block)` pairs from the entry frame to the
    /// current frame; for non-topmost frames the block is the one
    /// containing the call (the return location).
    pub fn hot_set(&self, program: &Program, stack: &[(FuncId, BlockId)]) -> HotSet {
        let qt_total: f64 = stack.iter().map(|&(f, b)| self.funcs[f.index()].qt(b)).sum();
        let threshold = self.config.alpha * qt_total;
        let mut hot = HotSet::default();
        // Frame locals: hot at their own frame's location.
        for &(f, b) in stack {
            let fq = &self.funcs[f.index()];
            let func = program.func(f);
            let mut frame_hot = Vec::new();
            for (li, decl) in func.locals.iter().enumerate() {
                let l = LocalId(li as u32);
                match decl.ty {
                    Ty::Int => {
                        if fq.qadd(b, VarKey::Local(l)) > threshold {
                            frame_hot.push(VarKey::Local(l));
                        }
                    }
                    Ty::Array(n) => {
                        for c in 0..n {
                            if fq.qadd(b, VarKey::LocalCell(l, c)) > threshold {
                                frame_hot.push(VarKey::LocalCell(l, c));
                            }
                        }
                    }
                }
            }
            hot.frame_locals.push(frame_hot);
        }
        // Globals: Q_add sums over the whole stack.
        for (gi, decl) in program.globals.iter().enumerate() {
            let g = GlobalId(gi as u32);
            let keys: Vec<VarKey> = match decl.ty {
                Ty::Int => vec![VarKey::Global(g)],
                Ty::Array(n) => (0..n).map(|c| VarKey::GlobalCell(g, c)).collect(),
            };
            for key in keys {
                let qadd: f64 =
                    stack.iter().map(|&(f, b)| self.funcs[f.index()].qadd(b, key)).sum();
                if qadd > threshold {
                    hot.globals.push(key);
                }
            }
        }
        hot
    }

    /// The paper's Eq. 7 — the full merge criterion including the `Q_ite`
    /// cost of symbolic-but-unequal variables:
    ///
    /// `(ζ−1)·max over v with s₁(v) ≠ₛ s₂(v) of Q_ite(ℓ,v)
    ///  + max over v with s₁(v) ≠_c s₂(v) of Q_add(ℓ,v)  <  α·Q_t(ℓ)`
    ///
    /// where `≠_c` means "both concrete, different" and `≠ₛ` means
    /// "different with at least one symbolic", and
    /// `Q_ite(ℓ,v) = Q_add(ℓ,v)` (§3.3). Counts accumulate over the call
    /// stack like [`QceAnalysis::hot_set`]. `values` yields, for every
    /// tracked variable of each frame plus every global key,
    /// `(frame, key, v₁, v₂)` descriptors classified by the caller.
    pub fn similar_full(
        &self,
        program: &Program,
        stack: &[(FuncId, BlockId)],
        zeta: f64,
        mut classify: impl FnMut(usize, VarKey) -> PairClass,
    ) -> bool {
        let qt_total: f64 = stack.iter().map(|&(f, b)| self.funcs[f.index()].qt(b)).sum();
        let mut max_conc: f64 = 0.0;
        let mut max_sym: f64 = 0.0;
        for (fi, &(f, b)) in stack.iter().enumerate() {
            let fq = &self.funcs[f.index()];
            let func = program.func(f);
            for (li, decl) in func.locals.iter().enumerate() {
                let l = LocalId(li as u32);
                let keys: Vec<VarKey> = match decl.ty {
                    Ty::Int => vec![VarKey::Local(l)],
                    Ty::Array(n) => (0..n).map(|c| VarKey::LocalCell(l, c)).collect(),
                };
                for key in keys {
                    match classify(fi, key) {
                        PairClass::Equal => {}
                        PairClass::ConcreteDiffer => {
                            max_conc = max_conc.max(fq.qadd(b, key));
                        }
                        PairClass::SymbolicDiffer => {
                            max_sym = max_sym.max(fq.qadd(b, key));
                        }
                    }
                }
            }
        }
        let top = stack.len() - 1;
        for (gi, decl) in program.globals.iter().enumerate() {
            let g = GlobalId(gi as u32);
            let keys: Vec<VarKey> = match decl.ty {
                Ty::Int => vec![VarKey::Global(g)],
                Ty::Array(n) => (0..n).map(|c| VarKey::GlobalCell(g, c)).collect(),
            };
            for key in keys {
                let qadd: f64 =
                    stack.iter().map(|&(f, b)| self.funcs[f.index()].qadd(b, key)).sum();
                match classify(top, key) {
                    PairClass::Equal => {}
                    PairClass::ConcreteDiffer => max_conc = max_conc.max(qadd),
                    PairClass::SymbolicDiffer => max_sym = max_sym.max(qadd),
                }
            }
        }
        let cost = (zeta - 1.0) * max_sym + max_conc;
        // A zero-cost merge is always profitable, even where Q_t = 0
        // (program tails) — matching Eq. 1's behaviour there.
        cost == 0.0 || cost < self.config.alpha * qt_total
    }
}

/// How a variable pair relates between two merge candidates (for Eq. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairClass {
    /// Identical expressions.
    Equal,
    /// Both concrete with different values (`≠_c` — causes extra queries).
    ConcreteDiffer,
    /// Different with at least one symbolic (`≠ₛ` — introduces `ite`s).
    SymbolicDiffer,
}

// ---------------------------------------------------------------------------
// Per-function analysis
// ---------------------------------------------------------------------------

fn operand_key(o: Operand) -> Option<VarKey> {
    match o {
        Operand::Const(_) => None,
        Operand::Local(l) => Some(VarKey::Local(l)),
        Operand::Global(g) => Some(VarKey::Global(g)),
    }
}

fn array_keys(program: &Program, fid: FuncId, a: ArrayRef) -> (VarKey, Vec<VarKey>) {
    match a {
        ArrayRef::Local(l) => {
            let len = program.func(fid).locals[l.index()].ty.array_len().unwrap_or(0);
            (VarKey::LocalArray(l), (0..len).map(|c| VarKey::LocalCell(l, c)).collect())
        }
        ArrayRef::Global(g) => {
            let len = program.globals[g.index()].ty.array_len().unwrap_or(0);
            (VarKey::GlobalArray(g), (0..len).map(|c| VarKey::GlobalCell(g, c)).collect())
        }
    }
}

/// A flow-insensitive taint graph over [`VarKey`]s: `edges[dst] ⊇ srcs`
/// means `dst` may be computed from any of `srcs`.
#[derive(Debug, Default)]
struct Taint {
    edges: HashMap<VarKey, HashSet<VarKey>>,
}

impl Taint {
    fn add(&mut self, dst: VarKey, src: VarKey) {
        self.edges.entry(dst).or_default().insert(src);
    }

    fn add_operand(&mut self, dst: VarKey, src: Operand) {
        if let Some(k) = operand_key(src) {
            self.add(dst, k);
        }
    }

    /// The backward closure: every variable whose value may flow into any
    /// of `seeds`.
    fn sources_of(&self, seeds: impl IntoIterator<Item = VarKey>) -> HashSet<VarKey> {
        let mut out: HashSet<VarKey> = HashSet::new();
        let mut work: Vec<VarKey> = seeds.into_iter().collect();
        while let Some(k) = work.pop() {
            if !out.insert(k) {
                continue;
            }
            if let Some(srcs) = self.edges.get(&k) {
                work.extend(srcs.iter().copied());
            }
        }
        out
    }
}

fn build_taint(
    program: &Program,
    fid: FuncId,
    summaries: &[Option<FuncQce>],
    ret_deps: &HashMap<FuncId, HashSet<VarKey>>,
) -> Taint {
    let func = program.func(fid);
    let mut taint = Taint::default();
    for block in &func.blocks {
        for instr in &block.instrs {
            match instr {
                Instr::Assign { dest, rvalue } => {
                    let d = VarKey::Local(*dest);
                    match rvalue {
                        Rvalue::Use(o) => taint.add_operand(d, *o),
                        Rvalue::Unary { arg, .. } => taint.add_operand(d, *arg),
                        Rvalue::Binary { lhs, rhs, .. } => {
                            taint.add_operand(d, *lhs);
                            taint.add_operand(d, *rhs);
                        }
                    }
                }
                Instr::SetGlobal { dest, value } => {
                    taint.add_operand(VarKey::Global(*dest), *value);
                }
                Instr::Load { dest, array, index } => {
                    let d = VarKey::Local(*dest);
                    let (all, cells) = array_keys(program, fid, *array);
                    taint.add(d, all);
                    match index {
                        Operand::Const(i) => {
                            if let Some(&cell) = cells.get(*i as usize) {
                                taint.add(d, cell);
                            }
                        }
                        _ => {
                            // Symbolic index: any cell may be read, and the
                            // index itself influences the value.
                            for c in cells {
                                taint.add(d, c);
                            }
                            taint.add_operand(d, *index);
                        }
                    }
                }
                Instr::Store { array, index, value } => {
                    let (all, cells) = array_keys(program, fid, *array);
                    match index {
                        Operand::Const(i) => {
                            if let Some(&cell) = cells.get(*i as usize) {
                                taint.add_operand(cell, *value);
                            }
                        }
                        _ => {
                            for c in &cells {
                                taint.add_operand(*c, *value);
                                taint.add_operand(*c, *index);
                            }
                        }
                    }
                    taint.add_operand(all, *value);
                }
                Instr::Call { dest, func: callee, args } => {
                    // Return-value dependence: via the callee's summary of
                    // which params/globals flow to its return.
                    if let Some(d) = dest {
                        let dk = VarKey::Local(*d);
                        if let Some(deps) = ret_deps.get(callee) {
                            for dep in deps {
                                match dep {
                                    VarKey::Local(p) => {
                                        // p is a callee parameter: map to arg.
                                        if let Some(arg) = args.get(p.index()) {
                                            taint.add_operand(dk, *arg);
                                        }
                                    }
                                    g if g.is_global() => taint.add(dk, *g),
                                    _ => {}
                                }
                            }
                        } else {
                            // No summary yet (recursion, first round):
                            // conservatively depend on all args.
                            for a in args {
                                taint.add_operand(dk, *a);
                            }
                        }
                        let _ = summaries; // summaries used by q-computation
                    }
                    // Conservative global side effects: any global the
                    // callee may write becomes tainted by every argument.
                    // (Cheap and safe for a heuristic; refined summaries
                    // would only sharpen α's effect.)
                    for (gi, decl) in program.globals.iter().enumerate() {
                        let g = GlobalId(gi as u32);
                        let dsts: Vec<VarKey> = match decl.ty {
                            Ty::Int => vec![VarKey::Global(g)],
                            Ty::Array(_) => vec![VarKey::GlobalArray(g)],
                        };
                        if global_maybe_written(program, *callee, g) {
                            for dk in dsts {
                                for a in args {
                                    taint.add_operand(dk, *a);
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    taint
}

/// Whether `callee` (or anything it calls, one level) may write global `g`.
/// Memo-free shallow check; recursion depth bounded by 4.
fn global_maybe_written(program: &Program, callee: FuncId, g: GlobalId) -> bool {
    fn go(
        program: &Program,
        f: FuncId,
        g: GlobalId,
        depth: u32,
        seen: &mut HashSet<FuncId>,
    ) -> bool {
        if depth == 0 || !seen.insert(f) {
            return false;
        }
        for b in &program.func(f).blocks {
            for i in &b.instrs {
                match i {
                    Instr::SetGlobal { dest, .. } if *dest == g => return true,
                    Instr::Store { array: ArrayRef::Global(ag), .. } if *ag == g => return true,
                    Instr::SymArray { array: ArrayRef::Global(ag), .. } if *ag == g => return true,
                    Instr::Call { func, .. } if go(program, *func, g, depth - 1, seen) => {
                        return true;
                    }
                    _ => {}
                }
            }
        }
        false
    }
    go(program, callee, g, 4, &mut HashSet::new())
}

/// Which params/globals may flow to the return value of `f`.
fn compute_ret_deps(program: &Program, fid: FuncId, taint: &Taint) -> HashSet<VarKey> {
    let func = program.func(fid);
    let mut seeds = Vec::new();
    for b in &func.blocks {
        if let Terminator::Return(Some(o)) = &b.terminator {
            if let Some(k) = operand_key(*o) {
                seeds.push(k);
            }
        }
    }
    taint
        .sources_of(seeds)
        .into_iter()
        .filter(|k| k.is_global() || matches!(k, VarKey::Local(l) if l.index() < func.num_params))
        .collect()
}

fn analyze_function(
    program: &Program,
    fid: FuncId,
    cfg: &CfgInfo,
    summaries: &[Option<FuncQce>],
    config: QceConfig,
) -> FuncQce {
    let func = program.func(fid);

    // 1. Tracked variable universe.
    let mut vars: Vec<VarKey> = Vec::new();
    for (li, decl) in func.locals.iter().enumerate() {
        let l = LocalId(li as u32);
        match decl.ty {
            Ty::Int => vars.push(VarKey::Local(l)),
            Ty::Array(n) => {
                for c in 0..n {
                    vars.push(VarKey::LocalCell(l, c));
                }
                vars.push(VarKey::LocalArray(l));
            }
        }
    }
    for (gi, decl) in program.globals.iter().enumerate() {
        let g = GlobalId(gi as u32);
        match decl.ty {
            Ty::Int => vars.push(VarKey::Global(g)),
            Ty::Array(n) => {
                for c in 0..n {
                    vars.push(VarKey::GlobalCell(g, c));
                }
                vars.push(VarKey::GlobalArray(g));
            }
        }
    }
    let var_index: HashMap<VarKey, usize> = vars.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let nv = vars.len();

    // 2. Flow-insensitive dependence (the paper's `(ℓ,v) ◁ (ℓ',e)`).
    let mut ret_deps_map = HashMap::new();
    for (i, s) in summaries.iter().enumerate() {
        if s.is_some() {
            // Re-derive ret deps cheaply from prior taint? We recompute
            // below instead; the map carries only already-analyzed callees.
            let _ = i;
        }
    }
    // ret deps of *callees* come from their own taint graphs; compute on
    // demand (callees are analyzed before callers, so this terminates).
    for b in &func.blocks {
        for instr in &b.instrs {
            if let Instr::Call { func: callee, .. } = instr {
                ret_deps_map.entry(*callee).or_insert_with(|| {
                    let t = build_taint(program, *callee, summaries, &HashMap::new());
                    compute_ret_deps(program, *callee, &t)
                });
            }
        }
    }
    let taint = build_taint(program, fid, summaries, &ret_deps_map);

    // Per-branch / per-instruction dependence sets, as dense index sets.
    let deps_of = |seeds: Vec<VarKey>| -> Vec<usize> {
        taint.sources_of(seeds).into_iter().filter_map(|k| var_index.get(&k).copied()).collect()
    };

    // 3. Per-block direct contributions: (qt, per-var qadd) added by the
    //    block's own instructions and terminator, plus callee summaries.
    //    contribution[block] = (base vector, then-branch?, else?)
    let nb = func.blocks.len();
    let mut instr_contrib: Vec<Vec<f64>> = vec![vec![0.0; nv + 1]; nb];
    let mut branch_contrib: Vec<Option<Vec<f64>>> = vec![None; nb];
    for (bi, block) in func.blocks.iter().enumerate() {
        let contrib = &mut instr_contrib[bi];
        for instr in &block.instrs {
            match instr {
                Instr::Assert { cond, .. } => {
                    contrib[0] += 1.0;
                    if let Some(k) = operand_key(*cond) {
                        for vi in deps_of(vec![k]) {
                            contrib[1 + vi] += 1.0;
                        }
                    }
                }
                Instr::Load { index, .. } | Instr::Store { index, .. } => {
                    // A memory access whose offset could be symbolic is a
                    // query source (paper footnote 1).
                    if let Some(k) = operand_key(*index) {
                        contrib[0] += 1.0;
                        for vi in deps_of(vec![k]) {
                            contrib[1 + vi] += 1.0;
                        }
                    }
                }
                Instr::Call { func: callee, args, .. } => {
                    if let Some(cs) = summaries[callee.index()].as_ref() {
                        contrib[0] += cs.qt_entry;
                        // Caller variables flowing into arg j inherit the
                        // callee's per-param Q_add.
                        for (j, arg) in args.iter().enumerate() {
                            let w = cs.qadd_param.get(j).copied().unwrap_or(0.0);
                            if w == 0.0 {
                                continue;
                            }
                            if let Some(k) = operand_key(*arg) {
                                for vi in deps_of(vec![k]) {
                                    contrib[1 + vi] += w;
                                }
                            }
                        }
                        // Globals hot inside the callee stay hot here, and
                        // so does anything flowing into those globals.
                        for (gk, w) in &cs.qadd_global {
                            if let Some(&vi) = var_index.get(gk) {
                                contrib[1 + vi] += w;
                            }
                            for vi in deps_of(vec![*gk]) {
                                contrib[1 + vi] += w;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        if let Terminator::Branch { cond, .. } = &block.terminator {
            let mut bc = vec![0.0; nv + 1];
            bc[0] = 1.0;
            if let Some(k) = operand_key(*cond) {
                for vi in deps_of(vec![k]) {
                    bc[1 + vi] = 1.0;
                }
            }
            branch_contrib[bi] = Some(bc);
        }
    }

    // 4. The recursive q of Eq. 3, memoized on (block, loop context).
    let budgets: Vec<u64> = cfg
        .loops
        .iter()
        .map(|l| l.trip_count.unwrap_or(config.kappa).clamp(1, MAX_UNROLL))
        .collect();
    let mut solver = QSolver {
        program,
        fid,
        cfg,
        budgets: &budgets,
        instr_contrib: &instr_contrib,
        branch_contrib: &branch_contrib,
        beta: config.beta,
        memo: HashMap::new(),
    };
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(nb);
    for bi in 0..nb {
        // Per-block values use the block's "natural" loop context: entering
        // each enclosing loop with a fresh budget.
        let ctx = solver.natural_ctx(BlockId(bi as u32));
        q.push(solver.q(BlockId(bi as u32), &ctx).as_ref().clone());
    }

    let entry = q[0].clone();
    let qt_entry = entry[0];
    let qadd_param: Vec<f64> = (0..func.num_params)
        .map(|p| {
            var_index.get(&VarKey::Local(LocalId(p as u32))).map(|&vi| entry[1 + vi]).unwrap_or(0.0)
        })
        .collect();
    let mut qadd_global = BTreeMap::new();
    for (k, &vi) in &var_index {
        if k.is_global() && entry[1 + vi] > 0.0 {
            qadd_global.insert(*k, entry[1 + vi]);
        }
    }

    FuncQce { vars, var_index, q, qt_entry, qadd_param, qadd_global }
}

/// Loop context: the active loops (by index into `cfg.loops`) and their
/// remaining iteration budgets, outermost first.
type Ctx = Vec<(usize, u64)>;

struct QSolver<'a> {
    program: &'a Program,
    fid: FuncId,
    cfg: &'a CfgInfo,
    budgets: &'a [u64],
    instr_contrib: &'a [Vec<f64>],
    branch_contrib: &'a [Option<Vec<f64>>],
    beta: f64,
    memo: HashMap<(BlockId, Ctx), std::rc::Rc<Vec<f64>>>,
}

impl QSolver<'_> {
    /// The context for analyzing `block` "from outside": every loop that
    /// contains it is entered with a fresh budget.
    fn natural_ctx(&self, block: BlockId) -> Ctx {
        let mut chain = Vec::new();
        let mut cur = self.cfg.loop_of[block.index()];
        while let Some(li) = cur {
            chain.push((li, self.budgets[li]));
            cur = self.cfg.loops[li].parent;
        }
        chain.reverse();
        chain
    }

    /// Computes `q` iteratively (explicit work stack): the unrolled CFG can
    /// be thousands of block instances deep, which would overflow the call
    /// stack if implemented by direct recursion. A node whose value is
    /// demanded while it is still being expanded (a cycle that slipped past
    /// budget accounting, e.g. irreducible flow) contributes 0, matching
    /// the semantics of exhausted unrolling.
    fn q(&mut self, block: BlockId, ctx: &Ctx) -> std::rc::Rc<Vec<f64>> {
        let root = (block, ctx.clone());
        if let Some(v) = self.memo.get(&root) {
            return v.clone();
        }
        let mut in_progress: HashSet<(BlockId, Ctx)> = HashSet::new();
        let mut stack: Vec<((BlockId, Ctx), bool)> = vec![(root.clone(), false)];
        while let Some(((b, c), expanded)) = stack.pop() {
            if !expanded {
                if self.memo.contains_key(&(b, c.clone())) || in_progress.contains(&(b, c.clone()))
                {
                    continue;
                }
                in_progress.insert((b, c.clone()));
                stack.push(((b, c.clone()), true));
                for (t, next) in self.successors_with_ctx(b, &c) {
                    let key = (t, next);
                    if !self.memo.contains_key(&key) && !in_progress.contains(&key) {
                        stack.push((key, false));
                    }
                }
            } else {
                let mut acc = self.instr_contrib[b.index()].clone();
                let func = self.program.func(self.fid);
                let is_branch =
                    matches!(func.blocks[b.index()].terminator, Terminator::Branch { .. });
                if is_branch {
                    if let Some(bc) = &self.branch_contrib[b.index()] {
                        for (a, x) in acc.iter_mut().zip(bc.iter()) {
                            *a += x;
                        }
                    }
                }
                let weight = if is_branch { self.beta } else { 1.0 };
                for (t, next) in self.successors_with_ctx(b, &c) {
                    if let Some(qv) = self.memo.get(&(t, next)) {
                        for (a, x) in acc.iter_mut().zip(qv.iter()) {
                            *a += weight * x;
                        }
                    }
                    // In-progress successors (cycles) contribute 0.
                }
                in_progress.remove(&(b, c.clone()));
                self.memo.insert((b, c), std::rc::Rc::new(acc));
            }
        }
        self.memo[&root].clone()
    }

    /// The context-adjusted successors of a block.
    fn successors_with_ctx(&self, block: BlockId, ctx: &Ctx) -> Vec<(BlockId, Ctx)> {
        let func = self.program.func(self.fid);
        let targets: Vec<BlockId> = match &func.blocks[block.index()].terminator {
            Terminator::Return(_) | Terminator::Halt => vec![],
            Terminator::Goto(t) => vec![*t],
            Terminator::Branch { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
        };
        targets
            .into_iter()
            .filter_map(|t| self.succ_ctx(block, t, ctx).map(|next| (t, next)))
            .collect()
    }

    /// Adjusts the loop context when following the edge `from → to`.
    /// Returns `None` when a back edge's budget is exhausted.
    fn succ_ctx(&self, from: BlockId, to: BlockId, ctx: &Ctx) -> Option<Ctx> {
        let mut next = ctx.clone();
        // Leave loops that do not contain the target.
        while let Some(&(li, _)) = next.last() {
            if self.cfg.loops[li].body.contains(&to) {
                break;
            }
            next.pop();
        }
        // Back edge: `to` is the header of the innermost active loop and
        // `from` is inside it.
        if let Some(&(li, remaining)) = next.last() {
            if self.cfg.loops[li].header == to && self.cfg.loops[li].body.contains(&from) {
                if remaining <= 1 {
                    return None;
                }
                next.last_mut().unwrap().1 = remaining - 1;
                return Some(next);
            }
        }
        // Entering new loops (possibly several at once).
        let mut entering = Vec::new();
        let mut cur = self.cfg.loop_of[to.index()];
        while let Some(li) = cur {
            if next.iter().any(|&(l, _)| l == li) {
                break;
            }
            entering.push(li);
            cur = self.cfg.loops[li].parent;
        }
        for li in entering.into_iter().rev() {
            next.push((li, self.budgets[li]));
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmerge_ir::{Block, Function, LocalDecl};

    /// Hand-built CFG reproducing the paper's §3.2 worked example:
    ///
    /// ```text
    /// b0 (line 7):  br (arg < argc)  → b1 | b3
    /// b1 (line 8):  br (f(arg, i))   → b2 | b3
    /// b2 (line 9):  output; goto b3
    /// b3 (line 10): br r             → b4 | b5
    /// b4 (line 11): output; goto b5
    /// b5:           halt
    /// ```
    ///
    /// With α = 0.5, β = 0.6: Q_add(b0, arg) = 1 + β = 1.6,
    /// Q_add(b0, r) = β + 2β² = 1.32, Q_t(b0) = 1 + 2β + 2β² = 2.92,
    /// H(b0) = {arg}.
    fn paper_example_program() -> Program {
        use symmerge_ir::{BinOp, Operand::*, Rvalue, Terminator::*};
        let local = |name: &str| LocalDecl { name: name.into(), ty: Ty::Int };
        // locals: 0 = arg, 1 = argc, 2 = r, 3 = i, 4..6 = cond temps
        let (arg, argc, r, i, t0, t1) =
            (LocalId(0), LocalId(1), LocalId(2), LocalId(3), LocalId(4), LocalId(5));
        let f = Function {
            name: "main".into(),
            num_params: 0,
            locals: vec![
                local("arg"),
                local("argc"),
                local("r"),
                local("i"),
                local("t0"),
                local("t1"),
            ],
            blocks: vec![
                // b0: t0 = arg < argc; br t0 → b1 | b3
                Block {
                    instrs: vec![Instr::Assign {
                        dest: t0,
                        rvalue: Rvalue::Binary { op: BinOp::Lt, lhs: Local(arg), rhs: Local(argc) },
                    }],
                    terminator: Branch {
                        cond: Local(t0),
                        then_bb: BlockId(1),
                        else_bb: BlockId(3),
                    },
                },
                // b1: t1 = arg + i; br (t1) → b2 | b3   (condition depends on arg)
                Block {
                    instrs: vec![Instr::Assign {
                        dest: t1,
                        rvalue: Rvalue::Binary { op: BinOp::Add, lhs: Local(arg), rhs: Local(i) },
                    }],
                    terminator: Branch {
                        cond: Local(t1),
                        then_bb: BlockId(2),
                        else_bb: BlockId(3),
                    },
                },
                // b2: output; goto b3
                Block { instrs: vec![Instr::Output(Local(i))], terminator: Goto(BlockId(3)) },
                // b3: br r → b4 | b5
                Block {
                    instrs: vec![],
                    terminator: Branch { cond: Local(r), then_bb: BlockId(4), else_bb: BlockId(5) },
                },
                // b4: output; goto b5
                Block { instrs: vec![Instr::Output(Const(10))], terminator: Goto(BlockId(5)) },
                // b5: halt
                Block { instrs: vec![], terminator: Halt },
            ],
        };
        Program {
            functions: vec![f],
            globals: vec![],
            global_inits: vec![],
            entry: FuncId(0),
            width: 32,
        }
    }

    #[test]
    fn paper_worked_example() {
        let program = paper_example_program();
        program.validate().unwrap();
        let qce =
            QceAnalysis::run(&program, QceConfig { alpha: 0.5, beta: 0.6, kappa: 1, zeta: None });
        let fq = &qce.funcs[0];
        let b0 = BlockId(0);
        let qt = fq.qt(b0);
        let q_arg = fq.qadd(b0, VarKey::Local(LocalId(0)));
        let q_r = fq.qadd(b0, VarKey::Local(LocalId(2)));
        assert!((qt - 2.92).abs() < 1e-9, "Qt(b0) = {qt}, want 2.92");
        assert!((q_arg - 1.6).abs() < 1e-9, "Qadd(b0, arg) = {q_arg}, want 1.6");
        assert!((q_r - 1.32).abs() < 1e-9, "Qadd(b0, r) = {q_r}, want 1.32");
        // H(b0) = {arg}: only arg exceeds α·Qt = 1.46.
        let hot = qce.hot_set(&program, &[(FuncId(0), b0)]);
        assert_eq!(hot.frame_locals.len(), 1);
        assert!(hot.frame_locals[0].contains(&VarKey::Local(LocalId(0))), "arg must be hot");
        assert!(!hot.frame_locals[0].contains(&VarKey::Local(LocalId(2))), "r must not be hot");
    }

    #[test]
    fn similar_full_prices_ite_introduction() {
        // On the worked example (Qt = 2.92, Qadd(arg) = 1.6, Qadd(r) = 1.32,
        // α = 0.5 → threshold 1.46), Eq. 7 must:
        //  * allow a concrete difference on r   (1.32 < 1.46),
        //  * block a concrete difference on arg (1.60 > 1.46),
        //  * with ζ = 2, also block a *symbolic* difference on arg
        //    ((ζ−1)·1.6 = 1.6 > 1.46) — the case Eq. 1 would allow,
        //  * with ζ = 1, treat symbolic differences as free.
        let program = paper_example_program();
        let qce = QceAnalysis::run(
            &program,
            QceConfig { alpha: 0.5, beta: 0.6, kappa: 1, zeta: Some(2.0) },
        );
        let stack = [(FuncId(0), BlockId(0))];
        let arg = VarKey::Local(LocalId(0));
        let r = VarKey::Local(LocalId(2));
        let classify_with = |target: VarKey, class: PairClass| {
            move |_fi: usize, key: VarKey| if key == target { class } else { PairClass::Equal }
        };
        assert!(qce.similar_full(
            &program,
            &stack,
            2.0,
            classify_with(r, PairClass::ConcreteDiffer)
        ));
        assert!(!qce.similar_full(
            &program,
            &stack,
            2.0,
            classify_with(arg, PairClass::ConcreteDiffer)
        ));
        assert!(!qce.similar_full(
            &program,
            &stack,
            2.0,
            classify_with(arg, PairClass::SymbolicDiffer)
        ));
        assert!(qce.similar_full(
            &program,
            &stack,
            1.0,
            classify_with(arg, PairClass::SymbolicDiffer)
        ));
        // Zero cost (everything equal) always merges, even where Qt = 0.
        assert!(
            qce.similar_full(&program, &[(FuncId(0), BlockId(5))], 2.0, |_, _| PairClass::Equal)
        );
    }

    #[test]
    fn alpha_extremes() {
        let program = paper_example_program();
        // α = ∞ ⇒ nothing hot (merge everything).
        let qce = QceAnalysis::run(
            &program,
            QceConfig { alpha: f64::INFINITY, beta: 0.6, kappa: 1, zeta: None },
        );
        let hot = qce.hot_set(&program, &[(FuncId(0), BlockId(0))]);
        assert!(hot.is_empty());
        // α = 0 ⇒ every variable with any future query is hot.
        let qce =
            QceAnalysis::run(&program, QceConfig { alpha: 0.0, beta: 0.6, kappa: 1, zeta: None });
        let hot = qce.hot_set(&program, &[(FuncId(0), BlockId(0))]);
        assert!(hot.frame_locals[0].contains(&VarKey::Local(LocalId(0))));
        assert!(hot.frame_locals[0].contains(&VarKey::Local(LocalId(2))));
    }

    #[test]
    fn loops_multiply_contributions() {
        // A branch inside an 8-trip loop must weigh more than the same
        // branch outside any loop.
        let src_loop = r#"fn main() {
            let x = sym_int("x");
            for (let i = 0; i < 8; i = i + 1) { if (x == i) { putchar(i); } }
        }"#;
        let src_flat = r#"fn main() {
            let x = sym_int("x");
            if (x == 1) { putchar(1); }
        }"#;
        let p_loop = symmerge_ir::minic::compile(src_loop).unwrap();
        let p_flat = symmerge_ir::minic::compile(src_flat).unwrap();
        let q_loop = QceAnalysis::run(&p_loop, QceConfig::default());
        let q_flat = QceAnalysis::run(&p_flat, QceConfig::default());
        assert!(
            q_loop.funcs[0].qt_entry > q_flat.funcs[0].qt_entry * 2.0,
            "loop Qt {} should dwarf flat Qt {}",
            q_loop.funcs[0].qt_entry,
            q_flat.funcs[0].qt_entry
        );
    }

    #[test]
    fn kappa_bounds_unknown_loops() {
        let src = r#"fn main() {
            let n = sym_int("n");
            for (let i = 0; i < n; i = i + 1) { if (i == 3) { putchar(i); } }
        }"#;
        let p = symmerge_ir::minic::compile(src).unwrap();
        let q1 = QceAnalysis::run(&p, QceConfig { kappa: 1, ..Default::default() });
        let q8 = QceAnalysis::run(&p, QceConfig { kappa: 8, ..Default::default() });
        assert!(q8.funcs[0].qt_entry > q1.funcs[0].qt_entry);
    }

    #[test]
    fn callee_queries_count_at_call_sites() {
        let src = r#"
            fn check(v) { if (v == 7) { putchar(v); } return v; }
            fn main() { let x = sym_int("x"); let y = check(x); putchar(y); }
        "#;
        let p = symmerge_ir::minic::compile(src).unwrap();
        let q = QceAnalysis::run(&p, QceConfig::default());
        let main = p.function_by_name("main").unwrap();
        let check = p.function_by_name("check").unwrap();
        // main has no branches of its own; all its queries come from check.
        assert!(q.funcs[main.index()].qt_entry >= q.funcs[check.index()].qt_entry);
        assert!(q.funcs[check.index()].qadd_param[0] > 0.0, "param drives a branch in check");
    }

    #[test]
    fn dead_variable_is_never_hot() {
        // `dead` is never used after line 1; it must have Qadd = 0.
        let src = r#"fn main() {
            let dead = sym_int("d");
            let x = sym_int("x");
            if (x == 1) { putchar(1); }
        }"#;
        let p = symmerge_ir::minic::compile(src).unwrap();
        let q = QceAnalysis::run(&p, QceConfig { alpha: 0.0, beta: 0.8, kappa: 10, zeta: None });
        let f = p.func(p.entry);
        let dead = f.local_by_name("dead").unwrap();
        let x = f.local_by_name("x").unwrap();
        let fq = &q.funcs[p.entry.index()];
        assert_eq!(fq.qadd(BlockId(0), VarKey::Local(dead)), 0.0);
        assert!(fq.qadd(BlockId(0), VarKey::Local(x)) > 0.0);
    }

    #[test]
    fn symbolic_index_accesses_count_as_queries() {
        // The echo pattern: arr[i] with symbolic i triggers solver work.
        let src = r#"
            global arr[4];
            fn main() {
                let i = sym_int("i");
                putchar(arr[i]);
            }
        "#;
        let p = symmerge_ir::minic::compile(src).unwrap();
        let q = QceAnalysis::run(&p, QceConfig { alpha: 0.0, beta: 0.8, kappa: 10, zeta: None });
        let f = p.func(p.entry);
        let i = f.local_by_name("i").unwrap();
        let fq = &q.funcs[p.entry.index()];
        assert!(
            fq.qadd(BlockId(0), VarKey::Local(i)) > 0.0,
            "symbolic array index must count as a future query for i"
        );
    }
}
