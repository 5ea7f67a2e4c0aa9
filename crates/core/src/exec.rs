//! The single-step symbolic executor — the instruction semantics of the
//! paper's Algorithm 1 (assignments, conditional branches with feasibility
//! checks, assertions, halts) plus calls, memory and symbolic inputs.

use crate::state::{fresh_frame, Slot, State, StateId};
use symmerge_expr::{ExprId, ExprPool};
use symmerge_ir::{ArrayRef, BinOp, Instr, Operand, Program, Rvalue, Terminator, UnOp};
use symmerge_solver::Solver;

/// How a completed path ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// Reached `halt`.
    Halted,
    /// Returned from the entry function.
    Returned,
    /// Killed by an unsatisfiable `assume`.
    AssumeViolated,
}

/// A path that failed an assertion.
#[derive(Debug, Clone)]
pub struct AssertFailure {
    /// The assertion's message.
    pub msg: String,
    /// Location `(func, block, instr)` of the assertion.
    pub loc: (u32, u32, u32),
    /// The failing path condition (assertion negated), for test generation.
    pub pc: Vec<ExprId>,
}

/// The result of advancing one state by one instruction.
#[derive(Debug, Default)]
pub struct StepResult {
    /// States to put back on the worklist (0, 1, or 2 of them).
    pub successors: Vec<State>,
    /// Set when the state finished a path.
    pub completed: Option<(State, Completion)>,
    /// Set when an assertion could fail here.
    pub failure: Option<AssertFailure>,
    /// Whether a feasibility (branch) check was performed.
    pub forked: bool,
}

/// Shared mutable context for stepping.
pub struct ExecCtx<'a> {
    /// The program under execution.
    pub program: &'a Program,
    /// The expression pool.
    pub pool: &'a mut ExprPool,
    /// The constraint solver (feasibility checks).
    pub solver: &'a mut Solver,
    /// Monotonic state-id source.
    pub next_id: &'a mut u64,
}

impl<'a> ExecCtx<'a> {
    fn fresh_id(&mut self) -> StateId {
        let id = StateId(*self.next_id);
        *self.next_id += 1;
        id
    }

    fn width(&self) -> u32 {
        self.program.width
    }

    /// Reads an operand in a state.
    fn read(&mut self, state: &State, o: Operand) -> ExprId {
        match o {
            Operand::Const(c) => self.pool.bv_const_i64(c, self.width()),
            Operand::Local(l) => state.frame().locals[l.index()].as_int(),
            Operand::Global(g) => state.globals[g.index()].as_int(),
        }
    }

    fn array_cells<'s>(&self, state: &'s State, a: ArrayRef) -> &'s [ExprId] {
        let slot = match a {
            ArrayRef::Local(l) => &state.frame().locals[l.index()],
            ArrayRef::Global(g) => &state.globals[g.index()],
        };
        match slot {
            Slot::Array(cells) => cells,
            Slot::Int(_) => unreachable!("validated programs never use scalars as arrays"),
        }
    }

    fn array_cells_mut<'s>(&self, state: &'s mut State, a: ArrayRef) -> &'s mut Vec<ExprId> {
        let slot = match a {
            ArrayRef::Local(l) => &mut state.frame_mut().locals[l.index()],
            ArrayRef::Global(g) => &mut state.globals[g.index()],
        };
        match slot {
            Slot::Array(cells) => cells,
            Slot::Int(_) => unreachable!("validated programs never use scalars as arrays"),
        }
    }

    /// Translates an IR rvalue into an expression. Comparisons produce
    /// `ite(cmp, 1, 0)`, matching the C-like 0/1 semantics.
    fn eval_rvalue(&mut self, state: &State, rv: &Rvalue) -> ExprId {
        let w = self.width();
        match rv {
            Rvalue::Use(o) => self.read(state, o.to_owned()),
            Rvalue::Unary { op, arg } => {
                let a = self.read(state, *arg);
                match op {
                    UnOp::Neg => {
                        let zero = self.pool.bv_const(0, w);
                        self.pool.sub(zero, a)
                    }
                    UnOp::BitNot => {
                        let ones = self.pool.bv_const(u64::MAX, w);
                        self.pool.bv(symmerge_expr::BvBinOp::Xor, a, ones)
                    }
                    UnOp::LNot => {
                        let zero = self.pool.bv_const(0, w);
                        let is_zero = self.pool.eq(a, zero);
                        self.bool_to_int(is_zero)
                    }
                }
            }
            Rvalue::Binary { op, lhs, rhs } => {
                let a = self.read(state, *lhs);
                let b = self.read(state, *rhs);
                self.apply_binop(*op, a, b)
            }
        }
    }

    fn bool_to_int(&mut self, b: ExprId) -> ExprId {
        let w = self.width();
        let one = self.pool.bv_const(1, w);
        let zero = self.pool.bv_const(0, w);
        self.pool.ite(b, one, zero)
    }

    /// The symbolic counterpart of [`symmerge_ir::interp::eval_binop`].
    pub fn apply_binop(&mut self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
        use symmerge_expr::BvBinOp as E;
        let p = &mut *self.pool;
        let bv = |this: &mut Self, op| this.pool.bv(op, a, b);
        match op {
            BinOp::Add => p.add(a, b),
            BinOp::Sub => p.sub(a, b),
            BinOp::Mul => p.mul(a, b),
            BinOp::Div => bv(self, E::SDiv),
            BinOp::Rem => bv(self, E::SRem),
            BinOp::UDiv => bv(self, E::UDiv),
            BinOp::URem => bv(self, E::URem),
            BinOp::BitAnd => bv(self, E::And),
            BinOp::BitOr => bv(self, E::Or),
            BinOp::BitXor => bv(self, E::Xor),
            BinOp::Shl => bv(self, E::Shl),
            BinOp::Shr => bv(self, E::AShr),
            BinOp::Eq => {
                let c = self.pool.eq(a, b);
                self.bool_to_int(c)
            }
            BinOp::Ne => {
                let c = self.pool.ne(a, b);
                self.bool_to_int(c)
            }
            BinOp::Lt => {
                let c = self.pool.slt(a, b);
                self.bool_to_int(c)
            }
            BinOp::Le => {
                let c = self.pool.sle(a, b);
                self.bool_to_int(c)
            }
            BinOp::Gt => {
                let c = self.pool.sgt(a, b);
                self.bool_to_int(c)
            }
            BinOp::Ge => {
                let c = self.pool.sge(a, b);
                self.bool_to_int(c)
            }
            BinOp::ULt => {
                let c = self.pool.ult(a, b);
                self.bool_to_int(c)
            }
            BinOp::ULe => {
                let c = self.pool.ule(a, b);
                self.bool_to_int(c)
            }
        }
    }

    /// `e != 0` as a boolean expression.
    fn truthy(&mut self, e: ExprId) -> ExprId {
        let w = self.width();
        let zero = self.pool.bv_const(0, w);
        self.pool.ne(e, zero)
    }

    /// Builds the value of `array[index]`. A constant in-bounds index reads
    /// the cell directly; a symbolic index builds the
    /// `ite(i = 0, c₀, ite(i = 1, c₁, …, 0))` chain whose solver cost is
    /// exactly the effect the paper's motivating example attributes to
    /// merged states indexing arrays symbolically (§3.1).
    fn read_array(&mut self, cells: &[ExprId], index: ExprId) -> ExprId {
        let w = self.width();
        if let Some(i) = self.pool.as_bv_const(index) {
            return cells.get(i as usize).copied().unwrap_or_else(|| self.pool.bv_const(0, w));
        }
        let mut acc = self.pool.bv_const(0, w); // out-of-bounds reads 0
        for (i, &cell) in cells.iter().enumerate().rev() {
            let ic = self.pool.bv_const(i as u64, w);
            let hit = self.pool.eq(index, ic);
            acc = self.pool.ite(hit, cell, acc);
        }
        acc
    }

    /// Performs `array[index] = value` on a cell vector.
    fn write_array(&mut self, cells: &mut [ExprId], index: ExprId, value: ExprId) {
        let w = self.width();
        if let Some(i) = self.pool.as_bv_const(index) {
            if let Some(cell) = cells.get_mut(i as usize) {
                *cell = value;
            }
            return; // out-of-bounds stores drop
        }
        for (i, cell) in cells.iter_mut().enumerate() {
            let ic = self.pool.bv_const(i as u64, w);
            let hit = self.pool.eq(index, ic);
            *cell = self.pool.ite(hit, value, *cell);
        }
    }

    /// Advances `state` by one instruction or terminator.
    pub fn step(&mut self, mut state: State) -> StepResult {
        let mut out = StepResult::default();
        state.steps += 1;
        let (func, block, instr_idx) = state.loc();
        // The program outlives this context, so its instructions are
        // borrowed, not cloned, while `self` is borrowed mutably below.
        let program: &'a Program = self.program;
        let block_ref = program.block(func, block);
        if let Some(instr) = block_ref.instrs.get(instr_idx as usize) {
            state.frame_mut().instr += 1;
            match instr {
                Instr::Assign { dest, rvalue } => {
                    let v = self.eval_rvalue(&state, rvalue);
                    state.frame_mut().locals[dest.index()] = Slot::Int(v);
                }
                Instr::SetGlobal { dest, value } => {
                    let v = self.read(&state, *value);
                    state.globals[dest.index()] = Slot::Int(v);
                }
                Instr::Load { dest, array, index } => {
                    let i = self.read(&state, *index);
                    let cells = self.array_cells(&state, *array).to_vec();
                    let v = self.read_array(&cells, i);
                    state.frame_mut().locals[dest.index()] = Slot::Int(v);
                }
                Instr::Store { array, index, value } => {
                    let i = self.read(&state, *index);
                    let v = self.read(&state, *value);
                    let mut cells = std::mem::take(self.array_cells_mut(&mut state, *array));
                    self.write_array(&mut cells, i, v);
                    *self.array_cells_mut(&mut state, *array) = cells;
                }
                Instr::Call { dest, func: callee, args } => {
                    let arg_vals: Vec<ExprId> =
                        args.iter().map(|&a| self.read(&state, a)).collect();
                    let frame = fresh_frame(program, self.pool, *callee, &arg_vals, *dest);
                    state.frames.push(frame);
                }
                Instr::Output(o) => {
                    let v = self.read(&state, *o);
                    state.outputs.push(v);
                }
                Instr::Assume(o) => {
                    let v = self.read(&state, *o);
                    let cond = self.truthy(v);
                    if self.pool.is_false(cond) {
                        out.completed = Some((state, Completion::AssumeViolated));
                        return out;
                    }
                    if !self.pool.is_true(cond) {
                        out.forked = true;
                        // Prefix-shaped query: the current pc stays blasted
                        // in the solver's incremental context.
                        let feasible = self.solver.may_be_sat_assuming(self.pool, &state.pc, cond);
                        state.pc.push(cond);
                        if !feasible {
                            out.completed = Some((state, Completion::AssumeViolated));
                            return out;
                        }
                    }
                }
                Instr::Assert { cond, msg } => {
                    let v = self.read(&state, *cond);
                    let ok = self.truthy(v);
                    let bad = self.pool.not(ok);
                    if self.pool.is_true(ok) {
                        // Trivially holds.
                    } else {
                        // Does some represented path violate the assertion?
                        // A probe: the state never continues down `bad`,
                        // so it must not count as context sibling
                        // evidence (only `ok` extends the pc).
                        out.forked = true;
                        if self.solver.may_be_sat_assuming_probe(self.pool, &state.pc, bad) {
                            let mut failing_pc = state.pc.clone();
                            failing_pc.push(bad);
                            out.failure = Some(AssertFailure {
                                msg: msg.clone(),
                                loc: (func.0, block.0, instr_idx),
                                pc: failing_pc,
                            });
                        }
                        // Continue only the passing paths.
                        if self.pool.is_false(ok) {
                            return out; // no passing path; state dies
                        }
                        let passes = self.solver.may_be_sat_assuming(self.pool, &state.pc, ok);
                        state.pc.push(ok);
                        if !passes {
                            return out;
                        }
                    }
                }
                Instr::SymInt { dest, name } => {
                    let sym = state.next_sym_name(name);
                    let v = self.pool.input(&sym, self.width());
                    state.frame_mut().locals[dest.index()] = Slot::Int(v);
                }
                Instr::SymArray { array, name } => {
                    let label = state.next_sym_name(name);
                    let len = self.array_cells(&state, *array).len();
                    let w = self.width();
                    let fresh: Vec<ExprId> =
                        (0..len).map(|i| self.pool.input(&format!("{label}[{i}]"), w)).collect();
                    *self.array_cells_mut(&mut state, *array) = fresh;
                }
            }
            out.successors.push(state);
            return out;
        }

        // Terminator.
        match block_ref.terminator {
            Terminator::Goto(b) => {
                let f = state.frame_mut();
                f.block = b;
                f.instr = 0;
                out.successors.push(state);
            }
            Terminator::Branch { cond, then_bb, else_bb } => {
                let v = self.read(&state, cond);
                let c = self.truthy(v);
                if self.pool.is_true(c) {
                    let f = state.frame_mut();
                    f.block = then_bb;
                    f.instr = 0;
                    out.successors.push(state);
                } else if self.pool.is_false(c) {
                    let f = state.frame_mut();
                    f.block = else_bb;
                    f.instr = 0;
                    out.successors.push(state);
                } else {
                    // Symbolic branch: feasibility-check both sides
                    // (Algorithm 1's `follow`). Both queries share the
                    // state's pc as prefix, so on the incremental path the
                    // second polarity reuses the first's CNF outright.
                    out.forked = true;
                    let not_c = self.pool.not(c);
                    let then_ok = self.solver.may_be_sat_assuming(self.pool, &state.pc, c);
                    let else_ok = self.solver.may_be_sat_assuming(self.pool, &state.pc, not_c);
                    match (then_ok, else_ok) {
                        (true, true) => {
                            let mut other = state.clone();
                            other.id = self.fresh_id();
                            other.pc.push(not_c);
                            {
                                let f = other.frame_mut();
                                f.block = else_bb;
                                f.instr = 0;
                            }
                            state.pc.push(c);
                            {
                                let f = state.frame_mut();
                                f.block = then_bb;
                                f.instr = 0;
                            }
                            out.successors.push(state);
                            out.successors.push(other);
                        }
                        (true, false) => {
                            state.pc.push(c);
                            let f = state.frame_mut();
                            f.block = then_bb;
                            f.instr = 0;
                            out.successors.push(state);
                        }
                        (false, true) => {
                            state.pc.push(not_c);
                            let f = state.frame_mut();
                            f.block = else_bb;
                            f.instr = 0;
                            out.successors.push(state);
                        }
                        (false, false) => {
                            // The path condition itself became unsat —
                            // the state dies.
                        }
                    }
                }
            }
            Terminator::Halt => {
                out.completed = Some((state, Completion::Halted));
            }
            Terminator::Return(v) => {
                let value = match v {
                    Some(o) => self.read(&state, o),
                    None => self.pool.bv_const(0, self.width()),
                };
                let finished = state.frames.pop().expect("stack non-empty");
                if state.frames.is_empty() {
                    state.frames.push(finished); // keep the frame for reports
                    out.completed = Some((state, Completion::Returned));
                } else {
                    if let Some(dest) = finished.ret_dest {
                        state.frame_mut().locals[dest.index()] = Slot::Int(value);
                    }
                    out.successors.push(state);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmerge_ir::minic;
    use symmerge_solver::SolverConfig;

    struct Harness {
        program: Program,
        pool: ExprPool,
        solver: Solver,
        next_id: u64,
    }

    impl Harness {
        fn new(src: &str) -> Harness {
            let program = minic::compile_with_width(src, 8).unwrap();
            let pool = ExprPool::new(program.width);
            Harness { program, pool, solver: Solver::new(SolverConfig::default()), next_id: 1 }
        }

        fn initial(&mut self) -> State {
            State::initial(&self.program, &mut self.pool, StateId(0))
        }

        fn ctx(&mut self) -> ExecCtx<'_> {
            ExecCtx {
                program: &self.program,
                pool: &mut self.pool,
                solver: &mut self.solver,
                next_id: &mut self.next_id,
            }
        }

        /// Runs to quiescence with a trivial DFS, returning completions and
        /// failures.
        fn run(&mut self) -> (Vec<(State, Completion)>, Vec<AssertFailure>) {
            let mut worklist = vec![self.initial()];
            let mut done = Vec::new();
            let mut failures = Vec::new();
            let mut guard = 0;
            while let Some(s) = worklist.pop() {
                guard += 1;
                assert!(guard < 100_000, "runaway test");
                let mut ctx = self.ctx();
                let r = ctx.step(s);
                worklist.extend(r.successors);
                if let Some(c) = r.completed {
                    done.push(c);
                }
                if let Some(f) = r.failure {
                    failures.push(f);
                }
            }
            (done, failures)
        }
    }

    #[test]
    fn straight_line_completes_once() {
        let mut h = Harness::new("fn main() { let x = 1; putchar(x + 1); }");
        let (done, failures) = h.run();
        assert_eq!(done.len(), 1);
        assert!(failures.is_empty());
        let (state, completion) = &done[0];
        assert_eq!(*completion, Completion::Returned);
        assert_eq!(h.pool.as_bv_const(state.outputs[0]), Some(2));
    }

    #[test]
    fn symbolic_branch_forks_into_two_paths() {
        let mut h = Harness::new(
            r#"fn main() { let x = sym_int("x");
               if (x > 10) { putchar(1); } else { putchar(0); } }"#,
        );
        let (done, _) = h.run();
        assert_eq!(done.len(), 2);
        // Each completed state carries one pc conjunct.
        for (s, _) in &done {
            assert_eq!(s.pc.len(), 1);
            assert_eq!(s.multiplicity, 1.0);
        }
    }

    #[test]
    fn infeasible_branch_is_pruned() {
        let mut h = Harness::new(
            r#"fn main() { let x = sym_int("x");
               assume(x > 100);
               if (x > 50) { putchar(1); } else { putchar(0); } }"#,
        );
        let (done, _) = h.run();
        // x > 100 (8-bit signed) implies x > 50: only one feasible path.
        assert_eq!(done.iter().filter(|(_, c)| *c == Completion::Returned).count(), 1);
    }

    #[test]
    fn assert_failure_detected_with_model() {
        let mut h = Harness::new(r#"fn main() { let x = sym_int("x"); assert(x != 42, "boom"); }"#);
        let (done, failures) = h.run();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].msg, "boom");
        // The passing continuation also completes.
        assert_eq!(done.len(), 1);
        // The failing pc must be satisfiable with x = 42.
        let mut solver = Solver::new(SolverConfig::default());
        match solver.check(&h.pool, &failures[0].pc) {
            symmerge_solver::SatResult::Sat(m) => {
                assert_eq!(m.value_by_name(&h.pool, "x"), Some(42));
            }
            other => panic!("failing pc must be sat, got {other:?}"),
        }
    }

    #[test]
    fn calls_push_and_pop_frames() {
        let mut h = Harness::new(
            r#"fn double(v) { return v + v; }
               fn main() { putchar(double(3)); }"#,
        );
        let (done, _) = h.run();
        assert_eq!(done.len(), 1);
        assert_eq!(h.pool.as_bv_const(done[0].0.outputs[0]), Some(6));
    }

    #[test]
    fn symbolic_array_read_builds_ite_chain() {
        let mut h = Harness::new(
            r#"global a[3] = "xy";
               fn main() { let i = sym_int("i"); assume(i >= 0 && i < 2); putchar(a[i]); }"#,
        );
        let (done, _) = h.run();
        // Paths: && short-circuit forks + final completion; at least one
        // completed state must carry a symbolic (ite) output.
        let symbolic_out = done
            .iter()
            .any(|(s, _)| s.outputs.first().is_some_and(|&o| h.pool.depends_on_input(o)));
        assert!(symbolic_out, "a[i] with symbolic i must stay symbolic");
    }

    #[test]
    fn symbolic_store_updates_all_cells_guardedly() {
        let mut h = Harness::new(
            r#"global a[2];
               fn main() { let i = sym_int("i"); a[i] = 7; putchar(a[0]); }"#,
        );
        let (done, _) = h.run();
        assert_eq!(done.len(), 1);
        let out = done[0].0.outputs[0];
        // a[0] is now ite(i = 0, 7, 0): symbolic.
        assert!(h.pool.depends_on_input(out));
    }

    #[test]
    fn assume_false_kills_state() {
        let mut h = Harness::new("fn main() { assume(0); putchar(1); }");
        let (done, _) = h.run();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, Completion::AssumeViolated);
        assert!(done[0].0.outputs.is_empty());
    }

    #[test]
    fn concrete_branches_do_not_consult_solver() {
        let mut h = Harness::new("fn main() { if (1 < 2) { putchar(1); } }");
        let (done, _) = h.run();
        assert_eq!(done.len(), 1);
        assert_eq!(h.solver.stats().queries, 0);
    }
}
