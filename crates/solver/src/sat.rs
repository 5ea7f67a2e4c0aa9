//! A CDCL SAT solver: watched literals, first-UIP learning, VSIDS,
//! phase saving, Luby restarts and learnt-clause database reduction.
//!
//! The design follows MiniSat's architecture, including its *incremental*
//! interface: clauses and variables can be added between solves
//! ([`SatSolver::add_clause`] / [`SatSolver::ensure_vars`]) and queries can
//! be posed under assumption literals
//! ([`SatSolver::solve_under_assumptions`]), which keeps learnt clauses,
//! variable activities and saved phases alive across a whole sequence of
//! related queries. The non-incremental usage (fresh CNF, fresh solver per
//! query — how KLEE drives STP in the paper's prototype) is the special
//! case [`SatSolver::from_cnf`] + [`SatSolver::solve`].

use crate::cnf::{Cnf, Lit, Var};

/// The result of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// Satisfiable, with a full assignment indexed by variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a decision was reached.
    Unknown,
}

/// Counters describing the work a [`SatSolver`] performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clauses learnt.
    pub learnt: u64,
    /// Total literals across stored learnt clauses, counted *after*
    /// conflict-clause minimization — `learnt_lits / learnt` is the mean
    /// learnt-clause width, the observable that ccmin shrinks.
    pub learnt_lits: u64,
}

/// A stored clause's header. Its literals live in [`SatSolver`]'s arena at
/// `start..start + len`; `lits[0]` and `lits[1]` are the watched pair.
///
/// Clause refs are indices into the header vector. Reasons, watch links
/// and the learnt-clause sort hold them, so a deleted clause keeps its
/// header slot (with `len` 0) until [`SatSolver::compact_learnts`]
/// drops the deleted slots, renumbering the live clauses in order and
/// rebuilding the watch lists.
#[derive(Debug, Clone, Copy)]
struct Clause {
    start: u32,
    len: u32,
    /// The next clause in the watch list of `lits[0]` (`next[0]`) and of
    /// `lits[1]` (`next[1]`), or [`NIL`]. A link belongs to its literal,
    /// not its position: swapping `lits[0]` and `lits[1]` swaps `next`
    /// too, so the other list's chain through this clause stays valid.
    next: [u32; 2],
    activity: f64,
    learnt: bool,
    deleted: bool,
}

/// One literal's watch list: an intrusive singly linked chain of the
/// clauses watching it, threaded through [`Clause::next`], in the order
/// they were appended.
#[derive(Debug, Clone, Copy)]
struct WatchList {
    head: u32,
    tail: u32,
}

/// The empty link.
const NIL: u32 = u32::MAX;

const EMPTY_WATCHES: WatchList = WatchList { head: NIL, tail: NIL };

/// The clause ref of header index `i`.
fn cref(i: usize) -> u32 {
    u32::try_from(i).expect("clause refs fit in u32")
}

const UNASSIGNED: i8 = -1;

/// Copies `v` into a buffer with growth room of a quarter of its length
/// plus 64 elements. A fork is extended right away (every fork is
/// followed by a new conjunct), and a `Vec::clone` leaves capacity equal
/// to length, so without the room the child's first push would
/// reallocate and copy the whole buffer a second time.
fn with_room<T: Copy>(v: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(v.len() + v.len() / 4 + 64);
    out.extend_from_slice(v);
    out
}

/// A CDCL SAT solver over a fixed CNF.
///
/// Every vector in the solver holds plain `Copy` data — clause headers,
/// one literal arena, flat watch lists — so a [`SatSolver::fork`] is one
/// `memcpy` per vector, and dropping a solver frees a fixed handful of
/// buffers, however many clauses it holds. The solver is not `Clone`:
/// [`SatSolver::fork`] is its one copy path.
#[derive(Debug)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    /// Every stored clause's literals, back to back.
    arena: Vec<Lit>,
    /// Arena literals no live clause owns (deleted clauses, literals
    /// stripped by strengthening); [`SatSolver::compact_learnts`]
    /// collects them.
    garbage: usize,
    watches: Vec<WatchList>, // indexed by Lit::code()
    assigns: Vec<i8>,        // UNASSIGNED / 0 (false) / 1 (true)
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: Vec<u32>,     // binary max-heap of variables by activity
    heap_pos: Vec<i32>, // var -> position in heap, or -1
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    num_learnt: usize,
    /// Live (non-deleted) stored clauses, original + learnt — the O(1)
    /// size signal the solver-context tree charges clause-weighted
    /// eviction with. Unit clauses are enqueued on the trail rather than
    /// stored and are not counted.
    live_clauses: usize,
    /// Header slots compaction has dropped. The learnt-store limit
    /// counts every slot ever allocated, deleted ones included, so that
    /// dropping them changes no decision.
    dropped_slots: usize,
    conflict_budget: Option<u64>,
    failed_assumptions: Vec<Lit>,
    ccmin: bool,
    /// Level-0 trail length at the last [`SatSolver::compact_learnts`]
    /// full-DB sweep — the original-clause pass is skipped until new
    /// level-0 facts arrive, so repeated forks of the same parent only
    /// re-scan the (small) learnt store.
    compacted_trail: usize,
    stats: SatStats,
}

impl SatSolver {
    /// Builds a solver over the given CNF.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let n = cnf.num_vars();
        let mut s = SatSolver {
            clauses: Vec::with_capacity(cnf.num_clauses()),
            arena: Vec::new(),
            garbage: 0,
            watches: vec![EMPTY_WATCHES; 2 * n],
            assigns: vec![UNASSIGNED; n],
            level: vec![0; n],
            reason: vec![None; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: Vec::with_capacity(n),
            heap_pos: vec![-1; n],
            phase: vec![false; n],
            seen: vec![false; n],
            ok: true,
            num_learnt: 0,
            live_clauses: 0,
            dropped_slots: 0,
            conflict_budget: None,
            failed_assumptions: Vec::new(),
            ccmin: true,
            compacted_trail: 0,
            stats: SatStats::default(),
        };
        for v in 0..n as u32 {
            s.heap_insert(v);
        }
        for clause in cnf.clauses() {
            s.add_clause(clause);
            if !s.ok {
                break;
            }
        }
        s
    }

    /// Snapshots the solver into an independent copy: clause database
    /// (including every learnt clause), variable activities and order
    /// heap, saved phases, and the level-0 trail all carry over, so the
    /// fork resumes with the full heuristic state of the parent instead
    /// of relearning it.
    ///
    /// The copy costs one `memcpy` per internal vector: clause headers,
    /// the literal arena and the watch lists are flat `Copy` data, and
    /// nothing is shared, so parent and fork diverge freely. Each copy
    /// gets growth room (a quarter of its length plus 64), so the fork's
    /// first clauses and variables land without copying any vector
    /// again. Call [`SatSolver::compact_learnts`] first to leave the
    /// arena's garbage behind.
    ///
    /// Forking is only meaningful between queries —
    /// [`SatSolver::solve_under_assumptions`] always backtracks to
    /// decision level 0 before returning, so nothing above level 0 can
    /// leak into the snapshot. Keeping learnt clauses is sound because
    /// they are implied by the clause database alone (assumptions are
    /// decisions, never clauses), and the incremental usage only ever
    /// *adds* clauses: everything the parent learnt remains implied in
    /// the fork no matter how the two diverge afterwards.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the solver is at decision level 0.
    pub fn fork(&self) -> SatSolver {
        debug_assert_eq!(self.decision_level(), 0, "fork mid-query");
        SatSolver {
            clauses: with_room(&self.clauses),
            arena: with_room(&self.arena),
            garbage: self.garbage,
            watches: with_room(&self.watches),
            assigns: with_room(&self.assigns),
            level: with_room(&self.level),
            reason: with_room(&self.reason),
            trail: with_room(&self.trail),
            trail_lim: with_room(&self.trail_lim),
            qhead: self.qhead,
            activity: with_room(&self.activity),
            var_inc: self.var_inc,
            cla_inc: self.cla_inc,
            heap: with_room(&self.heap),
            heap_pos: with_room(&self.heap_pos),
            phase: with_room(&self.phase),
            seen: with_room(&self.seen),
            ok: self.ok,
            num_learnt: self.num_learnt,
            live_clauses: self.live_clauses,
            dropped_slots: self.dropped_slots,
            conflict_budget: self.conflict_budget,
            failed_assumptions: self.failed_assumptions.clone(),
            ccmin: self.ccmin,
            compacted_trail: self.compacted_trail,
            stats: self.stats,
        }
    }

    /// Limits the number of conflicts *per solve call* before the solver
    /// gives up with [`SolveOutcome::Unknown`]; `None` removes the limit.
    ///
    /// The budget is relative to each call, not cumulative, so a reused
    /// incremental solver gets a fresh allowance on every
    /// [`SatSolver::solve_under_assumptions`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Enables or disables recursive conflict-clause minimization
    /// (MiniSat-style ccmin), which is on by default. Minimization only
    /// shrinks learnt clauses — every dropped literal is implied by the
    /// remaining ones — so the setting never changes verdicts, only
    /// clause widths.
    pub fn set_ccmin(&mut self, on: bool) {
        self.ccmin = on;
    }

    /// Snapshots the live learnt clauses. Every returned clause is implied
    /// by the original clause database (test hook: re-asserting its
    /// negation must be unsat even after minimization).
    pub fn learnt_clauses(&self) -> Vec<Vec<Lit>> {
        (0..self.clauses.len())
            .filter(|&i| self.clauses[i].learnt && !self.clauses[i].deleted)
            .map(|i| self.lits(i).to_vec())
            .collect()
    }

    /// Work counters.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Number of live (non-deleted) stored clauses, original + learnt —
    /// the memory-residency proxy clause-weighted context eviction
    /// charges by. O(1): maintained incrementally.
    pub fn num_clauses(&self) -> usize {
        self.live_clauses
    }

    /// Whether the clause database is still consistent. Once this turns
    /// `false` the formula is unsatisfiable regardless of assumptions.
    pub fn is_consistent(&self) -> bool {
        self.ok
    }

    /// After an [`SolveOutcome::Unsat`] from
    /// [`SatSolver::solve_under_assumptions`] with `is_consistent()` still
    /// true: a subset of the assumption literals that already conflicts
    /// with the clause database (an assumption core).
    ///
    /// Note: the high-level `Solver` currently assumes a single extra
    /// literal per query, where this core is degenerate (it is that
    /// literal); its counterexample cache instead refines unsat cores
    /// from independence slices. This API is
    /// for multi-assumption callers of the incremental solver.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed_assumptions
    }

    /// Grows the variable tables to at least `n` variables so literals
    /// over new variables can appear in subsequently added clauses and
    /// assumptions (incremental clause addition).
    pub fn ensure_vars(&mut self, n: usize) {
        while self.assigns.len() < n {
            let v = self.assigns.len() as u32;
            self.watches.push(EMPTY_WATCHES);
            self.watches.push(EMPTY_WATCHES);
            self.assigns.push(UNASSIGNED);
            self.level.push(0);
            self.reason.push(None);
            self.activity.push(0.0);
            self.heap_pos.push(-1);
            self.phase.push(false);
            self.seen.push(false);
            self.heap_insert(v);
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        match self.assigns[l.var().index()] {
            UNASSIGNED => None,
            v => Some((v == 1) != l.is_negative()),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// The literals of clause `i`.
    fn lits(&self, i: usize) -> &[Lit] {
        let c = &self.clauses[i];
        &self.arena[c.start as usize..(c.start + c.len) as usize]
    }

    /// Stores a clause of at least two literals and watches its first two.
    fn push_clause(&mut self, lits: &[Lit], learnt: bool, activity: f64) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = cref(self.clauses.len());
        let start = u32::try_from(self.arena.len()).expect("the clause arena fits in u32");
        let len = u32::try_from(lits.len()).expect("clause lengths fit in u32");
        self.arena.extend_from_slice(lits);
        self.clauses.push(Clause { start, len, next: [NIL; 2], activity, learnt, deleted: false });
        self.watch(cref, 0);
        self.watch(cref, 1);
        self.live_clauses += 1;
        cref
    }

    /// Appends clause `cref` to the tail of the watch list of its
    /// literal at `slot` (0 or 1) — the `Vec::push` of the flat layout.
    fn watch(&mut self, cref: u32, slot: usize) {
        let c = self.clauses[cref as usize];
        let l = self.arena[c.start as usize + slot];
        self.clauses[cref as usize].next[slot] = NIL;
        let list = self.watches[l.code()];
        if list.tail == NIL {
            self.watches[l.code()].head = cref;
        } else {
            let t = self.clauses[list.tail as usize];
            let tail_slot = usize::from(self.arena[t.start as usize] != l);
            debug_assert_eq!(self.arena[t.start as usize + tail_slot], l, "watch invariant");
            self.clauses[list.tail as usize].next[tail_slot] = cref;
        }
        self.watches[l.code()].tail = cref;
    }

    /// Rebuilds every watch list from the clause headers: each live
    /// clause is appended to the lists of `lits[0]` and `lits[1]`, so
    /// every list comes out in clause-ref order.
    fn rebuild_watches(&mut self) {
        self.watches.fill(EMPTY_WATCHES);
        for i in 0..self.clauses.len() {
            if !self.clauses[i].deleted && self.clauses[i].len >= 2 {
                self.watch(cref(i), 0);
                self.watch(cref(i), 1);
            }
        }
    }

    /// Adds a clause at decision level 0. Usable between solves for
    /// incremental clause addition; all variables must already exist
    /// (see [`SatSolver::ensure_vars`]).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return;
        }
        // Canonicalize: drop duplicates / satisfied clauses / false lits.
        // Sorting puts a literal next to its negation, so one pass over
        // adjacent pairs finds tautologies.
        let mut out = lits.to_vec();
        out.sort_unstable();
        out.dedup();
        if out.windows(2).any(|w| w[0] == !w[1]) || out.iter().any(|&l| self.value(l) == Some(true))
        {
            return; // tautology, or already satisfied at level 0
        }
        out.retain(|&l| self.value(l).is_none()); // drop the false literals
        match out.len() {
            0 => self.ok = false,
            1 => {
                self.enqueue(out[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                self.push_clause(&out, false, 0.0);
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.value(l), None);
        let v = l.var().index();
        self.assigns[v] = i8::from(!l.is_negative());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = !l.is_negative();
        self.trail.push(l);
    }

    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Walk `false_lit`'s list in order. A clause that finds a new
            // watch is unlinked and appended to that literal's tail; every
            // other clause keeps its place, and after a conflict the
            // unvisited rest stays linked as is. Order invariant: every
            // list holds its clauses in append order minus those that
            // moved away — the order per-literal vectors with push and
            // retain would hold — because the search order (and so every
            // model and counter) depends on it.
            let mut prev = NIL; // the last clause kept in this list
            let mut cref = self.watches[false_lit.code()].head;
            while cref != NIL {
                let ci = cref as usize;
                debug_assert!(!self.clauses[ci].deleted, "deleted clauses are never watched");
                let start = self.clauses[ci].start as usize;
                // Ensure the falsified literal sits at position 1; its
                // link moves with it.
                if self.arena[start] == false_lit {
                    self.arena.swap(start, start + 1);
                    self.clauses[ci].next.swap(0, 1);
                }
                debug_assert_eq!(self.arena[start + 1], false_lit, "watch invariant");
                let next = self.clauses[ci].next[1];
                let first = self.arena[start];
                if self.value(first) == Some(true) {
                    prev = cref;
                    cref = next;
                    continue;
                }
                // Look for a replacement watch.
                let end = start + self.clauses[ci].len as usize;
                if let Some(k) =
                    (start + 2..end).find(|&k| self.value(self.arena[k]) != Some(false))
                {
                    self.arena.swap(start + 1, k);
                    if prev == NIL {
                        self.watches[false_lit.code()].head = next;
                    } else {
                        // Kept clauses have `false_lit` at position 1.
                        self.clauses[prev as usize].next[1] = next;
                    }
                    if next == NIL {
                        self.watches[false_lit.code()].tail = prev;
                    }
                    self.watch(cref, 1);
                    cref = next;
                    continue;
                }
                if self.value(first) == Some(false) {
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                prev = cref;
                cref = next;
            }
        }
        None
    }

    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::new(Var(0), false)]; // slot for the asserting literal
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            {
                let ci = confl as usize;
                self.bump_clause(ci);
                let c = self.clauses[ci];
                let from = c.start as usize + usize::from(p.is_some());
                for k in from..(c.start + c.len) as usize {
                    let q = self.arena[k];
                    let v = q.var().index();
                    if !self.seen[v] && self.level[v] > 0 {
                        self.seen[v] = true;
                        self.bump_var(v);
                        if self.level[v] >= self.decision_level() {
                            path_count += 1;
                        } else {
                            learnt.push(q);
                        }
                    }
                }
            }
            // Find the next marked literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            confl = self.reason[pl.var().index()].expect("non-decision literal must have a reason");
        }
        // Recursive clause minimization (MiniSat ccmin): a non-asserting
        // literal is redundant when every antecedent chain from its reason
        // bottoms out in level-0 facts or literals already in the clause —
        // the clause without it is still implied, and shorter learnt
        // clauses propagate earlier and cost less to carry in forked
        // context DBs. At this point `seen` is true exactly for the vars
        // of `learnt[1..]`, which is what the domination walk tests
        // against; extra vars marked during probes are recorded in
        // `to_clear` so the final unmark loop can undo them.
        let mut to_clear: Vec<usize> = learnt.iter().map(|l| l.var().index()).collect();
        if self.ccmin && learnt.len() > 1 {
            let mut abstract_levels = 0u32;
            for &l in &learnt[1..] {
                abstract_levels |= 1 << (self.level[l.var().index()] & 31);
            }
            let mut j = 1;
            for i in 1..learnt.len() {
                let l = learnt[i];
                if self.reason[l.var().index()].is_none()
                    || !self.lit_redundant(l, abstract_levels, &mut to_clear)
                {
                    learnt[j] = l;
                    j += 1;
                }
            }
            learnt.truncate(j);
        }
        // Compute the backtrack level and position its literal at index 1.
        let back_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        for v in to_clear {
            self.seen[v] = false;
        }
        (learnt, back_level)
    }

    /// The ccmin domination walk: true iff `p`'s reason antecedents all
    /// bottom out in level-0 facts or clause literals (`seen`), possibly
    /// through further implied literals. Vars marked along a *successful*
    /// walk stay marked (they are themselves redundant-or-in-clause, so
    /// later probes can reuse the work) and are pushed onto `to_clear`;
    /// a failed walk unmarks everything it added.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32, to_clear: &mut Vec<usize>) -> bool {
        let top = to_clear.len();
        let mut stack = vec![p];
        while let Some(l) = stack.pop() {
            let cref = self.reason[l.var().index()].expect("redundancy probe requires a reason");
            // Reason clauses keep their implied literal at position 0
            // (see `propagate`), so the antecedents are `lits[1..]`.
            let c = self.clauses[cref as usize];
            for k in c.start as usize + 1..(c.start + c.len) as usize {
                let q = self.arena[k];
                let v = q.var().index();
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if self.reason[v].is_none() || (1u32 << (self.level[v] & 31)) & abstract_levels == 0
                {
                    for &u in &to_clear[top..] {
                        self.seen[u] = false;
                    }
                    to_clear.truncate(top);
                    return false;
                }
                self.seen[v] = true;
                to_clear.push(v);
                stack.push(q);
            }
        }
        true
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var().index();
            self.assigns[v] = UNASSIGNED;
            self.reason[v] = None;
            self.heap_insert(v as u32);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = lim;
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v as u32);
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.clauses[ci].learnt {
            return;
        }
        self.clauses[ci].activity += self.cla_inc;
        if self.clauses[ci].activity > 1e20 {
            for c in &mut self.clauses {
                if c.learnt {
                    c.activity *= 1e-20;
                }
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    // ----- activity heap ------------------------------------------------

    fn heap_less(&self, a: u32, b: u32) -> bool {
        self.activity[a as usize] > self.activity[b as usize]
    }

    fn heap_insert(&mut self, v: u32) {
        if self.heap_pos[v as usize] >= 0 {
            return;
        }
        self.heap_pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_update(&mut self, v: u32) {
        let pos = self.heap_pos[v as usize];
        if pos >= 0 {
            self.heap_sift_up(pos as usize);
        }
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i] as usize] = i as i32;
        self.heap_pos[self.heap[j] as usize] = j as i32;
    }

    fn heap_pop(&mut self) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top as usize] = -1;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    // ----- learnt-clause database reduction -------------------------------

    /// Whether clause `i` is the reason of its first literal's current
    /// assignment (such a clause must be kept).
    fn locked(&self, i: usize) -> bool {
        let l0 = self.arena[self.clauses[i].start as usize];
        self.value(l0) == Some(true) && self.reason[l0.var().index()] == Some(cref(i))
    }

    fn reduce_db(&mut self) {
        let mut cands: Vec<u32> = Vec::new();
        for (i, c) in self.clauses.iter().enumerate() {
            if !c.learnt || c.deleted || c.len <= 2 {
                continue;
            }
            // Locked clauses (currently a reason) must be kept.
            if !self.locked(i) {
                cands.push(cref(i));
            }
        }
        cands.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let to_remove = cands.len() / 2;
        for &cref in &cands[..to_remove] {
            self.delete_clause(cref as usize);
        }
        // Rebuild the watch lists from scratch (watch invariant: positions 0, 1).
        self.rebuild_watches();
    }

    /// Fork-time clause-DB compaction: a level-0 satisfied-clause sweep
    /// over the whole clause database plus bounded self-subsumption over
    /// the learnt store, then garbage collection of the deleted clauses'
    /// header slots and of the literal arena.
    /// Returns the number of clauses removed or strengthened.
    ///
    /// A fork copies the whole clause database, so every clause the
    /// parent carries is paid again in each child (the "bigger warm DB"
    /// tax). Compacting just before the snapshot drops clauses
    /// already satisfied by level-0 facts, strips falsified literals,
    /// and applies self-subsumption (`C` strengthens `D` when
    /// `C ⊆ D ∪ {¬l}` for exactly one flipped literal `l` — `D` minus
    /// `¬l` is still implied). Level-0 facts are permanent (the prefix
    /// is append-only and level 0 is never backtracked), so the sweep is
    /// sound for original Tseitin clauses too, not just learnt ones —
    /// and a merged prefix's satisfied clauses overwhelmingly live in
    /// the original CNF. Everything removed is redundant with the
    /// remaining database plus the trail, so verdicts are unchanged for
    /// parent and fork alike. Deleted and strengthened clauses leave
    /// their header slots and literals behind; the closing collection
    /// packs the live clauses together so neither side of a fork copies
    /// them.
    /// Must be called between queries (decision level 0).
    pub fn compact_learnts(&mut self) -> u64 {
        debug_assert_eq!(self.decision_level(), 0, "compact mid-query");
        if !self.ok {
            return 0;
        }
        let mut compacted = 0u64;
        let mut units: Vec<Lit> = Vec::new();
        // Pass 1: sweep against the level-0 trail — delete satisfied
        // clauses, strip falsified literals. Locked clauses (reasons for
        // level-0 implied literals) are left untouched. The full-DB part
        // is gated on the trail having grown since the last sweep;
        // without new level-0 facts only the (small) learnt store can
        // have changed, so repeated forks of one parent stay cheap.
        let sweep_originals = self.trail.len() > self.compacted_trail;
        for i in 0..self.clauses.len() {
            let c = self.clauses[i];
            if c.deleted || (!c.learnt && !sweep_originals) || self.locked(i) {
                continue;
            }
            // Unassigned literals slide down in place, keeping their
            // order; a satisfied clause is deleted whatever was moved.
            let start = c.start as usize;
            let mut satisfied = false;
            let mut kept = 0;
            for k in start..start + c.len as usize {
                let l = self.arena[k];
                match self.value(l) {
                    Some(true) => {
                        satisfied = true;
                        break;
                    }
                    Some(false) => {}
                    None => {
                        self.arena[start + kept] = l;
                        kept += 1;
                    }
                }
            }
            if satisfied {
                self.delete_clause(i);
                compacted += 1;
            } else if kept < c.len as usize {
                compacted += 1;
                match kept {
                    0 => self.ok = false,
                    1 => {
                        units.push(self.arena[start]);
                        self.delete_clause(i);
                    }
                    _ => self.shrink_clause(i, kept),
                }
            }
        }
        self.compacted_trail = self.trail.len();
        // Pass 2: bounded self-subsumption among the surviving learnt
        // clauses, shortest subsumers first. Variable signatures reject
        // most pairs in O(1); the exact check tolerates one flipped
        // literal (self-subsumption) or zero (plain subsumption).
        const SUBSUMER_MAX_LITS: usize = 8;
        let mut check_budget: usize = 200_000;
        let var_sig =
            |lits: &[Lit]| lits.iter().fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64));
        let mut refs: Vec<u32> = (0..self.clauses.len())
            .filter(|&i| {
                let c = &self.clauses[i];
                c.learnt && !c.deleted && !self.locked(i)
            })
            .map(cref)
            .collect();
        refs.sort_by_key(|&r| self.clauses[r as usize].len);
        // Occurrence lists, flat: `(variable, clause ref)` pairs, stably
        // sorted by variable, so each variable's run lists its clauses in
        // `refs` order.
        let mut occ: Vec<(u32, u32)> = Vec::new();
        for &r in &refs {
            occ.extend(self.lits(r as usize).iter().map(|l| (l.var().0, r)));
        }
        occ.sort_by_key(|&(v, _)| v);
        let occurrences = |v: u32| {
            let from = occ.partition_point(|&(w, _)| w < v);
            let to = from + occ[from..].partition_point(|&(w, _)| w == v);
            &occ[from..to]
        };
        // The subsumer's literals, copied out once per subsumer so the
        // candidates can be rewritten in place.
        let mut c_lits: Vec<Lit> = Vec::new();
        for &cref in &refs {
            if check_budget == 0 {
                break;
            }
            let c = self.clauses[cref as usize];
            if c.deleted || c.len as usize > SUBSUMER_MAX_LITS {
                continue;
            }
            c_lits.clear();
            c_lits.extend_from_slice(self.lits(cref as usize));
            let csig = var_sig(&c_lits);
            // Probe via the clause's rarest variable.
            let probe = c_lits
                .iter()
                .min_by_key(|l| occurrences(l.var().0).len())
                .expect("stored clauses are non-empty")
                .var()
                .0;
            for &(_, dref) in occurrences(probe) {
                if dref == cref || check_budget == 0 {
                    continue;
                }
                check_budget -= 1;
                let d = self.clauses[dref as usize];
                let d_lits = self.lits(dref as usize);
                if d.deleted || d_lits.len() < c_lits.len() || csig & !var_sig(d_lits) != 0 {
                    continue;
                }
                // C subsumes D if every C literal occurs in D; one
                // polarity flip means D can drop the flipped literal.
                let mut flipped: Option<Lit> = None;
                let mut ok = true;
                for &l in &c_lits {
                    if d_lits.contains(&l) {
                        continue;
                    }
                    if d_lits.contains(&!l) && flipped.is_none() {
                        flipped = Some(!l);
                    } else {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    continue;
                }
                match flipped {
                    None => {
                        self.delete_clause(dref as usize);
                        compacted += 1;
                    }
                    Some(drop) => {
                        // Remove `drop`, keeping the order of the rest.
                        let start = d.start as usize;
                        let at = d_lits.iter().position(|&l| l == drop).expect("flipped literal");
                        self.arena.copy_within(start + at + 1..start + d.len as usize, start + at);
                        self.shrink_clause(dref as usize, d.len as usize - 1);
                        compacted += 1;
                        if d.len == 2 {
                            units.push(self.arena[start]);
                            self.delete_clause(dref as usize);
                        }
                    }
                }
            }
        }
        if compacted > 0 {
            // Strengthened clauses may have lost a watched literal:
            // rebuild the watch lists wholesale, as `reduce_db` does,
            // before any propagation touches them. The rebuild lists
            // clauses in ref order, which renumbering keeps, so the
            // deleted slots can go first.
            self.drop_deleted_slots();
            self.rebuild_watches();
            for l in units {
                match self.value(l) {
                    Some(true) => {}
                    Some(false) => self.ok = false,
                    None => {
                        self.enqueue(l, None);
                        if self.propagate().is_some() {
                            self.ok = false;
                        }
                    }
                }
            }
        }
        if self.garbage > 0 {
            self.collect_garbage();
        }
        compacted
    }

    /// Shortens clause `i` to its first `len` literals; the rest of its
    /// arena range becomes garbage.
    fn shrink_clause(&mut self, i: usize, len: usize) {
        let c = &mut self.clauses[i];
        self.garbage += c.len as usize - len;
        c.len = u32::try_from(len).expect("clause lengths fit in u32");
    }

    /// Marks clause `i` deleted. Its header slot and its literals become
    /// garbage until a [`SatSolver::compact_learnts`] collects them, so
    /// no fork keeps paying for them.
    fn delete_clause(&mut self, i: usize) {
        debug_assert!(!self.clauses[i].deleted);
        if self.clauses[i].learnt {
            self.num_learnt -= 1;
        }
        self.live_clauses -= 1;
        self.shrink_clause(i, 0);
        self.clauses[i].deleted = true;
    }

    /// Drops the headers of deleted clauses, renumbering the live ones in
    /// ref order, and remaps the reasons. Watch links still hold the old
    /// refs: the caller rebuilds the watch lists next.
    fn drop_deleted_slots(&mut self) {
        let mut renumbered = vec![NIL; self.clauses.len()];
        let mut live = 0;
        for (i, new_ref) in renumbered.iter_mut().enumerate() {
            if !self.clauses[i].deleted {
                *new_ref = cref(live);
                self.clauses[live] = self.clauses[i];
                live += 1;
            }
        }
        self.dropped_slots += self.clauses.len() - live;
        self.clauses.truncate(live);
        // Only assigned variables hold a reason (backtracking clears
        // it), and an assigned variable's reason is locked, so it is
        // never deleted.
        for r in self.reason.iter_mut().flatten() {
            debug_assert_ne!(renumbered[*r as usize], NIL, "a reason was deleted");
            *r = renumbered[*r as usize];
        }
    }

    /// Packs the live clauses' literals to the front of the arena, in
    /// place and in clause-ref order, and drops the freed tail (a fork
    /// copies only the live length). Clauses are appended in ref order
    /// and only ever shrink in place, so their starts ascend with their
    /// refs and every move is downward. Only `start` fields change:
    /// refs, literal order and watch links are untouched.
    fn collect_garbage(&mut self) {
        let mut to = 0;
        for c in &mut self.clauses {
            let (from, len) = (c.start as usize, c.len as usize);
            debug_assert!(to <= from, "clause starts ascend with refs");
            self.arena.copy_within(from..from + len, to);
            c.start = u32::try_from(to).expect("the clause arena fits in u32");
            to += len;
        }
        self.arena.truncate(to);
        self.garbage = 0;
    }

    // ----- main loop -------------------------------------------------------

    /// Decides the formula (no assumptions).
    pub fn solve(&mut self) -> SolveOutcome {
        self.solve_under_assumptions(&[])
    }

    /// Decides the formula under the given assumption literals.
    ///
    /// Assumptions are placed as the first decisions, MiniSat-style, so
    /// they never touch the clause database: everything learnt during the
    /// call remains valid for later calls with *different* assumptions.
    /// On [`SolveOutcome::Unsat`] caused by the assumptions,
    /// [`SatSolver::failed_assumptions`] holds an assumption core and
    /// [`SatSolver::is_consistent`] stays `true`; if the clause database
    /// itself is unsatisfiable, `is_consistent` turns `false`. The solver
    /// backtracks to decision level 0 before returning, so it is always
    /// ready for more clauses or another query.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        self.failed_assumptions.clear();
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveOutcome::Unsat;
        }
        let conflicts_at_entry = self.stats.conflicts;
        let mut restart_idx: u64 = 0;
        let mut conflicts_until_restart = luby(restart_idx) * 100;
        let mut conflicts_this_restart: u64 = 0;
        // Counts clause slots, deleted and dropped ones included: the
        // reduction schedule is part of the search order.
        let slots = self.clauses.len() + self.dropped_slots;
        let mut max_learnt = (slots as f64 * 0.4).max(4000.0);
        let outcome = 'search: loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - conflicts_at_entry >= budget {
                        break 'search SolveOutcome::Unknown;
                    }
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    break 'search SolveOutcome::Unsat;
                }
                let (learnt, back_level) = self.analyze(confl);
                self.backtrack_to(back_level);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.enqueue(asserting, None);
                } else {
                    self.stats.learnt_lits += learnt.len() as u64;
                    let cref = self.push_clause(&learnt, true, self.cla_inc);
                    self.num_learnt += 1;
                    self.stats.learnt += 1;
                    self.enqueue(asserting, Some(cref));
                }
                self.decay_activities();
            } else {
                if conflicts_this_restart >= conflicts_until_restart {
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    conflicts_until_restart = luby(restart_idx) * 100;
                    conflicts_this_restart = 0;
                    self.backtrack_to(0);
                    continue;
                }
                if self.num_learnt as f64 > max_learnt {
                    self.reduce_db();
                    max_learnt *= 1.3;
                }
                // Re-place assumptions first (restarts and backjumps pop
                // them); each assumption owns one decision level.
                let mut assumed = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value(p) {
                        Some(true) => {
                            // Already implied: open a dummy level.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            // The clause database forces ¬p: unsat under
                            // these assumptions, with a core.
                            self.failed_assumptions = self.analyze_final(p);
                            break 'search SolveOutcome::Unsat;
                        }
                        None => {
                            assumed = Some(p);
                            break;
                        }
                    }
                }
                if let Some(p) = assumed {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(p, None);
                    continue;
                }
                // Pick the next decision variable.
                let mut decision = None;
                while let Some(v) = self.heap_pop() {
                    if self.assigns[v as usize] == UNASSIGNED {
                        decision = Some(v);
                        break;
                    }
                }
                match decision {
                    None => {
                        // All variables assigned: satisfying assignment found.
                        let model = self.assigns.iter().map(|&a| a == 1).collect();
                        break 'search SolveOutcome::Sat(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(Var(v), !self.phase[v as usize]);
                        self.enqueue(lit, None);
                    }
                }
            }
        };
        self.backtrack_to(0);
        outcome
    }

    /// Computes the subset of assumptions responsible for forcing `p`
    /// false (MiniSat's `analyzeFinal`): walks the implication graph from
    /// `¬p` back to the assumption decisions.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut out = vec![p];
        if self.decision_level() == 0 {
            return out;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                None => {
                    // A decision — at this point every decision on the
                    // trail is an assumption (`¬p` itself if the caller
                    // assumed both polarities).
                    if self.level[v] > 0 {
                        out.push(l);
                    }
                }
                Some(cref) => {
                    let c = self.clauses[cref as usize];
                    for k in c.start as usize + 1..(c.start + c.len) as usize {
                        let q = self.arena[k];
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var().index()] = false;
        out
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …) with base 2.
fn luby(x: u64) -> u64 {
    // Find the finite subsequence that contains index `x` and its size.
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x;
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;

    fn lit(cnf_vars: &[Lit], i: i32) -> Lit {
        let v = cnf_vars[(i.unsigned_abs() as usize) - 1];
        if i < 0 {
            !v
        } else {
            v
        }
    }

    fn make(num_vars: usize, clauses: &[&[i32]]) -> (Cnf, Vec<Lit>) {
        let mut cnf = Cnf::new();
        let vars: Vec<Lit> = (0..num_vars).map(|_| cnf.new_lit()).collect();
        for c in clauses {
            let ls: Vec<Lit> = c.iter().map(|&i| lit(&vars, i)).collect();
            cnf.add_clause(&ls);
        }
        (cnf, vars)
    }

    fn check_model(cnf: &Cnf, model: &[bool]) {
        for clause in cnf.clauses() {
            assert!(
                clause.iter().any(|l| model[l.var().index()] != l.is_negative()),
                "clause {clause:?} unsatisfied"
            );
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn trivial_sat() {
        let (cnf, _) = make(2, &[&[1, 2], &[-1, 2], &[1, -2]]);
        match SatSolver::from_cnf(&cnf).solve() {
            SolveOutcome::Sat(m) => check_model(&cnf, &m),
            o => panic!("expected sat, got {o:?}"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let (cnf, _) = make(1, &[&[1], &[-1]]);
        assert_eq!(SatSolver::from_cnf(&cnf).solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[]);
        assert_eq!(SatSolver::from_cnf(&cnf).solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn unit_propagation_chain_unsat() {
        // x1, x1→x2, x2→x3, x3→¬x1
        let (cnf, _) = make(3, &[&[1], &[-1, 2], &[-2, 3], &[-3, -1]]);
        assert_eq!(SatSolver::from_cnf(&cnf).solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. vars: p11=1, p12=2, p21=3, p22=4, p31=5, p32=6.
        let (cnf, _) = make(
            6,
            &[
                &[1, 2],
                &[3, 4],
                &[5, 6],
                &[-1, -3],
                &[-1, -5],
                &[-3, -5],
                &[-2, -4],
                &[-2, -6],
                &[-4, -6],
            ],
        );
        assert_eq!(SatSolver::from_cnf(&cnf).solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        let mut cnf = Cnf::new();
        let n_pigeons = 4;
        let n_holes = 3;
        let mut vars = vec![vec![]; n_pigeons];
        for row in vars.iter_mut() {
            for _ in 0..n_holes {
                row.push(cnf.new_lit());
            }
        }
        for row in &vars {
            cnf.add_clause(row);
        }
        for h in 0..n_holes {
            for (p1, row1) in vars.iter().enumerate() {
                for row2 in &vars[p1 + 1..] {
                    cnf.add_clause(&[!row1[h], !row2[h]]);
                }
            }
        }
        assert_eq!(SatSolver::from_cnf(&cnf).solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn random_3sat_cross_checked_with_brute_force() {
        // Deterministic xorshift generator; no external dependency needed.
        let mut seed: u64 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..60 {
            let num_vars = 4 + (next() % 9) as usize; // 4..=12
            let num_clauses = 3 + (next() % 40) as usize;
            let mut spec: Vec<Vec<i32>> = Vec::new();
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let mut c = Vec::new();
                for _ in 0..len {
                    let v = 1 + (next() % num_vars as u64) as i32;
                    let sign = if next() & 1 == 0 { 1 } else { -1 };
                    c.push(v * sign);
                }
                spec.push(c);
            }
            let refs: Vec<&[i32]> = spec.iter().map(|c| c.as_slice()).collect();
            let (cnf, _) = make(num_vars, &refs);
            // Brute force reference.
            let mut brute_sat = false;
            'outer: for bits in 0u32..(1 << num_vars) {
                for c in &spec {
                    let ok = c.iter().any(|&l| {
                        let val = bits >> (l.unsigned_abs() - 1) & 1 == 1;
                        if l > 0 {
                            val
                        } else {
                            !val
                        }
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            match SatSolver::from_cnf(&cnf).solve() {
                SolveOutcome::Sat(m) => {
                    assert!(brute_sat, "round {round}: solver sat, brute force unsat");
                    check_model(&cnf, &m);
                }
                SolveOutcome::Unsat => {
                    assert!(!brute_sat, "round {round}: solver unsat, brute force sat");
                }
                SolveOutcome::Unknown => panic!("no budget set, Unknown impossible"),
            }
        }
    }

    #[test]
    fn conflict_budget_returns_unknown_or_decides() {
        // A moderately hard pigeonhole with a tiny budget must not panic.
        let mut cnf = Cnf::new();
        let n_pigeons = 7;
        let n_holes = 6;
        let mut vars = vec![vec![]; n_pigeons];
        for row in vars.iter_mut() {
            for _ in 0..n_holes {
                row.push(cnf.new_lit());
            }
        }
        for row in &vars {
            cnf.add_clause(row);
        }
        for h in 0..n_holes {
            for (p1, row1) in vars.iter().enumerate() {
                for row2 in &vars[p1 + 1..] {
                    cnf.add_clause(&[!row1[h], !row2[h]]);
                }
            }
        }
        let mut s = SatSolver::from_cnf(&cnf);
        s.set_conflict_budget(Some(10));
        let out = s.solve();
        assert!(matches!(out, SolveOutcome::Unknown | SolveOutcome::Unsat));
    }

    #[test]
    fn conflict_budget_is_per_call() {
        // Same hard pigeonhole: with a tiny per-call budget, a *second*
        // call must get a fresh allowance rather than being starved by
        // the cumulative conflict count of the first.
        let mut cnf = Cnf::new();
        let (n_pigeons, n_holes) = (7, 6);
        let mut vars = vec![vec![]; n_pigeons];
        for row in vars.iter_mut() {
            for _ in 0..n_holes {
                row.push(cnf.new_lit());
            }
        }
        for row in &vars {
            cnf.add_clause(row);
        }
        for h in 0..n_holes {
            for (p1, row1) in vars.iter().enumerate() {
                for row2 in &vars[p1 + 1..] {
                    cnf.add_clause(&[!row1[h], !row2[h]]);
                }
            }
        }
        let mut s = SatSolver::from_cnf(&cnf);
        s.set_conflict_budget(Some(5));
        let first = s.solve();
        assert!(matches!(first, SolveOutcome::Unknown));
        let conflicts_after_first = s.stats().conflicts;
        let second = s.solve();
        assert!(matches!(second, SolveOutcome::Unknown));
        // The second call performed its own conflicts instead of bailing
        // out immediately on the cumulative count.
        assert!(s.stats().conflicts >= conflicts_after_first + 5);
    }

    #[test]
    fn solve_under_assumptions_flips_verdicts_without_poisoning() {
        // (a ∨ b) ∧ (¬a ∨ b): assuming ¬b is unsat, assuming b is sat,
        // and the solver stays reusable throughout.
        let (cnf, vars) = make(2, &[&[1, 2], &[-1, 2]]);
        let (a, b) = (vars[0], vars[1]);
        let mut s = SatSolver::from_cnf(&cnf);
        assert!(matches!(s.solve_under_assumptions(&[!b]), SolveOutcome::Unsat));
        assert!(s.is_consistent(), "assumption failure must not poison the solver");
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&!b), "core must name the failing assumption");
        match s.solve_under_assumptions(&[b, a]) {
            SolveOutcome::Sat(m) => check_model(&cnf, &m),
            o => panic!("expected sat, got {o:?}"),
        }
        // No assumptions at all: still sat.
        assert!(matches!(s.solve(), SolveOutcome::Sat(_)));
    }

    #[test]
    fn assumption_core_names_a_conflicting_subset() {
        // Chain a → b → c, plus assumption set {a, ¬c, d}: the core must
        // include ¬c (the failing assumption found during placement) and
        // a, but never the irrelevant d.
        let (cnf, vars) = make(4, &[&[-1, 2], &[-2, 3]]);
        let (a, c, d) = (vars[0], vars[2], vars[3]);
        let mut s = SatSolver::from_cnf(&cnf);
        assert!(matches!(s.solve_under_assumptions(&[a, !c, d]), SolveOutcome::Unsat));
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&!c) || core.contains(&a), "core must touch the chain");
        assert!(!core.contains(&d), "independent assumption must not appear in the core");
        assert!(s.is_consistent());
    }

    #[test]
    fn incremental_clause_addition_between_solves() {
        // Start with (x ∨ y); learn a model; then add clauses one by one
        // until the formula becomes unsat — all on the same solver.
        let (cnf, vars) = make(2, &[&[1, 2]]);
        let (x, y) = (vars[0], vars[1]);
        let mut s = SatSolver::from_cnf(&cnf);
        assert!(matches!(s.solve(), SolveOutcome::Sat(_)));
        s.add_clause(&[!x]);
        match s.solve() {
            SolveOutcome::Sat(m) => {
                assert!(!m[x.var().index()], "x is forced false");
                assert!(m[y.var().index()], "y must carry the clause");
            }
            o => panic!("expected sat, got {o:?}"),
        }
        s.add_clause(&[!y]);
        assert!(matches!(s.solve(), SolveOutcome::Unsat));
        assert!(!s.is_consistent(), "database itself is now unsat");
        // Further queries stay unsat and must not panic.
        assert!(matches!(s.solve_under_assumptions(&[x]), SolveOutcome::Unsat));
    }

    #[test]
    fn ensure_vars_allows_new_variables_incrementally() {
        let (cnf, vars) = make(1, &[&[1]]);
        let x = vars[0];
        let mut s = SatSolver::from_cnf(&cnf);
        assert!(matches!(s.solve(), SolveOutcome::Sat(_)));
        // Introduce a brand-new variable and constrain it against x.
        let n = cnf.num_vars();
        s.ensure_vars(n + 1);
        let z = Var(n as u32).positive();
        s.add_clause(&[!x, z]);
        match s.solve_under_assumptions(&[]) {
            SolveOutcome::Sat(m) => {
                assert!(m[x.var().index()]);
                assert!(m[z.var().index()], "x → z must propagate");
            }
            o => panic!("expected sat, got {o:?}"),
        }
        assert!(matches!(s.solve_under_assumptions(&[!z]), SolveOutcome::Unsat));
        assert!(s.is_consistent());
    }

    /// A solver that has learnt clauses, a level-0 trail beyond the
    /// constant, and compacted: pigeonhole(5, 4) with every clause
    /// guarded by `g ∨ h`, refuted under the assumptions `¬g, ¬h`, plus
    /// a unit fact `u` that satisfies a clause for compaction to sweep
    /// and implies `w` through a reason clause.
    fn warm_compacted_solver() -> SatSolver {
        let mut cnf = Cnf::new();
        let (g, h) = (cnf.new_lit(), cnf.new_lit());
        let (u, w) = (cnf.new_lit(), cnf.new_lit());
        let holes = 4;
        let rows: Vec<Vec<Lit>> =
            (0..=holes).map(|_| (0..holes).map(|_| cnf.new_lit()).collect()).collect();
        for row in &rows {
            let mut c = row.clone();
            c.extend([g, h]);
            cnf.add_clause(&c);
        }
        for hole in 0..holes {
            for (p, row) in rows.iter().enumerate() {
                for other in &rows[p + 1..] {
                    cnf.add_clause(&[!row[hole], !other[hole], g, h]);
                }
            }
        }
        cnf.add_clause(&[u, rows[0][0], rows[1][1]]);
        cnf.add_clause(&[!u, w]);
        let mut s = SatSolver::from_cnf(&cnf);
        assert_eq!(s.solve_under_assumptions(&[!g, !h]), SolveOutcome::Unsat);
        s.add_clause(&[u]);
        s.compact_learnts();
        assert!(!s.learnt_clauses().is_empty() && s.trail.len() > 1, "the solver must be warm");
        s
    }

    #[test]
    fn fork_copies_every_field() {
        // `fork` lists the fields by hand; one added to the struct but
        // not to `fork` would not compile, and one copied wrongly shows
        // up here.
        let mut parent = warm_compacted_solver();
        let mut child = parent.fork();
        assert_eq!(format!("{parent:?}"), format!("{child:?}"));
        // The growth room changes capacity only: both sides extend alike.
        let n = parent.assigns.len();
        for s in [&mut parent, &mut child] {
            s.ensure_vars(n + 2);
            let (a, b) = (Var(n as u32).positive(), Var(n as u32 + 1).negative());
            s.add_clause(&[a, b, Var(3).positive()]);
            assert!(matches!(s.solve_under_assumptions(&[!a]), SolveOutcome::Sat(_)));
        }
        assert_eq!(format!("{parent:?}"), format!("{child:?}"));
    }

    #[test]
    fn compaction_drops_deleted_slots_and_keeps_reasons() {
        let s = warm_compacted_solver();
        assert!(s.dropped_slots > 0, "the unit fact satisfies a clause to delete");
        assert!(s.clauses.iter().all(|c| !c.deleted));
        assert_eq!(s.clauses.iter().filter(|c| c.len > 0).count(), s.num_clauses());
        let mut reasons = 0;
        for &l in &s.trail {
            if let Some(r) = s.reason[l.var().index()] {
                assert_eq!(
                    s.lits(r as usize)[0],
                    l,
                    "a reason's first literal is the one it implied"
                );
                reasons += 1;
            }
        }
        assert!(reasons > 0, "`u` implies `w`");
    }

    #[test]
    fn stats_are_populated() {
        let (cnf, _) =
            make(5, &[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3], &[2, 4], &[3, 5], &[-4, -5]]);
        let mut s = SatSolver::from_cnf(&cnf);
        let _ = s.solve();
        assert!(s.stats().propagations > 0);
    }
}
