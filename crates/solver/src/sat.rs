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

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

const UNASSIGNED: i8 = -1;

/// A CDCL SAT solver over a fixed CNF.
#[derive(Debug, Clone)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<u32>>, // indexed by Lit::code(); clause refs watching that literal
    assigns: Vec<i8>,       // UNASSIGNED / 0 (false) / 1 (true)
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
            watches: vec![Vec::new(); 2 * n],
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
        self.clone()
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
        self.clauses.iter().filter(|c| c.learnt && !c.deleted).map(|c| c.lits.clone()).collect()
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
    /// from independence slices and dead context prefixes. This API is
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
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
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

    /// Adds a clause at decision level 0. Usable between solves for
    /// incremental clause addition; all variables must already exist
    /// (see [`SatSolver::ensure_vars`]).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return;
        }
        // Canonicalize: drop duplicates / satisfied clauses / false lits.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut out = Vec::with_capacity(ls.len());
        for &l in &ls {
            if ls.contains(&!l) {
                return; // tautology
            }
            match self.value(l) {
                Some(true) => return, // already satisfied at level 0
                Some(false) => {}     // drop the false literal
                None => out.push(l),
            }
        }
        match out.len() {
            0 => self.ok = false,
            1 => {
                self.enqueue(out[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                let cref = self.clauses.len() as u32;
                self.watches[out[0].code()].push(cref);
                self.watches[out[1].code()].push(cref);
                self.clauses.push(Clause {
                    lits: out,
                    learnt: false,
                    deleted: false,
                    activity: 0.0,
                });
                self.live_clauses += 1;
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
            let ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut keep = Vec::with_capacity(ws.len());
            let mut conflict = None;
            let mut it = ws.into_iter();
            for cref in it.by_ref() {
                let ci = cref as usize;
                if self.clauses[ci].deleted {
                    continue;
                }
                // Ensure the falsified literal sits at position 1.
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci].lits[1], false_lit);
                let first = self.clauses[ci].lits[0];
                if self.value(first) == Some(true) {
                    keep.push(cref);
                    continue;
                }
                // Look for a replacement watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let lk = self.clauses[ci].lits[k];
                    if self.value(lk) != Some(false) {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[lk.code()].push(cref);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                keep.push(cref);
                if self.value(first) == Some(false) {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, Some(cref));
            }
            // Put back any watches we did not visit after a conflict.
            keep.extend(it);
            self.watches[false_lit.code()] = keep;
            if conflict.is_some() {
                return conflict;
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
                let start = usize::from(p.is_some());
                let lits = self.clauses[ci].lits.clone();
                for &q in &lits[start..] {
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
            let lits = self.clauses[cref as usize].lits.clone();
            for &q in &lits[1..] {
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

    fn reduce_db(&mut self) {
        let mut cands: Vec<u32> = Vec::new();
        for (i, c) in self.clauses.iter().enumerate() {
            if !c.learnt || c.deleted || c.lits.len() <= 2 {
                continue;
            }
            // Locked clauses (currently a reason) must be kept.
            let l0 = c.lits[0];
            let locked =
                self.value(l0) == Some(true) && self.reason[l0.var().index()] == Some(i as u32);
            if !locked {
                cands.push(i as u32);
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
            self.clauses[cref as usize].deleted = true;
            self.num_learnt -= 1;
            self.live_clauses -= 1;
        }
        // Rebuild the watch lists from scratch (watch invariant: positions 0, 1).
        for w in &mut self.watches {
            w.clear();
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if !c.deleted && c.lits.len() >= 2 {
                self.watches[c.lits[0].code()].push(i as u32);
                self.watches[c.lits[1].code()].push(i as u32);
            }
        }
    }

    /// Fork-time clause-DB compaction: a level-0 satisfied-clause sweep
    /// over the whole clause database plus bounded self-subsumption over
    /// the learnt store. Returns the number of clauses removed or
    /// strengthened.
    ///
    /// Forked contexts clone the whole clause database, so every clause
    /// the parent carries is paid again in each child (the PR 5 "bigger
    /// warm DB" tax). Compacting just before the snapshot drops clauses
    /// already satisfied by level-0 facts, strips falsified literals,
    /// and applies self-subsumption (`C` strengthens `D` when
    /// `C ⊆ D ∪ {¬l}` for exactly one flipped literal `l` — `D` minus
    /// `¬l` is still implied). Level-0 facts are permanent (the prefix
    /// is append-only and level 0 is never backtracked), so the sweep is
    /// sound for original Tseitin clauses too, not just learnt ones —
    /// and a merged prefix's satisfied clauses overwhelmingly live in
    /// the original CNF. Everything removed is redundant with the
    /// remaining database plus the trail, so verdicts are unchanged for
    /// parent and fork alike. Must be called between queries (decision
    /// level 0).
    pub fn compact_learnts(&mut self) -> u64 {
        debug_assert_eq!(self.decision_level(), 0, "compact mid-query");
        if !self.ok {
            return 0;
        }
        let locked = |s: &Self, i: usize| {
            let l0 = s.clauses[i].lits[0];
            s.value(l0) == Some(true) && s.reason[l0.var().index()] == Some(i as u32)
        };
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
            let c = &self.clauses[i];
            if c.deleted || (!c.learnt && !sweep_originals) || locked(self, i) {
                continue;
            }
            let mut satisfied = false;
            let mut kept: Vec<Lit> = Vec::with_capacity(self.clauses[i].lits.len());
            for &l in &self.clauses[i].lits {
                match self.value(l) {
                    Some(true) => {
                        satisfied = true;
                        break;
                    }
                    Some(false) => {}
                    None => kept.push(l),
                }
            }
            if satisfied {
                self.delete_clause(i);
                compacted += 1;
            } else if kept.len() < self.clauses[i].lits.len() {
                compacted += 1;
                match kept.len() {
                    0 => self.ok = false,
                    1 => {
                        units.push(kept[0]);
                        self.delete_clause(i);
                    }
                    _ => self.clauses[i].lits = kept,
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
        let mut refs: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt && !c.deleted && !locked(self, i as usize)
            })
            .collect();
        refs.sort_by_key(|&r| self.clauses[r as usize].lits.len());
        let mut occ: std::collections::HashMap<usize, Vec<u32>> = std::collections::HashMap::new();
        for &r in &refs {
            for &l in &self.clauses[r as usize].lits {
                occ.entry(l.var().index()).or_default().push(r);
            }
        }
        for &cref in &refs {
            if check_budget == 0 {
                break;
            }
            let c = self.clauses[cref as usize].clone();
            if c.deleted || c.lits.len() > SUBSUMER_MAX_LITS {
                continue;
            }
            let csig = var_sig(&c.lits);
            // Probe via the clause's rarest variable.
            let probe = c
                .lits
                .iter()
                .min_by_key(|l| occ.get(&l.var().index()).map_or(0, Vec::len))
                .expect("stored clauses are non-empty")
                .var()
                .index();
            let cands = occ.get(&probe).cloned().unwrap_or_default();
            for dref in cands {
                if dref == cref || check_budget == 0 {
                    continue;
                }
                check_budget -= 1;
                let d = &self.clauses[dref as usize];
                if d.deleted || d.lits.len() < c.lits.len() || csig & !var_sig(&d.lits) != 0 {
                    continue;
                }
                // C subsumes D if every C literal occurs in D; one
                // polarity flip means D can drop the flipped literal.
                let mut flipped: Option<Lit> = None;
                let mut ok = true;
                for &l in &c.lits {
                    if d.lits.contains(&l) {
                        continue;
                    }
                    if d.lits.contains(&!l) && flipped.is_none() {
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
                        let d = &mut self.clauses[dref as usize];
                        d.lits.retain(|&l| l != drop);
                        compacted += 1;
                        if self.clauses[dref as usize].lits.len() == 1 {
                            units.push(self.clauses[dref as usize].lits[0]);
                            self.delete_clause(dref as usize);
                        }
                    }
                }
            }
        }
        if compacted > 0 {
            // Strengthened clauses may have lost a watched literal:
            // rebuild the watch lists wholesale, as `reduce_db` does,
            // before any propagation touches them.
            for w in &mut self.watches {
                w.clear();
            }
            for (i, c) in self.clauses.iter().enumerate() {
                if !c.deleted && c.lits.len() >= 2 {
                    self.watches[c.lits[0].code()].push(i as u32);
                    self.watches[c.lits[1].code()].push(i as u32);
                }
            }
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
        compacted
    }

    /// Marks clause `i` deleted and frees its literal storage — forks
    /// clone the clause vector, so a deleted clause that kept its
    /// literals would keep paying for them in every descendant.
    fn delete_clause(&mut self, i: usize) {
        debug_assert!(!self.clauses[i].deleted);
        if self.clauses[i].learnt {
            self.num_learnt -= 1;
        }
        self.live_clauses -= 1;
        let c = &mut self.clauses[i];
        c.deleted = true;
        c.lits = Vec::new();
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
        let mut max_learnt = (self.clauses.len() as f64 * 0.4).max(4000.0);
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
                    let cref = self.clauses.len() as u32;
                    self.watches[learnt[0].code()].push(cref);
                    self.watches[learnt[1].code()].push(cref);
                    self.stats.learnt_lits += learnt.len() as u64;
                    self.clauses.push(Clause {
                        lits: learnt,
                        learnt: true,
                        deleted: false,
                        activity: self.cla_inc,
                    });
                    self.num_learnt += 1;
                    self.live_clauses += 1;
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
                    let lits = self.clauses[cref as usize].lits.clone();
                    for &q in &lits[1..] {
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

    #[test]
    fn stats_are_populated() {
        let (cnf, _) =
            make(5, &[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3], &[2, 4], &[3, 5], &[-4, -5]]);
        let mut s = SatSolver::from_cnf(&cnf);
        let _ = s.solve();
        assert!(s.stats().propagations > 0);
    }
}
