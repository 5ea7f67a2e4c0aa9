//! Search strategies — the `pickNext` of Algorithm 1.
//!
//! The engine is strategy-agnostic, exactly as the paper requires: static
//! state merging plugs in [`Topological`] order (explore everything leading
//! to a join point first), test generation plugs in coverage-optimized or
//! random search, and dynamic state merging keeps its index
//! ([`crate::dsm::DsmIndex`]) beside any of them, which stays the
//! *driving* heuristic.

use crate::state::StateId;
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use symmerge_ir::{BlockId, FuncId};

/// Which strategy to instantiate (the public configuration surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Depth-first: newest state first.
    Dfs,
    /// Breadth-first: oldest state first.
    Bfs,
    /// Uniform random choice (KLEE's random search; used by the paper for
    /// complete explorations).
    Random,
    /// KLEE-style coverage-optimized search: prefer states closest to
    /// uncovered code, interleaved with random picks.
    CoverageOptimized,
    /// CFG topological order — the order static state merging needs.
    Topological,
}

/// Per-state ordering metadata computed by the engine when a state enters
/// the worklist.
#[derive(Debug, Clone)]
pub struct StateMeta {
    /// Current function.
    pub func: FuncId,
    /// Current block.
    pub block: BlockId,
    /// Topological position: one `(rpo index, instr index)` per stack
    /// frame, outermost first.
    pub topo: Vec<(u32, u32)>,
    /// Instructions executed so far (tie-breaking).
    pub steps: u64,
    /// Solver context-affinity token (see
    /// [`State::affinity`](crate::state::State)): an opaque,
    /// deterministic recency stamp — higher means the state's
    /// path-condition prefix was more recently resident in the solver's
    /// context tree. Strategies that rank states use it as a tie-break
    /// *before* the final [`StateId`] tie-break, so among otherwise
    /// equal candidates the one whose context is still warm goes first
    /// and the solver extends a resident context instead of re-blasting
    /// a cold prefix. The engine zeroes the stamp when affinity
    /// scheduling is disabled, which restores the pre-affinity order.
    pub affinity: u64,
}

/// Compares topological positions: lexicographic per frame; when one stack
/// is a prefix of the other, the *deeper* state is earlier (it must finish
/// its call before the shallower state's join point is reachable).
pub fn topo_cmp(a: &StateMeta, b: &StateMeta) -> Ordering {
    topo_slice_cmp(&a.topo, &b.topo)
}

fn topo_slice_cmp(a: &[(u32, u32)], b: &[(u32, u32)]) -> Ordering {
    let n = a.len().min(b.len());
    for i in 0..n {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    // Prefix-equal: deeper stack first.
    b.len().cmp(&a.len())
}

/// A topological position as an [`Ord`] key (the order of [`topo_cmp`],
/// which is total: prefix-equal positions order the deeper stack first,
/// equivalent to lexicographic comparison padded with `+∞`). Lets the
/// [`Topological`] strategy keep its worklist in a binary heap instead of
/// re-scanning every state per pick — the worklists of a static-merging
/// run (and of every shard-local queue in a parallel run) get large
/// enough for the O(n)-per-pick scan to show up in profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TopoKey(Vec<(u32, u32)>);

impl Ord for TopoKey {
    fn cmp(&self, other: &Self) -> Ordering {
        topo_slice_cmp(&self.0, &other.0)
    }
}

impl PartialOrd for TopoKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Feedback the engine offers to strategies at pick time.
pub trait Oracle {
    /// Distance (in CFG edges, descending into calls) from a block to the
    /// nearest uncovered block; `None` when no uncovered code is reachable.
    ///
    /// Contract for heap-based strategies: within one
    /// [`coverage generation`](Oracle::coverage_generation) the distance
    /// is a pure function of `(func, block)`, and across generations it
    /// is **non-decreasing** (coverage only grows, so the nearest
    /// uncovered block can only get farther). Cached distance keys are
    /// therefore lower bounds of current keys, which is what makes
    /// lazy recompute-on-pop exact.
    fn distance_to_uncovered(&mut self, func: FuncId, block: BlockId) -> Option<u32>;
    /// Monotone counter that advances whenever new coverage appears
    /// (i.e. whenever `distance_to_uncovered` may have changed). Heap
    /// strategies stamp cached keys with it and recompute on pop only
    /// when the stamp is stale. The default (constant `0`) is correct
    /// for oracles whose distances never change mid-run.
    fn coverage_generation(&self) -> u64 {
        0
    }
    /// The engine's deterministic RNG.
    fn rng(&mut self) -> &mut StdRng;
}

/// Scheduling-cost counters a [`Strategy`] exposes, so pick cost stays
/// measurable (they flow into `RunReport` and the bench harness CSVs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Ranked (non-random) picks served — each one used to cost an O(n)
    /// worklist scan; with the heapified strategies it costs O(log n)
    /// amortized.
    pub sched_picks: u64,
    /// Heap maintenance performed during picks: lazy-deleted entries
    /// discarded plus stale entries recomputed and re-pushed. The
    /// heap-vs-scan cost ratio is roughly
    /// `(sched_picks + sched_heap_repairs) · log n` vs
    /// `sched_picks · n`.
    pub sched_heap_repairs: u64,
}

/// A worklist scheduling policy. The engine calls `add` when a state enters
/// the worklist, `remove` when it leaves for any reason (merged away,
/// picked by an outer layer), and `pick` to select and remove the next
/// state to execute.
pub trait Strategy {
    /// Registers a state.
    fn add(&mut self, id: StateId, meta: StateMeta);
    /// Unregisters a state; returns whether it was known.
    fn remove(&mut self, id: StateId) -> bool;
    /// Selects, removes and returns the next state.
    fn pick(&mut self, oracle: &mut dyn Oracle) -> Option<StateId>;
    /// Number of registered states.
    fn len(&self) -> usize;
    /// Whether no states are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Scheduling-cost counters (zero for strategies whose picks are
    /// trivially O(1)).
    fn sched_stats(&self) -> SchedStats {
        SchedStats::default()
    }
}

/// Instantiates a boxed strategy from its kind.
pub fn make_strategy(kind: StrategyKind) -> Box<dyn Strategy + Send> {
    match kind {
        StrategyKind::Dfs => Box::new(Dfs::default()),
        StrategyKind::Bfs => Box::new(Bfs::default()),
        StrategyKind::Random => Box::new(RandomSearch::default()),
        StrategyKind::CoverageOptimized => Box::new(CoverageOptimized::default()),
        StrategyKind::Topological => Box::new(Topological::default()),
    }
}

/// Depth-first search.
#[derive(Debug, Default)]
pub struct Dfs {
    stack: Vec<StateId>,
    live: HashSet<StateId>,
}

impl Strategy for Dfs {
    fn add(&mut self, id: StateId, _meta: StateMeta) {
        self.stack.push(id);
        self.live.insert(id);
    }

    fn remove(&mut self, id: StateId) -> bool {
        self.live.remove(&id)
    }

    fn pick(&mut self, _oracle: &mut dyn Oracle) -> Option<StateId> {
        while let Some(id) = self.stack.pop() {
            if self.live.remove(&id) {
                return Some(id);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}

/// Breadth-first search.
#[derive(Debug, Default)]
pub struct Bfs {
    queue: VecDeque<StateId>,
    live: HashSet<StateId>,
}

impl Strategy for Bfs {
    fn add(&mut self, id: StateId, _meta: StateMeta) {
        self.queue.push_back(id);
        self.live.insert(id);
    }

    fn remove(&mut self, id: StateId) -> bool {
        self.live.remove(&id)
    }

    fn pick(&mut self, _oracle: &mut dyn Oracle) -> Option<StateId> {
        while let Some(id) = self.queue.pop_front() {
            if self.live.remove(&id) {
                return Some(id);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}

/// Uniform random search.
#[derive(Debug, Default)]
pub struct RandomSearch {
    states: Vec<StateId>,
    pos: HashMap<StateId, usize>,
}

impl RandomSearch {
    fn swap_remove_at(&mut self, i: usize) -> StateId {
        let id = self.states.swap_remove(i);
        self.pos.remove(&id);
        if let Some(&moved) = self.states.get(i) {
            self.pos.insert(moved, i);
        }
        id
    }
}

impl Strategy for RandomSearch {
    fn add(&mut self, id: StateId, _meta: StateMeta) {
        self.pos.insert(id, self.states.len());
        self.states.push(id);
    }

    fn remove(&mut self, id: StateId) -> bool {
        match self.pos.get(&id).copied() {
            Some(i) => {
                self.swap_remove_at(i);
                true
            }
            None => false,
        }
    }

    fn pick(&mut self, oracle: &mut dyn Oracle) -> Option<StateId> {
        if self.states.is_empty() {
            return None;
        }
        let i = oracle.rng().gen_range(0..self.states.len());
        Some(self.swap_remove_at(i))
    }

    fn len(&self) -> usize {
        self.states.len()
    }
}

/// The total-order pick key of [`CoverageOptimized`]: `(distance to
/// uncovered, u64::MAX - steps, u64::MAX - affinity, id)`, minimized.
/// Equal distance and depth prefer the state whose prefix context is
/// warmest (highest affinity), then the oldest id — deterministic either
/// way.
type CovKey = (u64, u64, u64, StateId);

/// One lazy heap entry of [`CoverageOptimized`]: the ranked key, the
/// coverage generation it was computed under, and the registration's
/// `(func, block)` — the location that determined the cached distance,
/// validated on pop so a relocated re-add can never be served on a stale
/// entry.
type CovEntry = (CovKey, u64, (u32, u32));

/// Heap-entry generation stamp meaning "distance never computed": forces
/// a recompute on first pop (`add` has no oracle, so entries enter the
/// heap with a distance of 0 — a valid lower bound, since distances are
/// non-negative). Real generations are bounded by the program's block
/// count and can never reach this.
const GEN_UNKNOWN: u64 = u64::MAX;

/// Coverage-optimized search (the paper's `[6]` reference): pick the state
/// whose location is closest to uncovered code, breaking ties toward
/// *deeper* states (CFG distance cannot see loop progress, so depth is the
/// better proxy for "about to reach the gated block") and interleaving an
/// ε-fraction of uniformly random picks, like KLEE's interleaved
/// searchers.
///
/// Ranked picks run on a min-heap with **lazy deletion and lazy
/// repair** over `CovKey`s, the same treatment PR 3 gave
/// [`Topological`]: `add`/`remove` are O(log n)/O(1) and `pick` is
/// amortized O(log n), versus the previous O(n) full-worklist scan —
/// which had become the dominant cost of budgeted coverage-driven runs
/// once the solver's context tree eliminated prefix re-blasting. Each
/// heap entry carries the [`Oracle::coverage_generation`] it was keyed
/// under; a popped entry with a stale stamp has its distance recomputed
/// *on pop* (never by an eager rescan) and is re-pushed if the key
/// changed. Exactness rests on distances being non-decreasing as
/// coverage grows (see [`Oracle::distance_to_uncovered`]): every stored
/// key is a lower bound of the state's current key, so a popped entry
/// whose recomputed key is unchanged is the true minimum — byte-for-byte
/// the state the O(n) scan would have chosen. The scan lives on in the
/// test module (`pick_ranked_scan`), as the oracle the
/// `cov_heap_pick_sequence_matches_scan` property compares against.
#[derive(Debug)]
pub struct CoverageOptimized {
    metas: HashMap<StateId, StateMeta>,
    /// Insertion-ordered ids for deterministic random sampling
    /// (HashMap iteration order would not be reproducible).
    order: Vec<StateId>,
    pos: HashMap<StateId, usize>,
    /// Lazy-deletion min-heap of `(key, coverage generation, (func,
    /// block))` ranked entries. Entries are never removed eagerly: ids
    /// that left the worklist, or re-added ids whose meta changed, are
    /// discarded when popped (the re-add pushed a fresh entry). The
    /// `(func, block)` pair rides along for exactly that validation —
    /// it determines the cached distance, so a re-add at a different
    /// location must invalidate the old entry even when `steps` and
    /// `affinity` happen to collide.
    heap: BinaryHeap<Reverse<CovEntry>>,
    /// Probability of a random pick.
    epsilon: f64,
    stats: SchedStats,
}

impl Default for CoverageOptimized {
    fn default() -> Self {
        CoverageOptimized {
            metas: HashMap::new(),
            order: Vec::new(),
            pos: HashMap::new(),
            heap: BinaryHeap::new(),
            epsilon: 0.25,
            stats: SchedStats::default(),
        }
    }
}

impl CoverageOptimized {
    fn drop_from_order(&mut self, id: StateId) {
        if let Some(i) = self.pos.remove(&id) {
            self.order.swap_remove(i);
            if let Some(&moved) = self.order.get(i) {
                self.pos.insert(moved, i);
            }
        }
    }

    fn dist_of(oracle: &mut dyn Oracle, meta: &StateMeta) -> u64 {
        oracle.distance_to_uncovered(meta.func, meta.block).map(u64::from).unwrap_or(u64::MAX / 2)
    }

    /// The O(log n) heap pick. Pops until an entry survives validation:
    /// dead ids and re-added ids with changed metas are discarded (their
    /// re-add pushed a current entry), stale-generation entries have
    /// their distance recomputed and are re-pushed when it grew.
    fn pick_ranked_heap(&mut self, oracle: &mut dyn Oracle) -> StateId {
        let cur_gen = oracle.coverage_generation();
        loop {
            let Reverse((key, gen, loc)) =
                self.heap.pop().expect("every live state keeps a heap entry");
            let (dist, rsteps, raff, id) = key;
            let Some(meta) = self.metas.get(&id) else {
                // Lazy deletion: the id left the worklist.
                self.stats.sched_heap_repairs += 1;
                continue;
            };
            if (u64::MAX - meta.steps, u64::MAX - meta.affinity) != (rsteps, raff)
                || (meta.func.0, meta.block.0) != loc
            {
                // The id was removed and re-added with a different meta
                // (the location check matters: it determines the cached
                // distance, so a relocated re-add must not be served on
                // the old entry even when steps/affinity collide); the
                // re-add pushed a fresh entry, this one is garbage.
                self.stats.sched_heap_repairs += 1;
                continue;
            }
            if gen == cur_gen {
                return id;
            }
            let dist_now = Self::dist_of(oracle, meta);
            if dist_now == dist {
                // The stored key was a lower bound and still holds, so
                // it is the global minimum (all other entries are lower
                // bounds of keys that can only be larger).
                return id;
            }
            self.stats.sched_heap_repairs += 1;
            self.heap.push(Reverse(((dist_now, rsteps, raff, id), cur_gen, loc)));
        }
    }

    /// One pick: an ε-fraction uniformly at random, the rest through
    /// `ranked` (the heap in production; the test oracle passes the scan).
    fn pick_with(
        &mut self,
        oracle: &mut dyn Oracle,
        ranked: impl FnOnce(&mut Self, &mut dyn Oracle) -> StateId,
    ) -> Option<StateId> {
        if self.metas.is_empty() {
            return None;
        }
        let random_pick = oracle.rng().gen_bool(self.epsilon);
        let chosen = if random_pick {
            let k = oracle.rng().gen_range(0..self.order.len());
            self.order[k]
        } else {
            self.stats.sched_picks += 1;
            ranked(self, oracle)
        };
        self.drop_from_order(chosen);
        self.metas.remove(&chosen);
        Some(chosen)
    }
}

impl Strategy for CoverageOptimized {
    fn add(&mut self, id: StateId, meta: StateMeta) {
        // Distance 0 is a lower bound (no oracle at add time); the
        // GEN_UNKNOWN stamp forces a recompute when popped.
        let key = (0, u64::MAX - meta.steps, u64::MAX - meta.affinity, id);
        self.heap.push(Reverse((key, GEN_UNKNOWN, (meta.func.0, meta.block.0))));
        self.metas.insert(id, meta);
        self.pos.insert(id, self.order.len());
        self.order.push(id);
    }

    fn remove(&mut self, id: StateId) -> bool {
        self.drop_from_order(id);
        self.metas.remove(&id).is_some()
    }

    fn pick(&mut self, oracle: &mut dyn Oracle) -> Option<StateId> {
        self.pick_with(oracle, Self::pick_ranked_heap)
    }

    fn len(&self) -> usize {
        self.metas.len()
    }

    fn sched_stats(&self) -> SchedStats {
        self.stats
    }
}

/// CFG topological order (for static state merging): always pick the state
/// earliest in [`topo_cmp`] order, so every path reaching a join point is
/// explored before the join point itself is stepped past.
///
/// Implemented as a min-heap with lazy deletion (removed ids stay in the
/// heap until popped): `add`/`remove` are O(log n)/O(1) and `pick` is
/// amortized O(log n), versus the previous full-scan pick. Ties on the
/// topological key break by [`StateId`], exactly as the scan did, so pick
/// order is unchanged.
///
/// Topological order deliberately does **not** use the
/// [`StateMeta::affinity`] tie-break: its pick order is part of SSM's
/// contract and must stay a pure function of control position and
/// [`StateId`]. Affinity stamps come from the solver's context clock,
/// which differs between solver backends (the re-blast path never stamps),
/// so keying on them would let the choice of solver change *which* merges
/// happen — breaking the solver-config differential's byte-identity.
#[derive(Debug, Default)]
pub struct Topological {
    heap: BinaryHeap<Reverse<(TopoKey, StateId)>>,
    live: HashSet<StateId>,
    stats: SchedStats,
}

impl Strategy for Topological {
    fn add(&mut self, id: StateId, meta: StateMeta) {
        self.heap.push(Reverse((TopoKey(meta.topo), id)));
        self.live.insert(id);
    }

    fn remove(&mut self, id: StateId) -> bool {
        self.live.remove(&id)
    }

    fn pick(&mut self, _oracle: &mut dyn Oracle) -> Option<StateId> {
        while let Some(Reverse((_, id))) = self.heap.pop() {
            if self.live.remove(&id) {
                self.stats.sched_picks += 1;
                return Some(id);
            }
            self.stats.sched_heap_repairs += 1;
        }
        None
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn sched_stats(&self) -> SchedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig};
    use proptest::strategy::Strategy as _;
    use rand::SeedableRng;

    /// The O(n) reference implementation of the ranked pick: scan every
    /// live meta with current distances and take the key minimum. The
    /// heap must match it pick-for-pick
    /// (`cov_heap_pick_sequence_matches_scan`).
    fn pick_ranked_scan(cov: &CoverageOptimized, oracle: &mut dyn Oracle) -> StateId {
        let mut best: Option<CovKey> = None;
        for (&id, meta) in &cov.metas {
            let dist = CoverageOptimized::dist_of(oracle, meta);
            let key = (dist, u64::MAX - meta.steps, u64::MAX - meta.affinity, id);
            if best.map_or(true, |b| key < b) {
                best = Some(key);
            }
        }
        best.expect("non-empty").3
    }

    /// One `CoverageOptimized` pick on the heap (`heap = true`, the
    /// production path) or on the O(n) reference scan, sharing the
    /// ε-random path and its RNG stream.
    fn cov_pick(
        cov: &mut CoverageOptimized,
        oracle: &mut dyn Oracle,
        heap: bool,
    ) -> Option<StateId> {
        if heap {
            cov.pick(oracle)
        } else {
            cov.pick_with(oracle, |s, o| pick_ranked_scan(s, o))
        }
    }

    struct TestOracle {
        rng: StdRng,
        distances: HashMap<(FuncId, BlockId), u32>,
        /// Tests that mutate `distances` mid-run must bump this (and only
        /// raise distances), per the [`Oracle`] contract.
        gen: u64,
    }

    impl TestOracle {
        fn new() -> Self {
            TestOracle { rng: StdRng::seed_from_u64(7), distances: HashMap::new(), gen: 0 }
        }
    }

    impl Oracle for TestOracle {
        fn distance_to_uncovered(&mut self, func: FuncId, block: BlockId) -> Option<u32> {
            self.distances.get(&(func, block)).copied()
        }

        fn coverage_generation(&self) -> u64 {
            self.gen
        }

        fn rng(&mut self) -> &mut StdRng {
            &mut self.rng
        }
    }

    fn meta(block: u32, rpo: u32, steps: u64) -> StateMeta {
        StateMeta {
            func: FuncId(0),
            block: BlockId(block),
            topo: vec![(rpo, 0)],
            steps,
            affinity: 0,
        }
    }

    fn meta_aff(block: u32, affinity: u64) -> StateMeta {
        StateMeta { func: FuncId(0), block: BlockId(block), topo: vec![(0, 0)], steps: 0, affinity }
    }

    #[test]
    fn dfs_is_lifo_bfs_is_fifo() {
        let mut oracle = TestOracle::new();
        let mut dfs = Dfs::default();
        let mut bfs = Bfs::default();
        for i in 0..3 {
            dfs.add(StateId(i), meta(0, 0, 0));
            bfs.add(StateId(i), meta(0, 0, 0));
        }
        assert_eq!(dfs.pick(&mut oracle), Some(StateId(2)));
        assert_eq!(bfs.pick(&mut oracle), Some(StateId(0)));
    }

    #[test]
    fn removed_states_are_never_picked() {
        let mut oracle = TestOracle::new();
        for kind in [
            StrategyKind::Dfs,
            StrategyKind::Bfs,
            StrategyKind::Random,
            StrategyKind::CoverageOptimized,
            StrategyKind::Topological,
        ] {
            let mut s = make_strategy(kind);
            s.add(StateId(1), meta(0, 0, 0));
            s.add(StateId(2), meta(1, 1, 0));
            assert!(s.remove(StateId(1)));
            assert!(!s.remove(StateId(1)), "double-remove reports false");
            assert_eq!(s.pick(&mut oracle), Some(StateId(2)), "{kind:?}");
            assert_eq!(s.pick(&mut oracle), None, "{kind:?}");
        }
    }

    #[test]
    fn topological_prefers_earlier_rpo_and_deeper_stacks() {
        let mut oracle = TestOracle::new();
        let mut topo = Topological::default();
        topo.add(StateId(1), meta(5, 5, 0));
        topo.add(StateId(2), meta(2, 2, 0));
        assert_eq!(topo.pick(&mut oracle), Some(StateId(2)));
        // Deeper stack with equal prefix comes first.
        let shallow = StateMeta {
            func: FuncId(0),
            block: BlockId(0),
            topo: vec![(1, 3)],
            steps: 0,
            affinity: 0,
        };
        let deep = StateMeta {
            func: FuncId(0),
            block: BlockId(0),
            topo: vec![(1, 3), (0, 0)],
            steps: 0,
            affinity: 0,
        };
        assert_eq!(topo_cmp(&deep, &shallow), Ordering::Less);
    }

    #[test]
    fn topological_heap_matches_the_scan_order() {
        // The heap-with-lazy-deletion pick order must equal the reference
        // total order: (topo_cmp, StateId) ascending.
        let mut oracle = TestOracle::new();
        let mut topo = Topological::default();
        let metas: Vec<StateMeta> = vec![
            StateMeta {
                func: FuncId(0),
                block: BlockId(0),
                topo: vec![(2, 0)],
                steps: 0,
                affinity: 0,
            },
            StateMeta {
                func: FuncId(0),
                block: BlockId(0),
                topo: vec![(1, 3)],
                steps: 0,
                affinity: 0,
            },
            StateMeta {
                func: FuncId(0),
                block: BlockId(0),
                topo: vec![(1, 3), (0, 0)],
                steps: 0,
                affinity: 0,
            },
            StateMeta {
                func: FuncId(0),
                block: BlockId(0),
                topo: vec![(1, 3)],
                steps: 0,
                affinity: 0,
            },
            StateMeta {
                func: FuncId(0),
                block: BlockId(0),
                topo: vec![(0, 9)],
                steps: 0,
                affinity: 0,
            },
        ];
        for (i, m) in metas.iter().enumerate() {
            topo.add(StateId(i as u64), m.clone());
        }
        topo.remove(StateId(4)); // lazy-deleted entry must be skipped
        let mut reference: Vec<usize> = vec![0, 1, 2, 3];
        reference.sort_by(|&a, &b| topo_cmp(&metas[a], &metas[b]).then(a.cmp(&b)));
        let mut picked = Vec::new();
        while let Some(id) = topo.pick(&mut oracle) {
            picked.push(id.0 as usize);
        }
        assert_eq!(picked, reference);
    }

    #[test]
    fn coverage_heap_matches_scan_under_coverage_invalidation() {
        // The heap with lazy repair must reproduce the O(n) scan's pick
        // order byte for byte, including when distances are invalidated
        // (monotonically raised) between picks. ε = 0: every pick ranked.
        let run = |use_heap: bool| {
            let mut oracle = TestOracle::new();
            for b in 0..6u32 {
                oracle.distances.insert((FuncId(0), BlockId(b)), b + 1);
            }
            let mut cov = CoverageOptimized { epsilon: 0.0, ..Default::default() };
            for i in 0..6u64 {
                cov.add(StateId(i), meta(i as u32, 0, i));
            }
            let mut picks = Vec::new();
            picks.push(cov_pick(&mut cov, &mut oracle, use_heap).unwrap());
            // New coverage: the closest remaining block's distance grows
            // past everything else (non-decreasing, per the contract).
            oracle.distances.insert((FuncId(0), BlockId(1)), 40);
            oracle.gen += 1;
            picks.push(cov_pick(&mut cov, &mut oracle, use_heap).unwrap());
            // Remove one state, raise another distance, drain.
            cov.remove(StateId(3));
            oracle.distances.insert((FuncId(0), BlockId(2)), 41);
            oracle.gen += 1;
            while let Some(id) = cov_pick(&mut cov, &mut oracle, use_heap) {
                picks.push(id);
            }
            picks
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn coverage_heap_invalidates_relocated_readds_with_colliding_meta() {
        // Regression: an id removed and re-added at a *different block*
        // but with identical steps/affinity must not be served on its
        // old registration's cached distance — the location determines
        // the distance, so it is part of entry validation.
        let run = |use_heap: bool| {
            let mut oracle = TestOracle::new();
            oracle.distances.insert((FuncId(0), BlockId(0)), 1);
            oracle.distances.insert((FuncId(0), BlockId(1)), 5);
            oracle.distances.insert((FuncId(0), BlockId(2)), 0);
            oracle.distances.insert((FuncId(0), BlockId(3)), 3);
            let mut cov = CoverageOptimized { epsilon: 0.0, ..Default::default() };
            cov.add(StateId(1), meta(0, 0, 0));
            cov.add(StateId(2), meta(2, 0, 0));
            // Leaves a current-gen entry for id 1.
            let first = cov_pick(&mut cov, &mut oracle, use_heap);
            cov.remove(StateId(1));
            cov.add(StateId(1), meta(1, 0, 0)); // same steps/affinity, new block
            cov.add(StateId(3), meta(3, 0, 0));
            (first, cov_pick(&mut cov, &mut oracle, use_heap))
        };
        assert_eq!(run(true), run(false), "stale relocated entry must be discarded");
        assert_eq!(run(false), (Some(StateId(2)), Some(StateId(3))));
    }

    #[test]
    fn coverage_heap_counts_picks_and_repairs() {
        let mut oracle = TestOracle::new();
        oracle.distances.insert((FuncId(0), BlockId(0)), 5);
        let mut cov = CoverageOptimized { epsilon: 0.0, ..Default::default() };
        cov.add(StateId(1), meta(0, 0, 0));
        cov.add(StateId(2), meta(0, 0, 0));
        cov.remove(StateId(1)); // leaves a lazy-deleted heap entry
        assert_eq!(cov.pick(&mut oracle), Some(StateId(2)));
        let stats = cov.sched_stats();
        assert_eq!(stats.sched_picks, 1);
        assert!(stats.sched_heap_repairs >= 1, "lazy deletion + fresh-entry repair must count");
    }

    #[test]
    fn coverage_strategy_prefers_small_distance() {
        let mut oracle = TestOracle::new();
        oracle.distances.insert((FuncId(0), BlockId(0)), 9);
        oracle.distances.insert((FuncId(0), BlockId(1)), 1);
        // ε = 0 for determinism.
        let mut cov = CoverageOptimized { epsilon: 0.0, ..Default::default() };
        cov.add(StateId(1), meta(0, 0, 0));
        cov.add(StateId(2), meta(1, 1, 0));
        assert_eq!(cov.pick(&mut oracle), Some(StateId(2)));
    }

    #[test]
    fn coverage_strategy_breaks_ties_toward_warm_affinity() {
        let mut oracle = TestOracle::new();
        // Equal (unknown) distances and equal steps: affinity decides,
        // and only then the id.
        let mut cov = CoverageOptimized { epsilon: 0.0, ..Default::default() };
        cov.add(StateId(1), meta_aff(0, 3));
        cov.add(StateId(2), meta_aff(0, 9));
        cov.add(StateId(3), meta_aff(0, 9));
        assert_eq!(cov.pick(&mut oracle), Some(StateId(2)), "warmest first, id tie-break");
        assert_eq!(cov.pick(&mut oracle), Some(StateId(3)));
        assert_eq!(cov.pick(&mut oracle), Some(StateId(1)));
        // Distance still dominates affinity.
        oracle.distances.insert((FuncId(0), BlockId(1)), 1);
        let mut cov = CoverageOptimized { epsilon: 0.0, ..Default::default() };
        cov.add(StateId(1), meta_aff(0, u64::MAX));
        cov.add(StateId(2), meta_aff(1, 0));
        assert_eq!(cov.pick(&mut oracle), Some(StateId(2)), "distance outranks affinity");
    }

    #[test]
    fn topological_order_ignores_affinity() {
        // SSM's pick order is part of its contract: a pure function of
        // control position and id, never of solver-side stamps.
        let mut oracle = TestOracle::new();
        let mut topo = Topological::default();
        let mut hot = meta(0, 1, 0);
        hot.affinity = u64::MAX;
        let cold = meta(0, 1, 0);
        topo.add(StateId(2), hot);
        topo.add(StateId(1), cold);
        assert_eq!(topo.pick(&mut oracle), Some(StateId(1)), "id breaks the tie, not affinity");
    }

    #[test]
    fn random_strategy_is_seed_deterministic() {
        let picks = |seed: u64| {
            let mut oracle =
                TestOracle { rng: StdRng::seed_from_u64(seed), distances: HashMap::new(), gen: 0 };
            let mut r = RandomSearch::default();
            for i in 0..10 {
                r.add(StateId(i), meta(0, 0, 0));
            }
            let mut out = Vec::new();
            while let Some(id) = r.pick(&mut oracle) {
                out.push(id);
            }
            out
        };
        assert_eq!(picks(3), picks(3));
        assert_ne!(picks(3), picks(4));
    }

    /// An oracle with mutable per-block distances that honours the heap
    /// contract: distances only ever *grow* (coverage only shrinks the
    /// uncovered set) and every mutation bumps the generation.
    struct CovOracle {
        rng: StdRng,
        gen: u64,
        dist: HashMap<u32, u32>,
    }

    impl CovOracle {
        fn new(seed: u64) -> Self {
            CovOracle { rng: StdRng::seed_from_u64(seed), gen: 0, dist: HashMap::new() }
        }

        /// Simulates new coverage near `block`: its distance grows by
        /// `delta` (None stays None — unreachable stays unreachable).
        fn cover_near(&mut self, block: u32, delta: u32) {
            if let Some(d) = self.dist.get_mut(&block) {
                *d = d.saturating_add(delta);
            }
            self.gen += 1;
        }
    }

    impl Oracle for CovOracle {
        fn distance_to_uncovered(&mut self, _f: FuncId, block: BlockId) -> Option<u32> {
            self.dist.get(&block.0).copied()
        }

        fn coverage_generation(&self) -> u64 {
            self.gen
        }

        fn rng(&mut self) -> &mut StdRng {
            &mut self.rng
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum CovOp {
        /// `(id, block, steps, initial distance, affinity)`. Affinity is
        /// drawn from a *small* range on purpose: a removed-and-re-added id
        /// must be able to collide with its old registration on steps and
        /// affinity while differing in block, so the heap's stale-entry
        /// validation of the distance-determining location gets exercised
        /// (a monotone affinity counter would mask it).
        Add(u64, u32, u64, u32, u64),
        Remove(u64),
        Pick,
        /// Coverage invalidation: raise `block`'s distance by the delta.
        Cover(u32, u32),
    }

    fn cov_ops() -> impl proptest::strategy::Strategy<Value = Vec<CovOp>> {
        proptest::collection::vec(
            prop_oneof![
                (0u64..30, 0u32..8, 0u64..4, 0u32..6, 0u64..3)
                    .prop_map(|(id, b, s, d, a)| CovOp::Add(id, b, s, d, a)),
                (0u64..30).prop_map(CovOp::Remove),
                Just(CovOp::Pick),
                (0u32..8, 1u32..5).prop_map(|(b, d)| CovOp::Cover(b, d)),
            ],
            1..150,
        )
    }

    proptest! {
        // Cases and seed are pinned so CI runs are exactly reproducible.
        #![proptest_config(ProptestConfig::with_cases(64).seed(0x5EED_C04E))]

        /// The heapified `CoverageOptimized` pick sequence is byte-identical
        /// to the retained O(n) reference scan across random workloads:
        /// interleaved adds (with affinity-token churn — re-registered ids
        /// carry fresh affinity/steps), removes, picks (both the ranked and
        /// the ε-random path, driven by the same RNG stream), and mid-run
        /// coverage invalidation (distances raised monotonically, generation
        /// bumped). This is the tentpole's correctness contract: the heap is
        /// an optimization, never a behaviour change.
        #[test]
        fn cov_heap_pick_sequence_matches_scan(
            script in cov_ops(),
            seed in 0u64..500,
        ) {
            let run = |use_heap: bool| {
                let mut strategy = CoverageOptimized::default();
                let mut oracle = CovOracle::new(seed);
                let mut live: HashSet<u64> = HashSet::new();
                let mut picks: Vec<Option<StateId>> = Vec::new();
                for op in &script {
                    match *op {
                        CovOp::Add(id, block, steps, dist, affinity) => {
                            if live.insert(id) {
                                oracle.dist.entry(block).or_insert(dist);
                                strategy.add(
                                    StateId(id),
                                    StateMeta {
                                        func: FuncId(0),
                                        block: BlockId(block),
                                        topo: vec![(block, 0)],
                                        steps,
                                        affinity,
                                    },
                                );
                            }
                        }
                        CovOp::Remove(id) => {
                            strategy.remove(StateId(id));
                            live.remove(&id);
                        }
                        CovOp::Pick => {
                            let picked = cov_pick(&mut strategy, &mut oracle, use_heap);
                            if let Some(StateId(id)) = picked {
                                live.remove(&id);
                            }
                            picks.push(picked);
                        }
                        CovOp::Cover(block, delta) => oracle.cover_near(block, delta),
                    }
                }
                while let Some(id) = cov_pick(&mut strategy, &mut oracle, use_heap) {
                    live.remove(&id.0);
                    picks.push(Some(id));
                }
                picks
            };
            prop_assert_eq!(run(true), run(false));
        }
    }
}
