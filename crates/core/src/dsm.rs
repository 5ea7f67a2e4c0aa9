//! Dynamic state merging — the paper's Algorithm 2.
//!
//! DSM is a `pickNext` layer over an arbitrary *driving* strategy. It keeps,
//! for every worklist state, a bounded history (depth `δ`) of merge
//! signatures of its recent predecessors. When some worklist state `a₁`'s
//! current signature matches a signature in the history of another worklist
//! state `a₂`, then `a₁` "lags at most δ steps behind" a position where it
//! was similar to `a₂`'s ancestor — so `a₁` joins the *fast-forwarding set*
//! `F` and is prioritized (in topological order) until it either reaches
//! `a₂`'s position and merges, or diverges and drops out of `F`. When `F`
//! is empty the driving strategy chooses, so the search heuristic keeps
//! control (the property §5.5 evaluates).

use crate::state::StateId;
use crate::strategy::{topo_cmp, Oracle, SchedStats, StateMeta, Strategy};
use std::collections::{HashMap, HashSet, VecDeque};

/// DSM tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsmConfig {
    /// History depth `δ` (paper default: 8 basic blocks).
    pub delta: usize,
}

impl Default for DsmConfig {
    fn default() -> Self {
        DsmConfig { delta: 8 }
    }
}

/// Counters reported by the DSM layer (feeds the paper's §5.5 numbers).
#[derive(Debug, Clone, Copy, Default)]
pub struct DsmStats {
    /// Picks served from the fast-forwarding set.
    pub ff_picks: u64,
    /// Picks delegated to the driving strategy.
    pub driving_picks: u64,
}

impl DsmStats {
    /// Accumulates another stats block (used by the parallel engine's
    /// report reduction).
    pub fn absorb(&mut self, other: &DsmStats) {
        self.ff_picks += other.ff_picks;
        self.driving_picks += other.driving_picks;
    }
}

/// The DSM scheduling layer.
pub struct DsmStrategy {
    driving: Box<dyn Strategy>,
    config: DsmConfig,
    metas: HashMap<StateId, StateMeta>,
    /// Current signature per worklist state.
    cur_sig: HashMap<StateId, u64>,
    /// Bounded predecessor-signature history per worklist state.
    history: HashMap<StateId, VecDeque<u64>>,
    /// sig → worklist states with that signature in their *history*.
    hist_index: HashMap<u64, HashSet<StateId>>,
    /// sig → worklist states whose *current* signature is sig.
    cur_index: HashMap<u64, HashSet<StateId>>,
    /// Candidate fast-forwarding set (validated lazily at pick time).
    ff_set: HashSet<StateId>,
    /// Most recently picked state: `(id, signature, was fast-forwarded)`,
    /// captured before its bookkeeping is torn down (the engine needs the
    /// signature to seed children's histories and the flag for the §5.5
    /// fast-forward success statistic).
    last_picked: Option<(StateId, u64, bool)>,
    stats: DsmStats,
}

impl std::fmt::Debug for DsmStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsmStrategy")
            .field("config", &self.config)
            .field("live", &self.metas.len())
            .field("ff_candidates", &self.ff_set.len())
            .finish()
    }
}

impl DsmStrategy {
    /// Wraps a driving strategy.
    pub fn new(driving: Box<dyn Strategy>, config: DsmConfig) -> Self {
        DsmStrategy {
            driving,
            config,
            metas: HashMap::new(),
            cur_sig: HashMap::new(),
            history: HashMap::new(),
            hist_index: HashMap::new(),
            cur_index: HashMap::new(),
            ff_set: HashSet::new(),
            last_picked: None,
            stats: DsmStats::default(),
        }
    }

    /// Scheduling counters.
    pub fn stats(&self) -> DsmStats {
        self.stats
    }

    /// The bounded history a successor of `parent` should inherit:
    /// `pred(·, δ)` = the parent's history plus the parent's own signature.
    pub fn child_history(
        &self,
        parent_hist: &VecDeque<u64>,
        parent_sig: u64,
        delta: usize,
    ) -> VecDeque<u64> {
        let mut h = parent_hist.clone();
        h.push_back(parent_sig);
        while h.len() > delta {
            h.pop_front();
        }
        h
    }

    /// The configured history depth.
    pub fn delta(&self) -> usize {
        self.config.delta
    }

    /// Registers a state with its merge signature and inherited history.
    pub fn add_with_sig(&mut self, id: StateId, meta: StateMeta, sig: u64, history: VecDeque<u64>) {
        self.driving.add(id, meta.clone());
        self.metas.insert(id, meta);
        self.cur_sig.insert(id, sig);
        self.cur_index.entry(sig).or_default().insert(id);
        for &s in &history {
            self.hist_index.entry(s).or_default().insert(id);
        }
        // Does this state lag behind someone? (its current sig appears in
        // another state's history)
        if self.hist_index.get(&sig).is_some_and(|owners| owners.iter().any(|&o| o != id)) {
            self.ff_set.insert(id);
        }
        // Does this state's history make someone else a laggard?
        for &s in &history {
            if let Some(others) = self.cur_index.get(&s) {
                for &o in others {
                    if o != id {
                        self.ff_set.insert(o);
                    }
                }
            }
        }
        self.history.insert(id, history);
    }

    /// The history recorded for a live state (used to derive children).
    pub fn history_of(&self, id: StateId) -> Option<&VecDeque<u64>> {
        self.history.get(&id)
    }

    /// The current signature recorded for a live state.
    pub fn sig_of(&self, id: StateId) -> Option<u64> {
        self.cur_sig.get(&id).copied()
    }

    /// The signature the given state had when [`Strategy::pick`] returned
    /// it (its live bookkeeping is gone by then).
    pub fn picked_sig(&self, id: StateId) -> Option<u64> {
        match self.last_picked {
            Some((pid, sig, _)) if pid == id => Some(sig),
            _ => None,
        }
    }

    /// Whether the given state was served from the fast-forwarding set by
    /// the most recent [`Strategy::pick`].
    pub fn picked_was_ff(&self, id: StateId) -> bool {
        matches!(self.last_picked, Some((pid, _, true)) if pid == id)
    }

    fn unregister(&mut self, id: StateId) -> bool {
        let known = self.metas.remove(&id).is_some();
        if let Some(sig) = self.cur_sig.remove(&id) {
            if let Some(set) = self.cur_index.get_mut(&sig) {
                set.remove(&id);
                if set.is_empty() {
                    self.cur_index.remove(&sig);
                }
            }
        }
        if let Some(hist) = self.history.remove(&id) {
            for s in hist {
                if let Some(set) = self.hist_index.get_mut(&s) {
                    set.remove(&id);
                    if set.is_empty() {
                        self.hist_index.remove(&s);
                    }
                }
            }
        }
        self.ff_set.remove(&id);
        known
    }

    /// Whether `id` currently belongs to the (validated) fast-forwarding
    /// set.
    fn validate_ff(&self, id: StateId) -> bool {
        let Some(&sig) = self.cur_sig.get(&id) else { return false };
        self.hist_index.get(&sig).is_some_and(|owners| owners.iter().any(|&o| o != id))
    }
}

impl Strategy for DsmStrategy {
    fn add(&mut self, id: StateId, meta: StateMeta) {
        // Plain add (no signature): used only by generic callers/tests.
        self.add_with_sig(id, meta, 0, VecDeque::new());
    }

    fn remove(&mut self, id: StateId) -> bool {
        self.driving.remove(id);
        self.unregister(id)
    }

    fn pick(&mut self, oracle: &mut dyn Oracle) -> Option<StateId> {
        // Validate lazily: membership can go stale when the counterpart
        // state leaves the worklist.
        let mut stale: Vec<StateId> = Vec::new();
        let mut best: Option<StateId> = None;
        for &id in &self.ff_set {
            if !self.validate_ff(id) {
                stale.push(id);
                continue;
            }
            best = match best {
                None => Some(id),
                Some(b) => {
                    let (ma, mb) = (&self.metas[&id], &self.metas[&b]);
                    // pickNext_F: topological order among laggards.
                    if topo_cmp(ma, mb).then(id.cmp(&b)).is_lt() {
                        Some(id)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        for id in stale {
            self.ff_set.remove(&id);
        }
        if let Some(id) = best {
            self.stats.ff_picks += 1;
            self.last_picked = self.cur_sig.get(&id).map(|&s| (id, s, true));
            self.driving.remove(id);
            self.unregister(id);
            return Some(id);
        }
        let picked = self.driving.pick(oracle)?;
        self.stats.driving_picks += 1;
        self.last_picked = self.cur_sig.get(&picked).map(|&s| (picked, s, false));
        self.unregister(picked);
        Some(picked)
    }

    fn len(&self) -> usize {
        self.metas.len()
    }

    fn sched_stats(&self) -> SchedStats {
        // DSM's own fast-forward picks are counted in [`DsmStats`]; the
        // heap-cost counters belong to the driving strategy.
        self.driving.sched_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Bfs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symmerge_ir::{BlockId, FuncId};

    struct NullOracle(StdRng);

    impl Oracle for NullOracle {
        fn distance_to_uncovered(&mut self, _f: FuncId, _b: BlockId) -> Option<u32> {
            None
        }

        fn rng(&mut self) -> &mut StdRng {
            &mut self.0
        }
    }

    fn meta(rpo: u32) -> StateMeta {
        StateMeta {
            func: FuncId(0),
            block: BlockId(rpo),
            topo: vec![(rpo, 0)],
            steps: 0,
            affinity: 0,
        }
    }

    #[test]
    fn laggard_is_prioritized_over_driving_order() {
        let mut oracle = NullOracle(StdRng::seed_from_u64(1));
        let mut dsm = DsmStrategy::new(Box::new(Bfs::default()), DsmConfig { delta: 4 });
        // State 1 is ahead; its history contains signature 0xAB.
        dsm.add_with_sig(StateId(1), meta(9), 0x99, VecDeque::from([0xAB, 0xCD]));
        // State 2's current signature matches state 1's history → laggard.
        dsm.add_with_sig(StateId(2), meta(3), 0xAB, VecDeque::new());
        // BFS would pick state 1 first; DSM must fast-forward state 2.
        assert_eq!(dsm.pick(&mut oracle), Some(StateId(2)));
        assert_eq!(dsm.stats().ff_picks, 1);
        assert_eq!(dsm.pick(&mut oracle), Some(StateId(1)));
        assert_eq!(dsm.stats().driving_picks, 1);
    }

    #[test]
    fn laggard_detection_works_in_either_insertion_order() {
        let mut oracle = NullOracle(StdRng::seed_from_u64(1));
        let mut dsm = DsmStrategy::new(Box::new(Bfs::default()), DsmConfig { delta: 4 });
        // Laggard registered first, the "ahead" state second.
        dsm.add_with_sig(StateId(2), meta(3), 0xAB, VecDeque::new());
        dsm.add_with_sig(StateId(1), meta(9), 0x99, VecDeque::from([0xAB]));
        assert_eq!(dsm.pick(&mut oracle), Some(StateId(2)));
    }

    #[test]
    fn stale_ff_membership_is_dropped() {
        let mut oracle = NullOracle(StdRng::seed_from_u64(1));
        let mut dsm = DsmStrategy::new(Box::new(Bfs::default()), DsmConfig { delta: 4 });
        dsm.add_with_sig(StateId(1), meta(9), 0x99, VecDeque::from([0xAB]));
        dsm.add_with_sig(StateId(2), meta(3), 0xAB, VecDeque::new());
        // The "ahead" state leaves the worklist; state 2 is no laggard now.
        assert!(dsm.remove(StateId(1)));
        assert_eq!(dsm.pick(&mut oracle), Some(StateId(2)));
        assert_eq!(dsm.stats().ff_picks, 0, "must fall through to driving");
    }

    #[test]
    fn multiple_laggards_picked_in_topological_order() {
        let mut oracle = NullOracle(StdRng::seed_from_u64(1));
        let mut dsm = DsmStrategy::new(Box::new(Bfs::default()), DsmConfig { delta: 4 });
        dsm.add_with_sig(StateId(1), meta(9), 0x99, VecDeque::from([0xA1, 0xA2]));
        dsm.add_with_sig(StateId(2), meta(7), 0xA1, VecDeque::new());
        dsm.add_with_sig(StateId(3), meta(2), 0xA2, VecDeque::new());
        // Both 2 and 3 lag; 3 has the earlier topological position.
        assert_eq!(dsm.pick(&mut oracle), Some(StateId(3)));
        assert_eq!(dsm.pick(&mut oracle), Some(StateId(2)));
    }

    #[test]
    fn child_history_is_bounded_by_delta() {
        let dsm = DsmStrategy::new(Box::new(Bfs::default()), DsmConfig { delta: 3 });
        let mut h = VecDeque::new();
        for sig in 0..10u64 {
            h = dsm.child_history(&h, sig, 3);
        }
        assert_eq!(h, VecDeque::from([7, 8, 9]));
    }
}
