//! Dynamic state merging — the paper's Algorithm 2.
//!
//! DSM is a `pickNext` layer beside an arbitrary *driving* strategy. Every
//! worklist state carries a bounded history (depth `δ`) of merge
//! signatures of its recent predecessors, in its
//! `LiveState` record; [`DsmIndex`] indexes
//! those histories by signature. When some worklist state `a₁`'s
//! current signature matches a signature in the history of another worklist
//! state `a₂`, then `a₁` "lags at most δ steps behind" a position where it
//! was similar to `a₂`'s ancestor — so `a₁` joins the *fast-forwarding set*
//! `F` and is prioritized (in topological order) until it either reaches
//! `a₂`'s position and merges, or diverges and drops out of `F`. When `F`
//! is empty the driving strategy chooses, so the search heuristic keeps
//! control (the property §5.5 evaluates).

use crate::state::StateId;
use crate::strategy::{topo_cmp, Oracle, StateMeta, Strategy};
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

/// The DSM index: the paper's `pickNext_F` beside the driving strategy.
///
/// The engine owns both the strategy and each state's history (in its
/// `LiveState` record); this index holds only
/// what Algorithm 2 looks up by signature. It must see every worklist
/// state: [`DsmIndex::add`] on integration and [`DsmIndex::remove`],
/// with the same history, when the state leaves the worklist.
#[derive(Debug)]
pub struct DsmIndex {
    config: DsmConfig,
    metas: HashMap<StateId, StateMeta>,
    /// Current signature per worklist state.
    cur_sig: HashMap<StateId, u64>,
    /// sig → worklist states with that signature in their *history*.
    hist_index: HashMap<u64, HashSet<StateId>>,
    /// sig → worklist states whose *current* signature is sig.
    cur_index: HashMap<u64, HashSet<StateId>>,
    /// Candidate fast-forwarding set (validated lazily at pick time).
    ff_set: HashSet<StateId>,
    stats: DsmStats,
}

impl DsmIndex {
    /// An empty index.
    pub fn new(config: DsmConfig) -> Self {
        DsmIndex {
            config,
            metas: HashMap::new(),
            cur_sig: HashMap::new(),
            hist_index: HashMap::new(),
            cur_index: HashMap::new(),
            ff_set: HashSet::new(),
            stats: DsmStats::default(),
        }
    }

    /// Scheduling counters.
    pub fn stats(&self) -> DsmStats {
        self.stats
    }

    /// Turns a picked state's history into the one its successors
    /// inherit: `pred(·, δ)` = the history plus the state's own signature,
    /// keeping the δ most recent.
    pub fn push_history(&self, history: &mut VecDeque<u64>, sig: u64) {
        history.push_back(sig);
        while history.len() > self.config.delta {
            history.pop_front();
        }
    }

    /// Indexes a worklist state under its merge signature and history.
    pub fn add(&mut self, id: StateId, meta: StateMeta, sig: u64, history: &VecDeque<u64>) {
        self.metas.insert(id, meta);
        self.cur_sig.insert(id, sig);
        self.cur_index.entry(sig).or_default().insert(id);
        for &s in history {
            self.hist_index.entry(s).or_default().insert(id);
        }
        // Does this state lag behind someone? (its current sig appears in
        // another state's history)
        if self.hist_index.get(&sig).is_some_and(|owners| owners.iter().any(|&o| o != id)) {
            self.ff_set.insert(id);
        }
        // Does this state's history make someone else a laggard?
        for &s in history {
            if let Some(others) = self.cur_index.get(&s) {
                for &o in others {
                    if o != id {
                        self.ff_set.insert(o);
                    }
                }
            }
        }
    }

    /// Un-indexes a state leaving the worklist; `history` is the one it
    /// was added with. Returns its signature and whether it is in the
    /// fast-forwarding set — for a state just picked, whether
    /// [`DsmIndex::pick`] served it from there (a driving pick finds the
    /// set empty: every member failed validation and was dropped). `None`
    /// if the state was never indexed.
    pub fn remove(&mut self, id: StateId, history: &VecDeque<u64>) -> Option<(u64, bool)> {
        let sig = self.cur_sig.remove(&id)?;
        self.metas.remove(&id);
        unindex(&mut self.cur_index, sig, id);
        for &s in history {
            unindex(&mut self.hist_index, s, id);
        }
        Some((sig, self.ff_set.remove(&id)))
    }

    /// Whether `id` currently belongs to the (validated) fast-forwarding
    /// set.
    fn validate_ff(&self, id: StateId) -> bool {
        let Some(&sig) = self.cur_sig.get(&id) else { return false };
        self.hist_index.get(&sig).is_some_and(|owners| owners.iter().any(|&o| o != id))
    }

    /// `pickNext`: the topologically first laggard, taken out of
    /// `driving`, or else `driving`'s own pick. The state stays indexed
    /// until [`DsmIndex::remove`].
    pub fn pick(&mut self, driving: &mut dyn Strategy, oracle: &mut dyn Oracle) -> Option<StateId> {
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
            driving.remove(id);
            return Some(id);
        }
        let picked = driving.pick(oracle)?;
        self.stats.driving_picks += 1;
        Some(picked)
    }
}

/// Drops `id` from `index[sig]`, and the entry once it is empty.
fn unindex(index: &mut HashMap<u64, HashSet<StateId>>, sig: u64, id: StateId) {
    if let Some(set) = index.get_mut(&sig) {
        set.remove(&id);
        if set.is_empty() {
            index.remove(&sig);
        }
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

    /// A worklist kept the way the engine keeps it: a BFS driving
    /// strategy, the DSM index beside it, and each state's history.
    struct Worklist {
        bfs: Bfs,
        dsm: DsmIndex,
        histories: HashMap<StateId, VecDeque<u64>>,
        oracle: NullOracle,
        picks: u64,
    }

    impl Worklist {
        fn new(delta: usize) -> Worklist {
            Worklist {
                bfs: Bfs::default(),
                dsm: DsmIndex::new(DsmConfig { delta }),
                histories: HashMap::new(),
                oracle: NullOracle(StdRng::seed_from_u64(1)),
                picks: 0,
            }
        }

        fn add(&mut self, id: u64, rpo: u32, sig: u64, history: &[u64]) {
            let (id, history) = (StateId(id), VecDeque::from(history.to_vec()));
            self.bfs.add(id, meta(rpo));
            self.dsm.add(id, meta(rpo), sig, &history);
            self.histories.insert(id, history);
        }

        fn remove(&mut self, id: u64) -> Option<(u64, bool)> {
            let id = StateId(id);
            self.bfs.remove(id);
            self.dsm.remove(id, &self.histories.remove(&id)?)
        }

        /// Picks a state and takes it out of the worklist.
        fn pick(&mut self) -> Option<StateId> {
            let id = self.dsm.pick(&mut self.bfs, &mut self.oracle)?;
            self.picks += 1;
            self.dsm.remove(id, &self.histories.remove(&id).unwrap());
            Some(id)
        }
    }

    #[test]
    fn laggard_is_prioritized_over_driving_order() {
        let mut w = Worklist::new(4);
        // State 1 is ahead; its history contains signature 0xAB.
        w.add(1, 9, 0x99, &[0xAB, 0xCD]);
        // State 2's current signature matches state 1's history → laggard.
        w.add(2, 3, 0xAB, &[]);
        // BFS would pick state 1 first; DSM must fast-forward state 2.
        assert_eq!(w.pick(), Some(StateId(2)));
        assert_eq!(w.dsm.stats().ff_picks, 1);
        assert_eq!(w.pick(), Some(StateId(1)));
        assert_eq!(w.dsm.stats().driving_picks, 1);
    }

    #[test]
    fn laggard_detection_works_in_either_insertion_order() {
        let mut w = Worklist::new(4);
        // Laggard registered first, the "ahead" state second.
        w.add(2, 3, 0xAB, &[]);
        w.add(1, 9, 0x99, &[0xAB]);
        assert_eq!(w.pick(), Some(StateId(2)));
    }

    #[test]
    fn stale_ff_membership_is_dropped() {
        let mut w = Worklist::new(4);
        w.add(1, 9, 0x99, &[0xAB]);
        w.add(2, 3, 0xAB, &[]);
        // The "ahead" state leaves the worklist; state 2 is no laggard now.
        assert!(w.remove(1).is_some());
        assert_eq!(w.pick(), Some(StateId(2)));
        assert_eq!(w.dsm.stats().ff_picks, 0, "must fall through to driving");
    }

    #[test]
    fn multiple_laggards_picked_in_topological_order() {
        let mut w = Worklist::new(4);
        w.add(1, 9, 0x99, &[0xA1, 0xA2]);
        w.add(2, 7, 0xA1, &[]);
        w.add(3, 2, 0xA2, &[]);
        // Both 2 and 3 lag; 3 has the earlier topological position.
        assert_eq!(w.pick(), Some(StateId(3)));
        assert_eq!(w.pick(), Some(StateId(2)));
    }

    #[test]
    fn child_history_is_bounded_by_delta() {
        let dsm = DsmIndex::new(DsmConfig { delta: 3 });
        let mut h = VecDeque::new();
        for sig in 0..10u64 {
            dsm.push_history(&mut h, sig);
        }
        assert_eq!(h, VecDeque::from([7, 8, 9]));
    }

    #[test]
    fn indexes_drain_to_empty() {
        let mut w = Worklist::new(2);
        // Two lineages: 1 is ahead of laggards 2 and 3; 4 is ahead of 5.
        w.add(1, 9, 0x10, &[0xA1, 0xA2]);
        w.add(2, 4, 0xA1, &[0x01]);
        w.add(3, 2, 0xA2, &[0x01, 0x02]);
        w.add(4, 8, 0x20, &[0xB1]);
        w.add(5, 5, 0xB1, &[]);
        w.add(6, 6, 0x30, &[0x31, 0x32]);
        // A laggard goes first; its successor keeps lagging behind 1.
        assert_eq!(w.pick(), Some(StateId(3)));
        let mut succ = VecDeque::from([0x01, 0x02]);
        w.dsm.push_history(&mut succ, 0xA2);
        w.add(7, 3, 0xA1, &Vec::from(succ));
        // The counterpart of 5 leaves without a pick.
        assert_eq!(w.remove(4).map(|(sig, _)| sig), Some(0x20));
        while w.pick().is_some() {}
        assert!(w.histories.is_empty() && w.bfs.is_empty());
        let DsmIndex { metas, cur_sig, hist_index, cur_index, ff_set, stats, .. } = &w.dsm;
        assert!(metas.is_empty() && cur_sig.is_empty(), "per-state entries remain");
        assert!(hist_index.is_empty() && cur_index.is_empty(), "signature entries remain");
        assert!(ff_set.is_empty(), "fast-forward candidates remain");
        assert!(stats.ff_picks > 0 && stats.driving_picks > 0);
        assert_eq!(stats.ff_picks + stats.driving_picks, w.picks);
    }
}
