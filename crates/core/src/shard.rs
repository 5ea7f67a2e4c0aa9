//! Sharding substrate for the parallel exploration engine: topological
//! regions, the region → worker assignment, and the [`StolenState`]
//! hand-off that moves a state between workers.
//!
//! # Regions
//!
//! A state's **region** is the loop-aware topological index of its
//! *outermost* frame's block — a deterministic function of the state's
//! control position. Two states can only merge when their full
//! [`control keys`](crate::state::State::control_key) are equal, and equal
//! control keys imply equal regions, so partitioning the worklist by
//! region keeps every QCE/DSM merge opportunity on a single shard: the
//! paper's similarity machinery never has to look across workers.
//!
//! Keying on the outermost frame (rather than, say, a hash of the whole
//! stack) also gives locality: a state executing a call chain stays in
//! its caller's region for the whole call, and successors usually stay in
//! the same or an adjacent region, so most integrations are shard-local.
//!
//! # Assignment and stealing
//!
//! [`RegionMap`] assigns *contiguous ranges* of regions to workers. The
//! coordinator recomputes the map between rounds from the observed
//! per-region load ([`RegionMap::balance`]), which is how work stealing
//! happens: an idle worker is given whole regions from a loaded one —
//! never individual states, so mergeable groups stay together — and the
//! decision depends only on deterministic load counts, never on timing.
//!
//! # Hand-off
//!
//! Every worker of a fleet interns into one
//! [`symmerge_expr::SharedExprPool`], so a state's `ExprId`s mean the
//! same thing on every worker and a state moves between workers as
//! plain `Send` data: a [`StolenState`], under both schedulers. Besides
//! the state's worklist record ([`LiveState`]: the state with its DSM
//! history and fast-forward flag) it carries the routing region, the
//! `(origin_shard, origin_seq)` key BSP integrates by, and the
//! **warm-prefix seed** — how many leading pc conjuncts were resident
//! in the donor's solver-context tree, a length into the state's own
//! pc and so meaningful on any worker. The solver
//! affinity token ([`State::affinity`](crate::state::State)) indexes the
//! donor's solver clock, so the receiver resets it to 0 ("context cold
//! here") and re-derives it from its own prewarmed context tree.
//!
//! A checkpoint stores the same hand-off as a
//! [`PortableState`](crate::checkpoint::PortableState): the state
//! flattened onto a pool-free DAG, so a checkpoint outlives the process
//! and resumes under any scheduler or job count.

use crate::state::LiveState;

/// A topological region identifier (see the [module docs](self)).
pub type RegionId = u32;

/// A deterministic assignment of regions to `jobs` workers by contiguous
/// region ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    /// `jobs - 1` ascending split points; region `r` belongs to the
    /// worker whose rank equals the number of splits `<= r`.
    splits: Vec<RegionId>,
}

impl RegionMap {
    /// The map that assigns every region to worker 0 (`jobs` workers,
    /// all ranges but the first empty). Used for the seeding round.
    pub fn all_to_zero(jobs: u32) -> RegionMap {
        RegionMap { splits: vec![RegionId::MAX; jobs.saturating_sub(1) as usize] }
    }

    /// The worker that owns `region`.
    pub fn owner_of(&self, region: RegionId) -> u32 {
        self.splits.iter().filter(|&&s| s <= region).count() as u32
    }

    /// Recomputes the assignment from per-region loads (state counts),
    /// splitting the region axis into `jobs` contiguous ranges of
    /// near-equal total load. Deterministic: depends only on `loads`.
    ///
    /// `loads` must be sorted by region id (e.g. from a `BTreeMap`).
    pub fn balance(loads: &[(RegionId, u64)], jobs: u32) -> RegionMap {
        debug_assert!(loads.windows(2).all(|w| w[0].0 < w[1].0), "loads must be region-sorted");
        let total: u64 = loads.iter().map(|&(_, l)| l).sum();
        let mut splits: Vec<RegionId> = Vec::with_capacity(jobs.saturating_sub(1) as usize);
        if total > 0 {
            let mut acc = 0u64;
            for &(region, load) in loads {
                if splits.len() as u32 == jobs - 1 {
                    break;
                }
                // Cut before `region` once the accumulated load reaches
                // the next 1/jobs-th of the total.
                while (splits.len() as u32) < jobs - 1
                    && acc > 0
                    && acc * u64::from(jobs) >= total * (splits.len() as u64 + 1)
                {
                    splits.push(region);
                }
                acc += load;
            }
        }
        while (splits.len() as u32) < jobs.saturating_sub(1) {
            splits.push(RegionId::MAX);
        }
        RegionMap { splits }
    }

    /// Like [`RegionMap::balance`], but over a degraded fleet: workers
    /// whose `live` flag is false are assigned *empty* region ranges
    /// (via duplicate split points), so no state ever routes to a dead
    /// worker while the map keeps the full `jobs`-rank coordinate
    /// system the coordinator's channels are indexed by.
    pub fn balance_live(loads: &[(RegionId, u64)], jobs: u32, live: &[bool]) -> RegionMap {
        debug_assert_eq!(live.len(), jobs as usize);
        let n_live = live.iter().filter(|&&l| l).count() as u32;
        if n_live == 0 || n_live == jobs {
            return RegionMap::balance(loads, jobs);
        }
        // Balance across the live workers only, then expand back to the
        // full rank space: worker w's upper bound duplicates its lower
        // bound when dead (an empty range), and consumes the next live
        // range's bound when alive.
        let inner = RegionMap::balance(loads, n_live).splits;
        let mut bounds: Vec<RegionId> = Vec::with_capacity(jobs as usize);
        let mut next_live = 0usize;
        for &alive in live.iter().take(jobs as usize) {
            let hi = if alive {
                let hi = inner.get(next_live).copied().unwrap_or(RegionId::MAX);
                next_live += 1;
                hi
            } else {
                // Empty range: hi = lo = the previous worker's hi
                // (region ids start at 0, so a leading dead worker
                // gets the empty range [0, 0)).
                bounds.last().copied().unwrap_or(0)
            };
            bounds.push(hi);
        }
        bounds.pop(); // the last worker's range is unbounded
        RegionMap { splits: bounds }
    }
}

/// A state handed from one worker to another: its worklist record, taken
/// whole out of the donor's worklist, plus what the receiver needs to
/// route, order and pre-warm it. Plain `Send` data whose `ExprId`s
/// resolve in the fleet-shared [`symmerge_expr::SharedExprPool`] —
/// nothing is serialized or re-interned. Both schedulers move states
/// this way (see the [module docs](self)).
#[derive(Debug)]
pub struct StolenState {
    /// The state's worklist record as it left the donor, ids intact (the
    /// receiver re-ids it locally).
    pub live: LiveState,
    /// How many leading `pc` conjuncts were resident in the donor's
    /// solver-context tree, for batch prewarming on the receiver.
    pub warm_len: u32,
    /// The state's region when it left the donor (BSP routing key).
    pub region: RegionId,
    /// The donor worker's index.
    pub origin_shard: u32,
    /// The donor's hand-off sequence number; `(origin_shard,
    /// origin_seq)` totally orders a BSP round's hand-offs, which makes
    /// the receiver's integration order deterministic.
    pub origin_seq: u64,
}

impl StolenState {
    /// The deterministic order BSP integrates a round's hand-offs in.
    pub fn order_key(&self) -> (u32, u64) {
        (self.origin_shard, self.origin_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_map_balances_contiguously() {
        let loads: Vec<(RegionId, u64)> = vec![(0, 10), (3, 10), (7, 10), (9, 10)];
        let map = RegionMap::balance(&loads, 2);
        // The split lands mid-axis; both halves are non-empty.
        let owners: Vec<u32> = loads.iter().map(|&(r, _)| map.owner_of(r)).collect();
        assert_eq!(owners.first(), Some(&0));
        assert_eq!(owners.last(), Some(&1));
        // Contiguity: owners are non-decreasing along the region axis.
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn region_map_uniform_loads_split_evenly() {
        let loads: Vec<(RegionId, u64)> = (0..4).map(|r| (r, 1)).collect();
        let map = RegionMap::balance(&loads, 4);
        let owners: Vec<u32> = (0..4).map(|r| map.owner_of(r)).collect();
        assert_eq!(owners, vec![0, 1, 2, 3]);
    }

    #[test]
    fn region_map_empty_loads_all_to_zero() {
        let map = RegionMap::balance(&[], 4);
        assert_eq!(map, RegionMap::all_to_zero(4));
        for r in [0u32, 5, 1000] {
            assert_eq!(map.owner_of(r), 0);
        }
    }

    #[test]
    fn balance_live_routes_nothing_to_dead_workers() {
        let loads: Vec<(RegionId, u64)> = (0..8).map(|r| (r, 1)).collect();
        for dead in 0..4usize {
            let mut live = [true; 4];
            live[dead] = false;
            let map = RegionMap::balance_live(&loads, 4, &live);
            for &(r, _) in &loads {
                assert_ne!(map.owner_of(r) as usize, dead, "region {r} routed to dead {dead}");
            }
            // Contiguity survives degradation.
            let owners: Vec<u32> = loads.iter().map(|&(r, _)| map.owner_of(r)).collect();
            assert!(owners.windows(2).all(|w| w[0] <= w[1]));
            // Every live worker still gets work on a uniform axis.
            let assigned: std::collections::BTreeSet<u32> = owners.iter().copied().collect();
            assert_eq!(assigned.len(), 3, "dead={dead}: {owners:?}");
        }
    }

    #[test]
    fn balance_live_with_all_live_matches_balance() {
        let loads: Vec<(RegionId, u64)> = vec![(1, 3), (2, 9), (5, 1), (8, 4)];
        let live = [true; 3];
        assert_eq!(RegionMap::balance_live(&loads, 3, &live), RegionMap::balance(&loads, 3));
    }

    #[test]
    fn region_map_is_deterministic() {
        let loads: Vec<(RegionId, u64)> = vec![(1, 3), (2, 9), (5, 1), (8, 4)];
        assert_eq!(RegionMap::balance(&loads, 3), RegionMap::balance(&loads, 3));
    }
}
