//! The verdict ladder: every store a query can be answered from without
//! solving, walked in one fixed order.
//!
//! A [`VerdictLadder`] owns the exact cache ([`QueryCache`]), the
//! counterexample cache ([`CexCache`]) and the recent-model history, all
//! private to the solver that fills them, as KLEE's caches are private
//! to its process. [`VerdictLadder::lookup`] tries, in order:
//!
//! 1. the exact cache;
//! 2. the tier gate: a gated query ([`SolverConfig::tier_gate`]) stops
//!    here;
//! 3. model reuse over the recent-model history;
//! 4. the unsat cores;
//! 5. the sat supersets.
//!
//! Every hit is answered in one place, and every fresh verdict enters
//! through [`VerdictLadder::record`].

use crate::model::Model;
use crate::solve::{elem_hash, SatResult, SolverConfig, SolverStats};
use std::collections::{HashMap, VecDeque};
use symmerge_expr::{ExprId, ExprPool};

/// The exact-match query cache.
///
/// Hash-bucketed on a 64-bit prehash of the normalized constraint set,
/// with the **full set stored and verified on every hit**: two distinct
/// sets that collide on the prehash land in the same bucket but can never
/// alias each other's verdict. A verdict is `Some(model)` for sat and
/// `None` for unsat; unknowns are never stored.
#[derive(Debug, Default)]
struct QueryCache {
    buckets: HashMap<u64, Bucket>,
}

/// The full sets sharing one prehash, each with its verdict.
type Bucket = Vec<(Box<[ExprId]>, Option<Model>)>;

impl QueryCache {
    fn get(&self, h: u64, set: &[ExprId]) -> Option<&Option<Model>> {
        self.buckets.get(&h)?.iter().find(|(k, _)| **k == *set).map(|(_, v)| v)
    }

    fn insert(&mut self, h: u64, set: &[ExprId], verdict: Option<Model>) {
        let bucket = self.buckets.entry(h).or_default();
        match bucket.iter_mut().find(|(k, _)| **k == *set) {
            Some(entry) => entry.1 = verdict,
            None => bucket.push((set.into(), verdict)),
        }
    }
}

/// The KLEE-style counterexample cache over *sorted* constraint sets:
/// unsat cores, and sat sets each with a model, every one with its
/// membership [`signature`].
///
/// Soundness rests on two set-theoretic facts: an unsat subset proves any
/// superset unsat (adding conjuncts cannot recover satisfiability), and a
/// model for a superset satisfies every subset (dropping conjuncts cannot
/// invalidate it). With the prefilter ([`SolverConfig::cex_prefilter`])
/// on, a subset scan tests one AND/compare per stored set and runs the
/// linear merge only on survivors.
///
/// The stores are kept minimal-ish by subsumption — inserting a new core
/// drops stored supersets, and cores that come from independence slices
/// or dead context prefixes are smaller than the queries that produced
/// them. Both stores enforce `capacity` by FIFO eviction independently —
/// overfilling one side can never evict the other's entries.
///
/// Every scan asserts the sorted-set invariant [`is_subset`] relies on,
/// so an unsorted caller fails a debug build instead of silently missing
/// (or bogusly claiming) subset relations.
#[derive(Debug)]
struct CexCache {
    unsat: VecDeque<(u64, Box<[ExprId]>)>,
    sat: VecDeque<(u64, Box<[ExprId]>, Model)>,
    capacity: usize,
    prefilter: bool,
}

/// Boundary assertion for the sorted, deduplicated set invariant.
fn debug_assert_normalized(set: &[ExprId]) {
    debug_assert!(
        set.windows(2).all(|w| w[0] < w[1]),
        "cex-cache sets must be sorted and deduplicated"
    );
}

/// One-word refutation of `a ⊆ b` (true = the merge must run).
fn may_subset(prefilter: bool, sig_a: u64, sig_b: u64) -> bool {
    !prefilter || sig_a & !sig_b == 0
}

impl CexCache {
    fn new(capacity: usize, prefilter: bool) -> Self {
        CexCache { unsat: VecDeque::new(), sat: VecDeque::new(), capacity, prefilter }
    }

    /// Does a stored unsat core prove `set` (with signature `sig`) unsat?
    fn implies_unsat(&self, sig: u64, set: &[ExprId]) -> bool {
        debug_assert_normalized(set);
        self.unsat.iter().any(|(s, u)| may_subset(self.prefilter, *s, sig) && is_subset(u, set))
    }

    /// A model from a stored sat superset of `set`, if any.
    fn model_for_subset(&self, sig: u64, set: &[ExprId]) -> Option<&Model> {
        debug_assert_normalized(set);
        self.sat
            .iter()
            .find(|(s, sup, _)| may_subset(self.prefilter, sig, *s) && is_subset(set, sup))
            .map(|(_, _, m)| m)
    }

    fn note_unsat(&mut self, set: &[ExprId]) {
        let sig = signature(set);
        if self.capacity == 0 || self.implies_unsat(sig, set) {
            return; // already covered by a stored (smaller) core
        }
        let pf = self.prefilter;
        self.unsat.retain(|(s, u)| !(may_subset(pf, sig, *s) && is_subset(set, u)));
        while self.unsat.len() >= self.capacity {
            self.unsat.pop_front();
        }
        self.unsat.push_back((sig, set.into()));
    }

    fn note_sat(&mut self, set: &[ExprId], m: &Model) {
        let sig = signature(set);
        if self.capacity == 0 || self.model_for_subset(sig, set).is_some() {
            return; // a stored superset already answers everything this would
        }
        let pf = self.prefilter;
        self.sat.retain(|(s, sub, _)| !(may_subset(pf, *s, sig) && is_subset(sub, set)));
        while self.sat.len() >= self.capacity {
            self.sat.pop_front();
        }
        self.sat.push_back((sig, set.into(), m.clone()));
    }
}

/// `a ⊆ b` for sorted, deduplicated slices (linear merge walk).
fn is_subset(a: &[ExprId], b: &[ExprId]) -> bool {
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

/// 64-bit membership signature of a set: each element ORs in one of 64
/// bits (chosen by its hash). `a ⊆ b` implies
/// `signature(a) & !signature(b) == 0`, so one AND/compare refutes most
/// subset candidates before the linear merge of [`is_subset`] runs.
fn signature(set: &[ExprId]) -> u64 {
    set.iter().fold(0u64, |s, &c| s | 1u64 << (elem_hash(c) & 63))
}

/// The rungs of the ladder that answer a query, in lookup order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Exact,
    Reuse,
    CexUnsat,
    CexSat,
}

impl Tier {
    /// The hit counter this tier bumps.
    fn counter(self, stats: &mut SolverStats) -> &mut u64 {
        match self {
            Tier::Exact => &mut stats.cache_hits,
            Tier::Reuse => &mut stats.model_reuse_hits,
            Tier::CexUnsat => &mut stats.cex_unsat_hits,
            Tier::CexSat => &mut stats.cex_sat_hits,
        }
    }
}

/// The query tiers in front of the solving paths (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct VerdictLadder {
    cache: QueryCache,
    cex: CexCache,
    recent_models: VecDeque<Model>,
}

impl VerdictLadder {
    pub(crate) fn new(config: &SolverConfig) -> Self {
        VerdictLadder {
            cache: QueryCache::default(),
            cex: CexCache::new(config.cex_capacity, config.cex_prefilter),
            recent_models: VecDeque::new(),
        }
    }

    /// Walks the ladder for the normalized `set` with [`set_hash`](crate::solve)
    /// `h`. `gated` stops the walk after the exact tier. A hit is
    /// counted, copied into the exact cache and returned.
    pub(crate) fn lookup(
        &mut self,
        config: &SolverConfig,
        stats: &mut SolverStats,
        pool: &ExprPool,
        h: u64,
        set: &[ExprId],
        gated: bool,
    ) -> Option<SatResult> {
        let (tier, verdict) = self.find(config, pool, h, set, gated)?;
        *tier.counter(stats) += 1;
        if config.use_cache && tier != Tier::Exact {
            self.cache.insert(h, set, verdict.clone());
        }
        Some(match verdict {
            Some(m) => {
                debug_assert!(m.satisfies(pool, set), "{tier:?} model must satisfy");
                stats.sat += 1;
                SatResult::Sat(m)
            }
            None => {
                stats.unsat += 1;
                SatResult::Unsat
            }
        })
    }

    /// The first tier that answers `set`, with its verdict.
    fn find(
        &self,
        config: &SolverConfig,
        pool: &ExprPool,
        h: u64,
        set: &[ExprId],
        gated: bool,
    ) -> Option<(Tier, Option<Model>)> {
        if config.use_cache {
            if let Some(v) = self.cache.get(h, set) {
                return Some((Tier::Exact, v.clone()));
            }
        }
        if gated {
            return None;
        }
        // Model-based shortcuts return whatever model happens to fit, so
        // they are skipped in canonical mode (the answer must be *the*
        // minimal model).
        if config.use_model_reuse && !config.canonical_models {
            if let Some(m) = self.recent_models.iter().find(|m| m.satisfies(pool, set)) {
                return Some((Tier::Reuse, Some(m.clone())));
            }
        }
        if config.use_cex_cache {
            let sig = signature(set);
            if self.cex.implies_unsat(sig, set) {
                return Some((Tier::CexUnsat, None));
            }
            if !config.canonical_models {
                if let Some(m) = self.cex.model_for_subset(sig, set) {
                    return Some((Tier::CexSat, Some(m.clone())));
                }
            }
        }
        None
    }

    /// Feeds a freshly computed result into the stats and the stores.
    pub(crate) fn record(
        &mut self,
        config: &SolverConfig,
        stats: &mut SolverStats,
        pool: &ExprPool,
        h: u64,
        set: &[ExprId],
        result: &SatResult,
    ) {
        let model = match result {
            SatResult::Sat(m) => {
                debug_assert!(m.satisfies(pool, set), "solver returned a bogus model");
                stats.sat += 1;
                Some(m)
            }
            SatResult::Unsat => {
                stats.unsat += 1;
                None
            }
            SatResult::Unknown => {
                stats.unknown += 1;
                return; // never cached: a retry may have a bigger budget
            }
        };
        // The model-donating tiers (reuse, cex sat-superset) are off in
        // canonical mode, so nothing would ever read what they store.
        let donate = !config.canonical_models;
        if let Some(m) = model.filter(|_| donate && config.model_history > 0) {
            while self.recent_models.len() >= config.model_history {
                self.recent_models.pop_front();
            }
            self.recent_models.push_back(m.clone());
        }
        if config.use_cache {
            self.cache.insert(h, set, model.cloned());
        }
        if config.use_cex_cache {
            match model {
                Some(m) if donate => self.cex.note_sat(set, m),
                Some(_) => {}
                None => self.cex.note_unsat(set),
            }
        }
    }

    /// Stores an unsat core (a sorted, deduplicated set).
    pub(crate) fn note_core(&mut self, core: &[ExprId]) {
        self.cex.note_unsat(core);
    }

    /// Whether a stored core proves the independence slice `slice`
    /// unsat; a hit is counted.
    pub(crate) fn refutes(&self, stats: &mut SolverStats, slice: &[ExprId]) -> bool {
        let hit = self.cex.implies_unsat(signature(slice), slice);
        if hit {
            stats.cex_unsat_hits += 1;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ExprPool {
        ExprPool::new(8)
    }

    #[test]
    fn query_cache_collision_cannot_alias_distinct_sets() {
        // Regression test for the u64-keyed cache unsoundness: force two
        // *different* constraint sets into the same hash bucket (what a
        // 64-bit hash collision does) and verify lookups distinguish them
        // by the stored full key. Under the old design — verdicts keyed on
        // the bare hash — the second insert would overwrite the first and
        // every probe at this hash would return the same (possibly wrong)
        // verdict: feasible paths pruned or infeasible ones explored.
        let mut p = pool();
        let x = p.input("x", 8);
        let five = p.bv_const(5, 8);
        let six = p.bv_const(6, 8);
        let set_a = vec![p.eq(x, five)];
        let set_b = vec![p.eq(x, six)];
        let set_c = vec![p.ne(x, five)];
        let mut model = Model::new();
        model.set(p.intern_symbol("x"), 6);

        let mut cache = QueryCache::default();
        let h = 0xDEAD_BEEF_u64; // the simulated colliding hash
        cache.insert(h, &set_a, None);
        cache.insert(h, &set_b, Some(model.clone()));
        assert_eq!(cache.get(h, &set_a), Some(&None));
        assert_eq!(cache.get(h, &set_b), Some(&Some(model)));
        assert_eq!(cache.get(h, &set_c), None, "colliding unseen set must miss");
    }

    #[test]
    fn is_subset_walks_sorted_slices() {
        let ids: Vec<ExprId> = {
            let mut p = pool();
            let x = p.input("x", 8);
            (0..5u64)
                .map(|i| {
                    let k = p.bv_const(i, 8);
                    p.ult(x, k)
                })
                .collect()
        };
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        let (a, b, c, d) = (sorted[0], sorted[1], sorted[2], sorted[3]);
        assert!(is_subset(&[a, c], &[a, b, c, d]));
        assert!(is_subset(&[], &[a]));
        assert!(is_subset(&[a], &[a]));
        assert!(!is_subset(&[a, d], &[a, b, c]));
        assert!(!is_subset(&[a, b], &[b, c]));
    }

    #[test]
    fn cex_capacity_is_enforced_per_store() {
        // Regression: each store enforces FIFO eviction at capacity
        // independently — overfilling one side must not evict (or fail
        // to bound) the other's entries.
        let mut p = pool();
        let x = p.input("x", 8);
        let ids: Vec<ExprId> = (0..10u64)
            .map(|i| {
                let k = p.bv_const(i, 8);
                p.ult(x, k)
            })
            .collect();
        let mut m = Model::new();
        m.set(p.intern_symbol("x"), 0);
        let mut cache = CexCache::new(2, true);
        cache.note_sat(&[ids[0]], &m);
        for &id in &ids[1..] {
            cache.note_unsat(&[id]);
        }
        assert_eq!(cache.unsat.len(), 2, "unsat side must stop at capacity");
        assert_eq!(cache.sat.len(), 1, "unsat-side pressure must not touch sat entries");
        assert!(cache.model_for_subset(signature(&[ids[0]]), &[ids[0]]).is_some());
        for &id in &ids[1..] {
            cache.note_sat(&[id], &m);
        }
        assert_eq!(cache.sat.len(), 2, "sat side must stop at capacity");
        assert_eq!(cache.unsat.len(), 2, "sat-side pressure must not touch unsat entries");
    }

    #[test]
    fn cex_prefilter_answers_identically_to_unfiltered_scans() {
        let mut p = pool();
        let x = p.input("x", 8);
        let ids: Vec<ExprId> = (0..6u64)
            .map(|i| {
                let k = p.bv_const(i, 8);
                p.ult(x, k)
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        let mut m = Model::new();
        m.set(p.intern_symbol("x"), 0);
        let mut filtered = CexCache::new(8, true);
        let mut plain = CexCache::new(8, false);
        for c in [&sorted[0..2], &sorted[2..5], &sorted[1..3]] {
            filtered.note_unsat(c);
            plain.note_unsat(c);
            filtered.note_sat(c, &m);
            plain.note_sat(c, &m);
        }
        // Probe every contiguous sub-range: subsets, supersets, misses.
        for lo in 0..sorted.len() {
            for hi in lo..sorted.len() {
                let q = &sorted[lo..hi];
                let sig = signature(q);
                assert_eq!(
                    filtered.implies_unsat(sig, q),
                    plain.implies_unsat(sig, q),
                    "prefilter changed an unsat-scan verdict for {q:?}"
                );
                assert_eq!(
                    filtered.model_for_subset(sig, q).is_some(),
                    plain.model_for_subset(sig, q).is_some(),
                    "prefilter changed a sat-scan verdict for {q:?}"
                );
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_cex_lookup_fails_the_boundary_assert() {
        let ids: Vec<ExprId> = {
            let mut p = pool();
            let x = p.input("x", 8);
            (0..2u64)
                .map(|i| {
                    let k = p.bv_const(i, 8);
                    p.ult(x, k)
                })
                .collect()
        };
        let (lo, hi) = if ids[0] < ids[1] { (ids[0], ids[1]) } else { (ids[1], ids[0]) };
        let cache = CexCache::new(4, true);
        let _ = cache.implies_unsat(signature(&[hi, lo]), &[hi, lo]);
    }
}
