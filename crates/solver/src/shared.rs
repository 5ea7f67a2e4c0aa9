//! Cross-worker shared solver-verdict store ([`SharedSolverCache`]).
//!
//! The fleet's workers intern into one [`symmerge_expr::SharedExprPool`],
//! so an `ExprId` set means the same query on every worker, and this
//! store lets a verdict one worker paid for answer the others:
//!
//! * a **shared, append-only store** behind sharded locks — the exact
//!   verdict tier is sharded 16 ways by the query's commutative
//!   [`set hash`](crate::solve) (writes take one shard's write lock, and
//!   only on first publication; duplicates are detected under a read
//!   lock first), while the two counterexample tiers are append-only
//!   logs with their 64-bit membership signatures;
//! * **per-worker read mirrors**, the fleet tiers of each solver's
//!   [verdict ladder](crate::tiers): a sync copies the entries published
//!   since the last one (a cursor per shard and log — append-only
//!   storage is what makes a cursor sufficient), so the hot read path
//!   is lock-free.
//!
//! A solver does not publish as it solves: its ladder queues fresh
//! entries until the owner publishes them
//! ([`crate::Solver::publish_shared_cache`]). A BSP fleet's coordinator
//! publishes every worker's queue at the round barrier, in worker order,
//! so what the store holds — which entries, in which order, which
//! worker's model won a duplicate, which publications a full log
//! refused — is fixed by the workers' rounds, never by thread timing.
//!
//! Entries are **never evicted** (the counterexample logs refuse
//! publications at a capacity bound instead), so a mirror never loses an
//! entry — `shared_cache_prop.rs` pins this as the sync monotonicity
//! property. Exact entries are full-key verified on every hit: two
//! distinct sets colliding on the 64-bit prehash can never alias each
//! other's verdict, even across workers.
//!
//! **Result invariance.** Under canonical minimal models
//! ([`crate::SolverConfig::canonical_models`]) every verdict — including
//! the model — is a path-independent function of the constraint set, so
//! consuming a foreign worker's entry returns byte-for-byte what the
//! local solver would have computed; shared-on and shared-off runs are
//! byte-identical. Without canonical models, verdicts (sat/unsat) are
//! still invariant but *which* satisfying model a query returns may
//! depend on which worker solved it first.

use crate::model::Model;
use crate::tiers::signature;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LockResult, PoisonError, RwLock};
use symmerge_expr::ExprId;

/// Number of exact-tier shards (a power of two; the shard is the low
/// bits of the set hash). Matches the shared expression pool's consing
/// shard count — enough to keep publication writes from serializing at
/// the job counts this workspace targets.
const EXACT_SHARDS: usize = 16;

/// Recovers a (possibly poisoned) lock acquisition, so a worker
/// panicking while holding a shard lock cannot cascade the panic into
/// the rest of the fleet. Sound because the store is **append-only with
/// full-key-verified reads**: the worst a mid-publication panic leaves
/// behind is a pushed-but-unindexed exact entry, which readers miss.
fn recover<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// One exact-tier shard: the published `(hash, set, verdict)` entries in
/// publication order (append-only — mirrors cursor into it) plus a
/// hash→entries index for duplicate detection and direct reads.
#[derive(Debug, Default)]
struct ExactShard {
    entries: Vec<ExactEntry>,
    index: HashMap<u64, Vec<u32>>,
}

/// A published exact verdict: `model` is `Some` for sat, `None` for
/// unsat (unknown verdicts are never published — a retry may have a
/// bigger budget).
#[derive(Debug, Clone)]
struct ExactEntry {
    hash: u64,
    set: Box<[ExprId]>,
    model: Option<Model>,
}

/// One entry offered to the store ([`SharedSolverCache::publish`]).
#[derive(Debug)]
pub enum Publication {
    /// An exact verdict for the normalized set with the given prehash:
    /// `Some(model)` for sat, `None` for unsat.
    Verdict(u64, Box<[ExprId]>, Option<Model>),
    /// An unsat core (a sorted, deduplicated set).
    Core(Box<[ExprId]>),
    /// A satisfiable sorted set with its model (superset donation).
    Sat(Box<[ExprId]>, Model),
}

/// An append-only counterexample log: `(signature, set, payload)`
/// entries, capacity-bounded by refusing publications (never by
/// eviction, which would break mirror monotonicity).
#[derive(Debug)]
struct CexLog<T> {
    entries: Vec<(u64, Box<[ExprId]>, T)>,
    capacity: usize,
}

impl<T> CexLog<T> {
    fn new(capacity: usize) -> Self {
        CexLog { entries: Vec::new(), capacity }
    }

    /// Appends unless the set is already present or the log is full.
    fn publish(&mut self, set: Box<[ExprId]>, payload: T) -> bool {
        if self.entries.len() >= self.capacity {
            return false;
        }
        let sig = signature(&set);
        if self.entries.iter().any(|(s, k, _)| *s == sig && *k == set) {
            return false;
        }
        self.entries.push((sig, set, payload));
        true
    }
}

/// The cross-worker shared verdict store: an append-only exact tier
/// behind sharded locks (full-key verified, so a colliding prehash can
/// never alias two sets) plus two append-only counterexample logs.
/// Workers read it through private mirrors that catch up when synced.
///
/// Construct one with [`SharedSolverCache::new`], hand the `Arc` to
/// every worker's engine, and attach it to each worker's solver
/// ([`crate::Solver::attach_shared_cache`]), which builds the worker's
/// private read mirror.
#[derive(Debug)]
pub struct SharedSolverCache {
    exact: Vec<RwLock<ExactShard>>,
    cex_unsat: RwLock<CexLog<()>>,
    cex_sat: RwLock<CexLog<Model>>,
    /// Bumped on every successful publication; mirrors compare it to
    /// skip the per-shard walk when nothing changed.
    version: AtomicUsize,
}

impl SharedSolverCache {
    /// Creates an empty store. `cex_capacity` bounds *each*
    /// counterexample log (unsat cores and sat sets separately); the
    /// exact tier is unbounded, like the private query cache.
    pub fn new(cex_capacity: usize) -> Arc<SharedSolverCache> {
        Arc::new(SharedSolverCache {
            exact: (0..EXACT_SHARDS).map(|_| RwLock::new(ExactShard::default())).collect(),
            cex_unsat: RwLock::new(CexLog::new(cex_capacity)),
            cex_sat: RwLock::new(CexLog::new(cex_capacity)),
            version: AtomicUsize::new(0),
        })
    }

    fn shard(&self, h: u64) -> &RwLock<ExactShard> {
        &self.exact[(h as usize) & (EXACT_SHARDS - 1)]
    }

    /// Direct full-key-verified read of an exact verdict (`Some(None)`
    /// is a published unsat). Mirrors serve the hot path; this exists
    /// for the verification suite and debugging.
    pub fn verdict_for(&self, h: u64, set: &[ExprId]) -> Option<Option<Model>> {
        let s = recover(self.shard(h).read());
        lookup(&s, h, set).map(|e| e.model.clone())
    }

    /// Offers one entry to the store, moving it in. Returns whether it
    /// was newly inserted: a duplicate (some worker published the same
    /// set first) is a no-op, and a full counterexample log refuses
    /// the entry.
    pub fn publish(&self, p: Publication) -> bool {
        let inserted = match p {
            Publication::Verdict(h, set, model) => self.insert_verdict(h, set, model),
            Publication::Core(set) => recover(self.cex_unsat.write()).publish(set, ()),
            Publication::Sat(set, m) => recover(self.cex_sat.write()).publish(set, m),
        };
        if inserted {
            self.version.fetch_add(1, Ordering::Release);
        }
        inserted
    }

    /// The exact-tier half of [`SharedSolverCache::publish`]: the
    /// duplicate check runs under a read lock before the write lock is
    /// taken.
    fn insert_verdict(&self, h: u64, set: Box<[ExprId]>, model: Option<Model>) -> bool {
        let shard = self.shard(h);
        {
            let s = recover(shard.read());
            if lookup(&s, h, &set).is_some() {
                return false;
            }
        }
        let mut s = recover(shard.write());
        // Double-check under the write lock: another worker may have
        // published between our read unlock and write lock.
        if lookup(&s, h, &set).is_some() {
            return false;
        }
        let at = s.entries.len() as u32;
        s.entries.push(ExactEntry { hash: h, set, model });
        s.index.entry(h).or_default().push(at);
        true
    }

    /// Total published entries across all tiers (observability; the
    /// monotonicity property compares mirror sizes against this).
    pub fn published(&self) -> usize {
        let exact: usize = self.exact.iter().map(|s| recover(s.read()).entries.len()).sum();
        exact
            + recover(self.cex_unsat.read()).entries.len()
            + recover(self.cex_sat.read()).entries.len()
    }

    /// Bumped on every successful publication.
    pub(crate) fn version(&self) -> usize {
        self.version.load(Ordering::Acquire)
    }

    /// Visits the entries published since `cursor` — exact verdicts,
    /// unsat cores, then sat sets — and advances `cursor` past them.
    pub(crate) fn copy_new(
        &self,
        cursor: &mut Cursor,
        mut exact: impl FnMut(u64, &[ExprId], Option<&Model>),
        mut unsat: impl FnMut(u64, &[ExprId]),
        mut sat: impl FnMut(u64, &[ExprId], &Model),
    ) {
        for (at, shard) in cursor.exact.iter_mut().zip(&self.exact) {
            let shard = recover(shard.read());
            for e in &shard.entries[*at..] {
                exact(e.hash, &e.set, e.model.as_ref());
            }
            *at = shard.entries.len();
        }
        let log = recover(self.cex_unsat.read());
        for (sig, set, ()) in &log.entries[cursor.unsat..] {
            unsat(*sig, set);
        }
        cursor.unsat = log.entries.len();
        let log = recover(self.cex_sat.read());
        for (sig, set, m) in &log.entries[cursor.sat..] {
            sat(*sig, set, m);
        }
        cursor.sat = log.entries.len();
    }
}

/// How far a mirror has copied a [`SharedSolverCache`]: the entries
/// copied from each exact shard and each counterexample log.
#[derive(Debug, Default)]
pub(crate) struct Cursor {
    exact: [usize; EXACT_SHARDS],
    unsat: usize,
    sat: usize,
}

/// Full-key-verified bucket scan inside one shard.
fn lookup<'a>(shard: &'a ExactShard, h: u64, set: &[ExprId]) -> Option<&'a ExactEntry> {
    shard
        .index
        .get(&h)?
        .iter()
        .map(|&i| &shard.entries[i as usize])
        .find(|e| e.hash == h && *e.set == *set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{set_hash, SatResult, SolverConfig, SolverStats};
    use crate::tiers::VerdictLadder;
    use symmerge_expr::ExprPool;

    fn ids(pool: &mut ExprPool, names: &[&str]) -> Vec<ExprId> {
        let mut v: Vec<ExprId> = names
            .iter()
            .map(|n| {
                let x = pool.input(n, 8);
                let z = pool.bv_const(0, 8);
                pool.ne(x, z)
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// A default ladder whose mirror has just synced `cache`: its
    /// private stores are empty, so every hit it makes is a fleet hit.
    fn synced(cache: &Arc<SharedSolverCache>) -> VerdictLadder {
        let mut ladder = VerdictLadder::new(&SolverConfig::default());
        ladder.attach(Arc::clone(cache));
        ladder.sync();
        ladder
    }

    /// Looks `set` up on `ladder`, counting into `stats`.
    fn ask(
        ladder: &mut VerdictLadder,
        stats: &mut SolverStats,
        pool: &ExprPool,
        set: &[ExprId],
    ) -> Option<SatResult> {
        ladder.lookup(&SolverConfig::default(), stats, pool, set_hash(set), set, false)
    }

    /// A colliding prehash published by one worker must not alias
    /// another worker's distinct set. The forced shared prehash lands
    /// both sets in the same shard and bucket; full-key verification
    /// must separate them.
    #[test]
    fn colliding_hashes_cannot_alias_distinct_sets() {
        let mut pool = ExprPool::new(8);
        let a = ids(&mut pool, &["a", "b"]);
        let b = ids(&mut pool, &["c", "d"]);
        assert_ne!(a, b);
        let cache = SharedSolverCache::new(16);
        let h = 0xDEAD_BEEF;
        assert!(cache.publish(Publication::Verdict(h, a[..].into(), None)));
        // Worker B's lookup of its own distinct set under the same hash.
        assert_eq!(cache.verdict_for(h, &b), None);
        assert_eq!(cache.verdict_for(h, &a), Some(None));
    }

    #[test]
    fn duplicate_publication_is_a_no_op() {
        let mut pool = ExprPool::new(8);
        let a = ids(&mut pool, &["a", "b"]);
        let cache = SharedSolverCache::new(16);
        let h = set_hash(&a);
        assert!(cache.publish(Publication::Verdict(h, a[..].into(), None)));
        assert!(!cache.publish(Publication::Verdict(h, a[..].into(), None)));
        assert!(cache.publish(Publication::Core(a[..].into())));
        assert!(!cache.publish(Publication::Core(a[..].into())));
        assert_eq!(cache.published(), 2);
    }

    #[test]
    fn cex_log_refuses_publications_beyond_capacity() {
        let mut pool = ExprPool::new(8);
        let cache = SharedSolverCache::new(1);
        let a = ids(&mut pool, &["a"]);
        let b = ids(&mut pool, &["b"]);
        assert!(cache.publish(Publication::Core(a[..].into())));
        assert!(!cache.publish(Publication::Core(b[..].into()))); // full: refused, not evicted
        let ladder = synced(&cache);
        let mut stats = SolverStats::default();
        assert!(ladder.refutes(&mut stats, &a));
        assert!(!ladder.refutes(&mut stats, &b));
        assert_eq!(stats.shared_cex_hits, 1);
    }

    /// A worker dying while holding shard locks must not take the rest
    /// of the fleet with it: publications and reads on the poisoned
    /// shards keep working (the append-only store has no torn states to
    /// observe). This pins the `PoisonError::into_inner` recovery — with
    /// plain `.unwrap()`/`.expect()` every call below would panic.
    #[test]
    fn poisoned_shard_does_not_cascade() {
        let mut pool = ExprPool::new(8);
        let a = ids(&mut pool, &["a", "b"]);
        let b = ids(&mut pool, &["c", "d"]);
        let cache = SharedSolverCache::new(16);
        let h = set_hash(&a);
        assert!(cache.publish(Publication::Verdict(h, a[..].into(), None)));
        assert!(cache.publish(Publication::Core(a[..].into())));
        // Poison every exact shard and both cex logs: a thread panics
        // while holding each write lock.
        let poisoner = Arc::clone(&cache);
        let t = std::thread::spawn(move || {
            let _guards: Vec<_> = poisoner.exact.iter().map(|s| s.write().unwrap()).collect();
            let _unsat = poisoner.cex_unsat.write().unwrap();
            let _sat = poisoner.cex_sat.write().unwrap();
            panic!("worker dies holding the shard locks");
        });
        assert!(t.join().is_err(), "the poisoner must have panicked");
        assert!(cache.exact.iter().all(|s| s.is_poisoned()), "locks must actually be poisoned");
        // Reads survive and still see the pre-panic entries...
        assert_eq!(cache.verdict_for(h, &a), Some(None));
        assert_eq!(cache.published(), 2);
        // ...publication still works...
        assert!(cache.publish(Publication::Verdict(set_hash(&b), b[..].into(), None)));
        assert!(cache.publish(Publication::Core(b[..].into())));
        // ...and mirrors sync through the poisoned locks and answer from
        // what they copied: both exact verdicts, and b's core refuting
        // a superset no one published.
        let mut ladder = synced(&cache);
        let mut stats = SolverStats::default();
        assert_eq!(ask(&mut ladder, &mut stats, &pool, &a), Some(SatResult::Unsat));
        assert_eq!(ask(&mut ladder, &mut stats, &pool, &b), Some(SatResult::Unsat));
        let wider = ids(&mut pool, &["c", "d", "e"]);
        assert_eq!(ask(&mut ladder, &mut stats, &pool, &wider), Some(SatResult::Unsat));
        assert_eq!((stats.shared_query_hits, stats.shared_cex_hits), (2, 1));
        assert_eq!(ladder.mirror_entries(), 4);
    }
}
