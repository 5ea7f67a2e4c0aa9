//! The reusable per-thread scratch that concrete DAG walks run in.
//!
//! Evaluation ([`ExprPool::eval`](crate::ExprPool::eval),
//! [`ExprPool::all_true`](crate::ExprPool::all_true)) and input collection
//! ([`ExprPool::collect_inputs_many`](crate::ExprPool::collect_inputs_many))
//! memoize per node. Instead of a fresh hash map per walk, they share one
//! dense array per thread, indexed by [`ExprId`]. Each entry carries the
//! generation stamp of the walk that last wrote it, so starting a walk is
//! one increment and never a clear. The arrays grow to the pool's size on
//! demand and are zeroed once, when the `u32` generation wraps.

use crate::pool::ExprId;
use std::cell::RefCell;

/// One thread's walk memo: 12 bytes per pool node (a `u32` stamp and a
/// `u64` value), plus the traversal stack.
pub(crate) struct Scratch {
    /// `stamps[i] == generation` iff node `i` is done in the current walk.
    stamps: Vec<u32>,
    /// Node `i`'s value in the current walk, booleans as 0/1 (the node's
    /// sort says which). Meaningful only where the stamp is current.
    values: Vec<u64>,
    /// The current walk's stamp; 0 is never current.
    generation: u32,
    /// The traversal stack, kept to reuse its allocation.
    pub(crate) stack: Vec<ExprId>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            stamps: Vec::new(),
            values: Vec::new(),
            generation: 0,
            stack: Vec::new(),
        })
    };
}

/// Runs `f` as one walk over a pool of `pool_len` nodes: every node starts
/// out not done.
///
/// # Panics
///
/// Panics if called from inside another walk on the same thread (for
/// instance from an evaluator's `env` closure).
pub(crate) fn walk<R>(pool_len: usize, f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell
            .try_borrow_mut()
            .expect("re-entrant expression walk: an env closure must not evaluate expressions");
        scratch.begin(pool_len);
        f(&mut scratch)
    })
}

/// Moves this thread's walk generation forward to `generation`, so tests
/// can drive it across the `u32` wrap-around. Not for production use.
///
/// # Panics
///
/// Panics if `generation` is behind the current one: a backwards move
/// could make stale stamps current.
#[doc(hidden)]
pub fn force_walk_generation(generation: u32) {
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        assert!(generation >= scratch.generation, "the walk generation only moves forward");
        scratch.generation = generation;
    });
}

impl Scratch {
    fn begin(&mut self, pool_len: usize) {
        if self.stamps.len() < pool_len {
            self.stamps.resize(pool_len, 0);
            self.values.resize(pool_len, 0);
        }
        if self.generation == u32::MAX {
            self.stamps.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.stack.clear();
    }

    /// Whether `id` is done in the current walk.
    #[inline]
    pub(crate) fn done(&self, id: ExprId) -> bool {
        debug_assert!(id.index() < self.stamps.len(), "node {} outside the scratch", id.index());
        self.stamps[id.index()] == self.generation
    }

    /// Marks `id` done in the current walk without a value.
    #[inline]
    pub(crate) fn mark(&mut self, id: ExprId) {
        debug_assert!(id.index() < self.stamps.len(), "node {} outside the scratch", id.index());
        self.stamps[id.index()] = self.generation;
    }

    /// Records `id`'s value and marks it done.
    #[inline]
    pub(crate) fn set(&mut self, id: ExprId, value: u64) {
        self.mark(id);
        self.values[id.index()] = value;
    }

    /// The value of a node that is done in the current walk.
    #[inline]
    pub(crate) fn value(&self, id: ExprId) -> u64 {
        debug_assert!(self.done(id), "node {} read before it was evaluated", id.index());
        self.values[id.index()]
    }
}
