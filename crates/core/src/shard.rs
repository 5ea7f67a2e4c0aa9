//! Sharding substrate for the parallel exploration engine: topological
//! regions, the region → worker assignment, the [`StolenState`] hand-off
//! that moves a state between workers, and the [`PortableState`] form a
//! checkpoint stores it in.
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
//! # Hand-off and checkpoints
//!
//! Every worker of a fleet interns into one
//! [`symmerge_expr::SharedExprPool`], so a state's `ExprId`s mean the
//! same thing on every worker and a state moves between workers as
//! plain `Send` data: a [`StolenState`], under both schedulers. Besides
//! the state it carries the engine-side DSM history and fast-forward
//! flag, the routing region, the `(origin_shard, origin_seq)` key BSP
//! integrates by, and the **warm-prefix seed** — how many leading pc
//! conjuncts were resident in the donor's solver-context tree, a length
//! into the state's own pc and so meaningful on any worker. The solver
//! affinity token ([`State::affinity`](crate::state::State)) indexes the
//! donor's solver clock, so the receiver resets it to 0 ("context cold
//! here") and re-derives it from its own prewarmed context tree.
//!
//! [`PortableState`] is the checkpoint form of the same hand-off: the
//! state flattened onto a pool-free [`PortableDag`], so a checkpoint
//! outlives the process and resumes under any scheduler or job count.
//! It is written only when a checkpoint is taken and read only when one
//! is resumed.

use crate::state::{Frame, Slot, State, StateId};
use std::collections::{HashMap, VecDeque};
use symmerge_expr::{DagExporter, ExprPool, PortableDag, PortableRef};
use symmerge_ir::{BlockId, FuncId, LocalId};

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

/// One local slot of a [`PortableState`]. Crate-visible so the
/// checkpoint codec ([`crate::checkpoint`]) can serialize it.
#[derive(Debug, Clone)]
pub(crate) enum PortableSlot {
    Int(PortableRef),
    Array(Vec<PortableRef>),
}

/// One call-stack frame of a [`PortableState`].
#[derive(Debug, Clone)]
pub(crate) struct PortableFrame {
    pub(crate) func: u32,
    pub(crate) block: u32,
    pub(crate) instr: u32,
    pub(crate) ret_dest: Option<u32>,
    pub(crate) locals: Vec<PortableSlot>,
}

/// A [`State`] (plus its engine-side DSM bookkeeping) flattened into a
/// pool-independent form for a checkpoint frontier (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct PortableState {
    /// The state's region when it was written.
    pub region: RegionId,
    /// The writing worker's index.
    pub origin_shard: u32,
    /// Per-worker sequence number; `(origin_shard, origin_seq)` orders
    /// a frontier deterministically when it is resumed.
    pub origin_seq: u64,
    pub(crate) dag: PortableDag,
    pub(crate) frames: Vec<PortableFrame>,
    pub(crate) globals: Vec<PortableSlot>,
    pub(crate) pc: Vec<PortableRef>,
    pub(crate) outputs: Vec<PortableRef>,
    pub(crate) multiplicity: f64,
    pub(crate) steps: u64,
    pub(crate) sym_counters: Vec<(String, u32)>,
    pub(crate) history: Vec<u64>,
    pub(crate) ff: bool,
    /// The warm-prefix seed ([`StolenState::warm_len`]), clamped to the
    /// pc length.
    pub(crate) warm_len: u32,
}

impl PortableState {
    /// Serializes `state` (with its DSM `history` and fast-forward flag)
    /// under the given routing region and origin key, with a cold (0)
    /// warm-prefix seed — chain [`PortableState::with_warm_len`] to keep
    /// a hand-off's seed.
    pub fn export(
        pool: &ExprPool,
        state: &State,
        history: &VecDeque<u64>,
        ff: bool,
        region: RegionId,
        origin_shard: u32,
        origin_seq: u64,
    ) -> PortableState {
        let mut exp = DagExporter::new(pool);
        let slot = |exp: &mut DagExporter<'_>, s: &Slot| match s {
            Slot::Int(e) => PortableSlot::Int(exp.add(*e)),
            Slot::Array(cells) => PortableSlot::Array(cells.iter().map(|&c| exp.add(c)).collect()),
        };
        let frames = state
            .frames
            .iter()
            .map(|f| PortableFrame {
                func: f.func.0,
                block: f.block.0,
                instr: f.instr,
                ret_dest: f.ret_dest.map(|d| d.0),
                locals: f.locals.iter().map(|s| slot(&mut exp, s)).collect(),
            })
            .collect();
        let globals = state.globals.iter().map(|s| slot(&mut exp, s)).collect();
        let pc = state.pc.iter().map(|&c| exp.add(c)).collect();
        let outputs = state.outputs.iter().map(|&o| exp.add(o)).collect();
        let mut sym_counters: Vec<(String, u32)> =
            state.sym_counters.iter().map(|(k, &v)| (k.clone(), v)).collect();
        sym_counters.sort();
        PortableState {
            region,
            origin_shard,
            origin_seq,
            dag: exp.finish(),
            frames,
            globals,
            pc,
            outputs,
            multiplicity: state.multiplicity,
            steps: state.steps,
            sym_counters,
            history: history.iter().copied().collect(),
            ff,
            warm_len: 0,
        }
    }

    /// Attaches the warm-prefix seed, clamped to the pc length (the seed
    /// can never claim more than the pc itself).
    pub fn with_warm_len(mut self, warm_len: u32) -> PortableState {
        self.warm_len = warm_len.min(self.pc.len() as u32);
        self
    }

    /// Rebuilds the state in `pool` as a hand-off, ready for the
    /// receiving engine to integrate (which gives it a fresh local id).
    pub fn import(&self, pool: &mut ExprPool) -> StolenState {
        let ids = self.dag.import(pool);
        let slot = |s: &PortableSlot| match s {
            PortableSlot::Int(r) => Slot::Int(ids[*r as usize]),
            PortableSlot::Array(cells) => {
                Slot::Array(cells.iter().map(|&c| ids[c as usize]).collect())
            }
        };
        let frames: Vec<Frame> = self
            .frames
            .iter()
            .map(|f| Frame {
                func: FuncId(f.func),
                block: BlockId(f.block),
                instr: f.instr,
                locals: f.locals.iter().map(slot).collect(),
                ret_dest: f.ret_dest.map(LocalId),
            })
            .collect();
        let state = State {
            id: StateId(0),
            frames,
            globals: self.globals.iter().map(slot).collect(),
            pc: self.pc.iter().map(|&c| ids[c as usize]).collect(),
            outputs: self.outputs.iter().map(|&o| ids[o as usize]).collect(),
            multiplicity: self.multiplicity,
            steps: self.steps,
            sym_counters: self
                .sym_counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect::<HashMap<String, u32>>(),
            // Affinity never travels (see the module docs).
            affinity: 0,
        };
        StolenState {
            state,
            history: self.history.iter().copied().collect(),
            ff: self.ff,
            warm_len: self.warm_len,
            region: self.region,
            origin_shard: self.origin_shard,
            origin_seq: self.origin_seq,
        }
    }
}

/// Imports a checkpoint frontier into `pool` in its deterministic
/// `(origin_shard, origin_seq)` order — the one place a
/// [`PortableState`] is read. The result integrates like any other
/// hand-off batch.
pub(crate) fn import_frontier(frontier: &[PortableState], pool: &mut ExprPool) -> Vec<StolenState> {
    let mut sorted: Vec<&PortableState> = frontier.iter().collect();
    sorted.sort_by_key(|p| (p.origin_shard, p.origin_seq));
    sorted.into_iter().map(|p| p.import(pool)).collect()
}

/// A state handed from one worker to another: plain `Send` data whose
/// `ExprId`s resolve in the fleet-shared
/// [`symmerge_expr::SharedExprPool`] — nothing is serialized or
/// re-interned. Both schedulers move states this way (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct StolenState {
    /// The state itself, ids intact (the receiver re-ids it locally).
    pub state: State,
    /// The state's DSM signature history.
    pub history: VecDeque<u64>,
    /// Whether the state was being fast-forwarded (paper §5.5).
    pub ff: bool,
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
    use symmerge_ir::minic;

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

    #[test]
    fn portable_state_round_trips_across_pools() {
        let program = minic::compile_with_width(
            r#"
            global g = 7;
            global buf[3] = "ab";
            fn main() {
                let x = sym_int("x");
                let y = sym_int("y");
                if (x > 3) { putchar(x + y); }
            }
        "#,
            8,
        )
        .unwrap();
        let mut src = ExprPool::new(8);
        let mut state = State::initial(&program, &mut src, StateId(0));
        // Give the state some symbolic structure.
        let x = src.input("x", 8);
        let y = src.input("y", 8);
        let s = src.add(x, y);
        let three = src.bv_const(3, 8);
        let c = src.ugt(x, three);
        state.pc.push(c);
        state.outputs.push(s);
        state.frames[0].locals[0] = Slot::Int(x);
        state.multiplicity = 2.0;
        state.steps = 17;
        state.sym_counters.insert("x".into(), 1);

        let hist: VecDeque<u64> = vec![11, 22].into();
        let ps = PortableState::export(&src, &state, &hist, true, 4, 1, 9).with_warm_len(1);
        // The seed can never claim more than the pc itself.
        let clamped = PortableState::export(&src, &state, &hist, true, 4, 1, 9).with_warm_len(99);
        assert_eq!(clamped.warm_len as usize, state.pc.len());

        let mut dst = ExprPool::new(8);
        let _ = dst.input("y", 8); // different interning history
        let moved = ps.import(&mut dst);
        assert_eq!((moved.region, moved.order_key(), moved.warm_len), (4, (1, 9), 1));
        assert_eq!(moved.history, hist);
        assert!(moved.ff);
        let back = moved.state;
        assert_eq!(back.multiplicity, 2.0);
        assert_eq!(back.steps, 17);
        assert_eq!(back.sym_counters.get("x"), Some(&1));
        assert_eq!(back.frames.len(), state.frames.len());
        assert_eq!(back.control_key(), state.control_key(), "control key is pool-independent");
        // Semantics of the migrated pc/outputs match under x = 5, y = 2.
        let env_src = |sym| match src.symbol_name(sym) {
            "x" => 5u64,
            "y" => 2,
            _ => 0,
        };
        let env_dst = |sym| match dst.symbol_name(sym) {
            "x" => 5u64,
            "y" => 2,
            _ => 0,
        };
        assert_eq!(src.eval(state.pc[0], &env_src), dst.eval(back.pc[0], &env_dst));
        assert_eq!(src.eval(state.outputs[0], &env_src), dst.eval(back.outputs[0], &env_dst));
    }
}
