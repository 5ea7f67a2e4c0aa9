//! Checkpoint/resume for long explorations.
//!
//! A [`Checkpoint`] captures everything an interrupted run needs to
//! continue and still produce the *same* final report as the
//! uninterrupted run would have: the run's results so far, the RNG
//! stream, and the whole live frontier as [`PortableState`]s: states
//! flattened to pool-free DAGs, so a checkpoint written by a 4-worker
//! fleet can be resumed sequentially and vice versa — a portable state
//! does not care which scheduler re-hosts it. This module is the one
//! place that knows the portable form: its export from a live state, its
//! import as a hand-off (a `StolenState`), and its bytes. It is written
//! only when a checkpoint is taken and read only when one is resumed.
//!
//! The results are a [`ShardOutput`], the shape a fleet worker reports
//! in: a [`RunReport`] plus the covered pairs. A
//! checkpoint is one more part of the run, so parts combine the way
//! worker reports do ([`ShardOutput::fold`]), and a resumed fleet
//! reduces the checkpoint's results like a worker's. Only a subset of
//! the report is persisted (`Wire for ShardOutput`); the rest
//! describes the process that ran and is re-derived on resume.
//!
//! Sequential engines write checkpoints themselves every
//! [`CheckpointConfig::every`] picks; BSP fleets checkpoint at round
//! barriers through their coordinator, which merges per-worker
//! snapshots with the coordinator's own pending states via
//! `merge_parts`. Files are written atomically (sibling temp file +
//! rename), so a kill mid-write leaves the previous checkpoint intact.
//!
//! The on-disk format is a versioned little-endian byte stream —
//! deliberately hand-rolled: the workspace builds offline, and the
//! format only needs to round-trip between builds of this same crate.
//! Each type's layout is written once, as its `Wire` impl: integers are
//! little-endian, a `bool` is one strict 0/1 byte, a `usize` is a `u64`,
//! a string or vector is a `u32` count and then its items, an `Option`
//! is a 0/1 tag and then the value, a tuple is its fields in order, an
//! operator is its index in its enum's table, and every other enum is a
//! `u8` tag and then its variant's fields.
//!
//! Decoding fails closed. [`read_checkpoint`] validates magic, version,
//! and exact length, and refuses any frontier state that is not
//! self-consistent (operands, symbols, widths, sorts and return
//! destinations; see `check_state`), so a corrupt file is an error
//! rather than a panic when its states are imported. The file does not
//! carry the program, so resuming checks the frontier against the
//! program it is resumed on ([`Checkpoint::check_program`]): both resume
//! entry points refuse a checkpoint that does not fit. Resuming from a
//! half-understood checkpoint would silently corrupt results, whereas
//! refusing merely costs a re-run.
//!
//! What a resumed run reproduces byte-for-byte (under
//! [`MergeMode::None`](crate::MergeMode) with canonical models) is the
//! *result*: the sorted test set, completed-path counters, coverage,
//! and failure list. Scheduling artifacts — `max_worklist`, wall time,
//! solver timings — are not part of that contract.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use symmerge_expr::{
    BoolBinOp, BvBinOp, CmpOp, DagExporter, ExprPool, PortableDag, PortableNode, PortableRef, Sort,
};
use symmerge_ir::{Block, BlockId, FuncId, Function, LocalDecl, LocalId, Program, Ty};

use crate::engine::{RunReport, ShardOutput};
use crate::exec::AssertFailure;
use crate::shard::{RegionId, StolenState};
use crate::state::{Frame, LiveState, Slot, State, StateId};
use crate::testgen::{TestCase, TestKind};

/// File magic: "SMCK" — symmerge checkpoint.
const MAGIC: [u8; 4] = *b"SMCK";
/// Format version; bump on any layout change (old files are refused).
const VERSION: u32 = 1;

/// Where and how often to checkpoint (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Checkpoint file path (rewritten in place, atomically).
    pub path: PathBuf,
    /// Write a checkpoint every this many picks.
    pub every: u64,
}

/// A resumable snapshot of an exploration (see the [module docs](self)
/// and [`Engine::restore_checkpoint`](crate::Engine::restore_checkpoint)).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The run's base seed (informational; the live stream is `rng`).
    pub seed: u64,
    /// Next fresh [`StateId`] word.
    pub next_id: u64,
    /// The engine RNG's raw xoshiro256** state words.
    pub rng: [u64; 4],
    /// The run's results so far, in a fleet worker's shape. A file
    /// keeps only the persisted subset (see `Wire for ShardOutput`);
    /// every other report field reads back as its default. Assertion
    /// failures keep their message and location: the path condition
    /// does not survive the pool boundary, and the failures' tests are
    /// already in the report's tests.
    pub results: ShardOutput,
    /// The live frontier in portable form.
    pub frontier: Vec<PortableState>,
}

impl Checkpoint {
    /// Checks that this checkpoint fits `program`, before anything is
    /// imported: covered blocks exist, and so does each frontier frame's
    /// function and block, with an instruction index at most the block's
    /// length; locals and globals match their declarations in count,
    /// `Int`/`Array` kind and array length; return destinations are
    /// scalar locals; and every bitvector root has the program's width.
    /// A same-shaped program can still pass: the format carries no
    /// program fingerprint.
    ///
    /// # Errors
    ///
    /// Describes the first part that does not fit.
    pub fn check_program(&self, program: &Program) -> Result<(), String> {
        let covered = &self.results.covered;
        if let Some((f, b)) = covered.iter().find(|&&(f, b)| lookup_block(program, f, b).is_none())
        {
            return Err(format!("covered block ({f}, {b}) is not in the program"));
        }
        self.frontier.iter().enumerate().try_for_each(|(i, st)| {
            fits_program(st, program).map_err(|e| format!("frontier state {i}: {e}"))
        })
    }
}

/// Function `f` of `program` and its block `b`, if both exist.
fn lookup_block(program: &Program, f: u32, b: u32) -> Option<(&Function, &Block)> {
    let func = program.functions.get(f as usize)?;
    Some((func, func.blocks.get(b as usize)?))
}

/// Encodes and atomically writes `ck` to `path`: the bytes land in a
/// sibling `<name>.tmp` first and are renamed over `path`, so readers
/// (and a kill mid-write) only ever see a complete checkpoint.
pub fn write_checkpoint(path: &Path, ck: &Checkpoint) -> io::Result<()> {
    let Some(name) = path.file_name() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "checkpoint path has no file name",
        ));
    };
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    fs::write(&tmp, encode_checkpoint(ck))?;
    fs::rename(&tmp, path)
}

/// Reads and validates a checkpoint written by [`write_checkpoint`].
/// Any mismatch — magic, version, truncation, trailing bytes, bad
/// tags, a frontier state that is not self-consistent — is an error;
/// see the [module docs](self) for why refusal beats best-effort
/// parsing here.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, String> {
    let bytes =
        fs::read(path).map_err(|e| format!("reading checkpoint {}: {e}", path.display()))?;
    decode_checkpoint(&bytes).map_err(|e| format!("checkpoint {}: {e}", path.display()))
}

/// Merges per-worker checkpoint parts (and the coordinator's own
/// pending states) into one fleet checkpoint. Results fold through
/// [`ShardOutput::fold`], the fleet reduction, with `base` first;
/// frontiers concatenate after `extra`. `next_id` takes the maximum
/// (resume only needs fresh ids, not dense ones). `rng` comes from the
/// first part — only a sequential resume consumes it, and worker
/// streams are reseeded per round anyway.
///
/// `base` carries the results of the checkpoint this fleet itself
/// resumed from, so checkpoint chains accumulate correctly; its
/// *frontier* is deliberately ignored — those states were re-injected
/// at resume and are alive inside the parts already.
pub(crate) fn merge_parts(
    parts: &[Checkpoint],
    extra: Vec<PortableState>,
    base: Option<&Checkpoint>,
) -> Checkpoint {
    let first = parts.first().or(base);
    let all = || base.into_iter().chain(parts);
    let mut frontier = extra;
    for part in parts {
        frontier.extend(part.frontier.iter().cloned());
    }
    Checkpoint {
        seed: first.map_or(0, |p| p.seed),
        next_id: all().map(|p| p.next_id).max().unwrap_or(0),
        rng: first.map_or([0; 4], |p| p.rng),
        results: ShardOutput::fold(all().map(|p| &p.results)),
        frontier,
    }
}

// ----- the portable state ----------------------------------------------

/// One local slot of a [`PortableState`].
#[derive(Debug, Clone)]
enum PortableSlot {
    Int(PortableRef),
    Array(Vec<PortableRef>),
}

/// One call-stack frame of a [`PortableState`].
#[derive(Debug, Clone)]
struct PortableFrame {
    func: u32,
    block: u32,
    instr: u32,
    ret_dest: Option<u32>,
    locals: Vec<PortableSlot>,
}

/// A `LiveState` record flattened into a pool-independent form for a
/// checkpoint frontier (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct PortableState {
    /// The state's region when it was written.
    region: RegionId,
    /// The writing worker's index.
    origin_shard: u32,
    /// Per-worker sequence number; `(origin_shard, origin_seq)` orders
    /// a frontier deterministically when it is resumed.
    origin_seq: u64,
    dag: PortableDag,
    frames: Vec<PortableFrame>,
    globals: Vec<PortableSlot>,
    pc: Vec<PortableRef>,
    outputs: Vec<PortableRef>,
    multiplicity: f64,
    steps: u64,
    sym_counters: Vec<(String, u32)>,
    history: Vec<u64>,
    ff: bool,
    /// The warm-prefix seed ([`StolenState::warm_len`]), clamped to the
    /// pc length.
    warm_len: u32,
}

impl PortableState {
    /// Flattens a live state's record under the given routing region,
    /// origin key and warm-prefix seed. The seed is clamped to the pc
    /// length: it can never claim more than the pc itself.
    pub(crate) fn export(
        pool: &ExprPool,
        live: &LiveState,
        region: RegionId,
        origin_shard: u32,
        origin_seq: u64,
        warm_len: u32,
    ) -> PortableState {
        let state = &live.state;
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
        let pc: Vec<PortableRef> = state.pc.iter().map(|&c| exp.add(c)).collect();
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
            warm_len: warm_len.min(pc.len() as u32),
            pc,
            outputs,
            multiplicity: state.multiplicity,
            steps: state.steps,
            sym_counters,
            history: live.history.iter().copied().collect(),
            ff: live.ff,
        }
    }

    /// The `(origin_shard, origin_seq)` key a frontier is resumed in.
    pub fn order_key(&self) -> (u32, u64) {
        (self.origin_shard, self.origin_seq)
    }

    /// Rebuilds the state in `pool` as a hand-off, ready for the
    /// receiving engine to integrate (which gives it a fresh local id).
    pub(crate) fn import(&self, pool: &mut ExprPool) -> StolenState {
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
            // Affinity never travels (see `crate::shard`).
            affinity: 0,
        };
        StolenState {
            live: LiveState { state, history: self.history.iter().copied().collect(), ff: self.ff },
            warm_len: self.warm_len,
            region: self.region,
            origin_shard: self.origin_shard,
            origin_seq: self.origin_seq,
        }
    }
}

/// Imports a checkpoint frontier into `pool` in its deterministic
/// [`PortableState::order_key`] order — the one place a
/// [`PortableState`] is read. The result integrates like any other
/// hand-off batch.
pub(crate) fn import_frontier(frontier: &[PortableState], pool: &mut ExprPool) -> Vec<StolenState> {
    let mut sorted: Vec<&PortableState> = frontier.iter().collect();
    sorted.sort_by_key(|p| p.order_key());
    sorted.into_iter().map(|p| p.import(pool)).collect()
}

// ----- the byte layout -------------------------------------------------

/// A type with one byte layout in the checkpoint format: `put` appends
/// it, `get` reads it back and refuses, never panics on, bytes that do
/// not hold one.
trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(c: &mut Cursor<'_>) -> Result<Self, String>;
}

/// A bounds-checked reader over the checkpoint bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A `u32` count, capped against the remaining bytes (every item
    /// takes at least one) so a corrupt count cannot trigger a huge
    /// allocation.
    fn len(&mut self) -> Result<usize, String> {
        let n = u32::get(self)? as usize;
        if n > self.remaining() {
            return Err(format!("length {n} exceeds remaining bytes"));
        }
        Ok(n)
    }
}

/// How many `T`s to reserve for a decoded count of `n` with `remaining`
/// bytes left: no more than those bytes would hold in memory. An item
/// can be far larger in memory than on the wire, so a forged count
/// (which [`Cursor::len`] caps only at the byte count) would otherwise
/// reserve many times the file's size; a real vector still grows to
/// its full length as its items decode.
fn reservation<T>(n: usize, remaining: usize) -> usize {
    n.min(remaining / std::mem::size_of::<T>().max(1))
}

/// The `u32` count written before a string's bytes or a vector's items.
fn count(n: usize) -> u32 {
    u32::try_from(n).expect("checkpoint section over u32::MAX entries")
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
                let bytes = c.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("a slice of the type's size")))
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

impl Wire for f64 {
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        Ok(f64::from_bits(u64::get(c)?))
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self).put(buf);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        match u8::get(c)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }
}

impl Wire for usize {
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        let n = u64::get(c)?;
        usize::try_from(n).map_err(|_| format!("{n} is out of range"))
    }
}

impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        count(self.len()).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        let n = c.len()?;
        String::from_utf8(c.take(n)?.to_vec()).map_err(|e| format!("bad utf-8: {e}"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        count(self.len()).put(buf);
        self.iter().for_each(|item| item.put(buf));
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        let n = c.len()?;
        let mut items = Vec::with_capacity(reservation::<T>(n, c.remaining()));
        for _ in 0..n {
            items.push(T::get(c)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => 0u8.put(buf),
            Some(v) => {
                1u8.put(buf);
                v.put(buf);
            }
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        match u8::get(c)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(c)?)),
            t => Err(format!("bad option tag {t}")),
        }
    }
}

macro_rules! wire_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$i.put(buf);)+
            }
            fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
                Ok(($($t::get(c)?,)+))
            }
        }
    };
}
wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);
wire_tuple!(A 0, B 1, C 2, D 3);

/// The operator tables: an operator's tag is its index in its table.
const BV_OPS: [BvBinOp; 13] = {
    use BvBinOp::*;
    [Add, Sub, Mul, UDiv, URem, SDiv, SRem, And, Or, Xor, Shl, LShr, AShr]
};
const CMP_OPS: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Ult, CmpOp::Ule, CmpOp::Slt, CmpOp::Sle];
const BOOL_OPS: [BoolBinOp; 3] = [BoolBinOp::And, BoolBinOp::Or, BoolBinOp::Xor];

macro_rules! wire_op {
    ($($t:ty: $table:ident),*) => {$(
        impl Wire for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                let tag = $table.iter().position(|op| op == self).expect("a tabled operator");
                (tag as u8).put(buf);
            }
            fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
                let tag = u8::get(c)?;
                let op = $table.get(usize::from(tag));
                op.copied().ok_or_else(|| format!("bad {} tag {tag}", stringify!($t)))
            }
        }
    )*};
}
wire_op!(BvBinOp: BV_OPS, CmpOp: CMP_OPS, BoolBinOp: BOOL_OPS);

impl Wire for PortableNode {
    fn put(&self, buf: &mut Vec<u8>) {
        match *self {
            PortableNode::BvConst { value, width } => (0u8, value, width).put(buf),
            PortableNode::BoolConst(b) => (1u8, b).put(buf),
            PortableNode::Input { sym, width } => (2u8, sym, width).put(buf),
            PortableNode::Bv { op, lhs, rhs } => (3u8, op, lhs, rhs).put(buf),
            PortableNode::Cmp { op, lhs, rhs } => (4u8, op, lhs, rhs).put(buf),
            PortableNode::Not(a) => (5u8, a).put(buf),
            PortableNode::Bool { op, lhs, rhs } => (6u8, op, lhs, rhs).put(buf),
            PortableNode::Ite { cond, then, els } => (7u8, cond, then, els).put(buf),
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        Ok(match u8::get(c)? {
            0 => PortableNode::BvConst { value: Wire::get(c)?, width: Wire::get(c)? },
            1 => PortableNode::BoolConst(Wire::get(c)?),
            2 => PortableNode::Input { sym: Wire::get(c)?, width: Wire::get(c)? },
            3 => PortableNode::Bv { op: Wire::get(c)?, lhs: Wire::get(c)?, rhs: Wire::get(c)? },
            4 => PortableNode::Cmp { op: Wire::get(c)?, lhs: Wire::get(c)?, rhs: Wire::get(c)? },
            5 => PortableNode::Not(Wire::get(c)?),
            6 => PortableNode::Bool { op: Wire::get(c)?, lhs: Wire::get(c)?, rhs: Wire::get(c)? },
            7 => PortableNode::Ite { cond: Wire::get(c)?, then: Wire::get(c)?, els: Wire::get(c)? },
            t => return Err(format!("bad node tag {t}")),
        })
    }
}

impl Wire for PortableSlot {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            PortableSlot::Int(r) => (0u8, *r).put(buf),
            PortableSlot::Array(rs) => {
                1u8.put(buf);
                rs.put(buf);
            }
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        match u8::get(c)? {
            0 => Ok(PortableSlot::Int(Wire::get(c)?)),
            1 => Ok(PortableSlot::Array(Wire::get(c)?)),
            t => Err(format!("bad slot tag {t}")),
        }
    }
}

impl Wire for PortableFrame {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.func, self.block, self.instr, self.ret_dest).put(buf);
        self.locals.put(buf);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        Ok(PortableFrame {
            func: Wire::get(c)?,
            block: Wire::get(c)?,
            instr: Wire::get(c)?,
            ret_dest: Wire::get(c)?,
            locals: Wire::get(c)?,
        })
    }
}

impl Wire for PortableState {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.region, self.origin_shard, self.origin_seq).put(buf);
        self.dag.symbols.put(buf);
        self.dag.nodes.put(buf);
        self.frames.put(buf);
        self.globals.put(buf);
        self.pc.put(buf);
        self.outputs.put(buf);
        (self.multiplicity, self.steps).put(buf);
        self.sym_counters.put(buf);
        self.history.put(buf);
        (self.ff, self.warm_len).put(buf);
    }
    /// Also refuses a state that is not self-consistent ([`check_state`]).
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        let st = PortableState {
            region: Wire::get(c)?,
            origin_shard: Wire::get(c)?,
            origin_seq: Wire::get(c)?,
            dag: PortableDag { symbols: Wire::get(c)?, nodes: Wire::get(c)? },
            frames: Wire::get(c)?,
            globals: Wire::get(c)?,
            pc: Wire::get(c)?,
            outputs: Wire::get(c)?,
            multiplicity: Wire::get(c)?,
            steps: Wire::get(c)?,
            sym_counters: Wire::get(c)?,
            history: Wire::get(c)?,
            ff: Wire::get(c)?,
            warm_len: Wire::get(c)?,
        };
        check_state(&st)?;
        Ok(st)
    }
}

impl Wire for TestCase {
    fn put(&self, buf: &mut Vec<u8>) {
        self.inputs.put(buf);
        self.predicted_outputs.put(buf);
        match &self.kind {
            TestKind::Halted => 0u8.put(buf),
            TestKind::Returned => 1u8.put(buf),
            TestKind::AssertFailure { msg } => {
                2u8.put(buf);
                msg.put(buf);
            }
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        let (inputs, predicted_outputs) = Wire::get(c)?;
        let kind = match u8::get(c)? {
            0 => TestKind::Halted,
            1 => TestKind::Returned,
            2 => TestKind::AssertFailure { msg: Wire::get(c)? },
            t => return Err(format!("bad test kind tag {t}")),
        };
        Ok(TestCase { inputs, predicted_outputs, kind })
    }
}

/// A failure's message and location; its path condition does not
/// survive the pool boundary.
impl Wire for AssertFailure {
    fn put(&self, buf: &mut Vec<u8>) {
        self.msg.put(buf);
        self.loc.put(buf);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        Ok(AssertFailure { msg: Wire::get(c)?, loc: Wire::get(c)?, pc: Vec::new() })
    }
}

/// The persisted subset of a run's results. The rest of the report is
/// re-derived by the resuming run: gauges (coverage count, scheduler,
/// DSM and solver stats, wall time, budget flag) describe the process
/// that ran, and fleet hand-off counters describe the fleet.
impl Wire for ShardOutput {
    fn put(&self, buf: &mut Vec<u8>) {
        let r = &self.report;
        (r.completed_paths, r.completed_multiplicity, r.pruned_by_assume).put(buf);
        (r.tests_dropped_unknown, r.picks, r.steps, r.merges).put(buf);
        (r.merge_rejects, r.max_worklist, r.ff_merged, r.quarantined_states).put(buf);
        self.covered.put(buf);
        r.tests.put(buf);
        r.assert_failures.put(buf);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, String> {
        let mut report = RunReport {
            completed_paths: Wire::get(c)?,
            completed_multiplicity: Wire::get(c)?,
            pruned_by_assume: Wire::get(c)?,
            tests_dropped_unknown: Wire::get(c)?,
            picks: Wire::get(c)?,
            steps: Wire::get(c)?,
            merges: Wire::get(c)?,
            merge_rejects: Wire::get(c)?,
            max_worklist: Wire::get(c)?,
            ff_merged: Wire::get(c)?,
            quarantined_states: Wire::get(c)?,
            ..RunReport::default()
        };
        let covered = Wire::get(c)?;
        report.tests = Wire::get(c)?;
        report.assert_failures = Wire::get(c)?;
        Ok(ShardOutput { report, covered })
    }
}

/// Serializes a checkpoint to its on-disk byte layout.
pub(crate) fn encode_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(&MAGIC);
    (VERSION, ck.seed, ck.next_id).put(&mut buf);
    ck.rng.iter().for_each(|w| w.put(&mut buf));
    ck.results.put(&mut buf);
    ck.frontier.put(&mut buf);
    buf
}

/// Parses the on-disk byte layout back into a [`Checkpoint`].
pub(crate) fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, String> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err("not a symmerge checkpoint (bad magic)".into());
    }
    let version = u32::get(&mut c)?;
    if version != VERSION {
        return Err(format!("checkpoint version {version}, this build reads {VERSION}"));
    }
    let (seed, next_id) = Wire::get(&mut c)?;
    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = u64::get(&mut c)?;
    }
    let results = Wire::get(&mut c)?;
    let frontier = Wire::get(&mut c)?;
    if c.pos != bytes.len() {
        return Err(format!("{} trailing bytes after checkpoint", bytes.len() - c.pos));
    }
    Ok(Checkpoint { seed, next_id, rng, results, frontier })
}

// ----- validation ------------------------------------------------------

/// Rejects a decoded state that would not import or run: a malformed
/// dag ([`PortableDag::check`]), a pc conjunct that is not a boolean
/// node, an output or slot that is not a bitvector node, an empty call
/// stack, or a return destination outside its caller's locals. Returns
/// the dag's node sorts. Whether the state fits a program is checked at
/// resume ([`fits_program`]): the checkpoint does not carry the program.
fn check_state(st: &PortableState) -> Result<Vec<Sort>, String> {
    let sorts = st.dag.check()?;
    let root = |r: PortableRef, boolean: bool| match sorts.get(r as usize) {
        Some(sort) if sort.is_bool() == boolean => Ok(()),
        Some(sort) => Err(format!("node {r} has the wrong sort ({sort})")),
        None => Err(format!("no node {r}")),
    };
    let slot = |s: &PortableSlot| match s {
        PortableSlot::Int(r) => root(*r, false),
        PortableSlot::Array(rs) => rs.iter().try_for_each(|&r| root(r, false)),
    };
    if st.frames.is_empty() {
        return Err("state has no frames".into());
    }
    for (caller, callee) in st.frames.iter().zip(&st.frames[1..]) {
        if callee.ret_dest.is_some_and(|d| d as usize >= caller.locals.len()) {
            return Err("return destination outside the caller's locals".into());
        }
    }
    st.frames.iter().flat_map(|f| &f.locals).chain(&st.globals).try_for_each(slot)?;
    st.pc.iter().try_for_each(|&r| root(r, true))?;
    st.outputs.iter().try_for_each(|&r| root(r, false))?;
    Ok(sorts)
}

/// Rejects a frontier state that `program` cannot run (the rules are
/// listed on [`Checkpoint::check_program`]). Runs [`check_state`] first,
/// so an in-memory checkpoint gets the decoder's checks too.
fn fits_program(st: &PortableState, program: &Program) -> Result<(), String> {
    let sorts = check_state(st)?;
    let width = Sort::Bv(program.width);
    let root = |r: PortableRef| match sorts[r as usize] {
        sort if sort == width => Ok(()),
        sort => Err(format!("node {r} is a {sort}, not a {width}")),
    };
    let slot = |s: &PortableSlot, decl: &LocalDecl| match (s, decl.ty) {
        (PortableSlot::Int(r), Ty::Int) => root(*r),
        (PortableSlot::Array(rs), Ty::Array(n)) if rs.len() == n as usize => {
            rs.iter().try_for_each(|&r| root(r))
        }
        _ => Err(format!("`{}` does not match its declared type {:?}", decl.name, decl.ty)),
    };
    let slots = |slots: &[PortableSlot], decls: &[LocalDecl]| {
        if slots.len() != decls.len() {
            return Err(format!("{} slots for {} declarations", slots.len(), decls.len()));
        }
        slots.iter().zip(decls).try_for_each(|(s, d)| slot(s, d))
    };
    let mut caller: Option<&Function> = None;
    for (k, frame) in st.frames.iter().enumerate() {
        let (func, block) = lookup_block(program, frame.func, frame.block)
            .ok_or_else(|| format!("frame {k}: no block ({}, {})", frame.func, frame.block))?;
        if frame.instr as usize > block.instrs.len() {
            return Err(format!("frame {k}: instruction {} past the block's end", frame.instr));
        }
        slots(&frame.locals, &func.locals)
            .map_err(|e| format!("frame {k} (`{}`): {e}", func.name))?;
        // `check_state` bounded the return destination by the caller's
        // locals, which match the caller's declarations.
        if let (Some(caller), Some(d)) = (caller, frame.ret_dest) {
            let decl = &caller.locals[d as usize];
            if !decl.ty.is_int() {
                return Err(format!("frame {k}: returns into array `{}`", decl.name));
            }
        }
        caller = Some(func);
    }
    slots(&st.globals, &program.globals).map_err(|e| format!("globals: {e}"))?;
    st.outputs.iter().try_for_each(|&r| root(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checkpoint exercising every codec arm: all node variants,
    /// Int/Array slots, Some/None ret_dest, every test kind, failures,
    /// and a second minimal frontier state.
    fn sample() -> Checkpoint {
        let dag = PortableDag {
            symbols: vec!["x".into(), "y".into()],
            nodes: vec![
                PortableNode::Input { sym: 0, width: 32 },
                PortableNode::BvConst { value: 7, width: 32 },
                PortableNode::Bv { op: BvBinOp::Mul, lhs: 0, rhs: 1 },
                PortableNode::Cmp { op: CmpOp::Slt, lhs: 2, rhs: 1 },
                PortableNode::Not(3),
                PortableNode::Bool { op: BoolBinOp::Or, lhs: 3, rhs: 4 },
                PortableNode::BoolConst(true),
                PortableNode::Ite { cond: 5, then: 1, els: 2 },
                PortableNode::Input { sym: 1, width: 8 },
            ],
        };
        let st = PortableState {
            region: 3,
            origin_shard: 1,
            origin_seq: 42,
            dag,
            frames: vec![
                PortableFrame {
                    func: 0,
                    block: 2,
                    instr: 5,
                    ret_dest: None,
                    locals: vec![PortableSlot::Int(0), PortableSlot::Array(vec![1, 2])],
                },
                PortableFrame { func: 1, block: 0, instr: 0, ret_dest: Some(1), locals: vec![] },
            ],
            globals: vec![PortableSlot::Int(7)],
            pc: vec![3, 5],
            outputs: vec![2],
            multiplicity: 2.5,
            steps: 17,
            sym_counters: vec![("x".into(), 1), ("y".into(), 2)],
            history: vec![11, 22, 33],
            ff: true,
            warm_len: 4,
        };
        let mut tiny = st.clone();
        tiny.origin_seq = 43;
        tiny.frames.pop();
        tiny.ff = false;
        let report = RunReport {
            completed_paths: 10,
            completed_multiplicity: 12.25,
            pruned_by_assume: 1,
            tests_dropped_unknown: 2,
            picks: 200,
            steps: 1234,
            merges: 3,
            merge_rejects: 4,
            max_worklist: 31,
            ff_merged: 5,
            quarantined_states: 1,
            tests: vec![
                TestCase {
                    inputs: vec![("x".into(), 9)],
                    predicted_outputs: vec![1, 2],
                    kind: TestKind::Halted,
                },
                TestCase { inputs: vec![], predicted_outputs: vec![], kind: TestKind::Returned },
                TestCase {
                    inputs: vec![("y".into(), 0)],
                    predicted_outputs: vec![],
                    kind: TestKind::AssertFailure { msg: "boom".into() },
                },
            ],
            assert_failures: vec![AssertFailure {
                msg: "boom".into(),
                loc: (1, 2, 3),
                pc: Vec::new(),
            }],
            ..RunReport::default()
        };
        Checkpoint {
            seed: 5,
            next_id: 99,
            rng: [1, 2, 3, 4],
            results: ShardOutput { report, covered: vec![(0, 1), (0, 2), (1, 0)] },
            frontier: vec![st, tiny],
        }
    }

    #[test]
    fn codec_round_trips_byte_for_byte() {
        let ck = sample();
        let bytes = encode_checkpoint(&ck);
        let back = decode_checkpoint(&bytes).unwrap();
        // PortableState carries no PartialEq; a byte-identical
        // re-encoding is an equivalent (and stronger) round-trip check.
        assert_eq!(encode_checkpoint(&back), bytes);
        let (r, want) = (&back.results.report, &ck.results.report);
        assert_eq!(r.picks, want.picks);
        assert_eq!(back.frontier.len(), 2);
        assert_eq!(r.tests.len(), 3);
        let failures = |r: &RunReport| -> Vec<(String, (u32, u32, u32))> {
            r.assert_failures.iter().map(|f| (f.msg.clone(), f.loc)).collect()
        };
        assert_eq!(failures(r), failures(want));
        assert_eq!(back.results.covered, ck.results.covered);
    }

    /// A forged count reserves at most the remaining bytes' worth of
    /// memory: a frontier count that fills a 16 KB file reserves 16 KB,
    /// not one state per byte. Below the cap a count reserves exactly,
    /// and a vector whose items are larger in memory than on the wire
    /// still decodes whole.
    #[test]
    fn decoding_reserves_no_more_than_the_remaining_bytes() {
        let size = std::mem::size_of::<PortableState>();
        let reserved = reservation::<PortableState>(16_384, 16_384);
        assert_eq!(reserved, 16_384 / size);
        assert!(reserved * size <= 16_384);
        assert_eq!(reservation::<PortableState>(3, 16_384), 3);
        assert_eq!(reservation::<()>(100, 100), 100, "zero-sized items reserve the count");

        let nones = vec![None::<u64>; 64];
        let mut buf = Vec::new();
        nones.put(&mut buf);
        assert_eq!(buf.len(), 4 + 64, "one tag byte per item, 16 in memory");
        let back = Vec::<Option<u64>>::get(&mut Cursor { buf: &buf, pos: 0 }).unwrap();
        assert_eq!(back, nones);
    }

    /// The encoding of [`sample`] is pinned (format version 1): length
    /// and FNV-1a digest of the bytes.
    #[test]
    fn sample_encoding_is_pinned() {
        let bytes = encode_checkpoint(&sample());
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (810, 16334165246778481294));
    }

    /// A one-state checkpoint whose dag applies each of the 21 binary
    /// operators to the same two operands, so every operator tag of
    /// the format is pinned: length and FNV-1a digest of the bytes.
    #[test]
    fn every_operator_tag_is_pinned() {
        use BvBinOp::*;
        let bv = [Add, Sub, Mul, UDiv, URem, SDiv, SRem, And, Or, Xor, Shl, LShr, AShr];
        let cmp = [CmpOp::Eq, CmpOp::Ult, CmpOp::Ule, CmpOp::Slt, CmpOp::Sle];
        let boolean = [BoolBinOp::And, BoolBinOp::Or, BoolBinOp::Xor];
        let mut nodes = vec![
            PortableNode::Input { sym: 0, width: 32 },
            PortableNode::BvConst { value: 5, width: 32 },
        ];
        nodes.extend(bv.map(|op| PortableNode::Bv { op, lhs: 0, rhs: 1 }));
        nodes.extend(cmp.map(|op| PortableNode::Cmp { op, lhs: 0, rhs: 1 }));
        nodes.extend(boolean.map(|op| PortableNode::Bool { op, lhs: 15, rhs: 16 }));
        let mut ck = sample();
        ck.frontier.truncate(1);
        let st = &mut ck.frontier[0];
        st.dag = PortableDag { symbols: vec!["x".into()], nodes };
        st.frames.truncate(1);
        st.frames[0].locals = vec![PortableSlot::Int(2), PortableSlot::Array((3..15).collect())];
        st.globals = vec![PortableSlot::Int(0)];
        st.pc = (15..23).collect();
        st.outputs = vec![14];
        let bytes = encode_checkpoint(&ck);
        assert_eq!(encode_checkpoint(&decode_checkpoint(&bytes).unwrap()), bytes);
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (745, 1001825084261304344));
    }

    #[test]
    fn bad_magic_version_and_truncation_are_refused() {
        let ck = sample();
        let bytes = encode_checkpoint(&ck);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_checkpoint(&bad).unwrap_err().contains("magic"));
        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        assert!(decode_checkpoint(&bad).unwrap_err().contains("version"));
        for cut in [0, 3, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_checkpoint(&long).unwrap_err().contains("trailing"));
    }

    /// Fail-closed decoding: every truncation of [`sample`] is refused,
    /// and every single-byte corruption (three masks per byte) is either
    /// refused or decodes to a frontier that imports without panicking.
    #[test]
    fn truncated_and_flipped_bytes_never_decode_to_a_panic() {
        let bytes = encode_checkpoint(&sample());
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        for pos in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[pos] ^= mask;
                let Ok(ck) = decode_checkpoint(&bad) else { continue };
                let imported = std::panic::catch_unwind(|| {
                    import_frontier(&ck.frontier, &mut ExprPool::new(8)).len()
                });
                assert!(
                    imported.is_ok(),
                    "byte {pos} ^ {mask:#04x} decoded to a panicking frontier"
                );
            }
        }
    }

    /// The sweep above over a checkpoint a real run wrote: `wc` on two
    /// stdin bytes, checkpointed at pick 20 of a 40-pick budget, with
    /// states on its frontier and tests in its results (about 4 KB).
    /// Every truncation is refused, and every single-byte corruption is
    /// refused or decodes to a checkpoint that checks against the
    /// program — and, when it fits, imports — without a panic.
    #[test]
    fn a_real_wc_checkpoint_fails_closed_when_truncated_or_flipped() {
        use crate::engine::{Budgets, Engine, EngineConfig};
        use symmerge_workloads::{by_name, InputConfig};
        let cfg = InputConfig { n_args: 0, arg_len: 1, stdin_len: 2 };
        let program = by_name("wc").unwrap().program(&cfg);
        let path = std::env::temp_dir()
            .join(format!("symmerge-checkpoint-sweep-{}.ck", std::process::id()));
        let config = EngineConfig {
            budgets: Budgets { max_picks: Some(40), ..Budgets::default() },
            checkpoint: Some(crate::CheckpointConfig { path: path.clone(), every: 20 }),
            ..EngineConfig::default()
        };
        Engine::builder(program.clone()).config(config).build().unwrap().run();
        let bytes = std::fs::read(&path).expect("the run wrote a checkpoint");
        std::fs::remove_file(&path).ok();
        let ck = decode_checkpoint(&bytes).unwrap();
        assert_eq!(encode_checkpoint(&ck), bytes, "re-encoding a real file moved a byte");
        assert!(!ck.frontier.is_empty(), "the checkpoint must carry a frontier");
        assert!(!ck.results.report.tests.is_empty(), "and tests the run already generated");
        ck.check_program(&program).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        for pos in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[pos] ^= mask;
                let checked = std::panic::catch_unwind(|| {
                    let Ok(ck) = decode_checkpoint(&bad) else { return };
                    if ck.check_program(&program).is_ok() {
                        import_frontier(&ck.frontier, &mut ExprPool::new(8));
                    }
                });
                assert!(checked.is_ok(), "byte {pos} ^ {mask:#04x} panicked");
            }
        }
    }

    /// States that import but could not run are refused too.
    #[test]
    fn inconsistent_frontier_states_are_refused() {
        type Edit = fn(&mut PortableState);
        let edits: [(&str, Edit); 5] = [
            ("ret_dest past the caller's locals", |st| st.frames[1].ret_dest = Some(2)),
            ("no frames", |st| st.frames.clear()),
            ("bitvector pc conjunct", |st| st.pc.push(2)),
            ("boolean output", |st| st.outputs.push(3)),
            ("slot past the node table", |st| st.globals.push(PortableSlot::Int(9))),
        ];
        for (what, edit) in edits {
            let mut ck = sample();
            edit(&mut ck.frontier[0]);
            assert!(decode_checkpoint(&encode_checkpoint(&ck)).is_err(), "{what} accepted");
        }
    }

    /// A program with a global scalar and array, a helper called with a
    /// scalar return destination, and an array local in each function;
    /// and a checkpoint whose one frontier state is inside the call.
    fn fitting() -> (Program, Checkpoint) {
        use crate::state::fresh_frame;
        let program = symmerge_ir::minic::compile_with_width(
            r#"
            global g = 7;
            global buf[3];
            fn f(v) { let t[2]; t[0] = v; if (v > 3) { return t[0]; } return 0; }
            fn main() { let x = sym_int("x"); let a[2]; let r = f(x); buf[0] = r + a[1]; }
        "#,
            8,
        )
        .unwrap();
        let index = |names: Vec<&str>, name: &str| names.iter().position(|&n| n == name).unwrap();
        let main = program.func(program.entry);
        let f = index(program.functions.iter().map(|f| f.name.as_str()).collect(), "f");
        let r = index(main.locals.iter().map(|d| d.name.as_str()).collect(), "r");
        let mut pool = ExprPool::new(8);
        let mut state = State::initial(&program, &mut pool, StateId(0));
        let x = pool.input("x", 8);
        let callee =
            fresh_frame(&program, &mut pool, FuncId(f as u32), &[x], Some(LocalId(r as u32)));
        state.frames.push(callee);
        state.outputs.push(x);
        let st = PortableState::export(&pool, &LiveState::fresh(state), 0, 0, 1, 0);
        let ck = Checkpoint {
            seed: 0,
            next_id: 1,
            rng: [1, 2, 3, 4],
            results: ShardOutput { covered: vec![(0, 0)], ..ShardOutput::default() },
            frontier: vec![st],
        };
        (program, ck)
    }

    /// One mutation per [`Checkpoint::check_program`] rule, each refused
    /// with an error; the unmutated checkpoint fits.
    #[test]
    fn checkpoints_that_do_not_fit_the_program_are_refused() {
        let (program, ck) = fitting();
        ck.check_program(&program).unwrap();
        let main = program.func(program.entry);
        let a = main.locals.iter().position(|d| d.name == "a").unwrap();
        type Edit = fn(&mut Checkpoint, usize);
        let edits: [(&str, Edit); 11] = [
            ("no such function", |ck, _| ck.frontier[0].frames[1].func = 99),
            ("no such block", |ck, _| ck.frontier[0].frames[0].block = 99),
            ("instruction past the terminator", |ck, _| ck.frontier[0].frames[1].instr = 99),
            ("a missing local", |ck, _| drop(ck.frontier[0].frames[0].locals.pop())),
            ("a missing global", |ck, _| drop(ck.frontier[0].globals.pop())),
            ("scalar global as an array", |ck, _| {
                ck.frontier[0].globals[0] = PortableSlot::Array(vec![0]);
            }),
            ("array local as a scalar", |ck, a| {
                ck.frontier[0].frames[0].locals[a] = PortableSlot::Int(0);
            }),
            ("array of the wrong length", |ck, a| {
                ck.frontier[0].frames[0].locals[a] = PortableSlot::Array(vec![0; 5]);
            }),
            ("return into an array local", |ck, a| {
                ck.frontier[0].frames[1].ret_dest = Some(a as u32);
            }),
            ("a root of another width", |ck, _| {
                let st = &mut ck.frontier[0];
                st.dag.nodes.push(PortableNode::BvConst { value: 1, width: 16 });
                st.outputs.push(st.dag.nodes.len() as u32 - 1);
            }),
            ("covered block outside the program", |ck, _| ck.results.covered.push((0, 99))),
        ];
        for (what, edit) in edits {
            let mut bad = ck.clone();
            edit(&mut bad, a);
            assert!(bad.check_program(&program).is_err(), "{what} accepted");
        }
    }

    #[test]
    fn portable_state_round_trips_across_pools() {
        let program = symmerge_ir::minic::compile_with_width(
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

        let live = LiveState { state, history: vec![11, 22].into(), ff: true };
        let ps = PortableState::export(&src, &live, 4, 1, 9, 1);
        // The seed can never claim more than the pc itself.
        let clamped = PortableState::export(&src, &live, 4, 1, 9, 99);
        let state = live.state;
        assert_eq!(clamped.warm_len as usize, state.pc.len());

        let mut dst = ExprPool::new(8);
        let _ = dst.input("y", 8); // different interning history
        let moved = ps.import(&mut dst);
        assert_eq!((moved.region, moved.order_key(), moved.warm_len), (4, (1, 9), 1));
        assert_eq!(moved.live.history, live.history);
        assert!(moved.live.ff);
        let back = moved.live.state;
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

    #[test]
    fn write_is_atomic_and_read_validates() {
        let ck = sample();
        let dir = std::env::temp_dir().join(format!("symmerge-ck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ck");
        write_checkpoint(&path, &ck).unwrap();
        assert!(!path.with_file_name("run.ck.tmp").exists(), "temp file renamed away");
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(encode_checkpoint(&back), encode_checkpoint(&ck));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_parts_sums_counters_and_unions_coverage() {
        let a = sample();
        let mut b = sample();
        b.results.covered = vec![(0, 2), (2, 2)];
        b.frontier.pop();
        let extra = vec![a.frontier[1].clone()];
        let merged = merge_parts(&[a.clone(), b.clone()], extra, None);
        let r = &merged.results.report;
        assert_eq!(r.completed_paths, 20);
        assert_eq!(r.picks, 400);
        assert_eq!(r.max_worklist, 31);
        assert_eq!(merged.results.covered, vec![(0, 1), (0, 2), (1, 0), (2, 2)]);
        assert_eq!(r.tests.len(), 6);
        // extra (1) + a's frontier (2) + b's frontier (1).
        assert_eq!(merged.frontier.len(), 4);
        // A base contributes counters but never its frontier.
        let merged2 = merge_parts(&[b], Vec::new(), Some(&a));
        assert_eq!(merged2.results.report.completed_paths, 20);
        assert_eq!(merged2.frontier.len(), 1);
        assert_eq!(merged2.seed, a.seed);
    }
}
