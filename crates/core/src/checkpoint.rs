//! Checkpoint/resume for long explorations.
//!
//! A [`Checkpoint`] captures everything an interrupted run needs to
//! continue and still produce the *same* final report as the
//! uninterrupted run would have: the run's results so far, the RNG
//! stream, and the whole live frontier as [`PortableState`]s
//! ([`crate::shard`]): states flattened to pool-free DAGs, so a
//! checkpoint written by a 4-worker fleet can be resumed sequentially
//! and vice versa — a portable state does not care which scheduler
//! re-hosts it.
//!
//! The results are a [`ShardOutput`], the shape a fleet worker reports
//! in: a [`RunReport`] plus the covered pairs. A
//! checkpoint is one more part of the run, so parts combine the way
//! worker reports do ([`ShardOutput::fold`]), and a resumed fleet
//! reduces the checkpoint's results like a worker's. Only a subset of
//! the report is persisted (`put_results`/`get_results`); the rest
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

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use symmerge_expr::{BoolBinOp, BvBinOp, CmpOp, PortableDag, PortableNode, PortableRef, Sort};
use symmerge_ir::{Block, Function, LocalDecl, Program, Ty};

use crate::engine::{RunReport, ShardOutput};
use crate::exec::AssertFailure;
use crate::shard::{PortableFrame, PortableSlot, PortableState};
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
    /// Next fresh [`StateId`](crate::StateId) word.
    pub next_id: u64,
    /// The engine RNG's raw xoshiro256** state words.
    pub rng: [u64; 4],
    /// The run's results so far, in a fleet worker's shape. A file
    /// keeps only the persisted subset (see `put_results`); every other
    /// report field reads back as its default. Assertion failures keep
    /// their message and location: the path condition does not survive
    /// the pool boundary, and the failures' tests are already in the
    /// report's tests.
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

// ----- encoding ------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_len(buf: &mut Vec<u8>, n: usize) {
    put_u32(buf, u32::try_from(n).expect("checkpoint section over u32::MAX entries"));
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_len(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

fn put_node(buf: &mut Vec<u8>, node: &PortableNode) {
    match node {
        PortableNode::BvConst { value, width } => {
            put_u8(buf, 0);
            put_u64(buf, *value);
            put_u32(buf, *width);
        }
        PortableNode::BoolConst(b) => {
            put_u8(buf, 1);
            put_u8(buf, u8::from(*b));
        }
        PortableNode::Input { sym, width } => {
            put_u8(buf, 2);
            put_u32(buf, *sym);
            put_u32(buf, *width);
        }
        PortableNode::Bv { op, lhs, rhs } => {
            put_u8(buf, 3);
            put_u8(buf, bv_op_tag(*op));
            put_u32(buf, *lhs);
            put_u32(buf, *rhs);
        }
        PortableNode::Cmp { op, lhs, rhs } => {
            put_u8(buf, 4);
            put_u8(buf, cmp_op_tag(*op));
            put_u32(buf, *lhs);
            put_u32(buf, *rhs);
        }
        PortableNode::Not(a) => {
            put_u8(buf, 5);
            put_u32(buf, *a);
        }
        PortableNode::Bool { op, lhs, rhs } => {
            put_u8(buf, 6);
            put_u8(buf, bool_op_tag(*op));
            put_u32(buf, *lhs);
            put_u32(buf, *rhs);
        }
        PortableNode::Ite { cond, then, els } => {
            put_u8(buf, 7);
            put_u32(buf, *cond);
            put_u32(buf, *then);
            put_u32(buf, *els);
        }
    }
}

fn put_slot(buf: &mut Vec<u8>, slot: &PortableSlot) {
    match slot {
        PortableSlot::Int(r) => {
            put_u8(buf, 0);
            put_u32(buf, *r);
        }
        PortableSlot::Array(rs) => {
            put_u8(buf, 1);
            put_len(buf, rs.len());
            for r in rs {
                put_u32(buf, *r);
            }
        }
    }
}

fn put_state(buf: &mut Vec<u8>, st: &PortableState) {
    put_u32(buf, st.region);
    put_u32(buf, st.origin_shard);
    put_u64(buf, st.origin_seq);
    put_len(buf, st.dag.symbols.len());
    for s in &st.dag.symbols {
        put_str(buf, s);
    }
    put_len(buf, st.dag.nodes.len());
    for n in &st.dag.nodes {
        put_node(buf, n);
    }
    put_len(buf, st.frames.len());
    for f in &st.frames {
        put_u32(buf, f.func);
        put_u32(buf, f.block);
        put_u32(buf, f.instr);
        match f.ret_dest {
            None => put_u8(buf, 0),
            Some(d) => {
                put_u8(buf, 1);
                put_u32(buf, d);
            }
        }
        put_len(buf, f.locals.len());
        for slot in &f.locals {
            put_slot(buf, slot);
        }
    }
    put_len(buf, st.globals.len());
    for slot in &st.globals {
        put_slot(buf, slot);
    }
    put_len(buf, st.pc.len());
    for r in &st.pc {
        put_u32(buf, *r);
    }
    put_len(buf, st.outputs.len());
    for r in &st.outputs {
        put_u32(buf, *r);
    }
    put_f64(buf, st.multiplicity);
    put_u64(buf, st.steps);
    put_len(buf, st.sym_counters.len());
    for (name, n) in &st.sym_counters {
        put_str(buf, name);
        put_u32(buf, *n);
    }
    put_len(buf, st.history.len());
    for h in &st.history {
        put_u64(buf, *h);
    }
    put_u8(buf, u8::from(st.ff));
    put_u32(buf, st.warm_len);
}

fn put_test(buf: &mut Vec<u8>, t: &TestCase) {
    put_len(buf, t.inputs.len());
    for (name, v) in &t.inputs {
        put_str(buf, name);
        put_u64(buf, *v);
    }
    put_len(buf, t.predicted_outputs.len());
    for v in &t.predicted_outputs {
        put_u64(buf, *v);
    }
    match &t.kind {
        TestKind::Halted => put_u8(buf, 0),
        TestKind::Returned => put_u8(buf, 1),
        TestKind::AssertFailure { msg } => {
            put_u8(buf, 2);
            put_str(buf, msg);
        }
    }
}

/// Writes the persisted subset of a run's results, in layout order.
/// The rest of the report is re-derived by the resuming run: gauges
/// (coverage count, scheduler, DSM and solver stats, wall time, budget
/// flag) describe the process that ran, and fleet hand-off counters
/// describe the fleet.
fn put_results(buf: &mut Vec<u8>, out: &ShardOutput) {
    let r = &out.report;
    put_u64(buf, r.completed_paths);
    put_f64(buf, r.completed_multiplicity);
    put_u64(buf, r.pruned_by_assume);
    put_u64(buf, r.tests_dropped_unknown);
    put_u64(buf, r.picks);
    put_u64(buf, r.steps);
    put_u64(buf, r.merges);
    put_u64(buf, r.merge_rejects);
    put_u64(buf, r.max_worklist as u64);
    put_u64(buf, r.ff_merged);
    put_u64(buf, r.quarantined_states);
    put_len(buf, out.covered.len());
    for &(f, b) in &out.covered {
        put_u32(buf, f);
        put_u32(buf, b);
    }
    put_len(buf, r.tests.len());
    for t in &r.tests {
        put_test(buf, t);
    }
    put_len(buf, r.assert_failures.len());
    for failure in &r.assert_failures {
        let (f, b, i) = failure.loc;
        put_str(buf, &failure.msg);
        put_u32(buf, f);
        put_u32(buf, b);
        put_u32(buf, i);
    }
}

/// Serializes a checkpoint to its on-disk byte layout.
pub(crate) fn encode_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(&MAGIC);
    put_u32(&mut buf, VERSION);
    put_u64(&mut buf, ck.seed);
    put_u64(&mut buf, ck.next_id);
    for w in ck.rng {
        put_u64(&mut buf, w);
    }
    put_results(&mut buf, &ck.results);
    put_len(&mut buf, ck.frontier.len());
    for st in &ck.frontier {
        put_state(&mut buf, st);
    }
    buf
}

fn bv_op_tag(op: BvBinOp) -> u8 {
    match op {
        BvBinOp::Add => 0,
        BvBinOp::Sub => 1,
        BvBinOp::Mul => 2,
        BvBinOp::UDiv => 3,
        BvBinOp::URem => 4,
        BvBinOp::SDiv => 5,
        BvBinOp::SRem => 6,
        BvBinOp::And => 7,
        BvBinOp::Or => 8,
        BvBinOp::Xor => 9,
        BvBinOp::Shl => 10,
        BvBinOp::LShr => 11,
        BvBinOp::AShr => 12,
    }
}

fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ult => 1,
        CmpOp::Ule => 2,
        CmpOp::Slt => 3,
        CmpOp::Sle => 4,
    }
}

fn bool_op_tag(op: BoolBinOp) -> u8 {
    match op {
        BoolBinOp::And => 0,
        BoolBinOp::Or => 1,
        BoolBinOp::Xor => 2,
    }
}

fn bv_op_from(tag: u8) -> Result<BvBinOp, String> {
    Ok(match tag {
        0 => BvBinOp::Add,
        1 => BvBinOp::Sub,
        2 => BvBinOp::Mul,
        3 => BvBinOp::UDiv,
        4 => BvBinOp::URem,
        5 => BvBinOp::SDiv,
        6 => BvBinOp::SRem,
        7 => BvBinOp::And,
        8 => BvBinOp::Or,
        9 => BvBinOp::Xor,
        10 => BvBinOp::Shl,
        11 => BvBinOp::LShr,
        12 => BvBinOp::AShr,
        t => return Err(format!("bad bv op tag {t}")),
    })
}

fn cmp_op_from(tag: u8) -> Result<CmpOp, String> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ult,
        2 => CmpOp::Ule,
        3 => CmpOp::Slt,
        4 => CmpOp::Sle,
        t => return Err(format!("bad cmp op tag {t}")),
    })
}

fn bool_op_from(tag: u8) -> Result<BoolBinOp, String> {
    Ok(match tag {
        0 => BoolBinOp::And,
        1 => BoolBinOp::Or,
        2 => BoolBinOp::Xor,
        t => return Err(format!("bad bool op tag {t}")),
    })
}

// ----- decoding ------------------------------------------------------

/// A bounds-checked little-endian reader over the checkpoint bytes.
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

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }

    /// A section length; also sanity-capped against the remaining
    /// bytes so a corrupt length cannot trigger a huge allocation.
    fn len(&mut self) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(format!("length {n} exceeds remaining bytes"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| format!("bad utf-8: {e}"))
    }
}

fn get_node(c: &mut Cursor<'_>) -> Result<PortableNode, String> {
    Ok(match c.u8()? {
        0 => PortableNode::BvConst { value: c.u64()?, width: c.u32()? },
        1 => PortableNode::BoolConst(c.bool()?),
        2 => PortableNode::Input { sym: c.u32()?, width: c.u32()? },
        3 => PortableNode::Bv { op: bv_op_from(c.u8()?)?, lhs: c.u32()?, rhs: c.u32()? },
        4 => PortableNode::Cmp { op: cmp_op_from(c.u8()?)?, lhs: c.u32()?, rhs: c.u32()? },
        5 => PortableNode::Not(c.u32()?),
        6 => PortableNode::Bool { op: bool_op_from(c.u8()?)?, lhs: c.u32()?, rhs: c.u32()? },
        7 => PortableNode::Ite { cond: c.u32()?, then: c.u32()?, els: c.u32()? },
        t => return Err(format!("bad node tag {t}")),
    })
}

fn get_slot(c: &mut Cursor<'_>) -> Result<PortableSlot, String> {
    Ok(match c.u8()? {
        0 => PortableSlot::Int(c.u32()?),
        1 => {
            let n = c.len()?;
            let mut rs = Vec::with_capacity(n);
            for _ in 0..n {
                rs.push(c.u32()?);
            }
            PortableSlot::Array(rs)
        }
        t => return Err(format!("bad slot tag {t}")),
    })
}

fn get_state(c: &mut Cursor<'_>) -> Result<PortableState, String> {
    let region = c.u32()?;
    let origin_shard = c.u32()?;
    let origin_seq = c.u64()?;
    let n_sym = c.len()?;
    let mut symbols = Vec::with_capacity(n_sym);
    for _ in 0..n_sym {
        symbols.push(c.str()?);
    }
    let n_nodes = c.len()?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        nodes.push(get_node(c)?);
    }
    let n_frames = c.len()?;
    let mut frames = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        let func = c.u32()?;
        let block = c.u32()?;
        let instr = c.u32()?;
        let ret_dest = match c.u8()? {
            0 => None,
            1 => Some(c.u32()?),
            t => return Err(format!("bad ret_dest tag {t}")),
        };
        let n_locals = c.len()?;
        let mut locals = Vec::with_capacity(n_locals);
        for _ in 0..n_locals {
            locals.push(get_slot(c)?);
        }
        frames.push(PortableFrame { func, block, instr, ret_dest, locals });
    }
    let n_globals = c.len()?;
    let mut globals = Vec::with_capacity(n_globals);
    for _ in 0..n_globals {
        globals.push(get_slot(c)?);
    }
    let n_pc = c.len()?;
    let mut pc = Vec::with_capacity(n_pc);
    for _ in 0..n_pc {
        pc.push(c.u32()?);
    }
    let n_out = c.len()?;
    let mut outputs = Vec::with_capacity(n_out);
    for _ in 0..n_out {
        outputs.push(c.u32()?);
    }
    let multiplicity = c.f64()?;
    let steps = c.u64()?;
    let n_sc = c.len()?;
    let mut sym_counters = Vec::with_capacity(n_sc);
    for _ in 0..n_sc {
        let name = c.str()?;
        sym_counters.push((name, c.u32()?));
    }
    let n_hist = c.len()?;
    let mut history = Vec::with_capacity(n_hist);
    for _ in 0..n_hist {
        history.push(c.u64()?);
    }
    let ff = c.bool()?;
    let warm_len = c.u32()?;
    let st = PortableState {
        region,
        origin_shard,
        origin_seq,
        dag: PortableDag { symbols, nodes },
        frames,
        globals,
        pc,
        outputs,
        multiplicity,
        steps,
        sym_counters,
        history,
        ff,
        warm_len,
    };
    check_state(&st)?;
    Ok(st)
}

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

fn get_test(c: &mut Cursor<'_>) -> Result<TestCase, String> {
    let n_in = c.len()?;
    let mut inputs = Vec::with_capacity(n_in);
    for _ in 0..n_in {
        let name = c.str()?;
        inputs.push((name, c.u64()?));
    }
    let n_out = c.len()?;
    let mut predicted_outputs = Vec::with_capacity(n_out);
    for _ in 0..n_out {
        predicted_outputs.push(c.u64()?);
    }
    let kind = match c.u8()? {
        0 => TestKind::Halted,
        1 => TestKind::Returned,
        2 => TestKind::AssertFailure { msg: c.str()? },
        t => return Err(format!("bad test kind tag {t}")),
    };
    Ok(TestCase { inputs, predicted_outputs, kind })
}

/// Reads what [`put_results`] wrote.
fn get_results(c: &mut Cursor<'_>) -> Result<ShardOutput, String> {
    // Fields are read in the order they are written here.
    let mut report = RunReport {
        completed_paths: c.u64()?,
        completed_multiplicity: c.f64()?,
        pruned_by_assume: c.u64()?,
        tests_dropped_unknown: c.u64()?,
        picks: c.u64()?,
        steps: c.u64()?,
        merges: c.u64()?,
        merge_rejects: c.u64()?,
        max_worklist: usize::try_from(c.u64()?).map_err(|_| "max_worklist out of range")?,
        ff_merged: c.u64()?,
        quarantined_states: c.u64()?,
        ..RunReport::default()
    };
    let n_cov = c.len()?;
    let mut covered = Vec::with_capacity(n_cov);
    for _ in 0..n_cov {
        let f = c.u32()?;
        covered.push((f, c.u32()?));
    }
    let n_tests = c.len()?;
    report.tests.reserve(n_tests);
    for _ in 0..n_tests {
        report.tests.push(get_test(c)?);
    }
    let n_fail = c.len()?;
    report.assert_failures.reserve(n_fail);
    for _ in 0..n_fail {
        let msg = c.str()?;
        let loc = (c.u32()?, c.u32()?, c.u32()?);
        report.assert_failures.push(AssertFailure { msg, loc, pc: Vec::new() });
    }
    Ok(ShardOutput { report, covered })
}

/// Parses the on-disk byte layout back into a [`Checkpoint`].
pub(crate) fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, String> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err("not a symmerge checkpoint (bad magic)".into());
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(format!("checkpoint version {version}, this build reads {VERSION}"));
    }
    let seed = c.u64()?;
    let next_id = c.u64()?;
    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = c.u64()?;
    }
    let results = get_results(&mut c)?;
    let n_front = c.len()?;
    let mut frontier = Vec::with_capacity(n_front);
    for _ in 0..n_front {
        frontier.push(get_state(&mut c)?);
    }
    if c.pos != bytes.len() {
        return Err(format!("{} trailing bytes after checkpoint", bytes.len() - c.pos));
    }
    Ok(Checkpoint { seed, next_id, rng, results, frontier })
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmerge_expr::ExprPool;

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
                    crate::shard::import_frontier(&ck.frontier, &mut ExprPool::new(8)).len()
                });
                assert!(
                    imported.is_ok(),
                    "byte {pos} ^ {mask:#04x} decoded to a panicking frontier"
                );
            }
        }
    }

    /// The sweep above over a checkpoint a real run wrote: `wc` on two
    /// stdin bytes, checkpointed at pick 200 of a 400-pick budget, with
    /// states on its frontier and tests in its results (about 6 KB).
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
            budgets: Budgets { max_picks: Some(400), ..Budgets::default() },
            checkpoint: Some(crate::CheckpointConfig { path: path.clone(), every: 200 }),
            ..EngineConfig::default()
        };
        Engine::builder(program.clone()).config(config).build().unwrap().run();
        let bytes = std::fs::read(&path).expect("the run wrote a checkpoint");
        std::fs::remove_file(&path).ok();
        let ck = decode_checkpoint(&bytes).unwrap();
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
                        crate::shard::import_frontier(&ck.frontier, &mut ExprPool::new(8));
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
        use crate::state::{fresh_frame, LiveState, State, StateId};
        use symmerge_ir::{FuncId, LocalId};
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
        let st = PortableState::export(&pool, &LiveState::fresh(state), 0, 0, 1);
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
