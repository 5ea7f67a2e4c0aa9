//! The hash-consing pool and smart constructors.

use crate::kind::{BoolBinOp, BvBinOp, CmpOp, ExprKind};
use crate::sort::{mask, to_signed, Sort};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

/// A handle to an expression node inside an [`ExprPool`].
///
/// Handles are plain indices: copying is free, equality is structural
/// (thanks to hash-consing) and ordering follows creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The raw index of this node inside its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A handle to an interned symbolic-input name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(u32);

impl SymbolId {
    /// The raw index of this symbol inside its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    kind: ExprKind,
    sort: Sort,
    has_input: bool,
}

/// Number of consing shards in a [`SharedExprPool`]: first-time interns of
/// two distinct kinds contend only when the kinds hash to the same shard.
const CONSING_SHARDS: usize = 16;

const POISONED: &str = "shared expression pool lock poisoned";

#[derive(Debug, Default)]
struct SymbolTable {
    names: Vec<String>,
    ids: HashMap<String, SymbolId>,
}

/// A concurrent, append-only hash-consing table shared by every worker of
/// a work-stealing exploration.
///
/// The shared pool is the allocation authority: it assigns globally stable
/// [`ExprId`]s / [`SymbolId`]s, so expressions built by one worker are
/// directly meaningful to every other worker — states cross threads as
/// plain values, with no serialization and no re-interning. Workers never
/// touch the shared table directly; each owns an [`ExprPool`] handle
/// (see [`SharedExprPool::handle`]) whose private mirror of the node table
/// makes *every read and every consing hit of an already-interned node
/// completely lock-free*. Locks are taken only on the first intern of a
/// node anywhere in the fleet (a sharded write lock) and when a handle
/// catches its mirror up after such a miss.
///
/// Concurrency note: under concurrent interning the *allocation order* of
/// ids depends on thread interleaving. Everything semantic is unaffected —
/// hash-consing still guarantees one node per kind, and the id-order
/// canonicalization of commutative operands picks *an* orientation
/// consistently for all workers within a run (ids are global) — but ids
/// must not be used as cross-run-stable values. Both fleet schedulers —
/// the deterministic BSP rounds and work stealing — intern into one
/// shared pool, so every engine decision that could see interning order
/// goes through id-invariant fingerprints; that is what keeps a BSP run a
/// pure function of its program, configuration and job count.
#[derive(Debug)]
pub struct SharedExprPool {
    shards: Vec<RwLock<HashMap<ExprKind, ExprId>>>,
    nodes: RwLock<Vec<Node>>,
    symbols: RwLock<SymbolTable>,
    default_width: u32,
}

impl SharedExprPool {
    /// Creates a shared pool (see [`ExprPool::new`] for `default_width`).
    /// `true` and `false` are pre-interned as the first two nodes.
    ///
    /// # Panics
    ///
    /// Panics if `default_width` is not in `1..=64`.
    pub fn new(default_width: u32) -> Arc<SharedExprPool> {
        assert!(
            (1..=64).contains(&default_width),
            "default width {default_width} out of range 1..=64"
        );
        let pool = SharedExprPool {
            shards: (0..CONSING_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            nodes: RwLock::new(Vec::new()),
            symbols: RwLock::new(SymbolTable::default()),
            default_width,
        };
        let t = pool.intern(ExprKind::BoolConst(true), Sort::Bool, false);
        let f = pool.intern(ExprKind::BoolConst(false), Sort::Bool, false);
        assert_eq!((t, f), (ExprId(0), ExprId(1)));
        Arc::new(pool)
    }

    /// A new worker handle onto this pool. Handles are cheap; their mirror
    /// lazily catches up with nodes other handles intern.
    pub fn handle(self: &Arc<Self>) -> ExprPool {
        let mut pool = ExprPool {
            nodes: Vec::new(),
            consing: HashMap::new(),
            symbols: Vec::new(),
            symbol_ids: HashMap::new(),
            default_width: self.default_width,
            true_id: ExprId(0),
            false_id: ExprId(1),
            shared: Some(Arc::clone(self)),
        };
        pool.sync();
        pool
    }

    /// The pool's default bitvector width.
    pub fn default_width(&self) -> u32 {
        self.default_width
    }

    /// Total number of nodes interned fleet-wide so far.
    pub fn len(&self) -> usize {
        self.nodes.read().expect(POISONED).len()
    }

    /// Whether the pool contains no nodes (never true in practice: `true`
    /// and `false` are pre-interned).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(kind: &ExprKind) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        kind.hash(&mut h);
        (h.finish() as usize) % CONSING_SHARDS
    }

    /// Interns (or retrieves) a node. All interns of one kind serialize
    /// through that kind's consing shard; the node vector is locked only
    /// for the push itself.
    fn intern(&self, kind: ExprKind, sort: Sort, has_input: bool) -> ExprId {
        let shard = &self.shards[Self::shard_of(&kind)];
        if let Some(&id) = shard.read().expect(POISONED).get(&kind) {
            return id;
        }
        let mut map = shard.write().expect(POISONED);
        if let Some(&id) = map.get(&kind) {
            return id; // lost the race to another first-interner
        }
        let mut nodes = self.nodes.write().expect(POISONED);
        let id = ExprId(u32::try_from(nodes.len()).expect("shared pool overflow"));
        nodes.push(Node { kind, sort, has_input });
        drop(nodes);
        map.insert(kind, id);
        id
    }

    /// Interns (or retrieves) a symbol by name.
    fn intern_symbol(&self, name: &str) -> SymbolId {
        {
            let table = self.symbols.read().expect(POISONED);
            if let Some(&id) = table.ids.get(name) {
                return id;
            }
        }
        let mut table = self.symbols.write().expect(POISONED);
        if let Some(&id) = table.ids.get(name) {
            return id;
        }
        let id = SymbolId(u32::try_from(table.names.len()).expect("symbol overflow"));
        table.names.push(name.to_owned());
        table.ids.insert(name.to_owned(), id);
        id
    }
}

/// The hash-consed expression DAG.
///
/// All expressions live inside a pool; [`ExprId`]s are only meaningful
/// relative to the pool that created them. The pool is append-only, so ids
/// remain valid for the pool's lifetime.
///
/// A pool is either *local* (created by [`ExprPool::new`]: a plain private
/// table, the default everywhere) or a *handle* onto a fleet-wide
/// [`SharedExprPool`] (created by [`SharedExprPool::handle`]). A handle
/// keeps a private mirror of the shared node table so all `&self` reads
/// and repeat interns stay lock-free; it only reaches for the shared
/// table on a first-time intern, and catches the mirror up at explicit
/// [`ExprPool::sync`] points (the work-stealing engine syncs when a
/// stolen state is injected). `&self` accessors on a handle index the
/// mirror, so they panic on an id the handle has never seen — which
/// cannot happen for ids reachable from states synced at injection.
///
/// # Panics
///
/// Constructors panic when given ill-sorted operands (e.g. adding a boolean
/// to a bitvector, or mixing widths). Such calls are programming errors in
/// the caller — the IR layer guarantees well-sortedness for lowered
/// programs.
#[derive(Debug)]
pub struct ExprPool {
    nodes: Vec<Node>,
    consing: HashMap<ExprKind, ExprId>,
    symbols: Vec<String>,
    symbol_ids: HashMap<String, SymbolId>,
    default_width: u32,
    true_id: ExprId,
    false_id: ExprId,
    shared: Option<Arc<SharedExprPool>>,
}

impl ExprPool {
    /// Creates a pool whose "default" bitvector width is `default_width`
    /// (used by convenience constructors such as [`ExprPool::int`]).
    ///
    /// # Panics
    ///
    /// Panics if `default_width` is not in `1..=64`.
    pub fn new(default_width: u32) -> Self {
        assert!(
            (1..=64).contains(&default_width),
            "default width {default_width} out of range 1..=64"
        );
        let mut pool = ExprPool {
            nodes: Vec::new(),
            consing: HashMap::new(),
            symbols: Vec::new(),
            symbol_ids: HashMap::new(),
            default_width,
            true_id: ExprId(0),
            false_id: ExprId(0),
            shared: None,
        };
        pool.true_id = pool.intern(ExprKind::BoolConst(true), Sort::Bool, false);
        pool.false_id = pool.intern(ExprKind::BoolConst(false), Sort::Bool, false);
        pool
    }

    /// The shared pool this handle mirrors, if any.
    pub fn shared_pool(&self) -> Option<&Arc<SharedExprPool>> {
        self.shared.as_ref()
    }

    /// Whether this pool is a handle onto a [`SharedExprPool`].
    pub fn is_shared(&self) -> bool {
        self.shared.is_some()
    }

    /// Catches the private mirror up with everything interned fleet-wide.
    /// No-op on a local pool. The work-stealing engine calls this before
    /// integrating stolen states, which makes every id reachable from
    /// them resolvable through `&self` accessors.
    pub fn sync(&mut self) {
        let Some(shared) = self.shared.clone() else { return };
        {
            let nodes = shared.nodes.read().expect(POISONED);
            for i in self.nodes.len()..nodes.len() {
                let node = nodes[i];
                self.consing.insert(node.kind, ExprId(i as u32));
                self.nodes.push(node);
            }
        }
        let table = shared.symbols.read().expect(POISONED);
        for i in self.symbols.len()..table.names.len() {
            let name = table.names[i].clone();
            self.symbol_ids.insert(name.clone(), SymbolId(i as u32));
            self.symbols.push(name);
        }
    }

    /// The pool's default bitvector width.
    pub fn default_width(&self) -> u32 {
        self.default_width
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool contains no nodes (never true in practice: `true`
    /// and `false` are pre-interned).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of distinct input symbols interned so far.
    pub fn num_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// The name backing an interned symbol.
    pub fn symbol_name(&self, sym: SymbolId) -> &str {
        &self.symbols[sym.index()]
    }

    /// Interns (or retrieves) a symbol by name.
    pub fn intern_symbol(&mut self, name: &str) -> SymbolId {
        if let Some(&id) = self.symbol_ids.get(name) {
            return id;
        }
        if let Some(shared) = &self.shared {
            let id = Arc::clone(shared).intern_symbol(name);
            self.sync();
            return id;
        }
        let id = SymbolId(self.symbols.len() as u32);
        self.symbols.push(name.to_owned());
        self.symbol_ids.insert(name.to_owned(), id);
        id
    }

    fn intern(&mut self, kind: ExprKind, sort: Sort, has_input: bool) -> ExprId {
        if let Some(&id) = self.consing.get(&kind) {
            return id;
        }
        if let Some(shared) = &self.shared {
            // First miss in the mirror: intern through the shared table
            // (which may find another worker already made the node), then
            // catch the mirror up — we are paying for a lock round-trip
            // anyway, and catching up turns other workers' nodes into
            // future lock-free consing hits.
            let id = Arc::clone(shared).intern(kind, sort, has_input);
            self.sync();
            return id;
        }
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, sort, has_input });
        self.consing.insert(kind, id);
        id
    }

    // ----- accessors --------------------------------------------------

    /// The kind of a node.
    pub fn kind(&self, id: ExprId) -> ExprKind {
        self.nodes[id.index()].kind
    }

    /// The sort of a node.
    pub fn sort(&self, id: ExprId) -> Sort {
        self.nodes[id.index()].sort
    }

    /// The bitvector width of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is boolean-sorted.
    pub fn width(&self, id: ExprId) -> u32 {
        self.sort(id).bv_width().expect("width() on a boolean expression")
    }

    /// The paper's `I ⊳ e` test: whether `e` transitively references any
    /// symbolic input. O(1) — the flag is computed at construction time.
    pub fn depends_on_input(&self, id: ExprId) -> bool {
        self.nodes[id.index()].has_input
    }

    /// Returns the constant value if the node is a bitvector constant.
    pub fn as_bv_const(&self, id: ExprId) -> Option<u64> {
        match self.kind(id) {
            ExprKind::BvConst { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Returns the constant value if the node is a boolean constant.
    pub fn as_bool_const(&self, id: ExprId) -> Option<bool> {
        match self.kind(id) {
            ExprKind::BoolConst(b) => Some(b),
            _ => None,
        }
    }

    /// Whether `id` is the boolean constant `true`.
    pub fn is_true(&self, id: ExprId) -> bool {
        id == self.true_id
    }

    /// Whether `id` is the boolean constant `false`.
    pub fn is_false(&self, id: ExprId) -> bool {
        id == self.false_id
    }

    /// A stable 64-bit token used by dynamic state merging fingerprints
    /// (§4.3 of the paper): `h(v) = ite(I ⊳ v, ⋆, v)`.
    ///
    /// Input-dependent expressions map to the unique symbolic marker `⋆`
    /// (all-ones), while concrete expressions (which the smart constructors
    /// always fold to constants) map to a hash of their value.
    pub fn fingerprint_token(&self, id: ExprId) -> u64 {
        if self.depends_on_input(id) {
            return u64::MAX; // the `⋆` marker
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        match self.kind(id) {
            ExprKind::BvConst { value, width } => {
                (0u8, value, width).hash(&mut h);
            }
            ExprKind::BoolConst(b) => (1u8, b).hash(&mut h),
            // Unreachable in practice: constant folding collapses any
            // input-free expression to a constant node.
            other => {
                (2u8, format!("{other:?}")).hash(&mut h);
            }
        }
        // Avoid colliding with the symbolic marker.
        h.finish() & !(1u64 << 63)
    }

    // ----- leaf constructors -------------------------------------------

    /// The boolean constant `true`.
    pub fn true_(&self) -> ExprId {
        self.true_id
    }

    /// The boolean constant `false`.
    pub fn false_(&self) -> ExprId {
        self.false_id
    }

    /// A boolean constant.
    pub fn bool_const(&self, b: bool) -> ExprId {
        if b {
            self.true_id
        } else {
            self.false_id
        }
    }

    /// A bitvector constant of the given width (value is masked).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=64`.
    pub fn bv_const(&mut self, value: u64, width: u32) -> ExprId {
        assert!((1..=64).contains(&width), "width {width} out of range");
        let value = mask(value, width);
        self.intern(ExprKind::BvConst { value, width }, Sort::Bv(width), false)
    }

    /// A bitvector constant from a signed value (two's complement, masked).
    pub fn bv_const_i64(&mut self, value: i64, width: u32) -> ExprId {
        self.bv_const(value as u64, width)
    }

    /// A bitvector constant of the pool's default width.
    pub fn int(&mut self, value: i64) -> ExprId {
        self.bv_const_i64(value, self.default_width)
    }

    /// A symbolic input of the given width. Inputs are identified by name:
    /// the same `(name, width)` pair always yields the same node.
    pub fn input(&mut self, name: &str, width: u32) -> ExprId {
        assert!((1..=64).contains(&width), "width {width} out of range");
        let sym = self.intern_symbol(name);
        self.intern(ExprKind::Input { sym, width }, Sort::Bv(width), true)
    }

    /// A symbolic input node for an already-interned symbol.
    pub fn input_for(&mut self, sym: SymbolId, width: u32) -> ExprId {
        assert!((1..=64).contains(&width), "width {width} out of range");
        self.intern(ExprKind::Input { sym, width }, Sort::Bv(width), true)
    }

    // ----- bitvector operations ----------------------------------------

    fn bv_check(&self, op: BvBinOp, lhs: ExprId, rhs: ExprId) -> u32 {
        let (lw, rw) = (self.sort(lhs), self.sort(rhs));
        match (lw.bv_width(), rw.bv_width()) {
            (Some(a), Some(b)) if a == b => a,
            _ => panic!("ill-sorted {op}: {lw} vs {rw}"),
        }
    }

    /// Builds `op(lhs, rhs)` with constant folding and local rewrites.
    pub fn bv(&mut self, op: BvBinOp, mut lhs: ExprId, mut rhs: ExprId) -> ExprId {
        let width = self.bv_check(op, lhs, rhs);
        let (lc, rc) = (self.as_bv_const(lhs), self.as_bv_const(rhs));
        if let (Some(a), Some(b)) = (lc, rc) {
            let v = eval_bv_binop(op, a, b, width);
            return self.bv_const(v, width);
        }
        // Canonicalize commutative operands: constants to the right,
        // otherwise order by id for better consing.
        if op.is_commutative() && (lc.is_some() || (rc.is_none() && rhs < lhs)) {
            std::mem::swap(&mut lhs, &mut rhs);
        }
        let rc = self.as_bv_const(rhs);
        let all_ones = mask(u64::MAX, width);
        match (op, rc) {
            (BvBinOp::Add | BvBinOp::Sub | BvBinOp::Or | BvBinOp::Xor, Some(0)) => return lhs,
            (BvBinOp::Shl | BvBinOp::LShr | BvBinOp::AShr, Some(0)) => return lhs,
            (BvBinOp::Shl | BvBinOp::LShr, Some(s)) if s >= u64::from(width) => {
                return self.bv_const(0, width)
            }
            (BvBinOp::Mul, Some(0)) | (BvBinOp::And, Some(0)) => return self.bv_const(0, width),
            (BvBinOp::Mul | BvBinOp::UDiv, Some(1)) => return lhs,
            (BvBinOp::URem, Some(1)) => return self.bv_const(0, width),
            (BvBinOp::And, Some(c)) if c == all_ones => return lhs,
            (BvBinOp::Or, Some(c)) if c == all_ones => return self.bv_const(all_ones, width),
            _ => {}
        }
        if lhs == rhs {
            match op {
                BvBinOp::Sub | BvBinOp::Xor => return self.bv_const(0, width),
                BvBinOp::And | BvBinOp::Or => return lhs,
                _ => {}
            }
        }
        let has_input = self.depends_on_input(lhs) || self.depends_on_input(rhs);
        self.intern(ExprKind::Bv { op, lhs, rhs }, Sort::Bv(width), has_input)
    }

    /// `lhs + rhs` (wrapping).
    pub fn add(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.bv(BvBinOp::Add, lhs, rhs)
    }

    /// `lhs - rhs` (wrapping).
    pub fn sub(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.bv(BvBinOp::Sub, lhs, rhs)
    }

    /// `lhs * rhs` (wrapping).
    pub fn mul(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.bv(BvBinOp::Mul, lhs, rhs)
    }

    // ----- comparisons --------------------------------------------------

    /// Builds `op(lhs, rhs)` with constant folding and `ite`-vs-constant
    /// collapsing.
    pub fn cmp(&mut self, op: CmpOp, mut lhs: ExprId, mut rhs: ExprId) -> ExprId {
        let lw = self.sort(lhs);
        let rw = self.sort(rhs);
        assert_eq!(lw, rw, "ill-sorted comparison {op}: {lw} vs {rw}");
        let width = lw.bv_width().expect("comparison over booleans");
        if let (Some(a), Some(b)) = (self.as_bv_const(lhs), self.as_bv_const(rhs)) {
            return self.bool_const(eval_cmp(op, a, b, width));
        }
        if lhs == rhs {
            return self.bool_const(matches!(op, CmpOp::Eq | CmpOp::Ule | CmpOp::Sle));
        }
        // cmp(ite(c, k1, k2), k) collapses when k1, k2, k are all constants.
        if let Some(r) = self.collapse_cmp_ite(op, lhs, rhs, false) {
            return r;
        }
        if let Some(r) = self.collapse_cmp_ite(op, rhs, lhs, true) {
            return r;
        }
        if op == CmpOp::Eq
            && (self.as_bv_const(lhs).is_some() || (self.as_bv_const(rhs).is_none() && rhs < lhs))
        {
            std::mem::swap(&mut lhs, &mut rhs);
        }
        let has_input = self.depends_on_input(lhs) || self.depends_on_input(rhs);
        self.intern(ExprKind::Cmp { op, lhs, rhs }, Sort::Bool, has_input)
    }

    /// Collapses `cmp(ite(c, k1, k2), k)` (or the swapped form) when all of
    /// `k1, k2, k` are constants, yielding `true`, `false`, `c` or `¬c`.
    fn collapse_cmp_ite(
        &mut self,
        op: CmpOp,
        ite_side: ExprId,
        const_side: ExprId,
        swapped: bool,
    ) -> Option<ExprId> {
        let k = self.as_bv_const(const_side)?;
        let ExprKind::Ite { cond, then, els } = self.kind(ite_side) else {
            return None;
        };
        let k1 = self.as_bv_const(then)?;
        let k2 = self.as_bv_const(els)?;
        let width = self.width(ite_side);
        let (then_res, els_res) = if swapped {
            (eval_cmp(op, k, k1, width), eval_cmp(op, k, k2, width))
        } else {
            (eval_cmp(op, k1, k, width), eval_cmp(op, k2, k, width))
        };
        Some(match (then_res, els_res) {
            (true, true) => self.true_(),
            (false, false) => self.false_(),
            (true, false) => cond,
            (false, true) => self.not(cond),
        })
    }

    /// `lhs == rhs`.
    pub fn eq(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        if self.sort(lhs) == Sort::Bool {
            // Boolean equality: rewrite as xnor.
            assert_eq!(self.sort(rhs), Sort::Bool, "ill-sorted boolean equality");
            let x = self.bool_op(BoolBinOp::Xor, lhs, rhs);
            return self.not(x);
        }
        self.cmp(CmpOp::Eq, lhs, rhs)
    }

    /// `lhs != rhs`.
    pub fn ne(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        let e = self.eq(lhs, rhs);
        self.not(e)
    }

    /// Unsigned `lhs < rhs`.
    pub fn ult(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.cmp(CmpOp::Ult, lhs, rhs)
    }

    /// Unsigned `lhs <= rhs`.
    pub fn ule(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.cmp(CmpOp::Ule, lhs, rhs)
    }

    /// Unsigned `lhs > rhs`.
    pub fn ugt(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.cmp(CmpOp::Ult, rhs, lhs)
    }

    /// Unsigned `lhs >= rhs`.
    pub fn uge(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.cmp(CmpOp::Ule, rhs, lhs)
    }

    /// Signed `lhs < rhs`.
    pub fn slt(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.cmp(CmpOp::Slt, lhs, rhs)
    }

    /// Signed `lhs <= rhs`.
    pub fn sle(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.cmp(CmpOp::Sle, lhs, rhs)
    }

    /// Signed `lhs > rhs`.
    pub fn sgt(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.cmp(CmpOp::Slt, rhs, lhs)
    }

    /// Signed `lhs >= rhs`.
    pub fn sge(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.cmp(CmpOp::Sle, rhs, lhs)
    }

    // ----- boolean structure ---------------------------------------------

    /// Boolean negation, canonicalizing `¬(a < b)` to `b <= a` (and dually)
    /// so path-condition suffixes stay negation-light.
    pub fn not(&mut self, e: ExprId) -> ExprId {
        assert!(self.sort(e).is_bool(), "not() on a bitvector");
        match self.kind(e) {
            ExprKind::BoolConst(b) => self.bool_const(!b),
            ExprKind::Not(inner) => inner,
            ExprKind::Cmp { op: CmpOp::Ult, lhs, rhs } => self.cmp(CmpOp::Ule, rhs, lhs),
            ExprKind::Cmp { op: CmpOp::Ule, lhs, rhs } => self.cmp(CmpOp::Ult, rhs, lhs),
            ExprKind::Cmp { op: CmpOp::Slt, lhs, rhs } => self.cmp(CmpOp::Sle, rhs, lhs),
            ExprKind::Cmp { op: CmpOp::Sle, lhs, rhs } => self.cmp(CmpOp::Slt, rhs, lhs),
            _ => {
                let has_input = self.depends_on_input(e);
                self.intern(ExprKind::Not(e), Sort::Bool, has_input)
            }
        }
    }

    /// Builds `op(lhs, rhs)` over booleans with local rewrites.
    pub fn bool_op(&mut self, op: BoolBinOp, mut lhs: ExprId, mut rhs: ExprId) -> ExprId {
        assert!(
            self.sort(lhs).is_bool() && self.sort(rhs).is_bool(),
            "ill-sorted boolean connective {op}"
        );
        // Canonical operand order (all boolean connectives commute).
        if rhs < lhs {
            std::mem::swap(&mut lhs, &mut rhs);
        }
        let (lc, rc) = (self.as_bool_const(lhs), self.as_bool_const(rhs));
        if let (Some(a), Some(b)) = (lc, rc) {
            return self.bool_const(match op {
                BoolBinOp::And => a && b,
                BoolBinOp::Or => a || b,
                BoolBinOp::Xor => a ^ b,
            });
        }
        for (c, other) in [(lc, rhs), (rc, lhs)] {
            if let Some(c) = c {
                match (op, c) {
                    (BoolBinOp::And, true) | (BoolBinOp::Or, false) | (BoolBinOp::Xor, false) => {
                        return other
                    }
                    (BoolBinOp::And, false) => return self.false_(),
                    (BoolBinOp::Or, true) => return self.true_(),
                    (BoolBinOp::Xor, true) => return self.not(other),
                }
            }
        }
        if lhs == rhs {
            return match op {
                BoolBinOp::And | BoolBinOp::Or => lhs,
                BoolBinOp::Xor => self.false_(),
            };
        }
        // x ∧ ¬x = ⊥ and x ∨ ¬x = ⊤ (and x ⊕ ¬x = ⊤).
        let complementary = matches!(self.kind(lhs), ExprKind::Not(i) if i == rhs)
            || matches!(self.kind(rhs), ExprKind::Not(i) if i == lhs);
        if complementary {
            return match op {
                BoolBinOp::And => self.false_(),
                BoolBinOp::Or | BoolBinOp::Xor => self.true_(),
            };
        }
        let has_input = self.depends_on_input(lhs) || self.depends_on_input(rhs);
        self.intern(ExprKind::Bool { op, lhs, rhs }, Sort::Bool, has_input)
    }

    /// `lhs ∧ rhs`.
    pub fn and(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.bool_op(BoolBinOp::And, lhs, rhs)
    }

    /// `lhs ∨ rhs`.
    pub fn or(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.bool_op(BoolBinOp::Or, lhs, rhs)
    }

    /// `lhs ⊕ rhs`.
    pub fn xor(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.bool_op(BoolBinOp::Xor, lhs, rhs)
    }

    /// `lhs → rhs`, i.e. `¬lhs ∨ rhs`.
    pub fn implies(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        let nl = self.not(lhs);
        self.or(nl, rhs)
    }

    /// Conjunction of many operands (balanced tree; empty slice = `true`).
    pub fn and_many(&mut self, terms: &[ExprId]) -> ExprId {
        self.fold_balanced(terms, BoolBinOp::And, true)
    }

    /// Disjunction of many operands (balanced tree; empty slice = `false`).
    pub fn or_many(&mut self, terms: &[ExprId]) -> ExprId {
        self.fold_balanced(terms, BoolBinOp::Or, false)
    }

    fn fold_balanced(&mut self, terms: &[ExprId], op: BoolBinOp, unit: bool) -> ExprId {
        match terms.len() {
            0 => self.bool_const(unit),
            1 => terms[0],
            n => {
                let (a, b) = terms.split_at(n / 2);
                let l = self.fold_balanced(a, op, unit);
                let r = self.fold_balanced(b, op, unit);
                self.bool_op(op, l, r)
            }
        }
    }

    // ----- if-then-else ---------------------------------------------------

    /// `ite(cond, then, els)`; `then` and `els` must share a sort.
    ///
    /// This is the operator that state merging introduces (§1, §2.1 of the
    /// paper): the merged store maps `v` to
    /// `ite(pc₁, s₁[v], s₂[v])`. The constructor simplifies
    /// `ite(c, x, x) → x`, folds constant conditions, collapses
    /// boolean-sorted `ite` into connectives, and hoists negated conditions.
    pub fn ite(&mut self, cond: ExprId, then: ExprId, els: ExprId) -> ExprId {
        assert!(self.sort(cond).is_bool(), "ite condition must be boolean");
        let sort = self.sort(then);
        assert_eq!(sort, self.sort(els), "ite branches must share a sort");
        if let Some(c) = self.as_bool_const(cond) {
            return if c { then } else { els };
        }
        if then == els {
            return then;
        }
        if let ExprKind::Not(inner) = self.kind(cond) {
            return self.ite(inner, els, then);
        }
        if sort.is_bool() {
            // Collapse boolean ite into connectives for better sharing.
            return match (self.as_bool_const(then), self.as_bool_const(els)) {
                (Some(true), Some(false)) => cond,
                (Some(false), Some(true)) => self.not(cond),
                (Some(true), None) => self.or(cond, els),
                (Some(false), None) => {
                    let nc = self.not(cond);
                    self.and(nc, els)
                }
                (None, Some(true)) => {
                    let nc = self.not(cond);
                    self.or(nc, then)
                }
                (None, Some(false)) => self.and(cond, then),
                _ => {
                    let a = self.and(cond, then);
                    let nc = self.not(cond);
                    let b = self.and(nc, els);
                    self.or(a, b)
                }
            };
        }
        // Collapse nested ite sharing the same condition.
        let then = match self.kind(then) {
            ExprKind::Ite { cond: c2, then: t2, .. } if c2 == cond => t2,
            _ => then,
        };
        let els = match self.kind(els) {
            ExprKind::Ite { cond: c2, els: e2, .. } if c2 == cond => e2,
            _ => els,
        };
        if then == els {
            return then;
        }
        let has_input = self.depends_on_input(cond)
            || self.depends_on_input(then)
            || self.depends_on_input(els);
        self.intern(ExprKind::Ite { cond, then, els }, sort, has_input)
    }
}

/// Concrete semantics of a [`BvBinOp`] on `width`-bit values
/// (operands and result masked). Shared by the evaluator, the smart
/// constructors, the concrete interpreter in `symmerge-ir` and (as a test
/// oracle) the bit-blaster.
pub fn eval_bv_binop(op: BvBinOp, a: u64, b: u64, width: u32) -> u64 {
    let m = |v| mask(v, width);
    match op {
        BvBinOp::Add => m(a.wrapping_add(b)),
        BvBinOp::Sub => m(a.wrapping_sub(b)),
        BvBinOp::Mul => m(a.wrapping_mul(b)),
        BvBinOp::UDiv => match a.checked_div(b) {
            Some(q) => m(q),
            None => mask(u64::MAX, width),
        },
        BvBinOp::URem => {
            if b == 0 {
                a
            } else {
                m(a % b)
            }
        }
        BvBinOp::SDiv => {
            let (sa, sb) = (to_signed(a, width), to_signed(b, width));
            if sb == 0 {
                if sa < 0 {
                    m(1)
                } else {
                    mask(u64::MAX, width)
                }
            } else {
                m(sa.wrapping_div(sb) as u64)
            }
        }
        BvBinOp::SRem => {
            let (sa, sb) = (to_signed(a, width), to_signed(b, width));
            if sb == 0 {
                a
            } else {
                m(sa.wrapping_rem(sb) as u64)
            }
        }
        BvBinOp::And => a & b,
        BvBinOp::Or => a | b,
        BvBinOp::Xor => a ^ b,
        BvBinOp::Shl => {
            if b >= u64::from(width) {
                0
            } else {
                m(a << b)
            }
        }
        BvBinOp::LShr => {
            if b >= u64::from(width) {
                0
            } else {
                a >> b
            }
        }
        BvBinOp::AShr => {
            let sa = to_signed(a, width);
            let sh = b.min(u64::from(width - 1) + 1);
            if sh >= u64::from(width) {
                m(if sa < 0 { u64::MAX } else { 0 })
            } else {
                m((sa >> sh) as u64)
            }
        }
    }
}

/// Concrete semantics of a [`CmpOp`] on `width`-bit values.
pub fn eval_cmp(op: CmpOp, a: u64, b: u64, width: u32) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ult => a < b,
        CmpOp::Ule => a <= b,
        CmpOp::Slt => to_signed(a, width) < to_signed(b, width),
        CmpOp::Sle => to_signed(a, width) <= to_signed(b, width),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ExprPool {
        ExprPool::new(32)
    }

    #[test]
    fn hash_consing_dedups() {
        let mut p = pool();
        let a = p.input("a", 32);
        let b = p.input("b", 32);
        let e1 = p.add(a, b);
        let e2 = p.add(a, b);
        assert_eq!(e1, e2);
        // Commutative canonicalization: b + a is the same node.
        let e3 = p.add(b, a);
        assert_eq!(e1, e3);
    }

    #[test]
    fn constant_folding() {
        let mut p = pool();
        let a = p.bv_const(7, 32);
        let b = p.bv_const(5, 32);
        let e = p.mul(a, b);
        assert_eq!(p.as_bv_const(e), Some(35));
        let lt = p.ult(a, b);
        assert!(p.is_false(lt));
    }

    #[test]
    fn identities() {
        let mut p = pool();
        let x = p.input("x", 32);
        let zero = p.bv_const(0, 32);
        let one = p.bv_const(1, 32);
        assert_eq!(p.add(x, zero), x);
        assert_eq!(p.add(zero, x), x);
        assert_eq!(p.sub(x, zero), x);
        assert_eq!(p.mul(x, one), x);
        let mz = p.mul(x, zero);
        assert_eq!(p.as_bv_const(mz), Some(0));
        let sx = p.sub(x, x);
        assert_eq!(p.as_bv_const(sx), Some(0));
        let udiv1 = p.bv(BvBinOp::UDiv, x, one);
        assert_eq!(udiv1, x);
    }

    #[test]
    fn input_dependence_flag() {
        let mut p = pool();
        let x = p.input("x", 32);
        let c = p.bv_const(3, 32);
        let e = p.add(x, c);
        assert!(p.depends_on_input(e));
        let f = p.add(c, c);
        assert!(!p.depends_on_input(f));
    }

    #[test]
    fn eq_same_operand_folds() {
        let mut p = pool();
        let x = p.input("x", 32);
        let e = p.eq(x, x);
        assert!(p.is_true(e));
        let lt = p.ult(x, x);
        assert!(p.is_false(lt));
        let le = p.ule(x, x);
        assert!(p.is_true(le));
    }

    #[test]
    fn not_canonicalizes_comparisons() {
        let mut p = pool();
        let x = p.input("x", 32);
        let y = p.input("y", 32);
        let lt = p.ult(x, y);
        let n = p.not(lt);
        // ¬(x < y) = y <= x
        assert!(
            matches!(p.kind(n), ExprKind::Cmp { op: CmpOp::Ule, lhs, rhs } if lhs == y && rhs == x)
        );
        assert_eq!(p.not(n), lt);
    }

    #[test]
    fn double_negation() {
        let mut p = pool();
        let x = p.input("x", 32);
        let zero = p.bv_const(0, 32);
        let e = p.eq(x, zero);
        let ne = p.not(e);
        assert_eq!(p.not(ne), e);
    }

    #[test]
    fn bool_identities() {
        let mut p = pool();
        let x = p.input("x", 32);
        let zero = p.bv_const(0, 32);
        let c = p.eq(x, zero);
        let t = p.true_();
        let f = p.false_();
        assert_eq!(p.and(t, c), c);
        let fc = p.and(f, c);
        assert!(p.is_false(fc));
        assert_eq!(p.or(f, c), c);
        let tc = p.or(t, c);
        assert!(p.is_true(tc));
        assert_eq!(p.and(c, c), c);
        let nc = p.not(c);
        let cn = p.and(c, nc);
        assert!(p.is_false(cn));
        let co = p.or(c, nc);
        assert!(p.is_true(co));
    }

    #[test]
    fn ite_simplifications() {
        let mut p = pool();
        let x = p.input("x", 32);
        let y = p.input("y", 32);
        let zero = p.bv_const(0, 32);
        let c = p.eq(x, zero);
        // ite(c, y, y) = y
        assert_eq!(p.ite(c, y, y), y);
        // ite(true, a, b) = a
        let t = p.true_();
        assert_eq!(p.ite(t, x, y), x);
        // bool ite(c, true, false) = c
        let f = p.false_();
        assert_eq!(p.ite(c, t, f), c);
        // ite(¬c, a, b) = ite(c, b, a)
        let nc = p.not(c);
        let i1 = p.ite(nc, x, y);
        let i2 = p.ite(c, y, x);
        assert_eq!(i1, i2);
    }

    #[test]
    fn cmp_ite_collapse_matches_paper_example() {
        // The paper's §3.1: merged arg = ite(C, 2, 1); a branch
        // `arg < argc` with concrete argc folds to a constant or to C.
        let mut p = pool();
        let x = p.input("c_src", 32);
        let zero = p.bv_const(0, 32);
        let c = p.eq(x, zero);
        let two = p.bv_const(2, 32);
        let one = p.bv_const(1, 32);
        let arg = p.ite(c, two, one);
        // arg < 8 : both branches satisfy → true
        let eight = p.bv_const(8, 32);
        let lt8 = p.ult(arg, eight);
        assert!(p.is_true(lt8));
        // arg < 2 : true iff ¬C
        let lt2 = p.ult(arg, two);
        assert_eq!(lt2, p.not(c));
        // arg < 1 : never
        let lt1 = p.ult(arg, one);
        assert!(p.is_false(lt1));
        // 1 < arg (swapped side): true iff C
        assert_eq!(p.ult(one, arg), c);
    }

    #[test]
    fn nested_ite_same_condition_collapses() {
        let mut p = pool();
        let x = p.input("x", 32);
        let zero = p.bv_const(0, 32);
        let c = p.eq(x, zero);
        let a = p.input("a", 32);
        let b = p.input("b", 32);
        let inner = p.ite(c, a, b);
        let outer = p.ite(c, inner, b); // ite(c, ite(c,a,b), b) = ite(c,a,b)
        assert_eq!(outer, inner);
    }

    #[test]
    fn fingerprint_tokens() {
        let mut p = pool();
        let x = p.input("x", 32);
        let k1 = p.bv_const(4, 32);
        let k2 = p.bv_const(5, 32);
        assert_eq!(p.fingerprint_token(x), u64::MAX);
        assert_ne!(p.fingerprint_token(k1), p.fingerprint_token(k2));
        assert_ne!(p.fingerprint_token(k1), u64::MAX);
        let e = p.add(x, k1);
        assert_eq!(p.fingerprint_token(e), u64::MAX);
    }

    #[test]
    fn division_total_semantics() {
        assert_eq!(eval_bv_binop(BvBinOp::UDiv, 7, 0, 8), 0xff);
        assert_eq!(eval_bv_binop(BvBinOp::URem, 7, 0, 8), 7);
        // sdiv(-8, 0) = 1 ; sdiv(8, 0) = -1
        assert_eq!(eval_bv_binop(BvBinOp::SDiv, mask((-8i64) as u64, 8), 0, 8), 1);
        assert_eq!(eval_bv_binop(BvBinOp::SDiv, 8, 0, 8), 0xff);
        // INT_MIN / -1 wraps
        assert_eq!(eval_bv_binop(BvBinOp::SDiv, 0x80, 0xff, 8), 0x80);
    }

    #[test]
    fn shifts_saturate() {
        assert_eq!(eval_bv_binop(BvBinOp::Shl, 1, 8, 8), 0);
        assert_eq!(eval_bv_binop(BvBinOp::LShr, 0x80, 9, 8), 0);
        assert_eq!(eval_bv_binop(BvBinOp::AShr, 0x80, 9, 8), 0xff);
        assert_eq!(eval_bv_binop(BvBinOp::AShr, 0x40, 9, 8), 0);
        assert_eq!(eval_bv_binop(BvBinOp::AShr, 0x80, 3, 8), 0xf0);
    }

    #[test]
    #[should_panic(expected = "ill-sorted")]
    fn width_mismatch_panics() {
        let mut p = pool();
        let a = p.input("a", 32);
        let b = p.input("b", 8);
        let _ = p.add(a, b);
    }

    #[test]
    fn and_many_or_many() {
        let mut p = pool();
        let x = p.input("x", 32);
        let zero = p.bv_const(0, 32);
        let one = p.bv_const(1, 32);
        let two = p.bv_const(2, 32);
        let c1 = p.eq(x, zero);
        let c2 = p.eq(x, one);
        let c3 = p.eq(x, two);
        let am = p.and_many(&[]);
        assert!(p.is_true(am));
        let om = p.or_many(&[]);
        assert!(p.is_false(om));
        assert_eq!(p.and_many(&[c1]), c1);
        let all = p.and_many(&[c1, c2, c3]);
        assert!(p.depends_on_input(all));
        // and(true...) folds away
        let t = p.true_();
        assert_eq!(p.and_many(&[t, c2, t]), c2);
    }
}
