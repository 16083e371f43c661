//! The hash-consed lineage arena: a segmented, reclaimable forest of
//! interned Boolean formula nodes.
//!
//! Every lineage formula lives in a [`LineageArena`]: a node
//! (`Var`/`Not`/`And`/`Or`) is *hash-consed* — structurally identical nodes
//! are stored exactly once — and addressed by a [`LineageRef`] encoding
//! `(segment, slot)`. This gives the properties the paper's complexity
//! argument needs on every hot path:
//!
//! * **cloning is `Copy`** — a window or output tuple carrying a lineage
//!   copies eight bytes, no refcount traffic;
//! * **structural equality is an integer compare** — the change-preservation
//!   check of the LAWA window advancer (Def. 2) and relation coalescing are
//!   O(1) per comparison, independent of formula size;
//! * **per-node metadata is computed once** — size, variable occurrences,
//!   the one-occurrence-form (1OF) flag and (for small formulas) the exact
//!   sorted variable set are produced at intern time from the children's
//!   metadata and memoized for the life of the segment.
//!
//! ## Segments and reclamation
//!
//! Node storage is split into **epoch-aligned segments** with explicit
//! lifetimes. At any time exactly one segment is *open*; interning claims a
//! slot in it with an atomic bump and publishes the node with one release
//! store (see "Node slots" below). [`LineageArena::seal`]
//! closes the open segment and opens the next one. A segment's slots live
//! in chunks that double from 256 slots up to a flat size and then stay
//! flat, so a large segment over-allocates at most one chunk.
//! [`LineageArena::retire`] reclaims a sealed segment's storage once the
//! caller — in practice a reclaiming streaming engine — has proven
//! that no live window references it.
//! Segment ids are never reused, so a stale ref can always be *detected*:
//! any access to a retired segment panics ("use-after-retire"), and a memo
//! table keyed by dead refs holds unreachable garbage, never wrong answers.
//!
//! Reclamation is memory-safe even against a mis-behaving caller: chunk
//! storage is `Arc`-shared with in-flight [`ArenaView`]s, views **pin**
//! segments at segment granularity ([`LineageArena::pin`]), and
//! [`LineageArena::retire`] refuses pinned segments. The retire *contract*
//! (no live refs) is therefore about avoiding panics on later access, not
//! about memory safety.
//!
//! Per-node `min_segment` metadata records the smallest segment reachable
//! from a node's sub-DAG in O(1) at intern time; because children are
//! always interned no later than their parents, a live ref `r` can only
//! reach segments in `[min_segment(r), segment(r)]`. The streaming engine
//! uses this to compute a conservative live frontier and retire every
//! sealed segment below it.
//!
//! ## Node slots
//!
//! A node slot is six `AtomicU64` words, 48 bytes: the two operands, the
//! variable range, `size` and `occurrences`, and a last word holding
//! `min_segment`, `kind + 1` (0 while unpublished), the 1OF flag and the
//! index + 1 of the node's variable list in its chunk's list store. The
//! writer stores the first five words Relaxed and the last one Release; a
//! reader loads the last word Acquire and reads the others only if it is
//! published. A slot is written once and never changes afterwards.
//! Snapshot walks ([`LineageArena::snapshot_segment`]) see an unpublished
//! slot as `None`; [`ArenaView`] re-reads its chunk list for one.
//!
//! ## Dedup stripes
//!
//! Hash-consing needs one global node → ref table. It is split into
//! [`MAX_SHARDS`] stripes selected by node hash bits 52..56; each stripe
//! is a mutex over an open-addressing table of 12-byte slots holding only
//! the ref and 32 further hash bits (`h32`). The node shape is not copied
//! into the table: a probe whose `h32` matches reads the candidate node
//! from the node store, through a lookup that answers "absent" for a
//! retired segment instead of panicking. An intern, hit or miss, takes
//! its stripe's lock **once** and does everything under it: probe, child
//! metadata, slot claim, publication and table insert. Node *reads* never
//! touch the stripes at all. A dedup entry whose target segment was
//! retired is skipped, never returned, so ref-equality keeps meaning
//! structural equality among *live* handles. Dead entries are dropped in
//! place, from the stored `h32`s and without re-reading a node, by a sweep
//! of one stripe per retire (round-robin) and before a table grows.
//!
//! ## Lock order
//!
//! Stripe → chunk-list read guards, in ascending segment id → a chunk's
//! list store. The probe compares a tag-matching candidate under a read
//! guard on its segment alone, so a hit takes one guard and a miss
//! without a tag match none. A miss then holds read guards on its
//! children's segments for the child metadata and, when the open
//! segment is one of them, the publication; a guard on a higher segment
//! may be added, never one on a lower. A list is read by locking its
//! store, cloning the `Arc` and unlocking; no lock is held while a
//! caller's closure runs. No chunk guard is held while taking the
//! lifecycle lock (a capacity roll) or a chunk-list write lock (chunk
//! allocation, retirement); those drop every guard first.
//!
//! ## Memoization invariants
//!
//! 1. A `LineageRef` is never reused: segment ids are monotone and slots
//!    are append-only within a segment. Two *live* formulas are
//!    structurally equal **iff** their refs are equal.
//! 2. Node metadata is immutable once interned. Every node stores its
//!    `[var_lo, var_hi]` range. The exact sorted variable set is known
//!    only while `occurrences <= VAR_LIST_CAP`: a node with one or two
//!    distinct variables reads it from that pair and stores no list; an
//!    `And` or `Or` with 3 to `VAR_LIST_CAP` variables keeps one heap
//!    list in its chunk's list store, allocated once from a merge on the
//!    stack; a `Not` stores none and reads its child's. Larger nodes keep
//!    only the range summary. `size` and `occurrences` saturate at
//!    `u32::MAX`.
//! 3. The `one_of` flag is exact whenever both children know their
//!    variable sets or have disjoint variable ranges; otherwise it is *conservative*
//!    (may report `false` for a huge formula that is in fact 1OF). A
//!    conservative `false` only costs performance — probabilistic valuation
//!    falls back to Shannon expansion, which is exact for every formula.
//! 4. Valuation results depend on a [`crate::relation::VarTable`], so they
//!    are **not** cached here; [`crate::prob`] memoizes them per call,
//!    keyed by `LineageRef`.
//!
//! ## Scoped arenas
//!
//! The [`Lineage`](crate::lineage::Lineage) API talks to the *current*
//! arena: the process-wide [`LineageArena::global`] by default, or a
//! private arena entered on this thread with [`LineageArena::enter`]
//! (RAII [`ArenaScope`]). A continuous stream runs inside its own arena so
//! its seal/retire schedule cannot invalidate anybody else's handles;
//! refs are arena-relative and must not escape their scope un-materialized
//! (convert with `Lineage::to_tree` at the boundary).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard};

use crate::lineage::TupleId;

/// Arena-level observability: lock-free counters/gauges in the global
/// [`tp_obs`] registry, updated on the rare lifecycle operations (seal /
/// retire) so the intern hot path stays untouched.
mod arena_obs {
    use std::sync::{Arc, OnceLock};

    /// Registry handles, resolved once — recording never locks the registry.
    pub(super) struct Handles {
        pub seals: Arc<tp_obs::Counter>,
        pub retires: Arc<tp_obs::Counter>,
        pub interior_retires: Arc<tp_obs::Counter>,
        pub retired_nodes: Arc<tp_obs::Counter>,
        pub batched_nodes: Arc<tp_obs::Counter>,
        pub fallback_roots: Arc<tp_obs::Counter>,
        pub live_nodes: Arc<tp_obs::Gauge>,
        pub live_segments: Arc<tp_obs::Gauge>,
        pub resident_bytes: Arc<tp_obs::Gauge>,
        pub dedup_bytes: Arc<tp_obs::Gauge>,
    }

    pub(super) fn handles() -> &'static Handles {
        static HANDLES: OnceLock<Handles> = OnceLock::new();
        HANDLES.get_or_init(|| {
            let reg = tp_obs::global();
            Handles {
                seals: reg.counter("tp_arena_seals_total", &[]),
                retires: reg.counter("tp_arena_retired_segments_total", &[]),
                interior_retires: reg.counter("tp_arena_interior_retires_total", &[]),
                retired_nodes: reg.counter("tp_arena_retired_nodes_total", &[]),
                batched_nodes: reg.counter("tp_valuation_batched_nodes_total", &[]),
                fallback_roots: reg.counter("tp_valuation_fallback_roots_total", &[]),
                live_nodes: reg.gauge("tp_arena_live_nodes", &[]),
                live_segments: reg.gauge("tp_arena_live_segments", &[]),
                resident_bytes: reg.gauge("tp_arena_resident_bytes", &[]),
                dedup_bytes: reg.gauge("tp_arena_dedup_bytes", &[]),
            }
        })
    }

    /// Counts nodes valuated by the columnar batch kernel
    /// (`tp_core::prob::marginal_batch`) — `tp_valuation_batched_nodes_total`.
    pub(crate) fn record_batched_nodes(n: u64) {
        if n > 0 {
            handles().batched_nodes.add(n);
        }
    }

    /// Counts roots `tp_core::prob::marginal_batch` hands to the per-root
    /// `marginal` — `tp_valuation_fallback_roots_total`.
    pub(crate) fn record_fallback_roots(n: u64) {
        if n > 0 {
            handles().fallback_roots.add(n);
        }
    }
}

pub(crate) use arena_obs::{record_batched_nodes, record_fallback_roots};

/// A minimal FxHash-style multiply hasher for the small `Copy` keys of the
/// hot paths (`LineageRef`, node tuples). The default SipHash costs more
/// than an entire arena node visit; this one is two arithmetic ops.
#[derive(Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

impl FastHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        // Rotate-xor-multiply, as in rustc's FxHash.
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// `HashMap` keyed through [`FastHasher`]; the map type of every per-call
/// memo.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Number of lock stripes of the dedup table (node → ref). An intern holds
/// its node's stripe from the probe to the table insert.
pub const MAX_SHARDS: usize = 16;

/// The stripe is `(hash >> STRIPE_SHIFT) & stripe_mask`, bits 52..56 of
/// the node hash. Every key of a stripe shares those bits, so the `h32`
/// a dedup slot stores ([`dedup_tag`]) leaves them out: a stripe bit in
/// `h32` would be constant within the stripe, crowding its probe starts
/// and matching more tags per probe.
const STRIPE_SHIFT: u32 = 52;

/// The stripe bits of a node hash (`MAX_SHARDS - 1` at [`STRIPE_SHIFT`]).
const STRIPE_BITS: u64 = (MAX_SHARDS as u64 - 1) << STRIPE_SHIFT;

/// Capacity of the first node chunk of a segment. Chunk sizes double from
/// here up to [`FLAT_CHUNK`] and then stay flat, so small (per-epoch)
/// segments stay small and a large (batch) segment over-allocates at most
/// one flat chunk.
const FIRST_CHUNK: u32 = 256;

/// Capacity of every chunk past the doubling prefix (360 KiB of slots).
/// Allocating a chunk writes all of its pages, and that cost lands on the
/// one intern — in a stream, the one advance — that needs it; small flat
/// chunks keep it far below an advance's tail latency (see "Costs and
/// trade-offs" in `docs/lineage-arena.md`).
const FLAT_CHUNK: u32 = 1 << 12;

/// Chunks in the doubling prefix: `FIRST_CHUNK << c` slots for
/// `c < GEO_CHUNKS`, then `FLAT_CHUNK` each.
const GEO_CHUNKS: u32 = FLAT_CHUNK.trailing_zeros() - FIRST_CHUNK.trailing_zeros();

/// First slot of the flat part (the doubling prefix holds
/// `FIRST_CHUNK * (2^GEO_CHUNKS - 1)` slots).
const GEO_END: u32 = FIRST_CHUNK * ((1 << GEO_CHUNKS) - 1);

/// Maximum slots per segment; an intern that would overflow seals the
/// segment and rolls to the next one (a "capacity roll").
const SEG_CAP: u32 = 1 << 28;

/// Maximum chunks per segment: the chunk holding slot `SEG_CAP - 1`, plus one.
const MAX_CHUNKS: usize = chunk_of(SEG_CAP - 1).0 + 1;

/// Segments per directory chunk.
const DIR_CHUNK: usize = 512;

/// Directory chunks; the lifetime cap on segments per arena is
/// `DIR_CHUNK * DIR_SLOTS` (≈ 4.2M — years of epoch-per-second streaming;
/// exceeding it panics rather than recycling ids, because id reuse would
/// turn stale refs from detectable into silently wrong).
const DIR_SLOTS: usize = 8192;

/// Identifier of one arena segment. Ids are dense, monotone in creation
/// order, and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// Interned handle of a lineage node: `(segment << 32) | slot`. Equality
/// and hashing are integer operations; two live handles are equal iff the
/// formulas are structurally identical (within one arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineageRef(pub(crate) u64);

impl LineageRef {
    /// The raw encoded index (stable for the lifetime of the arena):
    /// `(segment << 32) | slot`.
    pub fn index(self) -> u64 {
        self.0
    }

    /// The segment this node lives in.
    #[inline]
    pub fn segment(self) -> SegmentId {
        SegmentId((self.0 >> 32) as u32)
    }

    /// The slot within the segment.
    #[inline]
    pub(crate) fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn encode(seg: u32, slot: u32) -> LineageRef {
        LineageRef(((seg as u64) << 32) | slot as u64)
    }
}

/// Shape of one interned node. Children are handles into the same arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineageNode {
    /// An atomic base-tuple variable.
    Var(TupleId),
    /// Negation.
    Not(LineageRef),
    /// Binary conjunction.
    And(LineageRef, LineageRef),
    /// Binary disjunction.
    Or(LineageRef, LineageRef),
}

/// `kind` byte of a packed node shape (see [`LineageNode::pack`]).
const KIND_VAR: u8 = 0;
const KIND_NOT: u8 = 1;
const KIND_AND: u8 = 2;
const KIND_OR: u8 = 3;

impl LineageNode {
    /// The packed shape a node slot stores: a kind byte and two operands
    /// (a variable id or child refs; unused operands are 0).
    #[inline]
    fn pack(self) -> (u8, [u64; 2]) {
        match self {
            LineageNode::Var(id) => (KIND_VAR, [id.0, 0]),
            LineageNode::Not(c) => (KIND_NOT, [c.0, 0]),
            LineageNode::And(a, b) => (KIND_AND, [a.0, b.0]),
            LineageNode::Or(a, b) => (KIND_OR, [a.0, b.0]),
        }
    }
}

/// Nodes with at most this many variable occurrences know their exact
/// sorted distinct-variable set; larger nodes keep only the
/// `[var_lo, var_hi]` range summary.
pub const VAR_LIST_CAP: usize = 128;

/// One node slot (see "Node slots" in the module docs):
///
/// * `w0`, `w1`: the packed shape's operands ([`LineageNode::pack`]);
/// * `w2`, `w3`: `var_lo`, `var_hi`;
/// * `w4`: `size` (low half) and `occurrences` (high half), saturating;
/// * `w5`: `min_seg` (bits 0..32), `kind + 1` (32..35, 0 = unpublished),
///   `one_of` (bit 35) and the list index + 1 in the slot's chunk's list
///   store (36..49, 0 = no list).
///
/// The writer stores `w0..w4` Relaxed, then `w5` Release; readers load
/// `w5` Acquire ([`Meta::load`]).
type NodeSlot = [AtomicU64; 6];

// Slots are most of an arena's memory.
const _: () = assert!(std::mem::size_of::<NodeSlot>() == 48);

/// `w5` bit of the `kind + 1` field.
const KIND_SHIFT: u32 = 32;
/// `w5` bit of the 1OF flag.
const ONE_OF_BIT: u64 = 1 << 35;
/// `w5` bit of the list index + 1 field (13 bits: a chunk holds at most
/// [`FLAT_CHUNK`] slots, so at most that many lists).
const LIST_SHIFT: u32 = 36;
const _: () = assert!(FLAT_CHUNK < 1 << 13);

/// A published node's six words, copied out of its slot.
#[derive(Clone, Copy)]
struct Meta([u64; 6]);

impl Meta {
    /// The slot's words if it is published: `w5` is loaded Acquire, and
    /// pairs with the writer's Release store of it in [`NewNode::publish`].
    #[inline]
    fn load(slot: &NodeSlot) -> Option<Meta> {
        let w5 = slot[5].load(Ordering::Acquire);
        if w5 >> KIND_SHIFT & 7 == 0 {
            return None;
        }
        let w = |i: usize| slot[i].load(Ordering::Relaxed);
        Some(Meta([w(0), w(1), w(2), w(3), w(4), w5]))
    }

    /// Kind byte of the packed shape (`KIND_*`).
    #[inline]
    fn kind(self) -> u8 {
        (self.0[5] >> KIND_SHIFT & 7) as u8 - 1
    }

    /// Operands of the packed shape.
    #[inline]
    fn ops(self) -> [u64; 2] {
        [self.0[0], self.0[1]]
    }

    /// The node's shape.
    #[inline]
    fn node(self) -> LineageNode {
        let [a, b] = self.ops();
        match self.kind() {
            KIND_VAR => LineageNode::Var(TupleId(a)),
            KIND_NOT => LineageNode::Not(LineageRef(a)),
            KIND_AND => LineageNode::And(LineageRef(a), LineageRef(b)),
            _ => LineageNode::Or(LineageRef(a), LineageRef(b)),
        }
    }

    /// Smallest and largest variable of the formula.
    #[inline]
    fn range(self) -> [TupleId; 2] {
        [TupleId(self.0[2]), TupleId(self.0[3])]
    }

    /// Tree-semantic node count (saturating at `u32::MAX`).
    #[inline]
    fn size(self) -> u32 {
        self.0[4] as u32
    }

    /// Tree-semantic variable occurrences, with multiplicity (saturating
    /// at `u32::MAX`).
    #[inline]
    fn occurrences(self) -> u32 {
        (self.0[4] >> 32) as u32
    }

    /// Smallest segment id reachable from this node's sub-DAG. Children
    /// are interned no later than their parents, so the reachable segment
    /// set of a node is contained in `[min_seg, segment(self)]`.
    #[inline]
    fn min_seg(self) -> u32 {
        self.0[5] as u32
    }

    /// Whether the formula is in one-occurrence form (invariant 3).
    #[inline]
    fn one_of(self) -> bool {
        self.0[5] & ONE_OF_BIT != 0
    }

    /// Index + 1 of the node's list in its chunk's list store, 0 if it
    /// stores none.
    #[inline]
    fn list(self) -> usize {
        (self.0[5] >> LIST_SHIFT) as usize
    }

    /// The exact variable set when it is `{var_lo, var_hi}[..n]`: a node
    /// under the cap with one variable, or two and neither a list nor a
    /// `Not` (whose set is its child's).
    #[inline]
    fn pair(self) -> Option<([TupleId; 2], usize)> {
        let [lo, hi] = self.range();
        if self.occurrences() > VAR_LIST_CAP as u32 {
            None
        } else if lo == hi {
            Some(([lo, hi], 1))
        } else if self.kind() != KIND_NOT && self.list() == 0 {
            Some(([lo, hi], 2))
        } else {
            None
        }
    }
}

/// A node's metadata computed at intern time, before it has a slot.
struct NewNode {
    ops: [u64; 2],
    range: [TupleId; 2],
    size: u32,
    occurrences: u32,
    /// Clamped to the owning segment at append.
    min_seg: u32,
    kind: u8,
    one_of: bool,
    /// The exact list of an `And` / `Or` of 3 to `VAR_LIST_CAP` variables.
    list: Option<Arc<[TupleId]>>,
}

impl NewNode {
    /// Publishes the node at `slot` of `chunks`, or returns `false` if the
    /// slot's chunk is not allocated yet. The list goes to the chunk's
    /// store first; then `w0..w4` are stored Relaxed and `w5` Release,
    /// which pairs with the Acquire load in [`Meta::load`].
    fn publish(&mut self, chunks: &ChunkList, slot: u32) -> bool {
        let (c, off) = chunk_of(slot);
        let Some(chunk) = chunks.chunks().get(c) else {
            return false;
        };
        let list = match self.list.take() {
            None => 0,
            Some(list) => {
                let mut store = chunk.lists.lock().expect("chunk list store poisoned");
                store.push(list);
                store.len() as u64
            }
        };
        let ([a, b], [lo, hi]) = (self.ops, self.range);
        let counts = u64::from(self.size) | u64::from(self.occurrences) << 32;
        let cell = &chunk.slots[off];
        for (w, v) in cell.iter().zip([a, b, lo.0, hi.0, counts]) {
            w.store(v, Ordering::Relaxed);
        }
        let w5 = u64::from(self.min_seg)
            | u64::from(self.kind + 1) << KIND_SHIFT
            | if self.one_of { ONE_OF_BIT } else { 0 }
            | list << LIST_SHIFT;
        cell[5].store(w5, Ordering::Release);
        true
    }
}

/// One fixed-capacity block of node slots, and the variable lists of the
/// list nodes among them (they die with the chunk).
struct Chunk {
    slots: Box<[NodeSlot]>,
    lists: Mutex<Vec<Arc<[TupleId]>>>,
}

impl Chunk {
    fn new(capacity: usize) -> Arc<Chunk> {
        Arc::new(Chunk {
            slots: (0..capacity).map(|_| NodeSlot::default()).collect(),
            lists: Mutex::default(),
        })
    }

    /// Bytes of the list store: its `Vec` capacity plus each list's
    /// allocation (the `Arc` counts and the variables).
    fn list_bytes(&self) -> usize {
        let lists = self.lists.lock().expect("chunk list store poisoned");
        lists.capacity() * std::mem::size_of::<Arc<[TupleId]>>()
            + lists
                .iter()
                .map(|l| 2 * std::mem::size_of::<usize>() + std::mem::size_of_val::<[TupleId]>(l))
                .sum::<usize>()
    }
}

/// A segment's chunk list, shared whole: snapshots ([`ArenaView`],
/// [`LineageArena::snapshot_segment`]) take one refcount, not one per
/// chunk. Growth pushes in place while no snapshot holds the list and
/// copies the list of chunk handles otherwise. Empty (no allocation)
/// until the segment's first append.
#[derive(Clone, Default)]
struct ChunkList(Option<Arc<Vec<Arc<Chunk>>>>);

impl ChunkList {
    #[inline]
    fn chunks(&self) -> &[Arc<Chunk>] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The node at `slot` and its chunk, if the chunk is allocated and
    /// the slot published.
    #[inline]
    fn meta(&self, slot: u32) -> Option<(Meta, &Chunk)> {
        let (c, off) = chunk_of(slot);
        let chunk = self.chunks().get(c)?;
        Some((Meta::load(&chunk.slots[off])?, chunk))
    }

    fn push(&mut self, chunk: Arc<Chunk>) {
        Arc::make_mut(self.0.get_or_insert_default()).push(chunk);
    }
}

/// One step of reading a node's exact variable set (invariant 2), copied
/// out of its slot, so no lock is held when the reader's closure runs.
enum SetStep {
    /// `{var_lo, var_hi}[..n]`: one or two variables.
    Pair([TupleId; 2], usize),
    /// A clone of the list an `And` / `Or` of 3 to `VAR_LIST_CAP`
    /// variables stores.
    List(Arc<[TupleId]>),
    /// A `Not`'s set is its child's.
    Child(LineageRef),
    /// Over `VAR_LIST_CAP` occurrences: only the range is known.
    Unknown,
}

impl SetStep {
    /// The step for the node `m`, whose list (if any) is in `chunk`.
    fn of(m: Meta, chunk: &Chunk) -> SetStep {
        if m.occurrences() > VAR_LIST_CAP as u32 {
            SetStep::Unknown
        } else if let Some((pair, n)) = m.pair() {
            SetStep::Pair(pair, n)
        } else if m.kind() == KIND_NOT {
            SetStep::Child(LineageRef(m.ops()[0]))
        } else {
            let store = chunk.lists.lock().expect("chunk list store poisoned");
            SetStep::List(Arc::clone(&store[m.list() - 1]))
        }
    }
}

/// Where node slots are read: the arena (one chunk guard per read), a
/// view's snapshots, or the guards one intern holds ([`Held`], which
/// answer `None` for a segment they do not hold).
trait Slots {
    /// Runs `f` on `r`'s published metadata and its chunk.
    fn read<T>(&self, r: LineageRef, f: impl FnOnce(Meta, &Chunk) -> T) -> Option<T>;
}

/// Runs `f` on `r`'s exact sorted distinct-variable set, when known
/// (invariant 2), walking down `Not`s to the node that holds it. `None`
/// if `slots` cannot read a node on the way.
fn with_var_set<S: Slots, T>(
    slots: &S,
    r: LineageRef,
    f: impl FnOnce(Option<&[TupleId]>) -> T,
) -> Option<T> {
    let mut cur = r;
    loop {
        match slots.read(cur, SetStep::of)? {
            SetStep::Pair(pair, n) => return Some(f(Some(&pair[..n]))),
            SetStep::List(list) => return Some(f(Some(&list))),
            SetStep::Child(c) => cur = c,
            SetStep::Unknown => return Some(f(None)),
        }
    }
}

/// Computes a node's metadata from its children's, read through `slots`;
/// `None` if `slots` cannot read one of them. Nothing is allocated unless
/// the node is an `And` / `Or` of 3 to `VAR_LIST_CAP` variables.
fn build<S: Slots>(slots: &S, node: LineageNode) -> Option<NewNode> {
    let (kind, ops) = node.pack();
    Some(match node {
        LineageNode::Var(id) => NewNode {
            ops,
            range: [id, id],
            size: 1,
            occurrences: 1,
            min_seg: u32::MAX, // clamped to the owning segment on append
            kind,
            one_of: true,
            list: None,
        },
        LineageNode::Not(c) => slots.read(c, |cm, _| NewNode {
            ops,
            range: cm.range(),
            size: cm.size().saturating_add(1),
            occurrences: cm.occurrences(),
            min_seg: cm.min_seg().min(c.segment().0),
            kind,
            one_of: cm.one_of(),
            list: None,
        })?,
        LineageNode::And(a, b) | LineageNode::Or(a, b) => {
            let am = slots.read(a, |m, _| m)?;
            let bm = slots.read(b, |m, _| m)?;
            let occurrences = am.occurrences().saturating_add(bm.occurrences());
            let ([a_lo, a_hi], [b_lo, b_hi]) = (am.range(), bm.range());
            let apart = a_hi < b_lo || b_hi < a_lo;
            let cap = VAR_LIST_CAP as u32;
            let known = am.occurrences() <= cap && bm.occurrences() <= cap;
            let both_one_of = am.one_of() && bm.one_of();
            // The exact sets decide the list of a node under the cap, and
            // 1OF for overlapping ranges; a huge overlapping-range pair is
            // treated as sharing a variable (invariant 3).
            let (disjoint, list) = if let (Some((av, an)), Some((bv, bn))) = (am.pair(), bm.pair())
            {
                // Both sets are pairs: merge on the stack, no slot read.
                let (av, bv) = (&av[..an], &bv[..bn]);
                let mut merged = [TupleId(0); 4];
                let n = merge_sorted(av, bv, &mut merged);
                let list = (occurrences <= cap && n > 2).then(|| Arc::from(&merged[..n]));
                (apart || sorted_disjoint(av, bv), list)
            } else if occurrences <= cap || (known && both_one_of && !apart) {
                with_var_set(slots, a, |av| {
                    with_var_set(slots, b, |bv| {
                        let (av, bv) = (
                            av.expect("child below cap has a var set"),
                            bv.expect("child below cap has a var set"),
                        );
                        let disjoint = apart || sorted_disjoint(av, bv);
                        if occurrences > cap {
                            return (disjoint, None);
                        }
                        let mut merged = [TupleId(0); VAR_LIST_CAP];
                        let n = merge_sorted(av, bv, &mut merged);
                        (disjoint, (n > 2).then(|| Arc::from(&merged[..n])))
                    })
                })??
            } else {
                (apart, None)
            };
            NewNode {
                ops,
                range: [a_lo.min(b_lo), a_hi.max(b_hi)],
                size: am.size().saturating_add(bm.size()).saturating_add(1),
                occurrences,
                min_seg: am
                    .min_seg()
                    .min(bm.min_seg())
                    .min(a.segment().0)
                    .min(b.segment().0),
                kind,
                one_of: both_one_of && disjoint,
                list,
            }
        }
    })
}

/// Read guards one intern holds on its children's chunk lists, taken in
/// ascending segment id (at most two segments).
#[derive(Default)]
struct Held<'a>([Option<(u32, RwLockReadGuard<'a, ChunkList>)>; 2]);

impl Held<'_> {
    /// The chunk list of `seg`, if held.
    #[inline]
    fn get(&self, seg: u32) -> Option<&ChunkList> {
        self.0
            .iter()
            .flatten()
            .find(|(s, _)| *s == seg)
            .map(|(_, g)| &**g)
    }
}

impl Slots for Held<'_> {
    #[inline]
    fn read<T>(&self, r: LineageRef, f: impl FnOnce(Meta, &Chunk) -> T) -> Option<T> {
        let (m, chunk) = meta_in(self.get(r.segment().0)?, r);
        Some(f(m, chunk))
    }
}

/// `slot → (chunk index, offset into chunk)`: doubling chunk sizes below
/// [`GEO_END`], flat [`FLAT_CHUNK`]s from there on.
#[inline]
const fn chunk_of(slot: u32) -> (usize, usize) {
    if slot < GEO_END {
        let q = slot / FIRST_CHUNK + 1;
        let c = 31 - q.leading_zeros();
        let start = FIRST_CHUNK * ((1u32 << c) - 1);
        (c as usize, (slot - start) as usize)
    } else {
        let flat = slot - GEO_END;
        (
            (GEO_CHUNKS + flat / FLAT_CHUNK) as usize,
            (flat % FLAT_CHUNK) as usize,
        )
    }
}

/// First slot of chunk `c`.
#[inline]
fn chunk_start(c: usize) -> usize {
    match c.checked_sub(GEO_CHUNKS as usize) {
        None => (FIRST_CHUNK as usize) * ((1 << c) - 1),
        Some(flat) => GEO_END as usize + flat * FLAT_CHUNK as usize,
    }
}

#[inline]
fn chunk_capacity(c: usize) -> usize {
    (FIRST_CHUNK as usize) << c.min(GEO_CHUNKS as usize)
}

/// 32 bits of a node hash for its dedup slot, with the stripe bits
/// cleared: the low word folded with the high one, so the probe start
/// (`h32 & mask`) also draws on the better-mixed high bits.
#[inline]
fn dedup_tag(hash: u64) -> u32 {
    let h = hash & !STRIPE_BITS;
    (h ^ (h >> 32)) as u32
}

/// One dedup slot: `[ref + 1 (low word), ref + 1 (high word), h32]`, all
/// zero when empty (`ref + 1` is never 0).
type DedupSlot = [u32; 3];

/// Smallest non-empty dedup table.
const DEDUP_MIN_SLOTS: usize = 16;

/// One dedup stripe: open addressing with linear probing over
/// [`DedupSlot`]s, grown at 7/8 load. The node shape is not stored; a
/// probe compares a candidate's node only when its `h32` matches.
#[derive(Default)]
struct DedupTable {
    /// Power-of-two slot count, or empty before the first insert.
    slots: Vec<DedupSlot>,
    /// Occupied slots, dead entries included until a sweep drops them.
    len: usize,
}

impl DedupTable {
    /// The first entry tagged `h32` whose ref passes `same`, which reads
    /// the candidate node (and answers `false` for a dead one).
    #[inline]
    fn get(&self, h32: u32, mut same: impl FnMut(LineageRef) -> bool) -> Option<LineageRef> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = h32 as usize & mask;
        loop {
            let slot = &self.slots[i];
            if slot[0] | slot[1] == 0 {
                return None;
            }
            if slot[2] == h32 && same(slot_ref(slot)) {
                return Some(slot_ref(slot));
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds an entry for a node the table does not hold live. At 7/8
    /// load, dead entries are dropped first, and the table grows unless
    /// that leaves it at most half full (so a sweep that frees little
    /// does not repeat a few inserts later).
    fn insert(&mut self, h32: u32, r: LineageRef, live: impl Fn(LineageRef) -> bool) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.sweep(live);
            if (self.len + 1) * 2 > self.slots.len() {
                self.rebuild(self.len + 1);
            }
        }
        let v = r.0 + 1;
        self.place([v as u32, (v >> 32) as u32, h32]);
    }

    /// Drops dead entries in place by backward-shift deletion, then
    /// shrinks the table if at most 1/8 of it is left.
    fn sweep(&mut self, live: impl Fn(LineageRef) -> bool) {
        let Some(mask) = self.slots.len().checked_sub(1) else {
            return;
        };
        let mut i = 0;
        while i <= mask {
            let slot = self.slots[i];
            if slot[0] | slot[1] == 0 || live(slot_ref(&slot)) {
                i += 1;
                continue;
            }
            // Empty slot i, then pull each later entry of its cluster back
            // into the hole when the hole lies on that entry's probe path
            // (between its probe start and its slot). Slot i is examined
            // again: an entry may have moved into it.
            self.slots[i] = [0; 3];
            self.len -= 1;
            let (mut hole, mut j) = (i, (i + 1) & mask);
            while self.slots[j][0] | self.slots[j][1] != 0 {
                let start = self.slots[j][2] as usize & mask;
                if j.wrapping_sub(start) & mask >= j.wrapping_sub(hole) & mask {
                    self.slots[hole] = std::mem::take(&mut self.slots[j]);
                    hole = j;
                }
                j = (j + 1) & mask;
            }
        }
        if self.len * 8 <= self.slots.len() && self.slots.len() > DEDUP_MIN_SLOTS {
            self.rebuild(self.len);
        }
    }

    /// Rebuilds the table from the stored `h32`s in room for `keep`
    /// entries at most half full. Reads no node.
    fn rebuild(&mut self, keep: usize) {
        let slots = match keep {
            0 => Vec::new(),
            n => vec![[0; 3]; (2 * n).next_power_of_two().max(DEDUP_MIN_SLOTS)],
        };
        let old = std::mem::replace(&mut self.slots, slots);
        self.len = 0;
        for s in old.into_iter().filter(|s| s[0] | s[1] != 0) {
            self.place(s);
        }
    }

    /// Stores `slot` at the first empty slot of its probe sequence.
    fn place(&mut self, slot: DedupSlot) {
        let mask = self.slots.len() - 1;
        let mut i = slot[2] as usize & mask;
        while self.slots[i][0] | self.slots[i][1] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
        self.len += 1;
    }
}

/// The ref a dedup slot holds.
#[inline]
fn slot_ref(s: &DedupSlot) -> LineageRef {
    LineageRef((u64::from(s[1]) << 32 | u64::from(s[0])) - 1)
}

/// Lifecycle states of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentState {
    /// Accepting appends (at most one segment per arena at a time).
    Open,
    /// Closed to appends; nodes remain readable.
    Sealed,
    /// Storage reclaimed; any node access panics ("use-after-retire").
    Retired,
}

const STATE_OPEN: u8 = 0;
const STATE_SEALED: u8 = 1;
const STATE_RETIRED: u8 = 2;

/// One storage segment: chunked node store + lifecycle word + pin
/// refcount. The `chunks` lock is only written on chunk allocation (once
/// per chunk's worth of appends) and at retirement; reads are shared.
struct Segment {
    /// Claimed slots (may transiently exceed [`SEG_CAP`] during a
    /// capacity roll; claimed-beyond-cap slots are never written).
    len: AtomicU32,
    state: AtomicU8,
    /// Segment-granularity pin count; retire refuses pinned segments.
    pins: AtomicU32,
    chunks: RwLock<ChunkList>,
}

impl Segment {
    fn new() -> Segment {
        Segment {
            len: AtomicU32::new(0),
            state: AtomicU8::new(STATE_OPEN),
            pins: AtomicU32::new(0),
            chunks: RwLock::new(ChunkList::default()),
        }
    }

    #[inline]
    fn read_chunks(&self) -> std::sync::RwLockReadGuard<'_, ChunkList> {
        self.chunks.read().expect("segment chunks poisoned")
    }

    #[inline]
    fn state(&self) -> SegmentState {
        match self.state.load(Ordering::Acquire) {
            STATE_OPEN => SegmentState::Open,
            STATE_SEALED => SegmentState::Sealed,
            _ => SegmentState::Retired,
        }
    }

    /// Committed node count (claimed, clamped to capacity).
    #[inline]
    fn nodes(&self) -> u32 {
        self.len.load(Ordering::Acquire).min(SEG_CAP)
    }
}

/// Why [`LineageArena::retire`] refused to reclaim a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireError {
    /// The segment is still open; seal it first.
    Open,
    /// The segment was already retired.
    AlreadyRetired,
    /// The segment is pinned by that many holders ([`LineageArena::pin`],
    /// in-flight [`ArenaView`]s).
    Pinned(u32),
    /// No segment with this id has been opened yet.
    Unknown,
}

impl fmt::Display for RetireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetireError::Open => write!(f, "segment is still open"),
            RetireError::AlreadyRetired => write!(f, "segment was already retired"),
            RetireError::Pinned(n) => write!(f, "segment is pinned ({n} holders)"),
            RetireError::Unknown => write!(f, "segment was never opened"),
        }
    }
}

impl std::error::Error for RetireError {}

/// What one successful [`LineageArena::retire`] reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredStorage {
    /// Interned nodes whose storage was released.
    pub nodes: u64,
    /// Chunk allocations released.
    pub chunks: usize,
    /// Whether the retirement punched a **hole**: at least one segment
    /// with a smaller id was still resident when this one retired.
    /// Interior retires are what free a stream whose oldest facts never
    /// die from pinning every later segment in RAM.
    pub interior: bool,
}

/// The segmented hash-consing store. Obtain the process-wide instance with
/// [`LineageArena::global`], or a private reclaimable instance with
/// [`LineageArena::shared`] + [`LineageArena::enter`].
pub struct LineageArena {
    /// Two-level segment directory: `dir[id / DIR_CHUNK][id % DIR_CHUNK]`.
    /// Entries are created on demand and never replaced, so `&Segment`
    /// borrows stay valid for the arena's lifetime (retirement empties a
    /// segment's chunk list; it never frees the `Segment` header).
    dir: Box<[OnceLock<Box<[Segment]>>]>,
    /// Id of the open segment.
    open: AtomicU32,
    /// Smallest segment id that may still hold storage: the prefix below
    /// it is entirely retired, so `stats()` walks `scan_low..=open`
    /// instead of every segment ever opened (advanced amortized-O(1) per
    /// retire under the lifecycle lock).
    scan_low: AtomicU32,
    /// Nodes whose storage was reclaimed (monotone).
    retired_nodes: AtomicU64,
    /// Segments retired (monotone).
    retired_segments: AtomicU32,
    /// Serializes seal / retire / capacity rolls (rare operations).
    lifecycle: Mutex<()>,
    /// Dedup stripes: node hash → ref, compared against the node store.
    stripes: Box<[Mutex<DedupTable>]>,
    /// `stripes.len() - 1`; stripe selection is `hash & mask`.
    stripe_mask: u32,
}

/// Aggregate statistics of the arena, for diagnostics and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Live (resident, non-retired) interned nodes.
    pub nodes: usize,
    /// Nodes ever interned, including retired ones.
    pub total_interned: u64,
    /// Nodes whose storage was reclaimed.
    pub retired_nodes: u64,
    /// Segments ever opened.
    pub segments: usize,
    /// Segments still holding storage (open or sealed).
    pub live_segments: usize,
    /// Segments whose storage was reclaimed.
    pub retired_segments: usize,
    /// Resident bytes of live node storage: chunk slots (48 each) plus
    /// the chunks' list stores (their `Vec` capacity and each list's
    /// allocation, `Arc` counts included). The dedup table is counted
    /// apart, in `dedup_bytes`.
    pub resident_bytes: usize,
    /// Bytes of the dedup tables: slot capacity × 12.
    pub dedup_bytes: usize,
    /// Live nodes whose exact variable set is known: those with at most
    /// [`VAR_LIST_CAP`] occurrences, whether the set is read from the
    /// `{var_lo, var_hi}` pair, a stored list or (for a `Not`) the
    /// child's.
    pub with_var_list: usize,
}

static GLOBAL: OnceLock<LineageArena> = OnceLock::new();

thread_local! {
    /// Stack of entered private arenas; empty = the global arena.
    static CURRENT: RefCell<Vec<Arc<LineageArena>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard of [`LineageArena::enter`]: while alive, the entering
/// thread's `Lineage` operations intern into and read from the entered
/// arena. Dropping restores the previous current arena. Not `Send` — the
/// scope is a property of the entering thread.
pub struct ArenaScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ArenaScope {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

impl LineageArena {
    /// The process-wide arena (the default target of every
    /// [`crate::lineage::Lineage`] operation).
    pub fn global() -> &'static LineageArena {
        GLOBAL.get_or_init(|| LineageArena::with_shards(MAX_SHARDS))
    }

    /// A standalone arena with `shards` dedup stripes (rounded up to a
    /// power of two, clamped to `1..=MAX_SHARDS`).
    ///
    /// Refs of a standalone arena are meaningless to other arenas. Use
    /// [`LineageArena::shared`] + [`LineageArena::enter`] to route the
    /// `Lineage` API at it; raw [`LineageArena::intern`] works directly.
    pub fn with_shards(shards: usize) -> Self {
        let count = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        let arena = LineageArena {
            dir: (0..DIR_SLOTS).map(|_| OnceLock::new()).collect(),
            open: AtomicU32::new(0),
            scan_low: AtomicU32::new(0),
            retired_nodes: AtomicU64::new(0),
            retired_segments: AtomicU32::new(0),
            lifecycle: Mutex::new(()),
            stripes: (0..count)
                .map(|_| Mutex::new(DedupTable::default()))
                .collect(),
            stripe_mask: count as u32 - 1,
        };
        // Segment 0 exists from the start.
        let _ = arena.segment(0);
        arena
    }

    /// A private arena wrapped for scoping (see [`LineageArena::enter`]).
    pub fn shared(shards: usize) -> Arc<LineageArena> {
        Arc::new(LineageArena::with_shards(shards))
    }

    /// Makes `arena` the current arena of this thread until the returned
    /// scope drops. `Lineage` handles are arena-relative: do not let them
    /// outlive the scope un-materialized (convert via `Lineage::to_tree`
    /// at the boundary).
    pub fn enter(arena: &Arc<LineageArena>) -> ArenaScope {
        CURRENT.with(|c| c.borrow_mut().push(Arc::clone(arena)));
        ArenaScope {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Runs `f` against this thread's current arena (the innermost entered
    /// private arena, or [`LineageArena::global`]). `f` runs under the
    /// thread-local stack's shared borrow — no per-call `Arc` traffic —
    /// so `f` must not call [`LineageArena::enter`] or drop an
    /// [`ArenaScope`] (nested `with_current` calls are fine).
    pub fn with_current<T>(f: impl FnOnce(&LineageArena) -> T) -> T {
        CURRENT.with(|c| {
            let stack = c.borrow();
            match stack.last() {
                Some(a) => f(a),
                None => f(LineageArena::global()),
            }
        })
    }

    /// Number of dedup lock stripes.
    pub fn shard_count(&self) -> usize {
        self.stripes.len()
    }

    /// The segment header for `id`, creating directory storage on demand.
    fn segment(&self, id: u32) -> &Segment {
        let (hi, lo) = (id as usize / DIR_CHUNK, id as usize % DIR_CHUNK);
        let chunk = self.dir[hi].get_or_init(|| (0..DIR_CHUNK).map(|_| Segment::new()).collect());
        &chunk[lo]
    }

    /// The segment header for `id` if that segment was ever opened.
    fn segment_if_opened(&self, id: u32) -> Option<&Segment> {
        (id <= self.open.load(Ordering::Acquire)).then(|| self.segment(id))
    }

    /// Lifecycle state of a segment.
    pub fn segment_state(&self, id: SegmentId) -> Option<SegmentState> {
        self.segment_if_opened(id.0).map(|s| s.state())
    }

    /// The id of the currently open segment.
    pub fn open_segment(&self) -> SegmentId {
        SegmentId(self.open.load(Ordering::Acquire))
    }

    /// `node`'s dedup stripe and `h32` ([`dedup_tag`]).
    #[inline]
    fn dedup_key(&self, node: &LineageNode) -> (usize, u32) {
        let mut h = FastHasher::default();
        node.hash(&mut h);
        let h = h.finish();
        let stripe = (h >> STRIPE_SHIFT) as u32 & self.stripe_mask;
        (stripe as usize, dedup_tag(h))
    }

    /// Whether `r`'s segment still holds its storage (open or sealed, not
    /// retired) — O(1), no lock, no node read. It is the test
    /// [`LineageArena::intern`] applies to a dedup hit, so interning a
    /// node again returns a memoised handle of it iff that handle is live
    /// (a node has at most one live copy; retirement is permanent).
    #[inline]
    pub fn is_live(&self, r: LineageRef) -> bool {
        self.segment_if_opened(r.segment().0)
            .is_some_and(|s| s.state.load(Ordering::Acquire) != STATE_RETIRED)
    }

    /// Interns a node, returning the handle of the unique live copy.
    ///
    /// Public so benchmarks, diagnostics and reclamation tests can drive
    /// standalone arenas; regular formula construction goes through
    /// [`crate::lineage::Lineage`] (which interns into the current arena).
    /// Children of `node` must be live refs of *this* arena.
    ///
    /// The node's stripe is locked once, hit or miss. Under it, the probe
    /// reads a candidate only on a tag match (a hit's one chunk guard);
    /// on a miss, read guards on the children's segments serve the child
    /// metadata and, when every child is in the open segment, the
    /// publication.
    pub fn intern(&self, node: LineageNode) -> LineageRef {
        let (sid, h32) = self.dedup_key(&node);
        let (kind, ops) = node.pack();
        // The children's distinct segments, ascending.
        let segs = match node {
            LineageNode::Var(_) => [None, None],
            LineageNode::Not(c) => [Some(c.segment().0), None],
            LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                let (lo, hi) = (a.segment().0, b.segment().0);
                [Some(lo.min(hi)), (lo != hi).then_some(lo.max(hi))]
            }
        };
        // A copy of `node` lives no lower than its highest child.
        let floor = segs[1].or(segs[0]).unwrap_or(0);
        // Checked before any lock is held, so a misuse poisons nothing.
        assert!(
            floor <= self.open.load(Ordering::Acquire),
            "lineage ref of {node:?} from a foreign arena"
        );
        let mut stripe = self.stripes[sid].lock().expect("arena stripe poisoned");
        if let Some(r) = stripe.get(h32, |r| self.holds(r, floor, kind, ops)) {
            return r;
        }
        let mut held = Held(segs.map(|s| s.map(|id| (id, self.segment(id).read_chunks()))));
        let new = build(&held, node).unwrap_or_else(|| {
            // A `Not` chain leads below the held segments: read with no
            // guard held, one guard per read.
            held = Held::default();
            build(self, node).expect("arena reads resolve every live ref")
        });
        let r = self.append(new, held);
        let none_retired = self.retired_segments.load(Ordering::Relaxed) == 0;
        stripe.insert(h32, r, |r| none_retired || self.is_live(r));
        r
    }

    /// Whether `r` is a live node of packed shape `(kind, ops)`: the dedup
    /// probe's comparison, under a read guard on `r`'s segment (the
    /// caller holds no chunk guard). Never panics — a retired or unopened
    /// segment, or a slot its chunk list no longer holds, reads as
    /// `false`. A ref below `floor` (the highest child segment) cannot be
    /// a copy and is not read.
    fn holds(&self, r: LineageRef, floor: u32, kind: u8, ops: [u64; 2]) -> bool {
        let seg_id = r.segment().0;
        if seg_id < floor {
            return false;
        }
        let Some(seg) = self.segment_if_opened(seg_id) else {
            return false;
        };
        if seg.state.load(Ordering::Acquire) == STATE_RETIRED {
            return false;
        }
        seg.read_chunks()
            .meta(r.slot())
            .is_some_and(|(m, _)| m.kind() == kind && m.ops() == ops)
    }

    /// Claims a slot in the open segment (atomic bump) and publishes the
    /// node, under `held` if it holds the open segment or else under one
    /// more read guard (the open segment is above every held one). Every
    /// guard is dropped before a chunk allocation or a capacity roll.
    fn append(&self, mut new: NewNode, held: Held<'_>) -> LineageRef {
        let mut held = Some(held);
        loop {
            let seg_id = self.open.load(Ordering::Acquire);
            let seg = self.segment(seg_id);
            let slot = seg.len.fetch_add(1, Ordering::AcqRel);
            if slot >= SEG_CAP {
                // Capacity roll: seal and move on (the claimed slot past
                // the cap is abandoned; `Segment::nodes` clamps).
                held = None;
                self.roll_full(seg_id);
                continue;
            }
            new.min_seg = new.min_seg.min(seg_id);
            let r = LineageRef::encode(seg_id, slot);
            let published = match held.as_ref().and_then(|h| h.get(seg_id)) {
                Some(chunks) => new.publish(chunks, slot),
                None => new.publish(&seg.read_chunks(), slot),
            };
            if published {
                return r;
            }
            // Slow path: allocate the missing chunk(s), then publish.
            held = None;
            let mut chunks = seg.chunks.write().expect("segment chunks poisoned");
            if seg.state.load(Ordering::Acquire) == STATE_RETIRED {
                // A racing retire beat this straggler; its claim is
                // abandoned and the append restarts in a live segment.
                // (Unreachable under the documented retire contract —
                // the caller proves quiescence first.)
                continue;
            }
            let c = chunk_of(slot).0;
            assert!(c < MAX_CHUNKS, "slot {slot} beyond segment chunk bound");
            while chunks.chunks().len() <= c {
                let next = chunks.chunks().len();
                chunks.push(Chunk::new(chunk_capacity(next)));
            }
            assert!(new.publish(&chunks, slot), "chunk {c} was just allocated");
            return r;
        }
    }

    /// Seals `seg_id` because it hit capacity, opening the next segment.
    fn roll_full(&self, seg_id: u32) {
        let _lc = self.lifecycle.lock().expect("lifecycle poisoned");
        if self.open.load(Ordering::Acquire) == seg_id {
            self.open_next(seg_id);
        }
    }

    /// Opens segment `seg_id + 1` and seals `seg_id`. Caller holds the
    /// lifecycle lock.
    fn open_next(&self, seg_id: u32) -> SegmentId {
        let next = seg_id
            .checked_add(1)
            .filter(|&n| (n as usize) < DIR_CHUNK * DIR_SLOTS)
            .expect("lineage arena segment directory exhausted");
        let _ = self.segment(next); // materialize before publication
        self.segment(seg_id)
            .state
            .store(STATE_SEALED, Ordering::Release);
        self.open.store(next, Ordering::Release);
        SegmentId(seg_id)
    }

    /// Seals the open segment (no more appends) and opens a fresh one.
    /// Returns the sealed segment's id, or `None` if the open segment was
    /// still empty (sealing nothing would only burn ids).
    pub fn seal(&self) -> Option<SegmentId> {
        let lifecycle = self.lifecycle.lock().expect("lifecycle poisoned");
        let cur = self.open.load(Ordering::Acquire);
        if self.segment(cur).len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let sealed = self.open_next(cur);
        // The gauges read the stripes, which a capacity roll holds while
        // it waits for the lifecycle lock.
        drop(lifecycle);
        arena_obs::handles().seals.inc();
        self.publish_obs_gauges();
        Some(sealed)
    }

    /// Reclaims a sealed, unpinned segment's node storage. After success,
    /// any node access into the segment panics ("use-after-retire") and
    /// the segment's dedup entries are treated as misses; the id is never
    /// reused. Memory safety never depends on the caller being right —
    /// in-flight [`ArenaView`]s hold the chunk `Arc`s — but the caller
    /// must have proven that no live ref reaches the segment, or later
    /// traversals will panic.
    pub fn retire(&self, id: SegmentId) -> Result<RetiredStorage, RetireError> {
        let lifecycle = self.lifecycle.lock().expect("lifecycle poisoned");
        let seg = self.segment_if_opened(id.0).ok_or(RetireError::Unknown)?;
        match seg.state.load(Ordering::Acquire) {
            STATE_OPEN => return Err(RetireError::Open),
            STATE_RETIRED => return Err(RetireError::AlreadyRetired),
            _ => {}
        }
        // Dekker-style handshake with `pin` (which increments pins and
        // *then* checks the state): publish RETIRED first, then look at
        // the pin count. Under the SeqCst total order, a pinner either
        // increments before our load — we see the pin, roll back, and
        // return `Pinned` (the pinner re-reads SEALED and proceeds) — or
        // increments after, in which case it observes RETIRED and backs
        // out. Checking pins *before* the store would let a racing pin
        // slip between check and store and then walk freed chunks.
        seg.state.store(STATE_RETIRED, Ordering::SeqCst);
        let pins = seg.pins.load(Ordering::SeqCst);
        if pins > 0 {
            seg.state.store(STATE_SEALED, Ordering::SeqCst);
            return Err(RetireError::Pinned(pins));
        }
        // Interior retire: `scan_low` is the lowest non-retired segment
        // (exact — it only moves under the lifecycle lock we hold), so a
        // higher id means a lower segment is still resident.
        let interior = id.0 > self.scan_low.load(Ordering::Acquire);
        let freed = {
            let mut chunks = seg.chunks.write().expect("segment chunks poisoned");
            std::mem::take(&mut *chunks)
        };
        let nodes = seg.nodes() as u64;
        self.retired_nodes.fetch_add(nodes, Ordering::Relaxed);
        let retired_so_far = self.retired_segments.fetch_add(1, Ordering::Relaxed);
        // Advance the stats scan floor past the fully-retired prefix
        // (amortized O(1) per retire; we hold the lifecycle lock).
        let open = self.open.load(Ordering::Acquire);
        let mut low = self.scan_low.load(Ordering::Acquire);
        while low < open && self.segment(low).state.load(Ordering::Acquire) == STATE_RETIRED {
            low += 1;
        }
        self.scan_low.store(low, Ordering::Release);
        // A capacity roll takes the lifecycle lock under a stripe lock, so
        // the sweep and the gauges below must not hold it.
        drop(lifecycle);
        // Amortized dedup hygiene: each retire sweeps one stripe
        // round-robin, so stale entries survive at most `stripes` retires
        // (correctness never needs the sweep — probes skip dead entries).
        let sweep = retired_so_far as usize % self.stripes.len();
        self.stripes[sweep]
            .lock()
            .expect("arena stripe poisoned")
            .sweep(|r| self.is_live(r));
        let h = arena_obs::handles();
        h.retires.inc();
        if interior {
            h.interior_retires.inc();
        }
        h.retired_nodes.add(nodes);
        self.publish_obs_gauges();
        Ok(RetiredStorage {
            nodes,
            chunks: freed.chunks().len(),
            interior,
        })
    }

    /// Pins a segment against retirement ([`LineageArena::retire`] returns
    /// [`RetireError::Pinned`] while any pin is held). Panics if the
    /// segment is already retired.
    pub fn pin(&self, id: SegmentId) -> SegmentPin<'_> {
        match self.try_pin(id) {
            Ok(pin) => pin,
            Err(RetireError::Unknown) => panic!("pin of unopened segment {id}"),
            Err(_) => panic!("lineage use-after-retire: segment {id} was retired"),
        }
    }

    /// [`LineageArena::pin`], returning the failure instead of panicking —
    /// the probe callers that treat a retired segment as "skip" rather
    /// than "bug" (the columnar valuation walk over a segment range with
    /// interior holes) use this.
    pub fn try_pin(&self, id: SegmentId) -> Result<SegmentPin<'_>, RetireError> {
        let seg = self.segment_if_opened(id.0).ok_or(RetireError::Unknown)?;
        seg.pins.fetch_add(1, Ordering::SeqCst);
        // Counterpart of `retire`'s handshake: RETIRED observed here is
        // either a retire that is about to roll back because it sees our
        // pin (spin briefly — it holds the lifecycle lock for a few
        // atomics only), or a genuinely committed retirement (the state
        // never leaves RETIRED again — fail after the grace spins).
        let mut spins = 0u32;
        while seg.state.load(Ordering::SeqCst) == STATE_RETIRED {
            if spins >= 128 {
                seg.pins.fetch_sub(1, Ordering::SeqCst);
                return Err(RetireError::AlreadyRetired);
            }
            spins += 1;
            std::thread::yield_now();
        }
        Ok(SegmentPin { seg, id })
    }

    /// A pinned snapshot of one segment's dense slot array for columnar
    /// walks ([`crate::prob::marginal_batch`]): the published prefix is
    /// iterated by **slot index**, and children are always interned no
    /// later than their parents, so a single in-order pass sees every
    /// child before its first parent. Returns `None` for retired or
    /// never-opened segments (interior-reclamation holes in a batch's
    /// segment range are skipped, not errors). The pin is held for the
    /// snapshot's lifetime, so a racing retire fails `Pinned` instead of
    /// invalidating the walk.
    pub fn snapshot_segment(&self, id: SegmentId) -> Option<SegmentSnapshot<'_>> {
        let pin = self.try_pin(id).ok()?;
        let seg = self.segment(id.0);
        let len = seg.nodes();
        let chunks = seg.read_chunks().clone();
        Some(SegmentSnapshot {
            _pin: pin,
            chunks,
            len,
        })
    }

    /// Reads a node's metadata under its segment's chunk-list read guard,
    /// which only chunk allocation and retirement contend.
    #[inline]
    fn meta(&self, r: LineageRef) -> Meta {
        meta_in(&self.segment_of(r).read_chunks(), r).0
    }

    /// The segment holding `r`, which must belong to this arena.
    #[inline]
    fn segment_of(&self, r: LineageRef) -> &Segment {
        self.segment_if_opened(r.segment().0)
            .unwrap_or_else(|| panic!("lineage ref {r:?} from a foreign arena"))
    }

    /// The shape of a node (copied out; cheap).
    pub(crate) fn node(&self, r: LineageRef) -> LineageNode {
        self.meta(r).node()
    }

    /// Tree-semantic formula size (saturating at `u32::MAX`).
    pub(crate) fn size(&self, r: LineageRef) -> u64 {
        self.meta(r).size().into()
    }

    /// Tree-semantic variable occurrences, with multiplicity (saturating
    /// at `u32::MAX`).
    pub(crate) fn occurrences(&self, r: LineageRef) -> u64 {
        self.meta(r).occurrences().into()
    }

    /// The 1OF flag (see invariant 3 on conservatism).
    pub(crate) fn one_of(&self, r: LineageRef) -> bool {
        self.meta(r).one_of()
    }

    /// Runs `f` on the exact sorted distinct-variable set, when known. A
    /// stored list is shared, never copied, and no lock is held while `f`
    /// runs.
    pub(crate) fn var_list<T>(&self, r: LineageRef, f: impl FnOnce(Option<&[TupleId]>) -> T) -> T {
        with_var_set(self, r, f).expect("arena reads resolve every live ref")
    }

    /// The `[lo, hi]` variable range summary.
    pub fn var_range(&self, r: LineageRef) -> (TupleId, TupleId) {
        let [lo, hi] = self.meta(r).range();
        (lo, hi)
    }

    /// The smallest segment reachable from `r`'s sub-DAG: every segment a
    /// traversal of `r` can touch lies in `[min_segment(r), r.segment()]`.
    /// The liveness primitive of the streaming engine's retire schedule.
    pub fn min_segment(&self, r: LineageRef) -> SegmentId {
        SegmentId(self.meta(r).min_seg())
    }

    /// Whether `var` can occur in the formula (exact when the set is
    /// known, range-approximate otherwise — false negatives impossible).
    pub(crate) fn may_contain(&self, r: LineageRef, var: TupleId) -> bool {
        self.var_list(r, |set| match set {
            Some(list) => list.binary_search(&var).is_ok(),
            None => {
                let (lo, hi) = self.var_range(r);
                lo <= var && var <= hi
            }
        })
    }

    /// A read view for tight traversal loops (valuation, evaluation):
    /// the view pins each touched segment once, caches its chunk list, and
    /// thereafter resolves nodes with array indexing and plain loads — no
    /// lock per node, except a stored variable list's brief store lock.
    /// Pinning makes a racing [`LineageArena::retire`]
    /// fail ([`RetireError::Pinned`]) instead of invalidating the walk.
    pub fn view(&self) -> ArenaView<'_> {
        ArenaView {
            arena: self,
            segments: RefCell::new(FastMap::default()),
        }
    }

    /// The segments still holding storage (open or sealed), in id order.
    /// The prefix below `scan_low` is entirely retired and skipped, so a
    /// long-running reclaiming stream pays O(live segments), not
    /// O(segments ever opened).
    fn live_segment_iter(&self) -> impl Iterator<Item = &Segment> {
        let open = self.open.load(Ordering::Acquire);
        (self.scan_low.load(Ordering::Acquire)..=open)
            .map(|id| self.segment(id))
            .filter(|seg| seg.state.load(Ordering::Acquire) != STATE_RETIRED)
    }

    /// Live (resident, non-retired) node count: the claimed slots of the
    /// live segments. O(live segments), cheap enough for per-advance
    /// gauges; exact in quiescence.
    pub fn live_nodes(&self) -> u64 {
        self.live_segment_iter()
            .map(|seg| u64::from(seg.nodes()))
            .sum()
    }

    /// Segments still holding storage (open or sealed) — O(1).
    pub fn live_segments(&self) -> usize {
        let open = self.open.load(Ordering::Acquire) as usize;
        open + 1 - self.retired_segments.load(Ordering::Relaxed) as usize
    }

    /// Resident bytes of chunk slot storage alone, skipping the list
    /// stores [`LineageArena::stats`] also counts. O(live segments) —
    /// cheap enough to publish as a gauge on every seal/retire.
    pub fn resident_chunk_bytes(&self) -> usize {
        self.live_segment_iter()
            .map(|seg| chunk_start(seg.read_chunks().chunks().len()))
            .sum::<usize>()
            * std::mem::size_of::<NodeSlot>()
    }

    /// Bytes of the dedup tables (slot capacity × 12), read under each
    /// stripe's lock.
    fn dedup_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("arena stripe poisoned").slots.len())
            .sum::<usize>()
            * std::mem::size_of::<DedupSlot>()
    }

    /// Publishes the cheap gauges to the global metrics registry.
    /// Called on seal/retire; callers may also invoke it after a batch.
    pub fn publish_obs_gauges(&self) {
        let h = arena_obs::handles();
        h.live_nodes.set(self.live_nodes() as i64);
        h.live_segments.set(self.live_segments() as i64);
        h.resident_bytes.set(self.resident_chunk_bytes() as i64);
        h.dedup_bytes.set(self.dedup_bytes() as i64);
    }

    /// Arena statistics. Counts are exact in quiescence and approximate
    /// under concurrent interning; walks every live node.
    pub fn stats(&self) -> ArenaStats {
        let open = self.open.load(Ordering::Acquire);
        let retired_nodes = self.retired_nodes.load(Ordering::Relaxed);
        let retired_segments = self.retired_segments.load(Ordering::Relaxed) as usize;
        let (mut nodes, mut resident_bytes, mut with_var_list) = (0usize, 0usize, 0usize);
        for seg in self.live_segment_iter() {
            let live = seg.nodes() as usize;
            nodes += live;
            let chunks = seg.read_chunks();
            for (c, chunk) in chunks.chunks().iter().enumerate() {
                resident_bytes += chunk_capacity(c) * std::mem::size_of::<NodeSlot>();
                resident_bytes += chunk.list_bytes();
                let used = live.saturating_sub(chunk_start(c)).min(chunk.slots.len());
                with_var_list += chunk.slots[..used]
                    .iter()
                    .filter_map(Meta::load)
                    .filter(|m| m.occurrences() <= VAR_LIST_CAP as u32)
                    .count();
            }
        }
        ArenaStats {
            nodes,
            total_interned: retired_nodes + nodes as u64,
            retired_nodes,
            segments: open as usize + 1,
            live_segments: open as usize + 1 - retired_segments,
            retired_segments,
            resident_bytes,
            dedup_bytes: self.dedup_bytes(),
            with_var_list,
        }
    }
}

impl Slots for LineageArena {
    #[inline]
    fn read<T>(&self, r: LineageRef, f: impl FnOnce(Meta, &Chunk) -> T) -> Option<T> {
        let chunks = self.segment_of(r).read_chunks();
        let (m, chunk) = meta_in(&chunks, r);
        Some(f(m, chunk))
    }
}

/// RAII pin of one segment; see [`LineageArena::pin`].
pub struct SegmentPin<'a> {
    seg: &'a Segment,
    id: SegmentId,
}

impl SegmentPin<'_> {
    /// The pinned segment.
    pub fn id(&self) -> SegmentId {
        self.id
    }
}

impl Drop for SegmentPin<'_> {
    fn drop(&mut self) {
        self.seg.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A pinned per-segment slot-array snapshot for columnar walks; see
/// [`LineageArena::snapshot_segment`].
pub struct SegmentSnapshot<'a> {
    _pin: SegmentPin<'a>,
    chunks: ChunkList,
    len: u32,
}

impl SegmentSnapshot<'_> {
    /// Slots claimed at snapshot time; `node_at` is defined for
    /// `0..len()`.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the segment had no claimed slot at snapshot time.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The node shape and 1OF flag at `slot`, or `None` while the slot's
    /// publication is still in flight (a concurrent intern claimed it
    /// but has not stored its last word — never the case for sealed
    /// segments).
    #[inline]
    pub fn node_at(&self, slot: u32) -> Option<(LineageNode, bool)> {
        let (meta, _) = self.chunks.meta(slot)?;
        Some((meta.node(), meta.one_of()))
    }
}

/// Cached per-segment state of an [`ArenaView`]: the pin plus the chunk
/// list snapshot.
struct ViewSegment<'a> {
    _pin: SegmentPin<'a>,
    chunks: ChunkList,
}

/// Pinned read access to the arena for traversal loops; see
/// [`LineageArena::view`]. Segment chunk lists are snapshotted on first
/// touch (a `RefCell` makes the view single-threaded, which traversals
/// are), then every later access to the same segment is pure indexing.
/// Interning while a view is alive is allowed: a node appended after the
/// snapshot makes the view re-read the chunk list.
pub struct ArenaView<'a> {
    arena: &'a LineageArena,
    segments: RefCell<FastMap<u32, ViewSegment<'a>>>,
}

impl ArenaView<'_> {
    /// Resolves `r` via the per-segment snapshot, pinning the segment on
    /// first touch. A miss on an already-snapshotted segment means the
    /// node was appended after the snapshot (same-thread interleaved
    /// interning): the chunk list is re-read **while the existing pin is
    /// kept**, so the segment stays retire-proof across the refresh.
    #[inline]
    fn with_slot<T>(&self, r: LineageRef, f: impl FnOnce(Meta, &Chunk) -> T) -> T {
        let seg_id = r.segment().0;
        let mut segments = self.segments.borrow_mut();
        let entry = segments.entry(seg_id).or_insert_with(|| {
            let pin = self.arena.pin(r.segment());
            let chunks = self.arena.segment(seg_id).read_chunks().clone();
            ViewSegment { _pin: pin, chunks }
        });
        if let Some((meta, chunk)) = entry.chunks.meta(r.slot()) {
            return f(meta, chunk);
        }
        entry.chunks = self.arena.segment(seg_id).read_chunks().clone();
        let (meta, chunk) = entry
            .chunks
            .meta(r.slot())
            .unwrap_or_else(|| panic!("read of unpublished slot {r:?}"));
        f(meta, chunk)
    }

    /// The shape of a node.
    #[inline]
    pub fn node(&self, r: LineageRef) -> LineageNode {
        self.with_slot(r, |m, _| m.node())
    }

    /// The node's 1OF flag.
    #[inline]
    pub fn one_of(&self, r: LineageRef) -> bool {
        self.with_slot(r, |m, _| m.one_of())
    }

    /// Runs `f` on the node's exact sorted distinct-variable set, when
    /// known (shared, never copied; no lock is held while `f` runs).
    #[inline]
    pub fn var_list<T>(&self, r: LineageRef, f: impl FnOnce(Option<&[TupleId]>) -> T) -> T {
        with_var_set(self, r, f).expect("view reads resolve every live ref")
    }
}

impl Slots for ArenaView<'_> {
    #[inline]
    fn read<T>(&self, r: LineageRef, f: impl FnOnce(Meta, &Chunk) -> T) -> Option<T> {
        Some(self.with_slot(r, f))
    }
}

/// `r`'s published metadata in its segment's chunk list, and its chunk.
#[inline]
fn meta_in(chunks: &ChunkList, r: LineageRef) -> (Meta, &Chunk) {
    let (c, off) = chunk_of(r.slot());
    let chunk = chunks.chunks().get(c).unwrap_or_else(|| {
        panic!(
            "lineage use-after-retire: {:?} in retired segment {}",
            r,
            r.segment()
        )
    });
    let meta = Meta::load(&chunk.slots[off]).expect("read of unpublished slot");
    (meta, chunk)
}

/// Merges two sorted sets into `out` (which holds at least the union),
/// returning the union's length.
fn merge_sorted(a: &[TupleId], b: &[TupleId], out: &mut [TupleId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[n] = x.min(y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        n += 1;
    }
    for &v in a[i..].iter().chain(&b[j..]) {
        out[n] = v;
        n += 1;
    }
    n
}

fn sorted_disjoint(a: &[TupleId], b: &[TupleId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(i: u64) -> LineageRef {
        LineageArena::global().intern(LineageNode::Var(TupleId(i)))
    }

    #[test]
    fn interning_is_idempotent() {
        let a = var(900_001);
        let b = var(900_001);
        assert_eq!(a, b);
        let arena = LineageArena::global();
        let n1 = arena.intern(LineageNode::And(a, b));
        let n2 = arena.intern(LineageNode::And(a, b));
        assert_eq!(n1, n2);
        assert_ne!(n1, a);
    }

    #[test]
    fn metadata_composes() {
        let arena = LineageArena::global();
        let a = var(910_000);
        let b = var(910_001);
        let and = arena.intern(LineageNode::And(a, b));
        assert_eq!(arena.size(and), 3);
        assert_eq!(arena.occurrences(and), 2);
        assert!(arena.one_of(and));
        let rep = arena.intern(LineageNode::Or(and, a));
        assert_eq!(arena.occurrences(rep), 3);
        assert!(!arena.one_of(rep));
        arena.var_list(rep, |list| {
            assert_eq!(list, Some(&[TupleId(910_000), TupleId(910_001)][..]));
        });
    }

    #[test]
    fn var_list_capped_for_large_formulas() {
        let arena = LineageArena::global();
        let mut acc = var(920_000);
        for i in 1..(VAR_LIST_CAP as u64 + 40) {
            let v = var(920_000 + i);
            acc = arena.intern(LineageNode::Or(acc, v));
        }
        assert!(arena.var_list(acc, |list| list.is_none()));
        // Disjoint-range composition keeps exact 1OF tracking even without
        // the list.
        assert!(arena.one_of(acc));
        let (lo, hi) = arena.var_range(acc);
        assert_eq!(lo, TupleId(920_000));
        assert_eq!(hi, TupleId(920_000 + VAR_LIST_CAP as u64 + 39));
    }

    #[test]
    fn may_contain_has_no_false_negatives() {
        let arena = LineageArena::global();
        let a = var(930_000);
        let b = var(930_002);
        let and = arena.intern(LineageNode::And(a, b));
        assert!(arena.may_contain(and, TupleId(930_000)));
        assert!(arena.may_contain(and, TupleId(930_002)));
        // Exact list: the gap variable is correctly excluded.
        assert!(!arena.may_contain(and, TupleId(930_001)));
    }

    #[test]
    fn stats_report_growth() {
        let before = LineageArena::global().stats().nodes;
        let _ = var(940_000);
        let after = LineageArena::global().stats().nodes;
        assert!(after > before);
    }

    #[test]
    fn standalone_arena_shard_counts() {
        assert_eq!(LineageArena::with_shards(1).shard_count(), 1);
        assert_eq!(LineageArena::with_shards(3).shard_count(), 4);
        assert_eq!(LineageArena::with_shards(64).shard_count(), MAX_SHARDS);
        assert_eq!(LineageArena::global().shard_count(), MAX_SHARDS);
    }

    /// `resident_bytes` counts the slots and, per list, the `Arc`'s two
    /// counts and its variables, plus the store's `Vec` capacity. A `Not`
    /// over a list node stores no list of its own.
    #[test]
    fn resident_bytes_count_list_stores_exactly() {
        let arena = LineageArena::with_shards(1);
        let v: Vec<LineageRef> = (0..4u64)
            .map(|i| arena.intern(LineageNode::Var(TupleId(2 * i))))
            .collect();
        let pair = arena.intern(LineageNode::Or(v[0], v[1]));
        let three = arena.intern(LineageNode::And(pair, v[2]));
        let four = arena.intern(LineageNode::Or(three, v[3]));
        arena.intern(LineageNode::Not(four));
        let (lists, capacity) = {
            let chunks = arena.segment(0).read_chunks();
            let store = chunks.chunks()[0].lists.lock().unwrap();
            (store.len(), store.capacity())
        };
        assert_eq!(lists, 2, "the 3- and 4-variable nodes");
        let expected = FIRST_CHUNK as usize * 48 + capacity * 16 + (16 + 3 * 8) + (16 + 4 * 8);
        assert_eq!(arena.stats().resident_bytes, expected);
        assert_eq!(arena.resident_chunk_bytes(), FIRST_CHUNK as usize * 48);
    }

    #[test]
    fn standalone_arena_is_independent() {
        let arena = LineageArena::with_shards(2);
        let a = arena.intern(LineageNode::Var(TupleId(1)));
        let b = arena.intern(LineageNode::Var(TupleId(2)));
        let and = arena.intern(LineageNode::And(a, b));
        assert_eq!(arena.intern(LineageNode::And(a, b)), and);
        assert_eq!(arena.size(and), 3);
        assert_eq!(arena.stats().nodes, 3);
    }

    #[test]
    fn chunk_addressing_is_dense_and_geometric() {
        assert_eq!(chunk_of(0), (0, 0));
        assert_eq!(chunk_of(FIRST_CHUNK - 1), (0, FIRST_CHUNK as usize - 1));
        assert_eq!(chunk_of(FIRST_CHUNK), (1, 0));
        assert_eq!(chunk_of(GEO_END), (GEO_CHUNKS as usize, 0));
        assert_eq!(
            chunk_capacity(GEO_CHUNKS as usize - 1),
            FLAT_CHUNK as usize / 2
        );
        // Every chunk boundary up to `SEG_CAP - 1`: the chunk's first slot
        // maps to offset 0 of it, the slot before to the last offset of
        // the previous chunk, and the chunks tile the segment.
        let last = chunk_of(SEG_CAP - 1).0;
        assert_eq!(last + 1, MAX_CHUNKS);
        for c in 0..=last {
            let start = chunk_start(c);
            assert_eq!(chunk_of(start as u32), (c, 0), "chunk {c}");
            if c > 0 {
                assert_eq!(
                    chunk_of(start as u32 - 1),
                    (c - 1, chunk_capacity(c - 1) - 1),
                    "chunk {c}"
                );
                assert_eq!(chunk_start(c - 1) + chunk_capacity(c - 1), start);
            }
        }
        assert!(chunk_start(last) + chunk_capacity(last) >= SEG_CAP as usize);
        // Slack: a segment of `n` slots allocates fewer than `n` slots
        // plus one flat chunk.
        for n in (1..3_000_000u32)
            .step_by(997)
            .chain([GEO_END, GEO_END + 1, SEG_CAP])
        {
            let chunks = chunk_of(n - 1).0 + 1;
            let allocated: usize = (0..chunks).map(chunk_capacity).sum();
            assert!(allocated < n as usize + FLAT_CHUNK as usize, "n {n}");
        }
    }

    /// Every `h32` stored in one stripe, one per occupied slot.
    fn stripe_tags(arena: &LineageArena, stripe: usize) -> Vec<u32> {
        let table = arena.stripes[stripe].lock().unwrap();
        let tags: Vec<u32> = table
            .slots
            .iter()
            .filter(|s| s[0] | s[1] != 0)
            .map(|s| s[2])
            .collect();
        assert_eq!(tags.len(), table.len);
        tags
    }

    /// The stripe bits must stay out of the `h32` a dedup slot stores:
    /// every key of a stripe shares them, so a stripe bit in `h32` would
    /// be constant within the stripe (as the stripe bits once fixed 4 of
    /// the 7 tag bits of hashbrown tables, leaving a stripe's keys 8 of
    /// 128 tags). Each stripe's probe starts must spread as uniformly
    /// random ones would.
    #[test]
    fn stripes_leave_h32_free_of_stripe_bits() {
        let arena = LineageArena::with_shards(MAX_SHARDS);
        // Every pair of 320 variables: 51 040 distinct `And` nodes.
        let vars: Vec<LineageRef> = (0..320u64)
            .map(|i| arena.intern(LineageNode::Var(TupleId(i))))
            .collect();
        for (i, &a) in vars.iter().enumerate() {
            for &b in &vars[i + 1..] {
                arena.intern(LineageNode::And(a, b));
            }
        }
        let mut entries = 0;
        for stripe in 0..arena.stripes.len() {
            let tags = stripe_tags(&arena, stripe);
            entries += tags.len();
            // No bit of h32 is constant across the stripe.
            let (all_and, all_or) = tags
                .iter()
                .fold((u32::MAX, 0u32), |(and, or), &t| (and & t, or | t));
            assert_eq!(all_and, 0, "stripe {stripe}: h32 bits always set");
            assert_eq!(all_or, u32::MAX, "stripe {stripe}: h32 bits never set");
            // Probe starts: as many distinct ones as n uniform draws from
            // the table's slots would take, within 10 %.
            let slots = arena.stripes[stripe].lock().unwrap().slots.len();
            let mut starts: Vec<usize> = tags.iter().map(|&t| t as usize & (slots - 1)).collect();
            starts.sort_unstable();
            starts.dedup();
            let (n, c) = (tags.len() as f64, slots as f64);
            let expected = c * (1.0 - (1.0 - 1.0 / c).powf(n));
            assert!(
                starts.len() as f64 >= 0.9 * expected,
                "stripe {stripe}: {} distinct probe starts, {expected:.0} expected",
                starts.len()
            );
        }
        assert_eq!(entries, 320 + 51_040);
    }

    /// Interns a chain over `n` fresh variables in `arena`: the variables
    /// and the `Or`s folding them, `2n - 1` nodes.
    fn intern_chain(arena: &LineageArena, base: u64, n: u64) -> Vec<(LineageNode, LineageRef)> {
        let mut out = Vec::new();
        let mut acc = None;
        for i in 0..n {
            let node = LineageNode::Var(TupleId(base + i));
            let v = arena.intern(node);
            out.push((node, v));
            if let Some(prev) = acc {
                let node = LineageNode::Or(prev, v);
                let r = arena.intern(node);
                out.push((node, r));
                acc = Some(r);
            } else {
                acc = Some(v);
            }
        }
        out
    }

    #[test]
    fn dedup_hits_survive_table_growth() {
        let arena = LineageArena::with_shards(1);
        let nodes = intern_chain(&arena, 0, 1_000);
        let slots = arena.stripes[0].lock().unwrap().slots.len();
        // 16 → 4 096 slots: eight doublings.
        assert!(slots >= DEDUP_MIN_SLOTS << 4, "{slots} slots");
        let total = arena.stats().total_interned;
        assert_eq!(total, 1_999);
        for &(node, r) in &nodes {
            assert_eq!(arena.intern(node), r, "{node:?}");
        }
        assert_eq!(arena.stats().total_interned, total);
        assert_eq!(arena.stats().dedup_bytes, slots * 12);
    }

    #[test]
    fn dedup_sweep_keeps_every_live_entry_findable() {
        // Probe starts crowded into few slots, clusters that wrap past the
        // table's end, and dead entries spread through them: after the
        // in-place sweep every live entry is found at its own ref and no
        // dead one is.
        for seed in 0..200u64 {
            let mut t = DedupTable::default();
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let n = 20 + next() % 40;
            let entries: Vec<(u32, LineageRef, bool)> = (0..n)
                .map(|k| {
                    let h32 = (next() % 8) as u32 * 9 + 60; // starts near the end
                    (
                        h32,
                        LineageRef((k << 32) | (next() % 1000)),
                        next() % 3 == 0,
                    )
                })
                .collect();
            for &(h32, r, _) in &entries {
                t.insert(h32, r, |_| true);
            }
            let dead = |r: LineageRef| entries.iter().any(|e| e.1 == r && e.2);
            t.sweep(|r| !dead(r));
            let live = entries.iter().filter(|e| !e.2).count();
            assert_eq!(t.len, live, "seed {seed}");
            for &(h32, r, is_dead) in &entries {
                let found = t.get(h32, |c| c == r);
                assert_eq!(found, (!is_dead).then_some(r), "seed {seed} {r:?}");
            }
        }
    }

    #[test]
    fn retired_dedup_entries_are_skipped_then_swept() {
        // Two stripes: the first retire sweeps stripe 0, the second
        // stripe 1. The variable lives in stripe 1, so after the first
        // retire its dead entry is still in the table.
        let arena = LineageArena::with_shards(2);
        let v = (0..)
            .map(|i| LineageNode::Var(TupleId(i)))
            .find(|n| arena.dedup_key(n).0 == 1)
            .unwrap();
        let (_, h32) = arena.dedup_key(&v);
        let dead = arena.intern(v);
        let seg0 = arena.seal().unwrap();
        arena.retire(seg0).unwrap();
        assert_eq!(stripe_tags(&arena, 1), [h32]);
        // The dead entry's h32 matches the fresh intern; it is skipped,
        // never returned.
        let fresh = arena.intern(v);
        assert_ne!(fresh, dead);
        assert!(arena.is_live(fresh));
        assert_eq!(stripe_tags(&arena, 1), [h32, h32]);
        assert_eq!(arena.intern(v), fresh);
        // Retire a later segment: that sweep is stripe 1's, and it drops
        // the dead entry but keeps the live one.
        let seg1 = arena.seal().unwrap();
        let filler = arena.intern(LineageNode::Var(TupleId(1 << 40)));
        let seg2 = arena.seal().unwrap();
        assert_eq!((seg1, filler.segment()), (SegmentId(1), seg2));
        arena.retire(seg2).unwrap();
        assert_eq!(stripe_tags(&arena, 1), [h32]);
        assert_eq!(arena.intern(v), fresh);
        assert_eq!(arena.stats().total_interned, 3);
    }

    #[test]
    fn seal_retire_lifecycle() {
        let arena = LineageArena::with_shards(4);
        let a = arena.intern(LineageNode::Var(TupleId(1)));
        let seg0 = arena.seal().expect("segment 0 is non-empty");
        assert_eq!(seg0, SegmentId(0));
        assert_eq!(arena.segment_state(seg0), Some(SegmentState::Sealed));
        assert_eq!(arena.open_segment(), SegmentId(1));
        // Sealing an empty open segment is a no-op.
        assert_eq!(arena.seal(), None);
        // Nodes in sealed segments stay readable; new interns land in the
        // open segment.
        assert_eq!(arena.size(a), 1);
        let b = arena.intern(LineageNode::Var(TupleId(2)));
        assert_eq!(b.segment(), SegmentId(1));
        let and = arena.intern(LineageNode::And(a, b));
        assert_eq!(and.segment(), SegmentId(1));
        assert_eq!(arena.min_segment(and), SegmentId(0));
        assert_eq!(arena.min_segment(b), SegmentId(1));
        // Retiring the open segment or an already retired one fails.
        assert_eq!(arena.retire(SegmentId(1)), Err(RetireError::Open));
        let freed = arena.retire(seg0).expect("sealed + unpinned");
        assert_eq!(freed.nodes, 1);
        assert_eq!(arena.retire(seg0), Err(RetireError::AlreadyRetired));
        assert_eq!(arena.segment_state(seg0), Some(SegmentState::Retired));
        let stats = arena.stats();
        assert_eq!(stats.retired_segments, 1);
        assert_eq!(stats.retired_nodes, 1);
        assert_eq!(stats.nodes, 2);
    }

    #[test]
    fn use_after_retire_panics() {
        let arena = LineageArena::with_shards(2);
        let a = arena.intern(LineageNode::Var(TupleId(7)));
        let seg = arena.seal().unwrap();
        arena.retire(seg).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| arena.size(a)))
            .expect_err("reading a retired node must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("use-after-retire"), "got: {msg}");
    }

    #[test]
    fn is_live_flips_on_retire() {
        let arena = LineageArena::with_shards(2);
        let a = arena.intern(LineageNode::Var(TupleId(7)));
        assert!(arena.is_live(a), "open segment");
        let seg = arena.seal().unwrap();
        assert!(arena.is_live(a), "sealed segments stay readable");
        let b = arena.intern(LineageNode::Var(TupleId(8)));
        arena.retire(seg).unwrap();
        assert!(!arena.is_live(a), "retired");
        assert!(arena.is_live(b), "a later segment is unaffected");
        // A live handle is what `intern` returns again; a dead one is not.
        assert_eq!(arena.intern(LineageNode::Var(TupleId(8))), b);
        let a2 = arena.intern(LineageNode::Var(TupleId(7)));
        assert_ne!(a2, a);
        assert!(arena.is_live(a2));
        // A ref into a segment this arena never opened is not live.
        assert!(!arena.is_live(LineageRef::encode(999, 0)));
    }

    #[test]
    fn pins_block_retirement() {
        let arena = LineageArena::with_shards(2);
        let a = arena.intern(LineageNode::Var(TupleId(9)));
        let seg = arena.seal().unwrap();
        {
            let _pin = arena.pin(seg);
            assert_eq!(arena.retire(seg), Err(RetireError::Pinned(1)));
            assert_eq!(arena.size(a), 1);
        }
        assert!(arena.retire(seg).is_ok());
    }

    #[test]
    fn views_pin_their_segments() {
        let arena = LineageArena::with_shards(2);
        let a = arena.intern(LineageNode::Var(TupleId(3)));
        let seg = arena.seal().unwrap();
        let view = arena.view();
        assert_eq!(view.node(a), LineageNode::Var(TupleId(3)));
        assert!(matches!(arena.retire(seg), Err(RetireError::Pinned(_))));
        drop(view);
        assert!(arena.retire(seg).is_ok());
    }

    #[test]
    fn dedup_survives_retirement() {
        // After a segment retires, re-interning the same shape must yield
        // a fresh live ref (never the dangling one), and the new ref obeys
        // hash-consing among live handles.
        let arena = LineageArena::with_shards(2);
        let a = arena.intern(LineageNode::Var(TupleId(5)));
        let seg = arena.seal().unwrap();
        arena.retire(seg).unwrap();
        let a2 = arena.intern(LineageNode::Var(TupleId(5)));
        assert_ne!(a, a2, "dangling dedup hit");
        assert_eq!(a2.segment(), SegmentId(1));
        assert_eq!(arena.intern(LineageNode::Var(TupleId(5))), a2);
        assert_eq!(arena.size(a2), 1);
    }

    #[test]
    fn interning_while_view_is_alive_is_allowed() {
        // Views hold no lock between reads, and refresh their snapshot
        // for nodes appended after the first touch.
        let arena = LineageArena::with_shards(2);
        let a = arena.intern(LineageNode::Var(TupleId(1)));
        let view = arena.view();
        assert_eq!(view.node(a), LineageNode::Var(TupleId(1)));
        let b = arena.intern(LineageNode::Var(TupleId(2)));
        assert_eq!(view.node(b), LineageNode::Var(TupleId(2)));
        drop(view);
    }

    #[test]
    fn scoped_arena_redirects_lineage_api() {
        use crate::lineage::Lineage;
        let private = LineageArena::shared(2);
        let before_global = LineageArena::global().stats().total_interned;
        {
            let _scope = LineageArena::enter(&private);
            let l = Lineage::and(
                &Lineage::var(TupleId(777_001)),
                &Lineage::var(TupleId(777_002)),
            );
            assert_eq!(l.size(), 3);
            assert_eq!(private.stats().nodes, 3);
            assert!(LineageArena::with_current(|a| std::ptr::eq(a, &*private)));
        }
        assert!(LineageArena::with_current(|a| std::ptr::eq(
            a,
            LineageArena::global()
        )));
        // Nothing leaked into the global arena from inside the scope.
        // (Other tests intern concurrently into the global arena, so only
        // assert the private count, plus monotonicity globally.)
        assert!(LineageArena::global().stats().total_interned >= before_global);
        assert_eq!(private.stats().nodes, 3);
    }

    #[test]
    fn capacity_numbers_are_consistent() {
        // The last chunk must cover SEG_CAP.
        let total: usize = (0..MAX_CHUNKS).map(chunk_capacity).sum();
        assert!(total >= SEG_CAP as usize);
        const { assert!(GEO_END < FLAT_CHUNK) };
        const { assert!(DIR_CHUNK * DIR_SLOTS >= 4_000_000) };
    }

    #[test]
    fn concurrent_interning_converges() {
        // Hammer the striped intern path from several
        // threads building the same and disjoint nodes, across several
        // dedup table growths per stripe; hash-consing must stay
        // consistent.
        const N: u64 = 2_000;
        let arena = LineageArena::with_shards(MAX_SHARDS);
        let refs: Vec<Vec<LineageRef>> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|t| {
                    let arena = &arena;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for i in 0..N {
                            // Shared across threads:
                            let shared = arena.intern(LineageNode::Var(TupleId(i)));
                            // Disjoint per thread:
                            let own = arena.intern(LineageNode::Var(TupleId(10_000 + t * N + i)));
                            out.push(arena.intern(LineageNode::And(shared, own)));
                        }
                        out
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        // Every node interned exactly once.
        assert_eq!(arena.stats().total_interned, N + 4 * 2 * N);
        // Each stripe holds about 1 100 entries: at least 2 048 slots, so
        // it grew at least seven times from 16.
        for stripe in arena.stripes.iter() {
            assert!(stripe.lock().unwrap().slots.len() >= DEDUP_MIN_SLOTS << 7);
        }
        // Shared vars interned exactly once: re-interning yields equal refs.
        for i in 0..N {
            let again = arena.intern(LineageNode::Var(TupleId(i)));
            assert_eq!(again, arena.intern(LineageNode::Var(TupleId(i))));
        }
        // Each thread's And nodes are distinct (disjoint `own` vars), are
        // dedup hits to themselves, and their metadata is consistent.
        for (t, thread_refs) in refs.iter().enumerate() {
            for (i, &r) in thread_refs.iter().enumerate() {
                assert_eq!(arena.size(r), 3, "thread {t} node {i}");
                assert!(arena.one_of(r));
                assert_eq!(arena.intern(arena.node(r)), r);
            }
        }
        assert_eq!(arena.stats().total_interned, N + 4 * 2 * N);
    }

    #[test]
    fn concurrent_interning_across_seals() {
        // Interleave seals with concurrent interning: every returned ref
        // must stay readable and consistent (seals only close segments;
        // retirement is the caller's decision).
        let arena = LineageArena::with_shards(MAX_SHARDS);
        std::thread::scope(|scope| {
            let sealer = scope.spawn(|| {
                for _ in 0..50 {
                    let _ = arena.seal();
                    std::thread::yield_now();
                }
            });
            let workers: Vec<_> = (0..3u64)
                .map(|t| {
                    let arena = &arena;
                    scope.spawn(move || {
                        let mut prev = arena.intern(LineageNode::Var(TupleId(t)));
                        for i in 0..500u64 {
                            let v = arena.intern(LineageNode::Var(TupleId(100 + t * 1_000 + i)));
                            prev = arena.intern(LineageNode::And(prev, v));
                            assert_eq!(arena.size(prev), 2 * (i + 1) + 1);
                        }
                        prev
                    })
                })
                .collect();
            sealer.join().unwrap();
            for w in workers {
                let root = w.join().unwrap();
                assert_eq!(arena.occurrences(root), 501);
            }
        });
    }

    /// Checks one published slot a snapshot returned: a well-formed node
    /// of the shapes the publication tests intern (variables at or above
    /// `1_000`, distinct `And` / `Or` operands) whose children precede it
    /// and read back as published nodes.
    fn assert_well_formed(arena: &LineageArena, at: LineageRef, node: LineageNode) {
        let children = match node {
            LineageNode::Var(id) => {
                assert!(id.0 >= 1_000, "{at:?}: {node:?} has an unwritten operand");
                return;
            }
            LineageNode::Not(c) => vec![c],
            LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                assert_ne!(a, b, "{at:?}: {node:?} has unwritten operands");
                vec![a, b]
            }
        };
        for c in children {
            assert!(c < at, "{at:?}: child {c:?} does not precede it");
            let snap = arena.snapshot_segment(c.segment()).expect("live child");
            let (child, _) = snap
                .node_at(c.slot())
                .unwrap_or_else(|| panic!("{at:?}: child {c:?} unpublished"));
            if let LineageNode::Var(id) = child {
                assert!(id.0 >= 1_000, "{at:?}: child {c:?} is {child:?}");
            }
        }
    }

    /// Interns the chain of a publication test: over variables
    /// `base..base + n`, `acc = Or(acc, v)`, then `Not(acc)` and
    /// `And(Not(acc), v)`. Every interned node is new. Each returned ref
    /// and its node go to `out`.
    fn publication_chain(
        arena: &LineageArena,
        base: u64,
        n: u64,
        mut out: impl FnMut(LineageRef, LineageNode),
    ) {
        let mut intern = |node: LineageNode| {
            let r = arena.intern(node);
            out(r, node);
            r
        };
        let mut acc = intern(LineageNode::Var(TupleId(base)));
        for i in 1..n {
            let v = intern(LineageNode::Var(TupleId(base + i)));
            acc = intern(LineageNode::Or(acc, v));
            let not = intern(LineageNode::Not(acc));
            intern(LineageNode::And(not, v));
        }
    }

    /// Counts a writer thread as finished when dropped, also while it
    /// unwinds, so a reader waiting for the writers never outlives a
    /// writer's panic.
    struct Finished<'a>(&'a std::sync::atomic::AtomicU32);

    impl Drop for Finished<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Release);
        }
    }

    /// Two writers intern chains while a reader walks the open segment's
    /// snapshot slot by slot, spinning on the newest: every slot a
    /// snapshot returns must be a whole node, never one whose last word
    /// is stored and whose operands are not. Meanwhile every ref an
    /// intern returned must read back its exact node, variable set
    /// included, through an `ArenaView`. A last pass after the writers
    /// finish covers every slot.
    #[test]
    fn concurrent_readers_see_only_published_slots() {
        const N: u64 = 1_500;
        let arena = LineageArena::with_shards(MAX_SHARDS);
        let (tx, rx) = std::sync::mpsc::channel::<(LineageRef, LineageNode)>();
        let done = std::sync::atomic::AtomicU32::new(0);
        let start = std::sync::Barrier::new(3);
        let walked = std::thread::scope(|scope| {
            for t in 0..2u64 {
                let (arena, tx, done, start) = (&arena, tx.clone(), &done, &start);
                scope.spawn(move || {
                    let _finished = Finished(done);
                    start.wait();
                    publication_chain(arena, 1_000 + t * 100_000, N, |r, node| {
                        tx.send((r, node)).expect("reader alive");
                    });
                });
            }
            drop(tx);
            // Each writer sends children before parents, so every child's
            // variable set is known when its parent arrives.
            let view = arena.view();
            let mut sets: HashMap<LineageRef, std::collections::BTreeSet<TupleId>> = HashMap::new();
            let mut check_ref = |r: LineageRef, node: LineageNode| {
                assert_eq!(view.node(r), node, "{r:?}");
                let set = match node {
                    LineageNode::Var(id) => [id].into(),
                    LineageNode::Not(c) => sets[&c].clone(),
                    LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                        sets[&a].union(&sets[&b]).copied().collect()
                    }
                };
                let stored = view.var_list(r, |set| set.map(<[TupleId]>::to_vec));
                let known = arena.occurrences(r) <= VAR_LIST_CAP as u64;
                let expected = known.then(|| set.iter().copied().collect::<Vec<_>>());
                assert_eq!(stored, expected, "{r:?}");
                sets.insert(r, set);
            };
            start.wait();
            let mut walked = 0u32;
            loop {
                let finished = done.load(Ordering::Acquire) == 2;
                let snap = arena
                    .snapshot_segment(SegmentId(0))
                    .expect("segment 0 is open");
                while walked < snap.len() {
                    let mut spins = 0;
                    let node = loop {
                        match snap.node_at(walked) {
                            Some((node, _)) => break Some(node),
                            None if spins < 1_000 => spins += 1,
                            None => break None,
                        }
                    };
                    let Some(node) = node else { break };
                    assert_well_formed(&arena, LineageRef::encode(0, walked), node);
                    walked += 1;
                }
                for (r, node) in rx.try_iter() {
                    check_ref(r, node);
                }
                if finished {
                    break walked;
                }
            }
        });
        // Every node was new: 2 chains of 4N - 3 nodes, all walked.
        assert_eq!(u64::from(walked), 2 * (4 * N - 3));
        assert_eq!(arena.stats().total_interned, 2 * (4 * N - 3));
    }
}
