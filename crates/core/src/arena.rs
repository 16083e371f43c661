//! The hash-consed lineage arena: a segmented, reclaimable forest of
//! interned Boolean formula nodes with a lock-free append path.
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
//! slot in it with an atomic bump and publishes the node through a
//! `OnceLock` — the append path takes no lock (the residual lock stripes
//! exist only for the dedup table, see below). [`LineageArena::seal`]
//! closes the open segment and opens the next one. A segment's slots live
//! in chunks that double from 256 slots up to a flat size and then stay
//! flat, so a large segment over-allocates at most one chunk.
//! [`LineageArena::retire`] reclaims a sealed segment's storage once the
//! caller — in practice a reclaiming streaming engine — has proven
//! that no live window, cached marginal or BDD memo references it.
//! Segment ids are never reused, so a stale ref can always be *detected*:
//! any access to a retired segment panics ("use-after-retire"), and memo
//! tables keyed by dead refs are merely unreachable garbage, never wrong
//! answers (they are evicted in O(1) per segment — see
//! [`crate::relation::MarginalCache::release_segment`] and
//! [`crate::bdd::Bdd::release_segment`]).
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
//! ## Dedup stripes
//!
//! Hash-consing needs one global node → ref table. It is split into
//! [`MAX_SHARDS`] lock stripes selected by node hash bits that the
//! stripe's own table uses neither for its bucket index nor for its probe
//! tag; interning takes a read lock (hit) or a short write lock and one
//! `entry` probe (miss) on **one** stripe, and node *reads* never touch
//! the stripes at all. A dedup hit whose target
//! segment was retired is treated as a miss (the entry is overwritten with
//! the fresh intern), so ref-equality keeps meaning structural equality
//! among *live* handles; stale entries are purged amortized — every retire
//! sweeps one stripe round-robin.
//!
//! ## Memoization invariants
//!
//! 1. A `LineageRef` is never reused: segment ids are monotone and slots
//!    are append-only within a segment. Two *live* formulas are
//!    structurally equal **iff** their refs are equal.
//! 2. Node metadata is immutable once interned. The exact sorted variable
//!    set is known only while `occurrences <= VAR_LIST_CAP`: a node with
//!    one or two distinct variables reads it from its `{var_lo, var_hi}`
//!    pair and stores no list; a node with 3 to `VAR_LIST_CAP` variables
//!    keeps one heap list, allocated once from a merge on the stack (a
//!    `Not` shares its child's). Larger nodes fall back to the
//!    `[var_lo, var_hi]` range summary.
//! 3. The `one_of` flag is exact whenever both children know their
//!    variable sets or have disjoint variable ranges; otherwise it is *conservative*
//!    (may report `false` for a huge formula that is in fact 1OF). A
//!    conservative `false` only costs performance — probabilistic valuation
//!    falls back to Shannon expansion, which is exact for every formula.
//! 4. Valuation results depend on a [`crate::relation::VarTable`], so they
//!    are **not** cached here: each `VarTable` owns its own marginal cache
//!    keyed by `LineageRef`, segment-aware for O(1) eviction at retirement.
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
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::lineage::TupleId;

/// Arena-level observability: lock-free counters/gauges in the global
/// [`tp_obs`] registry, updated on the rare lifecycle operations (seal /
/// retire) so the intern hot path stays untouched. The whole module is a
/// no-op while disabled — tests flip [`set_obs_enabled`] off for a
/// genuinely uninstrumented baseline run.
mod arena_obs {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static ENABLED: AtomicBool = AtomicBool::new(true);

    /// Globally enables/disables arena metric recording (default: on).
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Whether arena metric recording is currently enabled.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Registry handles, resolved once — recording never locks the registry.
    pub(super) struct Handles {
        pub seals: Arc<tp_obs::Counter>,
        pub retires: Arc<tp_obs::Counter>,
        pub interior_retires: Arc<tp_obs::Counter>,
        pub retired_nodes: Arc<tp_obs::Counter>,
        pub batched_nodes: Arc<tp_obs::Counter>,
        pub live_nodes: Arc<tp_obs::Gauge>,
        pub live_segments: Arc<tp_obs::Gauge>,
        pub resident_bytes: Arc<tp_obs::Gauge>,
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
                live_nodes: reg.gauge("tp_arena_live_nodes", &[]),
                live_segments: reg.gauge("tp_arena_live_segments", &[]),
                resident_bytes: reg.gauge("tp_arena_resident_bytes", &[]),
            }
        })
    }

    /// Counts nodes valuated by the columnar batch kernel
    /// (`tp_core::prob::marginal_batch`) — `tp_valuation_batched_nodes_total`.
    pub(crate) fn record_batched_nodes(n: u64) {
        if enabled() && n > 0 {
            handles().batched_nodes.add(n);
        }
    }
}

pub(crate) use arena_obs::record_batched_nodes;
pub use arena_obs::{enabled as obs_enabled, set_enabled as set_obs_enabled};

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
/// memo, the intern tables, and the valuation caches.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Number of lock stripes of the dedup table (node → ref). Node storage is
/// lock-free; these stripes only serialize hash-consing lookups.
pub const MAX_SHARDS: usize = 16;

/// The stripe is `(hash >> STRIPE_SHIFT) & stripe_mask`. Each stripe's
/// table hashes the same key with the same hasher; hashbrown indexes its
/// buckets by the low bits and compares a 7-bit tag taken from the top
/// bits (57..64), so the stripe bits (52..56) must be neither, or every
/// key in a stripe shares part of its tag and each probe compares more
/// keys.
const STRIPE_SHIFT: u32 = 52;

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

/// Nodes with at most this many variable occurrences know their exact
/// sorted distinct-variable set; larger nodes keep only the
/// `[var_lo, var_hi]` range summary.
pub const VAR_LIST_CAP: usize = 128;

/// Immutable per-node metadata, computed at intern time.
#[derive(Debug)]
struct NodeMeta {
    node: LineageNode,
    /// Tree-semantic node count (saturating).
    size: u64,
    /// Tree-semantic variable occurrences, with multiplicity (saturating).
    occurrences: u64,
    /// Smallest and largest variable of the formula, `[var_lo, var_hi]`.
    /// Adjacent so that a set of one or two variables borrows from here.
    range: [TupleId; 2],
    /// Smallest segment id reachable from this node's sub-DAG. Children
    /// are interned no later than their parents, so the reachable segment
    /// set of a node is contained in `[min_seg, segment(self)]`.
    min_seg: u32,
    /// Whether the formula is in one-occurrence form (see invariant 3).
    one_of: bool,
    /// Exact sorted distinct variables when there are 3 to
    /// `VAR_LIST_CAP` of them (invariant 2); a `Not` shares its child's.
    list: Option<Arc<[TupleId]>>,
}

impl NodeMeta {
    /// The exact sorted distinct-variable set, when known (invariant 2):
    /// the heap list, or `{var_lo, var_hi}` for one or two variables.
    #[inline]
    fn vars(&self) -> Option<&[TupleId]> {
        match &self.list {
            Some(list) => Some(list),
            None if self.occurrences <= VAR_LIST_CAP as u64 => {
                let distinct = if self.range[0] == self.range[1] { 1 } else { 2 };
                Some(&self.range[..distinct])
            }
            None => None,
        }
    }
}

// Slots are most of an arena's memory: keep one at 88 bytes or less.
const _: () = assert!(std::mem::size_of::<OnceLock<NodeMeta>>() <= 88);

/// One fixed-capacity block of node slots. Slots are claimed by atomic
/// bump and published through their `OnceLock` (readers of a legitimately
/// obtained ref always observe the initialized value — publication pairs
/// the `OnceLock` release store with its acquire load).
struct Chunk {
    slots: Box<[OnceLock<NodeMeta>]>,
}

impl Chunk {
    fn new(capacity: usize) -> Arc<Chunk> {
        Arc::new(Chunk {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
        })
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

    #[inline]
    fn slot(&self, slot: u32) -> Option<&OnceLock<NodeMeta>> {
        let (c, off) = chunk_of(slot);
        self.chunks().get(c).map(|chunk| &chunk.slots[off])
    }

    fn push(&mut self, chunk: Arc<Chunk>) {
        Arc::make_mut(self.0.get_or_insert_default()).push(chunk);
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

/// One storage segment: lock-free chunked node store + lifecycle word +
/// pin refcount. The `chunks` lock is only written on chunk allocation
/// (once per chunk's worth of appends) and at retirement; reads are
/// shared and never block appends of other segments.
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
    /// Process-unique arena identity (see [`LineageArena::id`]): lets
    /// ref-keyed caches detect that a handle belongs to a different arena.
    id: u64,
    /// Id of the open segment.
    open: AtomicU32,
    /// Smallest segment id that may still hold storage: the prefix below
    /// it is entirely retired, so `stats()` walks `scan_low..=open`
    /// instead of every segment ever opened (advanced amortized-O(1) per
    /// retire under the lifecycle lock).
    scan_low: AtomicU32,
    /// Nodes ever interned (monotone).
    total_interned: AtomicU64,
    /// Nodes whose storage was reclaimed (monotone).
    retired_nodes: AtomicU64,
    /// Segments retired (monotone).
    retired_segments: AtomicU32,
    /// Serializes seal / retire / capacity rolls (rare operations).
    lifecycle: Mutex<()>,
    /// Dedup stripes: node shape → ref.
    stripes: Box<[RwLock<FastMap<LineageNode, LineageRef>>]>,
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
    /// Approximate resident bytes of live node storage (chunk slots plus
    /// exact variable lists).
    pub resident_bytes: usize,
    /// Live nodes carrying an exact variable list.
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
        static NEXT_ARENA_ID: AtomicU64 = AtomicU64::new(1);
        let count = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        let arena = LineageArena {
            dir: (0..DIR_SLOTS).map(|_| OnceLock::new()).collect(),
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed),
            open: AtomicU32::new(0),
            scan_low: AtomicU32::new(0),
            total_interned: AtomicU64::new(0),
            retired_nodes: AtomicU64::new(0),
            retired_segments: AtomicU32::new(0),
            lifecycle: Mutex::new(()),
            stripes: (0..count)
                .map(|_| RwLock::new(FastMap::default()))
                .collect(),
            stripe_mask: count as u32 - 1,
        };
        // Segment 0 exists from the start.
        let _ = arena.segment(0);
        arena
    }

    /// Process-unique identity of this arena (never 0). Ref-keyed caches
    /// record it so a handle from a *different* arena reads as a miss
    /// instead of aliasing a colliding `(segment, slot)` key — see
    /// [`crate::relation::MarginalCache`].
    pub fn id(&self) -> u64 {
        self.id
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

    #[inline]
    fn stripe_of(&self, node: &LineageNode) -> usize {
        let mut h = FastHasher::default();
        node.hash(&mut h);
        ((h.finish() >> STRIPE_SHIFT) as u32 & self.stripe_mask) as usize
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
    pub fn intern(&self, node: LineageNode) -> LineageRef {
        let sid = self.stripe_of(&node);
        // Fast path: the node already exists and is live (read lock only).
        {
            let stripe = self.stripes[sid].read().expect("arena stripe poisoned");
            if let Some(&r) = stripe.get(&node) {
                if self.is_live(r) {
                    return r;
                }
            }
        }
        // Gather child metadata with no lock held (child reads are
        // lock-free), so the stripe write lock below is the only lock this
        // thread holds — no nesting, no deadlock.
        let meta = self.build_meta(node);
        let mut stripe = self.stripes[sid].write().expect("arena stripe poisoned");
        // One probe: the entry either holds a racing writer's live copy,
        // a dead handle to overwrite, or nothing.
        match stripe.entry(node) {
            Entry::Occupied(mut e) => {
                if self.is_live(*e.get()) {
                    return *e.get(); // raced with another writer
                }
                let r = self.append(meta);
                e.insert(r);
                r
            }
            Entry::Vacant(e) => *e.insert(self.append(meta)),
        }
    }

    /// Claims a slot in the open segment (atomic bump) and publishes the
    /// node. Lock-free except for chunk allocation (once per chunk's
    /// worth of appends) and capacity rolls.
    fn append(&self, mut meta: NodeMeta) -> LineageRef {
        loop {
            let seg_id = self.open.load(Ordering::Acquire);
            let seg = self.segment(seg_id);
            let slot = seg.len.fetch_add(1, Ordering::AcqRel);
            if slot >= SEG_CAP {
                // Capacity roll: seal and move on (the claimed slot past
                // the cap is abandoned; `Segment::nodes` clamps).
                self.roll_full(seg_id);
                continue;
            }
            meta.min_seg = meta.min_seg.min(seg_id);
            let (c, off) = chunk_of(slot);
            if let Some(cell) = seg.read_chunks().slot(slot) {
                cell.set(meta)
                    .unwrap_or_else(|_| unreachable!("slot claimed twice"));
                self.total_interned.fetch_add(1, Ordering::Relaxed);
                return LineageRef::encode(seg_id, slot);
            }
            // Slow path: allocate the missing chunk(s), then publish.
            {
                let mut chunks = seg.chunks.write().expect("segment chunks poisoned");
                if seg.state.load(Ordering::Acquire) == STATE_RETIRED {
                    // A racing retire beat this straggler; its claim is
                    // abandoned and the append restarts in a live segment.
                    // (Unreachable under the documented retire contract —
                    // the caller proves quiescence first.)
                    continue;
                }
                assert!(c < MAX_CHUNKS, "slot {slot} beyond segment chunk bound");
                while chunks.chunks().len() <= c {
                    let next = chunks.chunks().len();
                    chunks.push(Chunk::new(chunk_capacity(next)));
                }
                chunks.chunks()[c].slots[off]
                    .set(meta)
                    .unwrap_or_else(|_| unreachable!("slot claimed twice"));
            }
            self.total_interned.fetch_add(1, Ordering::Relaxed);
            return LineageRef::encode(seg_id, slot);
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
        let _lc = self.lifecycle.lock().expect("lifecycle poisoned");
        let cur = self.open.load(Ordering::Acquire);
        if self.segment(cur).len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let sealed = self.open_next(cur);
        if arena_obs::enabled() {
            arena_obs::handles().seals.inc();
            self.publish_obs_gauges();
        }
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
        let _lc = self.lifecycle.lock().expect("lifecycle poisoned");
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
        // Amortized dedup hygiene: each retire sweeps one stripe
        // round-robin, so stale entries survive at most `stripes` retires
        // (correctness never needs the sweep — hits validate liveness).
        let sweep = retired_so_far as usize % self.stripes.len();
        self.stripes[sweep]
            .write()
            .expect("arena stripe poisoned")
            .retain(|_, r| self.is_live(*r));
        if arena_obs::enabled() {
            let h = arena_obs::handles();
            h.retires.inc();
            if interior {
                h.interior_retires.inc();
            }
            h.retired_nodes.add(nodes);
            self.publish_obs_gauges();
        }
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
    pub(crate) fn snapshot_segment(&self, id: SegmentId) -> Option<SegmentSnapshot<'_>> {
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

    /// Reads a node's metadata. Lock-free on the node side; the segment's
    /// chunk-list read lock is only contended by chunk allocation and
    /// retirement.
    #[inline]
    fn with_meta<T>(&self, r: LineageRef, f: impl FnOnce(&NodeMeta) -> T) -> T {
        f(meta_in(&self.segment_of(r).read_chunks(), r))
    }

    /// Reads two nodes' metadata at once, without copying either. Children
    /// in one segment share one read lock; otherwise the two segments are
    /// locked in ascending id order, so readers that wait on a queued
    /// chunk allocation can never wait on each other in a cycle.
    fn with_meta_pair<T>(
        &self,
        a: LineageRef,
        b: LineageRef,
        f: impl FnOnce(&NodeMeta, &NodeMeta) -> T,
    ) -> T {
        if a.segment() == b.segment() {
            let chunks = self.segment_of(a).read_chunks();
            f(meta_in(&chunks, a), meta_in(&chunks, b))
        } else if a.segment() < b.segment() {
            self.with_meta(a, |am| self.with_meta(b, |bm| f(am, bm)))
        } else {
            self.with_meta(b, |bm| self.with_meta(a, |am| f(am, bm)))
        }
    }

    /// The segment holding `r`, which must belong to this arena.
    #[inline]
    fn segment_of(&self, r: LineageRef) -> &Segment {
        self.segment_if_opened(r.segment().0)
            .unwrap_or_else(|| panic!("lineage ref {r:?} from a foreign arena"))
    }

    /// Computes metadata for a node whose children are already interned.
    /// Nothing is allocated unless the node has 3 to `VAR_LIST_CAP`
    /// distinct variables of its own (a `Not` shares its child's list).
    fn build_meta(&self, node: LineageNode) -> NodeMeta {
        match node {
            LineageNode::Var(id) => NodeMeta {
                node,
                size: 1,
                occurrences: 1,
                range: [id, id],
                min_seg: u32::MAX, // clamped to the owning segment on append
                one_of: true,
                list: None,
            },
            LineageNode::Not(c) => self.with_meta(c, |cm| NodeMeta {
                node,
                size: cm.size.saturating_add(1),
                occurrences: cm.occurrences,
                range: cm.range,
                min_seg: cm.min_seg.min(c.segment().0),
                one_of: cm.one_of,
                list: cm.list.clone(),
            }),
            LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                self.with_meta_pair(a, b, |am, bm| {
                    let occurrences = am.occurrences.saturating_add(bm.occurrences);
                    let ([a_lo, a_hi], [b_lo, b_hi]) = (am.range, bm.range);
                    let (av, bv) = (am.vars(), bm.vars());
                    let disjoint = a_hi < b_lo
                        || b_hi < a_lo
                        || match (av, bv) {
                            (Some(av), Some(bv)) => sorted_disjoint(av, bv),
                            // Conservative: a huge overlapping-range pair is
                            // treated as sharing a variable (invariant 3).
                            _ => false,
                        };
                    let list = if occurrences <= VAR_LIST_CAP as u64 {
                        // Both children are below the cap too, so their sets
                        // are known: merge exactly on the stack.
                        let (av, bv) = (
                            av.expect("child below cap has a var set"),
                            bv.expect("child below cap has a var set"),
                        );
                        let mut merged = [TupleId(0); VAR_LIST_CAP];
                        let n = merge_sorted(av, bv, &mut merged);
                        (n > 2).then(|| Arc::from(&merged[..n]))
                    } else {
                        None
                    };
                    NodeMeta {
                        node,
                        size: am.size.saturating_add(bm.size).saturating_add(1),
                        occurrences,
                        range: [a_lo.min(b_lo), a_hi.max(b_hi)],
                        min_seg: am
                            .min_seg
                            .min(bm.min_seg)
                            .min(a.segment().0)
                            .min(b.segment().0),
                        one_of: am.one_of && bm.one_of && disjoint,
                        list,
                    }
                })
            }
        }
    }

    /// The shape of a node (copied out; cheap).
    pub(crate) fn node(&self, r: LineageRef) -> LineageNode {
        self.with_meta(r, |m| m.node)
    }

    /// Tree-semantic formula size.
    pub(crate) fn size(&self, r: LineageRef) -> u64 {
        self.with_meta(r, |m| m.size)
    }

    /// Tree-semantic variable occurrences (with multiplicity).
    pub(crate) fn occurrences(&self, r: LineageRef) -> u64 {
        self.with_meta(r, |m| m.occurrences)
    }

    /// The 1OF flag (see invariant 3 on conservatism).
    pub(crate) fn one_of(&self, r: LineageRef) -> bool {
        self.with_meta(r, |m| m.one_of)
    }

    /// Runs `f` on the exact sorted distinct-variable set, when known
    /// (borrowed from the node, never allocated).
    pub(crate) fn var_list<T>(&self, r: LineageRef, f: impl FnOnce(Option<&[TupleId]>) -> T) -> T {
        self.with_meta(r, |m| f(m.vars()))
    }

    /// The `[lo, hi]` variable range summary.
    pub fn var_range(&self, r: LineageRef) -> (TupleId, TupleId) {
        self.with_meta(r, |m| (m.range[0], m.range[1]))
    }

    /// The smallest segment reachable from `r`'s sub-DAG: every segment a
    /// traversal of `r` can touch lies in `[min_segment(r), r.segment()]`.
    /// The liveness primitive of the streaming engine's retire schedule.
    pub fn min_segment(&self, r: LineageRef) -> SegmentId {
        SegmentId(self.with_meta(r, |m| m.min_seg))
    }

    /// Whether `var` can occur in the formula (exact when the list is
    /// stored, range-approximate otherwise — false negatives impossible).
    pub(crate) fn may_contain(&self, r: LineageRef, var: TupleId) -> bool {
        self.with_meta(r, |m| match m.vars() {
            Some(list) => list.binary_search(&var).is_ok(),
            None => m.range[0] <= var && var <= m.range[1],
        })
    }

    /// A read view for tight traversal loops (valuation, evaluation):
    /// the view pins each touched segment once, caches its chunk list, and
    /// thereafter resolves nodes with pure array indexing — no lock, no
    /// atomics per node. Pinning makes a racing [`LineageArena::retire`]
    /// fail ([`RetireError::Pinned`]) instead of invalidating the walk.
    pub fn view(&self) -> ArenaView<'_> {
        ArenaView {
            arena: self,
            segments: RefCell::new(FastMap::default()),
        }
    }

    /// Live (resident, non-retired) node count from the monotone atomics —
    /// O(1), cheap enough for per-advance gauges.
    pub fn live_nodes(&self) -> u64 {
        self.total_interned
            .load(Ordering::Relaxed)
            .saturating_sub(self.retired_nodes.load(Ordering::Relaxed))
    }

    /// Segments still holding storage (open or sealed) — O(1).
    pub fn live_segments(&self) -> usize {
        let open = self.open.load(Ordering::Acquire) as usize;
        open + 1 - self.retired_segments.load(Ordering::Relaxed) as usize
    }

    /// Resident bytes of chunk slot storage alone, skipping the per-node
    /// variable-list walk of [`LineageArena::stats`]. O(live segments) —
    /// cheap enough to publish as a gauge on every seal/retire.
    pub fn resident_chunk_bytes(&self) -> usize {
        let open = self.open.load(Ordering::Acquire);
        let mut bytes = 0usize;
        for id in self.scan_low.load(Ordering::Acquire)..=open {
            let seg = self.segment(id);
            if seg.state.load(Ordering::Acquire) == STATE_RETIRED {
                continue;
            }
            bytes += chunk_start(seg.read_chunks().chunks().len())
                * std::mem::size_of::<OnceLock<NodeMeta>>();
        }
        bytes
    }

    /// Publishes the O(1)/cheap gauges to the global metrics registry.
    /// Called on seal/retire; callers may also invoke it after a batch.
    pub fn publish_obs_gauges(&self) {
        if !arena_obs::enabled() {
            return;
        }
        let h = arena_obs::handles();
        h.live_nodes.set(self.live_nodes() as i64);
        h.live_segments.set(self.live_segments() as i64);
        h.resident_bytes.set(self.resident_chunk_bytes() as i64);
    }

    /// Arena statistics. Counts are exact in quiescence and approximate
    /// under concurrent interning; `resident_bytes` walks live segments.
    pub fn stats(&self) -> ArenaStats {
        let open = self.open.load(Ordering::Acquire);
        let total = self.total_interned.load(Ordering::Relaxed);
        let retired_nodes = self.retired_nodes.load(Ordering::Relaxed);
        let retired_segments = self.retired_segments.load(Ordering::Relaxed) as usize;
        let mut resident_bytes = 0usize;
        let mut with_var_list = 0usize;
        // The prefix below `scan_low` is entirely retired — skip it, so a
        // long-running reclaiming stream pays O(live segments) per stats
        // call, not O(segments ever opened).
        for id in self.scan_low.load(Ordering::Acquire)..=open {
            let seg = self.segment(id);
            if seg.state.load(Ordering::Acquire) == STATE_RETIRED {
                continue;
            }
            let live = seg.nodes() as usize;
            let chunks = seg.read_chunks();
            for (c, chunk) in chunks.chunks().iter().enumerate() {
                resident_bytes += chunk_capacity(c) * std::mem::size_of::<OnceLock<NodeMeta>>();
                let start = chunk_start(c);
                for off in 0..chunk.slots.len() {
                    if start + off >= live {
                        break;
                    }
                    if let Some(m) = chunk.slots[off].get() {
                        if m.vars().is_some() {
                            with_var_list += 1;
                        }
                        if let Some(list) = &m.list {
                            resident_bytes += list.len() * std::mem::size_of::<TupleId>();
                        }
                    }
                }
            }
        }
        ArenaStats {
            nodes: (total - retired_nodes) as usize,
            total_interned: total,
            retired_nodes,
            segments: open as usize + 1,
            live_segments: open as usize + 1 - retired_segments,
            retired_segments,
            resident_bytes,
            with_var_list,
        }
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
pub(crate) struct SegmentSnapshot<'a> {
    _pin: SegmentPin<'a>,
    chunks: ChunkList,
    len: u32,
}

impl SegmentSnapshot<'_> {
    /// Slots claimed at snapshot time; `node_at` is defined for
    /// `0..len()`.
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// The node shape and 1OF flag at `slot`, or `None` while the slot's
    /// publication is still in flight (a concurrent intern claimed it
    /// after our length read — never the case for sealed segments).
    #[inline]
    pub(crate) fn node_at(&self, slot: u32) -> Option<(LineageNode, bool)> {
        let meta = self.chunks.slot(slot)?.get()?;
        Some((meta.node, meta.one_of))
    }
}

/// Cached per-segment state of an [`ArenaView`]: the pin plus the chunk
/// list snapshot.
struct ViewSegment<'a> {
    _pin: SegmentPin<'a>,
    chunks: ChunkList,
}

/// Pinned, lock-free read access to the arena for traversal loops; see
/// [`LineageArena::view`]. Segment chunk lists are snapshotted on first
/// touch (a `RefCell` makes the view single-threaded, which traversals
/// are), then every later access to the same segment is pure indexing.
/// Unlike the old lock-striped view, interning while a view is alive is
/// allowed — appends never conflict with readers.
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
    fn with_meta<T>(&self, r: LineageRef, f: impl FnOnce(&NodeMeta) -> T) -> T {
        let seg_id = r.segment().0;
        let mut segments = self.segments.borrow_mut();
        let entry = segments.entry(seg_id).or_insert_with(|| {
            let pin = self.arena.pin(r.segment());
            let chunks = self.arena.segment(seg_id).read_chunks().clone();
            ViewSegment { _pin: pin, chunks }
        });
        if let Some(meta) = entry.chunks.slot(r.slot()).and_then(OnceLock::get) {
            return f(meta);
        }
        entry.chunks = self.arena.segment(seg_id).read_chunks().clone();
        let meta = entry
            .chunks
            .slot(r.slot())
            .and_then(OnceLock::get)
            .unwrap_or_else(|| panic!("read of unpublished slot {r:?}"));
        f(meta)
    }

    /// The shape of a node.
    #[inline]
    pub fn node(&self, r: LineageRef) -> LineageNode {
        self.with_meta(r, |m| m.node)
    }

    /// The node's 1OF flag.
    #[inline]
    pub fn one_of(&self, r: LineageRef) -> bool {
        self.with_meta(r, |m| m.one_of)
    }

    /// Runs `f` on the node's exact sorted distinct-variable set, when
    /// known (borrowed, never allocated).
    #[inline]
    pub fn var_list<T>(&self, r: LineageRef, f: impl FnOnce(Option<&[TupleId]>) -> T) -> T {
        self.with_meta(r, |m| f(m.vars()))
    }
}

/// `r`'s published metadata in its segment's chunk list.
#[inline]
fn meta_in(chunks: &ChunkList, r: LineageRef) -> &NodeMeta {
    chunks
        .slot(r.slot())
        .unwrap_or_else(|| {
            panic!(
                "lineage use-after-retire: {:?} in retired segment {}",
                r,
                r.segment()
            )
        })
        .get()
        .expect("read of unpublished slot")
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

    /// The dedup stripe must not be chosen from the top hash bits: each
    /// stripe's table takes its 7-bit hashbrown tag from there, and with
    /// the stripe in bits 60..64 every key of a stripe shared 4 of its 7
    /// tag bits, so a stripe's keys took only 8 of the 128 tags and each
    /// probe compared about 16x more keys.
    #[test]
    fn stripes_leave_the_hashbrown_tag_free() {
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
        let mut ands = 0;
        for stripe in arena.stripes.iter() {
            let stripe = stripe.read().unwrap();
            let mut tags = [false; 128];
            for node in stripe.keys() {
                let mut h = FastHasher::default();
                node.hash(&mut h);
                tags[(h.finish() >> 57) as usize] = true;
                ands += usize::from(matches!(node, LineageNode::And(..)));
            }
            let distinct = tags.iter().filter(|&&t| t).count();
            assert!(distinct >= 100, "stripe keys take {distinct} of 128 tags");
        }
        assert!(ands >= 50_000, "{ands} And nodes");
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
        // The old lock-striped design forbade this (self-deadlock); the
        // lock-free store makes it legal, and views refresh their snapshot
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
            assert_eq!(LineageArena::with_current(|a| a.id()), private.id());
        }
        let global_id = LineageArena::global().id();
        assert_eq!(LineageArena::with_current(|a| a.id()), global_id);
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
        // Hammer the lock-free append + striped dedup path from several
        // threads building the same and disjoint nodes; hash-consing must
        // stay consistent.
        let arena = LineageArena::with_shards(MAX_SHARDS);
        let refs: Vec<Vec<LineageRef>> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|t| {
                    let arena = &arena;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for i in 0..200u64 {
                            // Shared across threads:
                            let shared = arena.intern(LineageNode::Var(TupleId(i)));
                            // Disjoint per thread:
                            let own =
                                arena.intern(LineageNode::Var(TupleId(10_000 + t * 1_000 + i)));
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
        // Shared vars interned exactly once: re-interning yields equal refs.
        for i in 0..200u64 {
            let again = arena.intern(LineageNode::Var(TupleId(i)));
            assert_eq!(again, arena.intern(LineageNode::Var(TupleId(i))));
        }
        // Each thread's And nodes are distinct (disjoint `own` vars) and
        // metadata is consistent.
        for (t, thread_refs) in refs.iter().enumerate() {
            for (i, &r) in thread_refs.iter().enumerate() {
                assert_eq!(arena.size(r), 3, "thread {t} node {i}");
                assert!(arena.one_of(r));
            }
        }
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
}
