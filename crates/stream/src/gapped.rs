//! The ingestion index: a gapped, learned-model-indexed buffer for
//! out-of-order tuple arrival.
//!
//! The legacy ingest path buffers arrivals in an unsorted `Vec` and pays a
//! full `O(k log k)` comparison sort at **every** watermark advance — on
//! the sequential path and once per region worker on the parallel path.
//! [`GappedBuffer`] replaces that with the classic gapped-array + learned
//! index combination (PGM/ALEX-style): tuples live in a slot array with
//! deliberate gaps, keyed by `(winTs, seq)`; a piecewise-linear model over
//! the timestamps predicts where a key belongs, so an out-of-order insert
//! lands in the right gap after an ε-bounded local search and at most a
//! short shift — O(1) amortized. A watermark advance then *drains* an
//! already-ordered prefix instead of sorting:
//!
//! * [`GappedBuffer::drain_below`] removes everything starting below the
//!   watermark and returns it in LAWA's `(F, Ts)` [`TpTuple::sort_key`]
//!   order. The index keeps timestamp order for free; the fact-major
//!   regroup is a hash group-by plus a sort over the **distinct facts**
//!   only — `O(k + f log f)` for `k` drained tuples over `f` facts, never
//!   a per-tuple comparison sort.
//! * The drained prefix's timestamp-ordered start points come along for
//!   free ([`Drained::starts`]), which is exactly what the region planner
//!   needs for **exact** tuple-count quantile cuts
//!   (`RegionPlan::balanced_from_index`) — no 2048-sample approximation.
//! * [`GappedBuffer::cut_offsets`] answers the same quantile question for
//!   the *buffered* (not yet drained) population, and
//!   [`GappedBuffer::rank_below`] estimates the buffered load below a
//!   prospective watermark straight off the model — the `StreamServer`
//!   scheduler's per-tenant gauge.
//!
//! ## Retrain policy
//!
//! The model is rebuilt ("retrained") together with the slot layout when
//! the structure degrades, never incrementally patched:
//!
//! * **density overflow** — occupancy crossing `MAX_OCCUPANCY` (7/8), or an
//!   insert finding no gap within [`MAX_SHIFT`] slots of its position;
//! * **model drift** — too many inserts escaping the ε-window around the
//!   model's prediction since the last retrain (each miss costs a full
//!   binary search; a bounded miss *rate* keeps inserts O(1) amortized).
//!
//! Drains never trigger a rebuild: the drained prefix stays dead space
//! until the append frontier reaches the array's end, and the rebuild that
//! fires there re-spaces the survivors over the full retained capacity.
//! Capacity is monotone — it tracks the historical peak buffered load
//! (plus 50 % headroom), so a steady-state stream pays roughly one O(n)
//! rebuild per capacity's worth of inserts — amortized O(1) per tuple.
//!
//! A rebuild re-spaces the entries evenly at [`GAP_FACTOR`]× slack and
//! fits fresh piecewise-linear segments with a shrinking-cone pass bounded
//! by [`MODEL_EPSILON`] slots of error.
//!
//! ## When the legacy buffer still wins
//!
//! The drain's fact regroup sorts the distinct facts; a stream whose every
//! tuple carries a fresh fact (`f ≈ k`) pays `O(k log k)` there and gains
//! nothing over sorting — plus per-insert index upkeep. Timestamp floods
//! (many tuples on one timestamp) similarly defeat any timestamp model:
//! every insert in the flood escapes the ε-window. `BufferKind::Legacy`
//! stays selectable for those shapes (and for differential testing).

use tp_core::arena::FastMap;
use tp_core::interval::TimePoint;
use tp_core::tuple::TpTuple;

/// Index-level observability: retrain/miss counters and the shift-distance
/// histogram in the global [`tp_obs`] registry, plus a `retrain` sub-span
/// timing each rebuild. Counters are one relaxed atomic each, cheap enough
/// for the insert hot path; the module is a no-op while disabled (the
/// `observability` bench's uninstrumented baseline —
/// [`crate::obs::set_obs_enabled`] flips it together with the arena's
/// flag).
mod index_obs {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static ENABLED: AtomicBool = AtomicBool::new(true);

    /// Globally enables/disables index metric recording (default: on).
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    pub(super) fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    struct Handles {
        retrains: Arc<tp_obs::Counter>,
        misses: Arc<tp_obs::Counter>,
        shifts: Arc<tp_obs::Histogram>,
        ctx: u32,
    }

    fn handles() -> &'static Handles {
        static HANDLES: OnceLock<Handles> = OnceLock::new();
        HANDLES.get_or_init(|| {
            let reg = tp_obs::global();
            Handles {
                retrains: reg.counter("tp_index_retrains_total", &[]),
                misses: reg.counter("tp_index_model_misses_total", &[]),
                shifts: reg.histogram("tp_index_shift_distance", &[]),
                ctx: tp_obs::ctx_id("index"),
            }
        })
    }

    /// Counts one ε-window escape (full binary-search fallback).
    pub(super) fn record_miss() {
        if enabled() {
            handles().misses.inc();
        }
    }

    /// Counts one insert that displaced `dist` occupied slots.
    pub(super) fn record_shift(dist: usize) {
        if enabled() {
            handles().shifts.record(dist as u64);
        }
    }

    /// Counts one rebuild and records its `retrain` sub-span (`arg` =
    /// entries re-spaced).
    pub(super) fn record_retrain(ts_ns: u64, dur_ns: u64, entries: u64) {
        if enabled() {
            let h = handles();
            h.retrains.inc();
            tp_obs::record_span("retrain", "sub", ts_ns, dur_ns, h.ctx, entries);
        }
    }

    /// Nanosecond clock read, zero when disabled (rebuilds pass it back to
    /// [`record_retrain`]).
    pub(super) fn now_ns_if_enabled() -> u64 {
        if enabled() {
            tp_obs::now_ns()
        } else {
            0
        }
    }
}

/// Globally enables/disables gapped-index metric recording (default: on).
pub use index_obs::set_enabled as set_obs_enabled;

/// Maximum prediction error (in slots) the piecewise-linear model accepts
/// at retrain time: every key's true slot is within ε of the model's
/// prediction until inserts drift the layout.
pub const MODEL_EPSILON: usize = 16;

/// Half-width of the local search window around a prediction before the
/// insert falls back to a full binary search (a counted *model miss*).
const SEARCH_WINDOW: usize = 4 * MODEL_EPSILON;

/// Farthest an insert will shift neighbors to reach a gap before forcing a
/// rebuild instead.
const MAX_SHIFT: usize = 32;

/// Slot-per-entry ratio after a rebuild (2 = 50 % occupancy).
const GAP_FACTOR: usize = 2;

/// Smallest slot allocation (avoids rebuild thrash on tiny buffers).
const MIN_SLOTS: usize = 16;

/// One occupied slot: the `(winTs, seq)` key plus its tuple. `seq` is the
/// arrival counter — it makes keys unique (distinct facts may share a
/// start point) and the layout deterministic for any arrival order.
#[derive(Debug, Clone)]
struct Slot {
    ts: TimePoint,
    seq: u64,
    tuple: TpTuple,
}

/// One linear segment of the learned model: keys at or above `first_ts`
/// (up to the next segment) predict slot `first_slot + slope · (ts −
/// first_ts)`.
#[derive(Debug, Clone, Copy)]
struct ModelSegment {
    first_ts: TimePoint,
    first_slot: f64,
    slope: f64,
}

/// Per-advance index gauges, drained by
/// [`GappedBuffer::take_epoch_stats`] (the engine resets them every
/// watermark advance and surfaces them through `AdvanceStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEpochStats {
    /// Tuples inserted since the last drain.
    pub inserts: u64,
    /// Model + layout rebuilds since the last drain.
    pub retrains: u64,
    /// Inserts whose key escaped the ε-window around the model's
    /// prediction (each cost a full binary search).
    pub model_misses: u64,
    /// Histogram of per-insert shift distances; bucket `d` counts inserts
    /// that shifted `d` occupied slots (`MAX_SHIFT` buckets, last bucket
    /// absorbs the tail).
    pub shifts: [u32; MAX_SHIFT + 1],
}

impl Default for IndexEpochStats {
    fn default() -> Self {
        IndexEpochStats {
            inserts: 0,
            retrains: 0,
            model_misses: 0,
            shifts: [0; MAX_SHIFT + 1],
        }
    }
}

impl IndexEpochStats {
    /// Merges another epoch's counters into this one (the engine combines
    /// both sides' buffers).
    pub fn absorb(&mut self, other: &IndexEpochStats) {
        self.inserts += other.inserts;
        self.retrains += other.retrains;
        self.model_misses += other.model_misses;
        for (a, b) in self.shifts.iter_mut().zip(other.shifts.iter()) {
            *a += *b;
        }
    }

    /// The 99th-percentile shift distance (0 when nothing was inserted).
    pub fn shift_p99(&self) -> u32 {
        let total: u64 = self.shifts.iter().map(|&c| u64::from(c)).sum();
        if total == 0 {
            return 0;
        }
        let threshold = total - total / 100; // ceil(0.99 · total)
        let mut seen = 0u64;
        for (d, &c) in self.shifts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= threshold {
                return d as u32;
            }
        }
        MAX_SHIFT as u32
    }
}

/// The closed prefix a drain released.
#[derive(Debug, Clone, Default)]
pub struct Drained {
    /// The drained tuples in LAWA's `(F, Ts)` sort-key order — ready to
    /// sweep, no comparison sort on the tuple count.
    pub tuples: Vec<TpTuple>,
    /// The same tuples' start points in **timestamp** order (the index's
    /// native order) — the exact-quantile input for
    /// `RegionPlan::balanced_from_index`.
    pub starts: Vec<TimePoint>,
}

/// A gapped, learned-index tuple buffer ordered by `(winTs, seq)`. See the
/// module docs for the design; `tp-stream`'s engine owns one per input
/// side under `BufferKind::Sorted`.
#[derive(Debug, Default)]
pub struct GappedBuffer {
    slots: Vec<Option<Slot>>,
    /// Occupied-slot count.
    len: usize,
    /// Index of the first occupied slot (everything below is a drained
    /// gap), `slots.len()` when empty.
    head: usize,
    /// One past the last occupied slot.
    tail: usize,
    /// Arrival counter; the tie-breaking half of the key.
    seq: u64,
    model: Vec<ModelSegment>,
    /// Model misses since the last retrain (drives the drift trigger).
    misses_since_retrain: u64,
    /// Stash for the one insert `place_near` could not complete (picked
    /// back up by the rebuild fallback).
    pending_slot: Option<Slot>,
    epoch: IndexEpochStats,
    retrains_total: u64,
}

impl GappedBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        GappedBuffer::default()
    }

    /// Buffered tuple count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total rebuilds over the buffer's lifetime.
    pub fn retrains_total(&self) -> u64 {
        self.retrains_total
    }

    /// Current gap occupancy in permille (0 when no slots are allocated).
    pub fn occupancy_permille(&self) -> u32 {
        if self.slots.is_empty() {
            0
        } else {
            (self.len * 1000 / self.slots.len()) as u32
        }
    }

    /// Allocated slot count (occupied + gaps).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Iterates the buffered tuples in `(winTs, seq)` order.
    pub fn iter(&self) -> impl Iterator<Item = &TpTuple> {
        self.slots[self.head.min(self.slots.len())..self.tail]
            .iter()
            .filter_map(|s| s.as_ref().map(|s| &s.tuple))
    }

    /// The largest interval end point among the buffered tuples (O(n)
    /// scan; `StreamEngine::finish` calls it once per stream).
    pub fn max_interval_end(&self) -> Option<TimePoint> {
        if self.len == 0 {
            None
        } else {
            self.iter().map(|t| t.interval.end()).max()
        }
    }

    /// Takes and resets the per-advance gauges.
    pub fn take_epoch_stats(&mut self) -> IndexEpochStats {
        std::mem::take(&mut self.epoch)
    }

    /// Inserts one tuple, keyed by its start point and an internal arrival
    /// counter. O(1) amortized: an ε-bounded search around the model's
    /// prediction, a local shift within gap slack, and an occasional O(n)
    /// rebuild paid for by O(n) preceding inserts.
    pub fn push(&mut self, tuple: TpTuple) {
        let ts = tuple.interval.start();
        let seq = self.seq;
        self.seq += 1;
        self.epoch.inserts += 1;
        // Density overflow or accumulated model drift: retrain first, then
        // place into the fresh layout.
        let drifted = self.misses_since_retrain > (self.len as u64 / 8).max(32);
        if self.len + 1 >= self.slots.len() * 7 / 8 || drifted {
            self.rebuild(Some(Slot { ts, seq, tuple }));
            return;
        }
        let pos = self.insertion_point(ts, seq);
        if !self.place_near(pos, Slot { ts, seq, tuple }) {
            // No gap within MAX_SHIFT on either side: rebuild, re-spacing
            // everything (the pending slot rides along).
            let slot = self.pending_slot.take().expect("stashed by place_near");
            self.rebuild(Some(slot));
        }
    }

    /// Drains every tuple starting below `w`, returning the prefix in
    /// `(F, Ts)` sort-key order together with its timestamp-ordered start
    /// points. O(k + f log f) for `k` drained tuples over `f` distinct
    /// facts.
    pub fn drain_below(&mut self, w: TimePoint) -> Drained {
        let boundary = self.lower_bound(w, 0, self.head, self.tail);
        let mut ts_order: Vec<TpTuple> = Vec::new();
        for slot in &mut self.slots[self.head.min(boundary)..boundary] {
            if let Some(s) = slot.take() {
                ts_order.push(s.tuple);
            }
        }
        self.len -= ts_order.len();
        self.head = boundary;
        if self.len == 0 {
            self.head = self.slots.len();
            self.tail = self.head;
        }
        // No rebuild here: the drained prefix stays dead space until the
        // append frontier reaches the array's end, whose rebuild re-spaces
        // over the full retained capacity — one O(n) rebuild per roughly
        // one capacity's worth of inserts, instead of one per drain.
        let starts: Vec<TimePoint> = ts_order.iter().map(|t| t.interval.start()).collect();
        Drained {
            tuples: regroup_fact_major(ts_order),
            starts,
        }
    }

    /// Exact tuple-count quantile start positions of the buffered tuples
    /// below `w`: `cuts[i]` is the start of the `⌈(i+1)·k/regions⌉`-th of
    /// the `k` qualifying tuples. The region planner's per-buffer answer;
    /// the engine combines both sides via
    /// `RegionPlan::balanced_from_index` on the drained starts instead,
    /// which merges the two sides exactly.
    pub fn cut_offsets(&self, w: TimePoint, regions: usize) -> Vec<TimePoint> {
        let regions = regions.max(1);
        let starts: Vec<TimePoint> = self
            .iter()
            .map(|t| t.interval.start())
            .take_while(|&s| s < w)
            .collect();
        let n = starts.len();
        if regions == 1 || n < regions {
            return Vec::new();
        }
        let mut cuts = Vec::with_capacity(regions - 1);
        for k in 1..regions {
            let cut = starts[(k * n / regions).min(n - 1)];
            if cut > starts[0] {
                cuts.push(cut);
            }
        }
        cuts.dedup();
        cuts
    }

    /// Estimated count of buffered tuples starting below `w`, read off the
    /// index in O(log n): the slot boundary for `w` scaled by the current
    /// occupancy. A *scheduling gauge* (the `StreamServer` budget split) —
    /// deterministic but approximate; it never affects results.
    pub fn rank_below(&self, w: TimePoint) -> usize {
        if self.len == 0 {
            return 0;
        }
        let boundary = self.lower_bound(w, 0, self.head, self.tail);
        let span = (self.tail - self.head).max(1);
        (self.len * (boundary - self.head.min(boundary)) / span).min(self.len)
    }

    /// The slot index `i` in `[lo, hi)` such that every occupied slot
    /// below `i` has key < `(ts, seq)` and every occupied slot at or above
    /// has key ≥: binary search with gap skipping, narrowed to the model's
    /// ε-window first.
    fn lower_bound(&self, ts: TimePoint, seq: u64, lo: usize, hi: usize) -> usize {
        let (mut lo, mut hi) = (lo.min(hi), hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            // The probe key: nearest occupied slot at or after mid (gaps
            // carry no key). An all-gap upper half means the answer is in
            // the lower half.
            let mut probe = mid;
            while probe < hi && self.slots[probe].is_none() {
                probe += 1;
            }
            if probe == hi {
                hi = mid;
                continue;
            }
            let s = self.slots[probe].as_ref().expect("probed occupied");
            if (s.ts, s.seq) < (ts, seq) {
                lo = probe + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The insertion slot for a new key: the model's prediction, verified
    /// within the ε-window, with a counted full-search fallback.
    fn insertion_point(&mut self, ts: TimePoint, seq: u64) -> usize {
        let predicted = self.predict(ts);
        let lo = predicted.saturating_sub(SEARCH_WINDOW).max(self.head);
        let hi = (predicted + SEARCH_WINDOW).min(self.tail);
        if lo < hi {
            let pos = self.lower_bound(ts, seq, lo, hi);
            // The windowed result is globally exact iff each side has a
            // witness: an occupied slot below `pos` inside the window
            // proves everything below sorts lower (the array is globally
            // sorted), and one at or above `pos` proves the other side.
            // Window edges touching head/tail need no witness.
            let lo_ok = pos > lo || lo == self.head;
            let hi_ok = hi == self.tail || self.slots[pos..hi].iter().any(|s| s.is_some());
            if lo_ok && hi_ok {
                return pos;
            }
        }
        self.epoch.model_misses += 1;
        self.misses_since_retrain += 1;
        index_obs::record_miss();
        self.lower_bound(ts, seq, self.head, self.tail)
    }

    /// Predicted slot for `ts` (clamped to the occupied span).
    fn predict(&self, ts: TimePoint) -> usize {
        let seg_idx = self.model.partition_point(|seg| seg.first_ts <= ts);
        let Some(seg) = seg_idx.checked_sub(1).and_then(|i| self.model.get(i)) else {
            return self.head;
        };
        let raw = seg.first_slot + seg.slope * (ts - seg.first_ts) as f64;
        let clamped = raw.clamp(0.0, (self.slots.len().saturating_sub(1)) as f64);
        (clamped as usize).clamp(self.head, self.tail.saturating_sub(1).max(self.head))
    }

    /// Places `slot` at insertion point `pos`: straight into a free slot
    /// between its neighbors when the gap slack allows, else shifting the
    /// shortest run of occupied neighbors toward the nearest gap within
    /// `MAX_SHIFT`. Returns false (stashing the slot in `pending_slot`)
    /// when no gap is reachable.
    fn place_near(&mut self, pos: usize, slot: Slot) -> bool {
        // A free slot at the insertion point or directly below it is
        // between the key's neighbors; place into the middle of that free
        // run for slack on both sides (run probe bounded by MAX_SHIFT).
        let anchor = if pos < self.slots.len() && self.slots[pos].is_none() {
            Some(pos)
        } else if pos > 0 && self.slots[pos - 1].is_none() {
            Some(pos - 1)
        } else {
            None
        };
        if let Some(anchor) = anchor {
            // Virgin territory at or beyond the occupied span — the append
            // path, and the common case for mostly-ascending arrivals.
            // Place `GAP_FACTOR − 1` slots past the anchor so consecutive
            // appends keep gaps between them: a slightly-late arrival then
            // lands in a free slot instead of shifting a dense run.
            if anchor >= self.tail {
                let idx = (anchor + GAP_FACTOR - 1).min(self.slots.len() - 1);
                let idx = if self.slots[idx].is_none() {
                    idx
                } else {
                    anchor
                };
                self.occupy(idx, slot);
                self.epoch.shifts[0] += 1;
                index_obs::record_shift(0);
                return true;
            }
            let floor = anchor.saturating_sub(MAX_SHIFT);
            let mut run_lo = anchor;
            while run_lo > floor && self.slots[run_lo - 1].is_none() {
                run_lo -= 1;
            }
            self.occupy(run_lo + (anchor - run_lo) / 2, slot);
            self.epoch.shifts[0] += 1;
            index_obs::record_shift(0);
            return true;
        }
        // `pos` and `pos − 1` are both occupied: shift the shorter run of
        // neighbors toward its nearest gap.
        let right_gap =
            (pos..self.slots.len().min(pos + MAX_SHIFT + 1)).find(|&i| self.slots[i].is_none());
        let left_gap = (pos.saturating_sub(MAX_SHIFT + 1)..pos)
            .rev()
            .find(|&i| self.slots[i].is_none());
        match (left_gap, right_gap) {
            (Some(l), Some(r)) if pos - l <= r - pos => self.shift_left(l, pos, slot),
            (_, Some(r)) => self.shift_right(pos, r, slot),
            (Some(l), None) => self.shift_left(l, pos, slot),
            (None, None) => {
                self.pending_slot = Some(slot);
                return false;
            }
        }
        true
    }

    /// Shifts occupied slots `[pos, gap)` one to the right (into `gap`)
    /// and places at `pos`. The gap may lie beyond the occupied span
    /// (`tail`'s free headroom), so the span is widened first — a slot
    /// outside `[head, tail)` would be invisible to every scan.
    fn shift_right(&mut self, pos: usize, gap: usize, slot: Slot) {
        let dist = gap - pos;
        for i in (pos..gap).rev() {
            self.slots[i + 1] = self.slots[i].take();
        }
        self.tail = self.tail.max(gap + 1);
        self.occupy(pos, slot);
        self.epoch.shifts[dist.min(MAX_SHIFT)] += 1;
        index_obs::record_shift(dist);
    }

    /// Shifts occupied slots `(gap, pos)` one to the left (into `gap`) and
    /// places at `pos − 1`. Everything shifted sorts strictly below the
    /// new key (its insertion point was `pos`), so order is preserved. The
    /// gap may lie below `head` (the drained-prefix region), so the span
    /// is widened first.
    fn shift_left(&mut self, gap: usize, pos: usize, slot: Slot) {
        let dist = pos - gap;
        for i in gap..pos - 1 {
            self.slots[i] = self.slots[i + 1].take();
        }
        self.head = self.head.min(gap);
        self.occupy(pos - 1, slot);
        self.epoch.shifts[dist.min(MAX_SHIFT)] += 1;
        index_obs::record_shift(dist);
    }

    fn occupy(&mut self, idx: usize, slot: Slot) {
        debug_assert!(self.slots[idx].is_none(), "occupying a full slot");
        self.slots[idx] = Some(slot);
        self.len += 1;
        self.head = self.head.min(idx);
        self.tail = self.tail.max(idx + 1);
    }

    /// Rebuild + retrain: gathers the occupied slots (merging `extra` at
    /// its key position when given), re-spaces them at `GAP_FACTOR`× slack
    /// and fits a fresh ε-bounded piecewise-linear model.
    fn rebuild(&mut self, extra: Option<Slot>) {
        let rebuild_t0 = index_obs::now_ns_if_enabled();
        let mut entries: Vec<Slot> = Vec::with_capacity(self.len + 1);
        let lo = self.head.min(self.slots.len());
        let hi = self.tail;
        for slot in &mut self.slots[lo..hi] {
            if let Some(s) = slot.take() {
                entries.push(s);
            }
        }
        if let Some(extra) = extra {
            let at = entries.partition_point(|s| (s.ts, s.seq) < (extra.ts, extra.seq));
            entries.insert(at, extra);
        }
        let n = entries.len();
        // Sizing: GAP_FACTOR× slack over the entries plus half again as
        // trailing headroom, and never below the previous allocation —
        // capacity is monotone and tracks the historical peak buffered
        // load. A steady-state stream that drains every epoch therefore
        // pays roughly one re-spacing rebuild per capacity's worth of
        // inserts (the append frontier hitting the array's end) instead of
        // re-growing through several O(n) rebuilds per epoch.
        let span = (n * GAP_FACTOR).max(MIN_SLOTS);
        let slots_needed = (span + span / 2).max(self.slots.len());
        self.slots.clear();
        self.slots.resize_with(slots_needed, || None);
        self.len = n;
        self.head = if n == 0 { slots_needed } else { 0 };
        self.tail = if n == 0 {
            slots_needed
        } else {
            (n - 1) * GAP_FACTOR + 1
        };
        self.model = Vec::new();
        let mut trainer = ConeTrainer::default();
        for (rank, entry) in entries.into_iter().enumerate() {
            let slot_idx = rank * GAP_FACTOR;
            trainer.observe(entry.ts, slot_idx, &mut self.model);
            self.slots[slot_idx] = Some(entry);
        }
        trainer.finish(&mut self.model);
        self.retrains_total += 1;
        self.epoch.retrains += 1;
        self.misses_since_retrain = 0;
        index_obs::record_retrain(
            rebuild_t0,
            index_obs::now_ns_if_enabled().saturating_sub(rebuild_t0),
            n as u64,
        );
    }
}

/// Shrinking-cone construction of the piecewise-linear model: maintain the
/// feasible slope interval that keeps every observed `(ts, slot)` within
/// `MODEL_EPSILON` of the segment line; when it empties, close the segment
/// at the midpoint slope and start a new one.
#[derive(Debug, Default)]
struct ConeTrainer {
    open: Option<OpenSegment>,
}

#[derive(Debug, Clone, Copy)]
struct OpenSegment {
    first_ts: TimePoint,
    first_slot: usize,
    slope_lo: f64,
    slope_hi: f64,
}

impl ConeTrainer {
    fn observe(&mut self, ts: TimePoint, slot: usize, out: &mut Vec<ModelSegment>) {
        let Some(seg) = &mut self.open else {
            self.open = Some(OpenSegment {
                first_ts: ts,
                first_slot: slot,
                slope_lo: 0.0,
                slope_hi: f64::INFINITY,
            });
            return;
        };
        let dx = (ts - seg.first_ts) as f64;
        if dx <= 0.0 {
            // Duplicate timestamp: the segment predicts `first_slot` for
            // it; fine while the run stays within ε, else close.
            if slot - seg.first_slot > MODEL_EPSILON {
                let closed = *seg;
                Self::close(closed, out);
                self.open = Some(OpenSegment {
                    first_ts: ts,
                    first_slot: slot,
                    slope_lo: 0.0,
                    slope_hi: f64::INFINITY,
                });
            }
            return;
        }
        let dy = (slot - seg.first_slot) as f64;
        let eps = MODEL_EPSILON as f64;
        let lo = ((dy - eps) / dx).max(0.0);
        let hi = (dy + eps) / dx;
        let new_lo = seg.slope_lo.max(lo);
        let new_hi = seg.slope_hi.min(hi);
        if new_lo > new_hi {
            let closed = *seg;
            Self::close(closed, out);
            self.open = Some(OpenSegment {
                first_ts: ts,
                first_slot: slot,
                slope_lo: 0.0,
                slope_hi: f64::INFINITY,
            });
        } else {
            seg.slope_lo = new_lo;
            seg.slope_hi = new_hi;
        }
    }

    fn finish(self, out: &mut Vec<ModelSegment>) {
        if let Some(seg) = self.open {
            Self::close(seg, out);
        }
    }

    fn close(seg: OpenSegment, out: &mut Vec<ModelSegment>) {
        let slope = if seg.slope_hi.is_finite() {
            (seg.slope_lo + seg.slope_hi) / 2.0
        } else {
            // Single-point (or duplicate-run) segment: flat prediction.
            seg.slope_lo
        };
        out.push(ModelSegment {
            first_ts: seg.first_ts,
            first_slot: seg.first_slot as f64,
            slope,
        });
    }
}

/// Regroups a timestamp-ordered tuple list into LAWA's fact-major
/// `(F, Ts)` order: hash group-by (per-fact timestamp order is inherited),
/// sort the distinct facts, concatenate. O(k + f log f).
fn regroup_fact_major(ts_order: Vec<TpTuple>) -> Vec<TpTuple> {
    let total = ts_order.len();
    let mut index: FastMap<tp_core::fact::Fact, usize> = FastMap::default();
    let mut groups: Vec<Vec<TpTuple>> = Vec::new();
    for t in ts_order {
        let gi = *index.entry(t.fact.clone()).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[gi].push(t);
    }
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&a, &b| groups[a][0].fact.cmp(&groups[b][0].fact));
    let mut out = Vec::with_capacity(total);
    for gi in order {
        out.append(&mut groups[gi]);
    }
    out
}

/// Merges two `(F, Ts)` sort-key-ordered tuple streams into one (ties take
/// `a` first). The engine uses it to join the carried residuals
/// (fact-ordered, all starting at the previous watermark) with a drained
/// prefix — O(n), no sort, no intermediate list.
pub(crate) fn merge_by_sort_key(
    a: impl IntoIterator<Item = TpTuple>,
    b: impl IntoIterator<Item = TpTuple>,
) -> impl Iterator<Item = TpTuple> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if x.sort_key() <= y.sort_key() => a.next(),
        (Some(_), None) => a.next(),
        _ => b.next(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::interval::Interval;
    use tp_core::lineage::Lineage;
    use tp_core::relation::VarTable;

    fn tuple(vars: &mut VarTable, fact: i64, s: i64, e: i64) -> TpTuple {
        let id = vars.register(format!("v{fact}_{s}"), 0.5).unwrap();
        TpTuple::new(
            tp_core::fact::Fact::single(fact),
            Lineage::var(id),
            Interval::at(s, e),
        )
    }

    /// The reference drain: stable sort by sort key of everything below w.
    fn reference_drain(pushed: &[TpTuple], w: TimePoint) -> Vec<TpTuple> {
        let mut below: Vec<TpTuple> = pushed
            .iter()
            .filter(|t| t.interval.start() < w)
            .cloned()
            .collect();
        below.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        below
    }

    #[test]
    fn drain_matches_sorted_reference_for_shuffled_arrivals() {
        let mut vars = VarTable::new();
        // Deterministic shuffle: stride through the index space.
        let n = 501i64;
        let tuples: Vec<TpTuple> = (0..n)
            .map(|i| {
                let k = (i * 193) % n; // 193 coprime with 501
                tuple(&mut vars, k % 7, k * 3, k * 3 + 2)
            })
            .collect();
        let mut buf = GappedBuffer::new();
        for t in &tuples {
            buf.push(t.clone());
        }
        assert_eq!(buf.len(), n as usize);
        for w in [0, 100, 700, 701, 1_200, 4_000] {
            let mut probe = GappedBuffer::new();
            for t in &tuples {
                probe.push(t.clone());
            }
            let drained = probe.drain_below(w);
            assert_eq!(drained.tuples, reference_drain(&tuples, w), "w={w}");
            assert_eq!(drained.starts.len(), drained.tuples.len());
            assert!(drained.starts.windows(2).all(|p| p[0] <= p[1]));
            assert_eq!(probe.len(), n as usize - drained.tuples.len());
        }
    }

    #[test]
    fn successive_drains_partition_the_stream() {
        let mut vars = VarTable::new();
        let tuples: Vec<TpTuple> = (0..400i64)
            .rev() // adversarial: fully reversed arrival
            .map(|i| tuple(&mut vars, i % 5, i * 2, i * 2 + 1))
            .collect();
        let mut buf = GappedBuffer::new();
        let mut drained_total = 0usize;
        let mut pushed: Vec<TpTuple> = Vec::new();
        let mut it = tuples.iter();
        for w in [100, 300, 500, 790, 1_000] {
            // Interleave pushes with drains (only tuples still >= previous
            // watermark, to honor the engine's lateness contract).
            for t in it.by_ref().take(80) {
                buf.push(t.clone());
                pushed.push(t.clone());
            }
            let prev: Vec<TpTuple> = pushed
                .iter()
                .filter(|t| t.interval.start() < w)
                .cloned()
                .collect();
            let drained = buf.drain_below(w);
            assert_eq!(drained.tuples, reference_drain(&prev, w), "w={w}");
            drained_total += drained.tuples.len();
            pushed.retain(|t| t.interval.start() >= w);
        }
        // Everything pushed was eventually drained or still buffered.
        assert_eq!(drained_total + buf.len(), 400);
    }

    #[test]
    fn duplicate_timestamps_keep_arrival_order_within_ts() {
        let mut vars = VarTable::new();
        // 64 facts all starting at ts 10 — a timestamp flood.
        let tuples: Vec<TpTuple> = (0..64i64).map(|f| tuple(&mut vars, f, 10, 12)).collect();
        let mut buf = GappedBuffer::new();
        for t in tuples.iter().rev() {
            buf.push(t.clone());
        }
        let drained = buf.drain_below(11);
        assert_eq!(drained.tuples, reference_drain(&tuples, 11));
        assert!(buf.is_empty());
    }

    #[test]
    fn occupancy_and_retrains_stay_sane_under_churn() {
        let mut vars = VarTable::new();
        let mut buf = GappedBuffer::new();
        let mut total_inserts = 0u64;
        for epoch in 0..50i64 {
            for k in 0..64i64 {
                let s = epoch * 100 + (k * 37) % 100;
                buf.push(tuple(&mut vars, k % 8, s, s + 3));
                total_inserts += 1;
            }
            let _ = buf.drain_below(epoch * 100 + 90);
            let occ = buf.occupancy_permille();
            assert!(occ <= 1000, "occupancy over 100%: {occ}");
            if !buf.is_empty() {
                assert!(occ > 0);
            }
        }
        // Amortized O(1): rebuilds bounded by a small multiple of drains,
        // far below one per insert.
        assert!(
            buf.retrains_total() < total_inserts / 8,
            "{} retrains for {} inserts",
            buf.retrains_total(),
            total_inserts
        );
        let stats = buf.take_epoch_stats();
        assert!(stats.shift_p99() <= MAX_SHIFT as u32);
    }

    #[test]
    fn cut_offsets_are_exact_quantiles() {
        let mut vars = VarTable::new();
        let mut buf = GappedBuffer::new();
        for i in 0..100i64 {
            buf.push(tuple(&mut vars, i, i * 10, i * 10 + 5));
        }
        let cuts = buf.cut_offsets(1_000, 4);
        assert_eq!(cuts, vec![250, 500, 750]);
        // Quantiles over the prefix below a tighter watermark.
        let cuts = buf.cut_offsets(500, 2);
        assert_eq!(cuts, vec![250]);
        // Too few tuples: no cuts.
        assert!(buf.cut_offsets(15, 4).is_empty());
    }

    #[test]
    fn rank_below_tracks_the_true_rank() {
        let mut vars = VarTable::new();
        let mut buf = GappedBuffer::new();
        for i in 0..1_000i64 {
            let k = (i * 607) % 1_000;
            buf.push(tuple(&mut vars, k, k, k + 1));
        }
        for w in [0i64, 100, 500, 999, 2_000] {
            let truth = w.clamp(0, 1_000) as usize;
            let est = buf.rank_below(w);
            let err = truth.abs_diff(est);
            assert!(
                err <= 64,
                "rank estimate for {w}: {est} vs true {truth} (err {err})"
            );
        }
    }

    #[test]
    fn merge_by_sort_key_is_a_stable_sorted_merge() {
        let mut vars = VarTable::new();
        let a = vec![tuple(&mut vars, 1, 0, 2), tuple(&mut vars, 3, 5, 6)];
        let b = vec![tuple(&mut vars, 1, 3, 4), tuple(&mut vars, 2, 0, 1)];
        let merged: Vec<TpTuple> = merge_by_sort_key(a.clone(), b.clone()).collect();
        let mut reference = [a, b].concat();
        reference.sort_by(|x, y| x.sort_key().cmp(&y.sort_key()));
        assert_eq!(merged, reference);
    }
}
