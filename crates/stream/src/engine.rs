//! The continuous LAWA engine: out-of-order ingestion, bounded-lateness
//! watermarks, and incremental delta emission for the three TP set
//! operations.
//!
//! ## Model
//!
//! Facts arrive as [`TpTuple`]s per input side, in any order. A
//! **watermark** `w` is the promise that no tuple with `Ts < w` will arrive
//! anymore (tuples violating the promise are counted and dropped, never
//! silently mis-merged). Because a tuple can only influence LAWA windows
//! from its start point onward, the result restricted to `(-∞, w)` is
//! *final* the moment the watermark reaches `w` — this is the streaming
//! reading of the paper's window-advancement invariant: `winTe` of Alg. 1
//! only ever depends on tuples of the current fact that are already known
//! below the watermark.
//!
//! ## One sweep per advance
//!
//! [`StreamEngine::advance`] finalizes the region `[prev_w, w)`:
//!
//! 1. tuples with `Ts < w` are released from the ingest buffers: the new
//!    arrivals are sorted by `(F, Ts)` and merged linearly with the carried
//!    residuals, which stay sorted across advances;
//! 2. tuples crossing `w` are split where they stand, by the rule of
//!    [`tp_core::window::split_at_watermark`] — the prefix joins this
//!    sweep, the residual (same lineage handle) re-enters the next one;
//! 3. one [`Lawa`] sweep runs over the released prefix, and each window is
//!    fed through the λ-filter/λ-function of **all three** operations
//!    (Alg. 2–4) at once — three result streams for the price of one sweep;
//! 4. every window goes through its fact's **open-window record**: the
//!    `(λr, λs)` pair of the fact's latest window, the output lineages the
//!    λ-functions derived from it, and where each op's latest output tuple
//!    ends. The output lineages are a function of the pair alone, so a
//!    window that repeats the pair takes them from the record and interns
//!    nothing — by change preservation (Def. 2) a genuine window boundary
//!    changes at least one of the two handles, so these are exactly the
//!    windows a watermark cut out of a longer one. Any other window runs
//!    the λ-functions and refreshes the record. An output adjacent to the
//!    op's previous tuple of the fact with the *identical* lineage handle
//!    (an O(1) compare, the arena's gift) is emitted as
//!    [`Delta::Extend`], everything else as [`Delta::Insert`].
//!
//! A recorded lineage is reused only while interning the same node would
//! still return it, i.e. while every handle the derivation touches sits in
//! a live segment ([`LineageArena::is_live`], O(1)): once reclamation
//! retired one, the window derives afresh and is emitted as it would be
//! without the record, so delta logs do not depend on it. The record makes
//! a re-swept piece cheap; it does not stop a long-lived tuple from being
//! released, split and swept once per advance it spans
//! (`released_per_arrival` is unchanged).
//!
//! ## Equivalence contract
//!
//! For inputs in the model's standard regime — duplicate-free relations
//! whose tuples carry distinct base variables or change-preserving derived
//! lineage (every relation produced by `TpRelation::base` or by a LAWA
//! operator qualifies) — the concatenation of deltas, applied by
//! [`CollectingSink`](crate::delta::CollectingSink), is **identical** to
//! the batch operator output: same tuples, same intervals, same interned
//! lineage handles, hence same marginals. Property tests assert this for
//! every arrival permutation within the lateness bound and every watermark
//! schedule (`tests/stream_props.rs` at the workspace root).

use std::collections::VecDeque;
use std::sync::Arc;

use tp_core::arena::{ArenaScope, ArenaStats, FastMap, LineageArena, SegmentId, MAX_SHARDS};
use tp_core::fact::Fact;
use tp_core::interval::TimePoint;
use tp_core::lineage::Lineage;
use tp_core::ops::SetOp;
use tp_core::relation::{VarEpoch, VarTable};
use tp_core::tuple::TpTuple;
use tp_core::window::{split_tuple_at_watermark, Lawa, LineageAwareWindow};

use crate::delta::{op_index, Delta, StreamSink};
use crate::obs::{
    EngineObs, ObsConfig, StageCursor, STAGE_DRAIN, STAGE_FINALIZE, STAGE_SEAL_RETIRE, STAGE_SWEEP,
};
use crate::pipeline::{Pipeline, PipelineError};

/// Which input relation a tuple belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The left input (`r` in `r op s`).
    Left,
    /// The right input (`s` in `r op s`).
    Right,
}

impl Side {
    /// Both sides, in `[left, right]` order.
    pub const BOTH: [Side; 2] = [Side::Left, Side::Right];

    #[inline]
    pub(crate) fn idx(self) -> usize {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }
}

/// What happened to a pushed tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Buffered; it will be processed once the watermark passes its start.
    Accepted,
    /// Its start lies below the current watermark: the bounded-lateness
    /// promise was already spent. Dropped and counted (see
    /// [`StreamEngine::late_dropped`]).
    Late,
}

/// How the watermark moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatermarkPolicy {
    /// Only explicit [`StreamEngine::advance`] calls move the watermark.
    Manual,
    /// The watermark trails the highest start time seen by `lateness`
    /// time points; [`StreamEngine::poll`] advances to that bound. A tuple
    /// may arrive out of order by up to `lateness` without being dropped.
    BoundedLateness(i64),
}

/// Bounded-memory operation: the engine hosts its lineage in a **private
/// reclaimable arena** (with [`MAX_SHARDS`] dedup stripes), seals one
/// segment per watermark advance, and retires every sealed segment that is
/// older than `keep_epochs` advances and that no buffered tuple — carried
/// residual or pending arrival — can reach, wherever it sits in the seal
/// order. A sliding-window stream then runs indefinitely with arena
/// storage proportional to the *live* window, not to history.
///
/// Contract for consumers: deltas reference lineage in the engine's arena;
/// valuate or materialize them when they arrive (inside `on_delta`, which
/// runs within the engine's arena scope) or within `keep_epochs` further
/// advances — after that their segments may retire and fresh traversals
/// panic ("use-after-retire"). [`StreamSink::on_retire`] tells consumers
/// when to drop their own per-segment memo entries.
#[derive(Debug, Clone)]
pub struct ReclaimConfig {
    /// A sealed segment is retired only after this many further advances
    /// — the grace window for consumers that materialize deltas slightly
    /// late (0 = retire as soon as the live frontier passes).
    pub keep_epochs: usize,
    /// Sliding var registry retired in lockstep with the arena: each
    /// advance seals the table's open var cohort next to the arena segment
    /// it mirrors ([`VarTable::seal_vars`] /
    /// [`VarTable::bind_cohort_segment`]), and when that segment retires —
    /// after the same `keep_epochs` grace window — the cohort's
    /// probabilities, labels and marginal-cache rows are released together
    /// ([`VarTable::release_vars_before`]). Lookups of released variables
    /// return `Error::ReleasedVariable`, never a wrong value.
    ///
    /// Contract: a variable must be registered in the same advance window
    /// as the tuple carrying it is pushed (the `StreamServer::push_row`
    /// discipline) — registering everything up front would tie all
    /// variables to the first cohort and release them while their tuples
    /// are still in flight. `None` keeps the table append-only.
    pub vars: Option<Arc<VarTable>>,
}

impl Default for ReclaimConfig {
    fn default() -> Self {
        ReclaimConfig {
            keep_epochs: 2,
            vars: None,
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The operations to maintain (deltas are emitted per op). Defaults to
    /// all three — they share the single sweep either way.
    pub ops: Vec<SetOp>,
    /// Watermark regime; see [`WatermarkPolicy`].
    pub policy: WatermarkPolicy,
    /// Bounded-memory mode; see [`ReclaimConfig`]. `None` (the default)
    /// interns into the thread's current arena and never reclaims.
    pub reclaim: Option<ReclaimConfig>,
    /// Observability: stage spans + metrics per advance; see
    /// [`ObsConfig`]. On by default — recording never changes results
    /// (instrumented and uninstrumented runs emit byte-identical delta
    /// logs); the repository benchmark reports the overhead as
    /// `bench.trace_overhead_ratio`.
    pub obs: ObsConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            ops: SetOp::ALL.to_vec(),
            policy: WatermarkPolicy::Manual,
            reclaim: None,
            obs: ObsConfig::default(),
        }
    }
}

/// Errors of the streaming API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// `advance(to)` with `to` at or below the current watermark.
    NonMonotonicWatermark {
        /// The current watermark.
        current: TimePoint,
        /// The rejected target.
        requested: TimePoint,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::NonMonotonicWatermark { current, requested } => write!(
                f,
                "watermark must advance strictly: current {current}, requested {requested}"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Counters of one watermark advance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceStats {
    /// The watermark after the advance.
    pub watermark: TimePoint,
    /// LAWA windows swept in this advance.
    pub windows: usize,
    /// Of those, windows whose output lineages were served from the fact's
    /// open-window record — the window repeated the record's `(λr, λs)`
    /// pair, so nothing was interned. The rest ran the λ-functions.
    pub continued_windows: usize,
    /// `Insert` deltas emitted (all ops).
    pub inserts: u64,
    /// `Extend` deltas emitted (all ops).
    pub extends: u64,
    /// Tuples released from the ingest buffers `[left, right]`.
    pub released: [usize; 2],
    /// Residual tuples carried into the next advance `[left, right]`.
    pub carried: [usize; 2],
    /// Arena segments retired by this advance (reclaim mode only) —
    /// prefix **and** interior retires.
    pub retired_segments: u64,
    /// Of those, segments retired out of prefix order (a lower segment
    /// was still resident — the interior-reclamation holes).
    pub interior_retired_segments: u64,
    /// Interned nodes whose storage those retirements released.
    pub retired_nodes: u64,
    /// Variables released from the attached sliding var registry
    /// ([`ReclaimConfig::vars`]) by this advance.
    pub released_vars: u64,
    /// Live nodes of the engine's **private** arena after this advance
    /// (reclaim mode only; 0 when the engine shares the thread's current
    /// arena, whose totals would depend on unrelated work).
    pub arena_live_nodes: u64,
    /// Resident chunk-storage bytes of the private arena after this
    /// advance ([`LineageArena::resident_chunk_bytes`]; reclaim mode only,
    /// 0 otherwise).
    pub arena_resident_bytes: u64,
    /// Deltas the attached standing pipeline's operators processed in
    /// this advance's propagation pass (0 without
    /// [`StreamEngine::with_plan`]).
    pub pipeline_deltas: u64,
}

/// Capacity of per-op arrays ([`SetOp`] has three members), indexed by
/// [`op_index`].
const OP_SLOTS: usize = 3;

/// Everything the λ-filters/λ-functions of Algorithms 2–4 derive from one
/// window's `(λr, λs)` pair.
#[derive(Debug, Clone, Copy, Default)]
struct Derived {
    /// The output lineage per op ([`op_index`] order); `None` where the
    /// op's λ-filter rejects the window or the op is not maintained.
    ops: [Option<Lineage>; OP_SLOTS],
    /// `¬λs`, the intermediate node Table I's `andNot` interns — the one
    /// handle a derivation touches that is not itself an output.
    not_s: Option<Lineage>,
}

impl Derived {
    /// Runs the λ-functions (Table I `or` / `and` / `andNot`) of `ops`
    /// over one pair — the single implementation of the per-op semantics.
    fn of(ops: &[SetOp], lr: Option<&Lineage>, ls: Option<&Lineage>) -> Derived {
        let mut d = Derived::default();
        for &op in ops {
            d.ops[op_index(op)] = match op {
                SetOp::Union => Lineage::or_opt(lr, ls),
                SetOp::Intersect => lr.zip(ls).map(|(lr, ls)| Lineage::and(lr, ls)),
                // `Lineage::and_not`, keeping hold of the negation.
                SetOp::Except => lr.map(|lr| match ls {
                    None => *lr,
                    Some(ls) => Lineage::and(lr, d.not_s.insert(ls.negate())),
                }),
            };
        }
        d
    }

    /// Whether re-running [`Derived::of`] on the same pair would return
    /// exactly these handles: interning answers a dedup hit with the stored
    /// handle iff its segment is live ([`LineageArena::is_live`]), so that
    /// must hold for every node the derivation touches.
    fn still_current(&self, arena: &LineageArena) -> bool {
        // Handles derived together usually share a segment: probe each
        // segment once.
        let mut live = None;
        self.ops.iter().chain([&self.not_s]).flatten().all(|l| {
            let r = l.node_ref();
            live == Some(r.segment()) || {
                live = Some(r.segment());
                arena.is_live(r)
            }
        })
    }
}

/// The open-window record of one fact: its latest window's `(λr, λs)`
/// pair, what the maintained ops derived from it, and where each op's
/// latest output tuple ends. One lookup per window answers both "are the
/// output lineages already known?" (the window repeats the pair — it was
/// only cut by a watermark, Def. 2) and "does the output continue the
/// previous tuple?" (`Extend` vs `Insert`).
struct OpenWindow {
    lambda_r: Option<Lineage>,
    lambda_s: Option<Lineage>,
    derived: Derived,
    /// Per op: the right edge of its latest output tuple. An edge equal to
    /// the next window's start was written by the record's own window
    /// (windows of a fact never overlap), so that tuple's lineage is
    /// `derived.ops[op]` — no separate tail handle is kept.
    ends: [TimePoint; OP_SLOTS],
}

/// What [`OpenWindow::step`] resolved for one window.
struct WindowStep {
    /// Per op ([`op_index`] order): the output lineage and whether the
    /// output extends the op's previous output tuple of the fact; `None`
    /// where the op emits nothing for the window.
    outputs: [Option<(Lineage, bool)>; OP_SLOTS],
    /// The lineages came from the record (nothing was interned).
    memo_hit: bool,
}

impl OpenWindow {
    /// The record of a fact not seen yet: no real window has the
    /// `(null, null)` pair, so the first one always derives.
    fn new() -> OpenWindow {
        OpenWindow {
            lambda_r: None,
            lambda_s: None,
            derived: Derived::default(),
            ends: [TimePoint::MIN; OP_SLOTS],
        }
    }

    /// Moves the record to window `w`: the record's lineages are reused
    /// when `w` repeats the pair and they are [`Derived::still_current`],
    /// else derived afresh.
    fn step(&mut self, w: &LineageAwareWindow, ops: &[SetOp]) -> WindowStep {
        let previous = self.derived;
        let memo_hit = self.lambda_r == w.lambda_r
            && self.lambda_s == w.lambda_s
            && LineageArena::with_current(|a| previous.still_current(a));
        if !memo_hit {
            self.lambda_r = w.lambda_r;
            self.lambda_s = w.lambda_s;
            self.derived = Derived::of(ops, w.lambda_r.as_ref(), w.lambda_s.as_ref());
        }
        let outputs = std::array::from_fn(|i| {
            let lineage = self.derived.ops[i]?;
            let continues = self.ends[i] == w.interval.start() && previous.ops[i] == Some(lineage);
            self.ends[i] = w.interval.end();
            Some((lineage, continues))
        });
        WindowStep { outputs, memo_hit }
    }
}

/// The continuous engine. See the module docs for the model.
pub struct StreamEngine {
    cfg: EngineConfig,
    watermark: TimePoint,
    /// Highest tuple start seen, for [`WatermarkPolicy::BoundedLateness`].
    event_high: TimePoint,
    /// Out-of-order ingest buffers, in arrival order.
    pending: [Vec<TpTuple>; 2],
    /// Residuals of tuples split at the previous watermark (start ==
    /// watermark, original lineage), kept `(F, Ts)`-sorted across advances.
    carry: [Vec<TpTuple>; 2],
    /// The emptied carry list of the side released last: the next release
    /// writes its residuals here and the two swap, so a steady stream
    /// reallocates neither.
    carry_spare: Vec<TpTuple>,
    /// The closed pieces of the running advance (cleared, not
    /// reallocated, between advances).
    ready: [Vec<TpTuple>; 2],
    late: [u64; 2],
    /// The open-window record per fact; see [`OpenWindow`].
    open: FastMap<Fact, OpenWindow>,
    /// Prune the record map (drop entries provably dead under the
    /// watermark) when its size crosses this mark — amortized O(1) per
    /// window, bounding memory by *live* facts instead of all facts ever
    /// seen.
    open_prune_at: usize,
    /// The private reclaimable arena (reclaim mode only); every engine
    /// method enters it for the duration of the call.
    arena: Option<Arc<LineageArena>>,
    /// Sealed-but-unretired segments, oldest first, with the advance
    /// counter at seal time (for the `keep_epochs` grace window) and the
    /// var cohort sealed alongside, if a registry is attached.
    sealed: VecDeque<SealedSegment>,
    /// Watermark advances executed (drives the grace window).
    advance_count: u64,
    /// Total segments retired over the engine's lifetime.
    reclaimed_segments: u64,
    /// Total nodes whose storage retirement released.
    reclaimed_nodes: u64,
    /// Total variables released from the attached registry.
    reclaimed_vars: u64,
    /// Cached observability handles ([`ObsConfig`]); `None` = disabled,
    /// and every recording site is skipped (including the clock reads).
    obs: Option<Arc<EngineObs>>,
    /// The standing incremental pipeline ([`StreamEngine::with_plan`]),
    /// fed from the delta streams and advanced once per watermark.
    pipeline: Option<Pipeline>,
}

/// One sealed-but-unretired arena segment of a reclaiming engine.
struct SealedSegment {
    seg: SegmentId,
    /// Advance counter at seal time (drives the `keep_epochs` grace).
    sealed_at: u64,
    /// The var cohort sealed in the same advance, if a registry is
    /// attached; released when this segment retires.
    var_epoch: Option<VarEpoch>,
}

impl Default for StreamEngine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl StreamEngine {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        let arena = cfg
            .reclaim
            .is_some()
            .then(|| LineageArena::shared(MAX_SHARDS));
        let obs = EngineObs::from_config(&cfg.obs);
        StreamEngine {
            cfg,
            watermark: TimePoint::MIN,
            event_high: TimePoint::MIN,
            pending: [Vec::new(), Vec::new()],
            carry: [Vec::new(), Vec::new()],
            carry_spare: Vec::new(),
            ready: [Vec::new(), Vec::new()],
            late: [0, 0],
            open: FastMap::default(),
            open_prune_at: 1024,
            arena,
            sealed: VecDeque::new(),
            advance_count: 0,
            reclaimed_segments: 0,
            reclaimed_nodes: 0,
            reclaimed_vars: 0,
            obs,
            pipeline: None,
        }
    }

    /// Creates an engine with a standing incremental pipeline attached:
    /// `plan` is compiled ([`Pipeline::compile`]) and its `i`-th source is
    /// fed from the engine's `taps[i]` delta stream. The pipeline shares
    /// the engine's watermark clock (one propagation pass per advance) and
    /// its arena discipline (operator state holds pipeline-private shared
    /// lineage nodes over trees expanded at the taps, never arena handles,
    /// so reclamation never invalidates it); read the standing view through
    /// [`StreamEngine::pipeline`].
    pub fn with_plan(
        cfg: EngineConfig,
        plan: &tp_relalg::Plan,
        taps: &[SetOp],
    ) -> Result<Self, PipelineError> {
        for &tap in taps {
            if !cfg.ops.contains(&tap) {
                return Err(PipelineError::TapNotMaintained(tap));
            }
        }
        let mut pipeline = Pipeline::compile(plan, taps)?;
        pipeline.init_obs(&cfg.obs);
        let mut engine = Self::new(cfg);
        engine.pipeline = Some(pipeline);
        Ok(engine)
    }

    /// Multi-plan variant of [`StreamEngine::with_plan`]: compiles all
    /// `plans` into one shared pipeline ([`Pipeline::compile_shared`]) —
    /// structurally identical sub-DAGs with the same tap bindings run as
    /// one physical operator fanned out to every consumer, so K alert
    /// rules over the same join pay its state and maintenance once.
    /// `taps[p]` feeds plan `p`'s sources; read plan `p`'s standing view
    /// through [`Pipeline::materialized_view`].
    pub fn with_plans(
        cfg: EngineConfig,
        plans: &[tp_relalg::Plan],
        taps: &[Vec<SetOp>],
    ) -> Result<Self, PipelineError> {
        for plan_taps in taps {
            for &tap in plan_taps {
                if !cfg.ops.contains(&tap) {
                    return Err(PipelineError::TapNotMaintained(tap));
                }
            }
        }
        let mut pipeline = Pipeline::compile_shared(plans, taps)?;
        pipeline.init_obs(&cfg.obs);
        let mut engine = Self::new(cfg);
        engine.pipeline = Some(pipeline);
        Ok(engine)
    }

    /// The attached standing pipeline, if any.
    pub fn pipeline(&self) -> Option<&Pipeline> {
        self.pipeline.as_ref()
    }

    /// The current watermark (`TimePoint::MIN` before the first advance).
    pub fn watermark(&self) -> TimePoint {
        self.watermark
    }

    /// The engine's private arena (reclaim mode only). Consumers that want
    /// to traverse collected deltas *after* the driving call returned must
    /// re-enter it ([`StreamEngine::enter_arena`]).
    pub fn reclaim_arena(&self) -> Option<&Arc<LineageArena>> {
        self.arena.as_ref()
    }

    /// Enters the engine's private arena on this thread (no-op `None`
    /// without reclaim mode).
    pub fn enter_arena(&self) -> Option<ArenaScope> {
        self.arena.as_ref().map(LineageArena::enter)
    }

    /// Statistics of the private arena (reclaim mode only): live/retired
    /// nodes and segments, resident bytes — the bounded-memory gauge.
    pub fn arena_stats(&self) -> Option<ArenaStats> {
        self.arena.as_ref().map(|a| a.stats())
    }

    /// Lifetime totals of reclamation: `(segments, nodes)` retired.
    pub fn reclaimed(&self) -> (u64, u64) {
        (self.reclaimed_segments, self.reclaimed_nodes)
    }

    /// Total variables released from the attached sliding var registry
    /// ([`ReclaimConfig::vars`]) over the engine's lifetime.
    pub fn reclaimed_vars(&self) -> u64 {
        self.reclaimed_vars
    }

    /// The attached sliding var registry, if any.
    pub fn var_registry(&self) -> Option<&Arc<VarTable>> {
        self.cfg.reclaim.as_ref().and_then(|rc| rc.vars.as_ref())
    }

    /// Late-dropped tuple counts `[left, right]`.
    pub fn late_dropped(&self) -> [u64; 2] {
        self.late
    }

    /// Tuples buffered but not yet released `[left, right]` (pending plus
    /// carried residuals).
    pub fn buffered(&self) -> [usize; 2] {
        [
            self.pending[0].len() + self.carry[0].len(),
            self.pending[1].len() + self.carry[1].len(),
        ]
    }

    /// Ingests one tuple. Order of pushes is arbitrary; only the bounded-
    /// lateness promise matters (`tuple.interval.start() >= watermark`).
    ///
    /// In reclaim mode the tuple's lineage is translated into the engine's
    /// private arena (refs are arena-relative): the formula is read in the
    /// caller's arena and re-interned inside — O(|λ|), which is O(1) for
    /// the atomic lineage of base tuples. A caller already inside the
    /// engine's arena ([`StreamEngine::enter_arena`], the
    /// `StreamServer::push_row` discipline) hands over the engine's own
    /// handle, and nothing is translated.
    pub fn push(&mut self, side: Side, tuple: TpTuple) -> IngestOutcome {
        if tuple.interval.start() < self.watermark {
            self.late[side.idx()] += 1;
            if let Some(obs) = &self.obs {
                obs.record_late();
            }
            return IngestOutcome::Late;
        }
        let tuple = match &self.arena {
            Some(arena)
                if !LineageArena::with_current(|cur| std::ptr::eq(cur, Arc::as_ptr(arena))) =>
            {
                let tree = tuple.lineage.to_tree(); // caller's arena
                let _scope = LineageArena::enter(arena);
                TpTuple::new(tuple.fact, Lineage::from_tree(&tree), tuple.interval)
            }
            _ => tuple,
        };
        self.event_high = self.event_high.max(tuple.interval.start());
        self.pending[side.idx()].push(tuple);
        IngestOutcome::Accepted
    }

    /// Under [`WatermarkPolicy::BoundedLateness`], advances the watermark
    /// to `highest start seen − lateness` if that is ahead of the current
    /// watermark; under [`WatermarkPolicy::Manual`] this is a no-op.
    /// Returns the advance stats when the watermark moved.
    pub fn poll(&mut self, sink: &mut impl StreamSink) -> Option<AdvanceStats> {
        let WatermarkPolicy::BoundedLateness(lateness) = self.cfg.policy else {
            return None;
        };
        if self.event_high == TimePoint::MIN {
            return None; // nothing ingested yet
        }
        let target = self.event_high.saturating_sub(lateness.max(0));
        if target > self.watermark {
            Some(self.advance(target, sink).expect("target checked monotone"))
        } else {
            None
        }
    }

    /// Finalizes the region `[watermark, to)` and emits its deltas.
    pub fn advance(
        &mut self,
        to: TimePoint,
        sink: &mut impl StreamSink,
    ) -> Result<AdvanceStats, StreamError> {
        if to <= self.watermark {
            return Err(StreamError::NonMonotonicWatermark {
                current: self.watermark,
                requested: to,
            });
        }
        // Reclaim mode: the whole advance — sweep, λ-functions, delta
        // emission, the sink's callbacks — runs inside the engine's private
        // arena scope.
        let _scope = self.arena.as_ref().map(LineageArena::enter);
        // Clone the obs handle out of `self` so the stage cursor can live
        // across the `&mut self` calls below (Arc clone, no allocation).
        let obs = self.obs.clone();
        let mut stages = StageCursor::start(obs.as_deref());
        let mut stats = AdvanceStats {
            watermark: to,
            ..Default::default()
        };

        // Release: carried residuals + pending tuples starting below `to`,
        // split at the new watermark (prefix sweeps now, residual waits).
        // Only the new arrivals are sorted — stably, so tuples with equal
        // `(F, Ts)` keep their arrival order. The carry is `(F, Ts)`-sorted
        // already and merges in linearly, and a split keeps the merged
        // order, so `ready` is sorted for the sweep and the next carry
        // stays sorted. A released tuple is split where it stands
        // ([`split_tuple_at_watermark`]): it moves into `ready` or,
        // clipped, into the next carry list.
        let mut ready = std::mem::take(&mut self.ready);
        for (side, ready) in ready.iter_mut().enumerate() {
            let mut released: Vec<TpTuple> = self.pending[side]
                .extract_if(.., |t| t.interval.start() < to)
                .collect();
            released.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
            stats.released[side] = self.carry[side].len() + released.len();
            let mut carry = std::mem::take(&mut self.carry_spare);
            for t in merge_by_sort_key(self.carry[side].drain(..), released) {
                split_tuple_at_watermark(t, to, ready, &mut carry);
            }
            stats.carried[side] = carry.len();
            self.carry_spare = std::mem::replace(&mut self.carry[side], carry);
        }
        let pieces = (stats.released[0] + stats.released[1]) as u64;
        stages.stage(STAGE_DRAIN, pieces);

        // One sweep, all ops.
        debug_assert!(ready
            .iter()
            .all(|side| side.windows(2).all(|w| w[0].sort_key() <= w[1].sort_key())));
        let [ready_r, ready_s] = &ready;
        for w in Lawa::new(ready_r, ready_s) {
            self.emit_window(w, sink, &mut stats);
        }
        for side in ready.iter_mut() {
            side.clear();
        }
        self.ready = ready;
        stages.stage(STAGE_SWEEP, pieces);

        self.watermark = to;
        // A record can only be matched by a future window starting exactly
        // at one of its edges, and every future window lies at or above
        // the watermark: records whose every edge is below it are dead
        // (the newest edge is the record's window end whenever an op
        // emitted, so a memo a cut window could reuse is never dropped).
        // Prune with doubling amortization so the map tracks *live*
        // facts, not every fact ever emitted.
        if self.open.len() > self.open_prune_at {
            self.open
                .retain(|_, rec| rec.ends.iter().any(|&end| end >= to));
            self.open_prune_at = (2 * self.open.len()).max(1024);
        }
        // One propagation pass of the standing pipeline, still inside the
        // arena scope and before the sink observes the watermark, so a
        // sink callback reads the already-consistent materialized view.
        if let Some(p) = self.pipeline.as_mut() {
            stats.pipeline_deltas = p.on_advance(obs.as_deref());
        }
        sink.on_watermark(to);
        self.advance_count += 1;
        stages.stage(STAGE_FINALIZE, stats.windows as u64);
        if self.cfg.reclaim.is_some() {
            self.reclaim_dead_segments(sink, &mut stats);
        }
        stages.stage(STAGE_SEAL_RETIRE, stats.retired_segments);
        // Arena gauges of the advance — private arena only: the thread's
        // shared arena moves with unrelated work, which would make these
        // numbers (and `AdvanceStats` equality) nondeterministic.
        if let Some(arena) = &self.arena {
            stats.arena_live_nodes = arena.live_nodes();
            stats.arena_resident_bytes = arena.resident_chunk_bytes() as u64;
        }
        stages.finish(&stats);
        Ok(stats)
    }

    /// Seals the segment of the just-finalized advance and retires every
    /// aged-out sealed segment that no live ref can reach. A held lineage
    /// keeps every segment in `[min_segment, segment]` resident (its
    /// reachable set is contained in that range — the arena invariant);
    /// the live refs are the pending arrivals and carried residuals. Dead
    /// segments retire **wherever they sit** in the seal order — a
    /// long-lived fact pins its own segments only, not every later one —
    /// so a segment is kept exactly while it is inside its `keep_epochs`
    /// grace window or covered by a live ref. The open-window records are
    /// deliberately *not* part of the frontier: their handles are only
    /// ever ref-compared and liveness-probed, never dereferenced, and a
    /// record whose segment died derives afresh ([`Derived::still_current`]).
    fn reclaim_dead_segments(&mut self, sink: &mut impl StreamSink, stats: &mut AdvanceStats) {
        let rc = self.cfg.reclaim.clone().expect("reclaim mode");
        let arena = Arc::clone(self.arena.as_ref().expect("reclaim implies arena"));
        // Seal the arena segment and the var cohort of this advance side
        // by side: the cohort holds exactly the variables registered since
        // the previous seal, whose Var nodes were interned into `seg` at
        // push time (the registration contract of `ReclaimConfig::vars`).
        let sealed_seg = arena.seal();
        let var_epoch = rc.vars.as_ref().and_then(|vars| {
            let epoch = vars.seal_vars();
            if let (Some(ep), Some(seg)) = (epoch, sealed_seg) {
                vars.bind_cohort_segment(ep, seg);
            }
            epoch
        });
        if let Some(seg) = sealed_seg {
            self.sealed.push_back(SealedSegment {
                seg,
                sealed_at: self.advance_count,
                var_epoch,
            });
        }
        // Live coverage: the union of `[min_segment, segment]` ranges over
        // every ref the engine still holds, merged into disjoint
        // intervals so the per-segment probe is a binary search.
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        {
            let mut probe = |l: &Lineage| {
                let r = l.node_ref();
                ranges.push((arena.min_segment(r).0, r.segment().0));
            };
            for t in self.pending.iter().chain(&self.carry).flatten() {
                probe(&t.lineage);
            }
        }
        ranges.sort_unstable();
        let mut live: Vec<(u32, u32)> = Vec::new();
        for (lo, hi) in ranges {
            match live.last_mut() {
                Some((_, last_hi)) if lo <= last_hi.saturating_add(1) => {
                    *last_hi = (*last_hi).max(hi);
                }
                _ => live.push((lo, hi)),
            }
        }
        let covered = |seg: SegmentId| -> bool {
            let idx = live.partition_point(|&(lo, _)| lo <= seg.0);
            idx > 0 && live[idx - 1].1 >= seg.0
        };
        let mut kept: VecDeque<SealedSegment> = VecDeque::with_capacity(self.sealed.len());
        for entry in std::mem::take(&mut self.sealed) {
            let aged_out =
                self.advance_count.saturating_sub(entry.sealed_at) >= rc.keep_epochs as u64;
            if !aged_out || covered(entry.seg) {
                kept.push_back(entry);
                continue;
            }
            match arena.retire(entry.seg) {
                Ok(freed) => {
                    self.reclaimed_segments += 1;
                    self.reclaimed_nodes += freed.nodes;
                    stats.retired_segments += 1;
                    stats.retired_nodes += freed.nodes;
                    if freed.interior {
                        stats.interior_retired_segments += 1;
                    }
                    // The cohort's vars are dead with the segment (nothing
                    // live reaches their Var nodes): release them right
                    // here, cohort-granular, so an interior retire drops
                    // its registry slice immediately instead of waiting
                    // for every older cohort's segment to retire too.
                    if let Some(epoch) = entry.var_epoch {
                        if let Some(vars) = rc.vars.as_ref() {
                            let released = vars.release_cohort(epoch);
                            self.reclaimed_vars += released.vars;
                            stats.released_vars += released.vars;
                        }
                    }
                    sink.on_retire(entry.seg);
                }
                // Pinned by a consumer-held view: back off, retry on the
                // next advance.
                Err(_) => kept.push_back(entry),
            }
        }
        self.sealed = kept;
    }

    /// Releases everything still buffered by advancing the watermark past
    /// the last buffered end point. No-op (zero stats) when nothing is
    /// buffered.
    ///
    /// Routes through [`StreamEngine::advance`], so there is exactly one
    /// sweep implementation to maintain.
    pub fn finish(&mut self, sink: &mut impl StreamSink) -> Result<AdvanceStats, StreamError> {
        let hi = self
            .pending
            .iter()
            .chain(&self.carry)
            .flatten()
            .map(|t| t.interval.end())
            .max();
        match hi {
            Some(hi) if hi > self.watermark => self.advance(hi, sink),
            _ => {
                // No-op finish: nothing to sweep, but the posture gauges
                // (carried residue, arena residency) are still live state —
                // report them instead of zeros.
                let mut stats = AdvanceStats {
                    watermark: self.watermark,
                    ..Default::default()
                };
                for side in 0..2 {
                    stats.carried[side] = self.carry[side].len();
                }
                if let Some(arena) = &self.arena {
                    stats.arena_live_nodes = arena.live_nodes();
                    stats.arena_resident_bytes = arena.resident_chunk_bytes() as u64;
                }
                Ok(stats)
            }
        }
    }

    /// Emits one window's output tuples, per maintained op, through the
    /// fact's open-window record ([`OpenWindow::step`]): an `Extend` when
    /// the tuple continues the op's previous output tuple of the fact with
    /// the identical lineage handle — the artificial watermark cut — or an
    /// `Insert`.
    fn emit_window(
        &mut self,
        w: LineageAwareWindow,
        sink: &mut impl StreamSink,
        stats: &mut AdvanceStats,
    ) {
        let step = match self.open.get_mut(&w.fact) {
            Some(rec) => rec.step(&w, &self.cfg.ops),
            None => {
                let mut rec = OpenWindow::new();
                let step = rec.step(&w, &self.cfg.ops);
                self.open.insert(w.fact.clone(), rec);
                step
            }
        };
        stats.windows += 1;
        stats.continued_windows += usize::from(step.memo_hit);
        for &op in &self.cfg.ops {
            let Some((lineage, continues)) = step.outputs[op_index(op)] else {
                continue;
            };
            let delta = if continues {
                stats.extends += 1;
                Delta::Extend {
                    fact: w.fact.clone(),
                    lineage,
                    from: w.interval.start(),
                    to: w.interval.end(),
                }
            } else {
                stats.inserts += 1;
                Delta::Insert(TpTuple::new(w.fact.clone(), lineage, w.interval))
            };
            if let Some(p) = self.pipeline.as_mut() {
                p.offer(op, &delta);
            }
            sink.on_delta(op, &delta);
        }
    }
}

/// Merges two `(F, Ts)` sort-key-ordered tuple streams into one (ties take
/// `a` first). The drain joins the carried residuals with the sorted new
/// arrivals through it — O(n), no sort, no intermediate list.
fn merge_by_sort_key(
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
    use crate::delta::{CollectingSink, CountingSink};
    use tp_core::interval::Interval;
    use tp_core::ops;
    use tp_core::relation::{TpRelation, VarTable};

    /// The paper's Example 3 relations (c, a restricted to 'milk').
    fn example3(vars: &mut VarTable) -> (TpRelation, TpRelation) {
        let c = TpRelation::base(
            "c",
            vec![
                (Fact::single("milk"), Interval::at(1, 4), 0.6),
                (Fact::single("milk"), Interval::at(6, 8), 0.7),
            ],
            vars,
        )
        .unwrap();
        let a = TpRelation::base(
            "a",
            vec![(Fact::single("milk"), Interval::at(2, 10), 0.3)],
            vars,
        )
        .unwrap();
        (c, a)
    }

    #[test]
    fn in_order_stream_matches_batch_for_all_ops() {
        let mut vars = VarTable::new();
        let (c, a) = example3(&mut vars);
        let mut engine = StreamEngine::default();
        let mut sink = CollectingSink::new();
        for t in c.iter() {
            assert_eq!(engine.push(Side::Left, t.clone()), IngestOutcome::Accepted);
        }
        for t in a.iter() {
            assert_eq!(engine.push(Side::Right, t.clone()), IngestOutcome::Accepted);
        }
        // Watermark schedule slicing through the middle of tuples.
        for w in [3, 5, 7] {
            engine.advance(w, &mut sink).unwrap();
        }
        engine.finish(&mut sink).unwrap();
        for op in SetOp::ALL {
            assert_eq!(
                sink.relation(op).canonicalized(),
                ops::apply(op, &c, &a).canonicalized(),
                "{op}"
            );
        }
    }

    #[test]
    fn out_of_order_arrival_within_lateness_matches_batch() {
        let mut vars = VarTable::new();
        let (c, a) = example3(&mut vars);
        let mut engine = StreamEngine::default();
        let mut sink = CollectingSink::new();
        // Reverse arrival order; watermark only advances afterwards.
        for t in c.iter().rev() {
            engine.push(Side::Left, t.clone());
        }
        engine.advance(2, &mut sink).unwrap();
        for t in a.iter() {
            engine.push(Side::Right, t.clone());
        }
        engine.finish(&mut sink).unwrap();
        for op in SetOp::ALL {
            assert_eq!(
                sink.relation(op).canonicalized(),
                ops::apply(op, &c, &a).canonicalized(),
                "{op}"
            );
        }
    }

    #[test]
    fn artificial_cuts_are_emitted_as_extends() {
        // One long tuple swept by many watermarks: 1 insert, k-1 extends.
        let mut vars = VarTable::new();
        let id = vars.register("r1", 0.5).unwrap();
        let t = TpTuple::new("f", Lineage::var(id), Interval::at(0, 100));
        let mut engine = StreamEngine::default();
        let mut sink = CountingSink::new();
        engine.push(Side::Left, t);
        for w in (10..=90).step_by(10) {
            engine.advance(w, &mut sink).unwrap();
        }
        engine.finish(&mut sink).unwrap();
        assert_eq!(sink.inserts(SetOp::Union), 1);
        assert_eq!(sink.extends(SetOp::Union), 9);
        assert_eq!(sink.inserts(SetOp::Except), 1);
        assert_eq!(sink.inserts(SetOp::Intersect), 0);
    }

    #[test]
    fn late_tuples_are_dropped_and_counted() {
        let mut vars = VarTable::new();
        let id = vars.register("r1", 0.5).unwrap();
        let mut engine = StreamEngine::default();
        let mut sink = CountingSink::new();
        engine.advance(10, &mut sink).unwrap();
        let late = TpTuple::new("f", Lineage::var(id), Interval::at(5, 8));
        assert_eq!(engine.push(Side::Left, late), IngestOutcome::Late);
        assert_eq!(engine.late_dropped(), [1, 0]);
        let ok = TpTuple::new("f", Lineage::var(id), Interval::at(10, 12));
        assert_eq!(engine.push(Side::Left, ok), IngestOutcome::Accepted);
    }

    #[test]
    fn non_monotonic_watermark_rejected() {
        let mut engine = StreamEngine::default();
        let mut sink = crate::delta::NullSink;
        engine.advance(5, &mut sink).unwrap();
        assert!(matches!(
            engine.advance(5, &mut sink),
            Err(StreamError::NonMonotonicWatermark { .. })
        ));
        assert!(engine.advance(6, &mut sink).is_ok());
    }

    #[test]
    fn bounded_lateness_policy_advances_on_poll() {
        let mut vars = VarTable::new();
        let mut engine = StreamEngine::new(EngineConfig {
            policy: WatermarkPolicy::BoundedLateness(3),
            ..Default::default()
        });
        let mut sink = CountingSink::new();
        let mk = |vars: &mut VarTable, s, e| {
            let id = vars.register("x", 0.5).unwrap();
            TpTuple::new("f", Lineage::var(id), Interval::at(s, e))
        };
        assert!(engine.poll(&mut sink).is_none()); // nothing ingested yet
        engine.push(Side::Left, mk(&mut vars, 0, 2));
        // The watermark trails the highest start by the lateness bound.
        let stats = engine.poll(&mut sink).expect("watermark moved");
        assert_eq!(stats.watermark, -3);
        engine.push(Side::Left, mk(&mut vars, 10, 12));
        let stats = engine.poll(&mut sink).expect("watermark moved");
        assert_eq!(stats.watermark, 7);
        assert_eq!(engine.watermark(), 7);
        // A tuple older than the bound is now late.
        assert_eq!(
            engine.push(Side::Left, mk(&mut vars, 4, 6)),
            IngestOutcome::Late
        );
        // Within the bound: accepted.
        assert_eq!(
            engine.push(Side::Left, mk(&mut vars, 8, 9)),
            IngestOutcome::Accepted
        );
    }

    /// A sliding-window workload: per epoch `e`, `per_epoch` short tuples
    /// per side on a rotating fact population. Nothing outlives its epoch
    /// by more than one stride — the shape a bounded-memory stream serves.
    fn sliding_tuples(
        vars: &mut VarTable,
        epochs: i64,
        per_epoch: i64,
        stride: i64,
    ) -> Vec<(Side, TpTuple)> {
        let mut out = Vec::new();
        for e in 0..epochs {
            for k in 0..per_epoch {
                let base = e * stride + (k * stride / per_epoch);
                for (side, off) in [(Side::Left, 0), (Side::Right, 2)] {
                    let id = vars.register(format!("s{e}_{k}_{off}"), 0.5).unwrap();
                    out.push((
                        side,
                        TpTuple::new(
                            Fact::single(k),
                            Lineage::var(id),
                            Interval::at(base + off, base + off + stride / 2 + 1),
                        ),
                    ));
                }
            }
        }
        out
    }

    #[test]
    fn reclaiming_engine_plateaus_and_matches_batch() {
        let mut vars = VarTable::new();
        let events = sliding_tuples(&mut vars, 60, 8, 16);
        let mut engine = StreamEngine::new(EngineConfig {
            reclaim: Some(ReclaimConfig {
                keep_epochs: 2,
                ..Default::default()
            }),
            ..Default::default()
        });
        // Materialize every delta as a tree immediately (the reclaim-mode
        // consumption contract), so results survive retirement and can be
        // re-interned into the global arena for the batch comparison.
        let mut sink = crate::delta::MaterializingSink::new();
        let mut live_samples = Vec::new();
        let mut w = 0i64;
        for (side, t) in &events {
            engine.push(*side, t.clone());
            let hi = t.interval.start();
            if hi - 24 > w {
                w = hi - 24;
                engine.advance(w, &mut sink).unwrap();
                live_samples.push(engine.arena_stats().unwrap().nodes);
            }
        }
        engine.finish(&mut sink).unwrap();
        assert_eq!(engine.late_dropped(), [0, 0]);
        let (seg_retired, nodes_retired) = engine.reclaimed();
        assert!(seg_retired > 10, "retired only {seg_retired} segments");
        assert!(nodes_retired > 0);
        assert_eq!(sink.retired_segments, seg_retired);
        // Plateau: once warm, live nodes must stop growing with history.
        let warm = &live_samples[live_samples.len() / 2..];
        let peak_warm = *warm.iter().max().unwrap();
        let peak_early = *live_samples[..6.min(live_samples.len())]
            .iter()
            .max()
            .unwrap();
        assert!(
            peak_warm <= 2 * peak_early.max(1),
            "no plateau: early {peak_early}, warm {peak_warm} (samples {live_samples:?})"
        );
        // Equivalence: rebuild the streamed result in the global arena and
        // compare with batch over the same inputs.
        let streamed = sink.replay();
        let collect = |side: Side| -> TpRelation {
            events
                .iter()
                .filter(|(s, _)| *s == side)
                .map(|(_, t)| t.clone())
                .collect()
        };
        let (r, s) = (collect(Side::Left), collect(Side::Right));
        for op in SetOp::ALL {
            assert_eq!(
                streamed.relation(op).canonicalized(),
                ops::apply(op, &r, &s).canonicalized(),
                "{op}"
            );
        }
        // Marginals of the streamed results valuate identically.
        for t in streamed.relation(SetOp::Union).iter() {
            let p = tp_core::prob::marginal(&t.lineage, &vars).unwrap();
            assert!(p > 0.0 && p <= 1.0);
        }
    }

    #[test]
    fn reclaiming_engine_retires_var_cohorts_with_their_segments() {
        // Vars registered at push time (the ReclaimConfig::vars contract)
        // must be released once their segment retires — and only then: a
        // var whose tuple is still buffered stays resolvable.
        let vars = Arc::new(VarTable::new());
        let mut engine = StreamEngine::new(EngineConfig {
            reclaim: Some(ReclaimConfig {
                keep_epochs: 1,
                vars: Some(Arc::clone(&vars)),
            }),
            ..Default::default()
        });
        let mut sink = crate::delta::MaterializingSink::new();
        let mut ids = Vec::new();
        let stride = 10i64;
        for e in 0..30i64 {
            let id = vars
                .register_shared(format!("e{e}"), 0.25 + 0.5 * ((e % 7) as f64) / 7.0)
                .unwrap();
            ids.push(id);
            // Build the lineage inside the engine's arena and keep the
            // scope across the push, so `push` re-interns (dedup hit)
            // instead of translating from the global arena.
            let scope = engine.enter_arena();
            let t = TpTuple::new(
                "f",
                Lineage::var(id),
                tp_core::interval::Interval::at(e * stride, e * stride + 4),
            );
            engine.push(Side::Left, t);
            drop(scope);
            engine.advance(e * stride + 5, &mut sink).unwrap();
        }
        let released = engine.reclaimed_vars();
        assert!(released > 0, "no vars retired over 30 advances");
        assert_eq!(vars.released_vars(), released);
        assert!(
            vars.live_vars() <= 8,
            "var table did not slide: {} live",
            vars.live_vars()
        );
        // Released ids error; live ids still resolve.
        assert!(matches!(
            vars.prob(ids[0]),
            Err(tp_core::error::Error::ReleasedVariable(_))
        ));
        assert!(vars.prob(*ids.last().unwrap()).is_ok());
        // The engine's registry accessor sees the same table.
        assert!(Arc::ptr_eq(engine.var_registry().unwrap(), &vars));
    }

    #[test]
    fn reclaim_translates_foreign_lineage_on_push() {
        // Tuples built in the global arena must be re-interned into the
        // engine's private arena, and deltas valuated in-scope.
        let mut vars = VarTable::new();
        let (c, a) = example3(&mut vars);
        let mut engine = StreamEngine::new(EngineConfig {
            reclaim: Some(ReclaimConfig::default()),
            ..Default::default()
        });
        struct ProbeSink<'a> {
            vars: &'a VarTable,
            probed: usize,
        }
        impl StreamSink for ProbeSink<'_> {
            fn on_delta(&mut self, _op: SetOp, delta: &Delta) {
                if let Delta::Insert(t) = delta {
                    // Runs inside the engine's arena scope.
                    let p = tp_core::prob::marginal(&t.lineage, self.vars).unwrap();
                    assert!(p > 0.0 && p <= 1.0);
                    self.probed += 1;
                }
            }
        }
        let mut sink = ProbeSink {
            vars: &vars,
            probed: 0,
        };
        for t in c.iter() {
            engine.push(Side::Left, t.clone());
        }
        for t in a.iter() {
            engine.push(Side::Right, t.clone());
        }
        engine.finish(&mut sink).unwrap();
        assert!(sink.probed > 0);
        let stats = engine.arena_stats().unwrap();
        assert!(stats.nodes > 0, "lineage was not translated into the arena");
    }

    #[test]
    fn merge_by_sort_key_is_a_stable_sorted_merge() {
        let mut vars = VarTable::new();
        let mut tuple = |fact: i64, s: i64, e: i64| {
            let id = vars.register(format!("v{fact}_{s}"), 0.5).unwrap();
            TpTuple::new(Fact::single(fact), Lineage::var(id), Interval::at(s, e))
        };
        let a = vec![tuple(1, 0, 2), tuple(3, 5, 6)];
        let b = vec![tuple(1, 3, 4), tuple(2, 0, 1)];
        let merged: Vec<TpTuple> = merge_by_sort_key(a.clone(), b.clone()).collect();
        let mut reference = [a, b].concat();
        reference.sort_by(|x, y| x.sort_key().cmp(&y.sort_key()));
        assert_eq!(merged, reference);
    }

    #[test]
    fn advance_stats_account_for_release_and_carry() {
        let mut vars = VarTable::new();
        let (c, a) = example3(&mut vars);
        let mut engine = StreamEngine::default();
        let mut sink = CountingSink::new();
        for t in c.iter() {
            engine.push(Side::Left, t.clone());
        }
        for t in a.iter() {
            engine.push(Side::Right, t.clone());
        }
        let stats = engine.advance(3, &mut sink).unwrap();
        // Left: [1,4) released (crosses 3, carried), [6,8) stays pending.
        assert_eq!(stats.released, [1, 1]);
        assert_eq!(stats.carried, [1, 1]);
        assert_eq!(engine.buffered(), [2, 1]);
        assert!(stats.windows > 0);
    }
}
