//! # tp-stream — Continuous LAWA
//!
//! A streaming execution mode for the TP set operations of the paper: facts
//! arrive continuously and out of order, and the results of `∪Tp`, `∩Tp`
//! and `−Tp` are maintained **incrementally** — consumers receive *deltas*
//! (new or extended output intervals with their lineage) instead of batch
//! re-runs.
//!
//! The batch algorithm already contains the key invariant: a LAWA window
//! over `(-∞, w)` depends only on tuples starting below `w` (Alg. 1 looks
//! at `rValid`/`sValid` and the *upcoming* tuples of the current fact, all
//! of which start below the window's end). So once a **watermark** promises
//! that no tuple with `Ts < w` will arrive anymore, the result prefix below
//! `w` is final. The engine sweeps exactly that prefix — reusing the
//! sequential [`tp_core::window::Lawa`] advancer per advance — and carries
//! tuples crossing the watermark into the next sweep via
//! [`tp_core::window::split_at_watermark`], with their lineage handle
//! unchanged. Hash-consed lineage (PR 1) is what makes the delta merge
//! O(1): an output tuple continues across a cut iff the adjacent tuple
//! carries the *same* `LineageRef`.
//!
//! ## Module map
//!
//! | module | content |
//! |---|---|
//! | [`engine`] | [`StreamEngine`]: ingestion, watermarks, incremental sweep, delta emission |
//! | [`delta`] | [`Delta`], the [`StreamSink`] trait, collecting/counting sinks |
//! | [`obs`] | stage-level tracing + lock-free metrics for the advance pipeline ([`tp_obs`] façade) |
//! | [`pipeline`] | [`Pipeline`]: a compiled [`tp_relalg::Plan`] running as standing incremental operators over the delta streams |
//! | [`replay`] | deterministic out-of-order replay scripts over batch relation pairs |
//! | [`server`] | [`StreamServer`]: N isolated bounded-memory tenants behind one façade |
//!
//! See `docs/streaming.md` for the watermark/lateness model and how the
//! delta semantics map onto the paper's window-advancement invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod engine;
pub mod obs;
pub mod pipeline;
pub mod replay;
pub mod server;

pub use delta::{
    CollectingSink, CountingSink, Delta, MaterializedDelta, MaterializingSink, NullSink,
    StreamSink, ValuatedDelta, ValuatingSink,
};
pub use engine::{
    AdvanceStats, EngineConfig, IngestOutcome, ReclaimConfig, Side, StreamEngine, StreamError,
    WatermarkPolicy,
};
pub use obs::{
    advance_section, arena_section, metrics_json, metrics_text, render_all, trace_json, ObsConfig,
    Section, STAGES,
};
pub use pipeline::{encode_relation, encode_row, Pipeline, PipelineError};
pub use replay::{ReplayConfig, ReplayEvent, ReplayTotals, StreamScript};
pub use server::{ServerConfig, StreamServer, TenantId};
