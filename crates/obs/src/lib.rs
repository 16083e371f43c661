//! # tp-obs — observability primitives for the streaming engine
//!
//! A hand-rolled (dependency-free, vendored-shims-friendly) observability
//! layer cheap enough to stay **on by default** in the hot advance path:
//!
//! * [`Counter`] / [`Gauge`] — single atomics, lock-free on every path;
//! * [`Histogram`] — log2-bucketed latency/size distribution with
//!   p50/p95/p99 readout (quantiles are exact to within one power-of-two
//!   bucket, see the module docs of [`metrics`]);
//! * [`MetricsRegistry`] — labeled metric families (`tenant`, `stage`,
//!   `region` …). Registration takes a lock once; the returned `Arc`
//!   handles are cached by the instrumented code, so steady-state
//!   recording never touches the registry again;
//! * [`span`] — zero-alloc scoped **stage spans** recorded into bounded
//!   per-thread ring buffers, exportable as a chrome://tracing ("trace
//!   event format") JSON profile that Perfetto or `chrome://tracing`
//!   opens as a flamegraph;
//! * snapshots — a Prometheus-style text exposition
//!   ([`MetricsRegistry::prometheus_text`]) and a JSON snapshot
//!   ([`MetricsRegistry::json`]);
//! * [`report::Section`] — the one gauge renderer shared by the repl
//!   commands and the example summaries (previously each hand-formatted
//!   its own `AdvanceStats` dump).
//!
//! See `docs/observability.md` for the metric catalog and the stage-span
//! taxonomy of the streaming engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use metrics::{
    global, Counter, Gauge, Histogram, MetricValue, MetricsRegistry, Sample, HISTOGRAM_BUCKETS,
};
pub use report::{render_all, Section};
pub use span::{
    chrome_trace_json, ctx_id, ctx_label, now_ns, record_span, snapshot_spans, SpanEvent,
    TraceRing, DEFAULT_RING_CAP,
};
