//! Engine observability: stage spans, labeled metrics, and the shared
//! gauge renderer — the tp-stream glue over [`tp_obs`].
//!
//! ## Stage-span taxonomy
//!
//! Every [`StreamEngine::advance`](crate::StreamEngine::advance) is
//! decomposed into **partition stages** (category `"stage"`) that tile the
//! advance wall time exactly — each stage starts where the previous one
//! ended, so `Σ stage durations = advance duration` by construction:
//!
//! | stage        | covers |
//! |--------------|--------|
//! | `drain`      | buffer release, arrival sort, watermark split, carry merge |
//! | `sweep`      | the LAWA sweep + delta emission |
//! | `finalize`   | watermark publication, record pruning, `on_watermark` |
//! | `seal_retire`| arena seal + dead-segment retirement (reclaim mode) |
//!
//! **Sub-spans** (category `"sub"`) overlap their parent stage and are
//! excluded from the tiling sum: one per standing-pipeline operator pass,
//! and `valuate_batch` (the columnar marginal kernel, recorded by
//! [`valuate_batch`]). A whole-advance span (category `"advance"`, payload:
//! the released pieces) wraps the stages. All spans of one engine share an
//! interned context label
//! ([`tp_obs::ctx_id`]) — the tenant name under a
//! [`StreamServer`](crate::StreamServer), `"engine"` otherwise — so exports and tests can
//! filter one run out of the process-wide ring buffers.
//!
//! Metrics and spans never influence engine behavior: an instrumented run
//! emits byte-identical delta logs to an uninstrumented one (asserted by
//! `tests/observability.rs`).

use std::sync::Arc;

use tp_core::arena::ArenaStats;

pub use tp_obs::{
    chrome_trace_json, ctx_label, global, now_ns, render_all, snapshot_spans, MetricsRegistry,
    Section, SpanEvent,
};
use tp_obs::{ctx_id, record_span, Counter, Histogram};

use crate::engine::AdvanceStats;

/// Partition-stage names, in pipeline order: the `stage` label of the
/// `tp_stage_ns` histogram and the name of each `"stage"` span.
pub const STAGES: [&str; 4] = ["drain", "sweep", "finalize", "seal_retire"];

/// Index of the `drain` stage.
pub(crate) const STAGE_DRAIN: usize = 0;
/// Index of the `sweep` stage.
pub(crate) const STAGE_SWEEP: usize = 1;
/// Index of the `finalize` stage.
pub(crate) const STAGE_FINALIZE: usize = 2;
/// Index of the `seal_retire` stage.
pub(crate) const STAGE_SEAL_RETIRE: usize = 3;

/// Observability configuration of one engine.
#[derive(Clone)]
pub struct ObsConfig {
    /// Record metrics and stage spans for this engine (default: on — the
    /// layer is cheap enough to keep on; the repository benchmark reports
    /// the overhead as `bench.trace_overhead_ratio`).
    pub enabled: bool,
    /// Label attached to this engine's metrics (`tenant="..."`) and used
    /// as the span context label. The [`StreamServer`](crate::StreamServer)
    /// sets it to the tenant name; `None` labels nothing and uses the
    /// shared `"engine"` context.
    pub tenant: Option<String>,
    /// Registry receiving this engine's metrics; `None` uses the
    /// process-wide [`tp_obs::global`] registry. Benchmarks and tests
    /// install a private registry to isolate their readings.
    pub registry: Option<Arc<MetricsRegistry>>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            tenant: None,
            registry: None,
        }
    }
}

impl std::fmt::Debug for ObsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsConfig")
            .field("enabled", &self.enabled)
            .field("tenant", &self.tenant)
            .field("registry", &self.registry.as_ref().map(|_| "custom"))
            .finish()
    }
}

/// Master switch for the *global-flag* instrumentation layer that sits
/// below the engine — the arena (tp-core) — which an [`ObsConfig`] cannot
/// reach per instance. Tests flip this off together with
/// `ObsConfig::enabled` for a genuinely uninstrumented baseline run.
pub fn set_obs_enabled(on: bool) {
    tp_core::arena::set_obs_enabled(on);
}

/// Cached registry handles + span context of one instrumented engine.
/// Cheap to share (`Arc`); recording never locks the registry.
pub(crate) struct EngineObs {
    /// Interned span-context id of this engine.
    pub ctx: u32,
    advances: Arc<Counter>,
    windows: Arc<Counter>,
    continuations: Arc<Counter>,
    inserts: Arc<Counter>,
    extends: Arc<Counter>,
    released: Arc<Counter>,
    late: Arc<Counter>,
    advance_ns: Arc<Histogram>,
    stage_ns: Vec<Arc<Histogram>>,
}

impl EngineObs {
    /// Builds the handles, or `None` when disabled.
    pub fn from_config(cfg: &ObsConfig) -> Option<Arc<EngineObs>> {
        if !cfg.enabled {
            return None;
        }
        let reg: &MetricsRegistry = match &cfg.registry {
            Some(r) => r,
            None => global(),
        };
        let tenant = cfg.tenant.as_deref();
        let labels: Vec<(&str, &str)> = match tenant {
            Some(t) => vec![("tenant", t)],
            None => Vec::new(),
        };
        let stage_ns = STAGES
            .iter()
            .map(|stage| {
                let mut l = labels.clone();
                l.push(("stage", stage));
                reg.histogram("tp_stage_ns", &l)
            })
            .collect();
        Some(Arc::new(EngineObs {
            ctx: ctx_id(tenant.unwrap_or("engine")),
            advances: reg.counter("tp_advances_total", &labels),
            windows: reg.counter("tp_windows_total", &labels),
            continuations: reg.counter("tp_window_continuations_total", &labels),
            inserts: reg.counter("tp_deltas_insert_total", &labels),
            extends: reg.counter("tp_deltas_extend_total", &labels),
            released: reg.counter("tp_released_tuples_total", &labels),
            late: reg.counter("tp_late_dropped_total", &labels),
            advance_ns: reg.histogram("tp_advance_ns", &labels),
            stage_ns,
        }))
    }

    /// Counts one late-dropped tuple.
    pub fn record_late(&self) {
        self.late.inc();
    }

    /// Records a sub-span (category `"sub"`) under this engine's context.
    pub fn sub_span(&self, name: &'static str, ts_ns: u64, dur_ns: u64, arg: u64) {
        record_span(name, "sub", ts_ns, dur_ns, self.ctx, arg);
    }
}

/// The per-advance stage clock: each [`StageCursor::stage`] call closes
/// the interval since the previous boundary, so the recorded stages tile
/// the advance exactly. A disabled cursor (no [`EngineObs`]) is free —
/// it never reads the clock.
pub(crate) struct StageCursor<'a> {
    obs: Option<&'a EngineObs>,
    t0: u64,
    cursor: u64,
}

impl<'a> StageCursor<'a> {
    /// Starts the clock (reads it only when `obs` is live).
    pub fn start(obs: Option<&'a EngineObs>) -> Self {
        let t0 = if obs.is_some() { now_ns() } else { 0 };
        StageCursor {
            obs,
            t0,
            cursor: t0,
        }
    }

    /// Closes the current stage interval as `STAGES[stage]` with payload
    /// `arg`, and starts the next one.
    pub fn stage(&mut self, stage: usize, arg: u64) {
        let Some(obs) = self.obs else { return };
        let now = now_ns();
        let dur = now - self.cursor;
        record_span(STAGES[stage], "stage", self.cursor, dur, obs.ctx, arg);
        obs.stage_ns[stage].record(dur);
        self.cursor = now;
    }

    /// Records the whole-advance span (exactly the union of the recorded
    /// stages) and folds the advance's counters into the registry.
    pub fn finish(self, stats: &AdvanceStats) {
        let Some(obs) = self.obs else { return };
        let dur = self.cursor - self.t0;
        record_span(
            "advance",
            "advance",
            self.t0,
            dur,
            obs.ctx,
            (stats.released[0] + stats.released[1]) as u64,
        );
        obs.advance_ns.record(dur);
        obs.advances.inc();
        obs.windows.add(stats.windows as u64);
        obs.continuations.add(stats.continued_windows as u64);
        obs.inserts.add(stats.inserts);
        obs.extends.add(stats.extends);
        obs.released
            .add((stats.released[0] + stats.released[1]) as u64);
    }
}

/// Batch-valuates marginals through the columnar kernel
/// ([`tp_core::prob::marginal_batch`]), recording a `valuate_batch`
/// sub-span (category `"sub"`, so the stage tiling is untouched) under
/// the shared `"valuation"` context with the batch size as payload. The
/// kernel itself also bumps `tp_valuation_batched_nodes_total` for every
/// node it resolves columnar-side. This is the instrumented valuation
/// entry point shared by the repl, the examples and `ValuatingSink`;
/// callers that want raw access use `tp_core::prob::marginal_batch`
/// directly.
pub fn valuate_batch(
    lineages: &[tp_core::lineage::Lineage],
    vars: &tp_core::relation::VarTable,
) -> tp_core::error::Result<Vec<f64>> {
    let t0 = now_ns();
    let out = tp_core::prob::marginal_batch(lineages, vars);
    let dur = now_ns() - t0;
    record_span(
        "valuate_batch",
        "sub",
        t0,
        dur,
        ctx_id("valuation"),
        lineages.len() as u64,
    );
    out
}

/// Renders one advance's [`AdvanceStats`] as a [`Section`] — the single
/// formatting path shared by the repl commands and the example summaries
/// (each used to hand-format its own subset).
pub fn advance_section(stats: &AdvanceStats) -> Section {
    Section::new(format!("advance → {}", stats.watermark))
        .row(
            "windows",
            format!("{} ({} continued)", stats.windows, stats.continued_windows),
        )
        .row(
            "deltas",
            format!("{} inserts + {} extends", stats.inserts, stats.extends),
        )
        .row(
            "released [l, r]",
            format!("[{}, {}]", stats.released[0], stats.released[1]),
        )
        .row(
            "carried [l, r]",
            format!("[{}, {}]", stats.carried[0], stats.carried[1]),
        )
        .row_opt(
            "retired",
            (stats.retired_segments > 0 || stats.retired_nodes > 0).then(|| {
                format!(
                    "{} segments ({} interior) / {} nodes, {} vars released",
                    stats.retired_segments,
                    stats.interior_retired_segments,
                    stats.retired_nodes,
                    stats.released_vars
                )
            }),
        )
        .row_opt(
            "arena",
            (stats.arena_live_nodes > 0).then(|| {
                format!(
                    "{} live nodes, ~{} KiB resident",
                    stats.arena_live_nodes,
                    stats.arena_resident_bytes / 1024
                )
            }),
        )
}

/// Renders [`ArenaStats`] as a [`Section`] — shared by `\arena` and the
/// example summaries.
pub fn arena_section(stats: &ArenaStats) -> Section {
    Section::new("lineage arena")
        .row(
            "live nodes",
            format!(
                "{} ({} interned, {} retired)",
                stats.nodes, stats.total_interned, stats.retired_nodes
            ),
        )
        .row(
            "segments",
            format!(
                "{} ({} live / {} retired)",
                stats.segments, stats.live_segments, stats.retired_segments
            ),
        )
        .row("resident", format!("~{} KiB", stats.resident_bytes / 1024))
        .row("exact var lists", stats.with_var_list)
}

/// Prometheus-style text snapshot of the global registry — the repl's
/// `\metrics` payload.
pub fn metrics_text() -> String {
    global().prometheus_text()
}

/// JSON snapshot of the global registry — the repl's `\metrics json`
/// payload.
pub fn metrics_json() -> String {
    global().json()
}

/// chrome://tracing dump of every span recorded so far — the repl's
/// `\trace <file>` payload. Open in `chrome://tracing` or Perfetto.
pub fn trace_json() -> String {
    chrome_trace_json(&snapshot_spans())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_builds_no_handles() {
        assert!(EngineObs::from_config(&ObsConfig {
            enabled: false,
            ..Default::default()
        })
        .is_none());
    }

    #[test]
    fn tenant_label_lands_on_metrics() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = EngineObs::from_config(&ObsConfig {
            enabled: true,
            tenant: Some("acme".into()),
            registry: Some(Arc::clone(&reg)),
        })
        .expect("enabled");
        obs.record_late();
        let text = reg.prometheus_text();
        assert!(
            text.contains("tp_late_dropped_total{tenant=\"acme\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn stage_cursor_tiles_the_advance() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = EngineObs::from_config(&ObsConfig {
            enabled: true,
            tenant: Some("stage-cursor-test".into()),
            registry: Some(Arc::clone(&reg)),
        })
        .expect("enabled");
        let ctx = obs.ctx;
        let mut cursor = StageCursor::start(Some(&obs));
        for stage in 0..STAGES.len() {
            cursor.stage(stage, 0);
        }
        cursor.finish(&AdvanceStats::default());
        let spans: Vec<SpanEvent> = snapshot_spans()
            .into_iter()
            .filter(|e| e.ctx == ctx)
            .collect();
        let advance: Vec<_> = spans.iter().filter(|e| e.cat == "advance").collect();
        assert_eq!(advance.len(), 1);
        let stage_sum: u64 = spans
            .iter()
            .filter(|e| e.cat == "stage")
            .map(|e| e.dur_ns)
            .sum();
        assert_eq!(stage_sum, advance[0].dur_ns, "stages must tile the advance");
    }

    #[test]
    fn sections_render_the_shared_layout() {
        let stats = AdvanceStats {
            watermark: 42,
            windows: 3,
            inserts: 2,
            extends: 1,
            ..Default::default()
        };
        let out = advance_section(&stats).render();
        assert!(out.starts_with("-- advance → 42 --"), "{out}");
        assert!(out.contains("2 inserts + 1 extends"), "{out}");
    }
}
