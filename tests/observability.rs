//! Observability suite: the tp-obs layer must never change what the engine
//! computes, only describe it. The strongest oracle is differential — the
//! same replay recording into a private registry under a tenant label and
//! into the global registry unlabeled must emit **byte-identical** delta
//! logs in every engine mode. On top of that:
//! histogram quantiles stay inside the exact answer's power-of-two bucket
//! (property test), trace rings stay bounded under concurrent writers,
//! stage spans tile each advance exactly, and both export formats parse.

mod common;

use std::sync::Arc;

use common::oracle::assert_delta_logs_identical;
use proptest::prelude::*;
use tp_obs::{
    chrome_trace_json, ctx_id, json, snapshot_spans, Histogram, MetricsRegistry, SpanEvent,
    TraceRing,
};
use tp_stream::{
    EngineConfig, MaterializingSink, ObsConfig, ReclaimConfig, ReplayConfig, ServerConfig, Side,
    StreamScript, StreamServer,
};
use tp_workloads::{sliding_synth_stream, SlidingConfig};
use tpdb::prelude::*;

/// Replays `script` through one engine with the given config; returns the
/// materialized delta log (finish included by the script's epilogue).
fn run(script: &StreamScript, cfg: EngineConfig) -> MaterializingSink {
    let mut sink = MaterializingSink::new();
    script.run_into(cfg, &mut sink);
    sink
}

fn sliding_script() -> StreamScript {
    let mut vars = VarTable::new();
    let w = sliding_synth_stream(
        &SlidingConfig {
            epochs: 12,
            per_epoch: 30,
            ..Default::default()
        },
        &mut vars,
    );
    StreamScript::from_pair(
        &w.r,
        &w.s,
        &ReplayConfig {
            lateness: 24,
            advance_every: 32,
            seed: 7,
        },
    )
}

// ---------------------------------------------------------------------------
// Histograms: quantiles within one power-of-two bucket of the exact answer.
// ---------------------------------------------------------------------------

/// Mirror of the histogram's bucketing rule: 0 for 0, else the bit length.
fn bucket_of(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `count`/`sum` are exact, and every quantile lands in the same log2
    /// bucket as the exact order statistic it approximates.
    #[test]
    fn histogram_quantiles_bracket_exact(
        samples in prop::collection::vec(0u64..1u64 << 40, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        for &q in &qs {
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let exact = sorted[(rank - 1) as usize];
            let approx = h.quantile(q);
            prop_assert_eq!(
                bucket_of(approx),
                bucket_of(exact),
                "q={} approx={} exact={}",
                q,
                approx,
                exact
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Trace rings: bounded and loss-free up to capacity, under contention.
// ---------------------------------------------------------------------------

#[test]
fn trace_ring_wraps_to_capacity_and_keeps_newest() {
    let ring = TraceRing::new(8);
    for i in 0..20u64 {
        ring.record(SpanEvent {
            name: "probe",
            cat: "test",
            ts_ns: i,
            dur_ns: 1,
            tid: 1,
            ctx: 0,
            arg: i,
        });
    }
    let events = ring.snapshot();
    assert_eq!(events.len(), 8, "ring must cap at its capacity");
    // Oldest-first snapshot of the newest 8 of 20 events.
    let args: Vec<u64> = events.iter().map(|e| e.arg).collect();
    assert_eq!(args, (12..20).collect::<Vec<u64>>());
}

#[test]
fn trace_ring_is_bounded_under_concurrent_writers() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 2_000;
    let ring = TraceRing::new(256);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let ring = &ring;
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    ring.record(SpanEvent {
                        name: "probe",
                        cat: "test",
                        ts_ns: i,
                        dur_ns: 1,
                        tid: w as u32,
                        ctx: 0,
                        arg: w * PER_WRITER + i,
                    });
                }
            });
        }
    });
    let events = ring.snapshot();
    assert_eq!(events.len(), 256, "ring overflowed its capacity");
    for e in &events {
        let w = e.arg / PER_WRITER;
        assert!(w < WRITERS, "event not written by any writer: {e:?}");
        assert_eq!(
            e.arg % PER_WRITER,
            e.ts_ns,
            "event torn by concurrent writes"
        );
    }
}

// ---------------------------------------------------------------------------
// The differential gate: instrumentation must be invisible in the output.
// ---------------------------------------------------------------------------

/// Every engine mode, recording into a private registry under a tenant
/// label versus into the global registry with no label, must emit
/// byte-identical delta logs.
#[test]
fn private_registry_replay_is_byte_identical_to_global() {
    let script = sliding_script();
    let modes: Vec<(&str, EngineConfig)> = vec![
        ("sequential", EngineConfig::default()),
        (
            "reclaim",
            EngineConfig {
                reclaim: Some(ReclaimConfig::default()),
                ..Default::default()
            },
        ),
    ];
    for (mode, cfg) in modes {
        let registry = Arc::new(MetricsRegistry::new());
        let tenant = format!("obs-test-diff-{mode}");
        let private = run(
            &script,
            EngineConfig {
                obs: ObsConfig {
                    tenant: Some(tenant.clone()),
                    registry: Some(Arc::clone(&registry)),
                },
                ..cfg.clone()
            },
        );
        let global = run(&script, cfg);
        assert_delta_logs_identical(
            &private,
            &global,
            &format!("private registry vs global registry [{mode}]"),
        );
        // The private run really recorded into its own registry.
        assert!(
            registry
                .counter("tp_advances_total", &[("tenant", tenant.as_str())])
                .get()
                > 0,
            "[{mode}] no advances counted in the private registry"
        );
        // Continuations are a subset of the windows swept.
        let counter = |name: &str| registry.counter(name, &[("tenant", tenant.as_str())]).get();
        assert!(
            counter("tp_window_continuations_total") <= counter("tp_windows_total"),
            "[{mode}] more continuations than windows"
        );
    }
}

/// Every window is either served from its fact's open-window record (a
/// continuation) or runs the λ-functions: per advance and in the registry,
/// hits + misses = windows. A long tuple swept by many watermarks is one
/// miss followed by hits only.
#[test]
fn window_continuations_and_derivations_add_up_to_windows() {
    let registry = Arc::new(MetricsRegistry::new());
    let tenant = "obs-test-continuations";
    let mut vars = VarTable::new();
    let mut engine = tp_stream::StreamEngine::new(EngineConfig {
        obs: ObsConfig {
            tenant: Some(tenant.to_string()),
            registry: Some(Arc::clone(&registry)),
        },
        ..Default::default()
    });
    let mut sink = MaterializingSink::new();
    for (side, name) in [(Side::Left, "r"), (Side::Right, "s")] {
        let id = vars.register(name, 0.5).unwrap();
        engine.push(
            side,
            TpTuple::new("long", Lineage::var(id), Interval::at(0, 100)),
        );
    }
    let (mut windows, mut hits, mut misses) = (0u64, 0u64, 0u64);
    for w in (10..=100).step_by(10) {
        // A short-lived fact per advance: always derived, never continued.
        let id = vars.register(format!("short{w}"), 0.5).unwrap();
        engine.push(
            Side::Left,
            TpTuple::new(
                Fact::single(w),
                Lineage::var(id),
                Interval::at(w - 5, w - 2),
            ),
        );
        let stats = engine.advance(w, &mut sink).unwrap();
        assert!(stats.continued_windows <= stats.windows);
        windows += stats.windows as u64;
        hits += stats.continued_windows as u64;
        misses += (stats.windows - stats.continued_windows) as u64;
    }
    assert_eq!(windows, 20, "the long fact and one short fact per advance");
    assert_eq!(
        (hits, misses),
        (9, 11),
        "first sight derives, cuts continue"
    );
    let counter = |name: &str| registry.counter(name, &[("tenant", tenant)]).get();
    assert_eq!(counter("tp_windows_total"), windows);
    assert_eq!(counter("tp_window_continuations_total"), hits);
    assert_eq!(hits + misses, counter("tp_windows_total"));
    // Continued windows are exactly the ones emitted as Extends here.
    let extends = sink.deltas.iter().filter(|d| !d.insert).count() as u64;
    assert_eq!(extends, hits * SetOp::ALL.len() as u64);
    assert!(registry
        .prometheus_text()
        .contains("tp_window_continuations_total"));
}

// ---------------------------------------------------------------------------
// Stage spans: the taxonomy tiles each advance exactly.
// ---------------------------------------------------------------------------

/// Stage spans are cut from one cursor, so per context they must sum to
/// exactly the advance spans they tile — 100% coverage, not just >= 95%.
#[test]
fn stage_spans_tile_every_advance() {
    let script = sliding_script();
    let label = "obs-test-coverage";
    let registry = Arc::new(MetricsRegistry::new());
    run(
        &script,
        EngineConfig {
            reclaim: Some(ReclaimConfig::default()),
            obs: ObsConfig {
                tenant: Some(label.to_string()),
                registry: Some(registry),
            },
            ..Default::default()
        },
    );
    let ctx = ctx_id(label);
    let spans: Vec<SpanEvent> = snapshot_spans()
        .into_iter()
        .filter(|e| e.ctx == ctx)
        .collect();
    let advances: Vec<&SpanEvent> = spans.iter().filter(|e| e.cat == "advance").collect();
    let stages: Vec<&SpanEvent> = spans.iter().filter(|e| e.cat == "stage").collect();
    assert!(!advances.is_empty(), "no advance spans recorded");
    assert_eq!(
        stages.len(),
        advances.len() * tp_stream::STAGES.len(),
        "each advance must record exactly one span per stage"
    );
    for s in &stages {
        assert!(
            tp_stream::STAGES.contains(&s.name),
            "unknown stage name {:?}",
            s.name
        );
    }
    let advance_ns: u64 = advances.iter().map(|e| e.dur_ns).sum();
    let stage_ns: u64 = stages.iter().map(|e| e.dur_ns).sum();
    assert_eq!(
        stage_ns, advance_ns,
        "stage spans must tile the advance wall time exactly"
    );
    // Each stage span nests inside an advance span.
    for s in &stages {
        assert!(
            advances
                .iter()
                .any(|a| a.ts_ns <= s.ts_ns && s.ts_ns + s.dur_ns <= a.ts_ns + a.dur_ns),
            "stage span {:?} escapes every advance span",
            s.name
        );
    }
}

// ---------------------------------------------------------------------------
// Exports: Prometheus text, JSON registry dump, chrome://tracing.
// ---------------------------------------------------------------------------

#[test]
fn exports_are_well_formed_after_a_replay() {
    let script = sliding_script();
    let label = "obs-test-exports";
    let registry = Arc::new(MetricsRegistry::new());
    run(
        &script,
        EngineConfig {
            reclaim: Some(ReclaimConfig::default()),
            obs: ObsConfig {
                tenant: Some(label.to_string()),
                registry: Some(Arc::clone(&registry)),
            },
            ..Default::default()
        },
    );
    let text = registry.prometheus_text();
    for metric in [
        "tp_advances_total",
        "tp_windows_total",
        "tp_advance_ns",
        "tp_stage_ns",
    ] {
        assert!(text.contains(metric), "prometheus text missing {metric}");
    }
    assert!(
        text.contains("tenant=\"obs-test-exports\""),
        "tenant label missing from prometheus text"
    );
    json::validate(&registry.json()).expect("registry JSON dump must parse");

    let ctx = ctx_id(label);
    let spans: Vec<SpanEvent> = snapshot_spans()
        .into_iter()
        .filter(|e| e.ctx == ctx)
        .collect();
    assert!(!spans.is_empty(), "no spans to export");
    let trace = chrome_trace_json(&spans);
    json::validate(&trace).expect("chrome trace JSON must parse");
    assert!(
        trace.contains("\"ph\":\"X\""),
        "trace events must be complete spans"
    );
    assert!(
        trace.contains(label),
        "trace args must carry the context label"
    );
}

// ---------------------------------------------------------------------------
// Multi-tenant: spans and metrics stay attributable per tenant.
// ---------------------------------------------------------------------------

#[test]
fn multi_tenant_spans_and_metrics_stay_attributable() {
    let registry = Arc::new(MetricsRegistry::new());
    let mut server: StreamServer<MaterializingSink> = StreamServer::new(ServerConfig {
        workers: 2,
        obs: ObsConfig {
            tenant: None, // overwritten per tenant
            registry: Some(Arc::clone(&registry)),
        },
        ..Default::default()
    });
    let tenants = ["obs-test-mt-alpha", "obs-test-mt-beta"];
    let ids: Vec<_> = tenants
        .iter()
        .map(|name| server.add_tenant(*name, MaterializingSink::new()))
        .collect();
    for wave in 0..8i64 {
        let base = wave * 32;
        for &id in &ids {
            for k in 0..6i64 {
                let t = base + 4 * k;
                server
                    .push_row(id, Side::Left, Fact::single(k), Interval::at(t, t + 9), 0.5)
                    .unwrap();
                server
                    .push_row(
                        id,
                        Side::Right,
                        Fact::single(k),
                        Interval::at(t + 1, t + 7),
                        0.4,
                    )
                    .unwrap();
            }
        }
        for result in server.advance_all(base + 16) {
            result.unwrap();
        }
    }
    for result in server.finish_all() {
        result.unwrap();
    }
    for name in tenants {
        let labels = [("tenant", name)];
        assert!(
            registry.counter("tp_advances_total", &labels).get() >= 8,
            "{name}: advances not counted under the tenant label"
        );
        assert!(
            registry.histogram("tp_wave_advance_ns", &labels).count() >= 8,
            "{name}: wave latency histogram empty"
        );
        let ctx = ctx_id(name);
        let spans: Vec<SpanEvent> = snapshot_spans()
            .into_iter()
            .filter(|e| e.ctx == ctx)
            .collect();
        assert!(
            spans.iter().any(|e| e.cat == "advance"),
            "{name}: no advance spans attributed to the tenant"
        );
        let trace = chrome_trace_json(&spans);
        json::validate(&trace).expect("per-tenant trace must parse");
        assert!(
            trace.contains(name),
            "{name}: trace args lost the tenant label"
        );
    }
}

// ---------------------------------------------------------------------------
// finish() on a drained engine reports real posture, not defaults.
// ---------------------------------------------------------------------------

#[test]
fn finish_on_drained_engine_reports_live_posture() {
    let mut vars = VarTable::new();
    let mut engine = tp_stream::StreamEngine::new(EngineConfig {
        reclaim: Some(ReclaimConfig::default()),
        ..Default::default()
    });
    let mut sink = MaterializingSink::new();
    for k in 0..40i64 {
        let t = 4 * k;
        let id = vars.register(format!("v{k}"), 0.5).unwrap();
        let scope = engine.enter_arena();
        let tuple = TpTuple::new(Fact::single(k), Lineage::var(id), Interval::at(t, t + 9));
        engine.push(Side::Left, tuple);
        drop(scope);
    }
    // Drain everything in one advance just past the data — the freshly
    // sealed segment is still inside the keep window, so the arena holds
    // live nodes — then finish on the now-empty engine: the empty path
    // must still report the watermark, carried counts and live arena
    // posture instead of a default struct.
    engine.advance(170, &mut sink).unwrap();
    let stats = engine.finish(&mut sink).unwrap();
    assert_eq!(stats.watermark, 170, "empty finish lost the watermark");
    assert_eq!(stats.carried, [0, 0]);
    assert_eq!(stats.windows, 0, "nothing left to release");
    assert!(
        stats.arena_live_nodes > 0,
        "reclaim-mode finish must report live arena nodes"
    );
    assert!(
        stats.arena_resident_bytes > 0,
        "reclaim-mode finish must report resident arena bytes"
    );
}
