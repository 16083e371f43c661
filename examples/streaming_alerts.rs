//! Live alert maintenance: the streaming twin of `weather_alerts`, in
//! **bounded memory**.
//!
//! The same Meteo-like scenario — `forecast` vs a time-shifted `confirmed`
//! stream — but instead of batch set operations over finished relations,
//! tuples *arrive* out of order and a continuous engine maintains
//! `forecast −Tp confirmed` (uncorroborated-forecast alerts) and
//! `forecast ∩Tp confirmed` (agreement periods) incrementally. The engine
//! runs in reclaim mode: it hosts lineage in a private segmented arena,
//! seals one segment per watermark advance, and retires every segment the
//! live window no longer reaches — so the arena residency plateaus no
//! matter how long the stream runs.
//!
//! ```text
//! cargo run --release --example streaming_alerts
//! ```

use tp_stream::{
    Delta, EngineConfig, ReclaimConfig, ReplayConfig, ReplayEvent, StreamEngine, StreamSink,
    ValuatingSink,
};
use tp_workloads::{meteo_stream, MeteoConfig};
use tpdb::prelude::*;

/// A monitoring sink: counts deltas per op and retired segments. Alert
/// valuation is *not* done here tuple-by-tuple — the monitor is wrapped in
/// a [`ValuatingSink`] which batches every alert insert of an advance into
/// one columnar `valuate_batch` pass (inside the engine's arena scope — the
/// reclaim-mode consumption contract).
struct AlertMonitor {
    alert_deltas: u64,
    agreement_deltas: u64,
    retired_segments: u64,
}

impl StreamSink for AlertMonitor {
    fn on_delta(&mut self, op: SetOp, _delta: &Delta) {
        match op {
            SetOp::Except => self.alert_deltas += 1,
            SetOp::Intersect => self.agreement_deltas += 1,
            SetOp::Union => {}
        }
    }

    fn on_retire(&mut self, _seg: SegmentId) {
        self.retired_segments += 1;
    }
}

fn main() -> Result<()> {
    let mut vars = VarTable::new();
    // Forecasts for 80 stations, confirmations lagging by up to six hours
    // (10-minute ticks), replayed with up to two hours of arrival lateness
    // and a watermark advance every 256 arrivals.
    let workload = meteo_stream(
        &MeteoConfig {
            stations: 80,
            tuples: 20_000,
            ..Default::default()
        },
        6 * 600,
        &ReplayConfig {
            lateness: 2 * 600,
            advance_every: 256,
            seed: 7,
        },
        &mut vars,
    );
    println!(
        "replaying {} forecast + {} confirmation tuples as a stream ({} watermark advances)",
        workload.r.len(),
        workload.s.len(),
        workload.script.advances(),
    );

    // Batched sink-side valuation: every alert insert of an advance is
    // valuated in one columnar pass instead of one memoized walk per root.
    let mut monitor = ValuatingSink::new(
        AlertMonitor {
            alert_deltas: 0,
            agreement_deltas: 0,
            retired_segments: 0,
        },
        &vars,
    )
    .with_ops(&[SetOp::Except]);
    // `(probability, station, interval)` of the strongest alerts, kept as
    // plain values so nothing holds dead lineage handles after retirement.
    let mut top: Vec<(f64, String, Interval)> = Vec::new();
    let keep_top = |top: &mut Vec<(f64, String, Interval)>,
                    batch: Vec<tp_stream::ValuatedDelta>| {
        for v in batch {
            top.push((v.p, v.fact.to_string(), v.interval));
        }
        top.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        top.truncate(5);
    };
    // Reclaim mode: private arena, one sealed segment per advance,
    // retirement once the live window moves past a segment.
    let mut engine = StreamEngine::new(EngineConfig {
        reclaim: Some(ReclaimConfig::default()),
        ..Default::default()
    });
    let t0 = std::time::Instant::now();
    let mut peak_nodes = 0usize;
    let (mut windows, mut inserts, mut extends) = (0usize, 0u64, 0u64);
    let mut interior_retired = 0u64;
    for event in &workload.script.events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                engine.push(*side, t.clone());
            }
            ReplayEvent::Advance(w) => {
                let stats = engine.advance(*w, &mut monitor).expect("monotone script");
                keep_top(&mut top, monitor.drain_valuated());
                windows += stats.windows;
                inserts += stats.inserts;
                extends += stats.extends;
                interior_retired += stats.interior_retired_segments;
                peak_nodes = peak_nodes.max(engine.arena_stats().expect("reclaim mode").nodes);
            }
        }
    }
    engine.finish(&mut monitor).expect("final advance");
    keep_top(&mut top, monitor.drain_valuated());
    let monitor = monitor.into_inner();
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    println!(
        "maintained −Tp and ∩Tp continuously in {ms:.1} ms: \
         {windows} windows, {inserts} inserts + {extends} extends across ops, {:?} late drops",
        engine.late_dropped(),
    );
    let arena = engine.arena_stats().expect("reclaim mode");
    let (seg_retired, nodes_retired) = engine.reclaimed();
    // tp_advance_ns is registered by the engine itself; fetching the same
    // (name, labels) pair returns that handle, quantiles included.
    let advance_ns = tp_stream::obs::global().histogram("tp_advance_ns", &[]);
    let sections = [
        tp_stream::arena_section(&arena)
            .row("peak live nodes", peak_nodes)
            .row(
                "retired on the way",
                format!(
                    "{nodes_retired} nodes in {seg_retired} segments ({} seen by the monitor)",
                    monitor.retired_segments
                ),
            )
            .row(
                "interior retires",
                format!("{interior_retired} segments freed behind the live frontier"),
            ),
        tp_stream::Section::new("advance latency (tp_advance_ns)")
            .row("advances", advance_ns.count())
            .row("p50", format!("{} µs", advance_ns.p50() / 1_000))
            .row("p95", format!("{} µs", advance_ns.p95() / 1_000))
            .row("p99", format!("{} µs", advance_ns.p99() / 1_000)),
        tp_stream::Section::new("alerts")
            .row("alert deltas", monitor.alert_deltas)
            .row("agreement deltas", monitor.agreement_deltas),
    ];
    println!("{}", tp_stream::render_all(&sections));

    println!("\nstrongest uncorroborated-forecast alerts seen live:");
    for (p, station, interval) in &top {
        println!("  station {station} over {interval} with probability {p:.3}");
    }

    // The continuously maintained result is the batch result: replay the
    // same script through a plain (global-arena) engine and compare.
    let (sink, _) = workload.script.run(EngineConfig::default());
    let batch = except(&workload.r, &workload.s);
    assert_eq!(
        sink.relation(SetOp::Except).canonicalized(),
        batch.canonicalized()
    );
    println!("\nstream/batch cross-check passed: streamed −Tp equals batch −Tp exactly");
    Ok(())
}
