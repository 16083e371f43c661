//! The three single-engine stream workloads: `stream_meteo`,
//! `stream_webkit` and `plan_alerts`. One replay loop, three scripts.
//!
//! The engine is built from `EngineConfig::default()`; the benchmark sets
//! only `obs.registry`, to read the engine's own stage histograms.

use std::sync::Arc;
use std::time::Instant;

use tp_core::interval::TimePoint;
use tp_core::ops::{self, SetOp};
use tp_core::relation::VarTable;
use tp_obs::{now_ns, MetricValue, MetricsRegistry};
use tp_relalg::{bind_sources, AggFn, Plan, Relation, Schema};
use tp_stream::{
    encode_relation, AdvanceStats, CollectingSink, CountingSink, Delta, EngineConfig,
    IngestOutcome, ObsConfig, ReplayConfig, ReplayEvent, Side, StreamEngine, StreamError,
    StreamSink,
};
use tp_workloads::{
    meteo_stream, synth_stream, webkit_stream, MeteoConfig, StreamWorkload, SynthConfig,
    WebkitConfig,
};

use crate::inputs::{export, fresh_arena, intern, PortableTuple};
use crate::spans::{Tracer, CALL, CHILD};
use crate::workload::{Layers, Pass, Scale, Verdict, Workload};

/// A sink the replay loop can ask for the time spent inside it.
pub trait BenchSink: StreamSink {
    /// Nanoseconds inside `on_delta` so far; 0 when not timed.
    fn sink_ns(&self) -> u64;
}

impl BenchSink for CountingSink {
    fn sink_ns(&self) -> u64 {
        0
    }
}

impl BenchSink for CollectingSink {
    fn sink_ns(&self) -> u64 {
        0
    }
}

/// `CountingSink` with a stopwatch around `on_delta` (traced passes).
#[derive(Default)]
pub struct TimedSink {
    inner: CountingSink,
    ns: u64,
}

impl StreamSink for TimedSink {
    fn on_delta(&mut self, op: SetOp, delta: &Delta) {
        let t0 = now_ns();
        self.inner.on_delta(op, delta);
        self.ns += now_ns() - t0;
    }

    fn on_watermark(&mut self, w: TimePoint) {
        self.inner.on_watermark(w);
    }
}

impl BenchSink for TimedSink {
    fn sink_ns(&self) -> u64 {
        self.ns
    }
}

/// Counters of one replay, summed from the `AdvanceStats` fields the
/// benchmark allows itself and from its own stopwatches.
#[derive(Debug)]
pub struct EngineCounts {
    pub pushes: u64,
    pub late: u64,
    pub errors: u64,
    pub advances: u64,
    pub released: u64,
    pub carried: u64,
    pub windows: u64,
    pub inserts: u64,
    pub extends: u64,
    pub pipeline_deltas: u64,
    /// Stopwatch around every advance call.
    pub advance_ns: u64,
    /// Time inside the sink, of which `advance_ns` is the parent.
    pub sink_ns: u64,
    pub latencies_ms: Vec<f64>,
    /// Start of the timed section and of the current push batch, and
    /// the time since `t0` spent in [`EngineCounts::untimed`].
    t0: u64,
    batch_t0: u64,
    untimed_ns: u64,
}

impl EngineCounts {
    /// Starts the pass clock.
    pub fn start() -> Self {
        let t0 = now_ns();
        EngineCounts {
            pushes: 0,
            late: 0,
            errors: 0,
            advances: 0,
            released: 0,
            carried: 0,
            windows: 0,
            inserts: 0,
            extends: 0,
            pipeline_deltas: 0,
            advance_ns: 0,
            sink_ns: 0,
            latencies_ms: Vec::new(),
            t0,
            batch_t0: t0,
            untimed_ns: 0,
        }
    }

    /// Books one push: `accepted` is false for a late or rejected one.
    pub fn pushed(&mut self, accepted: bool) {
        self.pushes += 1;
        self.late += u64::from(!accepted);
    }

    /// Times one advance-like call as span `advance` (id = its ordinal),
    /// closes the push batch before it as span `push_batch` with the same
    /// id, and books what the call reports. `f` returns the results of
    /// the call and the sink's cumulative `sink_ns` after it.
    pub fn advance<I>(&mut self, tr: &mut Tracer, f: impl FnOnce() -> (I, u64))
    where
        I: IntoIterator<Item = Result<AdvanceStats, StreamError>>,
    {
        let ordinal = self.advances;
        let start = now_ns();
        tr.span(
            "push_batch",
            CALL,
            self.batch_t0,
            start - self.batch_t0,
            ordinal,
        );
        let ((results, sink_ns), dur) = tr.call("advance", ordinal, f);
        // The sink's callbacks are scattered through the advance; the
        // trace shows their total as one child at the advance's start.
        tr.span("sink_total", CHILD, start, sink_ns - self.sink_ns, ordinal);
        self.sink_ns = sink_ns;
        self.advances += 1;
        self.advance_ns += dur;
        self.latencies_ms.push(dur as f64 / 1e6);
        for result in results {
            match result {
                Ok(stats) => {
                    self.released += (stats.released[0] + stats.released[1]) as u64;
                    self.carried += (stats.carried[0] + stats.carried[1]) as u64;
                    self.windows += stats.windows as u64;
                    self.inserts += stats.inserts;
                    self.extends += stats.extends;
                    self.pipeline_deltas += stats.pipeline_deltas;
                }
                Err(_) => self.errors += 1,
            }
        }
        self.batch_t0 = now_ns();
    }

    /// Runs `f` (sampling between waves) off the pass clock.
    pub fn untimed(&mut self, f: impl FnOnce()) {
        let t0 = now_ns();
        f();
        self.batch_t0 = now_ns();
        self.untimed_ns += self.batch_t0 - t0;
    }

    /// Timed nanoseconds since [`EngineCounts::start`].
    pub fn elapsed_ns(&self) -> u64 {
        now_ns() - self.t0 - self.untimed_ns
    }

    /// The `stream.engine.*` and `stream.delta.*` readings. `pass_ns` is
    /// the whole timed section, so push time is what the advances left.
    pub fn layers(&self, pass_ns: u64, timed: bool, out: &mut Layers) {
        let arrivals = self.pushes.max(1) as f64;
        let deltas = (self.inserts + self.extends) as f64;
        out.insert(
            "stream.engine.released_per_arrival",
            self.released as f64 / arrivals,
        );
        out.insert(
            "stream.engine.carried_per_advance",
            self.carried as f64 / self.advances.max(1) as f64,
        );
        out.insert(
            "stream.engine.windows_per_arrival",
            self.windows as f64 / arrivals,
        );
        out.insert("stream.engine.deltas_per_arrival", deltas / arrivals);
        out.insert(
            "stream.engine.extend_share",
            self.extends as f64 / deltas.max(1.0),
        );
        out.insert("stream.engine.late_dropped", self.late as f64);
        out.insert("stream.delta.deltas", deltas);
        out.insert(
            "stream.engine.push_ns_per_tuple",
            pass_ns.saturating_sub(self.advance_ns) as f64 / arrivals,
        );
        out.insert(
            "stream.engine.advance_busy_share",
            self.advance_ns as f64 / pass_ns.max(1) as f64,
        );
        if timed {
            out.insert(
                "stream.engine.advance_self_ns_per_piece",
                (self.advance_ns - self.sink_ns) as f64 / self.released.max(1) as f64,
            );
            out.insert(
                "stream.delta.sink_ns_per_delta",
                self.sink_ns as f64 / deltas.max(1.0),
            );
        }
    }
}

/// Reads the engine's `tp_stage_ns{stage}` sums out of `registry` into
/// `stream.engine.stage.*`; `advance_ns` is the benchmark's stopwatch.
pub fn stage_layers(registry: &MetricsRegistry, advance_ns: u64, out: &mut Layers) {
    const SHARES: [(&str, &str); 5] = [
        ("drain", "stream.engine.stage.drain_share"),
        ("plan", "stream.engine.stage.plan_share"),
        ("sweep", "stream.engine.stage.sweep_share"),
        ("finalize", "stream.engine.stage.finalize_share"),
        ("seal_retire", "stream.engine.stage.seal_retire_share"),
    ];
    let mut by_stage = [0u64; SHARES.len()];
    let mut all = 0u64;
    let mut pipeline_ns = 0u64;
    for sample in registry.snapshot() {
        let MetricValue::Histogram { sum, .. } = sample.value else {
            continue;
        };
        match sample.name.as_str() {
            "tp_stage_ns" => {
                all += sum;
                let stage = sample.labels.iter().find(|(k, _)| k == "stage");
                if let Some(i) = stage.and_then(|(_, v)| SHARES.iter().position(|(s, _)| s == v)) {
                    by_stage[i] += sum;
                }
            }
            "tp_pipeline_advance_ns" => pipeline_ns += sum,
            _ => {}
        }
    }
    for ((_, metric), ns) in SHARES.iter().zip(by_stage) {
        out.insert(metric, ns as f64 / all.max(1) as f64);
    }
    out.insert(
        "stream.engine.stage.stage_coverage",
        all as f64 / advance_ns.max(1) as f64,
    );
    out.insert("stream.pipeline.span_ns_sum", pipeline_ns as f64);
}

/// One script event in portable form.
enum Event {
    Arrive(Side, PortableTuple),
    Advance(TimePoint),
}

/// The standing plan of `plan_alerts`: `leaf ⋈(k) leaf → aggregate(k;
/// count, max te)` over the engine's union and intersect deltas.
struct AlertPlan {
    plan: Plan,
    taps: [SetOp; 2],
    schema: Schema,
}

impl AlertPlan {
    fn new() -> Self {
        // Synth facts have one attribute, so a source row is [k, ts, te].
        let schema = Schema::new(["k", "ts", "te"]);
        let leaf = || Plan::values(Relation::empty(schema.clone()));
        AlertPlan {
            plan: leaf()
                .hash_join(leaf(), vec![0], vec![0])
                .aggregate(vec![0], vec![AggFn::Count, AggFn::Max(2)]),
            taps: [SetOp::Union, SetOp::Intersect],
            schema,
        }
    }
}

/// A relation pair replayed as an out-of-order stream through one engine.
pub struct StreamReplay {
    r: Vec<PortableTuple>,
    s: Vec<PortableTuple>,
    events: Vec<Event>,
    arrivals: u64,
    plan: Option<AlertPlan>,
}

impl StreamReplay {
    fn new(build: impl FnOnce(&mut VarTable) -> StreamWorkload, plan: Option<AlertPlan>) -> Self {
        let (_arena, _scope) = fresh_arena();
        let w = build(&mut VarTable::new());
        let events: Vec<Event> = w
            .script
            .events
            .iter()
            .map(|e| match e {
                ReplayEvent::Arrive(side, t) => Event::Arrive(*side, PortableTuple::export(t)),
                ReplayEvent::Advance(w) => Event::Advance(*w),
            })
            .collect();
        StreamReplay {
            r: export(&w.r),
            s: export(&w.s),
            arrivals: w.script.arrivals() as u64,
            events,
            plan,
        }
    }

    /// Few facts, near in-order arrivals: each tuple is swept about once
    /// and the sweep stage is nearly all of an advance.
    pub fn meteo(seed: u64, scale: Scale) -> Self {
        let cfg = MeteoConfig {
            tuples: scale.pick(150_000, 3_000),
            seed,
            ..Default::default()
        };
        let replay = ReplayConfig {
            lateness: 1800,
            advance_every: scale.pick(256, 64),
            seed,
        };
        Self::new(|vars| meteo_stream(&cfg, 300, &replay, vars), None)
    }

    /// Every fact alive at every watermark: carried residuals are split
    /// and swept again on each advance.
    pub fn webkit(seed: u64, scale: Scale) -> Self {
        let cfg = WebkitConfig {
            tuples: scale.pick(50_000, 2_000),
            files: scale.pick(1_000, 100),
            seed,
            ..Default::default()
        };
        let replay = ReplayConfig {
            lateness: 10_000,
            advance_every: scale.pick(100, 50),
            seed,
        };
        Self::new(|vars| webkit_stream(&cfg, 2000, &replay, vars), None)
    }

    /// A standing join + aggregate on the delta streams. Facts are uniform
    /// on purpose: Zipf keys overflowed the stack under the plan.
    pub fn plan_alerts(seed: u64, scale: Scale) -> Self {
        let cfg = SynthConfig::with_facts(scale.pick(30_000, 1_500), scale.pick(2_400, 120), seed);
        let replay = ReplayConfig {
            lateness: 6,
            advance_every: 48,
            seed,
        };
        Self::new(
            |vars| synth_stream(&cfg, &replay, vars),
            Some(AlertPlan::new()),
        )
    }

    /// The script re-interned into the current arena.
    fn script(&self) -> Vec<ReplayEvent> {
        self.events
            .iter()
            .map(|e| match e {
                Event::Arrive(side, t) => ReplayEvent::Arrive(*side, t.intern()),
                Event::Advance(w) => ReplayEvent::Advance(*w),
            })
            .collect()
    }

    /// A default engine, with the plan attached when there is one and
    /// wanted. Returns the compile time of the plan in µs.
    fn engine(
        &self,
        registry: Option<Arc<MetricsRegistry>>,
        with_plan: bool,
    ) -> (StreamEngine, f64) {
        let cfg = EngineConfig {
            obs: ObsConfig {
                registry,
                ..Default::default()
            },
            ..Default::default()
        };
        match self.plan.as_ref().filter(|_| with_plan) {
            Some(p) => {
                let t0 = Instant::now();
                let engine = StreamEngine::with_plan(cfg, &p.plan, &p.taps)
                    .expect("the alert plan lowers and its taps are maintained");
                (engine, t0.elapsed().as_secs_f64() * 1e6)
            }
            None => (StreamEngine::new(cfg), 0.0),
        }
    }

    /// Replays the script through `engine` into `sink` and returns the
    /// counters and the length of the timed section. The script is
    /// consumed: a push hands its tuple over, as a producer would.
    fn replay<S: BenchSink>(
        script: Vec<ReplayEvent>,
        engine: &mut StreamEngine,
        sink: &mut S,
        tr: &mut Tracer,
    ) -> (EngineCounts, u64) {
        let mut c = EngineCounts::start();
        for event in script {
            match event {
                ReplayEvent::Arrive(side, t) => {
                    c.pushed(engine.push(side, t) == IngestOutcome::Accepted);
                }
                ReplayEvent::Advance(w) => {
                    c.advance(tr, || (Some(engine.advance(w, sink)), sink.sink_ns()));
                }
            }
        }
        c.advance(tr, || (Some(engine.finish(sink)), sink.sink_ns()));
        let pass_ns = c.elapsed_ns();
        (c, pass_ns)
    }

    /// One replay in an arena of its own: counters, length of the timed
    /// section in ns, and the layer readings.
    fn run(&self, tr: &mut Tracer, timed: bool, with_plan: bool) -> (EngineCounts, u64, Layers) {
        let (arena, _scope) = fresh_arena();
        let script = self.script();
        let registry = timed.then(|| Arc::new(MetricsRegistry::new()));
        let (mut engine, compile_us) = self.engine(registry.clone(), with_plan);
        let (c, pass_ns) = if timed {
            Self::replay(script, &mut engine, &mut TimedSink::default(), tr)
        } else {
            Self::replay(script, &mut engine, &mut CountingSink::new(), tr)
        };
        let mut layers = Layers::new();
        c.layers(pass_ns, timed, &mut layers);
        if let Some(registry) = registry {
            stage_layers(&registry, c.advance_ns, &mut layers);
            let stats = arena.stats();
            layers.insert("core.arena.nodes_interned", stats.total_interned as f64);
            layers.insert(
                "core.arena.resident_bytes_peak",
                stats.resident_bytes as f64,
            );
        }
        if let Some(pipeline) = engine.pipeline() {
            let arrivals = c.pushes.max(1) as f64;
            let state_rows = pipeline.state_rows() as f64;
            let emitted = |name: &str| -> f64 {
                let ops = pipeline.operator_deltas();
                ops.iter()
                    .filter(|(n, _)| *n == name)
                    .map(|(_, d)| *d as f64)
                    .sum()
            };
            layers.insert("stream.pipeline.compile_us", compile_us);
            layers.insert(
                "stream.pipeline.deltas_per_arrival",
                c.pipeline_deltas as f64 / arrivals,
            );
            layers.insert("stream.pipeline.state_rows_final", state_rows);
            layers.insert(
                "stream.pipeline.state_rows_per_arrival",
                state_rows / arrivals,
            );
            layers.insert("stream.pipeline.op.hash_join.deltas", emitted("hash_join"));
            layers.insert("stream.pipeline.op.aggregate.deltas", emitted("aggregate"));
        }
        (c, pass_ns, layers)
    }
}

impl Workload for StreamReplay {
    fn pass(&self, tr: &mut Tracer) -> Pass {
        let (c, pass_ns, mut layers) = self.run(tr, tr.on, true);
        if tr.on && self.plan.is_some() {
            // The pipeline's cost is what the same script costs with the
            // plan minus what it costs without: a plan-less twin replay.
            let (twin, _, _) = self.run(&mut Tracer::off(), true, false);
            let extra = c.advance_ns.saturating_sub(twin.advance_ns) as f64;
            layers.insert(
                "stream.pipeline.advance_share",
                extra / pass_ns.max(1) as f64,
            );
            layers.insert(
                "stream.pipeline.ns_per_delta",
                extra / c.pipeline_deltas.max(1) as f64,
            );
        }
        Pass {
            units: self.arrivals,
            secs: pass_ns as f64 / 1e9,
            attempted: c.pushes + c.advances,
            failed: c.late + c.errors,
            latencies_ms: c.latencies_ms,
            layers,
        }
    }

    fn oracle(&self) -> Verdict {
        let mut v = Verdict::default();
        let (_arena, _scope) = fresh_arena();
        let (mut engine, _) = self.engine(None, true);
        let mut sink = CollectingSink::new();
        let (c, _) = Self::replay(self.script(), &mut engine, &mut sink, &mut Tracer::off());
        v.check(c.pushes == self.arrivals && c.late + c.errors == 0, || {
            format!(
                "{} of {} pushes late, {} advances failed",
                c.late, c.pushes, c.errors
            )
        });
        let (r, s) = (intern(&self.r), intern(&self.s));
        for op in SetOp::ALL {
            let batch = ops::apply(op, &r, &s).canonicalized();
            v.check(sink.relation(op).canonicalized() == batch, || {
                format!(
                    "streamed {op} differs from ops::apply ({} batch tuples)",
                    batch.len()
                )
            });
        }
        if let Some(p) = &self.plan {
            let tables: Vec<Relation> = p
                .taps
                .iter()
                .map(|&op| encode_relation(&sink.relation(op), &p.schema))
                .collect();
            let t0 = Instant::now();
            let mut batch = bind_sources(&p.plan, &tables).execute().rows;
            v.layers.insert(
                "relalg.plan.batch_execute_ms",
                t0.elapsed().as_secs_f64() * 1e3,
            );
            batch.sort();
            let mut view = engine
                .pipeline()
                .expect("plan attached")
                .materialized()
                .rows;
            view.sort();
            v.check(view == batch, || {
                format!(
                    "pipeline view has {} rows, batch plan {}",
                    view.len(),
                    batch.len()
                )
            });
        }
        v
    }
}
