//! Output fingerprints: what the engine, the batch operators, the standing
//! plans and the valuation kernel emit on fixed seeded inputs, hashed and
//! compared against `tests/fingerprints.txt`.
//!
//! The stream ≡ batch oracle cannot see a change that moves both sides
//! alike — a different fold or summation order in the kernel, `to_tree`
//! emitting children in another order. These hashes can. Each case hashes
//! a canonical byte form with a fixed FNV-1a: the op, the fact's values,
//! the interval, the delta kind and the formula in prefix form over
//! `TupleId`s — never an arena ref or a segment number, so a change of
//! node layout or reclamation leaves the hashes alone. Valuation cases
//! hash the f64 bits of every probability.
//!
//! Each line of the data file is `case hash deltas= nodes= rows=`: the
//! counts say what moved when a hash does. A change that moves a case on
//! purpose rewrites that line (the failure message prints the new one)
//! and says why.

use tp_relalg::{AggFn, Plan, Relation, Schema};
use tp_stream::{
    CollectingSink, Delta, EngineConfig, ReclaimConfig, ReplayConfig, ReplayEvent, ServerConfig,
    StreamEngine, StreamServer, StreamSink,
};
use tp_workloads::{
    meteo_stream, multi_tenant_stream, replay_waves, sliding_synth_stream, synth, synth_stream,
    webkit_stream, MeteoConfig, MultiTenantConfig, SlidingConfig, StreamWorkload, SynthConfig,
    WebkitConfig,
};
use tpdb::core::arena::MAX_SHARDS;
use tpdb::core::bdd;
use tpdb::prelude::*;

/// 64-bit FNV-1a over the canonical byte form, with the counts beside it.
struct Fingerprint {
    hash: u64,
    deltas: u64,
    nodes: u64,
    rows: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            hash: 0xcbf2_9ce4_8422_2325,
            deltas: 0,
            nodes: 0,
            rows: 0,
        }
    }
}

impl Fingerprint {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn i64(&mut self, x: i64) {
        self.bytes(&x.to_le_bytes());
    }

    fn op(&mut self, op: SetOp) {
        self.bytes(op.name().as_bytes());
    }

    fn values(&mut self, values: &[Value]) {
        self.u64(values.len() as u64);
        for v in values {
            match v {
                Value::Bool(b) => self.bytes(&[b'b', u8::from(*b)]),
                Value::Int(i) => {
                    self.bytes(b"i");
                    self.i64(*i);
                }
                Value::Float(f) => {
                    self.bytes(b"f");
                    self.u64(f.0.to_bits());
                }
                Value::Str(s) => {
                    self.bytes(b"s");
                    self.u64(s.len() as u64);
                    self.bytes(s.as_bytes());
                }
            }
        }
    }

    fn interval(&mut self, from: TimePoint, to: TimePoint) {
        self.i64(from);
        self.i64(to);
    }

    /// The formula in prefix form, read through its owned tree.
    fn formula(&mut self, lineage: &Lineage) {
        let tree = lineage.to_tree();
        let mut stack = vec![&tree];
        while let Some(t) = stack.pop() {
            self.nodes += 1;
            match t {
                LineageTree::Var(id) => {
                    self.bytes(b"v");
                    self.u64(id.0);
                }
                LineageTree::Not(c) => {
                    self.bytes(b"!");
                    stack.push(&c[0]);
                }
                LineageTree::And(ab) | LineageTree::Or(ab) => {
                    self.bytes(if matches!(t, LineageTree::And(_)) {
                        b"&"
                    } else {
                        b"|"
                    });
                    stack.push(&ab[1]);
                    stack.push(&ab[0]);
                }
            }
        }
    }

    fn tuple(&mut self, t: &TpTuple) {
        self.values(t.fact.values());
        self.interval(t.interval.start(), t.interval.end());
        self.formula(&t.lineage);
        self.rows += 1;
    }

    fn delta(&mut self, op: SetOp, delta: &Delta) {
        self.op(op);
        match delta {
            Delta::Insert(t) => {
                self.bytes(b"I");
                self.tuple(t);
            }
            Delta::Extend {
                fact,
                lineage,
                from,
                to,
            } => {
                self.bytes(b"E");
                self.values(fact.values());
                self.interval(*from, *to);
                self.formula(lineage);
            }
        }
        self.deltas += 1;
    }

    fn probabilities(&mut self, probs: &[f64]) {
        for p in probs {
            self.u64(p.to_bits());
        }
        self.rows += probs.len() as u64;
    }

    fn line(&self, case: &str) -> String {
        format!(
            "{case} {:016x} deltas={} nodes={} rows={}",
            self.hash, self.deltas, self.nodes, self.rows
        )
    }
}

/// Hashes every delta on arrival — the reclaim-mode consumption contract —
/// and, when asked, keeps the results for valuation.
#[derive(Default)]
struct FingerprintSink {
    print: Fingerprint,
    outputs: Option<CollectingSink>,
}

impl StreamSink for FingerprintSink {
    fn on_delta(&mut self, op: SetOp, delta: &Delta) {
        self.print.delta(op, delta);
        if let Some(out) = &mut self.outputs {
            out.on_delta(op, delta);
        }
    }
}

fn roots(rel: &TpRelation) -> Vec<Lineage> {
    rel.iter().map(|t| t.lineage).collect()
}

/// The `marginal_batch` and `bdd::probability` lines over `outputs`.
fn valuation_lines(source: &str, outputs: &[TpRelation], vars: &VarTable) -> [String; 2] {
    let mut batch = Fingerprint::default();
    let mut robdd = Fingerprint::default();
    for rel in outputs {
        let roots = roots(rel);
        batch.probabilities(&prob::marginal_batch(&roots, vars).expect("every variable is live"));
        let probs: Vec<f64> = roots
            .iter()
            .map(|l| bdd::probability(l, vars).expect("every variable is live"))
            .collect();
        robdd.probabilities(&probs);
    }
    [
        batch.line(&format!("prob/marginal_batch/{source}")),
        robdd.line(&format!("prob/bdd/{source}")),
    ]
}

/// One workload replayed through a default engine and through a
/// reclaiming one, each in an arena of its own; the default run's results
/// are valued too.
fn replay_lines(name: &str, build: impl Fn(&mut VarTable) -> StreamWorkload) -> Vec<String> {
    let arena = LineageArena::shared(MAX_SHARDS);
    let _scope = LineageArena::enter(&arena);
    let mut vars = VarTable::new();
    let w = build(&mut vars);
    let mut sink = FingerprintSink {
        outputs: Some(CollectingSink::new()),
        ..Default::default()
    };
    w.script.run_into(EngineConfig::default(), &mut sink);
    let mut reclaiming = FingerprintSink::default();
    w.script.run_into(
        EngineConfig {
            reclaim: Some(ReclaimConfig::default()),
            ..Default::default()
        },
        &mut reclaiming,
    );
    let collected = sink.outputs.expect("collecting");
    let outputs: Vec<TpRelation> = SetOp::ALL.map(|op| collected.relation(op)).into();
    let mut lines = vec![
        sink.print.line(&format!("replay/{name}/default")),
        reclaiming.print.line(&format!("replay/{name}/reclaim")),
    ];
    lines.extend(valuation_lines(&format!("replay/{name}"), &outputs, &vars));
    lines
}

fn meteo() -> Vec<String> {
    let cfg = MeteoConfig {
        tuples: 3_000,
        seed: 7,
        ..Default::default()
    };
    let replay = ReplayConfig {
        lateness: 1800,
        advance_every: 64,
        seed: 7,
    };
    replay_lines("meteo", |vars| meteo_stream(&cfg, 300, &replay, vars))
}

fn webkit() -> Vec<String> {
    let cfg = WebkitConfig {
        tuples: 1_500,
        files: 100,
        seed: 7,
        ..Default::default()
    };
    let replay = ReplayConfig {
        lateness: 10_000,
        advance_every: 50,
        seed: 7,
    };
    replay_lines("webkit", |vars| webkit_stream(&cfg, 2000, &replay, vars))
}

fn sliding() -> Vec<String> {
    let cfg = SlidingConfig {
        epochs: 48,
        per_epoch: 32,
        seed: 7,
        ..Default::default()
    };
    replay_lines("sliding", |vars| sliding_synth_stream(&cfg, vars))
}

/// Sliding-window tenants behind one server: private arenas, sliding var
/// registries, one variable registered per pushed row, collective waves.
fn tenants() -> Vec<String> {
    let scripts = multi_tenant_stream(&MultiTenantConfig {
        tenants: 3,
        epochs: 32,
        per_epoch: 24,
        facts: 8,
        stride: 128,
        seed: 7,
    });
    let mut server: StreamServer<FingerprintSink> = StreamServer::new(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    let ids: Vec<_> = scripts
        .iter()
        .map(|s| server.add_tenant(s.name.clone(), FingerprintSink::default()))
        .collect();
    replay_waves(&scripts, &mut server, &ids, |_| {});
    for result in server.finish_all() {
        result.expect("finish never regresses the watermark");
    }
    ids.iter()
        .zip(&scripts)
        .map(|(&id, s)| server.sink(id).print.line(&format!("tenants/{}", s.name)))
        .collect()
}

/// The standing plan of the `plan_alerts` benchmark workload, `leaf ⋈(k)
/// leaf → aggregate(k; count, max te)` over the union and intersect
/// deltas: its materialized view with each row's ∨-folded lineage.
fn plan_view() -> Vec<String> {
    let arena = LineageArena::shared(MAX_SHARDS);
    let _scope = LineageArena::enter(&arena);
    let mut vars = VarTable::new();
    let w = synth_stream(
        &SynthConfig::with_facts(1_500, 120, 7),
        &ReplayConfig {
            lateness: 6,
            advance_every: 48,
            seed: 7,
        },
        &mut vars,
    );
    let leaf = || Plan::values(Relation::empty(Schema::new(["k", "ts", "te"])));
    let plan = leaf()
        .hash_join(leaf(), vec![0], vec![0])
        .aggregate(vec![0], vec![AggFn::Count, AggFn::Max(2)]);
    let mut engine = StreamEngine::with_plan(
        EngineConfig::default(),
        &plan,
        &[SetOp::Union, SetOp::Intersect],
    )
    .expect("the alert plan lowers");
    let mut sink = FingerprintSink::default();
    for event in &w.script.events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                engine.push(*side, t.clone());
            }
            ReplayEvent::Advance(to) => {
                engine.advance(*to, &mut sink).expect("monotone watermarks");
            }
        }
    }
    engine.finish(&mut sink).expect("monotone watermarks");
    let pipeline = engine.pipeline().expect("plan attached");
    let mut view = Fingerprint::default();
    for row in &pipeline.materialized().rows {
        view.values(row);
        view.rows += 1;
    }
    for (row, lineage) in pipeline.materialized_lineage() {
        view.values(&row);
        view.formula(&lineage);
    }
    view.deltas = sink.print.deltas;
    vec![view.line("plan_alerts/view")]
}

/// `ops::apply` on a synthetic pair for all three ops, and `(r ∪ s ∪ t) ∩
/// (r ∪ s ∪ u)`, whose roots repeat the variables of `r ∪ s` and so are
/// valued by world enumeration.
fn batch_ops() -> Vec<String> {
    let arena = LineageArena::shared(MAX_SHARDS);
    let _scope = LineageArena::enter(&arena);
    let mut vars = VarTable::new();
    let (r, s) = synth::generate(&SynthConfig::with_facts(3_000, 30, 7), &mut vars);
    let mut lines = Vec::new();
    let mut outputs = Vec::new();
    for op in SetOp::ALL {
        let out = apply(op, &r, &s);
        let mut print = Fingerprint::default();
        print.op(op);
        out.iter().for_each(|t| print.tuple(t));
        lines.push(print.line(&format!("ops/{}", op.name())));
        outputs.push(out);
    }
    lines.extend(valuation_lines("ops", &outputs, &vars));
    let (t, u) = synth::generate(&SynthConfig::with_facts(3_000, 30, 8), &mut vars);
    let rs = union(&r, &s);
    let repeated = intersect(&union(&rs, &t), &union(&rs, &u));
    let mut print = Fingerprint::default();
    repeated.iter().for_each(|t| print.tuple(t));
    lines.push(print.line("ops/repeated"));
    lines.extend(valuation_lines("repeated", &[repeated], &vars));
    lines
}

#[test]
fn outputs_match_the_committed_fingerprints() {
    let cases: [fn() -> Vec<String>; 6] = [meteo, webkit, sliding, tenants, plan_view, batch_ops];
    // Two threads; every case enters arenas of its own.
    let lines: Vec<String> = std::thread::scope(|scope| {
        let handles = cases
            .chunks(cases.len() / 2)
            .map(|half| {
                scope.spawn(move || half.iter().flat_map(|case| case()).collect::<Vec<_>>())
            })
            .collect::<Vec<_>>();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a case panicked"))
            .collect()
    });
    let actual = lines.join("\n") + "\n";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fingerprints.txt");
    let committed = std::fs::read_to_string(path).unwrap_or_default();
    let moved: Vec<String> = actual
        .lines()
        .filter(|l| !committed.lines().any(|c| c == *l))
        .map(|l| format!("  now {l}"))
        .collect();
    assert!(
        actual == committed,
        "outputs moved from tests/fingerprints.txt:\n{}\n(the whole file would read:\n{actual})",
        moved.join("\n")
    );
}
