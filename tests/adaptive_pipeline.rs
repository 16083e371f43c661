//! Differentials of the pipeline layer around the compiled plan: keyed
//! nested-loop joins lowered to hash joins, multi-plan operator-state
//! sharing, and dirty-key recompute under join-key skew.
//!
//! * **Keyed nested-loop join** — a `NlJoin` on a key equality runs as a
//!   hash join from the first advance, and its standing view matches the
//!   batch twin (which executes the nested-loop join), with reclaim mode on
//!   and off.
//! * **State sharing** — a shared multi-plan pipeline must materialize
//!   each plan's view row-identical to a dedicated single-plan engine and
//!   to the batch twin, with strictly sub-additive standing state.
//! * **Skewed dirty keys** — under Zipf-hot keys, the grouped operators
//!   must republish at most the touched keys of each advance (≤ 2 deltas
//!   per dirty group), never the full standing group set.
//! * **Valuation** — the shared views' ∨-folded lineage must valuate
//!   through the lane-blocked batch kernel within 1e-12 of the memoized
//!   per-root evaluator (the generator-wide kernel sweep lives in
//!   `raw_speed.rs`).

mod common;

use std::collections::HashSet;

use tp_relalg::{bind_sources, AggFn, Plan, Predicate, Relation, Row, Schema};
use tp_stream::{
    encode_relation, CollectingSink, Delta, EngineConfig, ReclaimConfig, ReplayConfig, ReplayEvent,
    StreamEngine, StreamScript, StreamSink,
};
use tp_workloads::{skewed_synth_stream, SkewedConfig, SynthConfig};
use tpdb::prelude::*;

fn source_schema() -> Schema {
    Schema::new(["k", "ts", "te"])
}

fn leaf() -> Plan {
    Plan::values(Relation::empty(source_schema()))
}

fn engine_config(reclaim: bool) -> EngineConfig {
    EngineConfig {
        reclaim: reclaim.then(|| ReclaimConfig {
            keep_epochs: 2,
            ..Default::default()
        }),
        ..Default::default()
    }
}

fn batch_rows(plan: &Plan, sink: &CollectingSink, taps: &[SetOp]) -> Vec<Row> {
    let schema = source_schema();
    let tables: Vec<Relation> = taps
        .iter()
        .map(|&op| encode_relation(&sink.relation(op), &schema))
        .collect();
    let mut rows = bind_sources(plan, &tables).execute().rows;
    rows.sort();
    rows
}

fn drive(engine: &mut StreamEngine, script: &StreamScript, sink: &mut impl StreamSink) {
    for event in &script.events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                engine.push(*side, t.clone());
            }
            ReplayEvent::Advance(wm) => {
                engine.advance(*wm, sink).unwrap();
            }
        }
    }
    engine.finish(sink).unwrap();
}

/// A keyed nested-loop join. The aggregate groups by a non-key column, so
/// the hash join it lowers to is not fused into the aggregate.
fn keyed_nl_plan() -> (Plan, Vec<SetOp>) {
    let plan = leaf()
        .nl_join(leaf(), Predicate::col_eq(0, 3))
        .aggregate(vec![1], vec![AggFn::Count, AggFn::Max(2)]);
    (plan, vec![SetOp::Union, SetOp::Intersect])
}

#[test]
fn keyed_nl_join_runs_as_hash_join_from_the_first_advance() {
    for reclaim in [false, true] {
        let mut vars = VarTable::new();
        let w = tp_workloads::synth_stream(
            &SynthConfig::with_facts(140, 9, 4242),
            &ReplayConfig {
                lateness: 6,
                advance_every: 24,
                seed: 11,
            },
            &mut vars,
        );
        let (plan, taps) = keyed_nl_plan();
        let ctx = format!("reclaim={reclaim}");
        let mut engine = StreamEngine::with_plan(engine_config(reclaim), &plan, &taps).unwrap();
        // Compiled as a hash join: there is no later point where the
        // physical plan could change.
        let ops: Vec<&str> = engine
            .pipeline()
            .unwrap()
            .operator_deltas()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(ops, ["source", "source", "hash_join", "aggregate"], "{ctx}");
        let mut sink = CollectingSink::new();
        drive(&mut engine, &w.script, &mut sink);
        let expect = batch_rows(&plan, &sink, &taps);
        assert!(!expect.is_empty(), "{ctx}: vacuous");
        assert_eq!(
            engine.pipeline().unwrap().materialized().rows,
            expect,
            "{ctx}: keyed nl_join view != batch"
        );
    }
}

/// Three alert rules over one shared `Union ⋈ Intersect` hash join. The
/// aggregates group by a non-key column: grouped by the join key they would
/// each fuse with their own copy of the join and share only the sources.
fn shared_rules() -> (Vec<Plan>, Vec<Vec<SetOp>>) {
    let join = || leaf().hash_join(leaf(), vec![0], vec![0]);
    let plans = vec![
        join().aggregate(vec![1], vec![AggFn::Count, AggFn::Max(2)]),
        join().project(vec![0]).distinct(),
        join().aggregate(vec![1], vec![AggFn::Min(1)]),
    ];
    let taps = vec![vec![SetOp::Union, SetOp::Intersect]; 3];
    (plans, taps)
}

#[test]
fn shared_pipeline_matches_solo_engines_and_batch_with_subadditive_state() {
    for reclaim in [false, true] {
        let mut vars = VarTable::new();
        let w = tp_workloads::synth_stream(
            &SynthConfig::with_facts(150, 10, 515),
            &ReplayConfig {
                lateness: 5,
                advance_every: 32,
                seed: 12,
            },
            &mut vars,
        );
        let (plans, taps) = shared_rules();
        let ctx = format!("reclaim={reclaim}");

        let mut shared = StreamEngine::with_plans(engine_config(reclaim), &plans, &taps).unwrap();
        let mut sink = CollectingSink::new();
        drive(&mut shared, &w.script, &mut sink);

        let mut solo_state = 0usize;
        for (i, plan) in plans.iter().enumerate() {
            let mut solo = StreamEngine::with_plan(engine_config(reclaim), plan, &taps[i]).unwrap();
            let mut solo_sink = CollectingSink::new();
            drive(&mut solo, &w.script, &mut solo_sink);
            let expect = batch_rows(plan, &solo_sink, &taps[i]);
            assert!(!expect.is_empty(), "{ctx}: plan #{i} vacuous");
            let solo_view = solo.pipeline().unwrap().materialized().rows;
            let shared_view = shared.pipeline().unwrap().materialized_view(i).rows;
            assert_eq!(shared_view, expect, "{ctx}: shared view #{i} != batch");
            assert_eq!(shared_view, solo_view, "{ctx}: shared view #{i} != solo");
            solo_state += solo.pipeline().unwrap().state_rows();
        }
        let sp = shared.pipeline().unwrap();
        assert!(
            sp.shared_operators() >= 3,
            "{ctx}: join + sources should be shared, got {}",
            sp.shared_operators()
        );
        assert!(
            sp.state_rows() < solo_state,
            "{ctx}: shared state {} not sub-additive vs duplicated {solo_state}",
            sp.state_rows()
        );
    }
}

#[test]
fn shared_views_valuate_through_batch_kernel_within_1e12() {
    let mut vars = VarTable::new();
    let w = tp_workloads::synth_stream(
        &SynthConfig::with_facts(120, 8, 909),
        &ReplayConfig {
            lateness: 4,
            advance_every: 20,
            seed: 13,
        },
        &mut vars,
    );
    // Three rules over a shared `Union → project → distinct` chain. The
    // first view's rows keep the tap tuples' 1OF lineage (Corollary 1), so
    // the lane-blocked kernel genuinely runs instead of routing everything
    // to the per-root fallback; the narrower projections ∨-merge only the
    // few rows that collide after a column drop, exercising the kernel's
    // world enumeration on small non-1OF cones.
    let prefix = || leaf().project(vec![0, 1, 2]).distinct();
    let plans = vec![
        prefix(),
        prefix().project(vec![0, 2]).distinct(),
        prefix().project(vec![0, 1]).distinct(),
    ];
    let taps = vec![vec![SetOp::Union]; 3];
    let mut engine = StreamEngine::with_plans(engine_config(false), &plans, &taps).unwrap();
    let mut sink = CollectingSink::new();
    drive(&mut engine, &w.script, &mut sink);
    let p = engine.pipeline().unwrap();
    assert!(
        p.shared_operators() >= 3,
        "source + project + distinct should be shared, got {}",
        p.shared_operators()
    );
    let mut kernel_roots = 0usize;
    for view in 0..plans.len() {
        let out = p.materialized_lineage_view(view);
        assert!(!out.is_empty(), "view #{view} vacuous: no standing lineage");
        let lineages: Vec<Lineage> = out.into_iter().map(|(_, l)| l).collect();
        kernel_roots += lineages
            .iter()
            .filter(|l| l.is_one_occurrence_form())
            .count();
        let batched = prob::marginal_batch(&lineages, &vars).unwrap();
        for (i, (l, b)) in lineages.iter().zip(&batched).enumerate() {
            let single = prob::marginal(l, &vars).unwrap();
            assert!(
                (single - b).abs() <= 1e-12,
                "view #{view} root #{i}: memoized {single} vs lane-blocked kernel {b}"
            );
        }
    }
    // Non-vacuity: the kernel must have owned a real share of the batch.
    assert!(
        kernel_roots > 100,
        "only {kernel_roots} 1OF roots — the kernel path is vacuous here"
    );
}

/// Wraps `CollectingSink` and counts the distinct fact keys the pipeline's
/// taps delivered between consecutive watermarks — the "touched keys" the
/// dirty-key recompute bound is stated against.
struct TouchCountingSink {
    inner: CollectingSink,
    taps: Vec<SetOp>,
    touched: HashSet<Fact>,
    per_advance: Vec<usize>,
}

impl TouchCountingSink {
    fn new(taps: &[SetOp]) -> Self {
        TouchCountingSink {
            inner: CollectingSink::new(),
            taps: taps.to_vec(),
            touched: HashSet::new(),
            per_advance: Vec::new(),
        }
    }
}

impl StreamSink for TouchCountingSink {
    fn on_delta(&mut self, op: SetOp, delta: &Delta) {
        if self.taps.contains(&op) {
            let fact = match delta {
                Delta::Insert(t) => t.fact.clone(),
                Delta::Extend { fact, .. } => fact.clone(),
            };
            self.touched.insert(fact);
        }
        self.inner.on_delta(op, delta);
    }

    fn on_watermark(&mut self, w: tp_core::interval::TimePoint) {
        self.per_advance.push(self.touched.len());
        self.touched.clear();
        self.inner.on_watermark(w);
    }
}

#[test]
fn skewed_keys_republish_at_most_touched_groups_per_advance() {
    let mut vars = VarTable::new();
    let w = skewed_synth_stream(
        &SkewedConfig {
            epochs: 24,
            per_epoch: 32,
            slots: 8,
            exponent: 1.5,
            stride: 512,
            seed: 23,
        },
        &mut vars,
    );
    let plan = leaf()
        .hash_join(leaf(), vec![0], vec![0])
        .aggregate(vec![0], vec![AggFn::Count, AggFn::Max(2)]);
    let taps = [SetOp::Union, SetOp::Intersect];
    let mut engine = StreamEngine::with_plan(engine_config(false), &plan, &taps).unwrap();
    let mut sink = TouchCountingSink::new(&taps);
    let agg_emitted = |engine: &StreamEngine| -> u64 {
        engine
            .pipeline()
            .unwrap()
            .operator_deltas()
            .iter()
            .find(|(n, _)| *n == "aggregate")
            .map(|&(_, e)| e)
            .unwrap()
    };
    let mut prev = 0u64;
    let mut republished = Vec::new();
    for event in &w.script.events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                engine.push(*side, t.clone());
            }
            ReplayEvent::Advance(wm) => {
                engine.advance(*wm, &mut sink).unwrap();
                let now = agg_emitted(&engine);
                republished.push(now - prev);
                prev = now;
            }
        }
    }
    engine.finish(&mut sink).unwrap();
    republished.push(agg_emitted(&engine) - prev);
    // `finish` flushes the residual region without a closing watermark;
    // pair its republish count with the taps delivered since the last one.
    let residual = sink.touched.len();
    sink.per_advance.push(residual);
    assert_eq!(republished.len(), sink.per_advance.len());

    // The dirty-key bound: a touched group republishes at most a
    // retract + regrow pair, so ≤ 2 deltas per touched key — never the
    // full standing group set.
    let mut partial_advances = 0usize;
    let standing_groups = engine
        .pipeline()
        .unwrap()
        .operator_stats()
        .iter()
        .find(|(n, _, _)| *n == "aggregate")
        .map(|&(_, rows, _)| rows)
        .unwrap();
    for (i, (&rep, &touched)) in republished.iter().zip(&sink.per_advance).enumerate() {
        assert!(
            rep <= 2 * touched as u64,
            "advance #{i}: republished {rep} > 2 × {touched} touched keys"
        );
        if touched > 0 && touched < standing_groups {
            partial_advances += 1;
        }
    }
    // Non-vacuity: the Zipf tail guarantees advances that touch only a
    // subset of the standing groups — exactly where a full recompute
    // would have violated the bound.
    assert!(
        partial_advances > 5,
        "skew never produced partial advances (standing {standing_groups}); bound is vacuous"
    );

    // And the final view still matches the batch twin.
    let expect = batch_rows(&plan, &sink.inner, &taps);
    assert!(!expect.is_empty());
    assert_eq!(engine.pipeline().unwrap().materialized().rows, expect);
}
