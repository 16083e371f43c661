//! Differential tests of the standing incremental pipelines
//! (`tp_stream::pipeline`): a compiled `tp_relalg::Plan` maintained over
//! the engine's delta streams must produce a materialized view
//! **row-identical** to executing the batch plan over the closed region —
//! for every plan shape (select/project/join/union/distinct/aggregate),
//! every arrival permutation within the lateness bound, every watermark
//! schedule, reclaim mode on and off. In reclaim mode, operator state
//! must additionally **plateau** under extend-dominated workloads (the
//! bounded-memory claim). The fused join → aggregate must also publish
//! lineage equivalent to the batch join's pairwise `∨ᵢⱼ (lᵢ ∧ rⱼ)` and hold
//! state linear in its tapped rows.
//!
//! The batch twin is constructed with `encode_relation` over the closed
//! output of a `CollectingSink` (the proven delta-apply semantics) and
//! `bind_sources` + `Plan::execute` — so both sides share exactly one
//! source encoding and one batch executor.

mod common;

use std::collections::{BTreeSet, HashMap};

use common::oracle::assert_plateau;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tp_core::bdd::Bdd;
use tp_relalg::{bind_sources, AggFn, CmpOp, Plan, Predicate, Relation, Row, Schema};
use tp_stream::{
    encode_relation, CollectingSink, EngineConfig, MaterializingSink, ReclaimConfig, ReplayConfig,
    ReplayEvent, Side, StreamEngine, StreamScript, StreamSink,
};
use tp_workloads::SynthConfig;
use tpdb::prelude::*;

/// The source schema every plan below reads: synth facts are single-value,
/// so an encoded row is `[k, ts, te]`.
fn source_schema() -> Schema {
    Schema::new(["k", "ts", "te"])
}

fn leaf() -> Plan {
    Plan::values(Relation::empty(source_schema()))
}

/// The two engine configurations of the sweep matrix.
fn engine_config(reclaim: bool) -> EngineConfig {
    EngineConfig {
        reclaim: reclaim.then(|| ReclaimConfig {
            keep_epochs: 2,
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// A plan shape under test: its name, the plan, its taps, and the
/// operators its pipeline runs, by name in topological order.
type PlanCase = (&'static str, Plan, Vec<SetOp>, &'static [&'static str]);

/// Plan shapes under test. Every shape exercises a different operator mix;
/// together they cover all nine lowered ops.
fn plan_cases() -> Vec<PlanCase> {
    vec![
        (
            // Grouped by the join key: lowers to the fused join → aggregate.
            "hash_join+aggregate (fused)",
            leaf()
                .hash_join(leaf(), vec![0], vec![0])
                .aggregate(vec![0], vec![AggFn::Count, AggFn::Max(2), AggFn::Min(1)]),
            vec![SetOp::Union, SetOp::Intersect],
            &["source", "source", "aggregate"],
        ),
        (
            "select+union_all+project+distinct",
            leaf()
                .select(Predicate::col_const(
                    CmpOp::Ge,
                    1,
                    tp_core::value::Value::int(0),
                ))
                .union_all(leaf())
                .project(vec![0])
                .distinct(),
            vec![SetOp::Except, SetOp::Union],
            &[
                "source",
                "select",
                "source",
                "union_all",
                "project",
                "distinct",
            ],
        ),
        (
            "nl_join(key+overlap)+select",
            // The key equality lowers the nested-loop join to a hash join
            // with the overlap as a residual select; the trailing select
            // then trims by time.
            leaf()
                .nl_join(
                    leaf(),
                    Predicate::col_eq(0, 3).and(Predicate::overlap(1, 2, 4, 5)),
                )
                .select(Predicate::col_const(
                    CmpOp::Ge,
                    1,
                    tp_core::value::Value::int(2),
                )),
            vec![SetOp::Union, SetOp::Except],
            &["source", "source", "hash_join", "select", "select"],
        ),
        (
            // Grouped by a non-key column: the standing hash join and
            // aggregate stay separate operators.
            "hash_join+aggregate (unfused)",
            leaf()
                .hash_join(leaf(), vec![0], vec![0])
                .aggregate(vec![1], vec![AggFn::Count, AggFn::Max(2)]),
            vec![SetOp::Union, SetOp::Intersect],
            &["source", "source", "hash_join", "aggregate"],
        ),
        (
            "nl_join(theta)",
            // `¬(k ≠ k')` matches on the key, which keeps the join output
            // linear (pure overlap is quadratic in stream pieces — fine for
            // the batch executor, pathological for a standing view), but
            // is no `Col = Col` conjunct, so the join stays nested-loop.
            leaf().nl_join(
                leaf(),
                Predicate::col_cmp(CmpOp::Ne, 0, 3)
                    .negate()
                    .and(Predicate::overlap(1, 2, 4, 5)),
            ),
            vec![SetOp::Union, SetOp::Except],
            &["source", "source", "nl_join"],
        ),
    ]
}

/// Executes the batch plan over the closed-region output of the sink's
/// tapped relations, canonically sorted.
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

/// Replays a script to completion into `sink` through an engine with the
/// plan attached.
fn replay_into(
    plan: &Plan,
    taps: &[SetOp],
    script: &StreamScript,
    cfg: EngineConfig,
    sink: &mut impl StreamSink,
) -> StreamEngine {
    let mut engine = StreamEngine::with_plan(cfg, plan, taps).expect("plan compiles");
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
    assert_eq!(engine.late_dropped(), [0, 0], "scripts never drop");
    engine
}

/// [`replay_into`] a fresh `CollectingSink`.
fn replay(
    plan: &Plan,
    taps: &[SetOp],
    script: &StreamScript,
    cfg: EngineConfig,
) -> (StreamEngine, CollectingSink) {
    let mut sink = CollectingSink::new();
    let engine = replay_into(plan, taps, script, cfg, &mut sink);
    (engine, sink)
}

/// Replays a script through an engine with the plan attached and returns
/// `(materialized pipeline rows, batch twin rows)`.
fn run_case(
    plan: &Plan,
    taps: &[SetOp],
    script: &StreamScript,
    cfg: EngineConfig,
) -> (Vec<Row>, Vec<Row>) {
    let (engine, sink) = replay(plan, taps, script, cfg);
    let got = engine.pipeline().unwrap().materialized().rows;
    let expect = batch_rows(plan, &sink, taps);
    (got, expect)
}

#[test]
fn pipelines_match_batch_across_plans_and_engine_matrix() {
    // The full matrix: 5 plan shapes × reclaim on/off, each over a fresh
    // random input and replay schedule.
    let mut rng = StdRng::seed_from_u64(0x51A9_0001);
    let mut ran = BTreeSet::new();
    for (case, (name, plan, taps, ops)) in plan_cases().into_iter().enumerate() {
        for reclaim in [false, true] {
            let mut vars = VarTable::new();
            // Keys spread over enough facts to keep per-key piece
            // counts small: IVM join/aggregate maintenance is
            // O(per-key state) per delta, so a few hot keys over many
            // tuples is the pathological shape, not the realistic one.
            let tuples = rng.random_range(60..180usize);
            let facts = rng.random_range(5..12usize);
            let (r, s) = tp_workloads::synth::generate(
                &SynthConfig::with_facts(tuples, facts, 900 + case as u64),
                &mut vars,
            );
            let script = StreamScript::from_pair(
                &r,
                &s,
                &ReplayConfig {
                    lateness: rng.random_range(0..8i64),
                    advance_every: rng.random_range(1..48usize),
                    seed: 70 + case as u64,
                },
            );
            let (engine, sink) = replay(&plan, &taps, &script, engine_config(reclaim));
            let pipeline = engine.pipeline().unwrap();
            let expect = batch_rows(&plan, &sink, &taps);
            assert_eq!(
                pipeline.materialized().rows,
                expect,
                "{name}: pipeline != batch (reclaim={reclaim})"
            );
            let names: Vec<&str> = pipeline
                .operator_deltas()
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            assert_eq!(names, ops, "{name}: operators");
            ran.extend(names);
        }
    }
    // Every operator kind ran; the fused and the plain aggregate share a
    // name.
    let kinds = [
        "source",
        "select",
        "project",
        "nl_join",
        "hash_join",
        "union_all",
        "distinct",
        "aggregate",
    ];
    assert_eq!(ran, BTreeSet::from(kinds));
}

#[test]
fn arrival_permutations_and_watermark_schedules_are_invisible() {
    // The same input under different arrival permutations and watermark
    // schedules must materialize the *identical* view — the pipeline's
    // output is a function of the closed region, not of the replay.
    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::with_facts(100, 8, 3111), &mut vars);
    let (name, plan, taps, _) = plan_cases().remove(0);
    let mut views: Vec<Vec<Row>> = Vec::new();
    for (perm_seed, advance_every) in [(1u64, 1usize), (2, 17), (3, 10_000)] {
        let script = StreamScript::from_pair(
            &r,
            &s,
            &ReplayConfig {
                lateness: 6,
                advance_every,
                seed: perm_seed,
            },
        );
        let (got, expect) = run_case(&plan, &taps, &script, engine_config(false));
        assert_eq!(
            got, expect,
            "{name}: schedule ({perm_seed},{advance_every})"
        );
        views.push(got);
    }
    assert!(!views[0].is_empty(), "vacuous: empty view proves nothing");
    assert!(
        views.windows(2).all(|w| w[0] == w[1]),
        "materialized view varied across replay schedules"
    );
}

#[test]
fn reclaiming_pipeline_state_plateaus_on_extend_dominated_streams() {
    // Immortal facts cut by the watermark: after warm-up every advance
    // re-emits each fact's output as an Extend, so pipeline operators only
    // retract-and-regrow standing rows. With interior reclamation on, the
    // engine retires history underneath the pipeline — whose state holds
    // lineage expanded at the taps and must neither dangle nor grow.
    let (_, plan, taps, _) = plan_cases().remove(0);
    let epochs = 60i64;
    let mut engine =
        StreamEngine::with_plan(engine_config(true), &plan, &taps).expect("plan compiles");
    let mut sink = CollectingSink::new();
    for f in 0..5i64 {
        for (side, off) in [(Side::Left, 0u64), (Side::Right, 1)] {
            engine.push(
                side,
                TpTuple::new(
                    Fact::single(f),
                    Lineage::var(TupleId(f as u64 * 2 + off)),
                    Interval::at(0, epochs * 10),
                ),
            );
        }
    }
    let mut state_samples = Vec::new();
    for epoch in 0..epochs {
        engine.advance((epoch + 1) * 10, &mut sink).unwrap();
        state_samples.push(engine.pipeline().unwrap().state_rows());
    }
    engine.finish(&mut sink).unwrap();
    // History actually retired underneath the standing state.
    let (retired_segments, _) = engine.reclaimed();
    assert!(
        retired_segments > 0,
        "reclaim never fired; the plateau would be vacuous"
    );
    assert_plateau(&state_samples, 4, 1.0, "pipeline operator state");
    // And the view still matches batch over the full closed region.
    let got = engine.pipeline().unwrap().materialized().rows;
    let expect = batch_rows(&plan, &sink, &taps);
    assert!(!expect.is_empty());
    assert_eq!(got, expect, "reclaiming pipeline != batch");
}

/// The alert rule `leaf ⋈(k) leaf → aggregate(k; count, max te)` on the
/// union and intersect streams. It groups by its join key, so it lowers to
/// the fused join → aggregate.
fn alert_rule() -> (Plan, [SetOp; 2]) {
    let plan = leaf()
        .hash_join(leaf(), vec![0], vec![0])
        .aggregate(vec![0], vec![AggFn::Count, AggFn::Max(2)]);
    (plan, [SetOp::Union, SetOp::Intersect])
}

fn alert_script(synth: &SynthConfig) -> StreamScript {
    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(synth, &mut vars);
    StreamScript::from_pair(
        &r,
        &s,
        &ReplayConfig {
            lateness: 6,
            advance_every: 48,
            seed: 7,
        },
    )
}

/// Runs the alert rule over Zipf-keyed facts: a hot key's group folds every
/// member of that key into one lineage, as deep as the group is large. The
/// view must equal the batch plan, every row's lineage must import with
/// nothing on the way recursing per fold level, and the standing state
/// must stay linear in the tapped rows: the fused operator keeps each side's
/// members, never the `L × R` pairs per key.
fn zipf_alerts_match_batch(synth: &SynthConfig) {
    let (plan, taps) = alert_rule();
    let (engine, sink) = replay(&plan, &taps, &alert_script(synth), EngineConfig::default());
    let pipeline = engine.pipeline().unwrap();
    let got = pipeline.materialized().rows;
    let expect = batch_rows(&plan, &sink, &taps);
    assert!(!expect.is_empty(), "vacuous: batch output is empty");
    assert_eq!(got, expect, "Zipf-keyed alert view != batch");
    let lineage = pipeline.materialized_lineage_view(0);
    assert_eq!(lineage.len(), got.len(), "one lineage per aggregate row");
    assert!(lineage.iter().map(|(row, _)| row).eq(got.iter()));
    // O(L + R): the operators hold each tapped row once. The rest of the
    // state (one run record per fact and tap, one view row per key) is
    // smaller still.
    let tapped: usize = taps.iter().map(|&op| sink.len(op)).sum();
    let operator_rows: usize = pipeline.operator_stats().iter().map(|s| s.1).sum();
    assert!(
        operator_rows <= tapped,
        "operators hold {operator_rows} rows for {tapped} tapped rows"
    );
    assert!(
        pipeline.state_rows() <= 2 * tapped,
        "state {} rows for {tapped} tapped rows",
        pipeline.state_rows()
    );
}

#[test]
fn zipf_keyed_alert_plan_completes_and_matches_batch() {
    zipf_alerts_match_batch(&SynthConfig::with_zipf_facts(1_000, 50, 1.0, 7));
}

/// Soak at the scale that overflowed the stack with owned lineage trees;
/// run with `cargo test --release --test streaming_plans -- --ignored zipf`.
#[test]
#[ignore]
fn zipf_keyed_alert_plan_soak() {
    zipf_alerts_match_batch(&SynthConfig::with_zipf_facts(4_000, 400, 0.9, 7));
}

/// `∨` of non-empty `terms` as a balanced tree, so compiling it recurses
/// only logarithmically deep.
fn balanced_or(mut terms: Vec<Lineage>) -> Lineage {
    while terms.len() > 1 {
        terms = terms
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => Lineage::or(a, b),
                [a] => *a,
                _ => unreachable!("chunks of two"),
            })
            .collect();
    }
    terms[0]
}

/// `l` with every variable renamed through `rank`.
fn renamed(l: &Lineage, rank: &HashMap<TupleId, TupleId>) -> Lineage {
    fn rec(t: &LineageTree, rank: &HashMap<TupleId, TupleId>) -> LineageTree {
        match t {
            LineageTree::Var(id) => LineageTree::Var(rank[id]),
            LineageTree::Not(c) => rec(&c[0], rank).negate(),
            LineageTree::And(ab) => LineageTree::and(rec(&ab[0], rank), rec(&ab[1], rank)),
            LineageTree::Or(ab) => LineageTree::or(rec(&ab[0], rank), rec(&ab[1], rank)),
        }
    }
    Lineage::from_tree(&rec(&l.to_tree(), rank))
}

#[test]
fn fused_alert_lineage_equals_the_pairwise_join_lineage() {
    // The batch join → aggregate gives a key the lineage ∨ᵢⱼ (lᵢ ∧ rⱼ) over
    // its union × intersect tuples; the fused operator publishes
    // (∨ lᵢ) ∧ (∨ rⱼ). Both compile into one ROBDD, canonical under its
    // fixed variable order, so the functions are equal iff the roots are.
    let (plan, taps) = alert_rule();
    let inputs = [
        ("uniform", SynthConfig::with_facts(150, 10, 515)),
        ("zipf", SynthConfig::with_zipf_facts(1_000, 50, 1.0, 7)),
    ];
    for (input, synth) in inputs {
        let script = alert_script(&synth);
        // The generator numbers all of r's variables before s's, an order
        // under which a key's ∨ of overlapping (r ∧ s) pairs has an
        // exponential ROBDD. Renaming both sides' variables by base-tuple
        // start time (a bijection, so equivalence is unchanged) keeps the
        // diagrams as narrow as the overlap.
        let mut by_start: Vec<(TimePoint, TupleId)> = script
            .events
            .iter()
            .filter_map(|e| match e {
                ReplayEvent::Arrive(_, t) => match t.lineage.kind() {
                    LineageKind::Var(id) => Some((t.interval.start(), id)),
                    _ => None,
                },
                ReplayEvent::Advance(_) => None,
            })
            .collect();
        by_start.sort();
        let rank: HashMap<TupleId, TupleId> = by_start
            .iter()
            .enumerate()
            .map(|(i, &(_, id))| (id, TupleId(i as u64)))
            .collect();
        // One diagram per input: the reclaiming run's reference formulas
        // intern to the same handles and hit the compile memo.
        let mut bdd = Bdd::new();
        for reclaim in [false, true] {
            let ctx = format!("{input}, reclaim={reclaim}");
            // A reclaiming engine retires the lineage its deltas point at:
            // record the taps as owned trees and re-intern them here.
            let mut recorded = MaterializingSink::new();
            let engine = replay_into(&plan, &taps, &script, engine_config(reclaim), &mut recorded);
            let sink = recorded.replay();
            let mut members: HashMap<Value, [Vec<Lineage>; 2]> = HashMap::new();
            for (side, &op) in taps.iter().enumerate() {
                for t in sink.relation(op).iter() {
                    let key = t.fact.values()[0].clone();
                    members.entry(key).or_default()[side].push(renamed(&t.lineage, &rank));
                }
            }
            let view = engine.pipeline().unwrap().materialized_lineage_view(0);
            assert!(!view.is_empty(), "{ctx}: vacuous");
            for (row, lineage) in &view {
                let lineage = renamed(lineage, &rank);
                let [l, r] = &members[&row[0]];
                let pairs = l
                    .iter()
                    .flat_map(|a| r.iter().map(move |b| Lineage::and(a, b)))
                    .collect();
                assert_eq!(
                    bdd.compile(&lineage),
                    bdd.compile(&balanced_or(pairs)),
                    "{ctx}: key {} lineage differs from the pairwise join's",
                    row[0]
                );
            }
        }
    }
}

#[test]
fn pipeline_stats_and_metadata_are_live() {
    let (_, plan, taps, _) = plan_cases().remove(0);
    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::with_facts(80, 3, 77), &mut vars);
    let script = StreamScript::from_pair(
        &r,
        &s,
        &ReplayConfig {
            lateness: 4,
            advance_every: 16,
            seed: 5,
        },
    );
    let mut engine = StreamEngine::with_plan(engine_config(false), &plan, &taps).expect("compiles");
    let mut sink = CollectingSink::new();
    let mut pipeline_deltas = 0u64;
    for event in &script.events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                engine.push(*side, t.clone());
            }
            ReplayEvent::Advance(wm) => {
                pipeline_deltas += engine.advance(*wm, &mut sink).unwrap().pipeline_deltas;
            }
        }
    }
    pipeline_deltas += engine.finish(&mut sink).unwrap().pipeline_deltas;
    let p = engine.pipeline().unwrap();
    assert_eq!(p.taps(), &taps[..]);
    assert_eq!(p.schema().columns(), &["l.k", "count", "max_2", "min_1"]);
    assert_eq!(p.deltas_total(), pipeline_deltas);
    assert!(p.advances() > 0);
    // Every operator of the plan saw traffic.
    for (op_name, emitted) in p.operator_deltas() {
        assert!(emitted > 0, "operator {op_name} never emitted");
    }
}
