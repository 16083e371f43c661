//! Edge cases of `split_at_watermark` and the ingestion boundary: zero
//! lateness, duplicate timestamps exactly at the cut, the paper's Example 3
//! cut by watermarks mid-tuple, watermark-regression rejection, and
//! empty-epoch advances — all cross-checked against batch through the
//! shared differential oracle.

mod common;

use common::oracle::assert_each_watermark_matches_batch;
use tp_core::window::split_at_watermark;
use tp_stream::{
    CountingSink, EngineConfig, IngestOutcome, ReclaimConfig, ReplayEvent, Side, StreamEngine,
    StreamError, StreamSink, WatermarkPolicy,
};
use tpdb::prelude::*;

fn tup(vars: &mut VarTable, f: &str, s: i64, e: i64) -> TpTuple {
    let id = vars.register(format!("{f}[{s},{e})"), 0.5).unwrap();
    TpTuple::new(f, Lineage::var(id), Interval::at(s, e))
}

#[test]
fn split_at_watermark_boundary_partition() {
    let mut vars = VarTable::new();
    // end == w → fully closed; start == w → fully residual; straddling →
    // both sides, same lineage handle.
    let closed_exact = tup(&mut vars, "a", 1, 5);
    let open_exact = tup(&mut vars, "b", 5, 9);
    let straddle = tup(&mut vars, "c", 3, 8);
    let (closed, residual) = split_at_watermark(
        vec![closed_exact.clone(), open_exact.clone(), straddle.clone()],
        5,
    );
    assert_eq!(closed.len(), 2);
    assert_eq!(residual.len(), 2);
    assert_eq!(
        closed[0], closed_exact,
        "end == w belongs to the closed side"
    );
    assert_eq!(
        residual[0], open_exact,
        "start == w belongs to the residual"
    );
    // The straddler is cut at exactly w with the lineage handle preserved
    // on both sides (the O(1) Extend-merge precondition).
    assert_eq!(closed[1].interval, Interval::at(3, 5));
    assert_eq!(residual[1].interval, Interval::at(5, 8));
    assert_eq!(closed[1].lineage, straddle.lineage);
    assert_eq!(residual[1].lineage, straddle.lineage);
    // Degenerate inputs.
    let (c, r) = split_at_watermark(Vec::<TpTuple>::new(), 5);
    assert!(c.is_empty() && r.is_empty());
}

#[test]
fn zero_lateness_policy_accepts_the_boundary_and_drops_below_it() {
    // lateness = 0: the watermark rides exactly on the highest start seen.
    let mut vars = VarTable::new();
    let mut engine = StreamEngine::new(EngineConfig {
        policy: WatermarkPolicy::BoundedLateness(0),
        ..Default::default()
    });
    let mut sink = CountingSink::new();
    engine.push(Side::Left, tup(&mut vars, "f", 0, 4));
    let stats = engine.poll(&mut sink).expect("watermark moves to 0");
    assert_eq!(stats.watermark, 0);
    engine.push(Side::Left, tup(&mut vars, "f", 10, 14));
    assert_eq!(engine.poll(&mut sink).unwrap().watermark, 10);
    // Start exactly AT the watermark: still legal (the promise is about
    // starts *below* it).
    assert_eq!(
        engine.push(Side::Left, tup(&mut vars, "g", 10, 12)),
        IngestOutcome::Accepted
    );
    // One tick below: late, dropped, counted.
    assert_eq!(
        engine.push(Side::Left, tup(&mut vars, "g", 9, 12)),
        IngestOutcome::Late
    );
    assert_eq!(engine.late_dropped(), [1, 0]);
}

#[test]
fn duplicate_timestamps_at_the_cut_reassemble_exactly() {
    // Several same-fact and different-fact tuples whose endpoints pile up
    // exactly on the watermark: the artificial cuts must reassemble to the
    // batch result (tuples, lineage handles, marginals).
    let mut vars = VarTable::new();
    let r: TpRelation = vec![
        tup(&mut vars, "f", 0, 5),  // ends at the cut
        tup(&mut vars, "f", 5, 10), // starts at the cut (adjacent, same fact)
        tup(&mut vars, "g", 2, 8),  // straddles the cut
        tup(&mut vars, "h", 5, 7),  // starts at the cut, distinct fact
    ]
    .into_iter()
    .collect();
    let s: TpRelation = vec![
        tup(&mut vars, "f", 3, 5),
        tup(&mut vars, "g", 5, 9),
        tup(&mut vars, "h", 0, 5),
    ]
    .into_iter()
    .collect();
    // Advance exactly onto the pile-up point, then past everything; the
    // prefix is checked against batch at both watermarks.
    let events: Vec<_> = arrivals(Side::Left, r.iter())
        .chain(arrivals(Side::Right, s.iter()))
        .chain([ReplayEvent::Advance(5)])
        .collect();
    assert_each_watermark_matches_batch(&events, EngineConfig::default(), &vars, "pile-up");
}

/// Tuples arriving on `side`, in iteration order.
fn arrivals<'a>(
    side: Side,
    tuples: impl Iterator<Item = &'a TpTuple> + 'a,
) -> impl Iterator<Item = ReplayEvent> + 'a {
    tuples.map(move |t| ReplayEvent::Arrive(side, t.clone()))
}

#[test]
fn example3_prefix_matches_batch_at_every_watermark() {
    // The paper's Example 3 (c, a restricted to 'milk'): in order with
    // watermarks 3, 5 and 7 slicing through tuples; and with c arriving
    // newest first, the watermark at 2, then a arriving exactly at it.
    let mut vars = VarTable::new();
    let milk = |s, e, p| (Fact::single("milk"), Interval::at(s, e), p);
    let c = TpRelation::base("c", vec![milk(1, 4, 0.6), milk(6, 8, 0.7)], &mut vars).unwrap();
    let a = TpRelation::base("a", vec![milk(2, 10, 0.3)], &mut vars).unwrap();
    let in_order: Vec<_> = arrivals(Side::Left, c.iter())
        .chain(arrivals(Side::Right, a.iter()))
        .chain([3, 5, 7].map(ReplayEvent::Advance))
        .collect();
    let reversed: Vec<_> = arrivals(Side::Left, c.iter().rev())
        .chain([ReplayEvent::Advance(2)])
        .chain(arrivals(Side::Right, a.iter()))
        .collect();
    for (events, ctx) in [(in_order, "in order"), (reversed, "reversed")] {
        assert_each_watermark_matches_batch(&events, EngineConfig::default(), &vars, ctx);
    }
}

#[test]
fn watermark_regression_is_rejected_and_harmless() {
    let mut vars = VarTable::new();
    let mut engine = StreamEngine::default();
    let mut sink = CountingSink::new();
    engine.push(Side::Left, tup(&mut vars, "f", 0, 20));
    engine.advance(10, &mut sink).unwrap();
    let deltas_before = sink.total();
    let buffered_before = engine.buffered();
    // Equal and lower targets are rejected with the current watermark in
    // the error…
    for bad in [10, 9, i64::MIN] {
        match engine.advance(bad, &mut sink) {
            Err(StreamError::NonMonotonicWatermark { current, requested }) => {
                assert_eq!(current, 10);
                assert_eq!(requested, bad);
            }
            other => panic!("advance({bad}) returned {other:?}"),
        }
    }
    // …and the engine state is untouched: same watermark, same buffers,
    // no deltas, and a later legal advance still works.
    assert_eq!(engine.watermark(), 10);
    assert_eq!(engine.buffered(), buffered_before);
    assert_eq!(sink.total(), deltas_before);
    let stats = engine.advance(20, &mut sink).unwrap();
    assert_eq!(stats.watermark, 20);
}

#[test]
fn empty_epoch_advances_are_cheap_and_do_not_leak() {
    // A reclaiming engine advanced through epochs with no arrivals must
    // not grow anything: no windows, no segments sealed (empty segments
    // are not sealed), no var cohorts stranded — and a stream resuming
    // after the gap still matches batch.
    struct RetireCount(u64);
    impl StreamSink for RetireCount {
        fn on_delta(&mut self, _op: SetOp, _d: &tp_stream::Delta) {}
        fn on_retire(&mut self, _seg: SegmentId) {
            self.0 += 1;
        }
    }
    let vars = std::sync::Arc::new(VarTable::new());
    let mut engine = StreamEngine::new(EngineConfig {
        reclaim: Some(ReclaimConfig {
            keep_epochs: 1,
            vars: Some(std::sync::Arc::clone(&vars)),
        }),
        ..Default::default()
    });
    let mut sink = RetireCount(0);
    let segments_before = engine.arena_stats().unwrap().segments;
    for w in 1..=40i64 {
        let stats = engine.advance(w, &mut sink).unwrap();
        assert_eq!(stats.windows, 0);
        assert_eq!((stats.inserts, stats.extends), (0, 0));
        assert_eq!(stats.released, [0, 0]);
    }
    let after = engine.arena_stats().unwrap();
    assert_eq!(
        after.segments, segments_before,
        "empty advances must not burn arena segments"
    );
    assert_eq!(after.nodes, 0);
    assert_eq!(vars.live_vars(), 0);
    // Resume with real traffic: the gap leaves no residue in the results.
    let id = vars.register_shared("late-bloomer", 0.7).unwrap();
    let scope = engine.enter_arena();
    let t = TpTuple::new("f", Lineage::var(id), Interval::at(50, 60));
    engine.push(Side::Left, t);
    drop(scope);
    let stats = engine.advance(100, &mut sink).unwrap();
    assert_eq!(stats.inserts, 2); // union + except emit the lone tuple
    assert_eq!(stats.windows, 1);
    // And the retire cycle still functions after the empty stretch.
    for w in 101..=110i64 {
        engine.advance(w, &mut sink).unwrap();
    }
    assert!(engine.reclaimed().0 > 0);
    assert_eq!(engine.reclaimed_vars(), 1);
    assert!(matches!(vars.prob(id), Err(Error::ReleasedVariable(_))));
    assert!(sink.0 > 0);
}
