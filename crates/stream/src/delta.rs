//! Result deltas and the [`StreamSink`] consumer interface.
//!
//! The engine never re-emits a finalized output tuple. Each watermark
//! advance produces a sequence of deltas per set operation:
//!
//! * [`Delta::Insert`] — a brand-new output tuple;
//! * [`Delta::Extend`] — the most recent output tuple of the fact grows to
//!   the right, because the window continued unchanged across the previous
//!   watermark cut (same valid tuples, hence — by hash-consing — the
//!   *identical* lineage handle).
//!
//! A sink that applies both kinds verbatim reconstructs exactly the batch
//! LAWA output; [`CollectingSink`] does that, [`CountingSink`] just counts
//! (for benchmarks and monitoring).

use tp_core::arena::{FastMap, SegmentId};
use tp_core::fact::Fact;
use tp_core::interval::{Interval, TimePoint};
use tp_core::lineage::{Lineage, LineageTree};
use tp_core::ops::SetOp;
use tp_core::relation::TpRelation;
use tp_core::tuple::TpTuple;

/// One incremental change to the result of a set operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// A new output tuple, final as of the current watermark (it may still
    /// be extended later, never retracted or shrunk).
    Insert(TpTuple),
    /// The most recent output tuple of `fact` — whose interval currently
    /// ends at `from` and whose lineage is `lineage` — now ends at `to`.
    Extend {
        /// The fact whose latest output tuple grows.
        fact: Fact,
        /// The (unchanged) lineage of that tuple, for consumers that index
        /// deltas by lineage instead of by fact.
        lineage: Lineage,
        /// The previous exclusive end of the tuple's interval.
        from: TimePoint,
        /// The new exclusive end.
        to: TimePoint,
    },
}

impl Delta {
    /// The fact the delta applies to.
    pub fn fact(&self) -> &Fact {
        match self {
            Delta::Insert(t) => &t.fact,
            Delta::Extend { fact, .. } => fact,
        }
    }
}

/// Consumer of the engine's incremental results.
pub trait StreamSink {
    /// Called once per delta, in output order per watermark advance.
    fn on_delta(&mut self, op: SetOp, delta: &Delta);

    /// Called after all deltas of a watermark advance have been delivered.
    fn on_watermark(&mut self, _w: TimePoint) {}

    /// Called when a reclaiming engine retires an arena segment (bounded-
    /// memory mode): lineage handles keyed into `seg` are dead, and any
    /// later traversal of them panics ("use-after-retire"). Default: no-op.
    fn on_retire(&mut self, _seg: SegmentId) {}
}

/// Index of an operation in per-op arrays (`SetOp::ALL` order).
pub(crate) fn op_index(op: SetOp) -> usize {
    match op {
        SetOp::Union => 0,
        SetOp::Intersect => 1,
        SetOp::Except => 2,
    }
}

/// A sink that materializes the full result relation per operation by
/// applying every delta. After the stream is closed, [`CollectingSink::relation`]
/// equals the batch operation on the same inputs.
#[derive(Debug, Default)]
pub struct CollectingSink {
    tuples: [Vec<TpTuple>; 3],
    /// Per op: index of the latest output tuple per fact (the only tuple an
    /// `Extend` may target).
    last: [FastMap<Fact, usize>; 3],
}

impl CollectingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The materialized result of `op`, sorted by `(F, Ts)`.
    pub fn relation(&self, op: SetOp) -> TpRelation {
        TpRelation::try_new(self.tuples[op_index(op)].clone())
            .expect("streamed output must be duplicate-free")
    }

    /// Number of materialized tuples for `op`.
    pub fn len(&self, op: SetOp) -> usize {
        self.tuples[op_index(op)].len()
    }

    /// Whether nothing was materialized for `op`.
    pub fn is_empty(&self, op: SetOp) -> bool {
        self.tuples[op_index(op)].is_empty()
    }
}

impl StreamSink for CollectingSink {
    fn on_delta(&mut self, op: SetOp, delta: &Delta) {
        let idx = op_index(op);
        match delta {
            Delta::Insert(t) => {
                self.tuples[idx].push(t.clone());
                self.last[idx].insert(t.fact.clone(), self.tuples[idx].len() - 1);
            }
            Delta::Extend {
                fact,
                lineage,
                from,
                to,
            } => {
                // A sink attached mid-stream may receive an Extend for a
                // tuple it never saw inserted: materialize the extension
                // piece as a fresh tuple instead (its view of the result
                // then covers exactly the deltas it observed).
                match self.last[idx].get(fact) {
                    Some(&at) => {
                        let t = &mut self.tuples[idx][at];
                        debug_assert_eq!(t.interval.end(), *from, "Extend boundary mismatch");
                        debug_assert_eq!(t.lineage, *lineage, "Extend lineage mismatch");
                        t.interval = Interval::at(t.interval.start(), *to);
                    }
                    None => {
                        let t = TpTuple::new(fact.clone(), *lineage, Interval::at(*from, *to));
                        self.tuples[idx].push(t);
                        self.last[idx].insert(fact.clone(), self.tuples[idx].len() - 1);
                    }
                }
            }
        }
    }
}

/// A sink that only counts deltas — the cheapest way to drive the engine in
/// benchmarks, and a template for monitoring integrations.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    inserts: [u64; 3],
    extends: [u64; 3],
    /// Watermark advances observed.
    pub watermarks: u64,
}

impl CountingSink {
    /// Creates a zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts seen for `op`.
    pub fn inserts(&self, op: SetOp) -> u64 {
        self.inserts[op_index(op)]
    }

    /// Extends seen for `op`.
    pub fn extends(&self, op: SetOp) -> u64 {
        self.extends[op_index(op)]
    }

    /// Total deltas across all operations.
    pub fn total(&self) -> u64 {
        self.inserts.iter().sum::<u64>() + self.extends.iter().sum::<u64>()
    }
}

impl StreamSink for CountingSink {
    fn on_delta(&mut self, op: SetOp, delta: &Delta) {
        let idx = op_index(op);
        match delta {
            Delta::Insert(_) => self.inserts[idx] += 1,
            Delta::Extend { .. } => self.extends[idx] += 1,
        }
    }

    fn on_watermark(&mut self, _w: TimePoint) {
        self.watermarks += 1;
    }
}

/// A sink that discards everything (engine overhead measurements).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl StreamSink for NullSink {
    fn on_delta(&mut self, _op: SetOp, _delta: &Delta) {}
}

/// One delta with its lineage materialized as an owned
/// [`LineageTree`] — the reclaim-mode record: it stays valid after the
/// engine retires the arena segments the original handle lived in.
/// `PartialEq` compares the full record (op, fact, tree, interval, kind),
/// so two delta logs are equal iff the streams behaved identically — the
/// byte-identity check of the multi-tenant soak tests.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterializedDelta {
    /// The operation the delta belongs to.
    pub op: SetOp,
    /// The fact.
    pub fact: Fact,
    /// The lineage, expanded to an arena-independent tree.
    pub lineage: LineageTree,
    /// Interval start (`Insert`) or previous end (`Extend`).
    pub from: TimePoint,
    /// Interval end.
    pub to: TimePoint,
    /// `true` for `Insert`, `false` for `Extend`.
    pub insert: bool,
}

/// The sink for **reclaiming** engines ([`tp_core::arena`] segment
/// retirement): every delta's lineage is expanded to an owned tree the
/// moment it arrives — inside the engine's arena scope, per the
/// consumption contract — so the record outlives any retirement.
/// [`MaterializingSink::replay`] re-interns the trees into the *current*
/// arena (identical formulas ⇒ identical handles there), which is how the
/// equivalence tests compare a bounded-memory stream against batch LAWA.
#[derive(Debug, Default)]
pub struct MaterializingSink {
    /// Every delta, in arrival order.
    pub deltas: Vec<MaterializedDelta>,
    /// Segments the engine retired while this sink listened.
    pub retired_segments: u64,
}

impl MaterializingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-applies every materialized delta with lineage re-interned into
    /// the thread's current arena.
    pub fn replay(&self) -> CollectingSink {
        let mut sink = CollectingSink::new();
        for d in &self.deltas {
            let lineage = Lineage::from_tree(&d.lineage);
            let delta = if d.insert {
                Delta::Insert(TpTuple::new(
                    d.fact.clone(),
                    lineage,
                    Interval::at(d.from, d.to),
                ))
            } else {
                Delta::Extend {
                    fact: d.fact.clone(),
                    lineage,
                    from: d.from,
                    to: d.to,
                }
            };
            sink.on_delta(d.op, &delta);
        }
        sink
    }

    /// The materialized result of `op`, re-interned into the current
    /// arena and sorted by `(F, Ts)`.
    pub fn relation(&self, op: SetOp) -> TpRelation {
        self.replay().relation(op)
    }
}

impl StreamSink for MaterializingSink {
    fn on_delta(&mut self, op: SetOp, delta: &Delta) {
        let d = match delta {
            Delta::Insert(t) => MaterializedDelta {
                op,
                fact: t.fact.clone(),
                lineage: t.lineage.to_tree(),
                from: t.interval.start(),
                to: t.interval.end(),
                insert: true,
            },
            Delta::Extend {
                fact,
                lineage,
                from,
                to,
            } => MaterializedDelta {
                op,
                fact: fact.clone(),
                lineage: lineage.to_tree(),
                from: *from,
                to: *to,
                insert: false,
            },
        };
        self.deltas.push(d);
    }

    fn on_retire(&mut self, _seg: SegmentId) {
        self.retired_segments += 1;
    }
}

/// One sink-side valuated insert: the probability of an output tuple the
/// moment its `Insert` delta's advance closed, stored as plain values so
/// the record outlives arena retirement.
#[derive(Debug, Clone, PartialEq)]
pub struct ValuatedDelta {
    /// The operation the insert belongs to.
    pub op: SetOp,
    /// The fact.
    pub fact: Fact,
    /// The inserted tuple's interval (as of the insert; later `Extend`s
    /// grow the tuple without changing its lineage, hence without
    /// changing this probability).
    pub interval: Interval,
    /// Exact marginal probability of the tuple's lineage.
    pub p: f64,
}

/// A decorator that valuates every `Insert` delta **in one batched pass
/// per watermark advance** through [`crate::obs::valuate_batch`] — the
/// columnar kernel — instead of paying the cold per-root walk inside
/// `on_delta` the way naive monitoring sinks do. Inserts are buffered as
/// they arrive and valuated in `on_watermark`, which the engine calls
/// inside the same arena scope *before* seal/retire, so the buffered
/// handles are still live even in reclaim mode.
///
/// All callbacks forward to the wrapped sink (a [`CollectingSink`], a
/// [`MaterializingSink`], an alerting monitor, ...), so the decorator
/// composes with any consumer.
///
/// `V` is anything that borrows the registry: `&VarTable` for
/// caller-owned monitors, `Arc<VarTable>` for server-owned per-tenant
/// sinks whose registry is shared with the engine.
pub struct ValuatingSink<V, S> {
    inner: S,
    vars: V,
    /// Ops to valuate (`SetOp::ALL` order); others pass through untouched.
    ops: [bool; 3],
    /// Inserts buffered since the last watermark.
    pending: Vec<(SetOp, TpTuple)>,
    valuated: Vec<ValuatedDelta>,
}

impl<V: std::borrow::Borrow<tp_core::relation::VarTable>, S: StreamSink> ValuatingSink<V, S> {
    /// Wraps `inner`, valuating inserts of every op against `vars`.
    pub fn new(inner: S, vars: V) -> Self {
        ValuatingSink {
            inner,
            vars,
            ops: [true; 3],
            pending: Vec::new(),
            valuated: Vec::new(),
        }
    }

    /// Restricts valuation to `ops` (e.g. only `Except` for alert rules);
    /// other ops' deltas still forward to the inner sink.
    pub fn with_ops(mut self, ops: &[SetOp]) -> Self {
        self.ops = [false; 3];
        for &op in ops {
            self.ops[op_index(op)] = true;
        }
        self
    }

    /// Valuated inserts accumulated so far (advance granularity).
    pub fn valuated(&self) -> &[ValuatedDelta] {
        &self.valuated
    }

    /// Takes the accumulated valuated inserts, leaving the buffer empty.
    pub fn drain_valuated(&mut self) -> Vec<ValuatedDelta> {
        std::mem::take(&mut self.valuated)
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped sink, mutably.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<V: std::borrow::Borrow<tp_core::relation::VarTable>, S: StreamSink> StreamSink
    for ValuatingSink<V, S>
{
    fn on_delta(&mut self, op: SetOp, delta: &Delta) {
        if self.ops[op_index(op)] {
            if let Delta::Insert(t) = delta {
                self.pending.push((op, t.clone()));
            }
        }
        self.inner.on_delta(op, delta);
    }

    fn on_watermark(&mut self, w: TimePoint) {
        if !self.pending.is_empty() {
            let lineages: Vec<Lineage> = self.pending.iter().map(|(_, t)| t.lineage).collect();
            let ps = crate::obs::valuate_batch(&lineages, self.vars.borrow())
                .expect("sink-side valuation: inserted tuples' variables are registered");
            for ((op, t), p) in self.pending.drain(..).zip(ps) {
                self.valuated.push(ValuatedDelta {
                    op,
                    fact: t.fact,
                    interval: t.interval,
                    p,
                });
            }
        }
        self.inner.on_watermark(w);
    }

    fn on_retire(&mut self, seg: SegmentId) {
        self.inner.on_retire(seg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::lineage::TupleId;

    fn v(i: u64) -> Lineage {
        Lineage::var(TupleId(i))
    }

    #[test]
    fn collecting_sink_applies_insert_and_extend() {
        let mut sink = CollectingSink::new();
        let t = TpTuple::new("milk", v(1), Interval::at(1, 4));
        sink.on_delta(SetOp::Union, &Delta::Insert(t.clone()));
        sink.on_delta(
            SetOp::Union,
            &Delta::Extend {
                fact: t.fact.clone(),
                lineage: t.lineage,
                from: 4,
                to: 9,
            },
        );
        let rel = sink.relation(SetOp::Union);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuples()[0].interval, Interval::at(1, 9));
        assert!(sink.is_empty(SetOp::Intersect));
    }

    #[test]
    fn extend_targets_latest_tuple_of_the_fact() {
        let mut sink = CollectingSink::new();
        let a = TpTuple::new("f", v(1), Interval::at(1, 3));
        let b = TpTuple::new("f", v(2), Interval::at(5, 7));
        sink.on_delta(SetOp::Union, &Delta::Insert(a));
        sink.on_delta(SetOp::Union, &Delta::Insert(b.clone()));
        sink.on_delta(
            SetOp::Union,
            &Delta::Extend {
                fact: b.fact.clone(),
                lineage: b.lineage,
                from: 7,
                to: 8,
            },
        );
        let rel = sink.relation(SetOp::Union);
        assert_eq!(rel.tuples()[0].interval, Interval::at(1, 3));
        assert_eq!(rel.tuples()[1].interval, Interval::at(5, 8));
    }

    #[test]
    fn extend_without_prior_insert_materializes_the_piece() {
        // A sink attached mid-stream sees only the continuation.
        let mut sink = CollectingSink::new();
        sink.on_delta(
            SetOp::Union,
            &Delta::Extend {
                fact: Fact::single("f"),
                lineage: v(9),
                from: 4,
                to: 7,
            },
        );
        let rel = sink.relation(SetOp::Union);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuples()[0].interval, Interval::at(4, 7));
        // And a further Extend continues that piece.
        sink.on_delta(
            SetOp::Union,
            &Delta::Extend {
                fact: Fact::single("f"),
                lineage: v(9),
                from: 7,
                to: 9,
            },
        );
        assert_eq!(
            sink.relation(SetOp::Union).tuples()[0].interval,
            Interval::at(4, 9)
        );
    }

    #[test]
    fn valuating_sink_batches_and_matches_per_root_path() {
        use crate::engine::{EngineConfig, Side, StreamEngine};
        use tp_core::relation::VarTable;

        let mut vars = VarTable::new();
        let ids: Vec<_> = (0..40i64)
            .map(|k| {
                vars.register(format!("v{k}"), 0.1 + 0.02 * (k % 40) as f64)
                    .unwrap()
            })
            .collect();
        let mut engine = StreamEngine::new(EngineConfig::default());
        let mut sink = ValuatingSink::new(CollectingSink::new(), &vars);
        for k in 0..40i64 {
            let side = if k % 2 == 0 { Side::Left } else { Side::Right };
            let t = TpTuple::new(
                Fact::single(k % 5),
                Lineage::var(ids[k as usize]),
                Interval::at(k, k + 6),
            );
            engine.push(side, t);
        }
        for w in [10, 21, 33] {
            engine.advance(w, &mut sink).unwrap();
        }
        engine.finish(&mut sink).unwrap();
        // Every output tuple got exactly one valuated insert (its later
        // Extends keep the lineage handle, hence the probability), and the
        // batched value matches the per-root memoized path to 1e-12.
        let recs = sink.valuated().to_vec();
        let inner = sink.into_inner();
        let mut matched = 0usize;
        for op in SetOp::ALL {
            for t in inner.relation(op).iter() {
                let rec = recs
                    .iter()
                    .find(|r| {
                        r.op == op && r.fact == t.fact && r.interval.start() == t.interval.start()
                    })
                    .expect("every output tuple was valuated at insert time");
                let expect = tp_core::prob::marginal(&t.lineage, &vars).unwrap();
                assert!(
                    (rec.p - expect).abs() <= 1e-12,
                    "{op}: batched {} vs per-root {expect}",
                    rec.p
                );
                matched += 1;
            }
        }
        assert!(matched > 10, "vacuous: only {matched} valuated tuples");
    }

    #[test]
    fn valuating_sink_op_filter_and_drain() {
        use crate::engine::{Side, StreamEngine};
        use tp_core::relation::VarTable;

        let mut vars = VarTable::new();
        let id = vars.register("only", 0.4).unwrap();
        let mut engine = StreamEngine::default();
        let mut sink = ValuatingSink::new(CountingSink::new(), &vars).with_ops(&[SetOp::Except]);
        engine.push(
            Side::Left,
            TpTuple::new("f", Lineage::var(id), Interval::at(0, 5)),
        );
        engine.finish(&mut sink).unwrap();
        // Left-only input inserts into Union and Except; only Except is
        // valuated, everything still reaches the inner sink.
        assert_eq!(sink.valuated().len(), 1);
        assert_eq!(sink.valuated()[0].op, SetOp::Except);
        assert!((sink.valuated()[0].p - 0.4).abs() <= 1e-12);
        assert_eq!(sink.inner().inserts(SetOp::Union), 1);
        let drained = sink.drain_valuated();
        assert_eq!(drained.len(), 1);
        assert!(sink.valuated().is_empty());
    }

    #[test]
    fn counting_sink_counts_per_op() {
        let mut sink = CountingSink::new();
        let t = TpTuple::new("x", v(3), Interval::at(0, 2));
        sink.on_delta(SetOp::Union, &Delta::Insert(t.clone()));
        sink.on_delta(SetOp::Except, &Delta::Insert(t.clone()));
        sink.on_delta(
            SetOp::Except,
            &Delta::Extend {
                fact: t.fact.clone(),
                lineage: t.lineage,
                from: 2,
                to: 3,
            },
        );
        sink.on_watermark(5);
        assert_eq!(sink.inserts(SetOp::Union), 1);
        assert_eq!(sink.inserts(SetOp::Except), 1);
        assert_eq!(sink.extends(SetOp::Except), 1);
        assert_eq!(sink.total(), 3);
        assert_eq!(sink.watermarks, 1);
    }

    #[test]
    fn materializing_sink_records_and_replays_deep_lineage() {
        // A 100 000-deep ∨-chain: recording expands it into an owned tree
        // and replay interns it back, both without overflowing a test
        // thread.
        let arena = tp_core::arena::LineageArena::shared(1);
        let _scope = tp_core::arena::LineageArena::enter(&arena);
        let deep = (1..100_000).fold(v(0), |acc, i| Lineage::or(&acc, &v(i)));
        let mut sink = MaterializingSink::new();
        let t = TpTuple::new("milk", deep, Interval::at(1, 4));
        sink.on_delta(SetOp::Union, &Delta::Insert(t.clone()));
        assert!(sink.deltas[0].lineage == deep.to_tree());
        assert_eq!(sink.relation(SetOp::Union).iter().collect::<Vec<_>>(), [&t]);
        drop(sink);
    }
}
