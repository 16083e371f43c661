//! Shared plumbing: encoding TP relations into the relational substrate and
//! assembling TP output tuples from matched pairs.

use tp_core::fact::Fact;
use tp_core::interval::Interval;
use tp_core::lineage::Lineage;
use tp_core::relation::TpRelation;
use tp_core::tuple::TpTuple;
use tp_core::value::Value;
use tp_relalg::{CmpOp, Expr, Predicate, Relation, Schema};

/// A TP relation encoded as a flat table for the relational baselines.
///
/// Schema: `f0, …, f{arity-1}, ts, te, idx` where `idx` is the position of
/// the original tuple (lineage is kept out of the engine, in a side
/// structure — exactly how the TPDB implementation keeps lineage "as an
/// internal data structure in main memory").
pub struct Encoded<'a> {
    /// The flat table.
    pub rel: Relation,
    /// Arity of the fact part.
    pub arity: usize,
    /// The original tuples, indexable by the `idx` column.
    pub tuples: &'a [TpTuple],
}

impl<'a> Encoded<'a> {
    /// Column position of `ts`.
    pub fn ts_col(&self) -> usize {
        self.arity
    }
    /// Column position of `idx`.
    pub fn idx_col(&self) -> usize {
        self.arity + 2
    }
    /// Total number of columns.
    pub fn width(&self) -> usize {
        self.arity + 3
    }
}

/// Encodes a TP relation. All facts must share one arity (the baselines,
/// like the paper's SQL implementations, work on fixed relational schemas);
/// an empty relation encodes with arity 1.
pub fn encode(rel: &TpRelation) -> Encoded<'_> {
    let arity = rel.tuples().first().map(|t| t.fact.arity()).unwrap_or(1);
    assert!(
        rel.iter().all(|t| t.fact.arity() == arity),
        "baselines require a uniform fact arity"
    );
    let mut cols: Vec<String> = (0..arity).map(|i| format!("f{i}")).collect();
    cols.extend(["ts".to_string(), "te".to_string(), "idx".to_string()]);
    let rows = rel
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut row: Vec<Value> = t.fact.values().to_vec();
            row.push(Value::int(t.interval.start()));
            row.push(Value::int(t.interval.end()));
            row.push(Value::int(i as i64));
            row
        })
        .collect();
    Encoded {
        rel: Relation::new(Schema::new(cols), rows),
        arity,
        tuples: rel.tuples(),
    }
}

/// Join predicate asserting fact equality between the left table (columns
/// `0..arity`) and the right table (columns `lw..lw+arity`, `lw` = left
/// width).
pub fn fact_eq_pred(arity: usize, left_width: usize) -> Predicate {
    let mut pred = Predicate::True;
    for i in 0..arity {
        let cmp = Predicate::Cmp(CmpOp::Eq, Expr::Col(i), Expr::Col(left_width + i));
        pred = match pred {
            Predicate::True => cmp,
            other => other.and(cmp),
        };
    }
    pred
}

/// Join predicate asserting interval overlap: `l.ts < r.te AND r.ts < l.te`.
pub fn overlap_pred(arity: usize, left_width: usize) -> Predicate {
    Predicate::overlap(arity, arity + 1, left_width + arity, left_width + arity + 1)
}

/// Builds the `∩Tp` output tuple for an overlapping pair: fact, lineage
/// `and(λr, λs)` (Table I), interval = the pair's overlap.
pub fn intersection_output(r: &TpTuple, s: &TpTuple) -> Option<TpTuple> {
    let interval = r.interval.intersect(&s.interval)?;
    debug_assert_eq!(r.fact, s.fact);
    Some(TpTuple::new(
        r.fact.clone(),
        Lineage::and(&r.lineage, &s.lineage),
        interval,
    ))
}

/// Fragments a tuple's interval at the given (sorted, deduplicated) split
/// points, yielding sub-tuples with unchanged fact and lineage. Points
/// outside the interval are ignored.
pub fn fragment(tuple: &TpTuple, split_points: &[i64]) -> Vec<TpTuple> {
    debug_assert!(split_points.is_sorted(), "split points must be sorted");
    let (s, e) = (tuple.interval.start(), tuple.interval.end());
    // Binary-search the relevant range so fragmenting a tuple costs
    // O(log n + #splits inside), not a scan of every boundary.
    let from = split_points.partition_point(|&p| p <= s);
    let to = split_points.partition_point(|&p| p < e);
    let inner = &split_points[from..to];
    let mut bounds = Vec::with_capacity(inner.len() + 2);
    bounds.push(s);
    bounds.extend_from_slice(inner);
    bounds.push(e);
    bounds
        .windows(2)
        .map(|w| TpTuple::new(tuple.fact.clone(), tuple.lineage, Interval::at(w[0], w[1])))
        .collect()
}

/// Canonical grouping key for aligned fragments.
pub type FragKey = (Fact, i64, i64);

/// Key of a fragment: `(fact, ts, te)`.
pub fn frag_key(t: &TpTuple) -> FragKey {
    (t.fact.clone(), t.interval.start(), t.interval.end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::lineage::TupleId;

    fn tup(f: &str, s: i64, e: i64, id: u64) -> TpTuple {
        TpTuple::new(f, Lineage::var(TupleId(id)), Interval::at(s, e))
    }

    #[test]
    fn encode_roundtrip() {
        let rel: TpRelation = vec![tup("milk", 1, 4, 0), tup("chips", 2, 5, 1)]
            .into_iter()
            .collect();
        let enc = encode(&rel);
        assert_eq!(enc.arity, 1);
        assert_eq!(enc.rel.len(), 2);
        assert_eq!(enc.rel.schema.columns(), &["f0", "ts", "te", "idx"]);
        assert_eq!(enc.rel.rows[0][enc.ts_col()], Value::int(1));
        assert_eq!(enc.rel.rows[1][enc.idx_col()], Value::int(1));
        assert_eq!(enc.width(), 4);
    }

    #[test]
    fn encode_empty() {
        let rel = TpRelation::new();
        let enc = encode(&rel);
        assert!(enc.rel.is_empty());
        assert_eq!(enc.arity, 1);
    }

    #[test]
    fn fact_eq_and_overlap_preds() {
        let rel: TpRelation = vec![tup("a", 1, 4, 0)].into_iter().collect();
        let other: TpRelation = vec![tup("a", 3, 6, 0), tup("b", 3, 6, 1)]
            .into_iter()
            .collect();
        let l = encode(&rel);
        let r = encode(&other);
        let pred = fact_eq_pred(1, l.width()).and(overlap_pred(1, l.width()));
        let pairs = tp_relalg::nested_loop_join_pairs(&l.rel, &r.rel, &pred);
        assert_eq!(pairs, vec![(0, 0)]); // 'b' filtered by fact equality
    }

    #[test]
    fn intersection_output_builds_and_lineage() {
        let r = tup("x", 1, 6, 0);
        let s = tup("x", 4, 9, 1);
        let out = intersection_output(&r, &s).unwrap();
        assert_eq!(out.interval, Interval::at(4, 6));
        assert_eq!(out.lineage.to_string(), "t0∧t1");
        assert!(intersection_output(&tup("x", 1, 2, 0), &tup("x", 5, 6, 1)).is_none());
    }

    #[test]
    fn fragment_splits_within_bounds() {
        let t = tup("x", 2, 10, 0);
        let frags = fragment(&t, &[0, 2, 4, 7, 10, 12]);
        let ivs: Vec<_> = frags.iter().map(|f| f.interval).collect();
        assert_eq!(
            ivs,
            vec![Interval::at(2, 4), Interval::at(4, 7), Interval::at(7, 10)]
        );
        assert!(frags.iter().all(|f| f.lineage == t.lineage));
    }

    #[test]
    fn fragment_with_no_points_is_identity() {
        let t = tup("x", 2, 10, 0);
        assert_eq!(fragment(&t, &[]), vec![t]);
    }
}
