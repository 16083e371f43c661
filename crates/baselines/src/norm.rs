//! NORM — the normalization-based baseline (Dignös et al., paper refs
//! \[2\], \[3\]).
//!
//! The `Normalize` operator `N(r, s)` replicates the tuples of `r`, splitting
//! their intervals at the boundaries of same-fact, overlapping tuples of `s`.
//! In the authors' PostgreSQL-kernel implementation this is realized as an
//! **outer join with inequality conditions** on the interval endpoints, which
//! has quadratic complexity (reference \[31\]); since normalization is not
//! symmetric it runs once per input relation. After both relations are
//! aligned — their fragments are pairwise equal or disjoint — the set
//! operation itself is cheap, but attaching lineage requires an additional
//! grouping/join pass over the fragments.
//!
//! This module reproduces exactly that pipeline on the `tp-relalg`
//! substrate:
//!
//! 1. `N(r, s)` and `N(s, r)` via [`tp_relalg::left_outer_join_pairs`] with
//!    the fact-equality + interval-overlap predicate (the quadratic part),
//! 2. alignment of fragments by `(F, Ts, Te)` grouping,
//! 3. per-group application of the Table I lineage function,
//! 4. a defensive coalescing pass (the reduction rules of \[2\] adapted to the
//!    TP model).

use std::collections::HashMap;

use tp_core::ops::SetOp;
use tp_core::relation::TpRelation;
use tp_core::tuple::TpTuple;

use crate::common::{encode, fact_eq_pred, frag_key, fragment, overlap_pred, FragKey};

/// `N(r, s)`: splits each tuple of `r` at the interval boundaries of
/// overlapping same-fact tuples of `s`.
///
/// Runs the quadratic outer join the paper attributes to NORM. Every tuple
/// of `r` survives (outer semantics); unmatched tuples pass through intact.
pub fn normalize(r: &TpRelation, s: &TpRelation) -> TpRelation {
    let enc_r = encode(r);
    let enc_s = encode(s);
    let arity = enc_r.arity;
    let pred = fact_eq_pred(arity, enc_r.width()).and(overlap_pred(arity, enc_r.width()));
    let pairs = tp_relalg::left_outer_join_pairs(&enc_r.rel, &enc_s.rel, &pred);

    // Gather split points per left tuple, in join output order.
    let mut split_points: Vec<Vec<i64>> = vec![Vec::new(); r.len()];
    for (i, j) in pairs {
        if let Some(j) = j {
            let s_tuple = &enc_s.tuples[j];
            split_points[i].push(s_tuple.interval.start());
            split_points[i].push(s_tuple.interval.end());
        }
    }

    let mut out = Vec::with_capacity(r.len());
    for (i, tuple) in r.iter().enumerate() {
        let points = &mut split_points[i];
        points.sort_unstable();
        points.dedup();
        out.extend(fragment(tuple, points));
    }
    // Fragments of a duplicate-free relation stay duplicate-free.
    TpRelation::from_tuples_unchecked(out)
}

/// Computes `r op s` with the NORM pipeline. Supports all three operations
/// (Table II row "NORM").
pub fn set_op(op: SetOp, r: &TpRelation, s: &TpRelation) -> TpRelation {
    let nr = normalize(r, s);
    let ns = normalize(s, r);

    // Align fragments by (F, Ts, Te). Duplicate-freeness guarantees at most
    // one fragment per relation per key.
    let mut groups: HashMap<FragKey, (Option<&TpTuple>, Option<&TpTuple>)> = HashMap::new();
    for t in nr.iter() {
        groups.entry(frag_key(t)).or_default().0 = Some(t);
    }
    for t in ns.iter() {
        groups.entry(frag_key(t)).or_default().1 = Some(t);
    }

    let mut out: Vec<TpTuple> = Vec::new();
    for ((fact, ts, te), (fr, fs)) in groups {
        let (lr, ls) = (fr.map(|t| &t.lineage), fs.map(|t| &t.lineage));
        if let Some(lineage) = op.lineage(lr, ls, &mut None) {
            out.push(TpTuple::new(
                fact,
                lineage,
                tp_core::interval::Interval::at(ts, te),
            ));
        }
    }

    // Reduction: merge adjacent fragments with equivalent lineage back into
    // maximal intervals (change preservation).
    let rel: TpRelation = out.into_iter().collect();
    rel.coalesce()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::fact::Fact;
    use tp_core::interval::Interval;
    use tp_core::relation::VarTable;
    use tp_core::snapshot::set_op_by_snapshots;

    fn supermarket_ac() -> (TpRelation, TpRelation) {
        let mut vars = VarTable::new();
        let a = TpRelation::base(
            "a",
            vec![
                (Fact::single("milk"), Interval::at(2, 10), 0.3),
                (Fact::single("chips"), Interval::at(4, 7), 0.8),
                (Fact::single("dates"), Interval::at(1, 3), 0.6),
            ],
            &mut vars,
        )
        .unwrap();
        let c = TpRelation::base(
            "c",
            vec![
                (Fact::single("milk"), Interval::at(1, 4), 0.6),
                (Fact::single("milk"), Interval::at(6, 8), 0.7),
                (Fact::single("chips"), Interval::at(4, 5), 0.7),
                (Fact::single("chips"), Interval::at(7, 9), 0.8),
            ],
            &mut vars,
        )
        .unwrap();
        (a, c)
    }

    #[test]
    fn normalize_splits_at_overlapping_boundaries() {
        let (a, c) = supermarket_ac();
        let n = normalize(&a, &c);
        // milk [2,10) splits at 4 (c1.te), 6 (c2.ts), 8 (c2.te)
        // → [2,4), [4,6), [6,8), [8,10); chips [4,7) splits at 5 → 2 frags;
        // dates [1,3) unsplit.
        assert_eq!(n.len(), 4 + 2 + 1);
        assert!(n.check_duplicate_free().is_ok());
    }

    #[test]
    fn normalize_is_identity_without_overlap() {
        let (a, _) = supermarket_ac();
        let n = normalize(&a, &TpRelation::new());
        assert_eq!(n.canonicalized(), a.canonicalized());
    }

    #[test]
    fn norm_matches_oracle_on_fig3() {
        let (a, c) = supermarket_ac();
        for op in SetOp::ALL {
            let got = set_op(op, &a, &c).canonicalized();
            let want = set_op_by_snapshots(op, &a, &c).canonicalized();
            assert_eq!(got, want, "op {op}");
        }
    }

    #[test]
    fn norm_handles_empty_inputs() {
        let (a, _) = supermarket_ac();
        let empty = TpRelation::new();
        assert_eq!(
            set_op(SetOp::Union, &a, &empty).canonicalized(),
            a.canonicalized()
        );
        assert!(set_op(SetOp::Intersect, &a, &empty).is_empty());
        assert_eq!(
            set_op(SetOp::Except, &a, &empty).canonicalized(),
            a.canonicalized()
        );
        assert!(set_op(SetOp::Except, &empty, &a).is_empty());
    }

    #[test]
    fn norm_output_is_change_preserving() {
        let (a, c) = supermarket_ac();
        for op in SetOp::ALL {
            let out = set_op(op, &a, &c);
            assert!(out.satisfies_change_preservation(), "op {op}");
            assert!(out.check_duplicate_free().is_ok());
        }
    }
}
