//! Property-based validation of projection against an independent
//! oracle, plus BDD/Shannon agreement on real query lineage.

mod common;

use common::{arb_raw_relation, build_relation};
use proptest::prelude::*;
use tpdb::core::bdd;
use tpdb::core::ops::project;
use tpdb::prelude::*;

/// The time points covered by `intervals`, as sorted, disjoint and
/// non-adjacent `[start, end)` pairs: a sorted merge.
fn coverage(intervals: impl IntoIterator<Item = Interval>) -> Vec<(TimePoint, TimePoint)> {
    let mut items: Vec<_> = intervals
        .into_iter()
        .map(|i| (i.start(), i.end()))
        .collect();
    items.sort_unstable();
    let mut out: Vec<(TimePoint, TimePoint)> = Vec::with_capacity(items.len());
    for (start, end) in items {
        match out.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => out.push((start, end)),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn projection_identity_and_coverage(
        raw in arb_raw_relation(20),
    ) {
        let mut vars = VarTable::new();
        let r = build_relation("r", &raw, &mut vars);
        // Identity projection of a single-attribute relation.
        let out = project(&r, &[0]);
        prop_assert_eq!(out.canonicalized(), r.canonicalized());
        // Projection to arity 0: coverage equals the union of all facts'
        // coverage.
        let collapsed = project(&r, &[]);
        prop_assert!(collapsed.check_duplicate_free().is_ok());
        let all_cov = coverage(r.iter().map(|t| t.interval));
        let out_cov = coverage(collapsed.iter().map(|t| t.interval));
        prop_assert_eq!(out_cov, all_cov);
    }

    #[test]
    fn bdd_agrees_with_shannon_on_query_lineage(
        raw_r in arb_raw_relation(10),
        raw_s in arb_raw_relation(10),
    ) {
        let mut vars = VarTable::new();
        let r = build_relation("r", &raw_r, &mut vars);
        let s = build_relation("s", &raw_s, &mut vars);
        // Repeating composition: (r ∪ s) − (r ∩ s).
        let out = except(&union(&r, &s), &intersect(&r, &s));
        for t in out.iter() {
            let a = bdd::probability(&t.lineage, &vars).unwrap();
            let b = prob::exact(&t.lineage, &vars).unwrap();
            prop_assert!((a - b).abs() < 1e-9, "{}: {} vs {}", t.lineage, a, b);
        }
    }
}
