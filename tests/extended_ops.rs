//! Property-based validation of the extended operators (join, projection)
//! against independent oracles, plus BDD/Shannon agreement on real query
//! lineage.

mod common;

use common::{arb_raw_relation, build_relation};
use proptest::prelude::*;
use tpdb::core::bdd;
use tpdb::core::ops::{join, project};
use tpdb::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn join_matches_pairwise_oracle(
        raw_r in arb_raw_relation(15),
        raw_s in arb_raw_relation(15),
    ) {
        let mut vars = VarTable::new();
        let r = build_relation("r", &raw_r, &mut vars);
        let s = build_relation("s", &raw_s, &mut vars);
        let out = join(&r, &s, &[0], &[0]);
        // Oracle: enumerate pairs.
        let mut expected = 0usize;
        for a in r.iter() {
            for b in s.iter() {
                if a.fact == b.fact && a.interval.overlaps(&b.interval) {
                    expected += 1;
                }
            }
        }
        prop_assert_eq!(out.len(), expected);
        prop_assert!(out.check_duplicate_free().is_ok());
        // Join of duplicate-free bases yields 1OF conjunctions.
        prop_assert!(out.iter().all(|t| t.lineage.is_one_occurrence_form()));
    }

    #[test]
    fn join_on_all_attrs_equals_intersection(
        raw_r in arb_raw_relation(15),
        raw_s in arb_raw_relation(15),
    ) {
        let mut vars = VarTable::new();
        let r = build_relation("r", &raw_r, &mut vars);
        let s = build_relation("s", &raw_s, &mut vars);
        let via_join = join(&r, &s, &[0], &[0]).canonicalized();
        let via_intersect = intersect(&r, &s).canonicalized();
        prop_assert_eq!(via_join.len(), via_intersect.len());
        for (a, b) in via_join.iter().zip(via_intersect.iter()) {
            prop_assert_eq!(&a.fact, &b.fact);
            prop_assert_eq!(a.interval, b.interval);
            prop_assert_eq!(&a.lineage, &b.lineage);
        }
    }

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
        let all_cov: IntervalSet = r.iter().map(|t| t.interval).collect();
        let out_cov: IntervalSet = collapsed.iter().map(|t| t.interval).collect();
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
