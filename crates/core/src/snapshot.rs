//! The timeslice operator and a literal, snapshot-by-snapshot evaluation of
//! TP set operations (Definitions 1–3).
//!
//! [`timeslice`] implements τᵖₜ from §IV. [`set_op_by_snapshots`] evaluates a
//! TP set operation *by definition*: it applies the corresponding
//! probabilistic operator to the probabilistic snapshot at every time point
//! and then coalesces maximal runs of time points with (syntactically)
//! equivalent lineage — i.e. snapshot reducibility (Def. 1) plus change
//! preservation (Def. 2), executed naively in `O(|ΩT| · n)`.
//!
//! This module is the **correctness oracle** of the repository: every
//! efficient implementation (LAWA and all four baselines) is tested against
//! it. It is never used in benchmarks.

use std::collections::{BTreeMap, BTreeSet};

use crate::fact::Fact;
use crate::interval::{Interval, TimePoint};
use crate::lineage::Lineage;
use crate::ops::SetOp;
use crate::relation::TpRelation;
use crate::tuple::TpTuple;

/// The probabilistic snapshot τᵖₜ(r): every tuple valid at `t`, with its
/// interval reduced to `[t, t+1)` (§IV).
pub fn timeslice(rel: &TpRelation, t: TimePoint) -> TpRelation {
    rel.iter()
        .filter(|tup| tup.interval.contains(t))
        .map(|tup| TpTuple::new(tup.fact.clone(), tup.lineage, Interval::at(t, t + 1)))
        .collect()
}

/// Evaluates `r op s` literally by Definition 3: per time point, per fact,
/// apply the lineage-concatenation function; then produce maximal intervals
/// of equal lineage (Definition 2).
///
/// Complexity `O(|facts| · |ΩT| · n)` — strictly an oracle for tests.
pub fn set_op_by_snapshots(op: SetOp, r: &TpRelation, s: &TpRelation) -> TpRelation {
    let mut facts: BTreeSet<Fact> = BTreeSet::new();
    facts.extend(r.iter().map(|t| t.fact.clone()));
    facts.extend(s.iter().map(|t| t.fact.clone()));

    let range = match (r.time_range(), s.time_range()) {
        (None, None) => return TpRelation::new(),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (Some(a), Some(b)) => a.hull(&b),
    };

    // Dense per-fact timelines. BTreeMap keeps facts ordered so output is in
    // canonical (F, Ts) order.
    let mut out: Vec<TpTuple> = Vec::new();
    for fact in &facts {
        let mut r_timeline: BTreeMap<TimePoint, Lineage> = BTreeMap::new();
        for tup in r.iter().filter(|t| &t.fact == fact) {
            for t in tup.interval.points() {
                r_timeline.insert(t, tup.lineage);
            }
        }
        let mut s_timeline: BTreeMap<TimePoint, Lineage> = BTreeMap::new();
        for tup in s.iter().filter(|t| &t.fact == fact) {
            for t in tup.interval.points() {
                s_timeline.insert(t, tup.lineage);
            }
        }

        // Sweep every time point, combining per Definition 3.
        let mut run: Option<(TimePoint, Lineage)> = None; // (run start, lineage)
        for t in range.start()..=range.end() {
            let combined: Option<Lineage> = if t < range.end() {
                let lr = r_timeline.get(&t);
                let ls = s_timeline.get(&t);
                match op {
                    SetOp::Union => Lineage::or_opt(lr, ls),
                    SetOp::Intersect => match (lr, ls) {
                        (Some(lr), Some(ls)) => Some(Lineage::and(lr, ls)),
                        _ => None,
                    },
                    SetOp::Except => lr.map(|lr| Lineage::and_not(lr, ls)),
                }
            } else {
                None // flush at the end of the domain
            };
            run = match (run.take(), combined) {
                (None, None) => None,
                (None, Some(l)) => Some((t, l)),
                (Some((start, l)), None) => {
                    out.push(TpTuple::new(fact.clone(), l, Interval::at(start, t)));
                    None
                }
                (Some((start, l)), Some(l2)) => {
                    if l == l2 {
                        Some((start, l))
                    } else {
                        out.push(TpTuple::new(fact.clone(), l, Interval::at(start, t)));
                        Some((t, l2))
                    }
                }
            };
        }
        debug_assert!(run.is_none(), "run must be flushed at domain end");
    }
    TpRelation::from_tuples_unchecked(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::TupleId;
    use crate::relation::VarTable;

    /// The supermarket relations of Fig. 1a. Returns (a, b, c, vars) with
    /// variable ids 0..=2 = a1..a3, 3..=4 = b1..b2, 5..=8 = c1..c4.
    pub fn supermarket() -> (TpRelation, TpRelation, TpRelation, VarTable) {
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
        let b = TpRelation::base(
            "b",
            vec![
                (Fact::single("milk"), Interval::at(5, 9), 0.6),
                (Fact::single("chips"), Interval::at(3, 6), 0.9),
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
        (a, b, c, vars)
    }

    #[test]
    fn timeslice_reduces_intervals() {
        let (a, _, _, _) = supermarket();
        let snap = timeslice(&a, 2);
        // At t=2: milk [2,10) and dates [1,3) are valid.
        assert_eq!(snap.len(), 2);
        for t in snap.iter() {
            assert_eq!(t.interval, Interval::at(2, 3));
        }
    }

    #[test]
    fn timeslice_empty_outside_domain() {
        let (a, _, _, _) = supermarket();
        assert!(timeslice(&a, 100).is_empty());
        assert!(timeslice(&a, 0).is_empty());
    }

    #[test]
    fn oracle_matches_paper_fig3_difference() {
        // a −Tp c from Fig. 3 (ids: a1=0, a2=1, a3=2, c1=5, c2=6, c3=7, c4=8).
        let (a, _, c, _) = supermarket();
        let got = set_op_by_snapshots(SetOp::Except, &a, &c);
        let v = |i: u64| Lineage::var(TupleId(i));
        let expected = vec![
            TpTuple::new(
                "chips",
                Lineage::and_not(&v(1), Some(&v(7))),
                Interval::at(4, 5),
            ),
            TpTuple::new("chips", v(1), Interval::at(5, 7)),
            TpTuple::new("dates", v(2), Interval::at(1, 3)),
            TpTuple::new(
                "milk",
                Lineage::and_not(&v(0), Some(&v(5))),
                Interval::at(2, 4),
            ),
            TpTuple::new("milk", v(0), Interval::at(4, 6)),
            TpTuple::new(
                "milk",
                Lineage::and_not(&v(0), Some(&v(6))),
                Interval::at(6, 8),
            ),
            TpTuple::new("milk", v(0), Interval::at(8, 10)),
        ];
        assert_eq!(got.tuples(), expected.as_slice());
    }

    #[test]
    fn oracle_matches_paper_fig3_intersection() {
        let (a, _, c, _) = supermarket();
        let got = set_op_by_snapshots(SetOp::Intersect, &a, &c);
        let v = |i: u64| Lineage::var(TupleId(i));
        let expected = vec![
            TpTuple::new("chips", Lineage::and(&v(1), &v(7)), Interval::at(4, 5)),
            TpTuple::new("milk", Lineage::and(&v(0), &v(5)), Interval::at(2, 4)),
            TpTuple::new("milk", Lineage::and(&v(0), &v(6)), Interval::at(6, 8)),
        ];
        assert_eq!(got.tuples(), expected.as_slice());
    }

    #[test]
    fn oracle_matches_paper_fig3_union() {
        let (a, _, c, _) = supermarket();
        let got = set_op_by_snapshots(SetOp::Union, &a, &c);
        let v = |i: u64| Lineage::var(TupleId(i));
        let expected = vec![
            TpTuple::new("chips", Lineage::or(&v(1), &v(7)), Interval::at(4, 5)),
            TpTuple::new("chips", v(1), Interval::at(5, 7)),
            TpTuple::new("chips", v(8), Interval::at(7, 9)),
            TpTuple::new("dates", v(2), Interval::at(1, 3)),
            TpTuple::new("milk", v(5), Interval::at(1, 2)),
            TpTuple::new("milk", Lineage::or(&v(0), &v(5)), Interval::at(2, 4)),
            TpTuple::new("milk", v(0), Interval::at(4, 6)),
            TpTuple::new("milk", Lineage::or(&v(0), &v(6)), Interval::at(6, 8)),
            TpTuple::new("milk", v(0), Interval::at(8, 10)),
        ];
        assert_eq!(got.tuples(), expected.as_slice());
    }

    #[test]
    fn oracle_output_is_duplicate_free_and_change_preserving() {
        let (a, b, c, _) = supermarket();
        for op in [SetOp::Union, SetOp::Intersect, SetOp::Except] {
            for (x, y) in [(&a, &b), (&b, &c), (&a, &c)] {
                let out = set_op_by_snapshots(op, x, y);
                assert!(out.check_duplicate_free().is_ok());
                assert!(out.satisfies_change_preservation());
            }
        }
    }

    #[test]
    fn oracle_with_empty_inputs() {
        let (a, _, _, _) = supermarket();
        let empty = TpRelation::new();
        assert_eq!(
            set_op_by_snapshots(SetOp::Union, &a, &empty).canonicalized(),
            a.canonicalized()
        );
        assert!(set_op_by_snapshots(SetOp::Intersect, &a, &empty).is_empty());
        assert_eq!(
            set_op_by_snapshots(SetOp::Except, &a, &empty).canonicalized(),
            a.canonicalized()
        );
        assert!(set_op_by_snapshots(SetOp::Except, &empty, &a).is_empty());
        assert!(set_op_by_snapshots(SetOp::Union, &empty, &empty).is_empty());
    }
}
