//! TP set operations `∪Tp`, `∩Tp`, `−Tp` implemented with LAWA
//! (Algorithms 2–4 of the paper), plus TP selection.
//!
//! Every operation follows the four-step pipeline of Fig. 5:
//!
//! ```text
//! r, s, op → sort → LAWA → λ-filter → λ-function → output
//! ```
//!
//! The λ-filter decides per window whether it yields an output tuple; the
//! λ-function (Table I) builds the output lineage from `λr`/`λs`. Both run in
//! O(1) per window, so the whole operation is `O(|r| log |r| + |s| log |s|)`
//! (the sort dominates; the sweep itself is linear — Proposition 1).

mod aggregate;
mod join;
mod project;
mod select;

pub use aggregate::{expected_count, expected_count_at, CountStep};
pub use join::{join, join_on_first};
pub use project::project;
pub use select::{select, select_attr_eq};

use std::borrow::Cow;

use crate::lineage::Lineage;
use crate::relation::TpRelation;
use crate::tuple::TpTuple;
use crate::window::Lawa;

/// The three TP set operations of Definition 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOp {
    /// `r ∪Tp s`.
    Union,
    /// `r ∩Tp s`.
    Intersect,
    /// `r −Tp s`.
    Except,
}

impl SetOp {
    /// All three operations, handy for tests and benches.
    pub const ALL: [SetOp; 3] = [SetOp::Union, SetOp::Intersect, SetOp::Except];

    /// The operation's conventional symbol.
    pub fn symbol(&self) -> &'static str {
        match self {
            SetOp::Union => "∪Tp",
            SetOp::Intersect => "∩Tp",
            SetOp::Except => "−Tp",
        }
    }

    /// A short ASCII name (`union`/`intersect`/`except`).
    pub fn name(&self) -> &'static str {
        match self {
            SetOp::Union => "union",
            SetOp::Intersect => "intersect",
            SetOp::Except => "except",
        }
    }
}

impl std::fmt::Display for SetOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Returns the tuples of `rel` sorted by `(F, Ts)`, borrowing when the
/// relation is already sorted (the common case for operator outputs).
fn sorted_tuples(rel: &TpRelation) -> Cow<'_, [TpTuple]> {
    if rel.is_sorted_by_fact_start() {
        Cow::Borrowed(rel.tuples())
    } else {
        Cow::Owned(rel.sorted().into_tuples())
    }
}

/// `r ∪Tp s` (Algorithm 3).
///
/// A window yields an output tuple iff at least one of `λr`, `λs` is
/// non-null; the output lineage is `or(λr, λs)` (Table I). LAWA windows are
/// guaranteed to carry at least one lineage, so every window qualifies; the
/// filter is kept for symmetry with the paper.
pub fn union(r: &TpRelation, s: &TpRelation) -> TpRelation {
    let r_sorted = sorted_tuples(r);
    let s_sorted = sorted_tuples(s);
    let lawa = Lawa::new(&r_sorted, &s_sorted);
    let mut out = Vec::new();
    for w in lawa {
        if let Some(lineage) = Lineage::or_opt(w.lambda_r.as_ref(), w.lambda_s.as_ref()) {
            out.push(TpTuple::new(w.fact, lineage, w.interval));
        }
    }
    TpRelation::from_tuples_unchecked(out)
}

/// `r ∩Tp s` (Algorithm 2).
///
/// A window yields an output tuple iff both `λr` and `λs` are non-null; the
/// output lineage is `and(λr, λs)`. The sweep stops as soon as either side
/// can no longer contribute (stream drained *and* no tuple valid — this
/// corrects the early-exit condition of the published pseudocode, see
/// DESIGN.md deviation 4).
pub fn intersect(r: &TpRelation, s: &TpRelation) -> TpRelation {
    let r_sorted = sorted_tuples(r);
    let s_sorted = sorted_tuples(s);
    let mut lawa = Lawa::new(&r_sorted, &s_sorted);
    let mut out = Vec::new();
    while !(lawa.left_exhausted() || lawa.right_exhausted()) {
        let Some(w) = lawa.next() else { break };
        if let (Some(lr), Some(ls)) = (&w.lambda_r, &w.lambda_s) {
            out.push(TpTuple::new(
                w.fact.clone(),
                Lineage::and(lr, ls),
                w.interval,
            ));
        }
    }
    TpRelation::from_tuples_unchecked(out)
}

/// `r −Tp s` (Algorithm 4).
///
/// A window yields an output tuple iff `λr` is non-null; the output lineage
/// is `andNot(λr, λs)`. The sweep stops once the left side is exhausted
/// (stream drained and no valid tuple).
pub fn except(r: &TpRelation, s: &TpRelation) -> TpRelation {
    let r_sorted = sorted_tuples(r);
    let s_sorted = sorted_tuples(s);
    let mut lawa = Lawa::new(&r_sorted, &s_sorted);
    let mut out = Vec::new();
    while !lawa.left_exhausted() {
        let Some(w) = lawa.next() else { break };
        if let Some(lr) = &w.lambda_r {
            out.push(TpTuple::new(
                w.fact.clone(),
                Lineage::and_not(lr, w.lambda_s.as_ref()),
                w.interval,
            ));
        }
    }
    TpRelation::from_tuples_unchecked(out)
}

/// Dispatches to [`union`], [`intersect`] or [`except`].
pub fn apply(op: SetOp, r: &TpRelation, s: &TpRelation) -> TpRelation {
    match op {
        SetOp::Union => union(r, s),
        SetOp::Intersect => intersect(r, s),
        SetOp::Except => except(r, s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Fact;
    use crate::interval::Interval;
    use crate::lineage::TupleId;
    use crate::relation::VarTable;
    use crate::snapshot::set_op_by_snapshots;

    fn v(i: u64) -> Lineage {
        Lineage::var(TupleId(i))
    }

    fn supermarket() -> (TpRelation, TpRelation, TpRelation, VarTable) {
        let mut vars = VarTable::new();
        let mk = |f: &str| Fact::single(f);
        let a = TpRelation::base(
            "a",
            vec![
                (mk("milk"), Interval::at(2, 10), 0.3),
                (mk("chips"), Interval::at(4, 7), 0.8),
                (mk("dates"), Interval::at(1, 3), 0.6),
            ],
            &mut vars,
        )
        .unwrap();
        let b = TpRelation::base(
            "b",
            vec![
                (mk("milk"), Interval::at(5, 9), 0.6),
                (mk("chips"), Interval::at(3, 6), 0.9),
            ],
            &mut vars,
        )
        .unwrap();
        let c = TpRelation::base(
            "c",
            vec![
                (mk("milk"), Interval::at(1, 4), 0.6),
                (mk("milk"), Interval::at(6, 8), 0.7),
                (mk("chips"), Interval::at(4, 5), 0.7),
                (mk("chips"), Interval::at(7, 9), 0.8),
            ],
            &mut vars,
        )
        .unwrap();
        (a, b, c, vars)
    }

    #[test]
    fn fig3_all_three_ops_match_oracle() {
        let (a, _, c, _) = supermarket();
        for op in SetOp::ALL {
            let fast = apply(op, &a, &c).canonicalized();
            let oracle = set_op_by_snapshots(op, &a, &c).canonicalized();
            assert_eq!(fast, oracle, "op {op}");
        }
    }

    #[test]
    fn fig1c_full_query() {
        // Q = c −Tp (a ∪Tp b): the paper's Fig. 1c result.
        let (a, b, c, _) = supermarket();
        let q = except(&c, &union(&a, &b));
        // ids: a1=0, a2=1, a3=2, b1=3, b2=4, c1=5, c2=6, c3=7, c4=8
        let expected = vec![
            TpTuple::new(
                "chips",
                Lineage::and_not(&v(7), Some(&Lineage::or(&v(1), &v(4)))),
                Interval::at(4, 5),
            ),
            TpTuple::new("chips", v(8), Interval::at(7, 9)),
            TpTuple::new("milk", v(5), Interval::at(1, 2)),
            TpTuple::new(
                "milk",
                Lineage::and_not(&v(5), Some(&v(0))),
                Interval::at(2, 4),
            ),
            TpTuple::new(
                "milk",
                Lineage::and_not(&v(6), Some(&Lineage::or(&v(0), &v(3)))),
                Interval::at(6, 8),
            ),
        ];
        assert_eq!(q.canonicalized().tuples(), expected.as_slice());
    }

    #[test]
    fn fig1c_probabilities() {
        let (a, b, c, vars) = supermarket();
        let q = except(&c, &union(&a, &b)).canonicalized();
        let probs: Vec<f64> = q
            .iter()
            .map(|t| crate::prob::marginal(&t.lineage, &vars).unwrap())
            .collect();
        // Sorted order: chips [4,5), chips [7,9), milk [1,2), milk [2,4), milk [6,8).
        let expected = [0.014, 0.8, 0.6, 0.42, 0.196];
        for (got, want) in probs.iter().zip(expected) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn example4_selection_difference() {
        // σF='milk'(c) −Tp σF='milk'(a) from the paper's Example 4 / Fig. 6.
        let (a, _, c, _) = supermarket();
        let milk = Fact::single("milk");
        let cm = select(&c, |f| *f == milk);
        let am = select(&a, |f| *f == milk);
        let out = except(&cm, &am);
        let expected = vec![
            TpTuple::new("milk", v(5), Interval::at(1, 2)),
            TpTuple::new(
                "milk",
                Lineage::and_not(&v(5), Some(&v(0))),
                Interval::at(2, 4),
            ),
            TpTuple::new(
                "milk",
                Lineage::and_not(&v(6), Some(&v(0))),
                Interval::at(6, 8),
            ),
        ];
        assert_eq!(out.canonicalized().tuples(), expected.as_slice());
    }

    #[test]
    fn ops_with_empty_relations() {
        let (a, _, _, _) = supermarket();
        let empty = TpRelation::new();
        assert_eq!(union(&a, &empty).canonicalized(), a.canonicalized());
        assert_eq!(union(&empty, &a).canonicalized(), a.canonicalized());
        assert!(intersect(&a, &empty).is_empty());
        assert!(intersect(&empty, &a).is_empty());
        assert_eq!(except(&a, &empty).canonicalized(), a.canonicalized());
        assert!(except(&empty, &a).is_empty());
    }

    #[test]
    fn self_operation_produces_repeating_lineage() {
        // r ∩Tp r is legal but yields non-1OF lineage (a1 ∧ a1).
        let (a, _, _, _) = supermarket();
        let out = intersect(&a, &a);
        assert_eq!(out.len(), a.len());
        assert!(out.iter().all(|t| !t.lineage.is_one_occurrence_form()));
    }

    #[test]
    fn outputs_are_duplicate_free_and_change_preserving() {
        let (a, b, c, _) = supermarket();
        for op in SetOp::ALL {
            for (x, y) in [(&a, &b), (&b, &a), (&a, &c), (&c, &a), (&b, &c)] {
                let out = apply(op, x, y);
                assert!(out.check_duplicate_free().is_ok());
                assert!(out.satisfies_change_preservation());
            }
        }
    }

    #[test]
    fn unsorted_inputs_are_sorted_internally() {
        let t1 = TpTuple::new("b", v(0), Interval::at(3, 6));
        let t2 = TpTuple::new("a", v(1), Interval::at(1, 4));
        let r: TpRelation = vec![t1, t2].into_iter().collect(); // unsorted
        assert!(!r.is_sorted_by_fact_start());
        let s = TpRelation::new();
        let out = union(&r, &s);
        assert_eq!(out.len(), 2);
        assert!(out.is_sorted_by_fact_start());
    }

    #[test]
    fn output_size_is_linear() {
        // Theorem 1's counting argument: per fact, n input intervals yield
        // at most 2n − 1 output intervals for union.
        let mut vars = VarTable::new();
        let rows_r: Vec<_> = (0..50)
            .map(|i| (Fact::single("f"), Interval::at(4 * i, 4 * i + 3), 0.5))
            .collect();
        let rows_s: Vec<_> = (0..50)
            .map(|i| (Fact::single("f"), Interval::at(4 * i + 1, 4 * i + 4), 0.5))
            .collect();
        let r = TpRelation::base("r", rows_r, &mut vars).unwrap();
        let s = TpRelation::base("s", rows_s, &mut vars).unwrap();
        let out = union(&r, &s);
        assert!(out.len() < 2 * (r.len() + s.len()));
    }

    #[test]
    fn intersect_early_exit_is_lossless() {
        // The early-exit must not drop trailing overlaps (deviation 4).
        let mut vars = VarTable::new();
        let r = TpRelation::base(
            "r",
            vec![(Fact::single("x"), Interval::at(1, 100), 0.5)],
            &mut vars,
        )
        .unwrap();
        let s = TpRelation::base(
            "s",
            vec![
                (Fact::single("x"), Interval::at(10, 20), 0.5),
                (Fact::single("x"), Interval::at(30, 40), 0.5),
            ],
            &mut vars,
        )
        .unwrap();
        let got = intersect(&r, &s).canonicalized();
        let oracle = set_op_by_snapshots(SetOp::Intersect, &r, &s).canonicalized();
        assert_eq!(got, oracle);
        assert_eq!(got.len(), 2);
    }
}
