//! Plan optimization: rule-based pushdown, applied bottom-up until
//! fixpoint by [`optimize`]:
//!
//! 1. `Select(Select(x, p1), p2)` → `Select(x, p1 ∧ p2)` — filter fusion;
//! 2. `Select(NlJoin(l, r, pj), ps)` → `NlJoin(l, r, pj ∧ ps)` — a filter
//!    over a join output evaluates on the same concatenated row layout, so
//!    it merges into the join predicate and is checked *during* pair
//!    enumeration instead of on a materialized intermediate;
//! 3. `Select(UnionAll(l, r), p)` → `UnionAll(Select(l, p), Select(r, p))` —
//!    both branches share the schema.
//!
//! The rules preserve semantics exactly (asserted by randomized tests).
//! Join order is never changed. The one physical choice a standing
//! pipeline needs, a keyed nested-loop join running as a hash join, is made
//! when the plan is lowered ([`crate::incremental::lower`]).

use crate::plan::Plan;

/// Optimizes a plan by exhaustively applying the pushdown rules.
pub fn optimize(plan: Plan) -> Plan {
    // Bottom-up: optimize children first, then rewrite this node until no
    // rule fires.
    let node = match plan {
        Plan::Values(rel) => Plan::Values(rel),
        Plan::Select { input, pred } => Plan::Select {
            input: Box::new(optimize(*input)),
            pred,
        },
        Plan::Project { input, cols } => Plan::Project {
            input: Box::new(optimize(*input)),
            cols,
        },
        Plan::NlJoin { left, right, pred } => Plan::NlJoin {
            left: Box::new(optimize(*left)),
            right: Box::new(optimize(*right)),
            pred,
        },
        Plan::HashJoin {
            left,
            right,
            l_cols,
            r_cols,
        } => Plan::HashJoin {
            left: Box::new(optimize(*left)),
            right: Box::new(optimize(*right)),
            l_cols,
            r_cols,
        },
        Plan::UnionAll { left, right } => Plan::UnionAll {
            left: Box::new(optimize(*left)),
            right: Box::new(optimize(*right)),
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(optimize(*input)),
        },
        Plan::Aggregate { input, keys, aggs } => Plan::Aggregate {
            input: Box::new(optimize(*input)),
            keys,
            aggs,
        },
        Plan::Sort { input, cols } => Plan::Sort {
            input: Box::new(optimize(*input)),
            cols,
        },
    };
    rewrite(node)
}

fn rewrite(plan: Plan) -> Plan {
    match plan {
        Plan::Select { input, pred } => match *input {
            // Rule 1: filter fusion.
            Plan::Select {
                input: inner,
                pred: p1,
            } => rewrite(Plan::Select {
                input: inner,
                pred: p1.and(pred),
            }),
            // Rule 2: merge into the join predicate.
            Plan::NlJoin {
                left,
                right,
                pred: pj,
            } => Plan::NlJoin {
                left,
                right,
                pred: pj.and(pred),
            },
            // Rule 3: push through union.
            Plan::UnionAll { left, right } => Plan::UnionAll {
                left: Box::new(rewrite(Plan::Select {
                    input: left,
                    pred: pred.clone(),
                })),
                right: Box::new(rewrite(Plan::Select { input: right, pred })),
            },
            other => Plan::Select {
                input: Box::new(other),
                pred,
            },
        },
        other => other,
    }
}

/// Counts the nodes of a plan (used to show the optimizer shrinks trees).
pub fn plan_size(plan: &Plan) -> usize {
    match plan {
        Plan::Values(_) => 1,
        Plan::Select { input, .. }
        | Plan::Project { input, .. }
        | Plan::Distinct { input }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. } => 1 + plan_size(input),
        Plan::NlJoin { left, right, .. }
        | Plan::HashJoin { left, right, .. }
        | Plan::UnionAll { left, right } => 1 + plan_size(left) + plan_size(right),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};
    use crate::relation::{Relation, Schema};
    use tp_core::value::Value;

    fn rel(cols: &[&str], rows: Vec<Vec<i64>>) -> Relation {
        Relation::new(
            Schema::new(cols.iter().copied()),
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::int).collect())
                .collect(),
        )
    }

    fn canon(r: Relation) -> Vec<Vec<Value>> {
        let mut rows = r.rows;
        rows.sort();
        rows
    }

    #[test]
    fn select_over_join_merges_into_predicate() {
        let l = rel(&["a"], vec![vec![1], vec![2], vec![3]]);
        let r = rel(&["b"], vec![vec![2], vec![3], vec![4]]);
        let plan = Plan::values(l)
            .nl_join(Plan::values(r), Predicate::True)
            .select(Predicate::col_eq(0, 1));
        let optimized = optimize(plan.clone());
        // The Select node is gone...
        assert!(plan_size(&optimized) < plan_size(&plan));
        assert!(matches!(optimized, Plan::NlJoin { .. }));
        // ...and the result is unchanged.
        assert_eq!(canon(optimized.execute()), canon(plan.execute()));
    }

    #[test]
    fn stacked_selects_fuse() {
        let x = rel(&["v"], vec![vec![1], vec![5], vec![9]]);
        let plan = Plan::values(x)
            .select(Predicate::col_const(CmpOp::Gt, 0, Value::int(2)))
            .select(Predicate::col_const(CmpOp::Lt, 0, Value::int(7)));
        let optimized = optimize(plan.clone());
        assert_eq!(plan_size(&optimized), 2); // Values + one Select
        assert_eq!(canon(optimized.execute()), canon(plan.execute()));
        assert_eq!(optimized.execute().len(), 1); // just {5}
    }

    #[test]
    fn select_pushes_through_union() {
        let a = rel(&["v"], vec![vec![1], vec![4]]);
        let b = rel(&["v"], vec![vec![6], vec![2]]);
        let plan = Plan::values(a)
            .union_all(Plan::values(b))
            .select(Predicate::col_const(CmpOp::Ge, 0, Value::int(4)));
        let optimized = optimize(plan.clone());
        assert!(matches!(optimized, Plan::UnionAll { .. }));
        assert_eq!(canon(optimized.execute()), canon(plan.execute()));
    }

    #[test]
    fn optimizer_is_semantics_preserving_on_random_plans() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..30 {
            let n = rng.random_range(1..20usize);
            let mk = |rng: &mut StdRng, n: usize| {
                rel(
                    &["x", "y"],
                    (0..n)
                        .map(|_| vec![rng.random_range(0..5i64), rng.random_range(0..5i64)])
                        .collect(),
                )
            };
            let a = mk(&mut rng, n);
            let b = mk(&mut rng, n);
            let plan = Plan::values(a)
                .nl_join(Plan::values(b), Predicate::col_cmp(CmpOp::Le, 0, 2))
                .select(Predicate::col_eq(1, 3))
                .select(Predicate::col_const(CmpOp::Lt, 0, Value::int(4)));
            let optimized = optimize(plan.clone());
            assert_eq!(canon(optimized.execute()), canon(plan.execute()));
        }
    }

    #[test]
    fn non_matching_nodes_are_left_alone() {
        let x = rel(&["v"], vec![vec![1]]);
        let plan = Plan::values(x).distinct().sort(vec![0]);
        let optimized = optimize(plan.clone());
        assert_eq!(plan_size(&optimized), plan_size(&plan));
        assert_eq!(optimized.execute(), plan.execute());
    }
}
