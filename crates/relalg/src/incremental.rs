//! Lowering a batch [`Plan`] into a topologically ordered operator DAG —
//! the compile step of the streaming pipeline (`tp-stream::pipeline`).
//!
//! The batch executor materializes every intermediate; a standing query
//! cannot. [`lower`] flattens a plan tree into [`Lowered`]: a vector of
//! [`LoweredNode`]s in **topological order** (every node's inputs precede
//! it), with each [`Plan::Values`] leaf replaced by a [`LoweredOp::Source`]
//! placeholder numbered in left-to-right (preorder) encounter order. The
//! runtime feeds those sources from live delta streams; the leaf's inline
//! rows are ignored, only its schema is kept (it fixes the source arity).
//!
//! [`bind_sources`] is the inverse hook for differential testing: it
//! substitutes concrete relations back into the `Values` leaves (same
//! preorder numbering), so the *same* plan object can run batch over the
//! stream's closed region and be compared against the standing pipeline's
//! materialized output.
//!
//! `Sort` does not lower: a standing operator maintains an unordered
//! multiset, and ordering is a presentation concern — callers sort the
//! materialized snapshot instead. [`lower`] rejects it explicitly.
//!
//! Two rewrites happen during lowering, always. Neither touches
//! [`Plan::execute`]: the batch plan stays the row oracle the standing
//! view is compared against.
//!
//! ## Keyed nested-loop joins lower to hash joins
//!
//! A `NlJoin` whose predicate has at least one conjunct `Col(a) = Col(b)`
//! with `a` and `b` on opposite sides lowers to a [`LoweredOp::HashJoin`]
//! keyed by those equalities, followed by a [`LoweredOp::Select`] of the
//! remaining conjuncts when there are any. Both joins output `left ++
//! right`, so the residual keeps its addressing. A standing nested-loop
//! join probes the whole opposite side per delta, a hash join only the
//! delta's key; with two inputs there is nothing else to choose. A
//! predicate without such a conjunct (pure theta) stays a `NlJoin`.
//!
//! ## Fused join → aggregate
//!
//! An `Aggregate` directly over a `HashJoin` whose group keys are exactly
//! the join key (each key names one join-key column, left or right copy,
//! and together they cover the join key once) and whose aggregates are all
//! `Count`, `Min` or `Max` lowers to a single [`LoweredOp::JoinAggregate`].
//! Per join key its output factorizes over the two sides: `Count =
//! |L|·|R|`, `Min`/`Max` read one side, and the group lineage
//! `∨ᵢⱼ (lᵢ ∧ rⱼ)` equals `(∨ lᵢ) ∧ (∨ rⱼ)` by distributivity (eager
//! aggregation over a factorised join), so the runtime keeps the two
//! member lists and never the `L × R` pairs. `Sum` stays unfused: a float
//! `sum_L · |R|` is not bit-identical to the per-pair sum. A keyed
//! `NlJoin` lowered to a bare hash join fuses the same way.

use std::fmt;

use crate::aggregate::AggFn;
use crate::plan::Plan;
use crate::predicate::{CmpOp, Expr, Predicate};
use crate::relation::{Relation, Schema};

/// Why a plan does not lower to a standing pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The plan contains a `Sort` node — ordering is a presentation
    /// concern; sort the materialized snapshot instead.
    Sort,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Sort => write!(
                f,
                "Sort does not lower to a standing operator; \
                 sort the materialized snapshot instead"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// One standing operator kind, carrying exactly the parameters its batch
/// twin uses — the incremental semantics are defined relative to those.
#[derive(Debug, Clone, PartialEq)]
pub enum LoweredOp {
    /// The `i`-th `Values` leaf (preorder), fed from a live delta stream.
    Source(usize),
    /// σ with the batch predicate.
    Select(Predicate),
    /// π onto the given columns (bag semantics).
    Project(Vec<usize>),
    /// Nested-loop theta join; the predicate addresses the concatenated
    /// `left ++ right` row.
    NlJoin(Predicate),
    /// Hash equi-join on the key columns.
    HashJoin {
        /// Left key columns.
        l_cols: Vec<usize>,
        /// Right key columns.
        r_cols: Vec<usize>,
    },
    /// Bag union of two equal-arity inputs.
    UnionAll,
    /// Duplicate elimination (multiset support counting).
    Distinct,
    /// γ with dirty-key recompute through [`AggFn::finish`].
    Aggregate {
        /// Grouping key columns.
        keys: Vec<usize>,
        /// Aggregates, one output column each.
        aggs: Vec<AggFn>,
    },
    /// γ over a hash equi-join on its own key, fused (see the module
    /// docs): inputs are the join's `[left, right]`, output rows are the
    /// aggregate's.
    JoinAggregate {
        /// Left key columns of the join.
        l_cols: Vec<usize>,
        /// Right key columns of the join.
        r_cols: Vec<usize>,
        /// Arity of the left input: join-row columns below it are left
        /// columns, the rest are right columns shifted by it.
        l_arity: usize,
        /// Grouping key columns, addressed against the joined row.
        keys: Vec<usize>,
        /// Aggregates (`Count`, `Min`, `Max`), addressed against the
        /// joined row.
        aggs: Vec<AggFn>,
    },
}

impl LoweredOp {
    /// Stable short name of the operator kind — the metric label and span
    /// name of the runtime's per-operator instrumentation. The fused
    /// join → aggregate is `"aggregate"`: it emits the aggregate's rows.
    pub fn name(&self) -> &'static str {
        match self {
            LoweredOp::Source(_) => "source",
            LoweredOp::Select(_) => "select",
            LoweredOp::Project(_) => "project",
            LoweredOp::NlJoin(_) => "nl_join",
            LoweredOp::HashJoin { .. } => "hash_join",
            LoweredOp::UnionAll => "union_all",
            LoweredOp::Distinct => "distinct",
            LoweredOp::Aggregate { .. } | LoweredOp::JoinAggregate { .. } => "aggregate",
        }
    }
}

/// One node of the lowered DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredNode {
    /// The operator.
    pub op: LoweredOp,
    /// Indices of the upstream nodes, in port order (joins and union:
    /// `[left, right]`). Always smaller than this node's own index.
    pub inputs: Vec<usize>,
    /// The operator's output schema.
    pub schema: Schema,
}

/// A lowered plan: operators in topological order (the last node is the
/// root) plus the schemas the sources were declared with.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// The operators; every node's `inputs` point at earlier entries.
    pub nodes: Vec<LoweredNode>,
    /// Schema of each source, in preorder numbering.
    pub source_schemas: Vec<Schema>,
}

impl Lowered {
    /// Index of the root node (the plan's output operator).
    pub fn root(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of sources the runtime must feed.
    pub fn source_count(&self) -> usize {
        self.source_schemas.len()
    }

    /// The root's output schema.
    pub fn root_schema(&self) -> &Schema {
        &self.nodes[self.root()].schema
    }
}

/// Lowers a plan into the topo-ordered operator DAG. See the module docs
/// for the `Values`-leaf convention, the `Sort` restriction, the keyed
/// nested-loop join and the fused join → aggregate.
pub fn lower(plan: &Plan) -> Result<Lowered, LowerError> {
    let mut out = Lowered {
        nodes: Vec::new(),
        source_schemas: Vec::new(),
    };
    rec(plan, &mut out)?;
    Ok(out)
}

fn rec(plan: &Plan, out: &mut Lowered) -> Result<usize, LowerError> {
    let (op, inputs, schema) = match plan {
        Plan::Values(rel) => {
            let idx = out.source_schemas.len();
            out.source_schemas.push(rel.schema.clone());
            (LoweredOp::Source(idx), Vec::new(), rel.schema.clone())
        }
        Plan::Select { input, pred } => {
            let i = rec(input, out)?;
            let schema = out.nodes[i].schema.clone();
            (LoweredOp::Select(pred.clone()), vec![i], schema)
        }
        Plan::Project { input, cols } => {
            let i = rec(input, out)?;
            let schema = out.nodes[i].schema.project(cols);
            (LoweredOp::Project(cols.clone()), vec![i], schema)
        }
        Plan::NlJoin { left, right, pred } => {
            let l = rec(left, out)?;
            let r = rec(right, out)?;
            let schema = out.nodes[l].schema.concat(&out.nodes[r].schema);
            match hash_join_keys(pred, out.nodes[l].schema.arity()) {
                None => (LoweredOp::NlJoin(pred.clone()), vec![l, r], schema),
                Some((join, None)) => (join, vec![l, r], schema),
                Some((join, Some(residual))) => {
                    out.nodes.push(LoweredNode {
                        op: join,
                        inputs: vec![l, r],
                        schema: schema.clone(),
                    });
                    let join = out.nodes.len() - 1;
                    (LoweredOp::Select(residual), vec![join], schema)
                }
            }
        }
        Plan::HashJoin {
            left,
            right,
            l_cols,
            r_cols,
        } => {
            let l = rec(left, out)?;
            let r = rec(right, out)?;
            let schema = out.nodes[l].schema.concat(&out.nodes[r].schema);
            (
                LoweredOp::HashJoin {
                    l_cols: l_cols.clone(),
                    r_cols: r_cols.clone(),
                },
                vec![l, r],
                schema,
            )
        }
        Plan::UnionAll { left, right } => {
            let l = rec(left, out)?;
            let r = rec(right, out)?;
            let schema = out.nodes[l].schema.clone();
            (LoweredOp::UnionAll, vec![l, r], schema)
        }
        Plan::Distinct { input } => {
            let i = rec(input, out)?;
            let schema = out.nodes[i].schema.clone();
            (LoweredOp::Distinct, vec![i], schema)
        }
        Plan::Aggregate { input, keys, aggs } => {
            let i = rec(input, out)?;
            let in_schema = &out.nodes[i].schema;
            let mut columns: Vec<String> = keys
                .iter()
                .map(|&k| in_schema.columns()[k].clone())
                .collect();
            columns.extend(aggs.iter().map(AggFn::name));
            let schema = Schema::new(columns);
            match fuse_join_aggregate(out, i, keys, aggs) {
                // The join was the node just lowered and nothing else
                // reads it: the fused node replaces it.
                Some(fused) => {
                    let join = out.nodes.pop().expect("the join node was just lowered");
                    (fused, join.inputs, schema)
                }
                None => (
                    LoweredOp::Aggregate {
                        keys: keys.clone(),
                        aggs: aggs.clone(),
                    },
                    vec![i],
                    schema,
                ),
            }
        }
        Plan::Sort { .. } => return Err(LowerError::Sort),
    };
    out.nodes.push(LoweredNode { op, inputs, schema });
    Ok(out.nodes.len() - 1)
}

/// The keyed nested-loop rule of the module docs: splits the conjuncts of
/// a join predicate over `left ++ right` (left arity `l_arity`) into the
/// cross-side `Col = Col` equalities, returned as a hash join keyed by
/// them, and the conjunction of the rest, if any. `None` when no conjunct
/// is such an equality.
fn hash_join_keys(pred: &Predicate, l_arity: usize) -> Option<(LoweredOp, Option<Predicate>)> {
    let (mut l_cols, mut r_cols) = (Vec::new(), Vec::new());
    let mut residual: Option<Predicate> = None;
    let mut todo = vec![pred];
    while let Some(p) = todo.pop() {
        match p {
            Predicate::And(a, b) => todo.extend([&**b, &**a]),
            Predicate::True => {}
            &Predicate::Cmp(CmpOp::Eq, Expr::Col(a), Expr::Col(b))
                if (a < l_arity) != (b < l_arity) =>
            {
                l_cols.push(a.min(b));
                r_cols.push(a.max(b) - l_arity);
            }
            other => {
                residual = Some(match residual {
                    None => other.clone(),
                    Some(acc) => acc.and(other.clone()),
                })
            }
        }
    }
    (!l_cols.is_empty()).then_some((LoweredOp::HashJoin { l_cols, r_cols }, residual))
}

/// The fusion rule of the module docs: `Some` fused operator when node
/// `input` (the aggregate's lowered input) is a hash join, every group key
/// names exactly one join-key position, the keys cover every position
/// once, and every aggregate is `Count`, `Min` or `Max`.
fn fuse_join_aggregate(
    out: &Lowered,
    input: usize,
    keys: &[usize],
    aggs: &[AggFn],
) -> Option<LoweredOp> {
    let join = &out.nodes[input];
    let LoweredOp::HashJoin { l_cols, r_cols } = &join.op else {
        return None;
    };
    if !aggs
        .iter()
        .all(|a| matches!(a, AggFn::Count | AggFn::Min(_) | AggFn::Max(_)))
    {
        return None;
    }
    let l_arity = out.nodes[join.inputs[0]].schema.arity();
    let mut covered = vec![false; l_cols.len()];
    for &k in keys {
        let mut at = (0..l_cols.len()).filter(|&j| {
            if k < l_arity {
                l_cols[j] == k
            } else {
                r_cols[j] + l_arity == k
            }
        });
        let (Some(j), None) = (at.next(), at.next()) else {
            return None;
        };
        if std::mem::replace(&mut covered[j], true) {
            return None;
        }
    }
    covered
        .iter()
        .all(|&c| c)
        .then(|| LoweredOp::JoinAggregate {
            l_cols: l_cols.clone(),
            r_cols: r_cols.clone(),
            l_arity,
            keys: keys.to_vec(),
            aggs: aggs.to_vec(),
        })
}

/// Substitutes concrete relations into the plan's `Values` leaves, in the
/// same preorder numbering [`lower`] assigns sources — the differential-
/// oracle hook: run the substituted plan batch, compare with the pipeline.
///
/// Panics if `tables` does not match the number of leaves, or a table's
/// arity differs from its leaf's declared schema.
pub fn bind_sources(plan: &Plan, tables: &[Relation]) -> Plan {
    fn rec(plan: &Plan, tables: &[Relation], next: &mut usize) -> Plan {
        match plan {
            Plan::Values(rel) => {
                let i = *next;
                *next += 1;
                assert!(
                    i < tables.len(),
                    "bind_sources: plan has more Values leaves than tables"
                );
                assert_eq!(
                    tables[i].schema.arity(),
                    rel.schema.arity(),
                    "bind_sources: table {i} arity differs from the leaf schema"
                );
                Plan::Values(tables[i].clone())
            }
            Plan::Select { input, pred } => Plan::Select {
                input: Box::new(rec(input, tables, next)),
                pred: pred.clone(),
            },
            Plan::Project { input, cols } => Plan::Project {
                input: Box::new(rec(input, tables, next)),
                cols: cols.clone(),
            },
            Plan::NlJoin { left, right, pred } => Plan::NlJoin {
                left: Box::new(rec(left, tables, next)),
                right: Box::new(rec(right, tables, next)),
                pred: pred.clone(),
            },
            Plan::HashJoin {
                left,
                right,
                l_cols,
                r_cols,
            } => Plan::HashJoin {
                left: Box::new(rec(left, tables, next)),
                right: Box::new(rec(right, tables, next)),
                l_cols: l_cols.clone(),
                r_cols: r_cols.clone(),
            },
            Plan::UnionAll { left, right } => Plan::UnionAll {
                left: Box::new(rec(left, tables, next)),
                right: Box::new(rec(right, tables, next)),
            },
            Plan::Distinct { input } => Plan::Distinct {
                input: Box::new(rec(input, tables, next)),
            },
            Plan::Aggregate { input, keys, aggs } => Plan::Aggregate {
                input: Box::new(rec(input, tables, next)),
                keys: keys.clone(),
                aggs: aggs.clone(),
            },
            Plan::Sort { input, cols } => Plan::Sort {
                input: Box::new(rec(input, tables, next)),
                cols: cols.clone(),
            },
        }
    }
    let mut next = 0usize;
    let out = rec(plan, tables, &mut next);
    assert_eq!(
        next,
        tables.len(),
        "bind_sources: plan has fewer Values leaves than tables"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use tp_core::value::Value;

    fn rel(cols: &[&str], rows: Vec<Vec<i64>>) -> Relation {
        Relation::new(
            Schema::new(cols.iter().copied()),
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::int).collect())
                .collect(),
        )
    }

    fn placeholder(cols: &[&str]) -> Relation {
        Relation::empty(Schema::new(cols.iter().copied()))
    }

    #[test]
    fn lowering_is_topo_ordered_and_numbers_sources_preorder() {
        let plan = Plan::values(placeholder(&["k", "ts", "te"]))
            .hash_join(
                Plan::values(placeholder(&["k", "ts", "te"])),
                vec![0],
                vec![0],
            )
            .select(Predicate::col_const(CmpOp::Ge, 1, Value::int(0)))
            .aggregate(vec![0], vec![AggFn::Count]);
        let lowered = lower(&plan).unwrap();
        assert_eq!(lowered.source_count(), 2);
        assert_eq!(lowered.nodes.len(), 5);
        for (i, node) in lowered.nodes.iter().enumerate() {
            assert!(node.inputs.iter().all(|&j| j < i), "inputs precede node");
        }
        assert_eq!(lowered.nodes[0].op, LoweredOp::Source(0));
        assert_eq!(lowered.nodes[1].op, LoweredOp::Source(1));
        assert_eq!(lowered.root(), 4);
        assert_eq!(lowered.root_schema().columns(), &["l.k", "count"]);
    }

    #[test]
    fn join_schema_concats_and_aggregate_names_follow_batch() {
        let plan = Plan::values(placeholder(&["k", "v"]))
            .nl_join(Plan::values(placeholder(&["k", "w"])), Predicate::True)
            .aggregate(vec![1], vec![AggFn::Sum(3), AggFn::Max(3)]);
        let lowered = lower(&plan).unwrap();
        let join = &lowered.nodes[2];
        assert_eq!(join.schema.columns(), &["l.k", "v", "r.k", "w"]);
        assert_eq!(lowered.root_schema().columns(), &["v", "sum_3", "max_3"]);
    }

    fn kjv() -> Plan {
        Plan::values(placeholder(&["k", "j", "v"]))
    }

    #[test]
    fn keyed_nl_join_lowers_to_hash_join() {
        let plan = kjv().nl_join(kjv(), Predicate::col_eq(0, 3));
        let lowered = lower(&plan).unwrap();
        assert_eq!(lowered.nodes.len(), 3, "two sources and the join");
        let root = &lowered.nodes[2];
        assert_eq!(
            root.op,
            LoweredOp::HashJoin {
                l_cols: vec![0],
                r_cols: vec![0],
            }
        );
        assert_eq!(root.inputs, vec![0, 1]);
        assert_eq!(root.schema.columns(), plan.execute().schema.columns());
    }

    #[test]
    fn key_and_overlap_lowers_to_hash_join_then_residual_select() {
        // The key conjunct sits between the overlap's two atoms, and one
        // equality is written right-to-left.
        let overlap = Predicate::overlap(1, 2, 4, 5);
        let Predicate::And(lt1, lt2) = overlap.clone() else {
            unreachable!("overlap is a conjunction")
        };
        let pred = lt1
            .and(Predicate::col_eq(0, 3))
            .and(Predicate::col_eq(4, 1).and(*lt2));
        let lowered = lower(&kjv().nl_join(kjv(), pred)).unwrap();
        assert_eq!(lowered.nodes.len(), 4);
        assert_eq!(
            lowered.nodes[2].op,
            LoweredOp::HashJoin {
                l_cols: vec![0, 1],
                r_cols: vec![0, 1],
            }
        );
        // The residual reads the joined row `left ++ right`.
        let select = &lowered.nodes[3];
        assert_eq!(select.op, LoweredOp::Select(overlap));
        assert_eq!(select.inputs, vec![2]);
        assert_eq!(select.schema, lowered.nodes[2].schema);
    }

    #[test]
    fn theta_only_nl_join_stays_nested_loop() {
        let preds = [
            Predicate::overlap(1, 2, 4, 5),
            // Equal in meaning to a key, but not a `Col = Col` conjunct.
            Predicate::col_cmp(CmpOp::Ne, 0, 3).negate(),
            // Both columns on one side.
            Predicate::col_eq(0, 1).and(Predicate::col_eq(3, 4)),
            Predicate::col_eq(0, 3).or(Predicate::col_eq(1, 4)),
            Predicate::True,
        ];
        for pred in preds {
            let lowered = lower(&kjv().nl_join(kjv(), pred.clone())).unwrap();
            assert_eq!(lowered.nodes.len(), 3, "{pred:?}");
            assert_eq!(lowered.nodes[2].op, LoweredOp::NlJoin(pred));
        }
    }

    #[test]
    fn lowered_keyed_join_executes_like_the_nested_loop_join() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let mut keyed = 0;
        for round in 0..200 {
            let table = |rng: &mut StdRng| {
                let n = rng.random_range(0..12usize);
                rel(
                    &["x", "y", "z"],
                    (0..n)
                        .map(|_| (0..3).map(|_| rng.random_range(0..4i64)).collect())
                        .collect(),
                )
            };
            let (a, b) = (table(&mut rng), table(&mut rng));
            // A random conjunction over `a ++ b`: cross-side and one-sided
            // equalities, inequalities, constants and a negated `<>`.
            let mut pred = Predicate::True;
            for _ in 0..rng.random_range(1..5) {
                let (c1, c2) = (rng.random_range(0..6usize), rng.random_range(0..6usize));
                let atom = match rng.random_range(0..4) {
                    0 | 1 => Predicate::col_eq(c1, c2),
                    2 => Predicate::col_cmp(CmpOp::Le, c1, c2),
                    _ => Predicate::col_const(CmpOp::Ne, c1, Value::int(2)).negate(),
                };
                pred = pred.and(atom);
            }
            let lowered =
                lower(&Plan::values(a.clone()).nl_join(Plan::values(b.clone()), pred.clone()))
                    .unwrap();
            let hashed = match &lowered.nodes[2].op {
                LoweredOp::HashJoin { l_cols, r_cols } => {
                    keyed += 1;
                    let joined = Plan::values(a.clone()).hash_join(
                        Plan::values(b.clone()),
                        l_cols.clone(),
                        r_cols.clone(),
                    );
                    match lowered.nodes.get(3).map(|n| &n.op) {
                        Some(LoweredOp::Select(residual)) => joined.select(residual.clone()),
                        None => joined,
                        Some(op) => panic!("round {round}: unexpected {op:?}"),
                    }
                }
                LoweredOp::NlJoin(_) => continue,
                op => panic!("round {round}: unexpected {op:?}"),
            };
            let nested = Plan::values(a).nl_join(Plan::values(b), pred.clone());
            let canon = |plan: Plan| {
                let mut rows = plan.execute().rows;
                rows.sort();
                rows
            };
            assert_eq!(canon(hashed), canon(nested), "round {round}: {pred:?}");
        }
        assert!(keyed > 50, "only {keyed} rounds lowered to a hash join");
    }

    #[test]
    fn join_aggregate_fuses_when_grouped_by_exactly_the_join_key() {
        // The left key, the right key's copy, and a two-column key named
        // in swapped order (r.j, then l.k); aggregates read both sides. The
        // last case is a keyed nested-loop join, which lowers to the same
        // hash join first.
        let keyed_nl = kjv().nl_join(kjv(), Predicate::col_eq(0, 3).and(Predicate::col_eq(1, 4)));
        let cases = [
            (vec![0], vec![0], vec![0], None),
            (vec![0], vec![0], vec![3], None),
            (vec![0, 1], vec![0, 1], vec![4, 0], None),
            (vec![0, 1], vec![0, 1], vec![4, 0], Some(keyed_nl)),
        ];
        for (l_cols, r_cols, keys, join) in cases {
            let join =
                join.unwrap_or_else(|| kjv().hash_join(kjv(), l_cols.clone(), r_cols.clone()));
            let aggs = vec![AggFn::Count, AggFn::Min(2), AggFn::Max(5), AggFn::Max(1)];
            let plan = join.aggregate(keys.clone(), aggs.clone());
            let lowered = lower(&plan).unwrap();
            assert_eq!(lowered.nodes.len(), 3, "two sources and the fused node");
            let root = &lowered.nodes[2];
            assert_eq!(
                root.op,
                LoweredOp::JoinAggregate {
                    l_cols,
                    r_cols,
                    l_arity: 3,
                    keys,
                    aggs,
                }
            );
            assert_eq!(root.inputs, vec![0, 1]);
            assert_eq!(root.op.name(), "aggregate");
            // The fused node keeps the batch aggregate's output schema.
            assert_eq!(root.schema.columns(), plan.execute().schema.columns());
        }
    }

    #[test]
    fn join_aggregate_fusion_declines_outside_its_pattern() {
        let join = |cols: Vec<usize>| kjv().hash_join(kjv(), cols.clone(), cols);
        let count = || vec![AggFn::Count];
        let cases = [
            (
                "sum",
                join(vec![0]).aggregate(vec![0], vec![AggFn::Count, AggFn::Sum(2)]),
            ),
            (
                "non-key group column",
                join(vec![0]).aggregate(vec![1], count()),
            ),
            (
                "partial composite key",
                join(vec![0, 1]).aggregate(vec![0], count()),
            ),
            (
                "extra group column",
                join(vec![0]).aggregate(vec![0, 2], count()),
            ),
            (
                "key named twice",
                join(vec![0]).aggregate(vec![0, 3], count()),
            ),
            (
                "theta-only nl_join",
                kjv()
                    .nl_join(kjv(), Predicate::col_cmp(CmpOp::Ne, 0, 3).negate())
                    .aggregate(vec![0], count()),
            ),
            (
                "keyed nl_join with a residual",
                kjv()
                    .nl_join(
                        kjv(),
                        Predicate::col_eq(0, 3).and(Predicate::overlap(1, 2, 4, 5)),
                    )
                    .aggregate(vec![0], count()),
            ),
            (
                "select between join and aggregate",
                join(vec![0])
                    .select(Predicate::col_const(CmpOp::Ge, 2, Value::int(0)))
                    .aggregate(vec![0], count()),
            ),
        ];
        for (name, plan) in cases {
            let lowered = lower(&plan).unwrap();
            assert!(
                matches!(
                    lowered.nodes[lowered.root()].op,
                    LoweredOp::Aggregate { .. }
                ),
                "{name}: expected the unfused aggregate"
            );
            assert!(
                lowered
                    .nodes
                    .iter()
                    .all(|n| !matches!(n.op, LoweredOp::JoinAggregate { .. })),
                "{name}: fused outside the rule"
            );
        }
    }

    #[test]
    fn sort_is_rejected() {
        let plan = Plan::values(placeholder(&["x"])).sort(vec![0]);
        assert_eq!(lower(&plan), Err(LowerError::Sort));
        assert!(LowerError::Sort.to_string().contains("Sort"));
    }

    #[test]
    fn bind_sources_substitutes_in_preorder_and_executes() {
        let plan = Plan::values(placeholder(&["k", "v"]))
            .hash_join(Plan::values(placeholder(&["k", "w"])), vec![0], vec![0])
            .project(vec![1, 3]);
        let l = rel(&["k", "v"], vec![vec![1, 10], vec![2, 20]]);
        let r = rel(&["k", "w"], vec![vec![2, 7]]);
        let bound = bind_sources(&plan, &[l, r]);
        let out = bound.execute();
        assert_eq!(out.rows, vec![vec![Value::int(20), Value::int(7)]]);
    }

    #[test]
    #[should_panic(expected = "more Values leaves")]
    fn bind_sources_panics_on_missing_tables() {
        let plan = Plan::values(placeholder(&["x"])).union_all(Plan::values(placeholder(&["x"])));
        bind_sources(&plan, &[rel(&["x"], vec![])]);
    }
}
