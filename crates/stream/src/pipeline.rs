//! Standing incremental pipelines: a compiled [`tp_relalg::Plan`] running
//! continuously over the engine's delta streams.
//!
//! [`Pipeline::compile`] lowers a batch plan through
//! [`tp_relalg::incremental::lower`] into a topo-ordered DAG of standing
//! operators, then the engine drives it: every output delta of a tapped
//! set operation feeds a [`LoweredOp::Source`], and one propagation pass
//! per watermark advance pushes the resulting `Ins`/`Del` changes through
//! the DAG — select/project filter and rewrite rows, joins keep per-side
//! hash state and emit the conjunction of the matching tuples' lineages,
//! distinct and aggregate maintain support-counted groups with dirty-key
//! recompute through the *batch* [`tp_relalg::AggFn::finish`] fold — one
//! republish per dirty group per advance, nothing when the batch left a
//! group's output unchanged. An aggregate grouped by exactly its hash
//! join's key arrives fused ([`LoweredOp::JoinAggregate`]): per key it keeps
//! each side's members and publishes `Count = |L|·|R|`, `Min`/`Max` from
//! one side and the lineage `(∨ lᵢ) ∧ (∨ rⱼ)`, so state and work per key are
//! O(L + R) instead of the join's O(L · R) pairs. It runs through the same
//! dirty-key batch as the other grouped operators. The root's
//! multiset is the standing materialized view; [`Pipeline::materialized`]
//! snapshots it as a canonically sorted [`Relation`] that is row-identical
//! to running the batch plan over the closed region (the differential
//! contract `tests/streaming_plans.rs` proves for arbitrary arrival
//! permutations and watermark schedules).
//!
//! ## Clock, arena, reclamation
//!
//! The whole DAG shares the engine's clock: sources buffer deltas as the
//! sweep emits them, and the engine runs exactly one propagation pass per
//! advance (inside its arena scope), so every operator observes the same
//! watermark frontier. Standing state never holds arena references: a
//! source expands each tuple's lineage once, inside the arena scope, into
//! an owned [`LineageTree`] — exactly like [`crate::MaterializingSink`]
//! records deltas — so segment retirement in reclaim mode can never
//! invalidate it. Everything derived from those trees shares them: a join
//! output is one [`LineageTree::and`] over its two inputs, a
//! distinct/aggregate output the left-deep [`LineageTree::or`] fold of its
//! group's members (the fused operator: one `and` over its two sides'
//! folds). Handing an instance to the next operator or a view is therefore
//! a reference-count bump, not a tree copy, and a group side that only
//! gained members extends its fold by one `or` per new member. Readers get
//! lineage back as handles interned into their current arena
//! ([`Pipeline::materialized_lineage`], through [`Lineage::from_tree`]).
//!
//! ## Source encoding
//!
//! A source row is the tuple's fact attributes followed by the interval
//! bounds: `fact.values() ++ [Int(ts), Int(te)]` ([`encode_row`]). An
//! `Insert` delta inserts the encoded row; an `Extend` — which by the
//! delta contract grows the *latest* output tuple of the fact and keeps
//! its lineage handle — is a `Del` of the previous encoding plus an `Ins`
//! of the grown one, mirroring how [`crate::CollectingSink`] applies it
//! (including the attach-mid-stream case where the `Extend` piece
//! materializes as a fresh row). For workloads whose facts grow
//! contiguously, this keeps one standing row per fact and operator state
//! **plateaus** no matter how long the stream runs.

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use tp_core::arena::FastMap;
use tp_core::fact::Fact;
use tp_core::interval::Interval;
use tp_core::lineage::{Lineage, LineageTree};
use tp_core::ops::SetOp;
use tp_core::relation::TpRelation;
use tp_core::value::Value;
use tp_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use tp_relalg::aggregate::AggFn;
use tp_relalg::incremental::{lower, LowerError, LoweredOp};
use tp_relalg::plan::Plan;
use tp_relalg::relation::{Relation, Row, Schema};

use crate::delta::Delta;
use crate::obs::{global, now_ns, EngineObs, ObsConfig};

/// Why a plan cannot be attached to an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The plan does not lower (see [`LowerError`]).
    Lower(LowerError),
    /// [`Pipeline::compile_shared`] got no plans.
    NoPlans,
    /// [`Pipeline::compile_shared`] got a tap list count that differs from
    /// its plan count (one tap list per plan).
    TapLists {
        /// Plans supplied.
        plans: usize,
        /// Tap lists supplied.
        tap_lists: usize,
    },
    /// `taps.len()` differs from the plan's `Values`-leaf count.
    TapCount {
        /// Sources the lowered plan declares.
        sources: usize,
        /// Taps the caller supplied.
        taps: usize,
    },
    /// A tapped operation is not maintained by the engine config.
    TapNotMaintained(SetOp),
    /// A source schema has fewer than three columns (at least one fact
    /// attribute plus the `ts`/`te` interval bounds).
    SourceArity {
        /// The offending source (preorder index).
        source: usize,
        /// Its declared arity.
        arity: usize,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Lower(e) => write!(f, "plan does not lower: {e}"),
            PipelineError::NoPlans => write!(f, "no plans to compile"),
            PipelineError::TapLists { plans, tap_lists } => write!(
                f,
                "{plans} plans but {tap_lists} tap lists were supplied; need one per plan"
            ),
            PipelineError::TapCount { sources, taps } => write!(
                f,
                "plan declares {sources} sources but {taps} taps were supplied"
            ),
            PipelineError::TapNotMaintained(op) => {
                write!(f, "tapped operation {op} is not maintained by the engine")
            }
            PipelineError::SourceArity { source, arity } => write!(
                f,
                "source {source} declares arity {arity}; need fact attributes plus ts, te"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<LowerError> for PipelineError {
    fn from(e: LowerError) -> Self {
        PipelineError::Lower(e)
    }
}

/// Left-associative ∨-fold of `members` onto `acc`, in stored order — the
/// deterministic lineage of a support-counted output row; `None` for no
/// members at all. Folding a group's appended members onto its previous
/// fold gives the same formula as folding every member from scratch.
fn or_fold<'a>(
    acc: Option<LineageTree>,
    members: impl IntoIterator<Item = &'a LineageTree>,
) -> Option<LineageTree> {
    members.into_iter().fold(acc, |acc, m| {
        Some(acc.map_or_else(|| m.clone(), |acc| LineageTree::or(acc, m.clone())))
    })
}

/// One standing tuple instance: a flat row plus its shared lineage.
#[derive(Clone, PartialEq)]
struct PipeTuple {
    /// The encoded row.
    row: Row,
    /// Lineage of the instance, arena-independent.
    lineage: LineageTree,
}

/// An internal change notification between operators.
#[derive(Clone)]
enum PipeDelta {
    Ins(PipeTuple),
    Del(PipeTuple),
}

impl PipeDelta {
    fn tuple(&self) -> &PipeTuple {
        match self {
            PipeDelta::Ins(t) | PipeDelta::Del(t) => t,
        }
    }

    /// `(is_insert, tuple)`.
    fn into_parts(self) -> (bool, PipeTuple) {
        match self {
            PipeDelta::Ins(t) => (true, t),
            PipeDelta::Del(t) => (false, t),
        }
    }
}

/// Encodes a TP tuple as a pipeline source row:
/// `fact.values() ++ [Int(ts), Int(te)]`.
pub fn encode_row(fact: &Fact, interval: Interval) -> Row {
    let mut row: Row = fact.values().to_vec();
    row.push(Value::int(interval.start()));
    row.push(Value::int(interval.end()));
    row
}

/// Encodes a materialized TP relation with the given source schema — the
/// batch side of the differential oracle: feed the closed-region output of
/// a [`crate::CollectingSink`] through this and
/// [`tp_relalg::incremental::bind_sources`], execute, and compare with
/// [`Pipeline::materialized`].
///
/// Panics if a tuple's fact arity plus the two interval columns does not
/// match the schema.
pub fn encode_relation(rel: &TpRelation, schema: &Schema) -> Relation {
    let rows: Vec<Row> = rel
        .iter()
        .map(|t| {
            assert_eq!(
                t.fact.arity() + 2,
                schema.arity(),
                "tuple fact arity does not match the source schema"
            );
            encode_row(&t.fact, t.interval)
        })
        .collect();
    Relation::new(schema.clone(), rows)
}

/// Per-operator standing state.
enum OpState {
    /// Source, select, project, union-all: no standing rows.
    Stateless,
    /// Nested-loop join: both sides' full instance lists.
    NlJoin([Vec<PipeTuple>; 2]),
    /// Hash join: per-side instances bucketed by join key.
    HashJoin([FastMap<Vec<Value>, Vec<PipeTuple>>; 2]),
    /// Distinct: instance lineages per distinct row (support counting).
    Distinct(FastMap<Row, Group<LineageTree, 1>>),
    /// Aggregate: member instances per group key, in arrival order.
    Aggregate(FastMap<Vec<Value>, Group<PipeTuple, 1>>),
    /// Fused join → aggregate: per join key, each side's instances in
    /// arrival order — never the pairs.
    JoinAggregate(FastMap<Vec<Value>, Group<PipeTuple, 2>>),
}

impl OpState {
    fn for_op(op: &LoweredOp) -> OpState {
        match op {
            LoweredOp::NlJoin(_) => OpState::NlJoin([Vec::new(), Vec::new()]),
            LoweredOp::HashJoin { .. } => {
                OpState::HashJoin([FastMap::default(), FastMap::default()])
            }
            LoweredOp::Distinct => OpState::Distinct(FastMap::default()),
            LoweredOp::Aggregate { .. } => OpState::Aggregate(FastMap::default()),
            LoweredOp::JoinAggregate { .. } => OpState::JoinAggregate(FastMap::default()),
            _ => OpState::Stateless,
        }
    }

    /// Standing instances held by this operator.
    fn rows(&self) -> usize {
        fn members<K, M, const N: usize>(groups: &FastMap<K, Group<M, N>>) -> usize {
            groups.values().flat_map(|g| &g.sides).map(Vec::len).sum()
        }
        match self {
            OpState::Stateless => 0,
            OpState::NlJoin(sides) => sides.iter().map(Vec::len).sum(),
            OpState::HashJoin(sides) => sides
                .iter()
                .map(|m| m.values().map(Vec::len).sum::<usize>())
                .sum(),
            OpState::Distinct(m) => members(m),
            OpState::Aggregate(m) => members(m),
            OpState::JoinAggregate(m) => members(m),
        }
    }
}

/// One group of a support-counted operator with `N` input sides: each
/// side's members in arrival order with their stored-order [`or_fold`],
/// and the output it published at the end of the last batch. The group
/// publishes while every side is non-empty, with lineage the `and` of the
/// side folds (just the fold when `N == 1`).
struct Group<M, const N: usize> {
    sides: [Vec<M>; N],
    /// Per side, the fold of its members as of the last batch; `None`
    /// while the side is empty.
    folds: [Option<LineageTree>; N],
    /// `None` while a side is empty (and while the batch that created the
    /// group runs).
    published: Option<PipeTuple>,
}

impl<M, const N: usize> Group<M, N> {
    fn new() -> Self {
        Group {
            sides: std::array::from_fn(|_| Vec::new()),
            folds: std::array::from_fn(|_| None),
            published: None,
        }
    }
}

/// A group member: a distinct row's instance lineage, or an aggregate's
/// whole input tuple.
trait Member: PartialEq {
    fn lineage(&self) -> &LineageTree;
}

impl Member for LineageTree {
    fn lineage(&self) -> &LineageTree {
        self
    }
}

impl Member for PipeTuple {
    fn lineage(&self) -> &LineageTree {
        &self.lineage
    }
}

/// What one batch did to a dirty group.
struct Touch<const N: usize> {
    /// The output published before the batch.
    old: Option<PipeTuple>,
    /// Per side: how many members it had before the batch, while the batch
    /// only appended to it; `None` once it retracted one.
    kept: [Option<usize>; N],
}

/// Applies one advance's worth of `(side, is_insert, key, member)` changes
/// to a support-counted operator with **dirty-key recompute**: member
/// lists are updated first, then every dirty group is republished exactly
/// once — one `Del` of its pre-batch output, one `Ins` of its post-batch
/// output, nothing when the batch left the output unchanged (rows compare
/// first, so the lineage comparison only runs when they agree). The
/// pre-batch output is the group's published one, so snapshotting it is a
/// clone of shared handles. A side the batch only appended to extends its
/// fold by one `or` per new member; a side that lost a member refolds.
/// `row_of` gets the touch record, so aggregates can extend from the
/// published row the same way.
fn apply_batch<K, M, const N: usize>(
    groups: &mut FastMap<K, Group<M, N>>,
    changes: impl Iterator<Item = (usize, bool, K, M)>,
    row_of: impl Fn(&K, &[Vec<M>; N], &Touch<N>) -> Row,
    out: &mut Vec<PipeDelta>,
) where
    K: Hash + Eq + Clone,
    M: Member,
{
    let mut dirty: Vec<K> = Vec::new();
    let mut touched: FastMap<K, Touch<N>> = FastMap::default();
    for (side, insert, key, member) in changes {
        if !touched.contains_key(&key) {
            let group = groups.get(&key);
            touched.insert(
                key.clone(),
                Touch {
                    old: group.and_then(|g| g.published.clone()),
                    kept: std::array::from_fn(|s| Some(group.map_or(0, |g| g.sides[s].len()))),
                },
            );
            dirty.push(key.clone());
        }
        if insert {
            groups.entry(key).or_insert_with(Group::new).sides[side].push(member);
        } else {
            let group = groups
                .get_mut(&key)
                .expect("Del retracts a standing group member");
            let members = &mut group.sides[side];
            let at = members
                .iter()
                .position(|x| *x == member)
                .expect("Del retracts a standing group member");
            members.remove(at);
            if group.sides.iter().all(Vec::is_empty) {
                groups.remove(&key);
            }
            touched.get_mut(&key).expect("touched above").kept[side] = None;
        }
    }
    // Republish changed groups, in first-touch order.
    for key in dirty {
        let touch = touched.remove(&key).expect("touched in the first pass");
        let Some(group) = groups.get_mut(&key) else {
            out.extend(touch.old.map(PipeDelta::Del));
            continue;
        };
        for (s, members) in group.sides.iter().enumerate() {
            let fold = &mut group.folds[s];
            *fold = match touch.kept[s] {
                Some(kept) => or_fold(fold.take(), members[kept..].iter().map(M::lineage)),
                None => or_fold(None, members.iter().map(M::lineage)),
            };
        }
        let lineage = match group.folds.as_slice() {
            [Some(fold)] => fold.clone(),
            [Some(l), Some(r)] => LineageTree::and(l.clone(), r.clone()),
            _ => {
                // A side is empty: nothing to publish until it refills.
                out.extend(touch.old.map(PipeDelta::Del));
                group.published = None;
                continue;
            }
        };
        let new = PipeTuple {
            row: row_of(&key, &group.sides, &touch),
            lineage,
        };
        match touch.old {
            // Unchanged: keep publishing the handles consumers already hold.
            Some(old) if old == new => group.published = Some(old),
            old => {
                out.extend(old.map(PipeDelta::Del));
                out.push(PipeDelta::Ins(new.clone()));
                group.published = Some(new);
            }
        }
    }
}

/// Whether `op` is support-counted and drains its inbox as one batch
/// through [`Node::apply_grouped`].
fn is_grouped(op: &LoweredOp) -> bool {
    matches!(
        op,
        LoweredOp::Distinct | LoweredOp::Aggregate { .. } | LoweredOp::JoinAggregate { .. }
    )
}

fn joined(l: &PipeTuple, r: &PipeTuple) -> PipeTuple {
    let mut row = l.row.clone();
    row.extend(r.row.iter().cloned());
    PipeTuple {
        row,
        lineage: LineageTree::and(l.lineage.clone(), r.lineage.clone()),
    }
}

/// One DAG node: the operator, its standing state, and the deltas buffered
/// for the next propagation pass.
struct Node {
    op: LoweredOp,
    state: OpState,
    inbox: Vec<(usize, PipeDelta)>,
    /// Deltas this operator emitted over its lifetime.
    emitted: u64,
    /// Number of attached plans whose DAG contains this operator (>1 ⇒ the
    /// operator and its state are shared).
    shared_by: u32,
}

impl Node {
    /// Applies one upstream delta, appending this operator's own deltas.
    fn apply(&mut self, port: usize, delta: PipeDelta, out: &mut Vec<PipeDelta>) {
        match (&self.op, &mut self.state) {
            (LoweredOp::Source(_), _) | (LoweredOp::UnionAll, _) => out.push(delta),
            (LoweredOp::Select(pred), _) => {
                if pred.eval(&delta.tuple().row) {
                    out.push(delta);
                }
            }
            (LoweredOp::Project(cols), _) => {
                let map = |t: PipeTuple| PipeTuple {
                    row: cols.iter().map(|&c| t.row[c].clone()).collect(),
                    lineage: t.lineage,
                };
                out.push(match delta {
                    PipeDelta::Ins(t) => PipeDelta::Ins(map(t)),
                    PipeDelta::Del(t) => PipeDelta::Del(map(t)),
                });
            }
            (LoweredOp::NlJoin(pred), OpState::NlJoin(sides)) => {
                let pair = |own: &PipeTuple, other: &PipeTuple| {
                    if port == 0 {
                        joined(own, other)
                    } else {
                        joined(other, own)
                    }
                };
                let hit = |own: &PipeTuple, other: &PipeTuple| {
                    if port == 0 {
                        pred.eval_pair(&own.row, &other.row)
                    } else {
                        pred.eval_pair(&other.row, &own.row)
                    }
                };
                match delta {
                    PipeDelta::Ins(t) => {
                        for o in &sides[1 - port] {
                            if hit(&t, o) {
                                out.push(PipeDelta::Ins(pair(&t, o)));
                            }
                        }
                        sides[port].push(t);
                    }
                    PipeDelta::Del(t) => {
                        let at = sides[port]
                            .iter()
                            .position(|x| *x == t)
                            .expect("Del retracts a standing join instance");
                        sides[port].remove(at);
                        for o in &sides[1 - port] {
                            if hit(&t, o) {
                                out.push(PipeDelta::Del(pair(&t, o)));
                            }
                        }
                    }
                }
            }
            (LoweredOp::HashJoin { l_cols, r_cols }, OpState::HashJoin(sides)) => {
                let own_cols = if port == 0 { l_cols } else { r_cols };
                let key: Vec<Value> = own_cols
                    .iter()
                    .map(|&c| delta.tuple().row[c].clone())
                    .collect();
                let (head, tail) = sides.split_at_mut(1);
                let (own, other) = if port == 0 {
                    (&mut head[0], &tail[0])
                } else {
                    (&mut tail[0], &head[0])
                };
                let pair = |own_t: &PipeTuple, other_t: &PipeTuple| {
                    if port == 0 {
                        joined(own_t, other_t)
                    } else {
                        joined(other_t, own_t)
                    }
                };
                match delta {
                    PipeDelta::Ins(t) => {
                        if let Some(matches) = other.get(&key) {
                            for o in matches {
                                out.push(PipeDelta::Ins(pair(&t, o)));
                            }
                        }
                        own.entry(key).or_default().push(t);
                    }
                    PipeDelta::Del(t) => {
                        let bucket = own
                            .get_mut(&key)
                            .expect("Del retracts a standing join instance");
                        let at = bucket
                            .iter()
                            .position(|x| *x == t)
                            .expect("Del retracts a standing join instance");
                        bucket.remove(at);
                        if bucket.is_empty() {
                            own.remove(&key);
                        }
                        if let Some(matches) = other.get(&key) {
                            for o in matches {
                                out.push(PipeDelta::Del(pair(&t, o)));
                            }
                        }
                    }
                }
            }
            (op, _) if is_grouped(op) => {
                unreachable!("grouped operators drain through apply_grouped")
            }
            _ => unreachable!("operator state matches its op kind by construction"),
        }
    }

    /// Applies one advance's worth of deltas to a support-counted operator
    /// (distinct, aggregate, fused join → aggregate) through
    /// [`apply_batch`]. A group hit by many deltas in one advance (the
    /// retract-and-regrow traffic of `Extend`-dominated streams) pays one
    /// lineage fold instead of one per delta, and groups whose output is
    /// net-unchanged emit nothing.
    fn apply_grouped(&mut self, inbox: Vec<(usize, PipeDelta)>, out: &mut Vec<PipeDelta>) {
        let changes = inbox.into_iter().map(|(port, delta)| {
            let (insert, t) = delta.into_parts();
            (port, insert, t)
        });
        let key_of = |cols: &[usize], row: &Row| -> Vec<Value> {
            cols.iter().map(|&c| row[c].clone()).collect()
        };
        match (&self.op, &mut self.state) {
            (LoweredOp::Distinct, OpState::Distinct(groups)) => apply_batch(
                groups,
                changes.map(|(_, insert, t)| (0, insert, t.row, t.lineage)),
                |row, _, _| row.clone(),
                out,
            ),
            (LoweredOp::Aggregate { keys, aggs }, OpState::Aggregate(groups)) => apply_batch(
                groups,
                changes.map(|(_, insert, t)| (0, insert, key_of(keys, &t.row), t)),
                |key, [members], _| {
                    let rows: Vec<&Row> = members.iter().map(|m| &m.row).collect();
                    let mut row: Row = key.clone();
                    row.extend(aggs.iter().map(|a| a.finish(&rows)));
                    row
                },
                out,
            ),
            (
                LoweredOp::JoinAggregate {
                    l_cols,
                    r_cols,
                    l_arity,
                    keys,
                    aggs,
                },
                OpState::JoinAggregate(groups),
            ) => apply_batch(
                groups,
                changes.map(|(port, insert, t)| {
                    let cols = if port == 0 { l_cols } else { r_cols };
                    (port, insert, key_of(cols, &t.row), t)
                }),
                |_, sides, touch| {
                    // A joined-row column `c` is column `c` of the left
                    // side or `c - l_arity` of the right; every member of a
                    // side carries the group's join-key values.
                    let at = |c: usize| {
                        if c < *l_arity {
                            (0, c)
                        } else {
                            (1, c - l_arity)
                        }
                    };
                    let mut row: Row = keys
                        .iter()
                        .map(|&k| {
                            let (s, c) = at(k);
                            sides[s][0].row[c].clone()
                        })
                        .collect();
                    for (i, agg) in aggs.iter().enumerate() {
                        row.push(match *agg {
                            AggFn::Count => Value::int((sides[0].len() * sides[1].len()) as i64),
                            AggFn::Min(c) | AggFn::Max(c) => {
                                // Extend the published extreme by the
                                // appended members; rescan a side that
                                // lost one (or a group not yet published).
                                let (s, c) = at(c);
                                let (acc, from) = match (touch.kept[s], &touch.old) {
                                    (Some(kept), Some(old)) => {
                                        (Some(&old.row[keys.len() + i]), kept)
                                    }
                                    _ => (None, 0),
                                };
                                let values = acc
                                    .into_iter()
                                    .chain(sides[s][from..].iter().map(|m| &m.row[c]));
                                let extreme = if matches!(agg, AggFn::Min(_)) {
                                    values.min()
                                } else {
                                    values.max()
                                };
                                extreme.expect("published sides are non-empty").clone()
                            }
                            AggFn::Sum(_) => unreachable!("the fusion rule declines Sum"),
                        });
                    }
                    row
                },
                out,
            ),
            _ => unreachable!("apply_grouped only drains support-counted operators"),
        }
    }
}

/// Metric handles of an attached pipeline (`tp_pipeline_*`).
struct PipelineObs {
    advance_ns: Arc<Histogram>,
    state_rows: Arc<Gauge>,
    /// Per node, labeled with the operator kind.
    node_deltas: Vec<Arc<Counter>>,
}

/// The standing materialized view of one attached plan: instance lineages
/// per output row, plus the plan's root schema.
struct RootView {
    schema: Schema,
    rows: FastMap<Row, Vec<LineageTree>>,
    /// Total instances (multiplicity sum).
    len: usize,
}

/// A compiled standing pipeline. Create with [`Pipeline::compile`] (one
/// plan) or [`Pipeline::compile_shared`] (several plans over one physical
/// DAG), attach via [`crate::StreamEngine::with_plan`] /
/// [`crate::StreamEngine::with_plans`] (or per tenant through
/// [`crate::StreamServer::add_tenant_with_plan`]); the engine feeds and
/// advances it, callers read [`Pipeline::materialized`].
pub struct Pipeline {
    nodes: Vec<Node>,
    /// Producer → `[(consumer, port)]` edges.
    consumers: Vec<Vec<(usize, usize)>>,
    /// Node → views fed by its output (non-empty for plan roots only).
    node_views: Vec<Vec<usize>>,
    /// Engine op feeding each physical source.
    taps: Vec<SetOp>,
    /// Physical source index → node index.
    source_nodes: Vec<usize>,
    /// Declared fact arity per physical source (schema arity minus ts/te).
    fact_arity: Vec<usize>,
    /// Per physical source: the latest standing encoding per fact (the row
    /// an `Extend` delta retracts and regrows).
    last_run: Vec<FastMap<Fact, PipeTuple>>,
    /// Per plan: its root node.
    roots: Vec<usize>,
    /// Per plan: its standing materialized view.
    views: Vec<RootView>,
    /// Operators referenced by more than one plan.
    shared_nodes: usize,
    advances: u64,
    deltas_total: u64,
    /// Resolved by [`Pipeline::init_obs`] when an engine attaches the
    /// pipeline; `None` only for a pipeline compiled on its own.
    obs: Option<PipelineObs>,
}

impl Pipeline {
    /// Compiles a plan into a standing pipeline whose `i`-th source is fed
    /// from the engine's `taps[i]` delta stream.
    pub fn compile(plan: &Plan, taps: &[SetOp]) -> Result<Pipeline, PipelineError> {
        Self::compile_shared(std::slice::from_ref(plan), &[taps.to_vec()])
    }

    /// Compiles several plans into **one** physical pipeline, hash-consing
    /// structurally identical lowered sub-DAGs: two plans whose subtrees
    /// lower to the same operators over the same tap bindings run them
    /// once, fanned out to every downstream consumer — K alert rules over
    /// the same join pay its state and maintenance a single time (the
    /// sub-additive `tp_pipeline_state_rows` claim
    /// `tests/adaptive_pipeline.rs` gates). Each plan keeps its own
    /// materialized view; read them through [`Pipeline::materialized_view`].
    ///
    /// `taps[p][i]` names the engine delta stream feeding plan `p`'s
    /// `i`-th source (preorder). Fails with [`PipelineError::NoPlans`] for
    /// an empty `plans` and [`PipelineError::TapLists`] when the outer
    /// lengths differ; per-plan validation errors mirror
    /// [`Pipeline::compile`].
    pub fn compile_shared(plans: &[Plan], taps: &[Vec<SetOp>]) -> Result<Pipeline, PipelineError> {
        if plans.is_empty() {
            return Err(PipelineError::NoPlans);
        }
        if plans.len() != taps.len() {
            return Err(PipelineError::TapLists {
                plans: plans.len(),
                tap_lists: taps.len(),
            });
        }
        let mut p = Pipeline {
            nodes: Vec::new(),
            consumers: Vec::new(),
            node_views: Vec::new(),
            taps: Vec::new(),
            source_nodes: Vec::new(),
            fact_arity: Vec::new(),
            last_run: Vec::new(),
            roots: Vec::new(),
            views: Vec::new(),
            shared_nodes: 0,
            advances: 0,
            deltas_total: 0,
            obs: None,
        };
        // Structural interning: a node's identity is its operator plus the
        // identities of its inputs; a source's identity is its tap binding
        // plus arity. Identical sub-DAGs across (or within) plans therefore
        // collapse onto one physical operator.
        let mut interned: FastMap<String, usize> = FastMap::default();
        let mut node_plan_count: Vec<u32> = Vec::new();
        for (pi, plan) in plans.iter().enumerate() {
            let lowered = lower(plan)?;
            if lowered.source_count() != taps[pi].len() {
                return Err(PipelineError::TapCount {
                    sources: lowered.source_count(),
                    taps: taps[pi].len(),
                });
            }
            for (i, schema) in lowered.source_schemas.iter().enumerate() {
                if schema.arity() < 3 {
                    return Err(PipelineError::SourceArity {
                        source: i,
                        arity: schema.arity(),
                    });
                }
            }
            let mut global = vec![usize::MAX; lowered.nodes.len()];
            for (i, n) in lowered.nodes.iter().enumerate() {
                let inputs: Vec<usize> = n.inputs.iter().map(|&j| global[j]).collect();
                let key = match n.op {
                    LoweredOp::Source(s) => {
                        format!("source|{:?}|{}", taps[pi][s], n.schema.arity())
                    }
                    ref op => format!("{op:?}|{inputs:?}"),
                };
                let g = match interned.get(&key) {
                    Some(&g) => g,
                    None => {
                        let g = p.nodes.len();
                        let op = match n.op {
                            LoweredOp::Source(s) => {
                                let phys = p.taps.len();
                                p.taps.push(taps[pi][s]);
                                p.fact_arity.push(n.schema.arity() - 2);
                                p.last_run.push(FastMap::default());
                                p.source_nodes.push(g);
                                LoweredOp::Source(phys)
                            }
                            ref op => op.clone(),
                        };
                        p.nodes.push(Node {
                            state: OpState::for_op(&op),
                            op,
                            inbox: Vec::new(),
                            emitted: 0,
                            shared_by: 0,
                        });
                        p.consumers.push(Vec::new());
                        node_plan_count.push(0);
                        for (port, &input) in inputs.iter().enumerate() {
                            p.consumers[input].push((g, port));
                        }
                        interned.insert(key, g);
                        g
                    }
                };
                global[i] = g;
            }
            // Count each node once per plan that references it.
            let mut seen = vec![false; p.nodes.len()];
            for &g in &global {
                if !seen[g] {
                    seen[g] = true;
                    node_plan_count[g] += 1;
                }
            }
            p.roots.push(global[lowered.nodes.len() - 1]);
            p.views.push(RootView {
                schema: lowered.root_schema().clone(),
                rows: FastMap::default(),
                len: 0,
            });
        }
        for (g, node) in p.nodes.iter_mut().enumerate() {
            node.shared_by = node_plan_count[g];
        }
        p.shared_nodes = node_plan_count.iter().filter(|&&c| c > 1).count();
        p.node_views = vec![Vec::new(); p.nodes.len()];
        for (v, &root) in p.roots.iter().enumerate() {
            p.node_views[root].push(v);
        }
        Ok(p)
    }

    /// Resolves the `tp_pipeline_*` metric handles.
    pub(crate) fn init_obs(&mut self, cfg: &ObsConfig) {
        let reg: &MetricsRegistry = match &cfg.registry {
            Some(r) => r,
            None => global(),
        };
        let tenant = cfg.tenant.as_deref();
        let base: Vec<(&str, &str)> = match tenant {
            Some(t) => vec![("tenant", t)],
            None => Vec::new(),
        };
        let node_deltas = self
            .nodes
            .iter()
            .map(|n| {
                let mut labels = base.clone();
                labels.push(("op", n.op.name()));
                reg.counter("tp_pipeline_deltas_total", &labels)
            })
            .collect();
        self.obs = Some(PipelineObs {
            advance_ns: reg.histogram("tp_pipeline_advance_ns", &base),
            state_rows: reg.gauge("tp_pipeline_state_rows", &base),
            node_deltas,
        });
    }

    /// Buffers one engine delta into every source tapping `op`. Called by
    /// the engine inside its arena scope (the lineage expansion below
    /// dereferences the handle).
    pub(crate) fn offer(&mut self, op: SetOp, delta: &Delta) {
        for s in 0..self.taps.len() {
            if self.taps[s] != op {
                continue;
            }
            let node = self.source_nodes[s];
            match delta {
                Delta::Insert(t) => {
                    assert_eq!(
                        t.fact.arity(),
                        self.fact_arity[s],
                        "stream fact arity does not match source {s}'s schema"
                    );
                    let pt = PipeTuple {
                        row: encode_row(&t.fact, t.interval),
                        lineage: t.lineage.to_tree(),
                    };
                    self.last_run[s].insert(t.fact.clone(), pt.clone());
                    self.nodes[node].inbox.push((0, PipeDelta::Ins(pt)));
                }
                Delta::Extend {
                    fact,
                    lineage,
                    from,
                    to,
                } => match self.last_run[s].get_mut(fact) {
                    Some(prev) => {
                        // The contract: an Extend grows the fact's latest
                        // output tuple and keeps its lineage handle, so
                        // the standing encoding is retracted and regrown
                        // sharing the identical lineage.
                        let mut grown = prev.clone();
                        let te = grown.row.len() - 1;
                        debug_assert_eq!(grown.row[te], Value::int(*from), "Extend boundary");
                        grown.row[te] = Value::int(*to);
                        let old = std::mem::replace(prev, grown.clone());
                        self.nodes[node].inbox.push((0, PipeDelta::Del(old)));
                        self.nodes[node].inbox.push((0, PipeDelta::Ins(grown)));
                    }
                    None => {
                        // Attached mid-stream: materialize the extension
                        // piece as a fresh row (CollectingSink's rule).
                        assert_eq!(
                            fact.arity(),
                            self.fact_arity[s],
                            "stream fact arity does not match source {s}'s schema"
                        );
                        let pt = PipeTuple {
                            row: encode_row(fact, Interval::at(*from, *to)),
                            lineage: lineage.to_tree(),
                        };
                        self.last_run[s].insert(fact.clone(), pt.clone());
                        self.nodes[node].inbox.push((0, PipeDelta::Ins(pt)));
                    }
                },
            }
        }
    }

    /// One propagation pass: drains every inbox in topological order,
    /// applies each root's deltas to its materialized view, and records the
    /// per-operator sub-spans and `tp_pipeline_*` metrics. Returns the
    /// number of deltas operators processed. Called by the engine once per
    /// watermark advance, after the sweep emitted its deltas.
    pub(crate) fn on_advance(&mut self, engine_obs: &EngineObs) -> u64 {
        let t0 = now_ns();
        let processed = self.propagate(engine_obs);
        self.advances += 1;
        self.deltas_total += processed;
        if let Some(p) = &self.obs {
            p.advance_ns.record(now_ns() - t0);
            p.state_rows.set(self.state_rows() as i64);
        }
        processed
    }

    /// Drains every inbox in topological order, routing each node's output
    /// to the views it feeds and to its downstream consumers.
    fn propagate(&mut self, engine_obs: &EngineObs) -> u64 {
        let mut processed = 0u64;
        for i in 0..self.nodes.len() {
            let inbox = std::mem::take(&mut self.nodes[i].inbox);
            let mut out = Vec::new();
            if !inbox.is_empty() {
                let node_t0 = now_ns();
                processed += inbox.len() as u64;
                if is_grouped(&self.nodes[i].op) {
                    self.nodes[i].apply_grouped(inbox, &mut out);
                } else {
                    for (port, delta) in inbox {
                        self.nodes[i].apply(port, delta, &mut out);
                    }
                }
                self.nodes[i].emitted += out.len() as u64;
                let dur = now_ns() - node_t0;
                engine_obs.sub_span(self.nodes[i].op.name(), node_t0, dur, out.len() as u64);
                if let Some(p) = &self.obs {
                    p.node_deltas[i].add(out.len() as u64);
                }
            }
            if out.is_empty() {
                continue;
            }
            // A node can be a plan root and an interior operator at once
            // (one plan's output is another's subexpression): feed every
            // view first, then forward downstream.
            for vi in 0..self.node_views[i].len() {
                let v = self.node_views[i][vi];
                for delta in &out {
                    self.apply_view(v, delta.clone());
                }
            }
            if let ([(consumer, port)], true) =
                (&self.consumers[i][..], self.node_views[i].is_empty())
            {
                // Sole consumer, no view: hand the deltas over without
                // cloning.
                let (consumer, port) = (*consumer, *port);
                for delta in out {
                    self.nodes[consumer].inbox.push((port, delta));
                }
            } else {
                for &(consumer, port) in &self.consumers[i] {
                    for delta in &out {
                        self.nodes[consumer].inbox.push((port, delta.clone()));
                    }
                }
            }
        }
        processed
    }

    fn apply_view(&mut self, v: usize, delta: PipeDelta) {
        let view = &mut self.views[v];
        match delta {
            PipeDelta::Ins(t) => {
                view.rows.entry(t.row).or_default().push(t.lineage);
                view.len += 1;
            }
            PipeDelta::Del(t) => {
                let instances = view
                    .rows
                    .get_mut(&t.row)
                    .expect("Del retracts a standing output row");
                let at = instances
                    .iter()
                    .position(|x| *x == t.lineage)
                    .expect("Del retracts a standing output row");
                instances.remove(at);
                view.len -= 1;
                if instances.is_empty() {
                    view.rows.remove(&t.row);
                }
            }
        }
    }

    /// Snapshot of the first plan's standing materialized view as a
    /// canonically sorted relation (bag semantics: a row appears once per
    /// instance). For multi-plan pipelines see
    /// [`Pipeline::materialized_view`].
    pub fn materialized(&self) -> Relation {
        self.materialized_view(0)
    }

    /// Snapshot of plan `p`'s standing materialized view, canonically
    /// sorted.
    pub fn materialized_view(&self, p: usize) -> Relation {
        let view = &self.views[p];
        let mut rows: Vec<Row> = Vec::with_capacity(view.len);
        for (row, instances) in &view.rows {
            for _ in 0..instances.len() {
                rows.push(row.clone());
            }
        }
        rows.sort();
        Relation::new(view.schema.clone(), rows)
    }

    /// The first plan's distinct output rows with their ∨-folded lineage,
    /// sorted by row — the hook alert rules valuate (e.g. with
    /// [`crate::obs::valuate_batch`]). The lineage is interned into the
    /// caller's *current* arena: call it inside the scope whose variables
    /// the valuation reads. [`Lineage::from_tree`] is depth-safe, so group
    /// folds of any depth import.
    pub fn materialized_lineage(&self) -> Vec<(Row, Lineage)> {
        self.materialized_lineage_view(0)
    }

    /// Plan `p`'s distinct output rows with their ∨-folded lineage, sorted
    /// by row (see [`Pipeline::materialized_lineage`]).
    pub fn materialized_lineage_view(&self, p: usize) -> Vec<(Row, Lineage)> {
        let mut out: Vec<(Row, Lineage)> = self.views[p]
            .rows
            .iter()
            .map(|(row, instances)| {
                let fold = instances
                    .iter()
                    .map(Lineage::from_tree)
                    .reduce(|acc, l| Lineage::or(&acc, &l))
                    .expect("view rows hold at least one instance");
                (row.clone(), fold)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The first plan's output schema (see [`Pipeline::view_schema`]).
    pub fn schema(&self) -> &Schema {
        &self.views[0].schema
    }

    /// Plan `p`'s output schema.
    pub fn view_schema(&self, p: usize) -> &Schema {
        &self.views[p].schema
    }

    /// Number of plans this pipeline maintains.
    pub fn plan_count(&self) -> usize {
        self.views.len()
    }

    /// Physical operators referenced by more than one attached plan.
    pub fn shared_operators(&self) -> usize {
        self.shared_nodes
    }

    /// The engine ops feeding the physical sources, in source order.
    pub fn taps(&self) -> &[SetOp] {
        &self.taps
    }

    /// Standing instances across all operators (source run maps, join
    /// sides, distinct/aggregate groups, the materialized views) — the
    /// bounded-state gauge: under contiguous-growth workloads it plateaus,
    /// and under shared compilation it grows sub-additively in the number
    /// of plans.
    pub fn state_rows(&self) -> usize {
        let ops: usize = self.nodes.iter().map(|n| n.state.rows()).sum();
        let runs: usize = self.last_run.iter().map(FastMap::len).sum();
        let views: usize = self.views.iter().map(|v| v.len).sum();
        ops + runs + views
    }

    /// Propagation passes executed (one per engine advance).
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// Total deltas operators processed over the pipeline's lifetime.
    pub fn deltas_total(&self) -> u64 {
        self.deltas_total
    }

    /// Per-operator `(name, emitted)` delta counts, in topological order.
    pub fn operator_deltas(&self) -> Vec<(&'static str, u64)> {
        self.nodes
            .iter()
            .map(|n| (n.op.name(), n.emitted))
            .collect()
    }

    /// Per-operator `(name, state_rows, shared_by)` statistics, in
    /// topological order — the observability surface behind the repl's
    /// `\plan` command.
    pub fn operator_stats(&self) -> Vec<(&'static str, usize, u32)> {
        self.nodes
            .iter()
            .map(|n| (n.op.name(), n.state.rows(), n.shared_by))
            .collect()
    }

    /// Human-readable dump of the lowered DAG: per operator its inputs,
    /// live state rows and sharing annotation — the repl's `\plan`
    /// surface.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plans: {}   operators: {} ({} shared)   advances: {}",
            self.plan_count(),
            self.nodes.len(),
            self.shared_nodes,
            self.advances,
        );
        for (i, node) in self.nodes.iter().enumerate() {
            let detail = match &node.op {
                LoweredOp::Source(s) => format!("tap={:?}", self.taps[*s]),
                LoweredOp::Select(p) => format!("pred={p:?}"),
                LoweredOp::Project(cols) => format!("cols={cols:?}"),
                LoweredOp::NlJoin(p) => format!("pred={p:?}"),
                LoweredOp::HashJoin { l_cols, r_cols } => {
                    format!("keys={l_cols:?}={r_cols:?}")
                }
                LoweredOp::UnionAll => String::new(),
                LoweredOp::Distinct => String::new(),
                LoweredOp::Aggregate { keys, aggs } => {
                    format!("keys={keys:?} aggs={}", aggs.len())
                }
                LoweredOp::JoinAggregate {
                    l_cols,
                    r_cols,
                    keys,
                    aggs,
                    ..
                } => format!(
                    "join={l_cols:?}={r_cols:?} keys={keys:?} aggs={}",
                    aggs.len()
                ),
            };
            let inputs: Vec<usize> = self
                .consumers
                .iter()
                .enumerate()
                .flat_map(|(j, cs)| cs.iter().filter(|(c, _)| *c == i).map(move |_| j))
                .collect();
            let _ = write!(
                out,
                "[{i:>2}] {:<9} {:<28} rows={:<6} in={inputs:?}",
                node.op.name(),
                detail,
                node.state.rows(),
            );
            if node.shared_by > 1 {
                let _ = write!(out, " shared(x{})", node.shared_by);
            }
            for &v in &self.node_views[i] {
                let _ = write!(out, " -> view #{v} [{:?}]", self.views[v].schema);
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::CollectingSink;
    use crate::engine::{EngineConfig, Side, StreamEngine};
    use tp_core::arena::LineageArena;
    use tp_core::lineage::{LineageKind, TupleId};
    use tp_core::tuple::TpTuple;
    use tp_relalg::aggregate::AggFn;
    use tp_relalg::incremental::bind_sources;
    use tp_relalg::predicate::{CmpOp, Predicate};

    fn placeholder(cols: &[&str]) -> Relation {
        Relation::empty(Schema::new(cols.iter().copied()))
    }

    /// join(Except, Intersect on fact key) → aggregate count per key.
    fn alert_plan() -> Plan {
        Plan::values(placeholder(&["k", "ts", "te"]))
            .hash_join(
                Plan::values(placeholder(&["k", "ts", "te"])),
                vec![0],
                vec![0],
            )
            .aggregate(vec![0], vec![AggFn::Count, AggFn::Max(2)])
    }

    /// Duplicate-free two-sided workload: per step one tuple per side of
    /// the same fact, right shifted by one — every op has output (Except
    /// the left-only sliver, Intersect the overlap).
    fn push_workload(engine: &mut StreamEngine, n: i64) {
        for k in 0..n {
            let fact = Fact::single(k % 4);
            engine.push(
                Side::Left,
                TpTuple::new(
                    fact.clone(),
                    Lineage::var(TupleId(2 * k as u64)),
                    Interval::at(2 * k, 2 * k + 3),
                ),
            );
            engine.push(
                Side::Right,
                TpTuple::new(
                    fact,
                    Lineage::var(TupleId(2 * k as u64 + 1)),
                    Interval::at(2 * k + 1, 2 * k + 4),
                ),
            );
        }
    }

    fn batch_rows(plan: &Plan, sink: &CollectingSink, taps: &[SetOp], schema: &Schema) -> Vec<Row> {
        let tables: Vec<Relation> = taps
            .iter()
            .map(|&op| encode_relation(&sink.relation(op), schema))
            .collect();
        let mut rows = bind_sources(plan, &tables).execute().rows;
        rows.sort();
        rows
    }

    #[test]
    fn compiled_pipeline_matches_batch_execute() {
        let plan = alert_plan();
        let taps = [SetOp::Except, SetOp::Intersect];
        let mut engine = StreamEngine::with_plan(EngineConfig::default(), &plan, &taps).unwrap();
        let mut sink = CollectingSink::new();
        push_workload(&mut engine, 40);
        for w in [9, 17, 30] {
            engine.advance(w, &mut sink).unwrap();
        }
        engine.finish(&mut sink).unwrap();
        let schema = Schema::new(["k", "ts", "te"]);
        let expect = batch_rows(&plan, &sink, &taps, &schema);
        let got = engine.pipeline().unwrap().materialized();
        assert!(!expect.is_empty(), "vacuous: batch output is empty");
        assert_eq!(got.rows, expect);
        assert_eq!(got.schema.columns(), &["l.k", "count", "max_2"]);
    }

    #[test]
    fn select_project_distinct_union_pipeline_matches_batch() {
        let leaf = || Plan::values(placeholder(&["k", "ts", "te"]));
        let plan = leaf()
            .select(Predicate::col_const(CmpOp::Ge, 1, Value::int(4)))
            .union_all(leaf().project(vec![0, 1, 2]))
            .project(vec![0])
            .distinct();
        let taps = [SetOp::Union, SetOp::Except];
        let mut engine = StreamEngine::with_plan(EngineConfig::default(), &plan, &taps).unwrap();
        let mut sink = CollectingSink::new();
        push_workload(&mut engine, 30);
        for w in [7, 15, 22] {
            engine.advance(w, &mut sink).unwrap();
        }
        engine.finish(&mut sink).unwrap();
        let schema = Schema::new(["k", "ts", "te"]);
        let expect = batch_rows(&plan, &sink, &taps, &schema);
        let got = engine.pipeline().unwrap().materialized();
        assert!(!expect.is_empty());
        assert_eq!(got.rows, expect);
    }

    #[test]
    fn nl_join_theta_pipeline_matches_batch() {
        let leaf = || Plan::values(placeholder(&["k", "ts", "te"]));
        // Interval-overlap theta join: the paper's inequality-join shape.
        let plan = leaf().nl_join(leaf(), Predicate::overlap(1, 2, 4, 5));
        let taps = [SetOp::Except, SetOp::Intersect];
        let mut engine = StreamEngine::with_plan(EngineConfig::default(), &plan, &taps).unwrap();
        let mut sink = CollectingSink::new();
        push_workload(&mut engine, 24);
        for w in [11, 19] {
            engine.advance(w, &mut sink).unwrap();
        }
        engine.finish(&mut sink).unwrap();
        let schema = Schema::new(["k", "ts", "te"]);
        let expect = batch_rows(&plan, &sink, &taps, &schema);
        let got = engine.pipeline().unwrap().materialized();
        assert_eq!(got.rows, expect);
    }

    #[test]
    fn join_lineage_is_conjunction_of_matching_instances() {
        let leaf = || Plan::values(placeholder(&["k", "ts", "te"]));
        let plan = leaf().hash_join(leaf(), vec![0], vec![0]);
        let taps = [SetOp::Except, SetOp::Intersect];
        let mut engine = StreamEngine::with_plan(EngineConfig::default(), &plan, &taps).unwrap();
        let mut sink = CollectingSink::new();
        // One left-only tuple and one both-sides fact: Except carries the
        // left-only output, Intersect the conjunction output.
        engine.push(
            Side::Left,
            TpTuple::new("a", Lineage::var(TupleId(1)), Interval::at(0, 10)),
        );
        engine.push(
            Side::Left,
            TpTuple::new("b", Lineage::var(TupleId(2)), Interval::at(0, 10)),
        );
        engine.push(
            Side::Right,
            TpTuple::new("b", Lineage::var(TupleId(3)), Interval::at(0, 10)),
        );
        engine.finish(&mut sink).unwrap();
        let out = engine.pipeline().unwrap().materialized_lineage();
        // 'a' is Except-only (no Intersect partner): no join output for it;
        // 'b' appears on both taps and joins.
        assert_eq!(out.len(), 1);
        let (row, lineage) = &out[0];
        assert_eq!(row[0], Value::str("b"));
        assert!(
            matches!(lineage.kind(), LineageKind::And(_, _)),
            "join output lineage must be a conjunction, got {lineage:?}"
        );
    }

    fn var_leaf(i: u64) -> LineageTree {
        LineageTree::Var(TupleId(i))
    }

    /// Whether both handles hold the very same node.
    fn same_node(a: &LineageTree, b: &LineageTree) -> bool {
        match (a, b) {
            (LineageTree::Not(x), LineageTree::Not(y)) => Arc::ptr_eq(x, y),
            (LineageTree::And(x), LineageTree::And(y))
            | (LineageTree::Or(x), LineageTree::Or(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    fn grouped(op: LoweredOp) -> Node {
        Node {
            state: OpState::for_op(&op),
            op,
            inbox: Vec::new(),
            emitted: 0,
            shared_by: 1,
        }
    }

    /// Every group's side folds, and the published lineage built from
    /// them, equal from-scratch stored-order folds
    /// over its current members; a group publishes iff no side is empty.
    fn assert_published_folds_are_fresh<K, M: Member, const N: usize>(
        groups: &FastMap<K, Group<M, N>>,
    ) {
        assert!(!groups.is_empty(), "vacuous: no groups");
        for g in groups.values() {
            let fresh: Vec<Option<LineageTree>> = g
                .sides
                .iter()
                .map(|members| or_fold(None, members.iter().map(M::lineage)))
                .collect();
            for (fold, fresh) in g.folds.iter().zip(&fresh) {
                assert_eq!(fold, fresh);
            }
            let fresh_published = match fresh.as_slice() {
                [Some(f)] => Some(f.clone()),
                [Some(l), Some(r)] => Some(LineageTree::and(l.clone(), r.clone())),
                _ => None,
            };
            assert_eq!(
                g.published.as_ref().map(|p| &p.lineage),
                fresh_published.as_ref()
            );
        }
    }

    #[test]
    fn incremental_group_folds_keep_the_stored_order_shape() {
        let l: Vec<LineageTree> = (0..8).map(var_leaf).collect();
        // A join output as a member.
        let j = LineageTree::and(l[6].clone(), l[7].clone());
        let t = |k: i64, te: i64, lineage: &LineageTree| PipeTuple {
            row: vec![Value::int(k), Value::int(0), Value::int(te)],
            lineage: lineage.clone(),
        };
        let ins = |k, te, lineage| PipeDelta::Ins(t(k, te, lineage));
        let del = |k, te, lineage| PipeDelta::Del(t(k, te, lineage));
        let batches = [
            // New groups.
            vec![ins(0, 1, &l[0]), ins(0, 2, &l[1]), ins(1, 1, &l[2])],
            // Append-only: one `or` onto each published fold.
            vec![ins(0, 3, &l[3]), ins(1, 2, &j)],
            // Same-lineage regrow (an `Extend`): the member moves last.
            vec![del(0, 2, &l[1]), ins(0, 4, &l[1])],
            // Append and retract in one batch.
            vec![ins(1, 3, &l[4]), del(0, 1, &l[0])],
            // A group emptied and recreated within the batch.
            vec![
                del(1, 1, &l[2]),
                del(1, 2, &j),
                del(1, 3, &l[4]),
                ins(1, 5, &l[5]),
            ],
            vec![ins(0, 6, &j), ins(0, 7, &l[2])],
        ];
        let mut aggregate = grouped(LoweredOp::Aggregate {
            keys: vec![0],
            aggs: vec![AggFn::Count],
        });
        // Distinct over the key column alone, so rows hold several
        // instances.
        let mut distinct = grouped(LoweredOp::Distinct);
        for (b, batch) in batches.into_iter().enumerate() {
            let published_before = match &aggregate.state {
                OpState::Aggregate(groups) => groups
                    .get(&vec![Value::int(0)])
                    .and_then(|g| g.published.clone()),
                _ => unreachable!(),
            };
            let keyed = batch
                .iter()
                .map(|d| {
                    let mut d = d.clone();
                    let (PipeDelta::Ins(t) | PipeDelta::Del(t)) = &mut d;
                    t.row.truncate(1);
                    (0, d)
                })
                .collect();
            distinct.apply_grouped(keyed, &mut Vec::new());
            aggregate.apply_grouped(batch.into_iter().map(|d| (0, d)).collect(), &mut Vec::new());
            let (OpState::Aggregate(agg_groups), OpState::Distinct(distinct_groups)) =
                (&aggregate.state, &distinct.state)
            else {
                unreachable!()
            };
            assert_published_folds_are_fresh(agg_groups);
            assert_published_folds_are_fresh(distinct_groups);
            if b == 1 {
                let old = published_before.expect("group 0 published in batch 0");
                let new = &agg_groups[&vec![Value::int(0)]].published;
                assert!(
                    matches!(&new.as_ref().unwrap().lineage,
                        LineageTree::Or(prev) if same_node(&prev[0], &old.lineage)),
                    "an append-only batch must extend the published fold"
                );
            }
        }
    }

    #[test]
    fn fused_join_aggregate_extends_one_side_fold_and_refolds_only_a_retracting_side() {
        let op = LoweredOp::JoinAggregate {
            l_cols: vec![0],
            r_cols: vec![0],
            l_arity: 3,
            keys: vec![3],
            aggs: vec![AggFn::Count, AggFn::Max(2), AggFn::Min(4)],
        };
        let mut node = grouped(op);
        let l: Vec<LineageTree> = (0..6).map(var_leaf).collect();
        let r: Vec<LineageTree> = (10..13).map(var_leaf).collect();
        let t = |k: i64, ts: i64, te: i64, lineage: &LineageTree| PipeTuple {
            row: vec![Value::int(k), Value::int(ts), Value::int(te)],
            lineage: lineage.clone(),
        };
        let ins = |port, k, ts, te, lineage| (port, PipeDelta::Ins(t(k, ts, te, lineage)));
        let del = |port, k, ts, te, lineage| (port, PipeDelta::Del(t(k, ts, te, lineage)));
        let batches = [
            // Key 0 gets both sides; key 1 only a left member.
            vec![
                ins(0, 0, 0, 1, &l[0]),
                ins(0, 0, 0, 2, &l[1]),
                ins(1, 0, 1, 3, &r[0]),
                ins(1, 0, 5, 6, &r[2]),
                ins(0, 1, 0, 1, &l[2]),
            ],
            // Append-only on the left.
            vec![ins(0, 0, 0, 5, &l[3]), ins(0, 0, 0, 6, &l[4])],
            // An `Extend` regrow on the right.
            vec![del(1, 0, 1, 3, &r[0]), ins(1, 0, 4, 8, &r[0])],
            // Key 1's right side arrives; its left fold was kept meanwhile.
            vec![ins(1, 1, 2, 9, &r[1])],
            // Key 0 loses its right side: retracted, its left side stays.
            vec![
                del(1, 0, 4, 8, &r[0]),
                del(1, 0, 5, 6, &r[2]),
                ins(0, 1, 0, 4, &l[5]),
            ],
        ];
        let key = |k: i64| vec![Value::int(k)];
        let mut emitted = Vec::new();
        let mut before: Option<[Option<LineageTree>; 2]> = None;
        for (b, batch) in batches.into_iter().enumerate() {
            let mut out = Vec::new();
            node.apply_grouped(batch, &mut out);
            emitted.push(
                out.iter()
                    .map(|d| match d {
                        PipeDelta::Ins(t) => (true, t.row.clone()),
                        PipeDelta::Del(t) => (false, t.row.clone()),
                    })
                    .collect::<Vec<_>>(),
            );
            let OpState::JoinAggregate(groups) = &node.state else {
                unreachable!()
            };
            assert_published_folds_are_fresh(groups);
            let g = &groups[&key(0)];
            let same = |a: &Option<LineageTree>, b: &Option<LineageTree>| match (a, b) {
                (Some(a), Some(b)) => same_node(a, b),
                _ => false,
            };
            match b {
                1 => {
                    let prev = before.as_ref().unwrap();
                    assert!(
                        same(&g.folds[1], &prev[1]),
                        "an untouched side keeps its fold"
                    );
                    let Some(LineageTree::Or(outer)) = &g.folds[0] else {
                        panic!("an appended side extends its fold");
                    };
                    assert!(
                        matches!(&outer[0], LineageTree::Or(inner)
                            if same_node(&inner[0], prev[0].as_ref().unwrap())),
                        "one `or` per appended member onto the previous fold"
                    );
                    let published = &g.published.as_ref().unwrap().lineage;
                    assert!(
                        matches!(published, LineageTree::And(ac)
                            if same_node(&ac[0], g.folds[0].as_ref().unwrap())
                                && same_node(&ac[1], g.folds[1].as_ref().unwrap())),
                        "the group lineage is the `and` of the side folds"
                    );
                }
                2 => {
                    let prev = before.as_ref().unwrap();
                    assert!(
                        same(&g.folds[0], &prev[0]),
                        "a Del refolds only its own side"
                    );
                    assert!(!same(&g.folds[1], &prev[1]), "the retracting side refolds");
                }
                _ => {}
            }
            before = Some(g.folds.clone());
        }
        let row = |k: i64, count: i64, max_te: i64, min_ts: i64| {
            vec![k, count, max_te, min_ts]
                .into_iter()
                .map(Value::int)
                .collect::<Row>()
        };
        assert_eq!(
            emitted,
            vec![
                vec![(true, row(0, 4, 2, 1))],
                vec![(false, row(0, 4, 2, 1)), (true, row(0, 8, 6, 1))],
                // The Min over the right side is rescanned after its Del.
                vec![(false, row(0, 8, 6, 1)), (true, row(0, 8, 6, 4))],
                vec![(true, row(1, 1, 1, 2))],
                vec![
                    (false, row(0, 8, 6, 4)),
                    (false, row(1, 1, 1, 2)),
                    (true, row(1, 2, 4, 2))
                ],
            ]
        );
    }

    #[test]
    fn deep_folds_compare_import_and_drop_iteratively() {
        // Far deeper than a recursive walk survives on a test thread.
        let leaves: Vec<LineageTree> = (0..100_000).map(var_leaf).collect();
        let a = or_fold(None, &leaves).unwrap();
        let b = or_fold(None, &leaves).unwrap();
        let mut swapped = leaves.clone();
        swapped.swap(0, 1);
        let c = or_fold(None, &swapped).unwrap();
        assert!(a == b, "separately built folds of one member list");
        assert!(a != c, "folds differing only at the bottom");
        let arena = LineageArena::shared(1);
        let _scope = LineageArena::enter(&arena);
        assert_eq!(Lineage::from_tree(&a), Lineage::from_tree(&b));
        assert_ne!(Lineage::from_tree(&a), Lineage::from_tree(&c));
        drop(leaves);
        drop(swapped);
    }

    #[test]
    fn extends_keep_state_bounded_and_match_batch() {
        // Immortal facts cut by the watermark: every advance re-emits each
        // fact's output as an Extend (same lineage handle across the
        // split), so each operator only retracts-and-regrows its standing
        // rows — state_rows plateaus while the watermark runs on.
        let plan = alert_plan();
        let taps = [SetOp::Union, SetOp::Intersect];
        let mut engine = StreamEngine::with_plan(EngineConfig::default(), &plan, &taps).unwrap();
        let mut sink = CollectingSink::new();
        for f in 0..4i64 {
            for (side, off) in [(Side::Left, 0), (Side::Right, 1)] {
                let t = TpTuple::new(
                    Fact::single(f),
                    Lineage::var(TupleId((f * 2 + off) as u64)),
                    Interval::at(0, 300),
                );
                engine.push(side, t);
            }
        }
        let mut state = Vec::new();
        for epoch in 0..30i64 {
            engine.advance((epoch + 1) * 10, &mut sink).unwrap();
            state.push(engine.pipeline().unwrap().state_rows());
        }
        engine.finish(&mut sink).unwrap();
        let schema = Schema::new(["k", "ts", "te"]);
        let expect = batch_rows(&plan, &sink, &taps, &schema);
        let got = engine.pipeline().unwrap().materialized();
        assert_eq!(got.rows, expect);
        // Plateau: the second half of the run adds no standing state.
        let mid = state[state.len() / 2];
        let end = *state.last().unwrap();
        assert_eq!(mid, end, "state kept growing: {state:?}");
        assert!(end > 0);
    }

    #[test]
    fn compile_rejects_bad_taps_and_sort() {
        let plan = alert_plan();
        assert!(matches!(
            Pipeline::compile(&plan, &[SetOp::Union]),
            Err(PipelineError::TapCount {
                sources: 2,
                taps: 1
            })
        ));
        let sorted = Plan::values(placeholder(&["k", "ts", "te"])).sort(vec![0]);
        assert!(matches!(
            Pipeline::compile(&sorted, &[SetOp::Union]),
            Err(PipelineError::Lower(LowerError::Sort))
        ));
        let thin = Plan::values(placeholder(&["ts", "te"]));
        assert!(matches!(
            Pipeline::compile(&thin, &[SetOp::Union]),
            Err(PipelineError::SourceArity {
                source: 0,
                arity: 2
            })
        ));
        // A tap outside the engine's maintained ops is rejected at attach.
        let cfg = EngineConfig {
            ops: vec![SetOp::Union],
            ..Default::default()
        };
        let leaf = Plan::values(placeholder(&["k", "ts", "te"]));
        assert!(matches!(
            StreamEngine::with_plan(cfg, &leaf, &[SetOp::Except]),
            Err(PipelineError::TapNotMaintained(SetOp::Except))
        ));
    }

    #[test]
    fn with_plans_rejects_an_empty_plan_list() {
        let err = StreamEngine::with_plans(EngineConfig::default(), &[], &[]).err();
        assert_eq!(err, Some(PipelineError::NoPlans));
        assert!(err.unwrap().to_string().contains("no plans"));
    }

    #[test]
    fn with_plans_rejects_one_tap_list_per_plan_mismatch() {
        let plan = alert_plan();
        let taps = vec![SetOp::Except, SetOp::Intersect];
        let cases = [
            (vec![plan.clone(), plan.clone()], vec![taps.clone()]),
            (vec![plan], vec![taps.clone(), taps]),
        ];
        for (plans, tap_lists) in cases {
            let err = StreamEngine::with_plans(EngineConfig::default(), &plans, &tap_lists).err();
            assert_eq!(
                err,
                Some(PipelineError::TapLists {
                    plans: plans.len(),
                    tap_lists: tap_lists.len(),
                })
            );
        }
    }

    #[test]
    fn compile_shared_merges_identical_subdags() {
        // Two plans over the identical hash join; only the tops differ. The
        // aggregate groups by a non-key column, so the join stays a join.
        let join = || {
            Plan::values(placeholder(&["k", "ts", "te"])).hash_join(
                Plan::values(placeholder(&["k", "ts", "te"])),
                vec![0],
                vec![0],
            )
        };
        let a = join().aggregate(vec![1], vec![AggFn::Count]);
        let b = join().distinct();
        let taps = vec![
            vec![SetOp::Except, SetOp::Intersect],
            vec![SetOp::Except, SetOp::Intersect],
        ];
        let shared = Pipeline::compile_shared(&[a.clone(), b.clone()], &taps).unwrap();
        // Two sources + one join shared; aggregate and distinct private.
        assert_eq!(shared.plan_count(), 2);
        assert_eq!(shared.shared_operators(), 3);
        assert_eq!(shared.nodes.len(), 5);
        // Different tap bindings must NOT merge.
        let other_taps = vec![
            vec![SetOp::Except, SetOp::Intersect],
            vec![SetOp::Union, SetOp::Intersect],
        ];
        let split = Pipeline::compile_shared(&[a, b], &other_taps).unwrap();
        assert_eq!(split.shared_operators(), 1); // only the Intersect source
        assert_eq!(split.nodes.len(), 7);
    }

    #[test]
    fn shared_pipeline_matches_per_plan_views_and_is_subadditive() {
        let join = || {
            Plan::values(placeholder(&["k", "ts", "te"])).hash_join(
                Plan::values(placeholder(&["k", "ts", "te"])),
                vec![0],
                vec![0],
            )
        };
        let plans = [
            join().aggregate(vec![0], vec![AggFn::Count, AggFn::Max(2)]),
            join().project(vec![0]).distinct(),
        ];
        let taps = vec![
            vec![SetOp::Except, SetOp::Intersect],
            vec![SetOp::Except, SetOp::Intersect],
        ];
        let mut shared = StreamEngine::with_plans(EngineConfig::default(), &plans, &taps).unwrap();
        let mut solo: Vec<StreamEngine> = plans
            .iter()
            .map(|p| StreamEngine::with_plan(EngineConfig::default(), p, &taps[0]).unwrap())
            .collect();
        let mut sink = CollectingSink::new();
        push_workload(&mut shared, 40);
        for e in &mut solo {
            push_workload(e, 40);
        }
        for w in [9, 17, 30] {
            shared.advance(w, &mut sink).unwrap();
            for e in &mut solo {
                e.advance(w, &mut CollectingSink::new()).unwrap();
            }
        }
        shared.finish(&mut sink).unwrap();
        for e in &mut solo {
            e.finish(&mut CollectingSink::new()).unwrap();
        }
        let sp = shared.pipeline().unwrap();
        let schema = Schema::new(["k", "ts", "te"]);
        for (i, e) in solo.iter().enumerate() {
            let expect = batch_rows(&plans[i], &sink, &taps[i], &schema);
            assert!(!expect.is_empty());
            assert_eq!(sp.materialized_view(i).rows, expect);
            assert_eq!(
                e.pipeline().unwrap().materialized().rows,
                sp.materialized_view(i).rows
            );
        }
        // Sub-additive state: the shared join is paid for once.
        let duplicated: usize = solo
            .iter()
            .map(|e| e.pipeline().unwrap().state_rows())
            .sum();
        assert!(
            sp.state_rows() < duplicated,
            "shared {} !< duplicated {duplicated}",
            sp.state_rows()
        );
    }

    #[test]
    fn describe_reports_sharing_rates_and_views() {
        let join = || {
            Plan::values(placeholder(&["k", "ts", "te"])).hash_join(
                Plan::values(placeholder(&["k", "ts", "te"])),
                vec![0],
                vec![0],
            )
        };
        let plans = [join().distinct(), join().project(vec![0])];
        let taps = vec![
            vec![SetOp::Except, SetOp::Intersect],
            vec![SetOp::Except, SetOp::Intersect],
        ];
        let mut engine = StreamEngine::with_plans(EngineConfig::default(), &plans, &taps).unwrap();
        let mut sink = CollectingSink::new();
        push_workload(&mut engine, 20);
        engine.advance(15, &mut sink).unwrap();
        let text = engine.pipeline().unwrap().describe();
        assert!(text.contains("plans: 2"), "{text}");
        assert!(text.contains("shared(x2)"), "{text}");
        assert!(text.contains("-> view #0"), "{text}");
        assert!(text.contains("-> view #1"), "{text}");
        assert!(text.contains("rows="), "{text}");
    }
}
