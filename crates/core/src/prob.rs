//! Probabilistic valuation of lineage formulas: marginals only.
//!
//! The marginal probability of a result tuple is the probability that its
//! lineage evaluates to true under independent Boolean variables (§III).
//! Three algorithms are provided, mirroring the paper's discussion:
//!
//! * [`independent`] — linear time, **exact for 1OF formulas** (Corollary 1:
//!   non-repeating TP set queries over duplicate-free relations always
//!   produce 1OF lineage, hence PTIME data complexity).
//! * [`exact`] — Shannon expansion with memoization; exact for arbitrary
//!   formulas, exponential in the worst case (TP set queries with repeating
//!   subgoals are #P-hard, paper reference \[30\]).
//! * [`monte_carlo`] — seeded sampling with a Hoeffding confidence bound,
//!   standing in for the anytime-approximation literature the paper cites
//!   (\[25\]–\[29\]).
//!
//! [`marginal`] dispatches one root: linear path for 1OF, Shannon
//! otherwise. [`marginal_batch`] values many roots in one pass: 1OF cones
//! in lane-blocked columns, and a non-1OF root by enumerating the worlds
//! of its repeated variables on the arena DAG (at most 64 unique cone
//! nodes and 6 repeated variables). A root over either cap, or one whose
//! variables do not resolve, falls back to [`marginal`].
//!
//! ## Memoization
//!
//! Lineage is hash-consed (see [`crate::arena`]), so a formula's identity is
//! its [`crate::arena::LineageRef`], and a shared subformula is one node.
//! Every valuation memoizes within one call only: the linear path per node,
//! Shannon expansion per conditioned subformula, [`marginal_batch`] per
//! column slot. Nothing persists between calls, so a formula valued twice
//! is computed twice, by the same deterministic arithmetic, and a formula
//! over released variables errors however often it was valued before.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::arena::{
    ArenaView, FastMap, LineageArena, LineageNode, LineageRef, SegmentId, SegmentSnapshot,
};
use crate::error::Result;
use crate::lineage::{Lineage, LineageTree, TupleId};
use crate::relation::VarTable;

/// Linear-time valuation that treats every connective's operands as
/// independent. Exact iff the formula is in one-occurrence form; callers
/// with possibly-repeating formulas should use [`marginal`].
///
/// Each shared node is valued once per call (a per-call memo keyed by
/// ref), and the arena and var-store locks are each taken **once per
/// call**, not per node.
pub fn independent(lineage: &Lineage, vars: &VarTable) -> Result<f64> {
    LineageArena::with_current(|arena| {
        let view = arena.view();
        let probs = vars.prob_reader();
        let mut memo: FastMap<LineageRef, f64> = FastMap::default();
        independent_rec(lineage.node_ref(), &view, &probs, &mut memo)
    })
}

fn independent_rec(
    r: LineageRef,
    view: &ArenaView<'_>,
    probs: &crate::relation::ProbReader<'_>,
    memo: &mut FastMap<LineageRef, f64>,
) -> Result<f64> {
    if let Some(&p) = memo.get(&r) {
        return Ok(p);
    }
    let p = match view.node(r) {
        LineageNode::Var(id) => probs.prob(id)?,
        LineageNode::Not(c) => 1.0 - independent_rec(c, view, probs, memo)?,
        LineageNode::And(a, b) => {
            independent_rec(a, view, probs, memo)? * independent_rec(b, view, probs, memo)?
        }
        LineageNode::Or(a, b) => {
            let pa = independent_rec(a, view, probs, memo)?;
            let pb = independent_rec(b, view, probs, memo)?;
            1.0 - (1.0 - pa) * (1.0 - pb)
        }
    };
    memo.insert(r, p);
    Ok(p)
}

/// Tree-expansion ceiling for Shannon expansion: below it the expansion
/// runs on a transient [`LineageTree`] (scratch subformulas are freed with
/// the call); above it — which takes adversarial DAG sharing, since every
/// operator output is linear in its inputs — the expansion conditions
/// interned handles instead, trading permanent arena growth for not
/// materializing an enormous tree.
const TREE_SHANNON_CAP: usize = 1 << 20;

/// Exact marginal probability by Shannon expansion:
/// `P(λ) = p(x)·P(λ|x=true) + (1−p(x))·P(λ|x=false)`,
/// expanding on the smallest repeated variable and memoizing conditioned
/// subformulas per call.
///
/// The expansion works on a transient [`LineageTree`] copy of the formula,
/// so its (worst-case exponentially many) conditioned scratch subformulas
/// are **not** interned into the process-global arena. Formulas in 1OF
/// short-circuit to the linear path — including formulas whose interned
/// 1OF flag is conservatively `false` (beyond
/// [`crate::arena::VAR_LIST_CAP`]): the tree check here is exact, so they
/// cost one tree expansion and a linear walk, never a quadratic expansion.
///
/// Worst-case exponential in the number of *repeated* variables.
pub fn exact(lineage: &Lineage, vars: &VarTable) -> Result<f64> {
    if lineage.is_one_occurrence_form() {
        return independent(lineage, vars);
    }
    if lineage.size() <= TREE_SHANNON_CAP {
        let tree = lineage.to_tree();
        if tree.is_one_occurrence_form() {
            // The interned flag was conservative; the formula is 1OF after
            // all. Exact via the legacy linear walker.
            tree.independent_prob(vars)
        } else {
            let mut memo: HashMap<LineageTree, f64> = HashMap::new();
            shannon_tree(&tree, vars, &mut memo)
        }
    } else if lineage.vars().len() == lineage.var_occurrences() {
        // Beyond the tree cap, but the linear DAG check proves the formula
        // genuinely 1OF despite a conservative interned flag: valuate
        // linearly instead of expanding.
        independent(lineage, vars)
    } else {
        let mut local: FastMap<LineageRef, f64> = FastMap::default();
        exact_rec_interned(*lineage, vars, &mut local)
    }
}

/// Shannon expansion over the transient tree, memoized on conditioned
/// subtrees (structural hashing; nothing touches the arena).
fn shannon_tree(
    t: &LineageTree,
    vars: &VarTable,
    memo: &mut HashMap<LineageTree, f64>,
) -> Result<f64> {
    if t.is_one_occurrence_form() {
        return t.independent_prob(vars);
    }
    if let Some(&p) = memo.get(t) {
        return Ok(p);
    }
    // Expand on a repeated variable (expanding on a variable that occurs
    // once does not simplify the sharing structure); the smallest repeated
    // variable keeps the recursion deterministic.
    let pivot = pick_pivot_tree(t);
    let px = vars.prob(pivot)?;
    let p_true = match t.condition(pivot, true) {
        Ok(c) => shannon_tree(&c, vars, memo)?,
        Err(b) => bool_to_p(b),
    };
    let p_false = match t.condition(pivot, false) {
        Ok(c) => shannon_tree(&c, vars, memo)?,
        Err(b) => bool_to_p(b),
    };
    let p = px * p_true + (1.0 - px) * p_false;
    memo.insert(t.clone(), p);
    Ok(p)
}

/// Fallback expansion for formulas whose tree expansion would exceed
/// [`TREE_SHANNON_CAP`]: conditions interned handles (memoized O(1) by
/// ref), accepting that the conditioned scratch formulas are interned
/// permanently.
fn exact_rec_interned(
    l: Lineage,
    vars: &VarTable,
    local: &mut FastMap<LineageRef, f64>,
) -> Result<f64> {
    if l.is_one_occurrence_form() {
        return independent(&l, vars);
    }
    if let Some(&p) = local.get(&l.node_ref()) {
        return Ok(p);
    }
    let pivot = pick_pivot_interned(&l);
    let px = vars.prob(pivot)?;
    let p_true = match l.condition(pivot, true) {
        Ok(c) => exact_rec_interned(c, vars, local)?,
        Err(b) => bool_to_p(b),
    };
    let p_false = match l.condition(pivot, false) {
        Ok(c) => exact_rec_interned(c, vars, local)?,
        Err(b) => bool_to_p(b),
    };
    let p = px * p_true + (1.0 - px) * p_false;
    local.insert(l.node_ref(), p);
    Ok(p)
}

fn bool_to_p(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Smallest variable occurring more than once (falling back to the
/// smallest variable overall): the deterministic pivot policy shared by
/// both expansion paths.
fn pick_pivot(counts: &FastMap<TupleId, u64>) -> TupleId {
    counts
        .iter()
        .filter(|(_, &c)| c > 1)
        .map(|(&id, _)| id)
        .min()
        .or_else(|| counts.keys().min().copied())
        .expect("formula has at least one variable")
}

fn pick_pivot_tree(t: &LineageTree) -> TupleId {
    pick_pivot(&t.var_multiplicities())
}

fn pick_pivot_interned(lineage: &Lineage) -> TupleId {
    // Tree-semantic multiplicities via one pass over the shared DAG.
    pick_pivot(&lineage.var_multiplicities())
}

/// Result of a Monte-Carlo estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEstimate {
    /// Point estimate of the marginal probability.
    pub estimate: f64,
    /// Half-width of the two-sided 95% Hoeffding confidence interval.
    pub half_width_95: f64,
    /// Number of samples drawn.
    pub samples: u64,
}

/// Monte-Carlo estimation of the marginal probability with a deterministic
/// seed (experiments must be reproducible).
pub fn monte_carlo(
    lineage: &Lineage,
    vars: &VarTable,
    samples: u64,
    seed: u64,
) -> Result<McEstimate> {
    assert!(samples > 0, "at least one sample required");
    // Resolve variable probabilities once; also surfaces UnknownVariable
    // before sampling starts.
    let used: Vec<TupleId> = lineage.vars().into_iter().collect();
    let mut probs: HashMap<TupleId, f64> = HashMap::with_capacity(used.len());
    for id in &used {
        probs.insert(*id, vars.prob(*id)?);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits: u64 = 0;
    let mut world: HashMap<TupleId, bool> = HashMap::with_capacity(used.len());
    // Expand once and evaluate the plain tree per sample: the per-sample
    // cost is a pointer walk, with no arena lock round trip and no memo
    // allocation inside the sampling loop. Adversarially shared DAGs (tree
    // expansion beyond the cap) fall back to the memoized DAG evaluator.
    let tree = (lineage.size() <= TREE_SHANNON_CAP).then(|| lineage.to_tree());
    for _ in 0..samples {
        for id in &used {
            let p = probs[id];
            world.insert(*id, rng.random::<f64>() < p);
        }
        let sat = match &tree {
            Some(t) => t.eval(&|id| world[&id]),
            None => lineage.eval(&|id| world[&id]),
        };
        if sat {
            hits += 1;
        }
    }
    let estimate = hits as f64 / samples as f64;
    // Hoeffding: P(|p̂ − p| ≥ ε) ≤ 2·exp(−2nε²); 95% ⇒ ε = sqrt(ln(2/0.05)/(2n)).
    let half_width_95 = ((2.0f64 / 0.05).ln() / (2.0 * samples as f64)).sqrt();
    Ok(McEstimate {
        estimate,
        half_width_95,
        samples,
    })
}

/// The default exact valuation: linear-time for 1OF lineage (the guaranteed
/// case for non-repeating TP set queries), Shannon expansion otherwise.
/// Many roots at once go through [`marginal_batch`].
pub fn marginal(lineage: &Lineage, vars: &VarTable) -> Result<f64> {
    if lineage.is_one_occurrence_form() {
        independent(lineage, vars)
    } else {
        exact(lineage, vars)
    }
}

/// Batch marginal valuation with a **columnar kernel**: instead of chasing
/// each root's `LineageRef`s through the memo map one node at a time, the
/// kernel walks the dense slot arrays of every arena segment the batch can
/// reach **in slot order**, writing each node's probability into a
/// per-segment flat `Vec<f64>`. Children are interned no later than their
/// parents (the arena's `min_seg` invariant), so a single in-order pass
/// sees every operand before its first consumer: resolving a child is one
/// array index — same-segment refs hit the column being filled, earlier
/// segments hit an already-completed column — with no hashing and no
/// recursion.
///
/// The columns cover 1OF roots (the guaranteed case for non-repeating TP
/// set queries, Corollary 1), where the independence-assumption value *is*
/// the exact marginal; every subformula of a 1OF formula is 1OF, so the
/// whole reachable cone valuates columnar.
///
/// The walk is **pruned to the roots' reachable cones**: a mark pass
/// first flags exactly the slots the batch can reach in per-segment block
/// bitmaps, and the columnar pass then touches only marked blocks, still
/// in ascending `(segment, slot)` order (children are interned no later
/// than their consumers, so the order is a valid schedule). Unrelated
/// resident nodes — the common case in a shared arena carrying other
/// queries' lineage — cost nothing: no dense per-segment column is ever
/// allocated, storage is packed per reachable block
/// (`LaneColumn`). Interior reclamation holes are skipped; a live root
/// never resolves into one.
///
/// The columns are **lane-blocked**: slots are grouped into fixed
/// `LANE_COUNT`-lane `[f64; 8]` blocks with per-block validity masks.
/// Each block valuates in two sub-passes — leaves (`Var`) first, then
/// interior operators in ascending lane order — over plain fixed-size
/// arrays, so the inner loops carry no hashing, no recursion, and no
/// data-dependent allocation, and stable rustc can unroll/autovectorize
/// them. Lane validity is blended branch-free from the mask byte; invalid
/// lanes hold `NaN`, which propagates through the arithmetic and routes
/// the affected root to the fallback.
///
/// Non-1OF roots are valued exactly in place by **world enumeration**
/// (`WorldScratch`). The root's cone is collected in postorder from the
/// same pinned segment snapshots, each node recording its operands'
/// positions. Tree multiplicity flows from the root to the leaves; a
/// `Var` node is hash-consed, so its multiplicity is its variable's
/// occurrence count, and the repeated set `R` is the variables occurring
/// more than once. Each of the `2^|R|` worlds fixes `R`; every other
/// variable then occurs once, so the independence value of the cone is
/// exact in that world, and the marginal is the world-weighted sum. The
/// worlds are valued `LANE_COUNT` at a time. Scratch buffers are reused
/// across the roots of one call; the path interns nothing.
///
/// A root whose cone has more than 64 unique nodes or more than 6
/// repeated variables, a root whose variables fail to resolve
/// mid-column (e.g. released cohorts), and a column miss fall back to
/// [`marginal`] per root, which also reports the error. The fallback is bit-identical for 1OF
/// roots by construction, since the column applies the same f64
/// operations in the same operand order as [`independent`]'s recursion
/// (`Var → p`, `Not → 1−p`, `And → p_a·p_b`, `Or → 1−(1−p_a)(1−p_b)`),
/// and each unique node is computed exactly once on both paths. For an
/// enumerated root it agrees with Shannon expansion up to rounding.
///
/// Nodes valuated columnar are counted in
/// `tp_valuation_batched_nodes_total`, roots handed to [`marginal`] in
/// `tp_valuation_fallback_roots_total`.
pub fn marginal_batch(lineages: &[Lineage], vars: &VarTable) -> Result<Vec<f64>> {
    if lineages.is_empty() {
        return Ok(Vec::new());
    }
    LineageArena::with_current(|arena| {
        let mut snaps = Snapshots::new(arena);
        let mut batched = vec![false; lineages.len()];
        let mut stack: Vec<LineageRef> = Vec::new();
        for (i, l) in lineages.iter().enumerate() {
            let r = l.node_ref();
            if snaps.node(r).is_some_and(|(_, one_of)| one_of) {
                batched[i] = true;
                stack.push(r);
            }
        }
        // Mark pass: flag the slots reachable from the batched roots, one
        // mask byte per 8-slot block.
        let mut marks: FastMap<u32, Vec<u8>> = FastMap::default();
        while let Some(r) = stack.pop() {
            let seg = r.segment().0;
            let Some(snap) = snaps.segment(seg) else {
                continue; // interior hole or never-opened id
            };
            let slot = r.slot() as usize;
            let mark = marks
                .entry(seg)
                .or_insert_with(|| vec![0u8; (snap.len() as usize).div_ceil(LANE_COUNT)]);
            let (block, lane) = (slot / LANE_COUNT, slot % LANE_COUNT);
            if block >= mark.len() || mark[block] >> lane & 1 == 1 {
                continue;
            }
            mark[block] |= 1 << lane;
            let Some((node, one_of)) = snap.node_at(r.slot()) else {
                continue;
            };
            if !one_of {
                continue; // non-1OF cones go through `marginal`
            }
            match node {
                LineageNode::Var(_) => {}
                LineageNode::Not(c) => stack.push(c),
                LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        let mut segs: Vec<u32> = marks.keys().copied().collect();
        segs.sort_unstable();
        let mut cols: FastMap<u32, LaneColumn> = FastMap::default();
        let mut batched_nodes = 0u64;
        // Dropped before the fallback below, which takes its own reads.
        let probs = vars.prob_reader();
        if !segs.is_empty() {
            for seg in segs {
                let Some(snap) = snaps.segment(seg) else {
                    continue;
                };
                let mark = marks.get(&seg).expect("marked segment has a bitmap");
                let mut col = LaneColumn::with_marks(mark);
                for (b, &m) in mark.iter().enumerate() {
                    if m == 0 {
                        continue; // block unreachable from the batch
                    }
                    let base = (b * LANE_COUNT) as u32;
                    let mut block = [f64::NAN; LANE_COUNT];
                    let mut done = 0u8;
                    // Sub-pass 1 — leaves: Var lanes have no operands, so
                    // they fill in any order.
                    for (lane, slot) in block.iter_mut().enumerate() {
                        if m >> lane & 1 == 0 {
                            continue;
                        }
                        let Some((node, one_of)) = snap.node_at(base + lane as u32) else {
                            continue;
                        };
                        if !one_of {
                            continue;
                        }
                        if let LineageNode::Var(id) = node {
                            *slot = probs.prob(id).unwrap_or(f64::NAN);
                            done |= 1 << lane;
                            batched_nodes += 1;
                        }
                    }
                    // Sub-pass 2 — interior operators, ascending lane
                    // order: a child lives at a strictly smaller slot, so
                    // it is either an earlier lane of this block (read
                    // from `block` directly), an earlier block of this
                    // segment, or a completed segment column.
                    for lane in 0..LANE_COUNT {
                        if m >> lane & 1 == 0 || done >> lane & 1 == 1 {
                            continue;
                        }
                        let Some((node, one_of)) = snap.node_at(base + lane as u32) else {
                            continue;
                        };
                        if !one_of {
                            continue;
                        }
                        let p = match node {
                            LineageNode::Var(_) => unreachable!("vars filled in sub-pass 1"),
                            LineageNode::Not(c) => 1.0 - lane_prob(&block, b, &col, &cols, seg, c),
                            LineageNode::And(a, b2) => {
                                lane_prob(&block, b, &col, &cols, seg, a)
                                    * lane_prob(&block, b, &col, &cols, seg, b2)
                            }
                            LineageNode::Or(a, b2) => {
                                let pa = lane_prob(&block, b, &col, &cols, seg, a);
                                let pb = lane_prob(&block, b, &col, &cols, seg, b2);
                                1.0 - (1.0 - pa) * (1.0 - pb)
                            }
                        };
                        block[lane] = p;
                        done |= 1 << lane;
                        batched_nodes += 1;
                    }
                    col.store(b, block, done);
                }
                cols.insert(seg, col);
            }
        }
        crate::arena::record_batched_nodes(batched_nodes);
        let mut worlds: Option<WorldScratch> = None;
        let mut out: Vec<f64> = lineages
            .iter()
            .zip(&batched)
            .map(|(l, &columnar)| {
                let r = l.node_ref();
                if columnar {
                    cols.get(&r.segment().0)
                        .map_or(f64::NAN, |c| c.get(r.slot()))
                } else {
                    worlds
                        .get_or_insert_with(WorldScratch::new)
                        .value(r, &mut snaps, &probs)
                        .unwrap_or(f64::NAN)
                }
            })
            .collect();
        drop(probs);
        let fallback = out.iter().filter(|p| p.is_nan()).count();
        crate::arena::record_fallback_roots(fallback as u64);
        if fallback > 0 {
            for (p, l) in out.iter_mut().zip(lineages) {
                if p.is_nan() {
                    // A root over a cap, an unresolved var, or a column
                    // miss: the memoized evaluator is the single source
                    // of truth for every case the kernel does not cover
                    // (including the error it should report).
                    *p = marginal(l, vars)?;
                }
            }
        }
        Ok(out)
    })
}

/// The segment snapshots one [`marginal_batch`] call pins: a segment is
/// snapshotted on first touch and kept for the whole call, so every pass
/// reads the same state.
struct Snapshots<'a> {
    arena: &'a LineageArena,
    /// Segment id → position in `list`.
    index: FastMap<u32, usize>,
    list: Vec<Option<SegmentSnapshot<'a>>>,
    /// The segment read last and its position: a cone's nodes mostly
    /// share a segment, so most reads skip the hash probe.
    last: Option<(u32, usize)>,
}

impl<'a> Snapshots<'a> {
    fn new(arena: &'a LineageArena) -> Snapshots<'a> {
        Snapshots {
            arena,
            index: FastMap::default(),
            list: Vec::new(),
            last: None,
        }
    }

    /// Segment `seg`'s snapshot; `None` for a retired or never-opened one.
    #[inline]
    fn segment(&mut self, seg: u32) -> Option<&SegmentSnapshot<'a>> {
        let i = match self.last {
            Some((s, i)) if s == seg => i,
            _ => {
                let (arena, list) = (self.arena, &mut self.list);
                let i = *self.index.entry(seg).or_insert_with(|| {
                    list.push(arena.snapshot_segment(SegmentId(seg)));
                    list.len() - 1
                });
                self.last = Some((seg, i));
                i
            }
        };
        self.list[i].as_ref()
    }

    /// The node at `r` and its 1OF flag; `None` also for a slot published
    /// after the snapshot.
    #[inline]
    fn node(&mut self, r: LineageRef) -> Option<(LineageNode, bool)> {
        self.segment(r.segment().0)?.node_at(r.slot())
    }
}

/// Unique-node cap of a non-1OF cone valued by world enumeration in
/// [`marginal_batch`]; a larger cone goes to [`marginal`].
const WORLD_MAX_NODES: usize = 64;

/// Repeated-variable cap of world enumeration: at most `2^6 = 64` worlds
/// per root. Above it Shannon expansion's memo beats `2^|R|`.
const WORLD_MAX_REPEATED: usize = 6;

/// One node of a collected cone; operands are positions of earlier nodes
/// of the same postorder.
#[derive(Clone, Copy)]
enum ConeOp {
    /// A leaf as collected, before the repeated set is known.
    Var(TupleId),
    /// A leaf occurring once: its probability in every world.
    Prob(f64),
    /// A repeated leaf: bit `k` of the world index.
    World(u8),
    Not(u8),
    And(u8, u8),
    Or(u8, u8),
}

/// A step of the iterative postorder cone walk.
#[derive(Clone, Copy)]
enum ConeStep {
    Enter(LineageRef),
    /// All operands of this interior node are collected.
    Exit(LineageRef, LineageNode),
}

/// Scratch of [`marginal_batch`]'s world enumeration, sized for the caps
/// once per call and reused by every non-1OF root of it.
struct WorldScratch {
    /// The cone in postorder: the root is last, operands precede their
    /// consumers.
    refs: Vec<LineageRef>,
    ops: Vec<ConeOp>,
    steps: Vec<ConeStep>,
    /// Positions of completed operands not yet consumed.
    operands: Vec<u8>,
    /// Tree multiplicity per cone position.
    mult: Vec<u64>,
    /// Per cone position, its value in `LANE_COUNT` worlds.
    lanes: Vec<[f64; LANE_COUNT]>,
    /// `weights[w]` = `Π p or (1 − p)` over the repeated variables, as
    /// world `w` sets them.
    weights: [f64; 1 << WORLD_MAX_REPEATED],
}

impl WorldScratch {
    fn new() -> WorldScratch {
        WorldScratch {
            refs: Vec::with_capacity(WORLD_MAX_NODES),
            ops: Vec::with_capacity(WORLD_MAX_NODES),
            // Each claimed node pushes at most three steps.
            steps: Vec::with_capacity(3 * WORLD_MAX_NODES + 1),
            operands: Vec::with_capacity(WORLD_MAX_NODES + 1),
            mult: Vec::with_capacity(WORLD_MAX_NODES),
            lanes: Vec::with_capacity(WORLD_MAX_NODES),
            weights: [0.0; 1 << WORLD_MAX_REPEATED],
        }
    }

    /// The exact marginal of `root` by world enumeration over its
    /// repeated variables, or `None` when its cone is over a cap, reaches
    /// a slot or segment the snapshots do not hold, or has a variable
    /// that does not resolve.
    fn value(
        &mut self,
        root: LineageRef,
        snaps: &mut Snapshots<'_>,
        probs: &crate::relation::ProbReader<'_>,
    ) -> Option<f64> {
        self.collect(root, snaps)?;
        let repeated = self.resolve_leaves(probs)?;
        let worlds = 1usize << repeated;
        let root_pos = self.ops.len() - 1;
        let mut total = 0.0;
        for base in (0..worlds).step_by(LANE_COUNT) {
            for (i, &op) in self.ops.iter().enumerate() {
                let lanes = &self.lanes;
                let value = match op {
                    ConeOp::Var(_) => unreachable!("leaves resolved"),
                    ConeOp::Prob(p) => [p; LANE_COUNT],
                    ConeOp::World(k) => std::array::from_fn(|j| ((base + j) >> k & 1) as f64),
                    ConeOp::Not(c) => {
                        let c = &lanes[c as usize];
                        std::array::from_fn(|j| 1.0 - c[j])
                    }
                    ConeOp::And(a, b) => {
                        let (a, b) = (&lanes[a as usize], &lanes[b as usize]);
                        std::array::from_fn(|j| a[j] * b[j])
                    }
                    ConeOp::Or(a, b) => {
                        let (a, b) = (&lanes[a as usize], &lanes[b as usize]);
                        std::array::from_fn(|j| 1.0 - (1.0 - a[j]) * (1.0 - b[j]))
                    }
                };
                self.lanes[i] = value;
            }
            let root = &self.lanes[root_pos];
            for (j, w) in self.weights[base..worlds.min(base + LANE_COUNT)]
                .iter()
                .enumerate()
            {
                total += w * root[j];
            }
        }
        Some(total)
    }

    /// Collects `root`'s cone into `refs` / `ops` in postorder. Only the
    /// nodes on the current path are pending, and a DAG never reaches
    /// them again, so a node found in `refs` is always complete.
    fn collect(&mut self, root: LineageRef, snaps: &mut Snapshots<'_>) -> Option<()> {
        let WorldScratch {
            refs,
            ops,
            steps,
            operands,
            ..
        } = self;
        refs.clear();
        ops.clear();
        steps.clear();
        operands.clear();
        let mut claimed = 0usize;
        steps.push(ConeStep::Enter(root));
        while let Some(step) = steps.pop() {
            let (r, op) = match step {
                ConeStep::Enter(r) => {
                    if let Some(pos) = refs.iter().position(|&x| x == r) {
                        operands.push(pos as u8);
                        continue;
                    }
                    claimed += 1;
                    if claimed > WORLD_MAX_NODES {
                        return None;
                    }
                    let (node, _) = snaps.node(r)?;
                    match node {
                        LineageNode::Var(id) => (r, ConeOp::Var(id)),
                        LineageNode::Not(c) => {
                            steps.push(ConeStep::Exit(r, node));
                            steps.push(ConeStep::Enter(c));
                            continue;
                        }
                        LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                            steps.push(ConeStep::Exit(r, node));
                            steps.push(ConeStep::Enter(b));
                            steps.push(ConeStep::Enter(a));
                            continue;
                        }
                    }
                }
                ConeStep::Exit(r, node) => {
                    let op = match node {
                        LineageNode::Var(_) => unreachable!("leaves complete on entry"),
                        LineageNode::Not(_) => ConeOp::Not(operands.pop()?),
                        LineageNode::And(..) => {
                            let b = operands.pop()?;
                            ConeOp::And(operands.pop()?, b)
                        }
                        LineageNode::Or(..) => {
                            let b = operands.pop()?;
                            ConeOp::Or(operands.pop()?, b)
                        }
                    };
                    (r, op)
                }
            };
            operands.push(refs.len() as u8);
            refs.push(r);
            ops.push(op);
        }
        Some(())
    }

    /// Propagates tree multiplicity from the root down, then rewrites
    /// each leaf to its probability or, when it repeats, to its world bit
    /// (filling `weights`). Returns `|R|`, or `None` over the cap or on a
    /// variable that does not resolve.
    fn resolve_leaves(&mut self, probs: &crate::relation::ProbReader<'_>) -> Option<u32> {
        let n = self.ops.len();
        self.mult.clear();
        self.mult.resize(n, 0);
        self.mult[n - 1] = 1;
        // Every consumer sits after its operands, so walking backwards
        // completes a node's multiplicity before it is passed on.
        for i in (0..n).rev() {
            let m = self.mult[i];
            match self.ops[i] {
                ConeOp::Not(c) => self.mult[c as usize] = self.mult[c as usize].saturating_add(m),
                ConeOp::And(a, b) | ConeOp::Or(a, b) => {
                    self.mult[a as usize] = self.mult[a as usize].saturating_add(m);
                    self.mult[b as usize] = self.mult[b as usize].saturating_add(m);
                }
                _ => {}
            }
        }
        let mut repeated = 0u32;
        self.weights[0] = 1.0;
        for (op, &m) in self.ops.iter_mut().zip(&self.mult) {
            let ConeOp::Var(id) = *op else {
                continue;
            };
            let p = probs.prob(id).ok()?;
            if m == 1 {
                *op = ConeOp::Prob(p);
                continue;
            }
            if repeated as usize == WORLD_MAX_REPEATED {
                return None;
            }
            let bit = 1usize << repeated;
            for w in 0..bit {
                let x = self.weights[w];
                self.weights[w | bit] = x * p;
                self.weights[w] = x * (1.0 - p);
            }
            *op = ConeOp::World(repeated as u8);
            repeated += 1;
        }
        self.lanes.clear();
        self.lanes.resize(n, [0.0; LANE_COUNT]);
        Some(repeated)
    }
}

/// Lanes per block of a [`LaneColumn`] — one cache-line-sized `[f64; 8]`
/// unit, the granularity the batch kernel's inner loops run over.
const LANE_COUNT: usize = 8;

/// A lane-blocked, block-sparse probability column of one arena segment:
/// slots are grouped into fixed [`LANE_COUNT`]-lane blocks, and only
/// blocks reachable from the batch (nonzero mark byte) are resident — a
/// dense block→position index plus packed `[f64; 8]` lane blocks with
/// per-block validity masks.
struct LaneColumn {
    /// Dense block index → packed position, `u32::MAX` for untouched
    /// blocks (one `u32` per 8 slots — 32× smaller than a dense `f64`
    /// column over an unrelated cohort).
    index: Vec<u32>,
    /// Packed lane blocks, ascending block order.
    lanes: Vec<[f64; LANE_COUNT]>,
    /// Per packed block: bit `i` set iff lane `i` holds a computed value.
    masks: Vec<u8>,
}

impl LaneColumn {
    /// Allocates packed storage for exactly the marked blocks.
    fn with_marks(marks: &[u8]) -> LaneColumn {
        let mut index = vec![u32::MAX; marks.len()];
        let mut pos = 0u32;
        for (b, &m) in marks.iter().enumerate() {
            if m != 0 {
                index[b] = pos;
                pos += 1;
            }
        }
        LaneColumn {
            index,
            lanes: vec![[f64::NAN; LANE_COUNT]; pos as usize],
            masks: vec![0u8; pos as usize],
        }
    }

    /// Commits a computed block and its validity mask.
    #[inline]
    fn store(&mut self, block: usize, lanes: [f64; LANE_COUNT], mask: u8) {
        let p = self.index[block] as usize;
        self.lanes[p] = lanes;
        self.masks[p] = mask;
    }

    /// The probability at `slot`, `NaN` when absent. Lane validity blends
    /// branch-free from the mask byte.
    #[inline]
    fn get(&self, slot: u32) -> f64 {
        let (block, lane) = (slot as usize / LANE_COUNT, slot as usize % LANE_COUNT);
        match self.index.get(block) {
            Some(&p) if p != u32::MAX => {
                let p = p as usize;
                let valid = (self.masks[p] >> lane & 1) as u64;
                // valid = 0 selects the NaN payload, 1 the lane value —
                // no data-dependent branch.
                f64::from_bits(
                    self.lanes[p][lane].to_bits() * valid + f64::NAN.to_bits() * (1 - valid),
                )
            }
            _ => f64::NAN,
        }
    }
}

/// Resolves a child ref during the lane-blocked walk: the block being
/// filled for same-block refs, this segment's packed column for earlier
/// blocks, a completed column otherwise; `NaN` for anything absent
/// (propagates through the arithmetic and routes the root to the
/// fallback).
#[inline]
fn lane_prob(
    block: &[f64; LANE_COUNT],
    b: usize,
    col: &LaneColumn,
    cols: &FastMap<u32, LaneColumn>,
    seg: u32,
    r: LineageRef,
) -> f64 {
    let s = r.segment().0;
    let slot = r.slot() as usize;
    if s == seg {
        if slot / LANE_COUNT == b {
            block[slot % LANE_COUNT]
        } else {
            col.get(r.slot())
        }
    } else {
        match cols.get(&s) {
            Some(c) => c.get(r.slot()),
            None => f64::NAN,
        }
    }
}

/// Anytime approximation: draws samples until the two-sided 95% Hoeffding
/// half-width falls below `epsilon` (or `max_samples` is reached), in the
/// spirit of the anytime algorithms the paper cites (\[25\], \[29\]).
///
/// The required sample count is `n ≥ ln(2/0.05) / (2 ε²)`, so the loop is
/// bounded and deterministic for a given seed.
pub fn monte_carlo_until(
    lineage: &Lineage,
    vars: &VarTable,
    epsilon: f64,
    max_samples: u64,
    seed: u64,
) -> Result<McEstimate> {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let needed = ((2.0f64 / 0.05).ln() / (2.0 * epsilon * epsilon)).ceil() as u64;
    monte_carlo(lineage, vars, needed.clamp(1, max_samples.max(1)), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(ps: &[f64]) -> VarTable {
        let mut vt = VarTable::new();
        for (i, &p) in ps.iter().enumerate() {
            vt.register(format!("t{i}"), p).unwrap();
        }
        vt
    }

    fn v(i: u64) -> Lineage {
        Lineage::var(TupleId(i))
    }

    /// Brute-force ground truth: enumerate all worlds.
    fn brute_force(l: &Lineage, vars: &VarTable) -> f64 {
        let ids: Vec<TupleId> = l.vars().into_iter().collect();
        let n = ids.len();
        let mut total = 0.0;
        for world in 0..(1u64 << n) {
            let assign = |id: TupleId| {
                let idx = ids.iter().position(|&x| x == id).unwrap();
                world >> idx & 1 == 1
            };
            if l.eval(&assign) {
                let mut wp = 1.0;
                for (idx, id) in ids.iter().enumerate() {
                    let p = vars.prob(*id).unwrap();
                    wp *= if world >> idx & 1 == 1 { p } else { 1.0 - p };
                }
                total += wp;
            }
        }
        total
    }

    #[test]
    fn paper_fig1c_probability() {
        // c1 ∧ ¬a1 with P(c1)=0.6, P(a1)=0.3 ⇒ 0.6 · 0.7 = 0.42.
        let vars = vt(&[0.3, 0.6]);
        let l = Lineage::and_not(&v(1), Some(&v(0)));
        let p = independent(&l, &vars).unwrap();
        assert!((p - 0.42).abs() < 1e-12);
    }

    #[test]
    fn paper_fig1c_union_difference_probability() {
        // c2 ∧ ¬(a1 ∨ b1): 0.7 · (1 − (1 − (1−0.3)(1−0.6))) = 0.7·0.7·0.4 = 0.196.
        let vars = vt(&[0.3, 0.6, 0.7]); // a1, b1, c2
        let l = Lineage::and_not(&v(2), Some(&Lineage::or(&v(0), &v(1))));
        let p = marginal(&l, &vars).unwrap();
        assert!((p - 0.196).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn paper_fig3_union_probability() {
        // a1 ∨ c1 with 0.3, 0.6 ⇒ 1 − 0.7·0.4 = 0.72.
        let vars = vt(&[0.3, 0.6]);
        let p = independent(&Lineage::or(&v(0), &v(1)), &vars).unwrap();
        assert!((p - 0.72).abs() < 1e-12);
    }

    #[test]
    fn marginal_batch_matches_marginal_bitwise() {
        // Mixed batch: 1OF roots (columnar) and a repeating root
        // (fallback) must both equal the memoized evaluator exactly.
        let vars = vt(&[0.3, 0.6, 0.7, 0.45]);
        let one_of = vec![
            Lineage::and_not(&v(2), Some(&Lineage::or(&v(0), &v(1)))),
            Lineage::or(&v(0), &v(3)),
            v(1),
            Lineage::and(&v(2), &v(3)),
        ];
        let repeating = Lineage::and(&Lineage::or(&v(0), &v(1)), &Lineage::or(&v(0), &v(2)));
        let mut batch = one_of.clone();
        batch.push(repeating);
        let got = marginal_batch(&batch, &vars).unwrap();
        for (l, p) in batch.iter().zip(&got) {
            let expect = marginal(l, &vars).unwrap();
            assert_eq!(expect.to_bits(), p.to_bits(), "{expect} vs {p}");
        }
    }

    #[test]
    fn marginal_batch_spans_sealed_segments() {
        // Children in an earlier (sealed) segment resolve from a
        // completed column, not the open one.
        let arena = LineageArena::shared(1);
        let _scope = LineageArena::enter(&arena);
        let vars = vt(&[0.3, 0.6]);
        let a = v(0);
        let b = v(1);
        arena.seal();
        let root = Lineage::or(&a, &b);
        assert_ne!(root.node_ref().segment(), a.node_ref().segment());
        let got = marginal_batch(std::slice::from_ref(&root), &vars).unwrap();
        assert!((got[0] - 0.72).abs() < 1e-15, "got {}", got[0]);
    }

    #[test]
    fn exact_matches_brute_force_on_repeating_formula() {
        // (t0 ∨ t1) ∧ (t0 ∨ t2): t0 repeats, independence assumption fails.
        let vars = vt(&[0.5, 0.4, 0.3]);
        let l = Lineage::and(&Lineage::or(&v(0), &v(1)), &Lineage::or(&v(0), &v(2)));
        let truth = brute_force(&l, &vars);
        let got = exact(&l, &vars).unwrap();
        assert!((got - truth).abs() < 1e-12, "{got} vs {truth}");
        // Independence evaluation would be wrong here.
        let indep = independent(&l, &vars).unwrap();
        assert!((indep - truth).abs() > 1e-3);
    }

    #[test]
    fn shannon_expansion_does_not_grow_the_arena() {
        // Regression: conditioned scratch subformulas must stay transient
        // trees — interning them would leak into the append-only global
        // arena on every exact() call over repeating lineage.
        let vars = vt(&[0.5, 0.4, 0.3, 0.6]);
        let l = Lineage::and_not(
            &Lineage::or(&Lineage::and(&v(0), &v(1)), &Lineage::or(&v(0), &v(2))),
            Some(&Lineage::and(&v(0), &v(3))),
        );
        assert!(!l.is_one_occurrence_form());
        let before = crate::arena::LineageArena::global().stats().nodes;
        let p = exact(&l, &vars).unwrap();
        let after = crate::arena::LineageArena::global().stats().nodes;
        assert_eq!(
            before,
            after,
            "Shannon expansion interned {} scratch nodes",
            after - before
        );
        assert!((p - brute_force(&l, &vars)).abs() < 1e-12);
    }

    #[test]
    fn conservative_1of_flag_still_valuates_linearly_and_exactly() {
        // A >VAR_LIST_CAP ∨-chain over *interleaved* variable ids: the
        // interned 1OF flag may go conservatively false once the list is
        // dropped and ranges overlap, but marginal() must still produce the
        // exact (independence) value via the tree re-check — not a
        // quadratic expansion, and not a wrong answer.
        let n = 2 * (crate::arena::VAR_LIST_CAP as u64 + 20);
        let base = 500_000u64;
        let mut vt = VarTable::new();
        for i in 0..(base + n) {
            vt.register(format!("t{i}"), 0.3 + 0.4 * ((i % 10) as f64) / 10.0)
                .unwrap();
        }
        // Interleave from both ends so child ranges overlap.
        let mut ids: Vec<u64> = Vec::with_capacity(n as usize);
        let (mut lo, mut hi) = (0u64, n - 1);
        while lo < hi {
            ids.push(base + lo);
            ids.push(base + hi);
            lo += 1;
            hi -= 1;
        }
        if lo == hi {
            ids.push(base + lo);
        }
        let mut l = v(ids[0]);
        for &id in &ids[1..] {
            l = Lineage::or(&l, &v(id));
        }
        let tree = l.to_tree();
        assert!(tree.is_one_occurrence_form(), "premise: genuinely 1OF");
        let got = marginal(&l, &vt).unwrap();
        let want = tree.independent_prob(&vt).unwrap();
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn exact_handles_tautology_and_contradiction() {
        let vars = vt(&[0.25]);
        // t0 ∨ ¬t0 ≡ true
        let l = Lineage::or(&v(0), &v(0).negate());
        assert!((exact(&l, &vars).unwrap() - 1.0).abs() < 1e-12);
        // t0 ∧ ¬t0 ≡ false
        let l = Lineage::and(&v(0), &v(0).negate());
        assert!(exact(&l, &vars).unwrap().abs() < 1e-12);
    }

    #[test]
    fn exact_on_hard_query_shape() {
        // Lineage shaped like the #P-hard query (r1 ∪ r2) −Tp (r1 ∩ r3):
        // (t0 ∨ t1) ∧ ¬(t0 ∧ t2).
        let vars = vt(&[0.5, 0.7, 0.2]);
        let l = Lineage::and_not(
            &Lineage::or(&v(0), &v(1)),
            Some(&Lineage::and(&v(0), &v(2))),
        );
        let truth = brute_force(&l, &vars);
        assert!((exact(&l, &vars).unwrap() - truth).abs() < 1e-12);
    }

    #[test]
    fn marginal_dispatches_to_linear_for_1of() {
        let vars = vt(&[0.3, 0.6]);
        let l = Lineage::and(&v(0), &v(1));
        assert_eq!(
            marginal(&l, &vars).unwrap(),
            independent(&l, &vars).unwrap()
        );
    }

    #[test]
    fn monte_carlo_converges() {
        let vars = vt(&[0.5, 0.4, 0.3]);
        let l = Lineage::and(&Lineage::or(&v(0), &v(1)), &Lineage::or(&v(0), &v(2)));
        let truth = brute_force(&l, &vars);
        let est = monte_carlo(&l, &vars, 200_000, 42).unwrap();
        assert!(
            (est.estimate - truth).abs() < est.half_width_95,
            "estimate {} truth {truth} ±{}",
            est.estimate,
            est.half_width_95
        );
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let vars = vt(&[0.5]);
        let l = v(0);
        let a = monte_carlo(&l, &vars, 1000, 7).unwrap();
        let b = monte_carlo(&l, &vars, 1000, 7).unwrap();
        assert_eq!(a, b);
        let c = monte_carlo(&l, &vars, 1000, 8).unwrap();
        // Different seed very likely differs (not guaranteed, but stable for
        // this fixed seed pair).
        assert_ne!(a.estimate, c.estimate);
    }

    #[test]
    fn monte_carlo_until_reaches_requested_precision() {
        let vars = vt(&[0.5, 0.4, 0.3]);
        let l = Lineage::and(&Lineage::or(&v(0), &v(1)), &Lineage::or(&v(0), &v(2)));
        let est = monte_carlo_until(&l, &vars, 0.01, u64::MAX, 5).unwrap();
        assert!(est.half_width_95 <= 0.01 + 1e-12);
        let truth = brute_force(&l, &vars);
        assert!((est.estimate - truth).abs() < 0.02);
        // Sample cap is honoured.
        let capped = monte_carlo_until(&l, &vars, 0.0001, 500, 5).unwrap();
        assert_eq!(capped.samples, 500);
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let vars = vt(&[]);
        assert!(independent(&v(5), &vars).is_err());
        assert!(exact(&v(5), &vars).is_err());
        assert!(monte_carlo(&v(5), &vars, 10, 0).is_err());
    }

    #[test]
    fn exact_equals_brute_force_randomized() {
        // Small randomized formulas, fixed seed.
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let nvars = rng.random_range(1..5usize);
            let probs: Vec<f64> = (0..nvars).map(|_| rng.random_range(0.05..1.0)).collect();
            let vars = vt(&probs);
            let l = random_formula(&mut rng, nvars as u64, 4);
            let truth = brute_force(&l, &vars);
            let got = exact(&l, &vars).unwrap();
            assert!((got - truth).abs() < 1e-9, "formula {l}: {got} vs {truth}");
        }
    }

    fn random_formula(rng: &mut StdRng, nvars: u64, depth: usize) -> Lineage {
        if depth == 0 || rng.random::<f64>() < 0.3 {
            return v(rng.random_range(0..nvars));
        }
        match rng.random_range(0..3u32) {
            0 => random_formula(rng, nvars, depth - 1).negate(),
            1 => Lineage::and(
                &random_formula(rng, nvars, depth - 1),
                &random_formula(rng, nvars, depth - 1),
            ),
            _ => Lineage::or(
                &random_formula(rng, nvars, depth - 1),
                &random_formula(rng, nvars, depth - 1),
            ),
        }
    }
}
