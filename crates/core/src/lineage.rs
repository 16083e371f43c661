//! Data lineage: Boolean formulas over base-tuple identifiers, stored as
//! handles into the hash-consed [`crate::arena::LineageArena`].
//!
//! A lineage expression λ consists of tuple identifiers (Boolean random
//! variables, assumed independent) and the connectives ¬, ∧, ∨ (§III). For a
//! base tuple, λ is the atomic variable of the tuple itself; for result
//! tuples, λ is built by the lineage-concatenation functions of Table I:
//!
//! ```text
//! and(λ1, λ2)    = (λ1) ∧ (λ2)
//! andNot(λ1, λ2) = (λ1)            if λ2 = null
//!                  (λ1) ∧ ¬(λ2)    otherwise
//! or(λ1, λ2)     = (λ1)            if λ2 = null
//!                  (λ2)            if λ1 = null
//!                  (λ1) ∨ (λ2)     otherwise
//! ```
//!
//! "null" (no tuple valid) is modelled as `Option::None`; the functions are
//! [`Lineage::and`], [`Lineage::and_not`] and [`Lineage::or_opt`], and
//! [`crate::ops::SetOp::lineage`] picks an operation's one.
//!
//! Equivalence of lineage expressions — needed by change preservation
//! (Def. 2) — is checked *syntactically* (structural equality), exactly as
//! the paper's implementation does (footnote 1: logical equivalence of
//! Boolean formulas is co-NP-complete). Because formulas are hash-consed,
//! that syntactic check is a single integer comparison: `a == b` iff the two
//! handles point at the same interned node. Cloning a lineage is a `Copy` of
//! eight bytes, so the window advancer, coalescing, and every set operation
//! concatenate and compare lineage in O(1) per step.
//!
//! Handles are relative to the thread's *current* arena — the process
//! global by default, or a private reclaimable arena entered with
//! [`LineageArena::enter`] (the streaming engine's bounded-memory mode).
//!
//! A formula that must outlive its arena — a reclaim-mode delta record,
//! standing pipeline state, Shannon expansion's scratch — takes the owned
//! form [`LineageTree`], converted with [`Lineage::to_tree`] /
//! [`Lineage::from_tree`].

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::arena::{FastMap, LineageArena, LineageNode, LineageRef};

/// Identifier of a base tuple, acting as an independent Boolean random
/// variable in lineage formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(pub u64);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A Boolean lineage formula: a `Copy` handle into the global hash-consed
/// arena.
///
/// Structural equality between independently computed results (LAWA vs. the
/// snapshot oracle vs. the baselines) is meaningful — identical formulas
/// intern to identical handles — and costs one integer compare. Connectives
/// are binary, mirroring the shape produced by the Table I concatenation
/// functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lineage(LineageRef);

/// One level of a formula, as returned by [`Lineage::kind`]. Children are
/// themselves `Copy` handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineageKind {
    /// An atomic base-tuple variable.
    Var(TupleId),
    /// Negation ¬λ.
    Not(Lineage),
    /// Conjunction (λ1) ∧ (λ2).
    And(Lineage, Lineage),
    /// Disjunction (λ1) ∨ (λ2).
    Or(Lineage, Lineage),
}

/// Runs `f` against this thread's current arena (the innermost
/// [`LineageArena::enter`] scope, or the process-global arena). Every
/// `Lineage` operation goes through here, so a streaming engine can host
/// its formulas in a private, reclaimable arena.
fn with_arena<T>(f: impl FnOnce(&LineageArena) -> T) -> T {
    LineageArena::with_current(f)
}

impl Lineage {
    /// The atomic lineage of a base tuple.
    pub fn var(id: TupleId) -> Self {
        Lineage(with_arena(|a| a.intern(LineageNode::Var(id))))
    }

    /// ¬λ.
    pub fn negate(self) -> Self {
        Lineage(with_arena(|a| a.intern(LineageNode::Not(self.0))))
    }

    /// Table I `and`: `(λ1) ∧ (λ2)`. Used by `∩Tp`.
    pub fn and(l1: &Lineage, l2: &Lineage) -> Lineage {
        Lineage(with_arena(|a| a.intern(LineageNode::And(l1.0, l2.0))))
    }

    /// Table I `andNot`: `(λ1)` if λ2 is null, else `(λ1) ∧ ¬(λ2)`.
    /// Used by `−Tp`.
    pub fn and_not(l1: &Lineage, l2: Option<&Lineage>) -> Lineage {
        match l2 {
            None => *l1,
            Some(l2) => Lineage::and(l1, &l2.negate()),
        }
    }

    /// Table I `or`: null-tolerant disjunction. Returns `None` only when
    /// both operands are null. Used by `∪Tp`.
    pub fn or_opt(l1: Option<&Lineage>, l2: Option<&Lineage>) -> Option<Lineage> {
        match (l1, l2) {
            (None, None) => None,
            (Some(l1), None) => Some(*l1),
            (None, Some(l2)) => Some(*l2),
            (Some(l1), Some(l2)) => Some(Lineage::or(l1, l2)),
        }
    }

    /// Plain binary disjunction (both operands present).
    pub fn or(l1: &Lineage, l2: &Lineage) -> Lineage {
        Lineage(with_arena(|a| a.intern(LineageNode::Or(l1.0, l2.0))))
    }

    /// The interned handle — the O(1) identity used by equality, hashing
    /// and the per-call valuation memos.
    pub fn node_ref(&self) -> LineageRef {
        self.0
    }

    /// Reconstructs a handle from a ref previously obtained via
    /// [`Lineage::node_ref`].
    pub fn from_node_ref(r: LineageRef) -> Lineage {
        Lineage(r)
    }

    /// The top-level connective with `Copy` child handles.
    pub fn kind(&self) -> LineageKind {
        match with_arena(|a| a.node(self.0)) {
            LineageNode::Var(id) => LineageKind::Var(id),
            LineageNode::Not(c) => LineageKind::Not(Lineage(c)),
            LineageNode::And(a, b) => LineageKind::And(Lineage(a), Lineage(b)),
            LineageNode::Or(a, b) => LineageKind::Or(Lineage(a), Lineage(b)),
        }
    }

    /// The variable of an atomic lineage, `None` for derived formulas.
    pub fn as_var(&self) -> Option<TupleId> {
        match with_arena(|a| a.node(self.0)) {
            LineageNode::Var(id) => Some(id),
            _ => None,
        }
    }

    /// The smallest arena segment reachable from the formula's sub-DAG
    /// (see [`crate::arena::LineageArena::min_segment`]): a traversal of
    /// this formula only touches segments in `[min_segment, segment]`.
    /// The streaming engine's retire schedule treats a live formula as
    /// keeping that whole range alive.
    pub fn min_segment(&self) -> crate::arena::SegmentId {
        with_arena(|a| a.min_segment(self.0))
    }

    /// Collects the distinct variables of the formula, in ascending order.
    pub fn vars(&self) -> BTreeSet<TupleId> {
        with_arena(|arena| {
            if let Some(set) =
                arena.var_list(self.0, |list| list.map(|l| l.iter().copied().collect()))
            {
                return set;
            }
            // DAG traversal with a visited set: shared subformulas are
            // walked once, so this is linear in the number of unique nodes;
            // stored sublists short-circuit their subtrees. One view pins
            // the touched segments for the whole walk.
            let view = arena.view();
            let mut out = BTreeSet::new();
            let mut seen: BTreeSet<LineageRef> = BTreeSet::new();
            let mut stack = vec![self.0];
            while let Some(r) = stack.pop() {
                if !seen.insert(r) {
                    continue;
                }
                if view.var_list(r, |list| {
                    list.map(|l| out.extend(l.iter().copied())).is_some()
                }) {
                    continue;
                }
                match view.node(r) {
                    LineageNode::Var(id) => {
                        out.insert(id);
                    }
                    LineageNode::Not(c) => stack.push(c),
                    LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                        stack.push(a);
                        stack.push(b);
                    }
                }
            }
            out
        })
    }

    /// Total number of variable *occurrences* (with multiplicity), from the
    /// arena's per-node metadata — O(1). Saturates at `u32::MAX`: under
    /// heavy sharing the tree expansion may be exponential in the DAG.
    pub fn var_occurrences(&self) -> usize {
        usize::try_from(with_arena(|a| a.occurrences(self.0))).unwrap_or(usize::MAX)
    }

    /// Whether the formula is in one-occurrence form (1OF): no tuple
    /// identifier occurs more than once (§V-B). Marginal probabilities of
    /// 1OF formulas over independent variables are computable in linear time
    /// (Corollary 1). Answered from interned metadata in O(1); for formulas
    /// beyond [`crate::arena::VAR_LIST_CAP`] occurrences with interleaved
    /// variable ranges the answer may be conservatively `false` (valuation
    /// then takes the always-correct Shannon path).
    pub fn is_one_occurrence_form(&self) -> bool {
        with_arena(|a| a.one_of(self.0))
    }

    /// Number of nodes in the formula tree (tree semantics, counted with
    /// multiplicity under sharing) — O(1) from interned metadata.
    /// Saturates at `u32::MAX`.
    pub fn size(&self) -> usize {
        usize::try_from(with_arena(|a| a.size(self.0))).unwrap_or(usize::MAX)
    }

    /// Tree-semantic multiplicity of every variable, accumulated over the
    /// shared DAG in one topological pass (linear in unique nodes; one
    /// pinned view for the whole walk).
    pub fn var_multiplicities(&self) -> FastMap<TupleId, u64> {
        with_arena(|arena| {
            let view = arena.view();
            // Postorder, so every node comes after its operands; `pos`
            // maps a completed node to its index in `order`. Only the
            // nodes on the current path are pending, and a DAG never
            // reaches them again, so `pos` doubles as the visited set.
            let mut order: Vec<LineageNode> = Vec::new();
            let mut pos: FastMap<LineageRef, usize> = FastMap::default();
            let mut stack: Vec<(LineageRef, Option<LineageNode>)> = vec![(self.0, None)];
            while let Some((r, done)) = stack.pop() {
                if let Some(node) = done {
                    pos.insert(r, order.len());
                    order.push(node);
                    continue;
                }
                if pos.contains_key(&r) {
                    continue;
                }
                let node = view.node(r);
                stack.push((r, Some(node)));
                match node {
                    LineageNode::Var(_) => {}
                    LineageNode::Not(c) => stack.push((c, None)),
                    LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                        stack.push((a, None));
                        stack.push((b, None));
                    }
                }
            }
            // Reverse postorder: propagate multiplicities root → leaves.
            let mut mult = vec![0u64; order.len()];
            *mult.last_mut().expect("the root is collected") = 1;
            let mut counts: FastMap<TupleId, u64> = FastMap::default();
            for (i, node) in order.iter().enumerate().rev() {
                let m = mult[i];
                match *node {
                    LineageNode::Var(id) => *counts.entry(id).or_default() += m,
                    LineageNode::Not(c) => mult[pos[&c]] += m,
                    LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                        mult[pos[&a]] += m;
                        mult[pos[&b]] += m;
                    }
                }
            }
            counts
        })
    }

    /// Evaluates the formula under a truth assignment of the variables.
    /// Shared subformulas are evaluated once (per-call memo over the DAG);
    /// the arena lock is taken once for the whole walk.
    pub fn eval(&self, assignment: &impl Fn(TupleId) -> bool) -> bool {
        use crate::arena::{ArenaView, FastMap};
        fn rec(
            l: LineageRef,
            view: &ArenaView<'_>,
            assignment: &impl Fn(TupleId) -> bool,
            memo: &mut FastMap<LineageRef, bool>,
        ) -> bool {
            if let Some(&v) = memo.get(&l) {
                return v;
            }
            let v = match view.node(l) {
                LineageNode::Var(id) => assignment(id),
                LineageNode::Not(c) => !rec(c, view, assignment, memo),
                LineageNode::And(a, b) => {
                    rec(a, view, assignment, memo) && rec(b, view, assignment, memo)
                }
                LineageNode::Or(a, b) => {
                    rec(a, view, assignment, memo) || rec(b, view, assignment, memo)
                }
            };
            memo.insert(l, v);
            v
        }
        with_arena(|arena| {
            let view = arena.view();
            let mut memo = FastMap::default();
            rec(self.0, &view, assignment, &mut memo)
        })
    }

    /// Substitutes a truth value for a variable and simplifies constants
    /// away. Returns `Ok(simplified)` or `Err(value)` when the whole formula
    /// collapses to the constant `value`. Used by Shannon expansion in
    /// [`crate::prob`]. Subformulas that cannot contain the variable (per
    /// the arena's variable summaries) are returned untouched without a
    /// walk.
    pub fn condition(&self, var: TupleId, value: bool) -> std::result::Result<Lineage, bool> {
        fn rec(
            l: Lineage,
            var: TupleId,
            value: bool,
            memo: &mut HashMap<LineageRef, std::result::Result<Lineage, bool>>,
        ) -> std::result::Result<Lineage, bool> {
            if !with_arena(|a| a.may_contain(l.0, var)) {
                return Ok(l);
            }
            if let Some(cached) = memo.get(&l.0) {
                return *cached;
            }
            let out = match l.kind() {
                LineageKind::Var(id) => {
                    if id == var {
                        Err(value)
                    } else {
                        Ok(l)
                    }
                }
                LineageKind::Not(c) => match rec(c, var, value, memo) {
                    Ok(inner) => Ok(inner.negate()),
                    Err(v) => Err(!v),
                },
                LineageKind::And(a, b) => {
                    match (rec(a, var, value, memo), rec(b, var, value, memo)) {
                        (Err(false), _) | (_, Err(false)) => Err(false),
                        (Err(true), Ok(x)) | (Ok(x), Err(true)) => Ok(x),
                        (Err(true), Err(true)) => Err(true),
                        (Ok(x), Ok(y)) => Ok(Lineage::and(&x, &y)),
                    }
                }
                LineageKind::Or(a, b) => {
                    match (rec(a, var, value, memo), rec(b, var, value, memo)) {
                        (Err(true), _) | (_, Err(true)) => Err(true),
                        (Err(false), Ok(x)) | (Ok(x), Err(false)) => Ok(x),
                        (Err(false), Err(false)) => Err(false),
                        (Ok(x), Ok(y)) => Ok(Lineage::or(&x, &y)),
                    }
                }
            };
            memo.insert(l.0, out);
            out
        }
        let mut memo = HashMap::new();
        rec(*self, var, value, &mut memo)
    }

    /// Renders the formula with a custom variable labeller (e.g. the paper's
    /// `a1`, `c2` names from a [`crate::relation::VarTable`]).
    pub fn display_with<F>(&self, label: F) -> LineageDisplay<F>
    where
        F: Fn(TupleId) -> String,
    {
        LineageDisplay {
            lineage: *self,
            label,
        }
    }

    /// Expands the handle into an owned [`LineageTree`] (tree semantics: a
    /// node the arena shares is expanded at every use). Depth-safe.
    pub fn to_tree(&self) -> LineageTree {
        fn rec(
            r: LineageRef,
            depth: usize,
            view: &crate::arena::ArenaView<'_>,
            memo: &mut FastMap<LineageRef, LineageTree>,
            deep: &mut Vec<LineageRef>,
        ) -> Option<LineageTree> {
            let node = view.node(r);
            if depth == WALK_DEPTH && !matches!(node, LineageNode::Var(_)) {
                let done = memo.get(&r).cloned();
                deep.extend(done.is_none().then_some(r));
                return done;
            }
            // Both operands are visited, so one pass parks all deep ones.
            let mut sub = |c| rec(c, depth + 1, view, memo, deep);
            Some(match node {
                LineageNode::Var(id) => LineageTree::Var(id),
                LineageNode::Not(c) => sub(c)?.negate(),
                LineageNode::And(a, b) => {
                    let (a, b) = (sub(a), sub(b));
                    LineageTree::and(a?, b?)
                }
                LineageNode::Or(a, b) => {
                    let (a, b) = (sub(a), sub(b));
                    LineageTree::or(a?, b?)
                }
            })
        }
        with_arena(|arena| {
            let view = arena.view();
            build(self.0, |r| r, |r, memo, deep| rec(r, 0, &view, memo, deep))
        })
    }

    /// Interns an owned [`LineageTree`] into the current arena, a node the
    /// tree shares once. Depth-safe.
    pub fn from_tree(tree: &LineageTree) -> Lineage {
        fn rec<'t>(
            t: &'t LineageTree,
            depth: usize,
            memo: &mut FastMap<NodeKey, Lineage>,
            deep: &mut Vec<&'t LineageTree>,
        ) -> Option<Lineage> {
            if !matches!(t, LineageTree::Var(_)) {
                if let Some(&l) = memo.get(&t.key()) {
                    return Some(l);
                }
                if depth == WALK_DEPTH {
                    deep.push(t);
                    return None;
                }
            }
            // Every operand is visited, so one pass parks all deep ones.
            let [a, b] = std::array::from_fn(|i| rec(t.children().get(i)?, depth + 1, memo, deep));
            let l = match t {
                LineageTree::Var(id) => Lineage::var(*id),
                LineageTree::Not(_) => a?.negate(),
                LineageTree::And(_) => Lineage::and(&a?, &b?),
                LineageTree::Or(_) => Lineage::or(&a?, &b?),
            };
            if t.is_shared() {
                memo.insert(t.key(), l);
            }
            Some(l)
        }
        build(tree, LineageTree::key, |t, memo, deep| {
            rec(t, 0, memo, deep)
        })
    }
}

impl fmt::Debug for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lineage#{}({})", self.0.index(), self)
    }
}

impl fmt::Display for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|id| format!("t{}", id.0)))
    }
}

/// The owned lineage form, for whatever must outlive an arena; convert
/// with [`Lineage::to_tree`] / [`Lineage::from_tree`]. Operands sit behind
/// [`Arc`]s, so a clone is a reference-count bump and formulas can share a
/// subformula; a variable is stored inline. Equality and hashing are
/// structural (a node both sides share compares equal without a walk).
/// Drop, `==`, hashing and both conversions recurse a bounded number of
/// levels, then continue on a heap stack: a shallow formula allocates
/// nothing, a deep one never overflows the call stack.
#[derive(Debug, Clone)]
pub enum LineageTree {
    /// An atomic base-tuple variable.
    Var(TupleId),
    /// Negation ¬λ.
    Not(Arc<Operands<1>>),
    /// Conjunction (λ1) ∧ (λ2).
    And(Arc<Operands<2>>),
    /// Disjunction (λ1) ∨ (λ2).
    Or(Arc<Operands<2>>),
}

/// The operands of a [`LineageTree`] connective, left to right (read them
/// as an array through `Deref`). Dropping the last handle to a node frees
/// the subtree below it depth-safely.
#[derive(Debug)]
pub struct Operands<const N: usize>([LineageTree; N]);

impl<const N: usize> std::ops::Deref for Operands<N> {
    type Target = [LineageTree; N];

    fn deref(&self) -> &[LineageTree; N] {
        &self.0
    }
}

impl<const N: usize> Drop for Operands<N> {
    fn drop(&mut self) {
        // Freed through the walk, so dropping a deep tree never nests
        // drop glue once per level on the call stack.
        for c in &mut self.0 {
            if let Some(c) = c.take() {
                walk(c, &mut |t| Some(t.release()));
            }
        }
    }
}

/// Levels a tree walk recurses on the call stack before it parks deeper
/// nodes on a heap stack.
const WALK_DEPTH: usize = 64;

/// Memo key of the node behind a handle: its operands' address and its
/// connective. Handles that share a node share the key.
type NodeKey = (*const LineageTree, u8);

/// Runs `step` on `root` and on every node it returns, depth first: by
/// recursion for [`WALK_DEPTH`] levels, then from a heap stack. `step`
/// yields a node's children, or `None` to stop the walk; the result says
/// whether the walk ran to the end.
fn walk<T>(root: T, step: &mut impl FnMut(T) -> Option<[Option<T>; 2]>) -> bool {
    fn rec<T>(
        t: T,
        depth: usize,
        step: &mut impl FnMut(T) -> Option<[Option<T>; 2]>,
        deep: &mut Vec<T>,
    ) -> bool {
        if depth > WALK_DEPTH {
            deep.push(t);
            return true;
        }
        step(t).is_some_and(|children| {
            (children.into_iter().flatten()).all(|c| rec(c, depth + 1, step, deep))
        })
    }
    let mut deep = Vec::new();
    let mut done = rec(root, 0, step, &mut deep);
    while let (true, Some(t)) = (done, deep.pop()) {
        done = rec(t, 0, step, &mut deep);
    }
    done
}

/// The bottom-up counterpart of [`walk`]: `rec(node, memo, deep)` computes
/// a node's value by recursion; a node [`WALK_DEPTH`] levels down that
/// `memo` has no value for it parks on `deep`, and then gives up (`None`).
/// Parked nodes are computed first, the last parked first, and memoized
/// under `key`, so the retry finds them.
fn build<T: Copy, K: std::hash::Hash + Eq, R>(
    root: T,
    key: impl Fn(T) -> K,
    mut rec: impl FnMut(T, &mut FastMap<K, R>, &mut Vec<T>) -> Option<R>,
) -> R {
    let mut memo = FastMap::default();
    let mut deep = Vec::new();
    loop {
        let top = deep.last().copied().unwrap_or(root);
        if let Some(r) = rec(top, &mut memo, &mut deep) {
            let Some(t) = deep.pop() else {
                return r;
            };
            memo.insert(key(t), r);
        }
    }
}

impl LineageTree {
    /// ¬λ.
    pub fn negate(self) -> LineageTree {
        LineageTree::Not(Arc::new(Operands([self])))
    }

    /// (λ1) ∧ (λ2).
    pub fn and(l1: LineageTree, l2: LineageTree) -> LineageTree {
        LineageTree::And(Arc::new(Operands([l1, l2])))
    }

    /// (λ1) ∨ (λ2).
    pub fn or(l1: LineageTree, l2: LineageTree) -> LineageTree {
        LineageTree::Or(Arc::new(Operands([l1, l2])))
    }

    /// The operands of the top connective, left to right.
    fn children(&self) -> &[LineageTree] {
        match self {
            LineageTree::Var(_) => &[],
            LineageTree::Not(c) => &c.0,
            LineageTree::And(ab) | LineageTree::Or(ab) => &ab.0,
        }
    }

    /// The connective, with the variable of a leaf: two trees are equal
    /// iff their heads and their children are.
    fn head(&self) -> (u8, u64) {
        match self {
            LineageTree::Var(id) => (0, id.0),
            LineageTree::Not(_) => (1, 0),
            LineageTree::And(_) => (2, 0),
            LineageTree::Or(_) => (3, 0),
        }
    }

    fn key(&self) -> NodeKey {
        (self.children().as_ptr(), self.head().0)
    }

    /// Whether another handle holds this node too.
    fn is_shared(&self) -> bool {
        match self {
            LineageTree::Var(_) => false,
            LineageTree::Not(c) => Arc::strong_count(c) > 1,
            LineageTree::And(ab) | LineageTree::Or(ab) => Arc::strong_count(ab) > 1,
        }
    }

    /// Moves a non-variable tree out, leaving a variable behind.
    fn take(&mut self) -> Option<LineageTree> {
        (!matches!(self, LineageTree::Var(_)))
            .then(|| std::mem::replace(self, LineageTree::Var(TupleId(0))))
    }

    /// Drops this handle. If it held the node's last reference, the
    /// node's operands are moved out and returned, so freeing the node
    /// frees nothing below it.
    fn release(self) -> [Option<LineageTree>; 2] {
        match self {
            LineageTree::Var(_) => [None, None],
            LineageTree::Not(c) => [Arc::into_inner(c).and_then(|mut c| c.0[0].take()), None],
            LineageTree::And(ab) | LineageTree::Or(ab) => Arc::into_inner(ab)
                .map_or([None, None], |mut ab| {
                    ab.0.each_mut().map(LineageTree::take)
                }),
        }
    }

    /// Evaluates the tree under a truth assignment (plain recursion).
    pub fn eval(&self, assignment: &impl Fn(TupleId) -> bool) -> bool {
        match self {
            LineageTree::Var(id) => assignment(*id),
            LineageTree::Not(c) => !c[0].eval(assignment),
            LineageTree::And(ab) => ab[0].eval(assignment) && ab[1].eval(assignment),
            LineageTree::Or(ab) => ab[0].eval(assignment) || ab[1].eval(assignment),
        }
    }

    /// Collects the distinct variables of the tree.
    pub fn vars(&self) -> BTreeSet<TupleId> {
        self.var_multiplicities().into_keys().collect()
    }

    /// Variable occurrences with multiplicity (plain recursion).
    pub fn var_occurrences(&self) -> usize {
        match self {
            LineageTree::Var(_) => 1,
            _ => self.children().iter().map(Self::var_occurrences).sum(),
        }
    }

    /// Whether no variable occurs more than once (reference implementation
    /// of the 1OF check).
    pub fn is_one_occurrence_form(&self) -> bool {
        fn rec(t: &LineageTree, seen: &mut BTreeSet<TupleId>) -> bool {
            match t {
                LineageTree::Var(id) => seen.insert(*id),
                _ => t.children().iter().all(|c| rec(c, seen)),
            }
        }
        let mut seen = BTreeSet::new();
        rec(self, &mut seen)
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(Self::size).sum::<usize>()
    }

    /// The legacy un-memoized independence-assumption valuation: walks the
    /// whole tree on every call. Exact for 1OF formulas; the baseline the
    /// arena-backed memoized valuation is benchmarked against. The var
    /// store is locked once for the whole walk, not per node.
    pub fn independent_prob(&self, vars: &crate::relation::VarTable) -> crate::error::Result<f64> {
        self.independent_prob_with(&vars.prob_reader())
    }

    fn independent_prob_with(
        &self,
        probs: &crate::relation::ProbReader<'_>,
    ) -> crate::error::Result<f64> {
        Ok(match self {
            LineageTree::Var(id) => probs.prob(*id)?,
            LineageTree::Not(c) => 1.0 - c[0].independent_prob_with(probs)?,
            LineageTree::And(ab) => {
                ab[0].independent_prob_with(probs)? * ab[1].independent_prob_with(probs)?
            }
            LineageTree::Or(ab) => {
                let (pa, pb) = (
                    ab[0].independent_prob_with(probs)?,
                    ab[1].independent_prob_with(probs)?,
                );
                1.0 - (1.0 - pa) * (1.0 - pb)
            }
        })
    }

    /// Substitutes a truth value for a variable and simplifies constants
    /// away, entirely on the transient tree — nothing is interned. This is
    /// the conditioning step Shannon expansion uses
    /// ([`crate::prob::exact`]), so the expansion's scratch subformulas
    /// live and die with the call instead of accumulating in the
    /// process-global arena.
    pub fn condition(&self, var: TupleId, value: bool) -> std::result::Result<LineageTree, bool> {
        match self {
            LineageTree::Var(id) => {
                if *id == var {
                    Err(value)
                } else {
                    Ok(self.clone())
                }
            }
            LineageTree::Not(c) => match c[0].condition(var, value) {
                Ok(inner) => Ok(inner.negate()),
                Err(v) => Err(!v),
            },
            LineageTree::And(ab) => {
                match (ab[0].condition(var, value), ab[1].condition(var, value)) {
                    (Err(false), _) | (_, Err(false)) => Err(false),
                    (Err(true), Ok(x)) | (Ok(x), Err(true)) => Ok(x),
                    (Err(true), Err(true)) => Err(true),
                    (Ok(x), Ok(y)) => Ok(LineageTree::and(x, y)),
                }
            }
            LineageTree::Or(ab) => match (ab[0].condition(var, value), ab[1].condition(var, value))
            {
                (Err(true), _) | (_, Err(true)) => Err(true),
                (Err(false), Ok(x)) | (Ok(x), Err(false)) => Ok(x),
                (Err(false), Err(false)) => Err(false),
                (Ok(x), Ok(y)) => Ok(LineageTree::or(x, y)),
            },
        }
    }

    /// Multiplicity of every variable (plain recursion over the tree).
    pub fn var_multiplicities(&self) -> FastMap<TupleId, u64> {
        fn rec(t: &LineageTree, out: &mut FastMap<TupleId, u64>) {
            match t {
                LineageTree::Var(id) => *out.entry(*id).or_default() += 1,
                _ => t.children().iter().for_each(|c| rec(c, out)),
            }
        }
        let mut out = FastMap::default();
        rec(self, &mut out);
        out
    }
}

impl PartialEq for LineageTree {
    fn eq(&self, other: &Self) -> bool {
        walk((self, other), &mut |(a, b)| {
            let (ca, cb) = (a.children(), b.children());
            let same = !ca.is_empty() && std::ptr::eq(ca, cb);
            (a.head() == b.head())
                .then(|| std::array::from_fn(|i| Some((ca.get(i)?, cb.get(i)?)).filter(|_| !same)))
        })
    }
}

impl Eq for LineageTree {}

impl std::hash::Hash for LineageTree {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        walk(self, &mut |t| {
            t.head().hash(state);
            Some(std::array::from_fn(|i| t.children().get(i)))
        });
    }
}

/// Display adapter produced by [`Lineage::display_with`].
pub struct LineageDisplay<F> {
    lineage: Lineage,
    label: F,
}

impl<F> LineageDisplay<F>
where
    F: Fn(TupleId) -> String,
{
    fn fmt_rec(&self, l: Lineage, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
        // Precedence: Not > And > Or. Parenthesize when a child binds looser
        // than its parent, matching the paper's rendering c1∧¬(a1∨b1).
        let kind = l.kind();
        let prec = match kind {
            LineageKind::Var(_) => 3,
            LineageKind::Not(_) => 2,
            LineageKind::And(_, _) => 1,
            LineageKind::Or(_, _) => 0,
        };
        let needs_parens = prec < parent;
        if needs_parens {
            write!(f, "(")?;
        }
        match kind {
            LineageKind::Var(id) => write!(f, "{}", (self.label)(id))?,
            LineageKind::Not(c) => {
                write!(f, "¬")?;
                self.fmt_rec(c, f, 2)?;
            }
            LineageKind::And(a, b) => {
                self.fmt_rec(a, f, 1)?;
                write!(f, "∧")?;
                self.fmt_rec(b, f, 1)?;
            }
            LineageKind::Or(a, b) => {
                self.fmt_rec(a, f, 0)?;
                write!(f, "∨")?;
                self.fmt_rec(b, f, 0)?;
            }
        }
        if needs_parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl<F> fmt::Display for LineageDisplay<F>
where
    F: Fn(TupleId) -> String,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_rec(self.lineage, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u64) -> Lineage {
        Lineage::var(TupleId(i))
    }

    #[test]
    fn table1_and() {
        let l = Lineage::and(&v(1), &v(2));
        assert_eq!(l.to_string(), "t1∧t2");
    }

    #[test]
    fn table1_and_not_with_null() {
        // andNot(λ1, null) = λ1
        assert_eq!(Lineage::and_not(&v(1), None), v(1));
        // andNot(λ1, λ2) = λ1 ∧ ¬λ2
        assert_eq!(Lineage::and_not(&v(1), Some(&v(2))).to_string(), "t1∧¬t2");
    }

    #[test]
    fn table1_or_null_cases() {
        assert_eq!(Lineage::or_opt(None, None), None);
        assert_eq!(Lineage::or_opt(Some(&v(1)), None), Some(v(1)));
        assert_eq!(Lineage::or_opt(None, Some(&v(2))), Some(v(2)));
        assert_eq!(
            Lineage::or_opt(Some(&v(1)), Some(&v(2)))
                .unwrap()
                .to_string(),
            "t1∨t2"
        );
    }

    #[test]
    fn paper_example_rendering() {
        // c2 ∧ ¬(a1 ∨ b1) from Fig. 1c.
        let c2 = v(6);
        let a1 = v(1);
        let b1 = v(4);
        let l = Lineage::and_not(&c2, Lineage::or_opt(Some(&a1), Some(&b1)).as_ref());
        let rendered = l
            .display_with(|id| match id.0 {
                1 => "a1".into(),
                4 => "b1".into(),
                6 => "c2".into(),
                _ => unreachable!(),
            })
            .to_string();
        assert_eq!(rendered, "c2∧¬(a1∨b1)");
    }

    #[test]
    fn vars_and_occurrences() {
        let l = Lineage::and(&Lineage::or(&v(1), &v(2)), &v(1));
        assert_eq!(
            l.vars().into_iter().collect::<Vec<_>>(),
            vec![TupleId(1), TupleId(2)]
        );
        assert_eq!(l.var_occurrences(), 3);
        assert_eq!(l.size(), 5);
    }

    #[test]
    fn one_occurrence_form_detection() {
        assert!(v(1).is_one_occurrence_form());
        assert!(Lineage::and(&v(1), &v(2)).is_one_occurrence_form());
        assert!(Lineage::and_not(&v(1), Some(&Lineage::or(&v(2), &v(3)))).is_one_occurrence_form());
        // Repeated variable => not 1OF.
        assert!(!Lineage::and(&v(1), &v(1)).is_one_occurrence_form());
        assert!(!Lineage::or(&Lineage::and(&v(1), &v(2)), &v(2)).is_one_occurrence_form());
    }

    #[test]
    fn eval_truth_tables() {
        let l = Lineage::and_not(&v(1), Some(&v(2)));
        let assign = |a: bool, b: bool| move |id: TupleId| if id.0 == 1 { a } else { b };
        assert!(l.eval(&assign(true, false)));
        assert!(!l.eval(&assign(true, true)));
        assert!(!l.eval(&assign(false, false)));

        let l = Lineage::or(&v(1), &v(2));
        assert!(l.eval(&assign(false, true)));
        assert!(!l.eval(&assign(false, false)));
    }

    #[test]
    fn condition_simplifies() {
        // (t1 ∧ t2) | t1=true  =>  t2
        let l = Lineage::and(&v(1), &v(2));
        assert_eq!(l.condition(TupleId(1), true), Ok(v(2)));
        // (t1 ∧ t2) | t1=false =>  false
        assert_eq!(l.condition(TupleId(1), false), Err(false));
        // (t1 ∨ t2) | t1=true  =>  true
        let l = Lineage::or(&v(1), &v(2));
        assert_eq!(l.condition(TupleId(1), true), Err(true));
        // ¬t1 | t1=false => true
        assert_eq!(v(1).negate().condition(TupleId(1), false), Err(true));
        // unrelated var untouched
        assert_eq!(v(1).condition(TupleId(9), true), Ok(v(1)));
    }

    #[test]
    fn condition_nested() {
        // t1 ∧ ¬(t2 ∨ t3) | t2=false => t1 ∧ ¬t3
        let l = Lineage::and_not(&v(1), Some(&Lineage::or(&v(2), &v(3))));
        let got = l.condition(TupleId(2), false).unwrap();
        assert_eq!(got, Lineage::and_not(&v(1), Some(&v(3))));
        // ... | t2=true => false
        assert_eq!(l.condition(TupleId(2), true), Err(false));
    }

    #[test]
    fn structural_equality_is_syntactic() {
        // t1 ∨ t2 and t2 ∨ t1 are logically equivalent but syntactically
        // different — the paper's implementation (and ours) treats them as
        // different lineages.
        assert_ne!(Lineage::or(&v(1), &v(2)), Lineage::or(&v(2), &v(1)));
        assert_eq!(Lineage::or(&v(1), &v(2)), Lineage::or(&v(1), &v(2)));
    }

    #[test]
    fn hash_consing_makes_equality_a_ref_compare() {
        // Structurally identical formulas built independently share a node.
        let a = Lineage::and_not(&v(10), Some(&Lineage::or(&v(11), &v(12))));
        let b = Lineage::and_not(&v(10), Some(&Lineage::or(&v(11), &v(12))));
        assert_eq!(a.node_ref(), b.node_ref());
        assert_eq!(a, b);
        // And the handle survives a round trip.
        assert_eq!(Lineage::from_node_ref(a.node_ref()), a);
    }

    #[test]
    fn display_parenthesization() {
        // Or under And gets parens; And under Or does not need them.
        let or_under_and = Lineage::and(&Lineage::or(&v(1), &v(2)), &v(3));
        assert_eq!(or_under_and.to_string(), "(t1∨t2)∧t3");
        let and_under_or = Lineage::or(&Lineage::and(&v(1), &v(2)), &v(3));
        assert_eq!(and_under_or.to_string(), "t1∧t2∨t3");
        let not_var = v(1).negate();
        assert_eq!(not_var.to_string(), "¬t1");
        let not_of_and = Lineage::and(&v(1), &v(2)).negate();
        assert_eq!(not_of_and.to_string(), "¬(t1∧t2)");
    }

    #[test]
    fn tree_round_trip() {
        let l = Lineage::and_not(&v(5), Some(&Lineage::or(&v(6), &v(7))));
        let tree = l.to_tree();
        assert_eq!(tree.size(), l.size());
        assert_eq!(tree.vars(), l.vars());
        assert_eq!(tree.var_occurrences(), l.var_occurrences());
        assert_eq!(tree.is_one_occurrence_form(), l.is_one_occurrence_form());
        assert_eq!(Lineage::from_tree(&tree), l);
    }

    /// `t0 ∨ t1 ∨ … ∨ t99999`, folded to the left, with the bottom two
    /// variables swapped when `swap` is set.
    fn deep_or_chain(swap: bool) -> LineageTree {
        let (first, second) = if swap { (1, 0) } else { (0, 1) };
        let bottom = LineageTree::or(
            LineageTree::Var(TupleId(first)),
            LineageTree::Var(TupleId(second)),
        );
        (2..100_000).fold(bottom, |acc, i| {
            LineageTree::or(acc, LineageTree::Var(TupleId(i)))
        })
    }

    #[test]
    fn deep_trees_clone_compare_hash_convert_and_drop() {
        use std::hash::{DefaultHasher, Hash, Hasher};
        // Far deeper than a recursive walk survives on a test thread.
        let a = deep_or_chain(false);
        let b = deep_or_chain(false);
        let c = deep_or_chain(true);
        assert!(a == a.clone(), "a clone shares the root");
        assert!(a == b, "separately built chains");
        assert!(a != c, "chains differing only at the bottom");
        let hash = |t: &LineageTree| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(hash(&a), hash(&c));

        let arena = LineageArena::shared(1);
        let _scope = LineageArena::enter(&arena);
        let l = Lineage::from_tree(&a);
        assert_eq!(l.size(), 199_999);
        assert_eq!(Lineage::from_tree(&b), l);
        assert_ne!(Lineage::from_tree(&c), l);
        let back = l.to_tree();
        assert!(back == a, "to_tree of the interned chain");
        drop((a, b, c, back));
        // A negation chain: one operand per node.
        let nots = (0..100_000).fold(LineageTree::Var(TupleId(0)), |t, _| t.negate());
        assert!(nots == nots.clone());
        drop(nots);
    }

    #[test]
    fn owned_form_handle_and_node_sizes() {
        // A variable is stored inline in the 16-byte handle; a binary node
        // is two handles behind the two reference counts: 48 bytes.
        assert_eq!(std::mem::size_of::<LineageTree>(), 16);
        assert_eq!(std::mem::size_of::<Operands<2>>(), 32);
    }

    #[test]
    fn from_tree_interns_a_shared_node_once() {
        // 64 doublings: a tree of 2^65 - 1 nodes over 65 distinct ones,
        // which only a walk that interns each shared node once finishes.
        let (mut tree, mut want) = (LineageTree::Var(TupleId(1)), v(1));
        for _ in 0..64 {
            tree = LineageTree::and(tree.clone(), tree);
            want = Lineage::and(&want, &want);
        }
        assert_eq!(Lineage::from_tree(&tree), want);
        assert!(tree == tree.clone());
    }

    #[test]
    fn var_multiplicities_follow_tree_semantics() {
        // (t1 ∨ t2) ∧ (t1 ∨ t3): t1 twice, t2/t3 once — also when the
        // shared node or(t1, t2) is reused.
        let shared = Lineage::or(&v(1), &v(2));
        let l = Lineage::and(&shared, &Lineage::or(&v(1), &v(3)));
        let m = l.var_multiplicities();
        assert_eq!(m[&TupleId(1)], 2);
        assert_eq!(m[&TupleId(2)], 1);
        assert_eq!(m[&TupleId(3)], 1);
        // Deep sharing: and(x, x) doubles every count of x.
        let twice = Lineage::and(&shared, &shared);
        let m = twice.var_multiplicities();
        assert_eq!(m[&TupleId(1)], 2);
        assert_eq!(m[&TupleId(2)], 2);
    }
}
