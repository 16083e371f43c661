//! Reduced ordered binary decision diagrams (ROBDDs) for lineage.
//!
//! The paper computes result probabilities "via a probabilistic valuation of
//! the tuple's lineage expression, using either exact or approximate
//! algorithms", citing OBDD-based evaluation (reference \[24\], Olteanu &
//! Huang) as one of the exact methods. This module provides that backend:
//! lineage compiles into an ROBDD over the tuple variables (fixed ascending
//! variable order, hash-consed nodes, memoized `apply`), and the marginal
//! probability is a single bottom-up pass over the DAG — linear in the BDD
//! size, independent of how often variables repeat in the formula.
//!
//! For the 1OF lineages of non-repeating queries the BDD is linear in the
//! formula; for repeating queries it is often far smaller than the Shannon
//! expansion tree explored by [`crate::prob::exact`] because isomorphic
//! subproblems are shared globally.

use std::collections::HashMap;

use crate::arena::{FastMap, LineageRef};
use crate::error::Result;
use crate::lineage::{Lineage, LineageKind, TupleId};
use crate::relation::VarTable;

/// Index of a node inside a [`Bdd`] arena.
pub type NodeId = usize;

/// Terminal FALSE.
pub const FALSE: NodeId = 0;
/// Terminal TRUE.
pub const TRUE: NodeId = 1;

/// A decision node: on `var`, follow `lo` when false, `hi` when true.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: TupleId,
    lo: NodeId,
    hi: NodeId,
}

/// A ROBDD arena with hash-consing. Variables are ordered by ascending
/// [`TupleId`].
#[derive(Debug, Default)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<Node, NodeId>,
    apply_memo: HashMap<(u8, NodeId, NodeId), NodeId>,
    /// Lineage handles already compiled into this arena: shared
    /// sublineages (hash-consed upstream) compile once per `Bdd` instance.
    compile_memo: FastMap<LineageRef, NodeId>,
}

/// Boolean connectives for [`Bdd::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoolOp {
    And = 0,
    Or = 1,
}

impl Bdd {
    /// Creates an empty arena (terminals only).
    pub fn new() -> Self {
        // Slots 0 and 1 are virtual terminals; `nodes` stores decision
        // nodes at `id - 2`.
        Bdd::default()
    }

    fn node(&self, id: NodeId) -> Node {
        self.nodes[id - 2]
    }

    fn is_terminal(id: NodeId) -> bool {
        id < 2
    }

    fn mk(&mut self, var: TupleId, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo; // reduction rule: redundant test
        }
        let n = Node { var, lo, hi };
        if let Some(&id) = self.unique.get(&n) {
            return id; // reduction rule: shared isomorphic subgraph
        }
        let id = self.nodes.len() + 2;
        self.nodes.push(n);
        self.unique.insert(n, id);
        id
    }

    /// Number of decision nodes currently in the arena.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// The variable of the root-most decision of `id` (terminals sort last).
    fn top_var(&self, id: NodeId) -> Option<TupleId> {
        if Self::is_terminal(id) {
            None
        } else {
            Some(self.node(id).var)
        }
    }

    fn apply(&mut self, op: BoolOp, a: NodeId, b: NodeId) -> NodeId {
        // Terminal cases.
        match (op, a, b) {
            (BoolOp::And, FALSE, _) | (BoolOp::And, _, FALSE) => return FALSE,
            (BoolOp::And, TRUE, x) | (BoolOp::And, x, TRUE) => return x,
            (BoolOp::Or, TRUE, _) | (BoolOp::Or, _, TRUE) => return TRUE,
            (BoolOp::Or, FALSE, x) | (BoolOp::Or, x, FALSE) => return x,
            _ => {}
        }
        if a == b {
            return a;
        }
        // Normalize operand order: both ops are commutative.
        let key = (op as u8, a.min(b), a.max(b));
        if let Some(&id) = self.apply_memo.get(&key) {
            return id;
        }
        let (va, vb) = (self.top_var(a), self.top_var(b));
        let var = match (va, vb) {
            (Some(x), Some(y)) => x.min(y),
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (None, None) => unreachable!("terminal pairs handled above"),
        };
        let (a_lo, a_hi) = if va == Some(var) {
            let n = self.node(a);
            (n.lo, n.hi)
        } else {
            (a, a)
        };
        let (b_lo, b_hi) = if vb == Some(var) {
            let n = self.node(b);
            (n.lo, n.hi)
        } else {
            (b, b)
        };
        let lo = self.apply(op, a_lo, b_lo);
        let hi = self.apply(op, a_hi, b_hi);
        let id = self.mk(var, lo, hi);
        self.apply_memo.insert(key, id);
        id
    }

    /// Negation via cofactor swap… ROBDDs without complement edges negate
    /// by structural recursion with memoization.
    fn negate(&mut self, a: NodeId, memo: &mut HashMap<NodeId, NodeId>) -> NodeId {
        match a {
            FALSE => return TRUE,
            TRUE => return FALSE,
            _ => {}
        }
        if let Some(&id) = memo.get(&a) {
            return id;
        }
        let n = self.node(a);
        let lo = self.negate(n.lo, memo);
        let hi = self.negate(n.hi, memo);
        let id = self.mk(n.var, lo, hi);
        memo.insert(a, id);
        id
    }

    /// Compiles a lineage formula into the arena, returning its root.
    /// Compilation is memoized per interned lineage handle, so recompiling a
    /// formula — or compiling another formula sharing sublineage with it —
    /// reuses the existing sub-BDDs.
    pub fn compile(&mut self, lineage: &Lineage) -> NodeId {
        let r = lineage.node_ref();
        if let Some(&root) = self.compile_memo.get(&r) {
            return root;
        }
        let root = match lineage.kind() {
            LineageKind::Var(id) => self.mk(id, FALSE, TRUE),
            LineageKind::Not(c) => {
                let inner = self.compile(&c);
                let mut memo = HashMap::new();
                self.negate(inner, &mut memo)
            }
            LineageKind::And(a, b) => {
                let (ra, rb) = (self.compile(&a), self.compile(&b));
                self.apply(BoolOp::And, ra, rb)
            }
            LineageKind::Or(a, b) => {
                let (ra, rb) = (self.compile(&a), self.compile(&b));
                self.apply(BoolOp::Or, ra, rb)
            }
        };
        self.compile_memo.insert(r, root);
        root
    }

    /// Evaluates a root under a truth assignment.
    pub fn eval(&self, root: NodeId, assignment: &impl Fn(TupleId) -> bool) -> bool {
        let mut cur = root;
        while !Self::is_terminal(cur) {
            let n = self.node(cur);
            cur = if assignment(n.var) { n.hi } else { n.lo };
        }
        cur == TRUE
    }

    /// Marginal probability of a root under independent variables: one
    /// bottom-up pass, `O(size)`.
    pub fn probability(&self, root: NodeId, vars: &VarTable) -> Result<f64> {
        let mut memo: HashMap<NodeId, f64> = HashMap::new();
        self.prob_rec(root, vars, &mut memo)
    }

    fn prob_rec(
        &self,
        id: NodeId,
        vars: &VarTable,
        memo: &mut HashMap<NodeId, f64>,
    ) -> Result<f64> {
        match id {
            FALSE => return Ok(0.0),
            TRUE => return Ok(1.0),
            _ => {}
        }
        if let Some(&p) = memo.get(&id) {
            return Ok(p);
        }
        let n = self.node(id);
        let pv = vars.prob(n.var)?;
        let p =
            pv * self.prob_rec(n.hi, vars, memo)? + (1.0 - pv) * self.prob_rec(n.lo, vars, memo)?;
        memo.insert(id, p);
        Ok(p)
    }

    /// Number of nodes reachable from `root` (the BDD's effective size).
    pub fn reachable_size(&self, root: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if Self::is_terminal(id) || !seen.insert(id) {
                continue;
            }
            count += 1;
            let n = self.node(id);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }
}

/// One-shot convenience: compile `lineage` and return its exact marginal
/// probability via the BDD backend.
pub fn probability(lineage: &Lineage, vars: &VarTable) -> Result<f64> {
    let mut bdd = Bdd::new();
    let root = bdd.compile(lineage);
    bdd.probability(root, vars)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u64) -> Lineage {
        Lineage::var(TupleId(i))
    }

    fn vt(ps: &[f64]) -> VarTable {
        let mut vt = VarTable::new();
        for (i, &p) in ps.iter().enumerate() {
            vt.register(format!("t{i}"), p).unwrap();
        }
        vt
    }

    #[test]
    fn terminals_and_single_var() {
        let mut bdd = Bdd::new();
        let root = bdd.compile(&v(0));
        assert_eq!(bdd.reachable_size(root), 1);
        assert!(bdd.eval(root, &|_| true));
        assert!(!bdd.eval(root, &|_| false));
    }

    #[test]
    fn tautology_collapses_to_true() {
        let mut bdd = Bdd::new();
        let root = bdd.compile(&Lineage::or(&v(0), &v(0).negate()));
        assert_eq!(root, TRUE);
        let root = bdd.compile(&Lineage::and(&v(0), &v(0).negate()));
        assert_eq!(root, FALSE);
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let mut bdd = Bdd::new();
        let a = bdd.compile(&Lineage::and(&v(0), &v(1)));
        let b = bdd.compile(&Lineage::and(&v(0), &v(1)));
        assert_eq!(a, b);
    }

    #[test]
    fn probability_matches_shannon_exact() {
        let vars = vt(&[0.5, 0.4, 0.3, 0.7]);
        let cases = [
            v(0),
            Lineage::and(&v(0), &v(1)),
            Lineage::or(&v(0), &v(1)),
            Lineage::and_not(&v(0), Some(&Lineage::or(&v(1), &v(2)))),
            // Repeating formulas — where the BDD shines.
            Lineage::and(&Lineage::or(&v(0), &v(1)), &Lineage::or(&v(0), &v(2))),
            Lineage::and_not(
                &Lineage::or(&v(0), &v(1)),
                Some(&Lineage::and(&v(0), &v(3))),
            ),
        ];
        for l in cases {
            let via_bdd = probability(&l, &vars).unwrap();
            let via_shannon = crate::prob::exact(&l, &vars).unwrap();
            assert!(
                (via_bdd - via_shannon).abs() < 1e-12,
                "{l}: {via_bdd} vs {via_shannon}"
            );
        }
    }

    #[test]
    fn eval_agrees_with_lineage_eval_randomized() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let l = random_formula(&mut rng, 5, 5);
            let mut bdd = Bdd::new();
            let root = bdd.compile(&l);
            for world in 0u32..32 {
                let assign = |id: TupleId| world >> id.0 & 1 == 1;
                assert_eq!(bdd.eval(root, &assign), l.eval(&assign), "{l} @ {world:b}");
            }
        }
    }

    #[test]
    fn bdd_probability_randomized_against_shannon() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        let vars = vt(&[0.3, 0.5, 0.7, 0.2, 0.9]);
        for _ in 0..40 {
            let l = random_formula(&mut rng, 5, 6);
            let a = probability(&l, &vars).unwrap();
            let b = crate::prob::exact(&l, &vars).unwrap();
            assert!((a - b).abs() < 1e-9, "{l}: {a} vs {b}");
        }
    }

    #[test]
    fn one_occurrence_form_gives_linear_bdd() {
        // 1OF chain: ((t0 ∨ t1) ∧ t2) ∨ t3 … BDD size linear in variables.
        let l = Lineage::or(&Lineage::and(&Lineage::or(&v(0), &v(1)), &v(2)), &v(3));
        let mut bdd = Bdd::new();
        let root = bdd.compile(&l);
        assert!(bdd.reachable_size(root) <= 2 * l.vars().len());
    }

    #[test]
    fn shared_subproblems_stay_small() {
        // (t0 ∨ t1) ∧ (t0 ∨ t2) ∧ (t0 ∨ t3): with t0 first in the order the
        // BDD is tiny (t0-high branch collapses to checking nothing).
        let l = Lineage::and(
            &Lineage::and(&Lineage::or(&v(0), &v(1)), &Lineage::or(&v(0), &v(2))),
            &Lineage::or(&v(0), &v(3)),
        );
        let mut bdd = Bdd::new();
        let root = bdd.compile(&l);
        assert!(
            bdd.reachable_size(root) <= 4,
            "{}",
            bdd.reachable_size(root)
        );
    }

    fn random_formula(rng: &mut rand::rngs::StdRng, nvars: u64, depth: usize) -> Lineage {
        use rand::RngExt;
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
