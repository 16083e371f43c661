//! Property tests for segmented-arena reclamation: random interleavings of
//! intern / seal / retire under a valid liveness schedule (retire only
//! below the live frontier, as the streaming engine does) must never
//! invalidate a live ref, and valuation/BDD results computed against a
//! reclaiming arena must be identical to a never-retired control arena
//! (the process-global one). Raw interns across seals and retires must
//! answer what a model of hash-consing says: the live copy of a shape, or
//! a ref never issued before.

mod common;

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use common::oracle::assert_formula_matches_control;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tp_core::arena::{
    LineageArena, LineageNode, LineageRef, RetireError, SegmentId, SegmentState, VAR_LIST_CAP,
};
use tp_core::bdd;
use tp_core::lineage::{Lineage, LineageTree, TupleId};
use tp_core::prob;
use tp_core::relation::VarTable;

/// One live formula tracked through the interleaving: the handle in the
/// reclaiming arena plus its tree shape — the oracle the handle must keep
/// agreeing with, and the bridge into the control (global) arena.
struct LiveFormula {
    lineage: Lineage,
    tree: LineageTree,
}

fn vt(nvars: u64) -> VarTable {
    let mut vt = VarTable::new();
    for i in 0..nvars {
        vt.register(format!("t{i}"), 0.05 + 0.9 * ((i % 13) as f64) / 13.0)
            .unwrap();
    }
    vt
}

/// Checks one live formula against its tree oracle and the control arena:
/// metadata, evaluation, exact marginal, and the BDD backend.
///
/// Two variable tables with identical probabilities are used, one per
/// arena, so the subject side shares no state with the control side.
fn check_live(
    f: &LiveFormula,
    arena: &std::sync::Arc<LineageArena>,
    subject_vars: &VarTable,
    control_vars: &VarTable,
) {
    let scope = LineageArena::enter(arena);
    assert_eq!(f.lineage.size(), f.tree.size(), "size diverged");
    assert_eq!(f.lineage.vars(), f.tree.vars(), "vars diverged");
    assert_eq!(
        f.lineage.var_occurrences(),
        f.tree.var_occurrences(),
        "occurrences diverged"
    );
    let assign = |id: TupleId| id.0.is_multiple_of(3);
    assert_eq!(
        f.lineage.eval(&assign),
        f.tree.eval(&assign),
        "eval diverged"
    );
    // Exact marginal in the reclaiming arena...
    let subject = prob::exact(&f.lineage, subject_vars).unwrap();
    let via_bdd = bdd::probability(&f.lineage, subject_vars).unwrap();
    drop(scope);
    // ...must equal the control arena's answer for the same formula — the
    // shared differential oracle re-interns the tree into the global arena
    // and compares.
    assert_formula_matches_control(subject, &f.tree, control_vars, 1e-12);
    assert_formula_matches_control(via_bdd, &f.tree, control_vars, 1e-9);
}

#[test]
fn random_intern_seal_retire_interleavings_never_invalidate_live_refs() {
    let mut rng = StdRng::seed_from_u64(0xA11E_0A01);
    let mut total_retired = 0usize;
    for _case in 0..12u64 {
        let arena = LineageArena::shared(4);
        let nvars = 24u64;
        let subject_vars = vt(nvars);
        let control_vars = vt(nvars);
        let mut live: Vec<LiveFormula> = Vec::new();
        let mut retired_count = 0usize;
        for step in 0..300 {
            match rng.random_range(0..100u32) {
                // Intern: a fresh var, or a combination of live formulas.
                0..=54 => {
                    let _scope = LineageArena::enter(&arena);
                    let fresh = Lineage::var(TupleId(rng.random_range(0..nvars)));
                    let fresh_tree = fresh.to_tree();
                    let (lineage, tree) = if live.is_empty() || rng.random::<bool>() {
                        (fresh, fresh_tree)
                    } else {
                        let pick = &live[rng.random_range(0..live.len())];
                        match rng.random_range(0..3u32) {
                            0 => (
                                Lineage::and(&pick.lineage, &fresh),
                                LineageTree::and(pick.tree.clone(), fresh_tree),
                            ),
                            1 => (
                                Lineage::or(&pick.lineage, &fresh),
                                LineageTree::or(pick.tree.clone(), fresh_tree),
                            ),
                            _ => (pick.lineage.negate(), pick.tree.clone().negate()),
                        }
                    };
                    live.push(LiveFormula { lineage, tree });
                }
                // Drop a live formula (its nodes may become reclaimable).
                55..=69 => {
                    if !live.is_empty() {
                        let at = rng.random_range(0..live.len());
                        live.swap_remove(at);
                    }
                }
                // Seal the open segment.
                70..=79 => {
                    let _ = arena.seal();
                }
                // Retire everything below the live frontier — the valid
                // schedule the streaming engine follows.
                80..=89 => {
                    let scope = LineageArena::enter(&arena);
                    let frontier = live
                        .iter()
                        .map(|f| f.lineage.min_segment())
                        .min()
                        .unwrap_or_else(|| arena.open_segment());
                    drop(scope);
                    for id in 0..frontier.0 {
                        let seg = SegmentId(id);
                        if arena.segment_state(seg) == Some(SegmentState::Sealed) {
                            match arena.retire(seg) {
                                Ok(_) => retired_count += 1,
                                Err(RetireError::AlreadyRetired) => {}
                                Err(e) => panic!("retire({seg}) failed: {e}"),
                            }
                        }
                    }
                }
                // Spot-check a random live formula.
                _ => {
                    if !live.is_empty() {
                        let pick = &live[rng.random_range(0..live.len())];
                        check_live(pick, &arena, &subject_vars, &control_vars);
                    }
                }
            }
            // Every few steps, verify the arena's books.
            if step % 97 == 0 {
                let stats = arena.stats();
                assert_eq!(
                    stats.nodes as u64,
                    stats.total_interned - stats.retired_nodes
                );
                assert_eq!(stats.live_segments + stats.retired_segments, stats.segments);
            }
        }
        // Final sweep: every live formula fully intact after the dust
        // settles, regardless of how much was reclaimed.
        for f in &live {
            check_live(f, &arena, &subject_vars, &control_vars);
        }
        total_retired += retired_count;
    }
    assert!(
        total_retired > 0,
        "no case ever retired a segment — the schedule generator is degenerate"
    );
}

#[test]
fn post_retire_results_match_a_never_retired_arena() {
    // Deterministic end-to-end: build formulas over three "epochs",
    // retire the dead epochs, and compare every surviving marginal and
    // BDD probability against the control (global) arena.
    let arena = LineageArena::shared(2);
    let subject_vars = vt(12);
    let control_vars = vt(12);
    let mut survivors: Vec<LiveFormula> = Vec::new();
    for epoch in 0..3u64 {
        let _scope = LineageArena::enter(&arena);
        let mut scratch = Vec::new();
        for k in 0..40u64 {
            let a = Lineage::var(TupleId((epoch * 4 + k) % 12));
            let b = Lineage::var(TupleId((epoch * 4 + k + 5) % 12));
            let l = if k % 2 == 0 {
                Lineage::and_not(&a, Some(&b))
            } else {
                Lineage::or(&a, &Lineage::and(&a, &b)) // repeating: Shannon path
            };
            scratch.push(l);
            if k % 8 == 0 {
                survivors.push(LiveFormula {
                    lineage: l,
                    tree: l.to_tree(),
                });
            }
        }
        drop(_scope);
        let _ = arena.seal();
    }
    // Retire everything below the survivors' frontier.
    let frontier = {
        let _scope = LineageArena::enter(&arena);
        survivors
            .iter()
            .map(|f| f.lineage.min_segment())
            .min()
            .unwrap()
    };
    let mut retired = 0;
    for id in 0..frontier.0 {
        if arena.segment_state(SegmentId(id)) == Some(SegmentState::Sealed)
            && arena.retire(SegmentId(id)).is_ok()
        {
            retired += 1;
        }
    }
    // The survivors' shared leaves keep their segments alive, so this
    // schedule may legitimately retire nothing; force a split epoch to
    // guarantee coverage of the retired path.
    let dead_ref = {
        let _scope = LineageArena::enter(&arena);
        let dead = Lineage::and(
            &Lineage::var(TupleId(990_001 % 12)),
            &Lineage::var(TupleId(990_007 % 12)),
        );
        dead.node_ref()
    };
    let dead_seg = dead_ref.segment();
    // Nothing live references the new segment (survivors predate it).
    let sealed = arena.seal();
    assert_eq!(sealed, Some(dead_seg));
    arena.retire(dead_seg).expect("fresh segment is dead");
    retired += 1;
    assert!(retired >= 1);
    // Survivors still valuate identically to the control arena.
    for f in &survivors {
        check_live(f, &arena, &subject_vars, &control_vars);
    }
    // And the dead handle is detected, not misread.
    let _scope = LineageArena::enter(&arena);
    let dead = Lineage::from_node_ref(dead_ref);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dead.size()))
        .expect_err("use-after-retire must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("use-after-retire"), "got: {msg}");
}

#[test]
fn one_var_table_values_colliding_refs_of_two_arenas() {
    // One VarTable values formulas of the global arena and of a private
    // arena whose (segment, slot) refs collide with the global ones: each
    // ref resolves in the arena current at the call, never in the other.
    let vars = vt(8);
    let g = Lineage::and(&Lineage::var(TupleId(1)), &Lineage::var(TupleId(2)));
    let pg = prob::marginal(&g, &vars).unwrap();
    // Fresh private arena: its first refs occupy the lowest (0, slot)
    // keys — maximally collision-prone with the global arena's refs.
    let arena = LineageArena::shared(2);
    {
        let _scope = LineageArena::enter(&arena);
        for i in 0..6u64 {
            // Different formulas than the global one.
            let l = Lineage::or(&Lineage::var(TupleId(i)), &Lineage::var(TupleId(i + 1)));
            let got = prob::marginal(&l, &vars).unwrap();
            let want = l.to_tree().independent_prob(&vars).unwrap();
            assert!(
                (got - want).abs() < 1e-12,
                "aliased marginal for private formula {i}: {got} vs {want}"
            );
        }
    }
    // And the global formula still values the same afterwards.
    let pg2 = prob::marginal(&g, &vars).unwrap();
    assert_eq!(pg, pg2);
}

/// One arena driven through a seeded schedule of raw interns, seals,
/// retires and re-interns of earlier shapes, beside a model of what
/// hash-consing must answer.
struct DedupModel {
    arena: Arc<LineageArena>,
    /// Shape → ref of every interned node whose segment is not retired:
    /// exactly the nodes an intern must hit.
    live: HashMap<LineageNode, LineageRef>,
    /// Every ref a fresh intern returned, retired ones included.
    issued: HashSet<LineageRef>,
    /// Fresh interns in order (children before parents).
    shapes: Vec<(LineageNode, LineageRef)>,
    /// Tree-semantic occurrences of every issued ref.
    occurrences: HashMap<LineageRef, usize>,
    /// Refs whose whole sub-DAG is unretired, with their trees; new nodes
    /// are built only over these.
    intact: HashMap<LineageRef, LineageTree>,
    intact_list: Vec<LineageRef>,
    /// Refs the schedule holds, oldest first: retirement stays below
    /// their frontier.
    held: VecDeque<LineageRef>,
    retired: HashSet<SegmentId>,
    /// Refs whose metadata [`DedupModel::check`] compared.
    checked: HashSet<LineageRef>,
    /// Every shape ever interned.
    ever: HashSet<LineageNode>,
    /// Fresh interns of a shape whose earlier copy was retired.
    reissued_shapes: usize,
}

fn children(node: LineageNode) -> Vec<LineageRef> {
    match node {
        LineageNode::Var(_) => vec![],
        LineageNode::Not(c) => vec![c],
        LineageNode::And(a, b) | LineageNode::Or(a, b) => vec![a, b],
    }
}

impl DedupModel {
    fn new(stripes: usize) -> Self {
        DedupModel {
            arena: LineageArena::shared(stripes),
            live: HashMap::new(),
            issued: HashSet::new(),
            shapes: Vec::new(),
            occurrences: HashMap::new(),
            intact: HashMap::new(),
            intact_list: Vec::new(),
            held: VecDeque::new(),
            retired: HashSet::new(),
            checked: HashSet::new(),
            ever: HashSet::new(),
            reissued_shapes: 0,
        }
    }

    /// `node`'s tree, if its children are intact.
    fn tree_of(&self, node: LineageNode) -> Option<LineageTree> {
        let t = |r: LineageRef| self.intact.get(&r).cloned();
        Some(match node {
            LineageNode::Var(id) => LineageTree::Var(id),
            LineageNode::Not(c) => t(c)?.negate(),
            LineageNode::And(a, b) => LineageTree::and(t(a)?, t(b)?),
            LineageNode::Or(a, b) => LineageTree::or(t(a)?, t(b)?),
        })
    }

    /// Holds `r`, letting go of the oldest held ref beyond `HELD`.
    fn hold(&mut self, r: LineageRef) {
        const HELD: usize = 24;
        self.held.push_back(r);
        if self.held.len() > HELD {
            self.held.pop_front();
        }
    }

    /// Interns `node` (its children intact) and checks the answer: the
    /// live copy if the model holds one, otherwise a ref never issued.
    fn intern(&mut self, node: LineageNode) -> LineageRef {
        let tree = self.tree_of(node).expect("children are intact");
        let r = self.arena.intern(node);
        assert!(self.arena.is_live(r), "{node:?} -> dead {r:?}");
        assert!(!self.retired.contains(&r.segment()), "{node:?} -> {r:?}");
        if let Some(&want) = self.live.get(&node) {
            assert_eq!(r, want, "{node:?}: the live copy was missed");
            assert!(self.intact.contains_key(&r));
            return r;
        }
        assert!(self.issued.insert(r), "{node:?} -> reissued {r:?}");
        self.live.insert(node, r);
        if !self.ever.insert(node) {
            self.reissued_shapes += 1;
        }
        self.shapes.push((node, r));
        self.occurrences.insert(r, tree.var_occurrences());
        self.intact.insert(r, tree);
        self.intact_list.push(r);
        r
    }

    /// A formula of exactly `occ` variable occurrences, drawn from `vars`,
    /// interned node by node.
    fn build(&mut self, rng: &mut StdRng, occ: usize, vars: std::ops::Range<u64>) -> LineageRef {
        let r = if occ == 1 {
            self.intern(LineageNode::Var(TupleId(rng.random_range(vars))))
        } else {
            let left = rng.random_range(1..occ);
            let a = self.build(rng, left, vars.clone());
            let b = self.build(rng, occ - left, vars);
            self.intern(if rng.random_bool(0.5) {
                LineageNode::And(a, b)
            } else {
                LineageNode::Or(a, b)
            })
        };
        if rng.random_bool(0.15) {
            self.intern(LineageNode::Not(r))
        } else {
            r
        }
    }

    /// Retires every sealed segment below the held refs' frontier, as the
    /// streaming engine does, then updates the model.
    fn retire_below_frontier(&mut self) {
        let frontier = self
            .held
            .iter()
            .map(|&r| self.arena.min_segment(r))
            .min()
            .unwrap_or_else(|| self.arena.open_segment());
        let before = self.retired.len();
        for id in (0..frontier.0).map(SegmentId) {
            if self.arena.segment_state(id) == Some(SegmentState::Sealed) {
                self.arena.retire(id).expect("sealed, unpinned");
                self.retired.insert(id);
            }
        }
        if self.retired.len() == before {
            return;
        }
        let retired = &self.retired;
        self.live.retain(|_, r| !retired.contains(&r.segment()));
        let mut old = std::mem::take(&mut self.intact);
        self.intact_list.clear();
        for &(node, r) in &self.shapes {
            if !retired.contains(&r.segment())
                && children(node).iter().all(|c| self.intact.contains_key(c))
            {
                if let Some(tree) = old.remove(&r) {
                    self.intact.insert(r, tree);
                    self.intact_list.push(r);
                }
            }
        }
    }

    /// The arena's books and every intact ref against the model: counts,
    /// ref equality ⇔ tree equality, and the metadata of each node not
    /// checked before (metadata never changes) against its tree.
    fn check(&mut self) {
        let stats = self.arena.stats();
        assert_eq!(stats.total_interned, self.issued.len() as u64);
        assert_eq!(stats.nodes, self.live.len());
        let with_set = self
            .live
            .values()
            .filter(|r| self.occurrences[r] <= VAR_LIST_CAP)
            .count();
        assert_eq!(stats.with_var_list, with_set);
        let _scope = LineageArena::enter(&self.arena);
        let mut by_tree: HashMap<&LineageTree, LineageRef> = HashMap::new();
        for (&r, tree) in &self.intact {
            if let Some(other) = by_tree.insert(tree, r) {
                panic!("{r:?} and {other:?} hold equal trees");
            }
            if !self.checked.insert(r) {
                continue;
            }
            let l = Lineage::from_node_ref(r);
            assert_eq!(&l.to_tree(), tree, "{r:?}: tree");
            let vars = tree.vars();
            assert_eq!(l.vars(), vars, "{r:?}: var set");
            let lo = *vars.first().expect("a formula has a variable");
            let hi = *vars.last().expect("a formula has a variable");
            assert_eq!(self.arena.var_range(r), (lo, hi), "{r:?}: var range");
            assert_eq!(l.size(), tree.size(), "{r:?}: size");
            let occ = tree.var_occurrences();
            assert_eq!(l.var_occurrences(), occ, "{r:?}: occurrences");
            let one_of = tree.is_one_occurrence_form();
            if occ <= VAR_LIST_CAP {
                assert_eq!(l.is_one_occurrence_form(), one_of, "{r:?}: 1OF");
            } else {
                // Conservative beyond the cap: never a false 1OF claim.
                assert!(!l.is_one_occurrence_form() || one_of, "{r:?}: 1OF");
            }
        }
    }
}

/// Runs `cases` seeded schedules of `steps` steps on 1- and 16-stripe
/// arenas. Formulas at the metadata boundaries (3 distinct variables; 127
/// to 130 occurrences) are built on purpose, since random combination
/// rarely lands on them.
fn dedup_matches_model(seed: u64, cases: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        for stripes in [1, 16] {
            let mut m = DedupModel::new(stripes);
            for step in 0..steps {
                // Variables slide with the schedule, as a stream's do, so
                // old segments fall out of use and the frontier advances.
                let w = (step / 40) as u64 * 8;
                match rng.random_range(0..100u32) {
                    // A fresh shape over recent intact refs.
                    0..=34 => {
                        let pick = |m: &DedupModel, rng: &mut StdRng| {
                            let n = m.intact_list.len();
                            m.intact_list[rng.random_range(n.saturating_sub(64)..n)]
                        };
                        let node = match rng.random_range(0..4u32) {
                            _ if m.intact_list.is_empty() => {
                                LineageNode::Var(TupleId(rng.random_range(w..w + 40)))
                            }
                            0 => LineageNode::Var(TupleId(rng.random_range(w..w + 40))),
                            1 => LineageNode::Not(pick(&m, &mut rng)),
                            2 => LineageNode::And(pick(&m, &mut rng), pick(&m, &mut rng)),
                            _ => LineageNode::Or(pick(&m, &mut rng), pick(&m, &mut rng)),
                        };
                        let r = m.intern(node);
                        if rng.random_bool(0.3) {
                            m.hold(r);
                        }
                    }
                    // Re-intern an earlier shape, retired or not.
                    35..=54 => {
                        if !m.shapes.is_empty() {
                            let (node, _) = m.shapes[rng.random_range(0..m.shapes.len())];
                            if m.tree_of(node).is_some() {
                                m.intern(node);
                            }
                        }
                    }
                    // A boundary formula, held.
                    55..=59 => {
                        let (occ, vars) = match rng.random_range(0..4u32) {
                            0 => (rng.random_range(2..6), w..w + 3),
                            1 => (rng.random_range(3..6), w..w + 4),
                            2 => (rng.random_range(127..131), w..w + 40),
                            _ => (rng.random_range(127..131), w + 1_000..w + 1_200),
                        };
                        let r = m.build(&mut rng, occ, vars);
                        m.hold(r);
                    }
                    60..=69 => {
                        m.held.pop_front();
                    }
                    70..=79 => {
                        let _ = m.arena.seal();
                    }
                    _ => m.retire_below_frontier(),
                }
                if step % 100 == 99 {
                    m.check();
                }
            }
            m.check();
            assert!(
                !m.retired.is_empty() && m.reissued_shapes > 0,
                "case {case}, {stripes} stripes: no retired shape re-interned"
            );
        }
    }
}

#[test]
fn dedup_agrees_with_a_model_across_retires() {
    dedup_matches_model(0xDED0_0001, 2, 600);
}

/// The release soak of the dedup model: 40 cases of 3 000 steps on each
/// stripe count. Run with `cargo test --release --test arena_reclaim --
/// --ignored`.
#[test]
#[ignore = "release soak; run with --ignored"]
fn dedup_agrees_with_a_model_soak() {
    dedup_matches_model(0xDED0_0002, 40, 3_000);
}

/// Whether a published node has the shapes [`publication_soak_chains`]
/// interns: variables at or above `1_000`, distinct `And` / `Or`
/// operands. A slot whose last word was stored before its operands reads
/// as `Var(0)` or as operands `0, 0`.
fn assert_chain_shape(at: impl std::fmt::Debug, node: LineageNode) {
    match node {
        LineageNode::Var(id) => assert!(id.0 >= 1_000, "{at:?}: {node:?}"),
        LineageNode::Not(_) => {}
        LineageNode::And(a, b) | LineageNode::Or(a, b) => assert_ne!(a, b, "{at:?}: {node:?}"),
    }
}

/// One writer of the publication soak: `chains` chains of `n` steps over
/// fresh variables (`acc = Or(acc, v)`, `Not(acc)`, `And(Not(acc), v)`),
/// so every node is new. Before a chain starts, `low` is set to the open
/// segment: nothing the chain interns reaches below it. Every returned
/// ref must read back its node and exact variable set through a view.
/// Returns the nodes interned.
fn publication_soak_chains(
    arena: &LineageArena,
    base: u64,
    chains: u64,
    n: u64,
    low: &AtomicU32,
) -> u64 {
    let mut interned = 0;
    for k in 0..chains {
        low.store(arena.open_segment().0, Ordering::SeqCst);
        let view = arena.view();
        // ref → (distinct variables, occurrences)
        let mut sets: HashMap<LineageRef, (Vec<TupleId>, usize)> = HashMap::new();
        let mut intern = |node: LineageNode| {
            let r = arena.intern(node);
            assert_eq!(view.node(r), node, "{r:?}");
            let (set, occ) = match node {
                LineageNode::Var(id) => (vec![id], 1),
                LineageNode::Not(c) => sets[&c].clone(),
                LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                    let (sa, sb) = (&sets[&a], &sets[&b]);
                    let mut set: Vec<TupleId> = sa.0.iter().chain(&sb.0).copied().collect();
                    set.sort_unstable();
                    set.dedup();
                    (set, sa.1 + sb.1)
                }
            };
            let stored = view.var_list(r, |s| s.map(<[TupleId]>::to_vec));
            assert_eq!(stored, (occ <= VAR_LIST_CAP).then(|| set.clone()), "{r:?}");
            sets.insert(r, (set, occ));
            interned += 1;
            r
        };
        let first = base + k * n;
        let mut acc = intern(LineageNode::Var(TupleId(first)));
        for i in 1..n {
            let v = intern(LineageNode::Var(TupleId(first + i)));
            acc = intern(LineageNode::Or(acc, v));
            let not = intern(LineageNode::Not(acc));
            intern(LineageNode::And(not, v));
        }
    }
    low.store(u32::MAX, Ordering::SeqCst);
    interned
}

/// Counts a writer thread as finished when dropped, also while it
/// unwinds, so the threads waiting for the writers never outlive a
/// writer's panic.
struct Finished<'a>(&'a AtomicU32);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Two writers intern chains, a reader walks the open segment's snapshot
/// slot by slot (spinning on the newest), and this thread seals and
/// retires every segment below the writers' frontier: every published
/// slot the reader sees must be a whole node whose children precede it
/// and, while their segment is live, read back as whole nodes too. The
/// reader's last pass starts after the writers finish.
fn publication_races_seals_and_retires(chains: u64, n: u64) {
    let arena = LineageArena::with_shards(16);
    let lows = [AtomicU32::new(0), AtomicU32::new(0)];
    let done = AtomicU32::new(0);
    let start = std::sync::Barrier::new(4);
    let (interned, seen) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let (arena, low, done, start) = (&arena, &lows[t as usize], &done, &start);
                scope.spawn(move || {
                    let _finished = Finished(done);
                    start.wait();
                    publication_soak_chains(arena, 1_000 + t * (1 << 32), chains, n, low)
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            let (mut seg, mut checked, mut seen) = (SegmentId(0), 0u32, 0u64);
            start.wait();
            loop {
                let finished = done.load(Ordering::SeqCst) == 2;
                let open = arena.open_segment();
                if open != seg {
                    (seg, checked) = (open, 0);
                }
                let Some(snap) = arena.snapshot_segment(seg) else {
                    continue;
                };
                while checked < snap.len() {
                    let slot = checked;
                    let mut spins = 0;
                    let node = loop {
                        match snap.node_at(slot) {
                            Some((node, _)) => break Some(node),
                            None if spins < 1_000 => spins += 1,
                            None => break None,
                        }
                    };
                    let Some(node) = node else { break };
                    let at = (seg, slot);
                    assert_chain_shape(at, node);
                    let children = match node {
                        LineageNode::Var(_) => vec![],
                        LineageNode::Not(c) => vec![c],
                        LineageNode::And(a, b) | LineageNode::Or(a, b) => vec![a, b],
                    };
                    for c in children {
                        let child_at = (c.segment(), c.index() as u32);
                        assert!(child_at < at, "{at:?}: child {c:?} follows it");
                        // A child of a finished chain may be retired.
                        if let Some(child_snap) = arena.snapshot_segment(c.segment()) {
                            let (child, _) = child_snap
                                .node_at(c.index() as u32)
                                .unwrap_or_else(|| panic!("{at:?}: child {c:?} unpublished"));
                            assert_chain_shape(c, child);
                        }
                    }
                    checked += 1;
                    seen += 1;
                }
                if finished {
                    break seen;
                }
            }
        });
        start.wait();
        let mut floor = 0u32;
        while done.load(Ordering::SeqCst) < 2 {
            arena.seal();
            let frontier = lows.iter().map(|l| l.load(Ordering::SeqCst)).min().unwrap();
            while floor < frontier.min(arena.open_segment().0) {
                match arena.retire(SegmentId(floor)) {
                    Ok(_) | Err(RetireError::AlreadyRetired) => floor += 1,
                    Err(RetireError::Pinned(_)) => break,
                    Err(e) => panic!("retire of segment {floor}: {e}"),
                }
            }
            std::thread::yield_now();
        }
        let interned: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        (interned, reader.join().unwrap())
    });
    assert!(seen > 0, "the reader saw no slot");
    let stats = arena.stats();
    assert_eq!(stats.total_interned, interned);
    assert!(stats.retired_segments > 0, "no retire raced the writers");
}

/// The release soak of slot publication: two writers of 500 chains of 300
/// steps each (about 600 000 nodes apiece), a reader, and seals and
/// retires racing them; four threads in all. Run with `cargo test
/// --release --test arena_reclaim -- --ignored`.
#[test]
#[ignore = "release soak; run with --ignored"]
fn publication_races_seals_and_retires_soak() {
    publication_races_seals_and_retires(500, 300);
}
