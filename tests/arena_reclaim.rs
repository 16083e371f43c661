//! Property tests for segmented-arena reclamation: random interleavings of
//! intern / seal / retire under a valid liveness schedule (retire only
//! below the live frontier, as the streaming engine does) must never
//! invalidate a live ref, and valuation/BDD results computed against a
//! reclaiming arena must be identical to a never-retired control arena
//! (the process-global one).

mod common;

use common::oracle::assert_formula_matches_control;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tp_core::arena::{LineageArena, RetireError, SegmentId, SegmentState};
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
/// Two variable tables with identical probabilities are used deliberately:
/// a `VarTable`'s valuation cache is keyed by arena refs, so one table
/// must never serve formulas of two different arenas (colliding
/// `(segment, slot)` keys would alias distinct formulas).
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
fn marginal_cache_never_aliases_across_arenas() {
    // A VarTable that cached marginals for one arena must not return them
    // for a *different* arena's refs, even when the (segment, slot) keys
    // collide — the cache binds to its first arena and reads from any
    // other arena are misses (correct, just uncached).
    let vars = vt(8);
    // Global arena: cache a marginal whose ref sits at some (seg, slot).
    let g = Lineage::and(&Lineage::var(TupleId(1)), &Lineage::var(TupleId(2)));
    let pg = prob::marginal(&g, &vars).unwrap();
    assert!(vars.valuation_cache_len() > 0, "premise: cache is warm");
    // Fresh private arena: its first refs occupy the lowest (0, slot)
    // keys — maximally collision-prone with the global cache's entries.
    let arena = LineageArena::shared(2);
    {
        let _scope = LineageArena::enter(&arena);
        for i in 0..6u64 {
            // Different formulas than the globally cached ones.
            let l = Lineage::or(&Lineage::var(TupleId(i)), &Lineage::var(TupleId(i + 1)));
            let got = prob::marginal(&l, &vars).unwrap();
            let want = l.to_tree().independent_prob(&vars).unwrap();
            assert!(
                (got - want).abs() < 1e-12,
                "aliased marginal for private formula {i}: {got} vs {want}"
            );
        }
    }
    // And the global cache still answers correctly afterwards.
    let pg2 = prob::marginal(&g, &vars).unwrap();
    assert_eq!(pg, pg2);
}

#[test]
fn marginal_cache_survives_segment_release_with_identical_values() {
    // Releasing marginals per segment must be invisible to results: the
    // next valuation recomputes the same numbers.
    let arena = LineageArena::shared(2);
    let vars = vt(10);
    let _scope = LineageArena::enter(&arena);
    let l = Lineage::and_not(
        &Lineage::or(&Lineage::var(TupleId(1)), &Lineage::var(TupleId(2))),
        Some(&Lineage::var(TupleId(3))),
    );
    let p1 = prob::marginal(&l, &vars).unwrap();
    assert!(vars.valuation_cache_len() > 0);
    vars.release_marginals_for_segment(l.node_ref().segment());
    assert_eq!(vars.valuation_cache_len(), 0);
    let p2 = prob::marginal(&l, &vars).unwrap();
    assert_eq!(p1, p2);
}
