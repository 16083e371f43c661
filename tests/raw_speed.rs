//! The raw-speed pass differentials (PR 8): the fast paths must be
//! invisible except in wall time.
//!
//! * **Columnar marginal kernel** — `prob::marginal_batch` must match the
//!   memoized per-root evaluator to 1e-12 on the output of every workload
//!   generator the harness owns, plus the paper's Fig. 4 shared-chain
//!   motif (where the 1OF tree valuation must agree too).
//! * **Interior-segment reclamation** — random interior retire
//!   interleavings never invalidate live refs and post-retire marginals
//!   equal a never-retired control; at the engine layer, an immortal
//!   cohort pinning the first sealed segment does not stop the dead
//!   segments behind it from retiring: the run stays batch-identical
//!   while arena residency and live vars plateau.

mod common;

use common::oracle::assert_formula_matches_control;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::hash_map::Entry;
use tp_core::arena::{FastMap, LineageArena, SegmentState};
use tp_core::lineage::LineageTree;
use tp_stream::{
    EngineConfig, MaterializingSink, ReclaimConfig, ReplayConfig, ReplayEvent, StreamEngine,
};
use tp_workloads::{
    immortal_facts_stream, meteo_stream, skewed_synth_stream, sliding_synth_stream, synth_stream,
    webkit_stream, ImmortalConfig, MeteoConfig, SkewedConfig, SlidingConfig, StreamWorkload,
    SynthConfig, WebkitConfig,
};
use tpdb::prelude::*;

/// Every workload generator the harness owns, small enough for CI.
fn all_generators(vars: &mut VarTable) -> Vec<(&'static str, StreamWorkload)> {
    let replay = ReplayConfig {
        lateness: 40,
        advance_every: 24,
        seed: 7,
    };
    vec![
        (
            "synth",
            synth_stream(&SynthConfig::with_facts(400, 5, 11), &replay, vars),
        ),
        (
            "sliding",
            sliding_synth_stream(
                &SlidingConfig {
                    epochs: 12,
                    ..Default::default()
                },
                vars,
            ),
        ),
        (
            "skewed",
            skewed_synth_stream(
                &SkewedConfig {
                    epochs: 8,
                    per_epoch: 40,
                    ..Default::default()
                },
                vars,
            ),
        ),
        (
            "meteo",
            meteo_stream(
                &MeteoConfig {
                    stations: 6,
                    tuples: 240,
                    ..Default::default()
                },
                6 * 600,
                &ReplayConfig {
                    lateness: 600,
                    advance_every: 32,
                    seed: 5,
                },
                vars,
            ),
        ),
        (
            "webkit",
            webkit_stream(
                &WebkitConfig {
                    files: 40,
                    tuples: 240,
                    ..Default::default()
                },
                10_000,
                &ReplayConfig {
                    lateness: 2_000,
                    advance_every: 48,
                    seed: 9,
                },
                vars,
            ),
        ),
        (
            "immortal",
            immortal_facts_stream(
                &ImmortalConfig {
                    epochs: 12,
                    ..Default::default()
                },
                vars,
            ),
        ),
    ]
}

/// The paper's Fig. 4 motif: per fact, one long-lived tuple per level
/// folded into a `levels`-deep ∪Tp chain, paired with a grid of short
/// tuples. Every short tuple clips one LAWA window out of the long one, so
/// all `cells` windows of a fact share the deep chain as a subformula —
/// the repeated-lineage shape both the memo and the columnar kernel are
/// for.
fn shared_chain_pair(vars: &mut VarTable) -> (TpRelation, TpRelation) {
    let (facts, cells, levels, granule) = (6i64, 24i64, 32, 10i64);
    let mut rng = StdRng::seed_from_u64(4);
    let mut chain: Option<TpRelation> = None;
    for i in 0..levels {
        let rows: Vec<_> = (0..facts)
            .map(|f| {
                let p = rng.random_range(0.05..0.95);
                (Fact::single(f), Interval::at(0, cells * granule), p)
            })
            .collect();
        let level = TpRelation::base(&format!("d{i}"), rows, vars).unwrap();
        chain = Some(match chain {
            Some(acc) => apply(SetOp::Union, &acc, &level),
            None => level,
        });
    }
    let mut grid_rows = Vec::new();
    for f in 0..facts {
        for j in 0..cells {
            let iv = Interval::at(j * granule, (j + 1) * granule);
            grid_rows.push((Fact::single(f), iv, rng.random_range(0.05..0.95)));
        }
    }
    let grid = TpRelation::base("s", grid_rows, vars).unwrap();
    (chain.unwrap(), grid)
}

#[test]
fn columnar_marginals_match_memoized_on_every_generator() {
    let mut vars = VarTable::new();
    let mut inputs: Vec<(&str, TpRelation, TpRelation)> = all_generators(&mut vars)
        .into_iter()
        .map(|(name, w)| (name, w.r, w.s))
        .collect();
    let (chain, grid) = shared_chain_pair(&mut vars);
    inputs.push(("shared_chain", chain, grid));
    for (name, r, s) in &inputs {
        for op in SetOp::ALL {
            let out = apply(op, r, s);
            let lineages: Vec<Lineage> = out.iter().map(|t| t.lineage).collect();
            if lineages.is_empty() {
                continue;
            }
            // Memoized per-root walk first (it may populate the cache);
            // the batch kernel must agree regardless of cache state.
            let expect: Vec<f64> = lineages
                .iter()
                .map(|l| prob::marginal(l, &vars).unwrap())
                .collect();
            let got = prob::marginal_batch(&lineages, &vars).unwrap();
            for (i, (e, g)) in expect.iter().zip(&got).enumerate() {
                assert!(
                    (e - g).abs() <= 1e-12,
                    "{name}/{op}: root #{i} diverged: memoized {e} vs columnar {g}"
                );
            }
            // And again on a cold cache, batch first.
            vars.clear_valuation_cache();
            let cold = prob::marginal_batch(&lineages, &vars).unwrap();
            for (i, (e, g)) in expect.iter().zip(&cold).enumerate() {
                assert!(
                    (e - g).abs() <= 1e-12,
                    "{name}/{op}: cold root #{i} diverged: {e} vs {g}"
                );
            }
            // One operation over inputs with distinct variables: every
            // root is 1OF, so the independence-assuming tree walk is exact
            // on it too.
            for (i, (l, e)) in lineages.iter().zip(&expect).enumerate() {
                let tree = l.to_tree();
                assert!(
                    tree.is_one_occurrence_form(),
                    "{name}/{op}: root #{i} not 1OF"
                );
                let t = tree.independent_prob(&vars).unwrap();
                assert!(
                    (e - t).abs() <= 1e-9,
                    "{name}/{op}: root #{i} diverged: memoized {e} vs tree {t}"
                );
            }
        }
    }
}

/// One reclaiming replay of the immortal-facts workload; returns the delta
/// log, per-advance resident-byte samples, and the (total, interior)
/// retired-segment counts accumulated from `AdvanceStats`.
fn run_immortal(w: &StreamWorkload) -> (MaterializingSink, Vec<usize>, (u64, u64)) {
    let mut engine = StreamEngine::new(EngineConfig {
        reclaim: Some(ReclaimConfig {
            keep_epochs: 2,
            ..Default::default()
        }),
        ..Default::default()
    });
    let mut sink = MaterializingSink::new();
    let mut resident = Vec::new();
    let mut retired = (0u64, 0u64);
    for event in &w.script.events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                engine.push(*side, t.clone());
            }
            ReplayEvent::Advance(wm) => {
                let stats = engine.advance(*wm, &mut sink).unwrap();
                retired.0 += stats.retired_segments;
                retired.1 += stats.interior_retired_segments;
                resident.push(engine.arena_stats().unwrap().resident_bytes);
            }
        }
    }
    let fin = engine.finish(&mut sink).unwrap();
    assert_eq!(
        retired.0 + fin.retired_segments,
        engine.reclaimed().0,
        "AdvanceStats retired_segments must add up to the engine total"
    );
    (sink, resident, retired)
}

#[test]
fn immortal_pin_does_not_stop_reclaim_behind_it() {
    let mut vars = VarTable::new();
    let w = immortal_facts_stream(
        &ImmortalConfig {
            epochs: 48,
            ..Default::default()
        },
        &mut vars,
    );
    let (log, resident, (retired, interior_retired)) = run_immortal(&w);
    common::oracle::assert_materialized_matches_batch(&log, &w.r, &w.s, &vars);
    // The immortal cohort pins the first sealed segment; the dead body
    // segments behind it retire as they go, as holes.
    assert!(
        interior_retired > 10,
        "immortal workload produced only {interior_retired} interior retires"
    );
    assert!(
        retired >= interior_retired,
        "interior retires {interior_retired} exceed total {retired}"
    );
    // Residency plateaus despite the immortal pin.
    common::oracle::assert_plateau(&resident, 8, 2.0, "immortal-facts reclaim");
}

/// Replays the immortal-facts script through a reclaiming engine with an
/// **attached var registry**, re-registering every arriving tuple's
/// variable into the engine's own table (the push-time registration
/// contract of `ReclaimConfig::vars`). Returns per-advance `live_vars`
/// samples plus the registry and the engine's released-var total.
fn run_immortal_with_registry(
    w: &StreamWorkload,
    src: &VarTable,
) -> (Vec<usize>, u64, std::sync::Arc<VarTable>) {
    let vars = std::sync::Arc::new(VarTable::new());
    let mut engine = StreamEngine::new(EngineConfig {
        reclaim: Some(ReclaimConfig {
            keep_epochs: 2,
            vars: Some(std::sync::Arc::clone(&vars)),
        }),
        ..Default::default()
    });
    let mut sink = MaterializingSink::new();
    let mut live = Vec::new();
    let mut n = 0u64;
    for event in &w.script.events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                // Base tuples carry a single-var lineage, so the marginal
                // against the generator's table IS the tuple probability.
                let p = prob::marginal(&t.lineage, src).unwrap();
                let id = vars.register_shared(format!("v{n}"), p).unwrap();
                n += 1;
                let scope = engine.enter_arena();
                let fresh = TpTuple::new(t.fact.clone(), Lineage::var(id), t.interval);
                engine.push(*side, fresh);
                drop(scope);
            }
            ReplayEvent::Advance(wm) => {
                engine.advance(*wm, &mut sink).unwrap();
                live.push(vars.live_vars());
            }
        }
    }
    engine.finish(&mut sink).unwrap();
    (live, engine.reclaimed_vars(), vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The cohort-granular release property: under the immortal-facts
    /// workload the pinned first cohort must NOT hold every later var
    /// cohort resident — `live_vars` plateaus for any probability seed
    /// and immortal-cohort size.
    #[test]
    fn cohort_release_keeps_live_vars_plateaued_under_immortal_pin(
        seed in 0u64..1024,
        immortals in 1usize..4,
    ) {
        let mut src = VarTable::new();
        let w = immortal_facts_stream(
            &ImmortalConfig {
                epochs: 40,
                immortals,
                seed,
                ..Default::default()
            },
            &mut src,
        );
        let (live, released, vars) = run_immortal_with_registry(&w, &src);
        common::oracle::assert_plateau(&live, 8, 2.0, "immortal-facts live_vars");
        // ...and the engine's release counter agrees with the registry.
        prop_assert!(released > 0, "no vars released");
        prop_assert_eq!(released, vars.released_vars());
    }
}

/// One live formula tracked through the interleaving: the reclaiming-arena
/// handle plus the tree shape it must keep agreeing with.
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

#[test]
fn random_interior_retire_interleavings_preserve_live_marginals() {
    // The interior generalization of the arena-reclaim property suite:
    // instead of retiring only below the live frontier, retire ANY sealed
    // segment no live formula's coverage interval `[min_segment, segment]`
    // touches — in random order, holes and all. Live formulas must stay
    // intact and valuate exactly like a never-retired control arena.
    let mut rng = StdRng::seed_from_u64(0x1A7E_121E);
    let mut total_interior = 0usize;
    for _case in 0..10u64 {
        let arena = LineageArena::shared(2);
        let nvars = 24u64;
        let subject_vars = vt(nvars);
        let control_vars = vt(nvars);
        let mut live: Vec<LiveFormula> = Vec::new();
        for _step in 0..240 {
            match rng.random_range(0..100u32) {
                // Intern a fresh var or a combination of live formulas.
                0..=49 => {
                    let _scope = LineageArena::enter(&arena);
                    let fresh = Lineage::var(TupleId(rng.random_range(0..nvars)));
                    let fresh_tree = fresh.to_tree();
                    let (lineage, tree) = if live.is_empty() || rng.random::<bool>() {
                        (fresh, fresh_tree)
                    } else {
                        let pick = &live[rng.random_range(0..live.len())];
                        if rng.random::<bool>() {
                            (
                                Lineage::and(&pick.lineage, &fresh),
                                LineageTree::And(Box::new(pick.tree.clone()), Box::new(fresh_tree)),
                            )
                        } else {
                            (
                                Lineage::or(&pick.lineage, &fresh),
                                LineageTree::Or(Box::new(pick.tree.clone()), Box::new(fresh_tree)),
                            )
                        }
                    };
                    live.push(LiveFormula { lineage, tree });
                }
                // Drop a live formula.
                50..=64 => {
                    if !live.is_empty() {
                        let at = rng.random_range(0..live.len());
                        live.swap_remove(at);
                    }
                }
                // Seal the open segment.
                65..=74 => {
                    let _ = arena.seal();
                }
                // Retire a random DEAD sealed segment — anywhere in the
                // order, not just the prefix.
                75..=89 => {
                    let scope = LineageArena::enter(&arena);
                    let covered: Vec<(u32, u32)> = live
                        .iter()
                        .map(|f| {
                            let r = f.lineage.node_ref();
                            (f.lineage.min_segment().0, r.segment().0)
                        })
                        .collect();
                    let open = arena.open_segment().0;
                    drop(scope);
                    let mut dead: Vec<u32> = (0..open)
                        .filter(|&seg| {
                            arena.segment_state(SegmentId(seg)) == Some(SegmentState::Sealed)
                                && !covered.iter().any(|&(lo, hi)| lo <= seg && seg <= hi)
                        })
                        .collect();
                    if dead.is_empty() {
                        continue;
                    }
                    let at = rng.random_range(0..dead.len());
                    let seg = SegmentId(dead.swap_remove(at));
                    let freed = arena.retire(seg).expect("dead sealed segment must retire");
                    if freed.interior {
                        total_interior += 1;
                    }
                }
                // Spot-check a live formula against the control arena.
                _ => {
                    if !live.is_empty() {
                        let pick = &live[rng.random_range(0..live.len())];
                        let scope = LineageArena::enter(&arena);
                        let subject = prob::exact(&pick.lineage, &subject_vars).unwrap();
                        drop(scope);
                        assert_formula_matches_control(subject, &pick.tree, &control_vars, 1e-12);
                    }
                }
            }
        }
        // Post-retire sweep: every survivor — individually and through
        // the columnar batch kernel — equals the never-retired control.
        let scope = LineageArena::enter(&arena);
        let lineages: Vec<Lineage> = live.iter().map(|f| f.lineage).collect();
        let singles: Vec<f64> = lineages
            .iter()
            .map(|l| prob::marginal(l, &subject_vars).unwrap())
            .collect();
        let batched = prob::marginal_batch(&lineages, &subject_vars).unwrap();
        drop(scope);
        for ((f, single), batch) in live.iter().zip(&singles).zip(&batched) {
            assert!(
                (single - batch).abs() <= 1e-12,
                "columnar diverged from memoized after interior retires: {single} vs {batch}"
            );
            assert_formula_matches_control(*single, &f.tree, &control_vars, 1e-12);
        }
        // The books stay consistent with holes present.
        let stats = arena.stats();
        assert_eq!(
            stats.nodes as u64,
            stats.total_interned - stats.retired_nodes
        );
        assert_eq!(stats.live_segments + stats.retired_segments, stats.segments);
    }
    assert!(
        total_interior > 0,
        "no case ever punched a hole — the schedule generator is degenerate"
    );
}

#[test]
fn arena_stats_reflect_interior_holes() {
    let arena = LineageArena::shared(1);
    let _scope = LineageArena::enter(&arena);
    // Three sealed segments, each holding its own var.
    let keep_lo = Lineage::var(TupleId(0));
    arena.seal();
    let _dead = Lineage::var(TupleId(1));
    arena.seal();
    let keep_hi = Lineage::var(TupleId(2));
    arena.seal();
    let before = arena.stats();
    // Retire the middle segment: an interior hole.
    let freed = arena.retire(SegmentId(1)).unwrap();
    assert!(freed.interior, "segment 1 retired below a resident prefix");
    let after = arena.stats();
    assert_eq!(after.retired_segments, before.retired_segments + 1);
    assert_eq!(after.live_segments, before.live_segments - 1);
    assert!(
        after.resident_bytes < before.resident_bytes,
        "residency ignored the hole: {} vs {}",
        after.resident_bytes,
        before.resident_bytes
    );
    // The hole's neighbors still resolve.
    assert_eq!(keep_lo.min_segment(), SegmentId(0));
    assert!(keep_hi.node_ref().segment() > SegmentId(1));
    // Retiring the prefix afterwards is NOT interior.
    let freed = arena.retire(SegmentId(0)).unwrap();
    assert!(!freed.interior, "segment 0 was the resident prefix");
}

// ---------------------------------------------------------------------------
// The open-window record under reclamation: a memoised handle is served
// only while interning would still return it.
// ---------------------------------------------------------------------------

/// A reference model of the engine's emission rule, run as a sink (so
/// inside the engine's arena scope, at the moment each delta is emitted):
///
/// * the delta's lineage must be **exactly the handle the λ-function
///   returns right now** — re-deriving it here from the input tuples valid
///   over the window is a dedup hit on a correct engine (no arena state
///   changes), and appends a fresh node — hence a mismatch — if the engine
///   served a memoised handle whose segment was retired;
/// * the delta is an `Extend` iff the previous output tuple of the same
///   op and fact ends where this one starts and carries that same handle
///   (one tail per op and fact, as the engine kept before the record).
///
/// Wraps a [`MaterializingSink`], which additionally expands every
/// delta's lineage — a use-after-retire panics there.
struct EmissionRuleSink {
    /// Per side: fact → the base tuples' `(interval, variable)`.
    inputs: [FastMap<Fact, Vec<(Interval, TupleId)>>; 2],
    /// Per op and fact: the latest output tuple's end, handle and formula.
    tails: FastMap<(SetOp, Fact), (TimePoint, Lineage, LineageTree)>,
    log: MaterializingSink,
    /// Inserts adjacent to their predecessor with the same *formula* but a
    /// new handle: the continuation was re-derived after its segment
    /// retired.
    rederived_continuations: usize,
}

impl EmissionRuleSink {
    fn new(w: &StreamWorkload) -> Self {
        let index = |rel: &TpRelation| {
            let mut by_fact: FastMap<Fact, Vec<(Interval, TupleId)>> = FastMap::default();
            for t in rel.iter() {
                let id = t.lineage.as_var().expect("base relation");
                by_fact
                    .entry(t.fact.clone())
                    .or_default()
                    .push((t.interval, id));
            }
            by_fact
        };
        EmissionRuleSink {
            inputs: [index(&w.r), index(&w.s)],
            tails: FastMap::default(),
            log: MaterializingSink::new(),
            rederived_continuations: 0,
        }
    }

    /// The input lineage of `side` valid at `at`, interned in the current
    /// (the engine's) arena — a dedup hit: the tuple is still buffered.
    fn lambda(&self, side: usize, fact: &Fact, at: TimePoint) -> Option<Lineage> {
        self.inputs[side]
            .get(fact)?
            .iter()
            .find(|(iv, _)| iv.start() <= at && at < iv.end())
            .map(|(_, id)| Lineage::var(*id))
    }
}

impl tp_stream::StreamSink for EmissionRuleSink {
    fn on_delta(&mut self, op: SetOp, delta: &tp_stream::Delta) {
        let (fact, lineage, from, to, is_insert) = match delta {
            tp_stream::Delta::Insert(t) => (
                &t.fact,
                t.lineage,
                t.interval.start(),
                t.interval.end(),
                true,
            ),
            tp_stream::Delta::Extend {
                fact,
                lineage,
                from,
                to,
            } => (fact, *lineage, *from, *to, false),
        };
        let (lr, ls) = (self.lambda(0, fact, from), self.lambda(1, fact, from));
        let derived = match op {
            SetOp::Union => Lineage::or_opt(lr.as_ref(), ls.as_ref()),
            SetOp::Intersect => lr.zip(ls).map(|(lr, ls)| Lineage::and(&lr, &ls)),
            SetOp::Except => lr.map(|lr| Lineage::and_not(&lr, ls.as_ref())),
        };
        assert_eq!(
            Some(lineage),
            derived,
            "{op} {fact} [{from},{to}): emitted handle is not what the λ-function returns now"
        );
        let tail = self.tails.entry((op, fact.clone()));
        let continues =
            matches!(&tail, Entry::Occupied(t) if (t.get().0, t.get().1) == (from, lineage));
        assert_eq!(
            !is_insert, continues,
            "{op} {fact} [{from},{to}): Extend iff the tail ends here with the same handle"
        );
        match tail {
            Entry::Occupied(mut t) if continues => t.get_mut().0 = to,
            Entry::Occupied(mut t) => {
                let tree = lineage.to_tree();
                if t.get().0 == from && t.get().2 == tree {
                    self.rederived_continuations += 1;
                }
                t.insert((to, lineage, tree));
            }
            Entry::Vacant(v) => {
                v.insert((to, lineage, lineage.to_tree()));
            }
        }
        self.log.on_delta(op, delta);
    }

    fn on_retire(&mut self, seg: tp_core::arena::SegmentId) {
        self.log.on_retire(seg);
    }
}

/// Long-lived facts through a reclaiming engine for many times
/// `keep_epochs` advances: every continuation is either served from the
/// open-window record or — once the memoised handle's segment retired —
/// re-derived and emitted as the engine always did ([`EmissionRuleSink`]);
/// nothing dereferences retired storage; the result equals batch; and live
/// nodes plateau.
#[test]
fn open_window_memo_never_outlives_its_segment() {
    const KEEP_EPOCHS: usize = 2;
    let mut vars = VarTable::new();
    let immortal = immortal_facts_stream(
        &ImmortalConfig {
            epochs: 40,
            ..Default::default()
        },
        &mut vars,
    );
    // WebKit-shaped: every file alive at every watermark, revisions back
    // to back; arrivals run ahead of the watermark, so a tuple's first
    // sweep interns its outputs in a later segment than its own variable.
    let webkit = webkit_stream(
        &WebkitConfig {
            files: 24,
            tuples: 600,
            max_commit_size: 6,
            max_commit_gap: 40,
            seed: 11,
        },
        25,
        &ReplayConfig {
            lateness: 120,
            advance_every: 12,
            seed: 11,
        },
        &mut vars,
    );
    for (ctx, w) in [("immortal", &immortal), ("webkit", &webkit)] {
        let mut engine = StreamEngine::new(EngineConfig {
            reclaim: Some(ReclaimConfig {
                keep_epochs: KEEP_EPOCHS,
                ..Default::default()
            }),
            ..Default::default()
        });
        let mut sink = EmissionRuleSink::new(w);
        let mut live_nodes = Vec::new();
        let (mut windows, mut continued) = (0usize, 0usize);
        for event in &w.script.events {
            match event {
                ReplayEvent::Arrive(side, t) => {
                    engine.push(*side, t.clone());
                }
                ReplayEvent::Advance(wm) => {
                    let stats = engine.advance(*wm, &mut sink).unwrap();
                    windows += stats.windows;
                    continued += stats.continued_windows;
                    live_nodes.push(stats.arena_live_nodes as usize);
                }
            }
        }
        engine.finish(&mut sink).unwrap();
        assert!(
            live_nodes.len() >= 3 * KEEP_EPOCHS,
            "{ctx}: only {} advances",
            live_nodes.len()
        );
        assert!(
            continued > 0 && continued < windows,
            "{ctx}: {continued} of {windows} windows continued — the run must mix hits and misses"
        );
        // A re-derived continuation leaves the output tuple split at
        // that watermark: two adjacent pieces carrying one formula, a
        // Def. 2 coalesce away from batch. Nothing else may differ,
        // and every split is one the sink saw being re-derived.
        let streamed = sink.log.replay();
        let mut splits = 0;
        for op in SetOp::ALL {
            let pieces = streamed.relation(op);
            let coalesced = pieces.coalesce();
            splits += pieces.len() - coalesced.len();
            common::oracle::assert_relation_equivalence(
                &coalesced,
                &apply(op, &w.r, &w.s),
                &vars,
                &format!("{ctx}: {op}"),
            );
        }
        assert_eq!(splits, sink.rederived_continuations, "{ctx}");
        assert!(engine.reclaimed().0 > 0, "{ctx}: nothing retired");
        // The first third covers the ramp-up (arrivals run
        // `lateness` ahead before the first tuple is released).
        common::oracle::assert_plateau(&live_nodes, live_nodes.len() / 3, 2.0, ctx);
        if ctx == "webkit" {
            assert!(
                sink.rederived_continuations > 0,
                "{ctx}: no memoised handle ever lost its segment — the stale-memo path is untested"
            );
        }
    }
}
