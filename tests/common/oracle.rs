//! The differential oracle: one reusable stream-vs-batch equivalence
//! checker shared by every streaming/reclamation test.
//!
//! "Equivalent" means the full contract, not just tuple sets:
//!
//! 1. **tuples** — same facts and intervals in canonical `(F, Ts)` order;
//! 2. **lineage** — identical interned handles (for same-arena
//!    comparisons) or identical formulas after tree re-interning (for
//!    reclaim-mode streams whose arena is private);
//! 3. **marginals** — every output tuple valuates to the same probability
//!    on both sides.
//!
//! Before this module, `tests/stream_props.rs` and `tests/arena_reclaim.rs`
//! each carried an ad-hoc copy of these loops; they now call in here, as do
//! the multi-tenant and edge-case suites.

use tpdb::core::window::split_at_watermark;
use tpdb::prelude::*;

use tp_stream::{
    CollectingSink, EngineConfig, IngestOutcome, MaterializingSink, ReplayEvent, Side,
    StreamEngine, StreamSink,
};

/// Asserts the full three-way equivalence (tuples, lineage, marginals) of
/// a streamed result relation with its batch twin. `ctx` names the case in
/// failure messages.
pub fn assert_relation_equivalence(
    streamed: &TpRelation,
    batch: &TpRelation,
    vars: &VarTable,
    ctx: &str,
) {
    let streamed = streamed.canonicalized();
    let batch = batch.canonicalized();
    assert_eq!(streamed, batch, "{ctx}: streamed != batch");
    // Tuple equality already compares interned lineage handles; valuating
    // both sides additionally proves the handles resolve to the same
    // marginals under `vars` (the acceptance criterion's wording).
    for (st, bt) in streamed.iter().zip(batch.iter()) {
        let ps = prob::marginal(&st.lineage, vars).unwrap();
        let pb = prob::marginal(&bt.lineage, vars).unwrap();
        assert!(
            (ps - pb).abs() < 1e-12,
            "{ctx}: marginal mismatch {ps} vs {pb} for {st}"
        );
    }
}

/// Asserts that a [`CollectingSink`]'s materialized result equals batch
/// LAWA on `(r, s)` for all three set operations — the same-arena oracle
/// (plain engines interning into the global arena).
pub fn assert_stream_matches_batch(
    sink: &CollectingSink,
    r: &TpRelation,
    s: &TpRelation,
    vars: &VarTable,
) {
    for op in SetOp::ALL {
        assert_relation_equivalence(&sink.relation(op), &apply(op, r, s), vars, &format!("{op}"));
    }
}

/// Asserts that a [`MaterializingSink`]'s delta log replays to the batch
/// result for all three set operations — the reclaim-mode oracle: the
/// stream ran in a private arena whose segments may be retired, so its
/// deltas were materialized as trees and are re-interned into the
/// *current* arena here (identical formulas ⇒ identical handles there).
pub fn assert_materialized_matches_batch(
    sink: &MaterializingSink,
    r: &TpRelation,
    s: &TpRelation,
    vars: &VarTable,
) {
    let streamed = sink.replay();
    for op in SetOp::ALL {
        assert_relation_equivalence(
            &streamed.relation(op),
            &apply(op, r, s),
            vars,
            &format!("{op} (reclaiming)"),
        );
    }
}

/// Replays `events` into a fresh engine built from `cfg`, then `finish`es
/// it. After **every** advance (the `finish` included, so the last check
/// is the final-state oracle), each maintained op's emitted output must
/// equal batch LAWA over the tuples pushed so far, clipped at the
/// watermark with [`split_at_watermark`]: the region below a watermark is
/// final once reported, so a delta one advance late fails here though the
/// final state would hide it. Every push must be accepted: a drop fails.
///
/// A plain engine feeds a [`CollectingSink`]; a reclaiming one feeds a
/// [`MaterializingSink`], whose log is re-interned into the current arena
/// for each check, as in [`assert_materialized_matches_batch`].
pub fn assert_each_watermark_matches_batch(
    events: &[ReplayEvent],
    cfg: EngineConfig,
    vars: &VarTable,
    ctx: &str,
) {
    if cfg.reclaim.is_some() {
        replay_checking_prefixes(events, cfg, MaterializingSink::relation, vars, ctx);
    } else {
        replay_checking_prefixes(events, cfg, CollectingSink::relation, vars, ctx);
    }
}

/// [`assert_each_watermark_matches_batch`] over sink `S`, whose result for
/// one op `emitted` reads.
fn replay_checking_prefixes<S: StreamSink + Default>(
    events: &[ReplayEvent],
    cfg: EngineConfig,
    emitted: fn(&S, SetOp) -> TpRelation,
    vars: &VarTable,
    ctx: &str,
) {
    let ops = cfg.ops.clone();
    let check = |engine: &StreamEngine, sink: &S, pushed: &[Vec<TpTuple>; 2]| {
        let w = engine.watermark();
        let [r, s] = pushed.each_ref().map(|side| {
            let (closed, _) = split_at_watermark(side.iter().cloned(), w);
            TpRelation::try_new(closed).expect("clipped inputs stay duplicate-free")
        });
        for &op in &ops {
            let ctx = format!("{ctx}: {op} at watermark {w}");
            assert_relation_equivalence(&emitted(sink, op), &apply(op, &r, &s), vars, &ctx);
        }
    };
    let mut engine = StreamEngine::new(cfg);
    let mut sink = S::default();
    let mut pushed: [Vec<TpTuple>; 2] = Default::default();
    for event in events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                let outcome = engine.push(*side, t.clone());
                assert_eq!(outcome, IngestOutcome::Accepted, "{ctx}: late drop");
                pushed[usize::from(*side == Side::Right)].push(t.clone());
            }
            ReplayEvent::Advance(w) => {
                engine.advance(*w, &mut sink).expect("monotone watermarks");
                check(&engine, &sink, &pushed);
            }
        }
    }
    engine.finish(&mut sink).expect("finish is monotone");
    check(&engine, &sink, &pushed);
}

/// Asserts that a marginal computed in a (possibly reclaiming) subject
/// arena matches the formula's tree shape re-interned into the control
/// (current, usually global) arena — the single-formula differential
/// check of the arena-reclamation and var-registry suites. Two separate
/// `VarTable`s with identical probabilities are required because a table's
/// valuation cache is keyed by arena refs and must never serve two arenas.
/// `tol` loosens the comparison for backends with their own rounding
/// (e.g. BDD-based valuation).
pub fn assert_formula_matches_control(
    subject_marginal: f64,
    tree: &LineageTree,
    control_vars: &VarTable,
    tol: f64,
) {
    let control_lineage = Lineage::from_tree(tree); // current arena
    let control = prob::exact(&control_lineage, control_vars).unwrap();
    assert!(
        (subject_marginal - control).abs() < tol,
        "marginal diverged from control arena: {subject_marginal} vs {control}"
    );
}

/// Asserts two delta logs are **byte-identical**: same op, fact, interval
/// boundaries, delta kind, lineage (as arena-independent trees) — and the
/// same order. This is the strongest stream-equivalence statement the
/// suite makes: the two engines *behaved* identically, not merely
/// converged to the same relation.
pub fn assert_delta_logs_identical(a: &MaterializingSink, b: &MaterializingSink, ctx: &str) {
    for (i, (da, db)) in a.deltas.iter().zip(&b.deltas).enumerate() {
        assert_eq!(da, db, "{ctx}: delta #{i} diverged");
    }
    assert_eq!(
        a.deltas.len(),
        b.deltas.len(),
        "{ctx}: {} vs {} deltas",
        a.deltas.len(),
        b.deltas.len()
    );
}

/// Asserts a memory plateau: the peak of the second half of `samples`
/// (steady state) must stay within `factor`× the peak of the first
/// `warmup` samples (the one-window footprint). Returns the ratio.
pub fn assert_plateau(samples: &[usize], warmup: usize, factor: f64, what: &str) -> f64 {
    assert!(!samples.is_empty(), "{what}: no samples collected");
    let warmup = warmup.clamp(1, samples.len());
    let one_window = samples[..warmup].iter().copied().max().unwrap().max(1);
    let steady = samples[samples.len() / 2..]
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    let ratio = steady as f64 / one_window as f64;
    assert!(
        ratio <= factor,
        "{what}: no plateau — one-window {one_window}, steady-state {steady} \
         ({ratio:.2}× > {factor}×; samples {samples:?})"
    );
    ratio
}
