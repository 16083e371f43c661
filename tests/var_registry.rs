//! Property tests for the sliding var registry (`VarTable` cohorts):
//! random register / seal / release interleavings under the engine's
//! contract (release only cohorts no live-window lineage references) must
//! never change the marginal of any live-window formula compared to a
//! never-released control table — and looking up a released variable is an
//! error, never a stale or wrong probability.

mod common;

use common::oracle::assert_formula_matches_control;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tpdb::prelude::*;

/// One live-window formula: the handle (global arena — the registry
/// slides independently of the arena here), its tree oracle, and the
/// epoch of the oldest cohort it references (the formula must be dropped
/// before that cohort may be released — the live-window contract).
struct LiveFormula {
    lineage: Lineage,
    tree: LineageTree,
    oldest_epoch: u64,
}

/// Builds a random formula over the given live variable ids.
fn random_formula(rng: &mut StdRng, ids: &[TupleId]) -> Lineage {
    let mut acc = Lineage::var(ids[0]);
    for &id in &ids[1..] {
        let v = Lineage::var(id);
        acc = match rng.random_range(0..3u32) {
            0 => Lineage::and(&acc, &v),
            1 => Lineage::or(&acc, &v),
            _ => Lineage::and_not(&acc, Some(&v)),
        };
    }
    if ids.len() == 1 && rng.random::<bool>() {
        acc = acc.negate();
    }
    acc
}

#[test]
fn random_register_seal_release_interleavings_preserve_live_marginals() {
    let mut rng = StdRng::seed_from_u64(0x5EA1_0A27);
    let mut total_released = 0u64;
    for case in 0..8u64 {
        let mut subject = VarTable::new();
        let mut control = VarTable::new();
        // Per variable id: the epoch of the cohort it was registered into.
        let mut cohort_of: Vec<u64> = Vec::new();
        let mut live: Vec<LiveFormula> = Vec::new();
        let mut release_floor_epoch = 0u64;
        for _step in 0..400 {
            match rng.random_range(0..100u32) {
                // Register a small batch into both tables (same order, so
                // ids align between subject and control).
                0..=34 => {
                    let epoch = subject.open_var_epoch().0;
                    for _ in 0..rng.random_range(1..4usize) {
                        let p = rng.random_range(0.05..0.95);
                        let label = format!("v{}", cohort_of.len());
                        let a = subject.register(label.clone(), p).unwrap();
                        let b = control.register(label, p).unwrap();
                        assert_eq!(a, b, "case {case}: id skew");
                        cohort_of.push(epoch);
                    }
                }
                // Build a live-window formula over currently live vars.
                35..=59 => {
                    let floor = subject.released_vars();
                    let n = subject.len() as u64;
                    if n > floor {
                        let ids: Vec<TupleId> = (0..rng.random_range(1..5usize))
                            .map(|_| TupleId(floor + rng.random_range(0..n - floor)))
                            .collect();
                        let lineage = random_formula(&mut rng, &ids);
                        live.push(LiveFormula {
                            lineage,
                            tree: lineage.to_tree(),
                            oldest_epoch: ids
                                .iter()
                                .map(|id| cohort_of[id.0 as usize])
                                .min()
                                .expect("at least one id"),
                        });
                    }
                }
                // Seal the open cohort.
                60..=74 => {
                    let _ = subject.seal_vars();
                }
                // Release with a two-cohort grace window, dropping the
                // formulas that reference soon-dead cohorts first — the
                // same order the streaming engine guarantees (a cohort's
                // segment only retires once the live frontier passed it).
                75..=89 => {
                    let target = subject.open_var_epoch().0.saturating_sub(2);
                    if target > release_floor_epoch {
                        live.retain(|f| f.oldest_epoch >= target);
                        for epoch in release_floor_epoch..target {
                            total_released += subject.release_cohort(VarEpoch(epoch)).vars;
                        }
                        release_floor_epoch = target;
                    }
                }
                // Differential check of a random live formula.
                _ => {
                    if !live.is_empty() {
                        let f = &live[rng.random_range(0..live.len())];
                        let p = prob::exact(&f.lineage, &subject).unwrap();
                        assert_formula_matches_control(p, &f.tree, &control, 1e-12);
                    }
                }
            }
        }
        // Final sweep: every surviving live-window formula still agrees
        // with the never-released control, however much was released.
        for f in &live {
            let p = prob::exact(&f.lineage, &subject).unwrap();
            assert_formula_matches_control(p, &f.tree, &control, 1e-12);
        }
        // Released lookups error — at the registry level...
        let floor = subject.released_vars();
        if floor > 0 {
            assert!(matches!(
                subject.prob(TupleId(floor - 1)),
                Err(Error::ReleasedVariable(_))
            ));
            // ...and at the valuation level: valuing a formula over a
            // released variable is an error, never a number.
            let dead = random_formula(&mut rng, &[TupleId(0), TupleId(floor - 1)]);
            assert!(
                prob::marginal(&dead, &subject).is_err(),
                "case {case}: released vars valuated silently"
            );
            // The control table (never released) still resolves them.
            assert!(prob::marginal(&dead, &control).is_ok());
        }
    }
    assert!(
        total_released > 0,
        "no case ever released a cohort — the schedule generator is degenerate"
    );
}

#[test]
fn use_after_release_is_an_error_not_a_stale_probability() {
    // Deterministic core of the contract: release a cohort, then probe
    // every released id — the registry must answer `ReleasedVariable`,
    // and live ids must keep their exact original values.
    let mut vt = VarTable::new();
    let mut expected = Vec::new();
    for k in 0..20u64 {
        let p = 0.05 + (k as f64) * 0.04;
        vt.register(format!("v{k}"), p).unwrap();
        expected.push(p);
        if k % 5 == 4 {
            vt.seal_vars().unwrap();
        }
    }
    let released: u64 = (0..2).map(|e| vt.release_cohort(VarEpoch(e)).vars).sum();
    assert_eq!(released, 10);
    for id in 0..10u64 {
        assert!(
            matches!(vt.prob(TupleId(id)), Err(Error::ReleasedVariable(i)) if i == id),
            "id {id} did not error"
        );
    }
    for id in 10..20u64 {
        assert_eq!(vt.prob(TupleId(id)).unwrap(), expected[id as usize]);
    }
    assert_eq!(vt.live_vars(), 10);
    assert_eq!(vt.released_vars(), 10);
}

#[test]
fn formula_valued_before_its_cohort_is_released_errors_after() {
    // Valuation keeps nothing between calls: a formula valued while its
    // variables were live errors once their cohort is released, through
    // the per-root and the batch entry point, on the 1OF and the
    // repeating path alike.
    let mut vt = VarTable::new();
    let a = Lineage::var(vt.register("a1", 0.4).unwrap());
    vt.seal_vars().unwrap();
    let b = Lineage::var(vt.register("b1", 0.3).unwrap());
    let c = Lineage::var(vt.register("b2", 0.6).unwrap());
    let dead = vt.seal_vars().unwrap();
    let roots = [
        Lineage::or(&b, &c),
        Lineage::and(&Lineage::or(&b, &a), &Lineage::or(&b, &c)),
    ];
    assert!(roots[0].is_one_occurrence_form());
    assert!(!roots[1].is_one_occurrence_form());
    for l in &roots {
        prob::marginal(l, &vt).unwrap();
    }
    prob::marginal_batch(&roots, &vt).unwrap();
    // An interior release: the older cohort of `a` stays live.
    assert_eq!(vt.release_cohort(dead).vars, 2);
    for l in &roots {
        assert!(
            matches!(prob::marginal(l, &vt), Err(Error::ReleasedVariable(_))),
            "{l}: valued after release"
        );
        assert!(
            matches!(
                prob::marginal_batch(std::slice::from_ref(l), &vt),
                Err(Error::ReleasedVariable(_))
            ),
            "{l}: batch-valued after release"
        );
    }
}
