//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * `sort_vs_presorted` — the sort step dominates LAWA's O(n log n) bound;
//!   pre-sorted inputs make the operator linear (§VI-B).
//! * `oip_granules` — OIP's sensitivity to the granule count `k`.
//! * `prob_methods` — 1OF linear valuation vs Shannon expansion vs
//!   Monte-Carlo on the lineage of a repeating query (#P-hard shape).
//! * `window_advance` — raw LAWA window production without filtering
//!   (isolates the sweep from output formation).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tp_baselines::{OipConfig, OipMode};
use tp_core::lineage::Lineage;
use tp_core::ops;
use tp_core::relation::VarTable;
use tp_core::window::Lawa;
use tp_workloads::SynthConfig;

fn bench_sort_vs_presorted(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/sort_vs_presorted");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::with_facts(50_000, 100, 3), &mut vars);
    // Shuffled copies: the operator must pay the sort.
    let shuffle = |rel: &tp_core::relation::TpRelation| -> tp_core::relation::TpRelation {
        let mut tuples = rel.tuples().to_vec();
        // Deterministic permutation: reverse then interleave halves.
        tuples.reverse();
        let mid = tuples.len() / 2;
        let (a, b) = tuples.split_at(mid);
        a.iter()
            .zip(b.iter())
            .flat_map(|(x, y)| [x.clone(), y.clone()])
            .chain(tuples.iter().skip(2 * mid).cloned())
            .collect()
    };
    let (ru, su) = (shuffle(&r), shuffle(&s));
    group.bench_function("presorted", |b| b.iter(|| ops::union(&r, &s).len()));
    group.bench_function("unsorted", |b| b.iter(|| ops::union(&ru, &su).len()));
    group.finish();
}

fn bench_oip_granules(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/oip_granules");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::single_fact(20_000, 9), &mut vars);
    for g in [1i64, 2, 8, 64, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(g), &g, |b, &g| {
            b.iter(|| {
                tp_baselines::oip::intersect(
                    &r,
                    &s,
                    OipConfig {
                        granule_size: Some(g),
                        mode: OipMode::FactGrouped,
                    },
                )
                .len()
            })
        });
    }
    group.finish();
}

fn bench_prob_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/prob_methods");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    // Lineage of a repeating query: (x0 ∨ x1) ∧ ¬(x0 ∧ x2) ... chained.
    let mut vars = VarTable::new();
    let ids: Vec<_> = (0..12)
        .map(|i| {
            vars.register(format!("x{i}"), 0.4 + 0.04 * i as f64)
                .unwrap()
        })
        .collect();
    let mut lineage = Lineage::var(ids[0]);
    for chunk in ids.windows(3).step_by(2) {
        let or = Lineage::or(&Lineage::var(chunk[0]), &Lineage::var(chunk[1]));
        let and = Lineage::and(&Lineage::var(chunk[0]), &Lineage::var(chunk[2]));
        lineage = Lineage::and(&lineage, &Lineage::and_not(&or, Some(&and)));
    }
    assert!(!lineage.is_one_occurrence_form());
    let one_of = {
        let mut l = Lineage::var(ids[0]);
        for id in &ids[1..] {
            l = Lineage::or(&l, &Lineage::var(*id));
        }
        l
    };
    group.bench_function("independent_1of", |b| {
        b.iter(|| tp_core::prob::independent(&one_of, &vars).unwrap())
    });
    group.bench_function("exact_shannon", |b| {
        b.iter(|| tp_core::prob::exact(&lineage, &vars).unwrap())
    });
    group.bench_function("exact_bdd", |b| {
        b.iter(|| tp_core::bdd::probability(&lineage, &vars).unwrap())
    });
    group.bench_function("monte_carlo_10k", |b| {
        b.iter(|| {
            tp_core::prob::monte_carlo(&lineage, &vars, 10_000, 7)
                .unwrap()
                .estimate
        })
    });
    group.finish();
}

fn bench_window_advance(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/window_advance");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::single_fact(100_000, 3), &mut vars);
    let (rs, ss) = (r.sorted(), s.sorted());
    group.bench_function("lawa_sweep_only", |b| {
        b.iter(|| Lawa::new(rs.tuples(), ss.tuples()).count())
    });
    group.bench_function("full_union", |b| b.iter(|| ops::union(&rs, &ss).len()));
    group.finish();
}

criterion_group!(
    benches,
    bench_sort_vs_presorted,
    bench_oip_granules,
    bench_prob_methods,
    bench_window_advance
);
criterion_main!(benches);
