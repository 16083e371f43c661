//! World enumeration inside `prob::marginal_batch`. A non-1OF root whose
//! cone has at most 64 unique nodes and at most 6 repeated variables is
//! valued exactly in the kernel, by enumerating the worlds of its
//! repeated variables; a root over either cap goes to `prob::marginal`.
//! Both must agree with the ROBDD reference (`bdd::probability`) and with
//! Shannon expansion (`prob::exact`), intern nothing, and report an
//! unresolved variable exactly as `prob::marginal` does.
//!
//! The soak at the cap boundaries runs in release with
//! `cargo test --release --test valuation_worlds -- --ignored`.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tp_core::arena::LineageNode;
use tp_core::bdd;
use tp_workloads::{synth, SynthConfig};
use tpdb::prelude::*;

/// The kernel's caps, as `prob.rs` fixes them.
const MAX_NODES: usize = 64;
const MAX_REPEATED: usize = 6;

/// `tp_valuation_fallback_roots_total` is process-global: the tests of
/// this binary value their batches one at a time, so each reads its own
/// delta.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn fallback_roots() -> u64 {
    tp_obs::global()
        .counter("tp_valuation_fallback_roots_total", &[])
        .get()
}

/// A private arena, so node counts see only this test's interning.
fn private_arena() -> (Arc<LineageArena>, ArenaScope) {
    let arena = LineageArena::shared(1);
    let scope = LineageArena::enter(&arena);
    (arena, scope)
}

fn vt(rng: &mut StdRng, n: usize) -> VarTable {
    let mut vars = VarTable::new();
    for i in 0..n {
        vars.register(format!("t{i}"), rng.random_range(0.05..0.95))
            .unwrap();
    }
    vars
}

/// Unique nodes of `l`'s cone.
fn cone_nodes(l: &Lineage) -> usize {
    LineageArena::with_current(|arena| {
        let view = arena.view();
        let mut seen = HashSet::new();
        let mut stack = vec![l.node_ref()];
        while let Some(r) = stack.pop() {
            if !seen.insert(r) {
                continue;
            }
            match view.node(r) {
                LineageNode::Var(_) => {}
                LineageNode::Not(c) => stack.push(c),
                LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        seen.len()
    })
}

fn repeated_vars(l: &Lineage) -> usize {
    l.var_multiplicities().values().filter(|&&m| m > 1).count()
}

fn over_a_cap(l: &Lineage) -> bool {
    cone_nodes(l) > MAX_NODES || repeated_vars(l) > MAX_REPEATED
}

fn combine(rng: &mut StdRng, a: &Lineage, b: &Lineage) -> Lineage {
    if rng.random_bool(0.5) {
        Lineage::and(a, b)
    } else {
        Lineage::or(a, b)
    }
}

/// A random formula with exactly `repeated` variables occurring more
/// than once and exactly `nodes` unique cone nodes, over fresh variable
/// ids from `base` on. About half the draws put some of the repeated
/// variables in a shared sub-DAG used twice, one use possibly under
/// `Not`; the rest occur twice as leaves. Fresh single variables and
/// `Not` wraps of interior nodes fill the count. A draw that misses the
/// target (two interior nodes hash-consed into one) is redrawn.
fn boundary_formula(rng: &mut StdRng, repeated: usize, nodes: usize, base: u64) -> Lineage {
    loop {
        let mut next = base;
        let mut fresh = || {
            next += 1;
            Lineage::var(TupleId(next - 1))
        };
        let mut items: Vec<Lineage> = Vec::new();
        // Unique nodes outside the binary nodes and wraps built below.
        let mut fixed = 0usize;
        let shared = if repeated > 0 && rng.random_bool(0.5) {
            rng.random_range(1..=repeated.min(3))
        } else {
            0
        };
        if shared > 0 {
            let mut sub = fresh();
            for _ in 1..shared {
                let v = fresh();
                sub = combine(rng, &sub, &v);
            }
            fixed += 2 * shared - 1;
            items.push(sub);
            if rng.random_bool(0.5) {
                items.push(sub.negate());
                fixed += 1;
            } else {
                items.push(sub);
            }
        }
        for _ in shared..repeated {
            let v = fresh();
            items.extend([v, v]);
            fixed += 1;
        }
        // nodes = fixed + singles + (items + singles − 1) + wraps, and
        // only the items + singles − 1 binary nodes can take a wrap.
        let spare = (nodes + 1) as isize - (fixed + items.len()) as isize;
        let mut wraps = spare % 2 + 2 * rng.random_range(0..2isize);
        while wraps > spare || items.len() as isize + (spare - wraps) / 2 < wraps + 1 {
            wraps -= 2;
        }
        assert!(
            wraps >= 0,
            "{nodes} nodes cannot hold {repeated} repeated variables"
        );
        for _ in 0..(spare - wraps) / 2 {
            items.push(fresh());
        }
        let wraps = wraps as usize;
        let steps = items.len() - 1;
        let mut wraps_left = wraps;
        for step in 0..steps {
            let a = items.swap_remove(rng.random_range(0..items.len()));
            let b = items.swap_remove(rng.random_range(0..items.len()));
            let mut c = combine(rng, &a, &b);
            if rng.random_range(0..steps - step) < wraps_left {
                c = c.negate();
                wraps_left -= 1;
            }
            items.push(c);
        }
        let root = items[0];
        if cone_nodes(&root) == nodes && repeated_vars(&root) == repeated {
            return root;
        }
    }
}

/// Values `roots` with `marginal_batch` and checks every
/// root against the ROBDD reference and Shannon expansion, that the
/// batch interned nothing, and that exactly the roots over a cap left the
/// kernel.
fn check_batch(roots: &[Lineage], vars: &VarTable, arena: &LineageArena) {
    let over = roots.iter().filter(|l| over_a_cap(l)).count() as u64;
    let nodes = arena.stats().nodes;
    let fallback = fallback_roots();
    let got = prob::marginal_batch(roots, vars).unwrap();
    assert_eq!(fallback_roots() - fallback, over, "roots left the kernel");
    assert_eq!(arena.stats().nodes, nodes, "marginal_batch interned");
    for (i, (l, p)) in roots.iter().zip(&got).enumerate() {
        let want = bdd::probability(l, vars).unwrap();
        assert!(
            (p - want).abs() <= 1e-12,
            "root #{i} ({} nodes, |R| = {}): batch {p} vs bdd {want}",
            cone_nodes(l),
            repeated_vars(l)
        );
        let shannon = prob::exact(l, vars).unwrap();
        assert!(
            (p - shannon).abs() <= 1e-12,
            "root #{i}: batch {p} vs exact {shannon}"
        );
    }
}

#[test]
fn enumerated_and_fallback_roots_match_bdd_and_shannon() {
    let _serial = serial();
    let (arena, _scope) = private_arena();
    let mut rng = StdRng::seed_from_u64(0x3A7E_0F37);
    let vars = vt(&mut rng, 4_096);
    let mut base = 0u64;
    let mut roots = Vec::new();
    let mut draw = |rng: &mut StdRng, repeated: usize, nodes: usize| {
        let l = boundary_formula(rng, repeated, nodes, base);
        base += 48;
        l
    };
    for _ in 0..8 {
        // 1OF roots, through the columns.
        let nodes = rng.random_range(3..40usize);
        roots.push(draw(&mut rng, 0, nodes));
        // Non-1OF roots within both caps, |R| from 1 to 6.
        for repeated in 1..=MAX_REPEATED {
            let nodes = rng.random_range(3 * repeated + 4..=MAX_NODES);
            roots.push(draw(&mut rng, repeated, nodes));
        }
        // Just over each cap.
        let nodes = rng.random_range(28..=MAX_NODES);
        roots.push(draw(&mut rng, MAX_REPEATED + 1, nodes));
        let repeated = rng.random_range(1..=MAX_REPEATED);
        roots.push(draw(&mut rng, repeated, MAX_NODES + 1));
        // And exactly at them.
        roots.push(draw(&mut rng, MAX_REPEATED, MAX_NODES));
    }
    assert!(roots.iter().any(|l| l.is_one_occurrence_form()));
    assert!(roots
        .iter()
        .any(|l| !over_a_cap(l) && repeated_vars(l) == 1));
    check_batch(&roots, &vars, &arena);
}

#[test]
fn tiny_repeating_shapes_match_bdd() {
    // The smallest shapes: a variable under its own negation, a shared
    // node under `Not`, and a conjunction of a node with itself.
    let _serial = serial();
    let (arena, _scope) = private_arena();
    let mut rng = StdRng::seed_from_u64(5);
    let vars = vt(&mut rng, 4);
    let v = |i| Lineage::var(TupleId(i));
    let shared = Lineage::or(&v(0), &v(1));
    let roots = vec![
        Lineage::or(&v(0), &v(0).negate()),
        Lineage::and(&v(0), &v(0).negate()),
        Lineage::and(&shared, &shared),
        Lineage::and(&shared, &shared.negate()),
        Lineage::or(&Lineage::and(&shared, &v(2)), &shared.negate()),
        Lineage::and_not(
            &Lineage::or(&v(0), &v(2)),
            Some(&Lineage::and(&v(0), &v(3))),
        ),
    ];
    check_batch(&roots, &vars, &arena);
}

#[test]
fn unresolved_variable_reports_the_error_marginal_reports() {
    let _serial = serial();
    let (_arena, _scope) = private_arena();
    let mut vars = VarTable::new();
    let a = vars.register("a", 0.3).unwrap();
    let b = vars.register("b", 0.6).unwrap();
    let epoch = vars.seal_vars().unwrap();
    let c = vars.register("c", 0.5).unwrap();
    let (a, b, c) = (Lineage::var(a), Lineage::var(b), Lineage::var(c));
    // (a ∧ ¬b) ∨ (b ∧ ¬a): within both caps, over the released cohort.
    let symdiff = Lineage::or(
        &Lineage::and_not(&a, Some(&b)),
        &Lineage::and_not(&b, Some(&a)),
    );
    assert!(!symdiff.is_one_occurrence_form());
    assert_eq!(vars.release_cohort(epoch).vars, 2);
    let want = prob::marginal(&symdiff, &vars).unwrap_err();
    assert!(matches!(want, Error::ReleasedVariable(_)), "{want:?}");
    let got = prob::marginal_batch(&[c, symdiff], &vars).unwrap_err();
    assert_eq!(got, want);
}

#[test]
fn fallback_counter_counts_what_leaves_the_kernel() {
    let _serial = serial();
    let (_arena, _scope) = private_arena();
    // A synth symmetric difference: its non-1OF roots have two repeated
    // variables and seven nodes, so none leaves the kernel.
    let mut vars = VarTable::new();
    let (r, s) = synth::generate(&SynthConfig::with_facts(400, 5, 3), &mut vars);
    let symdiff = union(&except(&r, &s), &except(&s, &r));
    let roots: Vec<Lineage> = symdiff.iter().map(|t| t.lineage).collect();
    assert!(roots.iter().any(|l| !l.is_one_occurrence_form()));
    let before = fallback_roots();
    prob::marginal_batch(&roots, &vars).unwrap();
    assert_eq!(fallback_roots() - before, 0);
    // One root with seven repeated variables does.
    let mut rng = StdRng::seed_from_u64(1);
    let vars = vt(&mut rng, 64);
    let root = boundary_formula(&mut rng, MAX_REPEATED + 1, 30, 0);
    let before = fallback_roots();
    prob::marginal_batch(&[root], &vars).unwrap();
    assert_eq!(fallback_roots() - before, 1);
}

/// 10 000 seeded formulas at the cap boundaries: 5, 6 and 7 repeated
/// variables, 63 to 66 unique nodes, shared sub-DAGs and `Not` over
/// shared nodes, each checked against the ROBDD reference.
#[test]
#[ignore = "release soak; run with --ignored"]
fn cap_boundaries_soak() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(0xB0DD_CA95);
    let vars = vt(&mut rng, 4_096);
    let shapes: Vec<(usize, usize)> = (5..=7)
        .flat_map(|repeated| (63..=66).map(move |nodes| (repeated, nodes)))
        .collect();
    for chunk in 0..100u64 {
        // A fresh arena per 100 formulas keeps the soak's memory flat.
        let (_arena, _scope) = private_arena();
        let roots: Vec<Lineage> = (0..100u64)
            .map(|i| {
                let (repeated, nodes) = shapes[((chunk * 100 + i) % shapes.len() as u64) as usize];
                let base = rng.random_range(0..4_096 - 66);
                boundary_formula(&mut rng, repeated, nodes, base)
            })
            .collect();
        let over = roots.iter().filter(|l| over_a_cap(l)).count() as u64;
        let fallback = fallback_roots();
        let got = prob::marginal_batch(&roots, &vars).unwrap();
        assert_eq!(fallback_roots() - fallback, over, "chunk {chunk}");
        for (i, (l, p)) in roots.iter().zip(&got).enumerate() {
            let want = bdd::probability(l, &vars).unwrap();
            assert!(
                (p - want).abs() <= 1e-12,
                "chunk {chunk} root #{i}: batch {p} vs bdd {want}"
            );
        }
    }
}
