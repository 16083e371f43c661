//! Property tests for the hash-consed lineage arena: on randomized formulas,
//! the arena-backed implementations (memoized `prob::marginal`, O(1)
//! metadata, variable-set extraction) must agree with independent
//! computations on the owned [`LineageTree`] form, and hash-consing
//! must make structural equality coincide with handle equality
//! (`a == b ⇔ ref(a) == ref(b)`).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tpdb::core::arena::VAR_LIST_CAP;
use tpdb::prelude::*;

/// Random formula over `vars` variables with ids offset by `base` (distinct
/// offsets keep tests from trivially sharing every node).
fn random_formula(rng: &mut StdRng, base: u64, nvars: u64, depth: usize) -> Lineage {
    if depth == 0 || rng.random::<f64>() < 0.3 {
        return Lineage::var(TupleId(base + rng.random_range(0..nvars)));
    }
    match rng.random_range(0..3u32) {
        0 => random_formula(rng, base, nvars, depth - 1).negate(),
        1 => Lineage::and(
            &random_formula(rng, base, nvars, depth - 1),
            &random_formula(rng, base, nvars, depth - 1),
        ),
        _ => Lineage::or(
            &random_formula(rng, base, nvars, depth - 1),
            &random_formula(rng, base, nvars, depth - 1),
        ),
    }
}

/// Registers probabilities for `[base, base + nvars)` in a fresh table.
/// Variable ids in a `VarTable` are dense from 0, so the filler below `base`
/// gets arbitrary probabilities too.
fn table_for(rng: &mut StdRng, base: u64, nvars: u64) -> VarTable {
    let mut vt = VarTable::new();
    for i in 0..(base + nvars) {
        vt.register(format!("t{i}"), rng.random_range(0.05..1.0))
            .unwrap();
    }
    vt
}

/// Ground truth by possible-world enumeration over the legacy tree.
fn brute_force_tree(tree: &LineageTree, vars: &VarTable) -> f64 {
    let ids: Vec<TupleId> = tree.vars().into_iter().collect();
    assert!(ids.len() <= 12, "brute force domain too large");
    let mut total = 0.0;
    for world in 0..(1u64 << ids.len()) {
        let assign = |id: TupleId| {
            let idx = ids.iter().position(|&x| x == id).unwrap();
            world >> idx & 1 == 1
        };
        if tree.eval(&assign) {
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
fn arena_marginal_agrees_with_legacy_tree() {
    let mut rng = StdRng::seed_from_u64(0xA12E_4A01);
    for case in 0..120u64 {
        let nvars = rng.random_range(1..6u64);
        let base = 1000 + case * 16;
        let vars = table_for(&mut rng, base, nvars);
        let l = random_formula(&mut rng, base, nvars, 5);
        let tree = l.to_tree();
        let truth = brute_force_tree(&tree, &vars);
        // The dispatching arena-backed valuation is exact for every shape.
        let got = prob::marginal(&l, &vars).unwrap();
        assert!(
            (got - truth).abs() < 1e-9,
            "case {case}, formula {l}: arena {got} vs tree {truth}"
        );
        // And a second call (served from the memo) returns the same value.
        let again = prob::marginal(&l, &vars).unwrap();
        assert_eq!(got, again, "memoized revaluation changed the result");
        // On 1OF formulas the legacy un-memoized tree walker agrees too.
        if l.is_one_occurrence_form() {
            let legacy = tree.independent_prob(&vars).unwrap();
            assert!(
                (got - legacy).abs() < 1e-9,
                "case {case}: {got} vs {legacy}"
            );
        }
    }
}

#[test]
fn arena_variable_sets_agree_with_legacy_tree() {
    let mut rng = StdRng::seed_from_u64(0xA12E_4A02);
    for case in 0..200u64 {
        let nvars = rng.random_range(1..8u64);
        let base = 40_000 + case * 16;
        let l = random_formula(&mut rng, base, nvars, 6);
        let tree = l.to_tree();
        assert_eq!(l.vars(), tree.vars(), "case {case}: variable sets differ");
        assert_eq!(
            l.var_occurrences(),
            tree.var_occurrences(),
            "case {case}: occurrence counts differ"
        );
        assert_eq!(l.size(), tree.size(), "case {case}: sizes differ");
        assert_eq!(
            l.is_one_occurrence_form(),
            tree.is_one_occurrence_form(),
            "case {case}: 1OF flags differ for {l}"
        );
    }
}

#[test]
fn arena_eval_agrees_with_legacy_tree() {
    let mut rng = StdRng::seed_from_u64(0xA12E_4A03);
    for case in 0..100u64 {
        let nvars = rng.random_range(1..6u64);
        let base = 70_000 + case * 8;
        let l = random_formula(&mut rng, base, nvars, 5);
        let tree = l.to_tree();
        for world in 0u64..(1 << nvars) {
            let assign = |id: TupleId| world >> (id.0 - base) & 1 == 1;
            assert_eq!(
                l.eval(&assign),
                tree.eval(&assign),
                "case {case}, world {world:b}, formula {l}"
            );
        }
    }
}

#[test]
fn hash_consing_equality_iff_ref_equality() {
    let mut formulas: Vec<Lineage> = Vec::new();
    // Independently rebuilt structurally identical formulas intern to the
    // same handle: rebuild from the same sub-seed twice.
    for case in 0..60u64 {
        let seed = 0xBEEF + case;
        let base = 90_000 + (case % 7) * 4; // overlapping var ranges on purpose
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        let a = random_formula(&mut r1, base, 4, 4);
        let b = random_formula(&mut r2, base, 4, 4);
        assert_eq!(a, b, "identical construction must be equal");
        assert_eq!(a.node_ref(), b.node_ref(), "equal formulas share one node");
        formulas.push(a);
    }
    // Across arbitrary pairs: handle equality ⇔ structural (tree) equality.
    for (i, a) in formulas.iter().enumerate() {
        for b in formulas.iter().skip(i) {
            let refs_equal = a.node_ref() == b.node_ref();
            let handles_equal = a == b;
            let trees_equal = a.to_tree() == b.to_tree();
            assert_eq!(refs_equal, handles_equal);
            assert_eq!(
                handles_equal, trees_equal,
                "handle equality must coincide with structural equality: {a} vs {b}"
            );
        }
    }
}

#[test]
fn tree_round_trip_is_identity_on_random_formulas() {
    let mut rng = StdRng::seed_from_u64(0xA12E_4A05);
    for case in 0..100u64 {
        let base = 120_000 + case * 8;
        let l = random_formula(&mut rng, base, 5, 5);
        assert_eq!(Lineage::from_tree(&l.to_tree()), l, "case {case}");
    }
}

#[test]
fn query_lineage_valuation_matches_tree_on_real_operations() {
    // End to end: run the three set operations on random relations, then
    // check every output tuple's arena marginal against the tree oracle.
    let mut rng = StdRng::seed_from_u64(0xA12E_4A06);
    for _case in 0..10 {
        let mut vars = VarTable::new();
        let mut rows = |prefix: &str, vars: &mut VarTable| {
            let n = rng.random_range(1..12usize);
            let mut out = Vec::new();
            let mut cursor = 0i64;
            for _ in 0..n {
                cursor += rng.random_range(0..4i64);
                let len = rng.random_range(1..6i64);
                out.push((
                    Fact::single("f"),
                    Interval::at(cursor, cursor + len),
                    rng.random_range(0.1..1.0),
                ));
                cursor += len;
            }
            TpRelation::base(prefix, out, vars).unwrap()
        };
        let r = rows("r", &mut vars);
        let s = rows("s", &mut vars);
        for op in SetOp::ALL {
            for t in apply(op, &r, &s).iter() {
                let got = prob::marginal(&t.lineage, &vars).unwrap();
                let truth = brute_force_tree(&t.lineage.to_tree(), &vars);
                assert!(
                    (got - truth).abs() < 1e-9,
                    "{op}: {} → {got} vs {truth}",
                    t.lineage
                );
            }
        }
    }
}

/// A random formula with exactly `occ` variable occurrences, each drawn by
/// `pick`, with `Not`s sprinkled in (they add no occurrences).
fn formula_with_occurrences(
    rng: &mut StdRng,
    occ: usize,
    pick: &mut impl FnMut(&mut StdRng) -> u64,
) -> Lineage {
    let f = if occ == 1 {
        Lineage::var(TupleId(pick(rng)))
    } else {
        let left = rng.random_range(1..occ);
        let a = formula_with_occurrences(rng, left, pick);
        let b = formula_with_occurrences(rng, occ - left, pick);
        if rng.random_bool(0.5) {
            Lineage::and(&a, &b)
        } else {
            Lineage::or(&a, &b)
        }
    };
    if rng.random_bool(0.2) {
        f.negate()
    } else {
        f
    }
}

/// Every metadata answer of `l` against the tree reference, plus
/// `condition` on its extreme variables, one inner one and one absent
/// variable inside its range.
fn assert_metadata_matches_tree(l: &Lineage, rng: &mut StdRng, ctx: &str) {
    let tree = l.to_tree();
    let vars: Vec<TupleId> = tree.vars().into_iter().collect();
    assert_eq!(l.vars(), tree.vars(), "{ctx}: variable sets differ");
    assert_eq!(
        l.var_occurrences(),
        tree.var_occurrences(),
        "{ctx}: occurrences"
    );
    assert_eq!(l.size(), tree.size(), "{ctx}: sizes differ");
    assert_eq!(
        l.is_one_occurrence_form(),
        tree.is_one_occurrence_form(),
        "{ctx}: 1OF flags differ"
    );
    let (lo, hi) = (vars[0], vars[vars.len() - 1]);
    let inner = vars[rng.random_range(0..vars.len())];
    let absent = (lo.0..=hi.0)
        .map(TupleId)
        .find(|v| vars.binary_search(v).is_err())
        .unwrap_or(TupleId(hi.0 + 1));
    for v in [lo, hi, inner, absent] {
        for value in [false, true] {
            assert_eq!(
                l.condition(v, value).map(|c| c.to_tree()),
                tree.condition(v, value),
                "{ctx}: condition({v}, {value}) differs"
            );
        }
    }
}

/// Distinct nodes reachable from `roots` whose exact variable set the arena
/// keeps: those with at most `VAR_LIST_CAP` occurrences.
fn nodes_with_var_set(roots: &[Lineage]) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut stack: Vec<Lineage> = roots.to_vec();
    let mut count = 0;
    while let Some(l) = stack.pop() {
        if !seen.insert(l.node_ref()) {
            continue;
        }
        count += usize::from(l.var_occurrences() <= VAR_LIST_CAP);
        match l.kind() {
            LineageKind::Var(_) => {}
            LineageKind::Not(c) => stack.push(c),
            LineageKind::And(a, b) | LineageKind::Or(a, b) => stack.extend([a, b]),
        }
    }
    count
}

/// Builds formulas at the edges of the arena's metadata layout in a private
/// arena: exactly 1, 2 and 3 distinct variables (the inline pair / heap
/// list boundary), each also negated, and 127 to 130 occurrences (the
/// `VAR_LIST_CAP` boundary), then checks every one against the tree. The
/// root of a cap-straddling formula splits into two children of at most
/// `VAR_LIST_CAP` occurrences each, where the 1OF flag is exact
/// (invariant 3), so it is compared for equality too. With `seal`, each
/// case seals the arena between its first and second half, so children
/// and parents spread over two segments. `stats().with_var_list` must
/// count exactly the nodes with at most `VAR_LIST_CAP` occurrences.
fn metadata_boundaries_agree_with_tree(seed: u64, cases: u64, max_small_occ: usize, seal: bool) {
    let arena = LineageArena::shared(4);
    let _scope = LineageArena::enter(&arena);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut built: Vec<(Lineage, String)> = Vec::new();
    for case in 0..cases {
        let base = 1_000 + (case % 64) * 1_000;
        if case % 2 == 0 {
            // 1, 2 or 3 distinct variables with gaps, so a set is never
            // its range.
            let k = (case / 2 % 3 + 1) as usize;
            let mut ids: Vec<u64> = Vec::new();
            while ids.len() < k {
                let id = base + rng.random_range(0..40u64);
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            let l = loop {
                let occ = rng.random_range(k..=max_small_occ.max(k));
                let half = occ / 2;
                let mut pick = |r: &mut StdRng| ids[r.random_range(0..k)];
                let first = formula_with_occurrences(&mut rng, half.max(1), &mut pick);
                if seal {
                    arena.seal();
                }
                let l = if occ > 1 {
                    let second = formula_with_occurrences(&mut rng, occ - half, &mut pick);
                    Lineage::or(&first, &second)
                } else {
                    first
                };
                if l.to_tree().vars().len() == k {
                    break l;
                }
                built.push((l, format!("case {case}: rejected candidate")));
            };
            built.push((l, format!("case {case}: {k} vars, {l}")));
            built.push((l.negate(), format!("case {case}: ¬({k} vars)")));
        } else {
            let occ = 127 + (case / 2 % 4) as usize;
            // Either each variable once in shuffled order (1OF, interleaved
            // ranges) or draws with repetition from a pool of some size.
            let mut pool: Vec<u64> = match rng.random_range(0..4u32) {
                0 => (0..occ as u64).map(|i| base + 3 * i).collect(),
                n => (0..[2u64, 40, 300][n as usize - 1])
                    .map(|i| base + 3 * i)
                    .collect(),
            };
            for i in (1..pool.len()).rev() {
                pool.swap(i, rng.random_range(0..=i));
            }
            let distinct = pool.len() == occ;
            let mut next = 0;
            let mut pick = |r: &mut StdRng| {
                if distinct {
                    next += 1;
                    pool[next - 1]
                } else {
                    pool[r.random_range(0..pool.len())]
                }
            };
            let left =
                rng.random_range(occ - VAR_LIST_CAP.min(occ - 1)..=VAR_LIST_CAP.min(occ - 1));
            let a = formula_with_occurrences(&mut rng, left, &mut pick);
            if seal {
                arena.seal();
            }
            let b = formula_with_occurrences(&mut rng, occ - left, &mut pick);
            let l = if rng.random_bool(0.5) {
                Lineage::and(&a, &b)
            } else {
                Lineage::or(&a, &b)
            };
            built.push((l, format!("case {case}: {occ} occurrences")));
            built.push((l.negate(), format!("case {case}: ¬({occ} occurrences)")));
        }
    }
    // Before any `condition` call interns its results.
    let roots: Vec<Lineage> = built.iter().map(|(l, _)| *l).collect();
    assert_eq!(arena.stats().with_var_list, nodes_with_var_set(&roots));
    for (l, ctx) in &built {
        assert_metadata_matches_tree(l, &mut rng, ctx);
    }
    layout_edges_agree_with_tree(&mut rng);
}

/// First slot of each chunk of an arena segment: chunk sizes 256, 512,
/// 1 024 and 2 048, then flat 4 096-slot chunks.
const CHUNK_STARTS: [u32; 7] = [0, 256, 768, 1_792, 3_840, 7_936, 12_032];

/// The slot of `l` within its segment.
fn slot(l: &Lineage) -> u32 {
    l.node_ref().index() as u32
}

/// The smallest segment `l`'s DAG touches, found by walking it.
fn lowest_segment(l: Lineage) -> SegmentId {
    let mut stack = vec![l];
    let mut low = l.node_ref().segment();
    while let Some(l) = stack.pop() {
        low = low.min(l.node_ref().segment());
        match l.kind() {
            LineageKind::Var(_) => {}
            LineageKind::Not(c) => stack.push(c),
            LineageKind::And(a, b) | LineageKind::Or(a, b) => stack.extend([a, b]),
        }
    }
    low
}

/// Nodes placed at given slots of a private arena (the current one),
/// every node kept for the `with_var_list` count.
struct Layout {
    next_id: u64,
    nodes: Vec<Lineage>,
    checks: Vec<(Lineage, String)>,
}

impl Layout {
    fn keep(&mut self, l: Lineage) -> Lineage {
        self.nodes.push(l);
        l
    }

    /// A fresh variable; ids step by 2, so no set of two or more is its
    /// range.
    fn var(&mut self) -> Lineage {
        self.next_id += 2;
        self.keep(Lineage::var(TupleId(self.next_id)))
    }

    /// The open segment's next slot (every node interned here is new).
    fn next_slot(&self) -> u32 {
        let open = LineageArena::with_current(|a| a.open_segment());
        self.nodes
            .last()
            .filter(|l| l.node_ref().segment() == open)
            .map_or(0, |l| slot(l) + 1)
    }

    /// A node of three variables (so it stores a list) at `target` of the
    /// open segment, then a `Not` over it in the next slot. With `early`,
    /// its children are interned before the open segment was opened.
    fn list_at(&mut self, target: u32, early: Option<(Lineage, Lineage)>, ctx: &str) -> Lineage {
        let (pair, third) = early.unwrap_or_else(|| {
            let (a, b) = (self.var(), self.var());
            let pair = self.keep(Lineage::or(&a, &b));
            (pair, self.var())
        });
        while self.next_slot() < target {
            self.var();
        }
        let l = if target.is_multiple_of(2) {
            Lineage::and(&pair, &third)
        } else {
            Lineage::or(&pair, &third)
        };
        let l = self.keep(l);
        assert_eq!(slot(&l), target, "{ctx}");
        let not = self.keep(l.negate());
        self.checks
            .push((l, format!("{ctx}: list at slot {target}")));
        self.checks
            .push((not, format!("{ctx}: ¬ list at slot {target}")));
        l
    }
}

/// Builds nodes at the edges of the node store's layout in a private
/// arena and checks each against the tree, and its `min_segment` against
/// the segments its DAG touches:
///
/// * list nodes in the last slot of each chunk size (segment 0) and in
///   the first slot of each (segment 1, whose slot 0 has its children in
///   segment 0), each with a `Not` over it in the next slot;
/// * `Not`s in segment 2 over list nodes in other chunks of segments 0
///   and 1 (a `Not` stores no list and must read its child's), and an
///   `And` over such a `Not`;
/// * nodes in segment 3 whose DAGs span three and four segments.
fn layout_edges_agree_with_tree(rng: &mut StdRng) {
    let arena = LineageArena::shared(4);
    let _scope = LineageArena::enter(&arena);
    let mut lay = Layout {
        next_id: 10_000_000,
        nodes: Vec::new(),
        checks: Vec::new(),
    };
    let last_slots: Vec<Lineage> = CHUNK_STARTS[1..]
        .iter()
        .map(|&next| lay.list_at(next - 1, None, "segment 0"))
        .collect();
    let (a, b) = (lay.var(), lay.var());
    let early = (lay.keep(Lineage::or(&a, &b)), lay.var());
    arena.seal();
    let first_slots: Vec<Lineage> = CHUNK_STARTS[..6]
        .iter()
        .map(|&start| {
            let early = (start == 0).then_some(early);
            lay.list_at(start, early, "segment 1")
        })
        .collect();
    let seg1_var = lay.var();
    arena.seal();
    // Segment 2, chunks 0 and 1: `Not`s over lists in chunk 5 of segment
    // 0, chunk 0 of segment 0 and chunk 3 of segment 1.
    let mut nots = Vec::new();
    for (i, list) in [last_slots[5], last_slots[0], first_slots[3]]
        .into_iter()
        .enumerate()
    {
        while lay.next_slot() < 300 * i as u32 {
            lay.var();
        }
        let not = lay.keep(list.negate());
        let v = lay.var();
        let and = lay.keep(Lineage::and(&not, &v));
        lay.checks
            .push((not, format!("segment 2: ¬ earlier list {i}")));
        lay.checks
            .push((and, format!("segment 2: ∧ over ¬ earlier list {i}")));
        nots.push(not);
    }
    let seg2_var = lay.var();
    arena.seal();
    let seg3_var = lay.var();
    let three = lay.keep(Lineage::and(&Lineage::or(&seg1_var, &seg2_var), &seg3_var));
    let four = lay.keep(Lineage::or(&Lineage::and(&nots[0], &seg1_var), &seg3_var));
    lay.checks
        .push((three, "segment 3: DAG over segments 1 to 3".into()));
    lay.checks
        .push((four, "segment 3: DAG over segments 0 to 3".into()));
    assert_eq!(three.min_segment(), SegmentId(1));
    assert_eq!(four.min_segment(), SegmentId(0));
    // Before any `condition` call interns its results.
    assert_eq!(arena.stats().with_var_list, nodes_with_var_set(&lay.nodes));
    for (l, ctx) in &lay.checks {
        assert_eq!(l.min_segment(), lowest_segment(*l), "{ctx}: min_segment");
        assert_metadata_matches_tree(l, rng, ctx);
    }
}

#[test]
fn arena_metadata_boundaries_agree_with_legacy_tree() {
    metadata_boundaries_agree_with_tree(0xA12E_4A07, 240, 6, false);
}

/// The release soak of the boundary property: 10 000 cases, formulas of up
/// to 16 occurrences over 1 to 3 variables, and a seal inside every case.
/// Run with `cargo test --release --test arena_props -- --ignored`.
#[test]
#[ignore = "release soak; run with --ignored"]
fn arena_metadata_boundaries_soak() {
    metadata_boundaries_agree_with_tree(0xA12E_4A08, 10_000, 16, true);
}
