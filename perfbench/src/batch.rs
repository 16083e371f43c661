//! The two batch workloads: `batch_synth` (set operations, then their
//! probabilities) and `batch_valuation` (probabilities of two results
//! built beforehand).

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tp_core::fact::Fact;
use tp_core::interval::Interval;
use tp_core::lineage::Lineage;
use tp_core::ops::{self, SetOp};
use tp_core::prob;
use tp_core::relation::{TpRelation, VarTable};
use tp_core::window::Lawa;
use tp_obs::now_ns;
use tp_workloads::synth::{self, SynthConfig};

use crate::inputs::{export, fresh_arena, intern, PortableTuple};
use crate::spans::Tracer;
use crate::workload::{Layers, Pass, Scale, Verdict, Workload};

/// `marginal_batch` and `marginal` must agree to this.
const MAX_DELTA: f64 = 1e-12;

fn roots(rel: &TpRelation) -> Vec<Lineage> {
    rel.iter().map(|t| t.lineage).collect()
}

/// Values every root with `marginal`, one call per root, and returns the
/// probabilities and the time in ns. Cold or warm is the caller's doing.
fn marginal_each(roots: &[Lineage], vars: &VarTable) -> (Vec<f64>, u64) {
    let t0 = now_ns();
    let probs = roots
        .iter()
        .map(|l| prob::marginal(l, vars).unwrap_or(f64::NAN))
        .collect();
    (probs, now_ns() - t0)
}

/// Compares the batch kernel with the per-root walk over `roots`, both
/// from a cold cache, and books the largest difference.
fn check_valuation(what: &str, roots: &[Lineage], vars: &VarTable, v: &mut Verdict) {
    vars.clear_valuation_cache();
    let batch = prob::marginal_batch(roots, vars);
    vars.clear_valuation_cache();
    let (each, _) = marginal_each(roots, vars);
    let Ok(batch) = batch else {
        v.check(false, || format!("{what}: marginal_batch returned Err"));
        return;
    };
    let mut delta = 0.0f64;
    let mut in_range = batch.len() == each.len();
    for (b, e) in batch.iter().zip(&each) {
        // NaN (an `Err` of `marginal`) fails both tests.
        delta = delta.max((b - e).abs());
        in_range &= (0.0..=1.0).contains(b) && (0.0..=1.0).contains(e);
    }
    v.check(in_range && delta <= MAX_DELTA, || {
        format!("{what}: marginal_batch vs marginal max delta {delta:e}, in range {in_range}")
    });
    let worst = v.layers.entry("core.prob.max_abs_delta").or_insert(0.0);
    *worst = worst.max(delta);
}

/// The paper's fig-8 shape: two synthetic relations, all three set
/// operations, and the probability of every output tuple.
pub struct BatchSynth {
    r: Vec<PortableTuple>,
    s: Vec<PortableTuple>,
    vars: VarTable,
}

impl BatchSynth {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (_arena, _scope) = fresh_arena();
        let mut vars = VarTable::new();
        let cfg = SynthConfig::with_facts(scale.pick(150_000, 3_000), scale.pick(1_500, 30), seed);
        let (r, s) = synth::generate(&cfg, &mut vars);
        BatchSynth {
            r: export(&r),
            s: export(&s),
            vars,
        }
    }
}

impl Workload for BatchSynth {
    fn pass(&self, tr: &mut Tracer) -> Pass {
        const OP_MS: [&str; 3] = [
            "core.ops.union_ms",
            "core.ops.intersect_ms",
            "core.ops.except_ms",
        ];
        let (arena, _scope) = fresh_arena();
        let (r, s) = (intern(&self.r), intern(&self.s));
        self.vars.clear_valuation_cache();
        let mut layers = Layers::new();
        let (mut outputs, mut valuation_ns, mut failed) = (0u64, 0u64, 0u64);
        let t0 = now_ns();
        for (i, op) in SetOp::ALL.into_iter().enumerate() {
            let (out, ns) = tr.call(op.name(), i as u64, || ops::apply(op, &r, &s));
            layers.insert(OP_MS[i], ns as f64 / 1e6);
            let (probs, ns) = tr.call("marginal_batch", i as u64, || {
                prob::marginal_batch(&roots(&out), &self.vars)
            });
            valuation_ns += ns;
            outputs += out.len() as u64;
            failed += u64::from(black_box(probs).is_err());
        }
        let pass_ns = now_ns() - t0;
        layers.insert("core.ops.output_tuples", outputs as f64);
        layers.insert("core.prob.pass_share", valuation_ns as f64 / pass_ns as f64);
        layers.insert(
            "core.prob.batch_cold_ns_per_root",
            valuation_ns as f64 / outputs.max(1) as f64,
        );
        if tr.on {
            let stats = arena.stats();
            layers.insert("core.arena.nodes_interned", stats.total_interned as f64);
            layers.insert(
                "core.arena.resident_bytes_peak",
                stats.resident_bytes as f64,
            );
            layers.insert(
                "core.prob.nodes_per_root",
                stats.total_interned as f64 / outputs.max(1) as f64,
            );
        }
        Pass {
            units: (r.len() + s.len()) as u64,
            secs: pass_ns as f64 / 1e9,
            latencies_ms: vec![pass_ns as f64 / 1e6],
            attempted: 2 * SetOp::ALL.len() as u64,
            failed,
            layers,
        }
    }

    fn oracle(&self) -> Verdict {
        let mut v = Verdict::default();
        let (_arena, _scope) = fresh_arena();
        let (r, s) = (intern(&self.r), intern(&self.s));
        for op in SetOp::ALL {
            // `ops::apply` is the oracle of every other workload; here its
            // output must at least be a valid, repeatable TP relation.
            let out = ops::apply(op, &r, &s);
            v.check(out.check_duplicate_free().is_ok(), || {
                format!("{op} output has duplicates")
            });
            v.check(out == ops::apply(op, &r, &s), || {
                format!("{op} is not repeatable")
            });
            check_valuation(op.name(), &roots(&out), &self.vars, &mut v);
        }
        v
    }

    fn probes(&self, tr: &mut Tracer, out: &mut Layers) {
        let trees = {
            let (_arena, _scope) = fresh_arena();
            let (r, s) = (intern(&self.r), intern(&self.s));
            // The sweep alone: windows, no λ-functions, no output.
            let (windows, ns) = tr.call("lawa_sweep", 0, || {
                Lawa::new(r.tuples(), s.tuples()).count()
            });
            out.insert("core.window.windows", windows as f64);
            out.insert(
                "core.window.sweep_ns_per_window",
                ns as f64 / windows.max(1) as f64,
            );
            // Sorting and checking a relation that arrives unsorted.
            let mut shuffled = r.tuples().to_vec();
            let mut rng = StdRng::seed_from_u64(0);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.random_range(0..=i));
            }
            let (built, ns) = tr.call("relation_build", 0, || TpRelation::try_new(shuffled));
            assert!(built.is_ok(), "the generator's relation is duplicate-free");
            out.insert(
                "core.relation.build_ns_per_tuple",
                ns as f64 / r.len().max(1) as f64,
            );
            export(&ops::union(&r, &s))
        };
        // Interning the union's output trees into an empty arena (the
        // append path, but for sub-formulas outputs share), then again
        // into the same one (every call a dedup hit). Per intern call,
        // which is one per tree node either way.
        let (_arena, _scope) = fresh_arena();
        let calls = trees.iter().map(|t| t.tree.size()).sum::<usize>().max(1) as f64;
        let (_, cold) = tr.call("intern_cold", 0, || black_box(intern(&trees)));
        let (rel, hit) = tr.call("intern_hit", 0, || intern(&trees));
        out.insert("core.arena.intern_cold_ns_per_node", cold as f64 / calls);
        out.insert("core.arena.intern_hit_ns_per_node", hit as f64 / calls);
        // The per-root walk over the same outputs, cold then warm.
        self.vars.clear_valuation_cache();
        let (_, cold) = marginal_each(&roots(&rel), &self.vars);
        let (_, warm) = marginal_each(&roots(&rel), &self.vars);
        out.insert(
            "core.prob.marginal_cold_ns_per_root",
            cold as f64 / rel.len().max(1) as f64,
        );
        out.insert(
            "core.prob.marginal_warm_ns_per_root",
            warm as f64 / rel.len().max(1) as f64,
        );
    }
}

/// Probabilities of two results built beforehand: a symmetric
/// difference, where many roots repeat a variable and take the Shannon
/// path, and the fig-4 motif, a deep `∪Tp` chain shared by every root.
pub struct BatchValuation {
    symdiff: Vec<PortableTuple>,
    /// The motif's base relations: one long tuple per fact and level,
    /// then the grid of short tuples that cuts them into windows.
    levels: Vec<Vec<PortableTuple>>,
    grid: Vec<PortableTuple>,
    vars: VarTable,
}

impl BatchValuation {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (_arena, _scope) = fresh_arena();
        let mut vars = VarTable::new();
        let cfg = SynthConfig::with_facts(scale.pick(60_000, 2_000), scale.pick(600, 20), seed);
        let (r, s) = synth::generate(&cfg, &mut vars);
        let symdiff = ops::union(&ops::except(&r, &s), &ops::except(&s, &r));

        let tuples = scale.pick(100_000, 3_000);
        let facts = (tuples / 100).clamp(1, 512);
        let cells = (tuples / facts).max(1) as i64;
        let granule = 10i64;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next_p = move || rng.random_range(0.05..0.95);
        let mut base = |tag: String, rows: Vec<(Fact, Interval)>, vars: &mut VarTable| {
            let rows = rows.into_iter().map(|(f, i)| (f, i, next_p()));
            export(&TpRelation::base(&tag, rows, vars).expect("motif rows are duplicate-free"))
        };
        let levels = (0..scale.pick(32, 8))
            .map(|l| {
                let rows = (0..facts)
                    .map(|f| (Fact::single(f as i64), Interval::at(0, cells * granule)))
                    .collect();
                base(format!("d{l}"), rows, &mut vars)
            })
            .collect();
        let grid_rows = (0..facts)
            .flat_map(|f| {
                (0..cells).map(move |j| {
                    (
                        Fact::single(f as i64),
                        Interval::at(j * granule, (j + 1) * granule),
                    )
                })
            })
            .collect();
        let grid = base("g".into(), grid_rows, &mut vars);
        BatchValuation {
            symdiff: export(&symdiff),
            levels,
            grid,
            vars,
        }
    }

    /// Both results in the current arena: the roots of the symmetric
    /// difference and those of the motif.
    fn results(&self) -> (Vec<Lineage>, Vec<Lineage>) {
        let chain = self.levels[1..]
            .iter()
            .fold(intern(&self.levels[0]), |acc, level| {
                ops::union(&acc, &intern(level))
            });
        let motif = ops::union(&chain, &intern(&self.grid));
        (roots(&intern(&self.symdiff)), roots(&motif))
    }
}

impl Workload for BatchValuation {
    fn pass(&self, tr: &mut Tracer) -> Pass {
        let (arena, _scope) = fresh_arena();
        let (symdiff, motif) = self.results();
        self.vars.clear_valuation_cache();
        let nodes = if tr.on {
            arena.stats().total_interned
        } else {
            0
        };
        let t0 = now_ns();
        let (p_symdiff, _) = tr.call("marginal_batch", 0, || {
            prob::marginal_batch(&symdiff, &self.vars)
        });
        let (p_motif, motif_ns) = tr.call("marginal_batch", 1, || {
            prob::marginal_batch(&motif, &self.vars)
        });
        let pass_ns = now_ns() - t0;
        let failed =
            u64::from(black_box(p_symdiff).is_err()) + u64::from(black_box(p_motif).is_err());
        let n = (symdiff.len() + motif.len()) as u64;
        let mut layers = Layers::new();
        // The pass is nothing but valuation.
        layers.insert("core.prob.pass_share", 1.0);
        layers.insert(
            "core.prob.batch_cold_ns_per_root",
            pass_ns as f64 / n.max(1) as f64,
        );
        layers.insert(
            "core.prob.shared_chain_ns_per_root",
            motif_ns as f64 / motif.len().max(1) as f64,
        );
        if tr.on {
            layers.insert("core.arena.nodes_interned", nodes as f64);
            layers.insert("core.prob.nodes_per_root", nodes as f64 / n.max(1) as f64);
            layers.insert(
                "core.arena.resident_bytes_peak",
                arena.stats().resident_bytes as f64,
            );
        }
        Pass {
            units: n,
            secs: pass_ns as f64 / 1e9,
            latencies_ms: vec![pass_ns as f64 / 1e6],
            attempted: 2,
            failed,
            layers,
        }
    }

    fn oracle(&self) -> Verdict {
        let mut v = Verdict::default();
        let (_arena, _scope) = fresh_arena();
        let (symdiff, motif) = self.results();
        // The workload is only worth running while it has both kinds.
        let repeating = symdiff
            .iter()
            .filter(|l| !l.is_one_occurrence_form())
            .count();
        let kinds = format!(
            "{repeating} of {} symmetric-difference roots repeat a variable; {} motif roots",
            symdiff.len(),
            motif.len()
        );
        v.check(repeating > 0 && repeating < symdiff.len(), || kinds.clone());
        v.notes.push(kinds);
        v.check(motif.iter().all(Lineage::is_one_occurrence_form), || {
            "a motif root repeats a variable".into()
        });
        check_valuation("symdiff", &symdiff, &self.vars, &mut v);
        check_valuation("motif", &motif, &self.vars, &mut v);
        v
    }

    fn probes(&self, tr: &mut Tracer, out: &mut Layers) {
        {
            let (_arena, _scope) = fresh_arena();
            let (symdiff, _) = self.results();
            let n = symdiff.len().max(1) as f64;
            self.vars.clear_valuation_cache();
            let (_, cold) = marginal_each(&symdiff, &self.vars);
            let (_, warm) = marginal_each(&symdiff, &self.vars);
            out.insert("core.prob.marginal_cold_ns_per_root", cold as f64 / n);
            out.insert("core.prob.marginal_warm_ns_per_root", warm as f64 / n);
        }
        // The roots that leave the columnar kernel, alone, in an arena
        // that has not seen their Shannon expansions yet.
        let (_arena, _scope) = fresh_arena();
        let (symdiff, _) = self.results();
        let repeating: Vec<Lineage> = symdiff
            .into_iter()
            .filter(|l| !l.is_one_occurrence_form())
            .collect();
        self.vars.clear_valuation_cache();
        let (probs, ns) = tr.call("marginal_batch_non1of", 0, || {
            prob::marginal_batch(&repeating, &self.vars)
        });
        black_box(probs).ok();
        out.insert(
            "core.prob.non1of_ns_per_root",
            ns as f64 / repeating.len().max(1) as f64,
        );
    }
}
