//! One runner per table and figure of §VII.
//!
//! Every function regenerates the corresponding artifact of the paper at a
//! `TP_SCALE`-adjusted size and returns either a rendered table (Tables
//! II–IV) or an [`ExperimentResult`] (the figures) whose rows are the x-axis
//! values and whose columns are approaches — the same series the paper
//! plots.

use std::fmt::Write as _;

use tp_baselines::Approach;
use tp_core::ops::SetOp;
use tp_core::relation::{TpRelation, VarTable};
use tp_workloads::{
    overlapping_factor, shifted_copy, DatasetStats, MeteoConfig, SynthConfig, WebkitConfig,
};

use crate::runner::{default_cap, run_one, scaled};

/// One line of a figure: an approach and its runtime (ms) per x value
/// (`None` = unsupported or size-capped, rendered as `-`).
#[derive(Debug, Clone)]
pub struct Series {
    /// Approach name.
    pub name: String,
    /// Runtime in milliseconds per x value.
    pub values: Vec<Option<f64>>,
}

/// A regenerated figure.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Identifier, e.g. "Fig. 7a".
    pub id: String,
    /// Human-readable description.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// The x values, already formatted.
    pub xs: Vec<String>,
    /// One series per approach.
    pub series: Vec<Series>,
    /// Free-form annotations (measured overlap factors, caps, …).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Renders the result as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {}: {} ==", self.id, self.title);
        let _ = write!(out, "{:<16}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "{:>14}", s.name);
        }
        let _ = writeln!(out);
        for (i, x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{x:<16}");
            for s in &self.series {
                match s.values.get(i).copied().flatten() {
                    Some(ms) => {
                        let _ = write!(out, "{ms:>12.1}ms");
                    }
                    None => {
                        let _ = write!(out, "{:>14}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// The measured values of an approach, if present.
    pub fn series_of(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Renders the result as CSV (header `x,<approach>…`; empty cells for
    /// unsupported/capped points) — convenient for external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label);
        for s in &self.series {
            let _ = write!(out, ",{}", s.name);
        }
        let _ = writeln!(out);
        for (i, x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.values.get(i).copied().flatten() {
                    Some(ms) => {
                        let _ = write!(out, ",{ms:.3}");
                    }
                    None => {
                        let _ = write!(out, ",");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn sweep(
    id: &str,
    title: &str,
    x_label: &str,
    approaches: &[Approach],
    op: SetOp,
    inputs: Vec<(String, TpRelation, TpRelation)>,
) -> ExperimentResult {
    let mut series: Vec<Series> = approaches
        .iter()
        .map(|a| Series {
            name: a.name().to_string(),
            values: Vec::with_capacity(inputs.len()),
        })
        .collect();
    let mut xs = Vec::with_capacity(inputs.len());
    for (x, r, s) in &inputs {
        xs.push(x.clone());
        for (a, line) in approaches.iter().zip(series.iter_mut()) {
            line.values.push(run_one(*a, op, r, s, default_cap(*a)));
        }
    }
    ExperimentResult {
        id: id.to_string(),
        title: title.to_string(),
        x_label: x_label.to_string(),
        xs,
        series,
        notes: Vec::new(),
    }
}

/// Table II: the support matrix.
pub fn table2_support() -> String {
    format!(
        "== Table II: approach/operation support ==\n{}",
        tp_baselines::support_matrix()
    )
}

/// Table III: the synthetic robustness datasets and their measured
/// overlapping factors.
pub fn table3_datasets() -> String {
    let tuples = scaled(10_000);
    let mut out = String::from("== Table III: robustness dataset characteristics ==\n");
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>12} {:>12} {:>10}",
        "nominal", "measured", "max len (R)", "max len (S)", "tuples"
    );
    for nominal in [0.03, 0.1, 0.4, 0.6, 0.8] {
        let cfg = SynthConfig::table3_preset(nominal, tuples, 17);
        let mut vars = VarTable::new();
        let (r, s) = tp_workloads::synth::generate(&cfg, &mut vars);
        let measured = overlapping_factor(&r, &s);
        let _ = writeln!(
            out,
            "{nominal:<10} {measured:>10.3} {:>12} {:>12} {tuples:>10}",
            cfg.r.max_interval_len, cfg.s.max_interval_len
        );
    }
    out
}

/// Table IV: profiles of the (simulated) real-world datasets.
pub fn table4_datasets() -> String {
    let mut vars = VarTable::new();
    let meteo = tp_workloads::meteo::generate(
        &MeteoConfig {
            tuples: scaled(100_000),
            ..Default::default()
        },
        &mut vars,
    );
    let webkit = tp_workloads::webkit::generate(
        &WebkitConfig {
            files: scaled(20_000),
            tuples: scaled(100_000),
            ..Default::default()
        },
        &mut vars,
    );
    format!(
        "== Table IV: real-world dataset properties (simulated) ==\n{}\n{}",
        DatasetStats::measure(&meteo).render("Meteo (simulated)"),
        DatasetStats::measure(&webkit).render("Webkit (simulated)")
    )
}

fn fig7_inputs(sizes: &[usize]) -> Vec<(String, TpRelation, TpRelation)> {
    sizes
        .iter()
        .map(|&n| {
            let mut vars = VarTable::new();
            let (r, s) = tp_workloads::synth::generate(
                &SynthConfig::single_fact(n, 20 + n as u64),
                &mut vars,
            );
            (format!("{}K", n / 1000), r, s)
        })
        .collect()
}

/// Default x axis of the small-synthetic experiments: the paper's
/// 20K–200K sweep divided by 10 (grow with `TP_SCALE`).
pub fn small_sizes() -> Vec<usize> {
    (1..=10).map(|i| scaled(2_000) * i).collect()
}

/// Fig. 7a/7b/7c: runtime on smaller synthetic datasets (single fact,
/// overlapping factor ≈ 0.6), all applicable approaches per operation.
pub fn fig7_small_synthetic() -> Vec<ExperimentResult> {
    let sizes = small_sizes();
    let inputs = fig7_inputs(&sizes);
    let mut results = vec![
        sweep(
            "Fig. 7a",
            "TP set intersection, smaller synthetic datasets",
            "tuples",
            &[
                Approach::Lawa,
                Approach::Oip,
                Approach::Ti,
                Approach::Tpdb,
                Approach::Norm,
            ],
            SetOp::Intersect,
            inputs.clone(),
        ),
        sweep(
            "Fig. 7b",
            "TP set difference, smaller synthetic datasets",
            "tuples",
            &[Approach::Lawa, Approach::Norm],
            SetOp::Except,
            inputs.clone(),
        ),
        sweep(
            "Fig. 7c",
            "TP set union, smaller synthetic datasets",
            "tuples",
            &[Approach::Lawa, Approach::Tpdb, Approach::Norm],
            SetOp::Union,
            inputs,
        ),
    ];
    for r in &mut results {
        r.notes.push(format!(
            "sizes are paper/10 by default; NORM/TPDB capped at {} tuples (quadratic)",
            scaled(6_000)
        ));
    }
    results
}

/// Fig. 8: TP set intersection on larger synthetic datasets, LAWA vs OIP
/// (the only approaches that scale).
pub fn fig8_large_synthetic() -> ExperimentResult {
    let sizes: Vec<usize> = (1..=5).map(|i| scaled(500_000) * i).collect();
    let inputs = fig7_inputs(&sizes);
    let mut result = sweep(
        "Fig. 8",
        "TP set intersection, larger synthetic datasets",
        "tuples",
        &[Approach::Lawa, Approach::Oip],
        SetOp::Intersect,
        inputs,
    );
    result
        .notes
        .push("paper sweeps 5M-50M; defaults are /10 (TP_SCALE=10 for paper size)".into());
    result
}

/// Fig. 9a: robustness of `∩Tp` against the overlapping factor (LAWA vs
/// OIP, fixed cardinality).
pub fn fig9a_overlap() -> ExperimentResult {
    let tuples = scaled(1_000_000);
    let factors = [0.03, 0.1, 0.4, 0.6, 0.8];
    let inputs: Vec<(String, TpRelation, TpRelation)> = factors
        .iter()
        .map(|&f| {
            let mut vars = VarTable::new();
            let (r, s) = tp_workloads::synth::generate(
                &SynthConfig::table3_preset(f, tuples, 31),
                &mut vars,
            );
            (format!("{:.2}", overlapping_factor(&r, &s)), r, s)
        })
        .collect();
    let mut result = sweep(
        "Fig. 9a",
        "robustness vs overlapping factor (TP set intersection)",
        "overlap",
        &[Approach::Lawa, Approach::Oip],
        SetOp::Intersect,
        inputs,
    );
    result.notes.push(format!(
        "cardinality fixed at {tuples} tuples (paper: 30M); x values are measured factors"
    ));
    result
}

/// Fig. 9b: robustness of `∩Tp` against the number of distinct facts
/// (all five approaches, fixed cardinality).
pub fn fig9b_facts() -> ExperimentResult {
    let tuples = scaled(4_000);
    let fact_counts = [tuples / 2, 100, 10, 5, 1];
    let inputs: Vec<(String, TpRelation, TpRelation)> = fact_counts
        .iter()
        .map(|&facts| {
            let mut vars = VarTable::new();
            let (r, s) = tp_workloads::synth::generate(
                &SynthConfig::with_facts(tuples, facts.max(1), 47),
                &mut vars,
            );
            (format!("{facts}F"), r, s)
        })
        .collect();
    let mut result = sweep(
        "Fig. 9b",
        "robustness vs number of distinct facts (TP set intersection)",
        "facts",
        &[
            Approach::Norm,
            Approach::Lawa,
            Approach::Oip,
            Approach::Ti,
            Approach::Tpdb,
        ],
        SetOp::Intersect,
        inputs,
    );
    result.notes.push(format!(
        "cardinality fixed at {tuples} tuples (paper: 60K), overlap ≈ 0.6"
    ));
    result
}

fn real_world_sweep(
    id_prefix: &str,
    dataset: &str,
    full_r: &TpRelation,
    full_s: &TpRelation,
) -> Vec<ExperimentResult> {
    // Random subsets of increasing size, like the paper's 20K-200K runs.
    let sizes = small_sizes();
    let subset = |rel: &TpRelation, n: usize| -> TpRelation {
        // Deterministic subset: every k-th tuple, preserving duplicate-
        // freeness (a subset of a duplicate-free relation is duplicate-free).
        let k = (rel.len() / n.max(1)).max(1);
        rel.iter()
            .step_by(k)
            .take(n)
            .cloned()
            .collect::<TpRelation>()
    };
    let inputs: Vec<(String, TpRelation, TpRelation)> = sizes
        .iter()
        .map(|&n| {
            (
                format!("{}K", n / 1000),
                subset(full_r, n),
                subset(full_s, n),
            )
        })
        .collect();
    vec![
        sweep(
            &format!("{id_prefix}a"),
            &format!("TP set intersection, {dataset}"),
            "tuples",
            &[
                Approach::Lawa,
                Approach::Oip,
                Approach::Ti,
                Approach::Tpdb,
                Approach::Norm,
            ],
            SetOp::Intersect,
            inputs.clone(),
        ),
        sweep(
            &format!("{id_prefix}b"),
            &format!("TP set difference, {dataset}"),
            "tuples",
            &[Approach::Lawa, Approach::Norm],
            SetOp::Except,
            inputs.clone(),
        ),
        sweep(
            &format!("{id_prefix}c"),
            &format!("TP set union, {dataset}"),
            "tuples",
            &[Approach::Lawa, Approach::Tpdb, Approach::Norm],
            SetOp::Union,
            inputs,
        ),
    ]
}

/// Fig. 10a–c: the three TP set operations over the (simulated) Meteo Swiss
/// dataset and its shifted counterpart.
pub fn fig10_meteo() -> Vec<ExperimentResult> {
    let mut vars = VarTable::new();
    let max_size = *small_sizes().last().expect("non-empty");
    let r = tp_workloads::meteo::generate(
        &MeteoConfig {
            tuples: max_size,
            ..Default::default()
        },
        &mut vars,
    );
    let s = shifted_copy(&r, "s", 20 * 600, 5, &mut vars);
    real_world_sweep("Fig. 10", "Meteo Swiss (simulated)", &r, &s)
}

/// Result of the memoized-valuation benchmark backing the lineage-arena
/// acceptance criterion: repeated `prob::marginal` calls on the shared
/// sublineages of overlapping LAWA windows, arena-memoized vs. the legacy
/// un-memoized tree walker.
#[derive(Debug, Clone)]
pub struct LawaValuationBench {
    /// Tuples per base relation.
    pub tuples: usize,
    /// Number of chained `∪Tp` levels (deepens the shared sublineages).
    pub levels: usize,
    /// Valuation rounds over the final relation.
    pub rounds: usize,
    /// Output tuples valuated per round.
    pub output_tuples: usize,
    /// Total tree-semantic lineage nodes valuated per round.
    pub lineage_nodes: u64,
    /// Milliseconds for `rounds` sweeps with the legacy tree walker.
    pub tree_walker_ms: f64,
    /// Milliseconds for `rounds` sweeps with the arena-memoized marginal.
    pub arena_memoized_ms: f64,
    /// Largest |Σ tree − Σ arena| over the rounds (must be ≈ 0).
    pub max_sum_delta: f64,
}

impl LawaValuationBench {
    /// `tree_walker_ms / arena_memoized_ms`.
    pub fn speedup(&self) -> f64 {
        self.tree_walker_ms / self.arena_memoized_ms.max(1e-9)
    }

    /// Renders the result as a JSON object (hand-rolled; the workspace has
    /// no serde_json).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"lawa_memoized_valuation\",\n",
                "  \"tuples\": {},\n",
                "  \"levels\": {},\n",
                "  \"rounds\": {},\n",
                "  \"output_tuples\": {},\n",
                "  \"lineage_nodes\": {},\n",
                "  \"tree_walker_ms\": {:.3},\n",
                "  \"arena_memoized_ms\": {:.3},\n",
                "  \"speedup\": {:.2},\n",
                "  \"max_sum_delta\": {:.3e},\n",
                "  \"lineage_equality\": \"O(1) LineageRef compare\"\n",
                "}}\n"
            ),
            self.tuples,
            self.levels,
            self.rounds,
            self.output_tuples,
            self.lineage_nodes,
            self.tree_walker_ms,
            self.arena_memoized_ms,
            self.speedup(),
            self.max_sum_delta,
        )
    }

    /// Human-readable summary line.
    pub fn render(&self) -> String {
        format!(
            "== BENCH lawa: memoized valuation ==\n\
             {} tuples × {} union levels → {} output tuples, {} lineage nodes/round\n\
             tree walker   {:>10.1} ms  ({} rounds)\n\
             arena memoized{:>10.1} ms  ({} rounds)\n\
             speedup       {:>10.2}×   (max Σ-delta {:.2e})\n",
            self.tuples,
            self.levels,
            self.output_tuples,
            self.lineage_nodes,
            self.tree_walker_ms,
            self.rounds,
            self.arena_memoized_ms,
            self.rounds,
            self.speedup(),
            self.max_sum_delta,
        )
    }
}

/// Benchmarks repeated marginal valuation over the output of a chain of
/// `∪Tp` operations whose LAWA windows stay aligned — the paper's
/// overlapping-streams scenario, where every window of level `i` carries the
/// level `i−1` window's lineage as a shared subformula. Every output tuple
/// is valuated `rounds` times with (a) the legacy recursive tree walker (no
/// memo; walks the full formula every call) and (b) the arena-backed
/// memoized [`tp_core::prob::marginal`]. Both paths compute identical
/// probabilities; the arena path valuates every *unique* interned node once
/// across all tuples and all rounds.
pub fn lawa_valuation_bench(tuples: usize, levels: usize, rounds: usize) -> LawaValuationBench {
    use tp_core::lineage::LineageTree;

    let (acc, vars) = shared_subformula_workload(tuples, levels);
    let vars = &vars;
    let output_tuples = acc.len();
    let lineage_nodes: u64 = acc.iter().map(|t| t.lineage.size() as u64).sum();

    // Legacy baseline: expand once (not timed), then walk per call.
    let trees: Vec<LineageTree> = acc.iter().map(|t| t.lineage.to_tree()).collect();
    let (tree_walker_ms, tree_sums) = crate::runner::time_ms(|| {
        let mut sums = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let mut sum = 0.0;
            for tree in &trees {
                sum += tree.independent_prob(vars).expect("vars registered");
            }
            sums.push(sum);
        }
        sums
    });

    // Arena path: cold cache (freshly cleared), memoized across tuples and
    // rounds.
    vars.clear_valuation_cache();
    let (arena_memoized_ms, arena_sums) = crate::runner::time_ms(|| {
        let mut sums = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let mut sum = 0.0;
            for t in acc.iter() {
                sum += tp_core::prob::marginal(&t.lineage, vars).expect("vars registered");
            }
            sums.push(sum);
        }
        sums
    });

    let max_sum_delta = tree_sums
        .iter()
        .zip(&arena_sums)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    LawaValuationBench {
        tuples,
        levels,
        rounds,
        output_tuples,
        lineage_nodes,
        tree_walker_ms,
        arena_memoized_ms,
        max_sum_delta,
    }
}

/// Builds the paper's Fig. 4 motif at benchmark scale: per fact, one
/// *long-lived* tuple per level (its lineage accumulates into a deep
/// ∨-chain under repeated `∪Tp`), finally unioned with a stream of many
/// *short* tuples. Every short tuple clips one LAWA window out of the
/// long tuple's validity, so all `cells` windows of a fact carry the same
/// deep chain as a shared subformula — exactly the repeated-lineage
/// pattern both the memoized valuation and the columnar kernel exist for.
/// Shared by `lawa_valuation_bench` and `raw_speed_bench`.
fn shared_subformula_workload(tuples: usize, levels: usize) -> (TpRelation, VarTable) {
    use tp_core::fact::Fact;
    use tp_core::interval::Interval;
    use tp_core::ops::union;

    let facts = (tuples / 100).clamp(1, 512);
    let cells = (tuples / facts).max(1);
    let granule = 10i64;
    let span = cells as i64 * granule;
    let mut vars = VarTable::new();
    let mut rng_p = 0u64;
    let mut next_p = move || {
        // Deterministic pseudo-probabilities in (0.05, 0.95).
        rng_p = rng_p
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        0.05 + 0.9 * ((rng_p >> 11) as f64 / (1u64 << 53) as f64)
    };
    let mut long_level = |tag: &str, vars: &mut VarTable| -> TpRelation {
        let rows: Vec<_> = (0..facts)
            .map(|f| (Fact::single(f as i64), Interval::at(0, span), next_p()))
            .collect();
        TpRelation::base(tag, rows, vars).expect("one long tuple per fact")
    };
    let mut acc = long_level("d0", &mut vars);
    for i in 1..levels.max(2) {
        let next = long_level(&format!("d{i}"), &mut vars);
        acc = union(&acc, &next);
    }
    // The short-tuple stream: `cells` aligned tuples per fact.
    let mut grid_rows = Vec::with_capacity(facts * cells);
    for f in 0..facts {
        for j in 0..cells as i64 {
            grid_rows.push((
                Fact::single(f as i64),
                Interval::at(j * granule, (j + 1) * granule),
                next_p(),
            ));
        }
    }
    let grid = TpRelation::base("s", grid_rows, &mut vars).expect("grid is duplicate-free");
    acc = union(&acc, &grid);
    (acc, vars)
}

/// One per-operation LAWA throughput measurement (the sweep itself, not
/// valuation): guards the `O(n log n)` set-operation hot path against
/// regressions per figure series.
#[derive(Debug, Clone)]
pub struct OpThroughput {
    /// The operation measured.
    pub op: SetOp,
    /// Tuples per input relation.
    pub tuples: usize,
    /// Best-of-three wall milliseconds for one full operation (sort +
    /// sweep + λ-functions).
    pub ms: f64,
    /// Input tuples processed per second, in millions.
    pub mtuples_per_s: f64,
    /// Output cardinality (sanity anchor: Theorem 1 keeps it linear).
    pub output_tuples: usize,
}

/// Measures all three TP set operations on the single-fact synthetic
/// workload at each given size (best of three runs per point).
pub fn lawa_op_throughput(sizes: &[usize]) -> Vec<OpThroughput> {
    let mut out = Vec::new();
    for &tuples in sizes {
        let mut vars = VarTable::new();
        let (r, s) =
            tp_workloads::synth::generate(&SynthConfig::single_fact(tuples, 77), &mut vars);
        for op in SetOp::ALL {
            let mut best = f64::INFINITY;
            let mut output_tuples = 0usize;
            for _ in 0..3 {
                let (ms, res) = crate::runner::time_ms(|| tp_core::ops::apply(op, &r, &s));
                output_tuples = res.len();
                std::hint::black_box(res.len());
                best = best.min(ms);
            }
            let total = (r.len() + s.len()) as f64;
            out.push(OpThroughput {
                op,
                tuples,
                ms: best,
                mtuples_per_s: total / best / 1_000.0,
                output_tuples,
            });
        }
    }
    out
}

/// Result of the arena intern-contention micro-benchmark: the identical
/// multi-threaded intern workload against a single-lock arena (the PR 1
/// design) and against the lock-striped arena.
#[derive(Debug, Clone)]
pub struct ContentionBench {
    /// Concurrent interning threads.
    pub threads: usize,
    /// And-chain nodes built per thread (3 interns per link).
    pub nodes_per_thread: usize,
    /// Lock stripes of the striped arena.
    pub shards: usize,
    /// Wall milliseconds on the single-`RwLock` arena.
    pub single_lock_ms: f64,
    /// Wall milliseconds on the striped arena.
    pub striped_ms: f64,
    /// Hardware threads of the machine the numbers were taken on (stripe
    /// wins need real parallelism; on one core the two layouts tie).
    pub hardware_threads: usize,
}

impl ContentionBench {
    /// `single_lock_ms / striped_ms`.
    pub fn speedup(&self) -> f64 {
        self.single_lock_ms / self.striped_ms.max(1e-9)
    }
}

/// Runs the intern-contention workload: each thread builds its own
/// and-chain over distinct variables (the `ops::apply_parallel` / streaming
/// worker pattern: mostly disjoint nodes) while periodically re-interning a
/// small shared variable pool (the hit path every worker shares).
pub fn arena_contention_bench(threads: usize, nodes_per_thread: usize) -> ContentionBench {
    use tp_core::arena::{LineageArena, LineageNode, MAX_SHARDS};
    use tp_core::lineage::TupleId;

    let run = |shards: usize| -> f64 {
        let arena = LineageArena::with_shards(shards);
        let (ms, _) = crate::runner::time_ms(|| {
            std::thread::scope(|scope| {
                for t in 0..threads as u64 {
                    let arena = &arena;
                    scope.spawn(move || {
                        let base = 1_000_000 + t * 10 * nodes_per_thread as u64;
                        let mut chain = arena.intern(LineageNode::Var(TupleId(base)));
                        for i in 1..nodes_per_thread as u64 {
                            let v = arena.intern(LineageNode::Var(TupleId(base + i)));
                            chain = arena.intern(LineageNode::And(chain, v));
                            // Shared hit-path probe: an already interned
                            // node every worker keeps re-requesting.
                            let _ = arena.intern(LineageNode::Var(TupleId(i % 64)));
                        }
                        std::hint::black_box(chain);
                    });
                }
            });
        });
        ms
    };
    // Warm up the allocator, then measure both layouts on identical work.
    let _ = run(MAX_SHARDS);
    ContentionBench {
        threads,
        nodes_per_thread,
        shards: MAX_SHARDS,
        single_lock_ms: run(1),
        striped_ms: run(MAX_SHARDS),
        hardware_threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Result of the streaming acceptance benchmark: the incremental engine
/// against the naive alternative that re-runs batch LAWA over the full
/// released prefix on every watermark advance.
#[derive(Debug, Clone)]
pub struct StreamingBench {
    /// Tuples per input relation.
    pub tuples: usize,
    /// Arrival events replayed.
    pub arrivals: usize,
    /// Watermark advances in the schedule.
    pub advances: u64,
    /// Wall milliseconds for the incremental engine (all three ops from
    /// one sweep per advance).
    pub incremental_ms: f64,
    /// Wall milliseconds for naive re-run-batch-per-watermark (all three
    /// ops).
    pub naive_rebatch_ms: f64,
    /// `Insert` deltas emitted across ops.
    pub inserts: u64,
    /// `Extend` deltas emitted across ops.
    pub extends: u64,
    /// Whether the streamed results are tuple-identical to batch LAWA for
    /// all three operations (checked outside the timed sections).
    pub batch_equal: bool,
}

impl StreamingBench {
    /// `naive_rebatch_ms / incremental_ms`.
    pub fn speedup(&self) -> f64 {
        self.naive_rebatch_ms / self.incremental_ms.max(1e-9)
    }
}

/// Benchmarks continuous LAWA on the single-fact synthetic workload:
/// `tuples` per relation arrive out of order (lateness 4) with a watermark
/// advance every `advance_every` arrivals. The incremental engine sweeps
/// each released prefix once; the naive baseline re-runs batch LAWA over
/// everything released so far at every advance — the "batch re-run" mode
/// of operation the streaming engine exists to replace.
pub fn streaming_bench(tuples: usize, advance_every: usize) -> StreamingBench {
    use tp_core::ops::apply;
    use tp_stream::{CountingSink, EngineConfig, ReplayConfig, StreamScript};

    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::single_fact(tuples, 91), &mut vars);
    let script = StreamScript::from_pair(
        &r,
        &s,
        &ReplayConfig {
            lateness: 4,
            advance_every,
            seed: 23,
        },
    );

    // Timed: incremental engine, counting sink (no materialization cost).
    let mut counter = CountingSink::new();
    let (incremental_ms, totals) =
        crate::runner::time_ms(|| script.run_into(EngineConfig::default(), &mut counter));

    // Timed: naive re-run per watermark.
    let (naive_rebatch_ms, naive) =
        crate::runner::time_ms(|| script.run_naive_rebatch(&SetOp::ALL));

    // Untimed: equivalence of both modes with batch.
    let (sink, _) = script.run(EngineConfig::default());
    let batch_equal = SetOp::ALL.iter().all(|&op| {
        let batch = apply(op, &r, &s).canonicalized();
        sink.relation(op).canonicalized() == batch
            && naive
                .iter()
                .find(|(o, _)| *o == op)
                .map(|(_, rel)| rel.canonicalized() == batch)
                .unwrap_or(false)
    });

    StreamingBench {
        tuples,
        arrivals: script.arrivals(),
        advances: totals.advances,
        incremental_ms,
        naive_rebatch_ms,
        inserts: totals.inserts,
        extends: totals.extends,
        batch_equal,
    }
}

/// Result of the bounded-memory streaming benchmark: a sliding-window
/// synthetic stream replayed through a **reclaiming** engine
/// ([`tp_stream::ReclaimConfig`] — private arena, one sealed segment per
/// advance, retirement below the live frontier). The gate: steady-state
/// arena residency must stay within 2× of the one-window warm-up
/// footprint, independent of how many epochs replay, while results stay
/// tuple-identical to batch LAWA.
#[derive(Debug, Clone)]
pub struct MemoryBench {
    /// Epochs generated (one watermark advance each).
    pub epochs: usize,
    /// Watermark advances actually executed.
    pub advances: u64,
    /// Tuples per input side across the whole run.
    pub tuples_per_side: usize,
    /// Peak live arena nodes over the first 8 advances (the one-window
    /// footprint, before retirement has anything to reclaim).
    pub one_window_nodes: usize,
    /// Peak live arena nodes over the second half of the run.
    pub steady_max_nodes: usize,
    /// Live arena nodes after the final advance.
    pub final_nodes: usize,
    /// Segments retired over the run.
    pub retired_segments: u64,
    /// Nodes whose storage retirement released.
    pub retired_nodes: u64,
    /// Resident arena bytes after the final advance.
    pub final_resident_bytes: usize,
    /// Whether the materialized stream output equals batch LAWA for all
    /// three operations.
    pub batch_equal: bool,
}

impl MemoryBench {
    /// `steady_max_nodes / one_window_nodes` — ≤ 2.0 means the arena
    /// plateaued (the CI gate).
    pub fn plateau_ratio(&self) -> f64 {
        self.steady_max_nodes as f64 / self.one_window_nodes.max(1) as f64
    }

    /// The acceptance predicate of the `memory-bounded-stream` CI job.
    pub fn bounded(&self) -> bool {
        self.batch_equal && self.plateau_ratio() <= 2.0
    }
}

/// Replays a sliding-window synthetic stream of `epochs` epochs through a
/// reclaiming engine, sampling live arena nodes after every advance and
/// cross-checking the materialized output against batch LAWA (untimed).
pub fn memory_bounded_bench(epochs: usize) -> MemoryBench {
    use tp_core::ops::apply;
    use tp_stream::{EngineConfig, MaterializingSink, ReclaimConfig, ReplayEvent, StreamEngine};
    use tp_workloads::{sliding_synth_stream, SlidingConfig};

    let epochs = epochs.max(16);
    let mut vars = VarTable::new();
    let w = sliding_synth_stream(
        &SlidingConfig {
            epochs,
            ..Default::default()
        },
        &mut vars,
    );
    let mut engine = StreamEngine::new(EngineConfig {
        reclaim: Some(ReclaimConfig {
            keep_epochs: 2,
            ..Default::default()
        }),
        ..Default::default()
    });
    let mut sink = MaterializingSink::new();
    let mut live_samples: Vec<usize> = Vec::new();
    for event in &w.script.events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                engine.push(*side, t.clone());
            }
            ReplayEvent::Advance(wm) => {
                engine
                    .advance(*wm, &mut sink)
                    .expect("script watermarks monotone");
                live_samples.push(engine.arena_stats().expect("reclaim engine").nodes);
            }
        }
    }
    engine.finish(&mut sink).expect("final advance");
    let stats = engine.arena_stats().expect("reclaim engine");
    let (retired_segments, retired_nodes) = engine.reclaimed();
    let (one_window_nodes, steady_max_nodes) = peak_window(&live_samples, 8);
    // Untimed equivalence check: re-intern the materialized deltas into
    // the (global) current arena once, then compare per op.
    let streamed = sink.replay();
    let batch_equal = SetOp::ALL
        .iter()
        .all(|&op| streamed.relation(op).canonicalized() == apply(op, &w.r, &w.s).canonicalized());
    MemoryBench {
        epochs,
        advances: live_samples.len() as u64,
        tuples_per_side: w.r.len(),
        one_window_nodes,
        steady_max_nodes,
        final_nodes: stats.nodes,
        retired_segments,
        retired_nodes,
        final_resident_bytes: stats.resident_bytes,
        batch_equal,
    }
}

/// `(one-window, steady-state)` peaks of a per-advance memory sample
/// series: the max over the first `warmup` samples versus the max over
/// the second half — the plateau computation shared by the bounded-memory
/// and multi-tenant benches (mirrored for tests in
/// `tests/common/oracle.rs::assert_plateau`).
fn peak_window(samples: &[usize], warmup: usize) -> (usize, usize) {
    if samples.is_empty() {
        return (0, 0);
    }
    let warmup = warmup.clamp(1, samples.len());
    (
        samples[..warmup].iter().copied().max().unwrap_or(0),
        samples[samples.len() / 2..]
            .iter()
            .copied()
            .max()
            .unwrap_or(0),
    )
}

/// Per-tenant summary of the multi-tenant soak benchmark.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Watermark waves the tenant participated in.
    pub advances: u64,
    /// Rows pushed (vars registered) for the tenant.
    pub pushed: u64,
    /// Peak live arena nodes over the first 8 waves.
    pub one_window_nodes: usize,
    /// Peak live arena nodes over the second half of the run.
    pub steady_nodes: usize,
    /// Peak live `VarTable` entries over the first 8 waves.
    pub one_window_vars: usize,
    /// Peak live `VarTable` entries over the second half of the run.
    pub steady_vars: usize,
    /// Arena segments the tenant's engine retired.
    pub retired_segments: u64,
    /// Variables released from the tenant's sliding registry.
    pub released_vars: u64,
    /// Whether the tenant's stream result equals batch LAWA for all ops.
    pub batch_equal: bool,
}

impl TenantSummary {
    /// Steady-state over one-window ratio of live arena nodes (gate ≤ 2).
    pub fn node_plateau_ratio(&self) -> f64 {
        self.steady_nodes as f64 / self.one_window_nodes.max(1) as f64
    }

    /// Steady-state over one-window ratio of live vars (gate ≤ 2).
    pub fn var_plateau_ratio(&self) -> f64 {
        self.steady_vars as f64 / self.one_window_vars.max(1) as f64
    }
}

/// Result of the multi-tenant soak benchmark: N tenants with private
/// arenas and sliding var registries behind one `StreamServer`, advanced
/// in collective watermark waves sharded over a worker pool. The gates:
/// per-tenant steady state ≤ 2× one-window on **both** memory axes (arena
/// nodes and live `VarTable` entries), and stream ≡ batch per tenant.
#[derive(Debug, Clone)]
pub struct MultiTenantBench {
    /// Per-tenant plateau and equivalence summaries.
    pub tenants: Vec<TenantSummary>,
    /// Worker threads the advance waves were sharded over.
    pub workers: usize,
    /// Epochs generated per tenant.
    pub epochs: usize,
    /// Wall milliseconds for the whole replay — pushes, advance waves,
    /// and the per-wave memory-gauge sampling (two lock reads per tenant
    /// per wave; negligible next to the sweeps, but included).
    pub wall_ms: f64,
    /// Rows pushed across all tenants.
    pub total_rows: u64,
}

impl MultiTenantBench {
    /// Aggregate ingest-to-result throughput in thousand rows per second.
    pub fn krows_per_s(&self) -> f64 {
        self.total_rows as f64 / self.wall_ms.max(1e-9)
    }

    /// Worst per-tenant arena plateau ratio.
    pub fn worst_node_ratio(&self) -> f64 {
        self.tenants
            .iter()
            .map(TenantSummary::node_plateau_ratio)
            .fold(0.0, f64::max)
    }

    /// Worst per-tenant live-var plateau ratio — the `var_table_bounded`
    /// gate.
    pub fn worst_var_ratio(&self) -> f64 {
        self.tenants
            .iter()
            .map(TenantSummary::var_plateau_ratio)
            .fold(0.0, f64::max)
    }

    /// Whether every tenant's stream equals batch.
    pub fn batch_equal(&self) -> bool {
        self.tenants.iter().all(|t| t.batch_equal)
    }

    /// Smallest per-tenant advance count (the ≥ 50 soak gate).
    pub fn min_advances(&self) -> u64 {
        self.tenants.iter().map(|t| t.advances).min().unwrap_or(0)
    }

    /// The acceptance predicate of the `multi-tenant-soak` CI job.
    pub fn bounded(&self) -> bool {
        self.batch_equal() && self.worst_node_ratio() <= 2.0 && self.worst_var_ratio() <= 2.0
    }
}

/// Replays `tenants` independent sliding-window streams of `epochs` epochs
/// through one [`tp_stream::StreamServer`] (advance waves sharded over
/// `workers` threads), sampling per-tenant live arena nodes and live vars
/// after every wave, then cross-checks each tenant against batch LAWA
/// (untimed).
pub fn multi_tenant_bench(tenants: usize, epochs: usize, workers: usize) -> MultiTenantBench {
    use tp_core::ops::apply;
    use tp_stream::{MaterializingSink, ServerConfig, StreamServer, TenantId};
    use tp_workloads::{multi_tenant_stream, replay_waves, MultiTenantConfig};

    let tenants = tenants.max(2);
    let epochs = epochs.max(16);
    let scripts = multi_tenant_stream(&MultiTenantConfig {
        tenants,
        epochs,
        ..Default::default()
    });
    let mut server: StreamServer<MaterializingSink> = StreamServer::new(ServerConfig {
        workers: workers.max(1),
        ..Default::default()
    });
    let ids: Vec<TenantId> = scripts
        .iter()
        .map(|s| server.add_tenant(s.name.clone(), MaterializingSink::new()))
        .collect();
    let mut node_samples = vec![Vec::new(); tenants];
    let mut var_samples = vec![Vec::new(); tenants];
    let (wall_ms, advances) = crate::runner::time_ms(|| {
        replay_waves(&scripts, &mut server, &ids, |server| {
            for (k, &id) in ids.iter().enumerate() {
                node_samples[k].push(server.arena_stats(id).nodes);
                var_samples[k].push(server.vars(id).live_vars());
            }
        })
    });
    for result in server.finish_all() {
        result.expect("finish never regresses");
    }

    // Untimed: per-tenant batch oracle over the same rows.
    let mut summaries = Vec::with_capacity(tenants);
    let mut total_rows = 0u64;
    for (k, script) in scripts.iter().enumerate() {
        let id = ids[k];
        let mut control_vars = tp_core::relation::VarTable::new();
        let (r, s) = script.relations(&mut control_vars);
        let streamed = server.sink(id).replay();
        let batch_equal = SetOp::ALL
            .iter()
            .all(|&op| streamed.relation(op).canonicalized() == apply(op, &r, &s).canonicalized());
        let (one_window_nodes, steady_nodes) = peak_window(&node_samples[k], 8);
        let (one_window_vars, steady_vars) = peak_window(&var_samples[k], 8);
        total_rows += server.pushed(id);
        summaries.push(TenantSummary {
            name: script.name.clone(),
            advances,
            pushed: server.pushed(id),
            one_window_nodes,
            steady_nodes,
            one_window_vars,
            steady_vars,
            retired_segments: server.engine(id).reclaimed().0,
            released_vars: server.engine(id).reclaimed_vars(),
            batch_equal,
        });
    }
    MultiTenantBench {
        tenants: summaries,
        workers: workers.max(1),
        epochs,
        wall_ms,
        total_rows,
    }
}

/// Result of the `bench_observability` experiment: the cost and
/// correctness of the always-on observability layer. The same replay runs
/// fully instrumented (metrics + stage spans, the default) and with every
/// instrumentation layer force-disabled; the gates are
///
/// * **byte-identity** — both runs produce the *identical* delta log
///   (instrumentation must never touch engine logic),
/// * **overhead** — instrumented wall within 1.10× of the baseline
///   (min-of-rounds each, alternating),
/// * **schema** — the Prometheus text and JSON snapshots and the
///   chrome://tracing export are well-formed and carry the expected
///   metric families,
/// * **coverage** — stage spans tile ≥ 95 % of every advance span (1.0 by
///   construction of the stage cursor).
#[derive(Debug, Clone)]
pub struct ObservabilityBench {
    /// Tuples per input relation.
    pub tuples: usize,
    /// Watermark advances in the schedule.
    pub advances: u64,
    /// Timing rounds per variant (min taken).
    pub rounds: usize,
    /// Wall milliseconds of the instrumented replay (min of rounds).
    pub instrumented_ms: f64,
    /// Wall milliseconds of the uninstrumented replay (min of rounds).
    pub baseline_ms: f64,
    /// Whether both variants produced byte-identical delta logs.
    pub logs_identical: bool,
    /// Whether the Prometheus text snapshot carries the expected families.
    pub prometheus_ok: bool,
    /// Whether the JSON snapshot parses as well-formed JSON.
    pub json_ok: bool,
    /// Whether the chrome://tracing export parses and is non-empty.
    pub trace_ok: bool,
    /// Σ stage-span durations / Σ advance-span durations.
    pub stage_coverage: f64,
}

impl ObservabilityBench {
    /// Instrumented-over-baseline wall ratio (the CI gate is ≤ 1.10).
    pub fn overhead_ratio(&self) -> f64 {
        self.instrumented_ms / self.baseline_ms.max(1e-9)
    }

    /// All correctness gates except the overhead ratio (which the smoke
    /// gate checks against its own threshold).
    pub fn correct(&self) -> bool {
        self.logs_identical
            && self.prometheus_ok
            && self.json_ok
            && self.trace_ok
            && self.stage_coverage >= 0.95
    }
}

/// Runs the replay once and returns `(wall_ms, delta log)`. The engine
/// runs in reclaim mode, so the arena seal/retire gauges are under
/// measurement too.
fn observability_run(
    script: &tp_stream::StreamScript,
    obs: tp_stream::ObsConfig,
) -> (f64, tp_stream::MaterializingSink) {
    use tp_stream::{EngineConfig, MaterializingSink, ReclaimConfig};

    let mut sink = MaterializingSink::new();
    let cfg = EngineConfig {
        reclaim: Some(ReclaimConfig::default()),
        obs,
        ..Default::default()
    };
    let (ms, _) = crate::runner::time_ms(|| script.run_into(cfg.clone(), &mut sink));
    (ms, sink)
}

/// Benchmarks the observability layer on the single-fact synthetic
/// workload: `tuples` per relation, a watermark advance every
/// `advance_every` arrivals, `rounds` alternating timing rounds per
/// variant. See [`ObservabilityBench`] for the gates.
pub fn observability_bench(
    tuples: usize,
    advance_every: usize,
    rounds: usize,
) -> ObservabilityBench {
    use tp_stream::{ObsConfig, ReplayConfig, StreamScript};

    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::single_fact(tuples, 91), &mut vars);
    let script = StreamScript::from_pair(
        &r,
        &s,
        &ReplayConfig {
            lateness: 4,
            advance_every,
            seed: 23,
        },
    );

    // Readings land in a private registry so the bench measures this run
    // only; the span context is filtered by the unique tenant label below.
    let registry = std::sync::Arc::new(tp_obs::MetricsRegistry::new());
    let ctx_label = "bench-observability";
    let instrumented_cfg = || ObsConfig {
        enabled: true,
        tenant: Some(ctx_label.to_string()),
        registry: Some(std::sync::Arc::clone(&registry)),
    };
    let baseline_cfg = || ObsConfig {
        enabled: false,
        ..Default::default()
    };

    // Warm-up (discarded) + differential pass: both variants must produce
    // byte-identical delta logs.
    let (_, log_on) = observability_run(&script, instrumented_cfg());
    tp_stream::set_obs_enabled(false);
    let (_, log_off) = observability_run(&script, baseline_cfg());
    tp_stream::set_obs_enabled(true);
    let logs_identical = log_on.deltas == log_off.deltas;

    // Alternating timed rounds, min per variant (steady-state cost; the
    // min is robust against scheduler noise on shared runners).
    let (mut instrumented_ms, mut baseline_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds.max(1) {
        tp_obs::clear_trace();
        let (on_ms, _) = observability_run(&script, instrumented_cfg());
        instrumented_ms = instrumented_ms.min(on_ms);
        tp_stream::set_obs_enabled(false);
        let (off_ms, _) = observability_run(&script, baseline_cfg());
        tp_stream::set_obs_enabled(true);
        baseline_ms = baseline_ms.min(off_ms);
    }

    // Export gates, read off the final instrumented round (its spans are
    // the only ones recorded since the last clear).
    let text = registry.prometheus_text();
    let prometheus_ok = [
        "tp_advances_total",
        "tp_advance_ns",
        "tp_stage_ns",
        "tp_windows_total",
    ]
    .iter()
    .all(|name| text.contains(name));
    let json_ok = tp_obs::json::validate(&registry.json()).is_ok();
    let ctx = tp_obs::ctx_id(ctx_label);
    let spans: Vec<_> = tp_obs::snapshot_spans()
        .into_iter()
        .filter(|e| e.ctx == ctx)
        .collect();
    let trace_ok =
        !spans.is_empty() && tp_obs::json::validate(&tp_obs::chrome_trace_json(&spans)).is_ok();
    let stage_sum: u64 = spans
        .iter()
        .filter(|e| e.cat == "stage")
        .map(|e| e.dur_ns)
        .sum();
    let advance_sum: u64 = spans
        .iter()
        .filter(|e| e.cat == "advance")
        .map(|e| e.dur_ns)
        .sum();
    let stage_coverage = stage_sum as f64 / advance_sum.max(1) as f64;

    let advances = script
        .events
        .iter()
        .filter(|e| matches!(e, tp_stream::ReplayEvent::Advance(_)))
        .count() as u64;
    ObservabilityBench {
        tuples,
        advances,
        rounds: rounds.max(1),
        instrumented_ms,
        baseline_ms,
        logs_identical,
        prometheus_ok,
        json_ok,
        trace_ok,
        stage_coverage,
    }
}

/// Result of the `bench_raw_speed` experiment: the two raw-speed claims
/// in one artifact — the columnar marginal kernel vs the per-root memoized
/// walk (both cold), and the resident-bytes curve of interior-segment
/// reclamation vs the prefix-ordered baseline under an immortal-facts
/// workload.
#[derive(Debug, Clone)]
pub struct RawSpeedBench {
    /// Tuples per base relation of the valuation workload.
    pub tuples: usize,
    /// Chained `∪Tp` levels of the valuation workload.
    pub levels: usize,
    /// Cold valuation passes timed per path.
    pub rounds: usize,
    /// Output tuples valuated per pass.
    pub output_tuples: usize,
    /// Milliseconds for `rounds` cold passes of per-root
    /// [`tp_core::prob::marginal`] (cache cleared before every pass).
    pub memoized_cold_ms: f64,
    /// Milliseconds for `rounds` cold passes of the columnar
    /// [`tp_core::prob::marginal_batch`] (cache cleared before every pass).
    pub columnar_ms: f64,
    /// Largest |per-root delta| between the two paths (must be ≤ 1e-12;
    /// the kernel is bit-identical where the scalar path is exact).
    pub max_delta: f64,
    /// Epochs of the immortal-facts residency replay.
    pub immortal_epochs: usize,
    /// Advances of the immortal-facts replay.
    pub immortal_advances: u64,
    /// Interior (non-prefix) segment retires the interior-mode run made.
    pub interior_retired_segments: u64,
    /// Steady-state peak resident arena bytes with interior reclamation.
    pub interior_steady_bytes: usize,
    /// Steady-state peak resident arena bytes with the prefix-ordered
    /// baseline (`ReclaimConfig { interior: false }`).
    pub prefix_steady_bytes: usize,
    /// Steady-state peak `live_vars` of the attached registry with
    /// interior reclamation (cohort-granular release).
    pub interior_steady_live_vars: usize,
    /// Steady-state peak `live_vars` with the prefix-ordered baseline.
    pub prefix_steady_live_vars: usize,
    /// Whether BOTH immortal replays (interior and prefix) matched batch
    /// LAWA for all ops.
    pub immortal_batch_equal: bool,
}

impl RawSpeedBench {
    /// `memoized_cold_ms / columnar_ms` (> 1 means the columnar kernel
    /// wins; informational — wall ratios are hardware-dependent).
    pub fn valuation_speedup(&self) -> f64 {
        self.memoized_cold_ms / self.columnar_ms.max(1e-9)
    }

    /// `interior_steady_bytes / prefix_steady_bytes` — must stay < 1.0:
    /// under immortal facts the prefix baseline cannot retire anything
    /// behind the pinned segment, interior reclamation can.
    pub fn residency_ratio(&self) -> f64 {
        self.interior_steady_bytes as f64 / self.prefix_steady_bytes.max(1) as f64
    }

    /// `interior_steady_live_vars / prefix_steady_live_vars` — must stay
    /// < 1.0: cohort-granular release drops the registry slice of every
    /// interior-retired segment while the prefix baseline holds them all
    /// behind the pinned cohort.
    pub fn live_vars_ratio(&self) -> f64 {
        self.interior_steady_live_vars as f64 / self.prefix_steady_live_vars.max(1) as f64
    }

    /// The acceptance predicate of the `raw-speed-smoke` CI job (wall
    /// speedups are informational and not part of it).
    pub fn pass(&self) -> bool {
        self.max_delta <= 1e-12
            && self.immortal_batch_equal
            && self.interior_retired_segments > 0
            && self.interior_steady_bytes < self.prefix_steady_bytes
            && self.interior_steady_live_vars < self.prefix_steady_live_vars
    }
}

/// Replays the immortal-facts stream through a reclaiming engine in one
/// retirement mode with an **attached sliding var registry**, sampling
/// resident arena bytes and registry `live_vars` after every advance.
/// The registry mirrors a real deployment's push-time registration
/// cadence — one variable per arriving tuple — so var cohorts seal with
/// the same boundaries as the arena segments they are bound to, and the
/// cohort-release schedule under test matches production shape.
/// Returns `(resident bytes, live vars, interior retires, batch_equal)`.
fn immortal_residency(
    w: &tp_workloads::StreamWorkload,
    interior: bool,
) -> (Vec<usize>, Vec<usize>, u64, bool) {
    use std::sync::Arc;
    use tp_core::ops::apply;
    use tp_stream::{EngineConfig, MaterializingSink, ReclaimConfig, ReplayEvent, StreamEngine};

    let vars = Arc::new(VarTable::new());
    let mut engine = StreamEngine::new(EngineConfig {
        reclaim: Some(ReclaimConfig {
            keep_epochs: 2,
            interior,
            vars: Some(Arc::clone(&vars)),
            ..Default::default()
        }),
        ..Default::default()
    });
    let mut sink = MaterializingSink::new();
    let mut resident: Vec<usize> = Vec::new();
    let mut live_vars: Vec<usize> = Vec::new();
    let mut interior_retired = 0u64;
    let mut registered = 0u64;
    for event in &w.script.events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                vars.register_shared(format!("m{registered}"), 0.5)
                    .expect("bench registry accepts registration");
                registered += 1;
                engine.push(*side, t.clone());
            }
            ReplayEvent::Advance(wm) => {
                let stats = engine
                    .advance(*wm, &mut sink)
                    .expect("script watermarks monotone");
                interior_retired += stats.interior_retired_segments;
                resident.push(engine.arena_stats().expect("reclaim engine").resident_bytes);
                live_vars.push(vars.live_vars());
            }
        }
    }
    let fin = engine.finish(&mut sink).expect("final advance");
    interior_retired += fin.interior_retired_segments;
    let streamed = sink.replay();
    let batch_equal = SetOp::ALL
        .iter()
        .all(|&op| streamed.relation(op).canonicalized() == apply(op, &w.r, &w.s).canonicalized());
    (resident, live_vars, interior_retired, batch_equal)
}

/// Runs the raw-speed pass benchmark: columnar marginal kernel vs the
/// per-root memoized walk (both cold, `rounds` passes each), and the
/// interior-vs-prefix resident-bytes comparison under the immortal-facts
/// workload (`epochs.max(48)` epochs).
pub fn raw_speed_bench(
    tuples: usize,
    levels: usize,
    rounds: usize,
    epochs: usize,
) -> RawSpeedBench {
    use tp_workloads::{immortal_facts_stream, ImmortalConfig};

    let rounds = rounds.max(1);
    // Columnar kernel vs per-root memoized walk, both cold: the kernel's
    // claim is first-pass (post-advance / post-retire) valuation speed, so
    // the memo cache is cleared before every timed pass on both paths. The
    // comparison runs in a **shared** arena deliberately salted with
    // unrelated resident lineage on both sides of the workload — the
    // kernel's walk is pruned to the roots' reachable cones, so bystander
    // nodes in the same segment range must cost it nothing. (The PR 8
    // version hid the dense-walk sensitivity in a private arena.)
    let (memoized_cold_ms, columnar_ms, max_delta, output_tuples) = {
        let arena = tp_core::arena::LineageArena::shared(4);
        let _scope = tp_core::arena::LineageArena::enter(&arena);
        let clutter = |tag: u64, n: usize| {
            use tp_core::arena::LineageNode;
            use tp_core::lineage::TupleId;
            let base = 50_000_000 + tag * 10_000_000;
            let mut chain = arena.intern(LineageNode::Var(TupleId(base)));
            for i in 1..n.max(2) as u64 {
                let v = arena.intern(LineageNode::Var(TupleId(base + i)));
                chain = arena.intern(LineageNode::Or(chain, v));
            }
            chain
        };
        // Another query's resident 1OF lineage, interned before the
        // workload so it sits squarely inside the roots' segment range.
        let _bystander_lo = clutter(0, tuples * levels.max(2));
        let (acc, vars) = shared_subformula_workload(tuples, levels);
        let _bystander_hi = clutter(1, tuples * levels.max(2));
        let lineages: Vec<_> = acc.iter().map(|t| t.lineage).collect();
        let (memoized_cold_ms, scalar) = crate::runner::time_ms(|| {
            let mut out = Vec::new();
            for _ in 0..rounds {
                vars.clear_valuation_cache();
                out = lineages
                    .iter()
                    .map(|l| tp_core::prob::marginal(l, &vars).expect("vars registered"))
                    .collect();
            }
            out
        });
        let (columnar_ms, columnar) = crate::runner::time_ms(|| {
            let mut out = Vec::new();
            for _ in 0..rounds {
                vars.clear_valuation_cache();
                out = tp_core::prob::marginal_batch(&lineages, &vars).expect("vars registered");
            }
            out
        });
        let max_delta = scalar
            .iter()
            .zip(&columnar)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        (memoized_cold_ms, columnar_ms, max_delta, acc.len())
    };

    // Residency: the immortal-facts stream pins segment 0 for the whole
    // run, so the prefix baseline cannot retire anything mid-run while
    // interior reclamation punches holes behind the pin.
    let mut ivars = VarTable::new();
    let immortal = immortal_facts_stream(
        &ImmortalConfig {
            epochs: epochs.max(48),
            ..Default::default()
        },
        &mut ivars,
    );
    let (interior_resident, interior_live, interior_retired_segments, i_equal) =
        immortal_residency(&immortal, true);
    let (prefix_resident, prefix_live, _, p_equal) = immortal_residency(&immortal, false);
    let (_, interior_steady_bytes) = peak_window(&interior_resident, 8);
    let (_, prefix_steady_bytes) = peak_window(&prefix_resident, 8);
    let (_, interior_steady_live_vars) = peak_window(&interior_live, 8);
    let (_, prefix_steady_live_vars) = peak_window(&prefix_live, 8);

    RawSpeedBench {
        tuples,
        levels,
        rounds,
        output_tuples,
        memoized_cold_ms,
        columnar_ms,
        max_delta,
        immortal_epochs: epochs.max(48),
        immortal_advances: interior_resident.len() as u64,
        interior_retired_segments,
        interior_steady_bytes,
        prefix_steady_bytes,
        interior_steady_live_vars,
        prefix_steady_live_vars,
        immortal_batch_equal: i_equal && p_equal,
    }
}

/// Result of the `bench_pipeline` experiment: a compiled relational plan
/// — the join + grouped-aggregate alert-rule shape — running as a
/// **standing incremental pipeline** ([`tp_stream::Pipeline`]) over the
/// delta streams of two replayed relations, against the naive twin that
/// re-executes the batch plan over the re-encoded closed region at every
/// watermark; plus the reclaim-mode operator-state plateau under an
/// extend-dominated immortal-facts stream.
#[derive(Debug, Clone)]
pub struct PipelineBench {
    /// Tuples per side of the replayed synth stream.
    pub tuples: usize,
    /// Distinct join keys (facts) the tuples spread over. Spread matters:
    /// IVM join/aggregate maintenance is O(per-key state) per delta, so
    /// the keys/tuples ratio fixes the standing-view cost model.
    pub facts: usize,
    /// Watermark advances of the replayed run (including the final flush).
    pub advances: u64,
    /// Operator deltas the standing pipeline processed over the run.
    pub pipeline_deltas: u64,
    /// Rows of the materialized view after the final advance.
    pub output_rows: usize,
    /// Wall milliseconds of the incremental run — pushes, advances and
    /// final flush with the pipeline attached and maintained per delta.
    pub incremental_ms: f64,
    /// Wall milliseconds of the naive twin: the same replay through a
    /// plain engine, with the batch plan re-executed over the re-encoded
    /// closed region at every advance (the mode of operation a standing
    /// pipeline replaces).
    pub naive_rebatch_ms: f64,
    /// Whether the standing view at finish equals the batch plan over the
    /// fully closed region.
    pub batch_equal: bool,
    /// Epochs of the immortal-facts plateau replay.
    pub plateau_epochs: usize,
    /// Segments the reclaiming engine retired underneath the pipeline.
    pub retired_segments: u64,
    /// Peak pipeline state rows over the warm-up window.
    pub warmup_state_rows: usize,
    /// Peak pipeline state rows over the second half of the run.
    pub steady_state_rows: usize,
    /// Whether the reclaim-mode standing view still equals batch at
    /// finish (owned operator state must survive retirement).
    pub plateau_batch_equal: bool,
}

impl PipelineBench {
    /// `naive_rebatch_ms / incremental_ms` (informational — wall ratios
    /// are hardware-dependent; the equality and plateau gates are the
    /// contract).
    pub fn speedup(&self) -> f64 {
        self.naive_rebatch_ms / self.incremental_ms.max(1e-9)
    }

    /// `steady_state_rows / warmup_state_rows` — must stay ≤ 1.0: under
    /// an extend-dominated stream the pipeline only retracts-and-regrows
    /// standing rows, so its state must not outgrow the warm-up peak.
    pub fn plateau_ratio(&self) -> f64 {
        self.steady_state_rows as f64 / self.warmup_state_rows.max(1) as f64
    }

    /// The acceptance predicate of the `streaming-plans-smoke` CI job
    /// (the wall speedup is informational and not part of it).
    pub fn pass(&self) -> bool {
        self.batch_equal
            && self.plateau_batch_equal
            && self.retired_segments > 0
            && self.steady_state_rows <= self.warmup_state_rows
    }
}

/// Runs the standing-pipeline benchmark. The plan is the alert-rule
/// shape both streaming examples deploy — two sources joined on the fact
/// key, then grouped per key with count/max aggregates — compiled onto
/// the engine's `∪Tp`/`∩Tp` delta streams. Two parts: (1) `tuples` per
/// side replayed out of order with an advance every `advance_every`
/// arrivals, timed against the naive re-execute-batch-per-watermark
/// twin and cross-checked for row identity; (2) an immortal-facts stream
/// advanced `epochs` times through a reclaiming engine, sampling the
/// pipeline's state rows per advance for the plateau gate.
pub fn pipeline_bench(
    tuples: usize,
    facts: usize,
    advance_every: usize,
    epochs: usize,
) -> PipelineBench {
    use tp_core::fact::Fact;
    use tp_core::interval::Interval;
    use tp_core::lineage::{Lineage, TupleId};
    use tp_core::tuple::TpTuple;
    use tp_relalg::{bind_sources, AggFn, Plan, Relation, Row, Schema};
    use tp_stream::{
        encode_relation, CollectingSink, EngineConfig, ReclaimConfig, ReplayConfig, ReplayEvent,
        Side, StreamEngine, StreamScript,
    };

    // Synth facts are single-value, so an encoded source row is [k, ts, te].
    let schema = Schema::new(["k", "ts", "te"]);
    let leaf = || Plan::values(Relation::empty(Schema::new(["k", "ts", "te"])));
    let plan = leaf()
        .hash_join(leaf(), vec![0], vec![0])
        .aggregate(vec![0], vec![AggFn::Count, AggFn::Max(2)]);
    let taps = [SetOp::Union, SetOp::Intersect];
    let batch_rows = |sink: &CollectingSink| -> Vec<Row> {
        let tables: Vec<Relation> = taps
            .iter()
            .map(|&op| encode_relation(&sink.relation(op), &schema))
            .collect();
        let mut rows = bind_sources(&plan, &tables).execute().rows;
        rows.sort();
        rows
    };

    let mut vars = VarTable::new();
    let (r, s) =
        tp_workloads::synth::generate(&SynthConfig::with_facts(tuples, facts, 907), &mut vars);
    let script = StreamScript::from_pair(
        &r,
        &s,
        &ReplayConfig {
            lateness: 6,
            advance_every: advance_every.max(1),
            seed: 29,
        },
    );

    // Timed: the standing pipeline, maintained delta-by-delta.
    let mut engine = StreamEngine::with_plan(EngineConfig::default(), &plan, &taps)
        .expect("alert plan compiles");
    let mut sink = CollectingSink::new();
    let mut advances = 0u64;
    let mut pipeline_deltas = 0u64;
    let (incremental_ms, ()) = crate::runner::time_ms(|| {
        for event in &script.events {
            match event {
                ReplayEvent::Arrive(side, t) => {
                    engine.push(*side, t.clone());
                }
                ReplayEvent::Advance(wm) => {
                    let stats = engine.advance(*wm, &mut sink).expect("script monotone");
                    pipeline_deltas += stats.pipeline_deltas;
                    advances += 1;
                }
            }
        }
        pipeline_deltas += engine
            .finish(&mut sink)
            .expect("final advance")
            .pipeline_deltas;
        advances += 1;
    });
    let streamed = engine
        .pipeline()
        .expect("plan attached")
        .materialized()
        .rows;

    // Timed: the naive twin — plain engine, batch plan re-executed over
    // the full closed region at every advance.
    let mut naive_engine = StreamEngine::new(EngineConfig::default());
    let mut naive_sink = CollectingSink::new();
    let (naive_rebatch_ms, naive_rows) = crate::runner::time_ms(|| {
        for event in &script.events {
            match event {
                ReplayEvent::Arrive(side, t) => {
                    naive_engine.push(*side, t.clone());
                }
                ReplayEvent::Advance(wm) => {
                    naive_engine
                        .advance(*wm, &mut naive_sink)
                        .expect("script monotone");
                    // The re-planned view is recomputed and dropped — the
                    // recomputation IS the cost under measurement.
                    let _ = batch_rows(&naive_sink);
                }
            }
        }
        naive_engine.finish(&mut naive_sink).expect("final advance");
        batch_rows(&naive_sink)
    });
    let batch_equal = streamed == naive_rows;

    // Reclaim-mode plateau: immortal facts cut by the watermark — after
    // warm-up every advance re-emits each fact's output as an Extend, so
    // the pipeline only retracts-and-regrows standing rows while interior
    // reclamation retires engine history underneath its owned state.
    let epochs = epochs.max(24);
    let plateau_facts = facts.clamp(2, 8);
    let mut p_engine = StreamEngine::with_plan(
        EngineConfig {
            reclaim: Some(ReclaimConfig {
                keep_epochs: 2,
                ..Default::default()
            }),
            ..Default::default()
        },
        &plan,
        &taps,
    )
    .expect("alert plan compiles");
    let mut p_sink = CollectingSink::new();
    for f in 0..plateau_facts as i64 {
        for (side, off) in [(Side::Left, 0u64), (Side::Right, 1)] {
            p_engine.push(
                side,
                TpTuple::new(
                    Fact::single(f),
                    Lineage::var(TupleId(f as u64 * 2 + off)),
                    Interval::at(0, epochs as i64 * 10),
                ),
            );
        }
    }
    let mut state_samples = Vec::new();
    for epoch in 0..epochs as i64 {
        p_engine
            .advance((epoch + 1) * 10, &mut p_sink)
            .expect("monotone");
        state_samples.push(p_engine.pipeline().expect("plan attached").state_rows());
    }
    p_engine.finish(&mut p_sink).expect("final advance");
    let (retired_segments, _) = p_engine.reclaimed();
    let (warmup_state_rows, steady_state_rows) = peak_window(&state_samples, 4);
    let plateau_batch_equal = p_engine
        .pipeline()
        .expect("plan attached")
        .materialized()
        .rows
        == batch_rows(&p_sink);

    PipelineBench {
        tuples,
        facts,
        advances,
        pipeline_deltas,
        output_rows: streamed.len(),
        incremental_ms,
        naive_rebatch_ms,
        batch_equal,
        plateau_epochs: epochs,
        retired_segments,
        warmup_state_rows,
        steady_state_rows,
        plateau_batch_equal,
    }
}

/// The combined `BENCH_lawa.json` artifact: the memoized-valuation
/// acceptance benchmark (top-level fields, unchanged schema) plus the
/// per-operation throughput series, the arena-contention micro-benchmark
/// and the streaming acceptance benchmark.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Memoized valuation vs the legacy tree walker.
    pub valuation: LawaValuationBench,
    /// LAWA operation throughput per op and input size.
    pub ops: Vec<OpThroughput>,
    /// Single-lock vs striped intern table.
    pub contention: ContentionBench,
    /// Incremental engine vs naive re-run per watermark.
    pub streaming: StreamingBench,
    /// Reclaiming engine steady-state residency (bounded-memory gate).
    pub memory: MemoryBench,
    /// Multi-tenant server soak: per-tenant arena + var-table plateaus.
    pub tenants: MultiTenantBench,
    /// Observability layer: instrumented-vs-uninstrumented cost + gates.
    pub observability: ObservabilityBench,
    /// Raw-speed pass: columnar kernel, interior reclamation.
    pub raw_speed: RawSpeedBench,
    /// Standing incremental pipelines: compiled plan vs naive re-batch.
    pub pipeline: PipelineBench,
}

impl BenchReport {
    /// Renders the whole report as JSON (hand-rolled; the workspace has no
    /// serde_json). The valuation fields stay top-level so existing
    /// consumers of `BENCH_lawa.json` keep working.
    pub fn to_json(&self) -> String {
        let mut out = self.valuation.to_json();
        // Splice the new sections before the closing brace.
        let tail = out.rfind('}').expect("valuation JSON is an object");
        out.truncate(tail);
        while out.ends_with('\n') {
            out.pop();
        }
        let mut extra = String::new();
        let _ = write!(extra, ",\n  \"lawa_ops\": [");
        for (i, t) in self.ops.iter().enumerate() {
            let _ = write!(
                extra,
                "{}\n    {{\"op\": \"{}\", \"tuples\": {}, \"ms\": {:.3}, \"mtuples_per_s\": {:.3}, \"output_tuples\": {}}}",
                if i > 0 { "," } else { "" },
                t.op.name(),
                t.tuples,
                t.ms,
                t.mtuples_per_s,
                t.output_tuples,
            );
        }
        let _ = write!(
            extra,
            concat!(
                "\n  ],\n",
                "  \"arena_contention\": {{\n",
                "    \"threads\": {},\n",
                "    \"nodes_per_thread\": {},\n",
                "    \"shards\": {},\n",
                "    \"single_lock_ms\": {:.3},\n",
                "    \"striped_ms\": {:.3},\n",
                "    \"speedup\": {:.2},\n",
                "    \"hardware_threads\": {},\n",
                "    \"note\": \"before = single dedup stripe; after = hash-by-node dedup stripes; node storage appends are lock-free in both (segmented arena); stripes need hardware parallelism to win\"\n",
                "  }},\n",
                "  \"streaming\": {{\n",
                "    \"tuples\": {},\n",
                "    \"arrivals\": {},\n",
                "    \"advances\": {},\n",
                "    \"incremental_ms\": {:.3},\n",
                "    \"naive_rebatch_ms\": {:.3},\n",
                "    \"speedup\": {:.2},\n",
                "    \"inserts\": {},\n",
                "    \"extends\": {},\n",
                "    \"batch_equal\": {}\n",
                "  }},\n",
                "  \"memory_bounded\": {{\n",
                "    \"epochs\": {},\n",
                "    \"advances\": {},\n",
                "    \"tuples_per_side\": {},\n",
                "    \"one_window_nodes\": {},\n",
                "    \"steady_max_nodes\": {},\n",
                "    \"final_nodes\": {},\n",
                "    \"retired_segments\": {},\n",
                "    \"retired_nodes\": {},\n",
                "    \"final_resident_bytes\": {},\n",
                "    \"plateau_ratio\": {:.3},\n",
                "    \"batch_equal\": {},\n",
                "    \"note\": \"reclaiming engine: steady-state live nodes must stay <= 2x the one-window footprint\"\n",
                "  }},\n",
                "  \"multi_tenant\": {{\n",
                "    \"tenants\": {},\n",
                "    \"workers\": {},\n",
                "    \"epochs\": {},\n",
                "    \"advances\": {},\n",
                "    \"total_rows\": {},\n",
                "    \"wall_ms\": {:.3},\n",
                "    \"krows_per_s\": {:.3},\n",
                "    \"worst_arena_plateau_ratio\": {:.3},\n",
                "    \"var_table_plateau_ratio\": {:.3},\n",
                "    \"var_table_bounded\": {},\n",
                "    \"batch_equal\": {},\n",
                "    \"note\": \"per-tenant private arenas + sliding var registries: steady state must stay <= 2x one-window on both axes, for every tenant\"\n",
                "  }}\n",
                "}}\n",
            ),
            self.contention.threads,
            self.contention.nodes_per_thread,
            self.contention.shards,
            self.contention.single_lock_ms,
            self.contention.striped_ms,
            self.contention.speedup(),
            self.contention.hardware_threads,
            self.streaming.tuples,
            self.streaming.arrivals,
            self.streaming.advances,
            self.streaming.incremental_ms,
            self.streaming.naive_rebatch_ms,
            self.streaming.speedup(),
            self.streaming.inserts,
            self.streaming.extends,
            self.streaming.batch_equal,
            self.memory.epochs,
            self.memory.advances,
            self.memory.tuples_per_side,
            self.memory.one_window_nodes,
            self.memory.steady_max_nodes,
            self.memory.final_nodes,
            self.memory.retired_segments,
            self.memory.retired_nodes,
            self.memory.final_resident_bytes,
            self.memory.plateau_ratio(),
            self.memory.batch_equal,
            self.tenants.tenants.len(),
            self.tenants.workers,
            self.tenants.epochs,
            self.tenants.min_advances(),
            self.tenants.total_rows,
            self.tenants.wall_ms,
            self.tenants.krows_per_s(),
            self.tenants.worst_node_ratio(),
            self.tenants.worst_var_ratio(),
            self.tenants.worst_var_ratio() <= 2.0,
            self.tenants.batch_equal(),
        );
        out.push_str(&extra);
        // The observability section is spliced in (the section above
        // already closes the root object).
        let tail = out.rfind('}').expect("report JSON is an object");
        out.truncate(tail);
        while out.ends_with('\n') {
            out.pop();
        }
        let _ = write!(
            out,
            concat!(
                ",\n  \"observability\": {{\n",
                "    \"tuples\": {},\n",
                "    \"advances\": {},\n",
                "    \"rounds\": {},\n",
                "    \"instrumented_ms\": {:.3},\n",
                "    \"baseline_ms\": {:.3},\n",
                "    \"overhead_ratio\": {:.3},\n",
                "    \"logs_identical\": {},\n",
                "    \"prometheus_ok\": {},\n",
                "    \"json_ok\": {},\n",
                "    \"trace_ok\": {},\n",
                "    \"stage_coverage\": {:.4},\n",
                "    \"note\": \"same replay instrumented (metrics + stage spans, the default) vs \
                 force-disabled; the delta logs must be byte-identical, stage spans must tile >= \
                 95% of each advance, and the instrumented wall must stay within 1.10x \
                 (CI-gated)\"\n",
                "  }}\n",
                "}}\n",
            ),
            self.observability.tuples,
            self.observability.advances,
            self.observability.rounds,
            self.observability.instrumented_ms,
            self.observability.baseline_ms,
            self.observability.overhead_ratio(),
            self.observability.logs_identical,
            self.observability.prometheus_ok,
            self.observability.json_ok,
            self.observability.trace_ok,
            self.observability.stage_coverage,
        );
        // The raw-speed section is spliced in the same way.
        let tail = out.rfind('}').expect("report JSON is an object");
        out.truncate(tail);
        while out.ends_with('\n') {
            out.pop();
        }
        let _ = write!(
            out,
            concat!(
                ",\n  \"raw_speed\": {{\n",
                "    \"tuples\": {},\n",
                "    \"levels\": {},\n",
                "    \"rounds\": {},\n",
                "    \"output_tuples\": {},\n",
                "    \"memoized_cold_ms\": {:.3},\n",
                "    \"columnar_ms\": {:.3},\n",
                "    \"valuation_speedup\": {:.3},\n",
                "    \"max_delta\": {:.3e},\n",
                "    \"immortal_epochs\": {},\n",
                "    \"immortal_advances\": {},\n",
                "    \"interior_retired_segments\": {},\n",
                "    \"interior_steady_bytes\": {},\n",
                "    \"prefix_steady_bytes\": {},\n",
                "    \"residency_ratio\": {:.3},\n",
                "    \"interior_steady_live_vars\": {},\n",
                "    \"prefix_steady_live_vars\": {},\n",
                "    \"live_vars_ratio\": {:.3},\n",
                "    \"batch_equal\": {},\n",
                "    \"note\": \"columnar marginal kernel vs per-root memoized walk (both cold, \
                 in a shared arena salted with bystander lineage; equality <= 1e-12 CI-gated); \
                 immortal-facts residency AND registry live_vars: interior steady state must \
                 stay strictly below the prefix-ordered baseline on both axes (CI-gated); wall \
                 speedups are informational\"\n",
                "  }}\n",
                "}}\n",
            ),
            self.raw_speed.tuples,
            self.raw_speed.levels,
            self.raw_speed.rounds,
            self.raw_speed.output_tuples,
            self.raw_speed.memoized_cold_ms,
            self.raw_speed.columnar_ms,
            self.raw_speed.valuation_speedup(),
            self.raw_speed.max_delta,
            self.raw_speed.immortal_epochs,
            self.raw_speed.immortal_advances,
            self.raw_speed.interior_retired_segments,
            self.raw_speed.interior_steady_bytes,
            self.raw_speed.prefix_steady_bytes,
            self.raw_speed.residency_ratio(),
            self.raw_speed.interior_steady_live_vars,
            self.raw_speed.prefix_steady_live_vars,
            self.raw_speed.live_vars_ratio(),
            self.raw_speed.immortal_batch_equal,
        );
        // The standing-pipelines section is spliced in the same way.
        let tail = out.rfind('}').expect("report JSON is an object");
        out.truncate(tail);
        while out.ends_with('\n') {
            out.pop();
        }
        let _ = write!(
            out,
            concat!(
                ",\n  \"streaming_plans\": {{\n",
                "    \"tuples\": {},\n",
                "    \"facts\": {},\n",
                "    \"advances\": {},\n",
                "    \"pipeline_deltas\": {},\n",
                "    \"output_rows\": {},\n",
                "    \"incremental_ms\": {:.3},\n",
                "    \"naive_rebatch_ms\": {:.3},\n",
                "    \"speedup\": {:.2},\n",
                "    \"batch_equal\": {},\n",
                "    \"plateau_epochs\": {},\n",
                "    \"retired_segments\": {},\n",
                "    \"warmup_state_rows\": {},\n",
                "    \"steady_state_rows\": {},\n",
                "    \"plateau_ratio\": {:.3},\n",
                "    \"plateau_batch_equal\": {},\n",
                "    \"note\": \"a compiled join+aggregate alert rule running as a standing \
                 incremental pipeline over the engine's delta streams, vs re-executing the batch \
                 plan over the re-encoded closed region at every watermark; the view must equal \
                 batch at finish, and under an extend-dominated immortal-facts stream with \
                 reclamation the operator state must plateau at its warm-up peak (both CI-gated); \
                 the wall speedup is informational\"\n",
                "  }}\n",
                "}}\n",
            ),
            self.pipeline.tuples,
            self.pipeline.facts,
            self.pipeline.advances,
            self.pipeline.pipeline_deltas,
            self.pipeline.output_rows,
            self.pipeline.incremental_ms,
            self.pipeline.naive_rebatch_ms,
            self.pipeline.speedup(),
            self.pipeline.batch_equal,
            self.pipeline.plateau_epochs,
            self.pipeline.retired_segments,
            self.pipeline.warmup_state_rows,
            self.pipeline.steady_state_rows,
            self.pipeline.plateau_ratio(),
            self.pipeline.plateau_batch_equal,
        );
        out
    }

    /// One flat JSON object summarizing this run — an entry of the
    /// appended `history` series (flat on purpose: the hand-rolled
    /// extractor matches entries without nested brackets).
    pub fn history_entry(&self, generated_unix: u64) -> String {
        format!(
            concat!(
                "{{\"generated_unix\": {}, \"valuation_speedup\": {:.2}, ",
                "\"streaming_speedup\": {:.2}, \"union_mtuples_per_s\": {:.3}, ",
                "\"contention_speedup\": {:.2}, \"memory_plateau_ratio\": {:.3}, ",
                "\"memory_steady_nodes\": {}, \"tenant_var_plateau_ratio\": {:.3}, ",
                "\"tenant_krows_per_s\": {:.3}, \"obs_overhead_ratio\": {:.3}, ",
                "\"raw_valuation_speedup\": {:.2}, \"raw_residency_ratio\": {:.3}, ",
                "\"raw_live_vars_ratio\": {:.3}, \"pipeline_speedup\": {:.2}, ",
                "\"pipeline_plateau_ratio\": {:.3}}}"
            ),
            generated_unix,
            self.valuation.speedup(),
            self.streaming.speedup(),
            self.ops
                .iter()
                .filter(|t| t.op == SetOp::Union)
                .map(|t| t.mtuples_per_s)
                .fold(0.0f64, f64::max),
            self.contention.speedup(),
            self.memory.plateau_ratio(),
            self.memory.steady_max_nodes,
            self.tenants.worst_var_ratio(),
            self.tenants.krows_per_s(),
            self.observability.overhead_ratio(),
            self.raw_speed.valuation_speedup(),
            self.raw_speed.residency_ratio(),
            self.raw_speed.live_vars_ratio(),
            self.pipeline.speedup(),
            self.pipeline.plateau_ratio(),
        )
    }

    /// The full artifact with the run-over-run `history` series appended:
    /// the latest run keeps the existing top-level schema (CI gates read
    /// it unchanged), `entries` — prior entries plus this run's — ride
    /// along under `"history"`.
    pub fn to_json_with_history(&self, entries: &[String]) -> String {
        let mut out = self.to_json();
        let tail = out.rfind('}').expect("report JSON is an object");
        out.truncate(tail);
        while out.ends_with('\n') {
            out.pop();
        }
        let mut extra = String::from(",\n  \"history\": [");
        for (i, e) in entries.iter().enumerate() {
            let _ = write!(extra, "{}\n    {}", if i > 0 { "," } else { "" }, e.trim());
        }
        extra.push_str("\n  ]\n}\n");
        out.push_str(&extra);
        out
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = self.valuation.render();
        let _ = writeln!(out, "\n== BENCH lawa: operation throughput ==");
        for t in &self.ops {
            let _ = writeln!(
                out,
                "{:<11} {:>8} tuples/rel  {:>9.2} ms  {:>7.2} Mtuples/s  {:>8} out",
                t.op.name(),
                t.tuples,
                t.ms,
                t.mtuples_per_s,
                t.output_tuples,
            );
        }
        let _ = writeln!(
            out,
            "\n== BENCH lawa: arena intern contention ({} threads × {} chain nodes, {} hw threads) ==\n\
             1 dedup stripe (before) {:>9.1} ms\n\
             {} dedup stripes (after){:>9.1} ms   ({:.2}× — appends are lock-free either way; stripes need hardware parallelism to win)",
            self.contention.threads,
            self.contention.nodes_per_thread,
            self.contention.hardware_threads,
            self.contention.single_lock_ms,
            self.contention.shards,
            self.contention.striped_ms,
            self.contention.speedup(),
        );
        let _ = writeln!(
            out,
            "\n== BENCH lawa: continuous vs naive re-batch ({} tuples/rel, {} advances) ==\n\
             incremental engine     {:>9.1} ms   ({} inserts, {} extends, all 3 ops)\n\
             naive re-run per wmark {:>9.1} ms\n\
             speedup                {:>9.2}×   (batch-equal: {})",
            self.streaming.tuples,
            self.streaming.advances,
            self.streaming.incremental_ms,
            self.streaming.inserts,
            self.streaming.extends,
            self.streaming.naive_rebatch_ms,
            self.streaming.speedup(),
            self.streaming.batch_equal,
        );
        let _ = writeln!(
            out,
            "\n== BENCH lawa: bounded-memory streaming ({} epochs, {} advances) ==\n\
             one-window footprint   {:>9} live nodes\n\
             steady-state peak      {:>9} live nodes   (plateau ratio {:.2}, gate <= 2.0)\n\
             retired                {:>9} nodes over {} segments (final {} nodes, {} KiB resident, batch-equal: {})",
            self.memory.epochs,
            self.memory.advances,
            self.memory.one_window_nodes,
            self.memory.steady_max_nodes,
            self.memory.plateau_ratio(),
            self.memory.retired_nodes,
            self.memory.retired_segments,
            self.memory.final_nodes,
            self.memory.final_resident_bytes / 1024,
            self.memory.batch_equal,
        );
        let _ = writeln!(
            out,
            "\n== BENCH lawa: multi-tenant server ({} tenants × {} epochs, {} workers) ==\n\
             aggregate ingest       {:>9.1} krows/s   ({} rows in {:.1} ms)\n\
             worst arena plateau    {:>9.2}×   (gate <= 2.0)\n\
             worst var-table plateau{:>9.2}×   (gate <= 2.0, batch-equal: {})",
            self.tenants.tenants.len(),
            self.tenants.epochs,
            self.tenants.workers,
            self.tenants.krows_per_s(),
            self.tenants.total_rows,
            self.tenants.wall_ms,
            self.tenants.worst_node_ratio(),
            self.tenants.worst_var_ratio(),
            self.tenants.batch_equal(),
        );
        for t in &self.tenants.tenants {
            let _ = writeln!(
                out,
                "  {:<10} {:>6} rows  arena {:>5}→{:<5} ({:.2}×)  vars {:>5}→{:<5} ({:.2}×)  released {} vars / {} segments",
                t.name,
                t.pushed,
                t.one_window_nodes,
                t.steady_nodes,
                t.node_plateau_ratio(),
                t.one_window_vars,
                t.steady_vars,
                t.var_plateau_ratio(),
                t.released_vars,
                t.retired_segments,
            );
        }
        let _ = writeln!(
            out,
            "\n== BENCH lawa: observability overhead ({} tuples/rel, {} advances, min of {} rounds) ==\n\
             instrumented           {:>9.1} ms   (metrics + stage spans, the default)\n\
             uninstrumented         {:>9.1} ms   (every layer force-disabled)\n\
             overhead               {:>9.2}×   (gate <= 1.10)\n\
             gates                  logs-identical: {}  prometheus: {}  json: {}  trace: {}  stage coverage: {:.1}%",
            self.observability.tuples,
            self.observability.advances,
            self.observability.rounds,
            self.observability.instrumented_ms,
            self.observability.baseline_ms,
            self.observability.overhead_ratio(),
            self.observability.logs_identical,
            self.observability.prometheus_ok,
            self.observability.json_ok,
            self.observability.trace_ok,
            self.observability.stage_coverage * 100.0,
        );
        let _ = writeln!(
            out,
            "\n== BENCH lawa: raw-speed pass ==\n\
             columnar kernel        {:>9.1} ms   vs per-root cold walk {:.1} ms ({:.2}×, {} tuples, max Δ {:.2e})",
            self.raw_speed.columnar_ms,
            self.raw_speed.memoized_cold_ms,
            self.raw_speed.valuation_speedup(),
            self.raw_speed.output_tuples,
            self.raw_speed.max_delta,
        );
        let _ = writeln!(
            out,
            "  immortal facts:   interior {} B vs prefix {} B steady-state ({:.2}×, {} interior retires over {} advances, batch-equal: {})",
            self.raw_speed.interior_steady_bytes,
            self.raw_speed.prefix_steady_bytes,
            self.raw_speed.residency_ratio(),
            self.raw_speed.interior_retired_segments,
            self.raw_speed.immortal_advances,
            self.raw_speed.immortal_batch_equal,
        );
        let _ = writeln!(
            out,
            "  registry:         interior {} vs prefix {} steady-state live vars ({:.2}×, cohort-granular release)",
            self.raw_speed.interior_steady_live_vars,
            self.raw_speed.prefix_steady_live_vars,
            self.raw_speed.live_vars_ratio(),
        );
        let _ = writeln!(
            out,
            "\n== BENCH lawa: standing plans ({} tuples/side over {} keys, {} advances) ==\n\
             standing pipeline      {:>9.1} ms   ({} operator deltas, {} view rows)\n\
             naive re-plan per wmark{:>9.1} ms\n\
             speedup                {:>9.2}×   (batch-equal: {})\n\
             reclaim-mode plateau   {:>9} → {} state rows over {} epochs ({:.2}×, {} segments retired, batch-equal: {})",
            self.pipeline.tuples,
            self.pipeline.facts,
            self.pipeline.advances,
            self.pipeline.incremental_ms,
            self.pipeline.pipeline_deltas,
            self.pipeline.output_rows,
            self.pipeline.naive_rebatch_ms,
            self.pipeline.speedup(),
            self.pipeline.batch_equal,
            self.pipeline.warmup_state_rows,
            self.pipeline.steady_state_rows,
            self.pipeline.plateau_epochs,
            self.pipeline.plateau_ratio(),
            self.pipeline.retired_segments,
            self.pipeline.plateau_batch_equal,
        );
        out
    }
}

/// Extracts the prior `history` entries of a previously written
/// `BENCH_lawa.json` (hand-rolled: entries are flat objects without
/// nested brackets, by construction of
/// [`BenchReport::history_entry`]). Unknown or malformed files yield an
/// empty history — the series restarts rather than failing the run.
pub fn extract_history(prior_json: &str) -> Vec<String> {
    let Some(start) = prior_json.find("\"history\": [") else {
        return Vec::new();
    };
    let rest = &prior_json[start + "\"history\": [".len()..];
    let Some(end) = rest.find(']') else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for ch in rest[..end].chars() {
        match ch {
            '{' => {
                depth += 1;
                cur.push(ch);
            }
            '}' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
                if depth == 0 {
                    out.push(std::mem::take(&mut cur).trim().to_string());
                }
            }
            _ => {
                if depth > 0 {
                    cur.push(ch);
                }
            }
        }
    }
    out
}

/// Fig. 11a–c: the three TP set operations over the (simulated) WebKit
/// dataset and its shifted counterpart.
pub fn fig11_webkit() -> Vec<ExperimentResult> {
    let mut vars = VarTable::new();
    let max_size = *small_sizes().last().expect("non-empty");
    let r = tp_workloads::webkit::generate(
        &WebkitConfig {
            files: max_size / 3,
            tuples: max_size,
            ..Default::default()
        },
        &mut vars,
    );
    let s = shifted_copy(&r, "s", 10_000, 5, &mut vars);
    real_world_sweep("Fig. 11", "WebKit (simulated)", &r, &s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lawa_valuation_bench_is_consistent_and_memoization_wins() {
        let b = lawa_valuation_bench(4_000, 48, 8);
        assert!(b.output_tuples > 0);
        assert!(
            b.max_sum_delta < 1e-6,
            "paths disagree: {}",
            b.max_sum_delta
        );
        let json = b.to_json();
        assert!(json.contains("\"experiment\": \"lawa_memoized_valuation\""));
        assert!(json.contains("\"speedup\""));
        // Correctness only here: the ≥2× speedup acceptance criterion is a
        // wall-clock property and is gated in CI's bench-smoke step
        // (release build, dedicated step) — asserting a timing ratio inside
        // `cargo test` on a shared runner would flake on noisy neighbors.
        assert!(b.tree_walker_ms > 0.0 && b.arena_memoized_ms > 0.0);
        assert!(b.speedup().is_finite());
    }

    #[test]
    fn op_throughput_measures_all_ops() {
        let series = lawa_op_throughput(&[400, 800]);
        assert_eq!(series.len(), 6); // 3 ops × 2 sizes
        for t in &series {
            assert!(t.ms >= 0.0);
            assert!(t.mtuples_per_s.is_finite());
            assert!(t.output_tuples > 0, "{} produced nothing", t.op);
        }
    }

    #[test]
    fn contention_bench_runs_both_layouts() {
        let b = arena_contention_bench(2, 500);
        assert!(b.single_lock_ms > 0.0 && b.striped_ms > 0.0);
        assert!(b.speedup().is_finite());
        assert_eq!(b.shards, tp_core::arena::MAX_SHARDS);
        // No wall-clock assertion: stripes only win with real hardware
        // parallelism; CI gates correctness, the JSON records the ratio.
    }

    #[test]
    fn streaming_bench_is_batch_equal() {
        let b = streaming_bench(1_500, 100);
        assert!(b.batch_equal, "stream/naive/batch results diverged");
        assert!(b.advances > 1);
        assert!(b.inserts > 0);
        assert!(b.incremental_ms > 0.0 && b.naive_rebatch_ms > 0.0);
        // The ≥2× wall-clock criterion is gated in CI's bench-smoke step.
        assert!(b.speedup().is_finite());
    }

    #[test]
    fn bench_report_json_keeps_valuation_schema_and_adds_sections() {
        let report = BenchReport {
            valuation: lawa_valuation_bench(800, 8, 2),
            ops: lawa_op_throughput(&[300]),
            contention: arena_contention_bench(2, 200),
            streaming: streaming_bench(600, 80),
            memory: memory_bounded_bench(16),
            tenants: multi_tenant_bench(2, 16, 2),
            observability: observability_bench(400, 16, 1),
            raw_speed: raw_speed_bench(800, 8, 1, 16),
            pipeline: pipeline_bench(160, 16, 16, 24),
        };
        let json = report.to_json();
        // Existing top-level schema intact (CI's speedup gate reads these).
        assert!(json.contains("\"experiment\": \"lawa_memoized_valuation\""));
        assert!(json.contains("\"speedup\""));
        // New sections present.
        assert!(json.contains("\"lawa_ops\""));
        assert!(json.contains("\"arena_contention\""));
        assert!(json.contains("\"streaming\""));
        assert!(json.contains("\"memory_bounded\""));
        assert!(json.contains("\"multi_tenant\""));
        assert!(json.contains("\"var_table_plateau_ratio\""));
        assert!(!json.contains("\"parallel_advance\""));
        assert!(!json.contains("\"ingest_index\""));
        assert!(!json.contains("\"stitch\""));
        assert!(json.contains("\"observability\""));
        assert!(json.contains("\"overhead_ratio\""));
        assert!(json.contains("\"raw_speed\""));
        assert!(json.contains("\"interior_steady_bytes\""));
        assert!(json.contains("\"interior_steady_live_vars\""));
        assert!(json.contains("\"live_vars_ratio\""));
        assert!(json.contains("\"streaming_plans\""));
        assert!(json.contains("\"pipeline_deltas\""));
        assert!(json.contains("\"plateau_batch_equal\": true"));
        assert!(json.contains("\"batch_equal\": true"));
        assert!(!json.contains("\"adaptive_pipeline\""));
        // Balanced braces (hand-rolled JSON sanity).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON: {json}"
        );
        let rendered = report.render();
        assert!(rendered.contains("operation throughput"));
        assert!(rendered.contains("intern contention"));
        assert!(rendered.contains("naive re-batch"));
        assert!(rendered.contains("bounded-memory streaming"));
        assert!(rendered.contains("multi-tenant server"));
        assert!(rendered.contains("raw-speed pass"));
        assert!(rendered.contains("standing plans"));

        // History round trip: a written file's entries are recovered and
        // extended, and the result stays balanced.
        let e1 = report.history_entry(1_000);
        assert!(!e1.contains("\"parallel_speedup_at_4\""));
        assert!(!e1.contains("\"ingest_speedup_at_largest\""));
        assert!(e1.contains("\"raw_valuation_speedup\""));
        assert!(e1.contains("\"pipeline_speedup\""));
        assert!(!e1.contains("\"reopt_speedup\""));
        assert!(!e1.contains("\"shared_state_ratio\""));
        assert!(!e1.contains("\"simd_valuation_speedup\""));
        let with_one = report.to_json_with_history(std::slice::from_ref(&e1));
        assert_eq!(extract_history(&with_one), vec![e1.clone()]);
        let e2 = report.history_entry(2_000);
        let with_two = report.to_json_with_history(&[e1.clone(), e2.clone()]);
        assert_eq!(extract_history(&with_two), vec![e1, e2]);
        assert_eq!(
            with_two.matches('{').count(),
            with_two.matches('}').count(),
            "unbalanced JSON with history: {with_two}"
        );
        assert!(extract_history("{}").is_empty());
    }

    #[test]
    fn pipeline_bench_matches_batch_and_plateaus() {
        let b = pipeline_bench(200, 20, 16, 32);
        assert!(b.batch_equal, "standing view diverged from batch plan");
        assert!(b.plateau_batch_equal, "reclaim-mode view diverged");
        assert!(b.advances > 1);
        assert!(b.pipeline_deltas > 0);
        assert!(b.output_rows > 0, "vacuous: empty view proves nothing");
        assert!(b.retired_segments > 0, "reclaim never fired");
        assert!(
            b.pass(),
            "no plateau: warm-up {} vs steady {} state rows",
            b.warmup_state_rows,
            b.steady_state_rows
        );
        // The wall speedup is hardware-dependent and reported
        // informationally; CI gates equality + the plateau only.
        assert!(b.speedup().is_finite() && b.speedup() > 0.0);
    }

    #[test]
    fn multi_tenant_bench_is_bounded_on_both_axes() {
        let b = multi_tenant_bench(3, 24, 3);
        assert_eq!(b.tenants.len(), 3);
        assert!(b.min_advances() >= 24, "advances {}", b.min_advances());
        assert!(b.total_rows > 0);
        for t in &b.tenants {
            assert!(t.batch_equal, "{}: stream diverged from batch", t.name);
            assert!(t.retired_segments > 0, "{}: nothing retired", t.name);
            assert!(t.released_vars > 0, "{}: no vars released", t.name);
        }
        assert!(
            b.bounded(),
            "not bounded: arena {:.2}x, vars {:.2}x",
            b.worst_node_ratio(),
            b.worst_var_ratio()
        );
    }

    #[test]
    fn memory_bench_plateaus_and_is_batch_equal() {
        let b = memory_bounded_bench(24);
        assert!(b.batch_equal, "reclaiming stream diverged from batch");
        assert!(b.advances >= 20);
        assert!(b.retired_segments > 0, "nothing was retired");
        assert!(
            b.bounded(),
            "no plateau: ratio {:.2} (one-window {}, steady {})",
            b.plateau_ratio(),
            b.one_window_nodes,
            b.steady_max_nodes
        );
    }

    #[test]
    fn tables_render() {
        let t2 = table2_support();
        assert!(t2.contains("LAWA"));
        assert!(t2.contains("Table II"));
    }

    #[test]
    fn sweep_renders_and_skips_unsupported() {
        let mut vars = VarTable::new();
        let (r, s) = tp_workloads::synth::generate(&SynthConfig::single_fact(200, 3), &mut vars);
        let res = sweep(
            "Fig. X",
            "test",
            "tuples",
            &[Approach::Lawa, Approach::Ti],
            SetOp::Except,
            vec![("200".into(), r, s)],
        );
        assert_eq!(res.series.len(), 2);
        assert!(res.series_of("LAWA").unwrap().values[0].is_some());
        assert!(res.series_of("TI").unwrap().values[0].is_none());
        let rendered = res.render();
        assert!(rendered.contains("Fig. X"));
        assert!(rendered.contains('-'));
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn csv_rendering() {
        let res = ExperimentResult {
            id: "Fig. T".into(),
            title: "t".into(),
            x_label: "tuples".into(),
            xs: vec!["1K".into(), "2K".into()],
            series: vec![
                Series {
                    name: "LAWA".into(),
                    values: vec![Some(1.5), Some(3.0)],
                },
                Series {
                    name: "NORM".into(),
                    values: vec![Some(9.0), None],
                },
            ],
            notes: vec![],
        };
        let csv = res.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "tuples,LAWA,NORM");
        assert_eq!(lines[1], "1K,1.500,9.000");
        assert_eq!(lines[2], "2K,3.000,"); // capped cell empty
    }
}
