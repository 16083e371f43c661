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
