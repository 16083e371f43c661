//! # tp-bench — the experiment harness of the reproduction
//!
//! One runner per table/figure of the paper's evaluation (§VII). The
//! [`experiments`] module produces structured results; the `experiments`
//! binary prints them in the shape of the paper's plots (one row per input
//! size / parameter value, one column per approach), and the Criterion
//! benches under `benches/` wrap the same workloads for statistically
//! sound micro-measurements. The crate depends on the core, the baselines
//! and the workload generators only; comparing commits by wall clock is the
//! job of the repository benchmark under `perfbench/`.
//!
//! Experiment sizes default to a laptop-friendly fraction of the paper's
//! (which used 64 GB machines and hours of runtime); set the `TP_SCALE`
//! environment variable to a multiplier (e.g. `TP_SCALE=10`) to approach the
//! published sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;

pub use experiments::{
    fig10_meteo, fig11_webkit, fig7_small_synthetic, fig8_large_synthetic, fig9a_overlap,
    fig9b_facts, table2_support, table3_datasets, table4_datasets, ExperimentResult, Series,
};
pub use runner::{scale, scaled, time_ms};
