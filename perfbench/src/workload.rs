//! What every workload gives the driver.

use std::collections::BTreeMap;

use crate::spans::Tracer;

/// Per-layer readings of one pass or probe, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Input sizes: the measured ones, or tiny ones for `--check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Check,
}

impl Scale {
    /// `full` at measuring size, `check` for the smoke run.
    pub fn pick(self, full: usize, check: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Check => check,
        }
    }
}

/// One timed pass over the workload's inputs, in a fresh arena.
#[derive(Debug, Default)]
pub struct Pass {
    /// Input tuples consumed (rows, or roots valued).
    pub units: u64,
    /// Seconds of the timed section: re-interning the inputs is outside.
    pub secs: f64,
    /// Latency of every result-delivering call of the pass, in ms: each
    /// `advance` / `advance_all` of a stream; the one pass of a batch.
    pub latencies_ms: Vec<f64>,
    /// Pushes + advances + valuation calls made.
    pub attempted: u64,
    /// Those that were late, rejected or returned `Err`.
    pub failed: u64,
    /// Layer readings; timings are filled in only when tracing is on.
    pub layers: Layers,
}

/// Outcome of comparing a workload's outputs with the batch oracle.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// One line per mismatch.
    pub mismatches: Vec<String>,
    /// What the oracle found worth telling when all is well.
    pub notes: Vec<String>,
    /// Layer timings that only the oracle's batch twin can give.
    pub layers: Layers,
}

impl Verdict {
    /// Counts one comparison; records `what` when it did not hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }
}

/// A workload after set-up: inputs generated, scripts built.
pub trait Workload {
    /// Runs one pass. With `tr.on` it also records spans and the layer
    /// timings that need extra clock reads.
    fn pass(&self, tr: &mut Tracer) -> Pass;

    /// Checks the program's outputs against the batch oracle.
    fn oracle(&self) -> Verdict;

    /// Layer measurements taken outside a pass (traced run only).
    fn probes(&self, _tr: &mut Tracer, _out: &mut Layers) {}
}
