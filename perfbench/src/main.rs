//! The repository's benchmark: six workloads that each load different
//! layers, measured from outside through public functions only.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --check
//! ```
//!
//! See `README.md` beside this package for the metric catalogue, the
//! measurement procedure and what each workload is for.

mod alloc;
mod batch;
mod catalog;
mod env;
mod inputs;
mod json;
mod spans;
mod stats;
mod stream;
mod tenants;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use crate::catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::env::{Calibration, Environment};
use crate::spans::Tracer;
use crate::workload::{Layers, Pass, Scale, Workload};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Set-up is run at least this many times, and again until
/// `SETUP_SECONDS` have passed (at most `MAX_SETUPS` times), and its
/// median reported: a set-up of 20 ms needs many repeats to read steadily.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 60;
const SETUP_SECONDS: f64 = 1.5;
/// Fewest timed passes of a run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            check: false,
        };
        let mut it = std::env::args().skip(1).peekable();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => args.workload = Some(value("a workload name")?),
                "--seed" => {
                    args.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    args.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                // `--trace` alone switches tracing on; `--trace 0|1` says which.
                "--trace" => {
                    args.trace = match it.peek().map(String::as_str) {
                        Some("0") => false,
                        Some("1") => true,
                        _ => {
                            args.trace = true;
                            continue;
                        }
                    };
                    it.next();
                }
                "--check" => args.check = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }
}

fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "batch_synth" => Box::new(batch::BatchSynth::new(seed, scale)),
        "batch_valuation" => Box::new(batch::BatchValuation::new(seed, scale)),
        "stream_meteo" => Box::new(stream::StreamReplay::meteo(seed, scale)),
        "stream_webkit" => Box::new(stream::StreamReplay::webkit(seed, scale)),
        "tenants_sliding" => Box::new(tenants::TenantsSliding::new(seed, scale)),
        "plan_alerts" => Box::new(stream::StreamReplay::plan_alerts(seed, scale)),
        _ => return None,
    })
}

/// The outcome of one run of one workload.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the run's mode, in catalogue order.
    metrics: Vec<(Metric, f64)>,
    /// Lines for a human: sample counts, quartiles, oracle mismatches.
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (m, value) in &self.metrics {
            println!("{:<44} {:>18.6} {}", m.name, value, m.unit);
        }
    }

    /// The one-line result the caller parses.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Passes of one mode, and what the driver derives from them.
#[derive(Default)]
struct Passes {
    tuples_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Passes {
    fn add(&mut self, pass: Pass) {
        self.tuples_per_s.push(pass.units as f64 / pass.secs);
        // Percentiles are taken within the pass; the run reports their
        // median over passes, which a slow stretch of the machine moves
        // less than a percentile over all calls of the run.
        self.p50_ms
            .push(stats::percentile(&pass.latencies_ms, 50.0));
        self.p99_ms
            .push(stats::percentile(&pass.latencies_ms, 99.0));
        for (name, value) in pass.layers {
            self.layers.entry(name).or_default().push(value);
        }
        self.attempted += pass.attempted;
        self.failed += pass.failed;
    }

    fn len(&self) -> usize {
        self.tuples_per_s.len()
    }
}

/// One line for a human: median, minimum, quartiles and sample count.
fn note(what: &str, unit: &str, samples: &str, v: &[f64]) -> String {
    let (p25, p50, p75) = stats::quartiles(v);
    format!(
        "{what}: median {p50:.4} {unit}, min {:.4}, quartiles {p25:.4}..{p75:.4}, {} {samples}",
        stats::min(v),
        v.len()
    )
}

struct Run<'a> {
    name: &'a str,
    seed: u64,
    seconds: f64,
    scale: Scale,
    min_passes: usize,
    min_setups: usize,
}

impl Run<'_> {
    /// Builds the workload at least `min_times`; returns the last one
    /// built and the seconds each build took.
    fn setup(&self, min_times: usize) -> (Box<dyn Workload>, Vec<f64>) {
        let mut secs: Vec<f64> = Vec::new();
        let mut built = None;
        while secs.len() < min_times
            || (min_times > 1
                && secs.len() < MAX_SETUPS
                && secs.iter().sum::<f64>() < SETUP_SECONDS)
        {
            drop(built.take());
            let t0 = Instant::now();
            built = build(self.name, self.seed, self.scale);
            secs.push(t0.elapsed().as_secs_f64());
        }
        (built.expect("the workload name was checked"), secs)
    }

    /// The oracle's verdict, folded into the run's totals.
    fn verify(&self, wl: &dyn Workload, passes: &mut Passes, notes: &mut Vec<String>) -> Layers {
        let verdict = wl.oracle();
        passes.attempted += verdict.attempted;
        passes.failed += verdict.failed;
        notes.extend(verdict.mismatches.iter().map(|m| format!("MISMATCH {m}")));
        notes.extend(verdict.notes);
        notes.push(format!(
            "oracle: {} checks, {} failed",
            verdict.attempted, verdict.failed
        ));
        verdict.layers
    }

    fn header(&self, trace: bool, env: &Environment) -> Vec<String> {
        vec![
            format!(
                "workload={} seed={} seconds={} trace={} scale={:?}",
                self.name, self.seed, self.seconds, trace as u8, self.scale
            ),
            format!(
                "hardware_threads={} cpu=\"{}\" rustc=\"{}\" commit={}",
                env.hardware_threads, env.cpu_model, env.rustc, env.commit
            ),
            "load: closed loop, one client, one thread".to_string(),
        ]
    }

    /// The untraced run: every end-to-end metric.
    fn end_to_end(&self, env: &Environment) -> Report {
        let mut notes = self.header(false, env);
        let (wl, setup_s) = self.setup(self.min_setups);
        let mut off = Tracer::off();
        wl.pass(&mut off); // warm-up: page faults, lazy statics, span rings
        let mut passes = Passes::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < self.seconds || passes.len() < self.min_passes {
            passes.add(wl.pass(&mut off));
        }
        let (_, heap) = alloc::measure(|| wl.pass(&mut off));
        self.verify(wl.as_ref(), &mut passes, &mut notes);

        notes.push(note("setup_s", "s", "set-ups", &setup_s));
        notes.push(note("tuples_per_s", "1/s", "passes", &passes.tuples_per_s));
        notes.push(note("latency_ms_p50", "ms", "passes", &passes.p50_ms));
        notes.push(note("latency_ms_p99", "ms", "passes", &passes.p99_ms));
        let value = |name: &str| match name {
            "setup_s" => stats::median(&setup_s),
            "tuples_per_s" => stats::median(&passes.tuples_per_s),
            "latency_ms_p50" => stats::median(&passes.p50_ms),
            "latency_ms_p99" => stats::median(&passes.p99_ms),
            "heap_peak_bytes" => heap.peak_bytes as f64,
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        Report {
            correct: passes.failed == 0,
            attempted: passes.attempted,
            failed: passes.failed,
            metrics: END_TO_END.iter().map(|m| (*m, value(m.name))).collect(),
            notes,
        }
    }

    /// The traced run: every per-layer metric. Untraced and traced passes
    /// alternate, so their ratio is the tracing overhead on one machine
    /// state.
    fn per_layer(&self, env: &Environment) -> Report {
        let mut notes = self.header(true, env);
        let calib_start = Calibration::measure();
        let (wl, _) = self.setup(1);
        let mut off = Tracer::off();
        let mut on = Tracer::on(self.name);
        wl.pass(&mut off);
        let (mut plain, mut traced) = (Passes::default(), Passes::default());
        let t0 = Instant::now();
        // Probes, the memory pass and the oracle need the rest of the time.
        while t0.elapsed().as_secs_f64() < self.seconds * 0.6
            || traced.len() < self.min_passes.min(2)
        {
            plain.add(wl.pass(&mut off));
            traced.add(wl.pass(&mut on));
        }
        let mut layers: Layers = traced
            .layers
            .iter()
            .map(|(name, values)| (*name, stats::median(values)))
            .collect();
        wl.probes(&mut on, &mut layers);
        let (pass, heap) = alloc::measure(|| wl.pass(&mut off));
        layers.extend(self.verify(wl.as_ref(), &mut traced, &mut notes));
        let calib_end = Calibration::measure();

        let units = pass.units.max(1) as f64;
        layers.insert("bench.alloc.allocs_per_tuple", heap.allocs as f64 / units);
        layers.insert("bench.alloc.bytes_per_tuple", heap.bytes as f64 / units);
        layers.insert(
            "bench.trace_overhead_ratio",
            stats::median(&traced.tuples_per_s) / stats::median(&plain.tuples_per_s),
        );
        layers.insert("bench.pass_spread", stats::spread(&plain.tuples_per_s));
        layers.insert(
            "bench.calib_cpu_ms",
            (calib_start.cpu_ms + calib_end.cpu_ms) / 2.0,
        );
        layers.insert(
            "bench.calib_mem_ms",
            (calib_start.mem_ms + calib_end.mem_ms) / 2.0,
        );
        layers.insert(
            "bench.failed_share",
            (plain.failed + traced.failed) as f64
                / (plain.attempted + traced.attempted).max(1) as f64,
        );
        notes.push(format!(
            "calibration start {calib_start:.2?}, end {calib_end:.2?}"
        ));
        notes.push(note(
            "untraced tuples_per_s",
            "1/s",
            "passes",
            &plain.tuples_per_s,
        ));
        notes.push(note(
            "traced tuples_per_s",
            "1/s",
            "passes",
            &traced.tuples_per_s,
        ));
        match on.export(self.name) {
            Ok(Some(path)) => notes.push(format!("spans written to {}", path.display())),
            Ok(None) => {}
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
        for name in layers.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "layer metric {name} is not in the catalogue"
            );
        }
        let failed = plain.failed + traced.failed;
        Report {
            correct: failed == 0,
            attempted: plain.attempted + traced.attempted,
            failed,
            // A layer the workload does not touch reads 0.
            metrics: PER_LAYER
                .iter()
                .map(|m| {
                    (
                        *m,
                        layers
                            .get(m.name)
                            .copied()
                            .filter(|v| v.is_finite())
                            .unwrap_or(0.0),
                    )
                })
                .collect(),
            notes,
        }
    }
}

/// `--check`: every workload at smoke size, both modes, full oracle, and
/// the catalogue against `BENCHMARK.json`.
fn check(seed: u64, env: &Environment) -> Result<(), String> {
    catalog::validate_against_benchmark_json()?;
    for name in WORKLOADS {
        let run = Run {
            name,
            seed,
            seconds: 0.0,
            scale: Scale::Check,
            min_passes: 2,
            min_setups: 1,
        };
        for report in [run.end_to_end(env), run.per_layer(env)] {
            report.print();
            if !report.correct {
                return Err(format!(
                    "{name}: {} of {} operations failed",
                    report.failed, report.attempted
                ));
            }
            for (m, value) in &report.metrics {
                if END_TO_END.contains(m) && *value <= 0.0 {
                    return Err(format!("{name}: end-to-end metric {} is {value}", m.name));
                }
            }
        }
    }
    println!(
        "check passed: {} workloads, {} + {} metrics",
        WORKLOADS.len(),
        END_TO_END.len(),
        PER_LAYER.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let env = Environment::read();
    if args.check {
        return match check(args.seed, &env) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // Without `--workload`, all six, one after the other.
    let names: Vec<&str> = match &args.workload {
        Some(name) if WORKLOADS.contains(&name.as_str()) => vec![name.as_str()],
        Some(name) => {
            eprintln!("unknown workload {name}; one of {WORKLOADS:?}");
            return ExitCode::from(2);
        }
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for name in names {
        let run = Run {
            name,
            seed: args.seed,
            seconds: args.seconds,
            scale: Scale::Full,
            min_passes: MIN_PASSES,
            min_setups: MIN_SETUPS,
        };
        let report = if args.trace {
            run.per_layer(&env)
        } else {
            run.end_to_end(&env)
        };
        report.print();
        println!("{}", report.json());
        all_correct &= report.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
