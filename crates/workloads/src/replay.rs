//! The experiment workloads replayed as streams.
//!
//! Each adapter builds a relation pair the way the batch experiments do —
//! synthetic chains (§VII-B), the simulated Meteo Swiss stream, the
//! simulated WebKit history (§VII-C, second relation via
//! [`crate::shift::shifted_copy`]) — and turns it into a deterministic
//! out-of-order [`StreamScript`] for the continuous engine (`tp-stream`).
//! The returned pair is kept alongside the script so callers can
//! cross-check streamed results against batch LAWA on identical inputs.

use tp_core::relation::{TpRelation, VarTable};
use tp_stream::{ReplayConfig, StreamScript};

use crate::meteo::{self, MeteoConfig};
use crate::synth::{self, SynthConfig};
use crate::webkit::{self, WebkitConfig};

/// A workload pair plus its replay script.
#[derive(Debug, Clone)]
pub struct StreamWorkload {
    /// The left input relation.
    pub r: TpRelation,
    /// The right input relation.
    pub s: TpRelation,
    /// The arrival/watermark sequence replaying the pair.
    pub script: StreamScript,
}

impl StreamWorkload {
    fn new(r: TpRelation, s: TpRelation, replay: &ReplayConfig) -> Self {
        let script = StreamScript::from_pair(&r, &s, replay);
        StreamWorkload { r, s, script }
    }
}

/// The synthetic workload of §VII-B as a stream.
pub fn synth_stream(
    cfg: &SynthConfig,
    replay: &ReplayConfig,
    vars: &mut VarTable,
) -> StreamWorkload {
    let (r, s) = synth::generate(cfg, vars);
    StreamWorkload::new(r, s, replay)
}

/// The simulated Meteo Swiss stream: forecasts as the left input, a
/// time-shifted re-prediction stream as the right input.
pub fn meteo_stream(
    cfg: &MeteoConfig,
    shift: i64,
    replay: &ReplayConfig,
    vars: &mut VarTable,
) -> StreamWorkload {
    let r = meteo::generate(cfg, vars);
    let s = crate::shift::shifted_copy(&r, "k", shift, replay.seed, vars);
    StreamWorkload::new(r, s, replay)
}

/// Parameters of the indefinitely sliding synthetic stream
/// ([`sliding_synth_stream`]).
#[derive(Debug, Clone, Copy)]
pub struct SlidingConfig {
    /// Watermark advances (epochs) to generate; memory of a reclaiming
    /// engine is independent of this — crank it up to soak-test.
    pub epochs: usize,
    /// Tuples per side per epoch.
    pub per_epoch: usize,
    /// Distinct facts the tuples rotate over.
    pub facts: usize,
    /// Time points per epoch (tuple spans stay below one stride, so
    /// nothing outlives its epoch by more than one advance).
    pub stride: i64,
    /// Seed for the per-tuple probability jitter.
    pub seed: u64,
}

impl Default for SlidingConfig {
    fn default() -> Self {
        SlidingConfig {
            epochs: 64,
            per_epoch: 16,
            facts: 8,
            stride: 64,
            seed: 11,
        }
    }
}

/// A sliding-window synthetic stream: every epoch contributes a fresh
/// bounded batch of short-lived tuples on a rotating fact population, and
/// the watermark advances once per epoch. This is the steady-state shape a
/// bounded-memory continuous engine must serve **indefinitely**: the live
/// window is O(`per_epoch`), so with reclamation
/// ([`tp_stream::ReclaimConfig`]) arena residency plateaus regardless of
/// `epochs`. Returns the full pair for batch cross-checks plus a script
/// whose advances land exactly on epoch boundaries.
pub fn sliding_synth_stream(cfg: &SlidingConfig, vars: &mut VarTable) -> StreamWorkload {
    use tp_core::fact::Fact;
    use tp_core::interval::Interval;

    let facts = cfg.facts.max(1) as i64;
    let stride = cfg.stride.max(8);
    // Each fact gets `copies` disjoint sub-slots per epoch; tuples span
    // half a sub-slot, so same-fact tuples of one side never overlap —
    // duplicate-free by construction, within and across epochs.
    let copies = ((cfg.per_epoch as i64 / facts).max(1)).min(stride / 4);
    let sub = stride / copies;
    let span = (sub / 2).max(1);
    let jitter = |x: i64| 0.25 + 0.5 * (((cfg.seed as i64 + x).rem_euclid(97)) as f64 / 97.0);
    let mut rows_r = Vec::new();
    let mut rows_s = Vec::new();
    for e in 0..cfg.epochs as i64 {
        for f in 0..facts {
            for c in 0..copies {
                let fact = Fact::single(f);
                let base = e * stride + c * sub;
                rows_r.push((
                    fact.clone(),
                    Interval::at(base, base + span),
                    jitter(base + f),
                ));
                rows_s.push((
                    fact,
                    Interval::at(base + span / 3, base + span / 3 + span),
                    jitter(base + f + 1),
                ));
            }
        }
    }
    let r = TpRelation::base("r", rows_r, vars).expect("sliding rows are duplicate-free");
    let s = TpRelation::base("s", rows_s, vars).expect("sliding rows are duplicate-free");
    StreamWorkload::new(
        r,
        s,
        &ReplayConfig {
            lateness: stride / 4,
            // One advance per epoch's worth of arrivals (both sides).
            advance_every: (2 * facts * copies) as usize,
            seed: cfg.seed,
        },
    )
}

/// Parameters of the immortal-facts stream ([`immortal_facts_stream`]).
#[derive(Debug, Clone, Copy)]
pub struct ImmortalConfig {
    /// Watermark advances (epochs) to generate.
    pub epochs: usize,
    /// Tuples per side per epoch in the sliding body.
    pub per_epoch: usize,
    /// Distinct facts the body tuples rotate over.
    pub facts: usize,
    /// Facts whose single tuple spans the **whole** timeline: their
    /// residuals stay carried (hence their arena segment stays live)
    /// until the final watermark.
    pub immortals: usize,
    /// Time points per epoch.
    pub stride: i64,
    /// Seed for the per-tuple probability jitter.
    pub seed: u64,
}

impl Default for ImmortalConfig {
    fn default() -> Self {
        ImmortalConfig {
            epochs: 64,
            per_epoch: 16,
            facts: 8,
            immortals: 2,
            stride: 64,
            seed: 31,
        }
    }
}

/// A sliding-window stream with a small **immortal cohort**: `immortals`
/// facts contribute one tuple per side spanning the entire timeline, so
/// their residuals are carried — and their arena segment stays live —
/// for the whole run, while the body behaves exactly like
/// [`sliding_synth_stream`]. This is the adversarial shape for
/// **prefix-ordered** segment retirement: the immortal cohort's segment
/// sits at the front of the seal order and pins every later segment,
/// so residency grows linearly with `epochs`. Interior reclamation
/// ([`tp_stream::ReclaimConfig::interior`]) retires the dead body
/// segments around the pinned one and plateaus instead — the contrast
/// the `raw_speed` bench section measures.
pub fn immortal_facts_stream(cfg: &ImmortalConfig, vars: &mut VarTable) -> StreamWorkload {
    use tp_core::fact::Fact;
    use tp_core::interval::Interval;

    let facts = cfg.facts.max(1) as i64;
    let stride = cfg.stride.max(8);
    let horizon = cfg.epochs.max(1) as i64 * stride;
    let copies = ((cfg.per_epoch as i64 / facts).max(1)).min(stride / 4);
    let sub = stride / copies;
    let span = (sub / 2).max(1);
    let jitter = |x: i64| 0.25 + 0.5 * (((cfg.seed as i64 + x).rem_euclid(97)) as f64 / 97.0);
    let mut rows_r = Vec::new();
    let mut rows_s = Vec::new();
    // The immortal cohort: facts 0..immortals, one whole-timeline tuple
    // per side (offset by one point so the pair overlaps rather than
    // coincides). Arriving at t=0, they land in the earliest arena
    // segment a reclaiming engine ever seals.
    for i in 0..cfg.immortals as i64 {
        let fact = Fact::single(i);
        rows_r.push((fact.clone(), Interval::at(0, horizon), jitter(i)));
        rows_s.push((fact, Interval::at(1, horizon + 1), jitter(i + 1)));
    }
    // The sliding body, on facts disjoint from the immortal cohort.
    for e in 0..cfg.epochs as i64 {
        for f in 0..facts {
            for c in 0..copies {
                let fact = Fact::single(cfg.immortals as i64 + f);
                let base = e * stride + c * sub;
                rows_r.push((
                    fact.clone(),
                    Interval::at(base, base + span),
                    jitter(base + f),
                ));
                rows_s.push((
                    fact,
                    Interval::at(base + span / 3, base + span / 3 + span),
                    jitter(base + f + 1),
                ));
            }
        }
    }
    let r = TpRelation::base("r", rows_r, vars).expect("immortal rows are duplicate-free");
    let s = TpRelation::base("s", rows_s, vars).expect("immortal rows are duplicate-free");
    StreamWorkload::new(
        r,
        s,
        &ReplayConfig {
            lateness: stride / 4,
            advance_every: (2 * facts * copies) as usize,
            seed: cfg.seed,
        },
    )
}

/// Parameters of the skew-hot synthetic stream ([`skewed_synth_stream`]).
#[derive(Debug, Clone, Copy)]
pub struct SkewedConfig {
    /// Watermark advances (epochs) to generate.
    pub epochs: usize,
    /// Tuples per side per epoch, Zipf-allocated over the slots.
    pub per_epoch: usize,
    /// Time slots per epoch the Zipf allocation ranks (slot 0 is the
    /// hottest).
    pub slots: usize,
    /// Zipf exponent of the slot allocation (0 = uniform; higher = one
    /// scorching region per epoch).
    pub exponent: f64,
    /// Time points per epoch.
    pub stride: i64,
    /// Seed for the per-tuple probability jitter.
    pub seed: u64,
}

impl Default for SkewedConfig {
    fn default() -> Self {
        SkewedConfig {
            epochs: 64,
            per_epoch: 64,
            slots: 8,
            exponent: 1.5,
            stride: 512,
            seed: 23,
        }
    }
}

/// Zipf allocation of `total` tuples over `slots` ranked slots: slot `i`
/// gets a share proportional to `(i + 1)^-exponent`, rounded by largest
/// remainder so the counts sum to `total` exactly. Deterministic; exposed
/// for the workload tests and the bench harness.
pub fn zipf_slot_counts(total: usize, slots: usize, exponent: f64) -> Vec<usize> {
    let slots = slots.max(1);
    let weights: Vec<f64> = (0..slots)
        .map(|i| 1.0 / ((i + 1) as f64).powf(exponent.max(0.0)))
        .collect();
    let sum: f64 = weights.iter().sum();
    let mut counts: Vec<usize> = Vec::with_capacity(slots);
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(slots);
    let mut assigned = 0usize;
    for (i, w) in weights.iter().enumerate() {
        let exact = total as f64 * w / sum;
        let floor = exact.floor() as usize;
        counts.push(floor);
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    // Largest remainders absorb the rounding gap (ties by slot rank, so
    // the allocation is deterministic).
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    for k in 0..total - assigned {
        counts[remainders[k % slots].0] += 1;
    }
    counts
}

/// A synthetic stream with **Zipf-hot time regions**: each epoch's tuples
/// are allocated over its time slots by [`zipf_slot_counts`], so one slot
/// per epoch carries most of the load while the rest are sparse: many
/// facts pile up on a few start points in every advance. Duplicate-free by
/// construction: every (slot, copy) pair is its own fact, recurring once
/// per epoch within its slot. Returns the full pair for batch cross-checks
/// plus a script advancing once per epoch.
pub fn skewed_synth_stream(cfg: &SkewedConfig, vars: &mut VarTable) -> StreamWorkload {
    use tp_core::fact::Fact;
    use tp_core::interval::Interval;

    let slots = cfg.slots.max(1) as i64;
    let stride = cfg.stride.max(8 * slots);
    let sub = stride / slots;
    // Left spans at most 2/3 of a slot; the right side trails by a third
    // of the span, so both sides stay inside the slot and overlap.
    let span = (sub * 2 / 3).max(2);
    let counts = zipf_slot_counts(cfg.per_epoch.max(1), cfg.slots.max(1), cfg.exponent);
    let jitter = |x: i64| 0.2 + 0.6 * (((cfg.seed as i64 + x).rem_euclid(89)) as f64 / 89.0);
    let mut rows_r = Vec::new();
    let mut rows_s = Vec::new();
    for e in 0..cfg.epochs as i64 {
        for (slot, &count) in counts.iter().enumerate() {
            let lo = e * stride + slot as i64 * sub;
            for k in 0..count as i64 {
                // Distinct fact per (slot, copy): hot-slot tuples overlap
                // each other in time without ever violating per-fact
                // duplicate-freeness.
                let fact = Fact::single(slot as i64 * cfg.per_epoch as i64 + k);
                rows_r.push((fact.clone(), Interval::at(lo, lo + span), jitter(lo + k)));
                rows_s.push((
                    fact,
                    Interval::at(lo + span / 3, lo + span / 3 + span),
                    jitter(lo + k + 1),
                ));
            }
        }
    }
    let r = TpRelation::base("r", rows_r, vars).expect("skewed rows are duplicate-free");
    let s = TpRelation::base("s", rows_s, vars).expect("skewed rows are duplicate-free");
    StreamWorkload::new(
        r,
        s,
        &ReplayConfig {
            lateness: sub / 4,
            // One advance per epoch's worth of arrivals (both sides).
            advance_every: 2 * cfg.per_epoch.max(1),
            seed: cfg.seed,
        },
    )
}

/// The simulated WebKit history as a stream, with a shifted counterpart.
pub fn webkit_stream(
    cfg: &WebkitConfig,
    shift: i64,
    replay: &ReplayConfig,
    vars: &mut VarTable,
) -> StreamWorkload {
    let r = webkit::generate(cfg, vars);
    let s = crate::shift::shifted_copy(&r, "k", shift, replay.seed, vars);
    StreamWorkload::new(r, s, replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::ops::{self, SetOp};
    use tp_stream::EngineConfig;

    fn assert_stream_equals_batch(w: &StreamWorkload) {
        let (sink, totals) = w.script.run(EngineConfig::default());
        assert_eq!(totals.late, [0, 0]);
        for op in SetOp::ALL {
            assert_eq!(
                sink.relation(op).canonicalized(),
                ops::apply(op, &w.r, &w.s).canonicalized(),
                "{op}"
            );
        }
    }

    #[test]
    fn synth_replay_matches_batch() {
        let mut vars = VarTable::new();
        let w = synth_stream(
            &SynthConfig::with_facts(600, 5, 11),
            &ReplayConfig::default(),
            &mut vars,
        );
        assert!(w.script.arrivals() == w.r.len() + w.s.len());
        assert_stream_equals_batch(&w);
    }

    #[test]
    fn sliding_stream_is_duplicate_free_and_matches_batch() {
        let mut vars = VarTable::new();
        let w = sliding_synth_stream(&SlidingConfig::default(), &mut vars);
        w.r.check_duplicate_free().unwrap();
        w.s.check_duplicate_free().unwrap();
        assert!(w.script.advances() >= SlidingConfig::default().epochs / 2);
        assert_stream_equals_batch(&w);
    }

    #[test]
    fn sliding_stream_live_window_is_independent_of_epochs() {
        // The workload contract behind the bounded-memory gate: doubling
        // the epochs doubles the tuples but not the per-epoch live set.
        let mut vars = VarTable::new();
        let short = sliding_synth_stream(
            &SlidingConfig {
                epochs: 16,
                ..Default::default()
            },
            &mut vars,
        );
        let long = sliding_synth_stream(
            &SlidingConfig {
                epochs: 32,
                ..Default::default()
            },
            &mut vars,
        );
        assert_eq!(long.r.len(), 2 * short.r.len());
        assert_eq!(long.script.arrivals(), 2 * short.script.arrivals());
        // Advances scale with epochs (the bounded live set per advance is
        // what the reclaiming engine turns into a memory plateau).
        assert!(long.script.advances() >= 2 * short.script.advances() - 2);
    }

    #[test]
    fn immortal_stream_is_duplicate_free_and_matches_batch() {
        let mut vars = VarTable::new();
        let cfg = ImmortalConfig {
            epochs: 12,
            ..Default::default()
        };
        let w = immortal_facts_stream(&cfg, &mut vars);
        w.r.check_duplicate_free().unwrap();
        w.s.check_duplicate_free().unwrap();
        // The cohort really is immortal: per side, `immortals` tuples
        // span the whole timeline.
        let horizon = cfg.epochs as i64 * cfg.stride;
        let immortal = |rel: &TpRelation| {
            rel.iter()
                .filter(|t| t.interval.start() <= 1 && t.interval.end() >= horizon)
                .count()
        };
        assert_eq!(immortal(&w.r), cfg.immortals);
        assert_eq!(immortal(&w.s), cfg.immortals);
        assert!(w.script.advances() >= cfg.epochs / 2);
        assert_stream_equals_batch(&w);
    }

    #[test]
    fn zipf_slot_counts_sum_and_skew() {
        let counts = zipf_slot_counts(640, 8, 1.5);
        assert_eq!(counts.iter().sum::<usize>(), 640);
        assert!(
            counts[0] >= 3 * counts[7].max(1),
            "no skew: {counts:?} (hot slot must dominate the tail)"
        );
        // Deterministic and monotone in rank.
        assert_eq!(counts, zipf_slot_counts(640, 8, 1.5));
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        // Exponent 0 is uniform.
        let flat = zipf_slot_counts(64, 8, 0.0);
        assert!(flat.iter().all(|&c| c == 8), "{flat:?}");
    }

    #[test]
    fn skewed_stream_is_duplicate_free_hot_and_matches_batch() {
        let mut vars = VarTable::new();
        let cfg = SkewedConfig {
            epochs: 12,
            per_epoch: 48,
            ..Default::default()
        };
        let w = skewed_synth_stream(&cfg, &mut vars);
        w.r.check_duplicate_free().unwrap();
        w.s.check_duplicate_free().unwrap();
        assert_eq!(w.r.len(), cfg.epochs * cfg.per_epoch);
        assert!(w.script.advances() >= cfg.epochs / 2);
        // The hot region really is hot: most of an epoch's left tuples
        // start in the first slot.
        let stride = cfg.stride;
        let sub = stride / cfg.slots as i64;
        let hot =
            w.r.iter()
                .filter(|t| t.interval.start().rem_euclid(stride) < sub)
                .count();
        assert!(
            hot * 3 >= w.r.len(),
            "hot slot holds only {hot}/{} tuples",
            w.r.len()
        );
        assert_stream_equals_batch(&w);
    }

    #[test]
    fn meteo_replay_matches_batch() {
        let mut vars = VarTable::new();
        let w = meteo_stream(
            &MeteoConfig {
                stations: 8,
                tuples: 400,
                ..Default::default()
            },
            6 * 600,
            &ReplayConfig {
                lateness: 600,
                advance_every: 32,
                seed: 5,
            },
            &mut vars,
        );
        assert_stream_equals_batch(&w);
    }

    #[test]
    fn webkit_replay_matches_batch() {
        let mut vars = VarTable::new();
        let w = webkit_stream(
            &WebkitConfig {
                files: 60,
                tuples: 400,
                ..Default::default()
            },
            10_000,
            &ReplayConfig {
                lateness: 2_000,
                advance_every: 48,
                seed: 9,
            },
            &mut vars,
        );
        assert_stream_equals_batch(&w);
    }
}
