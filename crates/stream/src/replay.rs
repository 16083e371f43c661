//! Stream replay: turning a batch relation pair into a reproducible
//! out-of-order arrival sequence with a watermark schedule.
//!
//! A [`StreamScript`] is the deterministic unit the property tests, the
//! benchmarks and the workload adapters share: every tuple of the pair is
//! assigned an *arrival time* `Ts + delay` with `delay ∈ [0, lateness]`
//! drawn from a seeded RNG, arrivals are ordered by that time (any
//! permutation within the lateness bound can occur), and a watermark
//! advance to `arrival_time − lateness` is injected every
//! `advance_every` arrivals — safe by construction: a tuple arriving later
//! has `Ts ≥ arrival − lateness`, so scripts never drop tuples as late.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use tp_core::interval::TimePoint;
use tp_core::relation::TpRelation;
use tp_core::tuple::TpTuple;

use crate::delta::CollectingSink;
use crate::engine::{AdvanceStats, EngineConfig, Side, StreamEngine};

/// One step of a replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayEvent {
    /// A tuple arrives on one input side.
    Arrive(Side, TpTuple),
    /// The watermark advances to the given time.
    Advance(TimePoint),
}

/// Parameters of script generation.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Maximum arrival delay after a tuple's start (the lateness bound).
    pub lateness: i64,
    /// A watermark advance is injected every this many arrivals.
    pub advance_every: usize,
    /// RNG seed for the arrival delays.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            lateness: 4,
            advance_every: 64,
            seed: 7,
        }
    }
}

/// A deterministic arrival + watermark sequence over a relation pair.
#[derive(Debug, Clone, Default)]
pub struct StreamScript {
    /// The steps, in replay order.
    pub events: Vec<ReplayEvent>,
}

/// Totals of one script replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayTotals {
    /// Watermark advances executed.
    pub advances: u64,
    /// LAWA windows swept across all advances.
    pub windows: usize,
    /// `Insert` deltas across all ops.
    pub inserts: u64,
    /// `Extend` deltas across all ops.
    pub extends: u64,
    /// Tuples dropped as late `[left, right]` (always zero for generated
    /// scripts).
    pub late: [u64; 2],
}

impl ReplayTotals {
    fn absorb(&mut self, stats: &AdvanceStats) {
        self.advances += 1;
        self.windows += stats.windows;
        self.inserts += stats.inserts;
        self.extends += stats.extends;
    }
}

impl StreamScript {
    /// Builds a script replaying `r` and `s` with out-of-order arrivals
    /// within `cfg.lateness` and periodic watermark advances.
    pub fn from_pair(r: &TpRelation, s: &TpRelation, cfg: &ReplayConfig) -> StreamScript {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let lateness = cfg.lateness.max(0);
        let mut arrivals: Vec<(TimePoint, u64, Side, TpTuple)> = Vec::new();
        for (side, rel) in [(Side::Left, r), (Side::Right, s)] {
            for t in rel.iter() {
                let delay = rng.random_range(0..=lateness);
                // The random tiebreak shuffles equal arrival times, so
                // same-instant arrivals interleave across sides too.
                arrivals.push((
                    t.interval.start() + delay,
                    rng.random::<u64>(),
                    side,
                    t.clone(),
                ));
            }
        }
        arrivals.sort_by_key(|a| (a.0, a.1));

        let advance_every = cfg.advance_every.max(1);
        let mut events = Vec::with_capacity(arrivals.len() + arrivals.len() / advance_every + 2);
        let mut last_w = TimePoint::MIN;
        let mut hi = TimePoint::MIN;
        for (i, (at, _, side, t)) in arrivals.into_iter().enumerate() {
            hi = hi.max(t.interval.end());
            events.push(ReplayEvent::Arrive(side, t));
            if (i + 1) % advance_every == 0 {
                let w = at - lateness;
                if w > last_w {
                    events.push(ReplayEvent::Advance(w));
                    last_w = w;
                }
            }
        }
        if hi > last_w {
            events.push(ReplayEvent::Advance(hi));
        }
        StreamScript { events }
    }

    /// Number of arrival events.
    pub fn arrivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ReplayEvent::Arrive(..)))
            .count()
    }

    /// Number of watermark advances.
    pub fn advances(&self) -> usize {
        self.events.len() - self.arrivals()
    }

    /// Replays the script into a fresh engine, collecting the materialized
    /// results per operation.
    pub fn run(&self, cfg: EngineConfig) -> (CollectingSink, ReplayTotals) {
        let mut sink = CollectingSink::new();
        let totals = self.run_into(cfg, &mut sink);
        (sink, totals)
    }

    /// Replays the script into the given sink.
    pub fn run_into(
        &self,
        cfg: EngineConfig,
        sink: &mut impl crate::delta::StreamSink,
    ) -> ReplayTotals {
        let mut engine = StreamEngine::new(cfg);
        let mut totals = ReplayTotals::default();
        for event in &self.events {
            match event {
                ReplayEvent::Arrive(side, t) => {
                    engine.push(*side, t.clone());
                }
                ReplayEvent::Advance(w) => {
                    let stats = engine
                        .advance(*w, sink)
                        .expect("script watermarks monotone");
                    totals.absorb(&stats);
                }
            }
        }
        if let Ok(stats) = engine.finish(sink) {
            if stats.windows > 0 {
                totals.absorb(&stats);
            }
        }
        totals.late = engine.late_dropped();
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::fact::Fact;
    use tp_core::interval::Interval;
    use tp_core::ops::{self, SetOp};
    use tp_core::relation::VarTable;

    fn chain_pair(seed_fact: i64) -> (TpRelation, TpRelation) {
        let mut vars = VarTable::new();
        let mut rows_r = Vec::new();
        let mut rows_s = Vec::new();
        for k in 0..30i64 {
            rows_r.push((Fact::single(seed_fact), Interval::at(9 * k, 9 * k + 6), 0.5));
            rows_s.push((
                Fact::single(seed_fact),
                Interval::at(9 * k + 3, 9 * k + 8),
                0.5,
            ));
        }
        (
            TpRelation::base("r", rows_r, &mut vars).unwrap(),
            TpRelation::base("s", rows_s, &mut vars).unwrap(),
        )
    }

    #[test]
    fn scripts_are_deterministic_and_complete() {
        let (r, s) = chain_pair(1);
        let cfg = ReplayConfig::default();
        let a = StreamScript::from_pair(&r, &s, &cfg);
        let b = StreamScript::from_pair(&r, &s, &cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.arrivals(), r.len() + s.len());
        assert!(a.advances() >= 1);
        // Watermarks are strictly increasing.
        let mut last = TimePoint::MIN;
        for e in &a.events {
            if let ReplayEvent::Advance(w) = e {
                assert!(*w > last);
                last = *w;
            }
        }
    }

    #[test]
    fn replayed_results_match_batch_and_drop_nothing() {
        let (r, s) = chain_pair(2);
        for (lateness, every, seed) in [(0, 1, 1), (4, 8, 2), (9, 200, 3)] {
            let script = StreamScript::from_pair(
                &r,
                &s,
                &ReplayConfig {
                    lateness,
                    advance_every: every,
                    seed,
                },
            );
            let (sink, totals) = script.run(EngineConfig::default());
            assert_eq!(totals.late, [0, 0], "scripts never drop tuples");
            for op in SetOp::ALL {
                assert_eq!(
                    sink.relation(op).canonicalized(),
                    ops::apply(op, &r, &s).canonicalized(),
                    "lateness {lateness}, every {every}, {op}"
                );
            }
        }
    }
}
