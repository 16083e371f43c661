//! `tenants_sliding`: four sliding-window tenants behind one
//! `StreamServer`, advanced in collective watermark waves.
//!
//! The ingest and arena layers in their write-heavy, bounded-memory use:
//! shuffled arrivals, a variable registered per pushed row, a private
//! arena per tenant, seal/retire on every wave.

use std::sync::Arc;

use tp_core::fact::Fact;
use tp_core::interval::{Interval, TimePoint};
use tp_core::ops::{self, SetOp};
use tp_core::relation::VarTable;
use tp_obs::MetricsRegistry;
use tp_stream::{
    CountingSink, IngestOutcome, MaterializingSink, ObsConfig, ServerConfig, Side, StreamServer,
    StreamSink, TenantId,
};
use tp_workloads::{multi_tenant_stream, MultiTenantConfig, TenantEvent, TenantScript};

use crate::inputs::fresh_arena;
use crate::spans::Tracer;
use crate::stream::{stage_layers, BenchSink, EngineCounts, TimedSink};
use crate::workload::{Layers, Pass, Scale, Verdict, Workload};

/// One step of the fleet's replay, in the order
/// `tp_workloads::replay_waves` drives it: every tenant's rows up to its
/// next advance, tenant by tenant, then one wave for all. The loop is the
/// benchmark's own because `replay_waves` gives no place to time a wave.
enum Step {
    Row {
        tenant: usize,
        side: Side,
        fact: Fact,
        interval: Interval,
        p: f64,
    },
    Wave(TimePoint),
}

pub struct TenantsSliding {
    scripts: Vec<TenantScript>,
    steps: Vec<Step>,
    rows: u64,
}

impl TenantsSliding {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let scripts = multi_tenant_stream(&MultiTenantConfig {
            tenants: 4,
            epochs: scale.pick(500, 24),
            per_epoch: 96,
            facts: 16,
            stride: 512,
            seed,
        });
        let mut steps = Vec::new();
        let mut cursors = vec![0usize; scripts.len()];
        loop {
            let mut wave = None;
            for (tenant, script) in scripts.iter().enumerate() {
                while let Some(event) = script.events.get(cursors[tenant]) {
                    cursors[tenant] += 1;
                    match event {
                        TenantEvent::Arrive {
                            side,
                            fact,
                            interval,
                            p,
                        } => steps.push(Step::Row {
                            tenant,
                            side: *side,
                            fact: fact.clone(),
                            interval: *interval,
                            p: *p,
                        }),
                        TenantEvent::Advance(w) => {
                            assert!(
                                wave.is_none_or(|prev| prev == *w),
                                "tenants disagree on the wave watermark"
                            );
                            wave = Some(*w);
                            break;
                        }
                    }
                }
            }
            match wave {
                Some(w) => steps.push(Step::Wave(w)),
                None => break,
            }
        }
        let rows = steps
            .iter()
            .filter(|s| matches!(s, Step::Row { .. }))
            .count() as u64;
        TenantsSliding {
            scripts,
            steps,
            rows,
        }
    }

    /// A single-worker server with one tenant per script.
    fn server<S: StreamSink + Send + Default>(
        &self,
        registry: Option<Arc<MetricsRegistry>>,
    ) -> (StreamServer<S>, Vec<TenantId>) {
        let mut server = StreamServer::new(ServerConfig {
            workers: 1,
            obs: ObsConfig {
                registry,
                ..Default::default()
            },
            ..Default::default()
        });
        let ids = self
            .scripts
            .iter()
            .map(|s| server.add_tenant(s.name.clone(), S::default()))
            .collect();
        (server, ids)
    }

    /// Drives the steps through `server`. `sink_ns` reads the fleet's
    /// cumulative sink time; `on_wave` runs after each wave, untimed.
    fn replay<S: StreamSink + Send>(
        &self,
        server: &mut StreamServer<S>,
        ids: &[TenantId],
        tr: &mut Tracer,
        sink_ns: impl Fn(&StreamServer<S>) -> u64,
        mut on_wave: impl FnMut(&StreamServer<S>),
    ) -> (EngineCounts, u64) {
        let mut c = EngineCounts::start();
        for step in &self.steps {
            match step {
                Step::Row {
                    tenant,
                    side,
                    fact,
                    interval,
                    p,
                } => {
                    let outcome = server.push_row(ids[*tenant], *side, fact.clone(), *interval, *p);
                    c.pushed(matches!(outcome, Ok(IngestOutcome::Accepted)));
                }
                Step::Wave(w) => {
                    c.advance(tr, || (server.advance_all(*w), sink_ns(server)));
                    c.untimed(|| on_wave(server));
                }
            }
        }
        c.advance(tr, || (server.finish_all(), sink_ns(server)));
        let pass_ns = c.elapsed_ns();
        (c, pass_ns)
    }
}

impl Workload for TenantsSliding {
    fn pass(&self, tr: &mut Tracer) -> Pass {
        // Tenants intern into private arenas; the scope only keeps the
        // pass off the global one.
        let (_arena, _scope) = fresh_arena();
        let mut layers = Layers::new();
        let (c, pass_ns) = if tr.on {
            let registry = Arc::new(MetricsRegistry::new());
            let (mut server, ids) = self.server::<TimedSink>(Some(registry.clone()));
            let fleet_sink_ns = |server: &StreamServer<TimedSink>| -> u64 {
                ids.iter().map(|&id| server.sink(id).sink_ns()).sum()
            };
            let (mut vars_peak, mut bytes_peak) = (0usize, 0usize);
            let (c, pass_ns) = self.replay(&mut server, &ids, tr, fleet_sink_ns, |server| {
                let (mut vars, mut bytes) = (0, 0);
                for &id in &ids {
                    vars += server.vars(id).live_vars();
                    bytes += server.arena_stats(id).resident_bytes;
                }
                vars_peak = vars_peak.max(vars);
                bytes_peak = bytes_peak.max(bytes);
            });
            let (mut nodes, mut retired, mut released) = (0u64, 0u64, 0u64);
            for &id in &ids {
                nodes += server.arena_stats(id).total_interned;
                retired += server.engine(id).reclaimed().0;
                released += server.engine(id).reclaimed_vars();
            }
            stage_layers(&registry, c.advance_ns, &mut layers);
            layers.insert("core.arena.nodes_interned", nodes as f64);
            layers.insert("core.arena.resident_bytes_peak", bytes_peak as f64);
            layers.insert("core.arena.retired_segments", retired as f64);
            layers.insert("stream.server.vars_live_peak", vars_peak as f64);
            layers.insert("stream.server.released_vars", released as f64);
            (c, pass_ns)
        } else {
            let (mut server, ids) = self.server::<CountingSink>(None);
            self.replay(&mut server, &ids, tr, |_| 0, |_| {})
        };
        c.layers(pass_ns, tr.on, &mut layers);
        let push_ns = layers["stream.engine.push_ns_per_tuple"];
        layers.insert("stream.server.push_row_ns_per_row", push_ns);
        Pass {
            units: self.rows,
            secs: pass_ns as f64 / 1e9,
            attempted: c.pushes + c.advances,
            failed: c.late + c.errors,
            latencies_ms: c.latencies_ms,
            layers,
        }
    }

    fn oracle(&self) -> Verdict {
        let mut v = Verdict::default();
        let (_arena, _scope) = fresh_arena();
        let (mut server, ids) = self.server::<MaterializingSink>(None);
        let (c, _) = self.replay(&mut server, &ids, &mut Tracer::off(), |_| 0, |_| {});
        v.check(c.pushes == self.rows && c.late + c.errors == 0, || {
            format!(
                "{} of {} rows rejected, {} waves failed",
                c.late, c.pushes, c.errors
            )
        });
        for (script, &id) in self.scripts.iter().zip(&ids) {
            // Deltas were materialized on arrival; the retired lineage they
            // came from is gone, so the replay interns them afresh here.
            let streamed = server.sink(id).replay();
            let (r, s) = script.relations(&mut VarTable::new());
            for op in SetOp::ALL {
                let batch = ops::apply(op, &r, &s).canonicalized();
                v.check(streamed.relation(op).canonicalized() == batch, || {
                    format!("{}: streamed {op} differs from ops::apply", script.name)
                });
            }
        }
        v
    }
}
