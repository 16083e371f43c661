//! The multi-tenant stream server: N independent continuous-LAWA tenants,
//! each with **fully bounded memory**, behind one façade.
//!
//! The north star scenario — millions of users, one stream each — needs
//! per-stream isolation on both memory axes:
//!
//! * **lineage**: every tenant's engine runs in reclaim mode, i.e. inside
//!   its own private [`LineageArena`](tp_core::arena::LineageArena)
//!   ([`LineageArena::enter`](tp_core::arena::LineageArena::enter) per
//!   engine call). One tenant's seal/retire schedule can never invalidate — or
//!   even observe — another tenant's handles; `arena_stats` are strictly
//!   per tenant.
//! * **variables**: every tenant owns a sliding [`VarTable`] registry
//!   wired into its engine's [`ReclaimConfig::vars`]. Variables are
//!   registered at push time ([`StreamServer::push_row`]) and retire with
//!   the arena segment of the same advance window, so the registry is
//!   proportional to the live window, not to history.
//!
//! [`StreamServer::advance_all`] drives a watermark wave across all
//! tenants, sharding the live advances over a pool of scoped worker
//! threads (each tenant's advance is single-threaded and independent, so
//! the shard runs lock-free). Results are deterministic: a tenant's delta
//! log is byte-identical whether it is advanced alone or in a wave next to
//! thousands of others — the soak tests assert exactly that.

use std::sync::Arc;

use tp_core::arena::ArenaStats;
use tp_core::error::Result as CoreResult;
use tp_core::fact::Fact;
use tp_core::interval::{Interval, TimePoint};
use tp_core::lineage::Lineage;
use tp_core::ops::SetOp;
use tp_core::relation::VarTable;
use tp_core::tuple::TpTuple;

use crate::delta::StreamSink;
use crate::engine::{
    AdvanceStats, EngineConfig, IngestOutcome, ReclaimConfig, Side, StreamEngine, StreamError,
    WatermarkPolicy,
};
use crate::obs::ObsConfig;
use crate::pipeline::PipelineError;
use tp_obs::{Histogram, MetricsRegistry};

/// Identifier of one tenant stream within a [`StreamServer`]. Dense per
/// server, assigned by [`StreamServer::add_tenant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub usize);

/// Construction parameters of a [`StreamServer`]. Of the reclaim settings
/// only the grace window is configurable (not a whole [`ReclaimConfig`]):
/// the server always wires each tenant's *own* private arena and var
/// registry in, so a shared `vars` table is unrepresentable by
/// construction.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Operations maintained for every tenant (they share one sweep per
    /// advance either way).
    pub ops: Vec<SetOp>,
    /// Per-tenant retirement grace window ([`ReclaimConfig::keep_epochs`]).
    pub keep_epochs: usize,
    /// Tenant shards of one watermark wave: how many tenants advance
    /// concurrently, each on its own scoped thread. 1 = fully serial.
    pub workers: usize,
    /// Observability template applied to every tenant engine: `registry`
    /// carries over per tenant; the `tenant` label is always overwritten
    /// with the tenant's name, so each tenant's metrics and spans stay
    /// attributable within the shared registry.
    pub obs: ObsConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ops: SetOp::ALL.to_vec(),
            keep_epochs: ReclaimConfig::default().keep_epochs,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            obs: ObsConfig::default(),
        }
    }
}

/// One tenant: engine (private arena), sliding var registry, sink, and
/// running totals.
struct Tenant<S> {
    name: String,
    engine: StreamEngine,
    vars: Arc<VarTable>,
    sink: S,
    last: AdvanceStats,
    pushed: u64,
    /// Rows [`StreamServer::push_row`] rejected as late before
    /// registration (the engine's own `late_dropped` only sees rows that
    /// reached it).
    late_rejected: u64,
    /// Wave-latency histogram (`tp_wave_advance_ns{tenant=…}`).
    wave_ns: Arc<Histogram>,
}

impl<S: StreamSink> Tenant<S> {
    fn advance(&mut self, to: TimePoint) -> Result<AdvanceStats, StreamError> {
        let t0 = crate::obs::now_ns();
        let stats = self.engine.advance(to, &mut self.sink)?;
        self.wave_ns.record(crate::obs::now_ns() - t0);
        self.last = stats;
        Ok(stats)
    }
}

/// A multiplexer of N independent bounded-memory [`StreamEngine`]s; see
/// the module docs. `S` is the per-tenant sink type.
pub struct StreamServer<S> {
    cfg: ServerConfig,
    tenants: Vec<Tenant<S>>,
}

impl<S: StreamSink + Send> StreamServer<S> {
    /// Creates an empty server.
    pub fn new(cfg: ServerConfig) -> Self {
        StreamServer {
            cfg,
            tenants: Vec::new(),
        }
    }

    /// Adds a tenant with the given sink. The tenant gets a fresh private
    /// arena and a fresh sliding var registry wired into its engine.
    pub fn add_tenant(&mut self, name: impl Into<String>, sink: S) -> TenantId {
        self.add_tenant_with(name, |_| sink)
    }

    /// Adds a tenant whose sink is built against the tenant's var registry
    /// — for monitors that valuate deltas the moment they arrive (inside
    /// the engine's arena scope, per the reclaim consumption contract).
    pub fn add_tenant_with(
        &mut self,
        name: impl Into<String>,
        make_sink: impl FnOnce(&Arc<VarTable>) -> S,
    ) -> TenantId {
        let name = name.into();
        let (cfg, vars) = self.tenant_engine_config(&name);
        let engine = StreamEngine::new(cfg);
        self.push_tenant(name, engine, vars, make_sink)
    }

    /// Adds a tenant with a **standing pipeline** compiled from `plan` and
    /// fed from the tenant's `taps[i]` delta streams
    /// ([`StreamEngine::with_plan`]): the tenant continuously maintains
    /// the plan's materialized view next to its delta sink, under the same
    /// bounded-memory regime as every other tenant. Read it back through
    /// [`StreamServer::engine`] → [`StreamEngine::pipeline`]. The
    /// one-plan case of [`StreamServer::add_tenant_with_plans`].
    pub fn add_tenant_with_plan(
        &mut self,
        name: impl Into<String>,
        plan: &tp_relalg::Plan,
        taps: &[SetOp],
        make_sink: impl FnOnce(&Arc<VarTable>) -> S,
    ) -> Result<TenantId, PipelineError> {
        self.add_tenant_with_plans(
            name,
            std::slice::from_ref(plan),
            &[taps.to_vec()],
            make_sink,
        )
    }

    /// Adds a tenant with **several standing plans** compiled into one
    /// shared pipeline ([`StreamEngine::with_plans`]): structurally
    /// identical sub-DAGs with the same tap bindings run once and fan out,
    /// so a tenant's K alert rules over the same join pay for its operator
    /// state a single time. `taps[p]` feeds plan `p`'s sources.
    pub fn add_tenant_with_plans(
        &mut self,
        name: impl Into<String>,
        plans: &[tp_relalg::Plan],
        taps: &[Vec<SetOp>],
        make_sink: impl FnOnce(&Arc<VarTable>) -> S,
    ) -> Result<TenantId, PipelineError> {
        let name = name.into();
        let (cfg, vars) = self.tenant_engine_config(&name);
        let engine = StreamEngine::with_plans(cfg, plans, taps)?;
        Ok(self.push_tenant(name, engine, vars, make_sink))
    }

    /// The per-tenant engine configuration: fresh private arena + sliding
    /// var registry, manual watermarks.
    fn tenant_engine_config(&self, name: &str) -> (EngineConfig, Arc<VarTable>) {
        let vars = Arc::new(VarTable::new());
        let obs = ObsConfig {
            tenant: Some(name.to_string()),
            ..self.cfg.obs.clone()
        };
        let cfg = EngineConfig {
            ops: self.cfg.ops.clone(),
            policy: WatermarkPolicy::Manual,
            reclaim: Some(ReclaimConfig {
                keep_epochs: self.cfg.keep_epochs,
                vars: Some(Arc::clone(&vars)),
            }),
            obs,
        };
        (cfg, vars)
    }

    fn push_tenant(
        &mut self,
        name: String,
        engine: StreamEngine,
        vars: Arc<VarTable>,
        make_sink: impl FnOnce(&Arc<VarTable>) -> S,
    ) -> TenantId {
        let reg: &MetricsRegistry = match &self.cfg.obs.registry {
            Some(r) => r,
            None => tp_obs::global(),
        };
        let wave_ns = reg.histogram("tp_wave_advance_ns", &[("tenant", name.as_str())]);
        let sink = make_sink(&vars);
        self.tenants.push(Tenant {
            name,
            engine,
            vars,
            sink,
            last: AdvanceStats::default(),
            pushed: 0,
            late_rejected: 0,
            wave_ns,
        });
        TenantId(self.tenants.len() - 1)
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The tenant's name.
    pub fn tenant_name(&self, t: TenantId) -> &str {
        &self.tenants[t.0].name
    }

    /// Ingests one base row for a tenant: registers a fresh variable with
    /// probability `p` in the tenant's sliding registry, builds the atomic
    /// lineage *inside the tenant's arena*, and pushes the tuple. This is
    /// the registration discipline [`ReclaimConfig::vars`] requires —
    /// variable and tuple enter the same advance window, so they retire
    /// together.
    pub fn push_row(
        &mut self,
        t: TenantId,
        side: Side,
        fact: impl Into<Fact>,
        interval: Interval,
        p: f64,
    ) -> CoreResult<IngestOutcome> {
        let tenant = &mut self.tenants[t.0];
        // Reject late rows BEFORE registering: a row the engine would
        // drop must not burn a registry slot (an orphaned variable in the
        // open cohort) or inflate the pushed gauge. Same predicate the
        // engine applies; counted per tenant in `late_rejected`.
        if interval.start() < tenant.engine.watermark() {
            tenant.late_rejected += 1;
            return Ok(IngestOutcome::Late);
        }
        // Labels are display-only (rendering falls back to `t{id}`
        // anyway), so a static side tag avoids a per-row format! on the
        // hot ingest path.
        let label = match side {
            Side::Left => "r",
            Side::Right => "s",
        };
        let id = tenant.vars.register_shared(label, p)?;
        // Build and push inside the tenant's arena: the engine's
        // translation then dedup-hits the freshly interned Var node
        // instead of round-tripping through the global arena.
        let scope = tenant.engine.enter_arena();
        let tuple = TpTuple::new(fact, Lineage::var(id), interval);
        let outcome = tenant.engine.push(side, tuple);
        drop(scope);
        tenant.pushed += 1;
        Ok(outcome)
    }

    /// Advances one tenant's watermark (see [`StreamEngine::advance`]).
    pub fn advance(&mut self, t: TenantId, to: TimePoint) -> Result<AdvanceStats, StreamError> {
        self.tenants[t.0].advance(to)
    }

    /// Runs `f` once per tenant, sharding the tenants over the worker
    /// pool ([`ServerConfig::workers`]); results come back in tenant
    /// order. Tenants are fully independent (private arena, private
    /// registry, private sink), so the shard runs lock-free; a single
    /// worker (or tenant) runs inline without spawning.
    fn for_each_tenant<R: Send>(&mut self, f: impl Fn(&mut Tenant<S>) -> R + Sync) -> Vec<R> {
        let workers = self.cfg.workers.clamp(1, self.tenants.len().max(1));
        if workers <= 1 {
            return self.tenants.iter_mut().map(&f).collect();
        }
        let chunk = self.tenants.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .tenants
                .chunks_mut(chunk)
                .map(|shard| {
                    let f = &f;
                    scope.spawn(move || shard.iter_mut().map(f).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("tenant worker panicked"))
                .collect()
        })
    }

    /// Advances every tenant's watermark to `to`, sharding the live
    /// advances across the worker pool ([`ServerConfig::workers`]).
    /// Returns per-tenant results in tenant order; each tenant's outcome
    /// is identical to a serial [`StreamServer::advance`] call.
    pub fn advance_all(&mut self, to: TimePoint) -> Vec<Result<AdvanceStats, StreamError>> {
        self.for_each_tenant(|t| t.advance(to))
    }

    /// Flushes every tenant ([`StreamEngine::finish`]), sharded like
    /// [`StreamServer::advance_all`].
    pub fn finish_all(&mut self) -> Vec<Result<AdvanceStats, StreamError>> {
        self.for_each_tenant(|t| {
            let stats = t.engine.finish(&mut t.sink)?;
            t.last = stats;
            Ok(stats)
        })
    }

    /// The tenant's private-arena statistics — isolated by construction:
    /// no other tenant's retirement can move these numbers.
    pub fn arena_stats(&self, t: TenantId) -> ArenaStats {
        self.tenants[t.0]
            .engine
            .arena_stats()
            .expect("server tenants always run in reclaim mode")
    }

    /// The stats of the tenant's most recent advance.
    pub fn last_stats(&self, t: TenantId) -> AdvanceStats {
        self.tenants[t.0].last
    }

    /// The tenant's sliding var registry.
    pub fn vars(&self, t: TenantId) -> &Arc<VarTable> {
        &self.tenants[t.0].vars
    }

    /// The tenant's sink.
    pub fn sink(&self, t: TenantId) -> &S {
        &self.tenants[t.0].sink
    }

    /// The tenant's sink, mutably.
    pub fn sink_mut(&mut self, t: TenantId) -> &mut S {
        &mut self.tenants[t.0].sink
    }

    /// The tenant's engine (read access for gauges: watermark, buffered,
    /// late counts, reclamation totals).
    pub fn engine(&self, t: TenantId) -> &StreamEngine {
        &self.tenants[t.0].engine
    }

    /// Rows accepted for the tenant via [`StreamServer::push_row`] (late
    /// rejects are excluded — see [`StreamServer::late_rejected`]).
    pub fn pushed(&self, t: TenantId) -> u64 {
        self.tenants[t.0].pushed
    }

    /// Rows [`StreamServer::push_row`] rejected as late before touching
    /// the tenant's registry or engine.
    pub fn late_rejected(&self, t: TenantId) -> u64 {
        self.tenants[t.0].late_rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{CollectingSink, MaterializingSink};
    use tp_core::ops;
    use tp_core::relation::TpRelation;

    /// Tiny two-tenant smoke: rows differ per tenant, results match batch
    /// per tenant, and stats stay separate.
    #[test]
    fn server_isolates_tenants_and_matches_batch() {
        let mut server: StreamServer<MaterializingSink> =
            StreamServer::new(ServerConfig::default());
        let a = server.add_tenant("alpha", MaterializingSink::new());
        let b = server.add_tenant("beta", MaterializingSink::new());
        assert_eq!(server.tenant_count(), 2);
        assert_eq!(server.tenant_name(a), "alpha");

        // Control tables mirror the push_row registration order.
        let mut rows: [Vec<(Side, Fact, Interval, f64)>; 2] = [Vec::new(), Vec::new()];
        for e in 0..20i64 {
            for (ti, tid) in [(0usize, a), (1usize, b)] {
                let off = ti as i64 + 1;
                let row = (
                    Side::Left,
                    Fact::single("x"),
                    Interval::at(10 * e, 10 * e + 4 + off),
                    0.3 + 0.1 * off as f64,
                );
                server
                    .push_row(tid, row.0, row.1.clone(), row.2, row.3)
                    .unwrap();
                rows[ti].push(row);
                let row = (
                    Side::Right,
                    Fact::single("x"),
                    Interval::at(10 * e + 2, 10 * e + 7),
                    0.5,
                );
                server
                    .push_row(tid, row.0, row.1.clone(), row.2, row.3)
                    .unwrap();
                rows[ti].push(row);
            }
            let results = server.advance_all(10 * e + 8);
            assert!(results.iter().all(|r| r.is_ok()));
        }
        server.finish_all();

        for (ti, tid) in [(0usize, a), (1usize, b)] {
            // Per-tenant batch oracle in the global arena.
            let mut vars = tp_core::relation::VarTable::new();
            let mut left = Vec::new();
            let mut right = Vec::new();
            for (side, fact, iv, p) in &rows[ti] {
                let id = vars.register("v", *p).unwrap();
                let t = TpTuple::new(fact.clone(), Lineage::var(id), *iv);
                match side {
                    Side::Left => left.push(t),
                    Side::Right => right.push(t),
                }
            }
            let r = TpRelation::try_new(left).unwrap();
            let s = TpRelation::try_new(right).unwrap();
            let streamed = server.sink(tid).replay();
            for op in SetOp::ALL {
                assert_eq!(
                    streamed.relation(op).canonicalized(),
                    ops::apply(op, &r, &s).canonicalized(),
                    "tenant {ti}, {op}"
                );
            }
            // Bounded on both axes: something retired, and the live var
            // count is far below the total pushed.
            let (segs, _) = server.engine(tid).reclaimed();
            assert!(segs > 0, "tenant {ti} never retired a segment");
            assert!(server.engine(tid).reclaimed_vars() > 0);
            assert!(server.vars(tid).live_vars() < server.pushed(tid) as usize);
        }
        // Arena identities differ: the stats really are per tenant.
        assert!(!Arc::ptr_eq(server.vars(a), server.vars(b)));
    }

    #[test]
    fn late_rows_are_rejected_before_registration() {
        // A row behind the watermark must not consume a registry slot or
        // count as pushed — only the late gauge moves.
        let mut server: StreamServer<CollectingSink> = StreamServer::new(ServerConfig::default());
        let t = server.add_tenant("t", CollectingSink::new());
        server
            .push_row(t, Side::Left, Fact::single("x"), Interval::at(0, 5), 0.5)
            .unwrap();
        server.advance(t, 10).unwrap();
        let vars_before = server.vars(t).len();
        let outcome = server
            .push_row(t, Side::Left, Fact::single("x"), Interval::at(3, 8), 0.5)
            .unwrap();
        assert_eq!(outcome, IngestOutcome::Late);
        assert_eq!(server.vars(t).len(), vars_before, "registry slot burned");
        assert_eq!(server.pushed(t), 1);
        assert_eq!(server.late_rejected(t), 1);
        // Rows at the watermark are still accepted.
        assert_eq!(
            server
                .push_row(t, Side::Left, Fact::single("x"), Interval::at(10, 12), 0.5)
                .unwrap(),
            IngestOutcome::Accepted
        );
    }

    #[test]
    fn advance_all_matches_serial_advance() {
        // The same three-tenant workload through advance_all (sharded) and
        // through per-tenant serial advances must produce identical stats
        // and sinks.
        let run = |parallel: bool| -> Vec<(AdvanceStats, usize)> {
            let mut server: StreamServer<CollectingSink> = StreamServer::new(ServerConfig {
                workers: if parallel { 3 } else { 1 },
                ..Default::default()
            });
            let ids: Vec<TenantId> = (0..3)
                .map(|i| server.add_tenant(format!("t{i}"), CollectingSink::new()))
                .collect();
            for e in 0..12i64 {
                for (k, &tid) in ids.iter().enumerate() {
                    server
                        .push_row(
                            tid,
                            Side::Left,
                            Fact::single(k as i64),
                            Interval::at(8 * e, 8 * e + 5),
                            0.4,
                        )
                        .unwrap();
                }
                if parallel {
                    server.advance_all(8 * e + 6);
                } else {
                    for &tid in &ids {
                        server.advance(tid, 8 * e + 6).unwrap();
                    }
                }
            }
            ids.iter()
                .map(|&tid| (server.last_stats(tid), server.sink(tid).len(SetOp::Union)))
                .collect()
        };
        assert_eq!(run(true), run(false));
    }
}
