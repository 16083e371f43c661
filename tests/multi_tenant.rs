//! Multi-tenant soak: N tenants with private arenas and sliding var
//! registries, advanced in parallel waves on N worker threads, must
//! produce results **byte-identical** to N serial single-tenant runs; one
//! tenant's retirement must never move another tenant's `ArenaStats`; and
//! every tenant must plateau on *both* memory axes (arena nodes and live
//! vars) while staying batch-equivalent per the differential oracle. A
//! tenant holding several standing plans over shared taps must materialize
//! each view like a single-plan tenant and the batch plan.

mod common;

use common::oracle::{assert_materialized_matches_batch, assert_plateau};
use tp_relalg::{bind_sources, AggFn, Plan, Relation, Schema};
use tp_stream::{
    encode_relation, MaterializedDelta, MaterializingSink, ServerConfig, Side, StreamServer,
    TenantId,
};
use tp_workloads::{multi_tenant_stream, replay_waves, MultiTenantConfig, TenantScript};
use tpdb::prelude::*;

const TENANTS: usize = 6;
const EPOCHS: usize = 60;

fn workload() -> Vec<TenantScript> {
    multi_tenant_stream(&MultiTenantConfig {
        tenants: TENANTS,
        epochs: EPOCHS,
        ..Default::default()
    })
}

/// Replays the scripts through one server, pushing each tenant's arrivals
/// and driving watermark waves over all tenants (`advance_all`, sharded
/// over `workers` threads). Returns per-tenant `(delta log, node samples,
/// live-var samples)`.
#[allow(clippy::type_complexity)]
fn replay(
    scripts: &[TenantScript],
    workers: usize,
) -> (
    StreamServer<MaterializingSink>,
    Vec<TenantId>,
    Vec<Vec<usize>>,
    Vec<Vec<usize>>,
) {
    let mut server: StreamServer<MaterializingSink> = StreamServer::new(ServerConfig {
        workers,
        ..Default::default()
    });
    let ids: Vec<TenantId> = scripts
        .iter()
        .map(|s| server.add_tenant(s.name.clone(), MaterializingSink::new()))
        .collect();
    let mut node_samples = vec![Vec::new(); scripts.len()];
    let mut var_samples = vec![Vec::new(); scripts.len()];
    // All tenants share the epoch schedule by construction; the shared
    // wave driver pushes each tenant's arrivals and advances the fleet in
    // collective waves, sampling both memory gauges after each wave.
    replay_waves(scripts, &mut server, &ids, |server| {
        for (k, &id) in ids.iter().enumerate() {
            node_samples[k].push(server.arena_stats(id).nodes);
            var_samples[k].push(server.vars(id).live_vars());
        }
    });
    for result in server.finish_all() {
        result.expect("finish never regresses the watermark");
    }
    (server, ids, node_samples, var_samples)
}

#[test]
fn parallel_waves_are_byte_identical_to_serial_single_tenant_runs() {
    let scripts = workload();
    // N tenants on N threads...
    let (parallel, par_ids, node_samples, var_samples) = replay(&scripts, TENANTS);
    // ...versus N separate serial runs, one tenant each.
    for (k, script) in scripts.iter().enumerate() {
        let (serial, ser_ids, _, _) = replay(std::slice::from_ref(script), 1);
        let serial_log: &Vec<MaterializedDelta> = &serial.sink(ser_ids[0]).deltas;
        let parallel_log: &Vec<MaterializedDelta> = &parallel.sink(par_ids[k]).deltas;
        assert_eq!(
            parallel_log, serial_log,
            "tenant {k}: parallel delta log diverged from the serial run"
        );
        // Reclamation bookkeeping is identical too.
        assert_eq!(
            parallel.engine(par_ids[k]).reclaimed(),
            serial.engine(ser_ids[0]).reclaimed(),
            "tenant {k}: retirement schedule diverged"
        );
        assert_eq!(
            parallel.engine(par_ids[k]).reclaimed_vars(),
            serial.engine(ser_ids[0]).reclaimed_vars(),
        );
    }

    // Differential oracle per tenant: stream ≡ batch on tuples, lineage
    // and marginals (control relations re-register in push order, so ids
    // align).
    for (k, script) in scripts.iter().enumerate() {
        let mut control_vars = VarTable::new();
        let (r, s) = script.relations(&mut control_vars);
        assert_materialized_matches_batch(parallel.sink(par_ids[k]), &r, &s, &control_vars);
    }

    // Bounded memory on both axes, per tenant.
    for (k, &id) in par_ids.iter().enumerate() {
        assert!(node_samples[k].len() >= 50, "tenant {k}: too few advances");
        assert_plateau(&node_samples[k], 8, 2.0, &format!("tenant {k} arena nodes"));
        assert_plateau(&var_samples[k], 8, 2.0, &format!("tenant {k} live vars"));
        let (segs, nodes) = parallel.engine(id).reclaimed();
        assert!(segs > 10, "tenant {k}: only {segs} segments retired");
        assert!(nodes > 0);
        assert!(
            parallel.engine(id).reclaimed_vars() > 0,
            "tenant {k}: no vars retired"
        );
        assert_eq!(
            engine_floor(&parallel, id),
            parallel.engine(id).reclaimed_vars()
        );
    }
}

fn engine_floor(server: &StreamServer<MaterializingSink>, id: TenantId) -> u64 {
    server.vars(id).released_vars()
}

#[test]
fn one_tenants_retirement_never_moves_anothers_stats() {
    let scripts = workload();
    let (mut server, ids, _, _) = replay(&scripts, TENANTS);
    // Snapshot everyone, then drive ONLY tenant 0 through more epochs
    // (with retirement), and verify nobody else's gauges moved.
    let before: Vec<_> = ids
        .iter()
        .map(|&id| {
            (
                server.arena_stats(id),
                server.vars(id).live_vars(),
                server.engine(id).reclaimed(),
            )
        })
        .collect();
    let t0 = ids[0];
    let hot = server.engine(t0).watermark();
    for e in 1..=12i64 {
        let base = hot + e * 64;
        server
            .push_row(
                t0,
                Side::Left,
                Fact::single(0i64),
                Interval::at(base, base + 9),
                0.5,
            )
            .unwrap();
        server.advance(t0, base + 16).unwrap();
    }
    let after_t0 = server.engine(t0).reclaimed();
    assert!(
        after_t0.0 > before[0].2 .0,
        "tenant 0 was supposed to retire more segments"
    );
    for (k, &id) in ids.iter().enumerate().skip(1) {
        assert_eq!(
            server.arena_stats(id),
            before[k].0,
            "tenant {k}: ArenaStats moved while only tenant 0 advanced"
        );
        assert_eq!(server.vars(id).live_vars(), before[k].1);
        assert_eq!(server.engine(id).reclaimed(), before[k].2);
    }
}

/// The repl demo's two alert rules over one `Except ⋈ Intersect` hash join
/// on the fact key: a count per key (the fused join → aggregate) and the
/// distinct keys. Both read the same taps, so they share the join's
/// sources.
fn repl_rules() -> (Schema, Vec<Plan>, Vec<Vec<SetOp>>) {
    let schema = Schema::new(["k", "ts", "te"]);
    let leaf = || Plan::values(Relation::empty(schema.clone()));
    let join = || leaf().hash_join(leaf(), vec![0], vec![0]);
    let plans = vec![
        join().aggregate(vec![0], vec![AggFn::Count]),
        join().project(vec![0]).distinct(),
    ];
    (
        schema,
        plans,
        vec![vec![SetOp::Except, SetOp::Intersect]; 2],
    )
}

#[test]
fn multi_plan_tenant_matches_single_plan_tenants_and_batch() {
    let (schema, plans, taps) = repl_rules();
    let mut server: StreamServer<MaterializingSink> = StreamServer::new(ServerConfig::default());
    let sink = |_: &_| MaterializingSink::new();
    let shared = server
        .add_tenant_with_plans("shared", &plans, &taps, sink)
        .unwrap();
    let solo: Vec<TenantId> = plans
        .iter()
        .zip(&taps)
        .enumerate()
        .map(|(p, (plan, taps))| {
            server
                .add_tenant_with_plan(format!("solo{p}"), plan, taps, sink)
                .unwrap()
        })
        .collect();
    // All three tenants replay one tenant's script.
    let scripts = vec![workload().swap_remove(0); 3];
    replay_waves(&scripts, &mut server, &[shared, solo[0], solo[1]], |_| {});
    for result in server.finish_all() {
        result.expect("finish never regresses the watermark");
    }

    let views = server.engine(shared).pipeline().unwrap();
    assert_eq!(views.plan_count(), plans.len());
    for (p, plan) in plans.iter().enumerate() {
        let tables: Vec<Relation> = taps[p]
            .iter()
            .map(|&op| encode_relation(&server.sink(shared).relation(op), &schema))
            .collect();
        let mut batch = bind_sources(plan, &tables).execute().rows;
        batch.sort();
        assert!(!batch.is_empty(), "view {p}: vacuous");
        assert_eq!(
            views.materialized_view(p).rows,
            batch,
            "view {p}: shared tenant vs batch"
        );
        let single = server.engine(solo[p]).pipeline().unwrap().materialized();
        assert_eq!(single.rows, batch, "view {p}: single-plan tenant vs batch");
    }
}
