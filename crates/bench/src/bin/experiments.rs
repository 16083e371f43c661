//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run -p tp-bench --release --bin experiments            # everything
//! cargo run -p tp-bench --release --bin experiments fig7 fig9b # a subset
//! cargo run -p tp-bench --release --bin experiments --csv      # + CSV files
//! TP_SCALE=10 cargo run -p tp-bench --release --bin experiments
//! ```
//!
//! Available experiment names: `table2`, `table3`, `table4`, `fig7`, `fig8`,
//! `fig9a`, `fig9b`, `fig10`, `fig11`, `bench_lawa`, `bench_stream`,
//! `bench_memory`, `bench_tenants`, `bench_observability`,
//! `bench_raw_speed`, `bench_pipeline`. With
//! `--csv`, each figure is also written to `experiments_csv/<id>.csv` for
//! external plotting. `bench_lawa` additionally writes `BENCH_lawa.json`
//! (memoized valuation + op throughput + arena contention + streaming) to
//! the working directory; `bench_stream` is the CI streaming smoke — a
//! bounded-size replay of the synth workload that exits non-zero unless the
//! streamed results equal batch LAWA and the incremental engine beats naive
//! re-batch by ≥ 2×.

use tp_bench::experiments::{self, ExperimentResult};

fn emit(result: &ExperimentResult, csv: bool) {
    println!("{}", result.render());
    if csv {
        let dir = std::path::Path::new("experiments_csv");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir:?}: {e}");
            return;
        }
        let name = result
            .id
            .to_ascii_lowercase()
            .replace([' ', '.'], "")
            .replace("fig", "fig_");
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, result.to_csv()) {
            eprintln!("cannot write {path:?}: {e}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let names: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let all = names.is_empty() || names.iter().any(|a| *a == "all");
    let want = |name: &str| all || names.iter().any(|a| *a == name);
    let scale = tp_bench::scale();
    println!("tp-bench experiment harness (TP_SCALE={scale})");
    println!("paper: Papaioannou et al., Supporting Set Operations in TP Databases, ICDE 2018\n");

    if want("table2") {
        println!("{}", experiments::table2_support());
    }
    if want("table3") {
        println!("{}", experiments::table3_datasets());
    }
    if want("table4") {
        println!("{}", experiments::table4_datasets());
    }
    if want("fig7") {
        for r in experiments::fig7_small_synthetic() {
            emit(&r, csv);
        }
    }
    if want("fig8") {
        emit(&experiments::fig8_large_synthetic(), csv);
    }
    if want("fig9a") {
        emit(&experiments::fig9a_overlap(), csv);
    }
    if want("fig9b") {
        emit(&experiments::fig9b_facts(), csv);
    }
    if want("fig10") {
        for r in experiments::fig10_meteo() {
            emit(&r, csv);
        }
    }
    if want("fig11") {
        for r in experiments::fig11_webkit() {
            emit(&r, csv);
        }
    }
    if want("bench_lawa") {
        // Paper-shaped workload scaled by TP_SCALE; deep enough union chain
        // that windows share sublineage, several valuation rounds. The
        // report bundles the memoized-valuation acceptance benchmark with
        // the per-operation throughput series, the arena intern-contention
        // micro-benchmark (single lock vs stripes) and the streaming
        // acceptance benchmark (incremental vs naive re-batch).
        let tuples = tp_bench::scaled(20_000);
        let report = experiments::BenchReport {
            valuation: experiments::lawa_valuation_bench(tuples, 32, 5),
            ops: experiments::lawa_op_throughput(&[
                tp_bench::scaled(10_000),
                tp_bench::scaled(20_000),
            ]),
            contention: experiments::arena_contention_bench(4, tp_bench::scaled(40_000)),
            streaming: experiments::streaming_bench(tuples, (2 * tuples / 64).max(1)),
            memory: experiments::memory_bounded_bench(tp_bench::scaled(200).max(24)),
            tenants: experiments::multi_tenant_bench(
                tp_bench::scaled(6).clamp(2, 64),
                tp_bench::scaled(120).max(24),
                4,
            ),
            observability: experiments::observability_bench(tuples, (2 * tuples / 64).max(1), 3),
            raw_speed: experiments::raw_speed_bench(tuples, 32, 3, tp_bench::scaled(96).max(48)),
            pipeline: experiments::pipeline_bench(
                tp_bench::scaled(800).max(240),
                tp_bench::scaled(64).max(24),
                32,
                tp_bench::scaled(120).max(48),
            ),
        };
        println!("{}", report.render());
        let path = std::path::Path::new("BENCH_lawa.json");
        // Run-over-run series: recover the prior file's history (if any),
        // append this run's summary, keep the latest run's full schema at
        // the top level (the CI gates read it unchanged).
        let mut history = std::fs::read_to_string(path)
            .map(|prior| experiments::extract_history(&prior))
            .unwrap_or_default();
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        history.push(report.history_entry(now));
        match std::fs::write(path, report.to_json_with_history(&history)) {
            Ok(()) => println!(
                "wrote {} ({} history entr{})",
                path.display(),
                history.len(),
                if history.len() == 1 { "y" } else { "ies" }
            ),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    // The streaming smoke runs whenever explicitly named — including next
    // to `all`. Under a bare `all` it is skipped only because `bench_lawa`
    // already measures and gates the same streaming benchmark via
    // BENCH_lawa.json.
    if names.iter().any(|a| *a == "bench_stream") {
        // CI streaming smoke: bounded-size replay, hard-gated.
        let tuples = tp_bench::scaled(20_000);
        let b = experiments::streaming_bench(tuples, (2 * tuples / 64).max(1));
        println!(
            "streaming smoke: {} tuples/rel, {} advances, incremental {:.1} ms vs naive {:.1} ms ({:.2}×), batch_equal={}",
            b.tuples,
            b.advances,
            b.incremental_ms,
            b.naive_rebatch_ms,
            b.speedup(),
            b.batch_equal,
        );
        if !b.batch_equal {
            eprintln!("FAIL: streamed results diverge from batch LAWA");
            std::process::exit(1);
        }
        if b.speedup() < 2.0 {
            eprintln!(
                "FAIL: incremental engine only {:.2}× over naive re-batch (gate: 2×)",
                b.speedup()
            );
            std::process::exit(1);
        }
        println!(
            "ok: streamed ≡ batch, {:.2}× over naive re-batch",
            b.speedup()
        );
    }
    if names.iter().any(|a| *a == "bench_memory") {
        // CI memory-bounded-stream job: replay a sliding-window synth
        // stream through a reclaiming engine for many advances and gate
        // that arena residency plateaus (steady state ≤ 2× one-window
        // footprint) while results stay batch-identical.
        let epochs = tp_bench::scaled(600).max(60);
        let b = experiments::memory_bounded_bench(epochs);
        println!(
            "memory-bounded stream: {} epochs ({} advances, {} tuples/side), \
             one-window {} nodes, steady-state peak {} nodes (ratio {:.2}), \
             retired {} nodes / {} segments, final {} nodes ({} KiB), batch_equal={}",
            b.epochs,
            b.advances,
            b.tuples_per_side,
            b.one_window_nodes,
            b.steady_max_nodes,
            b.plateau_ratio(),
            b.retired_nodes,
            b.retired_segments,
            b.final_nodes,
            b.final_resident_bytes / 1024,
            b.batch_equal,
        );
        if b.advances < 50 {
            eprintln!("FAIL: only {} advances (gate: >= 50 epochs)", b.advances);
            std::process::exit(1);
        }
        if !b.batch_equal {
            eprintln!("FAIL: reclaiming stream diverges from batch LAWA");
            std::process::exit(1);
        }
        if b.plateau_ratio() > 2.0 {
            eprintln!(
                "FAIL: arena residency did not plateau — steady-state {} vs one-window {} ({:.2}×, gate: 2×)",
                b.steady_max_nodes,
                b.one_window_nodes,
                b.plateau_ratio()
            );
            std::process::exit(1);
        }
        println!(
            "ok: bounded memory over {} advances (plateau ratio {:.2} ≤ 2), batch-identical",
            b.advances,
            b.plateau_ratio()
        );
    }
    if names.iter().any(|a| *a == "bench_observability") {
        // CI obs-overhead-smoke job: the same replay fully instrumented
        // (metrics + stage spans, the default) vs force-disabled. Hard
        // gates: byte-identical delta logs, well-formed Prometheus/JSON/
        // chrome-trace exports, stage spans tiling ≥ 95 % of each advance,
        // and instrumented wall within 1.10× of the baseline.
        let tuples = tp_bench::scaled(20_000);
        let b = experiments::observability_bench(tuples, (2 * tuples / 64).max(1), 3);
        println!(
            "observability smoke: {} tuples/rel, {} advances, instrumented {:.1} ms vs \
             baseline {:.1} ms ({:.3}×, min of {} rounds)",
            b.tuples,
            b.advances,
            b.instrumented_ms,
            b.baseline_ms,
            b.overhead_ratio(),
            b.rounds,
        );
        println!(
            "  logs_identical={} prometheus_ok={} json_ok={} trace_ok={} stage_coverage={:.1}%",
            b.logs_identical,
            b.prometheus_ok,
            b.json_ok,
            b.trace_ok,
            b.stage_coverage * 100.0,
        );
        if !b.logs_identical {
            eprintln!("FAIL: instrumented and uninstrumented runs emitted different delta logs");
            std::process::exit(1);
        }
        if !b.prometheus_ok || !b.json_ok {
            eprintln!("FAIL: metrics snapshot malformed or missing expected families");
            std::process::exit(1);
        }
        if !b.trace_ok {
            eprintln!("FAIL: chrome://tracing export empty or malformed");
            std::process::exit(1);
        }
        if b.stage_coverage < 0.95 {
            eprintln!(
                "FAIL: stage spans cover only {:.1}% of advance wall time (gate: >= 95%)",
                b.stage_coverage * 100.0
            );
            std::process::exit(1);
        }
        if b.overhead_ratio() > 1.10 {
            eprintln!(
                "FAIL: observability overhead {:.3}× (gate: <= 1.10×)",
                b.overhead_ratio()
            );
            std::process::exit(1);
        }
        println!(
            "ok: byte-identical logs, exports well-formed, {:.1}% stage coverage, {:.3}× overhead",
            b.stage_coverage * 100.0,
            b.overhead_ratio()
        );
    }
    if names.iter().any(|a| *a == "bench_tenants") {
        // CI multi-tenant-soak job: N tenants with private arenas and
        // sliding var registries behind one StreamServer, ≥ 50 collective
        // watermark waves. Gates: per-tenant steady state ≤ 2× one-window
        // on BOTH memory axes (arena nodes and live VarTable entries), and
        // stream ≡ batch for every tenant.
        let tenants = tp_bench::scaled(6).clamp(2, 64);
        let epochs = tp_bench::scaled(600).max(60);
        let b = experiments::multi_tenant_bench(tenants, epochs, 4);
        println!(
            "multi-tenant soak: {} tenants × {} epochs on {} workers, {} rows in {:.1} ms ({:.1} krows/s)",
            b.tenants.len(),
            b.epochs,
            b.workers,
            b.total_rows,
            b.wall_ms,
            b.krows_per_s(),
        );
        for t in &b.tenants {
            println!(
                "  {}: {} advances, arena {}→{} ({:.2}×), vars {}→{} ({:.2}×), released {} vars / {} segments, batch_equal={}",
                t.name,
                t.advances,
                t.one_window_nodes,
                t.steady_nodes,
                t.node_plateau_ratio(),
                t.one_window_vars,
                t.steady_vars,
                t.var_plateau_ratio(),
                t.released_vars,
                t.retired_segments,
                t.batch_equal,
            );
        }
        if b.min_advances() < 50 {
            eprintln!(
                "FAIL: only {} advance waves (gate: >= 50 epochs)",
                b.min_advances()
            );
            std::process::exit(1);
        }
        if !b.batch_equal() {
            eprintln!("FAIL: a tenant's stream diverges from batch LAWA");
            std::process::exit(1);
        }
        if b.worst_node_ratio() > 2.0 {
            eprintln!(
                "FAIL: a tenant's arena did not plateau ({:.2}×, gate: 2×)",
                b.worst_node_ratio()
            );
            std::process::exit(1);
        }
        if b.worst_var_ratio() > 2.0 {
            eprintln!(
                "FAIL: a tenant's var table did not plateau ({:.2}×, gate: 2×)",
                b.worst_var_ratio()
            );
            std::process::exit(1);
        }
        println!(
            "ok: {} tenants bounded on both axes over {} waves (arena {:.2}×, vars {:.2}× ≤ 2), batch-identical",
            b.tenants.len(),
            b.min_advances(),
            b.worst_node_ratio(),
            b.worst_var_ratio(),
        );
    }
    if names.iter().any(|a| *a == "bench_pipeline") {
        // CI streaming-plans-smoke job: a compiled join + grouped-aggregate
        // alert rule running as a standing incremental pipeline over two
        // replayed streams, vs re-executing the batch plan over the closed
        // region at every watermark. Hard gates: the standing view must
        // equal batch at finish, and under an extend-dominated
        // immortal-facts stream with reclamation the pipeline's operator
        // state must plateau (steady-state peak <= warm-up peak) while
        // segments actually retire underneath it, batch-identically. The
        // wall speedup is informational (1-core CI cannot gate it).
        let b = experiments::pipeline_bench(
            tp_bench::scaled(800).max(240),
            tp_bench::scaled(64).max(24),
            32,
            tp_bench::scaled(120).max(48),
        );
        println!(
            "standing plans: {} tuples/side over {} keys, {} advances, pipeline {:.1} ms vs \
             naive re-plan {:.1} ms ({:.2}×, {} operator deltas, {} view rows), batch_equal={}",
            b.tuples,
            b.facts,
            b.advances,
            b.incremental_ms,
            b.naive_rebatch_ms,
            b.speedup(),
            b.pipeline_deltas,
            b.output_rows,
            b.batch_equal,
        );
        println!(
            "  reclaim-mode plateau: {} → {} state rows over {} epochs ({:.2}×), {} segments \
             retired, batch_equal={}",
            b.warmup_state_rows,
            b.steady_state_rows,
            b.plateau_epochs,
            b.plateau_ratio(),
            b.retired_segments,
            b.plateau_batch_equal,
        );
        if !b.batch_equal {
            eprintln!("FAIL: standing pipeline view diverges from the batch plan");
            std::process::exit(1);
        }
        if !b.plateau_batch_equal {
            eprintln!("FAIL: reclaim-mode pipeline view diverges from the batch plan");
            std::process::exit(1);
        }
        if b.retired_segments == 0 {
            eprintln!("FAIL: reclamation never fired under the pipeline; the plateau is vacuous");
            std::process::exit(1);
        }
        if b.steady_state_rows > b.warmup_state_rows {
            eprintln!(
                "FAIL: pipeline state did not plateau — steady-state {} vs warm-up {} rows \
                 (gate: <= 1.0×)",
                b.steady_state_rows, b.warmup_state_rows
            );
            std::process::exit(1);
        }
        if b.speedup() < 1.0 {
            eprintln!(
                "WARN: standing pipeline only {:.2}x over naive re-plan (informational — \
                 wall ratio is hardware- and size-dependent)",
                b.speedup()
            );
        }
        println!(
            "ok: standing view ≡ batch plan, state plateaued at {:.2}x over {} epochs with {} \
             retires ({:.2}x over naive re-plan)",
            b.plateau_ratio(),
            b.plateau_epochs,
            b.retired_segments,
            b.speedup(),
        );
    }
    if names.iter().any(|a| *a == "bench_raw_speed") {
        // CI raw-speed-smoke job: the two raw-speed claims, hard-gated on
        // correctness only. (a) columnar marginal kernel ≡ per-root
        // memoized walk to 1e-12 on a shared-subformula workload; (b)
        // interior-segment reclamation actually fires under an
        // immortal-facts stream and its steady-state residency sits
        // strictly below the prefix-ordered baseline, batch-identically.
        // Wall speedups are informational (1-core CI cannot gate them).
        let tuples = tp_bench::scaled(20_000);
        let b = experiments::raw_speed_bench(tuples, 32, 3, tp_bench::scaled(96).max(48));
        println!(
            "raw speed: columnar {:.1} ms vs cold walk {:.1} ms ({:.2}×, {} tuples, max Δ {:.2e})",
            b.columnar_ms,
            b.memoized_cold_ms,
            b.valuation_speedup(),
            b.output_tuples,
            b.max_delta,
        );
        println!(
            "  immortal facts: interior {} B vs prefix {} B steady-state ({:.2}×), {} interior retires, batch_equal={}",
            b.interior_steady_bytes,
            b.prefix_steady_bytes,
            b.residency_ratio(),
            b.interior_retired_segments,
            b.immortal_batch_equal,
        );
        println!(
            "  registry: interior {} vs prefix {} steady-state live vars ({:.2}×)",
            b.interior_steady_live_vars,
            b.prefix_steady_live_vars,
            b.live_vars_ratio(),
        );
        if b.max_delta > 1e-12 {
            eprintln!(
                "FAIL: columnar kernel diverges from the per-root walk (max Δ {:.2e}, gate: 1e-12)",
                b.max_delta
            );
            std::process::exit(1);
        }
        if !b.immortal_batch_equal {
            eprintln!("FAIL: an immortal-facts replay diverges from batch LAWA");
            std::process::exit(1);
        }
        if b.interior_retired_segments == 0 {
            eprintln!("FAIL: interior reclamation never fired under the immortal-facts stream");
            std::process::exit(1);
        }
        if b.interior_steady_bytes >= b.prefix_steady_bytes {
            eprintln!(
                "FAIL: interior steady-state residency {} B not below prefix baseline {} B",
                b.interior_steady_bytes, b.prefix_steady_bytes
            );
            std::process::exit(1);
        }
        if b.interior_steady_live_vars >= b.prefix_steady_live_vars {
            eprintln!(
                "FAIL: interior steady-state live_vars {} not below prefix baseline {} \
                 (cohort-granular release not observable)",
                b.interior_steady_live_vars, b.prefix_steady_live_vars
            );
            std::process::exit(1);
        }
        if b.valuation_speedup() < 1.0 {
            eprintln!(
                "WARN: columnar kernel only {:.2}x over the cold walk (informational — \
                 wall ratio is hardware-dependent)",
                b.valuation_speedup()
            );
        }
        println!(
            "ok: kernel ≡ walk to {:.2e}, interior residency {:.2}x of prefix with {} interior retires",
            b.max_delta,
            b.residency_ratio(),
            b.interior_retired_segments,
        );
    }
}
