//! Every workload and metric the benchmark can print, by name and unit.
//! `BENCHMARK.json` at the repository root lists the same; `--check`
//! compares the two.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

pub const WORKLOADS: [&str; 6] = [
    "batch_synth",
    "batch_valuation",
    "stream_meteo",
    "stream_webkit",
    "tenants_sliding",
    "plan_alerts",
];

/// What a user of the system sees; printed by the untraced run.
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s"),
    m("tuples_per_s", "1/s"),
    m("latency_ms_p50", "ms"),
    m("latency_ms_p99", "ms"),
    m("heap_peak_bytes", "bytes"),
];

/// Single layers, named after their modules; printed by the traced run.
pub const PER_LAYER: [Metric; 57] = [
    m("core.ops.union_ms", "ms"),
    m("core.ops.intersect_ms", "ms"),
    m("core.ops.except_ms", "ms"),
    m("core.ops.output_tuples", "count"),
    m("core.window.sweep_ns_per_window", "ns"),
    m("core.window.windows", "count"),
    m("core.relation.build_ns_per_tuple", "ns"),
    m("core.arena.nodes_interned", "count"),
    m("core.arena.resident_bytes_peak", "bytes"),
    m("core.arena.intern_cold_ns_per_node", "ns"),
    m("core.arena.intern_hit_ns_per_node", "ns"),
    m("core.arena.retired_segments", "count"),
    m("core.prob.pass_share", "ratio"),
    m("core.prob.batch_cold_ns_per_root", "ns"),
    m("core.prob.marginal_cold_ns_per_root", "ns"),
    m("core.prob.marginal_warm_ns_per_root", "ns"),
    m("core.prob.non1of_ns_per_root", "ns"),
    m("core.prob.shared_chain_ns_per_root", "ns"),
    m("core.prob.nodes_per_root", "count"),
    m("core.prob.max_abs_delta", "ratio"),
    m("stream.engine.push_ns_per_tuple", "ns"),
    m("stream.engine.advance_busy_share", "ratio"),
    m("stream.engine.advance_self_ns_per_piece", "ns"),
    m("stream.engine.released_per_arrival", "ratio"),
    m("stream.engine.carried_per_advance", "count"),
    m("stream.engine.windows_per_arrival", "ratio"),
    m("stream.engine.deltas_per_arrival", "ratio"),
    m("stream.engine.extend_share", "ratio"),
    m("stream.engine.late_dropped", "count"),
    m("stream.engine.stage.drain_share", "ratio"),
    m("stream.engine.stage.plan_share", "ratio"),
    m("stream.engine.stage.sweep_share", "ratio"),
    m("stream.engine.stage.finalize_share", "ratio"),
    m("stream.engine.stage.seal_retire_share", "ratio"),
    m("stream.engine.stage.stage_coverage", "ratio"),
    m("stream.delta.sink_ns_per_delta", "ns"),
    m("stream.delta.deltas", "count"),
    m("stream.pipeline.advance_share", "ratio"),
    m("stream.pipeline.ns_per_delta", "ns"),
    m("stream.pipeline.deltas_per_arrival", "ratio"),
    m("stream.pipeline.state_rows_final", "count"),
    m("stream.pipeline.state_rows_per_arrival", "ratio"),
    m("stream.pipeline.compile_us", "us"),
    m("stream.pipeline.op.hash_join.deltas", "count"),
    m("stream.pipeline.op.aggregate.deltas", "count"),
    m("stream.pipeline.span_ns_sum", "ns"),
    m("relalg.plan.batch_execute_ms", "ms"),
    m("stream.server.push_row_ns_per_row", "ns"),
    m("stream.server.vars_live_peak", "count"),
    m("stream.server.released_vars", "count"),
    m("bench.alloc.allocs_per_tuple", "ratio"),
    m("bench.alloc.bytes_per_tuple", "bytes"),
    m("bench.trace_overhead_ratio", "ratio"),
    m("bench.pass_spread", "ratio"),
    m("bench.calib_cpu_ms", "ms"),
    m("bench.calib_mem_ms", "ms"),
    m("bench.failed_share", "ratio"),
];

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || extra.contains(c);
    !name.is_empty()
        && name.len() <= max
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Compares the catalogue with `BENCHMARK.json` in the working directory
/// (the repository root): same workloads, same metrics, same units, and
/// every name and unit within the character sets the file allows.
pub fn validate_against_benchmark_json() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run --check from the repository root): {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = |key: &str, field: &str| -> Vec<String> {
        doc.get(key)
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|item| {
                item.get(field)
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    };
    if listed("workloads", "name") != WORKLOADS {
        return Err(format!(
            "workloads differ: file {:?}",
            listed("workloads", "name")
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for (key, metrics) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let (names, units) = (listed(key, "name"), listed(key, "unit"));
        let ours: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        if names != ours {
            let odd: Vec<_> = names
                .iter()
                .filter(|n| !ours.contains(&n.as_str()))
                .collect();
            let missing: Vec<_> = ours
                .iter()
                .filter(|n| !names.iter().any(|f| f == *n))
                .collect();
            return Err(format!(
                "{key} differs: only in file {odd:?}, only in binary {missing:?}"
            ));
        }
        for (metric, unit) in metrics.iter().zip(&units) {
            if metric.unit != unit {
                return Err(format!(
                    "{}: unit {} in binary, {unit} in file",
                    metric.name, metric.unit
                ));
            }
            if !well_formed(metric.name, 64, "_.-") || !well_formed(unit, 16, "_/%.-") {
                return Err(format!(
                    "{} [{unit}]: characters or length outside the contract",
                    metric.name
                ));
            }
            if !seen.insert(metric.name) {
                return Err(format!("{} is used twice", metric.name));
            }
        }
    }
    for name in WORKLOADS {
        if !well_formed(name, 64, "_.-") || !seen.insert(name) {
            return Err(format!("workload name {name} is malformed or used twice"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(metric.name, 64, "_.-"), "{}", metric.name);
            assert!(well_formed(metric.unit, 16, "_/%.-"), "{}", metric.unit);
        }
        assert!(!well_formed("", 64, "_.-"));
        assert!(!well_formed(".hidden", 64, "_.-"));
        assert!(!well_formed("has space", 64, "_.-"));
        assert!(!well_formed(&"x".repeat(65), 64, "_.-"));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
