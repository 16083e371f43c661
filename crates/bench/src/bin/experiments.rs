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
//! `fig9a`, `fig9b`, `fig10`, `fig11` and `all` (the default). With `--csv`,
//! each figure is also written to `experiments_csv/<id>.csv` for external
//! plotting. Wall-clock comparisons between commits belong to the
//! repository benchmark under `perfbench/`, not to this binary.

use tp_bench::experiments::{self, ExperimentResult};

/// Every name the binary accepts.
const EXPERIMENTS: [&str; 10] = [
    "table2", "table3", "table4", "fig7", "fig8", "fig9a", "fig9b", "fig10", "fig11", "all",
];

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
    if let Some(bad) = names.iter().find(|a| !EXPERIMENTS.contains(&a.as_str())) {
        eprintln!(
            "unknown experiment {bad:?}; expected one of: {}",
            EXPERIMENTS.join(", ")
        );
        std::process::exit(2);
    }
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
}
