//! A miniature interactive shell over a TP database.
//!
//! Starts with the paper's supermarket relations loaded (`a`, `b`, `c`) and
//! evaluates TP set queries typed on stdin:
//!
//! ```text
//! cargo run --example repl
//! tp> c except (a union b)
//! tp> (a union b) intersect c
//! tp> \d a            -- show a relation
//! tp> \load r file    -- load a base relation from a file
//! tp> \arena          -- lineage-arena statistics (segments, nodes, bytes)
//! tp> \plan a c       -- stream two relations through two standing plans
//!                        over shared taps and print the lowered DAG:
//!                        per-operator state rows, sharing annotations
//! tp> \metrics        -- Prometheus-style snapshot of the metrics registry
//!                        (\metrics json for the JSON snapshot)
//! tp> \trace out.json -- dump recorded stage spans as a chrome://tracing
//!                        profile (open in chrome://tracing or Perfetto)
//! tp> \q
//! ```

use std::io::{BufRead, Write};

use tpdb::prelude::*;

fn seed_database() -> Result<Database> {
    let mut db = Database::new();
    db.add_base_relation(
        "a",
        vec![
            (Fact::single("milk"), Interval::at(2, 10), 0.3),
            (Fact::single("chips"), Interval::at(4, 7), 0.8),
            (Fact::single("dates"), Interval::at(1, 3), 0.6),
        ],
    )?;
    db.add_base_relation(
        "b",
        vec![
            (Fact::single("milk"), Interval::at(5, 9), 0.6),
            (Fact::single("chips"), Interval::at(3, 6), 0.9),
        ],
    )?;
    db.add_base_relation(
        "c",
        vec![
            (Fact::single("milk"), Interval::at(1, 4), 0.6),
            (Fact::single("milk"), Interval::at(6, 8), 0.7),
            (Fact::single("chips"), Interval::at(4, 5), 0.7),
            (Fact::single("chips"), Interval::at(7, 9), 0.8),
        ],
    )?;
    Ok(db)
}

fn handle_command(db: &mut Database, line: &str) -> Result<bool> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(true);
    }
    if let Some(rest) = line.strip_prefix('\\') {
        let mut parts = rest.split_whitespace();
        match parts.next() {
            Some("q") | Some("quit") => return Ok(false),
            Some("d") => match parts.next() {
                Some(name) => println!("{}", db.relation(name)?.canonicalized().render(db.vars())),
                None => {
                    println!(
                        "relations: {}",
                        db.relation_names().collect::<Vec<_>>().join(", ")
                    )
                }
            },
            Some("load") => {
                let (Some(name), Some(path)) = (parts.next(), parts.next()) else {
                    println!("usage: \\load <name> <path>");
                    return Ok(true);
                };
                let text = std::fs::read_to_string(path)?;
                db.load_relation(name, &text)?;
                println!("loaded '{name}' ({} tuples)", db.relation(name)?.len());
            }
            Some("arena") => {
                let stats = LineageArena::global().stats();
                println!("{}", tp_stream::arena_section(&stats).render());
            }
            Some("plan") => {
                let (Some(left), Some(right)) = (parts.next(), parts.next()) else {
                    println!("usage: \\plan <left> <right>");
                    return Ok(true);
                };
                show_standing_plans(db, left, right)?;
            }
            Some("metrics") => match parts.next() {
                Some("json") => println!("{}", tp_stream::metrics_json()),
                _ => print!("{}", tp_stream::metrics_text()),
            },
            Some("trace") => {
                let Some(path) = parts.next() else {
                    println!("usage: \\trace <file>");
                    return Ok(true);
                };
                let json = tp_stream::trace_json();
                std::fs::write(path, &json)?;
                println!(
                    "wrote {} bytes to {path} — open in chrome://tracing or https://ui.perfetto.dev",
                    json.len()
                );
            }
            Some(other) => {
                println!(
                    "unknown command \\{other} (try \\d, \\load, \\arena, \\plan, \\metrics, \
                     \\trace, \\q)"
                )
            }
            None => {}
        }
        return Ok(true);
    }
    let query = Query::parse(line)?;
    let result = query.eval(db)?;
    if !query.is_non_repeating() {
        println!("(repeating query: probabilities use Shannon expansion)");
    }
    println!("{}", result.canonicalized().render(db.vars()));
    Ok(true)
}

/// Streams `left`/`right` through an engine carrying **two standing
/// plans over shared taps** (a keyed-count rule and a distinct rule, both
/// over `Except ⋈ Intersect` on the fact key) and prints the lowered DAG
/// at the end: per-operator live state rows, `shared(xK)` annotations,
/// and each plan's view size.
fn show_standing_plans(db: &Database, left: &str, right: &str) -> Result<()> {
    use tp_relalg::{AggFn, Plan, Relation, Schema};
    use tp_stream::{CollectingSink, EngineConfig, Side, StreamEngine};

    let r = db.relation(left)?;
    let s = db.relation(right)?;
    let hull = match (r.time_range(), s.time_range()) {
        (Some(a), Some(b)) => a.hull(&b),
        (Some(h), None) | (None, Some(h)) => h,
        (None, None) => {
            println!("both relations are empty — nothing to maintain");
            return Ok(());
        }
    };
    let leaf = || Plan::values(Relation::empty(Schema::new(["k", "ts", "te"])));
    let join = || leaf().hash_join(leaf(), vec![0], vec![0]);
    let plans = [
        join().aggregate(vec![0], vec![AggFn::Count]),
        join().project(vec![0]).distinct(),
    ];
    let taps = vec![
        vec![SetOp::Except, SetOp::Intersect],
        vec![SetOp::Except, SetOp::Intersect],
    ];
    let mut engine = StreamEngine::with_plans(EngineConfig::default(), &plans, &taps)
        .expect("demo plans compile");
    let mut sink = CollectingSink::new();
    for t in r.iter() {
        engine.push(Side::Left, t.clone());
    }
    for t in s.iter() {
        engine.push(Side::Right, t.clone());
    }
    println!(
        "standing plans over {left} op {right}: a count-per-key rule (fused join → aggregate) \
         and a distinct-keys rule over Except ⋈ Intersect, sharing both taps"
    );
    let span = (hull.end() - hull.start()).max(4);
    for q in 1..=4i64 {
        let w = hull.start() + span * q / 4 + i64::from(q == 4);
        if w <= engine.watermark() {
            continue;
        }
        engine
            .advance(w, &mut sink)
            .expect("quartile watermarks are monotone");
    }
    engine
        .finish(&mut sink)
        .expect("finish never regresses the watermark");
    let pipeline = engine.pipeline().expect("plans attached above");
    print!("{}", pipeline.describe());
    for p in 0..pipeline.plan_count() {
        let view = pipeline.materialized_view(p);
        println!("-- view #{p}: {} standing rows", view.len());
    }
    Ok(())
}

fn main() -> Result<()> {
    let mut db = seed_database()?;
    println!("tpdb repl — relations a, b, c loaded (paper Fig. 1a). \\q to quit.");
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("tp> ");
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        match handle_command(&mut db, &line) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}
