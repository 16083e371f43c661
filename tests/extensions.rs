//! Integration tests for the surface beyond the paper's set operations:
//! projection and relation I/O, exercised together with the set
//! operations and the query layer through the public API.

mod common;

use common::supermarket_db;
use tpdb::core::ops::project;
use tpdb::prelude::*;

#[test]
fn projection_composes_with_set_operations() {
    // Two-attribute inventory (product, store); project to product, then
    // subtract the per-product order stream.
    let mut db = Database::new();
    let f = |p: &str, s: i64| Fact::new(vec![Value::str(p), Value::int(s)]);
    db.add_base_relation(
        "stock",
        vec![
            (f("milk", 1), Interval::at(1, 5), 0.9),
            (f("milk", 2), Interval::at(3, 8), 0.8),
            (f("chips", 1), Interval::at(2, 6), 0.7),
        ],
    )
    .unwrap();
    db.add_base_relation(
        "orders",
        vec![(Fact::single("milk"), Interval::at(4, 7), 0.5)],
    )
    .unwrap();

    let any_store = project(db.relation("stock").unwrap(), &[0]);
    assert!(any_store.check_duplicate_free().is_ok());
    let unordered = except(&any_store, db.relation("orders").unwrap());
    assert!(unordered.satisfies_change_preservation());
    // 'milk' timeline: store boundaries at 3 and 5 (projection), order
    // boundaries at 4 and 7 (difference) — five maximal segments.
    let milk: Vec<String> = unordered
        .canonicalized()
        .iter()
        .filter(|t| t.fact == Fact::single("milk"))
        .map(|t| t.interval.to_string())
        .collect();
    assert_eq!(milk, vec!["[1,3)", "[3,4)", "[4,5)", "[5,7)", "[7,8)"]);
    for t in unordered.iter() {
        let p = prob::marginal(&t.lineage, db.vars()).unwrap();
        assert!(p > 0.0 && p <= 1.0);
    }
}

#[test]
fn relation_io_roundtrip_through_query() {
    // Dump base relations, reload into a fresh database, re-run the Fig. 1
    // query: same facts/intervals/probabilities.
    let db = supermarket_db();
    let mut db2 = Database::new();
    for name in ["a", "b", "c"] {
        let text = db.dump_relation(name).unwrap();
        db2.load_relation(name, &text).unwrap();
    }
    let q = Query::parse("c except (a union b)").unwrap();
    let profile = |db: &Database| -> Vec<(String, String, String)> {
        q.eval(db)
            .unwrap()
            .canonicalized()
            .iter()
            .map(|t| {
                (
                    t.fact.to_string(),
                    t.interval.to_string(),
                    format!("{:.6}", prob::marginal(&t.lineage, db.vars()).unwrap()),
                )
            })
            .collect()
    };
    assert_eq!(profile(&db), profile(&db2));
}

#[test]
fn projection_then_query_via_database() {
    // Derived relations can be registered and queried by name.
    let mut db = supermarket_db();
    let merged = project(db.relation("c").unwrap(), &[0]);
    db.add_relation("stocked", merged).unwrap();
    let q = Query::parse("stocked except a").unwrap();
    let out = q.eval(&db).unwrap();
    assert!(!out.is_empty());
    assert!(out.check_duplicate_free().is_ok());
}
