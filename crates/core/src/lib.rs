//! # tp-core — temporal-probabilistic set operations
//!
//! A from-scratch implementation of the sequenced temporal-probabilistic
//! (TP) data model and the **lineage-aware window advancer (LAWA)** from
//!
//! > K. Papaioannou, M. Theobald, M. Böhlen.
//! > *Supporting Set Operations in Temporal-Probabilistic Databases.*
//! > ICDE 2018, pp. 1180–1191.
//!
//! A TP relation stores tuples `(F, λ, T, p)`: a fact `F`, a Boolean lineage
//! formula `λ` over independent base-tuple variables, a half-open valid-time
//! interval `T = [start, end)`, and a marginal probability `p`. Relations
//! are **duplicate-free**: two tuples with the same fact never overlap in
//! time. Under these conventions the three TP set operations (`∪Tp`, `∩Tp`,
//! `−Tp`) have linearly sized outputs and — with LAWA — linearithmic
//! runtime, while every existing approach the paper surveys is quadratic.
//!
//! ## Quickstart
//!
//! ```
//! use tp_core::prelude::*;
//!
//! // Fig. 1a of the paper: purchases (a), orders (b), stock (c).
//! let mut db = Database::new();
//! db.add_base_relation("a", vec![
//!     (Fact::single("milk"),  Interval::at(2, 10), 0.3),
//!     (Fact::single("chips"), Interval::at(4, 7),  0.8),
//!     (Fact::single("dates"), Interval::at(1, 3),  0.6),
//! ]).unwrap();
//! db.add_base_relation("b", vec![
//!     (Fact::single("milk"),  Interval::at(5, 9), 0.6),
//!     (Fact::single("chips"), Interval::at(3, 6), 0.9),
//! ]).unwrap();
//! db.add_base_relation("c", vec![
//!     (Fact::single("milk"),  Interval::at(1, 4), 0.6),
//!     (Fact::single("milk"),  Interval::at(6, 8), 0.7),
//!     (Fact::single("chips"), Interval::at(4, 5), 0.7),
//!     (Fact::single("chips"), Interval::at(7, 9), 0.8),
//! ]).unwrap();
//!
//! // Q = c −Tp (a ∪Tp b): in stock but neither bought nor ordered.
//! let q = Query::parse("c except (a union b)").unwrap();
//! let result = q.eval(&db).unwrap();
//! assert_eq!(result.len(), 5); // the five tuples of Fig. 1c
//!
//! // Probabilities are derived from lineage; the query is non-repeating,
//! // so every lineage is in one-occurrence form and valuation is linear.
//! assert!(q.is_non_repeating());
//! for t in result.iter() {
//!     let p = prob::marginal(&t.lineage, db.vars()).unwrap();
//!     assert!(p > 0.0 && p <= 1.0);
//! }
//! ```
//!
//! ## Module map
//!
//! | module | paper section | content |
//! |---|---|---|
//! | [`value`], [`fact`], [`interval`] | §III | attribute values, facts, time intervals, Allen relations |
//! | [`arena`] | — | segmented hash-consed lineage forest: `Copy` handles, O(1) equality, lock-free append, seal/retire reclamation |
//! | [`lineage`] | §III, Table I | Boolean lineage + concatenation functions, [`lineage::LineageTree`] compat layer |
//! | [`lineage_xform`] | — | negation normal form, conservative simplification |
//! | [`tuple`](mod@crate::tuple), [`relation`], [`db`] | §III | TP tuples, duplicate-free relations, variable table (with memoized valuation cache), catalog |
//! | [`snapshot`] | §IV | timeslice τᵖₜ + literal Def. 1–3 evaluation (the test oracle) |
//! | [`window`] | §VI-A, Alg. 1 | lineage-aware temporal window + LAWA (O(1) lineage compare per window) |
//! | [`ops`] | §V, §VI-B, Alg. 2–4 | `∪Tp`, `∩Tp`, `−Tp`, selection, projection, join, aggregation |
//! | [`query`], [`parser`] | §V-B, Def. 4 | TP set queries, 1OF/safety analysis, text parser |
//! | [`prob`] | §III, §V-B | linear 1OF valuation, exact Shannon expansion, Monte-Carlo — memoized per arena node |
//! | [`bdd`] | \[24\] | ROBDD compilation of lineage with per-handle compile memo |
//! | [`io`] | — | text persistence of base relations + topological lineage-forest dumps |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod bdd;
pub mod db;
pub mod error;
pub mod fact;
pub mod interval;
pub mod interval_set;
pub mod io;
pub mod lineage;
pub mod lineage_xform;
pub mod ops;
pub mod parser;
pub mod prob;
pub mod query;
pub mod relation;
pub mod snapshot;
pub mod tuple;
pub mod value;
pub mod window;

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::arena::{ArenaScope, ArenaStats, LineageArena, LineageRef, SegmentId};
    pub use crate::db::Database;
    pub use crate::error::{Error, Result};
    pub use crate::fact::Fact;
    pub use crate::interval::{AllenRelation, Interval, TimePoint};
    pub use crate::interval_set::IntervalSet;
    pub use crate::lineage::{Lineage, LineageKind, LineageTree, TupleId};
    pub use crate::ops::{apply, except, intersect, project, select, select_attr_eq, union, SetOp};
    pub use crate::prob;
    pub use crate::query::Query;
    pub use crate::relation::{ReleasedVars, TpRelation, VarEpoch, VarTable};
    pub use crate::snapshot::{set_op_by_snapshots, timeslice};
    pub use crate::tuple::TpTuple;
    pub use crate::value::Value;
    pub use crate::window::{Lawa, LineageAwareWindow};
}
