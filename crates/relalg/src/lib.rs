//! # tp-relalg — a minimal in-memory relational algebra engine
//!
//! The paper evaluates its relational baselines (NORM, TPDB) inside
//! PostgreSQL. This crate is the corresponding substrate for our
//! reproduction: a deliberately small row-at-a-time executor with the
//! operators those baselines need — scans, selections, projections,
//! **nested-loop theta joins with inequality predicates** (the quadratic
//! workhorse the paper's complexity arguments hinge on), hash equi-joins,
//! sort-merge equi-joins, outer-join pair enumeration, sorting, distinct and
//! union-all.
//!
//! Rows are flat `Vec<Value>` records; joins operate on the concatenation of
//! the two input rows, so join predicates address columns by offset exactly
//! like a real executor does after schema concatenation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod incremental;
pub mod ops;
pub mod plan;
pub mod predicate;
pub mod relation;

pub use aggregate::{group_by, AggFn};
pub use incremental::{bind_sources, lower, LowerError, Lowered, LoweredNode, LoweredOp};
pub use ops::{
    distinct, hash_join, left_outer_join_pairs, nested_loop_join, nested_loop_join_pairs, project,
    select, sort_by, sort_merge_join, union_all,
};
pub use plan::Plan;
pub use predicate::{CmpOp, Expr, Predicate};
pub use relation::{Relation, Row, Schema};
