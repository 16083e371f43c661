//! Error type shared by the core crate.

use std::fmt;

use crate::interval::TimePoint;

/// Result alias for core operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the TP data model and its operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An interval literal with `start >= end`.
    EmptyInterval {
        /// Attempted (inclusive) start point.
        start: TimePoint,
        /// Attempted (exclusive) end point.
        end: TimePoint,
    },
    /// A probability outside `(0, 1]` — the domain `Ωp` of the model.
    InvalidProbability(f64),
    /// Two tuples of the same relation share a fact over overlapping
    /// intervals, violating the duplicate-free requirement of §III.
    DuplicateFact {
        /// Rendering of the offending fact.
        fact: String,
        /// First of the two overlapping intervals.
        first: (TimePoint, TimePoint),
        /// Second of the two overlapping intervals.
        second: (TimePoint, TimePoint),
    },
    /// A fact with an arity different from the relation's schema.
    ArityMismatch {
        /// Arity the schema expects.
        expected: usize,
        /// Arity that was supplied.
        got: usize,
    },
    /// A referenced relation is missing from the catalog.
    UnknownRelation(String),
    /// A lineage variable has no probability registered in the `VarTable`.
    UnknownVariable(u64),
    /// A lineage variable whose cohort was released from a sliding
    /// `VarTable` registry (see `VarTable::release_cohort`). Lookup of
    /// a released variable is a *detectable* error by design — it must
    /// never resolve to a silently wrong probability.
    ReleasedVariable(u64),
    /// The requested operation is not supported by this approach
    /// (Table II of the paper, e.g. TPDB cannot compute `−Tp`).
    Unsupported {
        /// Name of the approach (e.g. "TPDB", "OIP").
        approach: &'static str,
        /// Name of the operation (e.g. "except").
        operation: &'static str,
    },
    /// Query-text parsing failed.
    Parse {
        /// Byte offset of the error in the input.
        position: usize,
        /// Human-readable description.
        message: String,
    },
    /// Reading or writing a relation file failed.
    Io(String),
    /// An operation that requires base tuples (atomic lineage) was applied
    /// to a derived relation.
    NotABaseRelation {
        /// Rendering of the offending lineage.
        lineage: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyInterval { start, end } => {
                write!(
                    f,
                    "invalid interval [{start},{end}): start must be < end and \
                     endpoints must avoid the TimePoint::MIN/MAX sentinels"
                )
            }
            Error::InvalidProbability(p) => {
                write!(f, "probability {p} outside the domain (0, 1]")
            }
            Error::DuplicateFact {
                fact,
                first,
                second,
            } => write!(
                f,
                "relation is not duplicate-free: fact {fact} valid on overlapping \
                 intervals [{},{}) and [{},{})",
                first.0, first.1, second.0, second.1
            ),
            Error::ArityMismatch { expected, got } => {
                write!(f, "fact arity mismatch: schema has {expected}, got {got}")
            }
            Error::UnknownRelation(name) => write!(f, "unknown relation '{name}'"),
            Error::UnknownVariable(id) => {
                write!(f, "no probability registered for lineage variable t{id}")
            }
            Error::ReleasedVariable(id) => write!(
                f,
                "lineage variable t{id} was released from the sliding var \
                 registry (use-after-release)"
            ),
            Error::Unsupported {
                approach,
                operation,
            } => write!(
                f,
                "{approach} does not support {operation} (paper Table II)"
            ),
            Error::Parse { position, message } => {
                write!(f, "query parse error at byte {position}: {message}")
            }
            Error::Io(msg) => write!(f, "relation I/O error: {msg}"),
            Error::NotABaseRelation { lineage } => write!(
                f,
                "expected a base relation (atomic lineage), found derived lineage {lineage}"
            ),
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_data() {
        let e = Error::EmptyInterval { start: 5, end: 5 };
        assert!(e.to_string().contains("[5,5)"));
        let e = Error::InvalidProbability(1.5);
        assert!(e.to_string().contains("1.5"));
        let e = Error::Unsupported {
            approach: "TPDB",
            operation: "except",
        };
        assert!(e.to_string().contains("TPDB"));
        assert!(e.to_string().contains("Table II"));
        let e = Error::UnknownRelation("r".into());
        assert!(e.to_string().contains("'r'"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::InvalidProbability(0.0));
    }
}
