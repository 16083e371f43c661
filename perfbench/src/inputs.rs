//! Arena-independent inputs and the fresh arena every pass runs in.
//!
//! `Lineage` handles are relative to the arena they were interned in,
//! and the arena dedups: a second replay of one script into the same
//! arena hits the dedup table where the first one appended (measured
//! 1050 against 266 ktuples/s for the identical script). So set-up keeps
//! its products as owned trees, and each pass re-interns them, untimed,
//! into an arena of its own.

use std::sync::Arc;

use tp_core::arena::{ArenaScope, LineageArena, MAX_SHARDS};
use tp_core::fact::Fact;
use tp_core::interval::Interval;
use tp_core::lineage::{Lineage, LineageTree};
use tp_core::relation::TpRelation;
use tp_core::tuple::TpTuple;

/// A TP tuple whose lineage is an owned tree.
#[derive(Debug, Clone)]
pub struct PortableTuple {
    pub fact: Fact,
    pub tree: LineageTree,
    pub interval: Interval,
}

impl PortableTuple {
    /// Reads `t`'s lineage out of the current arena.
    pub fn export(t: &TpTuple) -> Self {
        PortableTuple {
            fact: t.fact.clone(),
            tree: t.lineage.to_tree(),
            interval: t.interval,
        }
    }

    /// Interns the lineage into the current arena.
    pub fn intern(&self) -> TpTuple {
        TpTuple::new(
            self.fact.clone(),
            Lineage::from_tree(&self.tree),
            self.interval,
        )
    }
}

/// A relation in portable form, in the relation's own tuple order.
pub fn export(rel: &TpRelation) -> Vec<PortableTuple> {
    rel.iter().map(PortableTuple::export).collect()
}

/// The relation back in the current arena. The tuples were a valid
/// relation when exported, so they are not checked again.
pub fn intern(tuples: &[PortableTuple]) -> TpRelation {
    TpRelation::from_tuples_unchecked(tuples.iter().map(PortableTuple::intern).collect())
}

/// A new private arena, entered on this thread until the scope drops.
/// Striped like the global arena, which is what un-scoped callers get.
pub fn fresh_arena() -> (Arc<LineageArena>, ArenaScope) {
    let arena = LineageArena::shared(MAX_SHARDS);
    let scope = LineageArena::enter(&arena);
    (arena, scope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::ops;
    use tp_core::relation::VarTable;

    #[test]
    fn pass_arena_holds_only_the_reinterned_inputs_at_pass_start() {
        let (portable, expect) = {
            let (_arena, _scope) = fresh_arena();
            let mut vars = VarTable::new();
            let rows = |n: i64| {
                (0..n).map(move |i| (Fact::single(i % 4), Interval::at(i * 3, i * 3 + 5), 0.5))
            };
            let r = TpRelation::base("r", rows(40), &mut vars).unwrap();
            let s = TpRelation::base("s", rows(30), &mut vars).unwrap();
            let out = ops::union(&r, &s);
            (export(&out), out.canonicalized().to_string())
        };
        let distinct_nodes = {
            let (arena, _scope) = fresh_arena();
            intern(&portable);
            arena.stats().total_interned
        };
        for _ in 0..2 {
            let (arena, _scope) = fresh_arena();
            assert_eq!(arena.stats().total_interned, 0, "a pass arena starts empty");
            let rel = intern(&portable);
            // Exactly the inputs: nothing left over from an earlier pass,
            // and the formulas are the ones that were exported.
            assert_eq!(arena.stats().total_interned, distinct_nodes);
            assert_eq!(rel.canonicalized().to_string(), expect);
        }
    }
}
