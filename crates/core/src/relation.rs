//! TP relations, the duplicate-free requirement, and the variable table.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::RwLock;

use crate::error::{Error, Result};
use crate::fact::Fact;
use crate::interval::Interval;
use crate::lineage::{Lineage, TupleId};
use crate::tuple::TpTuple;

/// Identifier of one sealed var cohort of a [`VarTable`]'s sliding
/// registry. Epochs are dense, monotone in seal order, and never reused —
/// the variable-side mirror of [`crate::arena::SegmentId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarEpoch(pub u64);

impl VarEpoch {
    /// The epoch after this one.
    pub fn next(self) -> VarEpoch {
        VarEpoch(self.0 + 1)
    }
}

impl fmt::Display for VarEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vep{}", self.0)
    }
}

/// What one [`VarTable::release_cohort`] call reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReleasedVars {
    /// Sealed cohorts dropped.
    pub cohorts: usize,
    /// Variables whose probabilities and labels were released.
    pub vars: u64,
}

/// One cohort of the sliding var registry: the variables registered between
/// two [`VarTable::seal_vars`] calls.
#[derive(Debug, Clone, Default)]
struct VarCohort {
    /// First variable id of the cohort (ids are dense across cohorts).
    base: u64,
    probs: Vec<f64>,
    labels: Vec<String>,
    /// Released **in place** ([`VarTable::release_cohort`]): storage is
    /// gone, lookups error, but the cohort still occupies its deque slot so
    /// the dense id ↦ cohort mapping of the *later* cohorts stays intact.
    released: bool,
    /// Variable count at release time (`probs.len()` before the storage was
    /// dropped) — needed to migrate the count from `interior_released` into
    /// `floor` when a released cohort is compacted off the front.
    released_len: u64,
}

/// Cohort storage of a [`VarTable`]: live cohorts oldest-first, the last
/// one open for registration.
#[derive(Debug, Clone)]
struct VarStore {
    cohorts: VecDeque<VarCohort>,
    /// Ids below this were released; lookups yield
    /// [`Error::ReleasedVariable`], never a stale probability.
    floor: u64,
    /// Next id to assign (= total variables ever registered).
    next: u64,
    /// Epoch id of the oldest cohort still in the deque (front); the open
    /// cohort's epoch is `front_epoch + cohorts.len() - 1`.
    front_epoch: u64,
    /// Variables released **in place** by [`VarTable::release_cohort`]
    /// while their cohort still sits interior in the deque (not yet counted
    /// by `floor`). Migrates into `floor` when the cohort compacts off the
    /// front.
    interior_released: u64,
}

impl Default for VarStore {
    fn default() -> Self {
        VarStore {
            cohorts: VecDeque::from([VarCohort::default()]),
            floor: 0,
            next: 0,
            front_epoch: 0,
            interior_released: 0,
        }
    }
}

impl VarStore {
    /// The cohort holding `id`, which must lie in `floor..next`.
    fn cohort_of(&self, id: u64) -> &VarCohort {
        // Binary search over the contiguous cohort bases (the deque is
        // short — the open cohort plus the reclaim grace window).
        let (mut lo, mut hi) = (0usize, self.cohorts.len());
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.cohorts[mid].base <= id {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        &self.cohorts[lo]
    }

    fn lookup(&self, id: u64) -> Result<(&VarCohort, usize)> {
        if id >= self.next {
            return Err(Error::UnknownVariable(id));
        }
        if id < self.floor {
            return Err(Error::ReleasedVariable(id));
        }
        let cohort = self.cohort_of(id);
        // An interior cohort released in place still occupies its deque
        // slot; its ids error exactly like a prefix-released id would.
        if cohort.released {
            return Err(Error::ReleasedVariable(id));
        }
        Ok((cohort, (id - cohort.base) as usize))
    }

    /// Pops fully-released cohorts off the front, folding their counts
    /// from `interior_released` into `floor` (both gauges stay exact and
    /// the deque stays short).
    fn compact_released_prefix(&mut self) {
        while self.cohorts.len() > 1 && self.cohorts.front().expect("non-empty").released {
            let dead = self.cohorts.pop_front().expect("len checked");
            self.front_epoch += 1;
            self.interior_released -= dead.released_len;
            self.floor = self.cohorts.front().expect("open cohort remains").base;
        }
    }
}

/// Registry of lineage variables: marginal probability and human-readable
/// label per base tuple (the paper's `a1`, `b2`, `c3` names).
///
/// Identifiers are dense (`0..len`), so lookups are vector indexing within
/// a cohort.
///
/// ## Sliding registry
///
/// For continuous streams the table is **generational**: variables live in
/// *cohorts* mirroring the lineage arena's segment lifecycle
/// ([`crate::arena`]). [`VarTable::seal_vars`] closes the open cohort
/// (returning its [`VarEpoch`]) and opens a fresh one;
/// [`VarTable::release_cohort`] drops one sealed cohort's probabilities
/// and labels together, matching interior segment retirement: it releases
/// in place the moment its mirrored segment retires, even while older
/// cohorts are still live. A lookup of a released variable returns
/// [`Error::ReleasedVariable`] — a *detectable* error, never a silently
/// wrong probability. A table that is never sealed keeps the classic
/// append-only behavior (one open cohort, no releases).
///
/// The release **contract** matches the arena's: the caller must prove no
/// live lineage still references the released variables. The streaming
/// engine does so by releasing a cohort only when the arena segment it
/// mirrors retires (`tp-stream`'s reclaim mode), which in turn requires the
/// live frontier to have passed the segment.
///
/// The table holds no valuation state: [`crate::prob`] memoizes within one
/// call only.
#[derive(Debug, Default)]
pub struct VarTable {
    store: RwLock<VarStore>,
}

impl Clone for VarTable {
    fn clone(&self) -> Self {
        VarTable {
            store: RwLock::new(self.store.read().expect("var store poisoned").clone()),
        }
    }
}

/// Read guard over a [`VarTable`]'s store: resolves many probabilities
/// under **one** lock acquisition. The valuation hot paths hold one of
/// these across a whole formula walk instead of paying a lock round trip
/// per `Var` node ([`VarTable::prob`] is the convenience form for single
/// lookups).
pub struct ProbReader<'a> {
    store: std::sync::RwLockReadGuard<'a, VarStore>,
}

impl ProbReader<'_> {
    /// Marginal probability of a variable; same error contract as
    /// [`VarTable::prob`].
    #[inline]
    pub fn prob(&self, id: TupleId) -> Result<f64> {
        let (cohort, off) = self.store.lookup(id.0)?;
        Ok(cohort.probs[off])
    }
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fresh variable with the given label and marginal
    /// probability `p ∈ (0, 1]` (the model's probability domain `Ωp`).
    /// Non-finite values (`NaN`, `±inf`) are rejected explicitly — a `NaN`
    /// must never reach the valuation paths, where it would silently poison
    /// every derived marginal.
    pub fn register(&mut self, label: impl Into<String>, p: f64) -> Result<TupleId> {
        // Exclusive access: skip the lock entirely.
        Self::register_in(self.store.get_mut().expect("var store poisoned"), label, p)
    }

    /// [`VarTable::register`] through a shared reference — the streaming
    /// form, where tenants register variables at push time through an
    /// `Arc<VarTable>` also held by their engine's reclaim schedule.
    pub fn register_shared(&self, label: impl Into<String>, p: f64) -> Result<TupleId> {
        Self::register_in(
            &mut self.store.write().expect("var store poisoned"),
            label,
            p,
        )
    }

    fn register_in(store: &mut VarStore, label: impl Into<String>, p: f64) -> Result<TupleId> {
        if !(p.is_finite() && p > 0.0 && p <= 1.0) {
            return Err(Error::InvalidProbability(p));
        }
        let id = TupleId(store.next);
        store.next += 1;
        let open = store.cohorts.back_mut().expect("open cohort always exists");
        open.probs.push(p);
        open.labels.push(label.into());
        Ok(id)
    }

    /// Seals the open var cohort, returning its epoch, and opens a fresh
    /// one. `None` if the open cohort is empty (sealing nothing would only
    /// burn epoch ids) — mirroring [`crate::arena::LineageArena::seal`].
    pub fn seal_vars(&self) -> Option<VarEpoch> {
        let mut store = self.store.write().expect("var store poisoned");
        let open = store.cohorts.back().expect("open cohort always exists");
        if open.probs.is_empty() {
            return None;
        }
        let epoch = VarEpoch(store.front_epoch + store.cohorts.len() as u64 - 1);
        let next = store.next;
        store.cohorts.push_back(VarCohort {
            base: next,
            ..Default::default()
        });
        Some(epoch)
    }

    /// Releases **one** sealed cohort in place, wherever it sits in the
    /// deque, matching *interior* arena-segment retirement
    /// (`tp-stream`'s coverage-interval reclamation): a var cohort drops the
    /// moment its mirrored segment retires, even while older cohorts are still
    /// pinned live. Probabilities and labels are dropped immediately,
    /// lookups of the cohort's ids return [`Error::ReleasedVariable`], and a
    /// fully-released prefix run compacts off the deque. Releasing the open
    /// cohort, an unknown epoch, or an already-released epoch is a no-op.
    ///
    /// Lookups of a released variable return [`Error::ReleasedVariable`],
    /// so valuing a formula over them errors too, however often it was
    /// valued before. Caller contract: no live lineage may still reference
    /// the cohort's variables — which the engine guarantees by releasing
    /// exactly when the cohort's mirrored segment leaves the merged
    /// live-ref coverage intervals.
    pub fn release_cohort(&self, epoch: VarEpoch) -> ReleasedVars {
        let mut released = ReleasedVars::default();
        let mut store = self.store.write().expect("var store poisoned");
        let front = store.front_epoch;
        if epoch.0 < front {
            return released; // already compacted away
        }
        let idx = (epoch.0 - front) as usize;
        let open = store.cohorts.len() - 1;
        if idx >= open {
            return released; // open (or future) cohort never releases
        }
        let cohort = &mut store.cohorts[idx];
        if cohort.released {
            return released;
        }
        cohort.released = true;
        cohort.released_len = cohort.probs.len() as u64;
        released.cohorts = 1;
        released.vars = cohort.released_len;
        // Drop the storage now (not just truncate): the whole point is
        // that the memory goes the moment the segment retires.
        cohort.probs = Vec::new();
        cohort.labels = Vec::new();
        store.interior_released += released.vars;
        store.compact_released_prefix();
        released
    }

    /// The epoch the *next* [`VarTable::seal_vars`] call would return —
    /// i.e. the open cohort's epoch.
    pub fn open_var_epoch(&self) -> VarEpoch {
        let store = self.store.read().expect("var store poisoned");
        VarEpoch(store.front_epoch + store.cohorts.len() as u64 - 1)
    }

    /// Number of variables currently resident (registered minus released)
    /// — the bounded-memory gauge of the sliding registry. Counts both the
    /// compacted prefix and cohorts released in place
    /// ([`VarTable::release_cohort`]).
    pub fn live_vars(&self) -> usize {
        let store = self.store.read().expect("var store poisoned");
        (store.next - store.floor - store.interior_released) as usize
    }

    /// Number of variables whose storage was released (prefix floor plus
    /// interior cohorts released in place).
    pub fn released_vars(&self) -> u64 {
        let store = self.store.read().expect("var store poisoned");
        store.floor + store.interior_released
    }

    /// Does nothing: valuation keeps no state between calls, so there is
    /// nothing to clear.
    pub fn clear_valuation_cache(&self) {}

    /// Marginal probability of a variable. Unknown ids yield
    /// [`Error::UnknownVariable`]; ids released from the sliding registry
    /// yield [`Error::ReleasedVariable`] — never a wrong value. Loops
    /// resolving many variables should take one [`VarTable::prob_reader`]
    /// instead of calling this per node.
    pub fn prob(&self, id: TupleId) -> Result<f64> {
        self.prob_reader().prob(id)
    }

    /// Locks the store for reading once; see [`ProbReader`]. Holding the
    /// reader blocks writers (register/seal/release) but never other
    /// readers — the valuation paths are read-only and may overlap freely.
    pub fn prob_reader(&self) -> ProbReader<'_> {
        ProbReader {
            store: self.store.read().expect("var store poisoned"),
        }
    }

    /// Label of a variable; falls back to `t{id}` for unknown or released
    /// ids (labels are display-only, so the fallback is harmless).
    pub fn label(&self, id: TupleId) -> String {
        let store = self.store.read().expect("var store poisoned");
        match store.lookup(id.0) {
            Ok((cohort, off)) => cohort.labels[off].clone(),
            Err(_) => format!("t{}", id.0),
        }
    }

    /// Number of variables ever registered (ids are dense in `0..len`,
    /// including any released prefix — see [`VarTable::live_vars`] for the
    /// resident count).
    pub fn len(&self) -> usize {
        self.store.read().expect("var store poisoned").next as usize
    }

    /// Whether no variable was ever registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A labelling closure suitable for [`Lineage::display_with`].
    pub fn resolver(&self) -> impl Fn(TupleId) -> String + '_ {
        move |id| self.label(id)
    }
}

/// A temporal-probabilistic relation: a finite set of [`TpTuple`]s.
///
/// The model (§III) requires relations to be **duplicate-free**: no two
/// tuples may carry the same fact over overlapping intervals. Constructors
/// either validate this ([`TpRelation::try_new`]) or defer validation
/// ([`TpRelation::from_tuples_unchecked`], used by operators whose output is
/// duplicate-free by construction).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TpRelation {
    tuples: Vec<TpTuple>,
}

impl TpRelation {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a relation, validating the duplicate-free requirement.
    /// The tuples are sorted by `(F, Ts)` in the process.
    pub fn try_new(mut tuples: Vec<TpTuple>) -> Result<Self> {
        sort_tuples(&mut tuples);
        check_duplicate_free_sorted(&tuples)?;
        Ok(TpRelation { tuples })
    }

    /// Wraps tuples without validating; for operator outputs that are
    /// duplicate-free by construction. Debug builds still assert the
    /// invariant.
    pub fn from_tuples_unchecked(tuples: Vec<TpTuple>) -> Self {
        #[cfg(debug_assertions)]
        {
            let mut sorted = tuples.clone();
            sort_tuples(&mut sorted);
            debug_assert!(
                check_duplicate_free_sorted(&sorted).is_ok(),
                "operator produced a relation with duplicates"
            );
        }
        TpRelation { tuples }
    }

    /// Builds a *base* relation: each row becomes an independent lineage
    /// variable labelled `{prefix}{i}` (1-based, like the paper's `a1`, `a2`)
    /// registered in `vars` with its marginal probability.
    pub fn base(
        prefix: &str,
        rows: impl IntoIterator<Item = (Fact, Interval, f64)>,
        vars: &mut VarTable,
    ) -> Result<Self> {
        let mut tuples = Vec::new();
        for (i, (fact, interval, p)) in rows.into_iter().enumerate() {
            let id = vars.register(format!("{prefix}{}", i + 1), p)?;
            tuples.push(TpTuple::new(fact, Lineage::var(id), interval));
        }
        Self::try_new(tuples)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples, in their current order.
    pub fn tuples(&self) -> &[TpTuple] {
        &self.tuples
    }

    /// Consumes the relation, returning its tuples.
    pub fn into_tuples(self) -> Vec<TpTuple> {
        self.tuples
    }

    /// Iterator over the tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, TpTuple> {
        self.tuples.iter()
    }

    /// Sorts the tuples by `(F, Ts)` — the precondition of the LAWA sweep
    /// (the `sort` step of Fig. 5).
    pub fn sort_by_fact_start(&mut self) {
        sort_tuples(&mut self.tuples);
    }

    /// Whether the tuples are sorted by `(F, Ts)`.
    pub fn is_sorted_by_fact_start(&self) -> bool {
        self.tuples
            .windows(2)
            .all(|w| w[0].sort_key() <= w[1].sort_key())
    }

    /// Returns a sorted copy (the original is untouched).
    pub fn sorted(&self) -> TpRelation {
        let mut c = self.clone();
        c.sort_by_fact_start();
        c
    }

    /// Validates the duplicate-free requirement of §III.
    pub fn check_duplicate_free(&self) -> Result<()> {
        if self.is_sorted_by_fact_start() {
            check_duplicate_free_sorted(&self.tuples)
        } else {
            let mut sorted = self.tuples.clone();
            sort_tuples(&mut sorted);
            check_duplicate_free_sorted(&sorted)
        }
    }

    /// The distinct facts of the relation.
    pub fn distinct_facts(&self) -> BTreeSet<Fact> {
        self.tuples.iter().map(|t| t.fact.clone()).collect()
    }

    /// The smallest interval covering every tuple, if the relation is
    /// non-empty.
    pub fn time_range(&self) -> Option<Interval> {
        let mut iter = self.tuples.iter();
        let first = iter.next()?;
        let mut lo = first.interval.start();
        let mut hi = first.interval.end();
        for t in iter {
            lo = lo.min(t.interval.start());
            hi = hi.max(t.interval.end());
        }
        Some(Interval::at(lo, hi))
    }

    /// Coalesces adjacent tuples of the same fact whose lineages are
    /// (syntactically) equivalent — the repair step for change preservation
    /// (Def. 2). LAWA output never needs it (asserted by tests); the
    /// normalization baseline uses it defensively.
    pub fn coalesce(&self) -> TpRelation {
        let mut sorted = self.tuples.clone();
        sort_tuples(&mut sorted);
        let mut out: Vec<TpTuple> = Vec::with_capacity(sorted.len());
        for t in sorted {
            if let Some(last) = out.last_mut() {
                if last.fact == t.fact
                    && last.interval.end() == t.interval.start()
                    && last.lineage == t.lineage
                {
                    last.interval = last.interval.hull(&t.interval);
                    continue;
                }
            }
            out.push(t);
        }
        TpRelation { tuples: out }
    }

    /// Checks change preservation (Def. 2) over this relation: no two
    /// tuples with the same fact, equivalent lineage and adjacent intervals.
    pub fn satisfies_change_preservation(&self) -> bool {
        let mut sorted = self.tuples.clone();
        sort_tuples(&mut sorted);
        sorted.windows(2).all(|w| {
            !(w[0].fact == w[1].fact
                && w[0].interval.end() == w[1].interval.start()
                && w[0].lineage == w[1].lineage)
        })
    }

    /// Canonical form for comparisons in tests: sorted by `(F, Ts)`.
    pub fn canonicalized(&self) -> TpRelation {
        self.sorted()
    }

    /// Renders the relation as a table in the style of the paper's figures,
    /// with lineage labels and probabilities resolved through `vars`.
    ///
    /// Probabilities are computed exactly: linear-time for 1OF lineages,
    /// Shannon expansion otherwise (see [`crate::prob::marginal`]).
    pub fn render(&self, vars: &VarTable) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<18} {:<28} {:<12} {:<8}", "F", "λ", "T", "p");
        for t in &self.tuples {
            let p = crate::prob::marginal(&t.lineage, vars)
                .map(|p| format!("{p:.4}"))
                .unwrap_or_else(|_| "?".into());
            let _ = writeln!(
                out,
                "{:<18} {:<28} {:<12} {:<8}",
                t.fact.to_string(),
                t.lineage.display_with(vars.resolver()).to_string(),
                t.interval.to_string(),
                p
            );
        }
        out
    }
}

impl fmt::Display for TpRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<TpTuple> for TpRelation {
    /// Collects tuples without validation; call
    /// [`TpRelation::check_duplicate_free`] if the source is untrusted.
    fn from_iter<I: IntoIterator<Item = TpTuple>>(iter: I) -> Self {
        TpRelation {
            tuples: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a TpRelation {
    type Item = &'a TpTuple;
    type IntoIter = std::slice::Iter<'a, TpTuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

fn sort_tuples(tuples: &mut [TpTuple]) {
    tuples.sort_by(|a, b| {
        a.sort_key()
            .cmp(&b.sort_key())
            .then_with(|| a.interval.end().cmp(&b.interval.end()))
    });
}

fn check_duplicate_free_sorted(tuples: &[TpTuple]) -> Result<()> {
    for w in tuples.windows(2) {
        if w[0].fact == w[1].fact && w[0].interval.overlaps(&w[1].interval) {
            return Err(Error::DuplicateFact {
                fact: w[0].fact.to_string(),
                first: (w[0].interval.start(), w[0].interval.end()),
                second: (w[1].interval.start(), w[1].interval.end()),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(f: &str, s: i64, e: i64, id: u64) -> TpTuple {
        TpTuple::new(f, Lineage::var(TupleId(id)), Interval::at(s, e))
    }

    /// Releases every cohort with epoch `< before`, one
    /// [`VarTable::release_cohort`] call each, and sums what they reclaimed.
    fn release_below(vt: &VarTable, before: VarEpoch) -> ReleasedVars {
        (0..before.0).map(|e| vt.release_cohort(VarEpoch(e))).fold(
            ReleasedVars::default(),
            |sum, r| ReleasedVars {
                cohorts: sum.cohorts + r.cohorts,
                vars: sum.vars + r.vars,
            },
        )
    }

    #[test]
    fn vartable_register_and_lookup() {
        let mut vt = VarTable::new();
        let a = vt.register("a1", 0.3).unwrap();
        let b = vt.register("a2", 1.0).unwrap();
        assert_eq!(vt.prob(a).unwrap(), 0.3);
        assert_eq!(vt.prob(b).unwrap(), 1.0);
        assert_eq!(vt.label(a), "a1");
        assert_eq!(vt.len(), 2);
        assert!(!vt.is_empty());
    }

    #[test]
    fn vartable_rejects_invalid_probability() {
        let mut vt = VarTable::new();
        assert!(matches!(
            vt.register("x", 0.0),
            Err(Error::InvalidProbability(_))
        ));
        assert!(vt.register("x", 1.1).is_err());
        assert!(vt.register("x", -0.2).is_err());
        assert!(vt.register("x", f64::NAN).is_err());
    }

    #[test]
    fn vartable_rejects_non_finite_probabilities() {
        // Regression: every non-finite input must produce
        // `Error::InvalidProbability`, never a registered variable — a NaN
        // that slipped through would silently corrupt every downstream
        // valuation instead of failing loudly here.
        let mut vt = VarTable::new();
        for bad in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_dead_beef_0000), // payload-carrying NaN
        ] {
            assert!(
                matches!(vt.register("x", bad), Err(Error::InvalidProbability(_))),
                "{bad:?} must be rejected"
            );
        }
        assert!(vt.is_empty(), "no variable may be registered on rejection");
        // The boundary values of the domain (0, 1] still behave.
        assert!(vt.register("x", f64::MIN_POSITIVE).is_ok());
        assert!(vt.register("x", 1.0).is_ok());
        assert!(vt.register("x", 0.0).is_err());
    }

    #[test]
    fn var_registry_seal_release_lifecycle() {
        let mut vt = VarTable::new();
        let a = vt.register("a1", 0.3).unwrap();
        let b = vt.register("a2", 0.4).unwrap();
        // Sealing an empty open cohort is a no-op.
        let e0 = vt.seal_vars().expect("cohort non-empty");
        assert_eq!(e0, VarEpoch(0));
        assert_eq!(vt.seal_vars(), None);
        assert_eq!(vt.open_var_epoch(), VarEpoch(1));
        // Second cohort.
        let c = vt.register_shared("b1", 0.5).unwrap();
        let e1 = vt.seal_vars().expect("cohort non-empty");
        assert_eq!(e1, VarEpoch(1));
        assert_eq!(vt.len(), 3);
        assert_eq!(vt.live_vars(), 3);
        // Release cohort 0: its vars error, later cohorts stay intact.
        let released = release_below(&vt, e0.next());
        assert_eq!(released.cohorts, 1);
        assert_eq!(released.vars, 2);
        assert!(matches!(vt.prob(a), Err(Error::ReleasedVariable(0))));
        assert!(matches!(vt.prob(b), Err(Error::ReleasedVariable(1))));
        assert_eq!(vt.prob(c).unwrap(), 0.5);
        assert_eq!(vt.label(c), "b1");
        assert_eq!(vt.label(a), "t0"); // display fallback, not a value
        assert_eq!(vt.live_vars(), 1);
        assert_eq!(vt.released_vars(), 2);
        assert_eq!(vt.len(), 3); // ids stay dense, never reused
                                 // Releasing again is idempotent; the open cohort never releases.
        assert_eq!(release_below(&vt, VarEpoch(99)).vars, 1); // cohort 1
        let d = vt.register_shared("c1", 0.6).unwrap();
        assert_eq!(release_below(&vt, VarEpoch(99)).vars, 0); // open kept
        assert_eq!(vt.prob(d).unwrap(), 0.6);
        // Unknown ids stay UnknownVariable, not ReleasedVariable.
        assert!(matches!(
            vt.prob(TupleId(99)),
            Err(Error::UnknownVariable(99))
        ));
    }

    #[test]
    fn var_registry_interior_cohort_release() {
        // Cohort 1 releases *in place* while cohort 0 is still live — the
        // cohort-granular path interior segment retirement takes. Gauges
        // stay exact, live lookups stay intact, released ids error.
        let mut vt = VarTable::new();
        let a = vt.register("a1", 0.3).unwrap();
        let e0 = vt.seal_vars().unwrap();
        let b = vt.register("b1", 0.4).unwrap();
        let b2 = vt.register("b2", 0.45).unwrap();
        let e1 = vt.seal_vars().unwrap();
        let c = vt.register("c1", 0.5).unwrap();
        let e2 = vt.seal_vars().unwrap();

        let released = vt.release_cohort(e1);
        assert_eq!(released.cohorts, 1);
        assert_eq!(released.vars, 2);
        assert!(matches!(vt.prob(b), Err(Error::ReleasedVariable(_))));
        assert!(matches!(vt.prob(b2), Err(Error::ReleasedVariable(_))));
        assert_eq!(vt.prob(a).unwrap(), 0.3, "older cohort must stay live");
        assert_eq!(vt.prob(c).unwrap(), 0.5, "newer cohort must stay live");
        assert_eq!(vt.live_vars(), 2);
        assert_eq!(vt.released_vars(), 2);
        // Idempotent; the open cohort and unknown epochs are no-ops.
        assert_eq!(vt.release_cohort(e1).vars, 0);
        assert_eq!(vt.release_cohort(vt.open_var_epoch()).vars, 0);
        assert_eq!(vt.release_cohort(VarEpoch(99)).vars, 0);

        // Releasing cohort 0 compacts the dead prefix run [e0, e1] off the
        // deque: floor absorbs both, the interior gauge returns to zero.
        let released = vt.release_cohort(e0);
        assert_eq!(released.vars, 1);
        assert_eq!(vt.live_vars(), 1);
        assert_eq!(vt.released_vars(), 3);
        assert!(matches!(vt.prob(a), Err(Error::ReleasedVariable(0))));
        assert_eq!(vt.prob(c).unwrap(), 0.5);
        // A later prefix release over the same range double-counts nothing.
        assert_eq!(release_below(&vt, e2.next()).vars, 1); // cohort 2
        assert_eq!(vt.released_vars(), 4);
        assert_eq!(vt.live_vars(), 0);
    }

    #[test]
    fn var_registry_values_identical_to_unsealed_control() {
        // Sealing must not change any live lookup: a sealed/partially
        // released table agrees with a never-sealed control on every live
        // id.
        let mut subject = VarTable::new();
        let mut control = VarTable::new();
        let mut epochs = Vec::new();
        for cohort in 0..6u64 {
            for k in 0..5u64 {
                let p = 0.05 + 0.9 * ((cohort * 5 + k) as f64 / 30.0);
                let label = format!("v{cohort}_{k}");
                let ids = (
                    subject.register(label.clone(), p).unwrap(),
                    control.register(label, p).unwrap(),
                );
                assert_eq!(ids.0, ids.1, "registration order must align ids");
            }
            epochs.push(subject.seal_vars().unwrap());
        }
        release_below(&subject, epochs[2].next());
        let floor = subject.released_vars();
        assert_eq!(floor, 15);
        for id in floor..subject.len() as u64 {
            assert_eq!(
                subject.prob(TupleId(id)).unwrap(),
                control.prob(TupleId(id)).unwrap(),
                "live id {id} diverged"
            );
            assert_eq!(subject.label(TupleId(id)), control.label(TupleId(id)));
        }
    }

    #[test]
    fn vartable_unknown_variable() {
        let vt = VarTable::new();
        assert!(matches!(
            vt.prob(TupleId(3)),
            Err(Error::UnknownVariable(3))
        ));
        assert_eq!(vt.label(TupleId(3)), "t3");
    }

    #[test]
    fn try_new_accepts_duplicate_free() {
        let r = TpRelation::try_new(vec![
            tup("milk", 1, 4, 0),
            tup("milk", 6, 8, 1),
            tup("chips", 4, 5, 2),
        ])
        .unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.is_sorted_by_fact_start());
    }

    #[test]
    fn try_new_rejects_overlapping_same_fact() {
        let err =
            TpRelation::try_new(vec![tup("milk", 1, 5, 0), tup("milk", 4, 8, 1)]).unwrap_err();
        assert!(matches!(err, Error::DuplicateFact { .. }));
    }

    #[test]
    fn adjacent_same_fact_is_duplicate_free() {
        // [1,5) and [5,8) share no time point under half-open semantics.
        assert!(TpRelation::try_new(vec![tup("milk", 1, 5, 0), tup("milk", 5, 8, 1)]).is_ok());
    }

    #[test]
    fn same_interval_different_fact_is_fine() {
        assert!(TpRelation::try_new(vec![tup("a", 1, 5, 0), tup("b", 1, 5, 1)]).is_ok());
    }

    #[test]
    fn base_assigns_labels_and_probs() {
        let mut vt = VarTable::new();
        let r = TpRelation::base(
            "a",
            vec![
                (Fact::single("milk"), Interval::at(2, 10), 0.3),
                (Fact::single("chips"), Interval::at(4, 7), 0.8),
            ],
            &mut vt,
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(vt.label(TupleId(0)), "a1");
        assert_eq!(vt.label(TupleId(1)), "a2");
        assert_eq!(vt.prob(TupleId(1)).unwrap(), 0.8);
    }

    #[test]
    fn sorting_and_time_range() {
        let mut r: TpRelation = vec![tup("b", 5, 9, 0), tup("a", 3, 4, 1), tup("a", 1, 2, 2)]
            .into_iter()
            .collect();
        assert!(!r.is_sorted_by_fact_start());
        r.sort_by_fact_start();
        assert!(r.is_sorted_by_fact_start());
        assert_eq!(r.tuples()[0].fact, Fact::single("a"));
        assert_eq!(r.time_range(), Some(Interval::at(1, 9)));
        assert!(TpRelation::new().time_range().is_none());
    }

    #[test]
    fn distinct_facts() {
        let r: TpRelation = vec![tup("a", 1, 2, 0), tup("a", 3, 4, 1), tup("b", 1, 2, 2)]
            .into_iter()
            .collect();
        assert_eq!(r.distinct_facts().len(), 2);
    }

    #[test]
    fn coalesce_merges_adjacent_equal_lineage() {
        // Two fragments of the same tuple — e.g. produced by normalization —
        // must merge back.
        let frag1 = TpTuple::new("a", Lineage::var(TupleId(0)), Interval::at(1, 3));
        let frag2 = TpTuple::new("a", Lineage::var(TupleId(0)), Interval::at(3, 7));
        let r: TpRelation = vec![frag2.clone(), frag1.clone()].into_iter().collect();
        let c = r.coalesce();
        assert_eq!(c.len(), 1);
        assert_eq!(c.tuples()[0].interval, Interval::at(1, 7));
    }

    #[test]
    fn coalesce_keeps_different_lineage_apart() {
        let r: TpRelation = vec![tup("a", 1, 3, 0), tup("a", 3, 7, 1)]
            .into_iter()
            .collect();
        assert_eq!(r.coalesce().len(), 2);
        assert!(r.satisfies_change_preservation());
    }

    #[test]
    fn change_preservation_detects_violation() {
        let frag1 = TpTuple::new("a", Lineage::var(TupleId(0)), Interval::at(1, 3));
        let frag2 = TpTuple::new("a", Lineage::var(TupleId(0)), Interval::at(3, 7));
        let r: TpRelation = vec![frag1, frag2].into_iter().collect();
        assert!(!r.satisfies_change_preservation());
    }

    #[test]
    fn render_includes_probabilities() {
        let mut vt = VarTable::new();
        let r = TpRelation::base(
            "a",
            vec![(Fact::single("milk"), Interval::at(2, 10), 0.3)],
            &mut vt,
        )
        .unwrap();
        let s = r.render(&vt);
        assert!(s.contains("'milk'"));
        assert!(s.contains("a1"));
        assert!(s.contains("0.3000"));
    }
}
