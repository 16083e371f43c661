//! The lineage-aware temporal window and the lineage-aware window advancer
//! (LAWA, Algorithm 1 of the paper).
//!
//! A [`LineageAwareWindow`] has schema `(F, winTs, winTe, λr, λs)`: a fact, a
//! candidate output interval, and the lineage expressions of the (at most
//! one, by duplicate-freeness) tuple of each input relation valid over the
//! whole interval. [`Lawa`] is an iterator producing these windows during a
//! single sweep over two relations sorted by `(F, Ts)`.
//!
//! The implementation corrects three glitches of the published pseudocode —
//! see `DESIGN.md` ("Deviations") — and is validated against the snapshot
//! oracle by unit, integration and property tests:
//!
//! 1. both-streams-exhausted termination (Alg. 1 lines 3–4 typo),
//! 2. `winTe` only considers upcoming tuples of the *current* fact,
//! 3. new-window fact selection follows the global `(F, Ts)` sort order.

use crate::fact::Fact;
use crate::interval::{Interval, TimePoint};
use crate::lineage::Lineage;
use crate::tuple::TpTuple;

/// A lineage-aware temporal window `(F, [winTs, winTe), λr, λs)`.
///
/// `lambda_r`/`lambda_s` are `None` when no tuple of the respective relation
/// with fact `fact` is valid over the window — the paper's `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageAwareWindow {
    /// The fact the window belongs to.
    pub fact: Fact,
    /// The candidate output interval `[winTs, winTe)`.
    pub interval: Interval,
    /// Lineage of the left input tuple valid over the window, if any.
    pub lambda_r: Option<Lineage>,
    /// Lineage of the right input tuple valid over the window, if any.
    pub lambda_s: Option<Lineage>,
}

/// The lineage-aware window advancer: an iterator over the lineage-aware
/// temporal windows of two relations sorted by `(F, Ts)`.
///
/// Every call to [`Iterator::next`] corresponds to one call of `LAWA(status)`
/// in Algorithm 1; the `status` record of the paper is the struct's fields.
/// The advancer performs a single pass: O(|r| + |s|) windows in total
/// (Proposition 1: at most `nr + ns − fd` where `nr`, `ns` count start and
/// end points and `fd` is the number of distinct facts).
pub struct Lawa<'a> {
    r: &'a [TpTuple],
    s: &'a [TpTuple],
    /// Index of the next unprocessed tuple of `r` (the paper's `r`).
    ri: usize,
    /// Index of the next unprocessed tuple of `s` (the paper's `s`).
    si: usize,
    /// The left tuple valid over the sweeping window (`rValid`).
    r_valid: Option<&'a TpTuple>,
    /// The right tuple valid over the sweeping window (`sValid`).
    s_valid: Option<&'a TpTuple>,
    /// Right boundary of the previous window (`prevWinTe`).
    prev_win_te: TimePoint,
    /// The fact currently being processed (`currFact`), borrowed from the
    /// input slices: the window's owned `fact` is the only `Arc` bump per
    /// `next()`.
    curr_fact: Option<&'a Fact>,
}

impl<'a> Lawa<'a> {
    /// Creates an advancer over two tuple slices sorted by `(F, Ts)`.
    ///
    /// Debug builds assert the sort order; release builds trust the caller
    /// (the operators in [`crate::ops`] always sort first, per Fig. 5).
    pub fn new(r: &'a [TpTuple], s: &'a [TpTuple]) -> Self {
        debug_assert!(is_sorted(r), "left input must be sorted by (F, Ts)");
        debug_assert!(is_sorted(s), "right input must be sorted by (F, Ts)");
        Lawa {
            r,
            s,
            ri: 0,
            si: 0,
            r_valid: None,
            s_valid: None,
            prev_win_te: TimePoint::MIN,
            curr_fact: None,
        }
    }

    /// Whether the left relation can no longer contribute to any window:
    /// its stream is drained and no left tuple is valid.
    pub fn left_exhausted(&self) -> bool {
        self.ri >= self.r.len() && self.r_valid.is_none()
    }

    /// Whether the right relation can no longer contribute to any window.
    pub fn right_exhausted(&self) -> bool {
        self.si >= self.s.len() && self.s_valid.is_none()
    }

    fn r_head(&self) -> Option<&'a TpTuple> {
        self.r.get(self.ri)
    }

    fn s_head(&self) -> Option<&'a TpTuple> {
        self.s.get(self.si)
    }
}

impl<'a> Iterator for Lawa<'a> {
    type Item = LineageAwareWindow;

    fn next(&mut self) -> Option<LineageAwareWindow> {
        // --- Determine winTs (Alg. 1 lines 2-16). ---
        let win_ts = if self.r_valid.is_none() && self.s_valid.is_none() {
            match (self.r_head(), self.s_head()) {
                // Both relations fully scanned: no further window.
                (None, None) => return None,
                (Some(r), None) => {
                    self.curr_fact = Some(&r.fact);
                    r.interval.start()
                }
                (None, Some(s)) => {
                    self.curr_fact = Some(&s.fact);
                    s.interval.start()
                }
                (Some(r), Some(s)) => {
                    let r_cont = self.curr_fact == Some(&r.fact);
                    let s_cont = self.curr_fact == Some(&s.fact);
                    if r_cont && !s_cont {
                        // The current fact continues in r only (lines 9-10).
                        r.interval.start()
                    } else if s_cont && !r_cont {
                        // The current fact continues in s only (lines 11-12).
                        s.interval.start()
                    } else {
                        // Either both heads continue the current fact or a
                        // new fact begins: follow the global (F, Ts) order
                        // (lines 13-15, made explicit; deviation 3).
                        if (&r.fact, r.interval.start()) <= (&s.fact, s.interval.start()) {
                            self.curr_fact = Some(&r.fact);
                            r.interval.start()
                        } else {
                            self.curr_fact = Some(&s.fact);
                            s.interval.start()
                        }
                    }
                }
            }
        } else {
            // A tuple is still valid: the window is adjacent to the previous
            // one (line 16).
            self.prev_win_te
        };

        let curr_fact = self
            .curr_fact
            .expect("curr_fact is set before any window is produced");

        // --- Admit tuples opening exactly at winTs (lines 17-20). ---
        if let Some(r) = self.r_head() {
            if r.fact == *curr_fact && r.interval.start() == win_ts {
                debug_assert!(self.r_valid.is_none(), "duplicate-free input violated");
                self.r_valid = Some(r);
                self.ri += 1;
            }
        }
        if let Some(s) = self.s_head() {
            if s.fact == *curr_fact && s.interval.start() == win_ts {
                debug_assert!(self.s_valid.is_none(), "duplicate-free input violated");
                self.s_valid = Some(s);
                self.si += 1;
            }
        }

        // --- Determine winTe (line 21, with deviation 2: only upcoming
        // tuples of the current fact clip the window). ---
        let mut win_te = TimePoint::MAX;
        if let Some(t) = self.r_valid {
            win_te = win_te.min(t.interval.end());
        }
        if let Some(t) = self.s_valid {
            win_te = win_te.min(t.interval.end());
        }
        if let Some(r) = self.r_head() {
            if r.fact == *curr_fact {
                win_te = win_te.min(r.interval.start());
            }
        }
        if let Some(s) = self.s_head() {
            if s.fact == *curr_fact {
                win_te = win_te.min(s.interval.start());
            }
        }
        debug_assert!(
            win_ts < win_te && win_te < TimePoint::MAX,
            "window [{win_ts},{win_te}) must be non-empty and bounded"
        );

        // --- Emit the window (lines 22-25). ---
        let window = LineageAwareWindow {
            fact: curr_fact.clone(),
            interval: Interval::at(win_ts, win_te),
            lambda_r: self.r_valid.map(|t| t.lineage),
            lambda_s: self.s_valid.map(|t| t.lineage),
        };

        // --- Close tuples ending at winTe (lines 26-28). ---
        if self.r_valid.is_some_and(|t| t.interval.end() == win_te) {
            self.r_valid = None;
        }
        if self.s_valid.is_some_and(|t| t.interval.end() == win_te) {
            self.s_valid = None;
        }
        self.prev_win_te = win_te;
        Some(window)
    }
}

fn is_sorted(tuples: &[TpTuple]) -> bool {
    tuples
        .windows(2)
        .all(|w| w[0].sort_key() <= w[1].sort_key())
}

/// Drains the advancer, returning every window. Mainly useful in tests and
/// for verifying Proposition 1's bound on the number of windows.
pub fn all_windows(r: &[TpTuple], s: &[TpTuple]) -> Vec<LineageAwareWindow> {
    Lawa::new(r, s).collect()
}

/// Window-prefix finalization: splits tuples at a watermark `w` into the
/// *closed* part (intervals clipped to `(-∞, w)`) and the *residual* part
/// (intervals clipped to `[w, ∞)`, same fact and lineage).
///
/// A watermark `w` promises that no tuple starting before `w` will arrive
/// anymore, so LAWA windows over the closed part can never change: they are
/// final. A tuple crossing `w` contributes its prefix now and re-enters the
/// next sweep as a residual; because the residual carries the *same*
/// lineage handle, the windows on both sides of the artificial cut carry
/// identical λ-expressions and the streaming engine's delta merge
/// (`tp-stream`) reassembles exactly the batch output. Tuples starting at
/// or after `w` are returned whole in the residual.
///
/// The carried residual handles are also what anchors **segment
/// reclamation** (see [`crate::arena`]): a residual keeps every arena
/// segment in `[min_segment, segment]` of its lineage alive, so the
/// reclaiming engine's live frontier is exactly the minimum over the
/// residuals and pending arrivals — once the frontier passes a sealed
/// segment, no future window can mention its nodes and its storage can be
/// retired.
///
/// Order is preserved within each output; inputs need not be sorted.
pub fn split_at_watermark(
    tuples: impl IntoIterator<Item = TpTuple>,
    w: TimePoint,
) -> (Vec<TpTuple>, Vec<TpTuple>) {
    let mut closed = Vec::new();
    let mut residual = Vec::new();
    for t in tuples {
        split_tuple_at_watermark(t, w, &mut closed, &mut residual);
    }
    (closed, residual)
}

/// [`split_at_watermark`] for one tuple, appending to caller-owned lists:
/// the tuple moves into `closed` or `residual` whole, or — crossing `w` —
/// leaves its head `[Ts, w)` in `closed` and moves on, clipped to
/// `[w, Te)`, into `residual` (same fact, same lineage handle). The
/// streaming engine splits its carried residuals through this, into lists
/// it keeps across advances.
pub fn split_tuple_at_watermark(
    mut t: TpTuple,
    w: TimePoint,
    closed: &mut Vec<TpTuple>,
    residual: &mut Vec<TpTuple>,
) {
    if t.interval.end() <= w {
        closed.push(t);
    } else if t.interval.start() >= w {
        residual.push(t);
    } else {
        let head = Interval::at(t.interval.start(), w);
        closed.push(TpTuple::new(t.fact.clone(), t.lineage, head));
        t.interval = Interval::at(w, t.interval.end());
        residual.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::TupleId;
    use crate::relation::{TpRelation, VarTable};

    fn tup(f: &str, s: i64, e: i64, id: u64) -> TpTuple {
        TpTuple::new(f, Lineage::var(TupleId(id)), Interval::at(s, e))
    }

    fn v(i: u64) -> Lineage {
        Lineage::var(TupleId(i))
    }

    /// Relations c (left) and a (right) restricted to 'milk', as in the
    /// paper's Example 3 / Fig. 4. ids: c1=0, c2=1, a1=2.
    fn example3() -> (Vec<TpTuple>, Vec<TpTuple>) {
        let c = vec![tup("milk", 1, 4, 0), tup("milk", 6, 8, 1)];
        let a = vec![tup("milk", 2, 10, 2)];
        (c, a)
    }

    #[test]
    fn example3_window_sequence() {
        // Fig. 4 + Fig. 6: windows [1,2), [2,4), [4,6), [6,8), [8,10).
        let (c, a) = example3();
        let ws = all_windows(&c, &a);
        let expect = vec![
            ("milk", (1, 2), Some(v(0)), None),
            ("milk", (2, 4), Some(v(0)), Some(v(2))),
            ("milk", (4, 6), None, Some(v(2))),
            ("milk", (6, 8), Some(v(1)), Some(v(2))),
            ("milk", (8, 10), None, Some(v(2))),
        ];
        assert_eq!(ws.len(), expect.len());
        for (w, (f, (ts, te), lr, ls)) in ws.iter().zip(expect) {
            assert_eq!(w.fact, Fact::single(f));
            assert_eq!(w.interval, Interval::at(ts, te));
            assert_eq!(w.lambda_r, lr);
            assert_eq!(w.lambda_s, ls);
        }
    }

    #[test]
    fn no_windows_for_empty_inputs() {
        assert!(all_windows(&[], &[]).is_empty());
    }

    #[test]
    fn single_relation_windows_pass_through() {
        let r = vec![tup("a", 1, 5, 0), tup("a", 7, 9, 1), tup("b", 0, 2, 2)];
        let ws = all_windows(&r, &[]);
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].interval, Interval::at(1, 5));
        assert_eq!(ws[1].interval, Interval::at(7, 9)); // gap [5,7) skipped
        assert_eq!(ws[2].interval, Interval::at(0, 2)); // new fact restarts winTs
        assert!(ws.iter().all(|w| w.lambda_s.is_none()));
    }

    #[test]
    fn windows_are_adjacent_within_a_fact_segment() {
        let (c, a) = example3();
        let ws = all_windows(&c, &a);
        for pair in ws.windows(2) {
            if pair[0].fact == pair[1].fact {
                assert!(pair[0].interval.end() <= pair[1].interval.start());
            }
        }
    }

    #[test]
    fn different_fact_next_tuple_does_not_clip_window() {
        // Deviation 2: r has 'apple' [1,10); s has only 'banana' [2,3).
        // The apple window must be [1,10), not clipped at 2.
        let r = vec![tup("apple", 1, 10, 0)];
        let s = vec![tup("banana", 2, 3, 1)];
        let ws = all_windows(&r, &s);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].fact, Fact::single("apple"));
        assert_eq!(ws[0].interval, Interval::at(1, 10));
        assert_eq!(ws[1].fact, Fact::single("banana"));
        assert_eq!(ws[1].interval, Interval::at(2, 3));
    }

    #[test]
    fn trailing_overlap_after_one_stream_drains() {
        // Alg. 2 deviation 4 scenario: r = {[1,10)}, s = {[2,5)}.
        let r = vec![tup("x", 1, 10, 0)];
        let s = vec![tup("x", 2, 5, 1)];
        let ws = all_windows(&r, &s);
        let intervals: Vec<_> = ws.iter().map(|w| w.interval).collect();
        assert_eq!(
            intervals,
            vec![Interval::at(1, 2), Interval::at(2, 5), Interval::at(5, 10)]
        );
        assert_eq!(ws[1].lambda_r, Some(v(0)));
        assert_eq!(ws[1].lambda_s, Some(v(1)));
        assert_eq!(ws[2].lambda_s, None);
    }

    #[test]
    fn gap_between_valid_tuples_produces_sparse_windows() {
        // r = {[1,3), [5,9)}, s = {[2,8)} — window [3,5) has only λs.
        let r = vec![tup("x", 1, 3, 0), tup("x", 5, 9, 1)];
        let s = vec![tup("x", 2, 8, 2)];
        let ws = all_windows(&r, &s);
        let described: Vec<_> = ws
            .iter()
            .map(|w| {
                (
                    w.interval.start(),
                    w.interval.end(),
                    w.lambda_r.is_some(),
                    w.lambda_s.is_some(),
                )
            })
            .collect();
        assert_eq!(
            described,
            vec![
                (1, 2, true, false),
                (2, 3, true, true),
                (3, 5, false, true),
                (5, 8, true, true),
                (8, 9, true, false),
            ]
        );
    }

    #[test]
    fn every_window_has_at_least_one_lineage() {
        let r = vec![tup("a", 1, 4, 0), tup("a", 6, 9, 1), tup("b", 2, 3, 2)];
        let s = vec![tup("a", 2, 7, 3), tup("c", 1, 2, 4)];
        for w in all_windows(&r, &s) {
            assert!(w.lambda_r.is_some() || w.lambda_s.is_some());
        }
    }

    #[test]
    fn window_count_respects_proposition1() {
        // Bound: nr + ns − fd where nr/ns count start and end points.
        let mut vars = VarTable::new();
        let r = TpRelation::base(
            "r",
            vec![
                (Fact::single("a"), Interval::at(1, 5), 0.5),
                (Fact::single("a"), Interval::at(6, 8), 0.5),
                (Fact::single("b"), Interval::at(2, 9), 0.5),
            ],
            &mut vars,
        )
        .unwrap();
        let s = TpRelation::base(
            "s",
            vec![
                (Fact::single("a"), Interval::at(3, 7), 0.5),
                (Fact::single("c"), Interval::at(0, 4), 0.5),
            ],
            &mut vars,
        )
        .unwrap();
        let ws = all_windows(r.tuples(), s.tuples());
        let nr = 2 * r.len();
        let ns = 2 * s.len();
        let mut facts = r.distinct_facts();
        facts.extend(s.distinct_facts());
        assert!(ws.len() <= nr + ns - facts.len(), "{} windows", ws.len());
    }

    #[test]
    fn adjacent_tuples_same_fact_produce_separate_windows() {
        // Duplicate-free allows touching intervals; LAWA must not merge them.
        let r = vec![tup("x", 1, 5, 0), tup("x", 5, 9, 1)];
        let ws = all_windows(&r, &[]);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].interval, Interval::at(1, 5));
        assert_eq!(ws[1].interval, Interval::at(5, 9));
        assert_ne!(ws[0].lambda_r, ws[1].lambda_r);
    }

    #[test]
    fn split_at_watermark_partitions_and_preserves_lineage() {
        let tuples = vec![
            tup("a", 1, 4, 0), // entirely closed
            tup("a", 2, 9, 1), // crosses the watermark
            tup("b", 6, 8, 2), // entirely residual
            tup("b", 3, 5, 3), // end exactly at w: closed
            tup("c", 5, 7, 4), // start exactly at w: residual, untouched
        ];
        let (closed, residual) = split_at_watermark(tuples.clone(), 5);
        let ivals = |ts: &[TpTuple]| -> Vec<(i64, i64)> {
            ts.iter()
                .map(|t| (t.interval.start(), t.interval.end()))
                .collect()
        };
        assert_eq!(ivals(&closed), vec![(1, 4), (2, 5), (3, 5)]);
        assert_eq!(ivals(&residual), vec![(5, 9), (6, 8), (5, 7)]);
        // The crossing tuple's halves share the original lineage handle.
        assert_eq!(closed[1].lineage, tuples[1].lineage);
        assert_eq!(residual[0].lineage, tuples[1].lineage);
        assert_eq!(residual[0].fact, tuples[1].fact);
        // Re-splitting the residual at a later watermark closes more.
        let (closed2, residual2) = split_at_watermark(residual, 8);
        assert_eq!(ivals(&closed2), vec![(5, 8), (6, 8), (5, 7)]);
        assert_eq!(ivals(&residual2), vec![(8, 9)]);
    }

    #[test]
    fn split_then_sweep_matches_batch_windows_up_to_the_cut() {
        // Windows over closed ++ residual, merged at the artificial cut,
        // must equal the batch windows (Example 3 data, cut at 5).
        let (c, a) = example3();
        let batch = all_windows(&c, &a);
        let (c_closed, c_res) = split_at_watermark(c.clone(), 5);
        let (a_closed, a_res) = split_at_watermark(a.clone(), 5);
        let mut stitched = all_windows(&c_closed, &a_closed);
        stitched.extend(all_windows(&c_res, &a_res));
        // Merge adjacent same-fact windows with identical λr/λs (the
        // artificial cut at 5).
        let mut merged: Vec<LineageAwareWindow> = Vec::new();
        for w in stitched {
            if let Some(last) = merged.last_mut() {
                if last.fact == w.fact
                    && last.interval.end() == w.interval.start()
                    && last.lambda_r == w.lambda_r
                    && last.lambda_s == w.lambda_s
                {
                    last.interval = Interval::at(last.interval.start(), w.interval.end());
                    continue;
                }
            }
            merged.push(w);
        }
        assert_eq!(merged, batch);
    }

    #[test]
    fn exhaustion_flags() {
        let r = vec![tup("x", 1, 3, 0)];
        let s = vec![tup("x", 2, 6, 1)];
        let mut lawa = Lawa::new(&r, &s);
        assert!(!lawa.left_exhausted());
        assert!(!lawa.right_exhausted());
        lawa.next(); // [1,2): consumes r head into r_valid... also admits? no, s starts at 2
        lawa.next(); // [2,3): r closes
        assert!(lawa.left_exhausted());
        assert!(!lawa.right_exhausted());
        lawa.next(); // [3,6)
        assert!(lawa.right_exhausted());
        assert!(lawa.next().is_none());
    }
}
