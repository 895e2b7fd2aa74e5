//! The exact union measure of a divisibility chain of periodic windows.
//!
//! The latency model's windows all come from one temporal loop stack: each
//! period is a prefix product of it, so sorted by size every period divides
//! the next (a *divisibility chain*). Over such a chain the union has a
//! closed form that never enumerates intervals.
//!
//! Extend every window periodically from `t = 0` and let `F_A(t)` be the
//! measure of the union of window set `A` on `[0, t)`. With `H` the largest
//! period in `A`, `[s, s+x)` the active interval of one window of period
//! `H`, and `A'` the set without that window:
//!
//! - `F_A(t) = ⌊t/H⌋·F_A(H) + F_A(t mod H)`, because every period in `A`
//!   divides `H`;
//! - for `r ≤ H`:
//!   `F_A(r) = |[s,s+x)∩[0,r)| + F_{A'}(r) − F_{A'}(min(s+x,r)) + F_{A'}(min(s,r))`,
//!   i.e. the window's own part plus what `A'` covers outside it.
//!
//! A finite window stops at its span `P·Z`. Between two consecutive span
//! ends `e_{j−1} < e_j` the windows still running are exactly those whose
//! span reaches `e_j`, so the finite union is
//! `Σ_j F_{A_j}(e_j) − F_{A_j}(e_{j−1})`. On integral windows every term is
//! an integer below 2^53, so the answer is exact whatever the order of the
//! floating-point operations.

use crate::PeriodicWindow;

/// Exact measure of `|∪ windows|`, the paper's `MUW_comb`.
///
/// Empty windows (zero length or zero count) contribute nothing, and an
/// empty input yields zero. `windows` is reordered in place (by descending
/// period), which is the only scratch the computation needs.
///
/// # Panics
///
/// Panics unless the periods of the non-empty windows form a divisibility
/// chain: sorted, each divides the next. Every set of windows the latency
/// model builds does, since their periods are prefix products of one loop
/// stack.
pub fn union_measure(windows: &mut [PeriodicWindow]) -> f64 {
    // Non-empty windows first, by descending period; the remaining keys
    // make the order, and so the floating-point result, a function of the
    // window multiset alone.
    windows.sort_unstable_by(|a, b| {
        a.is_empty()
            .cmp(&b.is_empty())
            .then(b.period().total_cmp(&a.period()))
            .then(a.start().total_cmp(&b.start()))
            .then(a.len().total_cmp(&b.len()))
            .then(a.count().cmp(&b.count()))
    });
    let live = windows.iter().take_while(|w| !w.is_empty()).count();
    let chain = &windows[..live];
    for pair in chain.windows(2) {
        assert!(
            pair[0].period() % pair[1].period() == 0.0,
            "window periods must form a divisibility chain: {} does not divide {}",
            pair[1].period(),
            pair[0].period()
        );
    }
    let mut total = 0.0;
    let mut from = 0.0;
    while let Some(end) = chain
        .iter()
        .map(PeriodicWindow::span)
        .filter(|&e| e > from)
        .min_by(f64::total_cmp)
    {
        total += prefix(chain, end, end) - prefix(chain, end, from);
        from = end;
    }
    total
}

/// `F_A(t)`, where `A` is the windows of `chain` (sorted by descending
/// period) whose span reaches `end`.
fn prefix(chain: &[PeriodicWindow], end: f64, t: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    let Some(i) = chain.iter().position(|w| w.span() >= end) else {
        return 0.0;
    };
    let (w, rest) = (&chain[i], &chain[i + 1..]);
    let h = w.period();
    let r = t % h;
    let periods = (t - r) / h;
    let head = if periods > 0.0 {
        periods * within(w, rest, end, h)
    } else {
        0.0
    };
    head + within(w, rest, end, r)
}

/// `F_A(r)` for `r ≤ H`, where `w` is the window of the largest period
/// `H` and `rest` holds the others, as in [`prefix`].
fn within(w: &PeriodicWindow, rest: &[PeriodicWindow], end: f64, r: f64) -> f64 {
    let (s, e) = (w.start(), w.start() + w.len());
    if r <= s {
        prefix(rest, end, r)
    } else if r <= e {
        (r - s) + prefix(rest, end, s)
    } else {
        w.len() + prefix(rest, end, r) - prefix(rest, end, e) + prefix(rest, end, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeriodicWindow;

    fn w(period: f64, start: f64, len: f64, count: u64) -> PeriodicWindow {
        PeriodicWindow::new(period, start, len, count).unwrap()
    }

    /// Brute-force union measure on an integer grid (windows must have
    /// integer parameters).
    fn brute_union(windows: &[PeriodicWindow]) -> f64 {
        let span = windows.iter().map(|x| x.span()).fold(0.0, f64::max) as usize;
        let mut grid = vec![false; span];
        for win in windows {
            for k in 0..win.count() {
                let (lo, hi) = win.interval(k);
                for cell in grid
                    .iter_mut()
                    .take(hi.round() as usize)
                    .skip(lo.round() as usize)
                {
                    *cell = true;
                }
            }
        }
        grid.iter().filter(|&&b| b).count() as f64
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(union_measure(&mut []), 0.0);
    }

    #[test]
    fn single_window_is_its_measure() {
        let a = w(10.0, 2.0, 3.0, 4);
        assert_eq!(union_measure(&mut [a]), 12.0);
    }

    #[test]
    fn full_window_absorbs_everything() {
        let a = PeriodicWindow::full(5.0, 8).unwrap();
        let b = w(10.0, 1.0, 2.0, 4);
        assert_eq!(union_measure(&mut [a, b]), 40.0);
    }

    #[test]
    fn disjoint_windows_add() {
        // Period 10: [0,2) and [5,7) per period never overlap.
        let a = w(10.0, 0.0, 2.0, 3);
        let b = w(10.0, 5.0, 2.0, 3);
        assert_eq!(union_measure(&mut [a, b]), 12.0);
    }

    #[test]
    fn overlapping_windows_merge() {
        let a = w(10.0, 0.0, 4.0, 2);
        let b = w(10.0, 2.0, 4.0, 2);
        // Per period: [0,4) u [2,6) = 6 cycles.
        assert_eq!(union_measure(&mut [a, b]), 12.0);
    }

    #[test]
    fn equal_span_divisibility_chain_is_swept_exactly() {
        // Divisibility chain 4 | 8 | 16 of trailing windows, all spanning
        // 32 cycles.
        let a = PeriodicWindow::trailing(4.0, 1.0, 8).unwrap();
        let b = PeriodicWindow::trailing(8.0, 3.0, 4).unwrap();
        let c = PeriodicWindow::trailing(16.0, 5.0, 2).unwrap();
        let set = [a, b, c];
        assert_eq!(union_measure(&mut set.clone()), brute_union(&set));
    }

    #[test]
    fn unequal_spans_handled_by_direct_sweep() {
        let a = w(8.0, 0.0, 5.0, 2); // span 16
        let b = w(4.0, 1.0, 2.0, 10); // span 40
        let set = [a, b];
        assert_eq!(union_measure(&mut set.clone()), brute_union(&set));
    }

    #[test]
    #[should_panic(expected = "divisibility chain")]
    fn periods_outside_a_chain_are_rejected() {
        union_measure(&mut [w(6.0, 1.0, 2.0, 5), w(10.0, 4.0, 3.0, 3)]);
    }

    #[test]
    fn zero_length_windows_ignored() {
        let a = w(10.0, 0.0, 0.0, 4);
        let b = w(10.0, 1.0, 2.0, 4);
        // An empty window's period takes no part in the chain.
        let c = w(7.0, 0.0, 0.0, 3);
        assert_eq!(union_measure(&mut [a, b, c]), 8.0);
    }
}
