//! Union and intersection measures of sets of periodic windows.
//!
//! Two exact strategies, tried in order:
//!
//! 1. **Trivial**: if any window is full (active over its entire span) and
//!    its span covers the longest span, the union is the whole timeline.
//! 2. **Direct sweep**: a k-way merge over every active interval; exact but
//!    `O(Σ Z_i)`, used while the total interval count is below a cap.
//!
//! Above the cap the measure falls back to an *independence estimate*
//! (`T * (1 - Π(1 - X_i/P_i))`) clamped to provable bounds, and is marked
//! approximate ([`Measure::is_exact`] is false).

use crate::PeriodicWindow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A union/intersection measure together with its exactness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measure {
    value: f64,
    /// Computed exactly (trivial or direct sweep), not by
    /// the independence estimate clamped to `[max_i |w_i|, min(T, Σ |w_i|)]`.
    exact: bool,
}

impl Measure {
    fn exact(value: f64) -> Self {
        Self { value, exact: true }
    }

    fn approximate(value: f64) -> Self {
        Self {
            value,
            exact: false,
        }
    }

    /// The measured total length.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// True when the value was computed exactly.
    pub fn is_exact(&self) -> bool {
        self.exact
    }
}

/// Tuning knobs for the union computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct UnionOptions {
    /// Maximum number of individual intervals any exact strategy may
    /// materialize before falling back to the approximation.
    pub max_intervals: u64,
}

impl Default for UnionOptions {
    fn default() -> Self {
        Self {
            max_intervals: 1 << 20,
        }
    }
}

/// Reusable buffers for [`union_measure_scratch`], so repeated union
/// computations (one per DTL port group per candidate mapping) perform no
/// steady-state heap allocations.
#[derive(Debug, Default)]
pub struct UnionScratch {
    live: Vec<PeriodicWindow>,
    heap: BinaryHeap<HeapItem>,
}

/// Exact-when-feasible measure of `|∪ windows|` with default options.
///
/// Empty input yields an exact zero. See the module docs for the strategy
/// cascade.
pub fn union_measure(windows: &[PeriodicWindow]) -> Measure {
    union_measure_with(windows, UnionOptions::default())
}

/// [`union_measure`] with explicit [`UnionOptions`].
pub fn union_measure_with(windows: &[PeriodicWindow], opts: UnionOptions) -> Measure {
    union_measure_scratch(windows, opts, &mut UnionScratch::default())
}

/// [`union_measure_with`] reusing caller-provided [`UnionScratch`] buffers.
///
/// Returns the same value (bit for bit) as [`union_measure_with`]; the only
/// difference is where the temporary buffers live.
pub fn union_measure_scratch(
    windows: &[PeriodicWindow],
    opts: UnionOptions,
    scratch: &mut UnionScratch,
) -> Measure {
    scratch.live.clear();
    scratch
        .live
        .extend(windows.iter().copied().filter(|w| !w.is_empty()));
    let live = &scratch.live;
    if live.is_empty() {
        return Measure::exact(0.0);
    }
    if live.len() == 1 {
        return Measure::exact(live[0].measure());
    }
    let total_span = live.iter().map(|w| w.span()).fold(0.0, f64::max);

    // Strategy 1: a full window covering the longest span absorbs all.
    if live
        .iter()
        .any(|w| w.is_full() && w.span() >= total_span - total_span * 1e-12)
    {
        return Measure::exact(total_span);
    }

    // Strategy 2: direct sweep over all intervals.
    let total_intervals: u64 = live.iter().map(|w| w.count()).sum();
    if total_intervals <= opts.max_intervals {
        return Measure::exact(sweep_union(live, &mut scratch.heap));
    }

    // Fallback: independence estimate with provable clamps.
    let density_gap: f64 = live.iter().map(|w| 1.0 - w.len() / w.period()).product();
    let estimate = total_span * (1.0 - density_gap);
    let lower = live.iter().map(|w| w.measure()).fold(0.0, f64::max);
    let upper = live
        .iter()
        .map(|w| w.measure())
        .sum::<f64>()
        .min(total_span);
    Measure::approximate(estimate.clamp(lower, upper))
}

/// Exact measure of `|a ∩ b|` (needed by consumers that intersect allowed
/// windows, e.g. for port-arbitration what-ifs), computed by direct sweep.
///
/// Returns an approximate product-density estimate above the interval cap.
pub fn intersection_measure(a: &PeriodicWindow, b: &PeriodicWindow, opts: UnionOptions) -> Measure {
    if a.is_empty() || b.is_empty() {
        return Measure::exact(0.0);
    }
    if a.count() + b.count() <= opts.max_intervals {
        return Measure::exact(sweep_intersection(a, b));
    }
    let span = a.span().min(b.span());
    let est = span * (a.len() / a.period()) * (b.len() / b.period());
    Measure::approximate(est.min(a.measure()).min(b.measure()))
}

/// Heap entry for the k-way interval merge: next interval of window `idx`.
#[derive(Debug)]
struct HeapItem {
    lo: f64,
    hi: f64,
    idx: usize,
    k: u64,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.lo == other.lo
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on interval start (BinaryHeap is a max-heap).
        other.lo.total_cmp(&self.lo)
    }
}

/// Exact union measure by k-way merge over all windows' intervals.
fn sweep_union(windows: &[PeriodicWindow], heap: &mut BinaryHeap<HeapItem>) -> f64 {
    heap.clear();
    for (idx, w) in windows.iter().enumerate() {
        let (lo, hi) = w.interval(0);
        heap.push(HeapItem { lo, hi, idx, k: 0 });
    }
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    while let Some(item) = heap.pop() {
        let w = &windows[item.idx];
        if item.k + 1 < w.count() {
            let (lo, hi) = w.interval(item.k + 1);
            heap.push(HeapItem {
                lo,
                hi,
                idx: item.idx,
                k: item.k + 1,
            });
        }
        match cur {
            None => cur = Some((item.lo, item.hi)),
            Some((clo, chi)) => {
                if item.lo <= chi {
                    cur = Some((clo, chi.max(item.hi)));
                } else {
                    total += chi - clo;
                    cur = Some((item.lo, item.hi));
                }
            }
        }
    }
    if let Some((clo, chi)) = cur {
        total += chi - clo;
    }
    total
}

/// Exact intersection measure of two windows by dual-pointer sweep.
fn sweep_intersection(a: &PeriodicWindow, b: &PeriodicWindow) -> f64 {
    let mut total = 0.0;
    let (mut ia, mut ib) = (0u64, 0u64);
    while ia < a.count() && ib < b.count() {
        let (alo, ahi) = a.interval(ia);
        let (blo, bhi) = b.interval(ib);
        let lo = alo.max(blo);
        let hi = ahi.min(bhi);
        if hi > lo {
            total += hi - lo;
        }
        if ahi <= bhi {
            ia += 1;
        } else {
            ib += 1;
        }
    }
    total
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
        assert_eq!(union_measure(&[]).value(), 0.0);
        assert!(union_measure(&[]).is_exact());
    }

    #[test]
    fn single_window_is_its_measure() {
        let a = w(10.0, 2.0, 3.0, 4);
        let m = union_measure(&[a]);
        assert_eq!(m.value(), 12.0);
        assert!(m.is_exact());
    }

    #[test]
    fn full_window_absorbs_everything() {
        let a = PeriodicWindow::full(5.0, 8).unwrap();
        let b = w(10.0, 1.0, 2.0, 4);
        let m = union_measure(&[a, b]);
        assert_eq!(m.value(), 40.0);
        assert!(m.is_exact());
    }

    #[test]
    fn disjoint_windows_add() {
        // Period 10: [0,2) and [5,7) per period never overlap.
        let a = w(10.0, 0.0, 2.0, 3);
        let b = w(10.0, 5.0, 2.0, 3);
        assert_eq!(union_measure(&[a, b]).value(), 12.0);
    }

    #[test]
    fn overlapping_windows_merge() {
        let a = w(10.0, 0.0, 4.0, 2);
        let b = w(10.0, 2.0, 4.0, 2);
        // Per period: [0,4) u [2,6) = 6 cycles.
        assert_eq!(union_measure(&[a, b]).value(), 12.0);
    }

    #[test]
    fn equal_span_divisibility_chain_is_swept_exactly() {
        // Divisibility chain 4 | 8 | 16 of trailing windows, all spanning
        // 32 cycles: the direct sweep answers it.
        let a = PeriodicWindow::trailing(4.0, 1.0, 8).unwrap();
        let b = PeriodicWindow::trailing(8.0, 3.0, 4).unwrap();
        let c = PeriodicWindow::trailing(16.0, 5.0, 2).unwrap();
        let set = [a, b, c];
        let m = union_measure(&set);
        assert!(m.is_exact());
        assert_eq!(m.value(), brute_union(&set));
    }

    #[test]
    fn non_chain_periods_use_direct_sweep() {
        // 6 and 10 do not divide each other; spans also differ (30 vs 30).
        let a = w(6.0, 1.0, 2.0, 5);
        let b = w(10.0, 4.0, 3.0, 3);
        let m = union_measure(&[a, b]);
        assert!(m.is_exact());
        assert_eq!(m.value(), brute_union(&[a, b]));
    }

    #[test]
    fn unequal_spans_handled_by_direct_sweep() {
        let a = w(10.0, 0.0, 5.0, 2); // span 20
        let b = w(4.0, 1.0, 2.0, 10); // span 40
        let m = union_measure(&[a, b]);
        assert!(m.is_exact());
        assert_eq!(m.value(), brute_union(&[a, b]));
    }

    #[test]
    fn cap_triggers_clamped_approximation() {
        // Periods 6 and 10 break the divisibility chain, so only the direct
        // sweep could be exact — and the cap of 10 intervals forbids it.
        let a = w(6.0, 3.0, 1.0, 1_000);
        let b = w(10.0, 0.0, 2.0, 600);
        let opts = UnionOptions { max_intervals: 10 };
        let m = union_measure_with(&[a, b], opts);
        assert!(!m.is_exact());
        let lower = a.measure().max(b.measure());
        let upper = (a.measure() + b.measure()).min(6000.0);
        assert!(m.value() >= lower && m.value() <= upper, "{}", m.value());
        // And the exact answer lies within the same clamp.
        let exact = union_measure(&[a, b]);
        assert!(exact.is_exact());
        assert!(exact.value() >= lower && exact.value() <= upper);
    }

    #[test]
    fn intersection_of_identical_windows_is_their_measure() {
        let a = w(10.0, 2.0, 3.0, 4);
        let m = intersection_measure(&a, &a, UnionOptions::default());
        assert_eq!(m.value(), a.measure());
        assert!(m.is_exact());
    }

    #[test]
    fn intersection_of_disjoint_windows_is_zero() {
        let a = w(10.0, 0.0, 2.0, 4);
        let b = w(10.0, 5.0, 2.0, 4);
        assert_eq!(
            intersection_measure(&a, &b, UnionOptions::default()).value(),
            0.0
        );
    }

    #[test]
    fn intersection_cross_period() {
        // a: [0,6) of 8; b: [4,10) of 12 -> overlaps vary per period.
        let a = w(8.0, 0.0, 6.0, 3);
        let b = w(12.0, 4.0, 6.0, 2);
        let m = intersection_measure(&a, &b, UnionOptions::default());
        // Manual: a active [0,6),[8,14),[16,22); b active [4,10),[16,22).
        // Overlaps: [4,6) =2, [8,10)=2, [16,22)=6 -> 10.
        assert_eq!(m.value(), 10.0);
    }

    #[test]
    fn zero_length_windows_ignored() {
        let a = w(10.0, 0.0, 0.0, 4);
        let b = w(10.0, 1.0, 2.0, 4);
        assert_eq!(union_measure(&[a, b]).value(), 8.0);
    }
}
