//! Property tests: the closed-form union of a divisibility chain agrees
//! with a k-way interval sweep (bit for bit on integral windows) and with
//! a brute-force integer-grid oracle on randomized chains.

use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use ulm_periodic::{union_measure, PeriodicWindow};

/// Strategy for chained-period windows (period = base * 2^i), the shape the
/// latency model actually produces, with equal spans.
fn arb_chain() -> impl Strategy<Value = Vec<PeriodicWindow>> {
    (1u64..6, 1u64..4).prop_flat_map(|(base, levels)| {
        let span = base * (1 << levels); // hyperperiod = largest period
        proptest::collection::vec((0u64..3, 0u64..100), 1..=levels as usize).prop_map(
            move |params| {
                params
                    .iter()
                    .enumerate()
                    .map(|(i, &(_, seed))| {
                        let period = base * (1 << (i + 1));
                        let count = span / period;
                        let start = seed % period;
                        let len = (seed / 7) % (period - start + 1);
                        PeriodicWindow::new(period as f64, start as f64, len as f64, count)
                            .expect("constructed within bounds")
                    })
                    .collect()
            },
        )
    })
}

/// The active interval of one window: `Full`, `Trailing(n)` and
/// `Leading(n)` are the model's shapes (length `P / n`), `At` an arbitrary
/// integral `[start, start + len)` (reduced into the period).
#[derive(Debug, Clone, Copy)]
enum Shape {
    Full,
    Trailing(u64),
    Leading(u64),
    At(u64, u64),
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (0u8..4, 1u64..8, 0u64..1000, 0u64..1000).prop_map(|(kind, n, s, x)| match kind {
        0 => Shape::Full,
        1 => Shape::Trailing(n),
        2 => Shape::Leading(n),
        _ => Shape::At(s, x),
    })
}

/// A divisibility chain as the model builds one: 1–5 windows whose periods
/// are prefix products `base · m_2 · … · m_j` of one loop stack (a factor
/// of 1 repeats a period), each spanning the whole computation `CC` or
/// `CC − P` (the phase-aware `Z − 1` periods), at most `max_count`
/// periods each. With `integral` every parameter is an integer; otherwise
/// the model's `P / n` lengths may be fractional.
fn arb_model_chain(max_count: u64, integral: bool) -> impl Strategy<Value = Vec<PeriodicWindow>> {
    (
        1u64..9,
        proptest::collection::vec(1u64..5, 0..4),
        proptest::collection::vec((0usize..5, arb_shape(), any::<bool>()), 1..=5),
    )
        .prop_flat_map(move |(base, factors, windows)| {
            let mut periods = vec![base];
            for m in factors {
                periods.push(periods.last().unwrap() * m);
            }
            let top = *periods.last().unwrap();
            let repeats = (max_count * base / top).max(1);
            (Just(periods), Just(windows), 1..=repeats)
        })
        .prop_map(move |(periods, windows, repeats)| {
            let cc = periods.last().unwrap() * repeats;
            windows
                .into_iter()
                .map(|(level, shape, short)| {
                    let p = periods[level % periods.len()];
                    let count = cc / p - u64::from(short);
                    let pf = p as f64;
                    let part = |n: u64| {
                        if integral {
                            (p / n) as f64
                        } else {
                            pf / n as f64
                        }
                    };
                    match shape {
                        Shape::Full => PeriodicWindow::full(pf, count),
                        Shape::Trailing(n) => PeriodicWindow::trailing(pf, part(n), count),
                        Shape::Leading(n) => PeriodicWindow::new(pf, 0.0, part(n), count),
                        Shape::At(s, x) => {
                            let s = s % p;
                            PeriodicWindow::new(pf, s as f64, (x % (p - s + 1)) as f64, count)
                        }
                    }
                    .expect("constructed within bounds")
                })
                .collect()
        })
}

fn brute_union(windows: &[PeriodicWindow]) -> f64 {
    let span = windows.iter().map(|w| w.span()).fold(0.0, f64::max) as usize;
    let mut grid = vec![false; span];
    for w in windows {
        for k in 0..w.count() {
            let (lo, hi) = w.interval(k);
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

/// Heap entry for the k-way interval merge: next interval of window `idx`.
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

/// The oracle: union measure by k-way merge over every active interval,
/// `O(Σ Z_i log k)`, for any set of windows.
fn sweep_union(windows: &[PeriodicWindow]) -> f64 {
    let mut heap = BinaryHeap::new();
    for (idx, w) in windows.iter().enumerate().filter(|(_, w)| !w.is_empty()) {
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

fn closed_form(windows: &[PeriodicWindow]) -> f64 {
    union_measure(&mut windows.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn union_matches_brute_force(windows in arb_model_chain(40, true)) {
        let m = closed_form(&windows);
        let expected = brute_union(&windows);
        prop_assert!((m - expected).abs() < 1e-6, "closed form {m} != brute {expected}");
    }

    #[test]
    fn chained_union_matches_brute_force(windows in arb_chain()) {
        let m = closed_form(&windows);
        let expected = brute_union(&windows);
        prop_assert!((m - expected).abs() < 1e-6, "closed form {m} != brute {expected}");
    }

    #[test]
    fn union_bounds_hold(windows in arb_model_chain(10_000, false)) {
        let m = closed_form(&windows);
        let max_single = windows.iter().map(|w| w.measure()).fold(0.0, f64::max);
        let sum: f64 = windows.iter().map(|w| w.measure()).sum();
        let span = windows.iter().map(|w| w.span()).fold(0.0, f64::max);
        prop_assert!(m + 1e-9 * span >= max_single);
        prop_assert!(m <= sum.min(span) + 1e-9 * span);
    }

    #[test]
    fn integral_union_has_the_sweeps_bits(windows in arb_model_chain(10_000, true)) {
        let m = closed_form(&windows);
        let swept = sweep_union(&windows);
        prop_assert_eq!(m.to_bits(), swept.to_bits(), "closed form {} != sweep {}", m, swept);
    }

    #[test]
    fn fractional_union_matches_the_sweep(windows in arb_model_chain(10_000, false)) {
        let m = closed_form(&windows);
        let swept = sweep_union(&windows);
        prop_assert!((m - swept).abs() <= 1e-12 * swept.abs(),
            "closed form {m} != sweep {swept}");
    }

    #[test]
    fn union_ignores_window_order(windows in arb_model_chain(1_000, false)) {
        let mut reversed = windows.clone();
        reversed.reverse();
        prop_assert_eq!(closed_form(&windows).to_bits(), closed_form(&reversed).to_bits());
    }
}
