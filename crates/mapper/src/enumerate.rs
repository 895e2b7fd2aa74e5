//! Enumeration and sampling of temporal loop orderings.

use crate::factorize::Factor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Calls `visit` for every distinct ordering of the factor multiset
/// (innermost factor first), until `visit` returns `false` or all
/// orderings are exhausted. Returns the number of orderings visited.
///
/// Identical factors (same dimension, same prime) are interchangeable and
/// generate a single ordering, so the visit count equals
/// [`ordering_count`](crate::factorize::ordering_count) when not stopped
/// early.
pub fn for_each_ordering(factors: &[Factor], mut visit: impl FnMut(&[Factor]) -> bool) -> u64 {
    let mut counts: BTreeMap<Factor, usize> = BTreeMap::new();
    for &f in factors {
        *counts.entry(f).or_insert(0) += 1;
    }
    let mut items: Vec<(Factor, usize)> = counts.into_iter().collect();
    let mut current = Vec::with_capacity(factors.len());
    let mut visited = 0u64;
    fn rec(
        items: &mut [(Factor, usize)],
        current: &mut Vec<Factor>,
        remaining: usize,
        visited: &mut u64,
        visit: &mut impl FnMut(&[Factor]) -> bool,
    ) -> bool {
        if remaining == 0 {
            *visited += 1;
            return visit(current);
        }
        for i in 0..items.len() {
            if items[i].1 == 0 {
                continue;
            }
            items[i].1 -= 1;
            current.push(items[i].0);
            let keep_going = rec(items, current, remaining - 1, visited, visit);
            current.pop();
            items[i].1 += 1;
            if !keep_going {
                return false;
            }
        }
        true
    }
    rec(
        &mut items,
        &mut current,
        factors.len(),
        &mut visited,
        &mut visit,
    );
    visited
}

/// A depth-first walk over the ordering tree that may skip subtrees; see
/// [`walk_orderings_in_range`].
pub trait OrderingWalk {
    /// Called before the walk descends into the subtree that places
    /// `factor` at position `depth` (innermost first) on top of the
    /// current path's prefix. Returning `false` skips that subtree: its
    /// orderings count as covered but are not visited.
    fn enter(&mut self, depth: usize, factor: Factor) -> bool;
    /// Called for each visited ordering; `false` stops the walk.
    fn visit(&mut self, ordering: &[Factor]) -> bool;
}

/// Like [`for_each_ordering`], but visits only the orderings with global
/// index in `[start, end)` (the index an ordering has in the full
/// enumeration), skipping whole subtrees outside the range by exact
/// multiset-permutation counting, and every subtree that `walk.enter`
/// declines (its index advances by its exact leaf count). Concatenating
/// the ranges `[0, a), [a, b), … [_, space_size)` walks every ordering
/// exactly once, in the same order as [`for_each_ordering`] — the
/// property the mapper's intra-design parallel search relies on.
/// Returns the number of orderings visited.
pub fn walk_orderings_in_range(
    factors: &[Factor],
    start: u128,
    end: u128,
    walk: &mut impl OrderingWalk,
) -> u64 {
    let mut counts: BTreeMap<Factor, usize> = BTreeMap::new();
    for &f in factors {
        *counts.entry(f).or_insert(0) += 1;
    }
    let mut items: Vec<(Factor, usize)> = counts.into_iter().collect();
    let total = crate::factorize::ordering_count(factors);
    let mut current = Vec::with_capacity(factors.len());
    let mut visited = 0u64;
    // Whole subtree inside the window: plain enumeration with no index
    // arithmetic. The per-node `sub * c_i / n` u128 division in `rec` is
    // what makes range bookkeeping expensive; once a subtree is known to
    // lie entirely in `[start, end)` none of it is needed.
    fn rec_all(
        items: &mut [(Factor, usize)],
        current: &mut Vec<Factor>,
        remaining: usize,
        visited: &mut u64,
        walk: &mut impl OrderingWalk,
    ) -> bool {
        if remaining == 0 {
            *visited += 1;
            return walk.visit(current);
        }
        for i in 0..items.len() {
            if items[i].1 == 0 || !walk.enter(current.len(), items[i].0) {
                continue;
            }
            items[i].1 -= 1;
            current.push(items[i].0);
            let keep_going = rec_all(items, current, remaining - 1, visited, walk);
            current.pop();
            items[i].1 += 1;
            if !keep_going {
                return false;
            }
        }
        true
    }
    #[allow(clippy::too_many_arguments)]
    fn rec(
        items: &mut [(Factor, usize)],
        current: &mut Vec<Factor>,
        remaining: usize,
        // Global index of the first leaf under the current subtree.
        pos: &mut u128,
        // Number of leaves under the current subtree.
        sub: u128,
        start: u128,
        end: u128,
        visited: &mut u64,
        walk: &mut impl OrderingWalk,
    ) -> bool {
        if *pos >= start && *pos + sub <= end {
            let keep_going = rec_all(items, current, remaining, visited, walk);
            *pos += sub;
            return keep_going;
        }
        if remaining == 0 {
            debug_assert!(*pos >= start && *pos < end);
            *pos += 1;
            *visited += 1;
            return walk.visit(current);
        }
        for i in 0..items.len() {
            if items[i].1 == 0 {
                continue;
            }
            // Exact: multinomial(counts - e_i) = multinomial(counts) * c_i / n.
            let child = sub * items[i].1 as u128 / remaining as u128;
            if *pos + child <= start {
                *pos += child;
                continue;
            }
            if *pos >= end {
                return true;
            }
            if !walk.enter(current.len(), items[i].0) {
                *pos += child;
                continue;
            }
            items[i].1 -= 1;
            current.push(items[i].0);
            let keep_going = rec(
                items,
                current,
                remaining - 1,
                pos,
                child,
                start,
                end,
                visited,
                walk,
            );
            current.pop();
            items[i].1 += 1;
            if !keep_going {
                return false;
            }
        }
        true
    }
    if start < end {
        let mut pos = 0u128;
        rec(
            &mut items,
            &mut current,
            factors.len(),
            &mut pos,
            total,
            start,
            end,
            &mut visited,
            walk,
        );
    }
    visited
}

/// Canonical "grouped" orderings: for every permutation of the distinct
/// dimensions present, all of a dimension's factors appear consecutively
/// (innermost group first). These are the classic stationary dataflows —
/// e.g. `C… B… K…` is output-stationary, `B… C… K…` is weight-stationary —
/// and seed the search when the full space is too large to enumerate.
pub fn seeded_orderings(factors: &[Factor]) -> Vec<Vec<Factor>> {
    let mut dims: Vec<ulm_workload::Dim> = Vec::new();
    for &(d, _) in factors {
        if !dims.contains(&d) {
            dims.push(d);
        }
    }
    let mut out = Vec::new();
    let mut perm = dims.clone();
    permute(&mut perm, 0, &mut |order: &[ulm_workload::Dim]| {
        let mut seq = Vec::with_capacity(factors.len());
        for &d in order {
            for &(fd, p) in factors {
                if fd == d {
                    seq.push((fd, p));
                }
            }
        }
        out.push(seq);
    });
    out
}

fn permute<T: Copy>(items: &mut [T], k: usize, visit: &mut impl FnMut(&[T])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// Draws `n` uniformly shuffled orderings of the factor multiset
/// (duplicates possible), deterministically from `seed`.
pub fn sample_orderings(factors: &[Factor], n: usize, seed: u64) -> Vec<Vec<Factor>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut v = factors.to_vec();
            v.shuffle(&mut rng);
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorize::ordering_count;
    use ulm_workload::Dim;

    /// Visits every ordering of `[start, end)`, declining no subtree.
    fn for_each_ordering_in_range(
        factors: &[Factor],
        start: u128,
        end: u128,
        visit: impl FnMut(&[Factor]) -> bool,
    ) -> u64 {
        struct Every<F>(F);
        impl<F: FnMut(&[Factor]) -> bool> OrderingWalk for Every<F> {
            fn enter(&mut self, _: usize, _: Factor) -> bool {
                true
            }
            fn visit(&mut self, ordering: &[Factor]) -> bool {
                (self.0)(ordering)
            }
        }
        walk_orderings_in_range(factors, start, end, &mut Every(visit))
    }

    #[test]
    fn enumeration_matches_count() {
        let f = vec![(Dim::B, 2), (Dim::B, 2), (Dim::K, 3), (Dim::C, 5)];
        let expected = ordering_count(&f) as u64;
        let mut seen = std::collections::HashSet::new();
        let visited = for_each_ordering(&f, |ord| {
            seen.insert(ord.to_vec());
            true
        });
        assert_eq!(visited, expected); // 4!/2! = 12
        assert_eq!(seen.len() as u64, expected); // all distinct
    }

    #[test]
    fn early_stop_respected() {
        let f = vec![(Dim::B, 2), (Dim::K, 3), (Dim::C, 5)];
        let mut n = 0;
        let visited = for_each_ordering(&f, |_| {
            n += 1;
            n < 2
        });
        assert_eq!(visited, 2);
    }

    #[test]
    fn empty_multiset_visits_once() {
        let visited = for_each_ordering(&[], |ord| {
            assert!(ord.is_empty());
            true
        });
        assert_eq!(visited, 1);
    }

    #[test]
    fn range_concatenation_matches_full_enumeration() {
        let f = vec![
            (Dim::B, 2),
            (Dim::B, 2),
            (Dim::K, 3),
            (Dim::C, 5),
            (Dim::C, 5),
        ];
        let total = ordering_count(&f); // 5!/(2!·2!) = 30
        let mut full = Vec::new();
        for_each_ordering(&f, |ord| {
            full.push(ord.to_vec());
            true
        });
        for splits in [
            vec![0, total],
            vec![0, 7, total],
            vec![0, 1, 2, 29, total],
            vec![0, 10, 10, 20, total],
        ] {
            let mut concat = Vec::new();
            for w in splits.windows(2) {
                let n = for_each_ordering_in_range(&f, w[0], w[1], |ord| {
                    concat.push(ord.to_vec());
                    true
                });
                assert_eq!(n as u128, w[1] - w[0]);
            }
            assert_eq!(concat, full);
        }
    }

    #[test]
    fn range_early_stop_respected() {
        let f = vec![(Dim::B, 2), (Dim::K, 3), (Dim::C, 5)];
        let mut n = 0;
        let visited = for_each_ordering_in_range(&f, 1, 6, |_| {
            n += 1;
            n < 2
        });
        assert_eq!(visited, 2);
    }

    #[test]
    fn empty_range_visits_nothing() {
        let f = vec![(Dim::B, 2), (Dim::K, 3)];
        assert_eq!(for_each_ordering_in_range(&f, 1, 1, |_| true), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let f = vec![(Dim::B, 2), (Dim::K, 3), (Dim::C, 5), (Dim::C, 2)];
        let a = sample_orderings(&f, 5, 42);
        let b = sample_orderings(&f, 5, 42);
        assert_eq!(a, b);
        let c = sample_orderings(&f, 5, 43);
        assert_ne!(a, c);
        // Every sample is a permutation of the input multiset.
        for s in &a {
            let mut x = s.clone();
            let mut y = f.clone();
            x.sort();
            y.sort();
            assert_eq!(x, y);
        }
    }
}
