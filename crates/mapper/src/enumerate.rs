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
pub fn for_each_ordering(factors: &[Factor], visit: impl FnMut(&[Factor]) -> bool) -> u64 {
    struct Every<F>(F);
    impl<F: FnMut(&[Factor]) -> bool> OrderingWalk for Every<F> {
        fn enter(&mut self, _: usize, _: Factor) -> bool {
            true
        }
        fn visit(&mut self, ordering: &[Factor]) -> bool {
            (self.0)(ordering)
        }
    }
    walk_orderings(factors, &mut Every(visit))
}

/// A depth-first walk over the ordering tree that may skip subtrees; see
/// [`walk_orderings`].
pub trait OrderingWalk {
    /// Called before the walk descends into the subtree that places
    /// `factor` at position `depth` (innermost first) on top of the
    /// current path's prefix. Returning `false` skips that subtree: its
    /// orderings count as covered but are not visited.
    fn enter(&mut self, depth: usize, factor: Factor) -> bool;
    /// Called for each visited ordering; `false` stops the walk.
    fn visit(&mut self, ordering: &[Factor]) -> bool;
}

/// Walks the distinct orderings of the factor multiset in
/// [`for_each_ordering`]'s order, skipping every subtree that
/// `walk.enter` declines. Returns the number of orderings visited.
pub fn walk_orderings(factors: &[Factor], walk: &mut impl OrderingWalk) -> u64 {
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
            let keep_going = rec(items, current, remaining - 1, visited, walk);
            current.pop();
            items[i].1 += 1;
            if !keep_going {
                return false;
            }
        }
        true
    }
    rec(&mut items, &mut current, factors.len(), &mut visited, walk);
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
