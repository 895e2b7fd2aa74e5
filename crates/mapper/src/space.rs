//! The ordering space one search walks, shared across searches.
//!
//! A [`SearchSpace`] is a pure function of the sampler's inputs: the
//! temporal factor multiset and the `samples`, `seed` and
//! `max_exhaustive` options. A DSE sweep prices hundreds of designs whose
//! factor multisets coincide (the multiset depends on the layer and the
//! spatial unrolling, not on the memories), so every search takes its
//! space from a small per-thread memo ([`SearchSpace::shared`]) instead
//! of re-counting, re-seeding and re-sampling it.

use crate::enumerate::{sample_orderings, seeded_orderings};
use crate::factorize::{ordering_count, Factor};
use crate::MapperOptions;
use std::cell::RefCell;
use std::sync::Arc;

/// Spaces each thread keeps, most recently used first.
const MEMO_SPACES: usize = 8;

/// Candidate factors above which a space is built for its search but not
/// kept (1 MiB of factors), so an outsized `samples` cannot pin memory.
const MEMO_MAX_FACTORS: usize = 1 << 16;

thread_local! {
    static SPACES: RefCell<Vec<Arc<SearchSpace>>> = const { RefCell::new(Vec::new()) };
}

/// The ordering space of one search: the factor multiset, its ordering
/// count and, when that count exceeds `max_exhaustive`, the candidate
/// orderings to sample (the stationary seeds, then the uniform samples).
#[derive(Debug)]
pub struct SearchSpace {
    factors: Vec<Factor>,
    samples: usize,
    seed: u64,
    max_exhaustive: u128,
    size: u128,
    /// Candidate orderings, flat with stride `factors.len()`; empty when
    /// the space is walked exhaustively.
    candidates: Vec<Factor>,
    count: usize,
}

impl SearchSpace {
    /// Builds the space of `factors` under the sampler options in `opts`.
    fn build(factors: Vec<Factor>, opts: &MapperOptions) -> Self {
        let size = ordering_count(&factors);
        let (mut candidates, mut count) = (Vec::new(), 0);
        if size > opts.max_exhaustive {
            let seeds = seeded_orderings(&factors);
            let samples = sample_orderings(&factors, opts.samples, opts.seed);
            count = seeds.len() + samples.len();
            candidates.reserve_exact(count * factors.len());
            for ordering in seeds.iter().chain(&samples) {
                candidates.extend_from_slice(ordering);
            }
        }
        SearchSpace {
            factors,
            samples: opts.samples,
            seed: opts.seed,
            max_exhaustive: opts.max_exhaustive,
            size,
            candidates,
            count,
        }
    }

    /// The space of `factors` under `opts`, from this thread's memo when
    /// an earlier search built it; otherwise built and remembered.
    pub fn shared(factors: Vec<Factor>, opts: &MapperOptions) -> Arc<SearchSpace> {
        SPACES.with(|memo| {
            let mut memo = memo.borrow_mut();
            let hit = memo.iter().position(|s| {
                s.factors == factors
                    && s.samples == opts.samples
                    && s.seed == opts.seed
                    && s.max_exhaustive == opts.max_exhaustive
            });
            if let Some(i) = hit {
                memo[..=i].rotate_right(1);
                return Arc::clone(&memo[0]);
            }
            let space = Arc::new(SearchSpace::build(factors, opts));
            if space.candidates.len() <= MEMO_MAX_FACTORS {
                memo.truncate(MEMO_SPACES - 1);
                memo.insert(0, Arc::clone(&space));
            }
            space
        })
    }

    /// The temporal factor multiset every ordering permutes.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Number of distinct orderings of the multiset.
    pub fn size(&self) -> u128 {
        self.size
    }

    /// True when the search enumerates every ordering.
    pub fn exhaustive(&self) -> bool {
        self.size <= self.max_exhaustive
    }

    /// Number of sampled candidates (0 when exhaustive).
    pub fn candidate_count(&self) -> usize {
        self.count
    }

    /// Sampled candidate `i`, innermost factor first.
    pub fn candidate(&self, i: usize) -> &[Factor] {
        let n = self.factors.len();
        &self.candidates[i * n..(i + 1) * n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_workload::Dim;

    fn factors() -> Vec<Factor> {
        vec![
            (Dim::B, 2),
            (Dim::B, 2),
            (Dim::K, 3),
            (Dim::C, 5),
            (Dim::C, 2),
        ]
    }

    #[test]
    fn candidates_are_the_seeds_then_the_samples() {
        let opts = MapperOptions {
            max_exhaustive: 10,
            samples: 7,
            ..MapperOptions::default()
        };
        let space = SearchSpace::build(factors(), &opts);
        assert!(!space.exhaustive());
        let mut want = seeded_orderings(&factors());
        want.extend(sample_orderings(&factors(), 7, opts.seed));
        let got: Vec<Vec<Factor>> = (0..space.candidate_count())
            .map(|i| space.candidate(i).to_vec())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn an_empty_multiset_still_counts_its_candidates() {
        let opts = MapperOptions {
            max_exhaustive: 0,
            samples: 3,
            ..MapperOptions::default()
        };
        let space = SearchSpace::build(Vec::new(), &opts);
        assert_eq!(space.size(), 1);
        // One (empty) seed plus three (empty) samples.
        assert_eq!(space.candidate_count(), 4);
        assert!(space.candidate(3).is_empty());
    }

    #[test]
    fn the_memo_is_bounded() {
        let opts = MapperOptions::default();
        let first = SearchSpace::shared(vec![(Dim::K, 2)], &opts);
        for seed in 0..MEMO_SPACES as u64 {
            SearchSpace::shared(vec![(Dim::K, 2)], &MapperOptions { seed, ..opts });
        }
        let again = SearchSpace::shared(vec![(Dim::K, 2)], &opts);
        assert!(!Arc::ptr_eq(&first, &again), "the oldest space was evicted");
        SPACES.with(|m| assert_eq!(m.borrow().len(), MEMO_SPACES));
    }
}
