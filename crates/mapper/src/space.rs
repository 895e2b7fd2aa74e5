//! The ordering space one search walks, shared across searches.
//!
//! A [`SearchSpace`] is a pure function of the sampler's inputs: the
//! temporal factor multiset and the `samples`, `seed` and
//! `max_exhaustive` options. A DSE sweep prices hundreds of designs whose
//! factor multisets coincide (the multiset depends on the layer and the
//! spatial unrolling, not on the memories), so every search takes its
//! space from a small per-thread memo ([`SearchSpace::shared`]) instead
//! of re-counting, re-seeding and re-sampling it.
//!
//! A sampled space's candidates are fixed too, and everything a kernel
//! push computes before the greedy allocation is a function of the
//! candidate, the workload and the spatial unrolling alone. So each
//! thread also keeps a few [`FoldedSpace`]s: a sampled space folded for
//! one layer, spatial unrolling and chain shape, which the next designs
//! of a sweep price through their capacities and bandwidths alone.

use crate::enumerate::{sample_orderings, seeded_orderings};
use crate::factorize::{ordering_count, Factor};
use crate::MapperOptions;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use ulm_arch::Architecture;
use ulm_mapping::SpatialUnroll;
use ulm_model::FoldedSpace;
use ulm_workload::{DimSizes, Layer, Operand};

/// Spaces each thread keeps, most recently used first.
const MEMO_SPACES: usize = 8;

/// Candidate factors above which a space is built for its search but not
/// kept (1 MiB of factors), so an outsized `samples` cannot pin memory.
const MEMO_MAX_FACTORS: usize = 1 << 16;

/// Folded contexts each thread keeps, most recently used first.
const FOLD_ENTRIES: usize = 8;

/// Bytes of folded contexts each thread keeps (1 MiB). A context whose
/// fold alone would exceed it is searched unfolded and not kept.
const FOLD_MAX_BYTES: usize = 1 << 20;

thread_local! {
    static SPACES: RefCell<Vec<Arc<SearchSpace>>> = const { RefCell::new(Vec::new()) };
    static FOLDS: RefCell<Vec<FoldEntry>> = const { RefCell::new(Vec::new()) };
}

/// One context of the fold store, keyed by everything its fold reads:
/// the workload (name aside), the spatial extents, the sampled space's
/// inputs and the chain shape its lane buffers are sized for. The first
/// search of a context only records the key (`folded` is `None`), so a
/// one-off search folds nothing; the second folds.
struct FoldEntry {
    layer: Layer,
    spatial: DimSizes,
    chains: [usize; 3],
    factors: Vec<Factor>,
    samples: usize,
    seed: u64,
    max_exhaustive: u128,
    folded: Option<Rc<FoldedSpace>>,
}

impl FoldEntry {
    fn bytes(&self) -> usize {
        self.folded.as_ref().map_or(0, |f| f.bytes())
    }
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

    /// True when this space was built from `factors` under the sampler
    /// options `samples`, `seed` and `max_exhaustive`.
    fn built_from(
        &self,
        factors: &[Factor],
        samples: usize,
        seed: u64,
        max_exhaustive: u128,
    ) -> bool {
        self.factors == factors
            && self.samples == samples
            && self.seed == seed
            && self.max_exhaustive == max_exhaustive
    }

    /// The space of `factors` under `opts`, from this thread's memo when
    /// an earlier search built it; otherwise built and remembered.
    pub fn shared(factors: Vec<Factor>, opts: &MapperOptions) -> Arc<SearchSpace> {
        SPACES.with(|memo| {
            let mut memo = memo.borrow_mut();
            let hit = memo
                .iter()
                .position(|s| s.built_from(&factors, opts.samples, opts.seed, opts.max_exhaustive));
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

/// This sampled `space` folded for `layer` under `spatial`, with lane
/// buffers for `lanes` lanes on `arch`'s chain shape, from this thread's
/// store. `None` the first time the context is met (the search pushes
/// its candidates unfolded and the store records the key) and for a
/// space whose fold would exceed the store's byte budget (recorded
/// nowhere). The second search of a context folds it; a fold is kept
/// while it fits the budget among the most recently used contexts.
pub(crate) fn folded(
    space: &SearchSpace,
    arch: &Architecture,
    layer: &Layer,
    spatial: &SpatialUnroll,
    lanes: usize,
) -> Option<Rc<FoldedSpace>> {
    debug_assert!(!space.exhaustive());
    let h = arch.hierarchy();
    let chains = [Operand::W, Operand::I, Operand::O].map(|op| h.chain(op).len());
    let levels = chains.into_iter().max().unwrap_or(0);
    if FoldedSpace::footprint(space.factors.len(), space.count)
        + FoldedSpace::memo_reserve(space.count, levels)
        > FOLD_MAX_BYTES
    {
        return None;
    }
    let spatial_ext = spatial.extents();
    FOLDS.with(|store| {
        let mut store = store.borrow_mut();
        let hit = store.iter().position(|e| {
            e.chains == chains
                && e.spatial == spatial_ext
                && space.built_from(&e.factors, e.samples, e.seed, e.max_exhaustive)
                && e.layer.same_workload(layer)
        });
        let Some(i) = hit else {
            store.truncate(FOLD_ENTRIES - 1);
            store.insert(
                0,
                FoldEntry {
                    layer: layer.clone(),
                    spatial: spatial_ext,
                    chains,
                    factors: space.factors.clone(),
                    samples: space.samples,
                    seed: space.seed,
                    max_exhaustive: space.max_exhaustive,
                    folded: None,
                },
            );
            return None;
        };
        store[..=i].rotate_right(1);
        if let Some(folded) = &store[0].folded {
            return Some(Rc::clone(folded));
        }
        let folded = Rc::new(FoldedSpace::fold(
            arch,
            layer,
            spatial,
            &space.factors,
            (0..space.count).map(|i| space.candidate(i)),
            lanes,
        ));
        store[0].folded = Some(Rc::clone(&folded));
        // Keep the budget: drop the least recently used contexts, this
        // one last.
        while store.iter().map(FoldEntry::bytes).sum::<usize>() > FOLD_MAX_BYTES {
            store.pop();
        }
        Some(folded)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mapper, Objective, LANES};
    use ulm_arch::presets;
    use ulm_workload::{Dim, Precision};

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

    /// Entries and bytes of this thread's fold store.
    fn store() -> (usize, usize) {
        FOLDS.with(|s| {
            let s = s.borrow();
            (s.len(), s.iter().map(FoldEntry::bytes).sum())
        })
    }

    #[test]
    fn the_fold_store_is_bounded() {
        let chip = presets::scaled_case_study_chip(16, 128);
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let opts = |samples| MapperOptions {
            max_exhaustive: 100,
            samples,
            ..MapperOptions::default()
        };
        // Twice as many contexts as entries, each met twice: the first
        // search only records the key, the second folds.
        for b in 1..=2 * FOLD_ENTRIES as u64 {
            let layer = Layer::matmul("l", 8 * b, 96, 640, Precision::int8_out24());
            let mapper = Mapper::new(&chip.arch, &layer, spatial.clone()).with_options(opts(60));
            let space = mapper.space();
            assert!(folded(&space, &chip.arch, &layer, &spatial, LANES).is_none());
            let fold =
                folded(&space, &chip.arch, &layer, &spatial, LANES).expect("second sighting");
            assert_eq!(fold.candidate_count(), space.candidate_count());
            let (entries, bytes) = store();
            assert!(entries <= FOLD_ENTRIES && bytes <= FOLD_MAX_BYTES);
        }
        assert_eq!(store().0, FOLD_ENTRIES);

        // Folds big enough that only a few fit: the budget, not the entry
        // count, evicts.
        for b in 1..=FOLD_ENTRIES as u64 {
            let layer = Layer::matmul("l", 8 * b, 96, 640, Precision::int8_out24());
            let mapper = Mapper::new(&chip.arch, &layer, spatial.clone()).with_options(opts(300));
            let space = mapper.space();
            let _ = folded(&space, &chip.arch, &layer, &spatial, LANES);
            let fold = folded(&space, &chip.arch, &layer, &spatial, LANES).expect("fits alone");
            assert!(fold.bytes() > FOLD_MAX_BYTES / 4);
            let (entries, bytes) = store();
            assert!(
                entries <= FOLD_ENTRIES && bytes <= FOLD_MAX_BYTES,
                "{entries} {bytes}"
            );
        }
        assert!(store().0 < FOLD_ENTRIES);

        // A space whose fold alone exceeds the budget searches correctly
        // (as on a fresh thread) and keeps nothing, not even its key.
        let layer = Layer::matmul("huge", 64, 96, 640, Precision::int8_out24());
        let mapper = Mapper::new(&chip.arch, &layer, spatial.clone()).with_options(opts(2_000));
        let space = mapper.space();
        assert!(
            FoldedSpace::footprint(space.factors().len(), space.candidate_count()) > FOLD_MAX_BYTES
        );
        let want = std::thread::scope(|s| {
            s.spawn(|| mapper.search_fast(Objective::Latency))
                .join()
                .expect("search thread")
        });
        let before = store();
        for _ in 0..3 {
            assert_eq!(mapper.search_fast(Objective::Latency), want);
            assert_eq!(store(), before);
        }
        assert!(FOLDS.with(|s| s.borrow().iter().all(|e| e.samples != 2_000)));
    }
}
