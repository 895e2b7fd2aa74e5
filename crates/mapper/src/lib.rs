//! ZigZag-style temporal-mapping generation and search.
//!
//! The paper integrates its latency model "with ZigZag, a DNN accelerator
//! architecture-and-mapping DSE framework, to generate various design
//! points" (Section V). This crate is that mapper, built from scratch: it
//! factorizes the layer's loop bounds into prime loop factors, enumerates
//! (or samples, for large spaces) their orderings, allocates each ordering
//! to memory levels greedily, evaluates latency and energy, and returns
//! the best mapping under a chosen objective.
//!
//! # Example
//!
//! ```
//! use ulm_arch::presets;
//! use ulm_mapper::{Mapper, Objective};
//! use ulm_mapping::SpatialUnroll;
//! use ulm_workload::{Layer, Precision};
//!
//! let chip = presets::toy_chip();
//! let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
//! let spatial = SpatialUnroll::new(chip.spatial.clone());
//! let result = Mapper::new(&chip.arch, &layer, spatial)
//!     .search(Objective::Latency)?;
//! assert!(result.stats.evaluated > 0);
//! assert!(result.best.latency.cc_total > 0.0);
//! # Ok::<(), ulm_mapper::MapperError>(())
//! ```

pub mod enumerate;
pub mod factorize;
pub mod space;

pub use space::SearchSpace;

use factorize::{ordering_count, temporal_factors, Factor};
use std::error::Error;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use ulm_arch::Architecture;
use ulm_energy::{EnergyModel, EnergyReport};
use ulm_mapping::{LoopStack, MappedLayer, Mapping, SpatialUnroll};
use ulm_model::{
    BatchKernel, FastLatency, FoldedSpace, LaneObjective, LaneOutcome, LatencyModel, LatencyReport,
    LoweredLayer, ModelScratch, OrderingClasses,
};
use ulm_workload::Layer;

/// What the search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Objective {
    /// Total latency in cycles.
    Latency,
    /// Total energy.
    Energy,
    /// Energy-delay product.
    Edp,
}

impl Objective {
    /// The objective names [`by_name`](Self::by_name) accepts.
    pub const NAMES: [&str; 3] = ["latency", "energy", "edp"];

    /// The objective called `name` (one of [`NAMES`](Self::NAMES), in any
    /// letter case), or `None`.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "latency" => Some(Self::Latency),
            "energy" => Some(Self::Energy),
            "edp" => Some(Self::Edp),
            _ => None,
        }
    }
}

/// Search configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MapperOptions {
    /// Enumerate exhaustively while the ordering count is at most this.
    pub max_exhaustive: u128,
    /// Random orderings to draw when the space is larger.
    pub samples: usize,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Evaluate latency with the bandwidth-aware model (true) or the
    /// BW-unaware baseline (false) — Case 3 compares both.
    pub bw_aware: bool,
}

impl Default for MapperOptions {
    fn default() -> Self {
        Self {
            max_exhaustive: 50_000,
            samples: 400,
            seed: 0xD1CE,
            bw_aware: true,
        }
    }
}

/// A mapping with its evaluations.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EvaluatedMapping {
    /// The mapping.
    pub mapping: Mapping,
    /// Latency report.
    pub latency: LatencyReport,
    /// Energy report.
    pub energy: EnergyReport,
}

impl EvaluatedMapping {
    /// Score under `obj` (lower is better).
    pub fn score(&self, obj: Objective) -> f64 {
        match obj {
            Objective::Latency => self.latency.cc_total,
            Objective::Energy => self.energy.total_fj,
            Objective::Edp => self.latency.cc_total * self.energy.total_fj,
        }
    }
}

/// Counters shared by every ordering-search surface (mapper, DSE,
/// serve): one definition of what the numbers mean, one serialization.
/// A search runs on one thread, so its counters are a pure function of
/// its inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SearchStats {
    /// Orderings generated (legal or not). An exhaustive search walks one
    /// ordering per ordering class (DESIGN.md §10.4) and skips the rest,
    /// so this can be far below [`SearchResult::space_size`].
    pub generated: usize,
    /// Orderings whose mapping was legal and fully evaluated.
    pub evaluated: usize,
    /// Legal orderings skipped because a cheap lower bound already
    /// matched or exceeded the incumbent (never the eventual best —
    /// pruning preserves the argmin and its tie-break exactly).
    pub pruned: usize,
    /// Per-ordering prefix quantities reused from the previous ordering
    /// instead of recomputed (one per shared inner-prefix factor).
    pub cache_hits: u64,
}

impl SearchStats {
    /// Accumulates `other` into `self`, counter by counter.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.generated += other.generated;
        self.evaluated += other.evaluated;
        self.pruned += other.pruned;
        self.cache_hits += other.cache_hits;
    }
}

/// Outcome of a mapping search.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SearchResult {
    /// The best legal mapping found.
    pub best: EvaluatedMapping,
    /// Search counters (orderings generated/evaluated/pruned, prefix
    /// reuse).
    pub stats: SearchStats,
    /// Size of the full ordering space.
    pub space_size: u128,
    /// True when the space was enumerated exhaustively.
    pub exhaustive: bool,
    /// Wall-clock search time in milliseconds.
    pub wall_ms: f64,
}

/// Outcome of a mapping search without the winner's report: what
/// [`Mapper::search_fast`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct FastSearch {
    /// The winning ordering, innermost factor first. Its mapping is
    /// [`Mapper::mapping`] of it.
    pub ordering: Vec<Factor>,
    /// The winner's score under the searched objective.
    pub score: f64,
    /// The winner's latency scalars, bit-identical to its report's.
    pub latency: FastLatency,
    /// Search counters.
    pub stats: SearchStats,
    /// Size of the full ordering space.
    pub space_size: u128,
    /// True when the space was enumerated exhaustively.
    pub exhaustive: bool,
}

/// Largest [`MapperOptions::samples`] a search accepts. A sampled space
/// holds every candidate ordering at once, so an unbounded count would
/// abort the process on allocation failure instead of failing the search.
pub const MAX_SAMPLES: usize = 1 << 19;

/// Errors from mapping search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapperError {
    /// No generated ordering produced a legal mapping.
    NoLegalMapping {
        /// Orderings tried.
        tried: usize,
    },
    /// [`MapperOptions::samples`] exceeds [`MAX_SAMPLES`].
    TooManySamples {
        /// The requested sample count.
        samples: usize,
    },
}

impl fmt::Display for MapperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapperError::NoLegalMapping { tried } => {
                write!(f, "no legal mapping found among {tried} orderings")
            }
            MapperError::TooManySamples { samples } => {
                write!(f, "{samples} samples exceed the limit of {MAX_SAMPLES}")
            }
        }
    }
}

impl Error for MapperError {}

impl SearchResult {
    /// Orderings the search accounted for, walked or skipped as members
    /// of an already-walked ordering class: the whole space when
    /// exhaustive, else the candidates generated.
    pub fn covered(&self) -> usize {
        covered(self.exhaustive, self.space_size, self.stats.generated)
    }
}

fn covered(exhaustive: bool, space_size: u128, generated: usize) -> usize {
    if exhaustive {
        usize::try_from(space_size).unwrap_or(usize::MAX)
    } else {
        generated
    }
}

/// Adapts an ordering-class memo and a leaf callback to the enumerator:
/// a subtree whose prefix state was already seen is skipped.
struct ClassWalk<'c, 'a, F> {
    classes: &'c mut OrderingClasses<'a>,
    leaf: F,
}

impl<F: FnMut(&[Factor]) -> bool> enumerate::OrderingWalk for ClassWalk<'_, '_, F> {
    fn enter(&mut self, depth: usize, factor: Factor) -> bool {
        self.classes.enter(depth, factor)
    }

    fn visit(&mut self, ordering: &[Factor]) -> bool {
        (self.leaf)(ordering)
    }
}

/// A search's running state: the first-strictly-better incumbent in
/// visit order and the counters.
#[derive(Default)]
struct Incumbent {
    /// The best score so far and its ordering (valid while `best` is
    /// `Some`).
    best: Option<f64>,
    ordering: Vec<Factor>,
    stats: SearchStats,
}

impl Incumbent {
    /// Makes room for one more lane, draining a full batch first.
    fn claim(&mut self, kernel: &mut BatchKernel<'_>) {
        if kernel.is_full() {
            self.drain(kernel);
        }
        self.stats.generated += 1;
    }

    /// Flushes the kernel's filled lanes. The visit callback threads the
    /// incumbent through every lane, so prune decisions follow the
    /// first-strictly-better walk exactly.
    fn drain(&mut self, kernel: &mut BatchKernel<'_>) {
        kernel.drain(self.best, |ordering, outcome| {
            match outcome {
                LaneOutcome::Illegal => {}
                LaneOutcome::Pruned => self.stats.pruned += 1,
                LaneOutcome::Scored(score) => {
                    self.stats.evaluated += 1;
                    if self.best.is_none_or(|best| score < best) {
                        self.best = Some(score);
                        self.ordering.clear();
                        self.ordering.extend_from_slice(ordering);
                    }
                }
            }
            self.best
        });
    }
}

/// Lanes per kernel batch: a batch's lane rows stay cache-resident while
/// amortizing the per-batch overhead.
const LANES: usize = 64;

/// The mapping-space search driver.
pub struct Mapper<'a> {
    arch: &'a Architecture,
    layer: &'a Layer,
    spatial: SpatialUnroll,
    opts: MapperOptions,
    latency_model: LatencyModel,
    energy_model: EnergyModel,
}

impl<'a> Mapper<'a> {
    /// A mapper with default options and models.
    pub fn new(arch: &'a Architecture, layer: &'a Layer, spatial: SpatialUnroll) -> Self {
        Self {
            arch,
            layer,
            spatial,
            opts: MapperOptions::default(),
            latency_model: LatencyModel::new(),
            energy_model: EnergyModel::new(),
        }
    }

    /// Overrides the search options.
    pub fn with_options(mut self, opts: MapperOptions) -> Self {
        self.opts = opts;
        self.latency_model = if opts.bw_aware {
            LatencyModel::new()
        } else {
            LatencyModel::bw_unaware()
        };
        self
    }

    /// The temporal factor multiset for this layer/spatial pair.
    pub fn factors(&self) -> Vec<Factor> {
        temporal_factors(self.layer.shape().dims(), &self.spatial)
    }

    /// Size of the full ordering space.
    pub fn space_size(&self) -> u128 {
        ordering_count(&self.factors())
    }

    /// The ordering space [`search`](Self::search) walks, from this
    /// thread's memo of recent spaces: searches whose factor multiset,
    /// `samples`, `seed` and `max_exhaustive` agree share one space.
    pub fn space(&self) -> Arc<SearchSpace> {
        SearchSpace::shared(self.factors(), &self.opts)
    }

    /// The greedily allocated mapping of one ordering (innermost factor
    /// first), or `None` when the ordering has no legal allocation.
    pub fn mapping(&self, ordering: &[Factor]) -> Option<Mapping> {
        let stack = LoopStack::from_pairs(ordering);
        Mapping::with_greedy_alloc(self.arch, self.layer, self.spatial.clone(), stack).ok()
    }

    /// Builds and evaluates the mapping for one explicit ordering
    /// (innermost factor first). Returns `None` when the ordering has no
    /// legal greedy allocation. [`search`](Self::search) reports its
    /// winner through this full report path, and tests use it as the
    /// reference the batched search must match bit for bit.
    pub fn evaluate_ordering(&self, ordering: &[Factor]) -> Option<EvaluatedMapping> {
        let mapping = self.mapping(ordering)?;
        let view = MappedLayer::new(self.layer, self.arch, &mapping).ok()?;
        // One lowering serves both models.
        let lowered = LoweredLayer::build(&view, self.latency_model.dtl_options());
        let latency = self.latency_model.evaluate_lowered(&view, &lowered);
        let energy = self.energy_model.evaluate_lowered(&view, &lowered);
        Some(EvaluatedMapping {
            mapping,
            latency,
            energy,
        })
    }

    /// What a kernel scoring `obj` computes per lane.
    fn objective(&self, obj: Objective) -> LaneObjective<'a> {
        let energy = || self.energy_model.lane_energy(self.arch, self.layer);
        match obj {
            Objective::Latency => LaneObjective::Latency,
            Objective::Energy => LaneObjective::Energy(energy()),
            Objective::Edp => LaneObjective::Edp(energy()),
        }
    }

    /// A batched kernel over `space` scoring `obj`: the one engine of
    /// every ordering search. Over `folded`, the space's fold for this
    /// layer and spatial unrolling, the kernel folds only this
    /// architecture's capacities and link constants.
    fn kernel(
        &self,
        space: &SearchSpace,
        folded: Option<&Rc<FoldedSpace>>,
        obj: Objective,
    ) -> BatchKernel<'a> {
        let objective = self.objective(obj);
        match folded {
            Some(folded) => BatchKernel::from_folded(
                self.arch,
                self.layer,
                Rc::clone(folded),
                self.latency_model,
                LANES,
                objective,
            ),
            None => BatchKernel::new(
                self.arch,
                self.layer,
                &self.spatial,
                self.latency_model,
                space.factors(),
                LANES,
                objective,
            ),
        }
    }

    /// Searches the mapping space for the minimum-`obj` mapping:
    /// exhaustively when the ordering count is within
    /// [`MapperOptions::max_exhaustive`], by uniform sampling otherwise,
    /// and reports the winner through
    /// [`evaluate_ordering`](Self::evaluate_ordering).
    ///
    /// The walk is [`search_fast`](Self::search_fast)'s: every objective
    /// runs the batched kernel ([`BatchKernel`]), which is
    /// allocation-free in steady state and prunes provably-worse
    /// orderings with monotone lower bounds (latency only). Both preserve
    /// the exact result of the naive walk through `evaluate_ordering`:
    /// the same best mapping, the same score bits, the same
    /// first-strictly-better tie-break. The search runs on the caller's
    /// thread; callers parallelize across searches.
    ///
    /// # Errors
    ///
    /// Returns [`MapperError::TooManySamples`] if `samples` exceeds
    /// [`MAX_SAMPLES`], [`MapperError::NoLegalMapping`] if nothing legal
    /// was found.
    pub fn search(&self, obj: Objective) -> Result<SearchResult, MapperError> {
        let t0 = Instant::now();
        let found = self.search_fast(obj)?;
        let best = self
            .evaluate_ordering(&found.ordering)
            .expect("winning ordering was legal in the kernel");
        debug_assert_eq!(best.score(obj).to_bits(), found.score.to_bits());
        Ok(SearchResult {
            best,
            stats: found.stats,
            space_size: found.space_size,
            exhaustive: found.exhaustive,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// [`search`](Self::search) without the winner's report: the same
    /// walk, the same winner, score bits and counters, plus the winner's
    /// latency scalars. Latency and EDP walks take those from the kernel
    /// lane that won; an energy walk, whose kernel computes no latency,
    /// prices its winner with one [`LatencyModel::evaluate_fast`].
    ///
    /// # Errors
    ///
    /// Returns [`MapperError::TooManySamples`] if `samples` exceeds
    /// [`MAX_SAMPLES`], [`MapperError::NoLegalMapping`] if nothing legal
    /// was found.
    pub fn search_fast(&self, obj: Objective) -> Result<FastSearch, MapperError> {
        let samples = self.opts.samples;
        if samples > MAX_SAMPLES {
            return Err(MapperError::TooManySamples { samples });
        }
        let space = self.space();
        let (space_size, exhaustive) = (space.size(), space.exhaustive());
        // A sampled space met before on this thread is folded for this
        // layer and spatial unrolling: its candidates are pushed by index.
        let folded = (!exhaustive)
            .then(|| space::folded(&space, self.arch, self.layer, &self.spatial, LANES))
            .flatten();
        let mut kernel = self.kernel(&space, folded.as_ref(), obj);
        let mut out = Incumbent::default();
        if exhaustive {
            // Only the first ordering of each ordering class is pushed: a
            // later member has an earlier twin with identical score bits,
            // so it can never be strictly better (DESIGN.md §10.4).
            let mut classes = kernel.classes();
            let mut walk = ClassWalk {
                classes: &mut classes,
                leaf: |ordering: &[Factor]| {
                    out.claim(&mut kernel);
                    kernel.push(ordering);
                    true
                },
            };
            enumerate::walk_orderings(space.factors(), &mut walk);
        } else {
            // The stationary seeds, then the uniform samples.
            for i in 0..space.candidate_count() {
                out.claim(&mut kernel);
                match folded {
                    Some(_) => kernel.push_candidate(i),
                    None => kernel.push(space.candidate(i)),
                }
            }
        }
        out.drain(&mut kernel);
        let mut stats = out.stats;
        stats.cache_hits = kernel.cache_hits();
        let Some(score) = out.best else {
            return Err(MapperError::NoLegalMapping {
                tried: covered(exhaustive, space_size, stats.generated),
            });
        };
        let ordering = out.ordering;
        let latency = kernel.winner_latency().unwrap_or_else(|| {
            let mapping = self
                .mapping(&ordering)
                .expect("winning ordering was legal in the kernel");
            let view = MappedLayer::new(self.layer, self.arch, &mapping)
                .expect("winning mapping was legal in the kernel");
            self.latency_model
                .evaluate_fast(&view, &mut ModelScratch::default())
        });
        Ok(FastSearch {
            ordering,
            score,
            latency,
            stats,
            space_size,
            exhaustive,
        })
    }

    /// Evaluates every legal mapping in the (exhaustively enumerable)
    /// space and returns them all — used by studies that plot whole
    /// mapping spaces.
    ///
    /// # Errors
    ///
    /// Returns [`MapperError::NoLegalMapping`] if nothing legal exists
    /// within the first `max_exhaustive` orderings.
    pub fn enumerate_all(&self) -> Result<Vec<EvaluatedMapping>, MapperError> {
        let factors = self.factors();
        let mut out = Vec::new();
        let mut generated = 0usize;
        let cap = self.opts.max_exhaustive;
        enumerate::for_each_ordering(&factors, |ordering| {
            generated += 1;
            if let Some(em) = self.evaluate_ordering(ordering) {
                out.push(em);
            }
            (generated as u128) < cap
        });
        if out.is_empty() {
            Err(MapperError::NoLegalMapping { tried: generated })
        } else {
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_workload::{Dim, Precision};

    fn toy() -> (ulm_arch::presets::PresetChip, Layer) {
        (
            presets::toy_chip(),
            Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24()),
        )
    }

    #[test]
    fn exhaustive_search_finds_best() {
        let (chip, layer) = toy();
        let mapper = Mapper::new(&chip.arch, &layer, SpatialUnroll::new(chip.spatial.clone()));
        // Factors: B2, K2, C2,C2,C2 -> 5!/3! = 20 orderings.
        assert_eq!(mapper.space_size(), 20);
        let r = mapper.search(Objective::Latency).unwrap();
        assert!(r.exhaustive);
        assert_eq!(r.space_size, 20);
        // One walked ordering per ordering class: 3 of the 20 share an
        // earlier ordering's prefix state and are skipped.
        assert_eq!(r.stats.generated, 17);
        assert_eq!(r.covered(), 20);
        assert!(r.stats.evaluated > 0);
        // The best must beat (or tie) every enumerated mapping.
        let all = mapper.enumerate_all().unwrap();
        let min = all
            .iter()
            .map(|em| em.latency.cc_total)
            .fold(f64::INFINITY, f64::min);
        assert!((r.best.latency.cc_total - min).abs() < 1e-9);
    }

    #[test]
    fn seeded_orderings_cover_stationary_dataflows() {
        let f = vec![(Dim::C, 2), (Dim::C, 5), (Dim::B, 2), (Dim::K, 3)];
        let seeds = enumerate::seeded_orderings(&f);
        assert_eq!(seeds.len(), 6); // 3! dim permutations
                                    // Output-stationary ordering (C group innermost) is present.
        assert!(seeds.iter().any(|s| s[0].0 == Dim::C && s[1].0 == Dim::C));
        // Every seed is a permutation of the multiset.
        for s in &seeds {
            let mut a = s.clone();
            let mut b = f.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sampling_used_for_large_spaces() {
        let layer = Layer::matmul("big", 64, 96, 640, Precision::int8_acc24());
        let chip16 = presets::case_study_chip(128);
        let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
        let mapper = Mapper::new(&chip16, &layer, spatial).with_options(MapperOptions {
            max_exhaustive: 100,
            samples: 50,
            ..MapperOptions::default()
        });
        assert!(mapper.space_size() > 100);
        let r = mapper.search(Objective::Latency).unwrap();
        assert!(!r.exhaustive);
        // Seeds (dim permutations) + 50 samples.
        assert!(r.stats.generated <= 50 + 6);
    }

    #[test]
    fn objectives_disagree_when_tradeoffs_exist() {
        let (chip, layer) = toy();
        let mapper = Mapper::new(&chip.arch, &layer, SpatialUnroll::new(chip.spatial.clone()));
        let lat = mapper.search(Objective::Latency).unwrap();
        let en = mapper.search(Objective::Energy).unwrap();
        // The energy-best mapping can never have lower latency than the
        // latency-best one.
        assert!(en.best.latency.cc_total >= lat.best.latency.cc_total - 1e-9);
        assert!(lat.best.energy.total_fj >= en.best.energy.total_fj - 1e-9);
    }

    #[test]
    fn search_is_deterministic() {
        let (chip, layer) = toy();
        let mapper = Mapper::new(&chip.arch, &layer, SpatialUnroll::new(chip.spatial.clone()));
        let a = mapper.search(Objective::Latency).unwrap();
        let b = mapper.search(Objective::Latency).unwrap();
        assert_eq!(a.best.mapping, b.best.mapping);
    }

    #[test]
    fn edp_between_extremes() {
        let (chip, layer) = toy();
        let mapper = Mapper::new(&chip.arch, &layer, SpatialUnroll::new(chip.spatial.clone()));
        let edp = mapper.search(Objective::Edp).unwrap();
        let lat = mapper.search(Objective::Latency).unwrap();
        let en = mapper.search(Objective::Energy).unwrap();
        let edp_score = edp.best.score(Objective::Edp);
        assert!(edp_score <= lat.best.score(Objective::Edp) + 1e-6);
        assert!(edp_score <= en.best.score(Objective::Edp) + 1e-6);
    }
}
