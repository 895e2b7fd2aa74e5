//! Cross-layer (whole-network) latency and energy aggregation.
//!
//! The paper closes with: "This intra-layer latency model builds a solid
//! foundation for future work of modeling and optimizing latency in
//! cross-layer multi-core DNN mapping scenarios." This crate takes the
//! first step of that future work: it schedules a sequence of layers on
//! one accelerator, optimizes each layer's mapping independently with the
//! intra-layer model, and aggregates network-level latency under two
//! inter-layer policies:
//!
//! * [`InterLayerOverlap::None`] — strictly sequential execution (the sum
//!   of per-layer totals);
//! * [`InterLayerOverlap::WeightPrefetch`] — the next layer's weight
//!   pre-load is hidden under the current layer's computation (classic
//!   double-buffered weight staging at the GB boundary), saving
//!   `min(next.preload, current.compute)` cycles per boundary.
//!
//! # Example
//!
//! ```no_run
//! use ulm_arch::presets;
//! use ulm_mapping::SpatialUnroll;
//! use ulm_network::{InterLayerOverlap, NetworkEvaluator};
//! use ulm_workload::networks;
//!
//! let chip = presets::validation_chip();
//! let eval = NetworkEvaluator::new(&chip.arch, SpatialUnroll::new(chip.spatial.clone()))
//!     .with_overlap(InterLayerOverlap::WeightPrefetch);
//! let report = eval.evaluate(&networks::handtracking_validation_layers())?;
//! println!("{report}");
//! # Ok::<(), ulm_network::NetworkError>(())
//! ```

use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use ulm_arch::Architecture;
use ulm_energy::{EnergyModel, EnergyReport};
use ulm_mapper::{FastSearch, Mapper, MapperError, MapperOptions, Objective};
use ulm_mapping::{FuseError, FusedSegment, MappedLayer, Mapping, SegmentResidency, SpatialUnroll};
use ulm_model::{LatencyModel, LatencyReport, LoweredLayer, ResidencyPins};
use ulm_workload::{Layer, WorkloadKey};

/// How consecutive layers may overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum InterLayerOverlap {
    /// Strictly sequential: each layer starts after the previous finishes.
    #[default]
    None,
    /// The next layer's weight pre-load is prefetched during the current
    /// layer's computation phase.
    WeightPrefetch,
}

/// Per-layer outcome inside a network schedule.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LayerResult {
    /// The layer's name.
    pub name: String,
    /// The optimized mapping.
    pub mapping: Mapping,
    /// The intra-layer latency report.
    pub latency: LatencyReport,
    /// The intra-layer energy report.
    pub energy: EnergyReport,
    /// Cycles of this layer's pre-load hidden under the previous layer.
    pub hidden_preload: u64,
}

/// The whole-network result.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct NetworkReport {
    /// Per-layer results in execution order.
    pub layers: Vec<LayerResult>,
    /// The overlap policy used.
    pub overlap: InterLayerOverlap,
    /// Residency tables of the fused segments applied (empty when the
    /// network ran layer-by-layer).
    #[serde(default)]
    pub segments: Vec<SegmentResidency>,
}

impl NetworkReport {
    /// End-to-end cycles under the chosen overlap policy.
    pub fn total_cycles(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.latency.cc_total - l.hidden_preload as f64)
            .sum()
    }

    /// End-to-end cycles with no overlap (the strict sequential bound).
    pub fn sequential_cycles(&self) -> f64 {
        self.layers.iter().map(|l| l.latency.cc_total).sum()
    }

    /// Total energy in fJ.
    pub fn total_fj(&self) -> f64 {
        self.layers.iter().map(|l| l.energy.total_fj).sum()
    }

    /// Network-level MAC-array utilization: summed ideal cycles over the
    /// end-to-end cycles.
    pub fn utilization(&self) -> f64 {
        let ideal: f64 = self.layers.iter().map(|l| l.latency.cc_ideal).sum();
        ideal / self.total_cycles()
    }
}

impl fmt::Display for NetworkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "network: {} layers, {:.0} cycles ({}), U {:.1}%, {:.1} uJ",
            self.layers.len(),
            self.total_cycles(),
            match self.overlap {
                InterLayerOverlap::None => "sequential",
                InterLayerOverlap::WeightPrefetch => "weight-prefetch overlap",
            },
            self.utilization() * 100.0,
            self.total_fj() / 1.0e9
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "  {:<24} {:>12.0} cc  U {:>5.1}%  hidden preload {:>6}",
                l.name,
                l.latency.cc_total,
                l.latency.utilization * 100.0,
                l.hidden_preload
            )?;
        }
        Ok(())
    }
}

/// Errors from network evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A layer could not be mapped at all.
    LayerUnmappable {
        /// The layer's name.
        layer: String,
        /// The mapper's error.
        source: MapperError,
    },
    /// A fused segment failed validation against this network + chip.
    BadFusion {
        /// The fusion validator's error.
        source: FuseError,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::LayerUnmappable { layer, source } => {
                write!(f, "layer `{layer}` cannot be mapped: {source}")
            }
            NetworkError::BadFusion { source } => {
                write!(f, "invalid fused segment: {source}")
            }
        }
    }
}

impl Error for NetworkError {}

impl From<FuseError> for NetworkError {
    fn from(source: FuseError) -> Self {
        NetworkError::BadFusion { source }
    }
}

/// Where a [`NetworkEvaluator`] gets each layer's mapping search.
///
/// The default, used unless [`NetworkEvaluator::with_search`] names
/// another, searches each distinct workload among one call's layers
/// once. A caller that keeps searches across calls (serve's search
/// store) implements this trait.
pub trait LayerSearch {
    /// The outcome of `mapper.search_fast(objective)`. `mapper` searches
    /// `layer` on the evaluator's architecture, spatial unrolling and
    /// mapper options, which stay the same for every layer of a call.
    ///
    /// # Errors
    ///
    /// The search's error.
    fn search(
        &self,
        mapper: &Mapper<'_>,
        layer: &Layer,
        objective: Objective,
    ) -> Result<Arc<FastSearch>, MapperError>;
}

/// The default [`LayerSearch`]: one call's searches, by workload, so
/// layers that differ only in their names share one search.
#[derive(Default)]
struct WithinCall(RefCell<Vec<(WorkloadKey, Arc<FastSearch>)>>);

impl LayerSearch for WithinCall {
    fn search(
        &self,
        mapper: &Mapper<'_>,
        layer: &Layer,
        objective: Objective,
    ) -> Result<Arc<FastSearch>, MapperError> {
        let key = layer.workload_key();
        if let Some((_, found)) = self.0.borrow().iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(found));
        }
        #[cfg(test)]
        tests::SEARCHES.with(|n| n.set(n.get() + 1));
        let found = Arc::new(mapper.search_fast(objective)?);
        self.0.borrow_mut().push((key, Arc::clone(&found)));
        Ok(found)
    }
}

/// Evaluates layer sequences on one accelerator.
pub struct NetworkEvaluator<'a> {
    arch: &'a Architecture,
    spatial: SpatialUnroll,
    mapper_opts: MapperOptions,
    overlap: InterLayerOverlap,
    objective: Objective,
    fusion: Vec<FusedSegment>,
    search: Option<&'a (dyn LayerSearch + Sync)>,
}

impl<'a> NetworkEvaluator<'a> {
    /// An evaluator with default mapper options, sequential execution and
    /// the latency objective.
    pub fn new(arch: &'a Architecture, spatial: SpatialUnroll) -> Self {
        Self {
            arch,
            spatial,
            mapper_opts: MapperOptions {
                max_exhaustive: 2_000,
                samples: 100,
                ..MapperOptions::default()
            },
            overlap: InterLayerOverlap::None,
            objective: Objective::Latency,
            fusion: Vec::new(),
            search: None,
        }
    }

    /// Sets the inter-layer overlap policy.
    pub fn with_overlap(mut self, overlap: InterLayerOverlap) -> Self {
        self.overlap = overlap;
        self
    }

    /// Sets the per-layer mapping-search options.
    pub fn with_mapper_options(mut self, opts: MapperOptions) -> Self {
        self.mapper_opts = opts;
        self
    }

    /// Sets the per-layer mapping objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Schedules the given fused segments depth-first: each segment's
    /// intermediate tensors stay pinned in its local-buffer level, and the
    /// fused layers are lowered with the segment's residency pins so the
    /// elided backing-store round-trips drop out of latency, energy and
    /// preload alike. Segments are validated against the network when
    /// [`evaluate`](Self::evaluate) runs. The per-layer mapping search
    /// itself stays fusion-blind (it optimizes the unpinned layer), so a
    /// degenerate segment — pinned at the backing store, eliding nothing —
    /// reproduces the layer-by-layer result exactly.
    pub fn with_fusion(mut self, fusion: Vec<FusedSegment>) -> Self {
        self.fusion = fusion;
        self
    }

    /// Takes every layer's search from `search` instead of searching each
    /// distinct workload of a call once.
    pub fn with_search(mut self, search: &'a (dyn LayerSearch + Sync)) -> Self {
        self.search = Some(search);
        self
    }

    /// Validates every fused segment and merges their residency pins into
    /// one per-layer table (a layer fused in two adjacent segments keeps
    /// the tighter — lower-level — pin per operand).
    fn fusion_pins(
        &self,
        layers: &[Layer],
    ) -> Result<(Vec<SegmentResidency>, Vec<ResidencyPins>), NetworkError> {
        let mut pins: Vec<ResidencyPins> = vec![[None; 3]; layers.len()];
        let mut segments = Vec::with_capacity(self.fusion.len());
        for seg in &self.fusion {
            let res = seg.residency(self.arch, layers)?;
            for (idx, merged) in pins.iter_mut().enumerate() {
                for (slot, pin) in merged.iter_mut().zip(res.pins_for(idx)) {
                    if let Some(level) = pin {
                        *slot = Some(slot.map_or(level, |cur: usize| cur.min(level)));
                    }
                }
            }
            segments.push(res);
        }
        Ok((segments, pins))
    }

    /// Optimizes and schedules every layer.
    ///
    /// Each layer's winning ordering comes from the evaluator's
    /// [`LayerSearch`]: by default each distinct workload is searched
    /// once (the first layer of it in order stands for it), on the
    /// caller's thread. Every layer is then lowered with its own fusion
    /// residency pins and evaluated in layer order, so the inter-layer
    /// overlap pass sees the previous layer's result and errors are
    /// reported in layer order.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::LayerUnmappable`] naming the first layer
    /// with no legal mapping.
    pub fn evaluate(&self, layers: &[Layer]) -> Result<NetworkReport, NetworkError> {
        let (segments, pins) = self.fusion_pins(layers)?;
        let within_call = WithinCall::default();
        let search = self.search.map_or(&within_call as &dyn LayerSearch, |s| s);
        let mut mappings = Vec::with_capacity(layers.len());
        for layer in layers {
            let mapper =
                Mapper::new(self.arch, layer, self.spatial.clone()).with_options(self.mapper_opts);
            let found = search
                .search(&mapper, layer, self.objective)
                .map_err(|source| NetworkError::LayerUnmappable {
                    layer: layer.name().to_string(),
                    source,
                })?;
            mappings.push(
                mapper
                    .mapping(&found.ordering)
                    .expect("the winning ordering has a legal allocation"),
            );
        }
        // One lowering per layer, with its own pins, feeds both models:
        // latency and energy read the same residency tables, so their
        // block counts agree by construction.
        let model = LatencyModel::new();
        let mut results: Vec<LayerResult> = Vec::with_capacity(layers.len());
        for ((layer, &pins), mapping) in layers.iter().zip(&pins).zip(mappings) {
            let view = MappedLayer::new(layer, self.arch, &mapping)
                .expect("search returns validated mappings");
            let lowered = LoweredLayer::build_pinned(&view, model.dtl_options(), pins);
            let latency = model.evaluate_lowered(&view, &lowered);
            let energy = EnergyModel::new().evaluate_lowered(&view, &lowered);
            // Weight prefetch hides this layer's preload under the
            // previous layer's computation phase.
            let hidden_preload = match (self.overlap, results.last()) {
                (InterLayerOverlap::WeightPrefetch, Some(prev)) => {
                    (latency.preload as f64).min(prev.latency.cc_compute()) as u64
                }
                _ => 0,
            };
            results.push(LayerResult {
                name: layer.name().to_string(),
                mapping,
                latency,
                energy,
                hidden_preload,
            });
        }
        Ok(NetworkReport {
            layers: results,
            overlap: self.overlap,
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use ulm_arch::presets;
    use ulm_workload::{Layer, Operand, Precision};

    thread_local! {
        /// Mapping searches [`NetworkEvaluator::evaluate`] ran on this
        /// thread.
        pub(super) static SEARCHES: Cell<usize> = const { Cell::new(0) };
    }

    /// Runs `f` and returns how many searches it ran on this thread.
    fn searches<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = SEARCHES.with(Cell::get);
        let out = f();
        (out, SEARCHES.with(Cell::get) - before)
    }

    fn small_net() -> Vec<Layer> {
        vec![
            Layer::matmul("l0", 64, 64, 128, Precision::int8_acc24()),
            Layer::matmul("l1", 64, 128, 64, Precision::int8_acc24()),
            Layer::matmul("l2", 64, 32, 128, Precision::int8_acc24()),
        ]
    }

    fn quick(arch: &Architecture) -> NetworkEvaluator<'_> {
        NetworkEvaluator::new(
            arch,
            SpatialUnroll::new(vec![
                (ulm_workload::Dim::K, 16),
                (ulm_workload::Dim::B, 8),
                (ulm_workload::Dim::C, 2),
            ]),
        )
        .with_mapper_options(MapperOptions {
            max_exhaustive: 300,
            samples: 30,
            ..MapperOptions::default()
        })
    }

    #[test]
    fn sequential_total_is_sum_of_layers() {
        let arch = presets::case_study_chip(128);
        let r = quick(&arch).evaluate(&small_net()).unwrap();
        assert_eq!(r.layers.len(), 3);
        let sum: f64 = r.layers.iter().map(|l| l.latency.cc_total).sum();
        assert!((r.total_cycles() - sum).abs() < 1e-9);
        assert!((r.sequential_cycles() - sum).abs() < 1e-9);
    }

    #[test]
    fn weight_prefetch_never_slower() {
        let arch = presets::case_study_chip(128);
        let seq = quick(&arch).evaluate(&small_net()).unwrap();
        let ov = quick(&arch)
            .with_overlap(InterLayerOverlap::WeightPrefetch)
            .evaluate(&small_net())
            .unwrap();
        assert!(ov.total_cycles() <= seq.total_cycles());
        // The first layer can never hide its preload.
        assert_eq!(ov.layers[0].hidden_preload, 0);
        // The strict bound is unchanged.
        assert!((ov.sequential_cycles() - seq.sequential_cycles()).abs() < 1e-9);
    }

    #[test]
    fn energy_adds_across_layers() {
        let arch = presets::case_study_chip(128);
        let r = quick(&arch).evaluate(&small_net()).unwrap();
        let sum: f64 = r.layers.iter().map(|l| l.energy.total_fj).sum();
        assert!((r.total_fj() - sum).abs() < 1e-6);
        assert!(r.total_fj() > 0.0);
    }

    #[test]
    fn utilization_is_ideal_over_total() {
        let arch = presets::case_study_chip(128);
        let r = quick(&arch).evaluate(&small_net()).unwrap();
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    }

    /// Evaluates `layers` on `threads` caller threads at once, as the DSE
    /// and serve's pool do: each evaluation runs alone on its thread.
    fn evaluate_on_threads(
        eval: &NetworkEvaluator<'_>,
        layers: &[Layer],
        threads: usize,
    ) -> Vec<Result<NetworkReport, NetworkError>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| eval.evaluate(layers)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn parallel_evaluate_matches_serial_exactly() {
        let arch = presets::case_study_chip(128);
        let eval = quick(&arch).with_overlap(InterLayerOverlap::WeightPrefetch);
        let serial = eval.evaluate(&small_net()).unwrap();
        for par in evaluate_on_threads(&eval, &small_net(), 3) {
            let par = par.unwrap();
            assert_eq!(serial.layers.len(), par.layers.len());
            for (s, p) in serial.layers.iter().zip(&par.layers) {
                assert_eq!(s.name, p.name);
                assert_eq!(s.mapping, p.mapping);
                assert_eq!(s.latency, p.latency);
                assert_eq!(s.energy.total_fj, p.energy.total_fj);
                assert_eq!(s.hidden_preload, p.hidden_preload);
            }
        }
    }

    #[test]
    fn parallel_error_is_first_in_layer_order() {
        let arch = presets::case_study_chip(128);
        // Two unmappable layers: the *first* one must be the error named,
        // on every caller thread.
        let layers = vec![
            Layer::matmul("ok0", 64, 64, 128, Precision::int8_acc24()),
            Layer::matmul("bad1", 64, 64, 64, Precision::uniform(512)),
            Layer::matmul("ok2", 64, 32, 128, Precision::int8_acc24()),
            Layer::matmul("bad3", 32, 64, 64, Precision::uniform(512)),
        ];
        for err in evaluate_on_threads(&quick(&arch), &layers, 2) {
            let err = err.unwrap_err();
            assert!(err.to_string().contains("bad1"), "{err}");
        }
    }

    #[test]
    fn each_distinct_shape_is_searched_once() {
        let arch = presets::case_study_chip(128);
        let p = Precision::int8_acc24();
        let layers = vec![
            Layer::matmul("q_proj", 64, 64, 128, p),
            Layer::matmul("k_proj", 64, 32, 128, p),
            Layer::matmul("o_proj", 64, 64, 128, p),
            Layer::matmul("v_proj", 64, 32, 128, p),
            // Twins in all but precision or KV-cache flags share nothing.
            Layer::matmul("q_wide", 64, 64, 128, Precision::uniform(8)),
            Layer::matmul("k_cached", 64, 32, 128, p).with_kv_cache(Operand::W),
        ];
        let (r, n) = searches(|| quick(&arch).evaluate(&layers).unwrap());
        assert_eq!(n, 4);
        assert_eq!(r.layers[2].name, "o_proj");
        assert_eq!(r.layers[0].mapping, r.layers[2].mapping);
        assert_eq!(r.layers[1].latency, r.layers[3].latency);
    }

    #[test]
    fn unmappable_twins_report_the_first_name() {
        let arch = presets::case_study_chip(128);
        let layers = vec![
            Layer::matmul("ok0", 64, 64, 128, Precision::int8_acc24()),
            Layer::matmul("bad_a", 64, 64, 64, Precision::uniform(512)),
            Layer::matmul("bad_b", 64, 64, 64, Precision::uniform(512)),
        ];
        let (err, n) = searches(|| quick(&arch).evaluate(&layers).unwrap_err());
        assert_eq!(n, 2);
        assert!(
            matches!(&err, NetworkError::LayerUnmappable { layer, .. } if layer == "bad_a"),
            "{err}"
        );
    }

    #[test]
    fn unmappable_layer_is_reported_by_name() {
        let arch = presets::case_study_chip(128);
        // A layer whose spatial block cannot enter the registers.
        let fat = vec![Layer::matmul("fat", 64, 64, 64, Precision::uniform(512))];
        let err = quick(&arch).evaluate(&fat).unwrap_err();
        assert!(err.to_string().contains("fat"), "{err}");
    }

    fn fusable_net() -> Vec<Layer> {
        // b consumes exactly what a produces (32 words), so `a -> b` is a
        // legal fused edge on any chip whose LB serves O and I.
        vec![
            Layer::matmul("a", 4, 8, 8, Precision::int8_acc24()),
            Layer::matmul("b", 4, 8, 8, Precision::int8_acc24()),
        ]
    }

    fn toy_eval(arch: &Architecture) -> NetworkEvaluator<'_> {
        NetworkEvaluator::new(
            arch,
            SpatialUnroll::new(vec![(ulm_workload::Dim::K, 2), (ulm_workload::Dim::B, 2)]),
        )
    }

    #[test]
    fn degenerate_fusion_matches_layer_by_layer_exactly() {
        // Pinning at the toy chip's LB — its backing store — elides
        // nothing, so the fused evaluation must be bit-identical to the
        // layer-by-layer oracle.
        let chip = presets::toy_chip();
        let layers = fusable_net();
        let oracle = toy_eval(&chip.arch).evaluate(&layers).unwrap();
        let seg = ulm_mapping::FusedSegment::new(vec!["a".into(), "b".into()], "LB");
        let fused = toy_eval(&chip.arch)
            .with_fusion(vec![seg])
            .evaluate(&layers)
            .unwrap();
        assert_eq!(fused.segments.len(), 1);
        for (o, f) in oracle.layers.iter().zip(&fused.layers) {
            assert_eq!(o.mapping, f.mapping);
            assert_eq!(o.latency, f.latency);
            assert_eq!(o.energy.total_fj, f.energy.total_fj);
        }
        assert_eq!(oracle.total_cycles(), fused.total_cycles());
    }

    #[test]
    fn resident_intermediates_are_strictly_cheaper() {
        // On the fusion chip the LB sits below a narrow DRAM link:
        // pinning the a->b intermediate there elides the producer's
        // writeback and the consumer's refill, so the fused run must beat
        // the oracle on both cycles and energy.
        let chip = presets::fusion_chip();
        let layers = fusable_net();
        let oracle = toy_eval(&chip.arch).evaluate(&layers).unwrap();
        let seg = ulm_mapping::FusedSegment::new(vec!["a".into(), "b".into()], "LB");
        let fused = toy_eval(&chip.arch)
            .with_fusion(vec![seg])
            .evaluate(&layers)
            .unwrap();
        assert!(
            fused.total_cycles() < oracle.total_cycles(),
            "fused {} !< oracle {}",
            fused.total_cycles(),
            oracle.total_cycles()
        );
        assert!(
            fused.total_fj() < oracle.total_fj(),
            "fused {} !< oracle {}",
            fused.total_fj(),
            oracle.total_fj()
        );
        // The consumer no longer fills its input from DRAM (its weight
        // fill may still dominate the preload phase, so `<=`).
        assert!(fused.layers[1].latency.preload <= oracle.layers[1].latency.preload);
    }

    #[test]
    fn bad_fusion_is_reported() {
        let chip = presets::toy_chip();
        let seg = ulm_mapping::FusedSegment::new(vec!["a".into(), "nope".into()], "LB");
        let err = toy_eval(&chip.arch)
            .with_fusion(vec![seg])
            .evaluate(&fusable_net())
            .unwrap_err();
        assert!(matches!(
            err,
            NetworkError::BadFusion {
                source: ulm_mapping::FuseError::UnknownLayer { .. }
            }
        ));
    }

    #[test]
    fn display_lists_every_layer() {
        let arch = presets::case_study_chip(128);
        let r = quick(&arch).evaluate(&small_net()).unwrap();
        let s = r.to_string();
        for l in &r.layers {
            assert!(s.contains(&l.name), "{s}");
        }
    }
}
