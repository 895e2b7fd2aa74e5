//! Multi-core layer partitioning — the second half of the paper's stated
//! future work ("cross-layer **multi-core** DNN mapping scenarios").
//!
//! A layer is split across `n` identical cores along the batch or the
//! output-channel dimension; each core runs its sub-layer under the
//! intra-layer model, the layer completes at the slowest core (barrier
//! synchronization), and — when the cores share one backing store — each
//! core sees only `1/n` of the shared bandwidth, which the per-core
//! architecture factory receives as an input. That bandwidth scaling is
//! where the intra-layer model's BW-awareness earns its keep: it decides
//! whether adding cores actually helps.

use crate::{search_distinct, NetworkError};
use std::fmt;
use ulm_arch::Architecture;
use ulm_mapper::{Mapper, MapperOptions, Objective};
use ulm_mapping::{MappedLayer, SpatialUnroll};
use ulm_model::LatencyModel;
use ulm_workload::{Dim, Layer};

/// How a layer is divided across cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Each core processes a slice of the batch (data parallelism).
    Batch,
    /// Each core produces a slice of the output channels.
    OutputChannels,
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Partition::Batch => write!(f, "batch-split"),
            Partition::OutputChannels => write!(f, "K-split"),
        }
    }
}

/// Whether the cores own private backing-store bandwidth or share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackingStore {
    /// Every core keeps the full backing-store bandwidth (e.g. private
    /// DRAM channels).
    Private,
    /// The given total bandwidth is divided evenly among the cores.
    Shared {
        /// Total bits/cycle across all cores.
        total_bw_bits: u64,
    },
}

/// Result of running one layer across the cores.
#[derive(Debug, Clone)]
pub struct MultiCoreLayerReport {
    /// The layer's name.
    pub name: String,
    /// The per-core sub-layer that was actually evaluated.
    pub sub_layer: String,
    /// Cores with non-trivial work.
    pub active_cores: u64,
    /// Cycles of the slowest core (the layer's latency).
    pub cycles: f64,
    /// The slowest core's MAC utilization.
    pub utilization: f64,
}

/// Result across a whole network.
#[derive(Debug, Clone)]
pub struct MultiCoreReport {
    /// Number of cores.
    pub cores: u64,
    /// The partition strategy.
    pub partition: Partition,
    /// Per-layer results.
    pub layers: Vec<MultiCoreLayerReport>,
}

impl MultiCoreReport {
    /// End-to-end cycles (layer barriers, no inter-layer overlap).
    pub fn total_cycles(&self) -> f64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }
}

impl fmt::Display for MultiCoreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} cores ({}): {:.0} cycles",
            self.cores,
            self.partition,
            self.total_cycles()
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "  {:<24} {:>12.0} cc  x{} cores  U {:>5.1}%  [{}]",
                l.name,
                l.cycles,
                l.active_cores,
                l.utilization * 100.0,
                l.sub_layer
            )?;
        }
        Ok(())
    }
}

/// Evaluates layers across `n` identical cores built by a factory.
pub struct MultiCoreEvaluator<F>
where
    F: Fn(u64) -> (Architecture, SpatialUnroll),
{
    factory: F,
    cores: u64,
    partition: Partition,
    backing: BackingStore,
    mapper_opts: MapperOptions,
}

impl<F> MultiCoreEvaluator<F>
where
    F: Fn(u64) -> (Architecture, SpatialUnroll),
{
    /// Builds an evaluator. `factory(gb_bw_bits)` must instantiate one
    /// core whose backing store runs at the given bandwidth; under
    /// [`BackingStore::Private`] it receives `u64::MAX / 4` (unconstrained).
    pub fn new(factory: F, cores: u64, partition: Partition, backing: BackingStore) -> Self {
        assert!(cores > 0, "at least one core");
        Self {
            factory,
            cores,
            partition,
            backing,
            mapper_opts: MapperOptions {
                max_exhaustive: 1_000,
                samples: 60,
                ..MapperOptions::default()
            },
        }
    }

    /// Overrides the per-layer mapping-search options.
    pub fn with_mapper_options(mut self, opts: MapperOptions) -> Self {
        self.mapper_opts = opts;
        self
    }

    /// The bandwidth each core sees at its backing store.
    fn per_core_bw(&self) -> u64 {
        match self.backing {
            BackingStore::Private => u64::MAX / 4,
            BackingStore::Shared { total_bw_bits } => (total_bw_bits / self.cores).max(1),
        }
    }

    /// The sub-layer one core processes, and how many cores have work.
    fn split(&self, layer: &Layer) -> (Layer, u64) {
        let d = layer.shape().dims();
        let (dim, bound) = match self.partition {
            Partition::Batch => (Dim::B, d[Dim::B]),
            Partition::OutputChannels => (Dim::K, d[Dim::K]),
        };
        let active = self.cores.min(bound);
        let share = bound.div_ceil(active);
        let mut dims = *d;
        dims[dim] = share;
        let shape = ulm_workload::LayerShape::conv(
            dims[Dim::B],
            dims[Dim::K],
            dims[Dim::C],
            dims[Dim::OY],
            dims[Dim::OX],
            dims[Dim::FY],
            dims[Dim::FX],
        )
        .with_stride(layer.shape().stride().0, layer.shape().stride().1)
        .with_dilation(layer.shape().dilation().0, layer.shape().dilation().1);
        (
            Layer::new(
                format!("{}/core", layer.name()),
                layer.layer_type(),
                shape,
                *layer.precision(),
            ),
            active,
        )
    }

    /// Runs one layer across the cores.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::LayerUnmappable`] if the sub-layer has no
    /// legal mapping on a core.
    pub fn evaluate_layer(&self, layer: &Layer) -> Result<MultiCoreLayerReport, NetworkError> {
        let mut report = self.evaluate(std::slice::from_ref(layer))?;
        Ok(report.layers.remove(0))
    }

    /// Runs a whole network, barrier-synchronized per layer. Each
    /// distinct per-core sub-layer is searched once.
    ///
    /// # Errors
    ///
    /// Propagates the first unmappable layer.
    pub fn evaluate(&self, layers: &[Layer]) -> Result<MultiCoreReport, NetworkError> {
        let (arch, spatial) = (self.factory)(self.per_core_bw());
        let (subs, active): (Vec<Layer>, Vec<u64>) = layers.iter().map(|l| self.split(l)).unzip();
        let opts = self.mapper_opts;
        let mappings = search_distinct(layers, &subs, 1, |sub| {
            Mapper::new(&arch, sub, spatial.clone())
                .with_options(opts)
                .search(Objective::Latency)
                .map(|r| r.best.mapping)
        })?;
        let model = LatencyModel::new();
        let mut reports = Vec::with_capacity(layers.len());
        for (((layer, sub), active), mapping) in layers.iter().zip(&subs).zip(active).zip(mappings)
        {
            let view =
                MappedLayer::new(sub, &arch, &mapping).expect("search returns validated mappings");
            let report = model.evaluate(&view);
            reports.push(MultiCoreLayerReport {
                name: layer.name().to_string(),
                sub_layer: format!("{}", sub.shape().dims()),
                active_cores: active,
                cycles: report.cc_total,
                utilization: report.utilization,
            });
        }
        Ok(MultiCoreReport {
            cores: self.cores,
            partition: self.partition,
            layers: reports,
        })
    }
}

/// Scaling summary: cycles and parallel efficiency at each core count.
pub fn scaling_sweep<F>(
    factory: F,
    core_counts: &[u64],
    partition: Partition,
    total_bw_bits: u64,
    layers: &[Layer],
) -> Result<Vec<(u64, f64, f64)>, NetworkError>
where
    F: Fn(u64) -> (Architecture, SpatialUnroll) + Copy,
{
    let mut out = Vec::new();
    let mut single = None;
    for &n in core_counts {
        let eval = MultiCoreEvaluator::new(
            factory,
            n,
            partition,
            BackingStore::Shared { total_bw_bits },
        );
        let total = eval.evaluate(layers)?.total_cycles();
        let base = *single.get_or_insert(total * n.min(1) as f64);
        let speedup = base / total;
        out.push((n, total, speedup / n as f64));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_workload::Precision;

    fn factory(gb_bw: u64) -> (Architecture, SpatialUnroll) {
        // Clamp: the preset takes a literal bus width.
        let bw = gb_bw.min(1 << 20);
        let chip = presets::scaled_case_study_chip(16, bw);
        (chip.arch, SpatialUnroll::new(chip.spatial))
    }

    fn layer() -> Layer {
        Layer::matmul("l", 256, 128, 256, Precision::int8_acc24())
    }

    #[test]
    fn one_core_matches_single_core_model() {
        let mc = MultiCoreEvaluator::new(
            factory,
            1,
            Partition::Batch,
            BackingStore::Shared { total_bw_bits: 128 },
        );
        let r = mc.evaluate_layer(&layer()).unwrap();
        let (arch, spatial) = factory(128);
        let best = Mapper::new(&arch, &layer(), spatial)
            .with_options(MapperOptions {
                max_exhaustive: 1_000,
                samples: 60,
                ..MapperOptions::default()
            })
            .search(Objective::Latency)
            .unwrap()
            .best;
        assert!((r.cycles - best.latency.cc_total).abs() < 1e-9);
        assert_eq!(r.active_cores, 1);
    }

    #[test]
    fn private_bandwidth_scales_nearly_linearly() {
        let run = |n| {
            MultiCoreEvaluator::new(factory, n, Partition::Batch, BackingStore::Private)
                .evaluate_layer(&layer())
                .unwrap()
                .cycles
        };
        let c1 = run(1);
        let c4 = run(4);
        let speedup = c1 / c4;
        assert!(
            speedup > 3.0,
            "private-BW 4-core speedup should be near 4x, got {speedup:.2}"
        );
    }

    #[test]
    fn shared_bandwidth_throttles_scaling() {
        let run = |n| {
            MultiCoreEvaluator::new(
                factory,
                n,
                Partition::Batch,
                BackingStore::Shared { total_bw_bits: 128 },
            )
            .evaluate_layer(&layer())
            .unwrap()
            .cycles
        };
        let c1 = run(1);
        let c4 = run(4);
        let shared_speedup = c1 / c4;
        let private_speedup = {
            let p1 = MultiCoreEvaluator::new(factory, 1, Partition::Batch, BackingStore::Private)
                .evaluate_layer(&layer())
                .unwrap()
                .cycles;
            let p4 = MultiCoreEvaluator::new(factory, 4, Partition::Batch, BackingStore::Private)
                .evaluate_layer(&layer())
                .unwrap()
                .cycles;
            p1 / p4
        };
        assert!(
            shared_speedup < private_speedup,
            "shared backing store must scale worse: {shared_speedup:.2} vs {private_speedup:.2}"
        );
    }

    #[test]
    fn partition_cannot_exceed_dimension() {
        // K = 8: only 8 cores can have work even if 16 are configured.
        let small = Layer::matmul("s", 64, 8, 64, Precision::int8_acc24());
        let mc = MultiCoreEvaluator::new(
            factory,
            16,
            Partition::OutputChannels,
            BackingStore::Private,
        );
        let r = mc.evaluate_layer(&small).unwrap();
        assert_eq!(r.active_cores, 8);
    }

    #[test]
    fn network_totals_sum_layer_maxima() {
        let layers = vec![
            layer(),
            Layer::matmul("m2", 128, 64, 128, Precision::int8_acc24()),
        ];
        let mc = MultiCoreEvaluator::new(
            factory,
            2,
            Partition::Batch,
            BackingStore::Shared { total_bw_bits: 256 },
        );
        let r = mc.evaluate(&layers).unwrap();
        assert_eq!(r.layers.len(), 2);
        let sum: f64 = r.layers.iter().map(|l| l.cycles).sum();
        assert!((r.total_cycles() - sum).abs() < 1e-9);
        let s = r.to_string();
        assert!(s.contains("m2"), "{s}");
    }

    #[test]
    fn scaling_sweep_reports_efficiency() {
        let layers = vec![layer()];
        let rows = scaling_sweep(factory, &[1, 2, 4], Partition::Batch, 512, &layers).unwrap();
        assert_eq!(rows.len(), 3);
        // Efficiency at 1 core is 1.0 by construction.
        assert!((rows[0].2 - 1.0).abs() < 1e-9);
        // Total cycles never increase with more cores... they may at high
        // contention, but with 512 b/cy shared they should decrease here.
        assert!(rows[2].1 <= rows[0].1);
    }
}
