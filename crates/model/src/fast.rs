//! Allocation-free scalar evaluation for mapping search.
//!
//! Both [`LatencyModel::evaluate`] and [`LatencyModel::evaluate_fast`]
//! run the **same** core: lower the view into the [`LoweredLayer`] IR
//! (Step 1), combine-and-
//! integrate the stall pipeline over its DTLs (Steps 2–3), and compose
//! the phase totals with [`FastLatency::compose`]. `evaluate` then
//! assembles the human-readable diagnostic report on top; `evaluate_fast`
//! stops at the scalars, reusing a [`ModelScratch`] so the steady-state
//! path performs zero heap allocations. The numbers are bit-identical by
//! construction — they come out of one code path, not two kept in sync.

use crate::delta::{InputDelta, RebuildStats};
use crate::lower::LoweredLayer;
use crate::stall::StallScratch;
use crate::LatencyModel;
use ulm_arch::Architecture;
use ulm_mapping::MappedLayer;

/// Reusable buffers for [`LatencyModel::evaluate_fast`]: the lowered IR
/// plus the Step-2/3 stall pipeline buffers.
#[derive(Debug, Default)]
pub struct ModelScratch {
    lowered: LoweredLayer,
    stall: StallScratch,
}

impl ModelScratch {
    /// The IR produced by the most recent evaluation through this
    /// scratch. Other consumers (energy, sim) can read the same lowering
    /// instead of re-deriving it.
    pub fn lowered(&self) -> &LoweredLayer {
        &self.lowered
    }
}

/// The scalar subset of a latency report, produced without allocating.
///
/// Every field is bit-identical to the corresponding
/// [`LatencyReport`](crate::LatencyReport) field from
/// [`LatencyModel::evaluate`] on the same view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastLatency {
    /// `CC_ideal` (may be fractional).
    pub cc_ideal: f64,
    /// `CC_spatial`: the temporal iteration count.
    pub cc_spatial: u64,
    /// `SS_overall` after the zero clamp (0 for bw-unaware models).
    pub ss_overall: f64,
    /// Pre-load phase cycles.
    pub preload: u64,
    /// Off-load phase cycles.
    pub offload: u64,
    /// End-to-end latency in cycles.
    pub cc_total: f64,
    /// `CC_ideal / CC_total`.
    pub utilization: f64,
}

impl FastLatency {
    /// The one place the latency composition
    /// `CC_total = preload + CC_spatial + SS_overall + offload` (and the
    /// derived utilization) is written down. Every evaluation path —
    /// slow, fast, and the mapper's pruning floor — goes through here, so
    /// their floats agree bit for bit.
    pub fn compose(
        preload: u64,
        offload: u64,
        cc_ideal: f64,
        cc_spatial: u64,
        ss_overall: f64,
    ) -> Self {
        let cc_total = preload as f64 + cc_spatial as f64 + ss_overall + offload as f64;
        let utilization = cc_ideal / cc_total;
        FastLatency {
            cc_ideal,
            cc_spatial,
            ss_overall,
            preload,
            offload,
            cc_total,
            utilization,
        }
    }
}

impl LatencyModel {
    /// Evaluates the mapped layer to scalar totals only, reusing
    /// `scratch` buffers so the steady-state path allocates nothing.
    ///
    /// Returns the same numbers (bit for bit) as
    /// [`evaluate`](Self::evaluate); only the diagnostic report layer is
    /// skipped.
    pub fn evaluate_fast(&self, view: &MappedLayer<'_>, scratch: &mut ModelScratch) -> FastLatency {
        LoweredLayer::build_into(view, self.dtl_options(), &mut scratch.lowered);
        self.core(view.arch(), &scratch.lowered, &mut scratch.stall, false)
    }

    /// Incremental [`evaluate_fast`](Self::evaluate_fast): rebuilds
    /// only the IR stages invalidated by `delta` and, when only
    /// bandwidths moved, reuses the cached per-port window unions from
    /// the scratch's previous Step 2. Bit-identical to a from-scratch
    /// `evaluate_fast` on the same view — the reused pieces are exactly
    /// the ones the changed inputs cannot reach.
    ///
    /// `scratch` must hold the previous evaluation of the *same* layer
    /// and mapping (a fresh scratch degrades gracefully to a full
    /// rebuild); `delta` describes what changed since then — typically
    /// [`InputDelta::between`] the two architectures.
    pub fn evaluate_delta_fast(
        &self,
        view: &MappedLayer<'_>,
        delta: InputDelta,
        scratch: &mut ModelScratch,
    ) -> (FastLatency, RebuildStats) {
        let ModelScratch { lowered, stall } = scratch;
        let stats = lowered.rebuild_dirty(view, self.dtl_options(), delta);
        let opts = self.options();
        let ss_overall = if opts.bw_aware {
            let recombined = if stats.was_full_rebuild() {
                None
            } else {
                stall.recombine_and_integrate(
                    view.arch(),
                    lowered.dtls(),
                    opts.eq2_oversubscription_bound,
                )
            };
            let raw = match recombined {
                Some(v) => v,
                None => stall.combine_and_integrate(
                    view.arch(),
                    lowered.dtls(),
                    opts.union,
                    opts.eq2_oversubscription_bound,
                ),
            };
            raw.max(0.0)
        } else {
            0.0
        };
        (lowered.totals(ss_overall), stats)
    }

    /// Steps 2–3 and the phase composition — THE shared core.
    ///
    /// `force_combine` runs the port analysis even for bandwidth-unaware
    /// models so the report path can surface port/memory diagnostics;
    /// `ss_overall` is still forced to zero in that case, exactly as the
    /// unaware model defines it.
    pub(crate) fn core(
        &self,
        arch: &Architecture,
        lowered: &LoweredLayer,
        stall: &mut StallScratch,
        force_combine: bool,
    ) -> FastLatency {
        let opts = self.options();
        let ss_overall = if opts.bw_aware || force_combine {
            let raw = stall.combine_and_integrate(
                arch,
                lowered.dtls(),
                opts.union,
                opts.eq2_oversubscription_bound,
            );
            if opts.bw_aware {
                raw.max(0.0)
            } else {
                0.0
            }
        } else {
            0.0
        };
        lowered.totals(ss_overall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    fn views() -> Vec<(ulm_arch::Architecture, Layer, Mapping)> {
        let mut out = Vec::new();
        let toy = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        for stack in [
            vec![(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)],
            vec![(Dim::B, 2), (Dim::K, 2), (Dim::C, 8)],
            vec![(Dim::C, 4), (Dim::B, 2), (Dim::K, 2), (Dim::C, 2)],
        ] {
            let mapping = Mapping::with_greedy_alloc(
                &toy.arch,
                &layer,
                SpatialUnroll::new(toy.spatial.clone()),
                LoopStack::from_pairs(&stack),
            )
            .unwrap();
            out.push((toy.arch.clone(), layer.clone(), mapping));
        }
        let cs = presets::case_study_chip(128);
        let big = Layer::matmul("big", 64, 96, 640, Precision::int8_out24());
        let mapping = Mapping::with_greedy_alloc(
            &cs,
            &big,
            SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]),
            LoopStack::from_pairs(&[(Dim::C, 320), (Dim::B, 8), (Dim::K, 6)]),
        )
        .unwrap();
        out.push((cs, big, mapping));
        out
    }

    /// Greedy-allocated mappings of two matmuls (one re-quantizing final
    /// outputs, one not) on every matmul-capable preset, with and without
    /// KV-cache resident weights. Each temporal
    /// bound is split in two (smallest factor first) and the pieces are
    /// interleaved in several orders, so upper levels see partial sums,
    /// revisits and irrelevant runs.
    fn preset_views() -> Vec<(ulm_arch::Architecture, Layer, Mapping)> {
        let orders = [
            [Dim::C, Dim::B, Dim::K, Dim::C, Dim::B, Dim::K],
            [Dim::B, Dim::K, Dim::C, Dim::B, Dim::K, Dim::C],
            [Dim::K, Dim::C, Dim::B, Dim::K, Dim::C, Dim::B],
            [Dim::C, Dim::C, Dim::B, Dim::B, Dim::K, Dim::K],
            [Dim::B, Dim::B, Dim::K, Dim::K, Dim::C, Dim::C],
        ];
        let mut out = Vec::new();
        for chip in [
            presets::toy_chip(),
            presets::validation_chip(),
            presets::scaled_case_study_chip(16, 128),
            presets::tpu_like_chip(16),
            presets::fusion_chip(),
        ] {
            let spatial = SpatialUnroll::new(chip.spatial.clone());
            for ((b, k, c, precision), kv) in [
                (32, 48, 96, Precision::int8_out24()),
                (256, 256, 1024, Precision::int8_acc24()),
            ]
            .into_iter()
            .flat_map(|case| [(case, false), (case, true)])
            {
                let mut layer = Layer::matmul("mm", b, k, c, precision);
                if kv {
                    layer = layer.with_kv_cache(ulm_workload::Operand::W);
                }
                for order in &orders {
                    // The first piece of a dim is its smallest factor, the
                    // second the rest.
                    let mut seen = [false; 7];
                    let stack: Vec<(Dim, u64)> = order
                        .iter()
                        .map(|&d| {
                            let bound = layer.shape().dim(d).div_ceil(spatial.extent(d));
                            let low = (2..=bound).find(|&f| bound.is_multiple_of(f)).unwrap_or(1);
                            let second = std::mem::replace(&mut seen[d.index()], true);
                            (d, if second { bound / low } else { low })
                        })
                        .filter(|&(_, s)| s > 1)
                        .collect();
                    let stack = LoopStack::from_pairs(&stack);
                    let Ok(mapping) =
                        Mapping::with_greedy_alloc(&chip.arch, &layer, spatial.clone(), stack)
                    else {
                        continue;
                    };
                    if MappedLayer::new(&layer, &chip.arch, &mapping).is_ok() {
                        out.push((chip.arch.clone(), layer.clone(), mapping));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn fast_matches_full_bitwise() {
        let mut scratch = ModelScratch::default();
        for model in [LatencyModel::new(), LatencyModel::bw_unaware()] {
            for (arch, layer, mapping) in views() {
                let view = MappedLayer::new(&layer, &arch, &mapping).unwrap();
                let full = model.evaluate(&view);
                let fast = model.evaluate_fast(&view, &mut scratch);
                assert_eq!(full.cc_total.to_bits(), fast.cc_total.to_bits());
                assert_eq!(full.ss_overall.to_bits(), fast.ss_overall.to_bits());
                assert_eq!(full.utilization.to_bits(), fast.utilization.to_bits());
                assert_eq!(full.preload, fast.preload);
                assert_eq!(full.offload, fast.offload);
                assert_eq!(full.cc_spatial, fast.cc_spatial);
            }
        }
    }

    #[test]
    fn lowered_fast_matches_fast() {
        let model = LatencyModel::new();
        let mut scratch = ModelScratch::default();
        for (arch, layer, mapping) in views() {
            let view = MappedLayer::new(&layer, &arch, &mapping).unwrap();
            let fast = model.evaluate_fast(&view, &mut scratch);
            let lowered = LoweredLayer::build(&view, model.dtl_options());
            let mut stall = StallScratch::default();
            let via_ir = model.core(&arch, &lowered, &mut stall, false);
            assert_eq!(fast.cc_total.to_bits(), via_ir.cc_total.to_bits());
            assert_eq!(fast.ss_overall.to_bits(), via_ir.ss_overall.to_bits());
        }
    }

    #[test]
    fn delta_fast_matches_cold_eval_on_knob_neighbors() {
        use crate::whatif::apply_overrides;
        for model in [LatencyModel::new(), LatencyModel::bw_unaware()] {
            let mut scratch = ModelScratch::default();
            for (arch, layer, mapping) in views() {
                let overrides: Vec<String> = arch
                    .hierarchy()
                    .memories()
                    .iter()
                    .flat_map(|m| {
                        ["bw=2x", "bw=0.5x", "size=2x", "read_bw=3x"]
                            .iter()
                            .map(|s| format!("mem.{}.{}", m.name(), s))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                for over in overrides {
                    // Establish the base lowering in the scratch.
                    let view = MappedLayer::new(&layer, &arch, &mapping).unwrap();
                    model.evaluate_fast(&view, &mut scratch);
                    let Ok((modified, delta)) = apply_overrides(&arch, &[over.as_str()]) else {
                        continue; // e.g. read_bw on a write-only memory
                    };
                    let mview = MappedLayer::new(&layer, &modified, &mapping).unwrap();
                    let (fast, stats) = model.evaluate_delta_fast(&mview, delta, &mut scratch);
                    let mut cold_scratch = ModelScratch::default();
                    let cold = model.evaluate_fast(&mview, &mut cold_scratch);
                    assert_eq!(
                        cold.cc_total.to_bits(),
                        fast.cc_total.to_bits(),
                        "{over}: delta vs cold diverged"
                    );
                    assert_eq!(cold.ss_overall.to_bits(), fast.ss_overall.to_bits());
                    assert_eq!(cold.utilization.to_bits(), fast.utilization.to_bits());
                    assert_eq!(cold.preload, fast.preload);
                    assert_eq!(cold.offload, fast.offload);
                    // Knob deltas never force a full rebuild.
                    assert!(
                        !stats.was_full_rebuild(),
                        "{over}: knob delta rebuilt everything"
                    );
                    if over.contains("size") {
                        assert_eq!(stats.stages_rebuilt, 0, "{over}: capacity is eval-free");
                    }
                    // The retained diagnostics must match a cold Step 2.
                    if model.options().bw_aware {
                        assert_eq!(
                            scratch.stall.port_groups(),
                            cold_scratch.stall.port_groups()
                        );
                        assert_eq!(
                            scratch.stall.memory_stalls(),
                            cold_scratch.stall.memory_stalls()
                        );
                    }
                }
            }
        }
    }

    /// The latency kernel's pruning bounds read the lowering's own phase
    /// and traffic bodies, so they equal the lowered IR's numbers bit for
    /// bit: the phase floor is the IR's stall-free total, and the roofline
    /// is the max over the IR's rows of the shared traffic over the link
    /// bandwidth its DTLs carry.
    #[test]
    fn phase_floor_and_roofline_read_the_lowered_rows() {
        use crate::batch::latency_lane_bounds;
        use crate::{interface_traffic, DtlKind};
        use ulm_workload::Operand;
        let model = LatencyModel::new();
        let presets = preset_views();
        assert!(presets.len() >= 50, "only {} preset views", presets.len());
        let (mut kv, mut upper_partials) = (0, 0);
        for (arch, layer, mapping) in views().into_iter().chain(presets) {
            let view = MappedLayer::new(&layer, &arch, &mapping).unwrap();
            let lw = LoweredLayer::build(&view, model.dtl_options());
            kv += usize::from(lw.active_interfaces(Operand::W) + 1 < lw.levels(Operand::W).len());
            upper_partials += (1..lw.active_interfaces(Operand::O))
                .filter(|&level| !lw.level(Operand::O, level).final_above)
                .count();
            let (floor, roof, _) = latency_lane_bounds(&arch, &layer, &mapping, model);
            assert_eq!(
                floor.to_bits(),
                lw.totals(0.0).cc_total.to_bits(),
                "{}",
                layer.name()
            );
            let mut bound = lw.cc_ideal();
            for op in Operand::all() {
                for level in 0..lw.active_interfaces(op) {
                    let (main, read_back) =
                        interface_traffic(layer.precision(), op, lw.level(op, level));
                    let link = lw
                        .dtls()
                        .iter()
                        .find(|d| {
                            d.operand == op
                                && d.level == level
                                && matches!(d.kind, DtlKind::RefillDown | DtlKind::DrainUp)
                        })
                        .expect("every active interface has a refill or drain link");
                    bound = bound.max((main + read_back) as f64 / link.real_bw);
                }
            }
            assert_eq!(roof.to_bits(), bound.to_bits());
        }
        // The set reaches the rows where lane and IR could part: an
        // elided top interface and partial sums above the innermost level.
        assert!(
            kv > 0 && upper_partials > 0,
            "kv {kv}, upper partials {upper_partials}"
        );
    }

    #[test]
    fn phase_floor_lower_bounds_total() {
        use crate::batch::latency_lane_bounds;
        let model = LatencyModel::new();
        let mut scratch = ModelScratch::default();
        for (arch, layer, mapping) in views().into_iter().chain(preset_views()) {
            let view = MappedLayer::new(&layer, &arch, &mapping).unwrap();
            let (floor, _, latency) = latency_lane_bounds(&arch, &layer, &mapping, model);
            let fast = model.evaluate_fast(&view, &mut scratch);
            assert!(floor <= fast.cc_total, "{floor} > {}", fast.cc_total);
            assert!(floor <= latency, "{floor} > {latency}");
        }
    }
}
