//! The uniform analytical intra-layer latency model — the paper's core
//! contribution.
//!
//! Given a [`MappedLayer`] (a layer bound to an architecture through a
//! legal mapping), [`LatencyModel::evaluate`] produces a [`LatencyReport`]
//! with the full latency breakdown of Fig. 1:
//!
//! ```text
//! CC_total = preload + CC_spatial + SS_overall + offload
//!          = preload + CC_ideal + spatial stall + temporal stall + offload
//! ```
//!
//! The temporal stall `SS_overall` comes from the 3-step methodology of
//! Section III:
//!
//! 1. **Divide** ([`dtl`]): split shared memories into per-operand unit
//!    memories, decouple each interface into read/write DTLs, and derive
//!    `ReqBW_u` (Table I), the periodic updating window `MUW_u`, and the
//!    per-link stall/slack `SS_u` (Fig. 3).
//! 2. **Combine** ([`stall`]): per shared physical port, combine windows
//!    and stalls with Eq. (1)/(2); per memory module, take the max.
//! 3. **Integrate** ([`StallScratch::combine_and_integrate`]): combine
//!    across memory modules per the architecture's concurrency policy and
//!    clamp at zero.
//!
//! A bandwidth-**unaware** baseline (the idealized model the paper argues
//! against) is available through [`LatencyModel::bw_unaware`]: it keeps
//! phases and spatial effects but forces `SS_overall = 0`.
//!
//! # Example
//!
//! ```
//! use ulm_arch::presets;
//! use ulm_mapping::{LoopStack, Mapping, MappedLayer, SpatialUnroll};
//! use ulm_model::LatencyModel;
//! use ulm_workload::{Dim, Layer, Precision};
//!
//! let chip = presets::toy_chip();
//! let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
//! let mapping = Mapping::with_greedy_alloc(
//!     &chip.arch,
//!     &layer,
//!     SpatialUnroll::new(chip.spatial.clone()),
//!     LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
//! )?;
//! let view = MappedLayer::new(&layer, &chip.arch, &mapping)?;
//! let report = LatencyModel::new().evaluate(&view);
//! assert!(report.cc_total >= report.cc_spatial as f64);
//! # Ok::<(), ulm_mapping::MappingError>(())
//! ```

pub mod batch;
pub mod calibrate;
pub mod classes;
pub mod delta;
pub mod dtl;
pub mod fast;
pub mod lower;
mod phases;
pub mod report;
pub mod roofline;
mod slots;
pub mod stall;
pub mod surrogate;
pub mod whatif;

pub use batch::{BatchKernel, FoldedSpace, LaneEnergy, LaneObjective, LaneOutcome};
pub use calibrate::{
    parse_measurements, CalibrateError, Calibration, CalibrationFit, Calibrator, LayerResidual,
    MeasurementRow, ObservedBusy, PortFit,
};
pub use classes::OrderingClasses;
pub use delta::{InputDelta, RebuildStats, Stage};
pub use dtl::{Dtl, DtlKind, DtlOptions, Endpoint, Endpoints};
pub use fast::{FastLatency, ModelScratch};
pub use lower::{kv_active_interfaces, LevelLowering, LoweredLayer, ResidencyPins, Rows};
pub use report::{BandwidthFix, DtlReport, LatencyReport, MemReport, PortReport, Scenario};
pub use roofline::{interface_traffic, roofline, Roof, Roofline};
pub use stall::{MemStall, PortGroupCore, StallScratch};
pub use surrogate::{MappingShape, SpecializedModel, SurrogateError, SurrogateStats};
pub use whatif::{apply_overrides, KnobError, KnobOverride, KnobValue};

use ulm_mapping::MappedLayer;

/// Tuning options for a [`LatencyModel`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelOptions {
    /// When false, `SS_overall` is forced to zero — the memory-BW-unaware
    /// baseline of Case studies 2 and 3.
    pub bw_aware: bool,
    /// Model the MAC-array-facing links of the innermost levels.
    pub compute_links: bool,
    /// Charge `Z − 1` (not `Z`) periods of inter-memory links to the
    /// computation phase (`DESIGN.md` §5; ablation: `phase_aware_z`).
    pub phase_aware_z: bool,
    /// Never let Eq. (2) beat the port-oversubscription bound
    /// (`DESIGN.md` §5; ablation: `eq2_oversubscription_bound`).
    pub eq2_oversubscription_bound: bool,
}

impl Default for ModelOptions {
    fn default() -> Self {
        Self {
            bw_aware: true,
            compute_links: true,
            phase_aware_z: true,
            eq2_oversubscription_bound: true,
        }
    }
}

/// The analytical latency model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyModel {
    opts: ModelOptions,
}

impl LatencyModel {
    /// The full bandwidth-aware model.
    pub fn new() -> Self {
        Self::default()
    }

    /// A model with explicit options.
    pub fn with_options(opts: ModelOptions) -> Self {
        Self { opts }
    }

    /// The memory-BW-unaware baseline: identical phases and spatial
    /// effects, `SS_overall = 0` by assumption.
    pub fn bw_unaware() -> Self {
        Self::with_options(ModelOptions {
            bw_aware: false,
            ..ModelOptions::default()
        })
    }

    /// The options in effect.
    pub fn options(&self) -> &ModelOptions {
        &self.opts
    }

    /// The Step-1 lowering options implied by the model options.
    pub fn dtl_options(&self) -> DtlOptions {
        DtlOptions {
            compute_links: self.opts.compute_links,
            phase_aware_z: self.opts.phase_aware_z,
        }
    }

    /// Evaluates the mapped layer and returns the full latency report.
    ///
    /// This is report assembly over the very same lowering + stall core
    /// that [`evaluate_fast`](Self::evaluate_fast) runs — the scalars are
    /// bit-identical because they come out of one code path.
    pub fn evaluate(&self, view: &MappedLayer<'_>) -> LatencyReport {
        self.evaluate_lowered(view, &LoweredLayer::build(view, self.dtl_options()))
    }

    /// [`evaluate`](Self::evaluate) over an already-lowered layer, so
    /// several consumers (latency, energy, simulation) can share one
    /// lowering pass. The IR must have been built with this model's
    /// [`dtl_options`](Self::dtl_options).
    pub fn evaluate_lowered(
        &self,
        view: &MappedLayer<'_>,
        lowered: &LoweredLayer,
    ) -> LatencyReport {
        debug_assert_eq!(lowered.options(), self.dtl_options());
        let mut stall = StallScratch::default();
        let fast = self.core(view.arch(), lowered, &mut stall, true);
        self.assemble_report(view, lowered, &stall, fast)
    }

    /// Diagnostic-report assembly on top of the shared core's outputs.
    fn assemble_report(
        &self,
        view: &MappedLayer<'_>,
        lowered: &LoweredLayer,
        stall: &StallScratch,
        fast: FastLatency,
    ) -> LatencyReport {
        let h = view.arch().hierarchy();
        let dtls = lowered.dtls();
        let ss_overall = fast.ss_overall;
        let spatial_stall = lowered.spatial_stall();
        let spatial_utilization = fast.cc_ideal / fast.cc_spatial as f64;
        let temporal_utilization = fast.cc_spatial as f64 / (fast.cc_spatial as f64 + ss_overall);
        let scenario = Scenario::classify(
            spatial_stall < 0.5, // within rounding of fully mapped
            ss_overall == 0.0,
        );

        // Bottleneck: the stalling memory that sets SS_overall.
        let bottleneck = if ss_overall > 0.0 {
            stall
                .memory_stalls()
                .iter()
                .max_by(|a, b| a.ss.total_cmp(&b.ss))
                .map(|m| h.mem(m.mem).name().to_string())
        } else {
            None
        };

        // Diagnostics.
        let dtl_reports: Vec<DtlReport> = dtls
            .iter()
            .map(|d| DtlReport {
                label: d.label(view),
                operand: d.operand,
                kind: d.kind,
                data_bits: d.data_bits,
                period: d.period,
                z: d.z,
                req_bw: d.req_bw,
                real_bw: d.real_bw,
                ss_u: d.ss_u,
            })
            .collect();
        // A group's members are exactly the DTLs with an endpoint on its
        // (memory, port), in ascending DTL order — the same member order
        // the Step-2 grouping visits.
        let port_reports: Vec<PortReport> = stall
            .port_groups()
            .iter()
            .map(|g| PortReport {
                memory: h.mem(g.mem).name().to_string(),
                port: g.port,
                req_bw_comb: g.req_bw_comb,
                real_bw: h.mem(g.mem).ports()[g.port].bw_bits as f64,
                muw_comb: g.muw_comb,
                ss_comb: g.ss_comb,
                min_stall_free_bw: g.min_stall_free_bw,
                dtls: dtls
                    .iter()
                    .filter(|d| {
                        d.endpoints
                            .iter()
                            .any(|ep| ep.mem == g.mem && ep.port == g.port)
                    })
                    .map(|d| d.label(view))
                    .collect(),
            })
            .collect();
        let mem_reports: Vec<MemReport> = stall
            .memory_stalls()
            .iter()
            .map(|m| MemReport {
                memory: h.mem(m.mem).name().to_string(),
                ss: m.ss,
            })
            .collect();

        LatencyReport {
            cc_ideal: fast.cc_ideal,
            cc_spatial: fast.cc_spatial,
            spatial_stall,
            ss_overall,
            preload: fast.preload,
            offload: fast.offload,
            cc_total: fast.cc_total,
            utilization: fast.utilization,
            spatial_utilization,
            temporal_utilization,
            scenario,
            bottleneck,
            dtls: dtl_reports,
            ports: port_reports,
            memories: mem_reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    fn toy_report(stack: &[(Dim, u64)]) -> LatencyReport {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(stack),
        )
        .unwrap();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        LatencyModel::new().evaluate(&view)
    }

    #[test]
    fn totals_compose_and_bound() {
        let r = toy_report(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        assert!(
            (r.cc_total
                - (r.preload as f64 + r.cc_spatial as f64 + r.ss_overall + r.offload as f64))
                .abs()
                < 1e-9
        );
        assert!(r.cc_total >= r.cc_spatial as f64);
        assert!(r.cc_spatial as f64 >= r.cc_ideal);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
    }

    #[test]
    fn toy_stall_matches_hand_computation() {
        // From the dtl tests: the W refill stalls 1 cycle per period over
        // 32 periods; the I refill likewise; they share the LB read port.
        let r = toy_report(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        assert!(r.ss_overall > 0.0, "{r}");
        assert_eq!(r.scenario.number(), 3); // spatially full, stalled
        assert!(r.bottleneck.is_some());
    }

    #[test]
    fn bw_unaware_baseline_hides_stall() {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
        )
        .unwrap();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let aware = LatencyModel::new().evaluate(&view);
        let unaware = LatencyModel::bw_unaware().evaluate(&view);
        assert!(unaware.cc_total < aware.cc_total);
        assert_eq!(unaware.ss_overall, 0.0);
        assert_eq!(unaware.cc_spatial, aware.cc_spatial);
        assert_eq!(unaware.preload, aware.preload);
    }

    #[test]
    fn bandwidth_fixes_identify_and_silence_stalls() {
        // The toy chip's LB read port stalls; the recommended bandwidth
        // must actually remove that stall when applied.
        use ulm_arch::{MacArray, Memory, MemoryHierarchy, MemoryKind, Port};
        use ulm_workload::Operand;

        let build = |lb_read_bw: u64| {
            let mut b = MemoryHierarchy::builder();
            let w_reg = b.add_memory(
                Memory::new("W-Reg", MemoryKind::RegisterFile, 4 * 8)
                    .with_ports(vec![Port::read(4 * 8), Port::write(64)])
                    .with_replication(2),
            );
            let i_reg = b.add_memory(
                Memory::new("I-Reg", MemoryKind::RegisterFile, 4 * 8)
                    .with_ports(vec![Port::read(4 * 8), Port::write(64)])
                    .with_replication(2),
            );
            let o_reg = b.add_memory(
                Memory::new("O-Reg", MemoryKind::RegisterFile, 4 * 24)
                    .with_ports(vec![Port::read(4 * 24), Port::write(4 * 24)]),
            );
            let lb = b.add_memory(
                Memory::new("LB", MemoryKind::Sram, 16 * 8 * 1024)
                    .with_ports(vec![Port::read(lb_read_bw), Port::write(64)])
                    .as_backing_store(),
            );
            b.set_chain(Operand::W, vec![w_reg, lb]);
            b.set_chain(Operand::I, vec![i_reg, lb]);
            b.set_chain(Operand::O, vec![o_reg, lb]);
            ulm_arch::Architecture::new("t", MacArray::new(2, 2, 1), b.build().unwrap())
        };
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let spatial = || SpatialUnroll::new(vec![(Dim::K, 2), (Dim::B, 2)]);
        let stack = || LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);

        let tight = build(16);
        let m = Mapping::with_greedy_alloc(&tight, &layer, spatial(), stack()).unwrap();
        let view = MappedLayer::new(&layer, &tight, &m).unwrap();
        let r = LatencyModel::new().evaluate(&view);
        let fixes = r.bandwidth_fixes();
        assert!(!fixes.is_empty());
        let lb_fix = fixes
            .iter()
            .find(|f| f.port.starts_with("LB p0"))
            .expect("the shared LB read port must be flagged");
        assert!(lb_fix.required_bw > lb_fix.current_bw);

        // Apply the fix: that port must fall silent.
        let fixed = build(lb_fix.required_bw.ceil() as u64);
        let m2 = Mapping::with_greedy_alloc(&fixed, &layer, spatial(), stack()).unwrap();
        let view2 = MappedLayer::new(&layer, &fixed, &m2).unwrap();
        let r2 = LatencyModel::new().evaluate(&view2);
        let lb_port = r2
            .ports
            .iter()
            .find(|p| p.memory == "LB" && p.port == 0)
            .unwrap();
        assert!(
            lb_port.ss_comb <= 1e-6,
            "recommended bandwidth must silence the port, got {}",
            lb_port.ss_comb
        );
        assert!(r2.cc_total <= r.cc_total);
    }

    #[test]
    fn report_diagnostics_are_populated() {
        let r = toy_report(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        assert!(!r.dtls.is_empty());
        assert!(!r.ports.is_empty());
        assert!(!r.memories.is_empty());
    }
}
