//! The latency report: totals, breakdown, per-DTL / per-port / per-memory
//! diagnostics and the Fig. 1b scenario classification.

use crate::dtl::DtlKind;
use std::fmt;
use ulm_workload::Operand;

/// The four computation-phase scenarios of Fig. 1(b), classified by
/// whether the MAC array is spatially and temporally fully mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Scenario {
    /// Spatially and temporally fully mapped: `CC = CC_ideal`, `U = 100%`.
    FullyMapped,
    /// Temporally full, spatially under-mapped: `CC = CC_spatial`.
    SpatialOnly,
    /// Spatially full, temporally stalled: `CC = CC_ideal + SS_overall`.
    TemporalOnly,
    /// Under-mapped both ways: `CC = CC_spatial + SS_overall`.
    Both,
}

impl Scenario {
    /// Classifies from the two under-utilization indicators.
    pub fn classify(spatial_full: bool, temporal_full: bool) -> Self {
        match (spatial_full, temporal_full) {
            (true, true) => Scenario::FullyMapped,
            (false, true) => Scenario::SpatialOnly,
            (true, false) => Scenario::TemporalOnly,
            (false, false) => Scenario::Both,
        }
    }

    /// The scenario's number in Fig. 1(b) (1–4).
    pub fn number(&self) -> u8 {
        match self {
            Scenario::FullyMapped => 1,
            Scenario::SpatialOnly => 2,
            Scenario::TemporalOnly => 3,
            Scenario::Both => 4,
        }
    }
}

/// Per-DTL diagnostics (Step 1 outputs).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DtlReport {
    /// Human-readable label, e.g. `"W refill @W-Reg"`.
    pub label: String,
    /// The operand.
    pub operand: Operand,
    /// The link kind.
    pub kind: DtlKind,
    /// Bits per period.
    pub data_bits: u64,
    /// `Mem_CC`.
    pub period: u64,
    /// `Z`.
    pub z: u64,
    /// `ReqBW_u`, bits/cycle.
    pub req_bw: f64,
    /// `RealBW`, bits/cycle.
    pub real_bw: f64,
    /// `SS_u`, cycles (stall +, slack −).
    pub ss_u: f64,
}

/// Per-port diagnostics (Step 2 outputs).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PortReport {
    /// Memory name.
    pub memory: String,
    /// Port index within the memory.
    pub port: usize,
    /// `ReqBW_comb`, bits/cycle.
    pub req_bw_comb: f64,
    /// Physical port bandwidth, bits/cycle.
    pub real_bw: f64,
    /// `MUW_comb` measure, cycles.
    pub muw_comb: f64,
    /// `SS_comb`, cycles.
    pub ss_comb: f64,
    /// Minimum bandwidth (bits/cycle) that would make the port stall-free.
    pub min_stall_free_bw: f64,
    /// Labels of the DTLs sharing the port.
    pub dtls: Vec<String>,
}

/// Per-memory stall (input to Step 3).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MemReport {
    /// Memory name.
    pub memory: String,
    /// The memory's stall (max over its ports), cycles.
    pub ss: f64,
}

/// The complete result of a latency evaluation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LatencyReport {
    /// `CC_ideal` (may be fractional).
    pub cc_ideal: f64,
    /// `CC_spatial` (temporal iteration count).
    pub cc_spatial: u64,
    /// Spatial stall: `CC_spatial − CC_ideal`.
    pub spatial_stall: f64,
    /// `SS_overall` after the clamp at zero.
    pub ss_overall: f64,
    /// Pre-loading cycles.
    pub preload: u64,
    /// Off-loading cycles.
    pub offload: u64,
    /// Total latency: `preload + CC_spatial + SS_overall + offload`.
    pub cc_total: f64,
    /// Overall MAC-array utilization `CC_ideal / CC_total`.
    pub utilization: f64,
    /// Spatial utilization `CC_ideal / CC_spatial`.
    pub spatial_utilization: f64,
    /// Temporal utilization `CC_spatial / (CC_spatial + SS_overall)`.
    pub temporal_utilization: f64,
    /// Fig. 1b scenario.
    pub scenario: Scenario,
    /// Name of the memory bounding `SS_overall`, when stalled.
    pub bottleneck: Option<String>,
    /// Step-1 diagnostics.
    pub dtls: Vec<DtlReport>,
    /// Step-2 diagnostics.
    pub ports: Vec<PortReport>,
    /// Step-2/3 per-memory stalls.
    pub memories: Vec<MemReport>,
}

/// One actionable bandwidth fix (Section V-A: match `ReqBW` to `RealBW`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BandwidthFix {
    /// The stalling memory and port.
    pub port: String,
    /// Its current bandwidth, bits/cycle.
    pub current_bw: f64,
    /// The minimum stall-free bandwidth, bits/cycle.
    pub required_bw: f64,
    /// The stall the port contributes, cycles.
    pub stall: f64,
}

impl LatencyReport {
    /// The paper's co-design guidance: for every stalling port, the
    /// bandwidth upgrade that would silence it, ordered by stall size.
    /// (The alternative fix — reducing the frequent access of the low-BW
    /// link by re-mapping — is what the mapper search explores.)
    pub fn bandwidth_fixes(&self) -> Vec<BandwidthFix> {
        let mut fixes: Vec<BandwidthFix> = self
            .ports
            .iter()
            .filter(|p| p.ss_comb > 0.0)
            .map(|p| BandwidthFix {
                port: format!("{} p{}", p.memory, p.port),
                current_bw: p.real_bw,
                required_bw: p.min_stall_free_bw,
                stall: p.ss_comb,
            })
            .collect();
        fixes.sort_by(|a, b| b.stall.total_cmp(&a.stall));
        fixes
    }

    /// Computation-phase latency (no load/offload): `CC_spatial +
    /// SS_overall`.
    pub fn cc_compute(&self) -> f64 {
        self.cc_spatial as f64 + self.ss_overall
    }
}

impl fmt::Display for LatencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "latency: {:.0} cycles (scenario {})",
            self.cc_total,
            self.scenario.number()
        )?;
        writeln!(
            f,
            "  preload {} | ideal {:.0} | spatial stall {:.0} | temporal stall {:.0} | offload {}",
            self.preload, self.cc_ideal, self.spatial_stall, self.ss_overall, self.offload
        )?;
        writeln!(
            f,
            "  utilization {:.1}% (spatial {:.1}%, temporal {:.1}%)",
            self.utilization * 100.0,
            self.spatial_utilization * 100.0,
            self.temporal_utilization * 100.0
        )?;
        if let Some(b) = &self.bottleneck {
            writeln!(f, "  bottleneck: {b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_classification_matrix() {
        assert_eq!(Scenario::classify(true, true), Scenario::FullyMapped);
        assert_eq!(Scenario::classify(false, true), Scenario::SpatialOnly);
        assert_eq!(Scenario::classify(true, false), Scenario::TemporalOnly);
        assert_eq!(Scenario::classify(false, false), Scenario::Both);
        assert_eq!(Scenario::FullyMapped.number(), 1);
        assert_eq!(Scenario::Both.number(), 4);
    }

    #[test]
    fn display_contains_breakdown() {
        let r = LatencyReport {
            cc_ideal: 100.0,
            cc_spatial: 120,
            spatial_stall: 20.0,
            ss_overall: 30.0,
            preload: 5,
            offload: 7,
            cc_total: 162.0,
            utilization: 100.0 / 162.0,
            spatial_utilization: 100.0 / 120.0,
            temporal_utilization: 120.0 / 150.0,
            scenario: Scenario::Both,
            bottleneck: Some("GB".into()),
            dtls: vec![],
            ports: vec![],
            memories: vec![],
        };
        let s = r.to_string();
        assert!(s.contains("162"), "{s}");
        assert!(s.contains("GB"), "{s}");
        assert!((r.cc_compute() - 150.0).abs() < 1e-12);
    }
}
