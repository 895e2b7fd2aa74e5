//! Roofline analysis: the classic first-order bound the paper's Section II
//! calls the "performance roofline", as a companion to the detailed stall
//! model.
//!
//! For a mapped layer, each memory interface imposes a bandwidth roof:
//! the layer cannot finish faster than `traffic / bandwidth` cycles end
//! to end (first fills included, so compare against the model's
//! *end-to-end* `cc_total`). The roofline latency is the max over the
//! compute roof (`CC_ideal`) and every interface roof; comparing it with
//! the full model separates *fundamental* bandwidth limits (visible on
//! the roofline) from *schedule-induced* stalls (burstiness, keep-out
//! windows, port sharing) that only the 3-step model captures.
//!
//! The traffic of one interface is written once, in [`interface_traffic`]:
//! the roofline reads it off a view, the batched kernel's bound off its
//! lane rows, and `ulm-energy` off any [`Rows`] source.

use crate::dtl::crossing_bits;
use crate::lower::{LevelLowering, Rows, ViewRows};
use crate::slots::{ArchSlots, LiveSlots};
use ulm_mapping::MappedLayer;
use ulm_workload::{Operand, Precision};

/// One bandwidth roof.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Roof {
    /// The interface, e.g. `"I: GB->I-LB"`.
    pub interface: String,
    /// Total bits crossing it over the layer.
    pub traffic_bits: u64,
    /// The link bandwidth, bits/cycle.
    pub bw_bits: u64,
    /// The implied minimum cycles: `traffic / bw`.
    pub min_cycles: f64,
}

/// The roofline summary of one mapped layer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Roofline {
    /// The compute roof (`CC_ideal`).
    pub compute_cycles: f64,
    /// Every memory-interface roof.
    pub roofs: Vec<Roof>,
}

impl Roofline {
    /// The binding roof: the largest lower bound on latency.
    pub fn bound_cycles(&self) -> f64 {
        self.roofs
            .iter()
            .map(|r| r.min_cycles)
            .fold(self.compute_cycles, f64::max)
    }

    /// True when a memory interface (not compute) binds the layer.
    pub fn memory_bound(&self) -> bool {
        self.bound_cycles() > self.compute_cycles
    }

    /// The binding interface's name, or `"compute"`.
    pub fn bottleneck(&self) -> &str {
        self.roofs
            .iter()
            .filter(|r| r.min_cycles > self.compute_cycles)
            .max_by(|a, b| a.min_cycles.total_cmp(&b.min_cycles))
            .map(|r| r.interface.as_str())
            .unwrap_or("compute")
    }
}

/// Bits crossing the interface above one `(op, level)` row over the whole
/// layer, as `(main, read_back)`. `main` is the refill (W/I:
/// `words × bits × refills`) or drain (O: every visit ends with a drain
/// at the crossing precision) traffic; `read_back` is the O partial-sum
/// return (one block at partial precision per revisit), 0 for W/I.
pub fn interface_traffic(precision: &Precision, op: Operand, row: &LevelLowering) -> (u64, u64) {
    let main = row.words * crossing_bits(precision, op, row.final_above) * row.refills;
    let read_back = match op {
        Operand::W | Operand::I => 0,
        Operand::O => row.words * precision.partial_sum_bits() * (row.refills - row.distinct_above),
    };
    (main, read_back)
}

/// Computes the roofline of a mapped layer from its exact interface
/// traffic (distinct-block refill counts; psum round trips included).
/// KV-cache resident operands never cross their top interface, so it
/// imposes no roof.
pub fn roofline(view: &MappedLayer<'_>) -> Roofline {
    let h = view.arch().hierarchy();
    let rows = ViewRows(view);
    let slots = LiveSlots::new(h);
    let precision = view.layer().precision();
    let mut roofs = Vec::new();
    for op in Operand::all() {
        let chain = h.chain(op);
        for level in 0..rows.active(op) {
            let (main, read_back) = interface_traffic(precision, op, &rows.row(op, level));
            let (traffic_bits, bw_bits) = (main + read_back, slots.interface(op, level).bw_bits);
            let (lower, upper) = (chain[level], chain[level + 1]);
            roofs.push(Roof {
                interface: format!("{op}: {}<->{}", h.mem(upper).name(), h.mem(lower).name()),
                traffic_bits,
                bw_bits,
                min_cycles: traffic_bits as f64 / bw_bits as f64,
            });
        }
    }
    Roofline {
        compute_cycles: view.cc_ideal(),
        roofs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyModel;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    fn case(b: u64, k: u64, c: u64, gb_bw: u64) -> (f64, Roofline, f64) {
        let arch = presets::case_study_chip(gb_bw);
        let layer = Layer::matmul("r", b, k, c, Precision::int8_out24());
        let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
        let stack = LoopStack::from_pairs(&[(Dim::C, c / 2), (Dim::B, b / 8), (Dim::K, k / 16)]);
        let mapping = Mapping::with_greedy_alloc(&arch, &layer, spatial, stack).unwrap();
        let view = MappedLayer::new(&layer, &arch, &mapping).unwrap();
        let rl = roofline(&view);
        let full = LatencyModel::new().evaluate(&view);
        (view.cc_ideal(), rl, full.cc_total)
    }

    #[test]
    fn roofline_lower_bounds_the_full_model() {
        // The detailed model includes burstiness the roofline cannot see,
        // so its end-to-end latency must be at least every roof.
        for (b, k, c) in [(64, 96, 640), (128, 128, 8), (64, 64, 512)] {
            let (_, rl, full) = case(b, k, c, 128);
            assert!(
                full + 1e-6 >= rl.bound_cycles(),
                "({b},{k},{c}): full {full} < roofline {}",
                rl.bound_cycles()
            );
        }
    }

    #[test]
    fn compute_bound_when_bandwidth_is_ample() {
        let (ideal, rl, _) = case(64, 64, 512, 4096);
        assert!(!rl.memory_bound(), "bottleneck: {}", rl.bottleneck());
        assert!((rl.bound_cycles() - ideal).abs() < 1e-9);
        assert_eq!(rl.bottleneck(), "compute");
    }

    #[test]
    fn output_dominant_layer_is_gb_bound_at_low_bw() {
        // (128,128,8): 24-bit outputs through a 128 b/cy GB dominate.
        let (_, rl, _) = case(128, 128, 8, 128);
        assert!(rl.memory_bound());
        assert!(
            rl.bottleneck().starts_with("O: GB"),
            "bottleneck: {}",
            rl.bottleneck()
        );
    }

    #[test]
    fn traffic_matches_tensor_sizes_at_minimum() {
        // With full reuse, W traffic through the GB interface is at least
        // the W tensor.
        let arch = presets::case_study_chip(128);
        let layer = Layer::matmul("t", 64, 96, 640, Precision::int8_out24());
        let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
        let stack = LoopStack::from_pairs(&[(Dim::C, 320), (Dim::B, 8), (Dim::K, 6)]);
        let mapping = Mapping::with_greedy_alloc(&arch, &layer, spatial, stack).unwrap();
        let view = MappedLayer::new(&layer, &arch, &mapping).unwrap();
        let rl = roofline(&view);
        let w_gb = rl
            .roofs
            .iter()
            .find(|r| r.interface.starts_with("W: GB"))
            .unwrap();
        assert!(w_gb.traffic_bits >= layer.tensor_bits(ulm_workload::Operand::W));
    }
}
