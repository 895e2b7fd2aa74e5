//! ZigZag-style analytical energy model.
//!
//! The paper's Case study 1 contrasts a mapping that wins on *energy*
//! (fewer GB accesses) with one that wins on *latency* (less bursty GB
//! traffic); this crate supplies the energy half of that comparison. The
//! model is the standard analytical form (Section I: "count the operations
//! of each hardware component … and multiply these with the corresponding
//! unit energy"):
//!
//! ```text
//! E = Σ_mem (read_bits x e_rd(mem) + write_bits x e_wr(mem)) + MACs x e_mac
//! ```
//!
//! Access counts are *exact*: they use the mapping's distinct-block refill
//! counts (pure reuse across irrelevant loops moves no data), partial-sum
//! round trips are included, and outputs crossing their final interface
//! are counted at the re-quantized width.
//!
//! All counts are read off the shared [`LoweredLayer`] evaluation IR —
//! the same
//! residency tables the latency model and the simulator consume — so the
//! three never disagree about how much data moved. [`EnergyModel::evaluate`]
//! lowers internally; pass an existing IR to
//! [`EnergyModel::evaluate_lowered`] /
//! [`EnergyModel::evaluate_total_lowered`] to skip the re-lowering.
//!
//! # Example
//!
//! ```
//! use ulm_arch::presets;
//! use ulm_energy::EnergyModel;
//! use ulm_mapping::{LoopStack, Mapping, MappedLayer, SpatialUnroll};
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
//! let report = EnergyModel::new().evaluate(&view);
//! assert!(report.total_pj() > 0.0);
//! # Ok::<(), ulm_mapping::MappingError>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;
use ulm_arch::{Memory, MemoryId, MemoryKind};
use ulm_mapping::MappedLayer;
use ulm_model::{interface_traffic, DtlOptions, LoweredLayer};
use ulm_workload::Operand;

/// Unit-energy parameters (femtojoule-denominated, 7 nm-class defaults).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EnergyModel {
    /// Register-file access energy, fJ/bit.
    pub reg_fj_per_bit: f64,
    /// SRAM access energy floor, fJ/bit.
    pub sram_base_fj_per_bit: f64,
    /// SRAM access energy growth with capacity: added fJ/bit per
    /// `sqrt(bits)/1024` (wordline/bitline length scaling).
    pub sram_scale_fj_per_bit: f64,
    /// Energy per INT8 MAC operation, fJ.
    pub mac_fj: f64,
    /// Count the MAC array's register-level accesses (reads of W/I and the
    /// accumulator read-modify-write) in the total.
    pub include_compute_accesses: bool,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            // Small flip-flop register files are far cheaper per bit than
            // large SRAM macros (whose bitline/wordline energy grows with
            // capacity) — the gradient that makes data reuse at low levels
            // pay off.
            reg_fj_per_bit: 5.0,
            sram_base_fj_per_bit: 8.0,
            sram_scale_fj_per_bit: 10.0,
            mac_fj: 50.0,
            include_compute_accesses: true,
        }
    }
}

/// Access totals and energy for one memory module.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MemEnergy {
    /// Memory name.
    pub memory: String,
    /// Total bits read.
    pub read_bits: u64,
    /// Total bits written.
    pub write_bits: u64,
    /// Energy in fJ.
    pub energy_fj: f64,
}

/// The energy breakdown of one mapped layer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EnergyReport {
    /// Per-memory access totals, ordered by memory id.
    pub memories: Vec<MemEnergy>,
    /// MAC compute energy in fJ.
    pub mac_fj: f64,
    /// Grand total in fJ.
    pub total_fj: f64,
}

impl EnergyReport {
    /// Total in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.total_fj / 1000.0
    }

    /// Memory-traffic energy only (no MACs), fJ.
    pub fn memory_fj(&self) -> f64 {
        self.total_fj - self.mac_fj
    }
}

impl fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "energy: {:.1} pJ (MACs {:.1} pJ)",
            self.total_pj(),
            self.mac_fj / 1000.0
        )?;
        for m in &self.memories {
            writeln!(
                f,
                "  {:8} rd {:>12} b  wr {:>12} b  {:>10.1} pJ",
                m.memory,
                m.read_bits,
                m.write_bits,
                m.energy_fj / 1000.0
            )?;
        }
        Ok(())
    }
}

/// Reusable buffers for [`EnergyModel::evaluate_total_fast`].
#[derive(Debug, Default)]
pub struct EnergyScratch {
    /// `(touched, read_bits, write_bits)` per memory id. The `touched`
    /// flag mirrors BTreeMap entry creation in [`EnergyModel::evaluate`]
    /// so the final float sum visits exactly the same memories in the
    /// same (ascending id) order.
    traffic: Vec<(bool, u64, u64)>,
    /// The IR rebuilt by [`EnergyModel::evaluate_total_fast`] when the
    /// caller has no lowering of its own to share.
    lowered: LoweredLayer,
}

impl EnergyModel {
    /// The default 7 nm-class parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access energy of one bit in `mem`, fJ.
    fn fj_per_bit(&self, mem: &Memory) -> f64 {
        match mem.kind() {
            MemoryKind::RegisterFile => self.reg_fj_per_bit,
            MemoryKind::Sram => {
                self.sram_base_fj_per_bit
                    + self.sram_scale_fj_per_bit * (mem.capacity_bits() as f64).sqrt() / 1024.0
            }
        }
    }

    /// Evaluates the mapped layer's energy, lowering the view internally.
    pub fn evaluate(&self, view: &MappedLayer<'_>) -> EnergyReport {
        self.evaluate_lowered(view, &LoweredLayer::build(view, DtlOptions::default()))
    }

    /// [`evaluate`](Self::evaluate) over an already-lowered layer,
    /// sharing the IR with the latency model and simulator.
    pub fn evaluate_lowered(&self, view: &MappedLayer<'_>, lowered: &LoweredLayer) -> EnergyReport {
        let h = view.arch().hierarchy();
        let layer = view.layer();
        // (read_bits, write_bits) per memory.
        let mut traffic: BTreeMap<MemoryId, (u64, u64)> = BTreeMap::new();
        self.accumulate(view, lowered, |mid, rd, wr| {
            let e = traffic.entry(mid).or_insert((0, 0));
            e.0 += rd;
            e.1 += wr;
        });

        let memories: Vec<MemEnergy> = traffic
            .into_iter()
            .map(|(mid, (rd, wr))| {
                let mem = h.mem(mid);
                let e = self.fj_per_bit(mem) * (rd + wr) as f64;
                MemEnergy {
                    memory: mem.name().to_string(),
                    read_bits: rd,
                    write_bits: wr,
                    energy_fj: e,
                }
            })
            .collect();
        let mac_fj = self.mac_fj * layer.total_macs() as f64;
        let total_fj = mac_fj + memories.iter().map(|m| m.energy_fj).sum::<f64>();
        EnergyReport {
            memories,
            mac_fj,
            total_fj,
        }
    }

    /// [`evaluate`](Self::evaluate)`.total_fj` without allocating: the
    /// identical per-interface traffic accumulation into a reusable
    /// id-indexed array, summed over the same memories in the same order
    /// so the result is bit-identical. Used by the mapper's fast path.
    pub fn evaluate_total_fast(&self, view: &MappedLayer<'_>, scratch: &mut EnergyScratch) -> f64 {
        let EnergyScratch { traffic, lowered } = scratch;
        LoweredLayer::build_into(view, DtlOptions::default(), lowered);
        self.total_from(view, lowered, traffic)
    }

    /// [`evaluate_total_fast`](Self::evaluate_total_fast) over an
    /// already-lowered layer: no re-lowering, no allocation in steady
    /// state.
    pub fn evaluate_total_lowered(
        &self,
        view: &MappedLayer<'_>,
        lowered: &LoweredLayer,
        scratch: &mut EnergyScratch,
    ) -> f64 {
        self.total_from(view, lowered, &mut scratch.traffic)
    }

    fn total_from(
        &self,
        view: &MappedLayer<'_>,
        lowered: &LoweredLayer,
        traffic: &mut Vec<(bool, u64, u64)>,
    ) -> f64 {
        let h = view.arch().hierarchy();
        traffic.clear();
        traffic.resize(h.memories().len(), (false, 0, 0));
        self.accumulate(view, lowered, |mid, rd, wr| {
            let e = &mut traffic[mid.0];
            e.0 = true;
            e.1 += rd;
            e.2 += wr;
        });

        let mac_fj = self.mac_fj * view.layer().total_macs() as f64;
        let mut mem_fj = 0.0;
        for (i, &(touched, rd, wr)) in traffic.iter().enumerate() {
            if touched {
                mem_fj += self.fj_per_bit(h.mem(MemoryId(i))) * (rd + wr) as f64;
            }
        }
        mac_fj + mem_fj
    }

    /// The one traffic-counting pass: walks the IR's residency tables and
    /// reports every interface crossing to `add(memory, read_bits,
    /// write_bits)`. Both the report and the fast total are folds over
    /// this sequence, so they cannot drift apart.
    fn accumulate(
        &self,
        view: &MappedLayer<'_>,
        lowered: &LoweredLayer,
        mut add: impl FnMut(MemoryId, u64, u64),
    ) {
        let h = view.arch().hierarchy();
        let layer = view.layer();
        for op in Operand::all() {
            let chain = h.chain(op);
            // Interfaces above a residency pin (KV-cache, fused
            // intermediates) move no data, so they cost no energy.
            for level in 0..lowered.active_interfaces(op) {
                let (lower, upper) = (chain[level], chain[level + 1]);
                let (main, read_back) =
                    interface_traffic(layer.precision(), op, lowered.level(op, level));
                match op {
                    Operand::W | Operand::I => {
                        add(upper, main, 0);
                        add(lower, 0, main);
                    }
                    Operand::O => {
                        // Every visit ends with a drain up…
                        add(lower, main, 0);
                        add(upper, 0, main);
                        // …and every revisit begins with a partial-sum
                        // read-back.
                        add(upper, read_back, 0);
                        add(lower, 0, read_back);
                    }
                }
            }
            // Compute-side accesses at the innermost level.
            if self.include_compute_accesses {
                let innermost = chain[0];
                let total_bits =
                    lowered.words_per_cycle(op) * layer.precision().bits(op) * lowered.cc_spatial();
                match op {
                    Operand::W | Operand::I => add(innermost, total_bits, 0),
                    // Accumulator read-modify-write each cycle.
                    Operand::O => add(innermost, total_bits, total_bits),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    fn toy_view(stack: &[(Dim, u64)]) -> (ulm_arch::presets::PresetChip, Layer, Mapping) {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(stack),
        )
        .unwrap();
        (chip, layer, mapping)
    }

    #[test]
    fn mac_energy_scales_with_ops() {
        let (chip, layer, mapping) = toy_view(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let r = EnergyModel::new().evaluate(&view);
        assert!((r.mac_fj - 50.0 * 128.0).abs() < 1e-9);
        assert!(r.total_fj > r.mac_fj);
    }

    #[test]
    fn toy_lb_traffic_matches_hand_count() {
        let (chip, layer, mapping) = toy_view(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let mut m = EnergyModel::new();
        m.include_compute_accesses = false;
        let r = m.evaluate(&view);
        let lb = r.memories.iter().find(|m| m.memory == "LB").unwrap();
        // W: 2 words x 8b x 32 refills = 512 bits read from LB.
        // I: 2 words x 8b x 32 refills = 512 bits read.
        assert_eq!(lb.read_bits, 1024);
        // O: 4 words x 8b (final) x 4 drains = 128 bits written, no
        // read-backs (fully output-stationary).
        assert_eq!(lb.write_bits, 128);
    }

    #[test]
    fn psum_round_trips_add_energy() {
        // Output stationary: all of C below the top for O.
        let (chip, layer, m1) = toy_view(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let v1 = MappedLayer::new(&layer, &chip.arch, &m1).unwrap();
        // C split: outer C2 above K, psums travel twice.
        let (_, _, m2) = toy_view(&[(Dim::C, 4), (Dim::B, 2), (Dim::K, 2), (Dim::C, 2)]);
        let v2 = MappedLayer::new(&layer, &chip.arch, &m2).unwrap();
        let e = EnergyModel::new();
        let r1 = e.evaluate(&v1);
        let r2 = e.evaluate(&v2);
        assert!(
            r2.memory_fj() > r1.memory_fj(),
            "psum round trips must cost energy: {} vs {}",
            r2.memory_fj(),
            r1.memory_fj()
        );
    }

    #[test]
    fn unit_energy_grows_with_sram_size() {
        let e = EnergyModel::new();
        let small = ulm_arch::Memory::new("s", MemoryKind::Sram, 8 * 1024);
        let big = ulm_arch::Memory::new("b", MemoryKind::Sram, 8 * 1024 * 1024);
        assert!(e.fj_per_bit(&big) > e.fj_per_bit(&small));
    }

    #[test]
    fn fast_total_matches_report_bitwise() {
        let stacks: [&[(Dim, u64)]; 3] = [
            &[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)],
            &[(Dim::B, 2), (Dim::K, 2), (Dim::C, 8)],
            &[(Dim::C, 4), (Dim::B, 2), (Dim::K, 2), (Dim::C, 2)],
        ];
        let mut scratch = EnergyScratch::default();
        for include in [true, false] {
            let mut m = EnergyModel::new();
            m.include_compute_accesses = include;
            for stack in stacks {
                let (chip, layer, mapping) = toy_view(stack);
                let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
                let report = m.evaluate(&view);
                let fast = m.evaluate_total_fast(&view, &mut scratch);
                assert_eq!(report.total_fj.to_bits(), fast.to_bits());
            }
        }
    }

    #[test]
    fn lowered_entry_points_match_internal_lowering() {
        let (chip, layer, mapping) =
            toy_view(&[(Dim::C, 4), (Dim::B, 2), (Dim::K, 2), (Dim::C, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let lowered = LoweredLayer::build(&view, DtlOptions::default());
        let m = EnergyModel::new();
        let report = m.evaluate(&view);
        assert_eq!(m.evaluate_lowered(&view, &lowered), report);
        let mut scratch = EnergyScratch::default();
        let total = m.evaluate_total_lowered(&view, &lowered, &mut scratch);
        assert_eq!(total.to_bits(), report.total_fj.to_bits());
    }

    #[test]
    fn compute_accesses_toggle() {
        let (chip, layer, mapping) = toy_view(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let with = EnergyModel::new().evaluate(&view);
        let mut m = EnergyModel::new();
        m.include_compute_accesses = false;
        let without = m.evaluate(&view);
        assert!(with.total_fj > without.total_fj);
    }
}
