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
//! All counts are read off residency rows ([`Rows`]) by one body: the
//! shared [`LoweredLayer`] evaluation IR — the same residency tables the
//! latency model and the simulator consume — for a report, and a lane of
//! the mapper's batched ordering search ([`EnergyModel::lane_energy`])
//! for a search score, so they never disagree about how much data moved.
//! [`EnergyModel::evaluate`] lowers internally; pass an existing IR to
//! [`EnergyModel::evaluate_lowered`] to skip the re-lowering.
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

use std::fmt;
use ulm_arch::{Architecture, Memory, MemoryHierarchy, MemoryId, MemoryKind};
use ulm_mapping::MappedLayer;
use ulm_model::{interface_traffic, DtlOptions, LaneEnergy, LoweredLayer, Rows};
use ulm_workload::{Layer, Operand};

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
        let mut traffic = Vec::new();
        let total_fj = self.total_fj(h, layer, lowered, lowered.cc_spatial(), &mut traffic);
        let memories: Vec<MemEnergy> = traffic
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                let (rd, wr) = (*t)?;
                let mem = h.mem(MemoryId(i));
                Some(MemEnergy {
                    memory: mem.name().to_string(),
                    read_bits: rd,
                    write_bits: wr,
                    energy_fj: self.fj_per_bit(mem) * (rd + wr) as f64,
                })
            })
            .collect();
        EnergyReport {
            memories,
            mac_fj: self.mac_fj * layer.total_macs() as f64,
            total_fj,
        }
    }

    /// The energy scorer of the mapper's batched ordering search: prices
    /// a lane's rows through the same body as
    /// [`evaluate_lowered`](Self::evaluate_lowered), so a lane's score is
    /// bit-identical to the report's `total_fj` for that ordering.
    pub fn lane_energy<'a>(self, arch: &'a Architecture, layer: &'a Layer) -> LaneEnergy<'a> {
        let mut traffic = Vec::new();
        Box::new(move |rows: &dyn Rows, cc_spatial: u64| {
            self.total_fj(arch.hierarchy(), layer, rows, cc_spatial, &mut traffic)
        })
    }

    /// The one energy body, over any row source: walks the residency
    /// rows, adds every interface crossing to its two memories'
    /// `(read_bits, write_bits)` in `traffic` (indexed by memory id,
    /// `None` if untouched), then returns MACs plus each touched memory's
    /// `(read + write) bits × fJ/bit`, summed in ascending memory id, fJ.
    fn total_fj<R: Rows + ?Sized>(
        &self,
        h: &MemoryHierarchy,
        layer: &Layer,
        rows: &R,
        cc_spatial: u64,
        traffic: &mut Vec<Option<(u64, u64)>>,
    ) -> f64 {
        traffic.clear();
        traffic.resize(h.memories().len(), None);
        let mut add = |mid: MemoryId, rd: u64, wr: u64| {
            let e = traffic[mid.0].get_or_insert((0, 0));
            e.0 += rd;
            e.1 += wr;
        };
        for op in Operand::all() {
            let chain = h.chain(op);
            // Interfaces above a residency pin (KV-cache, fused
            // intermediates) move no data, so they cost no energy.
            for level in 0..rows.active(op) {
                let (lower, upper) = (chain[level], chain[level + 1]);
                let (main, read_back) =
                    interface_traffic(layer.precision(), op, &rows.row(op, level));
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
                let total_bits = rows.feed(op) * layer.precision().bits(op) * cc_spatial;
                match op {
                    Operand::W | Operand::I => add(innermost, total_bits, 0),
                    // Accumulator read-modify-write each cycle.
                    Operand::O => add(innermost, total_bits, total_bits),
                }
            }
        }
        let mut mem_fj = 0.0;
        for (i, t) in traffic.iter().enumerate() {
            if let Some((rd, wr)) = t {
                mem_fj += self.fj_per_bit(h.mem(MemoryId(i))) * (rd + wr) as f64;
            }
        }
        self.mac_fj * layer.total_macs() as f64 + mem_fj
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

    /// The search's lane scorer and the report share one body: over the
    /// lowered IR read as rows, the scorer returns the report's total bit
    /// for bit.
    #[test]
    fn fast_total_matches_report_bitwise() {
        let stacks: [&[(Dim, u64)]; 3] = [
            &[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)],
            &[(Dim::B, 2), (Dim::K, 2), (Dim::C, 8)],
            &[(Dim::C, 4), (Dim::B, 2), (Dim::K, 2), (Dim::C, 2)],
        ];
        for include in [true, false] {
            let mut m = EnergyModel::new();
            m.include_compute_accesses = include;
            for stack in stacks {
                let (chip, layer, mapping) = toy_view(stack);
                let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
                let report = m.evaluate(&view);
                let lowered = LoweredLayer::build(&view, DtlOptions::default());
                let mut lane = m.lane_energy(&chip.arch, &layer);
                let total = lane(&lowered, lowered.cc_spatial());
                assert_eq!(report.total_fj.to_bits(), total.to_bits());
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
        assert_eq!(m.evaluate_lowered(&view, &lowered), m.evaluate(&view));
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
