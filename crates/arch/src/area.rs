//! A first-order silicon area model for latency-area trade-off studies.
//!
//! Case study 3 (Fig. 8) plots a latency-area design space where the area
//! covers the MAC array plus the register and local-buffer levels (the GB
//! area is excluded — "The area of GB is not included in the comparison").
//! The absolute numbers only need to *rank* designs consistently, so we use
//! a CACTI-style first-order model anchored to 7 nm-class densities: the
//! paper cites a 0.027 µm² high-density 6T SRAM bitcell; a production macro
//! lands near 0.04–0.06 µm²/bit after periphery amortization, and flip-flop
//! based register files cost an order of magnitude more per bit.

use crate::mem::{Memory, MemoryKind};
use crate::{Architecture, MemoryHierarchy, MemoryId};

/// Area model parameters (µm²-denominated).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AreaModel {
    /// Area per register-file bit (flip-flop + mux), µm².
    pub reg_um2_per_bit: f64,
    /// Asymptotic SRAM array area per bit, µm².
    pub sram_um2_per_bit: f64,
    /// Fixed periphery per SRAM macro, µm².
    pub sram_periphery_um2: f64,
    /// Periphery that scales with the square root of capacity (decoders,
    /// sense amps along the array edge), µm² per sqrt(bit).
    pub sram_edge_um2_per_sqrt_bit: f64,
    /// Area per MAC unit (INT8 multiplier + 24b accumulator + pipeline
    /// registers), µm².
    pub mac_um2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        Self {
            reg_um2_per_bit: 0.6,
            sram_um2_per_bit: 0.045,
            sram_periphery_um2: 800.0,
            sram_edge_um2_per_sqrt_bit: 12.0,
            mac_um2: 220.0,
        }
    }
}

impl AreaModel {
    /// Area of one memory module in µm².
    fn memory_um2(&self, mem: &Memory) -> f64 {
        let bits = mem.capacity_bits() as f64;
        match mem.kind() {
            MemoryKind::RegisterFile => bits * self.reg_um2_per_bit,
            MemoryKind::Sram => {
                bits * self.sram_um2_per_bit
                    + self.sram_periphery_um2
                    + self.sram_edge_um2_per_sqrt_bit * bits.sqrt()
            }
        }
    }

    /// Area of the MAC array in µm².
    fn array_um2(&self, macs: u64) -> f64 {
        macs as f64 * self.mac_um2
    }

    /// Total architecture area in mm², with the listed memories excluded
    /// (Case 3 excludes the GB).
    pub fn total_mm2(&self, arch: &Architecture, exclude: &[MemoryId]) -> f64 {
        let mem_um2 = self.hierarchy_um2(arch.hierarchy(), exclude);
        (mem_um2 + self.array_um2(arch.mac_array().num_macs())) / 1.0e6
    }

    /// Summed memory area in µm², with exclusions.
    fn hierarchy_um2(&self, h: &MemoryHierarchy, exclude: &[MemoryId]) -> f64 {
        h.memories()
            .iter()
            .enumerate()
            .filter(|(i, _)| !exclude.contains(&MemoryId(*i)))
            .map(|(_, m)| self.memory_um2(m))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Port;
    use crate::{MacArray, Memory, MemoryHierarchy, MemoryKind};
    use ulm_workload::Operand;

    #[test]
    fn sram_beats_registers_per_bit_at_scale() {
        let m = AreaModel::default();
        let reg = Memory::new("r", MemoryKind::RegisterFile, 8 * 1024);
        let sram = Memory::new("s", MemoryKind::Sram, 8 * 1024);
        assert!(m.memory_um2(&reg) > m.memory_um2(&sram));
    }

    #[test]
    fn sram_area_amortizes_periphery() {
        let m = AreaModel::default();
        let small = Memory::new("s", MemoryKind::Sram, 1024);
        let big = Memory::new("b", MemoryKind::Sram, 1024 * 64);
        let per_bit_small = m.memory_um2(&small) / 1024.0;
        let per_bit_big = m.memory_um2(&big) / (1024.0 * 64.0);
        assert!(per_bit_small > per_bit_big);
    }

    #[test]
    fn exclusion_removes_memory_from_total() {
        let mut b = MemoryHierarchy::builder();
        let reg = b.add_memory(Memory::new("reg", MemoryKind::RegisterFile, 2048));
        let gb = b.add_memory(
            Memory::new("gb", MemoryKind::Sram, 8 << 20)
                .with_ports(vec![Port::read(128), Port::write(128)]),
        );
        b.set_chain(Operand::W, vec![reg, gb]);
        b.set_chain(Operand::I, vec![gb]);
        b.set_chain(Operand::O, vec![gb]);
        let h = b.build().unwrap();
        let arch = Architecture::new("t", MacArray::square(16), h);
        let m = AreaModel::default();
        let with_gb = m.total_mm2(&arch, &[]);
        let without_gb = m.total_mm2(&arch, &[gb]);
        assert!(with_gb > without_gb);
        // Without the GB the total is regs + MACs only.
        let expected = (2048.0 * m.reg_um2_per_bit + m.array_um2(256)) / 1.0e6;
        assert!((without_gb - expected).abs() < 1e-12);
    }

    #[test]
    fn bigger_arrays_cost_more() {
        let m = AreaModel::default();
        assert!(m.array_um2(4096) > m.array_um2(1024));
    }
}
