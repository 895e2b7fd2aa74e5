//! Preset architectures from the paper.
//!
//! * [`validation_chip`] — the in-house 7 nm accelerator of Section IV:
//!   16x32 PE systolic array with 2 MACs per PE (1K MACs), 8 b W/I
//!   registers per MAC, a 24 b output register per PE, 32 KB W-LB with a
//!   256 b bus, 64 KB I-LB with a 512 b bus, and a 1 MB GB built from 16
//!   64 KB macros.
//! * [`case_study_chip`] — the scaled-down version used by Case studies 1
//!   and 2: 8x16 PE (16x16 MACs), 16 KB W-LB, 8 KB I-LB, 1 MB GB with
//!   128 bit/cycle read/write bandwidth, spatial unrolling `K16 | B8 | C2`.
//! * [`scaled_case_study_chip`] — the Case-study-3 variants (16x16 /
//!   32x32 / 64x64 MAC arrays with proportionally scaled memories).
//! * [`toy_chip`] — a deliberately tiny two-level design for worked
//!   examples and hand-checked tests.
//! * [`fusion_chip`] — the toy chip with a DRAM level above the (now
//!   shared, non-backing) local buffer, so depth-first fusion and
//!   KV-cache residency have a top interface worth eliding.

use crate::mem::{Memory, MemoryKind, Port};
use crate::{Architecture, MacArray, MemoryHierarchy, StallIntegration};
use ulm_workload::{Dim, Operand};

/// A preset architecture bundled with the spatial unrolling the paper uses
/// on it, as `(dim, factor)` pairs whose product equals the MAC count.
#[derive(Debug, Clone)]
pub struct PresetChip {
    /// The architecture.
    pub arch: Architecture,
    /// Spatial unrolling, e.g. `K 16 | B 8 | C 2`.
    pub spatial: Vec<(Dim, u64)>,
}

const KB: u64 = 8 * 1024; // bits per kilobyte

/// The preset names [`by_name`] accepts, in the order front ends list them.
pub const NAMES: [&str; 6] = ["case16", "case32", "case64", "validation", "toy", "fusion"];

/// The preset called `name` (one of [`NAMES`]), or `None`. `gb_bw_bits`
/// sets the GB bandwidth of the `case*` family and is ignored by the rest.
pub fn by_name(name: &str, gb_bw_bits: u64) -> Option<PresetChip> {
    Some(match name {
        "case16" => scaled_case_study_chip(16, gb_bw_bits),
        "case32" => scaled_case_study_chip(32, gb_bw_bits),
        "case64" => scaled_case_study_chip(64, gb_bw_bits),
        "validation" => validation_chip(),
        "toy" => toy_chip(),
        "fusion" => fusion_chip(),
        _ => return None,
    })
}

/// The paper's validation chip (Section IV / Fig. 5a).
///
/// `gb_bw_bits` is the GB read/write bus width in bits per cycle; the
/// paper does not publish it, 1024 matches a 16-macro (64 KB each)
/// bank-interleaved design.
fn validation_chip_with_gb_bw(gb_bw_bits: u64) -> PresetChip {
    let array = MacArray::new(16, 32, 2); // 1024 MACs
    let macs = array.num_macs();
    let pes = array.num_pes();

    let mut b = MemoryHierarchy::builder();
    // Weight-stationary systolic dataflow: the array spatially unrolls
    // K (32 columns) and C (16 rows x 2 MACs/PE), so the W registers hold
    // one full K32xC32 tile (no broadcast), inputs broadcast along the 32
    // K-columns, and the per-PE output registers act as the C-reduction
    // pipeline (16 pipeline copies per distinct output).
    let w_reg = b.add_memory(
        Memory::new("W-Reg", MemoryKind::RegisterFile, macs * 8)
            .with_ports(vec![Port::read(macs * 8), Port::write(256)]),
    );
    let i_reg = b.add_memory(
        Memory::new("I-Reg", MemoryKind::RegisterFile, macs * 8)
            .with_ports(vec![Port::read(macs * 8), Port::write(512)])
            .with_replication(32),
    );
    let o_reg = b.add_memory(
        Memory::new("O-Reg", MemoryKind::RegisterFile, pes * 24)
            .with_ports(vec![Port::read(pes * 24), Port::write(pes * 24)])
            .with_replication(16),
    );
    let w_lb = b.add_memory(
        Memory::new("W-LB", MemoryKind::Sram, 32 * KB)
            .with_ports(vec![Port::read(256), Port::write(256)]),
    );
    let i_lb = b.add_memory(
        Memory::new("I-LB", MemoryKind::Sram, 64 * KB)
            .with_ports(vec![Port::read(512), Port::write(512)]),
    );
    let gb = b.add_memory(
        Memory::new("GB", MemoryKind::Sram, 1024 * KB)
            .with_ports(vec![Port::read(gb_bw_bits), Port::write(gb_bw_bits)])
            .as_backing_store(),
    );
    b.set_chain(Operand::W, vec![w_reg, w_lb, gb]);
    b.set_chain(Operand::I, vec![i_reg, i_lb, gb]);
    b.set_chain(Operand::O, vec![o_reg, gb]);
    let hierarchy = b.build().expect("preset hierarchy is well-formed");

    // Step-3 coherency: stalls within one operand's chain are nested (a
    // local-buffer chunk swap blocks the register refills behind it), so
    // the W and I chains each integrate sequentially; distinct chains
    // overlap (max).
    let groups = StallIntegration::Groups(vec![vec![w_reg, w_lb], vec![i_reg, i_lb]]);

    PresetChip {
        arch: Architecture::new("validation-chip", array, hierarchy).with_stall_integration(groups),
        spatial: vec![(Dim::K, 32), (Dim::C, 16), (Dim::C, 2)],
    }
}

/// The validation chip at the default 1024 bit/cycle GB bus.
pub fn validation_chip() -> PresetChip {
    validation_chip_with_gb_bw(1024)
}

/// The scaled-down chip of Case studies 1 and 2 (Section V): 8x16 PE with
/// 2 MACs per PE (16x16 MACs), 16 KB W-LB, 8 KB I-LB, 1 MB GB with
/// `gb_bw_bits` read/write bandwidth (the paper fixes 128), spatial
/// unrolling `K 16 | B 8 | C 2`.
pub fn case_study_chip(gb_bw_bits: u64) -> Architecture {
    scaled_case_study_chip(16, gb_bw_bits).arch
}

/// Case-study-3 family: a `side x side` MAC array (built as
/// `side/2 x side` PEs with 2 MACs each) with register and local-buffer
/// capacities scaled proportionally to the array, and spatial unrolling
/// `K side | B side/2 | C 2`.
///
/// `side = 16` reproduces [`case_study_chip`] exactly.
///
/// # Panics
///
/// Panics if `side < 2` or `side` is odd.
pub fn scaled_case_study_chip(side: u64, gb_bw_bits: u64) -> PresetChip {
    assert!(
        side >= 2 && side.is_multiple_of(2),
        "array side must be even, got {side}"
    );
    let array = MacArray::new(side / 2, side, 2);
    let macs = array.num_macs();
    let pes = array.num_pes();
    let scale = side / 16; // capacity scale factor vs the 16x16 baseline

    let mut b = MemoryHierarchy::builder();
    // Weights broadcast along the B-unrolled axis (side/2-fold), inputs
    // along the K-unrolled axis (side-fold).
    let w_reg = b.add_memory(
        Memory::new("W-Reg", MemoryKind::RegisterFile, macs * 8)
            .with_ports(vec![Port::read(macs * 8), Port::write(256 * scale.max(1))])
            .with_replication(side / 2),
    );
    let i_reg = b.add_memory(
        Memory::new("I-Reg", MemoryKind::RegisterFile, macs * 8)
            .with_ports(vec![Port::read(macs * 8), Port::write(256 * scale.max(1))])
            .with_replication(side),
    );
    let o_reg = b.add_memory(
        Memory::new("O-Reg", MemoryKind::RegisterFile, pes * 24)
            .with_ports(vec![Port::read(pes * 24), Port::write(pes * 24)]),
    );
    let w_lb = b.add_memory(
        Memory::new("W-LB", MemoryKind::Sram, 16 * KB * scale.max(1)).with_ports(vec![
            Port::read(256 * scale.max(1)),
            Port::write(128 * scale.max(1)),
        ]),
    );
    let i_lb = b.add_memory(
        Memory::new("I-LB", MemoryKind::Sram, 8 * KB * scale.max(1)).with_ports(vec![
            Port::read(256 * scale.max(1)),
            Port::write(128 * scale.max(1)),
        ]),
    );
    let gb = b.add_memory(
        Memory::new("GB", MemoryKind::Sram, 1024 * KB)
            .with_ports(vec![Port::read(gb_bw_bits), Port::write(gb_bw_bits)])
            .as_backing_store(),
    );
    b.set_chain(Operand::W, vec![w_reg, w_lb, gb]);
    b.set_chain(Operand::I, vec![i_reg, i_lb, gb]);
    b.set_chain(Operand::O, vec![o_reg, gb]);
    let hierarchy = b.build().expect("preset hierarchy is well-formed");

    PresetChip {
        arch: Architecture::new(format!("case-study-{side}x{side}"), array, hierarchy),
        spatial: vec![(Dim::K, side), (Dim::B, side / 2), (Dim::C, 2)],
    }
}

/// A 256-MAC design for *native* convolution (no Im2Col): the array
/// unrolls output channels and an output-pixel tile (`K 16 | OY 4 |
/// OX 4`), so the input registers hold a sliding-window halo and the
/// model's partially-relevant loop handling is exercised end to end.
/// Weight registers broadcast along the 16 output pixels; input registers
/// along the 16 output channels.
pub fn conv_native_chip() -> PresetChip {
    let array = MacArray::new(16, 16, 1);
    let macs = array.num_macs();
    let mut b = MemoryHierarchy::builder();
    let w_reg = b.add_memory(
        Memory::new("W-Reg", MemoryKind::RegisterFile, macs * 8)
            .with_ports(vec![Port::read(macs * 8), Port::write(256)])
            .with_replication(16),
    );
    // The input halo for a 4x4 output tile under a 3x3 filter is 6x6 =
    // 36 pixels: give the I regs halo headroom (4 words per MAC).
    let i_reg = b.add_memory(
        Memory::new("I-Reg", MemoryKind::RegisterFile, macs * 4 * 8)
            .with_ports(vec![Port::read(macs * 8), Port::write(256)])
            .with_replication(16),
    );
    let o_reg = b.add_memory(
        Memory::new("O-Reg", MemoryKind::RegisterFile, macs * 24)
            .with_ports(vec![Port::read(macs * 24), Port::write(macs * 24)]),
    );
    let w_lb = b.add_memory(
        Memory::new("W-LB", MemoryKind::Sram, 16 * KB)
            .with_ports(vec![Port::read(256), Port::write(128)]),
    );
    let i_lb = b.add_memory(
        Memory::new("I-LB", MemoryKind::Sram, 16 * KB)
            .with_ports(vec![Port::read(256), Port::write(128)]),
    );
    let gb = b.add_memory(
        Memory::new("GB", MemoryKind::Sram, 1024 * KB)
            .with_ports(vec![Port::read(256), Port::write(256)])
            .as_backing_store(),
    );
    b.set_chain(Operand::W, vec![w_reg, w_lb, gb]);
    b.set_chain(Operand::I, vec![i_reg, i_lb, gb]);
    b.set_chain(Operand::O, vec![o_reg, gb]);
    let hierarchy = b.build().expect("preset hierarchy is well-formed");
    PresetChip {
        arch: Architecture::new("conv-native", array, hierarchy),
        spatial: vec![(Dim::K, 16), (Dim::OY, 4), (Dim::OX, 4)],
    }
}

/// A TPU-style weight-stationary design: a `side x side` MAC array
/// unrolling `K | C`, **double-buffered** weight registers (the classic
/// shadow-tile swap — the only preset exercising Table I's DB column end
/// to end), a deep on-chip accumulator memory for outputs, a unified
/// input buffer and a weight FIFO fed from the GB.
///
/// # Panics
///
/// Panics if `side` is zero.
pub fn tpu_like_chip(side: u64) -> PresetChip {
    assert!(side > 0, "array side must be positive");
    let array = MacArray::new(side, side, 1);
    let macs = array.num_macs();
    let mut b = MemoryHierarchy::builder();
    // Two physical tiles; the mapper sees one (Table I: A/2).
    let w_reg = b.add_memory(
        Memory::new("W-Reg", MemoryKind::RegisterFile, macs * 2 * 8)
            .with_ports(vec![Port::read(macs * 8), Port::write(side * 8)])
            .double_buffered(),
    );
    // Inputs pipeline along the K columns (side-fold replication).
    let i_reg = b.add_memory(
        Memory::new("I-Reg", MemoryKind::RegisterFile, macs * 8)
            .with_ports(vec![Port::read(macs * 8), Port::write(side * 8)])
            .with_replication(side),
    );
    // Deep accumulators: `side` lanes x 2048 entries x 24 b.
    let acc = b.add_memory(
        Memory::new("Acc", MemoryKind::Sram, side * 2048 * 24)
            .with_ports(vec![Port::read(side * 24), Port::write(side * 24)]),
    );
    let w_fifo = b.add_memory(
        Memory::new("W-FIFO", MemoryKind::Sram, 512 * KB)
            .with_ports(vec![Port::read(side * 8), Port::write(side * 8)]),
    );
    let ub = b.add_memory(
        Memory::new("UB", MemoryKind::Sram, 4 * 1024 * KB)
            .with_ports(vec![Port::read(side * 8), Port::write(side * 8)]),
    );
    let gb = b.add_memory(
        Memory::new("GB", MemoryKind::Sram, 8 * 1024 * KB)
            .with_ports(vec![Port::read(side * 8), Port::write(side * 8)])
            .as_backing_store(),
    );
    b.set_chain(Operand::W, vec![w_reg, w_fifo, gb]);
    b.set_chain(Operand::I, vec![i_reg, ub, gb]);
    b.set_chain(Operand::O, vec![acc, gb]);
    let hierarchy = b.build().expect("preset hierarchy is well-formed");
    PresetChip {
        arch: Architecture::new(format!("tpu-like-{side}"), array, hierarchy),
        spatial: vec![(Dim::K, side), (Dim::C, side)],
    }
}

/// A tiny 4-MAC, two-level design for worked examples and hand-checked
/// tests: per-operand registers under a shared local buffer that doubles
/// as the (backing-store) top level. Spatial unrolling `K 2 | B 2`.
pub fn toy_chip() -> PresetChip {
    let array = MacArray::new(2, 2, 1);
    let mut b = MemoryHierarchy::builder();
    let w_reg = b.add_memory(
        Memory::new("W-Reg", MemoryKind::RegisterFile, 4 * 8)
            .with_ports(vec![Port::read(4 * 8), Port::write(8)])
            .with_replication(2), // broadcast across the B-unrolled axis
    );
    let i_reg = b.add_memory(
        Memory::new("I-Reg", MemoryKind::RegisterFile, 4 * 8)
            .with_ports(vec![Port::read(4 * 8), Port::write(8)])
            .with_replication(2), // broadcast across the K-unrolled axis
    );
    let o_reg = b.add_memory(
        Memory::new("O-Reg", MemoryKind::RegisterFile, 4 * 24)
            .with_ports(vec![Port::read(4 * 24), Port::write(4 * 24)]),
    );
    let lb = b.add_memory(
        Memory::new("LB", MemoryKind::Sram, 16 * KB)
            .with_ports(vec![Port::read(16), Port::write(16)])
            .as_backing_store(),
    );
    b.set_chain(Operand::W, vec![w_reg, lb]);
    b.set_chain(Operand::I, vec![i_reg, lb]);
    b.set_chain(Operand::O, vec![o_reg, lb]);
    let hierarchy = b.build().expect("preset hierarchy is well-formed");
    PresetChip {
        arch: Architecture::new("toy", array, hierarchy),
        spatial: vec![(Dim::K, 2), (Dim::B, 2)],
    }
}

/// The toy chip with a DRAM level stacked above its local buffer.
///
/// Unlike every other preset, the shared "LB" here is *not* the backing
/// store: all three operand chains run `reg -> LB -> DRAM`, so a fused
/// segment (or a decode-resident KV cache) pinned at the LB has real
/// `LB <-> DRAM` interfaces to elide. The DRAM link is kept deliberately
/// narrow (8 b/cy) so elided round-trips show up clearly in latency.
pub fn fusion_chip() -> PresetChip {
    let array = MacArray::new(2, 2, 1);
    let mut b = MemoryHierarchy::builder();
    let w_reg = b.add_memory(
        Memory::new("W-Reg", MemoryKind::RegisterFile, 4 * 8)
            .with_ports(vec![Port::read(4 * 8), Port::write(8)])
            .with_replication(2), // broadcast across the B-unrolled axis
    );
    let i_reg = b.add_memory(
        Memory::new("I-Reg", MemoryKind::RegisterFile, 4 * 8)
            .with_ports(vec![Port::read(4 * 8), Port::write(8)])
            .with_replication(2), // broadcast across the K-unrolled axis
    );
    let o_reg = b.add_memory(
        Memory::new("O-Reg", MemoryKind::RegisterFile, 4 * 24)
            .with_ports(vec![Port::read(4 * 24), Port::write(4 * 24)]),
    );
    let lb = b.add_memory(
        Memory::new("LB", MemoryKind::Sram, 16 * KB)
            .with_ports(vec![Port::read(16), Port::write(16)]),
    );
    let dram = b.add_memory(
        Memory::new("DRAM", MemoryKind::Sram, 64 * 1024 * KB)
            .with_ports(vec![Port::read(8), Port::write(8)])
            .as_backing_store(),
    );
    b.set_chain(Operand::W, vec![w_reg, lb, dram]);
    b.set_chain(Operand::I, vec![i_reg, lb, dram]);
    b.set_chain(Operand::O, vec![o_reg, lb, dram]);
    let hierarchy = b.build().expect("preset hierarchy is well-formed");
    PresetChip {
        arch: Architecture::new("fusion-toy", array, hierarchy),
        spatial: vec![(Dim::K, 2), (Dim::B, 2)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PortUse;

    #[test]
    fn every_listed_name_resolves_and_only_those() {
        for name in NAMES {
            assert!(by_name(name, 128).is_some(), "{name}");
        }
        assert!(by_name("case8", 128).is_none());
        let chip = by_name("case32", 256).unwrap();
        assert_eq!(chip.arch, scaled_case_study_chip(32, 256).arch);
    }

    #[test]
    fn validation_chip_matches_paper_parameters() {
        let chip = validation_chip();
        let a = &chip.arch;
        assert_eq!(a.mac_array().num_macs(), 1024);
        assert_eq!(a.mac_array().num_pes(), 512);
        let h = a.hierarchy();
        let w_lb = h.find("W-LB").unwrap();
        assert_eq!(h.mem(w_lb).capacity_bits(), 32 * KB);
        let i_lb = h.find("I-LB").unwrap();
        assert_eq!(h.mem(i_lb).capacity_bits(), 64 * KB);
        let gb = h.find("GB").unwrap();
        assert_eq!(h.mem(gb).capacity_bits(), 1024 * KB);
        assert!(h.mem(gb).is_backing_store());
        // 256b / 512b LB buses.
        assert_eq!(h.port(w_lb, Operand::W, PortUse::ReadOut).1, 256);
        assert_eq!(h.port(i_lb, Operand::I, PortUse::ReadOut).1, 512);
        // Spatial product covers the whole array.
        let prod: u64 = chip.spatial.iter().map(|(_, f)| f).product();
        assert_eq!(prod, 1024);
    }

    #[test]
    fn case_study_chip_matches_paper_parameters() {
        let a = case_study_chip(128);
        assert_eq!(a.mac_array().num_macs(), 256);
        let h = a.hierarchy();
        assert_eq!(h.mem(h.find("W-LB").unwrap()).capacity_bits(), 16 * KB);
        assert_eq!(h.mem(h.find("I-LB").unwrap()).capacity_bits(), 8 * KB);
        let gb = h.find("GB").unwrap();
        assert_eq!(h.port(gb, Operand::O, PortUse::WriteIn).1, 128);
        assert_eq!(h.port(gb, Operand::I, PortUse::ReadOut).1, 128);
        // O bypasses the LB level.
        assert_eq!(h.chain(Operand::O).len(), 2);
    }

    #[test]
    fn scaled_chips_scale_array_and_spatial() {
        for side in [16, 32, 64] {
            let chip = scaled_case_study_chip(side, 128);
            assert_eq!(chip.arch.mac_array().num_macs(), side * side);
            let prod: u64 = chip.spatial.iter().map(|(_, f)| f).product();
            assert_eq!(prod, side * side);
        }
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_side_rejected() {
        let _ = scaled_case_study_chip(15, 128);
    }

    #[test]
    fn conv_native_chip_unrolls_output_pixels() {
        let chip = conv_native_chip();
        assert_eq!(chip.arch.mac_array().num_macs(), 256);
        let prod: u64 = chip.spatial.iter().map(|(_, f)| f).product();
        assert_eq!(prod, 256);
        assert!(chip.spatial.iter().any(|(d, _)| *d == Dim::OY));
        // The I regs hold 4x the distinct spatial words for halo room.
        let h = chip.arch.hierarchy();
        let i_reg = h.mem(h.find("I-Reg").unwrap());
        assert_eq!(i_reg.mapper_capacity_bits(), 256 * 4 * 8 / 16);
    }

    #[test]
    fn tpu_like_chip_double_buffers_weights() {
        let chip = tpu_like_chip(64);
        assert_eq!(chip.arch.mac_array().num_macs(), 4096);
        let h = chip.arch.hierarchy();
        let w_reg = h.mem(h.find("W-Reg").unwrap());
        assert!(w_reg.is_double_buffered());
        // Mapper sees exactly one K x C tile.
        assert_eq!(w_reg.mapper_capacity_bits(), 4096 * 8);
        // Outputs accumulate in a deep on-chip memory, not 1-word regs.
        let acc = h.mem(h.find("Acc").unwrap());
        assert!(acc.mapper_capacity_bits() >= 64 * 2048 * 24);
    }

    #[test]
    fn toy_chip_is_tiny_and_valid() {
        let chip = toy_chip();
        assert_eq!(chip.arch.mac_array().num_macs(), 4);
        assert_eq!(chip.arch.hierarchy().depth(), 2);
    }

    #[test]
    fn fusion_chip_shares_a_non_backing_lb_below_dram() {
        let chip = fusion_chip();
        let h = chip.arch.hierarchy();
        assert_eq!(h.depth(), 3);
        let lb = h.find("LB").unwrap();
        assert!(!h.mem(lb).is_backing_store());
        let dram = h.find("DRAM").unwrap();
        assert!(h.mem(dram).is_backing_store());
        // The LB sits in all three chains: a pin there elides LB<->DRAM
        // traffic for any operand.
        for op in [Operand::W, Operand::I, Operand::O] {
            assert_eq!(h.chain(op)[1], lb, "{op:?} chain must route via LB");
        }
    }
}
