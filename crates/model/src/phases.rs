//! Data pre-loading and off-loading phases (Fig. 1a).
//!
//! Pre-loading fills the first working set of W and I down the hierarchy
//! before computation starts; off-loading writes the last output block up
//! to the top memory after computation ends. Both are "derived based on
//! the required data transfer amount and the related memories' BW"
//! (Section III); W and I load in parallel, so the pre-load phase is their
//! maximum.
//!
//! Each phase is one arithmetic body over the lowered IR's rows, generic
//! over where its link bandwidths come from (live lookups or the
//! surrogate's folded tables). The batched kernel's lockstep loops share
//! the per-interface term, `block_cycles`.

use crate::dtl::crossing_bits;
use crate::lower::LoweredLayer;
use crate::slots::ArchSlots;
use ulm_workload::{Operand, Precision};

/// One interface's share of a phase: a block of `words` at `bits` per
/// word over a `bw` bits/cycle link, in whole cycles.
#[inline]
pub(crate) fn block_cycles(words: u64, bits: u64, bw: u64) -> u64 {
    (words * bits).div_ceil(bw)
}

/// Cycles to pre-load the first W and I working sets: the max over the
/// two operands of the pipeline-fill chain down their active interfaces
/// (KV-cache residents and pinned operands are already in place above).
pub(crate) fn preload_cycles_with(
    precision: &Precision,
    rows: &LoweredLayer,
    slots: &impl ArchSlots,
) -> u64 {
    let mut worst = 0u64;
    for op in [Operand::W, Operand::I] {
        let mut total = 0u64;
        for level in 0..rows.active_interfaces(op) {
            let bw = slots.interface(op, level).bw_bits;
            total += block_cycles(rows.level(op, level).words, precision.bits(op), bw);
        }
        worst = worst.max(total);
    }
    worst
}

/// Cycles to off-load the final output block up to the top memory, each
/// interface at the precision outputs cross it with.
pub(crate) fn offload_cycles_with(
    precision: &Precision,
    rows: &LoweredLayer,
    slots: &impl ArchSlots,
) -> u64 {
    let op = Operand::O;
    let mut total = 0u64;
    for level in 0..rows.active_interfaces(op) {
        let row = rows.level(op, level);
        let bits = crossing_bits(precision, op, row.final_above);
        total += block_cycles(row.words, bits, slots.interface(op, level).bw_bits);
    }
    total
}

#[cfg(test)]
mod tests {
    use crate::{DtlOptions, LoweredLayer};
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, MappedLayer, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    #[test]
    fn toy_phases_match_hand_computation() {
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
        let lw = LoweredLayer::build(&view, DtlOptions::default());
        // W first block: 2 words x 8b over an 8 b/cy link = 2 cycles.
        // I first block: 2 words x 8b over 8 b/cy = 2 cycles. Max = 2.
        assert_eq!(lw.preload(), 2);
        // O final block: 4 words, final (8b) over min(O-Reg rd 96,
        // LB wr 16) = 16 b/cy -> 32/16 = 2 cycles.
        assert_eq!(lw.offload(), 2);
    }

    #[test]
    fn deeper_chains_accumulate_fill_time() {
        let chip = presets::case_study_chip(128);
        let layer = Layer::matmul("mm", 64, 64, 64, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
        let stack = LoopStack::from_pairs(&[(Dim::C, 32), (Dim::B, 8), (Dim::K, 4)]);
        let mapping = Mapping::with_greedy_alloc(&chip, &layer, spatial, stack).unwrap();
        let view = MappedLayer::new(&layer, &chip, &mapping).unwrap();
        let lw = LoweredLayer::build(&view, DtlOptions::default());
        // Three levels for W/I: two links each, so preload covers both.
        assert!(lw.preload() > 0);
        assert!(lw.offload() > 0);
    }
}
