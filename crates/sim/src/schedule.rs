//! Transfer-schedule extraction: turn a mapped layer into the exact list
//! of block transfers the memory system must perform, with each transfer's
//! readiness window, deadline and data dependencies.
//!
//! Unlike the analytical model — which reasons about *steady-state rates*
//! and periodic windows — the simulator enumerates every individual block
//! movement, discovers which loop-nest periods actually move data (pure
//! reuse across irrelevant loops moves none), and executes them against
//! port availability. This independence is what makes the model-vs-sim
//! comparison a meaningful validation.

use std::collections::HashMap;
use ulm_arch::{MemoryId, PortId, PortUse};
use ulm_mapping::MappedLayer;
use ulm_model::{DtlOptions, LoweredLayer};
use ulm_workload::Operand;

/// What a scheduled transfer does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// W/I block moving down into a level.
    Refill,
    /// O block draining up out of a level.
    Drain,
    /// Partial sums returning down into a level.
    Readback,
}

/// One block transfer.
#[derive(Debug, Clone)]
pub struct Transfer {
    /// Dense id (index into the schedule).
    pub id: usize,
    /// The operand moved.
    pub operand: Operand,
    /// Transfer kind.
    pub kind: TransferKind,
    /// Level (in the operand's chain) whose block moves.
    pub level: usize,
    /// The loop-nest period index this transfer serves.
    pub period: u64,
    /// Earliest compute cycle at which the transfer may begin.
    pub ready_cycle: u64,
    /// Compute cycle the transfer must precede (`u64::MAX` = only the
    /// final drain tail, no compute blocks on it).
    pub need_cycle: u64,
    /// Bits moved.
    pub bits: u64,
    /// Effective link bandwidth, bits/cycle (min over the two ports).
    pub link_bw: u64,
    /// The ports occupied for the transfer's duration.
    pub ports: Vec<(MemoryId, PortId)>,
    /// Transfers that must complete before this one starts.
    pub deps: Vec<usize>,
}

/// Error raised when a layer/mapping would generate an impractically large
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTooLarge {
    /// Transfers the schedule would need.
    pub transfers: u64,
    /// The configured cap.
    pub cap: u64,
}

impl std::fmt::Display for ScheduleTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation schedule needs {} transfers, cap is {}",
            self.transfers, self.cap
        )
    }
}

impl std::error::Error for ScheduleTooLarge {}

/// The full schedule for one mapped layer.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// All transfers, id-ordered.
    pub transfers: Vec<Transfer>,
    /// Total compute cycles (`CC_spatial`).
    pub total_cycles: u64,
}

/// Builds the schedule, lowering the view internally.
///
/// # Errors
///
/// Returns [`ScheduleTooLarge`] if more than `cap` transfers would be
/// generated.
pub fn build_schedule(view: &MappedLayer<'_>, cap: u64) -> Result<Schedule, ScheduleTooLarge> {
    build_schedule_lowered(view, &LoweredLayer::build(view, DtlOptions::default()), cap)
}

/// Builds the schedule from an already-lowered layer: every block count,
/// turnaround period and region comes from the same
/// [`LoweredLayer`] tables the analytical model and the energy model
/// read, so the three consumers cannot disagree about what data moves.
///
/// # Errors
///
/// Returns [`ScheduleTooLarge`] if more than `cap` transfers would be
/// generated.
pub fn build_schedule_lowered(
    view: &MappedLayer<'_>,
    lowered: &LoweredLayer,
    cap: u64,
) -> Result<Schedule, ScheduleTooLarge> {
    let h = view.arch().hierarchy();
    let layer = view.layer();
    let total = lowered.cc_spatial();

    // Pre-flight size check using the exact refill counts. Interfaces
    // above a residency pin (KV-cache, fused intermediates) move nothing.
    let mut est: u64 = 0;
    for op in Operand::all() {
        for level in 0..lowered.active_interfaces(op) {
            est += 2 * lowered.level(op, level).refills; // refills or drains+readbacks
        }
    }
    if est > cap {
        return Err(ScheduleTooLarge {
            transfers: est,
            cap,
        });
    }

    let mut transfers: Vec<Transfer> = Vec::new();
    // For refill dependency lookup: (op, level) -> per-period covering
    // transfer id. Stored for every level that has refills.
    let mut covering: HashMap<(Operand, usize), Vec<usize>> = HashMap::new();

    // Build top-down so a lower level can reference its upper level's
    // covering transfers.
    for op in Operand::all() {
        let chain = h.chain(op);
        let active = lowered.active_interfaces(op);
        if active == 0 {
            continue;
        }
        let op_bits = layer.precision().bits(op);
        for level in (0..active).rev() {
            let lower = chain[level];
            let upper = chain[level + 1];
            let lower_mem = h.mem(lower);
            let row = *lowered.level(op, level);
            let period = row.period;
            let z = row.z;
            let words = row.words;
            let run = row.run;
            let db = lower_mem.is_double_buffered();
            // The topmost *active* level never refills from above — for a
            // pinned operand its content is already resident there.
            let upper_is_top = level + 1 >= active;

            match op {
                Operand::W | Operand::I => {
                    let (wp, wbw) = h.port(lower, op, PortUse::WriteIn);
                    let (rp, rbw) = h.port(upper, op, PortUse::ReadOut);
                    let link_bw = wbw.min(rbw);
                    let mut cover = Vec::with_capacity(z as usize);
                    let mut last_region = None;
                    for j in 0..z {
                        let region = lowered.region(op, level, j);
                        if last_region == Some(region) {
                            let prev = *cover.last().expect("first period always transfers");
                            cover.push(prev);
                            continue;
                        }
                        last_region = Some(region);
                        let ready_cycle = if db || run == 1 {
                            (j.saturating_sub(1)) * period
                        } else {
                            (j * period).saturating_sub(period / run)
                        };
                        let need_cycle = j * period;
                        // Data dependency: the upper-level block covering
                        // this period must already have arrived.
                        let mut deps = Vec::new();
                        if !upper_is_top {
                            let up_period = lowered.level(op, level + 1).period;
                            let jj = need_cycle / up_period;
                            let up_cover = &covering[&(op, level + 1)];
                            deps.push(up_cover[jj as usize]);
                        }
                        let id = transfers.len();
                        cover.push(id);
                        transfers.push(Transfer {
                            id,
                            operand: op,
                            kind: TransferKind::Refill,
                            level,
                            period: j,
                            ready_cycle,
                            need_cycle,
                            bits: words * op_bits,
                            link_bw,
                            ports: vec![(upper, rp), (lower, wp)],
                            deps,
                        });
                    }
                    covering.insert((op, level), cover);
                }
                Operand::O => {
                    // A replicated output register file is a reduction /
                    // drain pipeline: the extra physical copies buffer
                    // in-flight blocks, so draining and psum re-loading
                    // may overlap neighbouring periods like a
                    // double-buffered memory.
                    let relaxed = db || lower_mem.replication() > 1;
                    let out_bits = layer.precision().output_bits(row.final_above);
                    let (drp, drbw) = h.port(lower, op, PortUse::ReadOut);
                    let (dwp, dwbw) = h.port(upper, op, PortUse::WriteIn);
                    let drain_bw = drbw.min(dwbw);
                    let (rrp, rrbw) = h.port(upper, op, PortUse::ReadOut);
                    let (rwp, rwbw) = h.port(lower, op, PortUse::WriteIn);
                    let rb_bw = rrbw.min(rwbw);
                    // Last drain id per region (for read-back deps) and
                    // previous-period drain (for register-free deps).
                    let mut last_drain_of_region: HashMap<u64, usize> = HashMap::new();
                    let mut prev_drain: Option<usize> = None;
                    for j in 0..z {
                        let region = lowered.region(op, level, j);
                        let next_region = if j + 1 < z {
                            Some(lowered.region(op, level, j + 1))
                        } else {
                            None
                        };
                        // Read-back first: re-entering a region seen before.
                        let prev_region = if j > 0 {
                            Some(lowered.region(op, level, j - 1))
                        } else {
                            None
                        };
                        if prev_region != Some(region) {
                            if let Some(&src) = last_drain_of_region.get(&region) {
                                // Strictly single-buffered registers must
                                // first drain the outgoing block before old
                                // psums can land; a pipeline (or double
                                // buffer) lets the read-back prefetch one
                                // period ahead.
                                let mut deps = vec![src];
                                let ready_cycle = if relaxed {
                                    (j.saturating_sub(1)) * period
                                } else {
                                    if let Some(pd) = prev_drain {
                                        deps.push(pd);
                                    }
                                    j * period
                                };
                                let id = transfers.len();
                                transfers.push(Transfer {
                                    id,
                                    operand: op,
                                    kind: TransferKind::Readback,
                                    level,
                                    period: j,
                                    ready_cycle,
                                    need_cycle: j * period,
                                    bits: words * layer.precision().partial_sum_bits(),
                                    link_bw: rb_bw,
                                    ports: vec![(upper, rrp), (lower, rwp)],
                                    deps,
                                });
                            }
                        }
                        // Drain at the end of the region's last period.
                        if next_region != Some(region) {
                            let ready_cycle = if run == 1 {
                                // Streaming outputs finalize progressively:
                                // draining may overlap the whole period.
                                j * period
                            } else {
                                // Accumulated outputs finalize at period end
                                // (double-buffered or not).
                                (j + 1) * period
                            };
                            let need_cycle = if relaxed {
                                // One period of slack before the registers
                                // are needed again (shadow buffer or spare
                                // pipeline slots).
                                (j + 2) * period
                            } else {
                                (j + 1) * period
                            };
                            let need_cycle = if need_cycle >= total && j + 1 >= z {
                                u64::MAX // final tail: offload, not a stall
                            } else {
                                need_cycle
                            };
                            let id = transfers.len();
                            last_drain_of_region.insert(region, id);
                            prev_drain = Some(id);
                            transfers.push(Transfer {
                                id,
                                operand: op,
                                kind: TransferKind::Drain,
                                level,
                                period: j,
                                ready_cycle: ready_cycle.min(total),
                                need_cycle,
                                bits: words * out_bits,
                                link_bw: drain_bw,
                                ports: vec![(lower, drp), (upper, dwp)],
                                deps: Vec::new(),
                            });
                        }
                    }
                }
            }
        }
    }

    Ok(Schedule {
        transfers,
        total_cycles: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    fn toy(stack: &[(Dim, u64)]) -> (ulm_arch::presets::PresetChip, Layer, Mapping) {
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
    fn transfer_counts_match_refill_counts() {
        let (chip, layer, mapping) = toy(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let s = build_schedule(&view, 1 << 20).unwrap();
        let w_refills = s
            .transfers
            .iter()
            .filter(|t| t.operand == Operand::W && t.kind == TransferKind::Refill)
            .count() as u64;
        assert_eq!(w_refills, view.refill_count(Operand::W, 0));
        let drains = s
            .transfers
            .iter()
            .filter(|t| t.kind == TransferKind::Drain)
            .count() as u64;
        assert_eq!(drains, view.refill_count(Operand::O, 0));
        // Fully output stationary: no read-backs.
        assert!(s.transfers.iter().all(|t| t.kind != TransferKind::Readback));
    }

    #[test]
    fn split_c_generates_readbacks() {
        let (chip, layer, mapping) = toy(&[(Dim::C, 4), (Dim::B, 2), (Dim::K, 2), (Dim::C, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let s = build_schedule(&view, 1 << 20).unwrap();
        let readbacks: Vec<&Transfer> = s
            .transfers
            .iter()
            .filter(|t| t.kind == TransferKind::Readback)
            .collect();
        // 4 regions, each revisited once by the outer C2 -> 4 read-backs.
        assert_eq!(readbacks.len(), 4);
        // Each read-back depends on the drain that parked its psums.
        for rb in readbacks {
            assert!(!rb.deps.is_empty());
        }
    }

    #[test]
    fn reuse_periods_produce_no_transfers() {
        // B2 innermost, W-Reg holds nothing: B-iterations reuse W fully.
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let stack = LoopStack::from_pairs(&[(Dim::B, 2), (Dim::C, 8), (Dim::K, 2)]);
        // Non-canonical W alloc on purpose: B2 stays above the regs.
        let allocs = ulm_workload::PerOperand::new(
            ulm_mapping::OperandAlloc::new(vec![0, 3]),
            ulm_mapping::OperandAlloc::new(vec![0, 3]),
            ulm_mapping::OperandAlloc::new(vec![0, 3]),
        );
        let mapping = Mapping::new(spatial, stack, allocs);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let s = build_schedule(&view, 1 << 20).unwrap();
        let w_refills = s
            .transfers
            .iter()
            .filter(|t| t.operand == Operand::W && t.kind == TransferKind::Refill)
            .count() as u64;
        // Z = 32 periods but only 16 distinct blocks.
        assert_eq!(view.z(Operand::W, 0), 32);
        assert_eq!(w_refills, 16);
    }

    #[test]
    fn cap_is_enforced() {
        let (chip, layer, mapping) = toy(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let err = build_schedule(&view, 4).unwrap_err();
        assert!(err.transfers > 4);
    }

    #[test]
    fn deadlines_are_consistent() {
        let (chip, layer, mapping) = toy(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let s = build_schedule(&view, 1 << 20).unwrap();
        for t in &s.transfers {
            assert!(t.ready_cycle <= t.need_cycle, "{t:?}");
            assert!(t.bits.div_ceil(t.link_bw) > 0);
            for &d in &t.deps {
                assert!(d < t.id, "deps must precede: {t:?}");
            }
        }
    }
}
