//! The architecture-constant *slot* view of the lowering pipeline.
//!
//! This module is the only place the model reads the architecture's
//! port tables (which port serves an interface, at what bandwidth,
//! under what buffering); `scripts/ci.sh` fails on a `.port(` lookup
//! anywhere else in the crate but `delta.rs`'s port-identity check. For
//! a fixed architecture those answers never change, so the phase, DTL
//! and roofline bodies are written against the [`ArchSlots`] trait
//! instead of the hierarchy directly:
//!
//! * [`LiveSlots`] answers by chain-and-port lookups — the generic
//!   lowering and the mapper's view-based pruning bounds;
//! * [`FoldedSlots`] (built *through* `LiveSlots`, so it holds the very
//!   same numbers) answers by array indexing — the surrogate's query
//!   path and the batched kernel.
//!
//! Because both implementations feed identical values into one shared
//! arithmetic body, every evaluator is bit-identical to the generic path
//! by construction.

use crate::dtl::{Endpoint, Endpoints};
use ulm_arch::{MemoryHierarchy, MemoryId, PortUse};
use ulm_workload::Operand;

/// The architecture-constant inputs of one data-transfer link: the
/// narrower of the two port bandwidths, the ports it occupies, and
/// whether the window-defining (lower) memory is double-buffered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinkConsts {
    /// Link bandwidth in bits/cycle: the `u64` min of the two ports.
    pub bw_bits: u64,
    /// The one or two ports the link occupies.
    pub endpoints: Endpoints,
    /// Whether the lower (window-defining) memory is double-buffered.
    pub lower_db: bool,
}

/// Per-interface architecture constants, keyed the way the DTL build
/// walks them. `interface` covers the refill (W/I) and drain (O)
/// direction of `(op, level)`; `psum` the read-back direction of an O
/// interface; `compute` the MAC-array-facing link of `op`'s innermost
/// level.
pub(crate) trait ArchSlots {
    fn interface(&self, op: Operand, level: usize) -> LinkConsts;
    fn psum(&self, level: usize) -> LinkConsts;
    fn compute(&self, op: Operand) -> LinkConsts;
}

/// [`ArchSlots`] answered by live hierarchy lookups — the generic path.
pub(crate) struct LiveSlots<'a> {
    h: &'a MemoryHierarchy,
}

impl<'a> LiveSlots<'a> {
    pub(crate) fn new(h: &'a MemoryHierarchy) -> Self {
        Self { h }
    }
}

impl LiveSlots<'_> {
    /// The link reading `op` out of `from` and writing it into `to`,
    /// windowed by the buffering of `lower` (the level the link serves).
    fn link(&self, op: Operand, from: MemoryId, to: MemoryId, lower: MemoryId) -> LinkConsts {
        let (rp, rbw) = self.h.port(from, op, PortUse::ReadOut);
        let (wp, wbw) = self.h.port(to, op, PortUse::WriteIn);
        LinkConsts {
            bw_bits: rbw.min(wbw),
            endpoints: Endpoints::two(
                Endpoint {
                    mem: from,
                    port: rp,
                    usage: PortUse::ReadOut,
                },
                Endpoint {
                    mem: to,
                    port: wp,
                    usage: PortUse::WriteIn,
                },
            ),
            lower_db: self.h.mem(lower).is_double_buffered(),
        }
    }
}

impl ArchSlots for LiveSlots<'_> {
    fn interface(&self, op: Operand, level: usize) -> LinkConsts {
        let chain = self.h.chain(op);
        let (lower, upper) = (chain[level], chain[level + 1]);
        match op {
            // Refill: upper read -> lower write.
            Operand::W | Operand::I => self.link(op, upper, lower, lower),
            // Drain: lower read -> upper write.
            Operand::O => self.link(op, lower, upper, lower),
        }
    }

    fn psum(&self, level: usize) -> LinkConsts {
        // Partial sums return: upper read -> lower write.
        let chain = self.h.chain(Operand::O);
        let (lower, upper) = (chain[level], chain[level + 1]);
        self.link(Operand::O, upper, lower, lower)
    }

    fn compute(&self, op: Operand) -> LinkConsts {
        let innermost = self.h.chain(op)[0];
        let usage = match op {
            Operand::W | Operand::I => PortUse::ReadOut,
            Operand::O => PortUse::WriteIn,
        };
        let (p, bw) = self.h.port(innermost, op, usage);
        LinkConsts {
            bw_bits: bw,
            endpoints: Endpoints::one(Endpoint {
                mem: innermost,
                port: p,
                usage,
            }),
            lower_db: false,
        }
    }
}

/// [`ArchSlots`] folded into flat per-interface tables once per
/// specialization or batched kernel: every entry is captured through
/// [`LiveSlots`], so the values are the generic path's values and
/// queries reduce to indexing.
#[derive(Debug, Default)]
pub(crate) struct FoldedSlots {
    /// `interface(op, level)`, operand-major, one row per chain interface.
    interfaces: Vec<LinkConsts>,
    /// Interface-row offsets per operand (`offsets[op] .. offsets[op+1]`).
    offsets: [usize; 4],
    /// `psum(level)` for every O interface.
    psums: Vec<LinkConsts>,
    /// `compute(op)` per operand.
    computes: [Option<LinkConsts>; 3],
}

impl FoldedSlots {
    /// Folds every slot of `h` the lowering can touch, reading through
    /// [`LiveSlots`] so the captured constants are the live values.
    pub(crate) fn fold(h: &MemoryHierarchy) -> Self {
        let live = LiveSlots::new(h);
        let mut out = Self::default();
        for op in Operand::all() {
            out.offsets[op.index()] = out.interfaces.len();
            let interfaces = h.chain(op).len().saturating_sub(1);
            for level in 0..interfaces {
                out.interfaces.push(live.interface(op, level));
            }
            out.computes[op.index()] = Some(live.compute(op));
        }
        out.offsets[3] = out.interfaces.len();
        let o_interfaces = h.chain(Operand::O).len().saturating_sub(1);
        for level in 0..o_interfaces {
            out.psums.push(live.psum(level));
        }
        out
    }
}

impl ArchSlots for FoldedSlots {
    fn interface(&self, op: Operand, level: usize) -> LinkConsts {
        self.interfaces[self.offsets[op.index()] + level]
    }

    fn psum(&self, level: usize) -> LinkConsts {
        self.psums[level]
    }

    fn compute(&self, op: Operand) -> LinkConsts {
        self.computes[op.index()].expect("folded for every operand")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;

    #[test]
    fn folded_slots_capture_live_values() {
        for chip in [
            presets::toy_chip(),
            presets::fusion_chip(),
            presets::scaled_case_study_chip(16, 128),
            presets::tpu_like_chip(8),
        ] {
            let h = chip.arch.hierarchy();
            let live = LiveSlots::new(h);
            let folded = FoldedSlots::fold(h);
            for op in Operand::all() {
                for level in 0..h.chain(op).len().saturating_sub(1) {
                    assert_eq!(folded.interface(op, level), live.interface(op, level));
                }
                assert_eq!(folded.compute(op), live.compute(op));
            }
            for level in 0..h.chain(Operand::O).len().saturating_sub(1) {
                assert_eq!(folded.psum(level), live.psum(level));
            }
        }
    }
}
