//! Dependency tracking for incremental lowering.
//!
//! Every stage of the [`LoweredLayer`](crate::LoweredLayer) pipeline
//! reads a known subset of the evaluation inputs ([`Stage::reads`]).
//! An [`InputDelta`] names which input groups changed between two
//! evaluations; [`rebuild_dirty`](crate::LoweredLayer::rebuild_dirty)
//! recomputes exactly the stages whose read set
//! intersects the delta, bit-identical to a from-scratch lowering (the
//! dirty stages run the same code over the same inputs; the clean
//! stages keep bits that would have come out identical anyway).
//!
//! The input groups are deliberately coarse — they track the knobs a
//! Fig. 8-style sweep or an interactive `whatif` actually moves:
//!
//! | group | examples | invalidates |
//! |---|---|---|
//! | `WORKLOAD` | layer dims, precision | everything |
//! | `MAPPING` | loop stack, spatial unroll, allocation | everything |
//! | `ARCH_STRUCTURE` | chains, port identity/direction, double buffering, replication, MAC array, stall policy | everything |
//! | `BANDWIDTH` | any port's `bw_bits` | phases + the DTL bandwidth columns |
//! | `CAPACITY` | any memory's `capacity_bits` | nothing (validation only) |
//!
//! `CAPACITY` invalidating nothing is the paper's own structure: with a
//! *fixed legal mapping*, memory capacity never appears in the latency
//! arithmetic — it only gates which mappings are legal. Capacity-only
//! what-ifs therefore re-validate the mapping but skip every stage.

use ulm_arch::{Architecture, PortUse};
use ulm_workload::Operand;

/// A set of evaluation-input groups that changed between two runs.
///
/// Combine with [`union`](Self::union); query with
/// [`intersects`](Self::intersects). Construct from two architectures
/// with [`between`](Self::between) (workload/mapping changes are the
/// caller's knowledge — tag them explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct InputDelta(u8);

impl InputDelta {
    /// Nothing changed.
    pub const NONE: Self = Self(0);
    /// The layer (dims, precision, relevance) changed.
    pub const WORKLOAD: Self = Self(1 << 0);
    /// The mapping (loop stack, spatial unroll, allocation) changed.
    pub const MAPPING: Self = Self(1 << 1);
    /// The architecture's *structure* changed: chains, port identity or
    /// direction, double buffering, replication, MAC array, backing
    /// store, memory kind, or the stall-integration policy.
    pub const ARCH_STRUCTURE: Self = Self(1 << 2);
    /// Only port bandwidth values (`bw_bits`) changed.
    pub const BANDWIDTH: Self = Self(1 << 3);
    /// Only memory capacities changed (validation-only: with a fixed
    /// legal mapping, capacity never enters the latency arithmetic).
    pub const CAPACITY: Self = Self(1 << 4);
    /// Every group — forces a full rebuild.
    pub const ALL: Self = Self(0b1_1111);

    /// The union of two deltas.
    #[must_use]
    pub fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// True when any group of `other` is present in `self`.
    pub fn intersects(self, other: Self) -> bool {
        self.0 & other.0 != 0
    }

    /// True when every group of `other` is present in `self`.
    pub fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when nothing changed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Classifies the difference between two architectures into input
    /// groups by comparing exactly the fields the lowering pipeline
    /// reads. Cosmetic differences (names) map to [`NONE`](Self::NONE).
    pub fn between(a: &Architecture, b: &Architecture) -> Self {
        let (ha, hb) = (a.hierarchy(), b.hierarchy());
        if a.mac_array() != b.mac_array()
            || a.stall_integration() != b.stall_integration()
            || ha.memories().len() != hb.memories().len()
        {
            return Self::ARCH_STRUCTURE
                .union(Self::BANDWIDTH)
                .union(Self::CAPACITY);
        }
        let mut d = Self::NONE;
        for (ma, mb) in ha.memories().iter().zip(hb.memories()) {
            if ma.kind() != mb.kind()
                || ma.is_double_buffered() != mb.is_double_buffered()
                || ma.is_backing_store() != mb.is_backing_store()
                || ma.replication() != mb.replication()
                || ma.ports().len() != mb.ports().len()
                || ma
                    .ports()
                    .iter()
                    .zip(mb.ports())
                    .any(|(p, q)| p.dir != q.dir)
            {
                d = d.union(Self::ARCH_STRUCTURE);
            }
            if ma.capacity_bits() != mb.capacity_bits() {
                d = d.union(Self::CAPACITY);
            }
            if ma
                .ports()
                .iter()
                .zip(mb.ports())
                .any(|(p, q)| p.bw_bits != q.bw_bits)
            {
                d = d.union(Self::BANDWIDTH);
            }
        }
        for op in Operand::all() {
            if ha.chain(op) != hb.chain(op) {
                d = d.union(Self::ARCH_STRUCTURE);
                continue;
            }
            for &id in ha.chain(op) {
                for usage in [PortUse::ReadOut, PortUse::WriteIn] {
                    if ha.port(id, op, usage).0 != hb.port(id, op, usage).0 {
                        d = d.union(Self::ARCH_STRUCTURE);
                    }
                }
            }
        }
        d
    }
}

impl std::ops::BitOr for InputDelta {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

/// The named stages of the lowering pipeline, in build order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The per-`(operand, level)` residency/turnaround tables, the
    /// loops-above arena and the layer scalars (`CC_ideal`,
    /// `CC_spatial`, spatial stall).
    Residency,
    /// The per-operand compute feed rates (`words_per_cycle`).
    FeedRates,
    /// The pre-load / off-load phase cycle counts.
    Phases,
    /// The Step-1 DTL graph with its bandwidth-dependent columns
    /// (`RealBW`, `X_REAL`, `SS_u`).
    DtlGraph,
}

impl Stage {
    /// Every stage, in build order.
    pub const ALL: [Stage; 4] = [
        Stage::Residency,
        Stage::FeedRates,
        Stage::Phases,
        Stage::DtlGraph,
    ];

    /// The input groups this stage reads: the stage must be rebuilt
    /// exactly when the delta intersects this set.
    ///
    /// Always the union of the architecture-constant and the
    /// workload-varying groups — the two-phase partial-evaluation split
    /// declared below.
    pub fn reads(self) -> InputDelta {
        self.arch_constant().union(self.workload_varying())
    }

    /// The subset of this stage's inputs that is **architecture-constant**
    /// for a fixed `(architecture, mapping shape)` pair: the groups a
    /// [`SpecializedModel`](crate::surrogate::SpecializedModel) folds into
    /// tables once at specialization time. A delta in these groups
    /// invalidates the specialization itself, never an individual query.
    fn arch_constant(self) -> InputDelta {
        match self {
            Stage::Residency => InputDelta::ARCH_STRUCTURE,
            Stage::FeedRates => InputDelta::NONE,
            Stage::Phases | Stage::DtlGraph => {
                InputDelta::ARCH_STRUCTURE.union(InputDelta::BANDWIDTH)
            }
        }
    }

    /// The subset of this stage's inputs that **varies per query** under a
    /// fixed specialization: workload dims and the mapping bounds derived
    /// from them. These are the only inputs the surrogate's per-query
    /// kernel re-reads; everything else comes from the folded tables.
    fn workload_varying(self) -> InputDelta {
        InputDelta::WORKLOAD.union(InputDelta::MAPPING)
    }
}

/// What [`rebuild_dirty`](crate::LoweredLayer::rebuild_dirty) actually
/// did: how many of the four pipeline stages
/// ran versus how many were reused untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebuildStats {
    /// Stages recomputed.
    pub stages_rebuilt: u32,
    /// Stages reused from the previous lowering.
    pub stages_skipped: u32,
}

impl RebuildStats {
    /// A from-scratch rebuild of every stage.
    pub fn full() -> Self {
        Self {
            stages_rebuilt: Stage::ALL.len() as u32,
            stages_skipped: 0,
        }
    }

    /// True when nothing was reused.
    pub fn was_full_rebuild(&self) -> bool {
        self.stages_skipped == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;

    #[test]
    fn set_algebra() {
        let d = InputDelta::BANDWIDTH | InputDelta::CAPACITY;
        assert!(d.intersects(InputDelta::BANDWIDTH));
        assert!(d.contains(InputDelta::CAPACITY));
        assert!(!d.intersects(InputDelta::MAPPING));
        assert!(InputDelta::NONE.is_empty());
        assert!(InputDelta::ALL.contains(d));
    }

    #[test]
    fn arch_workload_split_partitions_every_read_set() {
        for s in Stage::ALL {
            // The two declared halves reassemble the read set exactly...
            assert_eq!(s.reads(), s.arch_constant().union(s.workload_varying()));
            // ...and are disjoint: an input is folded or per-query, never both.
            assert!(!s.arch_constant().intersects(s.workload_varying()));
            // Capacity is in neither half: it gates legality, not latency.
            assert!(!s.reads().intersects(InputDelta::CAPACITY));
        }
    }

    #[test]
    fn stage_read_sets_are_ordered_by_volatility() {
        // Bandwidth invalidates only the bandwidth-reading stages.
        for s in Stage::ALL {
            let bw_dirty = s.reads().intersects(InputDelta::BANDWIDTH);
            assert_eq!(bw_dirty, matches!(s, Stage::Phases | Stage::DtlGraph));
            // Capacity invalidates nothing.
            assert!(!s.reads().intersects(InputDelta::CAPACITY));
            // Workload and mapping invalidate everything.
            assert!(s.reads().intersects(InputDelta::WORKLOAD));
            assert!(s.reads().intersects(InputDelta::MAPPING));
        }
    }

    #[test]
    fn between_classifies_bandwidth_and_capacity() {
        let base = presets::case_study_chip(128);
        assert!(InputDelta::between(&base, &base).is_empty());

        let mut bw = base.clone();
        let gb = bw.hierarchy().find("GB").unwrap();
        let n = bw.hierarchy().mem(gb).ports().len();
        for p in 0..n {
            let old = bw.hierarchy().mem(gb).ports()[p].bw_bits;
            bw.hierarchy_mut()
                .mem_mut(gb)
                .set_port_bandwidth(p, old * 2);
        }
        assert_eq!(InputDelta::between(&base, &bw), InputDelta::BANDWIDTH);

        let mut cap = base.clone();
        let old = cap.hierarchy().mem(gb).capacity_bits();
        cap.hierarchy_mut().mem_mut(gb).set_capacity_bits(old * 2);
        assert_eq!(InputDelta::between(&base, &cap), InputDelta::CAPACITY);
    }
}
