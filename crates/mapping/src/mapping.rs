//! The [`Mapping`] triple and mapping legality errors.

use crate::{LoopStack, OperandAlloc, SpatialUnroll};
use std::error::Error;
use std::fmt;
use ulm_arch::Architecture;
use ulm_workload::{Dim, Layer, Operand, PerOperand};

/// Reasons a mapping is illegal for a given layer/architecture pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// The spatial unrolling needs more MACs than the array has.
    SpatialOverflow {
        /// MACs the unrolling occupies.
        product: u64,
        /// MACs available.
        macs: u64,
    },
    /// An operand's allocation has a different level count than its
    /// memory chain.
    LevelsMismatch {
        /// The operand.
        operand: Operand,
        /// Levels in the architecture chain.
        expected: usize,
        /// Levels in the allocation.
        got: usize,
    },
    /// An operand's allocation does not place every loop.
    UnallocatedLoops {
        /// The operand.
        operand: Operand,
        /// Loops its top level reaches.
        allocated: usize,
        /// Loops in the stack.
        total: usize,
    },
    /// The mapping iterates a dimension fewer times than the layer needs.
    Coverage {
        /// The under-covered dimension.
        dim: Dim,
        /// The layer's bound.
        required: u64,
        /// spatial x temporal extent provided.
        mapped: u64,
    },
    /// A memory level cannot hold the data the mapping assigns to it.
    CapacityExceeded {
        /// The memory's name.
        memory: String,
        /// Bits the mapping needs resident.
        needed_bits: u64,
        /// Mapper-visible capacity.
        available_bits: u64,
    },
    /// Greedy allocation failed: a level cannot hold even the block
    /// arriving from the level below.
    InfeasibleLevel {
        /// The operand being allocated.
        operand: Operand,
        /// The memory's name.
        memory: String,
        /// Bits of the incoming block.
        needed_bits: u64,
        /// Mapper-visible capacity (after sharing).
        available_bits: u64,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::SpatialOverflow { product, macs } => {
                write!(
                    f,
                    "spatial unrolling needs {product} MACs but the array has {macs}"
                )
            }
            MappingError::LevelsMismatch {
                operand,
                expected,
                got,
            } => write!(
                f,
                "operand {operand} allocation has {got} levels, chain has {expected}"
            ),
            MappingError::UnallocatedLoops {
                operand,
                allocated,
                total,
            } => write!(
                f,
                "operand {operand} allocation covers {allocated} of {total} loops"
            ),
            MappingError::Coverage {
                dim,
                required,
                mapped,
            } => write!(
                f,
                "dimension {dim} needs {required} iterations, mapping provides {mapped}"
            ),
            MappingError::CapacityExceeded {
                memory,
                needed_bits,
                available_bits,
            } => write!(
                f,
                "memory `{memory}` holds {needed_bits} bits but offers {available_bits}"
            ),
            MappingError::InfeasibleLevel {
                operand,
                memory,
                needed_bits,
                available_bits,
            } => write!(
                f,
                "operand {operand}: block of {needed_bits} bits cannot enter memory \
                 `{memory}` ({available_bits} bits visible)"
            ),
        }
    }
}

impl Error for MappingError {}

/// A complete mapping: spatial unrolling + temporal loop stack + one
/// loop-to-level allocation per operand.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Mapping {
    spatial: SpatialUnroll,
    stack: LoopStack,
    allocs: PerOperand<OperandAlloc>,
}

impl Mapping {
    /// Assembles a mapping from explicit parts. Structural consistency
    /// against a layer/architecture is checked by
    /// [`MappedLayer::new`](crate::MappedLayer::new).
    pub fn new(spatial: SpatialUnroll, stack: LoopStack, allocs: PerOperand<OperandAlloc>) -> Self {
        Self {
            spatial,
            stack,
            allocs,
        }
    }

    /// Builds a mapping by allocating loops to memory levels greedily for
    /// each operand: every level takes the longest loop prefix whose data
    /// footprint fits its (shared-capacity-adjusted) mapper-visible size;
    /// the top level takes the rest.
    ///
    /// Greedy maximal allocation is optimal under this model — holding
    /// data lower never increases traffic — and it is *canonical*: a loop
    /// irrelevant to the operand costs no capacity, so it is absorbed into
    /// the lowest level it can sit above, which keeps `Z` equal to the
    /// true refill count.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InfeasibleLevel`] when some level cannot
    /// hold even the block the level below requires.
    pub fn with_greedy_alloc(
        arch: &Architecture,
        layer: &Layer,
        spatial: SpatialUnroll,
        stack: LoopStack,
    ) -> Result<Self, MappingError> {
        let h = arch.hierarchy();
        let mut allocs = PerOperand::from_fn(|_| OperandAlloc::flat(0));
        for op in Operand::all() {
            let chain = h.chain(op);
            let mut bounds = Vec::with_capacity(chain.len());
            let mut prev = 0usize;
            for (lvl, &mid) in chain.iter().enumerate() {
                let mem = h.mem(mid);
                let is_top = lvl + 1 == chain.len();
                if is_top {
                    bounds.push(stack.len());
                    break;
                }
                let sharers = h.served_operand_count(mid) as u64;
                let cap = mem.mapper_capacity_bits() / sharers;
                let data_bits = |p: usize| -> u64 {
                    let mut ext = spatial.extents();
                    for (d, s) in stack.prefix_extents(p).iter() {
                        ext.multiply(d, s);
                    }
                    layer.data_words(op, &ext) * layer.precision().bits(op)
                };
                if data_bits(prev) > cap {
                    return Err(MappingError::InfeasibleLevel {
                        operand: op,
                        memory: mem.name().to_string(),
                        needed_bits: data_bits(prev),
                        available_bits: cap,
                    });
                }
                let mut p = prev;
                while p < stack.len() && data_bits(p + 1) <= cap {
                    p += 1;
                }
                bounds.push(p);
                prev = p;
            }
            *allocs.get_mut(op) = OperandAlloc::new(bounds);
        }
        Ok(Self {
            spatial,
            stack,
            allocs,
        })
    }

    /// The spatial unrolling.
    pub fn spatial(&self) -> &SpatialUnroll {
        &self.spatial
    }

    /// The temporal loop stack (innermost first).
    pub fn stack(&self) -> &LoopStack {
        &self.stack
    }

    /// The per-operand loop-to-level allocations.
    pub fn allocs(&self) -> &PerOperand<OperandAlloc> {
        &self.allocs
    }

    /// The allocation of one operand.
    pub fn alloc(&self, op: Operand) -> &OperandAlloc {
        self.allocs.get(op)
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spatial[{}] temporal[{}]", self.spatial, self.stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoopStack, SpatialUnroll};
    use ulm_arch::presets;
    use ulm_workload::Precision;

    #[test]
    fn greedy_alloc_fills_low_levels_first() {
        let chip = presets::toy_chip();
        // Toy regs: W-Reg/I-Reg hold 2 distinct words (4 regs, 2x repl.).
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        // C8 innermost, then B2, K2.
        let stack = LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let m = Mapping::with_greedy_alloc(&chip.arch, &layer, spatial, stack).expect("fits");
        // W at regs: spatial W words = K2 = 2 -> adding C8 would need 16
        // words > 2, so the reg level holds no temporal loop for W.
        assert_eq!(m.alloc(Operand::W).upper(0), 0);
        // O at regs: spatial O words = K2*B2 = 4 > capacity 4*24b? The
        // O-Reg holds 4 words, C8 is irrelevant to O (free), B2/K2 grow
        // the footprint beyond 4 -> bound stops after absorbing C8.
        assert_eq!(m.alloc(Operand::O).upper(0), 1);
        // Top level takes everything.
        assert_eq!(m.alloc(Operand::W).top(), 3);
        assert_eq!(m.alloc(Operand::O).top(), 3);
    }

    #[test]
    fn greedy_alloc_absorbs_irrelevant_loops() {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        // B2 innermost: irrelevant to W, so W-Reg absorbs it for free.
        let stack = LoopStack::from_pairs(&[(Dim::B, 2), (Dim::C, 8), (Dim::K, 2)]);
        let m = Mapping::with_greedy_alloc(&chip.arch, &layer, spatial, stack).expect("fits");
        assert_eq!(m.alloc(Operand::W).upper(0), 1);
    }

    #[test]
    fn infeasible_level_reported() {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        // Unroll nothing spatially except an enormous K: W spatial block
        // alone (K=4 words with K4 unroll... ) — instead make the reg
        // level impossible by unrolling OX on a conv-less matmul? Simplest:
        // spatial K4 x B4 does not exceed MACs=4? It does; use a layer
        // whose spatial block exceeds the reg: spatial K2|B2 with huge
        // per-word precision.
        let fat = Layer::matmul("fat", 4, 4, 8, Precision::uniform(64));
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let stack = LoopStack::from_pairs(&[(Dim::C, 8)]);
        let err = Mapping::with_greedy_alloc(&chip.arch, &fat, spatial, stack).unwrap_err();
        assert!(matches!(err, MappingError::InfeasibleLevel { .. }), "{err}");
        let _ = layer;
    }

    #[test]
    fn display_mentions_both_parts() {
        let m = Mapping::new(
            SpatialUnroll::new(vec![(Dim::K, 2)]),
            LoopStack::from_pairs(&[(Dim::C, 8)]),
            PerOperand::from_fn(|_| OperandAlloc::flat(1)),
        );
        let s = m.to_string();
        assert!(s.contains("K 2") && s.contains("C 8"), "{s}");
    }
}
