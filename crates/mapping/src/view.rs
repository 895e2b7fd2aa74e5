//! [`MappedLayer`]: a validated (layer, architecture, mapping) binding
//! exposing all derived quantities.

use crate::{Mapping, MappingError};
use ulm_arch::{Architecture, MemoryId};
use ulm_workload::{DimSizes, Layer, Operand};

/// A layer bound to an architecture through a legal mapping.
///
/// Construction validates spatial fit, allocation shape, loop coverage and
/// memory capacity; afterwards every derived quantity of the paper's model
/// is available per `(operand, level)`:
///
/// * [`mem_data_words`](Self::mem_data_words) — `Mem_DATA`;
/// * [`mem_cc`](Self::mem_cc) — `Mem_CC` (turnaround cycles);
/// * [`z`](Self::z) — the number of periods `Z`;
/// * [`top_ir_run`](Self::top_ir_run) — the `ReqBW` multiplier of Table I;
/// * [`has_ir_above`](Self::has_ir_above) /
///   [`outputs_final_above`](Self::outputs_final_above) — partial-sum
///   round-trip visibility;
/// * [`refill_count`](Self::refill_count) — exact distinct-block transfer
///   counts for the energy model and the reference simulator.
pub struct MappedLayer<'a> {
    layer: &'a Layer,
    arch: &'a Architecture,
    mapping: &'a Mapping,
}

impl<'a> MappedLayer<'a> {
    /// Binds and validates.
    ///
    /// # Errors
    ///
    /// Returns the first [`MappingError`] found: spatial overflow,
    /// allocation/chain shape mismatch, unallocated loops, dimension
    /// under-coverage, or memory over-capacity (backing-store memories are
    /// exempt from the capacity check).
    pub fn new(
        layer: &'a Layer,
        arch: &'a Architecture,
        mapping: &'a Mapping,
    ) -> Result<Self, MappingError> {
        let v = Self {
            layer,
            arch,
            mapping,
        };
        v.validate()?;
        Ok(v)
    }

    /// Binds and validates like [`new`](Self::new), but reports failure
    /// as `None` instead of building a [`MappingError`] (whose payloads
    /// allocate), and reuses `residency` as scratch for the capacity
    /// check. This accepts exactly the mappings `new` accepts; it is the
    /// constructor the mapper's allocation-free search path uses.
    pub fn new_fast(
        layer: &'a Layer,
        arch: &'a Architecture,
        mapping: &'a Mapping,
        residency: &mut Vec<u64>,
    ) -> Option<Self> {
        let v = Self {
            layer,
            arch,
            mapping,
        };
        v.validate_fast(residency).then_some(v)
    }

    fn validate_fast(&self, residency: &mut Vec<u64>) -> bool {
        let macs = self.arch.mac_array().num_macs();
        if self.mapping.spatial().product() > macs {
            return false;
        }
        let h = self.arch.hierarchy();
        let total = self.mapping.stack().len();
        for op in Operand::all() {
            let chain = h.chain(op);
            let alloc = self.mapping.alloc(op);
            if alloc.levels() != chain.len() || alloc.top() != total {
                return false;
            }
        }
        for (dim, required) in self.layer.shape().dims().iter() {
            let mapped = self.mapping.spatial().extent(dim) * self.mapping.stack().extent(dim);
            if mapped < required {
                return false;
            }
        }
        self.fill_residency(residency);
        for (i, &needed_bits) in residency.iter().enumerate() {
            let mem = h.mem(MemoryId(i));
            if !mem.is_backing_store() && needed_bits > mem.mapper_capacity_bits() {
                return false;
            }
        }
        true
    }

    /// Bits resident per physical memory, summed over the operands it
    /// holds, indexed by memory id.
    fn fill_residency(&self, residency: &mut Vec<u64>) {
        let h = self.arch.hierarchy();
        residency.clear();
        residency.resize(h.memories().len(), 0);
        for op in Operand::all() {
            for (lvl, &mid) in h.chain(op).iter().enumerate() {
                residency[mid.0] += self.mem_data_bits(op, lvl);
            }
        }
    }

    fn validate(&self) -> Result<(), MappingError> {
        let macs = self.arch.mac_array().num_macs();
        let product = self.mapping.spatial().product();
        if product > macs {
            return Err(MappingError::SpatialOverflow { product, macs });
        }
        let h = self.arch.hierarchy();
        let total = self.mapping.stack().len();
        for op in Operand::all() {
            let chain = h.chain(op);
            let alloc = self.mapping.alloc(op);
            if alloc.levels() != chain.len() {
                return Err(MappingError::LevelsMismatch {
                    operand: op,
                    expected: chain.len(),
                    got: alloc.levels(),
                });
            }
            if alloc.top() != total {
                return Err(MappingError::UnallocatedLoops {
                    operand: op,
                    allocated: alloc.top(),
                    total,
                });
            }
        }
        // Coverage: spatial x temporal extent >= layer bound per dim.
        for (dim, required) in self.layer.shape().dims().iter() {
            let mapped = self.mapping.spatial().extent(dim) * self.mapping.stack().extent(dim);
            if mapped < required {
                return Err(MappingError::Coverage {
                    dim,
                    required,
                    mapped,
                });
            }
        }
        // Capacity, checked in memory-id order so a mapping that overflows
        // several memories names the same one on every run.
        let mut residency = Vec::new();
        self.fill_residency(&mut residency);
        for (i, needed_bits) in residency.into_iter().enumerate() {
            let mem = h.mem(MemoryId(i));
            if mem.is_backing_store() {
                continue;
            }
            let available_bits = mem.mapper_capacity_bits();
            if needed_bits > available_bits {
                return Err(MappingError::CapacityExceeded {
                    memory: mem.name().to_string(),
                    needed_bits,
                    available_bits,
                });
            }
        }
        Ok(())
    }

    /// The bound layer.
    pub fn layer(&self) -> &Layer {
        self.layer
    }

    /// The bound architecture.
    pub fn arch(&self) -> &Architecture {
        self.arch
    }

    /// The bound mapping.
    pub fn mapping(&self) -> &Mapping {
        self.mapping
    }

    // ------------------------------------------------------------------
    // Computation-phase scenario quantities (Fig. 1b).
    // ------------------------------------------------------------------

    /// `CC_ideal = total MAC ops / MAC array size` (may be fractional).
    pub fn cc_ideal(&self) -> f64 {
        self.layer.total_macs() as f64 / self.arch.mac_array().num_macs() as f64
    }

    /// `CC_ideal` rounded up to whole cycles.
    pub fn cc_ideal_cycles(&self) -> u64 {
        self.cc_ideal().ceil() as u64
    }

    /// `CC_spatial`: the temporal iteration count — computation latency
    /// with all stalls hidden but spatial under-utilization included.
    pub fn cc_spatial(&self) -> u64 {
        self.mapping.stack().total_cycles()
    }

    /// Spatial stall: `CC_spatial − CC_ideal` (Fig. 1b).
    pub fn spatial_stall(&self) -> f64 {
        self.cc_spatial() as f64 - self.cc_ideal()
    }

    // ------------------------------------------------------------------
    // Per-(operand, level) derived quantities.
    // ------------------------------------------------------------------

    /// Combined spatial+temporal loop extents at levels `<= level` of
    /// `op`'s chain.
    pub fn extents_at(&self, op: Operand, level: usize) -> DimSizes {
        let p = self.mapping.alloc(op).upper(level);
        let mut ext = self.mapping.spatial().extents();
        for (d, s) in self.mapping.stack().prefix_extents(p).iter() {
            ext.multiply(d, s);
        }
        ext
    }

    /// `Mem_DATA` in words: data of `op` resident at `level`.
    pub fn mem_data_words(&self, op: Operand, level: usize) -> u64 {
        self.layer.data_words(op, &self.extents_at(op, level))
    }

    /// `Mem_DATA` in bits (outputs at partial-sum precision — their
    /// resident width).
    fn mem_data_bits(&self, op: Operand, level: usize) -> u64 {
        self.mem_data_words(op, level) * self.layer.precision().bits(op)
    }

    /// `Mem_CC`: the turnaround period of `op`'s block at `level` — the
    /// product of all temporal loop sizes at levels `<= level`.
    pub fn mem_cc(&self, op: Operand, level: usize) -> u64 {
        self.mapping
            .stack()
            .prefix_cycles(self.mapping.alloc(op).upper(level))
    }

    /// `Z`: number of periods = total temporal cycles / `Mem_CC`.
    pub fn z(&self, op: Operand, level: usize) -> u64 {
        self.cc_spatial() / self.mem_cc(op, level)
    }

    /// Product of the *consecutive run* of loops irrelevant to `op` at the
    /// **top of `level`'s own loop range** — the `ReqBW` scale factor of
    /// Table I for non-double-buffered memories ("this minimum BW
    /// requirement needs to be scaled up by all top ir loop sizes").
    ///
    /// Returns 1 when the level's topmost loop is relevant or the level
    /// holds no loops.
    pub fn top_ir_run(&self, op: Operand, level: usize) -> u64 {
        let rel = self.layer.operand_relevance(op);
        let range = self.mapping.alloc(op).loops_at(level);
        let mut run = 1u64;
        for l in self.mapping.stack().loops()[range].iter().rev() {
            if rel.get(l.dim).is_irrelevant() {
                run *= l.size;
            } else {
                break;
            }
        }
        run
    }

    /// True if any loop *above* `level` in `op`'s allocation is irrelevant
    /// to `op`. For outputs this means the blocks leaving `level` are
    /// still partial sums that must return for further accumulation.
    pub fn has_ir_above(&self, op: Operand, level: usize) -> bool {
        let rel = self.layer.operand_relevance(op);
        let from = self.mapping.alloc(op).upper(level);
        self.mapping.stack().loops()[from..]
            .iter()
            .any(|l| rel.get(l.dim).is_irrelevant())
    }

    /// True when outputs crossing the interface above `level` are final
    /// (fully accumulated): no O-irrelevant loop remains above.
    pub fn outputs_final_above(&self, level: usize) -> bool {
        !self.has_ir_above(Operand::O, level)
    }

    /// Exact number of *distinct-content* block transfers into (W/I) or
    /// out of (O) `op`'s `level` over the whole layer.
    ///
    /// Walking the loops above `level` from innermost to outermost: a
    /// relevant loop multiplies the block count; an irrelevant loop
    /// multiplies it only if some relevant loop sits below it (it then
    /// *revisits* previously seen blocks), otherwise the block is simply
    /// reused in place and no transfer happens.
    ///
    /// For a canonical (greedily allocated) mapping this equals
    /// [`z`](Self::z); the analytical model uses `Z` per the paper, and
    /// the energy model and simulator use this exact count.
    pub fn refill_count(&self, op: Operand, level: usize) -> u64 {
        let rel = self.layer.operand_relevance(op);
        let from = self.mapping.alloc(op).upper(level);
        let mut count = 1u64;
        let mut seen_relevant = false;
        for l in self.mapping.stack().loops()[from..].iter() {
            if rel.get(l.dim).is_relevant() {
                count *= l.size;
                seen_relevant = true;
            } else if seen_relevant {
                count *= l.size;
            }
        }
        count
    }

    /// Number of *distinct* blocks of `op` seen above `level` (ignoring
    /// revisits): the product of relevant loop sizes above the level.
    pub fn distinct_blocks_above(&self, op: Operand, level: usize) -> u64 {
        let rel = self.layer.operand_relevance(op);
        let from = self.mapping.alloc(op).upper(level);
        self.mapping.stack().loops()[from..]
            .iter()
            .filter(|l| rel.get(l.dim).is_relevant())
            .map(|l| l.size)
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoopStack, OperandAlloc, SpatialUnroll};
    use ulm_arch::presets;
    use ulm_workload::{Dim, PerOperand, Precision};

    fn toy_setup() -> (ulm_arch::presets::PresetChip, Layer) {
        (
            presets::toy_chip(),
            Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24()),
        )
    }

    /// Toy mapping: spatial K2|B2, stack (inner->outer) C8, B2, K2.
    fn toy_mapping(chip: &ulm_arch::presets::PresetChip, layer: &Layer) -> Mapping {
        Mapping::with_greedy_alloc(
            &chip.arch,
            layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
        )
        .expect("fits")
    }

    #[test]
    fn scenario_quantities() {
        let (chip, layer) = toy_setup();
        let m = toy_mapping(&chip, &layer);
        let v = MappedLayer::new(&layer, &chip.arch, &m).unwrap();
        assert_eq!(v.cc_spatial(), 32);
        assert_eq!(v.cc_ideal_cycles(), 32); // 128 MACs / 4 = 32: fully mapped
        assert_eq!(v.spatial_stall(), 0.0);
    }

    #[test]
    fn mem_data_and_mem_cc() {
        let (chip, layer) = toy_setup();
        let m = toy_mapping(&chip, &layer);
        let v = MappedLayer::new(&layer, &chip.arch, &m).unwrap();
        // W regs: no temporal loops -> block = spatial K2 = 2 words.
        assert_eq!(v.mem_data_words(Operand::W, 0), 2);
        assert_eq!(v.mem_cc(Operand::W, 0), 1);
        assert_eq!(v.z(Operand::W, 0), 32);
        // O regs absorb C8 (irrelevant): block stays K2xB2 = 4 words but
        // the period becomes 8 cycles.
        assert_eq!(v.mem_data_words(Operand::O, 0), 4);
        assert_eq!(v.mem_cc(Operand::O, 0), 8);
        assert_eq!(v.z(Operand::O, 0), 4);
        // Top level holds the full tensors.
        assert_eq!(v.mem_data_words(Operand::W, 1), 4 * 8);
        assert_eq!(v.mem_cc(Operand::W, 1), 32);
    }

    #[test]
    fn top_ir_run_detects_keep_out_scale() {
        let (chip, layer) = toy_setup();
        let m = toy_mapping(&chip, &layer);
        let v = MappedLayer::new(&layer, &chip.arch, &m).unwrap();
        // O-Reg's own loops: [C8]; C is irrelevant to O -> run = 8.
        assert_eq!(v.top_ir_run(Operand::O, 0), 8);
        // W-Reg holds no loops -> run = 1.
        assert_eq!(v.top_ir_run(Operand::W, 0), 1);
        // Top level of W holds C8,B2,K2; topmost K2 is relevant -> 1.
        assert_eq!(v.top_ir_run(Operand::W, 1), 1);
    }

    #[test]
    fn ir_above_and_output_finality() {
        let (chip, layer) = toy_setup();
        let m = toy_mapping(&chip, &layer);
        let v = MappedLayer::new(&layer, &chip.arch, &m).unwrap();
        // Above O-Reg (loops B2,K2) nothing is irrelevant to O -> final.
        assert!(v.outputs_final_above(0));
        // Above W-Reg: C8 (r), B2 (ir), K2 (r) -> ir present.
        assert!(v.has_ir_above(Operand::W, 0));
    }

    #[test]
    fn refill_counts_collapse_pure_reuse() {
        let (chip, layer) = toy_setup();
        // Stack (inner->outer): C8, B2, K2; W-Reg takes nothing.
        let m = toy_mapping(&chip, &layer);
        let v = MappedLayer::new(&layer, &chip.arch, &m).unwrap();
        // W above regs: C8 (r) -> x8, B2 (ir after r) -> x2 (revisit),
        // K2 (r) -> x2. Total 32 = Z: canonical.
        assert_eq!(v.refill_count(Operand::W, 0), 32);
        assert_eq!(v.z(Operand::W, 0), 32);
        // O above regs: loops B2 (r), K2 (r) -> 4 drains, no revisits.
        assert_eq!(v.refill_count(Operand::O, 0), 4);
        assert_eq!(v.distinct_blocks_above(Operand::O, 0), 4);
    }

    #[test]
    fn non_canonical_alloc_overcounts() {
        let (chip, layer) = toy_setup();
        // Force W-Reg to hold nothing while B2 (ir for W) sits directly
        // above: stack B2 innermost; greedy would absorb it, we don't.
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let stack = LoopStack::from_pairs(&[(Dim::B, 2), (Dim::C, 8), (Dim::K, 2)]);
        let allocs = PerOperand::new(
            OperandAlloc::new(vec![0, 3]), // W: non-canonical
            OperandAlloc::new(vec![0, 3]),
            OperandAlloc::new(vec![0, 3]),
        );
        let m = Mapping::new(spatial, stack, allocs);
        let v = MappedLayer::new(&layer, &chip.arch, &m).unwrap();
        // Z counts 32 periods but only 16 carry new data.
        assert_eq!(v.z(Operand::W, 0), 32);
        assert_eq!(v.refill_count(Operand::W, 0), 16);
    }

    #[test]
    fn validation_rejects_bad_mappings() {
        let (chip, layer) = toy_setup();
        // Spatial overflow.
        let m = Mapping::new(
            SpatialUnroll::new(vec![(Dim::K, 64)]),
            LoopStack::empty(),
            PerOperand::from_fn(|_| OperandAlloc::new(vec![0, 0])),
        );
        assert!(matches!(
            MappedLayer::new(&layer, &chip.arch, &m),
            Err(MappingError::SpatialOverflow { .. })
        ));
        // Coverage shortfall: nothing iterates C=8.
        let m = Mapping::new(
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::B, 2), (Dim::K, 2)]),
            PerOperand::from_fn(|_| OperandAlloc::new(vec![0, 2])),
        );
        assert!(matches!(
            MappedLayer::new(&layer, &chip.arch, &m),
            Err(MappingError::Coverage { dim: Dim::C, .. })
        ));
        // Wrong level count.
        let m = Mapping::new(
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
            PerOperand::from_fn(|_| OperandAlloc::flat(3)),
        );
        assert!(matches!(
            MappedLayer::new(&layer, &chip.arch, &m),
            Err(MappingError::LevelsMismatch { .. })
        ));
        // Unallocated loops.
        let m = Mapping::new(
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
            PerOperand::from_fn(|_| OperandAlloc::new(vec![0, 2])),
        );
        assert!(matches!(
            MappedLayer::new(&layer, &chip.arch, &m),
            Err(MappingError::UnallocatedLoops { .. })
        ));
        // Capacity: cram everything into the W regs.
        let m = Mapping::new(
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
            PerOperand::new(
                OperandAlloc::new(vec![3, 3]),
                OperandAlloc::new(vec![0, 3]),
                OperandAlloc::new(vec![1, 3]),
            ),
        );
        assert!(matches!(
            MappedLayer::new(&layer, &chip.arch, &m),
            Err(MappingError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn overflowing_several_memories_names_the_same_one_every_time() {
        // Every register file holds the whole loop stack, so W-Reg, I-Reg
        // and O-Reg all overflow; the error must name the lowest id.
        let (chip, layer) = toy_setup();
        let m = Mapping::new(
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
            PerOperand::from_fn(|_| OperandAlloc::new(vec![3, 3])),
        );
        for _ in 0..50 {
            let err = MappedLayer::new(&layer, &chip.arch, &m).err().unwrap();
            assert_eq!(
                err.to_string(),
                "memory `W-Reg` holds 256 bits but offers 16"
            );
        }
    }

    #[test]
    fn conv_layer_input_halo_in_mem_data() {
        // A real conv checks the partial-relevance path end to end.
        let chip = presets::toy_chip();
        let layer = Layer::conv2d(
            "c",
            ulm_workload::LayerShape::conv(2, 2, 2, 4, 4, 3, 3),
            Precision::int8_acc24(),
        );
        // Spatial K2|B2 covers K and B; temporal: OX4, OY4, C2, FY3, FX3.
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let stack = LoopStack::from_pairs(&[
            (Dim::FX, 3),
            (Dim::FY, 3),
            (Dim::OX, 4),
            (Dim::OY, 4),
            (Dim::C, 2),
        ]);
        let m = Mapping::with_greedy_alloc(&chip.arch, &layer, spatial, stack).unwrap();
        let v = MappedLayer::new(&layer, &chip.arch, &m).unwrap();
        // Full input at the top: B2 x C2 x iy6 x ix6.
        assert_eq!(v.mem_data_words(Operand::I, 1), 2 * 2 * 6 * 6);
    }
}
