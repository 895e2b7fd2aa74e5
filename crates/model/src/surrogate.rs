//! Arch-specialized surrogate models: partial evaluation of the lowering
//! pipeline for a fixed `(architecture, mapping shape)`.
//!
//! Every stage of the [`LoweredLayer`](crate::LoweredLayer) pipeline
//! declares which of its inputs are architecture-constant and which vary
//! per workload ([`Stage::reads`](crate::Stage::reads) is the union of
//! the two). A
//! [`SpecializedModel`] exploits that split: at
//! [`prepare`](SpecializedModel::prepare) time it constant-folds every
//! arch-dependent table the pipeline reads — the per-interface port LUTs,
//! link bandwidths and buffering flags — into flat slot tables, and at
//! [`query`](SpecializedModel::query) time it runs only the small
//! workload-dim kernel over them: re-derive the temporal bounds, reassign
//! the greedy allocation in place, rebuild the residency tables, and
//! price phases + DTLs off the folded slots.
//!
//! The result is **bit-identical to
//! [`evaluate_fast`](crate::LatencyModel::evaluate_fast) by
//! construction**: the folded tables are captured through the very
//! lookups the generic path performs, and both paths share one arithmetic
//! body per stage (see the crate-private `slots` module). The generic
//! path stays
//! available as the differential oracle
//! ([`query_oracle`](SpecializedModel::query_oracle)).

use crate::slots::FoldedSlots;
use crate::{FastLatency, LatencyModel, ModelScratch};
use std::fmt;
use ulm_arch::Architecture;
use ulm_mapping::{LoopStack, MappedLayer, Mapping, OperandAlloc, SpatialUnroll};
use ulm_workload::{Dim, DimSizes, Layer, LayerType};

/// Why a surrogate could not be prepared or a query could not be
/// answered. Carried by `UlmError::Surrogate` with `surrogate/*` codes.
#[derive(Debug, Clone, PartialEq)]
pub enum SurrogateError {
    /// The template layer's type cannot be expressed as `(B, K, C)`
    /// workload dims (only dense/matmul layers specialize).
    UnsupportedLayer {
        /// The offending layer's name.
        layer: String,
    },
    /// The temporal dim ordering is not a permutation of `B, K, C`.
    BadOrdering {
        /// The ordering as given.
        ordering: Vec<Dim>,
    },
    /// A query dim was zero.
    InvalidDims {
        /// The offending `(B, K, C)` query point.
        dims: (u64, u64, u64),
    },
    /// The greedy allocation found no level assignment: the first
    /// working set under this shape overflows an inner memory.
    Infeasible {
        /// The offending `(B, K, C)` query point.
        dims: (u64, u64, u64),
    },
    /// The reassigned mapping failed validation against the
    /// architecture (e.g. the spatial unroll overflows the MAC array).
    InvalidMapping {
        /// The offending `(B, K, C)` query point.
        dims: (u64, u64, u64),
    },
}

impl fmt::Display for SurrogateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SurrogateError::UnsupportedLayer { layer } => write!(
                f,
                "layer '{layer}' cannot be specialized: only dense/matmul \
                 layers have (B, K, C) workload dims"
            ),
            SurrogateError::BadOrdering { ordering } => write!(
                f,
                "temporal ordering {ordering:?} is not a permutation of B, K, C"
            ),
            SurrogateError::InvalidDims { dims } => {
                write!(f, "query dims {dims:?} contain a zero")
            }
            SurrogateError::Infeasible { dims } => write!(
                f,
                "no feasible greedy allocation for dims {dims:?} under this \
                 mapping shape (inner working set overflows a memory)"
            ),
            SurrogateError::InvalidMapping { dims } => write!(
                f,
                "reassigned mapping for dims {dims:?} failed validation \
                 against the architecture"
            ),
        }
    }
}

impl std::error::Error for SurrogateError {}

/// The workload-independent skeleton of a mapping: the spatial unroll
/// plus the temporal loop ordering (innermost first, one loop per dim).
/// A query point `(B, K, C)` instantiates it by giving each dim the
/// temporal bound `ceil(dim / spatial extent)` (unit loops are dropped)
/// and re-running the greedy level allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingShape {
    spatial: SpatialUnroll,
    ordering: Vec<Dim>,
}

impl MappingShape {
    /// Builds a shape from a spatial unroll and a temporal dim ordering
    /// (innermost first). The ordering must be a permutation of
    /// `B, K, C`.
    pub fn new(spatial: SpatialUnroll, ordering: Vec<Dim>) -> Result<Self, SurrogateError> {
        let mut seen = [false; 3];
        let mut ok = ordering.len() == 3;
        for &d in &ordering {
            match d {
                Dim::B => seen[0] = true,
                Dim::K => seen[1] = true,
                Dim::C => seen[2] = true,
                _ => ok = false,
            }
        }
        if !ok || !seen.iter().all(|&s| s) {
            return Err(SurrogateError::BadOrdering { ordering });
        }
        Ok(Self { spatial, ordering })
    }

    /// Derives a shape from an existing mapping: its spatial unroll and
    /// its stack's dim order of first appearance (innermost first), with
    /// dims the stack never names appended outermost. Instantiating the
    /// shape at the original layer's dims reproduces mappings whose
    /// stack had one loop per dim (the common searched form).
    pub fn from_mapping(mapping: &Mapping) -> Result<Self, SurrogateError> {
        let mut ordering = Vec::with_capacity(3);
        for l in mapping.stack().loops() {
            if !ordering.contains(&l.dim) {
                ordering.push(l.dim);
            }
        }
        for d in [Dim::B, Dim::K, Dim::C] {
            if !ordering.contains(&d) {
                ordering.push(d);
            }
        }
        Self::new(mapping.spatial().clone(), ordering)
    }

    /// The spatial unroll.
    pub fn spatial(&self) -> &SpatialUnroll {
        &self.spatial
    }

    /// The temporal dim ordering, innermost first.
    pub fn ordering(&self) -> &[Dim] {
        &self.ordering
    }
}

impl fmt::Display for MappingShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} | temporal", self.spatial)?;
        for d in &self.ordering {
            write!(f, " {d:?}")?;
        }
        Ok(())
    }
}

/// Query-path counters of a [`SpecializedModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SurrogateStats {
    /// Successful queries answered.
    pub queries: u64,
    /// Queries whose Step-2 port grouping was reused from the previous
    /// query (the sorted endpoint keys were still valid).
    pub grouping_reused: u64,
    /// Queries that had to rebuild the port grouping from scratch (first
    /// query, or a dim change moved the DTL inventory).
    pub grouping_rebuilt: u64,
    /// Queries answered straight from the point memo: the exact
    /// `(B, K, C)` was already priced by this model, so the cached
    /// [`FastLatency`] is returned without touching any stage. Memo hits
    /// do not move the grouping counters
    /// (`grouping_reused + grouping_rebuilt + memo_hits == queries` for a
    /// bandwidth-aware model).
    pub memo_hits: u64,
}

/// A latency model partially evaluated for one
/// `(architecture, mapping shape)` pair.
///
/// Built once with [`prepare`](Self::prepare); answers workload-dim
/// queries with [`query`](Self::query). Holds its own clone of the
/// architecture (pass a calibrated one to specialize the calibrated
/// model — see [`crate::calibrate`]) and every scratch buffer the query
/// path needs, so steady-state queries allocate nothing.
#[derive(Debug)]
pub struct SpecializedModel {
    model: LatencyModel,
    arch: Architecture,
    shape: MappingShape,
    template: Layer,
    mapping: Mapping,
    slots: FoldedSlots,
    scratch: ModelScratch,
    residency: Vec<u64>,
    pairs: Vec<(Dim, u64)>,
    prefix: Vec<DimSizes>,
    stats: SurrogateStats,
    /// Answered points: `(B, K, C)` → the exact [`FastLatency`] the
    /// specialized kernel produced. The model is deterministic per
    /// instance (arch, shape, template and options are all fixed), so a
    /// repeated point returns the cached value bit-for-bit — this is the
    /// steady-state fast path for serve's repeated `surrogate` requests,
    /// which are never result-cached at the transport layer. Bounded by
    /// `MEMO_CAP`; beyond that, queries are still answered, just not
    /// remembered.
    memo: std::collections::HashMap<(u64, u64, u64), FastLatency>,
}

/// Upper bound on remembered points per [`SpecializedModel`] (~a few
/// hundred KiB at most; a full DSE b/k/c sweep fits comfortably).
const MEMO_CAP: usize = 1 << 14;

impl SpecializedModel {
    /// Partially evaluates `model` for `(arch, shape)`, folding every
    /// architecture-constant table the pipeline reads. `template`
    /// supplies the query-constant layer fields (type, precision,
    /// KV-cache flags); its dims are overwritten per query.
    pub fn prepare(
        model: LatencyModel,
        arch: &Architecture,
        template: &Layer,
        shape: MappingShape,
    ) -> Result<Self, SurrogateError> {
        if !matches!(template.layer_type(), LayerType::Dense | LayerType::Matmul) {
            return Err(SurrogateError::UnsupportedLayer {
                layer: template.name().to_string(),
            });
        }
        let slots = FoldedSlots::fold(arch.hierarchy());
        // Seed the reusable mapping with placeholder loops/allocs; every
        // query reassigns both in place before use.
        let mapping = Mapping::new(
            shape.spatial.clone(),
            LoopStack::from_pairs(&[]),
            ulm_workload::PerOperand::new(
                OperandAlloc::flat(0),
                OperandAlloc::flat(0),
                OperandAlloc::flat(0),
            ),
        );
        Ok(Self {
            model,
            arch: arch.clone(),
            shape,
            template: template.clone(),
            mapping,
            slots,
            scratch: ModelScratch::default(),
            residency: Vec::new(),
            pairs: Vec::new(),
            prefix: Vec::new(),
            stats: SurrogateStats::default(),
            memo: std::collections::HashMap::new(),
        })
    }

    /// The architecture this model is specialized for.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The mapping shape this model is specialized for.
    pub fn shape(&self) -> &MappingShape {
        &self.shape
    }

    /// Query-path counters so far.
    pub fn stats(&self) -> SurrogateStats {
        self.stats
    }

    /// Drops every remembered point (the counters keep their values).
    /// Subsequent queries run the specialized kernel again, once per
    /// distinct point — useful to bound a long-lived model's footprint,
    /// or to benchmark the kernel itself.
    pub fn clear_memo(&mut self) {
        self.memo.clear();
    }

    /// Instantiates the shape at `(b, k, c)`: writes the temporal bounds
    /// `ceil(dim / spatial extent)` into `pairs` (unit loops dropped) and
    /// the running extent products into `prefix`
    /// (`prefix[p]` = spatial × the `p` innermost temporal loops).
    fn instantiate(
        shape: &MappingShape,
        dims: (u64, u64, u64),
        pairs: &mut Vec<(Dim, u64)>,
        prefix: &mut Vec<DimSizes>,
    ) {
        let (b, k, c) = dims;
        let size = |d: Dim| match d {
            Dim::B => b,
            Dim::K => k,
            Dim::C => c,
            _ => 1,
        };
        pairs.clear();
        prefix.clear();
        let mut ext = shape.spatial.extents();
        prefix.push(ext);
        for &d in &shape.ordering {
            let bound = size(d).div_ceil(shape.spatial.extent(d));
            if bound > 1 {
                pairs.push((d, bound));
                ext.multiply(d, bound);
                prefix.push(ext);
            }
        }
    }

    /// Answers one workload point through the specialized kernel:
    /// temporal bounds → in-place greedy reallocation → residency/feed
    /// stages → phases + DTLs off the folded slots → Step 2 with the
    /// cached port grouping (full combine on the first query or when the
    /// DTL inventory moved). A point this model has already priced is
    /// answered from the point memo without running any stage — the model
    /// is deterministic per instance, so the cached value is the one the
    /// kernel would recompute. Bit-identical to
    /// [`query_oracle`](Self::query_oracle) on the same point either way.
    pub fn query(&mut self, b: u64, k: u64, c: u64) -> Result<FastLatency, SurrogateError> {
        if b == 0 || k == 0 || c == 0 {
            return Err(SurrogateError::InvalidDims { dims: (b, k, c) });
        }
        if let Some(&hit) = self.memo.get(&(b, k, c)) {
            self.stats.queries += 1;
            self.stats.memo_hits += 1;
            return Ok(hit);
        }
        let Self {
            model,
            arch,
            shape,
            template,
            mapping,
            slots,
            scratch,
            residency,
            pairs,
            prefix,
            stats,
            memo,
        } = self;
        template.set_matmul_dims(b, k, c);
        Self::instantiate(shape, (b, k, c), pairs, prefix);
        if !mapping.reassign_greedy(arch, template, pairs, prefix) {
            return Err(SurrogateError::Infeasible { dims: (b, k, c) });
        }
        let Some(view) = MappedLayer::new_fast(template, arch, mapping, residency) else {
            return Err(SurrogateError::InvalidMapping { dims: (b, k, c) });
        };
        scratch
            .lowered_mut()
            .rebuild_full(&view, model.dtl_options(), &*slots);
        let opts = *model.options();
        let ss_overall = if opts.bw_aware {
            let (lowered, stall) = scratch.parts();
            let raw = match stall.combine_with_cached_grouping(
                arch,
                lowered.dtls(),
                opts.union,
                opts.eq2_oversubscription_bound,
            ) {
                Some(v) => {
                    stats.grouping_reused += 1;
                    v
                }
                None => {
                    stats.grouping_rebuilt += 1;
                    stall.combine_and_integrate(
                        arch,
                        lowered.dtls(),
                        opts.union,
                        opts.eq2_oversubscription_bound,
                    )
                }
            };
            raw.max(0.0)
        } else {
            0.0
        };
        stats.queries += 1;
        let out = scratch.lowered().totals(ss_overall);
        if memo.len() < MEMO_CAP {
            memo.insert((b, k, c), out);
        }
        Ok(out)
    }

    /// The differential oracle: the same workload point answered by the
    /// generic path from scratch — fresh layer, fresh greedy allocation
    /// ([`Mapping::with_greedy_alloc`]), full validation and
    /// [`evaluate_fast`](crate::LatencyModel::evaluate_fast) into a cold
    /// scratch. [`query`](Self::query) must match this bit for bit.
    pub fn query_oracle(&self, b: u64, k: u64, c: u64) -> Result<FastLatency, SurrogateError> {
        if b == 0 || k == 0 || c == 0 {
            return Err(SurrogateError::InvalidDims { dims: (b, k, c) });
        }
        let mut layer = self.template.clone();
        layer.set_matmul_dims(b, k, c);
        let (mut pairs, mut prefix) = (Vec::new(), Vec::new());
        Self::instantiate(&self.shape, (b, k, c), &mut pairs, &mut prefix);
        let mapping = Mapping::with_greedy_alloc(
            &self.arch,
            &layer,
            self.shape.spatial.clone(),
            LoopStack::from_pairs(&pairs),
        )
        .map_err(|_| SurrogateError::Infeasible { dims: (b, k, c) })?;
        let view = MappedLayer::new(&layer, &self.arch, &mapping)
            .map_err(|_| SurrogateError::InvalidMapping { dims: (b, k, c) })?;
        let mut scratch = ModelScratch::default();
        Ok(self.model.evaluate_fast(&view, &mut scratch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_workload::Precision;

    fn assert_same(a: FastLatency, b: FastLatency) {
        assert_eq!(a.cc_total.to_bits(), b.cc_total.to_bits());
        assert_eq!(a.ss_overall.to_bits(), b.ss_overall.to_bits());
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
        assert_eq!(a.cc_ideal.to_bits(), b.cc_ideal.to_bits());
        assert_eq!(a.preload, b.preload);
        assert_eq!(a.offload, b.offload);
        assert_eq!(a.cc_spatial, b.cc_spatial);
    }

    fn fig8_specialized() -> SpecializedModel {
        let arch = presets::case_study_chip(128);
        let template = Layer::matmul("big", 64, 96, 640, Precision::int8_out24());
        let shape = MappingShape::new(
            SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]),
            vec![Dim::C, Dim::B, Dim::K],
        )
        .unwrap();
        SpecializedModel::prepare(LatencyModel::new(), &arch, &template, shape).unwrap()
    }

    #[test]
    fn query_matches_oracle_on_fig8_sweep() {
        let mut s = fig8_specialized();
        for (b, k, c) in [
            (64, 96, 640),
            (1, 96, 640),
            (64, 96, 64),
            (8, 16, 2),
            (3, 5, 7),
            (128, 192, 1280),
            (64, 96, 641),
        ] {
            let fast = s.query(b, k, c).unwrap();
            let oracle = s.query_oracle(b, k, c).unwrap();
            assert_same(fast, oracle);
        }
        let st = s.stats();
        assert_eq!(st.queries, 7);
        assert_eq!(st.memo_hits, 0, "all seven points are distinct");
        assert_eq!(st.grouping_reused + st.grouping_rebuilt, st.queries);
        // After the first query primes the grouping, same-inventory
        // points reuse it.
        assert!(st.grouping_reused > 0, "grouping never reused: {st:?}");
    }

    #[test]
    fn repeated_points_are_answered_from_the_memo() {
        let mut s = fig8_specialized();
        let first = s.query(64, 96, 640).unwrap();
        let again = s.query(64, 96, 640).unwrap();
        let thrice = s.query(64, 96, 640).unwrap();
        assert_same(first, again);
        assert_same(first, thrice);
        // A different point misses, then its repeat hits too.
        let other = s.query(16, 96, 640).unwrap();
        assert_same(other, s.query(16, 96, 640).unwrap());
        let st = s.stats();
        assert_eq!(st.queries, 5);
        assert_eq!(st.memo_hits, 3);
        assert_eq!(st.grouping_reused + st.grouping_rebuilt + st.memo_hits, 5);
        // The memoized answer is still the oracle's answer.
        assert_same(first, s.query_oracle(64, 96, 640).unwrap());
    }

    #[test]
    fn query_matches_oracle_with_kv_cache_template() {
        let arch = presets::case_study_chip(128);
        let template = Layer::matmul("attend", 1, 64, 512, Precision::int8_out24())
            .with_kv_cache(ulm_workload::Operand::W);
        let shape = MappingShape::new(
            SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]),
            vec![Dim::C, Dim::K, Dim::B],
        )
        .unwrap();
        let mut s =
            SpecializedModel::prepare(LatencyModel::new(), &arch, &template, shape).unwrap();
        for (b, k, c) in [(1, 64, 512), (1, 64, 1024), (2, 32, 96)] {
            assert_same(s.query(b, k, c).unwrap(), s.query_oracle(b, k, c).unwrap());
        }
    }

    #[test]
    fn shape_from_mapping_round_trips_fig8() {
        let arch = presets::case_study_chip(128);
        let layer = Layer::matmul("big", 64, 96, 640, Precision::int8_out24());
        let mapping = Mapping::with_greedy_alloc(
            &arch,
            &layer,
            SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]),
            LoopStack::from_pairs(&[(Dim::C, 320), (Dim::B, 8), (Dim::K, 6)]),
        )
        .unwrap();
        let shape = MappingShape::from_mapping(&mapping).unwrap();
        assert_eq!(shape.ordering(), &[Dim::C, Dim::B, Dim::K]);
        // Instantiating at the original dims reproduces the stack.
        let (mut pairs, mut prefix) = (Vec::new(), Vec::new());
        SpecializedModel::instantiate(&shape, (64, 96, 640), &mut pairs, &mut prefix);
        assert_eq!(pairs, vec![(Dim::C, 320), (Dim::B, 8), (Dim::K, 6)]);
    }

    #[test]
    fn unsupported_and_invalid_inputs_are_typed() {
        let arch = presets::conv_native_chip().arch;
        let conv = Layer::conv2d(
            "cv",
            ulm_workload::LayerShape::conv(1, 8, 8, 8, 8, 3, 3),
            Precision::int8_acc24(),
        );
        let shape = MappingShape::new(
            SpatialUnroll::new(vec![(Dim::K, 2)]),
            vec![Dim::B, Dim::K, Dim::C],
        )
        .unwrap();
        let err = SpecializedModel::prepare(LatencyModel::new(), &arch, &conv, shape).unwrap_err();
        assert!(matches!(err, SurrogateError::UnsupportedLayer { .. }));

        assert!(matches!(
            MappingShape::new(SpatialUnroll::new(vec![(Dim::K, 2)]), vec![Dim::B, Dim::K]),
            Err(SurrogateError::BadOrdering { .. })
        ));

        let mut s = fig8_specialized();
        assert!(matches!(
            s.query(0, 1, 1),
            Err(SurrogateError::InvalidDims { .. })
        ));
        // A later valid query still works after an error.
        assert_same(s.query(4, 4, 8).unwrap(), s.query_oracle(4, 4, 8).unwrap());
    }

    #[test]
    fn bw_unaware_surrogate_matches_too() {
        let arch = presets::case_study_chip(128);
        let template = Layer::matmul("big", 64, 96, 640, Precision::int8_out24());
        let shape = MappingShape::new(
            SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]),
            vec![Dim::C, Dim::B, Dim::K],
        )
        .unwrap();
        let mut s =
            SpecializedModel::prepare(LatencyModel::bw_unaware(), &arch, &template, shape).unwrap();
        for (b, k, c) in [(64, 96, 640), (16, 32, 48)] {
            assert_same(s.query(b, k, c).unwrap(), s.query_oracle(b, k, c).unwrap());
        }
    }
}
