//! Arch-specialized surrogate models: the latency model fixed to one
//! `(architecture, mapping shape)` pair and queried by workload dims.
//!
//! A [`SpecializedModel`] is built once with
//! [`prepare`](SpecializedModel::prepare) and answers each `(B, K, C)`
//! point with [`query`](SpecializedModel::query): instantiate the
//! shape's loops at the dims, re-run the greedy level allocation
//! ([`Mapping::with_greedy_alloc`]), validate ([`MappedLayer::new`]) and
//! price the result with
//! [`evaluate_fast`](crate::LatencyModel::evaluate_fast) into the
//! specialization's own scratch. Every answered point is remembered, so
//! a repeated point costs one hash lookup — the steady state of serve's
//! repeated `surrogate` requests and of a DSE sweep revisiting dims.
//!
//! A query is the generic pipeline, so it is **bit-identical to
//! [`query_oracle`](SpecializedModel::query_oracle) by construction**:
//! the oracle runs the same evaluation into a cold scratch and bypasses
//! the point memo.

use crate::{FastLatency, LatencyModel, ModelScratch};
use std::fmt;
use ulm_arch::Architecture;
use ulm_mapping::{LoopStack, MappedLayer, Mapping, SpatialUnroll, TemporalLoop};
use ulm_workload::{Dim, Layer, LayerType};

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
    /// The instantiated mapping failed validation against the
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
                "instantiated mapping for dims {dims:?} failed validation \
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
        // Three entries naming each of B, K and C: a permutation.
        if ordering.len() != 3
            || ![Dim::B, Dim::K, Dim::C]
                .iter()
                .all(|d| ordering.contains(d))
        {
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

    /// The temporal loop stack at `(b, k, c)`: each dim in ordering
    /// iterated `ceil(dim / spatial extent)` times (unit loops dropped).
    fn stack(&self, (b, k, c): (u64, u64, u64)) -> LoopStack {
        let size = |d: Dim| match d {
            Dim::B => b,
            Dim::K => k,
            Dim::C => c,
            _ => 1,
        };
        LoopStack::new(
            self.ordering
                .iter()
                .map(|&d| TemporalLoop::new(d, size(d).div_ceil(self.spatial.extent(d))))
                .collect(),
        )
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
    /// Queries answered straight from the point memo: the exact
    /// `(B, K, C)` was already priced by this model, so the cached
    /// [`FastLatency`] is returned without evaluating anything.
    pub memo_hits: u64,
}

/// A latency model fixed to one `(architecture, mapping shape)` pair.
///
/// Built once with [`prepare`](Self::prepare); answers workload-dim
/// queries with [`query`](Self::query). Holds its own clone of the
/// architecture (pass a calibrated one to specialize the calibrated
/// model — see [`crate::calibrate`]), the scratch its evaluations reuse
/// and the memo of answered points.
#[derive(Debug)]
pub struct SpecializedModel {
    model: LatencyModel,
    arch: Architecture,
    shape: MappingShape,
    /// The query-constant layer fields; each query sets its own dims.
    template: Layer,
    scratch: ModelScratch,
    stats: SurrogateStats,
    /// Answered points: `(B, K, C)` → the exact [`FastLatency`] the
    /// evaluation produced. The model is deterministic per instance
    /// (arch, shape, template and options are all fixed), so a repeated
    /// point returns the cached value bit-for-bit — this is the
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
    /// Fixes `model` to `(arch, shape)`. `template` supplies the
    /// query-constant layer fields (type, precision, KV-cache flags); its
    /// dims are overwritten per query.
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
        Ok(Self {
            model,
            arch: arch.clone(),
            shape,
            template: template.clone(),
            scratch: ModelScratch::default(),
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
    /// Subsequent queries evaluate again, once per distinct point —
    /// useful to bound a long-lived model's footprint, or to benchmark
    /// the evaluation itself.
    pub fn clear_memo(&mut self) {
        self.memo.clear();
    }

    /// Answers one workload point: from the point memo when this model
    /// has already priced it, else through the generic evaluation into
    /// the model's own scratch. Bit-identical to
    /// [`query_oracle`](Self::query_oracle) on the same point either way.
    pub fn query(&mut self, b: u64, k: u64, c: u64) -> Result<FastLatency, SurrogateError> {
        if let Some(&hit) = self.memo.get(&(b, k, c)) {
            self.stats.queries += 1;
            self.stats.memo_hits += 1;
            return Ok(hit);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = self.evaluate((b, k, c), &mut scratch);
        self.scratch = scratch;
        let out = out?;
        self.stats.queries += 1;
        if self.memo.len() < MEMO_CAP {
            self.memo.insert((b, k, c), out);
        }
        Ok(out)
    }

    /// The test reference: the same evaluation as [`query`](Self::query)
    /// into a cold scratch, bypassing the point memo.
    pub fn query_oracle(&self, b: u64, k: u64, c: u64) -> Result<FastLatency, SurrogateError> {
        self.evaluate((b, k, c), &mut ModelScratch::default())
    }

    /// Prices `dims` through the generic path: the template at the dims,
    /// the shape's stack under the greedy allocation
    /// ([`Mapping::with_greedy_alloc`]), validation
    /// ([`MappedLayer::new`]) and
    /// [`evaluate_fast`](crate::LatencyModel::evaluate_fast).
    fn evaluate(
        &self,
        dims: (u64, u64, u64),
        scratch: &mut ModelScratch,
    ) -> Result<FastLatency, SurrogateError> {
        let (b, k, c) = dims;
        if b == 0 || k == 0 || c == 0 {
            return Err(SurrogateError::InvalidDims { dims });
        }
        let mut layer = self.template.clone();
        layer.set_matmul_dims(b, k, c);
        let mapping = Mapping::with_greedy_alloc(
            &self.arch,
            &layer,
            self.shape.spatial.clone(),
            self.shape.stack(dims),
        )
        .map_err(|_| SurrogateError::Infeasible { dims })?;
        let view = MappedLayer::new(&layer, &self.arch, &mapping)
            .map_err(|_| SurrogateError::InvalidMapping { dims })?;
        Ok(self.model.evaluate_fast(&view, scratch))
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
        assert_eq!(shape.stack((64, 96, 640)), *mapping.stack());
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
