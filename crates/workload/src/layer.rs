//! DNN layer description: type, loop bounds, geometry and precision.

use crate::relevance::{data_words, OperandRelevance, Relevance};
use crate::{Dim, DimSizes, Operand, PerOperand, Precision};
use std::fmt;

/// The dense layer types the paper's intra-layer model covers
/// (Section II-A: "Conv2D, Dense, Depthwise and Pointwise").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum LayerType {
    /// Standard 2-D convolution.
    Conv2d,
    /// 1x1 convolution (pointwise); `FY = FX = 1`.
    PointwiseConv2d,
    /// Depthwise 2-D convolution; `C = 1`, the `K` loop walks channels.
    DepthwiseConv2d,
    /// Fully-connected layer; all spatial dims are 1.
    Dense,
    /// General matrix multiplication `B x C . C x K` — the shape every
    /// layer takes after Im2Col lowering.
    Matmul,
}

impl fmt::Display for LayerType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerType::Conv2d => "Conv2D",
            LayerType::PointwiseConv2d => "Pointwise",
            LayerType::DepthwiseConv2d => "Depthwise",
            LayerType::Dense => "Dense",
            LayerType::Matmul => "Matmul",
        };
        f.write_str(s)
    }
}

/// Loop bounds plus convolution geometry (stride, dilation).
///
/// # Example
///
/// ```
/// use ulm_workload::LayerShape;
///
/// let s = LayerShape::conv(1, 64, 32, 56, 56, 3, 3).with_stride(2, 2);
/// assert_eq!(s.stride(), (2, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct LayerShape {
    dims: DimSizes,
    stride: (u64, u64),
    dilation: (u64, u64),
}

impl LayerShape {
    /// Convolution-style shape `B, K, C, OY, OX, FY, FX`, stride and
    /// dilation 1.
    pub fn conv(b: u64, k: u64, c: u64, oy: u64, ox: u64, fy: u64, fx: u64) -> Self {
        Self {
            dims: DimSizes::new(b, k, c, oy, ox, fy, fx),
            stride: (1, 1),
            dilation: (1, 1),
        }
    }

    /// Matmul shape: `B x C` inputs against `C x K` weights.
    pub fn matmul(b: u64, k: u64, c: u64) -> Self {
        Self::conv(b, k, c, 1, 1, 1, 1)
    }

    /// Sets the x/y stride.
    pub fn with_stride(mut self, sx: u64, sy: u64) -> Self {
        assert!(sx > 0 && sy > 0, "strides must be positive");
        self.stride = (sx, sy);
        self
    }

    /// Sets the x/y dilation.
    pub fn with_dilation(mut self, dx: u64, dy: u64) -> Self {
        assert!(dx > 0 && dy > 0, "dilations must be positive");
        self.dilation = (dx, dy);
        self
    }

    /// The seven loop bounds.
    pub fn dims(&self) -> &DimSizes {
        &self.dims
    }

    /// Loop bound of `dim`.
    pub fn dim(&self, dim: Dim) -> u64 {
        self.dims[dim]
    }

    /// `(sx, sy)` stride.
    pub fn stride(&self) -> (u64, u64) {
        self.stride
    }

    /// `(dx, dy)` dilation.
    pub fn dilation(&self) -> (u64, u64) {
        self.dilation
    }
}

/// What a [`Layer`] is apart from its name: the identity of a mapping
/// search's workload ([`Layer::workload_key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub struct WorkloadKey {
    ltype: LayerType,
    shape: LayerShape,
    precision: Precision,
    kv: PerOperand<bool>,
}

/// A DNN layer: the *Algorithm* corner of the AHM design space.
///
/// # Example
///
/// ```
/// use ulm_workload::{Layer, LayerShape, Precision, Operand};
///
/// let fc = Layer::dense("fc", 1, 1000, 1024, Precision::int8_acc24());
/// assert_eq!(fc.total_macs(), 1000 * 1024);
/// assert_eq!(fc.tensor_words(Operand::W), 1000 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Layer {
    name: String,
    ltype: LayerType,
    shape: LayerShape,
    precision: Precision,
    /// Which operands are KV-cache resident: already present in the
    /// level just below the backing store at layer start (a decode
    /// step's K/V cache), so the top memory interface never refills
    /// them. Defaults to none; absent in older serialized layers.
    #[serde(default)]
    kv: PerOperand<bool>,
}

impl Layer {
    /// Builds a layer from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if the shape violates the layer type's structural constraints
    /// (e.g. a depthwise layer with `C != 1`, a pointwise layer with a
    /// non-1x1 filter, or a dense/matmul layer with spatial dims).
    pub fn new(
        name: impl Into<String>,
        ltype: LayerType,
        shape: LayerShape,
        precision: Precision,
    ) -> Self {
        let d = shape.dims();
        match ltype {
            LayerType::Conv2d => {}
            LayerType::PointwiseConv2d => {
                assert!(
                    d[Dim::FY] == 1 && d[Dim::FX] == 1,
                    "pointwise layers must have a 1x1 filter"
                );
            }
            LayerType::DepthwiseConv2d => {
                assert!(d[Dim::C] == 1, "depthwise layers must have C = 1");
            }
            LayerType::Dense | LayerType::Matmul => {
                assert!(
                    d[Dim::OY] == 1 && d[Dim::OX] == 1 && d[Dim::FY] == 1 && d[Dim::FX] == 1,
                    "dense/matmul layers must have unit spatial dims"
                );
            }
        }
        Self {
            name: name.into(),
            ltype,
            shape,
            precision,
            kv: PerOperand::default(),
        }
    }

    /// Marks operand `op` as a KV-cache resident: its footprint scales
    /// with context length, it lives in the level below the backing
    /// store when the layer starts, and it is never refilled across the
    /// top memory interface within a decode step.
    ///
    /// # Panics
    ///
    /// Panics for [`Operand::O`] — only the streamed-in `W`/`I`
    /// operands can be cache-resident.
    pub fn with_kv_cache(mut self, op: Operand) -> Self {
        assert!(
            op != Operand::O,
            "outputs are produced, not cached; only W/I can be KV-cache resident"
        );
        self.kv[op] = true;
        self
    }

    /// True when operand `op` is KV-cache resident
    /// (see [`with_kv_cache`](Self::with_kv_cache)).
    pub fn is_kv_cache(&self, op: Operand) -> bool {
        self.kv[op]
    }

    /// Replaces the matmul dims `(B, K, C)` in place, keeping name,
    /// precision and KV-cache flags — the workload-varying update of a
    /// surrogate query (every other layer field is query-constant).
    ///
    /// # Panics
    ///
    /// Panics for non-matmul/dense layer types (their spatial dims
    /// cannot be expressed as `(B, K, C)`) and on any zero dim.
    pub fn set_matmul_dims(&mut self, b: u64, k: u64, c: u64) {
        assert!(
            matches!(self.ltype, LayerType::Dense | LayerType::Matmul),
            "set_matmul_dims is only meaningful for dense/matmul layers"
        );
        self.shape = LayerShape::matmul(b, k, c);
    }

    /// True when any operand is KV-cache resident.
    pub fn has_kv_cache(&self) -> bool {
        Operand::all().any(|op| self.kv[op])
    }

    /// Convenience constructor for a [`LayerType::Conv2d`] layer.
    pub fn conv2d(name: impl Into<String>, shape: LayerShape, precision: Precision) -> Self {
        Self::new(name, LayerType::Conv2d, shape, precision)
    }

    /// Convenience constructor for a [`LayerType::Matmul`] layer.
    pub fn matmul(name: impl Into<String>, b: u64, k: u64, c: u64, precision: Precision) -> Self {
        Self::new(
            name,
            LayerType::Matmul,
            LayerShape::matmul(b, k, c),
            precision,
        )
    }

    /// Convenience constructor for a [`LayerType::Dense`] layer
    /// (`b` batch, `k` outputs, `c` inputs).
    pub fn dense(name: impl Into<String>, b: u64, k: u64, c: u64, precision: Precision) -> Self {
        Self::new(
            name,
            LayerType::Dense,
            LayerShape::matmul(b, k, c),
            precision,
        )
    }

    /// Layer name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer without its name: its type, shape, precision and
    /// KV-cache flags. Nothing a mapping search reads differs between
    /// layers of one key, so one search serves them all.
    pub fn workload_key(&self) -> WorkloadKey {
        // Destructured so that a new field fails to compile until it is
        // classified here.
        let Layer {
            name: _,
            ltype,
            shape,
            precision,
            kv,
        } = self;
        WorkloadKey {
            ltype: *ltype,
            shape: *shape,
            precision: *precision,
            kv: *kv,
        }
    }

    /// True when `self` and `other` differ at most in their names (see
    /// [`workload_key`](Self::workload_key)).
    pub fn same_workload(&self, other: &Layer) -> bool {
        self.workload_key() == other.workload_key()
    }

    /// Layer type.
    pub fn layer_type(&self) -> LayerType {
        self.ltype
    }

    /// Loop bounds and geometry.
    pub fn shape(&self) -> &LayerShape {
        &self.shape
    }

    /// Operand precisions.
    pub fn precision(&self) -> &Precision {
        &self.precision
    }

    /// Total multiply-accumulate operations in the layer: the product of
    /// all seven loop bounds.
    pub fn total_macs(&self) -> u64 {
        self.shape.dims().product()
    }

    /// Relevance of `dim` for operand `op` under this layer's type.
    pub fn relevance(&self, op: Operand, dim: Dim) -> Relevance {
        OperandRelevance::of(self.ltype, op).get(dim)
    }

    /// Full relevance table for operand `op`.
    pub fn operand_relevance(&self, op: Operand) -> OperandRelevance {
        OperandRelevance::of(self.ltype, op)
    }

    /// Number of data words of operand `op` covered by the given loop
    /// `extents` (the `Mem_DATA` primitive).
    pub fn data_words(&self, op: Operand, extents: &DimSizes) -> u64 {
        data_words(
            self.ltype,
            op,
            extents,
            self.shape.stride(),
            self.shape.dilation(),
        )
    }

    /// Total words of operand `op` in the layer (extents = full bounds).
    pub fn tensor_words(&self, op: Operand) -> u64 {
        self.data_words(op, self.shape.dims())
    }

    /// Total bits of operand `op` in the layer. Outputs are counted at
    /// partial-sum precision (their on-chip storage width).
    pub fn tensor_bits(&self, op: Operand) -> u64 {
        self.tensor_words(op) * self.precision.bits(op)
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}: {}]", self.name, self.ltype, self.shape.dims())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_example() -> Layer {
        Layer::conv2d(
            "l",
            LayerShape::conv(2, 8, 4, 5, 5, 3, 3),
            Precision::int8_acc24(),
        )
    }

    #[test]
    fn macs_are_loop_product() {
        assert_eq!(conv_example().total_macs(), 2 * 8 * 4 * 5 * 5 * 3 * 3);
    }

    #[test]
    fn tensor_sizes_match_formulas() {
        let l = conv_example();
        assert_eq!(l.tensor_words(Operand::W), 8 * 4 * 3 * 3);
        assert_eq!(l.tensor_words(Operand::O), 2 * 8 * 5 * 5);
        assert_eq!(l.tensor_words(Operand::I), 2 * 4 * 7 * 7);
        assert_eq!(l.tensor_bits(Operand::O), 2 * 8 * 5 * 5 * 24);
    }

    #[test]
    fn strided_conv_input_geometry() {
        let l = Layer::conv2d(
            "s2",
            LayerShape::conv(1, 16, 3, 14, 14, 3, 3).with_stride(2, 2),
            Precision::int8_acc24(),
        );
        // Input side (14-1)*2 + (3-1) + 1 = 29.
        assert_eq!(l.tensor_words(Operand::I), 3 * 29 * 29);
    }

    #[test]
    #[should_panic(expected = "1x1 filter")]
    fn pointwise_shape_validated() {
        let _ = Layer::new(
            "bad",
            LayerType::PointwiseConv2d,
            LayerShape::conv(1, 8, 8, 4, 4, 3, 3),
            Precision::int8_acc24(),
        );
    }

    #[test]
    #[should_panic(expected = "C = 1")]
    fn depthwise_shape_validated() {
        let _ = Layer::new(
            "bad",
            LayerType::DepthwiseConv2d,
            LayerShape::conv(1, 8, 8, 4, 4, 3, 3),
            Precision::int8_acc24(),
        );
    }

    #[test]
    fn dense_is_matmul_shaped() {
        let l = Layer::dense("fc", 4, 10, 20, Precision::uniform(8));
        assert_eq!(l.tensor_words(Operand::I), 4 * 20);
        assert_eq!(l.tensor_words(Operand::W), 10 * 20);
        assert_eq!(l.tensor_words(Operand::O), 4 * 10);
    }

    #[test]
    fn display_mentions_name_and_type() {
        let s = conv_example().to_string();
        assert!(s.contains('l') && s.contains("Conv2D"), "{s}");
    }

    #[test]
    fn kv_cache_flags_round_trip() {
        let plain = Layer::matmul("logit", 8, 128, 64, Precision::int8_acc24());
        assert!(!plain.has_kv_cache());
        let kv = plain.clone().with_kv_cache(Operand::W);
        assert!(kv.is_kv_cache(Operand::W));
        assert!(!kv.is_kv_cache(Operand::I));
        assert_ne!(plain, kv);
        // Serialized layers without the field still deserialize (serde
        // default), and the flag itself survives a round trip.
        let json = serde_json::to_string(&kv).unwrap();
        let back: Layer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, kv);
        let legacy = serde_json::to_string(&plain).unwrap();
        let stripped = legacy.replace(",\"kv\":{\"values\":[false,false,false]}", "");
        let old: Layer = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old, plain);
    }

    #[test]
    fn same_workload_ignores_only_the_name() {
        let q = Layer::matmul("q_proj", 16, 64, 64, Precision::int8_acc24());
        assert!(q.same_workload(&Layer::matmul(
            "o_proj",
            16,
            64,
            64,
            Precision::int8_acc24()
        )));
        for other in [
            Layer::matmul("q_proj", 16, 64, 32, Precision::int8_acc24()),
            Layer::dense("q_proj", 16, 64, 64, Precision::int8_acc24()),
            Layer::matmul("q_proj", 16, 64, 64, Precision::uniform(8)),
            q.clone().with_kv_cache(Operand::W),
        ] {
            assert!(!q.same_workload(&other), "{other}");
        }
    }

    #[test]
    fn the_workload_key_drops_only_the_name() {
        let p = Precision::int8_acc24();
        let q_proj = crate::networks::attention_prefill()
            .into_iter()
            .find(|l| l.name() == "q_proj")
            .unwrap();
        let searched = Layer::matmul("(128,256,256)", 128, 256, 256, p);
        assert_eq!(q_proj.workload_key(), searched.workload_key());

        let conv = |stride| {
            let shape = LayerShape::conv(1, 16, 8, 14, 14, 3, 3).with_stride(stride, stride);
            Layer::conv2d("c", shape, p)
        };
        assert_ne!(conv(2).workload_key(), conv(1).workload_key());

        let plain = Layer::matmul("logit", 512, 512, 64, p);
        let cached = plain.clone().with_kv_cache(Operand::W);
        assert_ne!(cached.workload_key(), plain.workload_key());
    }

    #[test]
    #[should_panic(expected = "only W/I")]
    fn kv_cache_rejects_outputs() {
        let _ = Layer::matmul("m", 2, 2, 2, Precision::uniform(8)).with_kv_cache(Operand::O);
    }
}
