//! Per-operand loop relevance (`r` / `ir` / partially-relevant loops).
//!
//! The paper (after ZigZag) classifies each loop dimension per operand:
//! *relevant* (`r`) loops index into the operand's data and therefore
//! contribute to its data size, while *irrelevant* (`ir`) loops reuse the
//! same data and contribute to reuse. For the input operand, the `OX`/`FX`
//! (and `OY`/`FY`) pairs are *partially relevant*: they combine through the
//! sliding-window geometry `ix = (ox-1)*sx + (fx-1)*dx + 1`.

use crate::{Dim, DimSizes, LayerType, Operand};

/// How a loop dimension relates to one operand's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Relevance {
    /// The loop indexes the operand's data directly (an `r` loop).
    Relevant,
    /// The loop reuses the operand's data (an `ir` loop).
    Irrelevant,
    /// Partially relevant through the input-x geometry (`OX`/`FX` for `I`).
    PartialIx,
    /// Partially relevant through the input-y geometry (`OY`/`FY` for `I`).
    PartialIy,
}

impl Relevance {
    /// True for [`Relevance::Relevant`] and both partial kinds: the loop
    /// contributes (at least partially) to the operand's data size.
    pub fn is_relevant(self) -> bool {
        !matches!(self, Relevance::Irrelevant)
    }

    /// True only for [`Relevance::Irrelevant`]: iterating this loop reuses
    /// the operand's data without touching new elements.
    pub fn is_irrelevant(self) -> bool {
        matches!(self, Relevance::Irrelevant)
    }
}

/// Relevance classification of all seven loops for one operand of a given
/// layer type.
///
/// # Example
///
/// ```
/// use ulm_workload::{LayerType, Operand, Dim, OperandRelevance, Relevance};
///
/// let rel = OperandRelevance::of(LayerType::Conv2d, Operand::W);
/// assert_eq!(rel.get(Dim::K), Relevance::Relevant);
/// assert_eq!(rel.get(Dim::B), Relevance::Irrelevant);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperandRelevance {
    per_dim: [Relevance; 7],
}

impl OperandRelevance {
    /// Relevance table for `op` in a layer of type `ltype`.
    ///
    /// For [`LayerType::DepthwiseConv2d`], the `K` loop walks channels and
    /// is therefore relevant to *all three* operands (each output channel
    /// consumes its own input channel); the `C` loop is fixed at 1.
    pub fn of(ltype: LayerType, op: Operand) -> Self {
        use Relevance::*;
        let depthwise = matches!(ltype, LayerType::DepthwiseConv2d);
        // Canonical dim order: B, K, C, OY, OX, FY, FX.
        let per_dim = match op {
            Operand::W => [
                Irrelevant, // B
                Relevant,   // K
                Relevant,   // C
                Irrelevant, // OY
                Irrelevant, // OX
                Relevant,   // FY
                Relevant,   // FX
            ],
            Operand::O => [
                Relevant,   // B
                Relevant,   // K
                Irrelevant, // C
                Relevant,   // OY
                Relevant,   // OX
                Irrelevant, // FY
                Irrelevant, // FX
            ],
            Operand::I => [
                Relevant,                                      // B
                if depthwise { Relevant } else { Irrelevant }, // K
                Relevant,                                      // C
                PartialIy,                                     // OY
                PartialIx,                                     // OX
                PartialIy,                                     // FY
                PartialIx,                                     // FX
            ],
        };
        Self { per_dim }
    }

    /// Relevance of dimension `dim` for this operand.
    pub fn get(&self, dim: Dim) -> Relevance {
        self.per_dim[dim.index()]
    }

    /// Iterates `(dim, relevance)` in canonical dimension order.
    pub fn iter(&self) -> impl Iterator<Item = (Dim, Relevance)> + '_ {
        crate::ALL_DIMS
            .iter()
            .copied()
            .zip(self.per_dim.iter().copied())
    }
}

/// Number of distinct input pixels along one axis covered by an output
/// extent `out_ext` and a filter extent `filt_ext` with the given stride
/// and dilation: `(out_ext - 1) * stride + (filt_ext - 1) * dilation + 1`.
fn input_axis_extent(out_ext: u64, filt_ext: u64, stride: u64, dilation: u64) -> u64 {
    assert!(out_ext > 0 && filt_ext > 0, "extents must be positive");
    (out_ext - 1) * stride + (filt_ext - 1) * dilation + 1
}

/// Number of data words of operand `op` covered by the loop `extents`, for
/// a layer of type `ltype` with the given strides/dilations.
///
/// This is the paper's `Mem_DATA` primitive: "the product of all the `r`
/// loops' size … of that operand", with the input operand's partially
/// relevant loops combined through `input_axis_extent`.
pub fn data_words(
    ltype: LayerType,
    op: Operand,
    extents: &DimSizes,
    stride: (u64, u64),
    dilation: (u64, u64),
) -> u64 {
    let rel = OperandRelevance::of(ltype, op);
    match op {
        Operand::W | Operand::O => rel
            .iter()
            .map(|(d, r)| if r.is_relevant() { extents[d] } else { 1 })
            .product(),
        Operand::I => {
            let mut words = 1u64;
            for (d, r) in rel.iter() {
                if r == Relevance::Relevant {
                    words *= extents[d];
                }
            }
            let iy = input_axis_extent(extents[Dim::OY], extents[Dim::FY], stride.1, dilation.1);
            let ix = input_axis_extent(extents[Dim::OX], extents[Dim::FX], stride.0, dilation.0);
            words * iy * ix
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_relevance_matches_paper() {
        // Paper Section III-A: "W's r loops are {K, C, FX, FY}, and its ir
        // loops are {B, OY, OX}".
        let w = OperandRelevance::of(LayerType::Conv2d, Operand::W);
        for d in [Dim::K, Dim::C, Dim::FX, Dim::FY] {
            assert_eq!(w.get(d), Relevance::Relevant, "{d}");
        }
        for d in [Dim::B, Dim::OY, Dim::OX] {
            assert_eq!(w.get(d), Relevance::Irrelevant, "{d}");
        }
        let o = OperandRelevance::of(LayerType::Conv2d, Operand::O);
        for d in [Dim::B, Dim::K, Dim::OY, Dim::OX] {
            assert_eq!(o.get(d), Relevance::Relevant, "{d}");
        }
        for d in [Dim::C, Dim::FY, Dim::FX] {
            assert_eq!(o.get(d), Relevance::Irrelevant, "{d}");
        }
        let i = OperandRelevance::of(LayerType::Conv2d, Operand::I);
        assert_eq!(i.get(Dim::B), Relevance::Relevant);
        assert_eq!(i.get(Dim::C), Relevance::Relevant);
        assert_eq!(i.get(Dim::K), Relevance::Irrelevant);
        assert_eq!(i.get(Dim::OX), Relevance::PartialIx);
        assert_eq!(i.get(Dim::FY), Relevance::PartialIy);
    }

    #[test]
    fn depthwise_inputs_track_k() {
        let i = OperandRelevance::of(LayerType::DepthwiseConv2d, Operand::I);
        assert_eq!(i.get(Dim::K), Relevance::Relevant);
        let i_std = OperandRelevance::of(LayerType::Conv2d, Operand::I);
        assert_eq!(i_std.get(Dim::K), Relevance::Irrelevant);
    }

    #[test]
    fn input_extent_follows_stride() {
        // 3 outputs, 3-tap filter, stride 1: 5 input pixels.
        assert_eq!(input_axis_extent(3, 3, 1, 1), 5);
        // stride 2 doubles the hop between windows.
        assert_eq!(input_axis_extent(3, 3, 2, 1), 7);
    }

    #[test]
    fn input_extent_degenerate_cases() {
        // A single output with a single-tap filter touches one pixel.
        assert_eq!(input_axis_extent(1, 1, 1, 1), 1);
        // Pure matmul shape (all spatial dims 1) keeps extent 1 whatever
        // the stride.
        assert_eq!(input_axis_extent(1, 1, 7, 3), 1);
    }

    #[test]
    fn data_words_conv_example() {
        // 3x3 conv, 4 in-ch, 8 out-ch, 5x5 outputs, stride 1, batch 2.
        let ext = DimSizes::new(2, 8, 4, 5, 5, 3, 3);
        let w = data_words(LayerType::Conv2d, Operand::W, &ext, (1, 1), (1, 1));
        assert_eq!(w, 8 * 4 * 3 * 3);
        let o = data_words(LayerType::Conv2d, Operand::O, &ext, (1, 1), (1, 1));
        assert_eq!(o, 2 * 8 * 5 * 5);
        let i = data_words(LayerType::Conv2d, Operand::I, &ext, (1, 1), (1, 1));
        assert_eq!(i, 2 * 4 * 7 * 7); // iy = ix = (5-1)+(3-1)+1 = 7
    }

    #[test]
    fn data_words_matmul_collapses_geometry() {
        // Post-Im2Col matmul: only B, K, C are non-unit.
        let ext = DimSizes::new(16, 32, 64, 1, 1, 1, 1);
        assert_eq!(
            data_words(LayerType::Matmul, Operand::I, &ext, (1, 1), (1, 1)),
            16 * 64
        );
        assert_eq!(
            data_words(LayerType::Matmul, Operand::W, &ext, (1, 1), (1, 1)),
            32 * 64
        );
        assert_eq!(
            data_words(LayerType::Matmul, Operand::O, &ext, (1, 1), (1, 1)),
            16 * 32
        );
    }
}
