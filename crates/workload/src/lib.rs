//! DNN layer and nested-loop workload representation.
//!
//! This crate provides the *Algorithm* leg of the paper's
//! Algorithm–Hardware–Mapping (AHM) triple: DNN layers expressed as the
//! 7-dimensional nested for-loop format of ZigZag
//! (`B, K, C, OY, OX, FY, FX`), operand precisions, per-operand loop
//! relevance (`r` / `ir` / partially-relevant loops), the Im2Col lowering
//! used by the paper's validation chip, and a set of built-in workloads
//! including a hand-tracking (SSD-MobileNet-style) network.
//!
//! # Example
//!
//! ```
//! use ulm_workload::{Layer, LayerShape, LayerType, Precision, Dim, Operand};
//!
//! let layer = Layer::conv2d(
//!     "conv1",
//!     LayerShape::conv(1, 32, 3, 112, 112, 3, 3).with_stride(2, 2),
//!     Precision::int8_acc24(),
//! );
//! assert_eq!(layer.total_macs(), 32 * 112 * 112 * 3 * 3 * 3);
//! // Weights are irrelevant to the batch loop: iterating B reuses W.
//! assert!(!layer.relevance(Operand::W, Dim::B).is_relevant());
//! ```

pub mod attention;
pub mod dims;
pub mod im2col;
pub mod layer;
pub mod netdesc;
pub mod networks;
pub mod precision;
pub mod relevance;

pub use dims::{Dim, DimSizes, ALL_DIMS};
pub use im2col::im2col;
pub use layer::{Layer, LayerShape, LayerType, WorkloadKey};
pub use netdesc::NetworkDesc;
pub use precision::Precision;
pub use relevance::{OperandRelevance, Relevance};

use std::fmt;

/// The three major operands of a DNN layer: weights, inputs and outputs.
///
/// The latency model analyses each operand's traffic through the memory
/// hierarchy separately (the paper's "Divide" step), so the operand is a
/// pervasive index type across all `ulm` crates.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Operand {
    /// Weight (filter) operand.
    W,
    /// Input (activation) operand.
    I,
    /// Output (partial-sum / final output) operand.
    O,
}

/// All operands in canonical `W, I, O` order.
pub const ALL_OPERANDS: [Operand; 3] = [Operand::W, Operand::I, Operand::O];

impl Operand {
    /// Canonical index of this operand (`W = 0`, `I = 1`, `O = 2`).
    pub fn index(self) -> usize {
        match self {
            Operand::W => 0,
            Operand::I => 1,
            Operand::O => 2,
        }
    }

    /// Iterate over all operands in canonical order.
    pub fn all() -> impl Iterator<Item = Operand> {
        ALL_OPERANDS.iter().copied()
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::W => write!(f, "W"),
            Operand::I => write!(f, "I"),
            Operand::O => write!(f, "O"),
        }
    }
}

/// A small fixed map from [`Operand`] to `T`, used across the workspace for
/// per-operand attributes (memory chains, loop allocations, data sizes, …).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct PerOperand<T> {
    values: [T; 3],
}

impl<T> PerOperand<T> {
    /// Builds a map with explicit values for `W`, `I` and `O`.
    pub fn new(w: T, i: T, o: T) -> Self {
        Self { values: [w, i, o] }
    }

    /// Builds a map by evaluating `f` for each operand.
    pub fn from_fn(mut f: impl FnMut(Operand) -> T) -> Self {
        Self {
            values: [f(Operand::W), f(Operand::I), f(Operand::O)],
        }
    }

    /// Shared access to the entry for `op`.
    pub fn get(&self, op: Operand) -> &T {
        &self.values[op.index()]
    }

    /// Mutable access to the entry for `op`.
    pub fn get_mut(&mut self, op: Operand) -> &mut T {
        &mut self.values[op.index()]
    }

    /// Iterates `(operand, &value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Operand, &T)> {
        ALL_OPERANDS.iter().copied().zip(self.values.iter())
    }

    /// Maps every entry through `f`, preserving operand association.
    pub fn map<U>(&self, mut f: impl FnMut(Operand, &T) -> U) -> PerOperand<U> {
        PerOperand {
            values: [
                f(Operand::W, &self.values[0]),
                f(Operand::I, &self.values[1]),
                f(Operand::O, &self.values[2]),
            ],
        }
    }
}

impl<T> std::ops::Index<Operand> for PerOperand<T> {
    type Output = T;
    fn index(&self, op: Operand) -> &T {
        self.get(op)
    }
}

impl<T> std::ops::IndexMut<Operand> for PerOperand<T> {
    fn index_mut(&mut self, op: Operand) -> &mut T {
        self.get_mut(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_indices_are_canonical() {
        assert_eq!(Operand::W.index(), 0);
        assert_eq!(Operand::I.index(), 1);
        assert_eq!(Operand::O.index(), 2);
        let collected: Vec<_> = Operand::all().collect();
        assert_eq!(collected, vec![Operand::W, Operand::I, Operand::O]);
    }

    #[test]
    fn per_operand_round_trips() {
        let mut m = PerOperand::new(1u64, 2, 3);
        assert_eq!(m[Operand::W], 1);
        assert_eq!(m[Operand::I], 2);
        assert_eq!(m[Operand::O], 3);
        m[Operand::O] = 42;
        assert_eq!(m[Operand::O], 42);
        let doubled = m.map(|_, v| v * 2);
        assert_eq!(doubled[Operand::W], 2);
        assert_eq!(doubled[Operand::O], 84);
    }

    #[test]
    fn per_operand_from_fn_matches_order() {
        let m = PerOperand::from_fn(|op| op.index());
        for (op, v) in m.iter() {
            assert_eq!(op.index(), *v);
        }
    }

    #[test]
    fn operand_display_is_single_letter() {
        assert_eq!(Operand::W.to_string(), "W");
        assert_eq!(Operand::I.to_string(), "I");
        assert_eq!(Operand::O.to_string(), "O");
    }
}
