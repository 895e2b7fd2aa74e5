//! Operand bit-precision description.

use crate::Operand;

/// Bit widths of the three operands, with outputs split into partial-sum
/// and final precision.
///
/// The paper's validation chip runs INT8 inference with 24-bit output
/// registers: weights and inputs occupy 8 bits, partial sums travel at
/// 24 bits and final outputs are re-quantized to 8 bits. The distinction
/// matters for latency because partial-sum traffic through a bandwidth
/// limited interface is 3x as expensive as final-output traffic
/// (Case study 2, Fig. 7).
///
/// # Example
///
/// ```
/// use ulm_workload::{Precision, Operand};
///
/// let p = Precision::int8_acc24();
/// assert_eq!(p.bits(Operand::W), 8);
/// assert_eq!(p.partial_sum_bits(), 24);
/// assert_eq!(p.output_bits(true), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Precision {
    w_bits: u64,
    i_bits: u64,
    o_partial_bits: u64,
    o_final_bits: u64,
}

impl Precision {
    /// The precision names [`by_name`](Self::by_name) accepts.
    pub const NAMES: [&str; 2] = ["int8_out24", "int8_acc24"];

    /// The named precision (one of [`NAMES`](Self::NAMES)), or `None`.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "int8_out24" => Some(Self::int8_out24()),
            "int8_acc24" => Some(Self::int8_acc24()),
            _ => None,
        }
    }

    /// Builds a precision description.
    ///
    /// # Panics
    ///
    /// Panics if any width is zero or if the final output is wider than the
    /// partial sum (re-quantization never widens data).
    pub fn new(w_bits: u64, i_bits: u64, o_partial_bits: u64, o_final_bits: u64) -> Self {
        assert!(
            w_bits > 0 && i_bits > 0 && o_partial_bits > 0 && o_final_bits > 0,
            "operand bit widths must be positive"
        );
        assert!(
            o_final_bits <= o_partial_bits,
            "final output precision ({o_final_bits}b) must not exceed partial-sum \
             precision ({o_partial_bits}b)"
        );
        Self {
            w_bits,
            i_bits,
            o_partial_bits,
            o_final_bits,
        }
    }

    /// The paper's validation-chip precision: 8-bit W/I, 24-bit partial
    /// sums, 8-bit re-quantized final outputs.
    pub fn int8_acc24() -> Self {
        Self::new(8, 8, 24, 8)
    }

    /// INT8 W/I with 24-bit partial sums kept at 24 bits when written out
    /// (no re-quantization). Matches the case studies, where the output
    /// operand is counted at 24 bits ("the 24-bit O precision" in Case 2).
    pub fn int8_out24() -> Self {
        Self::new(8, 8, 24, 24)
    }

    /// Uniform `bits` for every operand, partial sums included. Useful for
    /// tests and idealized studies.
    pub fn uniform(bits: u64) -> Self {
        Self::new(bits, bits, bits, bits)
    }

    /// Storage width of `op`: W and I widths, and the *partial-sum* width
    /// for O (the width the output occupies while resident on chip).
    pub fn bits(&self, op: Operand) -> u64 {
        match op {
            Operand::W => self.w_bits,
            Operand::I => self.i_bits,
            Operand::O => self.o_partial_bits,
        }
    }

    /// Width of an output value while it is still a partial sum.
    pub fn partial_sum_bits(&self) -> u64 {
        self.o_partial_bits
    }

    /// Width of the output operand when crossing a memory interface:
    /// partial-sum width if the values still need accumulation, final
    /// width otherwise.
    pub fn output_bits(&self, is_final: bool) -> u64 {
        if is_final {
            self.o_final_bits
        } else {
            self.o_partial_bits
        }
    }
}

impl Default for Precision {
    /// Defaults to the validation-chip [`Precision::int8_acc24`].
    fn default() -> Self {
        Self::int8_acc24()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_acc24_widths() {
        let p = Precision::int8_acc24();
        assert_eq!(p.bits(Operand::W), 8);
        assert_eq!(p.bits(Operand::I), 8);
        assert_eq!(p.bits(Operand::O), 24);
        assert_eq!(p.output_bits(true), 8);
        assert_eq!(p.output_bits(false), 24);
    }

    #[test]
    fn uniform_is_uniform() {
        let p = Precision::uniform(16);
        for op in Operand::all() {
            assert_eq!(p.bits(op), 16);
        }
        assert_eq!(p.output_bits(true), 16);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn widening_requantization_rejected() {
        let _ = Precision::new(8, 8, 8, 24);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_width_rejected() {
        let _ = Precision::new(8, 0, 24, 8);
    }
}
