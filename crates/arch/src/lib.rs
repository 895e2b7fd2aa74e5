//! Hardware architecture description for the uniform latency model.
//!
//! This crate provides the *Hardware* leg of the AHM triple: a MAC array,
//! a multi-level memory hierarchy with per-memory capacity / bandwidth /
//! port / double-buffering attributes, per-operand memory chains (including
//! physically shared memories such as a global buffer holding W, I and O),
//! an area model for latency-area trade-off studies, and presets for the
//! paper's validation chip and case-study accelerators.
//!
//! # Example
//!
//! ```
//! use ulm_arch::presets;
//! use ulm_workload::Operand;
//!
//! let chip = presets::case_study_chip(128);
//! assert_eq!(chip.mac_array().num_macs(), 256); // 16x16 MACs
//! // W traverses three levels: W-Reg <- W-LB <- GB.
//! assert_eq!(chip.hierarchy().chain(Operand::W).len(), 3);
//! ```

pub mod archdesc;
pub mod area;
pub mod array;
pub mod hierarchy;
pub mod mem;
pub mod presets;

pub use archdesc::ArchDesc;
pub use area::AreaModel;
pub use array::MacArray;
pub use hierarchy::{Architecture, MemoryHierarchy, MemoryId, StallIntegration};
pub use mem::{Memory, MemoryKind, Port, PortDir, PortId, PortUse};

use std::error::Error;
use std::fmt;

/// Errors raised while building or validating an architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchError {
    /// A memory chain references a memory index that does not exist.
    UnknownMemory {
        /// The out-of-range index.
        index: usize,
    },
    /// An operand's memory chain is empty (every operand needs at least
    /// one on-chip level).
    EmptyChain {
        /// The operand with no memories.
        operand: ulm_workload::Operand,
    },
    /// A memory id appears twice in the same operand's chain.
    DuplicateInChain {
        /// The repeated memory's name.
        memory: String,
    },
    /// A (memory, operand, direction) access has no port serving that
    /// direction.
    MissingPort {
        /// The memory's name.
        memory: String,
        /// The unreachable operand.
        operand: ulm_workload::Operand,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::UnknownMemory { index } => {
                write!(f, "memory chain references unknown memory index {index}")
            }
            ArchError::EmptyChain { operand } => {
                write!(f, "operand {operand} has an empty memory chain")
            }
            ArchError::DuplicateInChain { memory } => {
                write!(f, "memory `{memory}` appears twice in one operand chain")
            }
            ArchError::MissingPort { memory, operand } => {
                write!(
                    f,
                    "memory `{memory}` has no port assigned for operand {operand}"
                )
            }
        }
    }
}

impl Error for ArchError {}
