//! Block-granular discrete-event reference simulator.
//!
//! This crate is the repository's stand-in for the paper's validation
//! ground truth (an in-house taped-out accelerator and its RTL
//! simulation — see `DESIGN.md` §4). Given the same
//! [`MappedLayer`] the analytical model
//! evaluates, the simulator:
//!
//! 1. enumerates every *actual* block transfer the loop nest performs
//!    (pure data reuse across irrelevant loops moves nothing, partial sums
//!    make round trips, double-buffered levels may prefetch while
//!    non-double-buffered ones wait for their keep-out window);
//! 2. executes them event-by-event against the physical memory ports,
//!    with FIFO contention and cross-level data dependencies;
//! 3. reports the observed end-to-end cycle count and its breakdown.
//!
//! Because stalls *emerge* from event ordering here rather than from the
//! closed-form window algebra, agreement between the analytical
//! `LatencyModel` (crate `ulm-model`) and [`Simulator::simulate`] is a
//! meaningful validation of the model (Fig. 5c).
//!
//! # Example
//!
//! ```
//! use ulm_arch::presets;
//! use ulm_mapping::{LoopStack, Mapping, MappedLayer, SpatialUnroll};
//! use ulm_sim::Simulator;
//! use ulm_workload::{Dim, Layer, Precision};
//!
//! let chip = presets::toy_chip();
//! let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
//! let mapping = Mapping::with_greedy_alloc(
//!     &chip.arch,
//!     &layer,
//!     SpatialUnroll::new(chip.spatial.clone()),
//!     LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
//! )
//! .unwrap();
//! let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
//! let report = Simulator::new().simulate(&view)?;
//! assert!(report.total_cycles >= report.compute_cycles);
//! # Ok::<(), ulm_sim::ScheduleTooLarge>(())
//! ```

pub mod engine;
pub mod schedule;
pub mod trace;

pub use engine::{PortBusy, SimReport};
pub use schedule::{build_schedule_lowered, Schedule, ScheduleTooLarge, Transfer, TransferKind};
pub use trace::{Trace, TraceEvent};

use ulm_mapping::MappedLayer;

/// The reference simulator with its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simulator {
    /// Maximum number of block transfers a single layer may generate
    /// before simulation is refused (guards against degenerate mappings).
    pub max_transfers: u64,
}

impl Default for Simulator {
    fn default() -> Self {
        Self {
            max_transfers: 4_000_000,
        }
    }
}

impl Simulator {
    /// A simulator with the default transfer cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the transfer schedule for `view` and executes it.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleTooLarge`] when the mapping would generate more
    /// than [`max_transfers`](Self::max_transfers) block transfers.
    pub fn simulate(&self, view: &MappedLayer<'_>) -> Result<SimReport, ScheduleTooLarge> {
        let schedule = schedule::build_schedule(view, self.max_transfers)?;
        Ok(engine::run(&schedule))
    }

    /// Like [`simulate`](Self::simulate), but also records the full
    /// execution [`Trace`] for timeline rendering (Fig. 4-style).
    ///
    /// # Errors
    ///
    /// Same cap as [`simulate`](Self::simulate).
    pub fn simulate_traced(
        &self,
        view: &MappedLayer<'_>,
    ) -> Result<(SimReport, Trace), ScheduleTooLarge> {
        let schedule = schedule::build_schedule(view, self.max_transfers)?;
        Ok(engine::run_traced(&schedule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    #[test]
    fn simulator_respects_cap() {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
        )
        .unwrap();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let tiny = Simulator { max_transfers: 1 };
        assert!(tiny.simulate(&view).is_err());
        assert!(Simulator::new().simulate(&view).is_ok());
    }
}
