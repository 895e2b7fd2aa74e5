//! # ulm — A Uniform Latency Model for DNN Accelerators
//!
//! A from-scratch Rust reproduction of *"A Uniform Latency Model for DNN
//! Accelerators with Diverse Architectures and Dataflows"* (DATE 2022):
//! an analytical intra-layer clock-cycle model that works across memory
//! hierarchies with arbitrary capacity / bandwidth / port /
//! double-buffering configurations and arbitrary dataflows, plus every
//! substrate the paper's evaluation depends on — workload and mapping
//! representations, a ZigZag-style mapper, an energy and area model, a
//! discrete-event reference simulator and an architecture-DSE driver.
//!
//! This crate is the facade: it re-exports the workspace crates and
//! offers a [`prelude`] for one-line imports.
//!
//! ## Quick start
//!
//! ```
//! use ulm::prelude::*;
//!
//! // Hardware: the paper's scaled-down case-study chip (16x16 MACs,
//! // 1 MB GB at 128 bit/cycle).
//! let arch = presets::case_study_chip(128);
//! // Algorithm: an Im2Col-lowered layer.
//! let layer = Layer::matmul("demo", 64, 96, 640, Precision::int8_out24());
//! // Mapping: let the mapper find the lowest-latency dataflow.
//! let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
//! let result = Mapper::new(&arch, &layer, spatial).search(Objective::Latency)?;
//! let report = &result.best.latency;
//! assert!(report.utilization > 0.0);
//! println!("{report}");
//! # Ok::<(), UlmError>(())
//! ```

pub use ulm_arch as arch;
pub use ulm_dse as dse;
pub use ulm_energy as energy;
pub use ulm_error as error;
pub use ulm_mapper as mapper;
pub use ulm_mapping as mapping;
pub use ulm_model as model;
pub use ulm_network as network;
pub use ulm_periodic as periodic;
pub use ulm_reactor as reactor;
pub use ulm_serve as serve;
pub use ulm_sim as sim;
pub use ulm_workload as workload;

/// One-line imports for the common workflow.
pub mod prelude {
    pub use ulm_arch::{
        presets, Architecture, AreaModel, MacArray, Memory, MemoryHierarchy, MemoryId, MemoryKind,
        Port, PortUse, StallIntegration,
    };
    pub use ulm_dse::{
        enumerate_designs, explore, explore_with_stats, pareto_front, DesignParams, DsePoint,
        DseStats, ExploreOptions, MemoryPool,
    };
    pub use ulm_energy::{EnergyModel, EnergyReport};
    pub use ulm_error::UlmError;
    pub use ulm_mapper::{
        EvaluatedMapping, Mapper, MapperOptions, Objective, SearchResult, SearchStats,
    };
    pub use ulm_mapping::{
        FuseError, FusedSegment, LoopStack, MappedLayer, Mapping, MappingError, OperandAlloc,
        SegmentResidency, SpatialUnroll, TemporalLoop,
    };
    pub use ulm_model::{
        apply_overrides, parse_measurements, Calibration, CalibrationFit, Calibrator, FastLatency,
        InputDelta, KnobError, LatencyModel, LatencyReport, LoweredLayer, MappingShape,
        ModelOptions, ModelScratch, RebuildStats, Scenario, SpecializedModel,
    };
    pub use ulm_network::{InterLayerOverlap, NetworkEvaluator, NetworkReport};
    pub use ulm_serve::{EvalService, Fingerprint, ResultCache, ServeOptions, WorkerPool};
    pub use ulm_sim::{SimReport, Simulator};
    pub use ulm_workload::{
        im2col, networks, Dim, DimSizes, Layer, LayerShape, LayerType, Operand, PerOperand,
        Precision,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_names_resolve() {
        use crate::prelude::*;
        let chip = presets::toy_chip();
        let layer = Layer::matmul("t", 4, 4, 8, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let r = Mapper::new(&chip.arch, &layer, spatial)
            .search(Objective::Latency)
            .expect("toy space has legal mappings");
        assert!(r.best.latency.cc_total > 0.0);
    }
}
