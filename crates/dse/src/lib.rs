//! Hardware architecture design-space exploration (Case study 3).
//!
//! Generates hardware design points from a [`MemoryPool`] (register and
//! local-buffer capacity candidates) across MAC array sizes and GB
//! bandwidths, optimizes the mapping of each design for lowest latency
//! with the BW-aware (or BW-unaware baseline) model, and extracts
//! latency-area Pareto fronts — the machinery behind Fig. 8.
//!
//! # Example
//!
//! ```
//! use ulm_dse::{enumerate_designs, explore, pareto_front, ExploreOptions, MemoryPool};
//! use ulm_workload::{Layer, Precision};
//!
//! let pool = MemoryPool {
//!     w_reg_words_per_mac: vec![1],
//!     i_reg_words_per_mac: vec![1],
//!     o_reg_words_per_pe: vec![1],
//!     w_lb_kb: vec![8, 32],
//!     i_lb_kb: vec![8],
//! };
//! let designs = enumerate_designs(&pool, &[16], 128);
//! let layer = Layer::matmul("l", 64, 64, 128, Precision::int8_out24());
//! let points = explore(&designs, &layer, &ExploreOptions::default());
//! let front = pareto_front(&points);
//! assert!(!front.is_empty());
//! ```

pub mod explore;
pub mod pool;

pub use explore::{explore, explore_with_stats, pareto_front, DsePoint, DseStats, ExploreOptions};
pub use pool::{build_design, enumerate_designs, DesignParams, DesignPoint, MemoryPool};
