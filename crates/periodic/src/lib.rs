//! Finite periodic window functions and their union/intersection measures.
//!
//! The paper models each data-transfer link's *memory updating window*
//! (`MUW_u`) "as a finite periodic function, supporting union and
//! intersection operation" (Fig. 2a). A window function is described by
//! four parameters: the period (`Mem_CC`), the active length within one
//! period (`X`), the active start offset (`S`) and the number of periods
//! (`Z`). Step 2 of the model needs the *measure* (total active length) of
//! the union of several such windows — `MUW_comb = |∪ MUW_u|` — which this
//! crate computes exactly whenever feasible and with documented bounds
//! otherwise.
//!
//! # Example
//!
//! ```
//! use ulm_periodic::{PeriodicWindow, union_measure};
//!
//! // A full window (double-buffered link: can update any time)...
//! let a = PeriodicWindow::full(8.0, 4)?;
//! // ...and a keep-out window active only in the last quarter of each
//! // 16-cycle period (non-double-buffered link with an ir top loop).
//! let b = PeriodicWindow::trailing(16.0, 4.0, 2)?;
//! assert_eq!(a.measure(), 32.0);
//! assert_eq!(b.measure(), 8.0);
//! // `a` already covers the whole timeline, so the union is everything.
//! let u = union_measure(&[a, b]);
//! assert_eq!(u.value(), 32.0);
//! assert!(u.is_exact());
//! # Ok::<(), ulm_periodic::WindowError>(())
//! ```

mod sweep;
mod window;

pub use sweep::{
    intersection_measure, union_measure, union_measure_scratch, union_measure_with, Measure,
    UnionOptions, UnionScratch,
};
pub use window::{PeriodicWindow, WindowError};
