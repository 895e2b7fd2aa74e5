//! Finite periodic window functions and the exact measure of their union.
//!
//! The paper models each data-transfer link's *memory updating window*
//! (`MUW_u`) "as a finite periodic function, supporting union and
//! intersection operation" (Fig. 2a). A window function is described by
//! four parameters: the period (`Mem_CC`), the active length within one
//! period (`X`), the active start offset (`S`) and the number of periods
//! (`Z`). Step 2 of the model needs the *measure* (total active length) of
//! the union of several such windows — `MUW_comb = |∪ MUW_u|`. Their
//! periods always form a divisibility chain, and over a chain this crate
//! computes the union exactly, in closed form.
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
//! assert_eq!(union_measure(&mut [a, b]), 32.0);
//! # Ok::<(), ulm_periodic::WindowError>(())
//! ```

mod sweep;
mod window;

pub use sweep::union_measure;
pub use window::{PeriodicWindow, WindowError};
