//! The [`PeriodicWindow`] type: `Z` repetitions of an active interval
//! `[S, S+X)` inside a period of length `Mem_CC`.

use std::error::Error;
use std::fmt;

/// A finite periodic window function (Fig. 2a of the paper).
///
/// The function is *active* on `[k*P + S, k*P + S + X)` for
/// `k = 0 .. Z-1`, where `P` is the period, `S` the start offset, `X` the
/// active length and `Z` the number of periods. Values are `f64` because
/// the model produces fractional active lengths (`X_REQ = Mem_CC / n` for
/// an `n`-fold irrelevant top loop); periods themselves are integral cycle
/// counts represented exactly.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PeriodicWindow {
    period: f64,
    start: f64,
    len: f64,
    count: u64,
}

/// Error for invalid window parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowError {
    /// The period must be positive and finite.
    BadPeriod(f64),
    /// `start`/`len` must be non-negative with `start + len <= period`.
    BadInterval {
        /// Offending start offset.
        start: f64,
        /// Offending active length.
        len: f64,
        /// The window's period.
        period: f64,
    },
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowError::BadPeriod(p) => write!(f, "period must be positive and finite, got {p}"),
            WindowError::BadInterval { start, len, period } => write!(
                f,
                "active interval [start={start}, start+len={}) must lie within one \
                 period of length {period}",
                start + len
            ),
        }
    }
}

impl Error for WindowError {}

impl PeriodicWindow {
    /// Builds a window with explicit period, start offset, active length
    /// and period count.
    ///
    /// # Errors
    ///
    /// Returns [`WindowError`] if the period is not positive/finite or the
    /// active interval does not fit inside one period.
    pub fn new(period: f64, start: f64, len: f64, count: u64) -> Result<Self, WindowError> {
        if !(period.is_finite() && period > 0.0) {
            return Err(WindowError::BadPeriod(period));
        }
        // Tolerate tiny floating-point overshoot from X = P / n * n round
        // trips, then clamp.
        let eps = period * 1e-12;
        if !(start.is_finite() && len.is_finite())
            || start < 0.0
            || len < 0.0
            || start + len > period + eps
        {
            return Err(WindowError::BadInterval { start, len, period });
        }
        let len = len.min(period - start);
        Ok(Self {
            period,
            start,
            len,
            count,
        })
    }

    /// A window active for the whole of each period (a double-buffered or
    /// relevant-top-loop link: memory updating may fully overlap compute).
    pub fn full(period: f64, count: u64) -> Result<Self, WindowError> {
        Self::new(period, 0.0, period, count)
    }

    /// A window active only during the *last* `len` cycles of each period —
    /// the paper's "Mem Update Keep-Out Zone" shape for non-double-buffered
    /// memories whose top loop is irrelevant (Fig. 3 d-f).
    pub fn trailing(period: f64, len: f64, count: u64) -> Result<Self, WindowError> {
        let len = len.min(period);
        Self::new(period, period - len, len, count)
    }

    /// Period length `Mem_CC`.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Active start offset `S` within a period.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Active length `X` within a period.
    pub fn len(&self) -> f64 {
        self.len
    }

    /// True if the active length is zero (the window never opens).
    pub fn is_empty(&self) -> bool {
        self.len == 0.0 || self.count == 0
    }

    /// Number of periods `Z`.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total timeline covered: `Z * Mem_CC`.
    pub fn span(&self) -> f64 {
        self.period * self.count as f64
    }

    /// Total active measure: `X * Z` (the paper's `MUW_u = X_REQ x Z`).
    pub fn measure(&self) -> f64 {
        self.len * self.count as f64
    }

    /// The `k`-th active interval `[lo, hi)` on the absolute timeline.
    ///
    /// # Panics
    ///
    /// Panics if `k >= count`.
    pub fn interval(&self, k: u64) -> (f64, f64) {
        assert!(k < self.count, "interval index {k} out of {}", self.count);
        let base = self.period * k as f64 + self.start;
        (base, base + self.len)
    }
}

impl fmt::Display for PeriodicWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window(P={}, S={}, X={}, Z={})",
            self.period, self.start, self.len, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_window_spans_period() {
        let w = PeriodicWindow::full(10.0, 3).unwrap();
        assert_eq!((w.start(), w.len()), (0.0, 10.0));
        assert_eq!(w.measure(), 30.0);
        assert_eq!(w.span(), 30.0);
        assert_eq!(w.interval(2), (20.0, 30.0));
    }

    #[test]
    fn trailing_window_sits_at_period_end() {
        let w = PeriodicWindow::trailing(12.0, 3.0, 2).unwrap();
        assert_eq!(w.start(), 9.0);
        assert_eq!(w.interval(0), (9.0, 12.0));
        assert_eq!(w.interval(1), (21.0, 24.0));
        assert_eq!(w.measure(), 6.0);
    }

    #[test]
    fn trailing_clamps_oversize_len() {
        let w = PeriodicWindow::trailing(4.0, 9.0, 1).unwrap();
        assert_eq!((w.start(), w.len()), (0.0, 4.0));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(matches!(
            PeriodicWindow::new(0.0, 0.0, 0.0, 1),
            Err(WindowError::BadPeriod(_))
        ));
        assert!(matches!(
            PeriodicWindow::new(10.0, 6.0, 6.0, 1),
            Err(WindowError::BadInterval { .. })
        ));
        assert!(matches!(
            PeriodicWindow::new(10.0, -1.0, 2.0, 1),
            Err(WindowError::BadInterval { .. })
        ));
        assert!(PeriodicWindow::new(10.0, 0.0, f64::NAN, 1).is_err());
    }

    #[test]
    fn float_round_trip_tolerated() {
        // X = P/n can overshoot by an ulp when recombined; new() clamps.
        let p = 3.0;
        let x = p / 7.0 * 7.0; // may be 3.0000000000000004
        let w = PeriodicWindow::new(p, 0.0, x, 5).unwrap();
        assert!(w.len() <= p);
    }

    #[test]
    fn zero_count_window_is_empty() {
        let w = PeriodicWindow::full(10.0, 0).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.measure(), 0.0);
    }
}
