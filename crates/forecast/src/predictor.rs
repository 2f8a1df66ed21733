//! The predictor contract plus forecast-error bookkeeping.

/// A one-step-ahead predictor over a scalar observation stream.
///
/// Implementations must be deterministic: the forecast after a sequence of
/// `observe` calls is a pure function of the constructor arguments and the
/// observed `(t, value)` pairs. Non-finite observations are discarded so a
/// single bad probe cannot poison the state.
pub trait Predictor {
    /// Fold in an observation made at simulated time `t` (seconds).
    fn observe(&mut self, t: f64, value: f64);

    /// Forecast the next observation; `None` until the first observation.
    fn forecast(&self) -> Option<f64>;

    /// Short stable name for tables and traces (`"ewma(0.30)"`, `"median(5)"`, …).
    fn name(&self) -> String;
}

/// A forecast with a symmetric error bar derived from the predictor's
/// running mean absolute error — the "confidence interval" the γ-gate
/// widens the Eq.-1 cost by. The default is an exact zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ForecastValue {
    /// Point forecast of the next observation.
    pub value: f64,
    /// One-sided error bar (≥ 0), typically the series MAE.
    pub error: f64,
}

impl ForecastValue {
    /// A forecast with no uncertainty (reactive mode: the latest sample).
    pub fn exact(value: f64) -> Self {
        ForecastValue { value, error: 0.0 }
    }

    /// Pessimistic bound: forecast plus the error bar.
    pub fn upper(&self) -> f64 {
        self.value + self.error
    }

    /// Optimistic bound, floored at zero (α, β and load are all
    /// non-negative quantities).
    pub fn lower(&self) -> f64 {
        (self.value - self.error).max(0.0)
    }
}

/// Running mean-absolute-error accumulator for one (predictor, series) pair.
///
/// `record` is called with the forecast made *before* the matching
/// observation was folded in, so the tracker measures true out-of-sample
/// error, NWS-style.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MaeTracker {
    samples: u64,
    sum_abs_err: f64,
}

impl MaeTracker {
    /// Record one (forecast, actual) pair; non-finite pairs are discarded.
    pub fn record(&mut self, forecast: f64, actual: f64) {
        let err = (forecast - actual).abs();
        if err.is_finite() {
            self.sum_abs_err += err;
            self.samples += 1;
        }
    }

    /// Mean absolute error so far (0 before any recorded pair).
    pub fn mae(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_abs_err / self.samples as f64
        }
    }

    /// Number of (forecast, actual) pairs recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Total absolute error mass (MAE numerator) — exposed for tests.
    pub fn sum_abs_err(&self) -> f64 {
        self.sum_abs_err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_starts_at_zero_and_averages() {
        let mut t = MaeTracker::default();
        assert_eq!(t.mae(), 0.0);
        t.record(1.0, 3.0); // err 2
        t.record(5.0, 4.0); // err 1
        assert!((t.mae() - 1.5).abs() < 1e-12);
        assert_eq!(t.samples(), 2);
    }

    #[test]
    fn mae_discards_non_finite() {
        let mut t = MaeTracker::default();
        t.record(f64::NAN, 1.0);
        t.record(1.0, f64::INFINITY);
        assert_eq!(t.samples(), 0);
        assert_eq!(t.mae(), 0.0);
    }

    #[test]
    fn forecast_value_bounds() {
        let f = ForecastValue { value: 2.0, error: 3.0 };
        assert_eq!(f.upper(), 5.0);
        assert_eq!(f.lower(), 0.0); // clamped
        assert_eq!(ForecastValue::exact(2.0).upper(), 2.0);
    }
}
