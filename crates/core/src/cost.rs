//! Redistribution-cost evaluation — §4.2, Eq. (1):
//! `Cost = (α + β·W) + δ`.
//!
//! The communication term uses α and β measured on-line by the two-message
//! probe ([`topology::probe`]); the computational term `δ` is the recorded
//! overhead of the previous redistribution (history information).
//!
//! When α/β come from a *forecast* rather than a raw probe, the estimate
//! also carries a pessimistic upper bound widened by the forecast error
//! ([`evaluate_cost_forecast`]), and the γ-gate demands
//! `Gain > γ · Cost_upper` so an unstable link must clear a higher bar.

use crate::history::WorkloadHistory;
use forecast::ForecastValue;

/// Result of evaluating Eq. (1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// Communication part: `α + β·W` seconds (point forecast).
    pub comm_secs: f64,
    /// Pessimistic communication bound: α/β widened by their forecast error
    /// bars. Equals `comm_secs` for reactive (probe-direct) estimates.
    pub comm_upper_secs: f64,
    /// Computational part `δ`: repartition + rebuild + boundary update,
    /// taken from the previous redistribution.
    pub delta_secs: f64,
}

impl CostEstimate {
    /// Total redistribution cost in seconds (point estimate).
    pub fn total_secs(&self) -> f64 {
        self.comm_secs + self.delta_secs
    }

    /// Pessimistic total: communication upper bound plus δ.
    pub fn upper_total_secs(&self) -> f64 {
        self.comm_upper_secs + self.delta_secs
    }
}

/// Evaluate Eq. (1) for moving `move_bytes` across a link with probed
/// parameters `alpha` (s) and `beta` (s/byte). The upper bound collapses
/// onto the point estimate: a raw probe carries no error bar.
pub fn evaluate_cost(
    alpha: f64,
    beta: f64,
    move_bytes: u64,
    history: &WorkloadHistory,
) -> CostEstimate {
    assert!(alpha >= 0.0 && beta >= 0.0);
    let comm_secs = alpha + beta * move_bytes as f64;
    CostEstimate {
        comm_secs,
        comm_upper_secs: comm_secs,
        delta_secs: history.delta(),
    }
}

/// Evaluate Eq. (1) from forecasted α/β with error bars.
///
/// The point estimate uses the forecast values; the upper bound widens each
/// parameter by its error bar (the series MAE) before pricing the move —
/// one mean-absolute-error of pessimism.
pub fn evaluate_cost_forecast(
    alpha: ForecastValue,
    beta: ForecastValue,
    move_bytes: u64,
    history: &WorkloadHistory,
) -> CostEstimate {
    assert!(alpha.value >= 0.0 && beta.value >= 0.0);
    let bytes = move_bytes as f64;
    let comm_secs = alpha.value + beta.value * bytes;
    let comm_upper_secs = alpha.upper() + beta.upper() * bytes;
    CostEstimate {
        comm_secs,
        comm_upper_secs,
        delta_secs: history.delta(),
    }
}

/// The γ-gate of §4.4: redistribution is invoked only when
/// `Gain > γ · Cost`. `gamma`'s paper default is 2.0. The cost is the
/// *pessimistic* one: for a reactive (probe-direct) estimate that is the
/// point estimate, the paper's gate exactly; under forecast error the bar
/// rises with the error bars.
pub fn should_redistribute(gain_secs: f64, cost: &CostEstimate, gamma: f64) -> bool {
    gain_secs > gamma * cost.upper_total_secs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::WorkloadHistory;

    #[test]
    fn eq1_sum_of_terms() {
        let mut h = WorkloadHistory::new(1);
        h.record_redistribution_overhead(0.25);
        let c = evaluate_cost(0.01, 1e-7, 10_000_000, &h);
        assert!((c.comm_secs - (0.01 + 1.0)).abs() < 1e-12);
        assert_eq!(c.delta_secs, 0.25);
        assert!((c.total_secs() - 1.26).abs() < 1e-12);
    }

    #[test]
    fn zero_bytes_costs_latency_plus_delta() {
        let h = WorkloadHistory::new(1);
        let c = evaluate_cost(0.005, 1e-7, 0, &h);
        assert_eq!(c.comm_secs, 0.005);
        assert_eq!(c.total_secs(), 0.005);
    }

    #[test]
    fn gamma_gate_default() {
        let h = WorkloadHistory::new(1);
        let c = evaluate_cost(0.0, 1e-6, 1_000_000, &h); // 1 s
        assert!(should_redistribute(2.5, &c, 2.0));
        assert!(!should_redistribute(2.0, &c, 2.0)); // strict inequality
        assert!(!should_redistribute(1.0, &c, 2.0));
        // gamma = 0 accepts any positive gain
        assert!(should_redistribute(0.001, &c, 0.0));
    }

    #[test]
    fn forecast_cost_widens_the_upper_bound() {
        let mut h = WorkloadHistory::new(1);
        h.record_redistribution_overhead(0.1);
        let alpha = ForecastValue { value: 0.01, error: 0.005 };
        let beta = ForecastValue { value: 1e-7, error: 5e-8 };
        let c = evaluate_cost_forecast(alpha, beta, 10_000_000, &h);
        assert!((c.comm_secs - (0.01 + 1.0)).abs() < 1e-12);
        assert!((c.comm_upper_secs - (0.015 + 1.5)).abs() < 1e-12);
        assert!(c.upper_total_secs() > c.total_secs());
        // exact forecasts (reactive) keep both gates equivalent
        let exact = evaluate_cost_forecast(
            ForecastValue::exact(0.01),
            ForecastValue::exact(1e-7),
            10_000_000,
            &h,
        );
        assert_eq!(exact.comm_upper_secs, exact.comm_secs);
    }

    #[test]
    fn confident_gate_demands_more_under_forecast_error() {
        let h = WorkloadHistory::new(1);
        let alpha = ForecastValue::exact(0.0);
        let beta = ForecastValue { value: 1e-6, error: 1e-6 };
        let c = evaluate_cost_forecast(alpha, beta, 1_000_000, &h);
        // point cost 1 s, upper 2 s: a gain of 3 s would pass a gate on
        // the point cost at γ = 2, but not the gate
        assert!(3.0 > 2.0 * c.total_secs());
        assert!(!should_redistribute(3.0, &c, 2.0));
        assert!(should_redistribute(4.5, &c, 2.0));
    }

    #[test]
    fn congestion_raises_cost_and_blocks() {
        let h = WorkloadHistory::new(1);
        let quiet = evaluate_cost(0.005, 5.16e-8, 50_000_000, &h); // ~2.6 s
        let congested = evaluate_cost(0.005, 5.16e-7, 50_000_000, &h); // ~25.8 s
        let gain = 10.0;
        assert!(should_redistribute(gain, &quiet, 2.0));
        assert!(!should_redistribute(gain, &congested, 2.0));
    }
}
