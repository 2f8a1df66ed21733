//! Forecast state for one scalar series, and the α/β pair a
//! link estimator keeps per WAN link.

use crate::kind::PredictorKind;
use crate::predictor::{ForecastValue, MaeTracker, Predictor};
use crate::predictors::Model;
use crate::{derive_seed, AdaptiveSelector};

/// One scalar observation stream with a model and out-of-sample MAE
/// tracking.
#[derive(Clone, Debug)]
pub struct SeriesForecaster {
    model: Model,
    mae: MaeTracker,
}

impl SeriesForecaster {
    pub fn new(kind: PredictorKind, seed: u64) -> Self {
        SeriesForecaster { model: kind.build(seed), mae: MaeTracker::default() }
    }

    /// Fold in an observation at time `t` (seconds). The pre-observation
    /// forecast is charged to the MAE tracker first, so `mae()` measures
    /// true prediction error, not in-sample fit.
    pub fn observe(&mut self, t: f64, value: f64) {
        if !value.is_finite() {
            return;
        }
        if let Some(f) = self.model.forecast() {
            self.mae.record(f, value);
        }
        self.model.observe(t, value);
    }

    /// Point forecast of the next observation (`None` before data).
    pub fn forecast(&self) -> Option<f64> {
        self.model.forecast()
    }

    /// Forecast with the running MAE as its symmetric error bar.
    pub fn forecast_value(&self) -> Option<ForecastValue> {
        self.model.forecast().map(|value| ForecastValue { value, error: self.mae.mae() })
    }

    /// Mean absolute one-step forecast error so far.
    pub fn mae(&self) -> f64 {
        self.mae.mae()
    }

    /// Number of scored (forecast, observation) pairs.
    pub fn scored_samples(&self) -> u64 {
        self.mae.samples()
    }

    /// Name of the configured model (`"adaptive"` for a selector).
    pub fn model_name(&self) -> String {
        self.model.name()
    }

    /// The selector panel, when this series runs the adaptive model.
    pub fn selector(&self) -> Option<&AdaptiveSelector> {
        match &self.model {
            Model::Selector(s) => Some(s),
            _ => None,
        }
    }
}

/// The two per-link series of the §4.2 probe: latency α (s) and inverse
/// bandwidth β (s/byte).
#[derive(Clone, Debug)]
pub struct LinkForecast {
    pub alpha: SeriesForecaster,
    pub beta: SeriesForecaster,
}

impl LinkForecast {
    pub fn new(kind: PredictorKind, seed: u64) -> Self {
        LinkForecast {
            alpha: SeriesForecaster::new(kind, derive_seed(seed, 1)),
            beta: SeriesForecaster::new(kind, derive_seed(seed, 2)),
        }
    }

    /// Fold one probe result.
    pub fn observe_probe(&mut self, t: f64, alpha: f64, beta: f64) {
        self.alpha.observe(t, alpha);
        self.beta.observe(t, beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_mae_is_out_of_sample() {
        let mut s = SeriesForecaster::new(PredictorKind::LastValue, 0);
        s.observe(0.0, 10.0); // no prior forecast — unscored
        assert_eq!(s.scored_samples(), 0);
        s.observe(1.0, 14.0); // forecast was 10, err 4
        s.observe(2.0, 14.0); // forecast was 14, err 0
        assert_eq!(s.scored_samples(), 2);
        assert!((s.mae() - 2.0).abs() < 1e-12);
        let f = s.forecast_value().unwrap();
        assert_eq!(f.value, 14.0);
        assert!((f.error - 2.0).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_stream_is_bit_identical() {
        let run = |seed: u64| {
            let mut s = SeriesForecaster::new(PredictorKind::Adaptive, seed);
            let mut out = Vec::new();
            for i in 0..50 {
                let v = 10.0 + ((i * 37) % 11) as f64;
                s.observe(i as f64, v);
                out.push((s.forecast().map(f64::to_bits), s.mae().to_bits()));
            }
            out
        };
        assert_eq!(run(99), run(99));
    }
}
