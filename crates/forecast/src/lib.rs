//! # forecast — network-weather prediction substrate
//!
//! Seeded, deterministic time-series predictors in the style of the Network
//! Weather Service (Wolski et al.), which the paper's grid environment builds
//! on. A small family of one-step-ahead models — last-value, sliding-window
//! mean, sliding median, fixed-gain EWMA, adaptive-gain EWMA — plus an
//! *adaptive selector* that tracks each model's mean absolute error on the
//! stream and forwards the forecast of whichever model has predicted best so
//! far.
//!
//! The crate is the single home for exponential smoothing and forecast
//! bookkeeping in the workspace: `topology::probe::LinkEstimator` folds its
//! α/β probe samples through [`LinkForecast`], `core` widens the Eq.-1 cost
//! by the forecast error before applying the γ-gate, and `bench` sweeps
//! [`PredictorKind`]s in its ablation tables.
//!
//! Everything here is plain arithmetic over `f64` streams: no clocks, no
//! randomness at run time (the only use of the seed is deterministic
//! tie-breaking and seed derivation), so the same seed and the same
//! observation stream reproduce bit-identical forecasts on any host.

#![forbid(unsafe_code)]

pub mod kind;
pub mod predictor;
pub mod predictors;
pub mod selector;
pub mod series;

pub use kind::PredictorKind;
pub use predictor::{ForecastValue, MaeTracker, Predictor};
pub use predictors::{AdaptiveEwma, Ewma, LastValue, Model, SlidingMean, SlidingMedian};
pub use selector::AdaptiveSelector;
pub use series::{LinkForecast, SeriesForecaster};

use base::rng::splitmix64;

/// Derive a decorrelated child seed from a base seed and a salt (link id,
/// group id, series index, …). Deterministic; distinct salts give distinct
/// streams.
pub fn derive_seed(base: u64, salt: u64) -> u64 {
    splitmix64(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic_and_salt_sensitive() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }
}
