//! Property tests: window predictors stay inside the window's range,
//! shifting a window shifts the forecast monotonically, and MAE bookkeeping
//! is exact.

use base::prop::{self, Gen};
use forecast::{
    MaeTracker, Predictor, PredictorKind, SeriesForecaster, SlidingMean, SlidingMedian,
};

fn finite_series(g: &mut Gen) -> Vec<f64> {
    g.vec(1..64, |g| g.f64(0.0..1e9))
}

/// Mean and median forecasts never leave [min, max] of the last
/// `window` observations.
#[test]
fn window_forecasts_stay_in_window_range() {
    prop::check(
        prop::CASES,
        |g| (finite_series(g), g.usize(1..12)),
        |(values, window)| {
            let mut mean = SlidingMean::new(window);
            let mut median = SlidingMedian::new(window);
            for (i, v) in values.iter().enumerate() {
                mean.observe(i as f64, *v);
                median.observe(i as f64, *v);
                let tail: Vec<f64> = values[..=i].iter().rev().take(window).copied().collect();
                let lo = tail.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let m = mean.forecast().unwrap();
                let d = median.forecast().unwrap();
                assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
                assert!(d >= lo - 1e-9 && d <= hi + 1e-9);
            }
        },
    );
}

/// Monotone window updates: raising every observation by a positive
/// delta raises (or holds) the mean and median forecasts.
#[test]
fn window_forecasts_are_monotone_in_the_window() {
    prop::check(
        prop::CASES,
        |g| (finite_series(g), g.usize(1..12), g.f64(0.0..1e6)),
        |(values, window, delta)| {
            let mut base_mean = SlidingMean::new(window);
            let mut up_mean = SlidingMean::new(window);
            let mut base_med = SlidingMedian::new(window);
            let mut up_med = SlidingMedian::new(window);
            for (i, v) in values.iter().enumerate() {
                base_mean.observe(i as f64, *v);
                up_mean.observe(i as f64, *v + delta);
                base_med.observe(i as f64, *v);
                up_med.observe(i as f64, *v + delta);
            }
            assert!(up_mean.forecast().unwrap() >= base_mean.forecast().unwrap() - 1e-9);
            assert!(up_med.forecast().unwrap() >= base_med.forecast().unwrap() - 1e-9);
        },
    );
}

/// MAE bookkeeping: mae·samples equals the summed absolute errors, and
/// the mean sits between the smallest and largest single error.
#[test]
fn mae_bookkeeping_is_exact() {
    prop::check(
        prop::CASES,
        |g| g.vec(1..40, |g| (g.f64(0.0..1e6), g.f64(0.0..1e6))),
        |pairs| {
            let mut t = MaeTracker::default();
            let mut errs = Vec::new();
            for (f, a) in &pairs {
                t.record(*f, *a);
                errs.push((f - a).abs());
            }
            let total: f64 = errs.iter().sum();
            assert_eq!(t.samples(), errs.len() as u64);
            assert!((t.mae() * t.samples() as f64 - total).abs() <= 1e-6 * (1.0 + total));
            let lo = errs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = errs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(t.mae() >= lo - 1e-9 && t.mae() <= hi + 1e-9);
        },
    );
}

/// Same seed + same stream ⇒ bit-identical adaptive forecasts, choices,
/// and MAE, regardless of the stream contents.
#[test]
fn adaptive_series_is_deterministic() {
    prop::check(
        prop::CASES,
        |g| (finite_series(g), g.any_u64()),
        |(values, seed)| {
            let run = || {
                let mut s = SeriesForecaster::new(PredictorKind::Adaptive, seed);
                let mut trace = Vec::new();
                for (i, v) in values.iter().enumerate() {
                    s.observe(i as f64, *v);
                    trace.push((
                        s.forecast().map(f64::to_bits),
                        s.mae().to_bits(),
                        s.selector().map(|sel| sel.best_index()),
                    ));
                }
                trace
            };
            assert_eq!(run(), run());
        },
    );
}
