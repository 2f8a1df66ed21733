//! NWS-style adaptive predictor selection: run every candidate model on the
//! stream, score each by out-of-sample MAE, forward the current best.

use crate::predictor::{MaeTracker, Predictor};
use crate::predictors::Model;
use base::rng::splitmix64;

/// Runs a panel of candidate models in lockstep over one observation stream
/// and forecasts with whichever has the lowest mean absolute error so far.
///
/// Scoring is strictly out-of-sample: each candidate is asked for its
/// forecast *before* the new observation is folded in, and that forecast is
/// charged against the observation. Exact MAE ties (common before the
/// trackers have data) are broken by a seeded deterministic hash, so the
/// selector is reproducible from `(seed, stream)` alone.
#[derive(Clone, Debug)]
pub struct AdaptiveSelector {
    members: Vec<(Model, MaeTracker)>,
    seed: u64,
}

impl AdaptiveSelector {
    /// Selector over an explicit candidate panel. Panels are typically built
    /// via [`crate::PredictorKind::Adaptive`].
    pub fn new(members: Vec<Model>, seed: u64) -> Self {
        assert!(!members.is_empty(), "selector needs at least one candidate");
        AdaptiveSelector {
            members: members.into_iter().map(|m| (m, MaeTracker::default())).collect(),
            seed,
        }
    }

    /// Index of the current best candidate (lowest MAE, seeded tie-break).
    pub fn best_index(&self) -> usize {
        let mut best = 0usize;
        let mut best_key = self.rank_key(0);
        for i in 1..self.members.len() {
            let key = self.rank_key(i);
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    /// `(mae, tie_hash)` — lexicographic order picks the lowest-error model,
    /// with exact ties resolved by the seeded hash.
    fn rank_key(&self, i: usize) -> (f64, u64) {
        (self.members[i].1.mae(), splitmix64(self.seed ^ i as u64))
    }

    /// Name of the model currently forwarded by [`Predictor::forecast`].
    pub fn best_name(&self) -> String {
        self.members[self.best_index()].0.name()
    }

    /// Per-candidate `(name, mae, samples)` scoreboard.
    pub fn scoreboard(&self) -> Vec<(String, f64, u64)> {
        self.members
            .iter()
            .map(|(m, t)| (m.name(), t.mae(), t.samples()))
            .collect()
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Predictor for AdaptiveSelector {
    fn observe(&mut self, t: f64, value: f64) {
        if !value.is_finite() {
            return;
        }
        for (model, tracker) in &mut self.members {
            if let Some(f) = model.forecast() {
                tracker.record(f, value);
            }
            model.observe(t, value);
        }
    }

    fn forecast(&self) -> Option<f64> {
        self.members[self.best_index()].0.forecast()
    }

    fn name(&self) -> String {
        "adaptive".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::{Ewma, LastValue, SlidingMean};

    fn panel() -> Vec<Model> {
        vec![
            Model::Last(LastValue::new()),
            Model::Mean(SlidingMean::new(4)),
            Model::Ewma(Ewma::new(0.3)),
        ]
    }

    #[test]
    fn selector_prefers_the_model_that_predicts_best() {
        // Alternating series: the mean nails it, last-value is always wrong
        // by the full amplitude.
        let mut s = AdaptiveSelector::new(panel(), 42);
        for i in 0..40 {
            let v = if i % 2 == 0 { 0.0 } else { 10.0 };
            s.observe(i as f64, v);
        }
        assert_eq!(s.best_name(), "mean(4)");
    }

    #[test]
    fn selector_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = AdaptiveSelector::new(panel(), seed);
            let mut picks = Vec::new();
            for i in 0..30 {
                s.observe(i as f64, (i as f64 * 0.7).sin() * 5.0 + 10.0);
                picks.push((s.best_index(), s.forecast()));
            }
            picks
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn scoreboard_tracks_out_of_sample_error() {
        let mut s = AdaptiveSelector::new(panel(), 1);
        s.observe(0.0, 10.0);
        // first observation: no model had a forecast yet, so nothing scored
        assert!(s.scoreboard().iter().all(|(_, _, n)| *n == 0));
        s.observe(1.0, 12.0);
        assert!(s.scoreboard().iter().all(|(_, _, n)| *n == 1));
        // every model forecast 10.0 before seeing 12.0
        for (_, mae, _) in s.scoreboard() {
            assert!((mae - 2.0).abs() < 1e-12);
        }
    }
}
