//! The predictive side of the scheme: the lazily-built per-pair link
//! estimators, the per-group load series, the proactive trigger they feed,
//! and the forecast-quality summary of a run.

use super::DistributedDlb;
use crate::gain::gain_from_loads;
use crate::scheme::{proc_total_cells, LbContext};
use forecast::{derive_seed, PredictorKind, SeriesForecaster};
use metrics::ForecastStats;
use samr_mesh::hierarchy::GridHierarchy;
use telemetry::{EventKind as TelEventKind, PredictorSwitchEvent};
use topology::{DistributedSystem, LinkEstimator, ProcId};

impl DistributedDlb {
    pub(super) fn estimator(&mut self, a: usize, b: usize) -> &mut LinkEstimator {
        let (small, large) = (self.cfg.probe_small_bytes, self.cfg.probe_large_bytes);
        let predictor = self.cfg.predictor;
        let seed = self.cfg.forecast_seed;
        let pair = (a.min(b), a.max(b));
        self.estimators.entry(pair).or_insert_with(|| {
            let est = LinkEstimator::new(small, large);
            match predictor {
                None => est,
                Some(kind) => {
                    est.with_predictor(kind, derive_seed(seed, (pair.0 * 1024 + pair.1) as u64))
                }
            }
        })
    }

    /// Aggregate forecast-quality counters (MAE averaged over the series
    /// that have scored at least one out-of-sample forecast).
    pub fn forecast_summary(&self) -> ForecastStats {
        let mut s = ForecastStats::default();
        let mut links = 0u64;
        for est in self.estimators.values() {
            if est.forecast_samples() > 0 {
                links += 1;
                s.alpha_mae += est.alpha_mae();
                s.beta_mae += est.beta_mae();
                s.scored_probes += est.forecast_samples();
            }
        }
        if links > 0 {
            s.alpha_mae /= links as f64;
            s.beta_mae /= links as f64;
        }
        let mut groups = 0u64;
        for lf in &self.load_forecasts {
            if lf.scored_samples() > 0 {
                groups += 1;
                s.load_mae += lf.mae();
            }
        }
        if groups > 0 {
            s.load_mae /= groups as f64;
        }
        for d in &self.decisions {
            if d.proactive {
                s.proactive_checks += 1;
                if d.invoked {
                    s.proactive_invocations += 1;
                }
            }
        }
        s
    }

    /// Current total cells per group, straight from the hierarchy — the
    /// load measure the proactive trigger forecasts. (The history snapshot
    /// only refreshes after level-0 steps; the hierarchy shows what
    /// refinement has done since.)
    fn group_cells(hier: &GridHierarchy, sys: &DistributedSystem) -> Vec<f64> {
        let per_proc = proc_total_cells(hier, sys.nprocs());
        let mut loads = vec![0.0f64; sys.ngroups()];
        for (p, &cells) in per_proc.iter().enumerate() {
            loads[sys.group_of(ProcId(p)).0] += cells as f64;
        }
        loads
    }

    /// Feed the per-group load series with the hierarchy's current state.
    /// Pure bookkeeping: charges no simulated time and, with proactive
    /// checks disabled, changes no decision.
    pub(super) fn observe_group_loads(&mut self, ctx: &LbContext<'_>, sys: &DistributedSystem) {
        let kind = self.cfg.predictor.unwrap_or(PredictorKind::LastValue);
        let seed = self.cfg.forecast_seed;
        while self.load_forecasts.len() < sys.ngroups() {
            let g = self.load_forecasts.len() as u64;
            self.load_forecasts
                .push(SeriesForecaster::new(kind, derive_seed(seed, 0x4C4F_4144 + g)));
        }
        let t = ctx.sim.elapsed().as_secs_f64();
        let tel = ctx.sim.telemetry().clone();
        for (g, w) in Self::group_cells(ctx.hier, sys).into_iter().enumerate() {
            let before = tel.is_enabled().then(|| self.load_forecasts[g].model_name());
            if tel.is_enabled() {
                // per-level-step occupancy, finer-grained than the
                // driver's per-level-0-step group_load series
                tel.metric(t, &format!("group_cells:g{g}"), w);
            }
            self.load_forecasts[g].observe(t, w);
            if let Some(before) = before {
                let after = self.load_forecasts[g].model_name();
                if before != after {
                    tel.event(
                        t,
                        TelEventKind::PredictorSwitch(PredictorSwitchEvent {
                            series: format!("load:g{g}"),
                            from: before,
                            to: after,
                        }),
                    );
                }
            }
        }
    }

    /// After a fine-level step: predict the near-term inter-group balance
    /// and, if the predicted power-normalized imbalance crosses the
    /// configured threshold, run a full (gain/cost-gated) global check now
    /// instead of waiting for the next level-0 step.
    pub(super) fn maybe_proactive_check(&mut self, ctx: &mut LbContext<'_>, level: usize) {
        let Some(threshold) = self.cfg.proactive_threshold else {
            return;
        };
        let sys = ctx.sim.system().clone();
        if sys.ngroups() < 2 {
            return;
        }
        self.roster.ensure_len(sys.ngroups());
        let (powers, healthy) = self.participants(ctx);
        if healthy.len() < 2 {
            return;
        }
        let observed = Self::group_cells(ctx.hier, &sys);
        let predicted: Vec<f64> = self
            .load_forecasts
            .iter()
            .zip(&observed)
            .map(|(lf, &obs)| lf.forecast().unwrap_or(obs))
            .collect();
        let gain = gain_from_loads(predicted, ctx.history.last_step_secs(), &healthy, &powers);
        if gain.imbalance_ratio > threshold && gain.gain_secs > 0.0 {
            // the check scores Eq. 4 itself, over the groups that are
            // healthy once probation has run
            self.global_phase(ctx, Some(gain.group_loads), level);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::DistributedDlbConfig;
    use super::*;
    use crate::history::WorkloadHistory;
    use crate::scheme::LoadBalancer;
    use simnet::{Activity, SimView};
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder, TrafficModel};

    #[test]
    fn predictive_mode_widens_cost_with_forecast_error() {
        // β flips between quiet and congested each probe: the last-value
        // predictor keeps being wrong, so its MAE (and with it the cost
        // upper bound) grows while the point forecast stays reactive.
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::shared(
            "wan",
            SimTime::from_millis(5),
            2e7,
            TrafficModel::Trace {
                initial: 0.0,
                points: vec![
                    (SimTime::from_secs(50), 0.9),
                    (SimTime::from_secs(150), 0.0),
                ],
            },
        );
        let sys = SystemBuilder::new()
            .group("A", 2, 1.0, intra.clone())
            .group("B", 2, 1.0, intra)
            .connect(0, 1, wan)
            .build();
        let mut sim = SimView::new(sys);
        let cfg = DistributedDlbConfig {
            predictor: Some(forecast::PredictorKind::LastValue),
            // huge γ so nothing is ever invoked: we only want priced costs
            gamma: 1e9,
            ..Default::default()
        };
        let mut dlb = DistributedDlb::new(cfg);
        let mut history = WorkloadHistory::new(4);
        for k in 0..3 {
            let mut hier = hier_split(6);
            history.record_snapshot(vec![hier.level_load_by_owner(0, 4)], vec![1]);
            history.record_step_time(60.0);
            dlb.after_level_step(
                LbContext {
                    hier: &mut hier,
                    sim: &mut sim,
                    history: &mut history,
                },
                0,
            )
            .unwrap();
            // drift into the next traffic regime between checks
            for p in 0..4 {
                sim.busy(ProcId(p), 70.0, Activity::Compute);
            }
            let d = dlb.decisions.last().unwrap();
            let cost = d.cost.expect("imbalance priced every step");
            if k == 0 {
                assert_eq!(
                    cost.comm_upper_secs, cost.comm_secs,
                    "no forecast error before the first scored probe"
                );
            }
        }
        // regime flipped between probes: forecast error accrued and widened
        // the upper bound
        let last = dlb.decisions.last().unwrap().cost.unwrap();
        assert!(
            last.comm_upper_secs > last.comm_secs,
            "expected widened bound, got {last:?}"
        );
        let summary = dlb.forecast_summary();
        assert!(summary.beta_mae > 0.0);
        assert!(summary.scored_probes >= 2);
    }

    #[test]
    fn proactive_check_fires_between_level0_steps() {
        let sys = wan_sys(true);
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(6); // groups imbalanced 3:1
        let mut history = history_for(&hier, 4, 60.0);
        let cfg = DistributedDlbConfig {
            proactive_threshold: Some(1.5),
            predictor: Some(forecast::PredictorKind::Adaptive),
            ..Default::default()
        };
        let mut dlb = DistributedDlb::new(cfg);
        // fine-level step only — the paper's protocol would sit on the
        // imbalance until the next level-0 step
        dlb.after_level_step(
            LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            1,
        )
        .unwrap();
        assert_eq!(dlb.decisions.len(), 1, "proactive check produced a decision");
        let d = &dlb.decisions[0];
        assert!(d.proactive);
        assert!(d.invoked, "{d:?}");
        let sys = sim.system().clone();
        assert_eq!(
            crate::partition::group_level0_cells(&hier, &sys, 0),
            2048,
            "redistribution happened without a level-0 step"
        );
        let summary = dlb.forecast_summary();
        assert_eq!(summary.proactive_checks, 1);
        assert_eq!(summary.proactive_invocations, 1);
    }

    #[test]
    fn proactive_disabled_by_default_keeps_fine_levels_local() {
        // Explicit twin of local_phase_never_crosses_groups: even with a
        // predictor configured, no proactive threshold means no global
        // decision at fine levels.
        let sys = wan_sys(true);
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(6);
        let mut history = history_for(&hier, 4, 60.0);
        let cfg = DistributedDlbConfig {
            predictor: Some(forecast::PredictorKind::Adaptive),
            ..Default::default()
        };
        let mut dlb = DistributedDlb::new(cfg);
        dlb.after_level_step(
            LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            1,
        )
        .unwrap();
        assert!(dlb.decisions.is_empty());
    }
}
