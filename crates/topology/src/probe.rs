//! NWS-lite: on-line estimation of a link's α and β by active probing.
//!
//! §4.2 of the paper: *"the scheme sends two messages between groups, and
//! calculates the network performance parameters α and β"*. We reproduce
//! exactly that two-message probe; smoothing and forecasting of the sampled
//! α/β streams live in the `forecast` crate (the Network Weather Service
//! direction the authors cite as future work), which [`LinkEstimator`]
//! delegates to — by default with a latest-sample model, the paper's.
//!
//! Probing is fallible: a dead or blackholed link returns a typed
//! [`ProbeError`] instead of a bogus sample, and a failed refresh leaves
//! the estimate as it was. Counting failures is the caller's business: the
//! distributed DLB charges them to its quarantine roster.

use crate::faults::LinkHealth;
use crate::link::Link;
use crate::time::SimTime;
use forecast::{ForecastValue, LinkForecast, PredictorKind};

/// Floor for the estimated per-byte rate β (seconds/byte).
///
/// Two probe messages whose transfer times quantize to the same value (an
/// extremely fast link under the simulator's nanosecond clock) solve to
/// β = 0, and downstream consumers routinely form `1.0 / β` (effective
/// bandwidth). Rather than returning a typed error for a sample that is
/// merely "too fast to resolve", β is floored at this epsilon — equivalent
/// to capping measurable bandwidth at 10¹² byte/s, three orders of
/// magnitude above any link in the paper's testbed.
pub const MIN_BETA: f64 = 1e-12;

/// Result of one two-message probe: estimated latency and per-byte rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeSample {
    /// Estimated latency α in seconds.
    pub alpha: f64,
    /// Estimated transfer rate β in seconds/byte.
    pub beta: f64,
    /// Simulated time spent performing the probe (both messages).
    pub elapsed: SimTime,
}

/// Why a probe could not produce a trustworthy sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProbeError {
    /// Probe messages must satisfy `small < large` to solve for (α, β).
    BadProbeSizes { small: u64, large: u64 },
    /// The link reports zero, negative, or non-finite effective bandwidth —
    /// a sample taken now would contain garbage α/β.
    DegenerateBandwidth { bandwidth: f64 },
    /// The link is down (outage window): the first message fails fast.
    LinkDown,
    /// The link blackholes traffic: a probe message was sent but no reply
    /// ever arrives.
    NoReply,
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::BadProbeSizes { small, large } => {
                write!(f, "probe sizes must satisfy small < large (got {small} >= {large})")
            }
            ProbeError::DegenerateBandwidth { bandwidth } => {
                write!(f, "link reports degenerate bandwidth {bandwidth} B/s")
            }
            ProbeError::LinkDown => write!(f, "link is down"),
            ProbeError::NoReply => write!(f, "probe got no reply (blackholed link)"),
        }
    }
}

impl std::error::Error for ProbeError {}

/// Probe a link at time `t` with two messages of `small` and `large` bytes.
///
/// Solves `t1 = α + β·s1`, `t2 = α + β·s2` for `(α, β)`. The probe itself
/// consumes simulated time `t1 + t2` (the messages really cross the link),
/// which callers charge as DLB overhead. Returns a [`ProbeError`] instead
/// of a bogus sample when the sizes are degenerate, the link reports
/// non-positive bandwidth, or a fault window makes the link unreachable.
/// β is floored at [`MIN_BETA`] so identical round-trip times (β = 0)
/// cannot leak a divide-by-zero into `1/β` bandwidth paths.
///
/// ```
/// use topology::{probe_link, Link, SimTime};
/// let link = Link::dedicated("x", SimTime::from_millis(2), 1e7);
/// let s = probe_link(&link, SimTime::ZERO, 1 << 10, 1 << 16).unwrap();
/// assert!((s.alpha - 0.002).abs() < 1e-6);
/// assert!((s.beta - 1e-7).abs() < 1e-12);
/// ```
pub fn probe_link(link: &Link, t: SimTime, small: u64, large: u64) -> Result<ProbeSample, ProbeError> {
    if small >= large {
        return Err(ProbeError::BadProbeSizes { small, large });
    }
    check_reachable(link, t)?;
    let t1 = link.transfer_time(t, small);
    // second message departs after the first completes — the link may have
    // failed in between
    check_reachable(link, t + t1)?;
    let t2 = link.transfer_time(t + t1, large);
    let s1 = t1.as_secs_f64();
    let s2 = t2.as_secs_f64();
    let beta = (s2 - s1) / (large - small) as f64;
    let alpha = (s1 - beta * small as f64).max(0.0);
    if !beta.is_finite() || !alpha.is_finite() {
        return Err(ProbeError::DegenerateBandwidth {
            bandwidth: link.effective_bandwidth(t),
        });
    }
    Ok(ProbeSample {
        alpha,
        beta: beta.max(MIN_BETA),
        elapsed: t1 + t2,
    })
}

fn check_reachable(link: &Link, t: SimTime) -> Result<(), ProbeError> {
    match link.health_at(t) {
        LinkHealth::Down => return Err(ProbeError::LinkDown),
        LinkHealth::Blackhole => return Err(ProbeError::NoReply),
        LinkHealth::Up | LinkHealth::Lossy { .. } | LinkHealth::Slow { .. } => {}
    }
    let bw = link.effective_bandwidth(t);
    if !(bw.is_finite() && bw > 0.0) {
        return Err(ProbeError::DegenerateBandwidth { bandwidth: bw });
    }
    Ok(())
}

/// Forecasting smoother over probe samples, NWS-style. The α and β
/// streams are folded through a [`forecast::LinkForecast`]; the default
/// model is an EWMA with gain 1 — the paper's latest-sample mode, bit for
/// bit — and [`LinkEstimator::with_predictor`] swaps in any other.
#[derive(Clone, Debug)]
pub struct LinkEstimator {
    /// Per-series predictors for α and β.
    series: LinkForecast,
    /// Probe message sizes.
    pub small: u64,
    pub large: u64,
}

/// Seed for the default (non-adaptive) estimator models. Fixed models
/// ignore it, so any constant keeps the default path deterministic.
const DEFAULT_FORECAST_SEED: u64 = 0;

impl LinkEstimator {
    /// A fresh latest-sample estimator probing with `small` / `large`-byte
    /// messages — what the paper's two-message scheme does.
    pub fn new(small: u64, large: u64) -> Self {
        assert!(large > small);
        LinkEstimator {
            series: LinkForecast::new(PredictorKind::Ewma { gain: 1.0 }, DEFAULT_FORECAST_SEED),
            small,
            large,
        }
    }

    /// The paper's 1 KiB / 64 KiB probe messages.
    pub fn paper_default() -> Self {
        LinkEstimator::new(1 << 10, 1 << 16)
    }

    /// Replace the latest-sample model with another predictor family — e.g.
    /// [`PredictorKind::Adaptive`] for the MAE-tracked selector, or a
    /// smoothing [`PredictorKind::Ewma`]. Discards any samples already
    /// folded, so call it at construction time.
    pub fn with_predictor(mut self, kind: PredictorKind, seed: u64) -> Self {
        self.series = LinkForecast::new(kind, seed);
        self
    }

    /// Probe `link` at `t` and fold the sample in. On failure the previous
    /// α/β stay untouched.
    pub fn refresh(&mut self, link: &Link, t: SimTime) -> Result<ProbeSample, ProbeError> {
        let s = probe_link(link, t, self.small, self.large)?;
        self.observe(t, &s);
        Ok(s)
    }

    /// Fold a sample probed at `t` into the per-series predictors, clamped
    /// against NaN/negative samples: non-finite contributions are discarded
    /// (the old estimate survives) and finite ones are floored at zero
    /// before smoothing — the same semantics the in-place EWMA had.
    pub fn observe(&mut self, t: SimTime, sample: &ProbeSample) {
        let (alpha, beta) = (sample.alpha, sample.beta);
        let secs = t.as_secs_f64();
        if alpha.is_finite() && beta.is_finite() {
            self.series.observe_probe(secs, alpha.max(0.0), beta.max(0.0));
        } else if alpha.is_finite() {
            self.series.alpha.observe(secs, alpha.max(0.0));
        } else if beta.is_finite() {
            self.series.beta.observe(secs, beta.max(0.0));
        }
    }

    /// Current α forecast (seconds); `None` before the first probe.
    pub fn alpha(&self) -> Option<f64> {
        self.series.alpha.forecast()
    }

    /// Current β forecast (seconds/byte).
    pub fn beta(&self) -> Option<f64> {
        self.series.beta.forecast()
    }

    /// α forecast with its running-MAE error bar.
    pub fn alpha_forecast(&self) -> Option<ForecastValue> {
        self.series.alpha.forecast_value()
    }

    /// β forecast with its running-MAE error bar.
    pub fn beta_forecast(&self) -> Option<ForecastValue> {
        self.series.beta.forecast_value()
    }

    /// Mean absolute one-step forecast error of the α series (seconds).
    pub fn alpha_mae(&self) -> f64 {
        self.series.alpha.mae()
    }

    /// Mean absolute one-step forecast error of the β series (s/byte).
    pub fn beta_mae(&self) -> f64 {
        self.series.beta.mae()
    }

    /// Number of out-of-sample (forecast, probe) pairs scored so far.
    pub fn forecast_samples(&self) -> u64 {
        self.series.beta.scored_samples()
    }

    /// Name of the model the α/β series run (`"ewma(1.00)"` by default).
    pub fn model_name(&self) -> String {
        self.series.beta.model_name()
    }

    /// The β series' adaptive selector, when that model family is in use —
    /// exposes the per-member MAE scoreboard and the current best member.
    pub fn beta_selector(&self) -> Option<&forecast::AdaptiveSelector> {
        self.series.beta.selector()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultSchedule};
    use crate::traffic::TrafficModel;

    #[test]
    fn probe_recovers_dedicated_link_params() {
        let link = Link::dedicated("x", SimTime::from_millis(2), 1e7);
        let s = probe_link(&link, SimTime::ZERO, 1 << 10, 1 << 16).unwrap();
        assert!((s.alpha - 0.002).abs() < 1e-6, "alpha {}", s.alpha);
        assert!((s.beta - 1e-7).abs() < 1e-12, "beta {}", s.beta);
    }

    #[test]
    fn probe_elapsed_accounts_both_messages() {
        let link = Link::dedicated("x", SimTime::from_millis(1), 1e6);
        let s = probe_link(&link, SimTime::ZERO, 1000, 2000).unwrap();
        let expect = 0.001 + 0.001 + 0.001 + 0.002;
        assert!((s.elapsed.as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn probe_sees_congestion() {
        let busy = Link::shared(
            "b",
            SimTime::from_millis(2),
            1e7,
            TrafficModel::Constant { load: 0.8 },
        );
        let s = probe_link(&busy, SimTime::ZERO, 1 << 10, 1 << 16).unwrap();
        // effective bandwidth 2e6 => beta 5e-7
        assert!((s.beta - 5e-7).abs() < 1e-10, "beta {}", s.beta);
    }

    #[test]
    fn degenerate_sizes_and_bandwidth_are_errors() {
        let link = Link::dedicated("x", SimTime::from_millis(1), 1e6);
        assert_eq!(
            probe_link(&link, SimTime::ZERO, 2000, 2000),
            Err(ProbeError::BadProbeSizes {
                small: 2000,
                large: 2000
            })
        );
        let dead = Link::dedicated("zero", SimTime::from_millis(1), 0.0);
        assert!(matches!(
            probe_link(&dead, SimTime::ZERO, 1 << 10, 1 << 16),
            Err(ProbeError::DegenerateBandwidth { .. })
        ));
        let nan = Link::dedicated("nan", SimTime::from_millis(1), f64::NAN);
        assert!(matches!(
            probe_link(&nan, SimTime::ZERO, 1 << 10, 1 << 16),
            Err(ProbeError::DegenerateBandwidth { .. })
        ));
    }

    #[test]
    fn probe_fails_during_outage_and_blackhole() {
        let down = Link::dedicated("d", SimTime::from_millis(1), 1e6).with_faults(
            FaultSchedule::none().with_window(
                SimTime::ZERO,
                SimTime::from_secs(10),
                FaultKind::Outage,
            ),
        );
        assert_eq!(
            probe_link(&down, SimTime::from_secs(5), 1 << 10, 1 << 16),
            Err(ProbeError::LinkDown)
        );
        // after the window the probe works again
        assert!(probe_link(&down, SimTime::from_secs(10), 1 << 10, 1 << 16).is_ok());
        let hole = Link::dedicated("h", SimTime::from_millis(1), 1e6).with_faults(
            FaultSchedule::none().with_window(
                SimTime::ZERO,
                SimTime::from_secs(10),
                FaultKind::Blackhole,
            ),
        );
        assert_eq!(
            probe_link(&hole, SimTime::ZERO, 1 << 10, 1 << 16),
            Err(ProbeError::NoReply)
        );
    }

    #[test]
    fn probe_fails_if_link_dies_between_messages() {
        // first message completes around 2 ms + transfer; fault opens at 3 ms
        let link = Link::dedicated("mid", SimTime::from_millis(2), 1e6).with_faults(
            FaultSchedule::none().with_window(
                SimTime::from_millis(3),
                SimTime::from_secs(1),
                FaultKind::Outage,
            ),
        );
        assert_eq!(
            probe_link(&link, SimTime::ZERO, 1 << 10, 1 << 16),
            Err(ProbeError::LinkDown)
        );
    }

    #[test]
    fn estimator_latest_sample_mode() {
        let mut est = LinkEstimator::paper_default();
        assert!(est.alpha().is_none() && est.beta().is_none());
        let link = Link::shared(
            "t",
            SimTime::from_millis(1),
            1e7,
            TrafficModel::Trace {
                initial: 0.0,
                points: vec![(SimTime::from_secs(10), 0.9)],
            },
        );
        est.refresh(&link, SimTime::ZERO).unwrap();
        let quiet_beta = est.beta().unwrap();
        est.refresh(&link, SimTime::from_secs(10)).unwrap();
        let busy_beta = est.beta().unwrap();
        assert!(
            (busy_beta / quiet_beta - 10.0).abs() < 1e-6,
            "λ=1 tracks the newest sample exactly"
        );
    }

    #[test]
    fn estimator_smoothing() {
        let mut est = LinkEstimator::paper_default()
            .with_predictor(forecast::PredictorKind::Ewma { gain: 0.5 }, 0);
        let link = Link::shared(
            "t",
            SimTime::ZERO,
            1e7,
            TrafficModel::Trace {
                initial: 0.0,
                points: vec![(SimTime::from_secs(10), 0.9)],
            },
        );
        est.refresh(&link, SimTime::ZERO).unwrap();
        let b0 = est.beta().unwrap();
        est.refresh(&link, SimTime::from_secs(10)).unwrap();
        let b1 = est.beta().unwrap();
        // smoothed estimate lies strictly between quiet and congested betas
        let congested = link.beta(SimTime::from_secs(10));
        assert!(b1 > b0 && b1 < congested);
    }

    #[test]
    fn prediction_matches_link_for_dedicated() {
        let link = Link::dedicated("x", SimTime::from_millis(5), 2e7);
        let mut est = LinkEstimator::paper_default();
        est.refresh(&link, SimTime::ZERO).unwrap();
        // the paper's Eq. 1 communication term, α + β·W
        let predicted = est.alpha().unwrap() + est.beta().unwrap() * (1 << 20) as f64;
        let actual = link.transfer_time(SimTime::ZERO, 1 << 20).as_secs_f64();
        assert!((predicted - actual).abs() / actual < 1e-6);
    }

    #[test]
    fn failed_refresh_keeps_old_estimate() {
        let link = Link::dedicated("x", SimTime::from_millis(2), 1e7).with_faults(
            FaultSchedule::none().with_window(
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                FaultKind::Outage,
            ),
        );
        let mut est = LinkEstimator::paper_default();
        est.refresh(&link, SimTime::ZERO).unwrap();
        let (a, b) = (est.alpha().unwrap(), est.beta().unwrap());
        assert!(est.refresh(&link, SimTime::from_secs(15)).is_err());
        assert_eq!(est.alpha(), Some(a));
        assert_eq!(est.beta(), Some(b));
    }

    #[test]
    fn identical_round_trips_floor_beta_at_epsilon() {
        // A link so fast that both probe messages' transfer times quantize
        // to the same nanosecond count: the solved β would be 0. The floor
        // keeps 1/β (effective bandwidth) finite.
        let warp = Link::dedicated("warp", SimTime::from_millis(1), 1e18);
        let s = probe_link(&warp, SimTime::ZERO, 1 << 10, 1 << 16).unwrap();
        assert_eq!(s.beta, MIN_BETA);
        let mut est = LinkEstimator::paper_default();
        est.refresh(&warp, SimTime::ZERO).unwrap();
        let bw = 1.0 / est.beta().unwrap();
        assert!(bw.is_finite() && bw > 0.0);
    }

    #[test]
    fn adaptive_predictor_tracks_and_scores() {
        let link = Link::shared(
            "t",
            SimTime::from_millis(1),
            1e7,
            TrafficModel::Trace {
                initial: 0.0,
                points: vec![(SimTime::from_secs(60), 0.9)],
            },
        );
        let mut est = LinkEstimator::paper_default()
            .with_predictor(forecast::PredictorKind::Adaptive, 42);
        for i in 0..12 {
            est.refresh(&link, SimTime::from_secs(i * 10)).unwrap();
        }
        // scored out-of-sample pairs: one per probe after the first
        assert_eq!(est.forecast_samples(), 11);
        assert!(est.beta_mae() > 0.0, "regime change produced forecast error");
        let (a, b) = (est.alpha_forecast().unwrap(), est.beta_forecast().unwrap());
        assert!(a.value >= 0.0 && a.error >= 0.0);
        assert!(b.upper() > b.value, "error bar widens the pessimistic bound");
        assert_eq!(est.model_name(), "adaptive");
    }

    #[test]
    fn default_predictor_matches_legacy_ewma_bit_for_bit() {
        // The λ-EWMA through the forecast crate must reproduce the old
        // in-place fold exactly: λ·new + (1 − λ)·old.
        let link = Link::shared(
            "t",
            SimTime::ZERO,
            1e7,
            TrafficModel::Trace {
                initial: 0.0,
                points: vec![(SimTime::from_secs(10), 0.9)],
            },
        );
        let lambda = 0.5;
        let mut est = LinkEstimator::paper_default()
            .with_predictor(forecast::PredictorKind::Ewma { gain: lambda }, 0);
        let s0 = est.refresh(&link, SimTime::ZERO).unwrap();
        let s1 = est.refresh(&link, SimTime::from_secs(10)).unwrap();
        let expect_beta = lambda * s1.beta + (1.0 - lambda) * s0.beta;
        assert_eq!(est.beta(), Some(expect_beta));
        let expect_alpha = lambda * s1.alpha + (1.0 - lambda) * s0.alpha;
        assert_eq!(est.alpha(), Some(expect_alpha));
    }
}
