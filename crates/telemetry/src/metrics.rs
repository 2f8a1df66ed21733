//! Continuous metrics: bounded time-series sampled on *simulated* time,
//! and the online anomaly detectors that watch them.
//!
//! A [`MetricSeries`] holds `(t_sim, value)` gauge samples in a
//! fixed-capacity buffer. When the buffer fills it halves itself by
//! dropping every other retained point and doubles its keep-stride, so a
//! run of any length costs O(capacity) memory while the retained points
//! stay evenly spaced over the whole run. Retention is a pure function of
//! the sample sequence — two identical runs retain identical points — and
//! running aggregates (count/min/max/mean/last) always cover *every*
//! sample, retained or not.
//!
//! The [`AnomalyMonitor`] sits inside the recording sink and watches the
//! event stream plus the `"imbalance"` series, emitting
//! [`crate::event::AnomalyEvent`]s into the decision ring:
//!
//! * **imbalance stuck** — the `"imbalance"` gauge stayed above threshold
//!   for a streak of samples with no redistribution attempted in between;
//! * **gate starvation** — a streak of priced γ-gate evaluations all
//!   rejected (imbalance is being detected but never acted on);
//! * **probe drift** — the rolling probe prediction error grew a large
//!   factor past the baseline established by the first scored probes.
//!
//! Detection is pure observation: the monitor only reads what the sink
//! already records, so recording with detectors enabled stays bit-identical
//! to the null handle.

use crate::event::{AnomalyEvent, AnomalyKind, EventKind, GateVerdict};

/// Default retained points per series (halved in place on overflow).
pub const DEFAULT_METRIC_CAP: usize = 512;

/// `"imbalance"` gauge level above which the stuck detector counts.
pub const IMBALANCE_STUCK_THRESHOLD: f64 = 1.5;
/// Consecutive over-threshold imbalance samples (with no redistribute
/// between) that fire [`AnomalyKind::ImbalanceStuck`].
pub const IMBALANCE_STUCK_STREAK: u64 = 8;
/// Consecutive priced-but-rejected γ-gates that fire
/// [`AnomalyKind::GateStarvation`].
pub const GATE_STARVATION_STREAK: u64 = 6;
/// Scored probes used to establish the drift baseline error.
pub const PROBE_DRIFT_BASELINE: u64 = 8;
/// Rolling-window mean error past `factor × baseline` that fires
/// [`AnomalyKind::ProbeDrift`] (once per run).
pub const PROBE_DRIFT_FACTOR: f64 = 4.0;
/// Relative-error floor under which drift is never flagged (quiet links
/// have near-zero baselines; noise on top of nothing is not drift).
pub const PROBE_DRIFT_FLOOR: f64 = 1e-3;

/// A bounded gauge series on simulated time with deterministic
/// stride-doubling downsampling.
#[derive(Clone, Debug)]
pub struct MetricSeries {
    cap: usize,
    stride: u64,
    observed: u64,
    downsamples: u32,
    points: Vec<(f64, f64)>,
    min: f64,
    max: f64,
    sum: f64,
    last: (f64, f64),
}

impl MetricSeries {
    /// A series retaining at most `cap` points (rounded down to an even
    /// count, minimum 2, so halving always lands exactly on cap/2).
    pub fn new(cap: usize) -> Self {
        let cap = (cap.max(2)) & !1;
        MetricSeries {
            cap,
            stride: 1,
            observed: 0,
            downsamples: 0,
            points: Vec::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            last: (0.0, 0.0),
        }
    }

    /// Record one sample. Aggregates always update; the point itself is
    /// retained only when the sample index lands on the current stride.
    pub fn push(&mut self, t_sim_secs: f64, value: f64) {
        let idx = self.observed;
        self.observed += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = (t_sim_secs, value);
        if !idx.is_multiple_of(self.stride) {
            return;
        }
        if self.points.len() == self.cap {
            // drop every other point; the survivors are spaced 2×stride
            let mut i = 0;
            self.points.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
            self.stride *= 2;
            self.downsamples += 1;
            // idx is cap×old_stride here, always divisible by the doubled
            // stride (cap is even), so the triggering sample is retained
            if !idx.is_multiple_of(self.stride) {
                return;
            }
        }
        self.points.push((t_sim_secs, value));
    }

    /// Retained `(t_sim, value)` points, oldest first.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Total samples observed (retained or not).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Times the buffer halved itself (retained spacing is `2^downsamples`
    /// samples).
    pub fn downsamples(&self) -> u32 {
        self.downsamples
    }

    /// Current keep-stride in samples.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Maximum retained points.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Smallest sample seen (0 when empty).
    pub fn min(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Mean over every sample seen (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.sum / self.observed as f64
        }
    }

    /// Latest `(t_sim, value)` sample.
    pub fn last(&self) -> (f64, f64) {
        self.last
    }
}

/// Per-kind fired-anomaly counters, indexed by [`AnomalyKind::index`]
/// (eviction-proof, like [`crate::sink::EventCounts`]).
pub type AnomalyTally = [u64; AnomalyKind::ALL.len()];

/// The online detectors. Fed by the recording sink from its own event and
/// metric streams; returns the anomalies to emit rather than emitting them
/// itself, so the sink keeps control of sequence numbers.
#[derive(Clone, Debug, Default)]
pub struct AnomalyMonitor {
    imbalance_streak: u64,
    imbalance_peak: f64,
    gate_streak: u64,
    probe_baseline_n: u64,
    probe_baseline_sum: f64,
    probe_recent: [f64; PROBE_DRIFT_BASELINE as usize],
    probe_recent_n: u64,
    probe_fired: bool,
    fired: AnomalyTally,
}

impl AnomalyMonitor {
    /// Fresh monitor with all detectors at rest.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many anomalies each detector has fired, by [`AnomalyKind::index`].
    pub fn fired(&self) -> AnomalyTally {
        self.fired
    }

    fn fire(&mut self, a: AnomalyEvent, out: &mut Vec<AnomalyEvent>) {
        self.fired[a.kind.index()] += 1;
        out.push(a);
    }

    /// Observe one recorded event. Never called with
    /// [`EventKind::Anomaly`] (the sink filters those out, so detectors
    /// cannot feed back on their own output).
    pub fn on_event(&mut self, kind: &EventKind, out: &mut Vec<AnomalyEvent>) {
        match kind {
            EventKind::GammaGate(g) => {
                if g.verdict == GateVerdict::Accept {
                    self.gate_streak = 0;
                } else if g.reason == "gate" {
                    // priced and compared, yet declined: imbalance existed
                    self.gate_streak += 1;
                    if self.gate_streak == GATE_STARVATION_STREAK {
                        let streak = self.gate_streak;
                        self.gate_streak = 0;
                        self.fire(
                            AnomalyEvent {
                                kind: AnomalyKind::GateStarvation,
                                value: streak as f64,
                                threshold: GATE_STARVATION_STREAK as f64,
                                streak,
                                detail: format!(
                                    "{streak} consecutive priced gates rejected (last at step {}, gain {:.3e}s vs cost {:.3e}s)",
                                    g.step, g.gain_secs, g.cost_upper_secs
                                ),
                            },
                            out,
                        );
                    }
                }
            }
            EventKind::Redistribute(_) => {
                // a redistribution was attempted: the stuck detector rests
                self.imbalance_streak = 0;
                self.imbalance_peak = 0.0;
            }
            EventKind::Probe(p) => {
                if let (Some(pa), Some(pb)) =
                    (p.predicted_alpha_secs, p.predicted_beta_secs_per_byte)
                {
                    let rel = |m: f64, pred: f64| (m - pred).abs() / m.abs().max(1e-30);
                    let err = 0.5
                        * (rel(p.alpha_secs, pa) + rel(p.beta_secs_per_byte, pb));
                    self.on_probe_error(err, out);
                }
            }
            _ => {}
        }
    }

    fn on_probe_error(&mut self, err: f64, out: &mut Vec<AnomalyEvent>) {
        if self.probe_baseline_n < PROBE_DRIFT_BASELINE {
            self.probe_baseline_n += 1;
            self.probe_baseline_sum += err;
            return;
        }
        let w = self.probe_recent.len() as u64;
        self.probe_recent[(self.probe_recent_n % w) as usize] = err;
        self.probe_recent_n += 1;
        if self.probe_fired || self.probe_recent_n < w {
            return;
        }
        let baseline =
            (self.probe_baseline_sum / self.probe_baseline_n as f64).max(PROBE_DRIFT_FLOOR);
        let recent = self.probe_recent.iter().sum::<f64>() / w as f64;
        if recent > PROBE_DRIFT_FACTOR * baseline {
            self.probe_fired = true;
            self.fire(
                AnomalyEvent {
                    kind: AnomalyKind::ProbeDrift,
                    value: recent,
                    threshold: PROBE_DRIFT_FACTOR * baseline,
                    streak: w,
                    detail: format!(
                        "rolling probe error {recent:.3e} exceeds {PROBE_DRIFT_FACTOR}x baseline {baseline:.3e} over the last {w} scored probes"
                    ),
                },
                out,
            );
        }
    }

    /// Observe one metric sample. Only the `"imbalance"` series drives a
    /// detector; everything else passes through untouched.
    pub fn on_metric(&mut self, name: &str, value: f64, out: &mut Vec<AnomalyEvent>) {
        if name != "imbalance" {
            return;
        }
        if value > IMBALANCE_STUCK_THRESHOLD {
            self.imbalance_streak += 1;
            self.imbalance_peak = self.imbalance_peak.max(value);
            if self.imbalance_streak == IMBALANCE_STUCK_STREAK {
                let (streak, peak) = (self.imbalance_streak, self.imbalance_peak);
                self.imbalance_streak = 0;
                self.imbalance_peak = 0.0;
                self.fire(
                    AnomalyEvent {
                        kind: AnomalyKind::ImbalanceStuck,
                        value: peak,
                        threshold: IMBALANCE_STUCK_THRESHOLD,
                        streak,
                        detail: format!(
                            "imbalance above {IMBALANCE_STUCK_THRESHOLD} for {streak} samples (peak {peak:.3}) with no redistribution attempted"
                        ),
                    },
                    out,
                );
            }
        } else {
            self.imbalance_streak = 0;
            self.imbalance_peak = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProbeEvent;

    #[test]
    fn series_is_exact_below_capacity() {
        let mut s = MetricSeries::new(8);
        for i in 0..8 {
            s.push(i as f64, (i * i) as f64);
        }
        assert_eq!(s.points().len(), 8);
        assert_eq!(s.downsamples(), 0);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.observed(), 8);
        assert_eq!(s.points()[3], (3.0, 9.0));
    }

    #[test]
    fn series_downsamples_and_stays_bounded() {
        let cap = 16;
        let mut s = MetricSeries::new(cap);
        for i in 0..10_000u64 {
            s.push(i as f64, i as f64);
        }
        assert!(s.points().len() <= cap, "len {} > cap {cap}", s.points().len());
        assert!(s.downsamples() > 0);
        assert_eq!(s.observed(), 10_000);
        // retained points sit exactly on the stride grid and stay ordered
        let stride = s.stride() as f64;
        let mut prev = f64::NEG_INFINITY;
        for &(t, v) in s.points() {
            assert_eq!(t, v);
            assert_eq!(v % stride, 0.0, "point {v} off the stride-{stride} grid");
            assert!(t > prev);
            prev = t;
        }
        // the first sample is never evicted
        assert_eq!(s.points()[0], (0.0, 0.0));
        // aggregates cover every sample, not just the retained ones
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 9_999.0);
        assert_eq!(s.last(), (9_999.0, 9_999.0));
        assert!((s.mean() - 4_999.5).abs() < 1e-9);
    }

    #[test]
    fn series_retention_is_deterministic() {
        let run = || {
            let mut s = MetricSeries::new(32);
            for i in 0..5_000u64 {
                s.push(i as f64 * 0.25, (i % 97) as f64);
            }
            s.points().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tiny_and_odd_capacities_are_clamped_even() {
        assert_eq!(MetricSeries::new(0).capacity(), 2);
        assert_eq!(MetricSeries::new(7).capacity(), 6);
        let mut s = MetricSeries::new(2);
        for i in 0..100 {
            s.push(i as f64, 1.0);
        }
        assert!(s.points().len() <= 2);
    }

    fn drain(m: &mut AnomalyMonitor, name: &str, vals: &[f64]) -> Vec<AnomalyEvent> {
        let mut out = Vec::new();
        for &v in vals {
            m.on_metric(name, v, &mut out);
        }
        out
    }

    #[test]
    fn imbalance_stuck_needs_a_full_streak_without_redistribution() {
        let mut m = AnomalyMonitor::new();
        let hot = vec![2.0; IMBALANCE_STUCK_STREAK as usize - 1];
        assert!(drain(&mut m, "imbalance", &hot).is_empty());
        // a redistribution resets the streak
        let mut out = Vec::new();
        m.on_event(
            &EventKind::Redistribute(crate::event::RedistributeEvent {
                step: 1,
                level: 0,
                moved_cells: 10,
                moves: 1,
                aborted: false,
                delta_secs: 0.0,
            }),
            &mut out,
        );
        assert!(drain(&mut m, "imbalance", &hot).is_empty());
        // one more over-threshold sample completes the streak
        let fired = drain(&mut m, "imbalance", &[3.0]);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::ImbalanceStuck);
        assert_eq!(fired[0].streak, IMBALANCE_STUCK_STREAK);
        assert_eq!(fired[0].value, 3.0);
        assert_eq!(m.fired()[AnomalyKind::ImbalanceStuck.index()], 1);
    }

    #[test]
    fn gate_starvation_counts_only_priced_rejections() {
        let gate = |verdict, reason| {
            EventKind::GammaGate(crate::event::GammaGateEvent {
                step: 0,
                level: 0,
                proactive: false,
                gain_secs: 0.1,
                cost_alpha_beta_w_secs: 1.0,
                delta_secs: 0.0,
                cost_upper_secs: 1.0,
                alpha_secs: 0.01,
                beta_secs_per_byte: 1e-7,
                move_bytes: 0,
                gamma: 1.0,
                mae_widening_secs: 0.0,
                verdict,
                reason,
            })
        };
        let mut m = AnomalyMonitor::new();
        let mut out = Vec::new();
        // "balanced" rejections never count as starvation
        for _ in 0..3 * GATE_STARVATION_STREAK {
            m.on_event(&gate(GateVerdict::Reject, "balanced"), &mut out);
        }
        assert!(out.is_empty());
        for _ in 0..GATE_STARVATION_STREAK - 1 {
            m.on_event(&gate(GateVerdict::Reject, "gate"), &mut out);
        }
        assert!(out.is_empty());
        // an accept resets; starting over takes a full streak again
        m.on_event(&gate(GateVerdict::Accept, "gate"), &mut out);
        for _ in 0..GATE_STARVATION_STREAK {
            m.on_event(&gate(GateVerdict::Reject, "gate"), &mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, AnomalyKind::GateStarvation);
    }

    #[test]
    fn probe_drift_fires_once_after_the_baseline_window() {
        let probe = |err_scale: f64| {
            EventKind::Probe(ProbeEvent {
                group_a: 0,
                group_b: 1,
                alpha_secs: 0.01 * (1.0 + err_scale),
                beta_secs_per_byte: 1e-7 * (1.0 + err_scale),
                predicted_alpha_secs: Some(0.01),
                predicted_beta_secs_per_byte: Some(1e-7),
                elapsed_secs: 0.02,
            })
        };
        let mut m = AnomalyMonitor::new();
        let mut out = Vec::new();
        // baseline: ~2% relative error
        for _ in 0..PROBE_DRIFT_BASELINE {
            m.on_event(&probe(0.02), &mut out);
        }
        assert!(out.is_empty());
        // drifted: ~50% relative error, far past 4x baseline
        for _ in 0..PROBE_DRIFT_BASELINE {
            m.on_event(&probe(0.5), &mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, AnomalyKind::ProbeDrift);
        // one-shot: staying drifted does not re-fire
        for _ in 0..4 * PROBE_DRIFT_BASELINE {
            m.on_event(&probe(0.9), &mut out);
        }
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn unknown_metric_names_never_fire() {
        let mut m = AnomalyMonitor::new();
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 100.0).collect();
        assert!(drain(&mut m, "group_load:g0", &vals).is_empty());
        assert_eq!(m.fired().iter().sum::<u64>(), 0);
    }
}
