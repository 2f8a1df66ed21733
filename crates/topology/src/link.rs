//! Network links with the paper's `T = α + β·L` timing model plus dynamic
//! background traffic.

use crate::faults::{FaultSchedule, LinkHealth};
use crate::time::SimTime;
use crate::traffic::TrafficModel;

/// A (possibly shared) network link.
///
/// Transfer time for `L` bytes starting at time `t` is
/// `α + L / (B · (1 − u(t)))` where `α` is the latency, `B` the raw
/// bandwidth and `u(t)` the background utilization — i.e. the paper's
/// `T = α + β·L` with an *effective* `β` that varies with network load.
///
/// ```
/// use topology::{Link, SimTime, TrafficModel};
/// // an OC-3-class WAN at 60% background load
/// let wan = Link::shared(
///     "OC-3",
///     SimTime::from_millis(6),
///     19.375e6,
///     TrafficModel::Constant { load: 0.6 },
/// );
/// let t = wan.transfer_time(SimTime::ZERO, 1_000_000);
/// // 6 ms latency + 1 MB over the remaining 40% of 19.375 MB/s
/// assert!((t.as_secs_f64() - (0.006 + 1e6 / (19.375e6 * 0.4))).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    /// Human-readable name for reports ("MREN OC-3", "GigE", …).
    pub name: String,
    /// One-way message latency α.
    pub latency: SimTimeNanos,
    /// Raw bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Background traffic on the link (Quiet for dedicated links).
    pub traffic: TrafficModel,
    /// Fault timeline (empty for a fault-free link).
    pub faults: FaultSchedule,
}

/// Nanosecond count for latencies.
pub type SimTimeNanos = u64;

impl Link {
    /// Construct a dedicated (quiet) link.
    pub fn dedicated(name: &str, latency: SimTime, bandwidth: f64) -> Link {
        Link {
            name: name.to_string(),
            latency: latency.as_nanos(),
            bandwidth,
            traffic: TrafficModel::Quiet,
            faults: FaultSchedule::none(),
        }
    }

    /// Construct a shared link with the given traffic model.
    pub fn shared(name: &str, latency: SimTime, bandwidth: f64, traffic: TrafficModel) -> Link {
        Link {
            name: name.to_string(),
            latency: latency.as_nanos(),
            bandwidth,
            traffic,
            faults: FaultSchedule::none(),
        }
    }

    /// Builder: attach a fault schedule.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Link {
        self.faults = faults;
        self
    }

    /// Instantaneous health of the link at time `t`.
    pub fn health_at(&self, t: SimTime) -> LinkHealth {
        self.faults.health_at(t)
    }

    /// Latency α as [`SimTime`].
    pub fn alpha(&self) -> SimTime {
        SimTime(self.latency)
    }

    /// Effective bandwidth (bytes/s) at time `t` after background traffic
    /// and any active bandwidth-collapse fault.
    pub fn effective_bandwidth(&self, t: SimTime) -> f64 {
        self.bandwidth * (1.0 - self.traffic.utilization(t)) * self.faults.slowdown_factor_at(t)
    }

    /// Effective per-byte transfer rate β (s/byte) at time `t`.
    pub fn beta(&self, t: SimTime) -> f64 {
        1.0 / self.effective_bandwidth(t)
    }

    /// Time to move `bytes` across the link starting at `t`:
    /// `α + β(t) · bytes`.
    pub fn transfer_time(&self, t: SimTime, bytes: u64) -> SimTime {
        let secs = self.alpha().as_secs_f64() + bytes as f64 * self.beta(t);
        SimTime::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_transfer_matches_alpha_beta() {
        // α = 1 ms, B = 1e6 B/s ⇒ 1e6 bytes take 1.001 s
        let l = Link::dedicated("test", SimTime::from_millis(1), 1e6);
        let t = l.transfer_time(SimTime::ZERO, 1_000_000);
        assert!((t.as_secs_f64() - 1.001).abs() < 1e-9);
        // zero bytes still pay latency
        assert_eq!(l.transfer_time(SimTime::ZERO, 0), SimTime::from_millis(1));
    }

    #[test]
    fn background_traffic_slows_transfers() {
        let quiet = Link::dedicated("q", SimTime::ZERO, 1e6);
        let busy = Link::shared(
            "b",
            SimTime::ZERO,
            1e6,
            TrafficModel::Constant { load: 0.5 },
        );
        let tq = quiet.transfer_time(SimTime::ZERO, 1_000_000);
        let tb = busy.transfer_time(SimTime::ZERO, 1_000_000);
        assert!((tq.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((tb.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn beta_varies_with_time() {
        let l = Link::shared(
            "trace",
            SimTime::ZERO,
            1e8,
            TrafficModel::Trace {
                initial: 0.0,
                points: vec![(SimTime::from_secs(10), 0.9)],
            },
        );
        assert!(l.beta(SimTime::from_secs(0)) < l.beta(SimTime::from_secs(10)));
        let ratio = l.beta(SimTime::from_secs(10)) / l.beta(SimTime::from_secs(0));
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_fault_collapses_bandwidth() {
        use crate::faults::{FaultKind, FaultSchedule};
        let l = Link::dedicated("f", SimTime::ZERO, 1e6).with_faults(
            FaultSchedule::none().with_window(
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                FaultKind::Slowdown { factor: 0.1 },
            ),
        );
        let before = l.transfer_time(SimTime::ZERO, 1_000_000);
        let during = l.transfer_time(SimTime::from_secs(15), 1_000_000);
        assert!((before.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((during.as_secs_f64() - 10.0).abs() < 1e-9);
        use crate::faults::LinkHealth;
        assert_eq!(l.health_at(SimTime::ZERO), LinkHealth::Up);
        assert_eq!(
            l.health_at(SimTime::from_secs(15)),
            LinkHealth::Slow { factor: 0.1 }
        );
    }
}
