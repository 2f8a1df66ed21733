//! Background-traffic models for shared links.
//!
//! The paper's testbeds (Gigabit LAN at ANL, the MREN ATM OC-3 WAN between
//! ANL and NCSA) are *shared* networks whose available bandwidth varies at
//! runtime. We model that as a background-utilization function
//! `u(t) ∈ [0, 1)`: at simulated time `t` a fraction `u(t)` of the link's raw
//! bandwidth is consumed by other users, and message latency grows
//! accordingly.
//!
//! Every model is a *pure function of time and seed* so simulations are
//! reproducible regardless of query order.

use crate::time::SimTime;
use base::rng::splitmix64;

/// Deterministic background-utilization model of a shared link.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficModel {
    /// Dedicated link: no background traffic ever.
    Quiet,
    /// Constant fractional utilization in `[0, 1)`.
    Constant { load: f64 },
    /// Sinusoidal "diurnal" load swinging between `base - amp` and
    /// `base + amp` with the given period.
    Diurnal {
        base: f64,
        amp: f64,
        period: SimTime,
    },
    /// Markov-style bursty traffic: time is divided into `slot` buckets; each
    /// bucket is "on" (utilization `high`) with probability `p_on`, otherwise
    /// `low`. Bucket states are derived by hashing `(seed, bucket)`, so the
    /// model is stationary, deterministic, and O(1) to query.
    Bursty {
        low: f64,
        high: f64,
        p_on: f64,
        slot: SimTime,
        seed: u64,
    },
    /// Piecewise-constant trace: `(start_time, load)` pairs sorted by time;
    /// load before the first point is `initial`.
    Trace {
        initial: f64,
        points: Vec<(SimTime, f64)>,
    },
}

fn unit_hash(seed: u64, bucket: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(bucket.wrapping_add(0xA5A5_A5A5)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl TrafficModel {
    /// Background utilization at time `t`, clamped to `[0, 0.99]` so a link
    /// always retains at least 1% of its bandwidth (a fully saturated shared
    /// link still drains, just very slowly — as real TCP flows do).
    pub fn utilization(&self, t: SimTime) -> f64 {
        let raw = match self {
            TrafficModel::Quiet => 0.0,
            TrafficModel::Constant { load } => *load,
            TrafficModel::Diurnal { base, amp, period } => {
                let p = *period;
                let phase = if p.as_nanos() == 0 {
                    0.0
                } else {
                    (t.as_nanos() % p.as_nanos()) as f64 / p.as_nanos() as f64
                };
                base + amp * (2.0 * std::f64::consts::PI * phase).sin()
            }
            TrafficModel::Bursty {
                low,
                high,
                p_on,
                slot,
                seed,
            } => {
                let s = *slot;
                let bucket = if s.as_nanos() == 0 {
                    0
                } else {
                    t.as_nanos() / s.as_nanos()
                };
                if unit_hash(*seed, bucket) < *p_on {
                    *high
                } else {
                    *low
                }
            }
            TrafficModel::Trace { initial, points } => {
                let mut load = *initial;
                for (pt, l) in points {
                    if *pt <= t {
                        load = *l;
                    } else {
                        break;
                    }
                }
                load
            }
        };
        raw.clamp(0.0, 0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_is_zero() {
        let m = TrafficModel::Quiet;
        assert_eq!(m.utilization(SimTime::ZERO), 0.0);
        assert_eq!(m.utilization(SimTime::from_secs(100)), 0.0);
    }

    #[test]
    fn constant_clamped() {
        let m = TrafficModel::Constant { load: 0.5 };
        assert_eq!(m.utilization(SimTime::from_secs(3)), 0.5);
        let m = TrafficModel::Constant { load: 2.0 };
        assert_eq!(m.utilization(SimTime::ZERO), 0.99);
        let m = TrafficModel::Constant { load: -1.0 };
        assert_eq!(m.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn diurnal_oscillates_with_period() {
        let m = TrafficModel::Diurnal {
            base: 0.4,
            amp: 0.3,
            period: SimTime::from_secs(100),
        };
        let quarter = m.utilization(SimTime::from_secs(25));
        assert!((quarter - 0.7).abs() < 1e-9);
        let three_quarter = m.utilization(SimTime::from_secs(75));
        assert!((three_quarter - 0.1).abs() < 1e-9);
        // periodicity
        assert!(
            (m.utilization(SimTime::from_secs(25)) - m.utilization(SimTime::from_secs(125))).abs()
                < 1e-9
        );
    }

    #[test]
    fn bursty_deterministic_and_two_valued() {
        let m = TrafficModel::Bursty {
            low: 0.1,
            high: 0.8,
            p_on: 0.5,
            slot: SimTime::from_secs(1),
            seed: 42,
        };
        for s in 0..50 {
            let t = SimTime::from_millis(s * 500);
            let u = m.utilization(t);
            assert!(u == 0.1 || u == 0.8, "got {u}");
            assert_eq!(u, m.utilization(t), "same query same answer");
        }
        // p_on controls long-run fraction approximately
        let mean = (0..2000)
            .map(|i| m.utilization(SimTime::from_secs(i)))
            .sum::<f64>()
            / 2000.0;
        assert!((mean - 0.45).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn bursty_constant_within_slot() {
        let m = TrafficModel::Bursty {
            low: 0.0,
            high: 0.9,
            p_on: 0.5,
            slot: SimTime::from_secs(10),
            seed: 7,
        };
        let a = m.utilization(SimTime::from_secs(20));
        let b = m.utilization(SimTime::from_secs(29));
        assert_eq!(a, b);
    }

    #[test]
    fn trace_steps() {
        let m = TrafficModel::Trace {
            initial: 0.1,
            points: vec![(SimTime::from_secs(10), 0.7), (SimTime::from_secs(20), 0.2)],
        };
        assert_eq!(m.utilization(SimTime::from_secs(5)), 0.1);
        assert_eq!(m.utilization(SimTime::from_secs(10)), 0.7);
        assert_eq!(m.utilization(SimTime::from_secs(15)), 0.7);
        assert_eq!(m.utilization(SimTime::from_secs(25)), 0.2);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| TrafficModel::Bursty {
            low: 0.0,
            high: 0.9,
            p_on: 0.5,
            slot: SimTime::from_secs(1),
            seed,
        };
        let a = mk(1);
        let b = mk(2);
        let same = (0..100)
            .filter(|&s| {
                a.utilization(SimTime::from_secs(s)) == b.utilization(SimTime::from_secs(s))
            })
            .count();
        assert!(same < 100, "seeds produced identical traces");
    }
}
