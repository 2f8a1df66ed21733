//! Retry-with-exponential-backoff over fallible simulator operations.
//!
//! The DLB's control traffic and the driver's bulk transfers must survive
//! transient link faults; this module fixes the one retry schedule every
//! caller uses (attempt count, base backoff, multiplier) and the one loop
//! that runs it, [`retry`]. The loop charges the backoff sleeps to
//! [`Activity::Wait`] on the waiting procs so the accounting invariant
//! (every clock advance is attributed) holds.

use crate::error::SimResult;
use crate::shared::SimView;
use crate::stats::Activity;
use topology::ProcId;

/// Total attempts of one retried operation, the first try included.
pub const MAX_ATTEMPTS: u32 = 3;

/// Backoff before the first retry, simulated seconds.
pub const BASE_BACKOFF_SECS: f64 = 0.05;

/// Multiplier applied to the backoff after each failed attempt.
pub const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Backoff to sleep after failed attempt number `attempt` (0-based):
/// `BASE_BACKOFF_SECS · BACKOFF_MULTIPLIER^attempt`.
pub fn backoff_secs(attempt: u32) -> f64 {
    BASE_BACKOFF_SECS * BACKOFF_MULTIPLIER.powi(attempt as i32)
}

/// Run `op` up to [`MAX_ATTEMPTS`] times until it succeeds, idling every
/// proc of `waiters` (in order) through [`backoff_secs`] between attempts.
/// Returns how many retries were consumed along with the outcome (the
/// error of the last attempt, if all failed).
pub fn retry<T>(
    sim: &mut SimView,
    waiters: &[ProcId],
    mut op: impl FnMut(&mut SimView) -> SimResult<T>,
) -> (u32, SimResult<T>) {
    let mut attempt = 0;
    loop {
        match op(sim) {
            Err(_) if attempt + 1 < MAX_ATTEMPTS => {
                let backoff = backoff_secs(attempt);
                for &p in waiters {
                    sim.busy(p, backoff, Activity::Wait);
                }
                attempt += 1;
            }
            res => return (attempt, res),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use topology::faults::{FaultKind, FaultSchedule};
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder};

    fn faulty_pair(windows: FaultSchedule) -> SimView {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(10), 1e7).with_faults(windows);
        SimView::new(
            SystemBuilder::new()
                .group("A", 1, 1.0, intra.clone())
                .group("B", 1, 1.0, intra)
                .connect(0, 1, wan)
                .build(),
        )
    }

    #[test]
    fn backoff_grows_exponentially() {
        assert!((backoff_secs(0) - 0.05).abs() < 1e-12);
        assert!((backoff_secs(1) - 0.10).abs() < 1e-12);
        assert!((backoff_secs(2) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn retry_succeeds_once_fault_clears() {
        // outage covers [0, 60 ms); first attempt fails, backoff pushes the
        // retry past the window and it succeeds
        let sched = FaultSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_millis(60),
            FaultKind::Outage,
        );
        let mut sim = faulty_pair(sched);
        let (retries, res) = retry(&mut sim, &[ProcId(0), ProcId(1)], |sim| {
            sim.send(ProcId(0), ProcId(1), 1_000, Activity::LoadBalance)
        });
        assert!(res.is_ok(), "{res:?}");
        assert!(retries >= 1);
        assert!(sim.stats().procs[0].wait > SimTime::ZERO, "backoff charged");
    }

    #[test]
    fn exhausted_retries_return_last_error() {
        let sched = FaultSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_secs(3600),
            FaultKind::Outage,
        );
        let mut sim = faulty_pair(sched);
        let (retries, res) = retry(&mut sim, &[ProcId(0), ProcId(1)], |sim| {
            sim.send(ProcId(0), ProcId(1), 1_000, Activity::LoadBalance)
        });
        assert_eq!(retries, MAX_ATTEMPTS - 1);
        assert!(matches!(res, Err(SimError::LinkDown { .. })), "{res:?}");
    }
}
