//! Fault tolerance of the distributed DLB: retries, probe deadlines, and
//! the group **quarantine** protocol.
//!
//! The paper assumes the WAN between groups stays up; real distributed
//! systems do not. The degradation policy implemented here keeps the
//! scheme's structure intact while making every inter-group interaction
//! abortable:
//!
//! * control traffic (probes, decision collectives, tree summaries) is
//!   retried with exponential backoff by simnet's one retry loop
//!   ([`simnet::retry`]): 3 attempts, 50 ms before the first retry,
//!   doubling;
//! * one α/β probe attempt must finish within [`PROBE_TIMEOUT_SECS`], and
//!   the migration traffic of a redistribution within
//!   [`TRANSFER_DEADLINE_SLACK_SECS`] of its start;
//! * a group whose inter-link fails `quarantine_after` times in a row (the
//!   one configurable number, [`crate::DistributedDlbConfig`]) is
//!   **quarantined** — excluded from the global phase's collective, gain
//!   evaluation, and redistribution, while its *local* intra-group DLB
//!   continues (children stay with parents, so a partitioned group remains
//!   self-sufficient);
//! * a quarantined group gets a **probation probe** at every global check
//!   after the level-0 step that quarantined it, is re-admitted once one
//!   succeeds, and the time it spent excluded is recorded as recovery time.

use metrics::FaultCounters;
use telemetry::{FaultEvent, FaultKind};
use topology::SimTime;

/// Deadline for one α/β probe attempt, simulated seconds.
pub const PROBE_TIMEOUT_SECS: f64 = 2.0;

/// Deadline for the whole migration traffic of one global redistribution,
/// simulated seconds past its start.
pub const TRANSFER_DEADLINE_SLACK_SECS: f64 = 4.0;

/// Participation state of a group in the global phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GroupHealth {
    /// Fully participating.
    Healthy,
    /// Excluded from the global phase since level-0 step `since_step`
    /// (simulated time `since`); local DLB continues.
    Quarantined { since_step: u64, since: SimTime },
}

impl GroupHealth {
    pub fn is_healthy(&self) -> bool {
        matches!(self, GroupHealth::Healthy)
    }
}

/// Tracks which groups are quarantined, their failure strikes, and the
/// fault-event log.
#[derive(Clone, Debug, Default)]
pub struct QuarantineRoster {
    health: Vec<GroupHealth>,
    /// Consecutive inter-link failures charged against each group.
    strikes: Vec<u32>,
    /// Chronological fault log, in the telemetry's own record type (the
    /// scheme forwards it to the sink).
    pub events: Vec<FaultEvent>,
    /// Aggregate counters of the protocol (the driver adds its own bulk
    /// transfers to them for the run report).
    pub stats: FaultCounters,
}

impl QuarantineRoster {
    pub fn new(ngroups: usize) -> Self {
        QuarantineRoster {
            health: vec![GroupHealth::Healthy; ngroups],
            strikes: vec![0; ngroups],
            events: Vec::new(),
            stats: FaultCounters::default(),
        }
    }

    /// Grow to `ngroups` entries if needed (roster may be created lazily).
    pub fn ensure_len(&mut self, ngroups: usize) {
        while self.health.len() < ngroups {
            self.health.push(GroupHealth::Healthy);
            self.strikes.push(0);
        }
    }

    pub fn health(&self, g: usize) -> GroupHealth {
        self.health[g]
    }

    pub fn is_healthy(&self, g: usize) -> bool {
        self.health[g].is_healthy()
    }

    /// Indices of groups currently participating in the global phase.
    pub fn healthy_groups(&self) -> Vec<usize> {
        (0..self.health.len())
            .filter(|&g| self.health[g].is_healthy())
            .collect()
    }

    /// Indices of quarantined groups.
    pub fn quarantined_groups(&self) -> Vec<usize> {
        (0..self.health.len())
            .filter(|&g| !self.health[g].is_healthy())
            .collect()
    }

    /// Charge a failure on the link between `a` and `b` at level-0 step
    /// `step` (simulated time `now`). The higher-indexed group takes the
    /// blame — group 0 hosts the coordinator and is never quarantined, so
    /// the scheme always retains a quorum to keep running. Returns the
    /// group that was quarantined by this strike, if any.
    pub fn record_pair_failure(
        &mut self,
        a: usize,
        b: usize,
        step: u64,
        now: SimTime,
        quarantine_after: u32,
    ) -> Option<usize> {
        let blamed = a.max(b);
        if blamed == 0 || !self.health[blamed].is_healthy() {
            return None;
        }
        self.strikes[blamed] = self.strikes[blamed].saturating_add(1);
        if self.strikes[blamed] >= quarantine_after.max(1) {
            self.health[blamed] = GroupHealth::Quarantined {
                since_step: step,
                since: now,
            };
            self.events.push(FaultEvent {
                step,
                kind: FaultKind::Quarantine { group: blamed },
            });
            self.stats.quarantines += 1;
            return Some(blamed);
        }
        None
    }

    /// A successful interaction over the link between `a` and `b` clears
    /// both groups' strikes.
    pub fn record_pair_success(&mut self, a: usize, b: usize) {
        self.strikes[a] = 0;
        self.strikes[b] = 0;
    }

    /// Re-admit `g` after a successful probation probe at step `step`
    /// (simulated time `now`); records the recovery time.
    pub fn readmit(&mut self, g: usize, step: u64, now: SimTime) {
        if let GroupHealth::Quarantined { since, .. } = self.health[g] {
            let recovery_secs = now.saturating_sub(since).as_secs_f64();
            self.health[g] = GroupHealth::Healthy;
            self.strikes[g] = 0;
            self.events.push(FaultEvent {
                step,
                kind: FaultKind::Readmit {
                    group: g,
                    recovery_secs,
                },
            });
            self.stats.readmissions += 1;
            self.stats.recovery_secs += recovery_secs;
        }
    }

    /// Current strike count of `g`.
    pub fn strikes(&self, g: usize) -> u32 {
        self.strikes[g]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strikes_accumulate_into_quarantine() {
        let mut r = QuarantineRoster::new(3);
        assert_eq!(r.healthy_groups(), vec![0, 1, 2]);
        assert!(r
            .record_pair_failure(0, 2, 1, SimTime::from_secs(1), 2)
            .is_none());
        assert_eq!(r.strikes(2), 1);
        let q = r.record_pair_failure(0, 2, 2, SimTime::from_secs(2), 2);
        assert_eq!(q, Some(2));
        assert!(!r.is_healthy(2));
        assert_eq!(r.healthy_groups(), vec![0, 1]);
        assert_eq!(r.quarantined_groups(), vec![2]);
        assert_eq!(r.stats.quarantines, 1);
    }

    #[test]
    fn group_zero_is_never_blamed() {
        let mut r = QuarantineRoster::new(2);
        // pair failure between 0 and 1 blames 1, never 0
        r.record_pair_failure(1, 0, 1, SimTime::ZERO, 1);
        assert!(r.is_healthy(0));
        assert!(!r.is_healthy(1));
        // a failure "between 0 and 0" (degenerate) can't quarantine 0
        assert!(r.record_pair_failure(0, 0, 1, SimTime::ZERO, 1).is_none());
        assert!(r.is_healthy(0));
    }

    #[test]
    fn success_clears_strikes() {
        let mut r = QuarantineRoster::new(2);
        r.record_pair_failure(0, 1, 1, SimTime::ZERO, 3);
        r.record_pair_failure(0, 1, 2, SimTime::ZERO, 3);
        assert_eq!(r.strikes(1), 2);
        r.record_pair_success(0, 1);
        assert_eq!(r.strikes(1), 0);
        // strikes must re-accumulate from scratch
        r.record_pair_failure(0, 1, 3, SimTime::ZERO, 3);
        assert!(r.is_healthy(1));
    }

    #[test]
    fn readmit_records_recovery_time() {
        let mut r = QuarantineRoster::new(2);
        r.record_pair_failure(0, 1, 5, SimTime::from_secs(10), 1);
        assert!(!r.is_healthy(1));
        r.readmit(1, 8, SimTime::from_secs(25));
        assert!(r.is_healthy(1));
        assert_eq!(r.stats.readmissions, 1);
        assert!((r.stats.recovery_secs - 15.0).abs() < 1e-9);
        assert!(matches!(
            r.events.last().map(|e| e.kind),
            Some(FaultKind::Readmit { group: 1, .. })
        ));
        // re-admitting a healthy group is a no-op
        r.readmit(1, 9, SimTime::from_secs(30));
        assert_eq!(r.stats.readmissions, 1);
    }

    #[test]
    fn quarantined_group_takes_no_further_strikes() {
        let mut r = QuarantineRoster::new(2);
        r.record_pair_failure(0, 1, 1, SimTime::ZERO, 1);
        assert_eq!(r.stats.quarantines, 1);
        assert!(r.record_pair_failure(0, 1, 2, SimTime::ZERO, 1).is_none());
        assert_eq!(r.stats.quarantines, 1, "no double quarantine");
    }
}
