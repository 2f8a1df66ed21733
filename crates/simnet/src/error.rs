//! Typed communication failures surfaced by [`NetSim`](crate::NetSim).
//!
//! Before the fault-injection subsystem every comms call silently
//! succeeded; now a faulted link produces one of these errors, each
//! carrying the simulated time at which the caller *learned* of the
//! failure (clocks have already been advanced to that point, so wasted
//! wall-clock is accounted).

use topology::{ProbeError, SimTime};

/// Why a simulated communication operation failed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimError {
    /// The link was down when the transfer started; the sender detected
    /// the dead peer at `at` (after a round-trip's worth of waiting).
    LinkDown { at: SimTime },
    /// The transfer did not complete before its deadline (explicit
    /// per-transfer deadline or the simulator's default timeout against
    /// blackholed links).
    Timeout { at: SimTime, deadline: SimTime },
    /// The transfer was cut mid-flight: `sent` of `total` bytes arrived
    /// before the link failed at `at`.
    PartialTransfer { at: SimTime, sent: u64, total: u64 },
    /// A two-message α/β probe failed.
    Probe { at: SimTime, source: ProbeError },
    /// A collective could not complete because the inter-link between
    /// `group_a` and `group_b` was unusable at `at`.
    CollectiveFailed {
        at: SimTime,
        group_a: usize,
        group_b: usize,
    },
    /// One endpoint of the transfer was crashed (crash-stop proc failure)
    /// when the transfer started; the live side detected the dead peer at
    /// `at` (after a round-trip's worth of waiting).
    PeerDead { at: SimTime },
}

impl SimError {
    /// Simulated time at which the failure was detected.
    pub fn at(&self) -> SimTime {
        match self {
            SimError::LinkDown { at }
            | SimError::Timeout { at, .. }
            | SimError::PartialTransfer { at, .. }
            | SimError::Probe { at, .. }
            | SimError::CollectiveFailed { at, .. }
            | SimError::PeerDead { at } => *at,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::LinkDown { at } => write!(f, "link down (detected at {at:?})"),
            SimError::Timeout { at, deadline } => {
                write!(f, "transfer timed out at {at:?} (deadline {deadline:?})")
            }
            SimError::PartialTransfer { at, sent, total } => {
                write!(f, "partial transfer: {sent}/{total} bytes before failure at {at:?}")
            }
            SimError::Probe { at, source } => write!(f, "probe failed at {at:?}: {source}"),
            SimError::CollectiveFailed { at, group_a, group_b } => write!(
                f,
                "collective failed at {at:?}: link between groups {group_a} and {group_b} unusable"
            ),
            SimError::PeerDead { at } => {
                write!(f, "peer crashed (detected at {at:?})")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for fallible simulator operations.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_extracts_detection_time() {
        let t = SimTime::from_secs(3);
        assert_eq!(SimError::LinkDown { at: t }.at(), t);
        assert_eq!(
            SimError::PartialTransfer {
                at: t,
                sent: 1,
                total: 2
            }
            .at(),
            t
        );
    }

    #[test]
    fn display_is_informative() {
        let e = SimError::CollectiveFailed {
            at: SimTime::ZERO,
            group_a: 0,
            group_b: 1,
        };
        assert!(e.to_string().contains("groups 0 and 1"));
    }
}
