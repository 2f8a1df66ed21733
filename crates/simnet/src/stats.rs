//! Per-processor and aggregate accounting of where simulated time goes.
//!
//! The paper's Fig. 3 splits execution into *computation* and *communication*
//! (local vs. remote); its §4 DLB adds *load-balancing overhead* (probes,
//! decision collectives, grid migration). Every clock advance in the
//! simulator is attributed to exactly one of these buckets.

use topology::SimTime;

/// What an interval of a processor's simulated time was spent on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Numerical solver work.
    Compute,
    /// Ghost-zone / sibling boundary exchange within a group.
    LocalComm,
    /// Boundary exchange or data motion across groups.
    RemoteComm,
    /// Load-balancer overhead: probes, decision collectives, migration.
    LoadBalance,
    /// Waiting at synchronization points.
    Wait,
}

/// Accumulated time per activity for one processor.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcStats {
    pub compute: SimTime,
    pub local_comm: SimTime,
    pub remote_comm: SimTime,
    pub load_balance: SimTime,
    pub wait: SimTime,
}

impl ProcStats {
    /// Add `dt` to the bucket selected by `act`.
    pub fn charge(&mut self, act: Activity, dt: SimTime) {
        match act {
            Activity::Compute => self.compute += dt,
            Activity::LocalComm => self.local_comm += dt,
            Activity::RemoteComm => self.remote_comm += dt,
            Activity::LoadBalance => self.load_balance += dt,
            Activity::Wait => self.wait += dt,
        }
    }

    /// Total accounted time.
    pub fn total(&self) -> SimTime {
        self.compute + self.local_comm + self.remote_comm + self.load_balance + self.wait
    }

    /// Communication (local + remote), the quantity Fig. 3 plots.
    pub fn comm(&self) -> SimTime {
        self.local_comm + self.remote_comm
    }
}

/// Message counters, split by locality, plus failed-transfer counters
/// (attempted transfers that ended in a [`SimError`](crate::SimError)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgStats {
    pub local_msgs: u64,
    pub local_bytes: u64,
    pub remote_msgs: u64,
    pub remote_bytes: u64,
    pub failed_msgs: u64,
    pub failed_bytes: u64,
}

/// Whole-simulation statistics.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    pub procs: Vec<ProcStats>,
    pub msgs: MsgStats,
}

impl SimStats {
    pub fn new(nprocs: usize) -> Self {
        SimStats {
            procs: vec![ProcStats::default(); nprocs],
            msgs: MsgStats::default(),
        }
    }

    /// Maximum compute time over processors.
    pub fn max_compute(&self) -> SimTime {
        self.procs.iter().map(|p| p.compute).max().unwrap_or(SimTime::ZERO)
    }

    /// Maximum communication time over processors (Fig. 3's comm bar).
    pub fn max_comm(&self) -> SimTime {
        self.procs.iter().map(|p| p.comm()).max().unwrap_or(SimTime::ZERO)
    }

    /// Mean load-balance overhead seconds over processors.
    pub fn mean_lb_secs(&self) -> f64 {
        if self.procs.is_empty() {
            return 0.0;
        }
        self.procs
            .iter()
            .map(|p| p.load_balance.as_secs_f64())
            .sum::<f64>()
            / self.procs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_routes_to_buckets() {
        let mut s = ProcStats::default();
        s.charge(Activity::Compute, SimTime::from_secs(3));
        s.charge(Activity::LocalComm, SimTime::from_secs(1));
        s.charge(Activity::RemoteComm, SimTime::from_secs(2));
        s.charge(Activity::LoadBalance, SimTime::from_millis(500));
        s.charge(Activity::Wait, SimTime::from_millis(250));
        assert_eq!(s.compute, SimTime::from_secs(3));
        assert_eq!(s.comm(), SimTime::from_secs(3));
        assert_eq!(s.total(), SimTime::from_millis(6750));
    }

    #[test]
    fn aggregates() {
        let mut st = SimStats::new(2);
        st.procs[0].charge(Activity::Compute, SimTime::from_secs(5));
        st.procs[1].charge(Activity::Compute, SimTime::from_secs(3));
        st.procs[1].charge(Activity::RemoteComm, SimTime::from_secs(4));
        assert_eq!(st.max_compute(), SimTime::from_secs(5));
        assert_eq!(st.max_comm(), SimTime::from_secs(4));
    }
}
