//! Runtime performance records used by the gain/cost heuristics (§4.2–4.3).
//!
//! Between two iterations at level 0 the scheme records: the amount of load
//! each processor has at every level (`w_proc^i(t)`), the number of
//! iterations each finer level performs per level-0 step (`N_iter^i(t)`),
//! the execution time of one level-0 step (`T(t)`), and the computational
//! overhead `δ` of the previous global redistribution.

/// Per-interval performance record, filled by the driver and read by the
/// distributed DLB's decision heuristics.
#[derive(Clone, Debug, Default)]
pub struct WorkloadHistory {
    /// `w[level][proc]`: cells owned by `proc` at `level` (latest snapshot).
    w: Vec<Vec<i64>>,
    /// `n_iter[level]`: number of iterations of `level` per level-0 step
    /// (`r^level` for a sub-cycled hierarchy with refinement factor `r`).
    n_iter: Vec<u32>,
    /// `T(t)`: wall time of the last completed level-0 step, seconds.
    last_step_secs: f64,
    /// `δ`: measured computational overhead of the previous global
    /// redistribution, seconds.
    delta: f64,
    /// Number of level-0 steps completed so far.
    steps: u64,
}

base::json_struct!(WorkloadHistory: w, n_iter, last_step_secs, delta, steps);

impl WorkloadHistory {
    /// Fresh, empty history for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        WorkloadHistory {
            w: vec![vec![0; nprocs]; 1],
            n_iter: vec![1],
            last_step_secs: 0.0,
            delta: 0.0,
            steps: 0,
        }
    }

    /// Number of processors tracked.
    pub fn nprocs(&self) -> usize {
        self.w.first().map(|v| v.len()).unwrap_or(0)
    }

    /// Number of levels currently recorded.
    pub fn nlevels(&self) -> usize {
        self.w.len()
    }

    /// Record a fresh snapshot of per-processor loads: `loads[level][proc]`
    /// in cells, and per-level iteration counts per level-0 step.
    pub fn record_snapshot(&mut self, loads: Vec<Vec<i64>>, n_iter: Vec<u32>) {
        assert_eq!(loads.len(), n_iter.len(), "levels mismatch");
        assert!(!loads.is_empty());
        let n = loads[0].len();
        assert!(loads.iter().all(|l| l.len() == n), "ragged loads");
        self.w = loads;
        self.n_iter = n_iter;
    }

    /// Record the duration of the last completed level-0 step.
    pub fn record_step_time(&mut self, secs: f64) {
        assert!(secs >= 0.0);
        self.last_step_secs = secs;
        self.steps += 1;
    }

    /// Record the computational overhead of a global redistribution; becomes
    /// the `δ` of the next cost evaluation.
    pub fn record_redistribution_overhead(&mut self, secs: f64) {
        assert!(secs >= 0.0);
        self.delta = secs;
    }

    /// `w_proc^i(t)` — cells owned by `proc` at `level` (0 when the level is
    /// not present).
    pub fn proc_level_load(&self, level: usize, proc: usize) -> i64 {
        self.w.get(level).map(|l| l[proc]).unwrap_or(0)
    }

    /// `N_iter^i(t)` for `level` (1 when unknown).
    pub fn level_iters(&self, level: usize) -> u32 {
        self.n_iter.get(level).copied().unwrap_or(1)
    }

    /// `T(t)` — duration of the last level-0 step, seconds.
    pub fn last_step_secs(&self) -> f64 {
        self.last_step_secs
    }

    /// Current `δ` (seconds).
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Completed level-0 steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Eq. (2): `W_group^i(t) = Σ_{proc ∈ group} w_proc^i(t)`.
    pub fn group_level_load(&self, level: usize, group_procs: &[usize]) -> i64 {
        group_procs
            .iter()
            .map(|&p| self.proc_level_load(level, p))
            .sum()
    }

    /// Eq. (3): `W_group(t) = Σ_i W_group^i(t) · N_iter^i(t)` — the total
    /// iteration-weighted workload a group will execute during the next
    /// level-0 step.
    pub fn group_total_load(&self, group_procs: &[usize]) -> f64 {
        (0..self.nlevels())
            .map(|i| self.group_level_load(i, group_procs) as f64 * self.level_iters(i) as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadHistory {
        let mut h = WorkloadHistory::new(4);
        // 2 levels; procs 0,1 in group A; 2,3 in group B
        h.record_snapshot(
            vec![
                vec![100, 100, 100, 100], // level 0
                vec![400, 200, 0, 0],     // level 1: refinement concentrated in A
            ],
            vec![1, 2],
        );
        h.record_step_time(10.0);
        h
    }

    #[test]
    fn eq2_group_level_load() {
        let h = sample();
        assert_eq!(h.group_level_load(0, &[0, 1]), 200);
        assert_eq!(h.group_level_load(1, &[0, 1]), 600);
        assert_eq!(h.group_level_load(1, &[2, 3]), 0);
        // absent level counts zero
        assert_eq!(h.group_level_load(7, &[0, 1]), 0);
    }

    #[test]
    fn eq3_iteration_weighting() {
        let h = sample();
        // A: 200·1 + 600·2 = 1400 ; B: 200·1 + 0 = 200
        assert_eq!(h.group_total_load(&[0, 1]), 1400.0);
        assert_eq!(h.group_total_load(&[2, 3]), 200.0);
    }

    #[test]
    fn records_update_state() {
        let mut h = sample();
        assert_eq!(h.last_step_secs(), 10.0);
        assert_eq!(h.steps(), 1);
        assert_eq!(h.delta(), 0.0);
        h.record_redistribution_overhead(0.7);
        assert_eq!(h.delta(), 0.7);
        h.record_step_time(8.0);
        assert_eq!(h.last_step_secs(), 8.0);
        assert_eq!(h.steps(), 2);
    }

    #[test]
    #[should_panic]
    fn ragged_snapshot_rejected() {
        let mut h = WorkloadHistory::new(2);
        h.record_snapshot(vec![vec![1, 2], vec![3]], vec![1, 2]);
    }
}
