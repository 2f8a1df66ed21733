//! Computational-gain evaluation for global redistribution — §4.3, Eq. (4).

use crate::history::WorkloadHistory;
use topology::{DistributedSystem, GroupId};

/// Result of evaluating Eq. (4) on the current history.
#[derive(Clone, Debug, PartialEq)]
pub struct GainEstimate {
    /// Estimated seconds saved per level-0 step by removing the imbalance.
    pub gain_secs: f64,
    /// Iteration-weighted workload per group, `W_group(t)` (Eq. 3).
    pub group_loads: Vec<f64>,
    /// Power-normalized imbalance ratio `max(W_g/P_g) / min(W_g/P_g)`
    /// (∞ when some group has zero load but others don't).
    pub imbalance_ratio: f64,
}

/// Evaluate the paper's gain heuristic.
///
/// `Gain = T(t) · (max_g W_g − min_g W_g) / (NumGroups · max_g W_g)` — a
/// deliberately conservative estimate of the per-step time saved by removing
/// the inter-group imbalance, scaled from the measured last step time `T(t)`.
/// Every group is compared, at its nameplate power.
pub fn evaluate_gain(history: &WorkloadHistory, sys: &DistributedSystem) -> GainEstimate {
    let all: Vec<usize> = (0..sys.ngroups()).collect();
    gain_from_loads(
        history_group_loads(history, sys),
        history.last_step_secs(),
        &all,
        &static_powers(sys),
    )
}

/// Iteration-weighted workload per group, `W_group(t)` (Eq. 3), from the
/// last recorded snapshot.
pub fn history_group_loads(history: &WorkloadHistory, sys: &DistributedSystem) -> Vec<f64> {
    (0..sys.ngroups())
        .map(|g| {
            let procs: Vec<usize> = sys.procs_in(GroupId(g)).iter().map(|p| p.0).collect();
            history.group_total_load(&procs)
        })
        .collect()
}

/// Nameplate per-group powers (every proc assumed alive).
pub fn static_powers(sys: &DistributedSystem) -> Vec<f64> {
    (0..sys.ngroups())
        .map(|g| sys.group_power(GroupId(g)))
        .collect()
}

/// Eq. 4 straight from an explicit load vector — recorded or predicted,
/// per group or per subtree: `group_loads`/`powers` are indexed by whatever
/// granularity `among` enumerates (the global phase scores a tree node over
/// its children's aggregated (load, capacity) summaries).
///
/// The max/min and the imbalance ratio consider only `among`, so a
/// quarantined group's unreachable load can neither trigger nor suppress a
/// redistribution among the groups that can actually exchange work, and
/// `powers` is what is *actually* alive: a group that lost procs to
/// crash-stop failures has less capacity than its nameplate power.
/// `group_loads` comes back in the result whole (entries outside `among`
/// are reported but not compared).
pub fn gain_from_loads(
    group_loads: Vec<f64>,
    last_step_secs: f64,
    among: &[usize],
    powers: &[f64],
) -> GainEstimate {
    let active = among.len();
    let max = among
        .iter()
        .map(|&g| group_loads[g])
        .fold(0.0, f64::max);
    let min = among
        .iter()
        .map(|&g| group_loads[g])
        .fold(f64::MAX, f64::min);
    let gain_secs = if max > 0.0 && active > 1 {
        last_step_secs * (max - min) / (active as f64 * max)
    } else {
        0.0
    };

    // Imbalance is judged on power-normalized loads so a faster group is
    // *supposed* to hold more work.
    let mut norm_max = 0.0f64;
    let mut norm_min = f64::MAX;
    for &g in among {
        let w = group_loads[g];
        let p = powers[g];
        // a group with no surviving capacity but load still assigned is
        // infinitely imbalanced — its work must leave
        let norm = if p > 0.0 {
            w / p
        } else if w > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        norm_max = norm_max.max(norm);
        norm_min = norm_min.min(norm);
    }
    if among.is_empty() {
        norm_min = 0.0;
    }
    let imbalance_ratio = if norm_max == 0.0 {
        1.0
    } else if norm_min <= 0.0 {
        f64::INFINITY
    } else {
        norm_max / norm_min
    };

    GainEstimate {
        gain_secs,
        group_loads,
        imbalance_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::WorkloadHistory;
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder};

    fn sys(na: usize, nb: usize, wb: f64) -> DistributedSystem {
        let intra = Link::dedicated("intra", SimTime::ZERO, 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(5), 1e7);
        SystemBuilder::new()
            .group("A", na, 1.0, intra.clone())
            .group("B", nb, wb, intra)
            .connect(0, 1, wan)
            .build()
    }

    fn history(loads_a: i64, loads_b: i64, t: f64) -> WorkloadHistory {
        let mut h = WorkloadHistory::new(4);
        h.record_snapshot(
            vec![vec![loads_a / 2, loads_a / 2, loads_b / 2, loads_b / 2]],
            vec![1],
        );
        h.record_step_time(t);
        h
    }

    /// Eq. 4 on the history's loads, compared among `among` at `powers`.
    fn gain_among(
        h: &WorkloadHistory,
        sys: &DistributedSystem,
        among: &[usize],
        powers: &[f64],
    ) -> GainEstimate {
        let loads = history_group_loads(h, sys);
        gain_from_loads(loads, h.last_step_secs(), among, powers)
    }

    #[test]
    fn balanced_system_zero_gain() {
        let h = history(1000, 1000, 10.0);
        let g = evaluate_gain(&h, &sys(2, 2, 1.0));
        assert_eq!(g.gain_secs, 0.0);
        assert!((g.imbalance_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eq4_exact_value() {
        // W_A = 1400, W_B = 200, T = 10, 2 groups:
        // gain = 10 * (1400-200) / (2*1400) = 4.2857...
        let mut h = WorkloadHistory::new(4);
        h.record_snapshot(
            vec![vec![100, 100, 100, 100], vec![400, 200, 0, 0]],
            vec![1, 2],
        );
        h.record_step_time(10.0);
        let g = evaluate_gain(&h, &sys(2, 2, 1.0));
        assert_eq!(g.group_loads, vec![1400.0, 200.0]);
        assert!((g.gain_secs - 10.0 * 1200.0 / 2800.0).abs() < 1e-12);
        assert!((g.imbalance_ratio - 7.0).abs() < 1e-12);
    }

    #[test]
    fn gain_is_conservative_fraction_of_step() {
        // gain can never exceed T/NumGroups
        let h = history(10_000, 0, 10.0);
        let g = evaluate_gain(&h, &sys(2, 2, 1.0));
        assert!(g.gain_secs <= 10.0 / 2.0 + 1e-12);
        assert!(g.imbalance_ratio.is_infinite());
    }

    #[test]
    fn power_normalization_tolerates_fast_group_holding_more() {
        // group B has 2x-weight procs: holding 2x the load is balanced
        let h = history(1000, 2000, 10.0);
        let g = evaluate_gain(&h, &sys(2, 2, 2.0));
        assert!((g.imbalance_ratio - 1.0).abs() < 1e-9);
        // raw Eq.4 gain is still positive (it ignores power by design —
        // the caller gates on imbalance_ratio first)
        assert!(g.gain_secs > 0.0);
    }

    #[test]
    fn zero_step_time_zero_gain() {
        let h = history(1000, 0, 0.0);
        let g = evaluate_gain(&h, &sys(2, 2, 1.0));
        assert_eq!(g.gain_secs, 0.0);
    }

    #[test]
    fn gain_among_ignores_excluded_groups() {
        // B holds nothing; among all groups that is a huge imbalance, but
        // with B quarantined the healthy subset {A} is trivially balanced.
        let h = history(1000, 0, 10.0);
        let sys = sys(2, 2, 1.0);
        let full = gain_among(&h, &sys, &[0, 1], &static_powers(&sys));
        assert!(full.gain_secs > 0.0);
        assert!(full.imbalance_ratio.is_infinite());
        let only_a = gain_among(&h, &sys, &[0], &static_powers(&sys));
        assert_eq!(only_a.gain_secs, 0.0);
        assert!((only_a.imbalance_ratio - 1.0).abs() < 1e-12);
        // group_loads still reports every group
        assert_eq!(only_a.group_loads.len(), 2);
        // matches unrestricted evaluation when every group is listed
        assert_eq!(evaluate_gain(&h, &sys), full);
    }

    #[test]
    fn shrunken_powers_turn_balance_into_imbalance() {
        // equal loads on equal nameplate groups: balanced...
        let h = history(1000, 1000, 10.0);
        let sys = sys(2, 2, 1.0);
        let nameplate = evaluate_gain(&h, &sys);
        assert!((nameplate.imbalance_ratio - 1.0).abs() < 1e-12);
        // ...but with one of B's two procs dead, B is carrying double its
        // surviving capacity's fair share
        let shrunk = gain_among(&h, &sys, &[0, 1], &[2.0, 1.0]);
        assert!((shrunk.imbalance_ratio - 2.0).abs() < 1e-12);
        // a zero-capacity group with load pending is infinitely imbalanced
        let dead = gain_among(&h, &sys, &[0, 1], &[2.0, 0.0]);
        assert!(dead.imbalance_ratio.is_infinite());
        // static_powers reproduces the nameplate evaluation
        assert_eq!(
            gain_among(&h, &sys, &[0, 1], &static_powers(&sys)),
            nameplate
        );
    }

    #[test]
    fn forecast_gain_matches_history_gain_on_same_loads() {
        let h = history(1400, 200, 10.0);
        let sys = sys(2, 2, 1.0);
        let from_history = evaluate_gain(&h, &sys);
        let powers = static_powers(&sys);
        let from_forecast = gain_from_loads(
            from_history.group_loads.clone(),
            h.last_step_secs(),
            &[0, 1],
            &powers,
        );
        assert_eq!(from_forecast, from_history);
        // and a predicted shift changes the verdict before history catches up
        let shifted = gain_from_loads(vec![200.0, 1400.0], 10.0, &[0, 1], &powers);
        assert!((shifted.imbalance_ratio - 7.0).abs() < 1e-12);
    }
}
