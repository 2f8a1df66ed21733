//! Property-based tests for the DLB machinery: balancing conserves work and
//! respects boundaries; placement, gain and redistribution behave sanely on
//! arbitrary load shapes.

use base::prop;
use dlb::{
    balance_level_within, evaluate_gain, global_redistribute, place_batch, BalanceParams,
    WorkloadHistory,
};
use samr_mesh::hierarchy::GridHierarchy;
use samr_mesh::{ivec3, region};
use simnet::SimView;
use topology::link::Link;
use topology::{ProcId, SimTime, SystemBuilder};

fn sys(na: usize, nb: usize) -> topology::DistributedSystem {
    let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
    let wan = Link::dedicated("wan", SimTime::from_millis(5), 2e7);
    SystemBuilder::new()
        .group("A", na, 1.0, intra.clone())
        .group("B", nb, 1.0, intra)
        .connect(0, 1, wan)
        .build()
}

/// Hierarchy of n level-0 grids (512 cells each) with given owners.
fn hier_with(owners: &[usize]) -> GridHierarchy {
    let n = owners.len() as i64;
    let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(8 * n, 8, 8)), 2, 3, 1, 1);
    for (i, &o) in owners.iter().enumerate() {
        let i = i as i64;
        h.insert_patch(
            0,
            region(ivec3(8 * i, 0, 0), ivec3(8 * (i + 1), 8, 8)),
            None,
            o,
        );
    }
    h
}

const CASES: u32 = 64;

#[test]
fn balance_conserves_total_work() {
    prop::check(
        CASES,
        |g| g.vec(1..24, |g| g.usize(0..4)),
        |owners| {
            let mut h = hier_with(&owners);
            let before: i64 = h.level_cells(0);
            let mut sim = SimView::new(sys(2, 2));
            let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
            balance_level_within(
                &mut h,
                &mut sim,
                0,
                &procs,
                &[1.0; 4],
                &BalanceParams::default(),
            );
            assert_eq!(h.level_cells(0), before);
            assert!(h.check_invariants().is_ok());
        },
    );
}

#[test]
fn balance_reaches_tolerance_or_cannot_improve() {
    prop::check(
        CASES,
        |g| g.vec(4..24, |g| g.usize(0..4)),
        |owners| {
            let mut h = hier_with(&owners);
            let mut sim = SimView::new(sys(2, 2));
            let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
            balance_level_within(
                &mut h,
                &mut sim,
                0,
                &procs,
                &[1.0; 4],
                &BalanceParams::default(),
            );
            let loads = h.level_load_by_owner(0, 4);
            let total: i64 = loads.iter().sum();
            let target = total as f64 / 4.0;
            // with 512-cell granularity every proc must be within one grid of target
            for (i, &l) in loads.iter().enumerate() {
                assert!(
                    (l as f64 - target).abs() <= 512.0 + target * 0.05 + 1.0,
                    "proc {i} load {l} target {target}"
                );
            }
        },
    );
}

#[test]
fn balance_never_touches_outside_owners() {
    prop::check(
        CASES,
        |g| g.vec(4..16, |g| g.usize(0..4)),
        |owners| {
            let mut h = hier_with(&owners);
            let outside_before = h.level_load_by_owner(0, 4)[3];
            let mut sim = SimView::new(sys(2, 2));
            // balance only procs 0..3 (proc 3 excluded)
            let procs: Vec<ProcId> = (0..3).map(ProcId).collect();
            balance_level_within(
                &mut h,
                &mut sim,
                0,
                &procs,
                &[1.0; 3],
                &BalanceParams::default(),
            );
            assert_eq!(h.level_load_by_owner(0, 4)[3], outside_before);
        },
    );
}

#[test]
fn place_batch_returns_valid_indices() {
    prop::check(
        CASES,
        |g| {
            (
                g.vec(1..8, |g| g.i64(0..10_000)),
                g.vec(0..32, |g| g.i64(1..5_000)),
            )
        },
        |(loads, sizes)| {
            let weights = vec![1.0; loads.len()];
            let owners = place_batch(&loads, &weights, &sizes);
            assert_eq!(owners.len(), sizes.len());
            for &o in &owners {
                assert!(o < loads.len());
            }
        },
    );
}

#[test]
fn place_batch_near_optimal_for_uniform() {
    prop::check(
        CASES,
        |g| (g.usize(2..8), g.vec(8..40, |g| g.i64(64..512))),
        |(nprocs, sizes)| {
            // LPT greedy is a 4/3-approximation of makespan
            let loads = vec![0i64; nprocs];
            let weights = vec![1.0; nprocs];
            let owners = place_batch(&loads, &weights, &sizes);
            let mut bins = vec![0i64; nprocs];
            for (i, &o) in owners.iter().enumerate() {
                bins[o] += sizes[i];
            }
            let total: i64 = sizes.iter().sum();
            let ideal = total as f64 / nprocs as f64;
            let makespan = *bins.iter().max().unwrap() as f64;
            let lower = ideal.max(*sizes.iter().max().unwrap() as f64);
            assert!(
                makespan <= lower * 4.0 / 3.0 + 1.0,
                "makespan {makespan} vs bound {}",
                lower * 4.0 / 3.0
            );
        },
    );
}

#[test]
fn gain_nonnegative_and_bounded() {
    prop::check(
        CASES,
        |g| {
            (
                g.vec(4..5, |g| g.i64(0..100_000)),
                g.vec(4..5, |g| g.i64(0..100_000)),
                g.f64(0.0..1000.0),
            )
        },
        |(w0, w1, t)| {
            let mut h = WorkloadHistory::new(4);
            h.record_snapshot(vec![w0, w1], vec![1, 2]);
            h.record_step_time(t);
            let g = evaluate_gain(&h, &sys(2, 2));
            assert!(g.gain_secs >= 0.0);
            // Eq. 4 bound: gain <= T / NumGroups
            assert!(g.gain_secs <= t / 2.0 + 1e-9);
            assert!(g.imbalance_ratio >= 1.0 - 1e-12);
        },
    );
}

#[test]
fn redistribution_moves_toward_balance() {
    prop::check(
        CASES,
        |g| g.usize(1..15),
        |split| {
            // 16 grids, `split` of them owned by group A's proc 0, rest by B's
            let owners: Vec<usize> = (0..16).map(|i| if i < split { 0 } else { 2 }).collect();
            let mut h = hier_with(&owners);
            let mut sim = SimView::new(sys(2, 2));
            let sysd = sim.system().clone();
            let wa = dlb::partition::group_level0_cells(&h, &sysd, 0) as f64;
            let wb = dlb::partition::group_level0_cells(&h, &sysd, 1) as f64;
            let before_gap = (wa - wb).abs();
            global_redistribute(&mut h, &mut sim, &[wa, wb], &BalanceParams::default());
            let na = dlb::partition::group_level0_cells(&h, &sysd, 0) as f64;
            let nb = dlb::partition::group_level0_cells(&h, &sysd, 1) as f64;
            let after_gap = (na - nb).abs();
            assert!(after_gap <= before_gap, "gap {before_gap} -> {after_gap}");
            assert_eq!((na + nb) as i64, 16 * 512);
            assert!(h.check_invariants().is_ok());
        },
    );
}
