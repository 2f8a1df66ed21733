//! Property-style tests of the fault-tolerance protocol: randomized fault
//! schedules never lose workload, and faults that the retry/quarantine
//! machinery absorbs leave the final grid placement exactly as a fault-free
//! run would — deterministically under a fixed seed.

use dlb::{DistributedDlb, DistributedDlbConfig, LbContext, LoadBalancer, WorkloadHistory};
use samr_mesh::hierarchy::GridHierarchy;
use samr_mesh::{ivec3, region};
use simnet::{Activity, SimView};
use topology::faults::{FaultKind, FaultSchedule};
use topology::link::Link;
use topology::{DistributedSystem, ProcId, SimTime, SystemBuilder};

const NPROCS: usize = 4;
const TOTAL_CELLS: i64 = 8 * 512;

fn wan_sys(sched: FaultSchedule) -> DistributedSystem {
    let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
    let wan = Link::dedicated("wan", SimTime::from_millis(5), 2e7).with_faults(sched);
    SystemBuilder::new()
        .group("A", 2, 1.0, intra.clone())
        .group("B", 2, 1.0, intra)
        .connect(0, 1, wan)
        .build()
}

/// 8 level-0 grids of 512 cells; 6 on proc 0 (group A), 2 on proc 2 (B).
fn imbalanced_hier() -> GridHierarchy {
    let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(64, 8, 8)), 2, 4, 1, 1);
    for i in 0..8 {
        let owner = if i < 6 { 0 } else { 2 };
        h.insert_patch(
            0,
            region(ivec3(8 * i, 0, 0), ivec3(8 * (i + 1), 8, 8)),
            None,
            owner,
        );
    }
    h
}

/// Run `steps` level-0 steps of the distributed scheme over a WAN carrying
/// the given fault schedule, checking conservation invariants after every
/// step. Each step is followed by 30 s of compute so the simulated clock
/// actually traverses the schedule's windows.
fn run(sched: FaultSchedule, steps: usize) -> (GridHierarchy, DistributedDlb) {
    let mut sim = SimView::new(wan_sys(sched));
    let mut hier = imbalanced_hier();
    let mut history = WorkloadHistory::new(NPROCS);
    let cfg = DistributedDlbConfig {
        quarantine_after: 1,
        ..Default::default()
    };
    let mut dlb = DistributedDlb::new(cfg);
    for _ in 0..steps {
        history.record_snapshot(vec![hier.level_load_by_owner(0, NPROCS)], vec![1]);
        history.record_step_time(60.0);
        dlb.after_level_step(
            LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            0,
        )
        .expect("fault-tolerant scheme must absorb link failures");
        assert_eq!(
            hier.level_cells(0),
            TOTAL_CELLS,
            "workload lost or duplicated"
        );
        hier.check_invariants().expect("hierarchy invariants");
        for p in 0..NPROCS {
            sim.busy(ProcId(p), 30.0, Activity::Compute);
        }
    }
    (hier, dlb)
}

/// Sorted (region, owner) signature of the level-0 placement — stable
/// against patch-id renumbering.
fn placement(h: &GridHierarchy) -> Vec<(String, usize)> {
    let mut v: Vec<(String, usize)> = h
        .iter()
        .filter(|p| p.level == 0)
        .map(|p| (format!("{:?}", p.region), p.owner))
        .collect();
    v.sort();
    v
}

#[test]
fn random_fault_schedules_never_lose_workload() {
    for seed in 0..24u64 {
        let sched = FaultSchedule::generate(
            seed,
            SimTime::from_secs(600),
            SimTime::from_secs(90),
            SimTime::from_secs(45),
        );
        let (hier, dlb) = run(sched, 12);
        // conservation is asserted inside `run` after every step; here,
        // check the protocol's own ledger stayed coherent
        let s = dlb.fault_stats();
        assert!(
            s.readmissions <= s.quarantines,
            "seed {seed}: re-admitted groups that were never quarantined: {s:?}"
        );
        assert!(
            dlb.roster.quarantined_groups().len() + dlb.roster.healthy_groups().len() == 2,
            "seed {seed}: roster lost a group"
        );
        assert_eq!(hier.level_cells(0), TOTAL_CELLS);
    }
}

#[test]
fn quarantine_and_readmission_roundtrip_preserves_workload() {
    // Deterministic long outage: B gets quarantined, sits out several
    // steps, then is re-admitted — with every cell accounted for along the
    // way and the imbalance finally fixed after recovery.
    let sched = FaultSchedule::none().with_window(
        SimTime::ZERO,
        SimTime::from_secs(200),
        FaultKind::Outage,
    );
    let (hier, dlb) = run(sched, 12);
    let s = dlb.fault_stats();
    assert!(s.quarantines >= 1, "{s:?}");
    assert!(s.readmissions >= 1, "{s:?}");
    assert!(dlb.roster.is_healthy(1), "B must be back in service");
    assert_eq!(hier.level_cells(0), TOTAL_CELLS);
    // post-recovery redistribution evens the groups out again
    let sys = wan_sys(FaultSchedule::none());
    assert_eq!(dlb::partition::group_level0_cells(&hier, &sys, 0), 2048);
}

#[test]
fn survivable_fault_run_matches_fault_free_placement() {
    // An outage short enough that the first backoff clears it: the faulted
    // run must converge to the same placement as a fault-free run (the
    // retries cost simulated time, not correctness).
    let transient = FaultSchedule::none().with_window(
        SimTime::ZERO,
        SimTime::from_millis(40),
        FaultKind::Outage,
    );
    let (h_fault, dlb_fault) = run(transient, 4);
    let (h_clean, dlb_clean) = run(FaultSchedule::none(), 4);
    assert!(
        dlb_fault.fault_stats().retries >= 1,
        "the fault must actually have been hit: {:?}",
        dlb_fault.fault_stats()
    );
    assert_eq!(dlb_fault.fault_stats().aborts, 0);
    assert_eq!(dlb_fault.fault_stats().quarantines, 0);
    assert_eq!(placement(&h_fault), placement(&h_clean));
    assert_eq!(dlb_fault.invocations(), dlb_clean.invocations());
}

#[test]
fn faulted_runs_are_deterministic_under_a_fixed_seed() {
    for seed in [3u64, 7, 11] {
        let sched = || {
            FaultSchedule::generate(
                seed,
                SimTime::from_secs(600),
                SimTime::from_secs(90),
                SimTime::from_secs(45),
            )
        };
        let (h1, dlb1) = run(sched(), 10);
        let (h2, dlb2) = run(sched(), 10);
        assert_eq!(placement(&h1), placement(&h2), "seed {seed}");
        assert_eq!(dlb1.fault_stats(), dlb2.fault_stats(), "seed {seed}");
        assert_eq!(dlb1.fault_events(), dlb2.fault_events(), "seed {seed}");
        assert_eq!(dlb1.decisions.len(), dlb2.decisions.len(), "seed {seed}");
    }
}
