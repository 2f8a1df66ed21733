//! Fault-recovery integration: kill the inter-group link mid-run and check
//! the whole degradation protocol end to end — aborted redistributions roll
//! back, the unreachable group is quarantined (local DLB keeps going), a
//! probation probe re-admits it, and the run still finishes with a valid
//! hierarchy.

use samr_engine::{AppKind, Driver, RunConfig, Scheme};
use topology::faults::{FaultKind, FaultSchedule};
use topology::link::Link;
use topology::{presets, DistributedSystem, SimTime};
use topology::SystemBuilder;

const STEPS: usize = 10;

/// A quiet 2+2 WAN pair so the fault schedule is the only variable.
fn wan_pair(sched: FaultSchedule) -> DistributedSystem {
    let wan = Link::dedicated("wan", SimTime::from_millis(5), 2e7).with_faults(sched);
    SystemBuilder::new()
        .group("A", 2, 1.0, presets::origin2000_intra())
        .group("B", 2, 1.0, presets::origin2000_intra())
        .connect(0, 1, wan)
        .build()
}

/// An eager distributed scheme (γ = 0, tight tolerance) with a hair-trigger
/// quarantine so a single failure exercises the whole protocol.
fn cfg() -> RunConfig {
    let scheme = Scheme::Distributed(dlb::DistributedDlbConfig {
        gamma: 0.0,
        imbalance_tolerance: 1.02,
        // Probes small enough to squeeze under the DropLarge threshold
        // below, so the protocol can tell "bulk traffic dies" from "dead".
        probe_small_bytes: 256,
        probe_large_bytes: 4096,
        fault: dlb::FaultTolerancePolicy {
            quarantine_after: 1,
            probation_interval: 1,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut c = RunConfig::new(AppKind::ShockPool3D, 16, STEPS, scheme);
    c.max_levels = 3;
    c
}

/// Simulated length of the fault-free run, used to place fault windows so
/// they end while the (slower) faulted run is still going.
fn baseline_secs() -> f64 {
    let base = Driver::new(wan_pair(FaultSchedule::none()), cfg()).run();
    assert!(
        base.global_redistributions >= 1,
        "baseline must redistribute for the fault tests to mean anything: {}",
        base.summary()
    );
    assert_eq!(base.faults, metrics::FaultCounters::default());
    base.total_secs
}

#[test]
fn midflight_link_failure_rolls_back_quarantines_and_readmits() {
    // Large transfers die partway through for the first ~60% of the run:
    // probes and load reports (≤ 4 KiB) pass, grid migrations (tens of KiB
    // once ghost zones are counted) are cut mid-flight.
    let window_end = SimTime::from_secs_f64(0.6 * baseline_secs());
    let sched = FaultSchedule::none().with_window(
        SimTime::ZERO,
        window_end,
        FaultKind::DropLarge {
            threshold_bytes: 8 << 10,
        },
    );
    let mut d = Driver::new(wan_pair(sched), cfg());
    // An abort undoes the redistribution in place: the hierarchy keeps its
    // field pool through every rollback, so its allocation count only ever
    // grows.
    let pool = d.hierarchy().pool().clone();
    let mut last = pool.stats();
    for step in 0..STEPS {
        d.step_once();
        let now = d.hierarchy().pool().stats();
        assert_eq!(
            now,
            pool.stats(),
            "step {step} swapped the hierarchy's field pool"
        );
        assert!(
            now.misses >= last.misses,
            "allocation count went backwards at step {step}: {last:?} -> {now:?}"
        );
        last = now;
    }
    // Rollback must leave a structurally valid hierarchy behind.
    d.hierarchy()
        .check_invariants()
        .expect("AMR invariants after rollback");

    let totals = d.trace().fault_totals();
    let res = d.finish();
    assert!(totals.aborts >= 1, "expected >=1 rolled-back redistribution: {totals:?}");
    assert!(totals.quarantines >= 1, "expected >=1 quarantine: {totals:?}");
    assert!(totals.readmissions >= 1, "expected >=1 re-admission: {totals:?}");
    assert!(totals.recovery_secs > 0.0, "{totals:?}");

    // The per-step trace and the run-level counters agree.
    assert_eq!(res.faults.aborts, totals.aborts);
    assert_eq!(res.faults.quarantines, totals.quarantines);
    assert_eq!(res.faults.readmissions, totals.readmissions);
    assert!((res.faults.recovery_secs - totals.recovery_secs).abs() < 1e-9);

    // The decision log records which invocations were aborted.
    assert!(res.decisions.iter().any(|s| s.aborted));
    // After the window clears, at least one redistribution goes through.
    assert!(
        res.global_redistributions as u64 > totals.aborts
            || res.decisions.iter().any(|s| s.invoked && !s.aborted),
        "a post-recovery redistribution should succeed: {res:?}"
    );
    assert!(res.total_secs > 0.0);
}

#[test]
fn outage_quarantines_group_and_probation_readmits_it() {
    // The WAN is dead outright for the first half of the run: decision
    // collectives fail even after retries, group B is quarantined, and the
    // probation probe only passes once the outage lifts.
    let window_end = SimTime::from_secs_f64(0.5 * baseline_secs());
    let sched =
        FaultSchedule::none().with_window(SimTime::ZERO, window_end, FaultKind::Outage);
    let mut d = Driver::new(wan_pair(sched), cfg());
    for _ in 0..STEPS {
        d.step_once();
    }
    d.hierarchy()
        .check_invariants()
        .expect("AMR invariants after outage");

    let totals = d.trace().fault_totals();
    let res = d.finish();
    assert!(totals.comm_failures >= 1, "collectives must have failed: {totals:?}");
    assert!(totals.quarantines >= 1, "{totals:?}");
    assert!(totals.readmissions >= 1, "probation must re-admit B: {totals:?}");
    assert!(totals.recovery_secs > 0.0, "{totals:?}");
    assert_eq!(res.faults.comm_failures, totals.comm_failures);
    assert_eq!(res.steps, STEPS);
}
