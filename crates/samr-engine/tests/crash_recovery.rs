//! Crash-stop recovery integration: kill a processor mid-run and check the
//! elastic-recovery path end to end — the crash is detected at the next
//! step boundary, the dead proc's patches are evacuated to survivors (data
//! reconstructed from the per-step recovery checkpoint, recompute charged),
//! the balancer prices the shrunken proc set, and a recovered proc rejoins
//! with zero load. Plus the determinism and checkpoint/pool guarantees the
//! chaos harness builds on.

use samr_engine::{AppKind, Driver, RunConfig, Scheme};
use telemetry::{EventKind, Telemetry};
use topology::faults::{FaultSchedule, ProcFaultSchedule};
use topology::link::Link;
use topology::{presets, DistributedSystem, SimTime, SystemBuilder};

const STEPS: usize = 10;
const N0: i64 = 16;

/// A quiet 2+2 WAN pair so the fault schedules are the only variable.
fn wan_pair(link_faults: FaultSchedule) -> DistributedSystem {
    let wan = Link::dedicated("wan", SimTime::from_millis(5), 2e7).with_faults(link_faults);
    SystemBuilder::new()
        .group("A", 2, 1.0, presets::origin2000_intra())
        .group("B", 2, 1.0, presets::origin2000_intra())
        .connect(0, 1, wan)
        .build()
}

/// An eager distributed scheme (γ = 0, tight tolerance) so the DLB phases
/// visibly react to the shrunken and re-grown proc set.
fn cfg() -> RunConfig {
    let scheme = Scheme::Distributed(dlb::DistributedDlbConfig {
        gamma: 0.0,
        imbalance_tolerance: 1.02,
        probe_small_bytes: 256,
        probe_large_bytes: 4096,
        ..Default::default()
    });
    let mut c = RunConfig::new(AppKind::ShockPool3D, N0, STEPS, scheme);
    c.max_levels = 3;
    c
}

/// Simulated length of the fault-free run, used to place crash windows.
fn baseline_secs() -> f64 {
    let base = Driver::new(wan_pair(FaultSchedule::none()), cfg()).run();
    assert_eq!(
        base.recovery,
        metrics::RecoveryStats::default(),
        "fault-free run must report no recovery activity"
    );
    base.total_secs
}

#[test]
fn proc_crash_evacuates_and_run_completes() {
    let b = baseline_secs();
    // proc 1 (group A, non-head) dies at ~30% of the run and never returns
    let sched = ProcFaultSchedule::none(4).with_crash(
        1,
        SimTime::from_secs_f64(0.3 * b),
        SimTime::from_secs_f64(1e6),
    );
    let (tel, sink) = Telemetry::recording_shared();
    let mut c = cfg();
    c.proc_faults = sched;
    c.telemetry = tel;
    let mut d = Driver::new(wan_pair(FaultSchedule::none()), c);
    for _ in 0..STEPS {
        d.step_once();
    }
    d.hierarchy()
        .check_invariants()
        .expect("AMR invariants after evacuation");
    // no patch lost or duplicated: level 0 still tiles the domain exactly
    let l0: i64 = d
        .hierarchy()
        .level_ids(0)
        .iter()
        .map(|&id| d.hierarchy().patch(id).cells())
        .sum();
    assert_eq!(l0, N0 * N0 * N0, "level 0 no longer tiles the domain");
    // the dead proc owns nothing
    assert!(
        d.hierarchy().iter().all(|p| p.owner != 1),
        "dead proc still owns patches"
    );

    let totals = d.trace().recovery_totals();
    let res = d.finish();
    assert_eq!(res.recovery.crashes, 1, "{:?}", res.recovery);
    assert_eq!(res.recovery.rejoins, 0);
    assert_eq!(res.recovery.evacuations, 1);
    assert!(res.recovery.evacuated_cells > 0, "{:?}", res.recovery);
    assert!(res.recovery.recompute_secs > 0.0, "{:?}", res.recovery);
    assert!(res.recovery.mttr_max_secs > 0.0, "{:?}", res.recovery);
    assert!(res.recovery.mttr_mean_secs <= res.recovery.mttr_max_secs);
    // run-level counters agree with the per-step trace
    assert_eq!(totals.crashes, res.recovery.crashes);
    assert_eq!(totals.evacuated_cells, res.recovery.evacuated_cells);
    assert!((totals.recompute_secs - res.recovery.recompute_secs).abs() < 1e-9);

    // audit log: the evacuation follows the crash that caused it
    let events = sink.lock().unwrap().events();
    let crash = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Crash(_)))
        .expect("crash event recorded");
    let evac = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Evacuate(_)))
        .expect("evacuate event recorded");
    assert!(crash.seq < evac.seq, "evacuation must follow its crash");
    if let EventKind::Crash(ce) = &crash.kind {
        assert_eq!(ce.proc, 1);
        assert_eq!(ce.group, 0);
    }
    if let EventKind::Evacuate(ee) = &evac.kind {
        assert_eq!(ee.proc, 1);
        assert_eq!(ee.cells, res.recovery.evacuated_cells);
        assert!(ee.patches > 0);
    }
}

#[test]
fn crashed_proc_rejoins_with_zero_load_and_is_refilled() {
    let b = baseline_secs();
    // proc 3 (group B, non-head) is down for ~[20%, 50%] of the baseline
    let sched = ProcFaultSchedule::none(4).with_crash(
        3,
        SimTime::from_secs_f64(0.2 * b),
        SimTime::from_secs_f64(0.5 * b),
    );
    let mut c = cfg();
    c.proc_faults = sched;
    let mut d = Driver::new(wan_pair(FaultSchedule::none()), c);
    for _ in 0..STEPS {
        d.step_once();
    }
    d.hierarchy()
        .check_invariants()
        .expect("AMR invariants after rejoin");
    // the eager local phase refills the returned proc from its group peers
    assert!(
        d.hierarchy().iter().any(|p| p.owner == 3),
        "rejoined proc was never refilled by the DLB"
    );
    let res = d.finish();
    assert_eq!(res.recovery.crashes, 1, "{:?}", res.recovery);
    assert_eq!(res.recovery.rejoins, 1, "{:?}", res.recovery);
    assert!(res.total_secs > 0.0);
}

/// Satellite: all fault-path randomness is seeded — two identical runs with
/// combined link + proc faults produce bit-identical traces.
#[test]
fn identical_faulty_runs_produce_identical_traces() {
    let horizon = SimTime::from_secs(3600);
    let link = FaultSchedule::generate(
        7,
        horizon,
        SimTime::from_secs(3),
        SimTime::from_secs(3),
    );
    let procs = ProcFaultSchedule::generate(
        7,
        4,
        &[0, 2], // protect the group heads
        horizon,
        SimTime::from_secs(4),
        SimTime::from_secs(2),
    );
    let go = || {
        let mut c = cfg();
        c.proc_faults = procs.clone();
        let mut d = Driver::new(wan_pair(link.clone()), c);
        for _ in 0..STEPS {
            d.step_once();
        }
        let csv = d.trace().to_csv();
        let res = d.finish();
        (csv, res.total_secs)
    };
    let (csv_a, total_a) = go();
    let (csv_b, total_b) = go();
    assert_eq!(csv_a, csv_b, "faulty runs must be deterministic per seed");
    assert_eq!(total_a, total_b);
}

/// Satellite: the recurring recovery checkpoint and the crash restores draw
/// their buffers from the field pool — recovery causes no steady-state
/// allocation regression. The steady window is the final step and the crash
/// is detected at its opening barrier, so the whole evacuate + restore +
/// re-snapshot sequence runs under the zero-alloc assertion.
#[test]
fn recovery_allocates_nothing_in_steady_state() {
    let b = baseline_secs();
    let mut c = cfg();
    // dies mid-penultimate-step, detected at the final step's barrier
    c.proc_faults = ProcFaultSchedule::none(4).with_crash(
        1,
        SimTime::from_secs_f64((STEPS as f64 - 1.5) / STEPS as f64 * b),
        SimTime::from_secs_f64(1e6),
    );
    c.pool_warmup_steps = STEPS - 1;
    let res = Driver::new(wan_pair(FaultSchedule::none()), c).run();
    assert_eq!(res.recovery.crashes, 1, "{:?}", res.recovery);
    assert!(res.recovery.evacuated_cells > 0);
    assert_eq!(
        res.pool.steady_misses, 0,
        "recovery must not allocate field buffers in steady state: {:?}",
        res.pool
    );
}

/// Satellite: checkpointing the post-evacuation hierarchy is exact — the
/// in-memory snapshot/restore round-trip preserves every owner and field
/// bit-identically.
#[test]
fn post_evacuation_checkpoint_restores_bit_identically() {
    let b = baseline_secs();
    let mut c = cfg();
    c.proc_faults = ProcFaultSchedule::none(4).with_crash(
        1,
        SimTime::from_secs_f64(0.3 * b),
        SimTime::from_secs_f64(1e6),
    );
    let mut d = Driver::new(wan_pair(FaultSchedule::none()), c);
    for _ in 0..STEPS {
        d.step_once();
    }
    assert!(d.trace().recovery_totals().crashes >= 1);
    let ck = d.checkpoint();
    let restored = samr_mesh::checkpoint::restore(&ck.hierarchy);
    assert!(restored.check_invariants().is_ok());
    assert_eq!(restored.num_patches(), d.hierarchy().num_patches());
    for p in d.hierarchy().iter() {
        let q = restored.patch(p.id);
        assert_eq!(q.owner, p.owner);
        assert_eq!(q.region, p.region);
        assert_eq!(q.fields, p.fields);
    }
}

/// Satellite (JSON half): `Checkpoint::to_json`/`from_json` round-trips the
/// post-evacuation hierarchy bit-identically.
#[test]
fn post_evacuation_checkpoint_roundtrips_through_json() {
    let b = baseline_secs();
    let mut c = cfg();
    c.proc_faults = ProcFaultSchedule::none(4).with_crash(
        1,
        SimTime::from_secs_f64(0.3 * b),
        SimTime::from_secs_f64(1e6),
    );
    let mut d = Driver::new(wan_pair(FaultSchedule::none()), c);
    for _ in 0..STEPS {
        d.step_once();
    }
    assert!(d.trace().recovery_totals().crashes >= 1);
    let ck = d.checkpoint();
    let back =
        samr_engine::Checkpoint::from_json(&ck.to_json().unwrap()).expect("checkpoint parses");
    assert_eq!(back.hierarchy.patches.len(), ck.hierarchy.patches.len());
    for (a, s) in back.hierarchy.patches.iter().zip(&ck.hierarchy.patches) {
        assert_eq!(a.id, s.id);
        assert_eq!(a.owner, s.owner);
        assert_eq!(a.fields, s.fields);
    }
}
