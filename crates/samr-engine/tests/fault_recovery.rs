//! Fault-recovery integration: kill the inter-group link mid-run and check
//! the whole degradation protocol end to end — aborted redistributions roll
//! back, the unreachable group is quarantined (local DLB keeps going), a
//! probation probe re-admits it, and the run still finishes with a valid
//! hierarchy.

use base::json::ToJson;
use samr_engine::{AppKind, Driver, RunConfig, Scheme};
use telemetry::{EventKind, FaultKind as TelFaultKind, Telemetry};
use topology::faults::{FaultKind, FaultSchedule, ProcFaultSchedule};
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
        quarantine_after: 1,
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

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// The outage run above with the adaptive predictor on every series, so
/// both the fault and the forecast counters are non-zero: the run report's
/// two records and the step trace's CSV are pinned byte for byte.
#[test]
fn outage_run_records_and_trace_are_pinned() {
    let window_end = SimTime::from_secs_f64(0.5 * baseline_secs());
    let sched = FaultSchedule::none().with_window(SimTime::ZERO, window_end, FaultKind::Outage);
    let mut c = cfg();
    if let Scheme::Distributed(dc) = &mut c.scheme {
        dc.predictor = Some(dlb::PredictorKind::Adaptive);
    }
    let mut d = Driver::new(wan_pair(sched), c);
    for _ in 0..STEPS {
        d.step_once();
    }
    let csv = fnv1a(d.trace().to_csv().as_bytes());
    let res = d.finish();
    let faults = res.faults.to_json().to_compact();
    let forecast = res.forecast.to_json().to_compact();
    assert!(res.faults.retries > 0 && res.faults.quarantines > 0, "{faults}");
    assert!(res.forecast.scored_probes > 0, "{forecast}");
    assert_eq!(faults, FAULTS_PIN);
    assert_eq!(forecast, FORECAST_PIN);
    assert_eq!(csv, TRACE_CSV_PIN);
}

const FAULTS_PIN: &str = r#"{"probe_failures":0,"retries":1,"aborts":0,"quarantines":1,"readmissions":1,"comm_failures":11,"recovery_secs":15.219987856}"#;
const FORECAST_PIN: &str = r#"{"alpha_mae":0.00000000000000000014456028966473392,"beta_mae":0.0000000000000000000000011029074834040368,"load_mae":1072.768115942029,"scored_probes":6,"proactive_checks":0,"proactive_invocations":0}"#;
const TRACE_CSV_PIN: u64 = 0x9ab5_3b5d_3a24_0acf;

/// FNV-1a of a run's telemetry JSONL without its `"phase"` lines, which
/// carry host seconds; every other line is simulated state.
fn jsonl_hash(jsonl: &str) -> u64 {
    let kept: String = jsonl
        .lines()
        .filter(|l| !l.starts_with(r#"{"type": "phase""#))
        .flat_map(|l| [l, "\n"])
        .collect();
    fnv1a(kept.as_bytes())
}

/// One recording run through every fault path at once: seeded link flaps
/// (outages, blackholes, slowdowns, lossy windows) over the WAN and seeded
/// crash-stop windows on the two non-head procs. The 4 MiB probe times out
/// on a slowed link, so probes fail too. Its telemetry, fault counters and
/// recovery counters are pinned byte for byte.
#[test]
fn every_fault_path_run_telemetry_is_pinned() {
    let seed = 11;
    let horizon = SimTime::from_secs(3600);
    let link = FaultSchedule::generate(
        seed,
        horizon,
        SimTime::from_secs(1),
        SimTime::from_millis(600),
    );
    let procs = ProcFaultSchedule::generate(
        seed,
        4,
        &[0, 2], // group heads never crash
        horizon,
        SimTime::from_secs(4),
        SimTime::from_secs(2),
    );
    let (tel, sink) = Telemetry::recording_shared();
    let mut c = cfg();
    if let Scheme::Distributed(dc) = &mut c.scheme {
        dc.probe_small_bytes = 1 << 10;
        dc.probe_large_bytes = 4 << 20;
        dc.predictor = Some(dlb::PredictorKind::Adaptive);
    }
    c.proc_faults = procs;
    c.telemetry = tel;
    let mut d = Driver::new(wan_pair(link), c);
    for _ in 0..STEPS {
        d.step_once();
    }
    let res = d.finish();
    let sink = sink.lock().unwrap();
    let is_retry = |k: &EventKind| matches!(k, EventKind::Fault(f) if matches!(f.kind, TelFaultKind::Retry { .. }));
    let dlb_retries = sink.events().iter().filter(|e| is_retry(&e.kind)).count();
    let (f, r) = (&res.faults, &res.recovery);
    let faults = f.to_json().to_compact();
    let recovery = r.to_json().to_compact();
    assert!(dlb_retries > 0, "no balancer retry succeeded");
    assert!(
        f.probe_failures > 0 && f.quarantines > 0 && f.readmissions > 0,
        "{faults}"
    );
    assert!(f.aborts > 0, "no rollback: {faults}");
    assert!(
        r.crashes > 0 && r.evacuations > 0 && r.rejoins > 0,
        "{recovery}"
    );
    assert_eq!(faults, CHAOS_FAULTS_PIN);
    assert_eq!(recovery, CHAOS_RECOVERY_PIN);
    assert_eq!(jsonl_hash(&sink.to_jsonl()), CHAOS_JSONL_PIN);
}

const CHAOS_FAULTS_PIN: &str = r#"{"probe_failures":1,"retries":21,"aborts":3,"quarantines":4,"readmissions":4,"comm_failures":77,"recovery_secs":33.305425276}"#;
const CHAOS_RECOVERY_PIN: &str = r#"{"crashes":4,"rejoins":4,"evacuations":4,"evacuated_cells":71088,"mttr_mean_secs":2.2664803132499998,"mttr_max_secs":3.107740739,"recompute_secs":7.47312}"#;
const CHAOS_JSONL_PIN: u64 = 0xe9f0_a54e_4204_6481;
