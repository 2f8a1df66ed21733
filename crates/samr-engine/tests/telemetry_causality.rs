//! Decision-audit causality: the event stream must tell a coherent story.
//! Every redistribution the engine performs has to be preceded by the γ-gate
//! evaluation that admitted it (verdict `accept`), and every rollback fault
//! has to follow the aborted redistribution it undoes.
//!
//! The scenario reuses the `fault_recovery` recipe: an eager distributed
//! scheme on a quiet 2+2 WAN whose link drops large messages for the first
//! ~60% of the run, so the stream is guaranteed to contain accepted gates,
//! successful redistributions, and at least one mid-flight abort + rollback.

use samr_engine::{AppKind, Driver, RunConfig, Scheme};
use telemetry::{EventKind, FaultKind, GateVerdict, Telemetry};
use topology::faults::{FaultKind as LinkFaultKind, FaultSchedule};
use topology::link::Link;
use topology::{presets, DistributedSystem, SimTime, SystemBuilder};

const STEPS: usize = 10;

fn wan_pair(sched: FaultSchedule) -> DistributedSystem {
    let wan = Link::dedicated("wan", SimTime::from_millis(5), 2e7).with_faults(sched);
    SystemBuilder::new()
        .group("A", 2, 1.0, presets::origin2000_intra())
        .group("B", 2, 1.0, presets::origin2000_intra())
        .connect(0, 1, wan)
        .build()
}

fn cfg() -> RunConfig {
    let scheme = Scheme::Distributed(dlb::DistributedDlbConfig {
        gamma: 0.0,
        imbalance_tolerance: 1.02,
        probe_small_bytes: 256,
        probe_large_bytes: 4096,
        quarantine_after: 1,
        ..Default::default()
    });
    let mut c = RunConfig::new(AppKind::ShockPool3D, 16, STEPS, scheme);
    c.max_levels = 3;
    c
}

/// One faulted run with a recording sink: large transfers die for the first
/// ~60% of the fault-free runtime, cutting grid migrations mid-flight.
fn faulty_run() -> (samr_engine::RunResult, Vec<telemetry::EventRecord>) {
    let baseline = Driver::new(wan_pair(FaultSchedule::none()), cfg()).run();
    assert!(baseline.global_redistributions >= 1, "inert baseline");
    let window_end = SimTime::from_secs_f64(0.6 * baseline.total_secs);
    let sched = FaultSchedule::none().with_window(
        SimTime::ZERO,
        window_end,
        LinkFaultKind::DropLarge {
            threshold_bytes: 8 << 10,
        },
    );
    let (tel, sink) = Telemetry::recording_shared();
    let mut c = cfg();
    c.telemetry = tel;
    let res = Driver::new(wan_pair(sched), c).run();
    let events = sink.lock().unwrap().events();
    (res, events)
}

#[test]
fn audit_log_is_causally_consistent() {
    let (res, events) = faulty_run();
    assert!(res.global_checks > 0, "run evaluated no gates at all");
    assert!(res.faults.aborts >= 1, "scenario must abort a redistribution");

    // seq is a strict total order across both rings
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }

    // --- every redistribute admitted by the nearest preceding gate --------
    let mut last_gate_verdict: Option<GateVerdict> = None;
    let mut redists_seen = 0usize;
    for ev in &events {
        match &ev.kind {
            EventKind::GammaGate(g) => last_gate_verdict = Some(g.verdict),
            EventKind::Redistribute(_) => {
                redists_seen += 1;
                assert_eq!(
                    last_gate_verdict,
                    Some(GateVerdict::Accept),
                    "redistribute at seq {} not admitted by the nearest preceding gate",
                    ev.seq
                );
                // consume it: the next redistribute needs its own accept
                last_gate_verdict = None;
            }
            _ => {}
        }
    }
    assert_eq!(
        redists_seen, res.global_redistributions,
        "event stream missed redistributions"
    );
    assert!(redists_seen > 0);

    // --- every rollback follows the aborted redistribution it undoes ------
    let mut aborted_redists: Vec<u64> = Vec::new(); // seqs, in order
    let mut rollbacks = 0usize;
    for ev in &events {
        match &ev.kind {
            EventKind::Redistribute(r) if r.aborted => aborted_redists.push(ev.seq),
            EventKind::Fault(f) => {
                if let FaultKind::Rollback { wasted_secs } = f.kind {
                    rollbacks += 1;
                    assert!(wasted_secs >= 0.0);
                    let prev = aborted_redists.pop();
                    assert!(
                        prev.is_some_and(|s| s < ev.seq),
                        "rollback at seq {} has no preceding aborted redistribution",
                        ev.seq
                    );
                }
            }
            _ => {}
        }
    }
    assert!(
        aborted_redists.is_empty(),
        "aborted redistribution without a rollback record"
    );
    assert_eq!(rollbacks, res.faults.aborts as usize);
    assert!(rollbacks > 0);

    // --- counters agree with the engine's own tally ------------------------
    let gates = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GammaGate(_)))
        .count();
    assert_eq!(gates, res.global_checks);
}
