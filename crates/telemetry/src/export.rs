//! Exporters: JSONL, Chrome trace-event JSON, and the text summary. Every
//! JSONL line and trace row is a `base::json` value written in the line
//! layout ([`Json::write_line`]): events through their `ToJson` impls in
//! [`crate::event`], the meta line through `EventCounts`', the aggregate
//! lines and trace rows built here. A trace's instant row carries under
//! `args.event` the value of the event's JSONL line. The tests below pin
//! both exports byte for byte.

use crate::event::EventKind;
use crate::hist::LogHistogram;
use crate::sink::RecordingSink;
use base::json::{object, Json, ToJson};
use std::fmt::Write as _;

/// Append the aggregate JSONL line `{"type": ty, …members}`.
fn push_line<'a>(out: &mut String, ty: &str, members: impl IntoIterator<Item = (&'a str, Json)>) {
    object([("type", ty.to_json())].into_iter().chain(members)).write_line(out);
    out.push('\n');
}

/// JSONL export: a `"meta"` line first (counters + drop accounting), then
/// `"stat_block"` lines, then one `"phase"` line per (span name, level)
/// histogram (host wall-clock aggregates — individual spans are folded,
/// not retained), then one `"metric"` line per series (retained points
/// inline), then one line per retained event, oldest first.
pub fn to_jsonl(sink: &RecordingSink) -> String {
    let mut out = String::new();
    let Json::Obj(counts) = sink.counts().to_json() else { unreachable!("counts are an object") };
    let (dropped_decisions, dropped_flows) = sink.dropped();
    let drops = [
        ("dropped_decisions", dropped_decisions.to_json()),
        ("dropped_flows", dropped_flows.to_json()),
        ("spans_dropped", sink.spans_dropped().to_json()),
    ];
    let counts = counts.iter().map(|(key, n)| (key.as_str(), n.clone()));
    push_line(&mut out, "meta", counts.chain(drops));
    for (name, entries) in sink.stat_blocks() {
        let counters = entries.iter().map(|&(key, n)| (key, n.to_json()));
        push_line(&mut out, "stat_block", [("name", name.to_json())].into_iter().chain(counters));
    }
    for ((name, level), h) in sink.phase_histograms() {
        let (p50, p95, p99, max) = h.quartet();
        push_line(
            &mut out,
            "phase",
            [
                ("name", name.to_json()),
                ("level", level.to_json()),
                ("count", h.count().to_json()),
                ("total_secs", h.sum().to_json()),
                ("p50_secs", p50.to_json()),
                ("p95_secs", p95.to_json()),
                ("p99_secs", p99.to_json()),
                ("max_secs", max.to_json()),
            ],
        );
    }
    for (name, m) in sink.metrics() {
        push_line(
            &mut out,
            "metric",
            [
                ("name", name.to_json()),
                ("samples", m.observed().to_json()),
                ("kept", m.points().len().to_json()),
                ("downsamples", m.downsamples().to_json()),
                ("stride", m.stride().to_json()),
                ("min", m.min().to_json()),
                ("max", m.max().to_json()),
                ("mean", m.mean().to_json()),
                ("last", m.last().1.to_json()),
                ("points", m.points().to_json()),
            ],
        );
    }
    for ev in sink.events() {
        ev.to_json().write_line(&mut out);
        out.push('\n');
    }
    out
}

/// Track (`tid`) assignment for instant events on the sim-time process.
fn sim_tid(kind: &EventKind) -> (u64, &'static str) {
    match kind {
        EventKind::GammaGate(_) => (1, "gamma gate"),
        EventKind::Redistribute(_) => (2, "redistribute"),
        EventKind::Fault(_) => (3, "faults"),
        EventKind::PredictorSwitch(_) => (4, "predictor"),
        EventKind::Probe(_) => (5, "probes"),
        EventKind::Transfer(_) => (6, "transfers"),
        EventKind::Crash(_) | EventKind::Evacuate(_) | EventKind::Rejoin(_) => (7, "recovery"),
        EventKind::TenantAdmit(_) | EventKind::TenantMigrate(_) | EventKind::TenantStep(_) => {
            (8, "tenants")
        }
        EventKind::Anomaly(_) => (9, "anomalies"),
    }
}

const HOST_PID: u64 = 0;
const SIM_PID: u64 = 1;

/// Chrome trace-event export. Two processes: pid 0 carries host wall-clock
/// spans (`ph: "X"`, one row per hierarchy level), pid 1 carries instant
/// decision events (`ph: "i"`) keyed to *simulated* microseconds plus one
/// counter track (`ph: "C"`) per metric series. Events are sorted so `ts`
/// is monotone within every `(pid, tid)` track.
pub fn to_chrome_trace(sink: &RecordingSink) -> String {
    let mut rows = Vec::new();
    let meta = |pid: u64, tid: Option<u64>, what: &str, name: &str| {
        let head = [("name", what.to_json()), ("ph", "M".to_json()), ("pid", pid.to_json())];
        let tail = [("args", object([("name", name.to_json())]))];
        let members = head.into_iter().chain(tid.map(|t| ("tid", t.to_json()))).chain(tail);
        // metadata sorts before real events on its track
        row(pid, tid.unwrap_or(0), -1.0, members.collect())
    };
    rows.push(meta(HOST_PID, None, "process_name", "host (wall-clock spans)"));
    rows.push(meta(SIM_PID, None, "process_name", "sim (virtual-time events)"));

    let mut span_tids_seen = std::collections::BTreeSet::new();
    for s in sink.spans() {
        // one row per level under the host process, level L on row L+1
        let tid = s.level as u64 + 1;
        if span_tids_seen.insert(tid) {
            let label = format!("level {}", s.level);
            rows.push(meta(HOST_PID, Some(tid), "thread_name", &label));
        }
        let ts = s.start_host_secs * 1e6;
        rows.push(row(
            HOST_PID,
            tid,
            ts,
            vec![
                ("name", s.name.to_json()),
                ("cat", "phase".to_json()),
                ("ph", "X".to_json()),
                ("ts", ts.to_json()),
                ("dur", (s.dur_secs * 1e6).to_json()),
                ("pid", HOST_PID.to_json()),
                ("tid", tid.to_json()),
            ],
        ));
    }

    let mut sim_tids_seen = std::collections::BTreeSet::new();
    for ev in sink.events() {
        let (tid, label) = sim_tid(&ev.kind);
        if sim_tids_seen.insert(tid) {
            rows.push(meta(SIM_PID, Some(tid), "thread_name", label));
        }
        let ts = ev.t_sim_secs * 1e6;
        rows.push(row(
            SIM_PID,
            tid,
            ts,
            vec![
                ("name", ev.kind.type_name().to_json()),
                ("cat", "decision".to_json()),
                ("ph", "i".to_json()),
                ("s", "t".to_json()),
                ("ts", ts.to_json()),
                ("pid", SIM_PID.to_json()),
                ("tid", tid.to_json()),
                ("args", object([("event", ev.to_json())])),
            ],
        ));
    }

    // metric series ride as counter tracks on the sim-time process; the
    // retained points are already time-ordered per series, and the sort
    // below merges series sharing the track
    for (name, m) in sink.metrics() {
        for &(t, v) in m.points() {
            let ts = t * 1e6;
            rows.push(row(
                SIM_PID,
                0,
                ts,
                vec![
                    ("name", name.to_json()),
                    ("cat", "metric".to_json()),
                    ("ph", "C".to_json()),
                    ("ts", ts.to_json()),
                    ("pid", SIM_PID.to_json()),
                    ("tid", 0u64.to_json()),
                    ("args", object([("value", v.to_json())])),
                ],
            ));
        }
    }

    // monotone ts per (pid, tid) track; stable so equal timestamps keep
    // their recording order
    rows.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
    // the document with an empty event list, its rows one per line
    // between the list's brackets
    let mut out = String::new();
    object([("displayTimeUnit", "ms".to_json()), ("traceEvents", Json::Arr(vec![]))])
        .write_line(&mut out);
    let close = out.split_off(out.len() - "]}".len());
    for (i, (_, _, _, line)) in rows.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(line);
    }
    out.push('\n');
    out.push_str(&close);
    out.push('\n');
    out
}

/// A trace row: its track `(pid, tid)`, the timestamp it sorts by on the
/// track, and its line.
fn row(pid: u64, tid: u64, ts: f64, members: Vec<(&str, Json)>) -> (u64, u64, f64, String) {
    let mut line = String::new();
    object(members).write_line(&mut line);
    (pid, tid, ts, line)
}

fn hist_line(name: &str, h: &LogHistogram) -> String {
    let (p50, p95, p99, max) = h.quartet();
    format!(
        "  {name:<24} n {:>7}  total {:>9.3}s  p50 {:>10.3e}s  p95 {:>10.3e}s  p99 {:>10.3e}s  max {:>10.3e}s\n",
        h.count(),
        h.sum(),
        p50,
        p95,
        p99,
        max
    )
}

/// The human-readable report: top-N slowest phases, gate verdict table per
/// level, per-link α/β drift, transfer distributions, drop accounting.
pub fn summary_text(sink: &RecordingSink) -> String {
    let mut out = String::from("telemetry summary\n");

    // phases ranked by total host time
    let mut phases: Vec<(&(&'static str, usize), &LogHistogram)> =
        sink.phase_histograms().iter().collect();
    phases.sort_by(|a, b| b.1.sum().total_cmp(&a.1.sum()));
    if !phases.is_empty() {
        out.push_str("phases by total host time (top 8):\n");
        for ((name, level), h) in phases.into_iter().take(8) {
            out.push_str(&hist_line(&format!("{name}[l{level}]"), h));
        }
    }

    let c = sink.counts();
    if c.gates > 0 {
        out.push_str("gamma gate verdicts per level:\n");
        for (level, t) in sink.gate_by_level() {
            let _ = writeln!(
                out,
                "  level {level}: accept {:>4}  reject {:>4}  deferred {:>4}",
                t.accept, t.reject, t.deferred
            );
        }
        let _ = writeln!(
            out,
            "redistributions: {} invoked ({} aborted), fault transitions: {}, predictor switches: {}",
            c.redistributes, c.aborted_redistributes, c.faults, c.predictor_switches
        );
    }

    if c.crashes + c.evacuations + c.rejoins > 0 {
        let _ = writeln!(
            out,
            "crash-stop recovery: {} crashes, {} evacuations, {} rejoins",
            c.crashes, c.evacuations, c.rejoins
        );
    }

    if c.tenant_admits + c.tenant_migrations + c.tenant_steps > 0 {
        let _ = writeln!(
            out,
            "tenants: {} admitted, {} migrations, {} shared-clock steps",
            c.tenant_admits, c.tenant_migrations, c.tenant_steps
        );
    }

    if c.anomalies > 0 {
        let tally = sink.anomaly_tally();
        let by_kind: Vec<String> = crate::event::AnomalyKind::ALL
            .iter()
            .filter(|k| tally[k.index()] > 0)
            .map(|k| format!("{} {}", k.as_str(), tally[k.index()]))
            .collect();
        let _ = writeln!(out, "anomalies: {} ({})", c.anomalies, by_kind.join(", "));
        for ev in sink.events() {
            if let EventKind::Anomaly(a) = &ev.kind {
                let _ = writeln!(out, "  t={:.3}s {}: {}", ev.t_sim_secs, a.kind.as_str(), a.detail);
            }
        }
    }

    if !sink.metrics().is_empty() {
        out.push_str("metric series (bounded, stride-downsampled):\n");
        for (name, m) in sink.metrics() {
            let _ = writeln!(
                out,
                "  {name:<24} n {:>7} kept {:>4} (stride {})  min {:.3e}  mean {:.3e}  max {:.3e}  last {:.3e}",
                m.observed(),
                m.points().len(),
                m.stride(),
                m.min(),
                m.mean(),
                m.max(),
                m.last().1
            );
        }
    }

    if !sink.drift().is_empty() {
        out.push_str("per-link probe drift (measured vs predicted):\n");
        for ((a, b), d) in sink.drift() {
            let (ae, be) = if d.scored > 0 {
                (
                    d.alpha_abs_err_sum / d.scored as f64,
                    d.beta_abs_err_sum / d.scored as f64,
                )
            } else {
                (0.0, 0.0)
            };
            let _ = writeln!(
                out,
                "  g{a}-g{b}: probes {:>4}  mean|alpha err| {:.3e}s  mean|beta err| {:.3e}s/B  last alpha {:.3e}s beta {:.3e}s/B",
                d.probes, ae, be, d.last_alpha, d.last_beta
            );
        }
    }

    if c.transfers > 0 {
        out.push_str("transfers (simulated):\n");
        out.push_str(&hist_line("queue wait", sink.transfer_queue_hist()));
        out.push_str(&hist_line("latency", sink.transfer_latency_hist()));
        let _ = writeln!(
            out,
            "  {} transfers ({} failed), {} probes",
            c.transfers, c.failed_transfers, c.probes
        );
    }

    if !sink.stat_blocks().is_empty() {
        out.push_str("counter blocks:\n");
        for (name, entries) in sink.stat_blocks() {
            let _ = write!(out, "  {name}:");
            for (k, v) in entries {
                let _ = write!(out, " {k} {v}");
            }
            out.push('\n');
        }
    }

    let (dd, df) = sink.dropped();
    if dd + df + sink.spans_dropped() > 0 {
        let _ = writeln!(
            out,
            "dropped: {dd} decision events, {df} flow events, {} spans (ring bounds)",
            sink.spans_dropped()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::*;
    use crate::json::{self, Json};
    use crate::sink::{SpanRecord, Telemetry};

    fn populated_sink() -> RecordingSink {
        let mut s = RecordingSink::default();
        s.record_event(
            0.25,
            EventKind::GammaGate(GammaGateEvent {
                step: 0,
                level: 0,
                proactive: false,
                gain_secs: 2.0,
                cost_alpha_beta_w_secs: 0.5,
                delta_secs: 0.25,
                cost_upper_secs: 0.75,
                alpha_secs: 0.02,
                beta_secs_per_byte: 8e-8,
                move_bytes: 1 << 20,
                gamma: 1.0,
                mae_widening_secs: 0.0,
                verdict: GateVerdict::Accept,
                reason: "gate",
            }),
        );
        s.record_event(
            0.26,
            EventKind::Redistribute(RedistributeEvent {
                step: 0,
                level: 0,
                moved_cells: 4096,
                moves: 7,
                aborted: false,
                delta_secs: 0.1,
            }),
        );
        s.record_event(
            0.30,
            EventKind::Fault(FaultEvent {
                step: 0,
                kind: FaultKind::Rollback { wasted_secs: 0.4 },
            }),
        );
        s.record_event(
            0.31,
            EventKind::PredictorSwitch(PredictorSwitchEvent {
                series: "beta:g0-g1".into(),
                from: "last".into(),
                to: "mean(4)".into(),
            }),
        );
        s.record_event(
            0.20,
            EventKind::Probe(ProbeEvent {
                group_a: 0,
                group_b: 1,
                alpha_secs: 0.011,
                beta_secs_per_byte: 9e-8,
                predicted_alpha_secs: Some(0.010),
                predicted_beta_secs_per_byte: Some(1e-7),
                elapsed_secs: 0.03,
            }),
        );
        s.record_event(
            0.40,
            EventKind::Transfer(TransferEvent {
                src: 1,
                dst: 5,
                bytes: 65536,
                queue_secs: 0.002,
                transfer_secs: 0.015,
                remote: true,
                failed: false,
            }),
        );
        s.record_span(SpanRecord {
            name: "solve",
            level: 1,
            start_host_secs: 0.001,
            dur_secs: 0.004,
        });
        s.record_span(SpanRecord {
            name: "ghost_exchange",
            level: 1,
            start_host_secs: 0.006,
            dur_secs: 0.002,
        });
        s
    }

    /// One event of every kind (and every fault kind), a stat block, two
    /// metric series and two fixed spans, with strings that need escaping
    /// and non-finite numbers: the golden export pins below read this sink.
    fn golden_sink() -> RecordingSink {
        let mut s = RecordingSink::default();
        s.record_event(
            0.5,
            EventKind::GammaGate(GammaGateEvent {
                step: 3,
                level: 1,
                proactive: true,
                gain_secs: 0.125,
                cost_alpha_beta_w_secs: 0.0625,
                delta_secs: 0.01,
                cost_upper_secs: 0.0725,
                alpha_secs: 0.02,
                beta_secs_per_byte: 8e-8,
                move_bytes: 1 << 20,
                gamma: 1.5,
                mae_widening_secs: 1e-3,
                verdict: GateVerdict::Deferred,
                reason: "probe_failed",
            }),
        );
        s.record_event(
            0.75,
            EventKind::Redistribute(RedistributeEvent {
                step: 3,
                level: 0,
                moved_cells: 0,
                moves: 2,
                aborted: true,
                delta_secs: -0.0,
            }),
        );
        let faults = [
            FaultKind::Retry { retries: 2 },
            FaultKind::ProbeFailure {
                group_a: 0,
                group_b: 3,
            },
            FaultKind::Quarantine { group: 3 },
            FaultKind::Readmit {
                group: 3,
                recovery_secs: 2.5,
            },
            FaultKind::Rollback { wasted_secs: 0.2 },
        ];
        for (i, kind) in faults.into_iter().enumerate() {
            s.record_event(1.0 + i as f64, EventKind::Fault(FaultEvent { step: 4, kind }));
        }
        s.record_event(
            6.0,
            EventKind::PredictorSwitch(PredictorSwitchEvent {
                series: "load:\"g2\"\\x\n".into(),
                from: "last".into(),
                to: "mean(4)\t".into(),
            }),
        );
        s.record_event(
            6.25,
            EventKind::Probe(ProbeEvent {
                group_a: 0,
                group_b: 1,
                alpha_secs: 0.011,
                beta_secs_per_byte: 9e-8,
                predicted_alpha_secs: None,
                predicted_beta_secs_per_byte: None,
                elapsed_secs: 0.03,
            }),
        );
        s.record_event(
            6.5,
            EventKind::Transfer(TransferEvent {
                src: 1,
                dst: 5,
                bytes: 65536,
                queue_secs: 0.0,
                transfer_secs: 0.015,
                remote: true,
                failed: false,
            }),
        );
        s.record_event(
            7.0,
            EventKind::Crash(CrashEvent {
                step: 5,
                proc: 2,
                group: 1,
            }),
        );
        s.record_event(
            7.0,
            EventKind::Evacuate(EvacuateEvent {
                step: 5,
                proc: 2,
                patches: 4,
                cells: 4096,
                bytes: 1 << 16,
                intra: 3,
                inter: 1,
                recompute_cells: 512,
            }),
        );
        s.record_event(
            9.0,
            EventKind::Rejoin(RejoinEvent {
                step: 8,
                proc: 2,
                group: 1,
                downtime_secs: f64::INFINITY,
            }),
        );
        s.record_event(
            0.0,
            EventKind::TenantAdmit(TenantAdmitEvent {
                tenant: 1,
                priority: 2.0,
                groups: vec![0, 4],
            }),
        );
        s.record_event(
            0.0,
            EventKind::TenantAdmit(TenantAdmitEvent {
                tenant: 2,
                priority: 0.5,
                groups: vec![],
            }),
        );
        s.record_event(
            9.5,
            EventKind::TenantMigrate(TenantMigrateEvent {
                tenant: 1,
                from_group: 0,
                to_group: 4,
                bytes: 123_456,
                cost_secs: 0.3,
                gain_secs: 1.7,
            }),
        );
        s.record_event(
            9.75,
            EventKind::TenantStep(TenantStepEvent {
                tenant: 1,
                step: 12,
                secs: f64::NAN,
            }),
        );
        s.record_event(
            10.0,
            EventKind::Anomaly(AnomalyEvent {
                kind: AnomalyKind::ProbeDrift,
                value: -1.5e-9,
                threshold: 1e22,
                streak: 6,
                detail: "g0-g1 \u{1}drift".into(),
            }),
        );
        s.record_stat_block("field_pool", &[("allocations", 42), ("quote\"d", 0)]);
        s.record_metric(0.5, "imbalance", 1.25);
        s.record_metric(1.0, "imbalance", 1.0 / 3.0);
        s.record_metric(0.75, "group_load:g\"0", 4096.0);
        s.record_span(SpanRecord {
            name: "solve",
            level: 1,
            start_host_secs: 0.001,
            dur_secs: 0.004,
        });
        s.record_span(SpanRecord {
            name: "ghost_exchange",
            level: 0,
            start_host_secs: 0.0005,
            dur_secs: 2.5e-5,
        });
        s
    }

    const GOLDEN_JSONL: &str = r#"{"type": "meta", "gates": 1, "gate_accepts": 0, "redistributes": 1, "aborted_redistributes": 1, "faults": 5, "predictor_switches": 1, "probes": 1, "transfers": 1, "failed_transfers": 0, "crashes": 1, "evacuations": 1, "rejoins": 1, "tenant_admits": 2, "tenant_migrations": 1, "tenant_steps": 1, "anomalies": 1, "dropped_decisions": 0, "dropped_flows": 0, "spans_dropped": 0}
{"type": "stat_block", "name": "field_pool", "allocations": 42, "quote\"d": 0}
{"type": "phase", "name": "ghost_exchange", "level": 0, "count": 1, "total_secs": 0.000025, "p50_secs": 0.000025, "p95_secs": 0.000025, "p99_secs": 0.000025, "max_secs": 0.000025}
{"type": "phase", "name": "solve", "level": 1, "count": 1, "total_secs": 0.004, "p50_secs": 0.004, "p95_secs": 0.004, "p99_secs": 0.004, "max_secs": 0.004}
{"type": "metric", "name": "gate_accept_rate", "samples": 1, "kept": 1, "downsamples": 0, "stride": 1, "min": 0, "max": 0, "mean": 0, "last": 0, "points": [[0.5, 0]]}
{"type": "metric", "name": "group_load:g\"0", "samples": 1, "kept": 1, "downsamples": 0, "stride": 1, "min": 4096, "max": 4096, "mean": 4096, "last": 4096, "points": [[0.75, 4096]]}
{"type": "metric", "name": "imbalance", "samples": 2, "kept": 2, "downsamples": 0, "stride": 1, "min": 0.3333333333333333, "max": 1.25, "mean": 0.7916666666666666, "last": 0.3333333333333333, "points": [[0.5, 1.25], [1, 0.3333333333333333]]}
{"seq": 0, "t_sim": 0.5, "type": "gamma_gate", "step": 3, "level": 1, "proactive": true, "gain_secs": 0.125, "cost_alpha_beta_w_secs": 0.0625, "delta_secs": 0.01, "cost_upper_secs": 0.0725, "alpha_secs": 0.02, "beta_secs_per_byte": 0.00000008, "move_bytes": 1048576, "gamma": 1.5, "mae_widening_secs": 0.001, "verdict": "deferred", "reason": "probe_failed"}
{"seq": 1, "t_sim": 0.75, "type": "redistribute", "step": 3, "level": 0, "moved_cells": 0, "moves": 2, "aborted": true, "delta_secs": -0}
{"seq": 2, "t_sim": 1, "type": "fault", "step": 4, "kind": "retry", "retries": 2}
{"seq": 3, "t_sim": 2, "type": "fault", "step": 4, "kind": "probe_failure", "group_a": 0, "group_b": 3}
{"seq": 4, "t_sim": 3, "type": "fault", "step": 4, "kind": "quarantine", "group": 3}
{"seq": 5, "t_sim": 4, "type": "fault", "step": 4, "kind": "readmit", "group": 3, "recovery_secs": 2.5}
{"seq": 6, "t_sim": 5, "type": "fault", "step": 4, "kind": "rollback", "wasted_secs": 0.2}
{"seq": 7, "t_sim": 6, "type": "predictor_switch", "series": "load:\"g2\"\\x\n", "from": "last", "to": "mean(4)\t"}
{"seq": 8, "t_sim": 6.25, "type": "probe", "group_a": 0, "group_b": 1, "alpha_secs": 0.011, "beta_secs_per_byte": 0.00000009, "predicted_alpha_secs": null, "predicted_beta_secs_per_byte": null, "elapsed_secs": 0.03}
{"seq": 9, "t_sim": 6.5, "type": "transfer", "src": 1, "dst": 5, "bytes": 65536, "queue_secs": 0, "transfer_secs": 0.015, "remote": true, "failed": false}
{"seq": 10, "t_sim": 7, "type": "crash", "step": 5, "proc": 2, "group": 1}
{"seq": 11, "t_sim": 7, "type": "evacuate", "step": 5, "proc": 2, "patches": 4, "cells": 4096, "bytes": 65536, "intra": 3, "inter": 1, "recompute_cells": 512}
{"seq": 12, "t_sim": 9, "type": "rejoin", "step": 8, "proc": 2, "group": 1, "downtime_secs": 0.0}
{"seq": 13, "t_sim": 0, "type": "tenant_admit", "tenant": 1, "priority": 2, "groups": [0, 4]}
{"seq": 14, "t_sim": 0, "type": "tenant_admit", "tenant": 2, "priority": 0.5, "groups": []}
{"seq": 15, "t_sim": 9.5, "type": "tenant_migrate", "tenant": 1, "from_group": 0, "to_group": 4, "bytes": 123456, "cost_secs": 0.3, "gain_secs": 1.7}
{"seq": 16, "t_sim": 9.75, "type": "tenant_step", "tenant": 1, "step": 12, "secs": 0.0}
{"seq": 17, "t_sim": 10, "type": "anomaly", "kind": "probe_drift", "value": -0.0000000015, "threshold": 10000000000000000000000, "streak": 6, "detail": "g0-g1 \u0001drift"}
"#;
    const GOLDEN_TRACE: &str = r#"{"displayTimeUnit": "ms", "traceEvents": [
{"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "host (wall-clock spans)"}},
{"name": "thread_name", "ph": "M", "pid": 0, "tid": 1, "args": {"name": "level 0"}},
{"name": "ghost_exchange", "cat": "phase", "ph": "X", "ts": 500, "dur": 25, "pid": 0, "tid": 1},
{"name": "thread_name", "ph": "M", "pid": 0, "tid": 2, "args": {"name": "level 1"}},
{"name": "solve", "cat": "phase", "ph": "X", "ts": 1000, "dur": 4000, "pid": 0, "tid": 2},
{"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "sim (virtual-time events)"}},
{"name": "gate_accept_rate", "cat": "metric", "ph": "C", "ts": 500000, "pid": 1, "tid": 0, "args": {"value": 0}},
{"name": "imbalance", "cat": "metric", "ph": "C", "ts": 500000, "pid": 1, "tid": 0, "args": {"value": 1.25}},
{"name": "group_load:g\"0", "cat": "metric", "ph": "C", "ts": 750000, "pid": 1, "tid": 0, "args": {"value": 4096}},
{"name": "imbalance", "cat": "metric", "ph": "C", "ts": 1000000, "pid": 1, "tid": 0, "args": {"value": 0.3333333333333333}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "gamma gate"}},
{"name": "gamma_gate", "cat": "decision", "ph": "i", "s": "t", "ts": 500000, "pid": 1, "tid": 1, "args": {"event": {"seq": 0, "t_sim": 0.5, "type": "gamma_gate", "step": 3, "level": 1, "proactive": true, "gain_secs": 0.125, "cost_alpha_beta_w_secs": 0.0625, "delta_secs": 0.01, "cost_upper_secs": 0.0725, "alpha_secs": 0.02, "beta_secs_per_byte": 0.00000008, "move_bytes": 1048576, "gamma": 1.5, "mae_widening_secs": 0.001, "verdict": "deferred", "reason": "probe_failed"}}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "redistribute"}},
{"name": "redistribute", "cat": "decision", "ph": "i", "s": "t", "ts": 750000, "pid": 1, "tid": 2, "args": {"event": {"seq": 1, "t_sim": 0.75, "type": "redistribute", "step": 3, "level": 0, "moved_cells": 0, "moves": 2, "aborted": true, "delta_secs": -0}}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 3, "args": {"name": "faults"}},
{"name": "fault", "cat": "decision", "ph": "i", "s": "t", "ts": 1000000, "pid": 1, "tid": 3, "args": {"event": {"seq": 2, "t_sim": 1, "type": "fault", "step": 4, "kind": "retry", "retries": 2}}},
{"name": "fault", "cat": "decision", "ph": "i", "s": "t", "ts": 2000000, "pid": 1, "tid": 3, "args": {"event": {"seq": 3, "t_sim": 2, "type": "fault", "step": 4, "kind": "probe_failure", "group_a": 0, "group_b": 3}}},
{"name": "fault", "cat": "decision", "ph": "i", "s": "t", "ts": 3000000, "pid": 1, "tid": 3, "args": {"event": {"seq": 4, "t_sim": 3, "type": "fault", "step": 4, "kind": "quarantine", "group": 3}}},
{"name": "fault", "cat": "decision", "ph": "i", "s": "t", "ts": 4000000, "pid": 1, "tid": 3, "args": {"event": {"seq": 5, "t_sim": 4, "type": "fault", "step": 4, "kind": "readmit", "group": 3, "recovery_secs": 2.5}}},
{"name": "fault", "cat": "decision", "ph": "i", "s": "t", "ts": 5000000, "pid": 1, "tid": 3, "args": {"event": {"seq": 6, "t_sim": 5, "type": "fault", "step": 4, "kind": "rollback", "wasted_secs": 0.2}}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 4, "args": {"name": "predictor"}},
{"name": "predictor_switch", "cat": "decision", "ph": "i", "s": "t", "ts": 6000000, "pid": 1, "tid": 4, "args": {"event": {"seq": 7, "t_sim": 6, "type": "predictor_switch", "series": "load:\"g2\"\\x\n", "from": "last", "to": "mean(4)\t"}}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 5, "args": {"name": "probes"}},
{"name": "probe", "cat": "decision", "ph": "i", "s": "t", "ts": 6250000, "pid": 1, "tid": 5, "args": {"event": {"seq": 8, "t_sim": 6.25, "type": "probe", "group_a": 0, "group_b": 1, "alpha_secs": 0.011, "beta_secs_per_byte": 0.00000009, "predicted_alpha_secs": null, "predicted_beta_secs_per_byte": null, "elapsed_secs": 0.03}}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 6, "args": {"name": "transfers"}},
{"name": "transfer", "cat": "decision", "ph": "i", "s": "t", "ts": 6500000, "pid": 1, "tid": 6, "args": {"event": {"seq": 9, "t_sim": 6.5, "type": "transfer", "src": 1, "dst": 5, "bytes": 65536, "queue_secs": 0, "transfer_secs": 0.015, "remote": true, "failed": false}}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 7, "args": {"name": "recovery"}},
{"name": "crash", "cat": "decision", "ph": "i", "s": "t", "ts": 7000000, "pid": 1, "tid": 7, "args": {"event": {"seq": 10, "t_sim": 7, "type": "crash", "step": 5, "proc": 2, "group": 1}}},
{"name": "evacuate", "cat": "decision", "ph": "i", "s": "t", "ts": 7000000, "pid": 1, "tid": 7, "args": {"event": {"seq": 11, "t_sim": 7, "type": "evacuate", "step": 5, "proc": 2, "patches": 4, "cells": 4096, "bytes": 65536, "intra": 3, "inter": 1, "recompute_cells": 512}}},
{"name": "rejoin", "cat": "decision", "ph": "i", "s": "t", "ts": 9000000, "pid": 1, "tid": 7, "args": {"event": {"seq": 12, "t_sim": 9, "type": "rejoin", "step": 8, "proc": 2, "group": 1, "downtime_secs": 0.0}}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 8, "args": {"name": "tenants"}},
{"name": "tenant_admit", "cat": "decision", "ph": "i", "s": "t", "ts": 0, "pid": 1, "tid": 8, "args": {"event": {"seq": 13, "t_sim": 0, "type": "tenant_admit", "tenant": 1, "priority": 2, "groups": [0, 4]}}},
{"name": "tenant_admit", "cat": "decision", "ph": "i", "s": "t", "ts": 0, "pid": 1, "tid": 8, "args": {"event": {"seq": 14, "t_sim": 0, "type": "tenant_admit", "tenant": 2, "priority": 0.5, "groups": []}}},
{"name": "tenant_migrate", "cat": "decision", "ph": "i", "s": "t", "ts": 9500000, "pid": 1, "tid": 8, "args": {"event": {"seq": 15, "t_sim": 9.5, "type": "tenant_migrate", "tenant": 1, "from_group": 0, "to_group": 4, "bytes": 123456, "cost_secs": 0.3, "gain_secs": 1.7}}},
{"name": "tenant_step", "cat": "decision", "ph": "i", "s": "t", "ts": 9750000, "pid": 1, "tid": 8, "args": {"event": {"seq": 16, "t_sim": 9.75, "type": "tenant_step", "tenant": 1, "step": 12, "secs": 0.0}}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 9, "args": {"name": "anomalies"}},
{"name": "anomaly", "cat": "decision", "ph": "i", "s": "t", "ts": 10000000, "pid": 1, "tid": 9, "args": {"event": {"seq": 17, "t_sim": 10, "type": "anomaly", "kind": "probe_drift", "value": -0.0000000015, "threshold": 10000000000000000000000, "streak": 6, "detail": "g0-g1 \u0001drift"}}}
]}
"#;

    #[test]
    fn golden_exports_are_pinned_byte_for_byte() {
        let s = golden_sink();
        let (jsonl, trace) = (s.to_jsonl(), s.to_chrome_trace());
        if std::env::var_os("PRINT_GOLDEN").is_some() {
            println!("@@JSONL\n{jsonl}@@TRACE\n{trace}@@END");
        }
        assert_eq!(jsonl, GOLDEN_JSONL);
        assert_eq!(trace, GOLDEN_TRACE);
    }

    #[test]
    fn every_jsonl_line_parses() {
        let s = populated_sink();
        let jsonl = s.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // meta + 2 phase aggregates + 1 derived metric (gate_accept_rate)
        // + 6 events
        assert_eq!(lines.len(), 10);
        let meta = json::parse(lines[0]).unwrap();
        assert_eq!(meta.get("type").and_then(Json::as_str), Some("meta"));
        assert_eq!(meta.get("gates").and_then(Json::as_f64), Some(1.0));
        assert_eq!(meta.get("anomalies").and_then(Json::as_f64), Some(0.0));
        for line in &lines[1..] {
            let v = json::parse(line).unwrap();
            let ty = v.get("type").and_then(Json::as_str).unwrap();
            if ty == "metric" || ty == "stat_block" || ty == "phase" {
                continue; // aggregate lines carry no event envelope
            }
            assert!(v.get("seq").and_then(Json::as_f64).is_some());
            assert!(v.get("t_sim").and_then(Json::as_f64).is_some());
        }
        // the probe line keeps predicted values as numbers, not strings
        let probe = lines[1..]
            .iter()
            .map(|l| json::parse(l).unwrap())
            .find(|v| v.get("type").and_then(Json::as_str) == Some("probe"))
            .unwrap();
        assert_eq!(
            probe.get("predicted_alpha_secs").and_then(Json::as_f64),
            Some(0.010)
        );
        // phase aggregates carry the folded span histograms
        let phase = lines[1..]
            .iter()
            .map(|l| json::parse(l).unwrap())
            .find(|v| {
                v.get("type").and_then(Json::as_str) == Some("phase")
                    && v.get("name").and_then(Json::as_str) == Some("solve")
            })
            .expect("phase line for the solve span");
        assert_eq!(phase.get("level").and_then(Json::as_f64), Some(1.0));
        assert_eq!(phase.get("count").and_then(Json::as_f64), Some(1.0));
        assert_eq!(phase.get("total_secs").and_then(Json::as_f64), Some(0.004));
    }

    #[test]
    fn stat_block_jsonl_lines_parse_and_follow_meta() {
        let mut s = populated_sink();
        s.record_stat_block("field_pool", &[("hits", 42), ("steady_misses", 0)]);
        let jsonl = s.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // meta + stat block + 2 phase aggregates + 1 derived metric + 6 events
        assert_eq!(lines.len(), 11);
        let block = json::parse(lines[1]).unwrap();
        assert_eq!(block.get("type").and_then(Json::as_str), Some("stat_block"));
        assert_eq!(block.get("name").and_then(Json::as_str), Some("field_pool"));
        assert_eq!(block.get("hits").and_then(Json::as_f64), Some(42.0));
        assert_eq!(block.get("steady_misses").and_then(Json::as_f64), Some(0.0));
        let text = s.summary();
        assert!(text.contains("counter blocks"), "{text}");
        assert!(text.contains("field_pool"), "{text}");
    }

    #[test]
    fn chrome_trace_is_well_formed_and_monotone_per_track() {
        let s = populated_sink();
        let doc = json::parse(&s.to_chrome_trace()).expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
        let mut saw_span = false;
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
            let pid = ev.get("pid").and_then(Json::as_f64).expect("pid") as u64;
            match ph {
                "M" => continue,
                "X" => {
                    saw_span = true;
                    assert!(ev.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
                }
                "i" => {
                    assert!(ev.get("args").is_some());
                }
                "C" => {
                    let args = ev.get("args").expect("counter args");
                    assert!(args.get("value").and_then(Json::as_f64).is_some());
                }
                other => panic!("unexpected ph {other}"),
            }
            let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as u64;
            let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
            if let Some(prev) = last_ts.insert((pid, tid), ts) {
                assert!(ts >= prev, "ts not monotone on track ({pid},{tid})");
            }
        }
        assert!(saw_span);
    }

    #[test]
    fn summary_mentions_the_load_bearing_sections() {
        let s = populated_sink();
        let text = s.summary();
        assert!(text.contains("phases by total host time"));
        assert!(text.contains("gamma gate verdicts per level"));
        assert!(text.contains("per-link probe drift"));
        assert!(text.contains("queue wait"));
        assert!(text.contains("g0-g1"));
    }

    #[test]
    fn recovery_events_export_count_and_summarize() {
        let mut s = RecordingSink::default();
        s.record_event(
            0.1,
            EventKind::Crash(CrashEvent {
                step: 3,
                proc: 2,
                group: 1,
            }),
        );
        s.record_event(
            0.2,
            EventKind::Evacuate(EvacuateEvent {
                step: 3,
                proc: 2,
                patches: 4,
                cells: 4096,
                bytes: 1 << 16,
                intra: 3,
                inter: 1,
                recompute_cells: 4096,
            }),
        );
        s.record_event(
            0.9,
            EventKind::Rejoin(RejoinEvent {
                step: 9,
                proc: 2,
                group: 1,
                downtime_secs: 0.8,
            }),
        );
        let c = s.counts();
        assert_eq!((c.crashes, c.evacuations, c.rejoins), (1, 1, 1));
        // all three are decision events: the flow ring must stay empty
        assert!(s.events().iter().all(|e| e.kind.is_decision()));

        let jsonl = s.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4); // meta + 3 events
        let meta = json::parse(lines[0]).unwrap();
        assert_eq!(meta.get("crashes").and_then(Json::as_f64), Some(1.0));
        assert_eq!(meta.get("rejoins").and_then(Json::as_f64), Some(1.0));
        let evac = lines[1..]
            .iter()
            .map(|l| json::parse(l).unwrap())
            .find(|v| v.get("type").and_then(Json::as_str) == Some("evacuate"))
            .unwrap();
        assert_eq!(evac.get("cells").and_then(Json::as_f64), Some(4096.0));
        assert_eq!(evac.get("intra").and_then(Json::as_f64), Some(3.0));

        assert!(json::parse(&s.to_chrome_trace()).is_ok());
        let text = s.summary();
        assert!(text.contains("crash-stop recovery"), "{text}");
    }

    #[test]
    fn metric_lines_round_trip_points_and_counters_reach_the_trace() {
        let mut s = RecordingSink::default();
        for i in 0..5 {
            s.record_metric(i as f64 * 0.5, "imbalance", 1.0 + i as f64 * 0.01);
        }
        let jsonl = s.to_jsonl();
        let metric = jsonl
            .lines()
            .map(|l| json::parse(l).unwrap())
            .find(|v| v.get("type").and_then(Json::as_str) == Some("metric"))
            .expect("metric line");
        assert_eq!(metric.get("name").and_then(Json::as_str), Some("imbalance"));
        assert_eq!(metric.get("samples").and_then(Json::as_f64), Some(5.0));
        assert_eq!(metric.get("kept").and_then(Json::as_f64), Some(5.0));
        let points = metric.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), 5);
        let p3 = points[3].as_arr().unwrap();
        assert_eq!(p3[0].as_f64(), Some(1.5));
        assert_eq!(p3[1].as_f64(), Some(1.03));
        // the same series shows up as ph "C" counter rows in the trace
        let trace = json::parse(&s.to_chrome_trace()).unwrap();
        let counters: Vec<&Json> = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 5);
        assert_eq!(counters[0].get("name").and_then(Json::as_str), Some("imbalance"));
        let text = s.summary();
        assert!(text.contains("metric series"), "{text}");
        assert!(text.contains("imbalance"), "{text}");
    }

    #[test]
    fn anomaly_events_export_on_their_own_lane_and_summarize() {
        use crate::metrics::{IMBALANCE_STUCK_STREAK, IMBALANCE_STUCK_THRESHOLD};
        let mut s = RecordingSink::default();
        for i in 0..IMBALANCE_STUCK_STREAK {
            s.record_metric(i as f64, "imbalance", IMBALANCE_STUCK_THRESHOLD * 2.0);
        }
        assert_eq!(s.counts().anomalies, 1);
        let jsonl = s.to_jsonl();
        let meta = json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(meta.get("anomalies").and_then(Json::as_f64), Some(1.0));
        let anom = jsonl
            .lines()
            .map(|l| json::parse(l).unwrap())
            .find(|v| v.get("type").and_then(Json::as_str) == Some("anomaly"))
            .expect("anomaly line");
        assert_eq!(
            anom.get("kind").and_then(Json::as_str),
            Some("imbalance_stuck")
        );
        assert!(anom.get("detail").and_then(Json::as_str).is_some());
        assert_eq!(
            anom.get("streak").and_then(Json::as_f64),
            Some(IMBALANCE_STUCK_STREAK as f64)
        );
        // the trace puts anomalies on sim lane 9
        let trace = json::parse(&s.to_chrome_trace()).unwrap();
        let lane9 = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .any(|e| {
                e.get("ph").and_then(Json::as_str) == Some("i")
                    && e.get("tid").and_then(Json::as_f64) == Some(9.0)
            });
        assert!(lane9, "anomaly instant missing from lane 9");
        let text = s.summary();
        assert!(text.contains("anomalies: 1"), "{text}");
        assert!(text.contains("imbalance_stuck"), "{text}");
    }

    #[test]
    fn exports_go_through_the_handle_too() {
        let (tel, _sink) = Telemetry::recording_shared();
        tel.event(
            0.1,
            EventKind::Fault(FaultEvent {
                step: 1,
                kind: FaultKind::Retry { retries: 2 },
            }),
        );
        assert!(json::parse(&tel.to_chrome_trace().unwrap()).is_ok());
        let jsonl = tel.to_jsonl().unwrap();
        assert!(jsonl.lines().count() == 2);
        assert!(tel.summary().is_some());
    }
}
