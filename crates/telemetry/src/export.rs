//! Exporters: JSONL, Chrome trace-event JSON, and the text summary. All
//! JSON is streamed into the output buffer with `base::json`'s number and
//! escape formatting — no value tree per event; well-formedness is enforced
//! by parsing the result back with [`crate::json`] in tests and in the
//! verify gate.

use crate::event::{EventKind, EventRecord};
use crate::hist::LogHistogram;
use crate::sink::RecordingSink;
use base::json::{escape, num};
use std::fmt::Write as _;

fn opt_num(x: Option<f64>) -> String {
    match x {
        Some(v) => num(v),
        None => "null".to_string(),
    }
}

/// One event as a single-line JSON object (the JSONL row format).
pub fn event_json(rec: &EventRecord) -> String {
    let head = format!(
        "{{\"seq\": {}, \"t_sim\": {}, \"type\": \"{}\"",
        rec.seq,
        num(rec.t_sim_secs),
        rec.kind.type_name()
    );
    let body = match &rec.kind {
        EventKind::GammaGate(g) => format!(
            ", \"step\": {}, \"level\": {}, \"proactive\": {}, \"gain_secs\": {}, \
             \"cost_alpha_beta_w_secs\": {}, \"delta_secs\": {}, \"cost_upper_secs\": {}, \
             \"alpha_secs\": {}, \"beta_secs_per_byte\": {}, \"move_bytes\": {}, \
             \"gamma\": {}, \"mae_widening_secs\": {}, \"verdict\": \"{}\", \"reason\": \"{}\"",
            g.step,
            g.level,
            g.proactive,
            num(g.gain_secs),
            num(g.cost_alpha_beta_w_secs),
            num(g.delta_secs),
            num(g.cost_upper_secs),
            num(g.alpha_secs),
            num(g.beta_secs_per_byte),
            g.move_bytes,
            num(g.gamma),
            num(g.mae_widening_secs),
            g.verdict.as_str(),
            escape(g.reason),
        ),
        EventKind::Redistribute(r) => format!(
            ", \"step\": {}, \"level\": {}, \"moved_cells\": {}, \"moves\": {}, \
             \"aborted\": {}, \"delta_secs\": {}",
            r.step,
            r.level,
            r.moved_cells,
            r.moves,
            r.aborted,
            num(r.delta_secs),
        ),
        EventKind::Fault(f) => {
            use crate::event::FaultKind::*;
            let (kind, detail) = match f.kind {
                Retry { retries } => ("retry", format!("\"retries\": {retries}")),
                ProbeFailure { group_a, group_b } => (
                    "probe_failure",
                    format!("\"group_a\": {group_a}, \"group_b\": {group_b}"),
                ),
                Quarantine { group } => ("quarantine", format!("\"group\": {group}")),
                Readmit {
                    group,
                    recovery_secs,
                } => (
                    "readmit",
                    format!(
                        "\"group\": {group}, \"recovery_secs\": {}",
                        num(recovery_secs)
                    ),
                ),
                Rollback { wasted_secs } => {
                    ("rollback", format!("\"wasted_secs\": {}", num(wasted_secs)))
                }
            };
            format!(", \"step\": {}, \"kind\": \"{kind}\", {detail}", f.step)
        }
        EventKind::PredictorSwitch(p) => format!(
            ", \"series\": \"{}\", \"from\": \"{}\", \"to\": \"{}\"",
            escape(&p.series),
            escape(&p.from),
            escape(&p.to),
        ),
        EventKind::Probe(p) => format!(
            ", \"group_a\": {}, \"group_b\": {}, \"alpha_secs\": {}, \
             \"beta_secs_per_byte\": {}, \"predicted_alpha_secs\": {}, \
             \"predicted_beta_secs_per_byte\": {}, \"elapsed_secs\": {}",
            p.group_a,
            p.group_b,
            num(p.alpha_secs),
            num(p.beta_secs_per_byte),
            opt_num(p.predicted_alpha_secs),
            opt_num(p.predicted_beta_secs_per_byte),
            num(p.elapsed_secs),
        ),
        EventKind::Transfer(t) => format!(
            ", \"src\": {}, \"dst\": {}, \"bytes\": {}, \"queue_secs\": {}, \
             \"transfer_secs\": {}, \"remote\": {}, \"failed\": {}",
            t.src,
            t.dst,
            t.bytes,
            num(t.queue_secs),
            num(t.transfer_secs),
            t.remote,
            t.failed,
        ),
        EventKind::Crash(c) => format!(
            ", \"step\": {}, \"proc\": {}, \"group\": {}",
            c.step, c.proc, c.group,
        ),
        EventKind::Evacuate(e) => format!(
            ", \"step\": {}, \"proc\": {}, \"patches\": {}, \"cells\": {}, \"bytes\": {}, \
             \"intra\": {}, \"inter\": {}, \"recompute_cells\": {}",
            e.step, e.proc, e.patches, e.cells, e.bytes, e.intra, e.inter, e.recompute_cells,
        ),
        EventKind::Rejoin(r) => format!(
            ", \"step\": {}, \"proc\": {}, \"group\": {}, \"downtime_secs\": {}",
            r.step,
            r.proc,
            r.group,
            num(r.downtime_secs),
        ),
        EventKind::TenantAdmit(t) => {
            let groups: Vec<String> = t.groups.iter().map(|g| g.to_string()).collect();
            format!(
                ", \"tenant\": {}, \"priority\": {}, \"groups\": [{}]",
                t.tenant,
                num(t.priority),
                groups.join(", "),
            )
        }
        EventKind::TenantMigrate(t) => format!(
            ", \"tenant\": {}, \"from_group\": {}, \"to_group\": {}, \"bytes\": {}, \
             \"cost_secs\": {}, \"gain_secs\": {}",
            t.tenant,
            t.from_group,
            t.to_group,
            t.bytes,
            num(t.cost_secs),
            num(t.gain_secs),
        ),
        EventKind::TenantStep(t) => format!(
            ", \"tenant\": {}, \"step\": {}, \"secs\": {}",
            t.tenant,
            t.step,
            num(t.secs),
        ),
        EventKind::Anomaly(a) => format!(
            ", \"kind\": \"{}\", \"value\": {}, \"threshold\": {}, \"streak\": {}, \
             \"detail\": \"{}\"",
            a.kind.as_str(),
            num(a.value),
            num(a.threshold),
            a.streak,
            escape(&a.detail),
        ),
    };
    format!("{head}{body}}}")
}

/// JSONL export: a `"meta"` line first (counters + drop accounting), then
/// `"stat_block"` lines, then one `"phase"` line per (span name, level)
/// histogram (host wall-clock aggregates — individual spans are folded,
/// not retained), then one `"metric"` line per series (retained points
/// inline), then one line per retained event, oldest first.
pub fn to_jsonl(sink: &RecordingSink) -> String {
    let c = sink.counts();
    let (dropped_decisions, dropped_flows) = sink.dropped();
    let mut out = format!(
        "{{\"type\": \"meta\", \"gates\": {}, \"gate_accepts\": {}, \"redistributes\": {}, \
         \"aborted_redistributes\": {}, \"faults\": {}, \"predictor_switches\": {}, \
         \"probes\": {}, \"transfers\": {}, \"failed_transfers\": {}, \
         \"crashes\": {}, \"evacuations\": {}, \"rejoins\": {}, \
         \"tenant_admits\": {}, \"tenant_migrations\": {}, \"tenant_steps\": {}, \
         \"anomalies\": {}, \
         \"dropped_decisions\": {dropped_decisions}, \"dropped_flows\": {dropped_flows}, \
         \"spans_dropped\": {}}}\n",
        c.gates,
        c.gate_accepts,
        c.redistributes,
        c.aborted_redistributes,
        c.faults,
        c.predictor_switches,
        c.probes,
        c.transfers,
        c.failed_transfers,
        c.crashes,
        c.evacuations,
        c.rejoins,
        c.tenant_admits,
        c.tenant_migrations,
        c.tenant_steps,
        c.anomalies,
        sink.spans_dropped(),
    );
    for (name, entries) in sink.stat_blocks() {
        let _ = write!(
            out,
            "{{\"type\": \"stat_block\", \"name\": \"{}\"",
            escape(name)
        );
        for (k, v) in entries {
            let _ = write!(out, ", \"{}\": {v}", escape(k));
        }
        out.push_str("}\n");
    }
    for ((name, level), h) in sink.phase_histograms() {
        let (p50, p95, p99, max) = h.quartet();
        let _ = writeln!(
            out,
            "{{\"type\": \"phase\", \"name\": \"{}\", \"level\": {level}, \"count\": {}, \
             \"total_secs\": {}, \"p50_secs\": {}, \"p95_secs\": {}, \"p99_secs\": {}, \
             \"max_secs\": {}}}",
            escape(name),
            h.count(),
            num(h.sum()),
            num(p50),
            num(p95),
            num(p99),
            num(max),
        );
    }
    for (name, m) in sink.metrics() {
        let _ = write!(
            out,
            "{{\"type\": \"metric\", \"name\": \"{}\", \"samples\": {}, \"kept\": {}, \
             \"downsamples\": {}, \"stride\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
             \"last\": {}, \"points\": [",
            escape(name),
            m.observed(),
            m.points().len(),
            m.downsamples(),
            m.stride(),
            num(m.min()),
            num(m.max()),
            num(m.mean()),
            num(m.last().1),
        );
        for (i, (t, v)) in m.points().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{}, {}]", num(*t), num(*v));
        }
        out.push_str("]}\n");
    }
    for ev in sink.events() {
        out.push_str(&event_json(&ev));
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
    // (pid, tid, ts_us, line)
    let mut rows: Vec<(u64, u64, f64, String)> = Vec::new();

    let meta = |pid: u64, tid: Option<u64>, what: &str, name: &str| -> (u64, u64, f64, String) {
        let (field, tid_v) = match tid {
            Some(t) => (format!(", \"tid\": {t}"), t),
            None => (String::new(), 0),
        };
        (
            pid,
            tid_v,
            -1.0, // metadata sorts before real events on its track
            format!(
                "{{\"name\": \"{what}\", \"ph\": \"M\", \"pid\": {pid}{field}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape(name)
            ),
        )
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
        let dur = s.dur_secs * 1e6;
        rows.push((
            HOST_PID,
            tid,
            ts,
            format!(
                "{{\"name\": \"{}\", \"cat\": \"phase\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": {HOST_PID}, \"tid\": {tid}}}",
                escape(s.name),
                num(ts),
                num(dur),
            ),
        ));
    }

    let mut sim_tids_seen = std::collections::BTreeSet::new();
    for ev in sink.events() {
        let (tid, label) = sim_tid(&ev.kind);
        if sim_tids_seen.insert(tid) {
            rows.push(meta(SIM_PID, Some(tid), "thread_name", label));
        }
        let ts = ev.t_sim_secs * 1e6;
        // the full payload rides in args: strip the JSONL object braces
        let payload = event_json(&ev);
        rows.push((
            SIM_PID,
            tid,
            ts,
            format!(
                "{{\"name\": \"{}\", \"cat\": \"decision\", \"ph\": \"i\", \"s\": \"t\", \
                 \"ts\": {}, \"pid\": {SIM_PID}, \"tid\": {tid}, \"args\": {{\"event\": {payload}}}}}",
                ev.kind.type_name(),
                num(ts),
            ),
        ));
    }

    // metric series ride as counter tracks on the sim-time process; the
    // retained points are already time-ordered per series, and the sort
    // below merges series sharing the track
    for (name, m) in sink.metrics() {
        for &(t, v) in m.points() {
            let ts = t * 1e6;
            rows.push((
                SIM_PID,
                0,
                ts,
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"metric\", \"ph\": \"C\", \"ts\": {}, \
                     \"pid\": {SIM_PID}, \"tid\": 0, \"args\": {{\"value\": {}}}}}",
                    escape(name),
                    num(ts),
                    num(v),
                ),
            ));
        }
    }

    // monotone ts per (pid, tid) track; stable so equal timestamps keep
    // their recording order
    rows.sort_by(|a, b| {
        (a.0, a.1)
            .cmp(&(b.0, b.1))
            .then(a.2.total_cmp(&b.2))
    });
    let body: Vec<String> = rows.into_iter().map(|(_, _, _, line)| line).collect();
    format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
        body.join(",\n")
    )
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
