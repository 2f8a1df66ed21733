//! The recording sink and the cloneable [`Telemetry`] handle the pipeline
//! records into.
//!
//! The handle is the zero-overhead switch: [`Telemetry::null`] carries no
//! allocation at all — event construction sites guard on
//! [`Telemetry::is_enabled`], spans are dropped unread, and nothing locks.
//! A recording handle passes records through a mutex into its
//! [`RecordingSink`]; recording never touches simulated state, so enabling
//! telemetry cannot change a run's results.

use crate::event::{AnomalyEvent, EventKind, EventRecord, GateVerdict, ProbeEvent};
use crate::export;
use crate::hist::LogHistogram;
use crate::metrics::{AnomalyMonitor, AnomalyTally, MetricSeries, DEFAULT_METRIC_CAP};
use crate::ring::EventRing;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One closed span: host wall-clock, relative to the sink's epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanRecord {
    /// Phase name (e.g. `"solve"`, `"ghost_exchange"`).
    pub name: &'static str,
    /// Hierarchy level the phase ran on.
    pub level: usize,
    /// Start offset from the recorder epoch, host seconds.
    pub start_host_secs: f64,
    /// Duration, host seconds.
    pub dur_secs: f64,
}

/// Accept/reject/defer tally of γ-gate verdicts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateTally {
    /// Gates that invoked a redistribution.
    pub accept: u64,
    /// Gates evaluated and declined.
    pub reject: u64,
    /// Gates deferred by collective/probe failure.
    pub deferred: u64,
}

impl GateTally {
    /// Total evaluations.
    pub fn total(&self) -> u64 {
        self.accept + self.reject + self.deferred
    }
}

/// Per-link measured-vs-predicted probe drift aggregation.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkDrift {
    /// Probes folded in.
    pub probes: u64,
    /// Probes that had a prior prediction to score against.
    pub scored: u64,
    /// Σ|measured α − predicted α| over scored probes.
    pub alpha_abs_err_sum: f64,
    /// Σ|measured β − predicted β| over scored probes.
    pub beta_abs_err_sum: f64,
    /// Latest measured α.
    pub last_alpha: f64,
    /// Latest measured β.
    pub last_beta: f64,
}

/// Whole-run event counters (kept outside the rings, so eviction never
/// falsifies them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// γ-gate evaluations.
    pub gates: u64,
    /// Gate verdicts == Accept.
    pub gate_accepts: u64,
    /// Redistribute events (aborted included).
    pub redistributes: u64,
    /// Redistribute events flagged aborted.
    pub aborted_redistributes: u64,
    /// Fault-protocol transitions.
    pub faults: u64,
    /// Predictor switches.
    pub predictor_switches: u64,
    /// Link probes.
    pub probes: u64,
    /// Network transfers.
    pub transfers: u64,
    /// Transfers that failed.
    pub failed_transfers: u64,
    /// Crash-stop process failures detected.
    pub crashes: u64,
    /// Evacuations of crashed procs' patches.
    pub evacuations: u64,
    /// Crashed procs that recovered and re-entered.
    pub rejoins: u64,
    /// Tenant admissions onto a shared substrate.
    pub tenant_admits: u64,
    /// Whole-tenant migrations between group spans.
    pub tenant_migrations: u64,
    /// Tenant level-0 steps completed on a shared clock.
    pub tenant_steps: u64,
    /// Anomalies flagged by the online detectors.
    pub anomalies: u64,
}

impl base::json::ToJson for EventCounts {
    fn to_json(&self) -> base::json::Json {
        base::json_fields!(self;
            gates, gate_accepts, redistributes, aborted_redistributes, faults,
            predictor_switches, probes, transfers, failed_transfers, crashes, evacuations,
            rejoins, tenant_admits, tenant_migrations, tenant_steps, anomalies)
    }
}

/// Capacity of the decision ring (gate/redistribute/fault/switch).
pub const DECISION_CAP: usize = 16 * 1024;
/// Capacity of the flow ring (probe/transfer).
pub const FLOW_CAP: usize = 64 * 1024;
/// Cap on retained span records.
pub const SPAN_CAP: usize = 64 * 1024;

/// The recording sink: bounded rings for events, a span log, and running
/// aggregations (per-phase histograms, gate tallies per level, per-link
/// probe drift, transfer queue/latency histograms).
#[derive(Clone, Debug)]
pub struct RecordingSink {
    seq: u64,
    decisions: EventRing,
    flows: EventRing,
    spans: Vec<SpanRecord>,
    spans_dropped: u64,
    phase_hist: BTreeMap<(&'static str, usize), LogHistogram>,
    transfer_queue: LogHistogram,
    transfer_latency: LogHistogram,
    gate_by_level: BTreeMap<usize, GateTally>,
    drift: BTreeMap<(usize, usize), LinkDrift>,
    counts: EventCounts,
    stat_blocks: BTreeMap<&'static str, Vec<(&'static str, u64)>>,
    metrics: BTreeMap<String, MetricSeries>,
    monitor: AnomalyMonitor,
}

impl Default for RecordingSink {
    fn default() -> Self {
        RecordingSink {
            seq: 0,
            decisions: EventRing::new(DECISION_CAP),
            flows: EventRing::new(FLOW_CAP),
            spans: Vec::new(),
            spans_dropped: 0,
            phase_hist: BTreeMap::new(),
            transfer_queue: LogHistogram::new(),
            transfer_latency: LogHistogram::new(),
            gate_by_level: BTreeMap::new(),
            drift: BTreeMap::new(),
            counts: EventCounts::default(),
            stat_blocks: BTreeMap::new(),
            metrics: BTreeMap::new(),
            monitor: AnomalyMonitor::new(),
        }
    }
}

impl RecordingSink {
    /// Record one decision/flow event observed at simulated time
    /// `t_sim_secs`. The sink assigns the sequence number.
    pub fn record_event(&mut self, t_sim_secs: f64, kind: EventKind) {
        let mut fired = Vec::new();
        self.absorb(t_sim_secs, &kind, &mut fired);
        // detectors never see their own output (absorb only counts it)
        if !matches!(kind, EventKind::Anomaly(_)) {
            self.monitor.on_event(&kind, &mut fired);
        }
        let rec = EventRecord {
            seq: self.seq,
            t_sim_secs,
            kind,
        };
        self.seq += 1;
        if rec.kind.is_decision() {
            self.decisions.push(rec);
        } else {
            self.flows.push(rec);
        }
        for a in fired {
            self.emit_anomaly(t_sim_secs, a);
        }
    }

    /// Record one closed span.
    pub fn record_span(&mut self, span: SpanRecord) {
        self.phase_hist
            .entry((span.name, span.level))
            .or_default()
            .record(span.dur_secs);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        } else {
            self.spans_dropped += 1;
        }
    }

    /// Forget everything recorded so far (the driver calls this when it
    /// resets simulated clocks, so setup work is excluded).
    pub fn clear(&mut self) {
        *self = RecordingSink::default();
    }

    /// Record (or replace) a named block of whole-run counters — e.g. the
    /// driver's field-pool statistics.
    pub fn record_stat_block(&mut self, name: &'static str, entries: &[(&'static str, u64)]) {
        self.stat_blocks.insert(name, entries.to_vec());
    }

    /// Record one gauge sample at simulated time `t_sim_secs` into the
    /// named bounded series (see [`crate::metrics`]).
    pub fn record_metric(&mut self, t_sim_secs: f64, name: &str, value: f64) {
        let mut fired = Vec::new();
        self.sample_metric(t_sim_secs, name, value, &mut fired);
        for a in fired {
            self.emit_anomaly(t_sim_secs, a);
        }
    }

    /// Human-readable report.
    pub fn summary(&self) -> String {
        export::summary_text(self)
    }

    /// JSONL export (one event per line, meta line first).
    pub fn to_jsonl(&self) -> String {
        export::to_jsonl(self)
    }

    /// Chrome trace-event JSON (`chrome://tracing` / Perfetto).
    pub fn to_chrome_trace(&self) -> String {
        export::to_chrome_trace(self)
    }

    /// All retained events from both rings, merged oldest-first (by
    /// sequence number).
    pub fn events(&self) -> Vec<EventRecord> {
        let mut all: Vec<EventRecord> = self
            .decisions
            .iter()
            .chain(self.flows.iter())
            .cloned()
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Retained span records, in close order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Whole-run counters (eviction-proof).
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// Events evicted from the two rings `(decisions, flows)`.
    pub fn dropped(&self) -> (u64, u64) {
        (self.decisions.dropped(), self.flows.dropped())
    }

    /// Spans discarded over the retention cap.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// Gate tallies per triggering level.
    pub fn gate_by_level(&self) -> &BTreeMap<usize, GateTally> {
        &self.gate_by_level
    }

    /// Per-link probe drift aggregations, keyed by `(group_a, group_b)`.
    pub fn drift(&self) -> &BTreeMap<(usize, usize), LinkDrift> {
        &self.drift
    }

    /// Per-(phase, level) host-time histograms.
    pub fn phase_histograms(&self) -> &BTreeMap<(&'static str, usize), LogHistogram> {
        &self.phase_hist
    }

    /// Named counter blocks, keyed by block name (latest value per block).
    pub fn stat_blocks(&self) -> &BTreeMap<&'static str, Vec<(&'static str, u64)>> {
        &self.stat_blocks
    }

    /// Transfer queueing-delay histogram (simulated seconds).
    pub fn transfer_queue_hist(&self) -> &LogHistogram {
        &self.transfer_queue
    }

    /// Transfer latency histogram (simulated seconds).
    pub fn transfer_latency_hist(&self) -> &LogHistogram {
        &self.transfer_latency
    }

    /// All metric series, keyed by name.
    pub fn metrics(&self) -> &BTreeMap<String, MetricSeries> {
        &self.metrics
    }

    /// One metric series by name, if it was ever sampled.
    pub fn metric(&self, name: &str) -> Option<&MetricSeries> {
        self.metrics.get(name)
    }

    /// Anomalies fired per detector kind, indexed by
    /// [`crate::event::AnomalyKind::index`] (eviction-proof; excludes
    /// [`EventKind::Anomaly`] records injected from outside the sink).
    pub fn anomaly_tally(&self) -> AnomalyTally {
        self.monitor.fired()
    }

    /// Store one sample and run the metric-driven detectors, collecting
    /// anything they fire into `fired`.
    fn sample_metric(
        &mut self,
        t_sim_secs: f64,
        name: &str,
        value: f64,
        fired: &mut Vec<AnomalyEvent>,
    ) {
        match self.metrics.get_mut(name) {
            Some(s) => s.push(t_sim_secs, value),
            None => {
                let mut s = MetricSeries::new(DEFAULT_METRIC_CAP);
                s.push(t_sim_secs, value);
                self.metrics.insert(name.to_string(), s);
            }
        }
        self.monitor.on_metric(name, value, fired);
    }

    /// Append a fired anomaly to the decision ring under its own sequence
    /// number (the monitor never sees these back, so no feedback loops).
    fn emit_anomaly(&mut self, t_sim_secs: f64, a: AnomalyEvent) {
        self.counts.anomalies += 1;
        let rec = EventRecord {
            seq: self.seq,
            t_sim_secs,
            kind: EventKind::Anomaly(a),
        };
        self.seq += 1;
        self.decisions.push(rec);
    }

    fn absorb(&mut self, t_sim_secs: f64, kind: &EventKind, fired: &mut Vec<AnomalyEvent>) {
        match kind {
            EventKind::GammaGate(g) => {
                self.counts.gates += 1;
                let t = self.gate_by_level.entry(g.level).or_default();
                match g.verdict {
                    GateVerdict::Accept => {
                        self.counts.gate_accepts += 1;
                        t.accept += 1;
                    }
                    GateVerdict::Reject => t.reject += 1,
                    GateVerdict::Deferred => t.deferred += 1,
                }
                // derived series: running accept rate over all gates
                let rate = self.counts.gate_accepts as f64 / self.counts.gates as f64;
                self.sample_metric(t_sim_secs, "gate_accept_rate", rate, fired);
            }
            EventKind::Redistribute(r) => {
                self.counts.redistributes += 1;
                if r.aborted {
                    self.counts.aborted_redistributes += 1;
                }
            }
            EventKind::Fault(_) => self.counts.faults += 1,
            EventKind::PredictorSwitch(_) => self.counts.predictor_switches += 1,
            EventKind::Probe(p) => {
                self.counts.probes += 1;
                self.absorb_probe(p);
            }
            EventKind::Transfer(t) => {
                self.counts.transfers += 1;
                if t.failed {
                    self.counts.failed_transfers += 1;
                }
                self.transfer_queue.record(t.queue_secs);
                self.transfer_latency.record(t.transfer_secs);
            }
            EventKind::Crash(_) => self.counts.crashes += 1,
            EventKind::Evacuate(_) => self.counts.evacuations += 1,
            EventKind::Rejoin(_) => self.counts.rejoins += 1,
            EventKind::TenantAdmit(_) => self.counts.tenant_admits += 1,
            EventKind::TenantMigrate(_) => self.counts.tenant_migrations += 1,
            EventKind::TenantStep(_) => self.counts.tenant_steps += 1,
            EventKind::Anomaly(_) => self.counts.anomalies += 1,
        }
    }

    fn absorb_probe(&mut self, p: &ProbeEvent) {
        let key = (p.group_a.min(p.group_b), p.group_a.max(p.group_b));
        let d = self.drift.entry(key).or_default();
        d.probes += 1;
        d.last_alpha = p.alpha_secs;
        d.last_beta = p.beta_secs_per_byte;
        if let (Some(pa), Some(pb)) = (p.predicted_alpha_secs, p.predicted_beta_secs_per_byte) {
            d.scored += 1;
            d.alpha_abs_err_sum += (p.alpha_secs - pa).abs();
            d.beta_abs_err_sum += (p.beta_secs_per_byte - pb).abs();
        }
    }
}

/// Shared state behind an enabled handle.
#[derive(Clone)]
struct Shared {
    /// Host-clock epoch all span timestamps are relative to.
    epoch: Instant,
    sink: Arc<Mutex<RecordingSink>>,
}

/// Cheap-to-clone handle the pipeline records through. Disabled by default
/// ([`Telemetry::null`] / `Default`): every operation is then a no-op with
/// no locking and no clock reads.
#[derive(Clone, Default)]
pub struct Telemetry {
    shared: Option<Shared>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.shared.is_some() {
            "Telemetry(recording)"
        } else {
            "Telemetry(null)"
        })
    }
}

fn lock(sink: &Mutex<RecordingSink>) -> MutexGuard<'_, RecordingSink> {
    // a panic mid-record leaves only a partially-updated *observation*;
    // keep reporting rather than poisoning the whole run
    sink.lock().unwrap_or_else(|e| e.into_inner())
}

impl Telemetry {
    /// The disabled handle (the default): records nothing, costs nothing.
    pub fn null() -> Self {
        Telemetry { shared: None }
    }

    /// A handle recording into a private [`RecordingSink`] with default
    /// capacities. Use [`Telemetry::recording_shared`] to keep direct
    /// access to the sink.
    pub fn recording() -> Self {
        Self::recording_shared().0
    }

    /// A recording handle plus the shared sink behind it, for callers that
    /// want to inspect events/spans directly after the run.
    pub fn recording_shared() -> (Self, Arc<Mutex<RecordingSink>>) {
        let sink = Arc::new(Mutex::new(RecordingSink::default()));
        let tel = Telemetry {
            shared: Some(Shared {
                epoch: Instant::now(),
                sink: sink.clone(),
            }),
        };
        (tel, sink)
    }

    /// Whether records go anywhere. Event construction sites should guard
    /// on this so the disabled path does no work at all.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Record one event observed at simulated time `t_sim_secs`.
    pub fn event(&self, t_sim_secs: f64, kind: EventKind) {
        if let Some(s) = &self.shared {
            lock(&s.sink).record_event(t_sim_secs, kind);
        }
    }

    /// Record one closed span of host time from `start` to `end`. A no-op
    /// when disabled.
    pub fn record_span(&self, name: &'static str, level: usize, start: Instant, end: Instant) {
        if let Some(s) = &self.shared {
            lock(&s.sink).record_span(SpanRecord {
                name,
                level,
                start_host_secs: start.duration_since(s.epoch).as_secs_f64(),
                dur_secs: (end - start).as_secs_f64(),
            });
        }
    }

    /// Record (or replace) a named block of whole-run counters (e.g. the
    /// driver's field-pool statistics). A no-op when disabled.
    pub fn stat_block(&self, name: &'static str, entries: &[(&'static str, u64)]) {
        if let Some(s) = &self.shared {
            lock(&s.sink).record_stat_block(name, entries);
        }
    }

    /// Sample one gauge into the named bounded metric series at simulated
    /// time `t_sim_secs` (see [`crate::metrics`]). A no-op when disabled —
    /// call sites that build the name dynamically should guard on
    /// [`Telemetry::is_enabled`] so the disabled path never formats.
    pub fn metric(&self, t_sim_secs: f64, name: &str, value: f64) {
        if let Some(s) = &self.shared {
            lock(&s.sink).record_metric(t_sim_secs, name, value);
        }
    }

    /// Drop everything recorded so far (used when simulated clocks reset,
    /// so setup work is excluded from the trace).
    pub fn clear(&self) {
        if let Some(s) = &self.shared {
            lock(&s.sink).clear();
        }
    }

    /// Text report from the sink; `None` when disabled.
    pub fn summary(&self) -> Option<String> {
        self.shared.as_ref().map(|s| lock(&s.sink).summary())
    }

    /// JSONL export; `None` when disabled.
    pub fn to_jsonl(&self) -> Option<String> {
        self.shared.as_ref().map(|s| lock(&s.sink).to_jsonl())
    }

    /// Chrome trace-event export; `None` when disabled.
    pub fn to_chrome_trace(&self) -> Option<String> {
        self.shared
            .as_ref()
            .map(|s| lock(&s.sink).to_chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        FaultEvent, FaultKind, GammaGateEvent, RedistributeEvent, TransferEvent,
    };

    fn gate(level: usize, verdict: GateVerdict) -> EventKind {
        EventKind::GammaGate(GammaGateEvent {
            step: 0,
            level,
            proactive: false,
            gain_secs: 1.0,
            cost_alpha_beta_w_secs: 0.2,
            delta_secs: 0.1,
            cost_upper_secs: 0.3,
            alpha_secs: 0.01,
            beta_secs_per_byte: 1e-7,
            move_bytes: 1024,
            gamma: 1.0,
            mae_widening_secs: 0.0,
            verdict,
            reason: "gate",
        })
    }

    #[test]
    fn null_handle_is_inert() {
        let tel = Telemetry::null();
        assert!(!tel.is_enabled());
        tel.event(0.0, gate(0, GateVerdict::Accept));
        let t = Instant::now();
        tel.record_span("solve", 1, t, t);
        assert!(tel.summary().is_none());
        assert!(tel.to_jsonl().is_none());
        assert!(tel.to_chrome_trace().is_none());
    }

    #[test]
    fn recording_sink_tallies_and_routes() {
        let (tel, sink) = Telemetry::recording_shared();
        assert!(tel.is_enabled());
        tel.event(0.5, gate(0, GateVerdict::Accept));
        tel.event(0.6, gate(0, GateVerdict::Reject));
        tel.event(0.7, gate(2, GateVerdict::Deferred));
        tel.event(
            0.8,
            EventKind::Redistribute(RedistributeEvent {
                step: 0,
                level: 0,
                moved_cells: 512,
                moves: 3,
                aborted: false,
                delta_secs: 0.1,
            }),
        );
        tel.event(
            0.9,
            EventKind::Transfer(TransferEvent {
                src: 0,
                dst: 4,
                bytes: 4096,
                queue_secs: 0.001,
                transfer_secs: 0.01,
                remote: true,
                failed: false,
            }),
        );
        let t = Instant::now();
        tel.record_span("solve", 0, t, t);
        let s = sink.lock().unwrap();
        let c = s.counts();
        assert_eq!(c.gates, 3);
        assert_eq!(c.gate_accepts, 1);
        assert_eq!(c.redistributes, 1);
        assert_eq!(c.transfers, 1);
        assert_eq!(s.gate_by_level()[&0].accept, 1);
        assert_eq!(s.gate_by_level()[&0].reject, 1);
        assert_eq!(s.gate_by_level()[&2].deferred, 1);
        assert_eq!(s.gate_by_level()[&0].total(), 2);
        // seq is a total order across both rings
        let seqs: Vec<u64> = s.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.spans().len(), 1);
        assert_eq!(s.spans()[0].name, "solve");
        assert_eq!(s.transfer_latency_hist().count(), 1);
    }

    #[test]
    fn stat_blocks_replace_by_name_and_survive_in_summary() {
        let (tel, sink) = Telemetry::recording_shared();
        tel.stat_block("field_pool", &[("hits", 1), ("misses", 2)]);
        tel.stat_block("field_pool", &[("hits", 10), ("misses", 2)]);
        {
            let s = sink.lock().unwrap();
            assert_eq!(s.stat_blocks().len(), 1);
            assert_eq!(s.stat_blocks()["field_pool"], vec![("hits", 10), ("misses", 2)]);
        }
        let text = tel.summary().unwrap();
        assert!(text.contains("field_pool"), "{text}");
        assert!(text.contains("hits"), "{text}");
        // null handles stay inert
        Telemetry::null().stat_block("field_pool", &[("hits", 1)]);
    }

    #[test]
    fn clear_resets_to_an_empty_sink() {
        let (tel, sink) = Telemetry::recording_shared();
        tel.event(
            0.0,
            EventKind::Fault(FaultEvent {
                step: 0,
                kind: FaultKind::Quarantine { group: 1 },
            }),
        );
        tel.clear();
        let s = sink.lock().unwrap();
        assert_eq!(s.counts().faults, 0);
        assert!(s.events().is_empty());
    }

    #[test]
    fn metrics_record_through_the_handle_and_null_stays_inert() {
        let (tel, sink) = Telemetry::recording_shared();
        for i in 0..10 {
            tel.metric(i as f64, "group_load:g0", 100.0 + i as f64);
        }
        let s = sink.lock().unwrap();
        let m = s.metric("group_load:g0").expect("series exists");
        assert_eq!(m.observed(), 10);
        assert_eq!(m.last(), (9.0, 109.0));
        assert!(s.metric("no_such_series").is_none());
        // gates sampled a derived series too? none recorded here
        assert_eq!(s.metrics().len(), 1);
        Telemetry::null().metric(0.0, "group_load:g0", 1.0);
    }

    #[test]
    fn anomalies_join_the_decision_ring_with_counts() {
        use crate::metrics::{IMBALANCE_STUCK_STREAK, IMBALANCE_STUCK_THRESHOLD};
        let (tel, sink) = Telemetry::recording_shared();
        for i in 0..IMBALANCE_STUCK_STREAK {
            tel.metric(i as f64, "imbalance", IMBALANCE_STUCK_THRESHOLD + 1.0);
        }
        let s = sink.lock().unwrap();
        assert_eq!(s.counts().anomalies, 1);
        assert_eq!(s.anomaly_tally(), [1, 0, 0]);
        let evs = s.events();
        assert_eq!(evs.len(), 1);
        match &evs[0].kind {
            EventKind::Anomaly(a) => {
                assert_eq!(a.kind, crate::event::AnomalyKind::ImbalanceStuck);
                assert!(evs[0].kind.is_decision());
            }
            other => panic!("expected anomaly, got {other:?}"),
        }
        // the triggering sample's simulated time stamps the anomaly
        assert_eq!(evs[0].t_sim_secs, (IMBALANCE_STUCK_STREAK - 1) as f64);
    }

    #[test]
    fn gate_events_derive_an_accept_rate_series() {
        let (tel, sink) = Telemetry::recording_shared();
        tel.event(0.1, gate(0, GateVerdict::Accept));
        tel.event(0.2, gate(0, GateVerdict::Reject));
        let s = sink.lock().unwrap();
        let m = s.metric("gate_accept_rate").expect("derived series");
        assert_eq!(m.observed(), 2);
        assert_eq!(m.points(), &[(0.1, 1.0), (0.2, 0.5)]);
    }
}
