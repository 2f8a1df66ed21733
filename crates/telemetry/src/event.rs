//! Typed decision events. Every record carries the *simulated* time it was
//! observed at (`t_sim_secs`) and a monotone sequence number assigned by
//! the sink, so causality ("this rollback follows that redistribute") is
//! checkable from the log alone.
//! A record's `ToJson` form is its JSONL line: `seq`, `t_sim`, `type`,
//! then the payload's fields in order.

use base::json::{object, Json, ToJson};

/// Outcome of one γ-gate evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateVerdict {
    /// `Gain > γ·Cost_upper` — redistribution invoked.
    Accept,
    /// Evaluated and declined (balanced, or the gate failed).
    Reject,
    /// Could not be evaluated this step (collective or probe failure); the
    /// fault protocol decides who sits out next.
    Deferred,
}

/// Its stable lowercase name.
impl ToJson for GateVerdict {
    fn to_json(&self) -> Json {
        match self {
            GateVerdict::Accept => "accept",
            GateVerdict::Reject => "reject",
            GateVerdict::Deferred => "deferred",
        }
        .to_json()
    }
}

/// One evaluation of the paper's decision rule `Gain > γ·Cost`.
#[derive(Clone, Debug, PartialEq)]
pub struct GammaGateEvent {
    /// Level-0 step index at which the gate ran.
    pub step: u64,
    /// Level whose completed step triggered the check (0 for the regular
    /// after-level-0 gate, >0 for proactive fine-level checks).
    pub level: usize,
    /// Whether the check was triggered proactively by the load forecast.
    pub proactive: bool,
    /// Eq. 4 gain estimate, seconds.
    pub gain_secs: f64,
    /// Eq. 1 communication term `α + β·W`, seconds (point estimate; 0 when
    /// the decision never reached pricing).
    pub cost_alpha_beta_w_secs: f64,
    /// Recorded computational overhead δ of the previous redistribution.
    pub delta_secs: f64,
    /// The pessimistic total the gate actually compares against
    /// (`comm_upper + δ`); equals `cost_alpha_beta_w_secs + delta_secs`
    /// in reactive mode.
    pub cost_upper_secs: f64,
    /// Slowest probed/forecast link latency α (seconds).
    pub alpha_secs: f64,
    /// Slowest probed/forecast link inverse bandwidth β (seconds/byte).
    pub beta_secs_per_byte: f64,
    /// Planned migration volume W (bytes).
    pub move_bytes: u64,
    /// The γ threshold in force.
    pub gamma: f64,
    /// Confidence widening applied to the communication term
    /// (`comm_upper − comm`, from horizon·MAE; 0 in reactive mode).
    pub mae_widening_secs: f64,
    /// The verdict.
    pub verdict: GateVerdict,
    /// Why: `"gate"` (priced and compared), `"balanced"`,
    /// `"probe_failed"`, or `"collective_failed"`.
    pub reason: &'static str,
}

/// A global redistribution that was actually invoked (aborted ones
/// included — the matching rollback is a separate [`FaultEvent`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RedistributeEvent {
    /// Level-0 step index.
    pub step: u64,
    /// Level whose step triggered the invoking gate.
    pub level: usize,
    /// Level-0 cells moved (for an abort: moved before the failure).
    pub moved_cells: i64,
    /// Individual grid moves performed.
    pub moves: usize,
    /// Whether the redistribution died mid-flight and was rolled back.
    pub aborted: bool,
    /// The δ overhead charged for this redistribution (wasted work, for an
    /// aborted one).
    pub delta_secs: f64,
}

/// Fault-protocol transition kinds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// A retried operation eventually succeeded after `retries` re-attempts.
    Retry {
        /// Re-attempts consumed.
        retries: u32,
    },
    /// An inter-group probe (with its retries) ultimately failed.
    ProbeFailure {
        /// One endpoint group.
        group_a: usize,
        /// The other endpoint group.
        group_b: usize,
    },
    /// `group` was quarantined out of the global phase.
    Quarantine {
        /// The quarantined group.
        group: usize,
    },
    /// `group` passed probation and rejoined after `recovery_secs`.
    Readmit {
        /// The re-admitted group.
        group: usize,
        /// Simulated seconds it spent quarantined.
        recovery_secs: f64,
    },
    /// An invoked redistribution was rolled back; `wasted_secs` is the δ
    /// overhead charged for the round trip.
    Rollback {
        /// Wasted repartition/rebuild seconds.
        wasted_secs: f64,
    },
}

/// One fault-protocol transition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Level-0 step index.
    pub step: u64,
    /// What happened.
    pub kind: FaultKind,
}

/// A crash-stop process failure was detected by the driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashEvent {
    /// Level-0 step index at which the crash was detected.
    pub step: u64,
    /// The crashed processor.
    pub proc: usize,
    /// Its group.
    pub group: usize,
}

/// Patches owned by a crashed processor were reassigned to survivors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvacuateEvent {
    /// Level-0 step index.
    pub step: u64,
    /// The crashed processor whose work was evacuated.
    pub proc: usize,
    /// Patches reassigned (all levels).
    pub patches: usize,
    /// Cells reassigned (all levels).
    pub cells: i64,
    /// Bytes shipped from the checkpoint holder to the new owners.
    pub bytes: u64,
    /// Reassignments that stayed inside the dead proc's group.
    pub intra: usize,
    /// Reassignments that had to leave the group.
    pub inter: usize,
    /// Cells recomputed from checkpointed state, charged as recovery.
    pub recompute_cells: i64,
}

/// A crashed processor came back: it re-enters with zero load and is
/// refilled by the normal DLB phases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RejoinEvent {
    /// Level-0 step index at which the rejoin was detected.
    pub step: u64,
    /// The recovered processor.
    pub proc: usize,
    /// Its group.
    pub group: usize,
    /// Simulated seconds between crash detection and rejoin detection.
    pub downtime_secs: f64,
}

/// The adaptive selector behind a forecast series changed its best member.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictorSwitchEvent {
    /// Which series switched (e.g. `"beta:g0-g1"`, `"load:g2"`).
    pub series: String,
    /// Model forwarded before the observation.
    pub from: String,
    /// Model forwarded after it.
    pub to: String,
}

/// One two-message link probe: measured α/β next to what the estimator
/// predicted beforehand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeEvent {
    /// One endpoint group.
    pub group_a: usize,
    /// The other endpoint group.
    pub group_b: usize,
    /// Measured latency (seconds).
    pub alpha_secs: f64,
    /// Measured inverse bandwidth (seconds/byte).
    pub beta_secs_per_byte: f64,
    /// Estimator's α prediction before folding the sample (None before the
    /// first probe).
    pub predicted_alpha_secs: Option<f64>,
    /// Estimator's β prediction before folding the sample.
    pub predicted_beta_secs_per_byte: Option<f64>,
    /// Simulated duration of the two-message exchange.
    pub elapsed_secs: f64,
}

/// One point-to-point transfer through the simulated network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferEvent {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Payload size.
    pub bytes: u64,
    /// Time spent queued behind earlier traffic on the shared link.
    pub queue_secs: f64,
    /// Serialization + latency once the link was free (for a failed
    /// transfer: time until the failure was detected).
    pub transfer_secs: f64,
    /// Whether the path crossed groups.
    pub remote: bool,
    /// Whether the transfer failed (fault window or deadline).
    pub failed: bool,
}

/// A tenant job was admitted onto the shared substrate and placed on its
/// group span by the priority-weighted cumulative-distribution pick.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantAdmitEvent {
    /// Tenant index within the service.
    pub tenant: usize,
    /// The tenant's admission priority weight.
    pub priority: f64,
    /// Global group ids the tenant was placed on.
    pub groups: Vec<usize>,
}

/// A whole tenant migrated to a different group span, priced through the
/// same γ-gated cost model the intra-tenant DLB uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantMigrateEvent {
    /// Tenant index within the service.
    pub tenant: usize,
    /// Group the tenant's leading view slot moved off.
    pub from_group: usize,
    /// Group it moved onto.
    pub to_group: usize,
    /// Payload shipped between the group leaders.
    pub bytes: u64,
    /// Priced migration cost (Eq. 1 comm term + δ), seconds.
    pub cost_secs: f64,
    /// Estimated gain that passed the γ-gate, seconds.
    pub gain_secs: f64,
}

/// One tenant level-0 step completed on the shared clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantStepEvent {
    /// Tenant index within the service.
    pub tenant: usize,
    /// The tenant's level-0 step index.
    pub step: u64,
    /// Simulated step latency, seconds.
    pub secs: f64,
}

/// What an online anomaly detector flagged (see [`crate::metrics`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Imbalance stayed above threshold for a streak of samples with no
    /// redistribution attempted in between.
    ImbalanceStuck,
    /// A streak of priced γ-gate evaluations all rejected.
    GateStarvation,
    /// Rolling probe prediction error drifted far past its baseline.
    ProbeDrift,
}

impl AnomalyKind {
    /// Every kind, in [`AnomalyKind::index`] order.
    pub const ALL: [AnomalyKind; 3] = [
        AnomalyKind::ImbalanceStuck,
        AnomalyKind::GateStarvation,
        AnomalyKind::ProbeDrift,
    ];

    /// Stable lowercase name used in JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyKind::ImbalanceStuck => "imbalance_stuck",
            AnomalyKind::GateStarvation => "gate_starvation",
            AnomalyKind::ProbeDrift => "probe_drift",
        }
    }

    /// Dense index into per-kind tallies (the order of [`AnomalyKind::ALL`]).
    pub fn index(self) -> usize {
        match self {
            AnomalyKind::ImbalanceStuck => 0,
            AnomalyKind::GateStarvation => 1,
            AnomalyKind::ProbeDrift => 2,
        }
    }
}

/// One fired anomaly: an online detector crossed its trigger condition.
#[derive(Clone, Debug, PartialEq)]
pub struct AnomalyEvent {
    /// Which detector fired.
    pub kind: AnomalyKind,
    /// The offending magnitude (peak imbalance, miss delta, rolling error).
    pub value: f64,
    /// The limit it crossed.
    pub threshold: f64,
    /// Consecutive observations involved in the trigger.
    pub streak: u64,
    /// Human-readable one-liner for reports.
    pub detail: String,
}

/// The closed set of event payloads.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// γ-gate evaluation.
    GammaGate(GammaGateEvent),
    /// Invoked global redistribution.
    Redistribute(RedistributeEvent),
    /// Fault-protocol transition.
    Fault(FaultEvent),
    /// Adaptive-predictor switch.
    PredictorSwitch(PredictorSwitchEvent),
    /// Link probe.
    Probe(ProbeEvent),
    /// Network transfer.
    Transfer(TransferEvent),
    /// Crash-stop process failure detected.
    Crash(CrashEvent),
    /// Crashed processor's patches reassigned to survivors.
    Evacuate(EvacuateEvent),
    /// Crashed processor recovered and re-entered.
    Rejoin(RejoinEvent),
    /// Tenant admitted onto the shared substrate.
    TenantAdmit(TenantAdmitEvent),
    /// Whole tenant migrated between group spans.
    TenantMigrate(TenantMigrateEvent),
    /// Tenant level-0 step completed on the shared clock.
    TenantStep(TenantStepEvent),
    /// An online anomaly detector fired (see [`crate::metrics`]).
    Anomaly(AnomalyEvent),
}

impl EventKind {
    /// Stable snake_case tag used as `"type"` in JSON exports.
    pub fn type_name(&self) -> &'static str {
        self.tagged().0
    }

    /// The `"type"` tag and the payload.
    fn tagged(&self) -> (&'static str, &dyn ToJson) {
        match self {
            EventKind::GammaGate(e) => ("gamma_gate", e),
            EventKind::Redistribute(e) => ("redistribute", e),
            EventKind::Fault(e) => ("fault", e),
            EventKind::PredictorSwitch(e) => ("predictor_switch", e),
            EventKind::Probe(e) => ("probe", e),
            EventKind::Transfer(e) => ("transfer", e),
            EventKind::Crash(e) => ("crash", e),
            EventKind::Evacuate(e) => ("evacuate", e),
            EventKind::Rejoin(e) => ("rejoin", e),
            EventKind::TenantAdmit(e) => ("tenant_admit", e),
            EventKind::TenantMigrate(e) => ("tenant_migrate", e),
            EventKind::TenantStep(e) => ("tenant_step", e),
            EventKind::Anomaly(e) => ("anomaly", e),
        }
    }

    /// Decision events (gate/redistribute/fault/predictor) live in a
    /// separate ring from the high-volume flow events (probe/transfer and
    /// per-step tenant latencies), so per-transfer noise can never evict
    /// the audit log.
    pub fn is_decision(&self) -> bool {
        !matches!(
            self,
            EventKind::Probe(_) | EventKind::Transfer(_) | EventKind::TenantStep(_)
        )
    }
}

/// A recorded event: payload plus sink-assigned sequence number and the
/// simulated time of observation.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Monotone per-sink sequence number (total order across both rings).
    pub seq: u64,
    /// Simulated seconds at which the event was observed.
    pub t_sim_secs: f64,
    /// The payload.
    pub kind: EventKind,
}

impl ToJson for AnomalyKind {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }
}

/// `ToJson` for payloads: the object of the listed fields, in order.
macro_rules! payload_json {
    ($($ty:ty: $($field:ident),+;)+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                base::json_fields!(self; $($field),+)
            }
        }
    )+};
}

payload_json! {
    GammaGateEvent: step, level, proactive, gain_secs, cost_alpha_beta_w_secs, delta_secs,
        cost_upper_secs, alpha_secs, beta_secs_per_byte, move_bytes, gamma, mae_widening_secs,
        verdict, reason;
    RedistributeEvent: step, level, moved_cells, moves, aborted, delta_secs;
    CrashEvent: step, proc, group;
    EvacuateEvent: step, proc, patches, cells, bytes, intra, inter, recompute_cells;
    RejoinEvent: step, proc, group, downtime_secs;
    PredictorSwitchEvent: series, from, to;
    ProbeEvent: group_a, group_b, alpha_secs, beta_secs_per_byte, predicted_alpha_secs,
        predicted_beta_secs_per_byte, elapsed_secs;
    TransferEvent: src, dst, bytes, queue_secs, transfer_secs, remote, failed;
    TenantAdmitEvent: tenant, priority, groups;
    TenantMigrateEvent: tenant, from_group, to_group, bytes, cost_secs, gain_secs;
    TenantStepEvent: tenant, step, secs;
    AnomalyEvent: kind, value, threshold, streak, detail;
}

/// `step`, the kind's name as `"kind"`, then the kind's members.
impl ToJson for FaultEvent {
    fn to_json(&self) -> Json {
        use FaultKind::*;
        let (kind, detail) = match self.kind {
            Retry { retries } => ("retry", vec![("retries", retries.to_json())]),
            ProbeFailure { group_a: a, group_b: b } => {
                ("probe_failure", vec![("group_a", a.to_json()), ("group_b", b.to_json())])
            }
            Quarantine { group } => ("quarantine", vec![("group", group.to_json())]),
            Readmit { group, recovery_secs: secs } => {
                ("readmit", vec![("group", group.to_json()), ("recovery_secs", secs.to_json())])
            }
            Rollback { wasted_secs } => ("rollback", vec![("wasted_secs", wasted_secs.to_json())]),
        };
        object([("step", self.step.to_json()), ("kind", kind.to_json())].into_iter().chain(detail))
    }
}

impl ToJson for EventRecord {
    fn to_json(&self) -> Json {
        let (ty, payload) = self.kind.tagged();
        let Json::Obj(payload) = payload.to_json() else { unreachable!("a payload is an object") };
        let mut line = Vec::with_capacity(3 + payload.len());
        line.push(("seq".into(), self.seq.to_json()));
        line.push(("t_sim".into(), self.t_sim_secs.to_json()));
        line.push(("type".into(), ty.to_json()));
        line.extend(payload);
        Json::Obj(line)
    }
}
