//! The **distributed DLB scheme** — the paper's contribution (§4).
//!
//! Two phases:
//!
//! * **Global load balancing** — after each level-0 timestep only: check the
//!   load distribution among groups (allreduce); if imbalance exists,
//!   estimate the computational gain (Eq. 4) of removing it and, via the
//!   two-message α/β probe plus the recorded overhead `δ`, the cost (Eq. 1)
//!   of moving the required level-0 grids; redistribute only when
//!   `Gain > γ·Cost`, proportionally to each group's compute power. One
//!   routine runs this at every scale, on the nodes of a reduction tree
//!   over the groups: a single node at the paper's scale, a
//!   site→region→federation tree beyond [`TREE_ARITY`] groups.
//! * **Local load balancing** — after each timestep at the finer levels:
//!   run the parallel-DLB within each group only, so children grids always
//!   live in the same group as their parents and no parent↔child remote
//!   communication is needed.
//!
//! The scheme adapts to dynamic network load because the probe measures the
//! *current* α/β: when the shared WAN is congested, Cost inflates and global
//! redistribution is deferred.
//!
//! With a [`PredictorKind`] configured, the scheme goes from *reactive* to
//! *predictive* (NWS-style, via the `forecast` crate): the γ-gate prices the
//! move with forecasted α/β and must clear the cost's **upper bound**
//! (point forecast widened by one per-series forecast MAE), and per-group
//! load series can trigger a **proactive** global check after a fine-level
//! step when the predicted inter-group imbalance crosses
//! [`DistributedDlbConfig::proactive_threshold`] — instead of waiting for
//! the next level-0 step to notice what refinement did to the balance.
//!
//! On top of the paper's protocol sits a **degradation policy**
//! ([`crate::fault`]): probes retry with exponential backoff, a group whose
//! inter-link fails [`DistributedDlbConfig::quarantine_after`] times in a
//! row is *quarantined* out of the global phase (its local phase continues
//! — children stay with parents), a redistribution whose migration traffic
//! dies mid-flight is rolled back through the hierarchy's undo log and the
//! wasted work recorded as abort overhead, and quarantined groups are
//! re-admitted once a probation probe succeeds. Only the strike count is
//! configurable; the retry policy, probe timeout, migration deadline and
//! probation cadence are constants.

mod forecast;
mod global;

pub use global::TREE_ARITY;

use crate::balance::{balance_bucketed, bucket_level_by_owner, place_batch, BalanceParams};
use crate::cost::CostEstimate;
use crate::fault::QuarantineRoster;
use crate::gain::GainEstimate;
use crate::parallel::LOAD_MSG_BYTES;
use crate::partition::{RedistributionReport, SelectionPolicy};
use crate::scheme::{proc_total_cells, LbContext, LoadBalancer};
use ::forecast::{PredictorKind, SeriesForecaster};
use metrics::{DlbWall, FaultCounters, Phase, PhaseClock};
use samr_mesh::hierarchy::GridHierarchy;
use simnet::{Activity, SimResult};
use telemetry::{EventKind, FaultEvent, FaultKind};
use topology::{DistributedSystem, LinkEstimator, ProcId};
use std::collections::BTreeMap;

/// Tuning of the distributed scheme.
#[derive(Clone, Debug)]
pub struct DistributedDlbConfig {
    /// The γ of `Gain > γ·Cost` (§4.4; paper default 2.0).
    pub gamma: f64,
    /// Power-normalized group-load ratio above which "imbalance exists".
    pub imbalance_tolerance: f64,
    /// Within-set balancing knobs (local phase and redistribution).
    pub balance: BalanceParams,
    /// Sizes of the two probe messages (paper: 1 KiB / 64 KiB). Smaller
    /// probes squeeze through links that drop bulk traffic, which is what
    /// lets probation distinguish "degraded" from "dead".
    pub probe_small_bytes: u64,
    /// See [`Self::probe_small_bytes`]; must be strictly larger.
    pub probe_large_bytes: u64,
    /// How donor level-0 grids are selected for global redistribution.
    pub selection: SelectionPolicy,
    /// Consecutive inter-link failures after which the remote group is
    /// quarantined (retries, deadlines and probation are the constants of
    /// [`crate::fault`]).
    pub quarantine_after: u32,
    /// Predictor for the per-link α/β series and per-group load series.
    /// `None` keeps the paper's reactive behaviour exactly: the cost is
    /// priced from the freshest probe sample and carries no error bar.
    pub predictor: Option<PredictorKind>,
    /// Seed for the adaptive selector's deterministic tie-breaking and for
    /// deriving decorrelated per-series seeds.
    pub forecast_seed: u64,
    /// Predicted power-normalized inter-group imbalance ratio above which a
    /// fine-level step triggers a proactive global check. `None` restricts
    /// global checks to level-0 steps (the paper's protocol).
    pub proactive_threshold: Option<f64>,
    /// Keep the global phase's reduction tree one node over all healthy
    /// groups at any group count (arity = G instead of [`TREE_ARITY`]):
    /// the all-groups compare a federation's tree is measured against by
    /// `bench --bin scale`. No effect with at most [`TREE_ARITY`] groups,
    /// where the tree is that one node anyway.
    pub flat_reference: bool,
}

impl Default for DistributedDlbConfig {
    fn default() -> Self {
        DistributedDlbConfig {
            gamma: 2.0,
            imbalance_tolerance: 1.10,
            balance: BalanceParams::default(),
            probe_small_bytes: 1 << 10,
            probe_large_bytes: 1 << 16,
            selection: SelectionPolicy::default(),
            quarantine_after: 2,
            predictor: None,
            forecast_seed: 0,
            proactive_threshold: None,
            flat_reference: false,
        }
    }
}

impl DistributedDlbConfig {
    /// Predictive defaults: the adaptive selector on every series, the
    /// confident γ-gate, and proactive checks at 1.5× predicted imbalance.
    pub fn predictive(seed: u64) -> Self {
        DistributedDlbConfig {
            predictor: Some(PredictorKind::Adaptive),
            forecast_seed: seed,
            proactive_threshold: Some(1.5),
            ..Default::default()
        }
    }
}

/// One global-phase decision, kept for reports and tests.
#[derive(Clone, Debug)]
pub struct GlobalDecision {
    /// Level-0 step index at which the decision was taken.
    pub step: u64,
    /// Eq. 4 evaluation (over the healthy groups only).
    pub gain: GainEstimate,
    /// Eq. 1 evaluation (None when no imbalance was detected — so no probe
    /// was paid for — or when the decision collective / probing failed).
    pub cost: Option<CostEstimate>,
    /// Whether redistribution was invoked.
    pub invoked: bool,
    /// Whether an invoked redistribution was aborted and rolled back.
    pub aborted: bool,
    /// Wasted computational overhead of an aborted redistribution,
    /// seconds (0 unless `aborted`). The driver records this as the next δ.
    pub abort_delta_secs: f64,
    /// Outcome when invoked (for an aborted invocation: the partial motion
    /// that was rolled back).
    pub report: Option<RedistributionReport>,
    /// Whether this check was triggered proactively by the load forecast
    /// after a fine-level step (false: the regular after-level-0 check).
    pub proactive: bool,
}

/// The paper's two-phase distributed DLB.
#[derive(Clone, Debug, Default)]
pub struct DistributedDlb {
    cfg: DistributedDlbConfig,
    estimators: BTreeMap<(usize, usize), LinkEstimator>,
    /// Per-group total-cell series feeding the proactive trigger.
    load_forecasts: Vec<SeriesForecaster>,
    /// Quarantine state, fault-event log and counters.
    pub roster: QuarantineRoster,
    /// Full decision log of the global phase.
    pub decisions: Vec<GlobalDecision>,
    /// Cursor into `roster.events`: entries before it have already been
    /// forwarded to the telemetry sink.
    fault_events_forwarded: usize,
    /// Per-proc alive mask, refreshed from the simulator at the start of
    /// every `after_level_step` (all-alive when no proc faults are
    /// scheduled). Empty until the first step.
    alive: Vec<bool>,
    /// Inter-group messages the decision phase charged to the simulated
    /// network: collective legs, probe messages, and the reduction tree's
    /// summary/delegation traffic.
    decision_msgs: u64,
    /// Host time of `after_level_step` by activity.
    clock: PhaseClock,
}

impl DistributedDlb {
    pub fn new(cfg: DistributedDlbConfig) -> Self {
        DistributedDlb {
            cfg,
            ..Default::default()
        }
    }

    /// The alive mask as of the last step (all-alive before the first).
    fn alive_mask(&self, nprocs: usize) -> Vec<bool> {
        if self.alive.len() == nprocs {
            self.alive.clone()
        } else {
            vec![true; nprocs]
        }
    }

    /// Config in use.
    pub fn config(&self) -> &DistributedDlbConfig {
        &self.cfg
    }

    /// How many global redistributions were actually invoked.
    pub fn invocations(&self) -> usize {
        self.decisions.iter().filter(|d| d.invoked).count()
    }

    /// Link-estimator pairs allocated so far. Estimators are created
    /// lazily on the first probe of a pair, so this measures decision-
    /// phase bookkeeping directly: a one-node tree touches all O(G²)
    /// pairs, a deeper one only its representative pairs — O(G).
    pub fn estimator_pairs(&self) -> usize {
        self.estimators.len()
    }

    /// Inter-group messages the decision phase charged to the simulated
    /// network (collective legs, 2 per α/β probe attempt, and the
    /// reduction tree's summary/delegation messages).
    pub fn decision_msgs(&self) -> u64 {
        self.decision_msgs
    }

    /// Host seconds spent in `after_level_step` so far, by activity.
    pub fn wall(&self) -> DlbWall {
        self.clock.dlb_wall()
    }

    /// Chronological fault-event log.
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.roster.events
    }

    /// Aggregate fault counters.
    pub fn fault_stats(&self) -> FaultCounters {
        self.roster.stats
    }

    /// Mirror newly-appended roster fault events into the telemetry sink.
    /// `Rollback` entries are skipped: the abort site already emitted each
    /// one inline, right after its redistribute record, preserving causal
    /// order in the audit log.
    fn forward_fault_events(&mut self, ctx: &LbContext<'_>) {
        let tel = ctx.sim.telemetry();
        if tel.is_enabled() {
            let t_sim = ctx.sim.elapsed().as_secs_f64();
            for ev in &self.roster.events[self.fault_events_forwarded..] {
                if !matches!(ev.kind, FaultKind::Rollback { .. }) {
                    tel.event(t_sim, EventKind::Fault(*ev));
                }
            }
        }
        self.fault_events_forwarded = self.roster.events.len();
    }

    /// The local phase: parallel DLB restricted to each group. Runs for
    /// every group — quarantined ones included: intra-group links are
    /// unaffected by an inter-link failure, and children stay with parents.
    fn local_phase(&mut self, ctx: &mut LbContext<'_>, level: usize) {
        let outer = self.clock.enter(Phase::LocalDlb, level);
        let sys = ctx.sim.system().clone();
        let alive = self.alive_mask(sys.nprocs());
        // one scan of the level for all groups; each group's pass keeps
        // its own processors' lists current
        let mut owned = bucket_level_by_owner(ctx.hier, level, sys.nprocs());
        for g in sys.groups() {
            // balance only among the group's alive procs: a crashed proc
            // neither donates (it was evacuated) nor receives
            let procs: Vec<ProcId> = g.procs.iter().copied().filter(|p| alive[p.0]).collect();
            if procs.len() < 2 {
                continue;
            }
            // single-group collectives cross no inter-link and cannot fail,
            // but stay defensive: a failed exchange skips the group's pass
            if ctx
                .sim
                .allreduce_group(g.id, LOAD_MSG_BYTES, Activity::LoadBalance)
                .is_err()
            {
                continue;
            }
            let weights: Vec<f64> = procs.iter().map(|p| sys.proc(*p).weight).collect();
            balance_bucketed(
                ctx.hier,
                ctx.sim,
                &mut owned,
                &procs,
                &weights,
                &self.cfg.balance,
            );
        }
        self.clock.resume(outer);
    }
}

impl LoadBalancer for DistributedDlb {
    fn name(&self) -> &'static str {
        "distributed DLB"
    }

    fn after_level_step(&mut self, mut ctx: LbContext<'_>, level: usize) -> SimResult<()> {
        self.clock.enter(Phase::Decide, level);
        // Keep the per-group load series current at every level: the
        // history snapshot only refreshes after level-0 steps, but the
        // proactive trigger wants to see what refinement just did.
        let sys = ctx.sim.system().clone();
        // refresh the crash-stop view before any balancing decision
        let t = ctx.sim.elapsed();
        self.alive = (0..sys.nprocs())
            .map(|p| ctx.sim.alive_at(ProcId(p), t))
            .collect();
        if sys.ngroups() >= 2 {
            self.observe_group_loads(&ctx, &sys);
        }
        if level == 0 {
            self.global_phase(&mut ctx, None, 0);
            // after any global motion, even out level 0 within each group
            self.local_phase(&mut ctx, 0);
        } else {
            self.local_phase(&mut ctx, level);
            self.maybe_proactive_check(&mut ctx, level);
        }
        self.forward_fault_events(&ctx);
        self.clock.stop();
        Ok(())
    }

    fn place_new_patches(
        &mut self,
        hier: &GridHierarchy,
        sys: &DistributedSystem,
        _level: usize,
        parents: &[usize],
        sizes: &[i64],
    ) -> Vec<usize> {
        // Children are placed inside their parent's group only — the
        // mechanism that removes parent↔child remote communication.
        let all_loads = proc_total_cells(hier, sys.nprocs());
        let alive = self.alive_mask(sys.nprocs());
        let mut owners = vec![0usize; parents.len()];
        for g in sys.groups() {
            let idxs: Vec<usize> = (0..parents.len())
                .filter(|&i| sys.group_of(ProcId(parents[i])) == g.id)
                .collect();
            if idxs.is_empty() {
                continue;
            }
            // never place a child on a crashed proc; a fully-dead group
            // falls back to its nameplate roster (nothing better exists —
            // the next evacuation pass will move the work out)
            let mut gprocs: Vec<ProcId> =
                g.procs.iter().copied().filter(|p| alive[p.0]).collect();
            if gprocs.is_empty() {
                gprocs = g.procs.clone();
            }
            let gloads: Vec<i64> = gprocs.iter().map(|p| all_loads[p.0]).collect();
            let gweights: Vec<f64> = gprocs.iter().map(|p| sys.proc(*p).weight).collect();
            let gsizes: Vec<i64> = idxs.iter().map(|&i| sizes[i]).collect();
            let placed = place_batch(&gloads, &gweights, &gsizes);
            for (k, &i) in idxs.iter().enumerate() {
                owners[i] = gprocs[placed[k]].0;
            }
        }
        owners
    }
}

/// Two 2-processor groups over one WAN link, and the 8-grid hierarchy and
/// one-snapshot history the tests of all three modules put on them.
#[cfg(test)]
mod testkit {
    use crate::history::WorkloadHistory;
    use samr_mesh::hierarchy::GridHierarchy;
    use samr_mesh::{ivec3, region};
    use topology::link::Link;
    use topology::{DistributedSystem, SimTime, SystemBuilder, TrafficModel};

    pub(super) fn wan_sys(quiet: bool) -> DistributedSystem {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = if quiet {
            Link::dedicated("wan", SimTime::from_millis(5), 2e7)
        } else {
            Link::shared(
                "wan",
                SimTime::from_millis(5),
                2e7,
                TrafficModel::Constant { load: 0.98 },
            )
        };
        SystemBuilder::new()
            .group("A", 2, 1.0, intra.clone())
            .group("B", 2, 1.0, intra)
            .connect(0, 1, wan)
            .build()
    }

    /// 8 level-0 grids, `na` of them on proc 0 (group A), rest on proc 2.
    pub(super) fn hier_split(na: i64) -> GridHierarchy {
        let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(64, 8, 8)), 2, 4, 1, 1);
        for i in 0..8 {
            let owner = if i < na { 0 } else { 2 };
            h.insert_patch(
                0,
                region(ivec3(8 * i, 0, 0), ivec3(8 * (i + 1), 8, 8)),
                None,
                owner,
            );
        }
        h
    }

    pub(super) fn history_for(h: &GridHierarchy, nprocs: usize, t: f64) -> WorkloadHistory {
        let mut hist = WorkloadHistory::new(nprocs);
        let loads = vec![h.level_load_by_owner(0, nprocs)];
        hist.record_snapshot(loads, vec![1]);
        hist.record_step_time(t);
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use simnet::SimView;
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder};

    #[test]
    fn local_phase_never_crosses_groups() {
        let sys = wan_sys(true);
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(6);
        let mut history = history_for(&hier, 4, 10.0);
        let mut dlb = DistributedDlb::default();
        // fine-level step: local phase only
        dlb.after_level_step(
            LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            1,
        )
        .unwrap();
        // group A still owns 6 grids' worth of cells, B 2 — but spread
        // within each group
        let sys = sim.system().clone();
        assert_eq!(crate::partition::group_level0_cells(&hier, &sys, 0), 3072);
        assert_eq!(crate::partition::group_level0_cells(&hier, &sys, 1), 1024);
        assert_eq!(sim.stats().msgs.remote_msgs, 0, "no WAN traffic in local phase");
        assert!(dlb.decisions.is_empty(), "no global decision at fine levels");
    }

    #[test]
    fn placement_keeps_children_in_parent_group() {
        let sys = wan_sys(true);
        let hier = hier_split(4);
        let mut dlb = DistributedDlb::default();
        let parents = vec![0, 0, 2, 2, 0];
        let sizes = vec![100, 200, 300, 400, 500];
        let owners = dlb.place_new_patches(&hier, &sys, 1, &parents, &sizes);
        for (i, &o) in owners.iter().enumerate() {
            let pg = sys.group_of(ProcId(parents[i]));
            let og = sys.group_of(ProcId(o));
            assert_eq!(pg, og, "child {i} left its parent's group");
        }
    }

    #[test]
    fn single_group_global_phase_noop() {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let sys = SystemBuilder::new().group("A", 4, 1.0, intra).build();
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(8);
        let mut history = history_for(&hier, 4, 10.0);
        let mut dlb = DistributedDlb::default();
        dlb.after_level_step(
            LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            0,
        )
        .unwrap();
        assert!(dlb.decisions.is_empty());
        // but local phase still evens out the single group
        let loads = hier.level_load_by_owner(0, 4);
        assert!(loads.iter().all(|&l| l == 1024), "{loads:?}");
    }
}
