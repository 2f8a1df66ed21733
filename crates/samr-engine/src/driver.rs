//! The SAMR driver: recursive sub-cycled integration (Fig. 2 of the paper)
//! with ghost exchange, regridding, restriction, workload accounting, and
//! the DLB hook points of Fig. 4/5 — all on simulated time.
//!
//! Real numerics run on the patch data (so refinement follows the physics);
//! *timing* is charged to the simulator according to grid ownership: solver
//! work to the owning processor, boundary windows and migrations as messages
//! over the links between owners. The driver holds a [`SimView`] rather than
//! owning a simulator, so it runs identically standalone (exclusive view)
//! and as one tenant of a shared substrate clock.

use crate::app::AppState;
use crate::config::{RunConfig, RunResult};
use crate::scheme::SchemeInstance;
use crate::trace::{RunTrace, StepFaults, StepForecast, StepRecord, StepRecovery};
use dlb::{decompose_domain, LbContext, ProcHealth, WorkloadHistory};
use par::for_each_task_parallel;
use samr_mesh::checkpoint::HierarchySnapshot;
use samr_mesh::cluster::{berger_rigoutsos, ClusterParams};
use samr_mesh::field::Field3;
use samr_mesh::hierarchy::{BoxIndex, FillSource, GridHierarchy};
use samr_mesh::interp::{prolong_constant_fields, restrict_average};
use samr_mesh::patch::PatchId;
use samr_mesh::region::Region;
use simnet::{send_with_retry, Activity, SimView};
use topology::{DistributedSystem, ProcId, SimTime};

/// Snapshot of a retired patch's data, used to seed re-created fine grids.
#[derive(Clone, Debug)]
struct OldPatch {
    region: Region,
    owner: usize,
    fields: Vec<Field3>,
}

/// The SAMR execution driver.
pub struct Driver {
    cfg: RunConfig,
    app: AppState,
    sim: SimView,
    hier: GridHierarchy,
    history: WorkloadHistory,
    scheme: SchemeInstance,
    /// Steps completed per level (drives regrid cadence).
    step_count: Vec<u64>,
    /// Stashed data of cleared fine levels, by level; each is freed once
    /// the regrid that rebuilds its level has read it.
    old_data: Vec<Vec<OldPatch>>,
    /// Total cell updates executed (the workload measure).
    cell_updates: u64,
    /// Per-step trace.
    trace: RunTrace,
    /// Bulk boundary/regrid transfers that failed even after retries (the
    /// run tolerates them: the receiver advances with stale ghost data).
    failed_transfers: u64,
    /// Successful retries of bulk transfers.
    transfer_retries: u64,
    /// Cumulative fault counters already attributed to step records.
    faults_seen: StepFaults,
    /// Static per-processor weight table (weights are fixed for a run's
    /// lifetime), so hot loops price work without cloning the system.
    proc_weights: Vec<f64>,
    /// Host wall-clock seconds per phase (reset when `run` starts measuring).
    wall: metrics::PhaseWall,
    /// Host seconds of `wall.ghost` by part of the planned exchange.
    ghost_wall: metrics::GhostWall,
    /// Most grids alive at any point of the run.
    peak_patches: usize,
    /// Liveness edge detector for crash-stop proc faults.
    proc_health: ProcHealth,
    /// Simulated time each currently-dead proc's crash was detected at.
    crashed_at: std::collections::BTreeMap<usize, SimTime>,
    /// Per-step checkpoint crash recovery restores patch data from
    /// (only maintained while the run has proc faults).
    recovery_snapshot: Option<HierarchySnapshot>,
    /// Crash-stop activity of the step in flight, drained into its record.
    recovery_pending: StepRecovery,
    /// Per-crash MTTR samples (crash onset to evacuation complete).
    mttrs: Vec<f64>,
    /// Evacuations that actually moved patches.
    evacuations: u64,
}

impl Driver {
    /// Build a driver: decompose the level-0 domain over the processors
    /// (proportional to their weights), initialize the application fields,
    /// and construct the initial refinement hierarchy.
    pub fn new(sys: DistributedSystem, cfg: RunConfig) -> Driver {
        Driver::new_on(SimView::new(sys), cfg)
    }

    /// Build a driver over an existing simulator view: exclusive
    /// ([`SimView::new`]) for a standalone run, or a tenant view carved from
    /// a shared [`simnet::SimHandle`] so several drivers advance one clock.
    /// Proc-fault schedules require an exclusive view — a shared substrate
    /// has one global fault timeline, not per-tenant ones.
    pub fn new_on(sim: SimView, cfg: RunConfig) -> Driver {
        let app = AppState::new(cfg.app, cfg.n0, cfg.seed);
        let domain = Region::cube(cfg.n0);
        let mut hier = GridHierarchy::new(
            domain,
            cfg.refine_factor,
            cfg.max_levels,
            app.nfields(),
            app.ghost(),
        );
        // initial decomposition: one slab per processor, weighted
        let shares: Vec<f64> = sim.system().procs().iter().map(|p| p.weight).collect();
        for (region, proc_ix) in decompose_domain(domain, &shares) {
            let id = hier.insert_patch(0, region, None, proc_ix);
            app.init_patch(hier.patch_mut(id));
        }
        let history = WorkloadHistory::new(sim.system().nprocs());
        let mut d = Driver::from_parts(sim, cfg, app, hier, history, Vec::new(), 0);
        // build the initial hierarchy: regrid cascade, no timing charged
        // (setup happens before the measured run on all schemes equally)
        for l in 0..d.cfg.max_levels - 1 {
            if d.hier.level_ids(l).is_empty() {
                break;
            }
            d.exchange_ghosts(l);
            d.regrid(l);
        }
        d.peak_patches = d.hier.num_patches();
        d
    }

    /// The simulated system.
    pub fn system(&self) -> &DistributedSystem {
        self.sim.system()
    }

    /// The hierarchy (for inspection/tests).
    pub fn hierarchy(&self) -> &GridHierarchy {
        &self.hier
    }

    /// The simulator view (for inspection/tests).
    pub fn sim(&self) -> &SimView {
        &self.sim
    }

    /// Mutable simulator view — the tenant service charges inter-tenant
    /// migration traffic and remaps group views through this.
    pub fn sim_mut(&mut self) -> &mut SimView {
        &mut self.sim
    }

    /// Decision log of the distributed scheme (empty otherwise).
    pub fn decisions(&self) -> &[dlb::GlobalDecision] {
        self.scheme.decisions()
    }

    /// The workload-history records feeding the DLB heuristics.
    pub fn history(&self) -> &WorkloadHistory {
        &self.history
    }

    /// Per-step trace of the run so far.
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    /// The application state (particles, wells, criteria).
    pub fn app(&self) -> &AppState {
        &self.app
    }

    /// Steps completed per level.
    pub fn step_counts(&self) -> &[u64] {
        &self.step_count
    }

    /// Cell updates executed so far.
    pub fn cell_updates_so_far(&self) -> u64 {
        self.cell_updates
    }

    /// Host wall-clock seconds per phase so far.
    pub fn phase_wall(&self) -> metrics::PhaseWall {
        self.wall
    }

    /// Assemble a driver around a hierarchy taken as-is — a restored one
    /// (checkpoint resume) or [`Driver::new_on`]'s level-0 decomposition.
    /// No regrid cascade runs, and simulated time starts at zero.
    pub(crate) fn from_parts(
        sim: SimView,
        cfg: RunConfig,
        app: AppState,
        hier: GridHierarchy,
        history: WorkloadHistory,
        step_count: Vec<u64>,
        cell_updates: u64,
    ) -> Driver {
        let proc_weights: Vec<f64> = sim.system().procs().iter().map(|p| p.weight).collect();
        let nprocs = sim.system().nprocs();
        let mut d = Driver {
            scheme: cfg.scheme.instantiate(),
            cfg,
            app,
            sim,
            hier,
            history,
            step_count,
            old_data: Vec::new(),
            cell_updates,
            trace: RunTrace::default(),
            failed_transfers: 0,
            transfer_retries: 0,
            faults_seen: StepFaults::default(),
            proc_weights,
            wall: metrics::PhaseWall::default(),
            ghost_wall: metrics::GhostWall::default(),
            peak_patches: 0,
            proc_health: ProcHealth::new(nprocs),
            crashed_at: Default::default(),
            recovery_snapshot: None,
            recovery_pending: StepRecovery::default(),
            mttrs: Vec::new(),
            evacuations: 0,
        };
        // the sim owns the run's telemetry handle: the scheme reaches it via
        // LbContext, and sim.reset() clears setup-time records
        d.sim.set_telemetry(d.cfg.telemetry.clone());
        if !d.cfg.proc_faults.is_quiet() {
            d.sim.set_proc_faults(d.cfg.proc_faults.clone());
        }
        d.old_data = vec![Vec::new(); d.cfg.max_levels];
        d.step_count.resize(d.cfg.max_levels, 0);
        d.peak_patches = d.hier.num_patches();
        d
    }

    /// Execute `cfg.steps` level-0 timesteps and report. Setup (initial
    /// decomposition and hierarchy construction) is excluded from the
    /// measured time — identically for every scheme.
    pub fn run(mut self) -> RunResult {
        self.sim.reset();
        // wall timers restart with simulated time: both exclude setup
        self.wall = metrics::PhaseWall::default();
        self.ghost_wall = metrics::GhostWall::default();
        for _ in 0..self.cfg.steps {
            self.step_once();
        }
        self.finish()
    }

    /// Advance one level-0 timestep (with all its sub-cycled fine steps and
    /// balancing). Useful for inspecting the hierarchy/decisions mid-run;
    /// callers driving steps manually should `sim` inspect between calls and
    /// end with [`Driver::finish`].
    pub fn step_once(&mut self) {
        let t0 = self.sim.barrier_all();
        if self.sim.has_proc_faults() {
            self.handle_proc_transitions(t0);
            self.refresh_recovery_snapshot();
        }
        let decisions_before = self.scheme.decisions().len();
        let redists_before = self
            .scheme
            .decisions()
            .iter()
            .filter(|d| d.invoked)
            .count();
        self.advance_level(0);
        self.peak_patches = self.peak_patches.max(self.hier.num_patches());
        let t1 = self.sim.barrier_all();
        self.history.record_step_time((t1 - t0).as_secs_f64());

        // a redistribution aborted this step wasted real work — the
        // rollback's cost becomes the δ the next cost evaluation sees
        let abort_delta: f64 = self.scheme.decisions()[decisions_before..]
            .iter()
            .filter(|d| d.aborted)
            .map(|d| d.abort_delta_secs)
            .sum();
        if abort_delta > 0.0 {
            self.history.record_redistribution_overhead(abort_delta);
        }

        // trace record
        let nlevels = self.hier.num_levels();
        let sys = self.sim.system();
        let mut group_workload = vec![0f64; sys.ngroups()];
        for p in self.hier.iter() {
            let w = (self.cfg.refine_factor as f64).powi(p.level as i32);
            group_workload[sys.group_of(ProcId(p.owner)).0] += p.cells() as f64 * w;
        }
        let redists_after = self
            .scheme
            .decisions()
            .iter()
            .filter(|d| d.invoked)
            .count();
        let cum = self.cumulative_faults();
        let prev = self.faults_seen;
        let faults = StepFaults {
            retries: cum.retries - prev.retries,
            aborts: cum.aborts - prev.aborts,
            quarantines: cum.quarantines - prev.quarantines,
            readmissions: cum.readmissions - prev.readmissions,
            comm_failures: cum.comm_failures - prev.comm_failures,
            recovery_secs: cum.recovery_secs - prev.recovery_secs,
        };
        self.faults_seen = cum;
        let fsum = self.scheme.forecast_summary();

        // continuous metrics: one sample per series per level-0 step, on
        // simulated time. Pure observation of already-computed state, so
        // recording stays bit-identical to the null handle.
        let tel = self.sim.telemetry();
        if tel.is_enabled() {
            let t = t1.as_secs_f64();
            // power-normalized inter-group imbalance (max/mean of load per
            // unit of alive power), the ratio the γ-gate reasons about
            let mut norm: Vec<f64> = Vec::with_capacity(group_workload.len());
            for (g, &w) in group_workload.iter().enumerate() {
                let p = self.sim.alive_group_power(topology::GroupId(g));
                tel.metric(t, &format!("group_load:g{g}"), w);
                tel.metric(t, &format!("alive_power:g{g}"), p);
                if p > 0.0 {
                    norm.push(w / p);
                }
            }
            let mean = norm.iter().sum::<f64>() / norm.len().max(1) as f64;
            let imb = if mean > 0.0 {
                norm.iter().cloned().fold(0.0f64, f64::max) / mean
            } else {
                1.0
            };
            tel.metric(t, "imbalance", imb);
            tel.metric(t, "forecast_alpha_mae", fsum.alpha_mae);
            tel.metric(t, "forecast_beta_mae", fsum.beta_mae);
            tel.metric(t, "forecast_load_mae", fsum.load_mae);
            tel.metric(t, "procs_down", self.crashed_at.len() as f64);
        }

        self.trace.push(StepRecord {
            step: self.step_count[0].saturating_sub(1),
            step_secs: (t1 - t0).as_secs_f64(),
            elapsed_secs: t1.as_secs_f64(),
            grids_per_level: (0..nlevels).map(|l| self.hier.level_ids(l).len()).collect(),
            cells_per_level: (0..nlevels).map(|l| self.hier.level_cells(l)).collect(),
            group_workload,
            redistributed: redists_after > redists_before,
            forecast: StepForecast {
                alpha_mae: fsum.alpha_mae,
                beta_mae: fsum.beta_mae,
                load_mae: fsum.load_mae,
            },
            faults,
            recovery: std::mem::take(&mut self.recovery_pending),
        });
    }

    /// Crash-stop bookkeeping at a step boundary: observe liveness at `t0`,
    /// evacuate the patches of newly dead procs (reconstructing their data
    /// from the recovery checkpoint and charging the survivors for the lost
    /// sub-steps), and log rejoins — a recovered proc re-enters with zero
    /// load and is refilled by the normal DLB phases.
    fn handle_proc_transitions(&mut self, t0: SimTime) {
        let nprocs = self.sim.system().nprocs();
        let alive: Vec<bool> = (0..nprocs)
            .map(|p| self.sim.alive_at(ProcId(p), t0))
            .collect();
        let trans = self.proc_health.observe(&alive);
        if trans.is_empty() {
            return;
        }
        let step = self.step_count[0];
        let cost = self.cost_per_cell();
        for &p in &trans.crashed {
            let group = self.sim.system().group_of(ProcId(p)).0;
            self.sim.telemetry().event(
                t0.as_secs_f64(),
                telemetry::EventKind::Crash(telemetry::CrashEvent {
                    step,
                    proc: p,
                    group,
                }),
            );
            self.crashed_at.insert(p, t0);
            let report = dlb::evacuate_proc(&mut self.hier, &mut self.sim, ProcId(p), &alive);
            // The dead proc's memory is gone: rebuild each moved patch from
            // the checkpoint and charge its new owner for recomputing the
            // level-0 step the checkpoint is behind by.
            let mut recompute_cells = 0i64;
            let mut recompute_secs = 0.0f64;
            for m in &report.moves {
                self.restore_from_recovery_snapshot(m.patch);
                let iters = (self.cfg.refine_factor as f64).powi(m.level as i32);
                let secs = m.cells as f64 * iters * cost / self.proc_weights[m.to];
                self.sim.compute(ProcId(m.to), secs);
                recompute_cells += m.cells;
                recompute_secs += secs;
            }
            let onset = self.sim.proc_faults().crash_start(p, t0).unwrap_or(t0);
            let done = self.sim.elapsed();
            let mttr = (done - onset).as_secs_f64();
            self.mttrs.push(mttr);
            if !report.is_empty() {
                self.evacuations += 1;
                self.sim.telemetry().event(
                    done.as_secs_f64(),
                    telemetry::EventKind::Evacuate(telemetry::EvacuateEvent {
                        step,
                        proc: p,
                        patches: report.moves.len(),
                        cells: report.evacuated_cells,
                        bytes: report.moved_bytes,
                        intra: report.intra,
                        inter: report.inter,
                        recompute_cells,
                    }),
                );
            }
            self.recovery_pending.crashes += 1;
            self.recovery_pending.evacuated_cells += report.evacuated_cells;
            self.recovery_pending.mttr_secs += mttr;
            self.recovery_pending.recompute_secs += recompute_secs;
        }
        for &p in &trans.rejoined {
            let group = self.sim.system().group_of(ProcId(p)).0;
            let downtime = self
                .crashed_at
                .remove(&p)
                .map(|c| (t0 - c).as_secs_f64())
                .unwrap_or(0.0);
            self.sim.telemetry().event(
                t0.as_secs_f64(),
                telemetry::EventKind::Rejoin(telemetry::RejoinEvent {
                    step,
                    proc: p,
                    group,
                    downtime_secs: downtime,
                }),
            );
            self.recovery_pending.rejoins += 1;
        }
        debug_assert!(self.hier.check_invariants().is_ok());
    }

    /// Overwrite `id`'s fields with checkpointed data wherever the
    /// checkpoint covers it. Patch ids churn with every regrid, so snapshot
    /// patches are matched by level and region overlap; uncovered cells
    /// keep their current values.
    fn restore_from_recovery_snapshot(&mut self, id: PatchId) {
        let Some(snap) = &self.recovery_snapshot else {
            return;
        };
        let (level, region) = {
            let p = self.hier.patch(id);
            (p.level, p.region)
        };
        for sp in snap.patches.iter().filter(|sp| sp.level == level) {
            let w = sp.region.intersect(&region);
            if w.is_empty() {
                continue;
            }
            let patch = self.hier.patch_mut(id);
            for (k, sf) in sp.fields.iter().enumerate() {
                patch.fields[k].copy_from(sf, &w);
            }
        }
    }

    /// Re-take the crash-recovery checkpoint at a step boundary.
    fn refresh_recovery_snapshot(&mut self) {
        // free the old one first, so the two never coexist
        self.recovery_snapshot = None;
        self.recovery_snapshot = Some(samr_mesh::checkpoint::snapshot_in(
            &self.hier,
            self.hier.pool(),
        ));
    }

    /// Fault counters since the start of the run: the scheme's protocol
    /// counters plus the driver's own bulk-transfer bookkeeping.
    fn cumulative_faults(&self) -> StepFaults {
        let s = self.scheme.fault_stats();
        StepFaults {
            retries: s.retries + self.transfer_retries,
            aborts: s.aborts,
            quarantines: s.quarantines,
            readmissions: s.readmissions,
            comm_failures: s.comm_failures + self.failed_transfers,
            recovery_secs: s.recovery_secs,
        }
    }

    /// Synchronize trailing work and produce the run report.
    pub fn finish(mut self) -> RunResult {
        let total = self.sim.finish();
        self.into_result(total)
    }

    fn into_result(self, total: SimTime) -> RunResult {
        let stats = self.sim.stats();
        let sys = self.sim.system();
        let breakdown = metrics::RunBreakdown {
            total: total.as_secs_f64(),
            compute: stats.max_compute().as_secs_f64(),
            comm: stats.max_comm().as_secs_f64(),
            comm_local: stats
                .procs
                .iter()
                .map(|p| p.local_comm.as_secs_f64())
                .sum::<f64>()
                / sys.nprocs() as f64,
            comm_remote: stats
                .procs
                .iter()
                .map(|p| p.remote_comm.as_secs_f64())
                .sum::<f64>()
                / sys.nprocs() as f64,
            lb: stats.mean_lb_secs(),
            remote_msgs: stats.msgs.remote_msgs,
            remote_bytes: stats.msgs.remote_bytes,
        };
        let scheme_stats = self.scheme.fault_stats();
        let faults = metrics::FaultCounters {
            probe_failures: scheme_stats.probe_failures,
            retries: scheme_stats.retries + self.transfer_retries,
            aborts: scheme_stats.aborts,
            quarantines: scheme_stats.quarantines,
            readmissions: scheme_stats.readmissions,
            comm_failures: scheme_stats.comm_failures + self.failed_transfers,
            recovery_secs: scheme_stats.recovery_secs,
        };
        let fsum = self.scheme.forecast_summary();
        let forecast = metrics::ForecastStats {
            alpha_mae: fsum.alpha_mae,
            beta_mae: fsum.beta_mae,
            load_mae: fsum.load_mae,
            scored_probes: fsum.scored_probes,
            proactive_checks: fsum.proactive_checks,
            proactive_invocations: fsum.proactive_invocations,
        };
        let rt = self.trace.recovery_totals();
        let (mttr_mean, mttr_max) = if self.mttrs.is_empty() {
            (0.0, 0.0)
        } else {
            (
                self.mttrs.iter().sum::<f64>() / self.mttrs.len() as f64,
                self.mttrs.iter().copied().fold(0.0, f64::max),
            )
        };
        let recovery = metrics::RecoveryStats {
            crashes: rt.crashes,
            rejoins: rt.rejoins,
            evacuations: self.evacuations,
            evacuated_cells: rt.evacuated_cells,
            mttr_mean_secs: mttr_mean,
            mttr_max_secs: mttr_max,
            recompute_secs: rt.recompute_secs,
        };
        let pool = self.hier.pool().stats();
        self.sim
            .telemetry()
            .stat_block("field_pool", &[("allocations", pool.misses)]);
        let (estimator_pairs, decision_msgs) = self.scheme.decision_net();
        self.sim.telemetry().stat_block(
            "decision_phase",
            &[
                ("estimator_pairs", estimator_pairs),
                ("decision_msgs", decision_msgs),
            ],
        );
        // Final power-normalized imbalance, from the hierarchy's end state:
        // (max_g W_g/P_g) / (mean_g W_g/P_g) over groups with surviving
        // power. The mean-based ratio stays finite even when a group ends
        // the run empty, so scale sweeps can compare it across runs.
        let final_imbalance = {
            let per_proc = dlb::proc_total_cells(&self.hier, sys.nprocs());
            let mut loads = vec![0.0f64; sys.ngroups()];
            for (p, &cells) in per_proc.iter().enumerate() {
                loads[sys.group_of(ProcId(p)).0] += cells as f64;
            }
            let norms: Vec<f64> = (0..sys.ngroups())
                .filter_map(|g| {
                    let p = self.sim.alive_group_power(topology::GroupId(g));
                    (p > 0.0).then(|| loads[g] / p)
                })
                .collect();
            let mean = norms.iter().sum::<f64>() / norms.len().max(1) as f64;
            if norms.len() < 2 || mean <= 0.0 {
                1.0
            } else {
                norms.iter().copied().fold(0.0, f64::max) / mean
            }
        };
        let decisions = self.scheme.decisions();
        RunResult {
            scheme: self.scheme.name().to_string(),
            system: sys.describe(),
            app: self.cfg.app,
            total_secs: total.as_secs_f64(),
            breakdown,
            steps: self.cfg.steps,
            levels: self.hier.num_levels(),
            final_patches: self.hier.num_patches(),
            peak_patches: self.peak_patches.max(self.hier.num_patches()),
            wall: self.wall,
            ghost_wall: self.ghost_wall,
            dlb_wall: self.scheme.dlb_wall(),
            cell_updates: self.cell_updates,
            global_checks: decisions.len(),
            global_redistributions: decisions.iter().filter(|d| d.invoked).count(),
            faults,
            forecast,
            recovery,
            pool,
            final_imbalance,
            estimator_pairs,
            decision_msgs,
            decisions: decisions
                .iter()
                .map(|d| crate::config::DecisionSummary {
                    step: d.step,
                    gain_secs: d.gain.gain_secs,
                    cost_secs: d.cost.map(|c| c.total_secs()),
                    imbalance: d.gain.imbalance_ratio,
                    invoked: d.invoked,
                    aborted: d.aborted,
                    moved_cells: d.report.as_ref().map(|r| r.moved_cells).unwrap_or(0),
                    group_loads: d.gain.group_loads.clone(),
                })
                .collect(),
            telemetry_summary: self.sim.telemetry().summary(),
        }
    }

    /// One timestep at `level` (Fig. 4 flow): exchange ghosts, solve, regrid
    /// the next finer level, recurse `r` sub-steps into it, restrict, then
    /// hand control to the load balancer.
    fn advance_level(&mut self, level: usize) {
        self.exchange_ghosts(level);
        self.solve_level(level);
        if level == 0 {
            let dt0 = self.app.dt_over_dx0(); // dx0 = 1
            self.app.post_level0_step(dt0, self.hier.domain());
        }

        // regrid: rebuild level+1 from this level's flags
        let may_refine = level + 1 < self.cfg.max_levels;
        if may_refine && self.step_count[level].is_multiple_of(self.cfg.regrid_interval as u64) {
            self.regrid(level);
        }

        // sub-cycle the finer level
        if !self.hier.level_ids(level + 1).is_empty() {
            for _ in 0..self.cfg.refine_factor {
                self.advance_level(level + 1);
            }
            self.restrict_level(level + 1);
        }

        // workload records must be fresh before the level-0 decision
        if level == 0 {
            self.update_history_snapshot();
        }
        let ctx = LbContext {
            hier: &mut self.hier,
            sim: &mut self.sim,
            history: &mut self.history,
        };
        // A fault-tolerant scheme absorbs link failures itself; a baseline
        // scheme without a degraded mode skips this step's balancing when
        // its load exchange dies. Either way the run continues.
        {
            let t0 = std::time::Instant::now();
            let _span = telemetry::span!(self.cfg.telemetry, "decision", level);
            if self.scheme.after_level_step(ctx, level).is_err() {
                self.failed_transfers += 1;
            }
            self.wall.decision += t0.elapsed().as_secs_f64();
        }
        self.step_count[level] += 1;
    }

    /// Ship one aggregated boundary/regrid payload between owners, retrying
    /// per the run's comm policy. A transfer that still fails is tolerated —
    /// the receiver advances with stale ghost data — and counted.
    fn send_batch(&mut self, src: usize, dst: usize, bytes: u64) {
        let (s, d) = (ProcId(src), ProcId(dst));
        let act = if self.sim.system().group_of(s) == self.sim.system().group_of(d) {
            Activity::LocalComm
        } else {
            Activity::RemoteComm
        };
        let (retries, res) =
            send_with_retry(&mut self.sim, s, d, bytes, act, None, self.cfg.comm_retry);
        if res.is_ok() {
            self.transfer_retries += retries as u64;
        } else {
            self.failed_transfers += 1;
        }
    }

    /// Effective per-cell compute cost (config override or app default).
    fn cost_per_cell(&self) -> f64 {
        self.cfg.cost_per_cell.unwrap_or_else(|| self.app.cost_per_cell())
    }

    /// Record `w_proc^i(t)` and `N_iter^i(t)` for the gain heuristic.
    fn update_history_snapshot(&mut self) {
        let nprocs = self.sim.system().nprocs();
        let nlevels = self.hier.num_levels();
        let loads: Vec<Vec<i64>> = (0..nlevels)
            .map(|l| self.hier.level_load_by_owner(l, nprocs))
            .collect();
        let n_iter: Vec<u32> = (0..nlevels)
            .map(|l| (self.cfg.refine_factor as u32).pow(l as u32))
            .collect();
        self.history.record_snapshot(loads, n_iter);
    }

    /// Solve every grid at `level` once. Real numerics run on the worker
    /// pool across patches; simulated compute time is charged to each owner.
    fn solve_level(&mut self, level: usize) {
        let ids: Vec<PatchId> = self.hier.level_ids(level).to_vec();
        if ids.is_empty() {
            return;
        }
        let t0 = std::time::Instant::now();
        let _span = telemetry::span!(self.cfg.telemetry, "solve", level);
        let dt_over_dx = self.app.dt_over_dx0(); // constant Courant per level
        // take the field data out, step in parallel, put it back
        let mut work: Vec<(PatchId, Vec<Field3>)> = ids
            .iter()
            .map(|&id| (id, std::mem::take(&mut self.hier.patch_mut(id).fields)))
            .collect();
        let (app, pool) = (&self.app, self.hier.pool());
        for_each_task_parallel(&mut work, |_, (_, fields)| {
            app.step_patch(fields, dt_over_dx, pool);
        });
        for (id, fields) in work {
            self.hier.patch_mut(id).fields = fields;
        }
        // charge simulated solver time per owner
        let cost = self.cost_per_cell();
        for &id in &ids {
            let p = self.hier.patch(id);
            let weight = self.proc_weights[p.owner];
            let secs = p.cells() as f64 * cost / weight;
            self.sim.compute(ProcId(p.owner), secs);
            self.cell_updates += p.cells() as u64;
        }
        self.wall.solve += t0.elapsed().as_secs_f64();
    }

    /// Fill ghost zones at `level`: physical boundaries by zero-gradient,
    /// interior boundaries from siblings, the rest from the parent grids.
    /// Data really moves, and each inter-owner window is charged as a
    /// message.
    ///
    /// This is the direct zero-copy path, driven by the level's cached
    /// [`LevelTopology`](samr_mesh::LevelTopology) plan: per destination the
    /// sibling windows and the parent-filled `coarse_fill` boxes partition
    /// the ghost shell, so every ghost cell is written exactly once and
    /// nothing is staged. It is bit-identical to the test module's oracle
    /// `exchange_ghosts_reference`, which writes the whole shell
    /// three times (zero-gradient, parent, siblings) and keeps the last:
    /// the last writer of a cell is its sibling window if one covers it,
    /// else the parent (whose storage covers the whole shell of a properly
    /// nested patch), else — only at level 0 — the zero-gradient fill. Every
    /// read comes from data the exchange never writes: sibling windows lie
    /// inside source *interiors* and parent fields live on the untouched
    /// coarser level.
    ///
    /// Public so that tests and tools can run one exchange by itself; a run
    /// calls it from `advance_level`.
    pub fn exchange_ghosts(&mut self, level: usize) {
        if self.hier.level_ids(level).is_empty() {
            return;
        }
        let t0 = std::time::Instant::now();
        let _span = telemetry::span!(self.cfg.telemetry, "ghost_exchange", level);
        let r = self.hier.refine_factor();
        let topo = self.hier.exchange_topology(level);
        let t_plan = std::time::Instant::now();

        // phase 1: per destination, the ghost cells no sibling fills — by
        // prolongation straight from the parent's fields, or at level 0
        // (where only cells outside the domain are left) by zero-gradient
        // over the whole shell, which phase 2 then overwrites where siblings
        // exist. Parallel across destinations: each writes only its own
        // ghost cells, and the parents live on the coarser level, which
        // stays in the hierarchy (only `level`'s fields are taken out) and
        // is never written here.
        let mut work: Vec<Vec<Field3>> = topo
            .shells
            .iter()
            .map(|s| std::mem::take(&mut self.hier.patch_mut(s.id).fields))
            .collect();
        let hier = &self.hier;
        let shells = &topo.shells;
        for_each_task_parallel(&mut work, |i, fields| {
            let shell = &shells[i];
            match shell.parent {
                None if shell.coarse_fill.is_empty() => {}
                None => fields
                    .iter_mut()
                    .for_each(Field3::fill_ghosts_zero_gradient),
                Some(parent) => {
                    let parent = hier.patch(parent);
                    for b in &shell.coarse_fill {
                        prolong_constant_fields(&parent.fields, fields, b, r);
                    }
                }
            }
        });
        let t_coarse = std::time::Instant::now();

        // phase 2: sibling windows, source→destination directly, one round
        // of the plan at a time. The field sets of a round's blocks of
        // destinations are taken out of `work` and written concurrently,
        // one task per block; a source is either in the task's own block
        // (a pair borrow inside it) or in no block of the round, so it
        // stayed in `work` and is read through the shared borrow. Every
        // ghost cell has one writer, and every read is of an interior,
        // which no phase writes: neither the order of the rounds nor the
        // order inside one can change a value, and the result is the
        // reference exchange's staged clones'. A round of a single block is not
        // worth waking the pool for and runs the same take / copy / put
        // back on this thread.
        let mut taken: Vec<(usize, Vec<Vec<Field3>>)> = Vec::new();
        for round in &topo.rounds {
            taken.extend(round.iter().map(|&b| {
                let slots = topo.block_slots(b);
                let fields = work[slots.clone()].iter_mut().map(std::mem::take).collect();
                (slots.start, fields)
            }));
            let outside = &work;
            let copy_block = |(first, block): &mut (usize, Vec<Vec<Field3>>)| {
                for i in 0..block.len() {
                    let d = *first + i;
                    let run = topo.first_overlap[d] as usize..topo.first_overlap[d + 1] as usize;
                    for (o, &(si, _)) in topo.overlaps[run.clone()]
                        .iter()
                        .zip(&topo.overlap_slots[run])
                    {
                        let si = si as usize;
                        let (src, dst) = if si < *first || si >= *first + block.len() {
                            (&outside[si], &mut block[i])
                        } else if si < d {
                            let (a, b) = block.split_at_mut(i);
                            (&a[si - *first], &mut b[0])
                        } else {
                            let (a, b) = block.split_at_mut(si - *first);
                            (&b[0], &mut a[i])
                        };
                        // a taken (empty) source would silently copy nothing
                        assert_eq!(src.len(), dst.len(), "source taken by another block");
                        for (sf, df) in src.iter().zip(dst.iter_mut()) {
                            df.copy_from(sf, &o.window);
                        }
                    }
                }
            };
            if round.len() < 2 {
                taken.iter_mut().for_each(copy_block);
            } else {
                for_each_task_parallel(&mut taken, |_, t| copy_block(t));
            }
            for (first, block) in taken.drain(..) {
                for (i, fields) in block.into_iter().enumerate() {
                    work[first + i] = fields;
                }
            }
        }
        for (shell, fields) in topo.shells.iter().zip(work) {
            self.hier.patch_mut(shell.id).fields = fields;
        }
        let t_sibling = std::time::Instant::now();

        for ((src, dst), bytes) in self.ghost_messages(&topo) {
            self.send_batch(src, dst, bytes);
        }
        let t_end = std::time::Instant::now();
        let secs = |a: std::time::Instant, b: std::time::Instant| (b - a).as_secs_f64();
        self.ghost_wall.plan += secs(t0, t_plan);
        self.ghost_wall.coarse_fill += secs(t_plan, t_coarse);
        self.ghost_wall.sibling += secs(t_coarse, t_sibling);
        self.ghost_wall.messages += secs(t_sibling, t_end);
        self.wall.ghost += secs(t0, t_end);
    }

    /// Bytes each owner pair exchanges in one ghost fill of the level `topo`
    /// plans, in `(src, dst)` order: the whole shell from the parent's
    /// owner, every sibling window from its source's owner — the reference
    /// exchange's entries, values and send order. Owners move without a
    /// structural change, so this is per exchange.
    fn ghost_messages(&self, topo: &samr_mesh::LevelTopology) -> Vec<((usize, usize), u64)> {
        let cell_bytes = 8 * self.hier.nfields() as u64;
        let owners: Vec<usize> = topo
            .shells
            .iter()
            .map(|s| self.hier.patch(s.id).owner)
            .collect();
        let mut batch: Vec<((usize, usize), u64)> = Vec::new();
        for (shell, &owner) in topo.shells.iter().zip(&owners) {
            if let Some(parent) = shell.parent {
                let parent_owner = self.hier.patch(parent).owner;
                if parent_owner != owner {
                    batch.push(((parent_owner, owner), shell.shell_cells as u64 * cell_bytes));
                }
            }
        }
        for (o, &(si, di)) in topo.overlaps.iter().zip(&topo.overlap_slots) {
            let (src_owner, dst_owner) = (owners[si as usize], owners[di as usize]);
            if src_owner != dst_owner {
                batch.push(((src_owner, dst_owner), o.cells as u64 * cell_bytes));
            }
        }
        // one entry per owner pair, ascending: what a `BTreeMap` keyed by
        // the pair would iterate, without a tree lookup per window
        batch.sort_unstable_by_key(|&(pair, _)| pair);
        batch.dedup_by(|later, first| {
            let same = later.0 == first.0;
            if same {
                first.1 += later.1;
            }
            same
        });
        batch
    }

    /// Rebuild `level + 1` from the flags of `level`'s grids: flag, buffer,
    /// cluster (Berger–Rigoutsos), place via the DLB scheme, then fill each
    /// new grid's interior from its final sources — surviving data of the
    /// retired fine grids where they overlapped, parent prolongation
    /// elsewhere. Ghost shells are left to the next `exchange_ghosts(level +
    /// 1)`, which runs before anything reads the new level.
    fn regrid(&mut self, level: usize) {
        let t0 = std::time::Instant::now();
        let _span = telemetry::span!(self.cfg.telemetry, "regrid", level);
        self.regrid_inner(level);
        self.wall.regrid += t0.elapsed().as_secs_f64();
        self.peak_patches = self.peak_patches.max(self.hier.num_patches());
    }

    fn regrid_inner(&mut self, level: usize) {
        let r = self.hier.refine_factor();
        let ids: Vec<PatchId> = self.hier.level_ids(level).to_vec();

        // flag + buffer + cluster, parallel across parent grids; the boxes
        // are then read off in level-id order
        let cluster = ClusterParams {
            min_efficiency: 0.7,
            min_box_cells: 4,
            max_depth: 64,
            max_box_cells: self.cfg.max_box_cells,
        };
        let mut clustered: Vec<Vec<Region>> = vec![Vec::new(); ids.len()];
        let (hier, app, flag_buffer) = (&self.hier, &self.app, self.cfg.flag_buffer);
        for_each_task_parallel(&mut clustered, |i, boxes| {
            let mut flags = app.flag_patch(hier.patch(ids[i]), hier.pool());
            flags.buffer(flag_buffer);
            *boxes = berger_rigoutsos(&flags, &cluster);
        });
        let mut parents: Vec<usize> = Vec::new();
        let mut parent_ids: Vec<PatchId> = Vec::new();
        let mut regions: Vec<Region> = Vec::new();
        // charge flag/cluster work to the owners (part of adaptation)
        let cost = self.cost_per_cell() * 0.15;
        for (&id, boxes) in ids.iter().zip(&clustered) {
            let p = self.hier.patch(id);
            for coarse_box in boxes {
                parents.push(p.owner);
                parent_ids.push(id);
                regions.push(coarse_box.refine(r));
            }
            let secs = p.cells() as f64 * cost / self.proc_weights[p.owner];
            self.sim.compute(ProcId(p.owner), secs);
        }

        // stash the data of every level being cleared; the patches are about
        // to be dropped, so take their fields instead of cloning. A stash
        // has one reader, the regrid that rebuilds its level: this one for
        // level + 1, the next `regrid(l - 1)` for a deeper level l; it is
        // freed as soon as that regrid has filled the new grids from it.
        for l in (level + 1)..self.hier.num_levels() {
            let lvl_ids: Vec<PatchId> = self.hier.level_ids(l).to_vec();
            let mut stash = Vec::new();
            for id in lvl_ids {
                let p = self.hier.patch_mut(id);
                stash.push(OldPatch {
                    region: p.region,
                    owner: p.owner,
                    fields: std::mem::take(&mut p.fields),
                });
            }
            self.old_data[l] = stash;
        }
        if self.hier.num_levels() > level + 1 {
            self.hier.clear_levels_from(level + 1);
        }
        if regions.is_empty() {
            // level + 1 stays empty, so no regrid reads these stashes
            self.old_data[level + 1..].fill_with(Vec::new);
            return;
        }

        // placement decided by the DLB scheme
        let sizes: Vec<i64> = regions.iter().map(|r| r.cells()).collect();
        let owners =
            self.scheme
                .place_new_patches(&self.hier, self.sim.system(), level + 1, &parents, &sizes);

        // plan: each new patch's final sources — the retired fine grids it
        // overlaps (everything else comes from its parent) — and the
        // messages that moving those costs
        let nf = self.hier.nfields();
        let ghost = self.hier.ghost();
        let old = &self.old_data[level + 1];
        let old_index = BoxIndex::new(old.iter().map(|op| op.region));
        let mut hits = Vec::new();
        let mut batch: std::collections::BTreeMap<(usize, usize), u64> = Default::default();
        let mut sources: Vec<Vec<FillSource<'_>>> = Vec::with_capacity(regions.len());
        for (region, &owner) in regions.iter().zip(&owners) {
            let mut from_old = Vec::new();
            old_index.overlapping(region, &mut hits);
            for &oi in &hits {
                let op = &old[oi as usize];
                let window = op.region.intersect(region);
                if op.owner != owner {
                    *batch.entry((op.owner, owner)).or_default() +=
                        (window.cells() as u64) * 8 * nf as u64;
                }
                from_old.push(FillSource {
                    fields: &op.fields,
                    window,
                });
            }
            sources.push(from_old);
        }

        // the data moves in parallel across new patches, and they are
        // inserted in clustering order so ids match a serial regrid's
        let hier = &self.hier;
        let mut built: Vec<Vec<Field3>> = regions
            .iter()
            .map(|&region| {
                (0..nf)
                    .map(|_| Field3::new_in(hier.pool(), region, ghost))
                    .collect()
            })
            .collect();
        for_each_task_parallel(&mut built, |i, fields| {
            hier.fill_refined_fields(fields, parent_ids[i], &sources[i]);
        });
        // the stash has served its one reader
        drop(sources);
        self.old_data[level + 1] = Vec::new();
        for ((((region, parent_id), &owner), &parent_owner), fields) in regions
            .into_iter()
            .zip(parent_ids)
            .zip(&owners)
            .zip(&parents)
            .zip(built)
        {
            let id =
                self.hier
                    .insert_patch_with_fields(level + 1, region, parent_id, owner, fields);
            if parent_owner != owner {
                *batch.entry((parent_owner, owner)).or_default() +=
                    self.hier.patch(id).payload_bytes();
            }
        }
        for ((src, dst), bytes) in batch {
            self.send_batch(src, dst, bytes);
        }
        debug_assert!(self.hier.check_invariants().is_ok());
    }

    /// Project the fine solution onto the parents (conservative average) and
    /// charge child→parent messages where owners differ.
    ///
    /// Children are grouped by parent and the groups run in parallel: two
    /// siblings with non-`r`-aligned regions can both touch a shared coarse
    /// cell after outer coarsening, so per-child parallelism would race, but
    /// distinct parents have disjoint storage. Within a group the children
    /// keep level-id order, so the result is bit-identical to the sequential
    /// reference.
    fn restrict_level(&mut self, fine_level: usize) {
        let t0 = std::time::Instant::now();
        let _span = telemetry::span!(self.cfg.telemetry, "restrict", fine_level);
        let ids: Vec<PatchId> = self.hier.level_ids(fine_level).to_vec();
        let r = self.hier.refine_factor();
        let nf = self.hier.nfields();
        let mut batch: std::collections::BTreeMap<(usize, usize), u64> = Default::default();
        let mut group_of: std::collections::BTreeMap<PatchId, usize> = Default::default();
        let mut groups: Vec<(PatchId, Vec<(PatchId, Region)>)> = Vec::new();
        for &id in &ids {
            let p = self.hier.patch(id);
            let parent_id = p.parent.expect("fine patch has parent");
            let owner = p.owner;
            let coarse_window = p.region.coarsen(r);
            let gi = *group_of.entry(parent_id).or_insert_with(|| {
                groups.push((parent_id, Vec::new()));
                groups.len() - 1
            });
            groups[gi].1.push((id, coarse_window));
            let parent_owner = self.hier.patch(parent_id).owner;
            if parent_owner != owner {
                *batch.entry((owner, parent_owner)).or_default() +=
                    (coarse_window.cells() as u64) * 8 * nf as u64;
            }
        }
        // take each parent's fields out, restrict its children into them in
        // parallel across parents (children are read in place), put back
        let mut work: Vec<(PatchId, Vec<Field3>)> = groups
            .iter()
            .map(|(pid, _)| (*pid, std::mem::take(&mut self.hier.patch_mut(*pid).fields)))
            .collect();
        let hier = &self.hier;
        let groups_ref = &groups;
        for_each_task_parallel(&mut work, |gi, (_, pfields)| {
            for (child, cw) in &groups_ref[gi].1 {
                let cp = hier.patch(*child);
                for (k, cf) in cp.fields.iter().enumerate() {
                    restrict_average(cf, &mut pfields[k], cw, r);
                }
            }
        });
        for (pid, fields) in work {
            self.hier.patch_mut(pid).fields = fields;
        }
        for ((src, dst), bytes) in batch {
            self.send_batch(src, dst, bytes);
        }
        self.wall.restrict += t0.elapsed().as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppKind, Scheme};
    use samr_mesh::interp::prolong_constant;

    impl Driver {
        /// Clone-based reference ghost exchange: the original sequential
        /// three-phase data path (zero-gradient, parent, siblings — the whole
        /// shell written three times, the last writer kept), verbatim but for
        /// reading its windows off the all-pairs plan oracle. The oracle
        /// [`Driver::exchange_ghosts`] is compared against.
        fn exchange_ghosts_reference(&mut self, level: usize) {
            let ids: Vec<PatchId> = self.hier.level_ids(level).to_vec();
            if ids.is_empty() {
                return;
            }
            let nf = self.hier.nfields();
            let ghost = self.hier.ghost();

            // 1) physical-boundary default
            for &id in &ids {
                for f in self.hier.patch_mut(id).fields.iter_mut() {
                    f.fill_ghosts_zero_gradient();
                }
            }

            // 2) parent fill (level > 0): prolong the parent's data into the
            // ghost shell (sibling windows are overwritten afterwards, which is
            // the standard fill order).
            let mut batch: std::collections::BTreeMap<(usize, usize), u64> = Default::default();
            if level > 0 {
                let r = self.hier.refine_factor();
                for &id in &ids {
                    let (parent_id, region, owner) = {
                        let p = self.hier.patch(id);
                        (p.parent.expect("fine patch has parent"), p.region, p.owner)
                    };
                    let parent = self.hier.patch(parent_id);
                    let parent_owner = parent.owner;
                    let parent_fields: Vec<Field3> = parent.fields.clone();
                    let shell_boxes = region.grow(ghost).subtract(&region);
                    let mut shell_cells = 0i64;
                    {
                        let patch = self.hier.patch_mut(id);
                        for (k, pf) in parent_fields.iter().enumerate() {
                            for b in &shell_boxes {
                                prolong_constant(pf, &mut patch.fields[k], b, r);
                            }
                        }
                    }
                    for b in &shell_boxes {
                        shell_cells += b.cells();
                    }
                    if parent_owner != owner {
                        *batch.entry((parent_owner, owner)).or_default() +=
                            (shell_cells as u64) * 8 * nf as u64;
                    }
                }
            }

            // 3) sibling windows (authoritative where available)
            let overlaps =
                samr_mesh::hierarchy::reference::exchange_topology(&self.hier, level).overlaps;
            if !overlaps.is_empty() {
                // snapshot source fields once per source patch
                let mut srcs: std::collections::BTreeMap<PatchId, Vec<Field3>> = Default::default();
                for o in &overlaps {
                    srcs.entry(o.src)
                        .or_insert_with(|| self.hier.patch(o.src).fields.clone());
                }
                for o in &overlaps {
                    let src_owner = self.hier.patch(o.src).owner;
                    let dst_owner = self.hier.patch(o.dst).owner;
                    let sf = &srcs[&o.src];
                    let patch = self.hier.patch_mut(o.dst);
                    for (k, f) in sf.iter().enumerate() {
                        patch.fields[k].copy_from(f, &o.window);
                    }
                    if src_owner != dst_owner {
                        *batch.entry((src_owner, dst_owner)).or_default() +=
                            (o.cells as u64) * 8 * nf as u64;
                    }
                }
            }

            // One aggregated message per communicating owner pair — matching how
            // MPI SAMR codes pack all boundary windows for a neighbour rank into
            // a single send per phase.
            for ((src, dst), bytes) in batch {
                self.send_batch(src, dst, bytes);
            }
        }

        /// Clone-based reference restriction: the original sequential data
        /// path, verbatim. The oracle [`Driver::restrict_level`] is compared
        /// against.
        fn restrict_level_reference(&mut self, fine_level: usize) {
            let ids: Vec<PatchId> = self.hier.level_ids(fine_level).to_vec();
            let r = self.hier.refine_factor();
            let nf = self.hier.nfields();
            let mut batch: std::collections::BTreeMap<(usize, usize), u64> = Default::default();
            for &id in &ids {
                let (parent_id, region, owner) = {
                    let p = self.hier.patch(id);
                    (p.parent.expect("fine patch has parent"), p.region, p.owner)
                };
                let child_fields: Vec<Field3> = self.hier.patch(id).fields.clone();
                let coarse_window = region.coarsen(r);
                let parent = self.hier.patch_mut(parent_id);
                let parent_owner = parent.owner;
                for (k, cf) in child_fields.iter().enumerate() {
                    restrict_average(cf, &mut parent.fields[k], &coarse_window, r);
                }
                if parent_owner != owner {
                    *batch.entry((owner, parent_owner)).or_default() +=
                        (coarse_window.cells() as u64) * 8 * nf as u64;
                }
            }
            for ((src, dst), bytes) in batch {
                self.send_batch(src, dst, bytes);
            }
        }
    }

    /// A 3-level ShockPool3D run one step in: refined grids touch the
    /// domain corner the shock starts in, and the DLB has placed them.
    fn driver() -> Driver {
        let mut cfg = RunConfig::new(AppKind::ShockPool3D, 16, 3, Scheme::distributed_default());
        cfg.max_levels = 3;
        let mut d = Driver::new(topology::presets::anl_ncsa_wan(2, 2, 11), cfg);
        d.step_once();
        d
    }

    /// Every second grid of `level` moves to the owner after its parent's,
    /// so parent and child owners differ within and across groups.
    fn scatter_owners(d: &mut Driver, level: usize) {
        let nprocs = d.sim.system().nprocs();
        for (i, id) in d.hier.level_ids(level).to_vec().into_iter().enumerate() {
            if i % 2 == 0 {
                let parent = d.hier.patch(id).parent.expect("fine patch has parent");
                let owner = (d.hier.patch(parent).owner + 1 + i / 2) % nprocs;
                d.hier.set_owner(id, owner);
            }
        }
    }

    fn poison_ghosts(d: &mut Driver, level: usize) {
        for id in d.hier.level_ids(level).to_vec() {
            for f in d.hier.patch_mut(id).fields.iter_mut() {
                let (interior, storage) = (f.interior(), f.storage_region());
                for c in storage.iter_cells().filter(|&c| !interior.contains(c)) {
                    f.set(c, f64::NAN);
                }
            }
        }
    }

    fn level_bits(d: &Driver, level: usize) -> Vec<Vec<Vec<u64>>> {
        d.hier
            .level_ids(level)
            .iter()
            .map(|&id| {
                let fields = &d.hier.patch(id).fields;
                fields
                    .iter()
                    .map(|f| f.data().iter().map(|v| v.to_bits()).collect())
                    .collect()
            })
            .collect()
    }

    /// The reference exchange's message accounting, from its definition: the
    /// whole shell from the parent's owner, every sibling window from its
    /// source's owner (all-pairs scan, no plan).
    fn brute_force_messages(
        d: &Driver,
        level: usize,
    ) -> std::collections::BTreeMap<(usize, usize), u64> {
        let cell_bytes = 8 * d.hier.nfields() as u64;
        let ghost = d.hier.ghost();
        let ids = d.hier.level_ids(level);
        let mut batch: std::collections::BTreeMap<(usize, usize), u64> = Default::default();
        for &dst in ids {
            let dp = d.hier.patch(dst);
            let shell = dp.region.grow(ghost);
            if let Some(parent) = dp.parent {
                let parent_owner = d.hier.patch(parent).owner;
                if parent_owner != dp.owner {
                    *batch.entry((parent_owner, dp.owner)).or_default() +=
                        (shell.cells() - dp.region.cells()) as u64 * cell_bytes;
                }
            }
            for &src in ids.iter().filter(|&&src| src != dst) {
                let sp = d.hier.patch(src);
                let cells = shell.intersect(&sp.region).cells() as u64;
                if cells > 0 && sp.owner != dp.owner {
                    *batch.entry((sp.owner, dp.owner)).or_default() += cells * cell_bytes;
                }
            }
        }
        batch
    }

    /// Ghost cells are dead between a regrid and the next exchange: poison
    /// every one of a freshly regridded level (and of the levels above it),
    /// and the planned exchange still rewrites them all, to the reference
    /// exchange's bits, charging the same bytes — on grids at the domain
    /// boundary and on grids whose parent lives on another owner.
    #[test]
    fn exchange_rewrites_every_poisoned_ghost_like_the_reference() {
        poisoned_exchange_matches_reference(driver, &[0, 1], true);
        // and where the sibling copy runs rounds of concurrent blocks
        let mut many = many_small_patches();
        let topo = many.hier.exchange_topology(1);
        assert!(
            topo.rounds.iter().filter(|r| r.len() >= 2).count() >= 2,
            "{} patches, rounds {:?}",
            topo.shells.len(),
            topo.rounds
        );
        // (its refined region sits inside the domain: no boundary case)
        poisoned_exchange_matches_reference(many_small_patches, &[0], false);
    }

    /// Restriction grouped by parent and run across parents in parallel
    /// lands on the sequential clone-based reference's bits and charges its
    /// messages, finest level first as a step does it — with children on
    /// other owners than their parents, parents of several children, and
    /// fine data a solve away from what the parents last saw.
    #[test]
    fn restriction_matches_the_reference_on_every_fine_level() {
        for fixture in [driver as fn() -> Driver, many_small_patches] {
            let (mut grouped, mut reference) = (fixture(), fixture());
            let levels = grouped.hier.num_levels();
            assert!(levels >= 2, "fixture has no fine level");
            for fine in (1..levels).rev() {
                for d in [&mut grouped, &mut reference] {
                    scatter_owners(d, fine);
                    d.exchange_ghosts(fine);
                    d.solve_level(fine);
                }
                let ids = grouped.hier.level_ids(fine);
                let parents: std::collections::BTreeSet<_> = ids
                    .iter()
                    .map(|&id| grouped.hier.patch(id).parent)
                    .collect();
                assert!(parents.len() < ids.len(), "level {fine}: no parent of two");
                let stale = level_bits(&grouped, fine - 1);
                let sent = grouped.sim.stats().msgs;
                grouped.restrict_level(fine);
                reference.restrict_level_reference(fine);
                let bits = level_bits(&grouped, fine - 1);
                assert_ne!(bits, stale, "level {fine}: restriction changed nothing");
                assert_eq!(
                    bits,
                    level_bits(&reference, fine - 1),
                    "level {fine}: parents diverged"
                );
                assert_ne!(grouped.sim.stats().msgs, sent, "level {fine}: no message");
                assert_eq!(grouped.sim.stats().msgs, reference.sim.stats().msgs);
            }
        }
    }

    /// A regrid stash is freed by the regrid that reads it: between steps
    /// the driver holds no retired field data, on a deep hierarchy (where a
    /// deeper level's stash waits for the next level's regrid) and on a
    /// two-level one.
    #[test]
    fn no_regrid_stash_outlives_the_step() {
        for fixture in [driver as fn() -> Driver, many_small_patches] {
            let mut d = fixture(); // one step in
            for step in 1..=3 {
                if step > 1 {
                    d.step_once();
                }
                assert!(d.hier.num_levels() >= 2, "nothing was refined");
                let held: Vec<usize> = d.old_data.iter().map(Vec::len).collect();
                assert!(
                    held.iter().all(|&n| n == 0),
                    "after step {step}: stashed patches per level {held:?}"
                );
            }
        }
    }

    /// The cached plan — bucket index, covered-shell shortcut, concurrent
    /// block tasks — is element for element what the all-pairs oracle builds
    /// from the definition, on every level of the presets' meshes.
    #[test]
    fn exchange_plan_is_the_all_pairs_oracles_on_the_presets() {
        let amr64 = || {
            let mut cfg = RunConfig::new(AppKind::Amr64, 16, 3, Scheme::distributed_default());
            cfg.max_levels = 3;
            let mut d = Driver::new(topology::presets::anl_lan_pair(2, 2, 11), cfg);
            d.step_once();
            d
        };
        for mut d in [driver(), amr64(), many_small_patches()] {
            for level in 0..d.hier.num_levels() {
                let oracle = samr_mesh::hierarchy::reference::exchange_topology(&d.hier, level);
                let plan = d.hier.exchange_topology(level);
                assert_eq!(plan.overlaps, oracle.overlaps, "level {level}");
                assert_eq!(plan.overlap_slots, oracle.overlap_slots, "level {level}");
                assert_eq!(plan.shells, oracle.shells, "level {level}");
                assert_eq!(*plan, oracle, "level {level}");
            }
        }
    }

    /// A 2-level Amr64 run one step in on a 128-processor federation: both
    /// levels hold several blocks of destinations.
    fn many_small_patches() -> Driver {
        let mut cfg = RunConfig::new(AppKind::Amr64, 32, 2, Scheme::distributed_default());
        cfg.max_levels = 2;
        cfg.max_box_cells = 512;
        let mut d = Driver::new(topology::presets::federation(8, 16, 7), cfg);
        d.step_once();
        d
    }

    fn poisoned_exchange_matches_reference(
        driver: fn() -> Driver,
        regrid_levels: &[usize],
        at_boundary: bool,
    ) {
        let (mut plan, mut reference) = (driver(), driver());
        for &regridded in regrid_levels {
            let fresh = regridded + 1;
            for d in [&mut plan, &mut reference] {
                d.regrid(regridded);
                scatter_owners(d, fresh);
            }
            let boundary = plan.hier.level_ids(fresh).iter().any(|&id| {
                let shell = plan.hier.patch(id).region.grow(plan.hier.ghost());
                !plan.hier.domain_at_level(fresh).contains_region(&shell)
            });
            let remote_parent = plan.hier.level_ids(fresh).iter().any(|&id| {
                let p = plan.hier.patch(id);
                plan.hier
                    .patch(p.parent.expect("fine patch has parent"))
                    .owner
                    != p.owner
            });
            assert!(
                boundary == at_boundary && remote_parent,
                "level {fresh} misses a case"
            );
            for level in 0..=fresh {
                poison_ghosts(&mut plan, level);
                poison_ghosts(&mut reference, level);
                let topo = plan.hier.exchange_topology(level);
                assert_eq!(
                    plan.ghost_messages(&topo),
                    Vec::from_iter(brute_force_messages(&reference, level)),
                    "level {level}: charged bytes per owner pair"
                );
                plan.exchange_ghosts(level);
                reference.exchange_ghosts_reference(level);
                let bits = level_bits(&plan, level);
                assert!(
                    bits.iter()
                        .flatten()
                        .flatten()
                        .all(|&b| !f64::from_bits(b).is_nan()),
                    "level {level}: a ghost cell kept its poison"
                );
                assert_eq!(
                    bits,
                    level_bits(&reference, level),
                    "level {level} diverged"
                );
            }
            assert_eq!(plan.sim.stats().msgs, reference.sim.stats().msgs);
        }
    }
}
