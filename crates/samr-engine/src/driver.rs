//! The SAMR driver: recursive sub-cycled integration (Fig. 2 of the paper)
//! with ghost exchange, regridding, restriction, workload accounting, and
//! the DLB hook points of Fig. 4/5 — all on simulated time.
//!
//! Real numerics run on the patch data (so refinement follows the physics);
//! *timing* is charged to the simulator according to grid ownership: solver
//! work to the owning processor, boundary windows and migrations as messages
//! over the links between owners. The driver holds a [`SimView`] rather than
//! owning a simulator, so it runs identically standalone (a view that owns
//! its substrate) and as one tenant of a shared substrate clock.

use crate::app::AppState;
use crate::config::{RunConfig, RunResult};
use crate::scheme::SchemeInstance;
use crate::trace::{RunTrace, StepRecord, StepRecovery};
use dlb::{decompose_domain, LbContext, WorkloadHistory};
use metrics::{Phase, PhaseClock};
use par::for_each_task_parallel;
use samr_mesh::checkpoint::HierarchySnapshot;
use samr_mesh::cluster::{berger_rigoutsos, ClusterParams};
use samr_mesh::field::Field3;
use samr_mesh::hierarchy::{BoxIndex, FillSource, GridHierarchy};
use samr_mesh::index::IVec3;
use samr_mesh::interp::{prolong_constant_fields, restrict_average};
use samr_mesh::patch::PatchId;
use samr_mesh::region::Region;
use simnet::retry::retry;
use simnet::{Activity, SimView};
use topology::{DistributedSystem, ProcId, SimTime};

/// Refinement factor r between levels (the paper uses 2).
const REFINE_FACTOR: i64 = 2;

/// Consecutive waves a regrid fills its new grids in. Each retired grid is
/// dropped after the wave holding its last reader, so the regrid's peak holds
/// about one wave's worth of both generations instead of two whole levels
/// (`shock_wan`'s peak resident set by wave count, one run each: 1 → 159.1,
/// 2 → 129.4, 4 → 114.1, 8 → 110.9, 16 → 109.6, 32 → 112.3 MiB; DESIGN §12).
const FILL_WAVES: usize = 8;

/// Snapshot of a retired patch's data, used to seed re-created fine grids.
#[derive(Clone, Debug)]
struct OldPatch {
    region: Region,
    owner: usize,
    fields: Vec<Field3>,
}

/// A new grid's field buffers on their way through a pool task: reserved on
/// the calling thread, so every one comes from that thread's heap arena, and
/// written by the task — a regrid's zero-filled first, level 0's once from
/// the initial footprint (DESIGN §12).
struct NewGrid {
    region: Region,
    ghost: i64,
    buffers: Vec<Vec<f64>>,
    fields: Vec<Field3>,
}

impl NewGrid {
    /// Reserve (not zero) the buffers of one grid of `hier` over `region`.
    fn reserve(hier: &GridHierarchy, region: Region) -> NewGrid {
        let (nf, ghost) = (hier.nfields(), hier.ghost());
        let len = region.grow(ghost).cells() as usize;
        NewGrid {
            region,
            ghost,
            buffers: (0..nf).map(|_| hier.pool().reserve(len)).collect(),
            fields: Vec::with_capacity(nf),
        }
    }

    /// Zero-fill the reserved buffers into the grid's fields, in place.
    fn zeroed(&mut self) -> &mut [Field3] {
        let (region, ghost) = (self.region, self.ghost);
        self.fields.extend(
            self.buffers
                .drain(..)
                .map(|buf| Field3::zeros_in(buf, region, ghost)),
        );
        &mut self.fields
    }
}

/// The SAMR execution driver.
pub struct Driver {
    cfg: RunConfig,
    app: AppState,
    sim: SimView,
    hier: GridHierarchy,
    history: WorkloadHistory,
    scheme: SchemeInstance,
    /// Steps completed per level.
    step_count: Vec<u64>,
    /// Stashed data of cleared fine levels, by level; each grid's data is
    /// freed once the regrid that rebuilds its level has filled its last
    /// reader.
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
    faults_seen: metrics::FaultCounters,
    /// Static per-processor weight table (weights are fixed for a run's
    /// lifetime), so hot loops price work without cloning the system.
    proc_weights: Vec<f64>,
    /// Host time per phase (reset when `run` starts measuring).
    clock: PhaseClock,
    /// Most grids alive at any point of the run.
    peak_patches: usize,
    /// Simulated time each currently-dead proc's crash was detected at —
    /// the one record of who is down.
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
    /// One record per regrid fill wave, for the schedule tests.
    #[cfg(test)]
    fill_census: Vec<tests::WaveCensus>,
}

impl Driver {
    /// Build a driver: decompose the level-0 domain over the processors
    /// (proportional to their weights), initialize the application fields,
    /// and construct the initial refinement hierarchy.
    pub fn new(sys: DistributedSystem, cfg: RunConfig) -> Driver {
        Driver::new_on(SimView::new(sys), cfg)
    }

    /// Build a driver over an existing simulator view: one that owns its
    /// substrate ([`SimView::new`]) for a standalone run, or a tenant view
    /// carved from a shared [`simnet::SimHandle`] so several drivers advance
    /// one clock. Proc-fault schedules require a view that owns its
    /// substrate — a shared substrate has one global fault timeline, not
    /// per-tenant ones.
    ///
    /// The initial hierarchy is built by the regrid cascade: each level's
    /// exchange writes only the ghost cells its flagging reads
    /// ([`AppState::flag_ghost_reach`]) before that level is regridded.
    pub fn new_on(sim: SimView, cfg: RunConfig) -> Driver {
        let mut d = Driver::level0_on(sim, cfg);
        let reach: Vec<IVec3> = (0..d.app.nfields())
            .map(|k| d.app.flag_ghost_reach(k))
            .collect();
        // build the initial hierarchy: regrid cascade, no timing charged
        // (setup happens before the measured run on all schemes equally)
        for l in 0..d.cfg.max_levels - 1 {
            if d.hier.level_ids(l).is_empty() {
                break;
            }
            d.exchange_ghosts_within(l, &reach);
            d.regrid(l);
        }
        d.peak_patches = d.hier.num_patches();
        d
    }

    /// A driver holding level 0 alone: the domain decomposed over the
    /// processors and every slab's fields initialised, ghosts included.
    /// The initial condition is evaluated once per cell of the level-0
    /// footprint — the domain and its ghost layers — into one scratch field
    /// ([`AppState::initial_footprint`]). Level 0's field buffers are
    /// reserved on the calling thread, and each slab's pool task writes
    /// every storage cell of its fields once, from the footprint
    /// ([`AppState::initial_fields_in`]); the footprint is freed before
    /// the patches are inserted with their fields, in slab order.
    fn level0_on(sim: SimView, cfg: RunConfig) -> Driver {
        let app = AppState::new(cfg.app, cfg.n0, cfg.seed);
        let domain = Region::cube(cfg.n0);
        let mut hier = GridHierarchy::new(
            domain,
            REFINE_FACTOR,
            cfg.max_levels,
            app.nfields(),
            app.ghost(),
        );
        // initial decomposition: one slab per processor, weighted
        let shares: Vec<f64> = sim.system().procs().iter().map(|p| p.weight).collect();
        let slabs = decompose_domain(domain, &shares);
        let mut grids: Vec<NewGrid> = slabs
            .iter()
            .map(|&(region, _)| NewGrid::reserve(&hier, region))
            .collect();
        #[cfg(test)]
        let census = tests::WaveCensus::reserved(0, 0..grids.len(), &hier, &[], &[], &grids);
        let footprint = app.initial_footprint(domain.grow(app.ghost()));
        for_each_task_parallel(&mut grids, |_, grid| {
            let buffers = std::mem::take(&mut grid.buffers);
            let fields = app.initial_fields_in(&footprint, grid.region, buffers);
            grid.fields.extend(fields);
        });
        drop(footprint);
        for ((region, proc_ix), grid) in slabs.into_iter().zip(grids) {
            hier.insert_patch_with_fields(0, region, None, proc_ix, grid.fields);
        }
        let history = WorkloadHistory::new(sim.system().nprocs());
        let d = Driver::from_parts(sim, cfg, app, hier, history, Vec::new(), 0);
        #[cfg(test)]
        let d = Driver {
            fill_census: vec![census],
            ..d
        };
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
        self.clock.phase_wall()
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
        let mut d = Driver {
            clock: PhaseClock::new(cfg.telemetry.clone()),
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
            faults_seen: metrics::FaultCounters::default(),
            proc_weights,
            peak_patches: 0,
            crashed_at: Default::default(),
            recovery_snapshot: None,
            recovery_pending: StepRecovery::default(),
            mttrs: Vec::new(),
            evacuations: 0,
            #[cfg(test)]
            fill_census: Vec::new(),
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
        // the phase clock restarts with simulated time: both exclude setup
        self.clock.reset();
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
        let r = self.hier.refine_factor() as f64;
        let mut group_workload = vec![0f64; sys.ngroups()];
        for p in self.hier.iter() {
            let w = r.powi(p.level as i32);
            group_workload[sys.group_of(ProcId(p.owner)).0] += p.cells() as f64 * w;
        }
        let redists_after = self
            .scheme
            .decisions()
            .iter()
            .filter(|d| d.invoked)
            .count();
        let cum = self.cumulative_faults();
        let faults = cum.since(&self.faults_seen);
        self.faults_seen = cum;
        let forecast = self.forecast_stats();

        // continuous metrics: one sample per series per level-0 step, on
        // simulated time. Pure observation of already-computed state, so
        // recording stays bit-identical to the null handle.
        let tel = self.sim.telemetry();
        if tel.is_enabled() {
            let t = t1.as_secs_f64();
            let powers = self.alive_group_powers();
            for (g, (&w, &p)) in group_workload.iter().zip(&powers).enumerate() {
                tel.metric(t, &format!("group_load:g{g}"), w);
                tel.metric(t, &format!("alive_power:g{g}"), p);
            }
            tel.metric(t, "imbalance", power_normalized_imbalance(&group_workload, &powers));
            tel.metric(t, "forecast_alpha_mae", forecast.alpha_mae);
            tel.metric(t, "forecast_beta_mae", forecast.beta_mae);
            tel.metric(t, "forecast_load_mae", forecast.load_mae);
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
            forecast,
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
        // a crash is a proc dead now that is not on record as down, a
        // rejoin one alive now that is
        let (crashed, rejoined): (Vec<usize>, Vec<usize>) = (0..nprocs)
            .filter(|p| alive[*p] == self.crashed_at.contains_key(p))
            .partition(|&p| !alive[p]);
        if crashed.is_empty() && rejoined.is_empty() {
            return;
        }
        let step = self.step_count[0];
        let cost = self.app.cost_per_cell();
        for p in crashed {
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
                let iters = (self.hier.refine_factor() as f64).powi(m.level as i32);
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
        for p in rejoined {
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
    /// counters (zeroes for schemes without one) plus the driver's own
    /// bulk-transfer bookkeeping — the one place the two are added up.
    fn cumulative_faults(&self) -> metrics::FaultCounters {
        let mut c = self.scheme.distributed().map(|d| d.fault_stats()).unwrap_or_default();
        c.retries += self.transfer_retries;
        c.comm_failures += self.failed_transfers;
        c
    }

    /// Forecast-quality counters of the scheme's series so far (zeroes for
    /// schemes without a forecasting layer).
    fn forecast_stats(&self) -> metrics::ForecastStats {
        self.scheme.distributed().map(|d| d.forecast_summary()).unwrap_or_default()
    }

    /// Each group's alive processing power now, by group id.
    fn alive_group_powers(&self) -> Vec<f64> {
        (0..self.sim.system().ngroups())
            .map(|g| self.sim.alive_group_power(topology::GroupId(g)))
            .collect()
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
        let dist = self.scheme.distributed();
        let (estimator_pairs, decision_msgs) =
            dist.map_or((0, 0), |d| (d.estimator_pairs() as u64, d.decision_msgs()));
        self.sim.telemetry().stat_block(
            "decision_phase",
            &[
                ("estimator_pairs", estimator_pairs),
                ("decision_msgs", decision_msgs),
            ],
        );
        // Final power-normalized imbalance, from the hierarchy's end state
        let final_imbalance = {
            let per_proc = dlb::proc_total_cells(&self.hier, sys.nprocs());
            let mut loads = vec![0.0f64; sys.ngroups()];
            for (p, &cells) in per_proc.iter().enumerate() {
                loads[sys.group_of(ProcId(p)).0] += cells as f64;
            }
            power_normalized_imbalance(&loads, &self.alive_group_powers())
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
            wall: self.clock.phase_wall(),
            ghost_wall: self.clock.ghost_wall(),
            dlb_wall: dist.map(|d| d.wall()).unwrap_or_default(),
            cell_updates: self.cell_updates,
            global_checks: decisions.len(),
            global_redistributions: decisions.iter().filter(|d| d.invoked).count(),
            faults: self.cumulative_faults(),
            forecast: self.forecast_stats(),
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
        let reach: Vec<IVec3> = (0..self.app.nfields())
            .map(|k| self.app.solve_ghost_reach(k))
            .collect();
        self.exchange_ghosts_within(level, &reach);
        self.solve_level(level);
        if level == 0 {
            let dt0 = self.app.dt_over_dx0(); // dx0 = 1
            self.app.post_level0_step(dt0, self.hier.domain());
        }

        // regrid: rebuild level+1 from this level's flags, every step
        if level + 1 < self.cfg.max_levels {
            self.regrid(level);
        }

        // sub-cycle the finer level
        if !self.hier.level_ids(level + 1).is_empty() {
            for _ in 0..self.hier.refine_factor() {
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
        self.clock.enter(Phase::Decision, level);
        if self.scheme.after_level_step(ctx, level).is_err() {
            self.failed_transfers += 1;
        }
        self.clock.stop();
        self.step_count[level] += 1;
    }

    /// Ship one aggregated boundary/regrid payload between owners, retrying
    /// on simnet's retry schedule. A transfer that still fails is tolerated
    /// — the receiver advances with stale ghost data — and counted.
    fn send_batch(&mut self, src: usize, dst: usize, bytes: u64) {
        let (s, d) = (ProcId(src), ProcId(dst));
        let act = if self.sim.system().group_of(s) == self.sim.system().group_of(d) {
            Activity::LocalComm
        } else {
            Activity::RemoteComm
        };
        let (retries, res) = retry(&mut self.sim, &[s, d], |sim| sim.send(s, d, bytes, act));
        if res.is_ok() {
            self.transfer_retries += retries as u64;
        } else {
            self.failed_transfers += 1;
        }
    }

    /// Record `w_proc^i(t)` and `N_iter^i(t)` for the gain heuristic.
    fn update_history_snapshot(&mut self) {
        let nprocs = self.sim.system().nprocs();
        let nlevels = self.hier.num_levels();
        let loads: Vec<Vec<i64>> = (0..nlevels)
            .map(|l| self.hier.level_load_by_owner(l, nprocs))
            .collect();
        let r = self.hier.refine_factor() as u32;
        let n_iter: Vec<u32> = (0..nlevels).map(|l| r.pow(l as u32)).collect();
        self.history.record_snapshot(loads, n_iter);
    }

    /// Solve every grid at `level` once. Real numerics run on the worker
    /// pool across patches; simulated compute time is charged to each owner.
    fn solve_level(&mut self, level: usize) {
        let ids: Vec<PatchId> = self.hier.level_ids(level).to_vec();
        if ids.is_empty() {
            return;
        }
        self.clock.enter(Phase::Solve, level);
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
        let cost = self.app.cost_per_cell();
        for &id in &ids {
            let p = self.hier.patch(id);
            let weight = self.proc_weights[p.owner];
            let secs = p.cells() as f64 * cost / weight;
            self.sim.compute(ProcId(p.owner), secs);
            self.cell_updates += p.cells() as u64;
        }
        self.clock.stop();
    }

    /// Fill every ghost cell at `level`: physical boundaries by
    /// zero-gradient, interior boundaries from siblings, the rest from the
    /// parent grids. Data really moves, and each inter-owner window is
    /// charged as a message. Tests and tools run one whole-shell exchange
    /// with it; a run exchanges through [`Driver::exchange_ghosts_within`],
    /// the set-up cascade within the flagging reach and each solve within
    /// the step's.
    pub fn exchange_ghosts(&mut self, level: usize) {
        let whole = vec![IVec3::splat(self.hier.ghost()); self.hier.nfields()];
        self.exchange_ghosts_within(level, &whole);
    }

    /// Fill the ghost cells of `level` that lie within `reach[k]` layers of
    /// the interior across the faces normal to each axis, field `k` by
    /// field `k` — a solve's exchange writes only what
    /// [`AppState::solve_ghost_reach`] says the step reads, the set-up's
    /// only what [`AppState::flag_ghost_reach`] says flagging reads. At
    /// level 0 the cells outside the domain are written whatever the reach.
    /// Every field is charged its whole shell all the same: the messages,
    /// and so every simulated time, do not depend on `reach`.
    ///
    /// This is the direct zero-copy path, driven by the level's cached
    /// [`LevelTopology`](samr_mesh::LevelTopology) plan: per destination the
    /// sibling windows and the parent-filled `coarse_fill` boxes partition
    /// the ghost shell, so every ghost cell is written at most once (the
    /// part of a window or box within a field's reach; at level 0 a box
    /// whole) and nothing is staged. Within the reach it is bit-identical
    /// to the test module's oracle `exchange_ghosts_reference`, which
    /// writes the whole shell three times (zero-gradient, parent,
    /// siblings) and keeps the last: the last writer of a cell is its
    /// sibling window if one covers it, else the parent (whose storage
    /// covers the whole shell of a properly nested patch), else — only at
    /// level 0 — the zero-gradient fill. Every read comes from data the
    /// exchange never writes: sibling windows lie inside source
    /// *interiors* and parent fields live on the untouched coarser level.
    fn exchange_ghosts_within(&mut self, level: usize, reach: &[IVec3]) {
        assert_eq!(reach.len(), self.hier.nfields(), "one reach per field");
        if self.hier.level_ids(level).is_empty() {
            return;
        }
        self.clock.enter(Phase::GhostPlan, level);
        let r = self.hier.refine_factor();
        let topo = self.hier.exchange_topology(level);
        self.clock.enter(Phase::GhostCoarseFill, level);

        // phase 1: per destination, the ghost cells no sibling fills — by
        // prolongation straight from the parent's fields within each
        // field's reach, or at level 0, where those are exactly the cells
        // outside the domain, by zero-gradient for every field. Parallel
        // across destinations: each writes only its own
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
                None => {
                    for f in fields.iter_mut() {
                        shell.coarse_fill.iter().for_each(|b| f.fill_clamped(b));
                    }
                }
                Some(parent) => {
                    let parent = &hier.patch(parent).fields;
                    let interior = fields[0].interior();
                    for b in &shell.coarse_fill {
                        // one call per run of fields whose reach cuts the
                        // same part out of `b` — one call for all of them
                        // when `b` lies within every field's reach
                        let part = |k: usize| b.intersect(&interior.grow_by(reach[k]));
                        let mut k = 0;
                        while k < fields.len() {
                            let w = part(k);
                            let end = (k + 1..fields.len())
                                .find(|&e| part(e) != w)
                                .unwrap_or(fields.len());
                            if !w.is_empty() {
                                let (from, to) = (&parent[k..end], &mut fields[k..end]);
                                prolong_constant_fields(from, to, &w, r);
                            }
                            k = end;
                        }
                    }
                }
            }
        });
        self.clock.enter(Phase::GhostSibling, level);

        // phase 2: sibling windows, source→destination directly, one round
        // of the plan at a time. The field sets of a round's blocks of
        // destinations are taken out of `work` and written concurrently,
        // one task per block; a source is either in the task's own block
        // (a pair borrow inside it) or in no block of the round, so it
        // stayed in `work` and is read through the shared borrow. Every
        // ghost cell has at most one writer, and every read is of an
        // interior, which no phase writes: neither the order of the rounds nor the
        // order inside one can change a value, and the result is the
        // reference exchange's staged clones'. A round of a single block is not
        // worth waking the pool for and runs the same take / copy / put
        // back on this thread. With no reach at all there is nothing to
        // copy — a window lies outside its destination's interior, so none
        // of it is within zero layers of it — and no round runs (Amr64's
        // set-up cascade, whose flagging reads interiors alone).
        let rounds = if reach.iter().all(|&r| r == IVec3::ZERO) {
            &[][..]
        } else {
            &topo.rounds[..]
        };
        let mut taken: Vec<(usize, Vec<Vec<Field3>>)> = Vec::new();
        for round in rounds {
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
                        let interior = dst[0].interior();
                        for ((sf, df), &reach) in src.iter().zip(dst.iter_mut()).zip(reach) {
                            let w = o.window.intersect(&interior.grow_by(reach));
                            if !w.is_empty() {
                                df.copy_from(sf, &w);
                            }
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
        self.clock.enter(Phase::GhostMessages, level);

        for ((src, dst), bytes) in self.ghost_messages(&topo) {
            self.send_batch(src, dst, bytes);
        }
        self.clock.stop();
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
        by_owner_pair(batch)
    }

    /// Rebuild `level + 1` from the flags of `level`'s grids: flag, buffer,
    /// cluster (Berger–Rigoutsos), place via the DLB scheme, then fill each
    /// new grid's interior from its final sources — surviving data of the
    /// retired fine grids where they overlapped, parent prolongation
    /// elsewhere. The fill runs in waves: the calling thread reserves a
    /// wave's field buffers, the pool task that fills a grid zero-fills its
    /// buffers first. Ghost shells are left at those zeros until the next
    /// exchange of `level + 1`, which runs before anything reads the new
    /// level and writes what that reader reads: flagging's reach in the
    /// set-up cascade, the step's in a run (whose refill rewrites the rest
    /// before it is read).
    fn regrid(&mut self, level: usize) {
        self.clock.enter(Phase::Regrid, level);
        self.regrid_inner(level);
        self.clock.stop();
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
        let cost = self.app.cost_per_cell() * 0.15;
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
        // level + 1, the next `regrid(l - 1)` for a deeper level l; each of
        // its grids is freed as soon as that regrid has filled the last new
        // grid that reads it.
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

        // plan: each new patch's final sources — windows of the retired fine
        // grids it overlaps, by stash index (everything else comes from its
        // parent) — each retired grid's last reader, and the messages that
        // moving those costs
        let nf = self.hier.nfields();
        let old = &self.old_data[level + 1];
        let old_index = BoxIndex::new(old.iter().map(|op| op.region));
        let mut hits = Vec::new();
        let mut batch: Vec<((usize, usize), u64)> = Vec::new();
        let mut sources: Vec<Vec<(usize, Region)>> = Vec::with_capacity(regions.len());
        let mut last_reader: Vec<Option<usize>> = vec![None; old.len()];
        for (i, (region, &owner)) in regions.iter().zip(&owners).enumerate() {
            let mut from_old = Vec::new();
            old_index.overlapping(region, &mut hits);
            for &oi in &hits {
                let op = &old[oi as usize];
                let window = op.region.intersect(region);
                if op.owner != owner {
                    batch.push(((op.owner, owner), (window.cells() as u64) * 8 * nf as u64));
                }
                from_old.push((oi as usize, window));
                last_reader[oi as usize] = Some(i);
            }
            sources.push(from_old);
        }

        // fill in waves, in clustering order: a wave's field buffers are
        // reserved here and zero-filled and filled on the pool, and every
        // retired grid no later wave reads is dropped before the next one is
        // reserved (§12) — the ones no new grid reads before the first
        let free_served = |old: &mut Vec<OldPatch>, end: usize| {
            for (op, last) in old.iter_mut().zip(&last_reader) {
                if last.is_none_or(|l| l < end) {
                    op.fields = Vec::new();
                }
            }
        };
        free_served(&mut self.old_data[level + 1], 0);
        let hier = &self.hier;
        let wave_len = regions.len().div_ceil(FILL_WAVES);
        let mut built: Vec<Vec<Field3>> = Vec::with_capacity(regions.len());
        for first in (0..regions.len()).step_by(wave_len) {
            let wave = first..(first + wave_len).min(regions.len());
            let mut fill: Vec<NewGrid> = regions[wave.clone()]
                .iter()
                .map(|&region| NewGrid::reserve(hier, region))
                .collect();
            #[cfg(test)]
            let mut census = tests::WaveCensus::reserved(
                level + 1,
                wave.clone(),
                hier,
                &self.old_data,
                &built,
                &fill,
            );
            let old = &self.old_data[level + 1];
            for_each_task_parallel(&mut fill, |k, grid| {
                let i = first + k;
                let from_old: Vec<FillSource<'_>> = sources[i]
                    .iter()
                    .map(|&(oi, window)| FillSource {
                        fields: &old[oi].fields,
                        window,
                    })
                    .collect();
                hier.fill_refined_fields(grid.zeroed(), parent_ids[i], &from_old);
            });
            built.extend(fill.into_iter().map(|grid| grid.fields));
            free_served(&mut self.old_data[level + 1], wave.end);
            #[cfg(test)]
            {
                census.retired_alive = self.old_data[level + 1]
                    .iter()
                    .map(|op| !op.fields.is_empty())
                    .collect();
                self.fill_census.push(census);
            }
        }
        // every retired grid has been read and dropped
        self.old_data[level + 1] = Vec::new();
        for ((((region, parent_id), &owner), &parent_owner), fields) in regions
            .into_iter()
            .zip(parent_ids)
            .zip(&owners)
            .zip(&parents)
            .zip(built)
        {
            let id = self.hier.insert_patch_with_fields(
                level + 1,
                region,
                Some(parent_id),
                owner,
                fields,
            );
            if parent_owner != owner {
                batch.push(((parent_owner, owner), self.hier.patch(id).payload_bytes()));
            }
        }
        for ((src, dst), bytes) in by_owner_pair(batch) {
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
        self.clock.enter(Phase::Restrict, fine_level);
        let ids: Vec<PatchId> = self.hier.level_ids(fine_level).to_vec();
        let r = self.hier.refine_factor();
        let nf = self.hier.nfields();
        let mut batch: Vec<((usize, usize), u64)> = Vec::new();
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
                batch.push(((owner, parent_owner), coarse_window.cells() as u64 * 8 * nf as u64));
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
        for ((src, dst), bytes) in by_owner_pair(batch) {
            self.send_batch(src, dst, bytes);
        }
        self.clock.stop();
    }
}

/// The power-normalized inter-group imbalance the γ-gate reasons about:
/// `(max_g W_g/P_g) / (mean_g W_g/P_g)` over the groups with alive power,
/// 1.0 for one such group or a mean of zero — finite even when a group
/// holds no load, so runs and scale sweeps can compare it.
fn power_normalized_imbalance(loads: &[f64], powers: &[f64]) -> f64 {
    let norms: Vec<f64> =
        loads.iter().zip(powers).filter(|&(_, &p)| p > 0.0).map(|(&w, &p)| w / p).collect();
    let mean = norms.iter().sum::<f64>() / norms.len().max(1) as f64;
    if mean > 0.0 {
        norms.iter().copied().fold(0.0, f64::max) / mean
    } else {
        1.0
    }
}

/// The messages of a batch of `((src, dst), bytes)` entries, as every
/// batched send goes out: one per owner pair with its bytes summed, pairs
/// ascending (a `BTreeMap`'s order, without a tree lookup per entry).
fn by_owner_pair(mut batch: Vec<((usize, usize), u64)>) -> Vec<((usize, usize), u64)> {
    batch.sort_unstable_by_key(|&(pair, _)| pair);
    let runs = batch.chunk_by(|a, b| a.0 == b.0);
    runs.map(|run| (run[0].0, run.iter().map(|&(_, bytes)| bytes).sum())).collect()
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

        /// The one-shot regrid fill: every new grid allocated, then all
        /// filled, then the whole stash freed — the data path before the
        /// wave loop, verbatim. The oracle [`Driver::regrid_inner`] is
        /// compared against.
        fn regrid_reference(&mut self, level: usize) {
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
            let cost = self.app.cost_per_cell() * 0.15;
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
                let id = self.hier.insert_patch_with_fields(
                    level + 1,
                    region,
                    Some(parent_id),
                    owner,
                    fields,
                );
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
    }

    /// One wave of a regrid fill (or the level-0 build, as one wave): the
    /// level it built, the new grids it filled (indices in clustering order,
    /// or slab order on level 0), the field bytes alive right after its
    /// buffers were reserved — hierarchy, every stash, every new grid so
    /// far, the wave's reserved capacity — the address of each of its
    /// grids' reserved buffers, and which retired grids of the rebuilt level
    /// still held data once it was done.
    pub(super) struct WaveCensus {
        pub(super) level: usize,
        pub(super) wave: std::ops::Range<usize>,
        pub(super) live_bytes: u64,
        pub(super) reserved: Vec<Vec<*const f64>>,
        pub(super) retired_alive: Vec<bool>,
    }

    impl WaveCensus {
        /// The census of a wave whose buffers `fill` holds, taken before any
        /// pool task touches them.
        pub(super) fn reserved(
            level: usize,
            wave: std::ops::Range<usize>,
            hier: &GridHierarchy,
            old_data: &[Vec<OldPatch>],
            built: &[Vec<Field3>],
            fill: &[NewGrid],
        ) -> WaveCensus {
            let buffers = || fill.iter().flat_map(|g| &g.buffers);
            let reserved_bytes = buffers().map(|b| 8 * b.capacity() as u64).sum::<u64>();
            let built_bytes = built.iter().map(|f| bytes_of(f));
            WaveCensus {
                level,
                wave,
                live_bytes: live_field_bytes(hier, old_data, built_bytes.chain([reserved_bytes])),
                reserved: fill
                    .iter()
                    .map(|g| g.buffers.iter().map(|b| b.as_ptr()).collect())
                    .collect(),
                retired_alive: Vec::new(),
            }
        }
    }

    fn bytes_of(fields: &[Field3]) -> u64 {
        fields.iter().map(|f| 8 * f.data().len() as u64).sum()
    }

    /// Field bytes held by `hier`, the stashes and the new grids, whose
    /// bytes `fresh` lists.
    pub(super) fn live_field_bytes(
        hier: &GridHierarchy,
        old_data: &[Vec<OldPatch>],
        fresh: impl Iterator<Item = u64>,
    ) -> u64 {
        let held: u64 = (0..hier.num_levels())
            .flat_map(|l| hier.level_ids(l))
            .map(|&id| bytes_of(&hier.patch(id).fields))
            .sum();
        let stashed: u64 = old_data
            .iter()
            .flatten()
            .map(|op| bytes_of(&op.fields))
            .sum();
        held + stashed + fresh.sum::<u64>()
    }

    fn level_regions(d: &Driver, level: usize) -> Vec<Region> {
        if level >= d.hier.num_levels() {
            return Vec::new();
        }
        let ids = d.hier.level_ids(level);
        ids.iter().map(|&id| d.hier.patch(id).region).collect()
    }

    /// For each retired grid, the new grids that read it, ascending.
    fn readers(retired: &[Region], fresh: &[Region]) -> Vec<Vec<usize>> {
        retired
            .iter()
            .map(|old| {
                let hit =
                    |(i, new): (usize, &Region)| (!old.intersect(new).is_empty()).then_some(i);
                fresh.iter().enumerate().filter_map(hit).collect()
            })
            .collect()
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

    /// The wave fill builds what the one-shot fill built: the same ids,
    /// regions, owners, parent links, field bits (ghosts included) and
    /// charged messages, on every level of both fixtures — including a level
    /// with more new grids than waves and retired grids read by two waves.
    #[test]
    fn wave_fill_matches_the_one_shot_reference_on_every_level() {
        let (mut crowded, mut straddled) = (false, false);
        for fixture in [driver as fn() -> Driver, many_small_patches] {
            let levels = fixture().hier.num_levels();
            assert!(levels >= 2, "fixture has no fine level");
            for level in 0..levels - 1 {
                let (mut waves, mut reference) = (fixture(), fixture());
                let retired = level_regions(&waves, level + 1);
                waves.fill_census.clear();
                waves.regrid_inner(level);
                reference.regrid_reference(level);
                let fresh = level_regions(&waves, level + 1);
                assert!(!fresh.is_empty(), "level {level}: nothing refined");
                let census = &waves.fill_census;
                crowded |= census.iter().any(|w| w.wave.len() >= 2);
                let wave_of = |i: usize| census.iter().position(|w| w.wave.contains(&i));
                straddled |= readers(&retired, &fresh)
                    .iter()
                    .any(|r| r.first().map(|&i| wave_of(i)) != r.last().map(|&i| wave_of(i)));
                assert_eq!(waves.hier.num_levels(), reference.hier.num_levels());
                for l in 0..waves.hier.num_levels() {
                    let (a, b) = (&waves.hier, &reference.hier);
                    assert_eq!(a.level_ids(l), b.level_ids(l), "level {l}: ids");
                    for &id in a.level_ids(l) {
                        let (p, q) = (a.patch(id), b.patch(id));
                        assert_eq!(
                            (p.region, p.owner, p.parent),
                            (q.region, q.owner, q.parent),
                            "{id:?}"
                        );
                    }
                    assert_eq!(
                        level_bits(&waves, l),
                        level_bits(&reference, l),
                        "level {l}"
                    );
                }
                assert_eq!(waves.sim.stats().msgs, reference.sim.stats().msgs);
                let held: Vec<usize> = waves.old_data.iter().map(Vec::len).collect();
                let held_ref: Vec<usize> = reference.old_data.iter().map(Vec::len).collect();
                assert_eq!(held, held_ref, "level {level}: stashes");
            }
        }
        assert!(crowded, "no level has more new grids than waves");
        assert!(straddled, "no retired grid is read by two waves");
    }

    /// The fill frees each retired grid after the wave holding its last
    /// reader, and no later: after every wave exactly the retired grids read
    /// again in a later wave hold data. Before the first wave the unread
    /// ones are gone. So the finest regrid of `driver()` peaks well below
    /// what the one-shot fill held — the old level and the whole new one.
    #[test]
    fn no_retired_grid_outlives_the_wave_of_its_last_reader() {
        for level in 0..2 {
            let mut d = driver();
            let retired = level_regions(&d, level + 1);
            let before = live_field_bytes(&d.hier, &d.old_data, std::iter::empty());
            d.fill_census.clear();
            d.regrid_inner(level);
            let fresh = level_regions(&d, level + 1);
            let last_reader: Vec<Option<usize>> = readers(&retired, &fresh)
                .iter()
                .map(|r| r.last().copied())
                .collect();
            let census = &d.fill_census;
            assert_eq!(census.len(), FILL_WAVES.min(fresh.len()), "level {level}");
            assert_eq!(census.last().map(|w| w.wave.end), Some(fresh.len()));
            for w in census {
                let expected: Vec<bool> = last_reader
                    .iter()
                    .map(|l| l.is_some_and(|l| l >= w.wave.end))
                    .collect();
                assert_eq!(
                    w.retired_alive, expected,
                    "level {level}, wave {:?}",
                    w.wave
                );
            }
            assert!(
                d.old_data[level + 1].is_empty(),
                "level {level}: stash kept"
            );
            if level == 1 {
                let new_level: u64 = d
                    .hier
                    .level_ids(2)
                    .iter()
                    .map(|&id| bytes_of(&d.hier.patch(id).fields))
                    .sum();
                let double_buffer = before + new_level;
                let high_water = census.iter().map(|w| w.live_bytes).max().unwrap_or(0);
                assert_eq!(double_buffer, 5_825_600);
                assert_eq!(high_water, 4_443_200);
                assert!(high_water < double_buffer);
            }
        }
    }

    /// Every field the level-0 build or a regrid wave inserts lives in the
    /// buffer reserved for it on the calling thread: the pool task that
    /// zero-filled and wrote it did not reallocate, so no field buffer comes
    /// from a worker's heap arena. Checked on everything `Driver::new`
    /// builds, and on a regrid of every level of both fixtures.
    #[test]
    fn inserted_fields_live_in_the_buffers_reserved_on_the_calling_thread() {
        fn check(d: &Driver, levels: std::ops::Range<usize>) {
            let built: Vec<usize> = d.fill_census.iter().map(|w| w.level).collect();
            assert!(
                levels.clone().all(|l| built.contains(&l)),
                "levels {levels:?} not all built: {built:?}"
            );
            for w in &d.fill_census {
                let ids = d.hier.level_ids(w.level);
                assert_eq!(w.reserved.len(), w.wave.len(), "level {}", w.level);
                for (i, reserved) in w.wave.clone().zip(&w.reserved) {
                    let at: Vec<*const f64> = d
                        .hier
                        .patch(ids[i])
                        .fields
                        .iter()
                        .map(|f| f.data().as_ptr())
                        .collect();
                    assert_eq!(&at, reserved, "level {}, grid {i}", w.level);
                }
            }
        }
        let mut cfg = RunConfig::new(AppKind::ShockPool3D, 16, 3, Scheme::distributed_default());
        cfg.max_levels = 3;
        let fresh = Driver::new(topology::presets::anl_ncsa_wan(2, 2, 11), cfg);
        check(&fresh, 0..3);
        for fixture in [driver as fn() -> Driver, many_small_patches] {
            let levels = fixture().hier.num_levels();
            for level in 0..levels - 1 {
                let mut d = fixture();
                d.fill_census.clear();
                d.regrid_inner(level);
                check(&d, level + 1..level + 2);
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
        many_patches(AppKind::Amr64)
    }

    /// A 2-level run of `app` one step in on a 128-processor federation,
    /// refined grids capped at 512 cells.
    fn many_patches(app: AppKind) -> Driver {
        let mut cfg = RunConfig::new(app, 32, 2, Scheme::distributed_default());
        cfg.max_levels = 2;
        cfg.max_box_cells = 512;
        let mut d = Driver::new(topology::presets::federation(8, 16, 7), cfg);
        d.step_once();
        d
    }

    /// The solve's exchange writes each field's declared reach and nothing
    /// else, and the step reads nothing else: with every ghost cell of the
    /// level poisoned, the exchange within the app's reach followed by the
    /// solve lands on the whole-shell reference exchange followed by the
    /// solve, every storage bit (ghosts included) — and the owners are
    /// charged the reference's bytes, pair by pair. For every app, on the
    /// level-0 slabs (each at the domain boundary) and on a level of many
    /// small grids, some on other owners than their parents.
    #[test]
    fn solve_exchange_within_the_reach_matches_the_whole_shell_reference() {
        for app in [AppKind::ShockPool3D, AppKind::Amr64, AppKind::AdvectBlob] {
            for level in [0, 1] {
                let (mut plan, mut reference) = (many_patches(app), many_patches(app));
                for d in [&mut plan, &mut reference] {
                    scatter_owners(d, 1);
                }
                let ids = plan.hier.level_ids(level);
                assert!(
                    ids.len() >= 16,
                    "{app:?} level {level}: {} grids",
                    ids.len()
                );
                let domain = plan.hier.domain_at_level(level);
                let at_boundary = ids.iter().any(|&id| {
                    let shell = plan.hier.patch(id).region.grow(plan.hier.ghost());
                    !domain.contains_region(&shell)
                });
                assert!(
                    level > 0 || at_boundary,
                    "{app:?}: level 0 misses the boundary"
                );
                let reach: Vec<IVec3> = (0..plan.app.nfields())
                    .map(|k| plan.app.solve_ghost_reach(k))
                    .collect();
                poison_ghosts(&mut plan, level);
                poison_ghosts(&mut reference, level);
                let topo = plan.hier.exchange_topology(level);
                assert_eq!(
                    plan.ghost_messages(&topo),
                    Vec::from_iter(brute_force_messages(&reference, level)),
                    "{app:?} level {level}: charged bytes per owner pair"
                );
                plan.exchange_ghosts_within(level, &reach);
                reference.exchange_ghosts_reference(level);
                // the Euler fields' y/z ghosts are left to the step
                let unwritten = level_bits(&plan, level)
                    .iter()
                    .flatten()
                    .flatten()
                    .any(|&b| f64::from_bits(b).is_nan());
                assert_eq!(
                    unwritten,
                    app != AppKind::AdvectBlob,
                    "{app:?} level {level}"
                );
                plan.solve_level(level);
                reference.solve_level(level);
                let bits = level_bits(&plan, level);
                assert!(
                    bits.iter()
                        .flatten()
                        .flatten()
                        .all(|&b| !f64::from_bits(b).is_nan()),
                    "{app:?} level {level}: a poisoned ghost survived the step or was read"
                );
                assert_eq!(bits, level_bits(&reference, level), "{app:?} level {level}");
                let (a, b) = (plan.sim.stats(), reference.sim.stats());
                assert_eq!(a.msgs, b.msgs, "{app:?} level {level}");
                assert_eq!(a.procs, b.procs, "{app:?} level {level}");
            }
        }
    }

    /// At level 0 the exchange writes the cells outside the domain, by
    /// zero-gradient, for every field whatever its reach, and no other
    /// ghost cell beyond the reach: with every ghost cell poisoned and no
    /// reach at all, exactly the cells outside the domain come back, with
    /// the whole-shell reference's bits.
    #[test]
    fn level0_exchange_writes_the_cells_outside_the_domain_whatever_the_reach() {
        let (mut plan, mut reference) = (many_small_patches(), many_small_patches());
        poison_ghosts(&mut plan, 0);
        poison_ghosts(&mut reference, 0);
        plan.exchange_ghosts_within(0, &vec![IVec3::ZERO; plan.hier.nfields()]);
        reference.exchange_ghosts_reference(0);
        let domain = plan.hier.domain_at_level(0);
        let (mut outside, mut inside) = (0, 0);
        for &id in plan.hier.level_ids(0) {
            let (p, q) = (plan.hier.patch(id), reference.hier.patch(id));
            for (f, g) in p.fields.iter().zip(&q.fields) {
                let shell = f.storage_region().iter_cells();
                for c in shell.filter(|&c| !f.interior().contains(c)) {
                    if domain.contains(c) {
                        inside += 1;
                        assert!(f.get(c).is_nan(), "{id:?} {c:?} written");
                    } else {
                        outside += 1;
                        assert_eq!(f.get(c).to_bits(), g.get(c).to_bits(), "{id:?} {c:?}");
                    }
                }
            }
        }
        assert!(outside > 0 && inside > 0, "outside {outside}, inside {inside}");
    }

    /// `Driver::new` with one level runs no cascade, so level 0 is the
    /// level-0 build as it left it: every slab's fields, ghosts included,
    /// are bit for bit its per-cell reference initial condition over zeros
    /// (`init_fields_reference`; φ stays zero). After the level-0 exchange
    /// the set-up cascade opens with (no reach, as Amr64's), the cells
    /// outside the domain are that reference zero-gradient-filled from the
    /// slab, and every other cell is as built. All three apps, AdvectBlob
    /// with two ghost layers, on a weighted 12-processor decomposition
    /// whose slabs are off the origin and of different shapes, under 1 and
    /// 2 threads. A footprint row copied one row off in y fails it.
    #[test]
    fn level0_build_is_the_per_slab_reference_initial_condition() {
        let bits = |f: &Field3| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2] {
            par::with_threads(threads, || {
                for app in [AppKind::ShockPool3D, AppKind::Amr64, AppKind::AdvectBlob] {
                    let mut cfg = RunConfig::new(app, 20, 1, Scheme::distributed_default());
                    cfg.max_levels = 1;
                    let mut d = Driver::new(topology::presets::federation(4, 3, 7), cfg);
                    assert_eq!(d.hier.num_levels(), 1);
                    let ids = d.hier.level_ids(0).to_vec();
                    let regions: Vec<Region> =
                        ids.iter().map(|&id| d.hier.patch(id).region).collect();
                    let shapes: std::collections::BTreeSet<_> = regions
                        .iter()
                        .map(|r| (r.size().x, r.size().y, r.size().z))
                        .collect();
                    assert_eq!(regions.len(), 12);
                    assert!(shapes.len() > 1, "{app:?}: one slab shape");
                    assert!(regions.iter().filter(|r| r.lo != IVec3::ZERO).count() >= 11);
                    let (nf, ghost) = (d.app.nfields(), d.app.ghost());
                    let oracle: Vec<Vec<Field3>> = regions
                        .iter()
                        .map(|&r| {
                            let mut fields: Vec<Field3> =
                                (0..nf).map(|_| Field3::zeros(r, ghost)).collect();
                            d.app.init_fields_reference(&mut fields);
                            fields
                        })
                        .collect();
                    for (&id, want) in ids.iter().zip(&oracle) {
                        for (k, (f, w)) in d.hier.patch(id).fields.iter().zip(want).enumerate() {
                            let at = format!("{app:?}, {threads} threads, {id:?} field {k}");
                            assert_eq!(bits(f), bits(w), "{at}");
                        }
                    }
                    d.exchange_ghosts_within(0, &vec![IVec3::ZERO; nf]);
                    let domain = d.hier.domain_at_level(0);
                    for (&id, want) in ids.iter().zip(&oracle) {
                        for (k, (f, w)) in d.hier.patch(id).fields.iter().zip(want).enumerate() {
                            let mut clamped = w.clone();
                            samr_mesh::field::reference::fill_ghosts_zero_gradient(&mut clamped);
                            for c in f.storage_region().iter_cells() {
                                let v = if domain.contains(c) { w.get(c) } else { clamped.get(c) };
                                assert_eq!(
                                    f.get(c).to_bits(),
                                    v.to_bits(),
                                    "{app:?}, {threads} threads, {id:?} field {k} at {c:?}"
                                );
                            }
                        }
                    }
                }
            });
        }
    }

    /// An exchange with no reach at all copies no sibling window: on every
    /// level of a federation of many small grids, with every ghost cell
    /// poisoned by a NaN of its own payload, each ghost cell a sibling
    /// covers keeps its bits — and the owners are charged what a
    /// whole-shell exchange charges them, message for message.
    #[test]
    fn zero_reach_exchange_leaves_every_sibling_covered_ghost_cell() {
        let levels = many_small_patches().hier.num_levels();
        assert!(levels >= 2);
        for level in 0..levels {
            let (mut none, mut whole) = (many_small_patches(), many_small_patches());
            let nf = none.hier.nfields();
            let mut payload = 0u64;
            for id in none.hier.level_ids(level).to_vec() {
                for f in none.hier.patch_mut(id).fields.iter_mut() {
                    let interior = f.interior();
                    for c in f.storage_region().iter_cells().filter(|&c| !interior.contains(c)) {
                        payload += 1;
                        f.set(c, f64::from_bits(0x7ff8_0000_0000_0000 | payload));
                    }
                }
            }
            let before: Vec<Vec<Field3>> = none
                .hier
                .level_ids(level)
                .iter()
                .map(|&id| none.hier.patch(id).fields.clone())
                .collect();
            none.exchange_ghosts_within(level, &vec![IVec3::ZERO; nf]);
            whole.exchange_ghosts(level);
            let topo = none.hier.exchange_topology(level);
            assert!(!topo.overlaps.is_empty(), "level {level}: no sibling windows");
            for (o, &(_, di)) in topo.overlaps.iter().zip(&topo.overlap_slots) {
                let (after, was) = (&none.hier.patch(o.dst).fields, &before[di as usize]);
                for (f, g) in after.iter().zip(was) {
                    for c in o.window.iter_cells() {
                        let (now, was) = (f.get(c).to_bits(), g.get(c).to_bits());
                        assert_eq!(now, was, "level {level}, {:?} at {c:?}", o.dst);
                    }
                }
            }
            let (a, b) = (none.sim.stats(), whole.sim.stats());
            assert_eq!(a.msgs, b.msgs, "level {level}");
            assert_eq!(a.procs, b.procs, "level {level}");
        }
    }

    /// Every ghost cell of `level` outside `reach[k]` of field `k` to NaN.
    fn poison_outside(d: &mut Driver, level: usize, reach: &[IVec3]) {
        for id in d.hier.level_ids(level).to_vec() {
            for (f, &r) in d.hier.patch_mut(id).fields.iter_mut().zip(reach) {
                let kept = f.interior().grow_by(r);
                for c in f.storage_region().iter_cells().filter(|&c| !kept.contains(c)) {
                    f.set(c, f64::NAN);
                }
            }
        }
    }

    fn flag_reach(d: &Driver) -> Vec<IVec3> {
        (0..d.app.nfields())
            .map(|k| d.app.flag_ghost_reach(k))
            .collect()
    }

    /// The set-up cascade of [`Driver::new_on`] with `exchange` run before
    /// each regrid, and the flags of every grid each regrid read, level by
    /// level in id order.
    fn setup_cascade(
        sys: DistributedSystem,
        cfg: RunConfig,
        exchange: fn(&mut Driver, usize),
    ) -> (Driver, Vec<Vec<Vec<bool>>>) {
        let mut d = Driver::level0_on(SimView::new(sys), cfg);
        let mut flags = Vec::new();
        for l in 0..d.cfg.max_levels - 1 {
            if d.hier.level_ids(l).is_empty() {
                break;
            }
            exchange(&mut d, l);
            let level: Vec<Vec<bool>> = d
                .hier
                .level_ids(l)
                .iter()
                .map(|&id| {
                    let p = d.hier.patch(id);
                    let f = d.app.flag_patch(p, d.hier.pool());
                    p.region.iter_cells().map(|c| f.get(c)).collect()
                })
                .collect();
            flags.push(level);
            d.regrid(l);
        }
        d.peak_patches = d.hier.num_patches();
        (d, flags)
    }

    /// The set-up exchange within the flagging reach flags what the
    /// whole-shell exchange it replaced flagged, with every ghost cell
    /// outside the reach poisoned before flagging, so the regrids build the
    /// same hierarchy: regions, owners and parents on every level, and — in
    /// `Driver::new` itself — level 0's storage bits, ghosts included. One
    /// step later every storage bit of every level agrees, poisoned build
    /// included, so no ghost cell the cascade left unwritten is read. For
    /// every app: ShockPool3D three levels deep (a level-1 set-up exchange
    /// runs) with its shock across slab faces, Amr64 with particles in
    /// level-0 grids, AdvectBlob with two ghost layers.
    #[test]
    fn setup_exchange_within_the_flag_reach_matches_the_whole_shell_cascade() {
        let whole: fn(&mut Driver, usize) = |d, l| d.exchange_ghosts(l);
        let poisoned: fn(&mut Driver, usize) = |d, l| {
            let reach = flag_reach(d);
            d.exchange_ghosts_within(l, &reach);
            poison_outside(d, l, &reach);
        };
        let cases = [
            (AppKind::ShockPool3D, 16, 3, topology::presets::anl_ncsa_wan(4, 4, 11)),
            (AppKind::Amr64, 32, 2, topology::presets::federation(8, 16, 7)),
            (AppKind::AdvectBlob, 16, 3, topology::presets::anl_ncsa_wan(2, 2, 11)),
        ];
        for (app, n0, levels, sys) in cases {
            let mut cfg = RunConfig::new(app, n0, 1, Scheme::distributed_default());
            cfg.max_levels = levels;
            let mut new = Driver::new(sys.clone(), cfg.clone());
            let (mut reach, flags) = setup_cascade(sys.clone(), cfg.clone(), poisoned);
            let (mut oracle, oracle_flags) = setup_cascade(sys, cfg, whole);
            assert_eq!(new.hier.num_levels(), levels, "{app:?}: levels");
            let unread = flag_reach(&new).iter().all(|&r| r == IVec3::ZERO);
            assert_eq!(unread, app == AppKind::Amr64, "{app:?}: {:?}", flag_reach(&new));
            if app == AppKind::Amr64 {
                let with_particles = new.hier.level_ids(0).iter().filter(|&&id| {
                    new.app.particles.any_in(new.hier.patch(id).region)
                });
                assert!(with_particles.count() >= 2, "no particles in level-0 grids");
            }
            let flagged = flags.iter().flatten().flatten().filter(|&&f| f).count();
            assert!(flagged > 0, "{app:?}: nothing flagged");
            assert_eq!(flags, oracle_flags, "{app:?}: flags");
            for d in [&new, &reach] {
                for l in 0..levels {
                    let shape = |d: &Driver| -> Vec<(Region, usize, Option<PatchId>)> {
                        let ids = d.hier.level_ids(l);
                        ids.iter()
                            .map(|&id| d.hier.patch(id))
                            .map(|p| (p.region, p.owner, p.parent))
                            .collect()
                    };
                    assert_eq!(shape(d), shape(&oracle), "{app:?} level {l}");
                }
            }
            assert_eq!(level_bits(&new, 0), level_bits(&oracle, 0), "{app:?}: level 0");
            assert_eq!(new.sim.stats().msgs, oracle.sim.stats().msgs, "{app:?}");
            for d in [&mut new, &mut reach, &mut oracle] {
                d.step_once();
            }
            for l in 0..oracle.hier.num_levels() {
                let bits = level_bits(&oracle, l);
                assert!(
                    bits.iter().flatten().flatten().all(|&b| !f64::from_bits(b).is_nan()),
                    "{app:?} level {l}: NaN"
                );
                assert_eq!(level_bits(&new, l), bits, "{app:?} level {l} after a step");
                assert_eq!(level_bits(&reach, l), bits, "{app:?} level {l}: poison read");
            }
        }
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
