//! Run configuration and result types.

use crate::app::AppKind;
use crate::scheme::Scheme;
use base::json::{Json, ToJson};
use metrics::{FaultCounters, ForecastStats, PhaseWall, RecoveryStats, RunBreakdown};
use simnet::RetryPolicy;
use topology::ProcFaultSchedule;

/// Parameters of one simulated SAMR run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload.
    pub app: AppKind,
    /// Level-0 domain cells per side.
    pub n0: i64,
    /// Maximum refinement levels (root included). The paper's Fig. 1 shows 4.
    pub max_levels: usize,
    /// Refinement factor between levels (paper uses 2).
    pub refine_factor: i64,
    /// Number of level-0 timesteps to run.
    pub steps: usize,
    /// The DLB scheme driving the run.
    pub scheme: Scheme,
    /// RNG seed for initial conditions (and, via the topology presets, for
    /// background traffic).
    pub seed: u64,
    /// Regrid a level every this many of its steps.
    pub regrid_interval: usize,
    /// Flag-buffer width in cells.
    pub flag_buffer: usize,
    /// Largest allowed cells per created subgrid (keeps grids movable).
    pub max_box_cells: i64,
    /// Override of the application's per-cell-update compute cost (seconds
    /// on a weight-1.0 processor). `None` uses the app default. This is the
    /// calibration knob for the compute/communication ratio of the modeled
    /// testbed.
    pub cost_per_cell: Option<f64>,
    /// Retry policy for the driver's bulk boundary/regrid transfers. A
    /// transfer that still fails after these retries is tolerated (the
    /// receiver advances with stale ghost data) and counted in
    /// [`RunResult::faults`].
    pub comm_retry: RetryPolicy,
    /// Seeded crash/rejoin windows per processor. A proc inside a crash
    /// window is dead: its sends fail fast, its group runs the global phase
    /// at reduced capacity, and the driver evacuates its patches at the
    /// next step boundary — reconstructing their data from the per-step
    /// recovery checkpoint and charging the recomputation to the survivors
    /// ([`RunResult::recovery`]). The default schedule is quiet.
    pub proc_faults: ProcFaultSchedule,
    /// Observability handle threaded through the simulator, the DLB scheme
    /// and the driver's phase spans. The default null handle records
    /// nothing and costs nothing; pass [`telemetry::Telemetry::recording`]
    /// (or `recording_shared` to keep a reader) to capture spans, decision
    /// events and Chrome-trace/JSONL exports. Recording never perturbs the
    /// simulation: fingerprints are bit-identical either way.
    pub telemetry: telemetry::Telemetry,
}

impl RunConfig {
    /// Sensible defaults for `app` at domain size `n0`: 4 levels, r = 2,
    /// regrid every step, one-cell flag buffer.
    pub fn new(app: AppKind, n0: i64, steps: usize, scheme: Scheme) -> Self {
        RunConfig {
            app,
            n0,
            max_levels: 4,
            refine_factor: 2,
            steps,
            scheme,
            seed: 42,
            regrid_interval: 1,
            flag_buffer: 1,
            max_box_cells: (n0 * n0 * n0 / 8).max(512),
            cost_per_cell: None,
            comm_retry: RetryPolicy::default(),
            proc_faults: ProcFaultSchedule::default(),
            telemetry: telemetry::Telemetry::null(),
        }
    }
}

/// Outcome of one run (all times are simulated seconds).
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Scheme name ("parallel DLB", "distributed DLB", "static").
    pub scheme: String,
    /// System description (e.g. "ANL(4) + NCSA(4) over MREN OC-3").
    pub system: String,
    /// Workload.
    pub app: AppKind,
    /// Total execution time.
    pub total_secs: f64,
    /// Where the time went.
    pub breakdown: RunBreakdown,
    /// Level-0 steps executed.
    pub steps: usize,
    /// Levels present at the end.
    pub levels: usize,
    /// Grids present at the end.
    pub final_patches: usize,
    /// Most grids alive at any point of the run (memory high-water mark).
    pub peak_patches: usize,
    /// Host wall-clock seconds per driver phase (real time, excludes setup).
    pub wall: PhaseWall,
    /// Host seconds of `wall.ghost` by part of the planned exchange — plan
    /// fetch or rebuild, parent/boundary fill, sibling copy, messages. Host
    /// time, so outside the serialized contract and every fingerprint.
    pub ghost_wall: metrics::GhostWall,
    /// Host seconds of `wall.decision` by what the distributed scheme was
    /// doing — local balancing, deciding, migrating; they sum to
    /// `wall.decision` less the driver's span bookkeeping. Host time, so
    /// outside the serialized contract and every fingerprint.
    pub dlb_wall: dlb::DlbWall,
    /// Total cell updates executed (workload size; equal across schemes for
    /// the same app/seed when adaptation follows the same physics).
    pub cell_updates: u64,
    /// Global-phase decisions evaluated (distributed scheme).
    pub global_checks: usize,
    /// Global redistributions actually invoked.
    pub global_redistributions: usize,
    /// Fault-protocol counters: scheme-level retries/quarantines/aborts
    /// plus the driver's tolerated bulk-transfer failures.
    pub faults: FaultCounters,
    /// Forecast-quality counters of the scheme's network-weather series
    /// (zeroes for schemes without a forecasting layer).
    pub forecast: ForecastStats,
    /// Crash-stop recovery counters: crashes detected, patches evacuated,
    /// MTTR, and the recompute overhead charged for checkpoint restores
    /// (all zero when [`RunConfig::proc_faults`] is quiet).
    pub recovery: RecoveryStats,
    /// Field buffers the run's hierarchy handed out (`misses`; nothing is
    /// reused, so the other three counters read 0).
    pub pool: samr_mesh::pool::PoolStats,
    /// Final power-normalized group imbalance: `(max_g W_g/P_g) /
    /// (mean_g W_g/P_g)` over groups with surviving power, from the
    /// hierarchy's end-of-run cell counts (1.0 when degenerate — a single
    /// group, or nothing loaded). Always finite, unlike the decision-time
    /// max/min ratio, so sweeps can compare it across fault scenarios.
    pub final_imbalance: f64,
    /// Link-estimator pairs the decision phase ever allocated — O(G²) for
    /// the flat all-pairs compare, O(G) for the hierarchical tree.
    pub estimator_pairs: u64,
    /// Inter-group messages charged by global decision phases (collective
    /// legs, probe messages, tree summary/delegation traffic).
    pub decision_msgs: u64,
    /// Per-level-0-step global decision log (distributed scheme only).
    pub decisions: Vec<DecisionSummary>,
    /// Text report of the telemetry sink (None when the run used the
    /// default null handle).
    pub telemetry_summary: Option<String>,
}

/// The serialized contract: every field but the two host-time side blocks
/// (`ghost_wall`, `dlb_wall`).
impl ToJson for RunResult {
    fn to_json(&self) -> Json {
        base::json_fields!(self;
            scheme, system, app, total_secs, breakdown, steps, levels, final_patches,
            peak_patches, wall, cell_updates, global_checks, global_redistributions, faults,
            forecast, recovery, pool, final_imbalance, estimator_pairs, decision_msgs,
            decisions, telemetry_summary,
        )
    }
}

/// Serializable summary of one global-phase decision.
#[derive(Clone, Debug)]
pub struct DecisionSummary {
    pub step: u64,
    /// Eq.-4 gain estimate, seconds.
    pub gain_secs: f64,
    /// Eq.-1 cost estimate, seconds (absent when no imbalance detected).
    pub cost_secs: Option<f64>,
    /// Power-normalized group imbalance ratio.
    pub imbalance: f64,
    pub invoked: bool,
    /// Whether an invoked redistribution was aborted and rolled back.
    pub aborted: bool,
    /// Level-0 cells moved (when invoked).
    pub moved_cells: i64,
    /// Iteration-weighted workload per group at decision time.
    pub group_loads: Vec<f64>,
}

impl ToJson for DecisionSummary {
    fn to_json(&self) -> Json {
        base::json_fields!(self;
            step, gain_secs, cost_secs, imbalance, invoked, aborted, moved_cells, group_loads,
        )
    }
}

impl RunResult {
    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{:<16} {:<36} total {:>9.2}s  (compute {:>8.2}s, comm {:>8.2}s, lb {:>7.2}s)  grids {:>4}  redist {}/{}",
            self.scheme,
            self.system,
            self.total_secs,
            self.breakdown.compute,
            self.breakdown.comm,
            self.breakdown.lb,
            self.final_patches,
            self.global_redistributions,
            self.global_checks,
        )
    }
}
