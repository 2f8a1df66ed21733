//! The two passes over a workload.
//!
//! Both start with one warm-up run through the users' entry points —
//! `Driver::new` → `run()`, `TenantService::new` → `run()` — after which
//! the process's `VmHWM` is read: that is `peak_rss_mb`.
//!
//! * **Timed** (`--trace 0`): one oracle-checked stepped pass, then a fixed
//!   number of timed repeats (`Sizes::repeats`) through the same entry
//!   points with tracing off. Gives the end-to-end metrics.
//! * **Traced** (`--trace 1`): a stepped pass with recording telemetry, a
//!   span around every public call and the oracle after every step; the
//!   timed repeats for the phase medians; then the layer replays on a copy
//!   of the final mesh. Gives the per-layer metrics and a Chrome trace.

use crate::host::peak_rss_mb;
use crate::json::{obj, Value};
use crate::oracle::Oracle;
use crate::replay::{run_replays, ReplayInput};
use crate::spec::{self, PER_LAYER};
use crate::stats::{iqr_frac, median, Samples};
use crate::tracer::Tracer;
use crate::workload::{jitter_links, Fingerprint, Job, Outcome, Scale, Workload};
use dlb::WorkloadHistory;
use samr_engine::{AppState, Driver, RunConfig, Scheme};
use samr_mesh::checkpoint::{snapshot, HierarchySnapshot};
use simnet::SimHandle;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telemetry::{RecordingSink, Telemetry};
use tenants::TenantService;
use topology::{DistributedSystem, GroupId};

const MIB: f64 = 1024.0 * 1024.0;

#[derive(Clone, Debug)]
pub struct PassOptions {
    pub scale: Scale,
    /// `--seed`.
    pub seed: u64,
    /// Where the traced pass writes `trace_<workload>.json` (`None`: nowhere).
    pub out_dir: Option<PathBuf>,
}

/// One timed run through the users' entry points.
pub struct Repeat {
    pub setup_s: f64,
    pub wall_s: f64,
    pub outcome: Outcome,
}

/// The state a stepped pass ends in, kept for the replays.
pub struct FinalState {
    pub snapshot: HierarchySnapshot,
    pub mesh_sys: DistributedSystem,
    pub app: AppState,
    pub history: WorkloadHistory,
}

pub struct Stepped {
    pub outcome: Outcome,
    /// Host seconds of each `step_once` (oracle excluded).
    pub step_walls: Vec<f64>,
    pub system_build_s: f64,
    pub finish_s: f64,
    pub state: Option<FinalState>,
    pub cfg: RunConfig,
    pub net_sys: DistributedSystem,
}

impl Stepped {
    /// Host seconds of the stepped run itself: steps plus finish.
    pub fn run_wall(&self) -> f64 {
        self.step_walls.iter().sum::<f64>() + self.finish_s
    }
}

/// What one (workload, pass) process reports.
pub struct PassReport {
    pub job: Job,
    pub traced: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub violations: Vec<String>,
    pub fingerprint: Fingerprint,
    pub repeats: usize,
    pub end_to_end: Vec<(&'static str, Samples)>,
    /// Every declared per-layer metric (traced pass only); `None` where the
    /// metric does not apply to the workload.
    pub per_layer: Vec<(&'static str, Option<f64>)>,
    pub trace_file: Option<PathBuf>,
    pub notes: Vec<String>,
}

/// One timed repeat: `setup_s` is building the preset plus the constructor
/// (the seed's link jitter in between is not counted), `wall_s` is `run()`
/// (plus, on `tenants_6g`, the JSONL export of the recording it ran with).
pub fn timed_repeat(job: &Job) -> Repeat {
    job.trim_heap();
    let t0 = Instant::now();
    let preset = job.preset();
    let preset_s = t0.elapsed().as_secs_f64();
    let sys = jitter_links(&preset, job.seed);
    let t0 = Instant::now();
    if job.workload.is_service() {
        let tel = Telemetry::recording();
        let service = TenantService::new(sys, job.tenant_mix(), job.service_config(tel.clone()));
        let setup_s = preset_s + t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let result = service.run();
        let jsonl = tel.to_jsonl();
        let wall_s = t1.elapsed().as_secs_f64();
        drop(jsonl);
        Repeat {
            setup_s,
            wall_s,
            outcome: Outcome::of_service(result),
        }
    } else {
        let driver = Driver::new(sys, job.run_config(Telemetry::null()));
        let setup_s = preset_s + t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let result = driver.run();
        let wall_s = t1.elapsed().as_secs_f64();
        Repeat {
            setup_s,
            wall_s,
            outcome: Outcome::of_run(result),
        }
    }
}

/// Drive one job step by step under `cfg` (the job's [`Job::run_config`],
/// possibly with another scheme): `Driver::new` → `step_once` × steps →
/// `finish`, a span around each, the oracle (if any) after every step. On
/// `tenants_6g` the job is the probe: tenant 0's configuration alone on a
/// shared 2-group view of the substrate.
pub fn stepped_pass(
    job: &Job,
    cfg: RunConfig,
    tracer: &mut Tracer,
    mut oracle: Option<&mut Oracle>,
    keep_state: bool,
) -> Stepped {
    let steps = job.sizes.steps;
    job.trim_heap();
    tracer.next_run();
    let (preset, system_build_s) = tracer.time("preset", "topology", || job.preset());
    let net_sys = jitter_links(&preset, job.seed);
    let new_span = tracer.begin("Driver::new", "samr-engine");
    let mut driver = if job.workload.is_service() {
        let handle = SimHandle::new(net_sys.clone());
        let view = handle.view(&[GroupId(0), GroupId(1)]);
        let d = Driver::new_on(view, cfg.clone());
        handle.reset(); // set-up excluded, as TenantService::run does
        d
    } else {
        let mut d = Driver::new(net_sys.clone(), cfg.clone());
        d.sim_mut().reset(); // set-up excluded, as Driver::run does
        d
    };
    tracer.end(new_span);
    if let Some(o) = oracle.as_deref_mut() {
        o.start(driver.hierarchy(), driver.app());
    }

    let mut step_walls = Vec::with_capacity(steps);
    for _ in 0..steps {
        let before = driver.phase_wall();
        let span = tracer.begin("step_once", "samr-engine");
        driver.step_once();
        step_walls.push(tracer.end(span));
        let after = driver.phase_wall();
        tracer.synthesize_children(
            span,
            "samr-engine",
            &[
                ("solve", after.solve - before.solve),
                ("ghost", after.ghost - before.ghost),
                ("regrid", after.regrid - before.regrid),
                ("restrict", after.restrict - before.restrict),
                ("decision", after.decision - before.decision),
            ],
        );
        tracer.count("patches", driver.hierarchy().num_patches() as f64);
        tracer.count("cell_updates", driver.cell_updates_so_far() as f64);
        tracer.count("global_checks", driver.decisions().len() as f64);
        if let Some(o) = oracle.as_deref_mut() {
            let span = tracer.begin("oracle", "bench");
            let redistributed = driver
                .trace()
                .records
                .last()
                .is_some_and(|s| s.redistributed);
            o.check(driver.hierarchy(), driver.system(), redistributed);
            tracer.end(span);
        }
    }
    let state = keep_state.then(|| {
        let span = tracer.begin("checkpoint::snapshot", "samr-mesh");
        let state = FinalState {
            snapshot: snapshot(driver.hierarchy()),
            mesh_sys: driver.system().clone(),
            app: driver.app().clone(),
            history: driver.history().clone(),
        };
        tracer.end(span);
        state
    });
    let (result, finish_s) = tracer.time("finish", "samr-engine", || driver.finish());
    Stepped {
        outcome: Outcome::of_run(result),
        step_walls,
        system_build_s,
        finish_s,
        state,
        cfg,
        net_sys,
    }
}

/// Result-level checks of a service run (its mesh states are not reachable
/// from outside the service): every tenant finished its steps, did work,
/// and reported finite numbers.
fn check_service(job: &Job, outcome: &Outcome, oracle: &mut Oracle) {
    let mix = job.tenant_mix();
    if outcome.runs.len() != mix.len() {
        oracle.reject(format!(
            "{} tenant reports for {} tenants",
            outcome.runs.len(),
            mix.len()
        ));
    }
    for (t, (run, spec)) in outcome.runs.iter().zip(&mix).enumerate() {
        oracle.checked += 1;
        let finite = run.total_secs.is_finite()
            && run.final_imbalance.is_finite()
            && run.breakdown.compute.is_finite();
        if run.steps != spec.steps || run.cell_updates == 0 || !finite || run.total_secs <= 0.0 {
            oracle.reject(format!(
                "tenant {t}: steps {}/{}, cell updates {}, total {} s",
                run.steps, spec.steps, run.cell_updates, run.total_secs
            ));
        }
    }
    let svc = outcome.service.as_ref().expect("service outcome");
    if svc.tenant_steps != mix.iter().map(|s| s.steps as u64).sum::<u64>()
        || !svc.worst_p99_step_secs.is_finite()
    {
        oracle.reject(format!("service: {} tenant-steps", svc.tenant_steps));
    }
}

/// What the oracle-checked pass hands on.
struct Checked {
    /// The outcome the timed repeats must reproduce.
    reference: Outcome,
    /// The stepped job (on `tenants_6g`, the probe).
    stepped: Stepped,
    /// Operations attempted.
    ops: u64,
    service: ServiceSpans,
}

/// The oracle-checked pass both modes start with.
fn checked_pass(
    job: &Job,
    telemetry: Telemetry,
    tracer: &mut Tracer,
    oracle: &mut Oracle,
    keep_state: bool,
) -> Checked {
    if !job.workload.is_service() {
        let cfg = job.run_config(telemetry);
        let stepped = stepped_pass(job, cfg, tracer, Some(oracle), keep_state);
        return Checked {
            reference: stepped.outcome.clone(),
            ops: stepped.outcome.steps(),
            stepped,
            service: ServiceSpans::default(),
        };
    }
    // the service itself, recording as the timed repeats do …
    job.trim_heap();
    tracer.next_run();
    let (preset, build_s) = tracer.time("preset", "topology", || job.preset());
    let sys = jitter_links(&preset, job.seed);
    let (service, new_s) = tracer.time("TenantService::new", "tenants", || {
        TenantService::new(sys, job.tenant_mix(), job.service_config(telemetry.clone()))
    });
    let (result, run_s) = tracer.time("TenantService::run", "tenants", || service.run());
    let (jsonl, export_s) = tracer.time("to_jsonl", "telemetry", || telemetry.to_jsonl());
    let outcome = Outcome::of_service(result);
    let t0 = Instant::now();
    check_service(job, &outcome, oracle);
    oracle.secs += t0.elapsed().as_secs_f64();
    drop(jsonl);
    let service = ServiceSpans {
        system_build_s: build_s,
        service_new_s: new_s,
        run_s,
        export_s,
    };
    // … and the probe job, whose states the oracle can see
    let cfg = job.run_config(Telemetry::null());
    let probe = stepped_pass(job, cfg, tracer, Some(oracle), keep_state);
    Checked {
        ops: outcome.steps() + probe.outcome.steps(),
        reference: outcome,
        stepped: probe,
        service,
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct ServiceSpans {
    system_build_s: f64,
    service_new_s: f64,
    /// `TenantService::run` alone, and the JSONL export after it.
    run_s: f64,
    export_s: f64,
}

/// The first thing a pass does: one untimed run through the users' entry
/// points. Nothing else has run in the process yet, so its `VmHWM`
/// afterwards is one run's memory.
struct WarmUp {
    outcome: Outcome,
    /// `None` where the host has no `/proc/self/status`.
    peak_rss_mb: Option<f64>,
}

fn warm_up(job: &Job) -> WarmUp {
    let outcome = timed_repeat(job).outcome;
    WarmUp {
        outcome,
        peak_rss_mb: peak_rss_mb(),
    }
}

struct Repeats {
    runs: Vec<Repeat>,
    failed_ops: u64,
    attempted_ops: u64,
    peak_rss_mb: Option<f64>,
}

/// `count` timed repeats. Every step of a run — of the warm-up too — whose
/// fingerprint differs from `reference` counts as failed.
fn timed_repeats(
    job: &Job,
    count: usize,
    warm: WarmUp,
    reference: Fingerprint,
    violations: &mut Vec<String>,
) -> Repeats {
    let mut out = Repeats {
        runs: Vec::with_capacity(count),
        failed_ops: 0,
        attempted_ops: 0,
        peak_rss_mb: warm.peak_rss_mb,
    };
    let mut check = |which: &str, outcome: &Outcome| {
        let steps = outcome.steps();
        out.attempted_ops += steps;
        let fp = outcome.fingerprint();
        if fp != reference {
            out.failed_ops += steps;
            if violations.len() < 8 {
                violations.push(format!(
                    "{which} fingerprint {fp:?} differs from the checked pass {reference:?}"
                ));
            }
        }
    };
    check("warm-up", &warm.outcome);
    for i in 0..count {
        let r = timed_repeat(job);
        check(&format!("timed repeat {i}"), &r.outcome);
        out.runs.push(r);
    }
    out
}

const NO_VMHWM: &str =
    "peak_rss_mb: this host has no VmHWM in /proc/self/status — reported as 0, not measured";

fn end_to_end_samples(repeats: &Repeats) -> Vec<(&'static str, Samples)> {
    let col = |f: &dyn Fn(&Repeat) -> f64| Samples(repeats.runs.iter().map(f).collect());
    vec![
        ("setup_s", col(&|r| r.setup_s)),
        ("wall_s", col(&|r| r.wall_s)),
        (
            "cell_updates_per_s",
            col(&|r| r.outcome.cell_updates() as f64 / r.wall_s),
        ),
        ("sim_total_s", col(&|r| r.outcome.total_secs)),
        (
            "peak_rss_mb",
            Samples(vec![repeats.peak_rss_mb.unwrap_or(0.0)]),
        ),
    ]
}

/// The timed pass (`--trace 0`).
pub fn timed_pass(w: Workload, opts: &PassOptions) -> PassReport {
    let job = w.job(opts.scale, opts.seed);
    let warm = warm_up(&job);
    let mut oracle = Oracle::default();
    let tel = if w.is_service() {
        Telemetry::recording()
    } else {
        Telemetry::null()
    };
    let checked = checked_pass(&job, tel, &mut Tracer::default(), &mut oracle, false);
    let mut violations = std::mem::take(&mut oracle.violations);
    let fingerprint = checked.reference.fingerprint();
    let repeats = timed_repeats(&job, job.sizes.repeats, warm, fingerprint, &mut violations);
    PassReport {
        job,
        traced: false,
        ops_attempted: checked.ops + repeats.attempted_ops,
        ops_failed: oracle.rejected + repeats.failed_ops,
        violations,
        fingerprint,
        repeats: repeats.runs.len(),
        end_to_end: end_to_end_samples(&repeats),
        per_layer: Vec::new(),
        trace_file: None,
        notes: std::iter::once(oracle.summary())
            .chain(repeats.peak_rss_mb.is_none().then(|| NO_VMHWM.to_string()))
            .collect(),
    }
}

fn median_of(repeats: &[Repeat], f: impl Fn(&Repeat) -> f64) -> f64 {
    median(&repeats.iter().map(f).collect::<Vec<_>>())
}

/// Median of five timed calls of an export, as spans; `(seconds, bytes)`.
fn timed_export(
    tracer: &mut Tracer,
    name: &str,
    export: impl Fn() -> Option<String>,
) -> (f64, usize) {
    let mut secs = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        let (doc, s) = tracer.time(name, "telemetry", &export);
        bytes = doc.map_or(0, |d| d.len());
        secs.push(s);
    }
    (median(&secs), bytes)
}

/// The traced pass (`--trace 1`).
pub fn traced_pass(w: Workload, opts: &PassOptions) -> PassReport {
    let job = w.job(opts.scale, opts.seed);
    let warm = warm_up(&job);
    let full = opts.scale == Scale::Full;
    let mut tracer = Tracer::default();
    let mut oracle = Oracle::default();
    let mut notes = Vec::new();

    // 1. the traced run: recording telemetry, spans, oracle after each step
    let (tel, sink): (Telemetry, Arc<Mutex<RecordingSink>>) = Telemetry::recording_shared();
    let Checked {
        reference,
        mut stepped,
        ops: checked_ops,
        service: service_spans,
    } = checked_pass(&job, tel.clone(), &mut tracer, &mut oracle, true);
    let fingerprint = reference.fingerprint();
    // what the timed repeats' wall_s covers, and the part recording touches
    let (traced_wall, recorded_wall) = if w.is_service() {
        (
            service_spans.run_s + service_spans.export_s,
            service_spans.run_s,
        )
    } else {
        (stepped.run_wall(), stepped.run_wall())
    };

    // 2. layer replays on copies of the traced run's final mesh; the mesh
    // is given back before the timed repeats, which would otherwise have to
    // grow the heap around it (their first would read 20 % slow)
    let state = stepped
        .state
        .take()
        .expect("traced pass keeps its final state");
    let input = ReplayInput {
        snapshot: &state.snapshot,
        mesh_sys: &state.mesh_sys,
        net_sys: &stepped.net_sys,
        app: &state.app,
        history: &state.history,
        cfg: &stepped.cfg,
        seed: job.seed,
        reps: if full { 5 } else { 2 },
        sends: if full { 4096 } else { 256 },
    };
    let replayed = run_replays(&input, &mut tracer);
    drop(state);

    // 3. timed repeats, for the phase medians, pool counters and run-to-run
    // spread
    let mut violations = std::mem::take(&mut oracle.violations);
    let repeats = timed_repeats(&job, job.sizes.repeats, warm, fingerprint, &mut violations);
    let runs = &repeats.runs;
    let wall = median_of(runs, |r| r.wall_s);
    let last = &runs.last().expect("at least one repeat").outcome;

    // 4. the recording's exports, and what it holds
    let (jsonl_s, jsonl_bytes) = timed_export(&mut tracer, "to_jsonl", || tel.to_jsonl());
    let (chrome_s, _) = timed_export(&mut tracer, "to_chrome_trace", || tel.to_chrome_trace());
    let (events, spans, dropped) = {
        let sink = sink.lock().expect("telemetry sink");
        let (d, f) = sink.dropped();
        (
            sink.events().len(),
            sink.spans().len(),
            d + f + sink.spans_dropped(),
        )
    };

    // 5. what recording costs: the same path with the null handle and with
    // a recording one, alternating; the fastest of each side is compared
    // (the traced run above counts as a recording sample)
    let plain_run = |tel: Telemetry, tracer: &mut Tracer| -> f64 {
        if w.is_service() {
            job.trim_heap();
            let service = TenantService::new(
                job.build_system(),
                job.tenant_mix(),
                job.service_config(tel),
            );
            tracer.next_run();
            tracer
                .time("TenantService::run", "tenants", || service.run())
                .1
        } else {
            stepped_pass(&job, job.run_config(tel), tracer, None, false).run_wall()
        }
    };
    let null_wall = plain_run(Telemetry::null(), &mut tracer);
    let recorded_wall = recorded_wall.min(plain_run(Telemetry::recording(), &mut tracer));
    let null_wall = null_wall.min(plain_run(Telemetry::null(), &mut tracer));

    // 6. the paper's headline: the same run under the parallel-DLB baseline
    let improvement = spec::Applies::PaperTestbeds.to(w.name()).then(|| {
        let mut cfg = job.run_config(Telemetry::null());
        cfg.scheme = Scheme::Parallel;
        let base = stepped_pass(&job, cfg, &mut tracer, None, false);
        let (par, dist) = (base.outcome.total_secs, reference.total_secs);
        100.0 * (par - dist) / par
    });

    notes.push(
        "forecast.observe_predict_ns: no workload routes the gate through the forecaster by default"
            .to_string(),
    );
    if w.is_service() {
        notes.push(
            "tenants_6g: the oracle's step checks and the replays run on the probe job (tenant 0's \
             configuration alone on a shared 2-group view); the service run is checked at result level"
                .to_string(),
        );
    }

    // 7. assemble the per-layer metrics
    let phases = [
        median_of(runs, |r| r.outcome.phase_wall().solve),
        median_of(runs, |r| r.outcome.phase_wall().ghost),
        median_of(runs, |r| r.outcome.phase_wall().regrid),
        median_of(runs, |r| r.outcome.phase_wall().restrict),
        median_of(runs, |r| r.outcome.phase_wall().decision),
    ];
    let checks = last.sum_u64(|r| r.global_checks as u64) as f64;
    let redists = last.sum_u64(|r| r.global_redistributions as u64) as f64;
    let per_check = |x: f64| if checks > 0.0 { x / checks } else { 0.0 };
    let pool_hits = last.sum_u64(|r| r.pool.hits) as f64;
    let pool_misses = last.sum_u64(|r| r.pool.misses) as f64;
    // message totals and per-processor maxima are substrate-wide on a
    // shared view: every tenant reports the same number, so take the largest
    let widest =
        |f: &dyn Fn(&samr_engine::RunResult) -> f64| last.runs.iter().map(f).fold(0.0, f64::max);
    let step_ms: Vec<f64> = stepped.step_walls.iter().map(|s| s * 1e3).collect();
    let mut values: Vec<(&'static str, f64)> = vec![
        ("samr-engine.steps", last.steps() as f64),
        ("samr-engine.step_wall_p50_ms", median(&step_ms)),
        (
            "samr-engine.step_wall_max_ms",
            step_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("samr-engine.solve_s", phases[0]),
        ("samr-engine.ghost_s", phases[1]),
        ("samr-engine.regrid_s", phases[2]),
        ("samr-engine.restrict_s", phases[3]),
        ("samr-engine.decision_s", phases[4]),
        (
            "samr-engine.unattributed_frac",
            (wall - phases.iter().sum::<f64>()) / wall,
        ),
        ("samr-engine.finish_ms", stepped.finish_s * 1e3),
        (
            "samr-engine.peak_patches",
            last.sum_u64(|r| r.peak_patches as u64) as f64,
        ),
        ("samr-engine.cell_updates", last.cell_updates() as f64),
        (
            "samr-engine.failed_transfers",
            last.sum_u64(|r| r.faults.comm_failures) as f64,
        ),
        (
            "samr-mesh.pool_hit_ratio",
            pool_hits / (pool_hits + pool_misses).max(1.0),
        ),
        (
            "samr-mesh.pool_steady_misses",
            last.sum_u64(|r| r.pool.steady_misses) as f64,
        ),
        (
            "samr-mesh.pool_recycled_mb",
            last.sum_u64(|r| r.pool.bytes_recycled) as f64 / MIB,
        ),
        ("dlb.global_checks", checks),
        ("dlb.global_redistributions", redists),
        ("dlb.accept_ratio", per_check(redists)),
        (
            "dlb.aborts",
            last.sum_u64(|r| r.decisions.iter().filter(|d| d.aborted).count() as u64) as f64,
        ),
        (
            "dlb.moved_cells",
            last.sum_u64(|r| {
                r.decisions
                    .iter()
                    .map(|d| d.moved_cells.max(0) as u64)
                    .sum()
            }) as f64,
        ),
        (
            "dlb.decision_msgs_per_check",
            per_check(last.sum_u64(|r| r.decision_msgs) as f64),
        ),
        (
            "dlb.estimator_pairs",
            last.sum_u64(|r| r.estimator_pairs) as f64,
        ),
        ("dlb.final_imbalance", widest(&|r| r.final_imbalance)),
        (
            "dlb.sim_lb_s",
            last.sum_f64(|r| r.breakdown.lb) / last.runs.len() as f64,
        ),
        (
            "simnet.remote_msgs",
            widest(&|r| r.breakdown.remote_msgs as f64),
        ),
        (
            "simnet.remote_mb",
            widest(&|r| r.breakdown.remote_bytes as f64) / MIB,
        ),
        ("simnet.sim_compute_s", widest(&|r| r.breakdown.compute)),
        ("simnet.sim_comm_s", widest(&|r| r.breakdown.comm)),
        (
            "topology.system_build_ms",
            1e3 * if w.is_service() {
                service_spans.system_build_s
            } else {
                stepped.system_build_s
            },
        ),
        ("topology.procs", stepped.net_sys.nprocs() as f64),
        ("topology.groups", stepped.net_sys.ngroups() as f64),
        ("telemetry.events", events as f64),
        ("telemetry.spans", spans as f64),
        ("telemetry.dropped", dropped as f64),
        ("telemetry.jsonl_mb", jsonl_bytes as f64 / MIB),
        ("telemetry.export_jsonl_ms", jsonl_s * 1e3),
        ("telemetry.export_chrome_ms", chrome_s * 1e3),
        (
            "telemetry.record_overhead_frac",
            (recorded_wall - null_wall) / null_wall,
        ),
        ("tenants.service_new_ms", service_spans.service_new_s * 1e3),
        ("bench.trace_overhead_frac", (traced_wall - wall) / wall),
        ("bench.oracle_s", oracle.secs),
        (
            "bench.repeat_spread_frac",
            iqr_frac(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        ),
    ];
    if let Some(svc) = &last.service {
        values.push(("tenants.tenant_steps", svc.tenant_steps as f64));
        values.push(("tenants.migrations", svc.migrations as f64));
        values.push(("tenants.worst_p99_step_sim_s", svc.worst_p99_step_secs));
    }
    if let Some(pct) = improvement {
        values.push(("dlb.sim_improvement_pct", pct));
    }
    values.extend(replayed);

    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let found: Vec<f64> = values
                .iter()
                .filter(|(n, _)| *n == m.name)
                .map(|&(_, v)| v)
                .collect();
            let value = match (m.applies.to(w.name()), found.as_slice()) {
                (true, [v]) => Some(*v),
                (true, other) => {
                    panic!("per-layer metric {} computed {} times", m.name, other.len())
                }
                (false, _) => None,
            };
            (m.name, value)
        })
        .collect();

    // 8. write the trace
    let trace_file = opts
        .out_dir
        .as_deref()
        .map(|dir| write_trace(dir, w, &tracer));
    notes.push(oracle.summary());
    if repeats.peak_rss_mb.is_none() {
        notes.push(NO_VMHWM.to_string());
    }
    PassReport {
        job,
        traced: true,
        ops_attempted: checked_ops + repeats.attempted_ops,
        ops_failed: oracle.rejected + repeats.failed_ops,
        violations,
        fingerprint,
        repeats: runs.len(),
        end_to_end: end_to_end_samples(&repeats),
        per_layer,
        trace_file,
        notes,
    }
}

fn write_trace(dir: &Path, w: Workload, tracer: &Tracer) -> PathBuf {
    let path = dir.join(format!("trace_{}.json", w.name()));
    std::fs::create_dir_all(dir).expect("create the output directory");
    std::fs::write(&path, tracer.to_chrome_trace(w.name()).to_compact())
        .expect("write the Chrome trace");
    path
}

impl PassReport {
    pub fn correct(&self) -> bool {
        self.ops_failed == 0
    }

    /// The benchmark's own record of the pass.
    pub fn to_json(&self) -> Value {
        let e2e = self
            .end_to_end
            .iter()
            .map(|(name, s)| {
                let unit = spec::end_to_end(name).map_or("", |e| e.unit);
                (name.to_string(), s.to_json(unit))
            })
            .collect();
        let layers = self
            .per_layer
            .iter()
            .map(|(name, v)| {
                let m = spec::per_layer(name).expect("declared per-layer metric");
                let value = v.map_or(Value::Null, Value::Num);
                let entry = obj([
                    ("value", value),
                    ("unit", m.unit.into()),
                    ("source", m.source.as_str().into()),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        obj([
            ("workload", self.job.workload.name().into()),
            ("pass", if self.traced { "traced" } else { "timed" }.into()),
            ("seed", self.job.seed.into()),
            ("sizes", self.job.sizes.to_json()),
            ("repeats", self.repeats.into()),
            ("ops_attempted", self.ops_attempted.into()),
            ("ops_failed", self.ops_failed.into()),
            ("violations", self.violations.clone().into()),
            ("fingerprint", self.fingerprint.to_json()),
            ("end_to_end", Value::Obj(e2e)),
            ("per_layer", Value::Obj(layers)),
            (
                "trace_file",
                self.trace_file
                    .as_ref()
                    .map_or(Value::Null, |p| p.display().to_string().into()),
            ),
            ("notes", self.notes.clone().into()),
        ])
    }

    /// The line the benchmark driver reads: end-to-end metrics of a timed
    /// pass, per-layer metrics of a traced one (0 where one does not apply).
    pub fn driver_line(&self) -> Value {
        let metrics: Vec<(String, Value)> = if self.traced {
            self.per_layer
                .iter()
                .map(|(name, v)| {
                    let unit = spec::per_layer(name).map_or("", |m| m.unit);
                    let entry = obj([("value", v.unwrap_or(0.0).into()), ("unit", unit.into())]);
                    (name.to_string(), entry)
                })
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|(name, s)| {
                    let unit = spec::end_to_end(name).map_or("", |e| e.unit);
                    let entry = obj([("value", s.median().into()), ("unit", unit.into())]);
                    (name.to_string(), entry)
                })
                .collect()
        };
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.ops_attempted.max(1).into()),
            ("failed", self.ops_failed.into()),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== {} ({} pass, seed {}) ==",
            self.job.workload.name(),
            if self.traced { "traced" } else { "timed" },
            self.job.seed
        );
        let _ = writeln!(s, "sizes: {}", self.job.sizes.to_json().to_compact());
        for (name, samples) in &self.end_to_end {
            let unit = spec::end_to_end(name).map_or("", |e| e.unit);
            let (q1, med, q3) = crate::stats::quartiles(&samples.0);
            let _ = writeln!(
                s,
                "  {name:<34} {med:>16.6} {unit:<6} (q1 {q1:.6}, q3 {q3:.6}, n {})",
                samples.0.len()
            );
        }
        for (name, v) in &self.per_layer {
            let unit = spec::per_layer(name).map_or("", |m| m.unit);
            match v {
                Some(v) => {
                    let _ = writeln!(s, "  {name:<34} {v:>16.6} {unit}");
                }
                None => {
                    let _ = writeln!(s, "  {name:<34} {:>16} (does not apply)", "-");
                }
            }
        }
        let _ = writeln!(
            s,
            "  ops_attempted {}  ops_failed {}  repeats {}  fingerprint {}",
            self.ops_attempted,
            self.ops_failed,
            self.repeats,
            self.fingerprint.to_json().to_compact()
        );
        for v in &self.violations {
            let _ = writeln!(s, "  VIOLATION: {v}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "  note: {n}");
        }
        if let Some(p) = &self.trace_file {
            let _ = writeln!(
                s,
                "  trace: {} (open in https://ui.perfetto.dev)",
                p.display()
            );
        }
        s
    }
}
