//! Hot-path throughput baseline: runs the AMR64 (LAN) and ShockPool3D (WAN)
//! presets and writes `results/BENCH_hotpath.json` with cell-updates/sec,
//! host wall-clock seconds of the setup (`Driver::new`: level-0 build and
//! initial regrid cascade, timed apart from `run()`, and split into its
//! ghost exchanges, its regrids and the rest — mainly the level-0 build)
//! and per phase (solve / ghost / regrid / restrict / decision), the ghost
//! phase by part (plan / coarse_fill / sibling / messages), the peak patch
//! count, and the process's peak resident memory (`VmHWM`) after the first
//! and after the last repeat of each preset — the presets run one after the
//! other in one process, so a last repeat above the first means memory
//! grows from run to run.
//!
//! Flags: `--quick` shrinks the scale for smoke/CI runs and reports the best
//! wall, the best setup and the best of each phase over five repeats, whose
//! fingerprints must agree (`repeats` in the output; a single quick sample
//! is mostly noise); `--full` raises it to the large-domain scale (n0 = 32, 10 steps — the committed
//! `results/BENCH_hotpath_full.json` baseline); `--out PATH` overrides the
//! output file (the verify gate uses this to avoid clobbering the committed
//! baselines); `--trace-out PATH` records telemetry during the first run of
//! each preset and exports the last preset's recording (telemetry JSONL when
//! PATH ends in `.jsonl`, Chrome trace JSON otherwise — load that in
//! chrome://tracing or https://ui.perfetto.dev; recording is bit-identical,
//! so the repeats still agree).

use base::json::{object, Json, ToJson};
use bench::{arg_after, fingerprint, lan_system, wan_system, write_report, write_trace, Scale};
use metrics::PhaseWall;
use samr_engine::{AppKind, Driver, RunConfig, RunResult, Scheme};
use std::time::Instant;
use topology::DistributedSystem;

fn system_for(app: AppKind, n: usize) -> DistributedSystem {
    match app {
        AppKind::Amr64 => lan_system(n),
        _ => wan_system(n),
    }
}

/// One run: its result, the host seconds of `Driver::new` (setup) and the
/// phase clock right after it (its ghost exchanges and regrids; `run()`
/// resets the clock), and the host seconds of setup and `run()` together
/// (wall).
fn timed_run(
    sys: DistributedSystem,
    app: AppKind,
    scale: Scale,
    tel: telemetry::Telemetry,
) -> (RunResult, f64, PhaseWall, f64) {
    let mut cfg = RunConfig::new(app, scale.n0, scale.steps, Scheme::distributed_default());
    cfg.max_levels = scale.max_levels;
    cfg.telemetry = tel;
    let t0 = Instant::now();
    let driver = Driver::new(sys, cfg);
    let (setup, setup_wall) = (t0.elapsed().as_secs_f64(), driver.phase_wall());
    let res = driver.run();
    (res, setup, setup_wall, t0.elapsed().as_secs_f64())
}

/// Peak resident set of this process so far, MiB (`None` where
/// `/proc/self/status` has no `VmHWM`).
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let full = args.iter().any(|a| a == "--full");
    assert!(
        !(quick && full),
        "--quick and --full are mutually exclusive"
    );
    let out = arg_after("--out").unwrap_or_else(|| "results/BENCH_hotpath.json".to_string());
    let trace_out = arg_after("--trace-out");
    let scale = if full {
        // large-domain scale: deep hierarchies and long runs
        Scale {
            n0: 32,
            max_levels: 4,
            steps: 10,
        }
    } else {
        Scale::pick(quick)
    };
    let n = if quick { 1 } else { 2 };
    let repeats: usize = if quick { 5 } else { 1 };

    let mut entries = Vec::new();
    let mut last_sink = None;
    for (name, app) in [("amr64", AppKind::Amr64), ("shockpool3d", AppKind::ShockPool3D)] {
        let tel = if trace_out.is_some() {
            let (tel, sink) = telemetry::Telemetry::recording_shared();
            last_sink = Some(sink);
            tel
        } else {
            telemetry::Telemetry::null()
        };
        let (mut res, mut setup, mut setup_wall, mut wall) =
            timed_run(system_for(app, n), app, scale, tel);
        let hwm_first = vm_hwm_mb();
        // a quick-scale run lasts tens of milliseconds and one sample
        // spreads 2-3x on a busy host: keep the best wall and the best of
        // each phase over a few repeats, so the verify gate can compare
        // phase by phase against the committed baseline
        for _ in 1..repeats {
            let (again, again_setup, again_setup_wall, again_wall) =
                timed_run(system_for(app, n), app, scale, telemetry::Telemetry::null());
            assert_eq!(
                fingerprint(&again),
                fingerprint(&res),
                "{name}: repeat diverged"
            );
            wall = wall.min(again_wall);
            if again_setup < setup {
                (setup, setup_wall) = (again_setup, again_setup_wall);
            }
            // the ghost split comes whole from the repeat with the best
            // ghost phase, so that its parts still sum to it
            if again.wall.ghost < res.wall.ghost {
                res.ghost_wall = again.ghost_wall;
            }
            res.wall = metrics::PhaseWall {
                solve: res.wall.solve.min(again.wall.solve),
                ghost: res.wall.ghost.min(again.wall.ghost),
                regrid: res.wall.regrid.min(again.wall.regrid),
                restrict: res.wall.restrict.min(again.wall.restrict),
                decision: res.wall.decision.min(again.wall.decision),
            };
        }
        let hwm_last = vm_hwm_mb();
        let cups = res.cell_updates as f64 / wall;
        println!(
            "{name:>12}: {cups:.3e} cell-updates/sec  wall {wall:.3}s  setup {:.2}ms  peak patches {}",
            setup * 1e3,
            res.peak_patches,
        );
        println!(
            "{:>12}  VmHWM after the first repeat {:.1} MiB, after the last {:.1} MiB",
            "",
            hwm_first.unwrap_or(f64::NAN),
            hwm_last.unwrap_or(f64::NAN),
        );
        entries.push(object([
            ("name", Json::Str(name.into())),
            ("n0", scale.n0.to_json()),
            ("max_levels", scale.max_levels.to_json()),
            ("steps", scale.steps.to_json()),
            ("procs_per_site", n.to_json()),
            ("repeats", repeats.to_json()),
            ("cell_updates", res.cell_updates.to_json()),
            ("peak_patches", res.peak_patches.to_json()),
            ("final_patches", res.final_patches.to_json()),
            ("wall_secs", wall.to_json()),
            ("setup_secs", setup.to_json()),
            (
                "setup_phases",
                object([
                    ("ghost", setup_wall.ghost.to_json()),
                    ("regrid", setup_wall.regrid.to_json()),
                    ("rest", (setup - setup_wall.ghost - setup_wall.regrid).to_json()),
                ]),
            ),
            ("cell_updates_per_sec", cups.to_json()),
            ("phases", res.wall.to_json()),
            (
                "ghost_phases",
                base::json_fields!(res.ghost_wall; plan, coarse_fill, sibling, messages),
            ),
            (
                "vm_hwm_mb",
                object([("first", hwm_first.to_json()), ("last", hwm_last.to_json())]),
            ),
        ]));
    }

    let json = object([
        ("bench", Json::Str("hotpath".into())),
        ("quick", quick.to_json()),
        ("full", full.to_json()),
        ("repeats", repeats.to_json()),
        (
            "euler_lanes",
            Json::Str(samr_solvers::euler::lanes_in_use().into()),
        ),
        ("presets", Json::Arr(entries)),
    ]);
    write_report(&out, &json);
    if let (Some(path), Some(sink)) = (&trace_out, &last_sink) {
        write_trace(path, &sink.lock().unwrap());
    }
}
