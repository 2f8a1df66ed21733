//! Hot-path throughput baseline: runs the AMR64 (LAN) and ShockPool3D (WAN)
//! presets through the optimized zero-clone data path and the clone-based
//! reference path, checks the two are bit-identical, and writes
//! `results/BENCH_hotpath.json` with cell-updates/sec, host wall-clock
//! seconds per phase (solve / ghost / regrid / restrict), the ghost phase
//! by part (plan / coarse_fill / sibling / messages), and the peak patch
//! count. The JSON is written by hand so the binary has no serializer
//! dependency in its hot loop.
//!
//! Flags: `--quick` shrinks the scale for smoke/CI runs and reports the best
//! wall and the best of each phase over five repeats of the optimized run
//! (`repeats` in the output; a single quick sample is mostly noise); `--full`
//! raises it to the large-domain scale (n0 = 32, 10 steps — the committed
//! `results/BENCH_hotpath_full.json` baseline); `--out PATH` overrides the
//! output file (the verify gate uses this to avoid clobbering the committed
//! baselines); `--trace-out PATH` records telemetry during the first
//! optimized run of each preset and writes the last preset's Chrome trace
//! JSON (load in chrome://tracing or https://ui.perfetto.dev — recording is
//! bit-identical, so the data-path check still holds).

use base::json::num;
use bench::{lan_system, wan_system, Scale};
use samr_engine::{AppKind, Driver, RunConfig, RunResult, Scheme};
use std::fmt::Write as _;
use std::time::Instant;
use topology::DistributedSystem;

fn system_for(app: AppKind, n: usize) -> DistributedSystem {
    match app {
        AppKind::Amr64 => lan_system(n),
        _ => wan_system(n),
    }
}

fn timed_run(
    sys: DistributedSystem,
    app: AppKind,
    scale: Scale,
    reference: bool,
    tel: telemetry::Telemetry,
) -> (RunResult, f64) {
    let mut cfg = RunConfig::new(app, scale.n0, scale.steps, Scheme::distributed_default());
    cfg.max_levels = scale.max_levels;
    cfg.reference_datapath = reference;
    cfg.telemetry = tel;
    let t0 = Instant::now();
    let res = Driver::new(sys, cfg).run();
    (res, t0.elapsed().as_secs_f64())
}

/// Everything that must agree bitwise between the two data paths.
fn fingerprint(r: &RunResult) -> (u64, u64, u64, usize, usize, usize) {
    (
        r.total_secs.to_bits(),
        r.cell_updates,
        r.breakdown.remote_bytes,
        r.final_patches,
        r.peak_patches,
        r.global_redistributions,
    )
}

fn phases_json(w: &metrics::PhaseWall) -> String {
    format!(
        "{{\"solve\": {}, \"ghost\": {}, \"regrid\": {}, \"restrict\": {}, \"decision\": {}}}",
        num(w.solve),
        num(w.ghost),
        num(w.regrid),
        num(w.restrict),
        num(w.decision)
    )
}

fn ghost_phases_json(g: &metrics::GhostWall) -> String {
    format!(
        "{{\"plan\": {}, \"coarse_fill\": {}, \"sibling\": {}, \"messages\": {}}}",
        num(g.plan),
        num(g.coarse_fill),
        num(g.sibling),
        num(g.messages)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let full = args.iter().any(|a| a == "--full");
    assert!(
        !(quick && full),
        "--quick and --full are mutually exclusive"
    );
    let out = arg_after("--out").unwrap_or_else(|| "results/BENCH_hotpath.json".to_string());
    let trace_out = arg_after("--trace-out");
    let scale = if full {
        // large-domain scale: deep hierarchies and long steady-state runs,
        // where the pooled data path earns its keep
        Scale {
            n0: 32,
            max_levels: 4,
            steps: 10,
        }
    } else {
        Scale::pick(quick)
    };
    let n = if quick { 1 } else { 2 };
    let repeats = if quick { 5 } else { 1 };

    let mut entries = Vec::new();
    let mut all_identical = true;
    let mut last_sink = None;
    for (name, app) in [("amr64", AppKind::Amr64), ("shockpool3d", AppKind::ShockPool3D)] {
        let tel = if trace_out.is_some() {
            let (tel, sink) = telemetry::Telemetry::recording_shared();
            last_sink = Some(sink);
            tel
        } else {
            telemetry::Telemetry::null()
        };
        let (mut opt, mut opt_wall) = timed_run(system_for(app, n), app, scale, false, tel);
        // a quick-scale run lasts tens of milliseconds and one sample
        // spreads 2-3x on a busy host: keep the best wall and the best of
        // each phase over a few repeats, so the verify gate can compare
        // phase by phase against the committed baseline
        for _ in 1..repeats {
            let (again, wall) = timed_run(
                system_for(app, n),
                app,
                scale,
                false,
                telemetry::Telemetry::null(),
            );
            assert_eq!(
                fingerprint(&again),
                fingerprint(&opt),
                "{name}: repeat diverged"
            );
            opt_wall = opt_wall.min(wall);
            // the ghost split comes whole from the repeat with the best
            // ghost phase, so that its parts still sum to it
            if again.wall.ghost < opt.wall.ghost {
                opt.ghost_wall = again.ghost_wall;
            }
            opt.wall = metrics::PhaseWall {
                solve: opt.wall.solve.min(again.wall.solve),
                ghost: opt.wall.ghost.min(again.wall.ghost),
                regrid: opt.wall.regrid.min(again.wall.regrid),
                restrict: opt.wall.restrict.min(again.wall.restrict),
                decision: opt.wall.decision.min(again.wall.decision),
            };
        }
        let (refr, ref_wall) = timed_run(
            system_for(app, n),
            app,
            scale,
            true,
            telemetry::Telemetry::null(),
        );
        let identical = fingerprint(&opt) == fingerprint(&refr);
        all_identical &= identical;
        let cups = opt.cell_updates as f64 / opt_wall;
        println!(
            "{name:>12}: {:.3e} cell-updates/sec  wall {:.3}s (reference {:.3}s, x{:.2})  \
             peak patches {}  bit-identical {}",
            cups,
            opt_wall,
            ref_wall,
            ref_wall / opt_wall,
            opt.peak_patches,
            identical,
        );
        println!(
            "{:>12}  pool: {} hits / {} misses  {:.1} MiB recycled  steady-state field allocs {}",
            "",
            opt.pool.hits,
            opt.pool.misses,
            opt.pool.bytes_recycled as f64 / (1024.0 * 1024.0),
            opt.pool.steady_misses,
        );
        let pd = &opt.pool_detail;
        println!(
            "{:>12}  tiers: {} home / {} spill / {} steal  ({} borrows, {} shards active)",
            "",
            pd.home_hits,
            pd.spill_hits,
            pd.steal_hits,
            pd.borrow_hits,
            pd.shard_hits.iter().filter(|&&h| h > 0).count(),
        );
        let mut e = String::new();
        let _ = writeln!(e, "    {{");
        let _ = writeln!(e, "      \"name\": \"{name}\",");
        let _ = writeln!(
            e,
            "      \"n0\": {}, \"max_levels\": {}, \"steps\": {}, \"procs_per_site\": {n},",
            scale.n0, scale.max_levels, scale.steps
        );
        let _ = writeln!(e, "      \"repeats\": {repeats},");
        let _ = writeln!(e, "      \"cell_updates\": {},", opt.cell_updates);
        let _ = writeln!(e, "      \"peak_patches\": {},", opt.peak_patches);
        let _ = writeln!(e, "      \"final_patches\": {},", opt.final_patches);
        let _ = writeln!(e, "      \"wall_secs\": {},", num(opt_wall));
        let _ = writeln!(e, "      \"cell_updates_per_sec\": {},", num(cups));
        let _ = writeln!(e, "      \"phases\": {},", phases_json(&opt.wall));
        let _ = writeln!(
            e,
            "      \"ghost_phases\": {},",
            ghost_phases_json(&opt.ghost_wall)
        );
        let _ = writeln!(e, "      \"reference_wall_secs\": {},", num(ref_wall));
        let _ = writeln!(e, "      \"reference_phases\": {},", phases_json(&refr.wall));
        let _ = writeln!(e, "      \"speedup_vs_reference\": {},", num(ref_wall / opt_wall));
        let _ = writeln!(e, "      \"pool_hits\": {},", opt.pool.hits);
        let _ = writeln!(e, "      \"pool_misses\": {},", opt.pool.misses);
        let _ = writeln!(e, "      \"pool_bytes_recycled\": {},", opt.pool.bytes_recycled);
        let _ = writeln!(
            e,
            "      \"steady_state_field_allocs\": {},",
            opt.pool.steady_misses
        );
        let shard_hits = pd
            .shard_hits
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            e,
            "      \"pool_detail\": {{\"home_hits\": {}, \"spill_hits\": {}, \
             \"steal_hits\": {}, \"borrow_hits\": {}, \"shard_hits\": [{}]}},",
            pd.home_hits, pd.spill_hits, pd.steal_hits, pd.borrow_hits, shard_hits
        );
        let _ = writeln!(e, "      \"bit_identical\": {identical}");
        let _ = write!(e, "    }}");
        entries.push(e);
    }

    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"quick\": {quick},\n  \"full\": {full},\n  \
         \"repeats\": {repeats},\n  \"euler_lanes\": \"{}\",\n  \"presets\": [\n{}\n  ]\n}}\n",
        samr_solvers::euler::lanes_in_use(),
        entries.join(",\n")
    );
    let _ = std::fs::create_dir_all("results");
    std::fs::write(&out, json).expect("write benchmark output");
    println!("wrote {out}");
    if let (Some(path), Some(sink)) = (&trace_out, &last_sink) {
        use telemetry::TelemetrySink as _;
        let trace = sink
            .lock()
            .unwrap()
            .to_chrome_trace()
            .expect("recording sink exports a trace");
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, trace).expect("write Chrome trace");
        println!("wrote {path}");
    }
    if !all_identical {
        eprintln!("FAIL: optimized data path diverged from the reference path");
        std::process::exit(1);
    }
}
