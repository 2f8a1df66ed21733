//! Chaos harness: sweep seeded random fault schedules — WAN link faults and
//! crash-stop processor faults *combined* — through an invariant oracle.
//! Every seed runs the ShockPool3D WAN preset twice (once recording
//! telemetry, once with the null handle) and must satisfy:
//!
//! - **no patch lost or duplicated** — the hierarchy passes
//!   `check_invariants` and level 0 still tiles the domain exactly;
//! - **conservation** — total level-0 mass stays within tolerance of the
//!   fault-free baseline (stale ghost zones from tolerated transfer
//!   failures may perturb it, but never wildly);
//! - **determinism** — both runs produce bit-identical trace CSVs, solution
//!   fingerprints and total times (all fault-path randomness is seeded, and
//!   recording telemetry never perturbs the simulation);
//! - **audited causality** — every `evacuate` event in the telemetry
//!   decision log is preceded by a `crash` event for the same processor;
//! - **bounded MTTR** — detection plus evacuation never exceeds a few mean
//!   step times.
//!
//! Writes `results/BENCH_chaos.json` and exits non-zero on any oracle
//! violation (or if the whole sweep was vacuous: no seed produced a crash).
//!
//! Flags: `--quick` shrinks scale and seed count for CI runs; `--seeds N`
//! overrides the seed count; `--out PATH` overrides the output file;
//! `--trace-out PATH` re-runs seed 1's recorded leg after the sweep and
//! exports it (telemetry JSONL when PATH ends in `.jsonl`, Chrome trace
//! JSON otherwise — the JSONL feeds `report run`).

use base::json::{object, Json, ToJson};
use bench::{arg_after, write_report, write_trace, Scale, TRAFFIC_SEED};
use samr_engine::{AppKind, Driver, RunConfig, Scheme};
use telemetry::{EventKind, Telemetry};
use topology::faults::{FaultSchedule, ProcFaultSchedule};
use topology::{presets, DistributedSystem, SimTime, SystemBuilder};

/// Level-0 mass may drift this much (relative) from the fault-free run
/// before the conservation oracle fires.
const MASS_TOLERANCE: f64 = 0.25;

fn chaos_system(n: usize, link: FaultSchedule) -> DistributedSystem {
    let wan = presets::mren_oc3_wan(TRAFFIC_SEED).with_faults(link);
    SystemBuilder::new()
        .group("ANL", n, 1.0, presets::origin2000_intra())
        .group("NCSA", n, 1.0, presets::origin2000_intra())
        .connect(0, 1, wan)
        .build()
}

fn cfg(scale: Scale, procs: ProcFaultSchedule, tel: Telemetry) -> RunConfig {
    let mut c = RunConfig::new(
        AppKind::ShockPool3D,
        scale.n0,
        scale.steps,
        Scheme::distributed_default(),
    );
    c.max_levels = scale.max_levels;
    c.proc_faults = procs;
    c.telemetry = tel;
    c
}

/// Everything one run contributes to the oracle.
struct Observed {
    res: samr_engine::RunResult,
    csv: String,
    /// (patches, cells, xor of field bits) — the solution fingerprint.
    fp: (usize, i64, u64),
    level0_cells: i64,
    mass: f64,
    nesting: Result<(), String>,
}

fn observe(sys: DistributedSystem, c: RunConfig) -> Observed {
    let steps = c.steps;
    let mut d = Driver::new(sys, c);
    for _ in 0..steps {
        d.step_once();
    }
    let h = d.hierarchy();
    let nesting = h.check_invariants();
    let mut bits: u64 = 0;
    let mut cells = 0i64;
    for p in h.iter() {
        cells += p.cells();
        for f in &p.fields {
            for cell in p.region.iter_cells() {
                bits ^= f.get(cell).to_bits().rotate_left((cell.x % 63) as u32);
            }
        }
    }
    let fp = (h.num_patches(), cells, bits);
    let level0_cells: i64 = h
        .level_ids(0)
        .iter()
        .map(|&id| h.patch(id).cells())
        .sum();
    let mass: f64 = h
        .level_ids(0)
        .iter()
        .map(|&id| {
            let p = h.patch(id);
            p.region.iter_cells().map(|cell| p.fields[0].get(cell)).sum::<f64>()
        })
        .sum();
    let csv = d.trace().to_csv();
    Observed {
        res: d.finish(),
        csv,
        fp,
        level0_cells,
        mass,
        nesting,
    }
}

struct SeedOutcome {
    seed: u64,
    crashes: u64,
    rejoins: u64,
    evacuations: u64,
    evacuated_cells: i64,
    mttr_max_secs: f64,
    recompute_secs: f64,
    total_secs: f64,
    mass_rel_err: f64,
    violations: Vec<String>,
}

#[allow(clippy::too_many_arguments)]
fn sweep_seed(
    seed: u64,
    n: usize,
    scale: Scale,
    horizon: SimTime,
    mean_up: SimTime,
    mean_down: SimTime,
    base_mass: f64,
    mttr_bound: f64,
) -> SeedOutcome {
    let link = FaultSchedule::generate(seed, horizon, mean_up, mean_down);
    let sys = chaos_system(n, link.clone());
    let procs = ProcFaultSchedule::generate_for(&sys, seed, horizon, mean_up, mean_down);

    let (tel, sink) = Telemetry::recording_shared();
    let a = observe(sys, cfg(scale, procs.clone(), tel));
    let b = observe(
        chaos_system(n, link),
        cfg(scale, procs, Telemetry::null()),
    );

    let mut violations = Vec::new();
    if let Err(e) = &a.nesting {
        violations.push(format!("nesting: {e}"));
    }
    let domain = scale.n0 * scale.n0 * scale.n0;
    if a.level0_cells != domain {
        violations.push(format!(
            "patch loss/duplication: level 0 covers {} cells, domain has {domain}",
            a.level0_cells
        ));
    }
    let mass_rel_err = if base_mass.abs() > 0.0 {
        (a.mass - base_mass).abs() / base_mass.abs()
    } else {
        a.mass.abs()
    };
    if mass_rel_err > MASS_TOLERANCE {
        violations.push(format!(
            "conservation: level-0 mass drifted {:.1}% from the fault-free run",
            mass_rel_err * 100.0
        ));
    }
    if a.csv != b.csv || a.fp != b.fp || a.res.total_secs != b.res.total_secs {
        violations.push("determinism: two identical runs diverged".to_string());
    }

    // audit: walk the decision log in order; an evacuation may only follow
    // a detected crash of the same processor
    let events = sink.lock().unwrap().events();
    let mut crashed: Vec<usize> = Vec::new();
    for e in &events {
        match &e.kind {
            EventKind::Crash(c) => crashed.push(c.proc),
            EventKind::Evacuate(ev) if !crashed.contains(&ev.proc) => {
                violations.push(format!(
                    "audit: evacuation of proc {} with no preceding crash event",
                    ev.proc
                ));
            }
            _ => {}
        }
    }

    let rec = &a.res.recovery;
    if rec.mttr_max_secs > mttr_bound {
        violations.push(format!(
            "mttr: {:.3}s exceeds the {:.3}s bound",
            rec.mttr_max_secs, mttr_bound
        ));
    }
    if rec.crashes != events_crashes(&events) {
        violations.push(format!(
            "audit: RunResult reports {} crashes, telemetry logged {}",
            rec.crashes,
            events_crashes(&events)
        ));
    }

    SeedOutcome {
        seed,
        crashes: rec.crashes,
        rejoins: rec.rejoins,
        evacuations: rec.evacuations,
        evacuated_cells: rec.evacuated_cells,
        mttr_max_secs: rec.mttr_max_secs,
        recompute_secs: rec.recompute_secs,
        total_secs: a.res.total_secs,
        mass_rel_err,
        violations,
    }
}

fn events_crashes(events: &[telemetry::EventRecord]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Crash(_)))
        .count() as u64
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = arg_after("--out").unwrap_or_else(|| "results/BENCH_chaos.json".to_string());
    let nseeds: u64 = arg_after("--seeds")
        .map(|s| s.parse().expect("--seeds takes a number"))
        .unwrap_or(if quick { 16 } else { 24 });
    let scale = Scale::pick(quick);
    let n = if quick { 2 } else { 4 };

    // the fault-free baseline anchors the fault time-scales, the MTTR bound
    // and the conservation reference
    let base = observe(
        chaos_system(n, FaultSchedule::none()),
        cfg(scale, ProcFaultSchedule::none(2 * n), Telemetry::null()),
    );
    base.nesting.as_ref().expect("fault-free baseline violates nesting");
    let b = base.res.total_secs;
    // up/down spans sized so most seeds crash (and often rejoin) mid-run
    let mean_up = SimTime::from_secs_f64((0.4 * b).max(1e-3));
    let mean_down = SimTime::from_secs_f64((0.3 * b).max(1e-3));
    let horizon = SimTime::from_secs_f64(4.0 * b + 1.0);
    // detection can lag a crash by nearly one full level-0 step, and the
    // evacuation recompute adds a fraction of one more
    let mttr_bound = 4.0 * b / scale.steps as f64;

    let seeds: Vec<u64> = (1..=nseeds).collect();
    let outcomes: Vec<SeedOutcome> = par::map(&seeds, |&seed| {
        sweep_seed(
            seed, n, scale, horizon, mean_up, mean_down, base.mass, mttr_bound,
        )
    });

    let total_crashes: u64 = outcomes.iter().map(|o| o.crashes).sum();
    let total_evacs: u64 = outcomes.iter().map(|o| o.evacuations).sum();
    let total_rejoins: u64 = outcomes.iter().map(|o| o.rejoins).sum();
    let total_violations: usize = outcomes.iter().map(|o| o.violations.len()).sum();
    let vacuous = total_crashes == 0;

    for o in &outcomes {
        println!(
            "seed {:>3}: crashes {} rejoins {} evacuated {:>6} cells  mttr {:>7.3}s  \
             mass drift {:>6.2}%  {}",
            o.seed,
            o.crashes,
            o.rejoins,
            o.evacuated_cells,
            o.mttr_max_secs,
            o.mass_rel_err * 100.0,
            if o.violations.is_empty() {
                "ok".to_string()
            } else {
                format!("VIOLATIONS: {}", o.violations.join("; "))
            }
        );
    }
    println!(
        "chaos: {nseeds} seeds, {total_crashes} crashes, {total_evacs} evacuations, \
         {total_rejoins} rejoins, {total_violations} violations (mttr bound {mttr_bound:.3}s)"
    );

    let seeds_detail = outcomes.iter().map(|o| {
        base::json_fields!(o; seed, crashes, rejoins, evacuations, evacuated_cells,
            mttr_max_secs, recompute_secs, total_secs, mass_rel_err, violations)
    });
    let json = object([
        ("bench", Json::Str("chaos".into())),
        ("quick", quick.to_json()),
        ("seeds", nseeds.to_json()),
        ("n0", scale.n0.to_json()),
        ("max_levels", scale.max_levels.to_json()),
        ("steps", scale.steps.to_json()),
        ("procs_per_site", n.to_json()),
        ("baseline_secs", b.to_json()),
        ("mttr_bound_secs", mttr_bound.to_json()),
        ("total_crashes", total_crashes.to_json()),
        ("total_evacuations", total_evacs.to_json()),
        ("total_rejoins", total_rejoins.to_json()),
        ("violations", total_violations.to_json()),
        ("vacuous", vacuous.to_json()),
        ("seeds_detail", Json::Arr(seeds_detail.collect())),
    ]);
    write_report(&out, &json);

    if let Some(path) = arg_after("--trace-out") {
        // a dedicated recorded replay of seed 1 (the sweep's own sinks are
        // per-seed and already dropped); recording is bit-identical, so
        // this is the same run the oracle just validated
        let link = FaultSchedule::generate(1, horizon, mean_up, mean_down);
        let sys = chaos_system(n, link);
        let procs = ProcFaultSchedule::generate_for(&sys, 1, horizon, mean_up, mean_down);
        let (tel, sink) = Telemetry::recording_shared();
        let _ = observe(sys, cfg(scale, procs, tel));
        write_trace(&path, &sink.lock().unwrap());
    }

    if total_violations > 0 {
        eprintln!("FAIL: {total_violations} oracle violations across the sweep");
        std::process::exit(1);
    }
    if vacuous {
        eprintln!("FAIL: no seed produced a crash — the sweep proved nothing");
        std::process::exit(1);
    }
}
