//! # bench — experiment harnesses for every measured figure of the paper
//!
//! Each `fig*`/`ablation_*` function reproduces one figure's data as a
//! [`metrics::Table`]; the `src/bin/*` binaries print them (and write JSON
//! under `results/`), and `benches/figures.rs` times them with [`report_case`].
//!
//! `quick = true` shrinks domain/steps for CI-speed smoke runs; `false`
//! uses the full experiment scale recorded in EXPERIMENTS.md.

#![forbid(unsafe_code)]

use base::json::Json;
use metrics::{efficiency, improvement_percent, ConfigRow, Table};
use samr_engine::{AppKind, Driver, RunConfig, RunResult, Scheme};
use telemetry::RecordingSink;
use topology::{presets, DistributedSystem};

/// Results of both schemes on one `n+n` configuration.
#[derive(Clone, Debug)]
pub struct SchemePair {
    pub n: usize,
    pub parallel: RunResult,
    pub distributed: RunResult,
}

/// Run parallel-DLB and distributed-DLB over every configuration of `app`'s
/// testbed, concurrently (results are simulated time, unaffected by host
/// parallelism).
pub fn run_pairs(app: AppKind, quick: bool) -> Vec<SchemePair> {
    let scale = Scale::pick(quick);
    par::map(configs(quick), |&n| {
        let sys = system_for(app, n);
        let (parallel, distributed) = par::join(
            || run_once(sys.clone(), app, Scheme::Parallel, scale),
            || run_once(sys.clone(), app, Scheme::distributed_default(), scale),
        );
        SchemePair {
            n,
            parallel,
            distributed,
        }
    })
}

/// The five processor configurations of the paper's §3/§5 (per site).
pub const CONFIGS: [usize; 5] = [1, 2, 4, 6, 8];

/// Experiment scale.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub n0: i64,
    pub max_levels: usize,
    pub steps: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            n0: 24,
            max_levels: 4,
            steps: 5,
        }
    }

    pub fn quick() -> Scale {
        Scale {
            n0: 16,
            max_levels: 3,
            steps: 3,
        }
    }

    pub fn pick(quick: bool) -> Scale {
        if quick {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

/// Traffic seed used by all figure runs (fixed for reproducibility; the
/// paper ran both schemes back-to-back to see similar traffic — we give
/// both schemes *identical* traffic).
pub const TRAFFIC_SEED: u64 = 20011110; // SC'01 week

/// Run one configuration.
pub fn run_once(sys: DistributedSystem, app: AppKind, scheme: Scheme, scale: Scale) -> RunResult {
    let mut cfg = RunConfig::new(app, scale.n0, scale.steps, scheme);
    cfg.max_levels = scale.max_levels;
    Driver::new(sys, cfg).run()
}

/// The WAN testbed for a `n+n` configuration (ShockPool3D's system).
pub fn wan_system(n: usize) -> DistributedSystem {
    presets::anl_ncsa_wan(n, n, TRAFFIC_SEED)
}

/// The LAN testbed for a `n+n` configuration (AMR64's system).
pub fn lan_system(n: usize) -> DistributedSystem {
    presets::anl_lan_pair(n, n, TRAFFIC_SEED)
}

/// A single parallel machine with `n` processors (§3's comparison system).
pub fn parallel_system(n: usize) -> DistributedSystem {
    presets::single_origin2000(n)
}

/// **Fig. 3** — compare ENZO under the *parallel DLB* on a parallel machine
/// vs. on the WAN-connected distributed system: per-configuration compute
/// and communication times. Returns one table with four series.
pub fn fig3(quick: bool) -> Table {
    let scale = Scale::pick(quick);
    let rows: Vec<ConfigRow> = par::map(configs(quick), |&n| {
        let (par, dist) = par::join(
            || {
                run_once(
                    parallel_system(2 * n),
                    AppKind::ShockPool3D,
                    Scheme::Parallel,
                    scale,
                )
            },
            || run_once(wan_system(n), AppKind::ShockPool3D, Scheme::Parallel, scale),
        );
        let mut row = ConfigRow::new(format!("{n}+{n}"));
        row.push("parallel computation", par.breakdown.compute);
        row.push("parallel communication", par.breakdown.comm);
        row.push("distributed computation", dist.breakdown.compute);
        row.push("distributed communication", dist.breakdown.comm);
        row
    });
    let mut t = Table::new(
        "Fig. 3 — parallel vs distributed execution of ShockPool3D (parallel DLB on both)",
    );
    for row in rows {
        t.push(row);
    }
    t
}

/// **Fig. 7** — total execution time, parallel DLB vs distributed DLB, on
/// the dataset's testbed (`AMR64` → LAN, `ShockPool3D` → WAN).
pub fn fig7(app: AppKind, quick: bool) -> Table {
    fig7_from(app, &run_pairs(app, quick))
}

/// Build the Fig. 7 table from precomputed scheme pairs.
pub fn fig7_from(app: AppKind, pairs: &[SchemePair]) -> Table {
    let title = match app {
        AppKind::Amr64 => "Fig. 7a — AMR64 on ANL LAN pair: total execution time",
        AppKind::ShockPool3D => "Fig. 7b — ShockPool3D on ANL+NCSA WAN: total execution time",
        AppKind::AdvectBlob => "Fig. 7 (advect-blob variant)",
    };
    let mut t = Table::new(title);
    for p in pairs {
        let mut row = ConfigRow::new(format!("{0}+{0}", p.n));
        row.push("parallel DLB", p.parallel.total_secs);
        row.push("distributed DLB", p.distributed.total_secs);
        row.push(
            "improvement %",
            improvement_percent(p.parallel.total_secs, p.distributed.total_secs),
        );
        t.push(row);
    }
    t
}

/// **Fig. 8** — efficiency `E(1)/(E·P)` for both schemes on both datasets.
pub fn fig8(app: AppKind, quick: bool) -> Table {
    fig8_from(app, &run_pairs(app, quick), quick)
}

/// Build the Fig. 8 table from precomputed scheme pairs (runs the
/// one-processor sequential reference itself).
pub fn fig8_from(app: AppKind, pairs: &[SchemePair], quick: bool) -> Table {
    let scale = Scale::pick(quick);
    let title = match app {
        AppKind::Amr64 => "Fig. 8a — AMR64 efficiency",
        AppKind::ShockPool3D => "Fig. 8b — ShockPool3D efficiency",
        AppKind::AdvectBlob => "Fig. 8 (advect-blob variant)",
    };
    // sequential reference on one processor
    let seq = run_once(parallel_system(1), app, Scheme::Static, scale);
    let e1 = seq.total_secs;
    let mut t = Table::new(title);
    for p in pairs {
        let p_total = system_for(app, p.n).total_power();
        let mut row = ConfigRow::new(format!("{0}+{0}", p.n));
        row.push("parallel DLB", efficiency(e1, p.parallel.total_secs, p_total));
        row.push(
            "distributed DLB",
            efficiency(e1, p.distributed.total_secs, p_total),
        );
        t.push(row);
    }
    t
}

/// **Ablation A** — sensitivity to the γ threshold (the paper's declared
/// future work, §6), swept under two WAN regimes. On a quiet WAN the Eq.-1
/// cost is negligible next to the gain so γ barely matters; under heavy
/// congestion the γ-gate decides how aggressively to fight the network.
pub fn ablation_gamma(app: AppKind, quick: bool) -> Table {
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder, TrafficModel};
    let scale = Scale::pick(quick);
    let n = if quick { 2 } else { 4 };
    let gammas = [0.0, 1.0, 2.0, 16.0, 64.0, 256.0, f64::INFINITY];
    let mut t = Table::new(format!("Ablation — γ sensitivity ({app:?}, {n}+{n})"));
    let regimes: Vec<(&str, TrafficModel)> = vec![
        ("quiet", TrafficModel::Quiet),
        ("congested", TrafficModel::Constant { load: 0.97 }),
    ];
    let rows: Vec<ConfigRow> = par::map(&gammas, |&gamma| {
        let label = if gamma.is_infinite() {
            "inf".to_string()
        } else {
            format!("{gamma}")
        };
        let mut row = ConfigRow::new(format!("γ={label}"));
        for (name, traffic) in &regimes {
            let wan = Link::shared("WAN", SimTime::from_millis(6), 19.375e6, traffic.clone());
            let sys = SystemBuilder::new()
                .group("ANL", n, 1.0, presets::origin2000_intra())
                .group("NCSA", n, 1.0, presets::origin2000_intra())
                .connect(0, 1, wan)
                .build();
            let cfg = dlb::DistributedDlbConfig {
                gamma,
                ..Default::default()
            };
            let res = run_once(sys, app, Scheme::Distributed(cfg), scale);
            row.push(format!("{name} total"), res.total_secs);
            row.push(format!("{name} redist"), res.global_redistributions as f64);
        }
        row
    });
    for row in rows {
        t.push(row);
    }
    t
}

/// **Ablation B** — processor heterogeneity (§4 capability the paper's
/// homogeneous testbeds could not exercise): group B runs at `rel`× speed.
pub fn ablation_hetero(quick: bool) -> Table {
    let scale = Scale::pick(quick);
    let n = if quick { 2 } else { 4 };
    let mut t = Table::new(format!(
        "Ablation — heterogeneous processors (ShockPool3D, {n}+{n} WAN)"
    ));
    for rel in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let sys = presets::heterogeneous_wan(n, n, rel, TRAFFIC_SEED);
        let par = run_once(sys.clone(), AppKind::ShockPool3D, Scheme::Parallel, scale);
        let dist = run_once(
            sys,
            AppKind::ShockPool3D,
            Scheme::distributed_default(),
            scale,
        );
        let mut row = ConfigRow::new(format!("B@{rel}x"));
        row.push("parallel DLB", par.total_secs);
        row.push("distributed DLB", dist.total_secs);
        row.push(
            "improvement %",
            improvement_percent(par.total_secs, dist.total_secs),
        );
        t.push(row);
    }
    t
}

/// **Ablation C** — dynamic network adaptation: the same run under
/// different WAN traffic patterns; reports total time and how many global
/// redistributions the γ-gate allowed.
pub fn ablation_traffic(quick: bool) -> Table {
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder, TrafficModel};
    let scale = Scale::pick(quick);
    let n = if quick { 2 } else { 4 };
    let patterns: Vec<(&str, TrafficModel)> = vec![
        ("quiet", TrafficModel::Quiet),
        (
            "diurnal",
            TrafficModel::Diurnal {
                base: 0.45,
                amp: 0.4,
                period: SimTime::from_secs(120),
            },
        ),
        (
            "bursty",
            TrafficModel::Bursty {
                low: 0.2,
                high: 0.85,
                p_on: 0.5,
                slot: SimTime::from_secs(5),
                seed: TRAFFIC_SEED,
            },
        ),
        ("congested", TrafficModel::Constant { load: 0.95 }),
    ];
    let mut t = Table::new(format!(
        "Ablation — WAN traffic patterns (ShockPool3D, {n}+{n})"
    ));
    for (name, traffic) in patterns {
        let wan = Link::shared("WAN", SimTime::from_millis(6), 19.375e6, traffic);
        let sys = SystemBuilder::new()
            .group("ANL", n, 1.0, presets::origin2000_intra())
            .group("NCSA", n, 1.0, presets::origin2000_intra())
            .connect(0, 1, wan)
            .build();
        let par = run_once(sys.clone(), AppKind::ShockPool3D, Scheme::Parallel, scale);
        let dist = run_once(
            sys,
            AppKind::ShockPool3D,
            Scheme::distributed_default(),
            scale,
        );
        let mut row = ConfigRow::new(name);
        row.push("parallel DLB", par.total_secs);
        row.push("distributed DLB", dist.total_secs);
        row.push("redistributions", dist.global_redistributions as f64);
        t.push(row);
    }
    t
}

/// **Ablation D** — sensitivity of the "imbalance exists" threshold (part
/// of the paper's promised sensitivity analysis, §6). Runs at quick scale.
pub fn ablation_tolerance(quick: bool) -> Table {
    let scale = if quick { Scale::quick() } else { Scale { n0: 16, max_levels: 3, steps: 4 } };
    let n = 2;
    let mut t = Table::new(format!(
        "Ablation — imbalance tolerance (ShockPool3D, {n}+{n} WAN)"
    ));
    let rows: Vec<ConfigRow> = par::map(&[1.0f64, 1.05, 1.1, 1.25, 1.5, 2.0], |&tol| {
        let cfg = dlb::DistributedDlbConfig {
            imbalance_tolerance: tol,
            ..Default::default()
        };
        let res = run_once(
            wan_system(n),
            AppKind::ShockPool3D,
            Scheme::Distributed(cfg),
            scale,
        );
        let mut row = ConfigRow::new(format!("tol={tol}"));
        row.push("total time", res.total_secs);
        row.push("redistributions", res.global_redistributions as f64);
        row.push("checks", res.global_checks as f64);
        row
    });
    for row in rows {
        t.push(row);
    }
    t
}

/// **Ablation E** — probe smoothing λ (NWS-style EWMA vs the paper's
/// latest-sample estimate) under bursty WAN traffic. Runs at quick scale.
/// Routed through the forecast layer (`PredictorKind::Ewma`) so the
/// smoothed estimate is what the cost gate actually prices — with the
/// reactive default the gate reads the freshest probe sample and λ would
/// only affect the diagnostics.
pub fn ablation_lambda(quick: bool) -> Table {
    let scale = if quick { Scale::quick() } else { Scale { n0: 16, max_levels: 3, steps: 4 } };
    let n = 2;
    let mut t = Table::new(format!(
        "Ablation — probe smoothing λ (ShockPool3D, {n}+{n} bursty WAN)"
    ));
    let rows: Vec<ConfigRow> = par::map(&[0.25f64, 0.5, 1.0], |&lambda| {
        let cfg = dlb::DistributedDlbConfig {
            predictor: Some(forecast::PredictorKind::Ewma { gain: lambda }),
            forecast_seed: TRAFFIC_SEED,
            ..Default::default()
        };
        let res = run_once(
            wan_system(n),
            AppKind::ShockPool3D,
            Scheme::Distributed(cfg),
            scale,
        );
        let mut row = ConfigRow::new(format!("λ={lambda}"));
        row.push("total time", res.total_secs);
        row.push("redistributions", res.global_redistributions as f64);
        row
    });
    for row in rows {
        t.push(row);
    }
    t
}

/// **Ablation F** — donor-selection policy for global redistribution: the
/// naive cells-based reading of Fig. 6 vs the subtree-workload policy this
/// reproduction converged on (see DESIGN.md §5 implementation notes).
pub fn ablation_selection(quick: bool) -> Table {
    let scale = Scale::pick(quick);
    let n = if quick { 1 } else { 2 };
    let mut t = Table::new(format!(
        "Ablation — donor selection policy (ShockPool3D, {n}+{n} WAN)"
    ));
    let rows: Vec<ConfigRow> = par::map(
        &[
            ("subtree-workload", dlb::SelectionPolicy::SubtreeWorkload),
            ("cells (naive)", dlb::SelectionPolicy::Cells),
        ],
        |&(name, selection)| {
            let cfg = dlb::DistributedDlbConfig {
                selection,
                ..Default::default()
            };
            let res = run_once(
                wan_system(n),
                AppKind::ShockPool3D,
                Scheme::Distributed(cfg),
                scale,
            );
            let mut row = ConfigRow::new(name);
            row.push("total time", res.total_secs);
            row.push("redistributions", res.global_redistributions as f64);
            row.push("remote MB", res.breakdown.remote_bytes as f64 / 1e6);
            row
        },
    );
    for row in rows {
        t.push(row);
    }
    t
}

/// **Ablation G** — fault injection: the WAN run of Fig. 7 with a seeded
/// outage/degradation schedule on the inter-group link, reporting what the
/// degradation protocol did (retries, rollbacks, quarantines, re-admissions)
/// next to the fault-free baseline.
pub fn ablation_faults(quick: bool) -> Table {
    use topology::faults::FaultSchedule;
    use topology::{SimTime, SystemBuilder};

    let scale = Scale::pick(quick);
    let n = if quick { 2 } else { 4 };
    // Up/down spans scaled to the simulated run length (seconds to minutes),
    // so every seed actually exercises the degradation protocol.
    let (mean_up, mean_down) = (SimTime::from_secs(3), SimTime::from_secs(3));
    let horizon = SimTime::from_secs(3600);
    let mut t = Table::new(format!(
        "Ablation — WAN link faults (ShockPool3D, {n}+{n})"
    ));
    let cases: Vec<(String, Option<u64>)> = std::iter::once(("fault-free".to_string(), None))
        .chain([1u64, 2, 3].into_iter().map(|s| (format!("faults seed {s}"), Some(s))))
        .collect();
    let rows: Vec<ConfigRow> = par::map(&cases, |(name, seed)| {
        let sys = match seed {
            None => wan_system(n),
            Some(s) => {
                let wan = presets::mren_oc3_wan(TRAFFIC_SEED)
                    .with_faults(FaultSchedule::generate(*s, horizon, mean_up, mean_down));
                SystemBuilder::new()
                    .group("ANL", n, 1.0, presets::origin2000_intra())
                    .group("NCSA", n, 1.0, presets::origin2000_intra())
                    .connect(0, 1, wan)
                    .build()
            }
        };
        let res = run_once(
            sys,
            AppKind::ShockPool3D,
            Scheme::distributed_default(),
            scale,
        );
        let mut row = ConfigRow::new(name.clone());
        row.push("total time", res.total_secs);
        row.push("retries", res.faults.retries as f64);
        row.push("aborts", res.faults.aborts as f64);
        row.push("quarantines", res.faults.quarantines as f64);
        row.push("readmissions", res.faults.readmissions as f64);
        row.push("recovery secs", res.faults.recovery_secs);
        row
    });
    for row in rows {
        t.push(row);
    }
    t
}

/// **Ablation H** — network-weather prediction: the paper's reactive
/// probe-direct cost vs each forecast predictor vs the adaptive selector,
/// under three WAN regimes. Reports total time, redistributions admitted,
/// redistributions aborted mid-transfer (the regret the confident γ-gate
/// exists to avoid), and the β forecast error.
pub fn ablation_forecast(quick: bool) -> Table {
    use forecast::PredictorKind;
    use topology::faults::FaultSchedule;
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder, TrafficModel};

    // one step beyond the smoke scale so each link series scores more than
    // a single out-of-sample probe
    let scale = if quick {
        Scale { n0: 16, max_levels: 3, steps: 4 }
    } else {
        Scale::full()
    };
    let n = if quick { 2 } else { 4 };
    let predictors: Vec<(&str, Option<PredictorKind>)> = vec![
        ("reactive", None),
        ("last", Some(PredictorKind::LastValue)),
        ("mean(8)", Some(PredictorKind::SlidingMean { window: 8 })),
        ("median(5)", Some(PredictorKind::SlidingMedian { window: 5 })),
        ("adaptive-ewma", Some(PredictorKind::AdaptiveEwma)),
        ("adaptive", Some(PredictorKind::Adaptive)),
    ];
    let regimes: &[&str] = &["quiet", "congested", "faulty"];
    let build = |regime: &str| -> DistributedSystem {
        let wan = match regime {
            "quiet" => Link::shared(
                "WAN",
                SimTime::from_millis(6),
                19.375e6,
                TrafficModel::Quiet,
            ),
            // congestion that swings within a level-0 step, so consecutive
            // probes are guaranteed to see different link weather
            "congested" => Link::shared(
                "WAN",
                SimTime::from_millis(6),
                19.375e6,
                TrafficModel::Diurnal {
                    base: 0.6,
                    amp: 0.35,
                    period: SimTime::from_secs(8),
                },
            ),
            _ => presets::mren_oc3_wan(TRAFFIC_SEED).with_faults(FaultSchedule::generate(
                1,
                SimTime::from_secs(3600),
                SimTime::from_secs(3),
                SimTime::from_secs(3),
            )),
        };
        SystemBuilder::new()
            .group("ANL", n, 1.0, presets::origin2000_intra())
            .group("NCSA", n, 1.0, presets::origin2000_intra())
            .connect(0, 1, wan)
            .build()
    };
    let mut t = Table::new(format!(
        "Ablation — network-weather prediction (ShockPool3D, {n}+{n} WAN)"
    ));
    let rows: Vec<ConfigRow> = par::map(&predictors, |&(name, predictor)| {
        let mut row = ConfigRow::new(name);
        for regime in regimes {
            let cfg = dlb::DistributedDlbConfig {
                predictor,
                forecast_seed: TRAFFIC_SEED,
                ..Default::default()
            };
            let res = run_once(
                build(regime),
                AppKind::ShockPool3D,
                Scheme::Distributed(cfg),
                scale,
            );
            row.push(format!("{regime} total"), res.total_secs);
            row.push(
                format!("{regime} admitted"),
                res.global_redistributions as f64,
            );
            row.push(format!("{regime} aborted"), res.faults.aborts as f64);
            // β is ~5e-8 s/byte; report its MAE in ns/byte so the
            // 3-decimal table rendering doesn't flatten it to zero
            row.push(format!("{regime} β MAE ns/B"), res.forecast.beta_mae * 1e9);
            row.push(format!("{regime} load MAE"), res.forecast.load_mae);
        }
        row
    });
    for row in rows {
        t.push(row);
    }
    t
}

fn system_for(app: AppKind, n: usize) -> DistributedSystem {
    match app {
        AppKind::Amr64 => lan_system(n),
        _ => wan_system(n),
    }
}

fn configs(quick: bool) -> &'static [usize] {
    if quick {
        &CONFIGS[..2]
    } else {
        &CONFIGS
    }
}

/// Write a table to `results/<name>.json` (best-effort) and return the
/// rendered text.
pub fn emit(table: &Table, name: &str) -> String {
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write(format!("results/{name}.json"), table.to_json());
    table.render()
}

/// What a run's bits are checked by: everything that must agree bitwise
/// between repeats of a run, or between its null and recording twins.
pub fn fingerprint(r: &RunResult) -> (u64, u64, u64, usize, usize, usize) {
    (
        r.total_secs.to_bits(),
        r.cell_updates,
        r.breakdown.remote_bytes,
        r.final_patches,
        r.peak_patches,
        r.global_redistributions,
    )
}

/// Write `text` to `path`, creating its directory first, and say so.
pub fn write_output(path: &str, text: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Write a benchmark report to `path` through the one JSON writer.
pub fn write_report(path: &str, doc: &Json) {
    write_output(path, &(doc.to_pretty() + "\n"));
}

/// The command-line argument after the first `flag` (`--out PATH` → PATH).
pub fn arg_after(flag: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != flag).nth(1)
}

/// Export a recorded run to `path` — the one `--trace-out` rule: telemetry
/// JSONL (what `report run` digests) when the path ends in `.jsonl`, Chrome
/// trace JSON (chrome://tracing, https://ui.perfetto.dev) otherwise.
pub fn write_trace(path: &str, sink: &RecordingSink) {
    let doc = if path.ends_with(".jsonl") {
        sink.to_jsonl()
    } else {
        sink.to_chrome_trace()
    };
    write_output(path, &doc);
}

/// `cargo bench` without a framework: time `f` and print one line,
/// `name  median [q1 … q3]` seconds per call. One warm-up second also sizes
/// a batch of calls to at least 20 ms, so nanosecond kernels are not timed
/// one clock read apiece; `samples` batches are timed. A first
/// non-flag command-line argument (`cargo bench -- euler`) keeps only the
/// cases whose name contains it. No file is written and nothing is gated —
/// the gated kernel numbers are `crates/benchmark`'s replay.
pub fn report_case<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) {
    use std::hint::black_box;
    use std::time::{Duration, Instant};
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if filter.is_some_and(|want| !name.contains(&want)) {
        return;
    }
    let warm_up = Instant::now();
    let mut calls = 0u32;
    while warm_up.elapsed() < Duration::from_secs(1) {
        black_box(f());
        calls += 1;
    }
    let per_call = warm_up.elapsed().as_secs_f64() / f64::from(calls);
    let batch = (0.02 / per_call).ceil().max(1.0) as u32;
    let secs: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / f64::from(batch)
        })
        .collect();
    let [q1, median, q3] = quartiles(&secs).map(|s| match s {
        s if s < 1e-6 => format!("{:.1} ns", s * 1e9),
        s if s < 1e-3 => format!("{:.2} µs", s * 1e6),
        s if s < 1.0 => format!("{:.2} ms", s * 1e3),
        s => format!("{s:.3} s"),
    });
    println!("{name:<40} {median:>11}  [{q1} … {q3}]  {samples} x {batch} calls");
}

/// `[q1, median, q3]` of `samples`.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|q| telemetry::percentile_exact(samples, q))
}
