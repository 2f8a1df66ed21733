//! Multi-tenant service benchmark: N concurrent SAMR jobs on one shared
//! substrate, tenant-aware admission + γ-gated inter-tenant migration vs
//! naive static placement.
//!
//! The tenant mix is deliberately adversarial to static placement: big
//! 2-group jobs alternate with small 1-group jobs, so the static round-robin
//! anchors two big tenants (plus two smalls) onto the same group window
//! while the aware scheduler spreads them over the least-loaded groups.
//! Every tenant pair admitted to the same group contends for the *same*
//! simulated processor clocks and background-traffic links, so collisions
//! show up directly in per-tenant p99 step latency.
//!
//! Two scenarios run the identical mix:
//!
//! - **quiet** — LAN-class inter-group links with light background traffic;
//! - **congested** — WAN-class links under heavy bursty cross traffic,
//!   where placement mistakes are the most expensive.
//!
//! Each (scenario, mode) cell reports per-tenant p50/p99 step latency,
//! aggregate throughput and migrations. The aware/congested cell runs twice
//! (second run recording telemetry) and the whole bench exits non-zero if
//! the two fingerprints differ — the shared clock must be bit-identical
//! per seed. Writes `results/BENCH_tenants.json`.
//!
//! Flags: `--quick` shrinks tenant sizes for CI, `--seed N`, `--out PATH`,
//! `--trace-out PATH` to export the recorded aware/congested replay
//! (telemetry JSONL when PATH ends in `.jsonl`, Chrome trace JSON
//! otherwise — the JSONL feeds `report run`).

use base::json::{object, Json, ToJson};
use bench::{arg_after, write_report, write_trace, TRAFFIC_SEED};
use samr_engine::AppKind;
use telemetry::Telemetry;
use tenants::{ServiceResult, TenantService, TenantServiceConfig, TenantSpec};
use topology::{presets, DistributedSystem, Link, SimTime, SystemBuilder, TrafficModel};

const NGROUPS: usize = 6;

/// Fully-connected homogeneous substrate: `NGROUPS` sites of `procs`
/// Origin2000-class processors each, every pair joined by a shared link.
fn substrate(procs: usize, congested: bool, seed: u64) -> DistributedSystem {
    let link = |s: u64| {
        if congested {
            // MREN OC-3-class WAN under heavy bursty cross traffic
            Link::shared(
                "WAN",
                SimTime::from_millis(6),
                19.375e6,
                TrafficModel::Bursty {
                    low: 0.40,
                    high: 0.90,
                    p_on: 0.60,
                    slot: SimTime::from_secs(4),
                    seed: s,
                },
            )
        } else {
            // GigE-class LAN with light background traffic
            Link::shared(
                "LAN",
                SimTime::from_micros(120),
                125e6,
                TrafficModel::Bursty {
                    low: 0.05,
                    high: 0.20,
                    p_on: 0.20,
                    slot: SimTime::from_secs(2),
                    seed: s,
                },
            )
        }
    };
    let mut b = SystemBuilder::new();
    for g in 0..NGROUPS {
        b = b.group(&format!("site-{g}"), procs, 1.0, presets::origin2000_intra());
    }
    for a in 0..NGROUPS {
        for c in (a + 1)..NGROUPS {
            b = b.connect(a, c, link(seed ^ ((a as u64) << 16) ^ ((c as u64) << 4)));
        }
    }
    b.build()
}

/// Eight tenants, mixed presets and sizes: high-priority 2-group jobs
/// interleaved with low-priority 1-group fillers.
fn tenant_mix(quick: bool) -> Vec<TenantSpec> {
    let (big, small, steps) = if quick { (12, 8, 3) } else { (16, 10, 5) };
    let bigs = [AppKind::ShockPool3D, AppKind::Amr64];
    (0..8)
        .map(|i| {
            if i % 2 == 0 {
                TenantSpec::new(bigs[(i / 2) % 2], big, steps, 4.0, 2)
            } else {
                TenantSpec::new(AppKind::AdvectBlob, small, steps, 1.0, 1)
            }
        })
        .collect()
}

fn run_cell(
    procs: usize,
    congested: bool,
    quick: bool,
    seed: u64,
    aware: bool,
    tel: Telemetry,
) -> ServiceResult {
    let cfg = TenantServiceConfig {
        seed,
        tenant_aware: aware,
        telemetry: tel,
    };
    TenantService::new(substrate(procs, congested, TRAFFIC_SEED), tenant_mix(quick), cfg).run()
}

fn mode_json(mode: &str, r: &ServiceResult) -> Json {
    let tenants = r.tenants.iter().map(|t| {
        base::json_fields!(t; tenant, priority, groups, steps, cell_updates, total_secs,
            p50_step_secs, p99_step_secs, migrations)
    });
    object([
        ("mode", Json::Str(mode.into())),
        ("total_secs", r.total_secs.to_json()),
        (
            "aggregate_cell_updates_per_sec",
            r.aggregate_cell_updates_per_sec().to_json(),
        ),
        ("migrations", r.migrations.to_json()),
        ("worst_p99_step_secs", r.worst_p99_step_secs().to_json()),
        ("tenants", Json::Arr(tenants.collect())),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = arg_after("--out").unwrap_or_else(|| "results/BENCH_tenants.json".to_string());
    let trace_out = arg_after("--trace-out");
    let seed: u64 = arg_after("--seed")
        .map(|s| s.parse().expect("--seed takes a number"))
        .unwrap_or(42);
    let procs = if quick { 2 } else { 4 };

    let mut scenario_blocks = Vec::new();
    let mut congested_gap = 0.0;
    let mut bit_identical = true;
    for congested in [false, true] {
        let name = if congested { "congested" } else { "quiet" };
        let aware = run_cell(procs, congested, quick, seed, true, Telemetry::null());
        let naive = run_cell(procs, congested, quick, seed, false, Telemetry::null());
        if congested {
            // replay the aware cell with telemetry recording: the shared
            // clock must not notice the observer
            let (tel, sink) = Telemetry::recording_shared();
            let replay = run_cell(procs, congested, quick, seed, true, tel);
            if replay.fingerprint() != aware.fingerprint() {
                bit_identical = false;
            }
            congested_gap = naive.worst_p99_step_secs() - aware.worst_p99_step_secs();
            if let Some(path) = &trace_out {
                write_trace(path, &sink.lock().unwrap());
            }
        }
        println!(
            "{name:>9}: aware p99 {:>9.4}s ({} migrations) | static p99 {:>9.4}s",
            aware.worst_p99_step_secs(),
            aware.migrations,
            naive.worst_p99_step_secs(),
        );
        scenario_blocks.push(object([
            ("scenario", Json::Str(name.into())),
            (
                "modes",
                Json::Arr(vec![
                    mode_json("aware", &aware),
                    mode_json("static", &naive),
                ]),
            ),
        ]));
    }

    println!(
        "tenants: 8 jobs on {NGROUPS}x{procs} procs, shared clock {} \
         (congested p99 gap: static - aware = {congested_gap:.4}s)",
        if bit_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        },
    );

    let json = object([
        ("bench", Json::Str("tenants".into())),
        ("quick", quick.to_json()),
        ("seed", seed.to_json()),
        ("ngroups", NGROUPS.to_json()),
        ("procs_per_group", procs.to_json()),
        ("tenants", 8usize.to_json()),
        ("bit_identical", bit_identical.to_json()),
        ("congested_p99_gap_secs", congested_gap.to_json()),
        ("scenarios", Json::Arr(scenario_blocks)),
    ]);
    write_report(&out, &json);

    if !bit_identical {
        eprintln!("FAIL: recording telemetry perturbed the shared-clock run");
        std::process::exit(1);
    }
}
