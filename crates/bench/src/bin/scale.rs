//! Federation-scale decision-phase sweep: how does the cost of the global
//! load-balancing decision grow with the number of groups?
//!
//! Sweeps G = 2 → 512 groups (quick tier: → 64) over the seeded
//! [`presets::federation`] site→region→federation topology, holding the
//! *total* processor count fixed so the numerics stay comparable while only
//! the decision structure scales. The global phase is one routine over a
//! reduction tree; each G runs it twice: on the default arity-8 tree
//! ("hierarchical": one node up to G = 8, deeper beyond) and with the tree
//! pinned to one node over all groups ("flat": `flat_reference = true`, the
//! all-pairs compare). Writes `results/BENCH_scale.json` with, per
//! run: host decision-phase wall per level-0 step and its split into local
//! balancing / deciding / migrating, decision messages per global check,
//! link-estimator pairs allocated, and the final power-normalized imbalance.
//!
//! The claims this sweep backs: the one-node tree's decision cost grows
//! superlinearly (O(G²) probes + estimator pairs), the arity-8 tree's stays
//! near-flat in G (O(G) messages, O(log G) depth), the two are the same
//! rows up to G = 8, and the deeper tree never ends a run worse balanced.
//!
//! Flags: `--quick` (G ≤ 64, smaller domain — the CI tier), `--out PATH`.

use base::json::{object, Json, ToJson};
use bench::{arg_after, write_report, TRAFFIC_SEED};
use dlb::DistributedDlbConfig;
use samr_engine::{AppKind, Driver, RunConfig, RunResult, Scheme};
use std::time::Instant;
use topology::presets;

/// One (G, mode) measurement.
struct Entry {
    groups: usize,
    procs_per_group: usize,
    mode: &'static str,
    res: RunResult,
    wall_secs: f64,
    steps: usize,
}

fn run_one(groups: usize, procs_per_group: usize, quick: bool, flat: bool) -> Entry {
    let sys = presets::federation(groups, procs_per_group, TRAFFIC_SEED);
    let (n0, steps) = if quick { (64, 3) } else { (128, 3) };
    let mut cfg = RunConfig::new(
        AppKind::Amr64,
        n0,
        steps,
        Scheme::Distributed(DistributedDlbConfig {
            flat_reference: flat,
            ..Default::default()
        }),
    );
    cfg.max_levels = 2;
    // enough level-0 boxes that every processor owns work at every G
    cfg.max_box_cells = 512;
    let t0 = Instant::now();
    let res = Driver::new(sys, cfg).run();
    Entry {
        groups,
        procs_per_group,
        mode: if flat { "flat" } else { "hierarchical" },
        res,
        wall_secs: t0.elapsed().as_secs_f64(),
        steps,
    }
}

fn entry_json(e: &Entry) -> Json {
    let steps = e.steps.max(1) as f64;
    let per_step = |x: f64| (x / steps).to_json();
    let (r, w, g) = (&e.res, e.res.dlb_wall, e.res.ghost_wall);
    object([
        ("groups", e.groups.to_json()),
        ("procs_per_group", e.procs_per_group.to_json()),
        ("procs", (e.groups * e.procs_per_group).to_json()),
        ("mode", Json::Str(e.mode.into())),
        ("decision_secs_per_step", per_step(r.wall.decision)),
        // where the decision wall went: balancing inside the groups,
        // deciding (loads, upsweep, probes, gate), migrating what the gate
        // accepted
        ("local_dlb_secs_per_step", per_step(w.local_dlb)),
        ("decide_secs_per_step", per_step(w.decide)),
        ("migrate_secs_per_step", per_step(w.migrate)),
        // and the ghost-exchange wall by part: plan fetch or rebuild,
        // parent / boundary fill, sibling copy, messages
        ("ghost_secs_per_step", per_step(r.wall.ghost)),
        ("ghost_plan_secs_per_step", per_step(g.plan)),
        ("ghost_coarse_fill_secs_per_step", per_step(g.coarse_fill)),
        ("ghost_sibling_secs_per_step", per_step(g.sibling)),
        ("ghost_messages_secs_per_step", per_step(g.messages)),
        ("msgs_per_decision", per_step(r.decision_msgs as f64)),
        ("decision_msgs", r.decision_msgs.to_json()),
        ("estimator_pairs", r.estimator_pairs.to_json()),
        ("final_imbalance", r.final_imbalance.to_json()),
        ("global_checks", r.global_checks.to_json()),
        ("redistributions", r.global_redistributions.to_json()),
        ("total_secs", r.total_secs.to_json()),
        ("wall_secs", e.wall_secs.to_json()),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = arg_after("--out").unwrap_or_else(|| "results/BENCH_scale.json".to_string());

    // Fixed total processor count: only the grouping (and with it the
    // decision structure) changes across the sweep.
    let (total_procs, gs): (usize, &[usize]) = if quick {
        (256, &[2, 4, 8, 16, 32, 64])
    } else {
        (2048, &[2, 4, 8, 16, 32, 64, 128, 256, 512])
    };

    let mut entries = Vec::new();
    println!(
        "{:>7} {:>5} {:>14} {:>18} {:>28} {:>16} {:>16} {:>10}",
        "groups",
        "ppg",
        "mode",
        "decision s/step",
        "local / decide / migrate",
        "msgs/decision",
        "estimator_pairs",
        "imbalance"
    );
    for &g in gs {
        let ppg = total_procs / g;
        for flat in [false, true] {
            let e = run_one(g, ppg, quick, flat);
            let steps = e.steps.max(1) as f64;
            let w = e.res.dlb_wall;
            println!(
                "{:>7} {:>5} {:>14} {:>18.6} {:>28} {:>16.1} {:>16} {:>10.4}",
                e.groups,
                e.procs_per_group,
                e.mode,
                e.res.wall.decision / steps,
                format!(
                    "{:.4} / {:.4} / {:.4}",
                    w.local_dlb / steps,
                    w.decide / steps,
                    w.migrate / steps
                ),
                e.res.decision_msgs as f64 / steps,
                e.res.estimator_pairs,
                e.res.final_imbalance,
            );
            entries.push(e);
        }
    }

    // Decision-quality equivalence: the hierarchical path must never end a
    // run more than 10% worse balanced than the flat reference (identical
    // decisions at G ≤ 8; at federation scale it typically ends *better*,
    // because per-subtree gating still accepts cheap intra-site moves the
    // flat gate rejects at worst-case WAN pricing).
    let mut ok = true;
    for pair in entries.chunks(2) {
        let (h, f) = (&pair[0], &pair[1]);
        let (a, b) = (h.res.final_imbalance, f.res.final_imbalance);
        if a > 1.10 * b {
            eprintln!(
                "FAIL: G={} hierarchical final imbalance {a:.4} is >10% worse than flat {b:.4}",
                h.groups
            );
            ok = false;
        }
    }

    let json = object([
        ("bench", Json::Str("scale".into())),
        ("quick", quick.to_json()),
        ("total_procs", total_procs.to_json()),
        ("sweep", Json::Arr(entries.iter().map(entry_json).collect())),
    ]);
    write_report(&out, &json);
    if !ok {
        std::process::exit(1);
    }
}
