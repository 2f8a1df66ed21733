//! Run-report analyzer and regression differ over the observability
//! artifacts the other bins emit.
//!
//! Two modes:
//!
//! * `report run FILE.jsonl` — digest one telemetry JSONL export into a
//!   human-readable report: event counters, host wall-clock phase
//!   breakdown, gamma-gate statistics, the imbalance trajectory (with an
//!   ASCII sparkline over the retained points), and any anomalies the
//!   online detectors flagged.
//! * `report diff A B [--tol F]` — compare two artifacts (telemetry JSONL
//!   or `BENCH_*.json` benchmark outputs, auto-detected) after flattening
//!   both to `name -> number` maps. Keys with a known "worse" direction
//!   (seconds and hotpath's `dlb_phases`, misses, drops, anomalies up;
//!   throughput, speedups, bit-identity down) that moved the wrong way by
//!   more than the tolerance (default 20%) are printed as `REGRESSION` lines with the
//!   values attributed, and the exit code is 2. Identical inputs produce
//!   no output and exit 0, so the diff can sit in CI pipelines silently.
//!
//! Like the exporters themselves this bin is serializer-free: it parses
//! with [`base::json`].

use base::json::{self, Json};
use std::collections::BTreeMap;

const USAGE: &str = "usage:\n  report run FILE.jsonl\n  report diff A B [--tol FRACTION]";

/// Relative change beyond which a wrong-direction move is a regression.
const DEFAULT_TOL: f64 = 0.20;

/// Key substrings where an *increase* is a regression.
const WORSE_UP: &[&str] = &[
    "secs", "misses", "dropped", "failed", "faults", "aborted", "anomalies", "crashes", "mae",
    "overhead", "wasted", "evacuations", "quarantines", "msgs_per_decision",
    // hotpath's balancer split (local_dlb / decide / migrate), in seconds
    "dlb_phases",
];

/// Key substrings where a *decrease* is a regression. Checked first:
/// `per_sec` must not fall through to the `secs` rule (it does not match
/// `secs`, but keep the precedence explicit for future patterns).
const WORSE_DOWN: &[&str] = &["per_sec", "speedup", "bit_identical", "counts_match"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") if args.len() == 2 => run_report(&args[1]),
        Some("diff") if args.len() >= 3 => {
            let tol = args
                .iter()
                .position(|a| a == "--tol")
                .and_then(|i| args.get(i + 1))
                .map(|s| s.parse::<f64>().expect("--tol takes a fraction"))
                .unwrap_or(DEFAULT_TOL);
            diff_report(&args[1], &args[2], tol)
        }
        _ => {
            eprintln!("{USAGE}");
            64
        }
    };
    std::process::exit(code);
}

fn read_lines(path: &str) -> Vec<Json> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("report: cannot read {path}: {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("report: bad JSONL line in {path}: {e}\n{l}")))
        .collect()
}

fn f(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn s<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("")
}

// ---------------------------------------------------------------- run mode

fn run_report(path: &str) -> i32 {
    let lines = read_lines(path);
    let Some(meta) = lines.first().filter(|v| s(v, "type") == "meta") else {
        eprintln!("report: {path} is not a telemetry JSONL export (no meta line first)");
        return 65;
    };
    let by_type = |ty: &'static str| lines.iter().filter(move |v| s(v, "type") == ty);

    println!("run report: {path}");
    println!(
        "  gates {} ({} accepted)  redistributes {} ({} aborted)  probes {}  transfers {} ({} failed)",
        f(meta, "gates"),
        f(meta, "gate_accepts"),
        f(meta, "redistributes"),
        f(meta, "aborted_redistributes"),
        f(meta, "probes"),
        f(meta, "transfers"),
        f(meta, "failed_transfers"),
    );
    println!(
        "  faults {}  crashes {}  evacuations {}  rejoins {}  tenant steps {}  anomalies {}",
        f(meta, "faults"),
        f(meta, "crashes"),
        f(meta, "evacuations"),
        f(meta, "rejoins"),
        f(meta, "tenant_steps"),
        f(meta, "anomalies"),
    );
    let dropped = f(meta, "dropped_decisions") + f(meta, "dropped_flows") + f(meta, "spans_dropped");
    if dropped > 0.0 {
        println!(
            "  dropped by ring bounds: {} decisions, {} flows, {} spans (event-derived stats below are partial)",
            f(meta, "dropped_decisions"),
            f(meta, "dropped_flows"),
            f(meta, "spans_dropped"),
        );
    }

    // phase breakdown, largest total first
    let mut phases: Vec<&Json> = by_type("phase").collect();
    phases.sort_by(|a, b| f(b, "total_secs").total_cmp(&f(a, "total_secs")));
    if !phases.is_empty() {
        println!("phase breakdown (host wall-clock):");
        for p in phases.iter().take(10) {
            let label = match p.get("level").and_then(Json::as_f64) {
                Some(l) => format!("{}[l{}]", s(p, "name"), l),
                None => s(p, "name").to_string(),
            };
            println!(
                "  {label:<24} n {:>7}  total {:>9.3}s  p50 {:>10.3e}s  p95 {:>10.3e}s  max {:>10.3e}s",
                f(p, "count"),
                f(p, "total_secs"),
                f(p, "p50_secs"),
                f(p, "p95_secs"),
                f(p, "max_secs"),
            );
        }
    }

    // gate statistics from the retained event lines
    let mut verdicts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut reject_reasons: BTreeMap<&str, u64> = BTreeMap::new();
    for g in by_type("gamma_gate") {
        let v = s(g, "verdict");
        *verdicts.entry(v).or_default() += 1;
        if v != "accept" {
            *reject_reasons.entry(s(g, "reason")).or_default() += 1;
        }
    }
    if !verdicts.is_empty() {
        let total: u64 = verdicts.values().sum();
        let accepts = verdicts.get("accept").copied().unwrap_or(0);
        println!(
            "gate statistics (from {} retained events; accept rate {:.1}%):",
            total,
            100.0 * accepts as f64 / total as f64
        );
        for (v, n) in &verdicts {
            println!("  {v:<10} {n:>6}");
        }
        if !reject_reasons.is_empty() {
            let rs: Vec<String> = reject_reasons
                .iter()
                .map(|(r, n)| format!("{r} {n}"))
                .collect();
            println!("  non-accept reasons: {}", rs.join(", "));
        }
    }

    // imbalance trajectory with a sparkline over the retained points
    if let Some(m) = by_type("metric").find(|v| s(v, "name") == "imbalance") {
        println!(
            "imbalance trajectory ({} samples, {} retained, stride {}):",
            f(m, "samples"),
            f(m, "kept"),
            f(m, "stride"),
        );
        println!(
            "  min {:.4}  mean {:.4}  max {:.4}  last {:.4}",
            f(m, "min"),
            f(m, "mean"),
            f(m, "max"),
            f(m, "last"),
        );
        let pts: Vec<f64> = m
            .get("points")
            .and_then(Json::as_arr)
            .map(|ps| ps.iter().filter_map(|p| p.as_arr()?.get(1)?.as_f64()).collect())
            .unwrap_or_default();
        if pts.len() >= 2 {
            println!("  [{}]", sparkline(&pts, 60));
        }
    }
    let n_metrics = by_type("metric").count();
    if n_metrics > 0 {
        println!("metric series recorded: {n_metrics} (see the metric JSONL lines for full points)");
    }

    let anomalies: Vec<&Json> = by_type("anomaly").collect();
    if !anomalies.is_empty() {
        println!("anomalies ({}):", anomalies.len());
        for a in anomalies {
            println!(
                "  t={:.3}s {}: {}",
                f(a, "t_sim"),
                s(a, "kind"),
                s(a, "detail"),
            );
        }
    } else {
        println!("anomalies: none");
    }
    0
}

/// Scale `pts` into `width` columns of " .:-=+*#%@" (column = mean of the
/// samples it covers). A flat series renders as all-minimum characters.
fn sparkline(pts: &[f64], width: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let width = width.min(pts.len()).max(1);
    let lo = pts.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = pts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    (0..width)
        .map(|c| {
            let a = c * pts.len() / width;
            let b = ((c + 1) * pts.len() / width).max(a + 1);
            let mean = pts[a..b].iter().sum::<f64>() / (b - a) as f64;
            let idx = ((mean - lo) / span * (RAMP.len() - 1) as f64).round() as usize;
            RAMP[idx.min(RAMP.len() - 1)] as char
        })
        .collect()
}

// --------------------------------------------------------------- diff mode

/// Flatten either artifact kind into a `name -> number` map.
fn load_flat(path: &str) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("report: cannot read {path}: {e}"));
    // a BENCH_*.json file is one JSON document; a JSONL export is one
    // document per line (the whole-file parse fails on line two)
    if let Ok(doc) = json::parse(&text) {
        let mut out = BTreeMap::new();
        flatten_json("", &doc, &mut out);
        out
    } else {
        flatten_jsonl(&text.lines().filter(|l| !l.trim().is_empty()).map(|l| {
            json::parse(l)
                .unwrap_or_else(|e| panic!("report: {path} is neither JSON nor JSONL: {e}\n{l}"))
        }).collect::<Vec<_>>())
    }
}

/// Recursive dotted-path flattening for benchmark JSON documents. Array
/// elements carrying a `"name"` member use it as the path segment (the
/// hotpath presets), others their index; booleans map to 0/1.
fn flatten_json(prefix: &str, v: &Json, out: &mut BTreeMap<String, f64>) {
    let key = |k: &str| {
        if prefix.is_empty() {
            k.to_string()
        } else {
            format!("{prefix}.{k}")
        }
    };
    match v {
        Json::Num(x) => {
            out.insert(prefix.to_string(), *x);
        }
        Json::Bool(b) => {
            out.insert(prefix.to_string(), if *b { 1.0 } else { 0.0 });
        }
        Json::Obj(members) => {
            for (k, val) in members {
                flatten_json(&key(k), val, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let seg = item
                    .get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .unwrap_or_else(|| i.to_string());
                flatten_json(&key(&seg), item, out);
            }
        }
        Json::Str(_) | Json::Null => {}
    }
}

/// Flatten a telemetry JSONL export: meta counters, per-phase wall totals,
/// stat-block entries, and per-series metric aggregates. Individual events
/// are not compared (they are ring-bounded and scheduling-ordered); their
/// population is already visible through the meta counters.
fn flatten_jsonl(lines: &[Json]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for v in lines {
        match s(v, "type") {
            "meta" => {
                if let Json::Obj(members) = v {
                    for (k, val) in members {
                        if let Some(x) = val.as_f64() {
                            out.insert(k.clone(), x);
                        }
                    }
                }
            }
            "phase" => {
                let label = match v.get("level").and_then(Json::as_f64) {
                    Some(l) => format!("phase:{}[l{}]", s(v, "name"), l),
                    None => format!("phase:{}", s(v, "name")),
                };
                out.insert(format!("{label}:total_secs"), f(v, "total_secs"));
                out.insert(format!("{label}:p95_secs"), f(v, "p95_secs"));
                out.insert(format!("{label}:count"), f(v, "count"));
            }
            "stat_block" => {
                if let Json::Obj(members) = v {
                    let name = s(v, "name").to_string();
                    for (k, val) in members {
                        if k == "type" || k == "name" {
                            continue;
                        }
                        if let Some(x) = val.as_f64() {
                            out.insert(format!("{name}:{k}"), x);
                        }
                    }
                }
            }
            "metric" => {
                let name = s(v, "name");
                out.insert(format!("metric:{name}:mean"), f(v, "mean"));
                out.insert(format!("metric:{name}:max"), f(v, "max"));
                out.insert(format!("metric:{name}:last"), f(v, "last"));
                out.insert(format!("metric:{name}:samples"), f(v, "samples"));
            }
            _ => {}
        }
    }
    out
}

/// `Some(relative_change)` when `key` moved in its worse direction, where
/// the change is expressed as a positive fraction of `|a|`.
fn regression(key: &str, a: f64, b: f64) -> Option<f64> {
    let worse_down = WORSE_DOWN.iter().any(|p| key.contains(p));
    let worse_up = !worse_down && WORSE_UP.iter().any(|p| key.contains(p));
    let delta = if worse_down {
        a - b // a decrease is bad: positive delta = regression
    } else if worse_up {
        b - a // an increase is bad
    } else {
        return None;
    };
    if delta <= 0.0 {
        return None;
    }
    Some(if a == 0.0 { f64::INFINITY } else { delta / a.abs() })
}

fn diff_report(path_a: &str, path_b: &str, tol: f64) -> i32 {
    let a = load_flat(path_a);
    let b = load_flat(path_b);
    let mut regressions = 0usize;
    for (key, &va) in &a {
        let Some(&vb) = b.get(key) else { continue };
        let Some(rel) = regression(key, va, vb) else {
            continue;
        };
        // boolean keys (bit_identical, counts_match) regress on any flip;
        // numeric keys must clear the tolerance
        let boolean = WORSE_DOWN[2..].iter().any(|p| key.contains(p));
        if boolean || rel > tol {
            regressions += 1;
            if rel.is_finite() {
                println!("REGRESSION {key}: {va} -> {vb} ({:+.1}%)", (vb - va) / va.abs() * 100.0);
            } else {
                println!("REGRESSION {key}: {va} -> {vb}");
            }
        }
    }
    if regressions > 0 {
        println!(
            "report diff: {regressions} regression(s) between {path_a} and {path_b} (tolerance ±{:.0}%)",
            tol * 100.0
        );
        2
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_rules_flag_only_wrong_way_moves() {
        // seconds up = regression; down = fine
        assert!(regression("wall_recording_secs", 1.0, 3.0).unwrap() > 1.9);
        assert!(regression("wall_recording_secs", 3.0, 1.0).is_none());
        // throughput down = regression (and must not hit the "secs" rule)
        assert!(regression("cell_updates_per_sec", 100.0, 50.0).is_some());
        assert!(regression("cell_updates_per_sec", 50.0, 100.0).is_none());
        // boolean flip
        assert!(regression("bit_identical", 1.0, 0.0).is_some());
        // decision traffic up = regression (and "msgs_per_decision" must
        // not be mistaken for the throughput "per_sec" rule)
        assert!(regression("msgs_per_decision", 100.0, 400.0).is_some());
        assert!(regression("msgs_per_decision", 400.0, 100.0).is_none());
        // decision wall rides the generic "secs" rule
        assert!(regression("decision_secs_per_step", 0.01, 0.05).is_some());
        // the balancer's layers are seconds, under names of their own
        assert!(regression("presets.amr64.dlb_phases.local_dlb", 0.01, 0.03).is_some());
        assert!(regression("presets.amr64.dlb_phases.migrate", 0.03, 0.01).is_none());
        // undirected keys never flag
        assert!(regression("peak_patches", 1.0, 100.0).is_none());
        // growth from zero is an infinite relative change
        assert_eq!(
            regression("steady_misses", 0.0, 4.0),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn flatten_json_uses_preset_names_and_maps_bools() {
        let doc = json::parse(
            r#"{"bench": "hotpath", "presets": [{"name": "amr64", "wall_secs": 1.5, "bit_identical": true}]}"#,
        )
        .unwrap();
        let mut out = BTreeMap::new();
        flatten_json("", &doc, &mut out);
        assert_eq!(out.get("presets.amr64.wall_secs"), Some(&1.5));
        assert_eq!(out.get("presets.amr64.bit_identical"), Some(&1.0));
        assert!(!out.contains_key("bench"), "strings are not compared");
    }

    #[test]
    fn flatten_jsonl_keeps_meta_phases_blocks_and_metrics() {
        let lines: Vec<Json> = [
            r#"{"type": "meta", "gates": 4, "anomalies": 1, "dropped_decisions": 0}"#,
            r#"{"type": "stat_block", "name": "field_pool", "hits": 10, "steady_misses": 0}"#,
            r#"{"type": "phase", "name": "solve", "level": 1, "count": 8, "total_secs": 0.5, "p50_secs": 0.06, "p95_secs": 0.07, "p99_secs": 0.07, "max_secs": 0.08}"#,
            r#"{"type": "metric", "name": "imbalance", "samples": 9, "kept": 9, "downsamples": 0, "stride": 1, "min": 1.0, "max": 2.0, "mean": 1.5, "last": 1.2, "points": [[0.0, 1.0]]}"#,
            r#"{"type": "gamma_gate", "seq": 0, "t_sim": 0.1, "verdict": "accept"}"#,
        ]
        .iter()
        .map(|l| json::parse(l).unwrap())
        .collect();
        let flat = flatten_jsonl(&lines);
        assert_eq!(flat.get("gates"), Some(&4.0));
        assert_eq!(flat.get("anomalies"), Some(&1.0));
        assert_eq!(flat.get("field_pool:steady_misses"), Some(&0.0));
        assert_eq!(flat.get("phase:solve[l1]:total_secs"), Some(&0.5));
        assert_eq!(flat.get("metric:imbalance:mean"), Some(&1.5));
        // raw events do not produce comparison keys
        assert!(flat.keys().all(|k| !k.contains("gamma_gate")));
    }

    #[test]
    fn sparkline_is_monotone_with_the_data() {
        let rising: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let line = sparkline(&rising, 10);
        assert_eq!(line.len(), 10);
        assert!(line.starts_with(' '));
        assert!(line.ends_with('@'));
        let flat = sparkline(&[2.0, 2.0, 2.0], 3);
        assert_eq!(flat, "   ");
    }
}
