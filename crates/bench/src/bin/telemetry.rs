//! Telemetry overhead and audit gate: runs the AMR64 (LAN) preset with the
//! default null handle and with a [`telemetry::RecordingSink`], checks the
//! two runs are bit-identical, that the JSONL export parses line by line,
//! and that the exported gate counts agree with the [`RunResult`] counters
//! (`gamma_gate` events == `global_checks`, `accept` verdicts ==
//! `global_redistributions`). Writes `results/BENCH_telemetry.json` with
//! the recording overhead measured over interleaved (null, recording) pairs:
//! the median of the per-pair overhead percentages, their inter-quartile
//! distance and the pair count (the verify gate enforces median <= max(2 %,
//! IQR) — a quick run lasts ~10 ms, and on a shared box its spread is wider
//! than any flat bound), and the host seconds of one JSONL and one Chrome
//! trace export of a recording run, the median over the pairs (no gate:
//! `report diff` flags a slowdown through its `secs` rule).
//!
//! Flags: `--quick` shrinks the scale for smoke/CI runs; `--out PATH`
//! overrides the output file; `--trace-out PATH` additionally exports the
//! recording run (telemetry JSONL when PATH ends in `.jsonl`, Chrome trace
//! JSON otherwise — load that in chrome://tracing or
//! https://ui.perfetto.dev).

use base::json::{self, object, Json, ToJson};
use bench::{arg_after, fingerprint, lan_system, quartiles, write_report, write_trace, Scale};
use samr_engine::{AppKind, Driver, RunConfig, RunResult, Scheme};
use std::time::Instant;
use telemetry::{RecordingSink, Telemetry};

fn timed_run(scale: Scale, n: usize, tel: Telemetry) -> (RunResult, f64) {
    let mut cfg = RunConfig::new(AppKind::Amr64, scale.n0, scale.steps, Scheme::distributed_default());
    cfg.max_levels = scale.max_levels;
    cfg.telemetry = tel;
    let t0 = Instant::now();
    let res = Driver::new(lan_system(n), cfg).run();
    (res, t0.elapsed().as_secs_f64())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = arg_after("--out").unwrap_or_else(|| "results/BENCH_telemetry.json".to_string());
    let trace_out = arg_after("--trace-out");
    let scale = Scale::pick(quick);
    let n = if quick { 1 } else { 2 };

    // (null, recording) pairs run back to back, the side that goes first
    // alternating, so a slow minute of the box lands on both sides of a
    // ratio; one untimed run first takes the pool start-up and the first
    // touch of the heap. The fingerprint check uses the last run of each
    // mode (any pair must agree).
    const PAIRS: usize = 21;
    timed_run(scale, n, Telemetry::null());
    let (mut walls_null, mut walls_rec, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    let mut export_secs = [Vec::new(), Vec::new()];
    let mut last = None;
    for pair in 0..PAIRS {
        let run_null = || timed_run(scale, n, Telemetry::null());
        let run_rec = || {
            let (tel, sink) = Telemetry::recording_shared();
            (timed_run(scale, n, tel), sink)
        };
        let ((res_null, w_null), ((res_rec, w_rec), sink)) = if pair % 2 == 0 {
            let null = run_null();
            (null, run_rec())
        } else {
            let rec = run_rec();
            (run_null(), rec)
        };
        walls_null.push(w_null);
        walls_rec.push(w_rec);
        overheads.push((w_rec - w_null) / w_null * 100.0);
        let rec = sink.lock().unwrap();
        let exports = [RecordingSink::to_jsonl, RecordingSink::to_chrome_trace];
        for (secs, export) in export_secs.iter_mut().zip(exports) {
            let t0 = Instant::now();
            std::hint::black_box(export(&rec));
            secs.push(t0.elapsed().as_secs_f64());
        }
        drop(rec);
        last = Some((res_null, res_rec, sink));
    }
    let (res_null, res_rec, sink) = last.expect("at least one pair");
    let [_, wall_null, _] = quartiles(&walls_null);
    let [_, wall_rec, _] = quartiles(&walls_rec);
    let [q1, overhead_pct, q3] = quartiles(&overheads);
    let overhead_iqr_pct = q3 - q1;
    let [export_jsonl_secs, export_chrome_secs] = export_secs.map(|secs| quartiles(&secs)[1]);

    let identical = fingerprint(&res_null) == fingerprint(&res_rec);

    // parse the JSONL export line by line and re-count the gate events
    let sink = sink.lock().unwrap();
    let jsonl = sink.to_jsonl();
    let mut parsed_lines = 0usize;
    let mut gates = 0usize;
    let mut accepts = 0usize;
    for line in jsonl.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line: {e:?}\n{line}"));
        parsed_lines += 1;
        if v.get("type").and_then(Json::as_str) == Some("gamma_gate") {
            gates += 1;
            if v.get("verdict").and_then(Json::as_str) == Some("accept") {
                accepts += 1;
            }
        }
    }
    let (dropped_decisions, _) = sink.dropped();
    let counts = sink.counts();
    // the ring-independent counters must match the engine's own tally; the
    // ring-derived recount matches too unless eviction dropped decisions
    let counts_match = counts.gates == res_rec.global_checks as u64
        && counts.gate_accepts == res_rec.global_redistributions as u64
        && (dropped_decisions > 0
            || (gates == res_rec.global_checks && accepts == res_rec.global_redistributions));

    println!(
        "amr64 telemetry: null {:.3}s, recording {:.3}s ({:+.2}% overhead, IQR {:.2}% over \
         {PAIRS} pairs)  bit-identical {}  jsonl lines {}  gates {}/{} accepts {}/{}",
        wall_null,
        wall_rec,
        overhead_pct,
        overhead_iqr_pct,
        identical,
        parsed_lines,
        counts.gates,
        res_rec.global_checks,
        counts.gate_accepts,
        res_rec.global_redistributions,
    );
    println!(
        "{:>15} {} bounded metric series, {} anomalies flagged",
        "",
        sink.metrics().len(),
        counts.anomalies,
    );

    if let Some(path) = &trace_out {
        write_trace(path, &sink);
    }

    let json_out = object([
        ("bench", Json::Str("telemetry".into())),
        ("quick", quick.to_json()),
        ("preset", Json::Str("amr64".into())),
        ("n0", scale.n0.to_json()),
        ("max_levels", scale.max_levels.to_json()),
        ("steps", scale.steps.to_json()),
        ("procs_per_site", n.to_json()),
        ("wall_null_secs", wall_null.to_json()),
        ("wall_recording_secs", wall_rec.to_json()),
        ("overhead_pct", overhead_pct.to_json()),
        ("overhead_iqr_pct", overhead_iqr_pct.to_json()),
        ("pairs", PAIRS.to_json()),
        ("bit_identical", identical.to_json()),
        ("jsonl_lines", parsed_lines.to_json()),
        ("gates", counts.gates.to_json()),
        ("gate_accepts", counts.gate_accepts.to_json()),
        ("global_checks", res_rec.global_checks.to_json()),
        (
            "global_redistributions",
            res_rec.global_redistributions.to_json(),
        ),
        ("dropped_decisions", dropped_decisions.to_json()),
        ("metric_series", sink.metrics().len().to_json()),
        ("anomalies", counts.anomalies.to_json()),
        ("counts_match", counts_match.to_json()),
        ("export_jsonl_secs", export_jsonl_secs.to_json()),
        ("export_chrome_secs", export_chrome_secs.to_json()),
    ]);
    write_report(&out, &json_out);

    if !identical {
        eprintln!("FAIL: recording telemetry perturbed the simulation");
        std::process::exit(1);
    }
    if !counts_match {
        eprintln!("FAIL: telemetry gate counts disagree with the RunResult counters");
        std::process::exit(1);
    }
}
