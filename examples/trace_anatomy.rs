//! Anatomy of a run, as telemetry sees it: ShockPool3D on the faulty ANL +
//! NCSA WAN with a recording sink attached, exporting everything the
//! pipeline observed.
//!
//! Writes `results/trace_anatomy.trace.json` (open in chrome://tracing or
//! https://ui.perfetto.dev — pid 0 shows host wall-clock spans per level,
//! pid 1 shows the γ-gate / redistribute / fault / probe / transfer /
//! anomaly events on simulated time plus one counter track per bounded
//! metric series) and `results/trace_anatomy.jsonl` (meta line first, then
//! phase/stat/metric aggregates and one event per line — the input format
//! of `bench --bin report`), then prints the text summary.
//!
//! ```text
//! cargo run --release --example trace_anatomy
//! ```

use samr_dlb::prelude::*;
use samr_dlb::telemetry::TelemetrySink as _;
use samr_engine::Scheme;

fn main() {
    let n = 2;
    let steps = 6;
    // fault spans sized to the simulated run length so the degradation
    // protocol (retries, quarantine, rollback) actually shows up in traces
    let sys = presets::faulty_anl_ncsa_wan(n, n, 9, SimTime::from_secs(3600));
    println!("system: {}", sys.describe());
    println!(
        "euler lanes: {}\n",
        samr_dlb::solvers::euler::lanes_in_use()
    );

    let (tel, sink) = Telemetry::recording_shared();
    let mut cfg = RunConfig::new(
        AppKind::ShockPool3D,
        24,
        steps,
        Scheme::distributed_default(),
    );
    cfg.telemetry = tel;
    let res = Driver::new(sys, cfg).run();
    println!("{}\n", res.summary());

    let sink = sink.lock().unwrap();
    let _ = std::fs::create_dir_all("results");
    let trace = sink.to_chrome_trace().expect("recording sink exports a trace");
    std::fs::write("results/trace_anatomy.trace.json", trace).expect("write trace");
    let jsonl = sink.to_jsonl().expect("recording sink exports JSONL");
    std::fs::write("results/trace_anatomy.jsonl", jsonl).expect("write jsonl");
    println!("wrote results/trace_anatomy.trace.json (chrome://tracing / ui.perfetto.dev)");
    println!("wrote results/trace_anatomy.jsonl\n");

    // the same report rides on RunResult for callers that never touch the sink
    match &res.telemetry_summary {
        Some(s) => println!("{s}"),
        None => println!("(no telemetry summary — null handle?)"),
    }
}
