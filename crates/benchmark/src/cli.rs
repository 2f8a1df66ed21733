//! Command line: `run`, `compare`, `spec`.

use crate::compare::compare;
use crate::host::{host_block, is_debug_build, pin_rayon};
use crate::json::{self, obj, Value};
use crate::passes::{timed_pass, traced_pass, PassOptions, PassReport};
use crate::spec::{benchmark_json, DEFAULT_SEED, RUN_SECONDS};
use crate::workload::{Scale, Workload, ALL};
use std::path::{Path, PathBuf};
use std::process::Command;

const USAGE: &str = "\
usage:
  benchmark run --all [--seed N] [--out DIR]
      every workload, timed then traced pass, each in its own process;
      writes DIR/results.json (DIR defaults to bench_out)
  benchmark run --workload NAME [--traced | --trace 0|1] [--seed N]
      [--seconds S] [--out DIR] [--tiny]
      one pass of one workload; the last line of standard output is the
      benchmark driver's JSON object
  benchmark compare A.json B.json
      two results.json of `run --all`; exits 1 when a metric is worse than
      its bound allows, is missing on one side, or a larger share of
      operations failed
  benchmark spec
      prints the contents of BENCHMARK.json
workloads: shock_wan amr64_lan fed_g64 tenants_6g
--seed (default 42) draws every shared link's capacity within 0.5 % of
nominal; the other generated inputs are fixed (README, \"Seeds\").
--seconds is recorded only: a pass is a fixed amount of work (steps and
timed repeats per workload are in every output).";

struct Args<'a>(&'a [String]);

impl Args<'_> {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} takes a number, got {v:?}")),
        }
    }
}

pub fn main(args: &[String]) -> i32 {
    let rest = Args(args.get(1..).unwrap_or(&[]));
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&rest),
        Some("compare") => compare_files(&rest),
        Some("spec") => {
            print!("{}", benchmark_json().to_pretty());
            Ok(0)
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        2
    })
}

fn run(args: &Args<'_>) -> Result<i32, String> {
    if is_debug_build() && !args.flag("--allow-debug") {
        return Err("this is a debug build: timings from it mean nothing. \
                    Build with --release (or pass --allow-debug to exercise the code paths)."
            .to_string());
    }
    let seed: u64 = args.number("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("--seconds", RUN_SECONDS as f64)?;
    let out_dir = PathBuf::from(args.value("--out").unwrap_or("bench_out"));
    if args.flag("--all") {
        return run_all(seed, seconds, &out_dir);
    }
    let name = args.value("--workload").ok_or(USAGE)?;
    let workload =
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let traced = args.flag("--traced") || args.number("--trace", 0u8)? != 0;
    let opts = PassOptions {
        scale: if args.flag("--tiny") {
            Scale::Tiny
        } else {
            Scale::Full
        },
        seed,
        out_dir: Some(out_dir.clone()),
    };
    pin_rayon();
    let report = if traced {
        traced_pass(workload, &opts)
    } else {
        timed_pass(workload, &opts)
    };
    let host = host_block(seed, seconds);
    let mut doc = report.to_json();
    doc.set("host", host.clone());
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = pass_file(&out_dir, &report);
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    print!("{}", report.to_text());
    println!("host: {}", host.to_compact());
    println!("{}", report.driver_line().to_compact());
    Ok(0)
}

fn pass_file(out_dir: &Path, report: &PassReport) -> PathBuf {
    let pass = if report.traced { "traced" } else { "timed" };
    out_dir.join(format!("{}_{pass}.json", report.job.workload.name()))
}

/// Every (workload, pass) in its own sequentially spawned process — so that
/// `peak_rss_mb` is the workload's own — then one results file.
fn run_all(seed: u64, seconds: f64, out_dir: &Path) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut workloads = Vec::new();
    let mut failed = 0.0;
    for w in ALL {
        let mut passes = Vec::new();
        for (pass, trace) in [("timed", "0"), ("traced", "1")] {
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name(), "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(out_dir)
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} {pass} pass exited with {status}", w.name()));
            }
            let path = out_dir.join(format!("{}_{pass}.json", w.name()));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = json::parse(&text)?;
            failed += doc.get("ops_failed").and_then(Value::as_f64).unwrap_or(0.0);
            passes.push((pass.to_string(), doc));
        }
        workloads.push((w.name().to_string(), Value::Obj(passes)));
    }
    pin_rayon();
    let results = obj([
        ("schema", "samr-dlb-benchmark/1".into()),
        ("host", host_block(seed, seconds)),
        ("ops_failed", failed.into()),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = out_dir.join("results.json");
    std::fs::write(&path, results.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if failed > 0.0 {
        eprintln!("{failed} operations failed");
        return Ok(1);
    }
    Ok(0)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_files(args: &Args<'_>) -> Result<i32, String> {
    let [a, b] = args.0 else {
        return Err(USAGE.to_string());
    };
    let cmp = compare(&read_json(a)?, &read_json(b)?);
    print!("{}", cmp.table);
    Ok(if cmp.regressed { 1 } else { 0 })
}
