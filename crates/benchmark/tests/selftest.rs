//! Quick self-test of the benchmark at tiny sizes: the declarations and
//! `BENCHMARK.json` agree, every declared metric comes out once and finite,
//! the phase accounting closes, the oracle catches a corrupted mesh, and the
//! outputs have the shapes the driver and `compare` read.

use benchmark::compare::{compare, Verdict};
use benchmark::json::{self, obj, Value};
use benchmark::oracle::{violations, Oracle};
use benchmark::passes::{stepped_pass, timed_pass, traced_pass, PassOptions, PassReport};
use benchmark::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use benchmark::tracer::Tracer;
use benchmark::workload::{Scale, Workload, ALL};
use samr_mesh::checkpoint::restore;
use std::sync::OnceLock;
use telemetry::Telemetry;
use topology::ProcId;

fn tiny(out_dir: Option<std::path::PathBuf>) -> PassOptions {
    PassOptions {
        scale: Scale::Tiny,
        seed: 7,
        out_dir,
    }
}

/// One traced pass per workload, shared by the tests below.
fn traced() -> &'static Vec<PassReport> {
    static REPORTS: OnceLock<Vec<PassReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        benchmark::host::pin_rayon();
        let dir = std::env::temp_dir().join(format!("samr-dlb-selftest-{}", std::process::id()));
        ALL.into_iter()
            .map(|w| traced_pass(w, &tiny(Some(dir.clone()))))
            .collect()
    })
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_is_what_the_tables_declare() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate it with `benchmark spec`"
    );
    let keys: Vec<&str> = on_disk.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        on_disk.get("per_layer").unwrap().as_array().unwrap().len(),
        71
    );
    assert_eq!(WORKLOADS.len(), 4);
    assert_eq!(END_TO_END.len(), 5);
}

#[test]
fn every_declared_metric_is_emitted_once_finite_and_well_named() {
    for report in traced() {
        let w = report.job.workload.name();
        assert_eq!(report.ops_failed, 0, "{w}: {:?}", report.violations);
        assert!(report.ops_attempted > 0);

        let names: Vec<&str> = report.end_to_end.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, END_TO_END.iter().map(|e| e.name).collect::<Vec<_>>());
        for (name, samples) in &report.end_to_end {
            assert!(!samples.0.is_empty(), "{w} {name}");
            assert!(
                samples.0.iter().all(|v| v.is_finite() && *v > 0.0),
                "{w} {name} {samples:?}"
            );
        }

        assert_eq!(report.per_layer.len(), PER_LAYER.len());
        for (metric, (name, value)) in PER_LAYER.iter().zip(&report.per_layer) {
            assert_eq!(metric.name, *name);
            assert!(well_formed(name));
            assert_eq!(value.is_some(), metric.applies.to(w), "{w} {name}");
            assert!(value.is_none_or(f64::is_finite), "{w} {name} = {value:?}");
        }
    }
}

#[test]
fn phases_and_the_unattributed_remainder_sum_to_the_wall() {
    for report in traced() {
        let layer = |name: &str| {
            report
                .per_layer
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, v)| *v)
                .unwrap()
        };
        let wall = report
            .end_to_end
            .iter()
            .find(|(n, _)| *n == "wall_s")
            .unwrap()
            .1
            .median();
        let phases: f64 = ["solve_s", "ghost_s", "regrid_s", "restrict_s", "decision_s"]
            .iter()
            .map(|p| layer(&format!("samr-engine.{p}")))
            .sum();
        let closed = phases + layer("samr-engine.unattributed_frac") * wall;
        assert!(
            (closed - wall).abs() <= 1e-9 * wall,
            "{}: {closed} vs {wall}",
            report.job.workload.name()
        );
        assert!(phases > 0.0);
    }
}

#[test]
fn the_traced_pass_writes_a_loadable_chrome_trace() {
    for report in traced() {
        let path = report.trace_file.as_ref().expect("trace file");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).expect("trace parses");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let named = |n: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(Value::as_str) == Some(n))
                .count()
        };
        assert!(named("step_once") >= report.job.sizes.steps);
        assert!(
            named("solve") >= report.job.sizes.steps,
            "synthesized phase children"
        );
        assert!(named("oracle") >= report.job.sizes.steps);
        assert!(
            named("finish") >= 1 && named("global_redistribute") >= 1 && named("to_jsonl") >= 1
        );
        for e in events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        {
            assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            assert!(e.at(&["args", "run"]).is_some() && e.at(&["args", "parent"]).is_some());
        }
    }
}

#[test]
fn driver_lines_have_exactly_the_contract_keys() {
    let check = |line: Value, names: Vec<&str>| {
        let text = line.to_compact();
        assert!(!text.contains('\n'));
        let back = json::parse(&text).unwrap();
        let keys: Vec<&str> = back.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Value::Bool(true)));
        assert!(back.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let metrics = back.get("metrics").unwrap().members();
        assert_eq!(
            metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            names
        );
        for (name, m) in metrics {
            assert!(m.get("value").unwrap().as_f64().is_some(), "{name}");
            assert!(m.get("unit").unwrap().as_str().is_some(), "{name}");
        }
    };
    let traced = &traced()[0];
    check(
        traced.driver_line(),
        PER_LAYER.iter().map(|m| m.name).collect(),
    );
    benchmark::host::pin_rayon();
    let timed = timed_pass(Workload::Amr64Lan, &tiny(None));
    assert!(
        !timed.traced && timed.per_layer.is_empty() && timed.repeats == timed.job.sizes.repeats
    );
    assert_eq!(timed.ops_failed, 0, "{:?}", timed.violations);
    check(
        timed.driver_line(),
        END_TO_END.iter().map(|e| e.name).collect(),
    );
}

#[test]
fn passes_over_the_same_seed_agree_bit_for_bit_and_seeds_differ() {
    benchmark::host::pin_rayon();
    let a = timed_pass(Workload::ShockWan, &tiny(None));
    let b = &traced()[0];
    assert_eq!(a.fingerprint, b.fingerprint);
    let mut other = tiny(None);
    other.seed = 8;
    let c = timed_pass(Workload::ShockWan, &other);
    assert_ne!(a.fingerprint.total_secs_bits, c.fingerprint.total_secs_bits);
    assert_eq!(
        a.fingerprint.cell_updates, c.fingerprint.cell_updates,
        "--seed leaves sizes alone"
    );
}

#[test]
fn a_corrupted_owner_makes_the_oracle_fail() {
    benchmark::host::pin_rayon();
    let job = Workload::ShockWan.job(Scale::Tiny, tiny(None).seed);
    let mut tracer = Tracer::default();
    let mut oracle = Oracle::default();
    let cfg = job.run_config(Telemetry::null());
    let pass = stepped_pass(&job, cfg, &mut tracer, Some(&mut oracle), true);
    assert_eq!(
        (oracle.checked, oracle.rejected),
        (job.sizes.steps as u64, 0)
    );
    let state = pass.state.expect("kept state");
    let sys = &state.mesh_sys;
    // the last step may have ended in a global redistribution, after which
    // children legitimately trail their relocated parents until the next
    // regrid: start from a copy with every child back on its parent's proc
    let settled = || {
        let mut hier = restore(&state.snapshot);
        for l in 1..hier.num_levels() {
            for id in hier.level_ids(l).to_vec() {
                let owner = hier.patch(hier.patch(id).parent.unwrap()).owner;
                hier.set_owner(id, owner);
            }
        }
        hier
    };
    assert!(violations(&restore(&state.snapshot), sys, false).is_empty());
    assert_eq!(violations(&settled(), sys, true), Vec::<String>::new());

    // an owner that does not exist
    let mut hier = settled();
    let id = hier.level_ids(0)[0];
    hier.set_owner(id, sys.nprocs() + 5);
    let found = violations(&hier, sys, true);
    assert!(
        found.iter().any(|v| v.contains("owned by proc")),
        "{found:?}"
    );
    assert!(!oracle.check(&hier, sys, false));
    assert_eq!(oracle.rejected, 1);

    // a child outside its parent's group: the paper's invariant
    let mut hier = settled();
    let child = hier.level_ids(1)[0];
    let parent = hier.patch(child).parent.unwrap();
    let parent_group = sys.group_of(ProcId(hier.patch(parent).owner));
    let stranger = (0..sys.nprocs())
        .find(|&p| sys.group_of(ProcId(p)) != parent_group)
        .unwrap();
    hier.set_owner(child, stranger);
    assert!(violations(&hier, sys, true)
        .iter()
        .any(|v| v.contains("left the group")));
    assert!(
        violations(&hier, sys, false).is_empty(),
        "tolerated right after a redistribution"
    );

    // a non-finite value
    let mut hier = settled();
    hier.patch_mut(id).fields[0].data_mut()[0] = f64::NAN;
    assert!(violations(&hier, sys, true)
        .iter()
        .any(|v| v.contains("non-finite")));
}

#[test]
fn compare_reads_what_run_all_writes() {
    let results = |scale: f64| {
        let workloads = traced()
            .iter()
            .map(|r| {
                let mut timed = r.to_json();
                if let Some(Value::Obj(metrics)) = timed.get("end_to_end").cloned() {
                    let scaled = metrics
                        .into_iter()
                        .map(|(name, mut m)| {
                            let s = m.get("samples").unwrap().as_array().unwrap().to_vec();
                            let k = if name == "wall_s" { scale } else { 1.0 };
                            let s: Vec<f64> = s.iter().map(|v| v.as_f64().unwrap() * k).collect();
                            m.set("samples", s.into());
                            (name, m)
                        })
                        .collect();
                    timed.set("end_to_end", Value::Obj(scaled));
                }
                (r.job.workload.name().to_string(), obj([("timed", timed)]))
            })
            .collect();
        obj([("workloads", Value::Obj(workloads))])
    };
    let same = compare(&results(1.0), &results(1.0));
    assert!(!same.regressed);
    assert_eq!(same.verdicts.len(), 4 * END_TO_END.len());
    assert!(same
        .verdicts
        .iter()
        .all(|(_, _, v)| matches!(v, Verdict::Same | Verdict::Unresolved)));
    assert!(same.table.contains("bit-identical"));
    let slower = compare(&results(1.0), &results(3.0));
    assert!(slower.regressed);
    assert!(slower
        .verdicts
        .iter()
        .any(|(_, m, v)| m == "wall_s" && *v == Verdict::Worse));
    // a workload that one side dropped is a regression, whichever side
    let mut short = results(1.0);
    if let Some(Value::Obj(ws)) = short.get("workloads").cloned() {
        short.set("workloads", Value::Obj(ws[1..].to_vec()));
    }
    for (a, b) in [(&results(1.0), &short), (&short, &results(1.0))] {
        let cmp = compare(a, b);
        assert!(
            cmp.regressed && cmp.table.contains("MISSING"),
            "{}",
            cmp.table
        );
    }
}

#[test]
fn a_debug_build_refuses_to_report_timings() {
    let args: Vec<String> = ["run", "--workload", "shock_wan"]
        .map(String::from)
        .to_vec();
    if benchmark::host::is_debug_build() {
        assert_eq!(benchmark::cli::main(&args), 2);
    }
    assert_eq!(benchmark::cli::main(&["frobnicate".to_string()]), 2);
}
