//! Every run must be a pure function of (app, system, scheme, seed) —
//! including across host thread counts, since the worker pool only parallelizes
//! independent per-patch numerics.

use samr_dlb::prelude::*;
use samr_engine::Scheme;

fn run_result() -> samr_engine::RunResult {
    let sys = presets::anl_ncsa_wan(2, 2, 11);
    let mut cfg = RunConfig::new(AppKind::ShockPool3D, 16, 3, Scheme::distributed_default());
    cfg.max_levels = 3;
    Driver::new(sys, cfg).run()
}

fn fingerprint(r: &samr_engine::RunResult) -> (u64, u64, u64, usize, usize) {
    (
        r.total_secs.to_bits(),
        r.cell_updates,
        r.breakdown.remote_bytes,
        r.final_patches,
        r.global_redistributions,
    )
}

#[test]
fn identical_runs_identical_results() {
    assert_eq!(fingerprint(&run_result()), fingerprint(&run_result()));
}

/// Drive a run step by step so the trace and the final field data survive
/// for comparison, on either the optimized or the reference data path.
fn traced(
    app: AppKind,
    reference: bool,
) -> (String, Vec<Vec<Vec<u64>>>, samr_engine::RunResult) {
    let sys = match app {
        AppKind::Amr64 => presets::anl_lan_pair(2, 2, 11),
        _ => presets::anl_ncsa_wan(2, 2, 11),
    };
    let mut cfg = RunConfig::new(app, 16, 3, Scheme::distributed_default());
    cfg.max_levels = 3;
    cfg.reference_datapath = reference;
    let mut d = Driver::new(sys, cfg);
    for _ in 0..3 {
        d.step_once();
    }
    let csv = d.trace().to_csv();
    // field contents of every patch, level-major in id order, as raw bits
    let mut fields = Vec::new();
    for l in 0..d.hierarchy().num_levels() {
        for &id in d.hierarchy().level_ids(l) {
            let p = d.hierarchy().patch(id);
            fields.push(
                p.fields
                    .iter()
                    .map(|f| f.data().iter().map(|v| v.to_bits()).collect())
                    .collect(),
            );
        }
    }
    (csv, fields, d.finish())
}

#[test]
fn optimized_datapath_is_bit_identical_to_reference() {
    for app in [AppKind::ShockPool3D, AppKind::Amr64] {
        let (csv_o, fields_o, res_o) = traced(app, false);
        let (csv_r, fields_r, res_r) = traced(app, true);
        assert_eq!(csv_o, csv_r, "{app:?}: traces must match bitwise");
        assert_eq!(fields_o, fields_r, "{app:?}: field data must match bitwise");
        assert_eq!(
            fingerprint(&res_o),
            fingerprint(&res_r),
            "{app:?}: results must match bitwise"
        );
        assert_eq!(res_o.peak_patches, res_r.peak_patches);
    }
}

#[test]
fn recording_telemetry_is_bit_identical_to_null() {
    let mk = |tel: Telemetry| {
        let sys = presets::anl_ncsa_wan(2, 2, 11);
        let mut cfg = RunConfig::new(AppKind::ShockPool3D, 16, 3, Scheme::distributed_default());
        cfg.max_levels = 3;
        cfg.telemetry = tel;
        Driver::new(sys, cfg).run()
    };
    let null = mk(Telemetry::null());
    let (tel, sink) = Telemetry::recording_shared();
    let rec = mk(tel);
    assert_eq!(
        fingerprint(&null),
        fingerprint(&rec),
        "recording telemetry must be pure observation"
    );
    assert_eq!(null.peak_patches, rec.peak_patches);
    // and it did actually record: the engine's own counters reappear as
    // eviction-proof sink counts
    let sink = sink.lock().unwrap();
    let counts = sink.counts();
    assert_eq!(counts.gates, rec.global_checks as u64);
    assert_eq!(counts.gate_accepts, rec.global_redistributions as u64);
    assert!(rec.telemetry_summary.is_some());
    assert!(null.telemetry_summary.is_none());
    // the metrics layer rode along: per-step gauges were sampled on
    // simulated time without perturbing the fingerprint above
    let imb = sink
        .metric("imbalance")
        .expect("driver samples the imbalance gauge when recording");
    assert!(imb.observed() >= 3, "one sample per level-0 step");
    assert!(imb.min() >= 1.0, "max/mean imbalance is at least 1");
}

/// Metric series on simulated time are pure functions of the run: two
/// recording runs retain bit-identical points, and the online anomaly
/// detectors (fed by those series and the event stream) fire identically.
/// Pool occupancy gauges are excluded — which physical buffer serves a
/// request is host-scheduling-dependent by design.
#[test]
fn metric_series_and_anomalies_replay_bit_for_bit() {
    let record = || {
        let sys = presets::anl_ncsa_wan(2, 2, 11);
        let mut cfg = RunConfig::new(AppKind::ShockPool3D, 16, 3, Scheme::distributed_default());
        cfg.max_levels = 3;
        let (tel, sink) = Telemetry::recording_shared();
        cfg.telemetry = tel;
        let res = Driver::new(sys, cfg).run();
        (res, sink)
    };
    let (ra, sa) = record();
    let (rb, sb) = record();
    assert_eq!(fingerprint(&ra), fingerprint(&rb));
    let sa = sa.lock().unwrap();
    let sb = sb.lock().unwrap();
    let deterministic = |m: &std::collections::BTreeMap<String, telemetry::MetricSeries>| {
        m.iter()
            .filter(|(name, _)| !name.starts_with("pool_"))
            .map(|(name, s)| {
                let bits: Vec<(u64, u64)> = s
                    .points()
                    .iter()
                    .map(|(t, v)| (t.to_bits(), v.to_bits()))
                    .collect();
                (name.clone(), s.observed(), s.stride(), bits)
            })
            .collect::<Vec<_>>()
    };
    let (da, db) = (deterministic(sa.metrics()), deterministic(sb.metrics()));
    assert!(!da.is_empty(), "recording runs sample metric series");
    assert_eq!(da, db, "sim-time metric series must replay bit-for-bit");
    assert_eq!(
        sa.anomaly_tally(),
        sb.anomaly_tally(),
        "anomaly detectors must fire identically across identical runs"
    );
    assert_eq!(sa.counts().anomalies, sb.counts().anomalies);
}

#[test]
fn thread_count_does_not_change_results() {
    let one = fingerprint(&par::with_threads(1, run_result));
    for threads in [2, 4, 8] {
        let many = par::with_threads(threads, run_result);
        assert_eq!(fingerprint(&many), one, "threads={threads}");
    }
}

#[test]
fn predictive_scheme_is_deterministic() {
    let mk = || {
        let sys = presets::anl_ncsa_wan(2, 2, 11);
        let mut cfg = RunConfig::new(
            AppKind::ShockPool3D,
            16,
            3,
            Scheme::distributed_predictive(20011110),
        );
        cfg.max_levels = 3;
        Driver::new(sys, cfg).run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(fingerprint(&a), fingerprint(&b));
    // the forecast bookkeeping (MAE, scored samples, proactive counters)
    // must replay bit-for-bit too
    assert_eq!(a.forecast, b.forecast);
    assert!(a.forecast.load_mae >= 0.0 && a.forecast.load_mae.is_finite());
}

#[test]
fn forecast_seed_changes_tie_breaks_not_physics() {
    let mk = |forecast_seed| {
        let sys = presets::anl_ncsa_wan(2, 2, 11);
        let mut cfg = RunConfig::new(
            AppKind::ShockPool3D,
            16,
            3,
            Scheme::distributed_predictive(forecast_seed),
        );
        cfg.max_levels = 3;
        Driver::new(sys, cfg).run()
    };
    let a = mk(1);
    let b = mk(2);
    assert_eq!(a.cell_updates, b.cell_updates, "physics identical");
}

#[test]
fn different_seeds_different_amr64_runs() {
    let mk = |seed| {
        let sys = presets::anl_lan_pair(2, 2, 11);
        let mut cfg = RunConfig::new(AppKind::Amr64, 16, 2, Scheme::distributed_default());
        cfg.max_levels = 3;
        cfg.seed = seed;
        Driver::new(sys, cfg).run()
    };
    let a = mk(1);
    let b = mk(2);
    // different initial blobs -> different hierarchies and workloads
    assert_ne!(a.cell_updates, b.cell_updates);
}

#[test]
fn traffic_seed_changes_timing_not_physics() {
    let mk = |traffic_seed| {
        let sys = presets::anl_ncsa_wan(2, 2, traffic_seed);
        let mut cfg = RunConfig::new(AppKind::ShockPool3D, 16, 3, Scheme::Parallel);
        cfg.max_levels = 3;
        Driver::new(sys, cfg).run()
    };
    let a = mk(1);
    let b = mk(99);
    assert_eq!(a.cell_updates, b.cell_updates, "physics identical");
    assert_ne!(
        a.total_secs.to_bits(),
        b.total_secs.to_bits(),
        "timing feels different background traffic"
    );
}
