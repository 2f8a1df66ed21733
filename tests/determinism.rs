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

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What the clone-based PR-0 data path (a `RunConfig` option until PR 24
/// removed it) produced for a preset at the last commit that had it, where
/// the optimized path produced the same: hash of the trace CSV, hash of
/// every patch's field bits level-major in id order, the fingerprint and the
/// peak patch count. Equal under 1 and 2 threads and on both Euler lane
/// widths. When this fails, the per-phase oracles in `samr-engine` (driver
/// and app unit tests) and the golden kernel pins say which phase moved.
struct Pin {
    trace: u64,
    fields: u64,
    fingerprint: (u64, u64, u64, usize, usize),
    peak_patches: usize,
}

#[test]
fn optimized_datapath_is_bit_identical_to_reference() {
    let pins = [
        (
            AppKind::ShockPool3D,
            Pin {
                trace: 0xd2690246fb8f2187,
                fields: 0x173b60875a1d93df,
                fingerprint: (4620911762537188014, 592336, 1626560, 46, 2),
                peak_patches: 68,
            },
        ),
        (
            AppKind::Amr64,
            Pin {
                trace: 0x416e9d4d00b7d1a7,
                fields: 0xdb8710e84bd17979,
                fingerprint: (4598885732894849878, 50192, 98304, 101, 0),
                peak_patches: 101,
            },
        ),
    ];
    for (app, pin) in pins {
        let sys = match app {
            AppKind::Amr64 => presets::anl_lan_pair(2, 2, 11),
            _ => presets::anl_ncsa_wan(2, 2, 11),
        };
        let mut cfg = RunConfig::new(app, 16, 3, Scheme::distributed_default());
        cfg.max_levels = 3;
        let mut cfg = RunConfig::new(app, 16, 3, Scheme::distributed_default());
        cfg.max_levels = 3;
        pin.check(&format!("{app:?}"), Driver::new(sys, cfg));
    }
}

impl Pin {
    /// Drive `d` three steps — step by step, so the trace and the final
    /// field data survive — and compare what it left with the pin.
    fn check(&self, what: &str, mut d: Driver) {
        for _ in 0..3 {
            d.step_once();
        }
        let trace = fnv1a(FNV_OFFSET, d.trace().to_csv().as_bytes());
        let h = d.hierarchy();
        let fields = (0..h.num_levels())
            .flat_map(|l| h.level_ids(l))
            .flat_map(|&id| &h.patch(id).fields)
            .flat_map(|f| f.data())
            .fold(FNV_OFFSET, |hash, v| {
                fnv1a(hash, &v.to_bits().to_le_bytes())
            });
        let res = d.finish();
        assert_eq!(trace, self.trace, "{what}: trace moved ({trace:#018x})");
        assert_eq!(
            fields, self.fields,
            "{what}: field data moved ({fields:#018x})"
        );
        assert_eq!(
            fingerprint(&res),
            self.fingerprint,
            "{what}: result moved ({:?}, peak {})",
            fingerprint(&res),
            res.peak_patches
        );
        assert_eq!(res.peak_patches, self.peak_patches, "{what}");
    }
}

/// A whole Amr64 run on many patches: level 0 cut over 32 procs, its
/// particles flagged patch by patch, and regrids whose new levels fill in
/// many waves. Recorded before either changed; equal under 1 and 2 threads.
#[test]
fn many_patch_amr64_run_is_pinned_across_thread_counts() {
    let pin = Pin {
        trace: 0xc33507154e71cf01,
        fields: 0xe2cba2d4af5bf61c,
        fingerprint: (4607776079375758512, 408608, 13050736, 257, 2),
        peak_patches: 257,
    };
    for threads in [1, 2] {
        par::with_threads(threads, || {
            let mut cfg = RunConfig::new(AppKind::Amr64, 32, 3, Scheme::distributed_default());
            cfg.max_levels = 3;
            cfg.max_box_cells = 512;
            let d = Driver::new(presets::federation(16, 2, 7), cfg);
            pin.check(&format!("threads={threads}"), d);
        });
    }
}

/// Level 0 as `Driver::new` leaves it when it is cut into many patches, so
/// the initial fill runs as many pool tasks: FNV-1a of every level-0 field
/// bit, in id order, for Amr64 over 32 procs (n0 = 32, where the Gaussian
/// wells' skip radius is ~14.7 cells). Recorded before level 0 was filled
/// on the pool; the same under 1 and 2 threads.
#[test]
fn level0_setup_is_pinned_across_thread_counts() {
    const PINNED: u64 = 0x89f9e7fa7303fda2;
    let level0 = || {
        let mut cfg = RunConfig::new(AppKind::Amr64, 32, 1, Scheme::distributed_default());
        cfg.max_levels = 2;
        cfg.max_box_cells = 512;
        let d = Driver::new(presets::federation(16, 2, 7), cfg);
        let h = d.hierarchy();
        assert_eq!(h.level_ids(0).len(), 32, "one level-0 patch per proc");
        h.level_ids(0)
            .iter()
            .flat_map(|&id| &h.patch(id).fields)
            .flat_map(|f| f.data())
            .fold(FNV_OFFSET, |hash, v| {
                fnv1a(hash, &v.to_bits().to_le_bytes())
            })
    };
    for threads in [1, 2] {
        let hash = par::with_threads(threads, level0);
        assert_eq!(
            hash, PINNED,
            "threads={threads}: level 0 moved ({hash:#018x})"
        );
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
