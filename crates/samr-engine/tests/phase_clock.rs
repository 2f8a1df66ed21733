//! One phase clock: a recording run's telemetry spans, `PhaseWall`,
//! `GhostWall` and `DlbWall` are views over the same clock reads, so they
//! agree to round-off, not merely within a few percent.

use samr_engine::{AppKind, Driver, RunConfig, Scheme};
use telemetry::Telemetry;
use topology::presets;

#[test]
fn spans_and_walls_read_one_clock() {
    // 16 groups take the reduction tree's path (more than one node)
    let (tel, sink) = Telemetry::recording_shared();
    let mut cfg = RunConfig::new(
        AppKind::Amr64,
        16,
        3,
        Scheme::Distributed(Default::default()),
    );
    cfg.max_levels = 3;
    cfg.telemetry = tel;
    let r = Driver::new(presets::federation(16, 2, 7), cfg).run();
    assert!(r.global_checks > 0, "the global phase must have run");

    let sink = sink.lock().unwrap();
    let w = r.wall;
    for (name, wall) in [
        ("solve", w.solve),
        ("ghost_exchange", w.ghost),
        ("regrid", w.regrid),
        ("restrict", w.restrict),
        ("decision", w.decision),
    ] {
        let (count, total) = sink
            .phase_histograms()
            .iter()
            .filter(|((n, _), _)| *n == name)
            .fold((0, 0.0), |(c, t), (_, h)| (c + h.count(), t + h.sum()));
        assert!(count > 0, "no {name} span");
        assert!(
            (total - wall).abs() <= 1e-9 * count as f64,
            "{name}: {count} spans total {total} s, the wall reads {wall} s"
        );
    }

    let g = r.ghost_wall;
    let parts = g.plan + g.coarse_fill + g.sibling + g.messages;
    assert!(w.ghost > 0.0);
    assert!(
        (parts - w.ghost).abs() <= 1e-12 * w.ghost,
        "{g:?} vs {}",
        w.ghost
    );

    // the scheme's clock runs inside the driver's decision phase
    let d = r.dlb_wall;
    assert!(
        d.local_dlb >= 0.0 && d.decide > 0.0 && d.migrate >= 0.0,
        "{d:?}"
    );
    assert!(
        d.local_dlb + d.decide + d.migrate <= w.decision,
        "{d:?} vs {}",
        w.decision
    );
}

/// `Driver::new`'s regrid cascade runs on the phase clock and `run` resets
/// it: right after `new` the clock holds the cascade's ghost exchanges and
/// regrids and nothing else (the point the `hotpath` bench reads its
/// `setup_phases` at), and a run of no steps reports no host time at all.
#[test]
fn the_setup_cascade_is_on_the_clock_until_run_resets_it() {
    let mut cfg = RunConfig::new(AppKind::ShockPool3D, 16, 0, Scheme::distributed_default());
    cfg.max_levels = 3;
    let d = Driver::new(presets::anl_ncsa_wan(2, 2, 11), cfg);
    assert!(d.hierarchy().num_levels() >= 2, "the cascade refined nothing");
    let w = d.phase_wall();
    assert!(w.ghost > 0.0 && w.regrid > 0.0, "set-up off the clock: {w:?}");
    assert_eq!((w.solve, w.restrict, w.decision), (0.0, 0.0, 0.0), "{w:?}");
    assert_eq!(d.run().wall, metrics::PhaseWall::default());
}
