//! Configuration fuzzing: any sane combination of app, scheme, system shape
//! and seed must run to completion with invariants intact.

use base::prop;
use samr_engine::{AppKind, Driver, RunConfig, Scheme};
use topology::presets;

#[test]
fn any_sane_config_runs() {
    prop::check(
        12,
        |g| {
            (
                g.pick(&[AppKind::ShockPool3D, AppKind::Amr64, AppKind::AdvectBlob]),
                g.usize(0..3),
                g.usize(1..3),
                g.usize(1..3),
                g.u64(0..1000),
                g.f64(0.0..8.0),
                g.usize(1..3),
            )
        },
        |(app, scheme_ix, na, nb, seed, gamma, steps)| {
            let scheme = match scheme_ix {
                0 => Scheme::Static,
                1 => Scheme::Parallel,
                _ => Scheme::Distributed(dlb::DistributedDlbConfig {
                    gamma,
                    ..Default::default()
                }),
            };
            let sys = presets::anl_ncsa_wan(na, nb, seed);
            let mut cfg = RunConfig::new(app, 8, steps, scheme);
            cfg.max_levels = 2;
            cfg.seed = seed;
            let mut d = Driver::new(sys, cfg);
            for _ in 0..steps {
                d.step_once();
                assert!(d.hierarchy().check_invariants().is_ok());
            }
            let r = d.finish();
            assert!(r.total_secs.is_finite() && r.total_secs > 0.0);
            assert!(r.cell_updates > 0);
        },
    );
}
