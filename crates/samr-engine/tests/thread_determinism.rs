//! Row kernels must not make results depend on the number of pool workers
//! or their scheduling: every scratch buffer arrives zero-filled, and every
//! parallel loop writes disjoint per-patch state. A run's observable
//! fingerprint therefore has to be identical under 1, 2, 4 and 8 threads.

use samr_engine::{AppKind, Driver, RunConfig, Scheme};
use topology::presets;

type Fingerprint = (u64, u64, u64, usize, usize, usize);

fn run_with_threads(app: AppKind, threads: usize) -> Fingerprint {
    fingerprint_with_threads(threads, || {
        let mut cfg = RunConfig::new(app, 16, 3, Scheme::distributed_default());
        cfg.max_levels = 3;
        Driver::new(presets::anl_ncsa_wan(2, 2, 11), cfg)
    })
}

fn fingerprint_with_threads(threads: usize, driver: impl FnOnce() -> Driver) -> Fingerprint {
    let r = par::with_threads(threads, || driver().run());
    (
        r.total_secs.to_bits(),
        r.cell_updates,
        r.breakdown.remote_bytes,
        r.final_patches,
        r.peak_patches,
        r.global_redistributions,
    )
}

#[test]
fn shockpool_fingerprint_identical_under_1_2_4_8_threads() {
    let one = run_with_threads(AppKind::ShockPool3D, 1);
    for threads in [2, 4, 8] {
        assert_eq!(
            run_with_threads(AppKind::ShockPool3D, threads),
            one,
            "threads={threads}"
        );
    }
}

#[test]
fn amr64_fingerprint_identical_under_1_2_4_8_threads() {
    // AMR64 exercises every solver the engine has (Euler + Poisson) plus
    // the particle deposit on the flagging path
    let one = run_with_threads(AppKind::Amr64, 1);
    for threads in [2, 4, 8] {
        assert_eq!(
            run_with_threads(AppKind::Amr64, threads),
            one,
            "threads={threads}"
        );
    }
}

/// Many small patches on a federation: levels of several blocks of
/// destinations, so the exchange plan is built by concurrent tasks and the
/// sibling copy runs rounds of concurrent blocks — the paths the 4-processor
/// presets above are too small to reach.
fn many_small_patches() -> Driver {
    let mut cfg = RunConfig::new(AppKind::Amr64, 32, 2, Scheme::distributed_default());
    cfg.max_levels = 2;
    cfg.max_box_cells = 512;
    Driver::new(presets::federation(8, 16, 7), cfg)
}

#[test]
fn many_small_patches_fingerprint_identical_under_1_2_4_8_threads() {
    let d = many_small_patches();
    for level in 0..2 {
        let plan = samr_mesh::hierarchy::reference::exchange_topology(d.hierarchy(), level);
        assert!(
            plan.rounds.iter().filter(|r| r.len() >= 2).count() >= 2,
            "level {level}: {} patches in rounds {:?} never run two blocks at once",
            plan.shells.len(),
            plan.rounds
        );
    }
    let one = fingerprint_with_threads(1, many_small_patches);
    for threads in [2, 4, 8] {
        assert_eq!(
            fingerprint_with_threads(threads, many_small_patches),
            one,
            "threads={threads}"
        );
    }
}
