//! The direct ghost exchange must not stage any buffer at all: parent
//! prolongation reads the coarser level in place and sibling windows are
//! copied source→destination with only the destination's fields taken out.

use samr_engine::{AppKind, Driver, RunConfig, Scheme};
use topology::presets;

#[test]
fn ghost_exchange_stages_no_buffers() {
    let mut cfg = RunConfig::new(AppKind::ShockPool3D, 16, 3, Scheme::distributed_default());
    cfg.max_levels = 3;
    let mut d = Driver::new(presets::anl_ncsa_wan(2, 2, 11), cfg);
    for _ in 0..3 {
        d.step_once();
    }
    // nothing is staged: an exchange by itself draws no buffer from the
    // field pool (window slabs, were they to come back, would)
    let before = d.hierarchy().pool().stats();
    for level in 0..d.hierarchy().num_levels() {
        d.exchange_ghosts(level);
    }
    let after = d.hierarchy().pool().stats();
    assert_eq!(
        (after.hits, after.misses),
        (before.hits, before.misses),
        "direct exchange must not acquire staging buffers"
    );
}
