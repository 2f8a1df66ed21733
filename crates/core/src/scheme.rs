//! The load-balancer interface the SAMR driver invokes, matching the two
//! hook points of the paper's flowchart (Fig. 4): *after each level step*
//! (balance) and *at regrid* (placement of newly created grids).

use crate::history::WorkloadHistory;
use samr_mesh::hierarchy::GridHierarchy;
use simnet::{SimResult, SimView};
use topology::DistributedSystem;

/// Mutable state handed to a balancer after a level step. The simulator is
/// a [`SimView`] so the same scheme code runs both standalone (a view that
/// owns its substrate) and as a tenant of a shared substrate.
pub struct LbContext<'a> {
    pub hier: &'a mut GridHierarchy,
    pub sim: &'a mut SimView,
    pub history: &'a mut WorkloadHistory,
}

/// A dynamic load-balancing scheme.
pub trait LoadBalancer {
    /// Scheme name for reports ("parallel DLB", "distributed DLB").
    fn name(&self) -> &'static str;

    /// Invoked after each completed timestep at `level` (level 0 included).
    /// This is where grids migrate. Communication and migration costs must
    /// be charged to `ctx.sim`.
    ///
    /// Returns `Err` only when the scheme could not leave the hierarchy in
    /// a consistent state (a fault-tolerant scheme absorbs link failures
    /// itself — degrading, retrying, or rolling back — and still returns
    /// `Ok`).
    fn after_level_step(&mut self, ctx: LbContext<'_>, level: usize) -> SimResult<()>;

    /// Choose owners for a batch of grids about to be created at `level`
    /// during regridding. `parents[i]` is the owner of grid `i`'s parent and
    /// `sizes[i]` its cell count. Returns one owner per grid.
    ///
    /// The driver charges the prolongation traffic (parent → chosen owner)
    /// afterwards, so placements that scatter children away from their
    /// parents pay for it — across the WAN if need be.
    fn place_new_patches(
        &mut self,
        hier: &GridHierarchy,
        sys: &DistributedSystem,
        level: usize,
        parents: &[usize],
        sizes: &[i64],
    ) -> Vec<usize>;
}

/// Current total cells owned by each processor across all levels — the load
/// baseline used when placing freshly created grids.
pub fn proc_total_cells(hier: &GridHierarchy, nprocs: usize) -> Vec<i64> {
    let mut v = vec![0i64; nprocs];
    for p in hier.iter() {
        v[p.owner] += p.cells();
    }
    v
}
