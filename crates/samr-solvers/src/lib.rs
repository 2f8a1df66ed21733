//! # samr-solvers — numerical kernels for the SAMR substrate
//!
//! Real numerics (not cost stubs) so the grid hierarchy adapts the way the
//! paper's datasets do:
//!
//! * [`euler`] — 3-D compressible Euler with HLL fluxes: the hyperbolic
//!   solver behind `ShockPool3D` (tilted planar shock) and the fluid half of
//!   `AMR64`.
//! * [`advection`] — scalar linear advection (upwind/minmod), used by tests
//!   and the quickstart.
//! * [`poisson`] — red-black Gauss–Seidel relaxation for `∇²φ = ρ`, the
//!   elliptic half of `AMR64`.
//! * [`particles`] — leapfrog particle trajectories with NGP deposition,
//!   `AMR64`'s ODE component.
//!
//! The driver runs these kernels over a level's patches on the worker pool;
//! simulated timing is charged separately, so real parallelism only shortens
//! wall-clock time, never changes results.

#![deny(unsafe_code)]

// Fixed-axis (0..3) loops indexing several parallel arrays read more
// clearly as index loops.
#![allow(clippy::needless_range_loop)]

pub mod advection;
pub mod euler;
pub mod particles;
pub mod poisson;

pub use particles::{Particle, ParticleSet};

/// Convert a region cell count (`i64`, non-negative by construction) into a
/// `usize` buffer capacity, panicking instead of silently truncating when
/// the count does not fit the address space (e.g. a pathological region on a
/// 32-bit target). Shared by the solvers' update-list reference paths.
#[inline]
pub fn checked_capacity(cells: i64) -> usize {
    usize::try_from(cells)
        .unwrap_or_else(|_| panic!("cell count {cells} does not fit in usize"))
}
