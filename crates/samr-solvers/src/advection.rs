//! Linear advection: first-order upwind with optional minmod-limited slopes.
//! A cheap scalar solver used by tests and the quickstart example.

use crate::checked_capacity;
use samr_mesh::field::Field3;
use samr_mesh::index::{ivec3, IVec3};
use samr_mesh::pool::FieldPool;

/// Minmod limiter.
#[inline]
pub fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// Lane width of the row kernel's `chunks_exact` blocks. Wide enough for
/// the autovectorizer to pack full AVX2/AVX-512 registers, small enough
/// that short z-rows still mostly run in lanes.
const LANE: usize = 8;

/// The per-cell upwind flux difference `c · (f_hi − f_lo)` along one axis,
/// from the five-point stencil values along that axis. The caller subtracts
/// it from the accumulated update. Shared verbatim by the row kernel and
/// the reference step so they stay bit-identical by construction.
#[inline]
fn axis_increment(c: f64, limited: bool, umm: f64, um: f64, u0: f64, up: f64, upp: f64) -> f64 {
    assert!(c.abs() <= 1.0, "CFL violation: {c}");
    // upwind face values with optional limited correction
    let (f_lo, f_hi) = if c > 0.0 {
        let slope_m = if limited { minmod(u0 - um, um - umm) } else { 0.0 };
        let slope_0 = if limited { minmod(up - u0, u0 - um) } else { 0.0 };
        (
            um + 0.5 * (1.0 - c) * slope_m,
            u0 + 0.5 * (1.0 - c) * slope_0,
        )
    } else {
        let slope_p = if limited { minmod(upp - up, up - u0) } else { 0.0 };
        let slope_0 = if limited { minmod(up - u0, u0 - um) } else { 0.0 };
        (
            u0 - 0.5 * (1.0 + c) * slope_0,
            up - 0.5 * (1.0 + c) * slope_p,
        )
    };
    c * (f_hi - f_lo)
}

/// The per-cell upwind update: the new value of `f` at `p`. Point-stencil
/// composition of [`axis_increment`]; the row kernel computes the same
/// per-cell sequence over whole rows.
#[inline]
fn updated_value(f: &Field3, p: IVec3, courant: [f64; 3], limited: bool) -> f64 {
    let mut du = 0.0;
    for (axis, &c) in courant.iter().enumerate() {
        if c == 0.0 {
            continue;
        }
        let dir = match axis {
            0 => ivec3(1, 0, 0),
            1 => ivec3(0, 1, 0),
            _ => ivec3(0, 0, 1),
        };
        du -= axis_increment(
            c,
            limited,
            f.get(p - dir - dir),
            f.get(p - dir),
            f.get(p),
            f.get(p + dir),
            f.get(p + dir + dir),
        );
    }
    f.get(p) + du
}

/// One axis' contribution over a stride-1 z-row: `du[j] -= axis_increment`
/// elementwise. The five neighbour rows arrive pre-sliced to the row length
/// (bounds checks hoisted to the slicing), and the body runs `chunks_exact`
/// lanes with a scalar remainder so the compiler can keep the lane loop
/// branch-free per element and autovectorize it.
#[allow(clippy::too_many_arguments)]
fn axis_pass(
    du: &mut [f64],
    umm: &[f64],
    um: &[f64],
    u0: &[f64],
    up: &[f64],
    upp: &[f64],
    c: f64,
    limited: bool,
) {
    let n = du.len();
    debug_assert!(
        umm.len() == n && um.len() == n && u0.len() == n && up.len() == n && upp.len() == n
    );
    let lanes = umm
        .chunks_exact(LANE)
        .zip(um.chunks_exact(LANE))
        .zip(u0.chunks_exact(LANE))
        .zip(up.chunks_exact(LANE))
        .zip(upp.chunks_exact(LANE));
    for (d, ((((a, b), u), p), q)) in du.chunks_exact_mut(LANE).zip(lanes) {
        for j in 0..LANE {
            d[j] -= axis_increment(c, limited, a[j], b[j], u[j], p[j], q[j]);
        }
    }
    for j in (n - n % LANE)..n {
        du[j] -= axis_increment(c, limited, umm[j], um[j], u0[j], up[j], upp[j]);
    }
}

/// One advection step of field `f` with constant velocity `v` (cells/step
/// fractions as `v · dt/dx` per axis, each must satisfy |c| ≤ 1). Second
/// order in smooth regions via minmod-limited fluxes. Ghosts (width ≥ 2 on
/// each active axis) must be filled beforehand.
///
/// Double-buffered through `pool`: new values stream row-wise into one
/// ghost-0 scratch field drawn from it, then its interior is copied back —
/// no per-call update-list allocation. Each interior z-row is processed as
/// a stride-1 pass per active axis ([`axis_pass`]), accumulating into a
/// row of flux differences in the same per-cell order as the reference,
/// so the result is bit-identical to [`reference::advect_step`].
pub fn advect_step(f: &mut Field3, courant: [f64; 3], limited: bool, pool: &FieldPool) {
    let interior = f.interior();
    let sto = f.storage_region();
    let mut scratch = Field3::new_in(pool, interior, 0);
    let n = (interior.hi.z - interior.lo.z) as usize;
    let mut du = pool.acquire(n);
    {
        let d = f.data();
        let out_region = scratch.storage_region();
        let out = scratch.data_mut();
        let sz = (sto.hi.z - sto.lo.z) as usize;
        let strides = [(sto.hi.y - sto.lo.y) as usize * sz, sz, 1usize];
        for x in interior.lo.x..interior.hi.x {
            for y in interior.lo.y..interior.hi.y {
                let i0 = sto.linear_index(ivec3(x, y, interior.lo.z));
                let o0 = out_region.linear_index(ivec3(x, y, interior.lo.z));
                du.fill(0.0);
                for (axis, &c) in courant.iter().enumerate() {
                    if c == 0.0 {
                        continue;
                    }
                    let s = strides[axis];
                    axis_pass(
                        &mut du,
                        &d[i0 - 2 * s..i0 - 2 * s + n],
                        &d[i0 - s..i0 - s + n],
                        &d[i0..i0 + n],
                        &d[i0 + s..i0 + s + n],
                        &d[i0 + 2 * s..i0 + 2 * s + n],
                        c,
                        limited,
                    );
                }
                let u0 = &d[i0..i0 + n];
                let orow = &mut out[o0..o0 + n];
                for j in 0..n {
                    orow[j] = u0[j] + du[j];
                }
            }
        }
    }
    f.copy_from(&scratch, &interior);
}

/// Update-list form retained as a bit-identity oracle (see
/// [`crate::euler::reference`]).
pub mod reference {
    use super::*;

    /// Reference for [`super::advect_step`].
    pub fn advect_step(f: &mut Field3, courant: [f64; 3], limited: bool) {
        let interior = f.interior();
        let mut updates = Vec::with_capacity(checked_capacity(interior.cells()));
        for p in interior.iter_cells() {
            updates.push((p, updated_value(f, p, courant, limited)));
        }
        for (p, v) in updates {
            f.set(p, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_mesh::region::Region;

    #[test]
    fn minmod_properties() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-3.0, -2.0), -2.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }

    #[test]
    fn in_place_step_matches_reference_bitwise() {
        let pool = FieldPool::new();
        for limited in [false, true] {
            let mut a = Field3::zeros(Region::cube(10), 2);
            // deterministic irregular data
            let mut s = 42u64;
            for v in a.data_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            }
            let mut b = a.clone();
            for _ in 0..3 {
                a.fill_ghosts_zero_gradient();
                advect_step(&mut a, [0.4, -0.3, 0.2], limited, &pool);
                b.fill_ghosts_zero_gradient();
                reference::advect_step(&mut b, [0.4, -0.3, 0.2], limited);
            }
            let bits = |f: &Field3| -> Vec<u64> { f.data().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(bits(&a), bits(&b), "limited={limited}");
        }
    }

    #[test]
    fn constant_field_unchanged() {
        let mut f = Field3::constant(Region::cube(6), 2, 3.0);
        advect_step(&mut f, [0.5, 0.25, 0.1], true, &FieldPool::new());
        for p in Region::cube(6).iter_cells() {
            assert!((f.get(p) - 3.0).abs() < 1e-14);
        }
    }

    #[test]
    fn unit_courant_shifts_exactly() {
        // c = 1 upwind is exact translation by one cell
        let mut f = Field3::zeros(Region::cube(8), 2);
        f.set(ivec3(3, 4, 4), 1.0);
        f.fill_ghosts_zero_gradient();
        advect_step(&mut f, [1.0, 0.0, 0.0], false, &FieldPool::new());
        assert!((f.get(ivec3(4, 4, 4)) - 1.0).abs() < 1e-14);
        assert!(f.get(ivec3(3, 4, 4)).abs() < 1e-14);
    }

    #[test]
    fn mass_conserved_away_from_boundary() {
        let mut f = Field3::zeros(Region::cube(12), 2);
        for p in samr_mesh::region(ivec3(4, 4, 4), ivec3(7, 7, 7)).iter_cells() {
            f.set(p, 2.0);
        }
        let pool = FieldPool::new();
        let before = f.interior_sum();
        for _ in 0..3 {
            f.fill_ghosts_zero_gradient();
            advect_step(&mut f, [0.4, 0.0, 0.0], true, &pool);
        }
        let after = f.interior_sum();
        assert!((before - after).abs() < 1e-10, "{before} vs {after}");
    }

    #[test]
    fn blob_moves_downstream() {
        let mut f = Field3::zeros(Region::cube(12), 2);
        f.set(ivec3(2, 6, 6), 1.0);
        let center_of_mass_x = |f: &Field3| {
            let mut m = 0.0;
            let mut mx = 0.0;
            for p in Region::cube(12).iter_cells() {
                m += f.get(p);
                mx += f.get(p) * p.x as f64;
            }
            mx / m
        };
        let pool = FieldPool::new();
        let x0 = center_of_mass_x(&f);
        for _ in 0..5 {
            f.fill_ghosts_zero_gradient();
            advect_step(&mut f, [0.5, 0.0, 0.0], true, &pool);
        }
        let x1 = center_of_mass_x(&f);
        assert!((x1 - x0 - 2.5).abs() < 0.1, "moved {}", x1 - x0);
    }

    #[test]
    #[should_panic]
    fn cfl_violation_panics() {
        let mut f = Field3::zeros(Region::cube(4), 2);
        advect_step(&mut f, [1.5, 0.0, 0.0], false, &FieldPool::new());
    }
}
