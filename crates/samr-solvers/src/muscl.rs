//! Second-order MUSCL–Hancock extension of the Euler solver: minmod-limited
//! piecewise-linear reconstruction with a half-step predictor, falling back
//! to the same HLL Riemann flux.
//!
//! Needs ghost width ≥ 2. Used where solution quality matters more than
//! speed; the driver's default remains the first-order scheme (the DLB
//! behaviour depends on workload dynamics, not numerics order).

use crate::advection::minmod;
use crate::checked_capacity;
use crate::euler::{
    apply_floors, flux_difference_update, for_each_line, hll_flux, load, store, Cons, NFIELDS,
};
use samr_mesh::field::Field3;
use samr_mesh::index::IVec3;
use samr_mesh::pool::FieldAlloc;
use samr_mesh::region::Region;

/// The per-cell MUSCL–Hancock reconstruction: minmod-limited edge states of
/// the cell with state `u0` (neighbours `um`/`up` along the sweep axis),
/// advanced by the half-step predictor. Returns (low-side, high-side) edge
/// states. Shared verbatim by the line kernel and the reference sweep so
/// they stay bit-identical by construction.
#[inline]
pub(crate) fn edge_states(
    um: &Cons,
    u0: &Cons,
    up: &Cons,
    axis: usize,
    dt_over_dx: f64,
    gamma: f64,
) -> (Cons, Cons) {
    let um = um.to_array();
    let u = u0.to_array();
    let up = up.to_array();
    let mut ul = [0.0; NFIELDS]; // low-side edge
    let mut uh = [0.0; NFIELDS]; // high-side edge
    for k in 0..NFIELDS {
        let s = minmod(u[k] - um[k], up[k] - u[k]);
        ul[k] = u[k] - 0.5 * s;
        uh[k] = u[k] + 0.5 * s;
    }
    // half-step predictor: u_edge += dt/2dx (F(ul) − F(uh))
    let fl = Cons::from_array(ul).flux(axis, gamma);
    let fh = Cons::from_array(uh).flux(axis, gamma);
    for k in 0..NFIELDS {
        let corr = 0.5 * dt_over_dx * (fl[k] - fh[k]);
        ul[k] += corr;
        uh[k] += corr;
    }
    (Cons::from_array(ul), Cons::from_array(uh))
}

/// The per-cell MUSCL–Hancock flux-difference update: the evolved conserved
/// state at `p`, before floors. Used by the reference sweep; the line kernel
/// computes the same composition of [`edge_states`], [`hll_flux`] and
/// [`flux_difference_update`] with rolling registers.
fn updated_state(
    fieldset: &[Field3],
    p: IVec3,
    dir: IVec3,
    axis: usize,
    dt_over_dx: f64,
    gamma: f64,
) -> Cons {
    let es = |q: IVec3| {
        edge_states(
            &load(fieldset, q - dir),
            &load(fieldset, q),
            &load(fieldset, q + dir),
            axis,
            dt_over_dx,
            gamma,
        )
    };
    // face states: for the face between p and p+dir we need the evolved
    // high-side edge of p and low-side edge of p+dir
    let (p_lo_edge, p_hi_edge) = es(p);
    let (_, pm_hi_edge) = es(p - dir);
    let (pp_lo_edge, _) = es(p + dir);
    let f_lo = hll_flux(&pm_hi_edge, &p_lo_edge, axis, gamma);
    let f_hi = hll_flux(&p_hi_edge, &pp_lo_edge, axis, gamma);
    flux_difference_update(&load(fieldset, p), &f_lo, &f_hi, dt_over_dx)
}

fn assert_muscl_ghosts(fieldset: &[Field3]) {
    assert!(fieldset.len() >= NFIELDS);
    assert!(
        fieldset[0].ghost() >= 2,
        "MUSCL needs ghost width >= 2 (have {})",
        fieldset[0].ghost()
    );
    for f in &fieldset[..NFIELDS] {
        assert!(
            f.interior() == fieldset[0].interior() && f.ghost() == fieldset[0].ghost(),
            "conserved fields must share one shape"
        );
    }
}

/// Acquire `nfields` pooled ghost-0 scratch fields over `interior` — the
/// write side of the sweep's double buffer.
fn acquire_scratch<P: FieldAlloc>(
    pool: &P,
    interior: Region,
    nfields: usize,
) -> Vec<Field3> {
    (0..nfields)
        .map(|_| Field3::new_in(pool, interior, 0))
        .collect()
}

/// Copy the scratch interiors back over `fieldset` and shelve the scratch
/// buffers. Row-sliced copies preserve bits exactly, so this is equivalent
/// to the reference path's deferred tuple application.
fn commit_scratch<P: FieldAlloc>(fieldset: &mut [Field3], scratch: Vec<Field3>, pool: &P) {
    for (dst, src) in fieldset.iter_mut().zip(scratch.iter()) {
        let interior = src.interior();
        dst.copy_from(src, &interior);
    }
    for s in scratch {
        s.recycle(pool);
    }
}

/// One MUSCL–Hancock sweep along `axis`. Ghosts (width ≥ 2) must be filled.
///
/// Double-buffered through `pool` and line-based: a rolling window of four cell states and two
/// reconstructed edge-state pairs turns the per-cell form's four
/// reconstructions and two Riemann solves into one of each per cell (the
/// reused values are the same pure functions on the same inputs, so the
/// result stays bit-identical to [`reference::sweep_muscl`] — golden tests
/// pin it).
pub fn sweep_muscl<P: FieldAlloc>(
    fieldset: &mut [Field3],
    axis: usize,
    dt_over_dx: f64,
    gamma: f64,
    pool: &P,
) {
    assert_muscl_ghosts(fieldset);
    let interior = fieldset[0].interior();
    let storage = fieldset[0].storage_region();
    let mut scratch = acquire_scratch(pool, interior, NFIELDS);
    {
        let (rho, rest) = fieldset.split_first().unwrap();
        let src: [&[f64]; NFIELDS] = [
            rho.data(),
            rest[0].data(),
            rest[1].data(),
            rest[2].data(),
            rest[3].data(),
        ];
        let at = |i: usize| Cons {
            rho: src[0][i],
            m: [src[1][i], src[2][i], src[3][i]],
            e: src[4][i],
        };
        let mut out: Vec<&mut [f64]> = scratch.iter_mut().map(|f| f.data_mut()).collect();
        for_each_line(interior, storage, interior, axis, |l| {
            let s = l.src_stride;
            // prologue: states of cells [p-2dir ..= p+dir] and the edge
            // states of p-dir and p give the low-face flux of the first cell
            let u_mm = at(l.src_start - 2 * s);
            let u_m = at(l.src_start - s);
            let mut u_0 = at(l.src_start);
            let mut u_p = at(l.src_start + s);
            let e_prev = edge_states(&u_mm, &u_m, &u_0, axis, dt_over_dx, gamma);
            let mut e_cur = edge_states(&u_m, &u_0, &u_p, axis, dt_over_dx, gamma);
            let mut f_lo = hll_flux(&e_prev.1, &e_cur.0, axis, gamma);
            let mut si = l.src_start;
            let mut oi = l.out_start;
            for _ in 0..l.n {
                let u_pp = at(si + 2 * s);
                let e_next = edge_states(&u_0, &u_p, &u_pp, axis, dt_over_dx, gamma);
                let f_hi = hll_flux(&e_cur.1, &e_next.0, axis, gamma);
                let u = apply_floors(flux_difference_update(&u_0, &f_lo, &f_hi, dt_over_dx), gamma);
                out[crate::euler::fields::RHO][oi] = u.rho;
                out[crate::euler::fields::MX][oi] = u.m[0];
                out[crate::euler::fields::MY][oi] = u.m[1];
                out[crate::euler::fields::MZ][oi] = u.m[2];
                out[crate::euler::fields::E][oi] = u.e;
                u_0 = u_p;
                u_p = u_pp;
                e_cur = e_next;
                f_lo = f_hi;
                si += s;
                oi += l.out_stride;
            }
        });
    }
    commit_scratch(fieldset, scratch, pool);
}

/// Full dimensionally-split MUSCL–Hancock step (zero-gradient ghost refill
/// between sweeps, as in [`crate::euler::euler_step`]).
pub fn muscl_step<P: FieldAlloc>(fieldset: &mut [Field3], dt_over_dx: f64, gamma: f64, pool: &P) {
    for axis in 0..3 {
        if axis > 0 {
            for f in fieldset.iter_mut().take(NFIELDS) {
                f.fill_ghosts_zero_gradient();
            }
        }
        sweep_muscl(fieldset, axis, dt_over_dx, gamma, pool);
    }
}

/// Update-list forms retained as bit-identity oracles (see
/// [`crate::euler::reference`]).
pub mod reference {
    use super::*;

    /// Reference for [`super::sweep_muscl`].
    pub fn sweep_muscl(fieldset: &mut [Field3], axis: usize, dt_over_dx: f64, gamma: f64) {
        assert_muscl_ghosts(fieldset);
        let interior = fieldset[0].interior();
        let dir = crate::euler::axis_dir(axis);
        let mut updates: Vec<(IVec3, Cons)> = Vec::with_capacity(checked_capacity(interior.cells()));
        for p in interior.iter_cells() {
            updates.push((p, updated_state(fieldset, p, dir, axis, dt_over_dx, gamma)));
        }
        for (p, u) in updates {
            store(fieldset, p, u, gamma);
        }
    }

    /// Reference for [`super::muscl_step`].
    pub fn muscl_step(fieldset: &mut [Field3], dt_over_dx: f64, gamma: f64) {
        for axis in 0..3 {
            if axis > 0 {
                for f in fieldset.iter_mut().take(NFIELDS) {
                    f.fill_ghosts_zero_gradient();
                }
            }
            sweep_muscl(fieldset, axis, dt_over_dx, gamma);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::{fields as F, max_wave_speed, set_ambient, totals};
    use samr_mesh::pool::FieldPool;
    use samr_mesh::region::Region;

    fn smooth_wave(n: i64, ghost: i64) -> Vec<Field3> {
        let gamma = 1.4;
        let mut fs: Vec<Field3> = (0..NFIELDS)
            .map(|_| Field3::zeros(Region::cube(n), ghost))
            .collect();
        set_ambient(&mut fs, 1.0, [0.5, 0.0, 0.0], 1.0, gamma);
        // smooth density bump advected by the uniform flow
        for p in fs[0].storage_region().iter_cells() {
            let x = (p.x as f64 + 0.5) / n as f64;
            let rho = 1.0 + 0.2 * (2.0 * std::f64::consts::PI * x).sin().powi(2);
            let v = 0.5;
            fs[F::RHO].set(p, rho);
            fs[F::MX].set(p, rho * v);
            fs[F::E].set(p, 1.0 / (gamma - 1.0) + 0.5 * rho * v * v);
        }
        fs
    }

    #[test]
    fn in_place_sweep_matches_reference_bitwise() {
        let pool = FieldPool::new();
        let gamma = 1.4;
        for steps in [1, 3] {
            let mut a = smooth_wave(10, 2);
            let mut b = a.clone();
            let s = max_wave_speed(&a, gamma);
            for _ in 0..steps {
                for f in a.iter_mut() {
                    f.fill_ghosts_zero_gradient();
                }
                muscl_step(&mut a, 0.3 / s, gamma, &pool);
                for f in b.iter_mut() {
                    f.fill_ghosts_zero_gradient();
                }
                reference::muscl_step(&mut b, 0.3 / s, gamma);
            }
            let bits = |fs: &[Field3]| -> Vec<Vec<u64>> {
                fs.iter()
                    .map(|f| f.data().iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&a), bits(&b), "{steps} steps");
        }
        assert!(pool.stats().hits > 0);
    }

    #[test]
    fn uniform_state_is_steady() {
        let pool = FieldPool::new();
        let gamma = 1.4;
        let mut fs: Vec<Field3> = (0..NFIELDS)
            .map(|_| Field3::zeros(Region::cube(6), 2))
            .collect();
        set_ambient(&mut fs, 1.0, [0.3, -0.2, 0.1], 1.0, gamma);
        let before = totals(&fs);
        muscl_step(&mut fs, 0.1, gamma, &pool);
        let after = totals(&fs);
        assert!((before.0 - after.0).abs() < 1e-12);
        assert!((before.2 - after.2).abs() < 1e-11);
    }

    #[test]
    fn mass_conserved_in_interior() {
        let pool = FieldPool::new();
        let gamma = 1.4;
        let mut fs = smooth_wave(12, 2);
        let (m0, _, _) = totals(&fs);
        let s = max_wave_speed(&fs, gamma);
        for _ in 0..3 {
            for f in fs.iter_mut() {
                f.fill_ghosts_zero_gradient();
            }
            muscl_step(&mut fs, 0.3 / s, gamma, &pool);
        }
        let (m1, _, _) = totals(&fs);
        // zero-gradient boundaries admit small in/outflow of the moving
        // wave; interior conservation must still hold to a few percent
        assert!((m0 - m1).abs() / m0 < 0.02, "{m0} vs {m1}");
    }

    #[test]
    fn less_diffusive_than_first_order() {
        // advect the smooth bump; the 2nd-order scheme must preserve the
        // density contrast better than the 1st-order one
        let gamma = 1.4;
        let contrast = |fs: &[Field3]| {
            let int = fs[0].interior();
            let mut lo = f64::MAX;
            let mut hi = f64::MIN;
            // measure away from the boundary to avoid BC effects
            for p in int.grow(-2).iter_cells() {
                lo = lo.min(fs[F::RHO].get(p));
                hi = hi.max(fs[F::RHO].get(p));
            }
            hi - lo
        };
        let pool = FieldPool::new();
        let steps = 8;
        let mut first = smooth_wave(16, 2);
        let mut second = smooth_wave(16, 2);
        let s = max_wave_speed(&first, gamma);
        let dt_over_dx = 0.3 / s;
        for _ in 0..steps {
            for f in first.iter_mut() {
                f.fill_ghosts_zero_gradient();
            }
            crate::euler::euler_step(&mut first, dt_over_dx, gamma);
            for f in second.iter_mut() {
                f.fill_ghosts_zero_gradient();
            }
            muscl_step(&mut second, dt_over_dx, gamma, &pool);
        }
        let c1 = contrast(&first);
        let c2 = contrast(&second);
        assert!(
            c2 > c1 * 1.05,
            "2nd order must keep more contrast: {c2} vs {c1}"
        );
    }

    #[test]
    #[should_panic]
    fn requires_two_ghosts() {
        let mut fs: Vec<Field3> = (0..NFIELDS)
            .map(|_| Field3::zeros(Region::cube(4), 1))
            .collect();
        sweep_muscl(&mut fs, 0, 0.1, 1.4, &FieldPool::new());
    }
}
