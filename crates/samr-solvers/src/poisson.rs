//! Poisson solver: red-black Gauss–Seidel relaxation of `∇²φ = rhs` on a
//! patch, with Dirichlet values supplied through ghost zones. The elliptic
//! half of the `AMR64` dataset's physics, whose right-hand side `ρ − ρ̄` is
//! read straight out of the density field ([`rbgs_sweep_shifted`]).

use samr_mesh::field::Field3;
use samr_mesh::index::{ivec3, FACE_NEIGHBORS};

/// One red-black Gauss–Seidel sweep (both colors) of `∇²φ = rhs` with unit
/// cell spacing scaled by `h` (so the stencil divides by `h²`).
pub fn rbgs_sweep(phi: &mut Field3, rhs: &Field3, h: f64) {
    // `x − 0.0` is `x` bit for bit (`−0.0` included)
    rbgs_sweep_shifted(phi, rhs, 0.0, h)
}

/// [`rbgs_sweep`] of `∇²φ = src − shift`, reading the right-hand side out
/// of `src` as it relaxes: no field holding `src − shift` is ever built.
/// The subtraction is the one a materialised right-hand side would have
/// stored, so the bits are those of [`rbgs_sweep`] on that field.
///
/// Row-strided form: per (x,y) z-row the six neighbour offsets are fixed
/// strides into the storage slice, the color parity picks the starting z,
/// and cells of one color step by 2 — index math and bounds checks happen
/// once per row instead of once per cell. The stencil sum accumulates in
/// the same `FACE_NEIGHBORS` order as [`reference::rbgs_sweep`] and the
/// cells of each color are visited in the same storage order, so the sweep
/// is bit-identical to the per-cell form (golden test pins it).
pub fn rbgs_sweep_shifted(phi: &mut Field3, src: &Field3, shift: f64, h: f64) {
    let interior = phi.interior();
    let sto = phi.storage_region();
    let rsto = src.storage_region();
    let h2 = h * h;
    let dz = (sto.hi.z - sto.lo.z) as usize;
    let dy = dz;
    let dx = (sto.hi.y - sto.lo.y) as usize * dz;
    let rd = src.data();
    let pd = phi.data_mut();
    for color in 0..2i64 {
        for x in interior.lo.x..interior.hi.x {
            for y in interior.lo.y..interior.hi.y {
                let par = (x + y + interior.lo.z).rem_euclid(2);
                let z0 = if par == color {
                    interior.lo.z
                } else {
                    interior.lo.z + 1
                };
                if z0 >= interior.hi.z {
                    continue;
                }
                let mut i = sto.linear_index(ivec3(x, y, z0));
                let mut ri = rsto.linear_index(ivec3(x, y, z0));
                let cells = ((interior.hi.z - z0) as usize).div_ceil(2);
                for _ in 0..cells {
                    // accumulate in FACE_NEIGHBORS order (−x +x −y +y −z +z)
                    let mut s = 0.0;
                    s += pd[i - dx];
                    s += pd[i + dx];
                    s += pd[i - dy];
                    s += pd[i + dy];
                    s += pd[i - 1];
                    s += pd[i + 1];
                    pd[i] = (s - h2 * (rd[ri] - shift)) / 6.0;
                    i += 2;
                    ri += 2;
                }
            }
        }
    }
}

/// Per-cell form retained as a bit-identity oracle (see
/// [`crate::euler::reference`]).
pub mod reference {
    use super::*;

    /// Reference for [`super::rbgs_sweep`].
    pub fn rbgs_sweep(phi: &mut Field3, rhs: &Field3, h: f64) {
        let interior = phi.interior();
        let h2 = h * h;
        for color in 0..2i64 {
            for p in interior.iter_cells() {
                if (p.x + p.y + p.z).rem_euclid(2) != color {
                    continue;
                }
                let mut s = 0.0;
                for d in FACE_NEIGHBORS {
                    s += phi.get(p + d);
                }
                phi.set(p, (s - h2 * rhs.get(p)) / 6.0);
            }
        }
    }
}

/// Residual `rhs − ∇²φ` L2 norm over the interior.
pub fn residual_l2(phi: &Field3, rhs: &Field3, h: f64) -> f64 {
    let interior = phi.interior();
    let inv_h2 = 1.0 / (h * h);
    let mut acc = 0.0;
    for p in interior.iter_cells() {
        let mut lap = -6.0 * phi.get(p);
        for d in FACE_NEIGHBORS {
            lap += phi.get(p + d);
        }
        let r = rhs.get(p) - lap * inv_h2;
        acc += r * r;
    }
    acc.sqrt()
}

/// Relax until the residual shrinks below `tol` (relative to the first
/// residual) or `max_sweeps` is hit. Returns `(sweeps, final_residual)`.
pub fn solve(
    phi: &mut Field3,
    rhs: &Field3,
    h: f64,
    tol: f64,
    max_sweeps: usize,
) -> (usize, f64) {
    let r0 = residual_l2(phi, rhs, h).max(1e-300);
    let mut r = r0;
    for sweep in 0..max_sweeps {
        if r / r0 <= tol {
            return (sweep, r);
        }
        rbgs_sweep(phi, rhs, h);
        r = residual_l2(phi, rhs, h);
    }
    (max_sweeps, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_mesh::index::IVec3;
    use samr_mesh::region::Region;

    /// Set φ on the full storage from an analytic function of the cell index.
    fn fill(f: &mut Field3, g: impl Fn(IVec3) -> f64) {
        for p in f.storage_region().iter_cells() {
            f.set(p, g(p));
        }
    }

    /// Fill the full storage of `fields`, one after the other, with `g` of
    /// an LCG stream on `[0, 1)`.
    fn lcg_fill(seed: u64, fields: [&mut Field3; 2], g: impl Fn(f64) -> f64) {
        let mut s = seed;
        for v in fields.into_iter().flat_map(|f| f.data_mut().iter_mut()) {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = g((s >> 11) as f64 / (1u64 << 53) as f64);
        }
    }

    fn bits(f: &Field3) -> Vec<u64> {
        f.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn zero_rhs_harmonic_linear_solution_is_fixed_point() {
        // φ = x is harmonic; with exact Dirichlet ghosts a sweep keeps it.
        let r = Region::cube(6);
        let mut phi = Field3::zeros(r, 1);
        fill(&mut phi, |p| p.x as f64);
        let rhs = Field3::zeros(r, 1);
        let before = residual_l2(&phi, &rhs, 1.0);
        assert!(before < 1e-12);
        rbgs_sweep(&mut phi, &rhs, 1.0);
        for p in r.iter_cells() {
            assert!((phi.get(p) - p.x as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn row_strided_sweep_matches_reference_bitwise() {
        // irregular (non-cube, offset) region, different phi/rhs ghosts
        let r = samr_mesh::region(ivec3(-2, 1, 0), ivec3(5, 8, 11));
        for ghost in [1i64, 2] {
            let mut a = Field3::zeros(r, ghost);
            let mut rhs = Field3::zeros(r, 0);
            lcg_fill(7 + ghost as u64, [&mut a, &mut rhs], |u| u * 2.0 - 1.0);
            let mut b = a.clone();
            for _ in 0..3 {
                rbgs_sweep(&mut a, &rhs, 0.5);
                reference::rbgs_sweep(&mut b, &rhs, 0.5);
            }
            assert_eq!(bits(&a), bits(&b), "ghost={ghost}");
        }
    }

    #[test]
    fn shifted_sweep_matches_reference_on_materialised_rhs() {
        // thin, odd and even rows; values where `v − 1` rounds (so hoisting
        // the shift out of the product would move bits)
        for size in [ivec3(8, 8, 8), ivec3(2, 9, 7), ivec3(6, 10, 1), ivec3(1, 1, 2)] {
            let r = Region::at(ivec3(-3, 2, 1), size);
            let mut a = Field3::zeros(r, 1);
            let mut rho = Field3::zeros(r, 1);
            lcg_fill(11 + r.cells() as u64, [&mut a, &mut rho], |u| u * 3.0);
            let mut rhs = rho.clone();
            rhs.map_interior(|_, v| v - 1.0);
            let mut b = a.clone();
            for _ in 0..2 {
                rbgs_sweep_shifted(&mut a, &rho, 1.0, 0.7);
                reference::rbgs_sweep(&mut b, &rhs, 0.7);
            }
            assert_eq!(bits(&a), bits(&b), "{size:?}");
        }
    }

    #[test]
    fn converges_to_manufactured_solution() {
        // Manufactured: φ* = x² ⇒ ∇²φ* = 2. Ghosts carry the exact values.
        let r = Region::cube(8);
        let mut phi = Field3::zeros(r, 1);
        // exact on ghosts, zero inside
        fill(&mut phi, |p| {
            if r.contains(p) {
                0.0
            } else {
                (p.x * p.x) as f64
            }
        });
        let rhs = Field3::constant(r, 1, 2.0);
        let (sweeps, res) = solve(&mut phi, &rhs, 1.0, 1e-10, 2000);
        assert!(sweeps < 2000, "did not converge: residual {res}");
        for p in r.iter_cells() {
            assert!(
                (phi.get(p) - (p.x * p.x) as f64).abs() < 1e-6,
                "at {p:?}: {} vs {}",
                phi.get(p),
                p.x * p.x
            );
        }
    }

    #[test]
    fn residual_decreases_monotonically_enough() {
        let r = Region::cube(8);
        let mut phi = Field3::zeros(r, 1);
        let mut rhs = Field3::zeros(r, 1);
        rhs.set(ivec3(4, 4, 4), -50.0); // point source
        let r0 = residual_l2(&phi, &rhs, 1.0);
        rbgs_sweep(&mut phi, &rhs, 1.0);
        let r1 = residual_l2(&phi, &rhs, 1.0);
        for _ in 0..20 {
            rbgs_sweep(&mut phi, &rhs, 1.0);
        }
        let r2 = residual_l2(&phi, &rhs, 1.0);
        assert!(r1 < r0);
        assert!(r2 < r1 * 0.9);
    }

    #[test]
    fn point_source_yields_negative_well() {
        // ∇²φ = q with q < 0 at center and φ=0 boundary → φ > 0 well? sign:
        // discrete solution of ∇²φ = −δ is positive (like −1/r potential
        // flipped); just assert the center is the extremum.
        let r = Region::cube(9);
        let mut phi = Field3::zeros(r, 1);
        let mut rhs = Field3::zeros(r, 1);
        rhs.set(ivec3(4, 4, 4), -10.0);
        solve(&mut phi, &rhs, 1.0, 1e-8, 5000);
        let c = phi.get(ivec3(4, 4, 4));
        assert!(c > 0.0);
        assert!(c >= phi.get(ivec3(0, 0, 0)));
        assert!(c >= phi.get(ivec3(8, 4, 4)));
    }
}
