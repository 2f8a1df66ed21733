//! Property-based tests for fields and inter-level transfer operators.

use base::prop::{self, Gen};
use samr_mesh::field::Field3;
use samr_mesh::interp::{prolong_constant, restrict_average};
use samr_mesh::region::Region;
use samr_mesh::{ivec3, IVec3};

fn arb_cell(g: &mut Gen, n: i64) -> IVec3 {
    ivec3(g.i64(0..n), g.i64(0..n), g.i64(0..n))
}

#[test]
fn set_then_get_roundtrips() {
    prop::check(
        prop::CASES,
        |g| g.vec(1..50, |g| (arb_cell(g, 6), g.f64(-1e6..1e6))),
        |cells| {
            let mut f = Field3::zeros(Region::cube(6), 1);
            let mut last = std::collections::BTreeMap::new();
            for (c, v) in &cells {
                f.set(*c, *v);
                last.insert((c.x, c.y, c.z), *v);
            }
            for ((x, y, z), v) in last {
                assert_eq!(f.get(ivec3(x, y, z)), v);
            }
        },
    );
}

#[test]
fn zero_gradient_ghosts_only_touch_ghosts() {
    prop::check(
        prop::CASES,
        |g| g.vec(1..30, |g| (arb_cell(g, 4), g.f64(-10.0..10.0))),
        |cells| {
            let mut f = Field3::zeros(Region::cube(4), 2);
            for (c, v) in &cells {
                f.set(*c, *v);
            }
            let before: Vec<f64> = Region::cube(4).iter_cells().map(|p| f.get(p)).collect();
            f.fill_ghosts_zero_gradient();
            let after: Vec<f64> = Region::cube(4).iter_cells().map(|p| f.get(p)).collect();
            assert_eq!(before, after);
            // every ghost equals its clamped interior cell
            for p in f.storage_region().iter_cells() {
                if Region::cube(4).contains(p) {
                    continue;
                }
                let clamped = p.max(IVec3::ZERO).min(IVec3::splat(3));
                assert_eq!(f.get(p), f.get(clamped));
            }
        },
    );
}

#[test]
fn restrict_conserves_mass() {
    prop::check(
        prop::CASES,
        |g| g.vec(1..80, |g| (arb_cell(g, 8), g.f64(0.0..10.0))),
        |cells| {
            let mut fine = Field3::zeros(Region::cube(8), 0);
            for (c, v) in &cells {
                fine.set(*c, *v);
            }
            let mut coarse = Field3::zeros(Region::cube(4), 0);
            restrict_average(&fine, &mut coarse, &Region::cube(4), 2);
            // coarse total x 8 = fine total (cell-volume weighting)
            assert!((coarse.interior_sum() * 8.0 - fine.interior_sum()).abs() < 1e-9);
        },
    );
}

#[test]
fn prolong_then_restrict_is_identity() {
    prop::check(
        prop::CASES,
        |g| g.vec(1..30, |g| (arb_cell(g, 4), g.f64(-5.0..5.0))),
        |cells| {
            // piecewise-constant prolongation followed by averaging restores the
            // coarse data exactly
            let mut coarse = Field3::zeros(Region::cube(4), 0);
            for (c, v) in &cells {
                coarse.set(*c, *v);
            }
            let mut fine = Field3::zeros(Region::cube(8), 0);
            prolong_constant(&coarse, &mut fine, &Region::cube(8), 2);
            let mut back = Field3::zeros(Region::cube(4), 0);
            restrict_average(&fine, &mut back, &Region::cube(4), 2);
            for p in Region::cube(4).iter_cells() {
                assert!((back.get(p) - coarse.get(p)).abs() < 1e-12);
            }
        },
    );
}

#[test]
fn copy_from_is_exact_on_window() {
    prop::check(
        prop::CASES,
        |g| g.vec(27..28, |g| g.f64(-9.0..9.0)),
        |vals| {
            let mut src = Field3::zeros(Region::cube(3), 0);
            for (i, p) in Region::cube(3).iter_cells().enumerate() {
                src.set(p, vals[i]);
            }
            let mut dst = Field3::constant(Region::cube(3), 0, 99.0);
            let window = Region::cube(2); // partial window
            dst.copy_from(&src, &window);
            for p in Region::cube(3).iter_cells() {
                if window.contains(p) {
                    assert_eq!(dst.get(p), src.get(p));
                } else {
                    assert_eq!(dst.get(p), 99.0);
                }
            }
        },
    );
}
