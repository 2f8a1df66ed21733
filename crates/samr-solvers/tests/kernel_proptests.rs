//! Property-based bit-identity pins for the vectorized row kernels: on
//! randomized patch shapes (including z-rows that are not a multiple of the
//! lane width, exercising the `chunks_exact` remainders) the line/row
//! kernels must produce exactly the bits of the retained `reference`
//! modules.

use base::prop::{self, Gen};
use base::rng::SplitMix64;
use samr_mesh::field::Field3;
use samr_mesh::pool::FieldPool;
use samr_mesh::region::Region;
use samr_mesh::{ivec3, region};
use samr_solvers::euler::{self, NFIELDS};
use samr_solvers::{advection, poisson};

/// A patch interior with irregular extents: z-rows deliberately span 1–19
/// cells so `chunks_exact(8)` sees empty, partial and multi-lane rows.
fn arb_region(g: &mut Gen) -> Region {
    let (nx, ny, nz) = (g.i64(1..6), g.i64(1..6), g.i64(1..20));
    let (ox, oy, oz) = (g.i64(-3..4), g.i64(-3..4), g.i64(-3..4));
    region(ivec3(ox, oy, oz), ivec3(ox + nx, oy + ny, oz + nz))
}

/// Random positive-density conserved fields over `r` with ghost width `g`.
fn random_euler_fields(r: Region, g: i64, seed: u64) -> Vec<Field3> {
    let mut s = SplitMix64::new(seed);
    (0..NFIELDS)
        .map(|k| {
            let mut f = Field3::zeros(r, g);
            for v in f.data_mut() {
                *v = match k {
                    0 => 0.1 + s.next_f64(),       // rho > 0
                    4 => 1.0 + 2.0 * s.next_f64(), // energy
                    _ => 2.0 * s.next_f64() - 1.0, // momenta
                };
            }
            f
        })
        .collect()
}

fn bits(fs: &[Field3]) -> Vec<Vec<u64>> {
    fs.iter()
        .map(|f| f.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn euler_line_kernel_matches_reference() {
    prop::check(
        prop::CASES,
        |g| (arb_region(g), g.usize(0..3), g.any_u64()),
        |(r, axis, seed)| {
            let mut a = random_euler_fields(r, 1, seed);
            let mut b = a.clone();
            euler::sweep(&mut a, axis, 0.2, 1.4);
            euler::reference::sweep(&mut b, axis, 0.2, 1.4);
            assert_eq!(bits(&a), bits(&b));
        },
    );
}

#[test]
fn advection_row_kernel_matches_reference() {
    prop::check(
        prop::CASES,
        |g| {
            let (cx, cy) = (g.f64(-1.0..1.0), g.f64(-1.0..1.0));
            // half the cases have no z velocity at all
            let cz = if g.bool() { g.f64(-1.0..1.0) } else { 0.0 };
            (arb_region(g), [cx, cy, cz], g.bool(), g.any_u64())
        },
        |(r, velocity, limited, seed)| {
            let pool = FieldPool::new();
            let mut a = Field3::zeros(r, 2);
            let mut s = SplitMix64::new(seed);
            for v in a.data_mut() {
                *v = 2.0 * s.next_f64() - 1.0;
            }
            let mut b = a.clone();
            advection::advect_step(&mut a, velocity, limited, &pool);
            advection::reference::advect_step(&mut b, velocity, limited);
            assert_eq!(bits(&[a]), bits(&[b]));
        },
    );
}

#[test]
fn rbgs_row_kernel_matches_reference() {
    prop::check(
        prop::CASES,
        |g| (arb_region(g), g.any_u64()),
        |(r, seed)| {
            let mut phi = Field3::zeros(r, 1);
            let mut rhs = Field3::zeros(r, 0);
            let mut s = SplitMix64::new(seed);
            for v in phi.data_mut().iter_mut().chain(rhs.data_mut().iter_mut()) {
                *v = 2.0 * s.next_f64() - 1.0;
            }
            let mut phi_ref = phi.clone();
            poisson::rbgs_sweep(&mut phi, &rhs, 1.0);
            poisson::reference::rbgs_sweep(&mut phi_ref, &rhs, 1.0);
            assert_eq!(bits(&[phi]), bits(&[phi_ref]));
        },
    );
}
