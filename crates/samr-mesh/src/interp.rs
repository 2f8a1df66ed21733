//! Inter-level data transfer: piecewise-constant prolongation (coarse →
//! fine) and conservative restriction (fine → coarse).

use crate::field::Field3;
use crate::index::{ivec3, IVec3};
use crate::region::{region, Region};

/// Piecewise-constant prolongation: fill `fine`'s cells inside `fine_window`
/// (fine-level coordinates) by injecting the containing coarse cell's value.
///
/// Conservative for cell-averaged quantities and monotone, which is what a
/// newly created refined grid needs before its first fine step. Cells whose
/// containing coarse cell lies outside `coarse`'s storage are left
/// untouched. Bit-identical to [`reference::prolong_constant`].
pub fn prolong_constant(coarse: &Field3, fine: &mut Field3, fine_window: &Region, r: i64) {
    prolong_constant_fields(
        std::slice::from_ref(coarse),
        std::slice::from_mut(fine),
        fine_window,
        r,
    );
}

/// [`prolong_constant`] of every field of a coarse patch into the matching
/// field of a fine one. The fields of a patch share one storage region, so
/// the window and each column's index ranges are worked out once and
/// applied per field.
///
/// Row-sliced: the `r × r` fine z-rows under one coarse `(x, y)` column are
/// identical, so the first is built from the coarse row in runs of `r` equal
/// values and the others are copies of it.
pub fn prolong_constant_fields(
    coarse: &[Field3],
    fine: &mut [Field3],
    fine_window: &Region,
    r: i64,
) {
    assert_eq!(coarse.len(), fine.len(), "one coarse field per fine field");
    let (Some(c0), Some(f0)) = (coarse.first(), fine.first()) else {
        return;
    };
    let cs = c0.storage_region();
    let fs = f0.storage_region();
    assert!(
        coarse.iter().all(|c| c.storage_region() == cs)
            && fine.iter().all(|f| f.storage_region() == fs),
        "the fields of a patch share one storage region"
    );
    // fine cells whose containing coarse cell lies inside coarse storage:
    // floor(z / r) ∈ [cs.lo.z, cs.hi.z) ⇔ z ∈ [cs.lo.z·r, cs.hi.z·r)
    let w = fine_window.intersect(&fs).intersect(&cs.refine(r));
    if w.is_empty() {
        return;
    }
    let run = r as usize;
    let row = (fs.hi.z - fs.lo.z) as usize;
    let plane = (fs.hi.y - fs.lo.y) as usize * row;
    let cz0 = w.lo.z.div_euclid(r);
    let cz1 = (w.hi.z - 1).div_euclid(r) + 1;
    // a leading partial run, whole runs, then what is left
    let head = (((cz0 + 1) * r).min(w.hi.z) - w.lo.z) as usize;
    for cx in w.lo.x.div_euclid(r)..=(w.hi.x - 1).div_euclid(r) {
        let (x0, x1) = (w.lo.x.max(cx * r), w.hi.x.min((cx + 1) * r));
        for cy in w.lo.y.div_euclid(r)..=(w.hi.y - 1).div_euclid(r) {
            let (y0, y1) = (w.lo.y.max(cy * r), w.hi.y.min((cy + 1) * r));
            let crange = cs.row_range(cx, cy, cz0, cz1);
            let first = fs.row_range(x0, y0, w.lo.z, w.hi.z);
            for (c, f) in coarse.iter().zip(fine.iter_mut()) {
                let crow = &c.data()[crange.clone()];
                let data = f.data_mut();
                let frow = &mut data[first.clone()];
                frow[..head].fill(crow[0]);
                let mut runs = frow[head..].chunks_exact_mut(run);
                let mut values = crow[1..].iter();
                for (cells, &v) in (&mut runs).zip(&mut values) {
                    cells.fill(v);
                }
                if let Some(&v) = values.next() {
                    runs.into_remainder().fill(v);
                }
                for dx in 0..(x1 - x0) as usize {
                    for dy in 0..(y1 - y0) as usize {
                        if (dx, dy) != (0, 0) {
                            data.copy_within(first.clone(), first.start + dx * plane + dy * row);
                        }
                    }
                }
            }
        }
    }
}

/// Conservative restriction: replace each coarse cell inside `coarse_window`
/// (coarse-level coordinates) with the average of its `r^3` fine children.
/// Coarse cells whose fine block does not lie wholly in `fine`'s storage
/// are left untouched.
///
/// The window is clipped once to the coarse cells whose block lies in fine
/// storage, and each block is summed through a fixed list of `r^3` index
/// offsets from its first fine cell, in the same (fx, fy, fz) cell order as
/// the per-cell reference, so the floating-point result is bit-identical
/// to [`reference::restrict_average`].
pub fn restrict_average(fine: &Field3, coarse: &mut Field3, coarse_window: &Region, r: i64) {
    let fs = fine.storage_region();
    let cs = coarse.storage_region();
    // c·r ≥ fs.lo and (c + 1)·r ≤ fs.hi on every axis
    let whole_blocks = region(fs.lo.div_ceil(r), fs.hi.div_floor(r));
    let w = coarse_window.intersect(&cs).intersect(&whole_blocks);
    if w.is_empty() {
        return;
    }
    let inv = 1.0 / (r * r * r) as f64;
    let run = r as usize;
    let size = fs.size();
    let (row, plane) = (size.z as usize, (size.y * size.z) as usize);
    // a block's cells relative to its first, in (fx, fy, fz) order
    let offsets: Vec<usize> = (0..run * run * run)
        .map(|i| (i / (run * run)) * plane + (i / run % run) * row + i % run)
        .collect();
    let span = offsets[offsets.len() - 1] + 1;
    let fd = fine.data();
    for cx in w.lo.x..w.hi.x {
        for cy in w.lo.y..w.hi.y {
            let crange = cs.row_range(cx, cy, w.lo.z, w.hi.z);
            let mut first = fs.linear_index(ivec3(cx, cy, w.lo.z) * r);
            for out in &mut coarse.data_mut()[crange] {
                let block = &fd[first..first + span];
                let mut sum = 0.0;
                for &o in &offsets {
                    sum += block[o];
                }
                *out = sum * inv;
                first += run;
            }
        }
    }
}

/// Per-cell reference implementations of the row-sliced transfer kernels,
/// retained as bit-identity oracles for golden tests (see
/// [`crate::field::reference`] for the field-op counterparts).
pub mod reference {
    use super::*;

    /// Reference for [`super::prolong_constant`].
    pub fn prolong_constant(coarse: &Field3, fine: &mut Field3, fine_window: &Region, r: i64) {
        let w = fine_window.intersect(&fine.storage_region());
        for p in w.iter_cells() {
            let cp = p.div_floor(r);
            if coarse.storage_region().contains(cp) {
                fine.set(p, coarse.get(cp));
            }
        }
    }

    /// Reference for [`super::restrict_average`].
    pub fn restrict_average(fine: &Field3, coarse: &mut Field3, coarse_window: &Region, r: i64) {
        let w = coarse_window.intersect(&coarse.storage_region());
        let inv = 1.0 / (r * r * r) as f64;
        for cp in w.iter_cells() {
            let fine_block = Region::at(cp * r, IVec3::splat(r));
            if !fine.storage_region().contains_region(&fine_block) {
                continue;
            }
            let sum: f64 = fine_block.iter_cells().map(|fp| fine.get(fp)).sum();
            coarse.set(cp, sum * inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_prolong_injects_parent_value() {
        let mut coarse = Field3::zeros(Region::cube(4), 1);
        coarse.map_interior(|p, _| (p.x * 100 + p.y * 10 + p.z) as f64);
        let fine_region = Region::cube(8);
        let mut fine = Field3::zeros(fine_region, 0);
        prolong_constant(&coarse, &mut fine, &fine_region, 2);
        assert_eq!(fine.get(ivec3(0, 0, 0)), 0.0);
        assert_eq!(fine.get(ivec3(1, 1, 1)), 0.0);
        assert_eq!(fine.get(ivec3(2, 0, 0)), 100.0);
        assert_eq!(fine.get(ivec3(7, 7, 7)), 333.0);
    }

    #[test]
    fn constant_prolong_conserves_sum() {
        let mut coarse = Field3::zeros(Region::cube(4), 0);
        coarse.map_interior(|p, _| (p.x + p.y + p.z) as f64 + 1.0);
        let fine_region = Region::cube(8);
        let mut fine = Field3::zeros(fine_region, 0);
        prolong_constant(&coarse, &mut fine, &fine_region, 2);
        // each coarse value copied into 8 fine cells
        assert!((fine.interior_sum() - 8.0 * coarse.interior_sum()).abs() < 1e-9);
    }

    #[test]
    fn restrict_average_of_constant_is_constant() {
        let fine = Field3::constant(Region::cube(8), 0, 3.5);
        let mut coarse = Field3::zeros(Region::cube(4), 0);
        restrict_average(&fine, &mut coarse, &Region::cube(4), 2);
        for p in Region::cube(4).iter_cells() {
            assert_eq!(coarse.get(p), 3.5);
        }
    }

    #[test]
    fn restrict_then_prolong_conserves_total() {
        let mut fine = Field3::zeros(Region::cube(8), 0);
        fine.map_interior(|p, _| (p.x * p.y + p.z) as f64);
        let mut coarse = Field3::zeros(Region::cube(4), 0);
        restrict_average(&fine, &mut coarse, &Region::cube(4), 2);
        // total mass conserved under restriction: coarse sum * 8 == fine sum
        assert!((coarse.interior_sum() * 8.0 - fine.interior_sum()).abs() < 1e-9);
    }

    #[test]
    fn restrict_partial_window_only_touches_window() {
        let fine = Field3::constant(Region::cube(8), 0, 2.0);
        let mut coarse = Field3::constant(Region::cube(4), 0, -1.0);
        let window = region(ivec3(0, 0, 0), ivec3(2, 4, 4));
        restrict_average(&fine, &mut coarse, &window, 2);
        assert_eq!(coarse.get(ivec3(1, 1, 1)), 2.0);
        assert_eq!(coarse.get(ivec3(3, 3, 3)), -1.0);
    }

    fn scrambled(interior: Region, ghost: i64, seed: u64) -> Field3 {
        let mut f = Field3::zeros(interior, ghost);
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for v in f.data_mut() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0;
        }
        f
    }

    #[test]
    fn prolong_constant_matches_reference_bitwise() {
        for (r, ghost, seed) in [(2i64, 1i64, 5u64), (2, 2, 6), (3, 1, 7), (4, 0, 8)] {
            let coarse = scrambled(region(ivec3(-2, 1, 0), ivec3(5, 8, 6)), ghost, seed);
            // fine patch deliberately poking past the coarse coverage so the
            // containment clipping is exercised on every axis
            let fine_region = region(ivec3(-3 * r, 0, -2), ivec3(6 * r, 9 * r, 7 * r));
            let windows = [
                fine_region,
                fine_region.grow(2),
                region(ivec3(-1, -1, -1), ivec3(3, 5, 9)),
                Region::EMPTY,
            ];
            for w in windows {
                let mut a = scrambled(fine_region, ghost, seed + 100);
                let mut b = a.clone();
                prolong_constant(&coarse, &mut a, &w, r);
                reference::prolong_constant(&coarse, &mut b, &w, r);
                assert_eq!(a, b, "r={r} ghost={ghost} window={w:?}");

                // a patch's six fields in one walk: each its own reference's
                let coarse: Vec<Field3> = (0..6)
                    .map(|k| scrambled(coarse.interior(), ghost, seed + 10 * k))
                    .collect();
                let mut a: Vec<Field3> = (0..6)
                    .map(|k| scrambled(fine_region, ghost, seed + 100 + k))
                    .collect();
                let mut b = a.clone();
                prolong_constant_fields(&coarse, &mut a, &w, r);
                for (c, f) in coarse.iter().zip(b.iter_mut()) {
                    reference::prolong_constant(c, f, &w, r);
                }
                assert_eq!(a, b, "six fields, r={r} ghost={ghost} window={w:?}");
            }
        }
    }

    #[test]
    fn restrict_average_matches_reference_bitwise() {
        for (r, ghost, seed) in [(2i64, 1i64, 11u64), (2, 0, 12), (3, 2, 13)] {
            let fine = scrambled(region(ivec3(-r, 0, r), ivec3(6 * r, 5 * r, 7 * r)), ghost, seed);
            let coarse_region = region(ivec3(-3, -2, 0), ivec3(8, 7, 9));
            let windows = [
                coarse_region,
                region(ivec3(0, 0, 1), ivec3(4, 4, 6)),
                coarse_region.grow(3),
                Region::EMPTY,
            ];
            for w in windows {
                let mut a = scrambled(coarse_region, ghost, seed + 50);
                let mut b = a.clone();
                restrict_average(&fine, &mut a, &w, r);
                reference::restrict_average(&fine, &mut b, &w, r);
                // bitwise: same cells touched, same summation order
                assert_eq!(a, b, "r={r} ghost={ghost} window={w:?}");
            }
        }
    }
}
