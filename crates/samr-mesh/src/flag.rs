//! Refinement flagging: marking the cells of a patch that need finer
//! resolution, plus flag buffering.

use crate::field::Field3;
use crate::index::{ivec3, IVec3, FACE_NEIGHBORS};
use crate::region::Region;

/// A boolean mask over a region marking cells that require refinement.
#[derive(Clone, Debug)]
pub struct FlagField {
    region: Region,
    flags: Vec<bool>,
}

impl FlagField {
    /// All-clear flags over `region`.
    pub fn new(region: Region) -> Self {
        assert!(!region.is_empty());
        FlagField {
            region,
            flags: vec![false; region.cells() as usize],
        }
    }

    /// Region covered.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Is cell `p` flagged? Cells outside the region are unflagged.
    #[inline]
    pub fn get(&self, p: IVec3) -> bool {
        if !self.region.contains(p) {
            return false;
        }
        self.flags[self.region.linear_index(p)]
    }

    /// Set the flag of interior cell `p`.
    #[inline]
    pub fn set(&mut self, p: IVec3, v: bool) {
        let i = self.region.linear_index(p);
        self.flags[i] = v;
    }

    /// Number of flagged cells.
    pub fn count(&self) -> i64 {
        self.flags.iter().filter(|&&f| f).count() as i64
    }

    /// Tight bounding box of flagged cells (`Region::EMPTY` when clear).
    pub fn bounding_box(&self) -> Region {
        let mut lo = ivec3(i64::MAX, i64::MAX, i64::MAX);
        let mut hi = ivec3(i64::MIN, i64::MIN, i64::MIN);
        let mut any = false;
        for p in self.region.iter_cells() {
            if self.get(p) {
                any = true;
                lo = lo.min(p);
                hi = hi.max(p + IVec3::ONE);
            }
        }
        if any {
            Region { lo, hi }
        } else {
            Region::EMPTY
        }
    }

    /// Count flagged cells within `window`.
    pub fn count_in(&self, window: &Region) -> i64 {
        window
            .intersect(&self.region)
            .iter_cells()
            .filter(|&p| self.get(p))
            .count() as i64
    }

    /// Expand every flag to its face neighbours, `buffer` times, clipped to
    /// the region. Buffering keeps features inside refined grids between
    /// regrids.
    pub fn buffer(&mut self, buffer: usize) {
        for _ in 0..buffer {
            let mut next = self.flags.clone();
            for p in self.region.iter_cells() {
                if !self.get(p) {
                    continue;
                }
                for d in FACE_NEIGHBORS {
                    let q = p + d;
                    if self.region.contains(q) {
                        next[self.region.linear_index(q)] = true;
                    }
                }
            }
            self.flags = next;
        }
    }
}

/// Refinement criteria applied to a patch's fields to produce flags.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RefineCriterion {
    /// Flag cells where the max absolute one-sided difference of field `field`
    /// over the 6 face neighbours exceeds `threshold`.
    Gradient { field: usize, threshold: f64 },
    /// Flag cells where field `field` exceeds `threshold`.
    Overdensity { field: usize, threshold: f64 },
    /// Flag cells where the relative slope (|Δu| / (|u| + eps)) exceeds
    /// `threshold` — scale-free shock detector.
    RelativeSlope { field: usize, threshold: f64, eps: f64 },
}

/// Row-based evaluation of the face-difference criteria for fields with at
/// least one ghost layer: every face neighbour of an interior cell is then
/// inside storage, so the per-cell containment checks vanish and the 3D→1D
/// index math reduces to six constant offsets applied along each z-row. The
/// neighbour fold runs in `FACE_NEIGHBORS` order, exactly like the per-cell
/// fallback in [`flag_cells`], so the produced flags are identical.
fn flag_face_diff(f: &Field3, flags: &mut FlagField, mut pred: impl FnMut(f64, f64) -> bool) {
    let interior = f.interior();
    let sto = f.storage_region();
    let sz = sto.hi.z - sto.lo.z;
    let sxy = (sto.hi.y - sto.lo.y) * sz;
    let offs: [i64; 6] = FACE_NEIGHBORS.map(|d| d.x * sxy + d.y * sz + d.z);
    let data = f.data();
    for x in interior.lo.x..interior.hi.x {
        for y in interior.lo.y..interior.hi.y {
            let base = sto.linear_index(ivec3(x, y, interior.lo.z)) as i64;
            for k in 0..interior.hi.z - interior.lo.z {
                let i = base + k;
                let u = data[i as usize];
                let mut g: f64 = 0.0;
                for off in offs {
                    g = g.max((data[(i + off) as usize] - u).abs());
                }
                if pred(g, u) {
                    flags.set(ivec3(x, y, interior.lo.z + k), true);
                }
            }
        }
    }
}

/// Evaluate `criteria` on `fields` (all over the same interior region) and
/// return the union of the produced flags.
pub fn flag_cells(fields: &[Field3], criteria: &[RefineCriterion]) -> FlagField {
    assert!(!fields.is_empty());
    let interior = fields[0].interior();
    let mut flags = FlagField::new(interior);
    for c in criteria {
        match *c {
            RefineCriterion::Gradient { field, threshold } => {
                let f = &fields[field];
                if f.ghost() >= 1 {
                    flag_face_diff(f, &mut flags, |g, _| g > threshold);
                    continue;
                }
                for p in interior.iter_cells() {
                    let u = f.get(p);
                    let mut g: f64 = 0.0;
                    for d in FACE_NEIGHBORS {
                        let q = p + d;
                        if f.storage_region().contains(q) {
                            g = g.max((f.get(q) - u).abs());
                        }
                    }
                    if g > threshold {
                        flags.set(p, true);
                    }
                }
            }
            RefineCriterion::Overdensity { field, threshold } => {
                let f = &fields[field];
                let sto = f.storage_region();
                let data = f.data();
                for x in interior.lo.x..interior.hi.x {
                    for y in interior.lo.y..interior.hi.y {
                        let row = sto.row_range(x, y, interior.lo.z, interior.hi.z);
                        for (k, &v) in data[row].iter().enumerate() {
                            if v > threshold {
                                flags.set(ivec3(x, y, interior.lo.z + k as i64), true);
                            }
                        }
                    }
                }
            }
            RefineCriterion::RelativeSlope { field, threshold, eps } => {
                let f = &fields[field];
                if f.ghost() >= 1 {
                    flag_face_diff(f, &mut flags, |g, u| g / (u.abs() + eps) > threshold);
                    continue;
                }
                for p in interior.iter_cells() {
                    let u = f.get(p);
                    let mut g: f64 = 0.0;
                    for d in FACE_NEIGHBORS {
                        let q = p + d;
                        if f.storage_region().contains(q) {
                            g = g.max((f.get(q) - u).abs());
                        }
                    }
                    if g / (u.abs() + eps) > threshold {
                        flags.set(p, true);
                    }
                }
            }
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::region;

    #[test]
    fn set_get_count() {
        let mut f = FlagField::new(Region::cube(4));
        assert_eq!(f.count(), 0);
        f.set(ivec3(1, 1, 1), true);
        f.set(ivec3(2, 3, 0), true);
        assert_eq!(f.count(), 2);
        assert!(f.get(ivec3(1, 1, 1)));
        assert!(!f.get(ivec3(0, 0, 0)));
        // outside region reads false
        assert!(!f.get(ivec3(-1, 0, 0)));
    }

    #[test]
    fn bounding_box_tight() {
        let mut f = FlagField::new(Region::cube(8));
        f.set(ivec3(2, 3, 4), true);
        f.set(ivec3(5, 3, 4), true);
        assert_eq!(
            f.bounding_box(),
            region(ivec3(2, 3, 4), ivec3(6, 4, 5))
        );
        let clear = FlagField::new(Region::cube(4));
        assert!(clear.bounding_box().is_empty());
    }

    #[test]
    fn row_based_criteria_match_per_cell_form() {
        let interior = region(ivec3(-2, 1, 0), ivec3(5, 7, 6));
        let mut f = Field3::zeros(interior, 1);
        let mut s = 99u64;
        for v in f.data_mut() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0;
        }
        let criteria = [
            RefineCriterion::Gradient { field: 0, threshold: 0.8 },
            RefineCriterion::RelativeSlope { field: 0, threshold: 0.5, eps: 1e-8 },
            RefineCriterion::Overdensity { field: 0, threshold: 1.2 },
        ];
        let fast = flag_cells(std::slice::from_ref(&f), &criteria);
        // the per-cell form the row kernels replaced
        let mut slow = FlagField::new(interior);
        for p in interior.iter_cells() {
            let u = f.get(p);
            let mut g: f64 = 0.0;
            for d in FACE_NEIGHBORS {
                g = g.max((f.get(p + d) - u).abs());
            }
            if g > 0.8 || g / (u.abs() + 1e-8) > 0.5 || u > 1.2 {
                slow.set(p, true);
            }
        }
        for p in interior.iter_cells() {
            assert_eq!(fast.get(p), slow.get(p), "at {p:?}");
        }
        assert!(fast.count() > 0, "scrambled field must flag something");
    }

    #[test]
    fn buffering_spreads_to_neighbors() {
        let mut f = FlagField::new(Region::cube(5));
        f.set(ivec3(2, 2, 2), true);
        f.buffer(1);
        assert_eq!(f.count(), 7); // center + 6 faces
        assert!(f.get(ivec3(1, 2, 2)));
        assert!(!f.get(ivec3(1, 1, 2))); // diagonal untouched
        f.buffer(1);
        assert!(f.get(ivec3(0, 2, 2)));
        assert!(f.get(ivec3(1, 1, 2)));
    }

    #[test]
    fn buffer_clips_at_region_edge() {
        let mut f = FlagField::new(Region::cube(2));
        f.set(ivec3(0, 0, 0), true);
        f.buffer(5);
        assert_eq!(f.count(), 8); // fills the whole 2^3 region, no panic
    }

    #[test]
    fn gradient_criterion_flags_jump() {
        // step in x: u = 0 for x<2, 10 for x>=2
        let mut fld = Field3::zeros(Region::cube(4), 1);
        fld.map_interior(|p, _| if p.x >= 2 { 10.0 } else { 0.0 });
        fld.fill_ghosts_zero_gradient();
        let flags = flag_cells(
            std::slice::from_ref(&fld),
            &[RefineCriterion::Gradient { field: 0, threshold: 5.0 }],
        );
        // cells adjacent to the jump plane flagged on both sides
        assert!(flags.get(ivec3(1, 0, 0)));
        assert!(flags.get(ivec3(2, 0, 0)));
        assert!(!flags.get(ivec3(0, 0, 0)));
        assert!(!flags.get(ivec3(3, 0, 0)));
    }

    #[test]
    fn overdensity_criterion() {
        let mut fld = Field3::zeros(Region::cube(3), 0);
        fld.set(ivec3(1, 1, 1), 4.0);
        let flags = flag_cells(
            std::slice::from_ref(&fld),
            &[RefineCriterion::Overdensity { field: 0, threshold: 2.0 }],
        );
        assert_eq!(flags.count(), 1);
        assert!(flags.get(ivec3(1, 1, 1)));
    }

    #[test]
    fn union_of_criteria() {
        let mut a = Field3::zeros(Region::cube(3), 0);
        a.set(ivec3(0, 0, 0), 9.0);
        let mut b = Field3::zeros(Region::cube(3), 0);
        b.set(ivec3(2, 2, 2), 9.0);
        let flags = flag_cells(
            &[a, b],
            &[
                RefineCriterion::Overdensity { field: 0, threshold: 5.0 },
                RefineCriterion::Overdensity { field: 1, threshold: 5.0 },
            ],
        );
        assert!(flags.get(ivec3(0, 0, 0)));
        assert!(flags.get(ivec3(2, 2, 2)));
        assert_eq!(flags.count(), 2);
    }
}
