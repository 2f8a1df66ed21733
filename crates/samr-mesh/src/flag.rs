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

    /// The mask's z-rows in `(x, y)` order, each as long as the region's z
    /// extent: the unit the flagging kernels write.
    fn rows_mut(&mut self) -> impl Iterator<Item = ((i64, i64), &mut [bool])> {
        let r = self.region;
        let columns = (r.lo.x..r.hi.x).flat_map(move |x| (r.lo.y..r.hi.y).map(move |y| (x, y)));
        columns.zip(self.flags.chunks_exact_mut((r.hi.z - r.lo.z) as usize))
    }

    /// Number of flagged cells.
    pub fn count(&self) -> i64 {
        self.flags.iter().filter(|&&f| f).count() as i64
    }

    /// Tight bounding box of flagged cells (`Region::EMPTY` when clear).
    pub fn bounding_box(&self) -> Region {
        self.signatures(&self.region).tight_box()
    }

    /// Count flagged cells within `window`.
    pub fn count_in(&self, window: &Region) -> i64 {
        self.signatures(window).planes[0].iter().sum()
    }

    /// Per-plane flag counts of `window` (clipped to the region), in one
    /// pass over its z-rows: each row adds itself into the z signature and
    /// its flag count into one x and one y plane.
    pub(crate) fn signatures(&self, window: &Region) -> Signatures {
        let w = window.intersect(&self.region);
        let s = w.size().max(IVec3::ZERO);
        let mut planes = [
            vec![0i64; s.x as usize],
            vec![0i64; s.y as usize],
            vec![0i64; s.z as usize],
        ];
        let [px, py, pz] = &mut planes;
        for (i, x) in (w.lo.x..w.hi.x).enumerate() {
            for (j, y) in (w.lo.y..w.hi.y).enumerate() {
                let mut n = 0;
                let row = &self.flags[self.region.row_range(x, y, w.lo.z, w.hi.z)];
                for (c, &f) in pz.iter_mut().zip(row) {
                    *c += f as i64;
                    n += f as i64;
                }
                px[i] += n;
                py[j] += n;
            }
        }
        Signatures { window: w, planes }
    }

    /// Expand every flag to its face neighbours, `buffer` times, clipped to
    /// the region. Buffering keeps features inside refined grids between
    /// regrids.
    ///
    /// Face-neighbour dilation is symmetric (`q` is a neighbour of `p` iff
    /// `p` is one of `q`), so each cell *gathers* its own flag and its
    /// neighbours' instead of every flag scattering to its neighbours. In
    /// the z-fastest layout the gather is six shifted ORs of the mask: ±1
    /// (z, then the two cells per row that took a flag across a row end are
    /// recomputed), ±row within each x-slab (y), ±slab over the whole mask
    /// (x) — each one slice long, none per cell.
    pub fn buffer(&mut self, buffer: usize) {
        let s = self.region.size();
        let (nz, nyz) = (s.z as usize, (s.y * s.z) as usize);
        let n = self.flags.len();
        let mut next = vec![false; n];
        for _ in 0..buffer {
            let cur = &self.flags;
            next.copy_from_slice(cur);
            or_into(&mut next[1..], &cur[..n - 1]);
            or_into(&mut next[..n - 1], &cur[1..]);
            for (dst, src) in next.chunks_exact_mut(nz).zip(cur.chunks_exact(nz)) {
                dst[0] = src[0] || (nz > 1 && src[1]);
                dst[nz - 1] = src[nz - 1] || (nz > 1 && src[nz - 2]);
            }
            for (dst, src) in next.chunks_exact_mut(nyz).zip(cur.chunks_exact(nyz)) {
                or_into(&mut dst[nz..], &src[..nyz - nz]);
                or_into(&mut dst[..nyz - nz], &src[nz..]);
            }
            or_into(&mut next[nyz..], &cur[..n - nyz]);
            or_into(&mut next[..n - nyz], &cur[nyz..]);
            std::mem::swap(&mut self.flags, &mut next);
        }
    }
}

/// `dst[i] |= src[i]` over two equal-length slices.
#[inline]
fn or_into(dst: &mut [bool], src: &[bool]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Per-plane flag counts of a window: `planes[axis][i]` is the number of
/// flags in plane `window.lo[axis] + i`.
pub(crate) struct Signatures {
    pub(crate) window: Region,
    pub(crate) planes: [Vec<i64>; 3],
}

impl Signatures {
    /// The tight box of the counted flags: the first and last non-zero
    /// plane on each axis (`Region::EMPTY` when the window holds none).
    pub(crate) fn tight_box(&self) -> Region {
        let mut lo = self.window.lo;
        let mut hi = self.window.lo;
        for (axis, plane) in self.planes.iter().enumerate() {
            let Some(first) = plane.iter().position(|&c| c != 0) else {
                return Region::EMPTY;
            };
            let last = plane.iter().rposition(|&c| c != 0).unwrap_or(first);
            lo[axis] += first as i64;
            hi[axis] += last as i64 + 1;
        }
        Region { lo, hi }
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
/// index math reduces to six constant offsets applied along each z-row, and
/// the row's flags are written through one slice of the mask — only where
/// a cell is flagged, so a page of the fresh mask that holds no flag is
/// never touched. The neighbour fold runs in `FACE_NEIGHBORS` order,
/// exactly like the per-cell form in [`flag_face_diff`], so the produced
/// flags are identical.
fn flag_face_diff_rows(f: &Field3, flags: &mut FlagField, pred: impl Fn(f64, f64) -> bool) {
    let interior = f.interior();
    let sto = f.storage_region();
    let sz = sto.hi.z - sto.lo.z;
    let sxy = (sto.hi.y - sto.lo.y) * sz;
    let offs: [i64; 6] = FACE_NEIGHBORS.map(|d| d.x * sxy + d.y * sz + d.z);
    let data = f.data();
    for ((x, y), out) in flags.rows_mut() {
        let base = sto.linear_index(ivec3(x, y, interior.lo.z)) as i64;
        for (k, flag) in out.iter_mut().enumerate() {
            let i = base + k as i64;
            let u = data[i as usize];
            let mut g: f64 = 0.0;
            for off in offs {
                g = max_keeping_nan(g, (data[(i + off) as usize] - u).abs());
            }
            if pred(g, u) {
                *flag = true;
            }
        }
    }
}

/// Flag the cells of `f`'s interior where `pred(g, u)` holds, `u` the
/// cell's value and `g` the largest absolute difference to a face
/// neighbour in storage — NaN when the cell or a neighbour is. Row-based
/// ([`flag_face_diff_rows`]) when every face neighbour is in storage,
/// cell by cell otherwise.
fn flag_face_diff(f: &Field3, flags: &mut FlagField, pred: impl Fn(f64, f64) -> bool) {
    if f.ghost() >= 1 {
        return flag_face_diff_rows(f, flags, pred);
    }
    for p in f.interior().iter_cells() {
        let u = f.get(p);
        // a NaN cell with no neighbour in storage has no difference to
        // carry its NaN into the fold
        let mut g: f64 = if u.is_nan() { u } else { 0.0 };
        for d in FACE_NEIGHBORS {
            let q = p + d;
            if f.storage_region().contains(q) {
                g = max_keeping_nan(g, (f.get(q) - u).abs());
            }
        }
        if pred(g, u) {
            flags.set(p, true);
        }
    }
}

/// The larger of `g` and `d`, or NaN when either is: `f64::max` returns the
/// other operand of a NaN, so a NaN cell or neighbour would vanish from the
/// fold and never flag.
#[inline]
fn max_keeping_nan(g: f64, d: f64) -> f64 {
    if d > g || d.is_nan() {
        d
    } else {
        g
    }
}

/// Does a criterion's `measure` flag its cell: above `threshold`, or NaN.
#[inline]
fn exceeds(measure: f64, threshold: f64) -> bool {
    measure > threshold || measure.is_nan()
}

/// Evaluate `criteria` on `fields` (all over the same interior region) and
/// return the union of the produced flags. A criterion flags a cell whose
/// measure is NaN — a NaN value, or for the face-difference criteria a NaN
/// face neighbour ([`exceeds`]): a field gone NaN refines where it went bad
/// instead of going unnoticed.
pub fn flag_cells(fields: &[Field3], criteria: &[RefineCriterion]) -> FlagField {
    assert!(!fields.is_empty());
    let interior = fields[0].interior();
    let mut flags = FlagField::new(interior);
    for c in criteria {
        match *c {
            RefineCriterion::Gradient { field, threshold } => {
                flag_face_diff(&fields[field], &mut flags, |g, _| exceeds(g, threshold));
            }
            RefineCriterion::Overdensity { field, threshold } => {
                let f = &fields[field];
                let sto = f.storage_region();
                let data = f.data();
                for ((x, y), out) in flags.rows_mut() {
                    let row = sto.row_range(x, y, interior.lo.z, interior.hi.z);
                    for (flag, &v) in out.iter_mut().zip(&data[row]) {
                        if exceeds(v, threshold) {
                            *flag = true;
                        }
                    }
                }
            }
            RefineCriterion::RelativeSlope { field, threshold, eps } => {
                flag_face_diff(&fields[field], &mut flags, |g, u| {
                    exceeds(g / (u.abs() + eps), threshold)
                });
            }
        }
    }
    flags
}

/// The per-cell forms the row kernels above replaced, retained as oracles
/// for the tests: each cell is read through [`FlagField::get`].
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Reference for [`FlagField::bounding_box`].
    pub fn bounding_box(f: &FlagField) -> Region {
        let mut lo = ivec3(i64::MAX, i64::MAX, i64::MAX);
        let mut hi = ivec3(i64::MIN, i64::MIN, i64::MIN);
        let mut any = false;
        for p in f.region.iter_cells() {
            if f.get(p) {
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

    /// Reference for [`FlagField::count_in`].
    pub fn count_in(f: &FlagField, window: &Region) -> i64 {
        window
            .intersect(&f.region)
            .iter_cells()
            .filter(|&p| f.get(p))
            .count() as i64
    }

    /// Reference for [`flag_cells`]: each criterion's measure cell by cell,
    /// a face neighbour read where storage holds it, and a cell flagged
    /// when its measure exceeds the threshold or is NaN — tracked apart
    /// from the difference fold, not through it.
    pub fn flag_cells(fields: &[Field3], criteria: &[RefineCriterion]) -> FlagField {
        let interior = fields[0].interior();
        let mut flags = FlagField::new(interior);
        // (largest face difference, whether the cell or a difference is
        // NaN, the cell's value)
        let face_diff = |f: &Field3, p: IVec3| {
            let u = f.get(p);
            let (mut g, mut nan) = (0.0f64, u.is_nan());
            for q in FACE_NEIGHBORS.map(|d| p + d) {
                if f.storage_region().contains(q) {
                    let diff = (f.get(q) - u).abs();
                    nan |= diff.is_nan();
                    g = g.max(diff);
                }
            }
            (g, nan, u)
        };
        for p in interior.iter_cells() {
            let flagged = criteria.iter().any(|c| match *c {
                RefineCriterion::Gradient { field, threshold } => {
                    let (g, nan, _) = face_diff(&fields[field], p);
                    nan || g > threshold
                }
                RefineCriterion::Overdensity { field, threshold } => {
                    let v = fields[field].get(p);
                    v.is_nan() || v > threshold
                }
                RefineCriterion::RelativeSlope { field, threshold, eps } => {
                    let (g, nan, u) = face_diff(&fields[field], p);
                    let slope = g / (u.abs() + eps);
                    nan || slope.is_nan() || slope > threshold
                }
            });
            if flagged {
                flags.set(p, true);
            }
        }
        flags
    }

    /// Reference for [`FlagField::buffer`]: every flag scatters to its face
    /// neighbours.
    pub fn buffer(f: &mut FlagField, buffer: usize) {
        for _ in 0..buffer {
            let mut next = f.flags.clone();
            for p in f.region.iter_cells() {
                if !f.get(p) {
                    continue;
                }
                for d in FACE_NEIGHBORS {
                    let q = p + d;
                    if f.region.contains(q) {
                        next[f.region.linear_index(q)] = true;
                    }
                }
            }
            f.flags = next;
        }
    }
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

    /// A uniform field over `r` with `ghost` layers, NaN at each of `nans`.
    fn with_nans(r: Region, ghost: i64, nans: &[IVec3]) -> Field3 {
        let mut f = Field3::constant(r, ghost, 1.0);
        for &p in nans {
            f.set(p, f64::NAN);
        }
        f
    }

    fn flagged(fields: &[Field3], c: RefineCriterion) -> Vec<IVec3> {
        let flags = flag_cells(fields, &[c]);
        let cells: Vec<IVec3> = flags.region.iter_cells().filter(|&p| flags.get(p)).collect();
        let oracle = reference::flag_cells(fields, &[c]);
        assert!(cells.iter().all(|&p| oracle.get(p)) && oracle.count() == cells.len() as i64);
        cells
    }

    /// A NaN cell flags itself and its face neighbours under `Gradient`,
    /// whether the row kernel (ghost 1) or the per-cell form (ghost 0)
    /// runs, and a NaN ghost cell flags the interior cell beside it; the
    /// fold through `f64::max` dropped all of them.
    #[test]
    fn gradient_flags_nan_cells_and_their_face_neighbours() {
        let r = Region::cube(5);
        let c = ivec3(2, 2, 2);
        let mut expected: Vec<IVec3> = std::iter::once(c)
            .chain(FACE_NEIGHBORS.map(|d| c + d))
            .collect();
        expected.sort_by_key(|p| (p.x, p.y, p.z));
        let gradient = RefineCriterion::Gradient { field: 0, threshold: 0.5 };
        for ghost in [0, 1] {
            let f = with_nans(r, ghost, &[c]);
            assert_eq!(flagged(std::slice::from_ref(&f), gradient), expected, "ghost {ghost}");
        }
        let f = with_nans(r, 1, &[ivec3(-1, 3, 1)]);
        assert_eq!(flagged(std::slice::from_ref(&f), gradient), vec![ivec3(0, 3, 1)]);
        // a lone NaN cell with no neighbour in storage
        let f = with_nans(Region::cube(1), 0, &[IVec3::ZERO]);
        assert_eq!(flagged(std::slice::from_ref(&f), gradient), vec![IVec3::ZERO]);
    }

    /// The same under `RelativeSlope`, where a NaN neighbour's slope is NaN.
    #[test]
    fn relative_slope_flags_nan_cells_and_their_face_neighbours() {
        let r = Region::cube(5);
        let c = ivec3(4, 0, 3);
        let mut expected: Vec<IVec3> = std::iter::once(c)
            .chain(FACE_NEIGHBORS.map(|d| c + d))
            .filter(|&p| r.contains(p))
            .collect();
        expected.sort_by_key(|p| (p.x, p.y, p.z));
        let slope = RefineCriterion::RelativeSlope { field: 0, threshold: 0.5, eps: 1e-8 };
        for ghost in [0, 2] {
            let f = with_nans(r, ghost, &[c]);
            assert_eq!(flagged(std::slice::from_ref(&f), slope), expected, "ghost {ghost}");
        }
        let f = with_nans(r, 1, &[ivec3(2, 5, 2)]);
        assert_eq!(flagged(std::slice::from_ref(&f), slope), vec![ivec3(2, 4, 2)]);
    }

    /// `Overdensity` flags a NaN cell, and only it: the criterion reads no
    /// neighbour.
    #[test]
    fn overdensity_flags_a_nan_cell() {
        let r = region(ivec3(-3, 1, 2), ivec3(2, 4, 9));
        let nans = [ivec3(-3, 1, 2), ivec3(0, 2, 8)];
        let over = RefineCriterion::Overdensity { field: 0, threshold: 2.0 };
        for ghost in [0, 1] {
            let f = with_nans(r, ghost, &nans);
            assert_eq!(flagged(std::slice::from_ref(&f), over), nans.to_vec(), "ghost {ghost}");
        }
    }

    /// `flag_cells` flags what the per-cell reference flags, criterion by
    /// criterion and for their union, on scrambled off-origin fields with
    /// NaN and infinite cells scattered over interior and ghosts, for ghost
    /// widths 0 to 2.
    #[test]
    fn flag_cells_matches_the_per_cell_reference_with_nans() {
        let criteria = [
            RefineCriterion::Gradient { field: 0, threshold: 0.7 },
            RefineCriterion::RelativeSlope { field: 1, threshold: 0.6, eps: 1e-8 },
            RefineCriterion::Overdensity { field: 0, threshold: 1.9 },
        ];
        let mut s = 17u64;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for (ghost, r) in [
            (0, region(ivec3(-2, 1, 0), ivec3(5, 7, 6))),
            (1, region(ivec3(3, -4, 2), ivec3(9, 1, 11))),
            (2, region(ivec3(0, 0, -5), ivec3(4, 6, 1))),
        ] {
            let fields: Vec<Field3> = (0..2)
                .map(|_| {
                    let mut f = Field3::zeros(r, ghost);
                    for v in f.data_mut() {
                        let u = next();
                        *v = match u {
                            u if u < 0.02 => f64::NAN,
                            u if u < 0.025 => f64::INFINITY,
                            u => 1.0 + u,
                        };
                    }
                    f
                })
                .collect();
            for c in criteria {
                let fast = flag_cells(&fields, &[c]);
                let slow = reference::flag_cells(&fields, &[c]);
                for p in r.iter_cells() {
                    assert_eq!(fast.get(p), slow.get(p), "{c:?} ghost {ghost} at {p:?}");
                }
            }
            let fast = flag_cells(&fields, &criteria);
            let slow = reference::flag_cells(&fields, &criteria);
            for p in r.iter_cells() {
                assert_eq!(fast.get(p), slow.get(p), "union, ghost {ghost} at {p:?}");
            }
            assert!(fast.count() > 0 && fast.count() < r.cells(), "ghost {ghost}");
        }
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
