//! Axis-aligned half-open boxes of cells — the region algebra underneath
//! every grid-hierarchy operation.
//!
//! A [`Region`] is the set of cells `{ (x,y,z) : lo <= (x,y,z) < hi }` at a
//! given level's resolution. All operations are exact integer arithmetic.

use crate::index::{ivec3, IVec3};
use std::fmt;

/// A half-open axis-aligned box of cells: `lo` inclusive, `hi` exclusive.
///
/// An *empty* region has `hi[k] <= lo[k]` on some axis; empty regions compare
/// equal in spirit (all represent "no cells") but retain their coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    pub lo: IVec3,
    pub hi: IVec3,
}

base::json_struct!(Region: lo, hi);

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?} .. {:?})", self.lo, self.hi)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {})", self.lo, self.hi)
    }
}

/// Shorthand constructor for [`Region`].
pub const fn region(lo: IVec3, hi: IVec3) -> Region {
    Region { lo, hi }
}

impl Region {
    /// The canonical empty region.
    pub const EMPTY: Region = region(IVec3::ZERO, IVec3::ZERO);

    /// A cube `[0, n)^3`.
    pub fn cube(n: i64) -> Region {
        region(IVec3::ZERO, IVec3::splat(n))
    }

    /// Construct from corner plus extent.
    pub fn at(lo: IVec3, size: IVec3) -> Region {
        region(lo, lo + size)
    }

    /// Extent on each axis (may have non-positive components when empty).
    pub fn size(&self) -> IVec3 {
        self.hi - self.lo
    }

    /// Number of cells; 0 for empty regions.
    pub fn cells(&self) -> i64 {
        let s = self.size();
        if s.x <= 0 || s.y <= 0 || s.z <= 0 {
            0
        } else {
            s.product()
        }
    }

    /// `true` if the region contains no cells.
    pub fn is_empty(&self) -> bool {
        self.cells() == 0
    }

    /// `true` if cell `p` lies inside this region.
    pub fn contains(&self, p: IVec3) -> bool {
        self.lo.all_le(p) && p.all_lt(self.hi)
    }

    /// `true` if `other` is entirely inside `self` (empty regions are
    /// contained in everything).
    pub fn contains_region(&self, other: &Region) -> bool {
        other.is_empty() || (self.lo.all_le(other.lo) && other.hi.all_le(self.hi))
    }

    /// Intersection; empty if the boxes do not overlap.
    pub fn intersect(&self, other: &Region) -> Region {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        let r = region(lo, hi);
        if r.cells() == 0 {
            Region::EMPTY
        } else {
            r
        }
    }

    /// `true` if the two regions share at least one cell.
    pub fn overlaps(&self, other: &Region) -> bool {
        !self.intersect(other).is_empty()
    }

    /// The smallest region containing both (bounding box, not set union).
    pub fn hull(&self, other: &Region) -> Region {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        region(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Grow by `g` cells on every face (shrink if negative).
    pub fn grow(&self, g: i64) -> Region {
        self.grow_by(IVec3::splat(g))
    }

    /// Grow by `g[k]` cells on both faces normal to axis `k`.
    pub fn grow_by(&self, g: IVec3) -> Region {
        region(self.lo - g, self.hi + g)
    }

    /// Translate by `d`.
    pub fn shift(&self, d: IVec3) -> Region {
        region(self.lo + d, self.hi + d)
    }

    /// Map to the next finer level: every cell becomes an `r^3` block.
    pub fn refine(&self, r: i64) -> Region {
        debug_assert!(r >= 1);
        region(self.lo * r, self.hi * r)
    }

    /// Map to the next coarser level: the smallest coarse region covering
    /// `self` (outer coarsening).
    pub fn coarsen(&self, r: i64) -> Region {
        debug_assert!(r >= 1);
        if self.is_empty() {
            return Region::EMPTY;
        }
        region(self.lo.div_floor(r), self.hi.div_ceil(r))
    }

    /// Split into two halves at plane `cut` (level-local coordinate) normal to
    /// `axis`. `cut` must satisfy `lo[axis] < cut < hi[axis]` for both halves
    /// to be non-empty.
    pub fn split_at(&self, axis: usize, cut: i64) -> (Region, Region) {
        let mut a = *self;
        let mut b = *self;
        a.hi[axis] = cut.clamp(self.lo[axis], self.hi[axis]);
        b.lo[axis] = cut.clamp(self.lo[axis], self.hi[axis]);
        (a, b)
    }

    /// Split into two halves of (nearly) equal cell count along the longest
    /// axis. The left half is never larger than the right by more than one
    /// plane of cells.
    pub fn bisect(&self) -> (Region, Region) {
        let axis = self.size().longest_axis();
        let cut = self.lo[axis] + self.size()[axis] / 2;
        self.split_at(axis, cut)
    }

    /// Split off a leading slab of exactly `want` cells (or as close as a
    /// whole number of planes allows, rounding to the nearest plane but
    /// keeping both parts non-empty when possible).
    ///
    /// Returns `(slab, rest)`. Used by partitioners to move a precise amount
    /// of work across a group boundary (Fig. 6 of the paper).
    pub fn split_cells(&self, want: i64, axis: usize) -> (Region, Region) {
        let sz = self.size();
        if self.is_empty() || want <= 0 {
            return (Region::EMPTY, *self);
        }
        if want >= self.cells() {
            return (*self, Region::EMPTY);
        }
        let plane = match axis {
            0 => sz.y * sz.z,
            1 => sz.x * sz.z,
            _ => sz.x * sz.y,
        };
        // nearest whole number of planes, at least 1, at most extent-1
        let mut n = (want + plane / 2) / plane;
        n = n.clamp(1, sz[axis] - 1);
        self.split_at(axis, self.lo[axis] + n)
    }

    /// Subtract `other`, returning up to 6 disjoint boxes that exactly cover
    /// `self \ other`.
    pub fn subtract(&self, other: &Region) -> Vec<Region> {
        let mut out = Vec::with_capacity(6);
        self.subtract_into(other, &mut out);
        out
    }

    /// [`Region::subtract`], appending the boxes to `out`.
    fn subtract_into(&self, other: &Region, out: &mut Vec<Region>) {
        let inter = self.intersect(other);
        if inter.is_empty() {
            if !self.is_empty() {
                out.push(*self);
            }
            return;
        }
        let mut rem = *self;
        // Peel slabs on each axis around the intersection.
        for axis in 0..3 {
            if rem.lo[axis] < inter.lo[axis] {
                let (slab, rest) = rem.split_at(axis, inter.lo[axis]);
                out.push(slab);
                rem = rest;
            }
            if inter.hi[axis] < rem.hi[axis] {
                let (rest, slab) = rem.split_at(axis, inter.hi[axis]);
                out.push(slab);
                rem = rest;
            }
        }
        debug_assert_eq!(rem, inter);
    }

    /// Subtract every box of `others`, returning disjoint boxes that exactly
    /// cover `self \ ⋃ others` — the cells of `self` no other box writes.
    pub fn subtract_all<'a>(&self, others: impl IntoIterator<Item = &'a Region>) -> Vec<Region> {
        let mut rem = if self.is_empty() { vec![] } else { vec![*self] };
        let mut next = Vec::new();
        for o in others {
            if rem.is_empty() {
                break;
            }
            next.clear();
            for b in &rem {
                b.subtract_into(o, &mut next);
            }
            std::mem::swap(&mut rem, &mut next);
        }
        rem
    }

    /// Iterate over all cells in deterministic (z-inner) order.
    pub fn iter_cells(self) -> impl Iterator<Item = IVec3> {
        let r = self;
        let empty = r.is_empty();
        (r.lo.x..r.hi.x)
            .flat_map(move |x| {
                (r.lo.y..r.hi.y).flat_map(move |y| (r.lo.z..r.hi.z).map(move |z| ivec3(x, y, z)))
            })
            .filter(move |_| !empty)
    }

    /// Linear index of cell `p` within this region (z fastest), for field
    /// storage. `p` must be inside.
    pub fn linear_index(&self, p: IVec3) -> usize {
        debug_assert!(self.contains(p), "{p:?} not in {self:?}");
        let s = self.size();
        let d = p - self.lo;
        ((d.x * s.y + d.y) * s.z + d.z) as usize
    }

    /// Index range of the z-contiguous row `(x, y, z0..z1)` in this region's
    /// linear (z fastest) layout. The row must lie inside the region; rows
    /// are the unit the sliced field kernels operate on (index math done
    /// once per row instead of once per cell).
    #[inline]
    pub fn row_range(&self, x: i64, y: i64, z0: i64, z1: i64) -> std::ops::Range<usize> {
        debug_assert!(z0 <= z1);
        let start = self.linear_index(ivec3(x, y, z0));
        start..start + (z1 - z0) as usize
    }
}

/// Total cell count of a list of regions (regions assumed disjoint).
pub fn total_cells(regions: &[Region]) -> i64 {
    regions.iter().map(|r| r.cells()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(l: (i64, i64, i64), h: (i64, i64, i64)) -> Region {
        region(ivec3(l.0, l.1, l.2), ivec3(h.0, h.1, h.2))
    }

    #[test]
    fn cells_and_empty() {
        assert_eq!(Region::cube(4).cells(), 64);
        assert!(Region::EMPTY.is_empty());
        assert!(r((0, 0, 0), (0, 5, 5)).is_empty());
        assert!(r((3, 0, 0), (2, 5, 5)).is_empty());
    }

    #[test]
    fn contains_cells_and_regions() {
        let a = r((0, 0, 0), (4, 4, 4));
        assert!(a.contains(ivec3(0, 0, 0)));
        assert!(a.contains(ivec3(3, 3, 3)));
        assert!(!a.contains(ivec3(4, 0, 0)));
        assert!(a.contains_region(&r((1, 1, 1), (3, 3, 3))));
        assert!(a.contains_region(&Region::EMPTY));
        assert!(!a.contains_region(&r((1, 1, 1), (5, 3, 3))));
    }

    #[test]
    fn intersection_cases() {
        let a = r((0, 0, 0), (4, 4, 4));
        let b = r((2, 2, 2), (6, 6, 6));
        assert_eq!(a.intersect(&b), r((2, 2, 2), (4, 4, 4)));
        assert!(a.overlaps(&b));
        let c = r((4, 0, 0), (8, 4, 4)); // face-adjacent, no shared cells
        assert!(!a.overlaps(&c));
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn hull_bounds_both() {
        let a = r((0, 0, 0), (2, 2, 2));
        let b = r((5, 5, 5), (6, 6, 6));
        let h = a.hull(&b);
        assert!(h.contains_region(&a) && h.contains_region(&b));
        assert_eq!(h, r((0, 0, 0), (6, 6, 6)));
        assert_eq!(a.hull(&Region::EMPTY), a);
        assert_eq!(Region::EMPTY.hull(&b), b);
    }

    #[test]
    fn refine_coarsen_roundtrip() {
        let a = r((1, 2, 3), (4, 5, 6));
        assert_eq!(a.refine(2).coarsen(2), a);
        // outer coarsening covers the original region
        let odd = r((1, 1, 1), (3, 3, 3));
        let c = odd.coarsen(2);
        assert!(c.refine(2).contains_region(&odd));
        assert_eq!(c, r((0, 0, 0), (2, 2, 2)));
    }

    #[test]
    fn bisect_balanced_and_covering() {
        let a = r((0, 0, 0), (8, 4, 4));
        let (l, rr) = a.bisect();
        assert_eq!(l.cells() + rr.cells(), a.cells());
        assert_eq!(l.cells(), rr.cells());
        assert!(!l.overlaps(&rr));
        assert_eq!(l.hull(&rr), a);
    }

    #[test]
    fn split_cells_moves_requested_amount() {
        let a = r((0, 0, 0), (10, 4, 4)); // plane = 16 cells
        let (slab, rest) = a.split_cells(32, 0);
        assert_eq!(slab.cells(), 32);
        assert_eq!(rest.cells(), a.cells() - 32);
        // rounding to nearest plane
        let (slab, _) = a.split_cells(40, 0); // 2.5 planes -> 2 or 3
        assert!(slab.cells() == 32 || slab.cells() == 48);
        // degenerate requests
        assert_eq!(a.split_cells(0, 0).0, Region::EMPTY);
        assert_eq!(a.split_cells(10_000, 0).1, Region::EMPTY);
        // never returns empty halves for interior requests
        let (s, rst) = a.split_cells(1, 0);
        assert!(!s.is_empty() && !rst.is_empty());
    }

    #[test]
    fn subtract_exact_cover() {
        let a = r((0, 0, 0), (4, 4, 4));
        let b = r((1, 1, 1), (3, 3, 3));
        let parts = a.subtract(&b);
        let total: i64 = parts.iter().map(|p| p.cells()).sum();
        assert_eq!(total, a.cells() - b.cells());
        for (i, p) in parts.iter().enumerate() {
            assert!(!p.overlaps(&b));
            assert!(a.contains_region(p));
            for q in &parts[i + 1..] {
                assert!(!p.overlaps(q));
            }
        }
        // disjoint case
        assert_eq!(a.subtract(&r((9, 9, 9), (10, 10, 10))), vec![a]);
        // full cover case
        assert!(a.subtract(&a).is_empty());
    }

    #[test]
    fn subtract_all_leaves_exactly_the_uncovered_cells() {
        let a = r((0, 0, 0), (8, 6, 5));
        // overlapping each other, poking outside, abutting, and disjoint
        let others = [
            r((-2, -2, -2), (3, 3, 3)),
            r((2, 2, 2), (5, 7, 4)),
            r((8, 0, 0), (9, 6, 5)),
            r((6, 5, 4), (8, 6, 5)),
            r((20, 20, 20), (21, 21, 21)),
        ];
        let parts = a.subtract_all(&others);
        for (i, p) in parts.iter().enumerate() {
            assert!(a.contains_region(p) && !p.is_empty());
            assert!(others.iter().all(|o| !p.overlaps(o)));
            assert!(parts[i + 1..].iter().all(|q| !p.overlaps(q)));
        }
        let uncovered = a
            .iter_cells()
            .filter(|&c| others.iter().all(|o| !o.contains(c)))
            .count() as i64;
        assert_eq!(total_cells(&parts), uncovered);
        assert_eq!(a.subtract_all(&[]), vec![a]);
        assert!(a.subtract_all(&[a.grow(1)]).is_empty());
    }

    #[test]
    fn linear_index_bijective() {
        let a = r((1, 2, 3), (3, 5, 7));
        let mut seen = vec![false; a.cells() as usize];
        for c in a.iter_cells() {
            let i = a.linear_index(c);
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn grow_and_shift() {
        let a = r((2, 2, 2), (4, 4, 4));
        assert_eq!(a.grow(1), r((1, 1, 1), (5, 5, 5)));
        assert_eq!(a.grow(1).grow(-1), a);
        assert_eq!(a.shift(ivec3(1, -1, 0)), r((3, 1, 2), (5, 3, 4)));
    }
}
