//! Integer index vectors for 3-D structured grids.
//!
//! All mesh coordinates are *level-local integer cell indices*: at level `l`
//! one cell spans `h0 / r^l` in physical space, where `r` is the refinement
//! factor. Keeping indices integral makes region algebra exact and makes the
//! whole simulation deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3-component integer vector used for cell indices and extents.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct IVec3 {
    pub x: i64,
    pub y: i64,
    pub z: i64,
}

base::json_struct!(IVec3: x, y, z);

impl fmt::Debug for IVec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl fmt::Display for IVec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// Shorthand constructor for [`IVec3`].
pub const fn ivec3(x: i64, y: i64, z: i64) -> IVec3 {
    IVec3 { x, y, z }
}

impl IVec3 {
    pub const ZERO: IVec3 = ivec3(0, 0, 0);
    pub const ONE: IVec3 = ivec3(1, 1, 1);

    /// All three components set to `v`.
    pub const fn splat(v: i64) -> Self {
        ivec3(v, v, v)
    }

    /// Component-wise minimum.
    pub fn min(self, o: Self) -> Self {
        ivec3(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    pub fn max(self, o: Self) -> Self {
        ivec3(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Product of the components; the cell count of an extent.
    ///
    /// Saturates instead of wrapping so pathological extents fail loudly in
    /// comparisons rather than silently aliasing.
    pub fn product(self) -> i64 {
        self.x.saturating_mul(self.y).saturating_mul(self.z)
    }

    /// `true` if every component of `self` is strictly less than `o`'s.
    pub fn all_lt(self, o: Self) -> bool {
        self.x < o.x && self.y < o.y && self.z < o.z
    }

    /// `true` if every component of `self` is less than or equal to `o`'s.
    pub fn all_le(self, o: Self) -> bool {
        self.x <= o.x && self.y <= o.y && self.z <= o.z
    }

    /// Floor division by a positive scalar (rounds toward negative infinity),
    /// the coarsening map for lower box corners.
    pub fn div_floor(self, d: i64) -> Self {
        debug_assert!(d > 0);
        ivec3(
            self.x.div_euclid(d),
            self.y.div_euclid(d),
            self.z.div_euclid(d),
        )
    }

    /// Ceiling division by a positive scalar, the coarsening map for upper
    /// (exclusive) box corners.
    pub fn div_ceil(self, d: i64) -> Self {
        debug_assert!(d > 0);
        ivec3(
            (self.x + d - 1).div_euclid(d),
            (self.y + d - 1).div_euclid(d),
            (self.z + d - 1).div_euclid(d),
        )
    }

    /// The axis (0 = x, 1 = y, 2 = z) with the largest component.
    pub fn longest_axis(self) -> usize {
        if self.x >= self.y && self.x >= self.z {
            0
        } else if self.y >= self.z {
            1
        } else {
            2
        }
    }

    /// Sum of components.
    pub fn sum(self) -> i64 {
        self.x + self.y + self.z
    }

    /// Component-wise absolute value.
    pub fn abs(self) -> Self {
        ivec3(self.x.abs(), self.y.abs(), self.z.abs())
    }
}

impl Index<usize> for IVec3 {
    type Output = i64;
    fn index(&self, i: usize) -> &i64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("IVec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for IVec3 {
    fn index_mut(&mut self, i: usize) -> &mut i64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("IVec3 index out of range: {i}"),
        }
    }
}

impl Add for IVec3 {
    type Output = IVec3;
    fn add(self, o: IVec3) -> IVec3 {
        ivec3(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for IVec3 {
    fn add_assign(&mut self, o: IVec3) {
        *self = *self + o;
    }
}

impl Sub for IVec3 {
    type Output = IVec3;
    fn sub(self, o: IVec3) -> IVec3 {
        ivec3(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for IVec3 {
    fn sub_assign(&mut self, o: IVec3) {
        *self = *self - o;
    }
}

impl Mul<i64> for IVec3 {
    type Output = IVec3;
    fn mul(self, s: i64) -> IVec3 {
        ivec3(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<i64> for IVec3 {
    type Output = IVec3;
    /// Truncating division; use [`IVec3::div_floor`]/[`IVec3::div_ceil`] for
    /// box-corner coarsening.
    fn div(self, s: i64) -> IVec3 {
        ivec3(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for IVec3 {
    type Output = IVec3;
    fn neg(self) -> IVec3 {
        ivec3(-self.x, -self.y, -self.z)
    }
}

/// The 6 face-neighbour offsets (±x, ±y, ±z).
pub const FACE_NEIGHBORS: [IVec3; 6] = [
    ivec3(-1, 0, 0),
    ivec3(1, 0, 0),
    ivec3(0, -1, 0),
    ivec3(0, 1, 0),
    ivec3(0, 0, -1),
    ivec3(0, 0, 1),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_basics() {
        let a = ivec3(1, 2, 3);
        let b = ivec3(4, 5, 6);
        assert_eq!(a + b, ivec3(5, 7, 9));
        assert_eq!(b - a, ivec3(3, 3, 3));
        assert_eq!(a * 2, ivec3(2, 4, 6));
        assert_eq!(-a, ivec3(-1, -2, -3));
        assert_eq!(a.product(), 6);
        assert_eq!(a.sum(), 6);
    }

    #[test]
    fn min_max_component_wise() {
        let a = ivec3(1, 9, 3);
        let b = ivec3(4, 2, 8);
        assert_eq!(a.min(b), ivec3(1, 2, 3));
        assert_eq!(a.max(b), ivec3(4, 9, 8));
    }

    #[test]
    fn div_floor_rounds_toward_neg_infinity() {
        assert_eq!(ivec3(-3, -2, -1).div_floor(2), ivec3(-2, -1, -1));
        assert_eq!(ivec3(3, 2, 1).div_floor(2), ivec3(1, 1, 0));
    }

    #[test]
    fn div_ceil_rounds_toward_pos_infinity() {
        assert_eq!(ivec3(3, 2, 1).div_ceil(2), ivec3(2, 1, 1));
        assert_eq!(ivec3(-3, -2, -1).div_ceil(2), ivec3(-1, -1, 0));
        assert_eq!(ivec3(4, 4, 4).div_ceil(2), ivec3(2, 2, 2));
    }

    #[test]
    fn floor_ceil_consistent_with_refine() {
        // coarsen(refine(v)) must be the identity for both corner maps.
        for v in [ivec3(0, 1, 2), ivec3(-5, 7, 13)] {
            assert_eq!((v * 4).div_floor(4), v);
            assert_eq!((v * 4).div_ceil(4), v);
        }
    }

    #[test]
    fn longest_axis_picks_largest() {
        assert_eq!(ivec3(5, 1, 1).longest_axis(), 0);
        assert_eq!(ivec3(1, 5, 1).longest_axis(), 1);
        assert_eq!(ivec3(1, 1, 5).longest_axis(), 2);
        // ties prefer lower axis index
        assert_eq!(ivec3(5, 5, 5).longest_axis(), 0);
    }

    #[test]
    fn indexing_matches_fields() {
        let v = ivec3(7, 8, 9);
        assert_eq!(v[0], 7);
        assert_eq!(v[1], 8);
        assert_eq!(v[2], 9);
        let mut m = v;
        m[1] = 42;
        assert_eq!(m, ivec3(7, 42, 9));
    }

    #[test]
    fn comparisons() {
        assert!(ivec3(0, 0, 0).all_lt(ivec3(1, 1, 1)));
        assert!(!ivec3(0, 1, 0).all_lt(ivec3(1, 1, 1)));
        assert!(ivec3(1, 1, 1).all_le(ivec3(1, 1, 1)));
    }

    #[test]
    fn product_saturates() {
        let huge = IVec3::splat(i64::MAX / 2);
        assert_eq!(huge.product(), i64::MAX);
    }
}
