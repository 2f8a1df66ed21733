//! Scalar field storage over a region, with ghost zones.
//!
//! A [`Field3`] owns an `f64` array covering `region.grow(ghost)`; the
//! *interior* is `region` and the surrounding shell of width `ghost` holds
//! boundary data copied from siblings or interpolated from the parent.

use crate::index::IVec3;
use crate::region::Region;
use base::json::{Error, FromJson, Json, ToJson};

/// A 3-D scalar field over `interior.grow(ghost)` cells.
#[derive(Clone, Debug, PartialEq)]
pub struct Field3 {
    interior: Region,
    ghost: i64,
    storage: Region,
    data: Vec<f64>,
}

impl ToJson for Field3 {
    fn to_json(&self) -> Json {
        base::json_fields!(self; interior, ghost, storage, data)
    }
}

impl FromJson for Field3 {
    /// Parts that disagree — ghost width, storage box, data length — are
    /// rejected where the document enters rather than by a kernel's index
    /// check later.
    fn from_json(v: &Json) -> Result<Field3, Error> {
        let f = Field3 {
            interior: v.field("interior")?,
            ghost: v.field("ghost")?,
            storage: v.field("storage")?,
            data: v.field("data")?,
        };
        if f.ghost < 0 {
            return Err(Error::new("a ghost width >= 0", f.ghost.to_string()).under("ghost"));
        }
        if f.interior.is_empty() {
            return Err(Error::new("a non-empty box", f.interior.to_string()).under("interior"));
        }
        let grown = f.interior.grow(f.ghost);
        if f.storage != grown {
            return Err(
                Error::new(format!("the grown interior {grown}"), f.storage.to_string())
                    .under("storage"),
            );
        }
        let size = f.storage.size();
        let cells = [size.x, size.y, size.z]
            .iter()
            .try_fold(1usize, |n, &edge| {
                n.checked_mul(usize::try_from(edge).ok()?)
            });
        if cells != Some(f.data.len()) {
            return Err(Error::new(
                format!("one value per cell of {}", f.storage),
                format!("{} values", f.data.len()),
            )
            .under("data"));
        }
        Ok(f)
    }
}

impl Field3 {
    /// Allocate a zero-filled field over `interior` with `ghost` ghost cells.
    pub fn zeros(interior: Region, ghost: i64) -> Self {
        assert!(ghost >= 0);
        assert!(!interior.is_empty(), "field over empty region");
        let storage = interior.grow(ghost);
        let data = vec![0.0; storage.cells() as usize];
        Field3 {
            interior,
            ghost,
            storage,
            data,
        }
    }

    /// Allocate with every cell (ghosts included) set to `v`.
    pub fn constant(interior: Region, ghost: i64, v: f64) -> Self {
        let mut f = Self::zeros(interior, ghost);
        f.data.fill(v);
        f
    }

    /// Like [`Field3::zeros`], but the backing store is drawn from (and
    /// counted by) `pool`. Bit-identical to a fresh `zeros` field.
    pub fn new_in(pool: &crate::pool::FieldPool, interior: Region, ghost: i64) -> Self {
        assert!(ghost >= 0);
        assert!(!interior.is_empty(), "field over empty region");
        let storage = interior.grow(ghost);
        let data = pool.acquire(storage.cells() as usize);
        Field3 {
            interior,
            ghost,
            storage,
            data,
        }
    }

    /// A zero-filled field over `interior` with `ghost` ghost cells, built in
    /// `buf` — an empty buffer reserved elsewhere, e.g. by
    /// [`FieldPool::reserve`](crate::pool::FieldPool::reserve) on another
    /// thread. The zeros are written into the reserved capacity, so the
    /// field's data is `buf`'s allocation: nothing is reallocated.
    /// Bit-identical to [`Field3::zeros`].
    ///
    /// Panics if `buf` is not empty or has room for fewer cells than the
    /// storage box holds.
    pub fn zeros_in(mut buf: Vec<f64>, interior: Region, ghost: i64) -> Self {
        assert!(ghost >= 0);
        assert!(!interior.is_empty(), "field over empty region");
        let storage = interior.grow(ghost);
        let len = storage.cells() as usize;
        assert!(buf.is_empty(), "zeros_in needs an empty buffer");
        assert!(
            buf.capacity() >= len,
            "zeros_in: room for {} cells, {storage:?} holds {len}",
            buf.capacity()
        );
        buf.resize(len, 0.0);
        Field3 {
            interior,
            ghost,
            storage,
            data: buf,
        }
    }

    /// A field over `interior` with `ghost` ghost cells, written once into
    /// `buf` — an empty buffer reserved elsewhere, as for
    /// [`Field3::zeros_in`] — one z-row at a time: `row(x, y)` yields the
    /// values of storage row `(x, y)`, whole z extent, and rows are taken in
    /// layout order. Nothing is zero-filled first and nothing reallocates.
    ///
    /// Panics if `buf` is not empty, has room for fewer cells than the
    /// storage box holds, or a row yields the wrong number of values.
    pub fn from_rows_in<I: IntoIterator<Item = f64>>(
        mut buf: Vec<f64>,
        interior: Region,
        ghost: i64,
        mut row: impl FnMut(i64, i64) -> I,
    ) -> Self {
        assert!(ghost >= 0);
        assert!(!interior.is_empty(), "field over empty region");
        let storage = interior.grow(ghost);
        let len = storage.cells() as usize;
        assert!(buf.is_empty(), "from_rows_in needs an empty buffer");
        assert!(
            buf.capacity() >= len,
            "from_rows_in: room for {} cells, {storage:?} holds {len}",
            buf.capacity()
        );
        let nz = (storage.hi.z - storage.lo.z) as usize;
        for x in storage.lo.x..storage.hi.x {
            for y in storage.lo.y..storage.hi.y {
                let end = buf.len() + nz;
                buf.extend(row(x, y));
                assert_eq!(buf.len(), end, "row ({x}, {y}) is not {nz} cells long");
            }
        }
        Field3 {
            interior,
            ghost,
            storage,
            data: buf,
        }
    }

    /// Deep copy whose backing store is drawn from (and counted by) `pool`:
    /// same shape and bitwise-identical contents, copied into a reserved
    /// buffer without zero-filling it first.
    pub fn clone_in(&self, pool: &crate::pool::FieldPool) -> Self {
        let mut data = pool.reserve(self.data.len());
        data.extend_from_slice(&self.data);
        Field3 {
            interior: self.interior,
            ghost: self.ghost,
            storage: self.storage,
            data,
        }
    }

    /// The interior region this field is defined on.
    pub fn interior(&self) -> Region {
        self.interior
    }

    /// Ghost-zone width.
    pub fn ghost(&self) -> i64 {
        self.ghost
    }

    /// The full storage region including ghosts.
    pub fn storage_region(&self) -> Region {
        self.storage
    }

    /// Value at cell `p` (must be inside storage, ghosts included).
    #[inline]
    pub fn get(&self, p: IVec3) -> f64 {
        self.data[self.storage.linear_index(p)]
    }

    /// Mutable access to cell `p`.
    #[inline]
    pub fn at_mut(&mut self, p: IVec3) -> &mut f64 {
        let i = self.storage.linear_index(p);
        &mut self.data[i]
    }

    /// Set cell `p` to `v`.
    #[inline]
    pub fn set(&mut self, p: IVec3, v: f64) {
        let i = self.storage.linear_index(p);
        self.data[i] = v;
    }

    /// Raw data slice (z fastest within storage region).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fill every cell (ghosts included) with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Copy values over `src_window ∩ both fields' storage` from `src`.
    /// The window is in shared (same-level) coordinates.
    ///
    /// Row-sliced: the 3D→1D index math is done once per window — the two
    /// storages' offsets of the window corner — and every further
    /// z-contiguous row is a stride addition away in both. A row moves with
    /// one `copy_from_slice`, except rows of one or two cells (a ghost
    /// window normal to z is nothing but such rows), which are cheaper as
    /// plain element moves than as `memcpy` calls. Bit-identical to
    /// [`reference::copy_from`].
    pub fn copy_from(&mut self, src: &Field3, window: &Region) {
        let w = window.intersect(&self.storage).intersect(&src.storage);
        if w.is_empty() {
            return;
        }
        let size = w.size();
        let (nx, ny, len) = (size.x as usize, size.y as usize, size.z as usize);
        let strides = |s: &Region| {
            let sz = s.size();
            ((sz.y * sz.z) as usize, sz.z as usize)
        };
        let (d_plane, d_row) = strides(&self.storage);
        let (s_plane, s_row) = strides(&src.storage);
        let mut d_x = self.storage.linear_index(w.lo);
        let mut s_x = src.storage.linear_index(w.lo);
        for _ in 0..nx {
            let (mut d, mut s) = (d_x, s_x);
            for _ in 0..ny {
                let (dst_row, src_row) = (&mut self.data[d..d + len], &src.data[s..s + len]);
                if len <= 2 {
                    for (dv, sv) in dst_row.iter_mut().zip(src_row) {
                        *dv = *sv;
                    }
                } else {
                    dst_row.copy_from_slice(src_row);
                }
                d += d_row;
                s += s_row;
            }
            d_x += d_plane;
            s_x += s_plane;
        }
    }

    /// Sum of interior values. Accumulated in the same cell order as the
    /// per-cell reference, so the result is bit-identical.
    pub fn interior_sum(&self) -> f64 {
        let int = self.interior;
        let mut acc = 0.0;
        for x in int.lo.x..int.hi.x {
            for y in int.lo.y..int.hi.y {
                for &v in &self.data[self.storage.row_range(x, y, int.lo.z, int.hi.z)] {
                    acc += v;
                }
            }
        }
        acc
    }

    /// Apply `f` to every interior cell.
    pub fn map_interior(&mut self, mut f: impl FnMut(IVec3, f64) -> f64) {
        let int = self.interior;
        for x in int.lo.x..int.hi.x {
            for y in int.lo.y..int.hi.y {
                let r = self.storage.row_range(x, y, int.lo.z, int.hi.z);
                for (k, v) in self.data[r].iter_mut().enumerate() {
                    *v = f(crate::index::ivec3(x, y, int.lo.z + k as i64), *v);
                }
            }
        }
    }

    /// Extrapolate ghost zones from the nearest interior cell (zero-gradient /
    /// outflow physical boundary). Only cells outside the interior are
    /// touched.
    ///
    /// Runs in three sweeps — z-row end fills, then y-edge row copies, then
    /// whole x-plane copies — touching only the ghost shell instead of
    /// clamping every storage cell. Each later sweep reads values an earlier
    /// sweep already clamped, which composes to exactly the per-component
    /// clamp of the per-cell form: bit-identical to
    /// [`reference::fill_ghosts_zero_gradient`] (golden test pins it).
    pub fn fill_ghosts_zero_gradient(&mut self) {
        if self.ghost == 0 {
            return;
        }
        let int = self.interior;
        let sto = self.storage;
        let g = self.ghost as usize;
        // 1. z ghosts of every interior (x, y) row: copy the row's first and
        //    last interior value outward.
        for x in int.lo.x..int.hi.x {
            for y in int.lo.y..int.hi.y {
                let lo = self.data[sto.linear_index(crate::index::ivec3(x, y, int.lo.z))];
                let hi = self.data[sto.linear_index(crate::index::ivec3(x, y, int.hi.z - 1))];
                self.data[sto.row_range(x, y, sto.lo.z, int.lo.z)].fill(lo);
                self.data[sto.row_range(x, y, int.hi.z, sto.hi.z)].fill(hi);
            }
        }
        // 2. y ghosts (z ghosts included): copy the full edge rows at
        //    y = int.lo.y / int.hi.y − 1, which step 1 already clamped in z.
        let row_len = (sto.hi.z - sto.lo.z) as usize;
        for x in int.lo.x..int.hi.x {
            let lo_src = sto.row_range(x, int.lo.y, sto.lo.z, sto.hi.z);
            for dy in 1..=g as i64 {
                let dst = sto.linear_index(crate::index::ivec3(x, int.lo.y - dy, sto.lo.z));
                self.data.copy_within(lo_src.clone(), dst);
            }
            let hi_src = sto.row_range(x, int.hi.y - 1, sto.lo.z, sto.hi.z);
            for dy in 0..g as i64 {
                let dst = sto.linear_index(crate::index::ivec3(x, int.hi.y + dy, sto.lo.z));
                self.data.copy_within(hi_src.clone(), dst);
            }
        }
        // 3. x ghosts: each ghost plane is one contiguous block copied from
        //    the edge interior plane, which steps 1–2 already clamped.
        let plane_len = (sto.hi.y - sto.lo.y) as usize * row_len;
        let lo_src = sto.linear_index(crate::index::ivec3(int.lo.x, sto.lo.y, sto.lo.z));
        for dx in 1..=g as i64 {
            let dst = sto.linear_index(crate::index::ivec3(int.lo.x - dx, sto.lo.y, sto.lo.z));
            self.data.copy_within(lo_src..lo_src + plane_len, dst);
        }
        let hi_src = sto.linear_index(crate::index::ivec3(int.hi.x - 1, sto.lo.y, sto.lo.z));
        for dx in 0..g as i64 {
            let dst = sto.linear_index(crate::index::ivec3(int.hi.x + dx, sto.lo.y, sto.lo.z));
            self.data.copy_within(hi_src..hi_src + plane_len, dst);
        }
    }

    /// Give every cell of `window` (clipped to storage) the value of its
    /// per-axis clamp into the interior: the zero-gradient fill of one box
    /// of the shell. Per z-row, the clamped interior row is copied across
    /// the interior's z range and its end values repeat beyond it; an
    /// interior cell is its own clamp and is left as it is. Only interior
    /// cells are read, so on the box this is bit-identical to
    /// [`reference::fill_ghosts_zero_gradient`].
    pub fn fill_clamped(&mut self, window: &Region) {
        let w = window.intersect(&self.storage);
        if w.is_empty() {
            return;
        }
        let (int, sto) = (self.interior, self.storage);
        let top = int.hi - IVec3::ONE;
        let below = w.lo.z..w.hi.z.min(int.lo.z);
        let within = w.lo.z.max(int.lo.z)..w.hi.z.min(int.hi.z);
        let above = w.lo.z.max(int.hi.z)..w.hi.z;
        for x in w.lo.x..w.hi.x {
            let cx = x.clamp(int.lo.x, top.x);
            for y in w.lo.y..w.hi.y {
                let cy = y.clamp(int.lo.y, top.y);
                for (zs, from) in [(&below, int.lo.z), (&above, top.z)] {
                    if !zs.is_empty() {
                        let v = self.data[sto.linear_index(crate::index::ivec3(cx, cy, from))];
                        self.data[sto.row_range(x, y, zs.start, zs.end)].fill(v);
                    }
                }
                if !within.is_empty() && (cx, cy) != (x, y) {
                    let src = sto.row_range(cx, cy, within.start, within.end);
                    let dst = sto.linear_index(crate::index::ivec3(x, y, within.start));
                    self.data.copy_within(src, dst);
                }
            }
        }
    }
}

/// Per-cell reference implementations of the row-sliced kernels above.
///
/// These are the naive `Region::linear_index`-per-cell versions the
/// optimized kernels replaced; they are retained (and exported, so
/// cross-crate golden tests can reach them) purely as bit-identity oracles.
/// Production code must call the `Field3` methods instead.
pub mod reference {
    use super::*;

    /// Reference for [`Field3::copy_from`].
    pub fn copy_from(dst: &mut Field3, src: &Field3, window: &Region) {
        let w = window.intersect(&dst.storage).intersect(&src.storage);
        for p in w.iter_cells() {
            let v = src.get(p);
            dst.set(p, v);
        }
    }

    /// Reference for [`Field3::interior_sum`].
    pub fn interior_sum(f: &Field3) -> f64 {
        f.interior.iter_cells().map(|p| f.get(p)).sum()
    }

    /// Reference for [`Field3::map_interior`].
    pub fn map_interior(f: &mut Field3, mut g: impl FnMut(IVec3, f64) -> f64) {
        for p in f.interior.iter_cells() {
            let v = f.get(p);
            f.set(p, g(p, v));
        }
    }

    /// Reference for [`Field3::fill_ghosts_zero_gradient`]: clamp every
    /// storage cell to the interior box per component.
    pub fn fill_ghosts_zero_gradient(f: &mut Field3) {
        if f.ghost == 0 {
            return;
        }
        let int = f.interior;
        for p in f.storage.iter_cells() {
            if int.contains(p) {
                continue;
            }
            let clamped = p.max(int.lo).min(int.hi - IVec3::ONE);
            let v = f.get(clamped);
            f.set(p, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ivec3;
    use crate::region::region;

    #[test]
    fn zeros_and_shape() {
        let r = Region::cube(4);
        let f = Field3::zeros(r, 2);
        assert_eq!(f.interior(), r);
        assert_eq!(f.storage_region(), r.grow(2));
        assert_eq!(f.data().len(), 8 * 8 * 8);
        assert!(f.data().iter().all(|&v| v == 0.0));
    }

    /// A field built in a reserved buffer is all zero, as `zeros` builds
    /// it, and keeps the reservation's allocation: same address, same
    /// capacity, so no reallocation happened wherever it was built.
    #[test]
    fn zeros_in_fills_the_reserved_buffer_in_place() {
        let pool = crate::pool::FieldPool::new();
        let r = region(ivec3(2, 0, 0), ivec3(6, 4, 5));
        let len = r.grow(2).cells() as usize;
        for room in [len, len + 9] {
            let buf = pool.reserve(room);
            let (ptr, cap) = (buf.as_ptr(), buf.capacity());
            let f = Field3::zeros_in(buf, r, 2);
            assert_eq!(f.data().as_ptr(), ptr);
            assert_eq!(f.data.capacity(), cap);
            assert_eq!(f, Field3::zeros(r, 2));
            assert!(f.data().iter().all(|v| v.to_bits() == 0));
        }
    }

    /// A field written row by row into a reserved buffer keeps the
    /// reservation's allocation and holds what the rows say, ghosts
    /// included.
    #[test]
    fn from_rows_in_writes_the_reserved_buffer_once() {
        let r = region(ivec3(2, -1, 3), ivec3(5, 4, 7));
        let len = r.grow(1).cells() as usize;
        let buf = Vec::with_capacity(len + 3);
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        let value = |x: i64, y: i64, z: i64| (100 * x + 10 * y + z) as f64;
        let sto = r.grow(1);
        let f = Field3::from_rows_in(buf, r, 1, |x, y| {
            (sto.lo.z..sto.hi.z).map(move |z| value(x, y, z))
        });
        assert_eq!((f.data().as_ptr(), f.data.capacity()), (ptr, cap));
        assert_eq!((f.interior(), f.ghost(), f.data().len()), (r, 1, len));
        for p in sto.iter_cells() {
            assert_eq!(f.get(p), value(p.x, p.y, p.z), "{p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "is not 4 cells long")]
    fn from_rows_in_rejects_a_short_row() {
        let r = Region::cube(2);
        Field3::from_rows_in(Vec::with_capacity(64), r, 1, |x, y| {
            std::iter::repeat_n(0.0, if (x, y) == (0, 1) { 3 } else { 4 })
        });
    }

    #[test]
    #[should_panic(expected = "from_rows_in: room for")]
    fn from_rows_in_rejects_a_buffer_too_small() {
        Field3::from_rows_in(Vec::with_capacity(7), Region::cube(2), 0, |_, _| [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn zeros_in_rejects_a_buffer_holding_data() {
        let r = Region::cube(2);
        let mut buf = Vec::with_capacity(r.cells() as usize);
        buf.push(1.0);
        Field3::zeros_in(buf, r, 0);
    }

    #[test]
    #[should_panic(expected = "zeros_in: room for")]
    fn zeros_in_rejects_a_buffer_too_small() {
        Field3::zeros_in(Vec::with_capacity(7), Region::cube(2), 0);
    }

    /// A copy into a reserved buffer has the source's shape and bits, and
    /// counts one buffer.
    #[test]
    fn clone_in_copies_bits_into_one_counted_buffer() {
        let pool = crate::pool::FieldPool::new();
        let mut f = Field3::zeros(Region::cube(3), 1);
        for (i, v) in f.data_mut().iter_mut().enumerate() {
            *v = if i % 7 == 0 { -0.0 } else { i as f64 * 0.5 };
        }
        let c = f.clone_in(&pool);
        assert_eq!(c.data.capacity(), f.data().len());
        assert_eq!((c.interior(), c.ghost()), (f.interior(), f.ghost()));
        let bits = |x: &Field3| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c), bits(&f));
        assert_eq!(pool.stats().misses, 1);
    }

    /// A field document whose parts disagree is rejected where it enters,
    /// each with the member at fault; the derive this replaced accepted all
    /// four and left the mismatch to a kernel's index check.
    #[test]
    fn from_json_rejects_parts_that_disagree() {
        let f = Field3::zeros(region(ivec3(2, 0, 0), ivec3(6, 4, 4)), 1);
        let doc = f.to_json();
        assert_eq!(Field3::from_json(&doc), Ok(f.clone()));
        let with = |key: &str, value: Json| {
            let Json::Obj(mut members) = doc.clone() else {
                panic!("a field is an object")
            };
            members.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
            Field3::from_json(&Json::Obj(members))
                .unwrap_err()
                .to_string()
        };
        let storage = f.storage_region();
        assert_eq!(
            with("ghost", Json::Num(2.0)),
            format!(
                "storage: expected the grown interior {}, found {storage}",
                storage.grow(1)
            )
        );
        assert_eq!(
            with("storage", f.interior().to_json()),
            format!(
                "storage: expected the grown interior {storage}, found {}",
                f.interior()
            )
        );
        assert_eq!(
            with("ghost", Json::Num(-1.0)),
            "ghost: expected a ghost width >= 0, found -1"
        );
        assert_eq!(
            with("interior", region(ivec3(6, 0, 0), ivec3(2, 4, 4)).to_json()),
            format!(
                "interior: expected a non-empty box, found {}",
                region(ivec3(6, 0, 0), ivec3(2, 4, 4))
            )
        );
        assert_eq!(
            with("data", vec![0.0; 5].to_json()),
            format!("data: expected one value per cell of {storage}, found 5 values")
        );
    }

    #[test]
    fn get_set_roundtrip() {
        let mut f = Field3::zeros(Region::cube(4), 1);
        f.set(ivec3(2, 3, 1), 7.5);
        assert_eq!(f.get(ivec3(2, 3, 1)), 7.5);
        // ghost cells addressable
        f.set(ivec3(-1, -1, -1), 1.25);
        assert_eq!(f.get(ivec3(-1, -1, -1)), 1.25);
        *f.at_mut(ivec3(0, 0, 0)) += 2.0;
        assert_eq!(f.get(ivec3(0, 0, 0)), 2.0);
    }

    #[test]
    fn copy_from_respects_window() {
        let mut a = Field3::zeros(Region::cube(4), 1);
        let mut b = Field3::zeros(region(ivec3(2, 0, 0), ivec3(6, 4, 4)), 1);
        b.fill(3.0);
        // copy b's values into a over their shared window
        let window = region(ivec3(2, 0, 0), ivec3(4, 4, 4));
        a.copy_from(&b, &window);
        assert_eq!(a.get(ivec3(2, 0, 0)), 3.0);
        assert_eq!(a.get(ivec3(3, 3, 3)), 3.0);
        assert_eq!(a.get(ivec3(1, 0, 0)), 0.0);
    }

    #[test]
    fn interior_sum_skips_ghosts() {
        let mut f = Field3::constant(Region::cube(2), 1, 1.0);
        assert_eq!(f.interior_sum(), 8.0);
        f.set(ivec3(0, 0, 0), -5.0);
        f.set(ivec3(-1, 0, 0), 100.0);
        assert_eq!(f.interior_sum(), 2.0);
    }

    #[test]
    fn zero_gradient_ghosts() {
        let mut f = Field3::zeros(Region::cube(2), 1);
        f.map_interior(|p, _| (p.x * 4 + p.y * 2 + p.z) as f64);
        f.fill_ghosts_zero_gradient();
        // corner ghost copies nearest interior corner
        assert_eq!(f.get(ivec3(-1, -1, -1)), f.get(ivec3(0, 0, 0)));
        assert_eq!(f.get(ivec3(2, 2, 2)), f.get(ivec3(1, 1, 1)));
        // face ghost copies adjacent interior cell
        assert_eq!(f.get(ivec3(-1, 0, 1)), f.get(ivec3(0, 0, 1)));
    }

    #[test]
    #[should_panic]
    fn empty_interior_panics() {
        let _ = Field3::zeros(Region::EMPTY, 1);
    }

    /// Deterministic pseudo-random fill (LCG) so golden comparisons cover
    /// irregular data without a rand dependency.
    fn scrambled(interior: Region, ghost: i64, seed: u64) -> Field3 {
        let mut f = Field3::zeros(interior, ghost);
        let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        for v in f.data_mut() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        }
        f
    }

    #[test]
    fn copy_from_empty_intersection_is_noop() {
        let mut a = scrambled(Region::cube(4), 1, 1);
        let b = scrambled(region(ivec3(20, 20, 20), ivec3(24, 24, 24)), 1, 2);
        let before = a.clone();
        // window overlaps neither storage pair: src and dst are disjoint
        a.copy_from(&b, &region(ivec3(8, 8, 8), ivec3(12, 12, 12)));
        assert_eq!(a, before);
        // window non-empty but src storage disjoint from dst storage
        a.copy_from(&b, &region(ivec3(20, 20, 20), ivec3(24, 24, 24)));
        assert_eq!(a, before);
        // explicitly empty window
        a.copy_from(&b, &Region::EMPTY);
        assert_eq!(a, before);
    }

    #[test]
    fn copy_from_window_entirely_in_ghost_shell() {
        // dst interior [0,4)^3 ghost 2 -> storage [-2,6)^3; window sits in the
        // low-corner ghost shell only
        let mut a = Field3::zeros(Region::cube(4), 2);
        let b = Field3::constant(region(ivec3(-4, -4, -4), ivec3(2, 2, 2)), 0, 9.0);
        let window = region(ivec3(-2, -2, -2), ivec3(0, 0, 0));
        a.copy_from(&b, &window);
        assert_eq!(a.get(ivec3(-1, -1, -1)), 9.0);
        assert_eq!(a.get(ivec3(-2, -2, -2)), 9.0);
        // interior untouched
        assert_eq!(a.get(ivec3(0, 0, 0)), 0.0);
        assert_eq!(a.interior_sum(), 0.0);
    }

    #[test]
    fn copy_from_window_exceeding_both_storages_clips() {
        let mut a = scrambled(Region::cube(4), 1, 3);
        let b = scrambled(region(ivec3(2, 0, 0), ivec3(8, 4, 4)), 1, 4);
        let mut a_ref = a.clone();
        // window vastly larger than either storage: must clip to the shared box
        let huge = region(ivec3(-100, -100, -100), ivec3(100, 100, 100));
        a.copy_from(&b, &huge);
        reference::copy_from(&mut a_ref, &b, &huge);
        assert_eq!(a, a_ref);
        // clipped region is storage(a) ∩ storage(b)
        let shared = a.storage_region().intersect(&b.storage_region());
        assert!(!shared.is_empty());
        for p in shared.iter_cells() {
            assert_eq!(a.get(p), b.get(p));
        }
    }

    #[test]
    fn ghost_fill_matches_reference_bitwise() {
        for (seed, ghost) in [(11u64, 1i64), (12, 2), (13, 3)] {
            // non-cubic, off-origin interior so every axis differs
            let r = region(ivec3(-2, 3, 1), ivec3(3, 10, 12));
            let mut a = scrambled(r, ghost, seed);
            let mut b = a.clone();
            a.fill_ghosts_zero_gradient();
            reference::fill_ghosts_zero_gradient(&mut b);
            let bits = |f: &Field3| -> Vec<u64> { f.data().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(bits(&a), bits(&b), "seed {seed} ghost {ghost}");
        }
        // ghost 0 is a no-op on both
        let mut a = scrambled(Region::cube(4), 0, 14);
        let before = a.clone();
        a.fill_ghosts_zero_gradient();
        assert_eq!(a, before);
    }

    /// Filled box by box over a partition of its shell — faces, edges and
    /// corners, as `Region::subtract` cuts it — a field ends up with the
    /// whole-shell fill's bits, and the interior as it was.
    #[test]
    fn fill_clamped_over_the_shell_boxes_is_the_zero_gradient_fill() {
        for (seed, ghost) in [(21u64, 1i64), (22, 2), (23, 3)] {
            let r = region(ivec3(-2, 3, 1), ivec3(3, 10, 12));
            let mut boxed = scrambled(r, ghost, seed);
            let mut whole = boxed.clone();
            whole.fill_ghosts_zero_gradient();
            let shell = r.grow(ghost).subtract(&r);
            assert!(shell.len() >= 6, "{shell:?}");
            for b in &shell {
                boxed.fill_clamped(b);
            }
            assert_eq!(boxed, whole, "ghost {ghost}");
        }
    }

    #[test]
    fn row_sliced_kernels_match_reference_bitwise() {
        for (seed, ghost) in [(1u64, 0i64), (2, 1), (3, 2)] {
            let r = region(ivec3(-1, 2, 3), ivec3(6, 9, 11));
            let f = scrambled(r, ghost, seed);
            assert_eq!(
                f.interior_sum().to_bits(),
                reference::interior_sum(&f).to_bits()
            );
            let g = |p: IVec3, v: f64| v * 1.7 + (p.x - p.y + 2 * p.z) as f64;
            let mut a = f.clone();
            let mut b = f.clone();
            a.map_interior(g);
            reference::map_interior(&mut b, g);
            assert_eq!(a, b);
            // copy_from over a partial window
            let src = scrambled(region(ivec3(2, 4, 5), ivec3(10, 12, 13)), ghost, seed + 9);
            let window = region(ivec3(3, 5, 6), ivec3(7, 8, 10));
            let mut c = f.clone();
            let mut d = f.clone();
            c.copy_from(&src, &window);
            reference::copy_from(&mut d, &src, &window);
            assert_eq!(c, d);
            // ghost-window shapes: one and two cells thick normal to each
            // axis (normal to z every row is one or two cells long), and a
            // window that both storages clip
            let shared = region(ivec3(3, 5, 6), ivec3(6, 9, 11));
            let mut windows = vec![region(ivec3(-9, 6, 7), ivec3(5, 40, 10))];
            for axis in 0..3 {
                for thick in 1..=2 {
                    let mut w = shared;
                    w.hi[axis] = w.lo[axis] + thick;
                    windows.push(w);
                }
            }
            for w in windows {
                let (mut c, mut d) = (f.clone(), f.clone());
                c.copy_from(&src, &w);
                reference::copy_from(&mut d, &src, &w);
                assert_eq!(c, d, "window {w:?}");
                assert_ne!(c, f, "window {w:?} copied nothing");
            }
        }
    }
}
