//! Berger–Rigoutsos point clustering: turning flagged cells into a small set
//! of efficient rectangular subgrid regions.
//!
//! This is the standard SAMR grid-generation algorithm: take the bounding box
//! of the flags; if its fill ratio meets the efficiency target, accept it;
//! otherwise cut it — at a hole (zero plane of the flag *signature*) if one
//! exists, else at the strongest inflection of the signature's second
//! difference — and recurse on both halves.

use crate::flag::FlagField;
use crate::region::Region;

/// Tuning for the clustering algorithm.
#[derive(Clone, Copy, Debug)]
pub struct ClusterParams {
    /// Minimum fraction of flagged cells a produced box must contain.
    pub min_efficiency: f64,
    /// Boxes with at most this many cells are accepted regardless of
    /// efficiency (avoids shredding small features).
    pub min_box_cells: i64,
    /// Hard cap on recursion depth (safety net; never hit in practice).
    pub max_depth: usize,
    /// Maximum cells per produced box; larger accepted boxes are bisected so
    /// the load balancer has movable units.
    pub max_box_cells: i64,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            min_efficiency: 0.7,
            min_box_cells: 8,
            max_depth: 64,
            max_box_cells: i64::MAX,
        }
    }
}

/// Cluster the flagged cells of `flags` into rectangular regions.
///
/// ```
/// use samr_mesh::{berger_rigoutsos, ClusterParams, FlagField, Region, ivec3};
/// let mut flags = FlagField::new(Region::cube(16));
/// for p in Region::cube(4).iter_cells() {
///     flags.set(p + ivec3(2, 2, 2), true);
/// }
/// let boxes = berger_rigoutsos(&flags, &ClusterParams::default());
/// assert_eq!(boxes.len(), 1);
/// assert_eq!(boxes[0].cells(), 64);
/// ```
///
/// Guarantees:
/// * every flagged cell is inside exactly one returned region,
/// * returned regions are pairwise disjoint and lie within `flags.region()`,
/// * each region meets the efficiency target unless it is at or below
///   `min_box_cells` or the depth cap was reached.
pub fn berger_rigoutsos(flags: &FlagField, params: &ClusterParams) -> Vec<Region> {
    let mut out = Vec::new();
    // the root window is the whole mask: its tight box is the flags'
    // bounding box, and a clear mask yields no boxes
    cluster_tight(flags, flags.region(), params, 0, &mut out);
    // Enforce the maximum box size by bisecting oversized accepted boxes.
    let mut sized = Vec::with_capacity(out.len());
    for r in out {
        push_bounded(r, params.max_box_cells, &mut sized);
    }
    sized
}

fn push_bounded(r: Region, max_cells: i64, out: &mut Vec<Region>) {
    if r.cells() <= max_cells || r.cells() <= 1 {
        out.push(r);
    } else {
        let (a, b) = r.bisect();
        if a.is_empty() || b.is_empty() {
            out.push(r);
        } else {
            push_bounded(a, max_cells, out);
            push_bounded(b, max_cells, out);
        }
    }
}

/// One node of the recursion: `bbox` is the tight box of the flags in its
/// window and `sig` their per-plane counts over `bbox`.
fn cluster_rec(
    flags: &FlagField,
    bbox: Region,
    sig: [&[i64]; 3],
    params: &ClusterParams,
    depth: usize,
    out: &mut Vec<Region>,
) {
    let nflag: i64 = sig[0].iter().sum();
    let eff = nflag as f64 / bbox.cells() as f64;
    if eff >= params.min_efficiency
        || bbox.cells() <= params.min_box_cells
        || depth >= params.max_depth
    {
        out.push(bbox);
        return;
    }

    // 1) Prefer a cut at an interior zero-signature plane (a hole).
    if let Some((axis, cut)) = find_hole(&sig, &bbox) {
        let (a, b) = bbox.split_at(axis, cut);
        cluster_tight(flags, a, params, depth + 1, out);
        cluster_tight(flags, b, params, depth + 1, out);
        return;
    }

    // 2) Otherwise cut at the strongest inflection of the second difference.
    if let Some((axis, cut)) = find_inflection(&sig, &bbox) {
        let (a, b) = bbox.split_at(axis, cut);
        if !a.is_empty() && !b.is_empty() {
            cluster_tight(flags, a, params, depth + 1, out);
            cluster_tight(flags, b, params, depth + 1, out);
            return;
        }
    }

    // 3) Fall back to bisection along the longest axis.
    let (a, b) = bbox.bisect();
    if a.is_empty() || b.is_empty() {
        out.push(bbox); // cannot split a 1-cell-thick box further
        return;
    }
    cluster_tight(flags, a, params, depth + 1, out);
    cluster_tight(flags, b, params, depth + 1, out);
}

/// Recurse on the tight bounding box of the flags inside `window`.
///
/// One pass over the window's rows gives its signatures; the tight box is
/// read off them (first and last non-zero plane per axis), the flag count
/// is the sum of one of them, and the signatures over the tight box are
/// slices of the window's: every flag of the window lies in the tight box,
/// so a plane counts the same flags over either.
fn cluster_tight(
    flags: &FlagField,
    window: Region,
    params: &ClusterParams,
    depth: usize,
    out: &mut Vec<Region>,
) {
    let sig = flags.signatures(&window);
    let tight = sig.tight_box();
    if tight.is_empty() {
        return;
    }
    let plane = |axis: usize| {
        let first = (tight.lo[axis] - sig.window.lo[axis]) as usize;
        let last = (tight.hi[axis] - sig.window.lo[axis]) as usize;
        &sig.planes[axis][first..last]
    };
    cluster_rec(
        flags,
        tight,
        [plane(0), plane(1), plane(2)],
        params,
        depth,
        out,
    );
}

/// Find an interior plane with zero signature, preferring the cut closest to
/// the box middle. Returns `(axis, level-local cut coordinate)`.
fn find_hole(sig: &[&[i64]; 3], bbox: &Region) -> Option<(usize, i64)> {
    let mut best: Option<(usize, i64, i64)> = None; // (axis, cut, dist-from-mid)
    for axis in 0..3 {
        let n = sig[axis].len() as i64;
        let mid = n / 2;
        for i in 1..(n - 1) {
            if sig[axis][i as usize] == 0 {
                let d = (i - mid).abs();
                let cut = bbox.lo[axis] + i;
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((axis, cut, d));
                }
            }
        }
    }
    best.map(|(a, c, _)| (a, c))
}

/// Find the cut at the largest magnitude sign change of the second difference
/// Δ²σ, preferring cuts nearer the middle on ties. Cut index is between
/// planes `i` and `i+1` where the sign change of Δ² is strongest.
fn find_inflection(sig: &[&[i64]; 3], bbox: &Region) -> Option<(usize, i64)> {
    let mut best: Option<(usize, i64, i64, i64)> = None; // (axis, cut, strength, dist)
    for axis in 0..3 {
        let s = sig[axis];
        let n = s.len() as i64;
        if n < 4 {
            continue;
        }
        // second differences d[i] = s[i-1] - 2 s[i] + s[i+1], defined for 1..n-1
        let d: Vec<i64> = (1..(n - 1) as usize)
            .map(|i| s[i - 1] - 2 * s[i] + s[i + 1])
            .collect();
        let mid = n / 2;
        for i in 0..d.len().saturating_sub(1) {
            if (d[i] >= 0) != (d[i + 1] >= 0) {
                let strength = (d[i] - d[i + 1]).abs();
                // cut between planes (i+1) and (i+2) in 0-based plane indices
                let plane = i as i64 + 2;
                if plane <= 0 || plane >= n {
                    continue;
                }
                let dist = (plane - mid).abs();
                let better = match best {
                    None => true,
                    Some((_, _, bs, bd)) => strength > bs || (strength == bs && dist < bd),
                };
                if better {
                    best = Some((axis, bbox.lo[axis] + plane, strength, dist));
                }
            }
        }
    }
    best.map(|(a, c, _, _)| (a, c))
}

/// The per-cell form of the clustering that the one-pass recursion above
/// replaced, retained as the oracle it is tested against: each node reads
/// its window cell by cell for the tight box, again for the flag count and
/// again for the signatures.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::flag::reference::{bounding_box, count_in};
    use crate::index::{ivec3, IVec3};

    /// Reference for [`super::berger_rigoutsos`].
    pub fn berger_rigoutsos(flags: &FlagField, params: &ClusterParams) -> Vec<Region> {
        let mut out = Vec::new();
        let bbox = bounding_box(flags);
        if bbox.is_empty() {
            return out;
        }
        cluster_rec(flags, bbox, params, 0, &mut out);
        let mut sized = Vec::with_capacity(out.len());
        for r in out {
            push_bounded(r, params.max_box_cells, &mut sized);
        }
        sized
    }

    fn cluster_rec(
        flags: &FlagField,
        bbox: Region,
        params: &ClusterParams,
        depth: usize,
        out: &mut Vec<Region>,
    ) {
        let nflag = count_in(flags, &bbox);
        if nflag == 0 {
            return;
        }
        let eff = nflag as f64 / bbox.cells() as f64;
        if eff >= params.min_efficiency
            || bbox.cells() <= params.min_box_cells
            || depth >= params.max_depth
        {
            out.push(bbox);
            return;
        }
        let sig = signatures(flags, &bbox);
        let sig = [&sig[0][..], &sig[1][..], &sig[2][..]];
        if let Some((axis, cut)) = find_hole(&sig, &bbox) {
            let (a, b) = bbox.split_at(axis, cut);
            cluster_tight(flags, a, params, depth + 1, out);
            cluster_tight(flags, b, params, depth + 1, out);
            return;
        }
        if let Some((axis, cut)) = find_inflection(&sig, &bbox) {
            let (a, b) = bbox.split_at(axis, cut);
            if !a.is_empty() && !b.is_empty() {
                cluster_tight(flags, a, params, depth + 1, out);
                cluster_tight(flags, b, params, depth + 1, out);
                return;
            }
        }
        let (a, b) = bbox.bisect();
        if a.is_empty() || b.is_empty() {
            out.push(bbox);
            return;
        }
        cluster_tight(flags, a, params, depth + 1, out);
        cluster_tight(flags, b, params, depth + 1, out);
    }

    fn cluster_tight(
        flags: &FlagField,
        window: Region,
        params: &ClusterParams,
        depth: usize,
        out: &mut Vec<Region>,
    ) {
        let tight = tight_bbox(flags, &window);
        if !tight.is_empty() {
            cluster_rec(flags, tight, params, depth, out);
        }
    }

    fn tight_bbox(flags: &FlagField, window: &Region) -> Region {
        let w = window.intersect(&flags.region());
        let mut lo = ivec3(i64::MAX, i64::MAX, i64::MAX);
        let mut hi = ivec3(i64::MIN, i64::MIN, i64::MIN);
        let mut any = false;
        for p in w.iter_cells() {
            if flags.get(p) {
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

    fn signatures(flags: &FlagField, bbox: &Region) -> [Vec<i64>; 3] {
        let s = bbox.size();
        let mut sig = [
            vec![0i64; s.x as usize],
            vec![0i64; s.y as usize],
            vec![0i64; s.z as usize],
        ];
        for p in bbox.iter_cells() {
            if flags.get(p) {
                sig[0][(p.x - bbox.lo.x) as usize] += 1;
                sig[1][(p.y - bbox.lo.y) as usize] += 1;
                sig[2][(p.z - bbox.lo.z) as usize] += 1;
            }
        }
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{ivec3, IVec3};
    use crate::region::region;
    use base::prop::{self, Gen};
    use base::rng::splitmix64;

    fn params() -> ClusterParams {
        ClusterParams {
            min_efficiency: 0.7,
            min_box_cells: 2,
            max_depth: 64,
            max_box_cells: i64::MAX,
        }
    }

    fn check_cover(flags: &FlagField, boxes: &[Region]) {
        // every flag covered exactly once; boxes disjoint and inside region
        for p in flags.region().iter_cells() {
            let n = boxes.iter().filter(|b| b.contains(p)).count();
            if flags.get(p) {
                assert_eq!(n, 1, "flag at {p:?} covered {n} times");
            } else {
                assert!(n <= 1, "cell {p:?} covered {n} times");
            }
        }
        for (i, a) in boxes.iter().enumerate() {
            assert!(flags.region().contains_region(a));
            for b in &boxes[i + 1..] {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn empty_flags_no_boxes() {
        let flags = FlagField::new(Region::cube(8));
        assert!(berger_rigoutsos(&flags, &params()).is_empty());
    }

    #[test]
    fn single_blob_single_box() {
        let mut flags = FlagField::new(Region::cube(16));
        for p in region(ivec3(3, 3, 3), ivec3(7, 7, 7)).iter_cells() {
            flags.set(p, true);
        }
        let boxes = berger_rigoutsos(&flags, &params());
        assert_eq!(boxes, vec![region(ivec3(3, 3, 3), ivec3(7, 7, 7))]);
        check_cover(&flags, &boxes);
    }

    #[test]
    fn two_separated_blobs_two_boxes() {
        let mut flags = FlagField::new(Region::cube(16));
        for p in region(ivec3(0, 0, 0), ivec3(3, 3, 3)).iter_cells() {
            flags.set(p, true);
        }
        for p in region(ivec3(10, 10, 10), ivec3(14, 14, 14)).iter_cells() {
            flags.set(p, true);
        }
        let boxes = berger_rigoutsos(&flags, &params());
        assert_eq!(boxes.len(), 2);
        check_cover(&flags, &boxes);
        let eff: f64 = flags.count() as f64
            / boxes.iter().map(|b| b.cells()).sum::<i64>() as f64;
        assert!(eff > 0.99, "efficiency {eff}");
    }

    #[test]
    fn l_shape_split_efficiently() {
        // An L-shaped flag set cannot be covered efficiently by one box.
        let mut flags = FlagField::new(Region::cube(16));
        for p in region(ivec3(0, 0, 0), ivec3(12, 2, 2)).iter_cells() {
            flags.set(p, true);
        }
        for p in region(ivec3(0, 2, 0), ivec3(2, 12, 2)).iter_cells() {
            flags.set(p, true);
        }
        let boxes = berger_rigoutsos(&flags, &params());
        check_cover(&flags, &boxes);
        let covered: i64 = boxes.iter().map(|b| b.cells()).sum();
        let eff = flags.count() as f64 / covered as f64;
        assert!(eff >= 0.7, "efficiency {eff} with {} boxes", boxes.len());
        assert!(boxes.len() >= 2);
    }

    #[test]
    fn diagonal_flags_meet_efficiency() {
        let mut flags = FlagField::new(Region::cube(12));
        for i in 0..12 {
            flags.set(ivec3(i, i, i), true);
        }
        let p = params();
        let boxes = berger_rigoutsos(&flags, &p);
        check_cover(&flags, &boxes);
        for b in &boxes {
            let eff = flags.count_in(b) as f64 / b.cells() as f64;
            assert!(
                eff >= p.min_efficiency || b.cells() <= p.min_box_cells,
                "box {b:?} efficiency {eff}"
            );
        }
    }

    #[test]
    fn tilted_plane_clusters_like_shockpool3d() {
        // flags on a tilted plane x + y/2 ≈ const — the ShockPool3D pattern
        let mut flags = FlagField::new(Region::cube(16));
        for p in Region::cube(16).iter_cells() {
            if (2 * p.x + p.y - 16).abs() <= 1 {
                flags.set(p, true);
            }
        }
        let boxes = berger_rigoutsos(&flags, &params());
        check_cover(&flags, &boxes);
        assert!(!boxes.is_empty());
    }

    #[test]
    fn max_box_cells_bounds_output() {
        let mut flags = FlagField::new(Region::cube(16));
        for p in Region::cube(16).iter_cells() {
            flags.set(p, true);
        }
        let mut p = params();
        p.max_box_cells = 512;
        let boxes = berger_rigoutsos(&flags, &p);
        check_cover(&flags, &boxes);
        assert!(boxes.len() >= 8);
        for b in &boxes {
            assert!(b.cells() <= 512);
        }
    }

    #[test]
    fn single_cell_flag() {
        let mut flags = FlagField::new(Region::cube(8));
        flags.set(ivec3(5, 2, 7), true);
        let boxes = berger_rigoutsos(&flags, &params());
        assert_eq!(boxes, vec![region(ivec3(5, 2, 7), ivec3(6, 3, 8))]);
    }

    /// A flag mask, as a rule over cells.
    #[derive(Clone, Debug)]
    enum Mask {
        /// Each cell flagged with probability `permille` / 1000.
        Random { seed: u64, permille: u64 },
        /// A tilted slab `|n·p - offset| <= width`: the ShockPool3D front.
        Plane { n: IVec3, offset: i64, width: i64 },
        /// A ball `|p - centre|² <= r2`.
        Ball { centre: IVec3, r2: i64 },
    }

    impl Mask {
        fn has(&self, p: IVec3) -> bool {
            match *self {
                Mask::Random { seed, permille } => {
                    let h = [p.x, p.y, p.z]
                        .iter()
                        .fold(seed, |h, &c| splitmix64(h ^ c as u64));
                    h % 1000 < permille
                }
                Mask::Plane { n, offset, width } => {
                    (n.x * p.x + n.y * p.y + n.z * p.z - offset).abs() <= width
                }
                Mask::Ball { centre, r2 } => {
                    let d = p - centre;
                    d.x * d.x + d.y * d.y + d.z * d.z <= r2
                }
            }
        }
    }

    #[derive(Debug)]
    struct RowCase {
        region: Region,
        mask: Mask,
        buffer: usize,
        window: Region,
        params: ClusterParams,
    }

    fn arb_ivec(g: &mut Gen, range: std::ops::Range<i64>) -> IVec3 {
        ivec3(g.i64(range.clone()), g.i64(range.clone()), g.i64(range))
    }

    fn arb_row_case(g: &mut Gen) -> RowCase {
        let domain = Region::at(arb_ivec(g, -20..20), arb_ivec(g, 1..21));
        let inside = |g: &mut Gen| {
            let s = domain.size();
            domain.lo + ivec3(g.i64(0..s.x), g.i64(0..s.y), g.i64(0..s.z))
        };
        let mask = match g.usize(0..3) {
            0 => Mask::Random {
                seed: g.any_u64(),
                permille: g.u64(0..1001),
            },
            1 => Mask::Plane {
                n: arb_ivec(g, -3..4),
                offset: inside(g).x,
                width: g.i64(0..3),
            },
            _ => Mask::Ball {
                centre: inside(g),
                r2: g.i64(0..80),
            },
        };
        let (a, b) = (inside(g), inside(g));
        let window = region(a.min(b), a.max(b) + IVec3::ONE);
        RowCase {
            region: domain,
            mask,
            buffer: g.usize(0..3),
            window,
            params: ClusterParams {
                min_efficiency: g.f64(0.3..0.95),
                min_box_cells: g.i64(1..9),
                max_depth: g.pick(&[0, 1, 2, 3, 64]),
                max_box_cells: g.pick(&[i64::MAX, 8, 27, 100, 500]),
            },
        }
    }

    /// The row forms of buffering, bounding box, windowed count and
    /// clustering agree with their per-cell oracles on every mask.
    #[test]
    fn row_forms_match_the_per_cell_oracles() {
        use crate::flag::reference as flag_ref;
        prop::check(prop::CASES, arb_row_case, |c| {
            let mut flags = FlagField::new(c.region);
            for p in c.region.iter_cells() {
                if c.mask.has(p) {
                    flags.set(p, true);
                }
            }
            let mut oracle = flags.clone();
            flags.buffer(c.buffer);
            flag_ref::buffer(&mut oracle, c.buffer);
            for p in c.region.iter_cells() {
                assert_eq!(flags.get(p), oracle.get(p), "buffered flag at {p:?}");
            }
            assert_eq!(flags.bounding_box(), flag_ref::bounding_box(&flags));
            assert_eq!(
                flags.count_in(&c.window),
                flag_ref::count_in(&flags, &c.window)
            );
            assert_eq!(
                berger_rigoutsos(&flags, &c.params),
                reference::berger_rigoutsos(&flags, &c.params)
            );
        });
    }
}
