//! Property-based tests for the mesh substrate's core invariants.

use base::prop::{self, Gen};
use samr_mesh::cluster::{berger_rigoutsos, ClusterParams};
use samr_mesh::flag::FlagField;
use samr_mesh::hierarchy::GridHierarchy;
use samr_mesh::region::{region, Region};
use samr_mesh::{ivec3, IVec3};

fn arb_ivec(g: &mut Gen, range: std::ops::Range<i64>) -> IVec3 {
    ivec3(g.i64(range.clone()), g.i64(range.clone()), g.i64(range))
}

/// Non-empty regions with corners in [-20, 20) and extents in [1, 12].
fn arb_region(g: &mut Gen) -> Region {
    Region::at(arb_ivec(g, -20..20), arb_ivec(g, 1..13))
}

#[test]
fn intersection_is_subset_of_both() {
    prop::check(
        prop::CASES,
        |g| (arb_region(g), arb_region(g)),
        |(a, b)| {
            let i = a.intersect(&b);
            assert!(a.contains_region(&i));
            assert!(b.contains_region(&i));
            // and symmetric
            assert_eq!(i, b.intersect(&a));
        },
    );
}

#[test]
fn intersection_cells_bounded() {
    prop::check(
        prop::CASES,
        |g| (arb_region(g), arb_region(g)),
        |(a, b)| {
            let i = a.intersect(&b);
            assert!(i.cells() <= a.cells().min(b.cells()));
        },
    );
}

#[test]
fn hull_contains_both() {
    prop::check(
        prop::CASES,
        |g| (arb_region(g), arb_region(g)),
        |(a, b)| {
            let h = a.hull(&b);
            assert!(h.contains_region(&a));
            assert!(h.contains_region(&b));
        },
    );
}

#[test]
fn refine_coarsen_identity() {
    prop::check(
        prop::CASES,
        |g| (arb_region(g), g.i64(2..5)),
        |(a, r)| {
            assert_eq!(a.refine(r).coarsen(r), a);
            // outer coarsening always covers
            let c = a.coarsen(r);
            assert!(c.refine(r).contains_region(&a));
        },
    );
}

#[test]
fn subtract_partitions_cells() {
    prop::check(
        prop::CASES,
        |g| (arb_region(g), arb_region(g)),
        |(a, b)| {
            let parts = a.subtract(&b);
            let covered: i64 = parts.iter().map(|p| p.cells()).sum();
            assert_eq!(covered, a.cells() - a.intersect(&b).cells());
            for (i, p) in parts.iter().enumerate() {
                assert!(a.contains_region(p));
                assert!(!p.overlaps(&b));
                for q in &parts[i + 1..] {
                    assert!(!p.overlaps(q));
                }
            }
        },
    );
}

#[test]
fn bisect_conserves_and_balances() {
    prop::check(prop::CASES, arb_region, |a| {
        if a.cells() < 2 {
            return; // a single cell has no halves
        }
        let (l, r) = a.bisect();
        assert_eq!(l.cells() + r.cells(), a.cells());
        assert!(!l.overlaps(&r));
        assert_eq!(l.hull(&r), a);
        // halves within one plane of each other along the cut axis
        let axis = a.size().longest_axis();
        let plane = a.cells() / a.size()[axis];
        assert!((l.cells() - r.cells()).abs() <= plane);
    });
}

#[test]
fn split_cells_is_exactly_requested_when_plane_aligned() {
    prop::check(
        prop::CASES,
        |g| (arb_region(g), g.u32(1..8)),
        |(a, frac)| {
            if a.cells() < 8 {
                return; // too small for eighths of its planes
            }
            let axis = a.size().longest_axis();
            let plane = a.cells() / a.size()[axis];
            let want = plane * (a.size()[axis] * frac as i64 / 8).max(1);
            let (s, rest) = a.split_cells(want, axis);
            assert_eq!(s.cells() + rest.cells(), a.cells());
            // rounding is to the nearest whole plane
            assert!((s.cells() - want).abs() <= plane / 2 + plane % 2);
        },
    );
}

#[test]
fn grow_shrink_roundtrip() {
    prop::check(
        prop::CASES,
        |g| (arb_region(g), g.i64(1..4)),
        |(a, g)| {
            assert_eq!(a.grow(g).grow(-g), a);
            assert!(a.grow(g).contains_region(&a));
        },
    );
}

#[test]
fn linear_index_is_bijection() {
    prop::check(prop::CASES, arb_region, |a| {
        let mut seen = vec![false; a.cells() as usize];
        for c in a.iter_cells() {
            let i = a.linear_index(c);
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&x| x));
    });
}

/// Random flag sets over a 16³ box.
fn arb_flags(g: &mut Gen) -> Vec<(i64, i64, i64)> {
    g.vec(0..200, |g| (g.i64(0..16), g.i64(0..16), g.i64(0..16)))
}

#[test]
fn clustering_covers_every_flag_once() {
    prop::check(64, arb_flags, |cells| {
        let mut flags = FlagField::new(Region::cube(16));
        for (x, y, z) in &cells {
            flags.set(ivec3(*x, *y, *z), true);
        }
        let params = ClusterParams::default();
        let boxes = berger_rigoutsos(&flags, &params);
        for p in Region::cube(16).iter_cells() {
            let n = boxes.iter().filter(|b| b.contains(p)).count();
            if flags.get(p) {
                assert_eq!(n, 1, "flag at {:?} covered {} times", p, n);
            } else {
                assert!(n <= 1, "cell {:?} covered {} times", p, n);
            }
        }
        for b in &boxes {
            assert!(Region::cube(16).contains_region(b));
        }
    });
}

#[test]
fn clustering_efficiency_bound() {
    prop::check(64, arb_flags, |cells| {
        if cells.is_empty() {
            return; // no flags, no boxes
        }
        let mut flags = FlagField::new(Region::cube(16));
        for (x, y, z) in &cells {
            flags.set(ivec3(*x, *y, *z), true);
        }
        let params = ClusterParams {
            min_efficiency: 0.5,
            min_box_cells: 2,
            ..Default::default()
        };
        let boxes = berger_rigoutsos(&flags, &params);
        for b in &boxes {
            let eff = flags.count_in(b) as f64 / b.cells() as f64;
            assert!(
                eff >= 0.5 || b.cells() <= 2,
                "box {:?} efficiency {}",
                b,
                eff
            );
        }
    });
}

#[test]
fn flag_buffering_monotone() {
    prop::check(
        64,
        |g| (arb_flags(g), g.usize(0..3)),
        |(cells, buf)| {
            let mut flags = FlagField::new(Region::cube(16));
            for (x, y, z) in &cells {
                flags.set(ivec3(*x, *y, *z), true);
            }
            let before = flags.count();
            let mut buffered = flags.clone();
            buffered.buffer(buf);
            assert!(buffered.count() >= before);
            // everything originally flagged stays flagged
            for p in Region::cube(16).iter_cells() {
                if flags.get(p) {
                    assert!(buffered.get(p));
                }
            }
        },
    );
}

fn split_patch_keeps_invariants(want_frac: f64, child_lo: i64) {
    let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(32, 8, 8)), 2, 3, 1, 1);
    let root = h.insert_patch(0, region(ivec3(0, 0, 0), ivec3(32, 8, 8)), None, 0);
    let clo = child_lo.min(20);
    let _c = h.insert_patch(
        1,
        region(ivec3(2 * clo, 0, 0), ivec3(2 * clo + 8, 8, 8)),
        Some(root),
        0,
    );
    let want = ((32 * 8 * 8) as f64 * want_frac) as i64;
    let (a, b) = h.split_patch(root, want, 0);
    assert!(h.check_invariants().is_ok(), "{:?}", h.check_invariants());
    assert_eq!(h.patch(a).cells() + h.patch(b).cells(), 32 * 8 * 8);
}

#[test]
fn split_patch_preserves_invariants() {
    // a case that failed once (a cut through the child)
    split_patch_keeps_invariants(0.6016723930885416, 16);
    prop::check(
        32,
        |g| (g.f64(0.1..0.9), g.i64(0..20)),
        |(want_frac, child_lo)| split_patch_keeps_invariants(want_frac, child_lo),
    );
}
