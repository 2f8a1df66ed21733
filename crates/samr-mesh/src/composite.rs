//! Composite-grid query: read the hierarchy's solution "as one field",
//! answering from the finest grid covering a location. Used by the
//! `visualize` example's slice export.

use crate::hierarchy::GridHierarchy;
use crate::index::IVec3;

/// The finest level (and value of `field`) covering level-0 cell `p0`.
/// Returns `None` when no level-0 grid contains `p0`.
pub fn finest_value_at(hier: &GridHierarchy, p0: IVec3, field: usize) -> Option<(usize, f64)> {
    let r = hier.refine_factor();
    let mut best: Option<(usize, f64)> = None;
    let mut p = p0;
    for level in 0..hier.num_levels() {
        let mut found = false;
        for &id in hier.level_ids(level) {
            let patch = hier.patch(id);
            if patch.region.contains(p) {
                best = Some((level, patch.fields[field].get(p)));
                found = true;
                break;
            }
        }
        if level == 0 && !found {
            return None;
        }
        // descend to the low-corner child cell (fine patches produced by
        // clustering are r-aligned, so the corner is representative; patches
        // split at unaligned planes may be sampled on either side)
        p = p * r;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivec3;
    use crate::region::{region, Region};

    fn two_level() -> GridHierarchy {
        let mut h = GridHierarchy::new(Region::cube(8), 2, 3, 1, 1);
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        h.patch_mut(root).fields[0].fill(1.0);
        let child = h.insert_patch(1, region(ivec3(0, 0, 0), ivec3(8, 8, 8)), Some(root), 0);
        h.patch_mut(child).fields[0].fill(2.0);
        h
    }

    #[test]
    fn finest_value_prefers_fine_grid() {
        let h = two_level();
        // cell (1,1,1) at level 0 is covered by the child at level 1
        let (lvl, v) = finest_value_at(&h, ivec3(1, 1, 1), 0).unwrap();
        assert_eq!(lvl, 1);
        assert_eq!(v, 2.0);
        // cell (6,6,6) only by the root
        let (lvl, v) = finest_value_at(&h, ivec3(6, 6, 6), 0).unwrap();
        assert_eq!(lvl, 0);
        assert_eq!(v, 1.0);
    }

    #[test]
    fn outside_domain_is_none() {
        let h = two_level();
        assert!(finest_value_at(&h, ivec3(100, 0, 0), 0).is_none());
    }
}
