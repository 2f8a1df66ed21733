//! Checkpoint/restore of a grid hierarchy: serialize the full adaptive
//! state — structure, ownership, and solution data — and rebuild it exactly.

use crate::hierarchy::GridHierarchy;
use crate::patch::GridPatch;
use crate::region::Region;

/// A serializable snapshot of a [`GridHierarchy`].
#[derive(Clone, Debug)]
pub struct HierarchySnapshot {
    pub refine_factor: i64,
    pub max_levels: usize,
    pub ghost: i64,
    pub nfields: usize,
    pub domain: Region,
    /// Patches in id order (ids are preserved across restore).
    pub patches: Vec<GridPatch>,
}

base::json_struct!(HierarchySnapshot: refine_factor, max_levels, ghost, nfields, domain, patches);

/// Capture the full state of `hier`.
pub fn snapshot(hier: &GridHierarchy) -> HierarchySnapshot {
    HierarchySnapshot {
        refine_factor: hier.refine_factor(),
        max_levels: hier.max_levels(),
        ghost: hier.ghost(),
        nfields: hier.nfields(),
        domain: hier.domain(),
        patches: hier.iter().cloned().collect(),
    }
}

/// Like [`snapshot`], but every cloned field's backing store is drawn from
/// `pool` (data is bit-identical). Pair with [`HierarchySnapshot::recycle`]
/// when replacing the snapshot, so a recurring one (e.g. a per-step
/// crash-recovery checkpoint) stops allocating once the pool is warm.
pub fn snapshot_in(hier: &GridHierarchy, pool: &crate::pool::FieldPool) -> HierarchySnapshot {
    HierarchySnapshot {
        refine_factor: hier.refine_factor(),
        max_levels: hier.max_levels(),
        ghost: hier.ghost(),
        nfields: hier.nfields(),
        domain: hier.domain(),
        patches: hier
            .iter()
            .map(|p| GridPatch {
                id: p.id,
                level: p.level,
                region: p.region,
                parent: p.parent,
                owner: p.owner,
                fields: p.fields.iter().map(|f| f.clone_in(pool)).collect(),
            })
            .collect(),
    }
}

impl HierarchySnapshot {
    /// Return every field buffer to `pool` (for snapshots built with
    /// [`snapshot_in`]; harmless for plain clones).
    pub fn recycle(self, pool: &crate::pool::FieldPool) {
        for p in self.patches {
            for f in p.fields {
                f.recycle(pool);
            }
        }
    }
}

/// Rebuild a hierarchy from a snapshot. Structure, ids, owners, parents and
/// field data are restored exactly; the result satisfies
/// [`GridHierarchy::check_invariants`] iff the snapshot did.
pub fn restore(snap: &HierarchySnapshot) -> GridHierarchy {
    let mut hier = GridHierarchy::new(
        snap.domain,
        snap.refine_factor,
        snap.max_levels,
        snap.nfields,
        snap.ghost,
    );
    // insert in (level, id) order so parents exist before children
    let mut by_level: Vec<&GridPatch> = snap.patches.iter().collect();
    by_level.sort_by_key(|p| (p.level, p.id));
    for p in by_level {
        hier.insert_patch_with_id(p.id, p.level, p.region, p.parent, p.owner);
        // copy the snapshot data into the pooled zero fields the insert
        // created rather than cloning fresh allocations into their place
        let dst = hier.patch_mut(p.id);
        for (d, s) in dst.fields.iter_mut().zip(&p.fields) {
            debug_assert_eq!(d.storage_region(), s.storage_region());
            d.copy_from(s, &s.storage_region());
        }
    }
    hier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ivec3, region};

    fn sample() -> GridHierarchy {
        let mut h = GridHierarchy::new(Region::cube(8), 2, 3, 2, 1);
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        h.patch_mut(root).fields[0].map_interior(|p, _| p.x as f64 * 1.5);
        let c = h.insert_patch(1, region(ivec3(2, 2, 2), ivec3(8, 8, 8)), Some(root), 1);
        h.patch_mut(c).fields[1].map_interior(|p, _| (p.y + p.z) as f64);
        h
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let h = sample();
        let snap = snapshot(&h);
        let back = restore(&snap);
        assert!(back.check_invariants().is_ok());
        assert_eq!(back.num_patches(), h.num_patches());
        assert_eq!(back.num_levels(), h.num_levels());
        for p in h.iter() {
            let q = back.patch(p.id);
            assert_eq!(q.level, p.level);
            assert_eq!(q.region, p.region);
            assert_eq!(q.parent, p.parent);
            assert_eq!(q.owner, p.owner);
            assert_eq!(q.fields, p.fields);
        }
    }

    #[test]
    fn json_roundtrip() {
        let h = sample();
        let snap = snapshot(&h);
        let json = base::json::ToJson::to_json(&snap).to_compact();
        let back: HierarchySnapshot = base::json::from_str(&json).unwrap();
        let restored = restore(&back);
        assert_eq!(restored.num_patches(), h.num_patches());
        assert_eq!(
            restored.patch(h.iter().next().unwrap().id).fields,
            h.iter().next().unwrap().fields
        );
    }

    #[test]
    fn pooled_snapshot_matches_and_recycling_feeds_the_pool() {
        let h = sample();
        let pool = h.pool().clone();
        let plain = snapshot(&h);
        let pooled = snapshot_in(&h, &pool);
        assert_eq!(plain.patches.len(), pooled.patches.len());
        for (a, b) in plain.patches.iter().zip(&pooled.patches) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.fields, b.fields);
        }
        // replace-and-recycle: the second snapshot reuses the first's buffers
        pooled.recycle(&pool);
        let hits_before = pool.stats().hits;
        let again = snapshot_in(&h, &pool);
        assert!(
            pool.stats().hits > hits_before,
            "re-snapshot should hit the recycled free lists: {:?}",
            pool.stats()
        );
        for (a, b) in plain.patches.iter().zip(&again.patches) {
            assert_eq!(a.fields, b.fields);
        }
    }

    #[test]
    fn restored_hierarchy_keeps_working() {
        let h = sample();
        let mut back = restore(&snapshot(&h));
        // new patches get fresh ids beyond the restored ones
        let root = back.level_ids(0)[0];
        let extra = back.insert_patch(
            1,
            region(ivec3(10, 10, 10), ivec3(14, 14, 14)),
            Some(root),
            0,
        );
        assert!(back.check_invariants().is_ok());
        assert!(extra.0 > back.level_ids(1)[0].0 || back.level_ids(1)[0] == extra);
        assert!(!h.contains(extra), "fresh id unused by the original");
    }
}
