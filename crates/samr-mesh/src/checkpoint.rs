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
    snapshot_in(hier, &crate::pool::FieldPool::new())
}

/// Like [`snapshot`], but every cloned field's backing store is drawn from
/// (and counted by) `pool`; the data is bit-identical.
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
                fields: p.fields.iter().map(|f| f.clone_in(pool)).collect(),
                ..*p
            })
            .collect(),
    }
}

impl HierarchySnapshot {
    /// Free every field buffer. The pool the snapshot was drawn from keeps
    /// nothing, so this is the same as dropping it.
    pub fn recycle(self, _pool: &crate::pool::FieldPool) {}
}

/// Rebuild a hierarchy from a snapshot. Structure, ids, owners, parents and
/// field data are restored exactly. Panics where [`try_restore`] errs: for
/// snapshots the program took itself.
pub fn restore(snap: &HierarchySnapshot) -> GridHierarchy {
    try_restore(snap).expect("a snapshot of a consistent hierarchy")
}

/// Rebuild a hierarchy from a snapshot that may come from outside the
/// program. Each patch adopts copies of its recorded fields under its
/// recorded id, through the insert check every grid passes (a duplicate id,
/// a level at or past `max_levels`, a region outside its level's domain or
/// its parent, a field of the wrong shape are errors); then the whole
/// hierarchy must pass [`GridHierarchy::check_invariants`] (overlapping
/// siblings) and its level 0 must tile the domain.
pub fn try_restore(snap: &HierarchySnapshot) -> Result<GridHierarchy, String> {
    let mut hier = GridHierarchy::try_new(
        snap.domain,
        snap.refine_factor,
        snap.max_levels,
        snap.nfields,
        snap.ghost,
    )?;
    let pool = hier.pool().clone();
    // insert in (level, id) order so parents exist before children
    let mut by_level: Vec<&GridPatch> = snap.patches.iter().collect();
    by_level.sort_by_key(|p| (p.level, p.id));
    for p in by_level {
        hier.try_adopt(GridPatch {
            fields: p.fields.iter().map(|f| f.clone_in(&pool)).collect(),
            ..*p
        })?;
    }
    hier.check_invariants()?;
    let (covered, cells) = (hier.level_cells(0), snap.domain.cells());
    if covered != cells {
        return Err(format!("level 0 covers {covered} of the domain's {cells} cells"));
    }
    Ok(hier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field3;
    use crate::patch::PatchId;
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
    fn pooled_snapshot_matches_the_plain_one() {
        let h = sample();
        let pool = h.pool().clone();
        let plain = snapshot(&h);
        let before = pool.stats().misses;
        let pooled = snapshot_in(&h, &pool);
        assert_eq!(plain.patches.len(), pooled.patches.len());
        for (a, b) in plain.patches.iter().zip(&pooled.patches) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.fields, b.fields);
        }
        // every cloned field was drawn through the hierarchy's pool
        assert_eq!(pool.stats().misses - before, 2 * 2);
        pooled.recycle(&pool);
    }

    /// Two level-0 grids side by side, each with one child.
    fn two_roots() -> GridHierarchy {
        let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(16, 8, 8)), 2, 3, 2, 1);
        let a = h.insert_patch(0, region(ivec3(0, 0, 0), ivec3(8, 8, 8)), None, 0);
        let b = h.insert_patch(0, region(ivec3(8, 0, 0), ivec3(16, 8, 8)), None, 1);
        h.insert_patch(1, region(ivec3(2, 2, 2), ivec3(8, 8, 8)), Some(a), 0);
        h.insert_patch(1, region(ivec3(20, 0, 0), ivec3(28, 8, 8)), Some(b), 1);
        h.patch_mut(b).fields[1].map_interior(|p, _| p.z as f64);
        h
    }

    /// What `try_restore` reports for `snap` after `tamper`.
    fn tampered(tamper: impl FnOnce(&mut HierarchySnapshot)) -> String {
        let mut snap = snapshot(&two_roots());
        tamper(&mut snap);
        match try_restore(&snap) {
            Ok(_) => panic!("a tampered snapshot was restored"),
            Err(e) => e,
        }
    }

    /// A snapshot from outside the program that no hierarchy can be is an
    /// error naming the patch at fault, never a panic: through the insert
    /// check (duplicate id, level past `max_levels`, child outside its
    /// parent, wrong field count or shape), then the whole-hierarchy
    /// invariants (overlapping siblings) and level 0's tiling.
    #[test]
    fn tampered_snapshots_are_errors() {
        let good = snapshot(&two_roots());
        let back = try_restore(&good).expect("an untampered snapshot restores");
        assert_eq!(back.num_patches(), 4);
        assert_eq!(tampered(|s| s.patches[3].id = PatchId(0)), "g0 already in use");
        assert_eq!(
            tampered(|s| s.patches[2].level = 3),
            "g2: level 3 exceeds max_levels 3"
        );
        // inside the domain, but under the other root
        let e = tampered(|s| s.patches[2].region = region(ivec3(16, 0, 0), ivec3(20, 4, 4)));
        assert!(e.starts_with("g2: region ") && e.contains("not inside parent g0"), "{e}");
        let e = tampered(|s| s.patches[3].fields[1] = Field3::zeros(Region::cube(4), 1));
        assert!(e.starts_with("g3: a field over "), "{e}");
        let e = tampered(|s| s.patches[3].fields.truncate(1));
        assert_eq!(e, "g3: 1 fields, the hierarchy holds 2");
        let e = tampered(|s| s.patches[1].region.hi.x = 17);
        assert!(e.ends_with("outside the level-0 domain"), "{e}");
        // a sibling over g3: each insert is fine, the level is not
        let e = tampered(|s| {
            let mut twin = s.patches[3].clone();
            twin.id = PatchId(9);
            twin.region = region(ivec3(24, 4, 4), ivec3(30, 8, 8));
            twin.fields = (0..2).map(|_| Field3::zeros(twin.region, 1)).collect();
            s.patches.push(twin);
        });
        assert_eq!(e, "g3 and g9 overlap at level 1");
        let e = tampered(|s| {
            s.patches.retain(|p| p.id != PatchId(1) && p.id != PatchId(3));
        });
        assert_eq!(e, "level 0 covers 512 of the domain's 1024 cells");
        let e = tampered(|s| s.refine_factor = 1);
        assert!(e.starts_with("no hierarchy has refinement factor 1, 3 levels"), "{e}");
    }

    #[test]
    #[should_panic(expected = "a snapshot of a consistent hierarchy: \"g0 already in use\"")]
    fn restore_panics_where_try_restore_errs() {
        let mut snap = snapshot(&two_roots());
        snap.patches[3].id = PatchId(0);
        restore(&snap);
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
