//! Hierarchy statistics: per-level grid counts, cells, coverage, ownership
//! spread — the numbers reports and examples print about a run's adaptive
//! state.

use samr_mesh::hierarchy::GridHierarchy;

/// Summary of one refinement level.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelStats {
    pub level: usize,
    /// Number of grids.
    pub grids: usize,
    /// Total cells.
    pub cells: i64,
    /// Fraction of the level's domain covered by grids.
    pub coverage: f64,
    /// Mean cells per grid (0 when empty).
    pub mean_grid_cells: f64,
    /// Largest grid's cells.
    pub max_grid_cells: i64,
}

/// Summary of a whole hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyStats {
    pub levels: Vec<LevelStats>,
    pub total_grids: usize,
    pub total_cells: i64,
    /// Iteration-weighted workload `Σ cells · r^level`.
    pub weighted_workload: f64,
}

/// Compute statistics for `hier`.
pub fn hierarchy_stats(hier: &GridHierarchy) -> HierarchyStats {
    let r = hier.refine_factor() as f64;
    let mut levels = Vec::new();
    let mut total_grids = 0;
    let mut total_cells = 0;
    let mut weighted = 0.0;
    for l in 0..hier.num_levels() {
        let ids = hier.level_ids(l);
        let cells = hier.level_cells(l);
        let domain = hier.domain_at_level(l).cells();
        let max_grid = ids
            .iter()
            .map(|&id| hier.patch(id).cells())
            .max()
            .unwrap_or(0);
        levels.push(LevelStats {
            level: l,
            grids: ids.len(),
            cells,
            coverage: cells as f64 / domain as f64,
            mean_grid_cells: if ids.is_empty() {
                0.0
            } else {
                cells as f64 / ids.len() as f64
            },
            max_grid_cells: max_grid,
        });
        total_grids += ids.len();
        total_cells += cells;
        weighted += cells as f64 * r.powi(l as i32);
    }
    HierarchyStats {
        levels,
        total_grids,
        total_cells,
        weighted_workload: weighted,
    }
}

/// Per-owner cells across all levels — ownership spread for reports.
pub fn ownership_spread(hier: &GridHierarchy, nprocs: usize) -> Vec<i64> {
    let mut v = vec![0i64; nprocs];
    for p in hier.iter() {
        v[p.owner] += p.cells();
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_mesh::region::Region;
    use samr_mesh::{ivec3, region};

    fn sample() -> GridHierarchy {
        let mut h = GridHierarchy::new(Region::cube(8), 2, 3, 1, 1);
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        h.insert_patch(1, region(ivec3(0, 0, 0), ivec3(8, 8, 8)), Some(root), 1);
        h.insert_patch(1, region(ivec3(8, 8, 8), ivec3(12, 12, 12)), Some(root), 1);
        h
    }

    #[test]
    fn per_level_numbers() {
        let s = hierarchy_stats(&sample());
        assert_eq!(s.levels.len(), 2);
        assert_eq!(s.levels[0].grids, 1);
        assert_eq!(s.levels[0].cells, 512);
        assert!((s.levels[0].coverage - 1.0).abs() < 1e-12);
        assert_eq!(s.levels[1].grids, 2);
        assert_eq!(s.levels[1].cells, 512 + 64);
        assert!((s.levels[1].coverage - 576.0 / 4096.0).abs() < 1e-12);
        assert_eq!(s.levels[1].max_grid_cells, 512);
        assert_eq!(s.total_grids, 3);
        assert_eq!(s.total_cells, 1088);
        // weighted: 512·1 + 576·2
        assert!((s.weighted_workload - (512.0 + 1152.0)).abs() < 1e-12);
    }

    #[test]
    fn ownership() {
        let v = ownership_spread(&sample(), 2);
        assert_eq!(v, vec![512, 576]);
    }
}
