//! Grid patches: rectangular subgrids carrying solution fields.

use crate::field::Field3;
use crate::region::Region;
use base::json::{Error, FromJson, Json, ToJson};
use std::fmt;

/// Identifier of a grid patch, unique within a [`crate::hierarchy::GridHierarchy`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatchId(pub u64);

/// A bare number, not an object.
impl ToJson for PatchId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for PatchId {
    fn from_json(v: &Json) -> Result<PatchId, Error> {
        u64::from_json(v).map(PatchId)
    }
}

impl fmt::Debug for PatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Index of the processor that owns a patch (meaningful to the caller's
/// system model; the mesh crate only stores it).
pub type OwnerProc = usize;

/// A rectangular subgrid at one refinement level.
///
/// `region` is expressed in the patch's *own level's* cell coordinates; the
/// physical span of one cell at level `l` is `h0 / r^l`.
#[derive(Clone, Debug)]
pub struct GridPatch {
    /// Unique id within the hierarchy.
    pub id: PatchId,
    /// Refinement level (0 = root).
    pub level: usize,
    /// Cell region at this level's resolution.
    pub region: Region,
    /// Parent patch (`None` for level-0 patches).
    pub parent: Option<PatchId>,
    /// Owning processor index.
    pub owner: OwnerProc,
    /// Solution fields (application-defined layout; same length for all
    /// patches of a hierarchy).
    pub fields: Vec<Field3>,
}

base::json_struct!(GridPatch: id, level, region, parent, owner, fields);

impl GridPatch {
    /// Cell count — the unit of workload throughout the DLB schemes.
    pub fn cells(&self) -> i64 {
        self.region.cells()
    }

    /// Approximate in-memory size of the patch's field data in bytes; the
    /// payload size used when the patch migrates between processors.
    pub fn payload_bytes(&self) -> u64 {
        self.fields
            .iter()
            .map(|f| (f.storage_region().cells() as u64) * 8)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_counts_ghosts() {
        let p = GridPatch {
            id: PatchId(0),
            level: 0,
            region: Region::cube(4),
            parent: None,
            owner: 0,
            fields: (0..2).map(|_| Field3::zeros(Region::cube(4), 1)).collect(),
        };
        // storage is 6^3 per field, 8 bytes per cell, 2 fields
        assert_eq!(p.payload_bytes(), 2 * 6 * 6 * 6 * 8);
    }
}
