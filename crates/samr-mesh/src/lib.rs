//! # samr-mesh — structured adaptive mesh refinement substrate
//!
//! The grid-hierarchy machinery underneath the SC'01 distributed-DLB
//! reproduction: exact integer region algebra, patches with ghosted fields,
//! the level tree (Fig. 1 of the paper), refinement flagging,
//! Berger–Rigoutsos clustering, and inter-level interpolation.
//!
//! Nothing in this crate knows about processors' *performance* or networks;
//! patches carry only an opaque `owner` index. The DLB crate (`dlb`) and the
//! driver (`samr-engine`) assign meaning to owners.
//!
//! ## Coordinate conventions
//!
//! All regions are half-open integer cell boxes in *level-local* coordinates:
//! level `l`'s cells are a factor `r` smaller than level `l-1`'s, so a level-
//! `l` region maps to level `l+1` via [`Region::refine`] and back via
//! [`Region::coarsen`].

#![forbid(unsafe_code)]

// Fixed-axis (0..3) loops indexing several parallel arrays read more
// clearly as index loops.
#![allow(clippy::needless_range_loop)]

pub mod checkpoint;
pub mod cluster;
pub mod composite;
pub mod field;
pub mod flag;
pub mod flux;
pub mod hierarchy;
pub mod index;
pub mod interp;
pub mod patch;
pub mod pool;
pub mod region;

pub use checkpoint::{restore, snapshot, HierarchySnapshot};
pub use cluster::{berger_rigoutsos, ClusterParams};
pub use composite::finest_value_at;
pub use field::Field3;
pub use flag::{flag_cells, FlagField, RefineCriterion};
pub use flux::FluxRegister;
pub use hierarchy::{
    BoxIndex, FillSource, GridHierarchy, LevelTopology, PatchShell, SiblingOverlap,
};
pub use index::{ivec3, IVec3};
pub use patch::{GridPatch, OwnerProc, PatchId};
pub use pool::{FieldPool, PoolStats};
pub use region::{region, total_cells, Region};
