//! The SAMR grid hierarchy: a tree of patches, one list per refinement level
//! (Fig. 1 of the paper).
//!
//! The hierarchy is an arena keyed by [`PatchId`]; levels store ids in
//! deterministic creation order. The number of levels, the number of grids,
//! and the locations of the grids all change with each adaptation.

use crate::field::Field3;
use crate::patch::{GridPatch, OwnerProc, PatchId};
use crate::region::Region;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A tree of grid patches organized by refinement level.
#[derive(Clone, Debug)]
pub struct GridHierarchy {
    /// Refinement factor between consecutive levels (paper uses 2).
    refine_factor: i64,
    /// Maximum number of levels allowed (root counts as one).
    max_levels: usize,
    /// Ghost-zone width used by all patch fields.
    ghost: i64,
    /// Number of solution fields per patch.
    nfields: usize,
    /// Root-level problem domain.
    domain: Region,
    /// Arena of live patches.
    patches: BTreeMap<PatchId, GridPatch>,
    /// Patch ids per level, creation-ordered (so ascending: ids are handed
    /// out in increasing order and a rollback reinserts where it removed).
    levels: Vec<Vec<PatchId>>,
    /// The parent link of every `levels[l]` entry, index for index, so a
    /// patch's children come from one contiguous scan of the level below
    /// instead of an arena lookup per patch there.
    parents: Vec<Vec<Option<PatchId>>>,
    /// Next fresh id.
    next_id: u64,
    /// Structural generation per level: bumped whenever that level's patch
    /// set, a patch region or a parent link changes, invalidating the
    /// level's [`GridHierarchy::exchange_topology`] cache and no other
    /// level's. Field *data* and owner writes do not bump it.
    topo_gen: Vec<u64>,
    /// Per-level cached exchange topology tagged with the generation that
    /// built it. `Arc` so callers can hold the topology while mutating
    /// patch data, and so cloning the hierarchy stays cheap.
    topo_cache: Vec<Option<(u64, Arc<LevelTopology>)>>,
    /// Where inserts draw their field buffers from (and are counted).
    /// Cloning the hierarchy shares the pool (it is an `Arc` handle).
    pool: crate::pool::FieldPool,
    /// Undo log of the open transaction, if any
    /// (see [`GridHierarchy::begin_transaction`]).
    undo: Option<UndoLog>,
}

/// What [`GridHierarchy::rollback`] replays in reverse. Each record holds
/// exactly what its mutator overwrote, so undoing the records newest-first
/// walks the hierarchy back through every intermediate state to the one at
/// `begin_transaction`.
#[derive(Clone, Debug)]
struct UndoLog {
    /// Fresh-id counter at `begin_transaction`.
    next_id: u64,
    records: Vec<Undo>,
}

#[derive(Clone, Debug)]
enum Undo {
    Owner { id: PatchId, old: OwnerProc },
    Parent { id: PatchId, old: Option<PatchId> },
    /// `id` was appended to its level's list.
    Inserted { id: PatchId },
    /// The removed patch itself — fields and all, parked here instead of
    /// being freed — and its position in its level's list.
    Removed { patch: GridPatch, index: usize },
}

impl GridHierarchy {
    /// Create a hierarchy whose level-0 domain is `domain`, with no patches.
    pub fn new(domain: Region, refine_factor: i64, max_levels: usize, nfields: usize, ghost: i64) -> Self {
        Self::try_new(domain, refine_factor, max_levels, nfields, ghost)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`GridHierarchy::new`], with a shape it cannot hold reported instead
    /// of panicking (a snapshot read from outside the program).
    pub(crate) fn try_new(
        domain: Region,
        refine_factor: i64,
        max_levels: usize,
        nfields: usize,
        ghost: i64,
    ) -> Result<Self, String> {
        if refine_factor < 2 || max_levels < 1 || domain.is_empty() || ghost < 0 {
            return Err(format!(
                "no hierarchy has refinement factor {refine_factor}, {max_levels} levels, \
                 domain {domain:?} and ghost width {ghost}"
            ));
        }
        Ok(GridHierarchy {
            refine_factor,
            max_levels,
            ghost,
            nfields,
            domain,
            patches: BTreeMap::new(),
            levels: vec![Vec::new()],
            parents: vec![Vec::new()],
            next_id: 0,
            topo_gen: Vec::new(),
            topo_cache: Vec::new(),
            pool: crate::pool::FieldPool::new(),
            undo: None,
        })
    }

    /// The hierarchy's field-buffer pool: callers that allocate fields for
    /// it (solver scratch, regrid, snapshots) draw from it, so its count
    /// covers the run's field buffers.
    pub fn pool(&self) -> &crate::pool::FieldPool {
        &self.pool
    }

    /// Record a structural mutation at `level`: invalidate that level's
    /// cached topology. Generations only grow, so an entry cached before a
    /// level was cleared never matches the level rebuilt in its place.
    fn bump_topology(&mut self, level: usize) {
        if self.topo_gen.len() <= level {
            self.topo_gen.resize(level + 1, 0);
        }
        self.topo_gen[level] += 1;
    }

    /// Refinement factor between levels.
    pub fn refine_factor(&self) -> i64 {
        self.refine_factor
    }

    /// Maximum level count.
    pub fn max_levels(&self) -> usize {
        self.max_levels
    }

    /// Ghost width of patch fields.
    pub fn ghost(&self) -> i64 {
        self.ghost
    }

    /// Fields per patch.
    pub fn nfields(&self) -> usize {
        self.nfields
    }

    /// Level-0 domain.
    pub fn domain(&self) -> Region {
        self.domain
    }

    /// Domain expressed at level `l` resolution.
    pub fn domain_at_level(&self, l: usize) -> Region {
        let mut d = self.domain;
        for _ in 0..l {
            d = d.refine(self.refine_factor);
        }
        d
    }

    /// Number of levels that currently hold at least one patch... plus empty
    /// trailing levels are trimmed, so this is `deepest level + 1` (at least 1).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Ids of patches at `level` (empty slice when the level doesn't exist).
    pub fn level_ids(&self, level: usize) -> &[PatchId] {
        self.levels.get(level).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Borrow a patch.
    pub fn patch(&self, id: PatchId) -> &GridPatch {
        &self.patches[&id]
    }

    /// Mutably borrow a patch.
    pub fn patch_mut(&mut self, id: PatchId) -> &mut GridPatch {
        self.patches.get_mut(&id).expect("unknown patch id")
    }

    /// Does the hierarchy contain this id?
    pub fn contains(&self, id: PatchId) -> bool {
        self.patches.contains_key(&id)
    }

    /// Iterate over all live patches in id order.
    pub fn iter(&self) -> impl Iterator<Item = &GridPatch> {
        self.patches.values()
    }

    /// Total number of live patches.
    pub fn num_patches(&self) -> usize {
        self.patches.len()
    }

    /// Total cells at `level`.
    pub fn level_cells(&self, level: usize) -> i64 {
        self.level_ids(level)
            .iter()
            .map(|id| self.patch(*id).cells())
            .sum()
    }

    /// Children of `id`, a patch at `level`, in level order: one scan of
    /// the parent links of `level + 1`.
    fn children(&self, id: PatchId, level: usize) -> Vec<PatchId> {
        self.level_ids(level + 1)
            .iter()
            .zip(self.parents.get(level + 1).into_iter().flatten())
            .filter_map(|(&c, &p)| (p == Some(id)).then_some(c))
            .collect()
    }

    /// Position of `id` in `levels[level]` (ascending, so a binary search).
    fn slot(&self, level: usize, id: PatchId) -> usize {
        self.levels[level]
            .binary_search(&id)
            .expect("patch missing from its level list")
    }

    /// Make sure `levels[level]` and `parents[level]` exist.
    fn ensure_level(&mut self, level: usize) {
        while self.levels.len() <= level {
            self.levels.push(Vec::new());
            self.parents.push(Vec::new());
        }
    }

    /// Insert a new patch of zero fields at `level` covering `region`
    /// (level-`level` coordinates), owned by `owner`: shorthand for
    /// [`GridHierarchy::insert_patch_with_fields`] with pool-counted zero
    /// fields. Returns its id.
    pub fn insert_patch(
        &mut self,
        level: usize,
        region: Region,
        parent: Option<PatchId>,
        owner: OwnerProc,
    ) -> PatchId {
        let len = region.grow(self.ghost).cells() as usize;
        // an empty region has no field to build: the insert check refuses it
        let nfields = if region.is_empty() { 0 } else { self.nfields };
        let fields = (0..nfields)
            .map(|_| Field3::zeros_in(self.pool.reserve(len), region, self.ghost))
            .collect();
        self.insert_patch_with_fields(level, region, parent, owner, fields)
    }

    /// Fill the interiors of `fields` — the fields of a patch about to be
    /// inserted one level below `parent` — from their final sources, the
    /// regrid data path in which every interior cell has exactly one writer:
    /// each `sources` window (the part of a retired patch of that level
    /// inside the new region) is copied, and piecewise-constant prolongation
    /// from `parent` runs only over `region \ ⋃ windows`. Whatever `fields`
    /// held, the interiors end up equal to full-storage prolongation followed
    /// by `copy_from` of every window, bit for bit.
    ///
    /// Ghost cells are not touched: the level's next ghost exchange writes
    /// every one of them (see [`LevelTopology`]) before anything reads one.
    /// Takes `&self`, so patches can be filled concurrently and then
    /// inserted in order with [`GridHierarchy::insert_patch_with_fields`].
    pub fn fill_refined_fields(
        &self,
        fields: &mut [Field3],
        parent: PatchId,
        sources: &[FillSource<'_>],
    ) {
        let r = self.refine_factor;
        let pp = self.patch(parent);
        let region = fields[0].interior();
        assert!(
            pp.region.contains_region(&region.coarsen(r)),
            "{region:?} not inside parent {parent:?} ({:?})",
            pp.region
        );
        let from_parent = region.subtract_all(sources.iter().map(|s| &s.window));
        for (k, f) in fields.iter_mut().enumerate() {
            for s in sources {
                f.copy_from(&s.fields[k], &s.window);
            }
            for b in &from_parent {
                crate::interp::prolong_constant(&pp.fields[k], f, b, r);
            }
        }
    }

    /// Insert a new patch at `level` that adopts `fields` (built over
    /// `region` with this hierarchy's field count and ghost width, filled
    /// e.g. by [`GridHierarchy::fill_refined_fields`], initialised by the
    /// application for a level-0 patch, or cut from a split patch). The one
    /// way a grid enters the hierarchy, through one check: panics on a
    /// patch the hierarchy cannot hold. Returns the patch's fresh id.
    pub fn insert_patch_with_fields(
        &mut self,
        level: usize,
        region: Region,
        parent: Option<PatchId>,
        owner: OwnerProc,
        fields: Vec<Field3>,
    ) -> PatchId {
        let id = PatchId(self.next_id);
        let patch = GridPatch {
            id,
            level,
            region,
            parent,
            owner,
            fields,
        };
        self.try_adopt(patch).unwrap_or_else(|e| panic!("{e}"));
        id
    }

    /// Insert `patch` under its own id, after [`GridHierarchy::check_insert`];
    /// the fresh-id counter moves past the id, so later inserts never
    /// collide with it. Checkpoint restore adopts recorded ids through here.
    pub(crate) fn try_adopt(&mut self, patch: GridPatch) -> Result<(), String> {
        self.check_insert(&patch)?;
        let (id, level) = (patch.id, patch.level);
        self.ensure_level(level);
        debug_assert!(
            self.levels[level].last().is_none_or(|&last| last < id),
            "{id:?} would break level {level}'s ascending id order"
        );
        self.levels[level].push(id);
        self.parents[level].push(patch.parent);
        self.patches.insert(id, patch);
        self.next_id = self.next_id.max(id.0 + 1);
        self.bump_topology(level);
        if let Some(log) = &mut self.undo {
            log.records.push(Undo::Inserted { id });
        }
        Ok(())
    }

    /// What a patch must be to enter the hierarchy: a new id, a place
    /// ([`GridHierarchy::check_invariants`] holds every patch to the same),
    /// and this hierarchy's field count, each field shaped for the region
    /// and ghost width.
    fn check_insert(&self, p: &GridPatch) -> Result<(), String> {
        if self.patches.contains_key(&p.id) {
            return Err(format!("{:?} already in use", p.id));
        }
        self.check_place(p)?;
        if p.fields.len() != self.nfields {
            let n = p.fields.len();
            return Err(format!("{:?}: {n} fields, the hierarchy holds {}", p.id, self.nfields));
        }
        match p.fields.iter().find(|f| f.interior() != p.region || f.ghost() != self.ghost) {
            Some(f) => Err(format!(
                "{:?}: a field over {:?} with ghost width {}, not {:?} with {}",
                p.id,
                f.interior(),
                f.ghost(),
                p.region,
                self.ghost
            )),
            None => Ok(()),
        }
    }

    /// A patch's place: a level below `max_levels`, a non-empty region
    /// inside that level's domain, and a parent exactly when the level is
    /// above 0 — one level up and containing the coarsened region.
    fn check_place(&self, p: &GridPatch) -> Result<(), String> {
        let (id, level, region) = (p.id, p.level, p.region);
        if level >= self.max_levels {
            return Err(format!("{id:?}: level {level} exceeds max_levels {}", self.max_levels));
        }
        if region.is_empty() || !self.domain_at_level(level).contains_region(&region) {
            let what = format!("{id:?}: region {region:?}");
            return Err(format!("{what} empty or outside the level-{level} domain"));
        }
        match (level, p.parent) {
            (0, None) => Ok(()),
            (0, Some(par)) => Err(format!("{id:?} at level 0 has parent {par:?}")),
            (_, None) => Err(format!("{id:?} at level {level} has no parent")),
            (_, Some(par)) => {
                let pp = (self.patches.get(&par))
                    .ok_or_else(|| format!("{id:?}: parent {par:?} is not in the hierarchy"))?;
                if pp.level + 1 != level {
                    Err(format!("{id:?}: parent {par:?} is not one level up"))
                } else if !pp.region.contains_region(&region.coarsen(self.refine_factor)) {
                    let preg = pp.region;
                    Err(format!("{id:?}: region {region:?} not inside parent {par:?} ({preg:?})"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Remove a patch (and no others — callers remove descendants first).
    /// Its field buffers are freed — at [`GridHierarchy::commit`] when a
    /// transaction is open.
    pub fn remove_patch(&mut self, id: PatchId) {
        let p = self.patches.remove(&id).expect("removing unknown patch");
        let index = self.slot(p.level, id);
        self.levels[p.level].remove(index);
        self.parents[p.level].remove(index);
        self.bump_topology(p.level);
        if let Some(log) = &mut self.undo {
            log.records.push(Undo::Removed { patch: p, index });
        }
        self.trim_levels();
    }

    /// Remove every patch at `level` and deeper. Used when regridding a
    /// level: the finer structure is rebuilt from scratch.
    pub fn clear_levels_from(&mut self, level: usize) {
        if level == 0 {
            panic!("cannot clear level 0: the root grid must always exist");
        }
        assert!(
            self.undo.is_none(),
            "clear_levels_from is not recorded by a transaction"
        );
        for l in level..self.levels.len() {
            for id in std::mem::take(&mut self.levels[l]) {
                self.patches.remove(&id);
            }
            self.parents[l].clear();
            self.bump_topology(l);
        }
        self.trim_levels();
    }

    fn trim_levels(&mut self) {
        while self.levels.len() > 1 && self.levels.last().is_some_and(|v| v.is_empty()) {
            self.levels.pop();
            self.parents.pop();
        }
    }

    /// Change the owner of a patch.
    pub fn set_owner(&mut self, id: PatchId, owner: OwnerProc) {
        let old = std::mem::replace(&mut self.patch_mut(id).owner, owner);
        if let Some(log) = &mut self.undo {
            log.records.push(Undo::Owner { id, old });
        }
    }

    /// Re-parent a patch. The level's cached plan names parents, so it is
    /// stale afterwards.
    fn set_parent(&mut self, id: PatchId, parent: Option<PatchId>) {
        let p = self.patch_mut(id);
        let level = p.level;
        let old = std::mem::replace(&mut p.parent, parent);
        let slot = self.slot(level, id);
        self.parents[level][slot] = parent;
        self.bump_topology(level);
        if let Some(log) = &mut self.undo {
            log.records.push(Undo::Parent { id, old });
        }
    }

    /// Open a transaction. Until [`GridHierarchy::commit`] or
    /// [`GridHierarchy::rollback`] closes it, the structural mutators —
    /// [`GridHierarchy::set_owner`], the inserts,
    /// [`GridHierarchy::remove_patch`] and the splits built from them —
    /// record what they overwrite, and a removed patch is parked in the log
    /// with its fields instead of being freed. Nothing is copied: the
    /// cost of a transaction is proportional to what it changes, not to the
    /// mesh. Writes through [`GridHierarchy::patch_mut`] are not recorded.
    pub fn begin_transaction(&mut self) {
        assert!(self.undo.is_none(), "a transaction is already open");
        self.undo = Some(UndoLog {
            next_id: self.next_id,
            records: Vec::new(),
        });
    }

    /// Close the open transaction, keeping its changes: the patches it
    /// removed are freed.
    pub fn commit(&mut self) {
        assert!(self.undo.take().is_some(), "no open transaction");
    }

    /// Close the open transaction, undoing its changes newest-first:
    /// structure, ids, level order, owners, parents, the field data of every
    /// patch that existed at [`GridHierarchy::begin_transaction`] (parked
    /// patches come back as they left) and the fresh-id counter end up as
    /// they were. Patches the transaction created are freed, and nothing is
    /// drawn from the pool. Every level
    /// that was touched gets a new topology generation, so no plan cached
    /// mid-transaction survives.
    pub fn rollback(&mut self) {
        // the log is closed first, so the mutators below record nothing
        let log = self.undo.take().expect("no open transaction");
        for r in log.records.into_iter().rev() {
            match r {
                Undo::Owner { id, old } => self.set_owner(id, old),
                Undo::Parent { id, old } => self.set_parent(id, old),
                Undo::Inserted { id } => {
                    debug_assert_eq!(
                        self.levels[self.patch(id).level].last(),
                        Some(&id),
                        "undo replay out of order"
                    );
                    self.remove_patch(id);
                }
                Undo::Removed { patch, index } => {
                    let level = patch.level;
                    self.ensure_level(level);
                    self.levels[level].insert(index, patch.id);
                    self.parents[level].insert(index, patch.parent);
                    self.patches.insert(patch.id, patch);
                    self.bump_topology(level);
                }
            }
        }
        self.next_id = log.next_id;
    }

    /// Run `f` with two *distinct* patches borrowed at once, `dst` mutably —
    /// the split-borrow accessor the zero-clone data paths are built on
    /// (prolong from a parent into a child, copy a sibling window) without
    /// snapshotting whole `Vec<Field3>`s. `dst` is moved out of the arena for
    /// the duration of `f` (a pointer-sized struct move, no field data is
    /// copied) and reinserted afterwards.
    pub fn with_patch_pair<R>(
        &mut self,
        src: PatchId,
        dst: PatchId,
        f: impl FnOnce(&GridPatch, &mut GridPatch) -> R,
    ) -> R {
        assert_ne!(src, dst, "with_patch_pair needs two distinct patches");
        let mut d = self.patches.remove(&dst).expect("unknown patch id");
        let s = self.patches.get(&src).expect("unknown patch id");
        let r = f(s, &mut d);
        self.patches.insert(dst, d);
        r
    }

    /// Split patch `id` in two along `axis` so that the first part has
    /// (approximately, whole planes) `want_cells` cells. Returns the two new
    /// ids `(a, b)`; patch `id` is removed. See [`GridHierarchy::split_patch_at`].
    ///
    /// Used by load balancers when a single grid is too large to move whole.
    pub fn split_patch(&mut self, id: PatchId, want_cells: i64, axis: usize) -> (PatchId, PatchId) {
        let region = self.patch(id).region;
        let (ra, _rb) = region.split_cells(want_cells, axis);
        assert!(
            !ra.is_empty() && ra != region,
            "split produced an empty half: {region:?} want={want_cells} axis={axis}"
        );
        self.split_patch_at(id, axis, ra.hi[axis])
    }

    /// Split patch `id` at plane `cut` (its own level's coordinates) normal
    /// to `axis`. Each new patch's fields are built from the removed
    /// patch's: interior copied, ghost cells zero (the level's next ghost
    /// exchange writes them). Children fully inside one half reattach to
    /// it; children straddling the cut are recursively split at the same
    /// plane so the parent-containment invariant always holds. Returns the
    /// two new ids `(low, high)`; patch `id` is removed.
    pub fn split_patch_at(&mut self, id: PatchId, axis: usize, cut: i64) -> (PatchId, PatchId) {
        let (level, region, parent, owner) = {
            let p = self.patch(id);
            (p.level, p.region, p.parent, p.owner)
        };
        let (ra, rb) = region.split_at(axis, cut);
        assert!(
            !ra.is_empty() && !rb.is_empty(),
            "cut {cut} does not bisect {region:?} on axis {axis}"
        );
        let children = self.children(id, level);

        // each half's fields: pool buffers, zero, with the doomed patch's
        // interior copied in (a one-pass build of each row is slower)
        let [fa, fb] = [ra, rb].map(|half| {
            let len = half.grow(self.ghost).cells() as usize;
            let doomed = &self.patches[&id].fields;
            let half_of = |f: &Field3| {
                let mut h = Field3::zeros_in(self.pool.reserve(len), half, self.ghost);
                h.copy_from(f, &half);
                h
            };
            doomed.iter().map(half_of).collect::<Vec<_>>()
        });
        let a = self.insert_patch_with_fields(level, ra, parent, owner, fa);
        let b = self.insert_patch_with_fields(level, rb, parent, owner, fb);
        // reattach (splitting straddlers at the refined cut plane)
        let fine_cut = cut * self.refine_factor;
        for c in children {
            let creg = self.patch(c).region;
            if creg.hi[axis] <= fine_cut {
                self.set_parent(c, Some(a));
            } else if creg.lo[axis] >= fine_cut {
                self.set_parent(c, Some(b));
            } else {
                let (ca, cb) = self.split_patch_at(c, axis, fine_cut);
                self.set_parent(ca, Some(a));
                self.set_parent(cb, Some(b));
            }
        }
        self.remove_patch(id);
        (a, b)
    }

    /// Bucket index over the regions of `level`'s patches, in level id order.
    fn level_index(&self, level: usize) -> BoxIndex {
        BoxIndex::new(self.level_ids(level).iter().map(|&id| self.patch(id).region))
    }

    /// Emit the sibling windows of the destination in slot `di`: one for
    /// every other patch of the level whose interior its ghost shell
    /// overlaps, each with its source's slot, sources ascending — the order
    /// an all-pairs scan over the level's id list finds them in. `hits` is
    /// scratch.
    fn dst_windows(
        &self,
        ids: &[PatchId],
        index: &BoxIndex,
        di: usize,
        hits: &mut Vec<u32>,
        mut emit: impl FnMut(u32, SiblingOverlap),
    ) {
        let region = index.boxes[di];
        let shell = region.grow(self.ghost);
        index.overlapping(&shell, hits);
        for &si in hits.iter().filter(|&&si| si as usize != di) {
            let window = shell.intersect(&index.boxes[si as usize]);
            if !region.contains_region(&window) {
                let overlap = SiblingOverlap {
                    dst: ids[di],
                    src: ids[si as usize],
                    window,
                    cells: window.cells(),
                };
                emit(si, overlap);
            }
        }
    }

    /// The cached ghost-exchange plan of `level`: sibling overlap windows
    /// plus, per patch, the part of its ghost shell no sibling fills. Built
    /// once per structural generation of *this* level (regrid, split,
    /// insert, remove, re-parenting); field-data writes, owner changes and
    /// mutations of other levels leave it valid.
    ///
    /// Returned as an [`Arc`] so the driver can hold the plan while
    /// mutating patch data, and so repeated calls between regrids are
    /// allocation-free.
    pub fn exchange_topology(&mut self, level: usize) -> Arc<LevelTopology> {
        if self.topo_cache.len() <= level {
            self.topo_cache.resize(level + 1, None);
        }
        let gen = self.topo_gen.get(level).copied().unwrap_or(0);
        if let Some((built, topo)) = &self.topo_cache[level] {
            if *built == gen {
                return Arc::clone(topo);
            }
        }
        // The plan being replaced hands its two big vectors to its
        // successor when nobody else still holds it: a level that changes
        // every step (a redistribution splits level 0 each time) would
        // otherwise allocate, and first-touch, megabytes per step.
        let retired = self.topo_cache[level]
            .take()
            .and_then(|(_, plan)| Arc::try_unwrap(plan).ok())
            .unwrap_or_default();
        // a block's share of a build is tens of microseconds: below a few
        // hundred destinations the pool costs more to wake than it saves
        let parallel = self.level_ids(level).len() >= LevelTopology::BLOCK * LevelTopology::BLOCK;
        let topo = Arc::new(self.build_topology(level, parallel, retired));
        self.topo_cache[level] = Some((gen, Arc::clone(&topo)));
        topo
    }

    /// Plan construction, one task per block of destinations: a
    /// destination's sources come from the bucket index (O(neighbours), not
    /// O(level)), its parent-filled boxes from subtracting its windows from
    /// the shell. The tasks share nothing but the read-only index and are
    /// concatenated in level id order, so the plan does not depend on
    /// `parallel`; nor on `retired`, of which only the capacity is used.
    fn build_topology(
        &self,
        level: usize,
        parallel: bool,
        retired: LevelTopology,
    ) -> LevelTopology {
        #[derive(Default)]
        struct BlockPlan {
            overlaps: Vec<SiblingOverlap>,
            slots: Vec<(u32, u32)>,
            /// Per destination, where its windows start in `overlaps`.
            first: Vec<u32>,
            coarse_fill: Vec<Vec<Region>>,
        }
        let ids = self.level_ids(level);
        let index = self.level_index(level);
        let plan_block = |b: usize, plan: &mut BlockPlan| {
            let mut hits = Vec::new();
            for di in LevelTopology::block_of(b, ids.len()) {
                let first = plan.overlaps.len();
                plan.first.push(first as u32);
                self.dst_windows(ids, &index, di, &mut hits, |si, o| {
                    plan.overlaps.push(o);
                    plan.slots.push((si, di as u32));
                });
                // Siblings are pairwise disjoint (`check_invariants`), so
                // the windows are disjoint pieces of the shell: when their
                // cells add up to the shell's they cover it and nothing is
                // left to fill.
                let region = index.boxes[di];
                let storage = region.grow(self.ghost);
                let windows = &plan.overlaps[first..];
                let covered: i64 = windows.iter().map(|o| o.cells).sum();
                let uncovered = || {
                    let holes = std::iter::once(&region).chain(windows.iter().map(|o| &o.window));
                    storage.subtract_all(holes)
                };
                plan.coarse_fill.push(if covered == storage.cells() - region.cells() {
                    debug_assert!(uncovered().is_empty(), "{:?} shell not covered", ids[di]);
                    Vec::new()
                } else {
                    uncovered()
                });
            }
        };
        let mut plans: Vec<BlockPlan> = Vec::new();
        plans.resize_with(ids.len().div_ceil(LevelTopology::BLOCK), BlockPlan::default);
        if parallel {
            par::for_each_task_parallel(&mut plans, plan_block);
        } else {
            plans
                .iter_mut()
                .enumerate()
                .for_each(|(b, plan)| plan_block(b, plan));
        }

        let total: usize = plans.iter().map(|p| p.overlaps.len()).sum();
        let (mut overlaps, mut overlap_slots) = (retired.overlaps, retired.overlap_slots);
        overlaps.clear();
        overlap_slots.clear();
        overlaps.reserve(total);
        overlap_slots.reserve(total);
        let mut first_overlap = Vec::with_capacity(ids.len() + 1);
        let mut fills = Vec::with_capacity(ids.len());
        for plan in plans {
            first_overlap.extend(plan.first.iter().map(|&f| f + overlaps.len() as u32));
            overlaps.extend_from_slice(&plan.overlaps);
            overlap_slots.extend_from_slice(&plan.slots);
            fills.extend(plan.coarse_fill);
        }
        first_overlap.push(overlaps.len() as u32);

        let mut shells = Vec::with_capacity(ids.len());
        for (&id, coarse_fill) in ids.iter().zip(fills) {
            let p = self.patch(id);
            let storage = p.region.grow(self.ghost);
            if let Some(parent) = p.parent {
                let parent_storage = self.patch(parent).region.grow(self.ghost);
                debug_assert!(
                    parent_storage.contains_region(&storage.coarsen(self.refine_factor)),
                    "{id:?} shell not covered by parent {parent:?}"
                );
            }
            shells.push(PatchShell {
                id,
                parent: p.parent,
                shell_cells: storage.cells() - p.region.cells(),
                coarse_fill,
            });
        }
        let rounds = colour_rounds(&first_overlap, &overlap_slots);
        LevelTopology {
            overlaps,
            overlap_slots,
            first_overlap,
            rounds,
            shells,
        }
    }

    /// Per-owner cell totals at `level` for `nprocs` processors.
    pub fn level_load_by_owner(&self, level: usize, nprocs: usize) -> Vec<i64> {
        let mut v = vec![0i64; nprocs];
        for id in self.level_ids(level) {
            let p = self.patch(*id);
            v[p.owner] += p.cells();
        }
        v
    }

    /// Check structural invariants; returns a description of the first
    /// violation, if any. Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.parents.len() != self.levels.len() {
            return Err("parent links and levels disagree on the level count".into());
        }
        for (l, ids) in self.levels.iter().enumerate() {
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("level {l} ids not ascending"));
            }
            if self.parents[l].len() != ids.len() {
                return Err(format!("level {l}: parent links and ids disagree on the count"));
            }
            for (id, link) in ids.iter().zip(&self.parents[l]) {
                let p = self
                    .patches
                    .get(id)
                    .ok_or_else(|| format!("{id:?} listed at level {l} but not in arena"))?;
                if p.level != l {
                    return Err(format!("{id:?} stored at level {l} but claims {}", p.level));
                }
                if p.parent != *link {
                    return Err(format!("{id:?}: level {l} links it to {link:?}"));
                }
                self.check_place(p)?;
            }
            // siblings must be pairwise disjoint
            for (i, a) in ids.iter().enumerate() {
                for b in &ids[i + 1..] {
                    if self.patches[a].region.overlaps(&self.patches[b].region) {
                        return Err(format!("{a:?} and {b:?} overlap at level {l}"));
                    }
                }
            }
        }
        if self.patches.len() != self.levels.iter().map(|v| v.len()).sum::<usize>() {
            return Err("arena/level count mismatch".into());
        }
        Ok(())
    }
}

/// One sibling ghost-exchange dependency: `dst` needs `window` (which lies in
/// `src`'s interior) to fill its ghost shell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiblingOverlap {
    pub dst: PatchId,
    pub src: PatchId,
    pub window: Region,
    pub cells: i64,
}

/// The ghost-fill plan of one destination patch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatchShell {
    pub id: PatchId,
    /// The patch's parent (`None` at level 0), whose fields fill
    /// `coarse_fill`.
    pub parent: Option<PatchId>,
    /// Cells of the whole shell `region.grow(ghost) \ region` — what the
    /// parent's owner is charged for shipping, sibling-covered or not.
    pub shell_cells: i64,
    /// Disjoint boxes (this level's coordinates) exactly covering the shell
    /// minus every sibling window of this destination: the ghost cells whose
    /// one writer is the parent (level > 0, prolongation) or the physical
    /// boundary (level 0, zero-gradient).
    pub coarse_fill: Vec<Region>,
}

/// Ghost-exchange plan of one level, cached inside [`GridHierarchy`] between
/// structural mutations of that level (see
/// [`GridHierarchy::exchange_topology`]). Per destination, `coarse_fill`
/// and the sibling windows partition the ghost shell, so an exchange writes
/// every ghost cell exactly once and only moves data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LevelTopology {
    /// Sibling overlap windows at this level, destination-major in level id
    /// order (the deterministic exchange order).
    pub overlaps: Vec<SiblingOverlap>,
    /// Per overlap, the `(src, dst)` positions of its patches in level id
    /// order — the slots of `shells`.
    pub overlap_slots: Vec<(u32, u32)>,
    /// `overlaps[first_overlap[d]..first_overlap[d + 1]]` are the windows
    /// of the destination in slot `d` (one entry more than `shells`).
    pub first_overlap: Vec<u32>,
    /// The blocks of [`LevelTopology::BLOCK`] consecutive destinations
    /// (by number, see [`LevelTopology::block_slots`]) that have windows,
    /// partitioned so that no destination of a block has a source in
    /// another block of its round: the field sets of a round's blocks can
    /// be taken out and written concurrently, one task per block, while
    /// every source outside the task's own block stays in place to be read.
    /// Each round lists blocks in ascending order; a block joins the
    /// lowest-numbered round it fits (greedy, in level id order).
    pub rounds: Vec<Vec<u32>>,
    /// Per-patch fill plan, in level id order.
    pub shells: Vec<PatchShell>,
}

/// One already-final source of a new fine patch's data: a retired patch's
/// fields and the window of the new patch they cover
/// (see [`GridHierarchy::fill_refined_fields`]).
#[derive(Clone, Copy, Debug)]
pub struct FillSource<'a> {
    pub fields: &'a [Field3],
    pub window: Region,
}

/// Greedy round assignment of [`LevelTopology::rounds`]: blocks in slot
/// order, each into the lowest-numbered round holding no block with a
/// source of one of its destinations. Sibling adjacency is symmetric —
/// `a.grow(g)` meets `b` exactly when `b.grow(g)` meets `a` — so such a
/// round holds no destination that reads from this block either.
fn colour_rounds(first_overlap: &[u32], overlap_slots: &[(u32, u32)]) -> Vec<Vec<u32>> {
    const NONE: u32 = u32::MAX;
    let n = first_overlap.len().saturating_sub(1);
    let blocks = n.div_ceil(LevelTopology::BLOCK);
    let mut round_of = vec![NONE; blocks];
    let mut rounds: Vec<Vec<u32>> = Vec::new();
    // holds_source[r] == b: round r holds a block that block b reads from
    let mut holds_source: Vec<u32> = Vec::new();
    for b in 0..blocks {
        let slots = LevelTopology::block_of(b, n);
        let windows =
            &overlap_slots[first_overlap[slots.start] as usize..first_overlap[slots.end] as usize];
        if windows.is_empty() {
            continue;
        }
        for &(si, _) in windows {
            let sb = si as usize / LevelTopology::BLOCK;
            if sb != b && round_of[sb] != NONE {
                holds_source[round_of[sb] as usize] = b as u32;
            }
        }
        let r = holds_source
            .iter()
            .position(|&t| t != b as u32)
            .unwrap_or(rounds.len());
        if r == rounds.len() {
            rounds.push(Vec::new());
            holds_source.push(NONE);
        }
        rounds[r].push(b as u32);
        round_of[b] = r as u32;
    }
    rounds
}

impl LevelTopology {
    /// Destinations per block: the unit of work of the plan build and of
    /// [`LevelTopology::rounds`]. Waking the worker pool costs microseconds
    /// whatever the work is, so the units must be worth that — a round that
    /// is a single block, and the build of a level below `BLOCK²`
    /// destinations, run on the calling thread — and consecutive
    /// destinations are mostly neighbours, so a block visits sources its
    /// previous destination just pulled into cache. One constant,
    /// deliberately not a configuration field.
    pub const BLOCK: usize = 16;

    /// The slots of `shells` block `b` covers.
    pub fn block_slots(&self, b: u32) -> std::ops::Range<usize> {
        Self::block_of(b as usize, self.shells.len())
    }

    fn block_of(b: usize, n: usize) -> std::ops::Range<usize> {
        b * Self::BLOCK..n.min((b + 1) * Self::BLOCK)
    }
}

/// Uniform bucket grid over the bounding box of a set of boxes: each box
/// registers in every bucket it touches, and a query visits the buckets it
/// touches. Two overlapping boxes share the bucket of a cell of the overlap
/// (query coordinates outside the bounding box clamp to the boundary
/// buckets), so the buckets a query reads hold every box it overlaps, and
/// an exact test on each entry keeps just those.
///
/// The bucket edge follows the boxes: the smallest power of two that is at
/// least their mean longest edge, between 4 and 32 cells. A box then
/// registers in a handful of buckets and a box-sized query reads a handful,
/// whatever the level holds — with a fixed 32-cell edge a level of 8-cell
/// boxes put 64 of them in every bucket a query read. The grid spans the
/// boxes, not the level's domain: a few clustered fine boxes get a few
/// buckets, not the 32³ an 8-cell edge makes of a 256³ domain.
pub struct BoxIndex {
    /// Bounding box of `boxes`.
    hull: Region,
    boxes: Vec<Region>,
    /// log2 of the bucket edge.
    shift: u32,
    n: [usize; 3],
    /// `items[starts[k]..starts[k + 1]]` are the boxes registered in bucket
    /// `k`, ascending.
    starts: Vec<u32>,
    items: Vec<u32>,
}

impl BoxIndex {
    /// Index `boxes`; a box is known by its position in the iteration
    /// order.
    pub fn new(boxes: impl IntoIterator<Item = Region>) -> Self {
        let boxes: Vec<Region> = boxes.into_iter().collect();
        let hull = boxes.iter().fold(Region::EMPTY, |h, b| h.hull(b));
        let longest: i64 = boxes.iter().map(|b| b.size()[b.size().longest_axis()]).sum();
        let mean = (longest.max(1) as u64).div_ceil(boxes.len().max(1) as u64);
        let shift = mean.next_power_of_two().clamp(4, 32).trailing_zeros();
        let n = [0, 1, 2].map(|k| (((hull.hi[k] - hull.lo[k] - 1) >> shift) + 1).max(1) as usize);
        let mut index = BoxIndex {
            hull,
            boxes: Vec::new(),
            shift,
            n,
            starts: vec![0; n[0] * n[1] * n[2] + 1],
            items: Vec::new(),
        };
        // counting sort by bucket: sizes, then offsets, then the entries in
        // box order, which leaves every bucket ascending
        for b in &boxes {
            for k in index.bucket_ids(b) {
                index.starts[k + 1] += 1;
            }
        }
        for k in 1..index.starts.len() {
            index.starts[k] += index.starts[k - 1];
        }
        let mut next = index.starts.clone();
        index.items = vec![0; next[next.len() - 1] as usize];
        for (i, b) in boxes.iter().enumerate() {
            for k in index.bucket_ids(b) {
                index.items[next[k] as usize] = i as u32;
                next[k] += 1;
            }
        }
        index.boxes = boxes;
        index
    }

    /// Linear ids of the buckets `b` touches.
    fn bucket_ids(&self, b: &Region) -> impl Iterator<Item = usize> {
        let (ny, nz) = (self.n[1], self.n[2]);
        let [rx, ry, rz] = [0, 1, 2].map(|k| {
            let top = self.n[k] as i64 - 1;
            let lo = ((b.lo[k] - self.hull.lo[k]) >> self.shift).clamp(0, top);
            let hi = ((b.hi[k] - 1 - self.hull.lo[k]) >> self.shift).clamp(0, top);
            lo as usize..=hi as usize
        });
        rx.flat_map(move |x| {
            let rz = rz.clone();
            ry.clone()
                .flat_map(move |y| rz.clone().map(move |z| (x * ny + y) * nz + z))
        })
    }

    /// Fill `hits` with the positions, ascending, of the boxes that share a
    /// cell with `q`. The index itself is not written, so concurrent
    /// queries (each with its own `hits`) can share it.
    pub fn overlapping(&self, q: &Region, hits: &mut Vec<u32>) {
        hits.clear();
        for k in self.bucket_ids(q) {
            let bucket = &self.items[self.starts[k] as usize..self.starts[k + 1] as usize];
            hits.extend(
                bucket
                    .iter()
                    .filter(|&&i| self.boxes[i as usize].overlaps(q)),
            );
        }
        // a box that shares several of the buckets was found in each
        hits.sort_unstable();
        hits.dedup();
    }
}

/// All-pairs construction of the exchange plan, straight from its
/// definition: every ordered pair of the level's patches is intersected,
/// and every shell has its windows subtracted. Quadratic in the level and
/// serial; retained (and exported, so cross-crate tests can reach it) purely
/// as the oracle [`GridHierarchy::exchange_topology`] is compared against.
pub mod reference {
    use super::*;

    /// Reference for [`GridHierarchy::exchange_topology`].
    pub fn exchange_topology(h: &GridHierarchy, level: usize) -> LevelTopology {
        let ids = h.level_ids(level);
        let mut topo = LevelTopology::default();
        for (di, &dst) in ids.iter().enumerate() {
            let dp = h.patch(dst);
            let storage = dp.region.grow(h.ghost);
            topo.first_overlap.push(topo.overlaps.len() as u32);
            let first = topo.overlaps.len();
            for (si, &src) in ids.iter().enumerate() {
                let w = storage.intersect(&h.patch(src).region);
                if si != di && !w.is_empty() && !dp.region.contains_region(&w) {
                    topo.overlaps.push(SiblingOverlap {
                        dst,
                        src,
                        window: w,
                        cells: w.cells(),
                    });
                    topo.overlap_slots.push((si as u32, di as u32));
                }
            }
            let windows = topo.overlaps[first..].iter().map(|o| &o.window);
            topo.shells.push(PatchShell {
                id: dst,
                parent: dp.parent,
                shell_cells: storage.cells() - dp.region.cells(),
                coarse_fill: storage.subtract_all(std::iter::once(&dp.region).chain(windows)),
            });
        }
        topo.first_overlap.push(topo.overlaps.len() as u32);
        topo.rounds = colour_rounds(&topo.first_overlap, &topo.overlap_slots);
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ivec3;
    use crate::region::region;

    impl GridHierarchy {
        /// Children ids of `id` (patches at `level+1` whose parent is `id`)
        /// found through the arena, one lookup per patch of the level
        /// below: the oracle the parent links are compared against.
        fn children_of(&self, id: PatchId) -> Vec<PatchId> {
            let level = self.patch(id).level;
            self.level_ids(level + 1)
                .iter()
                .copied()
                .filter(|c| self.patch(*c).parent == Some(id))
                .collect()
        }

        /// The split before each half was cut out of the doomed patch: a
        /// zero-filled insert per half, then `copy_from` of its interior
        /// through [`GridHierarchy::with_patch_pair`] — verbatim, the oracle
        /// [`GridHierarchy::split_patch_at`] is compared against.
        fn split_patch_at_reference(&mut self, id: PatchId, axis: usize, cut: i64) -> (PatchId, PatchId) {
            let (level, region, parent, owner) = {
                let p = self.patch(id);
                (p.level, p.region, p.parent, p.owner)
            };
            let (ra, rb) = region.split_at(axis, cut);
            assert!(
                !ra.is_empty() && !rb.is_empty(),
                "cut {cut} does not bisect {region:?} on axis {axis}"
            );
            let children = self.children(id, level);

            let a = self.insert_patch(level, ra, parent, owner);
            let b = self.insert_patch(level, rb, parent, owner);
            // copy solution data straight out of the doomed patch — the
            // split-borrow accessor avoids snapshotting its whole field set
            for (dst, half) in [(a, ra), (b, rb)] {
                self.with_patch_pair(id, dst, |src, d| {
                    for (k, of) in src.fields.iter().enumerate() {
                        d.fields[k].copy_from(of, &half);
                    }
                });
            }
            // reattach (splitting straddlers at the refined cut plane)
            let fine_cut = cut * self.refine_factor;
            for c in children {
                let creg = self.patch(c).region;
                if creg.hi[axis] <= fine_cut {
                    self.set_parent(c, Some(a));
                } else if creg.lo[axis] >= fine_cut {
                    self.set_parent(c, Some(b));
                } else {
                    let (ca, cb) = self.split_patch_at_reference(c, axis, fine_cut);
                    self.set_parent(ca, Some(a));
                    self.set_parent(cb, Some(b));
                }
            }
            self.remove_patch(id);
            (a, b)
        }

        /// Every patch's children from the parent links equal the arena
        /// scan's, in the same order.
        fn assert_children_match_the_arena(&self) {
            for p in self.iter() {
                let (links, arena) = (self.children(p.id, p.level), self.children_of(p.id));
                assert_eq!(links, arena, "{:?}", p.id);
            }
        }
    }

    /// Over random sequences of transactions — splits at random planes of
    /// random patches, then commit or rollback, then now and then a clear
    /// of the finest level — the parent links stay those of the arena
    /// (`check_invariants`) and every patch's children come out in the
    /// arena scan's order.
    #[test]
    fn parent_links_follow_splits_commits_rollbacks_and_clears() {
        let split = |g: &mut base::prop::Gen| (g.usize(0..64), g.usize(0..3), g.f64(0.0..1.0));
        base::prop::check(
            64,
            |g| g.vec(1..6, |g| (g.vec(1..5, split), g.bool(), g.bool())),
            |transactions| {
                let (mut h, _) = nested_for_split();
                for (splits, keep, clear) in transactions {
                    h.begin_transaction();
                    for (pick, axis, frac) in splits {
                        let ids: Vec<PatchId> = h.iter().map(|p| p.id).collect();
                        let id = ids[pick % ids.len()];
                        let (lo, hi) = (h.patch(id).region.lo[axis], h.patch(id).region.hi[axis]);
                        if hi - lo >= 2 {
                            let cut = lo + 1 + ((hi - lo - 1) as f64 * frac) as i64;
                            h.split_patch_at(id, axis, cut);
                            assert_eq!(h.check_invariants(), Ok(()));
                            h.assert_children_match_the_arena();
                        }
                    }
                    if keep {
                        h.commit();
                    } else {
                        h.rollback();
                    }
                    if clear && h.num_levels() > 2 {
                        h.clear_levels_from(h.num_levels() - 1);
                    }
                    assert_eq!(h.check_invariants(), Ok(()));
                    h.assert_children_match_the_arena();
                }
            },
        );
    }

    fn basic() -> GridHierarchy {
        // 8^3 root domain, r=2, up to 4 levels, 1 field, ghost 1
        GridHierarchy::new(Region::cube(8), 2, 4, 1, 1)
    }

    #[test]
    fn build_two_levels() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        let child = h.insert_patch(
            1,
            region(ivec3(2, 2, 2), ivec3(8, 8, 8)),
            Some(root),
            1,
        );
        assert_eq!(h.num_levels(), 2);
        assert_eq!(h.level_cells(0), 512);
        assert_eq!(h.level_cells(1), 216);
        assert_eq!(h.children_of(root), vec![child]);
        assert!(h.check_invariants().is_ok());
    }

    #[test]
    fn domain_at_level_refines() {
        let h = basic();
        assert_eq!(h.domain_at_level(0), Region::cube(8));
        assert_eq!(h.domain_at_level(2), Region::cube(32));
    }

    #[test]
    fn clear_levels_from_removes_descendants() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        let c1 = h.insert_patch(1, region(ivec3(0, 0, 0), ivec3(4, 4, 4)), Some(root), 0);
        let _g1 = h.insert_patch(2, region(ivec3(0, 0, 0), ivec3(4, 4, 4)), Some(c1), 0);
        assert_eq!(h.num_levels(), 3);
        h.clear_levels_from(1);
        assert_eq!(h.num_levels(), 1);
        assert_eq!(h.num_patches(), 1);
        assert!(h.check_invariants().is_ok());
    }

    #[test]
    #[should_panic]
    fn cannot_clear_root() {
        let mut h = basic();
        h.insert_patch(0, Region::cube(8), None, 0);
        h.clear_levels_from(0);
    }

    #[test]
    fn split_patch_conserves_cells_and_children() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        // child entirely within the first half (x < 4 at level 0 -> x < 8 at level 1)
        let c = h.insert_patch(1, region(ivec3(0, 0, 0), ivec3(6, 6, 6)), Some(root), 0);
        let (a, b) = h.split_patch(root, 256, 0);
        assert!(!h.contains(root));
        assert_eq!(h.patch(a).cells() + h.patch(b).cells(), 512);
        assert_eq!(h.patch(a).cells(), 256);
        // child reattached to the half containing it
        assert_eq!(h.patch(c).parent, Some(a));
        assert!(h.check_invariants().is_ok());
    }

    #[test]
    fn split_patch_copies_field_data() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        h.patch_mut(root).fields[0].map_interior(|p, _| p.x as f64);
        let (a, b) = h.split_patch(root, 256, 0);
        assert_eq!(h.patch(a).fields[0].get(ivec3(1, 1, 1)), 1.0);
        assert_eq!(h.patch(b).fields[0].get(ivec3(6, 2, 3)), 6.0);
    }

    #[test]
    fn sibling_overlaps_found() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        // two adjacent children at level 1 sharing the x=8 plane
        let a = h.insert_patch(1, region(ivec3(0, 0, 0), ivec3(8, 8, 8)), Some(root), 0);
        let b = h.insert_patch(1, region(ivec3(8, 0, 0), ivec3(16, 8, 8)), Some(root), 1);
        let ov = h.exchange_topology(1).overlaps.clone();
        // each needs a 1-deep 8x8 slab from the other
        assert_eq!(ov.len(), 2);
        for o in &ov {
            assert_eq!(o.cells, 64);
            assert!((o.dst == a && o.src == b) || (o.dst == b && o.src == a));
        }
    }

    #[test]
    fn no_overlap_for_distant_siblings() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        h.insert_patch(1, region(ivec3(0, 0, 0), ivec3(4, 4, 4)), Some(root), 0);
        h.insert_patch(1, region(ivec3(10, 10, 10), ivec3(14, 14, 14)), Some(root), 0);
        assert!(h.exchange_topology(1).overlaps.is_empty());
    }

    /// A 2-level hierarchy over `[0, n)^3` whose level 1 is `boxes`.
    fn level1_of(n: i64, ghost: i64, boxes: impl IntoIterator<Item = Region>) -> GridHierarchy {
        assert_eq!(n % 2, 0);
        let mut h = GridHierarchy::new(Region::cube(n / 2), 2, 2, 1, ghost);
        let root = h.insert_patch(0, Region::cube(n / 2), None, 0);
        for reg in boxes {
            h.insert_patch(1, reg, Some(root), 0);
        }
        assert!(h.check_invariants().is_ok());
        h
    }

    /// The bucket-indexed plan's windows must reproduce the all-pairs
    /// scan exactly — same overlaps, same (dst, src) emission order — on
    /// randomized disjoint tilings with holes, for box sizes that select
    /// every bucket edge (cuts straddling the bucket borders each time) and
    /// with one box that spans many buckets of a fine grid.
    #[test]
    fn bucketed_overlaps_match_all_pairs_scan() {
        let mixes: [(&[i64], i64); 5] = [
            (&[0, 31, 33, 65, 96], 32),
            (&[0, 15, 17, 32, 47, 49, 64], 16),
            (&[0, 7, 9, 16, 23, 25, 32, 40], 8),
            (&[0, 3, 5, 8, 11, 13, 16, 20, 24], 4),
            // unit boxes: the edge stops at 4
            (&[0, 1, 2, 3, 4, 5, 6], 4),
        ];
        for (cuts, edge) in mixes {
            let n = *cuts.last().unwrap();
            let mut h = level1_of(n, 1, holey_tiling(cuts, 0x9e37, 16));
            let index = h.level_index(1);
            assert_eq!(1 << index.shift, edge, "cuts {cuts:?}");
            let brute = reference::exchange_topology(&h, 1).overlaps;
            assert!(brute.len() > 100, "tiling {cuts:?} too sparse to exercise the index");
            assert_eq!(h.exchange_topology(1).overlaps, brute, "cuts {cuts:?}");
        }
        // 3-cell boxes beside a 3 x 3 x 64 beam that lies across 16 of their
        // buckets: every box along it must find it, and it all of them
        let cuts: Vec<i64> = (0..=10).map(|i| 3 * i).collect();
        let mut boxes = holey_tiling(&cuts, 0x51ed, 16);
        boxes.push(region(ivec3(30, 12, 0), ivec3(33, 15, 64)));
        let mut h = level1_of(64, 2, boxes);
        assert_eq!(1 << h.level_index(1).shift, 4);
        let brute = reference::exchange_topology(&h, 1).overlaps;
        let beam = *h.level_ids(1).last().unwrap();
        assert!(brute.iter().filter(|o| o.dst == beam).count() >= 8);
        assert_eq!(h.exchange_topology(1).overlaps, brute);
    }

    /// The grid spans the boxes only: queries beside, across and far from
    /// them — and an index of nothing — still answer exactly.
    #[test]
    fn box_index_answers_queries_outside_its_hull() {
        let boxes = [
            region(ivec3(40, 40, 40), ivec3(48, 44, 44)),
            region(ivec3(48, 40, 40), ivec3(52, 50, 44)),
        ];
        let index = BoxIndex::new(boxes);
        let mut hits = vec![7];
        for (q, want) in [
            (region(ivec3(0, 0, 0), ivec3(8, 8, 8)), vec![]),
            (region(ivec3(60, 40, 40), ivec3(70, 44, 44)), vec![]),
            (region(ivec3(0, 0, 0), ivec3(41, 41, 41)), vec![0]),
            (region(ivec3(51, 49, 43), ivec3(90, 90, 90)), vec![1]),
            (Region::cube(100), vec![0, 1]),
        ] {
            index.overlapping(&q, &mut hits);
            assert_eq!(hits, want, "query {q:?}");
        }
        BoxIndex::new([]).overlapping(&Region::cube(4), &mut hits);
        assert!(hits.is_empty());
    }

    /// Uneven disjoint tiling of `[0, cuts.last())^3` with roughly one box
    /// in `drop_one_in` missing, so the mesh has holes.
    fn holey_tiling(cuts: &[i64], seed: u64, drop_one_in: u64) -> Vec<Region> {
        let mut rng = seed;
        let mut out = Vec::new();
        let n = cuts.len() - 1;
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if (rng >> 33).is_multiple_of(drop_one_in) {
                        continue;
                    }
                    out.push(region(
                        ivec3(cuts[ix], cuts[iy], cuts[iz]),
                        ivec3(cuts[ix + 1], cuts[iy + 1], cuts[iz + 1]),
                    ));
                }
            }
        }
        out
    }

    fn scramble(f: &mut Field3, seed: u64) {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for v in f.data_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0;
        }
    }

    /// The single-writer regrid fill must equal the sequence it replaced —
    /// zeroed fields, full-storage prolongation from the parent, then
    /// `copy_from` of every retired patch — on every interior cell, with new
    /// boxes that old data covers fully, partially (several sources), not at
    /// all, and that merely abut old boxes; the new fields start as NaNs so
    /// an interior cell without a writer would show.
    #[test]
    fn regrid_fill_matches_prolong_then_copy_on_interiors() {
        let (nf, ghost, r) = (2usize, 2i64, 2i64);
        let mut h = GridHierarchy::new(Region::cube(48), r, 3, nf, ghost);
        let root = h.insert_patch(0, Region::cube(48), None, 0);
        for k in 0..nf {
            scramble(&mut h.patch_mut(root).fields[k], 7 + k as u64);
        }
        // retired generation: boxes with their own data, and holes — the
        // central box is always one
        let old: Vec<(Region, Vec<Field3>)> = holey_tiling(&[0, 31, 33, 65, 96], 0x9e37, 4)
            .into_iter()
            .filter(|b| b.lo != ivec3(33, 33, 33))
            .enumerate()
            .map(|(i, reg)| {
                let fields = (0..nf)
                    .map(|k| {
                        let mut f = Field3::zeros(reg, ghost);
                        scramble(&mut f, 1000 + (i * nf + k) as u64);
                        f
                    })
                    .collect();
                (reg, fields)
            })
            .collect();
        // new generation on different cuts (33 is shared: boxes abut there),
        // plus boxes no old box was split along
        let mut new = holey_tiling(&[0, 20, 33, 50, 64, 96], 0x51ed, 5);
        new.retain(|b| b.lo.x < 64 && b.lo != ivec3(33, 33, 33));
        new.push(region(ivec3(33, 33, 33), ivec3(50, 50, 50)));
        new.push(region(ivec3(64, 0, 0), ivec3(96, 31, 31)));
        new.push(region(ivec3(64, 31, 0), ivec3(96, 96, 96)));
        let (mut absent, mut partial, mut full, mut abutting) = (0, 0, 0, 0);
        for reg in new {
            let touching: Vec<&(Region, Vec<Field3>)> =
                old.iter().filter(|(o, _)| o.overlaps(&reg)).collect();
            let sources: Vec<FillSource<'_>> = touching
                .iter()
                .map(|(o, fields)| FillSource {
                    fields,
                    window: o.intersect(&reg),
                })
                .collect();
            let covered: i64 = sources.iter().map(|s| s.window.cells()).sum();
            absent += (covered == 0) as usize;
            partial += (covered > 0 && covered < reg.cells() && sources.len() > 1) as usize;
            full += (covered == reg.cells()) as usize;
            abutting += old
                .iter()
                .any(|(o, _)| !o.overlaps(&reg) && o.grow(1).overlaps(&reg))
                as usize;

            let mut built: Vec<Field3> = (0..nf)
                .map(|_| Field3::constant(reg, ghost, f64::NAN))
                .collect();
            h.fill_refined_fields(&mut built, root, &sources);
            for k in 0..nf {
                let mut want = Field3::zeros(reg, ghost);
                let storage = want.storage_region();
                crate::interp::reference::prolong_constant(
                    &h.patch(root).fields[k],
                    &mut want,
                    &storage,
                    r,
                );
                for (o, fields) in &old {
                    want.copy_from(&fields[k], &o.intersect(&reg));
                }
                for c in reg.iter_cells() {
                    assert_eq!(
                        built[k].get(c).to_bits(),
                        want.get(c).to_bits(),
                        "field {k} of {reg:?} diverged at {c:?}"
                    );
                }
            }
            let id = h.insert_patch_with_fields(1, reg, Some(root), 1, built);
            assert_eq!(h.patch(id).parent, Some(root));
        }
        assert!(
            absent > 0 && partial > 0 && full > 0 && abutting > 0,
            "mesh misses a case: absent {absent} partial {partial} full {full} abutting {abutting}"
        );
        assert!(h.check_invariants().is_ok());
    }

    #[test]
    fn invariant_catches_overlapping_siblings() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        h.insert_patch(1, region(ivec3(0, 0, 0), ivec3(6, 6, 6)), Some(root), 0);
        h.insert_patch(1, region(ivec3(4, 4, 4), ivec3(8, 8, 8)), Some(root), 0);
        assert!(h.check_invariants().is_err());
    }

    #[test]
    fn owner_loads() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        h.insert_patch(1, region(ivec3(0, 0, 0), ivec3(4, 4, 4)), Some(root), 1);
        h.insert_patch(1, region(ivec3(8, 8, 8), ivec3(12, 12, 12)), Some(root), 1);
        let loads = h.level_load_by_owner(1, 2);
        assert_eq!(loads, vec![0, 128]);
    }

    #[test]
    fn exchange_topology_matches_fresh_computation() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        h.insert_patch(1, region(ivec3(0, 0, 0), ivec3(8, 8, 8)), Some(root), 0);
        h.insert_patch(1, region(ivec3(8, 0, 0), ivec3(16, 8, 8)), Some(root), 1);
        let topo = h.exchange_topology(1);
        assert_eq!(topo.overlaps, reference::exchange_topology(&h, 1).overlaps);
        assert_eq!(topo.shells.len(), 2);
        for s in &topo.shells {
            let reg = h.patch(s.id).region;
            assert_eq!(s.parent, Some(root));
            assert_eq!(s.shell_cells, reg.grow(1).cells() - reg.cells());
            // each takes one 8x8 slab from the other, the rest from the parent
            assert_eq!(
                crate::region::total_cells(&s.coarse_fill),
                s.shell_cells - 64
            );
        }
    }

    /// Per destination, the parent-filled boxes and the sibling windows
    /// partition the ghost shell — every ghost cell has exactly one writer —
    /// and the slot indices name the overlaps' patches.
    #[test]
    fn exchange_plan_partitions_every_shell() {
        let mut h = GridHierarchy::new(Region::cube(48), 2, 2, 1, 2);
        let root = h.insert_patch(0, Region::cube(48), None, 0);
        for reg in holey_tiling(&[0, 31, 33, 65, 96], 0x9e37, 6) {
            h.insert_patch(1, reg, Some(root), 0);
        }
        let ids = h.level_ids(1).to_vec();
        let topo = h.exchange_topology(1);
        assert_eq!(topo.shells.len(), ids.len());
        assert_eq!(topo.overlap_slots.len(), topo.overlaps.len());
        for (o, &(si, di)) in topo.overlaps.iter().zip(&topo.overlap_slots) {
            assert_eq!((ids[si as usize], ids[di as usize]), (o.src, o.dst));
        }
        let mut parent_filled = 0;
        for (s, &id) in topo.shells.iter().zip(&ids) {
            assert_eq!(s.id, id);
            let reg = h.patch(id).region;
            let storage = reg.grow(h.ghost());
            let mut writers: Vec<Region> = s.coarse_fill.clone();
            writers.extend(
                topo.overlaps
                    .iter()
                    .filter(|o| o.dst == id)
                    .map(|o| o.window),
            );
            for (i, a) in writers.iter().enumerate() {
                assert!(
                    storage.contains_region(a) && !a.overlaps(&reg),
                    "{a:?} not in shell"
                );
                assert!(
                    writers[i + 1..].iter().all(|b| !a.overlaps(b)),
                    "two writers"
                );
            }
            assert_eq!(crate::region::total_cells(&writers), s.shell_cells);
            assert_eq!(s.shell_cells, storage.cells() - reg.cells());
            parent_filled += s.coarse_fill.len();
        }
        assert!(parent_filled > 0 && topo.overlaps.len() > 100);
        assert_eq!(*topo, reference::exchange_topology(&h, 1));

        assert_eq!(check_rounds(&topo), Ok(()));
        assert!(topo.rounds.len() > 1 && topo.rounds.iter().any(|r| r.len() > 1));
        // a block sits in a later round only because an earlier one holds a
        // source of its destinations: merging the first two must break
        let mut merged = (*topo).clone();
        let second = merged.rounds.remove(1);
        merged.rounds[0].extend(second);
        merged.rounds[0].sort_unstable();
        assert!(check_rounds(&merged).unwrap_err().contains("reads from block"));
    }

    /// What the driver's concurrent sibling copy relies on: the rounds hold
    /// each block that has windows exactly once, ascending, and no
    /// destination has a source in another block of its own round.
    fn check_rounds(topo: &LevelTopology) -> Result<(), String> {
        let blocks = topo.shells.len().div_ceil(LevelTopology::BLOCK);
        let mut round_of = vec![None; blocks];
        for (r, round) in topo.rounds.iter().enumerate() {
            if round.is_empty() || !round.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("round {r} is empty or not ascending: {round:?}"));
            }
            for &b in round {
                if round_of[b as usize].replace(r).is_some() {
                    return Err(format!("block {b} is in two rounds"));
                }
            }
        }
        for b in 0..blocks {
            let slots = topo.block_slots(b as u32);
            let windows = topo.first_overlap[slots.start]..topo.first_overlap[slots.end];
            if windows.is_empty() != round_of[b].is_none() {
                let round = round_of[b];
                return Err(format!("block {b}: {} windows, round {round:?}", windows.len()));
            }
        }
        for &(si, di) in &topo.overlap_slots {
            let (sb, db) = (si as usize / LevelTopology::BLOCK, di as usize / LevelTopology::BLOCK);
            if sb != db && round_of[sb] == round_of[db] {
                return Err(format!("slot {di} reads from block {sb} of its own round"));
            }
        }
        Ok(())
    }

    /// On random holey tilings the planned build — parallel or serial,
    /// with its covered-shell shortcut — is the all-pairs oracle's plan,
    /// which subtracts every shell's windows; and its rounds are safe.
    #[test]
    fn plan_build_matches_the_all_pairs_oracle() {
        base::prop::check(
            48,
            |g| {
                let steps = g.vec(2..7, |g| g.i64(1..12));
                (steps, g.any_u64(), g.u64(2..40), g.i64(1..4))
            },
            |(steps, seed, drop_one_in, ghost)| {
                let mut cuts = vec![0i64];
                for s in &steps {
                    cuts.push(cuts.last().unwrap() + s);
                }
                if cuts.last().unwrap() % 2 == 1 {
                    *cuts.last_mut().unwrap() += 1;
                }
                let n = *cuts.last().unwrap();
                let h = level1_of(n, ghost, holey_tiling(&cuts, seed, drop_one_in));
                let oracle = reference::exchange_topology(&h, 1);
                // every shell the shortcut skips is one the oracle found empty
                for s in &oracle.shells {
                    let windows = oracle.overlaps.iter().filter(|o| o.dst == s.id);
                    let covered: i64 = windows.map(|o| o.cells).sum();
                    assert_eq!(covered == s.shell_cells, s.coarse_fill.is_empty());
                }
                for parallel in [true, false] {
                    let plan = h.build_topology(1, parallel, LevelTopology::default());
                    assert_eq!(&plan, &oracle);
                    assert_eq!(check_rounds(&plan), Ok(()));
                }
            },
        );
    }

    #[test]
    fn exchange_topology_cache_hits_and_invalidates() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        let a = h.insert_patch(1, region(ivec3(0, 0, 0), ivec3(8, 8, 8)), Some(root), 0);
        let t1 = h.exchange_topology(1);
        // unchanged structure: the same Arc comes back (no rebuild)
        let t2 = h.exchange_topology(1);
        assert!(Arc::ptr_eq(&t1, &t2));
        // field-data writes do not invalidate
        h.patch_mut(a).fields[0].fill(3.0);
        assert!(Arc::ptr_eq(&t1, &h.exchange_topology(1)));
        // structural change invalidates and the rebuilt topology is fresh
        let b = h.insert_patch(1, region(ivec3(8, 0, 0), ivec3(16, 8, 8)), Some(root), 1);
        let t3 = h.exchange_topology(1);
        assert!(!Arc::ptr_eq(&t1, &t3));
        assert_eq!(t3.overlaps.len(), 2);
        assert_eq!(t3.overlaps, reference::exchange_topology(&h, 1).overlaps);
        // removal invalidates too
        h.remove_patch(b);
        assert!(h.exchange_topology(1).overlaps.is_empty());

        // generations are per level: inserting, removing and clearing at
        // level 2 leaves the plans of levels 0 and 1 in place
        let (l0, l1) = (h.exchange_topology(0), h.exchange_topology(1));
        let fine = h.insert_patch(2, region(ivec3(0, 0, 0), ivec3(8, 8, 8)), Some(a), 0);
        let l2 = h.exchange_topology(2);
        assert!(Arc::ptr_eq(&l0, &h.exchange_topology(0)));
        assert!(Arc::ptr_eq(&l1, &h.exchange_topology(1)));
        h.remove_patch(fine);
        h.insert_patch(2, region(ivec3(0, 0, 0), ivec3(8, 8, 8)), Some(a), 0);
        assert!(!Arc::ptr_eq(&l2, &h.exchange_topology(2)));
        h.clear_levels_from(2);
        assert!(Arc::ptr_eq(&l0, &h.exchange_topology(0)));
        assert!(Arc::ptr_eq(&l1, &h.exchange_topology(1)));
        // a level rebuilt after being cleared never sees the stale plan
        h.insert_patch(2, region(ivec3(8, 8, 8), ivec3(16, 16, 16)), Some(a), 0);
        assert_eq!(h.exchange_topology(2).shells[0].id, h.level_ids(2)[0]);
        // splitting the root re-parents its child: level 1's plan names
        // parents, so it is rebuilt, along with level 0's
        let (lo, _hi) = h.split_patch_at(root, 0, 4);
        assert!(!Arc::ptr_eq(&l0, &h.exchange_topology(0)));
        let l1_after = h.exchange_topology(1);
        assert!(!Arc::ptr_eq(&l1, &l1_after));
        assert_eq!(l1_after.shells[0].parent, Some(lo));
    }

    #[test]
    fn with_patch_pair_borrows_both_and_restores() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        let child = h.insert_patch(1, region(ivec3(0, 0, 0), ivec3(8, 8, 8)), Some(root), 0);
        h.patch_mut(root).fields[0].fill(2.5);
        let copied = h.with_patch_pair(root, child, |src, dst| {
            let w = dst.fields[0].storage_region();
            crate::interp::prolong_constant(&src.fields[0], &mut dst.fields[0], &w, 2);
            dst.fields[0].get(ivec3(4, 4, 4))
        });
        assert_eq!(copied, 2.5);
        // the patch is back in the arena with the mutation applied
        assert_eq!(h.patch(child).fields[0].get(ivec3(0, 0, 0)), 2.5);
        assert_eq!(h.num_patches(), 2);
        assert!(h.check_invariants().is_ok());
    }

    /// Three levels under two root grids: the children and grandchildren of
    /// the first root sit left of, right of and across the planes a cut of
    /// that root at x = 4 refines to, so the split recurses two levels down
    /// and re-parents on both. Every field is scrambled.
    fn nested_for_split() -> (GridHierarchy, PatchId) {
        let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(16, 8, 8)), 2, 3, 2, 1);
        let box_x = |lo: i64, hi: i64, n: i64| region(ivec3(lo, 0, 0), ivec3(hi, n, n));
        let root = h.insert_patch(0, box_x(0, 8, 8), None, 0);
        let other = h.insert_patch(0, box_x(8, 16, 8), None, 1);
        h.insert_patch(1, box_x(0, 6, 16), Some(root), 0);
        let across = h.insert_patch(1, box_x(6, 12, 16), Some(root), 2);
        h.insert_patch(1, box_x(12, 16, 16), Some(root), 3);
        h.insert_patch(1, box_x(16, 24, 16), Some(other), 1);
        h.insert_patch(2, box_x(12, 15, 32), Some(across), 2);
        h.insert_patch(2, box_x(15, 20, 32), Some(across), 0);
        h.insert_patch(2, box_x(20, 24, 32), Some(across), 3);
        let ids: Vec<PatchId> = h.iter().map(|p| p.id).collect();
        for id in ids {
            for k in 0..2 {
                scramble(&mut h.patch_mut(id).fields[k], id.0 * 2 + k as u64);
            }
        }
        assert!(h.check_invariants().is_ok());
        (h, root)
    }

    /// `h` holds exactly what `snap` and `levels` recorded: ids, level
    /// order, regions, parents, owners and every field bit.
    fn assert_matches_snapshot(
        h: &GridHierarchy,
        snap: &crate::checkpoint::HierarchySnapshot,
        levels: &[Vec<PatchId>],
    ) {
        assert_eq!(h.levels, levels);
        assert_eq!(h.num_patches(), snap.patches.len());
        for want in &snap.patches {
            let got = h.patch(want.id);
            assert_eq!(
                (got.level, got.region, got.parent, got.owner),
                (want.level, want.region, want.parent, want.owner),
                "{:?}",
                want.id
            );
            for (g, w) in got.fields.iter().zip(&want.fields) {
                assert_eq!(g.storage_region(), w.storage_region());
                assert!(
                    g.data().iter().zip(w.data()).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "field bits of {:?} changed",
                    want.id
                );
            }
        }
    }

    #[test]
    fn rollback_restores_what_a_snapshot_would() {
        let (mut h, root) = nested_for_split();
        let snap = crate::checkpoint::snapshot(&h);
        let levels = h.levels.clone();
        let next_id = h.next_id;
        let plans: Vec<_> = (0..3).map(|l| h.exchange_topology(l)).collect();

        h.begin_transaction();
        let other = h.level_ids(0)[1];
        h.set_owner(other, 3);
        h.set_owner(root, 2);
        let (lo, hi) = h.split_patch_at(root, 0, 4);
        // the cut went through a child and, below it, a grandchild
        assert_eq!((h.level_ids(1).len(), h.level_ids(2).len()), (5, 4));
        assert!(h.check_invariants().is_ok());
        h.set_owner(hi, 1);
        let (_lo_a, lo_b) = h.split_patch_at(lo, 1, 3);
        h.set_owner(lo_b, 0);
        // a plan cached mid-transaction must not outlive the rollback
        let mid: Vec<_> = (0..3).map(|l| h.exchange_topology(l)).collect();
        assert!(!Arc::ptr_eq(&mid[1], &plans[1]));
        let stats_mid = h.pool().stats();
        h.rollback();

        assert_matches_snapshot(&h, &snap, &levels);
        assert_eq!(h.next_id, next_id);
        assert!(h.check_invariants().is_ok());
        assert_eq!(h.pool().stats(), stats_mid, "undoing acquires nothing");
        for l in 0..3 {
            let plan = h.exchange_topology(l);
            assert_eq!(*plan, reference::exchange_topology(&h, l), "level {l}");
            assert_eq!(*plan, *plans[l], "level {l}");
        }
        // the next patch gets the id it would have got without the detour
        let fresh = h.insert_patch(1, region(ivec3(24, 0, 0), ivec3(32, 8, 8)), Some(other), 0);
        assert_eq!(fresh.0, next_id);
    }

    #[test]
    fn commit_keeps_the_changes_and_empties_the_undo_log() {
        let (mut h, root) = nested_for_split();
        let mut plain = h.clone();
        h.begin_transaction();
        let (lo, hi) = h.split_patch_at(root, 0, 4);
        // root, the straddling child and the straddling grandchild are
        // parked in the log
        let parked = |h: &GridHierarchy| {
            h.undo.as_ref().map_or(0, |log| {
                log.records
                    .iter()
                    .filter(|r| matches!(r, Undo::Removed { .. }))
                    .count()
            })
        };
        assert_eq!(parked(&h), 3);
        h.set_owner(hi, 3);
        h.commit();
        assert!(h.undo.is_none(), "commit leaves an undo log behind");
        // same result as the untransacted operations
        assert_eq!(plain.split_patch_at(root, 0, 4), (lo, hi));
        plain.set_owner(hi, 3);
        assert_matches_snapshot(&h, &crate::checkpoint::snapshot(&plain), &plain.levels);
        // and the log stays closed: a later removal parks nothing
        h.remove_patch(h.level_ids(2)[0]);
        assert!(h.undo.is_none());
    }

    #[test]
    #[should_panic(expected = "already open")]
    fn transactions_do_not_nest() {
        let mut h = basic();
        h.begin_transaction();
        h.begin_transaction();
    }

    /// A random nested hierarchy: one or two level-0 grids tiling the
    /// domain, then up to three tries per grid of a child box inside it
    /// (kept when it meets no sibling), two levels down; and one split of
    /// it — the grid picked, the axis and the cut as fractions — run bare,
    /// or in a transaction that is committed or rolled back.
    #[derive(Clone, Debug)]
    struct SplitCase {
        domain: Region,
        ghost: i64,
        nfields: usize,
        /// (level, region, index of the parent grid, owner), parents first
        grids: Vec<(usize, Region, Option<usize>, usize)>,
        pick: usize,
        axis: usize,
        frac: f64,
        /// 0 bare, 1 committed, 2 rolled back
        mode: u8,
    }

    fn arb_split_case(g: &mut base::prop::Gen) -> SplitCase {
        let size = ivec3(g.i64(2..9), g.i64(1..6), g.i64(1..6));
        let domain = region(ivec3(0, 0, 0), size);
        let mut grids = Vec::new();
        let x_cut = if g.bool() { g.i64(1..size.x) } else { size.x };
        let (lo, hi) = domain.split_at(0, x_cut);
        for root in [lo, hi].into_iter().filter(|r| !r.is_empty()) {
            grids.push((0, root, None, g.usize(0..4)));
        }
        for level in 1..3 {
            let mut placed: Vec<Region> = Vec::new();
            for pi in 0..grids.len() {
                let (plevel, preg, _, _) = grids[pi];
                if plevel + 1 != level {
                    continue;
                }
                let fine = preg.refine(2);
                for _ in 0..g.usize(0..4) {
                    let mut b = fine;
                    for k in 0..3 {
                        let lo = g.i64(fine.lo[k]..fine.hi[k]);
                        b.lo[k] = lo;
                        b.hi[k] = g.i64(lo + 1..fine.hi[k] + 1);
                    }
                    if placed.iter().all(|o| !o.overlaps(&b)) {
                        placed.push(b);
                        grids.push((level, b, Some(pi), g.usize(0..4)));
                    }
                }
            }
        }
        SplitCase {
            domain,
            ghost: g.i64(0..3),
            nfields: g.usize(1..3),
            grids,
            pick: g.usize(0..64),
            axis: g.usize(0..3),
            frac: g.f64(0.0..1.0),
            mode: g.u32(0..3) as u8,
        }
    }

    impl SplitCase {
        /// The case's hierarchy, every storage cell (ghosts included)
        /// scrambled.
        fn build(&self) -> GridHierarchy {
            let mut h = GridHierarchy::new(self.domain, 2, 3, self.nfields, self.ghost);
            let mut ids = Vec::new();
            for &(level, reg, parent, owner) in &self.grids {
                let id = h.insert_patch(level, reg, parent.map(|i| ids[i]), owner);
                for k in 0..self.nfields {
                    scramble(&mut h.patch_mut(id).fields[k], id.0 * 3 + k as u64);
                }
                ids.push(id);
            }
            assert_eq!(h.check_invariants(), Ok(()));
            h
        }

        /// The (grid, axis, plane) the case splits at: the first grid from
        /// `pick` on, and from `axis` on its first axis at least two cells
        /// across; `None` when no grid is.
        fn cut(&self, h: &GridHierarchy) -> Option<(PatchId, usize, i64)> {
            let ids: Vec<PatchId> = h.iter().map(|p| p.id).collect();
            (0..ids.len() * 3).find_map(|k| {
                let id = ids[(self.pick + k / 3) % ids.len()];
                let axis = (self.axis + k) % 3;
                let (lo, hi) = (h.patch(id).region.lo[axis], h.patch(id).region.hi[axis]);
                let cut = lo + 1 + ((hi - lo - 1) as f64 * self.frac) as i64;
                (hi - lo >= 2).then_some((id, axis, cut))
            })
        }

        /// Split `h` with `split` in the case's mode; the pool-count delta.
        fn run(
            &self,
            h: &mut GridHierarchy,
            split: impl FnOnce(&mut GridHierarchy, PatchId, usize, i64) -> (PatchId, PatchId),
        ) -> u64 {
            let before = h.pool().stats().misses;
            if let Some((id, axis, cut)) = self.cut(h) {
                if self.mode > 0 {
                    h.begin_transaction();
                }
                split(h, id, axis, cut);
                match self.mode {
                    1 => h.commit(),
                    2 => h.rollback(),
                    _ => {}
                }
            }
            h.pool().stats().misses - before
        }
    }

    /// A split builds each half's fields from the doomed patch and inserts
    /// them with their data; the result must equal the zero-insert-then-copy
    /// split it replaced — ids, parents, owners, level order, the fresh-id counter,
    /// every storage bit (ghosts included) and the fields drawn from the
    /// pool — on random nested hierarchies whose children lie in one half,
    /// straddle the cut and split recursively, bare and inside a
    /// transaction that is committed or rolled back.
    #[test]
    fn split_matches_the_zero_insert_then_copy_reference() {
        // cases whose cut crosses a child, so the split recurses
        let straddled = std::cell::Cell::new(0u32);
        base::prop::check(base::prop::CASES, arb_split_case, |case| {
            let (mut h, mut want) = (case.build(), case.build());
            if let Some((id, axis, cut)) = case.cut(&h) {
                let level = h.patch(id).level;
                let crosses = |c: &PatchId| {
                    let r = h.patch(*c).region;
                    r.lo[axis] < cut * 2 && cut * 2 < r.hi[axis]
                };
                straddled.set(straddled.get() + h.children(id, level).iter().any(crosses) as u32);
            }
            let drawn = case.run(&mut h, |h, id, axis, cut| h.split_patch_at(id, axis, cut));
            let drawn_want =
                case.run(&mut want, |h, id, axis, cut| h.split_patch_at_reference(id, axis, cut));
            assert_matches_snapshot(&h, &crate::checkpoint::snapshot(&want), &want.levels);
            assert_eq!(h.parents, want.parents);
            assert_eq!(h.next_id, want.next_id);
            assert_eq!(drawn, drawn_want, "fields drawn from the pool");
            assert_eq!(h.check_invariants(), Ok(()));
            h.assert_children_match_the_arena();
        });
        assert!(straddled.get() >= base::prop::CASES / 8, "{} straddling cases", straddled.get());
    }

    #[test]
    #[should_panic]
    fn with_patch_pair_rejects_same_id() {
        let mut h = basic();
        let root = h.insert_patch(0, Region::cube(8), None, 0);
        h.with_patch_pair(root, root, |_, _| ());
    }
}
