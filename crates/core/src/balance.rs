//! The within-set balancing primitive shared by the parallel-DLB baseline
//! and the distributed scheme's local phase: redistribute one level's grids
//! among a set of processors, moving (and when necessary splitting) grids
//! from overloaded to underloaded processors.

use samr_mesh::hierarchy::GridHierarchy;
use samr_mesh::patch::PatchId;
use simnet::{Activity, SimView};
use topology::ProcId;

/// Tuning for [`balance_level_within`].
#[derive(Clone, Copy, Debug)]
pub struct BalanceParams {
    /// A processor is "balanced enough" when its load is within this factor
    /// of its target (1.05 = 5% slack).
    pub tolerance: f64,
    /// Hard cap on grid moves per invocation.
    pub max_moves: usize,
    /// Grids with fewer cells than this are never split.
    pub min_split_cells: i64,
    /// Whether oversized grids may be split to hit the target.
    pub allow_split: bool,
}

impl Default for BalanceParams {
    fn default() -> Self {
        BalanceParams {
            tolerance: 1.05,
            max_moves: 256,
            min_split_cells: 32,
            allow_split: true,
        }
    }
}

/// What a balancing pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BalanceOutcome {
    /// Number of grid migrations performed.
    pub moves: usize,
    /// Number of grid splits performed.
    pub splits: usize,
    /// Total cells migrated.
    pub moved_cells: i64,
    /// Total bytes shipped for migrations.
    pub moved_bytes: u64,
    /// Migrations abandoned because the transfer failed (the grid stays
    /// with its current owner).
    pub failed_moves: usize,
}

/// One level's grids bucketed by owner: per processor index, `(id, cells)`
/// of the grids it owns, in level order. Levels list grids in creation
/// order, which is ascending id — the order [`balance_bucketed`] keeps the
/// lists in as grids move and split.
pub(crate) type OwnerBuckets = Vec<Vec<(PatchId, i64)>>;

/// Bucket the grids of `level` by owner in one scan; at least `nprocs`
/// buckets (more if some owner lies beyond).
pub(crate) fn bucket_level_by_owner(
    hier: &GridHierarchy,
    level: usize,
    nprocs: usize,
) -> OwnerBuckets {
    let ids = hier.level_ids(level);
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "level order is not ascending id"
    );
    let mut owned: OwnerBuckets = vec![Vec::new(); nprocs];
    for &id in ids {
        let p = hier.patch(id);
        if owned.len() <= p.owner {
            owned.resize(p.owner + 1, Vec::new());
        }
        owned[p.owner].push((id, p.cells()));
    }
    owned
}

/// Balance the grids of `level` among `procs` (weights parallel to `procs`),
/// leaving grids owned by processors outside the set untouched.
///
/// Targets are proportional to weights; grids move from the most-overloaded
/// to the most-underloaded processor until every load is within
/// `params.tolerance` of target or no productive move remains. Migration
/// traffic is charged to the simulator as [`Activity::LoadBalance`].
pub fn balance_level_within(
    hier: &mut GridHierarchy,
    sim: &mut SimView,
    level: usize,
    procs: &[ProcId],
    weights: &[f64],
    params: &BalanceParams,
) -> BalanceOutcome {
    let nprocs = procs.iter().map(|p| p.0 + 1).max().unwrap_or(0);
    let mut owned = bucket_level_by_owner(hier, level, nprocs);
    balance_bucketed(hier, sim, &mut owned, procs, weights, params)
}

/// [`balance_level_within`] over a level already bucketed by owner
/// (`owned`, from [`bucket_level_by_owner`], covering every processor of
/// `procs`). The buckets are kept current move by move and split by split,
/// so one scan of the level serves any number of passes over disjoint
/// processor sets, and a pass costs O(moves · (procs + grids of the donor))
/// however large the level is.
pub(crate) fn balance_bucketed(
    hier: &mut GridHierarchy,
    sim: &mut SimView,
    owned: &mut [Vec<(PatchId, i64)>],
    procs: &[ProcId],
    weights: &[f64],
    params: &BalanceParams,
) -> BalanceOutcome {
    assert_eq!(procs.len(), weights.len());
    let mut out = BalanceOutcome::default();
    if procs.len() < 2 {
        return out;
    }
    let wsum: f64 = weights.iter().sum();
    assert!(wsum > 0.0);

    // Loads of the set's processors at this level. Moves stay inside the
    // set and splits conserve cells, so the total and the targets are fixed.
    let mut loads: Vec<i64> = procs
        .iter()
        .map(|p| owned[p.0].iter().map(|&(_, c)| c).sum::<i64>())
        .collect();
    let total: i64 = loads.iter().sum();
    if total == 0 {
        return out;
    }
    let target: Vec<f64> = weights
        .iter()
        .map(|w| total as f64 * w / wsum)
        .collect();

    for _ in 0..params.max_moves {
        // Most overloaded / most underloaded (deterministic tie-break by
        // index).
        let (mut over, mut under) = (0usize, 0usize);
        let mut max_sur = f64::MIN;
        let mut max_def = f64::MIN;
        for i in 0..procs.len() {
            let sur = loads[i] as f64 - target[i];
            if sur > max_sur {
                max_sur = sur;
                over = i;
            }
            if -sur > max_def {
                max_def = -sur;
                under = i;
            }
        }
        // Balanced enough?
        let within = |i: usize| loads[i] as f64 <= target[i] * params.tolerance + 1.0;
        if within(over) || over == under {
            break;
        }
        let gap = max_sur.min(max_def).max(0.0) as i64;
        if gap <= 0 {
            break;
        }

        // Choose the grid to move: the largest one not exceeding ~the gap,
        // else consider splitting the smallest one that is too large. Both
        // as positions in the donor's list; the first in level order wins
        // a tie.
        let donor = &mut owned[procs[over].0];
        let mut best: Option<(usize, i64)> = None; // fits under cap
        let mut smallest: Option<(usize, i64)> = None;
        for (ix, &(_, c)) in donor.iter().enumerate() {
            if c as f64 <= gap as f64 * 1.25 && best.is_none_or(|(_, bc)| c > bc) {
                best = Some((ix, c));
            }
            if smallest.is_none_or(|(_, sc)| c < sc) {
                smallest = Some((ix, c));
            }
        }

        let move_ix = match (best, smallest) {
            (Some((ix, _)), _) => Some(ix),
            (None, Some((ix, c))) => {
                // Every grid overshoots the gap. Split if worthwhile,
                // otherwise move the smallest whole grid only if that still
                // improves balance.
                if params.allow_split
                    && c >= params.min_split_cells * 2
                    && gap >= params.min_split_cells
                {
                    let (id, _) = donor.remove(ix);
                    let (a, b) = hier.split_patch(id, gap, axis_of(hier, id));
                    out.splits += 1;
                    // the halves are the level's newest grids
                    donor.push((a, hier.patch(a).cells()));
                    donor.push((b, hier.patch(b).cells()));
                    Some(donor.len() - 2)
                } else if (c as f64) < 2.0 * gap as f64 {
                    Some(ix)
                } else {
                    None
                }
            }
            (None, None) => None,
        };

        let Some(ix) = move_ix else { break };
        let (id, cells) = donor[ix];
        let bytes = hier.patch(id).payload_bytes();
        let src = ProcId(hier.patch(id).owner);
        let dst = procs[under];
        // Ship the grid before committing ownership; a failed transfer
        // leaves it with its current owner. The pass stops there — the
        // same move would be picked again and fail again.
        if sim.send(src, dst, bytes, Activity::LoadBalance).is_err() {
            out.failed_moves += 1;
            break;
        }
        hier.set_owner(id, dst.0);
        donor.remove(ix);
        let receiver = &mut owned[dst.0];
        let at = receiver.partition_point(|&(other, _)| other < id);
        receiver.insert(at, (id, cells));
        loads[over] -= cells;
        loads[under] += cells;
        out.moves += 1;
        out.moved_cells += cells;
        out.moved_bytes += bytes;
    }
    out
}

/// Pick the split axis for a patch: its longest extent, so slabs stay chunky.
fn axis_of(hier: &GridHierarchy, id: PatchId) -> usize {
    hier.patch(id).region.size().longest_axis()
}

/// Greedy weighted placement for a batch of new grids: processing sizes in
/// descending order, each grid goes to the processor with the lowest
/// load-per-weight. `loads` are pre-existing loads (cells) parallel to
/// `weights`; returns the chosen processor *indices within the set*, in the
/// input order of `sizes`.
pub fn place_batch(loads: &[i64], weights: &[f64], sizes: &[i64]) -> Vec<usize> {
    assert_eq!(loads.len(), weights.len());
    assert!(!loads.is_empty());
    let mut cur: Vec<f64> = loads.iter().map(|&l| l as f64).collect();
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
    let mut out = vec![0usize; sizes.len()];
    for i in order {
        let mut best = 0usize;
        let mut best_norm = f64::MAX;
        for (j, (&l, &w)) in cur.iter().zip(weights).enumerate() {
            let norm = (l + sizes[i] as f64) / w;
            if norm < best_norm {
                best_norm = norm;
                best = j;
            }
        }
        out[i] = best;
        cur[best] += sizes[i] as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_mesh::region::Region;
    use samr_mesh::{ivec3, region};
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder};

    /// The loop [`balance_bucketed`] replaced, kept as its oracle: rescan
    /// the whole level and rebuild loads and per-processor lists before
    /// every move.
    fn balance_level_within_rescan(
        hier: &mut GridHierarchy,
        sim: &mut SimView,
        level: usize,
        procs: &[ProcId],
        weights: &[f64],
        params: &BalanceParams,
    ) -> BalanceOutcome {
        assert_eq!(procs.len(), weights.len());
        let mut out = BalanceOutcome::default();
        if procs.len() < 2 {
            return out;
        }
        let wsum: f64 = weights.iter().sum();
        assert!(wsum > 0.0);
        let in_set = |owner: usize| procs.iter().position(|p| p.0 == owner);
        for _ in 0..params.max_moves {
            let mut loads = vec![0i64; procs.len()];
            let mut owned: Vec<Vec<PatchId>> = vec![Vec::new(); procs.len()];
            for &id in hier.level_ids(level) {
                let p = hier.patch(id);
                if let Some(ix) = in_set(p.owner) {
                    loads[ix] += p.cells();
                    owned[ix].push(id);
                }
            }
            let total: i64 = loads.iter().sum();
            if total == 0 {
                break;
            }
            let target: Vec<f64> = weights
                .iter()
                .map(|w| total as f64 * w / wsum)
                .collect();
            let (mut over, mut under) = (0usize, 0usize);
            let mut max_sur = f64::MIN;
            let mut max_def = f64::MIN;
            for i in 0..procs.len() {
                let sur = loads[i] as f64 - target[i];
                if sur > max_sur {
                    max_sur = sur;
                    over = i;
                }
                if -sur > max_def {
                    max_def = -sur;
                    under = i;
                }
            }
            let within = |i: usize| loads[i] as f64 <= target[i] * params.tolerance + 1.0;
            if within(over) || over == under {
                break;
            }
            let gap = max_sur.min(max_def).max(0.0) as i64;
            if gap <= 0 {
                break;
            }
            let mut best: Option<(PatchId, i64)> = None;
            let mut smallest: Option<(PatchId, i64)> = None;
            for &id in &owned[over] {
                let c = hier.patch(id).cells();
                if c as f64 <= gap as f64 * 1.25 && best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((id, c));
                }
                if smallest.is_none_or(|(_, sc)| c < sc) {
                    smallest = Some((id, c));
                }
            }
            let move_id = match (best, smallest) {
                (Some((id, _)), _) => Some(id),
                (None, Some((id, c))) => {
                    if params.allow_split
                        && c >= params.min_split_cells * 2
                        && gap >= params.min_split_cells
                    {
                        let (a, _b) = hier.split_patch(id, gap, axis_of(hier, id));
                        out.splits += 1;
                        Some(a)
                    } else if (c as f64) < 2.0 * gap as f64 {
                        Some(id)
                    } else {
                        None
                    }
                }
                (None, None) => None,
            };
            let Some(id) = move_id else { break };
            let cells = hier.patch(id).cells();
            let bytes = hier.patch(id).payload_bytes();
            let src = ProcId(hier.patch(id).owner);
            let dst = procs[under];
            if sim.send(src, dst, bytes, Activity::LoadBalance).is_err() {
                out.failed_moves += 1;
                break;
            }
            hier.set_owner(id, dst.0);
            out.moves += 1;
            out.moved_cells += cells;
            out.moved_bytes += bytes;
        }
        out
    }

    /// Six processors in two groups of three over a slow link, so where a
    /// grid travels shows in the simulated clocks.
    fn sim6() -> SimView {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(5), 2e7);
        let sys = SystemBuilder::new()
            .group("A", 3, 1.0, intra.clone())
            .group("B", 3, 2.0, intra)
            .connect(0, 1, wan)
            .build();
        SimView::new(sys)
    }

    /// Level-0 slabs of the given widths (x extent; 8x8 across) with the
    /// given owners; every third slab wide enough carries a level-1 child
    /// across its middle, so a split has something to recurse into.
    fn slabs(widths: &[i64], owners: &[usize]) -> GridHierarchy {
        let len: i64 = widths.iter().sum();
        let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(len, 8, 8)), 2, 3, 1, 1);
        let mut x = 0;
        let mut roots = Vec::new();
        for (&w, &o) in widths.iter().zip(owners) {
            roots.push((h.insert_patch(0, region(ivec3(x, 0, 0), ivec3(x + w, 8, 8)), None, o), x, w));
            x += w;
        }
        for (i, &(id, x, w)) in roots.iter().enumerate() {
            if i % 3 == 0 && w >= 4 {
                let owner = h.patch(id).owner;
                h.insert_patch(
                    1,
                    region(ivec3(2 * x + 2, 0, 0), ivec3(2 * (x + w) - 2, 8, 8)),
                    Some(id),
                    owner,
                );
            }
        }
        h
    }

    /// The bucketed loop is the rescanning loop: same outcome, same
    /// hierarchy, same simulated traffic — for any level, owner
    /// scattering (owners outside the set included), weights, set
    /// order and parameters, and for several passes over disjoint sets
    /// sharing one bucketing, as the local phase runs them.
    #[test]
    fn bucketed_balance_matches_the_rescanning_loop() {
        base::prop::check(
            base::prop::CASES,
            |g| {
                let grids = g.vec(1..40, |g| (g.i64(1..12), g.usize(0..6)));
                let weights = g.vec(6..7, |g| g.f64(0.1..10.0));
                let in_first = g.vec(6..7, |g| g.bool());
                let reversed = g.bool();
                let params = BalanceParams {
                    tolerance: g.f64(1.0..1.3),
                    max_moves: g.usize(0..48),
                    min_split_cells: g.pick(&[1i64, 32, 128]),
                    allow_split: g.bool(),
                };
                (grids, weights, in_first, reversed, params)
            },
            |(grids, weights, in_first, reversed, params)| {
                let (widths, owners): (Vec<i64>, Vec<usize>) = grids.into_iter().unzip();
                // two disjoint sets; a processor in neither keeps its grids
                let mut sets = vec![Vec::new(), Vec::new()];
                for p in 0..5 {
                    sets[usize::from(!in_first[p])].push(ProcId(p));
                }
                if reversed {
                    sets[0].reverse();
                }
                let (mut h_new, mut h_old) = (slabs(&widths, &owners), slabs(&widths, &owners));
                let (mut sim_new, mut sim_old) = (sim6(), sim6());
                let mut owned = bucket_level_by_owner(&h_new, 0, 6);
                for set in &sets {
                    let w: Vec<f64> = set.iter().map(|p| weights[p.0]).collect();
                    let new =
                        balance_bucketed(&mut h_new, &mut sim_new, &mut owned, set, &w, &params);
                    let old =
                        balance_level_within_rescan(&mut h_old, &mut sim_old, 0, set, &w, &params);
                    assert_eq!(new, old);
                    assert_eq!(
                        &owned,
                        &bucket_level_by_owner(&h_new, 0, 6),
                        "buckets went stale"
                    );
                }
                for level in 0..2 {
                    assert_eq!(h_new.level_ids(level), h_old.level_ids(level));
                    for &id in h_new.level_ids(level) {
                        let (a, b) = (h_new.patch(id), h_old.patch(id));
                        assert_eq!((a.region, a.owner, a.parent), (b.region, b.owner, b.parent));
                    }
                }
                assert!(h_new.check_invariants().is_ok());
                assert_eq!(sim_new.elapsed(), sim_old.elapsed());
                assert_eq!(
                    format!("{:?}", sim_new.stats()),
                    format!("{:?}", sim_old.stats())
                );
                // the public wrapper is the same loop behind one scan
                let (mut h_pub, mut sim_pub) = (slabs(&widths, &owners), sim6());
                for set in &sets {
                    let w: Vec<f64> = set.iter().map(|p| weights[p.0]).collect();
                    balance_level_within(&mut h_pub, &mut sim_pub, 0, set, &w, &params);
                }
                assert_eq!(
                    format!("{:?}", sim_pub.stats()),
                    format!("{:?}", sim_new.stats())
                );
            },
        );
    }

    fn sim4() -> SimView {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let sys = SystemBuilder::new().group("A", 4, 1.0, intra).build();
        SimView::new(sys)
    }

    /// A hierarchy with `n` equal 8^3 level-0 grids all owned by proc 0.
    fn lopsided(n: i64) -> GridHierarchy {
        let mut h = GridHierarchy::new(
            region(ivec3(0, 0, 0), ivec3(8 * n, 8, 8)),
            2,
            3,
            1,
            1,
        );
        for i in 0..n {
            h.insert_patch(
                0,
                region(ivec3(8 * i, 0, 0), ivec3(8 * (i + 1), 8, 8)),
                None,
                0,
            );
        }
        h
    }

    #[test]
    fn evens_out_equal_grids() {
        let mut h = lopsided(8);
        let mut sim = sim4();
        let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
        let out = balance_level_within(
            &mut h,
            &mut sim,
            0,
            &procs,
            &[1.0; 4],
            &BalanceParams::default(),
        );
        let loads = h.level_load_by_owner(0, 4);
        assert_eq!(loads, vec![1024, 1024, 1024, 1024], "{out:?}");
        assert!(out.moves >= 6);
        assert_eq!(out.moved_cells, 512 * 6);
        // migration traffic was charged
        assert!(sim.stats().procs[0].load_balance > SimTime::ZERO);
    }

    #[test]
    fn respects_weights() {
        let mut h = lopsided(8);
        let mut sim = sim4();
        let procs: Vec<ProcId> = (0..2).map(ProcId).collect();
        balance_level_within(
            &mut h,
            &mut sim,
            0,
            &procs,
            &[1.0, 3.0],
            &BalanceParams::default(),
        );
        let loads = h.level_load_by_owner(0, 4);
        assert_eq!(loads[0], 1024); // 1/4 of 4096
        assert_eq!(loads[1], 3072); // 3/4
    }

    #[test]
    fn splits_single_giant_grid() {
        let mut h = GridHierarchy::new(Region::cube(16), 2, 3, 1, 1);
        h.insert_patch(0, Region::cube(16), None, 0);
        let mut sim = sim4();
        let procs: Vec<ProcId> = (0..2).map(ProcId).collect();
        let out = balance_level_within(
            &mut h,
            &mut sim,
            0,
            &procs,
            &[1.0, 1.0],
            &BalanceParams::default(),
        );
        assert!(out.splits >= 1);
        let loads = h.level_load_by_owner(0, 4);
        assert_eq!(loads[0] + loads[1], 4096);
        let ratio = loads[0].max(loads[1]) as f64 / loads[0].min(loads[1]) as f64;
        assert!(ratio < 1.1, "loads {loads:?}");
        assert!(h.check_invariants().is_ok());
    }

    #[test]
    fn no_split_when_disallowed() {
        let mut h = GridHierarchy::new(Region::cube(16), 2, 3, 1, 1);
        h.insert_patch(0, Region::cube(16), None, 0);
        let mut sim = sim4();
        let procs: Vec<ProcId> = (0..2).map(ProcId).collect();
        let params = BalanceParams {
            allow_split: false,
            ..Default::default()
        };
        let out = balance_level_within(&mut h, &mut sim, 0, &procs, &[1.0, 1.0], &params);
        assert_eq!(out.splits, 0);
        assert_eq!(out.moves, 0, "moving the only grid helps nothing");
    }

    #[test]
    fn leaves_outside_owners_alone() {
        let mut h = lopsided(4);
        // give one grid to proc 3 (outside the balanced set)
        let id = h.level_ids(0)[3];
        h.set_owner(id, 3);
        let mut sim = sim4();
        let procs: Vec<ProcId> = (0..2).map(ProcId).collect();
        balance_level_within(
            &mut h,
            &mut sim,
            0,
            &procs,
            &[1.0, 1.0],
            &BalanceParams::default(),
        );
        let loads = h.level_load_by_owner(0, 4);
        assert_eq!(loads[3], 512, "outsider untouched");
        assert_eq!(loads[0], loads[1]);
    }

    #[test]
    fn already_balanced_is_noop() {
        let mut h = lopsided(4);
        for (i, &id) in h.level_ids(0).to_vec().iter().enumerate() {
            h.set_owner(id, i);
        }
        let mut sim = sim4();
        let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
        let out = balance_level_within(
            &mut h,
            &mut sim,
            0,
            &procs,
            &[1.0; 4],
            &BalanceParams::default(),
        );
        assert_eq!(out, BalanceOutcome::default());
        assert_eq!(sim.elapsed(), SimTime::ZERO);
    }

    #[test]
    fn single_proc_noop() {
        let mut h = lopsided(4);
        let mut sim = sim4();
        let out = balance_level_within(
            &mut h,
            &mut sim,
            0,
            &[ProcId(0)],
            &[1.0],
            &BalanceParams::default(),
        );
        assert_eq!(out, BalanceOutcome::default());
    }

    #[test]
    fn failed_transfer_leaves_owner_and_counts() {
        use topology::faults::{FaultKind, FaultSchedule};
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9).with_faults(
            FaultSchedule::none().with_window(
                SimTime::ZERO,
                SimTime::from_secs(3600),
                FaultKind::Outage,
            ),
        );
        let sys = SystemBuilder::new().group("A", 4, 1.0, intra).build();
        let mut sim = SimView::new(sys);
        let mut h = lopsided(8);
        let out = balance_level_within(
            &mut h,
            &mut sim,
            0,
            &(0..4).map(ProcId).collect::<Vec<_>>(),
            &[1.0; 4],
            &BalanceParams::default(),
        );
        assert_eq!(out.moves, 0);
        assert_eq!(out.failed_moves, 1, "gave up after the first failure");
        let loads = h.level_load_by_owner(0, 4);
        assert_eq!(loads[0], 4096, "nothing moved: {loads:?}");
        assert!(h.check_invariants().is_ok());
    }

    #[test]
    fn place_batch_greedy_lpt() {
        // sizes 8,7,6,5 onto 2 equal procs -> {8,5} and {7,6}
        let owners = place_batch(&[0, 0], &[1.0, 1.0], &[8, 7, 6, 5]);
        let mut loads = [0i64; 2];
        for (i, &o) in owners.iter().enumerate() {
            loads[o] += [8, 7, 6, 5][i];
        }
        assert_eq!(loads[0], loads[1]);
    }

    #[test]
    fn place_batch_respects_existing_load_and_weights() {
        // proc0 pre-loaded; new work goes to proc1
        let owners = place_batch(&[100, 0], &[1.0, 1.0], &[10, 10]);
        assert_eq!(owners, vec![1, 1]);
        // heavier-weight proc absorbs more
        let owners = place_batch(&[0, 0], &[1.0, 9.0], &[10, 10, 10]);
        assert!(owners.iter().filter(|&&o| o == 1).count() >= 2);
    }
}
