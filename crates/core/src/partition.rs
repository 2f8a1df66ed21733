//! Global (inter-group) redistribution of level-0 grids — §4.4 and Fig. 6 —
//! plus the initial weighted domain decomposition.

use crate::balance::BalanceParams;
use samr_mesh::hierarchy::GridHierarchy;
use samr_mesh::patch::PatchId;
use samr_mesh::region::Region;
use simnet::{Activity, SimError, SimView};
use topology::{DistributedSystem, GroupId, ProcId, SimTime};

/// How donor level-0 grids are selected for global redistribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Select/split by iteration-weighted **subtree workload** — the work
    /// that actually follows a grid between groups. Stable (default).
    #[default]
    SubtreeWorkload,
    /// Select by level-0 **cell count** (the naive literal reading of
    /// Fig. 6). Kept as an ablation: on refinement-concentrated workloads it
    /// moves workload-free grids and oscillates.
    Cells,
}

/// What a global redistribution did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RedistributionReport {
    /// Level-0 cells moved between groups.
    pub moved_cells: i64,
    /// Bytes shipped across inter-group links.
    pub moved_bytes: u64,
    /// Number of grid migrations.
    pub moves: usize,
    /// Number of grid splits performed to hit the transfer amount.
    pub splits: usize,
    /// Net level-0 cell flow out of (+) or into (−) each group.
    pub group_flow: Vec<i64>,
}

/// A global redistribution that died mid-flight: the migration transfer
/// between `src_group` and `dst_group` failed with `error` after the moves
/// in `partial` had already been issued. [`global_redistribute_elastic`] has
/// rolled the hierarchy back by the time it returns this — owners, splits,
/// ids and field data are as before the call; `partial` is the wasted
/// motion.
#[derive(Clone, Debug)]
pub struct RedistributionAbort {
    /// The communication failure that killed the redistribution.
    pub error: SimError,
    /// Donor group of the failed transfer.
    pub src_group: usize,
    /// Receiving group of the failed transfer.
    pub dst_group: usize,
    /// What had been done before the failure (failed move excluded).
    pub partial: RedistributionReport,
}

/// Move level-0 grids from overloaded to underloaded groups so that each
/// group's iteration-weighted workload approaches its compute-power share
/// `n_g·p_g / Σ n·p` (§4.4).
///
/// Only level-0 grids move; finer grids stay put and are rebuilt beneath
/// their (possibly relocated) parents at the next regrid — exactly the
/// paper's policy. For two homogeneous groups the moved amount reduces to
/// Fig. 6's `(W_A − W_B)/(2·W_A) · W⁰_A`.
///
/// Infallible entry point for fault-free links: every group is eligible at
/// its nameplate power, transfers have no deadline, and a mid-flight
/// failure simply truncates the result to the moves that completed — they
/// stay applied. Fault-aware callers use [`global_redistribute_elastic`].
pub fn global_redistribute(
    hier: &mut GridHierarchy,
    sim: &mut SimView,
    group_loads: &[f64],
    params: &BalanceParams,
) -> RedistributionReport {
    let eligible = vec![true; sim.system().ngroups()];
    let powers = crate::gain::static_powers(sim.system());
    let alive = vec![true; sim.system().nprocs()];
    let policy = SelectionPolicy::SubtreeWorkload;
    match redistribute_moves(
        hier, sim, group_loads, &eligible, params, policy, None, &powers, &alive,
    ) {
        Ok(rep) => rep,
        Err(abort) => abort.partial,
    }
}

/// Fault- and capacity-aware [`global_redistribute`]: only groups with
/// `eligible[g] == true` donate or receive (quarantined groups keep their
/// grids), every migration transfer carries the absolute `deadline`, and a
/// transfer failure aborts the redistribution with a
/// [`RedistributionAbort`] instead of pressing on over a dead link. Group
/// targets are proportional to the supplied `powers` (per group id — pass
/// the *alive* capacity of a group that lost procs to crash-stop failures),
/// and migration destinations are restricted to procs with
/// `alive[p] == true`. A group whose power is zero but which still holds
/// load becomes a pure donor; a group with no alive procs can never
/// receive. Ownership is only committed after a transfer succeeds.
///
/// The redistribution is one [`GridHierarchy`] transaction: `Ok` commits
/// it, `Err` rolls it back, so an abort leaves the hierarchy exactly as it
/// was — at a cost proportional to the grids that were touched, with no
/// copy of the mesh taken up front. (Simulated time already spent on the
/// failed and the undone transfers stays spent.)
#[allow(clippy::too_many_arguments)]
pub fn global_redistribute_elastic(
    hier: &mut GridHierarchy,
    sim: &mut SimView,
    group_loads: &[f64],
    eligible: &[bool],
    params: &BalanceParams,
    policy: SelectionPolicy,
    deadline: Option<SimTime>,
    powers: &[f64],
    alive: &[bool],
) -> Result<RedistributionReport, RedistributionAbort> {
    hier.begin_transaction();
    let result = redistribute_moves(
        hier, sim, group_loads, eligible, params, policy, deadline, powers, alive,
    );
    match result {
        Ok(_) => hier.commit(),
        Err(_) => hier.rollback(),
    }
    result
}

/// The moves and splits of [`global_redistribute_elastic`], applied
/// directly; on `Err` the ones already made stay.
#[allow(clippy::too_many_arguments)]
fn redistribute_moves(
    hier: &mut GridHierarchy,
    sim: &mut SimView,
    group_loads: &[f64],
    eligible: &[bool],
    params: &BalanceParams,
    policy: SelectionPolicy,
    deadline: Option<SimTime>,
    powers: &[f64],
    alive: &[bool],
) -> Result<RedistributionReport, RedistributionAbort> {
    let sys = sim.system().clone();
    let ngroups = sys.ngroups();
    assert_eq!(group_loads.len(), ngroups);
    assert_eq!(eligible.len(), ngroups);
    assert_eq!(powers.len(), ngroups);
    assert_eq!(alive.len(), sys.nprocs());
    let mut report = RedistributionReport {
        group_flow: vec![0; ngroups],
        ..Default::default()
    };
    if eligible.iter().filter(|&&e| e).count() < 2 {
        return Ok(report);
    }

    let total_load: f64 = group_loads
        .iter()
        .enumerate()
        .filter(|(g, _)| eligible[*g])
        .map(|(_, &w)| w)
        .sum();
    let total_power: f64 = (0..ngroups)
        .filter(|&g| eligible[g])
        .map(|g| powers[g])
        .sum();
    if total_load <= 0.0 || total_power <= 0.0 {
        return Ok(report);
    }

    // Iteration-weighted *subtree* workload of every level-0 grid: the work
    // that actually follows the grid when it changes groups (its refined
    // descendants are rebuilt beneath it at the next regrid).
    let iter_w: Vec<f64> = (0..hier.num_levels())
        .map(|l| (hier.refine_factor() as f64).powi(l as i32))
        .collect();
    let subtree = subtree_loads(hier, &iter_w);
    // grid weight under the active selection policy
    let grid_weight = |hier: &GridHierarchy, id: PatchId| -> f64 {
        match policy {
            SelectionPolicy::SubtreeWorkload => {
                subtree.get(&id).copied().unwrap_or(0.0) + hier.patch(id).cells() as f64
            }
            SelectionPolicy::Cells => hier.patch(id).cells() as f64,
        }
    };

    // Workload surplus each overloaded group must export, and each
    // underloaded group's deficit (both in iteration-weighted cell units).
    let mut donors: Vec<(usize, f64)> = Vec::new();
    let mut receivers: Vec<(usize, f64)> = Vec::new();
    for g in (0..ngroups).filter(|&g| eligible[g]) {
        let target = total_load * powers[g] / total_power;
        let w = group_loads[g];
        if w > target && w > 0.0 {
            donors.push((g, w - target));
        } else if target > w {
            receivers.push((g, target - w));
        }
    }
    if donors.is_empty() || receivers.is_empty() {
        return Ok(report);
    }

    // Stop once the residual surplus is within a small fraction of the
    // fair share — chasing the last few cells costs more than it gains and
    // risks oscillation between steps.
    let active = eligible.iter().filter(|&&e| e).count();
    let fair_share = total_load / active as f64;
    let stop = (0.04 * fair_share).max(params.min_split_cells as f64);
    let mut moves_left = params.max_moves;
    for (dg, mut remaining) in donors {
        while remaining > stop && moves_left > 0 {
            // Neediest receiver right now.
            let Some(rix) = receivers
                .iter()
                .enumerate()
                .filter(|(_, (_, d))| *d > 0.0)
                .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
                .map(|(i, _)| i)
            else {
                break;
            };
            let rg = receivers[rix].0;

            // Largest-subtree-workload grid of the donor group not
            // overshooting the remaining surplus; else split the heaviest
            // grid by cell fraction. The donor's last level-0 grid may be
            // split but never moved whole (a group must keep owning part of
            // the root domain).
            let candidates = donor_level0_patches(hier, &sys, dg);
            if candidates.is_empty() {
                break;
            }
            let last_one = candidates.len() == 1;
            let mut fit: Option<(PatchId, f64)> = None;
            let mut heaviest: Option<(PatchId, f64)> = None;
            for &(id, _) in &candidates {
                let w = grid_weight(hier, id);
                if w <= 0.0 {
                    continue;
                }
                if !last_one && w <= remaining * 1.05 && fit.is_none_or(|(_, fw)| w > fw) {
                    fit = Some((id, w));
                }
                if heaviest.is_none_or(|(_, hw)| w > hw) {
                    heaviest = Some((id, w));
                }
            }
            // A fit that covers less than half the surplus while a much
            // heavier (splittable) grid exists means the workload is
            // concentrated: split the heavy grid instead of shuffling
            // featherweight ones.
            let prefer_split = match (fit, heaviest) {
                (Some((_, fw)), Some((hid, hw))) => {
                    fw < remaining * 0.5
                        && hw > remaining * 1.05
                        && params.allow_split
                        && hier.patch(hid).cells() >= params.min_split_cells * 2
                }
                _ => false,
            };
            let fit = if prefer_split { None } else { fit };
            let (move_id, moved_load) = match (fit, heaviest) {
                (Some(x), _) => x,
                (None, Some((id, _w))) => {
                    let cells = hier.patch(id).cells();
                    if params.allow_split && cells >= params.min_split_cells * 2 {
                        // cut the grid where the *workload profile* says the
                        // desired amount lies — a cell-fraction cut would miss
                        // when the refined region is concentrated
                        let Some(plan) = best_workload_split(hier, id, remaining, &iter_w)
                        else {
                            break;
                        };
                        let (a, b) = hier.split_patch(id, plan.low_cells, plan.axis);
                        report.splits += 1;
                        let move_half = if plan.move_low { a } else { b };
                        let wm = match policy {
                            SelectionPolicy::SubtreeWorkload => {
                                subtree_load_of(hier, move_half, &iter_w)
                                    + hier.patch(move_half).cells() as f64
                            }
                            SelectionPolicy::Cells => hier.patch(move_half).cells() as f64,
                        };
                        (move_half, wm)
                    } else {
                        break; // nothing movable without overshooting badly
                    }
                }
                (None, None) => break,
            };

            // A move that barely dents the surplus (a childless grid when a
            // heavy subtree is what's imbalanced) is not worth the traffic
            // or the churn; moving it cannot converge either.
            if moved_load < stop.min(remaining * 0.02) {
                break;
            }

            // Destination: least-loaded (level-0 cells per weight) *alive*
            // processor of the receiving group.
            let Some(dst) = least_loaded_proc_among(hier, &sys, rg, alive) else {
                break;
            };
            let src = ProcId(hier.patch(move_id).owner);
            let cells = hier.patch(move_id).cells();
            let bytes = hier.patch(move_id).payload_bytes();
            // Transfer first, commit ownership only once the bytes arrived:
            // a grid must never end up owned by a processor that did not
            // receive it.
            if let Err(error) =
                sim.send_with_deadline(src, dst, bytes, Activity::LoadBalance, deadline)
            {
                return Err(RedistributionAbort {
                    error,
                    src_group: dg,
                    dst_group: rg,
                    partial: report,
                });
            }
            hier.set_owner(move_id, dst.0);

            remaining -= moved_load;
            moves_left -= 1;
            report.moved_cells += cells;
            report.moved_bytes += bytes;
            report.moves += 1;
            report.group_flow[dg] += cells;
            report.group_flow[rg] -= cells;
            receivers[rix].1 -= moved_load;
        }
    }
    Ok(report)
}

/// One patch reassigned away from a crashed processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvacuationMove {
    pub patch: PatchId,
    pub level: usize,
    /// New owner processor.
    pub to: usize,
    pub cells: i64,
    pub bytes: u64,
}

/// What evacuating a crashed processor did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EvacuationReport {
    pub moves: Vec<EvacuationMove>,
    /// Cells (all levels) whose ownership was reassigned.
    pub evacuated_cells: i64,
    /// Bytes shipped from the checkpoint holder to the new owners.
    pub moved_bytes: u64,
    /// Moves that stayed inside the dead proc's group.
    pub intra: usize,
    /// Moves that had to leave the group (no alive proc at home).
    pub inter: usize,
}

impl EvacuationReport {
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Reassign every patch (all levels) owned by crashed processor `dead` to
/// surviving processors: the least-loaded *alive* proc of the dead proc's
/// own group when one exists, otherwise the least-loaded alive proc
/// anywhere (the inter-group escape hatch for a fully-dead group). The
/// patch payload is charged as a migration transfer from the checkpoint
/// holder (the group's first alive proc, else the first alive proc of the
/// system) to each new owner — the dead proc cannot send, so the state is
/// served from the last checkpoint and the *content* is reconstructed by
/// the caller (restore + recompute, charged separately).
///
/// Transfer failures are tolerated: evacuation is forced, so ownership is
/// committed even when the link is degraded (the wasted detection time is
/// still charged by the simulator). Returns an empty report if no proc is
/// alive at all.
pub fn evacuate_proc(
    hier: &mut GridHierarchy,
    sim: &mut SimView,
    dead: ProcId,
    alive: &[bool],
) -> EvacuationReport {
    let sys = sim.system().clone();
    let nprocs = sys.nprocs();
    assert_eq!(alive.len(), nprocs);
    assert!(!alive[dead.0], "evacuating a live proc");
    let mut report = EvacuationReport::default();
    if !alive.iter().any(|&a| a) {
        return report; // total failure: nothing left to evacuate onto
    }
    let home = sys.group_of(dead);

    // placement pressure: cells owned per proc across every level, updated
    // as patches are reassigned so one survivor doesn't absorb everything
    let mut load = vec![0i64; nprocs];
    for l in 0..hier.num_levels() {
        for (p, c) in hier.level_load_by_owner(l, nprocs).iter().enumerate() {
            load[p] += c;
        }
    }

    // the checkpoint holder serving the evacuated state
    let all_procs: Vec<ProcId> = (0..nprocs).map(ProcId).collect();
    let holder = sys
        .procs_in(home)
        .iter()
        .chain(all_procs.iter())
        .copied()
        .find(|p| alive[p.0])
        .expect("some proc is alive");

    let doomed: Vec<(usize, PatchId)> = (0..hier.num_levels())
        .flat_map(|l| {
            hier.level_ids(l)
                .iter()
                .filter(|&&id| hier.patch(id).owner == dead.0)
                .map(move |&id| (l, id))
                .collect::<Vec<_>>()
        })
        .collect();

    for (level, id) in doomed {
        let best_in = |procs: &[ProcId], load: &[i64]| -> Option<ProcId> {
            procs
                .iter()
                .filter(|p| alive[p.0])
                .min_by(|a, b| {
                    let la = load[a.0] as f64 / sys.proc(**a).weight;
                    let lb = load[b.0] as f64 / sys.proc(**b).weight;
                    la.total_cmp(&lb)
                })
                .copied()
        };
        let (dst, intra) = match best_in(sys.procs_in(home), &load) {
            Some(p) => (p, true),
            None => (
                best_in(&all_procs, &load).expect("some proc is alive"),
                false,
            ),
        };
        let cells = hier.patch(id).cells();
        let bytes = hier.patch(id).payload_bytes();
        let _ = sim.send(holder, dst, bytes, Activity::LoadBalance);
        hier.set_owner(id, dst.0);
        load[dst.0] += cells;
        report.moves.push(EvacuationMove {
            patch: id,
            level,
            to: dst.0,
            cells,
            bytes,
        });
        report.evacuated_cells += cells;
        report.moved_bytes += bytes;
        if intra {
            report.intra += 1;
        } else {
            report.inter += 1;
        }
    }
    report
}

/// Level-0 cells owned by processors of group `g`.
pub fn group_level0_cells(hier: &GridHierarchy, sys: &DistributedSystem, g: usize) -> i64 {
    hier.level_ids(0)
        .iter()
        .map(|id| hier.patch(*id))
        .filter(|p| sys.group_of(ProcId(p.owner)).0 == g)
        .map(|p| p.cells())
        .sum()
}



/// A planned workload-aware split of a level-0 grid.
#[derive(Clone, Copy, Debug)]
struct SplitPlan {
    axis: usize,
    /// Cells in the low-side half (passed to `split_patch` as `want`).
    low_cells: i64,
    /// Whether the low-side half is the one to migrate.
    move_low: bool,
}

/// Find the cut (axis + plane) of grid `id` whose one-sided subtree-workload
/// best matches `want`. Projects every descendant's iteration-weighted load
/// onto each axis (uniform within its extent) plus the grid's own cells,
/// then scans all cut planes. Returns `None` for grids too thin to split.
fn best_workload_split(
    hier: &GridHierarchy,
    id: PatchId,
    want: f64,
    iter_weights: &[f64],
) -> Option<SplitPlan> {
    let region = hier.patch(id).region;
    let size = region.size();
    let r = hier.refine_factor();

    // gather descendants of this level-0 grid with their loads, projected
    // onto level-0 coordinates
    let mut desc: Vec<(Region, f64)> = Vec::new();
    for l in 1..hier.num_levels() {
        let w = iter_weights.get(l).copied().unwrap_or(1.0);
        for &cid in hier.level_ids(l) {
            let mut cur = cid;
            while let Some(par) = hier.patch(cur).parent {
                cur = par;
            }
            if cur != id {
                continue;
            }
            let p = hier.patch(cid);
            let mut creg = p.region;
            for _ in 0..l {
                creg = creg.coarsen(r);
            }
            desc.push((creg, p.cells() as f64 * w));
        }
    }

    let mut best: Option<(f64, SplitPlan)> = None; // (abs error, plan)
    for axis in 0..3 {
        let extent = size[axis];
        if extent < 2 {
            continue;
        }
        // per-plane workload profile along this axis
        let own_per_plane = region.cells() as f64 / extent as f64;
        let mut profile = vec![own_per_plane; extent as usize];
        for (creg, load) in &desc {
            let lo = (creg.lo[axis].max(region.lo[axis]) - region.lo[axis]) as usize;
            let hi = (creg.hi[axis].min(region.hi[axis]) - region.lo[axis]).max(0) as usize;
            if hi <= lo {
                continue;
            }
            let per = load / (hi - lo) as f64;
            for v in profile.iter_mut().take(hi).skip(lo) {
                *v += per;
            }
        }
        let total: f64 = profile.iter().sum();
        let mut cum = 0.0;
        for cut in 1..extent {
            cum += profile[(cut - 1) as usize];
            for (side_load, move_low) in [(cum, true), (total - cum, false)] {
                let err = (side_load - want).abs();
                if best.is_none_or(|(be, _)| err < be) {
                    let plane_cells = region.cells() / extent;
                    best = Some((
                        err,
                        SplitPlan {
                            axis,
                            low_cells: cut * plane_cells,
                            move_low,
                        },
                    ));
                }
            }
        }
    }
    best.map(|(_, plan)| plan)
}

/// Iteration-weighted subtree workload (descendants only) of every level-0
/// grid: `Σ_descendants cells · iter_weight(level)`.
pub fn subtree_loads(
    hier: &GridHierarchy,
    iter_weights: &[f64],
) -> std::collections::BTreeMap<PatchId, f64> {
    let mut acc: std::collections::BTreeMap<PatchId, f64> = hier
        .level_ids(0)
        .iter()
        .map(|&id| (id, 0.0))
        .collect();
    // map every patch to its level-0 ancestor
    for l in 1..hier.num_levels() {
        for &id in hier.level_ids(l) {
            let mut cur = id;
            while let Some(par) = hier.patch(cur).parent {
                cur = par;
            }
            let w = iter_weights.get(l).copied().unwrap_or(1.0);
            *acc.entry(cur).or_default() += hier.patch(id).cells() as f64 * w;
        }
    }
    acc
}

/// Subtree workload (descendants only) of one level-0 grid.
pub fn subtree_load_of(hier: &GridHierarchy, root: PatchId, iter_weights: &[f64]) -> f64 {
    let mut total = 0.0;
    for l in 1..hier.num_levels() {
        for &id in hier.level_ids(l) {
            let mut cur = id;
            while let Some(par) = hier.patch(cur).parent {
                cur = par;
            }
            if cur == root {
                let w = iter_weights.get(l).copied().unwrap_or(1.0);
                total += hier.patch(id).cells() as f64 * w;
            }
        }
    }
    total
}

fn donor_level0_patches(
    hier: &GridHierarchy,
    sys: &DistributedSystem,
    g: usize,
) -> Vec<(PatchId, i64)> {
    hier.level_ids(0)
        .iter()
        .map(|&id| (id, hier.patch(id)))
        .filter(|(_, p)| sys.group_of(ProcId(p.owner)).0 == g)
        .map(|(id, p)| (id, p.cells()))
        .collect()
}

fn least_loaded_proc_among(
    hier: &GridHierarchy,
    sys: &DistributedSystem,
    g: usize,
    alive: &[bool],
) -> Option<ProcId> {
    let loads = hier.level_load_by_owner(0, sys.nprocs());
    sys.procs_in(GroupId(g))
        .iter()
        .filter(|p| alive[p.0])
        .min_by(|a, b| {
            let la = loads[a.0] as f64 / sys.proc(**a).weight;
            let lb = loads[b.0] as f64 / sys.proc(**b).weight;
            la.total_cmp(&lb)
        })
        .copied()
}

/// Initial static decomposition: slice `domain` into one slab per processor
/// along its longest axis, slab sizes proportional to `shares`. Returns
/// `(region, share_index)` pairs covering the domain exactly.
pub fn decompose_domain(domain: Region, shares: &[f64]) -> Vec<(Region, usize)> {
    assert!(!shares.is_empty());
    let total: f64 = shares.iter().sum();
    assert!(total > 0.0);
    let axis = domain.size().longest_axis();
    if shares.len() as i64 > domain.size()[axis] {
        // Federation scale: more shares than planes along the longest
        // axis, so single-axis slabbing cannot host them. Recursive
        // weighted bisection instead, re-picking the longest axis at
        // every cut so leaves stay near-cubic.
        let mut out = Vec::with_capacity(shares.len());
        let idx: Vec<usize> = (0..shares.len()).collect();
        bisect_shares(domain, &idx, shares, &mut out);
        return out;
    }
    let mut out = Vec::with_capacity(shares.len());
    let mut rest = domain;
    for (i, &s) in shares.iter().enumerate() {
        if i + 1 == shares.len() {
            if !rest.is_empty() {
                out.push((rest, i));
            }
            break;
        }
        let remaining_share: f64 = shares[i..].iter().sum();
        let want = (rest.cells() as f64 * s / remaining_share).round() as i64;
        let (slab, r) = rest.split_cells(want.max(1), axis);
        if !slab.is_empty() {
            out.push((slab, i));
        }
        rest = r;
        if rest.is_empty() {
            break;
        }
    }
    out
}

/// Recursive weighted bisection of `domain` over the share indices `idx`:
/// split the shares near half their total weight, cut the region
/// proportionally along its current longest axis, recurse. A region too
/// thin to cut (or with fewer cells than shares) goes whole to the heavier
/// half — the shares left out start empty and pick up work from the first
/// balancing pass.
fn bisect_shares(domain: Region, idx: &[usize], shares: &[f64], out: &mut Vec<(Region, usize)>) {
    if domain.is_empty() {
        return;
    }
    if idx.len() == 1 {
        out.push((domain, idx[0]));
        return;
    }
    let total: f64 = idx.iter().map(|&i| shares[i]).sum();
    let mut acc = 0.0;
    let mut k = idx.len() - 1;
    for (j, &i) in idx.iter().enumerate() {
        acc += shares[i];
        if acc >= total / 2.0 {
            k = (j + 1).clamp(1, idx.len() - 1);
            break;
        }
    }
    let (li, ri) = idx.split_at(k);
    let ltotal: f64 = li.iter().map(|&i| shares[i]).sum();
    let axis = domain.size().longest_axis();
    if domain.size()[axis] < 2 {
        // indivisible: the heavier half takes the whole region
        if ltotal * 2.0 >= total {
            bisect_shares(domain, li, shares, out);
        } else {
            bisect_shares(domain, ri, shares, out);
        }
        return;
    }
    let want = (domain.cells() as f64 * ltotal / total).round() as i64;
    let (a, b) = domain.split_cells(want.max(1), axis);
    bisect_shares(a, li, shares, out);
    bisect_shares(b, ri, shares, out);
}

/// `hier` holds exactly what `snap` recorded: the same ids in the same level
/// order with the same regions, parents, owners and field data.
#[cfg(test)]
pub(crate) fn assert_matches_snapshot(
    hier: &GridHierarchy,
    snap: &samr_mesh::checkpoint::HierarchySnapshot,
) {
    assert_eq!(hier.num_patches(), snap.patches.len());
    for l in 0..hier.num_levels() {
        // snapshots list patches by ascending id, which is level order
        let want: Vec<PatchId> = snap.patches.iter().filter(|p| p.level == l).map(|p| p.id).collect();
        assert_eq!(hier.level_ids(l), want, "level {l}");
    }
    for want in &snap.patches {
        let got = hier.patch(want.id);
        assert_eq!(
            (got.region, got.parent, got.owner),
            (want.region, want.parent, want.owner),
            "{:?}",
            want.id
        );
        assert_eq!(got.fields, want.fields, "{:?}", want.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_mesh::{ivec3, region};
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder};

    fn wan_sys(na: usize, nb: usize, wb: f64) -> DistributedSystem {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(10), 1e7);
        SystemBuilder::new()
            .group("A", na, 1.0, intra.clone())
            .group("B", nb, wb, intra)
            .connect(0, 1, wan)
            .build()
    }

    /// 8 level-0 grids of 512 cells each, split between first procs of the
    /// two groups.
    fn hier_split(owner_a: usize, owner_b: usize, na: i64) -> GridHierarchy {
        let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(64, 8, 8)), 2, 3, 1, 1);
        for i in 0..8 {
            let owner = if i < na { owner_a } else { owner_b };
            h.insert_patch(
                0,
                region(ivec3(8 * i, 0, 0), ivec3(8 * (i + 1), 8, 8)),
                None,
                owner,
            );
        }
        h
    }

    /// The fault-aware call at nameplate powers with every proc alive.
    fn redistribute_eligible(
        hier: &mut GridHierarchy,
        sim: &mut SimView,
        group_loads: &[f64],
        eligible: &[bool],
    ) -> Result<RedistributionReport, RedistributionAbort> {
        let powers = crate::gain::static_powers(sim.system());
        let alive = vec![true; sim.system().nprocs()];
        global_redistribute_elastic(
            hier,
            sim,
            group_loads,
            eligible,
            &BalanceParams::default(),
            SelectionPolicy::SubtreeWorkload,
            None,
            &powers,
            &alive,
        )
    }

    #[test]
    fn fig6_two_group_amount() {
        // Group A holds 6 grids (3072 cells of workload), B holds 2 (1024).
        // Fig. 6: move (W_A−W_B)/(2·W_A) · W⁰_A
        //       = 2048/6144 · 3072 = 1024 cells (two 512-cell grids).
        let sys = wan_sys(2, 2, 1.0);
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(0, 2, 6);
        let loads = [3072.0, 1024.0];
        let rep = global_redistribute(
            &mut hier,
            &mut sim,
            &loads,
            &BalanceParams::default(),
        );
        assert_eq!(rep.moved_cells, 1024, "{rep:?}");
        assert_eq!(rep.moves, 2);
        assert_eq!(rep.group_flow, vec![1024, -1024]);
        // groups end holding equal level-0 cells
        let sys = sim.system().clone();
        assert_eq!(group_level0_cells(&hier, &sys, 0), 2048);
        assert_eq!(group_level0_cells(&hier, &sys, 1), 2048);
        // remote migration traffic happened
        assert_eq!(sim.stats().msgs.remote_msgs, 2);
        assert!(hier.check_invariants().is_ok());
    }

    #[test]
    fn balanced_loads_no_motion() {
        let sys = wan_sys(2, 2, 1.0);
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(0, 2, 4);
        let rep = global_redistribute(
            &mut hier,
            &mut sim,
            &[2048.0, 2048.0],
            &BalanceParams::default(),
        );
        assert_eq!(rep.moved_cells, 0);
        assert_eq!(sim.elapsed(), SimTime::ZERO);
    }

    #[test]
    fn heterogeneous_target_respects_power() {
        // Group B is 3x faster per proc: with equal loads, A (power 2) vs B
        // (power 6) ⇒ A's target = total/4 ⇒ A must export half its cells.
        let sys = wan_sys(2, 2, 3.0);
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(0, 2, 4);
        let rep = global_redistribute(
            &mut hier,
            &mut sim,
            &[2048.0, 2048.0],
            &BalanceParams::default(),
        );
        assert!(
            (rep.moved_cells - 1024).abs() <= 64,
            "expected ≈1024 cells moved, got {}",
            rep.moved_cells
        );
        assert!(rep.group_flow[0] > 0 && rep.group_flow[1] < 0);
    }

    #[test]
    fn splits_when_grids_are_chunky() {
        // One giant grid holds all of A's cells; moving 1/4 of the workload
        // requires splitting it.
        let sys = wan_sys(2, 2, 1.0);
        let mut sim = SimView::new(sys);
        let mut hier = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(64, 8, 8)), 2, 3, 1, 1);
        hier.insert_patch(0, region(ivec3(0, 0, 0), ivec3(32, 8, 8)), None, 0);
        hier.insert_patch(0, region(ivec3(32, 0, 0), ivec3(64, 8, 8)), None, 2);
        // A overloaded 3:1 in workload
        let rep = global_redistribute(
            &mut hier,
            &mut sim,
            &[3000.0, 1000.0],
            &BalanceParams::default(),
        );
        assert!(rep.splits >= 1, "{rep:?}");
        assert!(rep.moved_cells > 0);
        assert!(hier.check_invariants().is_ok());
    }

    #[test]
    fn single_group_noop() {
        let intra = Link::dedicated("intra", SimTime::ZERO, 1e9);
        let sys = SystemBuilder::new().group("A", 4, 1.0, intra).build();
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(0, 1, 4);
        let rep =
            global_redistribute(&mut hier, &mut sim, &[4096.0], &BalanceParams::default());
        assert_eq!(rep, RedistributionReport {
            group_flow: vec![0],
            ..Default::default()
        });
    }

    #[test]
    fn decompose_domain_covers_exactly() {
        let domain = Region::cube(16);
        let parts = decompose_domain(domain, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(parts.len(), 4);
        let total: i64 = parts.iter().map(|(r, _)| r.cells()).sum();
        assert_eq!(total, domain.cells());
        for (i, (a, _)) in parts.iter().enumerate() {
            for (b, _) in &parts[i + 1..] {
                assert!(!a.overlaps(b));
            }
        }
        // equal shares -> equal slabs
        assert!(parts.iter().all(|(r, _)| r.cells() == 1024));
    }

    #[test]
    fn decompose_domain_weighted() {
        let domain = Region::cube(16);
        let parts = decompose_domain(domain, &[1.0, 3.0]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0.cells(), 1024);
        assert_eq!(parts[1].0.cells(), 3072);
    }

    #[test]
    fn guarded_excludes_ineligible_groups() {
        // Three groups; C is quarantined. A's surplus flows to B only, and
        // C's grids never move despite C being the emptiest group.
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(10), 1e7);
        let sys = SystemBuilder::new()
            .group("A", 2, 1.0, intra.clone())
            .group("B", 2, 1.0, intra.clone())
            .group("C", 2, 1.0, intra)
            .connect(0, 1, wan.clone())
            .connect(0, 2, wan.clone())
            .connect(1, 2, wan)
            .build();
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(0, 2, 6); // A: 6 grids, B: 2, C: 0
        let rep = redistribute_eligible(
            &mut hier,
            &mut sim,
            &[3072.0, 1024.0, 0.0],
            &[true, true, false],
        )
        .unwrap();
        assert!(rep.moved_cells > 0);
        assert_eq!(rep.group_flow[2], 0, "quarantined group untouched: {rep:?}");
        let sys = sim.system().clone();
        assert_eq!(group_level0_cells(&hier, &sys, 2), 0);
        // A and B converge toward equal shares of *their* load
        assert_eq!(group_level0_cells(&hier, &sys, 0), 2048);
        assert_eq!(group_level0_cells(&hier, &sys, 1), 2048);
    }

    #[test]
    fn evacuation_prefers_survivors_at_home() {
        let sys = wan_sys(2, 2, 1.0);
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(0, 2, 4); // procs 0 and 2 hold 4 grids each
        let alive = [false, true, true, true];
        let rep = evacuate_proc(&mut hier, &mut sim, ProcId(0), &alive);
        assert_eq!(rep.moves.len(), 4);
        assert_eq!(rep.evacuated_cells, 4 * 512);
        assert_eq!(rep.inter, 0, "home group had a survivor: {rep:?}");
        let sys = sim.system().clone();
        // everything landed on proc 1 (the only alive proc of group A)
        for m in &rep.moves {
            assert_eq!(m.to, 1);
        }
        assert_eq!(group_level0_cells(&hier, &sys, 0), 2048);
        assert!(hier.check_invariants().is_ok());
        // no patch lost or duplicated: total cells conserved
        let total: i64 = hier.level_ids(0).iter().map(|&id| hier.patch(id).cells()).sum();
        assert_eq!(total, 8 * 512);
    }

    #[test]
    fn evacuation_escapes_a_fully_dead_group() {
        let sys = wan_sys(2, 2, 1.0);
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(0, 2, 4);
        // all of group A dead: proc 0's grids must cross to group B, spread
        // over B's two procs by load
        let alive = [false, false, true, true];
        let rep = evacuate_proc(&mut hier, &mut sim, ProcId(0), &alive);
        assert_eq!(rep.moves.len(), 4);
        assert_eq!(rep.intra, 0);
        assert_eq!(rep.inter, 4);
        let sys = sim.system().clone();
        assert_eq!(group_level0_cells(&hier, &sys, 0), 0);
        assert_eq!(group_level0_cells(&hier, &sys, 1), 4096);
        // proc 3 started empty, so placement alternated 3,3,2/3...: no
        // single proc absorbed all four grids
        let owners: Vec<usize> = rep.moves.iter().map(|m| m.to).collect();
        assert!(owners.contains(&3));
        assert!(hier.check_invariants().is_ok());
    }

    #[test]
    fn elastic_redistribute_prices_shrunken_capacity() {
        // Equal loads, equal nameplate groups — but half of B is dead, so
        // the elastic pass moves work *out* of B toward A.
        let sys = wan_sys(2, 2, 1.0);
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(0, 2, 4);
        let alive = [true, true, true, false];
        let rep = global_redistribute_elastic(
            &mut hier,
            &mut sim,
            &[2048.0, 2048.0],
            &[true, true],
            &BalanceParams::default(),
            SelectionPolicy::SubtreeWorkload,
            None,
            &[2.0, 1.0],
            &alive,
        )
        .unwrap();
        assert!(rep.moved_cells > 0, "{rep:?}");
        assert!(rep.group_flow[1] > 0 && rep.group_flow[0] < 0);
        // nothing may land on the dead proc
        for &id in hier.level_ids(0) {
            assert_ne!(hier.patch(id).owner, 3);
        }
        // all alive at nameplate powers, the same loads are balanced
        let mut sim2 = SimView::new(wan_sys(2, 2, 1.0));
        let mut hier2 = hier_split(0, 2, 4);
        let rep2 =
            redistribute_eligible(&mut hier2, &mut sim2, &[2048.0, 2048.0], &[true, true]).unwrap();
        assert_eq!(rep2.moved_cells, 0);
    }

    #[test]
    fn guarded_aborts_on_failed_transfer_without_committing_ownership() {
        use topology::faults::{FaultKind, FaultSchedule};
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(10), 1e7).with_faults(
            FaultSchedule::none().with_window(
                SimTime::ZERO,
                SimTime::from_secs(3600),
                FaultKind::Outage,
            ),
        );
        let sys = SystemBuilder::new()
            .group("A", 2, 1.0, intra.clone())
            .group("B", 2, 1.0, intra)
            .connect(0, 1, wan)
            .build();
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(0, 2, 6);
        let abort = redistribute_eligible(&mut hier, &mut sim, &[3072.0, 1024.0], &[true, true])
            .unwrap_err();
        assert!(matches!(abort.error, SimError::LinkDown { .. }));
        assert_eq!((abort.src_group, abort.dst_group), (0, 1));
        assert_eq!(abort.partial.moves, 0, "first transfer already failed");
        // ownership was not committed for the failed move
        let sys = sim.system().clone();
        assert_eq!(group_level0_cells(&hier, &sys, 0), 3072);
        assert_eq!(sim.stats().msgs.failed_msgs, 1);

        // One chunky grid per group: the donor's has to be split before
        // anything can move, and then the transfer fails. The abort hands
        // back the hierarchy it was given — the caller took no snapshot.
        let mut hier = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(64, 8, 8)), 2, 3, 1, 1);
        let a = hier.insert_patch(0, region(ivec3(0, 0, 0), ivec3(32, 8, 8)), None, 0);
        let b = hier.insert_patch(0, region(ivec3(32, 0, 0), ivec3(64, 8, 8)), None, 2);
        let child = hier.insert_patch(1, region(ivec3(24, 0, 0), ivec3(40, 16, 16)), Some(a), 1);
        for id in [a, b, child] {
            hier.patch_mut(id).fields[0].map_interior(|p, _| (p.x * 31 + p.y * 7 + p.z) as f64 + 0.5);
        }
        let before = samr_mesh::checkpoint::snapshot(&hier);
        let abort = redistribute_eligible(&mut hier, &mut sim, &[3000.0, 1000.0], &[true, true])
            .unwrap_err();
        assert!(abort.partial.splits >= 1, "{abort:?}");
        assert_matches_snapshot(&hier, &before);
        assert!(hier.check_invariants().is_ok());
        // ids the rolled-back splits used are free again
        assert_eq!(hier.insert_patch(1, region(ivec3(0, 0, 0), ivec3(8, 8, 8)), Some(a), 0).0, 3);
    }
}
