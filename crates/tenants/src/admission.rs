//! Priority-weighted admission: tenant → group placement.
//!
//! The admission order is drawn from the *cumulative priority
//! distribution*: each round, one not-yet-admitted tenant is picked with
//! probability proportional to its priority weight (a uniform draw walks
//! the cumulative array — the replica-pick idiom of succinct's dynamic
//! load balancer). Admitted tenants claim the least-loaded groups, so a
//! high-priority job statistically enters early and lands on empty ones.
//!
//! The naive baseline ([`place_static`]) ignores both priority and load:
//! tenants take consecutive group windows in submission order, which is
//! what a per-job scheduler with no service-level view would do.

use crate::spec::TenantSpec;
use base::rng::SplitMix64;
use topology::GroupId;

/// Result of admitting a batch of tenants onto `ngroups` substrate groups.
#[derive(Clone, Debug, PartialEq)]
pub struct Placement {
    /// Admission order (indices into the spec list).
    pub order: Vec<usize>,
    /// Per tenant (indexed like the spec list): the global groups its view
    /// spans.
    pub groups: Vec<Vec<GroupId>>,
}

/// Cumulative-distribution pick: the first index whose cumulative weight
/// exceeds `r · Σweights`, for a uniform draw `r ∈ [0, 1)`. Panics on an
/// empty or non-positive-total weight list.
pub fn pick_weighted(weights: &[f64], r: f64) -> usize {
    assert!(!weights.is_empty(), "pick over no weights");
    let total: f64 = weights.iter().inspect(|w| assert!(**w >= 0.0)).sum();
    assert!(total > 0.0, "pick over all-zero weights");
    let target = r.clamp(0.0, 1.0) * total;
    let mut cum = 0.0;
    for (i, w) in weights.iter().enumerate() {
        cum += w;
        if target < cum {
            return i;
        }
    }
    weights.len() - 1
}

/// Priority-weighted, load-aware placement. Deterministic per `seed`.
pub fn place_tenants(specs: &[TenantSpec], ngroups: usize, seed: u64) -> Placement {
    assert!(specs.iter().all(|s| s.span <= ngroups));
    let mut rng = SplitMix64::new(seed);
    let mut remaining: Vec<usize> = (0..specs.len()).collect();
    let mut order = Vec::with_capacity(specs.len());
    while !remaining.is_empty() {
        let weights: Vec<f64> = remaining.iter().map(|&i| specs[i].priority).collect();
        let k = pick_weighted(&weights, rng.next_f64());
        order.push(remaining.remove(k));
    }
    let mut load = vec![0.0f64; ngroups];
    let mut groups = vec![Vec::new(); specs.len()];
    for &t in &order {
        let spec = &specs[t];
        // the spec's span least-loaded groups, ties broken by group id
        let mut by_load: Vec<usize> = (0..ngroups).collect();
        by_load.sort_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)));
        let mut chosen: Vec<GroupId> = by_load[..spec.span].iter().map(|&g| GroupId(g)).collect();
        chosen.sort_by_key(|g| g.0);
        for g in &chosen {
            load[g.0] += spec.work_per_group();
        }
        groups[t] = chosen;
    }
    Placement { order, groups }
}

/// Naive static placement: tenant `i` takes the `span` consecutive groups
/// starting at `(i · span) mod ngroups`, in submission order — no priority,
/// no load awareness.
pub fn place_static(specs: &[TenantSpec], ngroups: usize) -> Placement {
    assert!(specs.iter().all(|s| s.span <= ngroups));
    let groups = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let anchor = (i * spec.span) % ngroups;
            let mut g: Vec<GroupId> =
                (0..spec.span).map(|k| GroupId((anchor + k) % ngroups)).collect();
            g.sort_by_key(|g| g.0);
            g
        })
        .collect();
    Placement {
        order: (0..specs.len()).collect(),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_engine::AppKind;

    fn specs() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(AppKind::AdvectBlob, 16, 4, 4.0, 2),
            TenantSpec::new(AppKind::AdvectBlob, 8, 4, 1.0, 1),
            TenantSpec::new(AppKind::AdvectBlob, 16, 4, 4.0, 2),
            TenantSpec::new(AppKind::AdvectBlob, 8, 4, 1.0, 1),
        ]
    }

    #[test]
    fn pick_walks_the_cumulative_distribution() {
        let w = [1.0, 3.0];
        assert_eq!(pick_weighted(&w, 0.0), 0);
        assert_eq!(pick_weighted(&w, 0.24), 0);
        assert_eq!(pick_weighted(&w, 0.26), 1);
        assert_eq!(pick_weighted(&w, 0.999), 1);
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let s = specs();
        assert_eq!(place_tenants(&s, 4, 11), place_tenants(&s, 4, 11));
        // every tenant got its span, all groups valid and distinct
        let p = place_tenants(&s, 4, 11);
        for (t, spec) in s.iter().enumerate() {
            assert_eq!(p.groups[t].len(), spec.span);
            let mut g = p.groups[t].clone();
            g.dedup();
            assert_eq!(g.len(), spec.span);
        }
    }

    #[test]
    fn aware_placement_spreads_load() {
        // two heavy 2-group tenants must not share a group when 4 are free
        let s = specs();
        let p = place_tenants(&s, 4, 5);
        let heavy0 = &p.groups[0];
        let heavy2 = &p.groups[2];
        assert!(heavy0.iter().all(|g| !heavy2.contains(g)), "{p:?}");
    }

    #[test]
    fn static_placement_is_round_robin_and_blind() {
        let s = specs();
        let p = place_static(&s, 4);
        assert_eq!(p.order, vec![0, 1, 2, 3]);
        assert_eq!(p.groups[0], vec![GroupId(0), GroupId(1)]);
        assert_eq!(p.groups[1], vec![GroupId(1)]);
    }
}
