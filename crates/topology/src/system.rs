//! Distributed-system description: processors, groups, and the links between
//! them.
//!
//! Following §4.1 of the paper, a **group** is a set of processors with the
//! same performance sharing an intra-connected (dedicated) network — a
//! shared-memory machine, an MPP, or a workstation cluster. A **distributed
//! system** is two or more groups joined by (typically shared) inter-group
//! links. Communication within a group is *local*; between groups it is
//! *remote*.

use crate::link::Link;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// Global processor index (dense, `0..nprocs`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ProcId(pub usize);

/// Group index (dense, `0..ngroups`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GroupId(pub usize);

/// One processor of the distributed system.
#[derive(Clone, Debug)]
pub struct Processor {
    pub id: ProcId,
    pub group: GroupId,
    /// Relative performance weight (1.0 = reference processor). The paper's
    /// mechanism for processor heterogeneity (§4): workload is distributed
    /// proportionally to these weights.
    pub weight: f64,
}

/// A homogeneous set of processors sharing a dedicated intra-network.
#[derive(Clone, Debug)]
pub struct Group {
    pub id: GroupId,
    pub name: String,
    pub procs: Vec<ProcId>,
    pub intra: Link,
}

impl Group {
    /// Number of processors in the group (`n_g`).
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }
}

/// Hierarchical inter-group connectivity for federation-scale systems:
/// instead of an explicit link per group pair (O(G²) storage, and O(G²)
/// builder work), each group carries a `(region, site)` coordinate and the
/// link between two groups is resolved from the lowest tier they share —
/// the site LAN when co-located, the region MAN across sites, and the
/// per-region-pair WAN across regions. Links are stateless (background
/// traffic is a pure function of time and seed), so sharing one [`Link`]
/// across every pair it serves is sound; the simulator still contends
/// traffic per group pair.
#[derive(Clone, Debug)]
pub struct TierTopology {
    /// `(region, site)` coordinate per group, indexed by group id.
    pub coords: Vec<(usize, usize)>,
    /// LAN joining the groups of one site, keyed by `(region, site)`.
    pub site_links: BTreeMap<(usize, usize), Link>,
    /// MAN joining the sites of one region, keyed by region.
    pub region_links: BTreeMap<usize, Link>,
    /// WAN joining two regions, keyed by unordered `(min, max)` region pair.
    pub wan_links: BTreeMap<(usize, usize), Link>,
}

impl TierTopology {
    /// The link serving the pair of groups `a`/`b` (panics when the needed
    /// tier link is missing — [`SystemBuilder::build`] validates coverage).
    pub fn link_for(&self, a: usize, b: usize) -> &Link {
        let (ra, sa) = self.coords[a];
        let (rb, sb) = self.coords[b];
        if ra == rb && sa == sb {
            self.site_links
                .get(&(ra, sa))
                .unwrap_or_else(|| panic!("no site link for region {ra} site {sa}"))
        } else if ra == rb {
            self.region_links
                .get(&ra)
                .unwrap_or_else(|| panic!("no region link for region {ra}"))
        } else {
            let key = (ra.min(rb), ra.max(rb));
            self.wan_links
                .get(&key)
                .unwrap_or_else(|| panic!("no wan link for regions {key:?}"))
        }
    }
}

/// A distributed system: groups of processors plus inter-group links.
#[derive(Clone, Debug)]
pub struct DistributedSystem {
    groups: Vec<Group>,
    procs: Vec<Processor>,
    /// Inter-group links keyed by unordered `(min, max)` group pair.
    inter: BTreeMap<(usize, usize), Link>,
    /// Tiered connectivity backing the pairs `inter` does not list
    /// (federation-scale systems; absent for the explicit-map presets).
    tiers: Option<TierTopology>,
}

impl DistributedSystem {
    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Number of groups.
    pub fn ngroups(&self) -> usize {
        self.groups.len()
    }

    /// All processors.
    pub fn procs(&self) -> &[Processor] {
        &self.procs
    }

    /// All groups.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// A processor by id.
    pub fn proc(&self, p: ProcId) -> &Processor {
        &self.procs[p.0]
    }

    /// A group by id.
    pub fn group(&self, g: GroupId) -> &Group {
        &self.groups[g.0]
    }

    /// The group a processor belongs to.
    pub fn group_of(&self, p: ProcId) -> GroupId {
        self.procs[p.0].group
    }

    /// Are two processors in the same group (local communication)?
    pub fn same_group(&self, a: ProcId, b: ProcId) -> bool {
        self.group_of(a) == self.group_of(b)
    }

    /// The link used between two processors: the source group's intra link
    /// when they are co-located, otherwise the inter-group link.
    pub fn link_between(&self, a: ProcId, b: ProcId) -> &Link {
        let ga = self.group_of(a);
        let gb = self.group_of(b);
        if ga == gb {
            &self.groups[ga.0].intra
        } else {
            self.inter_link(ga, gb)
        }
    }

    /// The inter-group link between `a` and `b` (panics if absent or a == b).
    /// An explicit per-pair link wins; otherwise the tier hierarchy resolves
    /// the pair to its lowest shared tier.
    pub fn inter_link(&self, a: GroupId, b: GroupId) -> &Link {
        assert_ne!(a, b, "no inter link within a group");
        let key = (a.0.min(b.0), a.0.max(b.0));
        if let Some(l) = self.inter.get(&key) {
            return l;
        }
        if let Some(tiers) = &self.tiers {
            return tiers.link_for(a.0, b.0);
        }
        panic!("groups {a:?} and {b:?} are not connected")
    }

    /// The tier hierarchy, when this system uses one.
    pub fn tiers(&self) -> Option<&TierTopology> {
        self.tiers.as_ref()
    }

    /// Point-to-point transfer time at `t` for `bytes` from `a` to `b`
    /// (zero when `a == b`: same address space).
    pub fn transfer_time(&self, t: SimTime, a: ProcId, b: ProcId, bytes: u64) -> SimTime {
        if a == b {
            return SimTime::ZERO;
        }
        self.link_between(a, b).transfer_time(t, bytes)
    }

    /// Total relative compute power `P = Σ weights` (the denominator of the
    /// paper's efficiency metric).
    pub fn total_power(&self) -> f64 {
        self.procs.iter().map(|p| p.weight).sum()
    }

    /// Group compute power `n_g · p_g` — the proportional share used by the
    /// global redistribution phase.
    pub fn group_power(&self, g: GroupId) -> f64 {
        self.groups[g.0]
            .procs
            .iter()
            .map(|p| self.procs[p.0].weight)
            .sum()
    }

    /// Processor ids of a group.
    pub fn procs_in(&self, g: GroupId) -> &[ProcId] {
        &self.groups[g.0].procs
    }

    /// Short description like `"ANL(4) + NCSA(4) over MREN OC-3"`. A
    /// federation-scale system is summarized rather than enumerated.
    pub fn describe(&self) -> String {
        if self.groups.len() > 8 {
            let regions = self
                .tiers
                .as_ref()
                .map(|t| {
                    let mut rs: Vec<usize> = t.coords.iter().map(|&(r, _)| r).collect();
                    rs.sort_unstable();
                    rs.dedup();
                    rs.len()
                })
                .unwrap_or(0);
            return if regions > 0 {
                format!(
                    "{} groups / {} procs in {} regions",
                    self.groups.len(),
                    self.procs.len(),
                    regions
                )
            } else {
                format!("{} groups / {} procs", self.groups.len(), self.procs.len())
            };
        }
        let parts: Vec<String> = self
            .groups
            .iter()
            .map(|g| format!("{}({})", g.name, g.nprocs()))
            .collect();
        let link = self
            .inter
            .values()
            .next()
            .map(|l| format!(" over {}", l.name))
            .unwrap_or_default();
        format!("{}{}", parts.join(" + "), link)
    }
}

/// Builder for [`DistributedSystem`].
#[derive(Default)]
pub struct SystemBuilder {
    groups: Vec<(String, usize, f64, Link)>,
    inter: Vec<(usize, usize, Link)>,
    tiers: Option<TierTopology>,
}

impl SystemBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a group of `n` processors named `name`, each of relative
    /// performance `weight`, joined by `intra`.
    pub fn group(mut self, name: &str, n: usize, weight: f64, intra: Link) -> Self {
        assert!(n > 0, "empty group");
        assert!(weight > 0.0, "non-positive weight");
        self.groups.push((name.to_string(), n, weight, intra));
        self
    }

    /// Connect groups `a` and `b` (indices in insertion order) with `link`.
    pub fn connect(mut self, a: usize, b: usize, link: Link) -> Self {
        self.inter.push((a, b, link));
        self
    }

    /// Back the system with a tier hierarchy: pairs without an explicit
    /// [`connect`](Self::connect) resolve through `tiers` instead, and the
    /// all-pairs completeness requirement is waived (the hierarchy must
    /// still cover every unconnected pair — `build` validates that).
    pub fn tiers(mut self, tiers: TierTopology) -> Self {
        self.tiers = Some(tiers);
        self
    }

    /// Finalize. Panics if any pair of groups lacks a link.
    pub fn build(self) -> DistributedSystem {
        assert!(!self.groups.is_empty(), "no groups");
        let mut procs = Vec::new();
        let mut groups = Vec::new();
        for (gi, (name, n, weight, intra)) in self.groups.into_iter().enumerate() {
            let gid = GroupId(gi);
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                let pid = ProcId(procs.len());
                procs.push(Processor {
                    id: pid,
                    group: gid,
                    weight,
                });
                ids.push(pid);
            }
            groups.push(Group {
                id: gid,
                name,
                procs: ids,
                intra,
            });
        }
        let mut inter = BTreeMap::new();
        for (a, b, link) in self.inter {
            assert!(a < groups.len() && b < groups.len() && a != b, "bad connect({a},{b})");
            inter.insert((a.min(b), a.max(b)), link);
        }
        // every distinct pair must be connected: explicitly, or through
        // the tier hierarchy when one is configured
        if let Some(tiers) = &self.tiers {
            assert_eq!(
                tiers.coords.len(),
                groups.len(),
                "tier coords must cover every group"
            );
            for a in 0..groups.len() {
                for b in (a + 1)..groups.len() {
                    if !inter.contains_key(&(a, b)) {
                        // panics with the missing tier if uncovered
                        let _ = tiers.link_for(a, b);
                    }
                }
            }
        } else {
            for a in 0..groups.len() {
                for b in (a + 1)..groups.len() {
                    assert!(
                        inter.contains_key(&(a, b)),
                        "groups {a} and {b} are not connected"
                    );
                }
            }
        }
        DistributedSystem {
            groups,
            procs,
            inter,
            tiers: self.tiers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn two_group_system() -> DistributedSystem {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 3e8);
        let wan = Link::dedicated("wan", SimTime::from_millis(5), 2e7);
        SystemBuilder::new()
            .group("A", 4, 1.0, intra.clone())
            .group("B", 2, 2.0, intra)
            .connect(0, 1, wan)
            .build()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let s = two_group_system();
        assert_eq!(s.nprocs(), 6);
        assert_eq!(s.ngroups(), 2);
        assert_eq!(s.group_of(ProcId(0)), GroupId(0));
        assert_eq!(s.group_of(ProcId(3)), GroupId(0));
        assert_eq!(s.group_of(ProcId(4)), GroupId(1));
        assert_eq!(s.procs_in(GroupId(1)), &[ProcId(4), ProcId(5)]);
    }

    #[test]
    fn powers() {
        let s = two_group_system();
        assert_eq!(s.group_power(GroupId(0)), 4.0);
        assert_eq!(s.group_power(GroupId(1)), 4.0);
        assert_eq!(s.total_power(), 8.0);
    }

    #[test]
    fn link_selection_local_vs_remote() {
        let s = two_group_system();
        assert_eq!(s.link_between(ProcId(0), ProcId(1)).name, "intra");
        assert_eq!(s.link_between(ProcId(0), ProcId(4)).name, "wan");
        assert!(s.same_group(ProcId(0), ProcId(3)));
        assert!(!s.same_group(ProcId(3), ProcId(4)));
    }

    #[test]
    fn transfer_times() {
        let s = two_group_system();
        // self transfer free
        assert_eq!(
            s.transfer_time(SimTime::ZERO, ProcId(2), ProcId(2), 1 << 20),
            SimTime::ZERO
        );
        let local = s.transfer_time(SimTime::ZERO, ProcId(0), ProcId(1), 1 << 20);
        let remote = s.transfer_time(SimTime::ZERO, ProcId(0), ProcId(4), 1 << 20);
        assert!(remote > local, "remote {remote:?} <= local {local:?}");
    }

    #[test]
    #[should_panic]
    fn unconnected_groups_panic() {
        let intra = Link::dedicated("intra", SimTime::ZERO, 1e9);
        let _ = SystemBuilder::new()
            .group("A", 1, 1.0, intra.clone())
            .group("B", 1, 1.0, intra)
            .build();
    }

    fn tiny_tiers() -> TierTopology {
        let mut site_links = BTreeMap::new();
        site_links.insert((0, 0), Link::dedicated("lan00", SimTime::from_micros(100), 1e8));
        site_links.insert((0, 1), Link::dedicated("lan01", SimTime::from_micros(100), 1e8));
        site_links.insert((1, 0), Link::dedicated("lan10", SimTime::from_micros(100), 1e8));
        let mut region_links = BTreeMap::new();
        region_links.insert(0, Link::dedicated("man0", SimTime::from_millis(1), 5e7));
        region_links.insert(1, Link::dedicated("man1", SimTime::from_millis(1), 5e7));
        let mut wan_links = BTreeMap::new();
        wan_links.insert((0, 1), Link::dedicated("wan01", SimTime::from_millis(6), 2e7));
        TierTopology {
            // groups 0,1 share region 0 / site 0; group 2 is region 0 /
            // site 1; group 3 is region 1 / site 0
            coords: vec![(0, 0), (0, 0), (0, 1), (1, 0)],
            site_links,
            region_links,
            wan_links,
        }
    }

    fn tiered_system() -> DistributedSystem {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 3e8);
        SystemBuilder::new()
            .group("G0", 2, 1.0, intra.clone())
            .group("G1", 2, 1.0, intra.clone())
            .group("G2", 2, 1.0, intra.clone())
            .group("G3", 2, 1.0, intra)
            .tiers(tiny_tiers())
            .build()
    }

    #[test]
    fn tiers_resolve_lowest_shared_tier() {
        let s = tiered_system();
        assert_eq!(s.inter_link(GroupId(0), GroupId(1)).name, "lan00");
        assert_eq!(s.inter_link(GroupId(0), GroupId(2)).name, "man0");
        assert_eq!(s.inter_link(GroupId(2), GroupId(3)).name, "wan01");
        assert_eq!(s.inter_link(GroupId(3), GroupId(0)).name, "wan01");
    }

    #[test]
    fn explicit_connect_overrides_tiers() {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 3e8);
        let direct = Link::dedicated("direct", SimTime::from_micros(50), 2e8);
        let s = SystemBuilder::new()
            .group("G0", 1, 1.0, intra.clone())
            .group("G1", 1, 1.0, intra.clone())
            .group("G2", 1, 1.0, intra.clone())
            .group("G3", 1, 1.0, intra)
            .connect(0, 1, direct)
            .tiers(tiny_tiers())
            .build();
        assert_eq!(s.inter_link(GroupId(0), GroupId(1)).name, "direct");
        assert_eq!(s.inter_link(GroupId(0), GroupId(2)).name, "man0");
    }

    #[test]
    #[should_panic]
    fn tiers_missing_coverage_panics() {
        let intra = Link::dedicated("intra", SimTime::ZERO, 1e9);
        let mut tiers = tiny_tiers();
        tiers.wan_links.clear(); // groups 0..3 span regions 0 and 1
        let _ = SystemBuilder::new()
            .group("G0", 1, 1.0, intra.clone())
            .group("G1", 1, 1.0, intra.clone())
            .group("G2", 1, 1.0, intra.clone())
            .group("G3", 1, 1.0, intra)
            .tiers(tiers)
            .build();
    }

    #[test]
    fn describe_mentions_groups_and_link() {
        let s = two_group_system();
        let d = s.describe();
        assert!(d.contains("A(4)"));
        assert!(d.contains("B(2)"));
        assert!(d.contains("wan"));
    }
}
