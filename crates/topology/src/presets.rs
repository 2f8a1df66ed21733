//! Testbed presets mirroring the systems of the paper's evaluation (§3, §5).
//!
//! * 250 MHz R10000 SGI Origin2000 machines at ANL and NCSA;
//! * a fiber Gigabit-Ethernet LAN joining two machines at ANL;
//! * the MREN ATM OC-3 WAN joining ANL and NCSA.
//!
//! Both experiment networks were *shared*; the presets attach bursty
//! background-traffic models with magnitudes chosen to match the paper's
//! observation that remote communication dominates on the WAN.

use crate::link::Link;
use crate::system::{DistributedSystem, SystemBuilder, TierTopology};
use crate::time::SimTime;
use crate::traffic::TrafficModel;
use base::rng::splitmix64;
use std::collections::BTreeMap;

/// Origin2000 intra-machine interconnect (CrayLink-class): a dedicated,
/// low-latency, high-bandwidth link. MPI-visible numbers, not raw hardware.
pub fn origin2000_intra() -> Link {
    Link::dedicated("Origin2000", SimTime::from_micros(15), 250e6)
}

/// Fiber Gigabit Ethernet LAN between two machines at ANL (shared).
pub fn gige_lan(seed: u64) -> Link {
    Link::shared(
        "GigE LAN",
        SimTime::from_micros(120),
        125e6, // 1 Gb/s
        TrafficModel::Bursty {
            low: 0.10,
            high: 0.55,
            p_on: 0.35,
            slot: SimTime::from_secs(2),
            seed,
        },
    )
}

/// MREN ATM OC-3 WAN between ANL and NCSA (shared, high latency).
pub fn mren_oc3_wan(seed: u64) -> Link {
    Link::shared(
        "MREN OC-3",
        SimTime::from_millis(6),
        19.375e6, // 155 Mb/s
        TrafficModel::Bursty {
            low: 0.25,
            high: 0.75,
            p_on: 0.45,
            slot: SimTime::from_secs(5),
            seed,
        },
    )
}

/// A single parallel machine of `n` Origin2000 processors — the paper's
/// "parallel system" baseline in §3 (one group, intra network only).
pub fn single_origin2000(n: usize) -> DistributedSystem {
    SystemBuilder::new()
        .group("ANL", n, 1.0, origin2000_intra())
        .build()
}

/// Two Origin2000s at ANL over the shared Gigabit LAN (`AMR64` testbed).
pub fn anl_lan_pair(na: usize, nb: usize, seed: u64) -> DistributedSystem {
    SystemBuilder::new()
        .group("ANL-1", na, 1.0, origin2000_intra())
        .group("ANL-2", nb, 1.0, origin2000_intra())
        .connect(0, 1, gige_lan(seed))
        .build()
}

/// ANL + NCSA Origin2000s over the MREN OC-3 WAN (`ShockPool3D` testbed).
pub fn anl_ncsa_wan(na: usize, nb: usize, seed: u64) -> DistributedSystem {
    SystemBuilder::new()
        .group("ANL", na, 1.0, origin2000_intra())
        .group("NCSA", nb, 1.0, origin2000_intra())
        .connect(0, 1, mren_oc3_wan(seed))
        .build()
}

/// Three-site extension: ANL + NCSA over MREN OC-3 plus a third site
/// reachable from both over a slower, busier vBNS-class path. Exercises the
/// multi-group paths of the DLB (the paper's scheme generalizes beyond two
/// groups).
pub fn three_site_wan(na: usize, nb: usize, nc: usize, seed: u64) -> DistributedSystem {
    let slow_wan = |seed: u64| {
        Link::shared(
            "vBNS",
            SimTime::from_millis(12),
            12e6,
            TrafficModel::Bursty {
                low: 0.3,
                high: 0.8,
                p_on: 0.5,
                slot: SimTime::from_secs(4),
                seed,
            },
        )
    };
    SystemBuilder::new()
        .group("ANL", na, 1.0, origin2000_intra())
        .group("NCSA", nb, 1.0, origin2000_intra())
        .group("SDSC", nc, 1.0, origin2000_intra())
        .connect(0, 1, mren_oc3_wan(seed))
        .connect(0, 2, slow_wan(seed ^ 0x5555))
        .connect(1, 2, slow_wan(seed ^ 0xAAAA))
        .build()
}

/// ANL + NCSA WAN whose inter-link carries a seeded fault schedule
/// (outages, blackholes, slowdowns, large-message drops) on top of the
/// usual bursty background traffic — the robustness testbed.
pub fn faulty_anl_ncsa_wan(
    na: usize,
    nb: usize,
    seed: u64,
    horizon: SimTime,
) -> DistributedSystem {
    use crate::faults::FaultSchedule;
    let wan = mren_oc3_wan(seed).with_faults(FaultSchedule::generate(
        seed,
        horizon,
        SimTime::from_secs(60),
        SimTime::from_secs(8),
    ));
    SystemBuilder::new()
        .group("ANL", na, 1.0, origin2000_intra())
        .group("NCSA", nb, 1.0, origin2000_intra())
        .connect(0, 1, wan)
        .build()
}

/// Groups per site and sites per region of the [`federation`] generator —
/// also the arity of the hierarchical decision tree's natural alignment:
/// group ids are assigned site-major, so a contiguous id range is a site
/// (or a region) and subtree traffic stays on the cheap low tiers.
pub const FEDERATION_FANOUT: usize = 8;

/// Metro-area network joining the sites of one region: an order of
/// magnitude slower than the site LAN, an order faster than the WAN.
fn metro_man(seed: u64) -> Link {
    Link::shared(
        "Metro MAN",
        SimTime::from_millis(1),
        50e6,
        TrafficModel::Bursty {
            low: 0.15,
            high: 0.60,
            p_on: 0.40,
            slot: SimTime::from_secs(3),
            seed,
        },
    )
}

/// Federation-scale preset (seeded, deterministic): `ngroups` groups of
/// `procs_per_group` processors arranged site→region→federation, with
/// [`FEDERATION_FANOUT`] groups per site and sites per region. Every site
/// shares a GigE-class LAN, every region a metro MAN, and every region
/// pair an OC-3-class WAN — all with seeded bursty background traffic —
/// and each group's processors carry a heterogeneous weight in
/// [0.75, 1.25) derived from the seed. Group ids are site-major, so a
/// contiguous id range maps to a site or region and the storage stays
/// O(G) via [`TierTopology`] instead of an O(G²) explicit link map.
pub fn federation(ngroups: usize, procs_per_group: usize, seed: u64) -> DistributedSystem {
    assert!(ngroups > 0 && procs_per_group > 0, "empty federation");
    let mut coords = Vec::with_capacity(ngroups);
    let mut site_links = BTreeMap::new();
    let mut region_links = BTreeMap::new();
    let mut wan_links = BTreeMap::new();
    let mut b = SystemBuilder::new();
    for g in 0..ngroups {
        let site_global = g / FEDERATION_FANOUT;
        let region = site_global / FEDERATION_FANOUT;
        let site = site_global % FEDERATION_FANOUT;
        coords.push((region, site));
        site_links.entry((region, site)).or_insert_with(|| {
            gige_lan(splitmix64(seed ^ 0x5349_5445).wrapping_add(site_global as u64))
        });
        region_links.entry(region).or_insert_with(|| {
            metro_man(splitmix64(seed ^ 0x5245_4749).wrapping_add(region as u64))
        });
        let weight = 0.75 + 0.5 * (splitmix64(seed.wrapping_add(g as u64)) % 1000) as f64 / 1000.0;
        b = b.group(
            &format!("R{region}S{site}G{g}"),
            procs_per_group,
            weight,
            origin2000_intra(),
        );
    }
    let nregions = coords.iter().map(|&(r, _)| r).max().unwrap_or(0) + 1;
    for ra in 0..nregions {
        for rb in (ra + 1)..nregions {
            wan_links.insert(
                (ra, rb),
                mren_oc3_wan(splitmix64(seed ^ 0x5741_4E00).wrapping_add((ra * 1024 + rb) as u64)),
            );
        }
    }
    b.tiers(TierTopology {
        coords,
        site_links,
        region_links,
        wan_links,
    })
    .build()
}

/// Heterogeneous extension: `nb` processors in group B run at `rel` times the
/// speed of group A's (exercises the weight-proportional code path the paper
/// describes but could not test on its homogeneous testbeds).
pub fn heterogeneous_wan(na: usize, nb: usize, rel: f64, seed: u64) -> DistributedSystem {
    SystemBuilder::new()
        .group("Site-A", na, 1.0, origin2000_intra())
        .group("Site-B", nb, rel, origin2000_intra())
        .connect(0, 1, mren_oc3_wan(seed))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{GroupId, ProcId};

    #[test]
    fn wan_slower_than_lan_slower_than_intra() {
        let t = SimTime::ZERO;
        let bytes = 1 << 20;
        let intra = origin2000_intra().transfer_time(t, bytes);
        let lan = gige_lan(1).transfer_time(t, bytes);
        let wan = mren_oc3_wan(1).transfer_time(t, bytes);
        assert!(intra < lan, "{intra:?} vs {lan:?}");
        assert!(lan < wan, "{lan:?} vs {wan:?}");
    }

    #[test]
    fn preset_systems_shape() {
        let s = anl_ncsa_wan(4, 4, 3);
        assert_eq!(s.nprocs(), 8);
        assert_eq!(s.ngroups(), 2);
        assert_eq!(s.inter_link(GroupId(0), GroupId(1)).name, "MREN OC-3");
        let p = single_origin2000(8);
        assert_eq!(p.ngroups(), 1);
        assert_eq!(p.nprocs(), 8);
    }

    #[test]
    fn heterogeneous_weights() {
        let s = heterogeneous_wan(4, 4, 2.0, 0);
        assert_eq!(s.group_power(GroupId(0)), 4.0);
        assert_eq!(s.group_power(GroupId(1)), 8.0);
        assert_eq!(s.proc(ProcId(6)).weight, 2.0);
        assert_eq!(s.total_power(), 12.0);
    }

    #[test]
    fn faulty_wan_preset_has_schedule() {
        let s = faulty_anl_ncsa_wan(2, 2, 9, SimTime::from_secs(600));
        let link = s.inter_link(GroupId(0), GroupId(1));
        assert!(!link.faults.is_quiet(), "seeded schedule should fault");
        // deterministic: same seed, same schedule
        let s2 = faulty_anl_ncsa_wan(2, 2, 9, SimTime::from_secs(600));
        assert_eq!(link.faults, s2.inter_link(GroupId(0), GroupId(1)).faults);
    }

    #[test]
    fn federation_shape_and_tiers() {
        let s = federation(130, 4, 7);
        assert_eq!(s.ngroups(), 130);
        assert_eq!(s.nprocs(), 520);
        // same site → LAN, same region / different site → MAN,
        // different region → WAN (ids are site-major, fanout 8)
        assert_eq!(s.inter_link(GroupId(0), GroupId(7)).name, "GigE LAN");
        assert_eq!(s.inter_link(GroupId(0), GroupId(8)).name, "Metro MAN");
        assert_eq!(s.inter_link(GroupId(0), GroupId(64)).name, "MREN OC-3");
        assert_eq!(s.inter_link(GroupId(129), GroupId(0)).name, "MREN OC-3");
    }

    #[test]
    fn federation_deterministic_and_heterogeneous() {
        let a = federation(20, 2, 11);
        let b = federation(20, 2, 11);
        let wa: Vec<f64> = a.procs().iter().map(|p| p.weight).collect();
        let wb: Vec<f64> = b.procs().iter().map(|p| p.weight).collect();
        assert_eq!(wa, wb, "same seed, same weights");
        let min = wa.iter().cloned().fold(f64::MAX, f64::min);
        let max = wa.iter().cloned().fold(0.0, f64::max);
        assert!((0.75..1.25).contains(&min));
        assert!(max < 1.25 && max > min, "weights heterogeneous: {min}..{max}");
        let c = federation(20, 2, 12);
        let wc: Vec<f64> = c.procs().iter().map(|p| p.weight).collect();
        assert_ne!(wa, wc, "different seed, different weights");
    }

    #[test]
    fn shared_links_fluctuate() {
        let l = mren_oc3_wan(11);
        let betas: Vec<f64> = (0..40)
            .map(|i| l.beta(SimTime::from_secs(i * 5)))
            .collect();
        let min = betas.iter().cloned().fold(f64::MAX, f64::min);
        let max = betas.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.5, "WAN beta should vary: {min} .. {max}");
    }
}
