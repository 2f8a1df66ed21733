//! The four workloads: how each builds its simulated system and run
//! configuration, and the outcome every pass reduces to.

use crate::json::{obj, Value};
use metrics::PhaseWall;
use samr_engine::{AppKind, RunConfig, RunResult, Scheme};
use telemetry::Telemetry;
use tenants::{ServiceResult, TenantServiceConfig, TenantSpec};
use topology::{presets, DistributedSystem, Link, SimTime, SystemBuilder, TrafficModel};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ShockWan,
    Amr64Lan,
    FedG64,
    Tenants6g,
}

pub const ALL: [Workload; 4] = [
    Workload::ShockWan,
    Workload::Amr64Lan,
    Workload::FedG64,
    Workload::Tenants6g,
];

/// `Full` is what the benchmark reports; `Tiny` is the self-test's size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// The sizes a workload actually ran at (written into every output).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    pub n0: i64,
    pub levels: usize,
    pub steps: usize,
    /// Timed repeats after the warm-up run: a fixed count per workload, so
    /// that two sets of runs compare medians over equally many samples.
    pub repeats: usize,
    /// Whether every run starts from a trimmed heap (`host::trim_heap`).
    /// Chosen per workload from measurements, see README "End-to-end
    /// metrics": without it the resident set of the deep-hierarchy workloads
    /// grows from run to run and the first repeats pay for it; with it
    /// `fed_g64`, whose heap does not grow, re-faults 785 MiB per run and
    /// gets 15 % slower and three times noisier.
    pub fresh_heap: bool,
    pub groups: usize,
    pub procs_per_group: usize,
    /// `tenants_6g` only: tenant count and the small (1-group) tenants' n0.
    pub tenants: usize,
    pub small_n0: i64,
}

impl Sizes {
    pub fn to_json(&self) -> Value {
        obj([
            ("n0", (self.n0 as u64).into()),
            ("levels", self.levels.into()),
            ("steps", self.steps.into()),
            ("repeats", self.repeats.into()),
            ("fresh_heap", self.fresh_heap.into()),
            ("groups", self.groups.into()),
            ("procs_per_group", self.procs_per_group.into()),
            ("tenants", self.tenants.into()),
            ("small_n0", (self.small_n0 as u64).into()),
        ])
    }
}

/// SplitMix64: derives decorrelated seeds from one.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What every generated input other than the link capacities is drawn from:
/// the Amr64 initial conditions, the background-traffic streams, the
/// federation's weights and links, tenant admission. A constant, because the
/// benchmark driver judges a metric's spread over runs with *different*
/// `--seed`s against its bound: drawn from `--seed`, these inputs move the
/// work by 5–10 % and `tenants_6g`'s simulated time by 8 %, which no bound
/// that still catches a regression could cover (see README, "Seeds").
pub const INPUT_SEED: u64 = 42;

fn traffic_seed() -> u64 {
    mix(INPUT_SEED ^ 0x0074_7261_6666_6963)
}

/// How far `--seed` moves a shared link's capacity from nominal (± share):
/// enough that simulated time differs from seed to seed in its low digits,
/// too little to change what a workload is.
pub const LINK_JITTER: f64 = 0.005;

/// `sys` with the capacity of every shared (inter-group) link drawn within
/// ± [`LINK_JITTER`] of nominal from `seed`; groups, weights, latencies and
/// background-traffic streams are kept. This is all `--seed` does.
/// (`DistributedSystem` has no setters, hence the rebuild; it is kept out of
/// `setup_s`.)
pub fn jitter_links(sys: &DistributedSystem, seed: u64) -> DistributedSystem {
    let seed = mix(seed ^ 0x006c_696e_6b73);
    let jittered = |link: &Link, salt: u64| {
        let u = (mix(seed ^ salt) >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let mut link = link.clone();
        link.bandwidth *= 1.0 + LINK_JITTER * (2.0 * u - 1.0);
        link
    };
    let mut b = SystemBuilder::new();
    for g in sys.groups() {
        b = b.group(
            &g.name,
            g.nprocs(),
            sys.proc(g.procs[0]).weight,
            g.intra.clone(),
        );
    }
    match sys.tiers() {
        Some(tiers) => {
            let mut t = tiers.clone();
            let links = t
                .site_links
                .values_mut()
                .chain(t.region_links.values_mut())
                .chain(t.wan_links.values_mut());
            for (i, link) in links.enumerate() {
                *link = jittered(link, 0x1_0000 + i as u64);
            }
            b = b.tiers(t);
        }
        None => {
            let n = sys.ngroups();
            for a in 0..n {
                for c in (a + 1)..n {
                    let link = sys.inter_link(topology::GroupId(a), topology::GroupId(c));
                    b = b.connect(a, c, jittered(link, (a * n + c) as u64));
                }
            }
        }
    }
    b.build()
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShockWan => "shock_wan",
            Workload::Amr64Lan => "amr64_lan",
            Workload::FedG64 => "fed_g64",
            Workload::Tenants6g => "tenants_6g",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_service(self) -> bool {
        self == Workload::Tenants6g
    }

    pub fn app(self) -> AppKind {
        match self {
            Workload::ShockWan => AppKind::ShockPool3D,
            Workload::Amr64Lan | Workload::FedG64 => AppKind::Amr64,
            // the probe job replays run on is tenant 0's
            Workload::Tenants6g => AppKind::ShockPool3D,
        }
    }

    pub fn sizes(self, scale: Scale) -> Sizes {
        let full = scale == Scale::Full;
        match self {
            Workload::ShockWan => Sizes {
                n0: if full { 32 } else { 12 },
                levels: if full { 4 } else { 3 },
                steps: if full { 6 } else { 2 },
                repeats: 5,
                fresh_heap: true,
                groups: 2,
                procs_per_group: 2,
                tenants: 0,
                small_n0: 0,
            },
            Workload::Amr64Lan => Sizes {
                n0: if full { 32 } else { 12 },
                levels: if full { 4 } else { 3 },
                steps: if full { 20 } else { 2 },
                repeats: if full { 10 } else { 5 },
                fresh_heap: true,
                groups: 2,
                procs_per_group: 2,
                tenants: 0,
                small_n0: 0,
            },
            Workload::FedG64 => Sizes {
                n0: if full { 128 } else { 16 },
                levels: 2,
                steps: if full { 6 } else { 2 },
                repeats: 5,
                fresh_heap: false,
                groups: if full { 64 } else { 16 },
                procs_per_group: if full { 32 } else { 2 },
                tenants: 0,
                small_n0: 0,
            },
            Workload::Tenants6g => Sizes {
                n0: if full { 16 } else { 8 },
                levels: 3,
                steps: if full { 10 } else { 2 },
                repeats: if full { 15 } else { 5 },
                fresh_heap: true,
                groups: 6,
                procs_per_group: if full { 4 } else { 2 },
                tenants: if full { 8 } else { 4 },
                small_n0: if full { 10 } else { 6 },
            },
        }
    }

    /// The workload at `scale`, with `--seed` `seed`.
    pub fn job(self, scale: Scale, seed: u64) -> Job {
        Job {
            workload: self,
            sizes: self.sizes(scale),
            seed,
        }
    }
}

/// One workload at fixed sizes and seed: everything a pass needs to build
/// its inputs.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub workload: Workload,
    pub sizes: Sizes,
    pub seed: u64,
}

impl Job {
    /// The topology preset, before `--seed` touches it. For `tenants_6g`
    /// this is the shared substrate.
    pub fn preset(&self) -> DistributedSystem {
        let sizes = &self.sizes;
        let ppg = sizes.procs_per_group;
        match self.workload {
            Workload::ShockWan => presets::anl_ncsa_wan(ppg, ppg, traffic_seed()),
            Workload::Amr64Lan => presets::anl_lan_pair(ppg, ppg, traffic_seed()),
            Workload::FedG64 => presets::federation(sizes.groups, ppg, INPUT_SEED),
            Workload::Tenants6g => congested_substrate(sizes.groups, ppg, traffic_seed()),
        }
    }

    /// Called before every run the harness makes of this job.
    pub fn trim_heap(&self) {
        if self.sizes.fresh_heap {
            crate::host::trim_heap();
        }
    }

    /// The simulated system of this job: the preset with its links jittered.
    pub fn build_system(&self) -> DistributedSystem {
        jitter_links(&self.preset(), self.seed)
    }

    /// Run configuration of the single-driver workloads; for `tenants_6g`,
    /// of the probe job (tenant 0's configuration run alone on a shared
    /// view of the substrate) that the oracle and the replays use.
    pub fn run_config(&self, telemetry: Telemetry) -> RunConfig {
        let sizes = &self.sizes;
        let mut cfg = RunConfig::new(
            self.workload.app(),
            sizes.n0,
            sizes.steps,
            Scheme::distributed_default(),
        );
        cfg.max_levels = sizes.levels;
        cfg.seed = INPUT_SEED; // the initial conditions
        cfg.telemetry = telemetry;
        match self.workload {
            // enough level-0 boxes that every processor owns work
            Workload::FedG64 => cfg.max_box_cells = 512,
            // what TenantService::new gives tenant 0
            Workload::Tenants6g => cfg.seed = self.service_config(Telemetry::null()).seed,
            _ => {}
        }
        cfg
    }

    /// The tenant mix of `tenants_6g`: 2-group ShockPool3D / Amr64 jobs
    /// alternating with 1-group AdvectBlob fillers.
    pub fn tenant_mix(&self) -> Vec<TenantSpec> {
        let sizes = &self.sizes;
        let bigs = [AppKind::ShockPool3D, AppKind::Amr64];
        (0..sizes.tenants)
            .map(|i| {
                if i % 2 == 0 {
                    TenantSpec::new(bigs[(i / 2) % 2], sizes.n0 as usize, sizes.steps, 4.0, 2)
                } else {
                    TenantSpec::new(
                        AppKind::AdvectBlob,
                        sizes.small_n0 as usize,
                        sizes.steps,
                        1.0,
                        1,
                    )
                }
            })
            .collect()
    }

    pub fn service_config(&self, telemetry: Telemetry) -> TenantServiceConfig {
        TenantServiceConfig {
            seed: INPUT_SEED, // admission order and per-tenant seeds
            tenant_aware: true,
            telemetry,
            ..TenantServiceConfig::default()
        }
    }
}

/// The `bench --bin tenants` congested scenario: `groups` fully connected
/// sites of `procs` Origin2000-class processors, every pair joined by an
/// OC-3-class WAN link under heavy bursty cross traffic.
pub fn congested_substrate(groups: usize, procs: usize, seed: u64) -> DistributedSystem {
    let link = |s: u64| {
        Link::shared(
            "WAN",
            SimTime::from_millis(6),
            19.375e6,
            TrafficModel::Bursty {
                low: 0.40,
                high: 0.90,
                p_on: 0.60,
                slot: SimTime::from_secs(4).into(),
                seed: s,
            },
        )
    };
    let mut b = SystemBuilder::new();
    for g in 0..groups {
        b = b.group(
            &format!("site-{g}"),
            procs,
            1.0,
            presets::origin2000_intra(),
        );
    }
    for a in 0..groups {
        for c in (a + 1)..groups {
            b = b.connect(a, c, link(seed ^ ((a as u64) << 16) ^ ((c as u64) << 4)));
        }
    }
    b.build()
}

/// The identity of a run's simulated outcome. Two passes over the same
/// inputs must agree on every field, bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub total_secs_bits: u64,
    pub cell_updates: u64,
    pub remote_bytes: u64,
    pub final_patches: u64,
    pub peak_patches: u64,
    pub global_redistributions: u64,
}

impl Fingerprint {
    pub fn to_json(&self) -> Value {
        obj([
            (
                "total_secs_bits",
                format!("{:#018x}", self.total_secs_bits).into(),
            ),
            ("cell_updates", self.cell_updates.into()),
            ("remote_bytes", self.remote_bytes.into()),
            ("final_patches", self.final_patches.into()),
            ("peak_patches", self.peak_patches.into()),
            ("global_redistributions", self.global_redistributions.into()),
        ])
    }
}

/// What a pass produced, summed over tenants where there are several.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub total_secs: f64,
    pub runs: Vec<RunResult>,
    /// `tenants_6g` only.
    pub service: Option<ServiceSummary>,
}

#[derive(Clone, Debug)]
pub struct ServiceSummary {
    pub migrations: u64,
    pub worst_p99_step_secs: f64,
    pub tenant_steps: u64,
    pub digest: u64,
}

impl Outcome {
    pub fn of_run(r: RunResult) -> Outcome {
        Outcome {
            total_secs: r.total_secs,
            runs: vec![r],
            service: None,
        }
    }

    pub fn of_service(r: ServiceResult) -> Outcome {
        let service = ServiceSummary {
            migrations: r.migrations,
            worst_p99_step_secs: r.worst_p99_step_secs(),
            tenant_steps: r.tenants.iter().map(|t| t.steps).sum(),
            digest: r.fingerprint(),
        };
        Outcome {
            total_secs: r.total_secs,
            runs: r.runs,
            service: Some(service),
        }
    }

    pub fn sum_u64(&self, f: impl Fn(&RunResult) -> u64) -> u64 {
        self.runs.iter().map(f).sum()
    }

    pub fn sum_f64(&self, f: impl Fn(&RunResult) -> f64) -> f64 {
        self.runs.iter().map(f).sum()
    }

    pub fn cell_updates(&self) -> u64 {
        self.sum_u64(|r| r.cell_updates)
    }

    /// Level-0 steps (tenant-steps on `tenants_6g`): the benchmark's
    /// operations.
    pub fn steps(&self) -> u64 {
        self.sum_u64(|r| r.steps as u64)
    }

    pub fn phase_wall(&self) -> PhaseWall {
        PhaseWall {
            solve: self.sum_f64(|r| r.wall.solve),
            ghost: self.sum_f64(|r| r.wall.ghost),
            regrid: self.sum_f64(|r| r.wall.regrid),
            restrict: self.sum_f64(|r| r.wall.restrict),
            decision: self.sum_f64(|r| r.wall.decision),
        }
    }

    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            total_secs_bits: self.total_secs.to_bits()
                ^ self.service.as_ref().map_or(0, |s| s.digest),
            cell_updates: self.cell_updates(),
            remote_bytes: self.sum_u64(|r| r.breakdown.remote_bytes),
            final_patches: self.sum_u64(|r| r.final_patches as u64),
            peak_patches: self.sum_u64(|r| r.peak_patches as u64),
            global_redistributions: self.sum_u64(|r| r.global_redistributions as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_match_the_spec() {
        for (w, s) in ALL.into_iter().zip(&crate::spec::WORKLOADS) {
            assert_eq!(w.name(), s.name);
            assert_eq!(Workload::from_name(s.name), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn jitter_keeps_structure_and_moves_capacity_within_its_share() {
        let sys = presets::federation(16, 2, 7);
        let again = jitter_links(&sys, 99);
        assert_eq!(again.ngroups(), sys.ngroups());
        assert_eq!(again.nprocs(), sys.nprocs());
        for (p, q) in sys.procs().iter().zip(again.procs()) {
            assert_eq!(p.weight, q.weight);
        }
        let (a, b) = (topology::GroupId(0), topology::GroupId(15));
        let (l0, l1) = (sys.inter_link(a, b), again.inter_link(a, b));
        assert_eq!((l0.latency, &l0.traffic), (l1.latency, &l1.traffic));
        let ratio = l1.bandwidth / l0.bandwidth;
        assert!(
            ratio != 1.0 && (ratio - 1.0).abs() <= LINK_JITTER,
            "{ratio}"
        );
        // explicit-map systems go through the same helper; intra links stay
        let pair = presets::anl_ncsa_wan(2, 2, 1);
        let moved = jitter_links(&pair, 5);
        assert_ne!(
            moved
                .inter_link(topology::GroupId(0), topology::GroupId(1))
                .bandwidth,
            pair.inter_link(topology::GroupId(0), topology::GroupId(1))
                .bandwidth
        );
        assert_eq!(moved.groups()[0].intra, pair.groups()[0].intra);
        assert_eq!(jitter_links(&sys, 99).describe(), again.describe());
    }
}
