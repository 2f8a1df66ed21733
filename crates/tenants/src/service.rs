//! The multi-tenant scheduler: N re-entrant drivers, one substrate clock.
//!
//! Each tenant is an ordinary [`samr_engine::Driver`] built over a
//! [`SimView`] carved from the service's [`SimHandle`], so intra-tenant
//! balancing (the paper's scheme) runs unchanged while every charge lands
//! on the shared simulator. The service adds the three things a single run
//! never needed:
//!
//! * **interleaved stepping** — always advance the tenant whose view clock
//!   is furthest behind (ties to the lowest tenant id), which is both fair
//!   and a pure function of simulated state, hence deterministic;
//! * **inter-tenant re-balancing** — every `REBALANCE_INTERVAL` (2)
//!   completed steps a tenant may migrate one group of its span off the
//!   most crowded substrate group, gated by the same `Gain > γ·Cost` rule
//!   (γ = 2) the intra-tenant DLB uses, with α/β probed on the live (possibly
//!   congested) link and the payload charged leader-to-leader;
//! * **service accounting** — per-tenant step latencies, migrations, and
//!   a tenant telemetry lane (admit/migrate/step events).

use crate::admission::{place_static, place_tenants, Placement};
use crate::spec::TenantSpec;
use dlb::{evaluate_cost, should_redistribute};
use samr_engine::{Driver, RunConfig, RunResult, Scheme};
use simnet::{Activity, SimHandle};
use std::collections::BTreeMap;
use telemetry::{
    EventKind, Telemetry, TenantAdmitEvent, TenantMigrateEvent, TenantStepEvent,
};
use topology::{DistributedSystem, GroupId, LinkEstimator, ProcId};

/// γ of the inter-tenant migration gate (the paper's default).
const GAMMA: f64 = 2.0;

/// A tenant is considered for migration every this many of its own
/// completed steps.
const REBALANCE_INTERVAL: u64 = 2;

/// Service-level knobs.
#[derive(Clone, Debug)]
pub struct TenantServiceConfig {
    /// Seed for the admission draw and the per-tenant run seeds.
    pub seed: u64,
    /// Priority/load-aware admission (`true`) or the naive static baseline.
    pub tenant_aware: bool,
    /// Telemetry lane shared by the substrate and the service events.
    pub telemetry: Telemetry,
}

impl Default for TenantServiceConfig {
    fn default() -> Self {
        TenantServiceConfig {
            seed: 42,
            tenant_aware: true,
            telemetry: Telemetry::null(),
        }
    }
}

/// Outcome of one service run.
#[derive(Clone, Debug)]
pub struct ServiceResult {
    /// Per-tenant statistics, indexed like the submitted spec list.
    pub tenants: Vec<metrics::TenantStats>,
    /// The underlying per-tenant run reports.
    pub runs: Vec<RunResult>,
    /// Simulated seconds until the last tenant finished (global clock).
    pub total_secs: f64,
    /// Whole-tenant migrations performed across the run.
    pub migrations: u64,
}

impl ServiceResult {
    /// Aggregate cell-update throughput of the whole service (updates per
    /// simulated second).
    pub fn aggregate_cell_updates_per_sec(&self) -> f64 {
        let cells: u64 = self.tenants.iter().map(|t| t.cell_updates).sum();
        if self.total_secs > 0.0 {
            cells as f64 / self.total_secs
        } else {
            0.0
        }
    }

    /// Worst per-tenant p99 step latency — the service-level SLO number.
    pub fn worst_p99_step_secs(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.p99_step_secs)
            .fold(0.0, f64::max)
    }

    /// FNV-1a digest over every simulated quantity — two runs of the same
    /// seeded service must produce equal fingerprints bit-for-bit.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        fold(self.total_secs.to_bits());
        fold(self.migrations);
        for t in &self.tenants {
            fold(t.steps);
            fold(t.cell_updates);
            fold(t.total_secs.to_bits());
            fold(t.p50_step_secs.to_bits());
            fold(t.p99_step_secs.to_bits());
            fold(t.migrations);
            for g in &t.groups {
                fold(*g as u64);
            }
        }
        h
    }
}

/// The running service: shared substrate plus one driver per tenant.
pub struct TenantService {
    cfg: TenantServiceConfig,
    specs: Vec<TenantSpec>,
    placement: Placement,
    handle: SimHandle,
    gsys: DistributedSystem,
    drivers: Vec<Driver>,
    steps_done: Vec<u64>,
    /// Per tenant: shared-clock time at its last step completion — the
    /// anchor the next step's service latency is measured from.
    last_mark: Vec<f64>,
    step_secs: Vec<Vec<f64>>,
    migrations: Vec<u64>,
    estimators: BTreeMap<(usize, usize), LinkEstimator>,
}

impl TenantService {
    /// Admit `specs` onto `sys` and build one driver per tenant. Setup
    /// (admission, initial hierarchies) charges the shared clock but is
    /// wiped by the reset at the start of [`TenantService::run`], exactly
    /// like a single run's setup.
    pub fn new(sys: DistributedSystem, specs: Vec<TenantSpec>, cfg: TenantServiceConfig) -> Self {
        assert!(!specs.is_empty(), "service with no tenants");
        let ngroups = sys.ngroups();
        let placement = if cfg.tenant_aware {
            place_tenants(&specs, ngroups, cfg.seed)
        } else {
            place_static(&specs, ngroups)
        };
        let handle = SimHandle::new(sys);
        handle.with(|s| s.set_telemetry(cfg.telemetry.clone()));
        let gsys = handle.system();
        let n = specs.len();
        let mut drivers: Vec<Option<Driver>> = (0..n).map(|_| None).collect();
        for &t in &placement.order {
            let spec = &specs[t];
            let mut rc = RunConfig::new(
                spec.app,
                spec.n0 as i64,
                spec.steps,
                Scheme::distributed_default(),
            );
            rc.max_levels = spec.max_levels;
            rc.seed = cfg.seed ^ ((t as u64) << 32) ^ t as u64;
            rc.telemetry = cfg.telemetry.clone();
            drivers[t] = Some(Driver::new_on(handle.view(&placement.groups[t]), rc));
        }
        TenantService {
            step_secs: vec![Vec::new(); n],
            last_mark: vec![0.0; n],
            steps_done: vec![0; n],
            migrations: vec![0; n],
            estimators: BTreeMap::new(),
            drivers: drivers.into_iter().map(|d| d.expect("driver built")).collect(),
            cfg,
            specs,
            placement,
            handle,
            gsys,
        }
    }

    /// The admission placement (for tests and the bench harness).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Run every tenant to completion on the shared clock and report.
    pub fn run(mut self) -> ServiceResult {
        self.handle.reset(); // setup excluded, like a single run
        for &t in &self.placement.order {
            self.cfg.telemetry.event(
                0.0,
                EventKind::TenantAdmit(TenantAdmitEvent {
                    tenant: t,
                    priority: self.specs[t].priority,
                    groups: self.drivers[t].sim().group_mapping().iter().map(|g| g.0).collect(),
                }),
            );
        }
        while let Some(t) = self.furthest_behind() {
            self.drivers[t].step_once();
            self.steps_done[t] += 1;
            // service-level step latency: shared-clock time since this
            // tenant's previous step completed. Unlike the driver's own
            // per-step delta (snapshotted inside step_once, after
            // co-tenants already advanced the clock), this span covers the
            // queueing a tenant suffers behind neighbours on its groups —
            // the number placement quality actually moves.
            let now = self.drivers[t].sim().elapsed().as_secs_f64();
            let secs = now - self.last_mark[t];
            self.last_mark[t] = now;
            self.step_secs[t].push(secs);
            if self.cfg.telemetry.is_enabled() {
                // service-latency gauge per tenant, next to the event lane
                self.cfg
                    .telemetry
                    .metric(now, &format!("tenant_step_secs:t{t}"), secs);
            }
            self.cfg.telemetry.event(
                now,
                EventKind::TenantStep(TenantStepEvent {
                    tenant: t,
                    step: self.steps_done[t] - 1,
                    secs,
                }),
            );
            if self.steps_done[t].is_multiple_of(REBALANCE_INTERVAL)
                && self.steps_done[t] < self.specs[t].steps as u64
            {
                self.maybe_migrate(t);
            }
        }
        self.finish()
    }

    /// The unfinished tenant whose view clock is furthest behind (ties to
    /// the lowest tenant id) — the next one to step.
    fn furthest_behind(&self) -> Option<usize> {
        (0..self.specs.len())
            .filter(|&t| self.steps_done[t] < self.specs[t].steps as u64)
            .min_by(|&a, &b| {
                self.drivers[a]
                    .sim()
                    .elapsed()
                    .cmp(&self.drivers[b].sim().elapsed())
                    .then(a.cmp(&b))
            })
    }

    /// Remaining level-0 cell-steps each tenant still owes every global
    /// group it occupies — the occupancy map migration decisions read.
    fn occupancy(&self) -> Vec<f64> {
        let mut occ = vec![0.0f64; self.gsys.ngroups()];
        for (u, spec) in self.specs.iter().enumerate() {
            let left = spec.steps as u64 - self.steps_done[u].min(spec.steps as u64);
            if left == 0 {
                continue;
            }
            let share = spec.work_per_group() * left as f64 / spec.steps as f64;
            for g in self.drivers[u].sim().group_mapping() {
                occ[g.0] += share;
            }
        }
        occ
    }

    /// Consider migrating one group of tenant `t`'s span off the most
    /// crowded substrate group, through the γ-gated cost model.
    fn maybe_migrate(&mut self, t: usize) {
        let occ = self.occupancy();
        let mapping = self.drivers[t].sim().group_mapping();
        let spec = &self.specs[t];
        let left = spec.steps as u64 - self.steps_done[t];
        let own_share = spec.work_per_group() * left as f64 / spec.steps as f64;

        // the span slot suffering the most co-tenant load
        let (from_local, &from_global) = mapping
            .iter()
            .enumerate()
            .max_by(|(i, a), (j, b)| {
                occ[a.0].total_cmp(&occ[b.0]).then(j.cmp(i))
            })
            .expect("tenant has groups");
        let co_from = occ[from_global.0] - own_share;

        // cheapest homogeneous destination outside the tenant's span
        let nproc = self.gsys.group(from_global).nprocs();
        let weight = self.gsys.proc(self.gsys.group(from_global).procs[0]).weight;
        let to_global = (0..self.gsys.ngroups())
            .map(GroupId)
            .filter(|g| !mapping.contains(g))
            .filter(|&g| {
                self.gsys.group(g).nprocs() == nproc
                    && self.gsys.proc(self.gsys.group(g).procs[0]).weight == weight
            })
            .min_by(|a, b| occ[a.0].total_cmp(&occ[b.0]).then(a.0.cmp(&b.0)));
        let Some(to_global) = to_global else { return };
        let co_to = occ[to_global.0];
        if co_from <= co_to {
            return;
        }

        // gain: co-tenant load difference priced at this tenant's own
        // per-cell cost over the destination group's compute power
        let power: f64 = self
            .gsys
            .group(to_global)
            .procs
            .iter()
            .map(|&p| self.gsys.proc(p).weight)
            .sum();
        let gain_secs =
            (co_from - co_to) * self.drivers[t].app().cost_per_cell() / power.max(1e-12);

        // payload: the tenant's resident data on the group it would leave
        let view_sys = self.drivers[t].sim().system();
        let payload: u64 = self.drivers[t]
            .hierarchy()
            .iter()
            .filter(|p| view_sys.group_of(ProcId(p.owner)) == GroupId(from_local))
            .map(|p| p.payload_bytes())
            .sum();

        // cost: Eq. 1 with α/β probed on the live link, δ from the
        // tenant's own redistribution history
        let key = (
            from_global.0.min(to_global.0),
            from_global.0.max(to_global.0),
        );
        let est = self
            .estimators
            .entry(key)
            .or_insert_with(LinkEstimator::paper_default);
        let probed = self
            .handle
            .with(|s| s.probe_inter(from_global, to_global, est, None));
        if probed.is_err() {
            return; // link unusable: sit this round out
        }
        let (alpha, beta) = (est.alpha().unwrap_or(0.0), est.beta().unwrap_or(0.0));
        let cost = evaluate_cost(alpha, beta, payload, self.drivers[t].history());
        if !should_redistribute(gain_secs, &cost, GAMMA) {
            return;
        }

        // ship the payload leader-to-leader on the global substrate, then
        // re-point the tenant's view slot
        let moved = self.handle.with(|s| {
            let src = s.system().procs_in(from_global)[0];
            let dst = s.system().procs_in(to_global)[0];
            s.send(src, dst, payload.max(1), Activity::LoadBalance)
        });
        if moved.is_err() {
            return; // transfer died: tenant stays put
        }
        self.drivers[t].sim_mut().remap_group(GroupId(from_local), to_global);
        self.migrations[t] += 1;
        self.cfg.telemetry.event(
            self.drivers[t].sim().elapsed().as_secs_f64(),
            EventKind::TenantMigrate(TenantMigrateEvent {
                tenant: t,
                from_group: from_global.0,
                to_group: to_global.0,
                bytes: payload,
                cost_secs: cost.total_secs(),
                gain_secs,
            }),
        );
    }

    fn finish(self) -> ServiceResult {
        let TenantService {
            specs,
            drivers,
            step_secs,
            migrations,
            handle,
            ..
        } = self;
        let mut tenants = Vec::with_capacity(specs.len());
        let mut runs = Vec::with_capacity(specs.len());
        for (t, driver) in drivers.into_iter().enumerate() {
            let groups: Vec<usize> =
                driver.sim().group_mapping().iter().map(|g| g.0).collect();
            let run = driver.finish();
            let mut sorted = step_secs[t].clone();
            sorted.sort_by(f64::total_cmp);
            let (p50, p99) = if sorted.is_empty() {
                (0.0, 0.0)
            } else {
                (
                    metrics::percentile_exact(&sorted, 0.5),
                    metrics::percentile_exact(&sorted, 0.99),
                )
            };
            tenants.push(metrics::TenantStats {
                tenant: t,
                priority: specs[t].priority,
                groups,
                steps: run.steps as u64,
                cell_updates: run.cell_updates,
                total_secs: run.total_secs,
                p50_step_secs: p50,
                p99_step_secs: p99,
                migrations: migrations[t],
            });
            runs.push(run);
        }
        ServiceResult {
            tenants,
            runs,
            total_secs: handle.elapsed().as_secs_f64(),
            migrations: migrations.iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_engine::AppKind;
    use topology::{presets, Link, SystemBuilder, TrafficModel};

    /// Four homogeneous 2-proc sites, fully connected by shared LAN links.
    fn quad_site(seed: u64) -> DistributedSystem {
        let lan = |s: u64| {
            Link::shared(
                "LAN",
                topology::SimTime::from_micros(120),
                125e6,
                TrafficModel::Bursty {
                    low: 0.1,
                    high: 0.5,
                    p_on: 0.4,
                    slot: topology::SimTime::from_secs(2),
                    seed: s,
                },
            )
        };
        let mut b = SystemBuilder::new();
        for name in ["S0", "S1", "S2", "S3"] {
            b = b.group(name, 2, 1.0, presets::origin2000_intra());
        }
        for a in 0..4usize {
            for c in (a + 1)..4 {
                b = b.connect(a, c, lan(seed ^ ((a as u64) << 8) ^ c as u64));
            }
        }
        b.build()
    }

    fn small_specs() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(AppKind::AdvectBlob, 12, 3, 4.0, 2),
            TenantSpec::new(AppKind::AdvectBlob, 8, 3, 1.0, 1),
            TenantSpec::new(AppKind::AdvectBlob, 12, 3, 4.0, 2),
        ]
    }

    #[test]
    fn shared_clock_run_completes_every_tenant() {
        let svc = TenantService::new(
            quad_site(3),
            small_specs(),
            TenantServiceConfig::default(),
        );
        let res = svc.run();
        assert_eq!(res.tenants.len(), 3);
        for (t, spec) in small_specs().iter().enumerate() {
            assert_eq!(res.runs[t].steps, spec.steps, "tenant {t}");
            assert!(res.tenants[t].p99_step_secs >= res.tenants[t].p50_step_secs);
            assert!(res.tenants[t].total_secs > 0.0);
        }
        assert!(res.total_secs > 0.0);
        assert!(res.aggregate_cell_updates_per_sec() > 0.0);
    }

    #[test]
    fn service_is_deterministic_per_seed_even_when_recording() {
        let quiet = TenantService::new(
            quad_site(3),
            small_specs(),
            TenantServiceConfig::default(),
        )
        .run();
        let recording = TenantService::new(
            quad_site(3),
            small_specs(),
            TenantServiceConfig {
                telemetry: Telemetry::recording(),
                ..TenantServiceConfig::default()
            },
        )
        .run();
        assert_eq!(quiet.fingerprint(), recording.fingerprint());
        let other_seed = TenantService::new(
            quad_site(3),
            small_specs(),
            TenantServiceConfig {
                seed: 7,
                ..TenantServiceConfig::default()
            },
        )
        .run();
        // different admission seed reshuffles placement and run seeds
        assert_ne!(quiet.fingerprint(), other_seed.fingerprint());
    }

    #[test]
    fn tenant_events_reach_the_telemetry_lane() {
        let (tel, sink) = Telemetry::recording_shared();
        TenantService::new(
            quad_site(3),
            small_specs(),
            TenantServiceConfig {
                telemetry: tel,
                ..TenantServiceConfig::default()
            },
        )
        .run();
        let counts = sink.lock().unwrap().counts();
        assert_eq!(counts.tenant_admits, 3);
        assert_eq!(counts.tenant_steps, 9);
    }
}
