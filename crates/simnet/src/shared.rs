//! Shared-substrate views: many tenants, one simulator clock.
//!
//! [`NetSim`] owns one [`DistributedSystem`] and its clocks outright — the
//! right shape for a single run, but a multi-tenant service needs N
//! independent drivers charging time to *one* network on *one* clock.
//! [`SimHandle`] wraps a `NetSim` for shared ownership, and [`SimView`]
//! gives each tenant a scoped window onto it: the tenant sees a small
//! `DistributedSystem` made of just its groups, while every charge lands on
//! the global simulator, so tenants contend for the same WAN links and
//! time-multiplex the same processors.
//!
//! `SimView` is an enum under the hood:
//!
//! - **Exclusive** wraps a plain `NetSim` and delegates directly — zero
//!   locking, zero translation. Single-run code (every benchmark, every
//!   test that predates the tenants layer) goes through this arm and stays
//!   bit-identical to the pre-view simulator.
//! - **Shared** holds a [`SimHandle`] plus local↔global id maps. Each call
//!   locks the handle once, translates the view-local `ProcId`/`GroupId`s
//!   to global ones, and charges the global simulator.
//!
//! Shared views are deliberately narrower than the raw simulator: they
//! cannot `reset` the global clock, carry proc-fault schedules (crash-stop
//! chaos stays a single-tenant concern), or override the global timeout.
//! Those methods panic on a shared view so a misuse fails loudly in tests
//! rather than silently perturbing co-tenants.

use crate::error::SimResult;
use crate::sim::NetSim;
use crate::stats::{Activity, SimStats};
use std::sync::{Arc, Mutex};
use telemetry::Telemetry;
use topology::{
    DistributedSystem, GroupId, LinkEstimator, ProbeSample, ProcFaultSchedule, ProcId, SimTime,
    SystemBuilder,
};

/// Shared ownership of one [`NetSim`]: the substrate N tenants charge time
/// to. Cloning the handle clones the `Arc`, not the simulator.
#[derive(Clone, Debug)]
pub struct SimHandle {
    inner: Arc<Mutex<NetSim>>,
}

impl SimHandle {
    /// Wrap a fresh simulator over `sys`.
    pub fn new(sys: DistributedSystem) -> Self {
        SimHandle {
            inner: Arc::new(Mutex::new(NetSim::new(sys))),
        }
    }

    /// Run `f` with the global simulator locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut NetSim) -> R) -> R {
        let mut sim = self.inner.lock().expect("simnet handle poisoned");
        f(&mut sim)
    }

    /// Zero the global clocks and statistics (see [`NetSim::reset`]) — used
    /// once after all tenants are admitted, so setup work is excluded from
    /// the measured service run.
    pub fn reset(&self) {
        self.with(|s| s.reset());
    }

    /// Wall-clock of the global simulator (max over *all* procs).
    pub fn elapsed(&self) -> SimTime {
        self.with(|s| s.elapsed())
    }

    /// A clone of the global system description.
    pub fn system(&self) -> DistributedSystem {
        self.with(|s| s.system().clone())
    }

    /// A tenant-scoped view over `groups` of the global system.
    ///
    /// The view's local system re-binds the selected groups to dense local
    /// ids in selection order (group `groups[i]` becomes local `GroupId(i)`;
    /// its procs get the next contiguous run of local `ProcId`s). Every
    /// pair of selected groups must be connected in the global system —
    /// the local system clones those inter links, so link *parameters*
    /// (latency, bandwidth, traffic) travel with the view while contention
    /// state stays global.
    pub fn view(&self, groups: &[GroupId]) -> SimView {
        assert!(!groups.is_empty(), "view over no groups");
        let (sys, proc_map) = self.with(|s| {
            let g = s.system();
            let mut b = SystemBuilder::new();
            let mut proc_map: Vec<ProcId> = Vec::new();
            for &gid in groups {
                let grp = g.group(gid);
                let weight = g.proc(grp.procs[0]).weight;
                b = b.group(&grp.name, grp.nprocs(), weight, grp.intra.clone());
                proc_map.extend(grp.procs.iter().copied());
            }
            for (i, &ga) in groups.iter().enumerate() {
                for (j, &gb) in groups.iter().enumerate().skip(i + 1) {
                    b = b.connect(i, j, g.inter_link(ga, gb).clone());
                }
            }
            (b.build(), proc_map)
        });
        SimView {
            inner: ViewInner::Shared {
                handle: self.clone(),
                sys,
                proc_map,
                group_map: groups.to_vec(),
                faults: ProcFaultSchedule::default(),
                tel: Telemetry::null(),
            },
        }
    }
}

/// A simulator as seen by one run: either the whole thing (exclusive) or a
/// tenant's window onto a shared substrate. Mirrors the [`NetSim`] API the
/// schemes and the engine driver use, so run code is agnostic to which it
/// got.
#[derive(Clone, Debug)]
pub struct SimView {
    inner: ViewInner,
}

#[derive(Clone, Debug)]
enum ViewInner {
    /// Sole owner of the simulator: direct delegation, no lock, no id
    /// translation — the pre-tenants fast path.
    Exclusive(NetSim),
    /// A window onto a shared simulator: `proc_map[local] = global` and
    /// `group_map[local] = global`; `sys` is the local re-binding of the
    /// selected groups; `faults` is always quiet (shared views cannot carry
    /// crash schedules); `tel` is the view's own telemetry lane.
    Shared {
        handle: SimHandle,
        sys: DistributedSystem,
        proc_map: Vec<ProcId>,
        group_map: Vec<GroupId>,
        faults: ProcFaultSchedule,
        tel: Telemetry,
    },
}

impl SimView {
    /// An exclusive view over a fresh simulator — the drop-in replacement
    /// for `NetSim::new` in single-run code.
    pub fn new(sys: DistributedSystem) -> Self {
        SimView {
            inner: ViewInner::Exclusive(NetSim::new(sys)),
        }
    }

    /// Translate a view-local group id to the global one.
    fn gg(&self, g: GroupId) -> GroupId {
        match &self.inner {
            ViewInner::Exclusive(_) => g,
            ViewInner::Shared { group_map, .. } => group_map[g.0],
        }
    }

    /// The system this view runs over (the local re-binding when shared).
    pub fn system(&self) -> &DistributedSystem {
        match &self.inner {
            ViewInner::Exclusive(s) => s.system(),
            ViewInner::Shared { sys, .. } => sys,
        }
    }

    /// Local clock of view processor `p`.
    pub fn now(&self, p: ProcId) -> SimTime {
        match &self.inner {
            ViewInner::Exclusive(s) => s.now(p),
            ViewInner::Shared {
                handle, proc_map, ..
            } => {
                let g = proc_map[p.0];
                handle.with(|s| s.now(g))
            }
        }
    }

    /// Wall-clock of *this view*: the maximum clock over the view's procs
    /// (not over co-tenants' procs).
    pub fn elapsed(&self) -> SimTime {
        match &self.inner {
            ViewInner::Exclusive(s) => s.elapsed(),
            ViewInner::Shared {
                handle, proc_map, ..
            } => handle.with(|s| {
                proc_map
                    .iter()
                    .map(|&p| s.now(p))
                    .max()
                    .expect("view has procs")
            }),
        }
    }

    /// Accumulated statistics, projected onto the view's procs. Message
    /// totals are global when shared (messages are a property of the
    /// substrate, not the tenant).
    pub fn stats(&self) -> SimStats {
        match &self.inner {
            ViewInner::Exclusive(s) => s.stats().clone(),
            ViewInner::Shared {
                handle, proc_map, ..
            } => handle.with(|s| {
                let global = s.stats();
                SimStats {
                    procs: proc_map.iter().map(|&p| global.procs[p.0]).collect(),
                    msgs: global.msgs,
                }
            }),
        }
    }

    /// Zero clocks and statistics. Exclusive views only: a shared view must
    /// not rewind co-tenants (use [`SimHandle::reset`] on the substrate
    /// before any tenant starts stepping).
    pub fn reset(&mut self) {
        match &mut self.inner {
            ViewInner::Exclusive(s) => s.reset(),
            ViewInner::Shared { .. } => panic!("reset on a shared view"),
        }
    }

    /// Attach a crash-stop schedule. Exclusive views only — crash windows
    /// on a shared substrate would tear co-tenants' procs out from under
    /// them without their drivers seeing it.
    pub fn set_proc_faults(&mut self, sched: ProcFaultSchedule) {
        match &mut self.inner {
            ViewInner::Exclusive(s) => s.set_proc_faults(sched),
            ViewInner::Shared { .. } => panic!("proc faults on a shared view"),
        }
    }

    /// Is any proc-crash window scheduled? Always `false` on shared views.
    pub fn has_proc_faults(&self) -> bool {
        match &self.inner {
            ViewInner::Exclusive(s) => s.has_proc_faults(),
            ViewInner::Shared { faults, .. } => !faults.is_quiet(),
        }
    }

    /// The proc-fault schedule (quiet on shared views).
    pub fn proc_faults(&self) -> &ProcFaultSchedule {
        match &self.inner {
            ViewInner::Exclusive(s) => s.proc_faults(),
            ViewInner::Shared { faults, .. } => faults,
        }
    }

    /// Is view proc `p` alive at `t`?
    pub fn alive_at(&self, p: ProcId, t: SimTime) -> bool {
        match &self.inner {
            ViewInner::Exclusive(s) => s.alive_at(p, t),
            ViewInner::Shared { faults, .. } => faults.alive_at(p.0, t),
        }
    }

    /// Is view proc `p` alive at the view's current wall-clock?
    pub fn alive_now(&self, p: ProcId) -> bool {
        self.alive_at(p, self.elapsed())
    }

    /// The procs of view group `g` that are alive now (view-local ids).
    pub fn alive_procs_in(&self, g: GroupId) -> Vec<ProcId> {
        match &self.inner {
            ViewInner::Exclusive(s) => s.alive_procs_in(g),
            ViewInner::Shared { sys, faults, .. } => {
                let t = self.elapsed();
                sys.procs_in(g)
                    .iter()
                    .copied()
                    .filter(|p| faults.alive_at(p.0, t))
                    .collect()
            }
        }
    }

    /// Sum of performance weights of view group `g`'s alive procs.
    pub fn alive_group_power(&self, g: GroupId) -> f64 {
        match &self.inner {
            ViewInner::Exclusive(s) => s.alive_group_power(g),
            ViewInner::Shared { sys, faults, .. } => {
                let t = self.elapsed();
                sys.procs_in(g)
                    .iter()
                    .filter(|p| faults.alive_at(p.0, t))
                    .map(|&p| sys.proc(p).weight)
                    .sum()
            }
        }
    }

    /// Attach a telemetry handle. On a shared view this sets the *view's*
    /// lane (read back by [`telemetry`](Self::telemetry) and the scheme
    /// layer); the substrate's transfer-level telemetry stays whatever was
    /// set on the underlying `NetSim`.
    pub fn set_telemetry(&mut self, t: Telemetry) {
        match &mut self.inner {
            ViewInner::Exclusive(s) => s.set_telemetry(t),
            ViewInner::Shared { tel, .. } => *tel = t,
        }
    }

    /// The view's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        match &self.inner {
            ViewInner::Exclusive(s) => s.telemetry(),
            ViewInner::Shared { tel, .. } => tel,
        }
    }

    /// Utilization rows of the underlying simulator's inter links (global
    /// group ids when shared — the substrate's links are shared property).
    pub fn inter_link_utilization(&self) -> Vec<(usize, usize, f64)> {
        match &self.inner {
            ViewInner::Exclusive(s) => s.inter_link_utilization(),
            ViewInner::Shared { handle, .. } => handle.with(|s| s.inter_link_utilization()),
        }
    }

    /// View proc `p` computes for `secs` simulated seconds.
    pub fn compute(&mut self, p: ProcId, secs: f64) {
        match &mut self.inner {
            ViewInner::Exclusive(s) => s.compute(p, secs),
            ViewInner::Shared {
                handle, proc_map, ..
            } => {
                let g = proc_map[p.0];
                handle.with(|s| s.compute(g, secs));
            }
        }
    }

    /// View proc `p` is busy for `secs` seconds attributed to `act`.
    pub fn busy(&mut self, p: ProcId, secs: f64, act: Activity) {
        match &mut self.inner {
            ViewInner::Exclusive(s) => s.busy(p, secs, act),
            ViewInner::Shared {
                handle, proc_map, ..
            } => {
                let g = proc_map[p.0];
                handle.with(|s| s.busy(g, secs, act));
            }
        }
    }

    /// Is the `src → dst` path remote? Decided on the view's local system
    /// (group structure is identical to the global one for the view's
    /// procs).
    pub fn is_remote(&self, src: ProcId, dst: ProcId) -> bool {
        !self.system().same_group(src, dst)
    }

    /// Send `bytes` between view procs (see [`NetSim::send`]). On a shared
    /// substrate the transfer serializes on the *global* link, so
    /// co-tenants' traffic queues behind it.
    pub fn send(
        &mut self,
        src: ProcId,
        dst: ProcId,
        bytes: u64,
        act: Activity,
    ) -> SimResult<SimTime> {
        self.send_with_deadline(src, dst, bytes, act, None)
    }

    /// [`send`](Self::send) with an absolute deadline.
    pub fn send_with_deadline(
        &mut self,
        src: ProcId,
        dst: ProcId,
        bytes: u64,
        act: Activity,
        deadline: Option<SimTime>,
    ) -> SimResult<SimTime> {
        match &mut self.inner {
            ViewInner::Exclusive(s) => s.send_with_deadline(src, dst, bytes, act, deadline),
            ViewInner::Shared {
                handle, proc_map, ..
            } => {
                let (gs, gd) = (proc_map[src.0], proc_map[dst.0]);
                handle.with(|s| s.send_with_deadline(gs, gd, bytes, act, deadline))
            }
        }
    }

    /// Send classifying the time automatically as local or remote.
    pub fn send_auto(&mut self, src: ProcId, dst: ProcId, bytes: u64) -> SimResult<SimTime> {
        let act = if self.is_remote(src, dst) {
            Activity::RemoteComm
        } else {
            Activity::LocalComm
        };
        self.send(src, dst, bytes, act)
    }

    /// Synchronize a set of view procs; slack charged as `act`.
    pub fn sync(&mut self, procs: &[ProcId], act: Activity) -> SimTime {
        match &mut self.inner {
            ViewInner::Exclusive(s) => s.sync(procs, act),
            ViewInner::Shared {
                handle, proc_map, ..
            } => {
                let global: Vec<ProcId> = procs.iter().map(|p| proc_map[p.0]).collect();
                handle.with(|s| s.sync(&global, act))
            }
        }
    }

    /// Barrier over every proc of *this view* (co-tenants keep running).
    pub fn barrier_all(&mut self) -> SimTime {
        match &mut self.inner {
            ViewInner::Exclusive(s) => s.barrier_all(),
            ViewInner::Shared {
                handle, proc_map, ..
            } => handle.with(|s| s.sync(proc_map, Activity::Wait)),
        }
    }

    /// Barrier within one view group.
    pub fn barrier_group(&mut self, g: GroupId) -> SimTime {
        let procs = self.system().procs_in(g).to_vec();
        self.sync(&procs, Activity::Wait)
    }

    /// Allreduce over every proc of this view.
    pub fn allreduce_all(&mut self, bytes: u64, act: Activity) -> SimResult<SimTime> {
        let groups: Vec<GroupId> = (0..self.system().ngroups()).map(GroupId).collect();
        self.allreduce_groups(&groups, bytes, act)
    }

    /// Allreduce over the listed view groups only.
    pub fn allreduce_groups(
        &mut self,
        groups: &[GroupId],
        bytes: u64,
        act: Activity,
    ) -> SimResult<SimTime> {
        match &mut self.inner {
            ViewInner::Exclusive(s) => s.allreduce_groups(groups, bytes, act),
            ViewInner::Shared {
                handle, group_map, ..
            } => {
                let global: Vec<GroupId> = groups.iter().map(|g| group_map[g.0]).collect();
                handle.with(|s| s.allreduce_groups(&global, bytes, act))
            }
        }
    }

    /// Allreduce within one view group.
    pub fn allreduce_group(&mut self, g: GroupId, bytes: u64, act: Activity) -> SimResult<SimTime> {
        self.allreduce_groups(&[g], bytes, act)
    }

    /// Probe the inter link between two view groups (see
    /// [`NetSim::probe_inter`]). The probe prices the *global* link — on a
    /// congested shared substrate a tenant's α/β estimates see co-tenant
    /// weather.
    pub fn probe_inter(
        &mut self,
        a: GroupId,
        b: GroupId,
        est: &mut LinkEstimator,
        deadline: Option<SimTime>,
    ) -> SimResult<ProbeSample> {
        let (ga, gb) = (self.gg(a), self.gg(b));
        match &mut self.inner {
            ViewInner::Exclusive(s) => s.probe_inter(ga, gb, est, deadline),
            ViewInner::Shared { handle, .. } => {
                handle.with(|s| s.probe_inter(ga, gb, est, deadline))
            }
        }
    }

    /// Advance this view's procs to their common maximum and return it.
    pub fn finish(&mut self) -> SimTime {
        match &mut self.inner {
            ViewInner::Exclusive(s) => s.finish(),
            ViewInner::Shared {
                handle, proc_map, ..
            } => handle.with(|s| s.sync(proc_map, Activity::Wait)),
        }
    }

    /// Re-point view group `local` at global group `new_global` — the
    /// substrate half of a whole-tenant migration. The destination must
    /// have the same proc count as the view group (the tenant's partition
    /// maps procs by position). Shared views only.
    ///
    /// Note the local system is *not* rebuilt: the view keeps its original
    /// group name, weights, and link parameters for cost modeling, while
    /// the charges land on the new global procs/links. The tenants service
    /// keeps this honest by migrating only between homogeneous groups.
    pub fn remap_group(&mut self, local: GroupId, new_global: GroupId) {
        match &mut self.inner {
            ViewInner::Exclusive(_) => panic!("remap_group on an exclusive view"),
            ViewInner::Shared {
                handle,
                sys,
                proc_map,
                group_map,
                ..
            } => {
                let new_procs = handle.with(|s| s.system().procs_in(new_global).to_vec());
                let local_procs = sys.procs_in(local);
                assert_eq!(
                    local_procs.len(),
                    new_procs.len(),
                    "remap_group: proc count mismatch"
                );
                for (lp, gp) in local_procs.iter().zip(new_procs) {
                    proc_map[lp.0] = gp;
                }
                group_map[local.0] = new_global;
            }
        }
    }

    /// The view's local→global group mapping (identity-length list for
    /// exclusive views).
    pub fn group_mapping(&self) -> Vec<GroupId> {
        match &self.inner {
            ViewInner::Exclusive(s) => (0..s.system().ngroups()).map(GroupId).collect(),
            ViewInner::Shared { group_map, .. } => group_map.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::link::Link;

    fn substrate(groups: usize, n: usize) -> DistributedSystem {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(10), 1e7);
        let mut b = SystemBuilder::new();
        for gi in 0..groups {
            b = b.group(&format!("G{gi}"), n, 1.0, intra.clone());
        }
        for a in 0..groups {
            for c in (a + 1)..groups {
                b = b.connect(a, c, wan.clone());
            }
        }
        b.build()
    }

    #[test]
    fn exclusive_view_matches_raw_netsim() {
        let sys = substrate(2, 2);
        let mut raw = NetSim::new(sys.clone());
        let mut view = SimView::new(sys);
        raw.compute(ProcId(0), 0.5);
        view.compute(ProcId(0), 0.5);
        raw.send_auto(ProcId(0), ProcId(2), 123_456).unwrap();
        view.send_auto(ProcId(0), ProcId(2), 123_456).unwrap();
        raw.allreduce_all(64, Activity::LoadBalance).unwrap();
        view.allreduce_all(64, Activity::LoadBalance).unwrap();
        assert_eq!(raw.finish(), view.finish());
        assert_eq!(raw.stats().msgs.remote_msgs, view.stats().msgs.remote_msgs);
    }

    #[test]
    fn shared_view_translates_ids() {
        let handle = SimHandle::new(substrate(3, 2));
        // a view over the *last* two groups: local proc 0 is global proc 2
        let mut v = handle.view(&[GroupId(1), GroupId(2)]);
        assert_eq!(v.system().nprocs(), 4);
        assert_eq!(v.system().ngroups(), 2);
        v.compute(ProcId(0), 1.0);
        assert_eq!(v.now(ProcId(0)), SimTime::from_secs(1));
        handle.with(|s| {
            assert_eq!(s.now(ProcId(2)), SimTime::from_secs(1));
            assert_eq!(s.now(ProcId(0)), SimTime::ZERO);
        });
        // the view's elapsed ignores procs outside the view
        handle.with(|s| s.compute(ProcId(0), 9.0));
        assert_eq!(v.elapsed(), SimTime::from_secs(1));
    }

    #[test]
    fn tenants_contend_on_the_shared_link() {
        let handle = SimHandle::new(substrate(2, 2));
        // two tenants, both spanning the same two groups
        let mut a = handle.view(&[GroupId(0), GroupId(1)]);
        let mut b = handle.view(&[GroupId(0), GroupId(1)]);
        a.send_auto(ProcId(0), ProcId(2), 1_000_000).unwrap();
        b.send_auto(ProcId(1), ProcId(3), 1_000_000).unwrap();
        // second transfer had to queue behind the first on the global wan
        let t = b.now(ProcId(3)).as_secs_f64();
        assert!((t - 0.22).abs() < 1e-6, "{t}");
    }

    #[test]
    fn disjoint_views_do_not_contend() {
        let handle = SimHandle::new(substrate(4, 2));
        let mut a = handle.view(&[GroupId(0), GroupId(1)]);
        let mut b = handle.view(&[GroupId(2), GroupId(3)]);
        a.send_auto(ProcId(0), ProcId(2), 1_000_000).unwrap();
        b.send_auto(ProcId(0), ProcId(2), 1_000_000).unwrap();
        assert_eq!(a.now(ProcId(2)), b.now(ProcId(2)));
    }

    #[test]
    fn view_barrier_leaves_cotenants_alone() {
        let handle = SimHandle::new(substrate(3, 2));
        let mut v = handle.view(&[GroupId(0), GroupId(1)]);
        v.compute(ProcId(0), 2.0);
        v.barrier_all();
        handle.with(|s| {
            assert_eq!(s.now(ProcId(3)), SimTime::from_secs(2));
            assert_eq!(s.now(ProcId(4)), SimTime::ZERO, "outside the view");
        });
    }

    #[test]
    fn shared_view_stats_project_the_right_procs() {
        let handle = SimHandle::new(substrate(2, 2));
        let mut v = handle.view(&[GroupId(1)]);
        v.compute(ProcId(0), 3.0);
        let st = v.stats();
        assert_eq!(st.procs.len(), 2);
        assert_eq!(st.procs[0].compute, SimTime::from_secs(3));
    }

    #[test]
    fn remap_group_repoints_charges() {
        let handle = SimHandle::new(substrate(3, 2));
        let mut v = handle.view(&[GroupId(0)]);
        v.remap_group(GroupId(0), GroupId(2));
        v.compute(ProcId(0), 1.5);
        handle.with(|s| {
            assert_eq!(s.now(ProcId(4)), SimTime::from_secs_f64(1.5));
            assert_eq!(s.now(ProcId(0)), SimTime::ZERO);
        });
        assert_eq!(v.group_mapping(), vec![GroupId(2)]);
    }

    #[test]
    #[should_panic(expected = "reset on a shared view")]
    fn shared_view_cannot_reset() {
        let handle = SimHandle::new(substrate(2, 2));
        let mut v = handle.view(&[GroupId(0)]);
        v.reset();
    }

    #[test]
    fn shared_view_probe_prices_the_global_link() {
        let handle = SimHandle::new(substrate(2, 2));
        let mut v = handle.view(&[GroupId(0), GroupId(1)]);
        let mut est = LinkEstimator::paper_default();
        v.probe_inter(GroupId(0), GroupId(1), &mut est, None).unwrap();
        // wan alpha ~ 10ms
        assert!((est.alpha().unwrap() - 0.01).abs() < 1e-4);
    }
}
