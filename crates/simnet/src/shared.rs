//! Simulator views: one run's window onto a substrate clock.
//!
//! [`NetSim`] owns one [`DistributedSystem`] and its clocks outright, but a
//! multi-tenant service needs N independent drivers charging time to *one*
//! network on *one* clock. [`SimHandle`] wraps a `NetSim` for shared
//! ownership, and [`SimView`] gives each run a window onto it: the run sees
//! a `DistributedSystem` made of just its groups, while every charge lands
//! on the substrate, so tenants contend for the same WAN links and
//! time-multiplex the same processors.
//!
//! A standalone run is a view over every group of a substrate nothing else
//! holds: [`SimView::new`] builds a private [`SimHandle`] and identity id
//! maps. Every method has one body — translate view-local `ProcId`s and
//! `GroupId`s to the substrate's, then lock the handle once — so identity
//! maps issue the same `NetSim` calls in the same order a bare simulator
//! would.
//!
//! Only a view that owns its substrate may change it for everyone: `reset`
//! and `set_proc_faults` panic on a shared view, so a misuse fails loudly in
//! tests rather than rewinding co-tenants' clocks or tearing their procs out
//! from under them. An owning view also hands its telemetry handle to the
//! substrate, so the run's sink sees its transfer and probe events.

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
            handle: self.clone(),
            sys,
            proc_map,
            group_map: groups.to_vec(),
            faults: ProcFaultSchedule::default(),
            tel: Telemetry::null(),
            owns_substrate: false,
        }
    }
}

/// A simulator as seen by one run: a window onto a substrate, private
/// ([`SimView::new`]) or shared with co-tenants ([`SimHandle::view`]).
/// Mirrors the [`NetSim`] API the schemes and the engine driver use, so run
/// code is agnostic to which it got. Not `Clone`: a copy would alias the
/// substrate, not copy it.
#[derive(Debug)]
pub struct SimView {
    handle: SimHandle,
    /// The caller's system for an owning view; the local re-binding of the
    /// selected groups for a shared one.
    sys: DistributedSystem,
    /// `proc_map[local] = global`.
    proc_map: Vec<ProcId>,
    /// `group_map[local] = global`.
    group_map: Vec<GroupId>,
    /// Crash-stop schedule in view ids; always quiet on a shared view.
    faults: ProcFaultSchedule,
    /// The view's own telemetry lane.
    tel: Telemetry,
    /// Nothing but this view holds the substrate.
    owns_substrate: bool,
}

impl SimView {
    /// A view over every group of a fresh private substrate — the drop-in
    /// replacement for `NetSim::new` in single-run code. `sys` is kept as
    /// given, tiers included.
    pub fn new(sys: DistributedSystem) -> Self {
        SimView {
            handle: SimHandle::new(sys.clone()),
            proc_map: (0..sys.nprocs()).map(ProcId).collect(),
            group_map: (0..sys.ngroups()).map(GroupId).collect(),
            sys,
            faults: ProcFaultSchedule::default(),
            tel: Telemetry::null(),
            owns_substrate: true,
        }
    }

    /// The system this view runs over.
    pub fn system(&self) -> &DistributedSystem {
        &self.sys
    }

    /// Local clock of view processor `p`.
    pub fn now(&self, p: ProcId) -> SimTime {
        let g = self.proc_map[p.0];
        self.handle.with(|s| s.now(g))
    }

    /// Wall-clock of *this view*: the maximum clock over the view's procs
    /// (not over co-tenants' procs).
    pub fn elapsed(&self) -> SimTime {
        self.handle.with(|s| {
            self.proc_map
                .iter()
                .map(|&p| s.now(p))
                .max()
                .expect("view has procs")
        })
    }

    /// Accumulated statistics, projected onto the view's procs. Message
    /// totals are the substrate's (messages are a property of the
    /// substrate, not the tenant).
    pub fn stats(&self) -> SimStats {
        self.handle.with(|s| {
            let global = s.stats();
            SimStats {
                procs: self.proc_map.iter().map(|&p| global.procs[p.0]).collect(),
                msgs: global.msgs,
            }
        })
    }

    /// Zero clocks and statistics. Owning views only: a shared view must
    /// not rewind co-tenants (use [`SimHandle::reset`] on the substrate
    /// before any tenant starts stepping).
    pub fn reset(&mut self) {
        assert!(self.owns_substrate, "reset on a shared view");
        self.handle.reset();
    }

    /// Attach a crash-stop schedule. Owning views only — crash windows on a
    /// shared substrate would tear co-tenants' procs out from under them
    /// without their drivers seeing it. The substrate gets the schedule
    /// too, so a send touching a dead proc fails fast.
    pub fn set_proc_faults(&mut self, sched: ProcFaultSchedule) {
        assert!(self.owns_substrate, "proc faults on a shared view");
        self.handle.with(|s| s.set_proc_faults(sched.clone()));
        self.faults = sched;
    }

    /// Is any proc-crash window scheduled? Always `false` on shared views.
    pub fn has_proc_faults(&self) -> bool {
        !self.faults.is_quiet()
    }

    /// The proc-fault schedule (quiet on shared views).
    pub fn proc_faults(&self) -> &ProcFaultSchedule {
        &self.faults
    }

    /// Is view proc `p` alive at `t`?
    pub fn alive_at(&self, p: ProcId, t: SimTime) -> bool {
        self.faults.alive_at(p.0, t)
    }

    /// The procs of view group `g` that are alive now (view-local ids).
    pub fn alive_procs_in(&self, g: GroupId) -> Vec<ProcId> {
        let t = self.elapsed();
        self.sys
            .procs_in(g)
            .iter()
            .copied()
            .filter(|&p| self.alive_at(p, t))
            .collect()
    }

    /// Sum of performance weights of view group `g`'s alive procs.
    pub fn alive_group_power(&self, g: GroupId) -> f64 {
        let t = self.elapsed();
        self.sys
            .procs_in(g)
            .iter()
            .filter(|&&p| self.alive_at(p, t))
            .map(|&p| self.sys.proc(p).weight)
            .sum()
    }

    /// Attach a telemetry handle: the view's lane, read back by
    /// [`telemetry`](Self::telemetry) and the scheme layer. An owning view
    /// also attaches it to the substrate, which records transfers and
    /// probes; a shared substrate keeps whatever its owner set on it.
    pub fn set_telemetry(&mut self, t: Telemetry) {
        if self.owns_substrate {
            self.handle.with(|s| s.set_telemetry(t.clone()));
        }
        self.tel = t;
    }

    /// The view's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// View proc `p` computes for `secs` simulated seconds.
    pub fn compute(&mut self, p: ProcId, secs: f64) {
        let g = self.proc_map[p.0];
        self.handle.with(|s| s.compute(g, secs));
    }

    /// View proc `p` is busy for `secs` seconds attributed to `act`.
    pub fn busy(&mut self, p: ProcId, secs: f64, act: Activity) {
        let g = self.proc_map[p.0];
        self.handle.with(|s| s.busy(g, secs, act));
    }

    /// Is the `src → dst` path remote? Decided on the view's system (group
    /// structure is identical to the substrate's for the view's procs).
    pub fn is_remote(&self, src: ProcId, dst: ProcId) -> bool {
        !self.sys.same_group(src, dst)
    }

    /// Send `bytes` between view procs (see [`NetSim::send`]). The transfer
    /// serializes on the substrate's link, so co-tenants' traffic queues
    /// behind it.
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
        let (gs, gd) = (self.proc_map[src.0], self.proc_map[dst.0]);
        self.handle
            .with(|s| s.send_with_deadline(gs, gd, bytes, act, deadline))
    }

    /// Barrier over every proc of *this view* (co-tenants keep running).
    pub fn barrier_all(&mut self) -> SimTime {
        self.handle.with(|s| s.sync(&self.proc_map, Activity::Wait))
    }

    /// Allreduce over every proc of this view.
    pub fn allreduce_all(&mut self, bytes: u64, act: Activity) -> SimResult<SimTime> {
        let groups: Vec<GroupId> = (0..self.sys.ngroups()).map(GroupId).collect();
        self.allreduce_groups(&groups, bytes, act)
    }

    /// Allreduce over the listed view groups only.
    pub fn allreduce_groups(
        &mut self,
        groups: &[GroupId],
        bytes: u64,
        act: Activity,
    ) -> SimResult<SimTime> {
        let global: Vec<GroupId> = groups.iter().map(|g| self.group_map[g.0]).collect();
        self.handle
            .with(|s| s.allreduce_groups(&global, bytes, act))
    }

    /// Allreduce within one view group.
    pub fn allreduce_group(&mut self, g: GroupId, bytes: u64, act: Activity) -> SimResult<SimTime> {
        self.allreduce_groups(&[g], bytes, act)
    }

    /// Probe the inter link between two view groups (see
    /// [`NetSim::probe_inter`]). The probe prices the substrate's link — on
    /// a congested shared substrate a tenant's α/β estimates see co-tenant
    /// weather.
    pub fn probe_inter(
        &mut self,
        a: GroupId,
        b: GroupId,
        est: &mut LinkEstimator,
        deadline: Option<SimTime>,
    ) -> SimResult<ProbeSample> {
        let (ga, gb) = (self.group_map[a.0], self.group_map[b.0]);
        self.handle.with(|s| s.probe_inter(ga, gb, est, deadline))
    }

    /// Advance this view's procs to their common maximum and return it.
    pub fn finish(&mut self) -> SimTime {
        self.barrier_all()
    }

    /// Re-point view group `local` at global group `new_global` — the
    /// substrate half of a whole-tenant migration. The destination must
    /// have the same proc count as the view group (the tenant's partition
    /// maps procs by position).
    ///
    /// Note the view's system is *not* rebuilt: the view keeps its original
    /// group name, weights, and link parameters for cost modeling, while
    /// the charges land on the new global procs/links. The tenants service
    /// keeps this honest by migrating only between homogeneous groups.
    pub fn remap_group(&mut self, local: GroupId, new_global: GroupId) {
        let new_procs = self
            .handle
            .with(|s| s.system().procs_in(new_global).to_vec());
        let local_procs = self.sys.procs_in(local);
        assert_eq!(
            local_procs.len(),
            new_procs.len(),
            "remap_group: proc count mismatch"
        );
        for (lp, gp) in local_procs.iter().zip(new_procs) {
            self.proc_map[lp.0] = gp;
        }
        self.group_map[local.0] = new_global;
    }

    /// The view's local→global group mapping.
    pub fn group_mapping(&self) -> Vec<GroupId> {
        self.group_map.clone()
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

    /// The raw-`NetSim` reference: a view over its own substrate charges
    /// exactly what a bare simulator does.
    #[test]
    fn owning_view_matches_raw_netsim() {
        let sys = substrate(2, 2);
        let mut raw = NetSim::new(sys.clone());
        let mut view = SimView::new(sys);
        raw.compute(ProcId(0), 0.5);
        view.compute(ProcId(0), 0.5);
        raw.send(ProcId(0), ProcId(2), 123_456, Activity::RemoteComm)
            .unwrap();
        view.send(ProcId(0), ProcId(2), 123_456, Activity::RemoteComm)
            .unwrap();
        raw.allreduce_all(64, Activity::LoadBalance).unwrap();
        view.allreduce_all(64, Activity::LoadBalance).unwrap();
        raw.compute(ProcId(3), 0.25);
        view.compute(ProcId(3), 0.25);
        assert_eq!(raw.finish(), view.finish());
        for p in 0..4 {
            assert_eq!(raw.now(ProcId(p)), view.now(ProcId(p)));
            assert_eq!(raw.stats().procs[p], view.stats().procs[p]);
        }
        assert_eq!(raw.stats().msgs, view.stats().msgs);
    }

    #[test]
    fn owning_view_keeps_the_system_as_given() {
        let sys = topology::presets::federation(16, 2, 7);
        let v = SimView::new(sys.clone());
        assert!(sys.tiers().is_some());
        assert_eq!(
            format!("{:?}", v.system().tiers()),
            format!("{:?}", sys.tiers())
        );
        assert_eq!(v.system().describe(), sys.describe());
    }

    #[test]
    fn owning_view_hands_its_telemetry_to_the_substrate() {
        let (tel, sink) = Telemetry::recording_shared();
        let mut v = SimView::new(substrate(2, 2));
        v.set_telemetry(tel);
        v.send(ProcId(0), ProcId(2), 1_000, Activity::RemoteComm)
            .unwrap();
        let events = sink.lock().unwrap().events();
        assert!(
            events.iter().any(|e| matches!(
                &e.kind,
                telemetry::EventKind::Transfer(t) if t.src == 0 && t.dst == 2 && !t.failed
            )),
            "{events:?}"
        );
    }

    #[test]
    fn shared_view_telemetry_leaves_the_substrate_alone() {
        let handle = SimHandle::new(substrate(2, 2));
        let mut v = handle.view(&[GroupId(0), GroupId(1)]);
        v.set_telemetry(Telemetry::recording());
        assert!(v.telemetry().is_enabled());
        assert!(!handle.with(|s| s.telemetry().is_enabled()));
    }

    #[test]
    fn owning_view_send_to_a_crashed_proc_fails_fast() {
        let mut v = SimView::new(substrate(2, 2));
        // proc 1 is down for the first 10 s
        v.set_proc_faults(ProcFaultSchedule::none(4).with_crash(
            1,
            SimTime::ZERO,
            SimTime::from_secs(10),
        ));
        assert!(v.has_proc_faults());
        assert!(!v.alive_at(ProcId(1), v.elapsed()));
        assert_eq!(v.alive_procs_in(GroupId(0)), vec![ProcId(0)]);
        let err = v
            .send(ProcId(0), ProcId(1), 1_000_000, Activity::LocalComm)
            .unwrap_err();
        assert!(matches!(err, crate::SimError::PeerDead { .. }), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "proc faults on a shared view")]
    fn shared_view_cannot_carry_proc_faults() {
        let handle = SimHandle::new(substrate(2, 2));
        let mut v = handle.view(&[GroupId(0)]);
        v.set_proc_faults(ProcFaultSchedule::none(2));
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
        a.send(ProcId(0), ProcId(2), 1_000_000, Activity::RemoteComm)
            .unwrap();
        b.send(ProcId(1), ProcId(3), 1_000_000, Activity::RemoteComm)
            .unwrap();
        // second transfer had to queue behind the first on the global wan
        let t = b.now(ProcId(3)).as_secs_f64();
        assert!((t - 0.22).abs() < 1e-6, "{t}");
    }

    #[test]
    fn disjoint_views_do_not_contend() {
        let handle = SimHandle::new(substrate(4, 2));
        let mut a = handle.view(&[GroupId(0), GroupId(1)]);
        let mut b = handle.view(&[GroupId(2), GroupId(3)]);
        a.send(ProcId(0), ProcId(2), 1_000_000, Activity::RemoteComm)
            .unwrap();
        b.send(ProcId(0), ProcId(2), 1_000_000, Activity::RemoteComm)
            .unwrap();
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
