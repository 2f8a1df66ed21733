//! The virtual-time execution simulator.
//!
//! Every processor carries a local clock; compute blocks advance one clock,
//! messages advance sender and receiver and serialize on their physical
//! link (a shared link is busy while a transfer is in flight, so concurrent
//! transfers queue — contention among the application's own messages). On
//! top of that, each link's *background* traffic (other grid users) scales
//! its effective bandwidth at the transfer's start time.
//!
//! Links may also carry a fault schedule. A transfer that starts on (or
//! runs into) an outage, blackhole, or large-message-drop window fails with
//! a typed [`SimError`] instead of silently succeeding; the endpoint clocks
//! are advanced to the moment the failure was *detected*, so wasted time is
//! fully accounted.
//!
//! The model is BSP/LogP-flavoured rather than packet-level: exact enough to
//! reproduce who-waits-for-what and how shared-WAN slowness scales, while
//! staying deterministic and fast.

use crate::error::{SimError, SimResult};
use crate::stats::{Activity, SimStats};
use telemetry::{EventKind, PredictorSwitchEvent, ProbeEvent, Telemetry, TransferEvent};
use topology::faults::FaultKind;
use topology::link::Link;
use topology::{DistributedSystem, GroupId, ProcFaultSchedule, ProcId, SimTime};

/// Physical link identity for contention tracking.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum LinkKey {
    Intra(usize),
    Inter(usize, usize),
}

/// Virtual-time simulator over a [`DistributedSystem`].
#[derive(Clone, Debug)]
pub struct NetSim {
    sys: DistributedSystem,
    clocks: Vec<SimTime>,
    link_free: std::collections::BTreeMap<LinkKey, SimTime>,
    stats: SimStats,
    /// How long a sender waits on a blackholed link (or a transfer with no
    /// explicit deadline) before declaring a timeout: 5 s, shortened only
    /// by tests.
    default_timeout: SimTime,
    /// Observability handle; [`Telemetry::null`] by default, which makes
    /// every recording call a no-op. Recording never touches clocks, link
    /// state or statistics — a recorded run is bit-identical to a null one.
    telemetry: Telemetry,
    /// Crash-stop process failure schedule; quiet by default. Liveness is
    /// a pure function of simulated time, so detection needs no extra
    /// state: a send touching a dead endpoint fails fast, while
    /// collectives proceed over whoever is scheduled in (crashed procs'
    /// clocks keep advancing — they model the *slot*, not the host).
    proc_faults: ProcFaultSchedule,
}

impl NetSim {
    /// A fresh simulator with all clocks at zero.
    pub fn new(sys: DistributedSystem) -> Self {
        let n = sys.nprocs();
        NetSim {
            sys,
            clocks: vec![SimTime::ZERO; n],
            link_free: std::collections::BTreeMap::new(),
            stats: SimStats::new(n),
            default_timeout: SimTime::from_secs(5),
            telemetry: Telemetry::null(),
            proc_faults: ProcFaultSchedule::default(),
        }
    }

    /// Attach a crash-stop process failure schedule (pass
    /// [`ProcFaultSchedule::none`] or the default to clear it).
    pub fn set_proc_faults(&mut self, sched: ProcFaultSchedule) {
        self.proc_faults = sched;
    }

    /// Is any proc-crash window scheduled at all?
    pub fn has_proc_faults(&self) -> bool {
        !self.proc_faults.is_quiet()
    }

    /// The attached proc-fault schedule (quiet by default).
    pub fn proc_faults(&self) -> &ProcFaultSchedule {
        &self.proc_faults
    }

    /// Is `p` alive at simulated time `t` under the proc-fault schedule?
    pub fn alive_at(&self, p: ProcId, t: SimTime) -> bool {
        self.proc_faults.alive_at(p.0, t)
    }

    /// The procs of group `g` that are alive at the current wall-clock.
    pub fn alive_procs_in(&self, g: GroupId) -> Vec<ProcId> {
        let t = self.elapsed();
        self.sys
            .procs_in(g)
            .iter()
            .copied()
            .filter(|&p| self.alive_at(p, t))
            .collect()
    }

    /// Sum of performance weights of group `g`'s *alive* procs — the
    /// capacity the balancer should price for a shrunken group.
    pub fn alive_group_power(&self, g: GroupId) -> f64 {
        let t = self.elapsed();
        self.sys
            .procs_in(g)
            .iter()
            .filter(|&&p| self.alive_at(p, t))
            .map(|&p| self.sys.proc(p).weight)
            .sum()
    }

    /// Attach a telemetry handle (pass [`Telemetry::null`] to detach).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.telemetry = tel;
    }

    /// The attached telemetry handle (null unless one was set).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The system being simulated.
    pub fn system(&self) -> &DistributedSystem {
        &self.sys
    }

    /// Local clock of processor `p`.
    pub fn now(&self, p: ProcId) -> SimTime {
        self.clocks[p.0]
    }

    /// Wall-clock so far: the maximum processor clock.
    pub fn elapsed(&self) -> SimTime {
        *self.clocks.iter().max().expect("no processors")
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Zero all clocks, link-busy state and statistics — used to exclude
    /// setup work from a measured run.
    pub fn reset(&mut self) {
        self.clocks.fill(SimTime::ZERO);
        self.link_free.clear();
        self.stats = SimStats::new(self.sys.nprocs());
        // exclude pre-reset setup work from the recorded trace too
        self.telemetry.clear();
    }

    fn advance(&mut self, p: ProcId, to: SimTime, act: Activity) {
        let cur = self.clocks[p.0];
        if to > cur {
            self.stats.procs[p.0].charge(act, to - cur);
            self.clocks[p.0] = to;
        }
    }

    /// Processor `p` computes for `secs` seconds of simulated time.
    pub fn compute(&mut self, p: ProcId, secs: f64) {
        let to = self.clocks[p.0] + SimTime::from_secs_f64(secs);
        self.advance(p, to, Activity::Compute);
    }

    /// Processor `p` is busy for `secs` seconds attributed to `act` — used
    /// for non-solver local work such as regridding or repartitioning.
    pub fn busy(&mut self, p: ProcId, secs: f64, act: Activity) {
        let to = self.clocks[p.0] + SimTime::from_secs_f64(secs);
        self.advance(p, to, act);
    }

    fn link_key(&self, a: ProcId, b: ProcId) -> LinkKey {
        let ga = self.sys.group_of(a);
        let gb = self.sys.group_of(b);
        if ga == gb {
            LinkKey::Intra(ga.0)
        } else {
            LinkKey::Inter(ga.0.min(gb.0), ga.0.max(gb.0))
        }
    }

    /// Is the `src → dst` path remote (crosses groups)?
    pub fn is_remote(&self, src: ProcId, dst: ProcId) -> bool {
        !self.sys.same_group(src, dst)
    }

    /// Send `bytes` from `src` to `dst`, attributing the time to `act`
    /// (commonly [`Activity::LocalComm`]/[`Activity::RemoteComm`] — pass
    /// [`Activity::LoadBalance`] for migration traffic). Returns the
    /// completion time. Sender and receiver both block until completion
    /// (rendezvous semantics, as for large MPI messages); on failure both
    /// block until the failure was detected.
    ///
    /// A zero-byte send still pays latency — it is a control message.
    pub fn send(&mut self, src: ProcId, dst: ProcId, bytes: u64, act: Activity) -> SimResult<SimTime> {
        self.send_with_deadline(src, dst, bytes, act, None)
    }

    /// [`send`](Self::send) with an absolute per-transfer deadline: if the
    /// transfer would not complete by `deadline`, both ends give up there
    /// and the call returns [`SimError::Timeout`].
    pub fn send_with_deadline(
        &mut self,
        src: ProcId,
        dst: ProcId,
        bytes: u64,
        act: Activity,
        deadline: Option<SimTime>,
    ) -> SimResult<SimTime> {
        if src == dst {
            return Ok(self.clocks[src.0]); // same address space: free
        }
        // a borrow: the link (name, fault windows, traffic trace) is too
        // big to copy per message
        let link = self.sys.link_between(src, dst);
        let alpha = link.alpha();
        let key = self.link_key(src, dst);
        let ready = self.clocks[src.0].max(self.clocks[dst.0]);
        let free = self.link_free.get(&key).copied().unwrap_or(SimTime::ZERO);
        let start = ready.max(free);
        // crash-stop endpoint: the live side gets a round trip of silence,
        // then learns the peer is dead — fail fast, don't tie up the link
        if !self.alive_at(src, start) || !self.alive_at(dst, start) {
            let at = start + alpha + alpha;
            return Err(self.fail_transfer_at(src, dst, key, bytes, start, at, act, |at| {
                SimError::PeerDead { at }
            }));
        }
        let finish = start + link.transfer_time(start, bytes);
        let disruption = link.faults.first_disruption_in(start, finish, bytes);
        // a deadline that expires before the fault bites fires first
        let deadline_violation = deadline.filter(|&dl| finish > dl);
        if let Some(dl) = deadline_violation {
            let fault_first = matches!(disruption, Some((tf, _)) if tf < dl);
            if !fault_first {
                return Err(self.fail_transfer_at(src, dst, key, bytes, start, dl.max(start), act, |at| {
                    SimError::Timeout { at, deadline: dl }
                }));
            }
        }
        if let Some((tf, kind)) = disruption {
            return Err(self.fail_transfer(src, dst, key, alpha, bytes, start, finish, tf, kind, deadline, act));
        }
        self.link_free.insert(key, finish);
        // receiver waits for the data; sender blocks in rendezvous
        self.advance(src, finish, act);
        self.advance(dst, finish, act);
        let remote = matches!(key, LinkKey::Inter(_, _));
        if remote {
            self.stats.msgs.remote_msgs += 1;
            self.stats.msgs.remote_bytes += bytes;
        } else {
            self.stats.msgs.local_msgs += 1;
            self.stats.msgs.local_bytes += bytes;
        }
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                finish.as_secs_f64(),
                EventKind::Transfer(TransferEvent {
                    src: src.0,
                    dst: dst.0,
                    bytes,
                    queue_secs: (start - ready).as_secs_f64(),
                    transfer_secs: (finish - start).as_secs_f64(),
                    remote,
                    failed: false,
                }),
            );
        }
        Ok(finish)
    }

    /// Common bookkeeping for a transfer that dies at `at`: the link is
    /// held until the failure, both endpoints block until they learn of it,
    /// and the attempt is counted as a failed message.
    #[allow(clippy::too_many_arguments)]
    fn fail_transfer_at(
        &mut self,
        src: ProcId,
        dst: ProcId,
        key: LinkKey,
        bytes: u64,
        start: SimTime,
        at: SimTime,
        act: Activity,
        err: impl FnOnce(SimTime) -> SimError,
    ) -> SimError {
        // pre-advance clocks still hold the rendezvous-ready time
        let ready = self.clocks[src.0].max(self.clocks[dst.0]);
        if at > start {
            self.link_free.insert(key, at);
        }
        self.advance(src, at, act);
        self.advance(dst, at, act);
        self.stats.msgs.failed_msgs += 1;
        self.stats.msgs.failed_bytes += bytes;
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                at.as_secs_f64(),
                EventKind::Transfer(TransferEvent {
                    src: src.0,
                    dst: dst.0,
                    bytes,
                    queue_secs: (start.max(ready) - ready).as_secs_f64(),
                    transfer_secs: (at.max(start) - start).as_secs_f64(),
                    remote: matches!(key, LinkKey::Inter(_, _)),
                    failed: true,
                }),
            );
        }
        err(at)
    }

    /// Turn a fault-window disruption into the right [`SimError`].
    #[allow(clippy::too_many_arguments)]
    fn fail_transfer(
        &mut self,
        src: ProcId,
        dst: ProcId,
        key: LinkKey,
        alpha: SimTime,
        bytes: u64,
        start: SimTime,
        finish: SimTime,
        tf: SimTime,
        kind: FaultKind,
        deadline: Option<SimTime>,
        act: Activity,
    ) -> SimError {
        match kind {
            // down before the first byte: the sender detects the dead peer
            // after a round trip of silence
            FaultKind::Outage if tf <= start => {
                let at = start + alpha + alpha;
                self.fail_transfer_at(src, dst, key, bytes, start, at, act, |at| {
                    SimError::LinkDown { at }
                })
            }
            // blackhole: the transfer hangs until its deadline
            FaultKind::Blackhole => {
                let dl = deadline
                    .unwrap_or(start + self.default_timeout)
                    .max(start);
                self.fail_transfer_at(src, dst, key, bytes, start, dl, act, |at| {
                    SimError::Timeout { at, deadline: dl }
                })
            }
            // cut mid-flight: a fraction of the payload arrived
            FaultKind::Outage | FaultKind::DropLarge { .. } => {
                let at = tf.max(start + alpha).min(finish);
                let span = (finish - start).as_nanos();
                let frac = if span == 0 {
                    1.0
                } else {
                    (at - start).as_nanos() as f64 / span as f64
                };
                let sent = ((bytes as f64 * frac) as u64).min(bytes.saturating_sub(1));
                self.fail_transfer_at(src, dst, key, bytes, start, at, act, |at| {
                    SimError::PartialTransfer {
                        at,
                        sent,
                        total: bytes,
                    }
                })
            }
            FaultKind::Slowdown { .. } => {
                unreachable!("slowdowns are priced into bandwidth, never disruptive")
            }
        }
    }

    /// Synchronize a set of processors: all clocks jump to the set's max;
    /// the slack is charged as `act` (normally [`Activity::Wait`]).
    pub fn sync(&mut self, procs: &[ProcId], act: Activity) -> SimTime {
        let t = procs
            .iter()
            .map(|p| self.clocks[p.0])
            .max()
            .unwrap_or(SimTime::ZERO);
        for &p in procs {
            self.advance(p, t, act);
        }
        t
    }

    /// Barrier over every processor.
    pub fn barrier_all(&mut self) -> SimTime {
        let all: Vec<ProcId> = (0..self.sys.nprocs()).map(ProcId).collect();
        self.sync(&all, Activity::Wait)
    }

    /// A collective failed because the link between `a` and `b` is
    /// unusable: charge all `procs` a round trip of detection silence on
    /// that link, then report the failure.
    fn fail_collective(
        &mut self,
        procs: &[ProcId],
        link: &Link,
        t0: SimTime,
        a: GroupId,
        b: GroupId,
        act: Activity,
    ) -> SimError {
        let at = t0 + link.alpha() + link.alpha();
        for &p in procs {
            self.advance(p, at, act);
        }
        self.stats.msgs.failed_msgs += 1;
        SimError::CollectiveFailed {
            at,
            group_a: a.0,
            group_b: b.0,
        }
    }

    /// Allreduce of `bytes` over every processor, charged to `act`.
    ///
    /// Model: synchronize; recursive-doubling inside each group
    /// (`2·⌈log₂ n_g⌉` intra messages deep); for multi-group systems a
    /// reduce-exchange-broadcast over the inter links (2 messages deep on the
    /// slowest inter link). The whole operation completes simultaneously on
    /// all participants. Fails with [`SimError::CollectiveFailed`] if any
    /// needed inter link is down or blackholed when the exchange reaches it.
    pub fn allreduce_all(&mut self, bytes: u64, act: Activity) -> SimResult<SimTime> {
        let groups: Vec<GroupId> = (0..self.sys.ngroups()).map(GroupId).collect();
        self.allreduce_groups(&groups, bytes, act)
    }

    /// Allreduce of `bytes` over the processors of the listed groups only —
    /// the degraded-mode collective used while some groups are quarantined.
    pub fn allreduce_groups(
        &mut self,
        groups: &[GroupId],
        bytes: u64,
        act: Activity,
    ) -> SimResult<SimTime> {
        let procs: Vec<ProcId> = groups
            .iter()
            .flat_map(|&g| self.sys.procs_in(g).iter().copied())
            .collect();
        let t0 = self.sync(&procs, Activity::Wait);
        let mut dur = SimTime::ZERO;
        for &gid in groups {
            let g = self.sys.group(gid);
            let rounds = (g.nprocs() as f64).log2().ceil() as u32;
            let per = g.intra.transfer_time(t0, bytes);
            let d = SimTime(per.as_nanos() * 2 * rounds as u64);
            dur = dur.max(d);
        }
        if groups.len() > 1 {
            let t_inter = t0 + dur;
            // every needed pairwise link must be usable when the exchange
            // reaches it; the link is only cloned on the failure path, so
            // the healthy pass over G² pairs stays allocation-free
            let mut inter_d = SimTime::ZERO;
            for (i, &a) in groups.iter().enumerate() {
                for &b in &groups[i + 1..] {
                    let l = self.sys.inter_link(a, b);
                    if !l.health_at(t_inter).passes_probes() {
                        let l = l.clone();
                        return Err(self.fail_collective(&procs, &l, t_inter, a, b, act));
                    }
                    let per = l.transfer_time(t_inter, bytes);
                    inter_d = inter_d.max(SimTime(per.as_nanos() * 2));
                }
            }
            dur += inter_d;
        }
        let t1 = t0 + dur;
        for &p in &procs {
            self.advance(p, t1, act);
        }
        Ok(t1)
    }

    /// Allreduce of `bytes` within one group only.
    pub fn allreduce_group(&mut self, g: GroupId, bytes: u64, act: Activity) -> SimResult<SimTime> {
        self.allreduce_groups(&[g], bytes, act)
    }

    /// Probe the inter-group link between `a` and `b` with the two-message
    /// scheme of §4.2, performed by each group's first processor; the probe's
    /// simulated duration is charged to both as load-balance overhead. On
    /// failure the estimator keeps its previous α/β, the leaders are charged
    /// the wasted detection time, and the typed error is returned. An optional
    /// absolute `deadline` bounds the probe's completion.
    pub fn probe_inter(
        &mut self,
        a: GroupId,
        b: GroupId,
        est: &mut topology::LinkEstimator,
        deadline: Option<SimTime>,
    ) -> SimResult<topology::ProbeSample> {
        // each side's leader is its first *alive* proc; if a whole group
        // is down the nominal leader stands in (probe outcome is then
        // decided by the link model alone)
        let lead = |sim: &Self, g: GroupId| {
            let t = sim.elapsed();
            sim.sys
                .procs_in(g)
                .iter()
                .copied()
                .find(|&p| sim.alive_at(p, t))
                .unwrap_or(sim.sys.procs_in(g)[0])
        };
        let pa = lead(self, a);
        let pb = lead(self, b);
        let t0 = self.clocks[pa.0].max(self.clocks[pb.0]);
        match topology::probe_link(self.sys.inter_link(a, b), t0, est.small, est.large) {
            Ok(sample) => {
                let t1 = t0 + sample.elapsed;
                if let Some(dl) = deadline {
                    if t1 > dl {
                        let at = dl.max(t0);
                        self.advance(pa, at, Activity::LoadBalance);
                        self.advance(pb, at, Activity::LoadBalance);
                        self.stats.msgs.failed_msgs += 1;
                        return Err(SimError::Timeout { at, deadline: dl });
                    }
                }
                // capture the estimator's view *before* folding the sample,
                // so the trace shows predicted-vs-measured drift
                let tel_on = self.telemetry.is_enabled();
                let (pred_alpha, pred_beta, model_before) = if tel_on {
                    (est.alpha(), est.beta(), Some(est.model_name()))
                } else {
                    (None, None, None)
                };
                est.observe(t0, &sample);
                self.advance(pa, t1, Activity::LoadBalance);
                self.advance(pb, t1, Activity::LoadBalance);
                if tel_on {
                    let t_sim = t1.as_secs_f64();
                    let model_after = est.model_name();
                    if let Some(before) = model_before {
                        if before != model_after {
                            self.telemetry.event(
                                t_sim,
                                EventKind::PredictorSwitch(PredictorSwitchEvent {
                                    series: format!("beta:g{}-g{}", a.0, b.0),
                                    from: before,
                                    to: model_after,
                                }),
                            );
                        }
                    }
                    self.telemetry.event(
                        t_sim,
                        EventKind::Probe(ProbeEvent {
                            group_a: a.0,
                            group_b: b.0,
                            alpha_secs: sample.alpha,
                            beta_secs_per_byte: sample.beta,
                            predicted_alpha_secs: pred_alpha,
                            predicted_beta_secs_per_byte: pred_beta,
                            elapsed_secs: sample.elapsed.as_secs_f64(),
                        }),
                    );
                    // per-link α/β estimate series, and the prediction
                    // error once the estimator has a view to score
                    let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
                    self.telemetry
                        .metric(t_sim, &format!("alpha:g{lo}-g{hi}"), sample.alpha);
                    self.telemetry
                        .metric(t_sim, &format!("beta:g{lo}-g{hi}"), sample.beta);
                    if let (Some(pa), Some(pb)) = (pred_alpha, pred_beta) {
                        self.telemetry.metric(
                            t_sim,
                            &format!("alpha_abs_err:g{lo}-g{hi}"),
                            (sample.alpha - pa).abs(),
                        );
                        self.telemetry.metric(
                            t_sim,
                            &format!("beta_abs_err:g{lo}-g{hi}"),
                            (sample.beta - pb).abs(),
                        );
                    }
                }
                Ok(sample)
            }
            Err(e) => {
                let at = match e {
                    // no reply: wait out the timeout
                    topology::ProbeError::NoReply => {
                        deadline.unwrap_or(t0 + self.default_timeout).max(t0)
                    }
                    // down or degenerate: a round trip of silence
                    _ => {
                        let alpha = self.sys.inter_link(a, b).alpha();
                        t0 + alpha + alpha
                    }
                };
                self.advance(pa, at, Activity::LoadBalance);
                self.advance(pb, at, Activity::LoadBalance);
                self.stats.msgs.failed_msgs += 1;
                Err(SimError::Probe { at, source: e })
            }
        }
    }

    /// Advance every clock to the current maximum and return it — used at
    /// the end of a run so idle processors account their trailing wait.
    pub fn finish(&mut self) -> SimTime {
        self.barrier_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::faults::{FaultKind, FaultSchedule, ProcFaultSchedule};
    use topology::link::Link;
    use topology::SystemBuilder;

    fn sys2x2() -> DistributedSystem {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(10), 1e7);
        SystemBuilder::new()
            .group("A", 2, 1.0, intra.clone())
            .group("B", 2, 1.0, intra)
            .connect(0, 1, wan)
            .build()
    }

    fn sys2x2_faulty(sched: FaultSchedule) -> DistributedSystem {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(10), 1e7).with_faults(sched);
        SystemBuilder::new()
            .group("A", 2, 1.0, intra.clone())
            .group("B", 2, 1.0, intra)
            .connect(0, 1, wan)
            .build()
    }

    #[test]
    fn compute_advances_only_one_clock() {
        let mut sim = NetSim::new(sys2x2());
        sim.compute(ProcId(0), 2.0);
        assert_eq!(sim.now(ProcId(0)), SimTime::from_secs(2));
        assert_eq!(sim.now(ProcId(1)), SimTime::ZERO);
        assert_eq!(sim.elapsed(), SimTime::from_secs(2));
        assert_eq!(sim.stats().procs[0].compute, SimTime::from_secs(2));
    }

    #[test]
    fn send_blocks_both_ends() {
        let mut sim = NetSim::new(sys2x2());
        sim.send(ProcId(0), ProcId(1), 1_000_000, Activity::LocalComm)
            .unwrap(); // local: 10us + 1ms
        let t = sim.now(ProcId(0));
        assert_eq!(t, sim.now(ProcId(1)));
        assert!((t.as_secs_f64() - 0.00101).abs() < 1e-9);
        assert_eq!(sim.stats().msgs.local_msgs, 1);
        assert_eq!(sim.stats().msgs.remote_msgs, 0);
    }

    #[test]
    fn remote_send_classified_and_slow() {
        let mut sim = NetSim::new(sys2x2());
        sim.send(ProcId(0), ProcId(2), 1_000_000, Activity::RemoteComm)
            .unwrap(); // wan: 10ms + 100ms
        let t = sim.now(ProcId(2)).as_secs_f64();
        assert!((t - 0.11).abs() < 1e-9, "{t}");
        assert_eq!(sim.stats().msgs.remote_msgs, 1);
        assert!(sim.stats().procs[0].remote_comm > SimTime::ZERO);
        assert_eq!(sim.stats().procs[0].local_comm, SimTime::ZERO);
    }

    #[test]
    fn self_send_free() {
        let mut sim = NetSim::new(sys2x2());
        sim.send(ProcId(1), ProcId(1), 1 << 30, Activity::LocalComm)
            .unwrap();
        assert_eq!(sim.elapsed(), SimTime::ZERO);
        assert_eq!(sim.stats().msgs.local_msgs, 0);
    }

    #[test]
    fn link_contention_serializes() {
        let mut sim = NetSim::new(sys2x2());
        // two disjoint proc pairs share the single wan link
        sim.send(ProcId(0), ProcId(2), 1_000_000, Activity::RemoteComm)
            .unwrap();
        sim.send(ProcId(1), ProcId(3), 1_000_000, Activity::RemoteComm)
            .unwrap();
        // second transfer had to wait for the first: ~0.11 + 0.11
        let t = sim.now(ProcId(3)).as_secs_f64();
        assert!((t - 0.22).abs() < 1e-6, "{t}");
        // but intra transfers in different groups don't contend
        let mut sim2 = NetSim::new(sys2x2());
        sim2.send(ProcId(0), ProcId(1), 1_000_000, Activity::LocalComm)
            .unwrap();
        sim2.send(ProcId(2), ProcId(3), 1_000_000, Activity::LocalComm)
            .unwrap();
        assert_eq!(sim2.now(ProcId(1)), sim2.now(ProcId(3)));
    }

    #[test]
    fn sync_charges_wait_to_laggards() {
        let mut sim = NetSim::new(sys2x2());
        sim.compute(ProcId(0), 5.0);
        sim.barrier_all();
        assert_eq!(sim.now(ProcId(3)), SimTime::from_secs(5));
        assert_eq!(sim.stats().procs[3].wait, SimTime::from_secs(5));
        assert_eq!(sim.stats().procs[0].wait, SimTime::ZERO);
    }

    #[test]
    fn group_sync_leaves_other_group_alone() {
        let mut sim = NetSim::new(sys2x2());
        sim.compute(ProcId(0), 3.0);
        sim.sync(&[ProcId(0), ProcId(1)], Activity::Wait);
        assert_eq!(sim.now(ProcId(1)), SimTime::from_secs(3));
        assert_eq!(sim.now(ProcId(2)), SimTime::ZERO);
    }

    #[test]
    fn allreduce_all_costs_more_than_group() {
        let mut a = NetSim::new(sys2x2());
        a.allreduce_all(64, Activity::LoadBalance).unwrap();
        let ta = a.elapsed();
        let mut b = NetSim::new(sys2x2());
        b.allreduce_group(GroupId(0), 64, Activity::LoadBalance).unwrap();
        let tb = b.elapsed();
        assert!(ta > tb, "{ta:?} vs {tb:?}");
        // all-proc allreduce pays the WAN: >= 2 * 10ms
        assert!(ta >= SimTime::from_millis(20));
        // group allreduce never does
        assert!(tb < SimTime::from_millis(1));
    }

    #[test]
    fn allreduce_synchronizes_everyone() {
        let mut sim = NetSim::new(sys2x2());
        sim.compute(ProcId(2), 1.0);
        sim.allreduce_all(8, Activity::LoadBalance).unwrap();
        let t = sim.now(ProcId(0));
        for p in 0..4 {
            assert_eq!(sim.now(ProcId(p)), t);
        }
        assert!(t > SimTime::from_secs(1));
    }

    #[test]
    fn probe_charges_lb_overhead_to_leaders() {
        let mut sim = NetSim::new(sys2x2());
        let mut est = topology::LinkEstimator::paper_default();
        let s = sim.probe_inter(GroupId(0), GroupId(1), &mut est, None).unwrap();
        assert!(est.alpha().is_some());
        assert!(s.elapsed > SimTime::ZERO);
        assert!(sim.stats().procs[0].load_balance > SimTime::ZERO);
        assert!(sim.stats().procs[2].load_balance > SimTime::ZERO);
        assert_eq!(sim.stats().procs[1].load_balance, SimTime::ZERO);
        // estimator recovered wan alpha ~ 10ms
        assert!((est.alpha().unwrap() - 0.01).abs() < 1e-4);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut sim = NetSim::new(sys2x2());
            sim.compute(ProcId(0), 0.5);
            sim.send(ProcId(0), ProcId(2), 123_456, Activity::RemoteComm)
                .unwrap();
            sim.allreduce_all(64, Activity::LoadBalance).unwrap();
            sim.compute(ProcId(3), 0.25);
            sim.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn send_on_down_link_fails_fast() {
        let sched = FaultSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_secs(100),
            FaultKind::Outage,
        );
        let mut sim = NetSim::new(sys2x2_faulty(sched));
        let err = sim
            .send(ProcId(0), ProcId(2), 1_000_000, Activity::RemoteComm)
            .unwrap_err();
        assert!(matches!(err, SimError::LinkDown { .. }), "{err:?}");
        // both ends paid the 2·α detection time (20 ms wan RTT)
        assert_eq!(sim.now(ProcId(0)), SimTime::from_millis(20));
        assert_eq!(sim.now(ProcId(2)), SimTime::from_millis(20));
        assert_eq!(sim.stats().msgs.failed_msgs, 1);
        assert_eq!(sim.stats().msgs.remote_msgs, 0);
        // intra traffic is unaffected
        assert!(sim
            .send(ProcId(0), ProcId(1), 1_000, Activity::LocalComm)
            .is_ok());
    }

    #[test]
    fn blackhole_hangs_until_default_timeout() {
        let sched = FaultSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_secs(100),
            FaultKind::Blackhole,
        );
        let mut sim = NetSim::new(sys2x2_faulty(sched));
        sim.default_timeout = SimTime::from_secs(2);
        let err = sim
            .send(ProcId(0), ProcId(2), 1_000_000, Activity::RemoteComm)
            .unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "{err:?}");
        assert_eq!(sim.now(ProcId(0)), SimTime::from_secs(2));
    }

    #[test]
    fn explicit_deadline_beats_slow_transfer() {
        // healthy link but 110 ms transfer vs a 50 ms deadline
        let mut sim = NetSim::new(sys2x2());
        let err = sim
            .send_with_deadline(
                ProcId(0),
                ProcId(2),
                1_000_000,
                Activity::LoadBalance,
                Some(SimTime::from_millis(50)),
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Timeout {
                at: SimTime::from_millis(50),
                deadline: SimTime::from_millis(50)
            }
        );
        assert_eq!(sim.now(ProcId(0)), SimTime::from_millis(50));
        // a generous deadline passes
        let mut sim2 = NetSim::new(sys2x2());
        assert!(sim2
            .send_with_deadline(
                ProcId(0),
                ProcId(2),
                1_000_000,
                Activity::LoadBalance,
                Some(SimTime::from_secs(1)),
            )
            .is_ok());
    }

    #[test]
    fn mid_flight_outage_is_partial_transfer() {
        // transfer runs 10ms..110ms; outage opens at 60 ms
        let sched = FaultSchedule::none().with_window(
            SimTime::from_millis(60),
            SimTime::from_secs(100),
            FaultKind::Outage,
        );
        let mut sim = NetSim::new(sys2x2_faulty(sched));
        let err = sim
            .send(ProcId(0), ProcId(2), 1_000_000, Activity::RemoteComm)
            .unwrap_err();
        match err {
            SimError::PartialTransfer { at, sent, total } => {
                assert_eq!(at, SimTime::from_millis(60));
                assert_eq!(total, 1_000_000);
                assert!(sent > 0 && sent < total, "sent {sent}");
            }
            other => panic!("expected partial transfer, got {other:?}"),
        }
        assert_eq!(sim.now(ProcId(2)), SimTime::from_millis(60));
    }

    #[test]
    fn drop_large_spares_small_messages() {
        let sched = FaultSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_secs(100),
            FaultKind::DropLarge {
                threshold_bytes: 64 * 1024,
            },
        );
        let mut sim = NetSim::new(sys2x2_faulty(sched));
        // a probe-sized message crosses fine
        assert!(sim
            .send(ProcId(0), ProcId(2), 1 << 10, Activity::RemoteComm)
            .is_ok());
        // a bulk migration does not
        let err = sim
            .send(ProcId(0), ProcId(2), 1 << 20, Activity::RemoteComm)
            .unwrap_err();
        assert!(matches!(err, SimError::PartialTransfer { .. }), "{err:?}");
    }

    #[test]
    fn failed_collective_reports_pair() {
        let sched = FaultSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_secs(100),
            FaultKind::Outage,
        );
        let mut sim = NetSim::new(sys2x2_faulty(sched));
        let err = sim.allreduce_all(64, Activity::LoadBalance).unwrap_err();
        assert!(
            matches!(err, SimError::CollectiveFailed { group_a: 0, group_b: 1, .. }),
            "{err:?}"
        );
        // intra-group collectives still work
        assert!(sim.allreduce_group(GroupId(0), 64, Activity::LoadBalance).is_ok());
        // and the degraded-mode collective over one healthy group works
        assert!(sim
            .allreduce_groups(&[GroupId(0)], 64, Activity::LoadBalance)
            .is_ok());
    }

    #[test]
    fn probe_inter_fails_without_folding_a_sample() {
        let sched = FaultSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_secs(50),
            FaultKind::Outage,
        );
        let mut sim = NetSim::new(sys2x2_faulty(sched));
        let mut est = topology::LinkEstimator::paper_default();
        let err = sim
            .probe_inter(GroupId(0), GroupId(1), &mut est, None)
            .unwrap_err();
        assert!(matches!(err, SimError::Probe { .. }), "{err:?}");
        assert!(est.alpha().is_none(), "no bogus sample folded in");
        // leaders were charged the wasted detection time
        assert!(sim.stats().procs[0].load_balance > SimTime::ZERO);
        // after recovery, probing works again
        sim.compute(ProcId(0), 60.0);
        sim.compute(ProcId(2), 60.0);
        assert!(sim.probe_inter(GroupId(0), GroupId(1), &mut est, None).is_ok());
    }

    #[test]
    fn faulted_sends_keep_accounting_complete() {
        let sched = FaultSchedule::none()
            .with_window(SimTime::ZERO, SimTime::from_millis(500), FaultKind::Outage)
            .with_window(
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                FaultKind::Blackhole,
            );
        let mut sim = NetSim::new(sys2x2_faulty(sched));
        sim.default_timeout = SimTime::from_millis(200);
        let _ = sim.send(ProcId(0), ProcId(2), 1_000_000, Activity::RemoteComm);
        sim.compute(ProcId(0), 1.0);
        let _ = sim.send(ProcId(0), ProcId(2), 1_000_000, Activity::RemoteComm);
        let _ = sim.allreduce_all(64, Activity::LoadBalance);
        sim.finish();
        for p in 0..4 {
            assert_eq!(
                sim.stats().procs[p].total(),
                sim.now(ProcId(p)),
                "proc {p}: every advance must be attributed"
            );
        }
    }

    #[test]
    fn dead_peer_send_fails_fast_and_stays_accounted() {
        let mut sim = NetSim::new(sys2x2());
        // proc 1 is crashed from t=0 to t=10s
        let sched = ProcFaultSchedule::none(4).with_crash(
            1,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        sim.set_proc_faults(sched);
        assert!(sim.has_proc_faults());
        assert!(sim.alive_at(ProcId(0), sim.elapsed()));
        assert!(!sim.alive_at(ProcId(1), sim.elapsed()));

        let err = sim
            .send(ProcId(0), ProcId(1), 1_000_000, Activity::LocalComm)
            .unwrap_err();
        assert!(matches!(err, SimError::PeerDead { .. }));
        // detection costs a round trip of intra latency (2 × 10µs), far
        // less than the ~1ms the payload would have taken
        assert_eq!(err.at(), SimTime::from_micros(20));
        assert_eq!(sim.now(ProcId(0)), err.at());
        assert_eq!(sim.stats().msgs.failed_msgs, 1);
        for p in 0..4 {
            assert_eq!(
                sim.stats().procs[p].total(),
                sim.now(ProcId(p)),
                "proc {p}: every advance must be attributed"
            );
        }

        // after the rejoin window the same send succeeds
        sim.compute(ProcId(0), 11.0);
        sim.send(ProcId(0), ProcId(1), 1_000_000, Activity::LocalComm)
            .unwrap();
    }

    #[test]
    fn alive_group_power_prices_the_shrunken_group() {
        let mut sim = NetSim::new(sys2x2());
        assert_eq!(sim.alive_group_power(GroupId(0)), 2.0);
        let sched = ProcFaultSchedule::none(4).with_crash(
            0,
            SimTime::ZERO,
            SimTime::from_secs(5),
        );
        sim.set_proc_faults(sched);
        assert_eq!(sim.alive_group_power(GroupId(0)), 1.0);
        assert_eq!(sim.alive_group_power(GroupId(1)), 2.0);
        assert_eq!(sim.alive_procs_in(GroupId(0)), vec![ProcId(1)]);
        // past the window, capacity is restored
        sim.compute(ProcId(3), 6.0);
        assert_eq!(sim.alive_group_power(GroupId(0)), 2.0);
    }
}
