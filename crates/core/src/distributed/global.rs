//! The global phase (§4): the reduction tree over the healthy groups, the
//! gather of their load summaries, and the one routine — probe, price Eq. 1,
//! γ-gate, redistribute or descend — that resolves each of its nodes, with
//! the retry / quarantine / rollback protocol every inter-group exchange
//! runs under.

use super::{DistributedDlb, GlobalDecision};
use crate::cost::{evaluate_cost, evaluate_cost_forecast, should_redistribute, CostEstimate};
use crate::fault::{GroupHealth, PROBE_TIMEOUT_SECS, TRANSFER_DEADLINE_SLACK_SECS};
use crate::gain::{gain_from_loads, history_group_loads, GainEstimate};
use crate::parallel::LOAD_MSG_BYTES;
use crate::partition::{global_redistribute_elastic, group_level0_cells, RedistributionReport};
use crate::scheme::LbContext;
use forecast::ForecastValue;
use metrics::Phase;
use samr_mesh::hierarchy::GridHierarchy;
use simnet::retry::retry;
use simnet::{Activity, SimError, SimResult, SimView};
use telemetry::GateVerdict::{self, Accept, Deferred, Reject};
use telemetry::{
    EventKind as TelEventKind, FaultEvent, FaultKind, GammaGateEvent,
    RedistributeEvent as TelRedistributeEvent,
};
use topology::{DistributedSystem, GroupId, ProcId, SimTime};

impl DistributedDlb {
    /// Alive compute power per group, and the groups the global phase runs
    /// over: healthy ones with capacity left. A group that lost procs
    /// participates at reduced power; a group with *no* alive proc drops
    /// out entirely (its work was already evacuated, so it carries no load
    /// to misprice).
    pub(super) fn participants(&self, ctx: &LbContext<'_>) -> (Vec<f64>, Vec<usize>) {
        let powers: Vec<f64> = (0..ctx.sim.system().ngroups())
            .map(|g| ctx.sim.alive_group_power(GroupId(g)))
            .collect();
        let healthy = self
            .roster
            .healthy_groups()
            .into_iter()
            .filter(|&g| powers[g] > 0.0)
            .collect();
        (powers, healthy)
    }

    /// Predicted level-0 cells each overloaded *eligible* group would
    /// export — the `W` whose transfer cost Eq. 1 prices.
    fn planned_move_cells(hier: &GridHierarchy, inp: &PhaseInputs<'_>, eligible: &[bool]) -> i64 {
        let (sys, group_loads, powers) = (inp.sys, inp.group_loads, inp.powers);
        let total: f64 = group_loads
            .iter()
            .enumerate()
            .filter(|(g, _)| eligible[*g])
            .map(|(_, &w)| w)
            .sum();
        let power: f64 = (0..sys.ngroups())
            .filter(|&g| eligible[g])
            .map(|g| powers[g])
            .sum();
        if total <= 0.0 || power <= 0.0 {
            return 0;
        }
        let mut cells = 0i64;
        for (g, &w) in group_loads.iter().enumerate() {
            if !eligible[g] {
                continue;
            }
            let target = total * powers[g] / power;
            if w > target && w > 0.0 {
                let frac = (w - target) / w;
                cells += (frac * group_level0_cells(hier, sys, g) as f64).round() as i64;
            }
        }
        cells
    }

    /// Attempt re-admission of quarantined groups via a single probation
    /// probe toward the lowest-indexed healthy group, at every global check
    /// after the level-0 step that quarantined them.
    fn probation(&mut self, ctx: &mut LbContext<'_>, sys: &DistributedSystem, step: u64) {
        for g in self.roster.quarantined_groups() {
            let due = match self.roster.health(g) {
                GroupHealth::Quarantined { since_step, .. } => step > since_step,
                GroupHealth::Healthy => false,
            };
            if !due {
                continue;
            }
            // group 0 is never quarantined, so a healthy peer always exists
            let h0 = self.roster.healthy_groups()[0];
            let pa = sys.procs_in(GroupId(h0))[0];
            let pb = sys.procs_in(GroupId(g))[0];
            let t0 = ctx.sim.now(pa).max(ctx.sim.now(pb));
            let dl = t0 + SimTime::from_secs_f64(PROBE_TIMEOUT_SECS);
            self.decision_msgs += 2;
            let est = self.estimator(h0, g);
            if ctx
                .sim
                .probe_inter(GroupId(h0), GroupId(g), est, Some(dl))
                .is_ok()
            {
                let now = ctx.sim.now(pb);
                self.roster.record_pair_success(h0, g);
                self.roster.readmit(g, step, now);
            }
        }
    }

    /// The global load-balancing phase (§4), one routine at every scale.
    /// Runs after level-0 steps (`predicted_loads = None`: loads from the
    /// history snapshot) and, when the proactive trigger fires, after
    /// fine-level steps (`Some(..)`: the forecast per-group loads).
    ///
    /// A balanced [`TREE_ARITY`]-ary reduction tree is laid over the
    /// healthy groups, their (load, capacity) summaries are gathered, and
    /// [`Self::resolve_node`] runs from the root. With at most
    /// `TREE_ARITY` groups — every preset of the paper — the tree is one
    /// node over the individual groups and that is the paper's phase word
    /// for word; a federation's tree is deeper, so decision traffic is
    /// O(G) messages and the estimator set holds representative pairs
    /// only, instead of O(G²) of both.
    pub(super) fn global_phase(
        &mut self,
        ctx: &mut LbContext<'_>,
        predicted_loads: Option<Vec<f64>>,
        level: usize,
    ) {
        let sys = ctx.sim.system().clone();
        if sys.ngroups() < 2 {
            return;
        }
        self.roster.ensure_len(sys.ngroups());
        let step = ctx.history.steps();
        let proactive = predicted_loads.is_some();
        // Quarantined groups get their probation probe first, so a
        // recovered link rejoins in the same step that notices it.
        self.probation(ctx, &sys, step);
        let (powers, healthy) = self.participants(ctx);
        if healthy.len() < 2 {
            return; // nobody to exchange work with; local phases continue
        }
        // Local arithmetic on data every group leader already holds — the
        // communication the phase charges is the gather below.
        let group_loads = predicted_loads.unwrap_or_else(|| history_group_loads(ctx.history, &sys));
        let arity = if self.cfg.flat_reference {
            healthy.len()
        } else {
            TREE_ARITY
        };
        let root = build_reduction_tree(0, healthy.len(), arity);
        let inp = PhaseInputs {
            sys: &sys,
            healthy: &healthy,
            group_loads: &group_loads,
            powers: &powers,
            step,
            level,
            proactive,
        };
        match self.gather(ctx, &inp, &root) {
            Ok(()) => self.resolve_node(ctx, &inp, &root),
            // no load picture this step: defer the decision entirely
            Err(failed) => self.exchange_failed(ctx, &inp, failed, "collective_failed"),
        }
    }

    /// The scheme's bookkeeping of one inter-group exchange — collective,
    /// probe or leader message — that ran through simnet's one retry loop
    /// ([`retry`]) and came back as `(retries, outcome)`: every attempt
    /// charged `msgs_per_attempt` decision messages (each is real traffic
    /// on the actual link), and a success after retries is counted and
    /// logged. Returns the outcome.
    fn tally_retries<T>(
        &mut self,
        step: u64,
        msgs_per_attempt: u64,
        (retries, outcome): (u32, SimResult<T>),
    ) -> SimResult<T> {
        self.decision_msgs += msgs_per_attempt * u64::from(retries + 1);
        if outcome.is_ok() && retries > 0 {
            self.roster.stats.retries += u64::from(retries);
            self.roster.events.push(FaultEvent {
                step,
                kind: FaultKind::Retry { retries },
            });
        }
        outcome
    }

    /// An exchange that stayed failed through its retries: one
    /// communication failure, a strike against the pair whose link dropped
    /// it (the quarantine protocol decides who sits out next), and whatever
    /// needed the exchange — the whole check, or one subtree — is deferred
    /// unscored.
    fn exchange_failed(
        &mut self,
        ctx: &LbContext<'_>,
        inp: &PhaseInputs<'_>,
        (pair, e): ExchangeError,
        reason: &'static str,
    ) {
        self.roster.stats.comm_failures += 1;
        if let Some((a, b)) = pair {
            let after = self.cfg.quarantine_after;
            self.roster
                .record_pair_failure(a, b, inp.step, e.at(), after);
        }
        let unscored = GainEstimate {
            gain_secs: 0.0,
            group_loads: Vec::new(),
            imbalance_ratio: 1.0,
        };
        self.push_uninvoked(ctx, inp, unscored, &Pricing::default(), Deferred, reason);
    }

    /// First alive processor of a group — the subtree-representative
    /// endpoint of summary/delegation messages (nameplate leader as a
    /// fallback; the phase only runs over groups with alive power).
    fn leader(ctx: &LbContext<'_>, sys: &DistributedSystem, g: usize) -> ProcId {
        ctx.sim
            .alive_procs_in(GroupId(g))
            .first()
            .copied()
            .unwrap_or_else(|| sys.procs_in(GroupId(g))[0])
    }

    /// One charged control message between two group leaders — a subtree
    /// summary going up or a delegation going down, the size class of the
    /// collective's per-leg payload — on the pair's actual inter-group link.
    fn leader_send(
        &mut self,
        ctx: &mut LbContext<'_>,
        inp: &PhaseInputs<'_>,
        from: usize,
        to: usize,
    ) -> Result<(), ExchangeError> {
        let pa = Self::leader(ctx, inp.sys, from);
        let pb = Self::leader(ctx, inp.sys, to);
        let sent = retry(ctx.sim, &[pa, pb], |sim| {
            sim.send(pa, pb, LOAD_MSG_BYTES, Activity::LoadBalance)
        });
        self.tally_retries(inp.step, 1, sent)
            .map(drop)
            .map_err(|e| (Some((from, to)), e))
    }

    /// Bring every node's child (load, capacity) summaries to its
    /// representative. *How* is the one thing the tree's shape selects: a
    /// tree that is a single node over the individual groups is §4.1's
    /// load exchange, one small collective among them (two legs per group
    /// pair); a deeper tree sends leader-to-leader summaries up, G − 1
    /// messages in all.
    fn gather(
        &mut self,
        ctx: &mut LbContext<'_>,
        inp: &PhaseInputs<'_>,
        root: &TreeNode,
    ) -> Result<(), ExchangeError> {
        if !root.is_single_node() {
            return self.upsweep(ctx, inp, root);
        }
        let gids: Vec<GroupId> = inp.healthy.iter().map(|&g| GroupId(g)).collect();
        let waiters: Vec<ProcId> = gids
            .iter()
            .flat_map(|&g| inp.sys.procs_in(g).iter().copied())
            .collect();
        let reduced = retry(ctx.sim, &waiters, |sim| {
            sim.allreduce_groups(&gids, LOAD_MSG_BYTES, Activity::LoadBalance)
        });
        // the legs count once the exchange completes, not per attempt
        self.tally_retries(inp.step, 0, reduced)
            .map_err(|e| match e {
                SimError::CollectiveFailed {
                    group_a, group_b, ..
                } => (Some((group_a, group_b)), e),
                _ => (None, e),
            })?;
        self.decision_msgs += (gids.len() * (gids.len() - 1)) as u64;
        Ok(())
    }

    /// Upward pass: post-order over the tree, each child representative
    /// shipping its subtree's summary to the node representative. The
    /// first child shares the node's representative (both are the
    /// subtree's lowest group), so it sends nothing.
    fn upsweep(
        &mut self,
        ctx: &mut LbContext<'_>,
        inp: &PhaseInputs<'_>,
        node: &TreeNode,
    ) -> Result<(), ExchangeError> {
        for child in &node.children {
            self.upsweep(ctx, inp, child)?;
        }
        let rep = inp.healthy[node.lo];
        for child in node.children.iter().skip(1) {
            let crep = inp.healthy[child.lo];
            self.leader_send(ctx, inp, crep, rep)?;
        }
        Ok(())
    }

    /// Delegate resolution to each multi-group child: a small control
    /// message from the node representative hands the child's subtree to
    /// its representative, which then resolves it. A failed delegation
    /// defers that subtree only; its siblings proceed. Over single-group
    /// children there is nothing to delegate — a single group balances in
    /// its local phase.
    fn descend(&mut self, ctx: &mut LbContext<'_>, inp: &PhaseInputs<'_>, node: &TreeNode) {
        let rep = inp.healthy[node.lo];
        for child in node.children.iter().filter(|c| c.len() >= 2) {
            let crep = inp.healthy[child.lo];
            if crep != rep {
                if let Err(failed) = self.leader_send(ctx, inp, rep, crep) {
                    self.exchange_failed(ctx, inp, failed, "delegate_failed");
                    continue;
                }
            }
            self.resolve_node(ctx, inp, child);
        }
    }

    /// The paper's global phase at one tree node: score Eq. 4 over the
    /// children's aggregated (load, capacity) summaries; when imbalanced,
    /// probe the child-representative links, price Eq. 1, γ-gate, and
    /// redistribute among exactly this node's groups; when balanced or too
    /// expensive at this tier (say, a congested WAN between the
    /// representatives), descend — a child subtree may still fix itself
    /// over its cheaper links. Over single-group children the summaries
    /// are the groups' own loads and the representatives the groups
    /// themselves.
    fn resolve_node(&mut self, ctx: &mut LbContext<'_>, inp: &PhaseInputs<'_>, node: &TreeNode) {
        // each child subtree is scored as one pseudo-group
        let summed = |of: &[f64]| -> Vec<f64> {
            let sum = |c: &TreeNode| inp.healthy[c.lo..c.hi].iter().map(|&g| of[g]).sum();
            node.children.iter().map(sum).collect()
        };
        let among: Vec<usize> = (0..node.children.len()).collect();
        let scored = gain_from_loads(
            summed(inp.group_loads),
            ctx.history.last_step_secs(),
            &among,
            &summed(inp.powers),
        );
        // the decision records the full per-group load vector (what a
        // redistribution acts on) under the node's own verdict
        let gain = GainEstimate {
            group_loads: inp.group_loads.to_vec(),
            ..scored
        };
        // NaN-safe: a NaN ratio reads as balanced
        let imbalanced = gain.imbalance_ratio > self.cfg.imbalance_tolerance;
        if !imbalanced || gain.gain_secs <= 0.0 {
            // no imbalance, so no probe is paid for
            self.push_uninvoked(ctx, inp, gain, &Pricing::default(), Reject, "balanced");
            self.descend(ctx, inp, node);
            return;
        }

        // Imbalance exists: price a redistribution over this node's groups.
        let mut eligible = vec![false; inp.sys.ngroups()];
        for &g in &inp.healthy[node.lo..node.hi] {
            eligible[g] = true;
        }
        let move_cells = Self::planned_move_cells(ctx.hier, inp, &eligible);
        let cell_bytes = (ctx.hier.nfields() as u64) * 8;
        let mut pricing = Pricing {
            move_bytes: move_cells.max(0) as u64 * cell_bytes,
            ..Default::default()
        };
        // only the child-representative links are probed: the sampled
        // worst path, at most arity² probes per node
        let reps: Vec<usize> = node.children.iter().map(|c| inp.healthy[c.lo]).collect();
        if !self.probe_pairs(ctx, inp, &reps, &mut pricing) {
            // α/β for some path is unknown (and that link is suspect):
            // defer this node, and don't descend through it
            self.push_uninvoked(ctx, inp, gain, &pricing, Deferred, "probe_failed");
            return;
        }
        // Reactive mode prices the move from the freshest probe samples (no
        // error bar, the paper's behaviour); predictive mode prices it from
        // the forecasts, widened by one MAE, and the gate must clear the
        // upper bound.
        let cost = if self.cfg.predictor.is_none() {
            evaluate_cost(pricing.alpha, pricing.beta, pricing.move_bytes, ctx.history)
        } else {
            evaluate_cost_forecast(
                pricing.alpha_fv,
                pricing.beta_fv,
                pricing.move_bytes,
                ctx.history,
            )
        };
        pricing.cost = Some(cost);
        if !should_redistribute(gain.gain_secs, &cost, self.cfg.gamma) {
            self.push_uninvoked(ctx, inp, gain, &pricing, Reject, "gate");
            self.descend(ctx, inp, node);
            return;
        }
        // Accepted: redistribute among exactly this node's groups and stop
        // descending — the elastic repartition balances everything under
        // the node in one pass.
        self.gate_event(ctx, inp, &gain, &pricing, Accept, "gate");
        self.redistribute_accepted(ctx, inp, gain, cost, &eligible);
    }

    /// Probe the inter-group link of every pair of `reps` (two messages
    /// each — §4.2) and fold the answers into `pricing`'s worst path.
    /// Stops at the first pair that stays dead through its retries and
    /// returns `false`; `pricing` then holds what had been measured.
    fn probe_pairs(
        &mut self,
        ctx: &mut LbContext<'_>,
        inp: &PhaseInputs<'_>,
        reps: &[usize],
        pricing: &mut Pricing,
    ) -> bool {
        let step = inp.step;
        for (i, &a) in reps.iter().enumerate() {
            for &b in &reps[i + 1..] {
                // backoff is idle waiting on both leaders
                let pa = inp.sys.procs_in(GroupId(a))[0];
                let pb = inp.sys.procs_in(GroupId(b))[0];
                let probed = retry(ctx.sim, &[pa, pb], |sim| {
                    let t0 = sim.now(pa).max(sim.now(pb));
                    let dl = t0 + SimTime::from_secs_f64(PROBE_TIMEOUT_SECS);
                    sim.probe_inter(GroupId(a), GroupId(b), self.estimator(a, b), Some(dl))
                });
                match self.tally_retries(step, 2, probed) {
                    Ok(s) => {
                        self.roster.record_pair_success(a, b);
                        pricing.alpha = pricing.alpha.max(s.alpha);
                        pricing.beta = pricing.beta.max(s.beta);
                        let est = self.estimator(a, b);
                        if let (Some(af), Some(bf)) = (est.alpha_forecast(), est.beta_forecast()) {
                            let (wa, wb) = (&mut pricing.alpha_fv, &mut pricing.beta_fv);
                            wa.value = wa.value.max(af.value);
                            wa.error = wa.error.max(af.error);
                            wb.value = wb.value.max(bf.value);
                            wb.error = wb.error.max(bf.error);
                        }
                    }
                    Err(e) => {
                        self.roster.stats.probe_failures += 1;
                        self.roster.events.push(FaultEvent {
                            step,
                            kind: FaultKind::ProbeFailure {
                                group_a: a,
                                group_b: b,
                            },
                        });
                        self.roster.record_pair_failure(
                            a,
                            b,
                            step,
                            e.at(),
                            self.cfg.quarantine_after,
                        );
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The one gate event every pushed [`GlobalDecision`] gets — the audit
    /// log's gamma_gate count equals the run's global_checks because every
    /// decision funnels through here exactly once.
    fn gate_event(
        &self,
        ctx: &LbContext<'_>,
        inp: &PhaseInputs<'_>,
        gain: &GainEstimate,
        pricing: &Pricing,
        verdict: GateVerdict,
        reason: &'static str,
    ) {
        let tel = ctx.sim.telemetry();
        if !tel.is_enabled() {
            return;
        }
        let t = ctx.sim.elapsed().as_secs_f64();
        let cost = pricing.cost.as_ref();
        tel.metric(t, "gate_imbalance_ratio", gain.imbalance_ratio);
        tel.event(
            t,
            TelEventKind::GammaGate(GammaGateEvent {
                step: inp.step,
                level: inp.level,
                proactive: inp.proactive,
                gain_secs: gain.gain_secs,
                cost_alpha_beta_w_secs: cost.map_or(0.0, |c| c.comm_secs),
                delta_secs: cost.map_or(0.0, |c| c.delta_secs),
                cost_upper_secs: cost.map_or(0.0, CostEstimate::upper_total_secs),
                alpha_secs: pricing.alpha,
                beta_secs_per_byte: pricing.beta,
                move_bytes: pricing.move_bytes,
                gamma: self.cfg.gamma,
                mae_widening_secs: cost.map_or(0.0, |c| c.comm_upper_secs - c.comm_secs),
                verdict,
                reason,
            }),
        );
    }

    /// Gate event and decision record of a node that did not invoke
    /// redistribution: balanced, rejected by the gate, or deferred.
    fn push_uninvoked(
        &mut self,
        ctx: &LbContext<'_>,
        inp: &PhaseInputs<'_>,
        gain: GainEstimate,
        pricing: &Pricing,
        verdict: GateVerdict,
        reason: &'static str,
    ) {
        self.gate_event(ctx, inp, &gain, pricing, verdict, reason);
        self.decisions.push(GlobalDecision {
            step: inp.step,
            gain,
            cost: pricing.cost,
            invoked: false,
            aborted: false,
            abort_delta_secs: 0.0,
            report: None,
            proactive: inp.proactive,
        });
    }

    /// An accepted redistribution: migrate among the `eligible` groups —
    /// the accepting node's — charge the computational overhead δ to the
    /// processors of those groups (the repartition/rebuild work stays with
    /// the groups that repartition) and push the decision. Migration
    /// traffic may die mid-flight; the redistribution is a hierarchy
    /// transaction and comes back rolled back, and the wasted work is
    /// charged and recorded instead.
    fn redistribute_accepted(
        &mut self,
        ctx: &mut LbContext<'_>,
        inp: &PhaseInputs<'_>,
        gain: GainEstimate,
        cost: CostEstimate,
        eligible: &[bool],
    ) {
        let outer = self.clock.enter(Phase::Migrate, inp.level);
        let (sys, step) = (inp.sys, inp.step);
        let tel = ctx.sim.telemetry().clone();
        let charge = |sim: &mut SimView, secs: f64| {
            for g in (0..sys.ngroups()).filter(|&g| eligible[g]) {
                for &p in sys.procs_in(GroupId(g)) {
                    sim.busy(p, secs, Activity::LoadBalance);
                }
            }
        };
        let redistribute_event = |sim: &SimView,
                                  rep: &RedistributionReport,
                                  aborted: bool,
                                  delta_secs: f64| {
            if tel.is_enabled() {
                tel.event(
                    sim.elapsed().as_secs_f64(),
                    TelEventKind::Redistribute(TelRedistributeEvent {
                        step,
                        level: inp.level,
                        moved_cells: rep.moved_cells,
                        moves: rep.moves,
                        aborted,
                        delta_secs,
                    }),
                );
            }
        };
        let deadline = ctx.sim.elapsed() + SimTime::from_secs_f64(TRANSFER_DEADLINE_SLACK_SECS);
        let alive = self.alive_mask(sys.nprocs());
        let mut aborted = false;
        let mut abort_delta_secs = 0.0;
        let report = match global_redistribute_elastic(
            ctx.hier,
            ctx.sim,
            &gain.group_loads,
            eligible,
            &self.cfg.balance,
            self.cfg.selection,
            Some(deadline),
            inp.powers,
            &alive,
        ) {
            Ok(rep) => {
                // Computational overhead of the redistribution:
                // repartitioning the top-level grids, rebuilding internal
                // data structures, and updating boundary conditions
                // (§4.2). Recorded as the next δ. A redistribution that
                // found nothing movable costs (and records) nothing.
                let mut delta = 0.0;
                if rep.moves > 0 {
                    let level0: i64 = ctx.hier.level_cells(0);
                    delta = level0 as f64 * REPARTITION_SECS_PER_CELL
                        + rep.moved_cells as f64 * REBUILD_SECS_PER_MOVED_CELL;
                    charge(ctx.sim, delta);
                    ctx.history.record_redistribution_overhead(delta);
                }
                redistribute_event(ctx.sim, &rep, false, delta);
                rep
            }
            Err(ab) => {
                aborted = true;
                // Wasted work: the repartition scan plus rebuilding the
                // partially-moved cells twice (out and back). The driver
                // records this as the next δ.
                let level0: i64 = ctx.hier.level_cells(0);
                abort_delta_secs = level0 as f64 * REPARTITION_SECS_PER_CELL
                    + 2.0 * ab.partial.moved_cells as f64 * REBUILD_SECS_PER_MOVED_CELL;
                charge(ctx.sim, abort_delta_secs);
                self.roster.stats.aborts += 1;
                let rollback = FaultEvent {
                    step,
                    kind: FaultKind::Rollback {
                        wasted_secs: abort_delta_secs,
                    },
                };
                self.roster.events.push(rollback);
                self.roster.record_pair_failure(
                    ab.src_group,
                    ab.dst_group,
                    step,
                    ab.error.at(),
                    self.cfg.quarantine_after,
                );
                // the redistribute record first, then its rollback — the
                // causality the audit tests check
                redistribute_event(ctx.sim, &ab.partial, true, abort_delta_secs);
                if tel.is_enabled() {
                    tel.event(
                        ctx.sim.elapsed().as_secs_f64(),
                        TelEventKind::Fault(rollback),
                    );
                }
                ab.partial
            }
        };
        self.decisions.push(GlobalDecision {
            step,
            gain,
            cost: Some(cost),
            invoked: true,
            aborted,
            abort_delta_secs,
            report: Some(report),
            proactive: inp.proactive,
        });
        self.clock.resume(outer);
    }
}

/// Modeled repartition scan cost per level-0 cell, seconds: with the
/// rebuild cost below, the computational overhead δ a redistribution
/// charges and records (§4.2).
const REPARTITION_SECS_PER_CELL: f64 = 10e-9;

/// Modeled rebuild / boundary-update cost per *moved* cell, seconds.
const REBUILD_SECS_PER_MOVED_CELL: f64 = 150e-9;

/// Fan-out of the reduction tree the global phase runs over. Matches
/// `topology::presets::FEDERATION_FANOUT`, so one tree tier maps to one site
/// and the next to one region of the federation presets; up to this many
/// healthy groups the tree is a single node over the individual groups.
pub const TREE_ARITY: usize = 8;

/// One node of the balanced reduction tree: the contiguous index range
/// `lo..hi` into the sorted healthy-group list (children partition it).
/// Contiguity is what makes subtrees cheap: group ids are assigned
/// site-major by the federation presets, so a subtree is a site, a region,
/// or a run of regions — and its internal links are the cheap ones.
#[derive(Debug, PartialEq)]
struct TreeNode {
    lo: usize,
    hi: usize,
    children: Vec<TreeNode>,
}

impl TreeNode {
    fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether every child is an individual group: the whole tree is this
    /// one node.
    fn is_single_node(&self) -> bool {
        self.children.iter().all(|c| c.len() == 1)
    }
}

/// Balanced `arity`-ary tree over `lo..hi`: split into up to `arity`
/// near-equal contiguous chunks, recurse into every multi-element chunk.
/// Depth is ⌈log_arity n⌉, so summaries and delegations are O(n) messages
/// total with an O(log n) critical path; `arity ≥ n` yields one node over
/// `n` single-element children.
fn build_reduction_tree(lo: usize, hi: usize, arity: usize) -> TreeNode {
    let n = hi - lo;
    if n <= 1 {
        return TreeNode {
            lo,
            hi,
            children: Vec::new(),
        };
    }
    let nchunks = n.min(arity);
    let base = n / nchunks;
    let extra = n % nchunks;
    let mut children = Vec::with_capacity(nchunks);
    let mut start = lo;
    for i in 0..nchunks {
        let size = base + usize::from(i < extra);
        children.push(build_reduction_tree(start, start + size, arity));
        start += size;
    }
    debug_assert_eq!(start, hi);
    TreeNode { lo, hi, children }
}

/// Per-check immutable inputs threaded through the tree walk. The last
/// three say when and why the check runs: every gate event, redistribute
/// record and [`GlobalDecision`] of the check is stamped with them.
struct PhaseInputs<'a> {
    sys: &'a DistributedSystem,
    /// Sorted healthy group ids — the tree's index space.
    healthy: &'a [usize],
    /// Loads indexed by group id (full length).
    group_loads: &'a [f64],
    /// Alive compute power indexed by group id (full length).
    powers: &'a [f64],
    /// Level-0 step index.
    step: u64,
    /// Level whose step triggered the check.
    level: usize,
    /// Triggered by the load forecast rather than a level-0 step.
    proactive: bool,
}

/// Eq. 1 as far as a node got with it: the planned transfer; the worst
/// (slowest) link parameters over the pairs that answered — freshest probe
/// samples and, for the forecast path, worst forecast value and worst error
/// bar, conservative like the reactive max — and, once every pair has
/// answered, the price. The default is a node that has not probed.
#[derive(Default)]
struct Pricing {
    move_bytes: u64,
    alpha: f64,
    beta: f64,
    alpha_fv: ForecastValue,
    beta_fv: ForecastValue,
    cost: Option<CostEstimate>,
}

/// An inter-group exchange that stayed failed, with the group pair whose
/// link dropped it.
type ExchangeError = (Option<(usize, usize)>, SimError);

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::DistributedDlbConfig;
    use super::*;
    use crate::scheme::LoadBalancer;

    #[test]
    fn invokes_global_redistribution_when_gain_justifies() {
        let sys = wan_sys(true);
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(6); // A: 3072, B: 1024
        let mut history = history_for(&hier, 4, 60.0); // one step = 60 s
        let mut dlb = DistributedDlb::default();
        dlb.after_level_step(
            LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            0,
        )
        .unwrap();
        assert_eq!(dlb.decisions.len(), 1);
        let d = &dlb.decisions[0];
        assert!(d.invoked, "decision {d:?}");
        assert!(!d.aborted);
        let rep = d.report.as_ref().unwrap();
        assert!(rep.moved_cells > 0);
        // δ recorded for the next cost evaluation
        assert!(history.delta() > 0.0);
        // local phase evened out within groups too
        let loads = hier.level_load_by_owner(0, 4);
        assert_eq!(loads[0] + loads[1] + loads[2] + loads[3], 4096);
        assert!(loads.iter().all(|&l| l > 0), "loads {loads:?}");
        // nothing fault-related happened
        assert_eq!(dlb.fault_stats(), metrics::FaultCounters::default());
    }

    #[test]
    fn congested_wan_blocks_redistribution() {
        // Same imbalance and step time; quiet WAN → redistribute,
        // 98%-congested WAN → defer. This is the "adaptively choosing an
        // appropriate action based on the current traffic" behaviour.
        let run = |quiet: bool| {
            let sys = wan_sys(quiet);
            let mut sim = SimView::new(sys);
            let mut hier = hier_split(6);
            let mut history = history_for(&hier, 4, 0.05);
            let mut dlb = DistributedDlb::default();
            dlb.after_level_step(
                LbContext {
                    hier: &mut hier,
                    sim: &mut sim,
                    history: &mut history,
                },
                0,
            )
            .unwrap();
            let d = dlb.decisions[0].clone();
            let sys = sim.system().clone();
            (d, crate::partition::group_level0_cells(&hier, &sys, 0))
        };
        let (quiet_d, _) = run(true);
        assert!(quiet_d.invoked, "quiet WAN should redistribute: {quiet_d:?}");
        let (busy_d, group_a_cells) = run(false);
        assert!(!busy_d.invoked, "should defer under congestion: {busy_d:?}");
        assert!(busy_d.cost.is_some(), "imbalance was detected, cost evaluated");
        // group ownership at level 0 unchanged under congestion
        assert_eq!(group_a_cells, 3072);
    }

    #[test]
    fn balanced_load_skips_probe() {
        let sys = wan_sys(true);
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(4);
        let mut history = history_for(&hier, 4, 10.0);
        let mut dlb = DistributedDlb::default();
        dlb.after_level_step(
            LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            0,
        )
        .unwrap();
        let d = &dlb.decisions[0];
        assert!(!d.invoked);
        assert!(d.cost.is_none(), "no imbalance -> no probe paid");
    }

    #[test]
    fn gamma_zero_always_redistributes_on_imbalance() {
        let sys = wan_sys(false); // even congested
        let mut sim = SimView::new(sys);
        let mut hier = hier_split(6);
        let mut history = history_for(&hier, 4, 0.5);
        let cfg = DistributedDlbConfig {
            gamma: 0.0,
            ..Default::default()
        };
        let mut dlb = DistributedDlb::new(cfg);
        dlb.after_level_step(
            LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            0,
        )
        .unwrap();
        assert!(dlb.decisions[0].invoked);
        assert_eq!(dlb.invocations(), 1);
    }
}

#[cfg(test)]
mod shape_tests {
    //! What the tree's shape decides — pinned on hand-built quiet systems
    //! and hand-built hierarchies, no RNG anywhere.

    use super::super::DistributedDlbConfig;
    use super::*;
    use metrics::FaultCounters;
    use crate::history::WorkloadHistory;
    use crate::scheme::LoadBalancer;
    use samr_mesh::{ivec3, region};
    use telemetry::Telemetry;
    use topology::faults::{FaultKind, FaultSchedule};
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder};

    /// `n` one-processor groups (processor id = group id), every pair on
    /// its own quiet dedicated link — `faulty` pairs with that schedule.
    fn quiet_groups(
        n: usize,
        faulty: &[(usize, usize)],
        sched: &FaultSchedule,
    ) -> DistributedSystem {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(5), 2e7);
        let mut b = SystemBuilder::new();
        for g in 0..n {
            b = b.group(&format!("g{g}"), 1, 1.0, intra.clone());
        }
        for a in 0..n {
            for c in a + 1..n {
                let link = match faulty.contains(&(a, c)) {
                    true => wan.clone().with_faults(sched.clone()),
                    false => wan.clone(),
                };
                b = b.connect(a, c, link);
            }
        }
        b.build()
    }

    /// 8x8x8 level-0 grids in a row, `counts[g]` of them owned by group g.
    fn row_of_grids(counts: &[i64]) -> GridHierarchy {
        let total: i64 = counts.iter().sum();
        let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(8 * total, 8, 8)), 2, 4, 1, 1);
        let mut x = 0;
        for (g, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                h.insert_patch(0, region(ivec3(x, 0, 0), ivec3(x + 8, 8, 8)), None, g);
                x += 8;
            }
        }
        h
    }

    /// One level-0 check over 16 groups loaded 1,3,1,3,… in the first
    /// eight and 2,6,2,6,… in the rest — every tree node imbalanced — with
    /// a gate that never accepts, so every node is visited.
    fn one_check_at_g16(flat_reference: bool) -> DistributedDlb {
        let sys = quiet_groups(16, &[], &FaultSchedule::none());
        let (dlb, _) = one_check_over(sys, flat_reference);
        assert_eq!(dlb.fault_stats(), FaultCounters::default());
        dlb
    }

    /// [`one_check_at_g16`] over `sys`, with the telemetry it recorded.
    fn one_check_over(
        sys: DistributedSystem,
        flat_reference: bool,
    ) -> (DistributedDlb, Vec<telemetry::EventRecord>) {
        let counts: Vec<i64> = (0..16).map(|g| (1 + 2 * (g % 2)) * (1 + g / 8)).collect();
        let mut hier = row_of_grids(&counts);
        let (tel, sink) = Telemetry::recording_shared();
        let mut sim = SimView::new(sys);
        sim.set_telemetry(tel);
        let mut history = WorkloadHistory::new(16);
        history.record_snapshot(vec![hier.level_load_by_owner(0, 16)], vec![1]);
        history.record_step_time(60.0);
        let mut dlb = DistributedDlb::new(DistributedDlbConfig {
            gamma: 1e9,
            flat_reference,
            ..Default::default()
        });
        dlb.after_level_step(
            LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            0,
        )
        .unwrap();
        let events = sink.lock().unwrap().events();
        (dlb, events)
    }

    /// "The flat compare is the one-node tree" — by construction.
    #[test]
    fn arity_at_least_n_is_one_node_over_n_leaves() {
        for n in 2..=8 {
            let tree = build_reduction_tree(0, n, TREE_ARITY);
            assert_eq!(tree, build_reduction_tree(0, n, n), "n = {n}");
            assert!(tree.is_single_node());
            assert_eq!((tree.lo, tree.hi, tree.children.len()), (0, n, n));
            for (i, leaf) in tree.children.iter().enumerate() {
                assert_eq!((leaf.lo, leaf.hi), (i, i + 1));
                assert!(leaf.children.is_empty());
            }
        }
        // `flat_reference`: arity = n at any n
        let flat = build_reduction_tree(0, 64, 64);
        assert!(flat.is_single_node() && flat.children.len() == 64);
        // one group more than the arity is already two tiers
        assert!(!build_reduction_tree(0, TREE_ARITY + 1, TREE_ARITY).is_single_node());
    }

    #[test]
    fn g16_tree_gathers_with_g_minus_1_summaries_and_probes_representatives() {
        let dlb = one_check_at_g16(false);
        // the root over eight two-group children, then each child: nine
        // resolved nodes, each priced and rejected
        assert_eq!(dlb.decisions.len(), 9);
        assert!(dlb.decisions.iter().all(|d| d.cost.is_some() && !d.invoked));
        // the eight child representatives among themselves, and each
        // child's own pair
        let mut want: Vec<(usize, usize)> = Vec::new();
        for a in (0..16).step_by(2) {
            want.extend((a + 2..16).step_by(2).map(|b| (a, b)));
            want.push((a, a + 1));
        }
        want.sort_unstable();
        assert_eq!(dlb.estimators.keys().copied().collect::<Vec<_>>(), want);
        assert_eq!(dlb.estimator_pairs(), 28 + 8);
        // 15 summaries up (every non-first child of every node sends one,
        // no collective legs), 2 messages per probed pair, 7 delegations
        // down (the first child shares the root's representative)
        assert_eq!(dlb.decision_msgs(), 15 + 2 * 36 + 7);
    }

    #[test]
    fn g16_flat_reference_is_one_node_over_all_pairs() {
        let dlb = one_check_at_g16(true);
        assert_eq!(dlb.decisions.len(), 1, "one decision per check");
        assert!(dlb.decisions[0].cost.is_some() && !dlb.decisions[0].invoked);
        assert_eq!(dlb.estimator_pairs(), 16 * 15 / 2);
        // G·(G−1) collective legs, then 2 messages per pair
        assert_eq!(dlb.decision_msgs(), 16 * 15 + 2 * (16 * 15 / 2));
    }

    /// The link of a child's representative pair (2, 3) carries the
    /// summary (sent within the first 6 ms) and is dead by the time the
    /// child probes it, after the root's 28 probes: that subtree is
    /// deferred with what it had measured, its siblings resolve, and the
    /// audit log still holds one gate event per pushed decision.
    #[test]
    fn dead_representative_link_defers_its_subtree_only() {
        let dies = FaultSchedule::none().with_window(
            SimTime::from_millis(10),
            SimTime::from_secs(3600),
            FaultKind::Outage,
        );
        let (dlb, events) = one_check_over(quiet_groups(16, &[(2, 3)], &dies), false);
        let stats = dlb.fault_stats();
        assert_eq!(stats.probe_failures + stats.comm_failures, 1, "{stats:?}");
        assert_eq!(stats.probe_failures, 1);
        assert_eq!(dlb.decisions.len(), 9, "the root and all eight children");
        let gates: Vec<&GammaGateEvent> = events
            .iter()
            .filter_map(|e| match &e.kind {
                TelEventKind::GammaGate(g) => Some(g),
                _ => None,
            })
            .collect();
        assert_eq!(gates.len(), dlb.decisions.len());
        let deferred: Vec<usize> = (0..gates.len())
            .filter(|&i| gates[i].verdict == Deferred)
            .collect();
        // root, child (0, 1), then child (2, 3)
        assert_eq!(deferred, vec![2]);
        let g = gates[2];
        assert_eq!(g.reason, "probe_failed");
        assert!(g.move_bytes > 0, "{g:?}");
        assert!(dlb.decisions[2].cost.is_none());
        // every other node was priced and gated
        for (i, g) in gates.iter().enumerate().filter(|(i, _)| *i != 2) {
            assert_eq!((g.verdict, g.reason), (Reject, "gate"), "node {i}");
            assert!(g.move_bytes > 0 && g.alpha_secs > 0.0, "node {i}: {g:?}");
            assert!(dlb.decisions[i].cost.is_some());
        }
    }

    /// δ is the repartition/rebuild work of the groups that repartition: a
    /// group sitting the phase out is not billed for it.
    #[test]
    fn delta_is_charged_to_the_groups_that_repartition() {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(5), 2e7);
        // C has one processor, so its local phase charges it nothing either
        let sys = SystemBuilder::new()
            .group("A", 2, 1.0, intra.clone())
            .group("B", 2, 1.0, intra.clone())
            .group("C", 1, 1.0, intra)
            .connect(0, 1, wan.clone())
            .connect(0, 2, wan.clone())
            .connect(1, 2, wan)
            .build();
        let mut sim = SimView::new(sys);
        // A's first proc holds 6 grids, B's 2, C's 1
        let mut hier = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(72, 8, 8)), 2, 4, 1, 1);
        for (i, owner) in [0, 0, 0, 0, 0, 0, 2, 2, 4].into_iter().enumerate() {
            let x = 8 * i as i64;
            hier.insert_patch(0, region(ivec3(x, 0, 0), ivec3(x + 8, 8, 8)), None, owner);
        }
        let mut history = WorkloadHistory::new(5);
        history.record_snapshot(vec![hier.level_load_by_owner(0, 5)], vec![1]);
        history.record_step_time(60.0);
        let mut dlb = DistributedDlb::default();
        // C was quarantined this very step: no probation probe is due yet
        dlb.roster.ensure_len(3);
        dlb.roster
            .record_pair_failure(0, 2, history.steps(), SimTime::ZERO, 1);
        assert!(!dlb.roster.is_healthy(2));
        dlb.after_level_step(
            LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            0,
        )
        .unwrap();
        let d = &dlb.decisions[0];
        assert!(d.invoked && !d.aborted, "{d:?}");
        let flow = &d.report.as_ref().unwrap().group_flow;
        assert!(flow[0] > 0 && flow[1] < 0 && flow[2] == 0, "{flow:?}");
        let delta = SimTime::from_secs_f64(history.delta());
        assert!(delta > SimTime::ZERO);
        let lb: Vec<SimTime> = sim.stats().procs.iter().map(|p| p.load_balance).collect();
        assert_eq!(lb[4], SimTime::ZERO, "the quarantined group took no part");
        assert!(lb[..4].iter().all(|&t| t >= delta), "{lb:?} vs δ {delta:?}");
    }
}

#[cfg(test)]
mod congestion_tests {
    use super::*;
    use crate::history::WorkloadHistory;
    use crate::scheme::LoadBalancer;
    use samr_mesh::{ivec3, region};
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder, TrafficModel};

    /// WAN that is quiet until t = 100 s, then 99.5% congested.
    fn sys_with_congestion_onset() -> DistributedSystem {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::shared(
            "wan",
            SimTime::from_millis(5),
            2e7,
            TrafficModel::Trace {
                initial: 0.0,
                points: vec![(SimTime::from_secs(100), 0.995)],
            },
        );
        SystemBuilder::new()
            .group("A", 2, 1.0, intra.clone())
            .group("B", 2, 1.0, intra)
            .connect(0, 1, wan)
            .build()
    }

    fn imbalanced_hier() -> GridHierarchy {
        let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(64, 8, 8)), 2, 4, 1, 1);
        for i in 0..8 {
            let owner = if i < 6 { 0 } else { 2 };
            h.insert_patch(
                0,
                region(ivec3(8 * i, 0, 0), ivec3(8 * (i + 1), 8, 8)),
                None,
                owner,
            );
        }
        h
    }

    #[test]
    fn congestion_arriving_mid_run_flips_the_decision() {
        let mut sim = SimView::new(sys_with_congestion_onset());
        let mut dlb = DistributedDlb::default();

        // phase 1: quiet network, strong imbalance -> redistribute
        let mut hier = imbalanced_hier();
        let mut history = WorkloadHistory::new(4);
        history.record_snapshot(vec![hier.level_load_by_owner(0, 4)], vec![1]);
        history.record_step_time(0.05);
        dlb.after_level_step(
            LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            0,
        )
        .unwrap();
        assert!(dlb.decisions[0].invoked, "quiet phase should redistribute");

        // advance simulated time past the congestion onset
        for p in 0..4 {
            sim.busy(ProcId(p), 150.0, simnet::Activity::Compute);
        }

        // phase 2: same imbalance shape, congested WAN -> defer
        let mut hier2 = imbalanced_hier();
        history.record_snapshot(vec![hier2.level_load_by_owner(0, 4)], vec![1]);
        history.record_step_time(0.05);
        dlb.after_level_step(
            LbContext {
                hier: &mut hier2,
                sim: &mut sim,
                history: &mut history,
            },
            0,
        )
        .unwrap();
        let d = dlb.decisions.last().unwrap();
        assert!(
            !d.invoked,
            "congested phase must defer: {d:?}"
        );
        // the probe saw the inflated beta (0.995 load clamps to the model's
        // 0.99 ceiling: effective bandwidth 1/100th, comm cost ~8.5x here)
        let cost = d.cost.unwrap();
        let quiet_cost = dlb.decisions[0].cost.unwrap();
        assert!(cost.comm_secs > quiet_cost.comm_secs * 5.0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::super::DistributedDlbConfig;
    use super::*;
    use crate::history::WorkloadHistory;
    use crate::scheme::LoadBalancer;
    use samr_mesh::{ivec3, region};
    use telemetry::Telemetry;
    use topology::faults::{FaultKind, FaultSchedule};
    use topology::link::Link;
    use topology::{SimTime, SystemBuilder};

    fn faulty_wan_sys(sched: FaultSchedule) -> DistributedSystem {
        let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
        let wan = Link::dedicated("wan", SimTime::from_millis(5), 2e7).with_faults(sched);
        SystemBuilder::new()
            .group("A", 2, 1.0, intra.clone())
            .group("B", 2, 1.0, intra)
            .connect(0, 1, wan)
            .build()
    }

    fn hier_split(na: i64) -> GridHierarchy {
        let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(64, 8, 8)), 2, 4, 1, 1);
        for i in 0..8 {
            let owner = if i < na { 0 } else { 2 };
            h.insert_patch(
                0,
                region(ivec3(8 * i, 0, 0), ivec3(8 * (i + 1), 8, 8)),
                None,
                owner,
            );
        }
        h
    }

    /// One level-0 step: record the current load picture, then run the
    /// balancer. The shared history keeps the step counter advancing, which
    /// is what drives probation scheduling.
    fn step(
        dlb: &mut DistributedDlb,
        sim: &mut SimView,
        hier: &mut GridHierarchy,
        history: &mut WorkloadHistory,
        t: f64,
    ) {
        history.record_snapshot(vec![hier.level_load_by_owner(0, 4)], vec![1]);
        history.record_step_time(t);
        dlb.after_level_step(
            LbContext {
                hier,
                sim,
                history,
            },
            0,
        )
        .unwrap();
    }

    #[test]
    fn transient_outage_is_survived_by_retry() {
        // WAN down for the first 40 ms only; the default backoff (50 ms)
        // pushes the retry past the window.
        let sched = FaultSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_millis(40),
            FaultKind::Outage,
        );
        let mut sim = SimView::new(faulty_wan_sys(sched));
        let mut hier = hier_split(6);
        let mut history = WorkloadHistory::new(4);
        let mut dlb = DistributedDlb::default();
        step(&mut dlb, &mut sim, &mut hier, &mut history, 60.0);
        let d = &dlb.decisions[0];
        assert!(d.invoked, "{d:?}");
        assert!(!d.aborted);
        let stats = dlb.fault_stats();
        assert!(stats.retries >= 1, "{stats:?}");
        assert_eq!(stats.quarantines, 0);
        assert!(dlb
            .fault_events()
            .iter()
            .any(|e| matches!(e.kind, telemetry::FaultKind::Retry { .. })));
    }

    #[test]
    fn persistent_outage_quarantines_then_readmits() {
        // WAN dead from 0 to 1000 s, healthy afterwards.
        let sched = FaultSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_secs(1000),
            FaultKind::Outage,
        );
        let mut sim = SimView::new(faulty_wan_sys(sched));
        let mut hier = hier_split(6);
        let cfg = DistributedDlbConfig {
            quarantine_after: 2,
            ..Default::default()
        };
        let mut dlb = DistributedDlb::new(cfg);
        let mut history = WorkloadHistory::new(4);

        // Two steps with the link dead: the decision collective fails even
        // after retries — one strike per step; quarantine_after = 2.
        step(&mut dlb, &mut sim, &mut hier, &mut history, 60.0);
        step(&mut dlb, &mut sim, &mut hier, &mut history, 60.0);
        assert!(
            !dlb.roster.is_healthy(1),
            "B should be quarantined: {:?}",
            dlb.fault_events()
        );
        assert_eq!(dlb.fault_stats().quarantines, 1);
        assert_eq!(group_level0_cells(&hier, sim.system(), 0), 3072, "no motion");

        // While quarantined the global phase is silent (healthy set = {A}),
        // and the probation probe keeps failing inside the fault window.
        let before = dlb.decisions.len();
        step(&mut dlb, &mut sim, &mut hier, &mut history, 60.0);
        assert_eq!(dlb.decisions.len(), before, "no global decision while alone");
        assert!(!dlb.roster.is_healthy(1));

        // Advance past the fault window; probation probe re-admits B.
        for p in 0..4 {
            sim.busy(ProcId(p), 1100.0, Activity::Compute);
        }
        step(&mut dlb, &mut sim, &mut hier, &mut history, 60.0);
        assert!(dlb.roster.is_healthy(1), "{:?}", dlb.fault_events());
        let stats = dlb.fault_stats();
        assert_eq!(stats.readmissions, 1);
        assert!(stats.recovery_secs > 0.0);
        // and with the link back, the imbalance finally gets fixed
        let d = dlb.decisions.last().unwrap();
        assert!(d.invoked, "{d:?}");
        assert_eq!(group_level0_cells(&hier, sim.system(), 0), 2048);
    }

    #[test]
    fn midflight_failure_rolls_back_and_records_abort() {
        // Lossy WAN: small messages (the decision collective and the
        // 1 KiB / 64 KiB probes) get through, bulk payloads above 64 KiB
        // die mid-flight. Grids of 32×32×32 = 32768 cells carry a 256 KiB
        // payload, so the migration itself is what fails.
        let sched = FaultSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_secs(3600),
            FaultKind::DropLarge {
                threshold_bytes: (1 << 16) + 1,
            },
        );
        let mut sim = SimView::new(faulty_wan_sys(sched));
        let mut hier = {
            let mut h =
                GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(256, 32, 32)), 2, 4, 1, 1);
            for i in 0..8 {
                let owner = if i < 6 { 0 } else { 2 };
                h.insert_patch(
                    0,
                    region(ivec3(32 * i, 0, 0), ivec3(32 * (i + 1), 32, 32)),
                    None,
                    owner,
                );
            }
            h
        };
        let grids_before = hier.level_ids(0).len();
        let cells_a_before = group_level0_cells(&hier, sim.system(), 0);
        let mut history = WorkloadHistory::new(4);
        let mut dlb = DistributedDlb::default();
        step(&mut dlb, &mut sim, &mut hier, &mut history, 600.0);
        let d = &dlb.decisions[0];
        assert!(d.invoked, "{d:?}");
        assert!(d.aborted, "bulk transfer must have failed: {d:?}");
        assert!(d.abort_delta_secs > 0.0);
        let stats = dlb.fault_stats();
        assert_eq!(stats.aborts, 1);
        // rollback restored ownership exactly
        assert_eq!(group_level0_cells(&hier, sim.system(), 0), cells_a_before);
        assert_eq!(hier.level_ids(0).len(), grids_before, "splits rolled back");
        assert!(hier.check_invariants().is_ok());
        assert!(dlb
            .fault_events()
            .iter()
            .any(|e| matches!(e.kind, telemetry::FaultKind::Rollback { .. })));
    }

    /// `federation(16, 4, seed)` — two 8-group sites on one metro link —
    /// with that inter-site link cutting every transfer above 4 KiB.
    fn federation_with_lossy_metro(seed: u64) -> DistributedSystem {
        let fed = topology::presets::federation(16, 4, seed);
        let mut b = SystemBuilder::new();
        for g in fed.groups() {
            b = b.group(&g.name, g.nprocs(), fed.proc(g.procs[0]).weight, g.intra.clone());
        }
        let mut tiers = fed.tiers().expect("federation presets are tiered").clone();
        for link in tiers.region_links.values_mut() {
            *link = link.clone().with_faults(FaultSchedule::none().with_window(
                SimTime::ZERO,
                SimTime::from_secs(3600),
                FaultKind::DropLarge {
                    threshold_bytes: 4 << 10,
                },
            ));
        }
        b.tiers(tiers).build()
    }

    /// An abort in a two-tier tree: 16 groups is beyond the arity, so the
    /// root resolves the imbalance over its eight two-group children
    /// (`resolve_node`, which the test's name knows as `hier_resolve`). The
    /// first migration stays inside site 0 and lands; the second needs a
    /// split and crosses the lossy inter-site link, which kills it
    /// mid-flight. The decision is recorded aborted, its rollback follows
    /// its redistribute record, and owners, structure and data are the
    /// pre-decision ones.
    #[test]
    fn tree_path_abort_inside_hier_resolve_rolls_back() {
        let sys = federation_with_lossy_metro(20011110);
        assert_eq!(sys.inter_link(GroupId(0), GroupId(8)).name, "Metro MAN");
        let (tel, sink) = Telemetry::recording_shared();
        let mut sim = SimView::new(sys.clone());
        sim.set_telemetry(tel);

        // 8x8-cross-section slabs along x, all on their group's first
        // proc: group 0 holds a 96- and a 64-long one (20 grids' worth),
        // group 1 nothing, and of the 8-long grids the rest of site 0 holds
        // five per group, group 8 three and the rest of site 1 four — so
        // group 1 is the neediest receiver and site 1 comes next.
        let lead = |g: usize| sys.procs_in(GroupId(g))[0].0;
        let mut slabs = vec![(96, lead(0)), (64, lead(0))];
        for g in 2..16 {
            let n = match g {
                2..=7 => 5,
                8 => 3,
                _ => 4,
            };
            slabs.extend(vec![(8, lead(g)); n]);
        }
        let len: i64 = slabs.iter().map(|s| s.0).sum();
        let mut hier = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(len, 8, 8)), 2, 3, 1, 1);
        let mut x = 0;
        for &(w, owner) in &slabs {
            let id = hier.insert_patch(0, region(ivec3(x, 0, 0), ivec3(x + w, 8, 8)), None, owner);
            hier.patch_mut(id).fields[0].map_interior(|p, _| (p.x * 64 + p.y * 8 + p.z) as f64);
            x += w;
        }
        // a thin refined grid along the middle of the 64-long slab: light
        // enough that the 96-long slab is still the first pick, and in the
        // way of the cut the 64-long one then needs
        let parent = hier.level_ids(0)[1];
        hier.insert_patch(
            1,
            region(ivec3(2 * (96 + 16), 0, 0), ivec3(2 * (96 + 48), 4, 2)),
            Some(parent),
            lead(0),
        );
        let before = samr_mesh::checkpoint::snapshot(&hier);

        let mut history = WorkloadHistory::new(sys.nprocs());
        history.record_snapshot(
            (0..2).map(|l| hier.level_load_by_owner(l, sys.nprocs())).collect(),
            vec![1, 2],
        );
        history.record_step_time(600.0);
        let mut dlb = DistributedDlb::new(DistributedDlbConfig {
            gamma: 0.0,
            // probes that squeeze under the drop threshold
            probe_small_bytes: 256,
            probe_large_bytes: 2048,
            ..Default::default()
        });
        dlb.global_phase(
            &mut LbContext {
                hier: &mut hier,
                sim: &mut sim,
                history: &mut history,
            },
            None,
            0,
        );

        // the tree ran (representative pairs only), and its root aborted
        assert!(dlb.estimator_pairs() <= 28, "{} pairs", dlb.estimator_pairs());
        let d = dlb.decisions.last().expect("a decision was pushed");
        assert!(d.invoked && d.aborted, "{d:?}");
        assert!(d.abort_delta_secs > 0.0);
        let partial = d.report.as_ref().expect("partial motion is reported");
        assert!(partial.moves >= 1 && partial.splits >= 1, "not mid-migration: {partial:?}");
        assert_eq!(dlb.fault_stats().aborts, 1);

        // rollback right after its aborted redistribute
        let events = sink.lock().unwrap().events();
        let at = events
            .iter()
            .position(|e| matches!(&e.kind, TelEventKind::Redistribute(r) if r.aborted))
            .expect("aborted redistribute record");
        assert!(
            matches!(
                &events[at + 1].kind,
                TelEventKind::Fault(f) if matches!(f.kind, telemetry::FaultKind::Rollback { .. })
            ),
            "{:?}",
            events[at + 1]
        );

        // pre-decision owners, structure and data
        assert!(hier.check_invariants().is_ok());
        crate::partition::assert_matches_snapshot(&hier, &before);
    }
}
