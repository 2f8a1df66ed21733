//! Layer replays: after the traced pass, `checkpoint::snapshot` →
//! `restore` gives private copies of the final mesh, on which each layer's
//! public functions are timed directly — the median of `reps` calls, on a
//! fresh copy wherever the call mutates. No production code is edited or
//! instrumented; every replay call is a span of the traced pass.

use crate::stats::median;
use crate::tracer::Tracer;
use crate::workload::mix;
use dlb::{
    decompose_domain, global_redistribute, DistributedDlb, DistributedDlbConfig, LbContext,
    LoadBalancer, WorkloadHistory,
};
use forecast::{PredictorKind, SeriesForecaster};
use rayon::prelude::*;
use samr_engine::{AppState, RunConfig, Scheme};
use samr_mesh::checkpoint::{restore, snapshot_in, HierarchySnapshot};
use samr_mesh::interp::{prolong_constant, restrict_average};
use samr_mesh::{
    berger_rigoutsos, ClusterParams, Field3, FlagField, GridHierarchy, PatchId, Region,
};
use simnet::{Activity, SimHandle, SimView};
use topology::{probe_link, DistributedSystem, GroupId, ProcId, SimTime};

/// What the replays run on: the traced pass's final state.
pub struct ReplayInput<'a> {
    pub snapshot: &'a HierarchySnapshot,
    /// The system the mesh's owners index into.
    pub mesh_sys: &'a DistributedSystem,
    /// The workload's whole system (differs from `mesh_sys` only on
    /// `tenants_6g`, where the mesh is a probe job's on a 2-group view).
    pub net_sys: &'a DistributedSystem,
    pub app: &'a AppState,
    pub history: &'a WorkloadHistory,
    pub cfg: &'a RunConfig,
    pub seed: u64,
    /// Calls per replay (the reported value is their median).
    pub reps: usize,
    /// Messages per simnet/topology replay call.
    pub sends: usize,
}

const MIB: f64 = 1024.0 * 1024.0;
const MSG_BYTES: u64 = 64 * 1024;

fn all_ids(hier: &GridHierarchy) -> Vec<PatchId> {
    (0..hier.num_levels())
        .flat_map(|l| hier.level_ids(l).to_vec())
        .collect()
}

/// Seeded `(src, dst)` processor pairs, `src != dst`.
fn proc_pairs(nprocs: usize, n: usize, seed: u64) -> Vec<(ProcId, ProcId)> {
    (0..n as u64)
        .map(|i| {
            let a = mix(seed ^ (2 * i)) as usize % nprocs;
            let b = (a + 1 + mix(seed ^ (2 * i + 1)) as usize % (nprocs - 1).max(1)) % nprocs;
            (ProcId(a), ProcId(b))
        })
        .collect()
}

fn dlb_config(cfg: &RunConfig) -> DistributedDlbConfig {
    match &cfg.scheme {
        Scheme::Distributed(c) => c.clone(),
        _ => DistributedDlbConfig::default(),
    }
}

/// Iteration-weighted workload per group, `Σ cells · r^level`.
fn group_loads(hier: &GridHierarchy, sys: &DistributedSystem) -> Vec<f64> {
    let mut loads = vec![0.0; sys.ngroups()];
    for p in hier.iter() {
        let w = (hier.refine_factor() as f64).powi(p.level as i32);
        loads[sys.group_of(ProcId(p.owner)).0] += p.cells() as f64 * w;
    }
    loads
}

/// Run every layer replay; `(metric name, value)` pairs.
pub fn run_replays(input: &ReplayInput<'_>, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let outer = tracer.begin("replays", "bench");
    solver_and_mesh(input, tracer, &mut out);
    balancer(input, tracer, &mut out);
    network(input, tracer, &mut out);
    forecaster(input, tracer, &mut out);
    tracer.end(outer);
    out
}

fn solver_and_mesh(
    input: &ReplayInput<'_>,
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) {
    let app = input.app;
    let dt = app.dt_over_dx0();
    let reps = input.reps.max(1);
    let (mut topo_s, mut one_s, mut many_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut restrict_s, mut prolong_s) = (Vec::new(), Vec::new());
    let (mut overlaps, mut cells, mut fine_cells) = (0usize, 0i64, 0i64);

    for _ in 0..reps {
        // copy A: cold topology build, then the single-threaded solve
        let mut hier = restore(input.snapshot);
        overlaps = 0;
        let ((), s) = tracer.time("exchange_topology(cold)", "samr-mesh", || {
            for l in 0..hier.num_levels() {
                overlaps += hier.exchange_topology(l).overlaps.len();
            }
        });
        topo_s.push(s);
        let pool = hier.pool().clone();
        let ids = all_ids(&hier);
        cells = ids.iter().map(|&id| hier.patch(id).cells()).sum();
        let mut work: Vec<Vec<Field3>> = ids
            .iter()
            .map(|&id| std::mem::take(&mut hier.patch_mut(id).fields))
            .collect();
        let ((), s) = tracer.time("step_patch(1 thread)", "samr-solvers", || {
            for fields in work.iter_mut() {
                app.step_patch(fields, dt, &pool);
            }
        });
        one_s.push(s);
        drop(work);

        // copy B: the solve across the pinned pool, as the driver issues it,
        // then the inter-level transfers on the stepped data
        let mut hier = restore(input.snapshot);
        let pool = hier.pool().clone();
        let mut work: Vec<Vec<Field3>> = ids
            .iter()
            .map(|&id| std::mem::take(&mut hier.patch_mut(id).fields))
            .collect();
        let ((), s) = tracer.time("step_patch(pool)", "samr-solvers", || {
            work.par_iter_mut().for_each(|fields| {
                let handle = pool.worker_handle();
                app.step_patch(fields, dt, &handle);
            });
        });
        many_s.push(s);
        for (&id, fields) in ids.iter().zip(work) {
            hier.patch_mut(id).fields = fields;
        }
        let r = hier.refine_factor();
        let children: Vec<(PatchId, PatchId)> = ids
            .iter()
            .filter_map(|&id| hier.patch(id).parent.map(|parent| (id, parent)))
            .collect();
        fine_cells = children.iter().map(|&(c, _)| hier.patch(c).cells()).sum();
        let ((), s) = tracer.time("restrict_average", "samr-mesh", || {
            for &(child, parent) in &children {
                hier.with_patch_pair(child, parent, |c, p| {
                    let window = c.region.coarsen(r);
                    for (cf, pf) in c.fields.iter().zip(p.fields.iter_mut()) {
                        restrict_average(cf, pf, &window, r);
                    }
                });
            }
        });
        restrict_s.push(s);
        let ((), s) = tracer.time("prolong_constant", "samr-mesh", || {
            for &(child, parent) in &children {
                hier.with_patch_pair(parent, child, |p, c| {
                    let window = c.region;
                    for (pf, cf) in p.fields.iter().zip(c.fields.iter_mut()) {
                        prolong_constant(pf, cf, &window, r);
                    }
                });
            }
        });
        prolong_s.push(s);
    }
    let per_cell = |s: &[f64], n: i64| {
        if n > 0 {
            median(s) * 1e9 / n as f64
        } else {
            0.0
        }
    };
    let (one, many) = (median(&one_s), median(&many_s));
    out.push(("samr-solvers.replay_cells", cells as f64));
    out.push((
        "samr-solvers.step_patch_ns_per_cell_1t",
        per_cell(&one_s, cells),
    ));
    out.push((
        "samr-solvers.step_patch_ns_per_cell_nt",
        per_cell(&many_s, cells),
    ));
    out.push((
        "samr-solvers.parallel_efficiency",
        one / (many * rayon::current_num_threads() as f64),
    ));
    out.push(("samr-mesh.topology_build_ms", median(&topo_s) * 1e3));
    out.push(("samr-mesh.topology_overlaps", overlaps as f64));
    out.push((
        "samr-mesh.restrict_ns_per_cell",
        per_cell(&restrict_s, fine_cells),
    ));
    out.push((
        "samr-mesh.prolong_ns_per_cell",
        per_cell(&prolong_s, fine_cells),
    ));

    // the calls below only read the mesh: one copy serves every repetition
    let hier = restore(input.snapshot);
    let pool = hier.pool();
    let flaggable: Vec<PatchId> = (0..hier.num_levels().min(hier.max_levels() - 1))
        .flat_map(|l| hier.level_ids(l).to_vec())
        .collect();
    let flag_cells: i64 = flaggable.iter().map(|&id| hier.patch(id).cells()).sum();
    let mut flags: Vec<FlagField> = Vec::new();
    let mut flag_s = Vec::new();
    for _ in 0..reps {
        flags.clear();
        let ((), s) = tracer.time("flag_patch", "samr-mesh", || {
            flags.extend(
                flaggable
                    .iter()
                    .map(|&id| app.flag_patch(hier.patch(id), pool)),
            );
        });
        flag_s.push(s);
    }
    for f in flags.iter_mut() {
        f.buffer(input.cfg.flag_buffer);
    }
    let params = ClusterParams {
        min_efficiency: 0.7,
        min_box_cells: 4,
        max_depth: 64,
        max_box_cells: input.cfg.max_box_cells,
    };
    let mut boxes = 0usize;
    let mut cluster_s = Vec::new();
    for _ in 0..reps {
        boxes = 0;
        let ((), s) = tracer.time("berger_rigoutsos", "samr-mesh", || {
            for f in &flags {
                boxes += berger_rigoutsos(f, &params).len();
            }
        });
        cluster_s.push(s);
    }
    let mut snap_s = Vec::new();
    let mut snap_bytes = 0usize;
    for _ in 0..reps {
        let ((), s) = tracer.time("snapshot_in+recycle", "samr-mesh", || {
            let snap = snapshot_in(&hier, pool);
            snap_bytes = snap
                .patches
                .iter()
                .flat_map(|p| p.fields.iter())
                .map(|f| 8 * f.data().len())
                .sum();
            snap.recycle(pool);
        });
        snap_s.push(s);
    }
    out.push(("samr-mesh.flag_ns_per_cell", per_cell(&flag_s, flag_cells)));
    out.push(("samr-mesh.cluster_ms", median(&cluster_s) * 1e3));
    out.push(("samr-mesh.cluster_boxes", boxes as f64));
    out.push(("samr-mesh.snapshot_ms", median(&snap_s) * 1e3));
    out.push(("samr-mesh.snapshot_mb", snap_bytes as f64 / MIB));
}

fn balancer(input: &ReplayInput<'_>, tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let dcfg = dlb_config(input.cfg);
    let sys = input.mesh_sys;
    let reps = input.reps.max(1);
    // a fresh scheme, simulator and history copy per call: the first global
    // check of a run (cold estimators, every link probed)
    let mut after_level = |level: usize, name: &str| -> f64 {
        let mut samples = Vec::new();
        for _ in 0..reps {
            let mut hier = restore(input.snapshot);
            let mut sim = SimView::new(sys.clone());
            let mut history = input.history.clone();
            let mut scheme = DistributedDlb::new(dcfg.clone());
            let level = level.min(hier.num_levels() - 1);
            let (res, s) = tracer.time(name, "dlb", || {
                let ctx = LbContext {
                    hier: &mut hier,
                    sim: &mut sim,
                    history: &mut history,
                };
                scheme.after_level_step(ctx, level)
            });
            // a quiet fault schedule leaves nothing to fail
            res.expect("after_level_step on a fault-free system");
            samples.push(s);
        }
        median(&samples) * 1e3
    };
    let level0 = after_level(0, "after_level_step(0)");
    let level1 = after_level(1, "after_level_step(1)");
    let mut redist_s = Vec::new();
    for _ in 0..reps {
        let mut hier = restore(input.snapshot);
        let mut sim = SimView::new(sys.clone());
        let loads = group_loads(&hier, sys);
        let (_, s) = tracer.time("global_redistribute", "dlb", || {
            global_redistribute(&mut hier, &mut sim, &loads, &dcfg.balance)
        });
        redist_s.push(s);
    }
    let shares: Vec<f64> = sys.procs().iter().map(|p| p.weight).collect();
    let domain = Region::cube(input.cfg.n0);
    let mut decompose_s = Vec::new();
    for _ in 0..reps.max(5) {
        let (parts, s) = tracer.time("decompose_domain", "dlb", || {
            decompose_domain(domain, &shares)
        });
        assert_eq!(parts.len(), shares.len());
        decompose_s.push(s);
    }
    out.push(("dlb.after_level0_ms", level0));
    out.push(("dlb.after_level1_ms", level1));
    out.push(("dlb.redistribute_ms", median(&redist_s) * 1e3));
    out.push(("dlb.decompose_domain_us", median(&decompose_s) * 1e6));
}

fn network(input: &ReplayInput<'_>, tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let sys = input.net_sys;
    let reps = input.reps.max(1);
    let n = input.sends.max(1);
    let pairs = proc_pairs(sys.nprocs(), n, input.seed);
    let collectives = (n / 64).max(4);
    let send_all = |sim: &mut SimView| {
        for &(src, dst) in &pairs {
            let act = if sim.is_remote(src, dst) {
                Activity::RemoteComm
            } else {
                Activity::LocalComm
            };
            sim.send(src, dst, MSG_BYTES, act)
                .expect("send on a fault-free system");
        }
    };

    let mut sim = SimView::new(sys.clone());
    let (mut send_s, mut reduce_s, mut barrier_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        send_s.push(tracer.time("send", "simnet", || send_all(&mut sim)).1);
        let ((), s) = tracer.time("allreduce_all", "simnet", || {
            for _ in 0..collectives {
                sim.allreduce_all(64, Activity::LoadBalance)
                    .expect("allreduce, fault-free");
            }
        });
        reduce_s.push(s);
        let ((), s) = tracer.time("barrier_all", "simnet", || {
            for _ in 0..collectives {
                sim.barrier_all();
            }
        });
        barrier_s.push(s);
    }
    let groups: Vec<GroupId> = (0..sys.ngroups()).map(GroupId).collect();
    let mut shared = SimHandle::new(sys.clone()).view(&groups);
    let mut shared_s = Vec::new();
    for _ in 0..reps {
        shared_s.push(
            tracer
                .time("send(shared view)", "simnet", || send_all(&mut shared))
                .1,
        );
    }

    let far = sys.inter_link(GroupId(0), GroupId(sys.ngroups() - 1));
    let (mut transfer_s, mut probe_s) = (Vec::new(), Vec::new());
    let mut sink = 0u64;
    for _ in 0..reps {
        let ((), s) = tracer.time("transfer_time", "topology", || {
            for (i, &(a, b)) in pairs.iter().enumerate() {
                let t = SimTime::from_micros(137 * i as u64);
                sink ^= sys.transfer_time(t, a, b, MSG_BYTES).as_nanos();
            }
        });
        transfer_s.push(s);
        let ((), s) = tracer.time("probe_link", "topology", || {
            for i in 0..n as u64 {
                let sample = probe_link(far, SimTime::from_millis(53 * i), 1 << 10, 1 << 16);
                sink ^= sample.expect("probe, fault-free").elapsed.as_nanos();
            }
        });
        probe_s.push(s);
    }
    std::hint::black_box(sink);

    let per = |s: &[f64], count: usize, scale: f64| median(s) * scale / count as f64;
    out.push(("simnet.send_ns", per(&send_s, n, 1e9)));
    out.push(("simnet.allreduce_all_us", per(&reduce_s, collectives, 1e6)));
    out.push(("simnet.barrier_all_us", per(&barrier_s, collectives, 1e6)));
    out.push(("simnet.shared_send_ns", per(&shared_s, n, 1e9)));
    out.push(("topology.transfer_time_ns", per(&transfer_s, n, 1e9)));
    out.push(("topology.probe_link_ns", per(&probe_s, n, 1e9)));
}

/// The adaptive selector on a seeded series. No workload routes the γ-gate
/// through the forecaster by default, so nothing end-to-end depends on it.
fn forecaster(input: &ReplayInput<'_>, tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let n = 4096usize;
    let series: Vec<f64> = (0..n as u64)
        .map(|i| 1.0 + (mix(input.seed ^ i) % 1000) as f64 / 1000.0)
        .collect();
    let mut samples = Vec::new();
    let mut sink = 0.0;
    for _ in 0..input.reps.max(1) {
        let mut model = SeriesForecaster::new(PredictorKind::Adaptive, input.seed);
        let ((), s) = tracer.time("observe+forecast", "forecast", || {
            for (i, &v) in series.iter().enumerate() {
                model.observe(i as f64, v);
                sink += model.forecast().unwrap_or(0.0);
            }
        });
        samples.push(s);
    }
    std::hint::black_box(sink);
    out.push((
        "forecast.observe_predict_ns",
        median(&samples) * 1e9 / n as f64,
    ));
}
