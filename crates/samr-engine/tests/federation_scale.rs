//! Federation-scale decision phase: the global phase is one routine over a
//! reduction tree, so at small G — where the tree is a single node over the
//! individual groups, the paper's all-groups compare — pinning the tree to
//! one node (`flat_reference`) must change nothing, and at federation scale
//! the run must stay bit-deterministic, recording telemetry or not.

use dlb::DistributedDlbConfig;
use samr_engine::{AppKind, Driver, RunConfig, RunResult, Scheme};
use topology::presets;
use topology::DistributedSystem;

/// Everything that must agree bitwise between two runs (or two decision
/// datapaths): simulated outcome, workload, network traffic, decision
/// protocol bookkeeping, and the final balance.
type Fingerprint = (u64, u64, u64, u64, usize, usize, usize, u64, u64, u64);

fn fingerprint(r: &RunResult) -> Fingerprint {
    (
        r.total_secs.to_bits(),
        r.cell_updates,
        r.breakdown.remote_bytes,
        r.breakdown.remote_msgs,
        r.final_patches,
        r.global_checks,
        r.global_redistributions,
        r.decision_msgs,
        r.estimator_pairs,
        r.final_imbalance.to_bits(),
    )
}

fn run(sys: DistributedSystem, flat_reference: bool, tel: telemetry::Telemetry) -> RunResult {
    let mut cfg = RunConfig::new(
        AppKind::Amr64,
        16,
        3,
        Scheme::Distributed(DistributedDlbConfig {
            flat_reference,
            ..Default::default()
        }),
    );
    cfg.max_levels = 3;
    cfg.telemetry = tel;
    Driver::new(sys, cfg).run()
}

/// At G ≤ [`dlb::distributed::TREE_ARITY`] both sides build the same
/// one-node tree (arity 8 and arity G split G ≤ 8 groups into G leaves), so
/// `flat_reference` must change *nothing*: same decisions, same traffic,
/// same outcome, bit for bit. The end-to-end guard of what
/// `arity_at_least_n_is_one_node_over_n_leaves` states on the tree itself.
#[test]
fn small_g_hierarchical_equals_flat() {
    type MkSystem = fn() -> DistributedSystem;
    let systems: Vec<(&str, MkSystem)> = vec![
        ("anl_ncsa_wan 2x2", || presets::anl_ncsa_wan(2, 2, 7)),
        ("three_site_wan 2+2+2", || presets::three_site_wan(2, 2, 2, 7)),
        ("anl_lan_pair 4x4", || presets::anl_lan_pair(4, 4, 7)),
    ];
    for (name, mk) in systems {
        let hier = run(mk(), false, telemetry::Telemetry::null());
        let flat = run(mk(), true, telemetry::Telemetry::null());
        assert_eq!(
            fingerprint(&hier),
            fingerprint(&flat),
            "{name}: `flat_reference` must be inert at small G"
        );
        assert_eq!(hier.decisions.len(), flat.decisions.len(), "{name}");
        for (a, b) in hier.decisions.iter().zip(&flat.decisions) {
            assert_eq!(a.invoked, b.invoked, "{name} step {}", a.step);
            assert_eq!(a.moved_cells, b.moved_cells, "{name} step {}", a.step);
        }
    }
}

fn federation_run(tel: telemetry::Telemetry) -> RunResult {
    let sys = presets::federation(64, 2, 20011110);
    let mut cfg = RunConfig::new(
        AppKind::Amr64,
        32,
        2,
        Scheme::Distributed(DistributedDlbConfig::default()),
    );
    cfg.max_levels = 2;
    cfg.max_box_cells = 512;
    cfg.telemetry = tel;
    Driver::new(sys, cfg).run()
}

/// G = 64 federation: two executions are bit-identical, including one that
/// records telemetry (recording must never perturb the simulation), and the
/// tree-reduction bookkeeping is O(G), not O(G²).
#[test]
fn federation_g64_is_deterministic() {
    let a = federation_run(telemetry::Telemetry::null());
    let b = federation_run(telemetry::Telemetry::null());
    assert_eq!(fingerprint(&a), fingerprint(&b), "re-run must be bit-identical");

    let (tel, sink) = telemetry::Telemetry::recording_shared();
    let c = federation_run(tel);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&c),
        "recording telemetry must not perturb the run"
    );
    assert!(!sink.lock().unwrap().summary().is_empty());

    // O(G) decision bookkeeping: a one-node tree would allocate
    // G·(G−1)/2 = 2016 estimator pairs; the two-tier tree only touches
    // representative pairs.
    assert!(
        a.estimator_pairs <= 8 * 64,
        "estimator pairs must stay O(G): got {}",
        a.estimator_pairs
    );
    assert!(a.global_checks > 0, "the global phase must have run");
}
