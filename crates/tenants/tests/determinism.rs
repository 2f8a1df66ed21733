//! Integration test: an N-tenant shared-clock service run is bit-identical
//! across independent executions — including one that records telemetry.
//! Everything the service simulates is seeded, the stepping order is a pure
//! function of view clocks, and the observer must never perturb the run.

use samr_engine::AppKind;
use telemetry::Telemetry;
use tenants::{TenantService, TenantServiceConfig, TenantSpec};
use topology::{presets, DistributedSystem, Link, SystemBuilder, TrafficModel};

/// Five homogeneous 2-proc sites, fully connected by bursty shared links.
fn substrate() -> DistributedSystem {
    let lan = |s: u64| {
        Link::shared(
            "LAN",
            topology::SimTime::from_micros(120),
            125e6,
            TrafficModel::Bursty {
                low: 0.1,
                high: 0.6,
                p_on: 0.4,
                slot: topology::SimTime::from_secs(2),
                seed: s,
            },
        )
    };
    let mut b = SystemBuilder::new();
    for g in 0..5 {
        b = b.group(&format!("site-{g}"), 2, 1.0, presets::origin2000_intra());
    }
    for a in 0..5usize {
        for c in (a + 1)..5 {
            b = b.connect(a, c, lan(((a as u64) << 8) | c as u64));
        }
    }
    b.build()
}

fn mix() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(AppKind::ShockPool3D, 12, 3, 4.0, 2),
        TenantSpec::new(AppKind::AdvectBlob, 8, 3, 1.0, 1),
        TenantSpec::new(AppKind::Amr64, 12, 3, 4.0, 2),
        TenantSpec::new(AppKind::AdvectBlob, 8, 3, 1.0, 1),
        TenantSpec::new(AppKind::AdvectBlob, 10, 3, 2.0, 1),
    ]
}

fn run(telemetry: Telemetry) -> tenants::ServiceResult {
    let cfg = TenantServiceConfig {
        seed: 11,
        telemetry,
        ..TenantServiceConfig::default()
    };
    TenantService::new(substrate(), mix(), cfg).run()
}

#[test]
fn shared_clock_service_is_bit_identical_across_executions() {
    let a = run(Telemetry::null());
    let b = run(Telemetry::null());
    let observed = run(Telemetry::recording());

    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(
        a.fingerprint(),
        observed.fingerprint(),
        "recording telemetry perturbed the shared clock"
    );

    // the fingerprint digests everything below, but compare field-by-field
    // too so a failure names the diverging quantity
    assert_eq!(a.tenants, b.tenants);
    assert_eq!(a.tenants, observed.tenants);
    assert_eq!(a.total_secs.to_bits(), observed.total_secs.to_bits());
    assert_eq!(a.migrations, observed.migrations);
    for (ra, ro) in a.runs.iter().zip(&observed.runs) {
        assert_eq!(ra.total_secs.to_bits(), ro.total_secs.to_bits());
        assert_eq!(ra.cell_updates, ro.cell_updates);
        assert_eq!(ra.steps, ro.steps);
    }
}
