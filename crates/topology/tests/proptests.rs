//! Property-based tests for links, traffic models, probes and systems.

use base::prop::{self, Gen};
use topology::link::Link;
use topology::probe::probe_link;
use topology::traffic::TrafficModel;
use topology::{SimTime, SystemBuilder};

fn arb_traffic(g: &mut Gen) -> TrafficModel {
    match g.usize(0..4) {
        0 => TrafficModel::Quiet,
        1 => TrafficModel::Constant {
            load: g.f64(0.0..0.99),
        },
        2 => TrafficModel::Diurnal {
            base: g.f64(0.1..0.6),
            amp: g.f64(0.0..0.35),
            period: SimTime::from_secs(g.u64(1..600)),
        },
        _ => TrafficModel::Bursty {
            low: g.f64(0.0..0.4),
            high: g.f64(0.4..0.95),
            p_on: g.f64(0.0..1.0),
            slot: SimTime::from_secs(g.u64(1..60)),
            seed: g.any_u64(),
        },
    }
}

#[test]
fn utilization_always_in_unit_range() {
    prop::check(
        prop::CASES,
        |g| (arb_traffic(g), g.u64(0..100_000)),
        |(m, t)| {
            let u = m.utilization(SimTime::from_millis(t));
            assert!((0.0..=0.99).contains(&u), "u = {u}");
        },
    );
}

#[test]
fn utilization_is_pure() {
    prop::check(
        prop::CASES,
        |g| (arb_traffic(g), g.u64(0..100_000)),
        |(m, t)| {
            let time = SimTime::from_millis(t);
            assert_eq!(m.utilization(time), m.utilization(time));
        },
    );
}

#[test]
fn transfer_time_monotone_in_bytes() {
    prop::check(
        prop::CASES,
        |g| {
            (
                arb_traffic(g),
                g.u64(0..20_000),
                g.f64(1e6..1e9),
                g.u64(0..100_000_000),
                g.u64(1..1_000_000),
                g.u64(0..10_000),
            )
        },
        |(m, lat_us, bw, bytes, extra, t)| {
            let link = Link::shared("x", SimTime::from_micros(lat_us), bw, m);
            let time = SimTime::from_millis(t);
            let small = link.transfer_time(time, bytes);
            let large = link.transfer_time(time, bytes + extra);
            assert!(large >= small);
            // never faster than latency alone
            assert!(small >= SimTime::from_micros(lat_us));
        },
    );
}

#[test]
fn probe_recovers_params_within_tolerance() {
    prop::check(
        prop::CASES,
        |g| (g.u64(1..20_000), g.f64(1e6..1e9), g.f64(0.0..0.9)),
        |(lat_us, bw, load)| {
            // constant background: the two probe messages see the same link
            // state, so the estimate must match the true α and effective β
            let link = Link::shared(
                "x",
                SimTime::from_micros(lat_us),
                bw,
                TrafficModel::Constant { load },
            );
            let s = probe_link(&link, SimTime::ZERO, 1 << 10, 1 << 17)
                .expect("fault-free link probes must succeed");
            let true_alpha = lat_us as f64 * 1e-6;
            let true_beta = 1.0 / (bw * (1.0 - load));
            assert!(
                (s.alpha - true_alpha).abs() <= true_alpha * 0.01 + 1e-9,
                "alpha {} vs {true_alpha}",
                s.alpha
            );
            assert!(
                (s.beta - true_beta).abs() <= true_beta * 0.01 + 1e-15,
                "beta {} vs {true_beta}",
                s.beta
            );
        },
    );
}

#[test]
fn group_powers_sum_to_total() {
    prop::check(
        prop::CASES,
        |g| {
            (
                g.usize(1..9),
                g.usize(1..9),
                g.f64(0.25..4.0),
                g.f64(0.25..4.0),
            )
        },
        |(na, nb, wa, wb)| {
            let intra = Link::dedicated("intra", SimTime::ZERO, 1e9);
            let wan = Link::dedicated("wan", SimTime::from_millis(1), 1e7);
            let sys = SystemBuilder::new()
                .group("A", na, wa, intra.clone())
                .group("B", nb, wb, intra)
                .connect(0, 1, wan)
                .build();
            let total: f64 = (0..sys.ngroups())
                .map(|g| sys.group_power(topology::GroupId(g)))
                .sum();
            assert!((total - sys.total_power()).abs() < 1e-9);
            assert_eq!(sys.nprocs(), na + nb);
            // every processor belongs to exactly one group's roster
            for p in sys.procs() {
                let g = sys.group(p.group);
                assert!(g.procs.contains(&p.id));
            }
        },
    );
}

#[test]
fn mean_utilization_within_extremes() {
    prop::check(prop::CASES, arb_traffic, |m| {
        let mean = (0..200)
            .map(|i| m.utilization(SimTime::from_secs(5 * i)))
            .sum::<f64>()
            / 200.0;
        assert!((0.0..=0.99).contains(&mean));
    });
}
