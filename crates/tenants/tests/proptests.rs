//! Property tests for the admission layer: placement is a pure function of
//! (specs, groups, seed), placements are always well-formed, and the
//! cumulative-distribution pick converges to the priority weights.

use base::prop::{self, Gen};
use base::rng::SplitMix64;
use samr_engine::AppKind;
use tenants::{pick_weighted, place_static, place_tenants, TenantSpec};

fn spec(g: &mut Gen) -> TenantSpec {
    let (n0, steps, priority, span) = (
        g.usize(4..20),
        g.usize(1..6),
        g.f64(0.5..8.0),
        g.usize(1..3),
    );
    TenantSpec::new(AppKind::AdvectBlob, n0, steps, priority, span)
}

fn batch(g: &mut Gen) -> Vec<TenantSpec> {
    g.vec(1..9, spec)
}

/// Same specs + same seed ⇒ bitwise-identical placement; and every
/// placement is well-formed (a permutation admission order, exactly
/// `span` distinct in-range groups per tenant).
#[test]
fn placement_is_deterministic_and_well_formed() {
    prop::check(
        prop::CASES,
        |g| (batch(g), g.usize(3..8), g.any_u64()),
        |(specs, ngroups, seed)| {
            let a = place_tenants(&specs, ngroups, seed);
            let b = place_tenants(&specs, ngroups, seed);
            assert_eq!(&a, &b);

            let mut order = a.order.clone();
            order.sort_unstable();
            assert_eq!(order, (0..specs.len()).collect::<Vec<_>>());
            for (t, spec) in specs.iter().enumerate() {
                assert_eq!(a.groups[t].len(), spec.span);
                let mut gs = a.groups[t].clone();
                gs.dedup();
                assert_eq!(gs.len(), spec.span, "duplicate groups for tenant {t}");
                assert!(a.groups[t].iter().all(|g| g.0 < ngroups));
            }
        },
    );
}

/// The static baseline is seed-free and also well-formed.
#[test]
fn static_placement_is_well_formed() {
    prop::check(
        prop::CASES,
        |g| (batch(g), g.usize(3..8)),
        |(specs, ngroups)| {
            let p = place_static(&specs, ngroups);
            assert_eq!(&p.order, &(0..specs.len()).collect::<Vec<_>>());
            for (t, spec) in specs.iter().enumerate() {
                assert_eq!(p.groups[t].len(), spec.span);
                assert!(p.groups[t].iter().all(|g| g.0 < ngroups));
            }
        },
    );
}

/// Empirical pick frequencies converge to the normalized priority
/// weights (the cumulative-distribution pick is unbiased).
#[test]
fn pick_frequencies_converge_to_weights() {
    prop::check(
        prop::CASES,
        |g| (g.vec(2..5, |g| g.f64(0.1..10.0)), g.any_u64()),
        |(weights, seed)| {
            const DRAWS: usize = 20_000;
            let mut rng = SplitMix64::new(seed);
            let mut hits = vec![0usize; weights.len()];
            for _ in 0..DRAWS {
                hits[pick_weighted(&weights, rng.next_f64())] += 1;
            }
            let total: f64 = weights.iter().sum();
            for (i, w) in weights.iter().enumerate() {
                let expected = w / total;
                let observed = hits[i] as f64 / DRAWS as f64;
                // 20k uniform draws: σ ≤ 0.0036, so ±0.03 is > 8σ
                assert!(
                    (observed - expected).abs() < 0.03,
                    "weight {i} of {weights:?}: observed {observed:.4}, expected {expected:.4}",
                );
            }
        },
    );
}
