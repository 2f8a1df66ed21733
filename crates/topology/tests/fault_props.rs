//! Property tests for fault-schedule boundary semantics: half-open
//! windows, touching windows, query-order independence, and the
//! non-overlap invariant of generated proc-crash schedules.

use base::prop::{self, Gen};
use topology::{FaultKind, FaultSchedule, LinkHealth, ProcFaultSchedule, SimTime};

const CASES: u32 = 64;

fn kind_of(ix: usize, arg: u64) -> FaultKind {
    match ix % 4 {
        0 => FaultKind::Outage,
        1 => FaultKind::Blackhole,
        2 => FaultKind::Slowdown {
            factor: 0.05 + (arg % 90) as f64 / 100.0,
        },
        _ => FaultKind::DropLarge {
            threshold_bytes: 1 << (10 + arg % 8),
        },
    }
}

fn arb_window(g: &mut Gen) -> (u64, u64, FaultKind) {
    let (start, len, ix, arg) = (g.u64(0..900), g.u64(1..120), g.usize(0..4), g.u64(0..1000));
    (start, start + len, kind_of(ix, arg))
}

fn sched_from(windows: &[(u64, u64, FaultKind)]) -> FaultSchedule {
    let mut s = FaultSchedule::none();
    for &(a, b, k) in windows {
        s = s.with_window(SimTime::from_secs(a), SimTime::from_secs(b), k);
    }
    s
}

#[test]
fn single_window_is_half_open() {
    prop::check(CASES, arb_window, |w| {
        let (a, b, k) = w;
        let s = sched_from(&[w]);
        let start = SimTime::from_secs(a);
        let end = SimTime::from_secs(b);
        assert_ne!(s.health_at(start), LinkHealth::Up);
        assert_eq!(s.health_at(end), LinkHealth::Up);
        assert_ne!(s.health_at(SimTime(end.as_nanos() - 1)), LinkHealth::Up);
        if a > 0 {
            assert_eq!(s.health_at(SimTime(start.as_nanos() - 1)), LinkHealth::Up);
        }
        // a window disrupts itself (unless it is a pure slowdown / small drop)
        let disrupts = !matches!(k, FaultKind::Slowdown { .. });
        let hit = s.first_disruption_in(start, end, u64::MAX).is_some();
        assert_eq!(hit, disrupts);
    });
}

#[test]
fn touching_windows_cover_the_seam_with_the_second_kind() {
    prop::check(
        CASES,
        |g| (g.u64(0..500), g.u64(1..100), g.u64(1..100)),
        |(a, l1, l2)| {
            // [a, b) Outage then [b, c) Blackhole: at the seam exactly the
            // second window applies (half-open on the left, closed on the right)
            let b = a + l1;
            let c = b + l2;
            let s = sched_from(&[(a, b, FaultKind::Outage), (b, c, FaultKind::Blackhole)]);
            assert_eq!(s.health_at(SimTime::from_secs(b)), LinkHealth::Blackhole);
            assert_eq!(
                s.health_at(SimTime(SimTime::from_secs(b).as_nanos() - 1)),
                LinkHealth::Down
            );
            assert_eq!(s.health_at(SimTime::from_secs(c)), LinkHealth::Up);
        },
    );
}

#[test]
fn queries_are_window_order_independent() {
    prop::check(
        CASES,
        |g| {
            (
                g.vec(1..12, arb_window),
                g.vec(1..16, |g| g.u64(0..1100)),
                g.u64(1..10_000_000),
            )
        },
        |(mut ws, probe_s, bytes)| {
            let fwd = sched_from(&ws);
            ws.reverse();
            let rev = sched_from(&ws);
            for &t in &probe_s {
                let t = SimTime::from_secs(t);
                assert_eq!(fwd.health_at(t), rev.health_at(t));
                assert_eq!(fwd.slowdown_factor_at(t), rev.slowdown_factor_at(t));
                let span = SimTime(t.as_nanos() + SimTime::from_secs(30).as_nanos());
                assert_eq!(
                    fwd.first_disruption_in(t, span, bytes).map(|d| d.0),
                    rev.first_disruption_in(t, span, bytes).map(|d| d.0)
                );
            }
        },
    );
}

#[test]
fn schedule_is_quiet_outside_every_window() {
    prop::check(
        CASES,
        |g| g.vec(0..8, arb_window),
        |ws| {
            let s = sched_from(&ws);
            assert_eq!(s.is_quiet(), ws.is_empty());
            let horizon = ws.iter().map(|w| w.1).max().unwrap_or(0);
            assert_eq!(s.health_at(SimTime::from_secs(horizon + 1)), LinkHealth::Up);
            assert_eq!(s.slowdown_factor_at(SimTime::from_secs(horizon + 1)), 1.0);
        },
    );
}

#[test]
fn generated_proc_windows_never_overlap() {
    prop::check(
        CASES,
        |g| (g.any_u64(), g.usize(1..12), g.u64(5..120), g.u64(2..60)),
        |(seed, nprocs, mean_up_s, mean_down_s)| {
            let s = ProcFaultSchedule::generate(
                seed,
                nprocs,
                &[],
                SimTime::from_secs(2000),
                SimTime::from_secs(mean_up_s),
                SimTime::from_secs(mean_down_s),
            );
            assert_eq!(s.nprocs(), nprocs);
            for p in 0..nprocs {
                let mut ws = s.windows[p].clone();
                ws.sort_by_key(|w| w.start);
                for pair in ws.windows(2) {
                    assert!(
                        pair[0].end <= pair[1].start,
                        "proc {p} windows overlap: {pair:?}"
                    );
                }
                for w in &ws {
                    assert!(w.start < w.end);
                    // dead inside, alive at both edges of the complement
                    let mid = SimTime(w.start.0 + (w.end.0 - w.start.0) / 2);
                    assert!(!s.alive_at(p, mid));
                    assert_eq!(s.crash_start(p, mid), Some(w.start));
                    assert!(s.alive_at(p, w.end));
                }
            }
        },
    );
}

#[test]
fn generated_proc_schedule_is_reproducible() {
    prop::check(CASES, Gen::any_u64, |seed| {
        let mk = || {
            ProcFaultSchedule::generate(
                seed,
                6,
                &[0, 3],
                SimTime::from_secs(1000),
                SimTime::from_secs(30),
                SimTime::from_secs(10),
            )
        };
        assert_eq!(mk(), mk());
    });
}
