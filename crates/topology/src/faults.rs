//! Deterministic link-fault schedules: outage windows, blackholed probes,
//! bandwidth collapse, and size-dependent drops.
//!
//! The paper's shared-WAN premise already models *slowdown* via
//! [`TrafficModel`](crate::traffic::TrafficModel); this module adds the
//! failure half of the story. A [`FaultSchedule`] is a list of half-open
//! time windows `[start, end)` during which a link misbehaves in one of
//! four ways ([`FaultKind`]). Like the traffic models, a schedule is a
//! *pure function of time and seed*: queries at the same time always agree,
//! so simulations stay reproducible regardless of query order.

use crate::time::SimTime;
use base::rng::splitmix64;

/// What a link does wrong during a fault window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Link is down: sends fail fast (the sender detects the dead peer
    /// after a round-trip's worth of waiting).
    Outage,
    /// Link silently swallows traffic: sends hang until their deadline.
    Blackhole,
    /// Bandwidth collapse: transfers succeed but effective bandwidth is
    /// multiplied by `factor` (e.g. 0.01 for a 100× collapse).
    Slowdown { factor: f64 },
    /// Transfers larger than `threshold_bytes` are cut partway through;
    /// small messages (probes, load reports) still get through.
    DropLarge { threshold_bytes: u64 },
}

/// One fault window `[start, end)` on a link's timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    pub start: SimTime,
    pub end: SimTime,
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Does this window cover time `t`?
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Does this window overlap the half-open span `[t0, t1)`?
    pub fn overlaps(&self, t0: SimTime, t1: SimTime) -> bool {
        self.start < t1 && t0 < self.end
    }
}

/// Instantaneous health of a link, derived from its schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkHealth {
    /// No active fault.
    Up,
    /// Outage in progress.
    Down,
    /// Blackhole in progress.
    Blackhole,
    /// Messages above the threshold are being dropped mid-flight.
    Lossy { threshold_bytes: u64 },
    /// Bandwidth collapsed by `factor`.
    Slow { factor: f64 },
}

impl LinkHealth {
    /// True when small control messages (probes, load reports) get through.
    pub fn passes_probes(&self) -> bool {
        !matches!(self, LinkHealth::Down | LinkHealth::Blackhole)
    }
}

/// A link's fault timeline. The default schedule is empty (a fault-free
/// link), so existing configurations deserialize unchanged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    pub windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// The fault-free schedule.
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// True when no fault window exists at all.
    pub fn is_quiet(&self) -> bool {
        self.windows.is_empty()
    }

    /// Builder: add one window `[start, end)`.
    pub fn with_window(mut self, start: SimTime, end: SimTime, kind: FaultKind) -> FaultSchedule {
        assert!(start < end, "fault window must have positive length");
        self.windows.push(FaultWindow { start, end, kind });
        self
    }

    /// Health at time `t`. When windows overlap, the most severe fault
    /// wins: Outage > Blackhole > DropLarge > Slowdown. Ties between two
    /// windows of the same kind go to the harsher payload (lower drop
    /// threshold, lower bandwidth factor), so the answer is independent
    /// of window insertion order.
    pub fn health_at(&self, t: SimTime) -> LinkHealth {
        let mut health = LinkHealth::Up;
        let mut rank = 0u8;
        for w in self.windows.iter().filter(|w| w.contains(t)) {
            let (r, h) = match w.kind {
                FaultKind::Outage => (4, LinkHealth::Down),
                FaultKind::Blackhole => (3, LinkHealth::Blackhole),
                FaultKind::DropLarge { threshold_bytes } => {
                    (2, LinkHealth::Lossy { threshold_bytes })
                }
                FaultKind::Slowdown { factor } => (1, LinkHealth::Slow { factor }),
            };
            let harsher_tie = r == rank
                && match (h, health) {
                    (
                        LinkHealth::Lossy { threshold_bytes: a },
                        LinkHealth::Lossy { threshold_bytes: b },
                    ) => a < b,
                    (LinkHealth::Slow { factor: a }, LinkHealth::Slow { factor: b }) => a < b,
                    _ => false,
                };
            if r > rank || harsher_tie {
                rank = r;
                health = h;
            }
        }
        health
    }

    /// Combined bandwidth multiplier from all Slowdown windows active at
    /// `t` (1.0 when none). Factors compose multiplicatively and the
    /// result is floored at 1% so a slowed link still drains.
    pub fn slowdown_factor_at(&self, t: SimTime) -> f64 {
        let factor: f64 = self
            .windows
            .iter()
            .filter(|w| w.contains(t))
            .filter_map(|w| match w.kind {
                FaultKind::Slowdown { factor } => Some(factor),
                _ => None,
            })
            .product();
        factor.clamp(0.01, 1.0)
    }

    /// Earliest moment in `[t0, t1)` at which a transfer of `bytes` in
    /// flight over that span would be disrupted, with the responsible
    /// fault. Outage and Blackhole disrupt every transfer; `DropLarge`
    /// only those strictly larger than its threshold; `Slowdown` never
    /// disrupts (it is priced into the bandwidth instead).
    pub fn first_disruption_in(
        &self,
        t0: SimTime,
        t1: SimTime,
        bytes: u64,
    ) -> Option<(SimTime, FaultKind)> {
        self.windows
            .iter()
            .filter(|w| w.overlaps(t0, t1))
            .filter(|w| match w.kind {
                FaultKind::Outage | FaultKind::Blackhole => true,
                FaultKind::DropLarge { threshold_bytes } => bytes > threshold_bytes,
                FaultKind::Slowdown { .. } => false,
            })
            .map(|w| (w.start.max(t0), w.kind))
            .min_by_key(|(t, _)| *t)
    }

    /// Generate a seeded, deterministic schedule over `[0, horizon)`:
    /// alternating up/down spans with exponentially distributed lengths
    /// (means `mean_up`/`mean_down`), each down span assigned a fault
    /// kind from the same RNG stream. Same seed ⇒ same schedule.
    pub fn generate(
        seed: u64,
        horizon: SimTime,
        mean_up: SimTime,
        mean_down: SimTime,
    ) -> FaultSchedule {
        assert!(mean_up > SimTime::ZERO && mean_down > SimTime::ZERO);
        let mut sched = FaultSchedule::none();
        let mut state = splitmix64(seed ^ 0xFA17_FA17_FA17_FA17);
        fn draw(state: &mut u64) -> u64 {
            *state = splitmix64(*state);
            *state
        }
        fn unit(state: &mut u64) -> f64 {
            (draw(state) >> 11) as f64 / (1u64 << 53) as f64
        }
        // exponential sample with the given mean, in nanos
        fn exp(state: &mut u64, mean: SimTime, horizon: SimTime) -> u64 {
            let ns = -(mean.as_nanos() as f64) * (1.0 - unit(state)).ln();
            (ns.max(1.0).min(horizon.as_nanos() as f64)) as u64
        }
        let mut t = SimTime(exp(&mut state, mean_up, horizon));
        while t < horizon {
            let down = SimTime(exp(&mut state, mean_down, horizon));
            let end = SimTime(t.as_nanos().saturating_add(down.as_nanos())).min(horizon);
            let kind = match draw(&mut state) % 4 {
                0 => FaultKind::Outage,
                1 => FaultKind::Blackhole,
                2 => FaultKind::Slowdown {
                    factor: 0.05 + 0.2 * unit(&mut state),
                },
                _ => FaultKind::DropLarge {
                    threshold_bytes: 1 << (10 + draw(&mut state) % 8),
                },
            };
            if t < end {
                sched = sched.with_window(t, end, kind);
            }
            t = SimTime(end.as_nanos().saturating_add(exp(&mut state, mean_up, horizon)));
        }
        sched
    }
}

/// One crash window `[start, end)` on a processor's timeline: the proc is
/// dead (crash-stop) for the whole window and rejoins, empty-handed, at
/// `end`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProcFaultWindow {
    pub start: SimTime,
    pub end: SimTime,
}

impl ProcFaultWindow {
    /// Is the proc dead at time `t`? Half-open like [`FaultWindow`]:
    /// dead at `start`, alive again at `end`.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Crash/rejoin timelines for every processor of a system, indexed by the
/// dense `ProcId`. Like [`FaultSchedule`] this is a *pure function of time
/// and seed*: liveness queries at the same time always agree, so crash
/// detection is reproducible regardless of query order. Windows of one
/// proc never overlap (alternating up/down spans by construction;
/// [`ProcFaultSchedule::with_crash`] asserts it for hand-built schedules).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProcFaultSchedule {
    pub windows: Vec<Vec<ProcFaultWindow>>,
}

impl ProcFaultSchedule {
    /// The crash-free schedule for `nprocs` processors.
    pub fn none(nprocs: usize) -> ProcFaultSchedule {
        ProcFaultSchedule {
            windows: vec![Vec::new(); nprocs],
        }
    }

    /// Number of processors the schedule covers.
    pub fn nprocs(&self) -> usize {
        self.windows.len()
    }

    /// True when no proc ever crashes.
    pub fn is_quiet(&self) -> bool {
        self.windows.iter().all(|w| w.is_empty())
    }

    /// Builder: proc `p` is dead during `[start, end)`. Panics on an empty
    /// window or one that overlaps an existing window of the same proc.
    pub fn with_crash(mut self, p: usize, start: SimTime, end: SimTime) -> ProcFaultSchedule {
        assert!(start < end, "crash window must have positive length");
        if p >= self.windows.len() {
            self.windows.resize(p + 1, Vec::new());
        }
        for w in &self.windows[p] {
            assert!(
                end <= w.start || w.end <= start,
                "crash windows of one proc must not overlap"
            );
        }
        self.windows[p].push(ProcFaultWindow { start, end });
        self
    }

    /// Is proc `p` alive at time `t`? Procs beyond the schedule's length
    /// are always alive (the default for systems without proc faults).
    pub fn alive_at(&self, p: usize, t: SimTime) -> bool {
        match self.windows.get(p) {
            Some(ws) => !ws.iter().any(|w| w.contains(t)),
            None => true,
        }
    }

    /// When proc `p` is dead at `t`, the start of the covering crash
    /// window (the moment the failure began — the MTTR clock's zero).
    pub fn crash_start(&self, p: usize, t: SimTime) -> Option<SimTime> {
        self.windows
            .get(p)?
            .iter()
            .find(|w| w.contains(t))
            .map(|w| w.start)
    }

    /// Generate a seeded, deterministic schedule over `[0, horizon)` for
    /// `nprocs` processors: per proc, alternating up/down spans with
    /// exponentially distributed lengths (means `mean_up`/`mean_down`),
    /// exactly like [`FaultSchedule::generate`] but on proc liveness.
    /// Procs listed in `protected` never crash — pass each group's head
    /// so a group always keeps at least one live member (see
    /// [`ProcFaultSchedule::generate_for`]). Each proc draws from its own
    /// derived stream, so schedules are stable under `nprocs` changes.
    pub fn generate(
        seed: u64,
        nprocs: usize,
        protected: &[usize],
        horizon: SimTime,
        mean_up: SimTime,
        mean_down: SimTime,
    ) -> ProcFaultSchedule {
        assert!(mean_up > SimTime::ZERO && mean_down > SimTime::ZERO);
        fn draw(state: &mut u64) -> u64 {
            *state = splitmix64(*state);
            *state
        }
        fn unit(state: &mut u64) -> f64 {
            (draw(state) >> 11) as f64 / (1u64 << 53) as f64
        }
        // exponential sample with the given mean, in nanos
        fn exp(state: &mut u64, mean: SimTime, horizon: SimTime) -> u64 {
            let ns = -(mean.as_nanos() as f64) * (1.0 - unit(state)).ln();
            (ns.max(1.0).min(horizon.as_nanos() as f64)) as u64
        }
        let mut sched = ProcFaultSchedule::none(nprocs);
        for p in 0..nprocs {
            if protected.contains(&p) {
                continue;
            }
            let mut state = splitmix64(
                seed ^ 0xDEAD_DEAD_DEAD_DEAD ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut t = SimTime(exp(&mut state, mean_up, horizon));
            while t < horizon {
                let down = SimTime(exp(&mut state, mean_down, horizon));
                let end = SimTime(t.as_nanos().saturating_add(down.as_nanos())).min(horizon);
                if t < end {
                    sched = sched.with_crash(p, t, end);
                }
                t = SimTime(end.as_nanos().saturating_add(exp(&mut state, mean_up, horizon)));
            }
        }
        sched
    }

    /// [`ProcFaultSchedule::generate`] with every group head of `sys`
    /// protected, so no group is ever fully dead (group heads hold the
    /// recovery checkpoints and lead inter-group probes).
    pub fn generate_for(
        sys: &crate::system::DistributedSystem,
        seed: u64,
        horizon: SimTime,
        mean_up: SimTime,
        mean_down: SimTime,
    ) -> ProcFaultSchedule {
        let heads: Vec<usize> = sys.groups().iter().map(|g| g.procs[0].0).collect();
        ProcFaultSchedule::generate(seed, sys.nprocs(), &heads, horizon, mean_up, mean_down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn quiet_schedule_is_always_up() {
        let s = FaultSchedule::none();
        assert!(s.is_quiet());
        assert_eq!(s.health_at(SimTime::ZERO), LinkHealth::Up);
        assert_eq!(s.slowdown_factor_at(secs(100)), 1.0);
        assert_eq!(s.first_disruption_in(SimTime::ZERO, secs(100), 1 << 30), None);
    }

    #[test]
    fn window_is_half_open() {
        let s = FaultSchedule::none().with_window(secs(10), secs(20), FaultKind::Outage);
        assert_eq!(s.health_at(secs(9)), LinkHealth::Up);
        assert_eq!(s.health_at(secs(10)), LinkHealth::Down);
        assert_eq!(s.health_at(secs(19)), LinkHealth::Down);
        assert_eq!(s.health_at(secs(20)), LinkHealth::Up);
    }

    #[test]
    fn severity_priority_on_overlap() {
        let s = FaultSchedule::none()
            .with_window(secs(0), secs(30), FaultKind::Slowdown { factor: 0.5 })
            .with_window(secs(10), secs(20), FaultKind::Outage);
        assert_eq!(s.health_at(secs(5)), LinkHealth::Slow { factor: 0.5 });
        assert_eq!(s.health_at(secs(15)), LinkHealth::Down);
    }

    #[test]
    fn drop_large_spares_small_messages() {
        let s = FaultSchedule::none().with_window(
            secs(10),
            secs(20),
            FaultKind::DropLarge {
                threshold_bytes: 4096,
            },
        );
        assert!(s.health_at(secs(15)).passes_probes());
        // small transfer sails through the window
        assert_eq!(s.first_disruption_in(secs(12), secs(18), 512), None);
        // large transfer is cut at the window start (or span start if later)
        assert_eq!(
            s.first_disruption_in(secs(5), secs(18), 1 << 20),
            Some((
                secs(10),
                FaultKind::DropLarge {
                    threshold_bytes: 4096
                }
            ))
        );
        assert_eq!(
            s.first_disruption_in(secs(12), secs(18), 1 << 20).map(|d| d.0),
            Some(secs(12))
        );
    }

    #[test]
    fn earliest_disruption_wins() {
        let s = FaultSchedule::none()
            .with_window(secs(40), secs(50), FaultKind::Outage)
            .with_window(secs(20), secs(25), FaultKind::Blackhole);
        let (t, kind) = s.first_disruption_in(secs(0), secs(100), 1).unwrap();
        assert_eq!(t, secs(20));
        assert_eq!(kind, FaultKind::Blackhole);
    }

    #[test]
    fn slowdown_factors_compose() {
        let s = FaultSchedule::none()
            .with_window(secs(0), secs(10), FaultKind::Slowdown { factor: 0.5 })
            .with_window(secs(0), secs(10), FaultKind::Slowdown { factor: 0.4 });
        assert!((s.slowdown_factor_at(secs(5)) - 0.2).abs() < 1e-12);
        // floored at 1%
        let s2 = FaultSchedule::none().with_window(
            secs(0),
            secs(10),
            FaultKind::Slowdown { factor: 1e-6 },
        );
        assert_eq!(s2.slowdown_factor_at(secs(5)), 0.01);
    }

    #[test]
    fn generate_is_deterministic_and_bounded() {
        let a = FaultSchedule::generate(7, secs(1000), secs(60), secs(10));
        let b = FaultSchedule::generate(7, secs(1000), secs(60), secs(10));
        assert_eq!(a, b);
        assert!(!a.is_quiet(), "1000 s horizon with 60 s MTBF should fault");
        for w in &a.windows {
            assert!(w.start < w.end);
            assert!(w.end <= secs(1000));
        }
        let c = FaultSchedule::generate(8, secs(1000), secs(60), secs(10));
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn proc_schedule_quiet_is_always_alive() {
        let s = ProcFaultSchedule::none(4);
        assert!(s.is_quiet());
        assert_eq!(s.nprocs(), 4);
        for p in 0..4 {
            assert!(s.alive_at(p, SimTime::ZERO));
            assert!(s.alive_at(p, secs(1_000_000)));
            assert_eq!(s.crash_start(p, secs(5)), None);
        }
        // procs beyond the schedule are immortal
        assert!(s.alive_at(99, secs(1)));
    }

    #[test]
    fn proc_crash_window_is_half_open() {
        let s = ProcFaultSchedule::none(2).with_crash(1, secs(10), secs(20));
        assert!(s.alive_at(1, secs(9)));
        assert!(!s.alive_at(1, secs(10)));
        assert!(!s.alive_at(1, secs(19)));
        assert!(s.alive_at(1, secs(20)));
        // the other proc is untouched
        assert!(s.alive_at(0, secs(15)));
        assert_eq!(s.crash_start(1, secs(15)), Some(secs(10)));
        assert_eq!(s.crash_start(1, secs(25)), None);
    }

    #[test]
    #[should_panic]
    fn overlapping_crash_windows_panic() {
        let _ = ProcFaultSchedule::none(1)
            .with_crash(0, secs(10), secs(20))
            .with_crash(0, secs(15), secs(25));
    }

    #[test]
    fn touching_crash_windows_allowed_and_disjoint() {
        let s = ProcFaultSchedule::none(1)
            .with_crash(0, secs(10), secs(20))
            .with_crash(0, secs(20), secs(30));
        assert!(!s.alive_at(0, secs(19)));
        assert!(!s.alive_at(0, secs(20)), "second window starts exactly at 20");
        assert!(s.alive_at(0, secs(30)));
        // crash_start answers per covering window
        assert_eq!(s.crash_start(0, secs(12)), Some(secs(10)));
        assert_eq!(s.crash_start(0, secs(22)), Some(secs(20)));
    }

    #[test]
    fn proc_generate_deterministic_protected_and_bounded() {
        let prot = [0usize, 4];
        let a = ProcFaultSchedule::generate(42, 8, &prot, secs(1000), secs(60), secs(10));
        let b = ProcFaultSchedule::generate(42, 8, &prot, secs(1000), secs(60), secs(10));
        assert_eq!(a, b);
        assert!(!a.is_quiet(), "1000 s horizon with 60 s MTBF should crash");
        assert!(a.windows[0].is_empty() && a.windows[4].is_empty(), "protected");
        for ws in &a.windows {
            for w in ws {
                assert!(w.start < w.end);
                assert!(w.end <= secs(1000));
            }
        }
        let c = ProcFaultSchedule::generate(43, 8, &prot, secs(1000), secs(60), secs(10));
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn proc_generate_streams_are_per_proc() {
        // growing the system must not reshuffle earlier procs' schedules
        let small = ProcFaultSchedule::generate(7, 4, &[], secs(500), secs(40), secs(8));
        let large = ProcFaultSchedule::generate(7, 8, &[], secs(500), secs(40), secs(8));
        assert_eq!(small.windows[..4], large.windows[..4]);
    }
}
