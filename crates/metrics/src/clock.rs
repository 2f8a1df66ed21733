//! The one host clock of a run's phases: [`PhaseWall`], [`GhostWall`],
//! [`DlbWall`] and the telemetry spans are views of the same clock reads.

use crate::{DlbWall, GhostWall, PhaseWall};
use std::time::{Duration, Instant};
use telemetry::Telemetry;

/// A leaf phase, charged to the wall field of its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Solve,
    GhostPlan,
    GhostCoarseFill,
    GhostSibling,
    GhostMessages,
    Regrid,
    Restrict,
    Decision,
    LocalDlb,
    Decide,
    Migrate,
}

impl Phase {
    /// The span the phase is recorded under; the balancer's parts have none.
    fn span(self) -> Option<&'static str> {
        use Phase::*;
        match self {
            Solve => Some("solve"),
            GhostPlan | GhostCoarseFill | GhostSibling | GhostMessages => Some("ghost_exchange"),
            Regrid => Some("regrid"),
            Restrict => Some("restrict"),
            Decision => Some("decision"),
            LocalDlb | Decide | Migrate => None,
        }
    }
}

/// Host time per [`Phase`], one clock read per phase boundary (host
/// seconds, so never part of a fingerprint). With an enabled [`Telemetry`]
/// it records, from the same reads, one span per maximal run of phases that
/// share a span name and level: a ghost exchange's four parts are one span.
#[derive(Clone, Debug, Default)]
pub struct PhaseClock {
    /// Time charged so far, indexed by `Phase as usize`.
    time: [Duration; Phase::Migrate as usize + 1],
    /// The running phase, its level, and since when.
    running: Option<(Phase, usize, Instant)>,
    /// The open span: name, level and start.
    span: Option<(&'static str, usize, Instant)>,
    telemetry: Telemetry,
}

impl PhaseClock {
    /// A stopped clock at zero that records its spans into `telemetry`.
    pub fn new(telemetry: Telemetry) -> Self {
        PhaseClock {
            telemetry,
            ..Default::default()
        }
    }

    /// Close the running phase and open `phase` at `level` at the same
    /// instant. Returns the phase it closed, for a nested caller to
    /// [`resume`](Self::resume).
    pub fn enter(&mut self, phase: Phase, level: usize) -> Option<(Phase, usize)> {
        let now = Instant::now();
        let next = phase.span().filter(|_| self.telemetry.is_enabled());
        let closed = self.close(now, next.map(|name| (name, level)));
        self.span = self.span.or(next.map(|name| (name, level, now)));
        self.running = Some((phase, level, now));
        closed
    }

    /// Reopen what [`enter`](Self::enter) closed, or stop if it closed nothing.
    pub fn resume(&mut self, outer: Option<(Phase, usize)>) {
        match outer {
            Some((phase, level)) => _ = self.enter(phase, level),
            None => self.stop(),
        }
    }

    /// Close the running phase; a no-op on a stopped clock.
    pub fn stop(&mut self) {
        self.close(Instant::now(), None);
    }

    /// Stop and zero every phase: measurement starts over.
    pub fn reset(&mut self) {
        *self = PhaseClock::new(std::mem::take(&mut self.telemetry));
    }

    /// Charge the running phase up to `now`; end the open span unless
    /// `next`, the span of the phase entered next, continues it.
    fn close(&mut self, now: Instant, next: Option<(&str, usize)>) -> Option<(Phase, usize)> {
        let (phase, level, since) = self.running.take()?;
        self.time[phase as usize] += now - since;
        if let Some((name, l, start)) = self.span.filter(|&(n, l, _)| next != Some((n, l))) {
            self.telemetry.record_span(name, l, start, now);
            self.span = None;
        }
        Some((phase, level))
    }

    fn secs(&self, phase: Phase) -> f64 {
        self.time[phase as usize].as_secs_f64()
    }

    /// Host seconds per driver phase; `ghost` sums [`Self::ghost_wall`].
    pub fn phase_wall(&self) -> PhaseWall {
        let g = self.ghost_wall();
        PhaseWall {
            solve: self.secs(Phase::Solve),
            ghost: g.plan + g.coarse_fill + g.sibling + g.messages,
            regrid: self.secs(Phase::Regrid),
            restrict: self.secs(Phase::Restrict),
            decision: self.secs(Phase::Decision),
        }
    }

    /// Host seconds of the ghost exchange by part.
    pub fn ghost_wall(&self) -> GhostWall {
        GhostWall {
            plan: self.secs(Phase::GhostPlan),
            coarse_fill: self.secs(Phase::GhostCoarseFill),
            sibling: self.secs(Phase::GhostSibling),
            messages: self.secs(Phase::GhostMessages),
        }
    }

    /// Host seconds of the distributed scheme by activity.
    pub fn dlb_wall(&self) -> DlbWall {
        DlbWall {
            local_dlb: self.secs(Phase::LocalDlb),
            decide: self.secs(Phase::Decide),
            migrate: self.secs(Phase::Migrate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn enter_returns_the_closed_phase_and_resuming_it_continues_its_time() {
        let mut c = PhaseClock::default();
        assert_eq!(c.enter(Phase::Decide, 0), None);
        sleep(MS);
        let outer = c.enter(Phase::Migrate, 0);
        assert_eq!(outer, Some((Phase::Decide, 0)));
        sleep(MS);
        let decided = c.dlb_wall().decide;
        assert!(decided >= 1e-3, "{decided}");
        c.resume(outer);
        sleep(MS);
        assert_eq!(c.enter(Phase::LocalDlb, 1), Some((Phase::Decide, 0)));
        c.stop();
        let w = c.dlb_wall();
        assert!(w.decide >= decided + 1e-3, "{w:?}");
        assert!(w.migrate >= 1e-3, "{w:?}");
        // resuming nothing stops the clock
        c.enter(Phase::Solve, 0);
        c.resume(None);
        assert!(c.running.is_none());
    }

    #[test]
    fn stop_on_a_stopped_clock_is_a_no_op() {
        let (tel, sink) = Telemetry::recording_shared();
        let mut c = PhaseClock::new(tel);
        c.stop();
        c.enter(Phase::Regrid, 2);
        sleep(MS);
        c.stop();
        let wall = c.phase_wall();
        sleep(MS);
        c.stop();
        assert_eq!(c.phase_wall(), wall);
        assert!(wall.regrid >= 1e-3);
        assert_eq!(sink.lock().unwrap().spans().len(), 1);
    }

    #[test]
    fn reset_zeroes_every_phase() {
        let mut c = PhaseClock::default();
        for phase in [
            Phase::Solve,
            Phase::GhostPlan,
            Phase::GhostCoarseFill,
            Phase::GhostSibling,
            Phase::GhostMessages,
            Phase::Regrid,
            Phase::Restrict,
            Phase::Decision,
            Phase::LocalDlb,
            Phase::Decide,
            Phase::Migrate,
        ] {
            c.enter(phase, 0);
            sleep(MS);
        }
        c.stop();
        assert!(c.time.iter().all(|t| *t >= MS));
        c.enter(Phase::Solve, 0);
        c.reset();
        c.stop();
        assert_eq!(c.time, [Duration::ZERO; 11]);
        assert_eq!(c.phase_wall(), PhaseWall::default());
        assert_eq!(c.ghost_wall(), GhostWall::default());
        assert_eq!(c.dlb_wall(), DlbWall::default());
    }

    #[test]
    fn the_laps_of_one_ghost_exchange_are_one_span() {
        let (tel, sink) = Telemetry::recording_shared();
        let mut c = PhaseClock::new(tel);
        for part in [
            Phase::GhostPlan,
            Phase::GhostCoarseFill,
            Phase::GhostSibling,
            Phase::GhostMessages,
        ] {
            c.enter(part, 2);
            sleep(MS);
        }
        c.stop();
        let spans = sink.lock().unwrap().spans().to_vec();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!((spans[0].name, spans[0].level), ("ghost_exchange", 2));
        let ghost = c.phase_wall().ghost;
        assert!(ghost >= 4e-3);
        assert!(
            (spans[0].dur_secs - ghost).abs() <= 1e-12 * ghost,
            "{spans:?} vs {ghost}"
        );
    }

    #[test]
    fn a_stop_or_a_new_level_ends_a_span() {
        let (tel, sink) = Telemetry::recording_shared();
        let mut c = PhaseClock::new(tel);
        c.enter(Phase::Solve, 1);
        c.stop();
        c.enter(Phase::Solve, 1);
        c.enter(Phase::Solve, 2);
        c.enter(Phase::Decide, 2);
        c.stop();
        let spans: Vec<_> = sink
            .lock()
            .unwrap()
            .spans()
            .iter()
            .map(|s| (s.name, s.level))
            .collect();
        assert_eq!(spans, [("solve", 1), ("solve", 1), ("solve", 2)]);
    }
}
