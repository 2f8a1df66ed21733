//! Correctness oracle, run after every step of a stepped pass: the mesh's
//! structural invariants, the paper's ownership invariant, finite data and
//! bounded mass drift. Its time goes to `bench.oracle_s`, never to `wall_s`.

use samr_engine::{AppKind, AppState};
use samr_mesh::GridHierarchy;
use samr_solvers::euler;
use std::time::Instant;
use topology::{DistributedSystem, ProcId};

/// Level-0 Euler mass may drift this far (relative) from its value before
/// the first step. The domain is open — ShockPool3D's driver region feeds
/// mass in through the boundary (measured: 2.7 % over `shock_wan`'s 4 steps
/// at n0 = 32, 14 % over the 10 steps of the n0 = 16 tenant job, under 1 %
/// on the Amr64 workloads) — so this is a guard against a lost or duplicated
/// patch or a blown-up kernel, not a conservation proof.
pub const MASS_DRIFT_TOLERANCE: f64 = 0.35;

#[derive(Debug, Default)]
pub struct Oracle {
    mass_at_start: Option<f64>,
    /// States checked / states rejected.
    pub checked: u64,
    pub rejected: u64,
    /// States checked right after a global redistribution, without the
    /// children-follow-parents invariant.
    pub relaxed: u64,
    /// First few violations, for the report.
    pub violations: Vec<String>,
    /// Host seconds spent checking.
    pub secs: f64,
    /// Largest relative mass drift seen.
    pub max_mass_drift: f64,
}

/// Total level-0 mass: level 0 tiles the domain and holds the restricted
/// fine data, so its interiors sum to the composite mass.
pub fn level0_mass(hier: &GridHierarchy) -> f64 {
    hier.level_ids(0)
        .iter()
        .map(|&id| euler::totals(&hier.patch(id).fields).0)
        .sum()
}

/// Every violation of `hier` against the structural and ownership
/// invariants (empty when the state is sound). Mass is checked by
/// [`Oracle::check`], which knows the starting value.
///
/// `children_follow_parents` is the paper's invariant — a fine grid lives
/// in its parent's group. A global redistribution moves level-0 grids only;
/// their children are rebuilt beneath them at the next regrid, so the state
/// right after a step that redistributed is checked without it.
pub fn violations(
    hier: &GridHierarchy,
    sys: &DistributedSystem,
    children_follow_parents: bool,
) -> Vec<String> {
    let mut out = Vec::new();
    if let Err(e) = hier.check_invariants() {
        out.push(format!("mesh invariant: {e}"));
    }
    // patches of a level are pairwise disjoint and inside the domain
    // (checked above), so equal cell counts mean level 0 tiles it exactly
    let (covered, domain) = (hier.level_cells(0), hier.domain().cells());
    if covered != domain {
        out.push(format!(
            "level 0 covers {covered} cells, the domain has {domain}"
        ));
    }
    let nprocs = sys.nprocs();
    for p in hier.iter() {
        if p.owner >= nprocs {
            out.push(format!("{:?} owned by proc {} of {nprocs}", p.id, p.owner));
            continue;
        }
        let parent = p
            .parent
            .filter(|&q| children_follow_parents && hier.contains(q));
        if let Some(parent) = parent {
            let po = hier.patch(parent).owner;
            if po < nprocs && sys.group_of(ProcId(po)) != sys.group_of(ProcId(p.owner)) {
                out.push(format!(
                    "{:?} (proc {}) left the group of its parent {parent:?} (proc {po})",
                    p.id, p.owner
                ));
            }
        }
        if p.fields
            .iter()
            .any(|f| f.data().iter().any(|v| !v.is_finite()))
        {
            out.push(format!("{:?} holds a non-finite value", p.id));
        }
    }
    out
}

impl Oracle {
    /// Record the reference mass of the initial state.
    pub fn start(&mut self, hier: &GridHierarchy, app: &AppState) {
        let t0 = Instant::now();
        if app.kind != AppKind::AdvectBlob {
            self.mass_at_start = Some(level0_mass(hier));
        }
        self.secs += t0.elapsed().as_secs_f64();
    }

    /// Check the state after a step; `true` when it is accepted.
    /// `redistributed`: the step ended in a global redistribution (see
    /// [`violations`]).
    pub fn check(
        &mut self,
        hier: &GridHierarchy,
        sys: &DistributedSystem,
        redistributed: bool,
    ) -> bool {
        let t0 = Instant::now();
        let mut found = violations(hier, sys, !redistributed);
        self.relaxed += redistributed as u64;
        if let Some(m0) = self.mass_at_start {
            let drift = (level0_mass(hier) - m0).abs() / m0.abs().max(f64::MIN_POSITIVE);
            self.max_mass_drift = self.max_mass_drift.max(drift);
            if drift.is_nan() || drift > MASS_DRIFT_TOLERANCE {
                found.push(format!(
                    "level-0 mass drifted {:.1} % (tolerance {:.0} %)",
                    100.0 * drift,
                    100.0 * MASS_DRIFT_TOLERANCE
                ));
            }
        }
        self.checked += 1;
        let ok = found.is_empty();
        if !ok {
            self.rejected += 1;
            let room = 8usize.saturating_sub(self.violations.len());
            self.violations.extend(found.into_iter().take(room));
        }
        self.secs += t0.elapsed().as_secs_f64();
        ok
    }

    /// One line for the report.
    pub fn summary(&self) -> String {
        format!(
            "oracle: {} states checked ({} right after a global redistribution) in {:.3} s, \
             max level-0 mass drift {:.2} %",
            self.checked,
            self.relaxed,
            self.secs,
            100.0 * self.max_mass_drift
        )
    }

    /// A violation found outside a step check (result-level checks).
    pub fn reject(&mut self, what: String) {
        self.rejected += 1;
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }
}
