//! Run-state checkpointing: capture everything needed to continue the
//! *physics* of a run — grid hierarchy with solution data, particle state,
//! workload history, per-level step counts — and resume it later.
//!
//! Simulated timing restarts from zero at the resume point (exactly what a
//! real restart does: the clock starts again, the solution doesn't).

use crate::app::AppState;
use crate::config::RunConfig;
use crate::driver::Driver;
use base::json::{self, ToJson};
use dlb::WorkloadHistory;
use samr_mesh::checkpoint::HierarchySnapshot;
use samr_solvers::ParticleSet;

/// A serializable snapshot of a run's physics state.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Grid hierarchy: structure, ownership, and solution data.
    pub hierarchy: HierarchySnapshot,
    /// Particle state (AMR64; empty otherwise).
    pub particles: ParticleSet,
    /// The DLB heuristics' history records.
    pub history: WorkloadHistory,
    /// Steps completed per level.
    pub step_count: Vec<u64>,
    /// Total cell updates so far.
    pub cell_updates: u64,
}

base::json_struct!(Checkpoint: hierarchy, particles, history, step_count, cell_updates);

impl Checkpoint {
    /// The checkpoint as one line of JSON. A state holding a NaN or an
    /// infinity is refused (the error names where): restarting from a
    /// document that stored it as some other number would silently compute
    /// something else.
    pub fn to_json(&self) -> Result<String, json::Error> {
        let doc = ToJson::to_json(self);
        doc.require_finite()?;
        Ok(doc.to_compact())
    }

    /// Read back what [`Checkpoint::to_json`] wrote. The text comes from
    /// outside the program: anything but a complete, well-typed checkpoint
    /// is an error naming the offending value.
    pub fn from_json(s: &str) -> Result<Checkpoint, json::Error> {
        json::from_str(s)
    }
}

impl Driver {
    /// Capture the run's physics state.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            hierarchy: samr_mesh::checkpoint::snapshot(self.hierarchy()),
            particles: self.app().particles.clone(),
            history: self.history().clone(),
            step_count: self.step_counts().to_vec(),
            cell_updates: self.cell_updates_so_far(),
        }
    }

    /// Rebuild a driver from a checkpoint, continuing the physics where it
    /// left off on (possibly) a different system or scheme. The checkpoint's
    /// `app`/`n0`/`max_levels` must match `cfg`.
    pub fn resume(sys: topology::DistributedSystem, cfg: RunConfig, ckpt: &Checkpoint) -> Driver {
        assert_eq!(
            ckpt.hierarchy.domain,
            samr_mesh::Region::cube(cfg.n0),
            "checkpoint domain mismatch"
        );
        let max_owner = ckpt
            .hierarchy
            .patches
            .iter()
            .map(|p| p.owner)
            .max()
            .unwrap_or(0);
        assert!(
            max_owner < sys.nprocs(),
            "checkpoint references processor {max_owner} but the system has {}",
            sys.nprocs()
        );
        // a particle outside the domain would never wrap back into it
        let n0 = cfg.n0 as f64;
        for (i, p) in ckpt.particles.as_slice().iter().enumerate() {
            assert!(
                p.pos.iter().all(|x| (0.0..n0).contains(x)),
                "checkpoint particle {i} at {:?} lies outside the domain [0, {n0})³",
                p.pos
            );
        }
        let mut app = AppState::new(cfg.app, cfg.n0, cfg.seed);
        app.particles = ckpt.particles.clone();
        let hier = samr_mesh::checkpoint::restore(&ckpt.hierarchy);
        assert_eq!(hier.nfields(), app.nfields(), "checkpoint app mismatch");
        Driver::from_parts(
            simnet::SimView::new(sys),
            cfg,
            app,
            hier,
            ckpt.history.clone(),
            ckpt.step_count.clone(),
            ckpt.cell_updates,
        )
    }
}
