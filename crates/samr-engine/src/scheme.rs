//! Scheme selection: which load balancer drives a run.

use dlb::{DistributedDlb, DistributedDlbConfig, LbContext, LoadBalancer, ParallelDlb};
use samr_mesh::hierarchy::GridHierarchy;
use topology::DistributedSystem;

/// Which DLB scheme to run (serializable run parameter).
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // one instance per run
pub enum Scheme {
    /// No balancing at all: children stay on their parent's processor.
    Static,
    /// The ICPP'01 parallel DLB baseline.
    Parallel,
    /// The paper's distributed DLB.
    Distributed(DistributedDlbConfig),
}

impl Scheme {
    /// Distributed scheme with the paper's defaults (γ = 2).
    pub fn distributed_default() -> Scheme {
        Scheme::Distributed(DistributedDlbConfig::default())
    }

    /// Distributed scheme with the NWS-style forecasting layer enabled:
    /// adaptive predictor on every link/load series and proactive global
    /// checks at fine levels.
    pub fn distributed_predictive(seed: u64) -> Scheme {
        Scheme::Distributed(DistributedDlbConfig::predictive(seed))
    }

    pub(crate) fn instantiate(&self) -> SchemeInstance {
        match self {
            Scheme::Static => SchemeInstance::Static,
            Scheme::Parallel => SchemeInstance::Parallel(ParallelDlb::default()),
            Scheme::Distributed(cfg) => {
                SchemeInstance::Distributed(DistributedDlb::new(cfg.clone()))
            }
        }
    }
}

/// A live balancer (enum dispatch keeps the driver object-safe and
/// inspectable after the run).
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one instance per run
pub enum SchemeInstance {
    Static,
    Parallel(ParallelDlb),
    Distributed(DistributedDlb),
}

impl SchemeInstance {
    pub fn name(&self) -> &'static str {
        match self {
            SchemeInstance::Static => "static",
            SchemeInstance::Parallel(p) => p.name(),
            SchemeInstance::Distributed(d) => d.name(),
        }
    }

    pub fn after_level_step(
        &mut self,
        ctx: LbContext<'_>,
        level: usize,
    ) -> simnet::SimResult<()> {
        match self {
            SchemeInstance::Static => Ok(()),
            SchemeInstance::Parallel(p) => p.after_level_step(ctx, level),
            SchemeInstance::Distributed(d) => d.after_level_step(ctx, level),
        }
    }

    pub fn place_new_patches(
        &mut self,
        hier: &GridHierarchy,
        sys: &DistributedSystem,
        level: usize,
        parents: &[usize],
        sizes: &[i64],
    ) -> Vec<usize> {
        match self {
            // static: children live with their parents
            SchemeInstance::Static => parents.to_vec(),
            SchemeInstance::Parallel(p) => p.place_new_patches(hier, sys, level, parents, sizes),
            SchemeInstance::Distributed(d) => {
                d.place_new_patches(hier, sys, level, parents, sizes)
            }
        }
    }

    /// Global-phase decision log (distributed scheme only).
    pub fn decisions(&self) -> &[dlb::GlobalDecision] {
        match self {
            SchemeInstance::Distributed(d) => &d.decisions,
            _ => &[],
        }
    }

    /// The distributed balancer, for the counters only it keeps (fault
    /// and forecast records, decision-phase traffic, host-time split).
    pub fn distributed(&self) -> Option<&DistributedDlb> {
        match self {
            SchemeInstance::Distributed(d) => Some(d),
            _ => None,
        }
    }
}
