//! # samr-dlb — facade crate
//!
//! Re-exports the whole workspace: the SAMR substrate, the distributed-system
//! simulator, both DLB schemes, the driver, and the metrics helpers. See the
//! README for a tour and `examples/` for runnable scenarios.
//!
//! ```
//! use samr_dlb::prelude::*;
//!
//! // 2 processors at each of two sites, joined by the MREN OC-3 WAN preset
//! let sys = presets::anl_ncsa_wan(2, 2, 7);
//!
//! // a small ShockPool3D run under the paper's distributed DLB
//! let mut cfg = RunConfig::new(
//!     AppKind::ShockPool3D,
//!     16,                               // 16³ level-0 domain
//!     2,                                // level-0 steps
//!     samr_engine::Scheme::distributed_default(),
//! );
//! cfg.max_levels = 3;
//! let result = Driver::new(sys, cfg).run();
//!
//! assert!(result.total_secs > 0.0);
//! assert!(result.levels >= 2, "the shock triggered refinement");
//! println!("{}", result.summary());
//! ```

#![forbid(unsafe_code)]

pub use dlb;
pub use forecast;
pub use metrics;
pub use samr_engine as engine;
pub use samr_mesh as mesh;
pub use samr_solvers as solvers;
pub use simnet;
pub use telemetry;
pub use topology;

/// Commonly used items in one import.
pub mod prelude {
    pub use dlb::{DistributedDlb, DistributedDlbConfig, LoadBalancer, ParallelDlb};
    pub use samr_engine::{AppKind, Driver, RunConfig, RunResult};
    pub use telemetry::Telemetry;
    pub use topology::presets;
    pub use topology::{DistributedSystem, SimTime};
}
