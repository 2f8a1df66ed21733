//! # metrics — measurements and reporting for the experiments
//!
//! Implements the paper's §5 metrics (efficiency `E(1)/(E·P)`, relative
//! improvement) and the row/table formatting used by the figure harnesses.

#![forbid(unsafe_code)]

pub mod clock;
pub mod efficiency;
pub mod report;
pub mod stats;

pub use clock::{Phase, PhaseClock};
pub use efficiency::{efficiency, improvement_percent};
pub use stats::percentile_exact;
pub use report::{
    ConfigRow, DlbWall, FaultCounters, ForecastStats, GhostWall, PhaseWall, RecoveryStats,
    RunBreakdown, Table, TenantStats,
};
