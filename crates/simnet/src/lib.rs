//! # simnet — virtual-time execution simulator
//!
//! Simulates SAMR execution timing on a [`topology::DistributedSystem`]:
//! per-processor clocks, point-to-point messages that serialize on shared
//! physical links and feel time-varying background traffic, group and global
//! collectives, and the two-message α/β probe of the paper's §4.2. Every
//! clock advance is attributed to compute / local comm / remote comm / DLB
//! overhead / wait, which is exactly the decomposition the paper's Fig. 3
//! plots.

//! Faults are first-class: links may carry a [`topology::FaultSchedule`],
//! and every comms call returns a [`SimResult`] whose [`SimError`] carries
//! the simulated detection time. [`retry`] layers exponential backoff on
//! top: one loop for the DLB's control traffic and the driver's bulk
//! transfers.

#![forbid(unsafe_code)]

pub mod error;
pub mod retry;
pub mod shared;
pub mod sim;
pub mod stats;

pub use error::{SimError, SimResult};
pub use shared::{SimHandle, SimView};
pub use sim::NetSim;
pub use stats::{Activity, MsgStats, ProcStats, SimStats};
