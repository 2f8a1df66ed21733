//! # topology — distributed-system description substrate
//!
//! Models the hardware side of the paper's experiments: processors with
//! relative performance weights, homogeneous *groups* joined by dedicated
//! intra-networks, shared inter-group links with the `T = α + β·L` timing
//! model, deterministic dynamic background traffic, and NWS-lite α/β probes.

#![forbid(unsafe_code)]

pub mod faults;
pub mod link;
pub mod presets;
pub mod probe;
pub mod system;
pub mod time;
pub mod traffic;

pub use faults::{
    FaultKind, FaultSchedule, FaultWindow, LinkHealth, ProcFaultSchedule, ProcFaultWindow,
};
pub use link::Link;
pub use probe::{probe_link, LinkEstimator, ProbeError, ProbeSample, MIN_BETA};
pub use system::{
    DistributedSystem, Group, GroupId, ProcId, Processor, SystemBuilder, TierTopology,
};
pub use time::SimTime;
pub use traffic::TrafficModel;
