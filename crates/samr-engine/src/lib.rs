//! # samr-engine — ENZO-lite
//!
//! The SAMR application driver: recursive sub-cycled integration over the
//! grid hierarchy (Fig. 2 of the paper), data-driven regridding through
//! Berger–Rigoutsos clustering, ghost-zone exchange and inter-level
//! transfers with their communication charged to a simulated distributed
//! system, workload accounting for the DLB heuristics, and the two
//! evaluation workloads (`ShockPool3D`, `AMR64`).

#![forbid(unsafe_code)]

pub mod app;
pub mod checkpoint;
pub mod config;
pub mod driver;
pub mod scheme;
pub mod trace;

pub use app::{AppKind, AppState};
pub use config::{RunConfig, RunResult};
pub use checkpoint::Checkpoint;
pub use driver::Driver;
pub use trace::{RunTrace, StepRecord, StepRecovery};
pub use scheme::Scheme;
