//! The repo benchmark: four workloads, five end-to-end metrics, per-layer
//! replays, a correctness oracle and a traced run. See `README.md`.

pub mod cli;
pub mod compare;
pub mod host;
pub mod json;
pub mod oracle;
pub mod passes;
pub mod replay;
pub mod spec;
pub mod stats;
pub mod tracer;
pub mod workload;
