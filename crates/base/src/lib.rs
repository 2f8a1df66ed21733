//! # base — what the workspace needs beyond `std`, written on `std` only
//!
//! * [`json`] — a JSON value, parser and writer whose `f64` text round-trips
//!   exactly, and the [`json::ToJson`] / [`json::FromJson`] traits the
//!   serialized types (checkpoints, result tables, run results) implement
//!   by hand.
//! * [`rng`] — the seeded generators behind every committed number:
//!   ChaCha8 with PCG32 seeding, and SplitMix64.
//! * [`prop`] — a property-test harness: seeded cases drawn through a
//!   recorded choice tape, shrunk by editing the tape and replaying.

#![forbid(unsafe_code)]

pub mod json;
pub mod prop;
pub mod rng;
