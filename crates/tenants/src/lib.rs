//! # tenants — multi-tenant balancer service over one shared substrate
//!
//! The paper balances *one* SAMR application across a distributed system; a
//! production service runs many independent jobs competing for the same
//! processors and WAN links the γ-gate prices. This crate is that layer:
//!
//! * **Admission** ([`admission`]) — tenants enter in priority-weighted
//!   order drawn from a cumulative priority distribution (the replica-pick
//!   idiom of succinct's dynamic load balancer) and are placed on the
//!   least-loaded homogeneous group span; a naive static placement is kept
//!   as the comparison baseline.
//! * **Service** ([`service`]) — each admitted tenant gets a re-entrant
//!   [`samr_engine::Driver`] over a [`simnet::SimView`] carved from one
//!   shared [`simnet::SimHandle`], so all tenants advance a single
//!   simulator clock and contend on the same links. The service interleaves
//!   steps (always advancing the tenant whose view clock is furthest
//!   behind) and periodically re-balances whole tenants off overloaded
//!   groups through the same `Gain > γ·Cost` gate the intra-tenant DLB
//!   uses, with α/β probed on the live substrate.
//!
//! Everything is deterministic per seed: the admission RNG is
//! `base::rng::SplitMix64`, stepping order is a pure function of simulated clocks, and
//! recording telemetry never perturbs simulated state.

#![forbid(unsafe_code)]

pub mod admission;
pub mod service;
pub mod spec;

pub use admission::{pick_weighted, place_static, place_tenants, Placement};
pub use service::{ServiceResult, TenantService, TenantServiceConfig};
pub use spec::TenantSpec;
