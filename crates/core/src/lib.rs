//! # dlb — dynamic load balancing for SAMR on distributed systems
//!
//! The paper's primary contribution (Lan, Taylor, Bryan — SC'01):
//!
//! * [`DistributedDlb`] — the proposed two-phase scheme: a **global phase**
//!   after each level-0 step gated by the Eq.-4 gain vs. Eq.-1 cost
//!   heuristic (`Gain > γ·Cost`), moving level-0 grids between groups
//!   proportionally to compute power; and a **local phase** after every
//!   finer-level step, balancing strictly within each group so children stay
//!   with their parents.
//! * [`ParallelDlb`] — the ICPP'01 baseline: group-blind even distribution
//!   across all processors after every step.
//! * [`gain`]/[`cost`] — the decision heuristics exactly as published.
//! * [`balance`]/[`partition`] — the grid-motion machinery both schemes use.
//! * [`fault`] — the retry / timeout / quarantine degradation policy that
//!   keeps the distributed scheme making progress over failing WAN links.

#![forbid(unsafe_code)]

// Fixed-axis (0..3) loops indexing several parallel arrays read more
// clearly as index loops.
#![allow(clippy::needless_range_loop)]

pub mod balance;
pub mod cost;
pub mod distributed;
pub mod fault;
pub mod gain;
pub mod history;
pub mod parallel;
pub mod partition;
pub mod scheme;

pub use balance::{balance_level_within, place_batch, BalanceOutcome, BalanceParams};
pub use cost::{evaluate_cost, evaluate_cost_forecast, should_redistribute, CostEstimate};
pub use distributed::{DistributedDlb, DistributedDlbConfig, GlobalDecision};
pub use fault::{GroupHealth, QuarantineRoster};
pub use forecast::{ForecastValue, PredictorKind};
pub use gain::{
    evaluate_gain, gain_from_loads, history_group_loads, static_powers, GainEstimate,
};
pub use history::WorkloadHistory;
pub use parallel::ParallelDlb;
pub use partition::{
    decompose_domain, evacuate_proc, global_redistribute, global_redistribute_elastic,
    EvacuationMove, EvacuationReport, RedistributionAbort, RedistributionReport, SelectionPolicy,
};
pub use scheme::{proc_total_cells, LbContext, LoadBalancer};
