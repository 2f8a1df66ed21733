//! # telemetry — structured observability for the DLB pipeline
//!
//! Std only (plus the workspace's `base::json`) and deterministic: recording
//! telemetry never touches simulated state, so a run recording into a
//! [`RecordingSink`] is bit-identical to one with the default null handle
//! (the determinism tests enforce this).
//!
//! Three layers:
//!
//! * **Spans** — host wall-clock time per phase/level, closed intervals of
//!   `metrics::PhaseClock` ([`Telemetry::record_span`]), folded into
//!   fixed-bucket log-scale [`LogHistogram`]s (p50/p95/p99/max).
//! * **Decision events** — typed records ([`GammaGateEvent`],
//!   [`RedistributeEvent`], [`FaultEvent`], [`PredictorSwitchEvent`],
//!   [`ProbeEvent`], [`TransferEvent`]) keyed to *simulated* time, appended
//!   to bounded in-memory rings.
//! * **Metrics** — bounded gauge time-series on simulated time with
//!   deterministic stride-doubling downsampling ([`MetricSeries`]), plus
//!   online anomaly detectors ([`metrics::AnomalyMonitor`]) that emit
//!   typed [`AnomalyEvent`]s into the decision lane.
//! * **Export** — JSONL (one event per line) and Chrome trace-event JSON
//!   (loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)),
//!   plus a human-readable [`Telemetry::summary`] text report.
//!
//! The [`Telemetry`] handle is cheap to clone and a no-op when disabled:
//! [`Telemetry::null`] performs no allocation, no locking, and no clock
//! reads. An enabled handle records into one [`RecordingSink`], the only
//! sink there is.

#![forbid(unsafe_code)]

pub mod event;
pub mod hist;
pub mod metrics;
pub mod ring;
pub mod sink;

mod export;

/// The workspace's JSON value and parser, under the name this crate's
/// clients have always used.
pub use base::json;

pub use event::{
    AnomalyEvent, AnomalyKind, CrashEvent, EvacuateEvent, EventKind, EventRecord, FaultEvent,
    FaultKind, GammaGateEvent, GateVerdict, PredictorSwitchEvent, ProbeEvent, RedistributeEvent,
    RejoinEvent, TenantAdmitEvent, TenantMigrateEvent, TenantStepEvent, TransferEvent,
};
pub use hist::{percentile_exact, LogHistogram};
pub use metrics::{AnomalyMonitor, MetricSeries};
pub use sink::{RecordingSink, SpanRecord, Telemetry};
