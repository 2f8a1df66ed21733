//! Sample statistics for experiment post-processing: the workspace's one
//! percentile implementation, `telemetry::percentile_exact` (type-7
//! interpolation), re-exported.

pub use telemetry::percentile_exact;
