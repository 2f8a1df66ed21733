//! Resolution-only stand-in: a dev-dependency of other workspace members, never compiled by the benchmark.
