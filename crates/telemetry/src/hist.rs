//! Fixed-bucket log-scale histogram for latency-like samples, plus the one
//! exact-percentile implementation shared across the workspace
//! ([`percentile_exact`] — `metrics` routes its summary statistics through
//! it so there is a single percentile convention).

use std::sync::OnceLock;

/// Log-scale resolution: buckets per decade of dynamic range.
pub const BUCKETS_PER_DECADE: usize = 8;
/// Covered decades: `1e-9 s` (1 ns) up to `1e3 s`.
pub const DECADES: usize = 12;
/// Lower edge of the first log-scale bucket (seconds).
pub const LOW_EDGE: f64 = 1e-9;

/// Number of bucket boundaries (`BUCKETS_PER_DECADE · DECADES + 1`).
const NUM_EDGES: usize = BUCKETS_PER_DECADE * DECADES + 1;
/// Total buckets: one underflow, the log-spaced interior, one overflow.
pub const NUM_BUCKETS: usize = NUM_EDGES + 1;

/// The shared, lazily-computed edge table: `edges[i] = LOW_EDGE · 10^(i/BPD)`.
fn edges() -> &'static [f64] {
    static EDGES: OnceLock<Vec<f64>> = OnceLock::new();
    EDGES.get_or_init(|| {
        (0..NUM_EDGES)
            .map(|i| LOW_EDGE * 10f64.powf(i as f64 / BUCKETS_PER_DECADE as f64))
            .collect()
    })
}

/// Fixed-bucket log-scale histogram over non-negative `f64` samples
/// (seconds by convention). Values below [`LOW_EDGE`] land in the underflow
/// bucket, values at or beyond the last edge saturate in the overflow
/// bucket. Percentiles are bucket-resolution (reported at the bucket's
/// upper edge, clamped to the exactly-tracked min/max); `min`/`max`/`mean`
/// are exact.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    n: u64,
    sum: f64,
    min_seen: f64,
    max_seen: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            n: 0,
            sum: 0.0,
            min_seen: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// Bucket index a value falls into. Edges belong to the bucket *above*
    /// them: `bucket_index(LOW_EDGE) == 1`, anything below is underflow
    /// (bucket 0), anything at/after the last edge saturates in the
    /// overflow bucket (`NUM_BUCKETS - 1`). Negative values clamp to 0.
    pub fn bucket_index(v: f64) -> usize {
        edges().partition_point(|e| *e <= v)
    }

    /// Exclusive upper bound of bucket `i` (`+inf` for the overflow bucket).
    pub fn bucket_upper_bound(i: usize) -> f64 {
        assert!(i < NUM_BUCKETS, "bucket {i} out of range");
        if i == NUM_BUCKETS - 1 {
            f64::INFINITY
        } else {
            edges()[i]
        }
    }

    /// Fold one sample in. Non-finite samples are ignored; negatives count
    /// as underflow.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let v = v.max(0.0);
        self.counts[Self::bucket_index(v)] += 1;
        self.n += 1;
        self.sum += v;
        self.min_seen = self.min_seen.min(v);
        self.max_seen = self.max_seen.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Exact minimum (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min_seen
        }
    }

    /// Exact maximum (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max_seen
        }
    }

    /// Raw per-bucket counts (`NUM_BUCKETS` entries).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket-resolution percentile `q ∈ [0, 1]`: the upper edge of the
    /// bucket holding the `⌈q·n⌉`-th sample, clamped to the exact observed
    /// min/max. Returns 0.0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_upper_bound(i)
                    .min(self.max_seen)
                    .max(self.min_seen);
            }
        }
        self.max_seen
    }

    /// Shorthand for the p50/p95/p99/max quadruple the reports print.
    pub fn quartet(&self) -> (f64, f64, f64, f64) {
        (
            self.percentile(0.50),
            self.percentile(0.95),
            self.percentile(0.99),
            self.max(),
        )
    }
}

/// Exact sample percentile with linear interpolation (Hyndman–Fan type 7,
/// the convention of numpy's default): `q = 0.5` reproduces the textbook
/// median for both odd and even sample sizes. Panics on an empty sample;
/// `xs` need not be sorted.
pub fn percentile_exact(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty sample");
    let q = q.clamp(0.0, 1.0);
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        // Default must be usable for recording, like new()
        let mut d = LogHistogram::default();
        d.record(1.0);
        assert_eq!(d.count(), 1);
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn values_below_the_first_edge_underflow() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(LOW_EDGE / 2.0);
        h.record(-1.0); // clamps to 0.0
        assert_eq!(h.counts()[0], 3);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn a_value_exactly_on_an_edge_belongs_to_the_bucket_above() {
        // the first edge
        assert_eq!(LogHistogram::bucket_index(LOW_EDGE), 1);
        // just below it: underflow
        assert_eq!(LogHistogram::bucket_index(LOW_EDGE * 0.999), 0);
        // an interior edge, taken verbatim from the bound table
        let i = 17;
        let edge = edges()[i - 1];
        assert_eq!(LogHistogram::bucket_index(edge), i);
        // nudged below the edge: previous bucket
        assert_eq!(LogHistogram::bucket_index(edge * (1.0 - 1e-12)), i - 1);
        // strictly inside: same bucket
        let hi = LogHistogram::bucket_upper_bound(i);
        assert_eq!(LogHistogram::bucket_index(0.5 * (edge + hi)), i);
    }

    #[test]
    fn huge_values_saturate_in_the_overflow_bucket() {
        let mut h = LogHistogram::new();
        // exactly the last edge, read from the bound table (the nominal 1e3
        // is off by a few ulps of powf rounding)
        h.record(edges()[NUM_BUCKETS - 2]);
        h.record(1e9);
        h.record(f64::MAX);
        assert_eq!(h.counts()[NUM_BUCKETS - 1], 3);
        // the reported max stays exact despite saturation
        assert_eq!(h.max(), f64::MAX);
        // percentile clamps to the observed extremes, never +inf
        assert!(h.percentile(0.5).is_finite());
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert!(h.is_empty());
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut h = LogHistogram::new();
        // 99 samples at ~1 ms, one at ~1 s
        for _ in 0..99 {
            h.record(1.1e-3);
        }
        h.record(1.1);
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        let (q50, _, q99, qmax) = h.quartet();
        assert_eq!(p50, q50);
        assert_eq!(p99, q99);
        assert_eq!(qmax, 1.1);
        // p50 and p99 sit in the millisecond bucket, p100 at the outlier
        assert!(p50 < 2e-3, "p50 = {p50}");
        assert!(p99 < 2e-3, "p99 = {p99}");
        assert_eq!(h.percentile(1.0), 1.1);
        // bucket resolution: the reported value bounds the sample above
        assert!(p50 >= 1.1e-3);
        // mean is exact
        assert!((h.mean() - (99.0 * 1.1e-3 + 1.1) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn exact_percentile_matches_textbook_median() {
        assert_eq!(percentile_exact(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile_exact(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        assert_eq!(percentile_exact(&[7.0], 0.5), 7.0);
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((percentile_exact(&xs, 0.5) - 4.5).abs() < 1e-12);
        assert_eq!(percentile_exact(&xs, 0.0), 2.0);
        assert_eq!(percentile_exact(&xs, 1.0), 9.0);
    }

    #[test]
    #[should_panic]
    fn exact_percentile_of_empty_panics() {
        let _ = percentile_exact(&[], 0.5);
    }
}
