//! Small summary-statistics helpers for experiment post-processing.
//!
//! Percentile/median logic lives in `telemetry::percentile_exact` (type-7
//! interpolation) so the workspace has exactly one percentile
//! implementation; this module re-exports it.

pub use telemetry::percentile_exact;

/// Summary of a sample: count, mean, standard deviation, min, max, median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub stddev: f64,
    pub min: f64,
    pub max: f64,
    pub median: f64,
}

/// Compute a [`Summary`] of `xs` (panics on empty input).
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summarize of empty sample");
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    // type-7 interpolation at q=0.5 reduces to the textbook odd/even median
    let median = percentile_exact(&sorted, 0.5);
    Summary {
        n,
        mean,
        stddev: var.sqrt(),
        min: sorted[0],
        max: sorted[n - 1],
        median,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.0).abs() < 1e-12); // classic textbook sample
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn median_odd_sample() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.median, 2.0);
    }

    #[test]
    fn single_element() {
        let s = summarize(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    #[should_panic]
    fn empty_panics() {
        let _ = summarize(&[]);
    }
}
