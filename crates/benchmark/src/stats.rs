//! Median, quartiles and spread of a sample — the same definitions the
//! benchmark driver uses (`statistics.median` and
//! `statistics.quantiles(values, n=4)`, exclusive method), so a spread
//! computed here is the spread the driver will see.

use crate::json::{obj, Value};

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    v
}

/// Median (mean of the two middle values for an even count). Panics on an
/// empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First quartile, median, third quartile. Python's exclusive method:
/// the `i`-th of 4 cut points sits at rank `i·(n+1)/4`, interpolated
/// linearly between neighbours and clamped to the sample. A single value is
/// its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// A repeated measurement: every sample, reported as median and quartiles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    pub fn to_json(&self, unit: &str) -> Value {
        let (q1, med, q3) = quartiles(&self.0);
        obj([
            ("median", med.into()),
            ("q1", q1.into()),
            ("q3", q3.into()),
            ("n", self.0.len().into()),
            ("unit", unit.into()),
            ("samples", self.0.clone().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Values checked against `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // n = 2 and n = 3: the cut points clamp to the sample's ends
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 2.0, 4.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn iqr_share_of_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        assert_eq!(iqr_frac(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn samples_report_carries_count_and_unit() {
        let s = Samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let j = s.to_json("s");
        assert_eq!(j.get("median").unwrap().as_f64(), Some(3.0));
        assert_eq!(j.get("n").unwrap().as_f64(), Some(5.0));
        assert_eq!(j.get("unit").unwrap().as_str(), Some("s"));
    }
}
