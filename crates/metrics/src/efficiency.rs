//! The paper's §5 performance metrics.

/// Efficiency as defined in §5: `efficiency = E(1) / (E · P)` where `E(1)`
/// is the sequential execution time, `E` the execution time on the system,
/// and `P` the sum of each processor's performance relative to the
/// sequential processor (equal to the processor count on homogeneous
/// systems).
pub fn efficiency(sequential_secs: f64, parallel_secs: f64, total_power: f64) -> f64 {
    assert!(sequential_secs > 0.0 && parallel_secs > 0.0 && total_power > 0.0);
    sequential_secs / (parallel_secs * total_power)
}

/// Relative improvement of `new` over `base`, in percent:
/// `(base − new)/base · 100` — the quantity behind "the execution time can
/// be reduced by 9%–46%".
pub fn improvement_percent(base: f64, new: f64) -> f64 {
    assert!(base > 0.0);
    (base - new) / base * 100.0
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_perfect_scaling_is_one() {
        assert!((efficiency(100.0, 12.5, 8.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_degrades_with_overhead() {
        let e = efficiency(100.0, 25.0, 8.0);
        assert!((e - 0.5).abs() < 1e-12);
    }

    #[test]
    fn efficiency_with_heterogeneous_power() {
        // 4 procs at weight 1 + 4 at weight 2 => P = 12
        let e = efficiency(120.0, 10.0, 12.0);
        assert!((e - 1.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_matches_paper_convention() {
        // base 100 s, new 54.1 s -> 45.9% improvement (paper's AMR64 max)
        assert!((improvement_percent(100.0, 54.1) - 45.9).abs() < 1e-9);
        // regression shows as negative improvement
        assert!(improvement_percent(100.0, 110.0) < 0.0);
    }

    #[test]
    fn mean_of_a_sample() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
