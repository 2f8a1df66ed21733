//! `compare A.json B.json`: per (workload, end-to-end metric) medians,
//! quartiles, relative change with its base, and a verdict against the
//! bounds of `BENCHMARK.json` — read from [`END_TO_END`], the table that
//! file is generated from (the self-test holds the two together).

use crate::json::Value;
use crate::spec::{Better, END_TO_END};
use crate::stats::{iqr_frac, quartiles};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread exceeds the bound and the two sides overlap.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against the base `a`.
///
/// `worse_by` is the change of the median as a share of `a`'s median, signed
/// so that positive is worse. When either side's inter-quartile spread
/// exceeds `bound` the medians cannot carry a verdict, unless every sample
/// of one side beats every sample of the other.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (_, ma, _) = quartiles(a);
    let (_, mb, _) = quartiles(b);
    let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse_by = if better == Better::Lower {
        change
    } else {
        -change
    };
    let range = |xs: &[f64]| {
        xs.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let separated = b_lo > a_hi || a_lo > b_hi;
    let noisy = iqr_frac(a).max(iqr_frac(b)) > bound;
    let verdict = if noisy && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

fn samples(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let s = results.at(&[
        "workloads",
        workload,
        "timed",
        "end_to_end",
        metric,
        "samples",
    ])?;
    Some(s.as_array()?.iter().filter_map(Value::as_f64).collect())
}

fn failed_share(results: &Value, workload: &str) -> f64 {
    let num = |pass: &str, key: &str| {
        results
            .at(&["workloads", workload, pass, key])
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let attempted = num("timed", "ops_attempted") + num("traced", "ops_attempted");
    let failed = num("timed", "ops_failed") + num("traced", "ops_failed");
    if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    }
}

pub struct Comparison {
    pub table: String,
    /// Some metric is `worse`, or a workload fails a larger share of its
    /// operations than in the base.
    pub regressed: bool,
    pub verdicts: Vec<(String, String, Verdict)>,
}

/// Compare two results files of `run --all`. A workload or metric that
/// either side lacks counts as regressed: a run that drops one must not
/// pass.
pub fn compare(a: &Value, b: &Value) -> Comparison {
    let mut table = String::new();
    let mut regressed = false;
    let mut verdicts = Vec::new();
    let _ = writeln!(
        table,
        "{:<11} {:<19} {:>14} {:>14} {:>9} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "(B-A)/A", "spread", "bound"
    );
    let names = |r: &Value| -> Vec<String> {
        let w = r.get("workloads").map_or(&[][..], Value::members);
        w.iter().map(|(k, _)| k.clone()).collect()
    };
    let mut workloads = names(a);
    for w in names(b) {
        if !workloads.contains(&w) {
            workloads.push(w);
        }
    }
    if workloads.is_empty() {
        regressed = true;
        let _ = writeln!(table, "no workloads in either file");
    }
    for w in &workloads {
        for e in &END_TO_END {
            let metric = e.name;
            let (sa, sb) = match (samples(a, w, metric), samples(b, w, metric)) {
                (Some(sa), Some(sb)) if !sa.is_empty() && !sb.is_empty() => (sa, sb),
                _ => {
                    regressed = true;
                    let _ = writeln!(table, "{w:<11} {metric:<19} MISSING on one side");
                    continue;
                }
            };
            let (verdict, _) = judge(&sa, &sb, e.better, e.bound);
            let (qa1, ma, qa3) = quartiles(&sa);
            let (qb1, mb, qb3) = quartiles(&sb);
            let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
            let exact = if metric == "sim_total_s" && ma.to_bits() == mb.to_bits() {
                " (bit-identical)"
            } else {
                ""
            };
            let _ = writeln!(
                table,
                "{w:<11} {metric:<19} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.2}% {:>5.1}%  {}{exact}   [A q1 {qa1:.6} q3 {qa3:.6} n {}; B q1 {qb1:.6} q3 {qb3:.6} n {}]",
                100.0 * change,
                100.0 * iqr_frac(&sa).max(iqr_frac(&sb)),
                100.0 * e.bound,
                verdict.as_str(),
                sa.len(),
                sb.len(),
            );
            regressed |= verdict == Verdict::Worse;
            verdicts.push((w.clone(), metric.to_string(), verdict));
        }
        let (fa, fb) = (failed_share(a, w), failed_share(b, w));
        if fb > fa {
            regressed = true;
            let _ = writeln!(
                table,
                "{w:<11} ops_failed share rose from {:.4}% to {:.4}%",
                100.0 * fa,
                100.0 * fb
            );
        }
    }
    Comparison {
        table,
        regressed,
        verdicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&base, &base, Better::Lower, 0.08).0, Verdict::Same);
        assert_eq!(judge(&base, &slower, Better::Lower, 0.08).0, Verdict::Worse);
        assert_eq!(
            judge(&base, &faster, Better::Lower, 0.08).0,
            Verdict::Better
        );
        // a throughput reads the other way round
        assert_eq!(
            judge(&base, &slower, Better::Higher, 0.08).0,
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &faster, Better::Higher, 0.08).0,
            Verdict::Worse
        );
        let (_, worse_by) = judge(&base, &slower, Better::Lower, 0.08);
        assert!((worse_by - 0.2).abs() < 1e-9);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_separate() {
        let noisy_a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let noisy_b = [9.0, 11.0, 13.0, 10.0, 12.5];
        assert_eq!(
            judge(&noisy_a, &noisy_b, Better::Lower, 0.08).0,
            Verdict::Unresolved
        );
        let far_b = [20.0, 24.0, 28.0, 22.0, 26.0];
        assert_eq!(
            judge(&noisy_a, &far_b, Better::Lower, 0.08).0,
            Verdict::Worse
        );
    }
}
