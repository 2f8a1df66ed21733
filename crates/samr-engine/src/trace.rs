//! Per-step trace records: what the run looked like after every level-0
//! step, for analysis, plotting, and regression baselines.

use metrics::{FaultCounters, ForecastStats};

/// Crash-stop recovery activity during one level-0 step (deltas, not
/// totals).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepRecovery {
    /// Crash-stop process failures detected this step.
    pub crashes: u64,
    /// Crashed procs that recovered and re-entered this step.
    pub rejoins: u64,
    /// Cells evacuated away from dead procs this step (all levels).
    pub evacuated_cells: i64,
    /// Simulated seconds from crash onset to evacuation complete, summed
    /// over this step's crashes.
    pub mttr_secs: f64,
    /// Simulated seconds of recomputation charged for restoring evacuated
    /// patches from checkpointed state.
    pub recompute_secs: f64,
}

impl StepRecovery {
    /// Whether any crash-stop activity happened this step.
    pub fn any(&self) -> bool {
        self.crashes != 0 || self.rejoins != 0 || self.evacuated_cells != 0
    }
}

/// Snapshot taken after each level-0 step.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// Level-0 step index (0-based).
    pub step: u64,
    /// Simulated wall time of this step (seconds).
    pub step_secs: f64,
    /// Cumulative simulated time after this step.
    pub elapsed_secs: f64,
    /// Grids per level after the step.
    pub grids_per_level: Vec<usize>,
    /// Cells per level after the step.
    pub cells_per_level: Vec<i64>,
    /// Iteration-weighted workload per group after the step.
    pub group_workload: Vec<f64>,
    /// Whether the global phase redistributed this step (distributed DLB).
    pub redistributed: bool,
    /// Forecast quality of the scheme's series as of the end of the step
    /// (a running reading, not a delta; the CSV prints its three MAEs).
    pub forecast: ForecastStats,
    /// Fault-protocol activity during the step: the run's cumulative
    /// counters after it, [`FaultCounters::since`] those before it (the
    /// CSV prints all but `probe_failures`).
    pub faults: FaultCounters,
    /// Crash-stop recovery activity during the step.
    pub recovery: StepRecovery,
}

/// A whole run's trace plus CSV export.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    pub records: Vec<StepRecord>,
}

impl RunTrace {
    pub fn push(&mut self, r: StepRecord) {
        self.records.push(r);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sum of the per-step fault activity over the whole trace.
    pub fn fault_totals(&self) -> FaultCounters {
        let mut t = FaultCounters::default();
        for r in &self.records {
            t.probe_failures += r.faults.probe_failures;
            t.retries += r.faults.retries;
            t.aborts += r.faults.aborts;
            t.quarantines += r.faults.quarantines;
            t.readmissions += r.faults.readmissions;
            t.comm_failures += r.faults.comm_failures;
            t.recovery_secs += r.faults.recovery_secs;
        }
        t
    }

    /// Sum of the per-step crash-stop activity over the whole trace.
    pub fn recovery_totals(&self) -> StepRecovery {
        let mut t = StepRecovery::default();
        for r in &self.records {
            t.crashes += r.recovery.crashes;
            t.rejoins += r.recovery.rejoins;
            t.evacuated_cells += r.recovery.evacuated_cells;
            t.mttr_secs += r.recovery.mttr_secs;
            t.recompute_secs += r.recovery.recompute_secs;
        }
        t
    }

    /// The single source of truth for the CSV layout: one `(header, cell)`
    /// pair per column, so the header and every row always agree in arity
    /// and order. Levels and groups are flattened to the maximum width seen
    /// in the trace; the forecast block slots in before the fault block,
    /// and the crash-stop recovery block rides after it at the very end
    /// (consumers index blocks from the tail).
    fn columns(&self) -> Vec<Column> {
        let max_levels = self
            .records
            .iter()
            .map(|r| r.grids_per_level.len())
            .max()
            .unwrap_or(0);
        let max_groups = self
            .records
            .iter()
            .map(|r| r.group_workload.len())
            .max()
            .unwrap_or(0);
        let mut cols: Vec<Column> = vec![
            col("step", |r| format!("{}", r.step)),
            col("step_secs", |r| format!("{:.6}", r.step_secs)),
            col("elapsed_secs", |r| format!("{:.6}", r.elapsed_secs)),
            col("redistributed", |r| format!("{}", r.redistributed as u8)),
        ];
        for l in 0..max_levels {
            cols.push(Column {
                name: format!("grids_l{l}"),
                cell: Box::new(move |r| {
                    format!("{}", r.grids_per_level.get(l).copied().unwrap_or(0))
                }),
            });
            cols.push(Column {
                name: format!("cells_l{l}"),
                cell: Box::new(move |r| {
                    format!("{}", r.cells_per_level.get(l).copied().unwrap_or(0))
                }),
            });
        }
        for g in 0..max_groups {
            cols.push(Column {
                name: format!("workload_g{g}"),
                cell: Box::new(move |r| {
                    format!("{:.1}", r.group_workload.get(g).copied().unwrap_or(0.0))
                }),
            });
        }
        cols.push(col("forecast_alpha_mae", |r| {
            format!("{:.6e}", r.forecast.alpha_mae)
        }));
        cols.push(col("forecast_beta_mae", |r| {
            format!("{:.6e}", r.forecast.beta_mae)
        }));
        cols.push(col("forecast_load_mae", |r| {
            format!("{:.3}", r.forecast.load_mae)
        }));
        cols.push(col("retries", |r| format!("{}", r.faults.retries)));
        cols.push(col("aborts", |r| format!("{}", r.faults.aborts)));
        cols.push(col("quarantines", |r| format!("{}", r.faults.quarantines)));
        cols.push(col("readmissions", |r| format!("{}", r.faults.readmissions)));
        cols.push(col("comm_failures", |r| format!("{}", r.faults.comm_failures)));
        cols.push(col("recovery_secs", |r| {
            format!("{:.3}", r.faults.recovery_secs)
        }));
        cols.push(col("crashes", |r| format!("{}", r.recovery.crashes)));
        cols.push(col("rejoins", |r| format!("{}", r.recovery.rejoins)));
        cols.push(col("evacuated_cells", |r| {
            format!("{}", r.recovery.evacuated_cells)
        }));
        cols.push(col("mttr_secs", |r| format!("{:.3}", r.recovery.mttr_secs)));
        cols.push(col("recompute_secs", |r| {
            format!("{:.3}", r.recovery.recompute_secs)
        }));
        cols
    }

    /// CSV with one row per step, rendered from the [`Self::columns`] spec.
    pub fn to_csv(&self) -> String {
        let cols = self.columns();
        let mut out = cols
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for r in &self.records {
            let row: Vec<String> = cols.iter().map(|c| (c.cell)(r)).collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// One CSV column: its header name and how to render a record's cell.
struct Column {
    name: String,
    cell: Box<dyn Fn(&StepRecord) -> String>,
}

fn col(name: &str, cell: impl Fn(&StepRecord) -> String + 'static) -> Column {
    Column {
        name: name.to_string(),
        cell: Box::new(cell),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: u64) -> StepRecord {
        StepRecord {
            step,
            step_secs: 1.5,
            elapsed_secs: 1.5 * (step + 1) as f64,
            grids_per_level: vec![2, 5],
            cells_per_level: vec![100, 200],
            group_workload: vec![300.0, 200.0],
            redistributed: step == 1,
            forecast: ForecastStats::default(),
            faults: FaultCounters::default(),
            recovery: StepRecovery::default(),
        }
    }

    #[test]
    fn csv_shape() {
        let mut t = RunTrace::default();
        t.push(rec(0));
        t.push(rec(1));
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("step,step_secs,elapsed_secs,redistributed"));
        assert!(lines[0].contains("grids_l1"));
        assert!(lines[0].contains("workload_g1"));
        assert!(lines[1].starts_with("0,"));
        assert!(lines[2].contains(",1,")); // redistributed flag on step 1
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn ragged_records_padded() {
        let mut t = RunTrace::default();
        let mut a = rec(0);
        a.grids_per_level = vec![1];
        a.cells_per_level = vec![50];
        t.push(a);
        t.push(rec(1));
        let csv = t.to_csv();
        let row0: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        let row1: Vec<&str> = csv.lines().nth(2).unwrap().split(',').collect();
        assert_eq!(row0.len(), row1.len());
        // the padded level reads zero
        assert_eq!(row0[6], "0");
    }

    #[test]
    fn fault_columns_ride_at_the_end() {
        let mut t = RunTrace::default();
        t.push(rec(0));
        let mut r = rec(1);
        r.faults = FaultCounters {
            retries: 2,
            aborts: 1,
            quarantines: 1,
            comm_failures: 3,
            ..FaultCounters::default()
        };
        t.push(r);
        let csv = t.to_csv();
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let n = header.len();
        assert_eq!(header[n - 11..n - 5].join(","),
            "retries,aborts,quarantines,readmissions,comm_failures,recovery_secs");
        let row1: Vec<&str> = csv.lines().nth(2).unwrap().split(',').collect();
        assert_eq!(&row1[row1.len() - 11..row1.len() - 6], &["2", "1", "1", "0", "3"]);
        let totals = t.fault_totals();
        assert_eq!(totals.retries, 2);
        assert_eq!(totals.aborts, 1);
        assert_ne!(totals, FaultCounters::default());
        assert_eq!(rec(0).faults, FaultCounters::default());
    }

    #[test]
    fn header_arity_matches_every_row_and_the_spec() {
        let mut t = RunTrace::default();
        let mut a = rec(0);
        a.grids_per_level = vec![1, 2, 3]; // wider than rec()'s two levels
        a.cells_per_level = vec![10, 20, 30];
        t.push(a);
        t.push(rec(1));
        t.push(rec(2));
        let spec_arity = t.columns().len();
        let csv = t.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), spec_arity);
        for (i, row) in lines.enumerate() {
            assert_eq!(
                row.split(',').count(),
                spec_arity,
                "row {i} arity != header arity"
            );
        }
    }

    #[test]
    fn forecast_columns_sit_before_the_fault_block() {
        let mut t = RunTrace::default();
        let mut r = rec(0);
        r.forecast = ForecastStats {
            alpha_mae: 0.002,
            beta_mae: 3.5e-8,
            load_mae: 120.0,
            ..ForecastStats::default()
        };
        t.push(r);
        let csv = t.to_csv();
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let n = header.len();
        assert_eq!(
            header[n - 14..n - 11].join(","),
            "forecast_alpha_mae,forecast_beta_mae,forecast_load_mae"
        );
        let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(row.len(), n);
        assert!(row[n - 14].parse::<f64>().unwrap() > 0.0);
        assert_eq!(row[n - 12], "120.000");
    }

    #[test]
    fn recovery_columns_close_out_the_row() {
        let mut t = RunTrace::default();
        t.push(rec(0));
        let mut r = rec(1);
        r.recovery = StepRecovery {
            crashes: 1,
            rejoins: 0,
            evacuated_cells: 4096,
            mttr_secs: 2.5,
            recompute_secs: 0.75,
        };
        t.push(r);
        let csv = t.to_csv();
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let n = header.len();
        assert_eq!(
            header[n - 5..].join(","),
            "crashes,rejoins,evacuated_cells,mttr_secs,recompute_secs"
        );
        let row1: Vec<&str> = csv.lines().nth(2).unwrap().split(',').collect();
        assert_eq!(&row1[n - 5..n - 2], &["1", "0", "4096"]);
        assert_eq!(row1[n - 2], "2.500");
        assert_eq!(row1[n - 1], "0.750");
        let totals = t.recovery_totals();
        assert_eq!(totals.crashes, 1);
        assert_eq!(totals.evacuated_cells, 4096);
        assert!(totals.any());
        assert!(!rec(0).recovery.any());
    }
}
