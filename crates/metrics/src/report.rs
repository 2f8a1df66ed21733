//! Experiment rows and table rendering used by the figure harnesses.

use base::json::{self, ToJson};
use base::json_struct;
use std::fmt::Write as _;

/// Time breakdown of one run (seconds of simulated time).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunBreakdown {
    /// Total (wall) execution time.
    pub total: f64,
    /// Max-over-processors compute time.
    pub compute: f64,
    /// Max-over-processors communication time (local + remote).
    pub comm: f64,
    /// Mean local-communication seconds.
    pub comm_local: f64,
    /// Mean remote-communication seconds.
    pub comm_remote: f64,
    /// Mean load-balance overhead seconds.
    pub lb: f64,
    /// Remote messages sent.
    pub remote_msgs: u64,
    /// Remote bytes shipped.
    pub remote_bytes: u64,
}

json_struct!(RunBreakdown:
    total, compute, comm, comm_local, comm_remote, lb, remote_msgs, remote_bytes,
);

/// Host wall-clock seconds per driver phase. Unlike [`RunBreakdown`] these
/// are *real* seconds spent executing the numerics on the machine running
/// the simulation — the hot-path throughput measure the `hotpath` benchmark
/// reports — not simulated testbed time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseWall {
    /// Solver kernels (all levels).
    pub solve: f64,
    /// Ghost exchange: zero-gradient fill, parent prolongation, sibling
    /// window copies.
    pub ghost: f64,
    /// Regridding: flagging, clustering, placement, data transfer.
    pub regrid: f64,
    /// Fine-to-coarse restriction.
    pub restrict: f64,
    /// Load-balancing decision phase: the scheme's `after_level_step`
    /// (global γ-gated checks plus local balancing) — the host-side cost
    /// the hierarchical tree reduction keeps sublinear in group count.
    pub decision: f64,
}

// `decision` joined later: documents written before it read as 0
json_struct!(PhaseWall: solve, ghost, regrid, restrict, decision or 0.0);

/// Host wall-clock seconds of [`PhaseWall::ghost`] by part of the planned
/// exchange; the four are laps of one clock and sum to it. Real seconds on
/// the machine running the simulation, so never part of a fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GhostWall {
    /// Fetching the level's exchange plan: a cache hit, or the rebuild
    /// after a structural change of the level.
    pub plan: f64,
    /// Ghost cells no sibling fills: parent prolongation, or zero-gradient
    /// at the domain boundary of level 0.
    pub coarse_fill: f64,
    /// Sibling windows copied source to destination.
    pub sibling: f64,
    /// Per-owner-pair byte totals and their simulated sends.
    pub messages: f64,
}

/// Host wall-clock seconds the distributed scheme's `after_level_step`
/// spent, by what it was doing (never part of a fingerprint). Its clock
/// runs inside the driver's `decision` phase: the three sum to at most
/// [`PhaseWall::decision`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DlbWall {
    /// The local phase: per-group load exchange and within-group balancing.
    pub local_dlb: f64,
    /// Deciding: load bookkeeping, upsweep, probes, pricing, the γ-gate.
    pub decide: f64,
    /// Accepted redistributions: repartition, migration, commit or
    /// rollback, δ accounting.
    pub migrate: f64,
}

/// Fault-protocol counters: how often the degradation policy (retry,
/// quarantine, rollback) had to act, and how long recoveries took. The
/// balancer keeps them for its own protocol, the driver adds its bulk
/// transfers, and a step-trace record holds the difference of two such
/// readings ([`FaultCounters::since`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultCounters {
    /// Inter-group probes that failed after exhausting retries.
    pub probe_failures: u64,
    /// Re-attempts consumed by eventually-successful retried operations:
    /// probes, decision collectives and bulk transfers.
    pub retries: u64,
    /// Global redistributions aborted and rolled back.
    pub aborts: u64,
    /// Groups placed in quarantine.
    pub quarantines: u64,
    /// Quarantined groups re-admitted after a probation probe.
    pub readmissions: u64,
    /// Failed collectives / tolerated failed boundary transfers.
    pub comm_failures: u64,
    /// Total simulated seconds groups spent quarantined before re-admission.
    pub recovery_secs: f64,
}

json_struct!(FaultCounters:
    probe_failures, retries, aborts, quarantines, readmissions, comm_failures, recovery_secs,
);

impl FaultCounters {
    /// What happened between two cumulative readings of one run: `self`
    /// minus the `earlier` one, counter by counter.
    pub fn since(&self, earlier: &FaultCounters) -> FaultCounters {
        FaultCounters {
            probe_failures: self.probe_failures - earlier.probe_failures,
            retries: self.retries - earlier.retries,
            aborts: self.aborts - earlier.aborts,
            quarantines: self.quarantines - earlier.quarantines,
            readmissions: self.readmissions - earlier.readmissions,
            comm_failures: self.comm_failures - earlier.comm_failures,
            recovery_secs: self.recovery_secs - earlier.recovery_secs,
        }
    }
}

/// Crash-stop recovery counters of one run: crashes detected, patches
/// evacuated, and how quickly the system absorbed each failure.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Crash-stop process failures detected.
    pub crashes: u64,
    /// Crashed procs that recovered and re-entered with zero load.
    pub rejoins: u64,
    /// Evacuations performed (one per crash with owned patches).
    pub evacuations: u64,
    /// Level-0-equivalent cells reassigned away from dead procs.
    pub evacuated_cells: i64,
    /// Mean simulated seconds from crash onset to evacuation complete.
    pub mttr_mean_secs: f64,
    /// Worst-case simulated seconds from crash onset to evacuation complete.
    pub mttr_max_secs: f64,
    /// Simulated seconds of recomputation charged for restoring evacuated
    /// patches from the last checkpoint (the recovery δ).
    pub recompute_secs: f64,
}

json_struct!(RecoveryStats:
    crashes, rejoins, evacuations, evacuated_cells, mttr_mean_secs, mttr_max_secs, recompute_secs,
);

/// Forecast-quality counters of one run: how well the network-weather
/// predictors tracked reality, and how often the load forecast triggered a
/// proactive global check. Zeroes while no predictor is configured or
/// before any series has scored a forecast; the MAEs are running means, so
/// a step-trace record holds the reading as of its step, not a delta.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ForecastStats {
    /// Mean α forecast MAE over the scored link series (seconds).
    pub alpha_mae: f64,
    /// Mean β forecast MAE over the scored link series (s/byte).
    pub beta_mae: f64,
    /// Mean group-load forecast MAE over the scored series (cells).
    pub load_mae: f64,
    /// Out-of-sample (forecast, probe) pairs scored across link series.
    pub scored_probes: u64,
    /// Global checks triggered proactively by the load forecast.
    pub proactive_checks: u64,
    /// Proactive checks that went on to invoke a redistribution.
    pub proactive_invocations: u64,
}

json_struct!(ForecastStats:
    alpha_mae, beta_mae, load_mae, scored_probes, proactive_checks, proactive_invocations,
);

/// Per-tenant outcome of one multi-tenant service run on a shared
/// substrate clock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Tenant index within the service.
    pub tenant: usize,
    /// Admission priority weight.
    pub priority: f64,
    /// Global group ids the tenant finished on.
    pub groups: Vec<usize>,
    /// Level-0 steps completed.
    pub steps: u64,
    /// Cell updates executed by this tenant.
    pub cell_updates: u64,
    /// Total simulated seconds from the tenant's view.
    pub total_secs: f64,
    /// Median per-step simulated latency, seconds.
    pub p50_step_secs: f64,
    /// 99th-percentile per-step simulated latency, seconds.
    pub p99_step_secs: f64,
    /// Whole-tenant migrations performed on this tenant.
    pub migrations: u64,
}

impl TenantStats {
    /// Aggregate cell-update throughput over simulated time (updates/sec).
    pub fn cell_updates_per_sec(&self) -> f64 {
        if self.total_secs > 0.0 {
            self.cell_updates as f64 / self.total_secs
        } else {
            0.0
        }
    }
}

/// One configuration row of a figure (e.g. "4 + 4").
#[derive(Clone, Debug)]
pub struct ConfigRow {
    /// Label like "4+4" or "8".
    pub config: String,
    /// Named measurements, insertion-ordered (e.g. scheme → seconds).
    pub values: Vec<(String, f64)>,
}

json_struct!(ConfigRow: config, values);

impl ConfigRow {
    pub fn new(config: impl Into<String>) -> Self {
        ConfigRow {
            config: config.into(),
            values: Vec::new(),
        }
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.values.push((name.into(), value));
        self
    }

    /// Value by series name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// A whole figure/table: rows of configurations × named series.
#[derive(Clone, Debug, Default)]
pub struct Table {
    pub title: String,
    pub rows: Vec<ConfigRow>,
}

json_struct!(Table: title, rows);

impl Table {
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, row: ConfigRow) {
        self.rows.push(row);
    }

    /// Series names in first-appearance order.
    pub fn series(&self) -> Vec<String> {
        let mut names = Vec::new();
        for r in &self.rows {
            for (n, _) in &r.values {
                if !names.contains(n) {
                    names.push(n.clone());
                }
            }
        }
        names
    }

    /// Column of one series, ordered by rows (NaN where absent).
    pub fn column(&self, name: &str) -> Vec<f64> {
        self.rows
            .iter()
            .map(|r| r.get(name).unwrap_or(f64::NAN))
            .collect()
    }

    /// Render as an aligned text table (column widths fit the headers).
    pub fn render(&self) -> String {
        let series = self.series();
        let widths: Vec<usize> = series.iter().map(|s| s.len().max(10) + 2).collect();
        let cfg_w = self
            .rows
            .iter()
            .map(|r| r.config.len())
            .max()
            .unwrap_or(6)
            .max(6)
            + 2;
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:<cfg_w$}", "config");
        for (s, w) in series.iter().zip(&widths) {
            let _ = write!(out, "{s:>w$}", w = *w);
        }
        let _ = writeln!(out);
        for r in &self.rows {
            let _ = write!(out, "{:<cfg_w$}", r.config);
            for (s, w) in series.iter().zip(&widths) {
                match r.get(s) {
                    Some(v) => {
                        let _ = write!(out, "{v:>w$.3}", w = *w);
                    }
                    None => {
                        let _ = write!(out, "{:>w$}", "-", w = *w);
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The table as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).to_pretty()
    }

    /// Read back what [`Table::to_json`] wrote.
    pub fn from_json(text: &str) -> Result<Table, json::Error> {
        json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig. 7 (AMR64)");
        let mut r = ConfigRow::new("2+2");
        r.push("parallel DLB", 100.0);
        r.push("distributed DLB", 80.0);
        t.push(r);
        let mut r = ConfigRow::new("4+4");
        r.push("parallel DLB", 70.0);
        r.push("distributed DLB", 40.0);
        t.push(r);
        t
    }

    #[test]
    fn series_and_columns() {
        let t = sample();
        assert_eq!(t.series(), vec!["parallel DLB", "distributed DLB"]);
        assert_eq!(t.column("parallel DLB"), vec![100.0, 70.0]);
        assert_eq!(t.rows[1].get("distributed DLB"), Some(40.0));
        assert!(t.column("missing")[0].is_nan());
    }

    #[test]
    fn render_contains_everything() {
        let s = sample().render();
        assert!(s.contains("Fig. 7"));
        assert!(s.contains("2+2"));
        assert!(s.contains("parallel DLB"));
        assert!(s.contains("40.000"));
    }

    #[test]
    fn json_roundtrip() {
        let t = sample();
        let j = t.to_json();
        let back = Table::from_json(&j).unwrap();
        assert_eq!(back.rows.len(), 2);
        assert_eq!(back.rows[0].get("parallel DLB"), Some(100.0));
        assert_eq!(back.to_json(), j);
    }

    /// Every figure and ablation table committed under `results/` (written
    /// by the seed's serde_json) reads back, and its numbers survive this
    /// writer exactly.
    #[test]
    fn committed_result_tables_parse_and_survive_the_writer() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut tables = 0;
        for entry in std::fs::read_dir(results).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            if !(name.starts_with("fig") || name.starts_with("ablation_"))
                || !name.ends_with(".json")
            {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let table = Table::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!table.rows.is_empty(), "{name}");
            let rewritten = table.to_json();
            assert_eq!(
                json::parse(&rewritten).unwrap(),
                json::parse(&text).unwrap(),
                "{name} changed value through Table::to_json"
            );
            tables += 1;
        }
        assert!(tables >= 10, "only {tables} tables under {results}");
    }

    #[test]
    fn a_damaged_table_is_an_error_with_a_path() {
        let good = sample().to_json();
        let err = |text: &str| Table::from_json(text).unwrap_err().to_string();
        assert!(err(&good[..good.len() - 20]).starts_with("expected a JSON document, found"));
        assert_eq!(
            err(&good.replace("70", "\"seventy\"")),
            "rows[1].values[0][1]: expected number, found string"
        );
        assert_eq!(
            err(&good.replace("\"title\"", "\"name\"")),
            "title: expected a value, found nothing"
        );
    }

    /// `decision` joined `PhaseWall` after results had been written: a
    /// document without it reads as 0, any other absent phase is an error.
    #[test]
    fn phase_wall_reads_an_absent_decision_as_zero() {
        let wall = PhaseWall {
            solve: 1.5,
            ghost: 0.5,
            regrid: 0.25,
            restrict: 0.125,
            decision: 2.0,
        };
        let text = ToJson::to_json(&wall).to_compact();
        assert_eq!(json::from_str::<PhaseWall>(&text), Ok(wall));
        let old = text.replace(",\"decision\":2", "");
        assert_eq!(
            json::from_str::<PhaseWall>(&old),
            Ok(PhaseWall {
                decision: 0.0,
                ..wall
            })
        );
        let e = json::from_str::<PhaseWall>(&old.replace("\"ghost\":0.5,", "")).unwrap_err();
        assert_eq!(e.to_string(), "ghost: expected a value, found nothing");
    }
}
