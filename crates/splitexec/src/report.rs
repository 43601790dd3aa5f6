//! Report formatting: the tables and CSV series used by the figure
//! regeneration binaries and the examples.

use crate::pipeline::{ExecutionReport, PredictedBreakdown};
use std::fmt::Write as _;

/// One row of a stage-breakdown table.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Logical problem size.
    pub lps: usize,
    /// Stage-1 seconds.
    pub stage1_seconds: f64,
    /// Stage-2 seconds.
    pub stage2_seconds: f64,
    /// Stage-3 seconds.
    pub stage3_seconds: f64,
    /// Total seconds.
    pub total_seconds: f64,
    /// Fraction of the total spent in stage 1.
    pub stage1_fraction: f64,
}

impl BreakdownRow {
    /// Build a row from an analytic prediction.
    pub fn from_prediction(p: &PredictedBreakdown) -> Self {
        Self {
            lps: p.lps,
            stage1_seconds: p.stage1.total_seconds,
            stage2_seconds: p.stage2.total_seconds,
            stage3_seconds: p.stage3.total_seconds,
            total_seconds: p.total_seconds(),
            stage1_fraction: p.stage1_fraction(),
        }
    }

    /// Build a row from an executed report.
    pub fn from_execution(lps: usize, r: &ExecutionReport) -> Self {
        Self {
            lps,
            stage1_seconds: r.stage1.total_seconds,
            stage2_seconds: r.stage2.total_seconds,
            stage3_seconds: r.stage3.measured_seconds,
            total_seconds: r.total_seconds(),
            stage1_fraction: r.stage1_fraction(),
        }
    }
}

/// Render rows as an aligned text table (used by the `stage_breakdown`
/// binary and the examples).
pub fn breakdown_table(rows: &[BreakdownRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>14} {:>14} {:>14} {:>10}",
        "n", "stage1 [s]", "stage2 [s]", "stage3 [s]", "total [s]", "stage1 %"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>6} {:>14.6e} {:>14.6e} {:>14.6e} {:>14.6e} {:>9.2}%",
            row.lps,
            row.stage1_seconds,
            row.stage2_seconds,
            row.stage3_seconds,
            row.total_seconds,
            100.0 * row.stage1_fraction
        );
    }
    out
}

/// Render an `(x, series...)` data set as CSV with a header line, the format
/// consumed by external plotting of the figure series.
pub fn csv_series(header: &[&str], rows: &[Vec<f64>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", header.join(","));
    for row in rows {
        let formatted: Vec<String> = row.iter().map(|v| format!("{v:.9e}")).collect();
        let _ = writeln!(out, "{}", formatted.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplitExecConfig;
    use crate::machine::SplitMachine;
    use crate::pipeline::Pipeline;

    #[test]
    fn breakdown_row_from_prediction() {
        let pipeline = Pipeline::new(SplitMachine::paper_default(), SplitExecConfig::default());
        let p = pipeline.predict(20).unwrap();
        let row = BreakdownRow::from_prediction(&p);
        assert_eq!(row.lps, 20);
        let sum = row.stage1_seconds + row.stage2_seconds + row.stage3_seconds;
        assert!((sum - row.total_seconds).abs() < 1e-9);
        assert!(row.stage1_fraction > 0.9);
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![
            BreakdownRow {
                lps: 10,
                stage1_seconds: 1.0,
                stage2_seconds: 0.001,
                stage3_seconds: 0.0001,
                total_seconds: 1.0011,
                stage1_fraction: 0.999,
            },
            BreakdownRow {
                lps: 20,
                stage1_seconds: 2.0,
                stage2_seconds: 0.001,
                stage3_seconds: 0.0001,
                total_seconds: 2.0011,
                stage1_fraction: 0.9995,
            },
        ];
        let table = breakdown_table(&rows);
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("stage1 [s]"));
        assert!(table.contains("20"));
    }

    #[test]
    fn csv_series_has_header_and_rows() {
        let csv = csv_series(&["n", "model", "measured"], &[vec![1.0, 2.0, 3.0]]);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "n,model,measured");
        let data = lines.next().unwrap();
        assert_eq!(data.split(',').count(), 3);
    }
}
