//! Tabular output of experiment results.
//!
//! The benchmark harness regenerates the paper's figures as tables: one row per
//! parameter combination, one column per measured series. [`DataTable`] is that
//! structure, with Markdown and CSV renderers used by the `reproduce` and
//! `validate` binaries.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A labelled table of floating-point results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataTable {
    title: String,
    /// First column header (the swept parameter).
    row_label: String,
    /// Remaining column headers (the measured series).
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl DataTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(
        title: impl Into<String>,
        row_label: impl Into<String>,
        columns: Vec<String>,
    ) -> Self {
        assert!(
            !columns.is_empty(),
            "a data table needs at least one column"
        );
        DataTable {
            title: title.into(),
            row_label: row_label.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The measured-series headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows added so far.
    pub fn rows(&self) -> &[(String, Vec<f64>)] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of columns.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match the number of columns"
        );
        self.rows.push((label.into(), values));
    }

    /// The value at (`row`, `column`), if present.
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        let (_, values) = self.rows.iter().find(|(label, _)| label == row)?;
        values.get(col).copied()
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = writeln!(out);
        let _ = write!(out, "| {} |", self.row_label);
        for column in &self.columns {
            let _ = write!(out, " {column} |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.columns {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "| {label} |");
            for value in values {
                let _ = write!(out, " {} |", format_value(*value));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders the table as CSV (header line included).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", escape_csv(&self.row_label));
        for column in &self.columns {
            let _ = write!(out, ",{}", escape_csv(column));
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{}", escape_csv(label));
            for value in values {
                let _ = write!(out, ",{}", format_value(*value));
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn format_value(value: f64) -> String {
    // The branch must be picked on the *rounded* magnitude, not the raw one:
    // 999.999 rounds to 1000 and belongs to the integer branch (plain
    // `>= 1000.0` would render it "1000.00"), and 0.99999 rounds to 1.00 and
    // belongs to the two-decimal branch (not "1.000").
    let magnitude = value.abs();
    if value == 0.0 {
        "0".to_owned()
    } else if magnitude.round() >= 1000.0 {
        format!("{value:.0}")
    } else if (magnitude * 100.0).round() >= 100.0 {
        format!("{value:.2}")
    } else if (magnitude * 1000.0).round() >= 1.0 {
        format!("{value:.3}")
    } else {
        // Tiny but non-zero: scientific notation, so a real measurement is
        // never rendered indistinguishably from an exact zero.
        format!("{value:.1e}")
    }
}

fn escape_csv(text: &str) -> String {
    if text.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", text.replace('"', "\"\""))
    } else {
        text.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataTable {
        let mut table = DataTable::new(
            "Fig. 14 — reliability vs. subscribers",
            "subscribers [%]",
            vec!["reliability".into(), "ci95".into()],
        );
        table.push_row("20", vec![0.581, 0.021]);
        table.push_row("100", vec![0.769, 0.0]);
        table
    }

    #[test]
    fn lookup_by_row_and_column() {
        let table = sample();
        assert_eq!(table.value("20", "reliability"), Some(0.581));
        assert_eq!(table.value("100", "ci95"), Some(0.0));
        assert_eq!(table.value("37", "reliability"), None);
        assert_eq!(table.value("20", "missing"), None);
        assert_eq!(table.columns().len(), 2);
        assert_eq!(table.rows().len(), 2);
        assert!(table.title().contains("Fig. 14"));
    }

    #[test]
    fn markdown_rendering_contains_all_cells() {
        let md = sample().to_markdown();
        assert!(md.contains("### Fig. 14"));
        assert!(md.contains("| subscribers [%] | reliability | ci95 |"));
        assert!(md.contains("| 20 | 0.581 | 0.021 |"));
        assert!(md.contains("| 100 | 0.769 | 0 |"));
    }

    #[test]
    fn csv_rendering_is_parsable() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "subscribers [%],reliability,ci95");
        assert!(lines[1].starts_with("20,"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut table = DataTable::new("t", "speed [m/s], validity [s]", vec!["x\"y".into()]);
        table.push_row("1, 2", vec![1.0]);
        let csv = table.to_csv();
        assert!(csv.contains("\"speed [m/s], validity [s]\""));
        assert!(csv.contains("\"x\"\"y\""));
        assert!(csv.contains("\"1, 2\""));
    }

    #[test]
    fn value_formatting_adapts_to_magnitude() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(0.1234), "0.123");
        assert_eq!(format_value(12.345), "12.35");
        assert_eq!(format_value(4321.9), "4322");
    }

    #[test]
    fn rounding_boundaries_pick_the_post_rounding_branch() {
        // Regression: the branch used to be chosen on the pre-rounding
        // magnitude, so 999.999 rendered as "1000.00" (two decimals in the
        // >= 1000 regime) and 0.99999 as "1.000" (three decimals in the >= 1
        // regime).
        assert_eq!(format_value(999.999), "1000");
        assert_eq!(format_value(0.99999), "1.00");
        assert_eq!(format_value(-999.996), "-1000");
        assert_eq!(format_value(-0.99999), "-1.00");
        assert_eq!(format_value(0.0009996), "0.001");
        // Values that stay below the boundary after rounding keep their branch.
        assert_eq!(format_value(999.4), "999.40");
        assert_eq!(format_value(0.9904), "0.990");
    }

    #[test]
    fn csv_escapes_carriage_returns() {
        // Regression: a label holding a carriage return used to be emitted
        // unquoted, producing malformed CSV rows.
        let mut table = DataTable::new("t", "line\rbreak", vec!["x".into()]);
        table.push_row("a\r\nb", vec![1.0]);
        let csv = table.to_csv();
        assert!(csv.starts_with("\"line\rbreak\",x"));
        assert!(csv.contains("\"a\r\nb\",1.00"));
    }

    #[test]
    fn tiny_non_zero_values_do_not_render_as_zero() {
        // Regression: 0.0004 used to print as "0.000", indistinguishable from
        // a structural zero in the per-process tables.
        assert_eq!(format_value(0.0004), "4.0e-4");
        assert_eq!(format_value(-0.0004), "-4.0e-4");
        assert_eq!(format_value(0.001), "0.001");
        assert!(format_value(1e-9).contains("e-9"));
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        let mut table = DataTable::new("t", "x", vec!["a".into(), "b".into()]);
        table.push_row("r", vec![1.0]);
    }

    #[test]
    #[should_panic]
    fn empty_columns_panics() {
        let _ = DataTable::new("t", "x", vec![]);
    }
}
