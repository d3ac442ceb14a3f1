#![warn(missing_docs)]

//! # bench — the evaluation harness
//!
//! One regenerator per table and figure of the paper's evaluation section
//! ([`experiments::ALL`]). Each prints the same rows/series the paper
//! reports; `repro_all` runs them (all, or those `--only` names) and with
//! `--json PATH` dumps machine-readable results for EXPERIMENTS.md:
//!
//! ```text
//! cargo run --release -p bench --bin repro_all
//! cargo run --release -p bench --bin repro_all -- --only table2 --only fig7
//! ```

use std::fmt;

pub mod experiments;
pub mod verify;
pub mod workloads;

/// A rendered results table.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (w, cell) in widths.iter().zip(cells) {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>w$}", w = w)?;
                first = false;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        )?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with three significant-ish digits, like the paper's
/// tables.
pub fn fmt3(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

/// Formats an improvement ratio the way the paper writes them ("48.9x").
pub fn fmt_ratio(x: f64) -> String {
    format!("{}x", fmt3(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2.5".into()]);
        let s = t.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("long-name"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_are_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn fmt3_scales_precision() {
        assert_eq!(fmt3(0.1234), "0.123");
        assert_eq!(fmt3(1.234), "1.23");
        assert_eq!(fmt3(12.34), "12.3");
        assert_eq!(fmt3(123.4), "123");
        assert_eq!(fmt3(0.0), "0");
        assert_eq!(fmt_ratio(48.91), "48.9x");
    }
}
