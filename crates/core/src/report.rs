//! Plain-text table formatting for experiment output.

use std::fmt;

/// A simple fixed-width text table.
///
/// # Example
///
/// ```
/// use meshslice::report::Table;
///
/// let mut t = Table::new(vec!["chips".into(), "util".into()]);
/// t.row(vec!["16".into(), "81.2%".into()]);
/// let s = t.to_string();
/// assert!(s.contains("chips"));
/// assert!(s.contains("81.2%"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells for {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl Table {
    /// Renders the table as CSV (headers + rows), quoting cells that
    /// contain commas or quotes.
    pub(crate) fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            let line: Vec<String> = row.iter().map(|c| cell(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>w$}", w = w)?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a utilization fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats an optional utilization, printing `-` for absent values.
pub fn pct_opt(x: Option<f64>) -> String {
    x.map(pct).unwrap_or_else(|| "-".to_string())
}

/// Formats seconds as engineering-friendly milliseconds.
pub fn ms(secs: f64) -> String {
    format!("{:.3} ms", secs * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["a".into(), "bbbb".into()]);
        t.row(vec!["12345".into(), "x".into()]);
        let out = t.to_string();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('a'));
        assert!(lines[2].contains("12345"));
    }

    #[test]
    #[should_panic(expected = "cells for")]
    fn mismatched_row_panics() {
        Table::new(vec!["a".into()]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_rendering_quotes_when_needed() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["1,5".into(), "plain".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"1,5\",plain\n");
    }

    #[test]
    fn csv_round_trips_through_a_file() {
        let mut t = Table::new(vec!["x".into()]);
        t.row(vec!["42".into()]);
        let path = std::env::temp_dir().join("meshslice_report_test.csv");
        t.write_csv(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n42\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.6743), "67.4%");
        assert_eq!(pct_opt(None), "-");
        assert_eq!(ms(0.0123), "12.300 ms");
    }
}
