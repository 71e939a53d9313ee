//! Plain-text result tables in the style of the paper's tables.

use std::fmt;

/// A simple fixed-width text table.
///
/// # Example
///
/// ```
/// use metrics::Table;
///
/// let mut t = Table::new(["load", "d (ms)", "sigma_d (ms)"]);
/// t.row(["0.60", "33.0", "0.0"]);
/// t.row(["0.90", "35.2", "4.7"]);
/// let s = t.to_string();
/// assert!(s.contains("load"));
/// assert!(s.contains("35.2"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a caption printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Table {
        self.title = Some(title.into());
        self
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Formats a float with three significant decimals, mapping `NaN` to
    /// `"-"` (used for saturated / absent measurements, like the paper's
    /// "Sat." cells).
    pub fn num(x: f64) -> String {
        if x.is_nan() {
            "-".to_string()
        } else {
            format!("{x:.3}")
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        if let Some(title) = &self.title {
            writeln!(f, "{title}")?;
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["a", "bbbb"]).with_title("T");
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "T");
        assert!(lines[1].contains('a') && lines[1].contains("bbbb"));
        assert!(lines[2].starts_with('-'));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn num_formats() {
        assert_eq!(Table::num(1.23456), "1.235");
        assert_eq!(Table::num(f64::NAN), "-");
    }

    #[test]
    #[should_panic(expected = "cells but the table has")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }
}
