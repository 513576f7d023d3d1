//! Plain-text experiment tables and CSV series.
//!
//! The benchmark harness prints one table per theorem (predicted bound vs
//! measured value across a parameter sweep); [`Table`] does the column
//! sizing, [`Table::to_csv`] emits the same data for plotting and
//! [`Table::to_markdown`] as a pipe table.

use std::fmt::Write as _;

/// A simple right-aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: append a row of `Display` values.
    pub fn row_display<T: std::fmt::Display>(&mut self, cells: &[T]) -> &mut Self {
        let v: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&v)
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let line: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!(" {c:>w$} "))
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let _ = writeln!(out, "{line}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        let _ = writeln!(out, "{line}");
        out
    }

    /// Render as CSV (header row + data rows; fields quoted only when
    /// needed).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(esc).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Render as a GitHub-flavoured pipe table (header, separator, data
    /// rows; `|` inside a cell is escaped so it cannot split the cell).
    pub fn to_markdown(&self) -> String {
        let md_row = |cells: &[String]| -> String {
            let cells: Vec<String> = cells.iter().map(|c| c.replace('|', "\\|")).collect();
            format!("| {} |\n", cells.join(" | "))
        };
        let mut out = md_row(&self.headers);
        let _ = writeln!(out, "|{}", "---|".repeat(self.headers.len()));
        for row in &self.rows {
            out.push_str(&md_row(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["N", "bound", "measured"]);
        t.row_display(&[8, 56, 57]).row_display(&[1024, 7168, 7169]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("1024"));
        // All data lines have the same length.
        let lens: std::collections::BTreeSet<usize> = s.lines().skip(1).map(|l| l.len()).collect();
        assert_eq!(lens.len(), 1, "{s}");
    }

    #[test]
    fn csv_escapes_when_needed() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["hello, world".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\",plain"));
    }

    #[test]
    fn markdown_keeps_one_cell_per_column() {
        let mut t = Table::new("x", &["a, b", "c"]);
        t.row(&["hello, world".into(), "p|q".into()]);
        assert_eq!(
            t.to_markdown(),
            "| a, b | c |\n|---|---|\n| hello, world | p\\|q |\n"
        );
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_enforced() {
        Table::new("x", &["a"]).row(&["1".into(), "2".into()]);
    }
}
