//! Minimal ASCII charts for terminal-first reporting.
//!
//! The experiment tables carry the exact numbers; these charts carry the
//! *shape* — the linear wall of E2/E12, the trade-off knee of E18 — in a
//! form that survives a plain terminal, a CI log, or a pasted issue.

use std::fmt::Write as _;

/// An XY line/scatter chart rendered with unicode-free ASCII.
#[derive(Clone, Debug)]
pub struct AsciiChart {
    title: String,
    points: Vec<(f64, f64)>,
    width: usize,
    height: usize,
}

impl AsciiChart {
    /// A chart of the given canvas size (columns × rows of the plot area).
    pub fn new(title: impl Into<String>, width: usize, height: usize) -> Self {
        AsciiChart {
            title: title.into(),
            points: Vec::new(),
            width: width.max(8),
            height: height.max(4),
        }
    }

    /// Add a data point.
    pub fn point(&mut self, x: f64, y: f64) -> &mut Self {
        assert!(x.is_finite() && y.is_finite(), "points must be finite");
        self.points.push((x, y));
        self
    }

    /// Render the chart. Empty charts render the title only.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        if self.points.is_empty() {
            return out;
        }
        let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for &(x, y) in &self.points {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        let xr = (x1 - x0).max(f64::EPSILON);
        let yr = (y1 - y0).max(f64::EPSILON);
        let mut grid = vec![vec![b' '; self.width]; self.height];
        for &(x, y) in &self.points {
            let cx = (((x - x0) / xr) * (self.width - 1) as f64).round() as usize;
            let cy = (((y - y0) / yr) * (self.height - 1) as f64).round() as usize;
            grid[self.height - 1 - cy][cx] = b'*';
        }
        let y_label_hi = format!("{y1:.1}");
        let y_label_lo = format!("{y0:.1}");
        let label_w = y_label_hi.len().max(y_label_lo.len());
        for (row, line) in grid.iter().enumerate() {
            let label = if row == 0 {
                &y_label_hi
            } else if row == self.height - 1 {
                &y_label_lo
            } else {
                ""
            };
            let _ = writeln!(out, "{label:>label_w$} |{}", String::from_utf8_lossy(line));
        }
        let _ = writeln!(out, "{:label_w$} +{}", "", "-".repeat(self.width));
        let _ = writeln!(
            out,
            "{:label_w$}  {:<w2$}{:>w2$}",
            "",
            format!("{x0:.0}"),
            format!("{x1:.0}"),
            w2 = self.width / 2
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_line() {
        let mut c = AsciiChart::new("linear growth", 20, 6);
        for i in 0..10 {
            c.point(i as f64, 3.0 * i as f64);
        }
        let s = c.render();
        assert!(s.contains("linear growth"));
        assert!(s.contains('*'));
        assert!(s.contains("27.0"), "max label missing:\n{s}");
        assert!(s.contains("0.0"), "min label missing:\n{s}");
        // Monotone data: the topmost row's star is to the right of the
        // bottommost row's star.
        let rows: Vec<&str> = s.lines().filter(|l| l.contains('|')).collect();
        let top = rows.first().unwrap().find('*');
        let bottom = rows.last().unwrap().find('*');
        assert!(top > bottom, "shape inverted:\n{s}");
    }

    #[test]
    fn empty_chart_is_title_only() {
        let c = AsciiChart::new("empty", 10, 4);
        assert_eq!(c.render(), "empty\n");
    }

    #[test]
    fn single_point_does_not_panic() {
        let mut c = AsciiChart::new("dot", 10, 4);
        c.point(5.0, 5.0);
        assert!(c.render().contains('*'));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        AsciiChart::new("bad", 10, 4).point(f64::NAN, 0.0);
    }
}
