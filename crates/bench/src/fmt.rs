//! Fixed-width table rendering for the `repro` binary.

/// A simple fixed-width table printer.
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub(crate) fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with per-column widths.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<w$} ", c, w = widths[i]));
                line.push_str("| ");
            }
            line.pop();
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 3 * cols + 1;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format seconds in engineering notation like the paper ("7.3e-4").
pub(crate) fn sci(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    format!("{x:.1e}")
}

/// Format a large count with engineering suffixes (25K, 298M, 4.2B).
pub(crate) fn count(x: u64) -> String {
    let xf = x as f64;
    if xf >= 1e9 {
        format!("{:.1}B", xf / 1e9)
    } else if xf >= 1e6 {
        format!("{:.0}M", xf / 1e6)
    } else if xf >= 1e3 {
        format!("{:.0}K", xf / 1e3)
    } else {
        format!("{x}")
    }
}

/// Format FLOP/s with P/E suffixes.
pub(crate) fn flops(x: f64) -> String {
    if x >= 1e18 {
        format!("{:.1} EFLOPS", x / 1e18)
    } else if x >= 1e15 {
        format!("{:.0} PFLOPS", x / 1e15)
    } else {
        format!("{:.1} TFLOPS", x / 1e12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long_header"));
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(count(24_576), "25K");
        assert_eq!(count(298_000_000), "298M");
        assert_eq!(count(4_200_000_000), "4.2B");
        assert_eq!(sci(7.3e-4), "7.3e-4");
        assert!(flops(1.8e18).contains("EFLOPS"));
        assert!(flops(363e15).contains("PFLOPS"));
    }
}
