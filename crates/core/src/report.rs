//! Plain-text tables and CSV output for the experiment binaries.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (printed above).
    pub title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell accessor (row, column).
    #[expect(clippy::indexing_slicing, reason = "contract: r < len(), c < width")]
    pub fn cell(&self, r: usize, c: usize) -> &str {
        &self.rows[r][c]
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Row accessor.
    #[expect(clippy::indexing_slicing, reason = "accessor contract: r < len()")]
    pub fn row_cells(&self, r: usize) -> &[String] {
        &self.rows[r]
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (c, &w) in cells.iter().zip(widths) {
                let _ = write!(s, "{c:<w$}  ");
            }
            s.trim_end().to_owned()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Serializes as CSV (RFC-4180-ish quoting for commas/quotes).
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Parses what [`Table::to_csv`] wrote (header line, then rows).
    pub fn from_csv(title: &str, csv: &str) -> Result<Table, String> {
        let mut records = Vec::new();
        let mut record = Vec::new();
        let mut cell = String::new();
        let mut quoted = false;
        let mut chars = csv.chars().peekable();
        while let Some(ch) = chars.next() {
            match ch {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    chars.next();
                    cell.push('"');
                }
                '"' => quoted = !quoted,
                ',' if !quoted => record.push(std::mem::take(&mut cell)),
                '\n' if !quoted => {
                    record.push(std::mem::take(&mut cell));
                    records.push(std::mem::take(&mut record));
                }
                _ => cell.push(ch),
            }
        }
        if quoted || !cell.is_empty() || !record.is_empty() {
            return Err("unterminated last record".to_owned());
        }
        let mut records = records.into_iter();
        let header = records.next().ok_or("no header line")?;
        let mut table = Table {
            title: title.to_owned(),
            header,
            rows: Vec::new(),
        };
        for (i, row) in records.enumerate() {
            if row.len() != table.header.len() {
                return Err(format!("row {i} has {} cells", row.len()));
            }
            table.rows.push(row);
        }
        Ok(table)
    }

    /// Renders the table as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let line = |cells: &[String]| {
            let cells: Vec<String> = cells.iter().map(|c| c.replace('|', "\\|")).collect();
            format!("| {} |\n", cells.join(" | "))
        };
        let mut out = line(&self.header);
        out.push_str(&format!("|{}\n", "---|".repeat(self.header.len())));
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }

    /// Writes the CSV next to the experiment binaries' output directory.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(dir) = path.as_ref().parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Renders the one-line pointer the experiment binaries print for every
/// artifact they write (CSV, RunReport JSON, trace JSONL), so a run's
/// output always names the files it produced.
pub fn artifact_line(kind: &str, path: &Path) -> String {
    format!("({kind} written to {})", path.display())
}

/// Formats a float with sensible precision for tables.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1_000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "count"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("longer-name"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_quotes_specials() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["x,y".into(), "plain".into()]);
        t.row(&["he said \"hi\"".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn artifact_line_names_the_path() {
        let line = artifact_line("csv", Path::new("results/out.csv"));
        assert_eq!(line, "(csv written to results/out.csv)");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(std::f64::consts::PI), "3.142");
        assert_eq!(f(42.5), "42.5");
        assert_eq!(f(1234.56), "1235");
        assert_eq!(pct(0.4057), "40.57%");
    }

    #[test]
    fn from_csv_inverts_to_csv() {
        let mut t = Table::new("t", &["a", "b,c"]);
        t.row(&["x,y".into(), "plain".into()]);
        t.row(&["he said \"hi\"".into(), "two\nlines".into()]);
        t.row(&["".into(), "".into()]);
        let back = Table::from_csv("t", &t.to_csv()).unwrap();
        assert_eq!(back.header(), t.header());
        assert_eq!(back.rows, t.rows);
        assert!(Table::from_csv("t", "").is_err());
        assert!(Table::from_csv("t", "a,b\n1\n").is_err());
        assert!(Table::from_csv("t", "a,b\n1,\"2\n").is_err());
    }

    #[test]
    fn markdown_escapes_pipes() {
        let mut t = Table::new("t", &["k", "v"]);
        t.row(&["a|b".into(), "1".into()]);
        assert_eq!(t.to_markdown(), "| k | v |\n|---|---|\n| a\\|b | 1 |\n");
    }

    #[test]
    fn write_csv_roundtrip() {
        let mut t = Table::new("t", &["x"]);
        t.row(&["1".into()]);
        let path = std::env::temp_dir().join("uap_report_test/out.csv");
        t.write_csv(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "x\n1\n");
        let _ = std::fs::remove_file(path);
    }
}
