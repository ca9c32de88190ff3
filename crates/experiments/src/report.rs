//! Paper-style result tables: fixed-width terminal rendering plus CSV.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Where the binaries write every CSV, relative to the current directory.
pub const RESULTS_DIR: &str = "results";

/// One result table: a grid of numbers with row and column labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Identifier used for the CSV file name, e.g. `fig3a`.
    pub id: String,
    /// Human title, e.g. the figure caption.
    pub title: String,
    /// What the columns sweep (e.g. `nops`).
    pub col_label: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// `(series label, one value per column)`.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Unit note shown under the title (e.g. `10^6 loops/s`).
    pub unit: String,
}

impl Table {
    /// Empty table with headers.
    #[must_use]
    pub fn new(id: &str, title: &str, col_label: &str, columns: Vec<String>, unit: &str) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            col_label: col_label.to_string(),
            columns,
            rows: Vec::new(),
            unit: unit.to_string(),
        }
    }

    /// Append a series.
    ///
    /// # Panics
    ///
    /// Panics when the value count does not match the column count.
    pub fn push_row(&mut self, label: &str, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push((label.to_string(), values));
    }

    /// Append a series of *shares*: `raw` is normalized so the row sums
    /// to one. A row whose raw values sum to zero (e.g. a workload that
    /// never stalled) becomes all zeros rather than NaNs, so CSVs stay
    /// machine-readable.
    ///
    /// # Panics
    ///
    /// Panics when the value count does not match the column count.
    pub fn push_share_row(&mut self, label: &str, raw: &[f64]) {
        let total: f64 = raw.iter().sum();
        let shares = raw
            .iter()
            .map(|&v| if total > 0.0 { v / total } else { 0.0 })
            .collect();
        self.push_row(label, shares);
    }

    /// Render for the terminal.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} — {} [{}]", self.id, self.title, self.unit);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([self.col_label.len()])
            .max()
            .unwrap_or(8)
            .max(8);
        let col_w = self
            .columns
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(6)
            .max(9);
        let _ = write!(out, "{:label_w$}", self.col_label);
        for c in &self.columns {
            let _ = write!(out, " {c:>col_w$}");
        }
        out.push('\n');
        for (label, vals) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for v in vals {
                let _ = write!(out, " {:>col_w$}", format_value(*v));
            }
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The table as CSV text: a header line, then one line per series.
    #[must_use]
    pub fn csv(&self) -> String {
        let mut csv = String::new();
        let _ = write!(csv, "{}", escape(&self.col_label));
        for c in &self.columns {
            let _ = write!(csv, ",{}", escape(c));
        }
        csv.push('\n');
        for (label, vals) in &self.rows {
            let _ = write!(csv, "{}", escape(label));
            for v in vals {
                let _ = write!(csv, ",{v}");
            }
            csv.push('\n');
        }
        csv
    }

    /// Write [`Table::csv`] as `<dir>/<id>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        fs::create_dir_all(&dir)?;
        fs::write(dir.as_ref().join(format!("{}.csv", self.id)), self.csv())
    }
}

fn format_value(v: f64) -> String {
    if !v.is_finite() {
        return "-".to_string();
    }
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// One column per platform profile: `<prefix>_kunpeng916`, ….
pub(crate) fn platform_columns(prefix: &str) -> impl Iterator<Item = String> + '_ {
    armbar_sim::PlatformKind::ALL
        .into_iter()
        .map(move |kind| format!("{prefix}_{}", kind.name().to_lowercase().replace(' ', "_")))
}

/// Quote a CSV field that holds a comma or a quote.
pub(crate) fn escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "figX",
            "sample",
            "nops",
            vec!["10".into(), "700".into()],
            "10^6 loops/s",
        );
        t.push_row("No Barrier", vec![239.3e6, 31.49e6]);
        t.push_row("DSB full", vec![5.82e6, 8.41e6]);
        t
    }

    #[test]
    fn render_contains_all_labels() {
        let r = sample().render();
        assert!(r.contains("No Barrier"));
        assert!(r.contains("DSB full"));
        assert!(r.contains("239.30M"));
        assert!(r.contains("nops"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        sample().push_row("bad", vec![1.0]);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let dir = std::env::temp_dir().join("armbar_report_test");
        sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("figX.csv")).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("nops,10,700"));
        assert!(lines[1].starts_with("No Barrier,"));
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(1_500_000.0), "1.50M");
        assert_eq!(format_value(2_500.0), "2.5k");
        assert_eq!(format_value(42.0), "42.0");
        assert_eq!(format_value(1.234), "1.234");
        assert_eq!(format_value(f64::NAN), "-");
    }

    #[test]
    fn share_rows_normalize_and_survive_zero_totals() {
        let mut t = Table::new(
            "s",
            "shares",
            "cause",
            vec!["a".into(), "b".into()],
            "share",
        );
        t.push_share_row("hot", &[30.0, 10.0]);
        t.push_share_row("idle", &[0.0, 0.0]);
        assert_eq!(t.rows[0].1, vec![0.75, 0.25]);
        assert_eq!(t.rows[1].1, vec![0.0, 0.0]);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("q\"q"), "\"q\"\"q\"");
    }
}
