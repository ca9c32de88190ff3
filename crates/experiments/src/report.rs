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

    /// Write [`Table::csv`] as `<dir>/<id>.csv` ([`write_if_changed`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        write_if_changed(&dir.as_ref().join(format!("{}.csv", self.id)), &self.csv())
    }
}

/// Write `text` to `path`, creating its directory, unless the file already
/// holds exactly these bytes: a regeneration that changes nothing leaves
/// the file, its mtime and `git status` alone.
pub(crate) fn write_if_changed(path: &Path, text: &str) -> io::Result<()> {
    if fs::read(path).is_ok_and(|old| old == text.as_bytes()) {
        return Ok(());
    }
    path.parent().map_or(Ok(()), fs::create_dir_all)?;
    fs::write(path, text)
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
    use crate::SweepCtx;
    use std::time::{Duration, SystemTime};

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

    /// A fresh directory holding `table`'s CSV, with its mtime set a day
    /// back so that a rewrite cannot land on the same timestamp.
    fn written(tag: &str, table: &Table) -> (std::path::PathBuf, SystemTime) {
        let dir = std::env::temp_dir().join(format!("armbar_report_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        table.write_csv(&dir).unwrap();
        let path = dir.join(format!("{}.csv", table.id));
        let old = SystemTime::now() - Duration::from_secs(86_400);
        fs::File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_modified(old))
            .unwrap();
        (path, old)
    }

    fn mtime(path: &Path) -> SystemTime {
        fs::metadata(path).and_then(|m| m.modified()).unwrap()
    }

    #[test]
    fn unchanged_csvs_are_left_alone() {
        let table = sample();
        let (path, old) = written("same", &table);
        table.write_csv(path.parent().unwrap()).unwrap();
        assert_eq!(mtime(&path), old);
        assert_eq!(fs::read_to_string(&path).unwrap(), table.csv());
    }

    #[test]
    fn changed_or_truncated_csvs_are_rewritten() {
        let mut table = sample();
        let (path, old) = written("changed", &table);
        table.push_row("DMB st", vec![1.0, 2.0]);
        table.write_csv(path.parent().unwrap()).unwrap();
        assert_ne!(mtime(&path), old);
        assert_eq!(fs::read_to_string(&path).unwrap(), table.csv());

        let (path, old) = written("truncated", &table);
        let csv = table.csv();
        fs::write(&path, &csv[..csv.len() - 1]).unwrap();
        table.write_csv(path.parent().unwrap()).unwrap();
        assert_ne!(mtime(&path), old);
        assert_eq!(fs::read_to_string(&path).unwrap(), csv);
    }

    #[test]
    fn side_csvs_share_the_writer_and_count_failures() {
        let (path, old) = written("side", &sample());
        let ctx = SweepCtx::serial_uncached();
        // An absolute `file` replaces the `results/` prefix it is joined to,
        // which keeps the test out of the crate directory.
        let file = path.to_str().unwrap();
        ctx.write_side_csv(file, &sample().csv());
        assert_eq!((mtime(&path), ctx.unwritten()), (old, 0));
        ctx.write_side_csv(file, "changed\n");
        assert_eq!(fs::read_to_string(&path).unwrap(), "changed\n");
        // Below a file, not a directory: the write fails and is counted.
        ctx.write_side_csv(&format!("{file}/below.csv"), "x\n");
        assert_eq!(ctx.unwritten(), 1);
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
