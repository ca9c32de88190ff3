//! The correctness gate: committed reference CSVs, byte comparison with the
//! first differing line, and column projection for the verdict checks.
//!
//! References are read at run time from the repo's own `results/` and are
//! never copied into the benchmark, so a later model change that
//! regenerates them stays green.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// Every `*.csv` under the reference directory, by file name.
#[derive(Debug, Clone, Default)]
pub struct References {
    files: BTreeMap<String, Vec<u8>>,
}

impl References {
    /// Read every CSV in `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; an unreadable reference directory
    /// means the benchmark cannot check anything.
    pub fn load(dir: &Path) -> io::Result<References> {
        let mut files = BTreeMap::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "csv") {
                let name = path
                    .file_name()
                    .expect("a read_dir entry has a name")
                    .to_string_lossy()
                    .into_owned();
                files.insert(name, fs::read(&path)?);
            }
        }
        if files.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no reference CSVs under {}", dir.display()),
            ));
        }
        Ok(References { files })
    }

    /// Compare `got` with the committed file `name`; `Err` says where they
    /// part.
    ///
    /// # Errors
    ///
    /// A message naming the file and the first differing line.
    pub fn compare(&self, name: &str, got: &[u8]) -> Result<(), String> {
        let Some(want) = self.files.get(name) else {
            return Err(format!("{name}: no committed reference"));
        };
        match first_diff_line(got, want) {
            None => Ok(()),
            Some((line, got, want)) => Err(format!(
                "{name}: line {line} differs: got `{got}`, reference `{want}`"
            )),
        }
    }

    /// The reference `name` as text.
    ///
    /// # Errors
    ///
    /// A message when the file is missing or not UTF-8.
    pub fn text(&self, name: &str) -> Result<&str, String> {
        let bytes = self
            .files
            .get(name)
            .ok_or_else(|| format!("{name}: no committed reference"))?;
        std::str::from_utf8(bytes).map_err(|_| format!("{name}: not UTF-8"))
    }
}

/// Where two byte strings first differ: 1-based line number plus that line
/// on each side (`<end of file>` past the shorter one). `None` when equal.
#[must_use]
pub fn first_diff_line(got: &[u8], want: &[u8]) -> Option<(usize, String, String)> {
    if got == want {
        return None;
    }
    let show = |l: Option<&[u8]>| {
        l.map_or_else(
            || "<end of file>".to_string(),
            |l| String::from_utf8_lossy(l).into_owned(),
        )
    };
    let (mut g, mut w) = (got.split(|&b| b == b'\n'), want.split(|&b| b == b'\n'));
    let mut line = 1;
    loop {
        let (a, b) = (g.next(), w.next());
        if a != b || a.is_none() {
            return Some((line, show(a), show(b)));
        }
        line += 1;
    }
}

/// Split CSV text into records of fields, honouring `"…"` quoting with
/// `""` escapes (the dialect `experiments::report` writes).
#[must_use]
pub fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    for line in text.lines() {
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut quoted = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
        fields.push(field);
        records.push(fields);
    }
    records
}

/// The data rows of `text` reduced to the named `columns`, in that order.
///
/// # Errors
///
/// A message when the header lacks one of the columns or a row is short.
pub fn project(text: &str, columns: &[&str]) -> Result<Vec<Vec<String>>, String> {
    let mut records = parse_csv(text).into_iter();
    let header = records.next().ok_or("empty CSV")?;
    let picks: Vec<usize> = columns
        .iter()
        .map(|c| {
            header
                .iter()
                .position(|h| h == c)
                .ok_or_else(|| format!("no column `{c}` in header {header:?}"))
        })
        .collect::<Result<_, _>>()?;
    records
        .map(|r| {
            picks
                .iter()
                .map(|&i| r.get(i).cloned().ok_or_else(|| format!("short row {r:?}")))
                .collect()
        })
        .collect()
}

/// Projected rows grouped by their first column (the case or test name),
/// which is dropped from the grouped rows.
#[must_use]
pub fn group_by_first(rows: Vec<Vec<String>>) -> BTreeMap<String, Vec<Vec<String>>> {
    let mut groups: BTreeMap<String, Vec<Vec<String>>> = BTreeMap::new();
    for mut row in rows {
        let key = row.remove(0);
        groups.entry(key).or_default().push(row);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINT: &str = "case,site,kind,barrier,states_base,states_after\n\
        \"MP+a,b\",T0#1,necessary,DMB st,3,4\n\
        \"MP+a,b\",T1#1,over-strong,\"say \"\"hi\"\"\",3,3\n\
        SB,-,missing,No Barrier,5,5\n";

    #[test]
    fn projection_picks_columns_by_name_and_honours_quotes() {
        let rows = project(LINT, &["case", "kind", "states_after", "barrier"]).unwrap();
        assert_eq!(
            rows,
            vec![
                vec!["MP+a,b", "necessary", "4", "DMB st"],
                vec!["MP+a,b", "over-strong", "3", "say \"hi\""],
                vec!["SB", "missing", "5", "No Barrier"],
            ]
        );
        let groups = group_by_first(rows);
        assert_eq!(groups["MP+a,b"].len(), 2);
        assert_eq!(groups["SB"], vec![vec!["missing", "5", "No Barrier"]]);
        assert!(project(LINT, &["case", "nope"])
            .unwrap_err()
            .contains("nope"));
    }

    #[test]
    fn first_diff_names_the_line() {
        assert_eq!(first_diff_line(b"a\nb\n", b"a\nb\n"), None);
        assert_eq!(
            first_diff_line(b"a\nB\nc\n", b"a\nb\nc\n"),
            Some((2, "B".into(), "b".into()))
        );
        assert_eq!(
            first_diff_line(b"a\n", b"a\nb\n"),
            Some((2, String::new(), "b".into()))
        );
        assert_eq!(
            first_diff_line(b"a", b"a\n"),
            Some((2, "<end of file>".into(), String::new()))
        );
    }

    #[test]
    fn references_compare_against_a_directory() {
        let dir = std::env::temp_dir().join(format!("armbar_bench_refs_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("fig.csv"), "x,1\ny,2\n").unwrap();
        fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let refs = References::load(&dir).unwrap();
        assert!(refs.compare("fig.csv", b"x,1\ny,2\n").is_ok());
        let err = refs.compare("fig.csv", b"x,1\ny,3\n").unwrap_err();
        assert!(err.contains("fig.csv") && err.contains("line 2"), "{err}");
        assert!(refs.compare("notes.txt", b"ignored").is_err());
        assert!(refs.text("fig.csv").unwrap().starts_with("x,1"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
