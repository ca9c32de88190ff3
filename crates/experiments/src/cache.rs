//! Content-addressed on-disk memoization of sweeps.
//!
//! Every sweep cell is keyed by a stable, human-readable string built from
//! the platform profile fields, the cell's simulation configuration, and a
//! code-version salt ([`CODE_SALT`]). A sweep's cells share one file named
//! by the FxHash of its key list (unkeyed, so stable across runs): the cell
//! count, every key in full — a file whose keys differ in any key or in
//! their order is a collision and misses — then per cell its value count
//! and the hex `f64` bit patterns, so a warm read returns exactly the bits
//! the cold run produced, and last a checksum of all that, so a truncated
//! or edited file misses too. A sweep hits or misses whole.
//!
//! The cache is best-effort: I/O errors and malformed files degrade to
//! recomputation, never to failure. Writes go through a uniquely named
//! temp file and a rename, so concurrent stores cannot tear a file.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use armbar_fxhash::hash64;
use armbar_sim::Platform;

/// A hash of every `.rs` file under `crates/*/src`, derived by `build.rs`;
/// every cache key embeds it, so an entry written by other code is simply
/// not found.
pub const CODE_SALT: &str = include_str!(concat!(env!("OUT_DIR"), "/code_salt"));

/// Where [`RunCache::from_env`] keeps its files.
pub const DEFAULT_CACHE_DIR: &str = "results/.cache";

/// A content-addressed store of completed sweeps.
#[derive(Debug, Default)]
pub struct RunCache {
    /// `None` disables the cache entirely.
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl RunCache {
    /// A cache rooted at `dir` (created lazily on first store).
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> RunCache {
        RunCache {
            dir: Some(dir.into()),
            ..RunCache::disabled()
        }
    }

    /// A cache that never hits and never writes.
    #[must_use]
    pub fn disabled() -> RunCache {
        RunCache::default()
    }

    /// The default cache under [`DEFAULT_CACHE_DIR`], unless the
    /// environment opts out with `ARMBAR_NO_CACHE=1`.
    #[must_use]
    pub fn from_env() -> RunCache {
        if cache_disabled_by(std::env::var("ARMBAR_NO_CACHE").ok().as_deref()) {
            RunCache::disabled()
        } else {
            RunCache::at(DEFAULT_CACHE_DIR)
        }
    }

    /// Fetch the stored values of the one-cell sweep `key`.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<Vec<f64>> {
        self.lookup_sweep(&[key.to_string()])?.pop()
    }

    /// Persist `values` as the one-cell sweep `key` (best-effort).
    pub fn store(&self, key: &str, values: &[f64]) {
        self.store_sweep(&[key.to_string()], &[values.to_vec()]);
    }

    /// The values of every cell of the sweep `keys`, in order, if a valid
    /// file holds exactly that sweep. An empty sweep has no file.
    pub(crate) fn lookup_sweep(&self, keys: &[String]) -> Option<Vec<Vec<f64>>> {
        let dir = self.dir.as_ref().filter(|_| !keys.is_empty())?;
        let found = fs::read_to_string(dir.join(file_name(keys)))
            .ok()
            .and_then(|text| parse_sweep(&text, keys));
        let cells = keys.len() as u64;
        match &found {
            Some(_) => self.hits.fetch_add(cells, Ordering::Relaxed),
            None => self.misses.fetch_add(cells, Ordering::Relaxed),
        };
        found
    }

    /// Persist `values[i]` for every `keys[i]` as one sweep file
    /// (best-effort; errors are swallowed).
    pub(crate) fn store_sweep(&self, keys: &[String], values: &[Vec<f64>]) {
        let Some(dir) = self.dir.as_ref().filter(|_| !keys.is_empty()) else {
            return;
        };
        let seq = self.stores.fetch_add(keys.len() as u64, Ordering::Relaxed);
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let name = file_name(keys);
        let tmp = dir.join(format!("{name}.{}.{seq}.tmp", std::process::id()));
        if fs::write(&tmp, render_sweep(keys, values)).is_ok()
            && fs::rename(&tmp, dir.join(name)).is_err()
        {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Cells answered from disk so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cells that fell through to computation so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cells written so far.
    #[must_use]
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }
}

/// `ARMBAR_NO_CACHE` interpretation, separated from the environment for
/// testability: anything but unset/empty/`0` opts out.
#[must_use]
pub fn cache_disabled_by(var: Option<&str>) -> bool {
    var.is_some_and(|v| !v.trim().is_empty() && v.trim() != "0")
}

/// The cache key for a platform-backed simulation cell: code salt, every
/// platform profile field (kind, topology, latency calibration), and the
/// cell's own configuration, all via their stable `Debug` forms.
#[must_use]
pub fn cache_key(platform: &Platform, config: &impl fmt::Debug) -> String {
    sanitize(&format!("{CODE_SALT}|{platform:?}|{config:?}"))
}

/// The cache key for an explorer-backed cell, which has no platform: code
/// salt, an explorer tag, and the cell configuration.
#[must_use]
pub fn model_key(config: &impl fmt::Debug) -> String {
    sanitize(&format!("{CODE_SALT}|wmm-explorer|{config:?}"))
}

/// A cell that carries text: the numbers `head`, the text's byte length,
/// then its UTF-8 bytes six to a value, big-endian (below 2^48, so every
/// value is an exact `f64`). How the corpus experiments cache the CSV rows
/// they write.
#[must_use]
pub(crate) fn pack_text(head: &[f64], text: &str) -> Vec<f64> {
    let mut cell = head.to_vec();
    cell.push(text.len() as f64);
    cell.extend(
        text.as_bytes()
            .chunks(6)
            .map(|six| six.iter().fold(0u64, |w, &b| w << 8 | u64::from(b)) as f64),
    );
    cell
}

/// Inverse of [`pack_text`]: the first `head` values and the text.
///
/// # Panics
///
/// Panics on a cell [`pack_text`] did not write with a `head` that long.
#[must_use]
pub(crate) fn unpack_text(cell: &[f64], head: usize) -> (&[f64], String) {
    let (numbers, text) = cell.split_at(head);
    let len = text[0] as usize;
    assert_eq!(text.len(), 1 + len.div_ceil(6), "malformed text cell");
    let bytes = text[1..].iter().enumerate().flat_map(|(i, &word)| {
        let n = (len - 6 * i).min(6);
        (0..n).rev().map(move |k| (word as u64 >> (8 * k)) as u8)
    });
    let text = String::from_utf8(bytes.collect()).expect("text cells hold UTF-8");
    (numbers, text)
}

/// Keys take one line each in a sweep file.
fn sanitize(key: &str) -> String {
    key.replace(['\n', '\r'], " ")
}

fn file_name(keys: &[String]) -> String {
    format!("{:016x}.sweep", hash64(keys))
}

/// The sweep file of `values[i]` for every `keys[i]`.
fn render_sweep(keys: &[String], values: &[Vec<f64>]) -> String {
    let mut body = format!("{}\n", keys.len());
    for key in keys {
        body.push_str(key);
        body.push('\n');
    }
    for cell in values {
        let _ = write!(body, "{}", cell.len());
        for v in cell {
            let _ = write!(body, " {:016x}", v.to_bits());
        }
        body.push('\n');
    }
    let sum = hash64(body.as_str());
    let _ = writeln!(body, "{sum:016x}");
    body
}

/// Inverse of [`render_sweep`]: the values in `text` if it is an intact
/// file of exactly the sweep `keys`.
fn parse_sweep(text: &str, keys: &[String]) -> Option<Vec<Vec<f64>>> {
    let hex = |word: &str| u64::from_str_radix(word, 16).ok();
    let (body, sum) = text.split_at_checked(text.len().checked_sub(17)?)?;
    if hex(sum.strip_suffix('\n')?)? != hash64(body) {
        return None;
    }
    let mut lines = body.split_terminator('\n');
    let count: usize = lines.next()?.parse().ok()?;
    if count != keys.len() || !keys.iter().all(|key| lines.next() == Some(key.as_str())) {
        return None;
    }
    let values = keys
        .iter()
        .map(|_| {
            let mut words = lines.next()?.split(' ');
            let n: usize = words.next()?.parse().ok()?;
            let cell: Vec<f64> = words
                .map(|w| hex(w).map(f64::from_bits))
                .collect::<Option<_>>()?;
            (cell.len() == n).then_some(cell)
        })
        .collect::<Option<Vec<_>>>()?;
    lines.next().is_none().then_some(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_sim::{PlatformKind, Topology};

    fn temp_cache(tag: &str) -> RunCache {
        let dir =
            std::env::temp_dir().join(format!("armbar_cache_test_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RunCache::at(dir)
    }

    fn keys(names: &[&str]) -> Vec<String> {
        names.iter().map(|k| (*k).to_string()).collect()
    }

    /// A valid file of three cells, one of them empty, one key not ASCII.
    fn sample() -> (Vec<String>, Vec<Vec<f64>>, String) {
        let keys = keys(&["cell|a", "cell|é", "cell|c"]);
        let values = vec![vec![1.5, -0.0], vec![], vec![f64::NAN, 239.3e6, 0.25]];
        let text = render_sweep(&keys, &values);
        (keys, values, text)
    }

    fn bits(values: &[Vec<f64>]) -> Vec<Vec<u64>> {
        values
            .iter()
            .map(|cell| cell.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn round_trips_exact_bits() {
        let c = temp_cache("bits");
        let vals = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-300, 239.3e6];
        c.store("k", &vals);
        let back = c.lookup("k").expect("stored entry");
        assert_eq!(bits(&[back]), bits(&[vals.to_vec()]));
        assert_eq!((c.hits(), c.misses(), c.stores()), (1, 0, 1));

        let (keys, values, text) = sample();
        c.store_sweep(&keys, &values);
        let back = c.lookup_sweep(&keys).expect("stored sweep");
        assert_eq!(bits(&back), bits(&values));
        assert_eq!((c.hits(), c.misses(), c.stores()), (4, 0, 4));
        let on_disk = fs::read_to_string(c.dir.as_ref().unwrap().join(file_name(&keys)));
        assert_eq!(on_disk.ok(), Some(text));
    }

    #[test]
    fn every_truncation_is_a_miss() {
        let (keys, _, text) = sample();
        for end in 0..text.len() {
            if let Some(prefix) = text.get(..end) {
                assert_eq!(parse_sweep(prefix, &keys), None, "{prefix:?}");
            }
        }
    }

    #[test]
    fn every_flipped_hex_digit_is_a_miss() {
        let (keys, _, text) = sample();
        let mut flips = 0;
        for (at, b) in text
            .bytes()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_hexdigit())
        {
            let other = if b == b'0' { "1" } else { "0" };
            let flipped = format!("{}{other}{}", &text[..at], &text[at + 1..]);
            assert_eq!(parse_sweep(&flipped, &keys), None, "{flipped:?}");
            flips += 1;
        }
        assert!(flips > 100);
    }

    #[test]
    fn wrong_counts_and_trailing_garbage_are_misses() {
        let (keys, _, text) = sample();
        assert!(parse_sweep(&text, &keys).is_some());
        let rest = text.strip_prefix("3\n").expect("count line");
        for count in ["2", "4", "03", " 3", "3 "] {
            let recounted = format!("{count}\n{rest}");
            assert_eq!(parse_sweep(&recounted, &keys), None, "{count:?}");
        }
        for tail in ["\n", "x", " ", "0000000000000000\n", "1 3ff0000000000000\n"] {
            assert_eq!(
                parse_sweep(&format!("{text}{tail}"), &keys),
                None,
                "{tail:?}"
            );
        }
    }

    #[test]
    fn collision_and_corruption_are_misses() {
        let c = temp_cache("collide");
        let (stored, values, text) = sample();
        c.store_sweep(&stored, &values);
        // A sweep whose key list differs in one key or in order never reads
        // the stored file, even if it mapped to the same name (here it does
        // not, but the full-key check is what guards the real collision).
        let one_key = keys(&["cell|a", "cell|é", "cell|d"]);
        let reordered = keys(&["cell|é", "cell|a", "cell|c"]);
        let prefix = keys(&["cell|a", "cell|é"]);
        for other in [&one_key, &reordered, &prefix] {
            assert_eq!(parse_sweep(&text, other), None, "{other:?}");
            assert_eq!(c.lookup_sweep(other), None);
        }
        assert_eq!((c.hits(), c.misses()), (0, 8));
        // A corrupt file in place misses whole, counted per cell.
        let path = c.dir.as_ref().unwrap().join(file_name(&stored));
        fs::write(&path, text.replace("3ff8", "3ff9")).unwrap();
        assert_eq!(c.lookup_sweep(&stored), None);
        fs::write(&path, [0xff, 0xfe, b'\n']).unwrap();
        assert_eq!(c.lookup_sweep(&stored), None);
        assert_eq!((c.hits(), c.misses(), c.stores()), (0, 14, 3));
    }

    #[test]
    fn an_empty_sweep_has_no_file() {
        let c = temp_cache("empty");
        c.store_sweep(&[], &[]);
        assert_eq!(c.lookup_sweep(&[]), None);
        assert_eq!((c.hits(), c.misses(), c.stores()), (0, 0, 0));
        assert!(!c.dir.as_ref().unwrap().exists());
    }

    #[test]
    fn text_cells_round_trip() {
        let label = "T0#4 DSB full->DMB full + T1#56 DMB st->-";
        let mut texts: Vec<String> = (0..=13).map(|n| "abcdefghijklm"[..n].to_string()).collect();
        texts.extend([
            label.to_string(),
            "é→ß,\"q\"\n".to_string(),
            "\0\0\0".to_string(),
        ]);
        for head in [&[][..], &[3.0, -172.0, 0.5]] {
            for text in &texts {
                let cell = pack_text(head, text);
                assert_eq!(cell.len(), head.len() + 1 + text.len().div_ceil(6));
                let words = &cell[head.len()..];
                assert!(words.iter().all(|w| w.fract() == 0.0 && *w < 2f64.powi(48)));
                let (numbers, back) = unpack_text(&cell, head.len());
                assert_eq!((numbers, back.as_str()), (head, text.as_str()));
            }
        }
    }

    #[test]
    fn disabled_cache_never_hits_or_writes() {
        let c = RunCache::disabled();
        c.store("k", &[1.0]);
        assert_eq!(c.lookup("k"), None);
        assert_eq!((c.hits(), c.misses(), c.stores()), (0, 0, 0));
    }

    #[test]
    fn no_cache_var_interpretation() {
        assert!(!cache_disabled_by(None));
        assert!(!cache_disabled_by(Some("")));
        assert!(!cache_disabled_by(Some("0")));
        assert!(cache_disabled_by(Some("1")));
        assert!(cache_disabled_by(Some("yes")));
    }

    #[test]
    fn keys_embed_salt_platform_and_config() {
        let k = cache_key(&Platform::kunpeng916(), &("fig", 3));
        let hash = CODE_SALT
            .strip_prefix("armbar-sweep-")
            .expect("derived salt");
        assert!(hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()));
        assert!(k.starts_with(CODE_SALT));
        assert!(k.contains("Kunpeng916"));
        assert!(k.contains("(\"fig\", 3)"));
        assert!(!k.contains('\n'));
        assert_ne!(k, cache_key(&Platform::kirin960(), &("fig", 3)));
        assert_ne!(model_key(&1), model_key(&2));
    }

    #[test]
    fn platform_keys_stay_under_a_kilobyte() {
        let platforms = PlatformKind::ALL.map(Platform::of);
        for p in platforms.iter().chain([&Platform::manycore(1024)]) {
            let k = cache_key(p, &("fig", 3));
            assert!(k.len() < 1024, "{} bytes: {k}", k.len());
        }
    }

    #[test]
    fn topologies_print_alike_iff_equal() {
        let topologies = [
            Platform::kunpeng916().topology,
            Topology::uniform(2, 8, 4),
            Topology::uniform(16, 8, 8),
            Topology::new(&[&[4, 4], &[4, 4]]),
            Topology::new(&[&[4, 4, 4, 4]]),
            Topology::new(&[&[8]]),
            Topology::new(&[&[4, 4]]),
        ];
        assert_eq!(format!("{:?}", topologies[3]), "Topology[[4, 4], [4, 4]]");
        for a in &topologies {
            for b in &topologies {
                assert_eq!(
                    format!("{a:?}") == format!("{b:?}"),
                    a == b,
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn model_flags_change_the_key() {
        let base = Platform::kunpeng916();
        let key = |p: &Platform| cache_key(p, &("fig", 3));
        let mut rob = base.clone();
        rob.latency.dmb_holds_rob = !rob.latency.dmb_holds_rob;
        let mut sb = base.clone();
        sb.latency.fifo_store_buffer = !sb.latency.fifo_store_buffer;
        assert_ne!(key(&rob), key(&base));
        assert_ne!(key(&sb), key(&base));
        assert_ne!(key(&rob), key(&sb));
    }
}
