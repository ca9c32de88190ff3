//! Content-addressed on-disk memoization of sweep cells.
//!
//! Every sweep cell is keyed by a stable, human-readable string built from
//! the platform profile fields, the cell's simulation configuration, and a
//! code-version salt ([`CODE_SALT`]). The cache file name is the FxHash of
//! that key (the hasher is unkeyed, so hashes are stable across runs); the
//! file stores the full key on its first line — a lookup whose stored key
//! does not match is treated as a hash collision and ignored — followed by
//! one value per line as the hex `f64` bit pattern, so a warm read returns
//! exactly the bits the cold run produced.
//!
//! The cache is best-effort: I/O errors degrade to recomputation, never to
//! failure. Writes go through a uniquely named temp file and a rename, so
//! concurrent workers storing the same key cannot tear each other's files.

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

/// A content-addressed store of completed sweep-cell results.
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

    /// Fetch the stored values for `key`, if a valid entry exists.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<Vec<f64>> {
        let dir = self.dir.as_ref()?;
        let found = fs::read_to_string(dir.join(file_name(key)))
            .ok()
            .and_then(|text| parse_entry(&text, key));
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Persist `values` under `key` (best-effort; errors are swallowed).
    pub fn store(&self, key: &str, values: &[f64]) {
        let Some(dir) = &self.dir else { return };
        let seq = self.stores.fetch_add(1, Ordering::Relaxed);
        let mut body = String::with_capacity(key.len() + 1 + 17 * values.len());
        body.push_str(key);
        body.push('\n');
        for v in values {
            let _ = writeln!(body, "{:016x}", v.to_bits());
        }
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let name = file_name(key);
        let tmp = dir.join(format!("{name}.{}.{seq}.tmp", std::process::id()));
        if fs::write(&tmp, body).is_ok() && fs::rename(&tmp, dir.join(name)).is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Lookups answered from disk so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to computation so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries written so far.
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

/// Keys live on the first line of a cache entry, so they must be one line.
fn sanitize(key: &str) -> String {
    key.replace(['\n', '\r'], " ")
}

fn file_name(key: &str) -> String {
    format!("{:016x}.run", hash64(key))
}

/// First line must be the full key (collision check); every further line
/// is one `f64` as 16 hex digits of its bit pattern.
fn parse_entry(text: &str, key: &str) -> Option<Vec<f64>> {
    let mut lines = text.lines();
    if lines.next() != Some(key) {
        return None;
    }
    lines
        .map(|l| u64::from_str_radix(l, 16).ok().map(f64::from_bits))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> RunCache {
        let dir =
            std::env::temp_dir().join(format!("armbar_cache_test_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RunCache::at(dir)
    }

    #[test]
    fn round_trips_exact_bits() {
        let c = temp_cache("bits");
        let vals = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-300, 239.3e6];
        c.store("k", &vals);
        let back = c.lookup("k").expect("stored entry");
        assert_eq!(back.len(), vals.len());
        for (a, b) in back.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!((c.hits(), c.misses(), c.stores()), (1, 0, 1));
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
    fn collision_and_corruption_are_misses() {
        let c = temp_cache("collide");
        c.store("key-a", &[1.0]);
        // A different key never reads key-a's entry, even if it mapped to
        // the same file (here it does not, but the full-key check is what
        // guards the real collision case).
        assert_eq!(c.lookup("key-b"), None);
        // Corrupt value lines are rejected wholesale.
        assert_eq!(parse_entry("k\nnot-hex\n", "k"), None);
        assert_eq!(parse_entry("other\n3ff0000000000000\n", "k"), None);
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
}
