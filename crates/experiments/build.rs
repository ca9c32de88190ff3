//! Derive the run cache's code salt from the code it memoizes: FNV-1a over
//! the path and bytes of every `.rs` file under `crates/*/src`, walked in
//! sorted order. Any source edit in any crate changes the salt, so stale
//! cache entries stop being found without a hand-bumped version tag.

use std::fs;
use std::path::{Path, PathBuf};

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let crates = Path::new(&manifest).join("..");
    let mut crate_dirs = read_sorted(&crates);
    crate_dirs.retain(|dir| dir.join("src").is_dir());
    let mut files = Vec::new();
    for dir in crate_dirs {
        rust_files(&dir.join("src"), &mut files);
    }
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for path in files {
        let relative = path.strip_prefix(&crates).expect("walked under crates/");
        let text = fs::read(&path).expect("readable source file");
        for &byte in relative.to_string_lossy().as_bytes().iter().chain(&text) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let out = std::env::var("OUT_DIR").expect("cargo sets OUT_DIR");
    fs::write(
        Path::new(&out).join("code_salt"),
        format!("armbar-sweep-{hash:016x}"),
    )
    .expect("writable OUT_DIR");
}

/// The entries of `dir`, sorted by path.
fn read_sorted(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .expect("readable source directory")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    paths.sort();
    paths
}

/// Every `.rs` file under `dir`, in sorted pre-order; cargo reruns this
/// script when anything under a walked directory changes.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    println!("cargo:rerun-if-changed={}", dir.display());
    for path in read_sorted(dir) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}
