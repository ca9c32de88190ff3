//! The `armbar` binary end to end: exit codes (0 ok, 1 a gate failed or an
//! output was not written, 2 nothing matched), the `run` output layout,
//! and `verify` against a reference that is right and one that is not.
//!
//! Every invocation runs in a scratch directory of its own: the binary
//! reads and writes `results/` relative to where it is started.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use armbar_experiments::EXPERIMENTS;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("armbar_cli_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn armbar(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_armbar"))
        .args(args)
        .current_dir(dir)
        .env_remove("ARMBAR_JOBS")
        .env_remove("ARMBAR_NO_CACHE")
        .env_remove("ARMBAR_TRACE")
        .output()
        .expect("armbar starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The committed `results/<file>` of this checkout.
fn committed(file: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn list_prints_every_registry_id() {
    let out = armbar(&scratch("list"), &["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let ids: Vec<&str> = stdout.lines().collect();
    let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids, registry);
}

#[test]
fn unknown_id_exits_2_with_one_line_listing_the_valid_ids() {
    for command in ["run", "verify"] {
        let out = armbar(&scratch(&format!("unknown_{command}")), &[command, "fig99"]);
        assert_eq!(out.status.code(), Some(2), "{command} fig99");
        let err = stderr(&out);
        assert_eq!(err.lines().count(), 1, "no backtrace, one line: {err}");
        assert!(err.contains("fig99") && err.contains("table1") && err.contains("dlock"));
    }
}

#[test]
fn no_command_and_unknown_commands_exit_2_with_usage() {
    let dir = scratch("usage");
    let cases: [&[&str]; 4] = [&[], &["frobnicate"], &["run"], &["bench", "everything"]];
    for args in cases {
        let out = armbar(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("usage: armbar"), "{args:?}");
    }
}

#[test]
fn verifying_a_host_timed_experiment_exits_2() {
    let out = armbar(&scratch("host"), &["verify", "fig6d"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("fig6d"));
}

#[test]
fn run_prints_the_banner_layout_and_writes_the_reference_bytes() {
    let dir = scratch("run");
    let out = armbar(&dir, &["run", "table1", "table3"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in [
        "\n########## table1 ##########\n",
        "[table1 took ",
        "\n########## table3 ##########\n",
        "\narmbar run: ",
        "cache: 0 hit(s), 7 miss(es), 7 store(s)",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    for file in ["table1.csv", "table3.csv"] {
        let written = fs::read(dir.join("results").join(file)).expect("CSV written");
        assert_eq!(written, committed(file), "{file}");
    }
}

/// The silent-stale-reference bug: with `results` unwritable the old
/// wrappers warned and exited 0, leaving the previous CSV in place.
#[test]
fn run_exits_1_naming_the_file_when_results_is_not_a_directory() {
    let dir = scratch("unwritable");
    fs::write(dir.join("results"), "in the way").unwrap();
    let out = armbar(&dir, &["run", "table1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("results/table1.csv"),
        "{}",
        stderr(&out)
    );

    // The CSVs that bypass `Table` are held to the same rule.
    let out = armbar(&dir, &["run", "extract"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("results/extract.csv"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn verify_passes_on_the_committed_reference_and_names_a_flipped_byte() {
    let dir = scratch("verify");
    let results = dir.join("results");
    fs::create_dir_all(&results).unwrap();
    let reference = committed("table1.csv");
    fs::write(results.join("table1.csv"), &reference).unwrap();

    let out = armbar(&dir, &["verify", "table1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(fs::read(results.join("table1.csv")).unwrap(), reference);
    assert!(
        !results.join(".cache").exists(),
        "verify uses its own cache"
    );

    // Flip the last byte of line 2 ("…,1" -> "…,0").
    let mut flipped = reference.clone();
    let line2_end = flipped
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(1)
        .map(|(i, _)| i)
        .expect("table1.csv has two lines");
    assert_eq!(flipped[line2_end - 1], b'1');
    flipped[line2_end - 1] = b'0';
    fs::write(results.join("table1.csv"), &flipped).unwrap();

    let out = armbar(&dir, &["verify", "table1"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("results/table1.csv: line 2 differs"), "{err}");
    assert!(err.contains("verify failed for table1"), "{err}");
}
