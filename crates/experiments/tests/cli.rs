//! The `armbar` binary end to end: exit codes (0 ok, 1 a gate failed, an
//! output was not written or the analyzer found work, 2 nothing matched,
//! 3 an assembly file could not be read or lifted, or re-reads its own
//! store), the `run` output
//! layout, `verify` against a reference that is right and one that is
//! not, and `lint`/`synth`/`lift` on the corpus and on real `.s` files.
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

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `rel` of this checkout (the binary runs in a scratch directory).
fn repo_path(rel: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.join(rel).to_string_lossy().into_owned()
}

/// The committed `results/<file>` of this checkout.
fn committed(file: &str) -> Vec<u8> {
    let path = repo_path(&format!("results/{file}"));
    fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn list_prints_every_registry_id() {
    let out = armbar(&scratch("list"), &["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = stdout(&out);
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
    let cases: [&[&str]; 4] = [&[], &["frobnicate"], &["run"], &["bench", "sim"]];
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
    let stdout = stdout(&out);
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

#[test]
fn linting_the_ticket_fixture_finds_the_seeded_overstrong_fence() {
    let fixture = repo_path("corpus/asm/ticket_lock.s");
    let out = armbar(&scratch("lint_ticket"), &["lint", &fixture]);
    let stdout = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded fixture must yield an actionable finding; stdout:\n{stdout}"
    );
    assert!(stdout.contains("lifted"), "missing lift banner:\n{stdout}");
    assert!(
        stdout.contains("DSB st") && stdout.contains("use DMB st"),
        "expected the over-strong DSB st downgrade:\n{stdout}"
    );
    assert!(
        stdout.contains("symbol grant @ m62"),
        "expected the symbol map in the report:\n{stdout}"
    );
}

#[test]
fn malformed_asm_exits_3_with_line_and_col() {
    let fixture = repo_path("corpus/asm/bad/unbounded_loop.s");
    let out = armbar(&scratch("lint_bad"), &["lint", &fixture]);
    assert_eq!(out.status.code(), Some(3));
    let err = stderr(&out);
    assert!(
        err.contains("unbounded_loop.s:9:5:"),
        "expected path:line:col diagnostic, got:\n{err}"
    );
    assert!(err.contains("unbounded loop"), "{err}");
}

#[test]
fn missing_file_exits_3() {
    for command in ["lint", "lift"] {
        let out = armbar(
            &scratch(&format!("missing_{command}")),
            &[command, "definitely_missing_file.s"],
        );
        assert_eq!(out.status.code(), Some(3), "{command}");
        assert!(stderr(&out).contains("cannot read file"), "{command}");
    }
}

#[test]
fn empty_corpus_filter_exits_2() {
    for command in ["lint", "synth"] {
        let out = armbar(
            &scratch(&format!("nomatch_{command}")),
            &[command, "no-such-corpus-case-substring"],
        );
        assert_eq!(out.status.code(), Some(2), "{command}");
    }
}

#[test]
fn synth_exits_1_when_a_case_has_a_cheaper_placement() {
    let out = armbar(&scratch("synth_mp"), &["synth", "MP"]);
    let stdout = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("with cheaper placements"), "{stdout}");
    assert!(stdout.contains("front: "), "{stdout}");
}

#[test]
fn lift_prints_the_symbol_map_and_the_recovered_program() {
    let fixture = repo_path("corpus/asm/ticket_lock.s");
    let out = armbar(&scratch("lift"), &["lift", &fixture]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = stdout(&out);
    assert!(stdout.contains("symbol grant @ m62"), "{stdout}");
    assert!(stdout.contains("T0:\n  str #20, [m1]\n"), "{stdout}");
    assert!(stdout.contains("\n  dsb ishst\n"), "{stdout}");
}

/// `str x; ldr x; dmb ishld; ldr y` against its mirror: ARMv8 lets each
/// re-read take its value from the store buffer, so SB stays reachable
/// behind the `dmb ishld` — an outcome the explorer, which does not
/// forward, would call forbidden.
const SB_RFI: &str = "\
// armbar: thread t0
// armbar: thread t1
// armbar: shared x @ 0
// armbar: shared y @ 1
t0:
    ldr x0, =x
    ldr x1, =y
    mov x2, #1
    str x2, [x0]
    ldr x3, [x0]
    dmb ishld
    ldr x4, [x1]
    ret
t1:
    ldr x0, =x
    ldr x1, =y
    mov x2, #1
    str x2, [x1]
    ldr x3, [x1]
    dmb ishld
    ldr x4, [x0]
    ret
";

#[test]
fn a_thread_re_reading_its_own_store_is_rejected_naming_both_instructions() {
    let dir = scratch("forwarding");
    let fixture = dir.join("sb_rfi.s");
    fs::write(&fixture, SB_RFI).expect("fixture");
    let fixture = fixture.to_string_lossy().into_owned();
    for command in ["lift", "lint"] {
        let out = armbar(&dir, &[command, &fixture]);
        assert_eq!(out.status.code(), Some(3), "{command}: {}", stdout(&out));
        let err = stderr(&out);
        assert!(
            err.starts_with(&format!("{fixture}: T0: ")),
            "{command}: {err}"
        );
        assert!(err.contains("`ldr r"), "{command}: {err}");
        assert!(err.contains(", [m0]` reads m0 after"), "{command}: {err}");
        assert!(
            err.contains("`str #1, [m0]` stored to it"),
            "{command}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "the first offender only: {err}");
        assert!(
            stdout(&out).is_empty(),
            "nothing is lifted: {}",
            stdout(&out)
        );
    }
}
