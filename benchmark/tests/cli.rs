//! End-to-end checks of the harness through its binary: what `run.sh` and
//! the driver see. Each test is its own process tree, so the harness's
//! `chdir` into its scratch directory never races another test.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use armbar_benchmark::json::{self, Json};
use armbar_benchmark::spec::{per_layer, END_TO_END};
use armbar_benchmark::workloads::Kind;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

/// Run the harness on `workload` for one pass (`--seconds 0`), from the
/// repo root like `run.sh` does.
fn bench(workload: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_armbar-benchmark"))
        .current_dir(repo())
        .args(["--workload", workload, "--seconds", "0"])
        .args(extra)
        .output()
        .expect("the harness starts")
}

/// The result line: the last line of standard output.
fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("the run printed something");
    json::parse(last).unwrap_or_else(|e| panic!("result line `{last}`: {e}"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("armbar_bench_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn git_status() -> Option<String> {
    let out = Command::new("git")
        .args(["status", "--porcelain"])
        .current_dir(repo())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn benchmark_json_declares_what_the_harness_prints() {
    let text = fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |v: &Json, key: &str| -> Vec<String> {
        v.as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get(key).unwrap().as_str().unwrap().to_string())
            .collect()
    };

    let workloads = doc.get("workloads").unwrap();
    let names = Kind::ALL.map(|k| k.name().to_string());
    let whys = Kind::ALL.map(|k| k.why().to_string());
    assert_eq!(strings(workloads, "name"), names);
    assert_eq!(strings(workloads, "why"), whys);
    assert!(whys.iter().all(|w| w.len() <= 200 && !w.contains('\n')));

    let e2e = doc.get("end_to_end").unwrap();
    assert_eq!(strings(e2e, "name"), END_TO_END.map(|m| m.name.to_string()));
    assert_eq!(strings(e2e, "unit"), END_TO_END.map(|m| m.unit.to_string()));
    assert_eq!(
        strings(e2e, "better"),
        END_TO_END.map(|m| m.better.to_string())
    );
    for (m, declared) in END_TO_END.iter().zip(e2e.as_arr().unwrap()) {
        assert_eq!(declared.get("bound").unwrap().as_f64(), Some(m.bound));
        assert!(m.bound <= 0.25);
    }

    let layers = per_layer();
    let declared = doc.get("per_layer").unwrap();
    assert!(layers.len() <= 128);
    assert_eq!(
        strings(declared, "name"),
        layers.iter().map(|m| m.name.clone()).collect::<Vec<_>>()
    );
    assert_eq!(
        strings(declared, "unit"),
        layers
            .iter()
            .map(|m| m.unit.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        strings(declared, "better"),
        layers
            .iter()
            .map(|m| m.better.to_string())
            .collect::<Vec<_>>()
    );
    for m in &layers {
        assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{m:?}");
    }

    // --list names every workload without running anything.
    let listed = Command::new(env!("CARGO_BIN_EXE_armbar-benchmark"))
        .arg("--list")
        .output()
        .unwrap();
    let listed = String::from_utf8_lossy(&listed.stdout).into_owned();
    for kind in Kind::ALL {
        assert!(listed.contains(kind.name()), "--list lacks {}", kind.name());
    }
    assert!(listed.contains("exp:fig2") && listed.contains("case:CoRR"));
}

#[test]
fn the_seed_orders_items_but_never_changes_the_output() {
    let dir = scratch("seeds");
    for workload in ["verdict-corpus", "figures-cold"] {
        let records: Vec<Json> = [1, 2]
            .into_iter()
            .map(|seed: u32| {
                let ledger = dir.join(format!("{workload}.{seed}.jsonl"));
                let out = bench(
                    workload,
                    &[
                        "--seed",
                        &seed.to_string(),
                        "--ledger",
                        ledger.to_str().unwrap(),
                    ],
                );
                assert!(out.status.success(), "{workload} seed {seed}: {out:?}");
                json::parse(fs::read_to_string(&ledger).unwrap().trim()).unwrap()
            })
            .collect();
        for key in ["output_digest", "counts", "items_per_pass"] {
            assert_eq!(
                records[0].get(key).unwrap(),
                records[1].get(key).unwrap(),
                "{workload}: {key} depends on the seed"
            );
        }
        assert_eq!(records[0].get("failed").unwrap().as_f64(), Some(0.0));
        assert_ne!(records[0].get("seed"), records[1].get("seed"));
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_workload_leaves_the_repo_as_it_found_it() {
    let Some(before) = git_status() else {
        eprintln!("not a git checkout: nothing to compare");
        return;
    };
    for kind in Kind::ALL {
        let out = bench(kind.name(), &[]);
        assert!(out.status.success(), "{}: {out:?}", kind.name());
        let result = result_line(&out);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
        let metrics = result.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        for (name, m) in metrics {
            assert!(m.get("value").unwrap().as_f64().unwrap() > 0.0, "{name}");
        }
    }
    assert_eq!(
        git_status().unwrap(),
        before,
        "a run changed the working tree"
    );
}

#[test]
fn a_corrupted_reference_is_a_failed_operation_and_a_failed_run() {
    let refs = scratch("refs");
    for entry in fs::read_dir(repo().join("results")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "csv") {
            fs::copy(&path, refs.join(path.file_name().unwrap())).unwrap();
        }
    }
    let victim = refs.join("fig2a.csv");
    let mut bytes = fs::read(&victim).unwrap();
    let last_digit = bytes.iter().rposition(u8::is_ascii_digit).unwrap();
    bytes[last_digit] = if bytes[last_digit] == b'7' {
        b'8'
    } else {
        b'7'
    };
    fs::write(&victim, bytes).unwrap();

    let out = bench("figures-cold", &["--refs", refs.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let failed: Vec<&str> = stdout.lines().filter(|l| l.starts_with("FAILED")).collect();
    assert!(!failed.is_empty(), "{stdout}");
    for line in &failed {
        assert!(
            line.contains("figures-cold") && line.contains("exp:fig2:"),
            "{line}"
        );
        assert!(line.contains("fig2a.csv: line "), "{line}");
    }
    let result = result_line(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(
        result.get("failed").unwrap().as_f64(),
        Some(failed.len() as f64)
    );
    fs::remove_dir_all(&refs).unwrap();
}

#[test]
fn a_traced_run_prints_every_layer_metric_and_writes_a_loadable_trace() {
    let out = bench("manycore-scale", &["--trace", "1"]);
    assert!(out.status.success(), "{out:?}");
    let result = result_line(&out);
    let metrics = result.get("metrics").unwrap().as_obj().unwrap();
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared = per_layer();
    assert_eq!(
        printed,
        declared.iter().map(|m| m.name.as_str()).collect::<Vec<_>>()
    );
    let value = |name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no {name}"))
    };
    // Items cover their pass: what no item span covers is under 1 %.
    assert!(value("harness.pass_self_share") < 0.01);
    // The measured overhead of tracing is reported; a pair of passes cannot
    // resolve 2 %, so what is held to 2 % is the direct cost of every span
    // of the run, charged to its traced passes alone.
    assert!(value("harness.trace_overhead_share").is_finite());
    assert!(value("sim.machine.steps_per_kcycle") < 1000.0);
    assert!(value("analyze.lint.findings") > 0.0);

    let trace = fs::read_to_string(repo().join("benchmark/out/trace.manycore-scale.json"))
        .expect("the trace file");
    let doc = json::parse(&trace).expect("the trace is JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len() as f64, value("harness.spans"));
    let count = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some(name))
            .count()
    };
    assert_eq!(count("run"), 1);
    assert_eq!(count("probes"), 1);
    assert!(count("pass") >= 1);
    assert!(count("grid:manycore@120") >= 1);
    let mut traced_pass_us = 0.0;
    for e in events {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        let dur = e.get("dur").unwrap().as_f64().unwrap();
        assert!(dur >= 0.0);
        if e.get("name").unwrap().as_str() == Some("pass") {
            traced_pass_us += dur;
        }
    }
    let span_cost_us = value("harness.span_cost_ns") * value("harness.spans") / 1e3;
    assert!(span_cost_us < 0.02 * traced_pass_us);
}
