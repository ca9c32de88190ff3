//! `armbar-benchmark`: one run of one workload, `--list`, or `--compare`.
//! `benchmark/run.sh` builds and drives it.

use std::fs;
use std::io::Write as _;
use std::process::ExitCode;

use armbar_benchmark::compare::compare;
use armbar_benchmark::json::Json;
use armbar_benchmark::run::{run, RunArgs, UNVALIDATED};
use armbar_benchmark::spec::{per_layer, END_TO_END};
use armbar_benchmark::workloads::{Env, Kind};

const USAGE: &str = "usage:
  armbar-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                   [--refs DIR] [--ledger FILE]
  armbar-benchmark --list
  armbar-benchmark --compare A.jsonl B.jsonl";

/// `--flag value` pairs, in any order.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

fn list() {
    println!("# {UNVALIDATED}");
    for kind in Kind::ALL {
        let items = kind.items();
        println!("{}\n  why:   {}", kind.name(), kind.why());
        println!("  pass:  {}", kind.pass_shape());
        println!(
            "  runs:  passes are started for --seconds seconds (at least one), after the timed set-ups"
        );
        println!("  items: {} ({})", items.len(), items.join(" "));
    }
    println!("end-to-end metrics (--trace 0):");
    for m in END_TO_END {
        println!(
            "  {:<12} {:<3} {} is better, bound {:.0} %",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in per_layer() {
        println!("  {:<40} {:<9} moves {}", m.name, m.unit, m.moves);
    }
}

fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or(USAGE)?;
    let kind = Kind::from_name(name).ok_or_else(|| {
        let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload `{name}`; one of {}", names.join(", "))
    })?;
    let number = |name: &str, default: f64| -> Result<f64, String> {
        flag(args, name).map_or(Ok(default), |v| {
            v.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{name} takes a non-negative number, not `{v}`"))
        })
    };
    // The repo root: `run.sh` and the tests start the harness there.
    let repo = std::env::current_dir()
        .and_then(fs::canonicalize)
        .map_err(|e| format!("current directory: {e}"))?;
    let refs_dir = match flag(args, "--refs") {
        Some(dir) => fs::canonicalize(dir).map_err(|e| format!("{dir}: {e}"))?,
        None => repo.join("results"),
    };
    let ledger = flag(args, "--ledger").map(|p| repo.join(p));
    let run_args = RunArgs {
        kind,
        seed: number("--seed", 1.0)? as u64,
        seconds: number("--seconds", 24.0)?,
        trace: number("--trace", 0.0)? != 0.0,
        out_dir: repo.join("benchmark/out"),
        env: Env { repo, refs_dir },
    };
    println!(
        "# armbar-benchmark {} seed={} seconds={} trace={}",
        kind.name(),
        run_args.seed,
        run_args.seconds,
        u8::from(run_args.trace)
    );
    println!("# {UNVALIDATED}");
    let report = run(&run_args)?;
    for key in [
        "setup_s",
        "passes",
        "pass_s_min",
        "pass_s_p25",
        "pass_s_p50",
        "pass_s_p75",
        "items_per_pass",
        "fail_share",
        "counts",
        "output_digest",
    ] {
        if let Some(v) = report.record.get(key) {
            println!("# {key}: {}", v.render());
        }
    }
    for (name, m) in report
        .record
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
    {
        println!(
            "{name} {} {}",
            m.get("value").map(Json::render).unwrap_or_default(),
            m.get("unit").and_then(Json::as_str).unwrap_or_default()
        );
    }
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    if let Some(path) = ledger {
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{}", report.record.render()))
            .map_err(|e| format!("ledger {}: {e}", path.display()))?;
    }
    println!("{}", report.result.render());
    Ok(if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.iter().any(|a| a == "--list") {
        list();
        Ok(ExitCode::SUCCESS)
    } else if let Some(at) = args.iter().position(|a| a == "--compare") {
        match (args.get(at + 1), args.get(at + 2)) {
            (Some(a), Some(b)) => {
                let read = |p: &String| fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
                read(a)
                    .and_then(|a| Ok((a, read(b)?)))
                    .and_then(|(a, b)| compare(&a, &b))
                    .map(|(text, bad)| {
                        print!("{text}");
                        if bad {
                            ExitCode::FAILURE
                        } else {
                            ExitCode::SUCCESS
                        }
                    })
            }
            _ => Err(USAGE.to_string()),
        }
    } else {
        run_workload(&args)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("armbar-benchmark: {e}");
        ExitCode::from(2)
    })
}
