//! `armbar`: list, run, verify and benchmark every experiment in the
//! registry.
//!
//! ```text
//! armbar list                 every experiment id
//! armbar run <id…|all>        print the tables, write results/*.csv
//! armbar verify [id…]         serial == 4 workers == cold == warm cache == committed results/*.csv
//! armbar bench sim|explore    write BENCH_sim.json / BENCH_explore.json (panics below the floors)
//! ```
//!
//! `run` takes its worker count and cache from `ARMBAR_JOBS` and
//! `ARMBAR_NO_CACHE`; `run attrib` also exports a Chrome trace when
//! `ARMBAR_TRACE=<path>` is set. Exit codes follow `armbar-lint`: 0 ok, 1 a
//! gate failed or an output could not be written, 2 nothing matched the
//! command line.

use std::process::ExitCode;
use std::time::Instant;

use armbar_experiments::{
    bench_explore, bench_sim, find, verify, Experiment, SweepCtx, Table, EXPERIMENTS,
};

/// Exit code and the line that explains it.
type Failure = (u8, String);
/// A gate failed or an output could not be written.
const FAILED: u8 = 1;
/// The command line named nothing this binary knows.
const NO_MATCH: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match args.as_slice() {
        ["list"] => {
            EXPERIMENTS.iter().for_each(|e| println!("{}", e.id));
            Ok(())
        }
        ["run", "all"] => run(EXPERIMENTS.iter().collect()),
        ["run", ids @ ..] if !ids.is_empty() => select(ids).and_then(run),
        ["verify"] => verify(EXPERIMENTS.iter().filter(|e| e.deterministic).collect()),
        ["verify", ids @ ..] => select(ids).and_then(verify),
        ["bench", "sim"] => bench("BENCH_sim.json", &bench_sim::bench_sim_json()),
        ["bench", "explore"] => bench("BENCH_explore.json", &bench_explore::bench_explore_json()),
        _ => Err((
            NO_MATCH,
            "usage: armbar list | run <id…|all> | verify [id…] | bench sim|explore".to_string(),
        )),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, message)) => {
            eprintln!("armbar: {message}");
            ExitCode::from(code)
        }
    }
}

/// Registry entries for `ids`, or exit code 2 with the valid ids on one line.
fn select(ids: &[&str]) -> Result<Vec<&'static Experiment>, Failure> {
    let entry = |id: &&str| {
        find(id).ok_or_else(|| {
            let valid: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
            let message = format!("unknown experiment `{id}`; valid ids: {}", valid.join(" "));
            (NO_MATCH, message)
        })
    };
    ids.iter().map(entry).collect()
}

/// Regenerate `selected` on one shared worker pool and run cache, with
/// per-experiment timing and a final cache summary.
fn run(selected: Vec<&'static Experiment>) -> Result<(), Failure> {
    let ctx = SweepCtx::from_env();
    let start = Instant::now();
    for e in selected {
        println!("\n########## {} ##########", e.id);
        let t0 = Instant::now();
        let tables = (e.run)(&ctx);
        tables.iter().for_each(Table::print);
        verify::write_tables(&ctx, &tables).map_err(|message| (FAILED, message))?;
        println!("[{} took {:.2}s]", e.id, t0.elapsed().as_secs_f64());
    }
    println!(
        "\narmbar run: {:.2}s on {} worker(s); cache: {} hit(s), {} miss(es), {} store(s)",
        start.elapsed().as_secs_f64(),
        ctx.workers,
        ctx.cache.hits(),
        ctx.cache.misses(),
        ctx.cache.stores(),
    );
    Ok(())
}

/// Climb the ladder with every selected experiment against the CSVs
/// `results/` holds; report each, fail if any failed.
fn verify(selected: Vec<&'static Experiment>) -> Result<(), Failure> {
    if let Some(e) = selected.iter().find(|e| !e.deterministic) {
        let message = format!("{} times host threads; there is nothing to verify", e.id);
        return Err((NO_MATCH, message));
    }
    let mut failed = Vec::new();
    for e in selected {
        match verify::experiment(e) {
            Ok(cells) => println!("verify {}: ok ({cells} cell(s))", e.id),
            Err(message) => {
                eprintln!("verify {}: FAILED: {message}", e.id);
                failed.push(e.id);
            }
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err((FAILED, format!("verify failed for {}", failed.join(" "))))
    }
}

/// Print a benchmark document and write it next to the committed one.
fn bench(file: &str, json: &str) -> Result<(), Failure> {
    print!("{json}");
    std::fs::write(file, json).map_err(|e| (FAILED, format!("could not write {file}: {e}")))?;
    eprintln!("wrote {file}");
    Ok(())
}
