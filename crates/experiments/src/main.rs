//! `armbar`: the workspace's one binary — list, run and verify every
//! experiment in the registry, and run the analyzer on the corpus or on a
//! real AArch64 assembly file.
//!
//! ```text
//! armbar list                   every experiment id
//! armbar run <id…|all>          print the tables, write results/*.csv
//! armbar verify [id…]           serial == 4 workers == cold == warm cache == committed results/*.csv
//! armbar lint [FILTER|file.s]   every barrier site's verdict, with its proof artifact
//! armbar synth [FILTER]         cheapest outcome-preserving placement per case, priced per platform
//! armbar lift <file.s>          the litmus program the extractor recovers from an assembly file
//! ```
//!
//! `run` takes its worker count and cache from `ARMBAR_JOBS` and
//! `ARMBAR_NO_CACHE`; `run attrib` also exports a Chrome trace when
//! `ARMBAR_TRACE=<path>` is set.
//!
//! `lint` and `synth` take a substring `FILTER` over the built-in corpus
//! names (`armbar lint MP`). An argument naming an existing file (or
//! ending in `.s`, so a typo still gets the file diagnostic) is lifted
//! with `armbar-extract` — spin loops bounded-unrolled, counted loops
//! constant-folded, dependency idioms recovered — and linted like a corpus
//! case, without an intent predicate: the file does not say which outcomes
//! its author forbids, so only redundant/over-strong/necessary verdicts
//! are produced, not missing-barrier ones.
//!
//! Exit codes, for every command: 0 ok; 1 a gate failed, an output could
//! not be written, `lint` found something actionable (redundant,
//! over-strong or missing — necessary verdicts are informational) or
//! `synth` found a placement cheaper than the seed, so both double as CI
//! gates; 2 nothing matched the command line or the corpus filter; 3 an
//! assembly file could not be read or lifted (stderr carries
//! `path:line:col: message`), or a lifted thread loads a location it
//! stored to earlier — the explorer does not model store-to-load
//! forwarding, so it would forbid outcomes ARMv8 and x86-TSO allow.

use std::process::ExitCode;
use std::time::Instant;

use armbar_analyze::lint::{analyze_case, FindingKind, Proof};
use armbar_analyze::replay::{rewrite_savings, REPLAY_ITERS};
use armbar_analyze::synth::{chosen_point, pareto_fronts, proof_label, synthesize};
use armbar_analyze::{corpus, LintCase};
use armbar_experiments::{find, verify, Experiment, SweepCtx, Table, EXPERIMENTS};
use armbar_sim::PlatformKind;
use armbar_wmm::model::Instr;

/// Exit code and the line that explains it.
type Failure = (u8, String);
/// A gate failed, an output could not be written, or the analyzer found
/// work to do.
const FAILED: u8 = 1;
/// The command line named nothing this binary knows.
const NO_MATCH: u8 = 2;
/// An assembly file could not be read or lifted.
const UNLIFTABLE: u8 = 3;

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
        // A file, not a corpus filter (`.s`: a typo still gets the file diagnostic).
        ["lint", path] if path.ends_with(".s") || std::path::Path::new(path).is_file() => {
            lift(path).and_then(|case| lint(&[case]))
        }
        ["lint", filter @ ..] if filter.len() < 2 => cases(filter.first()).and_then(|c| lint(&c)),
        ["synth", filter @ ..] if filter.len() < 2 => cases(filter.first()).and_then(|c| synth(&c)),
        ["lift", path] => lift(path).map(|case| print!("{}", case.program)),
        _ => Err((
            NO_MATCH,
            "usage: armbar list | run <id…|all> | verify [id…] | \
             lint [FILTER|file.s] | synth [FILTER] | lift <file.s>"
                .to_string(),
        )),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, message)) => {
            // A lift diagnostic starts with `path:line:col:`, the shape
            // editors jump on; it goes out unprefixed.
            let prefix = if code == UNLIFTABLE { "" } else { "armbar: " };
            eprintln!("{prefix}{message}");
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

/// The corpus cases whose name contains `filter` (all of them without
/// one), or exit code 2 when none does.
fn cases(filter: Option<&&str>) -> Result<Vec<LintCase>, Failure> {
    let cases: Vec<_> = corpus()
        .into_iter()
        .filter(|c| filter.is_none_or(|f| c.name.contains(f)))
        .collect();
    if cases.is_empty() {
        let message = format!("no corpus case matches filter {filter:?}");
        return Err((NO_MATCH, message));
    }
    Ok(cases)
}

/// Lift an assembly file into a lint case (without an intent predicate)
/// and print what was recovered (threads, instructions, the symbol map),
/// or exit code 3 with the located diagnostic — also for a thread with a
/// load that a store-to-load forwarding could satisfy.
fn lift(path: &str) -> Result<LintCase, Failure> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| (UNLIFTABLE, format!("{path}: cannot read file: {e}")))?;
    let lifted = armbar_extract::lift(&src).map_err(|e| (UNLIFTABLE, format!("{path}:{e}")))?;
    for (t, thread) in lifted.program.threads.iter().enumerate() {
        for (j, load) in thread.instrs.iter().enumerate() {
            let Instr::Load { loc, .. } = load else {
                continue;
            };
            let stored = |i: &Instr| matches!(i, Instr::Store { loc: l, .. } if l == loc);
            if let Some(i) = thread.instrs[..j].iter().rposition(stored) {
                let store = thread.instrs[i];
                let message = format!(
                    "{path}: T{t}: instruction {j} `{load}` reads m{loc} after instruction {i} \
                     `{store}` stored to it; store-to-load forwarding is not modelled"
                );
                return Err((UNLIFTABLE, message));
            }
        }
    }
    println!(
        "lifted {path}: {} thread(s), {} instruction(s), {} symbol(s)",
        lifted.program.threads.len(),
        lifted.total_instrs(),
        lifted.symbols.len()
    );
    for sym in &lifted.symbols {
        let vis = match sym.owner {
            Some(t) => format!("private to T{t}"),
            None => "shared".to_string(),
        };
        let init = sym.init.map(|v| format!(" = {v}")).unwrap_or_default();
        println!("  symbol {} @ m{}{} ({vis})", sym.name, sym.loc, init);
    }
    Ok(LintCase {
        name: path.to_string(),
        program: lifted.program,
        forbidden: None,
    })
}

/// Report every finding of every case with its proof artifact and, for an
/// accepted rewrite, the simulated cycles it saves; exit code 1 when any
/// finding is actionable.
fn lint(cases: &[LintCase]) -> Result<(), Failure> {
    let actionable: usize = cases.iter().map(lint_case).sum();
    let summary = format!(
        "{} case(s), {actionable} actionable finding(s)",
        cases.len()
    );
    println!("\n{summary}");
    if actionable > 0 {
        return Err((FAILED, summary));
    }
    Ok(())
}

/// Analyze one case, print its report, and count its actionable findings.
fn lint_case(case: &LintCase) -> usize {
    let findings = analyze_case(case);
    println!("== {} ({} findings)", case.name, findings.len());
    let savings = rewrite_savings(&case.program, &findings, REPLAY_ITERS);
    for (f, saved) in findings.iter().zip(savings) {
        let suggestion = match (f.kind, f.suggestion) {
            (FindingKind::Redundant, _) => "delete".to_string(),
            (_, Some(s)) => format!("use {s}"),
            (FindingKind::Missing, None) => "add ordering".to_string(),
            (_, None) => "keep".to_string(),
        };
        println!(
            "  [{:<11}] {:<6} {:<10} -> {}{}",
            f.kind.label(),
            f.site_label(),
            f.original.to_string(),
            suggestion,
            if f.caveat { "  (measure first)" } else { "" },
        );
        match &f.proof {
            Proof::OutcomesEqual {
                states_base,
                states_mutated,
            } => println!(
                "      proof: outcome sets equal ({} outcomes; {} vs {} states)",
                f.outcomes_base, states_base, states_mutated
            ),
            Proof::OutcomesPreserved { removed } => println!(
                "      proof: no outcome added, {removed} removed ({} -> {} outcomes)",
                f.outcomes_base, f.outcomes_after
            ),
            Proof::CounterExample(w) => {
                let label = if f.kind == FindingKind::Missing {
                    "forbidden outcome reachable"
                } else {
                    "removal admits new outcome"
                };
                println!("      witness ({label}):");
                for line in w.render(&case.program).lines() {
                    println!("      {line}");
                }
            }
        }
        if f.rewritten.is_some() {
            let per: Vec<String> = PlatformKind::ALL
                .iter()
                .zip(saved)
                .map(|(k, s)| format!("{}: {s:+}", k.name()))
                .collect();
            println!(
                "      simulated cycles saved over {REPLAY_ITERS} iterations — {}",
                per.join(", ")
            );
        }
    }
    let informational = FindingKind::Necessary;
    findings.iter().filter(|f| f.kind != informational).count()
}

/// Branch-and-bound every case's joint rewrite space for the cheapest
/// outcome-preserving placement and price the per-barrier-count frontier
/// on all four platform profiles; exit code 1 when any case admits a
/// placement strictly cheaper than its seed.
fn synth(cases: &[LintCase]) -> Result<(), Failure> {
    let mut improvable = 0usize;
    for case in cases {
        let r = synthesize(case);
        println!(
            "== {} ({} sites, space {}, {} leaves checked, {} subtrees pruned{})",
            case.name,
            r.sites.len(),
            r.space,
            r.leaves_checked,
            r.nodes_pruned,
            if r.complete { "" } else { ", budget hit" },
        );
        println!(
            "   seed: score {} with {} barrier(s)",
            r.seed.score, r.seed.barrier_count
        );
        println!(
            "   best: score {} with {} barrier(s) — {} [{}]",
            r.best.score,
            r.best.barrier_count,
            r.best.label(),
            proof_label(r.best.removed),
        );
        if r.best.score < r.seed.score {
            improvable += 1;
        }
        let front = pareto_fronts(&r, REPLAY_ITERS);
        for kind in PlatformKind::ALL {
            let points: Vec<String> = front
                .iter()
                .filter(|p| p.platform == kind)
                .map(|p| {
                    format!(
                        "({} barrier(s), {} cyc, {:+} vs seed, {})",
                        p.barrier_count, p.cycles, p.saved_vs_seed, p.removed
                    )
                })
                .collect();
            let chosen = chosen_point(&front, kind).expect("front never empty");
            println!(
                "   {:<12} front: {} -> deploy {}",
                kind.name(),
                points.join(" "),
                chosen.label
            );
        }
    }
    let summary = format!(
        "{} case(s), {improvable} with cheaper placements",
        cases.len()
    );
    println!("\n{summary}");
    if improvable > 0 {
        return Err((FAILED, summary));
    }
    Ok(())
}
