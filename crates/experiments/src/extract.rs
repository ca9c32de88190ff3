//! `armbar run extract`: run the assembly front-end over the checked-in `.s`
//! corpus and the `armbar-barriers` native backend, through the sweep
//! engine and run cache, writing `results/extract.csv`.
//!
//! Two cell families:
//!
//! * one cell per **fixture** (`corpus/asm/*.s`), keyed on the fixture
//!   name and its full source text: lift it, explore both the lifted
//!   program and the retired hand-built twin under the ARM model, and
//!   record the outcome/state counts plus the two equality verdicts
//!   (outcome sets, exact structure) — the evidence that the lifted path
//!   is a faithful production replacement for the hand builders;
//! * one **drift** cell keyed on the full source text of
//!   `crates/barriers/src/native.rs`: scrape every `asm!` template,
//!   lift it, and compare against `ASM_CONTRACT` — editing the backend
//!   invalidates exactly this cell.
//!
//! Each cell renders its own `extract.csv` rows and carries them as text
//! (`cache::pack_text`) behind its numbers, so the CSV is byte-identical across
//! worker counts and warm reruns — `armbar verify` diffs it against the
//! committed reference.

use std::fmt::Write as _;

use armbar_barriers::native::ASM_CONTRACT;
use armbar_barriers::Barrier;
use armbar_extract::drift::{check_drift, NATIVE_SOURCE};
use armbar_extract::fixtures::{all, hand_built, lift_fixture};
use armbar_wmm::{explore, MemoryModel};

use crate::cache::{model_key, pack_text};
use crate::report::Table;
use crate::sweep::{SweepCtx, SweepSpec};

/// A fixture cell's numbers, its `extract_summary` row: threads,
/// instructions, symbols, outcomes and states of the lifted program, and
/// whether it equals its hand-built twin (outcome sets and structure).
const FIXTURE_HEAD: usize = 6;
/// The drift cell's numbers: wrappers that still emit what they promise,
/// wrappers checked, and `asm!` functions missing from the contract.
const DRIFT_HEAD: usize = 3;

fn fixture_cell(name: &str) -> Vec<f64> {
    let lifted = lift_fixture(name).unwrap_or_else(|e| panic!("fixture {name} must lift: {e}"));
    let hand = hand_built(name);
    let a = explore(&lifted.program, MemoryModel::ArmWmm);
    let b = explore(&hand, MemoryModel::ArmWmm);
    let outcomes_equal = a.outcomes == b.outcomes;
    let equal = outcomes_equal && lifted.program == hand;
    let status = if equal {
        "equal"
    } else if outcomes_equal {
        "outcome-equal"
    } else {
        "diverged"
    };
    let counts = [
        lifted.program.threads.len(),
        lifted.total_instrs(),
        lifted.symbols.len(),
        a.outcomes.len(),
        a.states_visited,
    ];
    let [threads, instrs, symbols, outcomes, states] = counts;
    let (outcomes_hand, states_hand) = (b.outcomes.len(), b.states_visited);
    let row = format!(
        "{name},fixture,{status},-,-,{threads},{instrs},{symbols},{outcomes},{states},{outcomes_hand},{states_hand}\n"
    );
    let mut head: Vec<f64> = counts.iter().map(|&n| n as f64).collect();
    head.push(f64::from(u8::from(equal)));
    pack_text(&head, &row)
}

fn drift_cell() -> Vec<f64> {
    let report = check_drift(NATIVE_SOURCE, &ASM_CONTRACT);
    let mut rows = String::new();
    for row in &report.rows {
        let status = if row.ok() { "ok" } else { "drift" };
        let expected = row.expected.mnemonic();
        let lifted = row.lifted.map_or("-", Barrier::mnemonic);
        let _ = writeln!(
            rows,
            "{},drift,{status},{expected},{lifted},-,-,-,-,-,-,-",
            row.function
        );
    }
    let uncontracted = report.uncontracted.len();
    let coverage = if uncontracted == 0 {
        "ok".to_string()
    } else {
        format!("uncontracted:{uncontracted}")
    };
    let _ = writeln!(
        rows,
        "native.rs,drift-coverage,{coverage},-,-,-,-,-,-,-,-,-"
    );
    let ok = report.rows.iter().filter(|r| r.ok()).count();
    let head = [ok, report.rows.len(), uncontracted].map(|n| n as f64);
    pack_text(&head, &rows)
}

/// Run the extract grid under `ctx`: the `extract.csv` text (one row per
/// drift-checked wrapper, then one per fixture) and every cell's numbers
/// in the same order — the drift cell's (`DRIFT_HEAD`), then each
/// fixture's in [`all`] order (`FIXTURE_HEAD`).
#[must_use]
pub fn extract_results(ctx: &SweepCtx) -> (String, Vec<Vec<f64>>) {
    let mut sweep = SweepSpec::new("extract");
    let fixtures: Vec<_> = all()
        .into_iter()
        .map(|(name, src)| {
            let key = model_key(&("extract", name, src));
            sweep.cell(key, move || fixture_cell(name))
        })
        .collect();
    let drift = sweep.cell(model_key(&("extract-drift", NATIVE_SOURCE)), drift_cell);
    let r = sweep.run(ctx);
    let mut csv = String::from(
        "name,kind,status,expected,lifted,threads,instrs,symbols,outcomes,states,outcomes_hand,states_hand\n",
    );
    let mut numbers = r.text_cells(&[drift], DRIFT_HEAD, &mut csv);
    numbers.extend(r.text_cells(&fixtures, FIXTURE_HEAD, &mut csv));
    (csv, numbers)
}

/// `armbar run extract`: lift the `.s` corpus, prove it against the hand-built
/// twins, drift-check the native backend, and write `results/extract.csv`
/// plus a summary table.
#[must_use]
pub fn extract(ctx: &SweepCtx) -> Vec<Table> {
    let t0 = std::time::Instant::now();
    let (csv, cells) = extract_results(ctx);
    let (drift, fixtures) = cells.split_first().expect("the drift cell");
    let wall = t0.elapsed();
    ctx.write_side_csv("extract.csv", &csv);
    let mut t = Table::new(
        "extract_summary",
        "lifted .s fixtures vs hand-built twins (ARM model)",
        "fixture",
        [
            "threads", "instrs", "symbols", "outcomes", "states", "equal",
        ]
        .into_iter()
        .map(String::from)
        .collect(),
        "counts; equal = outcome sets AND structure match",
    );
    for ((name, _), cell) in all().iter().zip(fixtures) {
        t.push_row(name, cell.clone());
    }
    println!(
        "  {} fixtures lifted, {}/{} asm! wrappers drift-free, {} uncontracted -> results/extract.csv",
        fixtures.len(),
        drift[0],
        drift[1],
        drift[2]
    );
    println!("  wall {wall:?}");
    vec![t]
}
