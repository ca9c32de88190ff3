//! `armbar run lint`: sweep the `armbar lint` corpus through the sweep engine +
//! run cache and write `results/lint.csv` — one row per finding, carrying
//! the verdict, the suggested replacement, the outcome-set delta that
//! proves it, and the cycles the rewrite saves on each platform profile.
//!
//! Cells are keyed on the *program text* (plus the replay depth), so
//! editing a corpus case invalidates exactly its own cell. A cell renders
//! its case's `lint.csv` rows from the analyzer's findings and carries them
//! as text (`cache::pack_text`) behind its share of the summary, so the trip
//! through the cache is exact and `lint.csv` is byte-identical across
//! worker counts and warm reruns.

use std::fmt::Write as _;

use armbar_analyze::corpus::corpus;
use armbar_analyze::lint::{analyze_case, FindingKind};
use armbar_analyze::replay::{rewrite_savings, REPLAY_ITERS};
use armbar_analyze::LintCase;

use crate::cache::{model_key, pack_text};
use crate::report::{escape, platform_columns, Table};
use crate::sweep::{SweepCtx, SweepSpec};

/// A lint cell's numbers: states visited and subtrees pruned on the
/// original program over its findings, then for each [`FindingKind::ALL`]
/// kind the finding count and the cycles saved per platform.
const HEAD: usize = 2 + 5 * FindingKind::ALL.len();

/// Analyze one corpus case, price every accepted rewrite and render its
/// `lint.csv` rows: the work one sweep cell performs.
fn lint_cell(case: &LintCase, replay_iters: u64) -> Vec<f64> {
    let mut head = [0.0; HEAD];
    let mut rows = String::new();
    let findings = analyze_case(case);
    let savings = rewrite_savings(&case.program, &findings, replay_iters);
    for (f, saved) in findings.iter().zip(savings) {
        let kind = FindingKind::ALL.iter().position(|&k| k == f.kind);
        let at = 2 + 5 * kind.expect("every kind is listed");
        head[0] += f.states_base as f64;
        head[1] += f.pruned_base as f64;
        head[at] += 1.0;
        for (acc, s) in head[at + 1..].iter_mut().zip(saved) {
            *acc += s as f64;
        }
        let suggestion = match (f.kind, f.suggestion) {
            (FindingKind::Redundant, _) => "delete",
            (_, Some(s)) => s.mnemonic(),
            (FindingKind::Missing, None) => "add-ordering",
            (_, None) => "keep",
        };
        let _ = write!(
            rows,
            "{},{},{},{},{},{},{},{}",
            escape(&case.name),
            f.site_label(),
            f.kind.label(),
            escape(f.original.mnemonic()),
            escape(suggestion),
            u8::from(f.caveat),
            f.rank_before.label(),
            f.rank_after.label(),
        );
        let outcomes = [f.outcomes_base, f.outcomes_after, f.added, f.removed];
        let states = [f.states_base, f.states_after, f.pruned_base, f.pruned_after];
        for n in outcomes.into_iter().chain(states) {
            let _ = write!(rows, ",{n}");
        }
        for s in saved {
            let _ = write!(rows, ",{s}");
        }
        let _ = writeln!(rows, ",{}", escape(&f.proof_label()));
    }
    pack_text(&head, &rows)
}

/// Run the lint grid under `ctx`: the `lint.csv` text and every corpus
/// cell's numbers (see `HEAD`), in corpus order.
#[must_use]
pub fn lint_results(ctx: &SweepCtx, replay_iters: u64) -> (String, Vec<Vec<f64>>) {
    let mut sweep = SweepSpec::new("lint");
    let cells: Vec<_> = corpus()
        .into_iter()
        .map(|case| {
            let key = model_key(&("lint", &case.name, &case.program, replay_iters));
            sweep.cell(key, move || lint_cell(&case, replay_iters))
        })
        .collect();
    let mut csv = String::from("case,site,kind,barrier,suggestion,caveat,rank_before,rank_after,outcomes_base,outcomes_after,outcomes_added,outcomes_removed,states_base,states_after,pruned_base,pruned_after");
    for column in platform_columns("saved") {
        let _ = write!(csv, ",{column}");
    }
    csv.push_str(",proof\n");
    let numbers = sweep.run(ctx).text_cells(&cells, HEAD, &mut csv);
    (csv, numbers)
}

/// `armbar run lint`: the full corpus through the analyzer, findings to
/// `results/lint.csv`, and a per-kind summary table (finding counts plus
/// total cycles saved per platform across all accepted rewrites).
#[must_use]
pub fn lint(ctx: &SweepCtx) -> Vec<Table> {
    // Wall time goes to stdout only: lint.csv must stay byte-identical
    // across hosts and worker counts (`armbar verify` diffs it).
    let t0 = std::time::Instant::now();
    let (csv, cells) = lint_results(ctx, REPLAY_ITERS);
    let wall = t0.elapsed();
    ctx.write_side_csv("lint.csv", &csv);
    let mut total = [0.0; HEAD];
    for cell in &cells {
        for (acc, v) in total.iter_mut().zip(cell) {
            *acc += v;
        }
    }
    let mut columns = vec!["findings".to_string()];
    columns.extend(platform_columns("saved"));
    let mut t = Table::new(
        "lint_summary",
        "armbar-lint verdicts and total simulated cycles saved",
        "verdict",
        columns,
        "count / cycles over the whole corpus",
    );
    for (kind, row) in FindingKind::ALL.iter().zip(total[2..].chunks(5)) {
        t.push_row(kind.label(), row.to_vec());
    }
    let findings: f64 = total[2..].iter().step_by(5).sum();
    println!(
        "  {} corpus cases, {findings} findings -> results/lint.csv",
        cells.len()
    );
    println!(
        "  exploration: {} states visited, {} subtrees pruned, wall {wall:?}",
        total[0], total[1]
    );
    vec![t]
}
