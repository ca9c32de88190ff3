//! `armbar run synth`: sweep the corpus through the barrier-placement
//! synthesizer and write `results/synth.csv` — one row per Pareto-front
//! point (platform, barrier count, cost-rank score, replay cycles, cycles
//! saved vs the seed placement, and the outcome-set proof) — plus a
//! per-case summary table (`results/synth_summary.csv`) carrying the
//! search statistics: sites, joint space, leaves verified, subtrees
//! pruned, and whether the branch-and-bound ran to completion.
//!
//! Cells are keyed on the *program text* (plus the replay depth), so
//! editing a corpus case invalidates exactly its own cell. A cell renders
//! its case's `synth.csv` rows from the synthesizer's front and carries
//! them as text (`cache::pack_text`) behind its `synth_summary` row, so the
//! trip through the cache is exact and `synth.csv` is byte-identical
//! across worker counts and warm reruns.

use std::fmt::Write as _;

use armbar_analyze::corpus::corpus;
use armbar_analyze::replay::REPLAY_ITERS;
use armbar_analyze::synth::{chosen_point, pareto_fronts, proof_label, synthesize};
use armbar_analyze::LintCase;
use armbar_sim::PlatformKind;

use crate::cache::{model_key, pack_text};
use crate::report::{escape, platform_columns, Table};
use crate::sweep::{SweepCtx, SweepSpec};

/// A synth cell's numbers, its `synth_summary` row: sites, space, leaves,
/// pruned, complete, seed score, best score, best barrier count, then the
/// chosen point's cycles saved vs the seed per platform.
const HEAD: usize = 8 + PlatformKind::ALL.len();

/// Synthesize one corpus case, price its frontier and render its
/// `synth.csv` rows: the work one sweep cell performs.
fn synth_cell(case: &LintCase, replay_iters: u64) -> Vec<f64> {
    let r = synthesize(case);
    let front = pareto_fronts(&r, replay_iters);
    let chosen: Vec<_> = PlatformKind::ALL
        .iter()
        .map(|&kind| chosen_point(&front, kind).expect("front covers every platform"))
        .collect();
    let mut head = vec![
        r.sites.len() as f64,
        r.space as f64,
        r.leaves_checked as f64,
        r.nodes_pruned as f64,
        f64::from(u8::from(r.complete)),
        f64::from(r.seed.score),
        f64::from(r.best.score),
        r.best.barrier_count as f64,
    ];
    head.extend(chosen.iter().map(|c| c.saved_vs_seed as f64));
    let mut rows = String::new();
    for p in &front {
        let is_chosen = chosen.iter().any(|&c| std::ptr::eq(c, p));
        let _ = writeln!(
            rows,
            "{},{},{},{},{},{},{},{},{},{}",
            escape(&case.name),
            escape(&p.platform.name().to_lowercase()),
            p.barrier_count,
            p.score,
            p.cycles,
            p.saved_vs_seed,
            u8::from(p.is_seed),
            u8::from(is_chosen),
            escape(&p.label),
            escape(&proof_label(p.removed)),
        );
    }
    pack_text(&head, &rows)
}

/// Run the synth grid under `ctx`: the `synth.csv` text and every corpus
/// case's name and cell numbers (see `HEAD`), in corpus order.
#[must_use]
pub fn synth_results(ctx: &SweepCtx, replay_iters: u64) -> (String, Vec<(String, Vec<f64>)>) {
    let mut sweep = SweepSpec::new("synth");
    let (names, cells): (Vec<_>, Vec<_>) = corpus()
        .into_iter()
        .map(|case| {
            let key = model_key(&("synth", &case.name, &case.program, replay_iters));
            (
                case.name.clone(),
                sweep.cell(key, move || synth_cell(&case, replay_iters)),
            )
        })
        .unzip();
    let mut csv = String::from(
        "case,platform,barrier_count,score,cycles,saved_vs_seed,is_seed,chosen,placement,proof\n",
    );
    let numbers = sweep.run(ctx).text_cells(&cells, HEAD, &mut csv);
    (csv, names.into_iter().zip(numbers).collect())
}

/// `armbar run synth`: the full corpus through the synthesizer, Pareto fronts to
/// `results/synth.csv`, and a per-case summary table (search statistics
/// plus the chosen point's cycle savings per platform).
#[must_use]
pub fn synth(ctx: &SweepCtx) -> Vec<Table> {
    // Wall time goes to stdout only: synth.csv must stay byte-identical
    // across hosts and worker counts (`armbar verify` diffs it).
    let t0 = std::time::Instant::now();
    let (csv, rows) = synth_results(ctx, REPLAY_ITERS);
    let wall = t0.elapsed();
    ctx.write_side_csv("synth.csv", &csv);
    let mut columns = vec![
        "sites".to_string(),
        "space".to_string(),
        "leaves".to_string(),
        "pruned".to_string(),
        "complete".to_string(),
        "seed_score".to_string(),
        "best_score".to_string(),
        "best_barriers".to_string(),
    ];
    columns.extend(platform_columns("saved"));
    let mut t = Table::new(
        "synth_summary",
        "armbar-synth search statistics and chosen-point savings per platform",
        "case",
        columns,
        "counts / cost-rank scores / cycles at 200 iterations",
    );
    for (name, cell) in &rows {
        t.push_row(name, cell.clone());
    }
    let improvable = rows.iter().filter(|(_, c)| c[6] < c[5]).count();
    let budget_hits = rows.iter().filter(|(_, c)| c[4] == 0.0).count();
    println!(
        "  {} corpus cases, {improvable} with cheaper placements, {budget_hits} budget hits -> results/synth.csv",
        rows.len()
    );
    let leaves: f64 = rows.iter().map(|(_, c)| c[2]).sum();
    let pruned: f64 = rows.iter().map(|(_, c)| c[3]).sum();
    println!("  search: {leaves} leaves verified, {pruned} subtrees pruned, wall {wall:?}");
    vec![t]
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// The whole experiment at reduced depth: every rung of the ladder
    /// writes the same bytes under the committed header, every search runs
    /// to completion and never ends above its seed, and every platform has
    /// a monotone front with one chosen point that never costs more than
    /// the seed.
    #[test]
    fn synth_grid_is_deterministic_and_never_worse_than_seed() {
        let rungs = crate::verify::ladder(|ctx| Ok(synth_results(ctx, 20))).expect("ladder holds");
        let (csv, rows) = &rungs.value;
        assert_eq!(rungs.cells as usize, rows.len(), "one cell per corpus case");
        let committed = include_str!("../../../results/synth.csv");
        assert_eq!(csv.lines().next(), committed.lines().next());
        for (name, cell) in rows {
            assert_eq!(cell[4], 1.0, "{name}: search must run to completion");
            assert!(
                cell[6] <= cell[5],
                "{name}: best placement must never exceed the seed score"
            );
        }
        // case,platform,barrier_count,score,cycles,saved_vs_seed,is_seed,chosen,placement,proof
        let mut fronts: BTreeMap<(&str, &str), Vec<Vec<i64>>> = BTreeMap::new();
        for line in csv.lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            assert_eq!(f.len(), 10, "labels with commas must be quoted: {line}");
            let n = |i: usize| f[i].parse::<i64>().expect("numeric column");
            let point = vec![n(2), n(4), n(5), n(7)];
            fronts.entry((f[0], f[1])).or_default().push(point);
        }
        assert_eq!(fronts.len(), rows.len() * PlatformKind::ALL.len());
        for ((name, platform), front) in &fronts {
            let chosen: Vec<_> = front.iter().filter(|p| p[3] == 1).collect();
            assert_eq!(chosen.len(), 1, "{name}: one deploy choice on {platform}");
            assert!(
                chosen[0][2] >= 0,
                "{name}: chosen point dearer than seed on {platform}"
            );
            for w in front.windows(2) {
                assert!(
                    w[0][0] < w[1][0] && w[0][1] > w[1][1],
                    "{name}: front must trade barriers for cycles monotonically"
                );
            }
        }
    }
}
