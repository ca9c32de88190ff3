//! `armbar run synth`: sweep the corpus through the barrier-placement
//! synthesizer and write `results/synth.csv` — one row per Pareto-front
//! point (platform, barrier count, cost-rank score, replay cycles, cycles
//! saved vs the seed placement, and the outcome-set proof) — plus a
//! per-case summary table (`results/synth_summary.csv`) carrying the
//! search statistics: sites, joint space, leaves verified, subtrees
//! pruned, and whether the branch-and-bound ran to completion.
//!
//! Cells are keyed on the *program text* (plus a synth-scoped salt and
//! the replay depth), so editing a corpus case invalidates exactly its
//! own cell. Cell values are a flat numeric encoding of the per-case
//! result ([`encode_synth`]/[`decode_synth`], round-trip-tested) because
//! the run cache stores `f64` rows; every integer involved (including
//! the placement-label bytes) is far below 2^53, so the trip through the
//! cache is exact and `synth.csv` is byte-identical across worker counts
//! and warm reruns.

use std::fmt::Write as _;

use armbar_analyze::corpus::corpus;
use armbar_analyze::replay::REPLAY_ITERS;
use armbar_analyze::synth::{chosen_point, pareto_fronts, synthesize};
use armbar_sim::PlatformKind;

use crate::cache::{code_in, model_key};
use crate::report::{escape, platform_columns, Table};
use crate::sweep::{SweepCtx, SweepSpec};

/// One Pareto-front point, in cache-encodable form.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Index into [`PlatformKind::ALL`].
    pub platform: u8,
    /// Barriers retained by this placement.
    pub barrier_count: u64,
    /// Summed cost-rank score of the placement.
    pub score: u64,
    /// Simulated cycles at the sweep's replay depth.
    pub cycles: u64,
    /// Cycles saved relative to the seed placement (negative = dearer).
    pub saved_vs_seed: i64,
    /// Outcomes the placement removes (0 = outcome sets equal).
    pub removed: u64,
    /// This point *is* the seed placement.
    pub is_seed: bool,
    /// This point is the platform's deployment choice (minimum cycles).
    pub chosen: bool,
    /// Human-readable placement, e.g. `T0#1 DSB full->DMB st`.
    pub label: String,
}

/// Everything `synth.csv` needs about one corpus case.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthRecord {
    /// Rewritable sites found in the case.
    pub sites: u64,
    /// Size of the joint rewrite space (product of per-site options).
    pub space: u64,
    /// Composed placements verified against the explorer.
    pub leaves: u64,
    /// Subtrees cut by the admissible bound.
    pub pruned: u64,
    /// The search ran to completion (no leaf-budget exhaustion).
    pub complete: bool,
    /// Seed placement score / barrier count.
    pub seed: (u64, u64),
    /// Best placement score / barrier count / outcomes removed.
    pub best: (u64, u64, u64),
    /// The per-platform Pareto fronts, flattened in platform order.
    pub points: Vec<PointRecord>,
}

fn platform_code(kind: PlatformKind) -> u8 {
    code_in(&PlatformKind::ALL, &kind)
}

/// Synthesize one corpus case and price its frontier: the work one sweep
/// cell performs.
fn synth_record(case: &armbar_analyze::LintCase, replay_iters: u64) -> SynthRecord {
    let r = synthesize(case);
    let front = pareto_fronts(&r, replay_iters);
    let mut points: Vec<PointRecord> = front
        .iter()
        .map(|p| PointRecord {
            platform: platform_code(p.platform),
            barrier_count: p.barrier_count as u64,
            score: u64::from(p.score),
            cycles: p.cycles,
            saved_vs_seed: p.saved_vs_seed,
            removed: p.removed as u64,
            is_seed: p.is_seed,
            chosen: false,
            label: p.label.clone(),
        })
        .collect();
    for kind in PlatformKind::ALL {
        let c = chosen_point(&front, kind).expect("front covers every platform");
        let code = platform_code(kind);
        let p = points
            .iter_mut()
            .find(|p| {
                p.platform == code
                    && p.cycles == c.cycles
                    && p.barrier_count == c.barrier_count as u64
            })
            .expect("chosen point comes from the front");
        p.chosen = true;
    }
    SynthRecord {
        sites: r.sites.len() as u64,
        space: r.space,
        leaves: r.leaves_checked as u64,
        pruned: r.nodes_pruned as u64,
        complete: r.complete,
        seed: (u64::from(r.seed.score), r.seed.barrier_count as u64),
        best: (
            u64::from(r.best.score),
            r.best.barrier_count as u64,
            r.best.removed as u64,
        ),
        points,
    }
}

/// Flatten a record into the `f64` row a sweep cell returns. Layout:
/// `[sites, space, leaves, pruned, complete, seed_score, seed_count,
/// best_score, best_count, best_removed, n_points, point...]` where each
/// point is `[platform, count, score, cycles, saved, removed, is_seed,
/// chosen, label_len, label bytes...]`.
#[must_use]
pub fn encode_synth(r: &SynthRecord) -> Vec<f64> {
    let mut v = vec![
        r.sites as f64,
        r.space as f64,
        r.leaves as f64,
        r.pruned as f64,
        f64::from(u8::from(r.complete)),
        r.seed.0 as f64,
        r.seed.1 as f64,
        r.best.0 as f64,
        r.best.1 as f64,
        r.best.2 as f64,
        r.points.len() as f64,
    ];
    for p in &r.points {
        v.push(f64::from(p.platform));
        v.push(p.barrier_count as f64);
        v.push(p.score as f64);
        v.push(p.cycles as f64);
        v.push(p.saved_vs_seed as f64);
        v.push(p.removed as f64);
        v.push(f64::from(u8::from(p.is_seed)));
        v.push(f64::from(u8::from(p.chosen)));
        v.push(p.label.len() as f64);
        v.extend(p.label.bytes().map(f64::from));
    }
    v
}

/// Inverse of [`encode_synth`].
///
/// # Panics
///
/// Panics on a malformed stream — cache entries are written by
/// [`encode_synth`], so corruption indicates a stale or foreign entry.
#[must_use]
pub fn decode_synth(vals: &[f64]) -> SynthRecord {
    let mut it = vals.iter().copied();
    let mut next = || it.next().expect("truncated synth cell");
    let sites = next() as u64;
    let space = next() as u64;
    let leaves = next() as u64;
    let pruned = next() as u64;
    let complete = next() != 0.0;
    let seed = (next() as u64, next() as u64);
    let best = (next() as u64, next() as u64, next() as u64);
    let n = next() as usize;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let platform = next() as u8;
        let barrier_count = next() as u64;
        let score = next() as u64;
        let cycles = next() as u64;
        let saved_vs_seed = next() as i64;
        let removed = next() as u64;
        let is_seed = next() != 0.0;
        let chosen = next() != 0.0;
        let len = next() as usize;
        let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        points.push(PointRecord {
            platform,
            barrier_count,
            score,
            cycles,
            saved_vs_seed,
            removed,
            is_seed,
            chosen,
            label: String::from_utf8(bytes).expect("labels are UTF-8"),
        });
    }
    assert!(it.next().is_none(), "trailing data in synth cell");
    SynthRecord {
        sites,
        space,
        leaves,
        pruned,
        complete,
        seed,
        best,
        points,
    }
}

/// Render the full `synth.csv` text for the given grid results (exposed
/// so the determinism test can compare bytes without touching
/// `results/`).
#[must_use]
pub fn render_synth_csv(rows: &[(String, SynthRecord)]) -> String {
    let mut csv = String::from(
        "case,platform,barrier_count,score,cycles,saved_vs_seed,is_seed,chosen,placement,proof\n",
    );
    for (case, r) in rows {
        for p in &r.points {
            let proof = if p.removed == 0 {
                "outcomes-equal".to_string()
            } else {
                format!("outcomes-preserved(-{})", p.removed)
            };
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{},{},{},{},{}",
                escape(case),
                escape(&PlatformKind::ALL[p.platform as usize].name().to_lowercase()),
                p.barrier_count,
                p.score,
                p.cycles,
                p.saved_vs_seed,
                u8::from(p.is_seed),
                u8::from(p.chosen),
                escape(&p.label),
                escape(&proof),
            );
        }
    }
    csv
}

/// Run the synth grid under `ctx` and return `(csv text, decoded rows)`.
#[must_use]
pub fn synth_results(ctx: &SweepCtx, replay_iters: u64) -> (String, Vec<(String, SynthRecord)>) {
    // One cell per corpus case, keyed on the synth salt, the case name, the
    // full program text, and the replay depth.
    let mut sweep = SweepSpec::new("synth");
    let mut grid = Vec::new();
    for case in corpus() {
        let key = model_key(&("synth-v1", &case.name, &case.program, replay_iters));
        let name = case.name.clone();
        let id = sweep.cell(key, move || {
            encode_synth(&synth_record(&case, replay_iters))
        });
        grid.push((name, id));
    }
    let r = sweep.run(ctx);
    let rows: Vec<(String, SynthRecord)> = grid
        .into_iter()
        .map(|(name, id)| (name, decode_synth(r.get(id))))
        .collect();
    (render_synth_csv(&rows), rows)
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
    for (name, r) in &rows {
        let mut vals = vec![
            r.sites as f64,
            r.space as f64,
            r.leaves as f64,
            r.pruned as f64,
            f64::from(u8::from(r.complete)),
            r.seed.0 as f64,
            r.best.0 as f64,
            r.best.1 as f64,
        ];
        for kind in PlatformKind::ALL {
            let code = platform_code(kind);
            let saved = r
                .points
                .iter()
                .find(|p| p.platform == code && p.chosen)
                .map_or(0, |p| p.saved_vs_seed);
            vals.push(saved as f64);
        }
        t.push_row(name, vals);
    }
    let improvable = rows.iter().filter(|(_, r)| r.best.0 < r.seed.0).count();
    let budget_hits = rows.iter().filter(|(_, r)| !r.complete).count();
    println!(
        "  {} corpus cases, {improvable} with cheaper placements, {budget_hits} budget hits -> results/synth.csv",
        rows.len()
    );
    let (leaves, pruned) = rows
        .iter()
        .fold((0u64, 0u64), |(l, p), (_, r)| (l + r.leaves, p + r.pruned));
    println!("  search: {leaves} leaves verified, {pruned} subtrees pruned, wall {wall:?}");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunCache;

    #[test]
    fn encode_decode_roundtrip() {
        let r = SynthRecord {
            sites: 23,
            space: 4_194_304,
            leaves: 1,
            pruned: 22,
            complete: true,
            seed: (139, 23),
            best: (12, 2, 0),
            points: vec![
                PointRecord {
                    platform: 0,
                    barrier_count: 2,
                    score: 12,
                    cycles: 25_000,
                    saved_vs_seed: 22_000,
                    removed: 0,
                    is_seed: false,
                    chosen: true,
                    label: "T0#4 DSB full->DMB full + T1#56 DMB st->-".to_string(),
                },
                PointRecord {
                    platform: 3,
                    barrier_count: 23,
                    score: 139,
                    cycles: 47_000,
                    saved_vs_seed: -172,
                    removed: 2,
                    is_seed: true,
                    chosen: false,
                    label: "seed".to_string(),
                },
            ],
        };
        assert_eq!(decode_synth(&encode_synth(&r)), r);
    }

    #[test]
    fn csv_has_header_and_stable_shape() {
        let rows = vec![(
            "MP+x".to_string(),
            SynthRecord {
                sites: 2,
                space: 9,
                leaves: 3,
                pruned: 1,
                complete: true,
                seed: (12, 2),
                best: (6, 2, 0),
                points: vec![PointRecord {
                    platform: 0,
                    barrier_count: 2,
                    score: 6,
                    cycles: 8280,
                    saved_vs_seed: 4968,
                    removed: 0,
                    is_seed: false,
                    chosen: true,
                    label: "T0#1 DMB full->DMB st".to_string(),
                }],
            },
        )];
        let csv = render_synth_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("case,platform,barrier_count,score"));
        assert!(lines[0].ends_with("proof"));
        assert!(lines[1].starts_with("MP+x,kunpeng916,2,6,8280,4968,0,1"));
        assert!(lines[1].ends_with("outcomes-equal"));
        assert_eq!(
            lines[1].split(',').count(),
            lines[0].split(',').count(),
            "labels with commas must be quoted"
        );
    }

    /// The whole experiment at reduced depth: parallel equals serial
    /// byte-for-byte, every platform has a front and a chosen point that
    /// never costs more than the seed, and every point's proof shows no
    /// widening (the synthesizer only emits machine-checked placements).
    #[test]
    fn synth_grid_is_deterministic_and_never_worse_than_seed() {
        let run = |workers| {
            let ctx = SweepCtx::new(workers, RunCache::disabled());
            synth_results(&ctx, 20)
        };
        let (csv_serial, rows) = run(1);
        let (csv_parallel, _) = run(4);
        assert_eq!(
            csv_serial, csv_parallel,
            "synth.csv must not depend on worker count"
        );
        assert!(!rows.is_empty());
        for (name, r) in &rows {
            assert!(r.complete, "{name}: search must run to completion");
            assert!(
                r.best.0 <= r.seed.0,
                "{name}: best placement must never exceed the seed score"
            );
            for kind in PlatformKind::ALL {
                let code = platform_code(kind);
                let front: Vec<_> = r.points.iter().filter(|p| p.platform == code).collect();
                assert!(!front.is_empty(), "{name}: empty front on {}", kind.name());
                let chosen: Vec<_> = front.iter().filter(|p| p.chosen).collect();
                assert_eq!(chosen.len(), 1, "{name}: one deploy choice per platform");
                assert!(
                    chosen[0].saved_vs_seed >= 0,
                    "{name}: chosen point dearer than seed on {}",
                    kind.name()
                );
                for w in front.windows(2) {
                    assert!(
                        w[0].barrier_count < w[1].barrier_count && w[0].cycles > w[1].cycles,
                        "{name}: front must trade barriers for cycles monotonically"
                    );
                }
            }
        }
    }
}
