//! `armbar run lint`: sweep the `armbar lint` corpus through the sweep engine +
//! run cache and write `results/lint.csv` — one row per finding, carrying
//! the verdict, the suggested replacement, the outcome-set delta that
//! proves it, and the cycles the rewrite saves on each platform profile.
//!
//! Cells are keyed on the *program text* (plus a lint-scoped salt and the
//! replay depth), so editing a corpus case invalidates exactly its own
//! cell. Cell values are a flat numeric encoding of the findings
//! ([`encode_findings`]/[`decode_findings`], round-trip-tested) because
//! the run cache stores `f64` rows; every integer involved is far below
//! 2^53, so the trip through the cache is exact and `lint.csv` is
//! byte-identical across worker counts and warm reruns.

use std::fmt::Write as _;

use armbar_analyze::corpus::corpus;
use armbar_analyze::lint::{analyze_case, FindingKind, Proof};
use armbar_analyze::replay::{saved_cycles, REPLAY_ITERS};
use armbar_barriers::Barrier;

use crate::cache::{code_in, model_key};
use crate::report::{escape, platform_columns, Table};
use crate::sweep::{SweepCtx, SweepSpec};

/// Everything `lint.csv` needs about one finding, in cache-encodable form.
#[derive(Debug, Clone, PartialEq)]
pub struct LintRecord {
    /// 0 redundant, 1 over-strong, 2 missing, 3 necessary.
    pub kind: u8,
    /// Site, or `None` for case-level (missing) findings.
    pub site: Option<(usize, usize)>,
    /// Index of the original approach in [`Barrier::ALL`].
    pub original: u8,
    /// Index of the suggestion in [`Barrier::ALL`], `None` = keep.
    pub suggestion: Option<u8>,
    /// Suggestion carries the measure-first caveat.
    pub caveat: bool,
    /// Cost-rank bands (0 = Free .. 8 = SyncBarrier).
    pub rank_before: u8,
    /// Band after the suggestion.
    pub rank_after: u8,
    /// Outcome/state bookkeeping, straight from the analyzer:
    /// `[outcomes_base, outcomes_after, added, removed, states_base,
    /// states_after, pruned_base, pruned_after]`.
    pub outcomes: [u64; 8],
    /// Cycles saved per [`PlatformKind::ALL`] platform (0 when no rewrite).
    pub saved: [i64; 4],
    /// Witness steps `(tid, idx)` when the proof is a counterexample.
    pub witness: Vec<(usize, usize)>,
}

const KIND_LABELS: [&str; 4] = ["redundant", "over-strong", "missing", "necessary"];
const RANK_LABELS: [&str; 9] = [
    "free",
    "dependency",
    "rcpc-acquire",
    "load-barrier",
    "pipeline-flush",
    "store-barrier",
    "full-barrier",
    "store-release",
    "sync-barrier",
];

fn kind_code(k: FindingKind) -> u8 {
    code_in(&KIND_LABELS, &k.label())
}

fn rank_code(r: armbar_barriers::CostRank) -> u8 {
    use armbar_barriers::CostRank as C;
    match r {
        C::Free => 0,
        C::Dependency => 1,
        C::RcpcAcquire => 2,
        C::LoadBarrier => 3,
        C::PipelineFlush => 4,
        C::StoreBarrier => 5,
        C::FullBarrier => 6,
        C::StoreRelease => 7,
        C::SyncBarrier => 8,
    }
}

fn barrier_code(b: Barrier) -> u8 {
    code_in(&Barrier::ALL, &b)
}

/// Analyze one corpus case and price every accepted rewrite: the work one
/// sweep cell performs.
fn lint_records(case: &armbar_analyze::LintCase, replay_iters: u64) -> Vec<LintRecord> {
    analyze_case(case)
        .into_iter()
        .map(|f| LintRecord {
            kind: kind_code(f.kind),
            site: f.site.map(|s| (s.tid, s.idx)),
            original: barrier_code(f.original),
            suggestion: f.suggestion.map(barrier_code),
            caveat: f.caveat,
            rank_before: rank_code(f.rank_before),
            rank_after: rank_code(f.rank_after),
            outcomes: [
                f.outcomes_base as u64,
                f.outcomes_after as u64,
                f.added as u64,
                f.removed as u64,
                f.states_base as u64,
                f.states_after as u64,
                f.pruned_base as u64,
                f.pruned_after as u64,
            ],
            saved: f
                .rewritten
                .as_ref()
                .map_or([0; 4], |rw| saved_cycles(&case.program, rw, replay_iters)),
            witness: match &f.proof {
                Proof::CounterExample(w) => w.steps.iter().map(|s| (s.tid, s.idx)).collect(),
                _ => Vec::new(),
            },
        })
        .collect()
}

/// Flatten records into the `f64` row a sweep cell returns. Layout:
/// `[count, record...]` where each record is `[kind, tid, idx, original,
/// suggestion, caveat, rank_before, rank_after, outcomes[8], saved[4],
/// wlen, (tid, idx) * wlen]`; `-1` encodes the absent site/suggestion.
#[must_use]
pub fn encode_findings(records: &[LintRecord]) -> Vec<f64> {
    let mut v = vec![records.len() as f64];
    for r in records {
        v.push(f64::from(r.kind));
        let (tid, idx) = r.site.map_or((-1.0, -1.0), |(t, i)| (t as f64, i as f64));
        v.push(tid);
        v.push(idx);
        v.push(f64::from(r.original));
        v.push(r.suggestion.map_or(-1.0, f64::from));
        v.push(f64::from(u8::from(r.caveat)));
        v.push(f64::from(r.rank_before));
        v.push(f64::from(r.rank_after));
        v.extend(r.outcomes.iter().map(|&x| x as f64));
        v.extend(r.saved.iter().map(|&x| x as f64));
        v.push(r.witness.len() as f64);
        for &(t, i) in &r.witness {
            v.push(t as f64);
            v.push(i as f64);
        }
    }
    v
}

/// Inverse of [`encode_findings`].
///
/// # Panics
///
/// Panics on a malformed stream — cache entries are written by
/// [`encode_findings`], so corruption indicates a stale or foreign entry.
#[must_use]
pub fn decode_findings(vals: &[f64]) -> Vec<LintRecord> {
    let mut it = vals.iter().copied();
    let mut next = || it.next().expect("truncated lint cell");
    let count = next() as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = next() as u8;
        let tid = next();
        let idx = next();
        let site = (tid >= 0.0).then_some((tid as usize, idx as usize));
        let original = next() as u8;
        let sugg = next();
        let suggestion = (sugg >= 0.0).then_some(sugg as u8);
        let caveat = next() != 0.0;
        let rank_before = next() as u8;
        let rank_after = next() as u8;
        let mut outcomes = [0u64; 8];
        for o in &mut outcomes {
            *o = next() as u64;
        }
        let mut saved = [0i64; 4];
        for s in &mut saved {
            *s = next() as i64;
        }
        let wlen = next() as usize;
        let witness = (0..wlen)
            .map(|_| (next() as usize, next() as usize))
            .collect();
        out.push(LintRecord {
            kind,
            site,
            original,
            suggestion,
            caveat,
            rank_before,
            rank_after,
            outcomes,
            saved,
            witness,
        });
    }
    assert!(it.next().is_none(), "trailing data in lint cell");
    out
}

/// Render the full `lint.csv` text for the given grid results (exposed so
/// the determinism test can compare bytes without touching `results/`).
#[must_use]
pub fn render_lint_csv(rows: &[(String, Vec<LintRecord>)]) -> String {
    let mut csv = String::from("case,site,kind,barrier,suggestion,caveat,rank_before,rank_after,outcomes_base,outcomes_after,outcomes_added,outcomes_removed,states_base,states_after,pruned_base,pruned_after");
    for column in platform_columns("saved") {
        let _ = write!(csv, ",{column}");
    }
    csv.push_str(",proof\n");
    for (case, records) in rows {
        for r in records {
            let site = r
                .site
                .map_or_else(|| "-".to_string(), |(t, i)| format!("T{t}#{i}"));
            let barrier = Barrier::ALL[r.original as usize].mnemonic();
            let suggestion = match (r.kind, r.suggestion) {
                (0, _) => "delete".to_string(),
                (_, Some(s)) => Barrier::ALL[s as usize].mnemonic().to_string(),
                (2, None) => "add-ordering".to_string(),
                (_, None) => "keep".to_string(),
            };
            let proof = if r.witness.is_empty() {
                if r.kind == 0 {
                    "outcomes-equal".to_string()
                } else {
                    format!("outcomes-preserved(-{})", r.outcomes[3])
                }
            } else {
                let steps: Vec<String> =
                    r.witness.iter().map(|(t, i)| format!("T{t}#{i}")).collect();
                format!("witness:{}", steps.join(">"))
            };
            let _ = write!(
                csv,
                "{},{},{},{},{},{},{},{}",
                escape(case),
                site,
                KIND_LABELS[r.kind as usize],
                escape(barrier),
                escape(&suggestion),
                u8::from(r.caveat),
                RANK_LABELS[r.rank_before as usize],
                RANK_LABELS[r.rank_after as usize],
            );
            for o in r.outcomes {
                let _ = write!(csv, ",{o}");
            }
            for s in r.saved {
                let _ = write!(csv, ",{s}");
            }
            let _ = writeln!(csv, ",{}", escape(&proof));
        }
    }
    csv
}

/// Run the lint grid under `ctx` and return `(csv text, decoded rows)`.
#[must_use]
pub fn lint_results(ctx: &SweepCtx, replay_iters: u64) -> (String, Vec<(String, Vec<LintRecord>)>) {
    // One cell per corpus case, keyed on the lint salt, the case name, the
    // full program text, and the replay depth.
    let mut sweep = SweepSpec::new("lint");
    let mut grid = Vec::new();
    for case in corpus() {
        let key = model_key(&("lint-v3", &case.name, &case.program, replay_iters));
        let name = case.name.clone();
        let id = sweep.cell(key, move || {
            encode_findings(&lint_records(&case, replay_iters))
        });
        grid.push((name, id));
    }
    let r = sweep.run(ctx);
    let rows: Vec<(String, Vec<LintRecord>)> = grid
        .into_iter()
        .map(|(name, id)| (name, decode_findings(r.get(id))))
        .collect();
    (render_lint_csv(&rows), rows)
}

/// `armbar run lint`: the full corpus through the analyzer, findings to
/// `results/lint.csv`, and a per-kind summary table (finding counts plus
/// total cycles saved per platform across all accepted rewrites).
#[must_use]
pub fn lint(ctx: &SweepCtx) -> Vec<Table> {
    // Wall time goes to stdout only: lint.csv must stay byte-identical
    // across hosts and worker counts (`armbar verify` diffs it).
    let t0 = std::time::Instant::now();
    let (csv, rows) = lint_results(ctx, REPLAY_ITERS);
    let wall = t0.elapsed();
    ctx.write_side_csv("lint.csv", &csv);
    let mut columns = vec!["findings".to_string()];
    columns.extend(platform_columns("saved"));
    let mut t = Table::new(
        "lint_summary",
        "armbar-lint verdicts and total simulated cycles saved",
        "verdict",
        columns,
        "count / cycles over the whole corpus",
    );
    for (code, label) in KIND_LABELS.iter().enumerate() {
        let mut count = 0u64;
        let mut saved = [0i64; 4];
        for (_, records) in &rows {
            for r in records.iter().filter(|r| r.kind as usize == code) {
                count += 1;
                for (acc, s) in saved.iter_mut().zip(r.saved) {
                    *acc += s;
                }
            }
        }
        let mut vals = vec![count as f64];
        vals.extend(saved.iter().map(|&s| s as f64));
        t.push_row(label, vals);
    }
    let total: usize = rows.iter().map(|(_, r)| r.len()).sum();
    let (visited, pruned) = rows
        .iter()
        .flat_map(|(_, r)| r.iter())
        .fold((0u64, 0u64), |(v, p), r| {
            (v + r.outcomes[4], p + r.outcomes[6])
        });
    println!(
        "  {} corpus cases, {total} findings -> results/lint.csv",
        rows.len()
    );
    println!("  exploration: {visited} states visited, {pruned} subtrees pruned, wall {wall:?}");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let records = vec![
            LintRecord {
                kind: 1,
                site: Some((0, 3)),
                original: barrier_code(Barrier::DsbFull),
                suggestion: Some(barrier_code(Barrier::DmbSt)),
                caveat: true,
                rank_before: 7,
                rank_after: 4,
                outcomes: [3, 3, 0, 0, 30, 22, 9, 6],
                saved: [8280, -172, 0, 4968],
                witness: Vec::new(),
            },
            LintRecord {
                kind: 2,
                site: None,
                original: barrier_code(Barrier::None),
                suggestion: None,
                caveat: false,
                rank_before: 0,
                rank_after: 0,
                outcomes: [4, 4, 0, 0, 25, 25, 7, 7],
                saved: [0; 4],
                witness: vec![(1, 1), (0, 1), (1, 0), (0, 0)],
            },
        ];
        assert_eq!(decode_findings(&encode_findings(&records)), records);
        assert_eq!(decode_findings(&encode_findings(&[])), Vec::new());
    }

    #[test]
    fn csv_has_header_and_stable_shape() {
        let rows = vec![(
            "MP+x".to_string(),
            vec![LintRecord {
                kind: 0,
                site: Some((0, 1)),
                original: barrier_code(Barrier::DmbSt),
                suggestion: None,
                caveat: false,
                rank_before: 4,
                rank_after: 0,
                outcomes: [3, 3, 0, 0, 30, 22, 9, 6],
                saved: [1, 2, 3, 4],
                witness: Vec::new(),
            }],
        )];
        let csv = render_lint_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("case,site,kind,barrier,suggestion"));
        assert!(lines[0].ends_with("proof"));
        assert!(lines[1].contains("MP+x,T0#1,redundant,DMB st,delete"));
        assert!(lines[1].ends_with("outcomes-equal"));
        let cols = lines[0].split(',').count();
        assert_eq!(lines[1].split(',').count(), cols);
    }

    #[test]
    fn witness_proof_renders_step_chain() {
        let rows = vec![(
            "c".to_string(),
            vec![LintRecord {
                kind: 3,
                site: Some((1, 1)),
                original: barrier_code(Barrier::DmbLd),
                suggestion: None,
                caveat: false,
                rank_before: 2,
                rank_after: 2,
                outcomes: [3, 4, 1, 0, 30, 25, 9, 8],
                saved: [0; 4],
                witness: vec![(1, 2), (0, 0)],
            }],
        )];
        assert!(render_lint_csv(&rows).contains("witness:T1#2>T0#0"));
    }
}
