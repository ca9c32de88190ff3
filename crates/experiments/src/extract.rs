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
//! Cell values are flat `f64` rows (every integer far below 2^53), so the
//! CSV is byte-identical across worker counts and warm reruns —
//! `armbar verify` diffs it against the committed reference.

use std::fmt::Write as _;

use armbar_barriers::native::ASM_CONTRACT;
use armbar_barriers::Barrier;
use armbar_extract::drift::{check_drift, NATIVE_SOURCE};
use armbar_extract::fixtures::{all, hand_built, lift_fixture};
use armbar_wmm::{explore, MemoryModel};

use crate::cache::{code_in, model_key};
use crate::report::Table;
use crate::sweep::{SweepCtx, SweepSpec};

/// One fixture's lift-and-compare result, in cache-encodable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixtureRecord {
    /// Threads in the lifted program.
    pub threads: u64,
    /// Total lifted instructions.
    pub instrs: u64,
    /// Declared symbols.
    pub symbols: u64,
    /// Outcome count of the lifted program under ARM.
    pub outcomes: u64,
    /// States the explorer visited for the lifted program.
    pub states: u64,
    /// Outcome count of the hand-built twin.
    pub outcomes_hand: u64,
    /// States visited for the hand-built twin.
    pub states_hand: u64,
    /// Lifted and hand-built outcome sets are equal.
    pub outcomes_equal: bool,
    /// Lifted program is instruction-for-instruction the twin.
    pub structurally_equal: bool,
}

/// One contract function's drift verdict, in cache-encodable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftRecord {
    /// Index into [`ASM_CONTRACT`].
    pub index: u8,
    /// Expected barrier, as an index into [`Barrier::ALL`].
    pub expected: u8,
    /// Lifted barrier (`None`: template missing or unclassifiable).
    pub lifted: Option<u8>,
}

impl DriftRecord {
    /// The wrapper still emits what it promises.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.lifted == Some(self.expected)
    }
}

fn barrier_code(b: Barrier) -> u8 {
    code_in(&Barrier::ALL, &b)
}

fn fixture_record(name: &str) -> FixtureRecord {
    let lifted = lift_fixture(name).unwrap_or_else(|e| panic!("fixture {name} must lift: {e}"));
    let hand = hand_built(name);
    let a = explore(&lifted.program, MemoryModel::ArmWmm);
    let b = explore(&hand, MemoryModel::ArmWmm);
    FixtureRecord {
        threads: lifted.program.threads.len() as u64,
        instrs: lifted.total_instrs() as u64,
        symbols: lifted.symbols.len() as u64,
        outcomes: a.outcomes.len() as u64,
        states: a.states_visited as u64,
        outcomes_hand: b.outcomes.len() as u64,
        states_hand: b.states_visited as u64,
        outcomes_equal: a.outcomes == b.outcomes,
        structurally_equal: lifted.program == hand,
    }
}

/// Encode a fixture record as a sweep-cell row.
#[must_use]
pub fn encode_fixture(r: &FixtureRecord) -> Vec<f64> {
    vec![
        r.threads as f64,
        r.instrs as f64,
        r.symbols as f64,
        r.outcomes as f64,
        r.states as f64,
        r.outcomes_hand as f64,
        r.states_hand as f64,
        f64::from(u8::from(r.outcomes_equal)),
        f64::from(u8::from(r.structurally_equal)),
    ]
}

/// Inverse of [`encode_fixture`].
///
/// # Panics
///
/// Panics on a malformed row (stale or foreign cache entry).
#[must_use]
pub fn decode_fixture(vals: &[f64]) -> FixtureRecord {
    assert_eq!(vals.len(), 9, "malformed extract fixture cell");
    FixtureRecord {
        threads: vals[0] as u64,
        instrs: vals[1] as u64,
        symbols: vals[2] as u64,
        outcomes: vals[3] as u64,
        states: vals[4] as u64,
        outcomes_hand: vals[5] as u64,
        states_hand: vals[6] as u64,
        outcomes_equal: vals[7] != 0.0,
        structurally_equal: vals[8] != 0.0,
    }
}

fn drift_records() -> (Vec<DriftRecord>, u64) {
    let report = check_drift(NATIVE_SOURCE, &ASM_CONTRACT);
    let records = report
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| DriftRecord {
            index: u8::try_from(i).expect("contract is tiny"),
            expected: barrier_code(row.expected),
            lifted: row.lifted.map(barrier_code),
        })
        .collect();
    (records, report.uncontracted.len() as u64)
}

/// Encode the drift cell: `[n, (index, expected, lifted)*, uncontracted]`.
#[must_use]
pub fn encode_drift(records: &[DriftRecord], uncontracted: u64) -> Vec<f64> {
    let mut v = vec![records.len() as f64];
    for r in records {
        v.push(f64::from(r.index));
        v.push(f64::from(r.expected));
        v.push(r.lifted.map_or(-1.0, f64::from));
    }
    v.push(uncontracted as f64);
    v
}

/// Inverse of [`encode_drift`].
///
/// # Panics
///
/// Panics on a malformed row (stale or foreign cache entry).
#[must_use]
pub fn decode_drift(vals: &[f64]) -> (Vec<DriftRecord>, u64) {
    let count = vals[0] as usize;
    assert_eq!(vals.len(), 2 + count * 3, "malformed extract drift cell");
    let records = (0..count)
        .map(|i| {
            let base = 1 + i * 3;
            let lifted = vals[base + 2];
            DriftRecord {
                index: vals[base] as u8,
                expected: vals[base + 1] as u8,
                lifted: (lifted >= 0.0).then_some(lifted as u8),
            }
        })
        .collect();
    (records, vals[1 + count * 3] as u64)
}

/// Render `extract.csv` from decoded rows (exposed for the determinism
/// test). One row per drift-checked wrapper, then one per fixture.
#[must_use]
pub fn render_extract_csv(
    fixtures: &[(String, FixtureRecord)],
    drift: &[DriftRecord],
    uncontracted: u64,
) -> String {
    let mut csv = String::from(
        "name,kind,status,expected,lifted,threads,instrs,symbols,outcomes,states,outcomes_hand,states_hand\n",
    );
    for r in drift {
        let function = ASM_CONTRACT[r.index as usize].0;
        let expected = Barrier::ALL[r.expected as usize].mnemonic();
        let lifted = r
            .lifted
            .map_or("-", |code| Barrier::ALL[code as usize].mnemonic());
        let status = if r.ok() { "ok" } else { "drift" };
        let _ = writeln!(
            csv,
            "{function},drift,{status},{expected},{lifted},-,-,-,-,-,-,-"
        );
    }
    let _ = writeln!(
        csv,
        "native.rs,drift-coverage,{},-,-,-,-,-,-,-,-,-",
        if uncontracted == 0 {
            "ok".to_string()
        } else {
            format!("uncontracted:{uncontracted}")
        }
    );
    for (name, r) in fixtures {
        let status = if r.outcomes_equal && r.structurally_equal {
            "equal"
        } else if r.outcomes_equal {
            "outcome-equal"
        } else {
            "diverged"
        };
        let _ = writeln!(
            csv,
            "{name},fixture,{status},-,-,{},{},{},{},{},{},{}",
            r.threads, r.instrs, r.symbols, r.outcomes, r.states, r.outcomes_hand, r.states_hand
        );
    }
    csv
}

/// Run the extract grid under `ctx` and return the CSV text plus decoded
/// rows.
#[must_use]
pub fn extract_results(
    ctx: &SweepCtx,
) -> (String, Vec<(String, FixtureRecord)>, Vec<DriftRecord>, u64) {
    // One cell per fixture plus the drift cell.
    let mut sweep = SweepSpec::new("extract");
    let mut fixture_cells = Vec::new();
    for (name, src) in all() {
        let key = model_key(&("extract-v1", name, src));
        let id = sweep.cell(key, move || encode_fixture(&fixture_record(name)));
        fixture_cells.push((name.to_string(), id));
    }
    let drift_id = sweep.cell(model_key(&("extract-drift-v1", NATIVE_SOURCE)), || {
        let (records, uncontracted) = drift_records();
        encode_drift(&records, uncontracted)
    });
    let r = sweep.run(ctx);
    let fixtures: Vec<(String, FixtureRecord)> = fixture_cells
        .into_iter()
        .map(|(name, id)| (name, decode_fixture(r.get(id))))
        .collect();
    let (drift, uncontracted) = decode_drift(r.get(drift_id));
    let csv = render_extract_csv(&fixtures, &drift, uncontracted);
    (csv, fixtures, drift, uncontracted)
}

/// `armbar run extract`: lift the `.s` corpus, prove it against the hand-built
/// twins, drift-check the native backend, and write `results/extract.csv`
/// plus a summary table.
#[must_use]
pub fn extract(ctx: &SweepCtx) -> Vec<Table> {
    let t0 = std::time::Instant::now();
    let (csv, fixtures, drift, uncontracted) = extract_results(ctx);
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
    for (name, r) in &fixtures {
        t.push_row(
            name,
            vec![
                r.threads as f64,
                r.instrs as f64,
                r.symbols as f64,
                r.outcomes as f64,
                r.states as f64,
                f64::from(u8::from(r.outcomes_equal && r.structurally_equal)),
            ],
        );
    }
    let drift_ok = drift.iter().filter(|r| r.ok()).count();
    println!(
        "  {} fixtures lifted, {}/{} asm! wrappers drift-free, {} uncontracted -> results/extract.csv",
        fixtures.len(),
        drift_ok,
        drift.len(),
        uncontracted
    );
    println!("  wall {wall:?}");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_encode_decode_roundtrip() {
        let r = FixtureRecord {
            threads: 2,
            instrs: 113,
            symbols: 17,
            outcomes: 42,
            states: 100_000,
            outcomes_hand: 42,
            states_hand: 100_000,
            outcomes_equal: true,
            structurally_equal: true,
        };
        assert_eq!(decode_fixture(&encode_fixture(&r)), r);
    }

    #[test]
    fn drift_encode_decode_roundtrip() {
        let records = vec![
            DriftRecord {
                index: 0,
                expected: 3,
                lifted: Some(3),
            },
            DriftRecord {
                index: 1,
                expected: 4,
                lifted: None,
            },
        ];
        assert_eq!(decode_drift(&encode_drift(&records, 2)), (records, 2));
    }

    #[test]
    fn csv_shape_is_stable() {
        let fixtures = vec![(
            "ticket_lock".to_string(),
            FixtureRecord {
                threads: 2,
                instrs: 18,
                symbols: 4,
                outcomes: 23,
                states: 500,
                outcomes_hand: 23,
                states_hand: 500,
                outcomes_equal: true,
                structurally_equal: true,
            },
        )];
        let drift = vec![DriftRecord {
            index: 0,
            expected: barrier_code(Barrier::DmbFull),
            lifted: Some(barrier_code(Barrier::DmbFull)),
        }];
        let csv = render_extract_csv(&fixtures, &drift, 0);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header + drift + coverage + fixture");
        let cols = lines[0].split(',').count();
        for line in &lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert!(lines[1].starts_with("dmb_full,drift,ok,DMB full,DMB full"));
        assert!(lines[2].starts_with("native.rs,drift-coverage,ok"));
        assert!(lines[3].starts_with("ticket_lock,fixture,equal,-,-,2,18,4,23,500,23,500"));
    }

    #[test]
    fn the_shipped_backend_is_drift_free() {
        let (records, uncontracted) = drift_records();
        assert_eq!(uncontracted, 0);
        assert!(records.iter().all(DriftRecord::ok));
        assert_eq!(records.len(), ASM_CONTRACT.len());
    }
}
