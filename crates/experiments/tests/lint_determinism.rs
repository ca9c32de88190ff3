//! The determinism gate for `lint`: `results/lint.csv` must be
//! byte-identical whether the corpus sweep ran serially, on four workers,
//! or cold or warm from the content-addressed run cache.

use armbar_experiments::lint::lint_results;
use armbar_experiments::verify;

/// Shallow replay keeps the simulator phase quick; determinism must hold
/// at any depth.
const ITERS: u64 = 40;

#[test]
fn lint_csv_is_byte_identical_across_workers_and_cache_state() {
    let rungs = verify::ladder(|ctx| Ok(lint_results(ctx, ITERS))).expect("ladder holds");
    let (csv, cells) = &rungs.value;
    assert_eq!(
        rungs.cells as usize,
        cells.len(),
        "one cell per corpus case"
    );
    let mut lines = csv.lines();
    let header = lines.next().expect("header line");
    let committed = include_str!("../../../results/lint.csv");
    assert_eq!(Some(header), committed.lines().next());
    // Every cell counts the rows it wrote: after two exploration totals,
    // a finding count leads each kind's five numbers.
    let findings: f64 = cells.iter().flat_map(|c| c[2..].iter().step_by(5)).sum();
    let rows: Vec<&str> = lines.collect();
    assert!(!rows.is_empty(), "corpus must produce findings");
    assert_eq!(rows.len() as f64, findings);
    let columns = header.split(',').count();
    for row in &rows {
        assert_eq!(row.split(',').count(), columns, "ragged row: {row}");
    }
    assert!(
        rows.iter().any(|r| r.contains(",witness:T")),
        "counterexample proofs render their step chain"
    );
}
