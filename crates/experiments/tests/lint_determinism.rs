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
    let (_, rows) = &rungs.value;
    assert!(!rows.is_empty(), "corpus must produce rows");
    assert!(
        rows.iter().any(|(_, r)| !r.is_empty()),
        "corpus must produce findings"
    );
    assert_eq!(rungs.cells as usize, rows.len(), "one cell per corpus case");
}
