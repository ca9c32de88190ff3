//! The determinism gate for `extract`: `results/extract.csv` must be
//! byte-identical whether the grid ran serially, on four workers, or cold
//! or warm from the content-addressed run cache — and the verdicts it
//! records (drift-free backend, lifted == hand-built) must actually hold.

use armbar_experiments::extract::extract_results;
use armbar_experiments::verify;

#[test]
fn extract_csv_is_byte_identical_across_workers_and_cache_state() {
    let rungs = verify::ladder(|ctx| Ok(extract_results(ctx))).expect("ladder holds");
    let (_, fixtures, drift, uncontracted) = &rungs.value;
    assert_eq!(fixtures.len(), 3, "three checked-in fixtures");
    assert_eq!(*uncontracted, 0, "every asm! wrapper must be contracted");
    assert!(drift.iter().all(|r| r.ok()), "native backend drifted");
    for (name, r) in fixtures {
        assert!(r.outcomes_equal, "{name}: outcome sets diverge");
        assert!(r.structurally_equal, "{name}: structure diverges");
    }
    assert_eq!(
        rungs.cells as usize,
        fixtures.len() + 1,
        "fixtures + drift cell"
    );
}
