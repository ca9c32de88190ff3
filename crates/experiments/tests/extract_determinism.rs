//! The determinism gate for `extract`: `results/extract.csv` must be
//! byte-identical whether the grid ran serially, on four workers, or cold
//! or warm from the content-addressed run cache — and the verdicts it
//! records (drift-free backend, lifted == hand-built) must actually hold.

use armbar_barriers::native::ASM_CONTRACT;
use armbar_experiments::extract::extract_results;
use armbar_experiments::verify;
use armbar_extract::fixtures::all;

#[test]
fn extract_csv_is_byte_identical_across_workers_and_cache_state() {
    let rungs = verify::ladder(|ctx| Ok(extract_results(ctx))).expect("ladder holds");
    let (csv, cells) = &rungs.value;
    let committed = include_str!("../../../results/extract.csv");
    assert_eq!(csv.lines().next(), committed.lines().next());
    let (drift, fixtures) = cells.split_first().expect("the drift cell");
    assert_eq!(fixtures.len(), 3, "three checked-in fixtures");
    let contract = ASM_CONTRACT.len() as f64;
    assert_eq!(
        drift[..],
        [contract, contract, 0.0],
        "native backend drifted"
    );
    for ((name, _), cell) in all().iter().zip(fixtures) {
        assert_eq!(cell[5], 1.0, "{name}: lifted program differs from its twin");
        assert!(csv.contains(&format!("\n{name},fixture,equal,")), "{name}");
    }
    assert_eq!(
        rungs.cells as usize,
        fixtures.len() + 1,
        "fixtures + drift cell"
    );
    let columns = csv.lines().next().map(|h| h.split(',').count());
    assert!(csv.lines().all(|l| Some(l.split(',').count()) == columns));
    assert_eq!(csv.lines().count(), 1 + ASM_CONTRACT.len() + 1 + 3);
}
