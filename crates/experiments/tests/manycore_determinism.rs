//! End-to-end guarantees of the `manycore` grid, at reduced depth:
//!
//! 1. **The ladder** — the grid CSV is byte-identical serially, on four
//!    workers, cold and warm (`armbar verify manycore` checks the
//!    full-depth `results/manycore.csv` the same way).
//! 2. **The crossover** — hierarchical beats centralized at ≥512 threads
//!    and loses at the smallest point, so the summary's ratio column
//!    actually crosses 1.0 somewhere in between.

use std::collections::HashMap;

use armbar_experiments::manycore::{manycore_grid, ManycoreRow};
use armbar_experiments::report::Table;
use armbar_experiments::sweep::{SweepCtx, SweepSpec};
use armbar_experiments::verify;
use armbar_simapps::BarrierFamily;

const ROUNDS: u64 = 2;

/// Cycles-per-round per (flavour, family, threads) grid point.
type PerRound = HashMap<(&'static str, BarrierFamily, usize), f64>;

/// Run the grid under `ctx` and return the CSV text plus each row's
/// cycles-per-round keyed by (flavour, family, threads).
fn grid_csv(ctx: &SweepCtx) -> (String, PerRound) {
    let mut sweep = SweepSpec::new("manycore-test");
    let rows: Vec<ManycoreRow> = manycore_grid(&mut sweep, ROUNDS);
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "manycore_test",
        "determinism fixture",
        "platform/family/threads",
        vec!["cycles/round".into(), "barriers/s".into(), "stalled".into()],
        "value",
    );
    let mut per_round = HashMap::new();
    for &(flavour, family, threads, cell) in &rows {
        let vals = r.get(cell);
        t.push_row(
            &format!("{flavour}/{}/{threads}", family.label()),
            vals.to_vec(),
        );
        per_round.insert((flavour, family, threads), vals[0]);
    }
    (t.csv(), per_round)
}

#[test]
fn hierarchical_crosses_centralized_as_threads_grow() {
    let (_, per_round) = grid_csv(&SweepCtx::serial_uncached());
    let get = |family, threads| per_round[&("manycore", family, threads)];
    for threads in [512, 1024] {
        let central = get(BarrierFamily::Centralized, threads);
        let hier = get(BarrierFamily::Hierarchical, threads);
        assert!(
            hier < central,
            "hierarchical must win at {threads} threads: {hier} vs {central}"
        );
    }
    let central_small = get(BarrierFamily::Centralized, 4);
    let hier_small = get(BarrierFamily::Hierarchical, 4);
    assert!(
        central_small <= hier_small,
        "centralized must win at 4 threads: {central_small} vs {hier_small}"
    );
}

#[test]
fn manycore_csv_is_byte_identical_on_every_rung() {
    let rungs = verify::ladder(|ctx| Ok(grid_csv(ctx).0)).expect("ladder holds");
    assert!(!rungs.value.is_empty());
    assert_eq!(rungs.cells, 36, "2 flavours × 6 thread counts × 3 families");
}
