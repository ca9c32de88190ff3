//! The sweep engine's two core guarantees — worker-count independence and
//! the cache round-trip — checked end to end on the real Figure 3
//! Kunpeng916 workload by climbing `verify::ladder` with it.

use armbar_experiments::figures::fig3_grid;
use armbar_experiments::report::Table;
use armbar_experiments::sweep::{SweepCtx, SweepSpec};
use armbar_experiments::verify;
use armbar_simapps::bind::BindConfig;

/// The fig3(a) grid at reduced depth: full series list, trimmed nop axis.
const NOPS: [u32; 2] = [10, 120];
const ITERS: u64 = 60;

/// Run the Kunpeng916 same-node grid under `ctx` and return the CSV text.
fn grid_csv(ctx: &SweepCtx) -> String {
    let mut sweep = SweepSpec::new("fig3a-test");
    let rows = fig3_grid(&mut sweep, BindConfig::KunpengSameNode, &NOPS, ITERS);
    let cells = sweep.len();
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "fig3a_test",
        "determinism fixture",
        "series",
        NOPS.iter().map(|n| n.to_string()).collect(),
        "loops/s",
    );
    for (label, cell) in &rows {
        t.push_row(label, r.get(*cell).to_vec());
    }
    assert_eq!(t.rows.len(), cells, "one CSV row per declared cell");
    t.csv()
}

#[test]
fn fig3_grid_csv_is_byte_identical_on_every_rung() {
    let rungs = verify::ladder(|ctx| Ok(grid_csv(ctx))).expect("ladder holds");
    assert!(!rungs.value.is_empty());
    assert!(rungs.cells >= 10, "the grid declares one cell per series");
}
