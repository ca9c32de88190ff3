//! End-to-end guarantees of the `attrib` grid, at reduced depth:
//!
//! 1. **The ladder** — the cause-share CSV is byte-identical serially, on
//!    four workers, cold and warm (`armbar verify attrib` checks the
//!    full-depth `results/attrib.csv` the same way).
//! 2. **Attribution invariant** — every cell's raw values satisfy
//!    `sum(causes) == sum(kinds)`, the stalled cycles.

use armbar_experiments::figures::attrib_grid;
use armbar_experiments::report::Table;
use armbar_experiments::sweep::{SweepCtx, SweepSpec};
use armbar_experiments::verify;
use armbar_sim::StallBreakdown;

const MESSAGES: u64 = 60;
const PER_THREAD: u64 = 12;

/// Run the grid under `ctx` and return the cause-share CSV text plus every
/// cell's raw values.
fn grid_csv(ctx: &SweepCtx) -> (String, Vec<Vec<f64>>) {
    let mut sweep = SweepSpec::new("attrib-test");
    let rows = attrib_grid(&mut sweep, MESSAGES, PER_THREAD);
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "attrib_test",
        "determinism fixture",
        "workload",
        StallBreakdown::CAUSE_LABELS
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        "share",
    );
    let mut raw = Vec::new();
    for (label, cell) in &rows {
        let vals = r.get(*cell);
        t.push_share_row(label, &vals[..StallBreakdown::CAUSE_LABELS.len()]);
        raw.push(vals.to_vec());
    }
    (t.csv(), raw)
}

#[test]
fn causes_and_kinds_sum_to_the_total_in_every_cell() {
    let (_, raw) = grid_csv(&SweepCtx::serial_uncached());
    assert_eq!(raw.len(), 9, "5 MP placements + 4 lock platforms");
    let mut stalled_somewhere = false;
    for vals in &raw {
        let (causes, kinds) = vals.split_at(StallBreakdown::CAUSE_LABELS.len());
        assert_eq!(kinds.len(), StallBreakdown::CHARGEABLE_KINDS.len());
        let total: f64 = causes.iter().sum();
        assert_eq!(kinds.iter().sum::<f64>(), total);
        stalled_somewhere |= total > 0.0;
    }
    assert!(
        stalled_somewhere,
        "conservatively fenced workloads must stall at least once"
    );
}

#[test]
fn attrib_csv_is_byte_identical_on_every_rung() {
    let rungs = verify::ladder(|ctx| Ok(grid_csv(ctx).0)).expect("ladder holds");
    assert!(!rungs.value.is_empty());
    assert_eq!(rungs.cells, 9, "one cell per workload row");
}
