//! Extension experiment (`armbar run ext-mca`): the paper's §6 future-work item —
//! "characterizing the performance impacts of order-preserving approaches
//! in the next-generation ARM processors" — projected on the simulator.
//!
//! The MCA profile ([`Platform::kunpeng916_mca`]) terminates barrier
//! transactions internally (ACE5 \[36\]). Comparing it against the measured
//! Kunpeng916 profile shows what the move to MCA buys: the DMB-family
//! *transaction* penalty disappears, DSB shrinks to its drain-local cost,
//! and the gap Pilot exploits narrows — the trend the paper's closing
//! discussion anticipates. The projection is conservative: barriers still
//! wait for their cores' outstanding drains (an MCA core could relax that
//! too), so the residual gap is an upper bound on next-gen barrier cost.

use armbar_barriers::Barrier;
use armbar_sim::Platform;
use armbar_simapps::abstract_model::{run_model_on, BarrierLoc, ModelSpec};

use crate::report::Table;
use crate::sweep::{CellId, SweepCtx, SweepSpec};

/// The MCA projection over the store→store model, cross-node placement.
#[must_use]
pub fn ext_mca(ctx: &SweepCtx) -> Vec<Table> {
    use BarrierLoc::{AfterOp1, BeforeOp2};
    let series: [(&str, Barrier, BarrierLoc); 6] = [
        ("No Barrier", Barrier::None, BeforeOp2),
        ("DMB full-1", Barrier::DmbFull, AfterOp1),
        ("DMB full-2", Barrier::DmbFull, BeforeOp2),
        ("DMB st-1", Barrier::DmbSt, AfterOp1),
        ("DSB full-1", Barrier::DsbFull, AfterOp1),
        ("STLR", Barrier::Stlr, BeforeOp2),
    ];
    let measured = Platform::kunpeng916();
    let mca = Platform::kunpeng916_mca();
    let mut sweep = SweepSpec::new("ext-mca");
    let rows: Vec<(&str, CellId, CellId)> = series
        .iter()
        .map(|&(name, barrier, loc)| {
            let spec = ModelSpec::store_store(barrier, loc, 150);
            let mut on = |platform: &Platform| {
                let key = sweep.key(platform, &("run-model-on", 0usize, 32usize, spec, 400u64));
                let platform = platform.clone();
                sweep.cell(key, move || {
                    vec![run_model_on(&platform, 0, 32, spec, 400).loops_per_sec]
                })
            };
            (name, on(&measured), on(&mca))
        })
        .collect();
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "ext_mca",
        "Future work (§6): store->store model on the measured vs MCA-projected server, cross-node",
        "series",
        vec![
            "Kunpeng916".into(),
            "Kunpeng916-MCA".into(),
            "MCA speedup".into(),
        ],
        "loops/s",
    );
    for (name, base, next) in rows {
        let (base, next) = (r.scalar(base), r.scalar(next));
        t.push_row(name, vec![base, next, next / base]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mca_collapses_the_barrier_penalty() {
        let tables = ext_mca(&SweepCtx::serial_uncached());
        let t = &tables[0];
        let row = |name: &str| {
            t.rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .expect("row")
        };
        let none = row("No Barrier");
        let full1 = row("DMB full-1");
        let dsb1 = row("DSB full-1");
        // On the measured profile the barrier bites…
        assert!(full1[0] < 0.95 * none[0]);
        // …on MCA the *transaction* cost collapses (the conservative model
        // still waits for outstanding drains, so the gap halves rather than
        // vanishes — see the module docs).
        assert!(full1[2] > 1.05, "MCA speeds DMB full up: {:?}", full1);
        let gap_measured = none[0] / full1[0];
        let gap_mca = none[1] / full1[1];
        assert!(
            gap_mca < gap_measured,
            "the barrier penalty shrinks under MCA"
        );
        assert!(
            dsb1[2] > 1.5,
            "DSB gains the most from internal termination"
        );
    }
}
