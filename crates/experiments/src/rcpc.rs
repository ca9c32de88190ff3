//! `armbar run rcpc`: the LDAR/LDAPR question, measured — every litmus shape
//! that can distinguish RCsc from RCpc acquire (and the controls that
//! must not), in both flavours, swept through the exhaustive explorer and
//! the cycle-level simulator on all four platform profiles.
//!
//! One row per `(shape, flavour)` lands in `results/rcpc.csv`: the
//! ARM-model outcome count, whether the shape's relaxed (store-buffering)
//! observation is admitted, and the replay cost on each platform. The
//! distinguishing rows show LDAPR admitting exactly one extra outcome
//! while running cheaper wherever the acquire sits behind a same-thread
//! STLR; the controls show identical outcome sets, pinning the semantic
//! delta to the release-before-acquire rule and nothing else.

use armbar_analyze::replay::{platform_cycles, REPLAY_ITERS};
use armbar_barriers::{Acquire, Barrier};
use armbar_wmm::explore::explore;
use armbar_wmm::litmus::{
    isa2_rel_acq, message_passing, release_sequence_rel_acq, store_buffering_rel_acq, wrc_rel_acq,
};
use armbar_wmm::{LitmusTest, MemoryModel};

use crate::cache::model_key;
use crate::report::{platform_columns, Table};
use crate::sweep::{CellId, SweepCtx, SweepSpec};

/// The swept shapes: every RCpc/RCsc-distinguishing litmus pattern the
/// model knows, plus the non-distinguishing controls.
fn shapes(acquire: Acquire) -> Vec<LitmusTest> {
    vec![
        store_buffering_rel_acq(acquire),
        release_sequence_rel_acq(acquire),
        isa2_rel_acq(acquire),
        wrc_rel_acq(acquire),
        message_passing(
            Barrier::DmbSt,
            acquire.barrier().expect("sweep uses annotated loads"),
        ),
    ]
}

/// Declare the grid: one cell per `(shape, flavour)`, keyed on the
/// program text. Each cell returns `[outcomes, relaxed_allowed,
/// cycles(platform) x 4]`. Public so the determinism test can run the
/// grid at reduced depth.
pub fn rcpc_grid(sweep: &mut SweepSpec, replay_iters: u64) -> Vec<(String, CellId)> {
    let mut rows = Vec::new();
    for acquire in [Acquire::Sc, Acquire::Pc] {
        for test in shapes(acquire) {
            let key = model_key(&("rcpc", &test.name, &test.program, replay_iters));
            let name = test.name.clone();
            let id = sweep.cell(key, move || {
                let set = explore(&test.program, MemoryModel::ArmWmm);
                let mut vals = vec![
                    set.len() as f64,
                    f64::from(u8::from(set.any(|o| (test.relaxed)(o)))),
                ];
                let cycles = platform_cycles(&test.program, replay_iters);
                vals.extend(cycles.map(|c| c as f64));
                vals
            });
            rows.push((name, id));
        }
    }
    rows
}

/// `armbar run rcpc`: run the grid and shape the table for `results/rcpc.csv`.
#[must_use]
pub fn rcpc(ctx: &SweepCtx) -> Vec<Table> {
    let mut sweep = SweepSpec::new("rcpc");
    let rows = rcpc_grid(&mut sweep, REPLAY_ITERS);
    let r = sweep.run(ctx);
    let mut columns = vec!["outcomes".to_string(), "relaxed_allowed".to_string()];
    columns.extend(platform_columns("cycles"));
    let mut t = Table::new(
        "rcpc",
        "RCsc (LDAR) vs RCpc (LDAPR): ARM-model outcomes and replay cost per platform",
        "shape",
        columns,
        "outcome count / flag / cycles at 200 iterations",
    );
    for (label, id) in rows {
        t.push_row(&label, r.get(id).to_vec());
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunCache;

    /// The whole experiment at reduced depth: parallel equals serial
    /// byte-for-byte, and the semantic columns show the distinguishing
    /// shapes (and only those) gaining exactly the relaxed outcome.
    #[test]
    fn rcpc_grid_is_deterministic_and_distinguishes_correctly() {
        let run = |workers| {
            let mut sweep = SweepSpec::new("rcpc-test");
            let rows = rcpc_grid(&mut sweep, 20);
            let r = sweep.run(&SweepCtx::new(workers, RunCache::disabled()));
            rows.into_iter()
                .map(|(name, id)| (name, r.get(id).to_vec()))
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        assert_eq!(serial, run(4), "grid must not depend on worker count");

        let (sc, pc) = serial.split_at(serial.len() / 2);
        for ((sc_name, sc_vals), (pc_name, pc_vals)) in sc.iter().zip(pc) {
            let distinguishing = sc_name.starts_with("SB+stlr") || sc_name.starts_with("RelSeq");
            assert_eq!(
                sc_vals[1], 0.0,
                "{sc_name}: LDAR must forbid the relaxed outcome"
            );
            if distinguishing {
                assert_eq!(
                    pc_vals[1], 1.0,
                    "{pc_name}: LDAPR must admit the relaxed outcome"
                );
                assert!(
                    pc_vals[0] > sc_vals[0],
                    "{pc_name}: the admitted outcome must show up in the count"
                );
            } else {
                assert_eq!(
                    (pc_vals[0], pc_vals[1]),
                    (sc_vals[0], sc_vals[1]),
                    "{pc_name}: control shapes must not distinguish the flavours"
                );
            }
        }
    }
}
