//! The lifted-vs-hand-built gate: for every checked-in `.s` fixture, the
//! program the lifter produces must have the *same outcome set* under the
//! ARM model as the retired `wmm::unroll` twin — proved with the
//! explorer, not by eyeballing. This is the property CI pins before the
//! lint corpus is allowed to use the lifted path as production.

use armbar_extract::fixtures::{all, hand_built, lift_fixture};
use armbar_wmm::{explore_dpor_uncached, MemoryModel};

#[test]
fn lifted_fixtures_match_hand_built_outcome_sets() {
    for (name, _) in all() {
        let lifted = lift_fixture(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let hand = hand_built(name);
        let a = explore_dpor_uncached(&lifted.program, MemoryModel::ArmWmm, 4);
        let b = explore_dpor_uncached(&hand, MemoryModel::ArmWmm, 4);
        assert_eq!(
            a.outcomes,
            b.outcomes,
            "{name}: lifted and hand-built outcome sets diverge: {:?}",
            a.diff(&b)
        );
    }
}

#[test]
fn lifted_fixtures_are_structurally_identical() {
    // Stronger than outcome equality, and expected to hold today: the
    // lifter's dense register allocation reproduces the builders
    // instruction-for-instruction. If a benign renumbering ever breaks
    // this, demote it — the outcome-set gate above is the contract.
    for (name, _) in all() {
        let lifted = lift_fixture(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(lifted.program, hand_built(name), "{name}");
    }
}

#[test]
fn fixture_shapes_are_what_the_corpus_documents() {
    let mcs = lift_fixture("mcs_handoff").unwrap();
    assert_eq!(mcs.program.threads.len(), 2);
    assert_eq!(
        mcs.total_instrs(),
        113,
        "112-instruction shape + stray fence"
    );
    let ticket = lift_fixture("ticket_lock").unwrap();
    assert_eq!(ticket.total_instrs(), 18);
    let pilot = lift_fixture("pilot_roundtrip").unwrap();
    assert_eq!(
        pilot.total_instrs(),
        70,
        "19-chain round-trip + seeded fence"
    );
}
