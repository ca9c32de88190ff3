//! The heaviest search behind the corpus's placement synthesis: the leaf
//! it settles on for the unrolled MCS lock, explored from scratch. Its
//! state counts are pinned, serial and on 4 workers, and the placement may
//! only remove outcomes from the case's own. (The Pilot case's leaf is
//! pinned in the root `tests/explorer_pins.rs`; this one takes seconds in
//! the dev profile, so it runs with the crate's own suite.)

use armbar_analyze::corpus::corpus;
use armbar_analyze::synth::synthesize;
use armbar_wmm::{explore, explore_dpor_uncached, MemoryModel};

const MODEL: MemoryModel = MemoryModel::ArmWmm;

#[test]
fn mcs_synthesized_best_placement_is_pinned() {
    let case = corpus()
        .into_iter()
        .find(|c| c.name == "mcs-unrolled+dsb.full+stray-st")
        .expect("the corpus has the unrolled MCS case");
    let best = synthesize(&case).best;
    let leaf = explore_dpor_uncached(&best.program, MODEL, 1);
    let counts = (leaf.states_visited, leaf.states_pruned);
    assert_eq!(counts, (205_869, 1_325_827), "{}", best.label());
    let parallel = explore_dpor_uncached(&best.program, MODEL, 4);
    assert_eq!(leaf, parallel, "4 workers changed the result");
    let added = explore(&case.program, MODEL).diff(&leaf).added;
    assert!(added.is_empty(), "the placement admits {added:?}");
}
