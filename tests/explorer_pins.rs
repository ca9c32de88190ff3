//! Tier-1 pins on the weak-memory explorer. `(outcomes, states_visited,
//! states_pruned)` are outputs of the search — `results/lint.csv` commits
//! the last two per mutant — not of the data structures that carry it, so
//! the implementation-sized corpus cases are pinned here to the triple,
//! serial and on 4 workers, and every litmus-sized corpus case to the
//! enumerative oracle. The state cuts the engine exists for, against the
//! oracle, are pinned exactly and each held to its floor on its own, so
//! that re-pinning a count cannot drop it. The test profile keeps
//! `debug_assert!`s, so every macro-step of these walks also checks the
//! engine's incrementally carried enabled set against the from-scratch one.

use std::sync::Arc;

use armbar_analyze::{corpus, synthesize, LintCase};
use armbar_barriers::Barrier;
use armbar_wmm::unroll::mcs_handoff_unrolled;
use armbar_wmm::{
    explore, explore_dpor_uncached, explore_oracle, MemoryModel, OutcomeSet, Program,
};

const MODEL: MemoryModel = MemoryModel::ArmWmm;

fn case(name: &str) -> LintCase {
    corpus()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("the corpus has no case {name}"))
}

fn instrs(p: &Program) -> usize {
    p.threads.iter().map(|t| t.instrs.len()).sum()
}

/// Explore serially (`explore`: the serial engine behind the memo, so a
/// program synthesis already explored is not walked a second time) and on
/// 4 workers; the two must agree on the whole set (outcomes, order, both
/// counters), which must be `want`.
fn assert_pinned(what: &str, program: &Program, want: (usize, usize, usize)) -> Arc<OutcomeSet> {
    let serial = explore(program, MODEL);
    let got = (serial.len(), serial.states_visited, serial.states_pruned);
    assert_eq!(got, want, "{what}: (outcomes, states, pruned)");
    let parallel = explore_dpor_uncached(program, MODEL, 4);
    assert_eq!(*serial, parallel, "{what}: 4 workers changed the result");
    serial
}

#[test]
fn implementation_sized_cases_are_pinned() {
    for (name, want) in [
        ("mcs-unrolled+dsb.full+stray-st", (2063, 3375, 2769)),
        ("pilot-unrolled+stray-st", (1176, 14415, 23290)),
    ] {
        let case = case(name);
        assert!(instrs(&case.program) > 64, "{name} left the wide engine");
        assert_pinned(name, &case.program, want);
    }
}

/// The placement synthesis settles on for Pilot deletes the stray fence and
/// the response's data dependency: the same 1 176 outcomes behind a search
/// six times the seed's.
#[test]
fn pilots_synthesized_best_placement_is_pinned() {
    let case = case("pilot-unrolled+stray-st");
    let best = synthesize(&case).best;
    assert_eq!(best.removed, 0, "{}", best.label());
    let leaf = assert_pinned(&best.label(), &best.program, (1176, 91940, 178_340));
    let added = explore(&case.program, MODEL).diff(&leaf).added;
    assert!(added.is_empty(), "the placement admits {added:?}");
}

/// Engine and oracle agree on every litmus-sized case at 1 and 4 workers;
/// the serial engine's state counts, summed, are pinned against the
/// oracle's, and no case costs the engine more states than the oracle.
#[test]
fn engine_equals_the_oracle_on_every_litmus_sized_case() {
    let cases: Vec<LintCase> = corpus()
        .into_iter()
        .filter(|c| instrs(&c.program) <= 64)
        .collect();
    assert_eq!(cases.len(), 26, "the litmus-sized corpus changed");
    let (mut all, mut mp) = ((0, 0), (0, 0));
    for case in &cases {
        let oracle = explore_oracle(&case.program, MODEL);
        let serial = explore_dpor_uncached(&case.program, MODEL, 1);
        let parallel = explore_dpor_uncached(&case.program, MODEL, 4);
        for (workers, engine) in [(1, &serial), (4, &parallel)] {
            assert_eq!(
                engine.outcomes, oracle.outcomes,
                "{}: engine on {workers} worker(s) left the oracle",
                case.name
            );
        }
        let states = (oracle.states_visited, serial.states_visited);
        assert!(states.1 <= states.0, "{}: {states:?}", case.name);
        all = (all.0 + states.0, all.1 + states.1);
        if case.name.starts_with("MP+") {
            mp = (mp.0 + states.0, mp.1 + states.1);
        }
    }
    assert_eq!(all, (2291, 141), "(oracle, engine) states over the corpus");
    assert_eq!(mp, (207, 31), "(oracle, engine) states over MP+…");
    assert!(all.1 < all.0, "the engine must visit fewer states overall");
    assert!(mp.0 >= 5 * mp.1, "MP-family reduction below the 5x floor");
}

/// The largest unrolled MCS hand-off the oracle still explores: past one
/// mask word, where the multi-word engine has to win.
#[test]
fn engine_beats_the_oracle_at_the_crossover() {
    let shape = mcs_handoff_unrolled(4, 3, 3, Barrier::DmbFull, Barrier::DmbFull);
    assert_eq!(instrs(&shape), 66);
    let oracle = explore_oracle(&shape, MODEL);
    let engine = explore_dpor_uncached(&shape, MODEL, 1);
    assert_eq!(engine.outcomes, oracle.outcomes);
    let states = (oracle.states_visited, engine.states_visited);
    assert_eq!(states, (50_477, 876), "(oracle, engine) states");
    assert!(states.1 < states.0, "the engine must win at the crossover");
}
