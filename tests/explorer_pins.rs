//! Tier-1 pins on the weak-memory explorer. `(outcomes, states_visited,
//! states_pruned)` are outputs of the search — `results/lint.csv` commits
//! the last two per mutant — not of the data structures that carry it, so
//! the implementation-sized corpus cases are pinned here to the triple,
//! serial and on 4 workers, and every litmus-sized corpus case to the
//! enumerative oracle. The test profile keeps `debug_assert!`s, so every
//! macro-step of these walks also checks the engine's incrementally carried
//! enabled set against the from-scratch one.

use armbar_analyze::{corpus, synthesize, LintCase};
use armbar_wmm::{explore, explore_dpor_uncached, explore_oracle, MemoryModel, Program};

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
fn assert_pinned(what: &str, program: &Program, want: (usize, usize, usize)) {
    let serial = explore(program, MODEL);
    let got = (serial.len(), serial.states_visited, serial.states_pruned);
    assert_eq!(got, want, "{what}: (outcomes, states, pruned)");
    let parallel = explore_dpor_uncached(program, MODEL, 4);
    assert_eq!(*serial, parallel, "{what}: 4 workers changed the result");
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
    let best = synthesize(&case("pilot-unrolled+stray-st")).best;
    assert_eq!(best.removed, 0, "{}", best.label());
    assert_pinned(&best.label(), &best.program, (1176, 91940, 178_340));
}

#[test]
fn engine_equals_the_oracle_on_every_litmus_sized_case() {
    let cases: Vec<LintCase> = corpus()
        .into_iter()
        .filter(|c| instrs(&c.program) <= 64)
        .collect();
    assert!(cases.len() >= 26, "the litmus-sized corpus shrank");
    for case in &cases {
        let oracle = explore_oracle(&case.program, MODEL);
        for workers in [1, 4] {
            let engine = explore_dpor_uncached(&case.program, MODEL, workers);
            assert_eq!(
                engine.outcomes, oracle.outcomes,
                "{}: engine on {workers} worker(s) left the oracle",
                case.name
            );
        }
    }
}
