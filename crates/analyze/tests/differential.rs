//! Corpus-wide differential suite: the DPOR engine vs the enumerative oracle
//! on every lint-corpus program and every barrier-site cut the lint
//! actually explores, plus random barrier-mutants — a replay check over
//! every counterexample witness the analyzer emits, and
//! `OutcomeSet::diff` against its definition on every pair of sets lint
//! and synthesis compare.
//!
//! This is also where the acceptance criterion for the engine's state
//! reduction lives: summed over the MP-placement family, the engine must
//! visit at least 5x fewer states than the enumerative oracle.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use armbar_analyze::corpus::{corpus, LintCase};
use armbar_analyze::lint::{analyze_case_with, analyze_corpus, Proof};
use armbar_analyze::synth::synthesize_with;
use armbar_wmm::mutate::{barrier_sites, remove_site};
use armbar_wmm::{
    explore, explore_oracle, explore_uncached, MemoryModel, Outcome, OutcomeSet, Program,
};

const MODEL: MemoryModel = MemoryModel::ArmWmm;

/// The enumerative oracle is the differential reference only where it is
/// tractable: litmus-sized cases. Implementation-sized corpus cases
/// (above one mask word) are held to monotonicity under cuts here and
/// against the oracle on purpose-built shapes in `armbar-wmm`'s
/// `large_programs` suite.
fn litmus_sized(p: &Program) -> bool {
    p.threads.iter().map(|t| t.instrs.len()).sum::<usize>() <= 64
}

/// The engine vs the oracle; returns (oracle, engine).
fn check(p: &Program, what: &str) -> (OutcomeSet, OutcomeSet) {
    let oracle = explore_oracle(p, MODEL);
    let engine = explore_uncached(p, MODEL);
    assert_eq!(
        engine.outcomes, oracle.outcomes,
        "{what}: engine outcome set diverged from oracle"
    );
    (oracle, engine)
}

#[test]
fn corpus_and_all_cuts_differential() {
    for case in corpus() {
        if !litmus_sized(&case.program) {
            continue;
        }
        check(&case.program, &case.name);
        for site in barrier_sites(&case.program) {
            let cut = remove_site(&case.program, site);
            check(
                &cut,
                &format!("{} cut T{}#{}", case.name, site.tid, site.idx),
            );
        }
    }
}

#[test]
fn implementation_sized_corpus_cuts_only_relax() {
    // The big cases skip the oracle but not the engine's own invariants
    // (live `debug_assert!`s on every walk): a barrier-site cut only drops
    // ordering edges, so every outcome of the case stays reachable.
    let mut seen = 0usize;
    for case in corpus() {
        if litmus_sized(&case.program) {
            continue;
        }
        seen += 1;
        let base = explore_uncached(&case.program, MODEL);
        assert!(base.states_visited > 0);
        for site in barrier_sites(&case.program) {
            let cut = explore_uncached(&remove_site(&case.program, site), MODEL);
            let lost = base.diff(&cut).removed;
            assert!(
                lost.is_empty(),
                "{} {site:?}: the cut loses {lost:?}",
                case.name
            );
        }
    }
    assert!(seen >= 2, "corpus lost its implementation-sized cases");
}

#[test]
fn mp_family_state_reduction_is_at_least_5x() {
    let mut oracle_total = 0usize;
    let mut engine_total = 0usize;
    for case in corpus() {
        if !case.name.starts_with("MP+") {
            continue;
        }
        let (oracle, engine) = check(&case.program, &case.name);
        println!(
            "{:32} oracle {:5} engine {:5}",
            case.name, oracle.states_visited, engine.states_visited
        );
        oracle_total += oracle.states_visited;
        engine_total += engine.states_visited;
    }
    assert!(oracle_total > 0, "no MP+ cases in corpus?");
    let ratio = oracle_total as f64 / engine_total as f64;
    println!("MP family: oracle {oracle_total} vs engine {engine_total} states ({ratio:.1}x)");
    assert!(
        ratio >= 5.0,
        "MP-family state reduction {ratio:.2}x below the 5x acceptance bar \
         (oracle {oracle_total}, engine {engine_total})"
    );
}

#[test]
fn every_counterexample_witness_replays() {
    let cases = corpus();
    let findings = analyze_corpus(&cases);
    let mut replayed = 0usize;
    for f in &findings {
        let Proof::CounterExample(w) = &f.proof else {
            continue;
        };
        let case = cases
            .iter()
            .find(|c| c.name == f.case)
            .expect("finding names a corpus case");
        // Missing-ordering witnesses run on the case itself; necessary-site
        // witnesses run on the program with the site cut out.
        let program = match f.site {
            None => case.program.clone(),
            Some(site) => remove_site(&case.program, site),
        };
        assert_eq!(
            w.replay(&program, MODEL).as_ref(),
            Some(&w.outcome),
            "{} {}: witness does not replay to its claimed outcome",
            f.case,
            f.site_label()
        );
        replayed += 1;
    }
    assert!(replayed > 0, "corpus produced no counterexample witnesses");
}

thread_local! {
    /// Every set [`recording`] handed out on this thread, in call order.
    static EXPLORED: RefCell<Vec<Arc<OutcomeSet>>> = const { RefCell::new(Vec::new()) };
}

/// The default explorer, keeping a handle on every set it returns.
fn recording(p: &Program, model: MemoryModel) -> Arc<OutcomeSet> {
    let set = explore(p, model);
    EXPLORED.with(|sets| sets.borrow_mut().push(Arc::clone(&set)));
    set
}

/// `base.diff(other)` by its definition — membership each way, in each
/// side's own iteration order, with no reliance on how either is sorted.
fn diff_by_definition(base: &OutcomeSet, other: &OutcomeSet) -> (Vec<Outcome>, Vec<Outcome>) {
    let mine: HashSet<&Outcome> = base.iter().collect();
    let theirs: HashSet<&Outcome> = other.iter().collect();
    let added = other.iter().filter(|o| !mine.contains(o));
    let removed = base.iter().filter(|o| !theirs.contains(o));
    (added.cloned().collect(), removed.cloned().collect())
}

/// Lint and synthesis both explore the case first and then diff every
/// mutant's set against that base: the merge diff must give each of those
/// pairs the definition's `added` and `removed`, content and order
/// (`added[0]` is the outcome lint's kill witness executes).
#[test]
fn every_diff_lint_and_synth_form_matches_the_definition() {
    let lint: fn(&LintCase) = |case| drop(analyze_case_with(case, recording));
    let synth: fn(&LintCase) = |case| drop(synthesize_with(case, recording));
    let (mut pairs, mut unequal) = (0usize, 0usize);
    for case in corpus() {
        for (pass, run) in [("lint", lint), ("synth", synth)] {
            EXPLORED.with(|sets| sets.borrow_mut().clear());
            run(&case);
            let sets = EXPLORED.with(|sets| sets.borrow().clone());
            let (base, mutants) = sets.split_first().expect("the case itself is explored");
            for mutant in mutants {
                let diff = base.diff(mutant);
                let (added, removed) = diff_by_definition(base, mutant);
                assert_eq!(diff.added, added, "{} {pass}: added", case.name);
                assert_eq!(diff.removed, removed, "{} {pass}: removed", case.name);
                pairs += 1;
                unequal += usize::from(!diff.is_equal());
            }
        }
    }
    assert!(pairs >= 200, "lint + synth compared only {pairs} pairs");
    assert!(unequal >= 20, "only {unequal} pairs differed at all");
}

/// Derive a random barrier-mutant of a corpus case by cutting `cuts`
/// pseudo-randomly chosen sites (re-enumerating sites after each cut so
/// indices stay valid).
fn mutant(case_idx: usize, cuts: usize, seed: u64) -> (String, Program) {
    let cases: Vec<_> = corpus()
        .into_iter()
        .filter(|c| litmus_sized(&c.program))
        .collect();
    let case = &cases[case_idx % cases.len()];
    let mut p = case.program.clone();
    for round in 0..cuts {
        let sites = barrier_sites(&p);
        if sites.is_empty() {
            break;
        }
        let pick = (seed.rotate_left(round as u32 * 7) as usize) % sites.len();
        p = remove_site(&p, sites[pick]);
    }
    (case.name.clone(), p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random barrier-mutants of corpus programs: engine == oracle on
    /// every one.
    #[test]
    fn random_corpus_mutants_differential(
        case_idx in 0usize..32,
        cuts in 0usize..4,
        seed in any::<u64>(),
    ) {
        let (name, p) = mutant(case_idx, cuts, seed);
        check(&p, &format!("mutant of {name} (cuts={cuts}, seed={seed:#x})"));
    }
}
