//! The explorer memo shares one outcome list between the programs that
//! reach the same outcomes. Lint and synthesis on the unrolled MCS lock
//! explore dozens of placements, most of which reach one of a handful of
//! outcome sets, so the memo must hold fewer distinct lists than entries.
//! (A test binary of its own: the memo is process-wide.)

use armbar_analyze::{analyze_case, corpus, synthesize};
use armbar_wmm::explore_memo_footprint;

#[test]
fn mcs_placements_share_outcome_lists() {
    let case = corpus()
        .into_iter()
        .find(|c| c.name == "mcs-unrolled+dsb.full+stray-st")
        .expect("the corpus has the unrolled MCS case");
    let _ = analyze_case(&case);
    let _ = synthesize(&case);
    let footprint = explore_memo_footprint();
    assert!(
        footprint.entries > footprint.distinct_sets,
        "no two placements shared an outcome list: {footprint:?}"
    );
}
