//! The degenerate-case acceptance criterion for the synthesizer: every
//! single-site rewrite `armbar lint` accepts is a point in the joint
//! search space, so whole-program synthesis must always land at a
//! placement at least as cheap (by cost-rank score) as applying any one
//! lint suggestion alone — and never above the untouched seed.

use armbar_analyze::corpus::corpus;
use armbar_analyze::lint::analyze_case;
use armbar_analyze::synth::synthesize;
use armbar_barriers::{cost_rank, Barrier};

#[test]
fn synthesis_is_at_least_as_cheap_as_every_accepted_lint_rewrite() {
    for case in corpus() {
        let r = synthesize(&case);
        assert!(
            r.complete,
            "{}: search must run to completion on the shipped corpus",
            case.name
        );
        assert!(
            r.best.score <= r.seed.score,
            "{}: synthesis must never exceed the seed score",
            case.name
        );
        for f in analyze_case(&case) {
            if f.rewritten.is_none() {
                continue; // rejected or case-level finding: not a rewrite
            }
            // Score of the seed with exactly this one suggestion applied:
            // the site's rank drops from the original's to the
            // suggestion's (deletion = Free).
            let before = cost_rank(f.original) as u32;
            let after = cost_rank(f.suggestion.unwrap_or(Barrier::None)) as u32;
            let single = r.seed.score - before + after;
            assert!(
                r.best.score <= single,
                "{}: lint's single rewrite at {} scores {single} but synthesis stopped at {} ({})",
                case.name,
                f.site_label(),
                r.best.score,
                r.best.label()
            );
        }
    }
}
