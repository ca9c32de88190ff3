//! The analyzer: classify every barrier site of a program and prove it.
//!
//! For each site the verdict pipeline is:
//!
//! 1. **Delete it** and re-run the exhaustive explorer. Removal only ever
//!    relaxes the ordering relation, so the mutated outcome set is a
//!    superset of the original; when it is *equal* the site is
//!    [`FindingKind::Redundant`] and the equality itself is the proof.
//! 2. Otherwise the site is **necessary**, and the first outcome the
//!    mutation admits yields a concrete [`Witness`] execution — the
//!    counterexample that would kill any removal suggestion.
//! 3. A necessary *fence* is then tested for [`FindingKind::OverStrong`]:
//!    the advisor's Table-3 recommendation for the ordering requirement
//!    the fence actually discharges is rewritten into the program
//!    ([`replace_fence`]) and re-verified — the substitute is suggested
//!    only when its outcome set adds nothing to the original's.
//! 4. Independently, when the program's intent predicate is reachable in
//!    the unmutated program, the case is [`FindingKind::Missing`] ordering
//!    and the witness interleaving is the diagnostic.
//!
//! Every emitted finding therefore carries a machine-checked [`Proof`];
//! nothing is reported on the advisor's word alone.

use std::sync::Arc;

use armbar_barriers::advisor::{recommend, Approach, Multiplicity, OrderReq};
use armbar_barriers::strength::cost_rank;
use armbar_barriers::{AccessType, Acquire, Barrier, CostRank};
use armbar_wmm::explore::explore;
use armbar_wmm::mutate::{
    barrier_sites, remove_site, replace_fence, rewrite_acquire, BarrierSite, SiteKind,
};
use armbar_wmm::witness::{find_witness, Witness};
use armbar_wmm::{MemoryModel, OutcomeDiff, OutcomeSet, Program};

use crate::corpus::LintCase;

/// The verdict classes `armbar lint` emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// Deleting the site provably changes nothing: the mutated program's
    /// outcome set equals the original's.
    Redundant,
    /// A cheaper approach discharges the same requirement: the rewritten
    /// program's outcome set adds nothing to the original's.
    OverStrong,
    /// The program's forbidden intent is reachable as-is: ordering is
    /// missing (racy), witness attached.
    Missing,
    /// The site is load-bearing and no cheaper verified substitute was
    /// found; the witness shows what breaks without it.
    Necessary,
}

impl FindingKind {
    /// Every verdict class, in `lint_summary`'s row order.
    pub const ALL: [FindingKind; 4] = [
        FindingKind::Redundant,
        FindingKind::OverStrong,
        FindingKind::Missing,
        FindingKind::Necessary,
    ];

    /// Stable lowercase label used in reports and `lint.csv`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::Redundant => "redundant",
            FindingKind::OverStrong => "over-strong",
            FindingKind::Missing => "missing",
            FindingKind::Necessary => "necessary",
        }
    }
}

/// The machine-checked artifact backing a [`Finding`].
#[derive(Debug, Clone)]
pub enum Proof {
    /// Outcome sets are identical (removal changes nothing). Carries the
    /// explorer's state counts for the base and mutated runs.
    OutcomesEqual {
        /// DFS states of the original program.
        states_base: usize,
        /// DFS states of the mutated program.
        states_mutated: usize,
    },
    /// The rewritten program admits no outcome the original forbids
    /// (`added == 0`); it may shrink the set (`removed` outcomes fewer).
    OutcomesPreserved {
        /// Outcomes of the original that the rewrite no longer reaches.
        removed: usize,
    },
    /// A concrete execution reaching the outcome in question.
    CounterExample(Witness),
}

/// One verdict about one site (or, for [`FindingKind::Missing`], about a
/// whole case).
pub struct Finding {
    /// Corpus case name.
    pub case: String,
    /// The site, `None` for case-level missing-ordering findings.
    pub site: Option<BarrierSite>,
    /// Verdict.
    pub kind: FindingKind,
    /// The approach currently at the site (`Barrier::None` when missing).
    pub original: Barrier,
    /// Suggested replacement: `Barrier::None` = delete (redundant),
    /// `Some` cheaper approach (over-strong), `None` = keep / add ordering.
    pub suggestion: Option<Barrier>,
    /// The suggestion carries the advisor's measure-first caveat (STLR).
    pub caveat: bool,
    /// Cost band of the original approach.
    pub rank_before: CostRank,
    /// Cost band after applying the suggestion (unchanged when none).
    pub rank_after: CostRank,
    /// Outcome/state counts: original program.
    pub outcomes_base: usize,
    /// Outcome count after the suggested mutation (base when none).
    pub outcomes_after: usize,
    /// Outcomes the mutation would add (always 0 for emitted suggestions
    /// on redundant/over-strong; positive for the necessary-site
    /// counterexample diff).
    pub added: usize,
    /// Outcomes the mutation removes.
    pub removed: usize,
    /// DFS states: original program.
    pub states_base: usize,
    /// DFS states after the mutation (base when none).
    pub states_after: usize,
    /// Subtrees the explorer pruned on the original program (sleep-set
    /// DPOR skips + visited-set hits; deterministic, like `states_base`).
    pub pruned_base: usize,
    /// Subtrees pruned on the mutated program (base when none).
    pub pruned_after: usize,
    /// The artifact that proves the verdict.
    pub proof: Proof,
    /// The program with the suggestion applied (redundant/over-strong
    /// only) — what the replay harness simulates.
    pub rewritten: Option<Program>,
}

impl Finding {
    /// The verdict `kind` on `site` (`None`: the case as a whole) as the
    /// explorer measured it: `base` is the original program's outcome
    /// set, `mutated` the set after the mutation that decided the verdict
    /// (`base` itself when there was none) and `diff` their difference.
    /// Carries no suggestion; [`Finding::suggesting`] adds one.
    fn new(
        case: &LintCase,
        site: Option<BarrierSite>,
        kind: FindingKind,
        base: &OutcomeSet,
        mutated: &OutcomeSet,
        diff: &OutcomeDiff,
        proof: Proof,
    ) -> Finding {
        let original = site.map_or(Barrier::None, |s| s.kind.as_barrier());
        Finding {
            case: case.name.clone(),
            site,
            kind,
            original,
            suggestion: None,
            caveat: false,
            rank_before: cost_rank(original),
            rank_after: cost_rank(original),
            outcomes_base: base.len(),
            outcomes_after: mutated.len(),
            added: diff.added.len(),
            removed: diff.removed.len(),
            states_base: base.states_visited,
            states_after: mutated.states_visited,
            pruned_base: base.states_pruned,
            pruned_after: mutated.states_pruned,
            proof,
            rewritten: None,
        }
    }

    /// This finding, suggesting `to` (`Barrier::None`: delete the site) as
    /// applied in `rewritten`.
    fn suggesting(self, to: Barrier, caveat: bool, rewritten: Program) -> Finding {
        Finding {
            suggestion: Some(to),
            caveat,
            rank_after: cost_rank(to),
            rewritten: Some(rewritten),
            ..self
        }
    }

    /// `T0#1`-style site label, `-` for case-level findings.
    #[must_use]
    pub fn site_label(&self) -> String {
        self.site
            .map_or_else(|| "-".to_string(), |s| format!("T{}#{}", s.tid, s.idx))
    }

    /// Compact `steps>steps` rendering of a witness proof, empty for
    /// equality proofs (`lint.csv`'s proof column).
    #[must_use]
    pub fn proof_label(&self) -> String {
        match &self.proof {
            Proof::OutcomesEqual { .. } => "outcomes-equal".to_string(),
            Proof::OutcomesPreserved { removed } => format!("outcomes-preserved(-{removed})"),
            Proof::CounterExample(w) => {
                let steps: Vec<String> = w
                    .steps
                    .iter()
                    .map(|s| format!("T{}#{}", s.tid, s.idx))
                    .collect();
                format!("witness:{}", steps.join(">"))
            }
        }
    }
}

/// The ordering requirement a fence at `site` discharges, derived from
/// the accesses around it: the earlier side is the access class before
/// the fence in program order, the later side the class after it
/// (mixed classes become the table's `Any`). `None` when the fence has
/// no access on one side — it orders nothing and will already have been
/// caught as redundant.
fn fence_requirement(program: &Program, site: BarrierSite) -> Option<OrderReq> {
    let instrs = &program.threads[site.tid].instrs;
    let side = |range: &mut dyn Iterator<Item = usize>| -> (Option<AccessType>, usize) {
        let mut kinds = Vec::new();
        for i in range {
            if let Some(t) = instrs[i].access_type() {
                kinds.push(t);
            }
        }
        let uniform = kinds
            .iter()
            .all(|&k| k == kinds[0])
            .then(|| kinds.first().copied())
            .flatten();
        (uniform, kinds.len())
    };
    let (from, n_from) = side(&mut (0..site.idx));
    let (to, n_to) = side(&mut (site.idx + 1..instrs.len()));
    if n_from == 0 || n_to == 0 {
        return None;
    }
    let deps_feasible = instrs[..site.idx]
        .iter()
        .any(|i| matches!(i.access_type(), Some(AccessType::Load)));
    Some(OrderReq {
        from,
        to,
        to_multiplicity: if n_to == 1 {
            Multiplicity::One
        } else {
            Multiplicity::Many
        },
        deps_feasible,
        // A fence's surroundings cannot show whether SC ordering is needed,
        // so the advisor is queried conservatively; RCpc enters through the
        // dedicated acquire-site downgrade below, which proves equality.
        sc_required: true,
    })
}

/// Advisor candidates for `req` that are strictly cheaper than `orig`,
/// cheapest first, with the measure-first caveat preserved.
fn cheaper_candidates(req: OrderReq, orig: Barrier) -> Vec<(Barrier, bool)> {
    let rec = recommend(req);
    let mut out: Vec<(Barrier, bool)> = Vec::new();
    for a in rec.preferred.iter().chain(&rec.alternatives) {
        let (b, caveat) = match a {
            Approach::Use(b) => (*b, false),
            Approach::MeasureAgainst { candidate, .. } => (*candidate, true),
        };
        if cost_rank(b) < cost_rank(orig) && !out.iter().any(|(x, _)| *x == b) {
            out.push((b, caveat));
        }
    }
    out.sort_by_key(|(b, _)| cost_rank(*b));
    out
}

/// The exploration backend `analyze_case_with` runs: same signature as
/// [`explore`]. Tests substitute a recording explorer to see every
/// outcome set the pipeline compares.
pub type ExploreFn = fn(&Program, MemoryModel) -> Arc<OutcomeSet>;

/// Analyze one case: every site classified, plus the case-level missing
/// verdict, in deterministic (site, then kind) order. Uses the default
/// (memoized DPOR) explorer.
#[must_use]
pub fn analyze_case(case: &LintCase) -> Vec<Finding> {
    analyze_case_with(case, explore)
}

/// [`analyze_case`] with an explicit exploration backend.
#[must_use]
pub fn analyze_case_with(case: &LintCase, explorer: ExploreFn) -> Vec<Finding> {
    let model = MemoryModel::ArmWmm;
    let base = explorer(&case.program, model);
    let verdict = |site, kind, mutated: &OutcomeSet, diff: &OutcomeDiff, proof| {
        Finding::new(case, site, kind, &base, mutated, diff, proof)
    };
    let mut findings = Vec::new();

    // Case-level: is the forbidden intent reachable right now?
    if let Some(forbidden) = &case.forbidden {
        if base.any(|o| forbidden(o)) {
            let w = find_witness(&case.program, model, |o| forbidden(o))
                .expect("explorer says reachable, witness search must agree");
            debug_assert_eq!(
                w.replay(&case.program, model).as_ref(),
                Some(&w.outcome),
                "missing-ordering witness must replay"
            );
            let (unchanged, proof) = (OutcomeDiff::default(), Proof::CounterExample(w));
            let found = verdict(None, FindingKind::Missing, &base, &unchanged, proof);
            findings.push(found);
        }
    }

    for site in barrier_sites(&case.program) {
        let orig = site.kind.as_barrier();
        let cut = remove_site(&case.program, site);
        let cut_set = explorer(&cut, model);
        let diff = base.diff(&cut_set);
        debug_assert!(
            diff.removed.is_empty(),
            "removal must only relax the outcome set"
        );
        if diff.is_equal() {
            let proof = Proof::OutcomesEqual {
                states_base: base.states_visited,
                states_mutated: cut_set.states_visited,
            };
            let found = verdict(Some(site), FindingKind::Redundant, &cut_set, &diff, proof);
            findings.push(found.suggesting(Barrier::None, false, cut));
            continue;
        }

        // Over-strong? The cheaper substitutes worth proving, cheapest
        // first: for a fence, the advisor's candidates for the requirement
        // it discharges; for an RCsc acquire, LDAPR (keeping
        // acquire-vs-younger ordering, dropping only the
        // earlier-release-before-this-load rule).
        let substitutes: Vec<(Barrier, bool, Program)> = match site.kind {
            SiteKind::Fence(_) => fence_requirement(&case.program, site)
                .map_or_else(Vec::new, |req| cheaper_candidates(req, orig))
                .into_iter()
                .filter_map(|(cand, caveat)| {
                    Some((cand, caveat, replace_fence(&case.program, site, cand)?))
                })
                .collect(),
            SiteKind::Acquire => rewrite_acquire(&case.program, site, Acquire::Pc)
                .map(|rewritten| (Barrier::Ldapr, false, rewritten))
                .into_iter()
                .collect(),
            _ => Vec::new(),
        };
        let substituted = substitutes
            .into_iter()
            .find_map(|(cand, caveat, rewritten)| {
                let sub_set = explorer(&rewritten, model);
                let sub_diff = base.diff(&sub_set);
                if !sub_diff.added.is_empty() {
                    return None; // substitute would widen — rejected.
                }
                // Weakening LDAR to LDAPR can only grow the set, so an empty
                // diff there is full equality, not mere preservation.
                let proof = if site.kind == SiteKind::Acquire {
                    debug_assert!(sub_diff.removed.is_empty());
                    Proof::OutcomesEqual {
                        states_base: base.states_visited,
                        states_mutated: sub_set.states_visited,
                    }
                } else {
                    Proof::OutcomesPreserved {
                        removed: sub_diff.removed.len(),
                    }
                };
                let found = verdict(
                    Some(site),
                    FindingKind::OverStrong,
                    &sub_set,
                    &sub_diff,
                    proof,
                );
                Some(found.suggesting(cand, caveat, rewritten))
            });

        // Necessary otherwise. The first (canonically smallest)
        // newly-admitted outcome, executed, is the counterexample that
        // kills removal.
        findings.push(substituted.unwrap_or_else(|| {
            let witness = find_witness(&cut, model, |o| *o == diff.added[0])
                .expect("added outcome must be reachable in the mutated program");
            debug_assert_eq!(
                witness.replay(&cut, model).as_ref(),
                Some(&witness.outcome),
                "kill witness must replay on the mutated program"
            );
            let proof = Proof::CounterExample(witness);
            verdict(Some(site), FindingKind::Necessary, &cut_set, &diff, proof)
        }));
    }
    findings
}

/// Analyze the whole corpus in corpus order.
#[must_use]
pub fn analyze_corpus(cases: &[LintCase]) -> Vec<Finding> {
    cases.iter().flat_map(analyze_case).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::corpus;
    use armbar_wmm::litmus::message_passing;

    fn case_of(t: armbar_wmm::LitmusTest) -> LintCase {
        LintCase {
            name: t.name,
            program: t.program,
            forbidden: Some(t.relaxed),
        }
    }

    #[test]
    fn broken_mp_is_missing_with_witness() {
        let findings = analyze_case(&case_of(message_passing(Barrier::None, Barrier::None)));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::Missing);
        assert!(matches!(findings[0].proof, Proof::CounterExample(_)));
    }

    #[test]
    fn minimal_mp_is_all_necessary() {
        // DMB st + ADDR DEP is already the cheapest verified placement:
        // nothing is redundant, nothing cheaper substitutes.
        let findings = analyze_case(&case_of(message_passing(Barrier::DmbSt, Barrier::AddrDep)));
        assert!(findings.iter().all(|f| f.kind == FindingKind::Necessary));
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn dsb_mp_is_over_strong_on_both_sides() {
        let findings = analyze_case(&case_of(message_passing(
            Barrier::DsbFull,
            Barrier::DsbFull,
        )));
        let over: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.kind == FindingKind::OverStrong)
            .collect();
        assert_eq!(over.len(), 2, "both DSBs must downgrade");
        for f in over {
            assert!(f.rank_after < f.rank_before);
            assert_eq!(f.added, 0, "suggestion must not widen");
            assert!(f.rewritten.is_some());
        }
    }

    #[test]
    fn every_suggestion_carries_a_proof_artifact() {
        for f in analyze_corpus(&corpus()) {
            match f.kind {
                FindingKind::Redundant => {
                    assert!(matches!(f.proof, Proof::OutcomesEqual { .. }), "{}", f.case);
                }
                FindingKind::OverStrong => {
                    // Fence substitutions prove preservation; the LDAR ->
                    // LDAPR downgrade proves full outcome-set equality.
                    assert!(
                        matches!(
                            f.proof,
                            Proof::OutcomesPreserved { .. } | Proof::OutcomesEqual { .. }
                        ),
                        "{}",
                        f.case
                    );
                    assert_eq!(f.added, 0, "{}", f.case);
                }
                FindingKind::Missing | FindingKind::Necessary => {
                    assert!(
                        matches!(f.proof, Proof::CounterExample(_)),
                        "{} needs a witness",
                        f.case
                    );
                }
            }
        }
    }

    #[test]
    fn delegation_handoff_ports_downgrade_with_proofs() {
        // The `dlock` corpus cases carry the fences the naive ports
        // shipped with; each must yield at least one accepted over-strong
        // rewrite (cheaper rank, rewritten program attached), and every
        // kept site must carry its witness — the lint never says
        // "necessary" without a counter-example.
        let dlock = [
            "fc-publication+dsb.st+dmb.ld",
            "ccsynch-status+dmb.full+dmb.full",
            "rcl-reqword+dsb.full+dmb.ld",
        ];
        let cases = corpus();
        for name in dlock {
            let case = cases
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("{name} missing from corpus"));
            let findings = analyze_case(case);
            let over: Vec<&Finding> = findings
                .iter()
                .filter(|f| f.kind == FindingKind::OverStrong)
                .collect();
            assert!(!over.is_empty(), "{name}: naive port must downgrade");
            for f in &over {
                assert!(f.rank_after < f.rank_before, "{name}: no saving");
                assert!(f.rewritten.is_some(), "{name}: rewrite missing");
                assert_eq!(f.added, 0, "{name}: rewrite widened");
            }
            for f in findings.iter().filter(|f| f.kind == FindingKind::Necessary) {
                assert!(
                    matches!(f.proof, Proof::CounterExample(_)),
                    "{name}: necessary verdict without witness"
                );
            }
        }
    }

    #[test]
    fn analysis_is_deterministic() {
        let cases = corpus();
        let a: Vec<String> = analyze_corpus(&cases)
            .iter()
            .map(|f| format!("{}:{}:{}", f.case, f.site_label(), f.kind.label()))
            .collect();
        let b: Vec<String> = analyze_corpus(&cases)
            .iter()
            .map(|f| format!("{}:{}:{}", f.case, f.site_label(), f.kind.label()))
            .collect();
        assert_eq!(a, b);
    }
}
