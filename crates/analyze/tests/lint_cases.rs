//! The acceptance cases from the issue: a known-redundant barrier is
//! caught, a known-necessary barrier is not flagged (and its witness is
//! shown), and the lint proposes the dependency/Pilot-style rewrite for
//! MP with simulated cycle savings.

use armbar_analyze::corpus::corpus;
use armbar_analyze::lint::{analyze_case, analyze_corpus, FindingKind, Proof};
use armbar_analyze::replay::rewrite_savings;
use armbar_barriers::Barrier;
use armbar_wmm::SiteKind;

fn case(name: &str) -> armbar_analyze::LintCase {
    corpus()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("corpus case {name} missing"))
}

#[test]
fn known_redundant_stray_fence_is_caught_with_equality_proof() {
    let c = case("MP+dmb.st+dmb.ld+stray-st");
    let findings = analyze_case(&c);
    let red: Vec<_> = findings
        .iter()
        .filter(|f| f.kind == FindingKind::Redundant)
        .collect();
    assert_eq!(red.len(), 1, "exactly the stray trailing fence");
    let f = red[0];
    let site = f.site.expect("site-level finding");
    assert_eq!((site.tid, site.idx), (0, 3), "the trailing DMB st");
    assert_eq!(f.original, Barrier::DmbSt);
    assert!(matches!(f.proof, Proof::OutcomesEqual { .. }));
    assert_eq!(f.added, 0);
    assert_eq!(f.removed, 0);
    // And the load-bearing producer fence in the same program is NOT
    // flagged for deletion.
    assert!(findings.iter().any(|f| {
        f.kind == FindingKind::Necessary && f.site.is_some_and(|s| (s.tid, s.idx) == (0, 1))
    }));
}

#[test]
fn known_necessary_barrier_is_kept_and_its_witness_shows_the_break() {
    // MP with DMB st/LDAR placement: both sites are load-bearing (neither
    // may be deleted), but with RCpc modelled the consumer LDAR is no
    // longer *minimal* — nothing in one-directional MP needs the RCsc
    // release-before-acquire rule, so the lint downgrades it to LDAPR
    // with a full outcome-set-equality proof.
    let c = case("MP+DMB st+LDAR");
    let findings = analyze_case(&c);
    assert!(
        !findings.iter().any(|f| f.kind == FindingKind::Redundant),
        "neither site may be deleted"
    );

    let fence = findings
        .iter()
        .find(|f| f.kind == FindingKind::Necessary)
        .expect("producer fence stays necessary");
    assert_eq!(fence.original, Barrier::DmbSt);
    let Proof::CounterExample(w) = &fence.proof else {
        panic!("necessary verdicts must carry the kill witness");
    };
    // The witness reaches the relaxed outcome: flag seen, data stale.
    assert_eq!(w.outcome.reg(1, 0), 1);
    assert_ne!(w.outcome.reg(1, 1), 23);

    let ldar = findings
        .iter()
        .find(|f| f.site.is_some_and(|s| s.kind == SiteKind::Acquire))
        .expect("LDAR site analyzed");
    assert_eq!(ldar.kind, FindingKind::OverStrong);
    assert_eq!(ldar.original, Barrier::Ldar);
    assert_eq!(ldar.suggestion, Some(Barrier::Ldapr));
    assert!(ldar.rank_after < ldar.rank_before);
    assert_eq!((ldar.added, ldar.removed), (0, 0));
    assert!(matches!(ldar.proof, Proof::OutcomesEqual { .. }));
}

#[test]
fn release_then_reacquire_ldar_downgrade_saves_cycles_on_every_platform() {
    // The acceptance case: an LDAR issued while the thread's own STLR is
    // still draining pays the RCsc wait; LDAPR provably (outcome-set
    // equality) discharges the same ordering and skips the drain, so the
    // priced savings are positive on every platform profile.
    let c = case("rel-reacquire+stlr+ldar");
    let findings = analyze_case(&c);
    assert!(
        !findings.iter().any(|f| f.kind == FindingKind::Missing),
        "the idiom is correctly ordered as written"
    );
    let down = findings
        .iter()
        .find(|f| {
            f.kind == FindingKind::OverStrong && f.site.is_some_and(|s| (s.tid, s.idx) == (0, 2))
        })
        .expect("the re-acquiring LDAR must downgrade");
    assert_eq!(down.original, Barrier::Ldar);
    assert_eq!(down.suggestion, Some(Barrier::Ldapr));
    assert!(matches!(down.proof, Proof::OutcomesEqual { .. }));
    assert!(down.rewritten.is_some(), "verified rewrite attached");
    for saved in rewrite_savings(&c.program, std::slice::from_ref(down), 200)[0] {
        assert!(
            saved > 0,
            "LDAPR must beat LDAR behind an STLR, saved {saved}"
        );
    }
}

#[test]
fn mp_gets_the_dependency_rewrite_with_positive_simulated_savings() {
    // The Fig-6a "DMB ld - DMB st" placement: the consumer-side DMB ld
    // should become a free address dependency (the Pilot-style rewrite).
    let c = case("MP+DMB st+DMB ld");
    let findings = analyze_case(&c);
    let dep = findings
        .iter()
        .find(|f| f.kind == FindingKind::OverStrong)
        .expect("consumer fence must be over-strong");
    assert_eq!(dep.original, Barrier::DmbLd);
    assert_eq!(dep.suggestion, Some(Barrier::AddrDep));
    assert!(dep.rank_after < dep.rank_before);
    assert_eq!(dep.added, 0, "rewrite must not widen the outcome set");
    let rewritten = dep.rewritten.as_ref().expect("verified rewrite attached");
    // The fence is gone and the data load carries the bogus address dep.
    assert_eq!(rewritten.threads[1].instrs.len(), 2);
    for saved in rewrite_savings(&c.program, std::slice::from_ref(dep), 200)[0] {
        assert!(saved > 0, "dependency must beat DMB ld, saved {saved}");
    }
}

#[test]
fn racy_mp_reports_missing_ordering_with_witness() {
    let c = case("MP+No Barrier+No Barrier");
    let findings = analyze_case(&c);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].kind, FindingKind::Missing);
    let Proof::CounterExample(w) = &findings[0].proof else {
        panic!("missing findings carry the racy interleaving");
    };
    assert_eq!(w.outcome.reg(1, 0), 1);
    assert_ne!(w.outcome.reg(1, 1), 23);
}

#[test]
fn clean_pilot_case_produces_no_findings() {
    assert!(analyze_case(&case("MP+pilot")).is_empty());
}

#[test]
fn implementation_sized_mcs_case_downgrades_the_dsb_and_drops_the_stray() {
    // The 113-instruction unrolled MCS handoff runs through the same
    // pipeline as every litmus case — packed engine, no fallback. The
    // seeded DSB prologue must downgrade (a DMB discharges the same
    // publication ordering) and the stray trailing fence must go.
    let c = case("mcs-unrolled+dsb.full+stray-st");
    let findings = analyze_case(&c);
    assert!(
        !findings.iter().any(|f| f.kind == FindingKind::Missing),
        "the handoff is correctly ordered as written"
    );
    let dsb = findings
        .iter()
        .find(|f| f.original == Barrier::DsbFull)
        .expect("the seeded prologue DSB is analyzed");
    assert_eq!(dsb.kind, FindingKind::OverStrong);
    assert!(dsb.rank_after < dsb.rank_before);
    assert_eq!(dsb.added, 0, "downgrade must not widen the outcome set");
    let stray_idx = c.program.threads[1].instrs.len() - 1;
    let stray = findings
        .iter()
        .find(|f| f.site.is_some_and(|s| (s.tid, s.idx) == (1, stray_idx)))
        .expect("the stray trailing fence is analyzed");
    assert_eq!(stray.kind, FindingKind::Redundant);
    assert!(matches!(stray.proof, Proof::OutcomesEqual { .. }));
}

#[test]
fn implementation_sized_pilot_case_flags_only_the_stray_fence() {
    // 70 instructions, one fence — and coherence over the single-copy
    // atomic words makes it redundant, exactly the paper's Pilot point
    // lifted from litmus size to function size.
    let c = case("pilot-unrolled+stray-st");
    let findings = analyze_case(&c);
    // Two sites — the seeded stray fence and the responder's data
    // dependency — and coherence makes both redundant; in particular
    // nothing is missing: the round-trip is correct with no barrier at
    // all.
    assert!(
        findings.iter().all(|f| f.kind == FindingKind::Redundant),
        "every site must be redundant"
    );
    let stray = findings
        .iter()
        .find(|f| f.site.is_some_and(|s| (s.tid, s.idx) == (0, 10)))
        .expect("the seeded stray fence is analyzed");
    assert_eq!(stray.original, Barrier::DmbSt);
    assert!(matches!(stray.proof, Proof::OutcomesEqual { .. }));
}

#[test]
fn dsb_sites_always_downgrade_somewhere_in_the_corpus() {
    let findings = analyze_corpus(&corpus());
    assert!(findings.iter().any(|f| {
        f.kind == FindingKind::OverStrong
            && f.original == Barrier::DsbFull
            && f.suggestion == Some(Barrier::DmbSt)
    }));
    assert!(findings.iter().any(|f| {
        f.kind == FindingKind::OverStrong
            && f.original == Barrier::DsbFull
            && f.suggestion == Some(Barrier::DmbFull)
    }));
}
