//! The lint corpus: every [`Program`] `armbar lint` analyzes by default.
//!
//! Three families, mirroring the paper's measurement targets:
//!
//! * the **litmus battery** (the shapes of Table 1 and §3), restricted to
//!   the configurations whose relaxed outcome is *intended to be
//!   forbidden* — those carry an intent predicate the lint can check;
//! * **MP in every barrier placement** the producer/consumer experiment
//!   sweeps (Figure 6a), including the intentionally broken ones, which
//!   the lint must flag as racy;
//! * `wmm` encodings of the **simapps kernels**: ticket/MCS lock handoff
//!   and the Pilot channel, seeded with the over-strong barriers real code
//!   ships with (DSB where DMB suffices, DMB full where a dependency
//!   would do, a stray same-location fence Pilot makes redundant).
//!
//! The kernel family comes in two sizes: the litmus-sized ordering
//! skeletons above, and bounded-unrolled **implementation-sized** cases
//! (100+ instructions) that the multi-word packed engine explores
//! directly — no enumerative fallback anywhere in the corpus. The
//! implementation-sized programs are *lifted from real AArch64 text*: the
//! checked-in `.s` fixtures under `corpus/asm/`, via
//! [`armbar_extract::fixtures`]. The `armbar_wmm::unroll` builders that
//! used to construct them by hand survive only as differential fixtures
//! (`armbar-extract`'s equivalence tests prove the lifted programs'
//! outcome sets equal the hand-built twins'). New cases are appended at
//! the end so existing `lint.csv` rows keep their byte-identical order.

use armbar_barriers::Barrier;
use armbar_extract::fixtures::lift_fixture;
use armbar_wmm::battery::battery;
use armbar_wmm::litmus::{load_buffering, message_passing, pilot_message_passing, store_buffering};
use armbar_wmm::unroll::{
    mcs_payload_regs, ticket_last_grant_reg, ticket_payload_regs, MCS_PAYLOAD_BASE,
};
use armbar_wmm::{Instr, Outcome, Program, Thread};

/// An intent predicate: the outcome the author of the code considers a
/// bug (the test's *forbidden* outcome).
pub type Intent = Box<dyn Fn(&Outcome) -> bool + Send + Sync>;

/// One program under analysis, with its (optional) forbidden-outcome
/// intent. Without an intent the lint still classifies every barrier
/// site; it just cannot detect *missing* ordering.
pub struct LintCase {
    /// Unique, stable case name (keys `lint.csv` rows).
    pub name: String,
    /// The program.
    pub program: Program,
    /// The outcome the program must never produce, when known.
    pub forbidden: Option<Intent>,
}

fn thread(instrs: Vec<Instr>) -> Thread {
    Thread { instrs }
}

/// Ticket-lock handoff distilled to its ordering skeleton: the owner
/// publishes protected data then bumps the grant word; the waiter spins on
/// the grant and reads the data. `owner_fence`/`waiter_fence` are the
/// barriers the implementation placed.
fn lock_handoff(name: &str, owner_fence: Barrier, waiter_fence: Barrier) -> LintCase {
    let owner = vec![
        Instr::store(0, 41),
        Instr::Fence(owner_fence),
        Instr::store(1, 1),
    ];
    let waiter = vec![
        Instr::load(0, 1),
        Instr::Fence(waiter_fence),
        Instr::load(1, 0),
    ];
    LintCase {
        name: name.to_string(),
        program: Program {
            threads: vec![thread(owner), thread(waiter)],
            init: vec![],
        },
        forbidden: Some(Box::new(|o| o.reg(1, 0) == 1 && o.reg(1, 1) != 41)),
    }
}

/// The full corpus, in the deterministic order everything downstream
/// (human report, `lint.csv`, proofs) relies on.
#[must_use]
pub fn corpus() -> Vec<LintCase> {
    let mut cases = Vec::new();

    // -- Litmus battery: intended-forbidden configurations only. --------
    for (test, expected_allowed) in battery() {
        if expected_allowed {
            continue;
        }
        cases.push(LintCase {
            name: test.name,
            program: test.program,
            forbidden: Some(test.relaxed),
        });
    }

    // -- MP, all Figure-6a placements (producer barrier, consumer). -----
    let placements: [(Barrier, Barrier); 7] = [
        (Barrier::DmbFull, Barrier::DmbFull),
        (Barrier::DmbSt, Barrier::DmbFull),
        (Barrier::DmbSt, Barrier::DmbLd),
        (Barrier::DmbSt, Barrier::Ldar),
        (Barrier::Stlr, Barrier::DmbFull),
        (Barrier::None, Barrier::DmbLd),
        (Barrier::None, Barrier::None),
    ];
    for (producer, consumer) in placements {
        let t = message_passing(producer, consumer);
        cases.push(LintCase {
            name: t.name,
            program: t.program,
            forbidden: Some(t.relaxed),
        });
    }

    // DSB-everywhere MP: both sides downgradeable.
    let t = message_passing(Barrier::DsbFull, Barrier::DsbFull);
    cases.push(LintCase {
        name: t.name,
        program: t.program,
        forbidden: Some(t.relaxed),
    });

    // Known-redundant: correctly fenced MP with a stray trailing DMB st
    // behind the flag store — nothing after it to order.
    cases.push(LintCase {
        name: "MP+dmb.st+dmb.ld+stray-st".to_string(),
        program: Program {
            threads: vec![
                thread(vec![
                    Instr::store(0, 23),
                    Instr::Fence(Barrier::DmbSt),
                    Instr::store(1, 1),
                    Instr::Fence(Barrier::DmbSt),
                ]),
                thread(vec![
                    Instr::load(0, 1),
                    Instr::Fence(Barrier::DmbLd),
                    Instr::load(1, 0),
                ]),
            ],
            init: vec![],
        },
        forbidden: Some(Box::new(|o| o.reg(1, 0) == 1 && o.reg(1, 1) != 23)),
    });

    // SB with DSB: the sync barrier is over-strong, DMB full suffices.
    let t = store_buffering(Barrier::DsbFull);
    cases.push(LintCase {
        name: t.name,
        program: t.program,
        forbidden: Some(t.relaxed),
    });

    // LB with DMB ld: a bogus dependency discharges the same requirement
    // for free (Observation 6).
    let t = load_buffering(Barrier::DmbLd);
    cases.push(LintCase {
        name: t.name,
        program: t.program,
        forbidden: Some(t.relaxed),
    });

    // -- simapps kernels. ------------------------------------------------
    cases.push(lock_handoff(
        "ticket-handoff+dsb.full+dmb.ld",
        Barrier::DsbFull,
        Barrier::DmbLd,
    ));
    cases.push(lock_handoff(
        "mcs-handoff+dmb.full+dmb.full",
        Barrier::DmbFull,
        Barrier::DmbFull,
    ));

    // Pilot channel, paranoid edition: both writes hit the *same*
    // single-copy-atomic word, so coherence already orders them and the
    // fence between them discharges nothing.
    cases.push(LintCase {
        name: "pilot-channel+stray-st".to_string(),
        program: Program {
            threads: vec![
                thread(vec![
                    Instr::store(0, 1),
                    Instr::Fence(Barrier::DmbSt),
                    Instr::store(0, 23),
                ]),
                thread(vec![Instr::load(0, 0)]),
            ],
            init: vec![],
        },
        forbidden: Some(Box::new(|o| {
            o.reg(1, 0) != 0 && o.reg(1, 0) != 1 && o.reg(1, 0) != 23
        })),
    });

    // Pilot MP proper: fused flag+payload, no barriers anywhere — the
    // clean reference the lint must stay silent on.
    let t = pilot_message_passing();
    cases.push(LintCase {
        name: t.name,
        program: t.program,
        forbidden: Some(t.relaxed),
    });

    // Release-then-reacquire: the publisher hands off protected data with
    // an STLR and immediately re-acquires the reply channel with LDAR —
    // the mutex-chain / RPC idiom. Both LDARs are load-bearing (each
    // orders a flag read before its payload read), but the communication
    // is one-directional — the replier reads before it publishes — so no
    // SB cycle exists and the RCsc release-before-acquire rule discharges
    // nothing. LDAPR is outcome-identical and skips the store-buffer
    // drain the LDAR pays behind the STLR.
    cases.push(LintCase {
        name: "rel-reacquire+stlr+ldar".to_string(),
        program: Program {
            threads: vec![
                thread(vec![
                    Instr::store(0, 41),
                    Instr::store_rel(1, 1),
                    Instr::load_acq(0, 2),
                    Instr::load(1, 3),
                ]),
                thread(vec![
                    Instr::load_acq(0, 1),
                    Instr::load(1, 0),
                    Instr::store(3, 7),
                    Instr::store_rel(2, 1),
                ]),
            ],
            init: vec![],
        },
        // Seeing a flag must imply seeing the payload behind it, both ways.
        forbidden: Some(Box::new(|o| {
            (o.reg(0, 0) == 1 && o.reg(0, 1) != 7) || (o.reg(1, 0) == 1 && o.reg(1, 1) != 41)
        })),
    });

    // -- Implementation-sized kernels (appended; see module docs). -------
    // Lifted from the checked-in `.s` fixtures; the fixtures carry the
    // seeded findings (over-strong DSBs, stray DMB STs) in their source
    // text, where a reader can see them next to real instructions.

    // MCS handoff at the acceptance shape (113 instructions as seeded):
    // 5 lock bounces, each with a fenced 6-store critical section; the
    // prologue publish fence is a DSB (over-strong — a DMB discharges the
    // same store ordering) and the successor ends on a stray DMB st with
    // nothing left to order (redundant). The intent conditions on T1's
    // *first* handoff observation — the read the prologue fence protects;
    // the later flags are insulated by the per-round fences.
    {
        let (handoffs, payload) = (5, 4);
        let program = lift_fixture("mcs_handoff")
            .expect("checked-in mcs_handoff.s lifts")
            .program;
        let regs = mcs_payload_regs(handoffs, payload);
        cases.push(LintCase {
            name: "mcs-unrolled+dsb.full+stray-st".to_string(),
            program,
            forbidden: Some(Box::new(move |o| {
                o.reg(1, 0) == 1
                    && regs
                        .iter()
                        .enumerate()
                        .any(|(i, &r)| o.reg(1, r) != MCS_PAYLOAD_BASE + i as u64)
            })),
        });
    }

    // Pilot round-trip (70 instructions): three phases of same-word
    // request stores answered over a same-word response word, no barrier
    // load-bearing anywhere — plus one stray DMB st dropped into the
    // store chain, which single-copy atomicity and coherence make
    // redundant (the paper's Pilot point at function size). The intent is
    // coherence itself: each thread's same-word read sequence must be
    // non-decreasing.
    cases.push(LintCase {
        name: "pilot-unrolled+stray-st".to_string(),
        program: lift_fixture("pilot_roundtrip")
            .expect("checked-in pilot_roundtrip.s lifts")
            .program,
        forbidden: Some(Box::new(|o| {
            (0..4).any(|k| o.reg(0, k) > o.reg(0, k + 1) || o.reg(1, k) > o.reg(1, k + 1))
        })),
    });

    // Ticket-lock handoff lifted from `ticket_lock.s` (18 instructions —
    // the counted-loop fixture): over-strong `dsb ishst` publish, sound
    // `dmb ishld` acquire. The intent: the last grant poll reading the
    // final `now_serving` value implies the payload reads see the
    // published values.
    {
        let (rounds, payload) = (3, 2);
        let program = lift_fixture("ticket_lock")
            .expect("checked-in ticket_lock.s lifts")
            .program;
        let last = ticket_last_grant_reg(rounds);
        let regs = ticket_payload_regs(rounds, payload);
        cases.push(LintCase {
            name: "ticket-lifted+dsb.st+dmb.ld".to_string(),
            program,
            forbidden: Some(Box::new(move |o| {
                o.reg(1, last) == rounds as u64
                    && regs
                        .iter()
                        .enumerate()
                        .any(|(i, &r)| o.reg(1, r) != MCS_PAYLOAD_BASE + i as u64)
            })),
        });
    }

    // -- Delegation-lock handoffs (`dlock` ports; appended). --------------
    // Each design in `delegation_sim` reduces, at its
    // combiner/server → waiter boundary, to the same publish-then-flag
    // skeleton — seeded here with the fences the naive ports ship with.

    // Flat-combining publication: the combiner writes the response slot
    // then clears the request word. The port used a DSB ST where a plain
    // DMB ST orders the same two stores.
    cases.push(lock_handoff(
        "fc-publication+dsb.st+dmb.ld",
        Barrier::DsbSt,
        Barrier::DmbLd,
    ));

    // CC-Synch node handoff as ported: full fences on *both* sides of the
    // status-word publish — the textbook x86-minded port. Store-side only
    // needs ST ordering, the spinner LD.
    cases.push(lock_handoff(
        "ccsynch-status+dmb.full+dmb.full",
        Barrier::DmbFull,
        Barrier::DmbFull,
    ));

    // RCL request word: the server publishes the return value then clears
    // the dual-role request word; the client spins on it. Seeded with the
    // DSB the original server loop carried.
    cases.push(lock_handoff(
        "rcl-reqword+dsb.full+dmb.ld",
        Barrier::DsbFull,
        Barrier::DmbLd,
    ));

    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_order_is_stable() {
        let a: Vec<String> = corpus().into_iter().map(|c| c.name).collect();
        let b: Vec<String> = corpus().into_iter().map(|c| c.name).collect();
        assert_eq!(a, b, "corpus order must be deterministic");
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "case names must be unique");
    }

    #[test]
    fn corpus_spans_all_three_families() {
        let names: Vec<String> = corpus().into_iter().map(|c| c.name).collect();
        assert!(names.iter().any(|n| n.starts_with("MP+")));
        assert!(names.iter().any(|n| n.contains("handoff")));
        assert!(names.iter().any(|n| n.contains("pilot")));
        assert!(names.len() >= 15, "corpus unexpectedly small: {names:?}");
    }

    #[test]
    fn threads_fit_one_mask_word_and_corpus_spans_both_sizes() {
        // Per-thread instruction counts must stay within `explore_oracle`'s
        // 64-instruction thread limit, so the engine's differential
        // reference can explore any corpus case...
        let mut oversized_total = 0usize;
        for case in corpus() {
            for t in &case.program.threads {
                assert!(t.instrs.len() <= 64, "{} thread too long", case.name);
            }
            let total: usize = case.program.threads.iter().map(|t| t.instrs.len()).sum();
            if total > 64 {
                oversized_total += 1;
            }
        }
        // ...while the corpus as a whole must exercise the multi-word
        // engine path on implementation-sized programs.
        assert!(
            oversized_total >= 2,
            "expected implementation-sized cases, found {oversized_total}"
        );
    }
}
