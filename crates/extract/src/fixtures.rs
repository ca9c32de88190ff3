//! The checked-in `.s` corpus under `corpus/asm/`, embedded at compile
//! time, plus the retired hand-built twins.
//!
//! These three fixtures are the *production* source of the
//! implementation-sized cases in `analyze`'s lint corpus: the corpus lifts
//! them through [`lift`](fn@crate::lift). The `wmm::unroll` builders that used to
//! construct the same programs by hand are kept as **differential
//! fixtures** only — [`hand_built`] reconstructs each twin (builder plus
//! the corpus's seeded fence edits) so tests can prove, with the explorer,
//! that the lifted and hand-built programs have equal outcome sets. They
//! are in fact structurally identical instruction-for-instruction, which
//! the equivalence tests also pin down; the outcome-set gate is the one
//! that would survive a benign re-numbering.

use armbar_barriers::Barrier;
use armbar_wmm::model::{Instr, Program};
use armbar_wmm::unroll::{
    mcs_handoff_unrolled, mcs_prologue_fence_index, pilot_roundtrip_unrolled,
    ticket_handoff_unrolled,
};

use crate::lift::{lift, Lifted};
use crate::parse::AsmError;

/// `corpus/asm/mcs_handoff.s`: 5 handoffs, 4 payload words, 6-store
/// critical sections; over-strong `dsb ish` prologue and a stray trailing
/// `dmb ishst` seeded in.
pub const MCS_HANDOFF: &str = include_str!("../../../corpus/asm/mcs_handoff.s");

/// `corpus/asm/ticket_lock.s`: 3 rounds, 2 payload words, 2-store critical
/// sections, `dsb ishst` publish (over-strong) and `dmb ishld` acquire.
pub const TICKET_LOCK: &str = include_str!("../../../corpus/asm/ticket_lock.s");

/// `corpus/asm/pilot_roundtrip.s`: 19-store phase chains, 5 polls, and a
/// seeded redundant `dmb ishst` inside the claim phase.
pub const PILOT_ROUNDTRIP: &str = include_str!("../../../corpus/asm/pilot_roundtrip.s");

/// Every good fixture, `(name, source)`, in corpus order.
#[must_use]
pub fn all() -> [(&'static str, &'static str); 3] {
    [
        ("mcs_handoff", MCS_HANDOFF),
        ("ticket_lock", TICKET_LOCK),
        ("pilot_roundtrip", PILOT_ROUNDTRIP),
    ]
}

/// Every malformed fixture under `corpus/asm/bad/`, `(name, source)`.
#[must_use]
pub fn all_bad() -> [(&'static str, &'static str); 5] {
    [
        (
            "unknown_mnemonic",
            include_str!("../../../corpus/asm/bad/unknown_mnemonic.s"),
        ),
        (
            "unbounded_loop",
            include_str!("../../../corpus/asm/bad/unbounded_loop.s"),
        ),
        (
            "undeclared_symbol",
            include_str!("../../../corpus/asm/bad/undeclared_symbol.s"),
        ),
        (
            "budget_exceeded",
            include_str!("../../../corpus/asm/bad/budget_exceeded.s"),
        ),
        (
            "private_violation",
            include_str!("../../../corpus/asm/bad/private_violation.s"),
        ),
    ]
}

/// Lift a named fixture.
///
/// # Errors
///
/// Propagates the lifter's [`AsmError`] — which for the checked-in
/// fixtures would itself be a test failure.
///
/// # Panics
///
/// Panics on an unknown fixture name.
pub fn lift_fixture(name: &str) -> Result<Lifted, AsmError> {
    let (_, src) = all()
        .into_iter()
        .find(|&(n, _)| n == name)
        .unwrap_or_else(|| panic!("unknown fixture `{name}`"));
    lift(src)
}

/// The retired hand-built twin of a named fixture: the `wmm::unroll`
/// builder output with the corpus's seeded fence edits applied.
///
/// # Panics
///
/// Panics on an unknown fixture name.
#[must_use]
pub fn hand_built(name: &str) -> Program {
    match name {
        "mcs_handoff" => {
            let mut p = mcs_handoff_unrolled(5, 4, 6, Barrier::DmbFull, Barrier::DmbFull);
            // Over-strengthen the prologue publish fence...
            p.threads[0].instrs[mcs_prologue_fence_index(4)] = Instr::Fence(Barrier::DsbFull);
            // ...and append a stray trailing store fence on the successor.
            p.threads[1].instrs.push(Instr::Fence(Barrier::DmbSt));
            p
        }
        "ticket_lock" => ticket_handoff_unrolled(3, 2, 2, Barrier::DsbSt, Barrier::DmbLd),
        "pilot_roundtrip" => {
            let mut p = pilot_roundtrip_unrolled(19, 5);
            // A redundant fence inside the claim-phase coherence chain.
            p.threads[0].instrs.insert(10, Instr::Fence(Barrier::DmbSt));
            p
        }
        other => panic!("unknown fixture `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fixture_lifts() {
        for (name, _) in all() {
            let lifted = lift_fixture(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(lifted.total_instrs() > 0, "{name} lifted empty");
        }
    }

    #[test]
    fn lifted_fixtures_are_structurally_identical_to_the_hand_built_twins() {
        for (name, _) in all() {
            let lifted = lift_fixture(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            let hand = hand_built(name);
            assert_eq!(
                lifted.program, hand,
                "{name}: lifted program diverges from the hand-built twin"
            );
        }
    }

    #[test]
    fn every_bad_fixture_is_rejected_with_a_position() {
        for (name, src) in all_bad() {
            let err = lift(src).expect_err(name);
            assert!(err.pos.line >= 1, "{name}: missing position");
            assert!(!err.msg.is_empty(), "{name}: empty message");
        }
    }
}
