//! Bounded-unrolled implementation shapes: loop-free [`Program`]s that
//! mirror the lock idioms of `crates/simapps` and the channel idioms of
//! `crates/pilot` at whole-function size (100+ instructions).
//!
//! The explorer only handles loop-free programs, so spin loops are
//! bounded: each "spin until the flag flips" becomes a load of the flag
//! location, and the correctness intent conditions on the *last* spin
//! observing the handoff. That is the standard bounded-unrolling
//! reduction — every behaviour of the unrolled program is a behaviour of
//! the loop under a schedule that exits the spin within the bound.
//!
//! A shape lesson is baked into these builders: exhaustive exploration is
//! only tractable when cross-thread *read freedom* stays bounded. A load
//! with no synchronization against an evolving location contributes a
//! factor of (distinct observable values) to the outcome set, and those
//! factors multiply — a handful of free many-valued reads costs more
//! than a hundred ordered instructions. So the bulk of each shape is
//! ordering-dense (write-once payloads, same-word coherence chains,
//! fenced segments), exactly like the real implementations: the critical
//! section's work is ordered; only the handoff points race.
//!
//! These builders are **retired from the production corpus path**: the
//! lint corpus (`analyze::corpus`) now lifts the checked-in AArch64
//! fixtures under `corpus/asm/` through `armbar-extract`, and the
//! builders survive as *differential fixtures* — `extract`'s fixture
//! and equivalence suites pin each lifted program structurally
//! identical and outcome-set-equal to its hand-built twin here, so the
//! two constructions check each other. They still feed the differential
//! tests beyond 64 instructions and the root `tests/explorer_pins.rs`
//! directly. Location and register numbering
//! is part of each builder's documented contract so intent predicates
//! (and the `.s` fixtures) can be written against it.

use armbar_barriers::Barrier;

use crate::model::{Instr, Program, Thread};

/// First payload location of the MCS/ticket shapes (`MCS_DATA + p`),
/// written once with `MCS_PAYLOAD_BASE + p`.
pub const MCS_DATA: u8 = 1;
/// Payload value stored to `MCS_DATA + p` is `MCS_PAYLOAD_BASE + p`.
pub const MCS_PAYLOAD_BASE: u64 = 20;
/// Per-handoff owner→successor flag (`MCS_FLAG_A + handoff`).
pub const MCS_FLAG_A: u8 = 100;
/// Per-handoff successor→owner flag.
pub const MCS_FLAG_B: u8 = 150;
/// The owner's critical-section scratch word (same-word store chain).
pub const MCS_WORK_A: u8 = 60;
/// The successor's critical-section scratch word.
pub const MCS_WORK_B: u8 = 61;
/// The ticket handoff's single grant word (the `now_serving` counter).
pub const TICKET_GRANT: u8 = 62;
/// The Pilot channel's request word.
pub const PILOT_REQ: u8 = 70;
/// The Pilot channel's response word.
pub const PILOT_RESP: u8 = 71;

/// T1's final spin register in [`mcs_handoff_unrolled`] (the read of
/// `MCS_FLAG_A + handoffs` its intent conditions on).
#[must_use]
pub fn mcs_final_spin_reg(handoffs: usize) -> u8 {
    handoffs as u8
}

/// T1's payload-read registers in [`mcs_handoff_unrolled`].
#[must_use]
pub fn mcs_payload_regs(handoffs: usize, payload: usize) -> Vec<u8> {
    (0..payload).map(|p| (handoffs + 1 + p) as u8).collect()
}

/// Index of T0's prologue publish fence in [`mcs_handoff_unrolled`] (the
/// one the corpus seeds as over-strong): right after the payload stores.
#[must_use]
pub fn mcs_prologue_fence_index(payload: usize) -> usize {
    payload
}

/// A bounded-unrolled MCS-style lock handoff between an owner (T0) and
/// its queue successor (T1): the owner publishes a write-once payload,
/// then the lock bounces back and forth `handoffs` times, each turn
/// running a critical section of `work` same-word scratch stores; after
/// the final handoff the successor reads the payload.
///
/// * T0: `payload` stores of `MCS_DATA + p = MCS_PAYLOAD_BASE + p`, a
///   `publish` fence, `MCS_FLAG_A + 0 = 1`; then per handoff `r` in
///   `1..=handoffs`: spin-load `MCS_FLAG_B + (r-1)` into register
///   `r - 1`, an `acquire` fence, `work` stores to [`MCS_WORK_A`] (a
///   coherence chain), a `publish` fence, and `MCS_FLAG_A + r = 1`.
/// * T1: per handoff `r` in `0..handoffs`: spin-load `MCS_FLAG_A + r`
///   into register `r`, `acquire`, `work` stores to [`MCS_WORK_B`],
///   `publish`, `MCS_FLAG_B + r = 1`; then the final spin-load of
///   `MCS_FLAG_A + handoffs` ([`mcs_final_spin_reg`]), `acquire`, and
///   the payload loads ([`mcs_payload_regs`]).
///
/// Both threads are `payload + 2 + handoffs * (work + 4)` instructions —
/// `handoffs = 5, payload = 4, work = 6` gives the 112-instruction shape
/// the acceptance criteria ask for. Every flag is written once and the
/// payload is write-once, so the outcome set stays modest at any size.
///
/// The intent: T1's *round-0* spin (register 0) reading 1 implies every
/// payload load sees `MCS_PAYLOAD_BASE + p`. That first observation is
/// the one T0's prologue publish fence protects — the later flags are
/// already insulated by the per-round `acquire`/`publish` fences, so an
/// intent keyed on the final spin would never notice the prologue fence
/// going missing.
///
/// # Panics
///
/// Panics when the shape would overflow the location/register numbering
/// (`handoffs > 16`, `payload > 15`) or a count is zero.
#[must_use]
pub fn mcs_handoff_unrolled(
    handoffs: usize,
    payload: usize,
    work: usize,
    publish: Barrier,
    acquire: Barrier,
) -> Program {
    assert!((1..=16).contains(&handoffs), "handoffs out of range");
    assert!((1..=15).contains(&payload), "payload out of range");
    assert!(work >= 1, "work must be positive");
    let mut owner = Vec::new();
    let mut succ = Vec::new();
    for p in 0..payload {
        owner.push(Instr::store(
            MCS_DATA + p as u8,
            MCS_PAYLOAD_BASE + p as u64,
        ));
    }
    owner.push(Instr::Fence(publish));
    owner.push(Instr::store(MCS_FLAG_A, 1));
    for r in 1..=handoffs {
        owner.push(Instr::load((r - 1) as u8, MCS_FLAG_B + (r - 1) as u8));
        owner.push(Instr::Fence(acquire));
        for k in 0..work {
            owner.push(Instr::store(MCS_WORK_A, (r * 16 + k) as u64));
        }
        owner.push(Instr::Fence(publish));
        owner.push(Instr::store(MCS_FLAG_A + r as u8, 1));
    }
    for r in 0..handoffs {
        succ.push(Instr::load(r as u8, MCS_FLAG_A + r as u8));
        succ.push(Instr::Fence(acquire));
        for k in 0..work {
            succ.push(Instr::store(MCS_WORK_B, (r * 16 + k) as u64));
        }
        succ.push(Instr::Fence(publish));
        succ.push(Instr::store(MCS_FLAG_B + r as u8, 1));
    }
    succ.push(Instr::load(
        mcs_final_spin_reg(handoffs),
        MCS_FLAG_A + handoffs as u8,
    ));
    succ.push(Instr::Fence(acquire));
    for (p, reg) in mcs_payload_regs(handoffs, payload).into_iter().enumerate() {
        succ.push(Instr::load(reg, MCS_DATA + p as u8));
    }
    Program {
        threads: vec![Thread { instrs: owner }, Thread { instrs: succ }],
        init: vec![],
    }
}

/// T1's last grant-read register in [`ticket_handoff_unrolled`].
#[must_use]
pub fn ticket_last_grant_reg(rounds: usize) -> u8 {
    (rounds - 1) as u8
}

/// T1's payload-read registers in [`ticket_handoff_unrolled`].
#[must_use]
pub fn ticket_payload_regs(rounds: usize, payload: usize) -> Vec<u8> {
    (0..payload).map(|p| (rounds + p) as u8).collect()
}

/// A bounded-unrolled ticket-style handoff over one incrementing grant
/// word. T0 publishes a write-once payload behind `publish`, then per
/// round runs `work` scratch stores and bumps [`TICKET_GRANT`] to
/// `r + 1` — the `now_serving` increments form a same-word coherence
/// chain. T1 polls the grant once per round (register `r`, CoRR-ordered,
/// so the observed values are non-decreasing), and after the last poll
/// runs `acquire` and reads the payload ([`ticket_payload_regs`]).
///
/// T0 is `payload + 1 + rounds * (work + 1)` instructions, T1
/// `rounds + 1 + payload`. The intent: the last poll reading `rounds`
/// implies the payload loads see `MCS_PAYLOAD_BASE + p`.
///
/// # Panics
///
/// Panics on out-of-range shapes (see [`mcs_handoff_unrolled`]).
#[must_use]
pub fn ticket_handoff_unrolled(
    rounds: usize,
    payload: usize,
    work: usize,
    publish: Barrier,
    acquire: Barrier,
) -> Program {
    assert!((1..=16).contains(&rounds), "rounds out of range");
    assert!((1..=15).contains(&payload), "payload out of range");
    assert!(work >= 1, "work must be positive");
    let mut owner = Vec::new();
    let mut taker = Vec::new();
    for p in 0..payload {
        owner.push(Instr::store(
            MCS_DATA + p as u8,
            MCS_PAYLOAD_BASE + p as u64,
        ));
    }
    owner.push(Instr::Fence(publish));
    for r in 0..rounds {
        for k in 0..work {
            owner.push(Instr::store(MCS_WORK_A, (r * 16 + k) as u64));
        }
        owner.push(Instr::store(TICKET_GRANT, (r + 1) as u64));
    }
    for r in 0..rounds {
        taker.push(Instr::load(r as u8, TICKET_GRANT));
    }
    taker.push(Instr::Fence(acquire));
    for (p, reg) in ticket_payload_regs(rounds, payload).into_iter().enumerate() {
        taker.push(Instr::load(reg, MCS_DATA + p as u8));
    }
    Program {
        threads: vec![Thread { instrs: owner }, Thread { instrs: taker }],
        init: vec![],
    }
}

/// A bounded-unrolled Pilot channel round-trip with *no barriers* — the
/// idiom rides entirely on single-copy atomicity and same-location
/// coherence, which is the paper's point about Pilot.
///
/// * T0 writes [`PILOT_REQ`] in three phases of `chain` same-word stores
///   each (values `1`, `2`, `3` — the claim/partial/commit multi-write
///   pattern; repeated writes of the phase value keep the observable
///   value set at four), then reads [`PILOT_RESP`] `reads` times into
///   registers `0..reads`.
/// * T1 reads the request word `reads` times (registers `0..reads`),
///   stores response `1` with a data dependency on its last read, then
///   overwrites the response with `2`.
///
/// T0 is `3 * chain + reads` instructions, T1 `reads + 2`.
///
/// The intent is coherence itself: each thread's same-word read sequence
/// is CoRR-ordered, so the observed values must be non-decreasing — with
/// no fence anywhere. Any fence dropped into these chains is redundant,
/// which is exactly the finding the corpus case exists to produce.
///
/// # Panics
///
/// Panics when `chain` or `reads` is 0, or `reads > 32` (register
/// numbering).
#[must_use]
pub fn pilot_roundtrip_unrolled(chain: usize, reads: usize) -> Program {
    assert!(chain >= 1, "chain must be positive");
    assert!((1..=32).contains(&reads), "reads out of range");
    let mut requester = Vec::new();
    let mut responder = Vec::new();
    for phase in 1..=3u64 {
        for _ in 0..chain {
            requester.push(Instr::store(PILOT_REQ, phase));
        }
    }
    for k in 0..reads {
        requester.push(Instr::load(k as u8, PILOT_RESP));
    }
    for k in 0..reads {
        responder.push(Instr::load(k as u8, PILOT_REQ));
    }
    responder.push(Instr::store_data_dep(PILOT_RESP, 1, (reads - 1) as u8));
    responder.push(Instr::store(PILOT_RESP, 2));
    Program {
        threads: vec![Thread { instrs: requester }, Thread { instrs: responder }],
        init: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(p: &Program) -> usize {
        p.threads.iter().map(|t| t.instrs.len()).sum()
    }

    #[test]
    fn mcs_shape_hits_the_acceptance_size() {
        let p = mcs_handoff_unrolled(5, 4, 6, Barrier::DmbFull, Barrier::DmbFull);
        assert_eq!(total(&p), 112, "the acceptance criteria name >= 100");
        assert!(p.threads.iter().all(|t| t.instrs.len() == 56));
        // The documented prologue fence index really is a fence.
        assert!(matches!(
            p.threads[0].instrs[mcs_prologue_fence_index(4)],
            Instr::Fence(Barrier::DmbFull)
        ));
    }

    #[test]
    fn mcs_register_numbering_matches_the_helpers() {
        let (handoffs, payload, work) = (3, 2, 2);
        let p = mcs_handoff_unrolled(handoffs, payload, work, Barrier::DmbFull, Barrier::DmbFull);
        let succ = &p.threads[1].instrs;
        let final_spin = succ.len() - payload - 2;
        match succ[final_spin] {
            Instr::Load { reg, loc, .. } => {
                assert_eq!(reg, mcs_final_spin_reg(handoffs));
                assert_eq!(loc, MCS_FLAG_A + handoffs as u8);
            }
            _ => panic!("expected the final spin load"),
        }
        for (p_idx, &reg) in mcs_payload_regs(handoffs, payload).iter().enumerate() {
            match succ[final_spin + 2 + p_idx] {
                Instr::Load { reg: r, loc, .. } => {
                    assert_eq!(r, reg);
                    assert_eq!(loc, MCS_DATA + p_idx as u8);
                }
                _ => panic!("expected a payload load"),
            }
        }
    }

    #[test]
    fn ticket_grant_is_one_coherence_chain() {
        let p = ticket_handoff_unrolled(4, 2, 3, Barrier::DmbSt, Barrier::DmbLd);
        let grants: Vec<u64> = p.threads[0]
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Store {
                    loc,
                    src: crate::model::Src::Const(v),
                    ..
                } if *loc == TICKET_GRANT => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(grants, vec![1, 2, 3, 4], "now_serving increments in order");
    }

    #[test]
    fn pilot_shape_is_barrier_free_and_oversized() {
        let p = pilot_roundtrip_unrolled(20, 5);
        assert_eq!(total(&p), 72);
        assert!(p
            .threads
            .iter()
            .flat_map(|t| t.instrs.iter())
            .all(|i| !matches!(i, Instr::Fence(_))));
    }
}
