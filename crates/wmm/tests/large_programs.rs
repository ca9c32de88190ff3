//! Differential coverage for programs beyond 64 total instructions: the
//! multi-word packed engine against the enumerative oracle.
//!
//! Shapes come from `armbar_wmm::unroll` — bounded-unrolled lock and
//! channel idioms — plus a seeded generator of random dependency-rich
//! large programs. Oracle comparisons stick to shapes whose outcome sets
//! stay in the thousands (the module docs on `unroll` explain why that
//! requires bounded cross-thread read freedom); the 100+-instruction
//! acceptance shape is checked through witness search + replay.

use armbar_barriers::Barrier;
use armbar_wmm::unroll::{
    mcs_final_spin_reg, mcs_handoff_unrolled, mcs_payload_regs, mcs_prologue_fence_index,
    pilot_roundtrip_unrolled, ticket_handoff_unrolled, ticket_last_grant_reg, ticket_payload_regs,
    MCS_PAYLOAD_BASE,
};
use armbar_wmm::witness::find_witness;
use armbar_wmm::{
    explore_oracle, explore_uncached, Instr, MemoryModel, Outcome, OutcomeSet, Program, Thread,
};

fn total(p: &Program) -> usize {
    p.threads.iter().map(|t| t.instrs.len()).sum()
}

/// The engine against the oracle: outcomes must match the oracle exactly.
fn check_against_oracle(name: &str, p: &Program, model: MemoryModel) -> OutcomeSet {
    let oracle = explore_oracle(p, model);
    let engine = explore_uncached(p, model);
    assert_eq!(
        engine.outcomes, oracle.outcomes,
        "{name}: engine diverged from the oracle"
    );
    assert!(engine.states_visited > 0, "{name}: no states counted");
    oracle
}

#[test]
fn unrolled_mcs_handoff_matches_the_oracle_beyond_64_instructions() {
    let p = mcs_handoff_unrolled(4, 3, 3, Barrier::DmbFull, Barrier::DmbFull);
    assert!(total(&p) > 64, "got {}", total(&p));
    assert!(p.threads.iter().all(|t| t.instrs.len() <= 64));
    let oracle = check_against_oracle("mcs", &p, MemoryModel::ArmWmm);
    // The handoff intent holds at this fencing: the final spin reading 1
    // pins every payload read.
    let spin = mcs_final_spin_reg(4);
    let regs = mcs_payload_regs(4, 3);
    assert!(oracle.all(|o| {
        o.reg(1, spin) != 1
            || regs
                .iter()
                .enumerate()
                .all(|(i, &r)| o.reg(1, r) == MCS_PAYLOAD_BASE + i as u64)
    }));
}

#[test]
fn unrolled_ticket_handoff_matches_the_oracle_beyond_64_instructions() {
    let p = ticket_handoff_unrolled(4, 4, 12, Barrier::DmbSt, Barrier::DmbLd);
    assert!(total(&p) > 64, "got {}", total(&p));
    let oracle = check_against_oracle("ticket", &p, MemoryModel::ArmWmm);
    // Grant polls are CoRR-ordered reads of one incrementing word: the
    // observed sequence is non-decreasing, and seeing the final grant
    // pins the payload.
    let last = ticket_last_grant_reg(4);
    let regs = ticket_payload_regs(4, 4);
    assert!(oracle.all(|o| {
        (0..3).all(|r| o.reg(1, r as u8) <= o.reg(1, r as u8 + 1))
            && (o.reg(1, last) != 4
                || regs
                    .iter()
                    .enumerate()
                    .all(|(i, &r)| o.reg(1, r) == MCS_PAYLOAD_BASE + i as u64))
    }));
}

#[test]
fn unrolled_pilot_roundtrip_matches_the_oracle_beyond_64_instructions() {
    let p = pilot_roundtrip_unrolled(19, 5);
    assert!(total(&p) > 64, "got {}", total(&p));
    let oracle = check_against_oracle("pilot", &p, MemoryModel::ArmWmm);
    // Barrier-free coherence: both same-word read sequences are
    // non-decreasing in every reachable outcome.
    assert!(oracle.all(|o| {
        (0..4).all(|k| o.reg(0, k) <= o.reg(0, k + 1) && o.reg(1, k) <= o.reg(1, k + 1))
    }));
}

#[test]
fn acceptance_shape_explores_and_witnesses_through_the_engine() {
    // The acceptance criteria's shape: >= 100 instructions, explored by
    // the packed engine.
    let p = mcs_handoff_unrolled(5, 4, 6, Barrier::DmbFull, Barrier::DmbFull);
    assert!(total(&p) >= 100, "got {}", total(&p));
    let set = explore_uncached(&p, MemoryModel::ArmWmm);

    // The intent conditions on T1's *first* handoff observation (reg 0,
    // the round-0 spin of `MCS_FLAG_A + 0`): that is the read the
    // prologue publish fence protects. The final spin is insulated by
    // the per-round DMB FULLs — payload stores stay ordered before every
    // later flag whether or not the prologue fence exists.
    let regs = mcs_payload_regs(5, 4);
    let violated = move |o: &Outcome| {
        o.reg(1, 0) == 1
            && regs
                .iter()
                .enumerate()
                .any(|(i, &r)| o.reg(1, r) != MCS_PAYLOAD_BASE + i as u64)
    };
    // Intent holds as fenced...
    assert!(!set.any(&violated));
    assert!(find_witness(&p, MemoryModel::ArmWmm, &violated).is_none());

    // ...and dropping the prologue publish fence makes it violable, with
    // a witness found by the engine at this size and validated by the
    // independent replay checker.
    let mut broken = p.clone();
    broken.threads[0].instrs.remove(mcs_prologue_fence_index(4));
    let w = find_witness(&broken, MemoryModel::ArmWmm, &violated)
        .expect("unfenced publication must be observable");
    assert_eq!(w.steps.len(), total(&broken));
    assert!(violated(&w.outcome));
    assert_eq!(
        w.replay(&broken, MemoryModel::ArmWmm),
        Some(w.outcome.clone())
    );
}

/// A tiny deterministic LCG — fixed seeds keep this reproducible without
/// pulling in a proptest dependency for the large sizes.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random dependency-rich large programs: three threads of 22
/// instructions (66 total). The bulk of each thread is a same-word
/// coherence chain on a thread-private location (with data-dependent
/// stores mixed in), and every fifth slot is a randomized shared
/// operation — a load, a store to one of two shared words, or a fence.
/// The chain structure keeps per-thread reorder freedom (and with it
/// both engines' state spaces) bounded while the shared slots still
/// exercise multi-word masks, branch enumeration, and cross-thread
/// conflicts; a free-form instruction soup over shared locations is
/// exponentially intractable (see the `unroll` module docs).
fn random_large_program(seed: u64) -> Program {
    let mut rng = Lcg(seed);
    let threads = (0..3u8)
        .map(|t| {
            let private = 10 + t;
            let mut next_reg = 0u8;
            let instrs = (0..22)
                .map(|i| {
                    if i % 5 == 2 {
                        match rng.below(5) {
                            0 => {
                                let r = next_reg;
                                next_reg += 1;
                                Instr::load(r, rng.below(2) as u8)
                            }
                            1 => Instr::store(rng.below(2) as u8, 1 + rng.below(2)),
                            2 => Instr::Fence(Barrier::DmbFull),
                            3 => Instr::Fence(Barrier::DmbSt),
                            _ => Instr::Fence(Barrier::DmbLd),
                        }
                    } else if rng.below(4) == 0 {
                        Instr::store_data_dep(private, 1 + rng.below(3), i as u8 % 3)
                    } else {
                        Instr::store(private, 1 + rng.below(3))
                    }
                })
                .collect();
            Thread { instrs }
        })
        .collect();
    Program {
        threads,
        init: vec![],
    }
}

#[test]
fn random_dependency_rich_large_programs_match_the_oracle() {
    for seed in [5, 11, 101] {
        let p = random_large_program(seed);
        assert!(total(&p) > 64);
        check_against_oracle(&format!("random({seed})"), &p, MemoryModel::ArmWmm);
    }
}
