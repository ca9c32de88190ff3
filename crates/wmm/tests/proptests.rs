//! Property-based tests on the explorer: model-strength inclusion
//! (SC ⊆ TSO ⊆ WMM outcome sets), monotonicity of barriers, and basic
//! sanity over random litmus-sized programs.

use proptest::prelude::*;

use armbar_barriers::Barrier;
use armbar_wmm::explore::explore;
use armbar_wmm::model::{Instr, MemoryModel, Program, Thread};

/// A closed generator of litmus instructions over 3 locations, 4 registers.
fn gen_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (0u8..4, 0u8..3).prop_map(|(r, l)| Instr::load(r, l)),
        (0u8..4, 0u8..3).prop_map(|(r, l)| Instr::load_acq(r, l)),
        (0u8..4, 0u8..3).prop_map(|(r, l)| Instr::load_acq_pc(r, l)),
        (0u8..3, 1u64..4).prop_map(|(l, v)| Instr::store(l, v)),
        (0u8..3, 1u64..4).prop_map(|(l, v)| Instr::store_rel(l, v)),
        Just(Instr::Fence(Barrier::DmbFull)),
        Just(Instr::Fence(Barrier::DmbSt)),
        Just(Instr::Fence(Barrier::DmbLd)),
        Just(Instr::Fence(Barrier::DsbFull)),
        Just(Instr::Fence(Barrier::Isb)),
    ]
}

fn gen_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(prop::collection::vec(gen_instr(), 1..5), 1..3).prop_map(|ts| Program {
        threads: ts.into_iter().map(|instrs| Thread { instrs }).collect(),
        init: vec![],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stronger models reach a subset of outcomes: SC ⊆ TSO ⊆ WMM.
    #[test]
    fn model_strength_is_outcome_inclusion(p in gen_program()) {
        let sc = explore(&p, MemoryModel::Sc);
        let tso = explore(&p, MemoryModel::X86Tso);
        let wmm = explore(&p, MemoryModel::ArmWmm);
        for o in sc.iter() {
            prop_assert!(tso.outcomes.contains(o), "SC outcome missing from TSO");
        }
        for o in tso.iter() {
            prop_assert!(wmm.outcomes.contains(o), "TSO outcome missing from WMM");
        }
    }

    /// Every program has at least one outcome, and exploration terminates
    /// with a bounded state count.
    #[test]
    fn exploration_always_terminates_with_outcomes(p in gen_program()) {
        let out = explore(&p, MemoryModel::ArmWmm);
        prop_assert!(!out.outcomes.is_empty());
        prop_assert!(out.states_visited > 0);
    }

    /// Inserting a DMB full between every instruction collapses WMM to the
    /// SC outcome set (full barriers restore sequential consistency for
    /// these store/load programs).
    #[test]
    fn fully_fenced_wmm_equals_sc(p in gen_program()) {
        let fenced = Program {
            threads: p
                .threads
                .iter()
                .map(|t| {
                    let mut instrs = Vec::new();
                    for i in &t.instrs {
                        instrs.push(*i);
                        instrs.push(Instr::Fence(Barrier::DmbFull));
                    }
                    Thread { instrs }
                })
                .collect(),
            init: p.init.clone(),
        };
        let sc = explore(&p, MemoryModel::Sc);
        let wmm_fenced = explore(&fenced, MemoryModel::ArmWmm);
        // The fenced program has the same memory/register behaviour; its
        // outcome set must match SC's exactly.
        prop_assert_eq!(sc.outcomes, wmm_fenced.outcomes);
    }

    /// Exploration is deterministic.
    #[test]
    fn exploration_is_deterministic(p in gen_program()) {
        let a = explore(&p, MemoryModel::ArmWmm);
        let b = explore(&p, MemoryModel::ArmWmm);
        prop_assert_eq!(a.outcomes, b.outcomes);
        prop_assert_eq!(a.states_visited, b.states_visited);
    }
}
