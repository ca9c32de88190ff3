//! Differential suite: the DPOR engine vs the enumerative oracle.
//!
//! The engine's partial-order reduction is only sound if its outcome set
//! equals the oracle's on *every* program — these tests sweep the litmus
//! battery and a dependency-rich random program space, and additionally
//! check that every witness the engine produces replays (via the
//! independent `Witness::replay` checker) to exactly the outcome it claims.

use proptest::prelude::*;

use armbar_barriers::Barrier;
use armbar_wmm::battery::battery;
use armbar_wmm::explore::{explore_oracle, explore_uncached};
use armbar_wmm::model::{Instr, MemoryModel, Program, Thread};
use armbar_wmm::witness::find_witness;

/// Instruction generator, deliberately richer than the basic proptests:
/// acquire/release flags, bogus address/data/control dependencies, and
/// register-valued stores all stress the engine's same-thread conflict
/// relation.
fn gen_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (0u8..4, 0u8..3).prop_map(|(r, l)| Instr::load(r, l)),
        (0u8..4, 0u8..3).prop_map(|(r, l)| Instr::load_acq(r, l)),
        (0u8..4, 0u8..3).prop_map(|(r, l)| Instr::load_acq_pc(r, l)),
        (0u8..4, 0u8..3, 0u8..4).prop_map(|(r, l, d)| Instr::load_addr_dep(r, l, d)),
        (0u8..3, 1u64..4).prop_map(|(l, v)| Instr::store(l, v)),
        (0u8..3, 1u64..4).prop_map(|(l, v)| Instr::store_rel(l, v)),
        (0u8..3, 1u64..4, 0u8..4).prop_map(|(l, v, d)| Instr::store_data_dep(l, v, d)),
        (0u8..3, 1u64..4, 0u8..4).prop_map(|(l, v, d)| Instr::store_addr_dep(l, v, d)),
        (0u8..3, 1u64..4, 0u8..4).prop_map(|(l, v, d)| Instr::store_ctrl_dep(l, v, d)),
        (0u8..3, 0u8..4).prop_map(|(l, r)| Instr::Store {
            loc: l,
            src: armbar_wmm::Src::Reg(r),
            release: false,
            addr_dep: None,
            ctrl_dep: None,
        }),
        Just(Instr::Fence(Barrier::DmbFull)),
        Just(Instr::Fence(Barrier::DmbSt)),
        Just(Instr::Fence(Barrier::DmbLd)),
        Just(Instr::Fence(Barrier::DsbFull)),
        Just(Instr::Fence(Barrier::Isb)),
    ]
}

fn gen_program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(prop::collection::vec(gen_instr(), 1..5), 1..4),
        prop::collection::vec((0u8..3, 1u64..4), 0..2),
    )
        .prop_map(|(ts, init)| Program {
            threads: ts.into_iter().map(|instrs| Thread { instrs }).collect(),
            init,
        })
}

/// Engine vs oracle on one program under one model.
fn check(p: &Program, model: MemoryModel) {
    let oracle = explore_oracle(p, model);
    let engine = explore_uncached(p, model);
    assert_eq!(
        engine.outcomes, oracle.outcomes,
        "engine diverged from oracle under {model:?} on {p:?}"
    );
    assert!(engine.states_visited > 0);
}

#[test]
fn battery_differential_all_models() {
    for (test, _) in battery() {
        for model in MemoryModel::ALL {
            check(&test.program, model);
        }
    }
}

#[test]
fn battery_witnesses_replay() {
    for (test, _) in battery() {
        for model in MemoryModel::ALL {
            let set = explore_uncached(&test.program, model);
            // Every reachable outcome must have a witness that replays to
            // exactly that outcome.
            for target in set.iter() {
                let w = find_witness(&test.program, model, |o| o == target)
                    .unwrap_or_else(|| panic!("{}: outcome lost under {model:?}", test.name));
                assert_eq!(&w.outcome, target, "{}", test.name);
                assert_eq!(
                    w.replay(&test.program, model).as_ref(),
                    Some(target),
                    "{}: witness does not replay under {model:?}",
                    test.name
                );
            }
        }
    }
}

/// A writer publishing `values[0]` then `values[1]`, two identical readers
/// that pass what they read on through a register, and a coherence chain
/// of `values[2]` stores that pads the program to 33 instructions while
/// keeping the oracle's graph small.
fn dictionary_program(values: [u64; 3], init: Vec<(u8, u64)>) -> Program {
    let reader = vec![
        Instr::load(0, 1),
        Instr::Fence(Barrier::DmbLd),
        Instr::load(1, 0),
        Instr::Store {
            loc: 3,
            src: armbar_wmm::Src::Reg(1),
            release: false,
            addr_dep: None,
            ctrl_dep: None,
        },
    ];
    let writer = vec![
        Instr::store(0, values[0]),
        Instr::Fence(Barrier::DmbSt),
        Instr::store(1, values[1]),
    ];
    Program {
        threads: [
            writer,
            reader.clone(),
            reader,
            vec![Instr::store(9, values[2]); 22],
        ]
        .into_iter()
        .map(|instrs| Thread { instrs })
        .collect(),
        init,
    }
}

/// The slot-code packing at the edges of its value dictionary: one value
/// (one bit a code), past 256 values (nine bits, through `init` entries
/// that a later entry for the same location overrides), and the two
/// largest bit patterns. The engine equals the oracle, and every
/// outcome's witness replays.
#[test]
fn dictionary_edges_differential() {
    let many = (0..300).map(|v| ((v % 3) as u8, 1000 + v)).collect();
    for (name, p) in [
        ("one value", dictionary_program([0, 0, 0], vec![])),
        ("302 values", dictionary_program([7, 1299, 1298], many)),
        (
            "top bits",
            dictionary_program([u64::MAX, 1 << 63, u64::MAX], vec![(3, 1 << 63)]),
        ),
    ] {
        let model = MemoryModel::ArmWmm;
        let oracle = explore_oracle(&p, model);
        let engine = explore_uncached(&p, model);
        assert_eq!(engine.outcomes, oracle.outcomes, "{name}");
        for target in oracle.iter() {
            let w = find_witness(&p, model, |o| o == target)
                .unwrap_or_else(|| panic!("{name}: outcome without a witness"));
            assert_eq!(w.replay(&p, model).as_ref(), Some(target), "{name}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random dependency-rich programs: engine == oracle under every
    /// model.
    #[test]
    fn random_programs_differential(p in gen_program()) {
        for model in MemoryModel::ALL {
            check(&p, model);
        }
    }

    /// Every outcome the engine reports on a random program has a witness
    /// that replays to it.
    #[test]
    fn random_program_witnesses_replay(p in gen_program()) {
        let set = explore_uncached(&p, MemoryModel::ArmWmm);
        for target in set.iter() {
            let w = find_witness(&p, MemoryModel::ArmWmm, |o| o == target);
            let w = w.expect("reachable outcome must have a witness");
            prop_assert_eq!(w.replay(&p, MemoryModel::ArmWmm).as_ref(), Some(target));
        }
    }
}
