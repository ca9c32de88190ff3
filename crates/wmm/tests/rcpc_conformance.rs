//! RCpc conformance suite: LDAPR pinned differentially against LDAR.
//!
//! Every shape that can distinguish the two acquire flavours (and the
//! important ones that must NOT) is swept through the DPOR engine and the
//! enumerative oracle, under every memory model. The suite then pins the
//! semantic delta itself: the LDAPR variant of each shape admits
//! *exactly* the outcomes RCsc forbids — the store-buffering hoists past
//! an earlier release — and nothing else, and each newly admitted outcome
//! is backed by a witness that replays through the independent checker.

use armbar_barriers::{Acquire, Barrier};
use armbar_wmm::explore::{explore_oracle, explore_uncached};
use armbar_wmm::litmus::{
    acq_name, isa2_rel_acq, message_passing, release_sequence_rel_acq, store_buffering_rel_acq,
    wrc_rel_acq,
};
use armbar_wmm::witness::find_witness;
use armbar_wmm::{LitmusTest, MemoryModel};

/// A litmus shape parameterized over the acquire flavour of its loads.
type ShapeCtor = fn(Acquire) -> LitmusTest;

/// Every shape in the suite, as a constructor over the acquire flavour,
/// tagged with whether LDAR-vs-LDAPR changes its outcome set under the
/// ARM model.
fn shapes() -> Vec<(ShapeCtor, bool)> {
    fn mp(acquire: Acquire) -> LitmusTest {
        message_passing(
            Barrier::DmbSt,
            acquire.barrier().expect("suite uses annotated loads"),
        )
    }
    vec![
        // An earlier STLR in program order before the acquiring load: the
        // one scenario the RCsc rule constrains.
        (store_buffering_rel_acq, true),
        (release_sequence_rel_acq, true),
        // Transitive-visibility shapes: the acquire has no same-thread
        // release ahead of it, so the flavours must coincide exactly.
        (isa2_rel_acq, false),
        (wrc_rel_acq, false),
        (mp, false),
    ]
}

#[test]
fn engine_matches_oracle_on_every_shape_and_model() {
    for (shape, _) in shapes() {
        for acq in [Acquire::Sc, Acquire::Pc] {
            let t = shape(acq);
            for model in MemoryModel::ALL {
                let oracle = explore_oracle(&t.program, model);
                let engine = explore_uncached(&t.program, model);
                assert_eq!(
                    engine.outcomes, oracle.outcomes,
                    "{}: engine diverged from oracle under {model:?}",
                    t.name
                );
            }
        }
    }
}

#[test]
fn ldapr_admits_exactly_the_outcomes_rcsc_forbids_and_no_others() {
    for (shape, distinguishing) in shapes() {
        let sc = shape(Acquire::Sc);
        let pc = shape(Acquire::Pc);
        let sc_set = explore_uncached(&sc.program, MemoryModel::ArmWmm);
        let pc_set = explore_uncached(&pc.program, MemoryModel::ArmWmm);
        let diff = sc_set.diff(&pc_set);
        assert!(
            diff.removed.is_empty(),
            "{}: weakening LDAR to LDAPR may only relax",
            pc.name
        );
        if distinguishing {
            assert!(
                !diff.added.is_empty(),
                "{}: shape must distinguish the flavours",
                pc.name
            );
            // No collateral weakening: every admitted outcome is a relaxed
            // (store-buffering) observation the shape's predicate flags,
            // i.e. exactly what the dropped RCsc rule was forbidding.
            for o in &diff.added {
                assert!(
                    (pc.relaxed)(o),
                    "{}: unexpected extra outcome {o:?}",
                    pc.name
                );
            }
            assert!(!sc_set.any(|o| (sc.relaxed)(o)), "{}", sc.name);
            assert!(pc_set.any(|o| (pc.relaxed)(o)), "{}", pc.name);
        } else {
            assert!(
                diff.is_equal(),
                "{}: non-distinguishing shape diverged: {diff:?}",
                pc.name
            );
        }
    }
}

#[test]
fn flavours_coincide_under_stronger_memory_models() {
    // TSO and SC order an earlier store before a later load from a
    // different location regardless of annotations, so LDAR and LDAPR are
    // indistinguishable there — on every shape, not just the ARM-relaxed
    // ones.
    for (shape, _) in shapes() {
        for model in [MemoryModel::X86Tso, MemoryModel::Sc] {
            let sc_set = explore_uncached(&shape(Acquire::Sc).program, model);
            let pc_set = explore_uncached(&shape(Acquire::Pc).program, model);
            assert!(
                sc_set.diff(&pc_set).is_equal(),
                "flavours must coincide under {model:?}"
            );
        }
    }
}

#[test]
fn every_newly_admitted_outcome_has_a_replaying_witness() {
    for (shape, distinguishing) in shapes() {
        if !distinguishing {
            continue;
        }
        let sc = shape(Acquire::Sc);
        let pc = shape(Acquire::Pc);
        let sc_set = explore_uncached(&sc.program, MemoryModel::ArmWmm);
        let pc_set = explore_uncached(&pc.program, MemoryModel::ArmWmm);
        for target in &sc_set.diff(&pc_set).added {
            let w = find_witness(&pc.program, MemoryModel::ArmWmm, |o| o == target)
                .unwrap_or_else(|| panic!("{}: admitted outcome must have a witness", pc.name));
            assert_eq!(
                w.replay(&pc.program, MemoryModel::ArmWmm).as_ref(),
                Some(target),
                "{}: witness must replay on the independent checker",
                pc.name
            );
            // And the same execution must be rejected outright on the LDAR
            // program — replay enforces the RCsc edge the witness violates.
            assert_ne!(
                w.replay(&sc.program, MemoryModel::ArmWmm).as_ref(),
                Some(target),
                "{}: RCsc replay must reject the RCpc-only interleaving",
                sc.name
            );
        }
    }
}

#[test]
fn shape_names_encode_the_flavour() {
    for (shape, _) in shapes() {
        for acq in [Acquire::Sc, Acquire::Pc] {
            let t = shape(acq);
            // MP goes through the barrier-woven constructor whose name
            // carries the mnemonic instead of the acq_name tag.
            assert!(
                t.name.contains(acq_name(acq))
                    || t.name.contains(match acq {
                        Acquire::Sc => "LDAR",
                        _ => "LDAPR",
                    }),
                "{} must name its acquire flavour",
                t.name
            );
        }
    }
}
