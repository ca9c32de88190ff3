//! Engine-vs-oracle differentials on *lifted* programs: the DPOR engine
//! must agree with the enumerative oracle on programs that came through
//! the assembly front-end, closing the loop between the new input path
//! and the explorer's correctness baseline.

use armbar_extract::fixtures::lift_fixture;
use armbar_extract::lift;
use armbar_wmm::{explore_oracle, explore_uncached, MemoryModel, Program};

const MP_ASM: &str = "\
// armbar: thread producer
// armbar: thread consumer
// armbar: shared data @ 0
// armbar: shared flag @ 1

producer:
    ldr x0, =data
    ldr x1, =flag
    mov x2, #23
    str x2, [x0]
    dmb ishst
    mov x2, #1
    str x2, [x1]
    ret

consumer:
    ldr x1, =flag
    ldr x0, =data
Lspin:
    ldr x2, [x1]
    cbz x2, Lspin
    ldr x3, [x0]
    ret
";

fn assert_engine_matches_oracle(name: &str, program: &Program) {
    for model in [MemoryModel::ArmWmm, MemoryModel::X86Tso, MemoryModel::Sc] {
        let oracle = explore_oracle(program, model);
        let engine = explore_uncached(program, model);
        assert_eq!(
            engine.outcomes,
            oracle.outcomes,
            "{name}/{model:?}: {:?}",
            engine.diff(&oracle)
        );
    }
}

#[test]
fn lifted_unfenced_mp_matches_oracle() {
    let lifted = lift(MP_ASM).expect("MP lifts");
    // Without a consumer-side fence the relaxed outcome must appear under
    // ARM — make sure the lifted program is actually interesting.
    let arm = explore_oracle(&lifted.program, MemoryModel::ArmWmm);
    assert!(
        arm.outcomes
            .iter()
            .any(|o| o.reg(1, 0) == 1 && o.reg(1, 1) != 23),
        "expected the relaxed MP outcome from the lifted program"
    );
    assert_engine_matches_oracle("mp", &lifted.program);
}

#[test]
fn lifted_ticket_fixture_matches_oracle() {
    let lifted = lift_fixture("ticket_lock").expect("ticket_lock lifts");
    assert!(
        lifted.total_instrs() <= 64,
        "ticket fixture must stay oracle-sized"
    );
    assert_engine_matches_oracle("ticket_lock", &lifted.program);
}
