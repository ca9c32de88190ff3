//! Golden for the `Display` text of `wmm::Instr`/`Program` (witness
//! rendering, `armbar lift`, the lint report): every litmus-battery
//! program and the lift of every `corpus/asm/*.s` fixture, rendered, must
//! equal `tests/golden/programs.txt` byte for byte.

use std::fmt::Write;
use std::path::Path;

use armbar_wmm::battery::battery;

const FIXTURES: [&str; 3] = ["mcs_handoff.s", "pilot_roundtrip.s", "ticket_lock.s"];

#[test]
fn battery_and_lifted_fixtures_render_as_the_golden() {
    let mut text = String::new();
    for (test, _) in battery() {
        write!(text, "== {}\n{}", test.name, test.program).unwrap();
    }
    let asm = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/asm");
    for file in FIXTURES {
        let src = std::fs::read_to_string(asm.join(file)).expect("fixture readable");
        let lifted = armbar_extract::lift(&src).expect("fixture lifts");
        write!(text, "== {file}\n{}", lifted.program).unwrap();
    }
    let golden = include_str!("golden/programs.txt");
    for (n, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "programs.txt line {}", n + 1);
    }
    assert_eq!(text.lines().count(), golden.lines().count(), "line count");
    assert_eq!(text, golden);
}
