//! The parked-spinner workload: on an n-core machine, n−1 cores park on a
//! [`Op::WaitChange`] line immediately while core 0 grinds through local
//! work batches separated by `DSB`s before finally flipping the line. A
//! lockstep machine steps every active core every cycle, so its work is
//! Θ(n · cycles); the event engine steps a parked core exactly twice
//! (park, wake), so its work tracks the *busy* core only.
//!
//! The root `tests/sim_pins.rs` pins its cycles and step counts under both
//! engines; the `benchmark/` ledger times it.

use armbar_barriers::Barrier;
use armbar_sim::{Cpu, Machine, Op, Platform, Script};

/// The line everyone parks on.
pub const FLAG: u64 = 0x9000;
/// Where each spinner reports the value it observed.
pub const OUT_BASE: u64 = 0x10_0000;
/// Work batches the busy core runs before releasing the spinners.
const BATCHES: u32 = 50;

/// Parks on [`FLAG`] until it changes, records what it saw, halts.
async fn spinner(cpu: Cpu, id: u64) {
    let seen = cpu.op(Op::wait_change(FLAG, 0)).await;
    cpu.op(Op::store(OUT_BASE + id * 64, seen)).await;
}

/// Runs [`BATCHES`] nop batches fenced by `DSB`s, then releases the flag.
async fn writer(cpu: Cpu) {
    for _ in 0..BATCHES {
        cpu.op(Op::Nops(200)).await;
        cpu.op(Op::Fence(Barrier::DsbFull)).await;
    }
    cpu.op(Op::store(FLAG, 1)).await;
}

/// A fresh parked-spinner machine: core 0 busy, cores `1..cores` parked;
/// spinner `c` stores what it saw at `OUT_BASE + 64 c`.
#[must_use]
pub fn parked_spinner_machine(cores: usize) -> Machine {
    let mut m = Machine::new(Platform::manycore(cores));
    m.add_thread_on(0, Box::new(Script::new(writer)));
    for c in 1..cores {
        m.add_thread_on(c, Box::new(Script::new(|cpu| spinner(cpu, c as u64))));
    }
    m
}
