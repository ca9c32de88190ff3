//! The timing simulator is also a *behavioural* weak-memory machine: load
//! values come from the committed memory image, so reorderings produced by
//! the non-FIFO store buffer are observable as wrong values — and barriers
//! must make them vanish.
//!
//! The witness: a producer whose DATA store carries a (bogus) dependency on
//! a slow remote load, followed by an independent FLAG store. The flag's
//! drain is eligible immediately while the data's waits for the load — so
//! without a barrier the flag becomes visible first and the consumer reads
//! stale data. A `DMB st` gate (or STLR on the flag) restores order.

use armbar_barriers::Barrier;
use armbar_sim::{Cpu, Machine, Op, Platform, Script};

const SLOW: u64 = 0x100; // lines the producer's load chain walks (remote)
const SLOW2: u64 = 0x140;
const DATA: u64 = 0x8000;
const FLAG: u64 = 0x8040;
const SEEN: u64 = 0x8080; // consumer's observation, written back for asserts

async fn producer(cpu: Cpu, barrier: Barrier) {
    // A slow remote load chain the data store will depend on: two
    // *fire-and-forget* dependent loads (the thread keeps running, so the
    // flag store issues immediately) push the data's drain start past the
    // flag drain's completion.
    cpu.op(Op::load(SLOW)).await;
    cpu.op(Op::load_dep(SLOW2, false)).await;
    // DATA = f(loaded): drain gated on the chain's completion.
    cpu.op(Op::store_dep(DATA, 23)).await;
    let flag = match barrier {
        Barrier::None => Op::store(FLAG, 1),
        Barrier::Stlr => Op::store_release(FLAG, 1),
        fence => {
            cpu.op(Op::Fence(fence)).await;
            Op::store(FLAG, 1)
        }
    };
    cpu.op(flag).await;
}

async fn consumer(cpu: Cpu) {
    while cpu.op(Op::load_use(FLAG)).await == 0 {
        cpu.op(Op::Nops(1)).await;
    }
    // Read the data immediately (address dependency only, which cannot
    // save us from the *producer's* reorder).
    let data = cpu.op(Op::load_dep(DATA, true)).await;
    cpu.op(Op::store(SEEN, data)).await;
}

/// The producer on core 0 and the consumer across the node boundary.
fn machine(barrier: Barrier) -> Machine {
    let mut m = Machine::new(Platform::kunpeng916());
    // The slow line lives on the far node, the mailbox lines start at the
    // consumer (it polled them last round).
    m.set_region_home(SLOW, SLOW2 + 64, 40);
    m.set_region_home(DATA, FLAG + 64, 32);
    m.add_thread_on(0, Box::new(Script::new(|cpu| producer(cpu, barrier))));
    m.add_thread_on(32, Box::new(Script::new(consumer)));
    m
}

fn observed_data(barrier: Barrier) -> u64 {
    let mut m = machine(barrier);
    let stats = m.run(5_000_000);
    assert!(stats.halted, "{barrier}: run must finish");
    m.read_memory(SEEN)
}

#[test]
fn unbarriered_producer_exposes_the_store_store_reordering() {
    assert_eq!(
        observed_data(Barrier::None),
        0,
        "flag drains ahead of the dependent data store: consumer reads stale data"
    );
}

#[test]
fn dmb_st_gate_restores_order() {
    assert_eq!(observed_data(Barrier::DmbSt), 23);
}

#[test]
fn dmb_full_restores_order() {
    assert_eq!(observed_data(Barrier::DmbFull), 23);
}

#[test]
fn dsb_restores_order() {
    assert_eq!(observed_data(Barrier::DsbSt), 23);
}

#[test]
fn stlr_flag_restores_order() {
    assert_eq!(observed_data(Barrier::Stlr), 23);
}

#[test]
fn the_fix_costs_cycles() {
    // The repaired runs must be slower than the racy one — order is not
    // free, which is the entire subject of the paper.
    let cycles = |barrier| {
        let stats = machine(barrier).run(5_000_000);
        assert!(stats.halted);
        stats.cycles
    };
    assert!(cycles(Barrier::DmbSt) > cycles(Barrier::None));
    assert!(cycles(Barrier::DsbSt) >= cycles(Barrier::DmbSt));
}
