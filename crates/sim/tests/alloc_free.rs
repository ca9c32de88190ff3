//! Machine-independent gate on the simulator's hot path: once warm, the
//! event loop and `Core::step` perform **zero** heap allocations. A counting
//! global allocator (this test crate's own — the library forbids `unsafe`)
//! tallies allocations made by the test thread while a 24-core machine runs
//! a store / `DMB st` / drain publisher, contended RMWs, pollers in a marked
//! loop on the publisher's flag (`Script` bodies, so the gate covers the
//! coroutine adapter too) and `Op::WaitChange` waiters on the same line —
//! so every round of the publisher parks and wakes each of them once, one
//! kind through the poll-loop elision and one through the waiter list, and
//! every round of a waiter is a nop run through a `DMB ld`'s response and a
//! suspended `fetch_add` behind it, both settled without a step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use armbar_barriers::Barrier;
use armbar_sim::{Cpu, Machine, Op, Platform, Script};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const DATA: u64 = 0x1000;
const FLAG: u64 = 0x1040;
const COUNTER: u64 = 0x1080;
const ARRIVALS: u64 = 0x10C0;

/// Publishes forever: data, `DMB st`, flag, some work, a contended RMW.
async fn publisher(cpu: Cpu) {
    for round in 1.. {
        cpu.op(Op::store(DATA, round)).await;
        cpu.op(Op::Fence(Barrier::DmbSt)).await;
        cpu.op(Op::store(FLAG, round)).await;
        cpu.op(Op::Nops(40)).await;
        cpu.op(Op::fetch_add_acq_rel(COUNTER, 1)).await;
        cpu.op(Op::Fence(Barrier::DmbFull)).await;
        cpu.op(Op::IterationMark).await;
    }
}

/// Polls the flag with plain loads; on every change reads the data behind a
/// `DMB ld` and bumps the shared counter.
async fn poller(cpu: Cpu) {
    let mut seen = 0;
    loop {
        seen = loop {
            cpu.spin_mark().await;
            let flag = cpu.op(Op::load_use(FLAG)).await;
            if flag != seen {
                break flag;
            }
        };
        cpu.op(Op::Fence(Barrier::DmbLd)).await;
        cpu.op(Op::load_use(DATA)).await;
        cpu.op(Op::fetch_add_acq_rel(COUNTER, 1)).await;
        cpu.op(Op::IterationMark).await;
    }
}

/// Parks on the flag until it changes, over and over — and passes each
/// round the way a many-core barrier's waiter does: a prior-free `DMB ld`,
/// local work, an arrival `fetch_add` it is suspended on while the work
/// retires (the quiet runs the event engine applies without stepping).
async fn waiter(cpu: Cpu) {
    let mut seen = 0;
    loop {
        seen = cpu.op(Op::wait_change(FLAG, seen)).await;
        cpu.op(Op::Fence(Barrier::DmbLd)).await;
        cpu.op(Op::Nops(30)).await;
        cpu.op(Op::fetch_add_acq_rel(ARRIVALS, 1)).await;
        cpu.op(Op::IterationMark).await;
    }
}

const POLLERS: [usize; 8] = [2, 4, 12, 20, 28, 36, 44, 52];
const WAITERS: [usize; 8] = [1, 8, 16, 24, 32, 40, 48, 56];

fn rounds(m: &Machine, cores: &[usize]) -> u64 {
    cores.iter().map(|&c| m.core_stats(c).iterations).sum()
}

#[test]
fn steady_state_steps_do_not_allocate() {
    let mut m = Machine::new(Platform::kunpeng916());
    m.add_thread_on(0, Box::new(Script::new(publisher)));
    // Spread over both NUMA nodes, below and above each other.
    for core in POLLERS {
        m.add_thread_on(core, Box::new(Script::new(poller)));
    }
    for core in WAITERS {
        m.add_thread_on(core, Box::new(Script::new(waiter)));
    }
    // Warm-up: every map, queue and scratch vector reaches its working size
    // (two runs, because re-seeding a resumed run is the wake heap's peak).
    m.run(50_000);
    let warm = m.run(50_000);
    assert!(!warm.halted, "the workload never halts");
    let published_before = m.read_memory(FLAG);
    let (polled_before, waited_before) = (rounds(&m, &POLLERS), rounds(&m, &WAITERS));
    let (steps_before, skipped_before) = (m.steps_executed(), m.spin_periods_skipped());
    let before = ALLOCATIONS.with(Cell::get);
    m.run(2_000_000);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let steps = m.steps_executed() - steps_before;
    let published = m.read_memory(FLAG) - published_before;
    let polled = rounds(&m, &POLLERS) - polled_before;
    let waited = rounds(&m, &WAITERS) - waited_before;
    let skipped = m.spin_periods_skipped() - skipped_before;
    assert!(steps >= 100_000, "only {steps} steps measured");
    assert!(
        published > 1_000 && m.read_memory(COUNTER) > 0,
        "the workload must keep publishing"
    );
    // Every round a poller or a waiter completes is one park and one wake:
    // a round lasts hundreds of cycles, a poll four.
    assert!(waited >= 10_000, "only {waited} WaitChange rounds");
    assert!(polled >= 10_000, "only {polled} poll-loop rounds");
    assert!(
        skipped >= 10 * polled,
        "{polled} poll-loop rounds skipped only {skipped} periods"
    );
    assert_eq!(
        allocations, 0,
        "{allocations} heap allocations in {steps} steady-state steps"
    );
}
