//! Machine-independent gate on the simulator's hot path: once warm, the
//! event loop and `Core::step` perform **zero** heap allocations. A counting
//! global allocator (this test crate's own — the library forbids `unsafe`)
//! tallies allocations made by the test thread while a 16-core machine runs
//! spinners on one line (`Script` bodies, so the gate covers the coroutine
//! adapter too), a store / `DMB st` / drain publisher and contended RMWs. (Parking on `Op::WaitChange` is left out: each park/wake round still
//! allocates the line's waiter list.)

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
        let mut flag = cpu.op(Op::load_use(FLAG)).await;
        while flag == seen {
            flag = cpu.op(Op::load_use(FLAG)).await;
        }
        seen = flag;
        cpu.op(Op::Fence(Barrier::DmbLd)).await;
        cpu.op(Op::load_use(DATA)).await;
        cpu.op(Op::fetch_add_acq_rel(COUNTER, 1)).await;
        cpu.op(Op::IterationMark).await;
    }
}

#[test]
fn steady_state_steps_do_not_allocate() {
    let mut m = Machine::new(Platform::kunpeng916());
    m.add_thread_on(0, Box::new(Script::new(publisher)));
    for id in 1..16 {
        // Spread over both NUMA nodes: cores 4, 8, …, 60.
        m.add_thread_on(id * 4, Box::new(Script::new(poller)));
    }
    m.add_thread_on(2, Box::new(Script::new(poller)));
    // Warm-up: every map, queue and scratch vector reaches its working size
    // (two runs, because re-seeding a resumed run is the wake heap's peak).
    m.run(50_000);
    let warm = m.run(50_000);
    assert!(!warm.halted, "the workload never halts");
    let rounds_before = m.read_memory(FLAG);
    let steps_before = m.steps_executed();
    let before = ALLOCATIONS.with(Cell::get);
    m.run(400_000);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let steps = m.steps_executed() - steps_before;
    assert!(steps >= 100_000, "only {steps} steps measured");
    assert!(
        m.read_memory(FLAG) > rounds_before + 100 && m.read_memory(COUNTER) > 0,
        "the workload must keep publishing"
    );
    assert_eq!(
        allocations, 0,
        "{allocations} heap allocations in {steps} steady-state steps"
    );
}
