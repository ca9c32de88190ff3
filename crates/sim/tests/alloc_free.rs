//! Machine-independent gate on the simulator's hot path: once warm, the
//! event loop and `Core::step` perform **zero** heap allocations. A counting
//! global allocator (this test crate's own — the library forbids `unsafe`)
//! tallies allocations made by the test thread while a 16-core machine runs
//! spinners on one line (hand-written `SimThread`s and one `Script`, so the
//! gate covers the coroutine adapter), a store / `DMB st` / drain publisher
//! and contended RMWs. (Parking on `Op::WaitChange` is left out: each park/wake round still
//! allocates the line's waiter list.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use armbar_barriers::Barrier;
use armbar_sim::{Cpu, Machine, Op, Platform, Script, SimThread, ThreadCtx};

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
struct Publisher {
    round: u64,
    state: u8,
}

impl SimThread for Publisher {
    fn next(&mut self, _ctx: &mut ThreadCtx) -> Op {
        self.state = (self.state + 1) % 7;
        match self.state {
            1 => {
                self.round += 1;
                Op::store(DATA, self.round)
            }
            2 => Op::Fence(Barrier::DmbSt),
            3 => Op::store(FLAG, self.round),
            4 => Op::Nops(40),
            5 => Op::fetch_add_acq_rel(COUNTER, 1),
            6 => Op::Fence(Barrier::DmbFull),
            _ => Op::IterationMark,
        }
    }
}

/// Polls the flag with plain loads; on every change reads the data behind a
/// `DMB ld` and bumps the shared counter.
struct Poller {
    seen: u64,
    state: u8,
}

impl SimThread for Poller {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        match self.state {
            0 => {
                self.state = 1;
                Op::load_use(FLAG)
            }
            1 if ctx.last_value() == self.seen => Op::load_use(FLAG),
            1 => {
                self.seen = ctx.last_value();
                self.state = 2;
                Op::Fence(Barrier::DmbLd)
            }
            2 => {
                self.state = 3;
                Op::load_use(DATA)
            }
            3 => {
                self.state = 4;
                Op::fetch_add_acq_rel(COUNTER, 1)
            }
            _ => {
                self.state = 0;
                Op::IterationMark
            }
        }
    }
}

/// [`Poller`] as a [`Script`] body.
async fn script_poller(cpu: Cpu) {
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
    m.add_thread_on(0, Box::new(Publisher { round: 0, state: 0 }));
    for id in 1..16 {
        // Spread over both NUMA nodes: cores 4, 8, …, 60.
        m.add_thread_on(id * 4, Box::new(Poller { seen: 0, state: 0 }));
    }
    m.add_thread_on(2, Box::new(Script::new(script_poller)));
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
