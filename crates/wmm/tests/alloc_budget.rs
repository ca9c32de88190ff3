//! Machine-independent gate on the explorer's walk: a visited state costs
//! no heap allocation of its own. A counting global allocator (this test
//! crate's own — the library forbids `unsafe`) tallies the allocations one
//! cold serial exploration makes on implementation-sized shapes (past 64
//! instructions, so the multi-word masks are the ones under test), and the
//! budget leaves room only for what is *not* per state: the layout, the
//! arena chunks and table doublings of the visited-set (amortized far below
//! one per state), and the nested vectors of the outcomes handed back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use armbar_barriers::Barrier;
use armbar_wmm::unroll::{mcs_handoff_unrolled, pilot_roundtrip_unrolled};
use armbar_wmm::{explore_dpor_uncached, MemoryModel, Program};

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

/// Allocations that do not scale with the search: building the layout
/// (a few vectors per table, B-tree nodes of the slot discovery) and the
/// walker's buffers.
const FIXED_ALLOCATIONS: u64 = 256;

#[test]
fn a_visited_state_costs_no_allocation_of_its_own() {
    let shapes: [(&str, Program); 5] = [
        (
            "mcs-handoff-unrolled(5,4,6) fenced",
            mcs_handoff_unrolled(5, 4, 6, Barrier::DmbFull, Barrier::DmbFull),
        ),
        (
            "mcs-handoff-unrolled(3,2,12) publish-only",
            mcs_handoff_unrolled(3, 2, 12, Barrier::DmbSt, Barrier::None),
        ),
        (
            "mcs-handoff-unrolled(4,3,3) fenced",
            mcs_handoff_unrolled(4, 3, 3, Barrier::DmbFull, Barrier::DmbFull),
        ),
        (
            "pilot-roundtrip-unrolled(19,5)",
            pilot_roundtrip_unrolled(19, 5),
        ),
        (
            "pilot-roundtrip-unrolled(20,6)",
            pilot_roundtrip_unrolled(20, 6),
        ),
    ];
    for (name, program) in &shapes {
        let instrs: usize = program.threads.iter().map(|t| t.instrs.len()).sum();
        assert!(
            instrs > 64,
            "{name}: {instrs} instructions is the narrow path"
        );

        let before = ALLOCATIONS.with(Cell::get);
        let set = explore_dpor_uncached(program, MemoryModel::ArmWmm, 1);
        let allocations = ALLOCATIONS.with(Cell::get) - before;

        let budget = set.states_visited as u64 / 4 + 8 * set.len() as u64 + FIXED_ALLOCATIONS;
        println!(
            "{name}: {instrs} instrs, {} states, {} outcomes, {allocations} allocations (budget {budget})",
            set.states_visited,
            set.len()
        );
        assert!(
            set.states_visited >= 512,
            "{name}: {} states is too small a search to price a state",
            set.states_visited
        );
        assert!(
            allocations <= budget,
            "{name}: {allocations} allocations for {} states and {} outcomes exceeds the \
             0.25/state + 8/outcome + {FIXED_ALLOCATIONS} budget of {budget}",
            set.states_visited,
            set.len()
        );
    }
}
