//! Concurrency stress tests: both locks must linearize arbitrary mixes of
//! register-style operations — the final state and every returned value
//! must be explainable by *some* total order, which for the commutative
//! counter ops below reduces to exact sums and strictly monotone per-thread
//! observations.
//!
//! Both designs run through [`Executor`], the combining lock in both
//! response modes; the shape tests below pin what the combiner must keep:
//! the bounded hand-off, node recycling and a combiner that serves nobody
//! but itself.

use std::cell::Cell;

use proptest::prelude::*;

use armbar_locks::{CombiningLock, Executor, OpId, OpTable, ResponseMode, TicketLock};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Design {
    Ticket,
    DSynch,
}

const DESIGNS: [Design; 2] = [Design::Ticket, Design::DSynch];

/// Every design × mode (the in-place lock has no response mode and appears
/// once).
fn all_variants() -> Vec<(Design, ResponseMode)> {
    let mut v = Vec::new();
    for d in DESIGNS {
        v.push((d, ResponseMode::Flag));
        if d != Design::Ticket {
            v.push((d, ResponseMode::Pilot));
        }
    }
    v
}

/// Build `design` over `state` for handles `0..handles` and run `body`
/// against it as an [`Executor`].
fn with_lock<T: Send, R>(
    (design, mode): (Design, ResponseMode),
    handles: usize,
    state: T,
    ops: OpTable<T>,
    body: impl FnOnce(&dyn Executor<T>) -> R,
) -> R {
    match design {
        Design::Ticket => body(&TicketLock::new(state, ops)),
        Design::DSynch => body(&CombiningLock::new(handles, state, ops, mode)),
    }
}

fn ops_table() -> (OpTable<u64>, OpId, OpId) {
    let mut t = OpTable::new();
    let add = t.register(|s, by| {
        *s += by;
        *s
    });
    let get = t.register(|s, _| *s);
    (t, add, get)
}

/// Drive `per_thread` adds from each of `threads` workers through any
/// executor; assert exactness and per-thread monotonicity.
fn hammer(lock: &dyn Executor<u64>, threads: usize, per_thread: u64, add: OpId) {
    std::thread::scope(|s| {
        for h in 0..threads {
            s.spawn(move || {
                let mut last = 0u64;
                for _ in 0..per_thread {
                    let r = lock.execute(h, add, 1);
                    assert!(r > last, "running totals must strictly grow per thread");
                    last = r;
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_design_linearizes(
        design in 0usize..2,
        pilot in any::<bool>(),
        threads in 2usize..5,
        per in 100u64..500,
    ) {
        let mode = if pilot { ResponseMode::Pilot } else { ResponseMode::Flag };
        let (t, add, get) = ops_table();
        let total = with_lock((DESIGNS[design], mode), threads, 0u64, t, |lock| {
            hammer(lock, threads, per, add);
            lock.execute(0, get, 0)
        });
        prop_assert_eq!(total, threads as u64 * per, "{:?} {:?}", DESIGNS[design], mode);
    }
}

/// Mixed-structure argument passing: results must be request-specific even
/// when every thread uses a different addend.
#[test]
fn distinct_addends_sum_exactly() {
    for variant in all_variants() {
        let (t, add, get) = ops_table();
        let total = with_lock(variant, 4, 0u64, t, |lock| {
            std::thread::scope(|s| {
                for h in 0..4usize {
                    s.spawn(move || {
                        for _ in 0..1_000 {
                            lock.execute(h, add, h as u64 + 1);
                        }
                    });
                }
            });
            lock.execute(0, get, 0)
        });
        // 1000 * (1+2+3+4)
        assert_eq!(total, 10_000, "{variant:?}");
    }
}

/// One handle, nobody else: in the combining lock every operation is a
/// combiner serving its own request and nothing more, and each one adopts
/// the node the previous one retired.
#[test]
fn a_lone_handle_serves_only_itself() {
    for variant in all_variants() {
        let (t, add, get) = ops_table();
        with_lock(variant, 1, 0u64, t, |lock| {
            for i in 1..=300 {
                assert_eq!(lock.execute(0, add, 2), 2 * i, "{variant:?}");
            }
            assert_eq!(lock.execute(0, get, 0), 600, "{variant:?}");
        });
    }
}

/// Node recycling: 10⁴ operations per handle go through a pool of
/// `handles + 1` nodes, so every node is adopted, served, retired and
/// re-enqueued thousands of times, and the Pilot variant walks its 64-seed
/// schedule over a hundred times.
#[test]
fn nodes_recycle_over_ten_thousand_operations_per_handle() {
    const THREADS: usize = 3;
    const PER: u64 = 10_000;
    for variant in all_variants() {
        let (t, add, get) = ops_table();
        let total = with_lock(variant, THREADS, 0u64, t, |lock| {
            hammer(lock, THREADS, PER, add);
            lock.execute(0, get, 0)
        });
        assert_eq!(total, THREADS as u64 * PER, "{variant:?}");
    }
}

/// Return values that need all 64 bits — `u64::MAX` is floorplan's bound
/// before the first solution — must come back intact from every design in
/// both modes, also when another thread serves the request.
#[test]
fn wide_return_values_survive_every_design() {
    const WIDE: [u64; 5] = [u64::MAX, 1 << 62, 1 << 63, (1 << 62) - 1, 5];
    const THREADS: usize = 3;
    for variant in all_variants() {
        let mut t: OpTable<u64> = OpTable::new();
        let echo = t.register(|calls, value| {
            *calls += 1;
            value
        });
        let calls = t.register(|calls, _| *calls);
        with_lock(variant, THREADS, 0u64, t, |lock| {
            // Alone first: a combiner serving itself, a server with one client.
            for value in WIDE {
                assert_eq!(lock.execute(0, echo, value), value, "{variant:?}");
            }
            std::thread::scope(|s| {
                for h in 0..THREADS {
                    s.spawn(move || {
                        for i in 0..2_000 {
                            let value = WIDE[(i + h) % WIDE.len()];
                            assert_eq!(lock.execute(h, echo, value), value, "{variant:?}");
                        }
                    });
                }
            });
            let total = (WIDE.len() + THREADS * 2_000) as u64;
            assert_eq!(lock.execute(0, calls, 0), total, "{variant:?}");
        });
    }
}

thread_local! {
    /// The handle the current worker thread submits under.
    static HANDLE: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Lengths of combiner tenures, recovered inside the critical sections: a
/// combiner serves its own request first, so an operation whose requester
/// is the executing thread opens a new tenure.
#[derive(Default)]
struct Tenures {
    current: u64,
    longest: u64,
    total: u64,
}

/// More pending requests than one combiner may serve: the critical section
/// yields, so while one thread combines the other 79 enqueue behind it and
/// the sweep runs into `COMBINE_BOUND` (64). No tenure may be longer, and
/// the bound must actually be reached — the hand-off to a waiting owner ran.
#[test]
fn the_combiner_hands_off_at_the_bound() {
    const THREADS: usize = 80;
    const PER: u64 = 12;
    for mode in ResponseMode::ALL {
        let mut t: OpTable<Tenures> = OpTable::new();
        let record = t.register(|s, requester| {
            if HANDLE.get() == requester {
                s.current = 0;
            }
            s.current += 1;
            s.longest = s.longest.max(s.current);
            s.total += 1;
            std::thread::yield_now();
            s.total
        });
        let longest = t.register(|s, _| s.longest);
        let lock = CombiningLock::new(THREADS, Tenures::default(), t, mode);
        std::thread::scope(|s| {
            for h in 0..THREADS {
                let lock = &lock;
                s.spawn(move || {
                    HANDLE.set(h as u64);
                    let mut last = 0;
                    for _ in 0..PER {
                        let r = lock.execute(h, record, h as u64);
                        assert!(r > last, "{mode:?}");
                        last = r;
                    }
                });
            }
        });
        assert_eq!(lock.execute(0, longest, 0), 64, "{mode:?}");
    }
}
