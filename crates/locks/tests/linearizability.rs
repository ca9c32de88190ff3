//! Concurrency stress tests: every lock family must linearize arbitrary
//! mixes of register-style operations — the final state and every returned
//! value must be explainable by *some* total order, which for the
//! commutative counter ops below reduces to exact sums and strictly
//! monotone per-thread observations.
//!
//! All seven designs run through [`Executor`], the delegation ones in both
//! response modes; the shape tests below pin what the shared skeletons must
//! keep: the bounded combiner hand-off, node recycling, a combiner that
//! serves nobody but itself, and a dedicated server told to stop while a
//! request is in flight.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use armbar_locks::dedicated::{ClientPool, Dedicated, Slot};
use armbar_locks::ffwd::FfwdExecutor;
use armbar_locks::rcl::RclExecutor;
use armbar_locks::{
    CcSynch, CombiningLock, Executor, Ffwd, FlatCombining, McsLock, OpId, OpTable, Rcl,
    ResponseMode, TicketLock,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Design {
    Ticket,
    Mcs,
    DSynch,
    Ffwd,
    Rcl,
    FlatCombining,
    CcSynch,
}

const DESIGNS: [Design; 7] = [
    Design::Ticket,
    Design::Mcs,
    Design::DSynch,
    Design::Ffwd,
    Design::Rcl,
    Design::FlatCombining,
    Design::CcSynch,
];

/// The two queue combiners, whose sweep is bounded.
const QUEUE_COMBINERS: [Design; 2] = [Design::DSynch, Design::CcSynch];

/// Every design × mode (the in-place locks have no response mode and appear
/// once).
fn all_variants() -> Vec<(Design, ResponseMode)> {
    let mut v = Vec::new();
    for d in DESIGNS {
        v.push((d, ResponseMode::Flag));
        if !matches!(d, Design::Ticket | Design::Mcs) {
            v.push((d, ResponseMode::Pilot));
        }
    }
    v
}

/// Build `design` over `state` for handles `0..handles`, run `body` against
/// it as an [`Executor`], and tear it down (dedicated servers are stopped
/// and joined).
fn with_lock<T: Send + 'static, R>(
    (design, mode): (Design, ResponseMode),
    handles: usize,
    state: T,
    ops: OpTable<T>,
    body: impl FnOnce(&dyn Executor<T>) -> R,
) -> R {
    match design {
        Design::Ticket => body(&TicketLock::new(state, ops)),
        Design::Mcs => body(&McsLock::new(handles, state, ops)),
        Design::DSynch => body(&CombiningLock::new(handles, state, ops, mode)),
        Design::FlatCombining => body(&FlatCombining::new(handles, state, ops, mode)),
        Design::CcSynch => body(&CcSynch::new(handles, state, ops, mode)),
        Design::Ffwd => with_server(Ffwd::new(handles, state, ops, mode), body),
        Design::Rcl => with_server(Rcl::new(handles, state, ops, mode), body),
    }
}

/// Run `body` against a dedicated-server lock with its server thread up.
fn with_server<T: Send + 'static, S: Slot, R>(
    lock: Dedicated<T, S>,
    body: impl FnOnce(&dyn Executor<T>) -> R,
) -> R {
    let server = lock.start_server();
    let r = body(&ClientPool::new(&lock));
    lock.shutdown();
    server.join().unwrap();
    r
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
        design in 0usize..7,
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

/// One handle, nobody else: in the combining designs every operation is a
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

/// Node (and slot, and publication-record) recycling: 10⁴ operations per
/// handle go through a pool of `handles + 1` nodes, so every node is
/// adopted, served, retired and re-enqueued thousands of times, and the
/// Pilot variants walk their 64-seed schedule over a hundred times.
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

/// Return values that need all 64 bits — `u64::MAX` is `NOT_FOUND` in the
/// collections and floorplan's bound before the first solution — must come
/// back intact from every design in both modes, also when another thread
/// serves the request (the packed Pilot words of RCL and CC-Synch have room
/// for 63 and 62 payload bits and fall back to a flag completion beyond).
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
fn queue_combiners_hand_off_at_the_bound() {
    const THREADS: usize = 80;
    const PER: u64 = 12;
    for design in QUEUE_COMBINERS {
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
            with_lock((design, mode), THREADS, Tenures::default(), t, |lock| {
                std::thread::scope(|s| {
                    for h in 0..THREADS {
                        s.spawn(move || {
                            HANDLE.set(h as u64);
                            let mut last = 0;
                            for _ in 0..PER {
                                let r = lock.execute(h, record, h as u64);
                                assert!(r > last, "{design:?} {mode:?}");
                                last = r;
                            }
                        });
                    }
                });
                assert_eq!(lock.execute(0, longest, 0), 64, "{design:?} {mode:?}");
            });
        }
    }
}

/// A dedicated server told to stop while it is inside a critical section
/// must still publish that request's response, then drain and exit; a
/// request completed earlier is unaffected.
macro_rules! shutdown_in_flight {
    ($Lock:ident, $Executor:ident, $mode:expr) => {{
        static ENTERED: AtomicBool = AtomicBool::new(false);
        static RELEASE: AtomicBool = AtomicBool::new(false);
        let (mut t, add, _) = ops_table();
        let gate = t.register(|s, by| {
            ENTERED.store(true, Ordering::Release);
            while !RELEASE.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            *s += by;
            *s
        });
        let lock = $Lock::new(2, 0u64, t, $mode);
        let server = lock.start_server();
        let exec = $Executor::new(&lock);
        assert_eq!(exec.execute(1, add, 5), 5);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| exec.execute(0, gate, 2));
            while !ENTERED.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            lock.shutdown();
            RELEASE.store(true, Ordering::Release);
            assert_eq!(waiter.join().unwrap(), 7);
        });
        server.join().unwrap();
    }};
}

#[test]
fn dedicated_servers_finish_the_request_in_flight_at_shutdown() {
    shutdown_in_flight!(Ffwd, FfwdExecutor, ResponseMode::Flag);
    shutdown_in_flight!(Ffwd, FfwdExecutor, ResponseMode::Pilot);
    shutdown_in_flight!(Rcl, RclExecutor, ResponseMode::Flag);
    shutdown_in_flight!(Rcl, RclExecutor, ResponseMode::Pilot);
}
