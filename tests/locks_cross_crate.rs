//! Integration: the lock families, the collections built on them, and the
//! macro-workloads, all exercised together on host threads.

use armbar::collections::NOT_FOUND;
use armbar::collections::{LockedHashTable, QueueOps, SeqQueue, SeqStack, SortedList, StackOps};
use armbar::floorplan::{bots_input, solve_parallel, solve_sequential, BoundOps, SharedBound};
use armbar::locks::{CombiningLock, Executor, Ffwd, McsLock, OpTable, ResponseMode, TicketLock};

const THREADS: usize = 4;
const PER: u64 = 2_000;

fn counter_ops() -> (OpTable<u64>, armbar::locks::OpId) {
    let mut t = OpTable::new();
    let inc = t.register(|s, by| {
        *s += by;
        *s
    });
    (t, inc)
}

#[test]
fn every_lock_family_counts_exactly() {
    // Ticket.
    let (t, inc) = counter_ops();
    let ticket = TicketLock::new(0u64, t);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER {
                    ticket.execute(0, inc, 1);
                }
            });
        }
    });
    assert_eq!(ticket.with(|v| *v), THREADS as u64 * PER);

    // MCS.
    let (t, inc) = counter_ops();
    let mcs = McsLock::new(THREADS, 0u64, t);
    std::thread::scope(|s| {
        for h in 0..THREADS {
            let mcs = &mcs;
            s.spawn(move || {
                for _ in 0..PER {
                    mcs.execute(h, inc, 1);
                }
            });
        }
    });
    assert_eq!(mcs.with(0, |v| *v), THREADS as u64 * PER);

    // Combining (flag + pilot).
    for mode in ResponseMode::ALL {
        let (t, inc) = counter_ops();
        let lock = CombiningLock::new(THREADS, 0u64, t, mode);
        std::thread::scope(|s| {
            for h in 0..THREADS {
                let lock = &lock;
                s.spawn(move || {
                    for _ in 0..PER {
                        lock.execute(h, inc, 1);
                    }
                });
            }
        });
        assert_eq!(lock.execute(0, inc, 0), THREADS as u64 * PER, "{mode:?}");
    }

    // FFWD (flag + pilot).
    for mode in ResponseMode::ALL {
        let (t, inc) = counter_ops();
        let lock = Ffwd::new(THREADS, 0u64, t, mode);
        let server = lock.start_server();
        std::thread::scope(|s| {
            for h in 0..THREADS {
                let mut c = lock.client(h);
                s.spawn(move || {
                    for _ in 0..PER {
                        c.execute(inc, 1);
                    }
                });
            }
        });
        lock.shutdown();
        server.join().unwrap();
    }
}

#[test]
fn queue_and_stack_balance_under_every_executor() {
    // Queue under ticket.
    let mut t = OpTable::new();
    let qops = QueueOps::register(&mut t);
    let q = TicketLock::new(SeqQueue::new(), t);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for i in 0..PER {
                    q.execute(0, qops.enqueue, i);
                    assert_ne!(q.execute(0, qops.dequeue, 0), NOT_FOUND);
                }
            });
        }
    });
    assert_eq!(q.execute(0, qops.len, 0), 0);

    // Stack under combining-pilot.
    let mut t = OpTable::new();
    let sops = StackOps::register(&mut t);
    let st = CombiningLock::new(THREADS, SeqStack::new(), t, ResponseMode::Pilot);
    std::thread::scope(|s| {
        for h in 0..THREADS {
            let st = &st;
            s.spawn(move || {
                for i in 0..PER {
                    st.execute(h, sops.push, i);
                    assert_ne!(st.execute(h, sops.pop, 0), NOT_FOUND);
                }
            });
        }
    });
    assert_eq!(st.execute(0, sops.len, 0), 0);
}

#[test]
fn hash_table_mixed_workload_with_combining_buckets() {
    let table: LockedHashTable<CombiningLock<SortedList>> =
        LockedHashTable::new(8, 256, |_b, list, ops| {
            CombiningLock::new(THREADS, list, ops, ResponseMode::Flag)
        });
    std::thread::scope(|s| {
        for h in 0..THREADS {
            let table = &table;
            s.spawn(move || {
                let my = |i: u64| 1_000 + h as u64 + THREADS as u64 * i;
                for i in 0..500u64 {
                    for q in 0..10 {
                        table.contains(h, (i * 3 + q) % 256);
                    }
                    assert!(table.insert(h, my(i)));
                    assert!(table.remove(h, my(i)));
                }
            });
        }
    });
    assert_eq!(table.len(0), 256);
}

#[test]
fn floorplan_all_lock_variants_agree_on_the_optimum() {
    let p = bots_input(5);
    let reference = solve_sequential(&p).area;
    // Ticket.
    let mut t = OpTable::new();
    let ops = BoundOps::register(&mut t);
    let lock = TicketLock::new(SharedBound::new(), t);
    assert_eq!(solve_parallel(&p, THREADS, &lock, ops, 64).area, reference);
    // Combining, flag and pilot.
    for mode in ResponseMode::ALL {
        let mut t = OpTable::new();
        let ops = BoundOps::register(&mut t);
        let lock = CombiningLock::new(THREADS, SharedBound::new(), t, mode);
        assert_eq!(solve_parallel(&p, THREADS, &lock, ops, 64).area, reference);
    }
}

#[test]
fn dedup_archives_are_identical_across_queue_kinds() {
    use armbar::dedup::{generate_input, run_pipeline, QueueKind, WorkloadSize};
    let input = generate_input(WorkloadSize::Tiny, 55, 99);
    let (a, _) = run_pipeline(&input, QueueKind::LockBased);
    let (b, _) = run_pipeline(&input, QueueKind::RingBuffer);
    let (c, _) = run_pipeline(&input, QueueKind::RingBufferPilot);
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert_eq!(a.unpack().unwrap(), input);
}
