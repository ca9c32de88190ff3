//! Integration: the two native locks and the macro-workloads, all
//! exercised together on host threads.

use armbar::floorplan::{bots_input, solve_parallel, solve_sequential, BoundOps, SharedBound};
use armbar::locks::{CombiningLock, Executor, OpTable, ResponseMode, TicketLock};

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
