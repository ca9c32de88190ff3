//! Ticket lock with configurable barriers (Linux-kernel style).
//!
//! Acquire: atomically take a ticket, spin until `owner` reaches it, then an
//! acquire-side ordering point keeps the critical section from floating
//! above the lock. Release: an ordering point keeps the critical section's
//! accesses from floating below, then `owner` advances.
//!
//! The release-side barrier is the interesting one (Figure 7(a)): after a
//! critical section that touched remote cache lines, it sits strictly after
//! RMRs and its cost balloons (Observation 2).

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

use armbar_barriers::native::run_barrier;
use armbar_barriers::Barrier;

use crate::core::StateCell;
use crate::exec::{Executor, OpId, OpTable};

/// A ticket lock protecting state `T`.
#[derive(Debug)]
pub struct TicketLock<T> {
    next: CachePadded<AtomicU64>,
    owner: CachePadded<AtomicU64>,
    /// Barrier executed after acquiring, before the critical section.
    pub acquire_barrier: Barrier,
    /// Barrier executed after the critical section, before releasing.
    pub release_barrier: Barrier,
    state: StateCell<T>,
    ops: OpTable<T>,
}

impl<T> TicketLock<T> {
    /// A ticket lock with the paper's default barriers (acquire-side load
    /// barrier, release-side store barrier).
    #[must_use]
    pub fn new(state: T, ops: OpTable<T>) -> TicketLock<T> {
        TicketLock::with_barriers(state, ops, Barrier::Ldar, Barrier::DmbSt)
    }

    /// A ticket lock with explicit acquire/release barriers.
    #[must_use]
    pub fn with_barriers(
        state: T,
        ops: OpTable<T>,
        acquire_barrier: Barrier,
        release_barrier: Barrier,
    ) -> TicketLock<T> {
        TicketLock {
            next: CachePadded::new(AtomicU64::new(0)),
            owner: CachePadded::new(AtomicU64::new(0)),
            acquire_barrier,
            release_barrier,
            state: StateCell::new(state),
            ops,
        }
    }

    fn acquire(&self) {
        // Take a ticket. Relaxed is enough: the spin on `owner` plus the
        // acquire barrier publishes the critical section.
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let backoff = crossbeam::utils::Backoff::new();
        while self.owner.load(Ordering::Acquire) != ticket {
            backoff.snooze();
        }
        run_barrier(self.acquire_barrier);
    }

    fn release(&self) {
        run_barrier(self.release_barrier);
        // `owner` only ever advances by the holder; Release pairs with the
        // spinner's Acquire (belt and braces alongside the explicit barrier).
        let cur = self.owner.load(Ordering::Relaxed);
        self.owner.store(cur + 1, Ordering::Release);
    }

    /// Run `f` under the lock (closure form for host code).
    #[allow(unsafe_code)]
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.acquire();
        // SAFETY: tickets are unique and `owner` equals ours until `release`
        // below, so no other thread is between its acquire and release; the
        // Release store / Acquire spin on `owner` order successive holders.
        let r = unsafe { self.state.as_server(f) };
        self.release();
        r
    }
}

impl<T: Send> Executor<T> for TicketLock<T> {
    fn execute(&self, _handle: usize, id: OpId, arg: u64) -> u64 {
        let op = self.ops.get(id);
        self.with(|s| op(s, arg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inc_table() -> (OpTable<u64>, OpId) {
        let mut t = OpTable::new();
        let inc = t.register(|s, by| {
            *s += by;
            *s
        });
        (t, inc)
    }

    #[test]
    fn counter_increments_race_free() {
        let (table, inc) = inc_table();
        let lock = TicketLock::new(0u64, table);
        const THREADS: usize = 4;
        const PER: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER {
                        lock.execute(0, inc, 1);
                    }
                });
            }
        });
        assert_eq!(lock.with(|s| *s), THREADS as u64 * PER);
    }

    #[test]
    fn fifo_order_single_thread() {
        let (table, inc) = inc_table();
        let lock = TicketLock::new(0u64, table);
        for i in 1..=100 {
            assert_eq!(lock.execute(0, inc, 1), i);
        }
    }

    #[test]
    fn all_barrier_choices_remain_correct() {
        for rel in [
            Barrier::DmbFull,
            Barrier::DmbSt,
            Barrier::DsbFull,
            Barrier::Stlr,
            Barrier::None, // incorrect on ARM; fine under host TSO
        ] {
            let (table, inc) = inc_table();
            let lock = TicketLock::with_barriers(0u64, table, Barrier::Ldar, rel);
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        for _ in 0..2_000 {
                            lock.execute(0, inc, 1);
                        }
                    });
                }
            });
            assert_eq!(lock.with(|s| *s), 6_000, "release barrier {rel}");
        }
    }

    #[test]
    fn with_returns_closure_value() {
        let lock = TicketLock::new(vec![1, 2, 3], OpTable::new());
        let sum: i32 = lock.with(|v| v.iter().sum());
        assert_eq!(sum, 6);
    }
}
