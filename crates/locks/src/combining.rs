//! Migratory-server delegation lock of the CC-Synch/DSM-Synch combining
//! family (Fatourou & Kallimanis [14]; `DSynch` in the paper's figures):
//! the [`crate::queue`] skeleton with a wait flag per node.
//!
//! A waiter spins on its node's `wait` word. A combiner that executed the
//! request sets `completed` before dropping `wait`; dropping `wait` alone
//! hands over the combiner role.
//!
//! The Pilot variant removes the completion-flag store that strictly
//! follows the critical section (Algorithm 6): the combiner publishes
//! `ret ^ hash` into the waiter's node as the notification itself, with a
//! per-node fallback flag — [`PilotCell`] in its shared-round form. Waiter
//! and combiner agree on the hash index via the cell's round counter, which
//! only ever changes while the node is quiescent for its waiter.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

use armbar_barriers::native::run_barrier;
use armbar_barriers::{Barrier, ResponseMode};
use armbar_pilot::cell::Sampled;
use armbar_pilot::PilotCell;

use crate::core::Core;
use crate::queue::{Poll, QueueCombiner, Status};

/// The combining lock. Every thread submits under its own handle through
/// [`Executor`](crate::Executor).
pub type CombiningLock<T> = QueueCombiner<T, DSynchStatus>;

/// Completion state of one DSynch queue node.
#[doc(hidden)]
#[derive(Default)]
pub struct DSynchStatus {
    /// Response line: the raw return value, or `ret ^ hash` plus fallback
    /// flag in Pilot mode.
    resp: PilotCell,
    /// 1 while the waiter must keep spinning.
    wait: CachePadded<AtomicU64>,
    /// 1 when the request was executed by a combiner (vs. becoming the next
    /// combiner). Flag mode only: Pilot's response word is the notification.
    completed: AtomicU64,
}

impl Status for DSynchStatus {
    const DEFAULT_BARRIERS: (Barrier, Barrier) = (Barrier::Ldar, Barrier::DmbSt);
    const BARRIER_PER_REQUEST: bool = false;
    type Sample = Sampled;

    fn reset(&self) {
        self.wait.store(1, Ordering::Relaxed);
        self.completed.store(0, Ordering::Relaxed);
    }

    fn sample(&self) -> Sampled {
        self.resp.sample()
    }

    fn poll<T>(&self, core: &Core<T>, sample: &Sampled) -> Poll {
        if core.mode == ResponseMode::Pilot {
            // Served? The response word (or fallback flag) changes.
            if let Some(ret) = self.resp.poll_sampled(sample, &core.pool) {
                return Poll::Served(ret);
            }
        }
        if self.wait.load(Ordering::Acquire) == 1 {
            Poll::Pending
        } else if self.completed.load(Ordering::Relaxed) == 1 {
            Poll::Served(self.resp.load_raw())
        } else {
            // `wait` dropped without a response: the combiner role.
            Poll::Combiner
        }
    }

    fn hand_off(&self) {
        self.wait.store(0, Ordering::Release);
    }

    fn complete<T>(&self, core: &Core<T>, raw: u64, notify: bool) {
        match core.mode {
            ResponseMode::Flag => {
                self.resp.store_raw(raw);
                if notify {
                    // The paper's expensive pattern: barrier strictly after
                    // the critical section's stores, then the flag.
                    run_barrier(core.resp_barrier);
                    self.completed.store(1, Ordering::Relaxed);
                    self.wait.store(0, Ordering::Release);
                }
            }
            // Nothing may follow the notification: the waiter is gone the
            // moment it lands and may already be reusing the node (a late
            // store to `completed` would land in the node's next life).
            ResponseMode::Pilot => self.resp.publish_round(raw, &core.pool, notify),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{counter_ops, Executor, OpTable};

    #[test]
    fn single_thread_sequence() {
        let (table, inc, get) = counter_ops();
        let lock = CombiningLock::new(1, 0u64, table, ResponseMode::Flag);
        for i in 1..=50 {
            assert_eq!(lock.execute(0, inc, 1), i);
        }
        assert_eq!(lock.execute(0, get, 0), 50);
    }

    fn hammer(mode: ResponseMode, threads: usize, per: u64) {
        let (table, inc, get) = counter_ops();
        let lock = CombiningLock::new(threads, 0u64, table, mode);
        std::thread::scope(|s| {
            for h in 0..threads {
                let lock = &lock;
                s.spawn(move || {
                    for _ in 0..per {
                        lock.execute(h, inc, 1);
                    }
                });
            }
        });
        assert_eq!(lock.execute(0, get, 0), threads as u64 * per);
    }

    #[test]
    fn contended_flag_mode_is_exact() {
        hammer(ResponseMode::Flag, 4, 3_000);
    }

    #[test]
    fn contended_pilot_mode_is_exact() {
        hammer(ResponseMode::Pilot, 4, 3_000);
    }

    #[test]
    fn pilot_mode_with_constant_returns() {
        let mut table = OpTable::new();
        let seven = table.register(|_s: &mut u64, _| 7);
        let lock = CombiningLock::new(2, 0u64, table, ResponseMode::Pilot);
        std::thread::scope(|s| {
            for h in 0..2 {
                let lock = &lock;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        assert_eq!(lock.execute(h, seven, 0), 7);
                    }
                });
            }
        });
    }

    #[test]
    fn results_are_request_specific() {
        // Each thread adds its own stamp; the returned running total must
        // reflect its own addition (monotonically includes its stamp).
        let mut table = OpTable::new();
        let add = table.register(|s: &mut u64, by| {
            *s += by;
            *s
        });
        let lock = CombiningLock::new(3, 0u64, table, ResponseMode::Flag);
        std::thread::scope(|s| {
            for h in 0..3 {
                let lock = &lock;
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..2_000 {
                        let r = lock.execute(h, add, 1);
                        assert!(r > last, "running total must strictly grow for this thread");
                        last = r;
                    }
                });
            }
        });
    }
}
