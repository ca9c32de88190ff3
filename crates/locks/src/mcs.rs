//! MCS queue lock (Mellor-Crummey & Scott [30]) with configurable barriers.
//!
//! Each waiter spins on its *own* node's flag, so the hand-off touches one
//! remote line per transfer instead of hammering a global word. Nodes live
//! in a fixed pool indexed by thread handle — no allocation and no raw
//! pointers; the queue tail stores `node index + 1` (0 = free).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam::utils::{Backoff, CachePadded};

use armbar_barriers::native::run_barrier;
use armbar_barriers::Barrier;

use crate::core::StateCell;
use crate::exec::{Executor, OpId, OpTable};

const NO_NODE: usize = 0;

struct Node {
    /// Successor node index + 1 (0 = none yet).
    next: CachePadded<AtomicUsize>,
    /// The waiter spins here; the predecessor flips it at hand-off.
    locked: CachePadded<AtomicU64>,
}

/// An MCS lock protecting state `T`, for up to `max_threads` handles.
pub struct McsLock<T> {
    tail: CachePadded<AtomicUsize>,
    nodes: Vec<Node>,
    /// Barrier after acquiring, before the critical section.
    pub acquire_barrier: Barrier,
    /// Barrier after the critical section, before releasing.
    pub release_barrier: Barrier,
    state: StateCell<T>,
    ops: OpTable<T>,
}

impl<T> McsLock<T> {
    /// An MCS lock for up to `max_threads` concurrent handles, with the
    /// paper's default barriers.
    #[must_use]
    pub fn new(max_threads: usize, state: T, ops: OpTable<T>) -> McsLock<T> {
        McsLock::with_barriers(max_threads, state, ops, Barrier::Ldar, Barrier::DmbSt)
    }

    /// Explicit-barrier constructor.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads == 0`.
    #[must_use]
    pub fn with_barriers(
        max_threads: usize,
        state: T,
        ops: OpTable<T>,
        acquire_barrier: Barrier,
        release_barrier: Barrier,
    ) -> McsLock<T> {
        assert!(max_threads > 0);
        McsLock {
            tail: CachePadded::new(AtomicUsize::new(NO_NODE)),
            nodes: (0..max_threads)
                .map(|_| Node {
                    next: CachePadded::new(AtomicUsize::new(NO_NODE)),
                    locked: CachePadded::new(AtomicU64::new(0)),
                })
                .collect(),
            acquire_barrier,
            release_barrier,
            state: StateCell::new(state),
            ops,
        }
    }

    fn acquire(&self, handle: usize) {
        let me = &self.nodes[handle];
        me.next.store(NO_NODE, Ordering::Relaxed);
        me.locked.store(1, Ordering::Relaxed);
        // Enqueue: AcqRel so we see the predecessor's node fields and they
        // see ours.
        let prev = self.tail.swap(handle + 1, Ordering::AcqRel);
        if prev != NO_NODE {
            self.nodes[prev - 1]
                .next
                .store(handle + 1, Ordering::Release);
            let backoff = Backoff::new();
            while me.locked.load(Ordering::Acquire) == 1 {
                backoff.snooze();
            }
        }
        run_barrier(self.acquire_barrier);
    }

    fn release(&self, handle: usize) {
        run_barrier(self.release_barrier);
        let me = &self.nodes[handle];
        let mut next = me.next.load(Ordering::Acquire);
        if next == NO_NODE {
            // No visible successor: try to reset the tail.
            if self
                .tail
                .compare_exchange(handle + 1, NO_NODE, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
            // A successor is mid-enqueue; wait for its link.
            let backoff = Backoff::new();
            loop {
                next = me.next.load(Ordering::Acquire);
                if next != NO_NODE {
                    break;
                }
                backoff.snooze();
            }
        }
        self.nodes[next - 1].locked.store(0, Ordering::Release);
    }

    /// Run `f` under the lock using the caller's pre-assigned handle.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is out of range.
    #[allow(unsafe_code)]
    pub fn with<R>(&self, handle: usize, f: impl FnOnce(&mut T) -> R) -> R {
        assert!(handle < self.nodes.len(), "handle out of range");
        self.acquire(handle);
        // SAFETY: only the queue head is between acquire and release (each
        // handle being one thread's): the tail swap admits one enqueuer at a
        // time and the per-node `locked` hand-off (Release store / Acquire
        // spin) passes the head on, ordering successive holders.
        let r = unsafe { self.state.as_server(f) };
        self.release(handle);
        r
    }
}

impl<T: Send> Executor<T> for McsLock<T> {
    fn execute(&self, handle: usize, id: OpId, arg: u64) -> u64 {
        let op = self.ops.get(id);
        self.with(handle, |s| op(s, arg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_roundtrip() {
        let lock = McsLock::new(1, 5u64, OpTable::new());
        assert_eq!(lock.with(0, |s| *s), 5);
        lock.with(0, |s| *s = 9);
        assert_eq!(lock.with(0, |s| *s), 9);
    }

    #[test]
    fn contended_counter_is_exact() {
        let mut table = OpTable::new();
        let inc = table.register(|s: &mut u64, by| {
            *s += by;
            *s
        });
        const THREADS: usize = 4;
        const PER: u64 = 5_000;
        let lock = McsLock::new(THREADS, 0u64, table);
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
        assert_eq!(lock.with(0, |s| *s), THREADS as u64 * PER);
    }

    #[test]
    fn reentrant_handles_sequentially() {
        let lock = McsLock::new(3, Vec::<u64>::new(), OpTable::new());
        for h in [0usize, 1, 2, 0, 1, 2] {
            lock.with(h, |v| v.push(h as u64));
        }
        assert_eq!(lock.with(0, |v| v.clone()), vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "handle out of range")]
    fn bad_handle_rejected() {
        let lock = McsLock::new(1, (), OpTable::new());
        lock.with(1, |()| ());
    }
}
