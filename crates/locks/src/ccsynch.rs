//! CC-Synch (Fatourou & Kallimanis): queue-based combining with node
//! recycling and a single packed status word per node — the
//! [`crate::queue`] skeleton with the waiter spinning on that word alone.
//!
//! This is a deliberately *naive* port on the barrier axis: it ships with
//! `DMB ISH` for both the request and response barriers, run before every
//! served request — the placement a straight x86→ARM translation produces —
//! so it is the suite's worked example of what `armbar lint` should flag
//! (Observation 6: the request barrier can weaken to an acquire load, the
//! response barrier to `DMB ISHST`).
//!
//! Status word protocol: [`WAIT`] while pending, [`COMBINER`] for a role
//! hand-off. Flag mode completes with status [`DONE`] after storing `ret`;
//! Pilot mode packs the shuffled return value into the status word itself
//! (`(ret ^ hash) << 2 | 3`, [`HashPool::pack`](armbar_pilot::HashPool::pack)
//! with a 2-bit tag), so one store both notifies and carries the payload. A
//! return value that needs the top two bits completes the flag-mode way,
//! which a waiter accepts in either mode.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

use armbar_barriers::native::run_barrier;
use armbar_barriers::{Barrier, ResponseMode};

use crate::core::Core;
use crate::queue::{Poll, QueueCombiner, Status};

/// Status: request completed the flag-mode way; `ret` is valid.
pub const DONE: u64 = 0;
/// Status: request pending; the owner spins on this value.
pub const WAIT: u64 = 1;
/// Status: the owner has been handed the combiner role.
pub const COMBINER: u64 = 2;

/// Pilot responses ride in the status word above a 2-bit all-ones tag,
/// which collides with none of the three values above.
const TAG_BITS: u32 = 2;

/// The CC-Synch combining lock. Every thread submits under its own handle
/// through [`Executor`](crate::Executor).
pub type CcSynch<T> = QueueCombiner<T, CcStatus>;

/// Completion state of one CC-Synch queue node.
#[doc(hidden)]
#[derive(Default)]
pub struct CcStatus {
    /// Flag-completion response word.
    ret: CachePadded<AtomicU64>,
    /// The spin word: [`WAIT`] / [`COMBINER`] / [`DONE`] or a packed Pilot
    /// response.
    status: CachePadded<AtomicU64>,
    /// Pilot hash-schedule position of this node.
    round: AtomicU64,
}

impl Status for CcStatus {
    const DEFAULT_BARRIERS: (Barrier, Barrier) = (Barrier::DmbFull, Barrier::DmbFull);
    const BARRIER_PER_REQUEST: bool = true;
    /// The node's round.
    type Sample = u64;

    fn reset(&self) {
        self.status.store(WAIT, Ordering::Relaxed);
    }

    fn sample(&self) -> u64 {
        self.round.load(Ordering::Acquire)
    }

    fn poll<T>(&self, core: &Core<T>, round: &u64) -> Poll {
        match self.status.load(Ordering::Acquire) {
            WAIT => Poll::Pending,
            COMBINER => Poll::Combiner,
            DONE => {
                run_barrier(Barrier::DmbLd);
                Poll::Served(self.ret.load(Ordering::Relaxed))
            }
            packed => {
                let ret = core.pool.unpack(*round, packed, TAG_BITS);
                Poll::Served(ret.expect("a status word is one of the three states or tagged"))
            }
        }
    }

    fn hand_off(&self) {
        self.status.store(COMBINER, Ordering::Release);
    }

    fn complete<T>(&self, core: &Core<T>, raw: u64, notify: bool) {
        // The round advances for the combiner's own node too: the schedule
        // position must stay coherent for the node's next owner.
        let packed = (core.mode == ResponseMode::Pilot).then(|| {
            let round = self.round.load(Ordering::Relaxed);
            self.round.store(round + 1, Ordering::Release);
            core.pool.pack(round, raw, TAG_BITS)
        });
        if !notify {
            return;
        }
        match packed.flatten() {
            // One store is both payload and notification.
            Some(word) => self.status.store(word, Ordering::Release),
            None => {
                self.ret.store(raw, Ordering::Relaxed);
                // Response barrier between the CS / ret stores and the
                // completion store the owner spins on.
                run_barrier(core.resp_barrier);
                self.status.store(DONE, Ordering::Release);
            }
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
        let lock = CcSynch::new(1, 0u64, table, ResponseMode::Flag);
        for i in 1..=50 {
            assert_eq!(lock.execute(0, inc, 1), i);
        }
        assert_eq!(lock.execute(0, get, 0), 50);
    }

    fn hammer(mode: ResponseMode, threads: usize, per: u64) {
        let (table, inc, get) = counter_ops();
        let lock = CcSynch::new(threads, 0u64, table, mode);
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
    fn tuned_barrier_pair_is_exact() {
        let (table, inc, get) = counter_ops();
        let core = Core::new(0u64, table, ResponseMode::Flag);
        let lock = CcSynch::from_core(4, core.with_barriers(Barrier::Ldar, Barrier::DmbSt));
        std::thread::scope(|s| {
            for h in 0..4 {
                let lock = &lock;
                s.spawn(move || {
                    for _ in 0..2_000 {
                        lock.execute(h, inc, 1);
                    }
                });
            }
        });
        assert_eq!(lock.execute(0, get, 0), 8_000);
    }

    #[test]
    fn pilot_mode_with_constant_returns() {
        let mut table = OpTable::new();
        let seven = table.register(|_s: &mut u64, _| 7);
        let lock = CcSynch::new(2, 0u64, table, ResponseMode::Pilot);
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
        let mut table = OpTable::new();
        let add = table.register(|s: &mut u64, by| {
            *s += by;
            *s
        });
        let lock = CcSynch::new(3, 0u64, table, ResponseMode::Flag);
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
