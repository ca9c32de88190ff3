//! Flat combining (Hendler, Incze, Shavit & Tzafrir): a publication list
//! plus an elected combiner.
//!
//! Every thread owns a padded *publication record*; posting a request is
//! one store into it. Whoever wins the combiner lock (test-and-test-and-set)
//! scans the whole list and executes every pending request before
//! releasing — one lock hand-off amortizes over many critical sections,
//! and the scan batches the response barriers exactly like FFWD's sweep.
//!
//! The request word doubles as the completion signal: the combiner clears
//! it after publishing the response, so a waiter spins on its own record
//! only. Barrier placement follows Algorithm 5 — a request barrier between
//! detecting a posted request and executing it, and a response barrier
//! between the critical section's stores and the completion store. The
//! Pilot variant (Algorithm 6) publishes `ret ^ hash` as the notification
//! itself — [`PilotCell`] in its shared-round form, the combiner being
//! whoever holds the lock — and needs neither the response barrier nor the
//! completion store on the waiter's hot path.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::{Backoff, CachePadded};

use armbar_barriers::native::run_barrier;
use armbar_barriers::{Barrier, ResponseMode};
use armbar_pilot::cell::Sampled;
use armbar_pilot::PilotCell;

use crate::core::Core;
use crate::exec::{Executor, OpId, OpTable};

/// Scan passes one combiner performs per lock tenure. A second pass picks
/// up requests posted while the first was running, amortizing the lock
/// hand-off further; passes that serve nothing end the tenure early.
const SCAN_PASSES: u32 = 2;

/// One thread's publication record. The request word lives on its own
/// line; response state shares a second line.
#[derive(Default)]
struct PubRecord {
    /// `op + 1` while a request is pending, 0 otherwise (the combiner
    /// clears it, which is the flag-mode completion signal).
    req: CachePadded<AtomicU64>,
    arg: AtomicU64,
    /// Response line: the raw return value, or `ret ^ hash` plus fallback
    /// flag in Pilot mode.
    resp: PilotCell,
}

/// The flat-combining lock. Per-thread handles index the publication list.
pub struct FlatCombining<T> {
    core: Core<T>,
    records: Vec<PubRecord>,
    /// The combiner lock: 0 free, 1 held.
    lock: CachePadded<AtomicU64>,
}

impl<T: Send> FlatCombining<T> {
    /// Flat combining for handles `0..max_threads` completing requests in
    /// `mode`, with the paper's best barrier pair.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads == 0`.
    #[must_use]
    pub fn new(max_threads: usize, state: T, ops: OpTable<T>, mode: ResponseMode) -> Self {
        assert!(max_threads > 0);
        FlatCombining {
            core: Core::new(state, ops, mode),
            records: (0..max_threads).map(|_| PubRecord::default()).collect(),
            lock: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// One look at our own record: the result, if a combiner served it while
    /// we waited.
    fn served(&self, rec: &PubRecord, sample: &Sampled) -> Option<u64> {
        match self.core.mode {
            ResponseMode::Flag => (rec.req.load(Ordering::Acquire) == 0).then(|| {
                // Order the completion load before the ret load.
                run_barrier(Barrier::DmbLd);
                rec.resp.load_raw()
            }),
            ResponseMode::Pilot => rec.resp.poll_sampled(sample, &self.core.pool),
        }
    }

    /// Scan the publication list while holding the combiner lock; returns
    /// our own result if our own record was still pending when scanned.
    #[allow(unsafe_code)]
    fn combine(&self, h: usize) -> Option<u64> {
        let mut mine = None;
        for _ in 0..SCAN_PASSES {
            let mut served = 0u32;
            for (i, rec) in self.records.iter().enumerate() {
                let req = rec.req.load(Ordering::Relaxed);
                if req == 0 {
                    continue;
                }
                // Algorithm 5 line 4: order the request detection before
                // reading op/arg and touching the protected state.
                run_barrier(self.core.req_barrier);
                let arg = rec.arg.load(Ordering::Relaxed);
                // SAFETY: `combine`'s only caller holds the combiner lock — it
                // won the Acquire compare-exchange on `lock` and stores 0
                // (Release) only after this scan returns.
                let raw = unsafe { self.core.serve(OpId((req - 1) as usize), arg) };
                if i == h {
                    mine = Some(raw);
                }
                self.publish(rec, raw, i != h);
                served += 1;
            }
            if served == 0 {
                break;
            }
        }
        mine
    }

    /// Publish one completed request. `notify` is false for our own record
    /// (the result travels by return value).
    fn publish(&self, rec: &PubRecord, raw: u64, notify: bool) {
        match self.core.mode {
            ResponseMode::Flag => {
                rec.resp.store_raw(raw);
                if notify {
                    // Line 7: the post-RMR barrier, then the completion
                    // store (clearing the request word).
                    run_barrier(self.core.resp_barrier);
                }
                rec.req.store(0, Ordering::Release);
            }
            ResponseMode::Pilot => {
                // Bookkeeping only: Pilot waiters watch the response line,
                // not `req`.
                rec.req.store(0, Ordering::Relaxed);
                rec.resp.publish_round(raw, &self.core.pool, notify);
            }
        }
    }
}

impl<T: Send> Executor<T> for FlatCombining<T> {
    fn execute(&self, h: usize, op: OpId, arg: u64) -> u64 {
        let rec = &self.records[h];
        // Pilot decode state must be sampled before the request is visible.
        let sample = rec.resp.sample();
        // Post: op/arg first, then the request word that publishes them.
        rec.arg.store(arg, Ordering::Relaxed);
        rec.req.store(op.0 as u64 + 1, Ordering::Release);

        let backoff = Backoff::new();
        loop {
            if let Some(ret) = self.served(rec, &sample) {
                return ret;
            }
            // Otherwise try to become the combiner.
            if self.lock.load(Ordering::Relaxed) == 0
                && self
                    .lock
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                let mine = self.combine(h);
                self.lock.store(0, Ordering::Release);
                if let Some(raw) = mine {
                    return raw;
                }
                // Someone served us just before our tenure; decode on the
                // next loop turn (the response is already published).
                continue;
            }
            backoff.snooze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::counter_ops;

    #[test]
    fn single_thread_sequence() {
        let (table, inc, get) = counter_ops();
        let lock = FlatCombining::new(1, 0u64, table, ResponseMode::Flag);
        for i in 1..=50 {
            assert_eq!(lock.execute(0, inc, 1), i);
        }
        assert_eq!(lock.execute(0, get, 0), 50);
    }

    fn hammer(mode: ResponseMode, threads: usize, per: u64) {
        let (table, inc, get) = counter_ops();
        let lock = FlatCombining::new(threads, 0u64, table, mode);
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
        let lock = FlatCombining::new(2, 0u64, table, ResponseMode::Pilot);
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
        let lock = FlatCombining::new(3, 0u64, table, ResponseMode::Flag);
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
