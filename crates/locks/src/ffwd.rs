//! FFWD-style dedicated-server delegation lock (Roghanchi et al. [42]),
//! with the paper's Pilot response path as a variant.
//!
//! A dedicated server thread owns the protected state and executes every
//! critical section ([`crate::dedicated`] is the server loop). Each client
//! has a padded request/response slot; the hand-off is Algorithm 5:
//!
//! ```text
//! server:  1-3  detect a flipped request flag
//!          4    Barrier                  (request barrier)
//!          6    ret = criticalSection(arg)
//!          7    Barrier                  (response barrier — after the CS's
//!                                         stores, i.e. strictly after RMRs)
//!          8    flip response flag
//! ```
//!
//! The response barrier is the expensive one; Algorithm 6 (Pilot) replaces
//! lines 7-8 by publishing `ret ^ hash` as the notification itself, with the
//! flag fallback for collisions — [`PilotCell`] in its local-cursor form:
//! server and client are a fixed pair per slot, each walking its own copy of
//! the seed schedule.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

use armbar_barriers::native::run_barrier;
use armbar_barriers::{Barrier, ResponseMode};
use armbar_pilot::cell::Last;
use armbar_pilot::{HashPool, PilotCell};

use crate::core::Core;
use crate::dedicated::{Client, ClientPool, Dedicated, Slot};
use crate::exec::OpId;

/// The FFWD delegation lock. Construct with [`Ffwd::new`], then
/// [`Ffwd::start_server`](Dedicated::start_server).
pub type Ffwd<T> = Dedicated<T, FfwdSlot>;
/// A client handle: everything one thread needs to submit requests.
pub type FfwdClient<T> = Client<T, FfwdSlot>;
/// A sharable pool of client handles implementing
/// [`Executor`](crate::Executor).
pub type FfwdExecutor<T> = ClientPool<T, FfwdSlot>;

/// One client's communication slot. Request and response live on separate
/// padded lines so the server's response stores do not fight the client's
/// request stores.
#[doc(hidden)]
#[derive(Default)]
pub struct FfwdSlot {
    /// Request: flag (flip = new request), op id, argument.
    req_flag: CachePadded<AtomicU64>,
    op: AtomicU64,
    arg: AtomicU64,
    /// Response: payload word and flag share a line (Pilot touches only
    /// this line on the common path; flag mode flips the flag).
    resp: PilotCell,
}

/// One end of a slot: the flag it last saw (the request flag at the server,
/// the flag-mode response flag at the client) and its side of Algorithm 6.
#[doc(hidden)]
pub struct FfwdEnd {
    seen_flag: u64,
    last: Last,
    pool: HashPool,
}

impl Slot for FfwdSlot {
    type End = FfwdEnd;

    fn end(pool: &HashPool) -> FfwdEnd {
        FfwdEnd {
            seen_flag: 0,
            last: Last::default(),
            pool: pool.clone(),
        }
    }

    fn post(&self, _end: &mut FfwdEnd, op: OpId, arg: u64) {
        self.op.store(op.0 as u64, Ordering::Relaxed);
        self.arg.store(arg, Ordering::Relaxed);
        // Publish the request: the flag flip must not overtake op/arg.
        run_barrier(Barrier::DmbSt);
        let flipped = self.req_flag.load(Ordering::Relaxed) ^ 1;
        self.req_flag.store(flipped, Ordering::Relaxed);
    }

    fn poll<T>(&self, core: &Core<T>, end: &mut FfwdEnd) -> Option<u64> {
        match core.mode {
            ResponseMode::Flag => {
                if !self.resp.flipped(&mut end.seen_flag) {
                    return None;
                }
                // Order the flag load before the ret load.
                run_barrier(Barrier::DmbLd);
                Some(self.resp.load_raw())
            }
            // Algorithm 4 on the response line.
            ResponseMode::Pilot => self.resp.poll(&mut end.last, &mut end.pool),
        }
    }

    fn detect(&self, end: &mut FfwdEnd) -> Option<u64> {
        let now = self.req_flag.load(Ordering::Relaxed);
        (now != std::mem::replace(&mut end.seen_flag, now)).then_some(now)
    }

    fn request(&self, _detected: u64) -> (OpId, u64) {
        let op = OpId(self.op.load(Ordering::Relaxed) as usize);
        (op, self.arg.load(Ordering::Relaxed))
    }

    fn respond<T>(&self, core: &Core<T>, end: &mut FfwdEnd, raw: u64) {
        match core.mode {
            ResponseMode::Flag => {
                self.resp.store_raw(raw);
                // Line 7: the post-RMR barrier.
                run_barrier(core.resp_barrier);
                // Line 8.
                self.resp.flip();
            }
            // Algorithm 6, lines 6-13.
            ResponseMode::Pilot => {
                self.resp.publish(&mut end.last, raw, &mut end.pool);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{counter_ops, Executor, OpTable};

    fn exercise(mode: ResponseMode) {
        // Slot 4 stays untouched by the workers so the checker's fresh
        // client state matches it (client decode state is per-slot and a
        // slot must not be re-claimed by a second client).
        let (table, inc, get) = counter_ops();
        let lock = Ffwd::new(5, 0u64, table, mode);
        let server = lock.start_server();
        const PER: u64 = 3_000;
        std::thread::scope(|s| {
            for c in 0..4 {
                let mut client = lock.client(c);
                s.spawn(move || {
                    for _ in 0..PER {
                        client.execute(inc, 1);
                    }
                });
            }
        });
        let mut checker = lock.client(4);
        assert_eq!(checker.execute(get, 0), 4 * PER);
        lock.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn flag_mode_counts_exactly() {
        exercise(ResponseMode::Flag);
    }

    #[test]
    fn pilot_mode_counts_exactly() {
        exercise(ResponseMode::Pilot);
    }

    #[test]
    fn pilot_mode_handles_identical_returns() {
        // An op that always returns the same value maximizes collisions:
        // the shuffle must avoid most, and the flag fallback must cover the
        // engineered rest. Correctness = every call returns 7.
        let mut table = OpTable::new();
        let seven = table.register(|_s: &mut u64, _| 7);
        let lock = Ffwd::new(1, 0u64, table, ResponseMode::Pilot);
        let server = lock.start_server();
        let mut client = lock.client(0);
        for _ in 0..500 {
            assert_eq!(client.execute(seven, 0), 7);
        }
        lock.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn distinct_clients_get_distinct_answers() {
        let (table, inc, _) = counter_ops();
        let lock = Ffwd::new(2, 0u64, table, ResponseMode::Flag);
        let server = lock.start_server();
        let mut a = lock.client(0);
        let mut b = lock.client(1);
        let r1 = a.execute(inc, 10);
        let r2 = b.execute(inc, 1);
        assert_eq!((r1, r2), (10, 11));
        lock.shutdown();
        server.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "one server")]
    fn a_second_server_is_refused() {
        let (table, ..) = counter_ops();
        let lock = Ffwd::new(1, 0u64, table, ResponseMode::Flag);
        lock.shutdown();
        lock.start_server().join().unwrap();
        let _ = lock.start_server();
    }

    #[test]
    fn executor_wrapper_works() {
        let (table, inc, get) = counter_ops();
        let lock = Ffwd::new(4, 0u64, table, ResponseMode::Flag);
        let server = lock.start_server();
        let exec = FfwdExecutor::new(&lock);
        std::thread::scope(|s| {
            for h in 0..3 {
                let exec = &exec;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        exec.execute(h, inc, 1);
                    }
                });
            }
        });
        assert_eq!(exec.execute(3, get, 0), 3_000);
        lock.shutdown();
        server.join().unwrap();
    }
}
