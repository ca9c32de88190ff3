//! RCL-style remote core locking (Lozi et al.): a dedicated server core
//! where the *request word itself* is the completion channel.
//!
//! Like FFWD, a server thread owns the protected state and sweeps
//! per-client slots ([`crate::dedicated`] is the server loop). The RCL twist
//! is the slot protocol: a client posts `(op + 1) << 1` (even, non-zero)
//! into its request word and spins on that same word — one line round-trip
//! per operation instead of two.
//!
//! * **Flag mode** (Algorithm 5 shape): the server stores `ret` to the
//!   response word, runs the response barrier, then *clears the request
//!   word*; the cleared word is the completion flag.
//! * **Pilot mode** (Algorithm 6 shape): the server stores
//!   `((ret ^ hash) << 1) | 1` — odd — straight into the request word
//!   ([`HashPool::pack`] with a 1-bit tag). An odd value can never equal the
//!   even request the client wrote, so the single store is notification and
//!   payload at once and no response barrier or fallback flag is needed. A
//!   return value that needs all 64 bits completes the flag-mode way, which
//!   a waiter accepts in either mode.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

use armbar_barriers::native::run_barrier;
use armbar_barriers::{Barrier, ResponseMode};
use armbar_pilot::HashPool;

use crate::core::Core;
use crate::dedicated::{Client, ClientPool, Dedicated, Slot};
use crate::exec::OpId;

/// Pilot responses ride in the request word above a 1-bit tag.
const TAG_BITS: u32 = 1;

/// The RCL lock. Construct with [`Rcl::new`], then
/// [`Rcl::start_server`](Dedicated::start_server).
pub type Rcl<T> = Dedicated<T, RclSlot>;
/// A client handle: everything one thread needs to submit requests.
pub type RclClient<T> = Client<T, RclSlot>;
/// A sharable pool of client handles implementing
/// [`Executor`](crate::Executor).
pub type RclExecutor<T> = ClientPool<T, RclSlot>;

/// One client's slot: the dual-role request word on its own line, the
/// argument next to it, and the flag-mode response word on a second line.
#[doc(hidden)]
#[derive(Default)]
pub struct RclSlot {
    /// `(op + 1) << 1` while a request is pending; 0 (flag completion) or an
    /// odd packed response (pilot completion) once served.
    req: CachePadded<AtomicU64>,
    arg: AtomicU64,
    /// Flag-completion response word.
    ret: CachePadded<AtomicU64>,
}

/// One end of a slot: the request word last posted (client side) and the
/// rounds completed — the slot's seed-schedule position.
#[doc(hidden)]
#[derive(Default)]
pub struct RclEnd {
    posted: u64,
    round: u64,
}

impl Slot for RclSlot {
    type End = RclEnd;

    fn end(_pool: &HashPool) -> RclEnd {
        RclEnd::default()
    }

    fn post(&self, end: &mut RclEnd, op: OpId, arg: u64) {
        self.arg.store(arg, Ordering::Relaxed);
        // Publish the request: the request-word store must not overtake
        // the argument store.
        run_barrier(Barrier::DmbSt);
        end.posted = (op.0 as u64 + 1) << 1;
        self.req.store(end.posted, Ordering::Relaxed);
    }

    fn poll<T>(&self, core: &Core<T>, end: &mut RclEnd) -> Option<u64> {
        // Completion arrives on the word the request went out in.
        let word = self.req.load(Ordering::Relaxed);
        if word == end.posted {
            return None;
        }
        end.round += 1;
        core.pool.unpack(end.round - 1, word, TAG_BITS).or_else(|| {
            // Cleared: order the completion load before the ret load.
            run_barrier(Barrier::DmbLd);
            Some(self.ret.load(Ordering::Relaxed))
        })
    }

    fn detect(&self, _end: &mut RclEnd) -> Option<u64> {
        // A pending request is even and non-zero; anything else is an empty
        // slot or our own earlier response.
        let req = self.req.load(Ordering::Relaxed);
        (req != 0 && req & 1 == 0).then_some(req)
    }

    fn request(&self, detected: u64) -> (OpId, u64) {
        let op = OpId(((detected >> 1) - 1) as usize);
        (op, self.arg.load(Ordering::Relaxed))
    }

    fn respond<T>(&self, core: &Core<T>, end: &mut RclEnd, raw: u64) {
        let packed = match core.mode {
            ResponseMode::Flag => None,
            ResponseMode::Pilot => core.pool.pack(end.round, raw, TAG_BITS),
        };
        end.round += 1;
        match packed {
            Some(word) => self.req.store(word, Ordering::Relaxed),
            None => {
                self.ret.store(raw, Ordering::Relaxed);
                // Post-RMR barrier, then the completion store: clearing
                // the word the client spins on.
                run_barrier(core.resp_barrier);
                self.req.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{counter_ops, Executor, OpTable};

    fn exercise(mode: ResponseMode) {
        let (table, inc, get) = counter_ops();
        let lock = Rcl::new(5, 0u64, table, mode);
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
        // Constant returns can't confuse the odd/even protocol: the
        // response word is always odd, every request always even.
        let mut table = OpTable::new();
        let seven = table.register(|_s: &mut u64, _| 7);
        let lock = Rcl::new(1, 0u64, table, ResponseMode::Pilot);
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
        let lock = Rcl::new(2, 0u64, table, ResponseMode::Flag);
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
    fn executor_wrapper_works() {
        let (table, inc, get) = counter_ops();
        let lock = Rcl::new(4, 0u64, table, ResponseMode::Flag);
        let server = lock.start_server();
        let exec = RclExecutor::new(&lock);
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
