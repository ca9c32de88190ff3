//! CC-Synch (Fatourou & Kallimanis): queue-based combining with node
//! recycling and a single packed status word per node.
//!
//! Unlike the publication-list design (`flatcombining`), waiters form an
//! explicit FIFO: each thread swaps its spare node into the shared tail,
//! adopts the previous tail as *its* request node, fills it in, links it,
//! and spins on that node's status word alone. The thread that finds
//! itself at the head becomes the combiner, walks the list serving up to
//! `COMBINE_BOUND` requests, then hands the combiner role to the first
//! unserved node by storing [`COMBINER`] into its status.
//!
//! This is a deliberately *naive* port on the barrier axis: it ships with
//! `DMB ISH` for both the request and response barriers — the placement a
//! straight x86→ARM translation produces — so it is the suite's worked
//! example of what `armbar lint` should flag (Observation 6: the request
//! barrier can weaken to an acquire load, the response barrier to
//! `DMB ISHST`). Use [`CcSynch::with_barriers`] for the tuned pairs.
//!
//! Status word protocol: [`WAIT`] while pending, [`COMBINER`] for a role
//! hand-off. Flag mode completes with status [`DONE`] after storing `ret`;
//! Pilot mode packs the shuffled return value into the status word itself
//! (`(ret ^ hash) << 2 | 3`), so one store both notifies and carries the
//! payload — return values are limited to 62 bits in that mode.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::utils::{Backoff, CachePadded};

use armbar_barriers::Barrier;
use armbar_pilot::HashPool;

use crate::exec::{Executor, OpId, OpTable};
use crate::ffwd::ResponseMode;
use crate::ticket::run_barrier;

/// Status: request completed (flag mode); `ret` is valid.
pub const DONE: u64 = 0;
/// Status: request pending; the owner spins on this value.
pub const WAIT: u64 = 1;
/// Status: the owner has been handed the combiner role.
pub const COMBINER: u64 = 2;

/// Requests one combiner serves before handing off — bounds tail latency
/// for the thread stuck combining.
const COMBINE_BOUND: u32 = 64;

/// Null node index (indices into the pool are `1..`).
const NIL: usize = 0;

/// Pilot responses ride in the status word above the 2-bit tag, so both
/// the payload and the hash it is shuffled with live in 62 bits.
const PILOT_MASK: u64 = (1 << 62) - 1;

struct Node {
    /// `op + 1` (0 = no request; the tail dummy carries none).
    op: AtomicU64,
    arg: AtomicU64,
    /// Flag-mode response word.
    ret: CachePadded<AtomicU64>,
    /// The spin word: [`WAIT`] / [`COMBINER`] / [`DONE`] or a packed
    /// Pilot response (`(ret ^ hash) << 2 | 3`).
    status: CachePadded<AtomicU64>,
    /// Successor node index, [`NIL`] while unlinked.
    next: CachePadded<AtomicUsize>,
    /// Pilot hash-schedule position of this node.
    round: AtomicU64,
}

struct Shared<T> {
    nodes: Vec<Node>,
    /// Index of the current tail dummy.
    tail: CachePadded<AtomicUsize>,
    /// Spare node owned by each handle, adopted from the old tail on
    /// every enqueue (classic CC-Synch recycling).
    handles: Vec<CachePadded<AtomicUsize>>,
    state: std::cell::UnsafeCell<T>,
}

// SAFETY: `state` is only touched by the unique combiner.
unsafe impl<T: Send> Sync for Shared<T> {}
unsafe impl<T: Send> Send for Shared<T> {}

/// The CC-Synch combining lock.
pub struct CcSynch<T> {
    shared: Arc<Shared<T>>,
    ops: Arc<OpTable<T>>,
    mode: ResponseMode,
    /// Barrier between observing a linked request and executing it.
    pub req_barrier: Barrier,
    /// Barrier between the critical section and the completion store.
    pub resp_barrier: Barrier,
    pool: HashPool,
}

impl<T: Send> CcSynch<T> {
    /// Flag-completion CC-Synch with the naive full-fence pair a direct
    /// port ships with (see the module docs; `armbar lint` weakens both).
    #[must_use]
    pub fn new(max_threads: usize, state: T, ops: OpTable<T>) -> CcSynch<T> {
        CcSynch::with_barriers(
            max_threads,
            state,
            ops,
            ResponseMode::Flag,
            Barrier::DmbFull,
            Barrier::DmbFull,
        )
    }

    /// Pilot-completion CC-Synch (response packed into the status word).
    #[must_use]
    pub fn new_pilot(max_threads: usize, state: T, ops: OpTable<T>) -> CcSynch<T> {
        CcSynch::with_barriers(
            max_threads,
            state,
            ops,
            ResponseMode::Pilot,
            Barrier::DmbFull,
            Barrier::DmbFull,
        )
    }

    /// Fully explicit constructor.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads == 0`.
    #[must_use]
    pub fn with_barriers(
        max_threads: usize,
        state: T,
        ops: OpTable<T>,
        mode: ResponseMode,
        req_barrier: Barrier,
        resp_barrier: Barrier,
    ) -> CcSynch<T> {
        assert!(max_threads > 0);
        // One node per thread plus the initial dummy; index 0 is NIL.
        let nodes: Vec<Node> = (0..=max_threads)
            .map(|_| Node {
                op: AtomicU64::new(0),
                arg: AtomicU64::new(0),
                ret: CachePadded::new(AtomicU64::new(0)),
                status: CachePadded::new(AtomicU64::new(WAIT)),
                next: CachePadded::new(AtomicUsize::new(NIL)),
                round: AtomicU64::new(0),
            })
            .collect();
        // Node `max_threads + 1` is the initial dummy at the tail; its
        // status is COMBINER so the first enqueuer combines immediately.
        nodes[max_threads].status.store(COMBINER, Ordering::Relaxed);
        CcSynch {
            shared: Arc::new(Shared {
                nodes,
                tail: CachePadded::new(AtomicUsize::new(max_threads + 1)),
                handles: (0..max_threads)
                    .map(|h| CachePadded::new(AtomicUsize::new(h + 1)))
                    .collect(),
                state: std::cell::UnsafeCell::new(state),
            }),
            ops: Arc::new(ops),
            mode,
            req_barrier,
            resp_barrier,
            pool: HashPool::default_pool(),
        }
    }

    fn node(&self, idx: usize) -> &Node {
        &self.shared.nodes[idx - 1]
    }

    /// Submit one critical section from handle `h` and wait for the result.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn execute_on(&self, h: usize, op: OpId, arg: u64) -> u64 {
        let shared = &self.shared;
        // Reset our spare node before exposing it as the new tail dummy.
        let my = shared.handles[h].load(Ordering::Relaxed);
        self.node(my).status.store(WAIT, Ordering::Relaxed);
        self.node(my).next.store(NIL, Ordering::Relaxed);
        // Swap it in and adopt the old tail as our request node.
        let cur = shared.tail.swap(my, Ordering::AcqRel);
        shared.handles[h].store(cur, Ordering::Relaxed);
        let node = self.node(cur);
        // Pilot decode state must be sampled before the request is linked.
        let round = node.round.load(Ordering::Acquire);
        let old_status = node.status.load(Ordering::Relaxed);
        node.op.store(op.0 as u64 + 1, Ordering::Relaxed);
        node.arg.store(arg, Ordering::Relaxed);
        // Linking publishes the request to the current combiner.
        node.next.store(my, Ordering::Release);

        let backoff = Backoff::new();
        loop {
            let s = node.status.load(Ordering::Acquire);
            match self.mode {
                ResponseMode::Flag => {
                    if s == DONE {
                        run_barrier(Barrier::DmbLd);
                        return node.ret.load(Ordering::Relaxed);
                    }
                }
                ResponseMode::Pilot => {
                    if s != old_status && s != COMBINER {
                        debug_assert_eq!(s & 3, 3, "packed pilot responses carry tag 3");
                        return (s >> 2) ^ (self.pool.seed_at(round as usize) & PILOT_MASK);
                    }
                }
            }
            if s == COMBINER {
                return self.combine(cur);
            }
            backoff.snooze();
        }
    }

    /// Serve the queue starting from our own node `first`, then hand the
    /// combiner role to the first unserved node. Returns our own result.
    fn combine(&self, first: usize) -> u64 {
        let mut my_ret = 0u64;
        let mut served = 0u32;
        let mut cur = first;
        loop {
            let node = self.node(cur);
            let next = node.next.load(Ordering::Acquire);
            if next == NIL || served == COMBINE_BOUND {
                // `cur` is the tail dummy (no request) or an unserved
                // request whose owner inherits the combiner role.
                node.status.store(COMBINER, Ordering::Release);
                debug_assert!(served > 0, "combiner always serves its own request");
                return my_ret;
            }
            // Request barrier: order the link detection before reading
            // op/arg and entering the critical section.
            run_barrier(self.req_barrier);
            let op = OpId((node.op.load(Ordering::Relaxed) - 1) as usize);
            let arg = node.arg.load(Ordering::Relaxed);
            // SAFETY: status-word hand-off makes the combiner unique.
            let raw = (self.ops.get(op))(unsafe { &mut *self.shared.state.get() }, arg);
            if cur == first {
                my_ret = raw;
                // Our own result travels by return value; only the pilot
                // schedule position needs to stay coherent for the node's
                // next owner.
                if self.mode == ResponseMode::Pilot {
                    let round = node.round.load(Ordering::Relaxed);
                    node.round.store(round + 1, Ordering::Release);
                }
            } else {
                self.publish(node, raw);
            }
            served += 1;
            cur = next;
        }
    }

    /// Publish one completed request to a waiting owner.
    fn publish(&self, node: &Node, raw: u64) {
        match self.mode {
            ResponseMode::Flag => {
                node.ret.store(raw, Ordering::Relaxed);
                // Response barrier between the CS / ret stores and the
                // completion store the owner spins on.
                run_barrier(self.resp_barrier);
                node.status.store(DONE, Ordering::Release);
            }
            ResponseMode::Pilot => {
                let round = node.round.load(Ordering::Relaxed);
                node.round.store(round + 1, Ordering::Release);
                // One store is both payload and notification: tag 3 can
                // collide with neither WAIT (1) nor COMBINER (2) nor the
                // sampled pre-link status.
                debug_assert!(raw <= PILOT_MASK, "pilot returns are limited to 62 bits");
                let packed = ((raw ^ (self.pool.seed_at(round as usize) & PILOT_MASK)) << 2) | 3;
                node.status.store(packed, Ordering::Release);
            }
        }
    }
}

impl<T: Send> Executor<T> for CcSynch<T> {
    fn execute(&self, handle: usize, id: OpId, arg: u64) -> u64 {
        self.execute_on(handle, id, arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_ops() -> (OpTable<u64>, OpId, OpId) {
        let mut t = OpTable::new();
        let inc = t.register(|s, by| {
            *s += by;
            *s
        });
        let get = t.register(|s, _| *s);
        (t, inc, get)
    }

    #[test]
    fn single_thread_sequence() {
        let (table, inc, get) = counter_ops();
        let lock = CcSynch::new(1, 0u64, table);
        for i in 1..=50 {
            assert_eq!(lock.execute_on(0, inc, 1), i);
        }
        assert_eq!(lock.execute_on(0, get, 0), 50);
    }

    fn hammer(mode: ResponseMode, threads: usize, per: u64) {
        let (table, inc, get) = counter_ops();
        let lock = match mode {
            ResponseMode::Flag => CcSynch::new(threads, 0u64, table),
            ResponseMode::Pilot => CcSynch::new_pilot(threads, 0u64, table),
        };
        std::thread::scope(|s| {
            for h in 0..threads {
                let lock = &lock;
                s.spawn(move || {
                    for _ in 0..per {
                        lock.execute_on(h, inc, 1);
                    }
                });
            }
        });
        assert_eq!(lock.execute_on(0, get, 0), threads as u64 * per);
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
        let lock = CcSynch::with_barriers(
            4,
            0u64,
            table,
            ResponseMode::Flag,
            Barrier::Ldar,
            Barrier::DmbSt,
        );
        std::thread::scope(|s| {
            for h in 0..4 {
                let lock = &lock;
                s.spawn(move || {
                    for _ in 0..2_000 {
                        lock.execute_on(h, inc, 1);
                    }
                });
            }
        });
        assert_eq!(lock.execute_on(0, get, 0), 8_000);
    }

    #[test]
    fn pilot_mode_with_constant_returns() {
        let mut table = OpTable::new();
        let seven = table.register(|_s: &mut u64, _| 7);
        let lock = CcSynch::new_pilot(2, 0u64, table);
        std::thread::scope(|s| {
            for h in 0..2 {
                let lock = &lock;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        assert_eq!(lock.execute_on(h, seven, 0), 7);
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
        let lock = CcSynch::new(3, 0u64, table);
        std::thread::scope(|s| {
            for h in 0..3 {
                let lock = &lock;
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..2_000 {
                        let r = lock.execute_on(h, add, 1);
                        assert!(r > last, "running total must strictly grow for this thread");
                        last = r;
                    }
                });
            }
        });
    }
}
