//! Migratory-server delegation lock of the CC-Synch/DSM-Synch combining
//! family (Fatourou & Kallimanis [14]; `DSynch` in the paper's figures).
//!
//! Threads append their requests to a queue with one atomic swap; whoever
//! lands at the head becomes the *combiner* and executes a bounded run of
//! queued critical sections before handing the role on. There is no
//! dedicated core — the server migrates, which is the flexibility the paper
//! credits this family with. Nodes live in a fixed pool and are addressed by
//! index (+1, with 0 as null), so the whole queue is safe Rust over atomics.
//! Each thread owns one spare node at a time and *adopts its predecessor's
//! node* after enqueueing — the classic CC-Synch recycling trick.
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

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam::utils::{Backoff, CachePadded};

use armbar_barriers::native::run_barrier;
use armbar_barriers::{Barrier, ResponseMode};
use armbar_pilot::cell::Sampled;
use armbar_pilot::{HashPool, PilotCell};

use crate::core::StateCell;
use crate::exec::{Executor, OpId, OpTable};

/// Maximum critical sections one combiner executes before handing off —
/// bounds tail latency for the thread stuck combining.
const COMBINE_BOUND: usize = 64;

/// Null node index (indices into the pool are `1..`).
const NIL: usize = 0;

/// Between taking the combiner role and reading the queued requests
/// (Algorithm 5, line 4), once per combining tenure.
const REQ_BARRIER: Barrier = Barrier::Ldar;

/// Between the critical section and a flag-mode completion store
/// (Algorithm 5, line 7 — the post-RMR barrier Pilot removes).
const RESP_BARRIER: Barrier = Barrier::DmbSt;

/// What a waiter learns from one look at its node.
enum Poll {
    /// Still queued behind the combiner.
    Pending,
    /// A combiner executed the request, with this result.
    Served(u64),
    /// The combiner role was handed to this node's owner.
    Combiner,
}

/// A posted request: op id + 1 (0 = none, as on the tail dummy) and argument.
#[derive(Default)]
struct Request {
    op: AtomicU64,
    arg: AtomicU64,
}

#[derive(Default)]
struct Node {
    /// One line for both words: a combiner reads them together.
    req: CachePadded<Request>,
    /// Successor node index, [`NIL`] while unlinked.
    next: CachePadded<AtomicUsize>,
    /// Response line: the raw return value, or `ret ^ hash` plus fallback
    /// flag in Pilot mode.
    resp: PilotCell,
    /// 1 while the waiter must keep spinning.
    wait: CachePadded<AtomicU64>,
    /// 1 when the request was executed by a combiner (vs. becoming the next
    /// combiner). Flag mode only: Pilot's response word is the notification.
    completed: AtomicU64,
}

impl Node {
    /// Combiner: hand the role to whoever owns (or next adopts) this node.
    fn hand_off(&self) {
        self.wait.store(0, Ordering::Release);
    }
}

/// The combining lock; every thread submits under its own pre-assigned
/// handle through [`Executor`].
pub struct CombiningLock<T> {
    state: StateCell<T>,
    ops: OpTable<T>,
    mode: ResponseMode,
    /// Pilot seed schedule (Algorithm 6).
    pool: HashPool,
    nodes: Vec<Node>,
    /// Index of the current tail dummy.
    tail: CachePadded<AtomicUsize>,
    /// Spare node of each handle, exchanged for the old tail per enqueue.
    handles: Vec<CachePadded<AtomicUsize>>,
}

impl<T: Send> CombiningLock<T> {
    /// A lock for handles `0..max_threads` completing requests in `mode`,
    /// with the paper's best barrier pair (`LDAR`-strength request barrier,
    /// `DMB st` response barrier).
    ///
    /// # Panics
    ///
    /// Panics if `max_threads == 0`.
    #[must_use]
    pub fn new(max_threads: usize, state: T, ops: OpTable<T>, mode: ResponseMode) -> Self {
        assert!(max_threads > 0);
        // One node per thread plus the initial dummy at the tail, which
        // makes the first enqueuer the combiner.
        let nodes: Vec<Node> = (0..=max_threads).map(|_| Node::default()).collect();
        nodes[max_threads].hand_off();
        CombiningLock {
            state: StateCell::new(state),
            ops,
            mode,
            pool: HashPool::default_pool(),
            nodes,
            tail: CachePadded::new(AtomicUsize::new(max_threads + 1)),
            handles: (0..max_threads)
                .map(|h| CachePadded::new(AtomicUsize::new(h + 1)))
                .collect(),
        }
    }

    fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx - 1]
    }

    /// Waiter: one look at the node.
    fn poll(&self, node: &Node, sample: &Sampled) -> Poll {
        if self.mode == ResponseMode::Pilot {
            // Served? The response word (or fallback flag) changes.
            if let Some(ret) = node.resp.poll_sampled(sample, &self.pool) {
                return Poll::Served(ret);
            }
        }
        if node.wait.load(Ordering::Acquire) == 1 {
            Poll::Pending
        } else if node.completed.load(Ordering::Relaxed) == 1 {
            Poll::Served(node.resp.load_raw())
        } else {
            // `wait` dropped without a response: the combiner role.
            Poll::Combiner
        }
    }

    /// Combiner: record a served request's result. `notify` is unset for the
    /// combiner's own node: its result travels by return value.
    fn complete(&self, node: &Node, raw: u64, notify: bool) {
        match self.mode {
            ResponseMode::Flag => {
                node.resp.store_raw(raw);
                if notify {
                    // The paper's expensive pattern: barrier strictly after
                    // the critical section's stores, then the flag.
                    run_barrier(RESP_BARRIER);
                    node.completed.store(1, Ordering::Relaxed);
                    node.wait.store(0, Ordering::Release);
                }
            }
            // Nothing may follow the notification: the waiter is gone the
            // moment it lands and may already be reusing the node (a late
            // store to `completed` would land in the node's next life).
            ResponseMode::Pilot => node.resp.publish_round(raw, &self.pool, notify),
        }
    }

    /// Execute queued requests from our own node `first` on; returns its
    /// result. Canonical CC-Synch sweep: a node is served only when its
    /// `next` link is up. The sweep ends at the link-less node — the tail
    /// dummy, whose next adopter combines — or, after [`COMBINE_BOUND`]
    /// requests, at an unserved one, whose owner serves itself first.
    #[allow(unsafe_code)]
    fn combine(&self, first: usize) -> u64 {
        run_barrier(REQ_BARRIER);
        let mut my_ret = 0u64;
        let mut served = 0usize;
        let mut cur = first;
        loop {
            let node = self.node(cur);
            let next = node.next.load(Ordering::Acquire);
            if next == NIL || served == COMBINE_BOUND {
                debug_assert_ne!(cur, first, "our own node always has a successor link");
                node.hand_off();
                return my_ret;
            }
            // `next != NIL` (Acquire) publishes op/arg written before the
            // link (Release); a linked node carries a posted request.
            let op = self
                .ops
                .get(OpId((node.req.op.load(Ordering::Relaxed) - 1) as usize));
            let arg = node.req.arg.load(Ordering::Relaxed);
            // SAFETY: `combine` runs only on `Poll::Combiner`, and the role
            // exists once — it starts on the initial dummy and moves only
            // through `hand_off` (a Release store, this tenure's last access)
            // to the one owner whose Acquire poll reads it.
            let raw = unsafe { self.state.as_server(|state| op(state, arg)) };
            if cur == first {
                my_ret = raw;
            }
            self.complete(node, raw, cur != first);
            served += 1;
            cur = next;
        }
    }
}

impl<T: Send> Executor<T> for CombiningLock<T> {
    fn execute(&self, h: usize, op: OpId, arg: u64) -> u64 {
        // Fresh enqueue node: nobody can see it until the swap publishes it.
        let my = self.handles[h].load(Ordering::Relaxed);
        let spare = self.node(my);
        spare.next.store(NIL, Ordering::Relaxed);
        spare.req.op.store(0, Ordering::Relaxed);
        spare.wait.store(1, Ordering::Relaxed);
        spare.completed.store(0, Ordering::Relaxed);
        // Swap it in and adopt the old tail as our request node.
        let cur = self.tail.swap(my, Ordering::AcqRel);
        self.handles[h].store(cur, Ordering::Relaxed);
        let node = self.node(cur);
        // Read before the request is linked, i.e. before a combiner can
        // serve the node.
        let sample = node.resp.sample();
        node.req.arg.store(arg, Ordering::Relaxed);
        node.req.op.store(op.0 as u64 + 1, Ordering::Relaxed);
        // Linking publishes the request to the current combiner.
        node.next.store(my, Ordering::Release);

        // Wait for service or for the combiner role.
        let backoff = Backoff::new();
        loop {
            match self.poll(node, &sample) {
                Poll::Served(ret) => return ret,
                Poll::Combiner => return self.combine(cur),
                Poll::Pending => backoff.snooze(),
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
