//! Migratory-server delegation lock of the CC-Synch/DSM-Synch combining
//! family (Fatourou & Kallimanis [14]; `DSynch` in the paper's figures).
//!
//! Threads append their requests to a queue with one atomic swap; whoever
//! lands at the head becomes the *combiner* and executes a bounded run of
//! queued critical sections before handing the role on. There is no
//! dedicated core — the server migrates, which is the flexibility the paper
//! credits this family with.
//!
//! Nodes live in a fixed pool and are addressed by index (+1, with 0 as
//! null), so the whole queue is safe Rust over atomics. Each thread owns
//! one node at a time and *adopts its predecessor's node* after enqueueing —
//! the classic CC-Synch recycling trick.
//!
//! The Pilot variant removes the completion-flag store that strictly
//! follows the critical section (Algorithm 6): the combiner publishes
//! `ret ^ hash` into the waiter's node as the notification itself, with a
//! per-node fallback flag. Waiter and combiner agree on the hash index via
//! a node-local round counter that only ever changes while the node is
//! quiescent for its waiter.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::utils::{Backoff, CachePadded};

use armbar_barriers::Barrier;
use armbar_pilot::HashPool;

use crate::exec::{Executor, OpId, OpTable};
use crate::ffwd::ResponseMode;
use crate::ticket::run_barrier;

/// Maximum critical sections one combiner executes before handing off.
const COMBINE_BOUND: usize = 64;

const NIL: usize = 0;

struct Node {
    /// Request: op id + 1 (0 = no request yet) and argument.
    op: CachePadded<AtomicU64>,
    arg: AtomicU64,
    /// Response word (raw, or `ret ^ hash` in Pilot mode).
    ret: CachePadded<AtomicU64>,
    /// Pilot fallback flag.
    flag: AtomicU64,
    /// 1 while the waiter must keep spinning (flag mode).
    wait: CachePadded<AtomicU64>,
    /// 1 when the request was executed by a combiner (vs. becoming the next
    /// combiner). Flag mode only: Pilot's response word is the notification.
    completed: AtomicU64,
    /// Successor node index + 1.
    next: CachePadded<AtomicUsize>,
    /// Pilot round counter of this node (hash schedule position).
    round: AtomicU64,
}

impl Node {
    fn new() -> Node {
        Node {
            op: CachePadded::new(AtomicU64::new(0)),
            arg: AtomicU64::new(0),
            ret: CachePadded::new(AtomicU64::new(0)),
            flag: AtomicU64::new(0),
            wait: CachePadded::new(AtomicU64::new(0)),
            completed: AtomicU64::new(0),
            next: CachePadded::new(AtomicUsize::new(NIL)),
            round: AtomicU64::new(0),
        }
    }
}

struct Shared<T> {
    nodes: Vec<Node>,
    tail: CachePadded<AtomicUsize>,
    state: std::cell::UnsafeCell<T>,
}

// SAFETY: `state` is only touched by the current combiner; combiner
// succession is serialized by the queue (swap on `tail` + wait/next
// hand-offs with acquire/release ordering).
unsafe impl<T: Send> Sync for Shared<T> {}
unsafe impl<T: Send> Send for Shared<T> {}

/// The combining lock. Per-thread handles come from
/// [`CombiningLock::handle`].
pub struct CombiningLock<T> {
    shared: Arc<Shared<T>>,
    ops: Arc<OpTable<T>>,
    mode: ResponseMode,
    /// Barrier after detecting a request, before executing it.
    pub req_barrier: Barrier,
    /// Barrier after a critical section, before the completion flag
    /// (flag mode only — Pilot removes it).
    pub resp_barrier: Barrier,
    pool: HashPool,
    /// Owned node index (+1) of each handle; `handles[h]` is exchanged on
    /// every operation.
    handles: Vec<CachePadded<AtomicUsize>>,
}

impl<T: Send> CombiningLock<T> {
    /// Flag-completion combining lock for up to `max_threads` handles.
    #[must_use]
    pub fn new(max_threads: usize, state: T, ops: OpTable<T>) -> CombiningLock<T> {
        CombiningLock::with_barriers(
            max_threads,
            state,
            ops,
            ResponseMode::Flag,
            Barrier::Ldar,
            Barrier::DmbSt,
        )
    }

    /// Pilot-completion combining lock (Algorithm 6 applied to the
    /// migratory server).
    #[must_use]
    pub fn new_pilot(max_threads: usize, state: T, ops: OpTable<T>) -> CombiningLock<T> {
        CombiningLock::with_barriers(
            max_threads,
            state,
            ops,
            ResponseMode::Pilot,
            Barrier::Ldar,
            Barrier::DmbSt,
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
    ) -> CombiningLock<T> {
        assert!(max_threads > 0);
        // One node per thread plus the initial dummy at the tail.
        let nodes: Vec<Node> = (0..=max_threads).map(|_| Node::new()).collect();
        let dummy = max_threads; // index of the initial tail node
        CombiningLock {
            shared: Arc::new(Shared {
                nodes,
                tail: CachePadded::new(AtomicUsize::new(dummy + 1)),
                state: std::cell::UnsafeCell::new(state),
            }),
            ops: Arc::new(ops),
            mode,
            req_barrier,
            resp_barrier,
            pool: HashPool::default_pool(),
            handles: (0..max_threads)
                .map(|h| CachePadded::new(AtomicUsize::new(h + 1)))
                .collect(),
        }
    }

    /// Submit one critical section from handle `h` and wait for the result.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn execute_on(&self, h: usize, op: OpId, arg: u64) -> u64 {
        let shared = &self.shared;
        let my = self.handles[h].load(Ordering::Relaxed);
        debug_assert_ne!(my, NIL);
        let my_node = &shared.nodes[my - 1];
        // Fresh enqueue node: nobody can see it until the swap publishes it.
        my_node.next.store(NIL, Ordering::Relaxed);
        my_node.wait.store(1, Ordering::Relaxed);
        my_node.completed.store(0, Ordering::Relaxed);
        my_node.op.store(0, Ordering::Relaxed);

        // Publish and adopt the predecessor's node.
        let cur = shared.tail.swap(my, Ordering::AcqRel);
        debug_assert_ne!(cur, NIL);
        let cur_node = &shared.nodes[cur - 1];
        self.handles[h].store(cur, Ordering::Relaxed);

        // Pilot decode state must be sampled before the combiner can serve
        // this node (i.e. before the `next` link goes up).
        let old_ret = cur_node.ret.load(Ordering::Relaxed);
        let old_flag = cur_node.flag.load(Ordering::Relaxed);
        let round = cur_node.round.load(Ordering::Acquire);

        // Write the request into the adopted node, then link it.
        cur_node.arg.store(arg, Ordering::Relaxed);
        cur_node.op.store(op.0 as u64 + 1, Ordering::Relaxed);
        cur_node.next.store(my, Ordering::Release);

        // Wait for service or for the combiner role.
        let backoff = Backoff::new();
        match self.mode {
            ResponseMode::Flag => {
                while cur_node.wait.load(Ordering::Acquire) == 1 {
                    backoff.snooze();
                }
                if cur_node.completed.load(Ordering::Relaxed) == 1 {
                    return cur_node.ret.load(Ordering::Relaxed);
                }
            }
            ResponseMode::Pilot => {
                loop {
                    // Served? The response word (or fallback flag) changes.
                    if cur_node.ret.load(Ordering::Relaxed) != old_ret
                        || cur_node.flag.load(Ordering::Relaxed) != old_flag
                    {
                        return cur_node.ret.load(Ordering::Relaxed)
                            ^ self.pool.seed_at(round as usize);
                    }
                    // Combiner role? `wait` drops without a response.
                    if cur_node.wait.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    backoff.snooze();
                }
            }
        }
        // We are the combiner; our own request executes first.
        self.combine(cur)
    }

    /// Execute queued requests starting at node index (+1) `first`; returns
    /// the result of `first`'s request (ours).
    ///
    /// Canonical CC-Synch sweep: a node is served only when its `next` link
    /// is up (the link's release/acquire pair publishes the request); the
    /// final link-less node is never served — it is the new dummy, and
    /// dropping its `wait` hands the combiner role to whoever adopts it.
    fn combine(&self, first: usize) -> u64 {
        let shared = &self.shared;
        run_barrier(self.req_barrier);
        let mut my_ret = 0u64;
        let mut tmp = first;
        let mut served = 0usize;
        loop {
            let node = &shared.nodes[tmp - 1];
            let next = node.next.load(Ordering::Acquire);
            if next == NIL || served == COMBINE_BOUND {
                // Hand off: `tmp` is the new dummy (no request published)
                // or the bounded-handoff point (its owner combines next and
                // serves itself first).
                debug_assert_ne!(tmp, first, "our own node always has a successor link");
                node.wait.store(0, Ordering::Release);
                return my_ret;
            }
            // `next != NIL` (Acquire) publishes op/arg written before the
            // link (Release).
            let op_plus1 = node.op.load(Ordering::Relaxed);
            debug_assert_ne!(op_plus1, 0, "linked nodes carry a posted request");
            let op = OpId((op_plus1 - 1) as usize);
            let arg = node.arg.load(Ordering::Relaxed);
            // SAFETY: only the (unique) combiner reaches this point.
            let raw = (self.ops.get(op))(unsafe { &mut *shared.state.get() }, arg);
            if tmp == first {
                my_ret = raw;
            }
            self.publish(tmp, raw, tmp != first);
            served += 1;
            tmp = next;
        }
    }

    /// Publish a completed request's result to node `idx` (+1). `notify`
    /// is false for our own node (no one is waiting on it).
    fn publish(&self, idx: usize, raw: u64, notify: bool) {
        let node = &self.shared.nodes[idx - 1];
        match self.mode {
            ResponseMode::Flag => {
                node.ret.store(raw, Ordering::Relaxed);
                if notify {
                    // The paper's expensive pattern: barrier strictly after
                    // the critical section's stores, then the flag.
                    run_barrier(self.resp_barrier);
                    node.completed.store(1, Ordering::Relaxed);
                    node.wait.store(0, Ordering::Release);
                }
            }
            ResponseMode::Pilot => {
                let round = node.round.load(Ordering::Relaxed);
                node.round.store(round + 1, Ordering::Release);
                if notify {
                    let old = node.ret.load(Ordering::Relaxed);
                    let new = raw ^ self.pool.seed_at(round as usize);
                    if new != old {
                        node.ret.store(new, Ordering::Release);
                    } else {
                        let f = node.flag.load(Ordering::Relaxed) ^ 1;
                        node.flag.store(f, Ordering::Release);
                    }
                    // Nothing may follow the notification: the waiter is
                    // gone the moment it lands and may already be reusing
                    // the node (`completed` is flag mode's, a late store to
                    // it would land in the node's next life).
                } else {
                    // Our own result travels by return value; still keep the
                    // stored word fresh so future rounds' old-value sampling
                    // stays coherent.
                    node.ret
                        .store(raw ^ self.pool.seed_at(round as usize), Ordering::Relaxed);
                }
            }
        }
    }
}

impl<T: Send> Executor<T> for CombiningLock<T> {
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
        let lock = CombiningLock::new(1, 0u64, table);
        for i in 1..=50 {
            assert_eq!(lock.execute_on(0, inc, 1), i);
        }
        assert_eq!(lock.execute_on(0, get, 0), 50);
    }

    fn hammer(mode: ResponseMode, threads: usize, per: u64) {
        let (table, inc, get) = counter_ops();
        let lock = match mode {
            ResponseMode::Flag => CombiningLock::new(threads, 0u64, table),
            ResponseMode::Pilot => CombiningLock::new_pilot(threads, 0u64, table),
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
    fn pilot_mode_with_constant_returns() {
        let mut table = OpTable::new();
        let seven = table.register(|_s: &mut u64, _| 7);
        let lock = CombiningLock::new_pilot(2, 0u64, table);
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
        // Each thread adds its own stamp; the returned running total must
        // reflect its own addition (monotonically includes its stamp).
        let mut table = OpTable::new();
        let add = table.register(|s: &mut u64, by| {
            *s += by;
            *s
        });
        let lock = CombiningLock::new(3, 0u64, table);
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
