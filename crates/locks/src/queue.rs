//! The queue-combiner skeleton of the CC-Synch/DSM-Synch family (Fatourou &
//! Kallimanis [14]).
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
//! What a waiter spins on and how a combiner completes a request is the
//! [`Status`] protocol, a static type parameter: the one in
//! [`crate::combining`] or the one in [`crate::ccsynch`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam::utils::{Backoff, CachePadded};

use armbar_barriers::native::run_barrier;
use armbar_barriers::{Barrier, ResponseMode};

use crate::core::Core;
use crate::exec::{Executor, OpId, OpTable};

/// Maximum critical sections one combiner executes before handing off —
/// bounds tail latency for the thread stuck combining.
const COMBINE_BOUND: usize = 64;

/// Null node index (indices into the pool are `1..`).
const NIL: usize = 0;

/// What a waiter learns from one look at its node.
#[doc(hidden)]
pub enum Poll {
    /// Still queued behind the combiner.
    Pending,
    /// A combiner executed the request, with this result.
    Served(u64),
    /// The combiner role was handed to this node's owner.
    Combiner,
}

/// The per-node completion protocol of a queue combiner. Not an extension
/// point: its methods take this crate's private core, so the two in-crate
/// protocols are the only implementations there can be.
pub trait Status: Default + Send + Sync {
    /// Request and response barrier a lock of this design ships with.
    const DEFAULT_BARRIERS: (Barrier, Barrier);
    /// Whether the request barrier runs before every served request or once
    /// per combining tenure.
    const BARRIER_PER_REQUEST: bool;
    /// Pilot decode state, read before the request is linked (i.e. before a
    /// combiner can serve the node).
    type Sample: Copy;

    /// Owner: re-arm a spare node before it becomes the tail dummy.
    fn reset(&self);
    /// Waiter: read the decode state of a freshly adopted node.
    fn sample(&self) -> Self::Sample;
    /// Waiter: one look at the node.
    fn poll<T>(&self, core: &Core<T>, sample: &Self::Sample) -> Poll;
    /// Combiner: hand the role to whoever owns (or next adopts) this node.
    fn hand_off(&self);
    /// Combiner: record a served request's result. `notify` is unset for the
    /// combiner's own node: its result travels by return value.
    fn complete<T>(&self, core: &Core<T>, raw: u64, notify: bool);
}

/// A posted request: op id + 1 (0 = none, as on the tail dummy) and argument.
#[derive(Default)]
struct Request {
    op: AtomicU64,
    arg: AtomicU64,
}

#[derive(Default)]
struct Node<S> {
    /// One line for both words: a combiner reads them together.
    req: CachePadded<Request>,
    /// Successor node index, [`NIL`] while unlinked.
    next: CachePadded<AtomicUsize>,
    status: S,
}

/// A queue-combining lock over status protocol `S`; every thread submits
/// under its own pre-assigned handle.
pub struct QueueCombiner<T, S> {
    core: Core<T>,
    nodes: Vec<Node<S>>,
    /// Index of the current tail dummy.
    tail: CachePadded<AtomicUsize>,
    /// Spare node of each handle, exchanged for the old tail per enqueue.
    handles: Vec<CachePadded<AtomicUsize>>,
}

impl<T: Send, S: Status> QueueCombiner<T, S> {
    /// A lock for handles `0..max_threads` completing requests in `mode`,
    /// with the design's own barrier pair.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads == 0`.
    #[must_use]
    pub fn new(max_threads: usize, state: T, ops: OpTable<T>, mode: ResponseMode) -> Self {
        let (req, resp) = S::DEFAULT_BARRIERS;
        let core = Core::new(state, ops, mode).with_barriers(req, resp);
        Self::from_core(max_threads, core)
    }

    pub(crate) fn from_core(max_threads: usize, core: Core<T>) -> Self {
        assert!(max_threads > 0);
        // One node per thread plus the initial dummy at the tail, which
        // makes the first enqueuer the combiner.
        let nodes: Vec<Node<S>> = (0..=max_threads).map(|_| Node::default()).collect();
        nodes[max_threads].status.hand_off();
        QueueCombiner {
            core,
            nodes,
            tail: CachePadded::new(AtomicUsize::new(max_threads + 1)),
            handles: (0..max_threads)
                .map(|h| CachePadded::new(AtomicUsize::new(h + 1)))
                .collect(),
        }
    }

    fn node(&self, idx: usize) -> &Node<S> {
        &self.nodes[idx - 1]
    }

    /// Execute queued requests from our own node `first` on; returns its
    /// result. Canonical CC-Synch sweep: a node is served only when its
    /// `next` link is up. The sweep ends at the link-less node — the tail
    /// dummy, whose next adopter combines — or, after [`COMBINE_BOUND`]
    /// requests, at an unserved one, whose owner serves itself first.
    #[allow(unsafe_code)]
    fn combine(&self, first: usize) -> u64 {
        let core = &self.core;
        if !S::BARRIER_PER_REQUEST {
            run_barrier(core.req_barrier);
        }
        let mut my_ret = 0u64;
        let mut served = 0usize;
        let mut cur = first;
        loop {
            let node = self.node(cur);
            let next = node.next.load(Ordering::Acquire);
            if next == NIL || served == COMBINE_BOUND {
                debug_assert_ne!(cur, first, "our own node always has a successor link");
                node.status.hand_off();
                return my_ret;
            }
            if S::BARRIER_PER_REQUEST {
                run_barrier(core.req_barrier);
            }
            // `next != NIL` (Acquire) publishes op/arg written before the
            // link (Release); a linked node carries a posted request.
            let op = OpId((node.req.op.load(Ordering::Relaxed) - 1) as usize);
            let arg = node.req.arg.load(Ordering::Relaxed);
            // SAFETY: `combine` runs only on `Poll::Combiner`, and the role
            // exists once — it starts on the initial dummy and moves only
            // through `hand_off` (a Release store, this tenure's last access)
            // to the one owner whose Acquire poll reads it.
            let raw = unsafe { core.serve(op, arg) };
            if cur == first {
                my_ret = raw;
            }
            node.status.complete(core, raw, cur != first);
            served += 1;
            cur = next;
        }
    }
}

impl<T: Send, S: Status> Executor<T> for QueueCombiner<T, S> {
    fn execute(&self, h: usize, op: OpId, arg: u64) -> u64 {
        // Fresh enqueue node: nobody can see it until the swap publishes it.
        let my = self.handles[h].load(Ordering::Relaxed);
        let spare = self.node(my);
        spare.next.store(NIL, Ordering::Relaxed);
        spare.req.op.store(0, Ordering::Relaxed);
        spare.status.reset();
        // Swap it in and adopt the old tail as our request node.
        let cur = self.tail.swap(my, Ordering::AcqRel);
        self.handles[h].store(cur, Ordering::Relaxed);
        let node = self.node(cur);
        let sample = node.status.sample();
        node.req.arg.store(arg, Ordering::Relaxed);
        node.req.op.store(op.0 as u64 + 1, Ordering::Relaxed);
        // Linking publishes the request to the current combiner.
        node.next.store(my, Ordering::Release);

        // Wait for service or for the combiner role.
        let backoff = Backoff::new();
        loop {
            match node.status.poll(&self.core, &sample) {
                Poll::Served(ret) => return ret,
                Poll::Combiner => return self.combine(cur),
                Poll::Pending => backoff.snooze(),
            }
        }
    }
}
