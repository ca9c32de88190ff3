//! Pluggable inter-stage queues: Q (lock-based), RB (lock-free ring),
//! RB-P (Pilot ring) — the three bars of Figure 6(d).
//!
//! Stages exchange `u64` tokens (chunk ids). A closed, drained queue
//! returns `None` from `pop`, which is how end-of-stream propagates down
//! the pipeline.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use crossbeam::utils::Backoff;

use armbar_barriers::Barrier;
use armbar_pilot::{pilot_ring, spsc_ring, BarrierPair, HashPool};

/// Which queue implementation connects two stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// The original lock-based queue (`Q` in Figure 6(d)).
    LockBased,
    /// Lock-free ring buffer with the best barrier pair (`RB`).
    RingBuffer,
    /// Ring buffer with Pilot applied (`RB-P`).
    RingBufferPilot,
}

impl QueueKind {
    /// The figure's three variants, in display order.
    pub const ALL: [QueueKind; 3] = [
        QueueKind::LockBased,
        QueueKind::RingBuffer,
        QueueKind::RingBufferPilot,
    ];

    /// Label matching the paper.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::LockBased => "Q",
            QueueKind::RingBuffer => "RB",
            QueueKind::RingBufferPilot => "RB-P",
        }
    }
}

/// A single-producer single-consumer stage connector.
pub trait PipeQueue: Send {
    /// Enqueue a token (blocking on a full queue).
    fn push(&mut self, v: u64);
    /// Dequeue a token; `None` once the queue is closed *and* drained.
    fn pop(&mut self) -> Option<u64>;
    /// Signal end-of-stream (producer side).
    fn close(&mut self);
}

/// Build a connected `(producer, consumer)` pair of the given kind with
/// `capacity` slots (power of two).
#[must_use]
pub fn make_queue(kind: QueueKind, capacity: usize) -> (Box<dyn PipeQueue>, Box<dyn PipeQueue>) {
    match kind {
        QueueKind::LockBased => {
            let shared = std::sync::Arc::new(LockQueueShared {
                inner: Mutex::new(LockQueueInner {
                    items: VecDeque::new(),
                    closed: false,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                capacity,
            });
            (
                Box::new(LockQueueHandle {
                    shared: shared.clone(),
                }),
                Box::new(LockQueueHandle { shared }),
            )
        }
        QueueKind::RingBuffer => {
            let (mut tx, mut rx) = spsc_ring(capacity, BarrierPair::LD_ST);
            ring_queue(move |v| tx.send(v), move || rx.try_recv())
        }
        QueueKind::RingBufferPilot => {
            let pool = HashPool::default_pool();
            let (mut tx, mut rx) = pilot_ring(capacity, &pool, Barrier::DmbLd);
            ring_queue(move |v| tx.send(v), move || rx.try_recv())
        }
    }
}

// ---------------------------------------------------------------- lock-based

struct LockQueueInner {
    items: VecDeque<u64>,
    closed: bool,
}

struct LockQueueShared {
    inner: Mutex<LockQueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct LockQueueHandle {
    shared: std::sync::Arc<LockQueueShared>,
}

impl PipeQueue for LockQueueHandle {
    fn push(&mut self, v: u64) {
        let mut g = self.shared.inner.lock().expect("queue poisoned");
        while g.items.len() >= self.shared.capacity {
            g = self.shared.not_full.wait(g).expect("queue poisoned");
        }
        g.items.push_back(v);
        self.shared.not_empty.notify_one();
    }

    fn pop(&mut self) -> Option<u64> {
        let mut g = self.shared.inner.lock().expect("queue poisoned");
        loop {
            if let Some(v) = g.items.pop_front() {
                self.shared.not_full.notify_one();
                return Some(v);
            }
            if g.closed {
                return None;
            }
            g = self.shared.not_empty.wait(g).expect("queue poisoned");
        }
    }

    fn close(&mut self) {
        let mut g = self.shared.inner.lock().expect("queue poisoned");
        g.closed = true;
        self.shared.not_empty.notify_all();
    }
}

// ------------------------------------------------------------------ RB / RB-P

/// The two ends of a ring — either ring: `send` is its blocking send,
/// `try_recv` its non-blocking receive — sharing an end-of-stream flag.
fn ring_queue(
    send: impl FnMut(u64) + Send + 'static,
    try_recv: impl FnMut() -> Option<u64> + Send + 'static,
) -> (Box<dyn PipeQueue>, Box<dyn PipeQueue>) {
    let closed = std::sync::Arc::new(AtomicBool::new(false));
    let producer = RingProducer {
        send,
        closed: closed.clone(),
    };
    (
        Box::new(producer),
        Box::new(RingConsumer { try_recv, closed }),
    )
}

struct RingProducer<S> {
    send: S,
    closed: std::sync::Arc<AtomicBool>,
}

struct RingConsumer<R> {
    try_recv: R,
    closed: std::sync::Arc<AtomicBool>,
}

impl<S: FnMut(u64) + Send> PipeQueue for RingProducer<S> {
    fn push(&mut self, v: u64) {
        (self.send)(v);
    }
    fn pop(&mut self) -> Option<u64> {
        unreachable!("producer handle never pops");
    }
    fn close(&mut self) {
        self.closed.store(true, Ordering::Release);
    }
}

impl<R: FnMut() -> Option<u64> + Send> PipeQueue for RingConsumer<R> {
    fn push(&mut self, _v: u64) {
        unreachable!("consumer handle never pushes");
    }
    fn pop(&mut self) -> Option<u64> {
        let backoff = Backoff::new();
        loop {
            if let Some(v) = (self.try_recv)() {
                return Some(v);
            }
            if self.closed.load(Ordering::Acquire) {
                // Drain anything that raced with the close.
                return (self.try_recv)();
            }
            backoff.snooze();
        }
    }
    fn close(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(kind: QueueKind) {
        let (mut tx, mut rx) = make_queue(kind, 8);
        const N: u64 = 5_000;
        std::thread::scope(|s| {
            s.spawn(move || {
                for v in 0..N {
                    tx.push(v);
                }
                tx.close();
            });
            let h = s.spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = rx.pop() {
                    got.push(v);
                }
                got
            });
            let got = h.join().unwrap();
            assert_eq!(got, (0..N).collect::<Vec<_>>(), "{kind:?}");
        });
    }

    #[test]
    fn lock_based_queue_transfers_in_order() {
        exercise(QueueKind::LockBased);
    }

    #[test]
    fn ring_buffer_transfers_in_order() {
        exercise(QueueKind::RingBuffer);
    }

    #[test]
    fn pilot_ring_transfers_in_order() {
        exercise(QueueKind::RingBufferPilot);
    }

    #[test]
    fn labels_match_figure() {
        assert_eq!(QueueKind::LockBased.label(), "Q");
        assert_eq!(QueueKind::RingBuffer.label(), "RB");
        assert_eq!(QueueKind::RingBufferPilot.label(), "RB-P");
    }

    #[test]
    fn close_on_empty_lock_queue_unblocks_consumer() {
        let (mut tx, mut rx) = make_queue(QueueKind::LockBased, 4);
        std::thread::scope(|s| {
            let h = s.spawn(move || rx.pop());
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.close();
            assert_eq!(h.join().unwrap(), None);
        });
    }
}
