//! The bare Pilot mechanism over one shared [`PilotCell`] — Algorithms 3 & 4
//! of the paper, in the cell's local-cursor form.
//!
//! One sender transfers a sequence of 64-bit payloads to one receiver,
//! strictly alternating: the receiver must consume round *k* before the
//! sender may publish round *k+1* (in a real channel the ring counters
//! provide that back-pressure; see [`crate::channel`]).
//!
//! Every shared access is a relaxed 64-bit atomic — the only hardware
//! guarantee Pilot needs is single-copy atomicity of the aligned store.

use std::sync::Arc;

use crate::cell::{Last, PilotCell};
use crate::hashpool::HashPool;
use crate::spin_until;

/// Sender half (Algorithm 3).
#[derive(Debug)]
pub struct PilotSender {
    cell: Arc<PilotCell>,
    pool: HashPool,
    last: Last,
    /// Fallback-path activations (diagnostics; the paper's worst case).
    pub fallbacks: u64,
}

/// Receiver half (Algorithm 4).
#[derive(Debug)]
pub struct PilotReceiver {
    cell: Arc<PilotCell>,
    pool: HashPool,
    last: Last,
}

/// Create a connected Pilot pair over a fresh cell.
#[must_use]
pub fn pilot_pair(pool: &HashPool) -> (PilotSender, PilotReceiver) {
    let cell = Arc::new(PilotCell::default());
    (
        PilotSender {
            cell: Arc::clone(&cell),
            pool: pool.clone(),
            last: Last::default(),
            fallbacks: 0,
        },
        PilotReceiver {
            cell,
            pool: pool.clone(),
            last: Last::default(),
        },
    )
}

impl PilotSender {
    /// Publish one payload (Algorithm 3). No barrier anywhere: the single
    /// store *is* the notification.
    ///
    /// Must alternate with [`PilotReceiver::recv`] rounds; publishing twice
    /// without an intervening receive loses the first payload (exactly like
    /// overwriting an unconsumed buffer slot).
    pub fn send(&mut self, payload: u64) {
        let fell_back = self.cell.publish(&mut self.last, payload, &mut self.pool);
        self.fallbacks += u64::from(fell_back);
    }
}

impl PilotReceiver {
    /// Non-blocking poll (one trip round Algorithm 4's loop): `Some(payload)`
    /// when a new round has been published.
    pub fn try_recv(&mut self) -> Option<u64> {
        self.cell.poll(&mut self.last, &mut self.pool)
    }

    /// Blocking receive: spin until the next round arrives (with polite
    /// exponential backoff so oversubscribed hosts still make progress).
    pub fn recv(&mut self) -> u64 {
        spin_until(|| self.try_recv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_transfer() {
        let pool = HashPool::default_pool();
        let (mut tx, mut rx) = pilot_pair(&pool);
        assert_eq!(rx.try_recv(), None, "nothing published yet");
        tx.send(23);
        assert_eq!(rx.recv(), 23);
        assert_eq!(rx.try_recv(), None, "consumed exactly once");
    }

    #[test]
    fn alternating_sequence_roundtrips() {
        let pool = HashPool::new(11, 8);
        let (mut tx, mut rx) = pilot_pair(&pool);
        for v in [0u64, 0, 1, u64::MAX, 42, 42, 42, 0] {
            tx.send(v);
            assert_eq!(rx.recv(), v);
        }
    }

    #[test]
    fn fallback_path_engages_on_collision() {
        // Force a collision: craft payloads so the shuffled word repeats.
        let pool = HashPool::new(5, 4);
        let (mut tx, mut rx) = pilot_pair(&pool);
        // Round 0 publishes p0 ^ s0; choose round 1's payload so that
        // p1 ^ s1 == p0 ^ s0.
        let s0 = pool.seed_at(0);
        let s1 = pool.seed_at(1);
        let p0 = 7u64;
        let p1 = p0 ^ s0 ^ s1;
        tx.send(p0);
        assert_eq!(rx.recv(), p0);
        tx.send(p1);
        assert_eq!(tx.fallbacks, 1, "collision must take the flag path");
        assert_eq!(rx.recv(), p1, "flag path still delivers the payload");
    }

    #[test]
    fn repeated_fallbacks_alternate_flag() {
        let pool = HashPool::new(5, 4);
        let (mut tx, mut rx) = pilot_pair(&pool);
        let mut payloads = vec![9u64];
        // Build a chain of forced collisions.
        for i in 1..6 {
            let prev = payloads[i - 1];
            payloads.push(prev ^ pool.seed_at(i - 1) ^ pool.seed_at(i));
        }
        for &p in &payloads {
            tx.send(p);
            assert_eq!(rx.recv(), p);
        }
        assert_eq!(tx.fallbacks, 5);
    }

    #[test]
    fn cross_thread_transfer_in_lockstep() {
        // The bare slot requires alternation; an ack counter provides the
        // back-pressure a ring's counters normally would.
        let pool = HashPool::default_pool();
        let (mut tx, mut rx) = pilot_pair(&pool);
        let acked = Arc::new(AtomicU64::new(0));
        const N: u64 = 500;
        std::thread::scope(|s| {
            let acked_tx = Arc::clone(&acked);
            s.spawn(move || {
                for v in 0..N {
                    tx.send(v.wrapping_mul(0x9E37_79B9).wrapping_add(7));
                    // Wait until the receiver confirms round v.
                    while acked_tx.load(Ordering::Acquire) <= v {
                        std::thread::yield_now();
                    }
                }
            });
            let acked_rx = Arc::clone(&acked);
            let handle = s.spawn(move || {
                for v in 0..N {
                    let got = rx.recv();
                    assert_eq!(got, v.wrapping_mul(0x9E37_79B9).wrapping_add(7));
                    acked_rx.store(v + 1, Ordering::Release);
                }
            });
            handle.join().unwrap();
        });
    }
}
