//! Producer-consumer rings: the barrier-configurable baseline (Algorithm 2)
//! and the Pilot-transformed ring (§4.4).
//!
//! The baseline producer:
//!
//! ```text
//! 1  while prodCnt - consCnt == BUFF_SIZE { nop }
//! 3  BARRIER                 // "avail" barrier: order the consCnt load
//! 4  buffer[prodCnt % N] = msg   // likely an RMR
//! 5  BARRIER                 // "publish" barrier: order buffer before cnt
//! 6  prodCnt += 1
//! ```
//!
//! The paper shows line 5 — the barrier strictly after the RMR — dominates
//! the cost. [`PilotSenderRing`] removes it: each slot is published through
//! Pilot, so the consumer watches the slot itself; `prodCnt` becomes
//! producer-local and its cache line stops ping-ponging.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::utils::CachePadded;

use armbar_barriers::native::run_barrier;
use armbar_barriers::Barrier;

use crate::cell::{Last, PilotCell};
use crate::hashpool::HashPool;
use crate::spin_until;

/// The two configurable barriers of the baseline producer/consumer
/// (`X - Y` in the paper's Figure 6(a) legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierPair {
    /// Line 3: orders the availability check before touching the buffer.
    pub avail: Barrier,
    /// Line 5: orders filling the buffer before publishing the counter.
    pub publish: Barrier,
}

impl BarrierPair {
    /// The best-performing correct combination (Observation 6).
    pub const LD_ST: BarrierPair = BarrierPair {
        avail: Barrier::DmbLd,
        publish: Barrier::DmbSt,
    };
    /// The conservative combination.
    pub const FULL_FULL: BarrierPair = BarrierPair {
        avail: Barrier::DmbFull,
        publish: Barrier::DmbFull,
    };
}

struct RingShared {
    slots: Vec<CachePadded<AtomicU64>>,
    prod_cnt: CachePadded<AtomicU64>,
    cons_cnt: CachePadded<AtomicU64>,
}

/// `capacity` zeroed slots; a power of two, so positions wrap with a mask.
fn fresh_slots<S: Default>(capacity: usize) -> Vec<S> {
    assert!(
        capacity > 0 && capacity.is_power_of_two(),
        "capacity must be a power of two"
    );
    (0..capacity).map(|_| S::default()).collect()
}

/// Producer half of the baseline ring.
pub struct SpscSender {
    shared: Arc<RingShared>,
    barriers: BarrierPair,
    prod_cnt: u64,
    mask: u64,
}

/// Consumer half of the baseline ring.
pub struct SpscReceiver {
    shared: Arc<RingShared>,
    barriers: BarrierPair,
    cons_cnt: u64,
    mask: u64,
}

/// Create a baseline barrier-configurable SPSC ring of `capacity` slots
/// (power of two).
#[must_use]
pub fn spsc_ring(capacity: usize, barriers: BarrierPair) -> (SpscSender, SpscReceiver) {
    let shared = Arc::new(RingShared {
        slots: fresh_slots(capacity),
        prod_cnt: CachePadded::default(),
        cons_cnt: CachePadded::default(),
    });
    let mask = capacity as u64 - 1;
    (
        SpscSender {
            shared: Arc::clone(&shared),
            barriers,
            prod_cnt: 0,
            mask,
        },
        SpscReceiver {
            shared,
            barriers,
            cons_cnt: 0,
            mask,
        },
    )
}

impl SpscSender {
    /// Try to publish one message; `false` when the ring is full.
    pub fn try_send(&mut self, msg: u64) -> bool {
        // Line 1: availability check.
        let cons = self.shared.cons_cnt.load(Ordering::Relaxed);
        if self.prod_cnt - cons == self.mask + 1 {
            return false;
        }
        // Line 3.
        run_barrier(self.barriers.avail);
        // Line 4: fill the buffer (the likely-RMR store).
        let idx = (self.prod_cnt & self.mask) as usize;
        self.shared.slots[idx].store(msg, Ordering::Relaxed);
        // Line 5: the post-RMR barrier this paper is about.
        run_barrier(self.barriers.publish);
        // Line 6: publish.
        self.prod_cnt += 1;
        self.shared.prod_cnt.store(self.prod_cnt, Ordering::Relaxed);
        true
    }

    /// Blocking send.
    pub fn send(&mut self, msg: u64) {
        spin_until(|| self.try_send(msg).then_some(()));
    }
}

impl SpscReceiver {
    /// Try to take one message; `None` when the ring is empty.
    pub fn try_recv(&mut self) -> Option<u64> {
        let prod = self.shared.prod_cnt.load(Ordering::Relaxed);
        if prod == self.cons_cnt {
            return None;
        }
        // Consumer-side load barrier: order the counter load before the
        // buffer read (the cheap side, per the paper's §4.1).
        run_barrier(match self.barriers.avail {
            Barrier::None => Barrier::None,
            _ => Barrier::DmbLd,
        });
        let idx = (self.cons_cnt & self.mask) as usize;
        let msg = self.shared.slots[idx].load(Ordering::Relaxed);
        // Order the buffer read before releasing the slot.
        run_barrier(match self.barriers.publish {
            Barrier::None => Barrier::None,
            _ => Barrier::DmbFull,
        });
        self.cons_cnt += 1;
        self.shared.cons_cnt.store(self.cons_cnt, Ordering::Relaxed);
        Some(msg)
    }

    /// Blocking receive.
    pub fn recv(&mut self) -> u64 {
        spin_until(|| self.try_recv())
    }
}

/// State shared between the halves of a [`PilotSenderRing`].
struct PilotRingShared {
    /// One Pilot cell per slot: payload word and fallback flag.
    cells: Vec<PilotCell>,
    /// Consumer progress — the only counter line that still ping-pongs.
    cons_cnt: CachePadded<AtomicU64>,
}

/// Producer half of the Pilot ring (§4.4).
pub struct PilotSenderRing {
    shared: Arc<PilotRingShared>,
    pool: HashPool,
    last: Vec<Last>,
    prod_cnt: u64,
    mask: u64,
    avail_barrier: Barrier,
    /// Fallback-path activations (diagnostics).
    pub fallbacks: u64,
}

/// Consumer half of the Pilot ring.
pub struct PilotReceiverRing {
    shared: Arc<PilotRingShared>,
    pool: HashPool,
    last: Vec<Last>,
    cons_cnt: u64,
    mask: u64,
}

/// Create a Pilot-transformed SPSC ring of `capacity` slots (power of two).
///
/// The publish barrier is gone (Pilot removes it); `avail` keeps the line-3
/// barrier, whose overhead the paper shows is minor.
#[must_use]
pub fn pilot_ring(
    capacity: usize,
    pool: &HashPool,
    avail: Barrier,
) -> (PilotSenderRing, PilotReceiverRing) {
    let shared = Arc::new(PilotRingShared {
        cells: fresh_slots(capacity),
        cons_cnt: CachePadded::default(),
    });
    let mask = capacity as u64 - 1;
    (
        PilotSenderRing {
            shared: Arc::clone(&shared),
            pool: pool.clone(),
            last: vec![Last::default(); capacity],
            prod_cnt: 0,
            mask,
            avail_barrier: avail,
            fallbacks: 0,
        },
        PilotReceiverRing {
            shared,
            pool: pool.clone(),
            last: vec![Last::default(); capacity],
            cons_cnt: 0,
            mask,
        },
    )
}

impl PilotSenderRing {
    /// Try to publish one message; `false` when the ring is full.
    pub fn try_send(&mut self, msg: u64) -> bool {
        let cons = self.shared.cons_cnt.load(Ordering::Relaxed);
        if self.prod_cnt - cons == self.mask + 1 {
            return false;
        }
        run_barrier(self.avail_barrier);
        let idx = (self.prod_cnt & self.mask) as usize;
        // Algorithm 3, per slot; the seed schedule runs ring-wide.
        let fell_back = self.shared.cells[idx].publish(&mut self.last[idx], msg, &mut self.pool);
        self.fallbacks += u64::from(fell_back);
        // No publish barrier, no shared prod_cnt: the slot itself announces.
        self.prod_cnt += 1;
        true
    }

    /// Blocking send.
    pub fn send(&mut self, msg: u64) {
        spin_until(|| self.try_send(msg).then_some(()));
    }
}

impl PilotReceiverRing {
    /// Try to take one message; `None` when nothing new has arrived.
    pub fn try_recv(&mut self) -> Option<u64> {
        let idx = (self.cons_cnt & self.mask) as usize;
        // Algorithm 4, per slot.
        let msg = self.shared.cells[idx].poll(&mut self.last[idx], &mut self.pool)?;
        self.cons_cnt += 1;
        self.shared.cons_cnt.store(self.cons_cnt, Ordering::Relaxed);
        Some(msg)
    }

    /// Blocking receive.
    pub fn recv(&mut self) -> u64 {
        spin_until(|| self.try_recv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_spsc(barriers: BarrierPair) {
        let (mut tx, mut rx) = spsc_ring(8, barriers);
        const N: u64 = 2_000;
        std::thread::scope(|s| {
            s.spawn(move || {
                for v in 0..N {
                    tx.send(v * 3 + 1);
                }
            });
            let h = s.spawn(move || {
                for v in 0..N {
                    assert_eq!(rx.recv(), v * 3 + 1);
                }
            });
            h.join().unwrap();
        });
    }

    #[test]
    fn spsc_transfers_in_order_ld_st() {
        exercise_spsc(BarrierPair::LD_ST);
    }

    #[test]
    fn spsc_transfers_in_order_full_full() {
        exercise_spsc(BarrierPair::FULL_FULL);
    }

    #[test]
    fn spsc_transfers_with_stlr_publish() {
        exercise_spsc(BarrierPair {
            avail: Barrier::DmbFull,
            publish: Barrier::Stlr,
        });
    }

    #[test]
    fn spsc_full_and_empty_conditions() {
        let (mut tx, mut rx) = spsc_ring(4, BarrierPair::LD_ST);
        assert_eq!(rx.try_recv(), None);
        for v in 0..4 {
            assert!(tx.try_send(v));
        }
        assert!(!tx.try_send(99), "ring must report full");
        for v in 0..4 {
            assert_eq!(rx.try_recv(), Some(v));
        }
        assert_eq!(rx.try_recv(), None);
        assert!(tx.try_send(100), "space reclaimed after consumption");
    }

    #[test]
    fn pilot_ring_transfers_in_order() {
        let pool = HashPool::default_pool();
        let (mut tx, mut rx) = pilot_ring(8, &pool, Barrier::DmbLd);
        const N: u64 = 2_000;
        std::thread::scope(|s| {
            s.spawn(move || {
                for v in 0..N {
                    tx.send(v.wrapping_mul(0x1234_5677).wrapping_add(9));
                }
            });
            let h = s.spawn(move || {
                for v in 0..N {
                    assert_eq!(rx.recv(), v.wrapping_mul(0x1234_5677).wrapping_add(9));
                }
            });
            h.join().unwrap();
        });
    }

    #[test]
    fn pilot_ring_delivers_constant_streams() {
        // Constant payloads exercise the shuffle: without it every round
        // would take the fallback path; with it, collisions are engineered
        // only. Either way delivery must be exact.
        let pool = HashPool::default_pool();
        let (mut tx, mut rx) = pilot_ring(4, &pool, Barrier::DmbLd);
        for _ in 0..100 {
            tx.send(7);
            assert_eq!(rx.recv(), 7);
        }
        assert_eq!(
            tx.fallbacks, 0,
            "shuffle must avoid fallbacks for constants"
        );
    }

    #[test]
    fn pilot_ring_full_condition() {
        let pool = HashPool::default_pool();
        let (mut tx, mut rx) = pilot_ring(2, &pool, Barrier::DmbLd);
        assert!(tx.try_send(1));
        assert!(tx.try_send(2));
        assert!(!tx.try_send(3));
        assert_eq!(rx.recv(), 1);
        assert!(tx.try_send(3));
        assert_eq!(rx.recv(), 2);
        assert_eq!(rx.recv(), 3);
    }

    #[test]
    fn pilot_ring_survives_engineered_collisions() {
        // Same construction as the slot test, but through the ring: payloads
        // chosen so consecutive uses of one slot produce equal shuffled
        // words (capacity 1 pins every round to slot 0).
        let pool = HashPool::new(5, 4);
        let (mut tx, mut rx) = pilot_ring(1, &pool, Barrier::None);
        let mut payloads = vec![3u64];
        for i in 1..8 {
            payloads.push(payloads[i - 1] ^ pool.seed_at(i - 1) ^ pool.seed_at(i));
        }
        for &p in &payloads {
            tx.send(p);
            assert_eq!(rx.recv(), p);
        }
        assert_eq!(tx.fallbacks, 7);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = spsc_ring(6, BarrierPair::LD_ST);
    }
}
