//! The one Pilot cell: Algorithms 3 & 4 over a payload word and a fallback
//! flag, written once for every user in the workspace.
//!
//! Both ends need to know what the cell held *before* a round and which
//! seed the round uses. Two forms supply that:
//!
//! * **Local cursor** ([`PilotCell::publish`] / [`PilotCell::poll`]): a fixed
//!   sender/receiver pair, each end keeping its own [`Last`] and its own
//!   [`HashPool`] cursor — the bare slot and the ring.
//! * **Shared round** ([`PilotCell::sample`] / [`PilotCell::poll_sampled`] /
//!   [`PilotCell::publish_round`]): the sender migrates (a combiner), so
//!   previous word, flag and schedule position are read back from the cell,
//!   and the waiter samples all three *before* it posts its request.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

use crate::hashpool::HashPool;

/// The shared side of one Pilot exchange, on one padded cache line: the
/// flag is touched only on the rare fallback path, so the common path stays
/// at a single touched line — the cache-line reduction §4.5 credits for
/// part of Pilot's win.
#[derive(Debug, Default)]
pub struct PilotCell(CachePadded<Line>);

#[derive(Debug, Default)]
struct Line {
    word: AtomicU64,
    flag: AtomicU64,
    /// Schedule position of a migratory sender (shared-round form only; it
    /// sits in the line's padding, so local-cursor cells pay nothing for it).
    round: AtomicU64,
}

/// One endpoint's memory of a cell: the word and flag it last stored
/// (Algorithm 3's `oldData`/`localFlag`) or last saw (Algorithm 4's
/// `oldData`/`oldFlag`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Last {
    word: u64,
    flag: u64,
}

/// What a shared-round waiter read from the cell before posting.
#[derive(Debug, Clone, Copy)]
pub struct Sampled {
    last: Last,
    round: u64,
}

impl PilotCell {
    /// Flag mode on the same line: park a raw return value in the word. The
    /// notification is a word of the caller's own, after its response
    /// barrier.
    pub fn store_raw(&self, raw: u64) {
        self.0.word.store(raw, Ordering::Relaxed);
    }

    /// The raw value a flag-mode server parked, once notified.
    #[must_use]
    pub fn load_raw(&self) -> u64 {
        self.0.word.load(Ordering::Relaxed)
    }

    /// Algorithm 3, lines 2-6: store the shuffled word unless it repeats the
    /// previous one, else flip the fallback flag. `true` on the fallback.
    fn store_or_flip(&self, new: u64, last: &mut Last, order: Ordering) -> bool {
        let collided = new == last.word;
        if collided {
            last.flag ^= 1;
            self.0.flag.store(last.flag, order);
        } else {
            self.0.word.store(new, order);
        }
        last.word = new;
        collided
    }

    /// Algorithm 4, lines 1-5: watch the word, then the flag. The shuffled
    /// word of a newly published round, `None` while nothing changed.
    fn watch(&self, last: &mut Last) -> Option<u64> {
        let word = self.0.word.load(Ordering::Relaxed);
        if word != last.word {
            last.word = word;
        } else {
            let flag = self.0.flag.load(Ordering::Relaxed);
            if flag == last.flag {
                return None;
            }
            last.flag = flag;
        }
        Some(last.word)
    }

    /// Publish one payload from a fixed sender (Algorithm 3): no barrier,
    /// the single store *is* the notification. `true` on the fallback path.
    pub fn publish(&self, last: &mut Last, payload: u64, pool: &mut HashPool) -> bool {
        self.store_or_flip(payload ^ pool.next_seed(), last, Ordering::Relaxed)
    }

    /// One trip round Algorithm 4's loop at a fixed receiver.
    pub fn poll(&self, last: &mut Last, pool: &mut HashPool) -> Option<u64> {
        self.watch(last).map(|word| word ^ pool.next_seed())
    }

    fn contents(&self) -> Last {
        Last {
            word: self.0.word.load(Ordering::Relaxed),
            flag: self.0.flag.load(Ordering::Relaxed),
        }
    }

    /// Contents and round, read by a shared-round waiter before the request
    /// it posts can be served.
    #[must_use]
    pub fn sample(&self) -> Sampled {
        Sampled {
            last: self.contents(),
            round: self.0.round.load(Ordering::Acquire),
        }
    }

    /// One look by a shared-round waiter: the payload, once the cell has
    /// moved on from `sampled`.
    #[must_use]
    pub fn poll_sampled(&self, sampled: &Sampled, pool: &HashPool) -> Option<u64> {
        let mut last = sampled.last;
        self.watch(&mut last)
            .map(|word| word ^ pool.seed_at(sampled.round as usize))
    }

    /// Publish one payload from whichever thread is the (unique) server
    /// right now. The notification is a release store and the last access to
    /// the cell: the waiter is gone the moment it lands. With `notify` unset
    /// nobody waits (the server's own request); the word is still refreshed
    /// so the next round's sample stays coherent.
    pub fn publish_round(&self, payload: u64, pool: &HashPool, notify: bool) {
        let round = self.0.round.load(Ordering::Relaxed);
        self.0.round.store(round + 1, Ordering::Release);
        let new = payload ^ pool.seed_at(round as usize);
        if notify {
            let mut last = self.contents();
            self.store_or_flip(new, &mut last, Ordering::Release);
        } else {
            self.0.word.store(new, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_and_flag_share_one_padded_line() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<PilotCell>(), size_of::<CachePadded<u64>>());
        assert_eq!(align_of::<PilotCell>(), align_of::<CachePadded<u64>>());
    }

    #[test]
    fn local_cursor_roundtrip_with_an_engineered_collision() {
        let pool = HashPool::new(5, 4);
        let cell = PilotCell::default();
        let (mut tx, mut tx_pool) = (Last::default(), pool.clone());
        let (mut rx, mut rx_pool) = (Last::default(), pool.clone());
        assert_eq!(cell.poll(&mut rx, &mut rx_pool), None);
        let p0 = 7u64;
        let p1 = p0 ^ pool.seed_at(0) ^ pool.seed_at(1);
        assert!(!cell.publish(&mut tx, p0, &mut tx_pool));
        assert_eq!(cell.poll(&mut rx, &mut rx_pool), Some(p0));
        assert!(cell.publish(&mut tx, p1, &mut tx_pool), "flag path");
        assert_eq!(cell.poll(&mut rx, &mut rx_pool), Some(p1));
        assert_eq!(cell.poll(&mut rx, &mut rx_pool), None, "consumed once");
    }

    #[test]
    fn shared_round_roundtrip_covers_collisions_and_silent_rounds() {
        let pool = HashPool::new(5, 4);
        let cell = PilotCell::default();
        let mut expect = 9u64;
        for round in 0..12usize {
            let sampled = cell.sample();
            assert_eq!(cell.poll_sampled(&sampled, &pool), None);
            if round % 3 == 2 {
                // The server's own request: nobody is notified, the round
                // still advances.
                cell.publish_round(1234, &pool, false);
                continue;
            }
            cell.publish_round(expect, &pool, true);
            assert_eq!(cell.poll_sampled(&sampled, &pool), Some(expect));
            // Next payload chosen so its shuffled word repeats this one
            // whenever the next round is a notifying one.
            expect = expect ^ pool.seed_at(round) ^ pool.seed_at(round + 1);
        }
    }
}
