//! The pre-shared seed schedule ("hashPool" in Algorithms 3 & 4).
//!
//! Sender and receiver walk the same deterministic sequence of 64-bit
//! seeds; the sender XORs each outgoing payload with the next seed, the
//! receiver XORs it back out. The point is to *shuffle* the stored bits so
//! that consecutive equal payloads still produce different shared-word
//! values, keeping the flag-fallback path rare.

/// Default number of seeds in a pool.
pub const DEFAULT_POOL_SIZE: usize = 64;

/// A fixed schedule of XOR seeds shared by one sender/receiver pair.
///
/// Cloning yields an identical schedule; each endpoint owns its own cursor
/// (`cnt` in the paper), advanced once per transferred word.
#[derive(Debug, Clone)]
pub struct HashPool {
    seeds: Vec<u64>,
    cursor: usize,
}

impl HashPool {
    /// A pool of `size` seeds derived deterministically from `key` with a
    /// SplitMix64 generator. Seeds are guaranteed pairwise distinct from
    /// their neighbours and never zero (a zero seed would make the shuffle
    /// a no-op for that round).
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    #[must_use]
    pub fn new(key: u64, size: usize) -> HashPool {
        assert!(size > 0, "hash pool cannot be empty");
        let mut seeds = Vec::with_capacity(size);
        let mut state = key;
        while seeds.len() < size {
            // SplitMix64 step.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if z != 0 && seeds.last() != Some(&z) {
                seeds.push(z);
            }
        }
        HashPool { seeds, cursor: 0 }
    }

    /// The default pool (key 0xA5A5, [`DEFAULT_POOL_SIZE`] seeds).
    #[must_use]
    pub fn default_pool() -> HashPool {
        HashPool::new(0xA5A5, DEFAULT_POOL_SIZE)
    }

    /// The next seed (`hashPool[cnt++ % SIZE]`).
    #[inline]
    pub fn next_seed(&mut self) -> u64 {
        let s = self.seeds[self.cursor % self.seeds.len()];
        self.cursor += 1;
        s
    }

    /// Peek at seed `i` of the schedule without advancing.
    #[must_use]
    pub fn seed_at(&self, i: usize) -> u64 {
        self.seeds[i % self.seeds.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_shared() {
        let mut a = HashPool::new(7, 16);
        let mut b = HashPool::new(7, 16);
        for _ in 0..100 {
            assert_eq!(a.next_seed(), b.next_seed());
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = HashPool::new(1, 8);
        let b = HashPool::new(2, 8);
        assert_ne!(
            (0..8).map(|i| a.seed_at(i)).collect::<Vec<_>>(),
            (0..8).map(|i| b.seed_at(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn seeds_are_nonzero_and_neighbours_distinct() {
        let p = HashPool::new(0, 256);
        for i in 0..256 {
            assert_ne!(p.seed_at(i), 0);
            assert_ne!(p.seed_at(i), p.seed_at((i + 1) % 256));
        }
    }

    #[test]
    fn schedule_wraps_in_step_on_both_endpoints() {
        // Each endpoint walks its own clone on its own thread, three times
        // round a four-seed pool: every wire word decodes, and the schedule
        // repeats with the pool's length.
        let mut tx = HashPool::new(3, 4);
        let mut rx = tx.clone();
        let (wire_in, wire_out) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                for payload in 0..12u64 {
                    let seed = tx.next_seed();
                    assert_eq!(seed, tx.seed_at(payload as usize % 4));
                    wire_in.send(payload ^ seed).expect("the receiver is alive");
                }
            });
            s.spawn(move || {
                let got: Vec<u64> = wire_out.iter().map(|w| w ^ rx.next_seed()).collect();
                assert_eq!(got, (0..12).collect::<Vec<u64>>());
            });
        });
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_pool_rejected() {
        let _ = HashPool::new(1, 0);
    }

    #[test]
    fn xor_roundtrip_recovers_payload() {
        let mut tx = HashPool::default_pool();
        let mut rx = HashPool::default_pool();
        for payload in [0u64, 1, u64::MAX, 23, 0xDEAD_BEEF] {
            let wire = payload ^ tx.next_seed();
            assert_eq!(wire ^ rx.next_seed(), payload);
        }
    }
}
