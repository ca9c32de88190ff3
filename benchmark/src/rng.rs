//! The benchmark's only source of randomness: everything `--seed` decides
//! (item order inside a pass, probe key and address streams) comes from
//! here, so the same seed gives the same inputs.

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for stream `stream` of `seed` (pass `n` of a run, a
    /// probe's key stream): independent of how much any other stream drew.
    #[must_use]
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..28).collect();
        let shuffled = |seed| {
            let mut v = base.clone();
            Rng::stream(seed, 3).shuffle(&mut v);
            v
        };
        let (a, b) = (shuffled(1), shuffled(2));
        assert_eq!(a, shuffled(1), "same seed, same order");
        assert_ne!(a, b, "another seed, another order");
        assert_ne!(a, base);
        let mut back = a.clone();
        back.sort_unstable();
        assert_eq!(back, base, "a permutation loses nothing");
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_ne!(Rng::stream(1, 0).next_u64(), Rng::stream(1, 1).next_u64());
    }
}
