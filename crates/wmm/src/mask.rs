//! Fixed- and variable-width bitmasks behind the packed DPOR engine.
//!
//! The engine ([`crate::engine`]) is generic over [`Mask`], with exactly two
//! instantiations:
//!
//! * `u64` — the single-word fast path. Programs of at most 64 total
//!   instructions (the whole litmus corpus) monomorphize to the same flat
//!   shift-and-mask code the engine had when `u64` was hard-wired, so they
//!   pay zero overhead for the generalization (the `benchmark/` ledger's
//!   `wmm.explore.states_per_s` times this).
//! * [`WideMask`] — a multi-word bitset sized per program, lifting the old
//!   64-instruction ceiling for implementation-sized programs (unrolled
//!   lock handoffs, channel round-trips). Up to [`INLINE_WORDS`] words (256
//!   instructions) live inline, so cloning a sleep set per explored child
//!   never touches the heap; only larger programs spill to a boxed slice.
//!
//! All default methods are word-wise loops over [`Mask::words`]; for `u64`
//! the slice is a compile-time single element and the loops vanish.

use std::hash::Hash;

/// Number of `u64` words needed to hold `bits` bits (at least one, so the
/// empty program still has a done word).
#[must_use]
pub(crate) fn word_count(bits: usize) -> usize {
    bits.div_ceil(64).max(1)
}

/// A bitmask over the global instruction indices of one program.
pub(crate) trait Mask: Clone + Eq + Hash + Send + Sync {
    /// The all-zeros mask wide enough for `bits` bits.
    fn zeros(bits: usize) -> Self;

    /// The backing words, little-endian (bit `i` lives in word `i / 64`).
    fn words(&self) -> &[u64];

    /// Mutable view of the backing words.
    fn words_mut(&mut self) -> &mut [u64];

    /// The mask with bits `0..bits` set.
    #[must_use]
    fn ones(bits: usize) -> Self {
        let mut m = Self::zeros(bits);
        for i in 0..bits {
            m.set(i);
        }
        m
    }

    /// Is bit `i` set?
    #[inline]
    fn get(&self, i: usize) -> bool {
        self.words()[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set bit `i`.
    #[inline]
    fn set(&mut self, i: usize) {
        self.words_mut()[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    fn clear(&mut self, i: usize) {
        self.words_mut()[i / 64] &= !(1 << (i % 64));
    }

    /// `self |= other`.
    #[inline]
    fn or_assign(&mut self, other: &Self) {
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
            *w |= o;
        }
    }

    /// `self &= !other`.
    #[inline]
    fn and_not_assign(&mut self, other: &Self) {
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
            *w &= !o;
        }
    }

    /// `self = a & !b` (the undone set, computed into a scratch mask
    /// without allocating).
    #[inline]
    fn assign_and_not(&mut self, a: &Self, b: &[u64]) {
        for ((w, x), y) in self.words_mut().iter_mut().zip(a.words()).zip(b) {
            *w = x & !y;
        }
    }

    /// Is `self` a subset of the bits in `ws`?
    #[inline]
    fn subset_of_words(&self, ws: &[u64]) -> bool {
        self.words().iter().zip(ws).all(|(s, w)| s & !w == 0)
    }

    /// Does `self & other & !minus` have any bit set? (The forced-step
    /// rival check: conflicting, still undone, and not ordered after.)
    #[inline]
    fn meets_and_not(&self, other: &Self, minus: &Self) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .zip(minus.words())
            .any(|((s, o), m)| s & o & !m != 0)
    }

    /// Iterate the set bit indices in ascending order.
    #[inline]
    fn bits(&self) -> Bits<'_> {
        Bits {
            rest: self.words(),
            cur: 0,
            base: usize::MAX - 63, // wraps to 0 on the first word
        }
    }
}

impl Mask for u64 {
    #[inline]
    fn zeros(bits: usize) -> Self {
        debug_assert!(bits <= 64, "u64 masks hold at most 64 bits");
        0
    }

    #[inline]
    fn words(&self) -> &[u64] {
        std::slice::from_ref(self)
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        std::slice::from_mut(self)
    }

    #[inline]
    fn ones(bits: usize) -> Self {
        debug_assert!(bits <= 64);
        if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        *self >> i & 1 == 1
    }

    #[inline]
    fn set(&mut self, i: usize) {
        *self |= 1 << i;
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        *self &= !(1 << i);
    }

    #[inline]
    fn and_not_assign(&mut self, other: &Self) {
        *self &= !other;
    }

    #[inline]
    fn assign_and_not(&mut self, a: &Self, b: &[u64]) {
        *self = a & !b[0];
    }

    #[inline]
    fn subset_of_words(&self, ws: &[u64]) -> bool {
        self & !ws[0] == 0
    }

    #[inline]
    fn meets_and_not(&self, other: &Self, minus: &Self) -> bool {
        self & other & !minus != 0
    }
}

/// Words a [`WideMask`] holds without a heap block.
pub(crate) const INLINE_WORDS: usize = 4;

/// A multi-word bitset for programs beyond 64 instructions: a small vector
/// of words, inline up to [`INLINE_WORDS`]. Inline words past `len` stay
/// zero, so the derived equality and hash see only the mask's bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum WideMask {
    /// At most `INLINE_WORDS * 64` bits; the first `len` words are live.
    Inline {
        /// Live word count.
        len: u8,
        /// The words, zero past `len`.
        words: [u64; INLINE_WORDS],
    },
    /// Anything wider.
    Heap(Box<[u64]>),
}

impl Mask for WideMask {
    fn zeros(bits: usize) -> Self {
        let n = word_count(bits);
        if n <= INLINE_WORDS {
            WideMask::Inline {
                len: n as u8,
                words: [0; INLINE_WORDS],
            }
        } else {
            WideMask::Heap(vec![0u64; n].into_boxed_slice())
        }
    }

    #[inline]
    fn words(&self) -> &[u64] {
        match self {
            WideMask::Inline { len, words } => &words[..usize::from(*len)],
            WideMask::Heap(words) => words,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            WideMask::Inline { len, words } => &mut words[..usize::from(*len)],
            WideMask::Heap(words) => words,
        }
    }
}

/// Ascending set-bit iterator over a word slice (see [`Mask::bits`]).
pub(crate) struct Bits<'a> {
    rest: &'a [u64],
    cur: u64,
    base: usize,
}

impl Iterator for Bits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(self.base + b);
            }
            let (&w, rest) = self.rest.split_first()?;
            self.rest = rest;
            self.cur = w;
            self.base = self.base.wrapping_add(64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_mask_ops() {
        let mut m = u64::zeros(10);
        m.set(0);
        m.set(9);
        assert!(m.get(0) && m.get(9) && !m.get(5));
        assert_eq!(m.bits().collect::<Vec<_>>(), vec![0, 9]);
        let mut cleared = m;
        cleared.clear(9);
        assert_eq!(cleared, 1);
        assert_eq!(u64::ones(10), 0x3ff);
        assert_eq!(u64::ones(64), u64::MAX);
        assert!(m.subset_of_words(&[0x3ff]));
        assert!(!m.subset_of_words(&[0x1]));
        let other = 0x201u64;
        let minus = 0x200u64;
        assert!(m.meets_and_not(&other, &0u64));
        assert!(!0x200u64.meets_and_not(&other, &minus));
    }

    #[test]
    fn wide_mask_crosses_word_boundaries() {
        let mut m = WideMask::zeros(130);
        assert_eq!(m.words().len(), 3);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(129);
        assert_eq!(m.bits().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        let all = WideMask::ones(130);
        assert!(m.subset_of_words(all.words()));
        assert_eq!(all.bits().count(), 130);

        let mut undone = all.clone();
        undone.and_not_assign(&m);
        assert_eq!(undone.bits().count(), 126);
        assert!(!undone.get(63) && undone.get(62));

        let mut scratch = WideMask::zeros(130);
        scratch.assign_and_not(&all, m.words());
        assert_eq!(scratch, undone);
    }

    /// The inline/heap split is invisible through the trait, and sits at
    /// exactly 256 bits.
    #[test]
    fn wide_mask_spills_to_the_heap_past_256_bits() {
        for (bits, inline) in [(65, true), (256, true), (257, false), (600, false)] {
            let mut m = WideMask::zeros(bits);
            assert_eq!(matches!(m, WideMask::Inline { .. }), inline, "{bits} bits");
            assert_eq!(m.words().len(), word_count(bits));
            m.set(bits - 1);
            m.set(0);
            assert_eq!(m.bits().collect::<Vec<_>>(), vec![0, bits - 1]);
            m.clear(0);
            assert!(!m.get(0) && m.get(bits - 1));
            assert_eq!(m.clone(), m);
            assert_eq!(WideMask::ones(bits).bits().count(), bits);
        }
    }

    #[test]
    fn word_count_floors_at_one() {
        assert_eq!(word_count(0), 1);
        assert_eq!(word_count(1), 1);
        assert_eq!(word_count(64), 1);
        assert_eq!(word_count(65), 2);
        assert_eq!(word_count(128), 2);
        assert_eq!(word_count(129), 3);
    }
}
