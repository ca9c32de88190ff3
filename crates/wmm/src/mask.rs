//! The variable-width bitmask behind the packed DPOR engine.
//!
//! Every program the engine ([`crate::engine`]) explores runs on one mask
//! type, [`WideMask`]: a bitset over the program's global instruction
//! indices, sized per program. Up to [`INLINE_WORDS`] words (256
//! instructions — the whole litmus corpus and the unrolled lock handoffs)
//! live inline, so cloning a sleep set per explored child never touches the
//! heap; only larger programs spill to a boxed slice. Every operation is a
//! word-wise loop, bounds-checked by the slice it walks, so no program size
//! can overflow a shift.

/// Number of `u64` words needed to hold `bits` bits (at least one, so the
/// empty program still has a done word).
#[must_use]
pub(crate) fn word_count(bits: usize) -> usize {
    bits.div_ceil(64).max(1)
}

/// Words a [`WideMask`] holds without a heap block.
pub(crate) const INLINE_WORDS: usize = 4;

/// A bitmask over the global instruction indices of one program: a small
/// vector of words, inline up to [`INLINE_WORDS`]. Inline words past `len`
/// stay zero, so the derived equality and hash see only the mask's bits.
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

impl WideMask {
    /// The all-zeros mask wide enough for `bits` bits.
    pub(crate) fn zeros(bits: usize) -> Self {
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

    /// The backing words, little-endian (bit `i` lives in word `i / 64`).
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        match self {
            WideMask::Inline { len, words } => &words[..usize::from(*len)],
            WideMask::Heap(words) => words,
        }
    }

    /// Mutable view of the backing words.
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            WideMask::Inline { len, words } => &mut words[..usize::from(*len)],
            WideMask::Heap(words) => words,
        }
    }

    /// The mask with bits `0..bits` set.
    #[must_use]
    pub(crate) fn ones(bits: usize) -> Self {
        let mut m = Self::zeros(bits);
        for i in 0..bits {
            m.set(i);
        }
        m
    }

    /// Is bit `i` set?
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words()[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set bit `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words_mut()[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        self.words_mut()[i / 64] &= !(1 << (i % 64));
    }

    /// `self |= other`.
    #[inline]
    pub(crate) fn or_assign(&mut self, other: &Self) {
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
            *w |= o;
        }
    }

    /// `self &= !other`.
    #[inline]
    pub(crate) fn and_not_assign(&mut self, other: &Self) {
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
            *w &= !o;
        }
    }

    /// `self = a & !b` (the undone set, computed into a scratch mask
    /// without allocating).
    #[inline]
    pub(crate) fn assign_and_not(&mut self, a: &Self, b: &[u64]) {
        for ((w, x), y) in self.words_mut().iter_mut().zip(a.words()).zip(b) {
            *w = x & !y;
        }
    }

    /// Is `self` a subset of the bits in `ws`?
    #[inline]
    pub(crate) fn subset_of_words(&self, ws: &[u64]) -> bool {
        self.words().iter().zip(ws).all(|(s, w)| s & !w == 0)
    }

    /// Does `self & other & !minus` have any bit set? (The forced-step
    /// rival check: conflicting, still undone, and not ordered after.)
    #[inline]
    pub(crate) fn meets_and_not(&self, other: &Self, minus: &Self) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .zip(minus.words())
            .any(|((s, o), m)| s & o & !m != 0)
    }

    /// Iterate the set bit indices in ascending order.
    #[inline]
    pub(crate) fn bits(&self) -> Bits<'_> {
        Bits {
            rest: self.words(),
            cur: 0,
            base: usize::MAX - 63, // wraps to 0 on the first word
        }
    }
}

/// Ascending set-bit iterator over a word slice (see [`WideMask::bits`]).
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

    /// One word: the shape every litmus-sized program runs on.
    #[test]
    fn wide_mask_ops_on_one_word() {
        let mut m = WideMask::zeros(10);
        assert_eq!(m.words().len(), 1);
        m.set(0);
        m.set(9);
        assert!(m.get(0) && m.get(9) && !m.get(5));
        assert_eq!(m.bits().collect::<Vec<_>>(), vec![0, 9]);
        let mut cleared = m.clone();
        cleared.clear(9);
        assert_eq!(cleared.words(), [1]);
        assert_eq!(WideMask::ones(10).words(), [0x3ff]);
        assert_eq!(WideMask::ones(64).words(), [u64::MAX]);
        assert!(m.subset_of_words(&[0x3ff]));
        assert!(!m.subset_of_words(&[0x1]));
        let of = |bits: &[usize]| {
            let mut x = WideMask::zeros(10);
            bits.iter().for_each(|&b| x.set(b));
            x
        };
        let (other, minus) = (of(&[0, 9]), of(&[9]));
        assert!(m.meets_and_not(&other, &of(&[])));
        assert!(!minus.meets_and_not(&other, &minus));
    }

    /// The inline/heap split is invisible through the methods, and sits at
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
