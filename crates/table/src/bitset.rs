//! Fixed-capacity bitset over `u64` words.
//!
//! Used for null masks, row-selection vectors, and — in the query engine —
//! per-step vertex candidate sets, where the semi-join culling passes of
//! the path matcher are word-wide intersections.

/// A growable bitset. Bits beyond `len` are always zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty bitset with capacity for `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A bitset with all `len` bits set.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        s.trim_tail();
        s
    }

    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Grows the bitset to hold at least `i + 1` bits and sets bit `i`.
    pub fn grow_insert(&mut self, i: usize) {
        if i >= self.len {
            self.len = i + 1;
            self.words.resize(self.len.div_ceil(64), 0);
        }
        self.insert(i);
    }

    /// Appends one bit at index `len`, growing the set.
    pub fn push_bit(&mut self, v: bool) {
        let i = self.len;
        self.len += 1;
        if self.len.div_ceil(64) > self.words.len() {
            self.words.push(0);
        }
        if v {
            self.insert(i);
        }
    }

    /// The backing words, bit `i` at `words[i / 64] >> (i % 64)`; bits at
    /// and beyond `len` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// A bitset of `len` bits over `words`, or `None` when the word count
    /// is not exactly `len.div_ceil(64)`. Bits beyond `len` are cleared.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        let mut s = BitSet { words, len };
        s.trim_tail();
        Some(s)
    }

    /// Appends bits `range` of `other`, a word at a time.
    ///
    /// # Panics
    /// Panics if `range` reaches beyond `other.len()`.
    pub fn extend_from_range(&mut self, other: &BitSet, range: std::ops::Range<usize>) {
        assert!(
            range.start <= range.end && range.end <= other.len,
            "bit range out of bounds"
        );
        let (mut src, mut dst) = (range.start, self.len);
        self.len += range.len();
        self.words.resize(self.len.div_ceil(64), 0);
        while src < range.end {
            let n = (range.end - src).min(64);
            // Up to 64 bits of `other` starting at `src`, low bits first.
            let (w, s) = (src / 64, src % 64);
            let mut chunk = other.words[w] >> s;
            if s != 0 && w + 1 < other.words.len() {
                chunk |= other.words[w + 1] << (64 - s);
            }
            if n < 64 {
                chunk &= (1u64 << n) - 1;
            }
            // The target bits are still zero: or the chunk in.
            let (w, s) = (dst / 64, dst % 64);
            self.words[w] |= chunk << s;
            if s != 0 && s + n > 64 {
                self.words[w + 1] |= chunk >> (64 - s);
            }
            src += n;
            dst += n;
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place intersection. Panics if lengths differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union. Panics if lengths differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference (`self &= !other`). Panics if lengths differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Builds a bitset of length `len` from set-bit indices.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(len);
        for i in indices {
            s.insert(i);
        }
        s
    }
}

/// Iterator over set bits (lowest first).
pub struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = BitSet::new(0);
        for i in iter {
            s.grow_insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn full_sets_exactly_len_bits() {
        for len in [0, 1, 63, 64, 65, 128, 200] {
            let s = BitSet::full(len);
            assert_eq!(s.count(), len, "len={len}");
        }
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let s = BitSet::from_indices(300, [5, 299, 64, 63, 128]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![5, 63, 64, 128, 299]);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(100, [1, 2, 3, 70]);
        let b = BitSet::from_indices(100, [2, 3, 4, 99]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 70, 99]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 70]);
    }

    #[test]
    fn grow_insert_extends() {
        let mut s = BitSet::new(0);
        s.grow_insert(77);
        assert_eq!(s.len(), 78);
        assert!(s.contains(77));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn none_and_clear() {
        let mut s = BitSet::from_indices(10, [3]);
        assert!(!s.none());
        s.clear();
        assert!(s.none());
        assert_eq!(s.len(), 10);
    }

    proptest! {
        #[test]
        fn matches_reference_set(idx in proptest::collection::btree_set(0usize..500, 0..60)) {
            let s = BitSet::from_indices(500, idx.iter().copied());
            prop_assert_eq!(s.count(), idx.len());
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), idx.iter().copied().collect::<Vec<_>>());
            for i in 0..500 {
                prop_assert_eq!(s.contains(i), idx.contains(&i));
            }
        }

        #[test]
        fn extend_from_range_matches_bit_by_bit(
            head in proptest::collection::vec(any::<bool>(), 0..150),
            src in proptest::collection::vec(any::<bool>(), 0..300),
            a in 0usize..300,
            b in 0usize..300,
        ) {
            let (lo, hi) = (a.min(b).min(src.len()), a.max(b).min(src.len()));
            let bits = |v: &[bool]| {
                let mut s = BitSet::new(0);
                v.iter().for_each(|&x| s.push_bit(x));
                s
            };
            let mut fast = bits(&head);
            fast.extend_from_range(&bits(&src), lo..hi);
            let mut want = head.clone();
            want.extend_from_slice(&src[lo..hi]);
            prop_assert_eq!(&fast, &bits(&want));
            // Round trip through the raw words.
            prop_assert_eq!(BitSet::from_words(fast.words().to_vec(), fast.len()), Some(fast));
        }

        #[test]
        fn intersection_commutes(a in proptest::collection::btree_set(0usize..300, 0..40),
                                 b in proptest::collection::btree_set(0usize..300, 0..40)) {
            let sa = BitSet::from_indices(300, a.iter().copied());
            let sb = BitSet::from_indices(300, b.iter().copied());
            let mut ab = sa.clone(); ab.intersect_with(&sb);
            let mut ba = sb.clone(); ba.intersect_with(&sa);
            prop_assert_eq!(ab, ba);
        }
    }
}
