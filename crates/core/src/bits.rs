//! Word-packed and adaptive bitsets: the shared representation machinery
//! behind [`crate::rumor::RumorSet`] and
//! [`crate::informed_list::InformedList`].
//!
//! Both collections live over the fixed universe `0..n` of process indices.
//! [`WordSet`] packs membership 64 indices per word: `contains` is a bit
//! test, `union` is a word-wise OR, and iteration walks set bits in
//! ascending index order (which is exactly the origin order the old
//! tree-based representations produced). The capacity grows on demand
//! because the collections are constructed before `n` is known to them; two
//! sets that hold the same indices compare equal regardless of how much
//! capacity each happens to have allocated.
//!
//! [`AdaptiveSet`] is the roaring-bitmap-style wrapper that makes the same
//! semantics affordable at `n = 65 536`: a set starts as a sorted sparse id
//! list (4 bytes per element, independent of the universe size) and
//! promotes — once, irreversibly — to the dense word-packed form as soon as
//! that form would be no larger (see [`outgrows_sparse`]): two ids inside
//! one word are already a word, a handful of ids scattered over
//! `0..65 536` stays a handful of ids. Every observable
//! behaviour (membership, union deltas, ascending iteration order,
//! equality) is identical in both representations, so executions are
//! bit-for-bit unchanged; only the memory touched by small sets shrinks
//! from `Θ(n)` to `O(|set|)`. An `InformedList` keeps one `AdaptiveSet` per
//! origin only while some row is sparse or the rows are smaller than its
//! one-vector word matrix; the slice kernels below (`or_into`,
//! `words_superset`, the little-endian wire-row forms) serve a `WordSet`'s
//! words and a matrix row alike, and the `*_words` methods let an
//! `AdaptiveSet` row meet a matrix row without materializing either.

use std::borrow::Cow;

/// The upper cap on the sparse forms: an `AdaptiveSet` (and the sparse
/// entry list inside `RumorSet`) holding more than this many elements
/// promotes whatever its density, so sorted-merge unions and binary-search
/// lookups stay short. Below the cap the density rule decides — a set goes
/// dense as soon as its dense form would be no larger; the cap binds only
/// on universes so wide (beyond `n = 32 768` for a `RumorSet`) that 256
/// entries are still smaller than the bitmap.
pub const ADAPTIVE_SPARSE_LIMIT: usize = 256;

/// The one promotion rule of both adaptive collections: a sorted list of
/// `len` entries of `entry_bytes` each, the largest with index `max`,
/// leaves the sparse form as soon as the dense form — `bytes_per_word` for
/// each of the `max / 64 + 1` presence words — would be no larger. It
/// depends only on what the set holds, so the same contents promote at the
/// same point in every run.
pub(crate) fn outgrows_sparse(
    len: usize,
    entry_bytes: usize,
    max: usize,
    bytes_per_word: usize,
) -> bool {
    len > ADAPTIVE_SPARSE_LIMIT || len * entry_bytes >= (max / 64 + 1) * bytes_per_word
}

/// Presence words with trailing zero words trimmed (the capacity a set has
/// grown to is not part of its value).
pub(crate) fn trimmed(words: &[u64]) -> &[u64] {
    let len = words.len() - words.iter().rev().take_while(|&&w| w == 0).count();
    &words[..len]
}

/// ORs `theirs` into the words of `own` it overlaps (callers size `own`
/// first; words of `theirs` beyond it are ignored). Returns the number of
/// bits newly set. A straight-line zip over two slices, so it
/// autovectorizes.
pub(crate) fn or_into(own: &mut [u64], theirs: &[u64]) -> usize {
    let mut added = 0usize;
    for (own, &word) in own.iter_mut().zip(theirs) {
        added += (word & !*own).count_ones() as usize;
        *own |= word;
    }
    added
}

/// True if every bit of `theirs` is set in `own`. One forward pass: the
/// shared prefix eight words at a time (one test per chunk, so the body
/// vectorizes), then whatever `theirs` holds beyond `own` must be zero.
pub(crate) fn words_superset(own: &[u64], theirs: &[u64]) -> bool {
    let shared = own.len().min(theirs.len());
    let (theirs, surplus) = theirs.split_at(shared);
    let mut own_chunks = own[..shared].chunks_exact(8);
    let mut their_chunks = theirs.chunks_exact(8);
    for (own, their) in own_chunks.by_ref().zip(their_chunks.by_ref()) {
        let miss = own
            .iter()
            .zip(their)
            .fold(0, |miss, (a, b)| miss | (b & !a));
        if miss != 0 {
            return false;
        }
    }
    own_chunks
        .remainder()
        .iter()
        .zip(their_chunks.remainder())
        .all(|(a, b)| b & !a == 0)
        && surplus.iter().all(|&w| w == 0)
}

/// The little-endian 8-byte words of a dense wire row, low word first;
/// trailing bytes short of a full word are ignored.
fn le_words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|chunk| {
        chunk
            .first_chunk::<8>()
            .map_or(0, |arr| u64::from_le_bytes(*arr))
    })
}

/// ORs little-endian word bytes into the words of `own` they overlap
/// (callers size `own` first). Returns the number of bits newly set.
pub(crate) fn or_le_into(own: &mut [u64], bytes: &[u8]) -> usize {
    let mut added = 0usize;
    for (own, word) in own.iter_mut().zip(le_words(bytes)) {
        added += (word & !*own).count_ones() as usize;
        *own |= word;
    }
    added
}

/// True if every bit named by little-endian word bytes is set in `own`.
pub(crate) fn le_words_within(own: &[u64], bytes: &[u8]) -> bool {
    le_words(bytes)
        .enumerate()
        .all(|(w, word)| word & !own.get(w).copied().unwrap_or(0) == 0)
}

/// How many words of little-endian word bytes reach their last set bit.
pub(crate) fn le_span(bytes: &[u8]) -> usize {
    le_words(bytes)
        .enumerate()
        .filter(|&(_, word)| word != 0)
        .last()
        .map_or(0, |(w, _)| w + 1)
}

/// ANDs `own` into `mask` (words `own` lacks count as zero).
pub(crate) fn and_words_into(own: &[u64], mask: &mut [u64]) {
    for (w, m) in mask.iter_mut().enumerate() {
        *m &= own.get(w).copied().unwrap_or(0);
    }
}

/// A set of `usize` indices packed 64 per word.
#[derive(Clone, Default)]
pub(crate) struct WordSet {
    words: Vec<u64>,
}

impl WordSet {
    /// Creates an empty set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The backing words (low word first).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Grows the backing storage to at least `len` words — to exactly that
    /// capacity: a set that went dense early grows a word at a time, and
    /// amortized doubling would leave up to half of every bitmap unused.
    pub(crate) fn ensure_words(&mut self, len: usize) {
        if self.words.len() < len {
            self.words.reserve_exact(len - self.words.len());
            self.words.resize(len, 0);
        }
    }

    /// True if `index` is in the set.
    pub(crate) fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|w| w & (1 << (index % 64)) != 0)
    }

    /// Inserts `index`. Returns `true` if it was not present before.
    pub(crate) fn insert(&mut self, index: usize) -> bool {
        self.ensure_words(index / 64 + 1);
        let word = &mut self.words[index / 64];
        let bit = 1u64 << (index % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// ORs `word` into the `w`-th backing word, growing as needed. Returns
    /// the mask of bits that were newly set.
    pub(crate) fn or_word(&mut self, w: usize, word: u64) -> u64 {
        if word == 0 {
            return 0;
        }
        self.ensure_words(w + 1);
        let fresh = word & !self.words[w];
        self.words[w] |= word;
        fresh
    }

    /// Merges `other` into `self`. Returns the number of indices added.
    pub(crate) fn union(&mut self, other: &WordSet) -> usize {
        self.or_words(&other.words)
    }

    /// ORs a word slice (low word first) into the set, growing once up
    /// front. Returns the number of indices added. The loop body is a
    /// straight-line zip over two slices — no per-word bounds checks or
    /// growth branches — so it autovectorizes.
    pub(crate) fn or_words(&mut self, words: &[u64]) -> usize {
        // Zero tail words must not grow the set, and only an operand longer
        // than the set can: it alone pays for `trimmed`'s walk from the tail.
        let words = if words.len() > self.words.len() {
            trimmed(words)
        } else {
            words
        };
        self.ensure_words(words.len());
        or_into(&mut self.words, words)
    }

    /// ORs `bytes.len() / 8` little-endian 8-byte words (starting at word
    /// 0) into the set — the dense wire section lands here without an
    /// intermediate `Vec<u64>`. Trailing bytes short of a full word are
    /// ignored. Returns the number of indices added.
    pub(crate) fn or_le_words(&mut self, bytes: &[u8]) -> usize {
        self.ensure_words(bytes.len() / 8);
        or_le_into(&mut self.words, bytes)
    }

    /// True if every index of `other` is in `self` (see
    /// [`words_superset`]).
    pub(crate) fn is_superset_of(&self, other: &WordSet) -> bool {
        words_superset(&self.words, &other.words)
    }

    /// Iterates over the set indices in ascending order.
    pub(crate) fn iter(&self) -> WordSetIter<'_> {
        WordSetIter::new(&self.words)
    }
}

/// Ascending iterator over the indices of a word slice (a [`WordSet`]'s
/// words, or one row of an informed-list matrix).
pub(crate) struct WordSetIter<'a> {
    words: &'a [u64],
    w: usize,
    current: u64,
}

impl<'a> WordSetIter<'a> {
    /// Iterates the set bits of `words`, low word first.
    pub(crate) fn new(words: &'a [u64]) -> Self {
        WordSetIter {
            words,
            w: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for WordSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.w += 1;
            if self.w >= self.words.len() {
                return None;
            }
            self.current = self.words[self.w];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.w * 64 + bit)
    }
}

/// An index set that adapts its representation to its density: sorted
/// sparse ids while those are strictly smaller than the bitmap reaching the
/// largest of them, the dense word-packed [`WordSet`] from then on (see
/// [`outgrows_sparse`]). Promotion is one-way — a set that has gone dense
/// stays dense — so a long-lived set settles into the representation its
/// steady state wants.
#[derive(Clone)]
pub(crate) enum AdaptiveSet {
    /// Sorted ascending, no duplicates.
    Sparse(Vec<u32>),
    /// The word-packed form.
    Dense(WordSet),
}

impl Default for AdaptiveSet {
    fn default() -> Self {
        AdaptiveSet::Sparse(Vec::new())
    }
}

impl AdaptiveSet {
    /// Creates an empty set (sparse).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// True if the set holds no index.
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            AdaptiveSet::Sparse(ids) => ids.is_empty(),
            AdaptiveSet::Dense(words) => words.words().iter().all(|&w| w == 0),
        }
    }

    /// True if the set is in the dense word-packed representation.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self, AdaptiveSet::Dense(_))
    }

    /// True if `index` is in the set.
    pub(crate) fn contains(&self, index: usize) -> bool {
        match self {
            AdaptiveSet::Sparse(ids) => {
                u32::try_from(index).is_ok_and(|id| ids.binary_search(&id).is_ok())
            }
            AdaptiveSet::Dense(words) => words.contains(index),
        }
    }

    /// Switches to the dense representation (no-op if already dense).
    pub(crate) fn promote(&mut self) {
        if let AdaptiveSet::Sparse(ids) = self {
            let mut words = WordSet::new();
            if let Some(&max) = ids.last() {
                words.ensure_words(max as usize / 64 + 1);
            }
            for &id in ids.iter() {
                words.insert(id as usize);
            }
            *self = AdaptiveSet::Dense(words);
        }
    }

    /// Promotes a sparse set whose dense form would be no larger.
    fn promote_if_outgrown(&mut self) {
        if let AdaptiveSet::Sparse(ids) = self {
            let outgrown = ids.last().is_some_and(|&max| {
                outgrows_sparse(ids.len(), size_of::<u32>(), max as usize, size_of::<u64>())
            });
            if outgrown {
                self.promote();
            }
        }
    }

    /// Inserts `index`. Returns `true` if it was not present before.
    /// Promotes once the dense form is no larger (or for indices beyond
    /// `u32`, which the sparse id list cannot represent).
    pub(crate) fn insert(&mut self, index: usize) -> bool {
        match self {
            AdaptiveSet::Sparse(ids) => {
                let Ok(id) = u32::try_from(index) else {
                    self.promote();
                    return self.insert(index);
                };
                match ids.binary_search(&id) {
                    Ok(_) => false,
                    Err(pos) => {
                        ids.insert(pos, id);
                        self.promote_if_outgrown();
                        true
                    }
                }
            }
            AdaptiveSet::Dense(words) => words.insert(index),
        }
    }

    /// Merges `other` into `self`. Returns the number of indices added.
    pub(crate) fn union(&mut self, other: &AdaptiveSet) -> usize {
        match (&mut *self, other) {
            (AdaptiveSet::Sparse(own), AdaptiveSet::Sparse(theirs)) => {
                let added = merge_sorted(own, theirs, |&id| id, |_| {});
                self.promote_if_outgrown();
                added
            }
            (_, AdaptiveSet::Dense(theirs)) => self.or_words(theirs.words()),
            (AdaptiveSet::Dense(words), AdaptiveSet::Sparse(theirs)) => theirs
                .iter()
                .map(|&id| words.insert(id as usize) as usize)
                .sum(),
        }
    }

    /// ORs raw little-endian word bytes (a dense wire row) into the set,
    /// promoting to the dense form first. Returns the number of indices
    /// added.
    pub(crate) fn or_le_words(&mut self, bytes: &[u8]) -> usize {
        self.promote();
        match self {
            AdaptiveSet::Dense(words) => words.or_le_words(bytes),
            AdaptiveSet::Sparse(_) => 0,
        }
    }

    /// True if every index named by raw little-endian word bytes is in
    /// `self`.
    pub(crate) fn is_superset_of_le_words(&self, bytes: &[u8]) -> bool {
        match self {
            AdaptiveSet::Dense(words) => le_words_within(words.words(), bytes),
            AdaptiveSet::Sparse(_) => le_words(bytes).enumerate().all(|(w, mut word)| {
                while word != 0 {
                    let index = w * 64 + word.trailing_zeros() as usize;
                    if !self.contains(index) {
                        return false;
                    }
                    word &= word - 1;
                }
                true
            }),
        }
    }

    /// A dense set built from presence words (trailing zero words dropped);
    /// an empty sparse set if no bit is set.
    pub(crate) fn from_words(words: &[u64]) -> AdaptiveSet {
        match trimmed(words) {
            [] => AdaptiveSet::new(),
            words => AdaptiveSet::Dense(WordSet {
                words: words.to_vec(),
            }),
        }
    }

    /// The backing words (untrimmed) of a dense set; `None` while sparse.
    pub(crate) fn dense_words(&self) -> Option<&[u64]> {
        match self {
            AdaptiveSet::Sparse(_) => None,
            AdaptiveSet::Dense(words) => Some(words.words()),
        }
    }

    /// How many presence words reach the largest index (0 when empty).
    pub(crate) fn span(&self) -> usize {
        match self {
            AdaptiveSet::Sparse(ids) => ids.last().map_or(0, |&max| max as usize / 64 + 1),
            AdaptiveSet::Dense(words) => trimmed(words.words()).len(),
        }
    }

    /// ORs presence words (low word first) into the set, promoting to the
    /// dense form first. Returns the number of indices added.
    pub(crate) fn or_words(&mut self, words: &[u64]) -> usize {
        self.promote();
        match self {
            AdaptiveSet::Dense(own) => own.or_words(words),
            AdaptiveSet::Sparse(_) => 0,
        }
    }

    /// True if every index set in `words` is in `self`.
    pub(crate) fn is_superset_of_words(&self, words: &[u64]) -> bool {
        match self {
            AdaptiveSet::Dense(own) => words_superset(own.words(), words),
            // Every index of `words` must be one of self's few ids.
            AdaptiveSet::Sparse(_) => WordSetIter::new(words).all(|id| self.contains(id)),
        }
    }

    /// ORs this set into presence words sized to hold it (indices beyond
    /// `words` are dropped). Returns the number of bits newly set.
    pub(crate) fn or_into_words(&self, words: &mut [u64]) -> usize {
        match self {
            AdaptiveSet::Dense(own) => or_into(words, own.words()),
            AdaptiveSet::Sparse(ids) => ids
                .iter()
                .filter_map(|&id| {
                    let word = words.get_mut(id as usize / 64)?;
                    let bit = 1u64 << (id % 64);
                    let fresh = *word & bit == 0;
                    *word |= bit;
                    Some(usize::from(fresh))
                })
                .sum(),
        }
    }

    /// True if every index of `self` is set in `words`.
    pub(crate) fn is_within_words(&self, words: &[u64]) -> bool {
        match self {
            AdaptiveSet::Dense(own) => words_superset(words, own.words()),
            AdaptiveSet::Sparse(ids) => ids.iter().all(|&id| {
                words
                    .get(id as usize / 64)
                    .is_some_and(|w| w & (1 << (id % 64)) != 0)
            }),
        }
    }

    /// True if every index of `other` is in `self`.
    pub(crate) fn is_superset_of(&self, other: &AdaptiveSet) -> bool {
        match other {
            AdaptiveSet::Dense(theirs) => self.is_superset_of_words(theirs.words()),
            AdaptiveSet::Sparse(theirs) => theirs.iter().all(|&id| self.contains(id as usize)),
        }
    }

    /// Iterates over the set indices in ascending order.
    pub(crate) fn iter(&self) -> AdaptiveIter<'_> {
        match self {
            AdaptiveSet::Sparse(ids) => AdaptiveIter::Sparse(ids.iter()),
            AdaptiveSet::Dense(words) => AdaptiveIter::Dense(words.iter()),
        }
    }

    /// ANDs this set into `mask` (one bit per index, `mask[w]` covering
    /// indices `64w..64w+64`): bits of `mask` whose index is not in the set
    /// are cleared. Indices beyond the mask are ignored.
    pub(crate) fn and_into(&self, mask: &mut [u64]) {
        match self {
            AdaptiveSet::Sparse(ids) => {
                let mut next = 0usize;
                for (w, m) in mask.iter_mut().enumerate() {
                    let mut own = 0u64;
                    while next < ids.len() && ids[next] as usize / 64 == w {
                        own |= 1 << (ids[next] % 64);
                        next += 1;
                    }
                    *m &= own;
                }
            }
            AdaptiveSet::Dense(words) => and_words_into(words.words(), mask),
        }
    }

    /// The set as trimmed dense words — borrowed when already dense,
    /// materialized when sparse. This is what the wire codec's dense section
    /// ships, so the bytes are identical whichever representation the set
    /// happens to be in.
    pub(crate) fn to_words(&self) -> Cow<'_, [u64]> {
        match self {
            AdaptiveSet::Sparse(ids) => {
                let Some(&max) = ids.last() else {
                    return Cow::Owned(Vec::new());
                };
                let mut words = vec![0u64; max as usize / 64 + 1];
                for &id in ids {
                    words[id as usize / 64] |= 1 << (id % 64);
                }
                Cow::Owned(words)
            }
            AdaptiveSet::Dense(words) => Cow::Borrowed(trimmed(words.words())),
        }
    }
}

/// Merges sorted `theirs` into sorted `own` in place (both ascending by
/// `key`, duplicate free); a key already present keeps `own`'s element.
/// `on_new` sees every element of `theirs` that is added. Returns the
/// number of new elements. Allocates only when `own` lacks the capacity.
pub(crate) fn merge_sorted<T: Copy>(
    own: &mut Vec<T>,
    theirs: &[T],
    key: impl Fn(&T) -> u32,
    mut on_new: impl FnMut(&T),
) -> usize {
    // First walk: count (and report) what is new, which fixes the merged
    // length.
    let (mut i, mut added) = (0usize, 0usize);
    for t in theirs {
        while i < own.len() && key(&own[i]) < key(t) {
            i += 1;
        }
        if i == own.len() || key(&own[i]) != key(t) {
            added += 1;
            on_new(t);
        }
    }
    if added == 0 {
        return 0;
    }
    // Second walk: merge from the back into the grown tail, so every
    // element moves at most once and nothing is overwritten before it is
    // read (`write >= i` throughout). The tail's filler value is arbitrary:
    // every slot of it is written.
    let (mut i, mut j) = (own.len(), theirs.len());
    own.resize(i + added, theirs[0]);
    let mut write = own.len();
    while j > 0 {
        let theirs_key = key(&theirs[j - 1]);
        if i > 0 && key(&own[i - 1]) >= theirs_key {
            if key(&own[i - 1]) == theirs_key {
                j -= 1;
            }
            i -= 1;
            write -= 1;
            own[write] = own[i];
        } else {
            j -= 1;
            write -= 1;
            own[write] = theirs[j];
        }
    }
    added
}

/// Ascending iterator over an [`AdaptiveSet`]'s indices.
pub(crate) enum AdaptiveIter<'a> {
    Sparse(std::slice::Iter<'a, u32>),
    Dense(WordSetIter<'a>),
}

impl Iterator for AdaptiveIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            AdaptiveIter::Sparse(ids) => ids.next().map(|&id| id as usize),
            AdaptiveIter::Dense(bits) => bits.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_growth() {
        let mut s = WordSet::new();
        assert!(!s.contains(0));
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(200), "insertion grows the word vector");
        assert!(s.contains(3));
        assert!(s.contains(200));
        assert!(!s.contains(199));
        assert_eq!(s.words().len(), 4);
    }

    #[test]
    fn union_counts_fresh_bits_only() {
        let mut a = WordSet::new();
        a.insert(1);
        a.insert(65);
        let mut b = WordSet::new();
        b.insert(1);
        b.insert(2);
        b.insert(130);
        assert_eq!(a.union(&b), 2);
        assert_eq!(a.union(&b), 0);
        assert!(a.is_superset_of(&b));
        assert!(!b.is_superset_of(&a));
    }

    fn from_words(words: &[u64]) -> WordSet {
        WordSet {
            words: words.to_vec(),
        }
    }

    #[test]
    fn superset_compares_contents_whatever_the_lengths() {
        // Lengths 0..=17 words hit every remainder of the 8-word chunks, on
        // both sides of one and of two whole chunks.
        for len in 0..=17usize {
            let full = from_words(&vec![u64::MAX; len]);
            let empty = from_words(&vec![0; len]);
            assert!(full.is_superset_of(&full), "equal, {len} words");
            assert!(full.is_superset_of(&empty));
            assert!(empty.is_superset_of(&empty));
            assert_eq!(empty.is_superset_of(&full), len == 0);
            // One bit we lack, in each word position in turn.
            for w in 0..len {
                let mut words = vec![u64::MAX; len];
                words[w] &= !(1 << (w % 64));
                let holed = from_words(&words);
                assert!(full.is_superset_of(&holed));
                assert!(!holed.is_superset_of(&full), "hole in word {w} of {len}");
            }
            // The other side shorter: only its words count.
            for shorter in 0..len {
                let prefix = from_words(&vec![u64::MAX; shorter]);
                assert!(full.is_superset_of(&prefix));
                assert!(!prefix.is_superset_of(&full));
            }
            // The other side longer: a zero tail is capacity, a set tail is
            // content.
            for extra in 1..=9usize {
                let mut words = vec![u64::MAX; len];
                words.resize(len + extra, 0);
                assert!(full.is_superset_of(&from_words(&words)), "zero tail");
                words[len + extra - 1] = 1 << 40;
                assert!(!full.is_superset_of(&from_words(&words)), "set tail");
            }
        }
    }

    #[test]
    fn or_words_grows_to_the_last_set_word_only() {
        let mut s = from_words(&[1, 0]);
        // Not longer than the set: no growth, zero words add nothing.
        assert_eq!(s.or_words(&[2, 0]), 1);
        assert_eq!(s.words(), &[3, 0]);
        // Longer with a zero tail: grows to the last non-zero word, exactly.
        assert_eq!(s.or_words(&[0, 0, 4, 0, 0]), 1);
        assert_eq!(s.words(), &[3, 0, 4]);
        assert_eq!(s.words.capacity(), 3);
        assert_eq!(s.or_words(&[0, 0, 0, 0]), 0);
        assert_eq!(s.words().len(), 3);
    }

    #[test]
    fn or_words_and_or_le_words_match_per_word_or() {
        let mut by_word = WordSet::new();
        let mut by_slice = WordSet::new();
        let mut by_bytes = WordSet::new();
        let words = [0b1010u64, 0, u64::MAX, 1 << 63];
        for (w, &word) in words.iter().enumerate() {
            by_word.or_word(w, word);
        }
        assert_eq!(by_slice.or_words(&words), 64 + 3);
        assert_eq!(by_slice.or_words(&words), 0);
        let mut bytes = Vec::new();
        for &word in &words {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(by_bytes.or_le_words(&bytes), 64 + 3);
        assert_eq!(by_word.words(), by_slice.words());
        assert_eq!(trimmed(by_word.words()), trimmed(by_bytes.words()));
        // Trailing partial words are ignored.
        let mut partial = WordSet::new();
        assert_eq!(partial.or_le_words(&[0xFF, 0xFF, 0xFF]), 0);
        assert!(partial.words().is_empty());
    }

    #[test]
    fn iter_is_ascending() {
        let mut s = WordSet::new();
        for i in [130, 0, 63, 64, 5] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 130]);
    }

    #[test]
    fn or_word_reports_fresh_mask() {
        let mut s = WordSet::new();
        assert_eq!(s.or_word(2, 0b1010), 0b1010);
        assert_eq!(s.or_word(2, 0b1110), 0b0100);
        assert_eq!(s.or_word(5, 0), 0, "zero word neither grows nor sets");
        assert_eq!(s.words().len(), 3);
    }

    /// Sparse bytes and dense bytes of an id set, as the density rule
    /// counts them.
    fn sparse_and_dense_bytes(ids: &[usize]) -> (usize, usize) {
        let words = ids.iter().max().map_or(0, |&max| max / 64 + 1);
        (4 * ids.len(), 8 * words)
    }

    #[test]
    fn adaptive_starts_sparse_and_promotes_past_the_crossover() {
        // A set is sparse exactly while its id list is strictly smaller
        // than the bitmap reaching its largest id: widely spaced ids stay
        // sparse until the 4-byte entries catch up with the 8-byte words.
        let mut s = AdaptiveSet::new();
        assert!(!s.is_dense());
        let mut held = Vec::new();
        for i in (0..40).rev() {
            assert!(s.insert(i * 16));
            held.push(i * 16);
            let (sparse, dense) = sparse_and_dense_bytes(&held);
            assert_eq!(s.is_dense(), sparse >= dense, "{} ids", held.len());
        }
        assert!(s.is_dense(), "10 words of bitmap against 40 ids: dense");
        // Semantics survive the promotion, and promotion is one-way.
        for i in 0..40 {
            assert!(s.contains(i * 16));
            assert!(!s.contains(i * 16 + 1));
        }
        let got: Vec<usize> = s.iter().collect();
        let want: Vec<usize> = (0..40).map(|i| i * 16).collect();
        assert_eq!(got, want);
        // Two ids inside one word fill its 8 bytes; across two words they
        // do not.
        let mut low = AdaptiveSet::new();
        low.insert(5);
        assert!(!low.is_dense());
        low.insert(63);
        assert!(low.is_dense());
        let mut high = AdaptiveSet::new();
        high.insert(5);
        high.insert(64);
        assert!(!high.is_dense());
    }

    #[test]
    fn adaptive_cap_promotes_whatever_the_density() {
        let mut s = AdaptiveSet::new();
        for i in 0..ADAPTIVE_SPARSE_LIMIT {
            s.insert(i << 12);
        }
        assert!(!s.is_dense(), "at the cap the set is still sparse");
        s.insert(ADAPTIVE_SPARSE_LIMIT << 12);
        assert!(s.is_dense(), "one past the cap promotes");
        assert_eq!(s.iter().count(), ADAPTIVE_SPARSE_LIMIT + 1);
    }

    #[test]
    fn adaptive_union_matches_in_every_representation_pairing() {
        let build = |ids: &[usize], dense: bool| {
            let mut s = AdaptiveSet::new();
            if dense {
                s.promote();
            }
            for &i in ids {
                s.insert(i);
            }
            s
        };
        let a_ids = [1usize, 5, 64, 130];
        let b_ids = [0usize, 5, 131, 200];
        for &a_dense in &[false, true] {
            for &b_dense in &[false, true] {
                let mut a = build(&a_ids, a_dense);
                let b = build(&b_ids, b_dense);
                assert_eq!(a.union(&b), 3, "({a_dense}, {b_dense})");
                assert_eq!(a.union(&b), 0);
                let got: Vec<usize> = a.iter().collect();
                assert_eq!(got, vec![0, 1, 5, 64, 130, 131, 200]);
                assert!(a.is_superset_of(&b));
                assert!(!b.is_superset_of(&a));
            }
        }
    }

    #[test]
    fn adaptive_union_promotes_when_the_merge_crosses_the_limit() {
        // Two sparse sets over 32 words (32 ids each against 256 bytes of
        // bitmap) whose union reaches the 64 ids that fill those bytes.
        let mut a = AdaptiveSet::new();
        let mut b = AdaptiveSet::new();
        for i in 0..32 {
            a.insert(64 * i);
            b.insert(64 * i + 1);
        }
        assert!(!a.is_dense() && !b.is_dense());
        let mut short = a.clone();
        assert_eq!(short.union(&AdaptiveSet::Sparse(vec![1, 65])), 2);
        assert!(!short.is_dense(), "34 ids are still smaller than 32 words");
        assert_eq!(a.union(&b), 32);
        assert!(a.is_dense());
        assert_eq!(a.iter().count(), 64);
        // A sparse receiver of a dense set follows it.
        assert_eq!(b.union(&a), 32);
        assert!(b.is_dense());
    }

    #[test]
    fn adaptive_and_into_masks_identically_for_both_representations() {
        let ids = [0usize, 3, 64, 127, 190];
        let mut sparse = AdaptiveSet::new();
        let mut dense = AdaptiveSet::new();
        dense.promote();
        for &i in &ids {
            sparse.insert(i);
            dense.insert(i);
        }
        let mut m1 = vec![u64::MAX; 3];
        let mut m2 = m1.clone();
        sparse.and_into(&mut m1);
        dense.and_into(&mut m2);
        assert_eq!(m1, m2);
        for i in 0..192 {
            let set = m1[i / 64] & (1 << (i % 64)) != 0;
            assert_eq!(set, ids.contains(&i), "index {i}");
        }
    }

    #[test]
    fn adaptive_to_words_is_identical_for_both_representations() {
        let ids = [1usize, 64, 500];
        let mut sparse = AdaptiveSet::new();
        let mut dense = AdaptiveSet::new();
        dense.promote();
        for &i in &ids {
            sparse.insert(i);
            dense.insert(i);
        }
        assert_eq!(sparse.to_words(), dense.to_words());
        assert!(AdaptiveSet::new().to_words().is_empty());
        // Dense words are trimmed: trailing capacity is not part of the value.
        let mut grown = AdaptiveSet::Dense(WordSet::new());
        grown.insert(1);
        if let AdaptiveSet::Dense(w) = &mut grown {
            w.ensure_words(12);
        }
        assert_eq!(grown.to_words().len(), 1);
    }

    #[test]
    fn merge_sorted_counts_only_new_elements() {
        let merge = |own: &mut Vec<u32>, theirs: &[u32]| {
            let mut seen = Vec::new();
            let added = merge_sorted(own, theirs, |&id| id, |&id| seen.push(id));
            assert_eq!(seen.len(), added);
            (added, seen)
        };
        let mut own = vec![1, 4, 9];
        assert_eq!(merge(&mut own, &[0, 4, 10]), (2, vec![0, 10]));
        assert_eq!(own, vec![0, 1, 4, 9, 10]);
        assert_eq!(merge(&mut own, &[]).0, 0);
        assert_eq!(merge(&mut own, &[1, 9]).0, 0, "nothing new, nothing moves");
        assert_eq!(merge(&mut own, &[11, 12]).0, 2, "past the tail");
        assert_eq!(merge(&mut own, &[2, 3, 5]).0, 3, "interleaved");
        assert_eq!(own, vec![0, 1, 2, 3, 4, 5, 9, 10, 11, 12]);
        let mut empty = Vec::new();
        assert_eq!(merge(&mut empty, &[7, 8]).0, 2);
        assert_eq!(empty, vec![7, 8]);
    }

    #[test]
    fn merge_sorted_reuses_spare_capacity() {
        let mut own = Vec::with_capacity(8);
        own.extend_from_slice(&[(2u32, 'a'), (6, 'b')]);
        let before = own.as_ptr();
        let added = merge_sorted(&mut own, &[(1, 'x'), (2, 'y'), (7, 'z')], |e| e.0, |_| {});
        assert_eq!(added, 2);
        assert_eq!(own, vec![(1, 'x'), (2, 'a'), (6, 'b'), (7, 'z')]);
        assert_eq!(own.as_ptr(), before, "merged in place");
    }
}
