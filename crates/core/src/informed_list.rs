//! The informed-list `I(p)` of the `ears` protocol.
//!
//! `I(p)` is a set of pairs `⟨r, q⟩` meaning "process `p` knows that rumor
//! `r` has been sent to process `q` by some process" (paper, Section 3.1).
//! From `V(p)` and `I(p)` the process derives `L(p)`, the set of processes it
//! cannot ascertain have been sent every rumor in `V(p)`; the protocol keeps
//! gossiping while `L(p)` is non-empty.
//!
//! The list has two forms, the same two-level pattern as the sparse/dense
//! split inside `RumorSet`:
//!
//! * **Rows.** One adaptive target set per origin
//!   (`crate::bits::AdaptiveSet`): a sorted sparse id list while that is
//!   smaller than the bitmap reaching its largest target — so an
//!   early-phase process at `n = 65 536` holds a few dozen ids per known
//!   rumor instead of `Θ(n)` bitmap words — promoting per row to the
//!   word-packed form as soon as 4 bytes per id add up to 8 bytes per word.
//! * **Matrix.** Once every non-empty row is dense and the row-major
//!   `origins × stride` word matrix (`stride` = the widest row's words) is
//!   no larger than those rows plus their per-row headers, the whole list
//!   becomes that one `Vec<u64>`. A copy-on-write clone is then one
//!   allocation, and `union` / `is_superset_of` between two matrices of one
//!   stride are one linear pass. The check runs after every union and
//!   every batched send record, never per single-pair insert.
//!
//! A matrix grows (more origins, a wider stride) only while the grown
//! matrix stays within `current words + 2·(len + 64)`; past that budget it
//! goes back to rows first, so a frame naming one far pair — ids up to
//! `MAX_WIRE_ID` — costs a row, never a `max origin × max target` matrix.
//! Operations between the two forms go row by row, never pair by pair.
//! Every observable — `len`, ascending `(origin, target)` iteration (the
//! order of the historical `BTreeSet<(ProcessId, ProcessId)>`), union
//! deltas, the coverage queries and the wire rows of `dense_rows` — is the
//! same in either form.

use std::borrow::Cow;
use std::fmt;

use agossip_sim::ProcessId;

use crate::bits::{
    and_words_into, le_span, le_words_within, or_into, or_le_into, trimmed, words_superset,
    AdaptiveIter, AdaptiveSet, WordSetIter,
};
use crate::rumor::RumorSet;

/// The set of `⟨rumor origin, target⟩` pairs a process knows about.
///
/// Rumors are identified by their origin (each origin has exactly one rumor),
/// so a pair `(r, q)` is stored as `(r.origin, q)` — a point in the fixed
/// `n × n` universe — in one of the two forms the module docs describe. The
/// coverage queries that `ears`/`sears` evaluate every local step reduce to
/// AND-ing the rows of the known rumors in either form.
#[derive(Clone, Default)]
pub struct InformedList {
    form: Form,
    len: usize,
}

#[derive(Clone)]
enum Form {
    /// `rows[origin]` is the set of targets covered for that origin's rumor.
    Rows(Vec<AdaptiveSet>),
    /// Row-major bit matrix: origin `o`'s targets are the bits of
    /// `words[o * stride..(o + 1) * stride]`. `stride ≥ 1`, and
    /// `words.len()` is a multiple of it.
    Matrix { stride: usize, words: Vec<u64> },
}

impl Default for Form {
    fn default() -> Self {
        Form::Rows(Vec::new())
    }
}

/// One origin's targets, borrowed from either form.
#[derive(Clone, Copy)]
enum Row<'a> {
    Set(&'a AdaptiveSet),
    Words(&'a [u64]),
}

impl<'a> Row<'a> {
    fn is_empty(self) -> bool {
        match self {
            Row::Set(set) => set.is_empty(),
            Row::Words(words) => words.iter().all(|&w| w == 0),
        }
    }

    fn contains(self, target: usize) -> bool {
        match self {
            Row::Set(set) => set.contains(target),
            Row::Words(words) => words
                .get(target / 64)
                .is_some_and(|w| w & (1 << (target % 64)) != 0),
        }
    }

    /// Words reaching the largest target (0 when empty).
    fn span(self) -> usize {
        match self {
            Row::Set(set) => set.span(),
            Row::Words(words) => trimmed(words).len(),
        }
    }

    fn iter(self) -> AdaptiveIter<'a> {
        match self {
            Row::Set(set) => set.iter(),
            Row::Words(words) => AdaptiveIter::Dense(WordSetIter::new(words)),
        }
    }

    fn to_words(self) -> Cow<'a, [u64]> {
        match self {
            Row::Set(set) => set.to_words(),
            Row::Words(words) => Cow::Borrowed(trimmed(words)),
        }
    }

    fn and_into(self, mask: &mut [u64]) {
        match self {
            Row::Set(set) => set.and_into(mask),
            Row::Words(words) => and_words_into(words, mask),
        }
    }

    fn is_superset_of(self, other: Row<'_>) -> bool {
        match (self, other) {
            (Row::Set(own), Row::Set(theirs)) => own.is_superset_of(theirs),
            (Row::Set(own), Row::Words(theirs)) => own.is_superset_of_words(theirs),
            (Row::Words(own), Row::Set(theirs)) => theirs.is_within_words(own),
            (Row::Words(own), Row::Words(theirs)) => words_superset(own, theirs),
        }
    }

    fn is_superset_of_le_words(self, bytes: &[u8]) -> bool {
        match self {
            Row::Set(set) => set.is_superset_of_le_words(bytes),
            Row::Words(words) => le_words_within(words, bytes),
        }
    }

    /// ORs the row into a matrix row wide enough to hold it. Returns the
    /// number of bits newly set.
    fn or_into(self, own: &mut [u64]) -> usize {
        match self {
            Row::Set(set) => set.or_into_words(own),
            Row::Words(words) => or_into(own, words),
        }
    }

    /// ORs the row into a per-row set. Returns the number of targets added.
    fn or_into_set(self, own: &mut AdaptiveSet) -> usize {
        match self {
            Row::Set(set) => own.union(set),
            Row::Words(words) => own.or_words(words),
        }
    }
}

/// The rows of a list in origin order, empty ones included.
enum RowIter<'a> {
    Rows(std::iter::Enumerate<std::slice::Iter<'a, AdaptiveSet>>),
    Matrix(std::iter::Enumerate<std::slice::ChunksExact<'a, u64>>),
}

impl<'a> Iterator for RowIter<'a> {
    type Item = (usize, Row<'a>);

    fn next(&mut self) -> Option<(usize, Row<'a>)> {
        match self {
            RowIter::Rows(rows) => rows.next().map(|(origin, set)| (origin, Row::Set(set))),
            RowIter::Matrix(rows) => rows
                .next()
                .map(|(origin, words)| (origin, Row::Words(words))),
        }
    }
}

/// Origin `origin`'s words of a `stride`-wide matrix, if it has that row.
fn matrix_row(words: &[u64], stride: usize, origin: usize) -> Option<&[u64]> {
    let start = origin.checked_mul(stride)?;
    words.get(start..start.checked_add(stride)?)
}

fn matrix_row_mut(words: &mut [u64], stride: usize, origin: usize) -> Option<&mut [u64]> {
    let start = origin.checked_mul(stride)?;
    words.get_mut(start..start.checked_add(stride)?)
}

fn row_mut(rows: &mut Vec<AdaptiveSet>, origin: usize) -> &mut AdaptiveSet {
    if rows.len() <= origin {
        rows.resize_with(origin + 1, AdaptiveSet::new);
    }
    &mut rows[origin]
}

impl InformedList {
    /// Creates an empty informed-list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forces every row into the dense representation. A hook for the
    /// representation-differential tests; never needed in protocol code.
    #[doc(hidden)]
    pub fn force_dense(&mut self) {
        if let Form::Rows(rows) = &mut self.form {
            for row in rows {
                row.promote();
            }
        }
    }

    /// Origin `origin`'s row, if the list has one.
    fn row(&self, origin: usize) -> Option<Row<'_>> {
        match &self.form {
            Form::Rows(rows) => rows.get(origin).map(Row::Set),
            Form::Matrix { stride, words } => matrix_row(words, *stride, origin).map(Row::Words),
        }
    }

    fn rows(&self) -> RowIter<'_> {
        match &self.form {
            Form::Rows(rows) => RowIter::Rows(rows.iter().enumerate()),
            Form::Matrix { stride, words } => {
                RowIter::Matrix(words.chunks_exact(*stride).enumerate())
            }
        }
    }

    /// `(1 + the largest origin with a target, the widest row's words)`.
    fn shape(&self) -> (usize, usize) {
        match &self.form {
            Form::Matrix { stride, words } => (words.len() / stride, *stride),
            Form::Rows(_) => {
                self.rows()
                    .fold((0, 0), |(rows, stride), (origin, row)| match row.span() {
                        0 => (rows, stride),
                        span => (origin + 1, stride.max(span)),
                    })
            }
        }
    }

    /// Makes a matrix span at least the shape `need` returns (more rows, a
    /// wider stride), or — when the grown matrix would pass the budget of
    /// `current words + 2·(len + 64)` — turns the list back into rows. A
    /// list in rows stays as it is, and `need` is not called.
    fn fit(&mut self, need: impl FnOnce() -> (usize, usize)) {
        let Form::Matrix { stride, words } = &mut self.form else {
            return;
        };
        let (need_rows, need_stride) = need();
        let rows = words.len() / *stride;
        if need_rows <= rows && need_stride <= *stride {
            return;
        }
        let (rows, new_stride) = (need_rows.max(rows), need_stride.max(*stride));
        let budget = self
            .len
            .saturating_add(64)
            .saturating_mul(2)
            .saturating_add(words.len());
        match rows.checked_mul(new_stride) {
            Some(size) if size <= budget => {
                if new_stride == *stride {
                    words.resize(size, 0);
                } else {
                    let mut grown = vec![0u64; size];
                    for (to, from) in grown
                        .chunks_exact_mut(new_stride)
                        .zip(words.chunks_exact(*stride))
                    {
                        to.iter_mut().zip(from).for_each(|(to, &from)| *to = from);
                    }
                    *words = grown;
                    *stride = new_stride;
                }
            }
            _ => {
                let rows = words.chunks_exact(*stride).map(AdaptiveSet::from_words);
                self.form = Form::Rows(rows.collect());
            }
        }
    }

    /// Turns a list in rows into the matrix when every non-empty row is
    /// dense and the matrix is no larger than the rows' words plus one
    /// `AdaptiveSet` header per row.
    fn promote_if_matrix_fits(&mut self) {
        let Form::Rows(rows) = &self.form else {
            return;
        };
        let (mut held, mut height, mut stride) = (0usize, 0usize, 0usize);
        for (origin, row) in rows.iter().enumerate() {
            let words = match row.dense_words() {
                Some(words) => words,
                None if row.is_empty() => &[],
                None => return,
            };
            let span = trimmed(words).len();
            if span > 0 {
                height = origin + 1;
                stride = stride.max(span);
            }
            held += size_of_val(words) + size_of::<AdaptiveSet>();
        }
        if stride == 0 || height * stride * size_of::<u64>() > held {
            return;
        }
        let mut words = vec![0u64; height * stride];
        for (to, row) in words.chunks_exact_mut(stride).zip(rows) {
            let from = row.dense_words().unwrap_or_default();
            to.iter_mut().zip(from).for_each(|(to, &from)| *to = from);
        }
        self.form = Form::Matrix { stride, words };
    }

    /// True if the list is in the matrix form.
    #[cfg(test)]
    fn is_matrix(&self) -> bool {
        matches!(self.form, Form::Matrix { .. })
    }

    /// Records that the rumor originating at `rumor_origin` has been sent to
    /// `target`. Returns true if the pair is new.
    pub fn insert(&mut self, rumor_origin: ProcessId, target: ProcessId) -> bool {
        let (origin, target) = (rumor_origin.index(), target.index());
        self.fit(|| (origin.saturating_add(1), target / 64 + 1));
        let fresh = match &mut self.form {
            Form::Rows(rows) => row_mut(rows, origin).insert(target),
            Form::Matrix { stride, words } => matrix_row_mut(words, *stride, origin)
                .and_then(|row| row.get_mut(target / 64))
                .is_some_and(|word| {
                    let bit = 1u64 << (target % 64);
                    let fresh = *word & bit == 0;
                    *word |= bit;
                    fresh
                }),
        };
        self.len += usize::from(fresh);
        fresh
    }

    /// Records that every rumor in `rumors` has been sent to `target`.
    pub fn insert_all(&mut self, rumors: &RumorSet, target: ProcessId) {
        self.record_sends(rumors, std::slice::from_ref(&target));
    }

    /// Records that every rumor in `rumors` has been sent to every process
    /// in `targets` — one local step's sends. On the matrix this ORs one
    /// target mask into the row of each rumor; in rows it inserts row by
    /// row. The same pairs and the same `len` as `insert_all` per target.
    pub(crate) fn record_sends(&mut self, rumors: &RumorSet, targets: &[ProcessId]) {
        let (Some(low), Some(high)) = (
            targets.iter().map(|t| t.index()).min(),
            targets.iter().map(|t| t.index()).max(),
        ) else {
            return;
        };
        let Some(last) = rumors.origins().last() else {
            return;
        };
        self.fit(|| (last.index().saturating_add(1), high / 64 + 1));
        let added: usize = match &mut self.form {
            Form::Rows(rows) => rumors
                .origins()
                .map(|origin| {
                    let row = row_mut(rows, origin.index());
                    targets
                        .iter()
                        .map(|t| usize::from(row.insert(t.index())))
                        .sum::<usize>()
                })
                .sum(),
            Form::Matrix { stride, words } => {
                // The targets as one mask over words `low / 64 ..= high / 64`.
                let span = low / 64..high / 64 + 1;
                let mut mask = vec![0u64; span.len()];
                for t in targets {
                    if let Some(word) = mask.get_mut(t.index() / 64 - span.start) {
                        *word |= 1 << (t.index() % 64);
                    }
                }
                rumors
                    .origins()
                    .filter_map(|origin| {
                        let row = matrix_row_mut(words, *stride, origin.index())?;
                        Some(or_into(row.get_mut(span.clone())?, &mask))
                    })
                    .sum()
            }
        };
        self.len += added;
        self.promote_if_matrix_fits();
    }

    /// True if the list records that `rumor_origin`'s rumor was sent to
    /// `target`.
    pub fn contains(&self, rumor_origin: ProcessId, target: ProcessId) -> bool {
        self.row(rumor_origin.index())
            .is_some_and(|row| row.contains(target.index()))
    }

    /// Merges another informed-list into this one. Returns the number of new
    /// pairs.
    pub fn union(&mut self, other: &InformedList) -> usize {
        self.fit(|| other.shape());
        let added = match (&mut self.form, &other.form) {
            (
                Form::Matrix { stride, words },
                Form::Matrix {
                    stride: theirs_stride,
                    words: theirs,
                },
            ) if stride == theirs_stride => or_into(words, theirs),
            (Form::Matrix { stride, words }, _) => other
                .rows()
                .filter_map(|(origin, row)| {
                    Some(row.or_into(matrix_row_mut(words, *stride, origin)?))
                })
                .sum(),
            (Form::Rows(rows), _) => other
                .rows()
                .filter(|(_, row)| !row.is_empty())
                .map(|(origin, row)| row.or_into_set(row_mut(rows, origin)))
                .sum(),
        };
        self.len += added;
        self.promote_if_matrix_fits();
        added
    }

    /// Merges a borrowed wire view (see [`crate::codec_view`]) into `self`,
    /// producing exactly the contents that decoding the view's frame and
    /// calling [`InformedList::union`] would — without materializing the
    /// sender's list. Dense rows are OR-ed straight into the matching target
    /// rows. Returns the number of new pairs.
    pub fn union_view(&mut self, view: &crate::codec_view::InformedListView<'_>) -> usize {
        use crate::codec_view::InformedViewRepr;
        let added = match view.repr() {
            InformedViewRepr::Sparse { .. } => view
                .iter()
                .map(|(origin, target)| usize::from(self.insert(origin, target)))
                .sum(),
            InformedViewRepr::Dense { .. } => {
                self.fit(|| {
                    view.rows()
                        .fold((0, 0), |(rows, stride), row| match le_span(row.words) {
                            0 => (rows, stride),
                            span => (row.origin.saturating_add(1).max(rows), stride.max(span)),
                        })
                });
                let added: usize = match &mut self.form {
                    Form::Rows(rows) => view
                        .rows()
                        .map(|row| row_mut(rows, row.origin).or_le_words(row.words))
                        .sum(),
                    Form::Matrix { stride, words } => view
                        .rows()
                        .filter_map(|row| {
                            Some(or_le_into(
                                matrix_row_mut(words, *stride, row.origin)?,
                                row.words,
                            ))
                        })
                        .sum(),
                };
                self.len += added;
                added
            }
        };
        self.promote_if_matrix_fits();
        added
    }

    /// True if `self` records every pair of the borrowed wire view — the
    /// same answer [`InformedList::is_superset_of`] gives for the decoded
    /// frame, with no allocation.
    pub fn is_superset_of_view(&self, view: &crate::codec_view::InformedListView<'_>) -> bool {
        use crate::codec_view::InformedViewRepr;
        match view.repr() {
            InformedViewRepr::Sparse { .. } => view
                .iter()
                .all(|(origin, target)| self.contains(origin, target)),
            InformedViewRepr::Dense { .. } => view.rows().all(|row| match self.row(row.origin) {
                Some(own) => own.is_superset_of_le_words(row.words),
                None => le_span(row.words) == 0,
            }),
        }
    }

    /// True if every pair of `other` is already recorded in `self`.
    pub fn is_superset_of(&self, other: &InformedList) -> bool {
        if other.len > self.len {
            return false;
        }
        if let (
            Form::Matrix { stride, words },
            Form::Matrix {
                stride: theirs_stride,
                words: theirs,
            },
        ) = (&self.form, &other.form)
        {
            if stride == theirs_stride {
                return words_superset(words, theirs);
            }
        }
        other.rows().all(|(origin, theirs)| match self.row(origin) {
            Some(own) => own.is_superset_of(theirs),
            None => theirs.is_empty(),
        })
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no pair is recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// AND-accumulates, over every rumor in `rumors`, the target rows into a
    /// "covered" bitmask of `⌈n/64⌉` words: bit `q` survives iff every rumor
    /// has been sent to `q`. An empty rumor set covers everything vacuously.
    fn covered_mask(&self, rumors: &RumorSet, n: usize) -> Vec<u64> {
        let word_count = n.div_ceil(64);
        let mut covered = vec![u64::MAX; word_count];
        if let (Some(last), false) = (covered.last_mut(), n.is_multiple_of(64)) {
            // Mask off the bits beyond the universe in the last word.
            *last = (1u64 << (n % 64)) - 1;
        }
        for origin in rumors.origins() {
            match self.row(origin.index()) {
                Some(row) => row.and_into(&mut covered),
                None => {
                    covered.fill(0);
                    break;
                }
            }
            if covered.iter().all(|&w| w == 0) {
                break;
            }
        }
        covered
    }

    /// Computes `L(p)` — the processes `q ∈ [n]` for which there exists a
    /// rumor `r ∈ rumors` with `(r, q)` not in the list (paper, Section 3.1).
    pub fn uncovered_targets(&self, rumors: &RumorSet, n: usize) -> Vec<ProcessId> {
        if rumors.is_empty() {
            return Vec::new();
        }
        let covered = self.covered_mask(rumors, n);
        ProcessId::all(n)
            .filter(|q| {
                covered
                    .get(q.index() / 64)
                    .is_some_and(|w| w & (1 << (q.index() % 64)) == 0)
            })
            .collect()
    }

    /// True if every process in `[n]` is covered for every rumor in `rumors`
    /// (i.e. `L(p) = ∅`).
    pub fn covers_all(&self, rumors: &RumorSet, n: usize) -> bool {
        if rumors.is_empty() || n == 0 {
            return true;
        }
        let covered = self.covered_mask(rumors, n);
        let full = n / 64;
        covered.iter().take(full).all(|&w| w == u64::MAX)
            && (n.is_multiple_of(64) || covered.get(full) == Some(&((1u64 << (n % 64)) - 1)))
    }

    /// The non-empty rows as `(origin, trimmed dense words)` — for the wire
    /// codec's dense section. A row's words are borrowed when it is a
    /// matrix row or already dense and materialized when it is sparse, so
    /// the bytes on the wire are identical whichever form the list and each
    /// row happen to be in.
    pub(crate) fn dense_rows(&self) -> Vec<(usize, Cow<'_, [u64]>)> {
        self.rows()
            .filter(|(_, row)| !row.is_empty())
            .map(|(origin, row)| (origin, row.to_words()))
            .collect()
    }

    /// Iterates over the pairs `(rumor origin, target)` in order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.rows().flat_map(|(origin, row)| {
            row.iter()
                .map(move |target| (ProcessId(origin), ProcessId(target)))
        })
    }
}

impl PartialEq for InformedList {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.is_superset_of(other)
    }
}

impl Eq for InformedList {}

impl fmt::Debug for InformedList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rumor::Rumor;

    fn rumors(origins: &[usize]) -> RumorSet {
        origins
            .iter()
            .map(|&o| Rumor::new(ProcessId(o), o as u64))
            .collect()
    }

    #[test]
    fn insert_and_contains() {
        let mut il = InformedList::new();
        assert!(il.is_empty());
        assert!(il.insert(ProcessId(0), ProcessId(1)));
        assert!(!il.insert(ProcessId(0), ProcessId(1)));
        assert!(il.contains(ProcessId(0), ProcessId(1)));
        assert!(!il.contains(ProcessId(1), ProcessId(0)));
        assert_eq!(il.len(), 1);
    }

    #[test]
    fn insert_all_covers_every_rumor_for_target() {
        let mut il = InformedList::new();
        let v = rumors(&[0, 1, 2]);
        il.insert_all(&v, ProcessId(3));
        assert_eq!(il.len(), 3);
        for o in 0..3 {
            assert!(il.contains(ProcessId(o), ProcessId(3)));
        }
    }

    #[test]
    fn union_merges_pairs() {
        let mut a = InformedList::new();
        a.insert(ProcessId(0), ProcessId(1));
        let mut b = InformedList::new();
        b.insert(ProcessId(0), ProcessId(1));
        b.insert(ProcessId(2), ProcessId(3));
        assert_eq!(a.union(&b), 1);
        assert_eq!(a.len(), 2);
        assert_eq!(a.union(&b), 0);
    }

    #[test]
    fn superset_and_equality_ignore_representation() {
        let mut a = InformedList::new();
        a.insert(ProcessId(5), ProcessId(70));
        a.insert(ProcessId(0), ProcessId(0));
        let mut b = InformedList::new();
        b.insert(ProcessId(0), ProcessId(0));
        b.insert(ProcessId(5), ProcessId(70));
        assert_eq!(a, b);
        assert!(a.is_superset_of(&b));
        // Promoting one side's rows must not disturb equality either way.
        b.force_dense();
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.insert(ProcessId(9), ProcessId(1));
        assert_ne!(a, b);
        assert!(b.is_superset_of(&a));
        assert!(!a.is_superset_of(&b));
    }

    #[test]
    fn uncovered_targets_matches_definition() {
        let n = 3;
        let v = rumors(&[0, 1]);
        let mut il = InformedList::new();
        // Cover everything for target 0 and 1 but only rumor 0 for target 2.
        il.insert_all(&v, ProcessId(0));
        il.insert_all(&v, ProcessId(1));
        il.insert(ProcessId(0), ProcessId(2));
        let uncovered = il.uncovered_targets(&v, n);
        assert_eq!(uncovered, vec![ProcessId(2)]);
        assert!(!il.covers_all(&v, n));
        il.insert(ProcessId(1), ProcessId(2));
        assert!(il.covers_all(&v, n));
        assert!(il.uncovered_targets(&v, n).is_empty());
    }

    #[test]
    fn empty_rumor_set_is_trivially_covered() {
        let il = InformedList::new();
        assert!(il.covers_all(&RumorSet::new(), 5));
        assert!(il.uncovered_targets(&RumorSet::new(), 5).is_empty());
    }

    #[test]
    fn unknown_rumor_row_uncovers_everything() {
        let n = 4;
        let mut il = InformedList::new();
        let v = rumors(&[0]);
        for q in ProcessId::all(n) {
            il.insert(ProcessId(0), q);
        }
        assert!(il.covers_all(&v, n));
        // A rumor with no row at all leaves every target uncovered.
        let v2 = rumors(&[0, 7]);
        assert!(!il.covers_all(&v2, n));
        assert_eq!(il.uncovered_targets(&v2, n).len(), n);
    }

    #[test]
    fn coverage_works_past_one_word_of_targets() {
        let n = 130;
        let v = rumors(&[1]);
        let mut il = InformedList::new();
        for q in ProcessId::all(n) {
            il.insert(ProcessId(1), q);
        }
        assert!(il.covers_all(&v, n));
        assert!(il.uncovered_targets(&v, n).is_empty());
        let mut partial = InformedList::new();
        for q in ProcessId::all(n) {
            if q.index() != 129 {
                partial.insert(ProcessId(1), q);
            }
        }
        assert!(!partial.covers_all(&v, n));
        assert_eq!(partial.uncovered_targets(&v, n), vec![ProcessId(129)]);
    }

    #[test]
    fn coverage_is_identical_across_row_representations() {
        // A sparse row and its force-promoted twin answer the coverage
        // queries identically (five ids against four words: still sparse).
        let n = 200;
        let v = rumors(&[3]);
        let targets = [0usize, 64, 65, 130, 199];
        let mut sparse = InformedList::new();
        for &t in &targets {
            sparse.insert(ProcessId(3), ProcessId(t));
        }
        let mut dense = sparse.clone();
        dense.force_dense();
        assert_eq!(
            sparse.uncovered_targets(&v, n),
            dense.uncovered_targets(&v, n)
        );
        assert_eq!(sparse.covers_all(&v, n), dense.covers_all(&v, n));
        assert!(matches!(&sparse.form, Form::Rows(rows) if !rows[3].is_dense()));
    }

    #[test]
    fn new_rumor_uncovers_targets_again() {
        let n = 2;
        let mut v = rumors(&[0]);
        let mut il = InformedList::new();
        il.insert_all(&v, ProcessId(0));
        il.insert_all(&v, ProcessId(1));
        assert!(il.covers_all(&v, n));
        // Learning a new rumor re-opens L(p).
        v.insert(Rumor::new(ProcessId(1), 1));
        assert!(!il.covers_all(&v, n));
        assert_eq!(il.uncovered_targets(&v, n).len(), 2);
    }

    #[test]
    fn iter_yields_sorted_pairs() {
        let mut il = InformedList::new();
        il.insert(ProcessId(2), ProcessId(0));
        il.insert(ProcessId(0), ProcessId(1));
        let pairs: Vec<_> = il.iter().collect();
        assert_eq!(
            pairs,
            vec![(ProcessId(0), ProcessId(1)), (ProcessId(2), ProcessId(0))]
        );
    }

    /// Every rumor of `0..n` sent to every target of `0..n`, one step per
    /// target.
    fn flooded(n: usize) -> InformedList {
        let v = rumors(&(0..n).collect::<Vec<_>>());
        let mut il = InformedList::new();
        for q in ProcessId::all(n) {
            il.insert_all(&v, ProcessId(q.index()));
        }
        il
    }

    /// The same pairs inserted one at a time: single inserts never switch
    /// forms, so this twin stays in rows.
    fn rows_twin(il: &InformedList) -> InformedList {
        let mut twin = InformedList::new();
        for (o, t) in il.iter() {
            twin.insert(o, t);
        }
        assert!(!twin.is_matrix());
        twin
    }

    fn assert_same_observables(a: &InformedList, b: &InformedList, n: usize) {
        assert_eq!(a.len(), b.len());
        assert!(a.iter().eq(b.iter()), "pair iteration order");
        assert_eq!(a.dense_rows(), b.dense_rows(), "wire rows");
        assert_eq!(a, b);
        assert_eq!(b, a);
        for probe in [vec![0], vec![1, 5], (0..n + 2).collect::<Vec<_>>()] {
            let v = rumors(&probe);
            assert_eq!(a.uncovered_targets(&v, n), b.uncovered_targets(&v, n));
            assert_eq!(a.covers_all(&v, n), b.covers_all(&v, n));
        }
    }

    #[test]
    fn full_coverage_at_n48_reaches_the_matrix() {
        let n = 48;
        let v = rumors(&(0..n).collect::<Vec<_>>());
        let mut il = InformedList::new();
        il.insert_all(&v, ProcessId(0));
        assert!(!il.is_matrix(), "one target per row: every row is sparse");
        il.insert_all(&v, ProcessId(1));
        assert!(il.is_matrix(), "48 dense one-word rows: one 48-word matrix");
        for q in 2..n {
            il.insert_all(&v, ProcessId(q));
        }
        assert!(il.is_matrix());
        assert_eq!(il.len(), n * n);
        assert!(il.covers_all(&v, n));
        assert_same_observables(&il, &rows_twin(&il), n);
        // A copy-on-write clone of the matrix is one word vector.
        let Form::Matrix { stride, words } = &il.form else {
            unreachable!()
        };
        assert_eq!((*stride, words.len()), (1, n));
    }

    #[test]
    fn a_far_pair_leaves_the_matrix() {
        let n = 48;
        let far = usize::try_from(crate::codec::MAX_WIRE_ID).unwrap() - 1;
        let full = flooded(n);
        assert!(full.is_matrix());

        // A far target: a `48 × 2^14`-word matrix is far past the budget.
        let mut wide = full.clone();
        assert!(wide.insert(ProcessId(3), ProcessId(far)));
        assert!(!wide.is_matrix());
        assert_eq!(wide.len(), n * n + 1);
        let mut twin = rows_twin(&full);
        twin.insert(ProcessId(3), ProcessId(far));
        assert_same_observables(&wide, &twin, n);

        // The far pair `(2^20 − 1, 2^20 − 1)`: rows, never a matrix sized by
        // max origin × max target. (Its 2^20-row vector is too slow to build
        // under Miri; the far target above takes the same path back.)
        if cfg!(miri) {
            return;
        }
        let mut far_pair = full.clone();
        assert!(far_pair.insert(ProcessId(far), ProcessId(far)));
        assert!(!far_pair.is_matrix());
        assert!(far_pair.contains(ProcessId(far), ProcessId(far)));
        assert!(far_pair.contains(ProcessId(47), ProcessId(47)));
        assert_eq!(far_pair.len(), n * n + 1);
        assert!(far_pair.is_superset_of(&full));
        assert!(!full.is_superset_of(&far_pair));
    }

    #[test]
    fn a_matrix_grows_within_its_budget() {
        let n = 48;
        let mut il = flooded(n);
        // One more origin and a second word of targets: 51 × 2 words is
        // well inside 48 + 2·(2 304 + 64).
        assert!(il.insert(ProcessId(50), ProcessId(100)));
        assert!(il.is_matrix());
        let Form::Matrix { stride, words } = &il.form else {
            unreachable!()
        };
        assert_eq!((*stride, words.len()), (2, 51 * 2));
        assert!(il.contains(ProcessId(50), ProcessId(100)));
        assert!(!il.contains(ProcessId(49), ProcessId(100)));
        assert!(il.contains(ProcessId(47), ProcessId(47)));
        assert_same_observables(&il, &rows_twin(&il), 128);
    }

    #[test]
    fn unions_between_forms_match_rows() {
        let n = 70;
        let matrix = flooded(n);
        assert!(matrix.is_matrix());
        let mut partial = InformedList::new();
        for (o, t) in [(0, 1), (3, 69), (69, 0), (75, 2), (5, 200)] {
            partial.insert(ProcessId(o), ProcessId(t));
        }
        for (a, b) in [(&matrix, &partial), (&partial, &matrix)] {
            let mut got = a.clone();
            let mut want = rows_twin(a);
            assert_eq!(got.is_superset_of(b), want.is_superset_of(&rows_twin(b)));
            assert_eq!(got.union(b), want.union(&rows_twin(b)));
            assert_same_observables(&got, &want, n);
            assert!(got.is_superset_of(a) && got.is_superset_of(b));
        }
        // Matrix ∪ matrix of another stride.
        let mut narrow = flooded(10);
        assert!(narrow.is_matrix());
        narrow.insert(ProcessId(0), ProcessId(0));
        let mut got = matrix.clone();
        assert_eq!(got.union(&narrow), 0);
        assert!(matrix.is_superset_of(&narrow));
        assert!(!narrow.is_superset_of(&matrix));
        let mut grown = narrow.clone();
        assert_eq!(grown.union(&matrix), n * n - 100);
        assert_same_observables(&grown, &matrix, n);
        got.insert(ProcessId(80), ProcessId(80));
        assert!(got.is_superset_of(&matrix));
        // Matrix ∪ matrix of one stride: one pass over the words.
        let mut same = flooded(66);
        assert!(same.is_matrix() && matrix.is_superset_of(&same));
        assert!(!same.is_superset_of(&matrix));
        assert_eq!(same.union(&matrix), n * n - 66 * 66);
        assert_same_observables(&same, &matrix, n);
        // Neither of two equal-stride matrices holds the other, whatever
        // their lengths: the test reaches the last row.
        let (mut a, mut b) = (flooded(66), flooded(66));
        a.insert(ProcessId(0), ProcessId(66));
        a.insert(ProcessId(0), ProcessId(67));
        b.insert(ProcessId(65), ProcessId(66));
        assert!(a.is_matrix() && b.is_matrix());
        assert!(!a.is_superset_of(&b) && !b.is_superset_of(&a));
    }

    #[test]
    fn record_sends_on_the_matrix_masks_a_word_range() {
        let n = 200;
        let mut il = flooded(70);
        assert!(il.is_matrix());
        let mut twin = rows_twin(&il);
        let v = rumors(&[1, 7, 69, 120]);
        let targets = [ProcessId(130), ProcessId(3), ProcessId(199), ProcessId(130)];
        il.record_sends(&v, &targets);
        for &t in &targets {
            twin.insert_all(&v, t);
        }
        assert!(il.is_matrix());
        assert_same_observables(&il, &twin, n);
    }

    fn list_of(pairs: &[(usize, usize)]) -> InformedList {
        let mut il = InformedList::new();
        for &(o, t) in pairs {
            il.insert(ProcessId(o), ProcessId(t));
        }
        il
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// One step's batched record equals `insert_all` target by target:
        /// the same pairs, the same `len`, from rows or from the matrix.
        #[test]
        fn record_sends_equals_repeated_insert_all(
            pairs in proptest::collection::vec((0..80usize, 0..140usize), 0..40),
            flood in proptest::prelude::any::<bool>(),
            origins in proptest::collection::vec(0..80usize, 0..12),
            targets in proptest::collection::vec(0..140usize, 0..12),
        ) {
            let mut batched = if flood { flooded(64) } else { InformedList::new() };
            batched.union(&list_of(&pairs));
            let mut looped = batched.clone();
            let v = rumors(&origins);
            let targets: Vec<ProcessId> = targets.into_iter().map(ProcessId).collect();
            batched.record_sends(&v, &targets);
            for &t in &targets {
                looped.insert_all(&v, t);
            }
            proptest::prop_assert_eq!(batched.len(), looped.len());
            proptest::prop_assert!(batched.iter().eq(looped.iter()));
            proptest::prop_assert_eq!(batched.dense_rows(), looped.dense_rows());
        }
    }
}
