//! The informed-list `I(p)` of the `ears` protocol.
//!
//! `I(p)` is a set of pairs `⟨r, q⟩` meaning "process `p` knows that rumor
//! `r` has been sent to process `q` by some process" (paper, Section 3.1).
//! From `V(p)` and `I(p)` the process derives `L(p)`, the set of processes it
//! cannot ascertain have been sent every rumor in `V(p)`; the protocol keeps
//! gossiping while `L(p)` is non-empty.

use std::borrow::Cow;
use std::fmt;

use agossip_sim::ProcessId;

use crate::bits::AdaptiveSet;
use crate::rumor::RumorSet;

/// The set of `⟨rumor origin, target⟩` pairs a process knows about.
///
/// Rumors are identified by their origin (each origin has exactly one rumor),
/// so a pair `(r, q)` is stored as `(r.origin, q)` — a point in the fixed
/// `n × n` universe. The storage is one target set per origin row, and each
/// row is *adaptive* (see `crate::bits::AdaptiveSet`): a sorted sparse id
/// list while that is smaller than the bitmap reaching its largest target —
/// so an early-phase process at `n = 65 536` holds a few dozen ids per known
/// rumor instead of `Θ(n)` bitmap words — promoting per-row to the
/// word-packed form as soon as 4 bytes per id add up to 8 bytes per word
/// (at `n ≤ 64`, from the second target on), where `contains` is a bit test, [`InformedList::union`] is a row-by-row
/// word-wise OR, and the coverage queries that `ears`/`sears` evaluate every
/// local step reduce to AND-ing the rows of the known rumors. Iteration
/// yields pairs in ascending `(origin, target)` order in either
/// representation, exactly as the historical
/// `BTreeSet<(ProcessId, ProcessId)>` did.
#[derive(Clone, Default)]
pub struct InformedList {
    /// `rows[origin]` is the set of targets covered for that origin's rumor.
    rows: Vec<AdaptiveSet>,
    len: usize,
}

impl InformedList {
    /// Creates an empty informed-list.
    pub fn new() -> Self {
        Self::default()
    }

    fn row_mut(&mut self, origin: usize) -> &mut AdaptiveSet {
        if self.rows.len() <= origin {
            self.rows.resize_with(origin + 1, AdaptiveSet::new);
        }
        &mut self.rows[origin]
    }

    /// Forces every row into the dense representation. A hook for the
    /// representation-differential tests; never needed in protocol code.
    #[doc(hidden)]
    pub fn force_dense(&mut self) {
        for row in &mut self.rows {
            row.promote();
        }
    }

    /// Records that the rumor originating at `rumor_origin` has been sent to
    /// `target`. Returns true if the pair is new.
    pub fn insert(&mut self, rumor_origin: ProcessId, target: ProcessId) -> bool {
        let fresh = self.row_mut(rumor_origin.index()).insert(target.index());
        self.len += fresh as usize;
        fresh
    }

    /// Records that every rumor in `rumors` has been sent to `target`.
    pub fn insert_all(&mut self, rumors: &RumorSet, target: ProcessId) {
        for origin in rumors.origins() {
            self.insert(origin, target);
        }
    }

    /// True if the list records that `rumor_origin`'s rumor was sent to
    /// `target`.
    pub fn contains(&self, rumor_origin: ProcessId, target: ProcessId) -> bool {
        self.rows
            .get(rumor_origin.index())
            .is_some_and(|row| row.contains(target.index()))
    }

    /// Merges another informed-list into this one. Returns the number of new
    /// pairs.
    pub fn union(&mut self, other: &InformedList) -> usize {
        let mut added = 0usize;
        for (origin, row) in other.rows.iter().enumerate() {
            if row.is_empty() {
                continue;
            }
            added += self.row_mut(origin).union(row);
        }
        self.len += added;
        added
    }

    /// Merges a borrowed wire view (see [`crate::codec_view`]) into `self`,
    /// producing exactly the contents that decoding the view's frame and
    /// calling [`InformedList::union`] would — without materializing the
    /// sender's list. Dense rows are OR-ed straight into the matching target
    /// rows. Returns the number of new pairs.
    pub fn union_view(&mut self, view: &crate::codec_view::InformedListView<'_>) -> usize {
        use crate::codec_view::InformedViewRepr;
        match view.repr() {
            InformedViewRepr::Sparse { .. } => {
                let mut added = 0usize;
                for (origin, target) in view.iter() {
                    added += self.insert(origin, target) as usize;
                }
                added
            }
            InformedViewRepr::Dense { .. } => {
                let mut added = 0usize;
                for row in view.rows() {
                    added += self.row_mut(row.origin).or_le_words(row.words);
                }
                self.len += added;
                added
            }
        }
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
            InformedViewRepr::Dense { .. } => {
                view.rows().all(|row| match self.rows.get(row.origin) {
                    Some(own) => own.is_superset_of_le_words(row.words),
                    None => row.words.iter().all(|&b| b == 0),
                })
            }
        }
    }

    /// True if every pair of `other` is already recorded in `self`.
    pub fn is_superset_of(&self, other: &InformedList) -> bool {
        other
            .rows
            .iter()
            .enumerate()
            .all(|(origin, row)| match self.rows.get(origin) {
                Some(own) => own.is_superset_of(row),
                None => row.is_empty(),
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
        if !n.is_multiple_of(64) {
            // Mask off the bits beyond the universe in the last word.
            covered[word_count - 1] = (1u64 << (n % 64)) - 1;
        }
        for origin in rumors.origins() {
            match self.rows.get(origin.index()) {
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
            .filter(|q| covered[q.index() / 64] & (1 << (q.index() % 64)) == 0)
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
        covered[..full].iter().all(|&w| w == u64::MAX)
            && (n.is_multiple_of(64) || covered[full] == (1u64 << (n % 64)) - 1)
    }

    /// The non-empty rows as `(origin, trimmed dense words)` — for the wire
    /// codec's dense section. A row's words are borrowed when it is already
    /// dense and materialized when it is sparse, so the bytes on the wire
    /// are identical whichever representation each row happens to be in.
    pub(crate) fn dense_rows(&self) -> Vec<(usize, Cow<'_, [u64]>)> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| !row.is_empty())
            .map(|(origin, row)| (origin, row.to_words()))
            .collect()
    }

    /// Iterates over the pairs `(rumor origin, target)` in order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.rows.iter().enumerate().flat_map(|(origin, row)| {
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
        assert!(!sparse.rows[3].is_dense());
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
}
