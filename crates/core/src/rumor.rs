//! Rumors and rumor collections.

use std::borrow::Cow;
use std::fmt;

use agossip_sim::ProcessId;

use crate::bits::{merge_sorted, outgrows_sparse, trimmed, WordSet, WordSetIter};

/// A rumor: the unit of information spread by gossip.
///
/// In the paper a rumor `r_p` is an opaque value known initially only to its
/// originating process `p`. We carry a 64-bit payload alongside the origin so
/// that higher layers (notably the consensus protocols of Section 6, where
/// rumors are votes) can transport application data through any gossip
/// protocol unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rumor {
    /// The process at which the rumor initiated.
    pub origin: ProcessId,
    /// Application payload (for plain gossip experiments this is an arbitrary
    /// tag; for consensus it encodes a vote).
    pub payload: u64,
}

impl Rumor {
    /// Creates a rumor originating at `origin` with the given payload.
    pub fn new(origin: ProcessId, payload: u64) -> Self {
        Rumor { origin, payload }
    }
}

impl fmt::Display for Rumor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r({}, {})", self.origin, self.payload)
    }
}

/// A collection of rumors, at most one per origin.
///
/// The paper's sets `V(p)` never contain two distinct rumors from the same
/// origin (each process has exactly one initial rumor), so the collection is
/// keyed by origin over the fixed universe `0..n`. The representation is
/// *adaptive* (see the `bits` module): a set starts as a sorted sparse
/// `(origin, payload)` entry list — 16 bytes per rumor, independent of `n`,
/// so a fresh process at `n = 65 536` holds its singleton in one small
/// allocation instead of a `Θ(n)` payload array — and promotes, as soon as
/// that would be no larger, to the dense form: a word-packed presence
/// bitset plus payloads. Dense payloads are *identity-compressed*: the
/// gossip experiments tag every rumor with its origin index
/// (`payload == origin`), and as long as that holds no payload array is
/// materialized at all — only consensus, whose payloads are votes, pays for
/// an explicit array. The promotion rule counts exactly those bytes: 16 per
/// sparse entry against 8 per presence word up to the largest origin held,
/// plus 512 per word once a payload differs from its origin — so at
/// `n ≤ 128` a gossip set is two machine words from its first rumor, while
/// a consensus set of votes stays an entry list until it is just over
/// half full.
///
/// Both representations expose identical semantics: [`RumorSet::union`]
/// deltas, membership, and iteration in ascending origin order — the same
/// order the historical `BTreeMap<ProcessId, u64>` representation produced,
/// so every metric downstream is bit-identical (pinned by
/// `tests/tests/seed_equivalence.rs` and the representation-differential
/// proptests in `tests/tests/rumor_differential.rs` /
/// `tests/tests/adaptive_differential.rs`).
///
/// Insertion keeps the first payload seen for an origin; in a correct
/// execution there is only ever one.
#[derive(Clone)]
pub struct RumorSet {
    repr: Repr,
    len: usize,
}

#[derive(Clone)]
enum Repr {
    Sparse {
        /// Sorted by origin, no duplicate origins.
        entries: Vec<(u32, u64)>,
        /// True while every entry's payload equals its origin — what
        /// decides the dense form's size. Kept current on insert and merge,
        /// never recomputed by a scan.
        identity: bool,
    },
    /// Word-packed presence plus payloads.
    Dense {
        present: WordSet,
        payloads: Payloads,
    },
}

/// Dense payload storage.
#[derive(Clone)]
enum Payloads {
    /// Every present origin's payload equals its own index — the invariant
    /// all plain gossip runs maintain — so no storage is needed.
    Identity,
    /// `v[origin]` is meaningful iff the presence bit for `origin` is set;
    /// kept at `64 ×` the presence word count.
    Explicit(Vec<u64>),
}

impl Payloads {
    fn get(&self, index: usize) -> u64 {
        match self {
            Payloads::Identity => index as u64,
            Payloads::Explicit(v) => v[index],
        }
    }

    /// Records `payload` for `index`; `slots` is the presence capacity in
    /// bits (≥ `index + 1`). Stays [`Payloads::Identity`] when the payload
    /// already matches the index.
    fn set(&mut self, index: usize, payload: u64, slots: usize) {
        match self {
            Payloads::Identity if payload == index as u64 => {}
            Payloads::Identity => {
                let mut v: Vec<u64> = (0..slots as u64).collect();
                v[index] = payload;
                *self = Payloads::Explicit(v);
            }
            Payloads::Explicit(v) => {
                if v.len() < slots {
                    v.extend(v.len() as u64..slots as u64);
                }
                v[index] = payload;
            }
        }
    }
}

impl Default for RumorSet {
    fn default() -> Self {
        RumorSet {
            repr: Repr::Sparse {
                entries: Vec::new(),
                identity: true,
            },
            len: 0,
        }
    }
}

impl RumorSet {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a collection containing a single rumor.
    pub fn singleton(rumor: Rumor) -> Self {
        let mut set = Self::new();
        set.insert(rumor);
        set
    }

    /// Switches to the dense representation (no-op if already dense).
    fn promote(&mut self) {
        if let Repr::Sparse { entries, identity } = &mut self.repr {
            let entries = std::mem::take(entries);
            let mut present = WordSet::new();
            if let Some(&(max, _)) = entries.last() {
                present.ensure_words(max as usize / 64 + 1);
            }
            for &(o, _) in &entries {
                present.insert(o as usize);
            }
            let payloads = if *identity {
                Payloads::Identity
            } else {
                let slots = present.words().len() * 64;
                let mut v: Vec<u64> = (0..slots as u64).collect();
                for &(o, p) in &entries {
                    v[o as usize] = p;
                }
                Payloads::Explicit(v)
            };
            self.repr = Repr::Dense { present, payloads };
        }
    }

    /// Promotes a sparse set whose dense form — presence words up to the
    /// largest origin, plus the explicit payload array unless every payload
    /// is its origin — would be no larger than the entry list.
    fn promote_if_outgrown(&mut self) {
        if let Repr::Sparse { entries, identity } = &self.repr {
            let payload_bytes = if *identity { 0 } else { 64 * size_of::<u64>() };
            let outgrown = entries.last().is_some_and(|&(max, _)| {
                outgrows_sparse(
                    entries.len(),
                    size_of::<(u32, u64)>(),
                    max as usize,
                    size_of::<u64>() + payload_bytes,
                )
            });
            if outgrown {
                self.promote();
            }
        }
    }

    /// Forces the dense representation regardless of density. A hook
    /// for the representation-differential tests and benches; never needed
    /// in protocol code.
    #[doc(hidden)]
    pub fn force_dense(&mut self) {
        self.promote();
    }

    /// True if the set is currently in the dense representation (test
    /// hook).
    #[doc(hidden)]
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense { .. })
    }

    /// Inserts a rumor. Returns `true` if the origin was not present before.
    pub fn insert(&mut self, rumor: Rumor) -> bool {
        let index = rumor.origin.index();
        match &mut self.repr {
            Repr::Sparse { entries, identity } => {
                let Ok(id) = u32::try_from(index) else {
                    // Beyond the sparse id range: fall through to dense,
                    // which handles any index (as the historical
                    // representation did).
                    self.promote();
                    return self.insert(rumor);
                };
                match entries.binary_search_by_key(&id, |&(o, _)| o) {
                    Ok(_) => false,
                    Err(pos) => {
                        entries.insert(pos, (id, rumor.payload));
                        *identity &= rumor.payload == u64::from(id);
                        self.len += 1;
                        self.promote_if_outgrown();
                        true
                    }
                }
            }
            Repr::Dense { present, payloads } => {
                if !present.insert(index) {
                    return false;
                }
                payloads.set(index, rumor.payload, present.words().len() * 64);
                self.len += 1;
                true
            }
        }
    }

    /// Merges every rumor of `other` into `self`. Returns the number of new
    /// origins added.
    pub fn union(&mut self, other: &RumorSet) -> usize {
        if matches!(&self.repr, Repr::Sparse { .. }) && matches!(&other.repr, Repr::Dense { .. }) {
            // The other side has already outgrown the sparse form; so will
            // the union.
            self.promote();
        }
        let added = match (&mut self.repr, &other.repr) {
            (
                Repr::Sparse { entries, identity },
                Repr::Sparse {
                    entries: theirs, ..
                },
            ) => merge_sorted(
                entries,
                theirs,
                |&(o, _)| o,
                |&(o, p)| *identity &= p == u64::from(o),
            ),
            (
                Repr::Dense { present, payloads },
                Repr::Sparse {
                    entries: theirs, ..
                },
            ) => {
                let mut added = 0usize;
                for &(o, p) in theirs {
                    let index = o as usize;
                    if present.insert(index) {
                        payloads.set(index, p, present.words().len() * 64);
                        added += 1;
                    }
                }
                added
            }
            (
                Repr::Dense { present, payloads },
                Repr::Dense {
                    present: other_present,
                    payloads: other_payloads,
                },
            ) => {
                if let (Payloads::Identity, Payloads::Identity) = (&*payloads, other_payloads) {
                    // The gossip hot path: membership OR, no payload work.
                    present.union(other_present)
                } else {
                    let mut added = 0usize;
                    for (w, &word) in other_present.words().iter().enumerate() {
                        let mut fresh = present.or_word(w, word);
                        if fresh == 0 {
                            continue;
                        }
                        added += fresh.count_ones() as usize;
                        let slots = present.words().len() * 64;
                        while fresh != 0 {
                            let index = w * 64 + fresh.trailing_zeros() as usize;
                            payloads.set(index, other_payloads.get(index), slots);
                            fresh &= fresh - 1;
                        }
                    }
                    added
                }
            }
            (Repr::Sparse { .. }, Repr::Dense { .. }) => unreachable!("promoted above"),
        };
        self.len += added;
        self.promote_if_outgrown();
        added
    }

    /// Merges a borrowed wire view (see [`crate::codec_view`]) into `self`,
    /// producing exactly the contents that decoding the view's frame and
    /// calling [`RumorSet::union`] would — without materializing the
    /// sender's set. A dense view's word region is OR-ed straight into the
    /// presence bitmap; with identity payloads on both sides no payload
    /// work happens at all, and otherwise only the payloads of origins new
    /// to `self` are decoded — the rest are skipped a word of varints at a
    /// time, which is sound because every view reaching here passed
    /// `decode_view` (or rides a verdict of one that did), so its varints
    /// are well formed. Returns the number of new origins.
    pub fn union_view(&mut self, view: &crate::codec_view::RumorSetView<'_>) -> usize {
        use crate::codec_view::RumorViewRepr;
        match view.repr() {
            RumorViewRepr::Sparse { .. } => {
                let mut added = 0usize;
                for rumor in view.iter() {
                    added += self.insert(rumor) as usize;
                }
                added
            }
            RumorViewRepr::Dense { words, payloads } => {
                // The view outgrew the sparse wire form; so will the union.
                self.promote();
                let Repr::Dense {
                    present,
                    payloads: own,
                } = &mut self.repr
                else {
                    return 0;
                };
                let added = if matches!(own, Payloads::Identity) && view.identity() {
                    // The gossip hot path: membership OR, no payload work.
                    present.or_le_words(words)
                } else {
                    // Payload varints follow the set bits in order. Only a
                    // fresh origin's is decoded: the `held` payloads of
                    // origins `self` already has are skipped in one run
                    // before the next fresh one.
                    let mut added = 0usize;
                    let mut cursor: &[u8] = payloads;
                    let mut held = 0u64;
                    for (w, chunk) in words.chunks_exact(8).enumerate() {
                        let Some(arr) = chunk.first_chunk::<8>() else {
                            break;
                        };
                        let word = u64::from_le_bytes(*arr);
                        let mut fresh = present.or_word(w, word);
                        let mut stale = word & !fresh;
                        added += fresh.count_ones() as usize;
                        while fresh != 0 {
                            let low = fresh & fresh.wrapping_neg();
                            let index = w * 64 + low.trailing_zeros() as usize;
                            fresh ^= low;
                            let before = stale & (low - 1);
                            stale ^= before;
                            held += u64::from(before.count_ones());
                            cursor = crate::codec::skip_varints(cursor, held);
                            held = 0;
                            let Ok((payload, used)) = crate::codec::read_varint(cursor) else {
                                break;
                            };
                            cursor = cursor.get(used..).unwrap_or(&[]);
                            own.set(index, payload, present.words().len() * 64);
                        }
                        held += u64::from(stale.count_ones());
                    }
                    added
                };
                self.len += added;
                added
            }
        }
    }

    /// True if `self` contains every rumor of the borrowed wire view — the
    /// same answer [`RumorSet::is_superset_of`] gives for the decoded frame,
    /// with no allocation.
    pub fn is_superset_of_view(&self, view: &crate::codec_view::RumorSetView<'_>) -> bool {
        use crate::codec_view::RumorViewRepr;
        match view.repr() {
            RumorViewRepr::Sparse { .. } => {
                view.len() <= self.len && view.iter().all(|r| self.contains_origin(r.origin))
            }
            RumorViewRepr::Dense { words, .. } => match &self.repr {
                Repr::Dense { present, .. } => {
                    let own = present.words();
                    words.chunks_exact(8).enumerate().all(|(w, chunk)| {
                        let word = chunk
                            .first_chunk::<8>()
                            .map(|arr| u64::from_le_bytes(*arr))
                            .unwrap_or(0);
                        word & !own.get(w).copied().unwrap_or(0) == 0
                    })
                }
                Repr::Sparse { .. } => {
                    view.len() <= self.len && view.iter().all(|r| self.contains_origin(r.origin))
                }
            },
        }
    }

    /// True if a rumor originating at `origin` is present.
    pub fn contains_origin(&self, origin: ProcessId) -> bool {
        match &self.repr {
            Repr::Sparse { entries, .. } => u32::try_from(origin.index())
                .is_ok_and(|id| entries.binary_search_by_key(&id, |&(o, _)| o).is_ok()),
            Repr::Dense { present, .. } => present.contains(origin.index()),
        }
    }

    /// Returns the rumor originating at `origin`, if present.
    pub fn get(&self, origin: ProcessId) -> Option<Rumor> {
        match &self.repr {
            Repr::Sparse { entries, .. } => {
                let id = u32::try_from(origin.index()).ok()?;
                entries
                    .binary_search_by_key(&id, |&(o, _)| o)
                    .ok()
                    .map(|pos| Rumor {
                        origin,
                        payload: entries[pos].1,
                    })
            }
            Repr::Dense { present, payloads } => present.contains(origin.index()).then(|| Rumor {
                origin,
                payload: payloads.get(origin.index()),
            }),
        }
    }

    /// Number of distinct rumors held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no rumor is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the rumors in origin order.
    pub fn iter(&self) -> impl Iterator<Item = Rumor> + '_ {
        match &self.repr {
            Repr::Sparse { entries, .. } => RumorIter::Sparse(entries.iter()),
            Repr::Dense { present, payloads } => RumorIter::Dense {
                bits: present.iter(),
                payloads,
            },
        }
    }

    /// Iterates over the origins in order.
    pub fn origins(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.iter().map(|r| r.origin)
    }

    /// True if `self` contains every rumor of `other`.
    pub fn is_superset_of(&self, other: &RumorSet) -> bool {
        match (&self.repr, &other.repr) {
            (
                _,
                Repr::Sparse {
                    entries: theirs, ..
                },
            ) => theirs
                .iter()
                .all(|&(o, _)| self.contains_origin(ProcessId(o as usize))),
            (
                Repr::Dense { present, .. },
                Repr::Dense {
                    present: other_present,
                    ..
                },
            ) => present.is_superset_of(other_present),
            (
                Repr::Sparse { .. },
                Repr::Dense {
                    present: other_present,
                    ..
                },
            ) => {
                other.len <= self.len
                    && other_present
                        .iter()
                        .all(|i| self.contains_origin(ProcessId(i)))
            }
        }
    }

    /// A dense set's presence words (low word first, untrimmed) and whether
    /// every payload is its origin; `None` while the set is sparse. For
    /// word-wise scans that must not materialize a sparse set.
    pub(crate) fn dense_presence(&self) -> Option<(&[u64], bool)> {
        match &self.repr {
            Repr::Sparse { .. } => None,
            Repr::Dense { present, payloads } => {
                Some((present.words(), matches!(payloads, Payloads::Identity)))
            }
        }
    }

    /// The presence bitmap as trimmed dense words (low word first) — for the
    /// wire codec's dense section. Borrowed when the set is already dense,
    /// materialized when sparse, so the bytes on the wire are identical
    /// whichever representation the set happens to be in.
    pub(crate) fn dense_words(&self) -> Cow<'_, [u64]> {
        match &self.repr {
            Repr::Sparse { entries, .. } => {
                let Some(&(max, _)) = entries.last() else {
                    return Cow::Owned(Vec::new());
                };
                let mut words = vec![0u64; max as usize / 64 + 1];
                for &(o, _) in entries {
                    words[o as usize / 64] |= 1 << (o % 64);
                }
                Cow::Owned(words)
            }
            Repr::Dense { present, .. } => Cow::Borrowed(trimmed(present.words())),
        }
    }
}

enum RumorIter<'a> {
    Sparse(std::slice::Iter<'a, (u32, u64)>),
    Dense {
        bits: WordSetIter<'a>,
        payloads: &'a Payloads,
    },
}

impl Iterator for RumorIter<'_> {
    type Item = Rumor;

    fn next(&mut self) -> Option<Rumor> {
        match self {
            RumorIter::Sparse(entries) => entries
                .next()
                .map(|&(o, p)| Rumor::new(ProcessId(o as usize), p)),
            RumorIter::Dense { bits, payloads } => bits
                .next()
                .map(|index| Rumor::new(ProcessId(index), payloads.get(index))),
        }
    }
}

impl PartialEq for RumorSet {
    fn eq(&self, other: &Self) -> bool {
        // Representation- and capacity-insensitive: two sets holding the
        // same rumors are equal no matter which form each is in or how much
        // backing storage each has grown.
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for RumorSet {}

impl fmt::Debug for RumorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|r| (r.origin, r.payload)))
            .finish()
    }
}

impl FromIterator<Rumor> for RumorSet {
    fn from_iter<T: IntoIterator<Item = Rumor>>(iter: T) -> Self {
        let mut set = RumorSet::new();
        for r in iter {
            set.insert(r);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::ADAPTIVE_SPARSE_LIMIT;

    fn r(origin: usize, payload: u64) -> Rumor {
        Rumor::new(ProcessId(origin), payload)
    }

    #[test]
    fn insert_and_lookup() {
        let mut set = RumorSet::new();
        assert!(set.is_empty());
        assert!(set.insert(r(1, 10)));
        assert!(!set.insert(r(1, 99)), "second rumor per origin is ignored");
        assert_eq!(set.len(), 1);
        assert!(set.contains_origin(ProcessId(1)));
        assert_eq!(set.get(ProcessId(1)), Some(r(1, 10)));
        assert_eq!(set.get(ProcessId(2)), None);
    }

    #[test]
    fn union_counts_new_origins() {
        let mut a: RumorSet = [r(0, 0), r(1, 1)].into_iter().collect();
        let b: RumorSet = [r(1, 1), r(2, 2), r(3, 3)].into_iter().collect();
        let added = a.union(&b);
        assert_eq!(added, 2);
        assert_eq!(a.len(), 4);
        assert!(a.is_superset_of(&b));
    }

    #[test]
    fn union_is_idempotent() {
        let mut a: RumorSet = [r(0, 0)].into_iter().collect();
        let b: RumorSet = [r(0, 0), r(1, 1)].into_iter().collect();
        a.union(&b);
        let len = a.len();
        assert_eq!(a.union(&b), 0);
        assert_eq!(a.len(), len);
    }

    #[test]
    fn union_keeps_first_payload_per_origin() {
        let mut a: RumorSet = [r(0, 7)].into_iter().collect();
        let b: RumorSet = [r(0, 99), r(1, 1)].into_iter().collect();
        assert_eq!(a.union(&b), 1);
        assert_eq!(a.get(ProcessId(0)), Some(r(0, 7)));
        assert_eq!(a.get(ProcessId(1)), Some(r(1, 1)));
    }

    #[test]
    fn iteration_is_origin_ordered() {
        let set: RumorSet = [r(3, 3), r(1, 1), r(2, 2)].into_iter().collect();
        let origins: Vec<_> = set.origins().collect();
        assert_eq!(origins, vec![ProcessId(1), ProcessId(2), ProcessId(3)]);
        let rumors: Vec<_> = set.iter().collect();
        assert_eq!(rumors, vec![r(1, 1), r(2, 2), r(3, 3)]);
    }

    #[test]
    fn iteration_crosses_word_boundaries_in_order() {
        let set: RumorSet = [r(200, 200), r(63, 63), r(64, 64), r(0, 0)]
            .into_iter()
            .collect();
        let origins: Vec<_> = set.origins().map(|p| p.index()).collect();
        assert_eq!(origins, vec![0, 63, 64, 200]);
        assert_eq!(set.len(), 4);
        assert_eq!(set.get(ProcessId(200)), Some(r(200, 200)));
    }

    #[test]
    fn singleton_contains_only_its_rumor() {
        let set = RumorSet::singleton(r(5, 50));
        assert_eq!(set.len(), 1);
        assert!(set.contains_origin(ProcessId(5)));
        assert!(!set.contains_origin(ProcessId(4)));
        assert!(!set.is_dense(), "one vote is smaller than a payload array");
        // A gossip singleton (payload = origin) is dense exactly when its
        // bitmap is no larger than the one 16-byte entry: up to two words.
        assert!(RumorSet::singleton(r(127, 127)).is_dense());
        assert!(!RumorSet::singleton(r(128, 128)).is_dense());
    }

    #[test]
    fn superset_checks() {
        let big: RumorSet = [r(0, 0), r(1, 1), r(2, 2)].into_iter().collect();
        let small: RumorSet = [r(1, 1)].into_iter().collect();
        assert!(big.is_superset_of(&small));
        assert!(!small.is_superset_of(&big));
        assert!(big.is_superset_of(&RumorSet::new()));
    }

    #[test]
    fn equality_ignores_representation() {
        // Same content built in different insertion orders.
        let high_first: RumorSet = [r(300, 300), r(1, 1)].into_iter().collect();
        let low_first: RumorSet = [r(1, 1), r(300, 300)].into_iter().collect();
        assert_eq!(high_first, low_first);
        // A force-promoted set equals its sparse twin, both ways.
        let mut grown = RumorSet::singleton(r(1, 1));
        grown.force_dense();
        assert!(grown.is_dense());
        assert_eq!(grown, RumorSet::singleton(r(1, 1)));
        assert_eq!(RumorSet::singleton(r(1, 1)), grown);
        // Different payload for the same origin is a real difference.
        assert_ne!(RumorSet::singleton(r(1, 1)), RumorSet::singleton(r(1, 2)));
    }

    #[test]
    fn promotion_happens_past_the_crossover_and_preserves_content() {
        // Identity payloads over 16 words: 128 bytes of bitmap, so the
        // eighth 16-byte entry is the first that makes dense no larger.
        let mut set = RumorSet::new();
        for i in (0..8).rev() {
            assert!(!set.is_dense(), "{} entries", set.len());
            set.insert(r(128 * i + 127, (128 * i + 127) as u64));
        }
        assert!(set.is_dense());
        assert_eq!(set.len(), 8);
        let origins: Vec<usize> = set.origins().map(|p| p.index()).collect();
        let want: Vec<usize> = (0..8).map(|i| 128 * i + 127).collect();
        assert_eq!(origins, want);
        assert_eq!(set.get(ProcessId(255)), Some(r(255, 255)));
        // Past the cap a set promotes whatever its density.
        let mut wide = RumorSet::new();
        for i in 1..=ADAPTIVE_SPARSE_LIMIT + 1 {
            assert!(!wide.is_dense());
            wide.insert(r(i << 12, (i << 12) as u64));
        }
        assert!(wide.is_dense(), "one past the cap promotes");
        assert_eq!(wide.len(), ADAPTIVE_SPARSE_LIMIT + 1);
    }

    #[test]
    fn non_identity_payloads_survive_promotion_and_dense_union() {
        // Payloads that do NOT equal their origin (the consensus case): the
        // dense form carries 64 payloads per presence word, so over two
        // words (1 040 bytes) the set stays sparse through 64 entries.
        let mut set = RumorSet::new();
        for i in (0..128).rev() {
            assert_eq!(set.is_dense(), set.len() >= 65, "{} entries", set.len());
            set.insert(r(i, (i % 2) as u64 + 7));
        }
        assert!(set.is_dense());
        for i in 0..128 {
            assert_eq!(set.get(ProcessId(i)), Some(r(i, (i % 2) as u64 + 7)));
        }
        // A dense union carrying a non-identity payload lands intact.
        let mut incoming = RumorSet::singleton(r(400, 9));
        incoming.force_dense();
        assert_eq!(set.union(&incoming), 1);
        assert_eq!(set.get(ProcessId(400)), Some(r(400, 9)));
        // One non-identity entry merged into a gossip set switches the
        // rule to the payload-carrying size without a rescan.
        let mut gossip: RumorSet = [r(200, 200), r(300, 300)].into_iter().collect();
        assert!(!gossip.is_dense());
        assert_eq!(gossip.union(&RumorSet::singleton(r(250, 1))), 1);
        gossip.insert(r(310, 310));
        assert!(!gossip.is_dense(), "64 B of entries against 2 600 B dense");
        assert_eq!(gossip.get(ProcessId(250)), Some(r(250, 1)));
    }

    #[test]
    fn union_agrees_across_representation_pairings() {
        let a_rumors = [r(1, 1), r(5, 5), r(130, 130)];
        let b_rumors = [r(0, 0), r(5, 5), r(131, 131)];
        for a_dense in [false, true] {
            for b_dense in [false, true] {
                let mut a: RumorSet = a_rumors.into_iter().collect();
                let mut b: RumorSet = b_rumors.into_iter().collect();
                if a_dense {
                    a.force_dense();
                }
                if b_dense {
                    b.force_dense();
                }
                assert_eq!(a.union(&b), 2, "({a_dense}, {b_dense})");
                assert_eq!(a.union(&b), 0);
                let origins: Vec<usize> = a.origins().map(|p| p.index()).collect();
                assert_eq!(origins, vec![0, 1, 5, 130, 131]);
                assert!(a.is_superset_of(&b));
                assert!(!b.is_superset_of(&a));
            }
        }
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(r(2, 7).to_string(), "r(p2, 7)");
    }

    #[test]
    fn debug_lists_rumors_in_origin_order() {
        let set: RumorSet = [r(2, 20), r(0, 5)].into_iter().collect();
        let dbg = format!("{set:?}");
        assert!(dbg.contains("ProcessId(0)"), "{dbg}");
        assert!(dbg.find("ProcessId(0)") < dbg.find("ProcessId(2)"), "{dbg}");
    }

    /// The `tears` frame of `set`, which must encode dense.
    fn dense_frame(set: &RumorSet) -> Vec<u8> {
        use crate::codec::WireCodec;
        let bytes = crate::TearsMessage {
            rumors: std::sync::Arc::new(set.clone()),
            flag: crate::TearsFlag::Down,
        }
        .encode();
        let view = <crate::TearsMessage as crate::WireDecodeView>::decode_view(&bytes).unwrap();
        assert!(matches!(
            view.rumors.repr(),
            crate::codec_view::RumorViewRepr::Dense { .. }
        ));
        bytes
    }

    /// Unions the frame into `receiver` through the view, once validated and
    /// once through the verified parse with `identity`, and checks both
    /// against unioning the decoded set, payloads included.
    fn assert_union_view_matches(receiver: &RumorSet, frame: &[u8], identity: bool) {
        use crate::WireDecodeView;
        let checked = crate::TearsMessage::decode_view(frame).unwrap();
        let verified = crate::codec_view::decode_tears_verified(frame, identity).unwrap();
        let mut expected = receiver.clone();
        let added = expected.union(&checked.rumors.to_set());
        for view in [&checked.rumors, &verified.rumors] {
            let mut got = receiver.clone();
            assert_eq!(got.union_view(view), added);
            assert_eq!(got, expected);
        }
    }

    /// Origins `0..150` (two full words and a partial third) with payloads
    /// of every varint length.
    fn explicit_sender() -> RumorSet {
        (0..150).map(|o| r(o, 1u64 << (7 * (o % 10)))).collect()
    }

    /// Holds `origins` with payloads no sender uses.
    fn explicit_receiver(origins: impl Iterator<Item = usize>) -> RumorSet {
        origins.map(|o| r(o, 1_000_000 + o as u64)).collect()
    }

    #[test]
    fn union_view_skips_held_payloads_and_reads_fresh_ones() {
        let frame = dense_frame(&explicit_sender());
        // Fresh bits at positions 0 and 63 of the first word, and in the
        // last, partial word.
        for fresh in [&[0, 63][..], &[149], &[128, 140, 149], &[0, 64, 127, 128]] {
            let receiver = explicit_receiver((0..150).filter(|o| !fresh.contains(o)));
            assert_union_view_matches(&receiver, &frame, false);
        }
        // A receiver that holds every origin but one, for each one.
        for missing in 0..150 {
            let receiver = explicit_receiver((0..150).filter(|&o| o != missing));
            assert_union_view_matches(&receiver, &frame, false);
        }
        // Runs of held origins between fresh ones, and nothing held.
        for stride in [2, 3, 7, 65] {
            let receiver = explicit_receiver((0..150).filter(|o| o % stride != 0));
            assert_union_view_matches(&receiver, &frame, false);
        }
        assert_union_view_matches(&RumorSet::new(), &frame, false);
    }

    #[test]
    fn identity_frame_flagged_explicit_unions_into_an_explicit_receiver() {
        let frame = dense_frame(&(0..150).map(|o| r(o, o as u64)).collect());
        for receiver in [
            explicit_receiver((0..150).filter(|o| o % 3 != 0)),
            explicit_receiver((1..150).step_by(64)),
            explicit_receiver(0..149),
        ] {
            assert_union_view_matches(&receiver, &frame, false);
        }
    }
}
