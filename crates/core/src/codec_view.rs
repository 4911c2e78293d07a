//! Zero-copy decode: borrowed message *views* over an encoded frame.
//!
//! [`WireCodec::decode`] materializes a
//! fresh owned message per frame — for the set-carrying protocols that means
//! a fresh `Vec<u64>` of bitmap words, possibly a payload vector, and an
//! `Arc` allocation, *per received frame*. On the live runtime's hot path
//! the receiver immediately unions that owned message into its own state and
//! drops it, so all of those allocations are pure churn.
//!
//! [`WireDecodeView::decode_view`] replaces that with a validating parse
//! that returns a **view**: a tiny struct of borrowed sub-slices of the
//! input buffer (the sparse entry region, the dense word region, the payload
//! varint region). Validation is exhaustive — a view is only handed out for
//! a frame that [`WireCodec::decode`] would
//! also accept, with the *same typed error* otherwise (pinned by the
//! differential proptests in `tests/tests/props_codec.rs`) — so downstream
//! consumers can fold the view straight into their collections:
//! [`RumorSet::union_view`](crate::rumor::RumorSet::union_view) ORs the
//! dense word region into the receiver's bitmap without ever materializing
//! the sender's set.
//!
//! Validation happens once per shared body per reactor, not once per
//! receiver. A broadcast body travels to every destination in one shared
//! allocation; the live runtime runs `decode_view` on it the first time a
//! reactor delivers it and hands every frame carrying bytes that passed
//! what that parse found: validity and the view's
//! [`WireDecodeView::view_identity`]
//! ([`EncodedFrame::verified`](crate::EncodedFrame::verified)). For such a
//! frame `tears` takes `decode_tears_verified`, which parses the header
//! and the section head but not the payload varints: a dense section's
//! length is the popcount of its word region, and its identity flag is the
//! one the validation carried. On the bytes `decode_view` accepts, with
//! the flag it reported, both parses give the same view (pinned by the
//! `verified_parse_differential` proptest below); on any other bytes, or
//! with a wrong flag, the verified parse still never panics.
//!
//! A dense section with explicit payloads is unioned without decoding the
//! payloads of origins the receiver already holds: `union_view` decodes the
//! varint of each fresh origin only, and skips the run of held ones before
//! it with `codec::skip_varints`, which counts varint terminators eight
//! bytes at a time instead of decoding. Counting is exact because every
//! view that reaches `union_view` passed `decode_view`, or is flagged by a
//! record entry that did, so its varints are well formed; on any other
//! bytes the skip still stays in bounds and never panics.
//!
//! Decoding never panics; this module is under the same `never-panic-decode`
//! lint policy as `codec.rs`.

use agossip_sim::ProcessId;

use crate::codec::{
    kind, read_header, read_varint, CodecError, Reader, WireCodec, MAX_WIRE_ID, TAG_DENSE,
    TAG_SPARSE,
};
use crate::ears::EarsMessage;
use crate::informed_list::InformedList;
use crate::rumor::{Rumor, RumorSet};
use crate::sears::SearsMessage;
use crate::sync_epidemic::SyncMessage;
use crate::tears::{TearsFlag, TearsMessage};
use crate::trivial::TrivialMessage;

/// Messages with a borrowed-slice decode path in addition to the owned one.
///
/// The contract, pinned by differential proptests: for every byte string
/// `b`, `decode_view(b)` succeeds iff `decode(b)` succeeds, with the same
/// [`CodecError`] on failure, and on success
/// `Self::view_to_owned(&decode_view(b)?) == Self::decode(b)?`.
pub trait WireDecodeView: WireCodec {
    /// The borrowed view over one encoded frame.
    type View<'a>;

    /// Validates `bytes` as one whole frame of this kind and returns a view
    /// borrowing from it. Never panics; never allocates.
    fn decode_view(bytes: &[u8]) -> Result<Self::View<'_>, CodecError>;

    /// Materializes the owned message a view describes (equals what
    /// [`WireCodec::decode`] returns for the same bytes).
    fn view_to_owned(view: &Self::View<'_>) -> Self;

    /// True promises that every rumor payload in the view equals its
    /// origin index, as the validating parse found. Defaults to `false`,
    /// which promises nothing.
    fn view_identity(view: &Self::View<'_>) -> bool {
        let _ = view;
        false
    }
}

// ---------------------------------------------------------------------------
// RumorSet section view
// ---------------------------------------------------------------------------

/// A validated, borrowed rumor-set section of an encoded frame.
pub struct RumorSetView<'a> {
    repr: RumorViewRepr<'a>,
    len: usize,
    /// Found by the validating parse, or carried from it to a verified one.
    identity: bool,
}

/// Which wire representation the section used, with its borrowed regions.
pub(crate) enum RumorViewRepr<'a> {
    /// `count` validated `(origin, payload)` varint pairs.
    Sparse { entries: &'a [u8] },
    /// Raw little-endian presence words plus the payload varints of the set
    /// bits in ascending order.
    Dense { words: &'a [u8], payloads: &'a [u8] },
}

impl<'a> RumorSetView<'a> {
    /// Number of rumors in the section.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the section holds no rumor.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if every payload equals its origin index (the plain-gossip
    /// invariant; lets the union keep identity-compressed payloads). A
    /// verified parse did not walk the payloads: it reports the flag the
    /// validating parse found.
    pub(crate) fn identity(&self) -> bool {
        self.identity
    }

    pub(crate) fn repr(&self) -> &RumorViewRepr<'a> {
        &self.repr
    }

    /// Iterates the rumors in ascending origin order (re-parsing the
    /// borrowed regions; the slices were validated at construction).
    pub fn iter(&self) -> RumorViewIter<'a> {
        match self.repr {
            RumorViewRepr::Sparse { entries } => RumorViewIter::Sparse { entries },
            RumorViewRepr::Dense { words, payloads } => RumorViewIter::Dense {
                words,
                payloads,
                w: 0,
                bits: first_word(words),
            },
        }
    }

    /// Materializes the owned set (exactly what the owned decoder builds).
    pub fn to_set(&self) -> RumorSet {
        let mut set = RumorSet::new();
        for rumor in self.iter() {
            set.insert(rumor);
        }
        set
    }
}

fn first_word(words: &[u8]) -> u64 {
    words
        .first_chunk::<8>()
        .map(|arr| u64::from_le_bytes(*arr))
        .unwrap_or(0)
}

/// Iterator over the rumors of a [`RumorSetView`].
pub enum RumorViewIter<'a> {
    /// Walking the sparse entry region.
    Sparse {
        /// Remaining `(origin, payload)` varint pairs.
        entries: &'a [u8],
    },
    /// Walking the dense word and payload regions in step.
    Dense {
        /// The full little-endian word region.
        words: &'a [u8],
        /// Remaining payload varints.
        payloads: &'a [u8],
        /// Current word index.
        w: usize,
        /// Unconsumed bits of the current word.
        bits: u64,
    },
}

impl Iterator for RumorViewIter<'_> {
    type Item = Rumor;

    fn next(&mut self) -> Option<Rumor> {
        match self {
            RumorViewIter::Sparse { entries } => {
                if entries.is_empty() {
                    return None;
                }
                let (origin, used) = read_varint(entries).ok()?;
                *entries = entries.get(used..).unwrap_or(&[]);
                let (payload, used) = read_varint(entries).ok()?;
                *entries = entries.get(used..).unwrap_or(&[]);
                // Validated entries are always under the cap. A verified
                // parse of bytes that never passed validation stops here
                // rather than hand out an id no set could hold.
                let origin = usize::try_from(origin)
                    .ok()
                    .filter(|_| origin < MAX_WIRE_ID)?;
                Some(Rumor::new(ProcessId(origin), payload))
            }
            RumorViewIter::Dense {
                words,
                payloads,
                w,
                bits,
            } => {
                while *bits == 0 {
                    *w += 1;
                    let chunk = words.get(*w * 8..*w * 8 + 8)?;
                    *bits = first_word(chunk);
                }
                // lint:allow(no-unchecked-narrowing): trailing_zeros of a u64 is at most 63
                let origin = *w * 64 + bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                let (payload, used) = read_varint(payloads).ok()?;
                *payloads = payloads.get(used..).unwrap_or(&[]);
                Some(Rumor::new(ProcessId(origin), payload))
            }
        }
    }
}

/// Parses and validates one rumor-set section, mirroring the owned
/// decoder's checks (and error order) exactly.
pub(crate) fn read_rumor_view<'a>(reader: &mut Reader<'a>) -> Result<RumorSetView<'a>, CodecError> {
    match reader.u8()? {
        TAG_SPARSE => {
            let count = reader.varint()?;
            if count > MAX_WIRE_ID {
                return Err(CodecError::IdOutOfRange(count));
            }
            let start = reader.pos();
            let mut identity = true;
            for _ in 0..count {
                let origin = reader.id()?;
                let payload = reader.varint()?;
                identity &= payload == origin as u64;
            }
            Ok(RumorSetView {
                repr: RumorViewRepr::Sparse {
                    entries: reader.since(start),
                },
                len: usize::try_from(count).map_err(|_| CodecError::IdOutOfRange(count))?,
                identity,
            })
        }
        TAG_DENSE => {
            let word_count = reader.word_count()?;
            let words = reader.take(word_count * 8)?;
            let payload_start = reader.pos();
            let mut len = 0usize;
            let mut identity = true;
            for (w, chunk) in words.chunks_exact(8).enumerate() {
                let Some(arr) = chunk.first_chunk::<8>() else {
                    break;
                };
                let mut bits = u64::from_le_bytes(*arr);
                while bits != 0 {
                    // lint:allow(no-unchecked-narrowing): trailing_zeros of a u64 is at most 63
                    let origin = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let payload = reader.varint()?;
                    identity &= payload == origin as u64;
                    len += 1;
                }
            }
            Ok(RumorSetView {
                repr: RumorViewRepr::Dense {
                    words,
                    payloads: reader.since(payload_start),
                },
                len,
                identity,
            })
        }
        tag => Err(CodecError::BadSectionTag(tag)),
    }
}

/// Parses a rumor-set section that ends its frame, from bytes that already
/// passed [`read_rumor_view`]: the entries or payloads run to the end of the
/// frame, a dense section's length is the popcount of its word region, the
/// identity flag is the one `read_rumor_view` found, and nothing past the
/// section head is walked. On other bytes, or with another flag, the view
/// may describe garbage, but parsing and using it never panics.
fn read_rumor_view_verified<'a>(
    reader: &mut Reader<'a>,
    identity: bool,
) -> Result<RumorSetView<'a>, CodecError> {
    match reader.u8()? {
        TAG_SPARSE => {
            let count = reader.varint()?;
            Ok(RumorSetView {
                len: usize::try_from(count).map_err(|_| CodecError::IdOutOfRange(count))?,
                repr: RumorViewRepr::Sparse {
                    entries: reader.rest(),
                },
                identity,
            })
        }
        TAG_DENSE => {
            let word_count = reader.word_count()?;
            let words = reader.take(word_count * 8)?;
            let len = words
                .chunks_exact(8)
                .map(|chunk| usize::try_from(first_word(chunk).count_ones()).unwrap_or(0))
                .sum();
            Ok(RumorSetView {
                repr: RumorViewRepr::Dense {
                    words,
                    payloads: reader.rest(),
                },
                len,
                identity,
            })
        }
        tag => Err(CodecError::BadSectionTag(tag)),
    }
}

// ---------------------------------------------------------------------------
// InformedList section view
// ---------------------------------------------------------------------------

/// A validated, borrowed informed-list section of an encoded frame.
pub struct InformedListView<'a> {
    repr: InformedViewRepr<'a>,
    len: usize,
}

/// Wire representation of an informed-list section, with borrowed regions.
pub(crate) enum InformedViewRepr<'a> {
    /// Validated `(origin, target)` varint pairs.
    Sparse { entries: &'a [u8] },
    /// Validated `(origin, word_count, words)` rows.
    Dense { rows: &'a [u8] },
}

impl<'a> InformedListView<'a> {
    /// Number of `(origin, target)` pairs in the section.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the section holds no pair.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn repr(&self) -> &InformedViewRepr<'a> {
        &self.repr
    }

    /// Iterates the dense rows as `(origin, little-endian word bytes)`.
    /// Empty for a sparse section.
    pub(crate) fn rows(&self) -> InformedRowIter<'a> {
        match self.repr {
            InformedViewRepr::Sparse { .. } => InformedRowIter { rows: &[] },
            InformedViewRepr::Dense { rows } => InformedRowIter { rows },
        }
    }

    /// Iterates the `(origin, target)` pairs in encoding order.
    pub fn iter(&self) -> InformedViewIter<'a> {
        InformedViewIter {
            inner: match self.repr {
                InformedViewRepr::Sparse { entries } => InformedViewIterInner::Sparse { entries },
                InformedViewRepr::Dense { rows } => InformedViewIterInner::Dense {
                    rows: InformedRowIter { rows },
                    row: None,
                },
            },
        }
    }

    /// Materializes the owned list (exactly what the owned decoder builds).
    pub fn to_list(&self) -> InformedList {
        let mut list = InformedList::new();
        for (origin, target) in self.iter() {
            list.insert(origin, target);
        }
        list
    }
}

/// One dense informed-list row: the rumor origin and the row's raw
/// little-endian target words.
pub(crate) struct InformedRowView<'a> {
    /// The rumor origin this row covers targets for.
    pub(crate) origin: usize,
    /// The row's target bitmap as raw little-endian word bytes.
    pub(crate) words: &'a [u8],
}

/// Iterator over the rows of a dense informed-list section.
pub(crate) struct InformedRowIter<'a> {
    rows: &'a [u8],
}

impl<'a> Iterator for InformedRowIter<'a> {
    type Item = InformedRowView<'a>;

    fn next(&mut self) -> Option<InformedRowView<'a>> {
        if self.rows.is_empty() {
            return None;
        }
        let (origin, used) = read_varint(self.rows).ok()?;
        self.rows = self.rows.get(used..).unwrap_or(&[]);
        let (word_count, used) = read_varint(self.rows).ok()?;
        self.rows = self.rows.get(used..).unwrap_or(&[]);
        let bytes = usize::try_from(word_count).ok()?.checked_mul(8)?;
        let words = self.rows.get(..bytes)?;
        self.rows = self.rows.get(bytes..).unwrap_or(&[]);
        Some(InformedRowView {
            origin: usize::try_from(origin).ok()?,
            words,
        })
    }
}

/// Iterator over the `(origin, target)` pairs of an [`InformedListView`].
pub struct InformedViewIter<'a> {
    inner: InformedViewIterInner<'a>,
}

enum InformedViewIterInner<'a> {
    /// Walking the sparse entry region.
    Sparse {
        /// Remaining `(origin, target)` varint pairs.
        entries: &'a [u8],
    },
    /// Walking the dense rows, one bit at a time.
    Dense {
        /// Remaining rows.
        rows: InformedRowIter<'a>,
        /// The row in progress: `(origin, words, word index, unconsumed bits)`.
        row: Option<(usize, &'a [u8], usize, u64)>,
    },
}

impl Iterator for InformedViewIter<'_> {
    type Item = (ProcessId, ProcessId);

    fn next(&mut self) -> Option<(ProcessId, ProcessId)> {
        match &mut self.inner {
            InformedViewIterInner::Sparse { entries } => {
                if entries.is_empty() {
                    return None;
                }
                let (origin, used) = read_varint(entries).ok()?;
                *entries = entries.get(used..).unwrap_or(&[]);
                let (target, used) = read_varint(entries).ok()?;
                *entries = entries.get(used..).unwrap_or(&[]);
                Some((
                    ProcessId(usize::try_from(origin).ok()?),
                    ProcessId(usize::try_from(target).ok()?),
                ))
            }
            InformedViewIterInner::Dense { rows, row } => loop {
                if let Some((origin, words, w, bits)) = row {
                    if *bits != 0 {
                        // lint:allow(no-unchecked-narrowing): trailing_zeros of a u64 is at most 63
                        let target = *w * 64 + bits.trailing_zeros() as usize;
                        *bits &= *bits - 1;
                        return Some((ProcessId(*origin), ProcessId(target)));
                    }
                    *w += 1;
                    match words.get(*w * 8..*w * 8 + 8) {
                        Some(chunk) => *bits = first_word(chunk),
                        None => *row = None,
                    }
                    continue;
                }
                let next = rows.next()?;
                *row = Some((next.origin, next.words, 0, first_word(next.words)));
            },
        }
    }
}

/// Parses and validates one informed-list section, mirroring the owned
/// decoder's checks (and error order) exactly.
pub(crate) fn read_informed_view<'a>(
    reader: &mut Reader<'a>,
) -> Result<InformedListView<'a>, CodecError> {
    match reader.u8()? {
        TAG_SPARSE => {
            let count = reader.varint()?;
            if count > MAX_WIRE_ID {
                return Err(CodecError::IdOutOfRange(count));
            }
            let start = reader.pos();
            for _ in 0..count {
                reader.id()?;
                reader.id()?;
            }
            Ok(InformedListView {
                repr: InformedViewRepr::Sparse {
                    entries: reader.since(start),
                },
                len: usize::try_from(count).map_err(|_| CodecError::IdOutOfRange(count))?,
            })
        }
        TAG_DENSE => {
            let row_count = reader.varint()?;
            if row_count > MAX_WIRE_ID {
                return Err(CodecError::IdOutOfRange(row_count));
            }
            let start = reader.pos();
            let mut len = 0usize;
            for _ in 0..row_count {
                reader.id()?;
                let word_count = reader.word_count()?;
                let words = reader.take(word_count * 8)?;
                len += words
                    .chunks_exact(8)
                    // lint:allow(no-unchecked-narrowing): count_ones of a u64 is at most 64
                    .map(|chunk| first_word(chunk).count_ones() as usize)
                    .sum::<usize>();
            }
            Ok(InformedListView {
                repr: InformedViewRepr::Dense {
                    rows: reader.since(start),
                },
                len,
            })
        }
        tag => Err(CodecError::BadSectionTag(tag)),
    }
}

// ---------------------------------------------------------------------------
// Message views
// ---------------------------------------------------------------------------

/// Borrowed view of an encoded [`TrivialMessage`] (nothing to borrow).
pub struct TrivialView {
    /// The single rumor the message carries.
    pub rumor: Rumor,
}

/// Borrowed view of an encoded [`TearsMessage`].
pub struct TearsView<'a> {
    /// Message level.
    pub flag: TearsFlag,
    /// The sender's rumor collection at send time.
    pub rumors: RumorSetView<'a>,
}

/// Borrowed view of an encoded [`EarsMessage`].
pub struct EarsView<'a> {
    /// The sender's rumor collection at send time.
    pub rumors: RumorSetView<'a>,
    /// The sender's informed-list at send time.
    pub informed: InformedListView<'a>,
}

/// Borrowed view of an encoded [`SearsMessage`].
pub struct SearsView<'a> {
    /// The sender's rumor collection at send time.
    pub rumors: RumorSetView<'a>,
    /// The sender's informed-list at send time.
    pub informed: InformedListView<'a>,
}

/// Borrowed view of an encoded [`SyncMessage`].
pub struct SyncView<'a> {
    /// The sender's rumor collection at send time.
    pub rumors: RumorSetView<'a>,
}

impl WireDecodeView for TrivialMessage {
    type View<'a> = TrivialView;

    fn decode_view(bytes: &[u8]) -> Result<TrivialView, CodecError> {
        let mut reader = Reader::new(bytes);
        match read_header(&mut reader)? {
            kind::TRIVIAL => {}
            k => return Err(CodecError::BadKind(k)),
        }
        let origin = reader.id()?;
        let payload = reader.varint()?;
        reader.finish()?;
        Ok(TrivialView {
            rumor: Rumor::new(ProcessId(origin), payload),
        })
    }

    fn view_to_owned(view: &TrivialView) -> Self {
        TrivialMessage { rumor: view.rumor }
    }
}

fn read_tears_header(reader: &mut Reader<'_>) -> Result<TearsFlag, CodecError> {
    match read_header(reader)? {
        kind::TEARS_UP => Ok(TearsFlag::Up),
        kind::TEARS_DOWN => Ok(TearsFlag::Down),
        k => Err(CodecError::BadKind(k)),
    }
}

/// [`TearsMessage::decode_view`] for bytes that already passed it, with the
/// `identity` its view reported (see the module docs): the same view,
/// without walking the payload varints.
pub(crate) fn decode_tears_verified(
    bytes: &[u8],
    identity: bool,
) -> Result<TearsView<'_>, CodecError> {
    let mut reader = Reader::new(bytes);
    let flag = read_tears_header(&mut reader)?;
    let rumors = read_rumor_view_verified(&mut reader, identity)?;
    Ok(TearsView { flag, rumors })
}

impl WireDecodeView for TearsMessage {
    type View<'a> = TearsView<'a>;

    fn decode_view(bytes: &[u8]) -> Result<TearsView<'_>, CodecError> {
        let mut reader = Reader::new(bytes);
        let flag = read_tears_header(&mut reader)?;
        let rumors = read_rumor_view(&mut reader)?;
        reader.finish()?;
        Ok(TearsView { flag, rumors })
    }

    fn view_to_owned(view: &TearsView<'_>) -> Self {
        TearsMessage {
            rumors: std::sync::Arc::new(view.rumors.to_set()),
            flag: view.flag,
        }
    }

    fn view_identity(view: &TearsView<'_>) -> bool {
        view.rumors.identity()
    }
}

impl WireDecodeView for EarsMessage {
    type View<'a> = EarsView<'a>;

    fn decode_view(bytes: &[u8]) -> Result<EarsView<'_>, CodecError> {
        let mut reader = Reader::new(bytes);
        match read_header(&mut reader)? {
            kind::EARS => {}
            k => return Err(CodecError::BadKind(k)),
        }
        let rumors = read_rumor_view(&mut reader)?;
        let informed = read_informed_view(&mut reader)?;
        reader.finish()?;
        Ok(EarsView { rumors, informed })
    }

    fn view_to_owned(view: &EarsView<'_>) -> Self {
        EarsMessage {
            rumors: std::sync::Arc::new(view.rumors.to_set()),
            informed: std::sync::Arc::new(view.informed.to_list()),
        }
    }
}

impl WireDecodeView for SearsMessage {
    type View<'a> = SearsView<'a>;

    fn decode_view(bytes: &[u8]) -> Result<SearsView<'_>, CodecError> {
        let mut reader = Reader::new(bytes);
        match read_header(&mut reader)? {
            kind::SEARS => {}
            k => return Err(CodecError::BadKind(k)),
        }
        let rumors = read_rumor_view(&mut reader)?;
        let informed = read_informed_view(&mut reader)?;
        reader.finish()?;
        Ok(SearsView { rumors, informed })
    }

    fn view_to_owned(view: &SearsView<'_>) -> Self {
        SearsMessage {
            rumors: std::sync::Arc::new(view.rumors.to_set()),
            informed: std::sync::Arc::new(view.informed.to_list()),
        }
    }
}

impl WireDecodeView for SyncMessage {
    type View<'a> = SyncView<'a>;

    fn decode_view(bytes: &[u8]) -> Result<SyncView<'_>, CodecError> {
        let mut reader = Reader::new(bytes);
        match read_header(&mut reader)? {
            kind::SYNC => {}
            k => return Err(CodecError::BadKind(k)),
        }
        let rumors = read_rumor_view(&mut reader)?;
        reader.finish()?;
        Ok(SyncView { rumors })
    }

    fn view_to_owned(view: &SyncView<'_>) -> Self {
        SyncMessage {
            rumors: std::sync::Arc::new(view.rumors.to_set()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EncodedFrame, GossipEngine};
    use std::sync::Arc;

    fn rumors(origins: &[usize]) -> RumorSet {
        origins
            .iter()
            .map(|&o| Rumor::new(ProcessId(o), (o as u64) * 31 + 7))
            .collect()
    }

    fn informed(pairs: &[(usize, usize)]) -> InformedList {
        let mut list = InformedList::new();
        for &(o, t) in pairs {
            list.insert(ProcessId(o), ProcessId(t));
        }
        list
    }

    #[test]
    fn view_round_trips_match_owned_decode_for_every_kind() {
        let v = rumors(&[0, 3, 64, 130]);
        let i = informed(&[(0, 1), (3, 70), (130, 0)]);
        let tears = TearsMessage {
            rumors: Arc::new(v.clone()),
            flag: TearsFlag::Up,
        };
        let bytes = tears.encode();
        let view = TearsMessage::decode_view(&bytes).unwrap();
        assert_eq!(TearsMessage::view_to_owned(&view), tears);
        assert_eq!(view.rumors.len(), 4);

        let ears = EarsMessage {
            rumors: Arc::new(v.clone()),
            informed: Arc::new(i.clone()),
        };
        let bytes = ears.encode();
        let view = EarsMessage::decode_view(&bytes).unwrap();
        assert_eq!(EarsMessage::view_to_owned(&view), ears);
        assert_eq!(view.informed.len(), 3);

        let sears = SearsMessage {
            rumors: Arc::new(v.clone()),
            informed: Arc::new(i),
        };
        let bytes = sears.encode();
        assert_eq!(
            SearsMessage::view_to_owned(&SearsMessage::decode_view(&bytes).unwrap()),
            sears
        );

        let sync = SyncMessage {
            rumors: Arc::new(v),
        };
        let bytes = sync.encode();
        assert_eq!(
            SyncMessage::view_to_owned(&SyncMessage::decode_view(&bytes).unwrap()),
            sync
        );

        let trivial = TrivialMessage {
            rumor: Rumor::new(ProcessId(5), 42),
        };
        let bytes = trivial.encode();
        assert_eq!(
            TrivialMessage::view_to_owned(&TrivialMessage::decode_view(&bytes).unwrap()),
            trivial
        );
    }

    #[test]
    fn dense_sections_expose_identity_detection() {
        // Identity payloads (payload == origin) over a full universe: dense
        // on the wire, identity flag up.
        let identity: RumorSet = (0..300)
            .map(|o| Rumor::new(ProcessId(o), o as u64))
            .collect();
        let msg = SyncMessage {
            rumors: Arc::new(identity),
        };
        let bytes = msg.encode();
        let view = SyncMessage::decode_view(&bytes).unwrap();
        assert!(view.rumors.identity());
        assert!(matches!(view.rumors.repr(), RumorViewRepr::Dense { .. }));

        // One non-identity payload flips the flag.
        let mut off: RumorSet = (0..300)
            .map(|o| Rumor::new(ProcessId(o), o as u64))
            .collect();
        off = off
            .iter()
            .map(|r| {
                if r.origin.index() == 7 {
                    Rumor::new(r.origin, 999)
                } else {
                    r
                }
            })
            .collect();
        let msg = SyncMessage {
            rumors: Arc::new(off),
        };
        let bytes = msg.encode();
        let view = SyncMessage::decode_view(&bytes).unwrap();
        assert!(!view.rumors.identity());
    }

    #[test]
    fn view_iteration_matches_owned_iteration() {
        for set in [
            rumors(&[4095]),                           // sparse on the wire
            rumors(&(0..256).collect::<Vec<usize>>()), // dense on the wire
            RumorSet::new(),
        ] {
            let msg = SyncMessage {
                rumors: Arc::new(set),
            };
            let bytes = msg.encode();
            let view = SyncMessage::decode_view(&bytes).unwrap();
            let from_view: Vec<Rumor> = view.rumors.iter().collect();
            let owned: Vec<Rumor> = SyncMessage::decode(&bytes).unwrap().rumors.iter().collect();
            assert_eq!(from_view, owned);
            assert_eq!(view.rumors.len(), owned.len());
        }
        let list = informed(&[(0, 1), (3, 70), (130, 0), (3, 3)]);
        let msg = EarsMessage {
            rumors: Arc::new(RumorSet::new()),
            informed: Arc::new(list),
        };
        let bytes = msg.encode();
        let view = EarsMessage::decode_view(&bytes).unwrap();
        let from_view: Vec<_> = view.informed.iter().collect();
        let decoded = EarsMessage::decode(&bytes).unwrap();
        let owned_pairs: Vec<_> = decoded.informed.iter().collect();
        assert_eq!(from_view, owned_pairs);
    }

    /// SplitMix64: one seed fixes a whole case.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..bound`; `bound` must be nonzero.
        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// A random set over `0..n`: a density from nearly empty to full (so
    /// both wire forms occur), runs of consecutive origins, and identity,
    /// random or almost-identity payloads.
    fn random_set(mix: &mut Mix, n: usize) -> RumorSet {
        let percent = [1, 5, 30, 90, 100][mix.below(5)];
        let payloads = mix.below(3);
        let odd_one = mix.below(n);
        let mut set = RumorSet::new();
        let mut o = 0;
        while o < n {
            let run = 1 + mix.below(8);
            let take = mix.below(100) < percent;
            for origin in o..(o + run).min(n) {
                if take {
                    let payload = match payloads {
                        0 => origin as u64,
                        1 => mix.next(),
                        _ if origin == odd_one => origin as u64 + 1,
                        _ => origin as u64,
                    };
                    set.insert(Rumor::new(ProcessId(origin), payload));
                }
            }
            o += run;
        }
        set
    }

    /// Receivers to test a view against: unrelated ones with identity and
    /// with explicit payloads, a superset and a subset of the sender's set.
    fn receivers(mix: &mut Mix, n: usize, sender: &RumorSet) -> [RumorSet; 4] {
        let identity = random_set(mix, n)
            .iter()
            .map(|r| Rumor::new(r.origin, r.origin.index() as u64))
            .collect();
        let explicit = random_set(mix, n)
            .iter()
            .map(|r| Rumor::new(r.origin, mix.next() | 1 << 63))
            .collect();
        let mut superset = random_set(mix, n);
        superset.union(sender);
        let subset = sender.iter().filter(|_| mix.below(4) != 0).collect();
        [identity, explicit, superset, subset]
    }

    fn tears_frame(mix: &mut Mix, set: RumorSet) -> TearsMessage {
        let flag = if mix.below(2) == 0 {
            TearsFlag::Up
        } else {
            TearsFlag::Down
        };
        TearsMessage {
            rumors: Arc::new(set),
            flag,
        }
    }

    /// The verified parse of `bytes`, given the `identity` flag the
    /// validating parse reported, equals `decode_view`'s view, and every
    /// receiver tests and merges both the same way.
    fn assert_parses_agree(bytes: &[u8], identity: bool, receivers: &[RumorSet]) {
        let checked = TearsMessage::decode_view(bytes).unwrap();
        let trusted = decode_tears_verified(bytes, identity).unwrap();
        assert_eq!(checked.flag, trusted.flag);
        let (a, b) = (&checked.rumors, &trusted.rumors);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().eq(b.iter()), "iteration differs");
        assert_eq!(
            a.identity(),
            a.iter().all(|r| r.payload == r.origin.index() as u64),
            "the validating parse's flag is what a walk finds"
        );
        assert_eq!(a.identity(), b.identity());
        assert_eq!(
            matches!(a.repr(), RumorViewRepr::Dense { .. }),
            matches!(b.repr(), RumorViewRepr::Dense { .. })
        );
        for receiver in receivers {
            assert_eq!(
                receiver.is_superset_of_view(a),
                receiver.is_superset_of_view(b)
            );
            let (mut x, mut y) = (receiver.clone(), receiver.clone());
            assert_eq!(x.union_view(a), y.union_view(b));
            assert_eq!(x, y, "unions differ");
        }
    }

    /// A frame flagged verified, with the identity flag it carries.
    struct Trusted<'a>(ProcessId, &'a [u8], bool);

    impl EncodedFrame for Trusted<'_> {
        fn sender(&self) -> ProcessId {
            self.0
        }

        fn body(&self) -> &[u8] {
            self.1
        }

        fn verified(&self) -> Option<bool> {
            Some(self.2)
        }
    }

    /// `PROPTEST_CASES` cases when it is set (the nightly Miri job runs a
    /// handful), `default` otherwise.
    fn cases(default: u32) -> proptest::prelude::ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default);
        proptest::prelude::ProptestConfig::with_cases(cases)
    }

    proptest::proptest! {
        #![proptest_config(cases(64))]

        /// On every frame `decode_view` accepts — Up and Down, sparse and
        /// dense, identity and arbitrary payloads, bare and inside an
        /// `EpochMsg` — the verified parse, given the identity flag
        /// `view_identity` reported, gives the same view, and `tears`
        /// reaches the same state whichever parse its frames take.
        #[test]
        fn verified_parse_differential(seed in proptest::prelude::any::<u64>(), n in 1usize..700) {
            let mut mix = Mix(seed);
            let n = if mix.below(4) == 0 { n.min(64) } else { n };
            let ctx = crate::engine::GossipCtx::new(ProcessId(mix.below(n)), n, 0, seed);
            let mut plain = crate::tears::Tears::new(ctx);
            let mut trusting = plain.clone();
            for _ in 0..4 {
                let set = random_set(&mut mix, n);
                let receivers = receivers(&mut mix, n, &set);
                let msg = tears_frame(&mut mix, set);
                let bytes = msg.encode();
                let identity = TearsMessage::view_identity(&TearsMessage::decode_view(&bytes).unwrap());
                assert_parses_agree(&bytes, identity, &receivers);

                type Wrapped = crate::epoch::EpochMsg<TearsMessage>;
                let wrapped = Wrapped { epoch: mix.next() >> 40, inner: msg }.encode();
                let envelope = Wrapped::view_identity(&Wrapped::decode_view(&wrapped).unwrap());
                assert_eq!(envelope, identity);
                let (_, at) = crate::epoch::peel_epoch_header(&wrapped).unwrap();
                assert_parses_agree(wrapped.get(at..).unwrap(), envelope, &receivers);

                let from = ProcessId(mix.below(n));
                assert_eq!(plain.deliver_encoded(&[(from, bytes.as_slice())]), 0);
                assert_eq!(trusting.deliver_encoded(&[Trusted(from, &bytes, identity)]), 0);
                assert_eq!(plain.rumors(), trusting.rumors());
                assert_eq!(plain.up_msg_count(), trusting.up_msg_count());
            }
        }

        /// Arbitrary bytes flagged verified, with either identity flag —
        /// noise behind a `tears` header, and valid frames with a byte
        /// flipped, cut short or extended — never panic the verified parse
        /// or the set operations on its view.
        #[test]
        fn verified_parse_never_panics(seed in proptest::prelude::any::<u64>(), n in 1usize..300) {
            let mut mix = Mix(seed);
            let mut inputs = Vec::new();
            let noise: Vec<u8> = (0..mix.below(64)).map(|_| mix.next() as u8).collect();
            let mut headed = vec![crate::codec::CODEC_VERSION, kind::TEARS_UP + mix.below(2) as u8];
            headed.push(mix.below(3) as u8);
            headed.extend_from_slice(&noise);
            inputs.push(noise);
            inputs.push(headed);
            let set = random_set(&mut mix, n);
            let valid = tears_frame(&mut mix, set).encode();
            let mut flipped = valid.clone();
            let at = mix.below(flipped.len());
            flipped[at] ^= 1 << mix.below(8);
            inputs.push(flipped);
            inputs.push(valid[..mix.below(valid.len())].to_vec());
            let mut extended = valid;
            extended.extend((0..1 + mix.below(16)).map(|_| mix.next() as u8));
            inputs.push(extended);

            let receiver = random_set(&mut mix, n);
            for (bytes, identity) in inputs.iter().flat_map(|b| [(b, false), (b, true)]) {
                if let Ok(view) = decode_tears_verified(bytes, identity) {
                    let rumors = &view.rumors;
                    let _ = (rumors.len(), rumors.iter().count(), rumors.identity());
                    let _ = receiver.is_superset_of_view(rumors);
                    receiver.clone().union_view(rumors);
                }
                let mut engine = crate::tears::Tears::new(
                    crate::engine::GossipCtx::new(ProcessId(0), n, 0, seed),
                );
                engine.deliver_encoded(&[Trusted(ProcessId(n - 1), bytes, identity)]);
            }
        }
    }

    /// A frame flagged identity is unioned into an identity receiver as the
    /// OR of its presence words, its payload region never read: not when
    /// that region holds no valid varint, and not when it holds payloads
    /// that a walk would find are not the identity.
    #[test]
    fn verified_identity_union_never_walks_payloads() {
        let sender: RumorSet = (0..700)
            .filter(|o| o % 3 != 0)
            .map(|o| Rumor::new(ProcessId(o), o as u64))
            .collect();
        let receiver: RumorSet = (0..700)
            .filter(|o| o % 5 == 0)
            .map(|o| Rumor::new(ProcessId(o), o as u64))
            .collect();
        let bytes = TearsMessage {
            rumors: Arc::new(sender.clone()),
            flag: TearsFlag::Down,
        }
        .encode();
        let view = TearsMessage::decode_view(&bytes).unwrap();
        let RumorViewRepr::Dense { payloads, .. } = view.rumors.repr() else {
            panic!("a dense frame");
        };
        let head = bytes.get(..bytes.len() - payloads.len()).unwrap().to_vec();
        let not_varints = vec![0x80; payloads.len()];
        let mut not_identity = Vec::new();
        for rumor in sender.iter() {
            crate::codec::write_varint(&mut not_identity, rumor.payload + 1);
        }
        let mut expected = receiver.clone();
        expected.union(&sender);
        for payload_region in [not_varints, not_identity] {
            let mut lying = head.clone();
            lying.extend_from_slice(&payload_region);
            let view = decode_tears_verified(&lying, true).unwrap();
            let mut union = receiver.clone();
            assert_eq!(
                union.union_view(&view.rumors),
                expected.len() - receiver.len()
            );
            assert_eq!(union, expected);
        }
    }

    #[test]
    fn view_decode_rejects_what_owned_decode_rejects() {
        let msg = TearsMessage {
            rumors: Arc::new(rumors(&(0..300).collect::<Vec<usize>>())),
            flag: TearsFlag::Down,
        };
        let encoded = msg.encode();
        for len in 0..encoded.len() {
            let owned = TearsMessage::decode(&encoded[..len]).unwrap_err();
            let viewed = TearsMessage::decode_view(&encoded[..len])
                .map(|_| ())
                .unwrap_err();
            assert_eq!(owned, viewed, "prefix of length {len}");
        }
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert_eq!(
            TearsMessage::decode_view(&trailing)
                .map(|_| ())
                .unwrap_err(),
            CodecError::TrailingBytes(1)
        );
    }
}
