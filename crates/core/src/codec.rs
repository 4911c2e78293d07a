//! The byte-level wire codec: a compact, versioned binary encoding for every
//! gossip message.
//!
//! The paper's headline results are *bit*-complexity bounds, yet the
//! simulator only ever accounts for abstract rumor units ([`crate::wire`]).
//! This module gives each of the six wire message kinds a concrete byte
//! encoding so the live runtime (`agossip-runtime`) can push real frames
//! between concurrently running processes — and so the abstract unit count
//! can be *pinned* to the encoded size (see the proportionality constants
//! below).
//!
//! ## Frame body layout
//!
//! ```text
//! byte 0        CODEC_VERSION
//! byte 1        kind: 0 trivial · 1 ears · 2 sears · 3 tears↑ · 4 tears↓ · 5 sync
//! bytes 2..     kind-specific sections
//! ```
//!
//! Integers are LEB128 varints ([`write_varint`]/[`read_varint`]). A
//! [`RumorSet`] or [`InformedList`] section is written in whichever of two
//! representations is smaller for the value at hand:
//!
//! * **sparse** (tag `0`) — a count followed by `(origin, payload)` (resp.
//!   `(origin, target)`) varint entries in ascending order: proportional to
//!   the cardinality, best for nearly-empty sets;
//! * **dense** (tag `1`) — the set's word-packed presence bitmap, shipped as
//!   the raw `bits::WordSet` words (8 bytes each, little-endian,
//!   trailing zero words trimmed) followed by the payload varints of the set
//!   bits in ascending order: best once a constant fraction of the universe
//!   is present, which is the steady state of every epidemic protocol.
//!
//! Because the encoder always picks the smaller representation, the encoded
//! size is provably proportional to the [`crate::wire::WireSize`] unit count:
//! `encoded_len ≤ `[`MAX_BYTES_PER_UNIT`]` · wire_units` (for origins below
//! 2²⁴, i.e. any realistic system size) and `wire_units ≤ `
//! [`MAX_UNITS_PER_BYTE`]` · encoded_len`, for every message of every kind.
//! Both bounds are pinned by unit tests here and by the round-trip property
//! tests in `tests/tests/props_codec.rs`.
//!
//! ## How a varint is read
//!
//! A dense `tears` frame is a few hundred bitmap bytes followed by a
//! thousand payload varints, so on the live runtime the cost of the protocol
//! is [`read_varint`]. It decides in three tiers:
//!
//! 1. **one or two bytes**, inlined into the caller's loop — every
//!    identifier and every identity payload below 2¹⁴;
//! 2. **up to ten bytes, a word at a time**, out of line: load eight bytes,
//!    find the terminator as the lowest clear bit of `!word & 0x8080…80`,
//!    mask off what the load read past it, and squeeze the eight 7-bit
//!    groups together in three shift-and-mask steps; a ninth and tenth byte
//!    are added by hand, without branching on which of them ends the varint
//!    (a random `u64` payload is nine or ten bytes with equal odds);
//! 3. **the byte loop** — one byte at a time with the overflow test on each.
//!
//! Tiers 1 and 2 only ever *accept*. Whatever they cannot — fewer than eight
//! (or ten) bytes left in the input, a tenth byte with more than bit 63 in
//! it, an eleventh byte — falls through to tier 3, which is the reader this
//! module has always had. That is why it stays: [`CodecError::Truncated`] and
//! [`CodecError::VarintOverflow`], and which of the two wins on an input
//! that is both, have one source, and the unit tests below and the proptest
//! in `tests/tests/props_codec.rs` hold the fast tiers equal to it — value,
//! bytes consumed, error — on every two-byte prefix, every length and
//! boundary, every truncation, and arbitrary bytes.
//!
//! ## Robustness
//!
//! [`WireCodec::decode`] never panics: truncated, bit-flipped or otherwise
//! corrupt input yields a typed [`CodecError`]. Identifiers are capped at
//! [`MAX_WIRE_ID`] so a small corrupt frame cannot ask the decoder to
//! allocate an enormous universe.

use std::fmt;
use std::sync::Arc;

use agossip_sim::ProcessId;

use crate::ears::EarsMessage;
use crate::informed_list::InformedList;
use crate::rumor::{Rumor, RumorSet};
use crate::sears::SearsMessage;
use crate::sync_epidemic::SyncMessage;
use crate::tears::{TearsFlag, TearsMessage};
use crate::trivial::TrivialMessage;

/// Version byte every encoded message starts with.
pub const CODEC_VERSION: u8 = 1;

/// Upper bound on `encoded_len / wire_units` for any message whose origin
/// identifiers are below 2²⁴ (see the module docs for the derivation).
pub const MAX_BYTES_PER_UNIT: usize = 24;

/// Upper bound on `wire_units / encoded_len` for any message.
pub const MAX_UNITS_PER_BYTE: u64 = 8;

/// Largest process/origin identifier the decoder accepts.
///
/// A sparse entry is a varint, so without a cap a 9-byte corrupt frame could
/// name origin `2⁶⁰` and ask the decoder to allocate a petabit presence
/// bitmap. The cap cannot make allocation *proportional* to input — a
/// legitimate 6-byte singleton frame may name the highest origin of a large
/// universe, and the dense-indexed collections allocate up to that origin —
/// but it bounds the worst case: one section can demand at most ~8 MiB of
/// payload array (2²⁰ origins × 8 bytes), not petabytes. 2²⁰ processes is
/// still far beyond any run this repository performs. The live runtime
/// additionally only ever decodes frames produced by in-run peers; the cap
/// is a corruption backstop, not an untrusted-input hardening claim.
pub const MAX_WIRE_ID: u64 = 1 << 20;

/// Why a frame failed to decode. Decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the message was complete.
    Truncated,
    /// The version byte does not match [`CODEC_VERSION`].
    BadVersion(u8),
    /// The kind byte names no known message kind.
    BadKind(u8),
    /// A section tag named no known representation.
    BadSectionTag(u8),
    /// A varint ran past 10 bytes (would overflow `u64`).
    VarintOverflow,
    /// An identifier exceeded [`MAX_WIRE_ID`].
    IdOutOfRange(u64),
    /// The message decoded but `n` bytes of trailing garbage followed it.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported codec version {v} (expected {CODEC_VERSION})"
                )
            }
            CodecError::BadKind(k) => write!(f, "unknown message kind {k}"),
            CodecError::BadSectionTag(t) => write!(f, "unknown section representation tag {t}"),
            CodecError::VarintOverflow => write!(f, "varint overflows u64"),
            CodecError::IdOutOfRange(id) => {
                write!(f, "identifier {id} exceeds the wire cap {MAX_WIRE_ID}")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the message"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `value` to `buf` as a LEB128 varint (7 bits per byte, low group
/// first, high bit = continuation).
pub fn write_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8; // lint:allow(no-unchecked-narrowing): masked to the low 7 bits
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from the front of `bytes`, returning the value and
/// the number of bytes consumed.
///
/// One- and two-byte varints (every identifier and every identity payload
/// below 2¹⁴) are decided here, inlined into the caller's loop; anything
/// longer goes out of line (see "How a varint is read" in the module docs).
#[inline]
pub fn read_varint(bytes: &[u8]) -> Result<(u64, usize), CodecError> {
    match *bytes {
        [a, ..] if a < 0x80 => Ok((u64::from(a), 1)),
        [a, b, ..] if b < 0x80 => Ok((u64::from(a & 0x7f) | u64::from(b) << 7, 2)),
        _ => read_varint_word(bytes),
    }
}

/// Bit 7 of every byte of a little-endian word: the LEB128 continuation flags.
const CONTINUATION_BITS: u64 = 0x8080_8080_8080_8080;

/// The word-at-a-time path: a varint of up to ten bytes with at least eight
/// input bytes to load. It only ever *accepts*; whatever it cannot accept is
/// handed to [`read_varint_bytewise`].
#[inline(never)]
fn read_varint_word(bytes: &[u8]) -> Result<(u64, usize), CodecError> {
    let Some(head) = bytes.first_chunk::<8>() else {
        return read_varint_bytewise(bytes);
    };
    let word = u64::from_le_bytes(*head);
    let stops = !word & CONTINUATION_BITS;
    if stops != 0 {
        // The lowest clear flag marks the terminator; keep the bytes up to
        // and including it (the word load read past the varint's end).
        // lint:allow(no-unchecked-narrowing): trailing_zeros is at most 63, so the length is at most 8
        let len = (stops.trailing_zeros() as usize + 1) / 8;
        return Ok((squeeze_groups(word & (stops ^ (stops - 1))), len));
    }
    // Eight continuation bytes: the ninth and tenth by hand, without a
    // branch on which of them terminates (a random u64 is nine or ten bytes
    // with equal odds). The tenth byte counts only if the ninth continues,
    // and may then hold bit 63 alone.
    let Some(&[ninth, tenth]) = bytes.get(8..10) else {
        return read_varint_bytewise(bytes);
    };
    let continues = ninth >> 7;
    let tenth = tenth & continues.wrapping_neg();
    if tenth > 1 {
        return read_varint_bytewise(bytes);
    }
    let value = squeeze_groups(word) | u64::from(ninth & 0x7f) << 56 | u64::from(tenth) << 63;
    Ok((value, 9 + usize::from(continues)))
}

/// Drops the continuation flag of each of the eight bytes of `word` and
/// packs the eight 7-bit groups into the low 56 bits: pairs of bytes into
/// 14-bit groups, pairs of those into 28-bit groups, then the two halves.
#[inline]
fn squeeze_groups(word: u64) -> u64 {
    let x = word & !CONTINUATION_BITS;
    let x = (x & 0x007f_007f_007f_007f) | (x & 0x7f00_7f00_7f00_7f00) >> 1;
    let x = (x & 0x0000_3fff_0000_3fff) | (x & 0x3fff_0000_3fff_0000) >> 2;
    (x & 0x0000_0000_0fff_ffff) | (x & 0x0fff_ffff_0000_0000) >> 4
}

/// The reference reader, and the only source of `Truncated` /
/// `VarintOverflow`: one byte at a time, with the overflow test on each.
fn read_varint_bytewise(bytes: &[u8]) -> Result<(u64, usize), CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in bytes.iter().enumerate() {
        if shift >= 64 || (shift == 63 && byte & 0x7e != 0) {
            return Err(CodecError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(CodecError::Truncated)
}

/// The number of bytes [`write_varint`] emits for `value`.
pub fn varint_len(value: u64) -> usize {
    // lint:allow(no-unchecked-narrowing): leading_zeros of a u64 is at most 64
    ((64 - value.leading_zeros() as usize).div_ceil(7)).max(1)
}

/// Types with a byte-level wire encoding.
///
/// Every message kind of every protocol implements this; the live runtime is
/// generic over it. `decode(encode(m)) == m` for every value (pinned by the
/// round-trip property tests), and `decode` returns a typed error — never
/// panics — on arbitrary corrupt input.
pub trait WireCodec: Sized {
    /// Appends the encoded message to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>);

    /// Encodes the message into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decodes one message occupying the whole of `bytes`.
    fn decode(bytes: &[u8]) -> Result<Self, CodecError>;
}

/// On-wire message kind discriminants (byte 1 of every frame body). The
/// `tears` flag is folded into the kind, giving the six protocol wire kinds;
/// `EPOCH` is an envelope kind whose body nests a complete protocol frame
/// (see [`crate::epoch`]).
pub(crate) mod kind {
    pub(crate) const TRIVIAL: u8 = 0;
    pub(crate) const EARS: u8 = 1;
    pub(crate) const SEARS: u8 = 2;
    pub(crate) const TEARS_UP: u8 = 3;
    pub(crate) const TEARS_DOWN: u8 = 4;
    pub(crate) const SYNC: u8 = 5;
    pub(crate) const EPOCH: u8 = 6;
}

/// Section representation tags.
pub(crate) const TAG_SPARSE: u8 = 0;
pub(crate) const TAG_DENSE: u8 = 1;

/// A cursor over the input of one decode call. Shared with the borrowed
/// view-decode path in [`crate::codec_view`].
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        let byte = *self.bytes.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    #[inline]
    pub(crate) fn varint(&mut self) -> Result<u64, CodecError> {
        let rest = self.bytes.get(self.pos..).ok_or(CodecError::Truncated)?;
        let (value, used) = read_varint(rest)?;
        self.pos += used;
        Ok(value)
    }

    /// A varint checked against [`MAX_WIRE_ID`].
    pub(crate) fn id(&mut self) -> Result<usize, CodecError> {
        let value = self.varint()?;
        if value >= MAX_WIRE_ID {
            return Err(CodecError::IdOutOfRange(value));
        }
        usize::try_from(value).map_err(|_| CodecError::IdOutOfRange(value))
    }

    /// A dense-section word count: a varint checked against
    /// `MAX_WIRE_ID / 64`, so `count * 64` can never wrap (a corrupt ~9-byte
    /// varint times 64 would otherwise bypass the id cap).
    pub(crate) fn word_count(&mut self) -> Result<usize, CodecError> {
        let count = self.varint()?;
        if count > MAX_WIRE_ID / 64 {
            return Err(CodecError::IdOutOfRange(count.saturating_mul(64)));
        }
        usize::try_from(count).map_err(|_| CodecError::IdOutOfRange(count))
    }

    pub(crate) fn word(&mut self) -> Result<u64, CodecError> {
        let rest = self.bytes.get(self.pos..).ok_or(CodecError::Truncated)?;
        let word = rest.first_chunk::<8>().ok_or(CodecError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(*word))
    }

    /// The current cursor position (for carving borrowed sub-slices).
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Borrows the next `len` bytes and advances past them.
    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// The bytes between an earlier cursor position and the current one.
    pub(crate) fn since(&self, start: usize) -> &'a [u8] {
        self.bytes.get(start..self.pos).unwrap_or(&[])
    }

    /// Borrows every byte after the cursor and advances to the end.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        self.pos = self.bytes.len();
        rest
    }

    pub(crate) fn finish(self) -> Result<(), CodecError> {
        let left = self.bytes.len() - self.pos;
        if left != 0 {
            return Err(CodecError::TrailingBytes(left));
        }
        Ok(())
    }
}

pub(crate) fn write_header(buf: &mut Vec<u8>, kind: u8) {
    buf.push(CODEC_VERSION);
    buf.push(kind);
}

pub(crate) fn read_header(reader: &mut Reader<'_>) -> Result<u8, CodecError> {
    let version = reader.u8()?;
    if version != CODEC_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    reader.u8()
}

// ---------------------------------------------------------------------------
// RumorSet section
// ---------------------------------------------------------------------------

fn encode_rumor_set(buf: &mut Vec<u8>, set: &RumorSet) {
    // Trimmed dense presence words — borrowed when the set is dense,
    // materialized when it is sparse, so the sparse-vs-dense choice below
    // (and therefore every wire byte) depends only on the set's *contents*,
    // never on its in-memory representation.
    let words = set.dense_words();
    // The payload varints are common to both representations; compare only
    // the parts that differ: the origin varints vs the raw bitmap words.
    let sparse_ids: usize = varint_len(set.len() as u64)
        + set
            .origins()
            .map(|o| varint_len(o.index() as u64))
            .sum::<usize>();
    let dense_ids = varint_len(words.len() as u64) + 8 * words.len();
    if sparse_ids <= dense_ids {
        buf.push(TAG_SPARSE);
        write_varint(buf, set.len() as u64);
        for rumor in set.iter() {
            write_varint(buf, rumor.origin.index() as u64);
            write_varint(buf, rumor.payload);
        }
    } else {
        buf.push(TAG_DENSE);
        write_varint(buf, words.len() as u64);
        for &word in words.iter() {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        for rumor in set.iter() {
            write_varint(buf, rumor.payload);
        }
    }
}

fn decode_rumor_set(reader: &mut Reader<'_>) -> Result<RumorSet, CodecError> {
    let mut set = RumorSet::new();
    match reader.u8()? {
        TAG_SPARSE => {
            let count = reader.varint()?;
            if count > MAX_WIRE_ID {
                return Err(CodecError::IdOutOfRange(count));
            }
            for _ in 0..count {
                let origin = reader.id()?;
                let payload = reader.varint()?;
                set.insert(Rumor::new(ProcessId(origin), payload));
            }
        }
        TAG_DENSE => {
            let word_count = reader.word_count()?;
            // Borrow the word region in place — no `Vec<u64>` staging buffer.
            let words = reader.take(word_count * 8)?;
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
                    set.insert(Rumor::new(ProcessId(origin), payload));
                }
            }
        }
        tag => return Err(CodecError::BadSectionTag(tag)),
    }
    Ok(set)
}

// ---------------------------------------------------------------------------
// InformedList section
// ---------------------------------------------------------------------------

fn encode_informed(buf: &mut Vec<u8>, list: &InformedList) {
    // As with the rumor section: trimmed per-row dense words regardless of
    // each row's in-memory representation, so the size comparison and the
    // emitted bytes are a pure function of the list's contents.
    let rows = list.dense_rows();
    let sparse_size: usize = varint_len(list.len() as u64)
        + list
            .iter()
            .map(|(o, t)| varint_len(o.index() as u64) + varint_len(t.index() as u64))
            .sum::<usize>();
    let dense_size: usize = varint_len(rows.len() as u64)
        + rows
            .iter()
            .map(|(origin, words)| {
                varint_len(*origin as u64) + varint_len(words.len() as u64) + 8 * words.len()
            })
            .sum::<usize>();
    if sparse_size <= dense_size {
        buf.push(TAG_SPARSE);
        write_varint(buf, list.len() as u64);
        for (origin, target) in list.iter() {
            write_varint(buf, origin.index() as u64);
            write_varint(buf, target.index() as u64);
        }
    } else {
        buf.push(TAG_DENSE);
        write_varint(buf, rows.len() as u64);
        for (origin, words) in &rows {
            write_varint(buf, *origin as u64);
            write_varint(buf, words.len() as u64);
            for &word in words.iter() {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
    }
}

fn decode_informed(reader: &mut Reader<'_>) -> Result<InformedList, CodecError> {
    let mut list = InformedList::new();
    match reader.u8()? {
        TAG_SPARSE => {
            let count = reader.varint()?;
            if count > MAX_WIRE_ID {
                return Err(CodecError::IdOutOfRange(count));
            }
            for _ in 0..count {
                let origin = reader.id()?;
                let target = reader.id()?;
                list.insert(ProcessId(origin), ProcessId(target));
            }
        }
        TAG_DENSE => {
            let row_count = reader.varint()?;
            if row_count > MAX_WIRE_ID {
                return Err(CodecError::IdOutOfRange(row_count));
            }
            for _ in 0..row_count {
                let origin = reader.id()?;
                let word_count = reader.word_count()?;
                for w in 0..word_count {
                    let mut bits = reader.word()?;
                    while bits != 0 {
                        // lint:allow(no-unchecked-narrowing): trailing_zeros of a u64 is at most 63
                        let target = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        list.insert(ProcessId(origin), ProcessId(target));
                    }
                }
            }
        }
        tag => return Err(CodecError::BadSectionTag(tag)),
    }
    Ok(list)
}

// ---------------------------------------------------------------------------
// Message implementations
// ---------------------------------------------------------------------------

impl WireCodec for TrivialMessage {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        write_header(buf, kind::TRIVIAL);
        write_varint(buf, self.rumor.origin.index() as u64);
        write_varint(buf, self.rumor.payload);
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut reader = Reader::new(bytes);
        match read_header(&mut reader)? {
            kind::TRIVIAL => {}
            k => return Err(CodecError::BadKind(k)),
        }
        let origin = reader.id()?;
        let payload = reader.varint()?;
        reader.finish()?;
        Ok(TrivialMessage {
            rumor: Rumor::new(ProcessId(origin), payload),
        })
    }
}

impl WireCodec for EarsMessage {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        write_header(buf, kind::EARS);
        encode_rumor_set(buf, &self.rumors);
        encode_informed(buf, &self.informed);
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut reader = Reader::new(bytes);
        match read_header(&mut reader)? {
            kind::EARS => {}
            k => return Err(CodecError::BadKind(k)),
        }
        let rumors = decode_rumor_set(&mut reader)?;
        let informed = decode_informed(&mut reader)?;
        reader.finish()?;
        Ok(EarsMessage {
            rumors: Arc::new(rumors),
            informed: Arc::new(informed),
        })
    }
}

impl WireCodec for SearsMessage {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        write_header(buf, kind::SEARS);
        encode_rumor_set(buf, &self.rumors);
        encode_informed(buf, &self.informed);
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut reader = Reader::new(bytes);
        match read_header(&mut reader)? {
            kind::SEARS => {}
            k => return Err(CodecError::BadKind(k)),
        }
        let rumors = decode_rumor_set(&mut reader)?;
        let informed = decode_informed(&mut reader)?;
        reader.finish()?;
        Ok(SearsMessage {
            rumors: Arc::new(rumors),
            informed: Arc::new(informed),
        })
    }
}

impl WireCodec for TearsMessage {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        let kind = match self.flag {
            TearsFlag::Up => kind::TEARS_UP,
            TearsFlag::Down => kind::TEARS_DOWN,
        };
        write_header(buf, kind);
        encode_rumor_set(buf, &self.rumors);
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut reader = Reader::new(bytes);
        let flag = match read_header(&mut reader)? {
            kind::TEARS_UP => TearsFlag::Up,
            kind::TEARS_DOWN => TearsFlag::Down,
            k => return Err(CodecError::BadKind(k)),
        };
        let rumors = decode_rumor_set(&mut reader)?;
        reader.finish()?;
        Ok(TearsMessage {
            rumors: Arc::new(rumors),
            flag,
        })
    }
}

impl WireCodec for SyncMessage {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        write_header(buf, kind::SYNC);
        encode_rumor_set(buf, &self.rumors);
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut reader = Reader::new(bytes);
        match read_header(&mut reader)? {
            kind::SYNC => {}
            k => return Err(CodecError::BadKind(k)),
        }
        let rumors = decode_rumor_set(&mut reader)?;
        reader.finish()?;
        Ok(SyncMessage {
            rumors: Arc::new(rumors),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireSize;

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

    fn full_universe(n: usize) -> RumorSet {
        rumors(&(0..n).collect::<Vec<_>>())
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for value in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            assert_eq!(buf.len(), varint_len(value), "length of {value}");
            let (decoded, used) = read_varint(&buf).unwrap();
            assert_eq!(decoded, value);
            assert_eq!(used, buf.len());
        }
        assert_eq!(read_varint(&[]), Err(CodecError::Truncated));
        assert_eq!(read_varint(&[0x80]), Err(CodecError::Truncated));
        // An 11-byte continuation chain overflows u64.
        assert_eq!(read_varint(&[0xff; 11]), Err(CodecError::VarintOverflow));
    }

    /// Asserts the fast paths agree with the byte loop — value, bytes
    /// consumed and error variant — on every prefix of `input` (each
    /// truncation) and on `input` followed by tails that arm the word path.
    fn assert_matches_bytewise(input: &[u8]) {
        for cut in 0..=input.len() {
            let prefix = &input[..cut];
            assert_eq!(
                read_varint(prefix),
                read_varint_bytewise(prefix),
                "{prefix:02x?}"
            );
        }
        for tail in [0x00u8, 0x7f, 0x80, 0xff] {
            // `input` (at most 11 bytes) followed by nine tail bytes.
            let mut buf = [tail; 20];
            buf[..input.len()].copy_from_slice(input);
            let extended = &buf[..input.len() + 9];
            assert_eq!(
                read_varint(extended),
                read_varint_bytewise(extended),
                "{extended:02x?}"
            );
        }
    }

    #[test]
    fn every_two_byte_prefix_reads_like_the_byte_loop() {
        for a in 0..=u8::MAX {
            for b in 0..=u8::MAX {
                assert_matches_bytewise(&[a, b]);
            }
        }
    }

    #[test]
    fn every_length_and_boundary_reads_like_the_byte_loop() {
        // 2^7k − 1 and 2^7k sit either side of every length boundary.
        let mut values = vec![0u64, u64::MAX];
        for k in 1..=9u32 {
            values.extend([(1u64 << (7 * k)) - 1, 1u64 << (7 * k)]);
        }
        for &value in &values {
            let mut canonical = Vec::new();
            write_varint(&mut canonical, value);
            assert_eq!(read_varint(&canonical), Ok((value, canonical.len())));
            assert_matches_bytewise(&canonical);
            // Non-canonical: the same value zero-padded out to every length
            // up to 11 bytes (ten still decodes, eleven overflows).
            for total in canonical.len() + 1..=11 {
                let mut padded = canonical.clone();
                *padded.last_mut().unwrap() |= 0x80;
                padded.resize(total - 1, 0x80);
                padded.push(0x00);
                if total <= 10 {
                    assert_eq!(read_varint(&padded), Ok((value, total)));
                }
                assert_matches_bytewise(&padded);
            }
        }
        // The tenth byte may hold bit 63 alone: anything else overflows,
        // and a continuing tenth byte overflows or truncates on the next.
        for lead in [0x80u8, 0xaa, 0xff] {
            for tenth in [0x00u8, 0x01, 0x02, 0x7f, 0x80, 0x81, 0xff] {
                let mut input = vec![lead; 9];
                input.push(tenth);
                assert_matches_bytewise(&input);
                for eleventh in [0x00u8, 0x01, 0x80] {
                    input.push(eleventh);
                    assert_matches_bytewise(&input);
                    input.pop();
                }
            }
        }
        assert_eq!(
            read_varint(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]),
            Err(CodecError::VarintOverflow)
        );
        assert_eq!(
            read_varint(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81]),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn all_six_kinds_round_trip() {
        let v = rumors(&[0, 3, 64, 130]);
        let i = informed(&[(0, 1), (3, 70), (130, 0)]);
        let trivial = TrivialMessage {
            rumor: Rumor::new(ProcessId(5), 42),
        };
        assert_eq!(TrivialMessage::decode(&trivial.encode()).unwrap(), trivial);
        let ears = EarsMessage {
            rumors: Arc::new(v.clone()),
            informed: Arc::new(i.clone()),
        };
        assert_eq!(EarsMessage::decode(&ears.encode()).unwrap(), ears);
        let sears = SearsMessage {
            rumors: Arc::new(v.clone()),
            informed: Arc::new(i),
        };
        assert_eq!(SearsMessage::decode(&sears.encode()).unwrap(), sears);
        for flag in [TearsFlag::Up, TearsFlag::Down] {
            let tears = TearsMessage {
                rumors: Arc::new(v.clone()),
                flag,
            };
            assert_eq!(TearsMessage::decode(&tears.encode()).unwrap(), tears);
        }
        let sync = SyncMessage {
            rumors: Arc::new(v),
        };
        assert_eq!(SyncMessage::decode(&sync.encode()).unwrap(), sync);
    }

    #[test]
    fn empty_collections_round_trip() {
        let ears = EarsMessage {
            rumors: Arc::new(RumorSet::new()),
            informed: Arc::new(InformedList::new()),
        };
        assert_eq!(EarsMessage::decode(&ears.encode()).unwrap(), ears);
    }

    #[test]
    fn dense_beats_sparse_on_a_full_universe() {
        // A full universe of 256 origins should ship as 4 bitmap words, not
        // 256 origin varints: the dense path must be chosen and smaller.
        let full = SyncMessage {
            rumors: Arc::new(full_universe(256)),
        };
        let mut sparse_only = Vec::new();
        write_varint(&mut sparse_only, 256);
        for rumor in full.rumors.iter() {
            write_varint(&mut sparse_only, rumor.origin.index() as u64);
            write_varint(&mut sparse_only, rumor.payload);
        }
        assert!(
            full.encode().len() < sparse_only.len() + 3,
            "dense encoding should beat the sparse origin list"
        );
        assert_eq!(SyncMessage::decode(&full.encode()).unwrap(), full);
    }

    #[test]
    fn sparse_is_chosen_for_a_lone_high_origin() {
        // One rumor at origin 4095: dense would ship 64 bitmap words
        // (512 bytes); sparse ships two varints.
        let msg = SyncMessage {
            rumors: Arc::new(rumors(&[4095])),
        };
        let encoded = msg.encode();
        assert!(encoded.len() < 12, "got {} bytes", encoded.len());
        assert_eq!(SyncMessage::decode(&encoded).unwrap(), msg);
    }

    #[test]
    fn encoded_size_is_proportional_to_wire_units() {
        let cases: Vec<(u64, usize)> = vec![
            {
                let m = TrivialMessage {
                    rumor: Rumor::new(ProcessId(9), u64::MAX),
                };
                (m.wire_units(), m.encode().len())
            },
            {
                let m = EarsMessage {
                    rumors: Arc::new(full_universe(200)),
                    informed: Arc::new(informed(&[(0, 0), (1, 199), (199, 3)])),
                };
                (m.wire_units(), m.encode().len())
            },
            {
                let m = TearsMessage {
                    rumors: Arc::new(rumors(&[7])),
                    flag: TearsFlag::Down,
                };
                (m.wire_units(), m.encode().len())
            },
            {
                let m = SyncMessage {
                    rumors: Arc::new(RumorSet::new()),
                };
                (m.wire_units(), m.encode().len())
            },
        ];
        for (units, bytes) in cases {
            assert!(
                bytes <= MAX_BYTES_PER_UNIT * units as usize,
                "{bytes} bytes for {units} units"
            );
            assert!(
                units <= MAX_UNITS_PER_BYTE * bytes as u64,
                "{units} units for {bytes} bytes"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_version_kind_and_trailing_bytes() {
        let msg = TrivialMessage {
            rumor: Rumor::new(ProcessId(1), 2),
        };
        let good = msg.encode();

        let mut bad_version = good.clone();
        bad_version[0] = 99;
        assert_eq!(
            TrivialMessage::decode(&bad_version),
            Err(CodecError::BadVersion(99))
        );

        let mut bad_kind = good.clone();
        bad_kind[1] = 77;
        assert_eq!(
            TrivialMessage::decode(&bad_kind),
            Err(CodecError::BadKind(77))
        );

        // A frame of the wrong (but valid) kind is also a kind error.
        assert_eq!(
            EarsMessage::decode(&good),
            Err(CodecError::BadKind(kind::TRIVIAL))
        );

        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0, 0]);
        assert_eq!(
            TrivialMessage::decode(&trailing),
            Err(CodecError::TrailingBytes(2))
        );
    }

    #[test]
    fn decode_rejects_every_truncation() {
        let msg = EarsMessage {
            rumors: Arc::new(full_universe(100)),
            informed: Arc::new(informed(&[(0, 1), (5, 9)])),
        };
        let encoded = msg.encode();
        for len in 0..encoded.len() {
            let err =
                EarsMessage::decode(&encoded[..len]).expect_err("a strict prefix must not decode");
            assert!(
                !matches!(err, CodecError::TrailingBytes(_)),
                "prefix of length {len} reported trailing bytes"
            );
        }
    }

    #[test]
    fn decode_caps_identifier_allocations() {
        // kind=sync, sparse rumor section claiming an origin of 2^40.
        let mut frame = vec![CODEC_VERSION, kind::SYNC, TAG_SPARSE];
        write_varint(&mut frame, 1);
        write_varint(&mut frame, 1 << 40);
        write_varint(&mut frame, 0);
        assert!(matches!(
            SyncMessage::decode(&frame),
            Err(CodecError::IdOutOfRange(_))
        ));

        // Dense section claiming 2^30 bitmap words.
        let mut frame = vec![CODEC_VERSION, kind::SYNC, TAG_DENSE];
        write_varint(&mut frame, 1 << 30);
        assert!(matches!(
            SyncMessage::decode(&frame),
            Err(CodecError::IdOutOfRange(_))
        ));

        // A word count large enough that `word_count * 64` would wrap u64:
        // the cap check must not overflow (and must still reject).
        for huge in [1u64 << 58, u64::MAX] {
            let mut frame = vec![CODEC_VERSION, kind::SYNC, TAG_DENSE];
            write_varint(&mut frame, huge);
            assert!(matches!(
                SyncMessage::decode(&frame),
                Err(CodecError::IdOutOfRange(_))
            ));
            // Same header inside an informed-list row.
            let mut frame = vec![CODEC_VERSION, kind::EARS, TAG_SPARSE, 0, TAG_DENSE, 1, 0];
            write_varint(&mut frame, huge);
            assert!(matches!(
                EarsMessage::decode(&frame),
                Err(CodecError::IdOutOfRange(_))
            ));
        }
    }
}
