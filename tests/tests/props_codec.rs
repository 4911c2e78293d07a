//! Property-based tests on the byte-level wire codec: round-trip identity
//! for arbitrary messages of all six kinds at arbitrary system sizes, the
//! WireSize/encoded-bytes proportionality bounds, and corrupt-frame fuzzing
//! (truncation and bit flips must yield typed errors, never panics).
//!
//! These run in debug mode as part of tier-1.

use std::sync::Arc;

use proptest::prelude::*;

use agossip_core::codec::{read_varint, MAX_BYTES_PER_UNIT, MAX_UNITS_PER_BYTE};
use agossip_core::informed_list::InformedList;
use agossip_core::tears::TearsFlag;
use agossip_core::{
    CodecError, EarsMessage, Rumor, RumorSet, SearsMessage, SyncMessage, TearsMessage, Trivial,
    TrivialMessage, WireCodec, WireDecodeView, WireSize,
};
use agossip_sim::ProcessId;

/// System sizes from degenerate to several bitmap words; one case in four
/// up to 16 384, and one in four beyond it, where an identifier or identity
/// payload takes three varint bytes.
fn n_strategy() -> impl Strategy<Value = usize> {
    (0..4u8, 1..300usize, 300..16_384usize, 16_384..20_000usize).prop_map(
        |(pick, small, medium, large)| match pick {
            0 => large,
            1 => medium,
            _ => small,
        },
    )
}

/// Up to 40 rumors with payloads from the whole `u64` range (mostly nine-
/// and ten-byte varints): sparse on the wire unless `n` is small.
fn scattered_set_strategy(n: usize) -> impl Strategy<Value = RumorSet> {
    prop::collection::vec((0..n, any::<u64>()), 0..40).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(origin, payload)| Rumor::new(ProcessId(origin), payload))
            .collect()
    })
}

/// Payload = origin — what plain gossip ships, and the only shape that takes
/// the identity paths of the view and the union — on every `stride`-th
/// origin from `start` to the top of the universe, so the section is dense
/// on the wire at any `n` unless `start` is close to `n`.
fn identity_set_strategy(n: usize) -> impl Strategy<Value = RumorSet> {
    (0..n, 1..4usize).prop_map(move |(start, stride)| {
        (start..n)
            .step_by(stride)
            .map(|origin| Rumor::new(ProcessId(origin), origin as u64))
            .collect()
    })
}

fn rumor_set_strategy(n: usize) -> impl Strategy<Value = RumorSet> {
    (
        any::<bool>(),
        scattered_set_strategy(n),
        identity_set_strategy(n),
    )
        .prop_map(|(identity, scattered, dense)| if identity { dense } else { scattered })
}

fn informed_strategy(n: usize) -> impl Strategy<Value = InformedList> {
    prop::collection::vec((0..n, 0..n), 0..60).prop_map(|pairs| {
        let mut list = InformedList::new();
        for (origin, target) in pairs {
            list.insert(ProcessId(origin), ProcessId(target));
        }
        list
    })
}

/// Any of the six wire message kinds, over a universe of size `n`.
#[derive(Debug, Clone, PartialEq)]
enum AnyMessage {
    Trivial(TrivialMessage),
    Ears(EarsMessage),
    Sears(SearsMessage),
    TearsUp(TearsMessage),
    TearsDown(TearsMessage),
    Sync(SyncMessage),
}

impl AnyMessage {
    fn encode(&self) -> Vec<u8> {
        match self {
            AnyMessage::Trivial(m) => m.encode(),
            AnyMessage::Ears(m) => m.encode(),
            AnyMessage::Sears(m) => m.encode(),
            AnyMessage::TearsUp(m) | AnyMessage::TearsDown(m) => m.encode(),
            AnyMessage::Sync(m) => m.encode(),
        }
    }

    fn wire_units(&self) -> u64 {
        match self {
            AnyMessage::Trivial(m) => m.wire_units(),
            AnyMessage::Ears(m) => m.wire_units(),
            AnyMessage::Sears(m) => m.wire_units(),
            AnyMessage::TearsUp(m) | AnyMessage::TearsDown(m) => m.wire_units(),
            AnyMessage::Sync(m) => m.wire_units(),
        }
    }

    /// Decodes with the matching kind's decoder and re-wraps.
    fn decode_as_self(&self, bytes: &[u8]) -> Result<AnyMessage, CodecError> {
        Ok(match self {
            AnyMessage::Trivial(_) => AnyMessage::Trivial(TrivialMessage::decode(bytes)?),
            AnyMessage::Ears(_) => AnyMessage::Ears(EarsMessage::decode(bytes)?),
            AnyMessage::Sears(_) => AnyMessage::Sears(SearsMessage::decode(bytes)?),
            AnyMessage::TearsUp(_) => {
                let m = TearsMessage::decode(bytes)?;
                match m.flag {
                    TearsFlag::Up => AnyMessage::TearsUp(m),
                    TearsFlag::Down => AnyMessage::TearsDown(m),
                }
            }
            AnyMessage::TearsDown(_) => {
                let m = TearsMessage::decode(bytes)?;
                match m.flag {
                    TearsFlag::Up => AnyMessage::TearsUp(m),
                    TearsFlag::Down => AnyMessage::TearsDown(m),
                }
            }
            AnyMessage::Sync(_) => AnyMessage::Sync(SyncMessage::decode(bytes)?),
        })
    }

    /// Decodes with the matching kind's zero-copy view decoder,
    /// materializes the owned message, and re-wraps — the borrowed-path
    /// mirror of [`AnyMessage::decode_as_self`].
    fn view_decode_as_self(&self, bytes: &[u8]) -> Result<AnyMessage, CodecError> {
        fn via_view<M: WireDecodeView>(bytes: &[u8]) -> Result<M, CodecError> {
            Ok(M::view_to_owned(&M::decode_view(bytes)?))
        }
        Ok(match self {
            AnyMessage::Trivial(_) => AnyMessage::Trivial(via_view::<TrivialMessage>(bytes)?),
            AnyMessage::Ears(_) => AnyMessage::Ears(via_view::<EarsMessage>(bytes)?),
            AnyMessage::Sears(_) => AnyMessage::Sears(via_view::<SearsMessage>(bytes)?),
            AnyMessage::TearsUp(_) | AnyMessage::TearsDown(_) => {
                let m = via_view::<TearsMessage>(bytes)?;
                match m.flag {
                    TearsFlag::Up => AnyMessage::TearsUp(m),
                    TearsFlag::Down => AnyMessage::TearsDown(m),
                }
            }
            AnyMessage::Sync(_) => AnyMessage::Sync(via_view::<SyncMessage>(bytes)?),
        })
    }
}

/// Asserts the owned and view decoders agree on `bytes`: both succeed with
/// equal messages, or both fail with the same typed error.
fn assert_view_matches_owned(msg: &AnyMessage, bytes: &[u8]) {
    let owned = msg.decode_as_self(bytes);
    let viewed = msg.view_decode_as_self(bytes);
    match (owned, viewed) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "owned and view decodes disagree"),
        (Err(a), Err(b)) => prop_assert_eq!(a, b, "owned and view errors disagree"),
        (a, b) => prop_assert!(false, "decode outcomes split: owned {a:?} vs view {b:?}"),
    }
}

fn message_strategy() -> impl Strategy<Value = AnyMessage> {
    n_strategy().prop_flat_map(|n| {
        (
            0..6u8,
            rumor_set_strategy(n),
            informed_strategy(n),
            0..n,
            any::<u64>(),
        )
            .prop_map(move |(kind, rumors, informed, origin, payload)| {
                let rumors = Arc::new(rumors);
                let informed = Arc::new(informed);
                match kind {
                    0 => AnyMessage::Trivial(TrivialMessage {
                        rumor: Rumor::new(ProcessId(origin), payload),
                    }),
                    1 => AnyMessage::Ears(EarsMessage { rumors, informed }),
                    2 => AnyMessage::Sears(SearsMessage { rumors, informed }),
                    3 => AnyMessage::TearsUp(TearsMessage {
                        rumors,
                        flag: TearsFlag::Up,
                    }),
                    4 => AnyMessage::TearsDown(TearsMessage {
                        rumors,
                        flag: TearsFlag::Down,
                    }),
                    _ => AnyMessage::Sync(SyncMessage { rumors }),
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `decode(encode(m)) == m` for arbitrary messages of all six kinds at
    /// arbitrary n.
    #[test]
    fn round_trip_is_identity(msg in message_strategy()) {
        let encoded = msg.encode();
        let decoded = msg.decode_as_self(&encoded).expect("round trip must decode");
        prop_assert_eq!(decoded, msg);
    }

    /// The abstract wire-unit count and the encoded byte count are mutually
    /// proportional, for every message: this is what lets the simulator's
    /// unit metrics stand in for real bit complexity.
    #[test]
    fn wire_units_are_proportional_to_encoded_bytes(msg in message_strategy()) {
        let bytes = msg.encode().len();
        let units = msg.wire_units();
        prop_assert!(
            bytes as u64 <= MAX_BYTES_PER_UNIT as u64 * units,
            "{bytes} bytes exceed {MAX_BYTES_PER_UNIT}·{units} units"
        );
        prop_assert!(
            units <= MAX_UNITS_PER_BYTE * bytes as u64,
            "{units} units exceed {MAX_UNITS_PER_BYTE}·{bytes} bytes"
        );
    }

    /// Every strict prefix of a valid frame fails to decode with a typed
    /// error — and never panics.
    #[test]
    fn truncated_frames_yield_typed_errors(msg in message_strategy(), cut in 0.0..1.0f64) {
        let encoded = msg.encode();
        let len = ((encoded.len() as f64) * cut) as usize; // < encoded.len()
        let result = msg.decode_as_self(&encoded[..len]);
        prop_assert!(result.is_err(), "a strict prefix decoded");
    }

    /// Arbitrary single-bit corruption either still decodes (the flipped bit
    /// landed in a payload) or fails with a typed error — and never panics.
    #[test]
    fn bit_flipped_frames_never_panic(
        msg in message_strategy(),
        pos in 0.0..1.0f64,
        bit in 0..8u32,
    ) {
        let mut encoded = msg.encode();
        let index = ((encoded.len() as f64) * pos) as usize % encoded.len();
        encoded[index] ^= 1 << bit;
        // The outcome (Ok with different content, or any CodecError) is
        // data-dependent; the property is the absence of panics and of
        // unbounded allocations.
        let _ = msg.decode_as_self(&encoded);
    }

    /// Arbitrary garbage bytes never panic any decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = TrivialMessage::decode(&bytes);
        let _ = EarsMessage::decode(&bytes);
        let _ = SearsMessage::decode(&bytes);
        let _ = TearsMessage::decode(&bytes);
        let _ = SyncMessage::decode(&bytes);
    }

    /// Differential: on a valid round-trip frame the zero-copy view decoder
    /// and the owned decoder produce equal messages, for all six kinds at
    /// arbitrary n.
    #[test]
    fn view_decode_equals_owned_decode_on_round_trips(msg in message_strategy()) {
        assert_view_matches_owned(&msg, &msg.encode());
    }

    /// Differential over the corrupt-frame corpus: truncation and single-bit
    /// flips drive the view and owned decoders to the *same* outcome —
    /// equal messages when both accept, the same typed error when both
    /// reject, never a split, never a panic.
    #[test]
    fn view_decode_equals_owned_decode_on_corrupt_frames(
        msg in message_strategy(),
        pos in 0.0..1.0f64,
        bit in 0..8u32,
        cut in 0.0..1.0f64,
    ) {
        let mut encoded = msg.encode();
        let len = ((encoded.len() as f64) * cut) as usize; // < encoded.len()
        assert_view_matches_owned(&msg, &encoded[..len]);
        let index = ((encoded.len() as f64) * pos) as usize % encoded.len();
        encoded[index] ^= 1 << bit;
        assert_view_matches_owned(&msg, &encoded);
    }

    /// Differential over arbitrary garbage: every kind's view decoder
    /// agrees byte-for-byte with its owned decoder on what is rejected and
    /// with which error — and neither ever panics.
    #[test]
    fn view_decode_equals_owned_decode_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        fn agree<M: WireDecodeView + PartialEq + std::fmt::Debug>(bytes: &[u8]) {
            match (M::decode(bytes), M::decode_view(bytes).map(|v| M::view_to_owned(&v))) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "decode outcomes split: owned {a:?} vs view {b:?}"),
            }
        }
        agree::<TrivialMessage>(&bytes);
        agree::<EarsMessage>(&bytes);
        agree::<SearsMessage>(&bytes);
        agree::<TearsMessage>(&bytes);
        agree::<SyncMessage>(&bytes);
    }

    /// Cross-kind confusion is caught: a frame of one kind fed to another
    /// kind's decoder is a `BadKind` error, not a misparse.
    #[test]
    fn wrong_kind_decoders_reject_valid_frames(msg in message_strategy()) {
        let encoded = msg.encode();
        if !matches!(msg, AnyMessage::Trivial(_)) {
            prop_assert!(matches!(
                TrivialMessage::decode(&encoded),
                Err(CodecError::BadKind(_))
            ));
        }
        if !matches!(msg, AnyMessage::Sync(_)) {
            prop_assert!(matches!(
                SyncMessage::decode(&encoded),
                Err(CodecError::BadKind(_))
            ));
        }
    }
}

/// `default` cases per property, or `PROPTEST_CASES` when it is set (the
/// nightly Miri job runs the varint differential on a handful of cases).
fn cases(default: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

/// LEB128 one byte at a time with the overflow test on each: the reader the
/// codec had before its word-at-a-time paths, kept here as the oracle.
fn read_varint_oracle(bytes: &[u8]) -> Result<(u64, usize), CodecError> {
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

proptest! {
    #![proptest_config(cases(2048))]

    /// Differential: `read_varint` returns the oracle's value, length and
    /// error variant on arbitrary bytes. `continuing` of the first 0–12
    /// bytes are forced to continue so long chains are as common as short
    /// ones, and an arbitrary tail follows because the word path loads eight
    /// bytes whatever the varint's length.
    #[test]
    fn varint_reader_equals_the_byte_loop(
        head in prop::collection::vec(any::<u8>(), 0..13),
        continuing in 0..13usize,
        tail in prop::collection::vec(any::<u8>(), 0..12),
    ) {
        let mut input = head;
        for byte in input.iter_mut().take(continuing) {
            *byte |= 0x80;
        }
        input.extend_from_slice(&tail);
        prop_assert_eq!(read_varint(&input), read_varint_oracle(&input), "{:02x?}", input);
    }
}

/// A protocol engine's own messages survive the codec: drive a real
/// `Trivial` engine, encode everything it emits, decode, and compare.
#[test]
fn engine_emitted_messages_round_trip() {
    use agossip_core::{GossipCtx, GossipEngine};
    let ctx = GossipCtx::new(ProcessId(2), 8, 1, 99);
    let mut engine = Trivial::new(ctx);
    let mut out = Vec::new();
    engine.local_step(&mut out);
    assert_eq!(out.len(), 7);
    for (_, msg) in out {
        let decoded = TrivialMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }
}
