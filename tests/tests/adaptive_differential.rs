//! Representation-differential proptests for the adaptive sparse/dense
//! rework: the same operation sequence is driven once against sets left in
//! their natural adaptive representation (sparse id lists promoting to the
//! dense word-packed form as soon as that is no larger) and once against
//! copies force-promoted to dense up front. Every observable — membership,
//! length, union deltas, iteration order, coverage queries, equality, and
//! the exact wire bytes of the codec — must be identical regardless of which
//! representation each set happens to be in, and folding a borrowed wire
//! view in (`union_view` / `is_superset_of_view`) must agree with both.
//!
//! Two universes are drawn. The narrow one (12 words) goes dense after a
//! handful of entries, so its sequences live in the post-promotion states;
//! the wide one (at most 64 ids out of `0..2^20`) never fills its bitmap, so
//! its natural sets stay sparse and every sparse×sparse, sparse×dense and
//! dense×sparse pairing of the binary operations is exercised. Together
//! with the oracle tests in `rumor_differential.rs` and the golden pins in
//! `seed_equivalence.rs` this proves the adaptive rework is bit-for-bit
//! equivalent to the dense-only behaviour.

use std::sync::Arc;

use proptest::prelude::*;

use agossip_core::informed_list::InformedList;
use agossip_core::{
    EarsMessage, Rumor, RumorSet, SyncMessage, WireCodec, WireDecodeView, ADAPTIVE_SPARSE_LIMIT,
};
use agossip_sim::ProcessId;

/// Narrow universe of origins: a few words, dense almost at once.
const UNIVERSE: usize = 3 * ADAPTIVE_SPARSE_LIMIT;

/// Wide universe: so few of so many ids that a natural set stays sparse.
const WIDE_UNIVERSE: usize = 1 << 20;

/// Most ids a wide-universe sequence may mention in total.
const WIDE_IDS: usize = 64;

/// One operation of the differential driver, applied to both twins.
#[derive(Debug, Clone)]
enum Op {
    Insert(usize, u64),
    /// Union with a set built from these rumors (the argument itself is
    /// built adaptively on one side and force-promoted on the other).
    Union(Vec<(usize, u64)>),
}

fn op_strategy(universe: usize, union_len: usize) -> impl Strategy<Value = Op> {
    (
        0..2usize,
        (0..universe, any::<u64>()),
        prop::collection::vec((0..universe, any::<u64>()), 0..union_len),
    )
        .prop_map(|(tag, (o, p), rumors)| match tag {
            0 => Op::Insert(o, p),
            _ => Op::Union(rumors),
        })
}

/// Up to 16 operations over the narrow universe (unions of up to a few
/// hundred rumors) or, when `wide`, over the wide one (8 operations of at
/// most 7 ids each, so no more than [`WIDE_IDS`] ids in all).
fn ops_strategy(wide: bool) -> impl Strategy<Value = Vec<Op>> {
    let (universe, union_len, ops) = if wide {
        (WIDE_UNIVERSE, WIDE_IDS / 8, 8)
    } else {
        (UNIVERSE, ADAPTIVE_SPARSE_LIMIT + 64, 16)
    };
    prop::collection::vec(op_strategy(universe, union_len), 0..ops + 1)
}

fn set_from(rumors: &[(usize, u64)]) -> RumorSet {
    let mut set = RumorSet::new();
    for &(o, p) in rumors {
        set.insert(Rumor::new(ProcessId(o), p));
    }
    set
}

fn dense_twin(set: &RumorSet) -> RumorSet {
    let mut twin = set.clone();
    twin.force_dense();
    twin
}

fn list_from(pairs: &[(usize, usize)]) -> InformedList {
    let mut list = InformedList::new();
    for &(o, t) in pairs {
        list.insert(ProcessId(o), ProcessId(t));
    }
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary insert/union sequences observe identical state whether the
    /// sets stay adaptive, are force-promoted to dense up front, or take
    /// every union as a borrowed wire view.
    #[test]
    fn rumor_set_observables_are_representation_independent(
        ops in any::<bool>().prop_flat_map(ops_strategy),
        identity_payloads in any::<bool>(),
    ) {
        let mut adaptive = RumorSet::new();
        let mut dense = RumorSet::new();
        dense.force_dense();
        let mut viewed = RumorSet::new();
        let mut mentioned = vec![0usize];
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(origin, payload) => {
                    let payload = if identity_payloads { origin as u64 } else { payload };
                    let r = Rumor::new(ProcessId(origin), payload);
                    mentioned.push(origin);
                    let fresh = dense.insert(r);
                    prop_assert_eq!(adaptive.insert(r), fresh);
                    prop_assert_eq!(viewed.insert(r), fresh);
                }
                Op::Union(rumors) => {
                    let rumors: Vec<(usize, u64)> = if identity_payloads {
                        rumors.iter().map(|&(o, _)| (o, o as u64)).collect()
                    } else {
                        rumors
                    };
                    mentioned.extend(rumors.iter().map(|&(o, _)| o));
                    let arg = set_from(&rumors);
                    // Cross the representations on the argument side too:
                    // the forced-dense receiver always takes the natural
                    // argument; the natural receiver takes the natural one
                    // on even steps (sparse × sparse while both are small)
                    // and its forced-dense twin on odd ones.
                    let crossed = if step % 2 == 0 { arg.clone() } else { dense_twin(&arg) };
                    let frame = SyncMessage { rumors: Arc::new(arg.clone()) }.encode();
                    let view = SyncMessage::decode_view(&frame).unwrap().rumors;

                    let covered = dense.is_superset_of(&arg);
                    prop_assert_eq!(adaptive.is_superset_of(&crossed), covered);
                    prop_assert_eq!(adaptive.is_superset_of_view(&view), covered);
                    prop_assert_eq!(dense.is_superset_of_view(&view), covered);
                    prop_assert_eq!(arg.is_superset_of(&adaptive), crossed.is_superset_of(&dense));

                    let added = dense.union(&arg);
                    prop_assert_eq!(adaptive.union(&crossed), added);
                    prop_assert_eq!(viewed.union_view(&view), added);
                    prop_assert_eq!(covered, added == 0);
                }
            }
            prop_assert_eq!(adaptive.len(), dense.len());
            prop_assert_eq!(adaptive == dense, true, "PartialEq must ignore representation");
            prop_assert_eq!(&viewed, &adaptive, "view unions must land the same contents");
            let a: Vec<Rumor> = adaptive.iter().collect();
            let d: Vec<Rumor> = dense.iter().collect();
            prop_assert_eq!(a, d, "iteration order must match");
            for &o in &mentioned {
                for q in [ProcessId(o), ProcessId(o + 1)] {
                    prop_assert_eq!(adaptive.get(q), dense.get(q));
                    prop_assert_eq!(viewed.get(q), dense.get(q));
                }
            }
            prop_assert_eq!(
                adaptive.is_superset_of(&dense) && dense.is_superset_of(&adaptive),
                true
            );
        }
    }

    /// The wire codec emits byte-identical frames for a message whose sets
    /// are adaptive and its force-promoted twin — the sparse-vs-dense wire
    /// section choice is a pure function of the contents.
    #[test]
    fn wire_bytes_are_representation_independent(
        (rumors, pairs) in any::<bool>().prop_flat_map(|wide| {
            let (universe, len) = if wide {
                (WIDE_UNIVERSE, WIDE_IDS)
            } else {
                (UNIVERSE, ADAPTIVE_SPARSE_LIMIT + 32)
            };
            (
                prop::collection::vec(0..universe, 0..len),
                prop::collection::vec((0..UNIVERSE, 0..if wide { universe } else { 64 }), 0..len),
            )
        }),
    ) {
        let mut set = RumorSet::new();
        for &o in &rumors {
            set.insert(Rumor::new(ProcessId(o), o as u64));
        }
        let informed = list_from(&pairs);
        let mut dense_set = set.clone();
        dense_set.force_dense();
        let mut dense_informed = informed.clone();
        dense_informed.force_dense();

        let adaptive_frame = EarsMessage {
            rumors: Arc::new(set),
            informed: Arc::new(informed),
        }
        .encode();
        let dense_frame = EarsMessage {
            rumors: Arc::new(dense_set),
            informed: Arc::new(dense_informed),
        }
        .encode();
        prop_assert_eq!(&adaptive_frame, &dense_frame, "wire bytes diverged across representations");

        // And the frame round-trips back to equal state.
        let decoded = EarsMessage::decode(&adaptive_frame).unwrap();
        let reencoded = decoded.encode();
        prop_assert_eq!(adaptive_frame, reencoded);
    }

    /// `InformedList` coverage queries, unions and view unions agree between
    /// adaptive rows and force-promoted rows. Targets come from `0..48` (a
    /// row is dense from its second target on, and a union may leave a list
    /// whose rows are all dense in its one-matrix form) or from the wide
    /// universe (a row stays a short id list, and the list stays in rows).
    #[test]
    fn informed_list_observables_are_representation_independent(
        (pairs, extra) in any::<bool>().prop_flat_map(|wide| {
            let (targets, len) = if wide {
                (WIDE_UNIVERSE, WIDE_IDS)
            } else {
                (48, ADAPTIVE_SPARSE_LIMIT + 32)
            };
            (
                prop::collection::vec((0..UNIVERSE, 0..targets), 0..len),
                prop::collection::vec((0..UNIVERSE, 0..targets), 0..32),
            )
        }),
        probe_origins in prop::collection::vec(0..UNIVERSE, 0..8),
    ) {
        let n = 48;
        let mut adaptive = InformedList::new();
        let mut dense = InformedList::new();
        for &(o, t) in &pairs {
            prop_assert_eq!(
                adaptive.insert(ProcessId(o), ProcessId(t)),
                dense.insert(ProcessId(o), ProcessId(t))
            );
        }
        dense.force_dense();
        let mut viewed = adaptive.clone();

        let mut probe = RumorSet::new();
        for &o in &probe_origins {
            probe.insert(Rumor::new(ProcessId(o), o as u64));
        }
        prop_assert_eq!(adaptive.len(), dense.len());
        let a: Vec<_> = adaptive.iter().collect();
        let d: Vec<_> = dense.iter().collect();
        prop_assert_eq!(a, d, "pair iteration order must match");
        prop_assert_eq!(
            adaptive.uncovered_targets(&probe, n),
            dense.uncovered_targets(&probe, n)
        );
        prop_assert_eq!(adaptive.covers_all(&probe, n), dense.covers_all(&probe, n));

        // Union across mixed representations: adaptive ∪ dense-arg must
        // report the same delta as dense ∪ adaptive-arg, and as folding the
        // argument's wire view into an adaptive list.
        let adaptive_arg = list_from(&extra);
        let mut dense_arg = adaptive_arg.clone();
        dense_arg.force_dense();
        let frame = EarsMessage {
            rumors: Arc::new(RumorSet::new()),
            informed: Arc::new(adaptive_arg.clone()),
        }
        .encode();
        let view = EarsMessage::decode_view(&frame).unwrap().informed;

        let covered = dense.is_superset_of(&adaptive_arg);
        prop_assert_eq!(adaptive.is_superset_of(&dense_arg), covered);
        prop_assert_eq!(adaptive.is_superset_of(&adaptive_arg), covered);
        prop_assert_eq!(adaptive.is_superset_of_view(&view), covered);
        prop_assert_eq!(dense.is_superset_of_view(&view), covered);

        let added = dense.union(&adaptive_arg);
        prop_assert_eq!(viewed.union_view(&view), added);
        let mut sparse_pair = adaptive.clone();
        prop_assert_eq!(sparse_pair.union(&adaptive_arg), added);
        prop_assert_eq!(adaptive.union(&dense_arg), added);
        prop_assert_eq!(adaptive.len(), dense.len());
        let a: Vec<_> = adaptive.iter().collect();
        let d: Vec<_> = dense.iter().collect();
        prop_assert_eq!(&a, &d, "post-union pair iteration order must match");
        let v: Vec<_> = viewed.iter().collect();
        prop_assert_eq!(&v, &d, "view union must land the same pairs");
        prop_assert_eq!(sparse_pair, adaptive);
    }
}
