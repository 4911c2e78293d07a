//! Representation-differential proptests: the dense word-packed `RumorSet`
//! and `InformedList` against the historical tree-based implementations,
//! kept as test-only oracles.
//!
//! The seed representations are `BTreeMap<ProcessId, u64>` keyed by origin
//! ([`agossip_bench::rumorset::BTreeRumorSet`], shared with the
//! `rumor_baseline` perf runner) and `BTreeSet<(ProcessId, ProcessId)>` of
//! pairs (re-implemented verbatim below). Arbitrary operation sequences
//! must drive the dense and tree representations to observably identical
//! states — same membership, same lengths, same union deltas, same
//! iteration order, same coverage queries. Together with the golden pins in
//! `seed_equivalence.rs` this proves the bitset rewrite is bit-for-bit
//! equivalent to the pre-change behaviour.
//!
//! Ids come from a narrow universe (a few words: the sets go dense after a
//! handful of entries) or from a wide one (at most 64 ids out of `0..2^20`:
//! the sets stay sorted entry lists), so both forms meet the oracle; and
//! `promotion_follows_density_and_matches_oracle` pins *when* a set changes
//! form — as soon as, and not before, its dense form is no larger. The
//! informed-list driver also floods lists into their origin × target
//! matrix form and sends them back to rows with pairs as far as
//! `MAX_WIRE_ID − 1`, mid-sequence.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use agossip_bench::rumorset::BTreeRumorSet;
use agossip_core::codec::MAX_WIRE_ID;
use agossip_core::informed_list::InformedList;
use agossip_core::{
    EarsMessage, Rumor, RumorSet, SyncMessage, WireCodec, WireDecodeView, ADAPTIVE_SPARSE_LIMIT,
};
use agossip_sim::ProcessId;

/// Wide universe: so few of so many ids that a set stays sparse.
const WIDE_UNIVERSE: usize = 1 << 20;

/// The seed `InformedList`: a sorted set of `(origin, target)` pairs.
#[derive(Default, Clone)]
struct OracleInformedList {
    pairs: BTreeSet<(ProcessId, ProcessId)>,
}

impl OracleInformedList {
    fn insert(&mut self, origin: ProcessId, target: ProcessId) -> bool {
        self.pairs.insert((origin, target))
    }

    fn insert_all(&mut self, rumors: &BTreeRumorSet, target: ProcessId) {
        for r in rumors.iter() {
            self.pairs.insert((r.origin, target));
        }
    }

    fn contains(&self, origin: ProcessId, target: ProcessId) -> bool {
        self.pairs.contains(&(origin, target))
    }

    fn union(&mut self, other: &OracleInformedList) -> usize {
        let before = self.pairs.len();
        self.pairs.extend(other.pairs.iter().copied());
        self.pairs.len() - before
    }

    fn is_superset_of(&self, other: &OracleInformedList) -> bool {
        self.pairs.is_superset(&other.pairs)
    }

    fn uncovered_targets(&self, rumors: &BTreeRumorSet, n: usize) -> Vec<ProcessId> {
        ProcessId::all(n)
            .filter(|&q| rumors.iter().any(|r| !self.contains(r.origin, q)))
            .collect()
    }

    fn covers_all(&self, rumors: &BTreeRumorSet, n: usize) -> bool {
        ProcessId::all(n).all(|q| rumors.iter().all(|r| self.contains(r.origin, q)))
    }
}

/// One operation of the `RumorSet` differential driver.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(usize, u64),
    /// Union with a set built from these rumors.
    Union(Vec<(usize, u64)>),
}

fn set_op_strategy(universe: usize) -> impl Strategy<Value = SetOp> {
    (
        0..2usize,
        (0..universe, any::<u64>()),
        prop::collection::vec((0..universe, any::<u64>()), 0..12),
    )
        .prop_map(|(tag, (o, p), rumors)| match tag {
            0 => SetOp::Insert(o, p),
            _ => SetOp::Union(rumors),
        })
}

/// Up to 24 operations over `0..narrow`, or — half the time — up to 6 over
/// the wide universe (no more than 64 ids in all).
fn set_ops_strategy(narrow: usize) -> impl Strategy<Value = Vec<SetOp>> {
    any::<bool>().prop_flat_map(move |wide| {
        let (universe, ops) = if wide {
            (WIDE_UNIVERSE, 6)
        } else {
            (narrow, 24)
        };
        prop::collection::vec(set_op_strategy(universe), 0..ops)
    })
}

/// Applies `op` to the set and its oracle, asserting equal return values.
/// With `identity` every payload is replaced by its origin (the plain-gossip
/// tagging), otherwise every other one is, so vote-like sets mix both kinds
/// and an origin can arrive twice with different payloads. Returns the
/// origins the operation mentioned.
fn apply_set_op(
    op: SetOp,
    identity: bool,
    set: &mut RumorSet,
    oracle: &mut BTreeRumorSet,
) -> Vec<ProcessId> {
    let rumor = |(o, p): (usize, u64)| {
        let tagged = identity || p.is_multiple_of(2);
        Rumor::new(ProcessId(o), if tagged { o as u64 } else { p })
    };
    match op {
        SetOp::Insert(origin, payload) => {
            let r = rumor((origin, payload));
            prop_assert_eq!(set.insert(r), oracle.insert(r));
            vec![r.origin]
        }
        SetOp::Union(rumors) => {
            let mut set_arg = RumorSet::new();
            let mut oracle_arg = BTreeRumorSet::default();
            for r in rumors.into_iter().map(rumor) {
                set_arg.insert(r);
                oracle_arg.insert(r);
            }
            prop_assert_eq!(set.union(&set_arg), oracle.union(&oracle_arg));
            // Superset relations agree in both directions.
            prop_assert_eq!(
                set.is_superset_of(&set_arg),
                oracle.is_superset_of(&oracle_arg)
            );
            prop_assert_eq!(
                set_arg.is_superset_of(set),
                oracle_arg.is_superset_of(oracle)
            );
            oracle_arg.iter().map(|r| r.origin).collect()
        }
    }
}

/// The bytes of a set's sorted entry list and of its dense form (presence
/// words up to the largest origin, plus 64 payloads per word unless every
/// payload is its origin), as the promotion rule counts them.
fn sparse_and_dense_bytes(oracle: &BTreeRumorSet) -> (usize, usize) {
    let words = oracle
        .iter()
        .last()
        .map_or(0, |r| r.origin.index() / 64 + 1);
    let identity = oracle.iter().all(|r| r.payload == r.origin.index() as u64);
    (
        16 * oracle.len(),
        words * if identity { 8 } else { 8 + 64 * 8 },
    )
}

/// One operation of the `InformedList` differential driver.
#[derive(Debug, Clone)]
enum ListOp {
    Insert(usize, usize),
    /// `insert_all` of a rumor set built from these origins.
    InsertAll(Vec<usize>, usize),
    /// Union with a list built from these pairs.
    Union(Vec<(usize, usize)>),
    /// `insert_all` of every origin's rumor, once per target: each row
    /// gains the same targets, so a list whose rows all go dense switches
    /// to its matrix form.
    Flood(Vec<usize>),
    /// `is_superset_of_view` and `union_view` of a decoded `ears` frame
    /// whose list holds these pairs plus every origin flooded to these
    /// targets (enough flooded targets make the section dense).
    UnionView(Vec<(usize, usize)>, Vec<usize>),
    /// One far pair — ids up to `MAX_WIRE_ID − 1` — inserted directly or
    /// through a decoded frame: a matrix must go back to rows rather than
    /// grow to reach it.
    Far(usize, usize, bool),
}

/// The largest id a frame may carry.
const FAR: usize = MAX_WIRE_ID as usize - 1;

/// Origins from `0..origins`; targets from `0..origins` too or — half the
/// time, per sequence — from the wide universe, where a row stays a short
/// sorted id list instead of going dense at its second target. Flooded
/// targets span two words, so a matrix also widens its stride. A sequence
/// may end with a far-origin pair (`(2^20 − 1, ·)`): the list's rows then
/// reach `2^20` origins, so it comes last, in one sequence of eight, and
/// not under Miri (far targets already take a matrix back to rows there).
fn list_ops_strategy(origins: usize) -> impl Strategy<Value = Vec<ListOp>> {
    (any::<bool>(), 0..8usize).prop_flat_map(move |(wide, tail)| {
        let targets = if wide { WIDE_UNIVERSE } else { origins };
        (
            prop::collection::vec(list_op_strategy(origins, targets), 0..24),
            (FAR - 64..=FAR, any::<bool>()),
        )
            .prop_map(move |(mut ops, (t, via_frame))| {
                if tail == 0 && !cfg!(miri) {
                    ops.push(ListOp::Far(FAR, t, via_frame));
                }
                ops
            })
    })
}

fn list_op_strategy(origins: usize, targets: usize) -> impl Strategy<Value = ListOp> {
    (
        0..7usize,
        (0..origins, 0..targets),
        prop::collection::vec(0..origins, 0..6),
        prop::collection::vec((0..origins, 0..targets), 0..16),
        (prop::collection::vec(0..128usize, 0..8), any::<bool>()),
        FAR - 64..=FAR,
    )
        .prop_map(
            |(tag, (o, t), origins, pairs, (flood, via_frame), far)| match tag {
                0 => ListOp::Insert(o, t),
                1 => ListOp::InsertAll(origins, t),
                2 => ListOp::Union(pairs),
                3 => ListOp::Flood(flood),
                4 | 5 => ListOp::UnionView(pairs, flood),
                // A far target in a narrow origin's row (a far origin is
                // left to the sequence's tail).
                _ => ListOp::Far(o, far, via_frame),
            },
        )
}

/// A list and its oracle twin holding the same pairs.
fn list_pair(
    pairs: impl IntoIterator<Item = (usize, usize)>,
) -> (InformedList, OracleInformedList) {
    let mut list = InformedList::new();
    let mut oracle = OracleInformedList::default();
    for (o, t) in pairs {
        list.insert(ProcessId(o), ProcessId(t));
        oracle.insert(ProcessId(o), ProcessId(t));
    }
    (list, oracle)
}

/// The encoded `ears` frame carrying `list` (and no rumors).
fn ears_frame(list: InformedList) -> Vec<u8> {
    EarsMessage {
        rumors: Arc::new(RumorSet::new()),
        informed: Arc::new(list),
    }
    .encode()
}

/// `default` cases per property, or `PROPTEST_CASES` when it is set (the
/// nightly Miri job runs the informed-list driver on a handful of cases).
fn cases(default: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(cases(128))]

    /// Arbitrary insert/union sequences drive the dense and tree-based rumor
    /// sets to identical observable states.
    #[test]
    fn rumor_set_matches_btreemap_oracle(
        ops in set_ops_strategy(200),
    ) {
        let mut dense = RumorSet::new();
        let mut oracle = BTreeRumorSet::default();
        for op in ops {
            let mentioned = apply_set_op(op, false, &mut dense, &mut oracle);
            // Observable state is identical after every operation.
            prop_assert_eq!(dense.len(), oracle.len());
            prop_assert_eq!(dense.is_empty(), oracle.is_empty());
            let dense_rumors: Vec<Rumor> = dense.iter().collect();
            let oracle_rumors: Vec<Rumor> = oracle.iter().collect();
            prop_assert_eq!(dense_rumors, oracle_rumors, "iteration order must match");
            for q in ProcessId::all(200).chain(mentioned) {
                prop_assert_eq!(dense.get(q), oracle.get(q));
                prop_assert_eq!(dense.contains_origin(q), oracle.contains_origin(q));
            }
        }
    }

    /// The density rule, from outside: over arbitrary insert/union
    /// sequences with gossip (identity) or vote-like payloads, (i) a non-empty
    /// set that is still sparse is strictly smaller than its dense form would
    /// be, and within the cap; (ii) promotion is one-way; (iii) contents,
    /// ascending iteration and union deltas equal the `BTreeMap` oracle's,
    /// and the encoded bytes equal those of a force-promoted twin.
    #[test]
    fn promotion_follows_density_and_matches_oracle(
        ops in set_ops_strategy(3 * ADAPTIVE_SPARSE_LIMIT),
        identity in any::<bool>(),
    ) {
        let mut set = RumorSet::new();
        let mut oracle = BTreeRumorSet::default();
        let mut was_dense = false;
        for op in ops {
            apply_set_op(op, identity, &mut set, &mut oracle);

            if !set.is_dense() && !set.is_empty() {
                let (sparse, dense) = sparse_and_dense_bytes(&oracle);
                prop_assert!(
                    sparse < dense,
                    "still sparse at {sparse} B against {dense} B dense: {oracle:?}"
                );
                prop_assert!(set.len() <= ADAPTIVE_SPARSE_LIMIT);
            }
            prop_assert!(set.is_dense() || !was_dense, "a dense set went back to sparse");
            was_dense = set.is_dense();

            let held: Vec<Rumor> = set.iter().collect();
            let want: Vec<Rumor> = oracle.iter().collect();
            prop_assert_eq!(held, want, "contents and order must match the oracle");
            prop_assert_eq!(set.len(), oracle.len());
            let mut twin = set.clone();
            twin.force_dense();
            prop_assert_eq!(
                SyncMessage { rumors: Arc::new(set.clone()) }.encode(),
                SyncMessage { rumors: Arc::new(twin) }.encode(),
                "wire bytes must not depend on the representation"
            );
        }
    }

    /// Arbitrary insert/insert_all/union sequences — with floods that turn
    /// a list into its matrix form, unions of decoded frames, and far pairs
    /// that turn it back into rows — drive the dense and tree-based
    /// informed-lists to identical observable states, including the `L(p)`
    /// coverage queries `ears`/`sears` evaluate every step.
    #[test]
    fn informed_list_matches_btreeset_oracle(
        ops in list_ops_strategy(48),
        probe_origins in prop::collection::vec(0..48usize, 0..6),
    ) {
        let n = 48;
        let mut dense = InformedList::new();
        let mut oracle = OracleInformedList::default();
        // A probe rumor set for the coverage queries.
        let mut dense_probe = RumorSet::new();
        let mut oracle_probe = BTreeRumorSet::default();
        for o in probe_origins {
            let r = Rumor::new(ProcessId(o), o as u64);
            dense_probe.insert(r);
            oracle_probe.insert(r);
        }
        for op in ops {
            match op {
                ListOp::Insert(o, t) => {
                    prop_assert_eq!(
                        dense.insert(ProcessId(o), ProcessId(t)),
                        oracle.insert(ProcessId(o), ProcessId(t))
                    );
                }
                ListOp::InsertAll(origins, t) => {
                    let mut dense_arg = RumorSet::new();
                    let mut oracle_arg = BTreeRumorSet::default();
                    for o in origins {
                        let r = Rumor::new(ProcessId(o), 0);
                        dense_arg.insert(r);
                        oracle_arg.insert(r);
                    }
                    dense.insert_all(&dense_arg, ProcessId(t));
                    oracle.insert_all(&oracle_arg, ProcessId(t));
                }
                ListOp::Union(pairs) => {
                    let (dense_arg, oracle_arg) = list_pair(pairs);
                    prop_assert_eq!(
                        dense.is_superset_of(&dense_arg),
                        oracle.is_superset_of(&oracle_arg)
                    );
                    prop_assert_eq!(
                        dense_arg.is_superset_of(&dense),
                        oracle_arg.is_superset_of(&oracle)
                    );
                    prop_assert_eq!(dense.union(&dense_arg), oracle.union(&oracle_arg));
                }
                ListOp::Flood(targets) => {
                    let mut dense_arg = RumorSet::new();
                    let mut oracle_arg = BTreeRumorSet::default();
                    for o in 0..n {
                        dense_arg.insert(Rumor::new(ProcessId(o), 0));
                        oracle_arg.insert(Rumor::new(ProcessId(o), 0));
                    }
                    for t in targets {
                        dense.insert_all(&dense_arg, ProcessId(t));
                        oracle.insert_all(&oracle_arg, ProcessId(t));
                    }
                }
                ListOp::UnionView(pairs, flood) => {
                    let flooded = flood.iter().flat_map(|&t| (0..n).map(move |o| (o, t)));
                    let (dense_arg, oracle_arg) = list_pair(pairs.into_iter().chain(flooded));
                    let frame = ears_frame(dense_arg);
                    let view = EarsMessage::decode_view(&frame).unwrap().informed;
                    prop_assert_eq!(
                        dense.is_superset_of_view(&view),
                        oracle.is_superset_of(&oracle_arg)
                    );
                    prop_assert_eq!(dense.union_view(&view), oracle.union(&oracle_arg));
                }
                ListOp::Far(o, t, via_frame) => {
                    if via_frame {
                        let (dense_arg, _) = list_pair([(o, t)]);
                        let frame = ears_frame(dense_arg);
                        let view = EarsMessage::decode_view(&frame).unwrap().informed;
                        prop_assert_eq!(
                            dense.is_superset_of_view(&view),
                            oracle.contains(ProcessId(o), ProcessId(t))
                        );
                        prop_assert_eq!(
                            dense.union_view(&view),
                            usize::from(oracle.insert(ProcessId(o), ProcessId(t)))
                        );
                    } else {
                        prop_assert_eq!(
                            dense.insert(ProcessId(o), ProcessId(t)),
                            oracle.insert(ProcessId(o), ProcessId(t))
                        );
                    }
                }
            }
            prop_assert_eq!(dense.len(), oracle.pairs.len());
            let dense_pairs: Vec<_> = dense.iter().collect();
            let oracle_pairs: Vec<_> = oracle.pairs.iter().copied().collect();
            prop_assert_eq!(dense_pairs, oracle_pairs, "pair iteration order must match");
            prop_assert_eq!(
                dense.uncovered_targets(&dense_probe, n),
                oracle.uncovered_targets(&oracle_probe, n)
            );
            prop_assert_eq!(
                dense.covers_all(&dense_probe, n),
                oracle.covers_all(&oracle_probe, n)
            );
        }
    }
}
