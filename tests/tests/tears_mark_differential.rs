//! Differential proptest for the per-sender high-water mark in `tears`.
//!
//! A `tears` process skips the superset test and the union for a snapshot
//! no larger than one it has already merged from the same sender: the
//! snapshots one sender ships form an inclusion chain, so such a snapshot is
//! held already. This file holds that shortcut equal to an oracle that
//! always runs the superset test and then the union — on the rumor set, the
//! first-level count, and every send of the next local step — through both
//! `deliver` and `deliver_encoded` on the encoded frames.
//!
//! `n` is drawn from both sides of the mark's list/array crossover (8 …
//! 20 000, under the paper's constants and under a small `a`, so a list
//! also meets enough senders to promote). Each sender ships one random
//! inclusion chain, with identity or explicit payloads and with runs of
//! consecutive origins so that sets go dense; the links are delivered
//! shuffled, with duplicates and random flags, in random batches with a
//! local step after each.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use agossip_core::{
    GossipCtx, GossipEngine, Rumor, RumorSet, Tears, TearsFlag, TearsMessage, TearsParams,
    WireCodec,
};
use agossip_sim::ProcessId;

/// `default` cases per property, or `PROPTEST_CASES` when it is set (the
/// nightly Miri job runs this file on a handful of cases).
fn cases(default: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

/// SplitMix64: one seed fixes a case's chains, order, flags and batches.
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
        ((u128::from(self.next()) * bound as u128) >> 64) as usize
    }
}

/// One engine's inputs: its context, and the deliveries cut into batches.
struct Case {
    ctx: GossipCtx,
    params: TearsParams,
    deliveries: Vec<(ProcessId, TearsMessage)>,
    batches: Vec<usize>,
}

fn build_case(n: usize, paper: bool, identity: bool, seed: u64) -> Case {
    let mut mix = Mix(seed);
    let payload = |j: usize| if identity { j as u64 } else { 2 * j as u64 + 1 };
    let rumor = |j: usize| Rumor::new(ProcessId(j), payload(j));
    let pid = mix.below(n);
    let ctx = GossipCtx::new(ProcessId(pid), n, (n - 1) / 2, seed).with_payload(payload(pid));
    let params = if paper {
        TearsParams::default()
    } else {
        TearsParams {
            a_factor: 0.05,
            ..TearsParams::default()
        }
    };

    let sender_count = 1 + mix.below((n - 1).min(48));
    let mut senders = BTreeSet::new();
    while senders.len() < sender_count {
        let q = mix.below(n);
        if q != pid {
            senders.insert(q);
        }
    }

    let mut deliveries = Vec::new();
    for &q in &senders {
        // The chain: the sender's own rumor, then links that only grow.
        let mut set = RumorSet::singleton(rumor(q));
        for link in 0..1 + mix.below(5) {
            if link > 0 {
                if mix.below(4) == 0 {
                    let start = mix.below(n);
                    let end = n.min(start + 1 + mix.below(300));
                    for j in start..end {
                        set.insert(rumor(j));
                    }
                } else {
                    for _ in 0..1 + mix.below(4) {
                        set.insert(rumor(mix.below(n)));
                    }
                }
            }
            let snapshot = Arc::new(set.clone());
            for _ in 0..1 + mix.below(3) {
                let flag = if mix.below(2) == 0 {
                    TearsFlag::Up
                } else {
                    TearsFlag::Down
                };
                let rumors = Arc::clone(&snapshot);
                deliveries.push((ProcessId(q), TearsMessage { rumors, flag }));
            }
        }
    }
    for i in (1..deliveries.len()).rev() {
        deliveries.swap(i, mix.below(i + 1));
    }

    let mut batches = Vec::new();
    let mut left = deliveries.len();
    while left > 0 {
        let size = left.min(1 + mix.below(8));
        batches.push(size);
        left -= size;
    }
    Case {
        ctx,
        params,
        deliveries,
        batches,
    }
}

/// `tears` without the mark: every delivery runs the superset test and,
/// when that fails, the union. The trigger rule and the neighbourhoods are
/// the engine's own (neither is what this file tests).
struct Oracle {
    rumors: RumorSet,
    up: u64,
    pending: u64,
    first_level_sent: bool,
}

impl Oracle {
    fn new(engine: &Tears) -> Self {
        Oracle {
            rumors: engine.rumors().clone(),
            up: 0,
            pending: 0,
            first_level_sent: false,
        }
    }

    fn deliver(&mut self, engine: &Tears, msg: &TearsMessage) {
        if !self.rumors.is_superset_of(&msg.rumors) {
            self.rumors.union(&msg.rumors);
        }
        if msg.flag == TearsFlag::Up {
            self.up += 1;
            if engine.is_trigger_count(self.up) {
                self.pending += 1;
            }
        }
    }

    /// Destination and flag of every send of the next local step; each
    /// carries the oracle's current set.
    fn step(&mut self, engine: &Tears) -> Vec<(ProcessId, TearsFlag)> {
        let mut out = Vec::new();
        if !self.first_level_sent {
            self.first_level_sent = true;
            out.extend(engine.pi1().iter().map(|&q| (q, TearsFlag::Up)));
        }
        while self.pending > 0 {
            self.pending -= 1;
            out.extend(engine.pi2().iter().map(|&q| (q, TearsFlag::Down)));
        }
        out
    }
}

fn run(case: &Case, encoded: bool) {
    let mut engine = Tears::with_params(case.ctx, case.params);
    let mut oracle = Oracle::new(&engine);
    let mut rest = &case.deliveries[..];
    for &size in &case.batches {
        let (batch, tail) = rest.split_at(size);
        rest = tail;
        if encoded {
            let frames: Vec<(ProcessId, Vec<u8>)> =
                batch.iter().map(|(q, msg)| (*q, msg.encode())).collect();
            assert_eq!(engine.deliver_encoded(&frames), 0, "no decode errors");
        } else {
            for (q, msg) in batch {
                engine.deliver(*q, msg.clone());
            }
        }
        for (_, msg) in batch {
            oracle.deliver(&engine, msg);
        }
        assert_eq!(engine.rumors(), &oracle.rumors);
        assert_eq!(engine.up_msg_count(), oracle.up);

        let mut out = Vec::new();
        engine.local_step(&mut out);
        let want = oracle.step(&engine);
        let got: Vec<(ProcessId, TearsFlag)> = out.iter().map(|(q, m)| (*q, m.flag)).collect();
        assert_eq!(got, want);
        // One step's broadcasts share a snapshot: compare each distinct one.
        let mut last: Option<&Arc<RumorSet>> = None;
        for (_, msg) in &out {
            if !last.is_some_and(|prev| Arc::ptr_eq(prev, &msg.rumors)) {
                assert_eq!(*msg.rumors, oracle.rumors);
                last = Some(&msg.rumors);
            }
        }
    }
}

/// A system size from either end of 8 … 20 000.
fn system_size() -> impl Strategy<Value = usize> {
    (any::<bool>(), 8usize..=200, 201usize..=20_000)
        .prop_map(|(small, lo, hi)| if small { lo } else { hi })
}

proptest! {
    #![proptest_config(cases(96))]

    #[test]
    fn marked_deliver_equals_superset_then_union(
        n in system_size(),
        (paper, identity) in (any::<bool>(), any::<bool>()),
        seed in any::<u64>(),
    ) {
        run(&build_case(n, paper, identity, seed), false);
    }

    #[test]
    fn marked_deliver_encoded_equals_superset_then_union(
        n in system_size(),
        (paper, identity) in (any::<bool>(), any::<bool>()),
        seed in any::<u64>(),
    ) {
        run(&build_case(n, paper, identity, seed), true);
    }
}
