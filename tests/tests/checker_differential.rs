//! Differential proptest for the word-wise correctness checker.
//!
//! `check_gossip` reads dense sets a word at a time: an identity-payload set
//! passes validity with one AND-NOT per word, and a dense set's missing
//! correct origins are a popcount per word. This file holds the whole
//! `CheckReport` — verdicts, and both violation lists in order — equal to a
//! copy of the rumor-by-rumor loop the checker used before, over sparse and
//! dense sets, identity and explicit (including forged) payloads, initial
//! rumors whose payload is not their origin, bits at or beyond `n`, crashed
//! processes, and both specs.

use proptest::prelude::*;

use agossip_core::{check_gossip, CheckReport, GossipSpec, Rumor, RumorSet};
use agossip_sim::ProcessId;

/// The checker as it was: every rumor of every set, every origin of every
/// correct process.
fn oracle(
    spec: GossipSpec,
    final_rumors: &[RumorSet],
    initial_rumors: &[Rumor],
    correct: &[bool],
    quiescent: bool,
) -> CheckReport {
    let n = final_rumors.len();
    let mut validity_violations = Vec::new();
    for set in final_rumors {
        for rumor in set.iter() {
            let origin = rumor.origin.index();
            if origin >= n || initial_rumors[origin] != rumor {
                validity_violations.push(rumor);
            }
        }
    }
    let majority = n / 2 + 1;
    let mut gathering_violations = Vec::new();
    for (i, set) in final_rumors.iter().enumerate() {
        if !correct[i] {
            continue;
        }
        match spec {
            GossipSpec::Full => {
                let missing = (0..n)
                    .filter(|&j| correct[j] && !set.contains_origin(ProcessId(j)))
                    .count();
                if missing > 0 {
                    gathering_violations.push((ProcessId(i), missing));
                }
            }
            GossipSpec::Majority => {
                if set.len() < majority {
                    gathering_violations.push((ProcessId(i), set.len()));
                }
            }
        }
    }
    CheckReport {
        spec,
        gathering_ok: gathering_violations.is_empty(),
        validity_ok: validity_violations.is_empty(),
        quiescence_ok: quiescent,
        gathering_violations,
        validity_violations,
    }
}

/// SplitMix64: one seed fixes a case's rumors, sets and crash pattern.
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

    /// True with probability `1 / odds`.
    fn one_in(&mut self, odds: usize) -> bool {
        self.below(odds) == 0
    }
}

/// One process's final set, of a kind drawn per process.
fn final_set(mix: &mut Mix, n: usize, initial: &[Rumor], forge_odds: usize) -> RumorSet {
    // The rumor a set holds for origin j: the initial one, a forgery, or —
    // beyond n — a rumor no process started.
    let rumor = |mix: &mut Mix, j: usize| match initial.get(j) {
        Some(r) if !mix.one_in(forge_odds) => *r,
        _ => Rumor::new(ProcessId(j), j as u64 ^ (mix.one_in(2) as u64)),
    };
    let mut set = RumorSet::new();
    match mix.below(4) {
        // A few origins anywhere, beyond n included: stays sparse.
        0 => {
            for _ in 0..mix.below(6) {
                let j = mix.below(n + 70);
                set.insert(rumor(mix, j));
            }
        }
        // Identity payloads whatever the initial rumors say, then dense: the
        // word test's own shape, failing it where an initial payload differs.
        1 => {
            let keep = 1 + mix.below(8);
            for j in 0..n {
                if !mix.one_in(keep) {
                    set.insert(Rumor::new(ProcessId(j), j as u64));
                }
            }
            if mix.one_in(4) {
                let j = n + mix.below(130);
                set.insert(Rumor::new(ProcessId(j), j as u64));
            }
            set.force_dense();
        }
        // Dense from the first rumor, with whatever payloads `rumor` picks
        // (explicit as soon as one differs from its origin).
        2 => {
            set.force_dense();
            let keep = 1 + mix.below(8);
            for j in 0..n {
                if !mix.one_in(keep) {
                    set.insert(rumor(mix, j));
                }
            }
            if mix.one_in(4) {
                let j = n + mix.below(130);
                set.insert(rumor(mix, j));
            }
        }
        // Everything but a few, through the density rule.
        _ => {
            for j in 0..n {
                if !mix.one_in(n.max(2)) {
                    set.insert(rumor(mix, j));
                }
            }
        }
    }
    set
}

fn check_case(n: usize, seed: u64) {
    let mut mix = Mix(seed);
    // Initial payloads: the origin (plain gossip) or, now and then, a vote.
    let vote_odds = [1, 4, usize::MAX][mix.below(3)];
    let initial: Vec<Rumor> = (0..n)
        .map(|j| {
            let vote = vote_odds != usize::MAX && mix.one_in(vote_odds);
            Rumor::new(ProcessId(j), if vote { (j as u64) & 1 } else { j as u64 })
        })
        .collect();
    let forge_odds = [8, 64, usize::MAX][mix.below(3)];
    let sets: Vec<RumorSet> = (0..n)
        .map(|_| final_set(&mut mix, n, &initial, forge_odds))
        .collect();
    let crash_odds = [2, 8, usize::MAX][mix.below(3)];
    let correct: Vec<bool> = (0..n).map(|_| !mix.one_in(crash_odds)).collect();
    let quiescent = mix.one_in(2);
    for spec in [GossipSpec::Full, GossipSpec::Majority] {
        assert_eq!(
            check_gossip(spec, &sets, &initial, &correct, quiescent),
            oracle(spec, &sets, &initial, &correct, quiescent),
            "n = {n}, seed = {seed}, {spec:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn word_wise_checker_equals_the_rumor_walk(n in 1usize..=300, seed in any::<u64>()) {
        check_case(n, seed);
    }
}

#[test]
fn word_wise_checker_equals_the_rumor_walk_on_edge_sizes() {
    // Word boundaries on both sides, and a system too small for a word.
    for n in [1, 2, 63, 64, 65, 127, 128, 129, 192] {
        for seed in 0..16 {
            check_case(n, seed);
        }
    }
}
