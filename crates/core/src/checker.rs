//! Correctness checkers for the gossip problem.
//!
//! After an execution finishes, these checkers inspect the final state of
//! every process and decide whether the three requirements of the gossip
//! problem (paper, Section 1) were met:
//!
//! 1. **Rumor gathering** — every correct process holds the rumor of every
//!    correct process (or, for [`GossipSpec::Majority`], at least a majority
//!    of all rumors — Section 5);
//! 2. **Validity** — every rumor held by any process is some process's
//!    initial rumor;
//! 3. **Quiescence** — the execution reached a state in which every process
//!    has stopped sending messages (reported by the simulator's run loop and
//!    passed in by the driver).
//!
//! The check reads a final set word by word where it can. A dense set whose
//! payloads are all the identity (`payload == origin`, every plain gossip
//! run) passes validity with one AND-NOT per word against the mask of
//! origins whose initial rumor is `(j, j)`; a dense set of either kind
//! counts its missing correct origins (full spec) as a popcount of
//! `correct & !present` per word. Sparse sets, explicit-payload sets and
//! any set that fails the word test take the rumor-by-rumor walk, so a
//! report is the same whichever path produced it.

use agossip_sim::ProcessId;

use crate::engine::GossipEngine;
use crate::rumor::{Rumor, RumorSet};

/// Which variant of the gossip problem an execution is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipSpec {
    /// Classic gossip: every correct process learns every correct process's
    /// rumor.
    Full,
    /// Majority gossip (paper, Section 5): every correct process learns at
    /// least `⌊n/2⌋ + 1` rumors. Requires `f < n/2` to be solvable.
    Majority,
}

/// The verdict of a post-execution correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// The specification checked against.
    pub spec: GossipSpec,
    /// Whether the gathering requirement held.
    pub gathering_ok: bool,
    /// Whether validity held.
    pub validity_ok: bool,
    /// Whether the execution became quiescent.
    pub quiescence_ok: bool,
    /// For each correct process that failed gathering: its id and the number
    /// of rumors it was missing (full) or the number it held (majority).
    pub gathering_violations: Vec<(ProcessId, usize)>,
    /// Rumors held somewhere that are not any process's initial rumor.
    pub validity_violations: Vec<Rumor>,
}

impl CheckReport {
    /// True if every requirement held.
    pub fn all_ok(&self) -> bool {
        self.gathering_ok && self.validity_ok && self.quiescence_ok
    }
}

/// Checks an execution's final state.
///
/// * `final_rumors[i]` — the rumor set of process `i` at the end of the
///   execution;
/// * `initial_rumors[i]` — process `i`'s initial rumor;
/// * `correct[i]` — whether process `i` never crashed;
/// * `quiescent` — whether the run loop reported system quiescence.
pub fn check_gossip(
    spec: GossipSpec,
    final_rumors: &[RumorSet],
    initial_rumors: &[Rumor],
    correct: &[bool],
    quiescent: bool,
) -> CheckReport {
    let n = final_rumors.len();
    assert_eq!(
        initial_rumors.len(),
        n,
        "initial rumor per process required"
    );
    assert_eq!(correct.len(), n, "correctness flag per process required");

    // Validity: every rumor held anywhere must equal the initial rumor of its
    // origin. A dense set with identity payloads holds the rumor (j, j) for
    // each bit j it has set, so it is valid iff every such bit is one of the
    // origins whose initial rumor is (j, j): one AND-NOT per word, and bits
    // at or beyond n are in no mask word. A set that fails that test, and
    // every sparse or explicit-payload set, takes the rumor-by-rumor walk,
    // so the violations are listed exactly and in order.
    let identity_origins = origin_mask(n, |j| {
        initial_rumors[j] == Rumor::new(ProcessId(j), j as u64)
    });
    let mut validity_violations = Vec::new();
    for set in final_rumors {
        if let Some((words, true)) = set.dense_presence() {
            let all_identity = words
                .iter()
                .enumerate()
                .all(|(w, &word)| word & !identity_origins.get(w).copied().unwrap_or(0) == 0);
            if all_identity {
                continue;
            }
        }
        for rumor in set.iter() {
            let origin = rumor.origin.index();
            if origin >= n || initial_rumors[origin] != rumor {
                validity_violations.push(rumor);
            }
        }
    }

    // Gathering. Under the full spec a dense set misses the popcount of
    // `correct & !present`, word by word; a sparse set misses every correct
    // origin it does not hold.
    let majority = n / 2 + 1;
    let correct_origins = origin_mask(n, |j| correct[j]);
    let correct_count = correct.iter().filter(|&&c| c).count();
    let mut gathering_violations = Vec::new();
    for (i, set) in final_rumors.iter().enumerate() {
        if !correct[i] {
            continue;
        }
        match spec {
            GossipSpec::Full => {
                let missing = match set.dense_presence() {
                    Some((words, _)) => correct_origins
                        .iter()
                        .enumerate()
                        .map(|(w, &c)| {
                            (c & !words.get(w).copied().unwrap_or(0)).count_ones() as usize
                        })
                        .sum(),
                    None => {
                        correct_count
                            - set
                                .origins()
                                .filter(|o| o.index() < n && correct[o.index()])
                                .count()
                    }
                };
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

/// One bit per origin in `0..n` (`mask[w]` covers `64w..64w + 64`), set
/// where `keep` holds.
fn origin_mask(n: usize, mut keep: impl FnMut(usize) -> bool) -> Vec<u64> {
    let mut mask = vec![0u64; n.div_ceil(64)];
    for j in (0..n).filter(|&j| keep(j)) {
        mask[j / 64] |= 1 << (j % 64);
    }
    mask
}

/// Convenience wrapper: checks engines directly.
pub fn check_engines<G: GossipEngine>(
    spec: GossipSpec,
    engines: &[G],
    initial_rumors: &[Rumor],
    correct: &[bool],
    quiescent: bool,
) -> CheckReport {
    let final_rumors: Vec<RumorSet> = engines.iter().map(|e| e.rumors().clone()).collect();
    check_gossip(spec, &final_rumors, initial_rumors, correct, quiescent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn initial(n: usize) -> Vec<Rumor> {
        (0..n).map(|i| Rumor::new(ProcessId(i), i as u64)).collect()
    }

    fn full_sets(n: usize) -> Vec<RumorSet> {
        let all: RumorSet = initial(n).into_iter().collect();
        vec![all; n]
    }

    #[test]
    fn perfect_execution_passes_full_spec() {
        let n = 5;
        let report = check_gossip(
            GossipSpec::Full,
            &full_sets(n),
            &initial(n),
            &vec![true; n],
            true,
        );
        assert!(report.all_ok());
        assert!(report.gathering_violations.is_empty());
        assert!(report.validity_violations.is_empty());
    }

    #[test]
    fn missing_rumor_fails_full_gathering() {
        let n = 4;
        let mut sets = full_sets(n);
        // Process 2 is missing the rumor of process 0.
        sets[2] = [
            Rumor::new(ProcessId(1), 1),
            Rumor::new(ProcessId(2), 2),
            Rumor::new(ProcessId(3), 3),
        ]
        .into_iter()
        .collect();
        let report = check_gossip(GossipSpec::Full, &sets, &initial(n), &vec![true; n], true);
        assert!(!report.gathering_ok);
        assert_eq!(report.gathering_violations, vec![(ProcessId(2), 1)]);
        assert!(!report.all_ok());
    }

    #[test]
    fn crashed_processes_are_exempt_from_gathering() {
        let n = 4;
        let mut sets = full_sets(n);
        sets[3] = RumorSet::singleton(Rumor::new(ProcessId(3), 3));
        let mut correct = vec![true; n];
        correct[3] = false; // crashed: its incomplete set is fine
        let report = check_gossip(GossipSpec::Full, &sets, &initial(n), &correct, true);
        assert!(report.gathering_ok);
    }

    #[test]
    fn crashed_origins_need_not_be_gathered() {
        let n = 4;
        // Everyone is missing crashed process 0's rumor.
        let without0: RumorSet = (1..n).map(|i| Rumor::new(ProcessId(i), i as u64)).collect();
        let sets = vec![without0; n];
        let mut correct = vec![true; n];
        correct[0] = false;
        let report = check_gossip(GossipSpec::Full, &sets, &initial(n), &correct, true);
        assert!(
            report.gathering_ok,
            "rumors of crashed processes are optional"
        );
    }

    #[test]
    fn majority_spec_counts_rumors() {
        let n = 7; // majority = 4
        let four: RumorSet = (0..4).map(|i| Rumor::new(ProcessId(i), i as u64)).collect();
        let three: RumorSet = (0..3).map(|i| Rumor::new(ProcessId(i), i as u64)).collect();
        let mut sets = vec![four; n];
        sets[6] = three;
        let report = check_gossip(
            GossipSpec::Majority,
            &sets,
            &initial(n),
            &vec![true; n],
            true,
        );
        assert!(!report.gathering_ok);
        assert_eq!(report.gathering_violations, vec![(ProcessId(6), 3)]);
    }

    #[test]
    fn majority_spec_passes_with_half_plus_one() {
        let n = 6; // majority = 4
        let four: RumorSet = (0..4).map(|i| Rumor::new(ProcessId(i), i as u64)).collect();
        let sets = vec![four; n];
        let report = check_gossip(
            GossipSpec::Majority,
            &sets,
            &initial(n),
            &vec![true; n],
            true,
        );
        assert!(report.gathering_ok);
    }

    #[test]
    fn forged_rumor_fails_validity() {
        let n = 3;
        let mut sets = full_sets(n);
        // Process 1 holds a rumor claiming to originate at 2 with the wrong
        // payload (a "corrupted" rumor).
        sets[1].union(&RumorSet::new());
        let mut forged = RumorSet::new();
        forged.insert(Rumor::new(ProcessId(2), 999));
        let mut bad = RumorSet::new();
        bad.union(&forged);
        bad.union(&sets[1]);
        sets[1] = forged;
        let report = check_gossip(GossipSpec::Full, &sets, &initial(n), &vec![true; n], true);
        assert!(!report.validity_ok);
        assert!(report
            .validity_violations
            .contains(&Rumor::new(ProcessId(2), 999)));
    }

    #[test]
    fn non_quiescent_execution_fails() {
        let n = 3;
        let report = check_gossip(
            GossipSpec::Full,
            &full_sets(n),
            &initial(n),
            &vec![true; n],
            false,
        );
        assert!(!report.quiescence_ok);
        assert!(!report.all_ok());
    }

    #[test]
    fn out_of_range_origin_fails_validity() {
        let n = 2;
        let mut sets = full_sets(n);
        sets[0].insert(Rumor::new(ProcessId(7), 7));
        let report = check_gossip(GossipSpec::Full, &sets, &initial(n), &vec![true; n], true);
        assert!(!report.validity_ok);
    }
}
