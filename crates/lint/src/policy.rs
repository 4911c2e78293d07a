//! The path-scoped policy table: which rule applies to which files.
//!
//! Scopes are workspace-relative path patterns with `/` separators. A
//! pattern either names an exact file (`crates/core/src/codec.rs`) or, when
//! it ends with `/`, a directory prefix (`crates/sim/src/`). The empty
//! pattern matches everything — the corpus tests use it to aim one rule at a
//! lone snippet.
//!
//! [`default_policy`] is the table the workspace is actually gated on; the
//! rule-by-rule rationale lives in the README's "Correctness tooling"
//! section and on each [`RuleId`] variant.

use crate::rules::RuleId;

/// One row of the policy table: a rule and the scopes it applies to.
#[derive(Debug, Clone)]
pub struct PolicyEntry {
    /// The rule.
    pub rule: RuleId,
    /// Path patterns the rule applies to (see the module docs).
    pub include: Vec<String>,
    /// Path patterns carved back out of `include`.
    pub exclude: Vec<String>,
}

/// A full policy: the rows plus the set of files the linter walks.
#[derive(Debug, Clone)]
pub struct Policy {
    /// The policy rows.
    pub entries: Vec<PolicyEntry>,
}

impl Policy {
    /// The rules that apply to `rel_path` under this policy.
    pub fn rules_for(&self, rel_path: &str) -> Vec<RuleId> {
        self.entries
            .iter()
            .filter(|e| {
                e.include.iter().any(|p| matches(p, rel_path))
                    && !e.exclude.iter().any(|p| matches(p, rel_path))
            })
            .map(|e| e.rule)
            .collect()
    }

    /// A policy applying exactly one rule to every path (corpus tests).
    pub fn single_rule(rule: RuleId) -> Policy {
        Policy {
            entries: vec![PolicyEntry {
                rule,
                include: vec![String::new()],
                exclude: Vec::new(),
            }],
        }
    }
}

/// True if `pattern` covers `rel_path` (exact file, directory prefix ending
/// in `/`, or the match-everything empty pattern).
fn matches(pattern: &str, rel_path: &str) -> bool {
    if pattern.is_empty() {
        return true;
    }
    if let Some(dir) = pattern.strip_suffix('/') {
        rel_path
            .strip_prefix(dir)
            .is_some_and(|r| r.starts_with('/'))
    } else {
        rel_path == pattern
    }
}

fn entry(rule: RuleId, include: &[&str], exclude: &[&str]) -> PolicyEntry {
    PolicyEntry {
        rule,
        include: include.iter().map(|s| s.to_string()).collect(),
        exclude: exclude.iter().map(|s| s.to_string()).collect(),
    }
}

/// The deterministic crates: their execution must be a pure function of the
/// configuration and seed (lockstep runs, sweep results for any worker
/// count).
const DETERMINISTIC_CRATES: [&str; 5] = [
    "crates/core/src/",
    "crates/sim/src/",
    "crates/consensus/src/",
    "crates/adversary/src/",
    "crates/analysis/src/",
];

/// The policy the workspace is gated on (tier-1 test + CI `lint` job).
pub fn default_policy() -> Policy {
    let entries = vec![
        // (1) Randomized-iteration collections break bit-identical replay.
        entry(
            RuleId::NoNondeterministicCollections,
            &DETERMINISTIC_CRATES,
            &[],
        ),
        // (2) Wall-clock reads are banned everywhere except the bench crate
        // and the free-running runtime paths (which are wall-clock *by
        // design* and carry inline waivers, so every site is visible in the
        // report).
        entry(
            RuleId::NoWallClock,
            &[
                "crates/core/src/",
                "crates/sim/src/",
                "crates/consensus/src/",
                "crates/adversary/src/",
                "crates/analysis/src/",
                "crates/runtime/src/",
            ],
            &[],
        ),
        // (3) Decode and frame handling must never panic: corrupt bytes are
        // message loss, surfaced as typed errors. The driver is included
        // because it joins reactor threads and surfaces their errors — a panic
        // there takes down the whole run; the reactor multiplexes *every*
        // process of its shard, so a panic there takes out all of them at
        // once. The epoch/service paths peel and route epoch-tagged frames
        // (and absorb stale ones) on that same per-frame surface, so they
        // are held to the same rule. So is the simulator's per-message
        // path — the step's send log, the step core and the network's
        // 32-bit in-flight records: a panic there ends a whole sweep worker.
        // The informed-list takes frame-supplied ids (the codec's decoder
        // and `union_view` feed it) into its matrix index arithmetic.
        entry(
            RuleId::NeverPanicDecode,
            &[
                "crates/sim/src/message.rs",
                "crates/sim/src/network.rs",
                "crates/sim/src/scheduler.rs",
                "crates/core/src/codec.rs",
                "crates/core/src/codec_view.rs",
                "crates/core/src/informed_list.rs",
                "crates/core/src/epoch.rs",
                "crates/runtime/src/transport.rs",
                "crates/runtime/src/event_loop.rs",
                "crates/runtime/src/driver.rs",
                "crates/runtime/src/reactor.rs",
                "crates/runtime/src/clock.rs",
                "crates/runtime/src/service.rs",
            ],
            &[],
        ),
        // (4) Narrowing in codec/wire code — in the informed-list's
        // matrix, which indexes by frame-supplied ids, in the network's
        // in-flight records, which pack a sender and a copy count into 32
        // bits, and along the `u32` copy count itself (the send log's
        // counted blocks, the step core's folded draws, `tears`' counted
        // broadcasts) — goes through try_from.
        entry(
            RuleId::NoUncheckedNarrowing,
            &[
                "crates/core/src/codec.rs",
                "crates/core/src/codec_view.rs",
                "crates/core/src/informed_list.rs",
                "crates/core/src/tears.rs",
                "crates/core/src/wire.rs",
                "crates/runtime/src/transport.rs",
                "crates/sim/src/message.rs",
                "crates/sim/src/network.rs",
                "crates/sim/src/scheduler.rs",
            ],
            &[],
        ),
        // (5) No unsafe anywhere in the workspace crates (vendor stubs are
        // not walked and are exempt from the *lint* — but every one of them
        // carries `#![forbid(unsafe_code)]`, the stronger, compiler-enforced
        // form; each stub's lib.rs documents this). One carve-out, mirroring
        // the existing compiler-level `#![allow(unsafe_code)]` in the file
        // itself: the counting-global-allocator test must implement the
        // unsafe `GlobalAlloc` trait; every block there has a SAFETY comment
        // (enforced by `clippy::undocumented_unsafe_blocks = deny`).
        entry(
            RuleId::NoUnsafe,
            &["crates/", "tests/"],
            &["tests/tests/alloc_behaviour.rs"],
        ),
    ];

    Policy { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matching_semantics() {
        assert!(matches("", "anything/at/all.rs"));
        assert!(matches("crates/sim/src/", "crates/sim/src/network.rs"));
        assert!(matches("crates/sim/src/", "crates/sim/src/deep/er.rs"));
        assert!(!matches("crates/sim/src/", "crates/sim/tests/x.rs"));
        assert!(!matches("crates/sim/src", "crates/sim/src/network.rs"));
        assert!(matches(
            "crates/core/src/codec.rs",
            "crates/core/src/codec.rs"
        ));
        assert!(!matches(
            "crates/core/src/codec.rs",
            "crates/core/src/codec.rs.bak"
        ));
    }

    #[test]
    fn default_policy_scopes_sanity() {
        let policy = default_policy();
        let codec = policy.rules_for("crates/core/src/codec.rs");
        assert!(codec.contains(&RuleId::NeverPanicDecode));
        assert!(codec.contains(&RuleId::NoUncheckedNarrowing));
        assert!(codec.contains(&RuleId::NoNondeterministicCollections));

        let view = policy.rules_for("crates/core/src/codec_view.rs");
        assert!(view.contains(&RuleId::NeverPanicDecode));
        assert!(view.contains(&RuleId::NoUncheckedNarrowing));

        let informed = policy.rules_for("crates/core/src/informed_list.rs");
        assert!(
            informed.contains(&RuleId::NeverPanicDecode),
            "the informed-list indexes its matrix by frame-supplied ids"
        );
        assert!(informed.contains(&RuleId::NoUncheckedNarrowing));

        let reactor = policy.rules_for("crates/runtime/src/reactor.rs");
        assert!(reactor.contains(&RuleId::NeverPanicDecode));
        assert!(reactor.contains(&RuleId::NoWallClock));

        for service_path in ["crates/core/src/epoch.rs", "crates/runtime/src/service.rs"] {
            let rules = policy.rules_for(service_path);
            assert!(
                rules.contains(&RuleId::NeverPanicDecode),
                "{service_path} routes epoch-tagged frames and must not panic on decode"
            );
            assert!(rules.contains(&RuleId::NoWallClock));
        }

        let bench = policy.rules_for("crates/bench/src/lib.rs");
        assert!(
            !bench.contains(&RuleId::NoWallClock),
            "bench may read the clock"
        );
        assert!(bench.contains(&RuleId::NoUnsafe));

        for sim_path in [
            "crates/sim/src/message.rs",
            "crates/sim/src/network.rs",
            "crates/sim/src/scheduler.rs",
        ] {
            let rules = policy.rules_for(sim_path);
            assert!(
                rules.contains(&RuleId::NeverPanicDecode),
                "{sim_path} carries every simulated message and must not panic"
            );
        }

        let network = policy.rules_for("crates/sim/src/network.rs");
        assert!(
            network.contains(&RuleId::NoUncheckedNarrowing),
            "the in-flight record packs a sender and a copy count into 32 bits"
        );
        for counted_path in [
            "crates/sim/src/message.rs",
            "crates/sim/src/scheduler.rs",
            "crates/core/src/tears.rs",
        ] {
            assert!(
                policy
                    .rules_for(counted_path)
                    .contains(&RuleId::NoUncheckedNarrowing),
                "{counted_path} narrows a copy count to u32"
            );
        }

        let sim_test = policy.rules_for("crates/sim/tests/network_differential.rs");
        assert!(!sim_test.contains(&RuleId::NoNondeterministicCollections));
        assert!(sim_test.contains(&RuleId::NoUnsafe));
    }
}
