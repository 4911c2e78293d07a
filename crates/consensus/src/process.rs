//! The consensus state machine: Canetti–Rabin voting rounds over gossip-based
//! `get-core`.
//!
//! Each round consists of up to three voting exchanges (paper, Section 6):
//!
//! 1. **Estimate exchange** — every process gossips its current estimate.
//!    Once a process has collected a majority of estimate votes, it prefers
//!    the value (if any) that received a majority of those votes.
//! 2. **Preference exchange** — every process gossips its preference (or
//!    "no preference"). Once a majority of preference votes are collected:
//!    if a majority of them name the same value the process **decides** it;
//!    if at least one names a value the process adopts it as its estimate and
//!    moves to the next round; otherwise it falls through to the coin.
//! 3. **Coin exchange** — every process gossips a locally random value and
//!    adopts, as its new estimate, the parity of the value contributed by the
//!    lowest-identified process it heard from (a weak common coin that agrees
//!    with constant probability against an oblivious adversary).
//!
//! Every exchange is one gossip instance of the underlying protocol `G`
//! (trivial all-to-all for the Canetti–Rabin baseline, `ears`/`sears`/`tears`
//! for the message-efficient variants); an instance is complete for a process
//! once it holds `⌊n/2⌋ + 1` rumors of that instance — exactly the paper's
//! "terminates when a process receives ⌊n/2⌋+1 rumors".
//!
//! A process that decides switches to a final *decision dissemination*
//! gossip instance whose rumor is the decision; every message also
//! piggybacks the sender's decision and current state, which implements the
//! paper's history-based catch-up: a process receiving a message from a later
//! instance adopts the sender's state and fast-forwards.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use agossip_core::{GossipCtx, GossipEngine, Rumor, RumorSet};
use agossip_sim::{Envelope, Outbox, Process, ProcessId, TimeStep};

use crate::message::{ConsensusMessage, InstanceKey, VotePhase};
use crate::value::{encode_prefer, is_valid_value, ConsensusValue};

/// Construction context for one consensus participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsensusCtx {
    /// This process's identifier.
    pub pid: ProcessId,
    /// System size.
    pub n: usize,
    /// Failure budget (`f < n/2` for consensus).
    pub f: usize,
    /// The process's initial (binary) value.
    pub initial_value: ConsensusValue,
    /// Seed for this process's randomness (coin contributions and the
    /// underlying gossip instances).
    pub seed: u64,
}

impl ConsensusCtx {
    /// Creates a context; panics if the initial value is not binary.
    pub fn new(
        pid: ProcessId,
        n: usize,
        f: usize,
        initial_value: ConsensusValue,
        seed: u64,
    ) -> Self {
        assert!(
            is_valid_value(initial_value),
            "consensus inputs must be binary (got {initial_value})"
        );
        ConsensusCtx {
            pid,
            n,
            f,
            initial_value,
            seed,
        }
    }

    /// `⌊n/2⌋ + 1`.
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }
}

/// One consensus participant, generic over the gossip engine used for every
/// voting exchange.
#[derive(Debug, Clone)]
pub struct ConsensusProcess<G: GossipEngine, F> {
    ctx: ConsensusCtx,
    factory: F,
    key: InstanceKey,
    engine: G,
    estimate: ConsensusValue,
    prefer: Option<ConsensusValue>,
    decided: Option<ConsensusValue>,
    rounds_started: u32,
    rng: StdRng,
    steps: u64,
    /// The current gossip instance's sends of one step, before they are
    /// wrapped; reused, so steady-state stepping does not allocate.
    inner_sends: Vec<(ProcessId, G::Msg)>,
}

impl<G, F> ConsensusProcess<G, F>
where
    G: GossipEngine,
    F: Fn(GossipCtx) -> G,
{
    /// Creates a participant that uses `factory` to build one gossip instance
    /// per voting exchange.
    pub fn new(ctx: ConsensusCtx, factory: F) -> Self {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xC0_15E5);
        let key = InstanceKey::initial();
        let estimate = ctx.initial_value;
        let engine = Self::build_engine(&ctx, &factory, key, estimate, None, &mut rng);
        ConsensusProcess {
            ctx,
            factory,
            key,
            engine,
            estimate,
            prefer: None,
            decided: None,
            rounds_started: 1,
            rng,
            steps: 0,
            inner_sends: Vec::new(),
        }
    }

    /// The decision, once reached.
    pub fn decision(&self) -> Option<ConsensusValue> {
        self.decided
    }

    /// The current estimate.
    pub fn estimate(&self) -> ConsensusValue {
        self.estimate
    }

    /// The current preference.
    pub fn preference(&self) -> Option<ConsensusValue> {
        self.prefer
    }

    /// The instance this process is currently participating in.
    pub fn current_instance(&self) -> InstanceKey {
        self.key
    }

    /// Number of voting rounds this process has started.
    pub fn rounds_started(&self) -> u32 {
        self.rounds_started
    }

    /// The vote payload this process contributes to `key`, given its state.
    fn vote_payload(
        key: InstanceKey,
        estimate: ConsensusValue,
        prefer: Option<ConsensusValue>,
        decided: Option<ConsensusValue>,
        rng: &mut StdRng,
    ) -> u64 {
        match key {
            InstanceKey::Voting { phase, .. } => match phase {
                VotePhase::Estimate => estimate,
                VotePhase::Prefer => encode_prefer(prefer),
                VotePhase::Coin => rng.gen::<u64>(),
            },
            InstanceKey::Decision => decided.unwrap_or(estimate),
        }
    }

    fn build_engine(
        ctx: &ConsensusCtx,
        factory: &F,
        key: InstanceKey,
        estimate: ConsensusValue,
        prefer: Option<ConsensusValue>,
        rng: &mut StdRng,
    ) -> G {
        let payload = Self::vote_payload(key, estimate, prefer, None, rng);
        Self::build_engine_with_payload(ctx, factory, key, payload)
    }

    fn build_engine_with_payload(
        ctx: &ConsensusCtx,
        factory: &F,
        key: InstanceKey,
        payload: u64,
    ) -> G {
        // Each instance gets its own seed stream so that, e.g., the random
        // targets of two different exchanges are independent.
        let instance_seed = ctx
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(key.order_index().wrapping_add(1)));
        let gctx = GossipCtx::new(ctx.pid, ctx.n, ctx.f, instance_seed).with_payload(payload);
        factory(gctx)
    }

    fn switch_to(&mut self, key: InstanceKey) {
        self.key = key;
        if let Some(round) = key.round() {
            self.rounds_started = self.rounds_started.max(round + 1);
        }
        let payload =
            Self::vote_payload(key, self.estimate, self.prefer, self.decided, &mut self.rng);
        self.engine = Self::build_engine_with_payload(&self.ctx, &self.factory, key, payload);
    }

    fn decide(&mut self, value: ConsensusValue) {
        if self.decided.is_some() {
            return;
        }
        self.decided = Some(value);
        self.estimate = value;
        self.switch_to(InstanceKey::Decision);
    }

    /// Counts, among the collected votes, how many origins voted `value`.
    fn count_votes(votes: &RumorSet, value: u64) -> usize {
        votes.iter().filter(|r| r.payload == value).count()
    }

    /// Applies the round logic if the current instance has gathered a
    /// majority of votes.
    fn try_complete_instance(&mut self) {
        if self.decided.is_some() {
            return;
        }
        let InstanceKey::Voting { phase, .. } = self.key else {
            return;
        };
        let votes = self.engine.rumors();
        if votes.len() < self.ctx.majority() {
            return;
        }

        match phase {
            VotePhase::Estimate => {
                // Prefer the value supported by a majority of *all* processes
                // (not merely of the votes seen), if any.
                let zeros = Self::count_votes(votes, 0);
                let ones = Self::count_votes(votes, 1);
                self.prefer = if ones >= self.ctx.majority() {
                    Some(1)
                } else if zeros >= self.ctx.majority() {
                    Some(0)
                } else {
                    None
                };
                self.switch_to(self.key.next());
            }
            VotePhase::Prefer => {
                let prefer_zero = Self::count_votes(votes, encode_prefer(Some(0)));
                let prefer_one = Self::count_votes(votes, encode_prefer(Some(1)));
                if prefer_one >= self.ctx.majority() {
                    self.decide(1);
                } else if prefer_zero >= self.ctx.majority() {
                    self.decide(0);
                } else if prefer_one > 0 {
                    // Quorum intersection guarantees prefer_zero and
                    // prefer_one cannot both be positive system-wide; adopt
                    // the named value and move to the next round.
                    self.estimate = 1;
                    self.prefer = None;
                    self.switch_to(self.key.next_round());
                } else if prefer_zero > 0 {
                    self.estimate = 0;
                    self.prefer = None;
                    self.switch_to(self.key.next_round());
                } else {
                    // Nobody preferred anything: fall through to the coin.
                    self.prefer = None;
                    self.switch_to(self.key.next());
                }
            }
            VotePhase::Coin => {
                // Weak common coin: parity of the value contributed by the
                // lowest-identified origin heard from.
                let coin = votes
                    .iter()
                    .next()
                    .map(|r| r.payload & 1)
                    .unwrap_or(self.estimate);
                self.estimate = coin;
                self.prefer = None;
                self.switch_to(self.key.next());
            }
        }
    }

    fn learn_decision(&mut self, value: ConsensusValue) {
        self.decide(value);
    }

    fn handle_message(&mut self, from: ProcessId, msg: ConsensusMessage<G::Msg>) {
        if let Some(v) = msg.decided {
            self.learn_decision(v);
        }
        if self.decided.is_some() {
            // Only the decision-dissemination instance is still live.
            if msg.key == InstanceKey::Decision {
                self.engine.deliver(from, msg.inner);
            }
            return;
        }
        match msg.key.cmp(&self.key) {
            std::cmp::Ordering::Equal => self.engine.deliver(from, msg.inner),
            std::cmp::Ordering::Greater => {
                // Catch-up: adopt the sender's state and fast-forward to its
                // instance (the paper's history mechanism).
                if msg.key == InstanceKey::Decision {
                    // Decision messages always carry `decided`; handled above.
                    return;
                }
                self.estimate = msg.sender_estimate;
                self.prefer = msg.sender_prefer;
                self.switch_to(msg.key);
                self.engine.deliver(from, msg.inner);
            }
            std::cmp::Ordering::Less => {
                // A message from an already-completed exchange: stale, drop.
            }
        }
    }

    /// One local step of the current instance; appends its sends, wrapped,
    /// to `out` (append-only, see [`Outbox::append_with`]).
    fn take_local_step(&mut self, out: &mut Vec<(ProcessId, ConsensusMessage<G::Msg>)>) {
        self.steps += 1;
        self.try_complete_instance();
        self.engine.local_step(&mut self.inner_sends);
        out.reserve(self.inner_sends.len());
        for (to, inner) in self.inner_sends.drain(..) {
            out.push((
                to,
                ConsensusMessage {
                    key: self.key,
                    inner,
                    decided: self.decided,
                    sender_estimate: self.estimate,
                    sender_prefer: self.prefer,
                },
            ));
        }
    }

    /// Number of local steps taken.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }
}

impl<G, F> Process for ConsensusProcess<G, F>
where
    G: GossipEngine,
    F: Fn(GossipCtx) -> G,
{
    type Message = ConsensusMessage<G::Msg>;

    fn on_step(
        &mut self,
        _now: TimeStep,
        inbox: &mut Vec<Envelope<Self::Message>>,
        out: &mut Outbox<Self::Message>,
    ) {
        for env in inbox.drain(..) {
            for _ in 1..env.copies {
                self.handle_message(env.from, env.payload.clone());
            }
            if env.copies > 0 {
                self.handle_message(env.from, env.payload);
            }
        }
        out.append_with(|sends| self.take_local_step(sends));
    }

    fn is_quiescent(&self) -> bool {
        self.decided.is_some() && self.engine.is_quiescent()
    }
}

/// Convenience constructor for the rumor a participant contributes to a
/// decision instance (used in tests).
pub fn decision_rumor(pid: ProcessId, value: ConsensusValue) -> Rumor {
    Rumor::new(pid, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::decode_prefer;
    use agossip_core::Trivial;

    type TrivialConsensus = ConsensusProcess<Trivial, fn(GossipCtx) -> Trivial>;

    fn make(pid: usize, n: usize, value: u64) -> TrivialConsensus {
        let ctx = ConsensusCtx::new(ProcessId(pid), n, n / 2 - 1, value, 42 + pid as u64);
        ConsensusProcess::new(ctx, Trivial::new as fn(GossipCtx) -> Trivial)
    }

    fn step(
        p: &mut TrivialConsensus,
    ) -> Vec<(ProcessId, ConsensusMessage<agossip_core::TrivialMessage>)> {
        let mut out = Vec::new();
        p.take_local_step(&mut out);
        out
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn rejects_non_binary_inputs() {
        ConsensusCtx::new(ProcessId(0), 4, 1, 7, 0);
    }

    #[test]
    fn starts_in_round_zero_estimate_exchange() {
        let p = make(0, 4, 1);
        assert_eq!(p.current_instance(), InstanceKey::initial());
        assert_eq!(p.estimate(), 1);
        assert_eq!(p.decision(), None);
        assert_eq!(p.rounds_started(), 1);
    }

    #[test]
    fn outgoing_messages_carry_instance_and_state() {
        let mut p = make(0, 4, 1);
        let out = step(&mut p);
        assert!(!out.is_empty());
        for (_, msg) in &out {
            assert_eq!(msg.key, InstanceKey::initial());
            assert_eq!(msg.sender_estimate, 1);
            assert_eq!(msg.decided, None);
        }
    }

    #[test]
    fn unanimous_votes_lead_to_decision_in_one_round() {
        // Four processes, all starting with value 1. Drive process 0 by hand,
        // feeding it the votes of the others for each exchange.
        let n = 4;
        let mut p = make(0, n, 1);
        // Estimate exchange: deliver votes (estimate = 1) from 1, 2, 3.
        for q in 1..n {
            p.handle_message(
                ProcessId(q),
                ConsensusMessage {
                    key: InstanceKey::initial(),
                    inner: agossip_core::TrivialMessage {
                        rumor: Rumor::new(ProcessId(q), 1),
                    },
                    decided: None,
                    sender_estimate: 1,
                    sender_prefer: None,
                },
            );
        }
        step(&mut p);
        // Majority of estimate votes seen -> moved to the Prefer exchange
        // preferring 1.
        assert_eq!(
            p.current_instance(),
            InstanceKey::Voting {
                round: 0,
                phase: VotePhase::Prefer
            }
        );
        assert_eq!(p.preference(), Some(1));
        // Preference exchange: deliver prefer-1 votes from the others.
        for q in 1..n {
            p.handle_message(
                ProcessId(q),
                ConsensusMessage {
                    key: InstanceKey::Voting {
                        round: 0,
                        phase: VotePhase::Prefer,
                    },
                    inner: agossip_core::TrivialMessage {
                        rumor: Rumor::new(ProcessId(q), encode_prefer(Some(1))),
                    },
                    decided: None,
                    sender_estimate: 1,
                    sender_prefer: Some(1),
                },
            );
        }
        step(&mut p);
        assert_eq!(p.decision(), Some(1));
        assert_eq!(p.current_instance(), InstanceKey::Decision);
    }

    #[test]
    fn piggybacked_decision_is_adopted_immediately() {
        let mut p = make(0, 4, 0);
        p.handle_message(
            ProcessId(3),
            ConsensusMessage {
                key: InstanceKey::Decision,
                inner: agossip_core::TrivialMessage {
                    rumor: Rumor::new(ProcessId(3), 1),
                },
                decided: Some(1),
                sender_estimate: 1,
                sender_prefer: Some(1),
            },
        );
        assert_eq!(p.decision(), Some(1));
        assert_eq!(p.current_instance(), InstanceKey::Decision);
    }

    #[test]
    fn future_instance_message_fast_forwards_state() {
        let mut p = make(0, 4, 0);
        let future = InstanceKey::Voting {
            round: 2,
            phase: VotePhase::Estimate,
        };
        p.handle_message(
            ProcessId(2),
            ConsensusMessage {
                key: future,
                inner: agossip_core::TrivialMessage {
                    rumor: Rumor::new(ProcessId(2), 1),
                },
                decided: None,
                sender_estimate: 1,
                sender_prefer: None,
            },
        );
        assert_eq!(p.current_instance(), future);
        assert_eq!(p.estimate(), 1, "adopted the sender's estimate");
        assert_eq!(p.rounds_started(), 3);
    }

    #[test]
    fn stale_messages_are_ignored() {
        let mut p = make(0, 4, 0);
        // Move p forward first.
        let future = InstanceKey::Voting {
            round: 1,
            phase: VotePhase::Estimate,
        };
        p.handle_message(
            ProcessId(2),
            ConsensusMessage {
                key: future,
                inner: agossip_core::TrivialMessage {
                    rumor: Rumor::new(ProcessId(2), 0),
                },
                decided: None,
                sender_estimate: 0,
                sender_prefer: None,
            },
        );
        let votes_before = p.engine.rumors().len();
        // A stale round-0 message must not be delivered to the new engine.
        p.handle_message(
            ProcessId(3),
            ConsensusMessage {
                key: InstanceKey::initial(),
                inner: agossip_core::TrivialMessage {
                    rumor: Rumor::new(ProcessId(3), 1),
                },
                decided: None,
                sender_estimate: 1,
                sender_prefer: None,
            },
        );
        assert_eq!(p.engine.rumors().len(), votes_before);
    }

    #[test]
    fn no_preferences_fall_through_to_coin() {
        let n = 4;
        let mut p = make(0, n, 0);
        // Estimate exchange with a split vote: 0 from itself and process 1,
        // 1 from processes 2 and 3 — no value reaches the majority of 3.
        for (q, v) in [(1usize, 0u64), (2, 1), (3, 1)] {
            p.handle_message(
                ProcessId(q),
                ConsensusMessage {
                    key: InstanceKey::initial(),
                    inner: agossip_core::TrivialMessage {
                        rumor: Rumor::new(ProcessId(q), v),
                    },
                    decided: None,
                    sender_estimate: v,
                    sender_prefer: None,
                },
            );
        }
        step(&mut p);
        assert_eq!(p.preference(), None);
        // Preference exchange where everyone reports "no preference".
        for q in 1..n {
            p.handle_message(
                ProcessId(q),
                ConsensusMessage {
                    key: InstanceKey::Voting {
                        round: 0,
                        phase: VotePhase::Prefer,
                    },
                    inner: agossip_core::TrivialMessage {
                        rumor: Rumor::new(ProcessId(q), encode_prefer(None)),
                    },
                    decided: None,
                    sender_estimate: 0,
                    sender_prefer: None,
                },
            );
        }
        step(&mut p);
        assert_eq!(
            p.current_instance(),
            InstanceKey::Voting {
                round: 0,
                phase: VotePhase::Coin
            }
        );
        assert_eq!(p.decision(), None);
    }

    #[test]
    fn single_named_preference_is_adopted_without_deciding() {
        let n = 5; // majority = 3
        let mut p = make(0, n, 0);
        // Jump straight to the prefer exchange by fast-forward.
        let prefer_key = InstanceKey::Voting {
            round: 0,
            phase: VotePhase::Prefer,
        };
        p.handle_message(
            ProcessId(1),
            ConsensusMessage {
                key: prefer_key,
                inner: agossip_core::TrivialMessage {
                    rumor: Rumor::new(ProcessId(1), encode_prefer(Some(1))),
                },
                decided: None,
                sender_estimate: 1,
                sender_prefer: Some(1),
            },
        );
        // Two more prefer votes, both "no preference": only one vote names 1,
        // which is below the majority of 3, so p adopts 1 but does not decide.
        for q in 2..4 {
            p.handle_message(
                ProcessId(q),
                ConsensusMessage {
                    key: prefer_key,
                    inner: agossip_core::TrivialMessage {
                        rumor: Rumor::new(ProcessId(q), encode_prefer(None)),
                    },
                    decided: None,
                    sender_estimate: 0,
                    sender_prefer: None,
                },
            );
        }
        step(&mut p);
        assert_eq!(p.decision(), None);
        assert_eq!(p.estimate(), 1);
        assert_eq!(
            p.current_instance(),
            InstanceKey::Voting {
                round: 1,
                phase: VotePhase::Estimate
            }
        );
    }

    #[test]
    fn quiescent_only_after_decision_and_dissemination() {
        let mut p = make(0, 2, 1);
        assert!(!Process::is_quiescent(&p));
        p.learn_decision(1);
        // Decision engine (trivial gossip) has not broadcast yet.
        assert!(!Process::is_quiescent(&p));
        let mut out = Vec::new();
        p.take_local_step(&mut out);
        assert!(Process::is_quiescent(&p));
        assert!(out.iter().all(|(_, m)| m.decided == Some(1)));
    }

    #[test]
    fn decode_prefer_used_by_votes() {
        assert_eq!(decode_prefer(encode_prefer(Some(1))), Some(1));
    }
}
