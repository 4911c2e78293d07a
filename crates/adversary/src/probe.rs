//! Isolation probes — the adversary's crystal ball.
//!
//! The proof of Theorem 1 has the adaptive adversary "simulate the result of
//! process `p` receiving any messages from `S1`, and executing `f/2` local
//! steps in isolation" in order to classify `p` as *promiscuous* (it would
//! send at least `f/32` messages) or not, and to compute the set `N(p)` of
//! processes `p` is unlikely to contact.
//!
//! The adaptive adversary in our model is allowed to do exactly this: it
//! clones the process's state machine (including its RNG state) and runs the
//! clone forward without letting any of the clone's messages escape. Because
//! the execution is deterministic given the seed, the probe *predicts the
//! actual continuation exactly* — which only makes the adversary stronger
//! than the probabilistic argument in the paper requires.

use std::collections::BTreeSet;

use agossip_core::GossipEngine;
use agossip_sim::{Envelope, ProcessId};

/// The result of running a process clone in isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationProbe {
    /// The probed process.
    pub pid: ProcessId,
    /// Number of local steps simulated.
    pub steps: u64,
    /// Total point-to-point messages the clone sent.
    pub messages_sent: u64,
    /// The distinct processes the clone sent at least one message to.
    pub contacted: BTreeSet<ProcessId>,
}

impl IsolationProbe {
    /// The paper's promiscuity predicate: the process would send at least
    /// `threshold` messages during the isolated steps.
    pub fn is_promiscuous(&self, threshold: u64) -> bool {
        self.messages_sent >= threshold
    }

    /// `N(p)` of the paper, specialised to the deterministic probe: the
    /// processes in `candidates` that the clone did *not* contact.
    pub fn uncontacted<'a>(
        &'a self,
        candidates: impl IntoIterator<Item = ProcessId> + 'a,
    ) -> impl Iterator<Item = ProcessId> + 'a {
        candidates
            .into_iter()
            .filter(move |q| !self.contacted.contains(q))
    }

    /// True if the clone never sent a message to `q`.
    pub fn avoids(&self, q: ProcessId) -> bool {
        !self.contacted.contains(&q)
    }
}

/// Clones `engine`, delivers `pending` to the clone, then runs it for
/// `steps` local steps in isolation (its outgoing messages are observed but
/// never delivered to anyone, and it receives nothing further).
pub fn probe_isolated<G>(engine: &G, pending: &[Envelope<G::Msg>], steps: u64) -> IsolationProbe
where
    G: GossipEngine + Clone,
{
    let mut clone = engine.clone();
    for env in pending {
        clone.deliver_copies(env.from, env.payload.clone(), env.copies);
    }
    let mut messages_sent = 0u64;
    let mut contacted = BTreeSet::new();
    let mut out = Vec::new();
    for _ in 0..steps {
        out.clear();
        clone.local_step(&mut out);
        messages_sent += out.len() as u64;
        for (to, _) in &out {
            contacted.insert(*to);
        }
    }
    IsolationProbe {
        pid: engine.pid(),
        steps,
        messages_sent,
        contacted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agossip_core::{Ears, GossipCtx, Sears, Trivial};
    use agossip_sim::TimeStep;

    fn ctx(pid: usize, n: usize, f: usize) -> GossipCtx {
        GossipCtx::new(ProcessId(pid), n, f, 2024)
    }

    #[test]
    fn trivial_probe_contacts_everyone_in_one_step() {
        let engine = Trivial::new(ctx(0, 10, 2));
        let probe = probe_isolated(&engine, &[], 5);
        assert_eq!(probe.messages_sent, 9);
        assert_eq!(probe.contacted.len(), 9);
        assert!(probe.is_promiscuous(5));
        assert!(!probe.is_promiscuous(10));
        assert!(probe.avoids(ProcessId(0)));
    }

    #[test]
    fn probe_does_not_mutate_the_original() {
        let engine = Ears::new(ctx(0, 16, 4));
        let before_steps = engine.steps_taken();
        let _ = probe_isolated(&engine, &[], 10);
        assert_eq!(engine.steps_taken(), before_steps);
        assert!(!engine.is_quiescent());
    }

    #[test]
    fn ears_probe_sends_at_most_one_message_per_step() {
        let engine = Ears::new(ctx(3, 32, 8));
        let probe = probe_isolated(&engine, &[], 12);
        assert!(probe.messages_sent <= 12);
        assert!(probe.messages_sent >= 1);
    }

    #[test]
    fn sears_probe_is_promiscuous() {
        let n = 64;
        let engine = Sears::new(ctx(1, n, 16));
        let steps = 8;
        let probe = probe_isolated(&engine, &[], steps);
        // sears sends Θ(n^ε log n) per step; over 8 steps that dwarfs f/32.
        // f/32 rounds down to zero at f = 16, leaving a threshold of one.
        assert!(probe.is_promiscuous(1));
        assert!(probe.messages_sent as usize >= engine.fanout());
    }

    #[test]
    fn pending_messages_are_delivered_to_the_clone_only() {
        let engine = Ears::new(ctx(0, 8, 2));
        let other = Ears::new(ctx(1, 8, 2));
        let pending = vec![Envelope {
            from: ProcessId(1),
            to: ProcessId(0),
            sent_at: TimeStep(0),
            payload: agossip_core::EarsMessage {
                rumors: std::sync::Arc::new(other.rumors().clone()),
                informed: std::sync::Arc::new(other.informed().clone()),
            },
            copies: 1,
        }];
        let probe = probe_isolated(&engine, &pending, 4);
        assert_eq!(probe.pid, ProcessId(0));
        // The original never saw the pending message.
        assert!(!engine.rumors().contains_origin(ProcessId(1)));
        // The probe ran some steps.
        assert_eq!(probe.steps, 4);
    }

    #[test]
    fn uncontacted_lists_complement_of_contacts() {
        let engine = Trivial::new(ctx(0, 6, 1));
        let probe = probe_isolated(&engine, &[], 1);
        let uncontacted: Vec<_> = probe.uncontacted(ProcessId::all(6)).collect();
        // Trivial contacts everyone except itself.
        assert_eq!(uncontacted, vec![ProcessId(0)]);
    }
}
