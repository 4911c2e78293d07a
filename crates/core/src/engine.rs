//! The protocol state-machine interface shared by every gossip algorithm.
//!
//! Protocols are written as *engines*: plain state machines that are told
//! when a message arrives ([`GossipEngine::deliver`]) and when they are
//! scheduled for a local step ([`GossipEngine::local_step`]). Engines never
//! touch a clock, a socket, or a thread — which is exactly what makes them
//! asynchronous algorithms in the paper's sense: their behaviour depends only
//! on the sequence of local steps and received messages.
//!
//! The same engine can therefore be driven by:
//!
//! * the discrete-event simulator ([`crate::adapter::SimGossip`] adapts an
//!   engine to [`agossip_sim::Process`]), which is what the complexity
//!   experiments use, and
//! * the live runtime in `agossip-runtime` (OS threads exchanging byte
//!   frames), which demonstrates the protocols running under real
//!   (uncontrolled) asynchrony.

use std::fmt;

use agossip_sim::{Outbox, ProcessId};

use crate::rumor::{Rumor, RumorSet};

/// Construction context handed to every protocol instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipCtx {
    /// Identifier of this process.
    pub pid: ProcessId,
    /// System size `n`.
    pub n: usize,
    /// Failure budget `f < n` the protocol must tolerate.
    pub f: usize,
    /// This process's initial rumor.
    pub rumor: Rumor,
    /// Seed for the protocol's local randomness.
    pub seed: u64,
}

impl GossipCtx {
    /// Convenience constructor: process `pid` of `n` with failure budget `f`,
    /// carrying a rumor whose payload is its own index, with per-process
    /// seeds derived from `seed`.
    pub fn new(pid: ProcessId, n: usize, f: usize, seed: u64) -> Self {
        GossipCtx {
            pid,
            n,
            f,
            rumor: Rumor::new(pid, pid.index() as u64),
            seed: agossip_sim::rng::derive_seed(seed, agossip_sim::rng::RngStream::Process(pid)),
        }
    }

    /// Replaces the rumor payload (used by the consensus layer to gossip
    /// votes).
    pub fn with_payload(mut self, payload: u64) -> Self {
        self.rumor = Rumor::new(self.pid, payload);
        self
    }

    /// Size of a majority of the system, `⌊n/2⌋ + 1`.
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }
}

/// Pushes one message to every target, cloning for all but the last target,
/// which receives the message by move.
///
/// Every broadcast loop in the protocols goes through this helper so no send
/// ever pays a trailing clone. Since the set-carrying messages hold
/// [`std::sync::Arc`] snapshots, the per-target clone is a reference-count
/// bump, not a copy of the rumor state.
pub fn broadcast<M: Clone>(out: &mut Vec<(ProcessId, M)>, targets: &[ProcessId], msg: M) {
    if let Some((&last, rest)) = targets.split_last() {
        out.reserve(targets.len());
        for &q in rest {
            out.push((q, msg.clone()));
        }
        out.push((last, msg));
    }
}

/// One received, still-encoded frame awaiting delivery: the sender plus the
/// encoded message bytes. The runtime's due batches implement this so
/// [`GossipEngine::deliver_encoded`] can walk a batch without the queue
/// having to materialize `(ProcessId, &[u8])` pairs.
///
/// A broadcast body is shared by every frame that carries it, so the
/// runtime validates it once per reactor and hands each of those frames to
/// the engine with what that validation found ([`EncodedFrame::verified`]);
/// an engine may then parse the body without re-validating it.
pub trait EncodedFrame {
    /// The process the frame came from.
    fn sender(&self) -> ProcessId;

    /// The encoded message body.
    fn body(&self) -> &[u8];

    /// `Some(identity)` when these exact body bytes already passed the
    /// receiving engine's message-type
    /// [`WireDecodeView::decode_view`](crate::WireDecodeView::decode_view),
    /// with `identity` the [`WireDecodeView::view_identity`](crate::WireDecodeView::view_identity)
    /// of the view that parse returned. An engine may then skip the
    /// validating walk; it must still never panic should the value be
    /// wrong. Defaults to `None`: every body is validated on delivery.
    fn verified(&self) -> Option<bool> {
        None
    }
}

impl EncodedFrame for (ProcessId, &[u8]) {
    fn sender(&self) -> ProcessId {
        self.0
    }

    fn body(&self) -> &[u8] {
        self.1
    }
}

impl EncodedFrame for (ProcessId, Vec<u8>) {
    fn sender(&self) -> ProcessId {
        self.0
    }

    fn body(&self) -> &[u8] {
        &self.1
    }
}

/// A gossip protocol instance for one process.
pub trait GossipEngine {
    /// The wire message exchanged by this protocol.
    ///
    /// `PartialEq` because the simulator runs an engine as a
    /// [`Process`](agossip_sim::Process) with `Message = Msg`: its network
    /// keeps a sender's equal copies of one message to one destination in
    /// one step as one record, so `==` must hold only between messages a
    /// receiver cannot tell apart. A payload behind an `Arc` of an `Eq`
    /// type compares in O(1) when both sides share the allocation.
    type Msg: Clone + fmt::Debug + PartialEq;

    /// Incorporates a message received from `from`.
    ///
    /// Receiving never sends: in the paper's model a process sends only
    /// during a local step, after having received the messages delivered at
    /// that step.
    fn deliver(&mut self, from: ProcessId, msg: Self::Msg);

    /// Incorporates `copies` identical messages received from `from`, in a
    /// row: what the simulator calls once per network record (see
    /// [`agossip_sim::Envelope::copies`]).
    ///
    /// The default makes `copies` calls of [`GossipEngine::deliver`]. An
    /// override must leave exactly the state those calls leave; `tears`
    /// counts the flag `copies` times and merges the set once.
    fn deliver_copies(&mut self, from: ProcessId, msg: Self::Msg, copies: u32) {
        if copies == 0 {
            return;
        }
        for _ in 1..copies {
            self.deliver(from, msg.clone());
        }
        self.deliver(from, msg);
    }

    /// Delivers a batch of encoded frame bodies, all due at the same
    /// instant, in order. Returns the number of bodies that failed to
    /// decode (the rest of the batch is still delivered).
    ///
    /// Semantically identical to decoding each body and calling
    /// [`GossipEngine::deliver`] in order — which is exactly what this
    /// default does. The set-carrying protocols override it to decode
    /// borrowed views ([`crate::codec_view`]) and fold the whole batch into
    /// their state with at most one copy-on-write per set per batch,
    /// instead of one owned decode + one potential `Arc` copy per message;
    /// `tears` also skips the validating walk of a body
    /// [`EncodedFrame::verified`] says is valid.
    fn deliver_encoded<F: EncodedFrame>(&mut self, frames: &[F]) -> usize
    where
        Self::Msg: crate::codec::WireCodec,
    {
        let mut errors = 0usize;
        for frame in frames {
            match <Self::Msg as crate::codec::WireCodec>::decode(frame.body()) {
                Ok(msg) => self.deliver(frame.sender(), msg),
                Err(_) => errors += 1,
            }
        }
        errors
    }

    /// Executes one local step: compute and push any outgoing messages (as
    /// `(destination, message)` pairs) into `out`.
    ///
    /// `out` is append-only: it may already hold other processes' sends
    /// (the simulator lends its step-wide send log, see
    /// [`agossip_sim::Outbox::append_with`]), so an implementation pushes
    /// and never removes, reorders or rewrites an entry it did not push.
    fn local_step(&mut self, out: &mut Vec<(ProcessId, Self::Msg)>);

    /// Executes one local step into the simulator's send log: what
    /// [`crate::SimGossip`] calls.
    ///
    /// The default runs [`GossipEngine::local_step`] through
    /// [`Outbox::append_with`]. An override may log `c` identical
    /// broadcasts as one counted [`Outbox::broadcast`], but must leave
    /// exactly the state, and queue exactly the messages in the same order,
    /// that `local_step` does; `tears` ships its `c` second-level
    /// broadcasts of one step that way.
    fn local_step_into(&mut self, out: &mut Outbox<Self::Msg>) {
        out.append_with(|sends| self.local_step(sends));
    }

    /// This process's identifier.
    fn pid(&self) -> ProcessId;

    /// The rumors collected so far (always contains the process's own rumor).
    fn rumors(&self) -> &RumorSet;

    /// True when the process has stopped sending messages (it will send
    /// nothing in future local steps unless a received message reactivates
    /// it).
    fn is_quiescent(&self) -> bool;

    /// Number of local steps taken so far. Mostly useful for tests and
    /// progress diagnostics.
    fn steps_taken(&self) -> u64;

    /// The wire size of one message of this protocol, in rumor units (see
    /// [`crate::wire`]).
    ///
    /// The default charges one unit per message, which reduces the metric to
    /// plain message counting; protocols whose messages carry rumor sets
    /// override it so the experiment harnesses can estimate bit complexity
    /// (the paper's Section 7 open question).
    fn msg_units(msg: &Self::Msg) -> u64 {
        let _ = msg;
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_new_derives_distinct_seeds() {
        let a = GossipCtx::new(ProcessId(0), 8, 2, 42);
        let b = GossipCtx::new(ProcessId(1), 8, 2, 42);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.rumor, Rumor::new(ProcessId(0), 0));
        assert_eq!(b.rumor, Rumor::new(ProcessId(1), 1));
    }

    #[test]
    fn ctx_majority() {
        assert_eq!(GossipCtx::new(ProcessId(0), 7, 3, 0).majority(), 4);
        assert_eq!(GossipCtx::new(ProcessId(0), 8, 3, 0).majority(), 5);
        assert_eq!(GossipCtx::new(ProcessId(0), 1, 0, 0).majority(), 1);
    }

    #[test]
    fn with_payload_overrides_rumor_payload() {
        let ctx = GossipCtx::new(ProcessId(3), 8, 2, 1).with_payload(99);
        assert_eq!(ctx.rumor, Rumor::new(ProcessId(3), 99));
    }

    #[test]
    fn broadcast_preserves_target_order_and_handles_empty() {
        let mut out: Vec<(ProcessId, u64)> = Vec::new();
        broadcast(&mut out, &[], 7);
        assert!(out.is_empty());
        let targets = [ProcessId(3), ProcessId(1), ProcessId(2)];
        broadcast(&mut out, &targets, 7);
        let got: Vec<ProcessId> = out.iter().map(|(q, _)| *q).collect();
        assert_eq!(got, targets);
        assert!(out.iter().all(|(_, m)| *m == 7));
    }
}
