//! Message envelopes and the per-step send log.
//!
//! Models the "sends zero or more messages" half of a local step (paper,
//! Section 1): the [`Outbox`] is the log of every message the processes
//! scheduled in one global step emit, one segment per process, and each
//! entry is one point-to-point message — one unit of the message complexity
//! every theorem of the paper bounds. The simulator stamps an entry with its
//! segment's sender and the step's time only when it hands the entry to the
//! network; an [`Envelope`] is what a recipient's local step receives.

use crate::process::ProcessId;
use crate::time::TimeStep;

/// A point-to-point message in transit or being delivered.
///
/// The paper counts *point-to-point messages*: if a process sends the same
/// payload to `k` distinct targets in one step, that counts as `k` messages.
/// Every [`Envelope`] is therefore one unit of message complexity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The sender.
    pub from: ProcessId,
    /// The recipient.
    pub to: ProcessId,
    /// The time step at which the message was sent.
    pub sent_at: TimeStep,
    /// The protocol payload.
    pub payload: M,
}

impl<M> Envelope<M> {
    /// Returns the payload-independent metadata of this envelope.
    pub fn meta(&self) -> EnvelopeMeta {
        EnvelopeMeta {
            from: self.from,
            to: self.to,
            sent_at: self.sent_at,
        }
    }
}

/// Metadata describing a message without exposing its payload.
///
/// Adversaries see only this: both the oblivious and the adaptive adversary
/// of the paper may observe *that* a message is sent, and to whom, but the
/// delay decision never depends on the payload bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeMeta {
    /// The sender.
    pub from: ProcessId,
    /// The recipient.
    pub to: ProcessId,
    /// The time step at which the message was sent.
    pub sent_at: TimeStep,
}

/// The send log of one global step.
///
/// Every process scheduled in a step appends its sends to the same log, one
/// contiguous segment per process in schedule order; the simulator keeps one
/// `Outbox` alive across steps and empties it after handing the step's
/// messages to the network, so steady-state stepping performs no outbox
/// allocation. A process sees only its own segment: [`Outbox::len`],
/// [`Outbox::is_empty`], [`Outbox::sends`], [`Outbox::drain`] and
/// [`Outbox::into_sends`] all start at the segment's first entry; only
/// [`Outbox::append_with`] lends the earlier entries, under an append-only
/// contract.
#[derive(Debug, Clone)]
pub struct Outbox<M> {
    sends: Vec<(ProcessId, M)>,
    /// Index of the current process's first entry in `sends`.
    start: usize,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            sends: Vec::new(),
            start: 0,
        }
    }
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message for `to`.
    pub fn send(&mut self, to: ProcessId, payload: M) {
        self.sends.push((to, payload));
    }

    /// Queues the same payload for every target in `targets`.
    pub fn send_all(&mut self, targets: impl IntoIterator<Item = ProcessId>, payload: M)
    where
        M: Clone,
    {
        for to in targets {
            self.sends.push((to, payload.clone()));
        }
    }

    /// Lends the send log to `append`, which queues messages by pushing
    /// `(target, payload)` pairs onto it; returns what `append` returns.
    ///
    /// This lets an engine that emits into a `Vec` write straight into the
    /// step's log instead of staging its sends in a buffer of its own. The
    /// `Vec` may already hold entries — earlier processes' segments and this
    /// process's earlier sends — so `append` must treat it as append-only:
    /// push, never remove, reorder or rewrite an entry it did not push.
    /// Debug builds check that the log did not shrink.
    pub fn append_with<R>(&mut self, append: impl FnOnce(&mut Vec<(ProcessId, M)>) -> R) -> R {
        let before = self.sends.len();
        let result = append(&mut self.sends);
        debug_assert!(
            self.sends.len() >= before,
            "an outbox append removed queued sends"
        );
        result
    }

    /// Number of point-to-point messages the current process queued so far.
    pub fn len(&self) -> usize {
        self.sends.len() - self.start
    }

    /// True if the current process sent nothing this step.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the outbox and returns the current process's queued
    /// `(target, payload)` pairs.
    pub fn into_sends(mut self) -> Vec<(ProcessId, M)> {
        self.sends.drain(..self.start);
        self.sends
    }

    /// Drains the current process's queued `(target, payload)` pairs in send
    /// order, leaving its segment empty and the log's capacity intact.
    pub fn drain(&mut self) -> impl Iterator<Item = (ProcessId, M)> + '_ {
        self.sends.drain(self.start..)
    }

    /// Read-only view of the current process's queued sends.
    pub fn sends(&self) -> &[(ProcessId, M)] {
        &self.sends[self.start..]
    }

    /// Opens the next process's segment at the end of the log.
    pub(crate) fn begin_segment(&mut self) {
        self.start = self.sends.len();
    }

    /// The whole step's log: every segment, in schedule order.
    pub(crate) fn log(&self) -> &[(ProcessId, M)] {
        &self.sends
    }

    /// Drains the whole step's log in order and resets the outbox for the
    /// next step, keeping its capacity.
    pub(crate) fn drain_log(&mut self) -> std::vec::Drain<'_, (ProcessId, M)> {
        self.start = 0;
        self.sends.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_sends() {
        let mut out: Outbox<u32> = Outbox::new();
        assert!(out.is_empty());
        out.send(ProcessId(1), 42);
        out.send(ProcessId(2), 43);
        assert_eq!(out.len(), 2);
        assert!(!out.is_empty());
        let sends = out.into_sends();
        assert_eq!(sends, vec![(ProcessId(1), 42), (ProcessId(2), 43)]);
    }

    #[test]
    fn drain_empties_but_keeps_capacity() {
        let mut out: Outbox<u32> = Outbox::new();
        out.send(ProcessId(0), 1);
        out.send(ProcessId(1), 2);
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(drained, vec![(ProcessId(0), 1), (ProcessId(1), 2)]);
        assert!(out.is_empty());
        assert!(out.sends.capacity() >= 2, "capacity is retained for reuse");
    }

    #[test]
    fn a_segment_scopes_the_view_to_the_current_process() {
        let mut out: Outbox<u32> = Outbox::new();
        out.send(ProcessId(1), 10);
        out.send(ProcessId(2), 11);
        out.begin_segment();
        assert!(out.is_empty());
        out.send(ProcessId(0), 20);
        assert_eq!(out.len(), 1);
        assert_eq!(out.sends(), &[(ProcessId(0), 20)]);
        assert_eq!(out.log().len(), 3);
        assert_eq!(
            out.clone().into_sends(),
            vec![(ProcessId(0), 20)],
            "into_sends returns the current segment only"
        );
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(drained, vec![(ProcessId(0), 20)]);
        assert_eq!(out.log(), &[(ProcessId(1), 10), (ProcessId(2), 11)]);
        let log: Vec<_> = out.drain_log().collect();
        assert_eq!(log.len(), 2);
        assert!(out.log().is_empty());
        assert!(out.is_empty());
    }

    #[test]
    fn append_with_lends_the_log_and_returns_the_closure_result() {
        let mut out: Outbox<u32> = Outbox::new();
        out.send(ProcessId(3), 1);
        out.begin_segment();
        out.send(ProcessId(4), 2);
        let seen = out.append_with(|log| {
            let seen = log.len();
            log.push((ProcessId(5), 3));
            seen
        });
        assert_eq!(seen, 2, "the closure sees every earlier entry");
        assert_eq!(out.sends(), &[(ProcessId(4), 2), (ProcessId(5), 3)]);
        assert_eq!(out.log()[0], (ProcessId(3), 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "removed queued sends")]
    fn append_with_rejects_a_shrinking_log() {
        let mut out: Outbox<u32> = Outbox::new();
        out.send(ProcessId(0), 1);
        out.begin_segment();
        out.append_with(|log| log.clear());
    }

    #[test]
    fn send_all_clones_payload() {
        let mut out: Outbox<String> = Outbox::new();
        out.send_all(ProcessId::all(3), "hi".to_string());
        assert_eq!(out.len(), 3);
        assert!(out.sends().iter().all(|(_, m)| m == "hi"));
    }

    #[test]
    fn envelope_meta_strips_payload() {
        let env = Envelope {
            from: ProcessId(0),
            to: ProcessId(1),
            sent_at: TimeStep(5),
            payload: vec![1u8, 2, 3],
        };
        let meta = env.meta();
        assert_eq!(meta.from, ProcessId(0));
        assert_eq!(meta.to, ProcessId(1));
        assert_eq!(meta.sent_at, TimeStep(5));
    }
}
