//! Message envelopes and the per-step send log.
//!
//! Models the "sends zero or more messages" half of a local step (paper,
//! Section 1): the [`Outbox`] is the log of every message the processes
//! scheduled in one global step emit, one segment per process. Every
//! point-to-point message is one unit of the message complexity every
//! theorem of the paper bounds, but a log entry need not be one message: a
//! counted broadcast ([`Outbox::broadcast`]) logs `c` identical sends of one
//! payload to the same targets once, and each of its entries stands for `c`
//! messages. The simulator stamps an entry with its segment's sender and the
//! step's time only when it hands the entry to the network; an [`Envelope`]
//! is what a recipient's local step receives, and it too may stand for
//! several identical messages.

use crate::process::ProcessId;
use crate::time::TimeStep;

/// `copies` value-identical point-to-point messages in transit or being
/// delivered.
///
/// The paper counts *point-to-point messages*: if a process sends the same
/// payload to `k` distinct targets in one step, that counts as `k` messages,
/// and sending it `c` times to one target counts as `c`. An envelope with
/// `copies = c` is therefore `c` units of message complexity: the same
/// sender, recipient, send time and payload, delivered together. A local
/// step receives one envelope per network record (see [`crate::Network`]);
/// handling it must leave exactly the state of handling `copies` envelopes
/// of one copy each, in a row.
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
    /// How many identical messages this envelope stands for, at least 1.
    pub copies: u32,
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
/// [`Outbox::is_empty`], [`Outbox::sends`], [`Outbox::counted_sends`],
/// [`Outbox::messages`], [`Outbox::drain`] and [`Outbox::into_sends`] all
/// start at the segment's first entry; only [`Outbox::append_with`] lends
/// the earlier entries, under an append-only contract.
///
/// **Entries and messages.** [`Outbox::send`], [`Outbox::send_all`] and
/// [`Outbox::append_with`] log one entry per message. A counted broadcast,
/// [`Outbox::broadcast`] with `copies = c`, logs one entry per target and
/// marks them as a block of `c` copies. It stands for the messages `c`
/// uncounted broadcasts of the payload to the same targets would log, in
/// the same order: copy-major, the targets in order once per copy.
/// [`Outbox::len`] counts messages and [`Outbox::messages`] lists them in
/// that order. [`Outbox::sends`], [`Outbox::drain`] and
/// [`Outbox::into_sends`] see entries: a block's entries come out once
/// each, whatever their count, so read the counts with
/// [`Outbox::counted_sends`] before draining a segment that holds one.
#[derive(Debug, Clone)]
pub struct Outbox<M> {
    sends: Vec<(ProcessId, M)>,
    /// The counted blocks of the whole log, in log order.
    blocks: Vec<Block>,
    /// Index of the current process's first entry in `sends`.
    start: usize,
    /// Index of the current process's first block in `blocks`.
    first_block: usize,
    /// Messages of the current segment beyond one per entry.
    extra: usize,
}

/// The entries `begin..end` of a send log, each standing for `copies ≥ 2`
/// messages, in copy-major order (see [`Outbox`]).
#[derive(Debug, Clone, Copy)]
struct Block {
    begin: usize,
    end: usize,
    copies: u32,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            sends: Vec::new(),
            blocks: Vec::new(),
            start: 0,
            first_block: 0,
            extra: 0,
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

    /// Queues `copies` identical broadcasts of `payload` to `targets`: the
    /// messages `copies` calls of [`Outbox::send_all`] would queue, in the
    /// same copy-major order, logged as one entry per target.
    ///
    /// Nothing is queued when `copies` is 0 or `targets` is empty. With
    /// `copies = 1` this is [`Outbox::send_all`].
    pub fn broadcast(&mut self, targets: &[ProcessId], payload: M, copies: u32)
    where
        M: Clone,
    {
        let Some((&last, rest)) = targets.split_last() else {
            return;
        };
        if copies == 0 {
            return;
        }
        let begin = self.sends.len();
        self.sends.reserve(targets.len());
        for &to in rest {
            self.sends.push((to, payload.clone()));
        }
        self.sends.push((last, payload));
        if copies > 1 {
            let extra = usize::try_from(copies - 1).unwrap_or(usize::MAX);
            self.extra += extra.saturating_mul(targets.len());
            self.blocks.push(Block {
                begin,
                end: self.sends.len(),
                copies,
            });
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

    /// Number of point-to-point messages the current process queued so far:
    /// an entry of a counted block counts its copies.
    pub fn len(&self) -> usize {
        self.sends.len() - self.start + self.extra
    }

    /// True if the current process sent nothing this step.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the outbox and returns the current process's queued
    /// `(target, payload)` entries; a counted block's entries come out once
    /// each (see [`Outbox`]).
    pub fn into_sends(mut self) -> Vec<(ProcessId, M)> {
        self.sends.drain(..self.start);
        self.sends
    }

    /// Drains the current process's queued `(target, payload)` entries in
    /// log order, leaving its segment empty and the log's capacity intact;
    /// a counted block's entries come out once each (see [`Outbox`]).
    pub fn drain(&mut self) -> impl Iterator<Item = (ProcessId, M)> + '_ {
        self.blocks.truncate(self.first_block);
        self.extra = 0;
        self.sends.drain(self.start..)
    }

    /// Read-only view of the current process's queued entries; a counted
    /// block's entries appear once each (see [`Outbox`]).
    pub fn sends(&self) -> &[(ProcessId, M)] {
        &self.sends[self.start..]
    }

    /// The current process's queued entries, in log order, each with the
    /// number of messages it stands for.
    pub fn counted_sends(&self) -> impl Iterator<Item = (ProcessId, &M, u32)> + '_ {
        self.runs(self.start, self.sends.len())
            .flat_map(move |(range, copies)| {
                self.sends[range]
                    .iter()
                    .map(move |(to, m)| (*to, m, copies))
            })
    }

    /// The current process's queued point-to-point messages, in send order:
    /// a counted block's entries repeat once per copy, copy-major.
    pub fn messages(&self) -> impl Iterator<Item = (ProcessId, &M)> + '_ {
        self.runs(self.start, self.sends.len())
            .flat_map(move |(range, copies)| {
                let entries = &self.sends[range];
                (0..copies).flat_map(move |_| entries.iter().map(|(to, m)| (*to, m)))
            })
    }

    /// Opens the next process's segment at the end of the log.
    pub(crate) fn begin_segment(&mut self) {
        self.start = self.sends.len();
        self.first_block = self.blocks.len();
        self.extra = 0;
    }

    /// The whole step's log: every segment, in schedule order.
    pub(crate) fn log(&self) -> &[(ProcessId, M)] {
        &self.sends
    }

    /// Splits the log's entries `begin..end` into consecutive ranges, each
    /// with the number of copies its every entry stands for: a counted
    /// block, or a maximal run of single entries. `begin` must not fall
    /// inside a block.
    pub(crate) fn runs(
        &self,
        begin: usize,
        end: usize,
    ) -> impl Iterator<Item = (std::ops::Range<usize>, u32)> + '_ {
        let first = self.blocks.partition_point(|b| b.begin < begin);
        let mut blocks = self.blocks[first..].iter().peekable();
        let mut at = begin;
        std::iter::from_fn(move || {
            if at >= end {
                return None;
            }
            let run = match blocks.peek().copied() {
                Some(b) if b.begin == at => {
                    blocks.next();
                    (at..b.end, b.copies)
                }
                Some(b) if b.begin < end => (at..b.begin, 1),
                _ => (at..end, 1),
            };
            at = run.0.end;
            Some(run)
        })
    }

    /// Drains the whole step's log in order and resets the outbox for the
    /// next step, keeping its capacity. Read the counted blocks with
    /// [`Outbox::runs`] first.
    pub(crate) fn drain_log(&mut self) -> std::vec::Drain<'_, (ProcessId, M)> {
        self.start = 0;
        self.first_block = 0;
        self.extra = 0;
        self.blocks.clear();
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
    fn a_counted_broadcast_counts_its_copies_within_its_segment() {
        let (p0, p1, p2) = (ProcessId(0), ProcessId(1), ProcessId(2));
        let mut out: Outbox<u32> = Outbox::new();
        out.broadcast(&[p1, p2], 7, 3);
        out.begin_segment();
        out.send(p2, 8);
        out.broadcast(&[p0, p1], 9, 2);
        out.broadcast(&[p0], 10, 1);
        out.broadcast(&[p1], 11, 0);
        out.broadcast(&[], 12, 4);
        // The earlier segment's six messages are out of view.
        assert_eq!(out.len(), 6);
        assert_eq!(out.sends(), &[(p2, 8), (p0, 9), (p1, 9), (p0, 10)]);
        let counted: Vec<_> = out.counted_sends().map(|(to, m, c)| (to, *m, c)).collect();
        assert_eq!(counted, [(p2, 8, 1), (p0, 9, 2), (p1, 9, 2), (p0, 10, 1)]);
        let messages: Vec<_> = out.messages().map(|(to, m)| (to, *m)).collect();
        assert_eq!(
            messages,
            [(p2, 8), (p0, 9), (p1, 9), (p0, 9), (p1, 9), (p0, 10)]
        );
        let runs: Vec<_> = out.runs(0, out.log().len()).collect();
        assert_eq!(runs, [(0..2, 3), (2..3, 1), (3..5, 2), (5..6, 1)]);

        // Draining the segment keeps the earlier segment's block.
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(drained, [(p2, 8), (p0, 9), (p1, 9), (p0, 10)]);
        assert!(out.is_empty());
        assert_eq!(out.messages().count(), 0);
        assert_eq!(
            out.runs(0, out.log().len()).collect::<Vec<_>>(),
            [(0..2, 3)]
        );
        out.send(p0, 13);
        assert_eq!(out.len(), 1);
        assert_eq!(out.clone().into_sends(), [(p0, 13)]);
        let log: Vec<_> = out.drain_log().collect();
        assert_eq!(log, [(p1, 7), (p2, 7), (p0, 13)]);
        assert_eq!(out.runs(0, 0).count(), 0);
        out.send(p1, 14);
        assert_eq!(out.runs(0, 1).collect::<Vec<_>>(), [(0..1, 1)]);
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
            copies: 1,
        };
        let meta = env.meta();
        assert_eq!(meta.from, ProcessId(0));
        assert_eq!(meta.to, ProcessId(1));
        assert_eq!(meta.sent_at, TimeStep(5));
    }
}
