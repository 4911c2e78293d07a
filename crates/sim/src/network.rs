//! The in-flight message buffer.
//!
//! Messages are never lost or corrupted (paper, Section 1): once sent, a
//! message stays in the network until its recipient is scheduled at or after
//! the message's delivery deadline, at which point it is handed to the
//! recipient's local step. Messages addressed to crashed processes are
//! discarded when the crash is observed.
//!
//! Each destination owns one list of in-flight messages, appended in send
//! order, and the earliest deadline among them. Sending is a push;
//! [`Network::collect_deliverable_into`] returns at once while that earliest
//! deadline is in the future, and otherwise makes one forward pass that moves
//! the due messages out — already in send order — and closes the gaps:
//! O([`Network::pending_for`]). The model bounds every delivery delay by `d`
//! (the scheduler rejects anything else except a withheld message), so a
//! message a pass keeps is due within `d` steps and is passed over at most
//! that many times: collection is O(delivered) amortized. Withheld messages
//! are never due; a queue holding nothing else is skipped by the
//! earliest-deadline check.

use crate::message::Envelope;
use crate::process::ProcessId;
use crate::time::TimeStep;

/// A message waiting in the network together with the earliest time at which
/// it may be delivered.
#[derive(Debug, Clone)]
struct InFlight<M> {
    envelope: Envelope<M>,
    /// The message becomes deliverable at any scheduled step of the recipient
    /// occurring at time `>= deliverable_at`.
    deliverable_at: TimeStep,
}

/// The messages in flight to one destination.
#[derive(Debug, Clone)]
struct Queue<M> {
    /// In send order.
    pending: Vec<InFlight<M>>,
    /// The earliest deadline in `pending`; `None` when it is empty.
    earliest: Option<TimeStep>,
}

/// `earliest` lowered to cover one more deadline.
fn earliest_with(earliest: Option<TimeStep>, deadline: TimeStep) -> Option<TimeStep> {
    Some(earliest.map_or(deadline, |e| e.min(deadline)))
}

/// The network: per destination, the in-flight messages in send order (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct Network<M> {
    queues: Vec<Queue<M>>,
    in_flight: usize,
}

impl<M> Network<M> {
    /// Creates an empty network for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        let queues = (0..n).map(|_| Queue {
            pending: Vec::new(),
            earliest: None,
        });
        Network {
            queues: queues.collect(),
            in_flight: 0,
        }
    }

    /// Number of processes the network routes between.
    pub fn n(&self) -> usize {
        self.queues.len()
    }

    /// Accepts a message sent at `envelope.sent_at` with delivery delay
    /// `delay` (so it becomes deliverable at `sent_at + delay`).
    ///
    /// A `delay` of `u64::MAX` models a message the adversary withholds for
    /// the remainder of the execution (used by the adaptive lower-bound
    /// adversary); such messages still count as *sent* for message-complexity
    /// accounting, which is done by the caller.
    pub fn send(&mut self, envelope: Envelope<M>, delay: u64) {
        let deliverable_at = envelope.sent_at.after(delay);
        let to = envelope.to.index();
        debug_assert!(to < self.queues.len(), "destination out of range");
        let queue = &mut self.queues[to];
        queue.earliest = earliest_with(queue.earliest, deliverable_at);
        queue.pending.push(InFlight {
            envelope,
            deliverable_at,
        });
        self.in_flight += 1;
    }

    /// Removes and returns every message addressed to `to` whose delivery
    /// deadline has been reached at time `now`, in send order.
    ///
    /// Convenience wrapper around [`Self::collect_deliverable_into`] for
    /// callers that do not reuse a buffer.
    pub fn collect_deliverable(&mut self, to: ProcessId, now: TimeStep) -> Vec<Envelope<M>> {
        let mut delivered = Vec::new();
        self.collect_deliverable_into(to, now, &mut delivered);
        delivered
    }

    /// Appends every message addressed to `to` whose delivery deadline has
    /// been reached at time `now` onto `out`, in send order.
    ///
    /// When the earliest deadline for `to` is still in the future this
    /// returns without moving (or allocating) anything.
    pub fn collect_deliverable_into(
        &mut self,
        to: ProcessId,
        now: TimeStep,
        out: &mut Vec<Envelope<M>>,
    ) {
        let queue = &mut self.queues[to.index()];
        if queue.earliest.is_none_or(|e| e > now) {
            return;
        }
        let before = queue.pending.len();
        let mut earliest = None;
        let due = queue.pending.extract_if(.., |m| {
            let due = m.deliverable_at <= now;
            if !due {
                earliest = earliest_with(earliest, m.deliverable_at);
            }
            due
        });
        out.extend(due.map(|m| m.envelope));
        queue.earliest = earliest;
        self.in_flight -= before - queue.pending.len();
    }

    /// Discards every message addressed to `to` (used when `to` crashes).
    /// Returns the number of messages dropped.
    pub fn drop_for(&mut self, to: ProcessId) -> usize {
        let queue = &mut self.queues[to.index()];
        let dropped = queue.pending.len();
        queue.pending.clear();
        queue.earliest = None;
        self.in_flight -= dropped;
        dropped
    }

    /// Total number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Number of messages currently queued for `to`.
    pub fn pending_for(&self, to: ProcessId) -> usize {
        self.queues[to.index()].pending.len()
    }

    /// Earliest time at which any message queued for `to` becomes
    /// deliverable, or `None` if the queue is empty. O(1).
    pub fn earliest_deliverable_for(&self, to: ProcessId) -> Option<TimeStep> {
        self.queues[to.index()].earliest
    }

    /// Earliest time at which any in-flight message (to any destination)
    /// becomes deliverable, or `None` if the network is empty: the minimum
    /// over the `n` per-destination deadlines.
    ///
    /// This is what the scheduler's idle fast-forward jumps to.
    pub fn earliest_deliverable(&self) -> Option<TimeStep> {
        self.queues.iter().filter_map(|q| q.earliest).min()
    }

    /// True if no message is in flight to any destination.
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// Iterates over the messages currently queued for `to` (regardless of
    /// delivery deadline) in send order, without removing them.
    pub fn iter_for(&self, to: ProcessId) -> impl Iterator<Item = &Envelope<M>> {
        self.queues[to.index()].pending.iter().map(|m| &m.envelope)
    }

    /// Clones every message currently queued for `to`, in send order.
    pub fn clone_pending_for(&self, to: ProcessId) -> Vec<Envelope<M>>
    where
        M: Clone,
    {
        self.iter_for(to).cloned().collect()
    }

    /// True if every in-flight message has a delivery deadline of
    /// `u64::MAX`-like magnitude, i.e. has been withheld "forever" relative
    /// to `horizon`. Used by drivers that want to treat permanently withheld
    /// messages as drained.
    pub fn all_beyond(&self, horizon: TimeStep) -> bool {
        self.earliest_deliverable().is_none_or(|e| e > horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(from: usize, to: usize, at: u64, payload: u32) -> Envelope<u32> {
        Envelope {
            from: ProcessId(from),
            to: ProcessId(to),
            sent_at: TimeStep(at),
            payload,
        }
    }

    #[test]
    fn delivery_respects_deadline() {
        let mut net: Network<u32> = Network::new(3);
        net.send(env(0, 1, 0, 7), 2);
        assert_eq!(net.in_flight(), 1);
        // Not deliverable before t2.
        assert!(net
            .collect_deliverable(ProcessId(1), TimeStep(1))
            .is_empty());
        assert_eq!(net.in_flight(), 1);
        let got = net.collect_deliverable(ProcessId(1), TimeStep(2));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 7);
        assert!(net.is_empty());
    }

    #[test]
    fn delivery_is_per_destination() {
        let mut net: Network<u32> = Network::new(3);
        net.send(env(0, 1, 0, 1), 1);
        net.send(env(0, 2, 0, 2), 1);
        let got = net.collect_deliverable(ProcessId(1), TimeStep(5));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 1);
        assert_eq!(net.pending_for(ProcessId(2)), 1);
    }

    #[test]
    fn withheld_messages_stay_in_flight() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 9), u64::MAX);
        assert!(net
            .collect_deliverable(ProcessId(1), TimeStep(1_000_000))
            .is_empty());
        assert_eq!(net.in_flight(), 1);
        assert!(net.all_beyond(TimeStep(1_000_000)));
        assert!(!net.is_empty());
    }

    #[test]
    fn drop_for_discards_queue() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 1), 1);
        net.send(env(0, 1, 0, 2), 1);
        assert_eq!(net.drop_for(ProcessId(1)), 2);
        assert!(net.is_empty());
        assert_eq!(net.drop_for(ProcessId(1)), 0);
    }

    #[test]
    fn earliest_deliverable_reports_minimum() {
        let mut net: Network<u32> = Network::new(2);
        assert_eq!(net.earliest_deliverable_for(ProcessId(1)), None);
        assert_eq!(net.earliest_deliverable(), None);
        net.send(env(0, 1, 0, 1), 5);
        net.send(env(0, 1, 2, 2), 1);
        assert_eq!(
            net.earliest_deliverable_for(ProcessId(1)),
            Some(TimeStep(3))
        );
        net.send(env(1, 0, 0, 3), 2);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(2)));
    }

    #[test]
    fn mixed_deadlines_partial_delivery() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 1), 1);
        net.send(env(0, 1, 0, 2), 10);
        let got = net.collect_deliverable(ProcessId(1), TimeStep(5));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 1);
        assert_eq!(net.pending_for(ProcessId(1)), 1);
        let got = net.collect_deliverable(ProcessId(1), TimeStep(10));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 2);
    }

    #[test]
    fn batches_are_delivered_in_send_order() {
        // Send order 10, 20, 30 with deadlines 5, 3, 4: the whole batch is
        // due at t5 and must come out in send order, not deadline order.
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 10), 5);
        net.send(env(0, 1, 0, 20), 3);
        net.send(env(0, 1, 0, 30), 4);
        let got = net.collect_deliverable(ProcessId(1), TimeStep(5));
        let payloads: Vec<u32> = got.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![10, 20, 30]);
    }

    #[test]
    fn clone_pending_preserves_send_order() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 10), 9);
        net.send(env(0, 1, 0, 20), 2);
        net.send(env(0, 1, 0, 30), 5);
        let cloned = net.clone_pending_for(ProcessId(1));
        let payloads: Vec<u32> = cloned.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![10, 20, 30]);
        // Cloning does not disturb the queue.
        assert_eq!(net.pending_for(ProcessId(1)), 3);
    }

    #[test]
    fn future_deadline_collection_moves_nothing() {
        // Regression for the historical implementation, which popped and
        // rebuilt the whole queue even when nothing was deliverable: with the
        // earliest deadline in the future, collection must move no envelopes
        // and leave every observable unchanged.
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 1), 7);
        net.send(env(0, 1, 0, 2), 7);
        net.send(env(0, 1, 0, 3), 7);
        let mut out = Vec::new();
        for now in 0..7 {
            net.collect_deliverable_into(ProcessId(1), TimeStep(now), &mut out);
            assert!(out.is_empty(), "nothing deliverable before t7");
            assert_eq!(net.in_flight(), 3);
            assert_eq!(net.pending_for(ProcessId(1)), 3);
            assert_eq!(
                net.earliest_deliverable_for(ProcessId(1)),
                Some(TimeStep(7))
            );
        }
        // The untouched queue still delivers the full batch in send order.
        net.collect_deliverable_into(ProcessId(1), TimeStep(8), &mut out);
        let payloads: Vec<u32> = out.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![1, 2, 3]);
    }

    #[test]
    fn network_wide_earliest_tracks_sends_collections_and_drops() {
        // Destinations far apart in a network of more than 128 queues, so
        // the network-wide minimum runs over many empty queues too.
        let n = 131;
        let mut net: Network<u32> = Network::new(n);
        let near = ProcessId(1);
        let far = ProcessId(65);
        let edge = ProcessId(128);
        net.send(env(0, near.index(), 0, 1), 9);
        net.send(env(0, far.index(), 0, 2), 3);
        net.send(env(0, edge.index(), 0, 3), 5);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(3)));
        // Delivering the earliest message must advance the minimum.
        assert_eq!(net.collect_deliverable(far, TimeStep(3)).len(), 1);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(5)));
        assert!(net.all_beyond(TimeStep(4)));
        assert!(!net.all_beyond(TimeStep(5)));
        // A crash-drop empties its queue; the remaining message wins.
        assert_eq!(net.drop_for(edge), 1);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(9)));
        assert_eq!(net.drop_for(near), 1);
        assert_eq!(net.earliest_deliverable(), None);
        assert!(net.is_empty());
        // A send into an emptied queue sets its deadline afresh.
        net.send(env(0, far.index(), 10, 4), 2);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(12)));
    }

    #[test]
    fn collect_into_appends_without_clearing() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 5), 1);
        let mut out = vec![env(1, 0, 0, 99)];
        net.collect_deliverable_into(ProcessId(1), TimeStep(1), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].payload, 99);
        assert_eq!(out[1].payload, 5);
    }
}
