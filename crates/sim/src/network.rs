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
//!
//! A queued message is a compact record, not an [`Envelope`]: the queue
//! already names the destination, so it keeps the payload, `sent_at`, and
//! the sender and the delay as `u32` each — 32 bytes for a `tears` message.
//! The deadline is recomputed from `sent_at + delay` when a pass looks at
//! it, and a delivery rebuilds the envelope.

use crate::message::Envelope;
use crate::process::ProcessId;
use crate::time::TimeStep;

/// The delay recorded for a message withheld for the rest of the execution.
const WITHHELD: u32 = u32::MAX;

/// A message waiting in the network.
///
/// The destination is the queue that holds the record, so it keeps only
/// what a delivery rebuilds the [`Envelope`] from, with the sender and the
/// delay in 32 bits each: 32 bytes for a 16-byte payload. Both fit by
/// construction:
/// [`SimConfig`](crate::SimConfig) caps `n` at 2^20 and `d` below
/// `u32::MAX`.
#[derive(Debug, Clone)]
struct InFlight<M> {
    payload: M,
    sent_at: TimeStep,
    from: u32,
    /// Steps from `sent_at` to delivery, or [`WITHHELD`].
    delay: u32,
}

impl<M> InFlight<M> {
    /// The message becomes deliverable at any scheduled step of the
    /// recipient occurring at time `>=` this.
    fn deliverable_at(&self) -> TimeStep {
        if self.delay == WITHHELD {
            TimeStep(u64::MAX)
        } else {
            self.sent_at.after(u64::from(self.delay))
        }
    }

    /// The envelope this record was sent as, addressed to `to`.
    fn into_envelope(self, to: ProcessId) -> Envelope<M> {
        Envelope {
            from: ProcessId(self.from as usize),
            to,
            sent_at: self.sent_at,
            payload: self.payload,
        }
    }
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
    /// accounting, which is done by the caller. Delays are kept in 32 bits,
    /// so any `delay >= u32::MAX` withholds the message too; the model's
    /// delays never reach that (`SimConfig` rejects `d >= u32::MAX`).
    pub fn send(&mut self, envelope: Envelope<M>, delay: u64) {
        let Envelope {
            from,
            to,
            sent_at,
            payload,
        } = envelope;
        self.push(from, to, sent_at, payload, delay);
    }

    /// [`Self::send`] without building the envelope: what the scheduler
    /// calls for every entry of a step's send log.
    pub(crate) fn push(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        sent_at: TimeStep,
        payload: M,
        delay: u64,
    ) {
        debug_assert!(to.index() < self.queues.len(), "destination out of range");
        debug_assert!(u32::try_from(from.index()).is_ok(), "sender out of range");
        let message = InFlight {
            payload,
            sent_at,
            from: u32::try_from(from.index()).unwrap_or(u32::MAX),
            delay: u32::try_from(delay).unwrap_or(WITHHELD),
        };
        let queue = &mut self.queues[to.index()];
        queue.earliest = earliest_with(queue.earliest, message.deliverable_at());
        queue.pending.push(message);
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
            let at = m.deliverable_at();
            let due = at <= now;
            if !due {
                earliest = earliest_with(earliest, at);
            }
            due
        });
        out.extend(due.map(|m| m.into_envelope(to)));
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

    /// Clones every message currently queued for `to` (regardless of
    /// delivery deadline), in send order.
    pub fn clone_pending_for(&self, to: ProcessId) -> Vec<Envelope<M>>
    where
        M: Clone,
    {
        let pending = &self.queues[to.index()].pending;
        pending
            .iter()
            .map(|m| m.clone().into_envelope(to))
            .collect()
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
    fn an_in_flight_tears_sized_message_takes_32_bytes() {
        // `[u64; 2]` is the size of a `TearsMessage` (an `Arc` and a flag).
        assert_eq!(std::mem::size_of::<InFlight<[u64; 2]>>(), 32);
    }

    #[test]
    fn compact_records_rebuild_the_sent_envelope() {
        // The largest sender the simulator admits (n = 2^20) and the
        // largest delay it admits, d = 2^32 - 2.
        let mut net: Network<u32> = Network::new(4);
        let far = ProcessId((1 << 20) - 1);
        let sent = env(far.index(), 3, 41, 7);
        net.send(sent.clone(), u64::from(u32::MAX) - 1);
        assert_eq!(
            net.earliest_deliverable_for(ProcessId(3)),
            Some(TimeStep(41 + u64::from(u32::MAX) - 1))
        );
        assert_eq!(net.clone_pending_for(ProcessId(3)), vec![sent.clone()]);
        let got = net.collect_deliverable(ProcessId(3), TimeStep(u64::MAX - 1));
        assert_eq!(got, vec![sent]);
    }

    #[test]
    fn delays_beyond_32_bits_withhold() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 5, 1), u64::from(u32::MAX));
        net.send(env(0, 1, 5, 2), u64::MAX);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(u64::MAX)));
        assert!(net.all_beyond(TimeStep(u64::MAX - 1)));
        assert_eq!(net.pending_for(ProcessId(1)), 2);
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
