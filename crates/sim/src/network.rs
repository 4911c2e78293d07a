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
//! already names the destination, so it keeps the payload, `sent_at`, the
//! delay as a `u32`, and one `u32` packing the sender with a copy count —
//! 32 bytes for a `tears` message. The deadline is recomputed from
//! `sent_at + delay` when a pass looks at it, and a delivery rebuilds the
//! envelope.
//!
//! A record stands for `c ≥ 1` value-identical messages: the same sender,
//! `sent_at`, delay and an equal payload. `tears` ships its unchanged `V` to
//! the same member of `Π2` once per trigger it reaches, dozens of times in
//! one local step, so [`Network::send`] merges a message into an earlier
//! record of its destination's queue when that record matches it, has room
//! for one more copy, and every record from it to the tail holds the same
//! sender, `sent_at` and an equal payload (the delays may differ). Such a
//! run of records holds only envelopes equal to the new one, so the merge
//! only reorders equal values: every delivered batch is the same sequence of
//! values, in the same order, as with one record per message. An envelope
//! of `c` copies is sent as `c` single envelopes would be, in one call.
//!
//! [`Network::collect_deliverable_into`], the simulator's delivery path,
//! hands out one envelope per due record, carrying the record's count in
//! [`Envelope::copies`]. [`Network::collect_deliverable`] and
//! [`Network::clone_pending_for`] expand a record into its copies, one
//! envelope each; [`Network::in_flight`], [`Network::pending_for`] and
//! [`Network::drop_for`] count messages, not records.

use crate::config::MAX_PROCESSES;
use crate::message::Envelope;
use crate::process::ProcessId;
use crate::time::TimeStep;

/// The delay recorded for a message withheld for the rest of the execution.
const WITHHELD: u32 = u32::MAX;

/// The low bits of a record's `from` word that hold the sender: enough for
/// every process index the simulator admits ([`MAX_PROCESSES`] = 2^20).
const SENDER_BITS: u32 = MAX_PROCESSES.trailing_zeros();

/// The sender bits of a record's `from` word; the bits above hold
/// `copies - 1`.
const SENDER_MASK: u32 = (1 << SENDER_BITS) - 1;

/// The most messages one record stands for: `copies - 1` fills the 12 bits
/// above the sender.
const MAX_COPIES: u32 = 1 << (u32::BITS - SENDER_BITS);

/// `c` value-identical messages waiting in the network.
///
/// The destination is the queue that holds the record, so it keeps only
/// what a delivery rebuilds the [`Envelope`]s from, with the sender and the
/// copy count packed in one `u32` and the delay in another: 32 bytes for a
/// 16-byte payload. The delay fits by construction
/// ([`SimConfig`](crate::SimConfig) caps `d` below `u32::MAX`), and so does
/// a sender below [`MAX_PROCESSES`]; a count that would not fit starts a
/// new record.
#[derive(Debug, Clone)]
struct InFlight<M> {
    payload: M,
    sent_at: TimeStep,
    /// The sender in the low [`SENDER_BITS`] bits, `copies - 1` above them.
    from: u32,
    /// Steps from `sent_at` to delivery, or [`WITHHELD`].
    delay: u32,
}

impl<M> InFlight<M> {
    /// The message becomes deliverable at any scheduled step of the
    /// recipient occurring at time `>=` this.
    fn deliverable_at(&self) -> TimeStep {
        deadline(self.sent_at, self.delay)
    }

    /// The sender's index.
    fn sender(&self) -> u32 {
        self.from & SENDER_MASK
    }

    /// How many messages this record stands for.
    fn copies(&self) -> u32 {
        (self.from >> SENDER_BITS) + 1
    }

    /// The envelope this record stands for, addressed to `to`, with the
    /// record's count.
    fn into_envelope(self, to: ProcessId) -> Envelope<M> {
        Envelope {
            from: ProcessId(usize::try_from(self.sender()).unwrap_or(usize::MAX)),
            to,
            sent_at: self.sent_at,
            copies: self.copies(),
            payload: self.payload,
        }
    }
}

/// Appends the messages `envelope` stands for onto `out`, one envelope of
/// one copy each.
fn expand_into<M: Clone>(envelope: Envelope<M>, out: &mut Vec<Envelope<M>>) {
    let single = Envelope {
        copies: 1,
        ..envelope
    };
    for _ in 1..envelope.copies {
        out.push(single.clone());
    }
    if envelope.copies > 0 {
        out.push(single);
    }
}

/// The deadline of a message sent at `sent_at` with the recorded `delay`.
fn deadline(sent_at: TimeStep, delay: u32) -> TimeStep {
    if delay == WITHHELD {
        TimeStep(u64::MAX)
    } else {
        sent_at.after(u64::from(delay))
    }
}

/// The number of messages `records` stand for.
fn messages_in<M>(records: &[InFlight<M>]) -> usize {
    records
        .iter()
        .map(|m| usize::try_from(m.copies()).unwrap_or(usize::MAX))
        .sum()
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

    /// Accepts the `envelope.copies` messages `envelope` stands for, sent at
    /// `envelope.sent_at` with delivery delay `delay` (so they become
    /// deliverable at `sent_at + delay`), exactly as that many single sends
    /// would.
    ///
    /// A `delay` of `u64::MAX` models a message the adversary withholds for
    /// the remainder of the execution (used by the adaptive lower-bound
    /// adversary); such messages still count as *sent* for message-complexity
    /// accounting, which is done by the caller. Delays are kept in 32 bits,
    /// so any `delay >= u32::MAX` withholds the message too; the model's
    /// delays never reach that (`SimConfig` rejects `d >= u32::MAX`).
    ///
    /// The sender must be below [`MAX_PROCESSES`], like every process index
    /// the simulator admits: the record keeps it in 20 bits. Debug builds
    /// check it; a release build records a larger sender as
    /// `MAX_PROCESSES - 1`, in a record of its own. Payloads are compared
    /// with `==` to share a record between value-identical copies (see the
    /// module docs), so `==` must hold only between payloads a recipient
    /// cannot tell apart.
    pub fn send(&mut self, envelope: Envelope<M>, delay: u64)
    where
        M: Clone + PartialEq,
    {
        let Envelope {
            from,
            to,
            sent_at,
            payload,
            copies,
        } = envelope;
        self.push(from, to, sent_at, payload, delay, copies);
    }

    /// [`Self::send`] without building the envelope: what the scheduler
    /// calls for every run of equal delays a step's send log draws for one
    /// entry.
    ///
    /// Adds the copies to the nearest record, walking back from the tail
    /// over records of the same sender, `sent_at` and an equal payload,
    /// whose delay equals this one's and whose count has room; what does
    /// not fit goes into new records of up to [`MAX_COPIES`] each. That is
    /// where `copies` single pushes put them: at most the last record of a
    /// delay has room, and once it is full every further copy lands in the
    /// newest record.
    pub(crate) fn push(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        sent_at: TimeStep,
        payload: M,
        delay: u64,
        copies: u32,
    ) where
        M: Clone + PartialEq,
    {
        debug_assert!(to.index() < self.queues.len(), "destination out of range");
        debug_assert!(from.index() < MAX_PROCESSES, "sender out of range");
        if copies == 0 {
            return;
        }
        let delay = u32::try_from(delay).unwrap_or(WITHHELD);
        let queue = &mut self.queues[to.index()];
        queue.earliest = earliest_with(queue.earliest, deadline(sent_at, delay));
        self.in_flight += usize::try_from(copies).unwrap_or(usize::MAX);
        let mut left = copies;
        // A sender that does not fit the sender bits is saturated, never
        // wrapped, and never shares a record.
        let sender = u32::try_from(from.index())
            .ok()
            .filter(|&s| s <= SENDER_MASK);
        if let Some(sender) = sender {
            for record in queue.pending.iter_mut().rev() {
                if record.sender() != sender
                    || record.sent_at != sent_at
                    || record.payload != payload
                {
                    break;
                }
                if record.delay == delay && record.copies() < MAX_COPIES {
                    let added = left.min(MAX_COPIES - record.copies());
                    record.from += added << SENDER_BITS;
                    left -= added;
                    break;
                }
            }
        }
        let per_record = if sender.is_some() { MAX_COPIES } else { 1 };
        let record = |copies: u32, payload: M| InFlight {
            payload,
            sent_at,
            from: sender.unwrap_or(SENDER_MASK) | ((copies - 1) << SENDER_BITS),
            delay,
        };
        while left > per_record {
            queue.pending.push(record(per_record, payload.clone()));
            left -= per_record;
        }
        if left > 0 {
            queue.pending.push(record(left, payload));
        }
    }

    /// Removes and returns every message addressed to `to` whose delivery
    /// deadline has been reached at time `now`, in send order, one envelope
    /// per message: a record of `c` copies becomes `c` envelopes of one copy.
    ///
    /// The expanded form of [`Self::collect_deliverable_into`], for tests
    /// and callers that want one envelope per message.
    pub fn collect_deliverable(&mut self, to: ProcessId, now: TimeStep) -> Vec<Envelope<M>>
    where
        M: Clone,
    {
        let mut records = Vec::new();
        self.collect_deliverable_into(to, now, &mut records);
        let mut delivered = Vec::new();
        for envelope in records {
            expand_into(envelope, &mut delivered);
        }
        delivered
    }

    /// Appends every message addressed to `to` whose delivery deadline has
    /// been reached at time `now` onto `out`, in send order, one envelope
    /// per record: a record of `c` copies becomes one envelope with
    /// [`Envelope::copies`] `= c`.
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
        let mut earliest = None;
        let due = queue.pending.extract_if(.., |m| {
            let at = m.deliverable_at();
            let due = at <= now;
            if !due {
                earliest = earliest_with(earliest, at);
            }
            due
        });
        let mut delivered = 0usize;
        for m in due {
            delivered += usize::try_from(m.copies()).unwrap_or(usize::MAX);
            out.push(m.into_envelope(to));
        }
        queue.earliest = earliest;
        self.in_flight -= delivered;
    }

    /// Discards every message addressed to `to` (used when `to` crashes).
    /// Returns the number of messages dropped.
    pub fn drop_for(&mut self, to: ProcessId) -> usize {
        let queue = &mut self.queues[to.index()];
        let dropped = messages_in(&queue.pending);
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
        messages_in(&self.queues[to.index()].pending)
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
    /// delivery deadline), in send order: a record of `c` copies lists `c`
    /// envelopes.
    pub fn clone_pending_for(&self, to: ProcessId) -> Vec<Envelope<M>>
    where
        M: Clone,
    {
        let pending = &self.queues[to.index()].pending;
        let mut out = Vec::with_capacity(messages_in(pending));
        for m in pending {
            expand_into(m.clone().into_envelope(to), &mut out);
        }
        out
    }

    /// True if every in-flight message has a delivery deadline of
    /// `u64::MAX`-like magnitude, i.e. has been withheld "forever" relative
    /// to `horizon`. Used by drivers that want to treat permanently withheld
    /// messages as drained.
    pub fn all_beyond(&self, horizon: TimeStep) -> bool {
        self.earliest_deliverable().is_none_or(|e| e > horizon)
    }

    /// Number of records queued for `to`.
    #[cfg(test)]
    fn records_for(&self, to: ProcessId) -> usize {
        self.queues[to.index()].pending.len()
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
            copies: 1,
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
    fn identical_sends_in_one_step_take_one_record_per_delay() {
        // 40 copies of one payload from one sender in one step, delays
        // cycling through 1, 2, 3 and a withheld one: four records.
        let mut net: Network<u32> = Network::new(3);
        let delays = [1, 2, 3, u64::MAX];
        for i in 0..40 {
            net.send(env(0, 1, 5, 7), delays[i % delays.len()]);
        }
        assert!(net.records_for(ProcessId(1)) <= delays.len());
        assert_eq!(net.in_flight(), 40);
        assert_eq!(net.pending_for(ProcessId(1)), 40);
        assert_eq!(
            net.clone_pending_for(ProcessId(1)),
            vec![env(0, 1, 5, 7); 40]
        );
        // Each collection hands out every due copy, and only those.
        assert_eq!(net.collect_deliverable(ProcessId(1), TimeStep(6)).len(), 10);
        assert_eq!(net.collect_deliverable(ProcessId(1), TimeStep(8)).len(), 20);
        assert_eq!(net.in_flight(), 10);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(u64::MAX)));
        assert_eq!(net.drop_for(ProcessId(1)), 10);
        assert!(net.is_empty());
    }

    #[test]
    fn a_run_past_the_copy_cap_starts_a_new_record() {
        let mut net: Network<u32> = Network::new(2);
        let run = MAX_COPIES as usize + 3;
        for _ in 0..run {
            net.send(env(0, 1, 0, 7), 1);
        }
        assert_eq!(net.records_for(ProcessId(1)), 2);
        assert_eq!(net.pending_for(ProcessId(1)), run);
        // The full record keeps the sender intact: the count never spills
        // into the sender bits.
        let got = net.collect_deliverable(ProcessId(1), TimeStep(1));
        assert_eq!(got, vec![env(0, 1, 0, 7); run]);
        assert!(net.is_empty());
    }

    #[test]
    fn a_merge_never_crosses_another_payload_or_sender() {
        let mut net: Network<u32> = Network::new(4);
        // Another payload from the same sender inside the run.
        net.send(env(0, 1, 0, 7), 2);
        net.send(env(0, 1, 0, 8), 2);
        net.send(env(0, 1, 0, 7), 2);
        assert_eq!(net.records_for(ProcessId(1)), 3);
        // Another sender's copy of the same payload inside the run.
        net.send(env(0, 2, 0, 7), 2);
        net.send(env(3, 2, 0, 7), 2);
        net.send(env(0, 2, 0, 7), 2);
        assert_eq!(net.records_for(ProcessId(2)), 3);
        // A later step's copy of the same payload from the same sender.
        net.send(env(0, 3, 0, 7), 2);
        net.send(env(0, 3, 1, 7), 1);
        assert_eq!(net.records_for(ProcessId(3)), 2);
        let payloads = |got: Vec<Envelope<u32>>| -> Vec<(usize, u32)> {
            got.iter().map(|e| (e.from.index(), e.payload)).collect()
        };
        assert_eq!(
            payloads(net.collect_deliverable(ProcessId(1), TimeStep(2))),
            vec![(0, 7), (0, 8), (0, 7)]
        );
        assert_eq!(
            payloads(net.collect_deliverable(ProcessId(2), TimeStep(2))),
            vec![(0, 7), (3, 7), (0, 7)]
        );
        let got = net.collect_deliverable(ProcessId(3), TimeStep(2));
        assert_eq!(got, vec![env(0, 3, 0, 7), env(0, 3, 1, 7)]);
    }

    #[test]
    fn a_merge_reaches_past_other_delays_of_the_same_run() {
        // Delays 2, 1, 2: the third copy joins the first record across the
        // second, which holds an equal envelope.
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 7), 2);
        net.send(env(0, 1, 0, 7), 1);
        net.send(env(0, 1, 0, 7), 2);
        assert_eq!(net.records_for(ProcessId(1)), 2);
        assert_eq!(net.collect_deliverable(ProcessId(1), TimeStep(1)).len(), 1);
        assert_eq!(net.collect_deliverable(ProcessId(1), TimeStep(2)).len(), 2);
    }

    #[test]
    fn a_record_is_delivered_once_with_its_count() {
        let mut net: Network<u32> = Network::new(2);
        net.send(
            Envelope {
                copies: 5,
                ..env(0, 1, 0, 7)
            },
            1,
        );
        net.send(env(0, 1, 0, 8), 1);
        net.send(env(0, 1, 0, 7), 1);
        net.send(
            Envelope {
                copies: 0,
                ..env(0, 1, 0, 9)
            },
            1,
        );
        assert_eq!(net.records_for(ProcessId(1)), 3);
        assert_eq!(net.in_flight(), 7);
        let mut out = Vec::new();
        net.collect_deliverable_into(ProcessId(1), TimeStep(1), &mut out);
        let copies: Vec<(u32, u32)> = out.iter().map(|e| (e.payload, e.copies)).collect();
        assert_eq!(copies, [(7, 5), (8, 1), (7, 1)]);
        assert!(net.is_empty());
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
