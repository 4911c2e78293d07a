//! One process of a live run: decode frames, drive the engine, encode and
//! send.
//!
//! A [`Slot`] is everything one process owns — engine, endpoint, seeded RNG
//! stream, the [`Inbox`] of frames waiting out their delivery deadline — and
//! the three things every process does whatever its pacing:
//!
//! * [`Slot::poll`] — push queued outbound bytes, drain the endpoint, book
//!   every frame taken off the transport as consumed;
//! * [`Slot::deliver_due`] — fold every pending frame whose deadline has
//!   come into the engine as one batch, each shared body validated once per
//!   reactor ([`VerifiedBodies`]);
//! * [`Slot::step`] — one local step: run the engine, encode each distinct
//!   outgoing message once, stamp and send it, then flush once.
//!
//! *When* those happen is the pacing discipline (see
//! [`crate::driver::Pacing`]) and lives in [`crate::reactor`], which runs
//! any number of slots on one thread. The inbox is generic over its deadline
//! because the two pacings tell time differently — lockstep in ticks,
//! free-running by the run's clock — see [`Pending`].
//!
//! Everything here speaks bytes: outgoing messages go through
//! [`agossip_core::codec`] ([`WireCodec::encode_into`]) and incoming frames
//! stay encoded until delivery. A frame that fails to decode is counted and
//! dropped — a byte-corrupting link is message loss in the model, and the
//! codec's typed errors guarantee it can never panic the loop.
//!
//! A broadcast over channels hands every destination the same encoded body
//! allocation, which each reactor validates once ([`VerifiedBodies`]); a
//! body that failed is validated, and counted, per frame. No bytes reach an
//! engine unvalidated.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use agossip_core::codec::read_varint;
use agossip_core::{CodecError, EncodedFrame, GossipEngine, WireCodec, WireDecodeView};
use agossip_sim::rng::{derive_seed, RngStream};
use agossip_sim::ProcessId;

use crate::clock::Clock;
use crate::error::RuntimeError;
use crate::transport::{Endpoint, FrameBody, RawFrame, SendOutcome};

/// Counters shared by every reactor thread of one run.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Point-to-point messages handed to the transport.
    pub messages_sent: AtomicU64,
    /// Messages decoded and delivered to an engine.
    pub messages_delivered: AtomicU64,
    /// Raw frames taken off the transport (delivered, dropped by a crashed
    /// node, or undecodable). Lockstep's settle handshake compares this
    /// against `messages_sent` to know the network is drained.
    pub frames_consumed: AtomicU64,
    /// Encoded message-*body* bytes handed to the transport (the lockstep
    /// tick/seq prefix and the stream framing overhead are not included, so
    /// the figure measures the wire codec itself and is comparable across
    /// pacings and transports).
    pub bytes_sent: AtomicU64,
    /// Frames dropped because their payload failed to decode.
    pub decode_errors: AtomicU64,
}

/// Everything the reactor threads of one run share with the driver.
pub(crate) struct SharedRun {
    pub stats: RunStats,
    pub stop: AtomicBool,
    /// Lockstep only: the driver's verdict of the current settle round
    /// (true once every sent frame has been consumed).
    pub settled: AtomicBool,
    /// Per-node "nothing pending, engine quiescent" flags.
    pub quiet: Vec<AtomicBool>,
    /// Clock of the last send/delivery, for free-running quiescence
    /// detection (milliseconds since the run's [`Clock`] epoch).
    pub last_activity_ms: AtomicU64,
    /// The run's time source: real time under [`crate::MonotonicClock`],
    /// test time under [`crate::FakeClock`]. Only the free-running paths
    /// read it; lockstep time is the tick counter.
    pub clock: Arc<dyn Clock>,
    /// First error any thread hit; the driver surfaces it after join.
    pub first_error: Mutex<Option<RuntimeError>>,
}

impl SharedRun {
    pub(crate) fn new(n: usize, clock: Arc<dyn Clock>) -> Self {
        SharedRun {
            stats: RunStats::default(),
            stop: AtomicBool::new(false),
            settled: AtomicBool::new(false),
            quiet: (0..n).map(|_| AtomicBool::new(false)).collect(),
            last_activity_ms: AtomicU64::new(0),
            clock,
            first_error: Mutex::new(None),
        }
    }

    /// Time since the run started, per the run's clock.
    pub(crate) fn elapsed(&self) -> Duration {
        self.clock.now()
    }

    pub(crate) fn touch(&self) {
        let elapsed = duration_ms(self.clock.now());
        self.last_activity_ms.store(elapsed, Ordering::Relaxed);
    }

    pub(crate) fn since_last_activity(&self) -> Duration {
        let last = self.last_activity_ms.load(Ordering::Relaxed);
        let now = duration_ms(self.clock.now());
        Duration::from_millis(now.saturating_sub(last))
    }

    /// Records the first error seen; later errors are dropped.
    pub(crate) fn record_error(&self, error: RuntimeError) {
        let mut slot = self.first_error.lock();
        if slot.is_none() {
            *slot = Some(error);
        }
    }

    pub(crate) fn has_error(&self) -> bool {
        self.first_error.lock().is_some()
    }
}

/// Whole milliseconds of `d`, saturating at `u64::MAX`.
pub(crate) fn duration_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// What one process hands back when the run finishes.
pub(crate) struct NodeOutcome {
    pub rumors: agossip_core::RumorSet,
    pub steps: u64,
}

/// A still-encoded message waiting out its delivery deadline; the body stays
/// encoded (and, for broadcast fast-path frames, shared) until delivery.
///
/// Under lockstep `at` is the delivery tick and `seq` the sender's own
/// sequence number, both read off the frame's stamp: `(from, seq)` is
/// unique. Free-running, `at` is elapsed time per the run's [`Clock`] (not an
/// `Instant`, so a fake clock can drive it in tests) and `seq` counts the
/// reactor's arrivals: unique, and first-in-first-out among equal deadlines.
/// Either way `(at, from, seq)` is unique: the order [`Inbox`] delivers in.
pub(crate) struct Pending<T> {
    pub(crate) at: T,
    pub(crate) from: ProcessId,
    pub(crate) seq: u64,
    /// The frame body, still encoded.
    pub(crate) body: FrameBody,
    /// Offset of the message bytes within `body`: the length of the inline
    /// tick/seq stamp of a lockstep stream-framed payload, else 0. A `u32`,
    /// so that `verified` fits beside it and the inbox does not grow.
    pub(crate) msg_at: u32,
    /// The reactor's verdict on the body ([`VerifiedBodies`]), set when due.
    pub(crate) verified: Option<bool>,
}

impl<T> EncodedFrame for Pending<T> {
    fn sender(&self) -> ProcessId {
        self.from
    }

    fn body(&self) -> &[u8] {
        let at = self.msg_at as usize;
        self.body.as_slice().get(at..).unwrap_or(&[])
    }

    fn verified(&self) -> Option<bool> {
        self.verified
    }
}

/// One slot's frames waiting out their deadlines, unsorted, with the
/// earliest deadline cached: a tick with nothing due costs one comparison,
/// one with something due one in-order pass. The due frames are then sorted
/// by `(at, from, seq)`; `sort_unstable` is exact because that key is unique
/// (see [`Pending`]), so every batch, and a lockstep execution, is a pure
/// function of the seed.
pub(crate) struct Inbox<T> {
    frames: Vec<Pending<T>>,
    earliest: Option<T>,
}

impl<T: Ord + Copy> Inbox<T> {
    pub(crate) fn push(&mut self, frame: Pending<T>) {
        if self.earliest.is_none_or(|at| frame.at < at) {
            self.earliest = Some(frame.at);
        }
        self.frames.push(frame);
    }

    /// Replaces `due` with every frame due by `now`, in `(at, from, seq)`
    /// order.
    pub(crate) fn take_due(&mut self, now: T, due: &mut Vec<Pending<T>>) {
        due.clear();
        if self.earliest.is_none_or(|at| at > now) {
            return;
        }
        let mut earliest = None;
        due.extend(self.frames.extract_if(.., |frame| {
            let stays = frame.at > now;
            if stays && earliest.is_none_or(|at| frame.at < at) {
                earliest = Some(frame.at);
            }
            !stays
        }));
        self.earliest = earliest;
        due.sort_unstable_by_key(|frame| (frame.at, frame.from, frame.seq));
    }

    pub(crate) fn clear(&mut self) {
        self.frames.clear();
        self.earliest = None;
    }
}

/// One reactor's record of the shared broadcast bodies it has validated.
///
/// A broadcast body reaches every destination in one `Arc<[u8]>`. The record
/// maps its allocation address to what [`WireDecodeView::decode_view`], run
/// on the first delivery of the body, found: `None` if the body failed, else
/// `Some` of the view's [`WireDecodeView::view_identity`]. Every frame
/// carrying the body reaches the engine with that value as its
/// [`EncodedFrame::verified`], so a verified body is walked once per
/// reactor. Each entry holds a [`Weak`] to its body: that pins the
/// allocation, so no other body can occupy a recorded address while the
/// entry exists. Owned bodies (socket frames) and bodies that carry a stamp
/// inline are never recorded. The record is reactor-local.
#[derive(Default)]
pub(crate) struct VerifiedBodies {
    entries: HashMap<usize, (Weak<[u8]>, Option<bool>)>,
}

impl VerifiedBodies {
    /// `Some(identity)` if `frame`'s body is a shared body that passed
    /// `M::decode_view`, with the view's `M::view_identity`; `None`
    /// otherwise. Validates the body on its first sight.
    fn check<M: WireDecodeView, T>(&mut self, frame: &Pending<T>) -> Option<bool> {
        let (FrameBody::Shared(body), 0) = (&frame.body, frame.msg_at) else {
            return None;
        };
        let address = Arc::as_ptr(body).cast::<u8>().addr();
        self.entries
            .entry(address)
            .or_insert_with(|| {
                let verdict = M::decode_view(body)
                    .ok()
                    .map(|view| M::view_identity(&view));
                (Arc::downgrade(body), verdict)
            })
            .1
    }

    /// Drops the entries whose body no frame carries any more, releasing
    /// their allocations. Called once per lockstep tick and once per
    /// free-running sweep.
    pub(crate) fn evict_dead(&mut self) {
        self.entries.retain(|_, (body, _)| body.strong_count() > 0);
    }
}

/// One process handed to a reactor: its engine, its endpoint, and its crash
/// point.
pub(crate) struct ReactorProc<G, E> {
    pub pid: ProcessId,
    pub engine: G,
    pub endpoint: E,
    /// Crash after this many local steps (`None` = correct process).
    pub crash_after: Option<u64>,
}

/// The state of one multiplexed process. Scratch buffers are not part of it:
/// a reactor thread owns one set and lends it to each slot in turn.
pub(crate) struct Slot<G: GossipEngine, E, T> {
    pub pid: ProcessId,
    engine: G,
    endpoint: E,
    crash_after: Option<u64>,
    /// The process's own seeded stream (injected delays and pauses).
    pub rng: StdRng,
    pub pending: Inbox<T>,
    body: Vec<u8>,
    shared_body: Arc<[u8]>,
    last_encoded: Option<G::Msg>,
    steps: u64,
    /// Messages sent so far: the per-sender sequence number of the next one.
    sent: u64,
    /// Lockstep: a crashed slot stays on as a zombie that keeps draining its
    /// transport but delivers and sends nothing (free-running removes it).
    pub crashed: bool,
    /// Free-running: the slot takes its next local step once the run clock
    /// passes this — the role of `δ`.
    pub next_step_at: Duration,
}

impl<G, E, T> Slot<G, E, T>
where
    G: GossipEngine,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    E: Endpoint,
    T: Ord + Copy,
{
    /// `stream_seed` is the run's master seed salted per pacing; the slot's
    /// stream is derived from it and the process id alone, never from the
    /// thread it runs on.
    pub(crate) fn new(proc: ReactorProc<G, E>, stream_seed: u64) -> Self {
        Slot {
            pid: proc.pid,
            engine: proc.engine,
            endpoint: proc.endpoint,
            crash_after: proc.crash_after,
            rng: StdRng::seed_from_u64(derive_seed(stream_seed, RngStream::Process(proc.pid))),
            pending: Inbox {
                frames: Vec::new(),
                earliest: None,
            },
            body: Vec::new(),
            shared_body: Arc::new([]),
            last_encoded: None,
            steps: 0,
            sent: 0,
            crashed: false,
            next_step_at: Duration::ZERO,
        }
    }

    /// Whether the process's injected crash point has arrived.
    pub(crate) fn crash_due(&self) -> bool {
        self.crash_after.is_some_and(|limit| self.steps >= limit)
    }

    /// Whether the process holds no pending frames and its engine will not
    /// send unprompted.
    pub(crate) fn is_idle(&self) -> bool {
        self.pending.frames.is_empty() && self.engine.is_quiescent()
    }

    /// Pushes outbound bytes a full kernel buffer left queued at the last
    /// step's flush (sockets write non-blockingly), then replaces `frames`
    /// with whatever has arrived. Every frame taken off the transport is
    /// booked as consumed, and so is every frame the flush found lost to a
    /// dead peer — like a `Lost` send, it will never be polled, and the
    /// settle handshake's sent == consumed invariant must survive peer
    /// death. Lockstep reactors skip the call in a settle round that opens
    /// with the two counters equal: nothing is in flight, so nothing can
    /// arrive.
    pub(crate) fn poll(
        &mut self,
        shared: &SharedRun,
        frames: &mut Vec<RawFrame>,
    ) -> Result<(), RuntimeError> {
        frames.clear();
        let lost = self.endpoint.flush()?;
        let polled = self.endpoint.poll_into(frames);
        shared
            .stats
            .frames_consumed
            .fetch_add(lost + frames.len() as u64, Ordering::Relaxed);
        polled
    }

    /// Takes every frame due by `now` off the inbox and folds the batch into
    /// the engine in one call. Each frame first gets its body's verdict from
    /// the reactor's `verified` record, which validates a shared body on its
    /// first sight; the engine validates every body without one. A body that
    /// fails to decode is counted and delivers nothing. Returns whether
    /// anything was delivered.
    pub(crate) fn deliver_due(
        &mut self,
        shared: &SharedRun,
        verified: &mut VerifiedBodies,
        due: &mut Vec<Pending<T>>,
        now: T,
    ) -> bool {
        self.pending.take_due(now, due);
        if due.is_empty() {
            return false;
        }
        for frame in due.iter_mut() {
            frame.verified = verified.check::<G::Msg, T>(frame);
        }
        let errors = self.engine.deliver_encoded(due) as u64;
        let delivered = due.len() as u64 - errors;
        shared
            .stats
            .decode_errors
            .fetch_add(errors, Ordering::Relaxed);
        shared
            .stats
            .messages_delivered
            .fetch_add(delivered, Ordering::Relaxed);
        due.clear();
        delivered > 0
    }

    /// One local step: runs the engine and sends what it produced. A
    /// broadcast pushes clones of one message to many targets, so the body
    /// is encoded once per distinct message into one shared buffer and only
    /// the per-send head is rewritten: `stamp(rng, seq, head)` fills the
    /// cleared `head` for the process's `seq`-th message. A step that sent
    /// ends with one [`Endpoint::flush`] — for sockets, one write per peer
    /// carrying all of the step's frames to it — and books the frames the
    /// flush reports lost as consumed, as `poll` does. Returns whether
    /// anything was sent; on a transport error the rest of the step's output
    /// is dropped.
    pub(crate) fn step(
        &mut self,
        shared: &SharedRun,
        out: &mut Vec<(ProcessId, G::Msg)>,
        head: &mut Vec<u8>,
        mut stamp: impl FnMut(&mut StdRng, u64, &mut Vec<u8>),
    ) -> Result<bool, RuntimeError> {
        out.clear();
        self.engine.local_step(out);
        self.steps += 1;
        let sent_any = !out.is_empty();
        for (to, msg) in out.drain(..) {
            if self.last_encoded.as_ref() != Some(&msg) {
                self.body.clear();
                msg.encode_into(&mut self.body);
                self.shared_body = Arc::from(self.body.as_slice());
                self.last_encoded = Some(msg);
            }
            head.clear();
            stamp(&mut self.rng, self.sent, head);
            self.sent += 1;
            shared.stats.messages_sent.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .bytes_sent
                .fetch_add(self.body.len() as u64, Ordering::Relaxed);
            // A frame the transport dropped will never be polled: book it
            // as consumed, as `poll` does for flush-discovered losses.
            if self.endpoint.send_shared(to, head, &self.shared_body)? == SendOutcome::Lost {
                shared.stats.frames_consumed.fetch_add(1, Ordering::Relaxed);
            }
        }
        if sent_any {
            let lost = self.endpoint.flush()?;
            shared
                .stats
                .frames_consumed
                .fetch_add(lost, Ordering::Relaxed);
        }
        Ok(sent_any)
    }

    pub(crate) fn outcome(&self) -> (ProcessId, NodeOutcome) {
        let outcome = NodeOutcome {
            rumors: self.engine.rumors().clone(),
            steps: self.steps,
        };
        (self.pid, outcome)
    }
}

/// Splits a received lockstep frame into `(deliver_tick, seq, offset of the
/// message within the frame body)`; the offset, two varints, is at most 20.
/// Only the stamp varints are parsed here; the message bytes are validated
/// when the frame's tick comes up ([`Slot::deliver_due`]), where an
/// undecodable body counts as a decode error.
pub(crate) fn parse_lockstep_frame(frame: &RawFrame) -> Result<(u64, u64, u32), CodecError> {
    let head = frame.head();
    let body = frame.body();
    if head.is_empty() {
        // Stream-framed payload: the tick/seq stamp is inline in the body.
        let (deliver_tick, a) = read_varint(body)?;
        let (seq, b) = read_varint(body.get(a..).ok_or(CodecError::Truncated)?)?;
        let msg_at = u32::try_from(a + b).map_err(|_| CodecError::Truncated)?;
        Ok((deliver_tick, seq, msg_at))
    } else {
        // Shared-body fast path: the head carries exactly the two varints.
        let (deliver_tick, a) = read_varint(head)?;
        let (seq, b) = read_varint(head.get(a..).ok_or(CodecError::Truncated)?)?;
        if a + b != head.len() {
            return Err(CodecError::TrailingBytes(head.len() - a - b));
        }
        Ok((deliver_tick, seq, 0))
    }
}

/// Extracts the body of one free-running frame (whose payload is the bare
/// encoded message — no tick/seq stamp). A head-carrying frame, which the
/// free-running send path never produces, is flattened into an owned body.
/// Validation is deferred to delivery, as in the lockstep path.
pub(crate) fn free_frame_body(frame: RawFrame) -> FrameBody {
    if frame.head().is_empty() {
        frame.into_body()
    } else {
        FrameBody::Owned(frame.payload_to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agossip_core::{
        EpochMsg, GossipCtx, Rumor, RumorSet, Tears, TearsFlag, TearsMessage, TrivialMessage,
    };

    fn body(origin: usize) -> Arc<[u8]> {
        let msg = TrivialMessage {
            rumor: Rumor::new(ProcessId(origin), 7),
        };
        Arc::from(msg.encode())
    }

    /// `body` with the top bit of its last byte set: the final varint never
    /// terminates, so the bytes cannot decode.
    fn corrupt(body: &[u8]) -> Vec<u8> {
        let mut bytes = body.to_vec();
        if let Some(last) = bytes.last_mut() {
            *last ^= 0x80;
        }
        bytes
    }

    fn frame(body: FrameBody, msg_at: u32) -> Pending<u64> {
        Pending {
            at: 0,
            from: ProcessId(1),
            seq: 0,
            body,
            msg_at,
            verified: None,
        }
    }

    fn check(record: &mut VerifiedBodies, frame: &Pending<u64>) -> bool {
        record.check::<TrivialMessage, u64>(frame).is_some()
    }

    /// What `record` holds for `bytes` as a shared body of message type `M`.
    fn verdict<M: WireDecodeView>(record: &mut VerifiedBodies, bytes: &[u8]) -> Option<bool> {
        record.check::<M, u64>(&frame(FrameBody::Shared(Arc::from(bytes)), 0))
    }

    /// A dense `tears` frame over origins `0..300`, each carrying
    /// `payload(origin)`.
    fn tears_body(payload: impl Fn(usize) -> u64) -> Vec<u8> {
        let rumors: RumorSet = (0..300)
            .map(|o| Rumor::new(ProcessId(o), payload(o)))
            .collect();
        TearsMessage {
            rumors: Arc::new(rumors),
            flag: TearsFlag::Down,
        }
        .encode()
    }

    #[test]
    fn record_evicts_an_entry_once_no_frame_carries_its_body() {
        let mut record = VerifiedBodies::default();
        let shared = body(3);
        let a = frame(FrameBody::Shared(Arc::clone(&shared)), 0);
        let b = frame(FrameBody::Shared(Arc::clone(&shared)), 0);
        drop(shared);
        assert!(check(&mut record, &a));
        assert!(check(&mut record, &b));
        assert_eq!(record.entries.len(), 1, "one entry per body, not per frame");
        drop(a);
        record.evict_dead();
        assert_eq!(record.entries.len(), 1, "frame `b` still carries the body");
        drop(b);
        record.evict_dead();
        assert!(record.entries.is_empty());
    }

    #[test]
    fn record_never_serves_a_verdict_for_another_allocation() {
        let mut record = VerifiedBodies::default();
        for round in 0..64 {
            let good = body(round);
            assert!(check(
                &mut record,
                &frame(FrameBody::Shared(Arc::clone(&good)), 0)
            ));
            // Dead but not yet evicted: the entry pins the allocation, so a
            // body of the same size allocated now cannot take its address.
            let bad_bytes = corrupt(&good);
            assert!(TrivialMessage::decode_view(&bad_bytes).is_err());
            drop(good);
            let bad: Arc<[u8]> = Arc::from(bad_bytes.as_slice());
            assert!(!check(&mut record, &frame(FrameBody::Shared(bad), 0)));
            // Evicted: a new body may take the freed address, and is
            // validated afresh.
            record.evict_dead();
            assert!(record.entries.is_empty());
            let reused: Arc<[u8]> = Arc::from(bad_bytes.as_slice());
            assert!(!check(&mut record, &frame(FrameBody::Shared(reused), 0)));
            record.evict_dead();
        }
    }

    #[test]
    fn record_covers_only_shared_unstamped_bodies() {
        let mut record = VerifiedBodies::default();
        let good = body(5);
        assert!(!check(
            &mut record,
            &frame(FrameBody::Owned(good.to_vec()), 0)
        ));
        let mut stamped = vec![0u8];
        stamped.extend_from_slice(&good);
        assert!(!check(
            &mut record,
            &frame(FrameBody::Shared(Arc::from(stamped)), 1)
        ));
        assert!(record.entries.is_empty());
    }

    #[test]
    fn record_keeps_the_identity_its_validation_found() {
        let mut record = VerifiedBodies::default();
        let identity = tears_body(|o| o as u64);
        assert_eq!(verdict::<TearsMessage>(&mut record, &identity), Some(true));
        let random = tears_body(|o| (o as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1 << 63);
        assert_eq!(verdict::<TearsMessage>(&mut record, &random), Some(false));
        for (inner, expected) in [(&identity, true), (&random, false)] {
            let envelope = EpochMsg {
                epoch: 9,
                inner: TearsMessage::decode(inner).unwrap(),
            }
            .encode();
            assert_eq!(
                verdict::<EpochMsg<TearsMessage>>(&mut record, &envelope),
                Some(expected),
                "an envelope reports its inner message's flag"
            );
        }
    }

    #[test]
    fn record_never_verifies_a_corrupt_body_and_each_frame_counts_its_error() {
        let mut record = VerifiedBodies::default();
        let bad: Arc<[u8]> = Arc::from(corrupt(&tears_body(|o| o as u64)));
        let due: Vec<Pending<u64>> = (0..3)
            .map(|_| {
                let mut frame = frame(FrameBody::Shared(Arc::clone(&bad)), 0);
                frame.verified = record.check::<TearsMessage, u64>(&frame);
                frame
            })
            .collect();
        assert_eq!(record.entries.len(), 1);
        assert!(due.iter().all(|d| d.verified.is_none()));
        let mut engine = Tears::new(GossipCtx::new(ProcessId(0), 300, 0, 1));
        assert_eq!(engine.deliver_encoded(&due), due.len());
        assert_eq!(engine.rumors().len(), 1, "nothing was delivered");
    }

    fn pending<T>(at: T, from: usize, seq: u64) -> Pending<T> {
        Pending {
            at,
            from: ProcessId(from),
            seq,
            body: FrameBody::Owned(Vec::new()),
            msg_at: 0,
            verified: None,
        }
    }

    fn inbox<T>() -> Inbox<T> {
        Inbox {
            frames: Vec::new(),
            earliest: None,
        }
    }

    /// Replays `ops` on an inbox and on a reference min-heap on
    /// `(at, from, seq)`, and asserts that every `take_due` yields exactly the
    /// frames the heap pops, in its order. An op `(kind, a, from)` with kind
    /// `0..6` pushes a frame from `from` due at `now - 1 + a` (some arrive
    /// already due; `a < 4` makes equal deadlines common), `6..9` advances
    /// `now` by `a` and takes what is due, and `9` clears both. Lockstep
    /// numbers each sender's frames, free-running every arrival.
    fn assert_inbox_pops_like_a_heap<T: Ord + Copy + std::fmt::Debug>(
        ops: &[(u8, u64, usize)],
        at: fn(u64) -> T,
        lockstep: bool,
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let (mut inbox, mut heap, mut due) = (inbox(), BinaryHeap::new(), Vec::new());
        let (mut seqs, mut arrivals, mut now) = ([0u64; 6], 0u64, 0u64);
        for &(kind, a, from) in ops {
            match kind {
                0..6 => {
                    let seq = if lockstep {
                        &mut seqs[from]
                    } else {
                        &mut arrivals
                    };
                    let key = (at(now.saturating_sub(1) + a), from, *seq);
                    *seq += 1;
                    inbox.push(pending(key.0, key.1, key.2));
                    heap.push(Reverse(key));
                }
                6..9 => {
                    now += a;
                    inbox.take_due(at(now), &mut due);
                    let taken: Vec<_> = due.iter().map(|p| (p.at, p.from.0, p.seq)).collect();
                    let mut popped = Vec::new();
                    while let Some(Reverse(key)) = heap.pop() {
                        if key.0 > at(now) {
                            heap.push(Reverse(key));
                            break;
                        }
                        popped.push(key);
                    }
                    assert_eq!(taken, popped, "at {now}");
                }
                _ => {
                    inbox.clear();
                    heap.clear();
                }
            }
            assert_eq!(inbox.frames.len(), heap.len());
            assert_eq!(inbox.earliest, heap.peek().map(|Reverse(key)| key.0));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn inbox_batches_equal_heap_pops(
            ops in proptest::collection::vec((0u8..10, 0u64..4, 0usize..6), 0..300)
        ) {
            assert_inbox_pops_like_a_heap(&ops, |tick| tick, true);
            assert_inbox_pops_like_a_heap(&ops, Duration::from_micros, false);
        }
    }

    #[test]
    fn inbox_with_a_future_deadline_yields_nothing_and_keeps_its_frames() {
        let mut inbox = inbox();
        let mut due = vec![pending(0u64, 9, 9)];
        inbox.push(pending(7, 1, 0));
        inbox.push(pending(5, 2, 0));
        inbox.take_due(4, &mut due);
        assert!(due.is_empty(), "a stale batch is cleared, not kept");
        assert_eq!(inbox.frames.len(), 2);
        assert_eq!(inbox.earliest, Some(5));
        inbox.take_due(6, &mut due);
        assert_eq!(due.iter().map(|p| p.at).collect::<Vec<_>>(), [5]);
        assert_eq!((inbox.frames.len(), inbox.earliest), (1, Some(7)));
    }
}
