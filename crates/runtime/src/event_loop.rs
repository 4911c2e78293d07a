//! One process of a live run: decode frames, drive the engine, encode and
//! send.
//!
//! A [`Slot`] is everything one process owns — engine, endpoint, seeded RNG
//! stream, the heap of frames waiting out their delivery deadline — and the
//! three things every process does whatever its pacing:
//!
//! * [`Slot::poll`] — push queued outbound bytes, drain the endpoint, book
//!   every frame taken off the transport as consumed;
//! * [`Slot::deliver_due`] — fold every pending frame whose deadline has
//!   come into the engine as one batch;
//! * [`Slot::step`] — one local step: run the engine, encode each distinct
//!   outgoing message once, stamp and send it, then flush once.
//!
//! *When* those happen is the pacing discipline (see
//! [`crate::driver::Pacing`]) and lives in [`crate::reactor`], which runs
//! any number of slots on one thread. The pending heap is generic over its
//! deadline because the two pacings tell time differently — lockstep in
//! ticks, free-running by the run's clock — see [`Pending`].
//!
//! Everything here speaks bytes: outgoing messages go through
//! [`agossip_core::codec`] ([`WireCodec::encode_into`]) and incoming frames
//! stay encoded until delivery. A frame that fails to decode is counted and
//! dropped — a byte-corrupting link is message loss in the model, and the
//! codec's typed errors guarantee it can never panic the loop.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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

/// A still-encoded message waiting out its delivery deadline, min-heap
/// ordered on `(at, from, seq)`. The body stays encoded (and, for broadcast
/// fast-path frames, shared) until delivery, when the whole due batch is
/// folded into the engine through [`GossipEngine::deliver_encoded`].
///
/// Under lockstep `at` is the delivery tick and `seq` the sender's own
/// sequence number, both read off the frame's stamp: `(from, seq)` is
/// unique, so the order is strict, total and a pure function of the seed —
/// which is what makes lockstep delivery deterministic. Free-running, `at`
/// is elapsed time per the run's [`Clock`] (not an `Instant`, so a fake
/// clock can drive it in tests) and `seq` counts arrivals, which keeps each
/// sender's frames first-in-first-out among equal deadlines.
pub(crate) struct Pending<T> {
    pub(crate) at: T,
    pub(crate) from: ProcessId,
    pub(crate) seq: u64,
    /// The frame body, still encoded.
    pub(crate) body: FrameBody,
    /// Offset of the message bytes within `body` (lockstep stream-framed
    /// payloads carry the tick/seq stamp inline; fast-path frames carry it
    /// in the frame head; free-running frames carry none).
    pub(crate) msg_at: usize,
}

impl<T> EncodedFrame for Pending<T> {
    fn sender(&self) -> ProcessId {
        self.from
    }

    fn body(&self) -> &[u8] {
        self.body.as_slice().get(self.msg_at..).unwrap_or(&[])
    }
}

impl<T: Ord> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl<T: Ord> Eq for Pending<T> {}

impl<T: Ord> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (&other.at, other.from, other.seq).cmp(&(&self.at, self.from, self.seq))
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
    pub pending: BinaryHeap<Pending<T>>,
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
    T: Ord,
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
            pending: BinaryHeap::new(),
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
        self.pending.is_empty() && self.engine.is_quiescent()
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

    /// Pops every pending frame due by `now` (the heap top is the earliest,
    /// so this touches only due frames) and folds the batch into the engine
    /// in one call: one view-decode walk per body, batched unions inside the
    /// engine. A body that fails to decode is counted and delivers nothing.
    /// Returns whether anything was delivered.
    pub(crate) fn deliver_due(
        &mut self,
        shared: &SharedRun,
        due: &mut Vec<Pending<T>>,
        now: T,
    ) -> bool {
        due.clear();
        while self.pending.peek().is_some_and(|p| p.at <= now) {
            let Some(p) = self.pending.pop() else { break };
            due.push(p);
        }
        if due.is_empty() {
            return false;
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
/// message within the frame body)`. Only the stamp varints are parsed here;
/// the message bytes stay untouched until the frame's tick comes up, where
/// [`GossipEngine::deliver_encoded`] walks them exactly once — an
/// undecodable body is counted as a decode error there, with the same
/// totals as when polling validated eagerly.
pub(crate) fn parse_lockstep_frame(frame: &RawFrame) -> Result<(u64, u64, usize), CodecError> {
    let head = frame.head();
    let body = frame.body();
    if head.is_empty() {
        // Stream-framed payload: the tick/seq stamp is inline in the body.
        let (deliver_tick, a) = read_varint(body)?;
        let (seq, b) = read_varint(body.get(a..).ok_or(CodecError::Truncated)?)?;
        Ok((deliver_tick, seq, a + b))
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
