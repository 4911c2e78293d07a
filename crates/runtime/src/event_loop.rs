//! The per-process event loop: decode frames, drive the engine, encode and
//! send.
//!
//! One loop body exists per *pacing* discipline (see
//! [`crate::driver::Pacing`]):
//!
//! * [`run_lockstep_node`] — barrier-paced ticks with seeded per-message
//!   delays in `1..=d` ticks. Every thread runs concurrently within a tick,
//!   but delivery order is a pure function of `(deliver_tick, sender, seq)`,
//!   so a run's outcome is **bit-identical for a given seed** regardless of
//!   OS scheduling. This mirrors the simulator's `(d, δ)` model with
//!   `δ = 1`. Each tick starts with a *settle* handshake: nodes drain
//!   their transports in poll-only rounds until the driver observes that
//!   every frame handed to the transport has been taken off it
//!   (`messages_sent == frames_consumed`). Channels settle in one round;
//!   kernel transports (loopback TCP/UDS) may buffer a frame past one
//!   poll, and without the handshake a late frame would change the
//!   execution — or be lost entirely if the run stopped while it was in
//!   transit. With it, determinism and no-loss hold on *any* transport.
//! * [`run_free_node`] — free-running pacing: the thread sleeps a random
//!   sub-millisecond interval between local steps and injects random
//!   wall-clock delivery delays. Nothing synchronises the threads; this is
//!   the runtime under *real* scheduling nondeterminism.
//!
//! Both loops speak bytes: outgoing messages go through
//! [`agossip_core::codec`] ([`WireCodec::encode_into`]) and incoming frames
//! are decoded before delivery. A frame that fails to decode is counted and
//! dropped — a byte-corrupting link is message loss in the model, and the
//! codec's typed errors guarantee it can never panic the loop.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use agossip_core::codec::{read_varint, write_varint};
use agossip_core::{CodecError, EncodedFrame, GossipEngine, WireCodec, WireDecodeView};
use agossip_sim::rng::{derive_seed, RngStream};
use agossip_sim::ProcessId;

use crate::clock::Clock;
use crate::error::RuntimeError;
use crate::transport::{Endpoint, FrameBody, RawFrame, SendOutcome};

/// Counters shared by every node thread of one run.
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

/// Everything the node threads of one run share with the driver.
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
    /// First error any node thread hit; the driver surfaces it after join.
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
fn duration_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// What one node thread hands back when it finishes.
pub(crate) struct NodeOutcome {
    pub rumors: agossip_core::RumorSet,
    pub steps: u64,
}

// ---------------------------------------------------------------------------
// Lockstep pacing
// ---------------------------------------------------------------------------

/// A validated, still-encoded message waiting out its delivery tick.
/// Min-heap order on `(deliver_tick, from, seq)` — a strict total order,
/// since `(from, seq)` is unique — which is what makes lockstep delivery
/// deterministic. The body stays encoded (and, for broadcast fast-path
/// frames, shared) until delivery, when a whole tick's batch is folded into
/// the engine through [`GossipEngine::deliver_encoded`].
pub(crate) struct PendingTick {
    pub(crate) deliver_tick: u64,
    pub(crate) from: ProcessId,
    pub(crate) seq: u64,
    /// The frame body, still encoded.
    pub(crate) body: FrameBody,
    /// Offset of the message bytes within `body` (stream-framed payloads
    /// carry the tick/seq stamp inline; fast-path frames carry it in the
    /// frame head).
    pub(crate) msg_at: usize,
}

impl EncodedFrame for PendingTick {
    fn sender(&self) -> ProcessId {
        self.from
    }

    fn body(&self) -> &[u8] {
        self.body.as_slice().get(self.msg_at..).unwrap_or(&[])
    }
}

impl PartialEq for PendingTick {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for PendingTick {}

impl PartialOrd for PendingTick {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingTick {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.deliver_tick, other.from.index(), other.seq).cmp(&(
            self.deliver_tick,
            self.from.index(),
            self.seq,
        ))
    }
}

/// Parameters of one lockstep node thread.
pub(crate) struct LockstepNode<G, E> {
    pub engine: G,
    pub endpoint: E,
    /// Crash after this many local steps (`None` = correct process).
    pub crash_after: Option<u64>,
    /// Per-run master seed (the per-node delay stream is derived from it).
    pub seed: u64,
    /// Delivery delay bound `d ≥ 1`, in ticks.
    pub d: u64,
}

/// Runs one node under barrier-paced lockstep until the driver raises the
/// stop flag. See the module docs for the tick structure and the
/// determinism argument.
pub(crate) fn run_lockstep_node<G, E>(
    node: LockstepNode<G, E>,
    shared: &SharedRun,
    barrier: &Barrier,
) -> NodeOutcome
where
    G: GossipEngine,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    E: Endpoint,
{
    let LockstepNode {
        mut engine,
        mut endpoint,
        crash_after,
        seed,
        d,
    } = node;
    let pid = endpoint.pid();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ 0x11FE, RngStream::Process(pid)));
    let mut pending: BinaryHeap<PendingTick> = BinaryHeap::new();
    let mut frames: Vec<RawFrame> = Vec::new();
    let mut due: Vec<PendingTick> = Vec::new();
    let mut out: Vec<(ProcessId, G::Msg)> = Vec::new();
    let mut head: Vec<u8> = Vec::new();
    let mut body: Vec<u8> = Vec::new();
    let mut shared_body: Arc<[u8]> = Arc::new([]);
    let mut last_encoded: Option<G::Msg> = None;
    let mut tick = 0u64;
    let mut steps = 0u64;
    let mut seq = 0u64;
    let mut crashed = false;

    'run: loop {
        // --- Settle: drain the transport in poll-only rounds until the
        // driver observes every sent frame consumed (one round on
        // channels; kernel transports may need more). ---------------------
        loop {
            // Push queued outbound bytes (sockets write non-blockingly);
            // frames the flush discovered lost to a dead peer are booked as
            // consumed, like a Lost send, to keep the settle invariant.
            match endpoint.flush() {
                Ok(lost) => {
                    shared
                        .stats
                        .frames_consumed
                        .fetch_add(lost, Ordering::Relaxed);
                }
                Err(e) => {
                    shared.record_error(e);
                    crashed = true;
                }
            }
            frames.clear();
            if let Err(e) = endpoint.poll_into(&mut frames) {
                shared.record_error(e);
                crashed = true; // keep participating in barriers, do nothing
            }
            shared
                .stats
                .frames_consumed
                .fetch_add(frames.len() as u64, Ordering::Relaxed);
            if crashed {
                // A crashed process receives nothing and sends nothing;
                // frames addressed to it are dropped on the floor.
                frames.clear();
            } else {
                for frame in frames.drain(..) {
                    match parse_lockstep_frame(&frame) {
                        Ok((deliver_tick, msg_seq, msg_at)) => pending.push(PendingTick {
                            deliver_tick,
                            from: frame.from,
                            seq: msg_seq,
                            body: frame.into_body(),
                            msg_at,
                        }),
                        Err(_) => {
                            shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            barrier.wait(); // driver compares sent vs consumed
            barrier.wait(); // driver has published settled/stop
            if shared.stop.load(Ordering::Relaxed) {
                break 'run;
            }
            if shared.settled.load(Ordering::Relaxed) {
                break;
            }
        }

        // --- Step: deliver what is due this tick, run the engine, send. --
        let mut active = false;
        if !crashed {
            due.clear();
            while pending.peek().is_some_and(|p| p.deliver_tick <= tick) {
                let Some(p) = pending.pop() else { break };
                due.push(p);
            }
            if !due.is_empty() {
                // One view-decode walk per body, batched unions inside the
                // engine; a frame that fails to decode counts as an error
                // here and delivers nothing, exactly as when polling
                // validated eagerly.
                let errors = engine.deliver_encoded(&due) as u64;
                active = due.len() as u64 > errors;
                shared
                    .stats
                    .decode_errors
                    .fetch_add(errors, Ordering::Relaxed);
                shared
                    .stats
                    .messages_delivered
                    .fetch_add(due.len() as u64 - errors, Ordering::Relaxed);
                due.clear();
            }
            if crash_after.is_some_and(|limit| steps >= limit) {
                crashed = true;
                pending.clear();
            } else {
                out.clear();
                engine.local_step(&mut out);
                steps += 1;
                for (to, msg) in out.drain(..) {
                    // A broadcast pushes clones of one message to many
                    // targets; encode the body once per distinct message
                    // into one shared buffer and only re-stamp the per-send
                    // tick/seq head.
                    if last_encoded.as_ref() != Some(&msg) {
                        body.clear();
                        msg.encode_into(&mut body);
                        shared_body = Arc::from(body.as_slice());
                        last_encoded = Some(msg);
                    }
                    // `d ≥ 1` is guaranteed by `LiveConfig::validate`.
                    let delay = rng.gen_range(1..=d);
                    head.clear();
                    write_varint(&mut head, tick + delay);
                    write_varint(&mut head, seq);
                    seq += 1;
                    active = true;
                    shared.stats.messages_sent.fetch_add(1, Ordering::Relaxed);
                    shared
                        .stats
                        .bytes_sent
                        .fetch_add(body.len() as u64, Ordering::Relaxed);
                    match endpoint.send_shared(to, &head, &shared_body) {
                        Ok(SendOutcome::Sent) => {}
                        // A frame the transport dropped will never be
                        // polled: book it as consumed so the settle
                        // handshake's sent == consumed invariant survives
                        // peer death.
                        Ok(SendOutcome::Lost) => {
                            shared.stats.frames_consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            shared.record_error(e);
                            crashed = true;
                            break;
                        }
                    }
                }
            }
        }
        // Quiet = this node neither delivered nor sent this tick, holds no
        // pending frames, and its engine will not send unprompted. The
        // delivered/sent part matters: with `d = 1` an engine can absorb a
        // delivery without reacting (a duplicate rumor), and without it two
        // such ticks could read all-quiet while a reply was still in
        // flight.
        let quiet = crashed || (!active && pending.is_empty() && engine.is_quiescent());
        shared.quiet[pid.index()].store(quiet, Ordering::Relaxed);

        // --- Quiet check: the driver inspects the flags between the two
        // barriers and decides whether the run is over. ------------------
        barrier.wait();
        barrier.wait();
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        tick += 1;
    }

    NodeOutcome {
        rumors: engine.rumors().clone(),
        steps,
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

// ---------------------------------------------------------------------------
// Free-running pacing
// ---------------------------------------------------------------------------

/// A validated, still-encoded message waiting out its injected wall-clock
/// delay, deadline-indexed like the lockstep buffer (min-heap on
/// `(deliver_after, seq)` with an arrival sequence for FIFO tie-breaking).
/// Deadlines are elapsed time per the run's [`Clock`], not `Instant`s, so a
/// fake clock can drive them in tests.
pub(crate) struct PendingWall {
    pub(crate) deliver_after: Duration,
    pub(crate) seq: u64,
    pub(crate) from: ProcessId,
    /// The encoded message body (no tick/seq stamp under free pacing).
    pub(crate) body: FrameBody,
}

impl EncodedFrame for PendingWall {
    fn sender(&self) -> ProcessId {
        self.from
    }

    fn body(&self) -> &[u8] {
        self.body.as_slice()
    }
}

impl PartialEq for PendingWall {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for PendingWall {}

impl PartialOrd for PendingWall {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingWall {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .deliver_after
            .cmp(&self.deliver_after)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Parameters of one free-running node thread.
pub(crate) struct FreeNode<G, E> {
    pub engine: G,
    pub endpoint: E,
    pub crash_after: Option<u64>,
    pub seed: u64,
    /// Upper bound on the injected per-message delivery delay (the role of
    /// `d` in the model).
    pub max_delay: Duration,
    /// Upper bound on the pause between local steps (the role of `δ`).
    pub max_step_pause: Duration,
}

/// Runs one node free-running until the driver raises the stop flag (or the
/// node's crash point arrives — the thread then exits, dropping its
/// endpoint, which is how its peers experience the crash).
pub(crate) fn run_free_node<G, E>(node: FreeNode<G, E>, shared: &SharedRun) -> NodeOutcome
where
    G: GossipEngine,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    E: Endpoint,
{
    let FreeNode {
        mut engine,
        mut endpoint,
        crash_after,
        seed,
        max_delay,
        max_step_pause,
    } = node;
    let pid = endpoint.pid();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ 0xA51C, RngStream::Process(pid)));
    let mut pending: BinaryHeap<PendingWall> = BinaryHeap::new();
    let mut frames: Vec<RawFrame> = Vec::new();
    let mut due: Vec<PendingWall> = Vec::new();
    let mut out: Vec<(ProcessId, G::Msg)> = Vec::new();
    let mut body: Vec<u8> = Vec::new();
    let mut shared_body: Arc<[u8]> = Arc::new([]);
    let mut last_encoded: Option<G::Msg> = None;
    let mut arrival_seq = 0u64;
    let mut steps = 0u64;
    let max_delay_us = max_delay.as_micros().max(1) as u64;
    let max_pause_us = max_step_pause.as_micros().max(1) as u64;

    'run: loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        if crash_after.is_some_and(|limit| steps >= limit) {
            break; // crash: halt permanently, deliver nothing further
        }

        // Push queued outbound bytes; flush-discovered losses are booked as
        // consumed so the counters stay reconcilable.
        match endpoint.flush() {
            Ok(lost) => {
                shared
                    .stats
                    .frames_consumed
                    .fetch_add(lost, Ordering::Relaxed);
            }
            Err(e) => {
                shared.record_error(e);
                break;
            }
        }
        // Drain the transport into the deadline-indexed delay buffer,
        // drawing each frame's injected delay from the node's seeded stream.
        frames.clear();
        if let Err(e) = endpoint.poll_into(&mut frames) {
            shared.record_error(e);
            break;
        }
        let now = shared.clock.now();
        shared
            .stats
            .frames_consumed
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        for frame in frames.drain(..) {
            let from = frame.from;
            let body = free_frame_body(frame);
            let delay = Duration::from_micros(rng.gen_range(0..=max_delay_us));
            pending.push(PendingWall {
                deliver_after: now + delay,
                seq: arrival_seq,
                from,
                body,
            });
            arrival_seq += 1;
        }

        // Deliver everything whose injected delay has expired; the heap top
        // is the earliest deadline, so this touches only due messages, and
        // the whole due batch folds into the engine in one call (which also
        // counts any body that fails to decode).
        let now = shared.clock.now();
        due.clear();
        while pending.peek().is_some_and(|p| p.deliver_after <= now) {
            let Some(p) = pending.pop() else { break };
            due.push(p);
        }
        if !due.is_empty() {
            let errors = engine.deliver_encoded(&due) as u64;
            shared
                .stats
                .decode_errors
                .fetch_add(errors, Ordering::Relaxed);
            shared
                .stats
                .messages_delivered
                .fetch_add(due.len() as u64 - errors, Ordering::Relaxed);
            if due.len() as u64 > errors {
                shared.touch();
            }
            due.clear();
        }

        // One local step.
        out.clear();
        engine.local_step(&mut out);
        steps += 1;
        for (to, msg) in out.drain(..) {
            // As in the lockstep loop: a broadcast's clones of one message
            // are encoded once into one shared buffer, not once per
            // destination.
            if last_encoded.as_ref() != Some(&msg) {
                body.clear();
                msg.encode_into(&mut body);
                shared_body = Arc::from(body.as_slice());
                last_encoded = Some(msg);
            }
            shared.stats.messages_sent.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .bytes_sent
                .fetch_add(body.len() as u64, Ordering::Relaxed);
            shared.touch();
            match endpoint.send_shared(to, &[], &shared_body) {
                Ok(SendOutcome::Sent) => {}
                // Book transport-dropped frames as consumed, as in the
                // lockstep loop, so the counters stay reconcilable.
                Ok(SendOutcome::Lost) => {
                    shared.stats.frames_consumed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    shared.record_error(e);
                    break 'run;
                }
            }
        }

        shared.quiet[pid.index()].store(
            engine.is_quiescent() && pending.is_empty(),
            Ordering::Relaxed,
        );

        // Pace the next step (the role of δ).
        std::thread::sleep(Duration::from_micros(rng.gen_range(0..=max_pause_us)));
    }

    // Whether the node crashed or the run is over, it will never send again:
    // mark it quiescent so the driver is not blocked on a crashed node.
    shared.quiet[pid.index()].store(true, Ordering::Relaxed);
    NodeOutcome {
        rumors: engine.rumors().clone(),
        steps,
    }
}
