//! Epoch-tagged frames and the epoch multiplexer behind service mode.
//!
//! Everything below turns the one-shot gossip engines into a *replicated
//! log*: a numbered sequence of independent gossip instances ("epochs"),
//! each seeded with a fresh rumor per process, running concurrently inside
//! a bounded window while earlier epochs settle and are garbage-collected.
//!
//! The design deliberately leaves the protocol engines untouched:
//!
//! * [`EpochMsg`] is an *envelope* wire kind (`kind::EPOCH` = 6) that
//!   nests one complete versioned protocol frame after a varint epoch
//!   number, so the existing codec and [`crate::codec_view`] zero-copy
//!   paths keep working unchanged on the nested frame.
//! * [`EpochMux`] is itself a [`GossipEngine`] whose message type is
//!   `EpochMsg<G::Msg>`. It owns at most `window` live instances of the
//!   inner engine `G` (one per open epoch, in a slot ring indexed by
//!   `epoch % window`), routes deliveries by epoch, steps open epochs in
//!   ascending order, and drops an instance the moment its epoch is
//!   harvested — that drop *is* the garbage collection that keeps live
//!   state `O(window)` instead of `O(epochs)`.
//! * [`EpochBoard`] is the shared coordination surface between one driver
//!   and the `n` multiplexers: the driver publishes the virtual time, the
//!   admission frontier ([`EpochBoard::open_upto`]) and harvest requests;
//!   the multiplexers publish per-slot activity and harvested rumor sets.
//!
//! Determinism: everything a multiplexer does is a pure function of the
//! values the driver published on the board and of the frames it received.
//! Under lockstep pacing the driver only writes the board between ticks
//! (while every node is parked on the tick barrier), the epoch admission
//! frontier is the pure function [`service_open_upto`] of
//! `(mode, window, total, tick, finalized)`, and per-epoch rumors come from
//! the pure [`epoch_rumor`] workload generator — so a service run is
//! bit-identical per seed across thread placements, exactly like the
//! one-shot lockstep runs.
//!
//! Decode paths in this module never panic; the file is under the same
//! `never-panic-decode` lint policy as `codec.rs`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use agossip_sim::rng::{splitmix64, trial_seed};
use agossip_sim::ProcessId;

use crate::codec::{kind, read_header, write_header, write_varint, CodecError, Reader, WireCodec};
use crate::codec_view::WireDecodeView;
use crate::engine::{EncodedFrame, GossipCtx, GossipEngine};
use crate::rumor::{Rumor, RumorSet};

// ---------------------------------------------------------------------------
// Wire envelope
// ---------------------------------------------------------------------------

/// One inner-protocol message tagged with the epoch it belongs to.
///
/// On the wire this is an *envelope* frame: the versioned header with kind
/// `kind::EPOCH`, a varint epoch number, then one complete inner frame
/// (with its own header), so the nested bytes decode with the inner
/// protocol's existing owned and view decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochMsg<M> {
    /// The epoch the inner message belongs to.
    pub epoch: u64,
    /// The inner protocol message.
    pub inner: M,
}

impl<M: WireCodec> WireCodec for EpochMsg<M> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        write_header(buf, kind::EPOCH);
        write_varint(buf, self.epoch);
        self.inner.encode_into(buf);
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let (epoch, at) = peel_epoch_header(bytes)?;
        let rest = bytes.get(at..).ok_or(CodecError::Truncated)?;
        Ok(EpochMsg {
            epoch,
            inner: M::decode(rest)?,
        })
    }
}

/// Borrowed view over an encoded [`EpochMsg`]: the epoch plus the inner
/// message's view.
pub struct EpochMsgView<'a, M: WireDecodeView> {
    /// The epoch the frame belongs to.
    pub epoch: u64,
    /// The borrowed view of the nested inner frame.
    pub inner: M::View<'a>,
}

impl<M: WireDecodeView> WireDecodeView for EpochMsg<M> {
    type View<'a> = EpochMsgView<'a, M>;

    fn decode_view(bytes: &[u8]) -> Result<Self::View<'_>, CodecError> {
        let (epoch, at) = peel_epoch_header(bytes)?;
        let rest = bytes.get(at..).ok_or(CodecError::Truncated)?;
        Ok(EpochMsgView {
            epoch,
            inner: M::decode_view(rest)?,
        })
    }

    fn view_to_owned(view: &Self::View<'_>) -> Self {
        EpochMsg {
            epoch: view.epoch,
            inner: M::view_to_owned(&view.inner),
        }
    }
}

/// The nested frame of one envelope in an [`EpochMux`] batch, with the
/// envelope's sender and verdict.
struct NestedFrame<'a> {
    from: ProcessId,
    body: &'a [u8],
    verified: bool,
}

impl EncodedFrame for NestedFrame<'_> {
    fn sender(&self) -> ProcessId {
        self.from
    }

    fn body(&self) -> &[u8] {
        self.body
    }

    fn verified(&self) -> bool {
        self.verified
    }
}

/// Parses the envelope header of an encoded [`EpochMsg`]: validates the
/// codec version and the `kind::EPOCH` discriminant, reads the varint
/// epoch, and returns `(epoch, offset)` where `offset` is the start of the
/// nested inner frame. Never panics.
///
/// This is the cheap routing parse [`EpochMux::deliver_encoded`] uses to
/// group a batch by epoch without decoding the nested frames.
pub fn peel_epoch_header(bytes: &[u8]) -> Result<(u64, usize), CodecError> {
    let mut reader = Reader::new(bytes);
    let k = read_header(&mut reader)?;
    if k != kind::EPOCH {
        return Err(CodecError::BadKind(k));
    }
    let epoch = reader.varint()?;
    Ok((epoch, reader.pos()))
}

// ---------------------------------------------------------------------------
// Deterministic workload generator
// ---------------------------------------------------------------------------

/// Domain-separation salt for the epoch workload stream.
const EPOCH_SEED_SALT: u64 = 0x5EED_E70C_2008_0001;

/// The protocol seed for one epoch, derived from the service master seed.
///
/// Every process derives its per-epoch [`GossipCtx`] from this value, so
/// epoch `e` of a service run with master seed `s` behaves exactly like a
/// one-shot run seeded with `epoch_seed(s, e)`.
pub fn epoch_seed(master_seed: u64, epoch: u64) -> u64 {
    trial_seed(splitmix64(master_seed ^ EPOCH_SEED_SALT), epoch)
}

/// The rumor payload process `pid` injects into `epoch`.
///
/// A pure function of `(master_seed, epoch, pid)` — this is the
/// deterministic workload generator: the driver uses it to reconstruct the
/// initial rumors when checking a settled epoch, and [`EpochMux`] uses it
/// when instantiating the epoch's engine, without either side sending the
/// other anything.
pub fn epoch_payload(master_seed: u64, epoch: u64, pid: ProcessId) -> u64 {
    splitmix64(epoch_seed(master_seed, epoch) ^ (pid.index() as u64))
}

/// The rumor process `pid` injects into `epoch` (see [`epoch_payload`]).
pub fn epoch_rumor(master_seed: u64, epoch: u64, pid: ProcessId) -> Rumor {
    Rumor::new(pid, epoch_payload(master_seed, epoch, pid))
}

/// The full slate of `n` initial rumors for one epoch, in pid order (what
/// the per-epoch checker takes as the gossip input).
pub fn epoch_initial_rumors(master_seed: u64, epoch: u64, n: usize) -> Vec<Rumor> {
    (0..n)
        .map(|i| epoch_rumor(master_seed, epoch, ProcessId(i)))
        .collect()
}

// ---------------------------------------------------------------------------
// Admission policy
// ---------------------------------------------------------------------------

/// How fresh epochs are admitted into the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopMode {
    /// Open loop: admit one fresh epoch every `period` time units,
    /// regardless of completions (backpressured only by the window cap).
    Open {
        /// Time units (lockstep ticks, or milliseconds free-running)
        /// between admissions.
        period: u64,
    },
    /// Closed loop: keep exactly `in_flight` epochs outstanding — admit a
    /// fresh epoch only when one finalizes.
    Closed {
        /// Target number of concurrently outstanding epochs.
        in_flight: usize,
    },
}

impl LoopMode {
    /// Short stable name for reports ("open" / "closed").
    pub fn name(&self) -> &'static str {
        match self {
            LoopMode::Open { .. } => "open",
            LoopMode::Closed { .. } => "closed",
        }
    }
}

/// The epoch admission frontier: epochs `0..service_open_upto(..)` may be
/// open at time `now` given `finalized` epochs are fully settled.
///
/// A pure function of its arguments and monotone in `(now, finalized)` —
/// the driver recomputes it between ticks and publishes it on the
/// [`EpochBoard`]; nothing about thread placement can perturb it, which is
/// what keeps service runs bit-identical across threadings. The frontier
/// never exceeds `finalized + window` (slot-ring capacity) or `total`.
pub fn service_open_upto(
    mode: LoopMode,
    window: usize,
    total: u64,
    now: u64,
    finalized: u64,
) -> u64 {
    let window = window.max(1) as u64;
    let cap = finalized.saturating_add(window).min(total);
    match mode {
        LoopMode::Open { period } => (now / period.max(1)).saturating_add(1).min(cap),
        LoopMode::Closed { in_flight } => {
            let target = (in_flight.max(1) as u64).min(window);
            finalized.saturating_add(target).min(cap)
        }
    }
}

// ---------------------------------------------------------------------------
// Shared epoch board
// ---------------------------------------------------------------------------

/// Sentinel for "no harvest requested" in a slot's request cell.
const NO_HARVEST: u64 = u64::MAX;

/// One slot of the shared board (see [`EpochBoard`]).
struct BoardSlot {
    /// Latest board time at which the slot's epoch showed activity (a send,
    /// a delivery, or a non-quiescent engine at a local step).
    last_activity: AtomicU64,
    /// Epoch the driver wants harvested out of this slot ([`NO_HARVEST`]
    /// when none).
    harvest_req: AtomicU64,
    /// Rumor sets the processes harvested for the requested epoch.
    harvest: Mutex<Vec<(ProcessId, RumorSet)>>,
}

/// The shared coordination surface between a service driver and the
/// per-process [`EpochMux`] engines.
///
/// All cells are written with relaxed ordering: under lockstep pacing the
/// tick barrier orders every access (the driver writes only while all
/// nodes are parked on it); free-running, the numeric cells are monotone
/// heuristics and the harvest vectors are guarded by their mutex.
pub struct EpochBoard {
    window: usize,
    /// Virtual time: the lockstep tick (or free-running milliseconds) the
    /// driver last published.
    now: AtomicU64,
    /// Admission frontier: epochs `0..open_upto` may be open.
    open_upto: AtomicU64,
    /// All epochs below this are finalized; frames for them are stale.
    finalized_floor: AtomicU64,
    /// Frames dropped because their epoch was already finalized or its
    /// slot was reused (absorbed, not errors — the epidemic re-send makes
    /// them redundant by construction).
    stale_drops: AtomicU64,
    slots: Vec<BoardSlot>,
}

impl fmt::Debug for EpochBoard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochBoard")
            .field("window", &self.window)
            .field("now", &self.now())
            .field("open_upto", &self.open_upto())
            .field("finalized_floor", &self.finalized_floor())
            .field("stale_drops", &self.stale_drops())
            .finish()
    }
}

impl EpochBoard {
    /// A fresh board with `window` slots (clamped to at least 1).
    pub fn new(window: usize) -> Self {
        let window = window.max(1);
        EpochBoard {
            window,
            now: AtomicU64::new(0),
            open_upto: AtomicU64::new(0),
            finalized_floor: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
            slots: (0..window)
                .map(|_| BoardSlot {
                    last_activity: AtomicU64::new(0),
                    harvest_req: AtomicU64::new(NO_HARVEST),
                    harvest: Mutex::new(Vec::new()),
                })
                .collect(),
        }
    }

    /// Number of slots (the maximum number of concurrently open epochs).
    pub fn window(&self) -> usize {
        self.window
    }

    /// The slot epoch `epoch` lives in.
    pub fn slot_of(&self, epoch: u64) -> usize {
        (epoch % self.window as u64) as usize
    }

    /// The driver-published virtual time.
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    /// Publishes the virtual time (driver only, between ticks).
    pub fn set_now(&self, t: u64) {
        self.now.store(t, Ordering::Relaxed);
    }

    /// The published admission frontier.
    pub fn open_upto(&self) -> u64 {
        self.open_upto.load(Ordering::Relaxed)
    }

    /// Publishes the admission frontier (driver only, between ticks).
    pub fn publish_open_upto(&self, upto: u64) {
        self.open_upto.store(upto, Ordering::Relaxed);
    }

    /// The published finalized floor.
    pub fn finalized_floor(&self) -> u64 {
        self.finalized_floor.load(Ordering::Relaxed)
    }

    /// Publishes the finalized floor (driver only).
    pub fn set_finalized_floor(&self, floor: u64) {
        self.finalized_floor.store(floor, Ordering::Relaxed);
    }

    fn slot(&self, slot: usize) -> &BoardSlot {
        // Callers compute `slot` with `slot_of`, so it is always in range;
        // fall back to the first slot rather than panic if one ever is not
        // (the board always has at least one slot).
        self.slots
            .get(slot)
            .or_else(|| self.slots.first())
            .unwrap_or_else(|| unreachable_slot())
    }

    /// Latest activity time recorded for `slot`.
    pub fn last_activity(&self, slot: usize) -> u64 {
        self.slot(slot).last_activity.load(Ordering::Relaxed)
    }

    /// Records activity for `slot` at time `t` (monotone max).
    pub fn bump_activity(&self, slot: usize, t: u64) {
        self.slot(slot)
            .last_activity
            .fetch_max(t, Ordering::Relaxed);
    }

    /// Resets `slot`'s activity clock to `t` (driver only, when opening an
    /// epoch into the slot).
    pub fn reset_activity(&self, slot: usize, t: u64) {
        self.slot(slot).last_activity.store(t, Ordering::Relaxed);
    }

    /// Asks every process to harvest `epoch` out of `slot` at its next
    /// local step (driver only).
    pub fn request_harvest(&self, slot: usize, epoch: u64) {
        self.slot(slot).harvest_req.store(epoch, Ordering::Relaxed);
    }

    /// The epoch currently requested for harvest from `slot`, if any.
    pub fn harvest_request(&self, slot: usize) -> Option<u64> {
        match self.slot(slot).harvest_req.load(Ordering::Relaxed) {
            NO_HARVEST => None,
            epoch => Some(epoch),
        }
    }

    /// Deposits one process's final rumor set for the epoch being harvested
    /// from `slot`.
    pub fn push_harvest(&self, slot: usize, pid: ProcessId, rumors: RumorSet) {
        lock(&self.slot(slot).harvest).push((pid, rumors));
    }

    /// The pids that have deposited a harvest for `slot` so far.
    pub fn harvested_pids(&self, slot: usize) -> Vec<ProcessId> {
        lock(&self.slot(slot).harvest)
            .iter()
            .map(|(pid, _)| *pid)
            .collect()
    }

    /// Drains the harvested rumor sets of `slot` and clears its request
    /// cell, freeing the slot for reuse (driver only, at finalization).
    pub fn take_harvest(&self, slot: usize) -> Vec<(ProcessId, RumorSet)> {
        let drained = std::mem::take(&mut *lock(&self.slot(slot).harvest));
        self.slot(slot)
            .harvest_req
            .store(NO_HARVEST, Ordering::Relaxed);
        drained
    }

    /// Counts `k` stale frames absorbed (delivered to an already-finalized
    /// or displaced epoch).
    pub fn note_stale_drops(&self, k: u64) {
        self.stale_drops.fetch_add(k, Ordering::Relaxed);
    }

    /// Total stale frames absorbed so far.
    pub fn stale_drops(&self) -> u64 {
        self.stale_drops.load(Ordering::Relaxed)
    }
}

/// Poison-tolerant mutex lock: a thread that panicked while holding the
/// harvest lock only ever pushed complete `(pid, set)` pairs, so the data
/// stays usable.
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Diverges without a panicking macro in this never-panic file; only
/// reachable if [`EpochBoard::slot`]'s in-range invariant is broken *and*
/// the board has zero slots, which `EpochBoard::new` makes impossible.
fn unreachable_slot() -> ! {
    std::process::abort()
}

// ---------------------------------------------------------------------------
// The epoch multiplexer
// ---------------------------------------------------------------------------

/// An epoch-multiplexed [`GossipEngine`]: at most `window` live instances
/// of the inner engine `G`, one per open epoch, behind a single engine
/// interface whose message type is [`EpochMsg`]`<G::Msg>`.
///
/// Because `EpochMux` *is* a `GossipEngine`, the existing lockstep and
/// free-running node loops (and the reactor) drive it unchanged; epochs
/// are invisible to the transport. The mux reads its marching orders from
/// the shared [`EpochBoard`]: it opens epochs up to the published
/// admission frontier at each local step, harvests (and drops) an epoch's
/// engine when the driver requests it, and reports per-slot activity so
/// the driver can detect per-epoch settling.
pub struct EpochMux<G: GossipEngine, F> {
    board: Arc<EpochBoard>,
    make: F,
    pid: ProcessId,
    n: usize,
    f: usize,
    master_seed: u64,
    /// Slot ring: `slots[epoch % window]` holds the open epoch's engine.
    slots: Vec<Option<(u64, G)>>,
    /// All epochs below this have been opened locally at some point.
    next_open: u64,
    steps: u64,
    /// What `rumors()` returns: the mux spans many epochs, so it exposes no
    /// single rumor set of its own (per-epoch sets travel via the board).
    none: RumorSet,
    scratch: Vec<(ProcessId, G::Msg)>,
}

impl<G, F> EpochMux<G, F>
where
    G: GossipEngine,
    F: Fn(GossipCtx) -> G,
{
    /// A fresh multiplexer for process `pid` of `n` (failure budget `f`),
    /// building one `G` per epoch via `make` from a [`GossipCtx`] carrying
    /// the epoch's derived seed and this process's generated rumor.
    pub fn new(
        board: Arc<EpochBoard>,
        pid: ProcessId,
        n: usize,
        f: usize,
        master_seed: u64,
        make: F,
    ) -> Self {
        let window = board.window();
        EpochMux {
            board,
            make,
            pid,
            n,
            f,
            master_seed,
            slots: (0..window).map(|_| None).collect(),
            next_open: 0,
            steps: 0,
            none: RumorSet::new(),
            scratch: Vec::new(),
        }
    }

    /// The epochs currently open in this mux, ascending.
    pub fn open_epochs(&self) -> Vec<u64> {
        let mut epochs: Vec<u64> = self
            .slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(e, _)| *e))
            .collect();
        epochs.sort_unstable();
        epochs
    }

    /// Instantiates `epoch`'s engine into `slot`.
    fn open_at(&mut self, slot: usize, epoch: u64) {
        let ctx = GossipCtx::new(
            self.pid,
            self.n,
            self.f,
            epoch_seed(self.master_seed, epoch),
        )
        .with_payload(epoch_payload(self.master_seed, epoch, self.pid));
        if let Some(entry) = self.slots.get_mut(slot) {
            *entry = Some((epoch, (self.make)(ctx)));
        }
    }

    /// Harvests `slot`: deposits the engine's rumor set on the board and
    /// drops the engine (the garbage collection).
    fn harvest_slot(&mut self, slot: usize) {
        if let Some(entry) = self.slots.get_mut(slot) {
            if let Some((_, engine)) = entry.take() {
                self.board
                    .push_harvest(slot, self.pid, engine.rumors().clone());
            }
        }
    }

    /// Routes an incoming frame for `epoch` to its slot, opening the epoch
    /// on delivery if this process has not opened it yet (free-running
    /// only; under lockstep every process opens an epoch at the local step
    /// before any frame for it can arrive, since send delays are ≥ 1
    /// tick). Returns `None` for stale frames (epoch already finalized or
    /// slot reused), which the caller absorbs.
    fn route(&mut self, epoch: u64) -> Option<usize> {
        if epoch < self.board.finalized_floor() {
            return None;
        }
        let slot = self.board.slot_of(epoch);
        match self.slots.get(slot).and_then(|s| s.as_ref()) {
            Some((e, _)) if *e == epoch => return Some(slot),
            Some((e, _)) if *e > epoch => return None,
            _ => {}
        }
        if epoch < self.next_open {
            // Opened locally before and since harvested or displaced.
            return None;
        }
        // Any older occupant's epoch was finalized without this process's
        // harvest (the driver does not wait for processes configured to
        // crash); its engine is dropped unharvested.
        if let Some(entry) = self.slots.get_mut(slot) {
            *entry = None;
        }
        self.open_at(slot, epoch);
        Some(slot)
    }
}

impl<G, F> GossipEngine for EpochMux<G, F>
where
    G: GossipEngine,
    G::Msg: WireCodec,
    F: Fn(GossipCtx) -> G,
{
    type Msg = EpochMsg<G::Msg>;

    fn deliver(&mut self, from: ProcessId, msg: Self::Msg) {
        match self.route(msg.epoch) {
            Some(slot) => {
                self.board.bump_activity(slot, self.board.now());
                if let Some(Some((_, engine))) = self.slots.get_mut(slot) {
                    engine.deliver(from, msg.inner);
                }
            }
            None => self.board.note_stale_drops(1),
        }
    }

    fn deliver_encoded<E: EncodedFrame>(&mut self, frames: &[E]) -> usize
    where
        Self::Msg: WireCodec,
    {
        let mut errors = 0usize;
        // Group the batch by epoch (preserving arrival order within each
        // epoch) using only the cheap envelope-header parse, so each open
        // engine still gets its nested frames as one batch and keeps its
        // batched-union fast path. A verified envelope verifies its nested
        // frame: `decode_view` of the envelope validated it.
        let mut groups: Vec<(u64, Vec<NestedFrame<'_>>)> = Vec::new();
        for frame in frames {
            match peel_epoch_header(frame.body()) {
                Ok((epoch, at)) => {
                    let nested = NestedFrame {
                        from: frame.sender(),
                        body: frame.body().get(at..).unwrap_or(&[]),
                        verified: frame.verified(),
                    };
                    match groups.iter_mut().find(|(e, _)| *e == epoch) {
                        Some((_, batch)) => batch.push(nested),
                        None => groups.push((epoch, vec![nested])),
                    }
                }
                Err(_) => errors += 1,
            }
        }
        for (epoch, batch) in groups {
            match self.route(epoch) {
                Some(slot) => {
                    self.board.bump_activity(slot, self.board.now());
                    if let Some(Some((_, engine))) = self.slots.get_mut(slot) {
                        errors += engine.deliver_encoded(&batch);
                    }
                }
                // Stale frames are absorbed (counted, not errors): the
                // epidemic re-send makes late duplicates inevitable.
                None => self.board.note_stale_drops(batch.len() as u64),
            }
        }
        errors
    }

    fn local_step(&mut self, out: &mut Vec<(ProcessId, Self::Msg)>) {
        let now = self.board.now();
        // 1. Harvest slots the driver asked for: deposit the final rumor
        //    set and drop the engine.
        for slot in 0..self.slots.len() {
            let requested = match self.slots.get(slot).and_then(|s| s.as_ref()) {
                Some((e, _)) => self.board.harvest_request(slot) == Some(*e),
                None => false,
            };
            if requested {
                self.harvest_slot(slot);
            }
        }
        // 2. Open every epoch the driver has admitted since our last step.
        let floor = self.board.finalized_floor();
        if self.next_open < floor {
            self.next_open = floor;
        }
        let upto = self.board.open_upto();
        while self.next_open < upto {
            let epoch = self.next_open;
            self.next_open += 1;
            let slot = self.board.slot_of(epoch);
            match self.slots.get(slot).and_then(|s| s.as_ref()) {
                // Already open (delivery-opened) or overtaken.
                Some((e, _)) if *e >= epoch => {}
                _ => {
                    if let Some(entry) = self.slots.get_mut(slot) {
                        *entry = None;
                    }
                    self.open_at(slot, epoch);
                }
            }
        }
        // 3. Step every open epoch in ascending epoch order, tagging its
        //    output messages with the epoch.
        let mut order: Vec<(u64, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, s)| s.as_ref().map(|(e, _)| (*e, slot)))
            .collect();
        order.sort_unstable();
        for (epoch, slot) in order {
            let scratch = &mut self.scratch;
            scratch.clear();
            if let Some(Some((_, engine))) = self.slots.get_mut(slot) {
                engine.local_step(scratch);
                let active = !scratch.is_empty() || !engine.is_quiescent();
                if active {
                    self.board.bump_activity(slot, now);
                }
            }
            out.reserve(scratch.len());
            for (to, inner) in scratch.drain(..) {
                out.push((to, EpochMsg { epoch, inner }));
            }
        }
        self.steps += 1;
    }

    fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The mux spans many epochs, so it has no rumor set of its own; the
    /// per-epoch sets travel through the board's harvest cells instead.
    fn rumors(&self) -> &RumorSet {
        &self.none
    }

    fn is_quiescent(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.as_ref().is_none_or(|(_, engine)| engine.is_quiescent()))
    }

    fn steps_taken(&self) -> u64 {
        self.steps
    }

    fn msg_units(msg: &Self::Msg) -> u64 {
        G::msg_units(&msg.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ears::{Ears, EarsMessage};
    use crate::informed_list::InformedList;
    use crate::trivial::{Trivial, TrivialMessage};

    #[test]
    fn epoch_msg_round_trips() {
        let msg = EpochMsg {
            epoch: 300,
            inner: TrivialMessage {
                rumor: Rumor::new(ProcessId(3), 77),
            },
        };
        let bytes = msg.encode();
        assert_eq!(bytes[1], kind::EPOCH);
        let back = EpochMsg::<TrivialMessage>::decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn epoch_view_matches_owned_decode() {
        let mut set = RumorSet::new();
        for i in 0..40 {
            set.insert(Rumor::new(ProcessId(i), i as u64));
        }
        let msg = EpochMsg {
            epoch: 9,
            inner: EarsMessage {
                rumors: Arc::new(set),
                informed: Arc::new(InformedList::new()),
            },
        };
        let bytes = msg.encode();
        let view = EpochMsg::<EarsMessage>::decode_view(&bytes).unwrap();
        assert_eq!(view.epoch, 9);
        assert_eq!(EpochMsg::view_to_owned(&view), msg);
    }

    #[test]
    fn peel_rejects_non_epoch_frames() {
        let inner = TrivialMessage {
            rumor: Rumor::new(ProcessId(0), 0),
        };
        let bytes = inner.encode();
        assert!(matches!(
            peel_epoch_header(&bytes),
            Err(CodecError::BadKind(k)) if k == kind::TRIVIAL
        ));
        assert!(matches!(peel_epoch_header(&[]), Err(CodecError::Truncated)));
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let msg = EpochMsg {
            epoch: 5,
            inner: TrivialMessage {
                rumor: Rumor::new(ProcessId(1), 2),
            },
        };
        let bytes = msg.encode();
        for len in 0..bytes.len() {
            assert!(EpochMsg::<TrivialMessage>::decode(&bytes[..len]).is_err());
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            EpochMsg::<TrivialMessage>::decode(&trailing),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn workload_generator_is_deterministic_and_epoch_distinct() {
        let a = epoch_rumor(42, 0, ProcessId(3));
        let b = epoch_rumor(42, 0, ProcessId(3));
        assert_eq!(a, b);
        assert_ne!(
            epoch_rumor(42, 0, ProcessId(3)).payload,
            epoch_rumor(42, 1, ProcessId(3)).payload
        );
        assert_ne!(
            epoch_rumor(42, 0, ProcessId(3)).payload,
            epoch_rumor(43, 0, ProcessId(3)).payload
        );
        let slate = epoch_initial_rumors(7, 4, 16);
        assert_eq!(slate.len(), 16);
        for (i, rumor) in slate.iter().enumerate() {
            assert_eq!(rumor.origin, ProcessId(i));
        }
    }

    #[test]
    fn open_upto_respects_window_and_total() {
        // Closed loop: frontier tracks finalized + in_flight, capped.
        assert_eq!(
            service_open_upto(LoopMode::Closed { in_flight: 4 }, 8, 100, 0, 0),
            4
        );
        assert_eq!(
            service_open_upto(LoopMode::Closed { in_flight: 4 }, 8, 100, 50, 10),
            14
        );
        assert_eq!(
            service_open_upto(LoopMode::Closed { in_flight: 16 }, 8, 100, 0, 0),
            8
        );
        assert_eq!(
            service_open_upto(LoopMode::Closed { in_flight: 4 }, 8, 3, 0, 0),
            3
        );
        // Open loop: frontier tracks time, capped by the window.
        assert_eq!(
            service_open_upto(LoopMode::Open { period: 10 }, 8, 100, 0, 0),
            1
        );
        assert_eq!(
            service_open_upto(LoopMode::Open { period: 10 }, 8, 100, 35, 2),
            4
        );
        assert_eq!(
            service_open_upto(LoopMode::Open { period: 1 }, 8, 100, 50, 2),
            10
        );
    }

    #[test]
    fn open_upto_is_monotone_in_time_and_finalized() {
        for mode in [
            LoopMode::Open { period: 3 },
            LoopMode::Closed { in_flight: 5 },
        ] {
            let mut prev = 0;
            let mut finalized = 0;
            for now in 0..200u64 {
                if now % 7 == 0 && finalized + 2 < prev {
                    finalized += 1;
                }
                let upto = service_open_upto(mode, 8, 64, now, finalized);
                assert!(upto >= prev, "frontier went backwards under {mode:?}");
                prev = upto;
            }
        }
    }

    /// Drives a tiny 3-process service entirely by hand: open two epochs,
    /// exchange messages until quiet, harvest, and check the board GC'd.
    #[test]
    fn mux_lifecycle_open_step_harvest() {
        let n = 3;
        let board = Arc::new(EpochBoard::new(4));
        let mut muxes: Vec<_> = (0..n)
            .map(|p| {
                EpochMux::new(board.clone(), ProcessId(p), n, 0, 99, |ctx: GossipCtx| {
                    Trivial::new(ctx)
                })
            })
            .collect();

        board.publish_open_upto(2);
        let mut inboxes: Vec<Vec<(ProcessId, EpochMsg<TrivialMessage>)>> =
            (0..n).map(|_| Vec::new()).collect();
        for tick in 0..50u64 {
            board.set_now(tick);
            let mut quiet = true;
            for p in 0..n {
                let mux = &mut muxes[p];
                let pending = std::mem::take(&mut inboxes[p]);
                for (from, msg) in pending {
                    mux.deliver(from, msg);
                }
                let mut out = Vec::new();
                mux.local_step(&mut out);
                quiet &= out.is_empty();
                for (to, msg) in out {
                    inboxes[to.index()].push((ProcessId(p), msg));
                }
            }
            if quiet && inboxes.iter().all(|i| i.is_empty()) {
                break;
            }
        }
        for mux in &muxes {
            assert_eq!(mux.open_epochs(), vec![0, 1]);
            assert!(mux.is_quiescent());
        }

        // Harvest epoch 0 out of slot 0.
        board.request_harvest(0, 0);
        for mux in &mut muxes {
            let mut out = Vec::new();
            mux.local_step(&mut out);
            assert!(out.is_empty());
            assert_eq!(mux.open_epochs(), vec![1], "engine dropped after harvest");
        }
        let harvest = board.take_harvest(0);
        assert_eq!(harvest.len(), n);
        for (pid, set) in &harvest {
            assert_eq!(set.len(), n, "gossip completed for pid {pid:?}");
            for p in 0..n {
                assert!(set.contains_origin(ProcessId(p)));
            }
            let expected = epoch_rumor(99, 0, *pid);
            assert!(set.iter().any(|r| r == expected));
        }
        assert_eq!(board.harvest_request(0), None, "request cleared on take");
    }

    /// Stale frames (below the finalized floor) are absorbed, not errors.
    #[test]
    fn stale_frames_are_absorbed() {
        let board = Arc::new(EpochBoard::new(2));
        let mut mux = EpochMux::new(board.clone(), ProcessId(0), 2, 0, 1, |ctx: GossipCtx| {
            Ears::new(ctx)
        });
        board.publish_open_upto(4);
        board.set_finalized_floor(2);
        let mut out = Vec::new();
        mux.local_step(&mut out);
        assert_eq!(mux.open_epochs(), vec![2, 3]);

        let stale = EpochMsg {
            epoch: 1,
            inner: EarsMessage {
                rumors: Arc::new(RumorSet::new()),
                informed: Arc::new(InformedList::new()),
            },
        };
        mux.deliver(ProcessId(1), stale.clone());
        assert_eq!(board.stale_drops(), 1);
        let frames = vec![(ProcessId(1), stale.encode())];
        assert_eq!(
            mux.deliver_encoded(&frames),
            0,
            "stale is not a decode error"
        );
        assert_eq!(board.stale_drops(), 2);
    }
}
