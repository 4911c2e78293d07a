//! Timing wrappers over the public traits of each layer.
//!
//! * [`Timed<G>`] implements [`GossipEngine`] around any engine `G`, with
//!   `type Msg = G::Msg`, and delegates `deliver`, `deliver_encoded` and
//!   `local_step`, so the batched borrowed-view delivery path is the one
//!   measured.
//! * [`TimedTransport<T>`] implements [`Transport`]/[`Endpoint`] around any
//!   transport and delegates `send_shared`, so the shared-body fast path is
//!   preserved.
//! * [`TimedAdversary<A>`] implements the simulator's [`Adversary`].
//!
//! A wrapper counts into plain fields of its own and folds them into its
//! shared sink once, when it is dropped: the hot path takes two clock reads
//! and no atomic, lock or shared cache line. Counters are kept per *lane*
//! (thread): the reactor pins process `p` to thread `p mod reactors`, so a
//! wrapper derives its lane from its process id.
//!
//! The two calls the simulator makes once per message — `deliver` of a single
//! typed message and the adversary's `message_delay` — cost about as much as
//! the clock reads around them, so only every [`TIME_ONE_IN`]-th such call is
//! timed and the sum is scaled by calls ÷ timed calls; every call is counted.
//! Batched and per-step calls are all timed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use agossip_core::{EncodedFrame, GossipEngine, RumorSet, WireCodec};
use agossip_runtime::{Endpoint, RawFrame, RuntimeError, SendOutcome, Transport};
use agossip_sim::{Adversary, EnvelopeMeta, ProcessId, StepPlan, SystemView};

/// Per-message calls are timed once in this many (see the module docs).
pub const TIME_ONE_IN: u64 = 8;

/// Busy time of the per-message calls of one wrapper: every call counted,
/// one in [`TIME_ONE_IN`] timed.
#[derive(Debug, Clone, Copy, Default)]
struct Sampled {
    calls: u64,
    timed_calls: u64,
    timed_ns: u64,
}

impl Sampled {
    /// Runs `call`, timing it if it is this counter's turn.
    fn run<R>(&mut self, call: impl FnOnce() -> R) -> R {
        let turn = self.calls.is_multiple_of(TIME_ONE_IN);
        self.calls += 1;
        if !turn {
            return call();
        }
        let start = Instant::now();
        let result = call();
        self.timed_ns += ns_since(start);
        self.timed_calls += 1;
        result
    }

    /// The timed sum scaled up to all calls.
    fn estimate_ns(&self) -> u64 {
        match self.timed_calls {
            0 => 0,
            timed => {
                let scaled = u128::from(self.timed_ns) * u128::from(self.calls) / u128::from(timed);
                u64::try_from(scaled).unwrap_or(u64::MAX)
            }
        }
    }
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .expect("a sink mutex is only held for a push; a poisoned one means a wrapper panicked")
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Engine counters of one lane, or of one wrapper before it is folded in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Busy ns inside `local_step`.
    pub step_ns: u64,
    /// `local_step` calls.
    pub step_calls: u64,
    /// Busy ns inside `deliver` / `deliver_encoded`.
    pub deliver_ns: u64,
    /// `deliver` / `deliver_encoded` calls (one per batch).
    pub deliver_calls: u64,
    /// Messages or encoded frames handed to those calls.
    pub deliver_frames: u64,
    /// Frames `deliver_encoded` reported as undecodable.
    pub decode_errors: u64,
}

impl EngineCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &EngineCounts) {
        self.step_ns += other.step_ns;
        self.step_calls += other.step_calls;
        self.deliver_ns += other.deliver_ns;
        self.deliver_calls += other.deliver_calls;
        self.deliver_frames += other.deliver_frames;
        self.decode_errors += other.decode_errors;
    }
}

/// Most messages kept for the codec probes; when the buffer fills, every
/// other sample is dropped and the sampling stride doubles, so the kept
/// messages stay an even sample of everything sent.
const SAMPLE_CAP: usize = 64;

/// The first sampling stride: one message in this many.
const FIRST_STRIDE: u64 = 16;

/// Final rumor sets kept for the union probes.
const FINAL_SETS_KEPT: usize = 8;

struct Samples<M> {
    kept: Vec<M>,
    stride: u64,
}

/// Where the [`Timed`] engines of one trial fold their counters, and where
/// they leave a sample of the messages they sent (captured from
/// `local_step`'s `out`) and of their final rumor sets, for the probes that
/// replay them after the trial.
pub struct EngineSink<M> {
    lanes: Vec<Mutex<EngineCounts>>,
    sent: AtomicU64,
    stride: AtomicU64,
    samples: Mutex<Samples<M>>,
    final_sets: Mutex<Vec<RumorSet>>,
}

impl<M> EngineSink<M> {
    /// A sink with one counter lane per thread.
    pub fn new(lanes: usize) -> Arc<Self> {
        Arc::new(EngineSink {
            lanes: (0..lanes.max(1)).map(|_| Mutex::default()).collect(),
            sent: AtomicU64::new(0),
            stride: AtomicU64::new(FIRST_STRIDE),
            samples: Mutex::new(Samples {
                kept: Vec::new(),
                stride: FIRST_STRIDE,
            }),
            final_sets: Mutex::new(Vec::new()),
        })
    }

    /// The folded counters of each lane.
    pub fn lanes(&self) -> Vec<EngineCounts> {
        self.lanes.iter().map(|lane| *lock(lane)).collect()
    }

    /// The folded counters of all lanes together.
    pub fn total(&self) -> EngineCounts {
        let mut total = EngineCounts::default();
        for lane in self.lanes() {
            total.add(&lane);
        }
        total
    }

    /// Takes the sampled messages.
    pub fn take_samples(&self) -> Vec<M> {
        std::mem::take(&mut lock(&self.samples).kept)
    }

    /// Takes the sampled final rumor sets.
    pub fn take_final_sets(&self) -> Vec<RumorSet> {
        std::mem::take(&mut lock(&self.final_sets))
    }
}

impl<M: Clone> EngineSink<M> {
    /// Offers the `fresh` messages a `local_step` just produced; keeps the
    /// ones whose global send index falls on the current stride.
    fn offer<T>(&self, fresh: &[(T, M)]) {
        let first = self.sent.fetch_add(fresh.len() as u64, Ordering::Relaxed);
        let stride = self.stride.load(Ordering::Relaxed);
        // Offset into `fresh` of the first send index on the stride.
        let Ok(skip) = usize::try_from(first.next_multiple_of(stride) - first) else {
            return;
        };
        if skip >= fresh.len() {
            return;
        }
        let step = usize::try_from(stride).unwrap_or(usize::MAX);
        let mut samples = lock(&self.samples);
        for (_, msg) in fresh.iter().skip(skip).step_by(step) {
            samples.kept.push(msg.clone());
        }
        while samples.kept.len() >= SAMPLE_CAP {
            let mut keep = false;
            samples.kept.retain(|_| {
                keep = !keep;
                keep
            });
            samples.stride *= 2;
        }
        self.stride.store(samples.stride, Ordering::Relaxed);
    }
}

/// A [`GossipEngine`] that times the engine it wraps.
pub struct Timed<G: GossipEngine> {
    inner: G,
    sink: Arc<EngineSink<G::Msg>>,
    lane: usize,
    counts: EngineCounts,
    /// Single-message `deliver` calls (the batched ones go to `counts`).
    singles: Sampled,
}

impl<G: GossipEngine> Timed<G> {
    /// Wraps `inner`; its counters fold into lane `pid mod lanes` of `sink`.
    pub fn new(inner: G, sink: Arc<EngineSink<G::Msg>>) -> Self {
        let lane = inner.pid().index() % sink.lanes.len();
        Timed {
            inner,
            sink,
            lane,
            counts: EngineCounts::default(),
            singles: Sampled::default(),
        }
    }
}

impl<G: GossipEngine> Drop for Timed<G> {
    fn drop(&mut self) {
        self.counts.deliver_ns += self.singles.estimate_ns();
        self.counts.deliver_calls += self.singles.calls;
        self.counts.deliver_frames += self.singles.calls;
        // Never panics: a poisoned sink (another wrapper panicked) is
        // skipped, and the harness notices the missing counts.
        if let Ok(mut lane) = self.sink.lanes[self.lane].lock() {
            lane.add(&self.counts);
        }
        if let Ok(mut sets) = self.sink.final_sets.lock() {
            if sets.len() < FINAL_SETS_KEPT {
                sets.push(self.inner.rumors().clone());
            }
        }
    }
}

impl<G: GossipEngine> GossipEngine for Timed<G> {
    type Msg = G::Msg;

    fn deliver(&mut self, from: ProcessId, msg: Self::Msg) {
        let inner = &mut self.inner;
        self.singles.run(|| inner.deliver(from, msg));
    }

    fn deliver_encoded<F: EncodedFrame>(&mut self, frames: &[F]) -> usize
    where
        Self::Msg: WireCodec,
    {
        let start = Instant::now();
        let errors = self.inner.deliver_encoded(frames);
        self.counts.deliver_ns += ns_since(start);
        self.counts.deliver_calls += 1;
        self.counts.deliver_frames += frames.len() as u64;
        self.counts.decode_errors += errors as u64;
        errors
    }

    fn local_step(&mut self, out: &mut Vec<(ProcessId, Self::Msg)>) {
        let before = out.len();
        let start = Instant::now();
        self.inner.local_step(out);
        self.counts.step_ns += ns_since(start);
        self.counts.step_calls += 1;
        if out.len() > before {
            self.sink.offer(&out[before..]);
        }
    }

    fn pid(&self) -> ProcessId {
        self.inner.pid()
    }

    fn rumors(&self) -> &RumorSet {
        self.inner.rumors()
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }

    fn steps_taken(&self) -> u64 {
        self.inner.steps_taken()
    }

    fn msg_units(msg: &Self::Msg) -> u64 {
        G::msg_units(msg)
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// Transport counters of one lane, or of one endpoint before it is folded
/// in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportCounts {
    /// Busy ns inside `send` / `send_shared` (opportunistic flushes
    /// included).
    pub send_ns: u64,
    /// `send` / `send_shared` calls.
    pub send_calls: u64,
    /// Busy ns inside `poll_into`.
    pub poll_ns: u64,
    /// `poll_into` calls.
    pub poll_calls: u64,
    /// `poll_into` calls that returned no frame.
    pub poll_empty: u64,
    /// Busy ns inside `flush`.
    pub flush_ns: u64,
    /// `flush` calls.
    pub flush_calls: u64,
    /// Frames reported lost by `send` or `flush`.
    pub frames_lost: u64,
}

impl TransportCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &TransportCounts) {
        self.send_ns += other.send_ns;
        self.send_calls += other.send_calls;
        self.poll_ns += other.poll_ns;
        self.poll_calls += other.poll_calls;
        self.poll_empty += other.poll_empty;
        self.flush_ns += other.flush_ns;
        self.flush_calls += other.flush_calls;
        self.frames_lost += other.frames_lost;
    }
}

/// Where the endpoints of one trial fold their counters.
#[derive(Debug)]
pub struct TransportSink {
    lanes: Vec<Mutex<TransportCounts>>,
    open_ns: AtomicU64,
}

impl TransportSink {
    /// A sink with one counter lane per thread.
    pub fn new(lanes: usize) -> Arc<Self> {
        Arc::new(TransportSink {
            lanes: (0..lanes.max(1)).map(|_| Mutex::default()).collect(),
            open_ns: AtomicU64::new(0),
        })
    }

    /// The folded counters of each lane.
    pub fn lanes(&self) -> Vec<TransportCounts> {
        self.lanes.iter().map(|lane| *lock(lane)).collect()
    }

    /// The folded counters of all lanes together.
    #[cfg(test)]
    pub fn total(&self) -> TransportCounts {
        let mut total = TransportCounts::default();
        for lane in self.lanes() {
            total.add(&lane);
        }
        total
    }

    /// Busy ns inside `Transport::open` (on the calling thread).
    pub fn open_ns(&self) -> u64 {
        self.open_ns.load(Ordering::Relaxed)
    }
}

/// A [`Transport`] that times the transport it wraps.
pub struct TimedTransport<T> {
    inner: T,
    sink: Arc<TransportSink>,
}

impl<T> TimedTransport<T> {
    /// Wraps `inner`; its endpoints fold into `sink`.
    pub fn new(inner: T, sink: Arc<TransportSink>) -> Self {
        TimedTransport { inner, sink }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    type Endpoint = TimedEndpoint<T::Endpoint>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn open(&self, n: usize) -> Result<Vec<Self::Endpoint>, RuntimeError> {
        let start = Instant::now();
        let endpoints = self.inner.open(n);
        self.sink
            .open_ns
            .fetch_add(ns_since(start), Ordering::Relaxed);
        Ok(endpoints?
            .into_iter()
            .map(|inner| TimedEndpoint {
                lane: inner.pid().index() % self.sink.lanes.len(),
                inner,
                sink: Arc::clone(&self.sink),
                counts: TransportCounts::default(),
            })
            .collect())
    }
}

/// An [`Endpoint`] that times the endpoint it wraps.
pub struct TimedEndpoint<E> {
    inner: E,
    sink: Arc<TransportSink>,
    lane: usize,
    counts: TransportCounts,
}

impl<E> TimedEndpoint<E> {
    fn sent(&mut self, start: Instant, outcome: &Result<SendOutcome, RuntimeError>) {
        self.counts.send_ns += ns_since(start);
        self.counts.send_calls += 1;
        if matches!(outcome, Ok(SendOutcome::Lost)) {
            self.counts.frames_lost += 1;
        }
    }
}

impl<E> Drop for TimedEndpoint<E> {
    fn drop(&mut self) {
        if let Ok(mut lane) = self.sink.lanes[self.lane].lock() {
            lane.add(&self.counts);
        }
    }
}

impl<E: Endpoint> Endpoint for TimedEndpoint<E> {
    fn pid(&self) -> ProcessId {
        self.inner.pid()
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) -> Result<SendOutcome, RuntimeError> {
        let start = Instant::now();
        let outcome = self.inner.send(to, payload);
        self.sent(start, &outcome);
        outcome
    }

    fn send_shared(
        &mut self,
        to: ProcessId,
        head: &[u8],
        body: &Arc<[u8]>,
    ) -> Result<SendOutcome, RuntimeError> {
        let start = Instant::now();
        let outcome = self.inner.send_shared(to, head, body);
        self.sent(start, &outcome);
        outcome
    }

    fn poll_into(&mut self, out: &mut Vec<RawFrame>) -> Result<(), RuntimeError> {
        let before = out.len();
        let start = Instant::now();
        let result = self.inner.poll_into(out);
        self.counts.poll_ns += ns_since(start);
        self.counts.poll_calls += 1;
        if out.len() == before {
            self.counts.poll_empty += 1;
        }
        result
    }

    fn flush(&mut self) -> Result<u64, RuntimeError> {
        let start = Instant::now();
        let result = self.inner.flush();
        self.counts.flush_ns += ns_since(start);
        self.counts.flush_calls += 1;
        if let Ok(lost) = result {
            self.counts.frames_lost += lost;
        }
        result
    }
}

// ---------------------------------------------------------------------------
// Adversary
// ---------------------------------------------------------------------------

/// An [`Adversary`] that times the adversary it wraps. The caller keeps
/// ownership (the simulator borrows it), so the counters are plain fields.
#[derive(Debug)]
pub struct TimedAdversary<A> {
    inner: A,
    /// Busy ns inside `plan_step`.
    pub plan_ns: u64,
    /// `plan_step` calls.
    pub plan_calls: u64,
    delays: Sampled,
}

impl<A> TimedAdversary<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        TimedAdversary {
            inner,
            plan_ns: 0,
            plan_calls: 0,
            delays: Sampled::default(),
        }
    }

    /// Busy ns inside `message_delay` (scaled from the timed calls).
    pub fn delay_ns(&self) -> u64 {
        self.delays.estimate_ns()
    }

    /// `message_delay` calls.
    pub fn delay_calls(&self) -> u64 {
        self.delays.calls
    }
}

impl<A: Adversary> Adversary for TimedAdversary<A> {
    fn plan_step(&mut self, view: &SystemView<'_>) -> StepPlan {
        let start = Instant::now();
        let plan = self.inner.plan_step(view);
        self.plan_ns += ns_since(start);
        self.plan_calls += 1;
        plan
    }

    fn message_delay(&mut self, meta: &EnvelopeMeta, view: &SystemView<'_>) -> u64 {
        let inner = &mut self.inner;
        self.delays.run(|| inner.message_delay(meta, view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_counts_every_call_and_scales_the_timed_ones() {
        let mut sampled = Sampled::default();
        let mut ran = 0;
        for _ in 0..(3 * TIME_ONE_IN + 1) {
            sampled.run(|| ran += 1);
        }
        assert_eq!(ran, 3 * TIME_ONE_IN + 1);
        assert_eq!(sampled.calls, 3 * TIME_ONE_IN + 1);
        // The first call of every stride is the timed one.
        assert_eq!(sampled.timed_calls, 4);
        let scaled = Sampled {
            calls: 80,
            timed_calls: 10,
            timed_ns: 1_000,
        };
        assert_eq!(scaled.estimate_ns(), 8_000);
        assert_eq!(Sampled::default().estimate_ns(), 0);
    }
}
