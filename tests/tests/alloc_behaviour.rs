//! Allocation-counting regression test for the copy-on-write broadcast
//! payloads.
//!
//! Before the `Arc` snapshot rework, every `tears` broadcast deep-cloned a
//! full rumor map *per destination*, so a trial allocated
//! O(messages × rumor-set size) — with at least one heap allocation per
//! point-to-point message. With shared snapshots a broadcast allocates one
//! payload regardless of the neighbourhood size, so whole-trial allocations
//! are a small fraction of the message count. This test pins that property
//! with a counting global allocator: a regression back to per-destination
//! deep clones trips the assertion by an order of magnitude.
//!
//! A second test pins the *scale* regression this counter exists to catch:
//! an early-phase `tears` step at `n = 65 536` must allocate in proportion
//! to what the process has actually heard (O(informed)), not to the system
//! size (a single accidental densification costs `n/8` bytes and would
//! multiply across 65 536 processes into gigabytes).
//!
//! The tests share one global allocation counter, so they serialise on
//! [`ALLOC_WINDOW`]: only one measurement window is open at a time.

// The counting allocator is the one place in the workspace that needs
// `unsafe`: `GlobalAlloc` is an unsafe trait. The workspace-level
// `unsafe_code = "deny"` lint is relaxed for this test crate only.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use std::sync::Arc;

use agossip_adversary::ObliviousPlan;
use agossip_analysis::experiments::scale::{
    scale_a_target, scale_tears_params, tears_params_for_a,
};
use agossip_analysis::experiments::{ExperimentScale, GossipProtocolKind};
use agossip_analysis::{ScenarioSpec, TrialProtocol};
use agossip_consensus::{ConsensusCtx, ConsensusProcess};
use agossip_core::{
    run_gossip, GossipCtx, GossipEngine, GossipSpec, LoopMode, Rumor, RumorSet, Tears, TearsFlag,
    TearsMessage, Trivial,
};
use agossip_runtime::{
    run_live, run_service, ChannelTransport, LiveConfig, Pacing, ServiceConfig, Threading,
    Transport,
};
use agossip_sim::{Envelope, Network, Outbox, Process, ProcessId, SimConfig, TimeStep};

/// Forwards to the system allocator, counting every allocation call and the
/// bytes it requested.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes currently live (allocated minus freed). Signed: memory allocated
/// before the counter existed may be freed under it.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE_BYTES`] since the last window reset.
static PEAK_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Raises the live-bytes count by `delta` and folds it into the peak.
fn track_live(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

thread_local! {
    /// Allocation calls made by this thread alone: what an exact count needs,
    /// since other tests allocate outside their windows while one is open.
    /// Const-initialized and without a destructor, so touching it from the
    /// allocator neither allocates nor outlives the thread's storage.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Held for the duration of each test's measurement window so the counters
/// only ever observe one workload at a time.
static ALLOC_WINDOW: Mutex<()> = Mutex::new(());

// SAFETY: delegates verbatim to `System`, which upholds the `GlobalAlloc`
// contract; the added atomic counters have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        THREAD_ALLOCATIONS.with(|count| count.set(count.get() + 1));
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        track_live(layout.size() as i64);
        // SAFETY: `layout` is the caller's layout, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track_live(-(layout.size() as i64));
        // SAFETY: `ptr` was allocated by `System::alloc` above with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        THREAD_ALLOCATIONS.with(|count| count.set(count.get() + 1));
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        track_live(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged; `ptr`/`layout` come from this
        // allocator and `new_size` is the caller's request.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn tears_trial_allocates_per_broadcast_not_per_destination() {
    // The canonical allocation workload: one tears n = 64 majority-gossip
    // trial under the reference oblivious adversary.
    let cfg = SimConfig::new(64, 0).with_d(2).with_delta(2).with_seed(9);
    let mut adv = ObliviousPlan::from_config(&cfg).build();

    let window = ALLOC_WINDOW.lock().unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run_gossip(&cfg, GossipSpec::Majority, &mut adv, Tears::new).unwrap();
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(window);

    assert!(report.check.all_ok(), "{:?}", report.check);
    let messages = report.metrics.messages_sent;
    assert!(
        messages > 10_000,
        "the workload must be broadcast-heavy to be meaningful, got {messages} messages"
    );

    eprintln!("allocations: {during}, messages: {messages}");

    // With per-destination deep clones every message costs at least one
    // allocation (a ~64-rumor tree costs several), so `during` would exceed
    // `messages`. With shared snapshots, allocations track broadcasts plus
    // engine bookkeeping — well under one per message. The factor 4 leaves
    // headroom for allocator noise while still failing hard on a regression.
    assert!(
        during < messages / 4,
        "a tears n=64 trial should allocate O(broadcasts), not O(messages): \
         {during} allocations for {messages} messages"
    );
}

#[test]
fn tears_n128_trial_allocates_nothing_per_deliver() {
    // The density-rule pin: at n = 128 the universe is two machine words, so
    // every rumor set is dense from its first rumor and a delivery — a
    // superset test, at most a word-wise OR — allocates nothing. What a
    // whole trial allocates is then engine construction, the scheduler's
    // queues and one buffer per broadcast: a few thousand allocations for
    // two million deliveries. Sets held as sorted entry lists instead
    // reallocate as they grow and merge, several times that.
    let scale = ExperimentScale::default();
    let kind = TrialProtocol::Gossip(GossipProtocolKind::Tears);
    let spec = ScenarioSpec::from_scale(kind, &scale, 128);

    // The same on one engine, exactly: once its set spans both words, 126
    // first-level messages that each bring a new rumor allocate nothing.
    let mut engine = Tears::new(GossipCtx::new(ProcessId(0), 128, 32, 2008));
    let up = |i: usize| TearsMessage {
        rumors: Arc::new(RumorSet::singleton(Rumor::new(ProcessId(i), i as u64))),
        flag: TearsFlag::Up,
    };
    engine.deliver(ProcessId(127), up(127));
    let incoming: Vec<(ProcessId, TearsMessage)> =
        (1..127).map(|i| (ProcessId(i), up(i))).collect();

    // The window keeps this trial's memory out of the other tests' global
    // counts; both measurements run on this thread, so the per-thread count
    // is exact whatever those tests do outside their own windows.
    let window = ALLOC_WINDOW.lock().unwrap();
    let before = THREAD_ALLOCATIONS.get();
    for (from, msg) in incoming {
        engine.deliver(from, msg);
    }
    let per_deliver = THREAD_ALLOCATIONS.get() - before;
    let before = THREAD_ALLOCATIONS.get();
    let report = spec.run_trial(0).unwrap();
    let trial = THREAD_ALLOCATIONS.get() - before;
    drop(window);

    assert_eq!(engine.rumors().len(), 128);
    assert_eq!(
        per_deliver, 0,
        "a delivery over two words must not allocate"
    );
    assert!(report.ok);
    let messages = report.messages;
    assert!(messages > 2_000_000, "got {messages} messages");

    eprintln!("allocations: {trial}, messages: {messages}");

    // Measured 5 248 (the simulator is deterministic, so the count
    // repeats); the same trial on entry-list sets measured 19 619.
    assert!(
        trial < messages / 256,
        "a tears n=128 trial should allocate O(n + broadcasts), nothing per \
         deliver: {trial} allocations for {messages} messages"
    );
}

#[test]
fn partial_network_collection_allocates_nothing_beyond_out() {
    // The in-place pin: a collection moves the due envelopes into `out` and
    // closes the gaps they leave in the destination's list — no side buffer,
    // no rebuilt queue. So with room in `out`, a pass that takes every other
    // message and keeps the rest allocates exactly nothing.
    let to = ProcessId(1);
    let window = ALLOC_WINDOW.lock().unwrap();
    let mut network: Network<u64> = Network::new(2);
    for payload in 0..1024u64 {
        let env = Envelope {
            from: ProcessId(0),
            to,
            sent_at: TimeStep::ZERO,
            payload,
        };
        network.send(env, 1 + payload % 2);
    }
    let mut out = Vec::with_capacity(512);
    let before = THREAD_ALLOCATIONS.get();
    network.collect_deliverable_into(to, TimeStep(1), &mut out);
    let during = THREAD_ALLOCATIONS.get() - before;
    drop(window);

    assert_eq!(out.len(), 512);
    assert_eq!(network.pending_for(to), 512);
    assert_eq!(during, 0, "a partial collection must not allocate");
}

#[test]
fn reactor_lockstep_run_allocates_amortized_zero_per_frame() {
    // The hot-path-squeeze pin: in reactor steady state every frame rides
    // reused scratch. The encode buffer, the per-send head stamp, the due
    // batch and the poll vector are all reused across ticks; a broadcast
    // body is one shared `Arc<[u8]>` cloned per destination (a refcount
    // bump, not an allocation); received bodies stay encoded in that shared
    // allocation until their tick, and delivery folds the whole batch with
    // at most one copy-on-write per set. What remains is O(broadcasts +
    // ticks) bookkeeping — amortized zero per point-to-point frame. A
    // regression anywhere on the path (a per-destination body clone, an
    // owned decode per message, a per-frame scratch Vec) costs at least one
    // allocation per frame and trips the assertion by an order of
    // magnitude.
    let crashes: Vec<(ProcessId, u64)> = (0..16)
        .map(|i| (ProcessId(255 - i), (i % 4) as u64))
        .collect();
    let mut config = LiveConfig::lockstep(256, 16, 0xD1CE_2008).with_crashes(crashes);
    config.threading = Threading::Reactor { reactors: 8 };
    let params = tears_params_for_a(config.n, scale_a_target(config.n));

    let window = ALLOC_WINDOW.lock().unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run_live(&config, &ChannelTransport, move |ctx| {
        Tears::with_params(ctx, params)
    })
    .unwrap();
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(window);

    assert!(report.quiescent);
    assert_eq!(report.decode_errors, 0);
    let frames = report.messages_sent;
    assert!(
        frames > 20_000,
        "the workload must be frame-heavy to be meaningful, got {frames} frames"
    );

    eprintln!("allocations: {during}, frames: {frames}");

    // The whole run — setup and teardown of 256 engines, channel wiring,
    // checker inputs — is inside the window, so the bound is not zero: the
    // fixed Θ(n) cost measures ~8.3k allocations and the frame-dependent
    // remainder ~0.17 per frame (mpsc block allocations, one `Arc<[u8]>`
    // per distinct broadcast, set growth), ~12.4k in total. The lockstep
    // runtime is deterministic, so the count is exact across repeats; half
    // an allocation per frame is a true upper bound today, while the
    // cheapest possible per-frame regression (one allocation each) adds
    // `frames` on top and overshoots the bound threefold.
    assert!(
        during < frames / 2,
        "a reactor lockstep run should allocate O(n + broadcasts), not \
         O(frames): {during} allocations for {frames} frames"
    );
}

#[test]
fn channel_mesh_holds_o_n_live_bytes_not_n_squared() {
    // The clique is n queues plus ONE table of n senders shared by every
    // endpoint. A table per endpoint is n² handles — 8 MiB at n = 1 024,
    // 128 MiB of the live n = 4 096 run's peak RSS — for nothing: every
    // table holds the same n senders.
    const N: usize = 1024;
    let window = ALLOC_WINDOW.lock().unwrap();
    let floor = LIVE_BYTES.load(Ordering::Relaxed);
    let endpoints = ChannelTransport.open(N).unwrap();
    let held = LIVE_BYTES.load(Ordering::Relaxed) - floor;
    drop(window);

    assert_eq!(endpoints.len(), N);
    eprintln!("live bytes held by a {N}-endpoint channel mesh: {held}");

    // Measured: 120 bytes per process (queue, counters, table slot,
    // endpoint). 1 KiB each leaves room for what other tests allocate
    // outside their windows and still sits 8× below the per-endpoint tables.
    assert!(
        held < (N * 1024) as i64,
        "opening {N} channel endpoints must hold O(n) bytes, got {held} \
         (a sender table per endpoint is {} bytes)",
        N * N * 8
    );
}

#[test]
fn early_phase_tears_step_at_n_65536_allocates_o_informed_not_theta_n() {
    // The regression the adaptive sparse/dense representation exists to
    // prevent: before the µ−κ trigger threshold a process has heard only a
    // handful of rumors, so delivering those rumors and taking a local step
    // must cost O(informed) bytes. A single accidental densification (or any
    // other Θ(n) allocation on this path) costs at least `n/8` bytes for the
    // origin bitset alone — across 65 536 processes that is the difference
    // between megabytes and gigabytes for the early phase of a scale run.
    const N: usize = 65_536;
    let params = scale_tears_params(N);
    // Construction is Θ(n) by definition (two Bernoulli draws per peer) and
    // happens outside the measured window, as does building the incoming
    // messages.
    let mut engine = Tears::with_params(GossipCtx::new(ProcessId(7), N, N / 4, 2008), params);
    let informed = usize::try_from((engine.mu() - engine.kappa()) / 2).unwrap();
    assert!(
        informed > 0 && engine.is_trigger_count(informed as u64).eq(&false),
        "the workload must stay below the second-level trigger window"
    );
    // Origins start at 100 so none collides with the engine's own pid.
    let incoming: Vec<(ProcessId, TearsMessage)> = (100..100 + informed)
        .map(|i| {
            let msg = TearsMessage {
                rumors: Arc::new(RumorSet::singleton(Rumor::new(ProcessId(i), i as u64))),
                flag: TearsFlag::Up,
            };
            (ProcessId(i), msg)
        })
        .collect();
    let mut out = Vec::new();

    let window = ALLOC_WINDOW.lock().unwrap();
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    for (from, msg) in incoming {
        engine.deliver(from, msg);
    }
    engine.local_step(&mut out);
    let during = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    drop(window);

    // Sanity: the workload did what it claims — the rumors arrived and the
    // step sent the first-level broadcast to the Θ(a)-sized neighbourhood.
    assert_eq!(engine.rumors().len(), informed + 1);
    assert_eq!(out.len(), engine.pi1().len());
    assert!(!out.is_empty());

    eprintln!("bytes allocated: {during}, informed: {informed}, n: {N}");

    // O(informed) here means a few hundred bytes of sparse-set growth plus
    // the ~a-element broadcast buffer. The threshold sits well above that
    // but below `n/8` — the cheapest possible Θ(n) allocation — so the
    // assertion is robust to allocator noise yet cannot miss a
    // densification.
    assert!(
        during < (N / 16) as u64,
        "an early-phase tears step at n = {N} must allocate O(informed) \
         bytes, got {during} (Θ(n) would be ≥ {})",
        N / 8
    );
}

#[test]
fn service_epoch_gc_keeps_live_state_o_window_not_o_epochs() {
    // The epoch-GC pin: a service run streams epochs through a fixed-size
    // slot ring, freeing each epoch's engines, harvest, and in-flight
    // frames when it finalizes. Live state must therefore be bounded by the
    // *window*, not by how many epochs the log has pushed through — a
    // 16×-longer run may not raise the live-bytes high-water mark by more
    // than the finalized-epoch ledger it legitimately accumulates (one
    // ~100-byte outcome record per epoch, dwarfed by a single open epoch's
    // engines). A GC regression — slots never reclaimed, per-epoch engines
    // retained past finalization — multiplies peak live bytes by the epoch
    // ratio and trips the assertion by an order of magnitude.
    let config = |epochs: u64| {
        let live = LiveConfig::builder(16, 0, 0xEC0_2008)
            .pacing(Pacing::Lockstep {
                d: 2,
                max_ticks: 1 << 20,
            })
            .reactors(1)
            .build()
            .unwrap();
        ServiceConfig::new(live, epochs)
            .with_window(4)
            .with_mode(LoopMode::Closed { in_flight: 2 })
    };
    let short_cfg = config(16);
    let long_cfg = config(256);

    // Both runs measure under one lock hold: identical ambient noise, no
    // interleaving between the two windows.
    let window = ALLOC_WINDOW.lock().unwrap();
    let measure = |cfg: &ServiceConfig| {
        let floor = LIVE_BYTES.load(Ordering::Relaxed);
        PEAK_LIVE_BYTES.store(floor, Ordering::Relaxed);
        let report = run_service(cfg, &ChannelTransport, Trivial::new).unwrap();
        let peak = (PEAK_LIVE_BYTES.load(Ordering::Relaxed) - floor).max(1) as u64;
        (report, peak)
    };
    let (short_report, short_peak) = measure(&short_cfg);
    let (long_report, long_peak) = measure(&long_cfg);
    drop(window);

    assert!(short_report.all_ok(), "short service run must verify");
    assert!(long_report.all_ok(), "long service run must verify");
    assert_eq!(short_report.epochs.len(), 16);
    assert_eq!(long_report.epochs.len(), 256);

    eprintln!("peak live bytes: short (16 epochs) = {short_peak}, long (256 epochs) = {long_peak}");

    // 16× the epochs through the same window: O(window) live state keeps
    // the peaks within a small constant of each other (the factor 4 leaves
    // room for the outcome ledger and allocator noise), while O(epochs)
    // live state — the regression this test exists to catch — puts the
    // long run's peak an epoch-ratio multiple above the short one's.
    assert!(
        long_peak < short_peak.saturating_mul(4),
        "a 256-epoch service run must keep live state O(window), not \
         O(epochs): peak {long_peak} bytes vs {short_peak} for 16 epochs"
    );
}

#[test]
fn tears_n128_trial_peak_live_bytes_stay_under_128_mib() {
    // The in-flight memory pin. A tears n = 128 trial at the paper's
    // constants sends ~2 M point-to-point messages, and the high-water mark
    // of live bytes is set by the messages in flight at once. Each is one
    // 32-byte record in its destination's queue; the step's sends sit once
    // in the send log until they reach the network. Measured 96 MiB; with a
    // 48-byte record and a second staging copy of every step's sends, the
    // same trial peaked at 178 MiB.
    let scale = ExperimentScale::default();
    let kind = TrialProtocol::Gossip(GossipProtocolKind::Tears);
    let spec = ScenarioSpec::from_scale(kind, &scale, 128);

    let window = ALLOC_WINDOW.lock().unwrap();
    let floor = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(floor, Ordering::Relaxed);
    let report = spec.run_trial(0).unwrap();
    let peak = PEAK_LIVE_BYTES.load(Ordering::Relaxed) - floor;
    drop(window);

    assert!(report.ok);
    assert!(
        report.messages > 2_000_000,
        "got {} messages",
        report.messages
    );
    eprintln!("peak live bytes: {peak}, messages: {}", report.messages);
    assert!(
        peak < 128 << 20,
        "a tears n=128 trial must peak below 128 MiB of live heap, got {} MiB",
        peak >> 20
    );
}

/// A gossip engine that sends one message to every other process on every
/// step and never collects a majority, so a consensus participant over it
/// stays in its first exchange and steps without allocating anything of its
/// own.
#[derive(Debug, Clone)]
struct Chatter {
    pid: ProcessId,
    n: usize,
    rumors: RumorSet,
    steps: u64,
}

impl GossipEngine for Chatter {
    type Msg = u64;

    fn deliver(&mut self, _from: ProcessId, _msg: u64) {}

    fn local_step(&mut self, out: &mut Vec<(ProcessId, u64)>) {
        self.steps += 1;
        for q in ProcessId::all(self.n).filter(|&q| q != self.pid) {
            out.push((q, self.steps));
        }
    }

    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn rumors(&self) -> &RumorSet {
        &self.rumors
    }

    fn is_quiescent(&self) -> bool {
        false
    }

    fn steps_taken(&self) -> u64 {
        self.steps
    }
}

#[test]
fn steady_state_consensus_step_allocates_no_staging_vec() {
    // A consensus step wraps its gossip instance's sends and appends them to
    // the simulator's send log. Once the log and the participant's reused
    // buffer have grown to a step's worth of sends, a step allocates
    // nothing; a staging `Vec` built per step costs at least one allocation
    // each time.
    let n = 8;
    let ctx = ConsensusCtx::new(ProcessId(0), n, 3, 1, 7);
    let mut process = ConsensusProcess::new(ctx, |ctx: GossipCtx| Chatter {
        pid: ctx.pid,
        n: ctx.n,
        rumors: RumorSet::singleton(ctx.rumor),
        steps: 0,
    });
    let mut out = Outbox::new();
    let mut inbox = Vec::new();
    for t in 0..2 {
        process.on_step(TimeStep(t), &mut inbox, &mut out);
        out.drain().for_each(drop);
    }

    let window = ALLOC_WINDOW.lock().unwrap();
    let before = THREAD_ALLOCATIONS.get();
    let mut sent = 0;
    for t in 2..66 {
        process.on_step(TimeStep(t), &mut inbox, &mut out);
        sent += out.len();
        out.drain().for_each(drop);
    }
    let during = THREAD_ALLOCATIONS.get() - before;
    drop(window);

    assert_eq!(
        sent,
        64 * (n - 1),
        "every step sends to every other process"
    );
    assert_eq!(during, 0, "a steady-state consensus step must not allocate");
}
