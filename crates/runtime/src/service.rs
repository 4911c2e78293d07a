//! Service mode: a continuously-fed, multi-epoch gossip run.
//!
//! Where [`crate::driver::run_live`] gossips *one* rumor set to quiescence
//! and stops, [`run_service`] keeps the runtime under sustained load: the
//! driver admits fresh rumor epochs into a bounded window while earlier
//! epochs are still in flight, detects per-epoch settlement, verifies every
//! epoch against the gossip checker, and garbage-collects settled epochs so
//! live state stays `O(window)` no matter how many epochs the run covers.
//!
//! The moving parts live in `agossip-core`'s [`epoch`] module: every node
//! runs an [`EpochMux`] (one inner engine per open epoch, multiplexed over
//! the node's single transport endpoint via `EpochMsg` envelope frames),
//! and driver ↔ node coordination travels through a shared [`EpochBoard`]
//! (admission frontier, per-epoch activity clocks, harvest cells). The
//! reactor threads are **unchanged** — an `EpochMux` is just another
//! [`GossipEngine`], so the same lockstep barrier protocol and free-running
//! loop that drive one-shot runs drive service runs too, through the same
//! `run_processes`; only what the driver does each time it looks at the
//! run differs (the epoch state machine instead of a quiet check).
//!
//! ## Epoch lifecycle
//!
//! ```text
//! admitted ──► open ──► settled ──► harvested ──► finalized (checked, GC'd)
//! ```
//!
//! * **Admitted** — the driver publishes the admission frontier
//!   [`service_open_upto`]`(mode, window, total, now, finalized)`, a pure
//!   monotone function of driver time and completed epochs: this is the
//!   epoch scheduler, and being a pure function of `(seed, tick)` is what
//!   keeps lockstep service runs bit-identical across threadings.
//! * **Open** — each node instantiates the epoch's engine at its next local
//!   step, seeded from [`agossip_core::epoch::epoch_seed`], with its
//!   generated per-epoch rumor.
//! * **Settled** — no send, delivery, or non-quiescent engine has bumped
//!   the epoch's activity clock for longer than the settle margin (`d`
//!   ticks under lockstep; the configured quiet period free-running).
//!   Per-epoch staleness replaces the global quiet streak: with pipelined
//!   epochs a busy epoch would mask a stalled one, so an epoch that
//!   neither settles nor shows activity raises
//!   [`RuntimeError::EpochStalled`] instead of hanging to `max_duration`.
//! * **Harvested** — the driver requests the epoch's final rumor sets; each
//!   node deposits its set on the board and **drops the engine** (the
//!   garbage collection).
//! * **Finalized** — strictly in epoch order, the driver runs
//!   [`check_gossip`] over the harvested sets and frees the slot, which
//!   un-gates the admission frontier (closed loop) and the slot ring.
//!
//! [`epoch`]: agossip_core::epoch
//! [`service_open_upto`]: agossip_core::service_open_upto

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use agossip_core::{
    check_gossip, epoch_initial_rumors, service_open_upto, CheckReport, EpochBoard, EpochMux,
    GossipCtx, GossipEngine, GossipSpec, LoopMode, RumorSet, WireCodec, WireDecodeView,
};
use agossip_sim::ProcessId;

use crate::clock::MonotonicClock;
use crate::driver::{run_processes, LiveConfig, Pacing};
use crate::error::{ConfigError, RuntimeError};
use crate::event_loop::SharedRun;
use crate::transport::Transport;

/// Configuration of a service run: a [`LiveConfig`] (processes, pacing,
/// threading, crashes — build one with [`LiveConfig::builder`]) plus the
/// epoch pipeline knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// The underlying live-run configuration. The master seed also seeds
    /// the deterministic per-epoch workload generator
    /// ([`agossip_core::epoch::epoch_rumor`]).
    pub live: LiveConfig,
    /// Total number of epochs the run must finalize.
    pub epochs: u64,
    /// Slot-ring capacity: at most `window` epochs may be open at once, and
    /// live state is bounded by it.
    pub window: usize,
    /// Admission policy: open loop (fixed rate) or closed loop (fixed
    /// in-flight count).
    pub mode: LoopMode,
    /// What the per-epoch checker must verify.
    pub spec: GossipSpec,
    /// How long an epoch may sit unsettled before the run aborts with
    /// [`RuntimeError::EpochStalled`] — in lockstep ticks, or milliseconds
    /// when free-running.
    pub stall_limit: u64,
}

impl ServiceConfig {
    /// A service run over an existing [`LiveConfig`], with closed-loop
    /// defaults: window 8, 4 epochs in flight, full gossip, stall limit
    /// 10 000 time units.
    pub fn new(live: LiveConfig, epochs: u64) -> Self {
        ServiceConfig {
            live,
            epochs,
            window: 8,
            mode: LoopMode::Closed { in_flight: 4 },
            spec: GossipSpec::Full,
            stall_limit: 10_000,
        }
    }

    /// Sets the window (slot-ring capacity).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets the admission policy.
    pub fn with_mode(mut self, mode: LoopMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the per-epoch checker spec.
    pub fn with_spec(mut self, spec: GossipSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the stall limit (ticks or milliseconds, per pacing).
    pub fn with_stall_limit(mut self, stall_limit: u64) -> Self {
        self.stall_limit = stall_limit;
        self
    }

    /// Validates the full configuration, including the [`LiveConfig`]
    /// checks and the service-specific ones.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.live.validate()?;
        if self.window == 0 {
            return Err(ConfigError::ZeroWindow);
        }
        if self.epochs == 0 {
            return Err(ConfigError::ZeroEpochs);
        }
        if let Pacing::FreeRunning {
            max_delay,
            quiet_period,
            ..
        } = self.live.pacing
        {
            if quiet_period <= max_delay {
                return Err(ConfigError::QuietPeriodTooShort {
                    quiet_period_ms: quiet_period.as_millis() as u64,
                    max_delay_ms: max_delay.as_millis() as u64,
                });
            }
        }
        Ok(())
    }
}

/// One finalized epoch. Time fields are in the run's time unit (lockstep
/// ticks, or milliseconds free-running).
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The epoch number.
    pub epoch: u64,
    /// When the driver admitted the epoch.
    pub opened_at: u64,
    /// The epoch's last observed activity before it settled — so the
    /// settle latency is margin-free.
    pub settled_at: u64,
    /// When the driver checked and freed the epoch.
    pub finalized_at: u64,
    /// The per-epoch gossip checker verdict.
    pub check: CheckReport,
}

impl EpochReport {
    /// Open-to-settle latency in the run's time unit.
    pub fn settle_latency(&self) -> u64 {
        self.settled_at.saturating_sub(self.opened_at)
    }
}

/// Outcome of a service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Which transport carried the frames.
    pub transport: &'static str,
    /// Finalized epochs, in epoch order.
    pub epochs: Vec<EpochReport>,
    /// Local steps taken per node (of the mux, i.e. service steps).
    pub steps: Vec<u64>,
    /// Point-to-point messages handed to the transport.
    pub messages_sent: u64,
    /// Messages delivered to engines.
    pub messages_delivered: u64,
    /// Payload bytes handed to the transport.
    pub bytes_sent: u64,
    /// Frames whose payload failed to decode.
    pub decode_errors: u64,
    /// Well-formed frames for already-finalized epochs, absorbed.
    pub stale_drops: u64,
    /// Peak number of concurrently outstanding (admitted, not yet
    /// finalized) epochs.
    pub max_open: u64,
    /// Whether every configured epoch finalized before the run's limit.
    pub quiescent: bool,
    /// Lockstep ticks elapsed (0 when free-running).
    pub ticks: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl ServiceReport {
    /// Whether every epoch finalized and passed its check.
    pub fn all_ok(&self) -> bool {
        self.quiescent && self.epochs.iter().all(|e| e.check.all_ok())
    }

    /// Open-to-settle latencies in epoch order (feed to [`percentile`]).
    pub fn settle_latencies(&self) -> Vec<u64> {
        self.epochs
            .iter()
            .map(EpochReport::settle_latency)
            .collect()
    }
}

/// Nearest-rank percentile of a latency sample (`p` in `0..=100`). Returns
/// 0 for an empty sample. The input need not be sorted.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.max(1).min(sorted.len()) - 1;
    sorted.get(idx).copied().unwrap_or(0)
}

/// Driver-side view of one slot in the epoch ring.
#[derive(Debug, Clone, Copy)]
enum SlotState {
    /// No epoch assigned (or its epoch already finalized).
    Free,
    /// Admitted and gossiping.
    Open { epoch: u64, opened_at: u64 },
    /// Settled; harvest requested at `detected_at`, engines dropping.
    Harvesting {
        epoch: u64,
        opened_at: u64,
        settled_at: u64,
        detected_at: u64,
    },
}

/// The driver-side service state machine, shared by the lockstep and
/// free-running drivers. All times are in the run's time unit.
struct ServiceTracker {
    board: Arc<EpochBoard>,
    n: usize,
    seed: u64,
    spec: GossipSpec,
    mode: LoopMode,
    window: usize,
    total: u64,
    /// Settle margin: `d` under lockstep, the quiet period (ms) free-running.
    margin: u64,
    stall_limit: u64,
    lockstep: bool,
    /// Which nodes are never crash-injected (the checker's `correct` set,
    /// and the set whose harvests the free-running driver waits for).
    correct: Vec<bool>,
    slots: Vec<SlotState>,
    finalized: u64,
    admitted: u64,
    max_open: u64,
    reports: Vec<EpochReport>,
}

impl ServiceTracker {
    fn new(config: &ServiceConfig, board: Arc<EpochBoard>, margin: u64, lockstep: bool) -> Self {
        let n = config.live.n;
        let correct: Vec<bool> = ProcessId::all(n)
            .map(|pid| config.live.crash_after(pid).is_none())
            .collect();
        ServiceTracker {
            board,
            n,
            seed: config.live.seed,
            spec: config.spec,
            mode: config.mode,
            window: config.window,
            total: config.epochs,
            margin,
            stall_limit: config.stall_limit,
            lockstep,
            correct,
            slots: vec![SlotState::Free; config.window],
            finalized: 0,
            admitted: 0,
            max_open: 0,
            reports: Vec::with_capacity(config.epochs.min(1 << 20) as usize),
        }
    }

    fn done(&self) -> bool {
        self.finalized >= self.total
    }

    /// Finalize → settle-detect → stall-detect → admit, at driver time
    /// `now`. Under lockstep `now` is the tick the nodes just computed and
    /// `admit_now` is the tick they are about to compute; free-running both
    /// are the current millisecond clock.
    fn step(&mut self, now: u64, admit_now: u64) -> Result<(), RuntimeError> {
        self.finalize(now)?;
        self.detect_settled(now);
        self.detect_stalled(now)?;
        self.admit(admit_now);
        Ok(())
    }

    /// Finalizes ready epochs strictly in epoch order: takes the harvest,
    /// runs the checker, frees the slot, advances the floor.
    fn finalize(&mut self, now: u64) -> Result<(), RuntimeError> {
        while self.finalized < self.total {
            let slot = self.board.slot_of(self.finalized);
            let (epoch, opened_at, settled_at) = match self.slots[slot] {
                SlotState::Harvesting {
                    epoch,
                    opened_at,
                    settled_at,
                    detected_at,
                } if epoch == self.finalized && self.harvest_ready(slot, detected_at, now) => {
                    (epoch, opened_at, settled_at)
                }
                _ => break,
            };
            let mut final_rumors = vec![RumorSet::new(); self.n];
            for (pid, set) in self.board.take_harvest(slot) {
                if let Some(entry) = final_rumors.get_mut(pid.index()) {
                    *entry = set;
                }
            }
            let initial = epoch_initial_rumors(self.seed, epoch, self.n);
            let check = check_gossip(self.spec, &final_rumors, &initial, &self.correct, true);
            self.reports.push(EpochReport {
                epoch,
                opened_at,
                settled_at,
                finalized_at: now,
                check,
            });
            self.slots[slot] = SlotState::Free;
            self.finalized += 1;
            self.board.set_finalized_floor(self.finalized);
        }
        Ok(())
    }

    /// Whether every expected harvest for `slot` has been deposited.
    ///
    /// Lockstep: the request was published at tick `detected_at` with the
    /// nodes parked, every live node harvests during tick `detected_at+1`,
    /// so one full tick suffices. Free-running: wait until every
    /// never-crash-injected node has pushed (crashed nodes' engines died
    /// with their threads).
    fn harvest_ready(&self, slot: usize, detected_at: u64, now: u64) -> bool {
        if self.lockstep {
            return now > detected_at;
        }
        let mut pushed = vec![false; self.n];
        for pid in self.board.harvested_pids(slot) {
            if let Some(flag) = pushed.get_mut(pid.index()) {
                *flag = true;
            }
        }
        self.correct
            .iter()
            .zip(&pushed)
            .all(|(correct, pushed)| !correct || *pushed)
    }

    /// Marks epochs whose activity clock has been still past the margin:
    /// requests their harvest and starts their finalize countdown.
    fn detect_settled(&mut self, now: u64) {
        for slot in 0..self.slots.len() {
            if let SlotState::Open { epoch, opened_at } = self.slots[slot] {
                let last = self.board.last_activity(slot);
                if now.saturating_sub(last) > self.margin {
                    self.board.request_harvest(slot, epoch);
                    self.slots[slot] = SlotState::Harvesting {
                        epoch,
                        opened_at,
                        settled_at: last,
                        detected_at: now,
                    };
                }
            }
        }
    }

    /// Raises [`RuntimeError::EpochStalled`] for any epoch that has neither
    /// settled nor (free-running) delivered its harvests within the limit.
    fn detect_stalled(&self, now: u64) -> Result<(), RuntimeError> {
        for state in &self.slots {
            let (epoch, since) = match *state {
                SlotState::Open { epoch, opened_at } => (epoch, opened_at),
                SlotState::Harvesting {
                    epoch, detected_at, ..
                } if !self.lockstep => (epoch, detected_at),
                _ => continue,
            };
            let stalled_for = now.saturating_sub(since);
            if stalled_for > self.stall_limit {
                return Err(RuntimeError::EpochStalled { epoch, stalled_for });
            }
        }
        Ok(())
    }

    /// Publishes the admission frontier for time `now` and assigns fresh
    /// epochs to their (guaranteed free) slots.
    fn admit(&mut self, now: u64) {
        let upto = service_open_upto(self.mode, self.window, self.total, now, self.finalized)
            .max(self.admitted);
        while self.admitted < upto {
            let epoch = self.admitted;
            let slot = self.board.slot_of(epoch);
            self.slots[slot] = SlotState::Open {
                epoch,
                opened_at: now,
            };
            self.board.reset_activity(slot, now);
            self.admitted += 1;
        }
        self.board.publish_open_upto(self.admitted);
        self.max_open = self.max_open.max(self.admitted - self.finalized);
    }
}

/// Runs a service-mode gossip: `make` builds one inner engine per
/// `(process, epoch)` pair, exactly as it builds one per process for
/// [`crate::driver::run_live`] — the [`GossipCtx`] it receives carries the
/// epoch's derived seed and generated rumor.
pub fn run_service<T, G, F>(
    config: &ServiceConfig,
    transport: &T,
    make: F,
) -> Result<ServiceReport, RuntimeError>
where
    T: Transport,
    G: GossipEngine + Send,
    F: Fn(GossipCtx) -> G + Clone + Send,
    G::Msg: WireCodec + WireDecodeView + PartialEq + Send,
{
    config.validate()?;
    let n = config.live.n;
    let seed = config.live.seed;
    let endpoints = transport.open(n)?;
    let shared = SharedRun::new(n, Arc::new(MonotonicClock::new()));
    let board = Arc::new(EpochBoard::new(config.window));
    let muxes: Vec<EpochMux<G, F>> = ProcessId::all(n)
        .map(|pid| {
            EpochMux::new(
                Arc::clone(&board),
                pid,
                n,
                config.live.f,
                seed,
                make.clone(),
            )
        })
        .collect();

    // Settle margin: `d` ticks under lockstep, the quiet period (ms)
    // free-running.
    let mut tracker = match config.live.pacing {
        Pacing::Lockstep { d, .. } => ServiceTracker::new(config, Arc::clone(&board), d, true),
        Pacing::FreeRunning { quiet_period, .. } => {
            let margin = quiet_period.as_millis() as u64;
            ServiceTracker::new(config, Arc::clone(&board), margin, false)
        }
    };
    // Processes read the admission frontier during their first local step,
    // before the driver's first look at the run — so the first epochs are
    // admitted before anything is spawned.
    board.set_now(0);
    tracker.admit(0);
    // Each look runs the epoch state machine instead of a quiet check:
    // finalize settled epochs, detect newly settled ones, advance driver
    // time and publish the admission frontier for the time the processes
    // are about to compute. The run is complete when every epoch has
    // finalized.
    let (outcomes, quiescent, ticks) =
        run_processes(&config.live, muxes, endpoints, &shared, |now, next| {
            board.set_now(next);
            tracker.step(now, next)?;
            Ok(tracker.done())
        });

    if let Some(error) = shared.first_error.lock().take() {
        return Err(error);
    }

    Ok(ServiceReport {
        transport: transport.name(),
        epochs: tracker.reports,
        steps: outcomes.iter().map(|o| o.steps).collect(),
        messages_sent: shared.stats.messages_sent.load(Ordering::Relaxed),
        messages_delivered: shared.stats.messages_delivered.load(Ordering::Relaxed),
        bytes_sent: shared.stats.bytes_sent.load(Ordering::Relaxed),
        decode_errors: shared.stats.decode_errors.load(Ordering::Relaxed),
        stale_drops: board.stale_drops(),
        max_open: tracker.max_open,
        quiescent,
        ticks,
        elapsed: shared.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Threading;
    use crate::transport::ChannelTransport;
    use agossip_core::{Ears, Tears, Trivial, TrivialMessage};
    use agossip_sim::ProcessId;
    use std::fmt;

    fn assert_epochs_ok(report: &ServiceReport, epochs: u64) {
        assert!(report.quiescent, "service did not finalize all epochs");
        assert_eq!(report.epochs.len(), epochs as usize);
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i as u64, "epochs must finalize in order");
            assert!(
                e.check.all_ok(),
                "epoch {i} failed its check: {:?}",
                e.check
            );
            assert!(e.settled_at >= e.opened_at);
            assert!(e.finalized_at >= e.settled_at);
        }
    }

    #[test]
    fn closed_loop_lockstep_service_finalizes_every_epoch() {
        let epochs = 12;
        let config = ServiceConfig::new(LiveConfig::lockstep(16, 2, 0x5EED_0001), epochs)
            .with_window(4)
            .with_mode(LoopMode::Closed { in_flight: 3 });
        let report = run_service(&config, &ChannelTransport, Trivial::new).expect("service run");
        assert_epochs_ok(&report, epochs);
        assert!(report.max_open >= 2, "closed loop must pipeline epochs");
        assert_eq!(report.decode_errors, 0);
        assert_eq!(
            report.stale_drops, 0,
            "lockstep service must not race frames"
        );
    }

    #[test]
    fn open_loop_lockstep_service_finalizes_every_epoch() {
        let epochs = 8;
        let config = ServiceConfig::new(LiveConfig::lockstep(12, 2, 0x5EED_0002), epochs)
            .with_window(6)
            .with_mode(LoopMode::Open { period: 4 });
        let report = run_service(&config, &ChannelTransport, Ears::new).expect("service run");
        assert_epochs_ok(&report, epochs);
        assert!(report.max_open >= 2, "open loop at period 4 must pipeline");
    }

    #[test]
    fn majority_service_checks_tears_epochs() {
        let epochs = 4;
        let config = ServiceConfig::new(LiveConfig::lockstep(24, 3, 0x5EED_0003), epochs)
            .with_spec(GossipSpec::Majority);
        let report = run_service(&config, &ChannelTransport, Tears::new).expect("service run");
        assert_epochs_ok(&report, epochs);
    }

    #[test]
    fn service_tolerates_crashes_within_budget() {
        let epochs = 6;
        let crashes: Vec<(ProcessId, u64)> =
            (0..3).map(|i| (ProcessId(15 - i), 10 + i as u64)).collect();
        let config = ServiceConfig::new(
            LiveConfig::lockstep(16, 4, 0x5EED_0004).with_crashes(crashes),
            epochs,
        );
        let report = run_service(&config, &ChannelTransport, Trivial::new).expect("service run");
        assert_epochs_ok(&report, epochs);
    }

    #[test]
    fn lockstep_service_reports_are_identical_across_threadings() {
        let run = |threading: Threading| {
            let mut config =
                ServiceConfig::new(LiveConfig::lockstep(12, 2, 0x5EED_0005), 8).with_window(4);
            config.live.threading = threading;
            run_service(&config, &ChannelTransport, Trivial::new).expect("service run")
        };
        let base = run(Threading::PerProcess);
        for reactors in [1usize, 3] {
            let other = run(Threading::Reactor { reactors });
            assert_eq!(base.epochs.len(), other.epochs.len());
            for (a, b) in base.epochs.iter().zip(&other.epochs) {
                assert_eq!(a.epoch, b.epoch);
                assert_eq!(a.opened_at, b.opened_at);
                assert_eq!(a.settled_at, b.settled_at);
                assert_eq!(a.finalized_at, b.finalized_at);
            }
            assert_eq!(base.messages_sent, other.messages_sent);
            assert_eq!(base.steps, other.steps);
            assert_eq!(base.ticks, other.ticks);
            assert_eq!(base.stale_drops, other.stale_drops);
        }
    }

    #[test]
    fn free_running_service_finalizes_every_epoch() {
        let epochs = 5;
        let config = ServiceConfig::new(LiveConfig::free_running(8, 1, 0x5EED_0006), epochs)
            .with_window(4)
            .with_stall_limit(15_000);
        let report = run_service(&config, &ChannelTransport, Trivial::new).expect("service run");
        assert_epochs_ok(&report, epochs);
    }

    /// An engine that never quiesces and keeps sending: every epoch it
    /// inhabits must trip the per-epoch stall detector.
    struct Chatty {
        ctx: GossipCtx,
        rumors: RumorSet,
    }

    impl fmt::Debug for Chatty {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Chatty")
        }
    }

    impl GossipEngine for Chatty {
        type Msg = TrivialMessage;

        fn deliver(&mut self, _from: ProcessId, _msg: TrivialMessage) {}

        fn local_step(&mut self, out: &mut Vec<(ProcessId, TrivialMessage)>) {
            let to = ProcessId((self.ctx.pid.index() + 1) % self.ctx.n);
            out.push((
                to,
                TrivialMessage {
                    rumor: self.ctx.rumor,
                },
            ));
        }

        fn pid(&self) -> ProcessId {
            self.ctx.pid
        }

        fn rumors(&self) -> &RumorSet {
            &self.rumors
        }

        fn is_quiescent(&self) -> bool {
            false
        }

        fn steps_taken(&self) -> u64 {
            0
        }
    }

    #[test]
    fn stalled_epoch_raises_typed_error() {
        let config =
            ServiceConfig::new(LiveConfig::lockstep(4, 1, 0x5EED_0007), 2).with_stall_limit(40);
        let result = run_service(&config, &ChannelTransport, |ctx| Chatty {
            ctx,
            rumors: RumorSet::new(),
        });
        match result {
            Err(RuntimeError::EpochStalled { epoch, stalled_for }) => {
                assert_eq!(epoch, 0);
                assert!(stalled_for > 40);
            }
            other => panic!("expected EpochStalled, got {other:?}"),
        }
    }

    #[test]
    fn invalid_service_configs_are_rejected() {
        let base = ServiceConfig::new(LiveConfig::lockstep(8, 1, 1), 4);
        assert_eq!(
            base.clone().with_window(0).validate(),
            Err(ConfigError::ZeroWindow)
        );
        let mut none = base.clone();
        none.epochs = 0;
        assert_eq!(none.validate(), Err(ConfigError::ZeroEpochs));
        let mut short = ServiceConfig::new(LiveConfig::free_running(8, 1, 1), 4);
        short.live.pacing = Pacing::FreeRunning {
            max_delay: Duration::from_millis(50),
            max_step_pause: Duration::from_millis(1),
            quiet_period: Duration::from_millis(50),
            max_duration: Duration::from_secs(5),
        };
        assert!(matches!(
            short.validate(),
            Err(ConfigError::QuietPeriodTooShort { .. })
        ));
        let bad_live = ServiceConfig::new(LiveConfig::lockstep(4, 4, 1), 4);
        assert!(matches!(
            bad_live.validate(),
            Err(ConfigError::FailureBudget { .. })
        ));
    }

    #[test]
    fn settle_latency_percentiles_are_computable() {
        let config = ServiceConfig::new(LiveConfig::lockstep(12, 1, 0x5EED_0008), 8);
        let report = run_service(&config, &ChannelTransport, Trivial::new).expect("service run");
        let latencies = report.settle_latencies();
        assert_eq!(latencies.len(), 8);
        let p50 = percentile(&latencies, 50.0);
        let p99 = percentile(&latencies, 99.0);
        assert!(p50 <= p99);
        assert!(p99 > 0, "trivial gossip needs at least one tick to settle");
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        let unsorted = vec![30, 10, 20];
        assert_eq!(percentile(&unsorted, 50.0), 20);
    }
}
