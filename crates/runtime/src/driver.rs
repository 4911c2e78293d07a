//! The live driver: n concurrent processes gossiping to completion over a
//! byte transport.
//!
//! [`run_live`] opens one [`Transport`] endpoint per process, resolves the
//! configured [`Threading`] to a reactor count — `n` for one thread per
//! process, or a handful of threads each multiplexing many processes (see
//! [`crate::reactor`]) — and watches for completion:
//!
//! * **Lockstep** — the driver participates in the tick barrier: each tick
//!   it first arbitrates the settle handshake (reactors drain their
//!   transports until `messages_sent == frames_consumed`, so no frame is
//!   ever read a tick late or lost in kernel transit — this is what makes
//!   the guarantees transport-independent), then stops the run after two
//!   consecutive all-quiet ticks, where *quiet* means a process neither
//!   delivered nor sent anything, holds no pending frames, and its engine
//!   is quiescent. Two idle ticks prove the network empty: any frame sent
//!   at tick `t` makes its sender non-quiet at `t`, so two quiet ticks
//!   mean the last send was at least two ticks ago and everything since
//!   has been consumed and delivered. Outcomes are bit-identical for a
//!   given seed, with any reactor count.
//! * **Free-running** — the driver polls for a sustained quiet period,
//!   mirroring the paper's "eventually every process stops sending"
//!   quiescence condition. Time is read through the run's [`Clock`]
//!   ([`run_live`] uses the real [`MonotonicClock`];
//!   [`run_live_with_clock`] lets tests inject a [`crate::FakeClock`]).
//!
//! Both disciplines, and [`crate::service`]'s epoch pipeline on top of
//! them, go through one spawn-drive-join path, `run_processes`; what the
//! driver decides each time it looks at the run is the closure it is given.
//!
//! Crash injection kills process `p` after its configured number of local
//! steps: under free-running pacing its endpoint is dropped (its peers'
//! sends start failing, i.e. their messages are lost); under lockstep the
//! process turns into a zombie that keeps draining its sockets but delivers
//! and sends nothing — same observable semantics, still deterministic.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use agossip_core::{GossipCtx, GossipEngine, RumorSet, WireCodec, WireDecodeView};
use agossip_sim::ProcessId;

use crate::clock::{Clock, MonotonicClock};
use crate::error::{ConfigError, RuntimeError};
use crate::event_loop::{duration_ms, NodeOutcome, ReactorProc, SharedRun};
use crate::reactor::{reactor_of, run_free_reactor, run_lockstep_reactor};
use crate::transport::{Endpoint, Transport};

/// How the reactor loops are paced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pacing {
    /// Barrier-paced deterministic ticks with seeded delays in `1..=d`
    /// ticks. Bit-identical outcomes for a given seed, on any transport.
    Lockstep {
        /// Delivery delay bound in ticks (the model's `d`), `≥ 1`.
        d: u64,
        /// Hard limit on the number of ticks (a non-quiescent protocol
        /// otherwise never terminates).
        max_ticks: u64,
    },
    /// Uncoordinated pacing: random pauses between steps, random
    /// clock-driven delivery delays, completion by sustained quiet.
    FreeRunning {
        /// Upper bound on the injected per-message delay (the model's `d`).
        max_delay: Duration,
        /// Upper bound on a node's pause between local steps (the model's
        /// `δ`).
        max_step_pause: Duration,
        /// How long the system must stay quiet before the run is declared
        /// finished.
        quiet_period: Duration,
        /// Hard clock limit on the run.
        max_duration: Duration,
    },
}

impl Pacing {
    /// Lockstep defaults: `d = 2`, generous tick limit.
    pub fn lockstep() -> Self {
        Pacing::Lockstep {
            d: 2,
            max_ticks: 1 << 20,
        }
    }

    /// Free-running defaults suitable for tests: sub-millisecond pacing,
    /// sub-second completion.
    pub fn free_running() -> Self {
        Pacing::FreeRunning {
            max_delay: Duration::from_millis(2),
            max_step_pause: Duration::from_millis(1),
            quiet_period: Duration::from_millis(100),
            max_duration: Duration::from_secs(20),
        }
    }
}

/// How processes are scheduled onto OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threading {
    /// One OS thread per process: exactly `Reactor { reactors: n }`.
    /// Faithful to "a process is a thread", but caps `n` near the machine's
    /// thread budget.
    PerProcess,
    /// `reactors` event-loop threads, each multiplexing the processes
    /// pinned to it (process `p` runs on reactor `p mod reactors` — see
    /// [`crate::reactor`]). Thousands of processes on a handful of threads.
    Reactor {
        /// Number of reactor threads, `≥ 1` (clamped to `n` at run time).
        reactors: usize,
    },
}

impl Threading {
    /// The number of reactor threads a run of `n` processes gets.
    pub(crate) fn reactors(self, n: usize) -> usize {
        match self {
            Threading::PerProcess => n,
            Threading::Reactor { reactors } => reactors.min(n),
        }
    }
}

/// Configuration of one live run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveConfig {
    /// Number of processes.
    pub n: usize,
    /// Failure budget handed to the protocol (`f < n`).
    pub f: usize,
    /// Master seed: protocol randomness and injected delays derive from it.
    pub seed: u64,
    /// Processes to crash, with the number of local steps after which each
    /// halts.
    pub crashes: Vec<(ProcessId, u64)>,
    /// The pacing discipline.
    pub pacing: Pacing,
    /// The thread scheduling discipline.
    pub threading: Threading,
}

impl LiveConfig {
    /// Starts a validating builder: checks that used to fire inside
    /// [`run_live`] (process count, failure budget, crash victims, delay
    /// bound, reactor count) run at [`LiveConfigBuilder::build`] time and
    /// return a typed [`ConfigError`].
    ///
    /// ```
    /// use agossip_runtime::{LiveConfig, Pacing, Threading};
    ///
    /// let config = LiveConfig::builder(64, 4, 0xFEED)
    ///     .pacing(Pacing::lockstep())
    ///     .threading(Threading::Reactor { reactors: 2 })
    ///     .build()
    ///     .expect("valid config");
    /// assert_eq!(config.n, 64);
    /// ```
    pub fn builder(n: usize, f: usize, seed: u64) -> LiveConfigBuilder {
        LiveConfigBuilder {
            config: LiveConfig::lockstep(n, f, seed),
        }
    }

    /// A deterministic lockstep configuration ([`Threading::PerProcess`]).
    pub fn lockstep(n: usize, f: usize, seed: u64) -> Self {
        LiveConfig {
            n,
            f,
            seed,
            crashes: Vec::new(),
            pacing: Pacing::lockstep(),
            threading: Threading::PerProcess,
        }
    }

    /// A free-running configuration with test-friendly timing (thread per
    /// process).
    pub fn free_running(n: usize, f: usize, seed: u64) -> Self {
        LiveConfig {
            n,
            f,
            seed,
            crashes: Vec::new(),
            pacing: Pacing::free_running(),
            threading: Threading::PerProcess,
        }
    }

    /// Adds crash injections.
    pub fn with_crashes(mut self, crashes: Vec<(ProcessId, u64)>) -> Self {
        self.crashes = crashes;
        self
    }

    /// Switches the run onto `reactors` multiplexing reactor threads.
    pub fn on_reactors(mut self, reactors: usize) -> Self {
        self.threading = Threading::Reactor { reactors };
        self
    }

    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.n == 0 {
            return Err(ConfigError::NoProcesses);
        }
        if self.f >= self.n {
            return Err(ConfigError::FailureBudget {
                f: self.f,
                n: self.n,
            });
        }
        for (i, (victim, _)) in self.crashes.iter().enumerate() {
            if victim.index() >= self.n {
                return Err(ConfigError::CrashVictimOutOfRange {
                    pid: victim.index(),
                    n: self.n,
                });
            }
            if self.crashes[..i]
                .iter()
                .any(|(earlier, _)| earlier == victim)
            {
                return Err(ConfigError::DuplicateCrashVictim {
                    pid: victim.index(),
                });
            }
        }
        if self.crashes.len() > self.f {
            return Err(ConfigError::CrashesExceedBudget {
                crashes: self.crashes.len(),
                f: self.f,
            });
        }
        if let Pacing::Lockstep { d, .. } = self.pacing {
            if d == 0 {
                return Err(ConfigError::ZeroDelayBound);
            }
        }
        if let Threading::Reactor { reactors } = self.threading {
            if reactors == 0 {
                return Err(ConfigError::ZeroReactors);
            }
        }
        Ok(())
    }

    pub(crate) fn crash_after(&self, pid: ProcessId) -> Option<u64> {
        self.crashes
            .iter()
            .find(|(victim, _)| *victim == pid)
            .map(|(_, steps)| *steps)
    }
}

/// Builder returned by [`LiveConfig::builder`]; validates at [`build`] time.
///
/// [`build`]: LiveConfigBuilder::build
#[derive(Debug, Clone)]
pub struct LiveConfigBuilder {
    config: LiveConfig,
}

impl LiveConfigBuilder {
    /// Sets the pacing discipline (defaults to [`Pacing::lockstep`]).
    pub fn pacing(mut self, pacing: Pacing) -> Self {
        self.config.pacing = pacing;
        self
    }

    /// Sets the thread scheduling discipline (defaults to
    /// [`Threading::PerProcess`]).
    pub fn threading(mut self, threading: Threading) -> Self {
        self.config.threading = threading;
        self
    }

    /// Shorthand for [`Threading::Reactor`] with `reactors` threads.
    pub fn reactors(self, reactors: usize) -> Self {
        self.threading(Threading::Reactor { reactors })
    }

    /// Sets crash injections: each listed process halts after taking the
    /// paired number of local steps.
    pub fn crashes(mut self, crashes: Vec<(ProcessId, u64)>) -> Self {
        self.config.crashes = crashes;
        self
    }

    /// Validates and returns the config. All the checks [`run_live`] used to
    /// perform at call time fire here instead.
    pub fn build(self) -> Result<LiveConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Outcome of a live run.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Which transport carried the frames ("channel", "tcp", "uds").
    pub transport: &'static str,
    /// Final rumor set of each node (crashed nodes report the set they had
    /// when they crashed).
    pub final_rumors: Vec<RumorSet>,
    /// Which nodes were never crash-injected.
    pub correct: Vec<bool>,
    /// Local steps taken per node.
    pub steps: Vec<u64>,
    /// Point-to-point messages handed to the transport.
    pub messages_sent: u64,
    /// Messages decoded and delivered to engines.
    pub messages_delivered: u64,
    /// Encoded payload bytes handed to the transport.
    pub bytes_sent: u64,
    /// Frames dropped because their payload failed to decode (always 0 on a
    /// healthy transport).
    pub decode_errors: u64,
    /// Whether the run ended by quiescence (vs hitting a limit).
    pub quiescent: bool,
    /// Lockstep ticks executed (0 under free-running pacing).
    pub ticks: u64,
    /// Duration of the run per its clock (wall-clock under [`run_live`]).
    pub elapsed: Duration,
}

/// Runs every node of the protocol produced by `make` per the configured
/// threading, exchanging byte frames over `transport`, until completion.
/// Time is real ([`MonotonicClock`]).
pub fn run_live<T, G, F>(
    config: &LiveConfig,
    transport: &T,
    make: F,
) -> Result<LiveReport, RuntimeError>
where
    T: Transport,
    G: GossipEngine + Send,
    F: Fn(GossipCtx) -> G,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
{
    run_live_with_clock(config, transport, Arc::new(MonotonicClock::new()), make)
}

/// [`run_live`] with an injected time source: the free-running delay and
/// quiet-period machinery reads `clock`, so a [`crate::FakeClock`] can
/// drive it deterministically in tests. Lockstep runs never read the clock
/// except for the report's `elapsed` field.
pub fn run_live_with_clock<T, G, F>(
    config: &LiveConfig,
    transport: &T,
    clock: Arc<dyn Clock>,
    make: F,
) -> Result<LiveReport, RuntimeError>
where
    T: Transport,
    G: GossipEngine + Send,
    F: Fn(GossipCtx) -> G,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
{
    config.validate()?;
    let n = config.n;
    let seed = config.seed;
    let endpoints = transport.open(n)?;
    let shared = SharedRun::new(n, clock);
    let engines: Vec<G> = ProcessId::all(n)
        .map(|pid| make(GossipCtx::new(pid, n, config.f, seed)))
        .collect();

    // The driver's verdict each time it looks at the run: two consecutive
    // all-quiet ticks under lockstep, all quiet for a sustained period when
    // free-running.
    let mut quiet_streak = 0u32;
    let (outcomes, quiescent, ticks) =
        run_processes(config, engines, endpoints, &shared, |_, _| {
            let all_quiet = shared.quiet.iter().all(|flag| flag.load(Ordering::Relaxed));
            Ok(match config.pacing {
                Pacing::Lockstep { .. } => {
                    quiet_streak = if all_quiet { quiet_streak + 1 } else { 0 };
                    quiet_streak >= 2
                }
                Pacing::FreeRunning { quiet_period, .. } => {
                    all_quiet && shared.since_last_activity() >= quiet_period
                }
            })
        });

    if let Some(error) = shared.first_error.lock().take() {
        return Err(error);
    }

    let correct: Vec<bool> = ProcessId::all(n)
        .map(|pid| config.crash_after(pid).is_none())
        .collect();
    Ok(LiveReport {
        transport: transport.name(),
        final_rumors: outcomes.iter().map(|o| o.rumors.clone()).collect(),
        correct,
        steps: outcomes.iter().map(|o| o.steps).collect(),
        messages_sent: shared.stats.messages_sent.load(Ordering::Relaxed),
        messages_delivered: shared.stats.messages_delivered.load(Ordering::Relaxed),
        bytes_sent: shared.stats.bytes_sent.load(Ordering::Relaxed),
        decode_errors: shared.stats.decode_errors.load(Ordering::Relaxed),
        quiescent,
        ticks,
        elapsed: shared.elapsed(),
    })
}

/// Spawns the run's reactor threads, drives them to completion and joins
/// them: the one path every live and service run takes. Returns the
/// per-process outcomes in pid order, whether the run completed (as opposed
/// to hitting its tick or clock limit, or an error), and the lockstep ticks
/// executed (0 when free-running).
///
/// `window(now, next)` is the driver's look at the run, and returns whether
/// the run is complete. Under lockstep it is called once per tick, between
/// the two quiet-check barriers — with every process parked — where `now`
/// is the tick just computed and `next` the one about to be. Free-running
/// it is called every few milliseconds while the processes run, with both
/// set to the run clock in milliseconds.
pub(crate) fn run_processes<G, E>(
    config: &LiveConfig,
    engines: Vec<G>,
    endpoints: Vec<E>,
    shared: &SharedRun,
    window: impl FnMut(u64, u64) -> Result<bool, RuntimeError>,
) -> (Vec<NodeOutcome>, bool, u64)
where
    G: GossipEngine + Send,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    E: Endpoint,
{
    let n = config.n;
    let seed = config.seed;
    let reactors = config.threading.reactors(n);
    // Pin by `pid mod reactors`, pid-ordered within each group.
    let mut groups: Vec<Vec<ReactorProc<G, E>>> = (0..reactors).map(|_| Vec::new()).collect();
    for (pid, (engine, endpoint)) in ProcessId::all(n).zip(engines.into_iter().zip(endpoints)) {
        groups[reactor_of(pid, reactors)].push(ReactorProc {
            pid,
            engine,
            endpoint,
            crash_after: config.crash_after(pid),
        });
    }
    let barrier = Barrier::new(reactors + 1); // lockstep only: reactors + driver

    let mut by_pid: Vec<Option<NodeOutcome>> = (0..n).map(|_| None).collect();
    let (complete, ticks) = thread::scope(|scope| {
        let barrier = &barrier;
        let mut handles = Vec::with_capacity(reactors);
        let verdict = match config.pacing {
            Pacing::Lockstep { d, max_ticks } => {
                for group in groups {
                    handles.push(
                        scope.spawn(move || run_lockstep_reactor(group, seed, d, shared, barrier)),
                    );
                }
                drive_lockstep(barrier, shared, max_ticks, window)
            }
            Pacing::FreeRunning {
                max_delay,
                max_step_pause,
                max_duration,
                ..
            } => {
                for group in groups {
                    handles.push(scope.spawn(move || {
                        run_free_reactor(group, seed, max_delay, max_step_pause, shared)
                    }));
                }
                (drive_free(shared, max_duration, window), 0)
            }
        };
        // A panicked reactor becomes a recorded error instead of propagating;
        // callers surface the first recorded error before they read the
        // (then short) outcome list.
        for handle in handles {
            match handle.join() {
                Ok(outcomes) => {
                    for (pid, outcome) in outcomes {
                        by_pid[pid.index()] = Some(outcome);
                    }
                }
                Err(_) => shared.record_error(RuntimeError::NodePanicked),
            }
        }
        verdict
    });
    (by_pid.into_iter().flatten().collect(), complete, ticks)
}

/// Upper bound on poll-only settle rounds per lockstep tick. On a healthy
/// transport a frame becomes readable within a round or two; thousands of
/// rounds without progress means frames were truly lost (which lockstep
/// transports never do by construction) and the run aborts with
/// [`RuntimeError::SettleTimeout`] instead of spinning forever.
const MAX_SETTLE_ROUNDS: u64 = 100_000;

/// The driver's side of the lockstep tick protocol, as the extra barrier
/// participant: arbitrates the settle handshake, then opens the quiet-check
/// window (see [`run_processes`]). Returns `(complete, ticks)`.
fn drive_lockstep(
    barrier: &Barrier,
    shared: &SharedRun,
    max_ticks: u64,
    mut window: impl FnMut(u64, u64) -> Result<bool, RuntimeError>,
) -> (bool, u64) {
    let mut complete = false;
    let mut ticks = 0u64;
    'ticks: loop {
        // Settle rounds.
        let mut rounds = 0u64;
        loop {
            barrier.wait(); // reactors have polled
            let sent = shared.stats.messages_sent.load(Ordering::Relaxed);
            let consumed = shared.stats.frames_consumed.load(Ordering::Relaxed);
            let settled = sent == consumed;
            shared.settled.store(settled, Ordering::Relaxed);
            rounds += 1;
            if !settled && rounds > MAX_SETTLE_ROUNDS {
                shared.record_error(RuntimeError::SettleTimeout {
                    sent,
                    consumed,
                    rounds,
                });
            }
            if shared.has_error() {
                shared.stop.store(true, Ordering::Relaxed);
            }
            let stopping = shared.stop.load(Ordering::Relaxed);
            barrier.wait(); // verdict published
            if stopping {
                break 'ticks;
            }
            if settled {
                break;
            }
            // Unsettled on a kernel transport: give the softirq path a
            // moment before the next poll round.
            thread::yield_now();
        }
        // Quiet-check window: reactors are parked between these two waits.
        barrier.wait();
        ticks += 1;
        match window(ticks - 1, ticks) {
            Ok(done) => complete = done,
            Err(error) => shared.record_error(error),
        }
        if complete || ticks >= max_ticks || shared.has_error() {
            shared.stop.store(true, Ordering::Relaxed);
        }
        let stopping = shared.stop.load(Ordering::Relaxed);
        barrier.wait();
        if stopping {
            break;
        }
    }
    (complete, ticks)
}

/// The driver's side of a free-running run: open the window (see
/// [`run_processes`]) every few milliseconds until it reports the run
/// complete, an error is recorded or the clock limit passes, then raise the
/// stop flag. Returns `complete`.
fn drive_free(
    shared: &SharedRun,
    max_duration: Duration,
    mut window: impl FnMut(u64, u64) -> Result<bool, RuntimeError>,
) -> bool {
    let complete = loop {
        thread::sleep(Duration::from_millis(5));
        let elapsed = shared.elapsed();
        if elapsed >= max_duration || shared.has_error() {
            break false;
        }
        let now = duration_ms(elapsed);
        match window(now, now) {
            Ok(true) => break true,
            Ok(false) => {}
            Err(error) => {
                shared.record_error(error);
                break false;
            }
        }
    };
    shared.stop.store(true, Ordering::Relaxed);
    complete
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use crate::transport::{ChannelTransport, RawFrame, SendOutcome, SocketTransport};
    use agossip_core::{check_gossip, Ears, GossipSpec, Rumor, Tears, Trivial};
    use parking_lot::Mutex;

    fn initial_rumors(n: usize) -> Vec<Rumor> {
        (0..n).map(|i| Rumor::new(ProcessId(i), i as u64)).collect()
    }

    fn assert_full_gossip(report: &LiveReport, n: usize) {
        let check = check_gossip(
            GossipSpec::Full,
            &report.final_rumors,
            &initial_rumors(n),
            &report.correct,
            report.quiescent,
        );
        assert!(check.all_ok(), "{check:?}");
    }

    #[test]
    fn lockstep_channel_run_is_bit_identical_across_repeats() {
        let config = LiveConfig::lockstep(12, 3, 7)
            .with_crashes(vec![(ProcessId(10), 2), (ProcessId(11), 0)]);
        let a = run_live(&config, &ChannelTransport, Ears::new).unwrap();
        let b = run_live(&config, &ChannelTransport, Ears::new).unwrap();
        assert_eq!(a.final_rumors, b.final_rumors);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.messages_delivered, b.messages_delivered);
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.decode_errors, 0);
        assert!(a.quiescent);
    }

    #[test]
    fn lockstep_reactor_matches_per_process_bit_for_bit() {
        // The same configuration under thread-per-process and under 1, 3,
        // 8, n and (clamped to n) n + 5 reactors: identical outcomes and
        // counters everywhere.
        let n = 12;
        let base = LiveConfig::lockstep(n, 3, 7)
            .with_crashes(vec![(ProcessId(10), 2), (ProcessId(11), 0)]);
        let reference = run_live(&base, &ChannelTransport, Ears::new).unwrap();
        for reactors in [1, 3, 8, n, n + 5] {
            let config = base.clone().on_reactors(reactors);
            let got = run_live(&config, &ChannelTransport, Ears::new).unwrap();
            assert_eq!(got.final_rumors, reference.final_rumors, "r={reactors}");
            assert_eq!(got.messages_sent, reference.messages_sent, "r={reactors}");
            assert_eq!(
                got.messages_delivered, reference.messages_delivered,
                "r={reactors}"
            );
            assert_eq!(got.bytes_sent, reference.bytes_sent, "r={reactors}");
            assert_eq!(got.ticks, reference.ticks, "r={reactors}");
            assert_eq!(got.steps, reference.steps, "r={reactors}");
            assert!(got.quiescent, "r={reactors}");
        }
    }

    #[test]
    fn lockstep_reactor_runs_over_tcp() {
        let n = 8;
        let config = LiveConfig::lockstep(n, 2, 3).on_reactors(2);
        let report = run_live(&config, &SocketTransport::tcp(), Ears::new).unwrap();
        assert_eq!(report.transport, "tcp");
        assert!(report.quiescent);
        assert_eq!(report.decode_errors, 0);
        assert_full_gossip(&report, n);
    }

    #[test]
    fn free_running_reactor_completes_with_crashes() {
        let n = 16;
        let config = LiveConfig::free_running(n, 4, 9)
            .with_crashes(vec![(ProcessId(14), 1), (ProcessId(15), 3)])
            .on_reactors(4);
        let report = run_live(&config, &ChannelTransport, Ears::new).unwrap();
        assert!(report.quiescent);
        assert_full_gossip(&report, n);
    }

    #[test]
    fn lockstep_trivial_gossip_completes_on_channels() {
        let n = 8;
        let config = LiveConfig::lockstep(n, 0, 1);
        let report = run_live(&config, &ChannelTransport, Trivial::new).unwrap();
        assert!(report.quiescent);
        assert_eq!(report.messages_sent, (n * (n - 1)) as u64);
        assert_eq!(report.messages_sent, report.messages_delivered);
        assert!(report.bytes_sent > 0);
        assert_full_gossip(&report, n);
    }

    #[test]
    fn lockstep_runs_over_tcp() {
        let n = 8;
        let config = LiveConfig::lockstep(n, 2, 3);
        let report = run_live(&config, &SocketTransport::tcp(), Ears::new).unwrap();
        assert_eq!(report.transport, "tcp");
        assert!(report.quiescent);
        assert_eq!(report.decode_errors, 0);
        assert_full_gossip(&report, n);
    }

    #[test]
    fn free_running_tears_reaches_majority() {
        let n = 16;
        let config = LiveConfig::free_running(n, 0, 4);
        let report = run_live(&config, &ChannelTransport, Tears::new).unwrap();
        let check = check_gossip(
            GossipSpec::Majority,
            &report.final_rumors,
            &initial_rumors(n),
            &report.correct,
            true,
        );
        assert!(check.gathering_ok, "{check:?}");
        assert!(check.validity_ok);
    }

    #[test]
    fn free_running_driven_by_a_fake_clock() {
        // No real time passes (beyond scheduler pauses): every delay,
        // quiet-period and deadline read comes from the auto-advancing
        // fake clock. The run must still complete, checker-verified.
        let n = 8;
        let config = LiveConfig {
            pacing: Pacing::FreeRunning {
                max_delay: Duration::from_millis(2),
                max_step_pause: Duration::from_micros(50),
                quiet_period: Duration::from_millis(40),
                max_duration: Duration::from_secs(3600),
            },
            ..LiveConfig::free_running(n, 2, 11)
        }
        .on_reactors(2);
        let clock = Arc::new(FakeClock::auto_advancing(Duration::from_micros(20)));
        let report = run_live_with_clock(&config, &ChannelTransport, clock, Ears::new).unwrap();
        assert!(report.quiescent);
        assert_full_gossip(&report, n);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad_f = LiveConfig::lockstep(4, 4, 0);
        assert!(matches!(
            run_live(&bad_f, &ChannelTransport, Trivial::new),
            Err(RuntimeError::Config(_))
        ));
        let bad_victim = LiveConfig::lockstep(4, 1, 0).with_crashes(vec![(ProcessId(9), 0)]);
        assert!(matches!(
            run_live(&bad_victim, &ChannelTransport, Trivial::new),
            Err(RuntimeError::Config(_))
        ));
        let over_budget =
            LiveConfig::lockstep(4, 1, 0).with_crashes(vec![(ProcessId(2), 0), (ProcessId(3), 0)]);
        assert!(matches!(
            run_live(&over_budget, &ChannelTransport, Trivial::new),
            Err(RuntimeError::Config(_))
        ));
        let twice =
            LiveConfig::lockstep(4, 2, 0).with_crashes(vec![(ProcessId(3), 0), (ProcessId(3), 5)]);
        assert!(matches!(
            run_live(&twice, &ChannelTransport, Trivial::new),
            Err(RuntimeError::Config(_))
        ));
        let bad_d = LiveConfig {
            pacing: Pacing::Lockstep { d: 0, max_ticks: 1 },
            ..LiveConfig::lockstep(4, 1, 0)
        };
        assert!(matches!(
            run_live(&bad_d, &ChannelTransport, Trivial::new),
            Err(RuntimeError::Config(_))
        ));
        let bad_reactors = LiveConfig::lockstep(4, 1, 0).on_reactors(0);
        assert!(matches!(
            run_live(&bad_reactors, &ChannelTransport, Trivial::new),
            Err(RuntimeError::Config(_))
        ));
    }

    #[test]
    fn builder_validates_at_build_time() {
        let ok = LiveConfig::builder(8, 2, 7).reactors(2).build().unwrap();
        assert_eq!(ok.threading, Threading::Reactor { reactors: 2 });
        assert_eq!(ok, LiveConfig::lockstep(8, 2, 7).on_reactors(2));
        assert_eq!(
            LiveConfig::builder(0, 0, 7).build(),
            Err(ConfigError::NoProcesses)
        );
        assert_eq!(
            LiveConfig::builder(4, 4, 7).build(),
            Err(ConfigError::FailureBudget { f: 4, n: 4 })
        );
        assert_eq!(
            LiveConfig::builder(4, 1, 7)
                .crashes(vec![(ProcessId(9), 1)])
                .build(),
            Err(ConfigError::CrashVictimOutOfRange { pid: 9, n: 4 })
        );
        assert_eq!(
            LiveConfig::builder(4, 2, 7)
                .crashes(vec![(ProcessId(3), 1), (ProcessId(3), 2)])
                .build(),
            Err(ConfigError::DuplicateCrashVictim { pid: 3 })
        );
        assert_eq!(
            LiveConfig::builder(4, 1, 7)
                .crashes(vec![(ProcessId(2), 1), (ProcessId(3), 1)])
                .build(),
            Err(ConfigError::CrashesExceedBudget { crashes: 2, f: 1 })
        );
        assert_eq!(
            LiveConfig::builder(4, 1, 7)
                .pacing(Pacing::Lockstep {
                    d: 0,
                    max_ticks: 10
                })
                .build(),
            Err(ConfigError::ZeroDelayBound)
        );
        assert_eq!(
            LiveConfig::builder(4, 1, 7).reactors(0).build(),
            Err(ConfigError::ZeroReactors)
        );
    }

    #[test]
    fn lockstep_tick_limit_reports_non_quiescent() {
        // d = 1 and a tick budget too small for gossip to finish.
        let config = LiveConfig {
            pacing: Pacing::Lockstep { d: 1, max_ticks: 2 },
            ..LiveConfig::lockstep(8, 2, 5)
        };
        let report = run_live(&config, &ChannelTransport, Ears::new).unwrap();
        assert!(!report.quiescent);
        assert_eq!(report.ticks, 2);
    }

    /// A transport that accepts every frame and never yields one.
    struct BlackHole;

    struct BlackHoleEndpoint(ProcessId);

    impl Transport for BlackHole {
        type Endpoint = BlackHoleEndpoint;

        fn name(&self) -> &'static str {
            "black-hole"
        }

        fn open(&self, n: usize) -> Result<Vec<BlackHoleEndpoint>, RuntimeError> {
            Ok(ProcessId::all(n).map(BlackHoleEndpoint).collect())
        }
    }

    impl Endpoint for BlackHoleEndpoint {
        fn pid(&self) -> ProcessId {
            self.0
        }

        fn send(&mut self, _to: ProcessId, _payload: &[u8]) -> Result<SendOutcome, RuntimeError> {
            Ok(SendOutcome::Sent)
        }

        fn poll_into(&mut self, _out: &mut Vec<RawFrame>) -> Result<(), RuntimeError> {
            Ok(())
        }
    }

    /// Channels that count, across the clique, `poll_into` calls and the
    /// distinct totals of sent frames those calls saw.
    struct CountingPolls(Arc<Mutex<PollCounts>>);

    #[derive(Default)]
    struct PollCounts {
        polls: u64,
        sent: u64,
        sent_at_poll: std::collections::BTreeSet<u64>,
    }

    struct CountingEndpoint {
        inner: crate::transport::ChannelEndpoint,
        counts: Arc<Mutex<PollCounts>>,
    }

    impl Transport for CountingPolls {
        type Endpoint = CountingEndpoint;

        fn name(&self) -> &'static str {
            "counting-channel"
        }

        fn open(&self, n: usize) -> Result<Vec<CountingEndpoint>, RuntimeError> {
            Ok(ChannelTransport
                .open(n)?
                .into_iter()
                .map(|inner| CountingEndpoint {
                    inner,
                    counts: Arc::clone(&self.0),
                })
                .collect())
        }
    }

    impl Endpoint for CountingEndpoint {
        fn pid(&self) -> ProcessId {
            self.inner.pid()
        }

        fn send(&mut self, to: ProcessId, payload: &[u8]) -> Result<SendOutcome, RuntimeError> {
            self.counts.lock().sent += 1;
            self.inner.send(to, payload)
        }

        fn poll_into(&mut self, out: &mut Vec<RawFrame>) -> Result<(), RuntimeError> {
            let mut counts = self.counts.lock();
            counts.polls += 1;
            let sent = counts.sent;
            counts.sent_at_poll.insert(sent);
            self.inner.poll_into(out)
        }
    }

    #[test]
    fn lockstep_settle_rounds_with_nothing_in_flight_poll_nothing() {
        let n = 8;
        let config = LiveConfig::lockstep(n, 0, 1);
        assert!(matches!(config.pacing, Pacing::Lockstep { d: 2, .. }));
        let counts = Arc::new(Mutex::new(PollCounts::default()));
        let report = run_live(&config, &CountingPolls(Arc::clone(&counts)), Trivial::new).unwrap();
        assert!(report.quiescent);
        assert_full_gossip(&report, n);
        let counts = counts.lock();
        // Channels settle in one round, so every round that polled saw a
        // new send total: one round per step phase that sent. Trivial sends
        // everything in its first step, so that is exactly one round.
        assert!(
            !counts.sent_at_poll.contains(&0),
            "polled with nothing sent"
        );
        let rounds_in_flight = counts.sent_at_poll.len() as u64;
        assert_eq!(rounds_in_flight, 1);
        assert_eq!(counts.polls, n as u64 * rounds_in_flight);
        assert!(
            counts.polls < n as u64 * report.ticks,
            "{} polls",
            counts.polls
        );
    }

    #[test]
    fn transport_that_never_settles_is_a_typed_timeout_not_a_hang() {
        let config = LiveConfig::lockstep(2, 0, 1).on_reactors(1);
        match run_live(&config, &BlackHole, Trivial::new) {
            Err(RuntimeError::SettleTimeout {
                sent,
                consumed,
                rounds,
            }) => {
                assert_eq!((sent, consumed), (2, 0));
                assert!(rounds > MAX_SETTLE_ROUNDS);
            }
            other => panic!("expected SettleTimeout, got {other:?}"),
        }
    }
}
