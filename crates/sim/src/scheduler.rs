//! The simulation engine.
//!
//! [`Simulation`] owns the process state machines, the network, and the
//! metrics, and advances time one discrete step at a time. Two driving modes
//! are offered:
//!
//! * [`Simulation::run_with`] — the common case: an [`Adversary`]
//!   implementation chooses schedules, crashes, and delays, and the loop runs
//!   until the system is quiescent or the step limit is hit.
//! * [`Simulation::step_manual`] — low-level control used by *adaptive*
//!   adversaries (notably the Theorem 1 lower-bound adversary in
//!   `agossip-adversary`), which need to schedule precise subsets of
//!   processes, withhold messages, and inspect pending traffic.
//!
//! Both run one step core. Every scheduled process appends its sends to the
//! step's send log (the [`Outbox`], one segment per process); the core then
//! makes two passes over the log — choose and validate every delay, then
//! hand every message to the network — so a step that fails sends nothing.
//! No message is copied between the log and its destination queue.

use crate::adversary::{Adversary, StepPlan, SystemView};
use crate::config::SimConfig;
use crate::error::{SimError, SimResult};
use crate::message::{Envelope, EnvelopeMeta, Outbox};
use crate::metrics::Metrics;
use crate::network::Network;
use crate::process::{Process, ProcessId, ProcessStatus};
use crate::time::TimeStep;

/// Why a run loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every non-crashed process is quiescent and no message is in flight.
    Quiescent,
    /// The caller-provided predicate returned true.
    Predicate,
    /// The configured step limit was reached.
    StepLimit,
}

/// Summary of a completed run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why the loop stopped.
    pub reason: StopReason,
    /// The time at which it stopped.
    pub stopped_at: TimeStep,
}

/// The discrete-event simulator.
#[derive(Debug, Clone)]
pub struct Simulation<P: Process> {
    config: SimConfig,
    processes: Vec<P>,
    statuses: Vec<ProcessStatus>,
    quiescent: Vec<bool>,
    last_scheduled: Vec<TimeStep>,
    network: Network<P::Message>,
    metrics: Metrics,
    now: TimeStep,
    /// Reusable delivery buffer handed to each local step; cleared between
    /// processes so steady-state stepping allocates nothing.
    inbox: Vec<Envelope<P::Message>>,
    /// The step's send log, reused across steps: every scheduled process
    /// appends its sends to it, one segment per process.
    outbox: Outbox<P::Message>,
    /// `(sender, end)` of each segment of `outbox`, in schedule order.
    segments: Vec<(ProcessId, usize)>,
    /// The delay chosen for each entry of `outbox`, in log order; 0 marks a
    /// message to a crashed destination, which is dropped.
    delays: Vec<u64>,
}

impl<P: Process> Simulation<P> {
    /// Creates a simulation over the given process state machines.
    ///
    /// `processes[i]` is the state machine of [`ProcessId`]`(i)`; its length
    /// must equal `config.n`.
    pub fn new(config: SimConfig, processes: Vec<P>) -> SimResult<Self> {
        config.validate()?;
        if processes.len() != config.n {
            return Err(SimError::ProcessCountMismatch {
                expected: config.n,
                actual: processes.len(),
            });
        }
        let n = config.n;
        let quiescent = processes.iter().map(|p| p.is_quiescent()).collect();
        Ok(Simulation {
            config,
            processes,
            statuses: vec![ProcessStatus::Alive; n],
            quiescent,
            last_scheduled: vec![TimeStep::ZERO; n],
            network: Network::new(n),
            metrics: Metrics::new(n),
            now: TimeStep::ZERO,
            inbox: Vec::new(),
            outbox: Outbox::new(),
            segments: Vec::new(),
            delays: Vec::new(),
        })
    }

    /// The configuration this simulation was created with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The current time.
    pub fn now(&self) -> TimeStep {
        self.now
    }

    /// Read access to the metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Per-process liveness.
    pub fn statuses(&self) -> &[ProcessStatus] {
        &self.statuses
    }

    /// Read access to process `pid`'s state machine.
    pub fn process(&self, pid: ProcessId) -> &P {
        &self.processes[pid.index()]
    }

    /// Mutable access to process `pid`'s state machine (used by test
    /// harnesses and by directors that need to inject state).
    pub fn process_mut(&mut self, pid: ProcessId) -> &mut P {
        &mut self.processes[pid.index()]
    }

    /// Read access to all process state machines.
    pub fn processes(&self) -> &[P] {
        &self.processes
    }

    /// Identifiers of processes that are still alive.
    pub fn alive(&self) -> Vec<ProcessId> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_alive())
            .map(|(i, _)| ProcessId(i))
            .collect()
    }

    /// True if `pid` is alive.
    pub fn is_alive(&self, pid: ProcessId) -> bool {
        self.statuses[pid.index()].is_alive()
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.network.in_flight()
    }

    /// Clones of the messages currently queued for `pid` (regardless of
    /// delivery deadline). Used by adaptive adversaries that simulate a
    /// process "receiving any messages from S1" (Theorem 1).
    pub fn pending_messages_for(&self, pid: ProcessId) -> Vec<Envelope<P::Message>> {
        self.network.clone_pending_for(pid)
    }

    /// True when every non-crashed process reports quiescence and no message
    /// remains in flight.
    pub fn system_quiescent(&self) -> bool {
        let all_quiet = self
            .statuses
            .iter()
            .zip(&self.quiescent)
            .all(|(s, q)| s.is_crashed() || *q);
        all_quiet && self.network.is_empty()
    }

    /// Like [`Self::system_quiescent`] but treats messages withheld beyond
    /// `horizon` as undeliverable (used by adaptive drivers that withhold
    /// messages forever).
    pub fn system_quiescent_ignoring_withheld(&self, horizon: TimeStep) -> bool {
        let all_quiet = self
            .statuses
            .iter()
            .zip(&self.quiescent)
            .all(|(s, q)| s.is_crashed() || *q);
        all_quiet && self.network.all_beyond(horizon)
    }

    /// Crashes `pid` immediately (before any further local steps). Messages
    /// already queued for it are discarded. Returns an error if the crash
    /// budget `f` would be exceeded; crashing an already-crashed process is a
    /// no-op.
    pub fn crash(&mut self, pid: ProcessId) -> SimResult<()> {
        if pid.index() >= self.config.n {
            return Err(SimError::UnknownProcess {
                pid,
                n: self.config.n,
            });
        }
        if self.statuses[pid.index()].is_crashed() {
            return Ok(());
        }
        if self.metrics.crashes + 1 > self.config.f {
            return Err(SimError::CrashBudgetExceeded {
                budget: self.config.f,
                requested: self.metrics.crashes + 1,
            });
        }
        self.statuses[pid.index()] = ProcessStatus::Crashed { at: self.now };
        let dropped = self.network.drop_for(pid);
        self.metrics.record_dropped(dropped as u64);
        self.metrics.record_crash();
        Ok(())
    }

    /// Builds the read-only view handed to adversaries.
    fn view(&self) -> SystemView<'_> {
        SystemView {
            now: self.now,
            n: self.config.n,
            f: self.config.f,
            statuses: &self.statuses,
            sent_by: &self.metrics.sent_by,
            last_scheduled: &self.last_scheduled,
            quiescent: &self.quiescent,
            in_flight: self.network.in_flight(),
            crashes: self.metrics.crashes,
        }
    }

    /// Executes one global time step under manual control.
    ///
    /// `crashes` are applied first (before any local step), then every alive
    /// process in `schedule` takes one local step: it receives every message
    /// whose delivery deadline has passed, computes, and sends. Each sent
    /// message is assigned the delay returned by `delay_for`; a returned
    /// value of `u64::MAX` withholds the message for the rest of the
    /// execution, and any other value outside `1..=config.d` is rejected
    /// with [`SimError::DelayOutOfBounds`].
    pub fn step_manual(
        &mut self,
        schedule: &[ProcessId],
        crashes: &[ProcessId],
        mut delay_for: impl FnMut(&EnvelopeMeta) -> u64,
    ) -> SimResult<()> {
        self.step_core(schedule, crashes, |meta, _view| delay_for(meta))
    }

    /// Executes one global time step under the control of `adversary`.
    ///
    /// The adversary's `message_delay` is called once per outgoing message
    /// against a single [`SystemView`] snapshot taken after the batch of
    /// local steps (the view does not change between the batch's delay
    /// decisions). Delays are validated like in [`Self::step_manual`].
    pub fn step_with<A: Adversary>(&mut self, adversary: &mut A) -> SimResult<()> {
        let StepPlan { schedule, crash } = adversary.plan_step(&self.view());
        self.step_core(&schedule, &crash, |meta, view| {
            adversary.message_delay(meta, view)
        })
    }

    /// The step body shared by [`Self::step_manual`] and [`Self::step_with`].
    ///
    /// One global time step: apply `crashes`, let every alive process in
    /// `schedule` take a local step (receive due messages, compute, append
    /// its sends to the step's send log), then assign each logged message
    /// the delay chosen by `delay_for` and hand it to the network. Two
    /// passes over the log: every delay is chosen and validated before the
    /// first message reaches the network, so a step that fails sends
    /// nothing. Uses the simulation's reusable inbox, send log and delay
    /// buffers, so steady-state stepping performs no allocation.
    fn step_core<F>(
        &mut self,
        schedule: &[ProcessId],
        crashes: &[ProcessId],
        mut delay_for: F,
    ) -> SimResult<()>
    where
        F: FnMut(&EnvelopeMeta, &SystemView<'_>) -> u64,
    {
        for &victim in crashes {
            self.crash(victim)?;
        }

        // The buffers are moved out for the duration of the step so the
        // borrow checker can see they are disjoint from `self`; they are
        // moved back (with their capacity) on the success path. Error paths
        // drop them — every `SimError` here is terminal for the run.
        let mut inbox = std::mem::take(&mut self.inbox);
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut segments = std::mem::take(&mut self.segments);
        let mut delays = std::mem::take(&mut self.delays);
        segments.clear();
        delays.clear();

        for &pid in schedule {
            if pid.index() >= self.config.n {
                return Err(SimError::UnknownProcess {
                    pid,
                    n: self.config.n,
                });
            }
            if self.statuses[pid.index()].is_crashed() {
                continue;
            }
            inbox.clear();
            self.network
                .collect_deliverable_into(pid, self.now, &mut inbox);
            for env in &inbox {
                self.metrics.record_delivery(pid, env.sent_at, self.now);
            }
            self.metrics
                .record_step(pid, self.last_scheduled[pid.index()], self.now);
            self.last_scheduled[pid.index()] = self.now;

            outbox.begin_segment();
            self.processes[pid.index()].on_step(self.now, &mut inbox, &mut outbox);
            self.quiescent[pid.index()] = self.processes[pid.index()].is_quiescent();

            self.metrics.record_sent(pid, outbox.len() as u64);
            if let Some(&(to, _)) = outbox
                .sends()
                .iter()
                .find(|(to, _)| to.index() >= self.config.n)
            {
                return Err(SimError::UnknownProcess {
                    pid: to,
                    n: self.config.n,
                });
            }
            segments.push((pid, outbox.log().len()));
        }

        // Assign delays against one view snapshot taken after all local
        // steps of this tick: only `in_flight` could still change during the
        // sends below, and the batch's delay decisions deliberately all see
        // the pre-send count (documented on `SystemView::in_flight`).
        {
            let view = self.view();
            let log = outbox.log();
            let mut begin = 0;
            for &(from, end) in &segments {
                for &(to, _) in &log[begin..end] {
                    if self.statuses[to.index()].is_crashed() {
                        delays.push(0);
                        continue;
                    }
                    let meta = EnvelopeMeta {
                        from,
                        to,
                        sent_at: self.now,
                    };
                    let chosen = delay_for(&meta, &view);
                    if chosen == 0 || (chosen > self.config.d && chosen != u64::MAX) {
                        return Err(SimError::DelayOutOfBounds {
                            from,
                            to,
                            delay: chosen,
                            d: self.config.d,
                        });
                    }
                    delays.push(chosen);
                }
                begin = end;
            }
        }

        let mut sends = outbox.drain_log().zip(delays.iter());
        let mut begin = 0;
        for &(from, end) in &segments {
            for ((to, payload), &delay) in sends.by_ref().take(end - begin) {
                // Messages to crashed destinations are dropped (they can
                // never be received) but they were already counted as sent
                // above.
                if delay == 0 {
                    self.metrics.record_dropped(1);
                    continue;
                }
                self.network.push(from, to, self.now, payload, delay);
            }
            begin = end;
        }
        drop(sends);

        if self.system_quiescent() {
            self.metrics.record_quiescence(self.now);
        }
        self.metrics.elapsed_steps += 1;
        self.now.tick();

        // Drop any envelopes a process left unread so they don't outlive the
        // step inside the reused buffer.
        inbox.clear();
        self.inbox = inbox;
        self.outbox = outbox;
        self.segments = segments;
        self.delays = delays;
        Ok(())
    }

    /// Runs until the system is quiescent or the step limit is reached.
    pub fn run_with<A: Adversary>(&mut self, adversary: &mut A) -> SimResult<RunOutcome> {
        self.run_until(adversary, |_| false)
    }

    /// Runs until the system is quiescent, `stop` returns true, or the step
    /// limit is reached. The predicate is evaluated after every step.
    ///
    /// With [`SimConfig::idle_fast_forward`] enabled, whenever every alive
    /// process is quiescent and messages are still in flight the loop jumps
    /// the clock straight to the network's earliest delivery deadline instead
    /// of ticking through the idle window (during which every local step
    /// would be a receive-nothing/send-nothing no-op); the skipped steps are
    /// counted in [`Metrics::idle_steps_skipped`].
    pub fn run_until<A: Adversary>(
        &mut self,
        adversary: &mut A,
        mut stop: impl FnMut(&Self) -> bool,
    ) -> SimResult<RunOutcome> {
        loop {
            if self.system_quiescent() {
                self.metrics.record_quiescence(self.now);
                return Ok(RunOutcome {
                    reason: StopReason::Quiescent,
                    stopped_at: self.now,
                });
            }
            if stop(self) {
                return Ok(RunOutcome {
                    reason: StopReason::Predicate,
                    stopped_at: self.now,
                });
            }
            if self.config.idle_fast_forward {
                self.idle_fast_forward();
            }
            if self.now.as_u64() >= self.config.max_steps {
                return Err(SimError::StepLimitExceeded {
                    max_steps: self.config.max_steps,
                });
            }
            self.step_with(adversary)?;
        }
    }

    /// Jumps `now` to the network's earliest delivery deadline if every alive
    /// process is quiescent, at least one message is in flight, and that
    /// deadline is in the future. No-op otherwise.
    ///
    /// The jump is capped at [`SimConfig::max_steps`] so that a system whose
    /// only traffic is withheld forever (deadline `u64::MAX`) still
    /// terminates with [`SimError::StepLimitExceeded`] instead of warping the
    /// clock past the limit.
    fn idle_fast_forward(&mut self) {
        if self.network.is_empty() {
            return;
        }
        let all_quiet = self
            .statuses
            .iter()
            .zip(&self.quiescent)
            .all(|(s, q)| s.is_crashed() || *q);
        if !all_quiet {
            return;
        }
        let Some(deadline) = self.network.earliest_deliverable() else {
            return;
        };
        let target = deadline.as_u64().min(self.config.max_steps);
        let skipped = target.saturating_sub(self.now.as_u64());
        if skipped == 0 {
            return;
        }
        self.now = TimeStep(target);
        self.metrics.idle_steps_skipped += skipped;
    }

    /// Consumes the simulation and returns its parts: the process state
    /// machines (for post-hoc correctness checks) and the metrics.
    pub fn into_parts(self) -> (Vec<P>, Metrics) {
        (self.processes, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::FairObliviousAdversary;

    /// A toy protocol: flood a single token once, then stay quiet. Used to
    /// exercise the engine itself.
    #[derive(Debug, Clone)]
    struct OneShotFlood {
        id: ProcessId,
        n: usize,
        sent: bool,
        received: Vec<ProcessId>,
    }

    impl OneShotFlood {
        fn new(id: ProcessId, n: usize) -> Self {
            OneShotFlood {
                id,
                n,
                sent: false,
                received: Vec::new(),
            }
        }
    }

    impl Process for OneShotFlood {
        type Message = ProcessId;

        fn on_step(
            &mut self,
            _now: TimeStep,
            inbox: &mut Vec<Envelope<Self::Message>>,
            out: &mut Outbox<Self::Message>,
        ) {
            for env in inbox.drain(..) {
                self.received.push(env.payload);
            }
            if !self.sent {
                self.sent = true;
                for q in ProcessId::all(self.n) {
                    if q != self.id {
                        out.send(q, self.id);
                    }
                }
            }
        }

        fn is_quiescent(&self) -> bool {
            self.sent
        }
    }

    fn flood_sim(n: usize, f: usize, d: u64, delta: u64) -> Simulation<OneShotFlood> {
        let cfg = SimConfig::new(n, f)
            .with_d(d)
            .with_delta(delta)
            .with_seed(11);
        let procs = ProcessId::all(n).map(|p| OneShotFlood::new(p, n)).collect();
        Simulation::new(cfg, procs).unwrap()
    }

    #[test]
    fn rejects_process_count_mismatch() {
        let cfg = SimConfig::new(3, 1);
        let procs = vec![OneShotFlood::new(ProcessId(0), 3)];
        assert!(matches!(
            Simulation::new(cfg, procs),
            Err(SimError::ProcessCountMismatch { .. })
        ));
    }

    #[test]
    fn flood_completes_and_counts_messages() {
        let n = 8;
        let mut sim = flood_sim(n, 0, 1, 1);
        let mut adv = FairObliviousAdversary::new(1, 1, 3);
        let outcome = sim.run_with(&mut adv).unwrap();
        assert_eq!(outcome.reason, StopReason::Quiescent);
        // n processes each send n-1 messages.
        assert_eq!(sim.metrics().messages_sent, (n * (n - 1)) as u64);
        // Every process received from every other.
        for pid in ProcessId::all(n) {
            assert_eq!(sim.process(pid).received.len(), n - 1);
        }
        assert!(sim.metrics().quiescence_time.is_some());
        assert!(sim.metrics().max_delivery_delay <= 1);
    }

    #[test]
    fn crash_budget_is_enforced() {
        let mut sim = flood_sim(4, 1, 1, 1);
        sim.crash(ProcessId(0)).unwrap();
        // Second crash exceeds f = 1.
        assert!(matches!(
            sim.crash(ProcessId(1)),
            Err(SimError::CrashBudgetExceeded { .. })
        ));
        // Crashing an already-crashed process is a no-op.
        sim.crash(ProcessId(0)).unwrap();
        assert_eq!(sim.metrics().crashes, 1);
    }

    #[test]
    fn crashed_processes_do_not_step_or_receive() {
        let n = 4;
        let mut sim = flood_sim(n, 1, 1, 1);
        sim.crash(ProcessId(3)).unwrap();
        let mut adv = FairObliviousAdversary::new(1, 1, 5);
        sim.run_with(&mut adv).unwrap();
        // The crashed process never stepped.
        assert_eq!(sim.metrics().steps_by[3], 0);
        assert_eq!(sim.metrics().sent_by[3], 0);
        // Messages addressed to it were dropped, not delivered.
        assert_eq!(sim.metrics().delivered_to[3], 0);
        assert!(sim.metrics().messages_dropped >= (n - 1) as u64);
    }

    #[test]
    fn manual_stepping_with_withheld_messages() {
        let n = 3;
        let mut sim = flood_sim(n, 0, 1, 1);
        // Schedule only process 0 and withhold everything it sends.
        sim.step_manual(&[ProcessId(0)], &[], |_| u64::MAX).unwrap();
        assert_eq!(sim.metrics().messages_sent, (n - 1) as u64);
        assert_eq!(sim.in_flight(), n - 1);
        assert!(!sim.system_quiescent());
        assert!(!sim.system_quiescent_ignoring_withheld(TimeStep(1_000_000)));
        // The other two processes have not stepped yet, so they are not quiescent.
        sim.step_manual(&[ProcessId(1), ProcessId(2)], &[], |_| u64::MAX)
            .unwrap();
        assert!(sim.system_quiescent_ignoring_withheld(TimeStep(1_000_000)));
        // But with the withheld messages still pending, plain quiescence is false.
        assert!(!sim.system_quiescent());
    }

    #[test]
    fn step_limit_is_reported() {
        // A protocol that never becomes quiescent: keep resending forever.
        #[derive(Debug, Clone)]
        struct Chatter {
            n: usize,
        }
        impl Process for Chatter {
            type Message = ();
            fn on_step(
                &mut self,
                _now: TimeStep,
                _inbox: &mut Vec<Envelope<()>>,
                out: &mut Outbox<()>,
            ) {
                out.send(ProcessId(0), ());
                let _ = self.n;
            }
            fn is_quiescent(&self) -> bool {
                false
            }
        }
        let cfg = SimConfig::new(2, 0).with_max_steps(50);
        let mut sim = Simulation::new(cfg, vec![Chatter { n: 2 }, Chatter { n: 2 }]).unwrap();
        let mut adv = FairObliviousAdversary::new(1, 1, 1);
        assert!(matches!(
            sim.run_with(&mut adv),
            Err(SimError::StepLimitExceeded { max_steps: 50 })
        ));
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let mut sim = flood_sim(6, 0, 2, 2);
        let mut adv = FairObliviousAdversary::new(2, 2, 9);
        let outcome = sim
            .run_until(&mut adv, |s| s.metrics().messages_sent >= 5)
            .unwrap();
        assert_eq!(outcome.reason, StopReason::Predicate);
        assert!(sim.metrics().messages_sent >= 5);
    }

    #[test]
    fn actual_bounds_are_recorded() {
        let mut sim = flood_sim(6, 0, 3, 2);
        let mut adv = FairObliviousAdversary::new(3, 2, 17);
        sim.run_with(&mut adv).unwrap();
        assert!(sim.metrics().max_delivery_delay <= 3);
        assert!(sim.metrics().max_schedule_gap <= 2);
    }

    #[test]
    fn zero_delay_is_rejected() {
        let mut sim = flood_sim(3, 0, 2, 1);
        let err = sim.step_manual(&[ProcessId(0)], &[], |_| 0).unwrap_err();
        assert!(matches!(
            err,
            SimError::DelayOutOfBounds { delay: 0, d: 2, .. }
        ));
    }

    #[test]
    fn delay_above_d_is_rejected() {
        let mut sim = flood_sim(3, 0, 2, 1);
        let err = sim.step_manual(&[ProcessId(0)], &[], |_| 5).unwrap_err();
        assert!(matches!(
            err,
            SimError::DelayOutOfBounds { delay: 5, d: 2, .. }
        ));
        // Nothing entered the network: the step failed before sending.
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn an_invalid_delay_on_the_last_message_of_a_step_sends_nothing() {
        // Three processes each send two messages; only the very last one of
        // the step (p2 -> p1) gets an invalid delay. A step that handed each
        // message to the network as soon as its delay was chosen would have
        // sent the first five already.
        let mut sim = flood_sim(3, 0, 2, 1);
        let schedule = [ProcessId(0), ProcessId(1), ProcessId(2)];
        let err = sim
            .step_manual(&schedule, &[], |meta| {
                if (meta.from, meta.to) == (ProcessId(2), ProcessId(1)) {
                    9
                } else {
                    1
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::DelayOutOfBounds { delay: 9, d: 2, .. }
        ));
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn delays_are_chosen_in_schedule_then_send_order_against_one_view() {
        // Records every `message_delay` call: (now, from, to, in_flight).
        struct Recorder {
            plans: Vec<StepPlan>,
            calls: Vec<(TimeStep, ProcessId, ProcessId, usize)>,
        }
        impl Adversary for Recorder {
            fn plan_step(&mut self, _view: &SystemView<'_>) -> StepPlan {
                self.plans.remove(0)
            }
            fn message_delay(&mut self, meta: &EnvelopeMeta, view: &SystemView<'_>) -> u64 {
                assert!(
                    view.statuses[meta.to.index()].is_alive(),
                    "a delay was chosen for crashed {}",
                    meta.to
                );
                self.calls
                    .push((view.now, meta.from, meta.to, view.in_flight));
                // Withhold everything sent to p0; the rest is due in d = 2.
                if meta.to == ProcessId(0) {
                    u64::MAX
                } else {
                    2
                }
            }
        }
        let (p0, p1, p2, p3, p4) = (
            ProcessId(0),
            ProcessId(1),
            ProcessId(2),
            ProcessId(3),
            ProcessId(4),
        );
        let mut adv = Recorder {
            plans: vec![
                StepPlan::schedule_only(vec![p4]),
                StepPlan {
                    schedule: vec![p3, p1, p0],
                    crash: vec![p2],
                },
            ],
            calls: Vec::new(),
        };
        let mut sim = flood_sim(5, 1, 2, 1);
        sim.step_with(&mut adv).unwrap();
        assert_eq!(sim.in_flight(), 4);
        adv.calls.clear();
        sim.step_with(&mut adv).unwrap();

        // The crash drops p4's message to p2 first: three stay in flight.
        // Then p3, p1 and p0 each send to the four others in id order, and
        // nothing is asked about the crashed p2.
        let t = TimeStep(1);
        let expected: Vec<_> = [
            (p3, p0),
            (p3, p1),
            (p3, p4),
            (p1, p0),
            (p1, p3),
            (p1, p4),
            (p0, p1),
            (p0, p3),
            (p0, p4),
        ]
        .into_iter()
        .map(|(from, to)| (t, from, to, 3))
        .collect();
        assert_eq!(adv.calls, expected);
        // 3 earlier + 9 new; the three messages to p2 were dropped.
        assert_eq!(sim.in_flight(), 12);
        assert_eq!(sim.metrics().messages_dropped, 4);
        assert_eq!(sim.metrics().messages_sent, 16);
    }

    #[test]
    fn adversary_delays_are_validated_too() {
        struct RogueAdversary;
        impl Adversary for RogueAdversary {
            fn plan_step(&mut self, view: &SystemView<'_>) -> StepPlan {
                StepPlan::schedule_only(view.alive().collect())
            }
            fn message_delay(&mut self, _meta: &EnvelopeMeta, _view: &SystemView<'_>) -> u64 {
                7 // exceeds every flood_sim d below
            }
        }
        let mut sim = flood_sim(3, 0, 2, 1);
        assert!(matches!(
            sim.step_with(&mut RogueAdversary),
            Err(SimError::DelayOutOfBounds { delay: 7, d: 2, .. })
        ));
    }

    #[test]
    fn withheld_marker_passes_validation() {
        let mut sim = flood_sim(3, 0, 1, 1);
        sim.step_manual(&[ProcessId(0)], &[], |_| u64::MAX).unwrap();
        assert_eq!(sim.in_flight(), 2);
    }

    #[test]
    fn idle_fast_forward_jumps_to_next_deadline() {
        // One-shot flood with a large delivery bound: after the first step
        // everyone is quiescent and all traffic is in flight, so the idle
        // window until the earliest deadline can be skipped wholesale.
        let n = 8;
        let d = 64;
        let cfg = SimConfig::new(n, 0)
            .with_d(d)
            .with_delta(1)
            .with_seed(11)
            .with_idle_fast_forward(true);
        let procs = ProcessId::all(n).map(|p| OneShotFlood::new(p, n)).collect();
        let mut sim: Simulation<OneShotFlood> = Simulation::new(cfg, procs).unwrap();
        let mut adv = FairObliviousAdversary::new(d, 1, 11);
        let outcome = sim.run_with(&mut adv).unwrap();
        assert_eq!(outcome.reason, StopReason::Quiescent);
        assert_eq!(sim.metrics().messages_sent, (n * (n - 1)) as u64);
        for pid in ProcessId::all(n) {
            assert_eq!(sim.process(pid).received.len(), n - 1);
        }
        assert!(
            sim.metrics().idle_steps_skipped > 0,
            "a d = 64 flood must contain skippable idle windows"
        );
        // Wall-clock time (executed + skipped) adds up to the stop time.
        assert_eq!(
            sim.metrics().elapsed_steps + sim.metrics().idle_steps_skipped,
            outcome.stopped_at.as_u64()
        );
    }

    #[test]
    fn idle_fast_forward_preserves_quiescence_time_when_delta_is_one() {
        // With δ = 1 every process is scheduled every step, so deliveries
        // happen exactly at their deadlines whether or not the idle windows
        // in between are fast-forwarded: the quiescence time must agree.
        let n = 6;
        let d = 32;
        let run = |fast_forward: bool| {
            let cfg = SimConfig::new(n, 0)
                .with_d(d)
                .with_delta(1)
                .with_seed(23)
                .with_idle_fast_forward(fast_forward);
            let procs = ProcessId::all(n).map(|p| OneShotFlood::new(p, n)).collect();
            let mut sim: Simulation<OneShotFlood> = Simulation::new(cfg, procs).unwrap();
            let mut adv = FairObliviousAdversary::new(d, 1, 23);
            let outcome = sim.run_with(&mut adv).unwrap();
            (outcome, sim.metrics().clone())
        };
        let (slow_outcome, slow) = run(false);
        let (fast_outcome, fast) = run(true);
        assert_eq!(slow_outcome.stopped_at, fast_outcome.stopped_at);
        assert_eq!(slow.quiescence_time, fast.quiescence_time);
        assert_eq!(slow.messages_sent, fast.messages_sent);
        assert_eq!(slow.messages_delivered, fast.messages_delivered);
        assert_eq!(slow.idle_steps_skipped, 0);
        assert!(fast.idle_steps_skipped > 0);
        assert!(fast.elapsed_steps < slow.elapsed_steps);
    }

    #[test]
    fn idle_fast_forward_still_hits_step_limit_on_withheld_traffic() {
        // Every message withheld forever: the earliest deadline saturates, so
        // fast-forward must cap the jump at max_steps and report the limit.
        struct WithholdingAdversary;
        impl Adversary for WithholdingAdversary {
            fn plan_step(&mut self, view: &SystemView<'_>) -> StepPlan {
                StepPlan::schedule_only(view.alive().collect())
            }
            fn message_delay(&mut self, _meta: &EnvelopeMeta, _view: &SystemView<'_>) -> u64 {
                u64::MAX
            }
        }
        let cfg = SimConfig::new(3, 0)
            .with_max_steps(100)
            .with_idle_fast_forward(true);
        let procs = ProcessId::all(3).map(|p| OneShotFlood::new(p, 3)).collect();
        let mut sim: Simulation<OneShotFlood> = Simulation::new(cfg, procs).unwrap();
        assert!(matches!(
            sim.run_with(&mut WithholdingAdversary),
            Err(SimError::StepLimitExceeded { max_steps: 100 })
        ));
    }

    #[test]
    fn pending_messages_can_be_inspected() {
        let mut sim = flood_sim(3, 0, 5, 1);
        sim.step_manual(&[ProcessId(0)], &[], |_| 5).unwrap();
        let pending = sim.pending_messages_for(ProcessId(1));
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].from, ProcessId(0));
    }

    #[test]
    fn into_parts_returns_final_states() {
        let mut sim = flood_sim(3, 0, 1, 1);
        let mut adv = FairObliviousAdversary::new(1, 1, 2);
        sim.run_with(&mut adv).unwrap();
        let (procs, metrics) = sim.into_parts();
        assert_eq!(procs.len(), 3);
        assert!(metrics.quiescence_time.is_some());
    }
}
