//! Execution metrics.
//!
//! These counters are exactly the quantities the paper's theorems bound:
//! total point-to-point messages sent (message complexity), the time at which
//! every correct process has completed (time complexity, measured in steps
//! and typically normalised by `d + δ`), and the *actual* `d` and `δ`
//! realised by the adversary's choices.

use crate::process::ProcessId;
use crate::time::TimeStep;

/// Counters accumulated while a [`crate::Simulation`] runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    /// Total point-to-point messages sent by all processes.
    pub messages_sent: u64,
    /// Total messages delivered to their recipients.
    pub messages_delivered: u64,
    /// Deliveries handed to local steps: one per network record, however
    /// many identical messages it stands for (see
    /// [`crate::Envelope::copies`]). Equals [`Self::messages_delivered`]
    /// when no record is shared; their ratio is the messages a delivery
    /// carries.
    pub deliveries: u64,
    /// Messages dropped because their recipient crashed.
    pub messages_dropped: u64,
    /// Per-process count of messages sent.
    pub sent_by: Vec<u64>,
    /// Per-process count of messages delivered.
    pub delivered_to: Vec<u64>,
    /// Per-process count of local steps taken.
    pub steps_by: Vec<u64>,
    /// Number of processes that have crashed so far.
    pub crashes: usize,
    /// Largest observed delivery delay (send → delivery), i.e. the actual `d`
    /// realised by the execution so far.
    pub max_delivery_delay: u64,
    /// Largest observed gap between consecutive schedulings of a live
    /// process, i.e. the actual `δ` realised so far.
    pub max_schedule_gap: u64,
    /// The first time at which every non-crashed process was quiescent and no
    /// deliverable message remained in flight, if that has happened.
    pub quiescence_time: Option<TimeStep>,
    /// Total number of global time steps executed.
    pub elapsed_steps: u64,
    /// Idle time steps the run loop skipped by jumping straight to the next
    /// delivery deadline (see [`crate::SimConfig::idle_fast_forward`]);
    /// always zero when fast-forward is disabled. Skipped steps advance the
    /// clock but are not counted in [`Self::elapsed_steps`].
    pub idle_steps_skipped: u64,
}

impl Metrics {
    /// Creates zeroed metrics for `n` processes.
    pub fn new(n: usize) -> Self {
        Metrics {
            messages_sent: 0,
            messages_delivered: 0,
            deliveries: 0,
            messages_dropped: 0,
            sent_by: vec![0; n],
            delivered_to: vec![0; n],
            steps_by: vec![0; n],
            crashes: 0,
            max_delivery_delay: 0,
            max_schedule_gap: 0,
            quiescence_time: None,
            elapsed_steps: 0,
            idle_steps_skipped: 0,
        }
    }

    /// Records that `by` sent `count` point-to-point messages.
    pub fn record_sent(&mut self, by: ProcessId, count: u64) {
        self.messages_sent += count;
        self.sent_by[by.index()] += count;
    }

    /// Records that `to` was delivered a message sent at `sent_at`, now.
    pub fn record_delivery(&mut self, to: ProcessId, sent_at: TimeStep, now: TimeStep) {
        self.record_copies_delivered(to, sent_at, now, 1);
    }

    /// Records one delivery to `to` of `copies` identical messages sent at
    /// `sent_at`, now.
    pub fn record_copies_delivered(
        &mut self,
        to: ProcessId,
        sent_at: TimeStep,
        now: TimeStep,
        copies: u32,
    ) {
        self.deliveries += 1;
        self.messages_delivered += u64::from(copies);
        self.delivered_to[to.index()] += u64::from(copies);
        let delay = now.since(sent_at);
        if delay > self.max_delivery_delay {
            self.max_delivery_delay = delay;
        }
    }

    /// Records that `count` messages addressed to a crashed process were
    /// discarded.
    pub fn record_dropped(&mut self, count: u64) {
        self.messages_dropped += count;
    }

    /// Records a local step by `pid` whose previous step was at
    /// `last_scheduled`.
    pub fn record_step(&mut self, pid: ProcessId, last_scheduled: TimeStep, now: TimeStep) {
        self.steps_by[pid.index()] += 1;
        let gap = now.since(last_scheduled);
        if gap > self.max_schedule_gap {
            self.max_schedule_gap = gap;
        }
    }

    /// Records a crash.
    pub fn record_crash(&mut self) {
        self.crashes += 1;
    }

    /// Records the quiescence time if not already set.
    pub fn record_quiescence(&mut self, at: TimeStep) {
        if self.quiescence_time.is_none() {
            self.quiescence_time = Some(at);
        }
    }

    /// Time complexity of the execution expressed in multiples of `d + δ`,
    /// rounded up, using the *configured* bounds `d` and `delta`.
    ///
    /// Returns `None` if the execution never became quiescent.
    pub fn normalized_time(&self, d: u64, delta: u64) -> Option<f64> {
        self.quiescence_time
            .map(|t| t.as_u64() as f64 / (d + delta) as f64)
    }

    /// Mean number of messages sent per process.
    pub fn mean_sent_per_process(&self) -> f64 {
        if self.sent_by.is_empty() {
            0.0
        } else {
            self.messages_sent as f64 / self.sent_by.len() as f64
        }
    }

    /// Largest number of messages sent by any single process.
    pub fn max_sent_by_any(&self) -> u64 {
        self.sent_by.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_metrics_are_zeroed() {
        let m = Metrics::new(3);
        assert_eq!(m.messages_sent, 0);
        assert_eq!(m.sent_by, vec![0, 0, 0]);
        assert_eq!(m.quiescence_time, None);
        assert_eq!(m.mean_sent_per_process(), 0.0);
        assert_eq!(m.max_sent_by_any(), 0);
    }

    #[test]
    fn sends_accumulate_per_process_and_globally() {
        let mut m = Metrics::new(2);
        m.record_sent(ProcessId(0), 3);
        m.record_sent(ProcessId(1), 2);
        m.record_sent(ProcessId(0), 1);
        assert_eq!(m.messages_sent, 6);
        assert_eq!(m.sent_by, vec![4, 2]);
        assert_eq!(m.max_sent_by_any(), 4);
        assert!((m.mean_sent_per_process() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn delivery_tracks_max_delay() {
        let mut m = Metrics::new(2);
        m.record_delivery(ProcessId(1), TimeStep(0), TimeStep(4));
        m.record_delivery(ProcessId(1), TimeStep(3), TimeStep(4));
        assert_eq!(m.messages_delivered, 2);
        assert_eq!(m.delivered_to[1], 2);
        assert_eq!(m.max_delivery_delay, 4);
        assert_eq!(m.deliveries, 2, "one copy each: a delivery per message");
    }

    #[test]
    fn a_counted_delivery_is_one_delivery_of_its_copies() {
        let mut m = Metrics::new(2);
        m.record_copies_delivered(ProcessId(1), TimeStep(1), TimeStep(3), 18);
        m.record_delivery(ProcessId(0), TimeStep(2), TimeStep(3));
        assert_eq!(m.messages_delivered, 19);
        assert_eq!(m.delivered_to, vec![1, 18]);
        assert_eq!(m.deliveries, 2);
        assert_eq!(m.max_delivery_delay, 2);
    }

    #[test]
    fn steps_track_max_gap() {
        let mut m = Metrics::new(1);
        m.record_step(ProcessId(0), TimeStep(0), TimeStep(0));
        m.record_step(ProcessId(0), TimeStep(0), TimeStep(5));
        m.record_step(ProcessId(0), TimeStep(5), TimeStep(6));
        assert_eq!(m.steps_by[0], 3);
        assert_eq!(m.max_schedule_gap, 5);
    }

    #[test]
    fn quiescence_records_first_time_only() {
        let mut m = Metrics::new(1);
        m.record_quiescence(TimeStep(10));
        m.record_quiescence(TimeStep(20));
        assert_eq!(m.quiescence_time, Some(TimeStep(10)));
        assert_eq!(m.normalized_time(3, 2), Some(2.0));
    }

    #[test]
    fn normalized_time_none_without_quiescence() {
        let m = Metrics::new(1);
        assert_eq!(m.normalized_time(1, 1), None);
    }

    #[test]
    fn crash_and_drop_counters() {
        let mut m = Metrics::new(2);
        m.record_crash();
        m.record_dropped(5);
        assert_eq!(m.crashes, 1);
        assert_eq!(m.messages_dropped, 5);
    }
}
