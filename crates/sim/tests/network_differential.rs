//! Differential tests against the historical `VecDeque`-scan network.
//!
//! The seed's network was a per-destination `VecDeque` popped and rebuilt on
//! every collection. These tests keep that implementation alive as an
//! executable model and check, across random schedules, delays, crashes, and
//! withheld messages, that [`Network`] produces **identical** behaviour:
//!
//! * `network_matches_reference_model` drives the network and the model
//!   through the same operation sequence and compares every delivered batch
//!   (content *and* order), plus every observable query. The sequence
//!   includes runs of one sender's repeated payload to one destination in
//!   one step, which the network shares between records with a copy count
//!   while the model keeps one entry per message.
//! * `a_counted_send_equals_single_sends` and
//!   `a_counted_send_straddling_the_record_cap_equals_single_sends` send
//!   one envelope of `c` copies to one network and `c` single envelopes to
//!   another and to the model: the two networks must hold the same records
//!   (one envelope per record, with its count, out of
//!   `collect_deliverable_into`), and the model the same messages.
//! * `earliest_is_exact_after_every_partial_collection` and
//!   `long_unscheduled_destination_gets_one_batch_in_send_order` aim the same
//!   comparison at the two cases a collection pass must get right: keeping
//!   some messages while taking others, and a batch spanning many deadlines.
//! * `simulation_matches_reference_stepper` replays the seed's whole step
//!   body (crash → deliver → compute → send, `VecDeque` network and all) for
//!   a deterministic request/reply protocol and compares the envelope
//!   sequence every process received, the quiescence time, and the metric
//!   counters against a real [`Simulation`] driven through `step_manual`
//!   with the same schedules, crashes, and delay choices.

use std::collections::VecDeque;

use proptest::prelude::*;

use agossip_sim::{Envelope, Network, Outbox, Process, ProcessId, SimConfig, Simulation, TimeStep};

/// A tiny deterministic PRNG (splitmix64) used to expand one proptest-drawn
/// seed into a full scenario; keeps the strategies simple while still
/// exploring a large space.
struct Prng(u64);

impl Prng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// `default` cases per property, or `PROPTEST_CASES` when it is set: the
/// nightly Miri job runs this file on a handful of cases, the interpreter
/// being some hundred times slower.
fn cases(default: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

// ---------------------------------------------------------------------------
// Part 1: the network against the seed VecDeque model.
// ---------------------------------------------------------------------------

/// The seed implementation, verbatim in behaviour: a per-destination
/// `VecDeque` scanned (popped and rebuilt) on every collection.
struct ReferenceNetwork<M> {
    queues: Vec<VecDeque<(Envelope<M>, TimeStep)>>,
    in_flight: usize,
}

impl<M> ReferenceNetwork<M> {
    fn new(n: usize) -> Self {
        ReferenceNetwork {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            in_flight: 0,
        }
    }

    fn send(&mut self, envelope: Envelope<M>, delay: u64) {
        let deliverable_at = envelope.sent_at.after(delay);
        let to = envelope.to.index();
        self.queues[to].push_back((envelope, deliverable_at));
        self.in_flight += 1;
    }

    fn collect_deliverable(&mut self, to: ProcessId, now: TimeStep) -> Vec<Envelope<M>> {
        let queue = &mut self.queues[to.index()];
        let mut delivered = Vec::new();
        let mut remaining = VecDeque::with_capacity(queue.len());
        while let Some((env, at)) = queue.pop_front() {
            if at <= now {
                delivered.push(env);
            } else {
                remaining.push_back((env, at));
            }
        }
        *queue = remaining;
        self.in_flight -= delivered.len();
        delivered
    }

    fn drop_for(&mut self, to: ProcessId) -> usize {
        let queue = &mut self.queues[to.index()];
        let dropped = queue.len();
        queue.clear();
        self.in_flight -= dropped;
        dropped
    }

    fn earliest_deliverable_for(&self, to: ProcessId) -> Option<TimeStep> {
        self.queues[to.index()].iter().map(|(_, at)| *at).min()
    }

    fn all_beyond(&self, horizon: TimeStep) -> bool {
        self.queues.iter().flatten().all(|(_, at)| *at > horizon)
    }

    fn earliest_deliverable(&self) -> Option<TimeStep> {
        self.queues.iter().flatten().map(|(_, at)| *at).min()
    }
}

/// Every observable query of `network` agrees with the model's at `now`.
fn observables_agree(network: &Network<u64>, model: &ReferenceNetwork<u64>, now: TimeStep) {
    assert_eq!(network.in_flight(), model.in_flight);
    for pid in ProcessId::all(network.n()) {
        assert_eq!(
            network.earliest_deliverable_for(pid),
            model.earliest_deliverable_for(pid)
        );
        assert_eq!(network.pending_for(pid), model.queues[pid.index()].len());
        assert_eq!(
            network.clone_pending_for(pid),
            model.queues[pid.index()]
                .iter()
                .map(|(env, _)| env.clone())
                .collect::<Vec<_>>(),
            "pending order diverged"
        );
    }
    assert_eq!(network.all_beyond(now), model.all_beyond(now));
    assert_eq!(
        network.earliest_deliverable(),
        model.earliest_deliverable(),
        "network-wide earliest deadline diverged"
    );
}

/// A delay in `[1, d]`, or withheld one time in ten.
fn draw_delay(prng: &mut Prng, d: u64) -> u64 {
    if prng.chance(10) {
        u64::MAX
    } else {
        1 + prng.below(d)
    }
}

proptest! {
    #![proptest_config(cases(64))]

    /// Same operation sequence in, same observations out — including the
    /// order of every delivered batch.
    ///
    /// Besides single sends of fresh payloads, the sequence holds runs of
    /// repeated payloads — one sender's copies of one payload to one
    /// destination in one step, with mixed delays, withheld ones included —
    /// which the network keeps as one record per delay with a copy count.
    /// A run may interleave another payload of the same sender or another
    /// sender's copy of the same payload, may see a collection or a
    /// crash-drop of its destination midway, and may repeat an earlier
    /// step's run; the observables are compared after every send of the
    /// run.
    #[test]
    fn network_matches_reference_model(
        n_base in 2usize..8,
        wide in any::<bool>(),
        d in 1u64..6,
        ops in 20usize..160,
        scenario in 0u64..1_000_000,
    ) {
        // Half the cases use a wide universe, so `earliest_deliverable` and
        // `all_beyond` take their minimum over mostly empty queues.
        let n = if wide { n_base * 24 } else { n_base };
        let mut prng = Prng(scenario);
        let mut network: Network<u64> = Network::new(n);
        let mut model: ReferenceNetwork<u64> = ReferenceNetwork::new(n);
        let mut now = TimeStep::ZERO;
        let mut next_payload = 0u64;
        let mut last_run = None;

        for _ in 0..ops {
            match prng.below(12) {
                // Send (most common): random pair, delay in [1, d] or withheld.
                0..=5 => {
                    let from = ProcessId(prng.below(n as u64) as usize);
                    let to = ProcessId(prng.below(n as u64) as usize);
                    let delay = draw_delay(&mut prng, d);
                    let env = Envelope { from, to, sent_at: now, payload: next_payload, copies: 1 };
                    next_payload += 1;
                    network.send(env.clone(), delay);
                    model.send(env, delay);
                }
                // A run of repeated payloads: one sender, one destination,
                // one step.
                6..=7 => {
                    // Often the previous run again, so equal payloads from
                    // one sender also meet across steps.
                    let (from, to, repeated) = match last_run {
                        Some(run) if prng.chance(40) => run,
                        _ => {
                            next_payload += 1;
                            (
                                ProcessId(prng.below(n as u64) as usize),
                                ProcessId(prng.below(n as u64) as usize),
                                next_payload - 1,
                            )
                        }
                    };
                    last_run = Some((from, to, repeated));
                    for _ in 0..2 + prng.below(12) {
                        let roll = prng.below(20);
                        if roll == 0 {
                            let got = network.collect_deliverable(to, now);
                            let expected = model.collect_deliverable(to, now);
                            prop_assert_eq!(got, expected, "batch diverged mid-run");
                        } else if roll == 1 {
                            prop_assert_eq!(network.drop_for(to), model.drop_for(to));
                        } else {
                            let (sender, payload) = match roll {
                                // Another payload of the same sender.
                                2..=3 => {
                                    next_payload += 1;
                                    (from, next_payload - 1)
                                }
                                // Another sender's copy of the same payload.
                                4 => (ProcessId(prng.below(n as u64) as usize), repeated),
                                _ => (from, repeated),
                            };
                            let delay = draw_delay(&mut prng, d);
                            let env = Envelope { from: sender, to, sent_at: now, payload, copies: 1 };
                            network.send(env.clone(), delay);
                            model.send(env, delay);
                        }
                        observables_agree(&network, &model, now);
                    }
                }
                // Collect for a random destination.
                8..=9 => {
                    let to = ProcessId(prng.below(n as u64) as usize);
                    let got = network.collect_deliverable(to, now);
                    let expected = model.collect_deliverable(to, now);
                    prop_assert_eq!(got, expected, "delivered batch diverged");
                }
                // Crash: drop a random destination's queue.
                10 => {
                    let to = ProcessId(prng.below(n as u64) as usize);
                    prop_assert_eq!(network.drop_for(to), model.drop_for(to));
                }
                // Advance time.
                _ => {
                    now = now.after(1 + prng.below(d));
                }
            }

            // Observables agree after every operation.
            observables_agree(&network, &model, now);
        }

        // Drain everything still deliverable and compare the final batches.
        now = now.after(d);
        for pid in ProcessId::all(n) {
            prop_assert_eq!(
                network.collect_deliverable(pid, now),
                model.collect_deliverable(pid, now)
            );
        }
        prop_assert_eq!(network.in_flight(), model.in_flight);
    }
}

/// The network's per-record copy cap, 2^12 (private to the network: the
/// bits of a record's sender word above the 20 sender bits).
const RECORD_CAP: u32 = 1 << 12;

/// One envelope per record due at `now` for `to`, each with its count.
fn due_records(network: &mut Network<u64>, to: ProcessId, now: TimeStep) -> Vec<Envelope<u64>> {
    let mut records = Vec::new();
    network.collect_deliverable_into(to, now, &mut records);
    records
}

proptest! {
    #![proptest_config(cases(64))]

    /// A send of `c` copies is `c` single sends: the same records in the
    /// same order, and, expanded, the model's messages. Few senders and
    /// payloads, so a counted send often lands on a run of earlier records
    /// it may join.
    #[test]
    fn a_counted_send_equals_single_sends(
        n in 2usize..6,
        d in 1u64..6,
        ops in 10usize..80,
        scenario in 0u64..1_000_000,
    ) {
        let mut prng = Prng(scenario);
        let mut counted: Network<u64> = Network::new(n);
        let mut singles: Network<u64> = Network::new(n);
        let mut model: ReferenceNetwork<u64> = ReferenceNetwork::new(n);
        let mut now = TimeStep::ZERO;
        for _ in 0..ops {
            match prng.below(8) {
                0..=4 => {
                    let copies = 1 + prng.below(12) as u32;
                    let env = Envelope {
                        from: ProcessId(prng.below(2) as usize),
                        to: ProcessId(prng.below(n as u64) as usize),
                        sent_at: now,
                        payload: prng.below(3),
                        copies,
                    };
                    let delay = draw_delay(&mut prng, d);
                    let single = Envelope { copies: 1, ..env.clone() };
                    counted.send(env, delay);
                    for _ in 0..copies {
                        singles.send(single.clone(), delay);
                        model.send(single.clone(), delay);
                    }
                }
                5 => {
                    let to = ProcessId(prng.below(n as u64) as usize);
                    let records = due_records(&mut counted, to, now);
                    prop_assert_eq!(&records, &due_records(&mut singles, to, now));
                    let messages: Vec<_> = records
                        .iter()
                        .flat_map(|env| {
                            std::iter::repeat_n(Envelope { copies: 1, ..env.clone() }, env.copies as usize)
                        })
                        .collect();
                    prop_assert_eq!(messages, model.collect_deliverable(to, now));
                }
                6 => {
                    let to = ProcessId(prng.below(n as u64) as usize);
                    let dropped = counted.drop_for(to);
                    prop_assert_eq!(dropped, singles.drop_for(to));
                    prop_assert_eq!(dropped, model.drop_for(to));
                }
                _ => now = now.after(1 + prng.below(d)),
            }
            observables_agree(&counted, &model, now);
            prop_assert_eq!(counted.in_flight(), singles.in_flight());
        }
    }
}

/// Counts that fill a record exactly, straddle the cap, span several
/// records, or top up a record already queued at the same delay (across a
/// record of another delay) come out as the same records as that many
/// single sends.
#[test]
fn a_counted_send_straddling_the_record_cap_equals_single_sends() {
    let to = ProcessId(1);
    let env = |copies| Envelope {
        from: ProcessId(0),
        to,
        sent_at: TimeStep(4),
        payload: 9u64,
        copies,
    };
    for (queued, copies) in [
        (0, RECORD_CAP - 1),
        (0, RECORD_CAP),
        (0, RECORD_CAP + 1),
        (RECORD_CAP - 5, 9),
        (3, 2 * RECORD_CAP + 7),
    ] {
        let mut counted: Network<u64> = Network::new(2);
        let mut singles: Network<u64> = Network::new(2);
        for _ in 0..queued {
            counted.send(env(1), 2);
            singles.send(env(1), 2);
        }
        counted.send(env(1), 1);
        singles.send(env(1), 1);
        counted.send(env(copies), 2);
        for _ in 0..copies {
            singles.send(env(1), 2);
        }
        let total = (queued + 1 + copies) as usize;
        assert_eq!(counted.in_flight(), total);
        assert_eq!(counted.pending_for(to), total);
        assert_eq!(counted.clone_pending_for(to), singles.clone_pending_for(to));
        let records = due_records(&mut counted, to, TimeStep(6));
        assert_eq!(records, due_records(&mut singles, to, TimeStep(6)));
        assert!(records.iter().all(|r| (1..=RECORD_CAP).contains(&r.copies)));
        assert_eq!(
            records.iter().map(|r| r.copies as usize).sum::<usize>(),
            total,
            "{queued} queued + {copies}"
        );
        assert!(counted.is_empty());
    }
}

/// Withheld and due traffic interleaved on one destination: a collection
/// that takes some messages and keeps others must leave the destination's
/// earliest deadline exact, whichever of the two kinds it kept.
#[test]
fn earliest_is_exact_after_every_partial_collection() {
    let to = ProcessId(1);
    for seed in 0..32 {
        let mut prng = Prng(seed);
        let d = 1 + prng.below(6);
        let mut network: Network<u64> = Network::new(2);
        let mut model: ReferenceNetwork<u64> = ReferenceNetwork::new(2);
        let mut next_payload = 0u64;
        let mut partial_collections = 0;
        for t in 0..200 {
            let now = TimeStep(t);
            for _ in 0..prng.below(4) {
                let delay = if prng.chance(30) {
                    u64::MAX
                } else {
                    1 + prng.below(d)
                };
                let env = Envelope {
                    from: ProcessId(0),
                    to,
                    sent_at: now,
                    payload: next_payload,
                    copies: 1,
                };
                next_payload += 1;
                network.send(env.clone(), delay);
                model.send(env, delay);
            }
            if prng.chance(60) {
                let got = network.collect_deliverable(to, now);
                if !got.is_empty() && network.pending_for(to) > 0 {
                    partial_collections += 1;
                }
                assert_eq!(got, model.collect_deliverable(to, now));
            }
            assert_eq!(
                network.earliest_deliverable_for(to),
                model.earliest_deliverable_for(to),
                "seed {seed}, t{t}"
            );
            assert_eq!(network.earliest_deliverable(), model.earliest_deliverable());
            assert_eq!(network.all_beyond(now), model.all_beyond(now));
        }
        assert!(partial_collections > 20, "seed {seed} must mix the two");
    }
}

/// A destination the adversary leaves unscheduled for more than 2d steps
/// while traffic keeps arriving: its one eventual batch spans many deadlines
/// (out of order within each step) and must still come out in send order,
/// with the withheld messages left behind.
#[test]
fn long_unscheduled_destination_gets_one_batch_in_send_order() {
    let d = 4u64;
    let to = ProcessId(0);
    let mut network: Network<u64> = Network::new(3);
    let mut model: ReferenceNetwork<u64> = ReferenceNetwork::new(3);
    let mut due = Vec::new();
    let mut payload = 0u64;
    for t in 0..3 * d {
        // Deadlines t+d, t+d-1, .., t+1, then one withheld message.
        for delay in (1..=d).rev().chain([u64::MAX]) {
            let env = Envelope {
                from: ProcessId(1 + (payload % 2) as usize),
                to,
                sent_at: TimeStep(t),
                payload,
                copies: 1,
            };
            if delay != u64::MAX {
                due.push(payload);
            }
            payload += 1;
            network.send(env.clone(), delay);
            model.send(env, delay);
        }
    }
    assert_eq!(network.earliest_deliverable_for(to), Some(TimeStep(1)));
    let now = TimeStep(4 * d);
    let got = network.collect_deliverable(to, now);
    assert_eq!(got, model.collect_deliverable(to, now));
    assert_eq!(got.iter().map(|e| e.payload).collect::<Vec<_>>(), due);
    assert_eq!(network.pending_for(to), 3 * d as usize);
    assert_eq!(
        network.earliest_deliverable_for(to),
        Some(TimeStep(u64::MAX))
    );
    assert!(network.all_beyond(now));
}

// ---------------------------------------------------------------------------
// Part 2: the whole stepping core against the seed step body.
// ---------------------------------------------------------------------------

/// A deterministic request/reply protocol: on its first step a process sends
/// a REQUEST to every other process; every REQUEST is answered with one
/// REPLY. Receipt order is fully observable through `received`.
const REQUEST: u64 = 0;
const REPLY: u64 = 1;

#[derive(Debug, Clone)]
struct EchoFlood {
    id: ProcessId,
    n: usize,
    sent_initial: bool,
    pending_replies: Vec<ProcessId>,
    /// Every `(from, payload)` pair ever delivered, in delivery order.
    received: Vec<(ProcessId, u64)>,
}

impl EchoFlood {
    fn new(id: ProcessId, n: usize) -> Self {
        EchoFlood {
            id,
            n,
            sent_initial: false,
            pending_replies: Vec::new(),
            received: Vec::new(),
        }
    }

    /// The protocol logic shared by the real `Process` impl and the
    /// reference stepper.
    fn step_logic(
        &mut self,
        inbox: impl Iterator<Item = (ProcessId, u64)>,
        sends: &mut Vec<(ProcessId, u64)>,
    ) {
        for (from, payload) in inbox {
            self.received.push((from, payload));
            if payload == REQUEST {
                self.pending_replies.push(from);
            }
        }
        if !self.sent_initial {
            self.sent_initial = true;
            for q in ProcessId::all(self.n) {
                if q != self.id {
                    sends.push((q, REQUEST));
                }
            }
        }
        for to in std::mem::take(&mut self.pending_replies) {
            sends.push((to, REPLY));
        }
    }

    fn quiet(&self) -> bool {
        self.sent_initial && self.pending_replies.is_empty()
    }
}

impl Process for EchoFlood {
    type Message = u64;

    fn on_step(
        &mut self,
        _now: TimeStep,
        inbox: &mut Vec<Envelope<Self::Message>>,
        out: &mut Outbox<Self::Message>,
    ) {
        let mut sends = Vec::new();
        let drained: Vec<(ProcessId, u64)> = inbox
            .drain(..)
            .flat_map(|env| std::iter::repeat_n((env.from, env.payload), env.copies as usize))
            .collect();
        self.step_logic(drained.into_iter(), &mut sends);
        for (to, payload) in sends {
            out.send(to, payload);
        }
    }

    fn is_quiescent(&self) -> bool {
        self.quiet()
    }
}

/// Everything one comparison scenario needs: per-step schedules, crashes,
/// and the delay assigned to the i-th non-dropped send of the execution.
struct Scenario {
    n: usize,
    d: u64,
    schedules: Vec<Vec<ProcessId>>,
    crashes: Vec<Vec<ProcessId>>,
    delays: Vec<u64>,
}

fn build_scenario(n: usize, d: u64, steps: usize, f: usize, seed: u64) -> Scenario {
    let mut prng = Prng(seed);
    let mut schedules = Vec::with_capacity(steps);
    let mut crashes = Vec::with_capacity(steps);
    let mut crash_budget = f;
    let mut crashed = vec![false; n];
    for _ in 0..steps {
        // Random non-empty-ish subset; processes may legitimately be starved.
        let mut schedule = Vec::new();
        for pid in ProcessId::all(n) {
            if prng.chance(70) {
                schedule.push(pid);
            }
        }
        let mut step_crashes = Vec::new();
        if crash_budget > 0 && prng.chance(8) {
            let victim = prng.below(n as u64) as usize;
            if !crashed[victim] {
                crashed[victim] = true;
                crash_budget -= 1;
                step_crashes.push(ProcessId(victim));
            }
        }
        schedules.push(schedule);
        crashes.push(step_crashes);
    }
    // More delay draws than any execution can consume (one per sent message,
    // at most n-1 requests + n-1 replies per process).
    let delays = (0..2 * n * n)
        .map(|_| {
            if prng.chance(10) {
                u64::MAX
            } else {
                1 + prng.below(d)
            }
        })
        .collect();
    Scenario {
        n,
        d,
        schedules,
        crashes,
        delays,
    }
}

/// Observable outcome of one execution, used for the comparison.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    received: Vec<Vec<(ProcessId, u64)>>,
    messages_sent: u64,
    messages_delivered: u64,
    messages_dropped: u64,
    in_flight: usize,
    max_delivery_delay: u64,
    max_schedule_gap: u64,
    quiescence_time: Option<TimeStep>,
    crashes: usize,
}

/// Replays the scenario through the real engine (`step_manual`).
fn run_real(scenario: &Scenario) -> Observed {
    let config = SimConfig::new(scenario.n, scenario.n - 1)
        .with_d(scenario.d)
        .with_delta(scenario.schedules.len() as u64 + 1);
    let processes = ProcessId::all(scenario.n)
        .map(|id| EchoFlood::new(id, scenario.n))
        .collect();
    let mut sim: Simulation<EchoFlood> = Simulation::new(config, processes).unwrap();
    let mut next_delay = 0usize;
    for (schedule, crashes) in scenario.schedules.iter().zip(&scenario.crashes) {
        let delays = &scenario.delays;
        sim.step_manual(schedule, crashes, |_| {
            let d = delays[next_delay];
            next_delay += 1;
            d
        })
        .unwrap();
    }
    let metrics = sim.metrics();
    Observed {
        received: ProcessId::all(scenario.n)
            .map(|pid| sim.process(pid).received.clone())
            .collect(),
        messages_sent: metrics.messages_sent,
        messages_delivered: metrics.messages_delivered,
        messages_dropped: metrics.messages_dropped,
        in_flight: sim.in_flight(),
        max_delivery_delay: metrics.max_delivery_delay,
        max_schedule_gap: metrics.max_schedule_gap,
        quiescence_time: metrics.quiescence_time,
        crashes: metrics.crashes,
    }
}

/// Replays the scenario through a reimplementation of the seed's step body:
/// `VecDeque` network, same crash/deliver/compute/send order, same metric
/// updates.
fn run_reference(scenario: &Scenario) -> Observed {
    let n = scenario.n;
    let mut procs: Vec<EchoFlood> = ProcessId::all(n).map(|id| EchoFlood::new(id, n)).collect();
    let mut network: ReferenceNetwork<u64> = ReferenceNetwork::new(n);
    let mut alive = vec![true; n];
    let mut quiescent: Vec<bool> = procs.iter().map(|p| p.quiet()).collect();
    let mut last_scheduled = vec![TimeStep::ZERO; n];
    let mut now = TimeStep::ZERO;
    let mut next_delay = 0usize;
    let mut obs = Observed {
        received: Vec::new(),
        messages_sent: 0,
        messages_delivered: 0,
        messages_dropped: 0,
        in_flight: 0,
        max_delivery_delay: 0,
        max_schedule_gap: 0,
        quiescence_time: None,
        crashes: 0,
    };

    for (schedule, crashes) in scenario.schedules.iter().zip(&scenario.crashes) {
        for &victim in crashes {
            if alive[victim.index()] {
                alive[victim.index()] = false;
                obs.crashes += 1;
                obs.messages_dropped += network.drop_for(victim) as u64;
            }
        }
        let mut outgoing: Vec<Envelope<u64>> = Vec::new();
        for &pid in schedule {
            if !alive[pid.index()] {
                continue;
            }
            let inbox = network.collect_deliverable(pid, now);
            for env in &inbox {
                obs.messages_delivered += 1;
                obs.max_delivery_delay = obs.max_delivery_delay.max(now.since(env.sent_at));
            }
            let gap = now.since(last_scheduled[pid.index()]);
            obs.max_schedule_gap = obs.max_schedule_gap.max(gap);
            last_scheduled[pid.index()] = now;

            let mut sends = Vec::new();
            procs[pid.index()].step_logic(
                inbox.into_iter().map(|env| (env.from, env.payload)),
                &mut sends,
            );
            quiescent[pid.index()] = procs[pid.index()].quiet();
            obs.messages_sent += sends.len() as u64;
            for (to, payload) in sends {
                outgoing.push(Envelope {
                    from: pid,
                    to,
                    sent_at: now,
                    payload,
                    copies: 1,
                });
            }
        }
        for env in outgoing {
            if !alive[env.to.index()] {
                obs.messages_dropped += 1;
                continue;
            }
            let delay = scenario.delays[next_delay];
            next_delay += 1;
            network.send(env, delay);
        }
        let system_quiescent =
            alive.iter().zip(&quiescent).all(|(a, q)| !*a || *q) && network.in_flight == 0;
        if system_quiescent && obs.quiescence_time.is_none() {
            obs.quiescence_time = Some(now);
        }
        now.tick();
    }

    obs.in_flight = network.in_flight;
    obs.received = procs.into_iter().map(|p| p.received).collect();
    obs
}

proptest! {
    #![proptest_config(cases(48))]

    /// The rebuilt stepping core is observationally identical to the seed
    /// step body: same envelope sequence at every process, same quiescence
    /// time, same metric counters.
    #[test]
    fn simulation_matches_reference_stepper(
        n in 2usize..10,
        d in 1u64..5,
        steps in 10usize..60,
        scenario_seed in 0u64..1_000_000,
    ) {
        let scenario = build_scenario(n, d, steps, n / 2, scenario_seed);
        let real = run_real(&scenario);
        let reference = run_reference(&scenario);
        prop_assert_eq!(real, reference);
    }
}
