//! The counted send path against the per-copy one.
//!
//! [`SimGossip`] drives an engine through two provided methods of
//! [`GossipEngine`]: `local_step_into`, which `tears` overrides to log a
//! step's identical second-level broadcasts as one counted block, and
//! `deliver_copies`, which `tears` overrides to take a network record with
//! its count at once. [`PerCopy`] wraps an engine and implements only the
//! required methods (plus `msg_units`, which the wire accounting needs), so
//! it inherits the defaults: every copy logged, drawn, queued and delivered
//! one by one. A timing wrapper that forwards only those methods runs the
//! same path.
//!
//! Every test here runs one execution both ways and requires the same
//! observables: every [`Metrics`] field, the final rumor sets, each
//! process's wire units sent and received and local steps, and why and when
//! the run stopped. The grid covers `trivial`, `ears`, `sears` and `tears`
//! (and `CR-tears`), d ∈ {1, 2, 6}, δ ∈ {1, 2, 3}, crash plans that drop
//! counted blocks to crashed destinations, and manual stepping that
//! withholds messages forever.

use agossip_adversary::{crash_patterns, ObliviousPlan};
use agossip_analysis::experiments::{ExperimentScale, GossipProtocolKind};
use agossip_analysis::sweep::run_gossip_protocol;
use agossip_analysis::{ScenarioSpec, TrialProtocol};
use agossip_consensus::{
    run_consensus, ConsensusCtx, ConsensusProcess, ConsensusProtocol, ConsensusValue,
};
use agossip_core::{
    run_gossip, Ears, GossipCtx, GossipEngine, GossipReport, GossipSpec, RumorSet, Sears,
    SimGossip, Tears, Trivial,
};
use agossip_sim::{
    rng, Adversary, Metrics, ProcessId, SimConfig, SimError, Simulation, StopReason, TimeStep,
};

/// Forwards the required [`GossipEngine`] methods (and `msg_units`) to `G`
/// and inherits every other default: the per-copy path.
#[derive(Debug, Clone)]
struct PerCopy<G>(G);

impl<G: GossipEngine> GossipEngine for PerCopy<G> {
    type Msg = G::Msg;

    fn deliver(&mut self, from: ProcessId, msg: Self::Msg) {
        self.0.deliver(from, msg);
    }

    fn local_step(&mut self, out: &mut Vec<(ProcessId, Self::Msg)>) {
        self.0.local_step(out);
    }

    fn pid(&self) -> ProcessId {
        self.0.pid()
    }

    fn rumors(&self) -> &RumorSet {
        self.0.rumors()
    }

    fn is_quiescent(&self) -> bool {
        self.0.is_quiescent()
    }

    fn steps_taken(&self) -> u64 {
        self.0.steps_taken()
    }

    fn msg_units(msg: &Self::Msg) -> u64 {
        G::msg_units(msg)
    }
}

/// What one execution shows from outside.
#[derive(Debug, PartialEq)]
struct Observed {
    metrics: Metrics,
    final_rumors: Vec<RumorSet>,
    units_sent: Vec<u64>,
    units_received: Vec<u64>,
    steps_taken: Vec<u64>,
    stopped: Result<(StopReason, TimeStep), String>,
    in_flight: usize,
}

fn observe<G: GossipEngine>(
    sim: &Simulation<SimGossip<G>>,
    stopped: Result<(StopReason, TimeStep), SimError>,
) -> Observed {
    let processes = sim.processes();
    Observed {
        metrics: sim.metrics().clone(),
        final_rumors: processes
            .iter()
            .map(|p| p.engine().rumors().clone())
            .collect(),
        units_sent: processes.iter().map(|p| p.units_sent()).collect(),
        units_received: processes.iter().map(|p| p.units_received()).collect(),
        steps_taken: processes.iter().map(|p| p.engine().steps_taken()).collect(),
        stopped: stopped.map_err(|e| e.to_string()),
        in_flight: sim.in_flight(),
    }
}

fn simulation<G: GossipEngine>(
    config: &SimConfig,
    make: &impl Fn(GossipCtx) -> G,
) -> Simulation<SimGossip<G>> {
    let processes = ProcessId::all(config.n)
        .map(|pid| SimGossip::new(make(GossipCtx::new(pid, config.n, config.f, config.seed))))
        .collect();
    Simulation::new(config.clone(), processes).unwrap()
}

/// Runs `make`'s engines under `adversary` until quiescence.
fn run_adversary<G: GossipEngine>(
    config: &SimConfig,
    mut adversary: impl Adversary,
    make: impl Fn(GossipCtx) -> G,
) -> Observed {
    let mut sim = simulation(config, &make);
    let stopped = sim
        .run_with(&mut adversary)
        .map(|outcome| (outcome.reason, outcome.stopped_at));
    observe(&sim, stopped)
}

/// A deterministic manual execution: random schedules, an occasional
/// crash, and delays drawn one per `delay_for` call, a tenth of them
/// withheld forever.
fn run_manual<G: GossipEngine>(config: &SimConfig, make: impl Fn(GossipCtx) -> G) -> Observed {
    let mut sim = simulation(config, &make);
    let mut draws = Splitmix(config.seed ^ 0x5eed);
    let mut crashes_left = config.f;
    for _ in 0..12 * (config.d + config.delta) {
        let schedule: Vec<ProcessId> = ProcessId::all(config.n)
            .filter(|_| draws.below(100) < 70)
            .collect();
        let mut crash = Vec::new();
        if crashes_left > 0 && draws.below(100) < 10 {
            crashes_left -= 1;
            crash.push(ProcessId(draws.below(config.n as u64) as usize));
        }
        let d = config.d;
        let step = sim.step_manual(&schedule, &crash, |_| {
            if draws.below(10) == 0 {
                u64::MAX
            } else {
                1 + draws.below(d)
            }
        });
        if let Err(error) = step {
            return observe(&sim, Err(error));
        }
    }
    let now = sim.now();
    observe(&sim, Ok((StopReason::StepLimit, now)))
}

/// splitmix64, for the manual executions' choices.
struct Splitmix(u64);

impl Splitmix {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound.max(1)
    }
}

fn config(n: usize, f: usize, d: u64, delta: u64, seed: u64) -> SimConfig {
    SimConfig::new(n, f)
        .with_d(d)
        .with_delta(delta)
        .with_seed(seed)
        .with_max_steps(5_000)
}

/// The oblivious adversary of `config`, crashing `config.f` processes at
/// random within the first `2(d + δ)` steps.
fn crashing(config: &SimConfig) -> impl Adversary {
    let window = 2 * (config.d + config.delta);
    ObliviousPlan::from_config(config)
        .with_crashes(crash_patterns::random(
            config.n,
            config.f,
            window,
            config.seed,
        ))
        .build()
}

/// Runs one engine both ways over the grid and compares every execution.
/// Returns the messages delivered and the deliveries of the adversary runs,
/// summed over the grid, so a caller can check that records were shared.
fn check_engine<G: GossipEngine>(
    name: &str,
    n: usize,
    f: usize,
    make: impl Fn(GossipCtx) -> G + Copy,
) -> (u64, u64) {
    let (mut messages, mut deliveries) = (0, 0);
    for seed in [3u64, 2008] {
        for d in [1u64, 2, 6] {
            for delta in [1u64, 2, 3] {
                let cfg = config(n, f, d, delta, seed);
                let counted = run_adversary(&cfg, crashing(&cfg), make);
                let per_copy = run_adversary(&cfg, crashing(&cfg), |ctx| PerCopy(make(ctx)));
                assert_eq!(
                    counted, per_copy,
                    "{name} n={n} f={f} d={d} δ={delta} seed {seed}"
                );
                messages += counted.metrics.messages_delivered;
                deliveries += counted.metrics.deliveries;

                let counted = run_manual(&cfg, make);
                let per_copy = run_manual(&cfg, |ctx| PerCopy(make(ctx)));
                assert_eq!(
                    counted, per_copy,
                    "{name} n={n} f={f} d={d} δ={delta} seed {seed}, manual"
                );
            }
        }
    }
    (messages, deliveries)
}

/// The fields of a [`GossipReport`] (it has no `PartialEq` of its own).
fn report_fields(
    report: GossipReport,
) -> (
    Metrics,
    agossip_core::CheckReport,
    StopReason,
    Option<f64>,
    u64,
    Vec<RumorSet>,
) {
    (
        report.metrics,
        report.check,
        report.stop_reason,
        report.normalized_time,
        report.rumor_units_sent,
        report.final_rumors,
    )
}

#[test]
fn trivial_counted_equals_per_copy() {
    check_engine("trivial", 12, 3, Trivial::new);
}

#[test]
fn ears_counted_equals_per_copy() {
    check_engine("ears", 12, 3, Ears::new);
}

#[test]
fn sears_counted_equals_per_copy() {
    check_engine("sears", 12, 3, Sears::new);
}

#[test]
fn tears_counted_equals_per_copy() {
    for (n, f) in [(16, 5), (32, 10)] {
        let (messages, deliveries) = check_engine("tears", n, f, Tears::new);
        assert!(
            2 * messages > 3 * deliveries,
            "tears n={n} must share records: {messages} messages in {deliveries} deliveries"
        );
    }
}

#[test]
fn run_gossip_reports_are_identical() {
    for (d, delta) in [(1, 1), (2, 3), (6, 2)] {
        let cfg = config(32, 10, d, delta, 11);
        let counted = run_gossip(&cfg, GossipSpec::Majority, &mut crashing(&cfg), Tears::new);
        let per_copy = run_gossip(&cfg, GossipSpec::Majority, &mut crashing(&cfg), |ctx| {
            PerCopy(Tears::new(ctx))
        });
        let counted = report_fields(counted.unwrap());
        assert!(counted.1.all_ok(), "{:?}", counted.1);
        assert_eq!(counted, report_fields(per_copy.unwrap()), "d={d} δ={delta}");
    }
}

#[test]
fn cr_tears_counted_equals_per_copy() {
    // `run_consensus`' own CR-tears against the same execution built by
    // hand around the per-copy wrapper (the driver's seed derivation).
    for (d, delta, seed) in [(1, 1, 5), (2, 2, 2008), (6, 3, 17)] {
        let cfg = config(16, 5, d, delta, seed).with_max_steps(20_000);
        let values: Vec<ConsensusValue> = (0..cfg.n).map(|p| (p % 2) as u64).collect();
        let report = run_consensus(
            &cfg,
            ConsensusProtocol::CrTears,
            &values,
            &mut crashing(&cfg),
        )
        .unwrap();
        assert!(report.check.all_ok(), "{:?}", report.check);

        let factory = |ctx: GossipCtx| PerCopy(Tears::new(ctx));
        let processes = ProcessId::all(cfg.n)
            .map(|pid| {
                let seed = rng::derive_seed(cfg.seed, rng::RngStream::Process(pid));
                let ctx = ConsensusCtx::new(pid, cfg.n, cfg.f, values[pid.index()], seed);
                ConsensusProcess::new(ctx, factory)
            })
            .collect();
        let mut sim = Simulation::new(cfg.clone(), processes).unwrap();
        let outcome = sim.run_with(&mut crashing(&cfg)).unwrap();
        assert_eq!(outcome.reason, report.stop_reason);
        assert_eq!(
            sim.metrics(),
            &report.metrics,
            "d={d} δ={delta} seed {seed}"
        );
        let decisions: Vec<_> = sim.processes().iter().map(|p| p.decision()).collect();
        assert_eq!(decisions, report.decisions);
    }
}

#[test]
fn a_table1_tears_n128_trial_carries_ten_messages_a_delivery() {
    // At the paper's constants every first-level arrival at a `tears`
    // process is a trigger for n ≤ 128, so a step's second-level
    // broadcasts repeat one `V` to all of Π2, and the network shares the
    // copies of one delay in one record. Table 1's n = 128 trial measured
    // 2 048 364 messages in 112 907 deliveries, ≈ 18 a delivery; a path that
    // expands records again reads 1.
    let scale = ExperimentScale::default();
    let spec = ScenarioSpec::from_scale(
        TrialProtocol::Gossip(GossipProtocolKind::Tears),
        &scale,
        128,
    );
    let report = run_gossip_protocol(&spec.protocol, &spec.adversary, &spec.config_for(0)).unwrap();
    assert!(report.check.all_ok(), "{:?}", report.check);
    let metrics = &report.metrics;
    eprintln!(
        "messages: {}, deliveries: {}",
        metrics.messages_delivered, metrics.deliveries
    );
    assert!(
        metrics.messages_delivered >= 10 * metrics.deliveries,
        "{} messages in {} deliveries",
        metrics.messages_delivered,
        metrics.deliveries
    );
}
