//! The five workloads: what one trial of each runs, and what it reports.
//!
//! Every workload is driven through public entry points only. The load
//! shape is fixed: lockstep pacing (so message, byte and tick counts are
//! exact per seed), one generating process, [`Workload::threads`] threads.
//! Every trial of a run uses the same seed, so any difference between two
//! trials' wall times is noise and any difference between their counts is a
//! bug.
//!
//! A traced trial runs the same work with the [`crate::timed`] wrappers
//! installed. For the simulator workloads that means driving
//! [`agossip_core::run_gossip`] directly with the `SimConfig`s the sweep
//! engine would build; the harness checks that the per-instance message
//! counts equal the untraced ones.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use agossip_analysis::experiments::live::{live_scale_config, live_scale_params};
use agossip_analysis::experiments::scale::scale_a_target;
use agossip_analysis::experiments::service::live_service_config;
use agossip_analysis::experiments::table2::table2_protocols;
use agossip_analysis::experiments::{
    scale_tears_params, tears_params_for_a, ExperimentScale, GossipProtocolKind,
};
use agossip_analysis::sweep::{ScenarioSpec, TrialPool, TrialProtocol};
use agossip_core::{
    check_gossip, run_gossip, Ears, GossipCtx, GossipEngine, GossipSpec, LoopMode, Rumor, Sears,
    SearsParams, Tears, TearsParams, Trivial, WireCodec, WireDecodeView,
};
use agossip_runtime::{
    run_live, run_service, ChannelTransport, LiveConfig, Pacing, ServiceConfig, SocketTransport,
    Threading, Transport,
};
use agossip_sim::{FairObliviousAdversary, ProcessId, SimConfig};

use crate::env;
use crate::probes::{codec_probes, union_probes, ProbeSums};
use crate::timed::{
    EngineCounts, EngineSink, Timed, TimedAdversary, TimedTransport, TransportCounts, TransportSink,
};
use crate::trace::{SpanId, Tracer};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Tables 1 and 2 at small `n`, on a two-worker trial pool.
    PaperTables,
    /// Scaled `tears` at `n = 16 384` in the simulator, serial.
    SimScale16k,
    /// One-shot scaled `tears` at `n = 4 096` on two reactor threads over
    /// in-process channels: 2.26 KB frames.
    LiveTears4k,
    /// The same runtime as a pipelined service: `n = 512`, 48 epochs, 32 in
    /// flight, over channels.
    ServiceClosed512,
    /// The service over Unix sockets with the smallest frames: `trivial`,
    /// `n = 32`, 4 096 epochs.
    ServiceUdsSmall,
}

/// How large a trial is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// Reduced size, a few hundred ms a trial: the warm-up of every run's
    /// set-up passes. Large enough that compute, not thread and socket
    /// creation, sets its time, so `setup_s` drifts with the box the way the
    /// trials do instead of twice as much.
    Warm,
    /// Toy size (`n ≤ 64`, `≤ 8` epochs): `--smoke`.
    Smoke,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::PaperTables,
        Workload::SimScale16k,
        Workload::LiveTears4k,
        Workload::ServiceClosed512,
        Workload::ServiceUdsSmall,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::SimScale16k => "sim_scale_16k",
            Workload::LiveTears4k => "live_tears_4k",
            Workload::ServiceClosed512 => "service_closed_512",
            Workload::ServiceUdsSmall => "service_uds_small",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads that do the work: pool workers or reactors. (The lockstep
    /// driver thread parks on a barrier and is not counted.)
    pub fn threads(self) -> usize {
        match self {
            Workload::SimScale16k => 1,
            _ => 2,
        }
    }

    /// Refuses a box that cannot carry this workload's load shape.
    pub fn check_box(self) -> Result<(), String> {
        env::require_cores(self.threads())?;
        if self == Workload::ServiceUdsSmall {
            env::require_open_files()?;
        }
        Ok(())
    }
}

/// The exact counts of one trial. Lockstep pacing and seeded simulation make
/// every field a pure function of (workload, size, seed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Point-to-point messages (simulator) or encoded frames (live).
    pub messages: u64,
    /// Encoded payload bytes (live) or wire units (simulator gossip).
    pub volume: u64,
    /// Lockstep ticks (live) or summed completion steps (simulator).
    pub time: u64,
    /// Gossip or consensus instances run to completion: service epochs, or
    /// one per one-shot run.
    pub epochs: u64,
    /// Peak concurrently open epochs (1 for a one-shot live run, 0 in the
    /// simulator).
    pub max_open: u64,
    /// Summed per-epoch settle latency in ticks.
    pub settle_sum: u64,
    /// Messages of each simulator instance, in grid order (empty for live
    /// workloads).
    pub instances: Vec<u64>,
}

/// Service-only numbers of one trial, in lockstep ticks.
#[derive(Debug, Clone, Default)]
pub struct ServiceTicks {
    /// Open → last activity, per epoch.
    pub settle: Vec<u64>,
    /// Last activity → finalized, per epoch.
    pub finalize_lag: Vec<u64>,
    /// Frames for already-finalized epochs.
    pub stale_drops: u64,
}

/// Per-layer sums of one traced trial (or of several, added up).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Engine counters per lane.
    pub engine: Vec<EngineCounts>,
    /// Transport counters per lane.
    pub transport: Vec<TransportCounts>,
    /// ns inside `Transport::open`.
    pub open_ns: u64,
    /// ns inside `Adversary::plan_step`.
    pub plan_ns: u64,
    /// ns inside `Adversary::message_delay`.
    pub delay_ns: u64,
    /// `message_delay` calls.
    pub delay_calls: u64,
    /// ns in the harness's own `check_gossip` calls.
    pub check_ns: u64,
    /// Summed wall ns of the `run_gossip` calls.
    pub gossip_wall_ns: u64,
    /// Global simulator steps executed.
    pub sim_steps: u64,
    /// Messages of the gossip instances.
    pub sim_msgs: u64,
    /// Summed wall ns of the consensus instances.
    pub consensus_ns: u64,
    /// Messages of the consensus instances.
    pub consensus_msgs: u64,
    /// Instances run through the trial pool.
    pub pool_instances: u64,
    /// Summed wall ns of the pool's instances.
    pub pool_busy_ns: u64,
    /// Wall ns of the pool batches.
    pub pool_wall_ns: u64,
    /// Probe sums.
    pub probes: ProbeSums,
    /// The runtime's own elapsed ns.
    pub loop_elapsed_ns: u64,
    /// Lockstep ticks.
    pub ticks: u64,
    /// Process CPU seconds consumed during the trial.
    pub cpu_s: f64,
}

impl Layers {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Layers) {
        fn add_lanes<C: Default + Clone>(into: &mut Vec<C>, from: &[C], add: impl Fn(&mut C, &C)) {
            if into.len() < from.len() {
                into.resize(from.len(), C::default());
            }
            for (a, b) in into.iter_mut().zip(from) {
                add(a, b);
            }
        }
        add_lanes(&mut self.engine, &other.engine, EngineCounts::add);
        add_lanes(&mut self.transport, &other.transport, TransportCounts::add);
        self.open_ns += other.open_ns;
        self.plan_ns += other.plan_ns;
        self.delay_ns += other.delay_ns;
        self.delay_calls += other.delay_calls;
        self.check_ns += other.check_ns;
        self.gossip_wall_ns += other.gossip_wall_ns;
        self.sim_steps += other.sim_steps;
        self.sim_msgs += other.sim_msgs;
        self.consensus_ns += other.consensus_ns;
        self.consensus_msgs += other.consensus_msgs;
        self.pool_instances += other.pool_instances;
        self.pool_busy_ns += other.pool_busy_ns;
        self.pool_wall_ns += other.pool_wall_ns;
        self.probes.add(&other.probes);
        self.loop_elapsed_ns += other.loop_elapsed_ns;
        self.ticks += other.ticks;
        self.cpu_s += other.cpu_s;
    }
}

/// What one trial reports.
#[derive(Debug, Clone, Default)]
pub struct Trial {
    /// Wall seconds of the checker-verified trial (probes excluded).
    pub wall_s: f64,
    /// The exact counts.
    pub counts: Counts,
    /// Operations failed: an operation is a simulator or live instance or a
    /// service epoch; it fails on a checker rejection or a decode error.
    pub ops_failed: u64,
    /// Service: each epoch's settle latency, in ticks × the trial's mean tick
    /// time. One-shot and simulator trials: one sample, the wall ms from the
    /// start of the run to its completion.
    pub latencies_ms: Vec<f64>,
    /// Service-only tick numbers.
    pub service: Option<ServiceTicks>,
    /// Per-layer sums (traced trials only).
    pub layers: Option<Layers>,
}

impl Trial {
    /// Operations attempted.
    pub fn ops(&self) -> u64 {
        self.counts.epochs
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Operations one trial of `workload` attempts (used to book a trial that
/// ended in a typed error).
pub fn ops_per_trial(workload: Workload, size: Size) -> u64 {
    match workload {
        Workload::PaperTables | Workload::SimScale16k => sim_batches(workload, size, 0)
            .iter()
            .map(Vec::len)
            .sum::<usize>() as u64,
        Workload::LiveTears4k => 1,
        Workload::ServiceClosed512 | Workload::ServiceUdsSmall => service_epochs(workload, size),
    }
}

/// Runs one trial. `traced` installs the timing wrappers and fills
/// [`Trial::layers`]; spans go to `tracer` under `parent`.
pub fn run_trial(
    workload: Workload,
    size: Size,
    seed: u64,
    traced: bool,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Trial, String> {
    match workload {
        Workload::PaperTables | Workload::SimScale16k => {
            let batches = sim_batches(workload, size, seed);
            sim_trial(&batches, workload.threads(), traced, tracer, parent)
        }
        Workload::LiveTears4k => {
            let n = match size {
                Size::Full => 4096,
                Size::Warm => 512,
                Size::Smoke => 64,
            };
            let config = live_scale_config(n, workload.threads(), seed);
            let params = tears_params(n, size);
            live_trial(&config, traced, tracer, parent, move |ctx| {
                Tears::with_params(ctx, params)
            })
        }
        Workload::ServiceClosed512 => {
            let n = match size {
                Size::Full => 512,
                Size::Warm => 128,
                Size::Smoke => 64,
            };
            let config = live_service_config(
                n,
                workload.threads(),
                seed,
                service_epochs(workload, size),
                LoopMode::Closed { in_flight: 32 },
            );
            let params = tears_params(n, size);
            service_trial(
                &config,
                ChannelTransport,
                traced,
                tracer,
                parent,
                move |ctx| Tears::with_params(ctx, params),
            )
        }
        Workload::ServiceUdsSmall => {
            let n = match size {
                Size::Full | Size::Warm => 32,
                Size::Smoke => 16,
            };
            let mut live = LiveConfig::lockstep(n, 0, seed).on_reactors(workload.threads());
            live.pacing = Pacing::Lockstep {
                d: 2,
                max_ticks: 1 << 20,
            };
            let config = ServiceConfig::new(live, service_epochs(workload, size))
                .with_window(36)
                .with_mode(LoopMode::Closed { in_flight: 32 })
                .with_spec(GossipSpec::Full);
            service_trial(
                &config,
                SocketTransport::uds(),
                traced,
                tracer,
                parent,
                Trivial::new,
            )
        }
    }
}

/// The `tears` constants of the live and service workloads: at full size the
/// `live_scale` scenario's calibrated logarithmic neighbourhood `a(n)`; below
/// it twice that, because small systems sit too close to the coverage cliff
/// (at `a(64) = 11` about 3 seeds in 1 000 miss majority) and a warm-up must
/// never fail.
fn tears_params(n: usize, size: Size) -> TearsParams {
    match size {
        Size::Full => live_scale_params(n),
        Size::Warm | Size::Smoke => tears_params_for_a(n, 2.0 * scale_a_target(n)),
    }
}

/// Process CPU seconds consumed since `before` (0 when `/proc` is unreadable).
fn cpu_since(before: Option<f64>) -> f64 {
    match (before, env::cpu_seconds()) {
        (Some(before), Some(after)) => after - before,
        _ => 0.0,
    }
}

fn service_epochs(workload: Workload, size: Size) -> u64 {
    match (workload, size) {
        (_, Size::Smoke) => 8,
        (Workload::ServiceUdsSmall, Size::Full) => 4096,
        (Workload::ServiceUdsSmall, Size::Warm) => 128,
        (_, Size::Full) => 48,
        (_, Size::Warm) => 8,
    }
}

// ---------------------------------------------------------------------------
// Simulator workloads
// ---------------------------------------------------------------------------

/// One simulator instance to run: trial `trial` of `spec`.
struct Job {
    spec: ScenarioSpec,
    trial: usize,
}

/// The instance grids of a simulator workload. Batches run one after the
/// other on the pool, instances of a batch in parallel — the shape
/// `table1_rows` followed by `table2_rows` has.
fn sim_batches(workload: Workload, size: Size, seed: u64) -> Vec<Vec<Job>> {
    let grid = |scale: &ExperimentScale, protocols: Vec<TrialProtocol>| -> Vec<Job> {
        let mut jobs = Vec::new();
        for protocol in protocols {
            for &n in &scale.n_values {
                let spec = ScenarioSpec::from_scale(protocol.clone(), scale, n);
                jobs.extend((0..spec.trials).map(|trial| Job {
                    spec: spec.clone(),
                    trial,
                }));
            }
        }
        jobs
    };
    match workload {
        Workload::PaperTables => {
            // Paper-faithful constants: d = δ = 2, f = n/4.
            let table1 = ExperimentScale {
                n_values: match size {
                    Size::Full => vec![32, 64, 128],
                    Size::Warm => vec![32, 64],
                    Size::Smoke => vec![16, 32],
                },
                trials: match size {
                    Size::Full => 2,
                    Size::Warm | Size::Smoke => 1,
                },
                failure_fraction: 0.25,
                d: 2,
                delta: 2,
                seed,
                idle_fast_forward: false,
            };
            let table2 = ExperimentScale {
                n_values: match size {
                    Size::Full => vec![32, 64],
                    Size::Warm => vec![32],
                    Size::Smoke => vec![16],
                },
                ..table1.clone()
            };
            vec![
                grid(
                    &table1,
                    GossipProtocolKind::table1_rows()
                        .into_iter()
                        .map(TrialProtocol::Gossip)
                        .collect(),
                ),
                grid(
                    &table2,
                    table2_protocols()
                        .into_iter()
                        .map(TrialProtocol::Consensus)
                        .collect(),
                ),
            ]
        }
        _ => {
            // The `scale` scenario's grid point: scaled tears constants
            // (a = 2 + 1.5·log₂n above the crossover), d = 6, δ = 3, idle
            // fast-forward on.
            let n = match size {
                Size::Full => 16384,
                Size::Warm | Size::Smoke => 64,
            };
            let scale = ExperimentScale {
                n_values: vec![n],
                trials: 1,
                failure_fraction: 0.25,
                d: 6,
                delta: 3,
                seed,
                idle_fast_forward: true,
            };
            vec![grid(
                &scale,
                vec![TrialProtocol::TearsWith(scale_tears_params(n))],
            )]
        }
    }
}

/// Work a traced instance leaves for after the pass: the probes on its
/// captured messages and the harness's own re-check of its final state.
type Deferred = Box<dyn FnOnce() -> (ProbeSums, u64) + Send>;

/// What one simulator instance reports.
struct Instance {
    ok: bool,
    consensus: bool,
    messages: u64,
    wire_units: u64,
    time_steps: u64,
    start: Instant,
    end: Instant,
    lane: usize,
    traced: Option<TracedInstance>,
}

struct TracedInstance {
    engine: EngineCounts,
    plan_ns: u64,
    plan_calls: u64,
    delay_ns: u64,
    delay_calls: u64,
    steps: u64,
    deferred: Deferred,
}

/// Position of the calling thread among the pool threads seen so far.
fn lane_of_current_thread(seen: &Mutex<Vec<ThreadId>>) -> usize {
    let me = std::thread::current().id();
    let mut seen = seen
        .lock()
        .expect("lane registry is never held across a panic");
    match seen.iter().position(|id| *id == me) {
        Some(lane) => lane,
        None => {
            seen.push(me);
            seen.len() - 1
        }
    }
}

fn run_job(job: &Job, traced: bool, lanes: &Mutex<Vec<ThreadId>>) -> Result<Instance, String> {
    let lane = lane_of_current_thread(lanes);
    let consensus = matches!(job.spec.protocol, TrialProtocol::Consensus(_));
    if traced && !consensus {
        return traced_gossip_job(job, lane);
    }
    let start = Instant::now();
    let report = job.spec.run_trial(job.trial).map_err(|e| e.to_string())?;
    Ok(Instance {
        ok: report.ok,
        consensus,
        messages: report.messages,
        wire_units: report.wire_units,
        time_steps: report.time_steps.unwrap_or(0),
        start,
        end: Instant::now(),
        lane,
        traced: None,
    })
}

/// The traced twin of `ScenarioSpec::run_trial` for the gossip protocols the
/// workloads use, under the reference oblivious adversary the specs name.
fn traced_gossip_job(job: &Job, lane: usize) -> Result<Instance, String> {
    let config = job.spec.config_for(job.trial);
    let spec = job
        .spec
        .protocol
        .gossip_spec()
        .ok_or("traced_gossip_job needs a gossip protocol")?;
    match &job.spec.protocol {
        TrialProtocol::Gossip(GossipProtocolKind::Trivial) => {
            traced_gossip(&config, spec, lane, Trivial::new)
        }
        TrialProtocol::Gossip(GossipProtocolKind::Ears) => {
            traced_gossip(&config, spec, lane, Ears::new)
        }
        TrialProtocol::Gossip(GossipProtocolKind::Sears { epsilon }) => {
            let params = SearsParams::with_epsilon(*epsilon);
            traced_gossip(&config, spec, lane, move |ctx| {
                Sears::with_params(ctx, params)
            })
        }
        TrialProtocol::Gossip(GossipProtocolKind::Tears) => {
            traced_gossip(&config, spec, lane, Tears::new)
        }
        TrialProtocol::TearsWith(params) => {
            let params = *params;
            traced_gossip(&config, spec, lane, move |ctx| {
                Tears::with_params(ctx, params)
            })
        }
        other => Err(format!("no traced driver for protocol {}", other.name())),
    }
}

fn traced_gossip<G, F>(
    config: &SimConfig,
    spec: GossipSpec,
    lane: usize,
    make: F,
) -> Result<Instance, String>
where
    G: GossipEngine,
    G::Msg: WireCodec + WireDecodeView + Send + 'static,
    F: Fn(GossipCtx) -> G,
{
    let sink = EngineSink::new(1);
    let mut adversary = TimedAdversary::new(FairObliviousAdversary::new(
        config.d,
        config.delta,
        config.seed,
    ));
    let start = Instant::now();
    let report = run_gossip(config, spec, &mut adversary, |ctx| {
        Timed::new(make(ctx), Arc::clone(&sink))
    })
    .map_err(|e| e.to_string())?;
    let end = Instant::now();

    let (n, f, seed) = (config.n, config.f, config.seed);
    let quiescent = report.check.quiescence_ok;
    let crashes = report.metrics.crashes;
    let final_rumors = report.final_rumors;
    let samples = sink.take_samples();
    let final_sets = sink.take_final_sets();
    let deferred: Deferred = Box::new(move || {
        let mut probes = codec_probes(&samples);
        probes.add(&union_probes(&final_sets));
        // The reference adversary of these specs injects no crash, so the
        // checker's `correct` set is everyone; re-running the check on the
        // same final state measures what the one inside `run_gossip` cost.
        let mut check_ns = 0;
        if crashes == 0 {
            let initial = initial_rumors(n, f, seed);
            let start = Instant::now();
            std::hint::black_box(check_gossip(
                spec,
                &final_rumors,
                &initial,
                &vec![true; n],
                quiescent,
            ));
            check_ns = ns(start, Instant::now());
        }
        (probes, check_ns)
    });
    Ok(Instance {
        ok: report.check.all_ok(),
        consensus: false,
        messages: report.metrics.messages_sent,
        wire_units: report.rumor_units_sent,
        time_steps: report.metrics.quiescence_time.map_or(0, |t| t.as_u64()),
        start,
        end,
        lane,
        traced: Some(TracedInstance {
            engine: sink.total(),
            plan_ns: adversary.plan_ns,
            plan_calls: adversary.plan_calls,
            delay_ns: adversary.delay_ns(),
            delay_calls: adversary.delay_calls(),
            steps: report.metrics.elapsed_steps,
            deferred,
        }),
    })
}

fn sim_trial(
    batches: &[Vec<Job>],
    threads: usize,
    traced: bool,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Trial, String> {
    let pool = TrialPool::new(threads);
    let trial_id = tracer.trial_of(parent);
    let mut instances: Vec<Instance> = Vec::new();
    let mut pool_wall_ns = 0u64;
    let cpu_before = env::cpu_seconds();
    let pass_start = Instant::now();
    for batch in batches {
        let span = tracer.begin("analysis.sweep.batch", Some(parent), trial_id);
        let lanes = Mutex::new(Vec::new());
        let start = Instant::now();
        let results = pool.run(batch.len(), |i| run_job(&batch[i], traced, &lanes));
        pool_wall_ns += ns(start, Instant::now());
        tracer.end(span);
        for result in results {
            let instance = result?;
            let name = if instance.consensus {
                "consensus.instance"
            } else {
                "sim.instance"
            };
            let at = tracer.record(name, span, instance.start, instance.end);
            if let Some(t) = &instance.traced {
                let lane = instance.lane;
                tracer.aggregate(
                    "core.engine.step",
                    at,
                    lane,
                    t.engine.step_calls,
                    t.engine.step_ns,
                );
                tracer.aggregate(
                    "core.engine.deliver",
                    at,
                    lane,
                    t.engine.deliver_calls,
                    t.engine.deliver_ns,
                );
                tracer.aggregate("sim.adversary.plan", at, lane, t.plan_calls, t.plan_ns);
                tracer.aggregate("sim.adversary.delay", at, lane, t.delay_calls, t.delay_ns);
            }
            instances.push(instance);
        }
    }
    let wall_s = pass_start.elapsed().as_secs_f64();
    let cpu_s = cpu_since(cpu_before);

    let mut trial = Trial {
        wall_s,
        counts: Counts {
            epochs: instances.len() as u64,
            ..Counts::default()
        },
        latencies_ms: vec![wall_s * 1e3],
        ..Trial::default()
    };
    let mut layers = Layers {
        engine: vec![EngineCounts::default()],
        pool_wall_ns,
        cpu_s,
        ..Layers::default()
    };
    let probes_span = tracer.begin("probes", Some(parent), trial_id);
    for instance in instances {
        let wall_ns = ns(instance.start, instance.end);
        trial.counts.messages += instance.messages;
        trial.counts.volume += instance.wire_units;
        trial.counts.time += instance.time_steps;
        trial.counts.instances.push(instance.messages);
        trial.ops_failed += u64::from(!instance.ok);
        layers.pool_instances += 1;
        layers.pool_busy_ns += wall_ns;
        if instance.consensus {
            layers.consensus_ns += wall_ns;
            layers.consensus_msgs += instance.messages;
        }
        if let Some(t) = instance.traced {
            layers.engine[0].add(&t.engine);
            layers.plan_ns += t.plan_ns;
            layers.delay_ns += t.delay_ns;
            layers.delay_calls += t.delay_calls;
            layers.gossip_wall_ns += wall_ns;
            layers.sim_steps += t.steps;
            layers.sim_msgs += instance.messages;
            let (probes, check_ns) = (t.deferred)();
            layers.probes.add(&probes);
            layers.check_ns += check_ns;
        }
    }
    tracer.end(probes_span);
    trial.layers = traced.then_some(layers);
    Ok(trial)
}

// ---------------------------------------------------------------------------
// Live and service workloads
// ---------------------------------------------------------------------------

fn initial_rumors(n: usize, f: usize, seed: u64) -> Vec<Rumor> {
    ProcessId::all(n)
        .map(|pid| GossipCtx::new(pid, n, f, seed).rumor)
        .collect()
}

/// Threads a live run spreads its processes over (one counter lane each).
fn worker_threads(config: &LiveConfig) -> usize {
    match config.threading {
        Threading::Reactor { reactors } => reactors.min(config.n),
        Threading::PerProcess => config.n,
    }
}

/// The sinks of one traced live or service trial.
struct LiveSinks<M> {
    engine: Arc<EngineSink<M>>,
    transport: Arc<TransportSink>,
}

impl<M> LiveSinks<M> {
    fn new(lanes: usize) -> Self {
        LiveSinks {
            engine: EngineSink::new(lanes),
            transport: TransportSink::new(lanes),
        }
    }

    /// Folds the sinks into `Layers`, records the per-lane aggregated spans
    /// under `run`, and runs the probes under a `probes` span.
    fn finish(self, tracer: &mut Tracer, run: SpanId, trial: SpanId) -> Layers
    where
        M: WireCodec + WireDecodeView,
    {
        let layers = Layers {
            engine: self.engine.lanes(),
            transport: self.transport.lanes(),
            open_ns: self.transport.open_ns(),
            ..Layers::default()
        };
        // `open` runs on the calling thread before the reactors start; it is
        // booked on a lane of its own after theirs.
        let driver = layers.engine.len();
        tracer.aggregate("runtime.transport.open", run, driver, 1, layers.open_ns);
        for (lane, e) in layers.engine.iter().enumerate() {
            tracer.aggregate("core.engine.step", run, lane, e.step_calls, e.step_ns);
            tracer.aggregate(
                "core.engine.deliver",
                run,
                lane,
                e.deliver_calls,
                e.deliver_ns,
            );
        }
        for (lane, t) in layers.transport.iter().enumerate() {
            tracer.aggregate("runtime.transport.send", run, lane, t.send_calls, t.send_ns);
            tracer.aggregate("runtime.transport.poll", run, lane, t.poll_calls, t.poll_ns);
            tracer.aggregate(
                "runtime.transport.flush",
                run,
                lane,
                t.flush_calls,
                t.flush_ns,
            );
        }
        let span = tracer.begin("probes", Some(trial), tracer.trial_of(trial));
        let mut probes = codec_probes(&self.engine.take_samples());
        probes.add(&union_probes(&self.engine.take_final_sets()));
        tracer.end(span);
        Layers { probes, ..layers }
    }
}

fn live_trial<G, F>(
    config: &LiveConfig,
    traced: bool,
    tracer: &mut Tracer,
    parent: SpanId,
    make: F,
) -> Result<Trial, String>
where
    G: GossipEngine + Send,
    G::Msg: WireCodec + WireDecodeView + PartialEq + Send,
    F: Fn(GossipCtx) -> G,
{
    let trial_id = tracer.trial_of(parent);
    let sinks = traced.then(|| LiveSinks::<G::Msg>::new(worker_threads(config)));
    let cpu_before = env::cpu_seconds();
    let start = Instant::now();
    let run = tracer.begin("runtime.driver.run_live", Some(parent), trial_id);
    let report = match &sinks {
        None => run_live(config, &ChannelTransport, make),
        Some(sinks) => run_live(
            config,
            &TimedTransport::new(ChannelTransport, Arc::clone(&sinks.transport)),
            |ctx| Timed::new(make(ctx), Arc::clone(&sinks.engine)),
        ),
    }
    .map_err(|e| e.to_string())?;
    tracer.end(run);
    let check_span = tracer.begin("core.checker.check", Some(parent), trial_id);
    let check_start = Instant::now();
    let check = check_gossip(
        GossipSpec::Majority,
        &report.final_rumors,
        &initial_rumors(config.n, config.f, config.seed),
        &report.correct,
        report.quiescent,
    );
    let check_ns = ns(check_start, Instant::now());
    tracer.end(check_span);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_since(cpu_before);

    let ok = check.all_ok() && report.decode_errors == 0;
    let mut trial = Trial {
        wall_s,
        counts: Counts {
            messages: report.messages_sent,
            volume: report.bytes_sent,
            time: report.ticks,
            epochs: 1,
            max_open: 1,
            settle_sum: report.ticks,
            instances: Vec::new(),
        },
        ops_failed: u64::from(!ok),
        latencies_ms: vec![report.elapsed.as_secs_f64() * 1e3],
        ..Trial::default()
    };
    if let Some(sinks) = sinks {
        let mut layers = sinks.finish(tracer, run, parent);
        layers.check_ns = check_ns;
        layers.cpu_s = cpu_s;
        layers.ticks = report.ticks;
        layers.loop_elapsed_ns = u64::try_from(report.elapsed.as_nanos()).unwrap_or(u64::MAX);
        let delivered: u64 = layers.engine.iter().map(|e| e.deliver_frames).sum();
        let sent: u64 = layers.transport.iter().map(|t| t.send_calls).sum();
        if delivered != report.messages_delivered || sent != report.messages_sent {
            return Err(format!(
                "wrappers lost count: saw {delivered} deliveries and {sent} sends, the runtime \
                 reports {} and {}",
                report.messages_delivered, report.messages_sent
            ));
        }
        trial.layers = Some(layers);
    }
    Ok(trial)
}

fn service_trial<T, G, F>(
    config: &ServiceConfig,
    transport: T,
    traced: bool,
    tracer: &mut Tracer,
    parent: SpanId,
    make: F,
) -> Result<Trial, String>
where
    T: Transport,
    G: GossipEngine + Send,
    G::Msg: WireCodec + WireDecodeView + PartialEq + Send + Sync,
    F: Fn(GossipCtx) -> G + Clone + Send,
{
    let trial_id = tracer.trial_of(parent);
    let sinks = traced.then(|| LiveSinks::<G::Msg>::new(worker_threads(&config.live)));
    let cpu_before = env::cpu_seconds();
    let start = Instant::now();
    let run = tracer.begin("runtime.service.run_service", Some(parent), trial_id);
    let report = match &sinks {
        None => run_service(config, &transport, make),
        Some(sinks) => {
            let engine_sink = Arc::clone(&sinks.engine);
            run_service(
                config,
                &TimedTransport::new(transport, Arc::clone(&sinks.transport)),
                move |ctx| Timed::new(make(ctx), Arc::clone(&engine_sink)),
            )
        }
    }
    .map_err(|e| e.to_string())?;
    tracer.end(run);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_since(cpu_before);

    let ms_per_tick = report.elapsed.as_secs_f64() * 1e3 / report.ticks.max(1) as f64;
    let settle = report.settle_latencies();
    let rejected = report.epochs.iter().filter(|e| !e.check.all_ok()).count() as u64;
    let unfinished = config.epochs.saturating_sub(report.epochs.len() as u64);
    let mut trial = Trial {
        wall_s,
        counts: Counts {
            messages: report.messages_sent,
            volume: report.bytes_sent,
            time: report.ticks,
            epochs: config.epochs,
            max_open: report.max_open,
            settle_sum: settle.iter().sum(),
            instances: Vec::new(),
        },
        // Decode errors cannot be pinned on an epoch from outside; any of
        // them fails at least one operation.
        ops_failed: (rejected + unfinished).max(u64::from(report.decode_errors > 0)),
        latencies_ms: settle.iter().map(|&t| t as f64 * ms_per_tick).collect(),
        service: Some(ServiceTicks {
            finalize_lag: report
                .epochs
                .iter()
                .map(|e| e.finalized_at.saturating_sub(e.settled_at))
                .collect(),
            settle,
            stale_drops: report.stale_drops,
        }),
        ..Trial::default()
    };
    if let Some(sinks) = sinks {
        let mut layers = sinks.finish(tracer, run, parent);
        layers.cpu_s = cpu_s;
        layers.ticks = report.ticks;
        layers.loop_elapsed_ns = u64::try_from(report.elapsed.as_nanos()).unwrap_or(u64::MAX);
        let sent: u64 = layers.transport.iter().map(|t| t.send_calls).sum();
        if sent != report.messages_sent {
            return Err(format!(
                "wrappers lost count: saw {sent} sends, the runtime reports {}",
                report.messages_sent
            ));
        }
        trial.layers = Some(layers);
    }
    Ok(trial)
}
