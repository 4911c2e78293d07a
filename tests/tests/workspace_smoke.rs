//! Workspace smoke test: constructs the public entry point of every crate in
//! the workspace, so a broken manifest, a dropped re-export or a severed
//! inter-crate dependency fails here before anything subtler does.

use agossip_adversary::{DelayPolicy, ObliviousPlan, PolicyAdversary, SchedulePolicy};
use agossip_analysis::experiments::ExperimentScale;
use agossip_analysis::fit_power_law;
use agossip_bench::bench_scale;
use agossip_consensus::{run_consensus, ConsensusProtocol, ConsensusValue};
use agossip_core::{run_gossip, Ears, GossipCtx, GossipEngine, GossipSpec, Sears, Tears, Trivial};
use agossip_runtime::{run_live, ChannelTransport, LiveConfig};
use agossip_sim::{FairObliviousAdversary, ProcessId, SimConfig, Simulation};

/// agossip-core: every protocol engine is constructible from a `GossipCtx`
/// and starts out knowing its own rumor.
#[test]
fn core_engines_are_constructible() {
    let ctx = GossipCtx::new(ProcessId(0), 8, 2, 42);
    assert_eq!(Trivial::new(ctx).rumors().len(), 1);
    assert_eq!(Ears::new(ctx).rumors().len(), 1);
    assert_eq!(Sears::new(ctx).rumors().len(), 1);
    assert_eq!(Tears::new(ctx).rumors().len(), 1);
}

/// agossip-sim: the simulator is constructible over per-process state
/// machines and starts at time zero with no messages in flight.
#[test]
fn sim_scheduler_is_constructible() {
    let config = SimConfig::new(8, 2).with_seed(7);
    let processes: Vec<_> = ProcessId::all(8)
        .map(|pid| agossip_core::SimGossip::new(Trivial::new(GossipCtx::new(pid, 8, 2, 7))))
        .collect();
    let sim = Simulation::new(config, processes).unwrap();
    assert_eq!(sim.now().0, 0);
    assert_eq!(sim.in_flight(), 0);
}

/// agossip-core + agossip-sim: the gossip driver runs end to end.
#[test]
fn gossip_driver_runs() {
    let config = SimConfig::new(6, 0).with_seed(3);
    let mut adversary = FairObliviousAdversary::new(1, 1, 3);
    let report = run_gossip(&config, GossipSpec::Full, &mut adversary, Trivial::new).unwrap();
    assert!(report.check.all_ok(), "{:?}", report.check);
}

/// agossip-consensus: the consensus driver runs one instance to agreement.
#[test]
fn consensus_driver_runs() {
    let config = SimConfig::new(5, 0).with_seed(11);
    let mut adversary = FairObliviousAdversary::new(1, 1, 11);
    let inputs: Vec<ConsensusValue> = (0..5u64).map(|i| i % 2).collect();
    let report = run_consensus(
        &config,
        ConsensusProtocol::CanettiRabin,
        &inputs,
        &mut adversary,
    )
    .unwrap();
    assert!(report.check.all_ok(), "{:?}", report.check);
}

/// agossip-adversary: both adversary families are constructible.
#[test]
fn adversaries_are_constructible() {
    let config = SimConfig::new(8, 2).with_seed(5);
    let _oblivious = ObliviousPlan::from_config(&config).build();
    let _policy = PolicyAdversary::new(2, 2, 5, SchedulePolicy::FairRandom, DelayPolicy::Uniform);
}

/// agossip-runtime: the live runtime completes a tiny run.
#[test]
fn runtime_harness_runs() {
    let config = LiveConfig::free_running(2, 0, 9);
    let report = run_live(&config, &ChannelTransport, Trivial::new).unwrap();
    assert_eq!(report.final_rumors.len(), 2);
}

/// agossip-analysis + agossip-bench: the experiment scale helpers and the
/// power-law fitter are reachable.
#[test]
fn analysis_and_bench_helpers_are_reachable() {
    let scale = bench_scale();
    assert!(!scale.n_values.is_empty());
    let tiny = ExperimentScale::tiny();
    assert!(!tiny.n_values.is_empty());
    let fit = fit_power_law(&[(4.0, 16.0), (8.0, 64.0), (16.0, 256.0)]).unwrap();
    assert!((fit.exponent - 2.0).abs() < 1e-9);
}
