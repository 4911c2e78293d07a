//! Differential tests between the live runtime and the discrete-event
//! simulator, expressed through the shared [`agossip_xtests::live_harness`]:
//! the set of rumors learned by every correct process in a live run must
//! satisfy exactly the same correctness checker that judges simulated
//! executions — same verdicts, and (for full gossip) the same final rumor
//! sets.
//!
//! Because every case goes through `live_vs_sim`, the whole matrix —
//! channel/TCP/UDS × lockstep/free-running — runs under both threading
//! disciplines (thread-per-process and multiplexing reactors) by iterating
//! [`live_harness::threadings`]: the reactor inherits every PR 5 acceptance
//! case for free. Lockstep socket runs are also held bit-identical to the
//! channel run of the same seed, one-shot and as a service.

use agossip_core::{Ears, GossipSpec, LoopMode, Tears, Trivial};
use agossip_runtime::{
    run_live, run_service, ChannelTransport, LiveConfig, Pacing, ServiceConfig, ServiceReport,
    SocketTransport, Threading,
};
use agossip_sim::ProcessId;
use agossip_xtests::live_harness::{
    assert_bit_identical, live_vs_sim, threadings, DiffConfig, SimSide, TransportKind,
};

/// The live runtime and the simulator, running the same protocol from the
/// same seed, must both produce executions the correctness checker accepts —
/// and for full gossip without crashes, the *same* final rumor sets: every
/// correct process ends holding every rumor, in both substrates. Holds under
/// every threading discipline.
#[test]
fn live_and_simulated_ears_agree_with_the_checker() {
    for threading in threadings() {
        let mut live = LiveConfig {
            pacing: Pacing::Lockstep {
                d: 2,
                max_ticks: 1 << 20,
            },
            ..LiveConfig::lockstep(16, 4, 77)
        };
        live.threading = threading;
        let case = DiffConfig {
            live,
            transport: TransportKind::Channel,
            spec: GossipSpec::Full,
            sim: Some(SimSide { d: 2, delta: 2 }),
        };
        let verdict = live_vs_sim(&case, Ears::new).unwrap();
        verdict.assert_checker_verified();
        // Full gossip, no crashes: both substrates converge on identical
        // rumor sets at every process.
        verdict.assert_rumor_sets_match_sim();
    }
}

/// Majority gossip differential: the checker that judges simulated `tears`
/// runs accepts the live runs too, under every threading discipline.
#[test]
fn live_and_simulated_tears_agree_with_the_checker() {
    for threading in threadings() {
        let mut live = LiveConfig::lockstep(24, 0, 5);
        live.threading = threading;
        let case = DiffConfig {
            live,
            transport: TransportKind::Channel,
            spec: GossipSpec::Majority,
            sim: Some(SimSide { d: 2, delta: 2 }),
        };
        let verdict = live_vs_sim(&case, Tears::new).unwrap();
        verdict.assert_checker_verified();
    }
}

fn n32_crash_config(seed: u64) -> LiveConfig {
    LiveConfig::lockstep(32, 4, seed).with_crashes(vec![
        (ProcessId(31), 0),
        (ProcessId(30), 2),
        (ProcessId(29), 7),
        (ProcessId(28), 19),
    ])
}

fn assert_checker_verified(transport: TransportKind, config: &LiveConfig) {
    let case = DiffConfig::live_only(config.clone(), transport);
    live_vs_sim(&case, Ears::new)
        .unwrap()
        .assert_checker_verified();
}

/// The acceptance criterion, channel half: an `n = 32` lockstep run with
/// staggered crashes is bit-identical across repeats of the same seed —
/// and across threading disciplines, including different reactor counts.
#[test]
fn channel_lockstep_n32_with_crashes_is_bit_identical() {
    let config = n32_crash_config(2008);
    let a = run_live(&config, &ChannelTransport, Ears::new).unwrap();
    let b = run_live(&config, &ChannelTransport, Ears::new).unwrap();
    assert_bit_identical("repeat", &a, &b);
    assert!(a.quiescent);
    for reactors in [1usize, 4] {
        let on_reactors = config.clone().on_reactors(reactors);
        let c = run_live(&on_reactors, &ChannelTransport, Ears::new).unwrap();
        assert_bit_identical(&format!("reactors={reactors}"), &a, &c);
    }
    assert_checker_verified(TransportKind::Channel, &config);
}

/// Sockets change how bytes move, never the execution: the same `n = 32`
/// crash run over TCP and UDS, on node threads and on 2 reactors, is
/// bit-identical to the channel run.
#[test]
fn socket_lockstep_n32_with_crashes_matches_channels_bit_for_bit() {
    let config = n32_crash_config(2008);
    let reference = run_live(&config, &ChannelTransport, Ears::new).unwrap();
    for threading in threadings() {
        let mut config = config.clone();
        config.threading = threading;
        let tcp = run_live(&config, &SocketTransport::tcp(), Ears::new).unwrap();
        assert_bit_identical(&format!("tcp, {threading:?}"), &reference, &tcp);
        #[cfg(unix)]
        {
            let uds = run_live(&config, &SocketTransport::uds(), Ears::new).unwrap();
            assert_bit_identical(&format!("uds, {threading:?}"), &reference, &uds);
        }
    }
}

/// The same for a pipelined service run: `Trivial` at `n = 16`, 64 epochs,
/// 32 in flight, over UDS, matches channels on message and tick counts and
/// on every epoch's lifecycle.
#[cfg(unix)]
#[test]
fn uds_service_matches_channels_epoch_for_epoch() {
    let live = LiveConfig::builder(16, 0, 2008)
        .reactors(2)
        .build()
        .unwrap();
    let config = ServiceConfig::new(live, 64)
        .with_window(36)
        .with_mode(LoopMode::Closed { in_flight: 32 });
    let lifecycle = |report: &ServiceReport| -> Vec<(u64, u64, u64, u64)> {
        report
            .epochs
            .iter()
            .map(|e| (e.epoch, e.opened_at, e.settled_at, e.finalized_at))
            .collect()
    };
    let channel = run_service(&config, &ChannelTransport, Trivial::new).unwrap();
    let uds = run_service(&config, &SocketTransport::uds(), Trivial::new).unwrap();
    assert!(channel.quiescent && channel.all_ok());
    assert!(uds.quiescent && uds.all_ok());
    assert_eq!(channel.epochs.len(), 64);
    assert_eq!(uds.messages_sent, channel.messages_sent);
    assert_eq!(uds.ticks, channel.ticks);
    assert_eq!(lifecycle(&uds), lifecycle(&channel));
}

/// The acceptance criterion, TCP half: a live loopback-TCP run at `n = 32`
/// with crashes completes with every correct process holding the
/// checker-verified rumor set — on node threads and on reactors.
#[test]
fn tcp_n32_with_crashes_is_checker_verified() {
    for threading in threadings() {
        let mut config = n32_crash_config(2009);
        config.threading = threading;
        assert_checker_verified(TransportKind::Tcp, &config);
    }
}

/// Same over Unix-domain sockets.
#[cfg(unix)]
#[test]
fn uds_n32_with_crashes_is_checker_verified() {
    for threading in threadings() {
        let mut config = n32_crash_config(2010);
        config.threading = threading;
        assert_checker_verified(TransportKind::Uds, &config);
    }
}

/// Free-running pacing (real scheduling nondeterminism) still yields
/// checker-verified executions over TCP, on node threads and on reactors.
#[test]
fn free_running_tcp_is_checker_verified() {
    for threading in threadings() {
        let mut config = LiveConfig::free_running(8, 2, 11);
        config.threading = threading;
        assert_checker_verified(TransportKind::Tcp, &config);
    }
}

/// CI's `live_smoke` job: the reactor differential at `n = 512` on two
/// reactor threads — 512 live processes multiplexed onto 2 event loops,
/// running scale-calibrated `tears` with the full 16-crash schedule, judged
/// by the same checker as a simulator run at the same timing bounds.
///
/// Ignored by default: the run is release-scale (~7 s debug is fine, but
/// the sim side at n = 512 adds more); the CI job runs it with
/// `--release -- --ignored`.
#[test]
#[ignore = "release-scale smoke; CI's live_smoke job runs it with --release -- --ignored"]
fn reactor_differential_n512_on_two_threads() {
    use agossip_analysis::experiments::live::{live_scale_config, live_scale_params};
    use agossip_core::Tears;

    let live = live_scale_config(512, 2, 2008);
    assert_eq!(live.threading, Threading::Reactor { reactors: 2 });
    let params = live_scale_params(512);
    let case = DiffConfig {
        live,
        transport: TransportKind::Channel,
        spec: GossipSpec::Majority,
        sim: Some(SimSide { d: 6, delta: 3 }),
    };
    let verdict = live_vs_sim(&case, move |ctx| Tears::with_params(ctx, params)).unwrap();
    verdict.assert_checker_verified();
}

/// Free-running reactor runs with staggered crashes stay checker-verified
/// over channels — the crash path exercises slot deregistration rather
/// than thread exit.
#[test]
fn free_running_reactor_crashes_deregister_cleanly() {
    let config = LiveConfig::free_running(16, 4, 13)
        .with_crashes(vec![
            (ProcessId(15), 0),
            (ProcessId(14), 2),
            (ProcessId(13), 5),
        ])
        .on_reactors(3);
    assert_eq!(config.threading, Threading::Reactor { reactors: 3 });
    assert_checker_verified(TransportKind::Channel, &config);
}
