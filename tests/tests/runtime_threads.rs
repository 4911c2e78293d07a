//! Cross-crate integration tests: the free-running live runtime, one OS
//! thread per process, reaches the same protocol outcomes as the
//! discrete-event simulator.

use std::time::Duration;

use agossip_core::{check_gossip, Ears, GossipSpec, Rumor, Sears, Tears, Trivial};
use agossip_runtime::{run_live, ChannelTransport, LiveConfig, Pacing};
use agossip_sim::ProcessId;

fn initial_rumors(n: usize) -> Vec<Rumor> {
    (0..n).map(|i| Rumor::new(ProcessId(i), i as u64)).collect()
}

#[test]
fn ears_full_gossip_holds_on_threads() {
    let n = 16;
    let config = LiveConfig::free_running(n, 4, 11);
    let report = run_live(&config, &ChannelTransport, Ears::new).unwrap();
    let check = check_gossip(
        GossipSpec::Full,
        &report.final_rumors,
        &initial_rumors(n),
        &report.correct,
        report.quiescent,
    );
    assert!(check.all_ok(), "{check:?}");
    assert!(report.messages_sent > 0);
    assert_eq!(report.messages_sent, report.messages_delivered);
}

#[test]
fn sears_full_gossip_holds_on_threads() {
    let n = 16;
    let config = LiveConfig::free_running(n, 4, 12);
    let report = run_live(&config, &ChannelTransport, Sears::new).unwrap();
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
fn tears_majority_gossip_holds_on_threads() {
    let n = 32;
    let config = LiveConfig::free_running(n, 0, 13);
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
fn threaded_and_simulated_trivial_gossip_send_the_same_message_count() {
    let n = 12;
    // The trivial protocol's message count is deterministic (n(n-1))
    // regardless of scheduling, so the two execution substrates must agree
    // exactly.
    let config = LiveConfig::free_running(n, 0, 14);
    let threaded = run_live(&config, &ChannelTransport, Trivial::new).unwrap();
    assert!(threaded.quiescent, "must end by quiescence, not timeout");
    assert_eq!(threaded.messages_sent, (n * (n - 1)) as u64);

    let cfg = agossip_sim::SimConfig::new(n, 0).with_seed(14);
    let mut adv = agossip_sim::FairObliviousAdversary::new(1, 1, 14);
    let simulated =
        agossip_core::run_gossip(&cfg, GossipSpec::Full, &mut adv, Trivial::new).unwrap();
    assert_eq!(simulated.messages(), threaded.messages_sent);
}

#[test]
fn crash_injection_reduces_correct_set_but_not_correctness() {
    let n = 12;
    let config = LiveConfig::free_running(n, 4, 15)
        .with_crashes(vec![(ProcessId(10), 0), (ProcessId(11), 2)]);
    let report = run_live(&config, &ChannelTransport, Ears::new).unwrap();
    assert_eq!(report.correct.iter().filter(|c| !**c).count(), 2);
    let check = check_gossip(
        GossipSpec::Full,
        &report.final_rumors,
        &initial_rumors(n),
        &report.correct,
        true,
    );
    assert!(check.gathering_ok, "{check:?}");
    assert!(check.validity_ok);
}

#[test]
fn slow_network_still_completes_within_the_deadline() {
    let n = 8;
    let config = LiveConfig {
        pacing: Pacing::FreeRunning {
            max_delay: Duration::from_millis(20),
            max_step_pause: Duration::from_millis(10),
            quiet_period: Duration::from_millis(150),
            max_duration: Duration::from_secs(30),
        },
        ..LiveConfig::free_running(n, 0, 16)
    };
    let report = run_live(&config, &ChannelTransport, Ears::new).unwrap();
    assert!(
        report.quiescent,
        "did not finish before the wall-clock limit"
    );
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
fn steps_are_recorded_per_node() {
    let config = LiveConfig::free_running(4, 0, 5);
    let report = run_live(&config, &ChannelTransport, Trivial::new).unwrap();
    assert_eq!(report.steps.len(), 4);
    assert!(report.steps.iter().all(|&s| s > 0));
    assert!(matches!(
        config.pacing,
        Pacing::FreeRunning { max_duration, .. } if report.elapsed < max_duration
    ));
}
