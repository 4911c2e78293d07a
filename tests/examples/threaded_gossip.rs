//! Runs the same `ears` protocol outside the simulator: free-running
//! pacing, one OS thread per process, in-process channels with randomized
//! injected delays, and two crash-injected nodes — demonstrating that the
//! protocol state machines are genuinely asynchronous.
//!
//! ```text
//! cargo run --release --example threaded_gossip
//! ```

use agossip_core::{check_gossip, Ears, GossipSpec, Rumor};
use agossip_runtime::{run_live, ChannelTransport, LiveConfig, Pacing};
use agossip_sim::ProcessId;
use std::time::Duration;

fn main() {
    let n = 32;
    let f = 4;
    let config = LiveConfig {
        pacing: Pacing::FreeRunning {
            max_delay: Duration::from_millis(5),
            max_step_pause: Duration::from_millis(2),
            quiet_period: Duration::from_millis(200),
            max_duration: Duration::from_secs(30),
        },
        ..LiveConfig::free_running(n, f, 99)
    }
    .with_crashes(vec![(ProcessId(30), 3), (ProcessId(31), 10)]);
    println!("running ears on {n} threads with injected delays and 2 crashes...");
    let report = run_live(&config, &ChannelTransport, Ears::new).expect("live run failed");

    let initial: Vec<Rumor> = (0..n).map(|i| Rumor::new(ProcessId(i), i as u64)).collect();
    let check = check_gossip(
        GossipSpec::Full,
        &report.final_rumors,
        &initial,
        &report.correct,
        report.quiescent,
    );
    println!("  quiescent:         {}", report.quiescent);
    println!("  wall-clock:        {:?}", report.elapsed);
    println!("  messages sent:     {}", report.messages_sent);
    println!("  messages delivered:{}", report.messages_delivered);
    println!("  gathering ok:      {}", check.gathering_ok);
    println!("  validity ok:       {}", check.validity_ok);
}
