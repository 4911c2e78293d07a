//! Throughput and memory runner for the `scale` scenario: checker-verified
//! `tears` trials at `n ∈ {4 096, 16 384, 65 536}` with the scaled
//! constants of [`agossip_analysis::experiments::scale`].
//!
//! Emits one JSON object per line, suitable for appending to
//! `BENCH_scale.json` at the repository root (the trajectory the
//! `bench_check` CI gate compares against):
//!
//! * `steps_per_sec` — simulated global time steps per wall-clock second
//!   (the scenario completes in `O(d+δ)` steps, so this is dominated by the
//!   per-step delivery and union work — exactly what the adaptive-set and
//!   network-queue layers are pinned on);
//! * `messages_per_sec` — delivered point-to-point messages per second;
//! * `peak_rss_mib` — the process's peak RSS from `/proc/self/status`
//!   `VmHWM` after the trial;
//! * `peak_in_flight` / `in_flight_entry_bytes` / `peak_queue_mib` — the
//!   most messages in flight at any step boundary (what the adversary's
//!   [`SystemView`] reports), the bytes one of them occupies in the network
//!   (its payload, send time, and 32-bit sender and delay), and their
//!   product: the network queue's share of the peak RSS.
//!
//! Sizes run in ascending order so each `VmHWM` reading is dominated by its
//! own trial. Every trial is asserted checker-verified (majority gathering,
//! validity, quiescence) — the binary aborts otherwise.
//!
//! Usage: `cargo run --release -p agossip-bench --bin scale_baseline --
//! [--n A,B,C] [--a TARGET] [--d D] [--delta D] [label]`
//!
//! `--a`, `--d` and `--delta` are calibration knobs: they override the
//! per-size neighbourhood target (normally [`scale_tears_params`]) and the
//! delivery/step bounds of the grid, for exploring the coverage/memory
//! trade-off before a new calibration is committed. The committed baseline
//! is always recorded with none of them set.

use std::time::Instant;

use agossip_analysis::experiments::scale::{
    scale_default_scale, scale_tears_params, tears_params_for_a,
};
use agossip_analysis::{ScenarioSpec, TrialProtocol};
use agossip_core::{run_gossip, GossipSpec, Tears, TearsMessage};
use agossip_sim::{
    Adversary, EnvelopeMeta, FairObliviousAdversary, StepPlan, SystemView, TimeStep,
};

/// Peak resident set size of this process so far, in MiB, from `VmHWM`
/// (`None` off Linux).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The scenario's reference adversary, noting the most messages it ever saw
/// in flight.
struct PeakInFlight {
    inner: FairObliviousAdversary,
    peak: usize,
}

impl Adversary for PeakInFlight {
    fn plan_step(&mut self, view: &SystemView<'_>) -> StepPlan {
        self.peak = self.peak.max(view.in_flight);
        self.inner.plan_step(view)
    }

    fn message_delay(&mut self, meta: &EnvelopeMeta, view: &SystemView<'_>) -> u64 {
        self.inner.message_delay(meta, view)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = scale_default_scale();
    let mut label = "current".to_string();
    let mut a_override: Option<f64> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--n" => {
                scale.n_values = value_for("--n")
                    .split(',')
                    .map(|v| v.trim().parse().expect("--n: sizes must be integers"))
                    .collect();
            }
            "--a" => {
                a_override = Some(value_for("--a").parse().expect("--a: must be a number"));
            }
            "--d" => {
                scale.d = value_for("--d").parse().expect("--d: must be an integer");
            }
            "--delta" => {
                scale.delta = value_for("--delta")
                    .parse()
                    .expect("--delta: must be an integer");
            }
            other if !other.starts_with("--") => label = other.to_string(),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: scale_baseline [--n A,B,C] [--a TARGET] [--d D] [--delta D] [label]"
                );
                std::process::exit(2);
            }
        }
    }

    // Ascending n: each VmHWM reading is dominated by its own trial.
    scale.n_values.sort_unstable();
    for &n in &scale.n_values {
        let params = match a_override {
            Some(a) => tears_params_for_a(n, a),
            None => scale_tears_params(n),
        };
        // The scenario's own trial (`ScenarioSpec::run_trial`: same config,
        // same reference adversary, same engine), run here so the adversary
        // can be the observing one.
        let config =
            ScenarioSpec::from_scale(TrialProtocol::TearsWith(params), &scale, n).config_for(0);
        let mut adversary = PeakInFlight {
            inner: FairObliviousAdversary::new(config.d, config.delta, config.seed),
            peak: 0,
        };
        let start = Instant::now();
        let report = run_gossip(&config, GossipSpec::Majority, &mut adversary, |ctx| {
            Tears::with_params(ctx, params)
        })
        .expect("scale tears trial must run");
        let secs = start.elapsed().as_secs_f64();
        assert!(
            report.check.all_ok(),
            "scale tears trial at n = {n} failed its correctness check"
        );
        let steps = report.time_steps().expect("a verified trial is quiescent");
        let rss = peak_rss_mib().unwrap_or(-1.0);
        let entry_bytes = size_of::<TearsMessage>() + size_of::<TimeStep>() + 2 * size_of::<u32>();
        let peak = adversary.peak;
        println!(
            "{{\"label\": \"{label}\", \"n\": {n}, \"a\": {a:.0}, \"d\": {d}, \
             \"wall_secs\": {secs:.2}, \"steps\": {steps}, \
             \"steps_per_sec\": {steps_per_sec:.3}, \
             \"messages\": {messages}, \"messages_per_sec\": {mps:.0}, \
             \"peak_rss_mib\": {rss:.0}, \"peak_in_flight\": {peak}, \
             \"in_flight_entry_bytes\": {entry_bytes}, \
             \"peak_queue_mib\": {queue_mib:.0}, \"checker_ok\": true}}",
            a = params.a(n),
            d = scale.d,
            steps_per_sec = steps as f64 / secs,
            messages = report.messages(),
            mps = report.messages() as f64 / secs,
            queue_mib = (peak * entry_bytes) as f64 / (1024.0 * 1024.0),
        );
    }
}
