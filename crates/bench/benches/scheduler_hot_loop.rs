//! Scheduler hot loop — steps/sec of the simulation engine itself.
//!
//! Unlike the paper-artifact benches, this target measures the *engine*: how
//! fast `Simulation` executes global time steps, independent of any
//! particular protocol's asymptotics. Three groups:
//!
//! * `oblivious` — the common experiment hot loop (reference adversary,
//!   chatter protocol, `d = 4`, `δ = 2`).
//! * `withheld` — queues that only ever grow (every message withheld), the
//!   historical worst case for the delivery scan.
//! * `idle_fast_forward` — a one-shot flood with a large delivery bound,
//!   with and without idle fast-forward, showing the win from jumping over
//!   quiescent windows.
//!
//! `scheduler_baseline` (a `--bin` in this crate) runs the same workloads
//! outside criterion and emits the `BENCH_scheduler.json` numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use agossip_bench::hotloop::{run_oblivious, run_withheld};
use agossip_sim::{FairObliviousAdversary, ProcessId, SimConfig, Simulation, StopReason};

/// One-shot flood used by the idle fast-forward group: everyone sends once,
/// then the run is pure idle waiting interleaved with deliveries.
mod flood {
    use agossip_sim::{Envelope, Outbox, Process, ProcessId, TimeStep};

    #[derive(Debug, Clone)]
    pub struct OneShotFlood {
        pub id: ProcessId,
        pub n: usize,
        pub sent: bool,
    }

    impl Process for OneShotFlood {
        type Message = u64;

        fn on_step(
            &mut self,
            _now: TimeStep,
            inbox: &mut Vec<Envelope<Self::Message>>,
            out: &mut Outbox<Self::Message>,
        ) {
            inbox.clear();
            if !self.sent {
                self.sent = true;
                for q in ProcessId::all(self.n) {
                    if q != self.id {
                        out.send(q, 0);
                    }
                }
            }
        }

        fn is_quiescent(&self) -> bool {
            self.sent
        }
    }
}

fn idle_flood_run(n: usize, d: u64, fast_forward: bool) {
    let config = SimConfig::new(n, 0)
        .with_d(d)
        .with_delta(2)
        .with_seed(2008)
        .with_idle_fast_forward(fast_forward);
    let processes = ProcessId::all(n)
        .map(|id| flood::OneShotFlood { id, n, sent: false })
        .collect();
    let mut sim: Simulation<flood::OneShotFlood> = Simulation::new(config, processes).unwrap();
    let mut adversary = FairObliviousAdversary::new(d, 2, 2008);
    let outcome = sim.run_with(&mut adversary).expect("flood run failed");
    assert_eq!(outcome.reason, StopReason::Quiescent);
}

fn bench_scheduler_hot_loop(c: &mut Criterion) {
    let steps = 256u64;

    let mut group = c.benchmark_group("scheduler_hot_loop");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::new("oblivious", n), &n, |b, &n| {
            b.iter(|| run_oblivious(n, steps))
        });
        group.bench_with_input(BenchmarkId::new("withheld", n), &n, |b, &n| {
            b.iter(|| run_withheld(n, steps))
        });
    }
    for &ff in &[false, true] {
        let name = if ff { "idle_ff_on" } else { "idle_ff_off" };
        group.bench_with_input(BenchmarkId::new(name, 256), &ff, |b, &ff| {
            b.iter(|| idle_flood_run(256, 512, ff))
        });
    }
    group.finish();

    // Print the steps/sec table once, mirroring scheduler_baseline.
    for &n in &[64usize, 256, 1024] {
        println!(
            "scheduler_hot_loop n={n}: oblivious {:.0} steps/s, withheld {:.0} steps/s",
            run_oblivious(n, steps),
            run_withheld(n, steps),
        );
    }
}

criterion_group!(benches, bench_scheduler_hot_loop);
criterion_main!(benches);
