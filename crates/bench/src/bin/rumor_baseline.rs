//! Old-vs-new throughput and memory runner for the dense `RumorSet` rework.
//!
//! Emits one JSON object per line, suitable for appending to
//! `BENCH_rumorset.json` at the repository root (the perf trajectory later
//! PRs compare against):
//!
//! * **micro** — ops/sec of `union` (pure merge into an
//!   already-superset accumulator, no allocation on either side),
//!   `clone_union` (clone + merge, what one pre-rework broadcast
//!   destination cost), `insert`, `contains` and `iter` at
//!   n ∈ {256, 1024, 4096}, dense word-packed representation vs the
//!   historical `BTreeMap` baseline (kept as an oracle in
//!   [`agossip_bench::rumorset`]);
//! * **macro** — the canonical Table 1 `tears` trial at `n = 128` (and, with
//!   `--large`, at `n = 256`): wall-clock seconds, messages, and the
//!   process's peak RSS from `/proc/self/status` `VmHWM` after the trial.
//!
//! The macro rows are run in ascending `n` order so each `VmHWM` reading is
//! dominated by its own trial. The pre-rework baseline figures for the same
//! trials (measured before the representation change) are recorded alongside
//! for the reduction factors.
//!
//! Usage: `cargo run --release -p agossip-bench --bin rumor_baseline
//! [--large] [label]`

use std::time::Instant;

use agossip_analysis::experiments::{ExperimentScale, GossipProtocolKind};
use agossip_analysis::{ScenarioSpec, TrialProtocol};
use agossip_bench::rumorset::{btree_evens, btree_odds, dense_evens, dense_odds, BTreeRumorSet};
use agossip_core::{Rumor, RumorSet};
use agossip_sim::ProcessId;

/// Times `op` over `iters` runs and returns ops/sec.
fn ops_per_sec<F: FnMut()>(iters: u64, mut op: F) -> f64 {
    // One warm-up run.
    op();
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process so far, in MiB, from `VmHWM`
/// (`None` off Linux).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores available to this process — recorded in every row, since a
/// one-core box and a shared one time the same code differently.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn micro(label: &str) {
    let cores = cores();
    for &n in &[256usize, 1024, 4096] {
        let iters = (4_000_000 / n).max(64) as u64;

        let dense_a = dense_evens(n);
        let dense_b = dense_odds(n);
        let btree_a = btree_evens(n);
        let btree_b = btree_odds(n);

        // Pure merge, no allocation on either side: union into an
        // accumulator that is already a superset — the steady-state deliver
        // path where most incoming rumors are known.
        let mut dense_acc = dense_a.clone();
        dense_acc.union(&dense_b);
        let dense_union = ops_per_sec(iters, || {
            std::hint::black_box(dense_acc.union(&dense_b));
        });
        let mut btree_acc = btree_a.clone();
        btree_acc.union(&btree_b);
        let btree_union = ops_per_sec(iters, || {
            std::hint::black_box(btree_acc.union(&btree_b));
        });

        // Clone + merge: what one pre-rework broadcast destination cost
        // (the old code deep-cloned the sender's map per destination, and
        // the receiver merged it in).
        let dense_clone_union = ops_per_sec(iters, || {
            let mut acc = dense_a.clone();
            std::hint::black_box(acc.union(&dense_b));
        });
        let btree_clone_union = ops_per_sec(iters, || {
            let mut acc = btree_a.clone();
            std::hint::black_box(acc.union(&btree_b));
        });

        let dense_insert = ops_per_sec(iters, || {
            let mut s = RumorSet::new();
            for i in 0..n {
                s.insert(Rumor::new(ProcessId(i), i as u64));
            }
            std::hint::black_box(s.len());
        });
        let btree_insert = ops_per_sec(iters, || {
            let mut s = BTreeRumorSet::default();
            for i in 0..n {
                s.insert(Rumor::new(ProcessId(i), i as u64));
            }
            std::hint::black_box(s.len());
        });

        let dense_contains = ops_per_sec(iters, || {
            let mut hits = 0usize;
            for i in 0..n {
                hits += dense_a.contains_origin(ProcessId(i)) as usize;
            }
            std::hint::black_box(hits);
        });
        let btree_contains = ops_per_sec(iters, || {
            let mut hits = 0usize;
            for i in 0..n {
                hits += btree_a.contains_origin(ProcessId(i)) as usize;
            }
            std::hint::black_box(hits);
        });

        let dense_iter = ops_per_sec(iters, || {
            std::hint::black_box(dense_a.iter().map(|r| r.payload).sum::<u64>());
        });
        let btree_iter = ops_per_sec(iters, || {
            std::hint::black_box(btree_a.iter().map(|r| r.payload).sum::<u64>());
        });

        println!(
            "{{\"label\": \"{label}\", \"kind\": \"micro\", \"n\": {n}, \
             \"available_parallelism\": {cores}, \
             \"union_dense_per_sec\": {dense_union:.0}, \"union_btree_per_sec\": {btree_union:.0}, \
             \"union_speedup\": {:.1}, \
             \"clone_union_dense_per_sec\": {dense_clone_union:.0}, \"clone_union_btree_per_sec\": {btree_clone_union:.0}, \
             \"clone_union_speedup\": {:.1}, \
             \"insert_dense_per_sec\": {dense_insert:.0}, \"insert_btree_per_sec\": {btree_insert:.0}, \
             \"contains_dense_per_sec\": {dense_contains:.0}, \"contains_btree_per_sec\": {btree_contains:.0}, \
             \"iter_dense_per_sec\": {dense_iter:.0}, \"iter_btree_per_sec\": {btree_iter:.0}}}",
            dense_union / btree_union,
            dense_clone_union / btree_clone_union,
        );
    }
}

/// One canonical Table 1 `tears` trial (trial 0 of the reference scale) at
/// size `n`; prints wall-clock, messages and peak RSS.
fn tears_trial(label: &str, n: usize, baseline_note: &str) {
    let scale = ExperimentScale::default();
    let spec =
        ScenarioSpec::from_scale(TrialProtocol::Gossip(GossipProtocolKind::Tears), &scale, n);
    let start = Instant::now();
    let report = spec.run_trial(0).expect("tears trial must run");
    let secs = start.elapsed().as_secs_f64();
    assert!(report.ok, "tears trial failed its correctness check");
    let rss = peak_rss_mib().unwrap_or(-1.0);
    let cores = cores();
    println!(
        "{{\"label\": \"{label}\", \"kind\": \"tears_trial\", \"n\": {n}, \
         \"available_parallelism\": {cores}, \
         \"wall_secs\": {secs:.2}, \"messages\": {}, \"wire_units\": {}, \
         \"peak_rss_mib\": {rss:.0}, \"pre_rework_baseline\": \"{baseline_note}\"}}",
        report.messages, report.wire_units,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let large = args.iter().any(|a| a == "--large");
    let label = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "current".into());

    micro(&label);
    tears_trial(&label, 128, "~20 GB RSS, minutes-scale (PR 3 measurement)");
    if large {
        tears_trial(
            &label,
            256,
            ">35 min, ~60 GB RSS (PR 3 measurement, excluded from default grid)",
        );
    }
}
