//! The metric tables: every end-to-end and per-layer metric by name, with
//! its unit, and how each is computed from a run's trials.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use crate::stats::{percentile, quartiles};
use crate::timed::{EngineCounts, TransportCounts};
use crate::workloads::{Layers, ServiceTicks, Trial};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value: a median over the run's samples where there are several.
    pub value: f64,
    /// `(q1, q3, samples)` of what the value is the median of, if anything.
    pub spread: Option<(f64, f64, usize)>,
}

/// `(name, unit)` of every end-to-end metric, in reporting order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("trial_s", "s"),
    ("msgs_per_s", "1/s"),
    ("epochs_per_s", "1/s"),
    ("settle_p50_ms", "ms"),
    ("settle_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, in reporting order.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("analysis.sweep.trials", "count"),
    ("analysis.sweep.worker_busy_frac", "frac"),
    ("sim.kernel.self_ms", "ms"),
    ("sim.kernel.steps", "count"),
    ("sim.kernel.msgs", "count"),
    ("sim.kernel.ns_per_msg", "ns"),
    ("sim.adversary.plan_ms", "ms"),
    ("sim.adversary.delay_ms", "ms"),
    ("sim.adversary.delay_calls", "count"),
    ("consensus.table2_ms", "ms"),
    ("consensus.msgs", "count"),
    ("core.engine.step_ms", "ms"),
    ("core.engine.step_calls", "count"),
    ("core.engine.deliver_ms", "ms"),
    ("core.engine.deliver_calls", "count"),
    ("core.engine.deliver_frames", "count"),
    ("core.engine.frames_per_batch", "count"),
    ("core.engine.decode_errors", "count"),
    ("core.codec.encode_ns_per_byte", "ns"),
    ("core.codec.encode_ns_per_msg", "ns"),
    ("core.codec.bytes_per_msg", "B"),
    ("core.codec_view.decode_ns_per_byte", "ns"),
    ("core.codec_view.decode_ns_per_msg", "ns"),
    ("core.rumor.union_dense_ns", "ns"),
    ("core.rumor.union_sparse_ns", "ns"),
    ("core.checker.check_ms", "ms"),
    ("core.epoch.stale_drops", "count"),
    ("core.epoch.max_open", "count"),
    ("runtime.transport.open_ms", "ms"),
    ("runtime.transport.send_ms", "ms"),
    ("runtime.transport.send_calls", "count"),
    ("runtime.transport.poll_ms", "ms"),
    ("runtime.transport.poll_calls", "count"),
    ("runtime.transport.poll_empty_frac", "frac"),
    ("runtime.transport.flush_ms", "ms"),
    ("runtime.transport.frames_lost", "count"),
    ("runtime.transport.framebuf_ns_per_frame", "ns"),
    ("runtime.loop.other_ms", "ms"),
    ("runtime.loop.ticks", "count"),
    ("runtime.loop.ms_per_tick", "ms"),
    ("runtime.loop.thread_busy_frac", "frac"),
    ("runtime.service.epochs", "count"),
    ("runtime.service.settle_p50_ticks", "ticks"),
    ("runtime.service.settle_p90_ticks", "ticks"),
    ("runtime.service.finalize_lag_p50_ticks", "ticks"),
    ("trace.overhead_frac", "frac"),
    ("trace.thread_ms", "ms"),
    ("trace.accounted_ms", "ms"),
    ("trace.trials", "count"),
];

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn of_samples(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    let (q1, value, q3) = quartiles(samples).unwrap_or((0.0, 0.0, 0.0));
    Metric {
        name,
        unit,
        value,
        spread: Some((q1, q3, samples.len())),
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: &[f64], trials: &[Trial], peak_rss_mib: f64) -> Vec<Metric> {
    let walls: Vec<f64> = trials.iter().map(|t| t.wall_s).collect();
    let msgs: Vec<f64> = trials
        .iter()
        .map(|t| ratio(t.counts.messages as f64, t.wall_s))
        .collect();
    let epochs: Vec<f64> = trials
        .iter()
        .map(|t| ratio(t.counts.epochs as f64, t.wall_s))
        .collect();
    // Latencies are pooled over the timed trials: every trial runs the same
    // seed, so the pool is the same distribution sampled again.
    let latencies: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.latencies_ms.iter().copied())
        .collect();
    let settle = |name, p| Metric {
        name,
        unit: "ms",
        value: percentile(&latencies, p).unwrap_or(0.0),
        spread: Some((
            percentile(&latencies, 25.0).unwrap_or(0.0),
            percentile(&latencies, 75.0).unwrap_or(0.0),
            latencies.len(),
        )),
    };
    let metrics = vec![
        of_samples("setup_s", "s", setup_s),
        of_samples("trial_s", "s", &walls),
        of_samples("msgs_per_s", "1/s", &msgs),
        of_samples("epochs_per_s", "1/s", &epochs),
        settle("settle_p50_ms", 50.0),
        settle("settle_p90_ms", 90.0),
        Metric {
            name: "peak_rss_mib",
            unit: "MiB",
            value: peak_rss_mib,
            spread: None,
        },
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| (m.name, m.unit))
        .eq(END_TO_END.iter().copied()));
    metrics
}

/// The per-layer metrics of a traced run: `traced` are its traced trials,
/// `untraced` the plain trials interleaved with them and `threads` the
/// workload's thread count.
///
/// `_ms` values and counts are per trial (the mean over the traced trials;
/// counts are identical in each), summed over all threads.
pub fn per_layer(traced: &[Trial], untraced: &[Trial], threads: usize) -> Vec<Metric> {
    let mut sum = Layers::default();
    for layers in traced.iter().filter_map(|t| t.layers.as_ref()) {
        sum.add(layers);
    }
    let k = traced.len().max(1) as f64;
    let per_trial = |total: u64| total as f64 / k;
    let ms = |total_ns: u64| total_ns as f64 / 1e6 / k;

    let mut engine = EngineCounts::default();
    sum.engine.iter().for_each(|lane| engine.add(lane));
    let mut transport = TransportCounts::default();
    sum.transport.iter().for_each(|lane| transport.add(lane));
    let engine_ns = engine.step_ns + engine.deliver_ns;
    let adversary_ns = sum.plan_ns + sum.delay_ns;
    let transport_ns = transport.send_ns + transport.poll_ns + transport.flush_ns;
    let kernel_ns = sum
        .gossip_wall_ns
        .saturating_sub(engine_ns + adversary_ns + sum.check_ns);
    let traced_wall_s: f64 = traced.iter().map(|t| t.wall_s).sum();
    let thread_ns = traced_wall_s * 1e9 * threads as f64;
    // Threaded (live, service) trials: whatever thread time no wrapper saw
    // is the event loop's own. Simulator passes: the remainder is the
    // kernel's self time plus idle pool workers, both reported above.
    let threaded = sum.ticks > 0;
    let named_ns = (engine_ns + transport_ns + sum.open_ns + sum.check_ns) as f64;
    let other_ns = if threaded {
        (thread_ns - named_ns).max(0.0)
    } else {
        0.0
    };
    let idle_ns = (sum.pool_wall_ns as f64 * threads as f64 - sum.pool_busy_ns as f64).max(0.0);
    let accounted_ns = if threaded {
        named_ns + other_ns
    } else {
        (engine_ns + adversary_ns + sum.check_ns + kernel_ns + sum.consensus_ns) as f64 + idle_ns
    };

    let service: Vec<&ServiceTicks> = traced.iter().filter_map(|t| t.service.as_ref()).collect();
    let ticks_of = |pick: fn(&ServiceTicks) -> &Vec<u64>| -> Vec<f64> {
        service
            .iter()
            .flat_map(|s| pick(s).iter().map(|&t| t as f64))
            .collect()
    };
    let settle_ticks = ticks_of(|s| &s.settle);
    let lag_ticks = ticks_of(|s| &s.finalize_lag);
    let stale_drops: u64 = service.iter().map(|s| s.stale_drops).sum();
    let service_epochs: u64 = service.iter().map(|s| s.settle.len() as u64).sum();
    let max_open = traced.iter().map(|t| t.counts.max_open).max().unwrap_or(0);

    let median_wall = |trials: &[Trial]| {
        quartiles(&trials.iter().map(|t| t.wall_s).collect::<Vec<_>>()).map(|(_, median, _)| median)
    };
    let overhead = match (median_wall(traced), median_wall(untraced)) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };

    let p = &sum.probes;
    let values: [f64; 49] = [
        per_trial(sum.pool_instances),
        ratio(
            sum.pool_busy_ns as f64,
            sum.pool_wall_ns as f64 * threads as f64,
        ),
        ms(kernel_ns),
        per_trial(sum.sim_steps),
        per_trial(sum.sim_msgs),
        ratio(kernel_ns as f64, sum.sim_msgs as f64),
        ms(sum.plan_ns),
        ms(sum.delay_ns),
        per_trial(sum.delay_calls),
        ms(sum.consensus_ns),
        per_trial(sum.consensus_msgs),
        ms(engine.step_ns),
        per_trial(engine.step_calls),
        ms(engine.deliver_ns),
        per_trial(engine.deliver_calls),
        per_trial(engine.deliver_frames),
        ratio(engine.deliver_frames as f64, engine.deliver_calls as f64),
        per_trial(engine.decode_errors),
        ratio(p.encode_ns as f64, p.bytes as f64),
        ratio(p.encode_ns as f64, p.msgs as f64),
        ratio(p.bytes as f64, p.msgs as f64),
        ratio(p.decode_ns as f64, p.bytes as f64),
        ratio(p.decode_ns as f64, p.msgs as f64),
        ratio(p.dense_ns as f64, p.dense_unions as f64),
        ratio(p.sparse_ns as f64, p.sparse_unions as f64),
        ms(sum.check_ns),
        per_trial(stale_drops),
        max_open as f64,
        ms(sum.open_ns),
        ms(transport.send_ns),
        per_trial(transport.send_calls),
        ms(transport.poll_ns),
        per_trial(transport.poll_calls),
        ratio(transport.poll_empty as f64, transport.poll_calls as f64),
        ms(transport.flush_ns),
        per_trial(transport.frames_lost),
        ratio(p.framebuf_ns as f64, p.msgs as f64),
        other_ns / 1e6 / k,
        per_trial(sum.ticks),
        ratio(sum.loop_elapsed_ns as f64 / 1e6, sum.ticks as f64),
        ratio(sum.cpu_s * 1e9, thread_ns),
        per_trial(service_epochs),
        percentile(&settle_ticks, 50.0).unwrap_or(0.0),
        percentile(&settle_ticks, 90.0).unwrap_or(0.0),
        percentile(&lag_ticks, 50.0).unwrap_or(0.0),
        overhead,
        thread_ns / 1e6 / k,
        accounted_ns / 1e6 / k,
        traced.len() as f64,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name,
            unit,
            value,
            spread: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn names(list: &Value) -> Vec<(String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let manifest = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            names(manifest.get("end_to_end").unwrap()),
            owned(&END_TO_END)
        );
        assert_eq!(names(manifest.get("per_layer").unwrap()), owned(&PER_LAYER));
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn end_to_end_reports_medians_rates_and_pooled_latencies() {
        let trial = |wall_s: f64, latencies_ms: Vec<f64>| Trial {
            wall_s,
            counts: crate::workloads::Counts {
                messages: 1000,
                epochs: 4,
                ..Default::default()
            },
            latencies_ms,
            ..Trial::default()
        };
        let trials = [
            trial(2.0, vec![1.0, 2.0]),
            trial(1.0, vec![3.0, 4.0]),
            trial(4.0, vec![5.0]),
        ];
        let metrics = end_to_end(&[0.3, 0.1, 0.2], &trials, 12.5);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("trial_s"), 2.0);
        assert_eq!(get("msgs_per_s"), 500.0);
        assert_eq!(get("epochs_per_s"), 2.0);
        assert_eq!(get("settle_p50_ms"), 3.0);
        assert_eq!(get("peak_rss_mib"), 12.5);
    }

    #[test]
    fn per_layer_names_every_metric_even_with_no_trials() {
        let metrics = per_layer(&[], &[], 2);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.iter().all(|m| m.value == 0.0));
    }
}
