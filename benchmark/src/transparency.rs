//! The wrappers must be invisible to the program: a run with
//! `Timed<G>`/`TimedTransport<T>` installed produces exactly the outcome of
//! the same run without them.

use std::sync::Arc;

use agossip_analysis::experiments::live::{live_scale_config, live_scale_params};
use agossip_analysis::experiments::service::live_service_config;
use agossip_core::{LoopMode, Tears};
use agossip_runtime::{run_live, run_service, ChannelTransport};

use crate::timed::{EngineSink, Timed, TimedTransport, TransportSink};
use crate::trace::Tracer;
use crate::workloads::{run_trial, Size, Workload};

#[test]
fn lockstep_tears_run_live_is_identical_with_and_without_wrappers() {
    let n = 64;
    let config = live_scale_config(n, 2, 7);
    let params = live_scale_params(n);
    let plain = run_live(&config, &ChannelTransport, move |ctx| {
        Tears::with_params(ctx, params)
    })
    .unwrap();

    let engine_sink = EngineSink::new(2);
    let transport_sink = TransportSink::new(2);
    let wrapped = run_live(
        &config,
        &TimedTransport::new(ChannelTransport, Arc::clone(&transport_sink)),
        |ctx| Timed::new(Tears::with_params(ctx, params), Arc::clone(&engine_sink)),
    )
    .unwrap();

    assert_eq!(plain.final_rumors, wrapped.final_rumors);
    assert_eq!(plain.messages_sent, wrapped.messages_sent);
    assert_eq!(plain.messages_delivered, wrapped.messages_delivered);
    assert_eq!(plain.bytes_sent, wrapped.bytes_sent);
    assert_eq!(plain.ticks, wrapped.ticks);
    assert_eq!(plain.steps, wrapped.steps);

    // And the wrappers saw all of it: every send, every delivery, every
    // local step, on the lanes the reactor pins the processes to.
    let engine = engine_sink.total();
    let transport = transport_sink.total();
    assert_eq!(transport.send_calls, wrapped.messages_sent);
    assert_eq!(engine.deliver_frames, wrapped.messages_delivered);
    assert_eq!(engine.step_calls, wrapped.steps.iter().sum::<u64>());
    assert_eq!(engine.decode_errors, 0);
    assert!(engine_sink.lanes().iter().all(|lane| lane.step_calls > 0));
    assert!(!engine_sink.take_samples().is_empty());
    assert!(!engine_sink.take_final_sets().is_empty());
}

#[test]
fn six_epoch_run_service_is_identical_with_and_without_wrappers() {
    let n = 32;
    let config = live_service_config(n, 2, 11, 6, LoopMode::Closed { in_flight: 4 });
    let params = live_scale_params(n);
    let plain = run_service(&config, &ChannelTransport, move |ctx| {
        Tears::with_params(ctx, params)
    })
    .unwrap();

    let engine_sink = EngineSink::new(2);
    let transport_sink = TransportSink::new(2);
    let sink = Arc::clone(&engine_sink);
    let wrapped = run_service(
        &config,
        &TimedTransport::new(ChannelTransport, Arc::clone(&transport_sink)),
        move |ctx| Timed::new(Tears::with_params(ctx, params), Arc::clone(&sink)),
    )
    .unwrap();

    assert!(plain.all_ok() && wrapped.all_ok());
    assert_eq!(plain.epochs.len(), 6);
    assert_eq!(plain.messages_sent, wrapped.messages_sent);
    assert_eq!(plain.messages_delivered, wrapped.messages_delivered);
    assert_eq!(plain.bytes_sent, wrapped.bytes_sent);
    assert_eq!(plain.ticks, wrapped.ticks);
    assert_eq!(plain.max_open, wrapped.max_open);
    assert_eq!(plain.stale_drops, wrapped.stale_drops);
    assert_eq!(plain.settle_latencies(), wrapped.settle_latencies());
    assert_eq!(transport_sink.total().send_calls, wrapped.messages_sent);
}

#[test]
fn traced_trials_reproduce_the_untraced_counts_on_every_workload() {
    for workload in Workload::ALL {
        if workload.check_box().is_err() {
            continue;
        }
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("run", None, None);
        let plain = run_trial(workload, Size::Smoke, 2008, false, &mut tracer, root).unwrap();
        let traced = run_trial(workload, Size::Smoke, 2008, true, &mut tracer, root).unwrap();
        assert_eq!(plain.counts, traced.counts, "{}", workload.name());
        assert_eq!(plain.ops_failed, 0, "{}", workload.name());
        assert_eq!(traced.ops_failed, 0, "{}", workload.name());
        assert!(plain.layers.is_none() && traced.layers.is_some());
        assert!(plain.counts.messages > 0 && plain.counts.epochs > 0);
        assert!(!plain.latencies_ms.is_empty());
    }
}
