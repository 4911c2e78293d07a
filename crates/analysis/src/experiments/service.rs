//! Service mode — throughput and settle latency of the multi-epoch log.
//!
//! Every other experiment measures one gossip instance from injection to
//! quiescence. This one measures the *service* built on top: a pipelined
//! sequence of epochs pushed through the replicated rumor log of
//! [`agossip_runtime::service`], run under lockstep pacing on one reactor
//! thread over in-process channels, under both admission disciplines —
//!
//! * **open loop** (`LoopMode::Open`): a fresh epoch every fixed period,
//!   whether or not earlier epochs have settled (arrival-rate driven);
//! * **closed loop** (`LoopMode::Closed`): a fixed number of epochs in
//!   flight, a new one admitted only when one finalizes (completion
//!   driven).
//!
//! Reported per `(protocol, mode, n)` point: epochs-per-tick throughput,
//! total messages, and the p50/p99 settle latency (ticks from admission to
//! the epoch's last activity, so margin-free), all from a single
//! deterministic run — a lockstep service run is a pure function of the
//! seed, so trials add nothing.

use agossip_core::{Ears, GossipSpec, LoopMode, Tears, Trivial};
use agossip_runtime::{
    percentile, run_service, ChannelTransport, LiveConfig, Pacing, RuntimeError, ServiceConfig,
};
use agossip_sim::{SimError, SimResult};

use crate::experiments::common::ExperimentScale;
use crate::experiments::live::live_scale_params;
use crate::report::{fmt_f64, Table};
use crate::sweep::TrialPool;

/// Epochs pushed through the log per measured point.
const SERVICE_EPOCHS: u64 = 12;

/// Slot-ring size (maximum concurrently open epochs) per measured point.
const SERVICE_WINDOW: usize = 8;

/// Closed-loop in-flight target.
const SERVICE_IN_FLIGHT: usize = 4;

/// One `(protocol, mode, n)` measurement of the service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRow {
    /// Gossip protocol run inside each epoch.
    pub protocol: &'static str,
    /// System size.
    pub n: usize,
    /// Failure budget.
    pub f: usize,
    /// Admission discipline (`"open"` or `"closed"`).
    pub mode: &'static str,
    /// Epochs finalized.
    pub epochs: u64,
    /// Lockstep ticks the whole run took.
    pub ticks: u64,
    /// Total point-to-point messages across all epochs.
    pub messages: u64,
    /// Median settle latency (ticks from admission to the epoch's last
    /// activity — margin-free).
    pub p50: u64,
    /// 99th-percentile settle latency.
    pub p99: u64,
    /// Peak number of outstanding epochs (admitted, not yet finalized).
    pub max_open: u64,
    /// True when every epoch passed its gossip check.
    pub ok: bool,
}

impl ServiceRow {
    /// Epochs finalized per thousand lockstep ticks.
    pub fn epochs_per_ktick(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.epochs as f64 * 1000.0 / self.ticks as f64
    }
}

/// The protocols the service sweep runs inside each epoch. `trivial` is the
/// latency floor (one `O(d)` burst per epoch); `ears` is the
/// message-efficient contender whose epochs overlap for longer.
fn service_protocols() -> [&'static str; 2] {
    ["trivial", "ears"]
}

/// The admission disciplines compared, derived from the scale's delay
/// bound: the open loop admits one epoch every `3·d` ticks.
fn service_modes(scale: &ExperimentScale) -> [LoopMode; 2] {
    [
        LoopMode::Closed {
            in_flight: SERVICE_IN_FLIGHT,
        },
        LoopMode::Open {
            period: 3 * scale.d.max(1),
        },
    ]
}

/// The service config for one `(n, mode)` point of `scale`: lockstep
/// pacing with delays in `1..=d` on a single reactor thread.
fn service_config(scale: &ExperimentScale, n: usize, mode: LoopMode) -> SimResult<ServiceConfig> {
    let live = LiveConfig::builder(n, scale.f_for(n), scale.seed_for(n, 0))
        .pacing(Pacing::Lockstep {
            d: scale.d.max(1),
            max_ticks: 1 << 20,
        })
        .reactors(1)
        .build()
        .map_err(|e| service_error(e.into()))?;
    Ok(ServiceConfig::new(live, SERVICE_EPOCHS)
        .with_window(SERVICE_WINDOW)
        .with_mode(mode))
}

/// A failed runtime service run, as the sweep's error type.
fn service_error(e: RuntimeError) -> SimError {
    SimError::InvalidConfig {
        reason: format!("live service run failed: {e}"),
    }
}

/// Runs one `(protocol, n, mode)` point.
fn service_point(
    protocol: &'static str,
    scale: &ExperimentScale,
    n: usize,
    mode: LoopMode,
) -> SimResult<ServiceRow> {
    let config = service_config(scale, n, mode)?;
    let report = match protocol {
        "ears" => run_service(&config, &ChannelTransport, Ears::new),
        _ => run_service(&config, &ChannelTransport, Trivial::new),
    }
    .map_err(service_error)?;
    let latencies = report.settle_latencies();
    Ok(ServiceRow {
        protocol,
        n,
        f: config.live.f,
        mode: mode.name(),
        epochs: report.epochs.len() as u64,
        ticks: report.ticks,
        messages: report.messages_sent,
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
        max_open: report.max_open,
        ok: report.all_ok(),
    })
}

/// Runs the service sweep on `pool`: every `(protocol, mode, n)` point is an
/// independent deterministic run, so the flattened grid shards freely across
/// workers and the rows are bit-identical for any worker count.
pub fn service_rows(pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Vec<ServiceRow>> {
    let mut grid: Vec<(&'static str, usize, LoopMode)> = Vec::new();
    for protocol in service_protocols() {
        for mode in service_modes(scale) {
            for &n in &scale.n_values {
                grid.push((protocol, n, mode));
            }
        }
    }
    let results: Vec<SimResult<ServiceRow>> = pool.run(grid.len(), |i| {
        let (protocol, n, mode) = grid[i];
        service_point(protocol, scale, n, mode)
    });
    results.into_iter().collect()
}

/// Renders the service rows as a table.
pub fn service_to_table(rows: &[ServiceRow]) -> Table {
    let mut table = Table::new(
        "Service mode — pipelined epochs through the replicated rumor log",
        &[
            "protocol",
            "mode",
            "n",
            "f",
            "epochs",
            "ticks",
            "epochs/ktick",
            "messages",
            "p50 settle",
            "p99 settle",
            "max open",
            "ok",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.protocol.to_string(),
            row.mode.to_string(),
            row.n.to_string(),
            row.f.to_string(),
            row.epochs.to_string(),
            row.ticks.to_string(),
            fmt_f64(row.epochs_per_ktick()),
            row.messages.to_string(),
            row.p50.to_string(),
            row.p99.to_string(),
            row.max_open.to_string(),
            row.ok.to_string(),
        ]);
    }
    table
}

/// One live (runtime-backed) service measurement: scaled `tears` epochs
/// pushed through the replicated log on reactor threads, majority-checked
/// per epoch. This is what the `service_baseline` binary emits and the
/// `bench_check` CI gate re-measures.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveServiceRow {
    /// System size.
    pub n: usize,
    /// Reactor threads the `n` processes were multiplexed onto.
    pub reactors: usize,
    /// Admission discipline (`"open"` or `"closed"`).
    pub mode: &'static str,
    /// Epochs finalized.
    pub epochs: u64,
    /// Lockstep ticks the whole run took.
    pub ticks: u64,
    /// Point-to-point messages (encoded frames) across all epochs.
    pub messages: u64,
    /// Wall-clock seconds of the run (the runtime's own clock).
    pub wall_secs: f64,
    /// Epochs finalized per wall-clock second.
    pub epochs_per_sec: f64,
    /// Frames through the transport per wall-clock second.
    pub messages_per_sec: f64,
    /// Median settle latency in lockstep ticks.
    pub p50: u64,
    /// 99th-percentile settle latency in lockstep ticks.
    pub p99: u64,
    /// Peak number of concurrently outstanding epochs.
    pub max_open: u64,
    /// Whether every epoch finalized and passed the majority checker, with
    /// no decode errors.
    pub ok: bool,
}

/// The slot-ring capacity of a live service trial: four slots of headroom
/// over the deepest closed-loop pipeline measured (`in_flight = 32`), so
/// the harvest of a settled epoch never blocks admission.
pub const LIVE_SERVICE_WINDOW: usize = 36;

/// The live service configuration of one trial: scaled `tears` (the same
/// calibration as `live_scale`, `a = 2 + 1.5·log₂n`, `d = 6`) under
/// lockstep pacing on `reactors` reactor threads, no crashes — the settle
/// latencies then measure the pipeline, not recovery.
pub fn live_service_config(
    n: usize,
    reactors: usize,
    seed: u64,
    epochs: u64,
    mode: LoopMode,
) -> ServiceConfig {
    let mut live = LiveConfig::lockstep(n, 0, seed).on_reactors(reactors);
    live.pacing = Pacing::Lockstep {
        d: 6,
        max_ticks: 1 << 20,
    };
    ServiceConfig::new(live, epochs)
        .with_window(LIVE_SERVICE_WINDOW)
        .with_mode(mode)
        .with_spec(GossipSpec::Majority)
}

/// Runs one live service trial and reduces it to a [`LiveServiceRow`].
pub fn run_live_service_trial(
    n: usize,
    reactors: usize,
    seed: u64,
    epochs: u64,
    mode: LoopMode,
) -> SimResult<LiveServiceRow> {
    let config = live_service_config(n, reactors, seed, epochs, mode);
    let params = live_scale_params(n);
    let report = run_service(&config, &ChannelTransport, move |ctx| {
        Tears::with_params(ctx, params)
    })
    .map_err(service_error)?;
    let ok = report.all_ok() && report.decode_errors == 0;
    let latencies = report.settle_latencies();
    let wall_secs = report.elapsed.as_secs_f64();
    let per_sec = |count: u64| {
        if wall_secs > 0.0 {
            count as f64 / wall_secs
        } else {
            0.0
        }
    };
    Ok(LiveServiceRow {
        n,
        reactors,
        mode: mode.name(),
        epochs: report.epochs.len() as u64,
        ticks: report.ticks,
        messages: report.messages_sent,
        wall_secs,
        epochs_per_sec: per_sec(report.epochs.len() as u64),
        messages_per_sec: per_sec(report.messages_sent),
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
        max_open: report.max_open,
        ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_service_trial_finalizes_and_checks_every_epoch() {
        let row = run_live_service_trial(48, 2, 0x5EC7_2008, 6, LoopMode::Closed { in_flight: 3 })
            .unwrap();
        assert!(row.ok, "{row:?}");
        assert_eq!(row.epochs, 6);
        assert!(row.max_open >= 2, "closed loop must pipeline: {row:?}");
        assert!(row.p50 <= row.p99);
    }

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            n_values: vec![12, 16],
            trials: 1,
            ..ExperimentScale::tiny()
        }
    }

    #[test]
    fn service_rows_cover_both_modes_and_protocols() {
        let scale = tiny();
        let rows = service_rows(&TrialPool::serial(), &scale).unwrap();
        assert_eq!(rows.len(), 2 * 2 * scale.n_values.len());
        for row in &rows {
            assert!(row.ok, "epoch check failed: {row:?}");
            assert_eq!(row.epochs, SERVICE_EPOCHS);
            assert!(row.p50 <= row.p99);
            assert!(row.p99 > 0);
        }
        assert!(rows.iter().any(|r| r.mode == "open"));
        assert!(rows.iter().any(|r| r.mode == "closed"));
    }

    #[test]
    fn closed_loop_pipelines_epochs() {
        let scale = tiny();
        let rows = service_rows(&TrialPool::serial(), &scale).unwrap();
        for row in rows.iter().filter(|r| r.mode == "closed") {
            assert!(row.max_open >= 2, "closed loop must pipeline: {row:?}");
        }
    }

    #[test]
    fn rows_are_identical_for_any_worker_count() {
        let scale = tiny();
        let serial = service_rows(&TrialPool::serial(), &scale).unwrap();
        let sharded = service_rows(&TrialPool::new(3), &scale).unwrap();
        assert_eq!(serial, sharded);
    }

    #[test]
    fn table_renders_all_rows() {
        let scale = tiny();
        let rows = service_rows(&TrialPool::serial(), &scale).unwrap();
        let table = service_to_table(&rows);
        assert_eq!(table.len(), rows.len());
        assert!(table.render().contains("epochs/ktick"));
    }
}
