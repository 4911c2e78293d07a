//! Property-based tests (proptest) on the service mode's deterministic
//! spine: the epoch workload generator, the admission frontier, and the
//! lockstep multi-epoch driver.
//!
//! The service design leans on two pure functions — `epoch_initial_rumors`
//! (the workload every epoch injects) and `service_open_upto` (the
//! admission frontier) — being deterministic and scheduling-independent:
//! they are what lets a checker reconstruct an epoch's input without
//! receiving it, and what keeps service runs bit-identical across
//! worker/reactor counts (the runtime-side pin lives in
//! `service_determinism.rs`). These properties check that foundation across
//! randomly drawn seeds, sizes, and loop parameters.

use proptest::prelude::*;

use agossip_core::{
    epoch_initial_rumors, epoch_rumor, epoch_seed, service_open_upto, LoopMode, Trivial,
};
use agossip_runtime::{
    run_service, ChannelTransport, LiveConfig, Pacing, ServiceConfig, ServiceReport,
};
use agossip_sim::ProcessId;

/// One lockstep service run on a single reactor thread: delays in `1..=2`
/// ticks, a four-slot ring, no crashes.
fn run_lockstep(n: usize, seed: u64, epochs: u64, mode: LoopMode) -> ServiceReport {
    let live = LiveConfig::builder(n, 0, seed)
        .pacing(Pacing::Lockstep {
            d: 2,
            max_ticks: 1 << 20,
        })
        .reactors(1)
        .build()
        .unwrap();
    let config = ServiceConfig::new(live, epochs)
        .with_window(4)
        .with_mode(mode);
    run_service(&config, &ChannelTransport, Trivial::new).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The epoch workload generator is a pure function of
    /// `(master seed, epoch, n)`: recomputing it — from any thread, in any
    /// order, under either loop mode — yields the identical rumor slate.
    /// This is what lets the driver check a settled epoch without ever
    /// having been sent its input.
    #[test]
    fn epoch_workload_is_a_pure_function_of_seed_and_epoch(
        seed in any::<u64>(),
        epoch in 0u64..1024,
        n in 1usize..64,
    ) {
        let slate = epoch_initial_rumors(seed, epoch, n);
        prop_assert_eq!(&slate, &epoch_initial_rumors(seed, epoch, n));
        prop_assert_eq!(slate.len(), n);
        for (i, rumor) in slate.iter().enumerate() {
            prop_assert_eq!(rumor.origin, ProcessId(i));
            prop_assert_eq!(*rumor, epoch_rumor(seed, epoch, ProcessId(i)));
        }
    }

    /// Distinct epochs of the same service run draw distinct per-epoch
    /// seeds (and so distinct workloads): the splitmix-based derivation
    /// must not fold consecutive epochs onto one stream.
    #[test]
    fn distinct_epochs_draw_distinct_seeds(
        seed in any::<u64>(),
        e1 in 0u64..4096,
        offset in 1u64..4096,
    ) {
        let e2 = e1 + offset;
        prop_assert_ne!(epoch_seed(seed, e1), epoch_seed(seed, e2));
        prop_assert_ne!(
            epoch_rumor(seed, e1, ProcessId(0)),
            epoch_rumor(seed, e2, ProcessId(0))
        );
    }

    /// The admission frontier is monotone in `(now, finalized)` and never
    /// exceeds the slot-ring capacity `finalized + window` or the epoch
    /// total — for both loop modes, at every drawn parameterisation. The
    /// driver recomputes it between ticks; monotonicity is what makes the
    /// recomputation race-free to publish.
    #[test]
    fn admission_frontier_is_monotone_and_window_bounded(
        window in 1usize..16,
        total in 1u64..64,
        now in 0u64..256,
        finalized in 0u64..64,
        period in 1u64..8,
        in_flight in 1usize..16,
    ) {
        for mode in [
            LoopMode::Open { period },
            LoopMode::Closed { in_flight },
        ] {
            let upto = service_open_upto(mode, window, total, now, finalized);
            prop_assert!(upto <= total);
            prop_assert!(upto <= finalized.saturating_add(window as u64));
            prop_assert!(
                service_open_upto(mode, window, total, now + 1, finalized) >= upto,
                "frontier must be monotone in time under {mode:?}"
            );
            prop_assert!(
                service_open_upto(mode, window, total, now, finalized + 1) >= upto,
                "frontier must be monotone in completions under {mode:?}"
            );
        }
    }

    /// Open and closed loop admit epochs on different schedules but settle
    /// the *same* epoch stream — every epoch, in order, each passing its
    /// check — and a replay of either run is lifecycle-identical (same
    /// opened/settled/finalized ticks, same message count). Together these
    /// pin that the epoch stream per seed is a function of the
    /// configuration alone, not of admission timing or scheduling.
    #[test]
    fn loop_modes_settle_identical_epoch_streams_and_replays_are_exact(
        n in 4usize..12,
        seed in 0u64..500,
        epochs in 2u64..6,
    ) {
        let closed = LoopMode::Closed { in_flight: 2 };
        let first = run_lockstep(n, seed, epochs, closed);
        let replay = run_lockstep(n, seed, epochs, closed);
        let other = run_lockstep(n, seed, epochs, LoopMode::Open { period: 3 });

        prop_assert!(first.all_ok());
        prop_assert!(other.all_ok());
        prop_assert_eq!(first.epochs.len(), epochs as usize);
        prop_assert_eq!(other.epochs.len(), epochs as usize);
        for (i, (a, b)) in first.epochs.iter().zip(&other.epochs).enumerate() {
            prop_assert_eq!(a.epoch, i as u64, "closed loop finalizes in epoch order");
            prop_assert_eq!(b.epoch, i as u64, "open loop finalizes in epoch order");
        }

        prop_assert_eq!(first.ticks, replay.ticks);
        prop_assert_eq!(first.messages_sent, replay.messages_sent);
        prop_assert_eq!(first.stale_drops, replay.stale_drops);
        prop_assert_eq!(first.max_open, replay.max_open);
        for (a, b) in first.epochs.iter().zip(&replay.epochs) {
            prop_assert_eq!(a.epoch, b.epoch);
            prop_assert_eq!(a.opened_at, b.opened_at);
            prop_assert_eq!(a.settled_at, b.settled_at);
            prop_assert_eq!(a.finalized_at, b.finalized_at);
        }
    }
}
