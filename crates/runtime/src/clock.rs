//! Time sources for the free-running paths.
//!
//! Lockstep pacing never reads a clock — its notion of time is the tick
//! counter — but free-running pacing injects *wall-clock* delivery delays
//! and detects completion by a sustained quiet period. Those reads used to
//! be bare `Instant::now()` calls scattered through the event loop (three
//! waived `no-wall-clock` lint sites); they now all go through the
//! [`Clock`] trait, so the one real wall-clock read lives in
//! [`MonotonicClock`] and tests can drive the free-running machinery from a
//! [`FakeClock`] instead of real sleeps.
//!
//! A [`Clock`] reports *elapsed time since its own epoch* as a [`Duration`]
//! rather than an [`std::time::Instant`]: durations are plain arithmetic
//! values, which is what makes a fake implementation trivial and the
//! slots' delivery inboxes representation-independent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source: elapsed time since the clock's epoch.
///
/// Implementations must be monotonic (successive `now` calls never go
/// backwards) and cheap — the free-running event loops read the clock a
/// few times per local step.
pub trait Clock: Send + Sync {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;
}

/// The production clock: real monotonic wall-clock time since construction.
///
/// This is the **only** wall-clock read in the runtime crate — every other
/// site goes through the trait, which is what shrank the free-running
/// `no-wall-clock` waiver count from three to one.
#[derive(Debug)]
pub struct MonotonicClock {
    start: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        MonotonicClock {
            // lint:allow(no-wall-clock): the one real time source; all other free-running sites read the Clock trait
            start: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }
}

/// A deterministic test clock: time advances only when told to — either
/// explicitly via [`FakeClock::advance`], or by a fixed amount on every
/// [`Clock::now`] read (`auto_advance`), which lets a multi-threaded
/// free-running run make progress without any thread ever sleeping on real
/// time.
///
/// Thread-safe: the free-running driver and every reactor thread share one
/// clock.
#[derive(Debug, Default)]
pub struct FakeClock {
    now_micros: AtomicU64,
    auto_advance_micros: u64,
}

impl FakeClock {
    /// A fake clock frozen at its epoch; advance it with
    /// [`FakeClock::advance`].
    pub fn new() -> Self {
        FakeClock::default()
    }

    /// A fake clock that advances itself by `step` on every read.
    pub fn auto_advancing(step: Duration) -> Self {
        FakeClock {
            now_micros: AtomicU64::new(0),
            auto_advance_micros: duration_to_micros(step),
        }
    }

    /// Moves the clock forward by `delta` (saturating: the clock pins at
    /// the maximum representable time instead of wrapping backwards).
    pub fn advance(&self, delta: Duration) {
        let delta = duration_to_micros(delta);
        let _ = self
            .now_micros
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |now| {
                Some(now.saturating_add(delta))
            });
    }
}

/// Saturating micro-second conversion: a fake clock asked to advance by
/// centuries pins at the maximum instead of wrapping backwards.
fn duration_to_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl Clock for FakeClock {
    fn now(&self) -> Duration {
        let micros = self
            .now_micros
            .fetch_add(self.auto_advance_micros, Ordering::Relaxed);
        Duration::from_micros(micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = MonotonicClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn fake_clock_advances_only_when_told() {
        let clock = FakeClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
        clock.advance(Duration::from_secs(1));
        assert_eq!(clock.now(), Duration::from_millis(1250));
    }

    #[test]
    fn auto_advancing_fake_clock_steps_on_every_read() {
        let clock = FakeClock::auto_advancing(Duration::from_micros(100));
        assert_eq!(clock.now(), Duration::ZERO);
        assert_eq!(clock.now(), Duration::from_micros(100));
        assert_eq!(clock.now(), Duration::from_micros(200));
    }

    #[test]
    fn absurd_advances_saturate_instead_of_wrapping() {
        let clock = FakeClock::new();
        clock.advance(Duration::MAX);
        clock.advance(Duration::from_secs(1));
        assert!(clock.now() > Duration::from_secs(1));
    }
}
