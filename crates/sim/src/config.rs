//! Simulation configuration.

use crate::error::{SimError, SimResult};

/// The largest system size the simulator accepts: `2^20` processes.
///
/// The cap exists so that every layer above can rely on process indices
/// fitting comfortably in 32 bits: the adaptive sparse set representation
/// stores origins as `u32`, the wire codec rejects identifiers at the same
/// `1 << 20` bound (`MAX_WIRE_ID`), and word-packed bitset math indexes
/// `n / 64` words with 32-bit arithmetic. `n = 2^20` keeps all of those a
/// factor of ~4000 below `u32::MAX` while still being 16× the largest
/// checker-verified scale run (`n = 65 536`; see the `scale` scenario).
pub const MAX_PROCESSES: usize = 1 << 20;

/// Parameters of one simulated execution.
///
/// `n`, `f`, `d` and `δ` are the quantities in which every bound of the paper
/// is expressed. The simulator enforces the delay bound: every assigned delay
/// must lie in `1..=d`, or be `u64::MAX` to withhold a message forever
/// (adaptive adversaries exceed `d` only by withholding). The scheduling
/// bound `δ` is *not* enforced — an adversary may starve processes for longer
/// — and the *actual* `δ` realised by the execution is recorded in
/// [`crate::metrics::Metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of processes.
    pub n: usize,
    /// Maximum number of crash failures the execution may contain (`f < n`).
    pub f: usize,
    /// Upper bound on message delivery delay for this execution
    /// (`1 ≤ d < 2^32 − 1`: in-flight delays are kept in 32 bits).
    pub d: u64,
    /// Upper bound on the scheduling gap of live processes (`δ ≥ 1`).
    pub delta: u64,
    /// Seed from which all randomness in the execution is derived.
    pub seed: u64,
    /// Safety limit on the number of global time steps; the run loop aborts
    /// with [`SimError::StepLimitExceeded`] if it is reached.
    pub max_steps: u64,
    /// When true, [`crate::Simulation::run_until`] jumps the clock directly
    /// to the network's earliest delivery deadline whenever every alive
    /// process is quiescent and messages are still in flight, instead of
    /// ticking through the idle window one step at a time. The skipped steps
    /// are counted in [`crate::Metrics::idle_steps_skipped`].
    ///
    /// Off by default: fast-forwarding skips the adversary's `plan_step`
    /// calls (and the quiescent processes' no-op local steps) for the skipped
    /// window, so per-step metrics (`elapsed_steps`, `steps_by`, schedule
    /// gaps) and the adversary's RNG consumption differ from a tick-by-tick
    /// run of the same seed. In particular, an adversary whose crash plan is
    /// keyed to absolute times inside a skipped window fires those crashes
    /// only at the jump target, which can change crash timestamps and
    /// `quiescence_time`; enable the flag only for delivery-driven runs where
    /// idle windows are genuinely inert.
    pub idle_fast_forward: bool,
}

impl SimConfig {
    /// Creates a configuration with the given system size and failure budget,
    /// unit delays (`d = δ = 1`), seed 0 and a generous step limit.
    pub fn new(n: usize, f: usize) -> Self {
        SimConfig {
            n,
            f,
            d: 1,
            delta: 1,
            seed: 0,
            max_steps: default_max_steps(n),
            idle_fast_forward: false,
        }
    }

    /// Sets the delivery-delay bound `d`.
    pub fn with_d(mut self, d: u64) -> Self {
        self.d = d;
        self
    }

    /// Sets the scheduling bound `δ`.
    pub fn with_delta(mut self, delta: u64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the step limit.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Enables or disables idle fast-forward (see
    /// [`Self::idle_fast_forward`]).
    pub fn with_idle_fast_forward(mut self, enabled: bool) -> Self {
        self.idle_fast_forward = enabled;
        self
    }

    /// `d + δ`, the unit in which the paper states every time bound.
    pub fn latency_unit(&self) -> u64 {
        self.d + self.delta
    }

    /// Validates the configuration.
    pub fn validate(&self) -> SimResult<()> {
        if self.n == 0 {
            return Err(SimError::InvalidConfig {
                reason: "n must be at least 1".into(),
            });
        }
        if self.n > MAX_PROCESSES {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "n must be ≤ {MAX_PROCESSES} (2^20; process indices are kept \
                     within 32-bit word math), got n = {}",
                    self.n
                ),
            });
        }
        if self.f >= self.n {
            return Err(SimError::InvalidConfig {
                reason: format!("f must be < n (got f = {}, n = {})", self.f, self.n),
            });
        }
        if self.d == 0 {
            return Err(SimError::InvalidConfig {
                reason: "d must be at least 1".into(),
            });
        }
        if self.d >= u64::from(u32::MAX) {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "d must be < 2^32 - 1 (in-flight delays are kept in 32 bits), got d = {}",
                    self.d
                ),
            });
        }
        if self.delta == 0 {
            return Err(SimError::InvalidConfig {
                reason: "delta must be at least 1".into(),
            });
        }
        if self.max_steps == 0 {
            return Err(SimError::InvalidConfig {
                reason: "max_steps must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// A step limit comfortably above the running time of every protocol in this
/// workspace for systems of size `n`, while still catching livelock bugs.
fn default_max_steps(n: usize) -> u64 {
    let n = n.max(2) as u64;
    // Generous: quadratic in n with a large constant. The slowest protocol we
    // run (EARS with f close to n) needs O(n/(n-f) · log² n · (d+δ)) steps.
    200_000 + 200 * n * n.ilog2() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let cfg = SimConfig::new(16, 4)
            .with_d(3)
            .with_delta(2)
            .with_seed(99)
            .with_max_steps(500)
            .with_idle_fast_forward(true);
        assert_eq!(cfg.n, 16);
        assert_eq!(cfg.f, 4);
        assert_eq!(cfg.d, 3);
        assert_eq!(cfg.delta, 2);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.max_steps, 500);
        assert!(cfg.idle_fast_forward);
        assert!(!SimConfig::new(2, 0).idle_fast_forward, "off by default");
        assert_eq!(cfg.latency_unit(), 5);
        cfg.validate().unwrap();
    }

    #[test]
    fn default_config_is_valid() {
        SimConfig::new(8, 3).validate().unwrap();
        SimConfig::new(1, 0).validate().unwrap();
    }

    #[test]
    fn rejects_zero_processes() {
        assert!(matches!(
            SimConfig::new(0, 0).validate(),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn rejects_n_beyond_the_supported_range() {
        SimConfig::new(MAX_PROCESSES, 0).validate().unwrap();
        let err = SimConfig::new(MAX_PROCESSES + 1, 0).validate().unwrap_err();
        match err {
            SimError::InvalidConfig { reason } => {
                assert!(
                    reason.contains("2^20"),
                    "reason should name the cap: {reason}"
                )
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn rejects_f_equal_n() {
        assert!(SimConfig::new(4, 4).validate().is_err());
        assert!(SimConfig::new(4, 5).validate().is_err());
    }

    #[test]
    fn rejects_zero_bounds() {
        assert!(SimConfig::new(4, 1).with_d(0).validate().is_err());
        assert!(SimConfig::new(4, 1).with_delta(0).validate().is_err());
        assert!(SimConfig::new(4, 1).with_max_steps(0).validate().is_err());
    }

    #[test]
    fn rejects_d_beyond_32_bits() {
        let largest = u64::from(u32::MAX) - 1;
        SimConfig::new(4, 1).with_d(largest).validate().unwrap();
        for d in [largest + 1, u64::MAX] {
            let err = SimConfig::new(4, 1).with_d(d).validate().unwrap_err();
            match err {
                SimError::InvalidConfig { reason } => {
                    assert!(reason.contains("32 bits"), "reason: {reason}")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn default_step_limit_scales_with_n() {
        assert!(default_max_steps(1024) > default_max_steps(16));
    }
}
