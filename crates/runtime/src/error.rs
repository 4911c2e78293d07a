//! Error type of the live runtime.

use std::fmt;

use agossip_core::CodecError;

/// Why a live run (or one of its transport operations) failed.
#[derive(Debug)]
pub enum RuntimeError {
    /// An I/O operation on a socket transport failed in a way that is not
    /// attributable to a crashed peer (peer-connection failures are message
    /// loss, not errors — see `transport`).
    Io {
        /// What the runtime was doing.
        context: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A frame arrived but its payload failed to decode. The event loop
    /// normally *counts* decode failures instead of propagating them (a
    /// byte-corrupting network is message loss in the model); this variant is
    /// surfaced only by transport-level helpers.
    Codec(CodecError),
    /// The configuration is invalid (e.g. `f ≥ n`).
    Config(String),
    /// A reactor thread panicked instead of returning its outcomes. The driver
    /// records this and aborts the run; the panic payload is not preserved.
    NodePanicked,
    /// A service-mode epoch stopped making progress: it neither settled nor
    /// showed any send/deliver activity for longer than the configured stall
    /// bound. This replaces the old behaviour of hanging silently until
    /// `max_duration` — with pipelined epochs a busy epoch would mask a
    /// stalled one, so staleness is tracked per epoch.
    EpochStalled {
        /// The epoch that stalled.
        epoch: u64,
        /// How long the epoch sat without settling, in the run's time unit
        /// (lockstep ticks, or milliseconds when free-running).
        stalled_for: u64,
    },
    /// A lockstep settle handshake gave up: after `rounds` poll-only rounds
    /// the transport still had not yielded every frame it accepted, so
    /// frames were lost in transit (which lockstep transports never do by
    /// construction) and the run aborted instead of spinning forever.
    SettleTimeout {
        /// Messages handed to the transport so far.
        sent: u64,
        /// Frames taken off it (or booked as lost to a dead peer) so far.
        consumed: u64,
        /// Poll rounds spent on the tick that never settled.
        rounds: u64,
    },
}

/// Why a [`crate::driver::LiveConfig`] (or service config) failed to build.
///
/// Produced by [`crate::driver::LiveConfigBuilder::build`]; converts into
/// [`RuntimeError::Config`] so existing `Err(RuntimeError::Config(_))`
/// call sites keep working.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `n == 0`: there is nothing to run.
    NoProcesses,
    /// `f >= n`: the failure budget must leave at least one correct process.
    FailureBudget {
        /// Configured failure budget.
        f: usize,
        /// Configured process count.
        n: usize,
    },
    /// A crash schedule names a process id outside `0..n`.
    CrashVictimOutOfRange {
        /// The out-of-range victim index.
        pid: usize,
        /// Configured process count.
        n: usize,
    },
    /// A crash schedule names the same process twice.
    DuplicateCrashVictim {
        /// The repeated victim index.
        pid: usize,
    },
    /// A crash schedule with more victims than the failure budget `f` the
    /// protocol was told to tolerate.
    CrashesExceedBudget {
        /// Number of scheduled crashes.
        crashes: usize,
        /// Configured failure budget.
        f: usize,
    },
    /// Lockstep pacing with `d == 0`: every delay is drawn from `1..=d`.
    ZeroDelayBound,
    /// `Threading::Reactor { reactors: 0 }`: at least one reactor thread is
    /// required.
    ZeroReactors,
    /// A service config with `window == 0`: no epoch could ever be admitted.
    ZeroWindow,
    /// A service config with `epochs == 0`: the run would finish vacuously.
    ZeroEpochs,
    /// Free-running service mode where the per-epoch quiet period does not
    /// exceed the maximum injected delay, so an epoch could be declared
    /// settled while one of its frames is still in flight.
    QuietPeriodTooShort {
        /// Configured per-epoch quiet period (ms).
        quiet_period_ms: u64,
        /// Configured maximum injected delay (ms).
        max_delay_ms: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoProcesses => write!(f, "n must be at least 1"),
            ConfigError::FailureBudget { f: budget, n } => {
                write!(f, "failure budget f={budget} must be < n={n}")
            }
            ConfigError::CrashVictimOutOfRange { pid, n } => {
                write!(f, "crash victim {pid} out of range for n={n}")
            }
            ConfigError::DuplicateCrashVictim { pid } => {
                write!(f, "crash victim {pid} is scheduled more than once")
            }
            ConfigError::CrashesExceedBudget { crashes, f: budget } => {
                write!(
                    f,
                    "{crashes} scheduled crashes exceed failure budget f={budget}"
                )
            }
            ConfigError::ZeroDelayBound => write!(f, "lockstep delay bound d must be at least 1"),
            ConfigError::ZeroReactors => write!(f, "reactor count must be at least 1"),
            ConfigError::ZeroWindow => write!(f, "service window must be at least 1"),
            ConfigError::ZeroEpochs => write!(f, "service must run at least one epoch"),
            ConfigError::QuietPeriodTooShort {
                quiet_period_ms,
                max_delay_ms,
            } => write!(
                f,
                "per-epoch quiet period {quiet_period_ms}ms must exceed max delay {max_delay_ms}ms"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for RuntimeError {
    fn from(e: ConfigError) -> Self {
        RuntimeError::Config(e.to_string())
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Io { context, source } => write!(f, "{context}: {source}"),
            RuntimeError::Codec(e) => write!(f, "frame decode failed: {e}"),
            RuntimeError::Config(reason) => write!(f, "invalid runtime config: {reason}"),
            RuntimeError::NodePanicked => write!(f, "a reactor thread panicked"),
            RuntimeError::EpochStalled { epoch, stalled_for } => {
                write!(f, "epoch {epoch} stalled for {stalled_for} time units")
            }
            RuntimeError::SettleTimeout {
                sent,
                consumed,
                rounds,
            } => write!(
                f,
                "transport failed to settle: {consumed}/{sent} frames consumed after {rounds} poll rounds"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Io { source, .. } => Some(source),
            RuntimeError::Codec(e) => Some(e),
            RuntimeError::Config(_) => None,
            RuntimeError::NodePanicked => None,
            RuntimeError::EpochStalled { .. } => None,
            RuntimeError::SettleTimeout { .. } => None,
        }
    }
}

impl From<CodecError> for RuntimeError {
    fn from(e: CodecError) -> Self {
        RuntimeError::Codec(e)
    }
}

/// Attaches a context string to an I/O error.
pub(crate) fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> RuntimeError {
    move |source| RuntimeError::Io { context, source }
}
