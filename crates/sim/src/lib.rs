//! # agossip-sim
//!
//! A discrete-event model of the asynchronous, crash-prone, message-passing
//! system used in *"On the Complexity of Asynchronous Gossip"* (Georgiou,
//! Gilbert, Guerraoui, Kowalski — PODC 2008).
//!
//! The model follows Section 1 ("System Model") of the paper:
//!
//! * There are `n` processes with identifiers `1..=n` (represented here as
//!   [`ProcessId`] indices `0..n`). Up to `f < n` of them may crash.
//! * Time proceeds in discrete [`TimeStep`]s. At every time step an arbitrary
//!   subset of the processes is *scheduled* to take a local step. In a local
//!   step a process (1) receives some subset of the messages sent to it,
//!   (2) performs local computation, and (3) sends zero or more messages.
//! * For a given execution, `d` is the maximum delivery time of any message
//!   and `δ` is the maximum scheduling gap: if `p` sends `m` to `q` at time
//!   `t` and `q` is scheduled at any `t' ≥ t + d`, then `q` receives `m` no
//!   later than `t'`; in any window of `δ` consecutive time steps every
//!   non-crashed process is scheduled at least once.
//! * An *adversary* decides which processes are scheduled and which crash at
//!   each time step, and how long each message is delayed. An **oblivious**
//!   adversary fixes these decisions in advance; an **adaptive** adversary
//!   may react to the execution (including the random choices made by the
//!   processes).
//!
//! The crate provides:
//!
//! * [`Process`] — the local-step state-machine interface protocols implement.
//! * [`Simulation`] — the execution engine: it owns the processes, the
//!   in-flight message buffer, and the metrics, and advances time one step at
//!   a time under the control of an [`Adversary`] (or under manual control,
//!   which is what the adaptive lower-bound adversary in `agossip-adversary`
//!   uses). Both stepping modes share one zero-allocation step core, and
//!   [`Simulation::run_until`] can optionally fast-forward over idle windows
//!   (see [`SimConfig::idle_fast_forward`]).
//! * [`Network`] — the in-flight buffer: per destination, the messages in
//!   send order and their earliest deadline, so a destination with nothing
//!   due is skipped and a due batch leaves in one pass. A sender's
//!   value-identical copies of one payload in one step share a record per
//!   delay, and a local step receives the record once, with its count
//!   ([`Envelope::copies`]); an [`Outbox`] logs `c` identical broadcasts
//!   as one counted block ([`Outbox::broadcast`]).
//! * [`adversary`] — the adversary trait plus a family of oblivious
//!   schedule/delay/crash policies.
//! * [`metrics`] — message, step, delay and quiescence accounting; these are
//!   exactly the quantities bounded by the paper's theorems.
//!
//! The simulator is fully deterministic given a [`SimConfig::seed`]: all
//! randomness (both the adversary's and the protocols') flows from seeded
//! [`rand::rngs::StdRng`] instances.
//!
//! ## Thread-safety contract
//!
//! Independent trials of an experiment are routinely sharded across OS
//! threads (the parallel sweep engine in `agossip-analysis::sweep` does
//! exactly that), so the run entry points are `Send`able: a [`Simulation`]
//! over `Send` processes, every bundled adversary, and all reports and
//! metrics can be moved to a worker thread. This is asserted at compile time
//! below — introducing an `Rc`/`RefCell` into the engine is a build error,
//! not a latent sweep-engine bug. Combined with [`rng::trial_seed`], a trial
//! is a pure function of its spec: running it on any thread, in any order,
//! produces bit-identical results.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms, unreachable_pub)]
#![warn(missing_docs)]

pub mod adversary;
pub mod config;
pub mod error;
pub mod message;
pub mod metrics;
pub mod network;
pub mod process;
pub mod rng;
pub mod scheduler;
pub mod time;

pub use adversary::{Adversary, FairObliviousAdversary, StepPlan, SystemView};
pub use config::{SimConfig, MAX_PROCESSES};
pub use error::{SimError, SimResult};
pub use message::{Envelope, EnvelopeMeta, Outbox};
pub use metrics::Metrics;
pub use network::Network;
pub use process::{Process, ProcessId, ProcessStatus};
pub use scheduler::{RunOutcome, Simulation, StopReason};
pub use time::TimeStep;

// Compile-time proof of the thread-safety contract documented above: a
// simulation over `Send` processes, the reference adversary, and everything
// a finished trial hands back can be moved across threads.
#[allow(dead_code)]
fn assert_entry_points_are_send() {
    fn assert_send<T: Send>() {}
    fn simulation_is_send<P>()
    where
        P: Process + Send,
        P::Message: Send,
    {
        assert_send::<Simulation<P>>();
    }
    assert_send::<SimConfig>();
    assert_send::<FairObliviousAdversary>();
    assert_send::<Metrics>();
    assert_send::<SimError>();
}
