//! # agossip-runtime
//!
//! A live message-passing runtime for the gossip protocols in
//! `agossip-core`: real OS threads exchanging real byte frames over real
//! transports.
//!
//! The discrete-event simulator in `agossip-sim` is the right tool for
//! measuring complexity (it controls and counts every step), but it is a
//! single-threaded loop moving typed values. This crate runs the very same
//! protocol state machines as a *system*:
//!
//! * every message crosses a [`transport::Transport`] as encoded bytes
//!   (the [`agossip_core::codec`] wire format) — in-process channels, or
//!   loopback TCP / Unix-domain sockets with kernel-level framing;
//! * each process runs an event loop that decodes frames, drives the
//!   engine and encodes its output; [`reactor`] threads carry the
//!   processes, anywhere from one thread each to all of them on a single
//!   thread ([`driver::Threading`]) — one loop family either way;
//! * the [`driver::LiveDriver`-style entry point][driver::run_live] runs
//!   `n` concurrent processes to gossip completion under either
//!   deterministic lockstep pacing (bit-identical per seed, for any
//!   threading and reactor count) or free-running pacing (real scheduling
//!   nondeterminism);
//! * free-running time is read through the [`clock::Clock`] trait, so
//!   tests can drive delays from a [`clock::FakeClock`] instead of real
//!   sleeps ([`driver::run_live_with_clock`]);
//! * crash injection kills live processes mid-run, mirroring the
//!   simulator's adversary.
//!
//! The runtime mirrors the paper's model:
//!
//! * a *local step* is one iteration of a node's loop (deliver whatever has
//!   arrived and is past its injected delay, compute, send);
//! * the injected per-message delay bound plays the role of `d`;
//! * the per-node pacing jitter plays the role of `δ`;
//! * crash injection halts a node permanently.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms, unreachable_pub)]
#![warn(missing_docs)]

pub mod clock;
pub mod driver;
mod error;
mod event_loop;
pub mod reactor;
pub mod service;
pub mod transport;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use driver::{
    run_live, run_live_with_clock, LiveConfig, LiveConfigBuilder, LiveReport, Pacing, Threading,
};
pub use error::{ConfigError, RuntimeError};
pub use event_loop::RunStats;
pub use service::{percentile, run_service, EpochReport, ServiceConfig, ServiceReport};
pub use transport::{
    frame_bytes, ChannelTransport, Endpoint, FrameBuf, RawFrame, SendOutcome, SocketKind,
    SocketTransport, Transport, MAX_FRAME_BYTES,
};
