//! # agossip-core
//!
//! Asynchronous gossip protocols from *"On the Complexity of Asynchronous
//! Gossip"* (Georgiou, Gilbert, Guerraoui, Kowalski — PODC 2008), implemented
//! as pure state machines that can be driven either by the discrete-event
//! simulator in [`agossip_sim`] or by the thread-based runtime in
//! `agossip-runtime`.
//!
//! ## The gossip problem
//!
//! Every process `p` starts with a rumor `r_p` and maintains a collection of
//! rumors it has received. A gossip protocol must satisfy (paper, Section 1):
//!
//! 1. **Rumor gathering** — eventually every correct process has added every
//!    rumor that initiated at a correct process to its collection;
//! 2. **Validity** — only initial rumors are ever added;
//! 3. **Quiescence** — eventually every process stops sending messages
//!    forever.
//!
//! *Majority gossip* (Section 5) weakens gathering: each correct process must
//! receive at least a majority of the rumors.
//!
//! ## Protocols
//!
//! | Module | Paper | Time | Messages |
//! |---|---|---|---|
//! | [`trivial`] | "Trivial" row of Table 1 | `O(d+δ)` | `Θ(n²)` |
//! | [`ears`] | Section 3, Figure 2 | `O(n/(n−f)·log²n·(d+δ))` | `O(n log³n (d+δ))` |
//! | [`sears`] | Section 4 | `O(n/(ε(n−f))·(d+δ))` | `O(n^{2+ε}/(ε(n−f))·log n·(d+δ))` |
//! | [`tears`] | Section 5, Figure 3 | `O(d+δ)` | `O(n^{7/4} log²n)` (majority gossip) |
//! | [`sync_epidemic`] | synchronous baseline (cf. CK \[9\]) | `O(log n)` rounds | `O(n log n)` |
//!
//! All bounds hold with high probability against an **oblivious** adversary;
//! Section 2 of the paper (reproduced in `agossip-adversary::theorem1`) shows
//! that no protocol can beat `Ω(n+f²)` messages *and* `Ω(f(d+δ))` time
//! against an **adaptive** adversary.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms, unreachable_pub)]
#![warn(missing_docs)]

pub mod adapter;
mod bits;
pub mod checker;
pub mod codec;
pub mod codec_view;
pub mod driver;
pub mod ears;
pub mod engine;
pub mod epoch;
pub mod informed_list;
pub mod params;
pub mod rumor;
pub mod sears;
pub mod sync_epidemic;
pub mod tears;
pub mod trivial;
pub mod wire;

pub use adapter::SimGossip;
pub use bits::ADAPTIVE_SPARSE_LIMIT;
pub use checker::{check_engines, check_gossip, CheckReport, GossipSpec};
pub use codec::{CodecError, WireCodec, CODEC_VERSION};
pub use codec_view::{
    EarsView, InformedListView, RumorSetView, SearsView, SyncView, TearsView, TrivialView,
    WireDecodeView,
};
pub use driver::{run_gossip, GossipReport};
pub use ears::{Ears, EarsMessage};
pub use engine::{broadcast, EncodedFrame, GossipCtx, GossipEngine};
pub use epoch::{
    epoch_initial_rumors, epoch_rumor, epoch_seed, service_open_upto, EpochBoard, EpochMsg,
    EpochMux, LoopMode,
};
pub use params::{EarsParams, ParamError, SearsParams, SyncParams, TearsParams};
pub use rumor::{Rumor, RumorSet};
pub use sears::{Sears, SearsMessage};
pub use sync_epidemic::{SyncEpidemic, SyncMessage};
pub use tears::{Tears, TearsFlag, TearsMessage};
pub use trivial::{Trivial, TrivialMessage};
pub use wire::WireSize;
