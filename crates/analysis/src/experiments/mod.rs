//! Experiment drivers, one per evaluation artifact of the paper.
//!
//! Every driver runs its independent trials through the sweep engine in
//! [`crate::sweep`]: each experiment module exposes one `X_rows(pool,
//! scale)` entry point that shards the whole trial grid across a
//! [`crate::sweep::TrialPool`]'s workers, producing bit-identical rows for
//! any worker count (serial = `TrialPool::serial()`). Every driver is also
//! registered as an [`experiment::Experiment`] trait object in
//! [`crate::sweep::registry`], so every artifact can be produced from one
//! place (the `scenarios` example, the `sweep_baseline` binary).
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — gossip protocols: time and message complexity vs `n` |
//! | [`table2`] | Table 2 — consensus protocols built on the gossip protocols |
//! | [`coa`] | Corollary 2 — the cost of asynchrony (async vs sync ratios) |
//! | [`lower_bound`] | Theorem 1 / Figure 1 — the adaptive-adversary dichotomy |
//! | [`sears_sweep`] | Theorem 7 — the `ε` time/message trade-off of `sears` |
//! | [`tears_lemmas`] | Lemmas 8–11 / Theorem 12 — structural properties of `tears` |
//! | [`bit_complexity`] | Section 7 open question — wire-unit (bit) complexity per protocol |
//! | [`ablation`] | DESIGN.md ablations — sweeping the hidden `Θ(·)` constants |
//! | [`robustness`] | Theorems 6/7/12 — correctness across the oblivious adversary family |
//! | [`live`] | the live runtime: protocols over the byte codec on OS threads |
//! | [`scale`] | checker-verified `tears` at `n` up to 65 536 (scaled constants) |
//! | [`service`] | service mode: pipelined epochs through the replicated rumor log |

pub mod ablation;
pub mod bit_complexity;
pub mod coa;
pub mod common;
pub mod experiment;
pub mod live;
pub mod lower_bound;
pub mod robustness;
pub mod scale;
pub mod sears_sweep;
pub mod service;
pub mod table1;
pub mod table2;
pub mod tears_lemmas;

pub use ablation::{ablation_rows, knob_ablation_rows, AblationKnob, AblationRow};
pub use bit_complexity::{bit_complexity_rows, BitComplexityRow};
pub use coa::{coa_rows, CoaRow};
pub use common::{
    measure_point, measure_point_with, run_one_gossip, ExperimentScale, GossipProtocolKind,
    MeasuredPoint,
};
pub use experiment::Experiment;
pub use live::{live_rows, live_scale_rows, LiveRow, LiveScaleRow};
pub use lower_bound::{lower_bound_rows, LowerBoundRow};
pub use robustness::{default_environments, robustness_rows, AdversaryEnvironment, RobustnessRow};
pub use scale::{scale_rows, scale_tears_params, tears_params_for_a, ScaleRow};
pub use sears_sweep::{sears_sweep_rows, SearsSweepRow};
pub use service::{service_rows, service_to_table, ServiceRow};
pub use table1::{table1_rows, table1_to_table, Table1Row};
pub use table2::{table2_rows, table2_to_table, Table2Row};
pub use tears_lemmas::{
    run_tears_structure, run_tears_structure_at, tears_structure_rows, TearsStructureRow,
};
