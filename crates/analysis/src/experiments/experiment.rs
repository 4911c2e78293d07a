//! The [`Experiment`] trait — one uniform, nameable entry point per
//! evaluation artifact.
//!
//! # Migration
//!
//! Before this trait every experiment exposed a `run_X(scale)` /
//! `run_X_with` twin, and the registry was a struct of function
//! pointers. Both forms now collapse into one `X_rows(pool,
//! scale)` function per experiment module (pass
//! [`TrialPool::serial()`] where you used the serial twin) and one
//! [`Experiment`] implementation per artifact, returned as trait objects
//! by [`crate::sweep::registry`]:
//!
//! ```
//! use agossip_analysis::sweep::{find_scenario, TrialPool};
//! use agossip_analysis::experiments::ExperimentScale;
//!
//! let table1 = find_scenario("table1").expect("registered");
//! let scale = ExperimentScale { n_values: vec![12], trials: 1, ..ExperimentScale::tiny() };
//! let table = table1.run(&TrialPool::serial(), &scale).expect("runs");
//! assert!(!table.is_empty());
//! ```

use agossip_sim::SimResult;

use crate::experiments::common::ExperimentScale;
use crate::experiments::{
    ablation, bit_complexity, coa, live, lower_bound, robustness, scale, sears_sweep, service,
    table1, table2, tears_lemmas,
};
use crate::report::Table;
use crate::sweep::TrialPool;

/// A named, runnable evaluation artifact: what the scenario registry
/// stores and what `--scenario` dispatch resolves to.
///
/// Implementations are unit structs (one per experiment module); consumers
/// get them as `Box<dyn Experiment>` from [`crate::sweep::registry`] or
/// [`crate::sweep::find_scenario`] and never name the structs directly.
pub trait Experiment {
    /// Registry name (what `--scenario` matches).
    fn name(&self) -> &'static str;

    /// One-line description.
    fn summary(&self) -> &'static str;

    /// Which paper table/figure/theorem the experiment reproduces.
    fn artifact(&self) -> &'static str;

    /// The example or binary that runs it standalone.
    fn example(&self) -> &'static str;

    /// Whether [`ExperimentScale::trials`] affects this experiment.
    /// `false` for experiments that are fully deterministic per point —
    /// runners should tell the user a `--trials` override is a no-op there
    /// instead of silently ignoring it.
    fn trials_apply(&self) -> bool {
        true
    }

    /// The curated scale this experiment is meant to run at by default —
    /// the same sizes/trials/bounds its standalone example uses, so the
    /// registry path and the example produce the same rows. (One global
    /// default would be wrong: the grids differ in size, failure fraction
    /// and `(d, δ)`, and a tears grid at `n = 256` has a multi-GB working
    /// set per trial.)
    fn default_scale(&self) -> ExperimentScale;

    /// Runs the experiment at `scale`, sharding its independent trials
    /// across `pool`'s workers, and renders its table. Rows are
    /// bit-identical for any worker count.
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table>;

    /// Runs the experiment at its curated default scale on `pool`.
    fn run_default(&self, pool: &TrialPool) -> SimResult<Table> {
        self.run(pool, &self.default_scale())
    }
}

/// Table 1 — gossip protocols: time and message complexity vs `n`.
pub struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }
    fn summary(&self) -> &'static str {
        "gossip protocols: time and message complexity vs n"
    }
    fn artifact(&self) -> &'static str {
        "Table 1"
    }
    fn example(&self) -> &'static str {
        "cargo run --release --example table1"
    }
    // The full paper grid, n = 256 included: since the dense RumorSet +
    // Arc snapshot rework a tears n = 256 trial measures 5.5 s / 1.3 GiB
    // peak RSS (it was >35 min / ~60 GB with per-destination BTreeMap
    // clones; see BENCH_rumorset.json).
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![32, 64, 128, 256],
            trials: 3,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        table1::table1_rows(pool, scale).map(|rows| table1::table1_to_table(&rows))
    }
}

/// Table 2 — consensus protocols built on the gossip protocols.
pub struct Table2;

impl Experiment for Table2 {
    fn name(&self) -> &'static str {
        "table2"
    }
    fn summary(&self) -> &'static str {
        "consensus protocols built on the gossip protocols"
    }
    fn artifact(&self) -> &'static str {
        "Table 2"
    }
    fn example(&self) -> &'static str {
        "cargo run --release --example consensus_demo"
    }
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![16, 32, 64, 128],
            trials: 2,
            failure_fraction: 0.2,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        table2::table2_rows(pool, scale).map(|rows| table2::table2_to_table(&rows))
    }
}

/// Theorem 1 / Figure 1 — the adaptive-adversary dichotomy.
pub struct LowerBound;

impl Experiment for LowerBound {
    fn name(&self) -> &'static str {
        "lower_bound"
    }
    fn summary(&self) -> &'static str {
        "adaptive adversary forces Ω(n+f²) messages or Ω(f(d+δ)) time"
    }
    fn artifact(&self) -> &'static str {
        "Theorem 1 / Figure 1"
    }
    fn example(&self) -> &'static str {
        "cargo run --release --example lower_bound_demo"
    }
    // The adversary construction is fully deterministic per (n, protocol).
    fn trials_apply(&self) -> bool {
        false
    }
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![64, 128, 256, 512],
            trials: 1,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        lower_bound::lower_bound_rows(pool, &scale.n_values, scale.seed)
            .map(|rows| lower_bound::lower_bound_to_table(&rows))
    }
}

/// Corollary 2 — the cost of asynchrony.
pub struct Coa;

impl Experiment for Coa {
    fn name(&self) -> &'static str {
        "coa"
    }
    fn summary(&self) -> &'static str {
        "cost of asynchrony: async protocols vs the synchronous baseline"
    }
    fn artifact(&self) -> &'static str {
        "Corollary 2"
    }
    fn example(&self) -> &'static str {
        "cargo run --release --example scenarios -- --scenario coa"
    }
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![32, 64, 128],
            trials: 3,
            d: 1,
            delta: 1,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        coa::coa_rows(pool, scale).map(|rows| coa::coa_to_table(&rows))
    }
}

/// Theorem 7 — the `ε` time/message trade-off of `sears`.
pub struct SearsSweep;

impl Experiment for SearsSweep {
    fn name(&self) -> &'static str {
        "sears_sweep"
    }
    fn summary(&self) -> &'static str {
        "the ε time/message trade-off of sears at fixed n"
    }
    fn artifact(&self) -> &'static str {
        "Theorem 7"
    }
    fn example(&self) -> &'static str {
        "cargo run --release --example sears_tradeoff"
    }
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![256],
            trials: 3,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        sears_sweep::sears_sweep_rows(pool, scale, &sears_sweep::default_epsilons())
            .map(|rows| sears_sweep::sears_sweep_to_table(&rows))
    }
}

/// Lemmas 8–11 / Theorem 12 — structural properties of `tears`.
pub struct TearsLemmas;

impl Experiment for TearsLemmas {
    fn name(&self) -> &'static str {
        "tears_lemmas"
    }
    fn summary(&self) -> &'static str {
        "structural properties of tears: fan-out concentration, majority coverage"
    }
    fn artifact(&self) -> &'static str {
        "Lemmas 8–11 / Theorem 12"
    }
    fn example(&self) -> &'static str {
        "cargo bench -p agossip-bench --bench tears_structure"
    }
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![64, 128],
            trials: 1,
            d: 1,
            delta: 1,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        tears_lemmas::tears_structure_rows(pool, scale)
            .map(|rows| tears_lemmas::tears_structure_to_table(&rows))
    }
}

/// Section 7 open question — wire-unit (bit) complexity per protocol.
pub struct BitComplexity;

impl Experiment for BitComplexity {
    fn name(&self) -> &'static str {
        "bit_complexity"
    }
    fn summary(&self) -> &'static str {
        "wire-unit (bit) complexity per protocol — the Section 7 open question"
    }
    fn artifact(&self) -> &'static str {
        "Section 7"
    }
    fn example(&self) -> &'static str {
        "cargo run --release --example bit_complexity"
    }
    // Same full grid as table1: the n = 256 tears row is affordable again
    // since the dense-set rework (see BENCH_rumorset.json).
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![32, 64, 128, 256],
            trials: 3,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        bit_complexity::bit_complexity_rows(pool, scale)
            .map(|rows| bit_complexity::bit_complexity_to_table(&rows))
    }
}

/// DESIGN.md ablations — sweeping the hidden `Θ(·)` constants.
pub struct Ablation;

impl Experiment for Ablation {
    fn name(&self) -> &'static str {
        "ablation"
    }
    fn summary(&self) -> &'static str {
        "sweeping the hidden Θ(·) constants of every protocol"
    }
    fn artifact(&self) -> &'static str {
        "DESIGN.md ablations"
    }
    fn example(&self) -> &'static str {
        "cargo run --release --example ablation"
    }
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![128],
            trials: 3,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        ablation::ablation_rows(pool, scale).map(|rows| ablation::ablation_to_table(&rows))
    }
}

/// Theorems 6/7/12 — correctness across the oblivious adversary family.
pub struct Robustness;

impl Experiment for Robustness {
    fn name(&self) -> &'static str {
        "robustness"
    }
    fn summary(&self) -> &'static str {
        "correctness across the oblivious adversary family"
    }
    fn artifact(&self) -> &'static str {
        "Theorems 6/7/12"
    }
    fn example(&self) -> &'static str {
        "cargo run --release --example adversary_robustness"
    }
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![96],
            trials: 2,
            d: 3,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        robustness::robustness_rows(pool, scale).map(|rows| robustness::robustness_to_table(&rows))
    }
}

/// The live runtime: protocols over the byte codec on OS threads.
pub struct Live;

impl Experiment for Live {
    fn name(&self) -> &'static str {
        "live"
    }
    fn summary(&self) -> &'static str {
        "the live runtime: OS threads exchanging byte frames over the wire codec"
    }
    fn artifact(&self) -> &'static str {
        "Section 7 (bit complexity), deployable-system north star"
    }
    fn example(&self) -> &'static str {
        "cargo run --release --example live_gossip"
    }
    // Each live trial spawns n OS threads of its own, so the grid stays
    // deliberately small; the rows are still bit-identical for any worker
    // count (lockstep pacing, channel transport).
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![16, 32],
            trials: 2,
            failure_fraction: 0.2,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        live::live_rows(pool, scale).map(|rows| live::live_to_table(&rows))
    }
}

/// Thousands of live processes multiplexed onto 8 reactor threads.
pub struct LiveScale;

impl Experiment for LiveScale {
    fn name(&self) -> &'static str {
        "live_scale"
    }
    fn summary(&self) -> &'static str {
        "thousands of live processes multiplexed onto 8 reactor threads"
    }
    fn artifact(&self) -> &'static str {
        "reactor scaling north star (ROADMAP item 2)"
    }
    fn example(&self) -> &'static str {
        "cargo run --release -p agossip-bench --bin live_baseline"
    }
    // One trial per size, like `scale`: the single n = 4096 live run (16
    // staggered crashes, checker-verified, ~800k frames through the byte
    // codec) is the point. Trial sharding would not help — each trial's
    // reactor threads already saturate the box.
    fn trials_apply(&self) -> bool {
        false
    }
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![512, 4096],
            trials: 1,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, _pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        live::live_scale_rows(&scale.n_values, 8, scale.seed)
            .map(|rows| live::live_scale_to_table(&rows))
    }
}

/// Checker-verified `tears` at `n` up to 65 536 (scaled constants).
pub struct Scale;

impl Experiment for Scale {
    fn name(&self) -> &'static str {
        "scale"
    }
    fn summary(&self) -> &'static str {
        "checker-verified tears at n up to 65 536 (scaled constants)"
    }
    fn artifact(&self) -> &'static str {
        "scaling north star (ROADMAP)"
    }
    fn example(&self) -> &'static str {
        "cargo run --release -p agossip-bench --bin scale_baseline"
    }
    // One trial per size: a single tears n = 65 536 trial (tens of
    // millions of messages, ~GB-scale peak RSS) is the point of the
    // scenario. CI's scale_smoke job runs it at n = 4096 only.
    fn default_scale(&self) -> ExperimentScale {
        scale::scale_default_scale()
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        scale::scale_rows(pool, scale).map(|rows| scale::scale_to_table(&rows))
    }
}

/// Service mode — pipelined epochs through the replicated rumor log.
pub struct Service;

impl Experiment for Service {
    fn name(&self) -> &'static str {
        "service"
    }
    fn summary(&self) -> &'static str {
        "service mode: epoch throughput and settle latency, open vs closed loop"
    }
    fn artifact(&self) -> &'static str {
        "continuous-traffic service (README \"Service mode\")"
    }
    fn example(&self) -> &'static str {
        "cargo run --release -p agossip-bench --bin service_baseline"
    }
    // Each point is one deterministic multi-epoch run (delays, workload
    // and admission all derive from the seed), so extra trials would
    // reproduce the same rows bit for bit.
    fn trials_apply(&self) -> bool {
        false
    }
    fn default_scale(&self) -> ExperimentScale {
        ExperimentScale {
            n_values: vec![32, 64],
            trials: 1,
            ..ExperimentScale::default()
        }
    }
    fn run(&self, pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Table> {
        service::service_rows(pool, scale).map(|rows| service::service_to_table(&rows))
    }
}
