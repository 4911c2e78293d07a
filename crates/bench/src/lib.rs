//! # agossip-bench
//!
//! Criterion benchmarks and shared helpers for regenerating the paper's
//! evaluation artifacts. Each bench target corresponds to one table or
//! figure:
//!
//! | Bench target | Paper artifact |
//! |---|---|
//! | `table1_gossip` | Table 1 — gossip protocols (time / messages vs `n`) |
//! | `table2_consensus` | Table 2 — consensus protocols |
//! | `lower_bound` | Theorem 1 / Figure 1 — adaptive adversary dichotomy |
//! | `cost_of_asynchrony` | Corollary 2 — async vs sync ratios |
//! | `sears_epsilon` | Theorem 7 — `ε` time/message trade-off |
//! | `tears_structure` | Lemmas 8–11 — `tears` structural properties |
//!
//! Besides wall-clock timings, every bench prints the measured table (message
//! counts and normalized completion times) so that the paper's rows can be
//! compared directly; `EXPERIMENTS.md` records one such run.
//!
//! Two plain binaries record the engine perf trajectories at the repository
//! root: `scheduler_baseline` (steps/sec of the simulator hot loop →
//! `BENCH_scheduler.json`) and `sweep_baseline` (trials/sec of the parallel
//! sweep engine on the Table 1 grid, 1 worker vs N workers, with a
//! bit-identity assertion → `BENCH_sweep.json`).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms, unreachable_pub)]
#![warn(missing_docs)]

pub mod json;

use agossip_analysis::experiments::ExperimentScale;

/// The scale used by the bench targets: large enough that asymptotic shape is
/// visible, small enough that `cargo bench` completes in minutes.
pub fn bench_scale() -> ExperimentScale {
    ExperimentScale {
        n_values: vec![32, 64, 128],
        trials: 2,
        failure_fraction: 0.25,
        d: 2,
        delta: 2,
        seed: 2008,
        idle_fast_forward: false,
    }
}

/// A smaller scale for the quadratic-cost baselines so the benches stay fast.
pub fn small_scale() -> ExperimentScale {
    ExperimentScale {
        n_values: vec![32, 64, 128],
        trials: 2,
        failure_fraction: 0.25,
        d: 2,
        delta: 2,
        seed: 2008,
        idle_fast_forward: false,
    }
}

pub mod rumorset {
    //! Workloads shared by the `rumor_set` criterion bench and the
    //! `rumor_baseline` runner (which emits the `BENCH_rumorset.json` perf
    //! trajectory at the repository root): the dense word-packed
    //! [`RumorSet`] against the historical `BTreeMap` representation, kept
    //! here as a baseline oracle.

    use std::collections::BTreeMap;

    use agossip_core::{Rumor, RumorSet};
    use agossip_sim::ProcessId;

    /// The seed (pre-dense) `RumorSet`: a `BTreeMap` from origin to payload.
    #[derive(Debug, Clone, Default)]
    pub struct BTreeRumorSet {
        by_origin: BTreeMap<ProcessId, u64>,
    }

    impl BTreeRumorSet {
        /// Inserts a rumor, first payload per origin wins.
        pub fn insert(&mut self, rumor: Rumor) -> bool {
            match self.by_origin.entry(rumor.origin) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(rumor.payload);
                    true
                }
                std::collections::btree_map::Entry::Occupied(_) => false,
            }
        }

        /// Merges `other` into `self`, returning the number of new origins.
        pub fn union(&mut self, other: &BTreeRumorSet) -> usize {
            let mut added = 0;
            for (&origin, &payload) in &other.by_origin {
                if self.insert(Rumor { origin, payload }) {
                    added += 1;
                }
            }
            added
        }

        /// True if a rumor from `origin` is present.
        pub fn contains_origin(&self, origin: ProcessId) -> bool {
            self.by_origin.contains_key(&origin)
        }

        /// Returns the rumor originating at `origin`, if present.
        pub fn get(&self, origin: ProcessId) -> Option<Rumor> {
            self.by_origin
                .get(&origin)
                .map(|&payload| Rumor { origin, payload })
        }

        /// True if `self` contains every rumor of `other`.
        pub fn is_superset_of(&self, other: &BTreeRumorSet) -> bool {
            other
                .by_origin
                .keys()
                .all(|origin| self.by_origin.contains_key(origin))
        }

        /// Number of rumors held.
        pub fn len(&self) -> usize {
            self.by_origin.len()
        }

        /// True if empty.
        pub fn is_empty(&self) -> bool {
            self.by_origin.is_empty()
        }

        /// Iterates rumors in origin order.
        pub fn iter(&self) -> impl Iterator<Item = Rumor> + '_ {
            self.by_origin
                .iter()
                .map(|(&origin, &payload)| Rumor { origin, payload })
        }
    }

    /// Every even origin of `0..n` (half-full set), forced to the dense
    /// representation: these helpers pin the dense word-packed paths the
    /// committed micro rows were measured on, independent of where the
    /// adaptive sparse→dense crossover happens to sit.
    pub fn dense_evens(n: usize) -> RumorSet {
        let mut s: RumorSet = (0..n)
            .step_by(2)
            .map(|i| Rumor::new(ProcessId(i), i as u64))
            .collect();
        s.force_dense();
        s
    }

    /// Every odd origin of `0..n` (the disjoint other half), forced dense.
    pub fn dense_odds(n: usize) -> RumorSet {
        let mut s: RumorSet = (0..n)
            .skip(1)
            .step_by(2)
            .map(|i| Rumor::new(ProcessId(i), i as u64))
            .collect();
        s.force_dense();
        s
    }

    /// Every even origin of `0..n`, baseline representation.
    pub fn btree_evens(n: usize) -> BTreeRumorSet {
        let mut s = BTreeRumorSet::default();
        for i in (0..n).step_by(2) {
            s.insert(Rumor::new(ProcessId(i), i as u64));
        }
        s
    }

    /// Every odd origin of `0..n`, baseline representation.
    pub fn btree_odds(n: usize) -> BTreeRumorSet {
        let mut s = BTreeRumorSet::default();
        for i in (0..n).skip(1).step_by(2) {
            s.insert(Rumor::new(ProcessId(i), i as u64));
        }
        s
    }
}

pub mod hotloop {
    //! The scheduler hot-loop workloads shared by the `scheduler_hot_loop`
    //! criterion bench and the `scheduler_baseline` runner (which emits the
    //! `BENCH_scheduler.json` perf trajectory at the repository root).

    use std::time::Instant;

    use agossip_sim::{
        Envelope, FairObliviousAdversary, Outbox, Process, ProcessId, SimConfig, Simulation,
        TimeStep,
    };

    /// A never-quiescent protocol: every local step forwards one message to a
    /// rotating neighbour. Deterministic and allocation-light so the
    /// measurement is dominated by the engine, not the workload.
    #[derive(Debug, Clone)]
    pub struct Chatter {
        id: ProcessId,
        n: usize,
        round: u64,
        received: u64,
    }

    impl Process for Chatter {
        type Message = u64;

        fn on_step(
            &mut self,
            _now: TimeStep,
            inbox: &mut Vec<Envelope<Self::Message>>,
            out: &mut Outbox<Self::Message>,
        ) {
            self.received += inbox.iter().map(|env| u64::from(env.copies)).sum::<u64>();
            inbox.clear();
            self.round += 1;
            let target = ProcessId((self.id.index() + self.round as usize) % self.n);
            out.send(target, self.round);
        }

        fn is_quiescent(&self) -> bool {
            false
        }
    }

    /// A chatter simulation with no crash budget and an effectively unbounded
    /// step limit.
    pub fn chatter_sim(n: usize, d: u64, delta: u64) -> Simulation<Chatter> {
        let config = SimConfig::new(n, 0)
            .with_d(d)
            .with_delta(delta)
            .with_seed(2008)
            .with_max_steps(u64::MAX);
        let processes = ProcessId::all(n)
            .map(|id| Chatter {
                id,
                n,
                round: 0,
                received: 0,
            })
            .collect();
        Simulation::new(config, processes).unwrap()
    }

    /// Oblivious hot loop: `steps` global steps under the reference adversary
    /// (`d = 4`, `δ = 2`). Returns steps per second.
    pub fn run_oblivious(n: usize, steps: u64) -> f64 {
        let mut sim = chatter_sim(n, 4, 2);
        let mut adversary = FairObliviousAdversary::new(4, 2, 2008);
        let start = Instant::now();
        for _ in 0..steps {
            sim.step_with(&mut adversary).unwrap();
        }
        steps as f64 / start.elapsed().as_secs_f64()
    }

    /// Withheld hot loop: `steps` manual global steps, every process
    /// scheduled, every message withheld — the per-destination queues only
    /// ever grow, which is the worst case for the delivery scan (and exactly
    /// what the Theorem 1 Case 1 loop does). Returns steps per second.
    pub fn run_withheld(n: usize, steps: u64) -> f64 {
        let mut sim = chatter_sim(n, 4, 1);
        let schedule: Vec<ProcessId> = ProcessId::all(n).collect();
        let start = Instant::now();
        for _ in 0..steps {
            sim.step_manual(&schedule, &[], |_| u64::MAX).unwrap();
        }
        steps as f64 / start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_valid() {
        let s = bench_scale();
        assert!(!s.n_values.is_empty());
        assert!(s.trials >= 1);
        assert!(s.f_for(64) < 32);
        assert!(small_scale().n_values.len() <= s.n_values.len());
    }

    #[test]
    fn hot_loop_workloads_run() {
        assert!(hotloop::run_oblivious(8, 16) > 0.0);
        assert!(hotloop::run_withheld(8, 16) > 0.0);
    }
}
