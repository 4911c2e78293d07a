//! Scale — checker-verified `tears` runs at `n` up to 65 536.
//!
//! The paper's default `tears` constants (`a = 4·√n·ln n`) are calibrated
//! for the high-probability arguments at the grid sizes of Table 1
//! (`n ≤ 256`). Taken literally at `n = 65 536` they demand `a ≈ 11 000`
//! and `Θ(n·a·√a)` second-level messages — hundreds of billions of
//! point-to-point sends, far beyond what any single machine can simulate.
//! This driver instead runs `tears` with *scaled constants*
//! ([`scale_tears_params`]): above [`SCALE_PARAM_CROSSOVER`] the target
//! neighbourhood size drops to the logarithmic [`scale_a_target`], and the
//! grid's delivery/step bounds (`d = 6`, `δ = 3`) stretch the first-level
//! phase so second-level triggers fire in several *waves*: each wave's
//! broadcasts carry the rumors accumulated from the previous waves, and
//! after `g` waves transitive coverage is `≈ a^g` — four waves clear the
//! majority threshold at every grid size even though `a³` alone would not
//! at `n = 65 536`. Every run is still checker-verified end to end:
//! majority gathering, validity and quiescence are asserted on the final
//! state exactly as for the Table 1 rows.
//!
//! The calibration is measured, not assumed. At `d = 6` the single-seed
//! coverage cliff sits at `a ≈ 14` (`n = 4 096`), `a ≈ 17` (`16 384`) and
//! by extrapolation `a ≈ 23` (`65 536`); the `< 4 GiB` peak-RSS budget of
//! the `n = 65 536` run caps `a` at about 28 (peak memory is the dense
//! sets — one rumor-set snapshot generation per broadcasting wave on top of
//! the per-process sets and informed lists — plus the `Θ(n·a·√a)`
//! in-flight queue entries, a measured sixth of it). `a(n) = 2 + 1.5·log₂ n`
//! threads that needle: margins of 1.4×/1.3× over the cliff at the two
//! smaller sizes, 1.13× at `n = 65 536`, and a measured 3.6 GiB peak
//! (131 s, 18.7 M messages, this repo's 1-core reference box — see
//! `BENCH_scale.json`).
//!
//! The scenario exists to pin the simulator's *scaling* behaviour — the
//! adaptive sparse/dense set representation, the per-destination network queues
//! — not the paper's asymptotics, which Table 1 and the `tears_lemmas`
//! scenario cover at their intended sizes. The `scale_baseline` bench
//! binary runs this grid and records steps/sec and peak RSS in
//! `BENCH_scale.json`; CI re-runs it in the bench-regression gate.

use agossip_core::params::ln_n;
use agossip_core::TearsParams;
use agossip_sim::SimResult;

use crate::experiments::common::ExperimentScale;
use crate::report::{fmt_f64, Table};
use crate::stats::Summary;
use crate::sweep::{run_grid, ScenarioSpec, TrialPool, TrialProtocol};

/// Below this system size the scenario runs the paper's default `tears`
/// constants; at or above it the scaled [`scale_tears_params`] engage. The
/// default constants are affordable (and their analysis meaningful) up to a
/// few thousand processes — see the Table 1 grid.
pub const SCALE_PARAM_CROSSOVER: usize = 2048;

/// The grid the `scale` scenario (and `BENCH_scale.json`) measures.
pub const SCALE_N_VALUES: [usize; 3] = [4096, 16384, 65536];

/// The expected `Π1`/`Π2` neighbourhood size the scaled constants target:
/// `a = 2 + 1.5·log₂ n` (20/23/26 across the measured grid).
///
/// Logarithmic growth is what the measured coverage cliff supports under
/// the grid's `d = 6` wave structure (see the module docs): the cliff
/// itself grows roughly like `n^{0.18}`, and the `< 4 GiB` memory budget
/// of the `n = 65 536` point caps `a` only slightly above this line, so
/// the margin deliberately compresses from ~1.4× at `n = 4 096` to ~1.13×
/// at `n = 65 536`.
pub fn scale_a_target(n: usize) -> f64 {
    (2.0 + 1.5 * (n as f64).log2()).max(8.0)
}

/// `tears` parameters for one system size of the scale grid.
///
/// Below [`SCALE_PARAM_CROSSOVER`] these are exactly
/// [`TearsParams::default`]. Above it, the multipliers are chosen so the
/// derived constants hit [`scale_a_target`] and `κ ≈ √a/2` (the
/// trigger-count minimiser: `T ≈ 2κ + a/(2κ)` second-level broadcasts per
/// process is smallest at `κ = √a/2`).
pub fn scale_tears_params(n: usize) -> TearsParams {
    if n < SCALE_PARAM_CROSSOVER {
        return TearsParams::default();
    }
    tears_params_for_a(n, scale_a_target(n))
}

/// `tears` parameters whose derived neighbourhood size hits `a_target` at
/// system size `n`, with `κ ≈ max(√a/2, 2)` — the per-process trigger-count
/// minimiser (`T ≈ 2κ + a/(2κ)` is smallest at `κ = √a/2`).
///
/// Exposed so the `scale_baseline` binary can recalibrate the grid (its
/// `--a` flag) without reimplementing the factor arithmetic.
pub fn tears_params_for_a(n: usize, a_target: f64) -> TearsParams {
    let kappa = (a_target.sqrt() / 2.0).max(2.0);
    TearsParams {
        a_factor: a_target / ((n as f64).sqrt() * ln_n(n)),
        kappa_factor: kappa / ((n as f64).powf(0.25) * ln_n(n)),
    }
}

/// The curated scale of the `scale` scenario.
///
/// One trial per size — a single `n = 65 536` trial is the point. `d = 6`
/// (rather than the Table 1 grid's 2) stretches the first-level delivery
/// window so second-level triggers fire in several waves, each carrying
/// the transitively accumulated rumors of the previous ones — the
/// compounding the logarithmic [`scale_a_target`] relies on. `δ = 3`
/// makes processes coalesce the triggers that arrive between two local
/// steps into *one* shared copy-on-write snapshot per step, which bounds
/// the number of simultaneously alive dense snapshot generations (the
/// dominant memory term at `n = 65 536`) without reducing the wave count.
/// Idle fast-forward is on; the runs are delivery-driven.
pub fn scale_default_scale() -> ExperimentScale {
    ExperimentScale {
        n_values: SCALE_N_VALUES.to_vec(),
        trials: 1,
        failure_fraction: 0.25,
        d: 6,
        delta: 3,
        seed: 2008,
        idle_fast_forward: true,
    }
}

/// One row of the scale sweep: a checker-verified `tears` point at size `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRow {
    /// System size.
    pub n: usize,
    /// Failure budget of the configuration.
    pub f: usize,
    /// The derived neighbourhood-size constant `a` in effect.
    pub a: u64,
    /// Completion time in steps.
    pub time_steps: Summary,
    /// Completion time in multiples of `d + δ`.
    pub normalized_time: Summary,
    /// Total point-to-point messages.
    pub messages: Summary,
    /// Total wire units sent.
    pub wire_units: Summary,
    /// Fraction of trials whose majority-gossip check passed.
    pub success_rate: f64,
}

/// Runs the scale sweep on `pool`: one `tears` point per size in
/// `scale.n_values`, each with the size's [`scale_tears_params`].
pub fn scale_rows(pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Vec<ScaleRow>> {
    run_grid(
        pool,
        &scale.n_values,
        |&n| ScenarioSpec::from_scale(TrialProtocol::TearsWith(scale_tears_params(n)), scale, n),
        |&n, spec, aggregate| ScaleRow {
            n,
            f: spec.f,
            a: scale_tears_params(n).a(n).round() as u64,
            time_steps: aggregate.time_steps.clone(),
            normalized_time: aggregate.normalized_time.clone(),
            messages: aggregate.messages.clone(),
            wire_units: aggregate.wire_units.clone(),
            success_rate: aggregate.success_rate,
        },
    )
}

/// Renders the scale rows.
pub fn scale_to_table(rows: &[ScaleRow]) -> Table {
    let mut table = Table::new(
        "Scale — tears with scaled constants, checker-verified (measured)",
        &[
            "n",
            "f",
            "a",
            "time[steps]",
            "time/(d+δ)",
            "messages",
            "wire units",
            "ok",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.n.to_string(),
            row.f.to_string(),
            row.a.to_string(),
            fmt_f64(row.time_steps.mean),
            fmt_f64(row.normalized_time.mean),
            fmt_f64(row.messages.mean),
            fmt_f64(row.wire_units.mean),
            format!("{:.0}%", row.success_rate * 100.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_are_default_below_the_crossover_and_scaled_above() {
        for n in [12, 64, 256, SCALE_PARAM_CROSSOVER - 1] {
            assert_eq!(scale_tears_params(n), TearsParams::default(), "n = {n}");
        }
        for n in SCALE_N_VALUES {
            let params = scale_tears_params(n);
            assert_ne!(params, TearsParams::default(), "n = {n}");
            params.validate().unwrap();
            // The derived a hits the Θ(n^{1/3}) target, far below the
            // paper's Θ(√n·log n) default.
            let a = params.a(n);
            assert!(
                (a - scale_a_target(n)).abs() < 1.0,
                "a = {a} misses target {} at n = {n}",
                scale_a_target(n)
            );
            assert!(a < TearsParams::default().a(n) / 10.0, "n = {n}");
            // κ stays below µ, so the trigger window is a window rather
            // than the degenerate everything-triggers regime.
            assert!(params.kappa(n) < params.mu(n), "n = {n}");
        }
    }

    #[test]
    fn a_target_is_the_measured_calibration() {
        // The calibration line a = 2 + 1.5·log₂n at the grid sizes. These
        // are load-bearing: the committed BENCH_scale.json rows and the
        // coverage-cliff margins in the module docs were measured at
        // exactly these neighbourhood sizes.
        assert_eq!(scale_a_target(4096).round() as u64, 20);
        assert_eq!(scale_a_target(16384).round() as u64, 23);
        assert_eq!(scale_a_target(65536).round() as u64, 26);
    }

    #[test]
    fn four_wave_coverage_clears_the_majority_threshold_with_margin() {
        // The wave structure of the d = 6 grid yields ≈ a⁴ transitive
        // second-level coverage (module docs); that — not a³, which is
        // deliberately *below* majority at n = 65 536 — is what must clear
        // the threshold with room to spare.
        for n in SCALE_N_VALUES {
            let a = scale_a_target(n);
            let majority = (n / 2 + 1) as f64;
            assert!(
                a.powi(4) > 2.0 * majority,
                "coverage margin too thin at n = {n}: a⁴ = {}, majority = {majority}",
                a.powi(4)
            );
        }
    }

    #[test]
    fn tiny_scale_run_is_checker_verified_and_renders() {
        // Below the crossover the scenario degenerates to a default-params
        // tears sweep — cheap enough for the tier-1 suite.
        let scale = ExperimentScale {
            n_values: vec![32],
            trials: 1,
            d: 1,
            delta: 1,
            ..ExperimentScale::tiny()
        };
        let rows = scale_rows(&TrialPool::serial(), &scale).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].success_rate, 1.0);
        let table = scale_to_table(&rows);
        assert_eq!(table.len(), 1);
        assert!(table.render().contains("32"));
    }

    #[test]
    fn default_grid_is_the_documented_one() {
        let scale = scale_default_scale();
        assert_eq!(scale.n_values, SCALE_N_VALUES.to_vec());
        assert_eq!(scale.trials, 1);
        assert_eq!((scale.d, scale.delta), (6, 3));
        assert!(scale.idle_fast_forward);
    }
}
