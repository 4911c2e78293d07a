//! Regenerates the paper's Table 1: gossip protocols under an oblivious
//! adversary, compared on completion time and message complexity.
//!
//! ```text
//! cargo run --release --example table1 -- [--threads N] [--trials N] [--n A,B,C]
//! ```
//!
//! The default grid stops at `n = 128`, which runs in about 2 s with a
//! 95 MiB peak RSS. Pass `--n 32,64,128,256` for the paper's full grid: the
//! `n = 256` column (its `tears` trials dominate, ~2.7 s each) brings the
//! run to about 13 s and 0.7 GiB peak RSS (release, one worker thread, a
//! 2-core x86-64 box).

use agossip_analysis::experiments::table1::{message_exponent, table1_rows, table1_to_table};
use agossip_analysis::experiments::{ExperimentScale, GossipProtocolKind};
use agossip_analysis::sweep::SweepArgs;

fn main() {
    let args = SweepArgs::from_env();
    args.reject_registry_flags("table1");
    let mut scale = ExperimentScale {
        n_values: vec![32, 64, 128],
        trials: 3,
        failure_fraction: 0.25,
        d: 2,
        delta: 2,
        seed: 2008,
        idle_fast_forward: false,
    };
    args.apply(&mut scale);
    let pool = args.pool();
    println!(
        "running the Table 1 sweep at n = {:?} on {} worker thread(s)...\n",
        scale.n_values,
        pool.threads()
    );
    let rows = table1_rows(&pool, &scale).expect("sweep failed");
    println!("{}", table1_to_table(&rows).render());

    println!("fitted message-complexity growth exponents (messages ≈ c·n^k):");
    for kind in GossipProtocolKind::table1_rows() {
        if let Some(fit) = message_exponent(&rows, kind.name()) {
            println!(
                "  {:8} k = {:.2}  (R² = {:.3})",
                kind.name(),
                fit.exponent,
                fit.r_squared
            );
        }
    }
    println!(
        "\npaper shape: trivial ≈ n², ears ≈ n·polylog, sears ≈ n^(1+ε), tears ≈ n^(7/4)·polylog"
    );
}
