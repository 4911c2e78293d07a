//! Bit complexity of the gossip protocols (the paper's Section 7 open
//! question): how much *information*, not just how many messages, each
//! protocol puts on the wire.
//!
//! ```text
//! cargo run --release --example bit_complexity -- [--threads N] [--trials N] [--n A,B,C]
//! ```
//!
//! Message counts alone (Table 1) hide the fact that `ears`/`sears` messages
//! carry the sender's entire rumor set plus its informed-list, while `tears`
//! carries only rumors and the trivial protocol carries exactly one rumor per
//! message. This example measures both axes for every protocol.

use agossip_analysis::experiments::bit_complexity::{
    bit_complexity_rows, bit_complexity_to_table, wire_unit_exponent,
};
use agossip_analysis::experiments::{ExperimentScale, GossipProtocolKind};
use agossip_analysis::sweep::SweepArgs;

fn main() {
    let args = SweepArgs::from_env();
    args.reject_registry_flags("bit_complexity");
    // Stops at n = 128 by default, like the table1 example: about 0.25 s
    // and 17 MiB peak RSS. Pass --n 32,64,128,256 for the full grid, about
    // 2 s and 83 MiB (release, one worker thread, a 2-core x86-64 box).
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
        "running the bit-complexity sweep at n = {:?} on {} worker thread(s)...\n",
        scale.n_values,
        pool.threads()
    );
    let rows = bit_complexity_rows(&pool, &scale).expect("sweep failed");
    println!("{}", bit_complexity_to_table(&rows).render());

    println!("fitted wire-unit growth exponents (units ≈ c·n^k):");
    for kind in GossipProtocolKind::table1_rows() {
        if let Some(fit) = wire_unit_exponent(&rows, kind.name()) {
            println!(
                "  {:8} k = {:.2}  (R² = {:.3})",
                kind.name(),
                fit.exponent,
                fit.r_squared
            );
        }
    }
    println!(
        "\nobservation: ears wins Table 1 on message count but pays a large\n\
         per-message factor once bit complexity is counted, which is exactly\n\
         why the paper lists bit complexity as an open direction."
    );
}
