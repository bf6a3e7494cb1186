//! Quickstart: pick an algorithm from the registry, run a seeded sweep
//! through the `Session` runner, and read off node-averaged complexity.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lcl_landscape::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The paper's algorithms are registry entries: name, landscape
    //    class, supported instance kinds.
    let algorithms = resolver().algorithms();
    println!("registry ({} algorithms):", algorithms.len());
    for algo in algorithms {
        println!("  {:<18} {}", algo.name(), algo.landscape_class());
    }

    // 2. Pick the generic 3½-coloring and sweep the Theorem 11
    //    lower-bound instance (Definition 18 / Fig. 3) over three sizes.
    //    The Session batch runner builds each instance once and executes
    //    the runs in parallel.
    let algo = resolver().find("generic-coloring").expect("registered");
    let mut session = Session::new();
    for n in [25_000usize, 50_000, 100_000] {
        session.push(
            algo.name(),
            InstanceSpec::Theorem11 { n, k: 2 },
            RunConfig::seeded(42),
        )?;
    }
    let records = session.run()?;

    // 3. Each record carries exact per-node termination rounds, already
    //    verified against the LCL constraints of Definition 9.
    println!("\n{} on Theorem 11 instances:", algo.name());
    for record in &records {
        println!(
            "  n = {:>7}: worst-case {:>3}, node-averaged {:>6.2}, verified: {}",
            record.n, record.worst_case, record.node_averaged, record.verified
        );
    }

    // 4. Summarize the sweep: the node-averaged cost barely moves while n
    //    grows 4x — the hallmark of the (log* n)^c regime.
    let report = SweepReport::from_records(algo.name(), &records);
    let fit = report.fit.expect("three sizes give a fit");
    println!(
        "\nfitted node-avg exponent over n: {:.3} (worst case stays Θ(log* n))",
        fit.exponent
    );

    // 5. The low-level surface remains available for custom experiments.
    let first = &records[0];
    let profile = first.profile();
    println!(
        "fraction of nodes done within 5 rounds at n = {}: {:.1}%",
        first.n,
        100.0 * profile.fraction_done_by(5)
    );
    Ok(())
}
