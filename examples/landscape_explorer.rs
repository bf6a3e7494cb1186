//! Landscape explorer: pick a target exponent window, synthesize an LCL
//! whose node-averaged complexity lands inside it (constructive
//! Theorems 1 and 6), and measure it.
//!
//! ```sh
//! cargo run --release --example landscape_explorer -- 0.30 0.34
//! ```

use lcl_landscape::core::landscape::{synthesize_log_star, synthesize_poly, PolySpec};
use lcl_landscape::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let r1: f64 = args.get(1).map_or(0.30, |s| s.parse().unwrap_or(0.30));
    let r2: f64 = args.get(2).map_or(0.34, |s| s.parse().unwrap_or(0.34));
    println!("target window for the exponent c: ({r1}, {r2})");

    // Polynomial regime (Theorem 1).
    let spec = synthesize_poly(r1, r2)?;
    println!("\npolynomial regime: Θ(n^c) via {spec:?}");
    if let PolySpec::Weighted {
        delta,
        d,
        k,
        exponent,
    } = spec
    {
        // Measure A_poly on a Definition 25 instance via the registry.
        let algo = resolver().find("apoly").expect("apoly is registered");
        let instance = InstanceSpec::WeightedPoly {
            n: 400_000,
            delta,
            d,
            k,
        }
        .build()?;
        let record = algo.run(&instance, &RunConfig::seeded(1))?;
        println!(
            "measured on n = {}: node-avg = {:.1} (predicted scale n^{exponent:.3} = {:.1})",
            record.n,
            record.node_averaged,
            (record.n as f64).powf(exponent),
        );
    }

    // log* regime (Theorem 6).
    match synthesize_log_star(r1.min(0.9), r2.min(0.95), 0.05) {
        Ok(ls) => println!(
            "\nlog* regime: Π^3.5_{{{},{},{}}} has complexity between \
             Ω((log* n)^{:.3}) and O((log* n)^{:.3}) — gap {:.3}",
            ls.delta,
            ls.d,
            ls.k,
            ls.lower_exponent,
            ls.upper_exponent,
            ls.gap()
        ),
        Err(e) => println!("\nlog* regime: {e}"),
    }
    Ok(())
}
