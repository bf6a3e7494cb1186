//! Rake-and-compress in action: decompose a tree (Definition 71), then
//! solve the k-hierarchical labeling problem (Lemma 65) on top of it, the
//! engine behind the paper's `x = 1` weight gadgets.
//!
//! ```sh
//! cargo run --release --example decompose_and_solve
//! ```

use lcl_landscape::algorithms::labeling_solver::solve_hierarchical_labeling;
use lcl_landscape::core::labeling::HierarchicalLabeling;
use lcl_landscape::core::problem::LclProblem;
use lcl_landscape::graph::decompose::{Decomposition, RakeCompressParams};
use lcl_landscape::graph::generators::random_bounded_degree_tree;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 200_000;
    let tree = random_bounded_degree_tree(n, 4, 2024);
    println!(
        "random bounded-degree tree: {n} nodes, Δ = {}",
        tree.max_degree()
    );

    // Strict (γ, ℓ, L)-decomposition at a few γ budgets (Lemma 72: larger
    // γ, fewer layers).
    for gamma in [1usize, 16, 450] {
        let d = Decomposition::compute(
            &tree,
            RakeCompressParams {
                gamma,
                ell: 4,
                strict: true,
            },
        );
        d.validate(&tree).map_err(std::io::Error::other)?;
        println!(
            "γ = {gamma:>4}: {} layers, {} compress paths (all Def. 71 properties hold)",
            d.layers_used(),
            d.compress_paths().len()
        );
    }

    // Lemma 65: the k-hierarchical labeling solver. Paths are the hard
    // instances — a random tree has logarithmic depth and rakes away in
    // O(log n) rounds for every k, but on a path the Θ(n^{1/k}) trade-off
    // is visible directly.
    let m = 50_000;
    let hard = lcl_landscape::graph::generators::path(m);
    println!("\nhierarchical labeling on a {m}-node path (Lemma 65):");
    for k in [1usize, 2, 3] {
        let sol = solve_hierarchical_labeling(&hard, k);
        HierarchicalLabeling::new(k).verify(&hard, &vec![(); m], &sol.run.outputs)?;
        let profile = sol.run.profile();
        println!(
            "k = {k}: verified, γ = {:>6}, worst-case rounds = {:>6} (n^(1/k) = {:.0})",
            sol.gamma,
            profile.worst_case(),
            (m as f64).powf(1.0 / k as f64)
        );
    }
    Ok(())
}
