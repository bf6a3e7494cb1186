//! Solver for the `k`-hierarchical labeling problem (Lemma 65).
//!
//! Computes a strict `(γ, 4, k)`-decomposition with
//! `γ ≈ n^{1/k} (ℓ/2)^{1-1/k}` (Lemma 72) and translates it into labels:
//! rake layer `i` becomes `R_i`; each compress piece keeps `C_i` on its
//! interior, promotes its two endpoints to `R_{i+1}`, and orients the
//! interior-to-endpoint and endpoint-to-higher edges. The worst-case round
//! cost is `O(k · n^{1/k})` — one rake sub-round per unit of `γ`.

use crate::run::AlgorithmRun;
use lcl_core::labeling::{HierLabel, LabelingOutput};
use lcl_graph::decompose::{Decomposition, LayerKind, RakeCompressParams};
use lcl_graph::{NodeId, Tree};

/// Compress threshold used by the solver (the paper's `ℓ = 4`).
const ELL: usize = 4;

/// Result of [`solve_hierarchical_labeling`].
#[derive(Debug, Clone)]
pub struct LabelingSolution {
    /// Outputs and per-node rounds.
    pub run: AlgorithmRun<LabelingOutput>,
    /// The rake budget `γ` that produced a `k`-layer decomposition.
    pub gamma: usize,
}

/// Solves `k`-hierarchical labeling on `tree` in `O(k · n^{1/k})` rounds.
///
/// Starts from the Lemma 72 budget `γ = ⌈n^{1/k} (ℓ/2)^{1-1/k}⌉` and
/// doubles it until the decomposition fits in `k` rake layers (at most a
/// few retries; Lemma 72 guarantees the asymptotic budget suffices).
///
/// # Panics
///
/// Panics if `k == 0` or if no admissible `γ ≤ 4n` exists (impossible:
/// `γ = n` rakes everything in one layer).
pub fn solve_hierarchical_labeling(tree: &Tree, k: usize) -> LabelingSolution {
    solve_hierarchical_labeling_rooted(tree, k, None)
}

/// Like [`solve_hierarchical_labeling`], but guarantees that `root` (when
/// given) receives the highest label of its neighborhood and **no
/// out-port** — it behaves as if it had a phantom edge to the rest of a
/// larger graph. The weight-augmented solver roots each gadget's labeling
/// at its attachment node this way, freeing that node's orientation for
/// the active anchor (Definition 67, rule 3).
///
/// # Panics
///
/// As for [`solve_hierarchical_labeling`]; additionally if `root` is out
/// of range.
pub fn solve_hierarchical_labeling_rooted(
    tree: &Tree,
    k: usize,
    root: Option<lcl_graph::NodeId>,
) -> LabelingSolution {
    assert!(k >= 1, "k must be at least 1");
    let n = tree.node_count();
    let mut gamma = ((n as f64).powf(1.0 / k as f64)
        * (ELL as f64 / 2.0).powf(1.0 - 1.0 / k as f64))
    .ceil() as usize;
    gamma = gamma.max(1);
    loop {
        let d = Decomposition::compute_pinned(
            tree,
            RakeCompressParams {
                gamma,
                ell: ELL,
                strict: true,
            },
            root,
        );
        // Compress layers up to k - 1 produce labels C_{k-1} and R_k at
        // most; deeper decompositions need a bigger budget.
        let max_compress = d
            .compress_paths()
            .iter()
            .map(|p| p.layer)
            .max()
            .unwrap_or(0) as usize;
        if d.layers_used() <= k && max_compress <= k.saturating_sub(1) {
            return LabelingSolution {
                run: translate(tree, &d, gamma),
                gamma,
            };
        }
        assert!(
            gamma <= 4 * n,
            "γ diverged; decomposition cannot fit in k layers"
        );
        gamma *= 2;
    }
}

/// Maps a strict decomposition to labels, orientations, and rounds.
fn translate(tree: &Tree, d: &Decomposition, gamma: usize) -> AlgorithmRun<LabelingOutput> {
    let n = tree.node_count();
    // Higher neighbor in the Definition 75 order (unique where it exists).
    let higher_neighbor = |v: NodeId| -> Option<NodeId> {
        tree.neighbors(v)
            .iter()
            .map(|&w| w as usize)
            .find(|&w| d.layer(w) > d.layer(v))
    };
    let port_of = |v: NodeId, target: NodeId| -> usize {
        tree.neighbors(v)
            .iter()
            .position(|&w| w as usize == target)
            .expect("target is a neighbor")
    };

    let mut outputs: Vec<LabelingOutput> = tree
        .nodes()
        .map(|v| {
            let layer = d.layer(v);
            match layer.kind {
                LayerKind::Rake => LabelingOutput::new(
                    HierLabel::Rake(layer.layer as u8),
                    higher_neighbor(v).map(|w| port_of(v, w)),
                ),
                LayerKind::Compress => LabelingOutput::new(
                    // Interior for now; endpoints are promoted below.
                    HierLabel::Compress(layer.layer as u8),
                    None,
                ),
            }
        })
        .collect();

    // Promote compress-piece endpoints to R_{i+1} and orient the piece.
    for piece in d.compress_paths() {
        let nodes = &piece.nodes;
        let len = nodes.len();
        let (first, last) = (nodes[0], nodes[len - 1]);
        for &end in [first, last].iter().take(if len == 1 { 1 } else { 2 }) {
            outputs[end] = LabelingOutput::new(
                HierLabel::Rake(piece.layer as u8 + 1),
                higher_neighbor(end).map(|w| port_of(end, w)),
            );
        }
        // Interior neighbors of the endpoints orient toward them.
        if len >= 2 {
            outputs[nodes[1]].out_port = Some(port_of(nodes[1], first));
        }
        if len >= 3 {
            outputs[nodes[len - 2]].out_port = Some(port_of(nodes[len - 2], last));
        }
    }

    // Rounds: rake sublayer (i, j) is fixed after (i-1)(γ+1) + j rounds of
    // the decomposition procedure; compress layer i after i(γ+1).
    let rounds: Vec<u64> = tree
        .nodes()
        .map(|v| {
            let layer = d.layer(v);
            match layer.kind {
                LayerKind::Rake => {
                    (layer.layer as u64 - 1) * (gamma as u64 + 1) + layer.sublayer as u64
                }
                LayerKind::Compress => layer.layer as u64 * (gamma as u64 + 1),
            }
        })
        .collect();
    let _ = n;
    AlgorithmRun::new(outputs, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::labeling::HierarchicalLabeling;
    use lcl_core::problem::LclProblem;
    use lcl_graph::generators::{
        balanced_weight_tree, caterpillar, path, random_bounded_degree_tree, spider, star,
    };

    fn solve_and_verify(tree: &Tree, k: usize) -> LabelingSolution {
        let sol = solve_hierarchical_labeling(tree, k);
        HierarchicalLabeling::new(k)
            .verify(tree, &vec![(); tree.node_count()], &sol.run.outputs)
            .unwrap_or_else(|e| panic!("invalid labeling (k = {k}): {e}"));
        sol
    }

    #[test]
    fn paths_all_k() {
        for n in [1usize, 2, 5, 40, 400] {
            for k in 1..=3 {
                solve_and_verify(&path(n), k);
            }
        }
    }

    #[test]
    fn stars_and_spiders() {
        solve_and_verify(&star(30), 1);
        solve_and_verify(&star(30), 2);
        solve_and_verify(&spider(4, 50), 2);
        solve_and_verify(&spider(4, 50), 3);
    }

    #[test]
    fn balanced_gadgets() {
        for delta in [4usize, 6] {
            for k in 1..=3 {
                solve_and_verify(&balanced_weight_tree(500, delta), k);
            }
        }
    }

    #[test]
    fn caterpillars_and_random_trees() {
        solve_and_verify(&caterpillar(80, 2), 2);
        for seed in 0..5 {
            let t = random_bounded_degree_tree(600, 4, seed);
            for k in 2..=3 {
                solve_and_verify(&t, k);
            }
        }
    }

    #[test]
    fn worst_case_rounds_scale_as_n_to_one_over_k() {
        // For paths, worst-case rounds should drop sharply from k = 1
        // (linear) to k = 2 (≈ √n).
        let n = 2_500;
        let t = path(n);
        let k1 = solve_and_verify(&t, 1).run.profile().worst_case();
        let k2 = solve_and_verify(&t, 2).run.profile().worst_case();
        assert!(k1 >= (n as u64) / 2, "k=1 worst {k1}");
        assert!(k2 < k1 / 5, "k=2 worst {k2} vs k=1 {k1}");
        assert!(k2 >= 50, "k=2 should still pay ~sqrt(n): {k2}");
    }

    #[test]
    fn gamma_follows_lemma_72() {
        let n = 10_000;
        let sol = solve_and_verify(&path(n), 2);
        // γ ≈ √n · √2 ≈ 141; retries double it at most a few times.
        assert!(sol.gamma >= 100 && sol.gamma <= 600, "γ = {}", sol.gamma);
    }

    #[test]
    fn k_one_uses_only_r1() {
        let t = star(12);
        let sol = solve_and_verify(&t, 1);
        assert!(sol
            .run
            .outputs
            .iter()
            .all(|o| matches!(o.label, HierLabel::Rake(1))));
    }
}
