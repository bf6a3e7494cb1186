//! Deterministic 2-coloring of paths — the canonical `Θ(n)` problem.
//!
//! A proper 2-coloring of a path is globally rigid: the color of one node
//! fixes every other node's color. The algorithm therefore waits until it
//! has seen the *entire* path (both endpoints, to agree on the convention
//! "the endpoint with the smaller ID is White") and its termination round
//! is its eccentricity within the path. Node-averaged complexity is
//! `Θ(n)`, matching Lemma 16 (Feuilloley) and Corollary 60 of the paper.

use crate::run::AlgorithmRun;
use lcl_core::coloring::ColorLabel;
use lcl_graph::Tree;
use lcl_local::identifiers::Ids;

/// 2-colors a path-shaped tree with `{White, Black}`.
///
/// Every node terminates in the round equal to its distance to the farther
/// endpoint (it must see both endpoint IDs to orient the parity), so the
/// per-node rounds realize worst case `n - 1` and node average `≈ 3n/4`.
///
/// # Panics
///
/// Panics if the tree is not a path (some node has degree `> 2`).
pub fn two_color_path(tree: &Tree, ids: &Ids) -> AlgorithmRun<ColorLabel> {
    let n = tree.node_count();
    assert!(
        tree.max_degree() <= 2,
        "two_color_path requires a path-shaped tree"
    );
    if n == 1 {
        return AlgorithmRun::new(vec![ColorLabel::White], vec![0]);
    }
    let endpoints: Vec<usize> = tree.nodes().filter(|&v| tree.degree(v) == 1).collect();
    assert_eq!(endpoints.len(), 2, "a multi-node path has two endpoints");
    let (a, b) = (endpoints[0], endpoints[1]);
    let anchor = if ids.id(a) < ids.id(b) { a } else { b };
    let dist_a = tree.bfs_distances(a);
    let dist_b = tree.bfs_distances(b);
    let dist_anchor = if anchor == a { &dist_a } else { &dist_b };

    let outputs = tree
        .nodes()
        .map(|v| {
            if dist_anchor[v] % 2 == 0 {
                ColorLabel::White
            } else {
                ColorLabel::Black
            }
        })
        .collect();
    let rounds = tree
        .nodes()
        .map(|v| dist_a[v].max(dist_b[v]) as u64)
        .collect();
    AlgorithmRun::new(outputs, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::generators::{path, star};

    fn assert_proper(tree: &Tree, out: &[ColorLabel]) {
        for (u, v) in tree.edges() {
            assert_ne!(out[u], out[v], "edge ({u}, {v})");
        }
    }

    #[test]
    fn colors_are_proper_and_anchored() {
        for n in [2usize, 3, 8, 101] {
            let tree = path(n);
            let ids = Ids::random(n, n as u64);
            let run = two_color_path(&tree, &ids);
            assert_proper(&tree, &run.outputs);
            // The smaller-ID endpoint is White.
            let (a, b) = (0, n - 1);
            let anchor = if ids.id(a) < ids.id(b) { a } else { b };
            assert_eq!(run.outputs[anchor], ColorLabel::White);
        }
    }

    #[test]
    fn rounds_are_eccentricities() {
        let n = 9;
        let tree = path(n);
        let ids = Ids::sequential(n);
        let run = two_color_path(&tree, &ids);
        for v in 0..n {
            assert_eq!(run.rounds[v], v.max(n - 1 - v) as u64);
        }
        let profile = run.profile();
        assert_eq!(profile.worst_case(), (n - 1) as u64);
        // Node average ≈ 3n/4.
        let avg = profile.node_averaged();
        assert!(avg > 0.6 * n as f64 && avg < 0.85 * n as f64, "avg = {avg}");
    }

    #[test]
    fn node_average_grows_linearly() {
        // The Θ(n) shape of Corollary 60: doubling n doubles the average.
        let a = two_color_path(&path(100), &Ids::sequential(100))
            .profile()
            .node_averaged();
        let b = two_color_path(&path(200), &Ids::sequential(200))
            .profile()
            .node_averaged();
        let ratio = b / a;
        assert!(ratio > 1.8 && ratio < 2.2, "ratio = {ratio}");
    }

    #[test]
    fn single_node() {
        let run = two_color_path(&path(1), &Ids::sequential(1));
        assert_eq!(run.outputs, vec![ColorLabel::White]);
        assert_eq!(run.rounds, vec![0]);
    }

    #[test]
    #[should_panic(expected = "path-shaped")]
    fn rejects_non_paths() {
        let _ = two_color_path(&star(4), &Ids::sequential(4));
    }
}
