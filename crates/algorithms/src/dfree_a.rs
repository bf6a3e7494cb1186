//! Algorithm `A` for the `d`-free weight problem (Section 7).
//!
//! Every node collects its `(3⌈log_{d+1} n⌉ + 3)`-hop neighborhood and
//! decides:
//!
//! - nodes on a path of length ≤ `2⌈log_{d+1} n⌉ + 2` between two `A`-nodes
//!   output `Connect`,
//! - every other `A`-node `v` runs the sequential witness `A*` of Lemma 37
//!   on its `(⌈log_{d+1} n⌉ + 1)`-ball: `v` copies, and each copying node
//!   declines its `d` heaviest child subtrees, so the copy set shrinks by a
//!   factor `d + 1` per level and dies before the ball boundary,
//! - everything else declines.
//!
//! The copy set around `v` has size `O(|ball|^x)` with
//! `x = log(Δ-1-d)/log(Δ-1)` (Lemma 40), which is the upper-bound
//! efficiency the weighted algorithms inherit.

use lcl_core::dfree::{DfreeInput, DfreeOutput};
use lcl_graph::{Bfs, NodeId, NodeMask, Tree};
use lcl_local::math::ceil_log;

/// One maximal connected copy component, grown around an `A`-node: the
/// component type of both `d`-free weight solvers (algorithm `A` here and
/// the [fast decomposition](crate::fast_decomposition)).
#[derive(Debug, Clone)]
pub struct CopyComponent {
    /// The `A`-node the component was grown around (Observation 39: each
    /// component contains exactly one).
    pub anchor: NodeId,
    /// Members with their depth below the anchor (the anchor itself is
    /// `(anchor, 0)`): the hop distance for algorithm `A`, the oriented
    /// depth for the fast decomposition.
    pub members: Vec<(NodeId, u32)>,
    /// Round at which the component is fixed: algorithm `A`'s uniform
    /// radius, or the fast decomposition's round at which the anchor is
    /// assigned. No member copies before it.
    pub formed_round: u64,
}

/// Result of running algorithm `A` on the subgraph induced by a mask.
#[derive(Debug, Clone)]
pub struct DfreeRun {
    /// Output per node; `None` outside the mask.
    pub outputs: Vec<Option<DfreeOutput>>,
    /// The uniform termination round `3⌈log_{d+1} n⌉ + 3`.
    pub radius: u64,
    /// The copy components, one per non-`Connect` `A`-node that copies.
    pub copy_components: Vec<CopyComponent>,
}

/// Runs algorithm `A` on the subgraph of `tree` induced by `mask`.
///
/// `input` must label every mask node (`Adjacent` for nodes standing next
/// to active nodes, `Weight` otherwise); `n_hint` is the size of the whole
/// instance (nodes know `n` in the LOCAL model) and `d ≥ 1` the decline
/// budget.
///
/// # Panics
///
/// Panics if `d == 0` (algorithm `A`'s radius is `log_{d+1}` and the
/// paper requires positive `d`).
pub fn algorithm_a(
    tree: &Tree,
    mask: &NodeMask,
    input: &[DfreeInput],
    d: usize,
    n_hint: usize,
) -> DfreeRun {
    assert!(d >= 1, "algorithm A needs d >= 1");
    let n = tree.node_count();
    let r = ceil_log((d + 1) as u64, n_hint as u64) as usize;
    let radius = (3 * r + 3) as u64;
    let connect_budget = 2 * r + 2;
    let mut outputs: Vec<Option<DfreeOutput>> = vec![None; n];

    let a_nodes: Vec<NodeId> = mask
        .iter()
        .filter(|&v| input[v] == DfreeInput::Adjacent)
        .collect();

    // --- Connect paths between nearby A-nodes. ---
    let mut bfs = Bfs::new(n);
    for &a in &a_nodes {
        bfs.run(tree, &[a], Some(mask), connect_budget as u32);
        for &b in bfs.order() {
            if b != a && input[b] == DfreeInput::Adjacent {
                for u in bfs.walk(b) {
                    outputs[u] = Some(DfreeOutput::Connect);
                }
            }
        }
    }

    // --- Copy balls around the remaining A-nodes. ---
    let mut copy_components = Vec::new();
    for &v in &a_nodes {
        if outputs[v] == Some(DfreeOutput::Connect) {
            continue;
        }
        bfs.run(tree, &[v], Some(mask), (r + 1) as u32);
        let copies = witness_phi(&bfs, d, r);
        let mut members = Vec::new();
        for (&u, &copy) in bfs.order().iter().zip(&copies) {
            if copy {
                outputs[u] = Some(DfreeOutput::Copy);
                members.push((u, bfs.dist(u)));
            } else if outputs[u].is_none() {
                outputs[u] = Some(DfreeOutput::Decline);
            }
        }
        copy_components.push(CopyComponent {
            anchor: v,
            members,
            formed_round: radius,
        });
    }

    // --- Everything else declines. ---
    for u in mask.iter() {
        if outputs[u].is_none() {
            outputs[u] = Some(DfreeOutput::Decline);
        }
    }

    DfreeRun {
        outputs,
        radius,
        copy_components,
    }
}

/// The sequential witness `A*` of Lemma 37 on the ball `bfs` last searched,
/// rooted at its source: whether each ball position copies. The root
/// copies, and each copying node declines its `min(d, #children)` heaviest
/// child subtrees (sizes measured inside the truncated ball, ties to the
/// earlier port) while the other children copy.
fn witness_phi(bfs: &Bfs, d: usize, r: usize) -> Vec<bool> {
    let ball = bfs.order();
    let m = ball.len();
    // BFS appends a node's children together, in port order, when it
    // dequeues the node: the children of position i are first[i]..first[i + 1].
    let mut first = Vec::with_capacity(m + 1);
    let mut next = 1;
    for &u in ball {
        first.push(next);
        while next < m && bfs.parent(ball[next]) == Some(u) {
            next += 1;
        }
    }
    first.push(m);
    // Subtree sizes, bottom-up.
    let mut size = vec![1u32; m];
    for i in (0..m).rev() {
        size[i] += (first[i]..first[i + 1]).map(|c| size[c]).sum::<u32>();
    }
    // Greedy top-down: copy, declining the d heaviest subtrees.
    let mut copies = vec![false; m];
    copies[0] = true;
    let mut kids = Vec::new();
    for i in 0..m {
        if copies[i] {
            kids.clear();
            kids.extend(first[i]..first[i + 1]);
            kids.sort_by_key(|&c| std::cmp::Reverse(size[c]));
            for &c in kids.iter().skip(d) {
                copies[c] = true;
            }
        }
    }
    // Lemma 37: the copy set dies out before the ball boundary.
    debug_assert!(
        ball.iter()
            .zip(&copies)
            .all(|(&u, &copy)| !copy || bfs.dist(u) as usize <= r),
        "copy set must stay strictly inside the (r+1)-ball"
    );
    copies
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::dfree::DFreeWeight;
    use lcl_core::problem::LclProblem;
    use lcl_graph::generators::{balanced_weight_tree, path, random_bounded_degree_tree};

    fn full_inputs(tree: &Tree, a_nodes: &[NodeId]) -> Vec<DfreeInput> {
        let mut input = vec![DfreeInput::Weight; tree.node_count()];
        for &a in a_nodes {
            input[a] = DfreeInput::Adjacent;
        }
        input
    }

    fn run_and_verify(tree: &Tree, a_nodes: &[NodeId], d: usize) -> DfreeRun {
        let n = tree.node_count();
        let mask = NodeMask::full(n);
        let input = full_inputs(tree, a_nodes);
        let run = algorithm_a(tree, &mask, &input, d, n);
        let outputs: Vec<DfreeOutput> = run
            .outputs
            .iter()
            .map(|o| o.expect("full mask decides everywhere"))
            .collect();
        DFreeWeight::new(d)
            .verify(tree, &input, &outputs)
            .unwrap_or_else(|e| panic!("invalid d-free output: {e}"));
        run
    }

    #[test]
    fn lone_a_node_copies_a_small_set() {
        let tree = balanced_weight_tree(200, 5);
        // Root is the A-node (stands next to the active anchor).
        let run = run_and_verify(&tree, &[0], 2);
        assert_eq!(run.copy_components.len(), 1);
        let comp = &run.copy_components[0];
        assert_eq!(comp.anchor, 0);
        // Copy set is sublinear: |ball|^x with x = log(5-1-2)/log(4) = 0.5
        // plus the Lemma 40 constant.
        assert!(comp.members.len() < 120, "copied {}", comp.members.len());
        assert!(comp.members.len() >= 2, "someone besides the root copies");
    }

    #[test]
    fn no_a_nodes_means_all_decline() {
        let tree = random_bounded_degree_tree(100, 4, 1);
        let run = run_and_verify(&tree, &[], 2);
        assert!(run.outputs.iter().all(|&o| o == Some(DfreeOutput::Decline)));
        assert!(run.copy_components.is_empty());
    }

    #[test]
    fn nearby_a_nodes_connect() {
        // Two A-nodes at the ends of a short path: the whole path connects.
        let tree = path(6);
        let run = run_and_verify(&tree, &[0, 5], 1);
        assert!(run.outputs.iter().all(|&o| o == Some(DfreeOutput::Connect)));
        assert!(run.copy_components.is_empty());
    }

    #[test]
    fn distant_a_nodes_do_not_connect() {
        // A long path: the A-endpoints are farther apart than the connect
        // budget 2⌈log₂ n⌉ + 2, so each copies locally instead.
        let n = 600;
        let tree = path(n);
        let run = run_and_verify(&tree, &[0, n - 1], 1);
        assert_eq!(run.copy_components.len(), 2);
        assert_eq!(run.outputs[0], Some(DfreeOutput::Copy));
        assert_eq!(run.outputs[n - 1], Some(DfreeOutput::Copy));
        assert_eq!(run.outputs[n / 2], Some(DfreeOutput::Decline));
    }

    #[test]
    fn copy_components_are_separated() {
        // Spider with A-nodes on distinct legs far from each other.
        let tree = lcl_graph::generators::spider(3, 300);
        let a1 = 1 + 299; // end of leg 0
        let a2 = 1 + 300 + 299; // end of leg 1
        let run = run_and_verify(&tree, &[a1, a2], 1);
        assert_eq!(run.copy_components.len(), 2);
        // Components never touch: every neighbor of a copy member is Copy,
        // Decline, or Connect-free.
        for comp in &run.copy_components {
            for &(u, _) in &comp.members {
                for &w in tree.neighbors(u) {
                    let w = w as usize;
                    let in_other = run
                        .copy_components
                        .iter()
                        .filter(|c| c.anchor != comp.anchor)
                        .any(|c| c.members.iter().any(|&(m, _)| m == u || m == w));
                    assert!(!in_other, "components touch at ({u}, {w})");
                }
            }
        }
    }

    #[test]
    fn lemma_40_copy_bound() {
        // |Copy| <= 6 |ball|^x with x = log(Δ-1-d)/log(Δ-1).
        for (delta, d) in [(5usize, 2usize), (6, 2), (9, 4)] {
            let w = 3_000;
            let tree = balanced_weight_tree(w, delta);
            let run = run_and_verify(&tree, &[0], d);
            let comp = &run.copy_components[0];
            let x = ((delta - 1 - d) as f64).ln() / ((delta - 1) as f64).ln();
            let bound = 6.0 * (w as f64).powf(x);
            assert!(
                (comp.members.len() as f64) <= bound,
                "Δ={delta}, d={d}: copied {} > bound {bound:.1}",
                comp.members.len()
            );
        }
    }

    #[test]
    fn radius_formula() {
        let tree = path(100);
        let mask = NodeMask::full(100);
        let input = full_inputs(&tree, &[]);
        let run = algorithm_a(&tree, &mask, &input, 1, 100);
        // 3 * ceil(log2(100)) + 3 = 3 * 7 + 3.
        assert_eq!(run.radius, 24);
        let run = algorithm_a(&tree, &mask, &input, 3, 100);
        // 3 * ceil(log4(100)) + 3 = 3 * 4 + 3.
        assert_eq!(run.radius, 15);
    }

    #[test]
    fn masked_run_leaves_outside_untouched() {
        let tree = path(10);
        let mask = NodeMask::from_nodes(10, 0..5);
        let mut input = vec![DfreeInput::Weight; 10];
        input[0] = DfreeInput::Adjacent;
        let run = algorithm_a(&tree, &mask, &input, 1, 10);
        for v in 5..10 {
            assert!(run.outputs[v].is_none());
        }
        assert!(run.outputs[0].is_some());
    }

    #[test]
    fn anchor_distances_are_exact() {
        let tree = balanced_weight_tree(500, 4);
        let run = run_and_verify(&tree, &[0], 1);
        let dist = tree.bfs_distances(0);
        for comp in &run.copy_components {
            for &(u, du) in &comp.members {
                assert_eq!(dist[u], du, "member {u}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "d >= 1")]
    fn zero_d_rejected() {
        let tree = path(4);
        let mask = NodeMask::full(4);
        let input = full_inputs(&tree, &[]);
        let _ = algorithm_a(&tree, &mask, &input, 0, 4);
    }
}
