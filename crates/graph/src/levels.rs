//! Level computation for `k`-hierarchical problems (Definition 8 of the
//! paper).
//!
//! Levels are assigned by iterative peeling: in round `i` every node of
//! degree at most 2 in the remaining tree gets level `i` and is removed;
//! after `k` rounds the survivors get level `k + 1`. Because all degree-≤2
//! nodes are removed simultaneously, each level `i ≤ k` induces a disjoint
//! union of paths.

use crate::mask::{induced_paths, NodeMask};
use crate::tree::{NodeId, Tree};

/// The level assignment of every node of a tree, for a fixed `k`.
///
/// # Examples
///
/// ```
/// use lcl_graph::generators::path;
/// use lcl_graph::levels::Levels;
///
/// // On a path everything has degree <= 2, so all nodes are level 1.
/// let p = path(10);
/// let levels = Levels::compute(&p, 3);
/// assert!(p.nodes().all(|v| levels.level(v) == 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    k: usize,
    level: Vec<u8>,
}

impl Levels {
    /// Computes levels by the peeling process of Definition 8.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 254` (levels are stored as `u8`, and the
    /// paper only uses constant `k`).
    pub fn compute(tree: &Tree, k: usize) -> Self {
        Self::compute_masked(tree, &NodeMask::full(tree.node_count()), k)
    }

    /// Computes levels by the peeling process restricted to the subgraph
    /// induced by `mask` (degrees are counted inside the mask). Nodes
    /// outside the mask receive the sentinel level `0`.
    ///
    /// Definition 22 of the paper evaluates the `k`-hierarchical constraints
    /// on the components induced by *active* nodes, which is exactly this
    /// masked peeling.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 254`.
    pub fn compute_masked(tree: &Tree, mask: &NodeMask, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(k <= 254, "k too large for u8 level storage");
        let mut level = vec![(k + 1) as u8; tree.node_count()];
        let mut degree: Vec<usize> = tree.nodes().map(|v| tree.degree(v)).collect();
        // A node outside the mask gets the sentinel level and takes one off
        // each neighbour's degree, leaving degrees inside the mask.
        for v in tree.nodes().filter(|&v| !mask.contains(v)) {
            level[v] = 0;
            for &w in tree.neighbors(v) {
                degree[w as usize] -= 1;
            }
        }
        let mut remaining = mask.clone();
        for i in 1..=k {
            let peel: Vec<NodeId> = remaining.iter().filter(|&v| degree[v] <= 2).collect();
            if peel.is_empty() {
                break;
            }
            for &v in &peel {
                level[v] = i as u8;
                remaining.remove(v);
            }
            for &v in &peel {
                for &w in tree.neighbors(v) {
                    let w = w as usize;
                    if remaining.contains(w) {
                        degree[w] -= 1;
                    }
                }
            }
        }
        Levels { k, level }
    }

    /// The `k` this assignment was computed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The level of node `v`, in `1..=k+1`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn level(&self, v: NodeId) -> usize {
        self.level[v] as usize
    }

    /// All nodes with level exactly `i`.
    pub fn nodes_at(&self, i: usize) -> Vec<NodeId> {
        self.level
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l as usize == i)
            .map(|(v, _)| v)
            .collect()
    }

    /// Count of nodes with level exactly `i`.
    pub fn count_at(&self, i: usize) -> usize {
        self.level.iter().filter(|&&l| l as usize == i).count()
    }

    /// Mask of nodes with level exactly `i`.
    pub fn mask_at(&self, n: usize, i: usize) -> NodeMask {
        NodeMask::from_nodes(n, self.nodes_at(i))
    }

    /// The paths induced by level-`i` nodes (`i ≤ k`), each ordered end to
    /// end. Level `k + 1` nodes need not form paths, so requesting them
    /// panics.
    ///
    /// # Panics
    ///
    /// Panics if `i == 0` or `i > k`.
    pub fn paths_at(&self, tree: &Tree, i: usize) -> Vec<Vec<NodeId>> {
        assert!(
            (1..=self.k).contains(&i),
            "level-{i} paths undefined (k = {})",
            self.k
        );
        induced_paths(tree, &self.mask_at(tree.node_count(), i))
    }

    /// Validates that this assignment is exactly the peeling of Definition 8
    /// (used by property tests).
    pub fn is_valid_peeling(&self, tree: &Tree) -> bool {
        *self == Levels::compute(tree, self.k)
    }

    /// Raw level slice (one entry per node).
    pub fn as_slice(&self) -> &[u8] {
        &self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{caterpillar, complete_ary_tree, path, spider, star};
    use crate::tree::TreeBuilder;

    #[test]
    fn path_is_all_level_one() {
        let t = path(7);
        let l = Levels::compute(&t, 2);
        assert_eq!(l.count_at(1), 7);
        assert_eq!(l.count_at(2), 0);
        assert_eq!(l.count_at(3), 0);
    }

    #[test]
    fn star_center_survives_one_round() {
        let t = star(6);
        let l = Levels::compute(&t, 1);
        // Leaves have degree 1 -> level 1; center degree 5 -> level 2 (= k+1).
        assert_eq!(l.level(0), 2);
        for v in 1..6 {
            assert_eq!(l.level(v), 1);
        }
        // With k = 2 the center is peeled in round 2 (degree drops to 0).
        let l2 = Levels::compute(&t, 2);
        assert_eq!(l2.level(0), 2);
    }

    #[test]
    fn spider_levels() {
        // Spider with 3 legs: hub has degree 3, legs are paths.
        let t = spider(3, 4);
        let l = Levels::compute(&t, 2);
        assert_eq!(l.level(0), 2);
        for v in 1..t.node_count() {
            assert_eq!(l.level(v), 1);
        }
    }

    #[test]
    fn binary_tree_peels_layer_by_layer() {
        // In a complete binary tree all nodes have degree <= 3; leaves and
        // the root (degree 2) peel first, then the next layer, etc.
        let t = complete_ary_tree(2, 4);
        let l = Levels::compute(&t, 10);
        // Deepest leaves are level 1.
        let n = t.node_count();
        assert_eq!(l.level(n - 1), 1);
        // Some node must survive longer than level 1.
        assert!(t.nodes().any(|v| l.level(v) > 1));
        assert!(l.is_valid_peeling(&t));
    }

    #[test]
    fn caterpillar_with_heavy_spine() {
        // Spine nodes have degree >= 3 (legs = 3), so legs peel first and the
        // spine becomes a path peeled in round 2.
        let t = caterpillar(5, 3);
        let l = Levels::compute(&t, 2);
        for s in 0..5 {
            assert_eq!(l.level(s), 2, "spine node {s}");
        }
        for leaf in 5..t.node_count() {
            assert_eq!(l.level(leaf), 1, "leaf {leaf}");
        }
    }

    #[test]
    fn level_paths_are_paths() {
        let t = caterpillar(6, 3);
        let l = Levels::compute(&t, 2);
        let ps = l.paths_at(&t, 2);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].len(), 6);
        let leg_paths = l.paths_at(&t, 1);
        assert_eq!(leg_paths.len(), 18); // each leaf is its own path
    }

    #[test]
    #[should_panic(expected = "paths undefined")]
    fn paths_above_k_panic() {
        let t = path(3);
        let l = Levels::compute(&t, 1);
        let _ = l.paths_at(&t, 2);
    }

    #[test]
    fn masked_peeling_matches_full_on_full_mask() {
        let t = caterpillar(5, 3);
        let full = crate::mask::NodeMask::full(t.node_count());
        let a = Levels::compute(&t, 2);
        let b = Levels::compute_masked(&t, &full, 2);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn masked_peeling_ignores_outside_nodes() {
        // Path 0-1-2-3-4 with only {1, 2, 3} in the mask: within the mask
        // this is a bare path, all level 1; outside nodes get sentinel 0.
        let t = path(5);
        let mask = crate::mask::NodeMask::from_nodes(5, [1, 2, 3]);
        let l = Levels::compute_masked(&t, &mask, 2);
        assert_eq!(l.level(0), 0);
        assert_eq!(l.level(4), 0);
        for v in 1..4 {
            assert_eq!(l.level(v), 1);
        }
    }

    #[test]
    fn masks_and_counts_agree() {
        let t = caterpillar(4, 4);
        let l = Levels::compute(&t, 3);
        for i in 1..=4 {
            assert_eq!(l.mask_at(t.node_count(), i).count(), l.count_at(i));
            assert_eq!(l.nodes_at(i).len(), l.count_at(i));
        }
        let total: usize = (1..=4).map(|i| l.count_at(i)).sum();
        assert_eq!(total, t.node_count());
    }

    #[test]
    fn three_level_construction_with_endpoint_erosion() {
        // A level-2 spine of 3 nodes, each with a level-1 path of 2 nodes.
        // The spine *endpoints* have degree 2 (one spine neighbor + one
        // pendant path), so the peeling of Definition 8 takes them in round
        // 1 — the boundary-erosion effect of Fig. 3. Only the middle spine
        // node survives to level 2.
        let mut b = TreeBuilder::new(9);
        b.add_edge(0, 1);
        b.add_edge(1, 2); // spine 0-1-2
        for (i, &s) in [0usize, 1, 2].iter().enumerate() {
            let base = 3 + 2 * i;
            b.add_edge(s, base);
            b.add_edge(base, base + 1);
        }
        let t = b.build().unwrap();
        let l = Levels::compute(&t, 2);
        assert_eq!(l.level(0), 1, "spine endpoint erodes");
        assert_eq!(l.level(2), 1, "spine endpoint erodes");
        assert_eq!(l.level(1), 2, "spine middle survives");
        for v in 3..9 {
            assert_eq!(l.level(v), 1, "pendant {v}");
        }
    }
}
