//! Rake-and-compress tree decompositions.
//!
//! Implements the `(γ, ℓ, L)`-decomposition of Definition 71 (used by the
//! Chang–Pettie style solvers) and the *relaxed* variant of Definition 43
//! (no splitting of long compress paths), together with validation of all
//! decomposition properties.
//!
//! The procedure (Section 11.2 of the paper): repeat for `i = 1, 2, ...`:
//! rake (`γ` sub-rounds of removing degree-≤1 nodes), then compress (remove
//! maximal degree-2 chains of length ≥ `ℓ`). In the strict variant each long
//! chain is split into subpaths of `ℓ..=2ℓ` nodes by promoting single
//! *splitter* nodes into the next rake layer (`V^R_{i+1,1}`), exactly the
//! treatment of Section 11.7.

use crate::bfs::Bfs;
use crate::mask::{induced_components, induced_paths, NodeMask};
use crate::tree::{NodeId, Tree};

/// Which part of the decomposition a node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Rake sublayer `V^R_{layer, sublayer}`.
    Rake,
    /// Compress layer `V^C_layer`.
    Compress,
}

/// The full layer coordinate of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Layer {
    /// Rake or compress.
    pub kind: LayerKind,
    /// Layer number `i ≥ 1`.
    pub layer: u32,
    /// Sublayer `j ≥ 1` for rake layers; `0` for compress layers.
    pub sublayer: u32,
}

impl Layer {
    /// Total order of Definition 75:
    /// `V^R_{i,j} < V^R_{i',j'}` iff `(i, j) < (i', j')`,
    /// `V^R_{i,j} < V^C_i`, and `V^C_i < V^R_{i+1,j}`.
    pub fn order_key(&self) -> (u32, u32, u32) {
        match self.kind {
            LayerKind::Rake => (self.layer, 0, self.sublayer),
            LayerKind::Compress => (self.layer, 1, 0),
        }
    }
}

impl PartialOrd for Layer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Layer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

/// One compress path of the decomposition, in end-to-end order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressPath {
    /// The compress layer the path belongs to.
    pub layer: u32,
    /// Path nodes in order.
    pub nodes: Vec<NodeId>,
}

/// A computed rake-and-compress decomposition.
#[derive(Debug, Clone)]
pub struct Decomposition {
    gamma: usize,
    ell: usize,
    strict: bool,
    assignment: Vec<Layer>,
    layers_used: usize,
    compress_paths: Vec<CompressPath>,
}

/// Configuration for [`Decomposition::compute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RakeCompressParams {
    /// Rake sub-rounds per layer (`γ ≥ 1`).
    pub gamma: usize,
    /// Minimum compress-chain length (`ℓ ≥ 1`).
    pub ell: usize,
    /// `true` for the strict Definition 71 (split long chains into
    /// `ℓ..=2ℓ`-node subpaths); `false` for the relaxed Definition 43.
    pub strict: bool,
}

impl Decomposition {
    /// Runs the rake-and-compress procedure on `tree`.
    ///
    /// # Panics
    ///
    /// Panics if `params.gamma == 0` or `params.ell == 0`.
    pub fn compute(tree: &Tree, params: RakeCompressParams) -> Self {
        Self::compute_pinned(tree, params, None)
    }

    /// Like [`Decomposition::compute`], but the `pinned` node is treated as
    /// if it had one phantom external edge: it is never raked or compressed
    /// until it is the only remaining node, so it ends up in the highest
    /// layer. This models decomposing a pendant subtree that hangs off a
    /// larger graph by an edge at `pinned` (the weight gadgets of
    /// Definition 67 hang off active nodes exactly like this).
    ///
    /// # Panics
    ///
    /// Panics if `params.gamma == 0`, `params.ell == 0`, or `pinned` is out
    /// of range.
    pub fn compute_pinned(tree: &Tree, params: RakeCompressParams, pinned: Option<NodeId>) -> Self {
        assert!(params.gamma >= 1, "gamma must be positive");
        assert!(params.ell >= 1, "ell must be positive");
        if let Some(p) = pinned {
            assert!(p < tree.node_count(), "pinned node out of range");
        }
        let n = tree.node_count();
        let placeholder = Layer {
            kind: LayerKind::Rake,
            layer: 0,
            sublayer: 0,
        };
        let mut assignment = vec![placeholder; n];
        let mut remaining = NodeMask::full(n);
        let mut degree: Vec<usize> = tree.nodes().map(|v| tree.degree(v)).collect();
        let mut compress_paths = Vec::new();

        let mut layer = 1u32;
        let mut remaining_count = n;
        while remaining_count > 0 {
            // --- Rake: γ sub-rounds of degree-≤1 removal. ---
            for sub in 1..=params.gamma as u32 {
                let mut peel: Vec<NodeId> = Vec::new();
                for v in remaining.iter() {
                    if pinned == Some(v) && remaining_count > 1 {
                        continue;
                    }
                    if degree[v] == 0 {
                        peel.push(v);
                    } else if degree[v] == 1 {
                        // Tie-break isolated edges: exactly one endpoint
                        // rakes now, keeping sublayers independent sets.
                        let u = tree
                            .neighbors(v)
                            .iter()
                            .map(|&w| w as usize)
                            .find(|&w| remaining.contains(w))
                            .expect("degree-1 node has a remaining neighbor");
                        if degree[u] > 1 || pinned == Some(u) || v < u {
                            peel.push(v);
                        }
                    }
                }
                if peel.is_empty() {
                    continue;
                }
                peel.sort_unstable();
                peel.dedup();
                for &v in &peel {
                    if !remaining.remove(v) {
                        continue;
                    }
                    remaining_count -= 1;
                    assignment[v] = Layer {
                        kind: LayerKind::Rake,
                        layer,
                        sublayer: sub,
                    };
                    for &w in tree.neighbors(v) {
                        let w = w as usize;
                        if remaining.contains(w) {
                            degree[w] -= 1;
                        }
                    }
                }
                if remaining_count == 0 {
                    break;
                }
            }
            if remaining_count == 0 {
                break;
            }

            // --- Compress: maximal degree-2 chains of length ≥ ℓ. ---
            let chain_mask = NodeMask::from_nodes(
                n,
                remaining
                    .iter()
                    .filter(|&v| degree[v] == 2 && pinned != Some(v)),
            );
            for chain in induced_paths(tree, &chain_mask) {
                if chain.len() < params.ell {
                    continue;
                }
                if params.strict {
                    // Split into ℓ..=2ℓ pieces separated by splitters that
                    // are promoted to V^R_{layer+1, 1}.
                    let pieces = split_chain(&chain, params.ell);
                    for piece in pieces {
                        match piece {
                            ChainPart::Piece(nodes) => {
                                for &v in &nodes {
                                    remaining.remove(v);
                                    remaining_count -= 1;
                                    assignment[v] = Layer {
                                        kind: LayerKind::Compress,
                                        layer,
                                        sublayer: 0,
                                    };
                                }
                                compress_paths.push(CompressPath { layer, nodes });
                            }
                            ChainPart::Splitter(v) => {
                                remaining.remove(v);
                                remaining_count -= 1;
                                assignment[v] = Layer {
                                    kind: LayerKind::Rake,
                                    layer: layer + 1,
                                    sublayer: 1,
                                };
                                // Recorded as already assigned; no further
                                // promotion bookkeeping needed.
                            }
                        }
                    }
                } else {
                    for &v in &chain {
                        remaining.remove(v);
                        remaining_count -= 1;
                        assignment[v] = Layer {
                            kind: LayerKind::Compress,
                            layer,
                            sublayer: 0,
                        };
                    }
                    compress_paths.push(CompressPath {
                        layer,
                        nodes: chain,
                    });
                }
            }
            // Degrees of neighbors of removed chain nodes.
            recompute_boundary_degrees(tree, &remaining, &mut degree);

            layer += 1;
            assert!(
                (layer as usize) <= n + 2,
                "rake-and-compress failed to make progress"
            );
        }

        Decomposition {
            gamma: params.gamma,
            ell: params.ell,
            strict: params.strict,
            layers_used: layer as usize,
            assignment,
            compress_paths,
        }
    }

    /// The `γ` parameter.
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// The `ℓ` parameter.
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// Whether long chains were split (strict Definition 71).
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Number of rake layers used (`L`).
    pub fn layers_used(&self) -> usize {
        self.layers_used
    }

    /// Layer of node `v`.
    pub fn layer(&self, v: NodeId) -> Layer {
        self.assignment[v]
    }

    /// All compress paths, in the order they were created.
    pub fn compress_paths(&self) -> &[CompressPath] {
        &self.compress_paths
    }

    /// Nodes sorted by the layer order of Definition 75 (lowest first);
    /// the processing order of the label-set solvers.
    pub fn processing_order(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = (0..self.assignment.len()).collect();
        order.sort_by_key(|&v| self.assignment[v].order_key());
        order
    }

    /// Validates the decomposition properties of Definition 71 (strict) or
    /// Definition 43 (relaxed) against `tree`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated property.
    pub fn validate(&self, tree: &Tree) -> Result<(), String> {
        let n = tree.node_count();
        if n != self.assignment.len() {
            return Err("assignment length mismatch".into());
        }
        // Property 3: rake sublayers are independent sets and each node has
        // at most one neighbor in a strictly higher layer/sublayer.
        for v in 0..n {
            let lv = self.assignment[v];
            if lv.kind == LayerKind::Rake {
                let mut higher = 0;
                for &w in tree.neighbors(v) {
                    let lw = self.assignment[w as usize];
                    if lw == lv {
                        return Err(format!(
                            "rake sublayer not independent: {v} ~ {w} both in {lv:?}"
                        ));
                    }
                    if lw > lv {
                        higher += 1;
                    }
                }
                if higher > 1 {
                    return Err(format!("rake node {v} has {higher} higher-layer neighbors"));
                }
            }
        }
        // Property 1: compress components are paths of valid length whose
        // endpoints have exactly one higher neighbor and whose interior has
        // none.
        for i in 1..self.layers_used as u32 {
            let mask = NodeMask::from_nodes(
                n,
                (0..n).filter(|&v| {
                    self.assignment[v].kind == LayerKind::Compress && self.assignment[v].layer == i
                }),
            );
            if mask.is_empty() {
                continue;
            }
            for comp in induced_components(tree, &mask) {
                let len = comp.len();
                if len < self.ell {
                    return Err(format!(
                        "compress component of length {len} < ℓ = {}",
                        self.ell
                    ));
                }
                if self.strict && len > 2 * self.ell {
                    return Err(format!(
                        "strict compress component of length {len} > 2ℓ = {}",
                        2 * self.ell
                    ));
                }
                for &v in &comp {
                    let inside = mask.induced_degree(tree, v);
                    if inside > 2 {
                        return Err(format!("compress node {v} not on a path"));
                    }
                    let higher = tree
                        .neighbors(v)
                        .iter()
                        .filter(|&&w| self.assignment[w as usize] > self.assignment[v])
                        .count();
                    let is_endpoint = inside <= 1;
                    if is_endpoint && higher != 1 && len > 1 {
                        return Err(format!(
                            "compress endpoint {v} has {higher} higher neighbors"
                        ));
                    }
                    if !is_endpoint && higher != 0 {
                        return Err(format!(
                            "compress interior {v} has {higher} higher neighbors"
                        ));
                    }
                }
            }
        }
        // Property 2: rake-layer components have diameter ≤ 2γ and at most
        // one node with a higher-layer neighbor.
        let mut bfs = Bfs::new(n);
        for i in 1..=self.layers_used as u32 {
            let mask = NodeMask::from_nodes(
                n,
                (0..n).filter(|&v| {
                    self.assignment[v].kind == LayerKind::Rake && self.assignment[v].layer == i
                }),
            );
            if mask.is_empty() {
                continue;
            }
            for comp in induced_components(tree, &mask) {
                let border = comp
                    .iter()
                    .filter(|&&v| {
                        tree.neighbors(v).iter().any(|&w| {
                            self.assignment[w as usize] > self.assignment[v]
                                && self.assignment[w as usize].layer > i
                        })
                    })
                    .count();
                if border > 1 {
                    return Err(format!(
                        "rake component in layer {i} has {border} border nodes"
                    ));
                }
                if comp.len() > 1 {
                    let diam = component_diameter(tree, &mask, comp[0], &mut bfs);
                    if diam > 2 * self.gamma as u32 {
                        return Err(format!(
                            "rake component diameter {diam} > 2γ = {}",
                            2 * self.gamma
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Diameter of the component of `tree[mask]` that holds `v`, by double BFS
/// inside the mask.
fn component_diameter(tree: &Tree, mask: &NodeMask, v: NodeId, bfs: &mut Bfs) -> u32 {
    let far = *bfs
        .run(tree, &[v], Some(mask), Bfs::UNBOUNDED)
        .last()
        .expect("v is visited");
    let farthest = *bfs
        .run(tree, &[far], Some(mask), Bfs::UNBOUNDED)
        .last()
        .expect("far is visited");
    bfs.dist(farthest)
}

enum ChainPart {
    Piece(Vec<NodeId>),
    Splitter(NodeId),
}

/// Splits an ordered chain of `m ≥ ℓ` nodes into pieces of `ℓ..=2ℓ` nodes
/// separated by single splitter nodes.
fn split_chain(chain: &[NodeId], ell: usize) -> Vec<ChainPart> {
    let mut parts = Vec::new();
    let mut rest = chain;
    loop {
        if rest.len() <= 2 * ell {
            parts.push(ChainPart::Piece(rest.to_vec()));
            return parts;
        }
        // Take ℓ nodes + 1 splitter; the remainder keeps ≥ ℓ nodes because
        // rest.len() > 2ℓ ⇒ rest.len() - ℓ - 1 ≥ ℓ.
        parts.push(ChainPart::Piece(rest[..ell].to_vec()));
        parts.push(ChainPart::Splitter(rest[ell]));
        rest = &rest[ell + 1..];
    }
}

fn recompute_boundary_degrees(tree: &Tree, remaining: &NodeMask, degree: &mut [usize]) {
    // Compress removals can be large; recompute degrees of remaining nodes
    // whose neighborhood changed. For simplicity and O(n) cost per layer we
    // recompute all remaining degrees.
    for v in remaining.iter() {
        degree[v] = remaining.induced_degree(tree, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        caterpillar, complete_ary_tree, path, random_bounded_degree_tree, star,
    };

    fn params(gamma: usize, ell: usize, strict: bool) -> RakeCompressParams {
        RakeCompressParams { gamma, ell, strict }
    }

    #[test]
    fn layer_order_matches_definition_75() {
        let r11 = Layer {
            kind: LayerKind::Rake,
            layer: 1,
            sublayer: 1,
        };
        let r12 = Layer {
            kind: LayerKind::Rake,
            layer: 1,
            sublayer: 2,
        };
        let c1 = Layer {
            kind: LayerKind::Compress,
            layer: 1,
            sublayer: 0,
        };
        let r21 = Layer {
            kind: LayerKind::Rake,
            layer: 2,
            sublayer: 1,
        };
        assert!(r11 < r12);
        assert!(r12 < c1);
        assert!(c1 < r21);
    }

    #[test]
    fn star_rakes_in_one_layer() {
        let t = star(8);
        let d = Decomposition::compute(&t, params(2, 3, true));
        assert!(d.validate(&t).is_ok());
        assert!(d.compress_paths().is_empty());
        // Leaves rake in sublayer 1, center in sublayer 2.
        assert_eq!(d.layer(1).sublayer, 1);
        assert_eq!(d.layer(0).sublayer, 2);
    }

    #[test]
    fn long_path_compresses_strictly() {
        let t = path(100);
        let d = Decomposition::compute(&t, params(1, 4, true));
        assert!(d.validate(&t).is_ok(), "{:?}", d.validate(&t));
        assert!(!d.compress_paths().is_empty());
        for p in d.compress_paths() {
            assert!(p.nodes.len() >= 4 && p.nodes.len() <= 8);
        }
    }

    #[test]
    fn long_path_compresses_relaxed() {
        let t = path(100);
        let d = Decomposition::compute(&t, params(1, 4, false));
        assert!(d.validate(&t).is_ok(), "{:?}", d.validate(&t));
        // One big chain: after raking the two path ends the degree-2
        // interior (96 nodes) compresses at layer 1 in one piece.
        let big = d
            .compress_paths()
            .iter()
            .map(|p| p.nodes.len())
            .max()
            .unwrap();
        assert_eq!(big, 96);
    }

    #[test]
    fn split_chain_respects_bounds() {
        for m in 4..200 {
            let chain: Vec<NodeId> = (0..m).collect();
            let parts = split_chain(&chain, 4);
            let mut covered = 0;
            for part in &parts {
                match part {
                    ChainPart::Piece(p) => {
                        assert!(p.len() >= 4 && p.len() <= 8, "m={m}, piece={}", p.len());
                        covered += p.len();
                    }
                    ChainPart::Splitter(_) => covered += 1,
                }
            }
            assert_eq!(covered, m);
        }
    }

    #[test]
    fn gamma_controls_layer_count_on_paths() {
        let t = path(1000);
        let small = Decomposition::compute(&t, params(1, 2, true));
        let big = Decomposition::compute(&t, params(40, 2, true));
        assert!(big.layers_used() <= small.layers_used());
        assert!(small.validate(&t).is_ok());
        assert!(big.validate(&t).is_ok());
    }

    #[test]
    fn binary_tree_is_mostly_rake() {
        let t = complete_ary_tree(2, 8);
        let d = Decomposition::compute(&t, params(1, 10, true));
        assert!(d.validate(&t).is_ok(), "{:?}", d.validate(&t));
    }

    #[test]
    fn caterpillar_decomposes() {
        let t = caterpillar(60, 2);
        let d = Decomposition::compute(&t, params(1, 3, true));
        assert!(d.validate(&t).is_ok(), "{:?}", d.validate(&t));
    }

    #[test]
    fn random_trees_validate() {
        for seed in 0..8 {
            let t = random_bounded_degree_tree(400, 4, seed);
            for strict in [false, true] {
                let d = Decomposition::compute(&t, params(2, 3, strict));
                assert!(
                    d.validate(&t).is_ok(),
                    "seed={seed} strict={strict}: {:?}",
                    d.validate(&t)
                );
            }
        }
    }

    #[test]
    fn processing_order_is_monotone() {
        let t = random_bounded_degree_tree(200, 4, 3);
        let d = Decomposition::compute(&t, params(1, 3, true));
        let order = d.processing_order();
        for w in order.windows(2) {
            assert!(d.layer(w[0]).order_key() <= d.layer(w[1]).order_key());
        }
    }

    #[test]
    fn every_node_is_assigned() {
        let t = random_bounded_degree_tree(300, 5, 11);
        let d = Decomposition::compute(&t, params(3, 4, true));
        for v in t.nodes() {
            assert!(d.layer(v).layer >= 1, "node {v} unassigned");
        }
    }

    #[test]
    fn pinned_node_lands_in_top_layer() {
        for tree in [
            path(50),
            star(9),
            complete_ary_tree(3, 4),
            random_bounded_degree_tree(300, 4, 5),
        ] {
            let pinned = 0;
            let d = Decomposition::compute_pinned(&tree, params(2, 3, true), Some(pinned));
            assert!(d.validate(&tree).is_ok(), "{:?}", d.validate(&tree));
            // The pinned node is strictly above all its neighbors.
            for &w in tree.neighbors(pinned) {
                assert!(
                    d.layer(pinned) > d.layer(w as usize),
                    "pinned {pinned} not above neighbor {w}"
                );
            }
        }
    }

    #[test]
    fn pinned_isolated_edge_resolves() {
        let t = path(2);
        // Pin the smaller-id endpoint: the tie-break must let the other
        // endpoint rake anyway.
        let d = Decomposition::compute_pinned(&t, params(1, 2, true), Some(0));
        assert!(d.layer(0) > d.layer(1));
    }

    #[test]
    fn single_node_and_edge() {
        let t = path(1);
        let d = Decomposition::compute(&t, params(1, 1, true));
        assert_eq!(d.layer(0).kind, LayerKind::Rake);
        let t2 = path(2);
        let d2 = Decomposition::compute(&t2, params(1, 1, true));
        assert!(d2.validate(&t2).is_ok());
        // Exactly one endpoint rakes first (tie-break), the other follows.
        assert_ne!(d2.layer(0), d2.layer(1));
    }
}
