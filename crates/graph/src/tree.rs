//! The core bounded-degree tree type used throughout the workspace.
//!
//! Trees are stored in compressed-sparse-row (CSR) form: a flat adjacency
//! array plus per-node offsets. This keeps traversals cache-friendly for the
//! million-node instances the benchmark harness uses.

use crate::bfs::Bfs;
use crate::error::TreeError;

/// Index of a node inside a [`Tree`]. Nodes are numbered `0..n`.
pub type NodeId = usize;

/// An undirected tree (connected, acyclic) in CSR form.
///
/// # Examples
///
/// ```
/// use lcl_graph::{Tree, TreeBuilder};
///
/// let mut b = TreeBuilder::new(4);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(1, 3);
/// let tree: Tree = b.build().unwrap();
/// assert_eq!(tree.node_count(), 4);
/// assert_eq!(tree.degree(1), 3);
/// assert_eq!(tree.neighbors(3), &[1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// `offsets[v]..offsets[v + 1]` indexes `adjacency` for node `v`.
    offsets: Vec<u32>,
    /// Flattened neighbor lists; length `2 * (n - 1)`.
    adjacency: Vec<u32>,
}

impl Tree {
    /// Builds a tree from an explicit edge list.
    ///
    /// Convenience wrapper around [`TreeBuilder`].
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] if the edges do not form a connected acyclic
    /// graph on `n` nodes, reference nodes out of range, or contain
    /// duplicates/self-loops.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcl_graph::Tree;
    /// let t = Tree::from_edges(3, &[(0, 1), (1, 2)])?;
    /// assert_eq!(t.edge_count(), 2);
    /// # Ok::<(), lcl_graph::TreeError>(())
    /// ```
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, TreeError> {
        let mut b = TreeBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Builds a tree directly from CSR arrays, preserving the given per-node
    /// neighbor (port) order exactly.
    ///
    /// [`TreeBuilder`] derives port order from edge-insertion order, which is
    /// fine for generators but destroys the order of a tree that already
    /// exists — tree surgery (`crate::surgery`) must keep the ports of
    /// untouched nodes stable so that local views are unchanged, so it
    /// assembles CSR arrays itself and validates them here.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] if the arrays are not a well-formed CSR layout
    /// (monotone offsets starting at 0 and ending at `adjacency.len()`), or
    /// the encoded graph is not a connected acyclic mutual adjacency on
    /// `offsets.len() - 1` nodes.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcl_graph::Tree;
    /// // 1 - 0 - 2, with node 0 listing neighbor 2 before neighbor 1.
    /// let t = Tree::from_csr(vec![0, 2, 3, 4], vec![2, 1, 0, 0])?;
    /// assert_eq!(t.neighbors(0), &[2, 1]);
    /// # Ok::<(), lcl_graph::TreeError>(())
    /// ```
    pub fn from_csr(offsets: Vec<u32>, adjacency: Vec<u32>) -> Result<Self, TreeError> {
        if offsets.len() < 2 {
            return Err(TreeError::DegenerateParameters(
                "tree must have at least one node".into(),
            ));
        }
        let n = offsets.len() - 1;
        let malformed = offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets[n] as usize != adjacency.len();
        if malformed {
            return Err(TreeError::DegenerateParameters(
                "offsets must be monotone, start at 0, and cover the adjacency array".into(),
            ));
        }
        if adjacency.len() != 2 * (n - 1) {
            return Err(TreeError::NotATree {
                nodes: n,
                edges: adjacency.len() / 2,
            });
        }
        let tree = Tree { offsets, adjacency };
        for v in 0..n {
            for &w in tree.neighbors(v) {
                let w = w as usize;
                if w >= n {
                    return Err(TreeError::NodeOutOfRange { node: w, n });
                }
                if w == v {
                    return Err(TreeError::InvalidEdge { u: v, v: w });
                }
            }
        }
        // Mutuality: every directed edge (v, w) must have exactly one mate
        // (w, v). With the degree sum fixed at 2(n-1) it suffices to check
        // the sorted directed edge lists are mirror images.
        let mut fwd: Vec<(u32, u32)> = Vec::with_capacity(tree.adjacency.len());
        let mut rev: Vec<(u32, u32)> = Vec::with_capacity(tree.adjacency.len());
        for v in 0..n {
            for &w in tree.neighbors(v) {
                fwd.push((v as u32, w));
                rev.push((w, v as u32));
            }
        }
        fwd.sort_unstable();
        rev.sort_unstable();
        if fwd != rev {
            return Err(TreeError::DegenerateParameters(
                "adjacency is not mutual: some directed edge has no reverse".into(),
            ));
        }
        // A repeated port shows up as adjacent equal entries of the sorted
        // list: the first is the smallest node's smallest repeated neighbor.
        if let Some(w) = fwd.windows(2).find(|w| w[0] == w[1]) {
            return Err(TreeError::InvalidEdge {
                u: w[0].0 as usize,
                v: w[0].1 as usize,
            });
        }
        // Connectivity: n - 1 mutual, duplicate-free edges + connected ⇒ tree.
        let reached = tree
            .bfs_distances(0)
            .iter()
            .filter(|&&d| d != u32::MAX)
            .count();
        if reached != n {
            return Err(TreeError::NotATree {
                nodes: n,
                edges: tree.adjacency.len() / 2,
            });
        }
        Ok(tree)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges; always `node_count() - 1` for a non-empty tree.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.node_count()`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbors of node `v`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.node_count()`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        &self.adjacency[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The raw CSR offset array: `offsets()[v]..offsets()[v + 1]` indexes
    /// [`Tree::adjacency`] for node `v`. Length `n + 1`.
    ///
    /// Exposed so engines can lay out per-directed-edge buffers (message
    /// arenas) aligned with the adjacency storage.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw CSR adjacency array (flattened neighbor lists); length
    /// `2 * (n - 1)`. Entry `offsets()[v] + p` is the neighbor of `v` at
    /// port `p`.
    #[inline]
    pub fn adjacency(&self) -> &[u32] {
        &self.adjacency
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.node_count()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .map(move |&v| (u, v as NodeId))
                .filter(|&(u, v)| u < v)
        })
    }

    /// Maximum degree over all nodes (0 for the single-node tree).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// BFS distances from `source` to every node.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcl_graph::generators::path;
    /// let p = path(5);
    /// assert_eq!(p.bfs_distances(0), vec![0, 1, 2, 3, 4]);
    /// ```
    pub fn bfs_distances(&self, source: NodeId) -> Vec<u32> {
        self.multi_source_distances(&[source])
    }

    /// Multi-source BFS: distance from the nearest of `sources` to every
    /// node, `u32::MAX` when `sources` is empty.
    pub fn multi_source_distances(&self, sources: &[NodeId]) -> Vec<u32> {
        let mut bfs = Bfs::new(self.node_count());
        bfs.run(self, sources, None, Bfs::UNBOUNDED);
        bfs.into_distances()
    }

    /// The farthest node from `source` together with its distance.
    pub fn farthest_from(&self, source: NodeId) -> (NodeId, u32) {
        let dist = self.bfs_distances(source);
        dist.iter()
            .enumerate()
            .max_by_key(|&(_, d)| *d)
            .map(|(v, &d)| (v, d))
            .expect("tree has at least one node")
    }

    /// Diameter (length of the longest simple path, in edges) via double BFS.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcl_graph::generators::{path, star};
    /// assert_eq!(path(10).diameter(), 9);
    /// assert_eq!(star(10).diameter(), 2);
    /// ```
    pub fn diameter(&self) -> u32 {
        let (far, _) = self.farthest_from(0);
        self.farthest_from(far).1
    }

    /// Nodes of the tree whose degree is exactly 1 (the leaves).
    ///
    /// The single-node tree has no leaves under this definition.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.degree(v) == 1).collect()
    }
}

/// Incremental builder for [`Tree`]; see [`Tree::from_edges`] for a one-shot
/// alternative.
///
/// # Examples
///
/// ```
/// use lcl_graph::TreeBuilder;
/// let mut b = TreeBuilder::new(2);
/// b.add_edge(0, 1);
/// let t = b.build()?;
/// assert_eq!(t.node_count(), 2);
/// # Ok::<(), lcl_graph::TreeError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TreeBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl TreeBuilder {
    /// Creates a builder for a tree on `n` nodes.
    pub fn new(n: usize) -> Self {
        TreeBuilder {
            n,
            edges: Vec::with_capacity(n.saturating_sub(1)),
        }
    }

    /// Number of nodes the tree was declared with.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Records the undirected edge `{u, v}`. Range and duplicate checks are
    /// deferred to [`TreeBuilder::build`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.edges.push((u as u32, v as u32));
        self
    }

    /// Reserves `extra` additional nodes and returns the id of the first new
    /// node. Useful for constructions that grow trees incrementally.
    pub fn grow(&mut self, extra: usize) -> NodeId {
        let first = self.n;
        self.n += extra;
        first
    }

    /// Finalizes the tree.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::NodeOutOfRange`] for an endpoint `>= n`,
    /// [`TreeError::InvalidEdge`] for a self-loop, and
    /// [`TreeError::NotATree`] if the edge set is not a connected acyclic
    /// graph spanning all `n` nodes (this covers duplicate edges).
    pub fn build(&self) -> Result<Tree, TreeError> {
        let n = self.n;
        if n == 0 {
            return Err(TreeError::DegenerateParameters(
                "tree must have at least one node".into(),
            ));
        }
        if self.edges.len() != n - 1 {
            return Err(TreeError::NotATree {
                nodes: n,
                edges: self.edges.len(),
            });
        }
        let mut degree = vec![0u32; n];
        for &(u, v) in &self.edges {
            let (u, v) = (u as usize, v as usize);
            if u >= n {
                return Err(TreeError::NodeOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(TreeError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(TreeError::InvalidEdge { u, v });
            }
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut adjacency = vec![0u32; 2 * (n - 1)];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(u, v) in &self.edges {
            adjacency[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        let tree = Tree { offsets, adjacency };
        // Connectivity check: n - 1 edges + connected ⇒ acyclic. It also
        // rejects duplicate edges: a duplicate among the n - 1 edges leaves
        // at most n - 2 distinct ones, which cannot connect n nodes.
        let reached = tree
            .bfs_distances(0)
            .iter()
            .filter(|&&d| d != u32::MAX)
            .count();
        if reached != n {
            return Err(TreeError::NotATree {
                nodes: n,
                edges: self.edges.len(),
            });
        }
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> Tree {
        // 0 - 1 - 2
        //     |
        //     3 - 4
        Tree::from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn builds_and_queries() {
        let t = small_tree();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.degree(1), 3);
        assert_eq!(t.degree(0), 1);
        assert_eq!(t.max_degree(), 3);
        let mut nb = t.neighbors(1).to_vec();
        nb.sort_unstable();
        assert_eq!(nb, vec![0, 2, 3]);
    }

    #[test]
    fn edge_iteration_is_canonical() {
        let t = small_tree();
        let mut edges: Vec<_> = t.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (1, 2), (1, 3), (3, 4)]);
    }

    #[test]
    fn bfs_distances_correct() {
        let t = small_tree();
        assert_eq!(t.bfs_distances(0), vec![0, 1, 2, 2, 3]);
        assert_eq!(t.bfs_distances(4), vec![3, 2, 3, 1, 0]);
    }

    #[test]
    fn multi_source_distances_take_minimum() {
        let t = small_tree();
        assert_eq!(t.multi_source_distances(&[0, 4]), vec![0, 1, 2, 1, 0]);
        assert_eq!(t.multi_source_distances(&[]), vec![u32::MAX; 5]);
    }

    #[test]
    fn diameter_and_farthest() {
        let t = small_tree();
        assert_eq!(t.diameter(), 3);
        let (far, d) = t.farthest_from(0);
        assert_eq!((far, d), (4, 3));
    }

    #[test]
    fn path_between_endpoints() {
        // The tree path from `u` to `v` is the walk back from `u` of a
        // search from `v`.
        let t = small_tree();
        let mut bfs = Bfs::new(t.node_count());
        let mut path = |u: NodeId, v: NodeId| {
            bfs.run(&t, &[v], None, Bfs::UNBOUNDED);
            bfs.walk(u).collect::<Vec<_>>()
        };
        assert_eq!(path(0, 4), vec![0, 1, 3, 4]);
        assert_eq!(path(2, 2), vec![2]);
        assert_eq!(path(4, 0), vec![4, 3, 1, 0]);
    }

    #[test]
    fn rooted_order_and_subtree_sizes() {
        let t = small_tree();
        let mut bfs = Bfs::new(t.node_count());
        let order = bfs.run(&t, &[1], None, Bfs::UNBOUNDED).to_vec();
        assert_eq!(order[0], 1);
        assert_eq!(bfs.parent(1), None);
        assert_eq!(bfs.parent(0), Some(1));
        assert_eq!(bfs.parent(4), Some(3));
        // Subtree sizes, summed bottom-up over the rooted order.
        let mut sizes = vec![1u32; t.node_count()];
        for &v in order.iter().rev() {
            if let Some(p) = bfs.parent(v) {
                sizes[p] += sizes[v];
            }
        }
        assert_eq!(sizes[1], 5);
        assert_eq!(sizes[3], 2);
        assert_eq!(sizes[0], 1);
    }

    #[test]
    fn leaves_found() {
        let t = small_tree();
        let mut l = t.leaves();
        l.sort_unstable();
        assert_eq!(l, vec![0, 2, 4]);
    }

    #[test]
    fn single_node_tree() {
        let t = Tree::from_edges(1, &[]).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.edge_count(), 0);
        assert_eq!(t.max_degree(), 0);
        assert_eq!(t.diameter(), 0);
        assert!(t.leaves().is_empty());
    }

    #[test]
    fn rejects_wrong_edge_count() {
        assert!(matches!(
            Tree::from_edges(3, &[(0, 1)]),
            Err(TreeError::NotATree { nodes: 3, edges: 1 })
        ));
    }

    #[test]
    fn rejects_cycle() {
        // 3 edges on 3 nodes: triangle.
        assert!(Tree::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).is_err());
        // Right edge count, but a cycle + isolated node.
        assert!(matches!(
            Tree::from_edges(4, &[(0, 1), (1, 2), (2, 0)]),
            Err(TreeError::NotATree { .. })
        ));
    }

    #[test]
    fn rejects_self_loop_and_out_of_range() {
        assert!(matches!(
            Tree::from_edges(2, &[(0, 0)]),
            Err(TreeError::InvalidEdge { u: 0, v: 0 })
        ));
        assert!(matches!(
            Tree::from_edges(2, &[(0, 5)]),
            Err(TreeError::NodeOutOfRange { node: 5, n: 2 })
        ));
    }

    #[test]
    fn rejects_duplicate_edge() {
        // A duplicate among n - 1 edges always leaves a node unreached.
        assert!(matches!(
            Tree::from_edges(3, &[(0, 1), (0, 1)]),
            Err(TreeError::NotATree { nodes: 3, edges: 2 })
        ));
        assert!(matches!(
            Tree::from_edges(4, &[(0, 1), (2, 3), (1, 0)]),
            Err(TreeError::NotATree { nodes: 4, edges: 3 })
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(Tree::from_edges(0, &[]).is_err());
    }

    #[test]
    fn from_csr_preserves_port_order() {
        let t = Tree::from_csr(vec![0, 2, 3, 4], vec![2, 1, 0, 0]).unwrap();
        assert_eq!(t.neighbors(0), &[2, 1]);
        assert_eq!(t.node_count(), 3);
        let single = Tree::from_csr(vec![0, 0], vec![]).unwrap();
        assert_eq!(single.node_count(), 1);
    }

    #[test]
    fn from_csr_roundtrips_builder_output() {
        let t = small_tree();
        let r = Tree::from_csr(t.offsets().to_vec(), t.adjacency().to_vec()).unwrap();
        assert_eq!(t, r);
    }

    #[test]
    fn from_csr_rejects_malformed_layouts() {
        // Empty offsets.
        assert!(Tree::from_csr(vec![], vec![]).is_err());
        // Non-monotone offsets.
        assert!(Tree::from_csr(vec![0, 2, 1, 4], vec![1, 2, 0, 0]).is_err());
        // Offsets not covering adjacency.
        assert!(Tree::from_csr(vec![0, 1, 2], vec![1, 0, 0]).is_err());
        // Wrong edge count (cycle on 3 nodes).
        assert!(Tree::from_csr(vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1]).is_err());
        // Self-loop.
        assert!(Tree::from_csr(vec![0, 2, 3, 4], vec![0, 1, 0, 0]).is_err());
        // Out of range.
        assert!(Tree::from_csr(vec![0, 2, 3, 4], vec![9, 1, 0, 0]).is_err());
        // Non-mutual adjacency: 0 lists 1 twice, 1 and 2 each list 0.
        assert!(Tree::from_csr(vec![0, 2, 3, 4], vec![1, 1, 0, 0]).is_err());
        // Disconnected two-cycle + isolated pair is caught by mutuality/dup.
        assert!(Tree::from_csr(vec![0, 1, 2, 4], vec![1, 0, 1, 1]).is_err());
        // A doubled edge is mutual; it is reported at its smaller endpoint.
        assert!(matches!(
            Tree::from_csr(vec![0, 2, 4, 4], vec![1, 1, 0, 0]),
            Err(TreeError::InvalidEdge { u: 0, v: 1 })
        ));
    }

    #[test]
    fn builder_grow_reserves_ids() {
        let mut b = TreeBuilder::new(1);
        let first = b.grow(2);
        assert_eq!(first, 1);
        assert_eq!(b.node_count(), 3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        assert_eq!(b.edge_count(), 2);
        assert!(b.build().is_ok());
    }
}
