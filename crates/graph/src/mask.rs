//! Node masks and induced subgraphs.
//!
//! The generic algorithms of the paper repeatedly operate on "the subgraph of
//! nodes that did not yet output a label"; [`NodeMask`] is that working set.
//! The weighted constructions (Definitions 22 and 25) work on the subgraphs
//! the active and the weight nodes induce. This module is where every such
//! subgraph is built: [`induced_components`] lists a mask's components,
//! [`induced_paths`] orders path-shaped ones end to end, and
//! [`extract_components`] turns each component into a standalone [`Tree`]
//! with the ambient port order (the form a solver or a dirty-region
//! re-solve runs on).

use crate::tree::{NodeId, Tree};

/// A dense set of nodes, used to restrict tree traversals to an induced
/// subgraph.
///
/// # Examples
///
/// ```
/// use lcl_graph::NodeMask;
/// let mut m = NodeMask::full(4);
/// m.remove(2);
/// assert!(m.contains(0) && !m.contains(2));
/// assert_eq!(m.count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMask {
    bits: Vec<u64>,
    len: usize,
}

impl NodeMask {
    /// An empty mask over `n` nodes.
    pub fn empty(n: usize) -> Self {
        NodeMask {
            bits: vec![0; n.div_ceil(64)],
            len: n,
        }
    }

    /// A full mask over `n` nodes.
    pub fn full(n: usize) -> Self {
        let mut m = NodeMask {
            bits: vec![!0u64; n.div_ceil(64)],
            len: n,
        };
        // Clear padding bits so `count` stays exact.
        let extra = m.bits.len() * 64 - n;
        if extra > 0 {
            let last = m.bits.len() - 1;
            m.bits[last] >>= extra;
        }
        m
    }

    /// Builds a mask from an iterator of member nodes.
    pub fn from_nodes(n: usize, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut m = NodeMask::empty(n);
        for v in nodes {
            m.insert(v);
        }
        m
    }

    /// Number of nodes the mask ranges over (not the number of members).
    pub fn universe(&self) -> usize {
        self.len
    }

    /// True if `v` is in the mask.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the universe.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        assert!(v < self.len, "node {v} outside mask universe {}", self.len);
        self.bits[v / 64] >> (v % 64) & 1 == 1
    }

    /// Adds `v`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        assert!(v < self.len, "node {v} outside mask universe {}", self.len);
        let word = &mut self.bits[v / 64];
        let bit = 1u64 << (v % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes `v`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        assert!(v < self.len, "node {v} outside mask universe {}", self.len);
        let word = &mut self.bits[v / 64];
        let bit = 1u64 << (v % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Number of member nodes.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no node is a member.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterator over member nodes in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bits.iter().enumerate().flat_map(move |(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(i * 64 + b)
                }
            })
        })
    }

    /// Degree of `v` inside the induced subgraph `tree[mask]`.
    pub fn induced_degree(&self, tree: &Tree, v: NodeId) -> usize {
        tree.neighbors(v)
            .iter()
            .filter(|&&w| self.contains(w as usize))
            .count()
    }
}

/// Connected components of the subgraph of `tree` induced by `mask`.
///
/// Returns one `Vec<NodeId>` per component; within a component nodes appear
/// in BFS order from the smallest-id member.
pub fn induced_components(tree: &Tree, mask: &NodeMask) -> Vec<Vec<NodeId>> {
    let mut seen = NodeMask::empty(tree.node_count());
    let mut components = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for start in mask.iter() {
        if seen.contains(start) {
            continue;
        }
        let mut comp = Vec::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            comp.push(u);
            for &w in tree.neighbors(u) {
                let w = w as usize;
                if mask.contains(w) && !seen.contains(w) {
                    seen.insert(w);
                    queue.push_back(w);
                }
            }
        }
        components.push(comp);
    }
    components
}

/// One component of an induced subgraph, as a standalone tree.
#[derive(Debug, Clone)]
pub struct Component {
    /// The component as a tree; node `i` of it is node `nodes[i]` of the
    /// ambient tree, with ports in the same relative order (ports that
    /// leave the mask are dropped).
    pub tree: Tree,
    /// Ambient node ids, indexed by component-local node id.
    pub nodes: Vec<NodeId>,
}

/// The components of `tree[mask]` as standalone trees, in
/// [`induced_components`] order (by smallest member, nodes in BFS order
/// from it). The iterator builds each tree only when it is reached.
pub fn extract_components<'a>(
    tree: &'a Tree,
    mask: &'a NodeMask,
) -> impl Iterator<Item = Component> + 'a {
    let mut local = vec![0u32; tree.node_count()];
    induced_components(tree, mask)
        .into_iter()
        .map(move |nodes| {
            for (i, &v) in nodes.iter().enumerate() {
                local[v] = i as u32;
            }
            let mut offsets = Vec::with_capacity(nodes.len() + 1);
            offsets.push(0u32);
            let mut adjacency = Vec::with_capacity(2 * (nodes.len() - 1));
            for &v in &nodes {
                let ports = tree.neighbors(v).iter().map(|&w| w as usize);
                adjacency.extend(ports.filter(|&w| mask.contains(w)).map(|w| local[w]));
                offsets.push(adjacency.len() as u32);
            }
            let tree =
                Tree::from_csr(offsets, adjacency).expect("induced component of a tree is a tree");
            Component { tree, nodes }
        })
}

/// Extracts the components of `tree[mask]` and orders each as a path.
///
/// # Panics
///
/// Panics if some component of the induced subgraph is not a path (i.e. has
/// a node of induced degree `> 2`). The callers in this workspace only use
/// it on level-`i` sets, which Definition 8 of the paper guarantees to be
/// disjoint unions of paths, and on degree-2 chains.
pub fn induced_paths(tree: &Tree, mask: &NodeMask) -> Vec<Vec<NodeId>> {
    induced_components(tree, mask)
        .into_iter()
        .map(|comp| order_component_as_path(tree, mask, comp))
        .collect()
}

fn order_component_as_path(tree: &Tree, mask: &NodeMask, comp: Vec<NodeId>) -> Vec<NodeId> {
    if comp.len() == 1 {
        return comp;
    }
    let mut endpoint: Option<NodeId> = None;
    for &v in &comp {
        let deg = mask.induced_degree(tree, v);
        assert!(
            deg <= 2,
            "induced component is not a path: node {v} has induced degree {deg}"
        );
        if deg == 1 {
            // Deterministic orientation: start from the smallest-id endpoint.
            endpoint = Some(endpoint.map_or(v, |e| e.min(v)));
        }
    }
    let start = endpoint.expect("a finite path component has an endpoint");
    let mut nodes = Vec::with_capacity(comp.len());
    let mut prev = usize::MAX;
    let mut cur = start;
    loop {
        nodes.push(cur);
        let next = tree
            .neighbors(cur)
            .iter()
            .map(|&w| w as usize)
            .find(|&w| w != prev && mask.contains(w));
        match next {
            Some(w) => {
                prev = cur;
                cur = w;
            }
            None => break,
        }
    }
    assert_eq!(
        nodes.len(),
        comp.len(),
        "path walk must cover the component"
    );
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::path;

    #[test]
    fn mask_basics() {
        let mut m = NodeMask::empty(130);
        assert!(m.is_empty());
        assert!(m.insert(0));
        assert!(m.insert(64));
        assert!(m.insert(129));
        assert!(!m.insert(129));
        assert_eq!(m.count(), 3);
        assert!(m.contains(64));
        assert!(!m.contains(63));
        assert!(m.remove(64));
        assert!(!m.remove(64));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn full_mask_has_exact_count() {
        for n in [1, 63, 64, 65, 200] {
            let m = NodeMask::full(n);
            assert_eq!(m.count(), n, "n = {n}");
            assert_eq!(m.iter().count(), n);
        }
    }

    #[test]
    fn from_nodes_collects() {
        let m = NodeMask::from_nodes(10, [2, 4, 4, 9]);
        assert_eq!(m.count(), 3);
        assert!(m.contains(9));
    }

    #[test]
    #[should_panic(expected = "outside mask universe")]
    fn contains_out_of_range_panics() {
        NodeMask::empty(4).contains(4);
    }

    #[test]
    fn induced_degree_respects_mask() {
        let t = path(5);
        let mut m = NodeMask::full(5);
        m.remove(2);
        assert_eq!(m.induced_degree(&t, 1), 1);
        assert_eq!(m.induced_degree(&t, 3), 1);
        assert_eq!(m.induced_degree(&t, 0), 1);
    }

    #[test]
    fn components_split_by_mask() {
        let t = path(7);
        let mut m = NodeMask::full(7);
        m.remove(3);
        let comps = induced_components(&t, &m);
        assert_eq!(comps.len(), 2);
        let mut sizes: Vec<_> = comps.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 3]);
    }

    #[test]
    fn induced_paths_are_ordered() {
        let t = path(6);
        let mut m = NodeMask::full(6);
        m.remove(2);
        assert_eq!(induced_paths(&t, &m), vec![vec![0, 1], vec![3, 4, 5]]);
    }

    #[test]
    fn singleton_path_component() {
        let t = path(3);
        let m = NodeMask::from_nodes(3, [1]);
        assert_eq!(induced_paths(&t, &m), vec![vec![1]]);
    }

    #[test]
    #[should_panic(expected = "not a path")]
    fn non_path_component_panics() {
        let t = crate::generators::star(4);
        let m = NodeMask::full(4);
        let _ = induced_paths(&t, &m);
    }

    #[test]
    fn extract_components_preserves_ports_and_splits() {
        let t = path(10);
        // Members {0,1,2} ∪ {5,6}: two components.
        let mask = NodeMask::from_nodes(10, [6, 0, 1, 2, 5]);
        let comps: Vec<Component> = extract_components(&t, &mask).collect();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].nodes, vec![0, 1, 2]);
        assert_eq!(comps[0].tree.node_count(), 3);
        assert_eq!(comps[1].nodes, vec![5, 6]);
        // Port order: node 1's ports in the path are [0, 2].
        assert_eq!(comps[0].tree.neighbors(1), &[0, 2]);
        // Singleton component.
        let single = NodeMask::from_nodes(10, [4]);
        let comps: Vec<Component> = extract_components(&t, &single).collect();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].tree.node_count(), 1);
    }
}
