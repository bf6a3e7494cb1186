//! The one breadth-first search over a [`Tree`].
//!
//! Every search that grows from given sources runs through [`Bfs`]: the
//! plain distances of [`Tree`], the component diameters of
//! [`crate::decompose`], and the masked, radius-bounded balls of the
//! structural solvers. A solver call allocates one `Bfs` and reuses it for
//! all of its searches. Each search first forgets the nodes the previous
//! one visited, so it costs O(ball), not O(n).

use crate::mask::NodeMask;
use crate::tree::{NodeId, Tree};

/// Reusable breadth-first search state over a tree of `n` nodes: dense
/// per-node distances and parents, plus the visit order, which doubles as
/// the queue.
///
/// # Examples
///
/// ```
/// use lcl_graph::generators::path;
/// use lcl_graph::Bfs;
///
/// let p = path(6);
/// let mut bfs = Bfs::new(p.node_count());
/// assert_eq!(bfs.run(&p, &[1], None, 2), &[1, 0, 2, 3]);
/// assert_eq!(bfs.dist(3), 2);
/// assert_eq!(bfs.dist(4), u32::MAX);
/// assert_eq!(bfs.walk(3).collect::<Vec<_>>(), vec![3, 2, 1]);
/// ```
#[derive(Debug)]
pub struct Bfs {
    /// Distance from the nearest source; `u32::MAX` off the last search.
    dist: Vec<u32>,
    /// The node each visited node was reached from; a source's is itself.
    /// Stale off the last search.
    parent: Vec<u32>,
    /// The last search's nodes in visit order.
    order: Vec<NodeId>,
}

impl Bfs {
    /// The radius of a search that stops only when it runs out of nodes.
    pub const UNBOUNDED: u32 = u32::MAX;

    /// Search state for trees of `n` nodes; no node is visited yet.
    pub fn new(n: usize) -> Self {
        Bfs {
            dist: vec![u32::MAX; n],
            parent: vec![0; n],
            order: Vec::with_capacity(n),
        }
    }

    /// Searches `tree` from `sources` and returns the visit order.
    ///
    /// Visits are FIFO, and each node's neighbours are taken in CSR port
    /// order. The sources come first, duplicates counted once, and are
    /// members whether or not `mask` holds them; any other node joins only
    /// if `mask` (when given) holds it. Nodes at distance `radius` are
    /// visited but not expanded ([`Bfs::UNBOUNDED`] for no limit).
    ///
    /// # Panics
    ///
    /// Panics if a source or a node of `tree` lies outside the `n` nodes
    /// this state was made for, or outside `mask`'s universe.
    pub fn run(
        &mut self,
        tree: &Tree,
        sources: &[NodeId],
        mask: Option<&NodeMask>,
        radius: u32,
    ) -> &[NodeId] {
        for &v in &self.order {
            self.dist[v] = u32::MAX;
        }
        self.order.clear();
        for &s in sources {
            if self.dist[s] == u32::MAX {
                self.dist[s] = 0;
                self.parent[s] = s as u32;
                self.order.push(s);
            }
        }
        let mut head = 0;
        while let Some(&u) = self.order.get(head) {
            head += 1;
            let du = self.dist[u];
            if du == radius {
                // FIFO order: every node still queued is at the radius too.
                break;
            }
            for &w in tree.neighbors(u) {
                let w = w as usize;
                if self.dist[w] == u32::MAX && mask.is_none_or(|m| m.contains(w)) {
                    self.dist[w] = du + 1;
                    self.parent[w] = u as u32;
                    self.order.push(w);
                }
            }
        }
        &self.order
    }

    /// The last search's nodes in visit order: the sources, then the rest
    /// by nondecreasing distance.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Distance of `v` from the nearest source in the last search, or
    /// `u32::MAX` if it did not reach `v`.
    #[inline]
    pub fn dist(&self, v: NodeId) -> u32 {
        self.dist[v]
    }

    /// The node from which the last search reached `v`: `None` for a
    /// source or a node it did not reach.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v] as usize;
        (self.dist[v] != u32::MAX && p != v).then_some(p)
    }

    /// The walk from `v` back to the source that reached it: `v`, its
    /// parent, and so on, ending at the source. Its length is
    /// `dist(v) + 1` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the last search did not reach `v`.
    pub fn walk(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        assert!(self.dist[v] != u32::MAX, "node {v} was not reached");
        std::iter::successors(Some(v), move |&u| self.parent(u))
    }

    /// The last search's distances for every node (`u32::MAX` where it did
    /// not reach).
    pub fn into_distances(self) -> Vec<u32> {
        self.dist
    }
}
