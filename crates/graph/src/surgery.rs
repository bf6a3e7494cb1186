//! Tree surgery for dynamic (churn) workloads: seeded batches of leaf
//! insertions, subtree deletions, and edge re-hangs that keep the instance a
//! valid tree. A dirty region is re-solved on its components, which
//! [`extract_components`](crate::mask::extract_components) builds with the
//! same port order.
//!
//! The invariant that makes incremental re-solving sound is **port-order
//! stability**: a node untouched by a batch must present exactly the same
//! neighbor list, in the same order, before and after surgery, because the
//! engine's gather-based message delivery identifies inbox slots with ports.
//! [`Surgeon`] therefore edits per-node neighbor lists in place (appending
//! new neighbors at the end, splicing removals without reordering) and
//! finalizes through [`Tree::from_csr`], never through an edge-list rebuild.

use crate::error::TreeError;
use crate::tree::{NodeId, Tree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::collections::VecDeque;

/// One churn operation, phrased against the *working state* of a batch:
/// node indices refer to the tree as it stands after the preceding ops of
/// the same batch (inserted nodes get fresh indices past the original `n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeOp {
    /// Attach a fresh leaf under `parent`.
    InsertLeaf {
        /// The node gaining the new leaf.
        parent: NodeId,
    },
    /// Delete the entire subtree hanging from `root` on the far side of the
    /// edge `{anchor, root}`; `anchor` and everything on its side survive.
    DeleteSubtree {
        /// The surviving endpoint of the cut edge.
        anchor: NodeId,
        /// The subtree root to delete (together with its side).
        root: NodeId,
    },
    /// Cut the edge `{anchor, root}` and re-attach the subtree hanging from
    /// `root` under `new_parent`, which must lie on `anchor`'s side.
    Rehang {
        /// The endpoint of the cut edge that keeps its component.
        anchor: NodeId,
        /// The root of the moved subtree.
        root: NodeId,
        /// The new attachment point (on `anchor`'s side of the cut).
        new_parent: NodeId,
    },
}

/// The result of applying one batch of [`TreeOp`]s: the compacted new tree
/// plus the index maps and touch-set a dynamic session needs to carry
/// per-node state (persistent ids, preserved labels) across the batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// The post-batch tree (port order of untouched nodes preserved).
    pub tree: Tree,
    /// For every *working* index (original nodes then insertions, in
    /// insertion order): its index in `tree`, or `None` if deleted.
    pub old_to_new: Vec<Option<u32>>,
    /// For every node of `tree`: its working index. Entries `>= base_n`
    /// (the pre-batch node count) are nodes inserted by this batch.
    pub new_to_old: Vec<usize>,
    /// Surviving nodes (new indices, sorted) whose incident edge set was
    /// changed by the batch — the seeds of the dirty region.
    pub touched: Vec<NodeId>,
    /// The pre-batch node count (working indices below this are original).
    pub base_n: usize,
    /// The ops that were applied, in order.
    pub ops: Vec<TreeOp>,
}

/// Applies a batch of [`TreeOp`]s sequentially, maintaining per-node
/// neighbor lists so that untouched nodes keep their ports verbatim.
#[derive(Debug, Clone)]
pub struct Surgeon {
    adj: Vec<Vec<u32>>,
    alive: Vec<bool>,
    alive_count: usize,
    base_n: usize,
    touched: BTreeSet<usize>,
    ops: Vec<TreeOp>,
}

impl Surgeon {
    /// Starts a batch against `tree`.
    #[must_use]
    pub fn new(tree: &Tree) -> Self {
        let n = tree.node_count();
        Surgeon {
            adj: tree.nodes().map(|v| tree.neighbors(v).to_vec()).collect(),
            alive: vec![true; n],
            alive_count: n,
            base_n: n,
            touched: BTreeSet::new(),
            ops: Vec::new(),
        }
    }

    /// Surviving node count of the working state.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.alive_count
    }

    /// Whether working index `v` is currently a live node.
    #[must_use]
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.alive.get(v).copied().unwrap_or(false)
    }

    /// Size of the working index space: original nodes plus everything
    /// inserted so far, including since-deleted entries.
    #[must_use]
    pub fn working_len(&self) -> usize {
        self.adj.len()
    }

    /// The side of the cut edge `{anchor, root}` rooted at `root`, or
    /// `None` when the edge is invalid or the side exceeds `cap` nodes.
    /// Exposed so op generators can keep moved subtrees small.
    #[must_use]
    pub fn capped_side(&self, root: NodeId, anchor: NodeId, cap: usize) -> Option<Vec<NodeId>> {
        if !self.is_alive(root) || !self.is_alive(anchor) || !self.has_edge(anchor, root) {
            return None;
        }
        self.side(root, anchor, cap)
    }

    /// Degree of live working node `v` (0 for dead/out-of-range nodes).
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        if self.is_alive(v) {
            self.adj[v].len()
        } else {
            0
        }
    }

    /// Neighbors (working indices) of live node `v`, in port order.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        if self.is_alive(v) {
            &self.adj[v]
        } else {
            &[]
        }
    }

    fn ensure_alive(&self, v: NodeId) -> Result<(), TreeError> {
        if v >= self.adj.len() {
            return Err(TreeError::NodeOutOfRange {
                node: v,
                n: self.adj.len(),
            });
        }
        if !self.alive[v] {
            return Err(TreeError::DegenerateParameters(format!(
                "node {v} was deleted earlier in this batch"
            )));
        }
        Ok(())
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u].iter().any(|&w| w as usize == v)
    }

    /// The side of the cut edge `{avoid, root}` rooted at `root`, as working
    /// indices in BFS order; `None` if it exceeds `cap` nodes.
    fn side(&self, root: NodeId, avoid: NodeId, cap: usize) -> Option<Vec<usize>> {
        let mut out = vec![root];
        let mut seen: BTreeSet<usize> = [root, avoid].into_iter().collect();
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &w in &self.adj[u] {
                let w = w as usize;
                if seen.insert(w) {
                    if out.len() >= cap {
                        return None;
                    }
                    out.push(w);
                    queue.push_back(w);
                }
            }
        }
        Some(out)
    }

    /// Applies one op.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] when the op references dead or out-of-range
    /// nodes, a cut edge that does not exist, a re-hang that would create a
    /// cycle or a duplicate edge, or a deletion that would empty the tree.
    pub fn apply(&mut self, op: TreeOp) -> Result<(), TreeError> {
        match op {
            TreeOp::InsertLeaf { parent } => {
                self.insert_leaf(parent)?;
            }
            TreeOp::DeleteSubtree { anchor, root } => {
                self.delete_subtree(anchor, root)?;
            }
            TreeOp::Rehang {
                anchor,
                root,
                new_parent,
            } => self.rehang(anchor, root, new_parent)?,
        }
        Ok(())
    }

    /// Attaches a fresh leaf under `parent` and returns its working index.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] if `parent` is dead or out of range.
    pub fn insert_leaf(&mut self, parent: NodeId) -> Result<NodeId, TreeError> {
        self.ensure_alive(parent)?;
        let leaf = self.adj.len();
        self.adj[parent].push(leaf as u32);
        self.adj.push(vec![parent as u32]);
        self.alive.push(true);
        self.alive_count += 1;
        self.touched.insert(parent);
        self.touched.insert(leaf);
        self.ops.push(TreeOp::InsertLeaf { parent });
        Ok(leaf)
    }

    /// Deletes the subtree on `root`'s side of the edge `{anchor, root}`;
    /// returns the number of deleted nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] if either endpoint is dead/out of range, the
    /// edge does not exist, or the deletion would remove every node.
    pub fn delete_subtree(&mut self, anchor: NodeId, root: NodeId) -> Result<usize, TreeError> {
        self.ensure_alive(anchor)?;
        self.ensure_alive(root)?;
        if !self.has_edge(anchor, root) {
            return Err(TreeError::InvalidEdge { u: anchor, v: root });
        }
        let side = self
            .side(root, anchor, usize::MAX)
            .expect("uncapped side search always completes");
        for &v in &side {
            self.alive[v] = false;
            self.touched.remove(&v);
        }
        self.alive_count -= side.len();
        self.adj[anchor].retain(|&w| w as usize != root);
        self.touched.insert(anchor);
        self.ops.push(TreeOp::DeleteSubtree { anchor, root });
        Ok(side.len())
    }

    /// Cuts `{anchor, root}` and re-attaches `root`'s subtree under
    /// `new_parent`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] if any node is dead/out of range, the cut edge
    /// does not exist, or `new_parent` lies on `root`'s side of the cut
    /// (which would create a cycle) or equals `anchor` (a no-op duplicate).
    pub fn rehang(
        &mut self,
        anchor: NodeId,
        root: NodeId,
        new_parent: NodeId,
    ) -> Result<(), TreeError> {
        self.ensure_alive(anchor)?;
        self.ensure_alive(root)?;
        self.ensure_alive(new_parent)?;
        if !self.has_edge(anchor, root) {
            return Err(TreeError::InvalidEdge { u: anchor, v: root });
        }
        if new_parent == anchor {
            return Err(TreeError::DegenerateParameters(format!(
                "re-hanging {root} back onto {anchor} is a no-op"
            )));
        }
        let side = self
            .side(root, anchor, usize::MAX)
            .expect("uncapped side search always completes");
        if side.contains(&new_parent) {
            return Err(TreeError::DegenerateParameters(format!(
                "new parent {new_parent} lies in the moved subtree of {root}"
            )));
        }
        self.adj[anchor].retain(|&w| w as usize != root);
        for w in &mut self.adj[root] {
            if *w as usize == anchor {
                *w = new_parent as u32;
            }
        }
        self.adj[new_parent].push(root as u32);
        self.touched.insert(anchor);
        self.touched.insert(root);
        self.touched.insert(new_parent);
        self.ops.push(TreeOp::Rehang {
            anchor,
            root,
            new_parent,
        });
        Ok(())
    }

    /// Compacts the working state into a fresh [`Tree`] plus index maps.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] if the surviving state is empty or (in case of
    /// an internal inconsistency) fails [`Tree::from_csr`] validation.
    pub fn finish(self) -> Result<BatchResult, TreeError> {
        if self.alive_count == 0 {
            return Err(TreeError::DegenerateParameters(
                "batch deleted every node".into(),
            ));
        }
        let mut old_to_new = vec![None; self.adj.len()];
        let mut new_to_old = Vec::with_capacity(self.alive_count);
        for (i, &alive) in self.alive.iter().enumerate() {
            if alive {
                old_to_new[i] = Some(new_to_old.len() as u32);
                new_to_old.push(i);
            }
        }
        let mut offsets = Vec::with_capacity(self.alive_count + 1);
        offsets.push(0u32);
        let mut adjacency = Vec::new();
        for &i in &new_to_old {
            for &w in &self.adj[i] {
                adjacency.push(old_to_new[w as usize].expect("live neighbor of a live node"));
            }
            offsets.push(adjacency.len() as u32);
        }
        let tree = Tree::from_csr(offsets, adjacency)?;
        let touched = self
            .touched
            .iter()
            .map(|&i| old_to_new[i].expect("touched nodes are pruned on delete") as NodeId)
            .collect();
        Ok(BatchResult {
            tree,
            old_to_new,
            new_to_old,
            touched,
            base_n: self.base_n,
            ops: self.ops,
        })
    }
}

/// Relative weights for the three op kinds when generating a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpWeights {
    /// Weight of [`TreeOp::InsertLeaf`].
    pub insert: u32,
    /// Weight of [`TreeOp::DeleteSubtree`].
    pub delete: u32,
    /// Weight of [`TreeOp::Rehang`].
    pub rehang: u32,
}

/// How generated ops keep the instance inside its shape family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeDiscipline {
    /// The tree is a path and must stay one: leaves are inserted at the
    /// endpoints, deletions cut short end segments, and re-hangs flip an
    /// end segment onto the opposite endpoint. Every op is O(1)-ish, so
    /// million-node paths can be churned cheaply.
    PathPreserving,
    /// Any tree of maximum degree `max_degree`; subtree deletions and
    /// re-hangs move small (≤ 16 node) subtrees found by capped search.
    FreeTree {
        /// Degree bound every op must respect.
        max_degree: usize,
    },
}

/// How many nodes a moved/deleted subtree may have in `FreeTree` mode.
const SMALL_SIDE: usize = 16;

/// Generates and applies one seeded churn batch against `tree`.
///
/// Ops are drawn by `weights`, validated against the working state, and kept
/// inside the `discipline` shape family; the live node count never drops
/// below `min_nodes` (deletions degrade to insertions near the floor).
///
/// # Errors
///
/// Returns [`TreeError`] if `tree` is too small for the discipline
/// (`min_nodes < 2` or fewer than `min_nodes` nodes) or all weights are 0.
pub fn churn_batch(
    tree: &Tree,
    discipline: ShapeDiscipline,
    weights: OpWeights,
    ops: usize,
    min_nodes: usize,
    seed: u64,
) -> Result<BatchResult, TreeError> {
    let total = weights.insert + weights.delete + weights.rehang;
    if total == 0 {
        return Err(TreeError::DegenerateParameters(
            "op weights must not all be zero".into(),
        ));
    }
    if min_nodes < 2 || tree.node_count() < min_nodes {
        return Err(TreeError::DegenerateParameters(format!(
            "churn needs min_nodes >= 2 and a tree of at least that size, got n={} min={min_nodes}",
            tree.node_count()
        )));
    }
    if let ShapeDiscipline::FreeTree { max_degree } = discipline {
        if max_degree < 2 || tree.max_degree() > max_degree {
            return Err(TreeError::DegenerateParameters(format!(
                "tree violates the declared degree bound {max_degree}"
            )));
        }
    }
    if discipline == ShapeDiscipline::PathPreserving && tree.max_degree() > 2 {
        return Err(TreeError::DegenerateParameters(
            "PathPreserving churn requires a path instance".into(),
        ));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut surgeon = Surgeon::new(tree);
    // Path endpoints (working indices), maintained incrementally.
    let mut endpoints = match discipline {
        ShapeDiscipline::PathPreserving => {
            let ends: Vec<NodeId> = tree.nodes().filter(|&v| tree.degree(v) <= 1).collect();
            match ends.as_slice() {
                [a, b] => [*a, *b],
                [a] => [*a, *a],
                _ => {
                    return Err(TreeError::DegenerateParameters(
                        "PathPreserving churn requires a path instance".into(),
                    ))
                }
            }
        }
        ShapeDiscipline::FreeTree { .. } => [0, 0],
    };
    for _ in 0..ops {
        let mut pick = rng.gen_range(0..total);
        let kind = if pick < weights.insert {
            0
        } else {
            pick -= weights.insert;
            if pick < weights.delete {
                1
            } else {
                2
            }
        };
        match discipline {
            ShapeDiscipline::PathPreserving => {
                path_op(&mut surgeon, &mut rng, kind, &mut endpoints, min_nodes)?;
            }
            ShapeDiscipline::FreeTree { max_degree } => {
                free_op(&mut surgeon, &mut rng, kind, max_degree, min_nodes)?;
            }
        }
    }
    surgeon.finish()
}

/// Walks `steps` nodes inward from path endpoint `e`; returns the visited
/// prefix `[e, p1, ..]` (length `steps + 1`), or `None` if the path is too
/// short or the walk would swallow the opposite endpoint `other`.
fn walk_inward(surgeon: &Surgeon, e: NodeId, other: NodeId, steps: usize) -> Option<Vec<NodeId>> {
    let mut walk = vec![e];
    let mut prev = usize::MAX;
    let mut cur = e;
    for _ in 0..steps {
        let next = surgeon
            .neighbors(cur)
            .iter()
            .map(|&w| w as usize)
            .find(|&w| w != prev)?;
        if next == other {
            return None;
        }
        walk.push(next);
        prev = cur;
        cur = next;
    }
    Some(walk)
}

fn path_op(
    surgeon: &mut Surgeon,
    rng: &mut SmallRng,
    kind: usize,
    endpoints: &mut [NodeId; 2],
    min_nodes: usize,
) -> Result<(), TreeError> {
    let idx = rng.gen_range(0..2usize);
    let (e, other) = (endpoints[idx], endpoints[1 - idx]);
    match kind {
        1 if surgeon.node_count() > min_nodes.max(8) => {
            // Delete a short end segment (capped so we stay above the floor).
            let cap = (surgeon.node_count() - min_nodes.max(8)).min(4);
            let steps = 1 + rng.gen_range(0..cap);
            match walk_inward(surgeon, e, other, steps) {
                Some(walk) => {
                    let anchor = walk[steps];
                    surgeon.delete_subtree(anchor, walk[steps - 1])?;
                    endpoints[idx] = anchor;
                }
                None => {
                    endpoints[idx] = surgeon.insert_leaf(e)?;
                }
            }
        }
        2 if surgeon.node_count() >= min_nodes.max(8) => {
            // Flip a short end segment onto the opposite endpoint.
            let steps = 2 + rng.gen_range(0..4usize);
            match walk_inward(surgeon, e, other, steps) {
                Some(walk) => {
                    let anchor = walk[steps];
                    surgeon.rehang(anchor, walk[steps - 1], other)?;
                    endpoints[1 - idx] = anchor;
                }
                None => {
                    endpoints[idx] = surgeon.insert_leaf(e)?;
                }
            }
        }
        _ => {
            endpoints[idx] = surgeon.insert_leaf(e)?;
        }
    }
    Ok(())
}

/// Rejection-samples a live working index; the live fraction within a batch
/// stays high (deletions are small), so a bounded retry loop suffices.
fn sample_live(surgeon: &Surgeon, rng: &mut SmallRng) -> Option<NodeId> {
    for _ in 0..64 {
        let v = rng.gen_range(0..surgeon.working_len());
        if surgeon.is_alive(v) {
            return Some(v);
        }
    }
    None
}

fn free_op(
    surgeon: &mut Surgeon,
    rng: &mut SmallRng,
    kind: usize,
    max_degree: usize,
    min_nodes: usize,
) -> Result<(), TreeError> {
    match kind {
        1 if surgeon.node_count() > min_nodes + SMALL_SIDE => {
            for _ in 0..8 {
                let Some(v) = sample_live(surgeon, rng) else {
                    break;
                };
                if surgeon.degree(v) == 0 {
                    continue;
                }
                let ports = surgeon.neighbors(v);
                let anchor = ports[rng.gen_range(0..ports.len())] as usize;
                if let Some(side) = surgeon.capped_side(v, anchor, SMALL_SIDE) {
                    if surgeon.node_count() - side.len() >= min_nodes {
                        surgeon.delete_subtree(anchor, v)?;
                        return Ok(());
                    }
                }
            }
            insert_free(surgeon, rng, max_degree)
        }
        2 if surgeon.node_count() > min_nodes + SMALL_SIDE => {
            for _ in 0..8 {
                let Some(v) = sample_live(surgeon, rng) else {
                    break;
                };
                if surgeon.degree(v) == 0 {
                    continue;
                }
                let ports = surgeon.neighbors(v);
                let anchor = ports[rng.gen_range(0..ports.len())] as usize;
                let Some(side) = surgeon.capped_side(v, anchor, SMALL_SIDE) else {
                    continue;
                };
                for _ in 0..8 {
                    let Some(p) = sample_live(surgeon, rng) else {
                        break;
                    };
                    if p != anchor && !side.contains(&p) && surgeon.degree(p) < max_degree {
                        surgeon.rehang(anchor, v, p)?;
                        return Ok(());
                    }
                }
            }
            insert_free(surgeon, rng, max_degree)
        }
        _ => insert_free(surgeon, rng, max_degree),
    }
}

fn insert_free(
    surgeon: &mut Surgeon,
    rng: &mut SmallRng,
    max_degree: usize,
) -> Result<(), TreeError> {
    for _ in 0..64 {
        let v = rng.gen_range(0..surgeon.working_len());
        if surgeon.is_alive(v) && surgeon.degree(v) < max_degree {
            surgeon.insert_leaf(v)?;
            return Ok(());
        }
    }
    // Degenerate saturation: fall back to a linear scan.
    let v =
        (0..surgeon.working_len()).find(|&v| surgeon.is_alive(v) && surgeon.degree(v) < max_degree);
    match v {
        Some(v) => {
            surgeon.insert_leaf(v)?;
            Ok(())
        }
        None => Err(TreeError::DegenerateParameters(
            "no node has spare degree for an insertion".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{caterpillar, path, random_bounded_degree_tree};

    #[test]
    fn insert_delete_rehang_roundtrip() {
        // 0 - 1 - 2 - 3
        let mut s = Surgeon::new(&path(4));
        let leaf = s.insert_leaf(3).unwrap();
        assert_eq!(leaf, 4);
        assert_eq!(s.node_count(), 5);
        s.delete_subtree(1, 0).unwrap();
        assert_eq!(s.node_count(), 4);
        s.rehang(1, 2, 1).unwrap_err(); // no-op duplicate
        let r = s.finish().unwrap();
        assert_eq!(r.tree.node_count(), 4);
        assert_eq!(r.old_to_new[0], None);
        assert_eq!(r.new_to_old, vec![1, 2, 3, 4]);
        assert_eq!(r.base_n, 4);
        // Touched: insertion parent 3, new leaf 4, deletion anchor 1 —
        // as new indices {0, 2, 3}.
        assert_eq!(r.touched, vec![0, 2, 3]);
    }

    #[test]
    fn untouched_nodes_keep_their_ports() {
        let t = caterpillar(6, 3);
        let mut s = Surgeon::new(&t);
        let leaf = t.leaves()[0];
        let anchor = t.neighbors(leaf)[0] as usize;
        s.delete_subtree(anchor, leaf).unwrap();
        s.insert_leaf(anchor).unwrap();
        let r = s.finish().unwrap();
        for v in t.nodes() {
            if v == leaf || v == anchor {
                continue;
            }
            let new_v = r.old_to_new[v].unwrap() as usize;
            let old_ports: Vec<usize> = t.neighbors(v).iter().map(|&w| w as usize).collect();
            let new_ports: Vec<usize> = r
                .tree
                .neighbors(new_v)
                .iter()
                .map(|&w| r.new_to_old[w as usize])
                .collect();
            assert_eq!(old_ports, new_ports, "ports of node {v} moved");
        }
    }

    #[test]
    fn rehang_rejects_cycles() {
        let mut s = Surgeon::new(&path(6));
        // Moving the subtree rooted at 3 (side {3,4,5}) under 4 would cycle.
        assert!(s.rehang(2, 3, 4).is_err());
        // Under 0 is fine.
        s.rehang(2, 3, 0).unwrap();
        let r = s.finish().unwrap();
        assert_eq!(r.tree.node_count(), 6);
        assert_eq!(r.tree.max_degree(), 2); // still a path
    }

    #[test]
    fn ops_against_dead_nodes_fail() {
        let mut s = Surgeon::new(&path(5));
        s.delete_subtree(2, 3).unwrap(); // kills 3, 4
        assert!(s.insert_leaf(4).is_err());
        assert!(s.delete_subtree(2, 3).is_err());
        assert!(s.rehang(1, 2, 4).is_err());
        assert!(s.delete_subtree(1, 0).is_ok());
        // Deleting the last edge's far side leaves 2 nodes, fine; deleting
        // everything is impossible because an anchor always survives.
        let r = s.finish().unwrap();
        assert_eq!(r.tree.node_count(), 2);
    }

    #[test]
    fn churn_batch_is_deterministic_and_keeps_discipline() {
        let t = path(200);
        let w = OpWeights {
            insert: 3,
            delete: 2,
            rehang: 1,
        };
        let a = churn_batch(&t, ShapeDiscipline::PathPreserving, w, 40, 16, 9).unwrap();
        let b = churn_batch(&t, ShapeDiscipline::PathPreserving, w, 40, 16, 9).unwrap();
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.ops, b.ops);
        assert!(a.tree.max_degree() <= 2, "path discipline violated");
        assert!(a.tree.node_count() >= 16);

        let t = random_bounded_degree_tree(300, 4, 5);
        let a = churn_batch(
            &t,
            ShapeDiscipline::FreeTree { max_degree: 4 },
            w,
            60,
            32,
            11,
        )
        .unwrap();
        assert!(a.tree.max_degree() <= 4, "degree bound violated");
        assert!(a.tree.node_count() >= 32);
        assert_eq!(a.ops.len(), 60);
    }
}
