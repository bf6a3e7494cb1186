//! Ball-view execution engine.
//!
//! A deterministic LOCAL algorithm with running time `T(v)` is equivalent to
//! a function mapping the radius-`T(v)` view of `v` to an output. This
//! engine runs algorithms stated in that form: for each node it grows the
//! ball radius by one per round and asks the algorithm to decide. The
//! termination round of a node is the first radius at which it decides.
//!
//! The engine is slower than structural implementations (it materializes
//! balls), so the workspace uses it as the *reference semantics* against
//! which the fast algorithm implementations are cross-validated on small
//! instances.

use crate::identifiers::Ids;
use crate::metrics::RoundStats;
use lcl_graph::{NodeId, Tree};
use std::collections::VecDeque;

/// The radius-`r` view of a node: all nodes within distance `r`, their IDs,
/// and (for nodes strictly inside the ball) their full adjacency.
#[derive(Debug)]
pub struct BallView<'a> {
    tree: &'a Tree,
    ids: &'a Ids,
    center: NodeId,
    radius: u32,
    /// Distance from the center for every ball member.
    dist: std::collections::HashMap<NodeId, u32>,
    members: Vec<NodeId>,
}

impl<'a> BallView<'a> {
    /// Materializes the radius-`radius` ball around `center`.
    #[must_use]
    pub fn collect(tree: &'a Tree, ids: &'a Ids, center: NodeId, radius: u32) -> Self {
        let mut dist = std::collections::HashMap::new();
        let mut members = Vec::new();
        let mut queue = VecDeque::new();
        dist.insert(center, 0);
        members.push(center);
        queue.push_back(center);
        while let Some(u) = queue.pop_front() {
            let du = dist[&u];
            if du == radius {
                continue;
            }
            for &w in tree.neighbors(u) {
                let w = w as usize;
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                    e.insert(du + 1);
                    members.push(w);
                    queue.push_back(w);
                }
            }
        }
        BallView {
            tree,
            ids,
            center,
            radius,
            dist,
            members,
        }
    }

    /// The center node.
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The view radius.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Nodes in the ball, in BFS order from the center.
    pub fn nodes(&self) -> &[NodeId] {
        &self.members
    }

    /// Whether `v` lies in the ball.
    pub fn contains(&self, v: NodeId) -> bool {
        self.dist.contains_key(&v)
    }

    /// Distance from the center, if `v` is in the ball.
    pub fn dist(&self, v: NodeId) -> Option<u32> {
        self.dist.get(&v).copied()
    }

    /// The ID of a ball member.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the ball — reading it would break locality.
    pub fn id(&self, v: NodeId) -> u64 {
        assert!(self.contains(v), "node {v} is outside the view");
        self.ids.id(v)
    }

    /// Whether the full adjacency of `v` is visible (true for nodes at
    /// distance `< radius`; frontier nodes may have unseen edges).
    pub fn knows_neighbors(&self, v: NodeId) -> bool {
        self.dist(v).is_some_and(|d| d < self.radius)
    }

    /// The degree of a ball member. Under the standard LOCAL convention
    /// the radius-`r` view includes the *half-edges* of frontier nodes, so
    /// degrees are visible even where adjacency is not
    /// (cf. [`Self::knows_neighbors`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the ball.
    pub fn degree(&self, v: NodeId) -> usize {
        assert!(self.contains(v), "node {v} is outside the view");
        self.tree.degree(v)
    }

    /// Neighbors of an interior ball member.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::knows_neighbors`] is false for `v`.
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        assert!(
            self.knows_neighbors(v),
            "adjacency of frontier node {v} is not visible at radius {}",
            self.radius
        );
        self.tree.neighbors(v)
    }

    /// True when the center has seen its entire connected component (in a
    /// tree: the whole tree).
    ///
    /// Uses the standard LOCAL convention that the radius-`r` view includes
    /// the *degrees* (half-edges) of frontier nodes: the ball is complete
    /// exactly when every node at distance `radius` is a leaf, since in a
    /// tree each of its non-parent edges would leave the ball.
    pub fn sees_whole_graph(&self) -> bool {
        self.members.iter().all(|&v| {
            self.dist[&v] < self.radius || self.tree.degree(v) == usize::from(self.dist[&v] > 0)
        })
    }
}

/// A deterministic view-based algorithm: inspect a growing ball, decide when
/// ready.
pub trait ViewAlgorithm {
    /// Output label type.
    type Output;

    /// Inspects the radius-`view.radius()` ball; `Some` terminates the node
    /// at round `view.radius()`.
    fn decide(&mut self, view: &BallView<'_>) -> Option<Self::Output>;
}

/// Outcome of [`run_views`].
#[derive(Debug, Clone)]
pub struct ViewOutcome<O> {
    /// Output of every node.
    pub outputs: Vec<O>,
    /// Per-node termination rounds (= deciding radius).
    pub stats: RoundStats,
}

/// A view algorithm failed to decide within the allotted radius.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Undecided {
    /// The node that never decided.
    pub node: NodeId,
    /// The radius budget that was exhausted.
    pub max_radius: u32,
}

impl std::fmt::Display for Undecided {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} did not decide within radius {}",
            self.node, self.max_radius
        )
    }
}

impl std::error::Error for Undecided {}

/// Runs a view algorithm on every node, growing each node's radius until it
/// decides.
///
/// `factory` creates the per-node algorithm instance.
///
/// # Errors
///
/// Returns [`Undecided`] if some node does not decide by radius
/// `max_radius`.
pub fn run_views<A, F>(
    tree: &Tree,
    ids: &Ids,
    mut factory: F,
    max_radius: u32,
) -> Result<ViewOutcome<A::Output>, Undecided>
where
    A: ViewAlgorithm,
    F: FnMut(NodeId) -> A,
{
    let n = tree.node_count();
    assert_eq!(ids.len(), n, "ID assignment must cover all nodes");
    let mut outputs = Vec::with_capacity(n);
    let mut rounds = Vec::with_capacity(n);
    for v in tree.nodes() {
        let mut algo = factory(v);
        let mut decided = None;
        for r in 0..=max_radius {
            let view = BallView::collect(tree, ids, v, r);
            if let Some(out) = algo.decide(&view) {
                decided = Some((out, r));
                break;
            }
        }
        let Some((out, r)) = decided else {
            return Err(Undecided {
                node: v,
                max_radius,
            });
        };
        outputs.push(out);
        rounds.push(r as u64);
    }
    Ok(ViewOutcome {
        outputs,
        stats: RoundStats::new(rounds),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::generators::{path, star};

    #[test]
    fn ball_growth_on_path() {
        let tree = path(7);
        let ids = Ids::sequential(7);
        let b0 = BallView::collect(&tree, &ids, 3, 0);
        assert_eq!(b0.nodes(), &[3]);
        let b2 = BallView::collect(&tree, &ids, 3, 2);
        let mut nodes = b2.nodes().to_vec();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![1, 2, 3, 4, 5]);
        assert_eq!(b2.dist(1), Some(2));
        assert_eq!(b2.dist(0), None);
        assert!(b2.contains(4));
        assert!(!b2.contains(6));
    }

    #[test]
    fn frontier_adjacency_is_hidden() {
        let tree = path(5);
        let ids = Ids::sequential(5);
        let b = BallView::collect(&tree, &ids, 2, 1);
        assert!(b.knows_neighbors(2));
        assert!(!b.knows_neighbors(1));
        assert_eq!(b.neighbors(2), &[1, 3]);
    }

    #[test]
    #[should_panic(expected = "outside the view")]
    fn reading_outside_ids_panics() {
        let tree = path(5);
        let ids = Ids::sequential(5);
        let b = BallView::collect(&tree, &ids, 0, 1);
        let _ = b.id(4);
    }

    #[test]
    #[should_panic(expected = "not visible")]
    fn reading_frontier_neighbors_panics() {
        let tree = path(5);
        let ids = Ids::sequential(5);
        let b = BallView::collect(&tree, &ids, 2, 1);
        let _ = b.neighbors(3);
    }

    #[test]
    fn sees_whole_graph_detection() {
        let tree = star(5);
        let ids = Ids::sequential(5);
        // Center of a star: at radius 1 all frontier nodes are leaves, so
        // the half-edge convention confirms completeness immediately.
        let b1 = BallView::collect(&tree, &ids, 0, 1);
        assert!(b1.sees_whole_graph());
        assert!(!BallView::collect(&tree, &ids, 0, 0).sees_whole_graph());
        // From a leaf, radius 1 shows the center with degree 4 (incomplete);
        // radius 2 reaches the remaining leaves.
        assert!(!BallView::collect(&tree, &ids, 1, 1).sees_whole_graph());
        assert!(BallView::collect(&tree, &ids, 1, 2).sees_whole_graph());
    }

    /// Decide the minimum ID of the whole graph, terminating as soon as the
    /// whole graph is visible.
    struct GlobalMin;
    impl ViewAlgorithm for GlobalMin {
        type Output = u64;
        fn decide(&mut self, view: &BallView<'_>) -> Option<u64> {
            if view.sees_whole_graph() {
                Some(view.nodes().iter().map(|&v| view.id(v)).min().unwrap())
            } else {
                None
            }
        }
    }

    #[test]
    fn global_min_needs_eccentricity_rounds() {
        let tree = path(6);
        let ids = Ids::random(6, 2);
        let out = run_views(&tree, &ids, |_| GlobalMin, 10).expect("decides");
        assert!(out.outputs.iter().all(|&m| m == 0));
        // Node v requires radius max(v, n-1-v) to see the whole path, plus
        // one extra round to confirm the endpoints have no further edges
        // (endpoint itself knows its own degree, so its far side costs +1
        // only when the far node is at full distance).
        for v in 0..6 {
            let ecc = v.max(5 - v) as u64;
            let r = out.stats.round(v);
            assert!(
                r == ecc || r == ecc + 1,
                "node {v}: round {r}, eccentricity {ecc}"
            );
        }
    }

    #[test]
    fn max_radius_is_enforced() {
        struct Never;
        impl ViewAlgorithm for Never {
            type Output = ();
            fn decide(&mut self, _: &BallView<'_>) -> Option<()> {
                None
            }
        }
        let tree = path(3);
        let ids = Ids::sequential(3);
        let err = run_views(&tree, &ids, |_| Never, 2).unwrap_err();
        assert_eq!(
            err,
            Undecided {
                node: 0,
                max_radius: 2
            }
        );
    }
}
