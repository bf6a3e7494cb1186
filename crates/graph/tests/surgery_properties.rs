//! Property-based tests for tree surgery: arbitrary valid churn batches must
//! preserve every CSR invariant the engine relies on, keep a rooted BFS
//! order topological, and keep the subtree-size identity — on random trees
//! and on every adversarial shape family.

use lcl_graph::generators::{
    broom, caterpillar, complete_ary_tree, heavy_path_skewed, ladder, path,
    random_bounded_degree_tree, spider,
};
use lcl_graph::{churn_batch, BatchResult, Bfs, OpWeights, ShapeDiscipline, Tree};
use proptest::prelude::*;

fn arb_tree() -> impl Strategy<Value = Tree> {
    (40usize..200, 3usize..6, any::<u64>())
        .prop_map(|(n, d, seed)| random_bounded_degree_tree(n, d, seed))
}

fn arb_weights() -> impl Strategy<Value = OpWeights> {
    (0u32..4, 0u32..4, 0u32..4).prop_map(|(insert, delete, rehang)| OpWeights {
        insert: insert.max(1),
        delete,
        rehang,
    })
}

/// The invariants every churned tree must satisfy, plus the map identities
/// tying it back to the pre-batch tree.
fn assert_batch_sound(before: &Tree, r: &BatchResult) {
    let tree = &r.tree;
    let n = tree.node_count();
    // CSR / offsets invariants.
    assert_eq!(tree.offsets().len(), n + 1);
    assert_eq!(tree.offsets()[0], 0);
    assert_eq!(tree.offsets()[n] as usize, tree.adjacency().len());
    assert!(tree.offsets().windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(tree.adjacency().len(), 2 * (n - 1));
    assert_eq!(tree.edge_count(), n - 1);
    // Connected: BFS reaches everything.
    let mut bfs = Bfs::new(n);
    let order = bfs.run(tree, &[0], None, Bfs::UNBOUNDED).to_vec();
    assert!(tree.nodes().all(|v| bfs.dist(v) != u32::MAX));
    // The rooted order is topological: every node appears after its parent.
    let parent: Vec<usize> = tree.nodes().map(|v| bfs.parent(v).unwrap_or(v)).collect();
    assert_eq!(order.len(), n);
    let mut position = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }
    for &v in &order {
        if v != 0 {
            assert!(position[parent[v]] < position[v], "order not topological");
        }
    }
    // Subtree-size identity, with sizes summed bottom-up over the rooted
    // order: the root's subtree is the whole tree and each parent's size is
    // 1 + the sum of its children's sizes.
    let mut sizes = vec![1u32; n];
    for &v in order.iter().rev() {
        if v != 0 {
            sizes[parent[v]] += sizes[v];
        }
    }
    assert_eq!(sizes[0] as usize, n);
    let mut child_sum = vec![0u32; n];
    for v in tree.nodes() {
        if v != 0 {
            child_sum[parent[v]] += sizes[v];
        }
    }
    for v in tree.nodes() {
        assert_eq!(sizes[v], 1 + child_sum[v], "subtree identity at {v}");
    }
    // Index maps are mutually inverse over survivors.
    assert_eq!(r.new_to_old.len(), n);
    for (new, &old) in r.new_to_old.iter().enumerate() {
        assert_eq!(r.old_to_new[old], Some(new as u32));
    }
    // Untouched original nodes keep their neighbor lists verbatim
    // (translated through the index maps).
    let touched: std::collections::BTreeSet<usize> = r.touched.iter().copied().collect();
    for (new, &old) in r.new_to_old.iter().enumerate() {
        if old >= r.base_n || touched.contains(&new) {
            continue;
        }
        let old_ports: Vec<Option<u32>> = before
            .neighbors(old)
            .iter()
            .map(|&w| r.old_to_new[w as usize])
            .collect();
        let new_ports: Vec<Option<u32>> = tree.neighbors(new).iter().map(|&w| Some(w)).collect();
        assert_eq!(old_ports, new_ports, "ports of untouched node {old} moved");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn free_tree_batches_preserve_invariants(
        tree in arb_tree(),
        weights in arb_weights(),
        ops in 1usize..60,
        seed in any::<u64>(),
    ) {
        let discipline = ShapeDiscipline::FreeTree { max_degree: 6 };
        let r = churn_batch(&tree, discipline, weights, ops, 16, seed).unwrap();
        prop_assert!(r.tree.max_degree() <= 6);
        prop_assert!(r.tree.node_count() >= 16);
        prop_assert_eq!(r.ops.len(), ops);
        assert_batch_sound(&tree, &r);
    }

    #[test]
    fn path_batches_stay_paths(
        n in 20usize..300,
        weights in arb_weights(),
        ops in 1usize..60,
        seed in any::<u64>(),
    ) {
        let tree = path(n);
        let r = churn_batch(&tree, ShapeDiscipline::PathPreserving, weights, ops, 12, seed)
            .unwrap();
        prop_assert!(r.tree.max_degree() <= 2, "no longer a path");
        prop_assert!(r.tree.node_count() >= 12);
        assert_batch_sound(&tree, &r);
    }

    #[test]
    fn batches_are_deterministic(
        tree in arb_tree(),
        ops in 1usize..40,
        seed in any::<u64>(),
    ) {
        let discipline = ShapeDiscipline::FreeTree { max_degree: 6 };
        let w = OpWeights { insert: 2, delete: 1, rehang: 1 };
        let a = churn_batch(&tree, discipline, w, ops, 16, seed).unwrap();
        let b = churn_batch(&tree, discipline, w, ops, 16, seed).unwrap();
        prop_assert_eq!(a.tree, b.tree);
        prop_assert_eq!(a.ops, b.ops);
        prop_assert_eq!(a.touched, b.touched);
    }

    #[test]
    fn adversarial_shapes_survive_churn(scale in 2usize..8, seed in any::<u64>()) {
        let shapes: Vec<Tree> = vec![
            caterpillar(6 * scale, 3),
            ladder(8 * scale),
            broom(5 * scale, 4 * scale).unwrap(),
            spider(scale + 2, 4 * scale),
            complete_ary_tree(3, 3),
            heavy_path_skewed(40 * scale),
        ];
        let w = OpWeights { insert: 3, delete: 2, rehang: 1 };
        for tree in &shapes {
            let max_degree = tree.max_degree().max(3) + 1;
            let r = churn_batch(
                tree,
                ShapeDiscipline::FreeTree { max_degree },
                w,
                25,
                16,
                seed,
            )
            .unwrap();
            prop_assert!(r.tree.max_degree() <= max_degree);
            assert_batch_sound(tree, &r);
        }
    }
}
