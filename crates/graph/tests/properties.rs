//! Property-based tests for the tree substrate.

use lcl_graph::decompose::{Decomposition, RakeCompressParams};
use lcl_graph::generators::random_bounded_degree_tree;
use lcl_graph::hierarchical::LowerBoundGraph;
use lcl_graph::levels::Levels;
use lcl_graph::{extract_components, induced_paths, Bfs, NodeMask, Tree, TreeBuilder};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

fn arb_tree() -> impl Strategy<Value = Tree> {
    (2usize..200, 2usize..6, any::<u64>())
        .prop_map(|(n, d, seed)| random_bounded_degree_tree(n, d, seed))
}

/// What a search visits, as [`naive_bfs`] computes it: the visit order,
/// each node's distance (`u32::MAX` off the search) and parent (`None` for
/// sources and unvisited nodes).
type Search = (Vec<usize>, Vec<u32>, Vec<Option<usize>>);

/// A textbook BFS with fresh state per call, the reference for [`Bfs`]:
/// FIFO, neighbours in port order, the sources first (each once, whatever
/// the mask says), other nodes only inside `mask`, and nodes at `radius`
/// not expanded.
fn naive_bfs(tree: &Tree, sources: &[usize], mask: Option<&NodeMask>, radius: u32) -> Search {
    let n = tree.node_count();
    let mut dist = vec![u32::MAX; n];
    let mut parent = vec![None; n];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s] == u32::MAX {
            dist[s] = 0;
            order.push(s);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        if dist[u] >= radius {
            continue;
        }
        for &w in tree.neighbors(u) {
            let w = w as usize;
            if dist[w] == u32::MAX && mask.is_none_or(|m| m.contains(w)) {
                dist[w] = dist[u] + 1;
                parent[w] = Some(u);
                order.push(w);
                queue.push_back(w);
            }
        }
    }
    (order, dist, parent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_bfs_matches_a_naive_bfs_across_reused_searches(tree in arb_tree(), seed in any::<u64>()) {
        // Several searches on one `Bfs`, with different sources, masks and
        // radii: anything one search leaves behind shows up in the next.
        let n = tree.node_count();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bfs = Bfs::new(n);
        for search in 0..8 {
            let radius = match search % 4 {
                0 => 0,
                1 => Bfs::UNBOUNDED,
                _ => rng.gen_range(1..8),
            };
            let mask = (search % 3 != 0).then(|| {
                let density = rng.gen_range(0.2..1.0);
                NodeMask::from_nodes(n, tree.nodes().filter(|_| rng.gen_bool(density)))
            });
            // Sources may repeat, sit outside the mask, or be absent.
            let sources: Vec<usize> = (0..rng.gen_range(0..4)).map(|_| rng.gen_range(0..n)).collect();
            let (order, dist, parent) = naive_bfs(&tree, &sources, mask.as_ref(), radius);
            prop_assert_eq!(bfs.run(&tree, &sources, mask.as_ref(), radius), &order[..]);
            prop_assert_eq!(bfs.order(), &order[..]);
            for v in tree.nodes() {
                prop_assert_eq!(bfs.dist(v), dist[v], "distance of {}", v);
                prop_assert_eq!(bfs.parent(v), parent[v], "parent of {}", v);
            }
            for &v in &order {
                let walk: Vec<usize> = bfs.walk(v).collect();
                prop_assert_eq!(walk.len() as u32, dist[v] + 1, "walk length from {}", v);
                prop_assert_eq!(walk[0], v);
                prop_assert!(sources.contains(walk.last().unwrap()), "walk from {} ends off the sources", v);
                for pair in walk.windows(2) {
                    prop_assert!(tree.neighbors(pair[0]).contains(&(pair[1] as u32)));
                }
            }
        }
    }

    #[test]
    fn tree_invariants(tree in arb_tree()) {
        let n = tree.node_count();
        prop_assert_eq!(tree.edge_count(), n - 1);
        // Sum of degrees = 2 * edges.
        let degsum: usize = tree.nodes().map(|v| tree.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * (n - 1));
        // BFS from node 0 reaches everything.
        let dist = tree.bfs_distances(0);
        prop_assert!(dist.iter().all(|&d| d != u32::MAX));
    }

    #[test]
    fn path_between_is_a_tree_path(tree in arb_tree(), a in any::<prop::sample::Index>(), b in any::<prop::sample::Index>()) {
        let n = tree.node_count();
        let (u, v) = (a.index(n), b.index(n));
        // The tree path from `u` to `v` is the walk back from `u` of a
        // search from `v`.
        let mut bfs = Bfs::new(n);
        bfs.run(&tree, &[v], None, Bfs::UNBOUNDED);
        let p: Vec<usize> = bfs.walk(u).collect();
        prop_assert_eq!(p[0], u);
        prop_assert_eq!(*p.last().unwrap(), v);
        for w in p.windows(2) {
            prop_assert!(tree.neighbors(w[0]).contains(&(w[1] as u32)));
        }
        // Path length equals BFS distance.
        prop_assert_eq!(p.len() as u32 - 1, tree.bfs_distances(u)[v]);
    }

    #[test]
    fn levels_partition_and_peel(tree in arb_tree(), k in 1usize..5) {
        let levels = Levels::compute(&tree, k);
        let total: usize = (1..=k + 1).map(|i| levels.count_at(i)).sum();
        prop_assert_eq!(total, tree.node_count());
        prop_assert!(levels.is_valid_peeling(&tree));
        // Each level <= k induces only paths (degree <= 2 inside the level).
        for i in 1..=k {
            let mask = levels.mask_at(tree.node_count(), i);
            for v in mask.iter() {
                prop_assert!(mask.induced_degree(&tree, v) <= 2);
            }
        }
    }

    #[test]
    fn from_edges_is_invariant_under_edge_permutation(tree in arb_tree(), perm_seed in any::<u64>()) {
        // Rebuild the tree from its own edge list with shuffled edge order
        // and flipped endpoint order: node set, degrees, and neighbor
        // *sets* must be identical (per-node neighbor order is the only
        // representational freedom), and the builder must accept it.
        let n = tree.node_count();
        let mut edges: Vec<(usize, usize)> = tree.edges().collect();
        let mut rng = SmallRng::seed_from_u64(perm_seed);
        edges.shuffle(&mut rng);
        let flipped: Vec<(usize, usize)> =
            edges.iter().map(|&(u, v)| if u.is_multiple_of(2) { (v, u) } else { (u, v) }).collect();
        let rebuilt = Tree::from_edges(n, &flipped).unwrap();
        prop_assert_eq!(rebuilt.node_count(), n);
        prop_assert_eq!(rebuilt.edge_count(), n - 1);
        for v in tree.nodes() {
            prop_assert_eq!(rebuilt.degree(v), tree.degree(v));
            let mut a = tree.neighbors(v).to_vec();
            let mut b = rebuilt.neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "neighbor set of {} changed", v);
        }
    }

    #[test]
    fn builder_grow_and_csr_are_consistent(tree in arb_tree()) {
        // TreeBuilder::grow + add_edge reproduces from_edges, and the CSR
        // accessors the engine arenas align to are self-consistent.
        let n = tree.node_count();
        let mut b = TreeBuilder::new(0);
        prop_assert_eq!(b.grow(n), 0);
        for (u, v) in tree.edges() {
            b.add_edge(u, v);
        }
        let grown = b.build().unwrap();
        prop_assert_eq!(&grown, &tree);
        let offsets = tree.offsets();
        prop_assert_eq!(offsets.len(), n + 1);
        prop_assert_eq!(offsets[0], 0);
        prop_assert_eq!(offsets[n] as usize, tree.adjacency().len());
        for v in tree.nodes() {
            prop_assert_eq!((offsets[v + 1] - offsets[v]) as usize, tree.degree(v));
            let slice = &tree.adjacency()[offsets[v] as usize..offsets[v + 1] as usize];
            prop_assert_eq!(slice, tree.neighbors(v));
        }
    }

    #[test]
    fn rooted_order_is_topological_and_subtree_sizes_sum(tree in arb_tree(), r in any::<prop::sample::Index>()) {
        let n = tree.node_count();
        let root = r.index(n);
        let mut bfs = Bfs::new(n);
        let order = bfs.run(&tree, &[root], None, Bfs::UNBOUNDED).to_vec();
        let parent: Vec<usize> = tree.nodes().map(|v| bfs.parent(v).unwrap_or(v)).collect();
        prop_assert_eq!(order.len(), n);
        prop_assert_eq!(order[0], root);
        prop_assert_eq!(parent[root], root);
        // Topological: every node appears after its parent.
        let mut position = vec![usize::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            prop_assert_eq!(position[v], usize::MAX, "node visited twice");
            position[v] = i;
        }
        for v in tree.nodes() {
            if v != root {
                prop_assert!(position[parent[v]] < position[v], "child {} before parent", v);
            }
        }
        // Subtree sizes, summed bottom-up over the rooted order: the root's
        // subtree is everything, and every node's size is one plus its
        // children's sizes (so the per-node sizes sum to n along every
        // root-to-node chain consistently).
        let mut sizes = vec![1u32; n];
        for &v in order.iter().rev() {
            if v != root {
                sizes[parent[v]] += sizes[v];
            }
        }
        prop_assert_eq!(sizes[root] as usize, n);
        for v in tree.nodes() {
            let children_sum: u32 = tree
                .nodes()
                .filter(|&w| w != root && parent[w] == v)
                .map(|w| sizes[w])
                .sum();
            prop_assert_eq!(sizes[v], children_sum + 1, "size identity at {}", v);
        }
    }

    #[test]
    fn levels_peeling_depth_is_monotone_in_k(tree in arb_tree(), k in 1usize..5) {
        // Peeling is prefix-stable: raising the budget from k to k + 1
        // never changes a level that was already assigned (<= k), and
        // survivors of the k-round peel stay at depth > k.
        let coarse = Levels::compute(&tree, k);
        let fine = Levels::compute(&tree, k + 1);
        for v in tree.nodes() {
            if coarse.level(v) <= k {
                prop_assert_eq!(fine.level(v), coarse.level(v), "level of {} changed", v);
            } else {
                prop_assert!(fine.level(v) > k, "survivor {} peeled early", v);
            }
        }
    }

    #[test]
    fn level_one_is_never_empty(tree in arb_tree(), k in 1usize..4) {
        // Every finite tree has a node of degree <= 2 (e.g. a leaf).
        let levels = Levels::compute(&tree, k);
        prop_assert!(levels.count_at(1) > 0);
    }

    #[test]
    fn decomposition_assigns_and_validates(tree in arb_tree(), gamma in 1usize..4, ell in 2usize..5, strict in any::<bool>()) {
        let d = Decomposition::compute(&tree, RakeCompressParams { gamma, ell, strict });
        prop_assert!(d.validate(&tree).is_ok(), "{:?}", d.validate(&tree));
        // Processing order covers all nodes exactly once.
        let order = d.processing_order();
        prop_assert_eq!(order.len(), tree.node_count());
        let mask = NodeMask::from_nodes(tree.node_count(), order.iter().copied());
        prop_assert_eq!(mask.count(), tree.node_count());
    }

    #[test]
    fn induced_paths_cover_mask(tree in arb_tree()) {
        // Mask of all degree-<=2 nodes induces paths; check coverage.
        let n = tree.node_count();
        let mask = NodeMask::from_nodes(n, tree.nodes().filter(|&v| tree.degree(v) <= 2));
        // Only check when the mask actually induces paths.
        let ok = mask.iter().all(|v| mask.induced_degree(&tree, v) <= 2);
        if ok {
            let total: usize = induced_paths(&tree, &mask).iter().map(|p| p.len()).sum();
            prop_assert_eq!(total, mask.count());
        }
    }

    #[test]
    fn extracted_components_match_a_naive_definition(tree in arb_tree(), seed in any::<u64>()) {
        let n = tree.node_count();
        let mut rng = SmallRng::seed_from_u64(seed);
        // Shuffle every node's ports: a generated tree lists them in id
        // order, which would hide an extraction that reorders them.
        let offsets = tree.offsets().to_vec();
        let mut adjacency = tree.adjacency().to_vec();
        for v in tree.nodes() {
            adjacency[offsets[v] as usize..offsets[v + 1] as usize].shuffle(&mut rng);
        }
        let tree = Tree::from_csr(offsets, adjacency).unwrap();
        let density = rng.gen_range(0.1..1.0);
        let mask = NodeMask::from_nodes(n, tree.nodes().filter(|_| rng.gen_bool(density)));
        // The reference: one search per component, started at its smallest
        // member, in increasing order of that member.
        let mut covered = vec![false; n];
        let mut expected = Vec::new();
        for start in mask.iter() {
            if !covered[start] {
                let (order, _, _) = naive_bfs(&tree, &[start], Some(&mask), Bfs::UNBOUNDED);
                for &v in &order {
                    covered[v] = true;
                }
                expected.push(order);
            }
        }
        let components: Vec<_> = extract_components(&tree, &mask).collect();
        prop_assert_eq!(components.len(), expected.len());
        for (comp, nodes) in components.iter().zip(&expected) {
            prop_assert_eq!(&comp.nodes, nodes);
            prop_assert_eq!(comp.tree.node_count(), nodes.len());
            for (i, &v) in nodes.iter().enumerate() {
                let ports: Vec<u32> = tree
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| mask.contains(w as usize))
                    .map(|&w| nodes.iter().position(|&u| u == w as usize).unwrap() as u32)
                    .collect();
                prop_assert_eq!(comp.tree.neighbors(i), &ports[..], "ports of {}", v);
            }
        }

        // Dropping the members of induced degree above 2 leaves paths, each
        // listed end to end from its smaller endpoint, in component order.
        let path_mask = NodeMask::from_nodes(n, mask.iter().filter(|&v| mask.induced_degree(&tree, v) <= 2));
        let paths: Vec<Vec<usize>> = induced_paths(&tree, &path_mask);
        let path_components: Vec<Vec<usize>> = extract_components(&tree, &path_mask).map(|c| c.nodes).collect();
        prop_assert_eq!(paths.len(), path_components.len());
        for (path, comp) in paths.iter().zip(&path_components) {
            let mut sorted = path.clone();
            sorted.sort_unstable();
            let mut members = comp.clone();
            members.sort_unstable();
            prop_assert_eq!(sorted, members);
            for pair in path.windows(2) {
                prop_assert!(tree.neighbors(pair[0]).contains(&(pair[1] as u32)));
            }
            let ends = (path[0], *path.last().unwrap());
            prop_assert!(path.len() == 1 || ends.0 < ends.1, "path {:?} starts at its larger end", path);
        }
    }

    #[test]
    fn lower_bound_graph_sizes(l1 in 1usize..8, l2 in 1usize..8, l3 in 1usize..6) {
        let lengths = [l1, l2, l3];
        let g = LowerBoundGraph::new(&lengths).unwrap();
        prop_assert_eq!(g.level_count(3), l3);
        prop_assert_eq!(g.level_count(2), l2 * l3);
        prop_assert_eq!(g.level_count(1), l1 * l2 * l3);
        prop_assert_eq!(
            g.tree().node_count(),
            LowerBoundGraph::total_nodes(&lengths)
        );
    }
}
