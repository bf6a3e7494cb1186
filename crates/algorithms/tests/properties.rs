//! Property-based tests: every algorithm must produce verifier-accepted
//! outputs on randomized instances, with round counts obeying the paper's
//! structural bounds.

use lcl_algorithms::apoly::apoly;
use lcl_algorithms::fast_decomposition::fast_dfree_standalone;
use lcl_algorithms::generic_coloring::generic_coloring;
use lcl_algorithms::labeling_solver::solve_hierarchical_labeling;
use lcl_algorithms::linial::{linial_coloring, three_color_path};
use lcl_core::coloring::{HierarchicalColoring, Variant};
use lcl_core::dfree::{DFreeWeight, DfreeInput};
use lcl_core::labeling::HierarchicalLabeling;
use lcl_core::problem::LclProblem;
use lcl_core::weighted::WeightedColoring;
use lcl_graph::generators::{path, random_bounded_degree_tree};
use lcl_graph::weighted::{NodeKind, WeightedConstruction, WeightedParams};
use lcl_graph::NodeMask;
use lcl_local::identifiers::Ids;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generic_coloring_always_verifies(
        n in 5usize..200,
        max_deg in 3usize..5,
        seed in any::<u64>(),
        k in 1usize..4,
        variant_bit in any::<bool>(),
    ) {
        let tree = random_bounded_degree_tree(n, max_deg, seed);
        let ids = Ids::random(n, seed ^ 0xabc);
        let variant = if variant_bit { Variant::TwoHalf } else { Variant::ThreeHalf };
        let gammas: Vec<usize> = (0..k - 1).map(|i| 2 + (seed as usize + i) % 5).collect();
        let run = generic_coloring(&tree, variant, &gammas, &ids);
        let problem = HierarchicalColoring::new(k, variant);
        prop_assert!(problem.verify(&tree, &vec![(); n], &run.outputs).is_ok());
        // Termination rounds are bounded by the total phase budget plus
        // the final phase (linear 2-coloring or the Linial constant).
        let budget: u64 = gammas.iter().map(|&g| 2 * g as u64 + k as u64).sum::<u64>()
            + n as u64
            + 64;
        prop_assert!(run.profile().worst_case() <= budget);
    }

    #[test]
    fn linial_coloring_proper_on_random_trees(
        n in 2usize..300,
        max_deg in 2usize..6,
        seed in any::<u64>(),
    ) {
        let tree = random_bounded_degree_tree(n, max_deg, seed);
        let ids = Ids::random(n, seed);
        let mask = NodeMask::full(n);
        let delta = tree.max_degree().max(1) as u64;
        let res = linial_coloring(&tree, &ids, &mask, delta);
        for v in tree.nodes() {
            prop_assert!(res.colors[v] <= delta);
            for &w in tree.neighbors(v) {
                prop_assert_ne!(res.colors[v], res.colors[w as usize]);
            }
        }
    }

    #[test]
    fn three_coloring_rounds_are_uniformly_bounded(
        exp in 4u32..17,
        seed in any::<u64>(),
    ) {
        // Θ(log* n) with textbook constants: the final Linial palette is at
        // most 25 colors for degree 2, so rounds are bounded by
        // (25 - 3) + log*-many reduction rounds + slack, uniformly in n.
        // (The palette size sawtooths at small n, so bounds — not
        // doubling comparisons — are the right invariant.)
        let n = 1usize << exp;
        let r = three_color_path(&path(n), &Ids::random(n, seed))
            .profile()
            .worst_case();
        prop_assert!(r <= 22 + 8, "n = {n}: {r} rounds");
    }

    #[test]
    fn fast_dfree_verifies_on_random_weight_forests(
        n in 20usize..400,
        seed in any::<u64>(),
        a_position in any::<prop::sample::Index>(),
    ) {
        let tree = random_bounded_degree_tree(n, 5, seed);
        let mask = NodeMask::full(n);
        let mut input = vec![DfreeInput::Weight; n];
        input[a_position.index(n)] = DfreeInput::Adjacent;
        let d = 3;
        let run = fast_dfree_standalone(&tree, &mask, &input, d);
        let outputs: Vec<_> = run.outputs.iter().map(|o| o.unwrap()).collect();
        prop_assert!(DFreeWeight::new(d).verify(&tree, &input, &outputs).is_ok());
    }

    #[test]
    fn labeling_solver_verifies_on_random_trees(
        n in 2usize..250,
        seed in any::<u64>(),
        k in 1usize..4,
    ) {
        let tree = random_bounded_degree_tree(n, 4, seed);
        let sol = solve_hierarchical_labeling(&tree, k);
        prop_assert!(HierarchicalLabeling::new(k)
            .verify(&tree, &vec![(); n], &sol.run.outputs)
            .is_ok());
    }

    #[test]
    fn apoly_verifies_on_random_weighted_constructions(
        l1 in 3usize..10,
        l2 in 3usize..8,
        weight in 10usize..120,
        seed in any::<u64>(),
    ) {
        let c = WeightedConstruction::new(&WeightedParams {
            lengths: vec![l1, l2],
            delta: 5,
            weight_per_level: weight,
        })
        .unwrap();
        let n = c.tree().node_count();
        let ids = Ids::random(n, seed);
        let run = apoly(c.tree(), c.kinds(), 2, 2, &[3], &ids);
        let problem = WeightedColoring::new(Variant::TwoHalf, 5, 2, 2).unwrap();
        prop_assert!(problem.verify(c.tree(), c.kinds(), &run.outputs).is_ok());
        // Input discipline: active nodes keep active outputs.
        for v in c.tree().nodes() {
            let is_active_out = matches!(
                run.outputs[v],
                lcl_core::weighted::WeightedOutput::Active(_)
            );
            prop_assert_eq!(is_active_out, c.kind(v) == NodeKind::Active);
        }
    }
}
