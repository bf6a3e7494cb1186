//! The generic algorithm for `k`-hierarchical 2½- and 3½-coloring
//! (Section 4.1 of the paper).
//!
//! Phase `i ∈ {1, ..., k-1}` fixes the still-undecided level-`i` paths:
//! paths of length at least `γ_i` decline, shorter paths 2-color
//! consistently (within 2γ_i rounds a node has seen its whole path). After
//! each phase, exemption waves let higher-level nodes adjacent to a colored
//! lower-level node output `E` (at most `k` waves). Phase `k` colors the
//! surviving level-`k` paths: a proper 2-coloring in time linear in the
//! path length (2½), or a proper 3-coloring in `O(log* n)` rounds via
//! Linial reduction (3½).
//!
//! Round accounting follows the paper's analysis (Lemma 14): level-`i`
//! nodes are charged at most `2γ_i` rounds in phase `i` plus at most `k`
//! exemption-wave rounds, and phase `k` charges the 2-coloring time or the
//! Linial round count.

use crate::linial::linial_coloring;
use crate::run::AlgorithmRun;
use lcl_core::coloring::{ColorLabel, Variant};
use lcl_graph::levels::Levels;
use lcl_graph::{induced_paths, NodeId, NodeMask, Tree};
use lcl_local::identifiers::Ids;

/// A run restricted to a node mask: entries outside the mask are `None`.
#[derive(Debug, Clone)]
pub struct MaskedRun {
    /// Per-node output; `None` outside the executed mask.
    pub outputs: Vec<Option<ColorLabel>>,
    /// Per-node termination round; meaningful where `outputs` is `Some`.
    pub rounds: Vec<u64>,
}

/// Runs the generic algorithm on the subgraph induced by `mask`.
///
/// `levels` must be the masked peeling ([`Levels::compute_masked`]) of the
/// same mask, and `gammas` must contain `k - 1` phase parameters.
///
/// # Panics
///
/// Panics if `gammas.len() != levels.k() - 1`, if some `γ_i == 0`, or if an
/// internal invariant of the phase structure is violated.
pub fn generic_coloring_masked(
    tree: &Tree,
    mask: &NodeMask,
    levels: &Levels,
    variant: Variant,
    gammas: &[usize],
    ids: &Ids,
) -> MaskedRun {
    let k = levels.k();
    assert_eq!(gammas.len(), k - 1, "need k - 1 phase parameters");
    assert!(
        gammas.iter().all(|&g| g >= 1),
        "phase parameters must be positive"
    );
    let n = tree.node_count();
    let mut outputs: Vec<Option<ColorLabel>> = vec![None; n];
    let mut rounds: Vec<u64> = vec![0; n];
    let mut undecided = mask.clone();

    // Level-(k+1) nodes output E unconditionally (their constraint does not
    // depend on neighbors), at round 0.
    for v in mask.iter() {
        if levels.level(v) == k + 1 {
            outputs[v] = Some(ColorLabel::Exempt);
            rounds[v] = 0;
            undecided.remove(v);
        }
    }

    let mut phase_start: u64 = 0;
    for i in 1..k {
        let gamma = gammas[i - 1];
        fix_level_paths(
            tree,
            mask,
            levels,
            i,
            Some(gamma),
            phase_start,
            ids,
            &mut outputs,
            &mut rounds,
            &mut undecided,
        );
        let waves = exemption_waves(
            tree,
            mask,
            levels,
            k,
            phase_start + 2 * gamma as u64,
            &mut outputs,
            &mut rounds,
            &mut undecided,
        );
        assert!(waves <= k + 1, "exemption cascades are bounded by k");
        phase_start += 2 * gamma as u64 + k as u64;
    }

    // Phase k: color the surviving level-k paths.
    debug_assert!(undecided.iter().all(|v| levels.level(v) == k));
    match variant {
        Variant::TwoHalf => {
            let mask_k = NodeMask::from_nodes(n, undecided.iter());
            for p in induced_paths(tree, &mask_k) {
                color_path_two(&p, ids, phase_start, &mut outputs, &mut rounds);
                for &v in &p {
                    undecided.remove(v);
                }
            }
        }
        Variant::ThreeHalf => {
            let mask_k = NodeMask::from_nodes(n, undecided.iter());
            if !mask_k.is_empty() {
                let colored = linial_coloring(tree, ids, &mask_k, 2);
                for v in mask_k.iter() {
                    outputs[v] = Some(match colored.colors[v] {
                        0 => ColorLabel::Red,
                        1 => ColorLabel::Green,
                        _ => ColorLabel::Yellow,
                    });
                    rounds[v] = phase_start + colored.rounds;
                    undecided.remove(v);
                }
            }
        }
    }
    assert!(undecided.is_empty(), "all nodes must decide by phase k");
    MaskedRun { outputs, rounds }
}

/// Runs the generic algorithm on a whole tree (full mask), returning a
/// complete [`AlgorithmRun`] that verifies against
/// [`HierarchicalColoring`](lcl_core::coloring::HierarchicalColoring) with
/// hierarchy depth `gammas.len() + 1`.
pub fn generic_coloring(
    tree: &Tree,
    variant: Variant,
    gammas: &[usize],
    ids: &Ids,
) -> AlgorithmRun<ColorLabel> {
    let k = gammas.len() + 1;
    let mask = NodeMask::full(tree.node_count());
    let levels = Levels::compute(tree, k);
    let run = generic_coloring_masked(tree, &mask, &levels, variant, gammas, ids);
    let outputs = run
        .outputs
        .into_iter()
        .map(|o| o.expect("full mask decides everywhere"))
        .collect();
    AlgorithmRun::new(outputs, run.rounds)
}

/// Phase-`i` path fixing. With `threshold = Some(γ)`, paths of length
/// `≥ γ` decline (charged `phase_start + γ`) and shorter paths 2-color
/// (charged `phase_start + len`).
#[allow(clippy::too_many_arguments)]
fn fix_level_paths(
    tree: &Tree,
    _mask: &NodeMask,
    levels: &Levels,
    level: usize,
    threshold: Option<usize>,
    phase_start: u64,
    ids: &Ids,
    outputs: &mut [Option<ColorLabel>],
    rounds: &mut [u64],
    undecided: &mut NodeMask,
) {
    let n = tree.node_count();
    let level_mask =
        NodeMask::from_nodes(n, undecided.iter().filter(|&v| levels.level(v) == level));
    if level_mask.is_empty() {
        return;
    }
    for p in induced_paths(tree, &level_mask) {
        let gamma = threshold.expect("phase i < k always has a parameter");
        if p.len() >= gamma {
            for &v in &p {
                outputs[v] = Some(ColorLabel::Decline);
                rounds[v] = phase_start + gamma as u64;
                undecided.remove(v);
            }
        } else {
            color_path_two(&p, ids, phase_start, outputs, rounds);
            for &v in &p {
                undecided.remove(v);
            }
        }
    }
}

/// Properly 2-colors an ordered path, anchoring White at the endpoint with
/// the smaller ID; each node is charged `phase_start + len` (it must see
/// the entire path to learn both endpoint IDs).
fn color_path_two(
    nodes: &[NodeId],
    ids: &Ids,
    phase_start: u64,
    outputs: &mut [Option<ColorLabel>],
    rounds: &mut [u64],
) {
    let len = nodes.len();
    let first = nodes[0];
    let last = nodes[len - 1];
    let anchor_at_front = ids.id(first) <= ids.id(last);
    for (idx, &v) in nodes.iter().enumerate() {
        let dist = if anchor_at_front { idx } else { len - 1 - idx };
        outputs[v] = Some(if dist % 2 == 0 {
            ColorLabel::White
        } else {
            ColorLabel::Black
        });
        rounds[v] = phase_start + len as u64;
    }
}

/// Runs exemption waves until stable: an undecided node of level `2..=k`
/// adjacent (inside the mask) to a decided strictly-lower-level node
/// labeled `W`, `B`, or `E` outputs `E`. Wave `j` is charged
/// `base + j` rounds. Returns the number of waves executed.
#[allow(clippy::too_many_arguments)]
fn exemption_waves(
    tree: &Tree,
    mask: &NodeMask,
    levels: &Levels,
    k: usize,
    base: u64,
    outputs: &mut [Option<ColorLabel>],
    rounds: &mut [u64],
    undecided: &mut NodeMask,
) -> usize {
    let mut wave = 0usize;
    loop {
        let mut newly: Vec<NodeId> = Vec::new();
        for v in undecided.iter() {
            let lv = levels.level(v);
            if !(2..=k).contains(&lv) {
                continue;
            }
            let witnessed = tree.neighbors(v).iter().any(|&w| {
                let w = w as usize;
                mask.contains(w)
                    && (1..lv).contains(&levels.level(w))
                    && matches!(
                        outputs[w],
                        Some(ColorLabel::White | ColorLabel::Black | ColorLabel::Exempt)
                    )
            });
            if witnessed {
                newly.push(v);
            }
        }
        if newly.is_empty() {
            return wave;
        }
        wave += 1;
        for v in newly {
            outputs[v] = Some(ColorLabel::Exempt);
            rounds[v] = base + wave as u64;
            undecided.remove(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::coloring::HierarchicalColoring;
    use lcl_core::problem::LclProblem;
    use lcl_graph::generators::{caterpillar, path, random_bounded_degree_tree};
    use lcl_graph::hierarchical::LowerBoundGraph;

    fn check(
        tree: &Tree,
        variant: Variant,
        gammas: &[usize],
        seed: u64,
    ) -> AlgorithmRun<ColorLabel> {
        let n = tree.node_count();
        let ids = Ids::random(n, seed);
        let run = generic_coloring(tree, variant, gammas, &ids);
        let problem = HierarchicalColoring::new(gammas.len() + 1, variant);
        problem
            .verify(tree, &vec![(); n], &run.outputs)
            .unwrap_or_else(|e| panic!("invalid output on {n}-node tree: {e}"));
        run
    }

    #[test]
    fn plain_paths_both_variants() {
        for n in [1usize, 2, 7, 50] {
            check(&path(n), Variant::TwoHalf, &[], n as u64);
            check(&path(n), Variant::ThreeHalf, &[], n as u64);
        }
    }

    #[test]
    fn caterpillars_k2() {
        for legs in [1usize, 3] {
            let t = caterpillar(20, legs);
            check(&t, Variant::TwoHalf, &[4], 7);
            check(&t, Variant::ThreeHalf, &[4], 7);
        }
    }

    #[test]
    fn lower_bound_graphs_k2_and_k3() {
        for lengths in [vec![5usize, 8], vec![3, 4, 5], vec![10, 10]] {
            let g = LowerBoundGraph::new(&lengths).unwrap();
            let k = lengths.len();
            let gammas: Vec<usize> = (0..k - 1).map(|i| 3 + i).collect();
            check(g.tree(), Variant::TwoHalf, &gammas, 13);
            check(g.tree(), Variant::ThreeHalf, &gammas, 13);
        }
    }

    #[test]
    fn random_trees_verify() {
        for seed in 0..6 {
            let t = random_bounded_degree_tree(250, 4, seed);
            for k in 2..=3 {
                let gammas: Vec<usize> = vec![4; k - 1];
                check(&t, Variant::TwoHalf, &gammas, seed);
                check(&t, Variant::ThreeHalf, &gammas, seed);
            }
        }
    }

    #[test]
    fn long_level_paths_decline() {
        // k = 2 lower-bound graph with long level-1 paths and small γ₁:
        // all level-1 paths decline, so level-2 must color.
        let g = LowerBoundGraph::new(&[20, 6]).unwrap();
        let n = g.tree().node_count();
        let ids = Ids::random(n, 3);
        let run = generic_coloring(g.tree(), Variant::TwoHalf, &[5], &ids);
        let levels = Levels::compute(g.tree(), 2);
        let mut declined = 0;
        for v in g.tree().nodes() {
            if levels.level(v) == 1 && run.outputs[v] == ColorLabel::Decline {
                declined += 1;
            }
        }
        assert!(declined > n / 2, "most level-1 nodes should decline");
        // Level-2 nodes must then be colored W/B (2½).
        for v in g.tree().nodes() {
            if levels.level(v) == 2 {
                assert!(
                    run.outputs[v].is_wb(),
                    "level-2 node {v} got {:?}",
                    run.outputs[v]
                );
            }
        }
    }

    #[test]
    fn short_level_paths_color_and_exempt() {
        // γ₁ larger than every level-1 path: all level-1 paths color, so
        // all level-2 nodes become exempt.
        let g = LowerBoundGraph::new(&[4, 6]).unwrap();
        let n = g.tree().node_count();
        let ids = Ids::random(n, 4);
        let run = generic_coloring(g.tree(), Variant::TwoHalf, &[10], &ids);
        let levels = Levels::compute(g.tree(), 2);
        for v in g.tree().nodes() {
            match levels.level(v) {
                1 => assert!(
                    run.outputs[v].is_wb(),
                    "level-1 node {v}: {:?}",
                    run.outputs[v]
                ),
                2 => assert_eq!(run.outputs[v], ColorLabel::Exempt, "node {v}"),
                _ => {}
            }
        }
        // Colored level-1 nodes pay at most their path length; exemptions
        // are charged after the full phase budget 2γ (paper accounting),
        // plus one wave round.
        let max_round = run.rounds.iter().max().copied().unwrap();
        assert!(max_round <= 2 * 10 + 2, "rounds: {max_round}");
        for v in g.tree().nodes() {
            if run.outputs[v].is_wb() {
                assert!(run.rounds[v] <= 5, "colored node {v}: {}", run.rounds[v]);
            }
        }
    }

    #[test]
    fn decline_rounds_follow_gamma_charges() {
        let g = LowerBoundGraph::new(&[30, 5]).unwrap();
        let n = g.tree().node_count();
        let ids = Ids::random(n, 5);
        let gamma = 6u64;
        let run = generic_coloring(g.tree(), Variant::TwoHalf, &[gamma as usize], &ids);
        let levels = Levels::compute(g.tree(), 2);
        for v in g.tree().nodes() {
            if run.outputs[v] == ColorLabel::Decline {
                assert_eq!(run.rounds[v], gamma, "node {v}");
            }
            if levels.level(v) == 2 {
                // Level-2 work happens in phase 2 (after 2γ + k rounds).
                assert!(run.rounds[v] >= 2 * gamma, "node {v}: {}", run.rounds[v]);
            }
        }
    }

    #[test]
    fn three_half_uses_linial_at_level_k() {
        let g = LowerBoundGraph::new(&[40, 8]).unwrap();
        let n = g.tree().node_count();
        let ids = Ids::random(n, 6);
        let run = generic_coloring(g.tree(), Variant::ThreeHalf, &[4], &ids);
        let levels = Levels::compute(g.tree(), 2);
        for v in g.tree().nodes() {
            if levels.level(v) == 2 {
                assert!(
                    run.outputs[v].is_rgy() || run.outputs[v] == ColorLabel::Exempt,
                    "node {v}: {:?}",
                    run.outputs[v]
                );
            }
        }
    }

    #[test]
    fn masked_run_skips_outside_nodes() {
        let t = path(10);
        let ids = Ids::sequential(10);
        let mask = NodeMask::from_nodes(10, 0..5);
        let levels = Levels::compute_masked(&t, &mask, 1);
        let run = generic_coloring_masked(&t, &mask, &levels, Variant::TwoHalf, &[], &ids);
        for v in 0..5 {
            assert!(run.outputs[v].is_some());
        }
        for v in 5..10 {
            assert!(run.outputs[v].is_none());
        }
    }

    #[test]
    #[should_panic(expected = "k - 1 phase parameters")]
    fn gamma_arity_checked() {
        let t = path(5);
        let ids = Ids::sequential(5);
        let mask = NodeMask::full(5);
        let levels = Levels::compute(&t, 2);
        let _ = generic_coloring_masked(&t, &mask, &levels, Variant::TwoHalf, &[], &ids);
    }
}
