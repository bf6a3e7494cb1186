//! The algorithm `A_poly` for `Π^{2.5}_{Δ,d,k}` (Section 7.1).
//!
//! Active components run the generic coloring algorithm with
//! `γ_i = n^{α_i}` (the optimal exponents of Lemma 33); weight components
//! solve the `d`-free weight problem with algorithm `A`; copy components
//! then flood the output of their adjacent active node as secondary
//! output. A weight node in the copy component of anchor `u` terminates
//! `O(log n) + depth` rounds after `u`'s active neighbor decides — which is
//! exactly how weight turns active-node latency into node-averaged cost.

use crate::dfree_a::algorithm_a;
use crate::generic_coloring::generic_coloring_masked;
use crate::run::AlgorithmRun;
use lcl_core::coloring::{ColorLabel, Variant};
use lcl_core::dfree::{DfreeInput, DfreeOutput};
use lcl_core::weighted::WeightedOutput;
use lcl_graph::levels::Levels;
use lcl_graph::weighted::NodeKind;
use lcl_graph::{induced_components, NodeMask, Tree};
use lcl_local::identifiers::Ids;

/// Runs `A_poly` on an `Active`/`Weight`-labeled tree.
///
/// * `kinds` — input labels;
/// * `k` — hierarchy depth of the underlying 2½-coloring;
/// * `d` — decline budget of `Π^{2.5}_{Δ,d,k}`;
/// * `gammas` — the `k - 1` phase parameters (`n^{α_i}` for the optimal
///   exponents; see [`lcl_core::params::poly_gammas`]).
///
/// The output verifies against
/// [`WeightedColoring`](lcl_core::weighted::WeightedColoring).
///
/// # Panics
///
/// Panics if `gammas.len() != k - 1` or `d == 0`.
pub fn apoly(
    tree: &Tree,
    kinds: &[NodeKind],
    k: usize,
    d: usize,
    gammas: &[usize],
    ids: &Ids,
) -> AlgorithmRun<WeightedOutput> {
    run_weighted(tree, kinds, k, d, gammas, ids, Variant::TwoHalf)
}

/// The body of [`apoly`], with the active side's coloring variant as a
/// parameter. Its only caller is [`apoly`], which passes
/// `Variant::TwoHalf`; [`a35`](crate::a35::a35) keeps its own copy of
/// this skeleton, with `fast_dfree` on the weight side.
pub(crate) fn run_weighted(
    tree: &Tree,
    kinds: &[NodeKind],
    k: usize,
    d: usize,
    gammas: &[usize],
    ids: &Ids,
    variant: Variant,
) -> AlgorithmRun<WeightedOutput> {
    assert_eq!(gammas.len(), k - 1, "need k - 1 phase parameters");
    let n = tree.node_count();
    assert_eq!(kinds.len(), n, "kinds must cover all nodes");
    let mut outputs: Vec<Option<WeightedOutput>> = vec![None; n];
    let mut rounds: Vec<u64> = vec![0; n];

    // --- Active side: generic coloring per component. ---
    let active_mask =
        NodeMask::from_nodes(n, tree.nodes().filter(|&v| kinds[v] == NodeKind::Active));
    for comp in induced_components(tree, &active_mask) {
        let comp_mask = NodeMask::from_nodes(n, comp.iter().copied());
        let levels = Levels::compute_masked(tree, &comp_mask, k);
        let run = generic_coloring_masked(tree, &comp_mask, &levels, variant, gammas, ids);
        for v in comp {
            outputs[v] = Some(WeightedOutput::Active(
                run.outputs[v].expect("component fully decided"),
            ));
            rounds[v] = run.rounds[v];
        }
    }

    // --- Weight side: algorithm A on the weight subgraph. ---
    let weight_mask =
        NodeMask::from_nodes(n, tree.nodes().filter(|&v| kinds[v] == NodeKind::Weight));
    let dfree_input: Vec<DfreeInput> = tree
        .nodes()
        .map(|v| {
            let adjacent_to_active = tree
                .neighbors(v)
                .iter()
                .any(|&w| kinds[w as usize] == NodeKind::Active);
            if adjacent_to_active {
                DfreeInput::Adjacent
            } else {
                DfreeInput::Weight
            }
        })
        .collect();
    let dfree = algorithm_a(tree, &weight_mask, &dfree_input, d, n);

    for v in weight_mask.iter() {
        match dfree.outputs[v].expect("weight subgraph fully decided") {
            DfreeOutput::Decline => {
                outputs[v] = Some(WeightedOutput::Decline);
                rounds[v] = dfree.radius;
            }
            DfreeOutput::Connect => {
                outputs[v] = Some(WeightedOutput::Connect);
                rounds[v] = dfree.radius;
            }
            DfreeOutput::Copy => {} // handled per component below
        }
    }

    // --- Copy components: flood the adjacent active node's output. ---
    for comp in &dfree.copy_components {
        let anchor = comp.anchor;
        // The active neighbor whose output is copied: the one that decides
        // first (ties broken by smaller ID) — any choice satisfies
        // property 5 of Definition 22.
        let (source, color) = tree
            .neighbors(anchor)
            .iter()
            .map(|&w| w as usize)
            .filter(|&w| kinds[w] == NodeKind::Active)
            .map(|w| {
                let c = match outputs[w] {
                    Some(WeightedOutput::Active(c)) => c,
                    _ => unreachable!("active nodes decided above"),
                };
                (w, c)
            })
            .min_by_key(|&(w, _)| (rounds[w], ids.id(w)))
            .expect("an A-labeled weight node has an active neighbor");
        let copy_color: ColorLabel = color;
        // The anchor learns the output one round after the active node
        // decides (and not before algorithm A fixed the copy set); it then
        // floods through the component at one hop per round.
        let start = rounds[source].max(dfree.radius) + 1;
        for &(u, depth) in &comp.members {
            outputs[u] = Some(WeightedOutput::Copy(copy_color));
            rounds[u] = start + depth as u64;
        }
    }

    let outputs = outputs
        .into_iter()
        .map(|o| o.expect("every node decided"))
        .collect();
    AlgorithmRun::new(outputs, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::problem::LclProblem;
    use lcl_core::weighted::WeightedColoring;
    use lcl_graph::weighted::{WeightedConstruction, WeightedParams};

    fn build(lengths: Vec<usize>, delta: usize, w: usize) -> WeightedConstruction {
        WeightedConstruction::new(&WeightedParams {
            lengths,
            delta,
            weight_per_level: w,
        })
        .unwrap()
    }

    fn verify_run(
        construction: &WeightedConstruction,
        k: usize,
        d: usize,
        run: &AlgorithmRun<WeightedOutput>,
    ) {
        let problem = WeightedColoring::new(Variant::TwoHalf, construction.delta(), d, k).unwrap();
        problem
            .verify(construction.tree(), construction.kinds(), &run.outputs)
            .unwrap_or_else(|e| panic!("invalid Π^2.5 output: {e}"));
    }

    #[test]
    fn small_weighted_construction_verifies() {
        let c = build(vec![6, 5], 5, 40);
        let n = c.tree().node_count();
        let ids = Ids::random(n, 11);
        let run = apoly(c.tree(), c.kinds(), 2, 2, &[4], &ids);
        verify_run(&c, 2, 2, &run);
    }

    #[test]
    fn three_level_construction_verifies() {
        let c = build(vec![4, 4, 4], 6, 60);
        let n = c.tree().node_count();
        let ids = Ids::random(n, 3);
        let run = apoly(c.tree(), c.kinds(), 3, 2, &[3, 5], &ids);
        verify_run(&c, 3, 2, &run);
    }

    #[test]
    fn optimal_gammas_verify() {
        let c = build(vec![8, 6], 5, 100);
        let n = c.tree().node_count();
        let ids = Ids::random(n, 5);
        let x = lcl_core::landscape::efficiency_x(c.delta(), 2);
        let gammas = lcl_core::params::poly_gammas(n, x, 2);
        let run = apoly(c.tree(), c.kinds(), 2, 2, &gammas, &ids);
        verify_run(&c, 2, 2, &run);
    }

    #[test]
    fn copy_nodes_wait_for_their_anchor() {
        let c = build(vec![10, 8], 5, 120);
        let n = c.tree().node_count();
        let ids = Ids::random(n, 7);
        let run = apoly(c.tree(), c.kinds(), 2, 2, &[4], &ids);
        verify_run(&c, 2, 2, &run);
        // Every copying weight node terminates strictly after some active
        // neighbor of its gadget anchor.
        for v in 0..n {
            if let WeightedOutput::Copy(_) = run.outputs[v] {
                let (anchor, _) = c.weight_anchor(v).expect("copy nodes are weight nodes");
                assert!(
                    run.rounds[v] > run.rounds[anchor],
                    "copy node {v} at {} vs active anchor {anchor} at {}",
                    run.rounds[v],
                    run.rounds[anchor]
                );
            }
        }
    }

    #[test]
    fn weight_heavy_instance_has_waiting_mass() {
        // With long level-1 paths (which decline late) and lots of weight
        // on level 2, the weight nodes' rounds must reflect the level-2
        // coloring time.
        let c = build(vec![30, 6], 5, 400);
        let n = c.tree().node_count();
        let ids = Ids::random(n, 9);
        let gamma = 6;
        let run = apoly(c.tree(), c.kinds(), 2, 2, &[gamma], &ids);
        verify_run(&c, 2, 2, &run);
        let copying: Vec<usize> = (0..n)
            .filter(|&v| matches!(run.outputs[v], WeightedOutput::Copy(_)))
            .collect();
        assert!(!copying.is_empty());
        // Level-2 nodes color in phase 2, i.e. after 2γ + k rounds; their
        // copy components must wait at least as long.
        for &v in &copying {
            assert!(run.rounds[v] > (2 * gamma) as u64, "node {v}");
        }
    }

    #[test]
    fn all_weight_nodes_decide_with_zero_weight() {
        let c = build(vec![5, 4], 5, 0);
        let n = c.tree().node_count();
        let ids = Ids::random(n, 2);
        let run = apoly(c.tree(), c.kinds(), 2, 2, &[3], &ids);
        verify_run(&c, 2, 2, &run);
        assert_eq!(run.len(), n);
    }
}
