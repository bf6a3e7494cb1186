//! The algorithm `A_poly` for `Π^{2.5}_{Δ,d,k}` (Section 7.1), and the
//! weighted-construction skeleton it shares with [`a35`](crate::a35).
//!
//! Active components run the generic coloring algorithm with
//! `γ_i = n^{α_i}` (the optimal exponents of Lemma 33); weight components
//! solve the `d`-free weight problem with algorithm `A`; copy components
//! then flood the output of their adjacent active node as secondary
//! output. A weight node in the copy component of anchor `u` terminates
//! `O(log n) + depth` rounds after `u`'s active neighbor decides — which is
//! exactly how weight turns active-node latency into node-averaged cost.

use crate::dfree_a::{algorithm_a, CopyComponent};
use crate::generic_coloring::{generic_coloring_masked, MaskedRun};
use crate::run::AlgorithmRun;
use lcl_core::coloring::Variant;
use lcl_core::dfree::{DfreeInput, DfreeOutput};
use lcl_core::weighted::WeightedOutput;
use lcl_graph::levels::Levels;
use lcl_graph::weighted::NodeKind;
use lcl_graph::{NodeMask, Tree};
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
    // Algorithm A is uniform: every node and every copy component is
    // decided at its collection radius.
    let n = tree.node_count();
    let weight_side = |mask: &NodeMask, input: &[DfreeInput]| {
        let run = algorithm_a(tree, mask, input, d, n);
        (run.outputs, vec![run.radius; n], run.copy_components)
    };
    run_weighted(tree, kinds, k, gammas, ids, Variant::TwoHalf, weight_side)
}

/// What a `d`-free weight solver hands the skeleton: each weight node's
/// output (`Decline` and `Connect` are taken as they are; copy members may
/// be `None`), the termination rounds of the decided nodes, and the copy
/// components.
pub(crate) type WeightSide = (Vec<Option<DfreeOutput>>, Vec<u64>, Vec<CopyComponent>);

/// The weighted-construction skeleton of Sections 7.1 and 8.2
/// (Definition 22): [`color_active_side`] colors the active components,
/// `weight_side` solves the `d`-free weight problem on the weight subgraph
/// (given its mask and the `Adjacent`/`Weight` inputs), and every copy
/// component floods the output of its anchor's active neighbor.
///
/// A member at depth `t` terminates at
/// `max(round(source), formed_round) + 1 + t`: the anchor learns the output
/// one round after the source has decided and the component is fixed,
/// whichever comes last, and the output then spreads one hop per round.
pub(crate) fn run_weighted(
    tree: &Tree,
    kinds: &[NodeKind],
    k: usize,
    gammas: &[usize],
    ids: &Ids,
    variant: Variant,
    weight_side: impl FnOnce(&NodeMask, &[DfreeInput]) -> WeightSide,
) -> AlgorithmRun<WeightedOutput> {
    assert_eq!(gammas.len(), k - 1, "need k - 1 phase parameters");
    let n = tree.node_count();
    assert_eq!(kinds.len(), n, "kinds must cover all nodes");
    let active = color_active_side(tree, kinds, k, variant, gammas, ids);
    let mut outputs: Vec<Option<WeightedOutput>> = active
        .outputs
        .iter()
        .map(|&c| c.map(WeightedOutput::Active))
        .collect();
    let mut rounds = active.rounds;

    let weight_mask =
        NodeMask::from_nodes(n, tree.nodes().filter(|&v| kinds[v] == NodeKind::Weight));
    let input: Vec<DfreeInput> = tree
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
    let (decided, decided_rounds, components) = weight_side(&weight_mask, &input);
    for v in weight_mask.iter() {
        outputs[v] = match decided[v] {
            Some(DfreeOutput::Decline) => Some(WeightedOutput::Decline),
            Some(DfreeOutput::Connect) => Some(WeightedOutput::Connect),
            _ => continue, // a copy member, resolved below
        };
        rounds[v] = decided_rounds[v];
    }

    for comp in &components {
        // The active neighbor whose output is copied: the one that decides
        // first (ties broken by smaller ID) — any choice satisfies
        // property 5 of Definition 22.
        let source = tree
            .neighbors(comp.anchor)
            .iter()
            .map(|&w| w as usize)
            .filter(|&w| kinds[w] == NodeKind::Active)
            .min_by_key(|&w| (rounds[w], ids.id(w)))
            .expect("an A-labeled weight node has an active neighbor");
        let color = active.outputs[source].expect("active nodes decided above");
        let start = rounds[source].max(comp.formed_round) + 1;
        for &(u, depth) in &comp.members {
            outputs[u] = Some(WeightedOutput::Copy(color));
            rounds[u] = start + u64::from(depth);
        }
    }

    let outputs = outputs
        .into_iter()
        .map(|o| o.expect("every node decided"))
        .collect();
    AlgorithmRun::new(outputs, rounds)
}

/// The active side of every weighted construction: the generic coloring
/// (`variant`, `gammas`) on the subgraph the `Active` nodes induce, with
/// its masked peeling. Peeling, paths and exemption waves stay inside a
/// component, so every component runs as it would alone. Entries of the
/// other nodes are `None`.
pub(crate) fn color_active_side(
    tree: &Tree,
    kinds: &[NodeKind],
    k: usize,
    variant: Variant,
    gammas: &[usize],
    ids: &Ids,
) -> MaskedRun {
    let n = tree.node_count();
    let active_mask =
        NodeMask::from_nodes(n, tree.nodes().filter(|&v| kinds[v] == NodeKind::Active));
    let levels = Levels::compute_masked(tree, &active_mask, k);
    generic_coloring_masked(tree, &active_mask, &levels, variant, gammas, ids)
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
