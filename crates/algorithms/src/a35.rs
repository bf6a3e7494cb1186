//! The generic algorithm for `Π^{3.5}_{Δ,d,k}` (Section 8.2).
//!
//! Active components run the 3½ generic coloring with phase parameters
//! `γ_i = (log* n)^{α_i}`, where the `α_i` are the optimal exponents of
//! Lemma 36 evaluated at the upper-bound efficiency factor
//! `x' = log(Δ-d+1)/log(Δ-1)`. Weight components run the adapted fast
//! decomposition (Section 8.1): declines cost `O(1)` node-averaged rounds
//! (Lemma 56), while the reserve-pruned copy components `C'(v)` of
//! Lemmas 50–52 wait for their adjacent active node and then flood its
//! output — the `W_i` sets of Lemmas 54–55.
//!
//! Everything but the weight side is [`apoly`](crate::apoly::apoly)'s
//! skeleton: the same active side, inputs and flood. Each decline and
//! connect keeps its own round, and a copy component floods from the
//! round it forms, so case 1 of Section 8.2 (the active neighbor already
//! decided when the component formed) and case 2 (the component waits
//! for it) share one accounting.

use crate::apoly::run_weighted;
use crate::fast_decomposition::fast_dfree;
use crate::run::AlgorithmRun;
use lcl_core::coloring::Variant;
use lcl_core::dfree::DfreeInput;
use lcl_core::weighted::WeightedOutput;
use lcl_graph::weighted::NodeKind;
use lcl_graph::{NodeMask, Tree};
use lcl_local::identifiers::Ids;

/// Runs the `Π^{3.5}` algorithm on an `Active`/`Weight`-labeled tree.
///
/// Parameters mirror [`apoly`](crate::apoly::apoly): `k` and `d` are the
/// problem parameters, `gammas` the `k - 1` phase budgets (use
/// [`lcl_core::params::log_star_gammas`] with `x'` for the paper's
/// choice).
///
/// The output verifies against
/// [`WeightedColoring`](lcl_core::weighted::WeightedColoring) with
/// `Variant::ThreeHalf`.
///
/// # Panics
///
/// Panics if `gammas.len() != k - 1` or `d == 0`.
pub fn a35(
    tree: &Tree,
    kinds: &[NodeKind],
    k: usize,
    d: usize,
    gammas: &[usize],
    ids: &Ids,
) -> AlgorithmRun<WeightedOutput> {
    let weight_side = |mask: &NodeMask, input: &[DfreeInput]| {
        let fast = fast_dfree(tree, mask, input, d);
        (fast.outputs, fast.rounds, fast.components)
    };
    run_weighted(tree, kinds, k, gammas, ids, Variant::ThreeHalf, weight_side)
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
        let problem =
            WeightedColoring::new(Variant::ThreeHalf, construction.delta(), d, k).unwrap();
        problem
            .verify(construction.tree(), construction.kinds(), &run.outputs)
            .unwrap_or_else(|e| panic!("invalid Π^3.5 output: {e}"));
    }

    #[test]
    fn small_construction_verifies() {
        let c = build(vec![6, 5], 6, 50);
        let n = c.tree().node_count();
        let ids = Ids::random(n, 21);
        let run = a35(c.tree(), c.kinds(), 2, 3, &[3], &ids);
        verify_run(&c, 2, 3, &run);
    }

    #[test]
    fn three_level_construction_verifies() {
        let c = build(vec![3, 4, 5], 6, 80);
        let n = c.tree().node_count();
        let ids = Ids::random(n, 8);
        let run = a35(c.tree(), c.kinds(), 3, 3, &[2, 3], &ids);
        verify_run(&c, 3, 3, &run);
    }

    #[test]
    fn paper_parameters_verify() {
        let c = build(vec![4, 200], 6, 800);
        let n = c.tree().node_count();
        let ids = Ids::random(n, 5);
        let x_prime = lcl_core::landscape::efficiency_x_prime(c.delta(), 3).min(1.0);
        let gammas = lcl_core::params::log_star_gammas(n, x_prime, 2);
        let run = a35(c.tree(), c.kinds(), 2, 3, &gammas, &ids);
        verify_run(&c, 2, 3, &run);
    }

    #[test]
    fn copying_weight_nodes_wait_for_actives() {
        let c = build(vec![8, 40], 6, 600);
        let n = c.tree().node_count();
        let ids = Ids::random(n, 9);
        let run = a35(c.tree(), c.kinds(), 2, 3, &[3], &ids);
        verify_run(&c, 2, 3, &run);
        let mut copies = 0;
        for v in 0..n {
            if let WeightedOutput::Copy(_) = run.outputs[v] {
                copies += 1;
                let (anchor, _) = c.weight_anchor(v).unwrap();
                assert!(
                    run.rounds[v] > run.rounds[anchor],
                    "copy node {v} should outlast active anchor {anchor}"
                );
            }
        }
        assert!(copies > 0, "some weight nodes must copy");
    }

    #[test]
    fn declining_weight_mass_is_fast() {
        // Most weight nodes decline in O(1)-ish rounds (Lemma 56): compare
        // the median weight-node round to the worst active round.
        let c = build(vec![6, 120], 6, 2_000);
        let n = c.tree().node_count();
        let ids = Ids::random(n, 12);
        let run = a35(c.tree(), c.kinds(), 2, 3, &[3], &ids);
        verify_run(&c, 2, 3, &run);
        let mut weight_rounds: Vec<u64> = (c.active_count()..n)
            .filter(|&v| matches!(run.outputs[v], WeightedOutput::Decline))
            .map(|v| run.rounds[v])
            .collect();
        assert!(!weight_rounds.is_empty());
        weight_rounds.sort_unstable();
        let median = weight_rounds[weight_rounds.len() / 2];
        assert!(median <= 40, "median declining round {median}");
    }
}
