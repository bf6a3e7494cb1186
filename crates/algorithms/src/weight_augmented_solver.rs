//! Solver for `k`-hierarchical weight-augmented 2½-coloring
//! (Definition 67, Lemma 69).
//!
//! Active components run the generic 2½ algorithm with the `x = 1` phase
//! parameters `γ_i = n^{1/k}` (with `x = 1` every `α_i = 1/k`). Weight
//! components solve the `k`-hierarchical labeling problem via Lemma 65;
//! rake-labeled chains then copy the adjacent active node's output as
//! secondary output (one hop per round), while compress-labeled nodes
//! decline — matching Lemma 68's `Ω(w)` copying mass, i.e. weight
//! efficiency `x = 1`.
//!
//! The active side is the one [`apoly`](crate::apoly::apoly) and
//! [`a35`](crate::a35::a35) run (`color_active_side`); the weight side is
//! this solver's own, since its secondary outputs follow the labeling's
//! orientation rather than `d`-free copy components.

use crate::apoly::color_active_side;
use crate::labeling_solver::solve_hierarchical_labeling_rooted;
use crate::run::AlgorithmRun;
use lcl_core::coloring::{ColorLabel, Variant};
use lcl_core::labeling::LabelingOutput;
use lcl_core::weight_augmented::{AugmentedOutput, SecondaryOutput};
use lcl_graph::weighted::NodeKind;
use lcl_graph::{extract_components, NodeMask, Tree};
use lcl_local::identifiers::Ids;
use lcl_local::math::powf_round;

/// Runs the weight-augmented solver.
///
/// Weight components must hang off active nodes by a single attachment
/// node (the shape of the paper's constructions): the attachment node is
/// the component's labeling root and re-orients toward its active
/// neighbor, as Definition 67's rule 3 requires.
///
/// # Panics
///
/// Panics if a weight node adjacent to an active node would need its
/// orientation budget for the labeling itself (cannot happen for gadget
/// shaped components; see module docs), or if `k == 0`.
pub fn solve_weight_augmented(
    tree: &Tree,
    kinds: &[NodeKind],
    k: usize,
    ids: &Ids,
) -> AlgorithmRun<AugmentedOutput> {
    assert!(k >= 1, "k must be at least 1");
    let n = tree.node_count();
    assert_eq!(kinds.len(), n, "kinds must cover all nodes");

    // --- Active side: generic 2½ with x = 1 parameters. ---
    let gamma = powf_round(n as f64, 1.0 / k as f64);
    let gammas = vec![gamma.max(1); k - 1];
    let active = color_active_side(tree, kinds, k, Variant::TwoHalf, &gammas, ids);
    let mut outputs: Vec<Option<AugmentedOutput>> = active
        .outputs
        .iter()
        .map(|&c| c.map(AugmentedOutput::Active))
        .collect();
    let mut rounds = active.rounds;

    // --- Weight side: per-component hierarchical labeling + secondaries. ---
    let weight_mask =
        NodeMask::from_nodes(n, tree.nodes().filter(|&v| kinds[v] == NodeKind::Weight));
    for comp in extract_components(tree, &weight_mask) {
        let (sub, mapping) = (comp.tree, comp.nodes);
        // Root the labeling at the attachment node (the component node
        // adjacent to an active node), so its orientation stays free for
        // Definition 67's rule 3.
        let attachment_local = mapping.iter().position(|&global| {
            tree.neighbors(global)
                .iter()
                .any(|&w| kinds[w as usize] == NodeKind::Active)
        });
        let solution = solve_hierarchical_labeling_rooted(&sub, k, attachment_local);

        // Translate ports back to the full tree and apply rule 3: nodes
        // adjacent to an active node re-orient toward it.
        let mut labeling: Vec<LabelingOutput> = Vec::with_capacity(mapping.len());
        for (local, &global) in mapping.iter().enumerate() {
            let out = solution.run.outputs[local];
            let port = out.out_port.map(|p| {
                let local_target = sub.neighbors(local)[p] as usize;
                let global_target = mapping[local_target];
                tree.neighbors(global)
                    .iter()
                    .position(|&w| w as usize == global_target)
                    .expect("mapped neighbor exists")
            });
            labeling.push(LabelingOutput::new(out.label, port));
        }
        for (local, &global) in mapping.iter().enumerate() {
            let active_neighbor = tree
                .neighbors(global)
                .iter()
                .map(|&w| w as usize)
                .filter(|&w| kinds[w] == NodeKind::Active)
                .min_by_key(|&w| ids.id(w));
            if let Some(a) = active_neighbor {
                assert!(
                    labeling[local].out_port.is_none(),
                    "attachment node {global} needs its orientation for the labeling; \
                     weight components must hang off active nodes at their labeling root"
                );
                let port = tree
                    .neighbors(global)
                    .iter()
                    .position(|&w| w as usize == a)
                    .expect("active neighbor exists");
                labeling[local].out_port = Some(port);
            }
        }

        // Secondary outputs: process along oriented chains. Roots are
        // nodes pointing at an active node (copy its color), nodes with no
        // out-edge, and compress-labeled nodes (which decline).
        let mut secondary: Vec<Option<SecondaryOutput>> = vec![None; mapping.len()];
        let mut ready: Vec<u64> = vec![0; mapping.len()];
        // In-pointers within the component.
        let mut in_pointers: Vec<Vec<usize>> = vec![Vec::new(); mapping.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (local, &global) in mapping.iter().enumerate() {
            let assign_round = solution.run.rounds[local];
            let target = labeling[local]
                .out_port
                .map(|p| tree.neighbors(global)[p] as usize);
            match target {
                Some(t) if kinds[t] == NodeKind::Active => {
                    let color = active.outputs[t].expect("active nodes decided above");
                    secondary[local] = Some(SecondaryOutput::Color(color));
                    ready[local] = rounds[t].max(assign_round) + 1;
                    roots.push(local);
                }
                Some(_) => {
                    // A weight target is the labeling's own out-edge.
                    let p = solution.run.outputs[local].out_port.expect("own out-edge");
                    in_pointers[sub.neighbors(local)[p] as usize].push(local);
                }
                None => {
                    // No out-edge: free choice (rake) or decline (compress).
                    secondary[local] = Some(if labeling[local].label.is_compress() {
                        SecondaryOutput::Decline
                    } else {
                        SecondaryOutput::Color(ColorLabel::White)
                    });
                    ready[local] = assign_round;
                    roots.push(local);
                }
            }
        }
        // Compress nodes decline regardless of their target (rule 5);
        // their dependents may then pick freely.
        for (local, lab) in labeling.iter().enumerate() {
            if lab.label.is_compress() && secondary[local].is_none() {
                secondary[local] = Some(SecondaryOutput::Decline);
                ready[local] = solution.run.rounds[local];
                roots.push(local);
            }
        }
        // Propagate down the in-pointer forest.
        let mut queue: std::collections::VecDeque<usize> = roots.into();
        while let Some(u) = queue.pop_front() {
            let su = secondary[u].expect("processed nodes have secondaries");
            for &w in &in_pointers[u] {
                if secondary[w].is_some() {
                    continue; // compress nodes were pre-resolved
                }
                secondary[w] = Some(match su {
                    // Pointing at a declining target frees the choice.
                    SecondaryOutput::Decline => SecondaryOutput::Color(ColorLabel::White),
                    color => color,
                });
                ready[w] = ready[u].max(solution.run.rounds[w]) + 1;
                queue.push_back(w);
            }
            // Dependents of pre-resolved compress nodes still need rounds.
            for &w in &in_pointers[u] {
                if ready[w] == 0 && w != u {
                    ready[w] = ready[u].max(solution.run.rounds[w]) + 1;
                }
            }
        }

        for (local, &global) in mapping.iter().enumerate() {
            outputs[global] = Some(AugmentedOutput::Weight {
                labeling: labeling[local],
                secondary: secondary[local]
                    .unwrap_or_else(|| panic!("node {global} missed secondary propagation")),
            });
            rounds[global] = ready[local].max(solution.run.rounds[local]);
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
    use lcl_core::weight_augmented::WeightAugmented;
    use lcl_graph::weighted::{WeightedConstruction, WeightedParams};

    fn build(lengths: Vec<usize>, delta: usize, w: usize) -> WeightedConstruction {
        WeightedConstruction::new(&WeightedParams {
            lengths,
            delta,
            weight_per_level: w,
        })
        .unwrap()
    }

    fn solve_and_verify(
        c: &WeightedConstruction,
        k: usize,
        seed: u64,
    ) -> AlgorithmRun<AugmentedOutput> {
        let n = c.tree().node_count();
        let ids = Ids::random(n, seed);
        let run = solve_weight_augmented(c.tree(), c.kinds(), k, &ids);
        WeightAugmented::new(k)
            .verify(c.tree(), c.kinds(), &run.outputs)
            .unwrap_or_else(|e| panic!("invalid weight-augmented output: {e}"));
        run
    }

    #[test]
    fn small_construction_verifies() {
        let c = build(vec![5, 4], 5, 30);
        solve_and_verify(&c, 2, 3);
    }

    #[test]
    fn three_levels_verify() {
        let c = build(vec![3, 4, 4], 5, 50);
        solve_and_verify(&c, 3, 7);
    }

    #[test]
    fn zero_weight_reduces_to_coloring() {
        let c = build(vec![6, 6], 5, 0);
        let run = solve_and_verify(&c, 2, 1);
        assert!(run
            .outputs
            .iter()
            .all(|o| matches!(o, AugmentedOutput::Active(_))));
    }

    #[test]
    fn gadget_mass_waits_for_anchor_lemma_68() {
        // Lemma 68: an Ω(1) fraction of every gadget must copy the anchor's
        // output and hence wait for it.
        let c = build(vec![12, 10], 5, 600);
        let run = solve_and_verify(&c, 2, 5);
        let n = c.tree().node_count();
        let mut copying = 0usize;
        let mut waiting = 0usize;
        for v in c.active_count()..n {
            if let AugmentedOutput::Weight {
                secondary: SecondaryOutput::Color(_),
                ..
            } = run.outputs[v]
            {
                copying += 1;
                let (anchor, _) = c.weight_anchor(v).unwrap();
                if run.rounds[v] > run.rounds[anchor] {
                    waiting += 1;
                }
            }
        }
        let weight_total = c.weight_count();
        assert!(
            copying * 2 >= weight_total,
            "only {copying}/{weight_total} weight nodes copy (x = 1 needs Ω(w))"
        );
        assert!(
            waiting * 4 >= copying,
            "{waiting}/{copying} copying nodes wait for their anchor"
        );
    }

    #[test]
    fn secondary_matches_anchor_output() {
        let c = build(vec![6, 5], 5, 80);
        let run = solve_and_verify(&c, 2, 9);
        for g in c.gadgets() {
            let anchor_color = match run.outputs[g.anchor] {
                AugmentedOutput::Active(col) => col,
                _ => unreachable!(),
            };
            // The gadget root copies the anchor's output exactly.
            match run.outputs[g.root] {
                AugmentedOutput::Weight {
                    secondary: SecondaryOutput::Color(col),
                    ..
                } => assert_eq!(col, anchor_color, "gadget root {}", g.root),
                other => panic!("gadget root {} got {other:?}", g.root),
            }
        }
    }
}
