//! The `k`-hierarchical weight-augmented 2½-coloring problem
//! (Definition 67, Section 10).
//!
//! The "more efficient weight" construction: weight nodes must solve the
//! `k`-hierarchical labeling problem (worst case `Θ(n^{1/k})`, Lemma 65)
//! instead of the `O(log n)`-solvable `d`-free weight problem, which makes
//! the weight gadgets perfectly efficient (`x = 1`, Lemma 68) and realizes
//! node-averaged complexity `Θ(n^{1/k})` exactly (Lemma 69).

use crate::coloring::{ColorLabel, HierarchicalColoring, Variant};
use crate::labeling::{HierarchicalLabeling, LabelingOutput};
use crate::problem::{check_labeling_shape, LclProblem, Violation};
use lcl_graph::levels::Levels;
use lcl_graph::weighted::NodeKind;
use lcl_graph::{NodeId, NodeMask, Tree};
use std::fmt;

/// Secondary output of a weight node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecondaryOutput {
    /// Copy of an active node's coloring output.
    Color(ColorLabel),
    /// Refusal; permitted only for compress-labeled nodes with no active
    /// neighbor (rule 5).
    Decline,
}

impl fmt::Display for SecondaryOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecondaryOutput::Color(c) => write!(f, "{c}"),
            SecondaryOutput::Decline => f.write_str("Decline"),
        }
    }
}

/// Output alphabet of the weight-augmented problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AugmentedOutput {
    /// An active node's 2½-coloring label.
    Active(ColorLabel),
    /// A weight node's labeling output plus secondary output.
    Weight {
        /// The hierarchical-labeling part (label + orientation).
        labeling: LabelingOutput,
        /// The secondary output.
        secondary: SecondaryOutput,
    },
}

/// The `k`-hierarchical weight-augmented 2½-coloring LCL (Definition 67).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightAugmented {
    k: usize,
}

impl WeightAugmented {
    /// Creates the problem for `k ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=127`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!((1..=127).contains(&k), "k must be in 1..=127");
        WeightAugmented { k }
    }

    /// The hierarchy depth `k` (shared by the coloring and the labeling).
    pub fn k(&self) -> usize {
        self.k
    }
}

impl LclProblem for WeightAugmented {
    type Input = NodeKind;
    type Output = AugmentedOutput;

    fn name(&self) -> String {
        format!("{}-hierarchical weight-augmented 2.5-coloring", self.k)
    }

    fn checkability_radius(&self) -> usize {
        self.k + 1
    }

    fn verify(
        &self,
        tree: &Tree,
        input: &[Self::Input],
        output: &[Self::Output],
    ) -> Result<(), Violation> {
        check_labeling_shape(tree, input, output);
        let n = tree.node_count();
        let active_mask =
            NodeMask::from_nodes(n, tree.nodes().filter(|&v| input[v] == NodeKind::Active));
        let weight_mask =
            NodeMask::from_nodes(n, tree.nodes().filter(|&v| input[v] == NodeKind::Weight));

        // Alphabet discipline.
        for v in tree.nodes() {
            match (input[v], &output[v]) {
                (NodeKind::Active, AugmentedOutput::Active(_)) => {}
                (NodeKind::Weight, AugmentedOutput::Weight { .. }) => {}
                (NodeKind::Active, _) => {
                    return Err(Violation::new(v, "active node with weight output"));
                }
                (NodeKind::Weight, _) => {
                    return Err(Violation::new(v, "weight node with active output"));
                }
            }
        }
        let active_color = |v: NodeId| match output[v] {
            AugmentedOutput::Active(c) => c,
            _ => unreachable!("checked by alphabet discipline"),
        };
        let weight_out = |v: NodeId| match output[v] {
            AugmentedOutput::Weight {
                labeling,
                secondary,
            } => (labeling, secondary),
            _ => unreachable!("checked by alphabet discipline"),
        };

        // Rule 1: active components solve k-hierarchical 2½-coloring, with
        // levels computed inside each component.
        let coloring = HierarchicalColoring::new(self.k, Variant::TwoHalf);
        let levels = Levels::compute_masked(tree, &active_mask, self.k);
        coloring.verify_masked(tree, &active_mask, &levels, active_color)?;

        // Rule 2: weight components solve k-hierarchical labeling.
        let labeling = HierarchicalLabeling::new(self.k);
        labeling.verify_masked(tree, &weight_mask, |v| weight_out(v).0)?;

        // Rules 3-5 per weight node.
        for v in weight_mask.iter() {
            let (lab, secondary) = weight_out(v);
            let active_neighbors: Vec<NodeId> = tree
                .neighbors(v)
                .iter()
                .map(|&w| w as usize)
                .filter(|&w| input[w] == NodeKind::Active)
                .collect();
            let out_neighbor: Option<NodeId> = lab.out_port.map(|p| tree.neighbors(v)[p] as usize);

            if !active_neighbors.is_empty() {
                // Rule 3: orient toward exactly one active neighbor and copy
                // its output.
                let Some(u) = out_neighbor else {
                    return Err(Violation::new(
                        v,
                        "weight node adjacent to active nodes orients nothing",
                    ));
                };
                if input[u] != NodeKind::Active {
                    return Err(Violation::new(
                        v,
                        "weight node adjacent to an active node must orient toward one",
                    ));
                }
                if secondary != SecondaryOutput::Color(active_color(u)) {
                    return Err(Violation::new(
                        v,
                        format!(
                            "secondary {secondary} differs from oriented active neighbor's {}",
                            active_color(u)
                        ),
                    ));
                }
            }

            // Rule 4: a weight node pointing at another weight node copies
            // its secondary output, unless one of the two legitimately
            // declines (Lemma 68 shows compress children decline while the
            // rake chain copies).
            if let Some(u) = out_neighbor {
                if input[u] == NodeKind::Weight {
                    let (_, sec_u) = weight_out(u);
                    if secondary != SecondaryOutput::Decline
                        && sec_u != SecondaryOutput::Decline
                        && secondary != sec_u
                    {
                        return Err(Violation::new(
                            v,
                            format!("pointing weight node has secondary {secondary} != {sec_u}"),
                        ));
                    }
                }
            }

            // Rule 5: Decline iff compress label and no active neighbor...
            // (the "only if" direction); compress nodes away from active
            // nodes must decline (the "if" direction).
            match secondary {
                SecondaryOutput::Decline => {
                    if !lab.label.is_compress() {
                        return Err(Violation::new(
                            v,
                            "rake-labeled weight node declines its secondary output",
                        ));
                    }
                    if !active_neighbors.is_empty() {
                        return Err(Violation::new(
                            v,
                            "weight node adjacent to an active node declines",
                        ));
                    }
                }
                SecondaryOutput::Color(_) => {
                    if lab.label.is_compress() && active_neighbors.is_empty() {
                        return Err(Violation::new(
                            v,
                            "compress node without active neighbor must decline",
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::HierLabel::{Compress, Rake};
    use lcl_graph::TreeBuilder;
    use ColorLabel::{Black, White};
    use NodeKind::{Active, Weight};

    fn port_of(tree: &Tree, v: NodeId, target: NodeId) -> usize {
        tree.neighbors(v)
            .iter()
            .position(|&w| w as usize == target)
            .unwrap()
    }

    fn w(
        label: crate::labeling::HierLabel,
        port: Option<usize>,
        s: SecondaryOutput,
    ) -> AugmentedOutput {
        AugmentedOutput::Weight {
            labeling: LabelingOutput::new(label, port),
            secondary: s,
        }
    }

    /// Active edge 0-1 with a weight path 2-3 hanging off node 1.
    fn instance() -> (Tree, Vec<NodeKind>) {
        let mut b = TreeBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        (b.build().unwrap(), vec![Active, Active, Weight, Weight])
    }

    #[test]
    fn rake_chain_copies_active_output() {
        let (t, input) = instance();
        let p = WeightAugmented::new(1);
        let out = vec![
            AugmentedOutput::Active(White),
            AugmentedOutput::Active(Black),
            w(
                Rake(1),
                Some(port_of(&t, 2, 1)),
                SecondaryOutput::Color(Black),
            ),
            w(
                Rake(1),
                Some(port_of(&t, 3, 2)),
                SecondaryOutput::Color(Black),
            ),
        ];
        assert!(p.verify(&t, &input, &out).is_ok());
    }

    #[test]
    fn weight_node_must_orient_to_active() {
        let (t, input) = instance();
        let p = WeightAugmented::new(1);
        // Node 2 orients toward node 3 (weight) despite active neighbor 1.
        let out = vec![
            AugmentedOutput::Active(White),
            AugmentedOutput::Active(Black),
            w(
                Rake(1),
                Some(port_of(&t, 2, 3)),
                SecondaryOutput::Color(Black),
            ),
            w(
                Rake(1),
                Some(port_of(&t, 3, 2)),
                SecondaryOutput::Color(Black),
            ),
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("orient toward one"), "{err}");
    }

    #[test]
    fn secondary_must_match_oriented_active() {
        let (t, input) = instance();
        let p = WeightAugmented::new(1);
        let out = vec![
            AugmentedOutput::Active(White),
            AugmentedOutput::Active(Black),
            w(
                Rake(1),
                Some(port_of(&t, 2, 1)),
                SecondaryOutput::Color(White), // should be Black
            ),
            w(
                Rake(1),
                Some(port_of(&t, 3, 2)),
                SecondaryOutput::Color(White),
            ),
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("differs from oriented"), "{err}");
    }

    #[test]
    fn pointing_chain_must_propagate() {
        let (t, input) = instance();
        let p = WeightAugmented::new(1);
        let out = vec![
            AugmentedOutput::Active(White),
            AugmentedOutput::Active(Black),
            w(
                Rake(1),
                Some(port_of(&t, 2, 1)),
                SecondaryOutput::Color(Black),
            ),
            w(
                Rake(1),
                Some(port_of(&t, 3, 2)),
                SecondaryOutput::Color(White), // breaks the chain
            ),
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("pointing weight node"), "{err}");
    }

    #[test]
    fn rake_node_cannot_decline() {
        let (t, input) = instance();
        let p = WeightAugmented::new(1);
        let out = vec![
            AugmentedOutput::Active(White),
            AugmentedOutput::Active(Black),
            w(
                Rake(1),
                Some(port_of(&t, 2, 1)),
                SecondaryOutput::Color(Black),
            ),
            w(Rake(1), Some(port_of(&t, 3, 2)), SecondaryOutput::Decline),
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("rake-labeled"), "{err}");
    }

    #[test]
    fn compress_run_declines_away_from_active() {
        // Active 0; weight path 1..=6; compress interior with k = 2.
        let mut b = TreeBuilder::new(7);
        for v in 1..7 {
            b.add_edge(v - 1, v);
        }
        let t = b.build().unwrap();
        let input = vec![Active, Weight, Weight, Weight, Weight, Weight, Weight];
        let p = WeightAugmented::new(2);
        let out = vec![
            AugmentedOutput::Active(White),
            // Node 1: rake R2 adjacent to active; orients to 0; copies W.
            w(
                Rake(2),
                Some(port_of(&t, 1, 0)),
                SecondaryOutput::Color(White),
            ),
            // Nodes 2..=5: compress C1 path; endpoints orient outward to
            // rake neighbors; all decline (no active neighbors).
            w(
                Compress(1),
                Some(port_of(&t, 2, 1)),
                SecondaryOutput::Decline,
            ),
            w(Compress(1), None, SecondaryOutput::Decline),
            w(Compress(1), None, SecondaryOutput::Decline),
            w(
                Compress(1),
                Some(port_of(&t, 5, 6)),
                SecondaryOutput::Decline,
            ),
            // Node 6: rake R2 sink... but rule 5 forces a Color secondary;
            // with no active neighbor any color works? Rule 4: node 5
            // (Decline) points at it — exempted.
            w(Rake(2), None, SecondaryOutput::Color(White)),
        ];
        assert!(
            p.verify(&t, &input, &out).is_ok(),
            "{:?}",
            p.verify(&t, &input, &out)
        );
    }

    #[test]
    fn compress_near_active_cannot_decline() {
        let (t, input) = instance();
        let p = WeightAugmented::new(2);
        // Node 2 (compress) is adjacent to active node 1 but declines its
        // secondary output; rule 3 already catches the mismatch with the
        // oriented active neighbor's output.
        let out = vec![
            AugmentedOutput::Active(White),
            AugmentedOutput::Active(Black),
            w(
                Compress(1),
                Some(port_of(&t, 2, 1)),
                SecondaryOutput::Decline,
            ),
            w(
                Rake(1),
                Some(port_of(&t, 3, 2)),
                SecondaryOutput::Color(Black),
            ),
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("differs from oriented"), "{err}");
    }

    #[test]
    fn active_coloring_still_checked() {
        let (t, input) = instance();
        let p = WeightAugmented::new(1);
        let out = vec![
            AugmentedOutput::Active(White),
            AugmentedOutput::Active(White), // improper
            w(
                Rake(1),
                Some(port_of(&t, 2, 1)),
                SecondaryOutput::Color(White),
            ),
            w(
                Rake(1),
                Some(port_of(&t, 3, 2)),
                SecondaryOutput::Color(White),
            ),
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("both W"), "{err}");
    }

    #[test]
    fn alphabet_discipline() {
        let (t, input) = instance();
        let p = WeightAugmented::new(1);
        let out = vec![
            AugmentedOutput::Active(White),
            w(Rake(1), None, SecondaryOutput::Decline),
            w(Rake(1), Some(0), SecondaryOutput::Color(White)),
            w(Rake(1), Some(0), SecondaryOutput::Color(White)),
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("active node with weight output"), "{err}");
    }

    #[test]
    fn name_and_accessors() {
        let p = WeightAugmented::new(2);
        assert!(p.name().contains("weight-augmented"));
        assert_eq!(p.k(), 2);
        assert_eq!(p.checkability_radius(), 3);
    }
}
