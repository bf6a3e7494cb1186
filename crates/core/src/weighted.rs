//! The weighted coloring problems `Π^{Z}_{Δ,d,k}` of Definition 22.
//!
//! Weight nodes attached to an active node must (mostly) *copy* the active
//! node's eventual output, which in any execution forces them to wait for
//! it — this is what turns weight into node-averaged running time. The
//! parameter `d` lets a bounded number of neighbors decline per copying
//! node, giving the efficiency factor `x = log(Δ-d-1)/log(Δ-1)` that the
//! density theorems tune.

use crate::coloring::{ColorLabel, HierarchicalColoring, Variant};
use crate::problem::{check_labeling_shape, LclProblem, Violation};
use lcl_graph::levels::Levels;
use lcl_graph::weighted::NodeKind;
use lcl_graph::{NodeMask, Tree};
use std::fmt;

/// Input alphabet of `Π^{Z}_{Δ,d,k}`: `Active` or `Weight`.
pub type WeightedInput = NodeKind;

/// Output alphabet of `Π^{Z}_{Δ,d,k}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightedOutput {
    /// An active node's output: a label of `k`-hierarchical `Z`-coloring.
    Active(ColorLabel),
    /// A weight node declines.
    Decline,
    /// A weight node lies on a connecting path.
    Connect,
    /// A weight node copies; the payload is its *secondary output*.
    Copy(ColorLabel),
}

impl fmt::Display for WeightedOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightedOutput::Active(c) => write!(f, "Active({c})"),
            WeightedOutput::Decline => f.write_str("Decline"),
            WeightedOutput::Connect => f.write_str("Connect"),
            WeightedOutput::Copy(c) => write!(f, "Copy({c})"),
        }
    }
}

/// The LCL `Π^{Z}_{Δ,d,k}` (Definition 22), `Z ∈ {2½, 3½}`.
///
/// # Examples
///
/// ```
/// use lcl_core::weighted::WeightedColoring;
/// use lcl_core::coloring::Variant;
///
/// let p = WeightedColoring::new(Variant::TwoHalf, 5, 2, 3)?;
/// assert!(p.efficiency_x() > 0.0 && p.efficiency_x() < 1.0);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightedColoring {
    variant: Variant,
    delta: usize,
    d: usize,
    k: usize,
}

impl WeightedColoring {
    /// Creates `Π^{Z}_{Δ,d,k}`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `Δ ≥ d + 3` and `k ≥ 1`, the parameter
    /// regime of the paper's theorems.
    pub fn new(variant: Variant, delta: usize, d: usize, k: usize) -> Result<Self, String> {
        if delta < d + 3 {
            return Err(format!("need Δ ≥ d + 3, got Δ = {delta}, d = {d}"));
        }
        if k == 0 {
            return Err("k must be at least 1".into());
        }
        Ok(WeightedColoring {
            variant,
            delta,
            d,
            k,
        })
    }

    /// The coloring variant `Z`.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The degree bound Δ of the weight gadgets.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// The decline budget `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The hierarchy depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The lower-bound efficiency factor
    /// `x = log(Δ - d - 1) / log(Δ - 1)` (Lemma 23).
    pub fn efficiency_x(&self) -> f64 {
        crate::landscape::efficiency_x(self.delta, self.d)
    }

    /// The upper-bound efficiency factor
    /// `x' = log(Δ - d + 1) / log(Δ - 1)` (Section 8).
    pub fn efficiency_x_prime(&self) -> f64 {
        crate::landscape::efficiency_x_prime(self.delta, self.d)
    }

    fn color_of(out: &WeightedOutput) -> Option<ColorLabel> {
        match out {
            WeightedOutput::Active(c) | WeightedOutput::Copy(c) => Some(*c),
            _ => None,
        }
    }
}

impl LclProblem for WeightedColoring {
    type Input = WeightedInput;
    type Output = WeightedOutput;

    fn name(&self) -> String {
        let z = match self.variant {
            Variant::TwoHalf => "2.5",
            Variant::ThreeHalf => "3.5",
        };
        format!("Pi^{z}_{{{},{},{}}}", self.delta, self.d, self.k)
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

        // Alphabet discipline: active nodes output Active(_), weight nodes
        // anything else.
        for v in tree.nodes() {
            match (input[v], &output[v]) {
                (NodeKind::Active, WeightedOutput::Active(_)) => {}
                (NodeKind::Active, other) => {
                    return Err(Violation::new(
                        v,
                        format!("active node outputs weight label {other}"),
                    ));
                }
                (NodeKind::Weight, WeightedOutput::Active(c)) => {
                    return Err(Violation::new(
                        v,
                        format!("weight node outputs active label {c}"),
                    ));
                }
                (NodeKind::Weight, _) => {}
            }
        }

        // Property 1: active components satisfy k-hierarchical Z-coloring,
        // with levels computed inside each component.
        let coloring = HierarchicalColoring::new(self.k, self.variant);
        let levels = Levels::compute_masked(tree, &active_mask, self.k);
        coloring.verify_masked(tree, &active_mask, &levels, |v| match output[v] {
            WeightedOutput::Active(c) => c,
            _ => unreachable!("active component holds active outputs"),
        })?;

        // Weight-node properties 2-5.
        for v in tree.nodes() {
            if input[v] != NodeKind::Weight {
                continue;
            }
            let has_active_neighbor = tree
                .neighbors(v)
                .iter()
                .any(|&w| input[w as usize] == NodeKind::Active);
            match output[v] {
                WeightedOutput::Decline => {
                    // Property 2: adjacency to an active node forbids Decline.
                    if has_active_neighbor {
                        return Err(Violation::new(
                            v,
                            "weight node adjacent to an active node outputs Decline",
                        ));
                    }
                }
                WeightedOutput::Connect => {
                    if has_active_neighbor {
                        // Property 2 allows Connect; fall through to 3.
                    }
                    // Property 3: ≥ 2 neighbors are active or Connect.
                    let supporters = tree
                        .neighbors(v)
                        .iter()
                        .filter(|&&w| {
                            let w = w as usize;
                            input[w] == NodeKind::Active || output[w] == WeightedOutput::Connect
                        })
                        .count();
                    if supporters < 2 {
                        return Err(Violation::new(
                            v,
                            format!(
                                "Connect weight node has {supporters} active/Connect \
                                 neighbors, needs 2"
                            ),
                        ));
                    }
                }
                WeightedOutput::Copy(secondary) => {
                    // Property 4: at most d declining neighbors.
                    let declines = tree
                        .neighbors(v)
                        .iter()
                        .filter(|&&w| output[w as usize] == WeightedOutput::Decline)
                        .count();
                    if declines > self.d {
                        return Err(Violation::new(
                            v,
                            format!(
                                "Copy node has {declines} declining neighbors > d = {}",
                                self.d
                            ),
                        ));
                    }
                    // Property 5a: with an active neighbor, the secondary
                    // output matches at least one active neighbor's output.
                    if has_active_neighbor {
                        let matched = tree.neighbors(v).iter().any(|&w| {
                            let w = w as usize;
                            input[w] == NodeKind::Active
                                && Self::color_of(&output[w]) == Some(secondary)
                        });
                        if !matched {
                            return Err(Violation::new(
                                v,
                                format!("Copy secondary {secondary} matches no active neighbor"),
                            ));
                        }
                    }
                    // Property 5b: adjacent Copy weight nodes agree.
                    for &w in tree.neighbors(v) {
                        let w = w as usize;
                        if input[w] == NodeKind::Weight {
                            if let WeightedOutput::Copy(other) = output[w] {
                                if other != secondary {
                                    return Err(Violation::new(
                                        v,
                                        format!(
                                            "adjacent Copy nodes disagree: {secondary} vs {other}"
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                }
                WeightedOutput::Active(_) => unreachable!("checked above"),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::generators::path;
    use lcl_graph::{Tree, TreeBuilder};
    use ColorLabel::*;
    use NodeKind::{Active, Weight};
    use WeightedOutput as O;

    fn problem() -> WeightedColoring {
        WeightedColoring::new(Variant::TwoHalf, 5, 2, 1).unwrap()
    }

    /// Active path 0-1, weight path 2-3 hanging from node 1: 1 - 2 - 3.
    fn small_instance() -> (Tree, Vec<WeightedInput>) {
        let mut b = TreeBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        (b.build().unwrap(), vec![Active, Active, Weight, Weight])
    }

    #[test]
    fn parameter_validation() {
        assert!(WeightedColoring::new(Variant::TwoHalf, 4, 2, 1).is_err());
        assert!(WeightedColoring::new(Variant::TwoHalf, 5, 2, 0).is_err());
        let p = problem();
        assert_eq!(p.delta(), 5);
        assert_eq!(p.d(), 2);
        assert_eq!(p.k(), 1);
        assert!(p.name().contains("2.5"));
        assert!(p.efficiency_x() < p.efficiency_x_prime());
    }

    #[test]
    fn copy_chain_accepted() {
        let p = problem();
        let (t, input) = small_instance();
        let out = vec![
            O::Active(White),
            O::Active(Black),
            O::Copy(Black),
            O::Copy(Black),
        ];
        assert!(p.verify(&t, &input, &out).is_ok());
    }

    #[test]
    fn weight_next_to_active_cannot_decline() {
        let p = problem();
        let (t, input) = small_instance();
        let out = vec![O::Active(White), O::Active(Black), O::Decline, O::Decline];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert_eq!(err.node, 2);
        assert!(err.rule.contains("Decline"), "{err}");
    }

    #[test]
    fn copy_secondary_must_match_active() {
        let p = problem();
        let (t, input) = small_instance();
        let out = vec![
            O::Active(White),
            O::Active(Black),
            O::Copy(White), // node 1 output Black, mismatch
            O::Copy(White),
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert_eq!(err.node, 2);
        assert!(err.rule.contains("matches no active"), "{err}");
    }

    #[test]
    fn adjacent_copies_must_agree() {
        let p = problem();
        let (t, input) = small_instance();
        let out = vec![
            O::Active(White),
            O::Active(Black),
            O::Copy(Black),
            O::Copy(White),
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("disagree"), "{err}");
    }

    #[test]
    fn far_weight_node_may_decline_within_budget() {
        let p = problem();
        let (t, input) = small_instance();
        // Node 3 (far weight node) declines; node 2 copies with 1 declining
        // neighbor <= d = 2.
        let out = vec![
            O::Active(White),
            O::Active(Black),
            O::Copy(Black),
            O::Decline,
        ];
        assert!(p.verify(&t, &input, &out).is_ok());
    }

    #[test]
    fn decline_budget_enforced() {
        // Weight star: center 1 adjacent to active 0 and three weight leaves.
        let mut b = TreeBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(1, 3);
        b.add_edge(1, 4);
        let t = b.build().unwrap();
        let input = vec![Active, Weight, Weight, Weight, Weight];
        let p = WeightedColoring::new(Variant::TwoHalf, 5, 2, 1).unwrap();
        let out = vec![
            O::Active(White),
            O::Copy(White),
            O::Decline,
            O::Decline,
            O::Decline,
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert_eq!(err.node, 1);
        assert!(err.rule.contains("> d = 2"), "{err}");
    }

    #[test]
    fn connect_bridge_between_two_active_nodes() {
        // A - w - w - A (Connect path).
        let t = path(4);
        let input = vec![Active, Weight, Weight, Active];
        let p = problem();
        let out = vec![O::Active(White), O::Connect, O::Connect, O::Active(White)];
        assert!(p.verify(&t, &input, &out).is_ok());
        // A dangling Connect fails property 3.
        let out = vec![O::Active(White), O::Connect, O::Decline, O::Active(White)];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("needs 2"), "{err}");
    }

    #[test]
    fn active_component_coloring_is_checked() {
        let p = problem();
        let (t, input) = small_instance();
        // Active path 0-1 is level-1 (k = 1): both White is improper.
        let out = vec![
            O::Active(White),
            O::Active(White),
            O::Copy(White),
            O::Copy(White),
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("both W"), "{err}");
    }

    #[test]
    fn alphabet_discipline() {
        let p = problem();
        let (t, input) = small_instance();
        let out = vec![O::Decline, O::Active(Black), O::Copy(Black), O::Copy(Black)];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("weight label"), "{err}");
        let out = vec![
            O::Active(White),
            O::Active(Black),
            O::Active(Black),
            O::Copy(Black),
        ];
        let err = p.verify(&t, &input, &out).unwrap_err();
        assert!(err.rule.contains("active label"), "{err}");
    }

    #[test]
    fn isolated_weight_component_may_fully_decline() {
        // Pure weight path, no active nodes anywhere.
        let t = path(3);
        let input = vec![Weight; 3];
        let p = problem();
        let out = vec![O::Decline; 3];
        assert!(p.verify(&t, &input, &out).is_ok());
    }
}
