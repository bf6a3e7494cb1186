//! Declarative LCL problem descriptions — the problem-first vocabulary of
//! the public surface.
//!
//! The paper's object of study is the LCL *problem*: Fig. 2 maps problem
//! classes, not algorithms, to node-averaged complexities. A
//! [`ProblemSpec`] names one problem declaratively — either as an explicit
//! constraint table (path LCLs as allowed-pair/endpoint tables, black-white
//! problems as constraint multisets) or as a named paper family
//! (`c`-coloring, the Theorem 11 hierarchy, the Definition 25 weighted
//! problems, `d`-free weight sets, …). The harness planner turns a spec
//! into a classified, solvable `Plan`; this module owns only the
//! vocabulary: construction, canonicalization, validation, JSON
//! (de)serialization, and the declared complexity metadata of the families
//! whose class is not decided by an automaton.
//!
//! Specs are cheap, comparable value objects; every constructor
//! canonicalizes (sorted, deduplicated tables) so that equality after a
//! serialization round trip is exact.
//!
//! # Examples
//!
//! ```
//! use lcl_core::problem_spec::{PathTable, ProblemSpec};
//!
//! // Proper 3-coloring of paths, written as an explicit table.
//! let table = PathTable::proper_coloring(3);
//! assert!(table.allows(0, 1) && !table.allows(2, 2));
//!
//! // The same problem as a named preset.
//! let preset = ProblemSpec::preset("3-coloring").expect("known preset");
//! assert_eq!(preset.describe(), "coloring(colors=3)");
//! ```

use crate::landscape::{
    alpha1_log_star, alpha1_poly, efficiency_x, efficiency_x_prime, ComplexityClass,
};
use serde::{ObjectWriter, Serialize, Value};

/// An input-free LCL on paths, as a symmetric allowed-pair table plus
/// endpoint permissions — the Lemma 16 / \[BBC+19\] problem format.
///
/// Canonical form: `allowed` holds each unordered pair once with
/// `a ≤ b`, sorted; `ends` is sorted and deduplicated. Both constructors
/// and the JSON parser canonicalize, so equality is semantic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathTable {
    /// Number of output labels (`0..labels`).
    pub labels: usize,
    /// Unordered label pairs allowed on an edge (`a ≤ b`, sorted).
    pub allowed: Vec<(u8, u8)>,
    /// Labels permitted on degree-1 endpoints (sorted).
    pub ends: Vec<u8>,
}

impl PathTable {
    /// Builds a table, canonicalizing the pair list and endpoint set.
    /// Use [`PathTable::validate`] to check label ranges.
    #[must_use]
    pub fn new(labels: usize, mut allowed: Vec<(u8, u8)>, mut ends: Vec<u8>) -> Self {
        for pair in &mut allowed {
            if pair.0 > pair.1 {
                *pair = (pair.1, pair.0);
            }
        }
        allowed.sort_unstable();
        allowed.dedup();
        ends.sort_unstable();
        ends.dedup();
        PathTable {
            labels,
            allowed,
            ends,
        }
    }

    /// Proper coloring with `c` colors: all unequal pairs allowed, every
    /// label usable at endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0` or `c > 255`.
    #[must_use]
    pub fn proper_coloring(c: usize) -> Self {
        assert!(c >= 1 && c <= u8::MAX as usize, "1..=255 colors");
        let mut allowed = Vec::new();
        for a in 0..c as u8 {
            for b in (a + 1)..c as u8 {
                allowed.push((a, b));
            }
        }
        PathTable::new(c, allowed, (0..c as u8).collect())
    }

    /// Checks label ranges and non-degeneracy.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.labels == 0 {
            return Err("path table needs at least one label".into());
        }
        if self.labels > u8::MAX as usize {
            return Err(format!("path table has {} labels; max 255", self.labels));
        }
        let in_range = |l: u8| (l as usize) < self.labels;
        if let Some(&(a, b)) = self
            .allowed
            .iter()
            .find(|&&(a, b)| !in_range(a) || !in_range(b))
        {
            return Err(format!(
                "pair ({a}, {b}) references a label outside 0..{}",
                self.labels
            ));
        }
        if let Some(&l) = self.ends.iter().find(|&&l| !in_range(l)) {
            return Err(format!("endpoint label {l} outside 0..{}", self.labels));
        }
        if self.ends.is_empty() {
            return Err(
                "path table allows no endpoint label (degree-1 nodes cannot output)".into(),
            );
        }
        Ok(())
    }

    /// True when labels `a` and `b` may be adjacent.
    #[must_use]
    pub fn allows(&self, a: u8, b: u8) -> bool {
        let key = (a.min(b), a.max(b));
        self.allowed.binary_search(&key).is_ok()
    }

    /// True when `l` is permitted on a degree-1 endpoint.
    #[must_use]
    pub fn end_allowed(&self, l: u8) -> bool {
        self.ends.binary_search(&l).is_ok()
    }

    /// The full symmetric adjacency matrix (`labels × labels`).
    #[must_use]
    pub fn matrix(&self) -> Vec<Vec<bool>> {
        let mut m = vec![vec![false; self.labels]; self.labels];
        for &(a, b) in &self.allowed {
            m[a as usize][b as usize] = true;
            m[b as usize][a as usize] = true;
        }
        m
    }

    /// Endpoint permissions as a `labels`-sized boolean vector.
    #[must_use]
    pub fn end_vec(&self) -> Vec<bool> {
        let mut e = vec![false; self.labels];
        for &l in &self.ends {
            e[l as usize] = true;
        }
        e
    }

    /// `Some(c)` when this table is exactly the proper `c`-coloring
    /// (all unequal pairs allowed, no self-loops, all endpoints free).
    /// Total over arbitrary tables, including invalid ones.
    #[must_use]
    pub fn as_proper_coloring(&self) -> Option<usize> {
        if self.labels == 0 || self.labels > u8::MAX as usize {
            return None;
        }
        (*self == PathTable::proper_coloring(self.labels)).then_some(self.labels)
    }
}

/// An input-free black-white problem (Definition 70 restricted to one
/// input label): white/black constraint multisets over a small output
/// alphabet, written for trees of maximum degree `max_degree`.
///
/// Canonical form: each multiset is sorted; the white/black lists are
/// sorted and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BwTable {
    /// Number of output labels (`0..out_labels`); the planner's testing
    /// procedure is designed for small (binary) alphabets.
    pub out_labels: u8,
    /// Maximum tree degree the constraints are written for. `2` means the
    /// problem lives on paths, where its complexity is decidable.
    pub max_degree: usize,
    /// Output-label multisets accepted around a white node.
    pub white: Vec<Vec<u8>>,
    /// Output-label multisets accepted around a black node.
    pub black: Vec<Vec<u8>>,
}

impl BwTable {
    /// Builds a table, canonicalizing the constraint lists.
    /// Use [`BwTable::validate`] to check ranges.
    #[must_use]
    pub fn new(
        out_labels: u8,
        max_degree: usize,
        mut white: Vec<Vec<u8>>,
        mut black: Vec<Vec<u8>>,
    ) -> Self {
        let canon = |sets: &mut Vec<Vec<u8>>| {
            for m in sets.iter_mut() {
                m.sort_unstable();
            }
            sets.sort();
            sets.dedup();
        };
        canon(&mut white);
        canon(&mut black);
        BwTable {
            out_labels,
            max_degree,
            white,
            black,
        }
    }

    /// The binary "all incident edges share one label" problem on paths.
    #[must_use]
    pub fn all_equal_binary() -> Self {
        let sets = vec![vec![0], vec![1], vec![0, 0], vec![1, 1]];
        BwTable::new(2, 2, sets.clone(), sets)
    }

    /// Checks alphabet and degree ranges.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.out_labels == 0 || self.out_labels > 8 {
            return Err(format!(
                "bw table needs 1..=8 output labels, got {}",
                self.out_labels
            ));
        }
        if !(2..=6).contains(&self.max_degree) {
            return Err(format!(
                "bw table needs max_degree in 2..=6, got {}",
                self.max_degree
            ));
        }
        for (side, sets) in [("white", &self.white), ("black", &self.black)] {
            if sets.is_empty() {
                return Err(format!("bw table has an empty {side} constraint set"));
            }
            for m in sets {
                if m.is_empty() {
                    return Err(format!("bw {side} constraint contains an empty multiset"));
                }
                if m.len() > self.max_degree {
                    return Err(format!(
                        "bw {side} multiset {m:?} exceeds max_degree {}",
                        self.max_degree
                    ));
                }
                if let Some(&l) = m.iter().find(|&&l| l >= self.out_labels) {
                    return Err(format!(
                        "bw {side} label {l} outside 0..{}",
                        self.out_labels
                    ));
                }
            }
        }
        Ok(())
    }

    /// True if `multiset` (any order) is accepted by the given side's
    /// constraint (`white = true` selects the white set).
    #[must_use]
    pub fn accepts(&self, white: bool, multiset: &[u8]) -> bool {
        let mut m = multiset.to_vec();
        m.sort_unstable();
        let sets = if white { &self.white } else { &self.black };
        sets.binary_search(&m).is_ok()
    }

    /// Lowers a *side-symmetric* path problem (`white == black`,
    /// `max_degree ≤ 2`) to its equivalent [`PathTable`] over the edge
    /// labels: a degree-2 node accepting `{a, b}` becomes the allowed pair
    /// `(a, b)`, a degree-1 node accepting `{a}` the endpoint label `a`.
    /// `None` when the sides differ or the problem is written for trees.
    #[must_use]
    pub fn symmetric_path_table(&self) -> Option<PathTable> {
        if self.white != self.black || self.max_degree > 2 {
            return None;
        }
        let n = self.out_labels;
        let mut allowed = Vec::new();
        for a in 0..n {
            for b in a..n {
                if self.accepts(true, &[a, b]) {
                    allowed.push((a, b));
                }
            }
        }
        let ends = (0..n).filter(|&a| self.accepts(true, &[a])).collect();
        Some(PathTable::new(n as usize, allowed, ends))
    }
}

/// The weighted-family regime selector (Definition 25): which phase
/// schedule the problem is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemRegime {
    /// `Π^{2.5}_{Δ,d,k}` — polynomial regime (`Θ(n^{α₁})`, Theorems 2–3).
    Poly,
    /// `Π^{3.5}_{Δ,d,k}` — `log*` regime (Theorems 4–5).
    LogStar,
}

impl ProblemRegime {
    /// Stable JSON tag of the regime.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            ProblemRegime::Poly => "poly",
            ProblemRegime::LogStar => "logstar",
        }
    }
}

/// A declarative, serializable description of one LCL problem — the unit
/// the planner (`lcl_harness::planner`) classifies and resolves a solver
/// for.
///
/// Explicit-table problems ([`ProblemSpec::Path`], [`ProblemSpec::Bw`])
/// are classified by the decidability machinery; named families carry
/// their class as declared metadata ([`ProblemSpec::declared_class`])
/// computed from the paper's closed-form exponents.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemSpec {
    /// An explicit path LCL given as an allowed-pair/endpoint table.
    Path(PathTable),
    /// Proper `c`-coloring of paths (`c = 2` is the rigid `Θ(n)` baseline,
    /// `c ≥ 3` the `Θ(log* n)` cell).
    Coloring {
        /// Number of colors.
        colors: usize,
    },
    /// An explicit input-free black-white problem.
    Bw(BwTable),
    /// The Theorem 11 `k`-hierarchical 3½-coloring family on the
    /// Definition 18 lower-bound instances.
    HierarchicalColoring {
        /// Hierarchy depth.
        k: usize,
    },
    /// The Definition 25 weighted problems `Π^{2.5}/Π^{3.5}_{Δ,d,k}`.
    Weighted {
        /// Regime (polynomial or `log*`).
        regime: ProblemRegime,
        /// Degree bound of the active core.
        delta: usize,
        /// Decline budget.
        d: usize,
        /// Hierarchy depth.
        k: usize,
    },
    /// The Lemma 69 weight-augmented 2½-coloring (`Θ(n^{1/k})`).
    WeightAugmented {
        /// Hierarchy depth.
        k: usize,
    },
    /// The `d`-free weight-set problem (Section 7): `anchored` plants an
    /// `A`-node (Algorithm `A`'s workload), unanchored is the pure
    /// geometric-decay workload (Corollary 47).
    DfreeWeight {
        /// Decline budget.
        d: usize,
        /// Whether an adjacency anchor node is present.
        anchored: bool,
    },
    /// The Definition 63 `k`-hierarchical labeling problem
    /// (`O(k · n^{1/k})`, Lemma 65).
    HierarchicalLabeling {
        /// Hierarchy depth.
        k: usize,
    },
}

impl ProblemSpec {
    /// Checks the spec's internal consistency (label ranges, parameter
    /// domains of the closed-form exponents).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ProblemSpec::Path(t) => t.validate(),
            ProblemSpec::Coloring { colors } => {
                if *colors < 2 || *colors > u8::MAX as usize {
                    Err(format!("coloring needs 2..=255 colors, got {colors}"))
                } else {
                    Ok(())
                }
            }
            ProblemSpec::Bw(t) => t.validate(),
            ProblemSpec::HierarchicalColoring { k } => check_k(*k),
            ProblemSpec::Weighted { delta, d, k, .. } => {
                check_k(*k)?;
                if *d == 0 {
                    return Err("weighted problem needs d >= 1".into());
                }
                if *delta < d + 3 {
                    return Err(format!(
                        "weighted problem needs Δ ≥ d + 3 (got Δ = {delta}, d = {d})"
                    ));
                }
                Ok(())
            }
            ProblemSpec::WeightAugmented { k } => check_k(*k),
            ProblemSpec::DfreeWeight { d, .. } => {
                if *d == 0 {
                    Err("d-free problem needs d >= 1".into())
                } else {
                    Ok(())
                }
            }
            ProblemSpec::HierarchicalLabeling { k } => check_k(*k),
        }
    }

    /// A compact human-readable rendering, used in tables and JSON.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            ProblemSpec::Path(t) => format!(
                "path-lcl(labels={},pairs={},ends={})",
                t.labels,
                t.allowed.len(),
                t.ends.len()
            ),
            ProblemSpec::Coloring { colors } => format!("coloring(colors={colors})"),
            ProblemSpec::Bw(t) => format!(
                "bw(out_labels={},max_degree={},white={},black={})",
                t.out_labels,
                t.max_degree,
                t.white.len(),
                t.black.len()
            ),
            ProblemSpec::HierarchicalColoring { k } => format!("hierarchical-coloring(k={k})"),
            ProblemSpec::Weighted {
                regime,
                delta,
                d,
                k,
            } => format!("weighted-{}(delta={delta},d={d},k={k})", regime.tag()),
            ProblemSpec::WeightAugmented { k } => format!("weight-augmented(k={k})"),
            ProblemSpec::DfreeWeight { d, anchored } => {
                format!("dfree(d={d},anchored={anchored})")
            }
            ProblemSpec::HierarchicalLabeling { k } => format!("hierarchical-labeling(k={k})"),
        }
    }

    /// The hierarchy depth `k` the problem carries, when it has one.
    #[must_use]
    pub fn hierarchy_k(&self) -> Option<usize> {
        match *self {
            ProblemSpec::HierarchicalColoring { k }
            | ProblemSpec::Weighted { k, .. }
            | ProblemSpec::WeightAugmented { k }
            | ProblemSpec::HierarchicalLabeling { k } => Some(k),
            _ => None,
        }
    }

    /// The decline budget `d` the problem carries, when it has one.
    #[must_use]
    pub fn decline_d(&self) -> Option<usize> {
        match *self {
            ProblemSpec::Weighted { d, .. } | ProblemSpec::DfreeWeight { d, .. } => Some(d),
            _ => None,
        }
    }

    /// The problem as a path table, when it is one (explicit tables,
    /// colorings, and side-symmetric path-degree BW problems).
    #[must_use]
    pub fn path_table(&self) -> Option<PathTable> {
        match self {
            ProblemSpec::Path(t) => Some(t.clone()),
            // Guarded so the conversion stays total over invalid specs
            // (the resolver probes before validation).
            ProblemSpec::Coloring { colors } if (1..=u8::MAX as usize).contains(colors) => {
                Some(PathTable::proper_coloring(*colors))
            }
            ProblemSpec::Bw(t) => t.symmetric_path_table(),
            _ => None,
        }
    }

    /// The theoretical node-averaged class declared by the paper for the
    /// named families — the classification source where no decision
    /// procedure applies. `None` for explicit tables (those are decided
    /// by the planner's automaton/testing machinery).
    ///
    /// The formulas mirror the corresponding theorems: `Θ((log*
    /// n)^{1/2^{k-1}})` for the Theorem 11 hierarchy, `Θ(n^{α₁(x)})` /
    /// `Θ((log* n)^{α₁(x')})` for the weighted families (Lemmas 33/36),
    /// `Θ(n^{1/k})` for weight augmentation and hierarchical labeling,
    /// `Θ(log n)` for the `d`-free weight problem.
    ///
    /// Total over arbitrary specs: invalid parameters (outside the
    /// closed-form formulas' domains) yield `None` rather than a panic.
    #[must_use]
    pub fn declared_class(&self) -> Option<ComplexityClass> {
        if self.validate().is_err() {
            return None;
        }
        match *self {
            ProblemSpec::Path(_) | ProblemSpec::Coloring { .. } | ProblemSpec::Bw(_) => None,
            ProblemSpec::HierarchicalColoring { k } => Some(ComplexityClass::log_star_pow(
                1.0 / (1u64 << (k.max(1) - 1)) as f64,
            )),
            ProblemSpec::Weighted {
                regime,
                delta,
                d,
                k,
            } => Some(match regime {
                ProblemRegime::Poly => {
                    ComplexityClass::poly(alpha1_poly(efficiency_x(delta, d), k))
                }
                ProblemRegime::LogStar => ComplexityClass::log_star_pow(alpha1_log_star(
                    efficiency_x_prime(delta, d).min(1.0),
                    k,
                )),
            }),
            ProblemSpec::WeightAugmented { k } => Some(ComplexityClass::poly(1.0 / k as f64)),
            ProblemSpec::DfreeWeight { .. } => Some(ComplexityClass::Log),
            ProblemSpec::HierarchicalLabeling { k } => Some(ComplexityClass::poly(1.0 / k as f64)),
        }
    }

    /// The named presets: one spec per problem family the registry's
    /// algorithms solve, under stable kebab-case names. `lcl solve
    /// <name>` and [`ProblemSpec::preset`] accept exactly these.
    #[must_use]
    pub fn presets() -> Vec<(&'static str, ProblemSpec)> {
        vec![
            ("2-coloring", ProblemSpec::Coloring { colors: 2 }),
            ("3-coloring", ProblemSpec::Coloring { colors: 3 }),
            ("5-coloring", ProblemSpec::Coloring { colors: 5 }),
            ("theorem11-k2", ProblemSpec::HierarchicalColoring { k: 2 }),
            ("theorem11-k3", ProblemSpec::HierarchicalColoring { k: 3 }),
            (
                "weighted-poly",
                ProblemSpec::Weighted {
                    regime: ProblemRegime::Poly,
                    delta: 5,
                    d: 2,
                    k: 2,
                },
            ),
            (
                "weighted-logstar",
                ProblemSpec::Weighted {
                    regime: ProblemRegime::LogStar,
                    delta: 6,
                    d: 3,
                    k: 2,
                },
            ),
            ("weight-augmented-k2", ProblemSpec::WeightAugmented { k: 2 }),
            ("weight-augmented-k3", ProblemSpec::WeightAugmented { k: 3 }),
            (
                "dfree-anchored",
                ProblemSpec::DfreeWeight {
                    d: 2,
                    anchored: true,
                },
            ),
            (
                "dfree-decay",
                ProblemSpec::DfreeWeight {
                    d: 3,
                    anchored: false,
                },
            ),
            ("labeling-k2", ProblemSpec::HierarchicalLabeling { k: 2 }),
            ("bw-all-equal", ProblemSpec::Bw(BwTable::all_equal_binary())),
        ]
    }

    /// Looks a preset up by name.
    #[must_use]
    pub fn preset(name: &str) -> Option<ProblemSpec> {
        ProblemSpec::presets()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, spec)| spec)
    }

    /// Parses a spec from the JSON value model (the inverse of
    /// [`Serialize`]; see the module docs for the format).
    ///
    /// # Errors
    ///
    /// A human-readable parse error; malformed input never panics.
    pub fn from_value(value: &Value) -> Result<ProblemSpec, String> {
        if !matches!(value, Value::Object(_)) {
            return Err("expected an object with field `problem`".into());
        }
        let tag = get_str(value, "problem")?;
        let spec = match tag {
            "path" => ProblemSpec::Path(PathTable::new(
                get_usize(value, "labels")?,
                get_pairs(value, "allowed")?,
                get_u8_list(value, "ends")?,
            )),
            "coloring" => ProblemSpec::Coloring {
                colors: get_usize(value, "colors")?,
            },
            "bw" => ProblemSpec::Bw(BwTable::new(
                u8::try_from(get_usize(value, "out_labels")?)
                    .map_err(|_| "field `out_labels` exceeds 255".to_string())?,
                get_usize(value, "max_degree")?,
                get_multisets(value, "white")?,
                get_multisets(value, "black")?,
            )),
            "hierarchical-coloring" => ProblemSpec::HierarchicalColoring {
                k: get_usize(value, "k")?,
            },
            "weighted" => ProblemSpec::Weighted {
                regime: match get_str(value, "regime")? {
                    "poly" => ProblemRegime::Poly,
                    "logstar" => ProblemRegime::LogStar,
                    other => return Err(format!("unknown regime `{other}` (poly|logstar)")),
                },
                delta: get_usize(value, "delta")?,
                d: get_usize(value, "d")?,
                k: get_usize(value, "k")?,
            },
            "weight-augmented" => ProblemSpec::WeightAugmented {
                k: get_usize(value, "k")?,
            },
            "dfree" => ProblemSpec::DfreeWeight {
                d: get_usize(value, "d")?,
                anchored: get_bool(value, "anchored")?,
            },
            "hierarchical-labeling" => ProblemSpec::HierarchicalLabeling {
                k: get_usize(value, "k")?,
            },
            other => return Err(format!("unknown problem tag `{other}`")),
        };
        Ok(spec)
    }
}

fn check_k(k: usize) -> Result<(), String> {
    if k == 0 || k > 16 {
        Err(format!("hierarchy depth k must be in 1..=16, got {k}"))
    } else {
        Ok(())
    }
}

// --- JSON readers: `Value`'s accessors plus this module's error wording ---

fn required<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn get_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    let v = required(value, key)?;
    v.as_str()
        .ok_or_else(|| format!("field `{key}` must be a string, got {v:?}"))
}

fn get_bool(value: &Value, key: &str) -> Result<bool, String> {
    let v = required(value, key)?;
    v.as_bool()
        .ok_or_else(|| format!("field `{key}` must be a boolean, got {v:?}"))
}

fn get_usize(value: &Value, key: &str) -> Result<usize, String> {
    required(value, key)?
        .as_u64()
        .and_then(|u| usize::try_from(u).ok())
        .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

fn value_as_u8(v: &Value, key: &str) -> Result<u8, String> {
    v.as_u64()
        .and_then(|u| u8::try_from(u).ok())
        .ok_or_else(|| format!("field `{key}` must hold labels in 0..=255"))
}

fn get_array<'a>(value: &'a Value, key: &str, of: &str) -> Result<&'a [Value], String> {
    required(value, key)?
        .as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| format!("field `{key}` must be an array of {of}"))
}

fn get_u8_list(value: &Value, key: &str) -> Result<Vec<u8>, String> {
    get_array(value, key, "labels")?
        .iter()
        .map(|v| value_as_u8(v, key))
        .collect()
}

fn get_pairs(value: &Value, key: &str) -> Result<Vec<(u8, u8)>, String> {
    get_array(value, key, "pairs")?
        .iter()
        .map(|item| match item.as_array().map(Vec::as_slice) {
            Some([a, b]) => Ok((value_as_u8(a, key)?, value_as_u8(b, key)?)),
            _ => Err(format!("field `{key}` must hold two-element [a, b] pairs")),
        })
        .collect()
}

fn get_multisets(value: &Value, key: &str) -> Result<Vec<Vec<u8>>, String> {
    get_array(value, key, "multisets")?
        .iter()
        .map(|item| {
            item.as_array()
                .ok_or_else(|| format!("field `{key}` must hold arrays of labels"))?
                .iter()
                .map(|v| value_as_u8(v, key))
                .collect()
        })
        .collect()
}

impl Serialize for PathTable {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("problem", "path")
            .field("labels", &self.labels)
            .field("allowed", &self.allowed)
            .field("ends", &self.ends)
            .end();
    }
}

impl Serialize for BwTable {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("problem", "bw")
            .field("out_labels", &self.out_labels)
            .field("max_degree", &self.max_degree)
            .field("white", &self.white)
            .field("black", &self.black)
            .end();
    }
}

impl Serialize for ProblemSpec {
    fn write_json(&self, out: &mut String) {
        let tagged = |out, tag: &str| ObjectWriter::new(out).field("problem", tag);
        match self {
            ProblemSpec::Path(t) => t.write_json(out),
            ProblemSpec::Coloring { colors } => {
                tagged(out, "coloring").field("colors", colors).end()
            }
            ProblemSpec::Bw(t) => t.write_json(out),
            ProblemSpec::HierarchicalColoring { k } => {
                tagged(out, "hierarchical-coloring").field("k", k).end()
            }
            ProblemSpec::Weighted {
                regime,
                delta,
                d,
                k,
            } => tagged(out, "weighted")
                .field("regime", regime.tag())
                .field("delta", delta)
                .field("d", d)
                .field("k", k)
                .end(),
            ProblemSpec::WeightAugmented { k } => {
                tagged(out, "weight-augmented").field("k", k).end()
            }
            ProblemSpec::DfreeWeight { d, anchored } => tagged(out, "dfree")
                .field("d", d)
                .field("anchored", anchored)
                .end(),
            ProblemSpec::HierarchicalLabeling { k } => {
                tagged(out, "hierarchical-labeling").field("k", k).end()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landscape::Regime;

    fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn path_table_canonicalizes() {
        let t = PathTable::new(3, vec![(1, 0), (0, 1), (2, 1)], vec![2, 0, 2]);
        assert_eq!(t.allowed, vec![(0, 1), (1, 2)]);
        assert_eq!(t.ends, vec![0, 2]);
        assert!(t.allows(1, 0) && t.allows(0, 1));
        assert!(!t.allows(0, 2));
        assert!(t.end_allowed(2) && !t.end_allowed(1));
    }

    #[test]
    fn proper_coloring_table_round_trips_to_matrix() {
        let t = PathTable::proper_coloring(3);
        assert_eq!(t.as_proper_coloring(), Some(3));
        let m = t.matrix();
        for (a, row) in m.iter().enumerate() {
            for (b, &cell) in row.iter().enumerate() {
                assert_eq!(cell, a != b);
            }
        }
        assert_eq!(t.end_vec(), vec![true; 3]);
        // A self-loop disqualifies the proper-coloring shape.
        let mut loopy = t.clone();
        loopy.allowed.push((0, 0));
        let loopy = PathTable::new(3, loopy.allowed, loopy.ends);
        assert_eq!(loopy.as_proper_coloring(), None);
    }

    #[test]
    fn validation_catches_out_of_range_labels() {
        assert!(PathTable::new(2, vec![(0, 3)], vec![0]).validate().is_err());
        assert!(PathTable::new(2, vec![(0, 1)], vec![5]).validate().is_err());
        assert!(PathTable::new(2, vec![(0, 1)], vec![]).validate().is_err());
        assert!(PathTable::new(0, vec![], vec![]).validate().is_err());
        assert!(PathTable::proper_coloring(4).validate().is_ok());
    }

    #[test]
    fn bw_table_accepts_and_reduces() {
        let t = BwTable::all_equal_binary();
        assert!(t.validate().is_ok());
        assert!(t.accepts(true, &[0, 0]) && t.accepts(false, &[1]));
        assert!(!t.accepts(true, &[0, 1]));
        let path = t.symmetric_path_table().expect("symmetric path problem");
        assert_eq!(path.labels, 2);
        assert!(path.allows(0, 0) && path.allows(1, 1) && !path.allows(0, 1));
        assert_eq!(path.ends, vec![0, 1]);
    }

    #[test]
    fn asymmetric_or_tree_bw_does_not_reduce() {
        let mut t = BwTable::all_equal_binary();
        t.black.push(vec![0, 1]);
        assert!(t.symmetric_path_table().is_none());
        let tree = BwTable::new(2, 3, vec![vec![0]], vec![vec![0]]);
        assert!(tree.symmetric_path_table().is_none());
    }

    #[test]
    fn bw_validation_catches_ranges() {
        assert!(BwTable::new(0, 2, vec![vec![0]], vec![vec![0]])
            .validate()
            .is_err());
        assert!(BwTable::new(2, 1, vec![vec![0]], vec![vec![0]])
            .validate()
            .is_err());
        assert!(BwTable::new(2, 2, vec![], vec![vec![0]])
            .validate()
            .is_err());
        assert!(BwTable::new(2, 2, vec![vec![5]], vec![vec![0]])
            .validate()
            .is_err());
        assert!(BwTable::new(2, 2, vec![vec![0, 0, 0]], vec![vec![0]])
            .validate()
            .is_err());
    }

    #[test]
    fn presets_are_unique_named_and_valid() {
        let presets = ProblemSpec::presets();
        assert!(presets.len() >= 6, "at least six named presets");
        let mut names: Vec<&str> = presets.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), presets.len(), "preset names collide");
        for (name, spec) in &presets {
            spec.validate()
                .unwrap_or_else(|e| panic!("preset `{name}` invalid: {e}"));
            assert_eq!(
                ProblemSpec::preset(name).as_ref(),
                Some(spec),
                "preset lookup round trip"
            );
        }
        assert!(ProblemSpec::preset("no-such-problem").is_none());
    }

    #[test]
    fn declared_classes_cover_the_named_families() {
        assert!(ProblemSpec::Coloring { colors: 3 }
            .declared_class()
            .is_none());
        let hier = ProblemSpec::HierarchicalColoring { k: 2 }
            .declared_class()
            .unwrap();
        assert_eq!(hier.regime(), Regime::LogStar);
        assert!((hier.exponent().unwrap() - 0.5).abs() < 1e-12);
        let poly = ProblemSpec::Weighted {
            regime: ProblemRegime::Poly,
            delta: 5,
            d: 2,
            k: 2,
        }
        .declared_class()
        .unwrap();
        assert_eq!(poly.regime(), Regime::Poly);
        assert_eq!(
            ProblemSpec::DfreeWeight {
                d: 2,
                anchored: true
            }
            .declared_class(),
            Some(ComplexityClass::Log)
        );
        let lab = ProblemSpec::HierarchicalLabeling { k: 4 }
            .declared_class()
            .unwrap();
        assert!((lab.exponent().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trips_every_preset() {
        for (name, spec) in ProblemSpec::presets() {
            let value = spec.to_value();
            let parsed = ProblemSpec::from_value(&value)
                .unwrap_or_else(|e| panic!("preset `{name}` failed to parse back: {e}"));
            assert_eq!(parsed, spec, "preset `{name}` round trip");
        }
    }

    #[test]
    fn from_value_rejects_malformed_input() {
        let bad = [
            Value::Null,
            Value::Object(vec![]),
            obj(vec![("problem", Value::Str("nope".into()))]),
            obj(vec![("problem", Value::Str("coloring".into()))]),
            obj(vec![
                ("problem", Value::Str("coloring".into())),
                ("colors", Value::Str("three".into())),
            ]),
            obj(vec![
                ("problem", Value::Str("weighted".into())),
                ("regime", Value::Str("exp".into())),
                ("delta", Value::UInt(5)),
                ("d", Value::UInt(2)),
                ("k", Value::UInt(2)),
            ]),
            obj(vec![
                ("problem", Value::Str("path".into())),
                ("labels", Value::UInt(2)),
                ("allowed", Value::Array(vec![Value::UInt(3)])),
                ("ends", Value::Array(vec![])),
            ]),
        ];
        for value in &bad {
            assert!(
                ProblemSpec::from_value(value).is_err(),
                "accepted malformed {value:?}"
            );
        }
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(ProblemSpec::Coloring { colors: 1 }.validate().is_err());
        assert!(ProblemSpec::HierarchicalColoring { k: 0 }
            .validate()
            .is_err());
        assert!(ProblemSpec::Weighted {
            regime: ProblemRegime::Poly,
            delta: 4,
            d: 2,
            k: 2
        }
        .validate()
        .is_err());
        assert!(ProblemSpec::DfreeWeight {
            d: 0,
            anchored: false
        }
        .validate()
        .is_err());
        assert!(ProblemSpec::HierarchicalLabeling { k: 17 }
            .validate()
            .is_err());
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(
            ProblemSpec::Coloring { colors: 3 }.describe(),
            "coloring(colors=3)"
        );
        assert_eq!(
            ProblemSpec::Weighted {
                regime: ProblemRegime::LogStar,
                delta: 6,
                d: 3,
                k: 2
            }
            .describe(),
            "weighted-logstar(delta=6,d=3,k=2)"
        );
        assert_eq!(
            ProblemSpec::Path(PathTable::proper_coloring(3)).describe(),
            "path-lcl(labels=3,pairs=3,ends=3)"
        );
    }
}
