//! Declarative instance descriptions and built instances.
//!
//! An [`InstanceSpec`] names a paper construction and its parameters; an
//! [`Instance`] is the built topology (tree, input labels, construction
//! metadata) plus a cache of peeling decompositions so repeated runs on
//! the same instance — the common case in seeded sweeps — do not recompute
//! them.

use crate::cache::{BoundedLru, CacheStats};
use lcl_core::params;
use lcl_graph::hierarchical::LowerBoundGraph;
use lcl_graph::levels::Levels;
use lcl_graph::weighted::{NodeKind, WeightedConstruction, WeightedParams};
use lcl_graph::{generators, Tree};
use serde::Serialize;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Errors surfaced by the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// No registered algorithm under this name.
    UnknownAlgorithm(String),
    /// The algorithm does not run on this kind of instance.
    UnsupportedInstance {
        /// Name of the algorithm that rejected the instance.
        algorithm: String,
        /// Kind of the offending instance.
        kind: InstanceKind,
    },
    /// The instance specification is invalid (bad lengths, `k = 0`, …).
    BadSpec(String),
    /// The run completed but its output violated the problem constraints.
    VerificationFailed {
        /// Name of the algorithm whose output failed.
        algorithm: String,
        /// The violation, rendered.
        violation: String,
    },
    /// The engine failed to complete a run, or its outcome disagreed with
    /// the structurally solved plan — an engine or adapter bug, surfaced
    /// instead of silently recorded.
    EngineDivergence {
        /// Name of the algorithm whose run diverged.
        algorithm: String,
        /// What diverged.
        detail: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::UnknownAlgorithm(name) => {
                write!(f, "unknown algorithm `{name}` (see `lcl list`)")
            }
            HarnessError::UnsupportedInstance { algorithm, kind } => {
                write!(
                    f,
                    "algorithm `{algorithm}` does not support {kind:?} instances"
                )
            }
            HarnessError::BadSpec(msg) => write!(f, "invalid instance spec: {msg}"),
            HarnessError::VerificationFailed {
                algorithm,
                violation,
            } => {
                write!(
                    f,
                    "output of `{algorithm}` failed verification: {violation}"
                )
            }
            HarnessError::EngineDivergence { algorithm, detail } => {
                write!(
                    f,
                    "engine execution of `{algorithm}` diverged from the solved schedule: {detail}"
                )
            }
        }
    }
}

impl Error for HarnessError {}

/// Coarse instance families an algorithm can declare support for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum InstanceKind {
    /// A simple path (max degree 2).
    Path,
    /// A Definition 18 hierarchical lower-bound instance.
    LowerBound,
    /// A Definition 25 weighted (`Active`/`Weight`-labeled) construction.
    Weighted,
    /// A balanced pure-weight gadget tree.
    WeightTree,
    /// A seeded random bounded-degree tree.
    RandomTree,
    /// A hostile deterministic topology (caterpillar, ladder, broom,
    /// spider, complete Δ-ary tree, heavy-path-skewed tree) from the
    /// adversarial generator module.
    Adversarial,
}

/// A declarative, comparable description of one paper instance.
///
/// Specs are cheap value objects: [`Session`](crate::Session) groups jobs
/// by spec equality so each unique instance is built exactly once per
/// batch.
///
/// # Examples
///
/// ```
/// use lcl_harness::{InstanceKind, InstanceSpec};
///
/// let spec = InstanceSpec::WeightedPoly { n: 3_000, delta: 5, d: 2, k: 2 };
/// assert_eq!(spec.kind(), InstanceKind::Weighted);
/// assert_eq!(spec.describe(), "weighted-poly(n=3000,delta=5,d=2,k=2)");
///
/// // Building materializes the topology; the built size can differ
/// // slightly from the requested one (constructions round to gadgets).
/// let instance = spec.build()?;
/// assert!(instance.node_count() >= 1_000);
/// assert_eq!(instance.spec(), &spec);
/// # Ok::<(), lcl_harness::HarnessError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceSpec {
    /// A path on `n` nodes.
    Path {
        /// Node count.
        n: usize,
    },
    /// The Theorem 11 lower-bound instance (Definition 18) of total size
    /// ≈ `n` with `k` hierarchy levels.
    Theorem11 {
        /// Target node count.
        n: usize,
        /// Hierarchy depth.
        k: usize,
    },
    /// The Definition 25 weighted construction in the polynomial regime:
    /// core lengths from the optimal `α_i` at `x = log(Δ-d-1)/log(Δ-1)`.
    WeightedPoly {
        /// Target node count.
        n: usize,
        /// Degree bound of the active core.
        delta: usize,
        /// Decline budget.
        d: usize,
        /// Hierarchy depth.
        k: usize,
    },
    /// The Definition 25 weighted construction in the `log*` regime.
    WeightedLogStar {
        /// Target node count.
        n: usize,
        /// Degree bound of the active core.
        delta: usize,
        /// Decline budget.
        d: usize,
        /// Hierarchy depth.
        k: usize,
    },
    /// The Lemma 69 weight-augmented construction: weight efficiency
    /// `x = 1`, every `α_i = 1/k`.
    WeightedUnit {
        /// Target node count.
        n: usize,
        /// Degree bound of the active core.
        delta: usize,
        /// Hierarchy depth.
        k: usize,
    },
    /// A balanced pure-weight gadget tree of weight `w` and degree `delta`.
    BalancedWeight {
        /// Total weight (≈ node count).
        w: usize,
        /// Branching degree.
        delta: usize,
    },
    /// A seeded random tree with bounded degree.
    RandomTree {
        /// Node count.
        n: usize,
        /// Maximum degree.
        max_degree: usize,
        /// Topology seed (distinct from the run's ID seed).
        seed: u64,
    },
    /// A caterpillar: a spine path with `legs` pendant leaves per spine
    /// node (`n = spine · (1 + legs)`).
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Pendant leaves per spine node.
        legs: usize,
    },
    /// A ladder (comb) tree: a spine of `rungs` nodes, one pendant leaf
    /// each (`n = 2 · rungs`).
    Ladder {
        /// Spine length.
        rungs: usize,
    },
    /// A broom: a path of `spine` nodes with `bristles` leaves on one end.
    Broom {
        /// Handle length.
        spine: usize,
        /// Leaves on the far end.
        bristles: usize,
    },
    /// A spider: `legs` paths of `leg_len` nodes joined at a hub
    /// (`n = 1 + legs · leg_len`).
    Spider {
        /// Number of legs.
        legs: usize,
        /// Nodes per leg.
        leg_len: usize,
    },
    /// A complete `arity`-ary tree of the given height.
    CompleteAry {
        /// Children per internal node.
        arity: usize,
        /// Tree height (0 = single root).
        height: usize,
    },
    /// A heavy-path-skewed tree on `n` nodes (max degree 3): pendant paths
    /// grow along the spine, the adversarial case for heavy-path
    /// decompositions.
    HeavyPath {
        /// Node count.
        n: usize,
    },
    /// A churned instance: `base` after `batch` batches of tree surgery,
    /// now on `n` nodes. Built only by
    /// [`DynamicSession`](crate::DynamicSession) via [`Instance::from_tree`]
    /// (the topology is the product of the session's op stream, so the spec
    /// alone cannot rebuild it).
    Churned {
        /// The spec the session started from.
        base: Box<InstanceSpec>,
        /// How many batches have been applied.
        batch: u64,
        /// Current node count.
        n: usize,
    },
}

impl InstanceSpec {
    /// The coarse family this spec belongs to.
    #[must_use]
    pub fn kind(&self) -> InstanceKind {
        match self {
            InstanceSpec::Path { .. } => InstanceKind::Path,
            InstanceSpec::Theorem11 { .. } => InstanceKind::LowerBound,
            InstanceSpec::WeightedPoly { .. }
            | InstanceSpec::WeightedLogStar { .. }
            | InstanceSpec::WeightedUnit { .. } => InstanceKind::Weighted,
            InstanceSpec::BalancedWeight { .. } => InstanceKind::WeightTree,
            InstanceSpec::RandomTree { .. } => InstanceKind::RandomTree,
            InstanceSpec::Caterpillar { .. }
            | InstanceSpec::Ladder { .. }
            | InstanceSpec::Broom { .. }
            | InstanceSpec::Spider { .. }
            | InstanceSpec::CompleteAry { .. }
            | InstanceSpec::HeavyPath { .. } => InstanceKind::Adversarial,
            InstanceSpec::Churned { ref base, .. } => base.kind(),
        }
    }

    /// The requested size parameter (`n` or `w`). The built instance may
    /// differ slightly; see [`Instance::node_count`].
    #[must_use]
    pub fn requested_n(&self) -> usize {
        match *self {
            InstanceSpec::Path { n }
            | InstanceSpec::Theorem11 { n, .. }
            | InstanceSpec::WeightedPoly { n, .. }
            | InstanceSpec::WeightedLogStar { n, .. }
            | InstanceSpec::WeightedUnit { n, .. }
            | InstanceSpec::RandomTree { n, .. }
            | InstanceSpec::HeavyPath { n }
            | InstanceSpec::Churned { n, .. } => n,
            InstanceSpec::BalancedWeight { w, .. } => w,
            InstanceSpec::Caterpillar { spine, legs } => spine * (1 + legs),
            InstanceSpec::Ladder { rungs } => 2 * rungs,
            InstanceSpec::Broom { spine, bristles } => spine + bristles,
            InstanceSpec::Spider { legs, leg_len } => 1 + legs * leg_len,
            InstanceSpec::CompleteAry { arity, height } => {
                let mut nodes = 1usize;
                let mut level = 1usize;
                for _ in 0..height {
                    level = level.saturating_mul(arity);
                    nodes = nodes.saturating_add(level);
                }
                nodes
            }
        }
    }

    /// The hierarchy depth `k` carried by the spec, when it has one.
    #[must_use]
    pub fn hierarchy_k(&self) -> Option<usize> {
        match *self {
            InstanceSpec::Theorem11 { k, .. }
            | InstanceSpec::WeightedPoly { k, .. }
            | InstanceSpec::WeightedLogStar { k, .. }
            | InstanceSpec::WeightedUnit { k, .. } => Some(k),
            InstanceSpec::Churned { ref base, .. } => base.hierarchy_k(),
            _ => None,
        }
    }

    /// The decline budget `d` carried by the spec, when it has one.
    #[must_use]
    pub fn decline_d(&self) -> Option<usize> {
        match *self {
            InstanceSpec::WeightedPoly { d, .. } | InstanceSpec::WeightedLogStar { d, .. } => {
                Some(d)
            }
            InstanceSpec::Churned { ref base, .. } => base.decline_d(),
            _ => None,
        }
    }

    /// A compact human-readable rendering, used in tables and JSON.
    #[must_use]
    pub fn describe(&self) -> String {
        match *self {
            InstanceSpec::Path { n } => format!("path(n={n})"),
            InstanceSpec::Theorem11 { n, k } => format!("theorem11(n={n},k={k})"),
            InstanceSpec::WeightedPoly { n, delta, d, k } => {
                format!("weighted-poly(n={n},delta={delta},d={d},k={k})")
            }
            InstanceSpec::WeightedLogStar { n, delta, d, k } => {
                format!("weighted-logstar(n={n},delta={delta},d={d},k={k})")
            }
            InstanceSpec::WeightedUnit { n, delta, k } => {
                format!("weighted-unit(n={n},delta={delta},k={k})")
            }
            InstanceSpec::BalancedWeight { w, delta } => {
                format!("balanced-weight(w={w},delta={delta})")
            }
            InstanceSpec::RandomTree {
                n,
                max_degree,
                seed,
            } => {
                format!("random-tree(n={n},max_degree={max_degree},seed={seed})")
            }
            InstanceSpec::Caterpillar { spine, legs } => {
                format!("caterpillar(spine={spine},legs={legs})")
            }
            InstanceSpec::Ladder { rungs } => format!("ladder(rungs={rungs})"),
            InstanceSpec::Broom { spine, bristles } => {
                format!("broom(spine={spine},bristles={bristles})")
            }
            InstanceSpec::Spider { legs, leg_len } => {
                format!("spider(legs={legs},leg_len={leg_len})")
            }
            InstanceSpec::CompleteAry { arity, height } => {
                format!("complete-ary(arity={arity},height={height})")
            }
            InstanceSpec::HeavyPath { n } => format!("heavy-path(n={n})"),
            InstanceSpec::Churned { ref base, batch, n } => {
                format!("churned({},batch={batch},n={n})", base.describe())
            }
        }
    }

    /// Builds the instance this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::BadSpec`] when the parameters are not
    /// realizable (zero sizes, `k = 0`, construction errors).
    pub fn build(&self) -> Result<Instance, HarnessError> {
        let data = match *self {
            InstanceSpec::Path { n } => {
                if n == 0 {
                    return Err(HarnessError::BadSpec("path needs n >= 1".into()));
                }
                InstanceData::Plain(generators::path(n))
            }
            InstanceSpec::Theorem11 { n, k } => {
                if k == 0 {
                    return Err(HarnessError::BadSpec("theorem11 needs k >= 1".into()));
                }
                let lengths = params::theorem11_lengths(n, k);
                let g = LowerBoundGraph::new(&lengths)
                    .map_err(|e| HarnessError::BadSpec(format!("theorem11 lengths: {e}")))?;
                InstanceData::LowerBound(g)
            }
            InstanceSpec::WeightedPoly { n, delta, d, k } => {
                check_weighted_params(n, k)?;
                let x = lcl_core::landscape::efficiency_x(delta, d);
                weighted_data(n, delta, k, params::poly_lengths((n / k).max(4), x, k))?
            }
            InstanceSpec::WeightedLogStar { n, delta, d, k } => {
                check_weighted_params(n, k)?;
                let x = lcl_core::landscape::efficiency_x(delta, d);
                weighted_data(n, delta, k, params::log_star_lengths((n / k).max(4), x, k))?
            }
            InstanceSpec::WeightedUnit { n, delta, k } => {
                check_weighted_params(n, k)?;
                weighted_data(n, delta, k, params::poly_lengths((n / k).max(4), 1.0, k))?
            }
            InstanceSpec::BalancedWeight { w, delta } => {
                if w == 0 || delta < 2 {
                    return Err(HarnessError::BadSpec(
                        "balanced-weight needs w >= 1 and delta >= 2".into(),
                    ));
                }
                InstanceData::Plain(generators::balanced_weight_tree(w, delta))
            }
            InstanceSpec::RandomTree {
                n,
                max_degree,
                seed,
            } => {
                if n == 0 || max_degree < 2 {
                    return Err(HarnessError::BadSpec(
                        "random-tree needs n >= 1 and max_degree >= 2".into(),
                    ));
                }
                InstanceData::Plain(generators::random_bounded_degree_tree(n, max_degree, seed))
            }
            InstanceSpec::Caterpillar { spine, legs } => {
                if spine == 0 {
                    return Err(HarnessError::BadSpec("caterpillar needs spine >= 1".into()));
                }
                InstanceData::Plain(generators::caterpillar(spine, legs))
            }
            InstanceSpec::Ladder { rungs } => {
                if rungs == 0 {
                    return Err(HarnessError::BadSpec("ladder needs rungs >= 1".into()));
                }
                InstanceData::Plain(generators::ladder(rungs))
            }
            InstanceSpec::Broom { spine, bristles } => InstanceData::Plain(
                generators::broom(spine, bristles)
                    .map_err(|e| HarnessError::BadSpec(format!("broom: {e}")))?,
            ),
            InstanceSpec::Spider { legs, leg_len } => {
                if legs > 0 && leg_len == 0 {
                    return Err(HarnessError::BadSpec(
                        "spider legs must be non-empty".into(),
                    ));
                }
                InstanceData::Plain(generators::spider(legs, leg_len))
            }
            InstanceSpec::CompleteAry { arity, height } => {
                if arity == 0 && height > 0 {
                    return Err(HarnessError::BadSpec(
                        "complete-ary needs arity >= 1".into(),
                    ));
                }
                if self.requested_n() > 50_000_000 {
                    return Err(HarnessError::BadSpec(
                        "complete-ary parameters overflow a reasonable node count".into(),
                    ));
                }
                InstanceData::Plain(generators::complete_ary_tree(arity, height))
            }
            InstanceSpec::HeavyPath { n } => {
                if n == 0 {
                    return Err(HarnessError::BadSpec("heavy-path needs n >= 1".into()));
                }
                InstanceData::Plain(generators::heavy_path_skewed(n))
            }
            InstanceSpec::Churned { .. } => {
                return Err(HarnessError::BadSpec(
                    "churned instances are materialized by DynamicSession, not from the spec"
                        .into(),
                ));
            }
        };
        Ok(Instance {
            spec: self.clone(),
            data,
        })
    }

    /// Builds through the process-wide instance cache: a repeated spec
    /// returns the same immutable `Arc<Instance>` instead of regenerating
    /// the topology. Generators are deterministic, so sharing cannot
    /// change answers (the service's differential suite asserts this).
    ///
    /// Oversized instances (above one million nodes) are
    /// built but not retained; build errors are never cached — they are
    /// cheap to rediscover and keep the cache value type simple.
    ///
    /// # Errors
    ///
    /// The same [`HarnessError::BadSpec`] conditions as [`Self::build`].
    pub fn build_shared(&self) -> Result<Arc<Instance>, HarnessError> {
        if let Some(hit) = instance_cache()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .lookup(self)
        {
            return Ok(hit);
        }
        // Build outside the lock; a racing equal spec at worst duplicates
        // the work once and the first insert is kept.
        let built = Arc::new(self.build()?);
        if built.node_count() <= INSTANCE_CACHE_MAX_NODES {
            let mut cache = instance_cache()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(hit) = cache.peek(self) {
                return Ok(hit);
            }
            cache.insert(self.clone(), built.clone());
        }
        Ok(built)
    }
}

/// Maximum number of cached peelings (distinct `(spec, k)` pairs).
const LEVELS_CACHE_CAP: usize = 32;

/// Process-wide peeling cache shared by every [`Instance`] built from an
/// equal spec — including instances living in different [`Session`]
/// (crate::Session) shards or different figure sweeps. Peelings depend
/// only on `(spec, k)` (generators are deterministic), so the same spec
/// appearing in several figures no longer re-peels per shard.
///
/// Kept small and LRU-evicted: at production scale one entry is `n` bytes.
type LevelsLru = BoundedLru<(InstanceSpec, usize), Arc<Levels>>;

fn levels_cache() -> &'static Mutex<LevelsLru> {
    static CACHE: OnceLock<Mutex<LevelsLru>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BoundedLru::new(LEVELS_CACHE_CAP)))
}

/// Snapshot of the process-wide peeling cache counters (the service
/// reports this per `stats` request).
#[must_use]
pub fn levels_cache_stats() -> CacheStats {
    levels_cache()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .stats()
}

/// Maximum number of cached built instances.
const INSTANCE_CACHE_CAP: usize = 8;

/// Instances above this node count are built but never retained: the
/// cache bounds entry *count*, so it must also bound entry *size* or a
/// scale sweep could pin hundreds of megabytes of topology.
const INSTANCE_CACHE_MAX_NODES: usize = 1_000_000;

/// Process-wide built-instance cache behind
/// [`InstanceSpec::build_shared`]: generators are deterministic, so a
/// repeated spec (the `lcld` service solving the same preset for many
/// clients) reuses one immutable topology instead of rebuilding it.
fn instance_cache() -> &'static Mutex<BoundedLru<InstanceSpec, Arc<Instance>>> {
    static CACHE: OnceLock<Mutex<BoundedLru<InstanceSpec, Arc<Instance>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BoundedLru::new(INSTANCE_CACHE_CAP)))
}

/// Snapshot of the process-wide built-instance cache counters.
#[must_use]
pub fn instance_cache_stats() -> CacheStats {
    instance_cache()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .stats()
}

fn check_weighted_params(n: usize, k: usize) -> Result<(), HarnessError> {
    if k == 0 || n == 0 {
        return Err(HarnessError::BadSpec(
            "weighted construction needs n >= 1 and k >= 1".into(),
        ));
    }
    Ok(())
}

fn weighted_data(
    n: usize,
    delta: usize,
    k: usize,
    lengths: Vec<usize>,
) -> Result<InstanceData, HarnessError> {
    let weight_per_level = n / k;
    let c = WeightedConstruction::new(&WeightedParams {
        lengths,
        delta,
        weight_per_level,
    })
    .map_err(|e| HarnessError::BadSpec(format!("weighted construction: {e}")))?;
    Ok(InstanceData::Weighted(c))
}

enum InstanceData {
    Plain(Tree),
    LowerBound(LowerBoundGraph),
    Weighted(WeightedConstruction),
}

/// A built instance: topology plus construction metadata. Peeling
/// decompositions are memoized in a process-wide cache keyed by
/// `(spec, k)`, shared across all instances of the same spec.
pub struct Instance {
    spec: InstanceSpec,
    data: InstanceData,
}

impl Instance {
    /// Wraps an externally materialized plain tree under the given spec.
    ///
    /// This is the [`DynamicSession`](crate::DynamicSession) entry point:
    /// churned topologies are products of an op stream, not of a generator,
    /// so they bypass [`InstanceSpec::build`]. The spec (normally
    /// [`InstanceSpec::Churned`]) keeps records self-describing.
    #[must_use]
    pub fn from_tree(spec: InstanceSpec, tree: Tree) -> Self {
        Instance {
            spec,
            data: InstanceData::Plain(tree),
        }
    }

    /// The spec this instance was built from.
    #[must_use]
    pub fn spec(&self) -> &InstanceSpec {
        &self.spec
    }

    /// The coarse instance family.
    #[must_use]
    pub fn kind(&self) -> InstanceKind {
        self.spec.kind()
    }

    /// The underlying tree.
    #[must_use]
    pub fn tree(&self) -> &Tree {
        match &self.data {
            InstanceData::Plain(t) => t,
            InstanceData::LowerBound(g) => g.tree(),
            InstanceData::Weighted(c) => c.tree(),
        }
    }

    /// Actual node count of the built instance.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.tree().node_count()
    }

    /// The size parameter the spec asked for (algorithms schedule phase
    /// parameters against `max(requested, actual)`, mirroring the paper's
    /// "nodes know n" convention).
    #[must_use]
    pub fn requested_n(&self) -> usize {
        self.spec.requested_n()
    }

    /// `Active`/`Weight` input labels, for weighted constructions.
    #[must_use]
    pub fn node_kinds(&self) -> Option<&[NodeKind]> {
        match &self.data {
            InstanceData::Weighted(c) => Some(c.kinds()),
            _ => None,
        }
    }

    /// The weighted construction, when this instance is one.
    #[must_use]
    pub fn construction(&self) -> Option<&WeightedConstruction> {
        match &self.data {
            InstanceData::Weighted(c) => Some(c),
            _ => None,
        }
    }

    /// The lower-bound construction, when this instance is one.
    #[must_use]
    pub fn lower_bound(&self) -> Option<&LowerBoundGraph> {
        match &self.data {
            InstanceData::LowerBound(g) => Some(g),
            _ => None,
        }
    }

    /// The depth-`k` peeling of the whole tree, computed once per
    /// `(spec, k)` process-wide and shared.
    ///
    /// Sweeps run one instance under many seeds, and the same spec often
    /// appears in several [`Session`](crate::Session) shards or figures;
    /// the peeling only depends on topology, so all of them share it.
    ///
    /// A poisoned cache mutex is recovered, not propagated: the cache
    /// holds only immutable `Arc<Levels>` values, so a panic elsewhere
    /// can at worst have lost an insert.
    #[must_use]
    pub fn levels(&self, k: usize) -> Arc<Levels> {
        let key = (self.spec.clone(), k);
        if let Some(hit) = levels_cache()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .lookup(&key)
        {
            return hit;
        }
        // Compute outside the lock so unrelated specs never serialize on
        // one peeling; a racing equal spec at worst duplicates the work
        // once and the last insert wins.
        let computed = Arc::new(Levels::compute(self.tree(), k));
        let mut cache = levels_cache()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Uncounted re-check: the miss above already accounted for this
        // request; a racing equal spec should not skew the counters.
        if let Some(hit) = cache.peek(&key) {
            return hit;
        }
        cache.insert(key, computed.clone());
        computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_spec_builds() {
        let inst = InstanceSpec::Path { n: 9 }.build().unwrap();
        assert_eq!(inst.node_count(), 9);
        assert_eq!(inst.kind(), InstanceKind::Path);
        assert!(inst.node_kinds().is_none());
    }

    #[test]
    fn weighted_spec_builds_with_kinds() {
        let spec = InstanceSpec::WeightedPoly {
            n: 3_000,
            delta: 5,
            d: 2,
            k: 2,
        };
        let inst = spec.build().unwrap();
        assert!(inst.node_count() >= 1_000);
        assert_eq!(inst.node_kinds().unwrap().len(), inst.node_count());
        assert_eq!(inst.kind(), InstanceKind::Weighted);
    }

    #[test]
    fn levels_are_cached() {
        let inst = InstanceSpec::Theorem11 { n: 2_000, k: 2 }.build().unwrap();
        let a = inst.levels(2);
        let b = inst.levels(2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn levels_are_shared_across_instances_of_one_spec() {
        // Two separate builds of the same spec — e.g. the same figure spec
        // appearing in two Session shards — share one peeling.
        let spec = InstanceSpec::Theorem11 { n: 1_500, k: 3 };
        let first = spec.build().unwrap();
        let a = first.levels(3);
        drop(first);
        let second = spec.build().unwrap();
        let b = second.levels(3);
        assert!(Arc::ptr_eq(&a, &b), "peeling recomputed across instances");
    }

    #[test]
    fn build_shared_reuses_one_topology_and_counts_hits() {
        let spec = InstanceSpec::Caterpillar { spine: 41, legs: 2 };
        let a = spec.build_shared().unwrap();
        let b = spec.build_shared().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "instance rebuilt despite the cache");
        let stats = instance_cache_stats();
        assert!(stats.hits >= 1, "{stats:?}");
        assert!(stats.entries >= 1, "{stats:?}");
    }

    #[test]
    fn build_shared_propagates_bad_specs() {
        assert!(InstanceSpec::Path { n: 0 }.build_shared().is_err());
        // Errors are not cached: a later equal lookup still misses.
        assert!(InstanceSpec::Path { n: 0 }.build_shared().is_err());
    }

    #[test]
    fn zero_sizes_rejected() {
        assert!(InstanceSpec::Path { n: 0 }.build().is_err());
        assert!(InstanceSpec::WeightedUnit {
            n: 100,
            delta: 5,
            k: 0
        }
        .build()
        .is_err());
    }

    #[test]
    fn describe_is_stable() {
        let spec = InstanceSpec::WeightedUnit {
            n: 10,
            delta: 5,
            k: 2,
        };
        assert_eq!(spec.describe(), "weighted-unit(n=10,delta=5,k=2)");
    }
}
