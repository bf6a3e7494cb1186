//! The object-safe [`Algorithm`] trait and its run artifacts.

use crate::instance::{HarnessError, Instance, InstanceKind, InstanceSpec};
use crate::planner::SolverFit;
use lcl_core::landscape::ComplexityClass;
use lcl_core::problem_spec::ProblemSpec;
use lcl_local::engine::EngineConfig;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Frozen per-session context for dynamic (churn) workloads.
///
/// A [`DynamicSession`](crate::DynamicSession) assigns every node a
/// *persistent* id that survives tree surgery, and freezes the parameters a
/// protocol's trajectory depends on so that incremental region runs and
/// from-scratch baseline runs see identical inputs:
///
/// - `ids[v]` is the persistent id of node `v` of the instance being run —
///   the whole current tree, or one extracted region of it (inserted nodes
///   get fresh ids; ids are never reused),
/// - `space` is the frozen id-space bound for id-space-driven cascades
///   (Linial); it only grows, and growing it forces a full re-solve,
/// - `n_hint` is the largest node count the session has ever seen — round
///   budgets derived from `n` must use it so that a shrinking tree cannot
///   invalidate rounds reached before the shrink.
#[derive(Debug, Clone)]
pub struct SessionScope {
    /// Persistent id of every node of the instance being run (the whole
    /// tree, or one region), indexed by node id.
    pub ids: Arc<Vec<u64>>,
    /// Frozen id-space bound (strictly above every id ever issued).
    pub space: u64,
    /// Monotone maximum of the session's node counts.
    pub n_hint: usize,
}

/// Knobs shared by every algorithm run.
///
/// The instance spec is authoritative for parameters it carries (`Δ`,
/// `d`, `k` of a weighted construction); the config supplies the seed,
/// parameters for algorithms whose instances do not fix them, and the
/// ablation/verification switches.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed for the ID assignment (and the randomized algorithm's coins).
    pub seed: u64,
    /// Hierarchy depth for algorithms running on plain trees
    /// (`labeling-solver`); ignored when the spec carries `k`.
    pub k: Option<usize>,
    /// Decline budget for the `d`-free algorithms on plain weight trees;
    /// ignored when the spec carries `d`.
    pub d: Option<usize>,
    /// Multiplier applied to every phase parameter `γ_i` (Corollary 31
    /// ablations); `1.0` is the paper's optimum and exact identity.
    pub gamma_multiplier: f64,
    /// Verify the output against the problem constraints after the run.
    pub verify: bool,
    /// Chunked-engine knobs (chunk size, thread count). Every run executes
    /// natively on the chunked LOCAL engine — this configures *how*, not
    /// whether.
    pub engine: EngineConfig,
    /// The declarative problem driving table-parameterized solvers
    /// (`path-lcl`); filled by the planner, ignored by algorithms whose
    /// problem is fixed by their instance family.
    pub problem: Option<ProblemSpec>,
    /// Dynamic-session context (persistent ids, frozen id space, monotone
    /// `n`). `None` for ordinary static runs; set by
    /// [`DynamicSession`](crate::DynamicSession) on both incremental *and*
    /// baseline runs so the two see identical inputs.
    pub scope: Option<SessionScope>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 1,
            k: None,
            d: None,
            gamma_multiplier: 1.0,
            verify: true,
            engine: EngineConfig::default(),
            problem: None,
            scope: None,
        }
    }
}

impl RunConfig {
    /// A default config with the given seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        RunConfig {
            seed,
            ..RunConfig::default()
        }
    }

    /// Returns `self` with verification disabled (perf sweeps).
    #[must_use]
    pub fn without_verify(mut self) -> Self {
        self.verify = false;
        self
    }

    /// Returns `self` with the given `γ` multiplier.
    #[must_use]
    pub fn with_gamma_multiplier(mut self, m: f64) -> Self {
        self.gamma_multiplier = m;
        self
    }

    /// Returns `self` with the given chunked-engine knobs.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Returns `self` carrying the declarative problem (consumed by
    /// table-driven solvers such as `path-lcl`).
    #[must_use]
    pub fn with_problem(mut self, problem: ProblemSpec) -> Self {
        self.problem = Some(problem);
        self
    }

    /// Returns `self` carrying a dynamic-session scope.
    #[must_use]
    pub fn with_scope(mut self, scope: SessionScope) -> Self {
        self.scope = Some(scope);
        self
    }

    /// Scales the phase parameters by the configured multiplier (exact
    /// identity at `1.0`).
    #[must_use]
    pub fn scale_gammas(&self, gammas: &[usize]) -> Vec<usize> {
        scale_gammas(gammas, self.gamma_multiplier)
    }

    /// The executor tag of every record run under this config:
    /// `"sharded"` when the engine routes runs through the out-of-core
    /// executor, `"chunked"` otherwise.
    pub(crate) fn engine_tag(&self) -> &'static str {
        if self.engine.shard.is_some() {
            "sharded"
        } else {
            "chunked"
        }
    }
}

/// Scales every `γ_i` by `multiplier`, clamping at 1 (exact identity at
/// `1.0`).
#[must_use]
pub fn scale_gammas(gammas: &[usize], multiplier: f64) -> Vec<usize> {
    if multiplier == 1.0 {
        return gammas.to_vec();
    }
    gammas
        .iter()
        .map(|&g| ((g as f64) * multiplier).round().max(1.0) as usize)
        .collect()
}

/// One bin of a termination histogram: `count` nodes fixed their output
/// in exactly round `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RoundBin {
    /// The termination round.
    pub round: u64,
    /// How many nodes terminated in that round.
    pub count: u64,
}

/// One completed algorithm execution, with exact per-node rounds.
#[derive(Debug, Clone, Serialize)]
pub struct RunRecord {
    /// Registry name of the algorithm.
    pub algorithm: String,
    /// Rendered instance spec (see [`InstanceSpec::describe`]).
    pub spec: String,
    /// Actual node count of the instance.
    pub n: usize,
    /// Seed used for IDs/coins.
    pub seed: u64,
    /// Per-node output labels in a canonical `u64` encoding (length =
    /// `n`). The encoding is injective per algorithm (see the adapters);
    /// equality of label vectors is equality of outputs.
    pub labels: Vec<u64>,
    /// Per-node termination rounds (length = `n`).
    pub rounds: Vec<u64>,
    /// Node-averaged complexity of the run.
    pub node_averaged: f64,
    /// Worst-case round of the run.
    pub worst_case: u64,
    /// Median termination round: half the nodes have fixed their output
    /// by this round. Far below `worst_case` for algorithms with a small
    /// late-terminating core (the paper's central phenomenon).
    pub median_round: u64,
    /// Sparse termination histogram (`count > 0` bins, sorted by round):
    /// the per-node distribution the node-averaged summaries are
    /// computed from.
    pub histogram: Vec<RoundBin>,
    /// Node-averaged rounds over the *waiting mass* only (nodes that do
    /// not output `Decline`/`Connect`); equals `node_averaged` for
    /// problems without a declining side.
    pub waiting_averaged: f64,
    /// Whether the output was verified against the problem constraints
    /// (false = verification was skipped via [`RunConfig::verify`]).
    pub verified: bool,
    /// Which executor produced the rounds: `"chunked"` (the monolithic
    /// chunked LOCAL engine) or `"sharded"` (the out-of-core executor;
    /// bit-identical outputs, so the tag is telemetry only). `"direct"`
    /// appears only on structural-oracle assemblies in tests.
    pub engine: String,
    /// Wall-clock milliseconds of the algorithm proper (filled by
    /// [`run_timed`]; `0.0` for direct [`Algorithm::run`] calls).
    pub elapsed_ms: f64,
    /// Peak resident message-arena bytes of the engine run: the
    /// monolithic engine's two full arenas, or the sharded engine's
    /// high-water mark of resident shard arenas plus halo buffers. `0`
    /// on structural-oracle assemblies (no engine run).
    pub peak_arena_bytes: u64,
    /// Engine throughput in nodes per wall-clock second (filled by
    /// [`run_timed`] alongside `elapsed_ms`; `0.0` for direct
    /// [`Algorithm::run`] calls).
    pub engine_nodes_per_sec: f64,
}

impl RunRecord {
    /// Assembles a record from per-node labels and rounds; the summary
    /// statistics all come from one
    /// [`TerminationProfile`](lcl_local::metrics::TerminationProfile) of
    /// the rounds. The record starts with `engine = "direct"`.
    ///
    /// # Panics
    ///
    /// Panics if `labels` and `rounds` have different lengths.
    #[must_use]
    pub fn from_rounds(
        algorithm: &str,
        spec: &InstanceSpec,
        seed: u64,
        labels: Vec<u64>,
        rounds: Vec<u64>,
        waiting_averaged: Option<f64>,
        verified: bool,
    ) -> Self {
        assert_eq!(
            labels.len(),
            rounds.len(),
            "labels and rounds must cover the same nodes"
        );
        let profile = lcl_local::metrics::TerminationProfile::from_rounds(&rounds);
        let node_averaged = profile.node_averaged();
        let worst_case = profile.worst_case();
        let median_round = profile.quantile(0.5);
        let histogram = profile
            .nonzero_bins()
            .into_iter()
            .map(|(round, count)| RoundBin { round, count })
            .collect();
        let n = rounds.len();
        RunRecord {
            algorithm: algorithm.to_string(),
            spec: spec.describe(),
            n,
            seed,
            labels,
            rounds,
            node_averaged,
            worst_case,
            median_round,
            histogram,
            waiting_averaged: waiting_averaged.unwrap_or(node_averaged),
            verified,
            engine: "direct".to_string(),
            elapsed_ms: 0.0,
            peak_arena_bytes: 0,
            engine_nodes_per_sec: 0.0,
        }
    }

    /// Returns the record re-attributed to the given executor; the
    /// adapters stamp `"chunked"` or `"sharded"` on every
    /// engine-observed record.
    #[must_use]
    pub fn on_engine(mut self, engine: &str) -> Self {
        self.engine = engine.to_string();
        self
    }

    /// Returns the record carrying the engine run's peak resident arena
    /// bytes (see [`RunRecord::peak_arena_bytes`]).
    #[must_use]
    pub fn with_peak_arena_bytes(mut self, bytes: u64) -> Self {
        self.peak_arena_bytes = bytes;
        self
    }

    /// The termination profile of this run, rebuilt from the raw per-node
    /// `rounds` vector: the summary [`RunRecord::from_rounds`] read the
    /// record's statistics from.
    #[must_use]
    pub fn profile(&self) -> lcl_local::metrics::TerminationProfile {
        lcl_local::metrics::TerminationProfile::from_rounds(&self.rounds)
    }
}

/// An executable algorithm of the paper, as one registry entry.
///
/// The trait is object-safe: the registry hands out `&'static dyn
/// Algorithm` and the [`Session`](crate::Session) runner drives any entry
/// through the same three calls.
pub trait Algorithm: Send + Sync {
    /// Registry name (kebab-case, stable across releases).
    fn name(&self) -> &'static str;

    /// The landscape cell the algorithm realizes, e.g. `"Θ(n^{α₁})"`
    /// (display form; see [`Algorithm::node_averaged_class`] for the
    /// machine-checkable value).
    fn landscape_class(&self) -> &'static str;

    /// The theoretical node-averaged complexity class the algorithm
    /// realizes on its [`classify_spec`](Algorithm::classify_spec)
    /// family, under the parameters of `cfg` — the value the empirical
    /// classifier (`lcl classify`) compares its fitted class against.
    fn node_averaged_class(&self, cfg: &RunConfig) -> ComplexityClass;

    /// The instance family a size sweep should classify the algorithm on.
    ///
    /// Defaults to [`default_spec`](Algorithm::default_spec); overridden
    /// where the theoretical class is realized on a different family than
    /// the canonical sweep instance (the labeling solver's `O(k·n^{1/k})`
    /// bound is tight on paths, not on the random trees it sweeps).
    fn classify_spec(&self, n: usize, cfg: &RunConfig) -> InstanceSpec {
        self.default_spec(n, cfg)
    }

    /// Where in the paper the algorithm lives, e.g. `"Section 7.1"`.
    fn paper_ref(&self) -> &'static str;

    /// Instance families the algorithm accepts.
    fn supported_kinds(&self) -> &'static [InstanceKind];

    /// The canonical sweep instance of target size `n`.
    fn default_spec(&self, n: usize, cfg: &RunConfig) -> InstanceSpec;

    /// The smallest instance the algorithm meaningfully runs on (used by
    /// the registry property tests and `lcl list`).
    fn smallest_spec(&self) -> InstanceSpec;

    /// Executes the algorithm on `instance`.
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnsupportedInstance`] when the instance kind is not
    /// supported, [`HarnessError::BadSpec`] for unusable parameters, and
    /// [`HarnessError::VerificationFailed`] when the output violates the
    /// problem constraints (only checked if `cfg.verify`).
    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError>;

    /// True when the algorithm accepts this instance kind.
    fn supports(&self, kind: InstanceKind) -> bool {
        self.supported_kinds().contains(&kind)
    }

    /// This algorithm's bid on a declarative problem: `Some(fit)` when it
    /// can solve the problem, with a preference score the capability-
    /// indexed resolver ranks bids by. The default bids on nothing;
    /// every adapter overrides it for the families it solves.
    ///
    /// Implementations must be total over arbitrary (possibly invalid)
    /// specs — the resolver may probe before validation.
    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        let _ = problem;
        None
    }

    /// The causal round radius of this solver under a dynamic-session
    /// scope: `Some(T)` promises that a node's output and termination
    /// round depend only on its distance-`T` ball plus per-node state that
    /// survives churn (persistent id, coins keyed on it) — so after a
    /// batch, only nodes within `T` of a touched node can change, and a
    /// region of radius `2T + 1` around the touch set suffices to recompute
    /// them exactly (corruption from the truncated region boundary needs
    /// `T + 1` rounds to reach them, one past their termination).
    ///
    /// The default `None` declares the solver *global*: any topology
    /// change invalidates every label and the session falls back to a full
    /// re-solve (which is still differentially checked).
    ///
    /// A solver that declares a radius is re-run on each extracted region
    /// through [`run`](Algorithm::run): the region is its own instance,
    /// and the scope's `ids` are the region's persistent ids. So its
    /// protocol must not read
    /// [`NodeContext::n`](lcl_local::engine::NodeContext::n), which on a
    /// region run is the region's node count, not the tree's; a budget
    /// that grows with the size must come from [`SessionScope::n_hint`].
    fn churn_radius(&self, scope: &SessionScope) -> Option<u64> {
        let _ = scope;
        None
    }
}

/// Runs `algorithm` on `instance` and stamps the wall-clock time into the
/// record. This is what [`Session`](crate::Session) workers call.
///
/// # Errors
///
/// Propagates the errors of [`Algorithm::run`].
pub fn run_timed(
    algorithm: &dyn Algorithm,
    instance: &Instance,
    cfg: &RunConfig,
) -> Result<RunRecord, HarnessError> {
    let start = Instant::now();
    let mut record = algorithm.run(instance, cfg)?;
    let secs = start.elapsed().as_secs_f64();
    record.elapsed_ms = secs * 1_000.0;
    record.engine_nodes_per_sec = record.n as f64 / secs.max(1e-9);
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_statistics_computed() {
        let spec = InstanceSpec::Path { n: 3 };
        let r = RunRecord::from_rounds(
            "two-coloring",
            &spec,
            9,
            vec![0, 1, 0],
            vec![1, 2, 3],
            None,
            true,
        );
        assert_eq!(r.n, 3);
        assert_eq!(r.node_averaged, 2.0);
        assert_eq!(r.worst_case, 3);
        assert_eq!(r.waiting_averaged, 2.0);
        assert_eq!(r.spec, "path(n=3)");
        assert_eq!(r.labels, vec![0, 1, 0]);
        assert_eq!(r.engine, "direct");
    }

    #[test]
    fn gamma_scaling_identity_at_one() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.scale_gammas(&[7, 19]), vec![7, 19]);
        let half = RunConfig::default().with_gamma_multiplier(0.5);
        assert_eq!(half.scale_gammas(&[7, 19]), vec![4, 10]);
        let tiny = RunConfig::default().with_gamma_multiplier(0.001);
        assert_eq!(tiny.scale_gammas(&[7]), vec![1]);
    }
}
