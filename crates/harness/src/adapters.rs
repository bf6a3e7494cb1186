//! [`Algorithm`] implementations for the paper's algorithms — thin
//! [`Protocol`] factories over the chunked LOCAL engine.
//!
//! Every adapter executes natively on the chunked engine; there is no
//! structural fallback path. The solvers whose round structure the LOCAL
//! model forces to be discovered online (`two-coloring`, `linial`,
//! `randomized`, rigid `path-lcl` tables) run their genuine
//! message-passing protocols from [`lcl_algorithms::protocols`]; the
//! solvers whose outputs are a legitimate port-number/ID-model
//! precomputation first *solve* the instance structurally (deriving the
//! paper's scheduling parameters from the spec), verify the typed output
//! against the matching problem verifier, and then execute the plan as
//! [`ScheduledCast`](lcl_algorithms::protocols::ScheduledCast) machines.
//! Either way the engine-observed outputs and termination rounds become
//! the [`RunRecord`], stamped `engine = "chunked"` (or `"sharded"` when
//! the config routes the run through the out-of-core executor).
//!
//! Since ISSUE 5 every adapter also *bids* on declarative problems via
//! [`Algorithm::solves`]: a specialized adapter bids high on exactly the
//! family it implements, and the table-driven [`PathLclSolver`] bids low
//! on any path-expressible table, so the resolver always prefers the
//! specialist and falls back to the generic solver otherwise.

use crate::algorithm::{scale_gammas, Algorithm, RunConfig, RunRecord, SessionScope};
use crate::instance::{HarnessError, Instance, InstanceKind, InstanceSpec};
use crate::planner::SolverFit;
use lcl_algorithms::a35::a35;
use lcl_algorithms::apoly::apoly;
use lcl_algorithms::dfree_a::algorithm_a;
use lcl_algorithms::fast_decomposition::fast_dfree_standalone;
use lcl_algorithms::generic_coloring::generic_coloring_masked;
use lcl_algorithms::labeling_solver::solve_hierarchical_labeling;
use lcl_algorithms::linial::linial_round_count;
use lcl_algorithms::path_lcl_solver::{solve_path_lcl, verify_path_lcl, PathSolveClass};
use lcl_algorithms::protocols::linial::{cascade_space, LinialCascade};
use lcl_algorithms::protocols::path_lcl::PathLclProtocol;
use lcl_algorithms::protocols::randomized::RandomizedColoring as RandomizedProtocol;
use lcl_algorithms::protocols::two_coloring::WaveTwoColoring;
use lcl_algorithms::protocols::{plan_round_budget, scheduled_cast_factory};
use lcl_algorithms::weight_augmented_solver::solve_weight_augmented;
use lcl_algorithms::AlgorithmRun;
use lcl_core::coloring::{ColorLabel, HierarchicalColoring, Variant};
use lcl_core::dfree::{DFreeWeight, DfreeInput, DfreeOutput};
use lcl_core::labeling::{HierarchicalLabeling, LabelingOutput};
use lcl_core::landscape::ComplexityClass;
use lcl_core::problem::LclProblem;
use lcl_core::problem_spec::{PathTable, ProblemSpec};
use lcl_core::weight_augmented::WeightAugmented;
use lcl_core::weight_augmented::{AugmentedOutput, SecondaryOutput};
use lcl_core::weighted::{WeightedColoring, WeightedOutput};
use lcl_decidability::path_lcl::{PathClass, PathLcl};
use lcl_graph::weighted::WeightedConstruction;
use lcl_graph::{NodeMask, Tree};
use lcl_local::engine::{run_sync_with, EngineConfig, NodeContext, Protocol, SyncOutcome};
use lcl_local::identifiers::Ids;
use lcl_local::packed::PackableMessage;
use lcl_shard::run_sharded;
use std::sync::Arc;

/// Which scheduling regime drives the phase parameters on a weighted
/// construction: `γ_i = n^{α_i}` (polynomial, `A_poly`) or
/// `γ_i = (log* n)^{α_i}` (`log*`, the `Π^{3.5}` algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightedRegime {
    /// `A_poly` on `Π^{2.5}` with `x = log(Δ-d-1)/log(Δ-1)`.
    Poly,
    /// The `Π^{3.5}` algorithm with `x' = log(Δ-d+1)/log(Δ-1)`.
    LogStar,
}

/// Runs the weighted-construction algorithm of the given regime with the
/// paper's optimal phase parameters — the single generic replacement for
/// the former `apoly_on_construction` / `a35_on_construction` twins.
#[must_use]
pub fn run_on_construction(
    construction: &WeightedConstruction,
    k: usize,
    d: usize,
    ids: &Ids,
    regime: WeightedRegime,
) -> AlgorithmRun<WeightedOutput> {
    run_on_construction_scaled(construction, k, d, ids, regime, 1.0)
}

/// Like [`run_on_construction`], scaling every `γ_i` by `multiplier`
/// (Corollary 31 ablations; `1.0` is exact identity).
#[must_use]
pub fn run_on_construction_scaled(
    construction: &WeightedConstruction,
    k: usize,
    d: usize,
    ids: &Ids,
    regime: WeightedRegime,
    multiplier: f64,
) -> AlgorithmRun<WeightedOutput> {
    let (tree, kinds) = (construction.tree(), construction.kinds());
    let n = tree.node_count();
    let delta = construction.delta();
    match regime {
        WeightedRegime::Poly => {
            let x = lcl_core::landscape::efficiency_x(delta, d);
            let gammas = scale_gammas(&lcl_core::params::poly_gammas(n, x, k), multiplier);
            apoly(tree, kinds, k, d, &gammas, ids)
        }
        WeightedRegime::LogStar => {
            let x_prime = lcl_core::landscape::efficiency_x_prime(delta, d).min(1.0);
            let gammas = scale_gammas(
                &lcl_core::params::log_star_gammas(n, x_prime, k),
                multiplier,
            );
            a35(tree, kinds, k, d, &gammas, ids)
        }
    }
}

/// The `(Δ, d, k)` a weighted adapter's theoretical class is computed
/// at: the planned problem's own parameters when the config carries a
/// matching-regime [`ProblemSpec::Weighted`], else the adapter's
/// default-spec parameters with `d` clamped into the exponent formulas'
/// `Δ ≥ d + 3` domain (the hook must be total over arbitrary configs).
fn weighted_class_params(
    cfg: &RunConfig,
    regime: lcl_core::problem_spec::ProblemRegime,
    default_delta: usize,
    default_d: usize,
) -> (usize, usize, usize) {
    if let Some(ProblemSpec::Weighted {
        regime: r,
        delta,
        d,
        k,
    }) = &cfg.problem
    {
        if *r == regime {
            return (*delta, *d, *k);
        }
    }
    let d = cfg
        .d
        .unwrap_or(default_d)
        .clamp(1, default_delta.saturating_sub(3).max(1));
    (default_delta, d, cfg.k.unwrap_or(2))
}

/// Node-averaged rounds over the waiting mass of a weighted run: nodes
/// that do not output `Decline`/`Connect` (the Theorem 2 quantity).
fn weighted_waiting(run: &AlgorithmRun<WeightedOutput>) -> f64 {
    let waiting: u128 = run
        .outputs
        .iter()
        .zip(&run.rounds)
        .filter(|(o, _)| !matches!(o, WeightedOutput::Decline | WeightedOutput::Connect))
        .map(|(_, &r)| r as u128)
        .sum();
    waiting as f64 / run.len() as f64
}

// ---------------------------------------------------------------------------
// Canonical u64 label encodings.
//
// Every adapter reduces its output type to a `u64` label (injective per
// algorithm), so records are comparable across engines and precomputed
// plans travel through the LOCAL engine as plain numeric messages.
// Encodings are stable: golden-record fixtures depend on them.
// ---------------------------------------------------------------------------

fn color_code(c: ColorLabel) -> u64 {
    match c {
        ColorLabel::White => 0,
        ColorLabel::Black => 1,
        ColorLabel::Exempt => 2,
        ColorLabel::Decline => 3,
        ColorLabel::Red => 4,
        ColorLabel::Green => 5,
        ColorLabel::Yellow => 6,
    }
}

fn weighted_code(o: &WeightedOutput) -> u64 {
    match o {
        WeightedOutput::Active(c) => color_code(*c),
        WeightedOutput::Decline => 16,
        WeightedOutput::Connect => 17,
        WeightedOutput::Copy(c) => 32 + color_code(*c),
    }
}

fn dfree_code(o: DfreeOutput) -> u64 {
    match o {
        DfreeOutput::Decline => 0,
        DfreeOutput::Connect => 1,
        DfreeOutput::Copy => 2,
    }
}

fn labeling_code(o: &LabelingOutput) -> u64 {
    let port = o.out_port.map_or(0, |p| p as u64 + 1);
    (u64::from(o.label.order_key()) << 32) | port
}

fn augmented_code(o: &AugmentedOutput) -> u64 {
    match o {
        AugmentedOutput::Active(c) => color_code(*c),
        AugmentedOutput::Weight {
            labeling,
            secondary,
        } => {
            let sec = match secondary {
                SecondaryOutput::Color(c) => color_code(*c),
                SecondaryOutput::Decline => 15,
            };
            (1 << 60) | (labeling_code(labeling) << 8) | sec
        }
    }
}

/// Runs a protocol factory natively on the chunked engine — monolithic by
/// default, or the partitioned out-of-core executor when the config
/// carries a [`ShardConfig`](lcl_local::engine::ShardConfig) (the two are
/// bit-identical; the shard differential suite pins it). An engine error
/// (e.g. a blown round budget) is an engine or adapter bug, never a
/// caller error.
fn execute_protocol<P, F>(
    algo: &dyn Algorithm,
    tree: &Tree,
    ids: &Ids,
    engine: &EngineConfig,
    factory: F,
    budget: u64,
) -> Result<SyncOutcome<P::Output>, HarnessError>
where
    P: Protocol,
    P::Message: PackableMessage,
    F: FnMut(&NodeContext) -> P,
{
    let result = if engine.shard.is_some() {
        run_sharded(tree, ids, factory, budget, engine).map_err(|e| e.to_string())
    } else {
        run_sync_with(tree, ids, factory, budget, engine).map_err(|e| e.to_string())
    };
    result.map_err(|e| HarnessError::EngineDivergence {
        algorithm: algo.name().to_string(),
        detail: format!("chunked engine failed to complete the run: {e}"),
    })
}

/// Assembles the production record from an engine outcome: `labels` are
/// its outputs in the adapter's canonical encoding, the rounds move out of
/// `outcome` and its peak arena bytes are read off it. The record names
/// the executor that observed it (`"chunked"` or `"sharded"`) — the two
/// are bit-identical, so the tag is telemetry, never semantics.
fn record_outcome<O>(
    algo: &dyn Algorithm,
    instance: &Instance,
    cfg: &RunConfig,
    labels: Vec<u64>,
    outcome: SyncOutcome<O>,
    waiting: Option<f64>,
) -> RunRecord {
    RunRecord::from_rounds(
        algo.name(),
        instance.spec(),
        cfg.seed,
        labels,
        outcome.stats.into_vec(),
        waiting,
        cfg.verify,
    )
    .on_engine(cfg.engine_tag())
    .with_peak_arena_bytes(outcome.peak_arena_bytes)
}

/// Checks an engine outcome against the structural plan it executed;
/// divergence means an engine bug, surfaced as an error rather than
/// silently recorded.
fn check_plan(
    algo: &dyn Algorithm,
    outcome: &SyncOutcome<u64>,
    labels: &[u64],
    rounds: &[u64],
) -> Result<(), HarnessError> {
    if outcome.outputs != labels || outcome.stats.as_slice() != rounds {
        return Err(HarnessError::EngineDivergence {
            algorithm: algo.name().to_string(),
            detail: "engine outcome diverges from the solved plan".to_string(),
        });
    }
    Ok(())
}

/// Executes a precomputed plan (per-node labels and termination rounds)
/// natively as `ScheduledCast` machines on the chunked engine and builds
/// the record from the engine-observed outcome. The plan-driven adapters
/// funnel through here.
fn run_plan(
    algo: &dyn Algorithm,
    instance: &Instance,
    cfg: &RunConfig,
    labels: Vec<u64>,
    rounds: Vec<u64>,
    waiting: Option<f64>,
) -> Result<RunRecord, HarnessError> {
    let budget = plan_round_budget(&rounds);
    let labels = Arc::new(labels);
    let rounds = Arc::new(rounds);
    let ids = Ids::sequential(instance.node_count());
    let mut outcome = execute_protocol(
        algo,
        instance.tree(),
        &ids,
        &cfg.engine,
        scheduled_cast_factory(labels.clone(), rounds.clone()),
        budget,
    )?;
    check_plan(algo, &outcome, &labels, &rounds)?;
    let labels = std::mem::take(&mut outcome.outputs);
    Ok(record_outcome(
        algo, instance, cfg, labels, outcome, waiting,
    ))
}

fn verification_error(algorithm: &str, violation: impl std::fmt::Display) -> HarnessError {
    HarnessError::VerificationFailed {
        algorithm: algorithm.to_string(),
        violation: violation.to_string(),
    }
}

fn ensure_supported(algo: &dyn Algorithm, instance: &Instance) -> Result<(), HarnessError> {
    if algo.supports(instance.kind()) {
        Ok(())
    } else {
        Err(HarnessError::UnsupportedInstance {
            algorithm: algo.name().to_string(),
            kind: instance.kind(),
        })
    }
}

/// Checks that adjacent nodes carry distinct colors.
pub(crate) fn check_proper<T: PartialEq + std::fmt::Debug>(
    tree: &Tree,
    colors: &[T],
) -> Result<(), String> {
    for (u, v) in tree.edges() {
        if colors[u] == colors[v] {
            return Err(format!(
                "edge ({u}, {v}) is monochromatic ({:?})",
                colors[u]
            ));
        }
    }
    Ok(())
}

/// The rigid `Θ(n)` baseline: deterministic 2-coloring of paths.
pub struct TwoColoring;

impl Algorithm for TwoColoring {
    fn name(&self) -> &'static str {
        "two-coloring"
    }

    fn landscape_class(&self) -> &'static str {
        "Θ(n)"
    }

    fn node_averaged_class(&self, _cfg: &RunConfig) -> ComplexityClass {
        // Lemma 16: the rigid 2-coloring forces Θ(n) rounds for a
        // constant fraction of the path.
        ComplexityClass::poly(1.0)
    }

    fn paper_ref(&self) -> &'static str {
        "Lemma 16 / Corollary 60"
    }

    fn supported_kinds(&self) -> &'static [InstanceKind] {
        &[InstanceKind::Path]
    }

    fn default_spec(&self, n: usize, _cfg: &RunConfig) -> InstanceSpec {
        InstanceSpec::Path { n }
    }

    fn smallest_spec(&self) -> InstanceSpec {
        InstanceSpec::Path { n: 16 }
    }

    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        let c = problem.path_table()?.as_proper_coloring()?;
        (c == 2).then(|| SolverFit::new(90, "the rigid Θ(n) 2-coloring baseline"))
    }

    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError> {
        ensure_supported(self, instance)?;
        let n = instance.node_count();
        let ids = Ids::random(n, cfg.seed);
        let outcome = execute_protocol(
            self,
            instance.tree(),
            &ids,
            &cfg.engine,
            |_| WaveTwoColoring::new(),
            n as u64 + 2,
        )?;
        if cfg.verify {
            check_proper(instance.tree(), &outcome.outputs)
                .map_err(|e| verification_error(self.name(), e))?;
        }
        let labels = outcome.outputs.iter().map(|&c| color_code(c)).collect();
        Ok(record_outcome(self, instance, cfg, labels, outcome, None))
    }
}

/// Linial's `O(log* n)` 3-coloring of paths by iterated color reduction.
pub struct LinialColoring;

impl Algorithm for LinialColoring {
    fn name(&self) -> &'static str {
        "linial"
    }

    fn landscape_class(&self) -> &'static str {
        "Θ(log* n)"
    }

    fn node_averaged_class(&self, _cfg: &RunConfig) -> ComplexityClass {
        // Every node runs the full color-reduction cascade: node-averaged
        // equals worst-case, Θ(log* n).
        ComplexityClass::log_star()
    }

    fn paper_ref(&self) -> &'static str {
        "Section 2 (Linial's algorithm)"
    }

    fn supported_kinds(&self) -> &'static [InstanceKind] {
        &[InstanceKind::Path]
    }

    fn default_spec(&self, n: usize, _cfg: &RunConfig) -> InstanceSpec {
        InstanceSpec::Path { n }
    }

    fn smallest_spec(&self) -> InstanceSpec {
        InstanceSpec::Path { n: 16 }
    }

    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        // A proper 3-coloring is a valid proper c-coloring for any c ≥ 3.
        let c = problem.path_table()?.as_proper_coloring()?;
        (c >= 3).then(|| SolverFit::new(90, "deterministic Θ(log* n) coloring (c ≥ 3)"))
    }

    fn churn_radius(&self, scope: &SessionScope) -> Option<u64> {
        // The cascade runs in lockstep for a number of rounds fixed by the
        // frozen id space: a node's trajectory depends only on ids within
        // that many hops.
        Some(linial_round_count(scope.space, 2) + 2)
    }

    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError> {
        ensure_supported(self, instance)?;
        // Under a dynamic-session scope, ids and the cascade space are
        // frozen by the session so that incremental region runs and this
        // full baseline see identical trajectories.
        let (ids, space) = match &cfg.scope {
            Some(scope) => (Ids::from_vec(scope.ids.as_ref().clone()), scope.space),
            None => {
                let ids = Ids::random(instance.node_count(), cfg.seed);
                let space = cascade_space(&ids, 2);
                (ids, space)
            }
        };
        let budget = linial_round_count(space, 2) + 2;
        let mut outcome = execute_protocol(
            self,
            instance.tree(),
            &ids,
            &cfg.engine,
            |c| LinialCascade::new(c.id, space, 2),
            budget,
        )?;
        if cfg.verify {
            check_proper(instance.tree(), &outcome.outputs)
                .map_err(|e| verification_error(self.name(), e))?;
            if let Some(&c) = outcome.outputs.iter().find(|&&c| c > 2) {
                return Err(verification_error(
                    self.name(),
                    format!("color {c} outside the 3-color palette"),
                ));
            }
        }
        let labels = std::mem::take(&mut outcome.outputs);
        Ok(record_outcome(self, instance, cfg, labels, outcome, None))
    }
}

/// Randomized 3-coloring of paths: `O(1)` expected node-averaged rounds —
/// the randomized side of Fig. 2.
pub struct RandomizedColoring;

impl Algorithm for RandomizedColoring {
    fn name(&self) -> &'static str {
        "randomized"
    }

    fn landscape_class(&self) -> &'static str {
        "O(1) node-avg (randomized)"
    }

    fn node_averaged_class(&self, _cfg: &RunConfig) -> ComplexityClass {
        ComplexityClass::Constant
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 1/2 ([BBK+23b])"
    }

    fn supported_kinds(&self) -> &'static [InstanceKind] {
        &[InstanceKind::Path]
    }

    fn default_spec(&self, n: usize, _cfg: &RunConfig) -> InstanceSpec {
        InstanceSpec::Path { n }
    }

    fn smallest_spec(&self) -> InstanceSpec {
        InstanceSpec::Path { n: 16 }
    }

    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        let c = problem.path_table()?.as_proper_coloring()?;
        (c >= 3).then(|| SolverFit::new(60, "randomized O(1) node-averaged coloring"))
    }

    fn churn_radius(&self, scope: &SessionScope) -> Option<u64> {
        // Coins are keyed on persistent ids and the budget on the
        // monotone n_hint, so a node's trajectory depends only on its
        // budget-radius ball.
        Some(RandomizedProtocol::round_budget(scope.n_hint))
    }

    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError> {
        ensure_supported(self, instance)?;
        let n = instance.node_count();
        // Coins are drawn per *id*: for static runs ids are sequential so
        // this equals the historical per-node keying; under a
        // dynamic-session scope the persistent ids keep each surviving
        // node's coin stream stable across churn. The round budget uses
        // the monotone n_hint so a shrinking tree cannot lower it below
        // rounds legitimately reached before the shrink.
        let (ids, budget_n) = match &cfg.scope {
            Some(scope) => (
                Ids::from_vec(scope.ids.as_ref().clone()),
                scope.n_hint.max(n),
            ),
            None => (Ids::sequential(n), n),
        };
        let seed = cfg.seed;
        let outcome = execute_protocol(
            self,
            instance.tree(),
            &ids,
            &cfg.engine,
            |c| RandomizedProtocol::new(seed, c.id as usize),
            RandomizedProtocol::round_budget(budget_n),
        )?;
        if cfg.verify {
            check_proper(instance.tree(), &outcome.outputs)
                .map_err(|e| verification_error(self.name(), e))?;
        }
        let labels = outcome.outputs.iter().map(|&c| color_code(c)).collect();
        Ok(record_outcome(self, instance, cfg, labels, outcome, None))
    }
}

/// The generic `k`-hierarchical 3½-coloring (Section 4.1) on Theorem 11
/// lower-bound instances, with the Theorem 11 phase parameters.
pub struct GenericColoring;

impl Algorithm for GenericColoring {
    fn name(&self) -> &'static str {
        "generic-coloring"
    }

    fn landscape_class(&self) -> &'static str {
        "Θ((log* n)^{1/2^{k-1}})"
    }

    fn node_averaged_class(&self, cfg: &RunConfig) -> ComplexityClass {
        let k = cfg.k.unwrap_or(2);
        ComplexityClass::log_star_pow(1.0 / (1u64 << (k - 1)) as f64)
    }

    fn paper_ref(&self) -> &'static str {
        "Theorem 11 / Section 4.1"
    }

    fn supported_kinds(&self) -> &'static [InstanceKind] {
        &[InstanceKind::LowerBound]
    }

    fn default_spec(&self, n: usize, cfg: &RunConfig) -> InstanceSpec {
        InstanceSpec::Theorem11 {
            n,
            k: cfg.k.unwrap_or(2),
        }
    }

    fn smallest_spec(&self) -> InstanceSpec {
        InstanceSpec::Theorem11 { n: 400, k: 2 }
    }

    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        matches!(problem, ProblemSpec::HierarchicalColoring { .. })
            .then(|| SolverFit::new(90, "the Theorem 11 hierarchical 3½-coloring"))
    }

    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError> {
        ensure_supported(self, instance)?;
        let k = instance.spec().hierarchy_k().ok_or_else(|| {
            HarnessError::BadSpec(format!(
                "`{}` needs an instance spec carrying a hierarchy depth k",
                self.name()
            ))
        })?;
        let n = instance.node_count();
        let ids = Ids::random(n, cfg.seed);
        let gammas = lcl_core::params::theorem11_gammas(n.max(instance.requested_n()), k);
        let gammas = cfg.scale_gammas(&gammas);
        let mask = NodeMask::full(n);
        let levels = instance.levels(k);
        let masked = generic_coloring_masked(
            instance.tree(),
            &mask,
            &levels,
            Variant::ThreeHalf,
            &gammas,
            &ids,
        );
        let outputs: Vec<_> = masked
            .outputs
            .into_iter()
            .map(|o| o.unwrap_or_else(|| unreachable!("a full mask decides everywhere")))
            .collect();
        if cfg.verify {
            HierarchicalColoring::new(k, Variant::ThreeHalf)
                .verify(instance.tree(), &vec![(); n], &outputs)
                .map_err(|e| verification_error(self.name(), e))?;
        }
        let labels = outputs.iter().map(|&c| color_code(c)).collect();
        run_plan(self, instance, cfg, labels, masked.rounds, None)
    }
}

/// Shared shim for the two weighted-construction algorithms; the regime
/// fixes the coloring variant the output is verified against.
fn run_weighted(
    algo: &dyn Algorithm,
    regime: WeightedRegime,
    instance: &Instance,
    cfg: &RunConfig,
) -> Result<RunRecord, HarnessError> {
    ensure_supported(algo, instance)?;
    let construction = instance.construction().ok_or_else(|| {
        HarnessError::BadSpec(format!(
            "`{}` needs a weighted instance carrying a construction",
            algo.name()
        ))
    })?;
    let k = instance.spec().hierarchy_k().ok_or_else(|| {
        HarnessError::BadSpec(format!(
            "`{}` needs an instance spec carrying a hierarchy depth k",
            algo.name()
        ))
    })?;
    let d = instance.spec().decline_d().or(cfg.d).ok_or_else(|| {
        HarnessError::BadSpec(format!(
            "`{}` needs a decline budget d (spec or RunConfig)",
            algo.name()
        ))
    })?;
    let ids = Ids::random(instance.node_count(), cfg.seed);
    let run = run_on_construction_scaled(construction, k, d, &ids, regime, cfg.gamma_multiplier);
    if cfg.verify {
        let variant = match regime {
            WeightedRegime::Poly => Variant::TwoHalf,
            WeightedRegime::LogStar => Variant::ThreeHalf,
        };
        let problem = WeightedColoring::new(variant, construction.delta(), d, k)
            .map_err(HarnessError::BadSpec)?;
        problem
            .verify(instance.tree(), construction.kinds(), &run.outputs)
            .map_err(|e| verification_error(algo.name(), e))?;
    }
    let waiting = weighted_waiting(&run);
    let labels = run.outputs.iter().map(weighted_code).collect();
    run_plan(algo, instance, cfg, labels, run.rounds, Some(waiting))
}

/// `A_poly` for `Π^{2.5}_{Δ,d,k}` (Section 7.1).
pub struct Apoly;

impl Algorithm for Apoly {
    fn name(&self) -> &'static str {
        "apoly"
    }

    fn landscape_class(&self) -> &'static str {
        "Θ(n^{α₁(x)})"
    }

    fn node_averaged_class(&self, cfg: &RunConfig) -> ComplexityClass {
        // The Theorem 2 exponent at the planned problem's (Δ, d, k), or
        // the default-spec parameters (Δ = 5) otherwise.
        let (delta, d, k) =
            weighted_class_params(cfg, lcl_core::problem_spec::ProblemRegime::Poly, 5, 2);
        let x = lcl_core::landscape::efficiency_x(delta, d);
        ComplexityClass::poly(lcl_core::landscape::alpha1_poly(x, k))
    }

    fn paper_ref(&self) -> &'static str {
        "Theorems 2–3 / Section 7.1"
    }

    fn supported_kinds(&self) -> &'static [InstanceKind] {
        &[InstanceKind::Weighted]
    }

    fn default_spec(&self, n: usize, cfg: &RunConfig) -> InstanceSpec {
        InstanceSpec::WeightedPoly {
            n,
            delta: 5,
            d: cfg.d.unwrap_or(2),
            k: cfg.k.unwrap_or(2),
        }
    }

    fn smallest_spec(&self) -> InstanceSpec {
        InstanceSpec::WeightedPoly {
            n: 2_000,
            delta: 5,
            d: 2,
            k: 2,
        }
    }

    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        matches!(
            problem,
            ProblemSpec::Weighted {
                regime: lcl_core::problem_spec::ProblemRegime::Poly,
                ..
            }
        )
        .then(|| SolverFit::new(90, "A_poly on the Π^{2.5} weighted family"))
    }

    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError> {
        run_weighted(self, WeightedRegime::Poly, instance, cfg)
    }
}

/// The `Π^{3.5}_{Δ,d,k}` algorithm (Section 8.2).
pub struct A35;

impl Algorithm for A35 {
    fn name(&self) -> &'static str {
        "a35"
    }

    fn landscape_class(&self) -> &'static str {
        "O((log* n)^{α₁(x')})"
    }

    fn node_averaged_class(&self, cfg: &RunConfig) -> ComplexityClass {
        // Theorem 5's upper bound at the planned problem's (Δ, d, k), or
        // the default-spec parameters (Δ = 6) otherwise.
        let (delta, d, k) =
            weighted_class_params(cfg, lcl_core::problem_spec::ProblemRegime::LogStar, 6, 3);
        let x_prime = lcl_core::landscape::efficiency_x_prime(delta, d).min(1.0);
        ComplexityClass::log_star_pow(lcl_core::landscape::alpha1_log_star(x_prime, k))
    }

    fn paper_ref(&self) -> &'static str {
        "Theorems 4–5 / Section 8.2"
    }

    fn supported_kinds(&self) -> &'static [InstanceKind] {
        &[InstanceKind::Weighted]
    }

    fn default_spec(&self, n: usize, cfg: &RunConfig) -> InstanceSpec {
        InstanceSpec::WeightedLogStar {
            n,
            delta: 6,
            d: cfg.d.unwrap_or(3),
            k: cfg.k.unwrap_or(2),
        }
    }

    fn smallest_spec(&self) -> InstanceSpec {
        InstanceSpec::WeightedLogStar {
            n: 2_000,
            delta: 6,
            d: 3,
            k: 2,
        }
    }

    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        matches!(
            problem,
            ProblemSpec::Weighted {
                regime: lcl_core::problem_spec::ProblemRegime::LogStar,
                ..
            }
        )
        .then(|| SolverFit::new(90, "the Π^{3.5} log*-regime algorithm"))
    }

    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError> {
        run_weighted(self, WeightedRegime::LogStar, instance, cfg)
    }
}

/// The `k`-hierarchical weight-augmented 2½-coloring (Lemma 69).
pub struct WeightAugmentedSolver;

impl Algorithm for WeightAugmentedSolver {
    fn name(&self) -> &'static str {
        "weight-augmented"
    }

    fn landscape_class(&self) -> &'static str {
        "Θ(n^{1/k})"
    }

    fn node_averaged_class(&self, cfg: &RunConfig) -> ComplexityClass {
        ComplexityClass::poly(1.0 / cfg.k.unwrap_or(2) as f64)
    }

    fn paper_ref(&self) -> &'static str {
        "Lemma 69 / Section 10"
    }

    fn supported_kinds(&self) -> &'static [InstanceKind] {
        &[InstanceKind::Weighted]
    }

    fn default_spec(&self, n: usize, cfg: &RunConfig) -> InstanceSpec {
        InstanceSpec::WeightedUnit {
            n,
            delta: 5,
            k: cfg.k.unwrap_or(2),
        }
    }

    fn smallest_spec(&self) -> InstanceSpec {
        InstanceSpec::WeightedUnit {
            n: 2_000,
            delta: 5,
            k: 2,
        }
    }

    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        matches!(problem, ProblemSpec::WeightAugmented { .. })
            .then(|| SolverFit::new(90, "the Lemma 69 weight-augmented 2½-coloring"))
    }

    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError> {
        ensure_supported(self, instance)?;
        let construction = instance.construction().ok_or_else(|| {
            HarnessError::BadSpec(format!(
                "`{}` needs a weighted instance carrying a construction",
                self.name()
            ))
        })?;
        let k = instance.spec().hierarchy_k().ok_or_else(|| {
            HarnessError::BadSpec(format!(
                "`{}` needs an instance spec carrying a hierarchy depth k",
                self.name()
            ))
        })?;
        let ids = Ids::random(instance.node_count(), cfg.seed);
        let run = solve_weight_augmented(instance.tree(), construction.kinds(), k, &ids);
        if cfg.verify {
            WeightAugmented::new(k)
                .verify(instance.tree(), construction.kinds(), &run.outputs)
                .map_err(|e| verification_error(self.name(), e))?;
        }
        let labels = run.outputs.iter().map(augmented_code).collect();
        run_plan(self, instance, cfg, labels, run.rounds, None)
    }
}

/// Input labels for the standalone `d`-free runs on plain trees: node 0
/// plays the `A`-node when the algorithm needs one; everything else is
/// weight mass.
fn dfree_inputs(n: usize, with_anchor: bool) -> Vec<DfreeInput> {
    let mut input = vec![DfreeInput::Weight; n];
    if with_anchor && n > 0 {
        input[0] = DfreeInput::Adjacent;
    }
    input
}

/// Algorithm `A` for the `d`-free weight problem (Section 7): uniform
/// `O(log n)` termination with `O(1)` declining mass.
pub struct DfreeA;

impl Algorithm for DfreeA {
    fn name(&self) -> &'static str {
        "dfree-a"
    }

    fn landscape_class(&self) -> &'static str {
        "O(log n) uniform"
    }

    fn node_averaged_class(&self, _cfg: &RunConfig) -> ComplexityClass {
        // Algorithm A terminates every node at the collection radius:
        // node-averaged equals worst-case, Θ(log n).
        ComplexityClass::Log
    }

    fn paper_ref(&self) -> &'static str {
        "Section 7 (algorithm A)"
    }

    fn supported_kinds(&self) -> &'static [InstanceKind] {
        &[
            InstanceKind::WeightTree,
            InstanceKind::RandomTree,
            InstanceKind::Path,
            InstanceKind::Adversarial,
        ]
    }

    fn default_spec(&self, n: usize, _cfg: &RunConfig) -> InstanceSpec {
        InstanceSpec::BalancedWeight { w: n, delta: 5 }
    }

    fn smallest_spec(&self) -> InstanceSpec {
        InstanceSpec::BalancedWeight { w: 256, delta: 5 }
    }

    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        matches!(problem, ProblemSpec::DfreeWeight { anchored: true, .. })
            .then(|| SolverFit::new(90, "algorithm A on the anchored d-free weight problem"))
    }

    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError> {
        ensure_supported(self, instance)?;
        let n = instance.node_count();
        let d = cfg.d.unwrap_or(2).max(1);
        let mask = NodeMask::full(n);
        let input = dfree_inputs(n, true);
        let run = algorithm_a(instance.tree(), &mask, &input, d, n);
        let outputs: Vec<_> = run
            .outputs
            .into_iter()
            .map(|o| o.unwrap_or_else(|| unreachable!("a full-mask run decides everywhere")))
            .collect();
        if cfg.verify {
            DFreeWeight::new(d)
                .verify(instance.tree(), &input, &outputs)
                .map_err(|e| verification_error(self.name(), e))?;
        }
        // Algorithm A is uniform: every node terminates at the collection
        // radius.
        let rounds = vec![run.radius; n];
        let labels = outputs.iter().map(|&o| dfree_code(o)).collect();
        run_plan(self, instance, cfg, labels, rounds, None)
    }
}

/// The adapted fast decomposition (Section 8.1): geometric pending decay,
/// `O(1)` node-averaged declines.
pub struct FastDecomposition;

impl Algorithm for FastDecomposition {
    fn name(&self) -> &'static str {
        "fast-decomposition"
    }

    fn landscape_class(&self) -> &'static str {
        "O(log n) worst, O(1) node-avg declines"
    }

    fn node_averaged_class(&self, _cfg: &RunConfig) -> ComplexityClass {
        // The Corollary 47 geometric decay bounds the *declining* mass by
        // O(1); the full node-average is dominated by the O(log n)
        // decomposition depth the surviving mass pays.
        ComplexityClass::Log
    }

    fn paper_ref(&self) -> &'static str {
        "Section 8.1 / Corollary 47"
    }

    fn supported_kinds(&self) -> &'static [InstanceKind] {
        &[
            InstanceKind::WeightTree,
            InstanceKind::RandomTree,
            InstanceKind::Path,
            InstanceKind::Adversarial,
        ]
    }

    fn default_spec(&self, n: usize, _cfg: &RunConfig) -> InstanceSpec {
        InstanceSpec::BalancedWeight { w: n, delta: 5 }
    }

    fn smallest_spec(&self) -> InstanceSpec {
        InstanceSpec::BalancedWeight { w: 256, delta: 5 }
    }

    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        matches!(
            problem,
            ProblemSpec::DfreeWeight {
                anchored: false,
                ..
            }
        )
        .then(|| SolverFit::new(90, "geometric pending decay without an anchor"))
    }

    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError> {
        ensure_supported(self, instance)?;
        let n = instance.node_count();
        let d = cfg.d.unwrap_or(3).max(1);
        let mask = NodeMask::full(n);
        // Pure weight mass, as in the Corollary 47 decay experiment.
        let input = dfree_inputs(n, false);
        let run = fast_dfree_standalone(instance.tree(), &mask, &input, d);
        let outputs: Vec<_> = run
            .outputs
            .into_iter()
            .map(|o| {
                o.unwrap_or_else(|| unreachable!("a standalone full-mask run decides everywhere"))
            })
            .collect();
        if cfg.verify {
            DFreeWeight::new(d)
                .verify(instance.tree(), &input, &outputs)
                .map_err(|e| verification_error(self.name(), e))?;
        }
        let labels = outputs.iter().map(|&o| dfree_code(o)).collect();
        run_plan(self, instance, cfg, labels, run.rounds, None)
    }
}

/// The `k`-hierarchical labeling solver (Lemma 65), `O(k · n^{1/k})`.
pub struct LabelingSolver;

impl Algorithm for LabelingSolver {
    fn name(&self) -> &'static str {
        "labeling-solver"
    }

    fn landscape_class(&self) -> &'static str {
        "O(k · n^{1/k})"
    }

    fn node_averaged_class(&self, cfg: &RunConfig) -> ComplexityClass {
        ComplexityClass::poly(1.0 / cfg.k.unwrap_or(2) as f64)
    }

    fn classify_spec(&self, n: usize, _cfg: &RunConfig) -> InstanceSpec {
        // The Lemma 65 bound is tight on paths: level populations are
        // `n^{1 - i/k}`-sized there, so the node-average genuinely grows
        // as `n^{1/k}`. On the bounded-degree random trees of the default
        // sweep spec the peeling depth collapses and the node-average is
        // flat — correct, but it classifies the instance family rather
        // than the algorithm.
        InstanceSpec::Path { n }
    }

    fn paper_ref(&self) -> &'static str {
        "Lemma 65"
    }

    fn supported_kinds(&self) -> &'static [InstanceKind] {
        &[
            InstanceKind::RandomTree,
            InstanceKind::WeightTree,
            InstanceKind::Path,
            InstanceKind::LowerBound,
            InstanceKind::Adversarial,
        ]
    }

    fn default_spec(&self, n: usize, _cfg: &RunConfig) -> InstanceSpec {
        InstanceSpec::RandomTree {
            n,
            max_degree: 4,
            seed: 7,
        }
    }

    fn smallest_spec(&self) -> InstanceSpec {
        InstanceSpec::RandomTree {
            n: 256,
            max_degree: 4,
            seed: 7,
        }
    }

    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        matches!(problem, ProblemSpec::HierarchicalLabeling { .. })
            .then(|| SolverFit::new(90, "the Definition 63 hierarchical labeling solver"))
    }

    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError> {
        ensure_supported(self, instance)?;
        let k = cfg.k.or(instance.spec().hierarchy_k()).unwrap_or(2).max(1);
        let n = instance.node_count();
        let solution = solve_hierarchical_labeling(instance.tree(), k);
        if cfg.verify {
            HierarchicalLabeling::new(k)
                .verify(instance.tree(), &vec![(); n], &solution.run.outputs)
                .map_err(|e| verification_error(self.name(), e))?;
        }
        let labels = solution.run.outputs.iter().map(labeling_code).collect();
        run_plan(self, instance, cfg, labels, solution.run.rounds, None)
    }
}

/// The table-driven solver for *arbitrary* path LCLs — the problem-first
/// surface's generic fallback ([`lcl_algorithms::path_lcl_solver`]).
///
/// The problem comes in through [`RunConfig::problem`] (the planner fills
/// it); without one the adapter solves its demonstration default, proper
/// 3-coloring, so `lcl run path-lcl` and the registry-wide sweeps work
/// out of the box. The decided [`PathClass`] of the table drives both the
/// round schedule and [`Algorithm::node_averaged_class`], so the
/// empirical classifier checks the decided class, not a hardcoded one.
pub struct PathLclSolver;

impl PathLclSolver {
    /// The effective table of a run configuration: the configured
    /// problem's path table, or the demonstration default (proper
    /// 3-coloring) when no problem is set.
    fn table(cfg: &RunConfig) -> Result<PathTable, HarnessError> {
        match &cfg.problem {
            Some(problem) => problem.path_table().ok_or_else(|| {
                HarnessError::BadSpec(format!(
                    "`path-lcl` needs a path-expressible problem, got {}",
                    problem.describe()
                ))
            }),
            None => Ok(PathTable::proper_coloring(3)),
        }
    }

    /// The decided class of `table`, via the path automaton.
    fn decide(table: &PathTable) -> PathClass {
        PathLcl::new(table.matrix(), table.end_vec()).classify()
    }
}

impl Algorithm for PathLclSolver {
    fn name(&self) -> &'static str {
        "path-lcl"
    }

    fn landscape_class(&self) -> &'static str {
        "decided per table (O(1) | Θ(log* n) | Θ(n))"
    }

    fn node_averaged_class(&self, cfg: &RunConfig) -> ComplexityClass {
        // Lemma 16: on paths the node-averaged class equals the decided
        // worst-case class. Unsolvable/invalid tables never run; report
        // the Θ(n) ceiling for them.
        match Self::table(cfg).as_ref().map(Self::decide) {
            Ok(PathClass::Constant) => ComplexityClass::Constant,
            Ok(PathClass::LogStar) => ComplexityClass::log_star(),
            Ok(PathClass::Linear) | Ok(PathClass::Unsolvable) | Err(_) => {
                ComplexityClass::poly(1.0)
            }
        }
    }

    fn paper_ref(&self) -> &'static str {
        "Lemma 16 / [BBC+19]"
    }

    fn supported_kinds(&self) -> &'static [InstanceKind] {
        &[InstanceKind::Path]
    }

    fn default_spec(&self, n: usize, _cfg: &RunConfig) -> InstanceSpec {
        InstanceSpec::Path { n }
    }

    fn smallest_spec(&self) -> InstanceSpec {
        InstanceSpec::Path { n: 16 }
    }

    fn solves(&self, problem: &ProblemSpec) -> Option<SolverFit> {
        problem
            .path_table()
            .map(|_| SolverFit::new(40, "table-driven solver for any decided path LCL"))
    }

    fn run(&self, instance: &Instance, cfg: &RunConfig) -> Result<RunRecord, HarnessError> {
        ensure_supported(self, instance)?;
        let table = Self::table(cfg)?;
        table.validate().map_err(HarnessError::BadSpec)?;
        let class = match Self::decide(&table) {
            PathClass::Unsolvable => {
                return Err(HarnessError::BadSpec(
                    "the problem is unsolvable on large paths".to_string(),
                ))
            }
            PathClass::Constant => PathSolveClass::Constant,
            PathClass::LogStar => PathSolveClass::LogStar,
            PathClass::Linear => PathSolveClass::Linear,
        };
        let ids = Ids::random(instance.node_count(), cfg.seed);
        let plan =
            solve_path_lcl(instance.tree(), &table, class, &ids).map_err(HarnessError::BadSpec)?;
        if cfg.verify {
            verify_path_lcl(instance.tree(), &table, &plan.outputs)
                .map_err(|e| verification_error(self.name(), e))?;
        }
        // Rigid tables genuinely wait for the endpoint waves; the scheduled
        // classes terminate at their locally computed round.
        let labels = Arc::new(plan.outputs);
        let rounds = Arc::new(plan.rounds);
        let budget = plan_round_budget(&rounds);
        let (l, r) = (labels.clone(), rounds.clone());
        let mut outcome = execute_protocol(
            self,
            instance.tree(),
            &ids,
            &cfg.engine,
            move |c| match class {
                PathSolveClass::Linear => PathLclProtocol::rigid(l[c.node]),
                _ => PathLclProtocol::at_round(r[c.node], l[c.node]),
            },
            budget,
        )?;
        check_plan(self, &outcome, &labels, &rounds)?;
        let labels = std::mem::take(&mut outcome.outputs);
        Ok(record_outcome(self, instance, cfg, labels, outcome, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::resolver;

    #[test]
    fn generic_helper_matches_both_regimes() {
        let spec = InstanceSpec::WeightedPoly {
            n: 3_000,
            delta: 5,
            d: 2,
            k: 2,
        };
        let inst = spec.build().unwrap();
        let c = inst.construction().unwrap();
        let ids = Ids::random(inst.node_count(), 3);
        let run = run_on_construction(c, 2, 2, &ids, WeightedRegime::Poly);
        assert_eq!(run.len(), inst.node_count());
        let problem = WeightedColoring::new(Variant::TwoHalf, 5, 2, 2).unwrap();
        problem
            .verify(inst.tree(), c.kinds(), &run.outputs)
            .unwrap();
    }

    #[test]
    fn unsupported_kind_is_rejected() {
        let inst = InstanceSpec::Path { n: 10 }.build().unwrap();
        let err = Apoly.run(&inst, &RunConfig::default()).unwrap_err();
        assert!(matches!(err, HarnessError::UnsupportedInstance { .. }));
    }

    #[test]
    fn names_are_unique_and_kebab() {
        let mut names: Vec<_> = resolver().algorithms().iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
        for n in names {
            assert!(n
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        }
    }

    #[test]
    fn path_lcl_solver_defaults_to_three_coloring() {
        let inst = InstanceSpec::Path { n: 64 }.build().unwrap();
        let record = PathLclSolver.run(&inst, &RunConfig::seeded(5)).unwrap();
        assert!(record.verified);
        assert_eq!(record.rounds.len(), 64);
        assert_eq!(
            PathLclSolver.node_averaged_class(&RunConfig::default()),
            ComplexityClass::log_star()
        );
    }

    #[test]
    fn path_lcl_solver_follows_the_configured_problem() {
        let cfg = RunConfig::seeded(3).with_problem(ProblemSpec::Coloring { colors: 2 });
        let inst = InstanceSpec::Path { n: 33 }.build().unwrap();
        let record = PathLclSolver.run(&inst, &cfg).unwrap();
        assert!(record.verified);
        // 2-coloring is rigid: endpoint distances dominate the rounds.
        assert_eq!(record.worst_case, 32);
        assert_eq!(
            PathLclSolver.node_averaged_class(&cfg),
            ComplexityClass::poly(1.0)
        );
    }

    #[test]
    fn path_lcl_solver_rejects_unsolvable_and_inexpressible() {
        let inst = InstanceSpec::Path { n: 8 }.build().unwrap();
        // Endpoint label incompatible with everything: unsolvable.
        let unsolvable = ProblemSpec::Path(PathTable::new(2, vec![(1, 1)], vec![0]));
        let err = PathLclSolver
            .run(&inst, &RunConfig::seeded(1).with_problem(unsolvable))
            .unwrap_err();
        assert!(matches!(err, HarnessError::BadSpec(_)), "{err}");
        // A tree-degree problem has no path table.
        let tree_problem = ProblemSpec::HierarchicalLabeling { k: 2 };
        let err = PathLclSolver
            .run(&inst, &RunConfig::seeded(1).with_problem(tree_problem))
            .unwrap_err();
        assert!(matches!(err, HarnessError::BadSpec(_)), "{err}");
    }
}
