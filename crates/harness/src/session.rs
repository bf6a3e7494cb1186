//! Batched, seeded, parallel execution of registry algorithms.

use crate::algorithm::{run_timed, Algorithm, RunConfig, RunRecord};
use crate::instance::{HarnessError, Instance, InstanceSpec};
use crate::planner::{plan, PlanError};
use crate::registry::resolver;
use lcl_core::problem_spec::ProblemSpec;
use lcl_local::math::fit_power_law;
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// One queued execution: an algorithm, an instance spec, and a config.
pub struct Job {
    /// The resolved registry entry.
    pub algorithm: &'static dyn Algorithm,
    /// The instance to run on.
    pub spec: InstanceSpec,
    /// Seed and parameter knobs.
    pub config: RunConfig,
}

/// Scaling knobs of a [`Session`], tuned for sweeps whose instances are
/// too large to keep resident all at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Worker threads for building instances and running jobs
    /// (`0` = available parallelism).
    pub threads: usize,
    /// Maximum number of distinct instances built and held in memory at
    /// once: the sweep streams through its unique specs in shards of this
    /// size, dropping each shard's instances before building the next.
    pub max_resident_instances: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            threads: 0,
            max_resident_instances: 8,
        }
    }
}

/// A batch runner: queue jobs, then execute them on a std-thread pool.
///
/// Jobs with equal specs share one built instance (and its process-wide
/// cached peelings), so a size-swept, seed-replicated batch builds each
/// topology exactly once. Instead of materializing every instance up
/// front, the runner streams through the unique specs in shards of at
/// most [`ScaleConfig::max_resident_instances`], bounding peak memory to
/// `O(shard)` instances even for million-node sweeps. Results come back
/// in submission order regardless.
///
/// ```
/// use lcl_harness::{InstanceSpec, RunConfig, Session};
///
/// let mut session = Session::new();
/// for seed in 0..4u64 {
///     session.push(
///         "randomized",
///         InstanceSpec::Path { n: 2_000 },
///         RunConfig::seeded(seed),
///     )?;
/// }
/// let records = session.run()?;
/// assert_eq!(records.len(), 4);
/// assert!(records.iter().all(|r| r.verified));
/// # Ok::<(), lcl_harness::HarnessError>(())
/// ```
#[derive(Default)]
pub struct Session {
    jobs: Vec<Job>,
    scale: ScaleConfig,
}

impl Session {
    /// An empty session.
    #[must_use]
    pub fn new() -> Self {
        Session::default()
    }

    /// The problem-first entry point: a [`SessionBuilder`] that queues
    /// declarative problems (planned end-to-end) and raw
    /// algorithm/instance pairs interchangeably.
    #[must_use]
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Caps the worker thread count (default: available parallelism).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.scale.threads = n.max(1);
        self
    }

    /// Replaces the full scaling configuration.
    #[must_use]
    pub fn scale(mut self, scale: ScaleConfig) -> Self {
        self.scale = scale;
        self
    }

    /// Number of queued jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Queues one run of the named algorithm.
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnknownAlgorithm`] for names not in the registry,
    /// [`HarnessError::UnsupportedInstance`] when the algorithm rejects
    /// the spec's kind (caught at queue time, before any work runs).
    pub fn push(
        &mut self,
        algorithm: &str,
        spec: InstanceSpec,
        config: RunConfig,
    ) -> Result<&mut Self, HarnessError> {
        let algo = resolver()
            .find(algorithm)
            .ok_or_else(|| HarnessError::UnknownAlgorithm(algorithm.to_string()))?;
        if !algo.supports(spec.kind()) {
            return Err(HarnessError::UnsupportedInstance {
                algorithm: algo.name().to_string(),
                kind: spec.kind(),
            });
        }
        self.jobs.push(Job {
            algorithm: algo,
            spec,
            config,
        });
        Ok(self)
    }

    /// Executes all queued jobs and returns their records in submission
    /// order.
    ///
    /// Unique specs are processed in shards of at most
    /// [`ScaleConfig::max_resident_instances`]: each shard's instances are
    /// built in parallel, all of the shard's jobs run in parallel against
    /// them, and the instances are dropped before the next shard builds.
    ///
    /// # Errors
    ///
    /// The first job error in submission order (instance build failures,
    /// verification failures).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (propagated by `std::thread::scope`).
    pub fn run(self) -> Result<Vec<RunRecord>, HarnessError> {
        let jobs = self.jobs;
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        // Group jobs by spec so each unique instance is built once; jobs
        // themselves (including many seeds on one instance) all run in
        // parallel against the shared, Sync instances.
        let mut groups: Vec<InstanceSpec> = Vec::new();
        let mut group_of = vec![0usize; jobs.len()];
        for (i, job) in jobs.iter().enumerate() {
            group_of[i] = match groups.iter().position(|s| *s == job.spec) {
                Some(g) => g,
                None => {
                    groups.push(job.spec.clone());
                    groups.len() - 1
                }
            };
        }
        let hardware = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let threads = match self.scale.threads {
            0 => hardware,
            t => t,
        };
        let shard_size = self.scale.max_resident_instances.max(1);

        let results: Vec<Mutex<Option<Result<RunRecord, HarnessError>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        for shard_start in (0..groups.len()).step_by(shard_size) {
            let shard = &groups[shard_start..(shard_start + shard_size).min(groups.len())];

            // Phase 1: build this shard's instances, in parallel over specs.
            let next_group = AtomicUsize::new(0);
            let built: Vec<Mutex<Option<Result<Instance, HarnessError>>>> =
                shard.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..threads.min(shard.len()) {
                    scope.spawn(|| loop {
                        let g = next_group.fetch_add(1, Ordering::Relaxed);
                        if g >= shard.len() {
                            break;
                        }
                        let outcome = shard[g].build();
                        *built[g].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
                    });
                }
            });
            let instances: Vec<Result<Instance, HarnessError>> = built
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .unwrap_or_else(PoisonError::into_inner)
                        .unwrap_or_else(|| {
                            unreachable!("the build scope fills every slot before joining")
                        })
                })
                .collect();

            // Phase 2: run this shard's jobs, in parallel over jobs; the
            // shard's instances drop at the end of the iteration.
            let shard_jobs: Vec<usize> = (0..jobs.len())
                .filter(|&i| group_of[i] >= shard_start && group_of[i] < shard_start + shard.len())
                .collect();
            let next_job = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads.min(shard_jobs.len()) {
                    scope.spawn(|| loop {
                        let j = next_job.fetch_add(1, Ordering::Relaxed);
                        if j >= shard_jobs.len() {
                            break;
                        }
                        let i = shard_jobs[j];
                        let job = &jobs[i];
                        let outcome = match &instances[group_of[i] - shard_start] {
                            Ok(instance) => run_timed(job.algorithm, instance, &job.config),
                            Err(e) => Err(e.clone()),
                        };
                        *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
                    });
                }
            });
        }

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        unreachable!("the run scope executes every job before joining")
                    })
            })
            .collect()
    }
}

/// The problem-first [`Session`] builder: queues work by *problem* —
/// named presets or declarative [`ProblemSpec`]s, planned end-to-end by
/// the planner (classify → resolve → concretize) — or by raw
/// algorithm/instance pairs, interchangeably. `build()` hands back the
/// assembled [`Session`].
///
/// ```
/// use lcl_harness::{InstanceSpec, RunConfig, Session};
/// use lcl_core::problem_spec::ProblemSpec;
///
/// let mut builder = Session::builder().size(600).base_config(RunConfig::seeded(9));
/// builder
///     .problem(&ProblemSpec::Coloring { colors: 3 })?   // planned: → linial
///     .preset("bw-all-equal")?                          // planned: → path-lcl
///     .spec("two-coloring", InstanceSpec::Path { n: 600 }, RunConfig::seeded(9))?;
/// let records = builder.build().run()?;
/// assert_eq!(records.len(), 3);
/// assert!(records.iter().all(|r| r.verified));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SessionBuilder {
    session: Session,
    size: usize,
    base: RunConfig,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder::new()
    }
}

impl SessionBuilder {
    /// An empty builder with a 10 000-node default problem size and the
    /// default [`RunConfig`] as the planning base.
    #[must_use]
    pub fn new() -> Self {
        SessionBuilder {
            session: Session::new(),
            size: 10_000,
            base: RunConfig::default(),
        }
    }

    /// Sets the target instance size subsequent problems are planned at.
    #[must_use]
    pub fn size(mut self, n: usize) -> Self {
        self.size = n.max(1);
        self
    }

    /// Sets the base [`RunConfig`] (seed, verification, engine knobs) the
    /// planner extends with each problem's parameters.
    #[must_use]
    pub fn base_config(mut self, base: RunConfig) -> Self {
        self.base = base;
        self
    }

    /// Replaces the scaling configuration of the underlying session.
    #[must_use]
    pub fn scale(mut self, scale: ScaleConfig) -> Self {
        self.session.scale = scale;
        self
    }

    /// Queues a declarative problem: plans it (classify → resolve →
    /// concretize) at the builder's size and base config, then queues the
    /// resulting solver/instance/config job.
    ///
    /// # Errors
    ///
    /// Every [`PlanError`] of [`plan`] — malformed specs, unsolvable or
    /// undecidable problems, capability gaps.
    pub fn problem(&mut self, problem: &ProblemSpec) -> Result<&mut Self, PlanError> {
        let planned = plan(problem, self.size, &self.base)?;
        self.session.jobs.push(Job {
            algorithm: planned.solver,
            spec: planned.spec,
            config: planned.config,
        });
        Ok(self)
    }

    /// Queues a named preset problem (see
    /// [`ProblemSpec::presets`]).
    ///
    /// # Errors
    ///
    /// [`PlanError::BadProblem`] for unknown names, then as
    /// [`SessionBuilder::problem`].
    pub fn preset(&mut self, name: &str) -> Result<&mut Self, PlanError> {
        let problem = ProblemSpec::preset(name)
            .ok_or_else(|| PlanError::BadProblem(format!("unknown preset `{name}`")))?;
        self.problem(&problem)
    }

    /// Queues a raw algorithm/instance pair, exactly like
    /// [`Session::push`] — the escape hatch for workloads that name
    /// their algorithm directly.
    ///
    /// # Errors
    ///
    /// As for [`Session::push`].
    pub fn spec(
        &mut self,
        algorithm: &str,
        spec: InstanceSpec,
        config: RunConfig,
    ) -> Result<&mut Self, HarnessError> {
        self.session.push(algorithm, spec, config)?;
        Ok(self)
    }

    /// Number of queued jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.session.len()
    }

    /// True when no jobs are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.session.is_empty()
    }

    /// The assembled session.
    #[must_use]
    pub fn build(self) -> Session {
        self.session
    }
}

/// One sweep point: the summary of a [`RunRecord`] without the per-node
/// round vector.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Rendered instance spec.
    pub spec: String,
    /// Actual node count.
    pub n: usize,
    /// Seed of the run.
    pub seed: u64,
    /// Node-averaged rounds.
    pub node_averaged: f64,
    /// Worst-case rounds.
    pub worst_case: u64,
    /// Median termination round.
    pub median_round: u64,
    /// Node-averaged rounds over the waiting mass.
    pub waiting_averaged: f64,
    /// Wall-clock milliseconds of the run.
    pub elapsed_ms: f64,
}

impl From<&RunRecord> for SweepPoint {
    fn from(r: &RunRecord) -> Self {
        SweepPoint {
            spec: r.spec.clone(),
            n: r.n,
            seed: r.seed,
            node_averaged: r.node_averaged,
            worst_case: r.worst_case,
            median_round: r.median_round,
            waiting_averaged: r.waiting_averaged,
            elapsed_ms: r.elapsed_ms,
        }
    }
}

/// A fitted power law `y ≈ coefficient · n^exponent`.
#[derive(Debug, Clone, Serialize)]
pub struct FitSummary {
    /// Fitted exponent.
    pub exponent: f64,
    /// Fitted multiplicative constant.
    pub coefficient: f64,
    /// Goodness of fit in log–log space.
    pub r_squared: f64,
}

/// The serializable outcome of one sweep: per-point summaries plus power
/// law fits of the node-averaged and waiting-mass curves over `n`.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Registry name of the swept algorithm.
    pub algorithm: String,
    /// One summary per run, in submission order.
    pub points: Vec<SweepPoint>,
    /// `node_averaged ≈ c · n^e` fit (absent with fewer than two distinct
    /// sizes).
    pub fit: Option<FitSummary>,
    /// Same fit over the waiting mass.
    pub waiting_fit: Option<FitSummary>,
}

impl SweepReport {
    /// Summarizes a slice of records (typically one algorithm's size
    /// sweep out of a [`Session::run`] batch).
    #[must_use]
    pub fn from_records(algorithm: &str, records: &[RunRecord]) -> Self {
        let points: Vec<SweepPoint> = records.iter().map(SweepPoint::from).collect();
        let distinct_sizes = {
            let mut sizes: Vec<usize> = points.iter().map(|p| p.n).collect();
            sizes.sort_unstable();
            sizes.dedup();
            sizes.len()
        };
        let (fit, waiting_fit) = if distinct_sizes >= 2 {
            let data: Vec<(f64, f64)> = points
                .iter()
                .map(|p| (p.n as f64, p.node_averaged.max(1e-9)))
                .collect();
            let wdata: Vec<(f64, f64)> = points
                .iter()
                .map(|p| (p.n as f64, p.waiting_averaged.max(1e-9)))
                .collect();
            (
                Some(to_summary(fit_power_law(&data))),
                Some(to_summary(fit_power_law(&wdata))),
            )
        } else {
            (None, None)
        };
        SweepReport {
            algorithm: algorithm.to_string(),
            points,
            fit,
            waiting_fit,
        }
    }
}

fn to_summary(fit: lcl_local::math::PowerLawFit) -> FitSummary {
    FitSummary {
        exponent: fit.exponent,
        coefficient: fit.coefficient,
        r_squared: fit.r_squared,
    }
}

/// Runs one size-swept batch of a single algorithm: for each `(spec,
/// seed)` pair one job, summarized into a [`SweepReport`].
///
/// # Errors
///
/// As for [`Session::push`] and [`Session::run`].
pub fn sweep(
    algorithm: &str,
    points: impl IntoIterator<Item = (InstanceSpec, u64)>,
) -> Result<SweepReport, HarnessError> {
    let mut session = Session::new();
    for (spec, seed) in points {
        session.push(algorithm, spec, RunConfig::seeded(seed))?;
    }
    let records = session.run()?;
    Ok(SweepReport::from_records(algorithm, &records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_returns_in_submission_order() {
        let mut s = Session::new();
        for n in [64usize, 32, 128] {
            s.push(
                "two-coloring",
                InstanceSpec::Path { n },
                RunConfig::seeded(1),
            )
            .unwrap();
        }
        let records = s.run().unwrap();
        assert_eq!(
            records.iter().map(|r| r.n).collect::<Vec<_>>(),
            vec![64, 32, 128]
        );
        assert!(records.iter().all(|r| r.elapsed_ms >= 0.0));
    }

    #[test]
    fn seed_replicated_jobs_on_one_spec_keep_order() {
        // Many seeds on one instance: one build, jobs fan out across
        // threads, results still in submission order.
        let mut s = Session::new().threads(4);
        for seed in [9u64, 3, 7, 1] {
            s.push(
                "randomized",
                InstanceSpec::Path { n: 512 },
                RunConfig::seeded(seed),
            )
            .unwrap();
        }
        let records = s.run().unwrap();
        assert_eq!(
            records.iter().map(|r| r.seed).collect::<Vec<_>>(),
            vec![9, 3, 7, 1]
        );
    }

    #[test]
    fn sharded_streaming_preserves_order_and_results() {
        // Five distinct specs with max_resident_instances = 2 forces three
        // shards; records must still match the unsharded run, in order.
        let queue = |mut s: Session| {
            for n in [64usize, 96, 32, 128, 80] {
                s.push(
                    "two-coloring",
                    InstanceSpec::Path { n },
                    RunConfig::seeded(n as u64),
                )
                .unwrap();
            }
            s
        };
        let all_at_once = queue(Session::new().scale(ScaleConfig {
            max_resident_instances: usize::MAX,
            ..ScaleConfig::default()
        }))
        .run()
        .unwrap();
        let streamed = queue(Session::new().scale(ScaleConfig {
            max_resident_instances: 2,
            threads: 3,
        }))
        .run()
        .unwrap();
        assert_eq!(all_at_once.len(), streamed.len());
        for (a, b) in all_at_once.iter().zip(&streamed) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.rounds, b.rounds);
        }
    }

    #[test]
    fn unknown_algorithm_rejected_at_queue_time() {
        let mut s = Session::new();
        let err = s
            .push("nope", InstanceSpec::Path { n: 4 }, RunConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, HarnessError::UnknownAlgorithm(_)));
    }

    #[test]
    fn mismatched_spec_rejected_at_queue_time() {
        let mut s = Session::new();
        let err = s
            .push(
                "two-coloring",
                InstanceSpec::RandomTree {
                    n: 32,
                    max_degree: 3,
                    seed: 1,
                },
                RunConfig::default(),
            )
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, HarnessError::UnsupportedInstance { .. }));
    }

    #[test]
    fn builder_mixes_problems_presets_and_raw_specs() {
        let mut builder = Session::builder()
            .size(300)
            .base_config(RunConfig::seeded(4));
        builder
            .problem(&ProblemSpec::Coloring { colors: 2 })
            .unwrap()
            .preset("bw-all-equal")
            .unwrap()
            .spec(
                "randomized",
                InstanceSpec::Path { n: 300 },
                RunConfig::seeded(4),
            )
            .unwrap();
        assert_eq!(builder.len(), 3);
        assert!(!builder.is_empty());
        let records = builder.build().run().unwrap();
        assert_eq!(
            records
                .iter()
                .map(|r| r.algorithm.as_str())
                .collect::<Vec<_>>(),
            vec!["two-coloring", "path-lcl", "randomized"]
        );
        assert!(records.iter().all(|r| r.verified));
    }

    #[test]
    fn builder_surfaces_plan_errors() {
        let mut builder = Session::builder();
        let err = builder.preset("no-such-problem").map(|_| ()).unwrap_err();
        assert!(matches!(err, PlanError::BadProblem(_)), "{err}");
        let err = builder
            .problem(&ProblemSpec::Coloring { colors: 1 })
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, PlanError::BadProblem(_)), "{err}");
        assert!(builder.is_empty());
    }

    #[test]
    fn sweep_fits_the_linear_baseline() {
        let report = sweep(
            "two-coloring",
            [500usize, 1_000, 2_000]
                .into_iter()
                .map(|n| (InstanceSpec::Path { n }, n as u64)),
        )
        .unwrap();
        assert_eq!(report.points.len(), 3);
        let fit = report.fit.expect("three sizes fit");
        assert!(fit.exponent > 0.9, "2-coloring is Θ(n), got {fit:?}");
    }
}
