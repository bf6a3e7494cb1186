//! Problem-first execution surface for the paper's algorithms.
//!
//! The paper's landscape (Fig. 2) is a *classification of problems*:
//! every LCL occupies a named cell, and algorithms merely realize cells.
//! This crate gives the reproduction the same shape programmatically:
//!
//! - [`planner`] — the problem-first layer: a declarative
//!   [`ProblemSpec`](lcl_core::problem_spec::ProblemSpec) is classified
//!   (via the decidability crate where decidable, declared metadata
//!   otherwise), matched against solver bids, and concretized into a
//!   runnable [`Plan`] — failures are typed [`PlanError`]s, never panics,
//! - [`Algorithm`] — an object-safe trait implemented by every solver
//!   (name, landscape class, supported instance kinds, a
//!   [`solves`](Algorithm::solves) bid on declarative problems,
//!   `run(&Instance, &RunConfig) -> RunRecord`),
//! - [`resolver()`] — the capability index over all eleven solvers:
//!   [`Resolver::algorithms`] lists them, [`Resolver::find`] names one,
//! - [`InstanceSpec`] / [`Instance`] — declarative instance descriptions
//!   wrapping the generators (paths, `LowerBoundGraph`,
//!   `WeightedConstruction`) with cached peelings,
//! - [`DynamicSession`] — dynamic-tree churn workloads: scripted batches
//!   of tree surgery ([`ChurnScript`](lcl_core::churn::ChurnScript)) with
//!   incremental dirty-region re-solving for local solvers and
//!   differentially checked full re-solves for global ones,
//! - [`Session`] / [`SessionBuilder`] — seeded, size-swept batch
//!   execution on a std-thread pool, queueing *problems* (presets or raw
//!   specs) and algorithm/instance pairs interchangeably, emitting
//!   serializable [`RunRecord`]s and [`SweepReport`]s.
//!
//! ```
//! use lcl_harness::{resolver, InstanceSpec, RunConfig, Session};
//!
//! // Every solver of the landscape is one resolver entry (the ten
//! // paper algorithms plus the table-driven path-LCL solver).
//! assert_eq!(resolver().algorithms().len(), 11);
//!
//! // Run a seeded batch of the Θ(n) baseline over two path sizes.
//! let mut session = Session::new();
//! for n in [500usize, 1_000] {
//!     session.push("two-coloring", InstanceSpec::Path { n }, RunConfig::seeded(7))?;
//! }
//! let records = session.run()?;
//! assert_eq!(records.len(), 2);
//! assert!(records[1].node_averaged > records[0].node_averaged);
//! # Ok::<(), lcl_harness::HarnessError>(())
//! ```
//!
//! The problem-first path — name a problem, let the planner classify it
//! and pick the solver:
//!
//! ```
//! use lcl_harness::Session;
//!
//! let mut builder = Session::builder().size(800);
//! builder.preset("3-coloring")?.preset("bw-all-equal")?;
//! let records = builder.build().run()?;
//! assert_eq!(records.len(), 2);
//! assert!(records.iter().all(|r| r.verified));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adapters;
pub mod algorithm;
pub mod cache;
pub mod dynamic;
pub mod instance;
pub mod plan_cache;
pub mod planner;
pub mod registry;
pub mod session;

pub use adapters::{run_on_construction, WeightedRegime};
pub use algorithm::{run_timed, Algorithm, RoundBin, RunConfig, RunRecord, SessionScope};
pub use cache::CacheStats;
pub use dynamic::{DynamicSession, StepOutcome};
// Engine tuning travels inside `RunConfig`; re-exported so harness
// consumers (the service, benches) need not depend on `lcl_local`.
pub use instance::{
    instance_cache_stats, levels_cache_stats, HarnessError, Instance, InstanceKind, InstanceSpec,
};
pub use lcl_local::engine::{EngineConfig, ShardConfig};
pub use plan_cache::{classify_cached, plan_cache_stats, plan_cached};
pub use planner::{
    canonical_instance, classify, plan, ClassSource, Classification, Plan, PlanError, SolverFit,
};
pub use registry::{resolver, Resolver};
pub use session::{FitSummary, ScaleConfig, Session, SessionBuilder, SweepPoint, SweepReport};
