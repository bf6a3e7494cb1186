//! # lcl-landscape
//!
//! A complete, executable reproduction of *"Completing the Node-Averaged
//! Complexity Landscape of LCLs on Trees"* (Balliu, Brandt, Kuhn, Olivetti,
//! Schmid — PODC 2024): LOCAL-model simulator, every problem family and
//! algorithm from the paper, the decidability machinery of Section 11, and
//! a registry-driven experiment harness regenerating each figure and
//! theorem.
//!
//! This facade crate re-exports the six member crates:
//!
//! - [`graph`] — trees, lower-bound constructions, rake-and-compress
//!   decompositions,
//! - [`local`] — the synchronous LOCAL engine, IDs, round metrics,
//! - [`core`] — LCL problem definitions, verifiers, and the complexity
//!   landscape (`α₁` formulas, parameter synthesis),
//! - [`algorithms`] — every algorithm in the paper, each reporting exact
//!   per-node termination rounds,
//! - [`harness`] — the unified `Algorithm`/`Instance`/`Session` execution
//!   API: the problem-first planner/resolver and a parallel batch
//!   runner emitting serializable records,
//! - [`decidability`] — the black-white formalism, path classification,
//!   label-sets, and the testing procedure.
//!
//! # Quickstart
//!
//! ```
//! use lcl_landscape::prelude::*;
//!
//! // Every solver of the landscape is a registry entry with a name, a
//! // landscape class, supported instance kinds, and a bid on
//! // declarative problems (the ten paper algorithms plus the
//! // table-driven path-LCL solver).
//! assert_eq!(resolver().algorithms().len(), 11);
//! let algo = resolver().find("generic-coloring").expect("registered");
//!
//! // Run a seeded size sweep of the Theorem 11 lower-bound instance
//! // through the Session batch runner (instances are built once and
//! // shared across jobs; execution is parallel).
//! let mut session = Session::new();
//! for n in [5_000usize, 20_000] {
//!     session.push(
//!         algo.name(),
//!         InstanceSpec::Theorem11 { n, k: 2 },
//!         RunConfig::seeded(7),
//!     )?;
//! }
//! let records = session.run()?;
//!
//! // Records carry exact per-node rounds; outputs were verified against
//! // the paper's constraints during the run.
//! for record in &records {
//!     assert_eq!(record.rounds.len(), record.n);
//!     assert!(record.verified);
//!     // Node-averaged complexity is far below worst case (Theorem 11).
//!     assert!(record.node_averaged * 1.5 < record.worst_case as f64);
//! }
//! # Ok::<(), lcl_landscape::harness::HarnessError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lcl_algorithms as algorithms;
pub use lcl_core as core;
pub use lcl_decidability as decidability;
pub use lcl_graph as graph;
pub use lcl_harness as harness;
pub use lcl_local as local;

/// The most common imports, bundled.
pub mod prelude {
    pub use lcl_algorithms::generic_coloring::generic_coloring;
    pub use lcl_algorithms::AlgorithmRun;
    pub use lcl_core::coloring::{ColorLabel, HierarchicalColoring, Variant};
    pub use lcl_core::landscape::{ComplexityClass, Regime};
    pub use lcl_core::problem::{LclProblem, Violation};
    pub use lcl_graph::hierarchical::LowerBoundGraph;
    pub use lcl_graph::{NodeMask, Tree, TreeBuilder};
    pub use lcl_harness::{
        resolver, Algorithm, HarnessError, Instance, InstanceKind, InstanceSpec, RunConfig,
        RunRecord, Session, SweepReport,
    };
    pub use lcl_local::identifiers::Ids;
    pub use lcl_local::metrics::{RoundStats, TerminationProfile};
}
