//! Tree substrate for the node-averaged LCL complexity landscape workspace.
//!
//! This crate provides everything graph-shaped that the paper
//! *"Completing the Node-Averaged Complexity Landscape of LCLs on Trees"*
//! (PODC 2024) needs:
//!
//! - a compact CSR [`Tree`] type with the traversal primitives used by the
//!   LOCAL-model algorithms ([`tree`]),
//! - the one breadth-first search, [`Bfs`], reusable across the masked,
//!   radius-bounded searches of a solver call ([`bfs`]),
//! - [`NodeMask`] and the one home of induced subgraphs ([`mask`]): their
//!   components as node lists, as paths ordered end to end, or extracted as
//!   standalone trees that keep the ambient port order,
//! - elementary and random tree [`generators`], including the balanced
//!   Δ-regular weight gadgets of the paper's weighted constructions,
//! - the level-peeling process of Definition 8 ([`levels`]),
//! - the `k`-hierarchical lower-bound graph of Definition 18
//!   ([`hierarchical`]),
//! - the weighted construction of Definition 25 ([`weighted`]),
//! - rake-and-compress `(γ, ℓ, L)`-decompositions, strict (Definition 71)
//!   and relaxed (Definition 43), with full property validation
//!   ([`decompose`]),
//! - port-preserving tree [`surgery`] — seeded churn batches (leaf
//!   insertions, subtree deletions, edge re-hangs) for incremental
//!   re-solving.
//!
//! # Examples
//!
//! ```
//! use lcl_graph::hierarchical::LowerBoundGraph;
//! use lcl_graph::levels::Levels;
//!
//! // The k = 2 lower-bound instance from Fig. 3 of the paper, in miniature.
//! let g = LowerBoundGraph::new(&[4, 6])?;
//! let levels = Levels::compute(g.tree(), 2);
//! assert_eq!(levels.count_at(2), 6 - 2); // Fig. 3 boundary erosion
//! # Ok::<(), lcl_graph::TreeError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bfs;
pub mod decompose;
mod error;
pub mod generators;
pub mod hierarchical;
pub mod levels;
pub mod mask;
pub mod surgery;
pub mod tree;
pub mod weighted;

pub use bfs::Bfs;
pub use error::TreeError;
pub use mask::{extract_components, induced_components, induced_paths, Component, NodeMask};
pub use surgery::{churn_batch, BatchResult, OpWeights, ShapeDiscipline, Surgeon, TreeOp};
pub use tree::{NodeId, Tree, TreeBuilder};
