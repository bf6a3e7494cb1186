//! Synchronous LOCAL-model simulator with node-averaged complexity metrics.
//!
//! The LOCAL model is the setting of the paper *"Completing the
//! Node-Averaged Complexity Landscape of LCLs on Trees"* (PODC 2024): an
//! anonymous synchronous network where per-round messages are unbounded and
//! the complexity measure is the number of rounds until each node commits to
//! an output. This crate provides:
//!
//! - a chunked, arena-backed message-passing engine ([`engine`]) that
//!   records the exact round in which every node terminates and scales to
//!   million-node trees (CSR-aligned double-buffered message arenas, no
//!   per-node per-round allocation, optional chunk-parallel execution),
//! - the frozen pre-chunking engine (`reference_engine`, test/feature
//!   gated) used as a differential-testing oracle for the engine above,
//! - a ball-view engine ([`view`]) implementing the equivalent
//!   "collect radius-*r* view, then decide" formulation, used as reference
//!   semantics for cross-validating fast structural implementations,
//! - bit-packable message encodings ([`packed`]) and the shard/packing
//!   knobs ([`engine::ShardConfig`]) consumed by the partitioned
//!   out-of-core executor (`lcl_shard`),
//! - unique-identifier assignments over polynomial ID spaces
//!   ([`identifiers`]),
//! - round statistics and the node-averaged complexity measure of Section 2
//!   of the paper ([`metrics`]),
//! - numeric helpers, notably `log*` and power-law fitting ([`math`]).
//!
//! # Examples
//!
//! ```
//! use lcl_graph::generators::path;
//! use lcl_local::engine::{run_sync, Inbox, NodeContext, Outbox, Protocol};
//! use lcl_local::identifiers::Ids;
//!
//! struct IdEcho;
//! impl Protocol for IdEcho {
//!     type Message = ();
//!     type Output = u64;
//!     fn step(&mut self, ctx: &NodeContext, _r: u64,
//!             _inbox: &Inbox<'_, ()>, _outbox: &mut Outbox<'_, ()>)
//!         -> Option<u64>
//!     {
//!         Some(ctx.id)
//!     }
//! }
//!
//! let tree = path(4);
//! let ids = Ids::sequential(4);
//! let out = run_sync(&tree, &ids, |_| IdEcho, 1)?;
//! assert_eq!(out.stats.node_averaged(), 0.0);
//! # Ok::<(), lcl_local::engine::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod identifiers;
pub mod math;
pub mod metrics;
pub mod packed;
#[cfg(any(test, feature = "reference-engine"))]
pub mod reference_engine;
pub mod view;

pub use engine::{
    run_sync, run_sync_with, EngineConfig, Inbox, NodeContext, Outbox, Protocol, RunError,
    ShardConfig, SyncOutcome,
};
pub use identifiers::Ids;
pub use metrics::RoundStats;
pub use packed::PackableMessage;
#[cfg(any(test, feature = "reference-engine"))]
pub use reference_engine::run_reference;
