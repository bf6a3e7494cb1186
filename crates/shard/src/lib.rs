//! Partitioned out-of-core storage for the LOCAL engine's round loop.
//!
//! The monolithic engine (`lcl_local::engine`) keeps two full-tree message
//! arenas resident for the whole run. This crate trades peak memory for
//! I/O: [`run_sharded`] runs the engine's one round loop
//! (`lcl_local::engine::run_with_store`) over a packed message store that
//! splits the CSR into contiguous node-range **shards**, one loop pass per
//! shard, and keeps at most
//! [`ShardConfig::max_resident`](lcl_local::engine::ShardConfig) shard
//! arena sets in memory (the rest spill to a per-run on-disk pool):
//!
//! - [`partition`]: the width-independent shard geometry ([`ShardPlan`]):
//!   chunk-aligned shard ranges, cut edges and halo routes.
//! - [`arena`]: **bit-packed** double-buffered arenas; slot width comes
//!   from per-protocol
//!   [`message_bits`](lcl_local::engine::Protocol::message_bits) hints
//!   with the message type's declared
//!   [`CEIL_BITS`](lcl_local::packed::PackableMessage::CEIL_BITS) ceiling
//!   as fallback. Chunk regions are word-aligned, so worker regions never
//!   share a word.
//! - [`pool`]: the spill file.
//! - The store itself: a message crossing a shard boundary is mirrored
//!   into the destination shard's RAM-resident **halo buffer** when the
//!   source shard's pass ends, before the source can be evicted, so *a
//!   pass never reads a non-resident arena*.
//!
//! Scheduling (mail flags, wake hints, fast-forward, worker regions) is
//! the engine's own, so outputs, per-node rounds, termination profiles and
//! message counts are bit-identical to the monolithic engine; differential
//! suites pin this across shard counts × residency limits × packing on/off
//! × thread counts.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arena;
pub mod partition;
pub mod pool;
mod store;

pub use partition::ShardPlan;
pub use store::{run_sharded, ShardError};
