//! Chunked, arena-backed synchronous engine for the LOCAL model.
//!
//! Time proceeds in rounds. In round `r` every non-terminated node consumes
//! the messages sent to it in round `r - 1`, updates its state, and either
//! sends messages for round `r + 1` or terminates with an output. A node
//! that terminates in round `r` has termination time `T_v = r` and may post
//! one final batch of messages (delivered in round `r + 1`) so that
//! neighbors can observe its output — the standard LOCAL convention.
//!
//! # Execution strategy
//!
//! The engine is built for million-node trees:
//!
//! - **CSR-aligned message arenas.** Messages live in two flat slot arenas
//!   with one slot per *directed edge*, laid out exactly like the tree's
//!   CSR adjacency array ([`lcl_graph::Tree::offsets`]). Slot
//!   `offsets[v] + p` of the write arena holds the message node `v` sent on
//!   port `p` this round, stamped with its delivery round. The arenas are
//!   allocated once per run and reused (double-buffered) across all rounds
//!   — no per-node per-round allocation.
//! - **Gather-based delivery.** A precomputed reverse-edge permutation maps
//!   each directed edge to its reversal, so a node's inbox is a zero-copy
//!   *view* over the previous round's write arena; nothing is moved or
//!   cloned between rounds. Readers accept only slots stamped with the
//!   current round, so stale slots of nodes the scheduler skipped (or that
//!   terminated) never resurface — no clearing passes are needed.
//! - **Chunked parallelism, only where it pays.** Nodes are split into
//!   fixed-size chunks; contiguous runs of chunks form per-worker regions
//!   executed on scoped std threads. Within a round, workers write
//!   disjoint CSR ranges of the write arena and read the (immutable)
//!   previous arena, so the engine stays free of `unsafe` and of locks on
//!   the hot path. Before a pass fans out, the loop bounds the nodes it
//!   will examine (the real lengths of the chunks it scans in full plus
//!   its frontier nodes). Under `AUTO_PARALLEL_MIN_NODES` (16,384) the
//!   pass runs inline on the calling thread as one region, with no spawn
//!   and no allocation.
//! - **Event-driven scheduling.** A node is stepped only when it has mail
//!   or when its own [`Protocol::next_wake`] hint is due. Senders flag the
//!   recipient's chunk (one atomic bool per chunk, double-buffered by round
//!   parity like the arenas), each chunk keeps a lower bound on its
//!   running nodes' wakes, and a chunk is visited only when flagged or
//!   due. Senders also log their recipients; when a round sends at most
//!   `MAIL_LOG_CAP` messages, a mailed chunk that is not due steps only
//!   last round's recipients (the *frontier*) instead of scanning every
//!   node. A two-front wave over a million-node path therefore costs
//!   `O(recipients)` per round, not `O(chunk)` or `O(n)`. When a round
//!   ends with no messages in flight the engine fast-forwards to the
//!   earliest wake instead of idling round by round.
//! - **Per-node state is what a run needs, freed before the result.** A
//!   [`NodeContext`] is a value built per factory call, step and hint by
//!   [`node_context`] from the CSR offsets, the ids and `n`; no per-node
//!   context array exists. The run's working set is the message store,
//!   the machines, the per-node wakes, the per-chunk wakes and mail
//!   flags, the reverse-edge permutation and (when on) the arena checker.
//!   It is dropped once the last node terminates, and only then are the
//!   outputs flattened and the `u32` rounds widened to `u64`, so those
//!   copies never add to the run's peak memory.
//! - **One instrumentation path.** A run records one termination round
//!   per node and nothing per round; its summary is a
//!   [`TerminationProfile`](crate::metrics::TerminationProfile) built
//!   from those rounds by whoever summarizes the run.
//!
//! # One round loop, two stores
//!
//! [`run_with_store`] is the only round loop. It owns scheduling: the
//! region split, the chunk visit decision, the inline-or-fan-out choice,
//! termination and wake bookkeeping, the `ArenaChecker` calls, the
//! round limit and the fast-forward. Where messages live between rounds
//! is a [`MessageStore`], chosen statically: the slot arenas above (one
//! pass over all nodes, used by [`run_sync_with`]), or `lcl_shard`'s
//! bit-packed, spillable shard arenas (one pass per shard, with shard
//! residency and halo capture as the store's pass hooks).
//!
//! Results are bit-identical for every chunk size, thread count and
//! store: a node's step depends only on its own state and its inbox view,
//! and the skip conditions are functions of per-node facts (mail present,
//! hint due), never of chunk layout. Wake hints are *pure scheduling hints*: a
//! protocol promises that the skipped steps would have been no-ops, so the
//! reference engine (`crate::reference_engine`, test/feature-gated), which
//! steps every running node every round, remains a valid differential
//! oracle.
//!
//! Message size is unbounded, matching the model; the engine tracks message
//! counts only for diagnostics. At most one message per port per round may
//! be sent (the natural LOCAL convention; enforced by [`Outbox::send`]).

use crate::identifiers::Ids;
use crate::metrics::RoundStats;
use lcl_graph::{NodeId, Tree};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One message slot of an arena: the payload stamped with its delivery
/// round. Readers ignore slots whose stamp is not the round being read, so
/// slots left behind by skipped or terminated senders expire silently.
type ArenaSlot<M> = Option<(u32, M)>;

/// Static per-node information visible to a protocol.
///
/// A value, not a view into a per-node array: the chunked engine builds it
/// with [`node_context`] for each factory call, step and hint, from the
/// tree's CSR offsets, the id assignment and `n`, and stores none.
#[derive(Debug, Clone, Copy)]
pub struct NodeContext {
    /// The node's index (for harness bookkeeping; protocols should treat it
    /// as opaque and use `id` for symmetry breaking).
    pub node: NodeId,
    /// The node's unique identifier.
    pub id: u64,
    /// The node's degree (number of ports).
    pub degree: usize,
    /// The number of nodes in the graph; LOCAL algorithms know `n`.
    pub n: usize,
}

/// The context of node `v` in a graph of `n` nodes whose CSR offsets are
/// `offsets` ([`Tree::offsets`]): its id from `ids`, and its degree
/// `offsets[v + 1] - offsets[v]`.
#[inline]
#[must_use]
pub fn node_context(offsets: &[u32], ids: &Ids, n: usize, v: NodeId) -> NodeContext {
    NodeContext {
        node: v,
        id: ids.id(v),
        degree: (offsets[v + 1] - offsets[v]) as usize,
        n,
    }
}

/// A read-only view of the messages a node received this round.
///
/// Backed either by the chunked engine's message arena (a gather over the
/// reverse-edge permutation, no copies) or by the reference engine's
/// per-node message list. Iteration order is *unspecified* and differs
/// between engines (port order vs arrival order); protocols must not
/// depend on it.
pub struct Inbox<'a, M> {
    inner: InboxInner<'a, M>,
}

enum InboxInner<'a, M> {
    /// Chunked engine: gather from the previous round's arena.
    Gather {
        read: &'a [ArenaSlot<M>],
        rev: &'a [u32],
        base: usize,
        degree: usize,
        /// Only slots stamped with this delivery round are visible.
        expect: u32,
    },
    /// Explicit `(port, message)` list (reference engine, and the sharded
    /// engine's decoded packed-arena reads).
    List(&'a [(usize, M)]),
}

impl<'a, M> Inbox<'a, M> {
    pub(crate) fn gather(
        read: &'a [ArenaSlot<M>],
        rev: &'a [u32],
        base: usize,
        degree: usize,
        expect: u32,
    ) -> Self {
        Inbox {
            inner: InboxInner::Gather {
                read,
                rev,
                base,
                degree,
                expect,
            },
        }
    }

    /// An inbox over an explicit `(port, message)` list, sorted or not.
    /// Used by alternative executors (the reference engine, the sharded
    /// engine's decoded halo/arena reads) to drive unmodified protocols.
    #[must_use]
    pub fn list(list: &'a [(usize, M)]) -> Self {
        Inbox {
            inner: InboxInner::List(list),
        }
    }

    /// Iterates over `(port, message)` pairs received this round.
    #[must_use]
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            inner: match &self.inner {
                InboxInner::Gather {
                    read,
                    rev,
                    base,
                    degree,
                    expect,
                } => InboxIterInner::Gather {
                    read,
                    rev,
                    base: *base,
                    degree: *degree,
                    expect: *expect,
                    port: 0,
                },
                InboxInner::List(list) => InboxIterInner::List(list.iter()),
            },
        }
    }

    /// The message received on `port`, if any.
    #[must_use]
    pub fn get(&self, port: usize) -> Option<&'a M> {
        match &self.inner {
            InboxInner::Gather {
                read,
                rev,
                base,
                degree,
                expect,
            } => {
                if port >= *degree {
                    return None;
                }
                match read[rev[base + port] as usize].as_ref() {
                    Some((stamp, m)) if stamp == expect => Some(m),
                    _ => None,
                }
            }
            InboxInner::List(list) => list.iter().find(|(p, _)| *p == port).map(|(_, m)| m),
        }
    }

    /// Number of messages received this round.
    #[must_use]
    pub fn count(&self) -> usize {
        self.iter().count()
    }

    /// True when no messages were received this round.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

/// Iterator over an [`Inbox`], yielding `(port, &message)`.
pub struct InboxIter<'a, M> {
    inner: InboxIterInner<'a, M>,
}

enum InboxIterInner<'a, M> {
    Gather {
        read: &'a [ArenaSlot<M>],
        rev: &'a [u32],
        base: usize,
        degree: usize,
        expect: u32,
        port: usize,
    },
    List(std::slice::Iter<'a, (usize, M)>),
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (usize, &'a M);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            InboxIterInner::Gather {
                read,
                rev,
                base,
                degree,
                expect,
                port,
            } => {
                while *port < *degree {
                    let p = *port;
                    *port += 1;
                    if let Some((stamp, m)) = read[rev[*base + p] as usize].as_ref() {
                        if stamp == expect {
                            return Some((p, m));
                        }
                    }
                }
                None
            }
            InboxIterInner::List(it) => it.next().map(|(p, m)| (*p, m)),
        }
    }
}

/// The send surface a protocol writes its outgoing messages to.
///
/// Backed either by the node's CSR slot range in the chunked engine's write
/// arena (zero-allocation) or by a plain list in the reference engine. At
/// most one message per port per round.
pub struct Outbox<'a, M> {
    degree: usize,
    sent: usize,
    inner: OutboxInner<'a, M>,
}

enum OutboxInner<'a, M> {
    Slots {
        slots: &'a mut [ArenaSlot<M>],
        /// Delivery-round stamp written next to every message.
        stamp: u32,
    },
    List(&'a mut Vec<(usize, M)>),
}

impl<'a, M> Outbox<'a, M> {
    pub(crate) fn slots(slots: &'a mut [ArenaSlot<M>], stamp: u32) -> Self {
        Outbox {
            degree: slots.len(),
            sent: 0,
            inner: OutboxInner::Slots { slots, stamp },
        }
    }

    /// An outbox collecting sends into an explicit `(port, message)`
    /// list. Used by alternative executors (the reference engine, the
    /// sharded engine's encode-after-step path) to drive unmodified
    /// protocols; the caller clears/reuses the backing vector.
    #[must_use]
    pub fn list(list: &'a mut Vec<(usize, M)>, degree: usize) -> Self {
        Outbox {
            degree,
            sent: 0,
            inner: OutboxInner::List(list),
        }
    }

    /// Number of ports (the node's degree).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of messages sent through this outbox so far this round.
    #[must_use]
    pub fn sent(&self) -> usize {
        self.sent
    }

    /// Sends `msg` on `port` (delivered to that neighbor next round).
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree` or if a message was already sent on this
    /// port this round.
    pub fn send(&mut self, port: usize, msg: M) {
        assert!(
            port < self.degree,
            "port {port} out of range (degree {})",
            self.degree
        );
        match &mut self.inner {
            OutboxInner::Slots { slots, stamp } => {
                assert!(
                    slots[port].is_none(),
                    "duplicate message on port {port} in one round"
                );
                slots[port] = Some((*stamp, msg));
            }
            OutboxInner::List(list) => {
                assert!(
                    list.iter().all(|(p, _)| *p != port),
                    "duplicate message on port {port} in one round"
                );
                list.push((port, msg));
            }
        }
        self.sent += 1;
    }

    /// Sends a copy of `msg` on every port.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for port in 0..self.degree {
            self.send(port, msg.clone());
        }
    }
}

/// A per-node state machine. One instance is created per node by the
/// factory passed to [`run_sync`].
///
/// `step` executes one round: it reads this round's `inbox` (empty in round
/// 0), writes next round's messages into `outbox`, and returns `Some(out)`
/// to terminate with output `out` (messages written in the terminating step
/// are the node's *final messages*, delivered next round) or `None` to keep
/// running.
pub trait Protocol: Send {
    /// Message type exchanged with neighbors.
    type Message: Clone + Send + Sync;
    /// Output label type.
    type Output: Clone + Send;

    /// Executes one round; see the trait docs.
    fn step(
        &mut self,
        ctx: &NodeContext,
        round: u64,
        inbox: &Inbox<'_, Self::Message>,
        outbox: &mut Outbox<'_, Self::Message>,
    ) -> Option<Self::Output>;

    /// The earliest round in which this node's next [`step`](Protocol::step)
    /// does real work, assuming no messages arrive first.
    ///
    /// The chunked engine calls this right after a `step` at round `now`
    /// returns `None`. Returning `w > now` promises that every step in
    /// rounds `now + 1 .. w` with an **empty inbox** would be a no-op (no
    /// state change, no sends, no termination); the engine is then free to
    /// skip those steps. The node is stepped again no later than round
    /// `max(w, now + 1)`, and earlier as soon as a message arrives.
    /// `u64::MAX` means "sleep until mail".
    ///
    /// This is a pure scheduling hint: outcomes are bit-identical whether
    /// or not the engine honors it, and the reference engine ignores it.
    /// The default (`now`) schedules the node every round, which is always
    /// correct.
    fn next_wake(&self, _ctx: &NodeContext, now: u64) -> u64 {
        now
    }

    /// Width hint for bit-packed message arenas: an upper bound, in bits,
    /// on the packed form (see
    /// [`PackableMessage::pack`](crate::packed::PackableMessage::pack)) of
    /// every message **this node** ever sends during the run.
    ///
    /// The sharded engine sizes its packed arenas as the maximum hint over
    /// all nodes, so a node only needs to bound what it *originates*:
    /// protocols that forward other nodes' values verbatim are covered by
    /// the originators' own hints. Returning `None` (the default) on any
    /// node makes the engine fall back to the message type's declared
    /// ceiling ([`PackableMessage::CEIL_BITS`](crate::packed::PackableMessage::CEIL_BITS)),
    /// which is always safe. A hint that is too narrow fails loudly: the
    /// sharded engine asserts that every packed message fits.
    ///
    /// Purely an arena-sizing hint — outcomes are bit-identical whether or
    /// not it is honored, and the monolithic engine ignores it.
    fn message_bits(&self, _ctx: &NodeContext) -> Option<u32> {
        None
    }
}

/// Errors from [`run_sync`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Some nodes failed to terminate within the round budget.
    RoundLimitExceeded {
        /// The budget that was exhausted.
        limit: u64,
        /// How many nodes were still running.
        unfinished: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::RoundLimitExceeded { limit, unfinished } => {
                write!(f, "{unfinished} nodes still running after {limit} rounds")
            }
        }
    }
}

impl Error for RunError {}

/// Result of a completed synchronous execution: outputs, per-node
/// termination rounds and work counters. It carries no summary of the
/// rounds; [`RoundStats::profile`] builds one when it is needed.
#[derive(Debug, Clone)]
pub struct SyncOutcome<O> {
    /// Output of every node.
    pub outputs: Vec<O>,
    /// Per-node termination rounds: `stats.round(v)` is the first round in
    /// which node `v`'s output is final. Recorded in one `u32` slot per
    /// node during the run (half the footprint of the `u64` form at
    /// million-node scale) and widened once at the end.
    pub stats: RoundStats,
    /// Number of messages sent by running nodes, including final messages
    /// (diagnostics; the reference engine counts deliveries to live nodes
    /// instead, which can differ on terminal rounds for messages sent to
    /// just-terminated nodes).
    pub messages: u64,
    /// Peak bytes of message-arena storage resident in memory at any point
    /// of the run. The monolithic engine reports its two full-tree arenas;
    /// the sharded engine reports the high-water mark of resident shard
    /// arenas plus halo buffers — the number that shrinks when spilling is
    /// on. Deterministic per `(instance, config)`; `0` from executors
    /// without arenas (the reference engine).
    pub peak_arena_bytes: u64,
    /// Running nodes the executor examined, summed over rounds: a
    /// deterministic work counter. The chunked engine counts every
    /// running node of each chunk it scans in full plus every frontier
    /// node it steps alone, so the count depends on the chunk size but
    /// not on threads or store; the reference engine counts the nodes it
    /// steps (every running node, every round).
    pub node_visits: u64,
}

/// Tuning knobs of the chunked engine. The all-zero [`Default`] resolves
/// both knobs automatically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Nodes per scheduling chunk; worker regions are aligned to chunk
    /// boundaries. `0` means the default (1024). Never affects results.
    pub chunk_size: usize,
    /// The most worker regions a round fans out to; `0` resolves to the
    /// available parallelism. A round that examines fewer than
    /// `AUTO_PARALLEL_MIN_NODES` (16,384) nodes runs inline on the calling
    /// thread instead, so this is a ceiling, not a promise to spawn.
    /// Never affects results.
    pub threads: usize,
    /// Runs the arena write-discipline checker alongside the round loop:
    /// every arena slot is verified to be written at most once per round,
    /// only by the chunk that owns its sender node, and read only from the
    /// previous round's arena (never the one being written). Costs two
    /// atomic words per directed edge plus one atomic op per send/receive,
    /// so it is off by default; the `arena-check` crate feature forces it
    /// on for every run without a config change. Never affects results —
    /// a violation panics instead of corrupting the run.
    pub check_arena: bool,
    /// Partitioned out-of-core execution (the `lcl_shard` crate): `None`
    /// runs the monolithic in-memory engine, `Some` splits the CSR into
    /// contiguous node-range shards with bounded residency, halo exchange
    /// at round barriers, and bit-packed message arenas. Never affects
    /// results — the shard differential suite pins bit-identity.
    pub shard: Option<ShardConfig>,
}

/// Knobs of the partitioned out-of-core executor. Carried on
/// [`EngineConfig::shard`]; interpreted by the `lcl_shard` crate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of contiguous node-range shards to split the CSR into
    /// (shard boundaries align to chunk boundaries). `0` means one shard
    /// to the sharded executor; front-ends map a zero count to the
    /// monolithic engine instead ([`ShardConfig::from_flags`]).
    pub shards: usize,
    /// Maximum number of shard arena sets resident in memory at once;
    /// the rest spill to a per-run on-disk pool. `0` means "all resident"
    /// (no spilling); any other value is clamped to at least 1.
    pub max_resident: usize,
    /// Bit-pack message arenas using per-protocol
    /// [`Protocol::message_bits`] hints; when `false` (or whenever any
    /// node declines to hint) slots use the message type's full declared
    /// ceiling. Never affects results, only arena width.
    pub packing: bool,
}

/// The knob names of [`ShardConfig`], as spelled in configs and CLI flags.
/// Ground truth for the `lcl analyze` cross-check that every knob is
/// exercised by the shard differential suite.
pub const SHARD_KNOBS: &[&str] = &["shards", "max_resident", "packing"];

impl ShardConfig {
    /// The engine choice named by the front-ends' shard flags (`lcl
    /// run`/`sweep --shards`, `lcld` solve requests, the
    /// `BENCH_engine.json` header): `shards == 0` is the monolithic
    /// engine (`None`), any other count the sharded executor.
    #[must_use]
    pub fn from_flags(shards: usize, max_resident: usize, packing: bool) -> Option<ShardConfig> {
        (shards > 0).then_some(ShardConfig {
            shards,
            max_resident,
            packing,
        })
    }

    /// Shard count with the `0 = one shard` default applied.
    #[must_use]
    pub fn resolved_shards(&self) -> usize {
        self.shards.max(1)
    }
}

/// The fewest nodes a round pass must examine to fan out across worker
/// threads. Below it the pass runs inline on the calling thread as one
/// region, because two spawns would cost more than its work. The bound
/// is taken per round ([`pass_load`]) from the real lengths of the chunks
/// the pass scans in full plus its frontier nodes, so a run of fewer
/// nodes never spawns at all.
const AUTO_PARALLEL_MIN_NODES: usize = 16_384;

/// Recipients one worker region logs per round. A round that sends at
/// most this many messages in total hands the next round a *frontier*
/// of exactly its recipients, and a mailed chunk that is not due then
/// steps only those nodes instead of being scanned in full.
const MAIL_LOG_CAP: usize = 64;

/// Default chunk size when [`EngineConfig::chunk_size`] is `0`.
const DEFAULT_CHUNK_SIZE: usize = 1024;

impl EngineConfig {
    /// A config that always runs inline on the caller's thread.
    #[must_use]
    pub fn sequential() -> Self {
        EngineConfig {
            chunk_size: 0,
            threads: 1,
            check_arena: false,
            shard: None,
        }
    }

    /// True when the arena write-discipline checker is active, either via
    /// [`check_arena`](EngineConfig::check_arena) or the `arena-check`
    /// crate feature.
    #[must_use]
    pub fn arena_check_enabled(&self) -> bool {
        self.check_arena || cfg!(feature = "arena-check")
    }

    /// Chunk size with the `0 = default (1024)` rule applied.
    #[must_use]
    pub fn resolved_chunk_size(&self) -> usize {
        if self.chunk_size == 0 {
            DEFAULT_CHUNK_SIZE
        } else {
            self.chunk_size
        }
    }

    /// The most regions a round fans out to, with the `0 = available
    /// parallelism` rule applied. Independent of the node count `_n`:
    /// whether a round actually fans out is decided per round from the
    /// nodes it examines.
    #[must_use]
    pub fn resolved_threads(&self, _n: usize) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            t => t,
        }
    }
}

/// The reverse-edge permutation: for each directed edge `offsets[v] + p`
/// (node `v`, port `p`, neighbor `w`), the index of the reverse edge
/// `(w -> v)` in the CSR layout. Computed once per run in `O(n)` by two
/// CSR walks, with no hashing and no edge-sized scratch. Public for the
/// shard partitioner (`lcl_shard`), which routes halos through it.
#[must_use]
pub fn reverse_edges(tree: &Tree) -> Vec<u32> {
    let offsets = tree.offsets();
    let adjacency = tree.adjacency();
    let n = tree.node_count();
    let mut rev = vec![0u32; adjacency.len()];
    // Pass 1: every directed edge `v -> w` lands in `w`'s own range, in
    // ascending `v`.
    let mut cursor = offsets[..n].to_vec();
    for v in 0..n {
        for e in offsets[v]..offsets[v + 1] {
            let w = adjacency[e as usize] as usize;
            rev[cursor[w] as usize] = e;
            cursor[w] += 1;
        }
    }
    drop(cursor);
    // Pass 2: reorder each range from ascending-neighbor order into port
    // order; the `k`-th entry is the edge from the `k`-th smallest
    // neighbor.
    let mut scratch: Vec<(u32, u32)> = Vec::new();
    for w in 0..n {
        let (lo, hi) = (offsets[w] as usize, offsets[w + 1] as usize);
        let (ports, range) = (&adjacency[lo..hi], &mut rev[lo..hi]);
        match ports.len() {
            0 | 1 => {}
            2 => {
                if ports[0] > ports[1] {
                    range.swap(0, 1);
                }
            }
            _ => {
                scratch.clear();
                scratch.extend(ports.iter().copied().zip(0u32..));
                scratch.sort_unstable();
                for (k, (key, _)) in scratch.iter_mut().enumerate() {
                    *key = range[k];
                }
                for &(e, port) in &scratch {
                    range[port as usize] = e;
                }
            }
        }
    }
    rev
}

/// Region cut points: `workers + 1` node indices, every internal cut on a
/// chunk boundary, chunks distributed as evenly as possible. The round
/// loop cuts every pass into worker regions with it; public for the shard
/// partitioner, which cuts shards the same way.
#[must_use]
pub fn region_bounds(n: usize, chunk_size: usize, workers: usize) -> Vec<usize> {
    let chunks = n.div_ceil(chunk_size);
    let workers = workers.clamp(1, chunks.max(1));
    let base = chunks / workers;
    let extra = chunks % workers;
    let mut bounds = Vec::with_capacity(workers + 1);
    bounds.push(0);
    let mut c = 0;
    for t in 0..workers {
        c += base + usize::from(t < extra);
        bounds.push((c * chunk_size).min(n));
    }
    bounds
}

/// Dynamic twin of the static hot-path rules (`lcl analyze`, LCL-A0x):
/// verifies at run time that the arena protocol the engine's correctness
/// argument rests on is actually observed.
///
/// One epoch word per directed-edge slot per arena parity records the
/// round (+1, so `0` = never) in which the slot was last written. Three
/// invariants are enforced on every send and receive:
///
/// 1. **Single writer per round** — a slot's epoch moves to `round + 1`
///    at most once per round; a second write in the same round is a
///    double-write race.
/// 2. **Chunk ownership** — a slot may only be written while its sender
///    node's chunk is being stepped; regions writing outside their CSR
///    range would corrupt a neighbor worker's output.
/// 3. **Read after barrier** — reads in round `r` touch only the arena
///    written in rounds `< r`; an epoch of `r + 1` on the read side means
///    a same-round write leaked across the round barrier.
///
/// The epochs are deliberately *independent* of the slice-splitting that
/// makes the engine safe by construction: the checker would still catch a
/// bug introduced through an incorrect `split_regions` or a wrong
/// reverse-edge permutation.
struct ArenaChecker {
    /// `epochs[parity][slot]`: last-write round + 1 for that arena.
    epochs: [Vec<AtomicU64>; 2],
    /// Global chunk index owning each slot's sender node.
    owner: Vec<u32>,
}

impl ArenaChecker {
    fn new(offsets: &[u32], n: usize, chunk_size: usize, slots: usize) -> Self {
        let mut owner = vec![0u32; slots];
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            for o in &mut owner[lo..hi] {
                *o = (v / chunk_size) as u32;
            }
        }
        let fresh = |_| AtomicU64::new(0);
        ArenaChecker {
            epochs: [
                (0..slots).map(fresh).collect(),
                (0..slots).map(fresh).collect(),
            ],
            owner,
        }
    }

    /// The arena parity written in `round` (even rounds write arena A).
    fn write_parity(round: u64) -> usize {
        (round % 2) as usize
    }

    /// Registers a write of `slot` during `round` by `writer_chunk`.
    ///
    /// # Panics
    ///
    /// Panics on a double-write within the round or a write from a chunk
    /// that does not own the slot's sender node.
    fn record_write(&self, slot: usize, round: u64, writer_chunk: usize) {
        assert_eq!(
            self.owner[slot] as usize, writer_chunk,
            "arena ownership violation: slot {slot} (owner chunk {}) written by chunk \
             {writer_chunk} in round {round}",
            self.owner[slot]
        );
        let epoch = round + 1;
        let prev = self.epochs[Self::write_parity(round)][slot].swap(epoch, Ordering::Relaxed);
        assert!(
            prev < epoch,
            "arena double-write: slot {slot} written twice in round {round} \
             (previous epoch {prev})"
        );
    }

    /// Registers a read of `slot` from the *read* arena during `round`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was written in the current round: the read
    /// arena must only carry messages from before the round barrier.
    fn record_read(&self, slot: usize, round: u64) {
        // Round `r` reads the arena of parity `1 - r % 2` — the one
        // written in round `r - 1`.
        let parity = 1 - Self::write_parity(round);
        let epoch = self.epochs[parity][slot].load(Ordering::Relaxed);
        assert!(
            epoch <= round,
            "arena read-before-barrier: slot {slot} read in round {round} but written in \
             round {} of the same parity",
            epoch - 1
        );
    }
}

/// The CSR geometry every message store addresses slots by: directed edge
/// `offsets[v] + p` is node `v`'s port `p`, `adjacency` names its far end
/// and `rev` its reversal ([`reverse_edges`]).
#[derive(Debug, Clone, Copy)]
pub struct Csr<'a> {
    /// First slot of every node, `n + 1` entries ([`Tree::offsets`]).
    pub offsets: &'a [u32],
    /// Far end of every directed edge ([`Tree::adjacency`]).
    pub adjacency: &'a [u32],
    /// The reverse-edge permutation.
    pub rev: &'a [u32],
}

/// What a [`MessageStore`] is built from at run start. The machines
/// already exist, so a store may size itself from per-node hints
/// ([`Protocol::message_bits`]), asking each with the context
/// [`node_context`] builds from `csr.offsets`, `ids` and `n`.
pub struct StoreSetup<'a, P> {
    /// The tree being run.
    pub tree: &'a Tree,
    /// Its slot geometry.
    pub csr: Csr<'a>,
    /// Every node's identifier.
    pub ids: &'a Ids,
    /// The number of nodes.
    pub n: usize,
    /// Every node's freshly built machine.
    pub machines: &'a [Option<P>],
    /// Resolved chunk size.
    pub chunk_size: usize,
    /// Resolved worker count: the most regions any pass is split into.
    pub workers: usize,
}

/// Where messages live between rounds, behind the one round loop
/// ([`run_with_store`]). The loop steps the node range in *passes* cut at
/// [`passes`](MessageStore::passes); each pass is split into chunk-aligned
/// worker regions, and every region gets a [`StoreRegion`] over a
/// disjoint slice of the store's write side.
pub trait MessageStore<M> {
    /// Error of a run over this store; a blown round budget converts
    /// into it.
    type Error: From<RunError>;
    /// One worker region's message I/O for one round.
    type Region<'a>: StoreRegion<M>
    where
        Self: 'a;

    /// Pass cut points: node indices from `0` to `n`, every internal cut
    /// on a chunk boundary.
    fn passes(&self) -> &[usize];

    /// Makes pass `pass` steppable and splits its storage for `round`
    /// into one region per window of `bounds` (node cut points,
    /// chunk-aligned). With more than one pass, a pass with no mailed or
    /// due chunk is skipped without this call.
    ///
    /// # Errors
    ///
    /// Whatever the store fails with when making the pass steppable.
    fn regions<'a>(
        &'a mut self,
        csr: Csr<'a>,
        pass: usize,
        round: u64,
        bounds: &'a [usize],
    ) -> Result<impl Iterator<Item = Self::Region<'a>>, Self::Error>;

    /// Hook after pass `pass` ran in `round`.
    fn end_pass(&mut self, _pass: usize, _round: u64) {}

    /// Peak bytes of message storage resident at any point of the run.
    fn peak_bytes(&self) -> u64;
}

/// One worker region's per-node message I/O in one round. A node is named
/// by its first slot `base` (`offsets[v]`) and its `degree`. Per visited
/// chunk the loop calls [`open_chunk`](StoreRegion::open_chunk), then
/// [`stage`](StoreRegion::stage) for each of its running nodes that is
/// due or mailed; a node that steps gets [`io`](StoreRegion::io) and, if
/// it sent anything, [`commit`](StoreRegion::commit).
pub trait StoreRegion<M>: Send {
    /// Opens global chunk `chunk` for this round's writes, before any of
    /// its nodes steps.
    fn open_chunk(&mut self, _chunk: usize) {}

    /// Whether the node steps: it is `due`, or a message to it is
    /// waiting. Stages the node's inbox where the store needs to.
    fn stage(&mut self, base: usize, degree: usize, due: bool) -> bool;

    /// The staged inbox and an empty outbox of the node.
    fn io(&mut self, base: usize, degree: usize) -> (Inbox<'_, M>, Outbox<'_, M>);

    /// Stores what the node sent, calling `sent(port)` for every port
    /// written.
    fn commit(&mut self, base: usize, degree: usize, sent: impl FnMut(usize));
}

/// The monolithic store: two full-tree slot arenas, one slot per directed
/// edge, double-buffered by round parity, all in one pass. Delivery-round
/// stamps expire stale slots, so nothing is ever cleared between rounds.
struct SlotStore<M> {
    /// Even rounds write arena 0 and read arena 1; odd rounds swap.
    arenas: [Vec<ArenaSlot<M>>; 2],
    passes: [usize; 2],
}

impl<M: Clone + Send + Sync> MessageStore<M> for SlotStore<M> {
    type Error = RunError;
    type Region<'a>
        = SlotRegion<'a, M>
    where
        Self: 'a;

    fn passes(&self) -> &[usize] {
        &self.passes
    }

    fn regions<'a>(
        &'a mut self,
        csr: Csr<'a>,
        _pass: usize,
        round: u64,
        bounds: &'a [usize],
    ) -> Result<impl Iterator<Item = SlotRegion<'a, M>>, RunError> {
        let [a, b] = &mut self.arenas;
        let (read, mut write): (&[_], &mut [_]) = if round.is_multiple_of(2) {
            (b, a)
        } else {
            (a, b)
        };
        Ok(bounds.windows(2).map(move |w| {
            let slot_base = csr.offsets[w[0]] as usize;
            let slots = csr.offsets[w[1]] as usize - slot_base;
            let (head, rest) = std::mem::take(&mut write).split_at_mut(slots);
            write = rest;
            SlotRegion {
                rev: csr.rev,
                read,
                write: head,
                slot_base,
                expect: round as u32,
            }
        }))
    }

    fn peak_bytes(&self) -> u64 {
        // Both full-tree double-buffered arenas live for the whole run.
        2 * (self.arenas[0].len() * std::mem::size_of::<ArenaSlot<M>>()) as u64
    }
}

/// A worker region of the slot arenas: the whole read arena plus the
/// region's CSR range of the write arena.
struct SlotRegion<'a, M> {
    rev: &'a [u32],
    read: &'a [ArenaSlot<M>],
    write: &'a mut [ArenaSlot<M>],
    slot_base: usize,
    /// The round being stepped: only slots stamped with it are delivered,
    /// and sends are stamped `expect + 1`.
    expect: u32,
}

impl<M: Clone + Send + Sync> StoreRegion<M> for SlotRegion<'_, M> {
    fn stage(&mut self, base: usize, degree: usize, due: bool) -> bool {
        due || (0..degree).any(|p| {
            matches!(&self.read[self.rev[base + p] as usize], Some((stamp, _)) if *stamp == self.expect)
        })
    }

    fn io(&mut self, base: usize, degree: usize) -> (Inbox<'_, M>, Outbox<'_, M>) {
        let lo = base - self.slot_base;
        let out = &mut self.write[lo..lo + degree];
        for slot in out.iter_mut() {
            *slot = None;
        }
        (
            Inbox::gather(self.read, self.rev, base, degree, self.expect),
            Outbox::slots(out, self.expect + 1),
        )
    }

    fn commit(&mut self, base: usize, degree: usize, mut sent: impl FnMut(usize)) {
        let lo = base - self.slot_base;
        for (p, slot) in self.write[lo..lo + degree].iter().enumerate() {
            if slot.is_some() {
                sent(p);
            }
        }
    }
}

/// Read-only (or atomically shared) state every worker sees during one
/// round.
struct RoundShared<'a> {
    csr: Csr<'a>,
    /// With `csr.offsets` and `n`, what a step's [`NodeContext`] is
    /// built from.
    ids: &'a Ids,
    n: usize,
    chunk_size: usize,
    /// Mail flags consumed this round (set by last round's senders).
    /// Indexed by global chunk; each flag is cleared by the chunk's owner.
    mail_now: &'a [AtomicBool],
    /// Mail flags senders set this round for next round's recipients.
    mail_next: &'a [AtomicBool],
    /// Last round's recipients, sorted and deduplicated, when they all
    /// fit the mail logs; `None` after a busier round.
    frontier: Option<&'a [u32]>,
    round: u64,
    /// Write-discipline checker, present only when arena checking is on.
    checker: Option<&'a ArenaChecker>,
}

/// A fixed-capacity list of mail recipients (global node indices). Each
/// worker region logs its sends into one; the loop merges them into the
/// next round's frontier. Cache-line aligned: neighboring workers' logs
/// would otherwise contend on a shared line.
#[repr(align(64))]
struct MailLog {
    len: usize,
    nodes: [u32; MAIL_LOG_CAP],
}

impl MailLog {
    fn new() -> Self {
        MailLog {
            len: 0,
            nodes: [0; MAIL_LOG_CAP],
        }
    }

    /// Logs `node`; once full, further recipients are dropped (the
    /// round's total `sent` then rules the frontier out).
    fn log(&mut self, node: usize) {
        if let Some(slot) = self.nodes.get_mut(self.len) {
            *slot = node as u32;
            self.len += 1;
        }
    }

    fn nodes(&self) -> &[u32] {
        &self.nodes[..self.len]
    }

    /// Replaces the list with the sorted, deduplicated union of `logs`,
    /// emptying them.
    fn gather(&mut self, logs: &mut [MailLog]) {
        self.len = 0;
        for log in logs {
            for i in 0..log.len {
                self.log(log.nodes[i] as usize);
            }
            log.len = 0;
        }
        let nodes = &mut self.nodes[..self.len];
        nodes.sort_unstable();
        let mut kept = 0;
        for i in 0..nodes.len() {
            if kept == 0 || nodes[i] != nodes[kept - 1] {
                nodes[kept] = nodes[i];
                kept += 1;
            }
        }
        self.len = kept;
    }
}

/// What one round's regions did.
#[derive(Clone, Copy, Default)]
struct Tally {
    terminated: usize,
    sent: u64,
    /// Running nodes examined.
    visits: u64,
}

impl std::ops::Add for Tally {
    type Output = Tally;
    fn add(self, o: Tally) -> Tally {
        Tally {
            terminated: self.terminated + o.terminated,
            sent: self.sent + o.sent,
            visits: self.visits + o.visits,
        }
    }
}

/// One worker's contiguous slice of every per-node array plus its store
/// region. Regions are chunk-aligned, so each also owns a contiguous
/// slice of the per-chunk wake array.
struct Region<'a, P: Protocol, R> {
    start: NodeId,
    /// Global index of the region's first chunk.
    first_chunk: usize,
    /// `None` once the node has terminated.
    machines: &'a mut [Option<P>],
    outputs: &'a mut [Option<P::Output>],
    /// One `u32` slot per node: the first round in which the node's
    /// output is final, written exactly once (at termination).
    rounds: &'a mut [u32],
    /// Per-node wake hints: the next round in which the node must be
    /// stepped absent mail (`0` initially, so round 0 steps everyone).
    wakes: &'a mut [u64],
    /// Per-chunk lower bound on the running nodes' wakes: exact after a
    /// full scan, only lowered by a frontier visit, untouched (hence
    /// still valid) between visits. A bound that is too low costs one
    /// extra scan, never a missed step.
    chunk_wakes: &'a mut [u64],
    /// Recipients of this region's sends this round.
    mail_log: &'a mut MailLog,
    store: R,
}

/// Executes one round over one region, visiting only chunks that are due
/// or flagged for mail. A mailed chunk that is not due steps only its
/// frontier nodes when last round's frontier is known; every other
/// visited chunk is scanned in full.
fn step_region<P, R>(region: &mut Region<'_, P, R>, shared: &RoundShared<'_>) -> Tally
where
    P: Protocol,
    R: StoreRegion<P::Message>,
{
    let round = shared.round;
    let mut tally = Tally::default();
    for c in 0..region.chunk_wakes.len() {
        let chunk = region.first_chunk + c;
        let flag = &shared.mail_now[chunk];
        // The owner is the only clearer; a plain load first keeps idle
        // chunks' cache lines in the shared state.
        let mail = flag.load(Ordering::Relaxed);
        let due = region.chunk_wakes[c] <= round;
        if mail {
            flag.store(false, Ordering::Relaxed);
        } else if !due {
            continue;
        }
        region.store.open_chunk(chunk);
        let node_lo = c * shared.chunk_size;
        let node_hi = (node_lo + shared.chunk_size).min(region.machines.len());
        region.chunk_wakes[c] = match shared.frontier {
            // No node is due, so only last round's recipients can step.
            Some(frontier) if !due => {
                let (lo, hi) = (region.start + node_lo, region.start + node_hi);
                let from = frontier.partition_point(|&v| (v as usize) < lo);
                let mut chunk_wake = region.chunk_wakes[c];
                for &v in frontier[from..].iter().take_while(|&&v| (v as usize) < hi) {
                    let i = v as usize - region.start;
                    chunk_wake =
                        chunk_wake.min(visit_node(region, shared, i, chunk, true, &mut tally));
                }
                chunk_wake
            }
            _ => {
                let mut chunk_wake = u64::MAX;
                for i in node_lo..node_hi {
                    chunk_wake =
                        chunk_wake.min(visit_node(region, shared, i, chunk, mail, &mut tally));
                }
                chunk_wake
            }
        };
    }
    tally
}

/// Examines node `i` of the region in a visited chunk (`mail`: the chunk
/// is flagged): steps it when it is due or a message to it is waiting.
/// Returns the node's wake afterwards, `u64::MAX` once it has terminated.
fn visit_node<P, R>(
    region: &mut Region<'_, P, R>,
    shared: &RoundShared<'_>,
    i: usize,
    chunk: usize,
    mail: bool,
    tally: &mut Tally,
) -> u64
where
    P: Protocol,
    R: StoreRegion<P::Message>,
{
    let round = shared.round;
    let Some(machine) = region.machines[i].as_mut() else {
        return u64::MAX;
    };
    tally.visits += 1;
    let v = region.start + i;
    let base = shared.csr.offsets[v] as usize;
    let ctx = &node_context(shared.csr.offsets, shared.ids, shared.n, v);
    let due = region.wakes[i] <= round;
    if !(due || mail) || !region.store.stage(base, ctx.degree, due) {
        return region.wakes[i];
    }
    if let Some(checker) = shared.checker {
        for p in 0..ctx.degree {
            checker.record_read(shared.csr.rev[base + p] as usize, round);
        }
    }
    let (inbox, mut outbox) = region.store.io(base, ctx.degree);
    let decided = machine.step(ctx, round, &inbox, &mut outbox);
    let wrote = outbox.sent();
    if wrote > 0 {
        tally.sent += wrote as u64;
        let log = &mut *region.mail_log;
        region.store.commit(base, ctx.degree, |p| {
            if let Some(checker) = shared.checker {
                checker.record_write(base + p, round, chunk);
            }
            let w = shared.csr.adjacency[base + p] as usize;
            shared.mail_next[w / shared.chunk_size].store(true, Ordering::Relaxed);
            log.log(w);
        });
    }
    if let Some(output) = decided {
        region.outputs[i] = Some(output);
        region.rounds[i] = round as u32;
        region.machines[i] = None;
        tally.terminated += 1;
        u64::MAX
    } else {
        let wake = machine.next_wake(ctx, round).max(round + 1);
        region.wakes[i] = wake;
        wake
    }
}

/// Splits one pass's per-node and per-chunk arrays into per-region
/// slices at `cuts` (global node cut points), pairing each with its
/// store region and mail log. Lazy, so a one-region pass allocates
/// nothing.
#[allow(clippy::too_many_arguments)]
fn split_regions<'a, P: Protocol, R>(
    cuts: &'a [usize],
    chunk_size: usize,
    mut machines: &'a mut [Option<P>],
    mut outputs: &'a mut [Option<P::Output>],
    mut rounds: &'a mut [u32],
    mut wakes: &'a mut [u64],
    mut chunk_wakes: &'a mut [u64],
    stores: impl Iterator<Item = (R, &'a mut MailLog)> + 'a,
) -> impl Iterator<Item = Region<'a, P, R>> + 'a {
    cuts.windows(2)
        .zip(stores)
        .map(move |(w, (store, mail_log))| {
            let (lo, hi) = (w[0], w[1]);
            let nodes = hi - lo;
            let (m, m_rest) = std::mem::take(&mut machines).split_at_mut(nodes);
            machines = m_rest;
            let (o, o_rest) = std::mem::take(&mut outputs).split_at_mut(nodes);
            outputs = o_rest;
            let (r, r_rest) = std::mem::take(&mut rounds).split_at_mut(nodes);
            rounds = r_rest;
            let (wk, wk_rest) = std::mem::take(&mut wakes).split_at_mut(nodes);
            wakes = wk_rest;
            let (cw, cw_rest) =
                std::mem::take(&mut chunk_wakes).split_at_mut(nodes.div_ceil(chunk_size));
            chunk_wakes = cw_rest;
            Region {
                start: lo,
                first_chunk: lo / chunk_size,
                machines: m,
                outputs: o,
                rounds: r,
                wakes: wk,
                chunk_wakes: cw,
                mail_log,
                store,
            }
        })
}

/// An upper bound on the running nodes the pass over nodes `lo..hi`
/// examines this round: the real length of every chunk it will scan in
/// full plus the frontier's nodes in the pass. Zero exactly when no chunk
/// of the pass is mailed or due; counting stops at
/// [`AUTO_PARALLEL_MIN_NODES`], which is all the caller asks.
fn pass_load(shared: &RoundShared<'_>, chunk_wakes: &[u64], lo: usize, hi: usize) -> usize {
    let cs = shared.chunk_size;
    let mut load = shared.frontier.map_or(0, |f| {
        f.partition_point(|&v| (v as usize) < hi) - f.partition_point(|&v| (v as usize) < lo)
    });
    let (c0, c1) = (lo / cs, hi.div_ceil(cs));
    for (c, &wake) in (c0..c1).zip(&chunk_wakes[c0..c1]) {
        if load >= AUTO_PARALLEL_MIN_NODES {
            break;
        }
        let full = wake <= shared.round
            || shared.frontier.is_none() && shared.mail_now[c].load(Ordering::Relaxed);
        if full {
            load += ((c + 1) * cs).min(hi) - c * cs;
        }
    }
    load
}

/// Runs a protocol on every node of `tree` until all nodes terminate,
/// using the default [`EngineConfig`].
///
/// `factory` is called once per node to create its state machine.
///
/// # Errors
///
/// Returns [`RunError::RoundLimitExceeded`] if any node is still running
/// after `max_rounds` rounds.
///
/// # Examples
///
/// ```
/// use lcl_graph::generators::path;
/// use lcl_local::engine::{run_sync, Inbox, NodeContext, Outbox, Protocol};
/// use lcl_local::identifiers::Ids;
///
/// // Every node immediately outputs its own degree.
/// struct DegreeEcho;
/// impl Protocol for DegreeEcho {
///     type Message = ();
///     type Output = usize;
///     fn step(&mut self, ctx: &NodeContext, _round: u64,
///             _inbox: &Inbox<'_, ()>, _outbox: &mut Outbox<'_, ()>)
///         -> Option<usize>
///     {
///         Some(ctx.degree)
///     }
/// }
///
/// let tree = path(3);
/// let ids = Ids::sequential(3);
/// let out = run_sync(&tree, &ids, |_| DegreeEcho, 10)?;
/// assert_eq!(out.outputs, vec![1, 2, 1]);
/// assert_eq!(out.stats.worst_case(), 0);
/// # Ok::<(), lcl_local::engine::RunError>(())
/// ```
pub fn run_sync<P, F>(
    tree: &Tree,
    ids: &Ids,
    factory: F,
    max_rounds: u64,
) -> Result<SyncOutcome<P::Output>, RunError>
where
    P: Protocol,
    F: FnMut(&NodeContext) -> P,
{
    run_sync_with(tree, ids, factory, max_rounds, &EngineConfig::default())
}

/// [`run_sync`] with explicit engine tuning. Outputs and rounds are
/// independent of `config`; only scheduling changes. Always runs on the
/// slot arenas: `config.shard` is the sharded executor's knob.
///
/// # Errors
///
/// Returns [`RunError::RoundLimitExceeded`] if any node is still running
/// after `max_rounds` rounds.
///
/// # Panics
///
/// Panics if `ids` does not cover all nodes, or if a worker thread panics
/// (protocol panics propagate).
pub fn run_sync_with<P, F>(
    tree: &Tree,
    ids: &Ids,
    factory: F,
    max_rounds: u64,
    config: &EngineConfig,
) -> Result<SyncOutcome<P::Output>, RunError>
where
    P: Protocol,
    F: FnMut(&NodeContext) -> P,
{
    run_with_store(tree, ids, factory, max_rounds, config, |setup| {
        let slots = setup.csr.adjacency.len();
        Ok(SlotStore {
            arenas: [vec![None; slots], vec![None; slots]],
            passes: [0, setup.machines.len()],
        })
    })
}

/// The round loop, over the message store `store` builds at run start.
///
/// Every executed round runs each pass that has a mailed or due chunk.
/// A pass that examines fewer than `AUTO_PARALLEL_MIN_NODES` (16,384)
/// nodes is stepped inline as one region; a larger one is split
/// into chunk-aligned worker regions on scoped threads. The store's pass
/// hooks run around each pass. When a round's sends fit the mail logs,
/// their recipients become the next round's frontier. A round that ends
/// with nothing in flight fast-forwards to the earliest wake.
///
/// # Errors
///
/// Whatever building the store or entering a pass fails with, and
/// [`RunError::RoundLimitExceeded`] (converted) if any node is still
/// running after `max_rounds` rounds.
///
/// # Panics
///
/// Panics if `ids` does not cover all nodes, or if a worker thread panics
/// (protocol panics propagate).
pub fn run_with_store<P, F, S>(
    tree: &Tree,
    ids: &Ids,
    mut factory: F,
    max_rounds: u64,
    config: &EngineConfig,
    store: impl FnOnce(&StoreSetup<'_, P>) -> Result<S, S::Error>,
) -> Result<SyncOutcome<P::Output>, S::Error>
where
    P: Protocol,
    F: FnMut(&NodeContext) -> P,
    S: MessageStore<P::Message>,
{
    let n = tree.node_count();
    assert_eq!(ids.len(), n, "ID assignment must cover all nodes");
    let rev = reverse_edges(tree);
    let csr = Csr {
        offsets: tree.offsets(),
        adjacency: tree.adjacency(),
        rev: &rev,
    };
    let mut machines: Vec<Option<P>> = (0..n)
        .map(|v| Some(factory(&node_context(csr.offsets, ids, n, v))))
        .collect();
    let chunk_size = config.resolved_chunk_size();
    let workers = config.resolved_threads(n);
    let mut store = store(&StoreSetup {
        tree,
        csr,
        ids,
        n,
        machines: &machines,
        chunk_size,
        workers,
    })?;
    // Every pass's worker cut points, fixed for the run.
    let pass_bounds: Vec<Vec<usize>> = store
        .passes()
        .windows(2)
        .map(|w| {
            region_bounds(w[1] - w[0], chunk_size, workers)
                .into_iter()
                .map(|b| w[0] + b)
                .collect()
        })
        .collect();

    let mut outputs: Vec<Option<P::Output>> = vec![None; n];
    let mut rounds: Vec<u32> = vec![0; n];
    // Event-driven scheduling state: everyone is due at round 0, no mail.
    let chunk_count = n.div_ceil(chunk_size);
    let mut wakes: Vec<u64> = vec![0; n];
    let mut chunk_wakes: Vec<u64> = vec![0; chunk_count];
    let mail_a: Vec<AtomicBool> = (0..chunk_count).map(|_| AtomicBool::new(false)).collect();
    let mail_b: Vec<AtomicBool> = (0..chunk_count).map(|_| AtomicBool::new(false)).collect();
    // One mail log per worker region, and the frontier they merge into.
    let mut mail_logs: Vec<MailLog> = (0..workers).map(|_| MailLog::new()).collect();
    let mut frontier = MailLog::new();
    // The checker's epochs persist across rounds (stale-slot expiry is
    // part of what it validates), so it lives outside the round loop.
    let checker = config
        .arena_check_enabled()
        .then(|| ArenaChecker::new(csr.offsets, n, chunk_size, csr.adjacency.len()));

    let mut running = n;
    let mut messages: u64 = 0;
    let mut node_visits: u64 = 0;
    // Sends of the previous round: the frontier is complete while they
    // fit one mail log.
    let mut sent = 0u64;
    let mut round = 0u64;
    while running > 0 {
        if round > max_rounds {
            return Err(RunError::RoundLimitExceeded {
                limit: max_rounds,
                unfinished: running,
            }
            .into());
        }
        assert!(
            round < u64::from(u32::MAX),
            "termination rounds are recorded in u32 slots"
        );
        // Mail flags are double-buffered by round parity, like the arenas.
        let (mail_now, mail_next) = if round.is_multiple_of(2) {
            (&mail_a, &mail_b)
        } else {
            (&mail_b, &mail_a)
        };
        let shared = RoundShared {
            csr,
            ids,
            n,
            chunk_size,
            mail_now,
            mail_next,
            frontier: (sent <= MAIL_LOG_CAP as u64).then(|| frontier.nodes()),
            round,
            checker: checker.as_ref(),
        };
        let mut tally = Tally::default();
        for (pass, bounds) in pass_bounds.iter().enumerate() {
            let (lo, hi) = (bounds[0], bounds[bounds.len() - 1]);
            let (c0, c1) = (lo / chunk_size, hi.div_ceil(chunk_size));
            let load = pass_load(&shared, &chunk_wakes, lo, hi);
            // An idle pass would visit no chunk; skipping it outright
            // spares a multi-pass store its residency work.
            if load == 0 {
                continue;
            }
            // A small pass runs inline as one region: spawning would cost
            // more than its work.
            let whole = [lo, hi];
            let cuts = if load < AUTO_PARALLEL_MIN_NODES {
                &whole[..]
            } else {
                bounds
            };
            let stepped = {
                let stores = store.regions(csr, pass, round, cuts)?;
                let mut regions = split_regions(
                    cuts,
                    chunk_size,
                    &mut machines[lo..hi],
                    &mut outputs[lo..hi],
                    &mut rounds[lo..hi],
                    &mut wakes[lo..hi],
                    &mut chunk_wakes[c0..c1],
                    stores.zip(mail_logs.iter_mut()),
                );
                if cuts.len() == 2 {
                    let Some(mut region) = regions.next() else {
                        unreachable!("a one-window cut yields one region")
                    };
                    step_region(&mut region, &shared)
                } else {
                    let shared = &shared;
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = regions
                            .map(|mut region| scope.spawn(move || step_region(&mut region, shared)))
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| {
                                // Re-raise a worker panic with its original
                                // payload instead of swallowing it behind a
                                // generic message.
                                h.join()
                                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                            })
                            .fold(Tally::default(), |a, b| a + b)
                    })
                }
            };
            tally = tally + stepped;
            store.end_pass(pass, round);
        }
        running -= tally.terminated;
        messages += tally.sent;
        node_visits += tally.visits;
        sent = tally.sent;
        frontier.gather(&mut mail_logs);
        round += 1;
        // Round fast-forward: with nothing in flight the next event is the
        // earliest wake; skip the quiet rounds wholesale (they would all be
        // zero-visit scans).
        if running > 0 && sent == 0 {
            let next = chunk_wakes.iter().copied().min().unwrap_or(u64::MAX);
            if next > round {
                round = next.min(max_rounds.saturating_add(1));
            }
        }
    }

    // Free the working set first, so the flattened outputs and the widened
    // rounds are never resident beside it.
    let peak_arena_bytes = store.peak_bytes();
    drop((
        store,
        machines,
        wakes,
        chunk_wakes,
        mail_a,
        mail_b,
        checker,
        rev,
    ));
    let outputs: Vec<P::Output> = outputs.into_iter().flatten().collect();
    assert_eq!(
        outputs.len(),
        n,
        "every node has an output once `running` reaches 0"
    );
    Ok(SyncOutcome {
        outputs,
        stats: RoundStats::new(rounds.into_iter().map(u64::from).collect()),
        messages,
        peak_arena_bytes,
        node_visits,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lcl_graph::generators::{path, star};

    /// Floods the minimum ID for exactly `budget` rounds, then outputs it.
    pub(crate) struct MinFlood {
        pub(crate) best: u64,
        pub(crate) budget: u64,
    }

    impl Protocol for MinFlood {
        type Message = u64;
        type Output = u64;
        fn step(
            &mut self,
            _ctx: &NodeContext,
            round: u64,
            inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<'_, u64>,
        ) -> Option<u64> {
            for (_, &m) in inbox.iter() {
                self.best = self.best.min(m);
            }
            if round == self.budget {
                return Some(self.best);
            }
            outbox.broadcast(self.best);
            None
        }
    }

    #[test]
    fn min_flood_on_path_needs_diameter_rounds() {
        let n = 12;
        let tree = path(n);
        // Sequential IDs put the minimum at endpoint node 0, so the far
        // endpoint genuinely needs `diameter` rounds to hear about it.
        let ids = Ids::sequential(n);
        let diam = tree.diameter() as u64;
        let out = run_sync(
            &tree,
            &ids,
            |c| MinFlood {
                best: c.id,
                budget: diam,
            },
            100,
        )
        .unwrap();
        assert!(out.outputs.iter().all(|&m| m == 0));
        assert_eq!(out.stats.worst_case(), diam);
        // One budget short misses the minimum for some node.
        let short = run_sync(
            &tree,
            &ids,
            |c| MinFlood {
                best: c.id,
                budget: diam - 1,
            },
            100,
        )
        .unwrap();
        assert!(short.outputs.iter().any(|&m| m != 0));
    }

    #[test]
    fn min_flood_on_star_is_fast() {
        let tree = star(9);
        let ids = Ids::random(9, 1);
        let out = run_sync(
            &tree,
            &ids,
            |c| MinFlood {
                best: c.id,
                budget: 2,
            },
            100,
        )
        .unwrap();
        assert!(out.outputs.iter().all(|&m| m == 0));
    }

    #[test]
    fn results_identical_across_chunk_sizes_and_threads() {
        let n = 40;
        let tree = path(n);
        let ids = Ids::random(n, 5);
        let baseline = run_sync_with(
            &tree,
            &ids,
            |c| MinFlood {
                best: c.id,
                budget: 17,
            },
            100,
            &EngineConfig::sequential(),
        )
        .unwrap();
        for chunk_size in [1, 7, 64, n] {
            for threads in [1, 2, 3] {
                let out = run_sync_with(
                    &tree,
                    &ids,
                    |c| MinFlood {
                        best: c.id,
                        budget: 17,
                    },
                    100,
                    // The write-discipline checker rides along on the
                    // engine's own differential matrix: every chunk size
                    // and thread count must also be race-clean.
                    &EngineConfig {
                        chunk_size,
                        threads,
                        check_arena: true,
                        shard: None,
                    },
                )
                .unwrap();
                assert_eq!(out.outputs, baseline.outputs, "cs={chunk_size} t={threads}");
                assert_eq!(out.stats, baseline.stats, "cs={chunk_size} t={threads}");
                assert_eq!(
                    out.messages, baseline.messages,
                    "cs={chunk_size} t={threads}"
                );
            }
        }
    }

    /// Endpoint flood on a path: endpoints start a token carrying a hop
    /// count; nodes output (distance to first endpoint seen per side) once
    /// both sides arrived. Endpoints treat themselves as one side.
    pub(crate) struct EndpointFlood {
        pub(crate) seen: Vec<Option<u64>>, // per port: hop distance to that side's end
        pub(crate) self_is_end: bool,
    }

    impl Protocol for EndpointFlood {
        type Message = u64;
        type Output = u64; // eccentricity within the path

        fn step(
            &mut self,
            ctx: &NodeContext,
            round: u64,
            inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<'_, u64>,
        ) -> Option<u64> {
            if round == 0 {
                self.seen = vec![None; ctx.degree];
                self.self_is_end = ctx.degree == 1;
                if ctx.n == 1 {
                    return Some(0);
                }
                if self.self_is_end {
                    outbox.send(0, 1);
                }
                return None;
            }
            for (port, &hops) in inbox.iter() {
                if self.seen[port].is_none() {
                    self.seen[port] = Some(hops);
                    // Forward to the opposite port if any.
                    if ctx.degree == 2 {
                        outbox.send(1 - port, hops + 1);
                    }
                }
            }
            let done = if self.self_is_end {
                self.seen[0].is_some()
            } else {
                self.seen.iter().all(Option::is_some)
            };
            if done {
                let far = self.seen.iter().flatten().copied().max().unwrap_or(0);
                return Some(far);
            }
            None
        }

        fn next_wake(&self, _ctx: &NodeContext, now: u64) -> u64 {
            // After round 0 this protocol only reacts to arriving tokens.
            if now == 0 {
                now
            } else {
                u64::MAX
            }
        }
    }

    #[test]
    fn endpoint_flood_measures_eccentricity() {
        let n = 9;
        let tree = path(n);
        let ids = Ids::sequential(n);
        let out = run_sync(
            &tree,
            &ids,
            |_| EndpointFlood {
                seen: vec![],
                self_is_end: false,
            },
            100,
        )
        .unwrap();
        // Node v on a path of n nodes has eccentricity max(v, n-1-v).
        for v in 0..n {
            assert_eq!(out.outputs[v], (v.max(n - 1 - v)) as u64, "node {v}");
            assert_eq!(out.stats.round(v), out.outputs[v], "node {v}");
        }
        // Node-averaged ~ 3n/4, worst-case = n-1.
        assert_eq!(out.stats.worst_case(), (n - 1) as u64);
        assert_eq!(out.stats.len(), n);
    }

    #[test]
    fn round_limit_is_enforced() {
        struct Forever;
        impl Protocol for Forever {
            type Message = ();
            type Output = ();
            fn step(
                &mut self,
                _: &NodeContext,
                _: u64,
                _: &Inbox<'_, ()>,
                _: &mut Outbox<'_, ()>,
            ) -> Option<()> {
                None
            }
        }
        let tree = path(3);
        let ids = Ids::sequential(3);
        let err = run_sync(&tree, &ids, |_| Forever, 5).unwrap_err();
        assert_eq!(
            err,
            RunError::RoundLimitExceeded {
                limit: 5,
                unfinished: 3
            }
        );
        assert!(err.to_string().contains("3 nodes"));
    }

    #[test]
    fn sleeping_forever_still_hits_the_round_limit() {
        // A protocol that never terminates and also never wants to wake:
        // the fast-forward path must land on the budget, not loop or hang.
        struct Dormant;
        impl Protocol for Dormant {
            type Message = ();
            type Output = ();
            fn step(
                &mut self,
                _: &NodeContext,
                _: u64,
                _: &Inbox<'_, ()>,
                _: &mut Outbox<'_, ()>,
            ) -> Option<()> {
                None
            }
            fn next_wake(&self, _: &NodeContext, _: u64) -> u64 {
                u64::MAX
            }
        }
        let tree = path(3);
        let ids = Ids::sequential(3);
        let err = run_sync(&tree, &ids, |_| Dormant, 5).unwrap_err();
        assert_eq!(
            err,
            RunError::RoundLimitExceeded {
                limit: 5,
                unfinished: 3
            }
        );
    }

    #[test]
    fn single_node_graph() {
        let tree = path(1);
        let ids = Ids::sequential(1);
        let out = run_sync(
            &tree,
            &ids,
            |_| EndpointFlood {
                seen: vec![],
                self_is_end: false,
            },
            10,
        )
        .unwrap();
        assert_eq!(out.outputs, vec![0]);
        assert_eq!(out.stats.worst_case(), 0);
    }

    #[test]
    fn message_count_is_tracked() {
        let tree = path(4);
        let ids = Ids::sequential(4);
        let out = run_sync(
            &tree,
            &ids,
            |c| MinFlood {
                best: c.id,
                budget: 3,
            },
            100,
        )
        .unwrap();
        // 6 directed edges * 3 sending rounds = 18 (rounds 0, 1, 2 send).
        assert_eq!(out.messages, 18);
    }

    #[test]
    fn duplicate_port_send_panics() {
        struct DoubleSend;
        impl Protocol for DoubleSend {
            type Message = u8;
            type Output = ();
            fn step(
                &mut self,
                _: &NodeContext,
                _: u64,
                _: &Inbox<'_, u8>,
                outbox: &mut Outbox<'_, u8>,
            ) -> Option<()> {
                outbox.send(0, 1);
                outbox.send(0, 2);
                Some(())
            }
        }
        let tree = path(2);
        let ids = Ids::sequential(2);
        let result = std::panic::catch_unwind(|| run_sync(&tree, &ids, |_| DoubleSend, 5));
        assert!(result.is_err(), "duplicate send must panic");
    }

    #[test]
    fn region_bounds_align_to_chunks() {
        assert_eq!(region_bounds(10, 4, 2), vec![0, 8, 10]);
        assert_eq!(region_bounds(10, 100, 4), vec![0, 10]);
        assert_eq!(region_bounds(1, 1, 8), vec![0, 1]);
        let b = region_bounds(1_000, 16, 3);
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&1_000));
        for w in b.windows(2) {
            assert!(w[0] < w[1]);
            assert!(w[1] == 1_000 || w[1] % 16 == 0);
        }
    }

    #[test]
    fn zero_shards_flag_means_the_monolithic_engine() {
        assert_eq!(ShardConfig::from_flags(0, 2, true), None);
        assert_eq!(
            ShardConfig::from_flags(3, 2, true),
            Some(ShardConfig {
                shards: 3,
                max_resident: 2,
                packing: true,
            })
        );
    }

    #[test]
    fn shard_knobs_list_every_shard_config_field() {
        // Exhaustive: a new `ShardConfig` field stops this compiling until
        // `SHARD_KNOBS` (the `LCL-X05` ground truth) names it too.
        let ShardConfig {
            shards: _,
            max_resident: _,
            packing: _,
        } = ShardConfig::default();
        assert_eq!(SHARD_KNOBS, ["shards", "max_resident", "packing"]);
    }

    #[test]
    fn reverse_edges_are_involutive() {
        let random = lcl_graph::generators::random_bounded_degree_tree(200, 5, 3);
        // Port order follows edge-insertion order: reversed and rotated
        // edge lists put neighbors out of ascending order, so both the
        // degree-2 swap and the sorted reorder of larger degrees run.
        let mut shuffled: Vec<(NodeId, NodeId)> = random.edges().map(|(u, v)| (v, u)).collect();
        shuffled.reverse();
        shuffled.rotate_left(77);
        let backwards: Vec<(NodeId, NodeId)> = (0..59).rev().map(|v| (v + 1, v)).collect();
        for tree in [
            random.clone(),
            Tree::from_edges(200, &shuffled).unwrap(),
            path(60),
            Tree::from_edges(60, &backwards).unwrap(),
            star(40),
            path(1),
        ] {
            let rev = reverse_edges(&tree);
            let offsets = tree.offsets();
            let adjacency = tree.adjacency();
            for v in tree.nodes() {
                for (p, &w) in tree.neighbors(v).iter().enumerate() {
                    let e = offsets[v] as usize + p;
                    let r = rev[e] as usize;
                    // The reverse edge belongs to w and points back at v.
                    assert_eq!(adjacency[r] as usize, v);
                    assert!(r >= offsets[w as usize] as usize);
                    assert!(r < offsets[w as usize + 1] as usize);
                    assert_eq!(rev[r] as usize, e, "involution");
                }
            }
        }
    }

    #[test]
    fn a_two_front_wave_examines_only_its_recipients() {
        // Two tokens cross a 20k path, one node apiece per round. Rounds 0
        // and 1 examine every node (everyone is due), every later round
        // only the two recipients. Scanning the two mailed chunks in full
        // would examine 2 x 1024 nodes per round instead.
        let n = 20_000;
        let tree = path(n);
        let ids = Ids::sequential(n);
        let visits = |threads| {
            let out = run_sync_with(
                &tree,
                &ids,
                |_| EndpointFlood {
                    seen: vec![],
                    self_is_end: false,
                },
                n as u64,
                &EngineConfig {
                    chunk_size: 1024,
                    threads,
                    check_arena: false,
                    shard: None,
                },
            )
            .unwrap();
            assert_eq!(out.stats.worst_case(), (n - 1) as u64);
            out.node_visits
        };
        let expected = (2 * n + 2 * (n - 2)) as u64;
        for threads in [1, 2, 3] {
            assert_eq!(visits(threads), expected, "threads={threads}");
        }
    }

    /// `MinFlood` that marks, per round, whether any step ran off the
    /// thread that called the engine.
    struct Tracked<'a> {
        flood: MinFlood,
        caller: std::thread::ThreadId,
        spawned: &'a AtomicU64,
    }

    impl Protocol for Tracked<'_> {
        type Message = u64;
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeContext,
            round: u64,
            inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<'_, u64>,
        ) -> Option<u64> {
            if std::thread::current().id() != self.caller {
                self.spawned.fetch_or(1 << round, Ordering::Relaxed);
            }
            self.flood.step(ctx, round, inbox, outbox)
        }
    }

    #[test]
    fn dense_rounds_fan_out_and_sparse_rounds_run_inline_identically() {
        // Every chunk is due in rounds 0..=8, so those rounds examine all
        // n >= 2 x AUTO_PARALLEL_MIN_NODES nodes and fan out; afterwards
        // only the first 3000 nodes run on, a few chunks' worth, inline.
        let n = 2 * AUTO_PARALLEL_MIN_NODES + 1000;
        let tree = path(n);
        let ids = Ids::random(n, 11);
        let budget = |v: usize| (if v < 3000 { 24 + v % 17 } else { v % 9 }) as u64;
        let reference = crate::reference_engine::run_reference(
            &tree,
            &ids,
            |c| MinFlood {
                best: c.id,
                budget: budget(c.node),
            },
            100,
        )
        .unwrap();
        let last = reference.stats.worst_case();
        assert!(last < 64, "round marks fit one word");
        let mut baseline: Option<SyncOutcome<u64>> = None;
        for threads in [1, 2, 3] {
            let spawned = AtomicU64::new(0);
            let caller = std::thread::current().id();
            let out = run_sync_with(
                &tree,
                &ids,
                |c| Tracked {
                    flood: MinFlood {
                        best: c.id,
                        budget: budget(c.node),
                    },
                    caller,
                    spawned: &spawned,
                },
                100,
                &EngineConfig {
                    chunk_size: 0,
                    threads,
                    check_arena: true,
                    shard: None,
                },
            )
            .unwrap();
            let spawned = spawned.into_inner();
            if threads == 1 {
                assert_eq!(spawned, 0, "one thread never spawns");
            } else {
                assert_eq!(spawned, (1 << 9) - 1, "t={threads}: rounds 0..=8 fan out");
            }
            assert_eq!(out.outputs, reference.outputs, "t={threads}");
            assert_eq!(out.stats, reference.stats, "t={threads}");
            let Some(base) = &baseline else {
                baseline = Some(out);
                continue;
            };
            assert_eq!(out.outputs, base.outputs, "t={threads}");
            assert_eq!(out.stats, base.stats, "t={threads}");
            assert_eq!(out.messages, base.messages, "t={threads}");
            assert_eq!(out.peak_arena_bytes, base.peak_arena_bytes, "t={threads}");
            assert_eq!(out.node_visits, base.node_visits, "t={threads}");
        }
    }

    /// Silent until `target`, then broadcasts `label` and terminates with
    /// it. With `hint` the sleep is declared via `next_wake`; without it
    /// the node is stepped every round and does nothing — both must yield
    /// identical outcomes.
    pub(crate) struct Sleeper {
        pub(crate) target: u64,
        pub(crate) label: u64,
        pub(crate) hint: bool,
    }

    impl Protocol for Sleeper {
        type Message = u64;
        type Output = u64;
        fn step(
            &mut self,
            _ctx: &NodeContext,
            round: u64,
            _inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<'_, u64>,
        ) -> Option<u64> {
            if round == self.target {
                outbox.broadcast(self.label);
                return Some(self.label);
            }
            None
        }
        fn next_wake(&self, _ctx: &NodeContext, now: u64) -> u64 {
            if self.hint {
                self.target
            } else {
                now
            }
        }
    }

    #[test]
    fn wake_hints_do_not_change_outcomes() {
        let n = 23;
        let tree = path(n);
        let ids = Ids::sequential(n);
        // A spread-out schedule exercising skips, simultaneous wakes, and
        // final-message delivery into sleeping neighbors.
        let target = |v: usize| ((v as u64) * 7 % 19) + (v as u64 % 3) * 11;
        let hinted = run_sync(
            &tree,
            &ids,
            |c| Sleeper {
                target: target(c.node),
                label: c.id,
                hint: true,
            },
            100,
        )
        .unwrap();
        let plain = run_sync(
            &tree,
            &ids,
            |c| Sleeper {
                target: target(c.node),
                label: c.id,
                hint: false,
            },
            100,
        )
        .unwrap();
        assert_eq!(hinted.outputs, plain.outputs);
        assert_eq!(hinted.stats, plain.stats);
        assert_eq!(hinted.messages, plain.messages);
        for chunk_size in [1, 7, 64, n] {
            for threads in [1, 2, 3] {
                let out = run_sync_with(
                    &tree,
                    &ids,
                    |c| Sleeper {
                        target: target(c.node),
                        label: c.id,
                        hint: true,
                    },
                    100,
                    &EngineConfig {
                        chunk_size,
                        threads,
                        check_arena: true,
                        shard: None,
                    },
                )
                .unwrap();
                assert_eq!(out.outputs, plain.outputs, "cs={chunk_size} t={threads}");
                assert_eq!(out.stats, plain.stats, "cs={chunk_size} t={threads}");
            }
        }
    }

    #[test]
    fn declared_sleepers_are_not_stepped() {
        // Panics if the engine steps a node in a round its wake hint (and
        // the absence of mail) said to skip — proving chunk skipping and
        // fast-forward actually happen.
        struct Strict {
            target: u64,
        }
        impl Protocol for Strict {
            type Message = ();
            type Output = u64;
            fn step(
                &mut self,
                _ctx: &NodeContext,
                round: u64,
                _inbox: &Inbox<'_, ()>,
                _outbox: &mut Outbox<'_, ()>,
            ) -> Option<u64> {
                assert!(
                    round == 0 || round == self.target,
                    "stepped while asleep (round {round}, target {})",
                    self.target
                );
                if round == self.target {
                    Some(round)
                } else {
                    None
                }
            }
            fn next_wake(&self, _ctx: &NodeContext, _now: u64) -> u64 {
                self.target
            }
        }
        let n = 5;
        let tree = path(n);
        let ids = Ids::sequential(n);
        // Far-apart targets force fast-forward across long quiet spans.
        let out = run_sync(
            &tree,
            &ids,
            |c| Strict {
                target: 1 + 10_000 * (c.node as u64 + 1),
            },
            100_000,
        )
        .unwrap();
        for v in 0..n {
            let t = 1 + 10_000 * (v as u64 + 1);
            assert_eq!(out.outputs[v], t);
            assert_eq!(out.stats.round(v), t);
        }
        assert_eq!(out.stats.len(), n);
        assert_eq!(out.stats.worst_case(), 1 + 10_000 * n as u64);
    }

    #[test]
    fn mail_wakes_a_sleeping_node_early() {
        // Node 0 pings its neighbor at round 0; every other node sleeps
        // until round 50 but must observe mail the moment it arrives.
        struct PingOnce {
            is_source: bool,
            heard: Option<u64>,
        }
        impl Protocol for PingOnce {
            type Message = u64;
            type Output = u64;
            fn step(
                &mut self,
                _ctx: &NodeContext,
                round: u64,
                inbox: &Inbox<'_, u64>,
                outbox: &mut Outbox<'_, u64>,
            ) -> Option<u64> {
                if round == 0 && self.is_source {
                    outbox.broadcast(round);
                    return Some(0);
                }
                if self.heard.is_none() && !inbox.is_empty() {
                    self.heard = Some(round);
                }
                if round >= 50 {
                    return Some(self.heard.unwrap_or(u64::MAX));
                }
                None
            }
            fn next_wake(&self, _ctx: &NodeContext, _now: u64) -> u64 {
                50
            }
        }
        let tree = path(3);
        let ids = Ids::sequential(3);
        let out = run_sync(
            &tree,
            &ids,
            |c| PingOnce {
                is_source: c.node == 0,
                heard: None,
            },
            100,
        )
        .unwrap();
        // Node 1 hears the ping at round 1 (woken by mail, not its hint);
        // node 2 never hears anything and wakes at 50 on its own.
        assert_eq!(out.outputs, vec![0, 1, u64::MAX]);
        assert_eq!(out.stats.round(1), 50);
    }

    #[test]
    fn mail_can_bring_a_wake_forward() {
        // A relay along a path: each node sleeps until mail, then waits
        // `DELAY` rounds on a wake hint before passing the token on. The
        // hint is set by a frontier visit of a chunk that is not due, so
        // that visit must lower the chunk's wake bound; otherwise the
        // node sleeps through its timer and the run stalls.
        const DELAY: u64 = 3;
        struct Timer {
            fire_at: Option<u64>,
        }
        impl Protocol for Timer {
            type Message = ();
            type Output = u64;
            fn step(
                &mut self,
                ctx: &NodeContext,
                round: u64,
                inbox: &Inbox<'_, ()>,
                outbox: &mut Outbox<'_, ()>,
            ) -> Option<u64> {
                if round == 0 && ctx.node == 0 {
                    outbox.broadcast(());
                    return Some(0);
                }
                if self.fire_at.is_none() && !inbox.is_empty() {
                    self.fire_at = Some(round + DELAY);
                }
                if self.fire_at == Some(round) {
                    outbox.broadcast(());
                    return Some(round);
                }
                None
            }
            fn next_wake(&self, _ctx: &NodeContext, _now: u64) -> u64 {
                self.fire_at.unwrap_or(u64::MAX)
            }
        }
        let n = 10;
        let tree = path(n);
        let ids = Ids::sequential(n);
        let reference =
            crate::reference_engine::run_reference(&tree, &ids, |_| Timer { fire_at: None }, 100)
                .unwrap();
        for v in 0..n {
            assert_eq!(reference.outputs[v], v as u64 * (DELAY + 1), "node {v}");
        }
        for chunk_size in [1, 4, n] {
            for threads in [1, 2] {
                let out = run_sync_with(
                    &tree,
                    &ids,
                    |_| Timer { fire_at: None },
                    100,
                    &EngineConfig {
                        chunk_size,
                        threads,
                        check_arena: true,
                        shard: None,
                    },
                )
                .unwrap();
                assert_eq!(
                    out.outputs, reference.outputs,
                    "cs={chunk_size} t={threads}"
                );
                assert_eq!(out.stats, reference.stats, "cs={chunk_size} t={threads}");
            }
        }
    }

    #[test]
    fn stale_messages_are_not_redelivered() {
        // The sender fires once at round 0 and then sleeps; its arena slot
        // is never rewritten. The receiver steps every round and counts
        // deliveries — the stamp check must make it see the message exactly
        // once (a stale slot would resurface at round 3, 5, ...).
        struct OneShotSender;
        impl Protocol for OneShotSender {
            type Message = u64;
            type Output = u64;
            fn step(
                &mut self,
                _ctx: &NodeContext,
                round: u64,
                _inbox: &Inbox<'_, u64>,
                outbox: &mut Outbox<'_, u64>,
            ) -> Option<u64> {
                if round == 0 {
                    outbox.broadcast(7);
                } else if round == 8 {
                    return Some(0);
                }
                None
            }
            fn next_wake(&self, _ctx: &NodeContext, _now: u64) -> u64 {
                8
            }
        }
        struct Counter {
            seen: u64,
        }
        impl Protocol for Counter {
            type Message = u64;
            type Output = u64;
            fn step(
                &mut self,
                _ctx: &NodeContext,
                round: u64,
                inbox: &Inbox<'_, u64>,
                _outbox: &mut Outbox<'_, u64>,
            ) -> Option<u64> {
                self.seen += inbox.count() as u64;
                assert_eq!(inbox.is_empty(), inbox.count() == 0);
                if round == 8 {
                    return Some(self.seen);
                }
                None
            }
        }
        enum Either {
            Send(OneShotSender),
            Count(Counter),
        }
        impl Protocol for Either {
            type Message = u64;
            type Output = u64;
            fn step(
                &mut self,
                ctx: &NodeContext,
                round: u64,
                inbox: &Inbox<'_, u64>,
                outbox: &mut Outbox<'_, u64>,
            ) -> Option<u64> {
                match self {
                    Either::Send(p) => p.step(ctx, round, inbox, outbox),
                    Either::Count(p) => p.step(ctx, round, inbox, outbox),
                }
            }
            fn next_wake(&self, ctx: &NodeContext, now: u64) -> u64 {
                match self {
                    Either::Send(p) => p.next_wake(ctx, now),
                    Either::Count(p) => p.next_wake(ctx, now),
                }
            }
        }
        let tree = path(2);
        let ids = Ids::sequential(2);
        for chunk_size in [1, 2] {
            let out = run_sync_with(
                &tree,
                &ids,
                |c| {
                    if c.node == 0 {
                        Either::Send(OneShotSender)
                    } else {
                        Either::Count(Counter { seen: 0 })
                    }
                },
                20,
                &EngineConfig {
                    chunk_size,
                    threads: 1,
                    check_arena: true,
                    shard: None,
                },
            )
            .unwrap();
            assert_eq!(out.outputs[1], 1, "cs={chunk_size}: delivered exactly once");
        }
    }

    /// Negative coverage for the arena write-discipline checker: each
    /// invariant violation is injected directly and must be caught. The
    /// positive direction (clean runs stay clean) rides along on every
    /// test above that sets `check_arena: true`.
    mod arena_checker {
        use super::*;

        fn checker_for_path(n: usize, chunk_size: usize) -> ArenaChecker {
            let tree = path(n);
            ArenaChecker::new(tree.offsets(), n, chunk_size, tree.adjacency().len())
        }

        #[test]
        fn normal_rounds_and_stale_slots_are_clean() {
            let ck = checker_for_path(4, 2);
            ck.record_write(0, 0, 0);
            // Round 1 legitimately reads what round 0 wrote.
            ck.record_read(0, 1);
            // Re-writing the same slot in a later same-parity round is the
            // double-buffer reuse the engine lives on.
            ck.record_write(0, 2, 0);
            ck.record_read(0, 3);
            // Stale slots linger (stamps expire them); re-reads much later
            // are fine.
            ck.record_read(0, 5);
        }

        #[test]
        #[should_panic(expected = "arena double-write")]
        fn injected_double_write_is_caught() {
            let ck = checker_for_path(4, 2);
            ck.record_write(0, 5, 0);
            ck.record_write(0, 5, 0);
        }

        #[test]
        #[should_panic(expected = "arena ownership violation")]
        fn injected_foreign_chunk_write_is_caught() {
            let ck = checker_for_path(4, 2);
            // Slot 0 is node 0's, owned by chunk 0; chunk 1 writes it.
            ck.record_write(0, 0, 1);
        }

        #[test]
        #[should_panic(expected = "arena read-before-barrier")]
        fn injected_cross_barrier_read_is_caught() {
            let ck = checker_for_path(4, 2);
            // A worker racing ahead writes round 4 (arena parity 0) while
            // another is still reading round 3 — whose read side is the
            // same parity-0 arena.
            ck.record_write(0, 4, 0);
            ck.record_read(0, 3);
        }

        #[test]
        fn full_matrix_is_race_clean_under_checking() {
            // A chatty protocol (every node broadcasts every round) across
            // the full chunk-size × thread matrix with checking on: the
            // production write path must satisfy all three invariants.
            let n = 96;
            let tree = lcl_graph::generators::star(n);
            let ids = Ids::random(n, 9);
            for chunk_size in [1, 7, 64, n] {
                for threads in [1, 2, 3] {
                    let out = run_sync_with(
                        &tree,
                        &ids,
                        |c| MinFlood {
                            best: c.id,
                            budget: 4,
                        },
                        100,
                        &EngineConfig {
                            chunk_size,
                            threads,
                            check_arena: true,
                            shard: None,
                        },
                    )
                    .unwrap();
                    assert!(out.outputs.iter().all(|&m| m == 0));
                }
            }
        }
    }
}
