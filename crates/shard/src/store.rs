//! The packed message store: [`run_sharded`]'s storage behind the
//! engine's one round loop (`lcl_local::engine::run_with_store`).
//!
//! The loop's scheduling is the monolithic engine's, so outputs, per-node
//! termination rounds, termination profiles and message counts are
//! *bit-identical* to `run_sync_with` for every shard count, residency
//! limit, packing mode and thread count (the shard differential suite
//! pins this). What differs is storage, and it is all here:
//!
//! - Message slots live in per-shard bit-packed arenas ([`PackedArena`])
//!   instead of `Option<(u32, M)>` slots. The slot arenas' delivery-round
//!   stamps become per-chunk *round stamps*: opening a chunk zeroes its
//!   write-parity presence words and stamps the round, so a presence bit
//!   proves the message was written in the round the owning chunk's stamp
//!   records, and a read is valid exactly when that stamp is the previous
//!   round — the predicate the per-slot stamps encode.
//! - Every shard is one pass. At most `max_resident` shard arena sets
//!   stay in memory; entering a pass reloads its shard, evicting the
//!   least recently used one to a per-run [`SpillPool`]. Halo buffers
//!   stay resident.
//! - A message crossing a shard boundary is mirrored into the destination
//!   shard's halo buffer by [`capture_halos`] when the source shard's
//!   pass ends, *before* the source can be evicted, so a pass never
//!   touches a non-resident arena. Capture mirrors every cut slot of
//!   every chunk stepped in the pass, present or not, so the writer
//!   chunk's stamp validates halo slots exactly as it validates arena
//!   slots.
//!
//! The per-round functions (`PackedRegion`'s methods and
//! [`capture_halos`]) neither allocate nor perform I/O: arenas, halo
//! buffers, decode scratch and the spill file are set up at run start
//! (`lcl analyze` keeps this lexical).

use crate::arena::{
    get_bits, is_present, set_bits, set_present, ArenaLayout, HaloBuffers, PackedArena,
};
use crate::partition::{ShardInfo, ShardPlan};
use crate::pool::SpillPool;
use lcl_graph::Tree;
use lcl_local::engine::{
    run_with_store, Csr, EngineConfig, Inbox, MessageStore, NodeContext, Outbox, Protocol,
    RunError, ShardConfig, StoreRegion, StoreSetup, SyncOutcome,
};
use lcl_local::identifiers::Ids;
use lcl_local::packed::PackableMessage;
use std::error::Error;
use std::fmt;

/// Errors from [`run_sharded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The protocol run itself failed (same cases as the monolithic
    /// engine).
    Run(RunError),
    /// The spill pool hit an I/O error (message only: `io::Error` is
    /// neither `Clone` nor `Eq`).
    Io(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Run(e) => e.fmt(f),
            ShardError::Io(msg) => write!(f, "shard spill pool I/O error: {msg}"),
        }
    }
}

impl Error for ShardError {}

impl From<RunError> for ShardError {
    fn from(e: RunError) -> Self {
        ShardError::Run(e)
    }
}

fn io_err(e: std::io::Error) -> ShardError {
    ShardError::Io(e.to_string())
}

/// Arena parity written in `round` (even rounds write parity 0).
fn parity(round: u64) -> usize {
    (round % 2) as usize
}

/// Per-worker decode/encode scratch, preallocated to the maximum degree so
/// a round never reallocates. Cache-line aligned: every step rewrites the
/// vectors' lengths, and two workers' scratches sharing a line would
/// contend on it.
#[repr(align(64))]
struct Scratch<M> {
    inbox: Vec<(usize, M)>,
    outbox: Vec<(usize, M)>,
}

/// Pushes into a scratch vector preallocated to its maximum fill; the
/// capacity check makes the no-allocation contract dynamic.
fn push_preallocated<T>(buf: &mut Vec<T>, item: T) {
    debug_assert!(
        buf.len() < buf.capacity(),
        "scratch must be preallocated to the maximum degree"
    );
    buf.push(item);
}

/// LRU residency manager over the per-shard packed arenas, with spill to
/// a per-run pool when the residency limit forces evictions.
struct Residency {
    resident: Vec<Option<PackedArena>>,
    /// Resident shards, least recently used first.
    lru: Vec<usize>,
    max_resident: usize,
    pool: Option<SpillPool>,
    shard_bytes: Vec<u64>,
    current_bytes: u64,
    peak_bytes: u64,
}

impl Residency {
    fn ensure(&mut self, s: usize, layouts: &[ArenaLayout]) -> Result<(), ShardError> {
        if self.resident[s].is_some() {
            if let Some(pos) = self.lru.iter().position(|&x| x == s) {
                self.lru.remove(pos);
            }
            self.lru.push(s);
            return Ok(());
        }
        while self.lru.len() >= self.max_resident {
            let victim = self.lru.remove(0);
            let Some(buf) = self.resident[victim].take() else {
                unreachable!("the LRU list tracks resident shards")
            };
            let Some(pool) = self.pool.as_mut() else {
                unreachable!("a spill pool exists whenever evictions can happen")
            };
            pool.write(
                victim,
                &[
                    &buf.packed[0],
                    &buf.packed[1],
                    &buf.present[0],
                    &buf.present[1],
                ],
            )
            .map_err(io_err)?;
            self.current_bytes -= self.shard_bytes[victim];
        }
        let mut buf = PackedArena::zeroed(&layouts[s]);
        if let Some(pool) = self.pool.as_mut() {
            if pool.is_valid(s) {
                let [p0, p1] = &mut buf.packed;
                let [q0, q1] = &mut buf.present;
                pool.read(s, &mut [p0, p1, q0, q1]).map_err(io_err)?;
            }
        }
        self.resident[s] = Some(buf);
        self.lru.push(s);
        self.current_bytes += self.shard_bytes[s];
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
        Ok(())
    }
}

/// The packed store of one sharded run.
struct PackedStore<M> {
    plan: ShardPlan,
    layouts: Vec<ArenaLayout>,
    chunk_size: usize,
    residency: Residency,
    halos: Vec<HaloBuffers>,
    /// Per-chunk round stamps by arena parity: the round in which the
    /// chunk's write-parity presence words were last rewritten.
    stamps: [Vec<u64>; 2],
    /// One scratch per worker region.
    scratches: Vec<Scratch<M>>,
}

impl<M: PackableMessage> PackedStore<M> {
    fn new<P>(setup: &StoreSetup<'_, P>, config: &ShardConfig) -> Result<Self, ShardError>
    where
        P: Protocol<Message = M>,
    {
        // Arena width: the maximum `message_bits` hint when packing is on
        // and every node hints; the message type's declared ceiling
        // otherwise.
        assert!(
            M::CEIL_BITS <= 128,
            "PackableMessage ceilings are capped at 128 bits"
        );
        let hinted = if config.packing {
            setup
                .machines
                .iter()
                .zip(setup.contexts)
                .map(|(m, ctx)| m.as_ref().and_then(|machine| machine.message_bits(ctx)))
                .try_fold(0u32, |max, bits| bits.map(|b| max.max(b)))
        } else {
            None
        };
        let width = hinted.map_or(M::CEIL_BITS, |b| b.min(M::CEIL_BITS));

        let chunk_size = setup.chunk_size;
        let plan = ShardPlan::new(
            setup.tree,
            chunk_size,
            config.resolved_shards(),
            setup.csr.rev,
        );
        // Clamped to the plan's actual shard count, which can be lower
        // than the requested one.
        let shard_count = plan.shard_count();
        let max_resident = if config.max_resident == 0 {
            shard_count
        } else {
            config.max_resident.clamp(1, shard_count)
        };
        let layouts: Vec<ArenaLayout> = plan
            .shards
            .iter()
            .map(|s| ArenaLayout::new(&s.chunks, width))
            .collect();
        let halos = plan
            .shards
            .iter()
            .map(|s| HaloBuffers::zeroed(s.halo_edges.len(), width))
            .collect();
        let shard_bytes: Vec<u64> = layouts.iter().map(ArenaLayout::bytes).collect();
        let pool = if max_resident < shard_count {
            Some(SpillPool::create(&shard_bytes).map_err(io_err)?)
        } else {
            None
        };
        let chunk_count = setup.contexts.len().div_ceil(chunk_size);
        let max_degree = setup.tree.max_degree();
        Ok(PackedStore {
            chunk_size,
            residency: Residency {
                resident: (0..shard_count).map(|_| None).collect(),
                lru: Vec::with_capacity(shard_count),
                max_resident,
                pool,
                shard_bytes,
                current_bytes: 0,
                peak_bytes: 0,
            },
            halos,
            stamps: [vec![u64::MAX; chunk_count], vec![u64::MAX; chunk_count]],
            scratches: (0..setup.workers)
                .map(|_| Scratch {
                    inbox: Vec::with_capacity(max_degree),
                    outbox: Vec::with_capacity(max_degree),
                })
                .collect(),
            plan,
            layouts,
        })
    }
}

impl<M: PackableMessage + Clone + Send + Sync> MessageStore<M> for PackedStore<M> {
    type Error = ShardError;
    type Region<'a>
        = PackedRegion<'a, M>
    where
        Self: 'a;

    fn passes(&self) -> &[usize] {
        &self.plan.bounds
    }

    fn regions<'a>(
        &'a mut self,
        csr: Csr<'a>,
        pass: usize,
        round: u64,
        bounds: &'a [usize],
    ) -> Result<impl Iterator<Item = PackedRegion<'a, M>>, ShardError> {
        self.residency.ensure(pass, &self.layouts)?;
        let (wp, rp) = (parity(round), parity(round + 1));
        let shard = &self.plan.shards[pass];
        let layout = &self.layouts[pass];
        let chunk_size = self.chunk_size;
        let Some(arena) = self.residency.resident[pass].as_mut() else {
            unreachable!("ensure made shard {pass} resident")
        };
        let (mut words_w, mut pres_w, packed_r, pres_r) = arena.parity_mut(wp);
        let [stamps_0, stamps_1] = &mut self.stamps;
        let (stamps_w, stamp_r): (&mut [u64], &[u64]) = if wp == 0 {
            (stamps_0, stamps_1)
        } else {
            (stamps_1, stamps_0)
        };
        let mut stamp_w = &mut stamps_w[shard.first_chunk..shard.first_chunk + shard.chunks.len()];
        let halo = &self.halos[pass];
        let read = PassRead {
            csr,
            round,
            chunk_size,
            shard,
            layout,
            packed_r,
            pres_r,
            stamp_r,
            halo_packed_r: &halo.packed[rp],
            halo_pres_r: &halo.present[rp],
        };
        let mut scratches = self.scratches.iter_mut();
        Ok(bounds.windows(2).map(move |w| {
            let c0 = w[0] / chunk_size - shard.first_chunk;
            let c1 = w[1].div_ceil(chunk_size) - shard.first_chunk;
            let words = layout.word_span(c0, c1);
            let pres = layout.pres_span(c0, c1);
            let (st, st_rest) = std::mem::take(&mut stamp_w).split_at_mut(c1 - c0);
            stamp_w = st_rest;
            let (ww, ww_rest) = std::mem::take(&mut words_w).split_at_mut(words.len());
            words_w = ww_rest;
            let (pw, pw_rest) = std::mem::take(&mut pres_w).split_at_mut(pres.len());
            pres_w = pw_rest;
            let Some(scratch) = scratches.next() else {
                unreachable!("one scratch per worker region")
            };
            PackedRegion {
                read,
                first_chunk: w[0] / chunk_size,
                stamp_w: st,
                words_w: ww,
                pres_w: pw,
                word_off: words.start,
                pres_off: pres.start,
                open: OpenChunk::default(),
                scratch,
            }
        }))
    }

    fn end_pass(&mut self, pass: usize, round: u64) {
        // Mirror the pass's boundary-crossing messages while the shard is
        // guaranteed resident.
        let wp = parity(round);
        let Some(arena) = self.residency.resident[pass].as_ref() else {
            unreachable!("a pass does not evict its own shard")
        };
        capture_halos(
            &self.plan.shards[pass],
            &self.layouts[pass],
            &arena.packed[wp],
            &arena.present[wp],
            &self.stamps[wp],
            round,
            &mut self.halos,
        );
    }

    fn peak_bytes(&self) -> u64 {
        let halo_bytes: u64 = self.halos.iter().map(HaloBuffers::bytes).sum();
        self.residency.peak_bytes + halo_bytes
    }
}

/// Round-constant read side of one shard pass, copied into each of its
/// worker regions.
#[derive(Clone, Copy)]
struct PassRead<'a> {
    csr: Csr<'a>,
    round: u64,
    chunk_size: usize,
    shard: &'a ShardInfo,
    layout: &'a ArenaLayout,
    /// Read-parity packed/presence words of the shard's arena.
    packed_r: &'a [u64],
    pres_r: &'a [u64],
    /// Global per-chunk round stamps, read parity.
    stamp_r: &'a [u64],
    /// Read-parity packed/presence words of the shard's halo.
    halo_packed_r: &'a [u64],
    halo_pres_r: &'a [u64],
}

/// The chunk being stepped: its first slot and its word ranges within the
/// region's write slices.
#[derive(Clone, Copy, Default)]
struct OpenChunk {
    slot_base: usize,
    words: (usize, usize),
    pres: (usize, usize),
}

/// One worker region of a shard pass: a chunk-aligned node range with the
/// matching write-parity words.
struct PackedRegion<'a, M> {
    read: PassRead<'a>,
    /// Global index of the region's first chunk.
    first_chunk: usize,
    /// Write-parity round stamps of the region's chunks.
    stamp_w: &'a mut [u64],
    /// Write-parity packed/presence words of the region's chunks.
    words_w: &'a mut [u64],
    pres_w: &'a mut [u64],
    /// Word offsets of `words_w`/`pres_w` within the shard arena.
    word_off: usize,
    pres_off: usize,
    open: OpenChunk,
    scratch: &'a mut Scratch<M>,
}

impl<M: PackableMessage + Clone + Send + Sync> StoreRegion<M> for PackedRegion<'_, M> {
    fn open_chunk(&mut self, chunk: usize) {
        let crel = chunk - self.read.shard.first_chunk;
        let words = self.read.layout.word_range(crel);
        let pres = self.read.layout.pres_range(crel);
        self.open = OpenChunk {
            slot_base: self.read.shard.chunks[crel].slot_base,
            words: (words.start - self.word_off, words.end - self.word_off),
            pres: (pres.start - self.pres_off, pres.end - self.pres_off),
        };
        // Stepping a chunk invalidates its previous write-parity contents
        // wholesale (the slot arenas expire stale slots lazily instead;
        // same observable).
        for w in &mut self.pres_w[self.open.pres.0..self.open.pres.1] {
            *w = 0;
        }
        self.stamp_w[chunk - self.first_chunk] = self.read.round;
    }

    fn stage(&mut self, base: usize, degree: usize, due: bool) -> bool {
        // Decode this round's valid incoming messages. A slot, in the
        // shard's arena or in its halo, is valid iff the writer's chunk
        // was stepped exactly last round and the presence bit survived —
        // the packed equivalent of the slot arenas' `stamp == round`.
        let r = &self.read;
        let inbox = &mut self.scratch.inbox;
        inbox.clear();
        for p in 0..degree {
            let e = base + p;
            let w = r.csr.adjacency[e] as usize;
            let wc = w / r.chunk_size;
            if r.round == 0 || r.stamp_r[wc] != r.round - 1 {
                continue;
            }
            let (packed, present, slot) = if w >= r.shard.lo && w < r.shard.hi {
                let wrel = wc - r.shard.first_chunk;
                (
                    &r.packed_r[r.layout.word_range(wrel)],
                    &r.pres_r[r.layout.pres_range(wrel)],
                    r.csr.rev[e] as usize - r.shard.chunks[wrel].slot_base,
                )
            } else {
                (r.halo_packed_r, r.halo_pres_r, r.shard.halo_index(e as u32))
            };
            if is_present(present, slot) {
                let width = r.layout.width;
                let bits = get_bits(packed, slot * width as usize, width);
                push_preallocated(inbox, (p, M::unpack(bits)));
            }
        }
        due || !inbox.is_empty()
    }

    fn io(&mut self, _base: usize, degree: usize) -> (Inbox<'_, M>, Outbox<'_, M>) {
        let Scratch { inbox, outbox } = &mut *self.scratch;
        outbox.clear();
        (Inbox::list(inbox), Outbox::list(outbox, degree))
    }

    fn commit(&mut self, base: usize, _degree: usize, mut sent: impl FnMut(usize)) {
        let width = self.read.layout.width;
        let words = &mut self.words_w[self.open.words.0..self.open.words.1];
        let pres = &mut self.pres_w[self.open.pres.0..self.open.pres.1];
        for (p, msg) in &self.scratch.outbox {
            let srel = base + p - self.open.slot_base;
            set_present(pres, srel);
            let bits = msg.pack();
            let need = 128 - bits.leading_zeros();
            assert!(
                need <= width,
                "message_bits hint too narrow: a packed message needs \
                 {need} bits but the arena width is {width}"
            );
            set_bits(words, srel * width as usize, width, bits);
            sent(*p);
        }
    }
}

/// Mirrors this round's boundary-crossing messages of shard `src` into
/// the destination shards' halo buffers (the round's write parity). Runs
/// on the main thread at the end of the shard's pass, before any eviction.
fn capture_halos(
    src: &ShardInfo,
    layout: &ArenaLayout,
    packed_w: &[u64],
    pres_w: &[u64],
    stamp_w: &[u64],
    round: u64,
    halos: &mut [HaloBuffers],
) {
    let (width, wp) = (layout.width, parity(round));
    for route in &src.outgoing {
        let gc = src.first_chunk + route.chunk_rel;
        // Only chunks stepped this round hold fresh write-parity data;
        // readers reject the other chunks' halo slots by their stamps.
        if stamp_w[gc] != round {
            continue;
        }
        let pr = layout.pres_range(route.chunk_rel);
        let wr = layout.word_range(route.chunk_rel);
        let bits = is_present(&pres_w[pr], route.slot_rel)
            .then(|| get_bits(&packed_w[wr], route.slot_rel * width as usize, width));
        halos[route.dest_shard].put(wp, route.dest_halo, bits);
    }
}

/// Runs `factory`'s protocol on every node of `tree` on the engine's round
/// loop over the packed store. Same contract as
/// [`run_sync_with`](lcl_local::engine::run_sync_with), whose outcome this
/// function reproduces bit-identically (outputs, per-node rounds,
/// termination profile, message count) for every [`ShardConfig`];
/// [`SyncOutcome::peak_arena_bytes`] reports the sharded high-water mark
/// instead of the monolithic two-full-arena figure.
///
/// The shard geometry comes from `config.shard` (a missing config means
/// one shard, everything resident — the monolithic layout, but through
/// the packed store).
///
/// # Errors
///
/// [`ShardError::Run`] on protocol-level failure (round limit), exactly
/// when the monolithic engine fails; [`ShardError::Io`] if the spill pool
/// hits an I/O error.
///
/// # Panics
///
/// Panics if `ids` does not cover all nodes, if a worker thread panics,
/// or if a `message_bits` hint is narrower than an actual packed message.
pub fn run_sharded<P, F>(
    tree: &Tree,
    ids: &Ids,
    factory: F,
    max_rounds: u64,
    config: &EngineConfig,
) -> Result<SyncOutcome<P::Output>, ShardError>
where
    P: Protocol,
    P::Message: PackableMessage,
    F: FnMut(&NodeContext) -> P,
{
    let shard = config.shard.clone().unwrap_or_default();
    run_with_store(tree, ids, factory, max_rounds, config, |setup| {
        PackedStore::new(setup, &shard)
    })
}
