//! Shard partitioning: contiguous node-range shards over the CSR, cut-edge
//! discovery, and the precomputed halo routing tables.
//!
//! A [`ShardPlan`] is pure geometry: it depends on the tree, the chunk
//! size, and the requested shard count — never on the message type or the
//! arena width. Shard boundaries align to scheduling-chunk boundaries
//! (via [`region_bounds`]), so the monolithic engine's chunk-granular
//! scheduling state (mail flags, chunk wakes) maps one-to-one onto shards
//! and the intra-shard worker split can reuse the same cut points.
//!
//! Two derived tables drive the halo exchange:
//!
//! - [`ShardInfo::halo_edges`]: for each shard, the sorted global indices
//!   of its *reading* cut edges — directed edges `v -> w` with `v` inside
//!   the shard and `w` outside. Slot `i` of the shard's halo buffer mirrors
//!   `halo_edges[i]`.
//! - [`ShardInfo::outgoing`]: for each shard, one [`HaloRoute`] per cut
//!   edge whose *write slot* lives in this shard, locating the slot inside
//!   the shard's packed arena (chunk + offset) and naming the destination
//!   halo slot. Captured into the destination's halo buffer at the end of
//!   the source shard's pass, before the source can be evicted.

use lcl_graph::Tree;
use lcl_local::engine::region_bounds;

/// One scheduling chunk of a shard: its directed-edge slot range in the
/// global CSR.
#[derive(Debug, Clone)]
pub struct ChunkMeta {
    /// Global CSR index of the chunk's first directed-edge slot.
    pub slot_base: usize,
    /// Number of directed-edge slots owned by the chunk's nodes.
    pub slots: usize,
}

/// One cut-edge capture route: where in the source shard's write arena the
/// message sits, and which halo slot of which destination shard mirrors it.
#[derive(Debug, Clone)]
pub struct HaloRoute {
    /// Chunk index *within the source shard* owning the write slot.
    pub chunk_rel: usize,
    /// Slot offset within that chunk's slot range.
    pub slot_rel: usize,
    /// Destination shard (the reader's shard; never the source shard).
    pub dest_shard: usize,
    /// Index into the destination shard's halo buffer.
    pub dest_halo: usize,
}

/// One contiguous node-range shard.
#[derive(Debug, Clone)]
pub struct ShardInfo {
    /// First node (global index, chunk-aligned).
    pub lo: usize,
    /// One past the last node (global index).
    pub hi: usize,
    /// Global index of the shard's first scheduling chunk.
    pub first_chunk: usize,
    /// The shard's chunks, in node order.
    pub chunks: Vec<ChunkMeta>,
    /// Sorted global indices of the shard's reading cut edges
    /// (`v -> w`, `v` in shard, `w` outside). Halo slot `i` mirrors the
    /// message arriving over `halo_edges[i]`.
    pub halo_edges: Vec<u32>,
    /// Capture routes for cut messages *written* by this shard.
    pub outgoing: Vec<HaloRoute>,
}

impl ShardInfo {
    /// Halo slot index of reading cut edge `e` (a global CSR index).
    ///
    /// # Panics
    ///
    /// Panics if `e` is not one of this shard's cut edges.
    #[must_use]
    pub fn halo_index(&self, e: u32) -> usize {
        self.halo_edges
            .binary_search(&e)
            .unwrap_or_else(|_| unreachable!("edge {e} is not a cut edge of this shard"))
    }
}

/// The complete, width-independent shard geometry of one run.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Number of nodes in the tree.
    pub n: usize,
    /// Scheduling chunk size (resolved, non-zero).
    pub chunk_size: usize,
    /// Shard cut points: `shards.len() + 1` node indices starting at `0`
    /// and ending at `n`, every internal cut on a chunk boundary.
    pub bounds: Vec<usize>,
    /// The shards, in node order.
    pub shards: Vec<ShardInfo>,
}

impl ShardPlan {
    /// Partitions `tree` into at most `shards` contiguous node-range
    /// shards of whole chunks. Fewer shards are produced when the tree has
    /// fewer chunks than requested. `rev` is the reverse-edge permutation
    /// from [`lcl_local::engine::reverse_edges`].
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` or `shards` is zero, or if `rev` does not
    /// match the tree's CSR.
    #[must_use]
    pub fn new(tree: &Tree, chunk_size: usize, shards: usize, rev: &[u32]) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        assert!(shards > 0, "shard count must be positive");
        let n = tree.node_count();
        let offsets = tree.offsets();
        let adjacency = tree.adjacency();
        assert_eq!(rev.len(), adjacency.len(), "rev must cover every slot");

        let bounds = region_bounds(n, chunk_size, shards);
        let mut infos: Vec<ShardInfo> = bounds
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0], w[1]);
                let chunks = (lo..hi)
                    .step_by(chunk_size)
                    .map(|node_lo| {
                        let node_hi = (node_lo + chunk_size).min(hi);
                        ChunkMeta {
                            slot_base: offsets[node_lo] as usize,
                            slots: (offsets[node_hi] - offsets[node_lo]) as usize,
                        }
                    })
                    .collect();
                let halo_edges = (lo..hi)
                    .flat_map(|v| {
                        let base = offsets[v] as usize;
                        tree.neighbors(v)
                            .iter()
                            .enumerate()
                            .filter_map(move |(p, &w)| {
                                let outside = (w as usize) < lo || (w as usize) >= hi;
                                outside.then_some((base + p) as u32)
                            })
                    })
                    .collect();
                ShardInfo {
                    lo,
                    hi,
                    first_chunk: lo / chunk_size,
                    chunks,
                    halo_edges,
                    outgoing: Vec::new(),
                }
            })
            .collect();

        let plan_bounds = bounds.clone();
        let shard_of = |v: usize| -> usize {
            // First cut strictly above v, minus one: v's shard.
            plan_bounds.partition_point(|&b| b <= v) - 1
        };

        // Invert the halo lists into capture routes on the writer side:
        // reading cut edge `e` of shard `dest` is fed by write slot
        // `rev[e]`, owned by the reader's neighbor `adjacency[e]`.
        let mut outgoing: Vec<Vec<HaloRoute>> = vec![Vec::new(); infos.len()];
        for (dest, info) in infos.iter().enumerate() {
            for (dest_halo, &e) in info.halo_edges.iter().enumerate() {
                let writer = adjacency[e as usize] as usize;
                let slot = rev[e as usize] as usize;
                let src = shard_of(writer);
                debug_assert_ne!(src, dest, "cut edges cross shard boundaries");
                let chunk_rel = writer / chunk_size - infos[src].first_chunk;
                let slot_rel = slot - infos[src].chunks[chunk_rel].slot_base;
                outgoing[src].push(HaloRoute {
                    chunk_rel,
                    slot_rel,
                    dest_shard: dest,
                    dest_halo,
                });
            }
        }
        for (info, routes) in infos.iter_mut().zip(outgoing) {
            info.outgoing = routes;
        }

        ShardPlan {
            n,
            chunk_size,
            bounds,
            shards: infos,
        }
    }

    /// Number of shards actually produced.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn shard_of(&self, v: usize) -> usize {
        assert!(v < self.n, "node {v} out of range");
        self.bounds.partition_point(|&b| b <= v) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::generators::{path, random_bounded_degree_tree, star};
    use lcl_local::engine::reverse_edges;

    fn plan_for(tree: &Tree, chunk_size: usize, shards: usize) -> ShardPlan {
        let rev = reverse_edges(tree);
        ShardPlan::new(tree, chunk_size, shards, &rev)
    }

    #[test]
    fn shards_tile_the_node_range() {
        for (n, cs, s) in [(1usize, 1, 1), (10, 3, 4), (10, 3, 99), (64, 8, 3)] {
            let tree = path(n);
            let plan = plan_for(&tree, cs, s);
            assert_eq!(plan.bounds.first(), Some(&0));
            assert_eq!(plan.bounds.last(), Some(&n));
            let mut covered = 0;
            for (i, info) in plan.shards.iter().enumerate() {
                assert_eq!(info.lo, covered, "shard {i} starts where the last ended");
                assert!(info.hi > info.lo, "no empty shards");
                assert_eq!(info.lo % cs, 0, "shard boundaries align to chunks");
                covered = info.hi;
                for v in info.lo..info.hi {
                    assert_eq!(plan.shard_of(v), i);
                }
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn halo_edges_are_exactly_the_cut_edges() {
        let tree = random_bounded_degree_tree(70, 4, 3);
        let plan = plan_for(&tree, 4, 5);
        let offsets = tree.offsets();
        for info in &plan.shards {
            let mut expected: Vec<u32> = Vec::new();
            for (i, &base) in offsets[info.lo..info.hi].iter().enumerate() {
                for (p, &w) in tree.neighbors(info.lo + i).iter().enumerate() {
                    if (w as usize) < info.lo || (w as usize) >= info.hi {
                        expected.push(base + p as u32);
                    }
                }
            }
            assert_eq!(info.halo_edges, expected);
            assert!(info.halo_edges.windows(2).all(|w| w[0] < w[1]), "sorted");
            for (i, &e) in info.halo_edges.iter().enumerate() {
                assert_eq!(info.halo_index(e), i);
            }
        }
    }

    #[test]
    fn outgoing_routes_invert_the_halo_lists() {
        let tree = star(23);
        let rev = reverse_edges(&tree);
        let plan = ShardPlan::new(&tree, 4, 4, &rev);
        let offsets = tree.offsets();
        // Every halo slot of every shard is fed by exactly one route.
        let mut fed: Vec<Vec<bool>> = plan
            .shards
            .iter()
            .map(|s| vec![false; s.halo_edges.len()])
            .collect();
        for (src, info) in plan.shards.iter().enumerate() {
            for route in &info.outgoing {
                assert_ne!(route.dest_shard, src);
                let dest = &plan.shards[route.dest_shard];
                let e = dest.halo_edges[route.dest_halo] as usize;
                // The route's slot is the reverse edge of the halo's
                // reading edge, located inside the source shard.
                let cm = &info.chunks[route.chunk_rel];
                let slot = cm.slot_base + route.slot_rel;
                assert_eq!(slot, rev[e] as usize);
                let writer = tree.adjacency()[e] as usize;
                assert!(writer >= info.lo && writer < info.hi);
                assert!(slot >= offsets[writer] as usize);
                assert!(slot < offsets[writer + 1] as usize);
                assert!(!fed[route.dest_shard][route.dest_halo], "one writer");
                fed[route.dest_shard][route.dest_halo] = true;
            }
        }
        assert!(fed.iter().flatten().all(|&b| b), "every halo slot is fed");
    }

    #[test]
    fn single_shard_has_no_halo() {
        let tree = path(50);
        let plan = plan_for(&tree, 8, 1);
        assert_eq!(plan.shard_count(), 1);
        assert!(plan.shards[0].halo_edges.is_empty());
        assert!(plan.shards[0].outgoing.is_empty());
    }
}
