//! Engine-level shard differential suite: the sharded executor must be
//! bit-identical to the monolithic chunked engine — outputs, per-node
//! termination rounds, termination profiles, and message counts — across
//! shard counts × residency limits × packing on/off × thread counts.
//!
//! The protocols here are chosen to stress every storage mechanism the
//! sharded executor adds: cross-boundary flooding (halo exchange), wake
//! hints with reactive sleepers (fast-forward interacting with halo
//! staleness), pair messages (multi-word packed slots), unit messages
//! (zero-width presence-only arenas), and width hints (packed arenas
//! narrower than the declared ceiling).

use lcl_graph::generators::{balanced_weight_tree, path, random_bounded_degree_tree, star};
use lcl_graph::Tree;
use lcl_local::engine::{
    run_sync_with, EngineConfig, Inbox, NodeContext, Outbox, Protocol, ShardConfig,
};
use lcl_local::identifiers::Ids;
use lcl_shard::{run_sharded, ShardError};

/// Floods the minimum ID for a fixed budget of rounds, then outputs it.
struct MinFlood {
    best: u64,
    budget: u64,
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
        if round >= self.budget {
            return Some(self.best);
        }
        outbox.broadcast(self.best);
        None
    }

    fn message_bits(&self, ctx: &NodeContext) -> Option<u32> {
        // IDs fit in the ID-space bound; forwarding is covered by the
        // originators' hints.
        Some(64 - (ctx.n as u64 * ctx.n as u64).leading_zeros())
    }
}

/// Reactive endpoint waves with pair messages `(endpoint id, distance)`:
/// sleeps until mail, terminates once waves from both directions arrived
/// (or immediately at endpoints' neighbors on paths of degree <= 2).
struct PairWave {
    seen: [Option<(u64, u64)>; 2],
}

impl Protocol for PairWave {
    type Message = (u64, u64);
    type Output = u64;
    fn step(
        &mut self,
        ctx: &NodeContext,
        round: u64,
        inbox: &Inbox<'_, (u64, u64)>,
        outbox: &mut Outbox<'_, (u64, u64)>,
    ) -> Option<u64> {
        assert!(ctx.degree <= 2, "pair waves run on paths");
        if round == 0 && ctx.degree == 1 {
            outbox.send(0, (ctx.id, 0));
        }
        for (port, &(origin, dist)) in inbox.iter() {
            if self.seen[port].is_none() {
                self.seen[port] = Some((origin, dist));
                let fwd = 1 - port;
                if fwd < ctx.degree {
                    outbox.send(fwd, (origin, dist + 1));
                }
            }
        }
        let needed = ctx.degree;
        let have = self.seen.iter().flatten().count();
        if have >= needed {
            let mut acc = 0u64;
            for s in self.seen.iter().flatten() {
                acc = acc.wrapping_mul(31).wrapping_add(s.0 ^ s.1);
            }
            return Some(acc);
        }
        None
    }

    fn next_wake(&self, _ctx: &NodeContext, _now: u64) -> u64 {
        u64::MAX // sleep until mail
    }
}

/// Wakes at a scheduled round, broadcasts once, and terminates two rounds
/// later; exercises fast-forward over long quiet gaps plus spilled arenas
/// that must survive eviction across the gap.
struct Sleeper {
    target: u64,
    label: u64,
}

impl Protocol for Sleeper {
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
            self.label = self.label.max(m);
        }
        if round < self.target {
            return None;
        }
        if round == self.target {
            outbox.broadcast(self.label);
            return None;
        }
        Some(self.label)
    }

    fn next_wake(&self, _ctx: &NodeContext, now: u64) -> u64 {
        if now < self.target {
            self.target
        } else {
            now + 1
        }
    }

    fn message_bits(&self, _ctx: &NodeContext) -> Option<u32> {
        Some(10)
    }
}

/// Unit messages (zero-width packed arenas): pings all neighbors for two
/// rounds, outputs the number of pings heard.
struct UnitPing {
    heard: u64,
}

impl Protocol for UnitPing {
    type Message = ();
    type Output = u64;
    fn step(
        &mut self,
        _ctx: &NodeContext,
        round: u64,
        inbox: &Inbox<'_, ()>,
        outbox: &mut Outbox<'_, ()>,
    ) -> Option<u64> {
        self.heard += inbox.count() as u64;
        if round >= 2 {
            return Some(self.heard);
        }
        outbox.broadcast(());
        None
    }

    fn message_bits(&self, _ctx: &NodeContext) -> Option<u32> {
        Some(0)
    }
}

/// The differential matrix of the issue's acceptance criteria, at engine
/// level: every (shards, max_resident, packing, threads) cell must agree
/// bit-for-bit with the monolithic engine at the same chunk size.
fn assert_shard_matrix_agrees<P, F>(tree: &Tree, ids: &Ids, factory: F, max_rounds: u64)
where
    P: Protocol,
    P::Message: lcl_local::PackableMessage,
    P::Output: std::fmt::Debug + PartialEq,
    F: Fn(&NodeContext) -> P,
{
    let chunk_size = 4;
    for threads in [1usize, 2] {
        let base = EngineConfig {
            chunk_size,
            threads,
            check_arena: false,
            shard: None,
        };
        let mono = run_sync_with(tree, ids, &factory, max_rounds, &base).unwrap();
        for shards in [1usize, 2, 4, 7] {
            for max_resident in [0usize, 1, 2] {
                for packing in [false, true] {
                    let cfg = EngineConfig {
                        shard: Some(ShardConfig {
                            shards,
                            max_resident,
                            packing,
                        }),
                        ..base.clone()
                    };
                    let sharded = run_sharded(tree, ids, &factory, max_rounds, &cfg)
                        .unwrap_or_else(|e| {
                            panic!("s={shards} r={max_resident} p={packing} t={threads}: {e}")
                        });
                    let tag = format!(
                        "shards={shards} resident={max_resident} \
                         packing={packing} threads={threads}"
                    );
                    assert_eq!(sharded.outputs, mono.outputs, "outputs diverge at {tag}");
                    assert_eq!(sharded.stats, mono.stats, "rounds diverge at {tag}");
                    assert_eq!(sharded.messages, mono.messages, "messages diverge at {tag}");
                    assert!(sharded.peak_arena_bytes > 0 || tree.edge_count() == 0);
                }
            }
        }
    }
}

#[test]
fn min_flood_matches_on_paths_stars_and_random_trees() {
    for (tree, seed) in [
        (path(29), 1u64),
        (star(16), 2),
        (random_bounded_degree_tree(61, 4, 7), 3),
        (balanced_weight_tree(48, 3), 4),
    ] {
        let ids = Ids::random(tree.node_count(), seed);
        assert_shard_matrix_agrees(
            &tree,
            &ids,
            |c| MinFlood {
                best: c.id,
                budget: 11,
            },
            100,
        );
    }
}

#[test]
fn pair_waves_match_on_paths() {
    for n in [1usize, 2, 3, 9, 26, 40] {
        let tree = path(n);
        let ids = Ids::random(n, 5);
        assert_shard_matrix_agrees(&tree, &ids, |_| PairWave { seen: [None; 2] }, 200);
    }
}

#[test]
fn sleepers_match_across_fast_forward_gaps() {
    let tree = random_bounded_degree_tree(57, 3, 11);
    let ids = Ids::random(57, 6);
    assert_shard_matrix_agrees(
        &tree,
        &ids,
        |c| Sleeper {
            // Scatter wakes widely so whole shards sleep, spill, and
            // reload across fast-forwarded gaps.
            target: (c.id % 13) * 17,
            label: c.id % 701,
        },
        1_000,
    );
}

#[test]
fn unit_messages_match_with_zero_width_arenas() {
    let tree = random_bounded_degree_tree(44, 5, 9);
    let ids = Ids::random(44, 7);
    assert_shard_matrix_agrees(&tree, &ids, |_| UnitPing { heard: 0 }, 10);
}

#[test]
fn spilling_reports_a_smaller_peak_than_all_resident() {
    let tree = path(64);
    let ids = Ids::sequential(64);
    let run = |max_resident: usize| {
        let cfg = EngineConfig {
            chunk_size: 4,
            threads: 1,
            check_arena: false,
            shard: Some(ShardConfig {
                shards: 8,
                max_resident,
                packing: true,
            }),
        };
        run_sharded(
            &tree,
            &ids,
            |c| MinFlood {
                best: c.id,
                budget: 70,
            },
            200,
            &cfg,
        )
        .unwrap()
    };
    let all = run(0);
    let spilled = run(2);
    assert_eq!(all.outputs, spilled.outputs);
    assert!(
        spilled.peak_arena_bytes < all.peak_arena_bytes,
        "spilling must lower the arena high-water mark \
         ({} !< {})",
        spilled.peak_arena_bytes,
        all.peak_arena_bytes
    );
}

#[test]
fn packing_reports_a_smaller_peak_than_ceiling_width() {
    let tree = path(64);
    let ids = Ids::sequential(64);
    let run = |packing: bool| {
        let cfg = EngineConfig {
            chunk_size: 8,
            threads: 1,
            check_arena: false,
            shard: Some(ShardConfig {
                shards: 2,
                max_resident: 0,
                packing,
            }),
        };
        run_sharded(
            &tree,
            &ids,
            |c| Sleeper {
                target: c.id % 7,
                label: c.id % 701,
            },
            100,
            &cfg,
        )
        .unwrap()
    };
    let packed = run(true);
    let ceiling = run(false);
    assert_eq!(packed.outputs, ceiling.outputs);
    assert!(
        packed.peak_arena_bytes < ceiling.peak_arena_bytes,
        "10-bit hints must beat the 64-bit ceiling \
         ({} !< {})",
        packed.peak_arena_bytes,
        ceiling.peak_arena_bytes
    );
}

#[test]
fn round_limit_error_matches_the_monolithic_engine() {
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
    let tree = path(10);
    let ids = Ids::sequential(10);
    let cfg = EngineConfig {
        chunk_size: 2,
        threads: 1,
        check_arena: false,
        shard: Some(ShardConfig {
            shards: 3,
            max_resident: 1,
            packing: true,
        }),
    };
    let mono = run_sync_with(&tree, &ids, |_| Forever, 6, &EngineConfig::sequential()).unwrap_err();
    let sharded = run_sharded(&tree, &ids, |_| Forever, 6, &cfg).unwrap_err();
    assert_eq!(sharded, ShardError::Run(mono));
}

#[test]
fn narrow_hint_fails_loudly_instead_of_corrupting() {
    struct Liar;
    impl Protocol for Liar {
        type Message = u64;
        type Output = u64;
        fn step(
            &mut self,
            _ctx: &NodeContext,
            _round: u64,
            _inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<'_, u64>,
        ) -> Option<u64> {
            outbox.broadcast(1 << 40); // needs 41 bits, hints 3
            Some(0)
        }
        fn message_bits(&self, _ctx: &NodeContext) -> Option<u32> {
            Some(3)
        }
    }
    let tree = path(6);
    let ids = Ids::sequential(6);
    let cfg = EngineConfig {
        chunk_size: 2,
        threads: 1,
        check_arena: false,
        shard: Some(ShardConfig {
            shards: 2,
            max_resident: 0,
            packing: true,
        }),
    };
    let result = std::panic::catch_unwind(|| run_sharded(&tree, &ids, |_| Liar, 5, &cfg));
    let err = result.unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("message_bits hint too narrow"),
        "expected the width assert, got: {msg}"
    );
}
