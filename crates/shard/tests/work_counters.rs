//! The engine's work counter through the packed store: `node_visits` is a
//! scheduling fact of the one round loop, so a sharded run must examine
//! exactly the nodes the monolithic engine examines, whatever the shard
//! count, residency limit or thread count.

use lcl_graph::generators::{path, random_bounded_degree_tree};
use lcl_graph::Tree;
use lcl_local::engine::{
    run_sync_with, EngineConfig, Inbox, NodeContext, Outbox, Protocol, ShardConfig,
};
use lcl_local::identifiers::Ids;
use lcl_shard::run_sharded;

/// Leaves start a hop-count token; every node sleeps until mail, relays
/// the first token heard on each port to its other ports, and outputs the
/// farthest hop count once it heard from every side. Rounds after the
/// first step only the recipients, so most rounds run on the mailed-node
/// frontier.
struct Relay {
    heard: Vec<Option<u64>>,
}

impl Protocol for Relay {
    type Message = u64;
    type Output = u64;
    fn step(
        &mut self,
        ctx: &NodeContext,
        round: u64,
        inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<'_, u64>,
    ) -> Option<u64> {
        if round == 0 {
            self.heard = vec![None; ctx.degree];
            if ctx.degree <= 1 {
                outbox.broadcast(1);
            }
        }
        // Ports first heard this round, and the farthest of their hops.
        let (mut fresh, mut from, mut far) = (0, 0, 0);
        for (port, &hops) in inbox.iter() {
            if self.heard[port].is_none() {
                self.heard[port] = Some(hops);
                (fresh, from, far) = (fresh + 1, port, far.max(hops));
            }
        }
        for q in (0..ctx.degree).filter(|&q| fresh > 1 || fresh == 1 && q != from) {
            outbox.send(q, far + 1);
        }
        let all = self.heard.iter().all(Option::is_some);
        all.then(|| self.heard.iter().flatten().copied().max().unwrap_or(0))
    }

    fn next_wake(&self, _ctx: &NodeContext, _now: u64) -> u64 {
        u64::MAX
    }
}

/// Floods the minimum ID for a per-node budget: every node is due every
/// round, so chunks are scanned in full.
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
}

fn assert_sharded_visits_match<P, F>(tree: &Tree, factory: F)
where
    P: Protocol,
    P::Message: lcl_local::PackableMessage,
    P::Output: std::fmt::Debug + PartialEq,
    F: Fn(&NodeContext) -> P,
{
    let ids = Ids::random(tree.node_count(), 3);
    let n = tree.node_count();
    let mono_config = |threads| EngineConfig {
        chunk_size: 8,
        threads,
        check_arena: false,
        shard: None,
    };
    let mono = run_sync_with(tree, &ids, &factory, 10 * n as u64, &mono_config(1)).unwrap();
    assert!(mono.node_visits >= n as u64, "round 0 examines every node");
    for threads in [1usize, 2] {
        let again = run_sync_with(tree, &ids, &factory, 10 * n as u64, &mono_config(threads));
        assert_eq!(
            again.unwrap().node_visits,
            mono.node_visits,
            "threads={threads}"
        );
        for shards in [1usize, 4] {
            for max_resident in [1usize, 0] {
                let config = EngineConfig {
                    shard: Some(ShardConfig {
                        shards,
                        max_resident,
                        packing: true,
                    }),
                    ..mono_config(threads)
                };
                let sharded = run_sharded(tree, &ids, &factory, 10 * n as u64, &config).unwrap();
                let tag = format!("shards={shards} resident={max_resident} threads={threads}");
                assert_eq!(sharded.outputs, mono.outputs, "{tag}");
                assert_eq!(sharded.node_visits, mono.node_visits, "{tag}");
            }
        }
    }
}

#[test]
fn sharded_runs_examine_the_nodes_the_monolithic_engine_examines() {
    for tree in [path(300), random_bounded_degree_tree(200, 4, 5)] {
        assert_sharded_visits_match(&tree, |_| Relay { heard: Vec::new() });
        assert_sharded_visits_match(&tree, |c| MinFlood {
            best: c.id,
            budget: (c.node % 13) as u64,
        });
    }
}
