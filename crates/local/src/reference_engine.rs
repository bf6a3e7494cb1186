//! The frozen pre-chunking engine, kept as a differential-testing oracle.
//!
//! This is the straightforward message-passing executor the chunked engine
//! ([`crate::engine`]) replaced: one sequential pass over the nodes per
//! round, a freshly allocated outbound list per node per round, and
//! push-based delivery through an explicit reverse-port search. It is
//! deliberately naive — the point is maximal implementation distance from
//! the arena/gather machinery under test while sharing only the
//! [`Protocol`] trait, so that agreement between the two engines is strong
//! evidence of correctness.
//!
//! Compiled only for tests or under the `reference-engine` feature; it
//! never ships in release binaries.
//!
//! Semantics match [`crate::engine::run_sync`] exactly for outputs and
//! per-node termination rounds. The diagnostic message count may differ on
//! terminal rounds: this engine counts *deliveries* to nodes that are
//! still alive at the sender's turn (an iteration-order-dependent notion),
//! while the chunked engine counts messages *sent* by running nodes.

use crate::engine::{Inbox, NodeContext, Outbox, Protocol, RunError, SyncOutcome};
use crate::identifiers::Ids;
use crate::metrics::RoundStats;
use lcl_graph::{NodeId, Tree};

/// Runs `factory`'s protocol on every node of `tree` with the frozen
/// sequential engine. See [`crate::engine::run_sync`] for the contract.
///
/// # Errors
///
/// Returns [`RunError::RoundLimitExceeded`] if any node is still running
/// after `max_rounds` rounds.
///
/// # Panics
///
/// Panics if `ids` does not cover all nodes.
pub fn run_reference<P, F>(
    tree: &Tree,
    ids: &Ids,
    mut factory: F,
    max_rounds: u64,
) -> Result<SyncOutcome<P::Output>, RunError>
where
    P: Protocol,
    F: FnMut(&NodeContext) -> P,
{
    let n = tree.node_count();
    assert_eq!(ids.len(), n, "ID assignment must cover all nodes");

    let contexts: Vec<NodeContext> = tree
        .nodes()
        .map(|v| NodeContext {
            node: v,
            id: ids.id(v),
            degree: tree.degree(v),
            n,
        })
        .collect();
    let mut machines: Vec<Option<P>> = contexts.iter().map(|c| Some(factory(c))).collect();
    let mut outputs: Vec<Option<P::Output>> = vec![None; n];
    let mut rounds: Vec<u64> = vec![0; n];
    let mut inboxes: Vec<Vec<(usize, P::Message)>> = vec![Vec::new(); n];
    let mut next_inboxes: Vec<Vec<(usize, P::Message)>> = vec![Vec::new(); n];
    let mut running = n;
    let mut messages: u64 = 0;
    let mut node_visits: u64 = 0;

    // Port of `v` as seen from neighbor `w`: index of v in w's list.
    let reverse_port = |v: NodeId, w: NodeId| -> usize {
        tree.neighbors(w)
            .iter()
            .position(|&x| x as usize == v)
            .unwrap_or_else(|| unreachable!("neighbor lists of a tree are symmetric"))
    };

    let mut round = 0u64;
    while running > 0 {
        if round > max_rounds {
            return Err(RunError::RoundLimitExceeded {
                limit: max_rounds,
                unfinished: running,
            });
        }
        for v in 0..n {
            // The per-node per-round allocation the chunked engine removed;
            // kept here on purpose (`Vec::new` itself does not allocate).
            let mut outbound: Vec<(usize, P::Message)> = Vec::new();
            let decided = {
                let Some(machine) = machines[v].as_mut() else {
                    continue;
                };
                node_visits += 1;
                let inbox = Inbox::list(&inboxes[v]);
                let mut outbox = Outbox::list(&mut outbound, contexts[v].degree);
                machine.step(&contexts[v], round, &inbox, &mut outbox)
            };
            if let Some(output) = decided {
                outputs[v] = Some(output);
                rounds[v] = round;
                machines[v] = None;
                running -= 1;
            }
            for (port, msg) in outbound {
                let w = tree.neighbors(v)[port] as usize;
                // Messages to already-terminated nodes are dropped.
                if machines[w].is_some() {
                    next_inboxes[w].push((reverse_port(v, w), msg));
                    messages += 1;
                }
            }
        }
        for v in 0..n {
            inboxes[v].clear();
            std::mem::swap(&mut inboxes[v], &mut next_inboxes[v]);
        }
        round += 1;
    }

    let outputs: Vec<P::Output> = outputs.into_iter().flatten().collect();
    assert_eq!(
        outputs.len(),
        n,
        "every node has an output once `running` reaches 0"
    );
    Ok(SyncOutcome {
        outputs,
        stats: RoundStats::new(rounds),
        messages,
        // The reference engine keeps per-round message lists, not arenas.
        peak_arena_bytes: 0,
        node_visits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_sync_with, EngineConfig};
    use lcl_graph::generators::{balanced_weight_tree, path, random_bounded_degree_tree, star};

    /// Gossip protocol with heap-allocated messages: every node floods the
    /// set of IDs it has heard of and outputs its final set size once the
    /// set is stable for two rounds. Exercises non-`Copy` message types and
    /// data-dependent termination times.
    struct Gossip {
        known: Vec<u64>,
        stable_for: u32,
    }

    impl Protocol for Gossip {
        type Message = Vec<u64>;
        type Output = u64;
        fn step(
            &mut self,
            _ctx: &NodeContext,
            round: u64,
            inbox: &Inbox<'_, Vec<u64>>,
            outbox: &mut Outbox<'_, Vec<u64>>,
        ) -> Option<u64> {
            let before = self.known.len();
            for (_, msg) in inbox.iter() {
                for &id in msg {
                    if !self.known.contains(&id) {
                        self.known.push(id);
                    }
                }
            }
            self.known.sort_unstable();
            if round > 0 && self.known.len() == before {
                self.stable_for += 1;
            } else {
                self.stable_for = 0;
            }
            if self.stable_for >= 2 {
                return Some(self.known.len() as u64);
            }
            outbox.broadcast(self.known.clone());
            None
        }
    }

    fn gossip_factory(c: &NodeContext) -> Gossip {
        Gossip {
            known: vec![c.id],
            stable_for: 0,
        }
    }

    /// Every tree/protocol pair must produce identical outputs and rounds
    /// from the chunked engine (all chunk sizes/thread counts) and this
    /// reference engine.
    fn assert_engines_agree<P, F>(tree: &Tree, ids: &Ids, factory: F, max_rounds: u64)
    where
        P: Protocol,
        P::Output: std::fmt::Debug + PartialEq,
        F: Fn(&NodeContext) -> P,
    {
        let reference = run_reference(tree, ids, &factory, max_rounds).unwrap();
        let n = tree.node_count();
        for chunk_size in [1, 7, 64, n] {
            for threads in [1, 2] {
                let chunked = run_sync_with(
                    tree,
                    ids,
                    &factory,
                    max_rounds,
                    // Arena checking on: agreement with the reference
                    // engine and write discipline are verified together.
                    &EngineConfig {
                        chunk_size,
                        threads,
                        check_arena: true,
                        shard: None,
                    },
                )
                .unwrap();
                assert_eq!(
                    chunked.outputs, reference.outputs,
                    "outputs diverge at cs={chunk_size} t={threads}"
                );
                assert_eq!(
                    chunked.stats, reference.stats,
                    "rounds diverge at cs={chunk_size} t={threads}"
                );
            }
        }
    }

    #[test]
    fn gossip_agrees_on_paths_stars_and_random_trees() {
        for (tree, seed) in [
            (path(17), 1u64),
            (star(12), 2),
            (random_bounded_degree_tree(60, 4, 7), 3),
            (balanced_weight_tree(48, 3), 4),
        ] {
            let ids = Ids::random(tree.node_count(), seed);
            assert_engines_agree(&tree, &ids, gossip_factory, 1_000);
        }
    }

    #[test]
    fn min_flood_agrees_with_chunked_engine() {
        use crate::engine::tests::MinFlood;
        let tree = random_bounded_degree_tree(80, 3, 11);
        let ids = Ids::random(80, 5);
        assert_engines_agree(
            &tree,
            &ids,
            |c| MinFlood {
                best: c.id,
                budget: 9,
            },
            100,
        );
    }

    #[test]
    fn endpoint_flood_agrees_with_chunked_engine() {
        use crate::engine::tests::EndpointFlood;
        for n in [1usize, 2, 3, 9, 33] {
            let tree = path(n);
            let ids = Ids::sequential(n);
            assert_engines_agree(
                &tree,
                &ids,
                |_| EndpointFlood {
                    seen: vec![],
                    self_is_end: false,
                },
                200,
            );
        }
    }

    #[test]
    fn round_limit_errors_match() {
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
        let tree = path(5);
        let ids = Ids::sequential(5);
        let a = run_reference(&tree, &ids, |_| Forever, 7).unwrap_err();
        let b =
            run_sync_with(&tree, &ids, |_| Forever, 7, &EngineConfig::sequential()).unwrap_err();
        assert_eq!(a, b);
    }
}
