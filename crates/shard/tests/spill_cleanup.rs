//! A sharded run whose protocol panics must still unlink its spill file:
//! the pool is dropped while the panic unwinds. This file is its own test
//! process, so no other run spills beside it and every
//! `lcl-shard-<pid>-*.spill` file in the temp dir belongs to the run
//! under test.

use lcl_graph::generators::path;
use lcl_local::engine::{EngineConfig, Inbox, NodeContext, Outbox, Protocol, ShardConfig};
use lcl_local::identifiers::Ids;
use lcl_shard::run_sharded;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

/// The spill files the run had open when its protocol panicked.
static SEEN: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// This process's spill files in the temp dir.
fn spill_files() -> Vec<PathBuf> {
    let prefix = format!("lcl-shard-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir is readable")
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with(&prefix) && name.ends_with(".spill"))
        })
        .collect()
}

/// Broadcasts every round, and node 0 panics in round 2. Shards step in
/// order with one resident, so by then every shard has been evicted at
/// least once.
struct PanicAfterSpill;

impl Protocol for PanicAfterSpill {
    type Message = u64;
    type Output = u64;
    fn step(
        &mut self,
        ctx: &NodeContext,
        round: u64,
        _inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<'_, u64>,
    ) -> Option<u64> {
        if round == 2 && ctx.node == 0 {
            *SEEN.lock().expect("not poisoned") = spill_files();
            panic!("injected protocol panic");
        }
        outbox.broadcast(round);
        None
    }
}

#[test]
fn a_panicking_sharded_run_leaves_no_spill_file() {
    let tree = path(64);
    let ids = Ids::random(tree.node_count(), 3);
    let config = EngineConfig {
        chunk_size: 8,
        threads: 1,
        check_arena: false,
        shard: Some(ShardConfig {
            shards: 4,
            max_resident: 1,
            packing: true,
        }),
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_sharded(&tree, &ids, |_: &NodeContext| PanicAfterSpill, 100, &config)
    }));
    assert!(run.is_err(), "the protocol panic must propagate");
    let seen = SEEN.lock().expect("not poisoned").clone();
    assert_eq!(seen.len(), 1, "one spill file while the run was live");
    assert!(
        !seen[0].exists(),
        "{} outlived the panic",
        seen[0].display()
    );
    assert_eq!(spill_files(), Vec::<PathBuf>::new());
}
