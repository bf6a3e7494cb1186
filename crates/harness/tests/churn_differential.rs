//! Differential suite for dynamic-tree churn workloads.
//!
//! For every registry solver, a [`DynamicSession`] steps through churn
//! scripts on a solver-appropriate base instance, and after *every* batch
//! the session's (incrementally spliced where the solver is local)
//! labeling must be bit-identical — labels *and* per-node rounds — to a
//! from-scratch re-solve of the current tree under the same session
//! scope. The sweep covers the three preset script mixes, 8 seeds, chunk
//! sizes `{1, 7, 64, n}`, and 1–2 worker threads, with the arena checker
//! on throughout. Zero divergence is the acceptance bar.
//!
//! Sessions are deterministic given `(script, seed)`, so the suite also
//! demands that all chunk-size/thread variants of one session agree with
//! each other batch-by-batch — chunk invariance must survive the
//! dirty-region path, not just whole-tree runs.

use lcl_core::churn::ChurnScript;
use lcl_graph::generators::{
    broom, caterpillar, complete_ary_tree, heavy_path_skewed, ladder, spider,
};
use lcl_harness::{resolver, DynamicSession, InstanceSpec, RunConfig};
use lcl_local::engine::{EngineConfig, ShardConfig};

/// The preset mixes, trimmed to a volume the full sweep can afford.
fn scripts() -> Vec<ChurnScript> {
    ChurnScript::presets()
        .into_iter()
        .map(|s| s.with_volume(2, 10))
        .collect()
}

/// A churn-appropriate base instance per solver: plain-tree solvers get
/// genuine surgery (paths large enough that the local solvers' radius-
/// `2T + 1` region is a strict subset, adversarial shapes for the
/// free-tree solvers); construction-bound solvers ride parameter mode on
/// their smallest spec.
fn base_spec(name: &str) -> InstanceSpec {
    match name {
        "two-coloring" => InstanceSpec::Path { n: 120 },
        "linial" => InstanceSpec::Path { n: 600 },
        "randomized" => InstanceSpec::Path { n: 700 },
        "generic-coloring" => InstanceSpec::Theorem11 { n: 400, k: 2 },
        "dfree-a" => InstanceSpec::Spider {
            legs: 3,
            leg_len: 8,
        },
        "fast-decomposition" => InstanceSpec::Caterpillar { spine: 8, legs: 2 },
        "labeling-solver" => InstanceSpec::CompleteAry {
            arity: 2,
            height: 4,
        },
        "path-lcl" => InstanceSpec::Path { n: 96 },
        other => resolver()
            .find(other)
            .unwrap_or_else(|| panic!("`{other}` not in registry"))
            .smallest_spec(),
    }
}

/// Steps one session to completion, checking the incremental state
/// against the from-scratch baseline after every batch; returns the
/// per-batch labels and rounds for cross-variant comparison.
fn run_session(
    name: &str,
    script: &ChurnScript,
    seed: u64,
    chunk_size: usize,
    threads: usize,
) -> BatchTrace {
    let cfg = RunConfig::seeded(seed).with_engine(EngineConfig {
        chunk_size,
        threads,
        check_arena: true,
        shard: None,
    });
    let ctx = format!(
        "{name} × {} seed {seed} cs={chunk_size} t={threads}",
        script.name
    );
    let mut session = DynamicSession::new(name, base_spec(name), script.clone(), cfg)
        .unwrap_or_else(|e| panic!("{ctx}: session failed to open: {e}"));
    let mut labels_by_batch = Vec::new();
    let mut rounds_by_batch = Vec::new();
    while session.batches_remaining() > 0 {
        let out = session
            .step()
            .unwrap_or_else(|e| panic!("{ctx}: step failed: {e}"));
        assert_eq!(out.n, session.node_count(), "{ctx}: outcome node count");
        assert!(
            out.dirty <= out.region && out.region <= out.n,
            "{ctx}: dirty/region bounds"
        );
        let baseline = session
            .full_resolve()
            .unwrap_or_else(|e| panic!("{ctx}: baseline failed: {e}"));
        assert_eq!(
            baseline.labels,
            session.labels(),
            "{ctx}: labels diverged at batch {} (incremental={})",
            out.batch,
            out.incremental
        );
        assert_eq!(
            baseline.rounds,
            session.rounds(),
            "{ctx}: rounds diverged at batch {} (incremental={})",
            out.batch,
            out.incremental
        );
        assert!(baseline.verified, "{ctx}: baseline verification");
        labels_by_batch.push(session.labels().to_vec());
        rounds_by_batch.push(session.rounds().to_vec());
    }
    (labels_by_batch, rounds_by_batch)
}

/// Per-batch labels and rounds from one session — the cross-config
/// comparison unit of the sweep.
type BatchTrace = (Vec<Vec<u64>>, Vec<Vec<u64>>);

/// The full sweep for one solver: scripts × seeds × chunk sizes, with the
/// thread count alternating across seeds and all chunk-size variants
/// required to agree batch-by-batch.
fn churn_differential(name: &str) {
    let n0 = base_spec(name)
        .build()
        .unwrap_or_else(|e| panic!("{name}: base spec failed to build: {e}"))
        .node_count();
    for script in scripts() {
        for seed in 0..8u64 {
            let threads = 1 + (seed % 2) as usize;
            let mut reference: Option<BatchTrace> = None;
            for chunk_size in [1, 7, 64, n0.max(1)] {
                let got = run_session(name, &script, seed, chunk_size, threads);
                match &reference {
                    None => reference = Some(got),
                    Some(expected) => {
                        assert_eq!(
                            expected.0, got.0,
                            "{name} × {} seed {seed}: labels differ across chunk sizes",
                            script.name
                        );
                        assert_eq!(
                            expected.1, got.1,
                            "{name} × {} seed {seed}: rounds differ across chunk sizes",
                            script.name
                        );
                    }
                }
            }
        }
    }
}

// One test per solver so the sweep parallelizes across test threads and a
// divergence names its solver in the failing test.

#[test]
fn churn_two_coloring() {
    churn_differential("two-coloring");
}

#[test]
fn churn_linial() {
    churn_differential("linial");
}

#[test]
fn churn_randomized() {
    churn_differential("randomized");
}

#[test]
fn churn_generic_coloring() {
    churn_differential("generic-coloring");
}

#[test]
fn churn_apoly() {
    churn_differential("apoly");
}

#[test]
fn churn_a35() {
    churn_differential("a35");
}

#[test]
fn churn_weight_augmented() {
    churn_differential("weight-augmented");
}

#[test]
fn churn_dfree_a() {
    churn_differential("dfree-a");
}

#[test]
fn churn_fast_decomposition() {
    churn_differential("fast-decomposition");
}

#[test]
fn churn_labeling_solver() {
    churn_differential("labeling-solver");
}

#[test]
fn churn_path_lcl() {
    churn_differential("path-lcl");
}

#[test]
fn local_solvers_actually_splice() {
    // The suite is vacuous if the local solvers never take the dirty-
    // region path: on their long-path bases, at least one batch per
    // session must re-solve a strict subset of the tree.
    for name in ["linial", "randomized"] {
        let script = ChurnScript::preset("prune-regrow")
            .expect("preset exists")
            .with_volume(2, 10);
        let cfg = RunConfig::seeded(1).with_engine(EngineConfig {
            chunk_size: 64,
            threads: 1,
            check_arena: true,
            shard: None,
        });
        let mut session =
            DynamicSession::new(name, base_spec(name), script, cfg).expect("session opens");
        assert!(session.is_local(), "{name} must advertise a churn radius");
        let mut spliced = 0usize;
        while session.batches_remaining() > 0 {
            let out = session.step().expect("step");
            if out.incremental {
                assert!(out.region < out.n, "{name}: region must be strict");
                spliced += 1;
            }
        }
        assert!(spliced > 0, "{name}: no batch took the incremental path");
    }
}

#[test]
fn sharded_sessions_match_monolithic_ones_and_say_so() {
    // Region runs execute on the engine the config selects, like full
    // re-solves: under a shard config every step, incremental or not,
    // runs on the out-of-core executor, matches the same session on the
    // monolithic engine batch by batch, and its record says "sharded".
    let engine = |shard| EngineConfig {
        chunk_size: 16,
        threads: 1,
        check_arena: true,
        shard,
    };
    let sharded = ShardConfig {
        shards: 2,
        max_resident: 1,
        packing: false,
    };
    for name in ["linial", "randomized"] {
        let script = ChurnScript::preset("prune-regrow")
            .expect("preset exists")
            .with_volume(2, 10);
        let open = |shard| {
            let cfg = RunConfig::seeded(1).with_engine(engine(shard));
            DynamicSession::new(name, base_spec(name), script.clone(), cfg).expect("session opens")
        };
        let mut session = open(Some(sharded.clone()));
        let mut monolithic = open(None);
        let mut spliced = 0usize;
        while session.batches_remaining() > 0 {
            let out = session.step().expect("sharded step");
            let expected = monolithic.step().expect("monolithic step");
            let ctx = format!(
                "{name} batch {} (incremental={})",
                out.batch, out.incremental
            );
            assert_eq!(session.labels(), monolithic.labels(), "{ctx}: labels");
            assert_eq!(session.rounds(), monolithic.rounds(), "{ctx}: rounds");
            assert_eq!(out.incremental, expected.incremental, "{ctx}: path taken");
            assert_eq!(out.record.engine, "sharded", "{ctx}: engine tag");
            assert_eq!(expected.record.engine, "chunked", "{ctx}: engine tag");
            spliced += usize::from(out.incremental);
        }
        assert!(spliced > 0, "{name}: no batch took the incremental path");
    }
}

#[test]
fn adversarial_shape_families_survive_churn() {
    // Every adversarial generator family, churned under the free-tree
    // discipline with a representative solver, stays differentially
    // clean. (The per-solver sweeps above cover spider/caterpillar/
    // complete-ary; this pins the remaining families and keeps all six
    // under churn by name.)
    let shapes = [
        InstanceSpec::Caterpillar { spine: 6, legs: 2 },
        InstanceSpec::Ladder { rungs: 12 },
        InstanceSpec::Broom {
            spine: 8,
            bristles: 6,
        },
        InstanceSpec::Spider {
            legs: 4,
            leg_len: 6,
        },
        InstanceSpec::CompleteAry {
            arity: 3,
            height: 3,
        },
        InstanceSpec::HeavyPath { n: 40 },
    ];
    let script = ChurnScript::preset("rehang-storm")
        .expect("preset exists")
        .with_volume(2, 8);
    for spec in shapes {
        for name in ["dfree-a", "labeling-solver"] {
            let cfg = RunConfig::seeded(4).with_engine(EngineConfig {
                chunk_size: 7,
                threads: 2,
                check_arena: true,
                shard: None,
            });
            let ctx = format!("{name} on {}", spec.describe());
            let mut session = DynamicSession::new(name, spec.clone(), script.clone(), cfg)
                .unwrap_or_else(|e| panic!("{ctx}: session failed to open: {e}"));
            while session.batches_remaining() > 0 {
                session
                    .step()
                    .unwrap_or_else(|e| panic!("{ctx}: step failed: {e}"));
                let baseline = session
                    .full_resolve()
                    .unwrap_or_else(|e| panic!("{ctx}: baseline failed: {e}"));
                assert_eq!(baseline.labels, session.labels(), "{ctx}: labels");
                assert_eq!(baseline.rounds, session.rounds(), "{ctx}: rounds");
            }
        }
    }
}

#[test]
fn adversarial_specs_match_their_generators() {
    // The spec layer must be a faithful veneer over the raw generators —
    // same node counts, same ports.
    let pairs = [
        (
            InstanceSpec::Caterpillar { spine: 6, legs: 2 },
            caterpillar(6, 2),
        ),
        (InstanceSpec::Ladder { rungs: 9 }, ladder(9)),
        (
            InstanceSpec::Broom {
                spine: 5,
                bristles: 7,
            },
            broom(5, 7).expect("valid broom"),
        ),
        (
            InstanceSpec::Spider {
                legs: 4,
                leg_len: 5,
            },
            spider(4, 5),
        ),
        (
            InstanceSpec::CompleteAry {
                arity: 3,
                height: 3,
            },
            complete_ary_tree(3, 3),
        ),
        (InstanceSpec::HeavyPath { n: 64 }, heavy_path_skewed(64)),
    ];
    for (spec, tree) in pairs {
        let instance = spec
            .build()
            .unwrap_or_else(|e| panic!("{} failed to build: {e}", spec.describe()));
        assert_eq!(
            instance.node_count(),
            tree.node_count(),
            "{}: node count",
            spec.describe()
        );
        assert_eq!(
            instance.node_count(),
            spec.requested_n(),
            "{}: requested_n",
            spec.describe()
        );
        for v in 0..tree.node_count() {
            assert_eq!(
                instance.tree().neighbors(v),
                tree.neighbors(v),
                "{}: ports of node {v}",
                spec.describe()
            );
        }
    }
}

#[test]
fn every_registry_solver_is_covered() {
    // The per-solver tests above must never silently fall out of sync
    // with the registry.
    let covered = [
        "two-coloring",
        "linial",
        "randomized",
        "generic-coloring",
        "apoly",
        "a35",
        "weight-augmented",
        "dfree-a",
        "fast-decomposition",
        "labeling-solver",
        "path-lcl",
    ];
    let mut names: Vec<&str> = resolver().algorithms().iter().map(|a| a.name()).collect();
    names.sort_unstable();
    let mut expected: Vec<&str> = covered.to_vec();
    expected.sort_unstable();
    assert_eq!(names, expected);
    for name in covered {
        // Every solver's churn base must build and be supported.
        let spec = base_spec(name);
        let kind = spec.kind();
        assert!(
            resolver().find(name).expect("registered").supports(kind),
            "{name} does not support its churn base {kind:?}"
        );
    }
}
